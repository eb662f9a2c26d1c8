//! Static QEP verification: plan-time schema and contract analysis.
//!
//! GRFusion's cross-model QEPs compose graph operators (VertexScan /
//! EdgeScan / PathScan) freely with relational ones, which means an
//! ill-formed plan node — a pushed traversal predicate reading a column
//! its view's source does not have, a non-numeric path anchor — would otherwise
//! only surface as a mid-execution `Err` deep inside the executor, after
//! side effects and wasted traversal work. Expressions are resolved and
//! typed once, by `expr::compile`, which rejects an ill-typed query with
//! the source span of the offending token; this module checks the plan
//! the planner builds from them, in two layers:
//!
//! 1. **Plan verification** ([`verify_plan`]): after the planner builds a
//!    physical tree, every node's output schema is re-derived bottom-up
//!    and checked for width/type consistency, and graph-operator
//!    invariants are validated statically: every source column a scan
//!    reads through a tuple pointer lies inside its view's source schema,
//!    anchors are numeric, and SHORTESTPATH / reachability scans carry the
//!    anchors their physical implementation requires.
//! 2. **Contract inference** ([`node_contracts`]): for each node, the
//!    statically inferred per-column type + nullability contract that the
//!    debug-mode operator wrapper (see `exec.rs`) asserts against every
//!    emitted tuple — turning the analyzer into a continuously
//!    self-checking oracle across the whole test suite.
//!
//! [`explain_typed`] renders the plan with the inferred schema per node,
//! so plan-shape locks also lock types.

use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{DataType, Error, Result, Schema};

use crate::expr::{
    is_numeric, show, AggFunc, EdgeAttr, GraphMeta, PathProp, PhysExpr, SlotAttr, VertexAttr,
};
use crate::plan::{AggSpec, Emit, PathScanConfig, PlanNode, ScanMode, StartSource};

// ---------------------------------------------------------------------------
// Plan verification (runs on every planned SELECT before execution)
// ---------------------------------------------------------------------------

/// Re-derive and verify every node's output schema bottom-up, and check
/// the graph-operator invariants the physical traversal relies on. A
/// failure here is a planner bug surfacing at plan time instead of a
/// corrupt execution.
pub fn verify_plan(
    plan: &PlanNode,
    graphs: &HashMap<String, GraphMeta>,
    tables: &HashMap<String, Arc<Schema>>,
) -> Result<()> {
    for input in plan.inputs() {
        verify_plan(input, graphs, tables)?;
    }
    match plan {
        PlanNode::TableScan { table, schema, .. } => {
            if let Some(cat) = tables.get(table) {
                expect_width(plan, schema.len(), cat.len())?;
            }
            Ok(())
        }
        PlanNode::IndexLookup { table, schema, column, .. } => {
            if let Some(cat) = tables.get(table) {
                expect_width(plan, schema.len(), cat.len())?;
            }
            if *column >= schema.len() {
                return Err(plan_bug(plan, "index column out of range"));
            }
            Ok(())
        }
        PlanNode::VertexScan { graph, .. } | PlanNode::EdgeScan { graph, .. } => {
            require_graph(graphs, graph).map(|_| ())
        }
        PlanNode::PathScan { config, schema } => {
            let all = |ty| schema.columns().iter().all(|c| c.data_type == ty);
            match config.emit {
                Emit::Paths if schema.len() != 1 || !all(DataType::Path) => {
                    return Err(plan_bug(plan, "path scan must emit exactly one PATH column"));
                }
                Emit::Count if schema.is_empty() || !all(DataType::Integer) => {
                    return Err(plan_bug(plan, "counting path scan must emit INTEGER columns"));
                }
                _ => {}
            }
            check_config(plan, config, graphs)
        }
        PlanNode::PathJoin { outer, config, schema } => {
            if config.emit != Emit::Paths {
                return Err(plan_bug(plan, "path join cannot count: it emits outer ⊕ path"));
            }
            expect_width(plan, schema.len(), outer.schema().len() + 1)?;
            if schema.column(schema.len() - 1).data_type != DataType::Path {
                return Err(plan_bug(plan, "path join must append a PATH column"));
            }
            check_config(plan, config, graphs)
        }
        PlanNode::Filter { input, schema, .. }
        | PlanNode::Sort { input, schema, .. }
        | PlanNode::Limit { input, schema, .. }
        | PlanNode::Distinct { input, schema } => {
            expect_width(plan, schema.len(), input.schema().len())
        }
        PlanNode::NestedLoopJoin { left, right, schema, .. } => {
            expect_width(plan, schema.len(), left.schema().len() + right.schema().len())
        }
        PlanNode::IndexJoin { outer, table, column, schema, .. } => {
            if let Some(cat) = tables.get(table) {
                expect_width(plan, schema.len(), outer.schema().len() + cat.len())?;
                if *column >= cat.len() {
                    return Err(plan_bug(plan, "index column out of range"));
                }
            }
            Ok(())
        }
        PlanNode::Project { exprs, schema, .. } => {
            expect_width(plan, schema.len(), exprs.len())?;
            for (i, e) in exprs.iter().enumerate() {
                if let Some(t) = e.ty() {
                    let declared = schema.column(i).data_type;
                    if t != declared {
                        return Err(plan_bug(
                            plan,
                            &format!(
                                "column {i} (`{}`) declared {declared} but computes {t}",
                                schema.column(i).name
                            ),
                        ));
                    }
                }
            }
            Ok(())
        }
        PlanNode::Aggregate { group_exprs, aggs, schema, .. } => {
            expect_width(plan, schema.len(), group_exprs.len() + aggs.len())
        }
    }
}

fn expect_width(plan: &PlanNode, declared: usize, derived: usize) -> Result<()> {
    if declared != derived {
        return Err(plan_bug(
            plan,
            &format!("schema declares {declared} columns but the node produces {derived}"),
        ));
    }
    Ok(())
}

fn plan_bug(plan: &PlanNode, detail: &str) -> Error {
    Error::plan(format!(
        "plan verification failed at {}: {detail}",
        plan.node_label()
    ))
}

fn require_graph<'a>(
    graphs: &'a HashMap<String, GraphMeta>,
    name: &str,
) -> Result<&'a GraphMeta> {
    graphs
        .get(name)
        .ok_or_else(|| Error::plan(format!("plan references unknown graph view `{name}`")))
}

/// Graph-operator invariants for a path scan / path join configuration.
///
/// An empty traversal window (`min_len > max_len`) is deliberately *not*
/// an error: `PS.Length = 5 AND PS.Length = 2` is a legal query whose
/// answer is zero rows.
fn check_config(
    plan: &PlanNode,
    config: &PathScanConfig,
    graphs: &HashMap<String, GraphMeta>,
) -> Result<()> {
    let meta = require_graph(graphs, &config.graph)?;

    if matches!(config.mode, ScanMode::ShortestPath { .. }) {
        if config.end.is_none() {
            return Err(Error::plan("SHORTESTPATH scan without end anchor"));
        }
        if matches!(config.start, StartSource::AllVertexes) {
            return Err(Error::plan("SHORTESTPATH scan without start anchor"));
        }
    }
    if config.reachability && config.end.is_none() {
        return Err(Error::plan("reachability scan without end anchor"));
    }
    if config.closing {
        if config.min_len != config.max_len || config.min_len == 0 {
            return Err(plan_bug(plan, "closing scan without an exact length window"));
        }
        if matches!(config.mode, ScanMode::ShortestPath { .. }) {
            return Err(plan_bug(plan, "closing SHORTESTPATH scan"));
        }
        if config.reachability {
            return Err(plan_bug(plan, "closing reachability scan"));
        }
    }

    for (label, anchor) in [
        ("start", start_expr(&config.start)),
        ("end", config.end.as_ref()),
    ] {
        if let Some(e) = anchor {
            let t = e.ty();
            if !is_numeric(t) {
                return Err(Error::analysis(format!(
                    "path {label} anchor must be a numeric vertex id, got {}",
                    show(t)
                )));
            }
        }
    }

    // Every source column the scan reads through a tuple pointer lies
    // inside its view's source schema.
    let cost = match config.mode {
        ScanMode::ShortestPath { cost, .. } => Some(SlotAttr::Edge(EdgeAttr::Col(cost))),
        _ => None,
    };
    let pushed = config.preds.iter().map(|p| p.attr);
    let bounded = config.agg_preds.iter().map(|p| p.attr);
    for attr in pushed.chain(bounded).chain(cost) {
        let outside = match attr {
            SlotAttr::Edge(EdgeAttr::Col(c)) => c >= meta.edge_schema.len(),
            SlotAttr::Vertex(VertexAttr::Col(c)) => c >= meta.vertex_schema.len(),
            SlotAttr::Edge(_) | SlotAttr::Vertex(_) => false,
        };
        if outside {
            let detail = format!("{attr:?} lies outside its source schema");
            return Err(plan_bug(plan, &detail));
        }
    }
    Ok(())
}

fn start_expr(start: &StartSource) -> Option<&PhysExpr> {
    match start {
        StartSource::AllVertexes => None,
        StartSource::Constant(e) | StartSource::Probe(e) => Some(e),
    }
}

// ---------------------------------------------------------------------------
// Per-node contracts (consumed by the executor's contract check and typed EXPLAIN)
// ---------------------------------------------------------------------------

/// The statically inferred output contract of one plan node.
#[derive(Debug, Clone)]
pub struct NodeContract {
    pub schema: Arc<Schema>,
    /// Per column: whether the declared type is statically certain. False
    /// for parameter- and NULL-literal-derived columns, whose schema type
    /// is a placeholder.
    pub check: Vec<bool>,
    /// Per column: whether NULL may legally appear.
    pub nullable: Vec<bool>,
}

/// Contracts for every node in **pre-order** (node before children,
/// children in `explain` order) — the same order `exec::build` walks the
/// tree, so the builder can hand them out in step.
pub fn node_contracts(plan: &PlanNode) -> Vec<NodeContract> {
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

fn walk(plan: &PlanNode, out: &mut Vec<NodeContract>) -> usize {
    let idx = out.len();
    let n = plan.schema().len();
    out.push(NodeContract {
        schema: plan.schema().clone(),
        check: Vec::new(),
        nullable: Vec::new(),
    });
    let (check, nullable) = match plan {
        PlanNode::TableScan { .. } | PlanNode::IndexLookup { .. } => {
            (vec![true; n], vec![true; n])
        }
        PlanNode::VertexScan { .. } => {
            // [id, attrs..., fanin, fanout] — synthesized columns are
            // never NULL, exposed attributes may be.
            let mut nul = vec![true; n];
            nul[0] = false;
            if n >= 3 {
                nul[n - 1] = false;
                nul[n - 2] = false;
            }
            (vec![true; n], nul)
        }
        PlanNode::EdgeScan { .. } => {
            // [id, from, to, attrs...]
            let mut nul = vec![true; n];
            for slot in nul.iter_mut().take(3) {
                *slot = false;
            }
            (vec![true; n], nul)
        }
        PlanNode::PathScan { .. } => (vec![true; n], vec![false; n]),
        PlanNode::PathJoin { outer, .. } => {
            let o = walk(outer, out);
            let mut check = out[o].check.clone();
            let mut nul = out[o].nullable.clone();
            check.push(true);
            nul.push(false);
            (check, nul)
        }
        PlanNode::NestedLoopJoin { left, right, .. } => {
            let l = walk(left, out);
            let r = walk(right, out);
            let check = [out[l].check.as_slice(), out[r].check.as_slice()].concat();
            let nul = [out[l].nullable.as_slice(), out[r].nullable.as_slice()].concat();
            (check, nul)
        }
        PlanNode::IndexJoin { outer, .. } => {
            let o = walk(outer, out);
            let inner = n.saturating_sub(out[o].check.len());
            let mut check = out[o].check.clone();
            let mut nul = out[o].nullable.clone();
            check.extend(std::iter::repeat(true).take(inner));
            nul.extend(std::iter::repeat(true).take(inner));
            (check, nul)
        }
        PlanNode::Filter { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Distinct { input, .. } => {
            let i = walk(input, out);
            (out[i].check.clone(), out[i].nullable.clone())
        }
        PlanNode::Project { input, exprs, .. } => {
            let i = walk(input, out);
            let (ic, inl) = (out[i].check.clone(), out[i].nullable.clone());
            let check = exprs.iter().map(|e| expr_checkable(e, &ic)).collect();
            let nul = exprs.iter().map(|e| expr_nullable(e, &inl)).collect();
            (check, nul)
        }
        PlanNode::Aggregate { input, group_exprs, aggs, .. } => {
            let i = walk(input, out);
            let (ic, inl) = (out[i].check.clone(), out[i].nullable.clone());
            let mut check: Vec<bool> =
                group_exprs.iter().map(|e| expr_checkable(e, &ic)).collect();
            let mut nul: Vec<bool> =
                group_exprs.iter().map(|e| expr_nullable(e, &inl)).collect();
            for AggSpec { func, arg } in aggs {
                match func {
                    AggFunc::Count => {
                        check.push(true);
                        nul.push(false);
                    }
                    _ => {
                        check.push(arg.as_ref().is_some_and(|e| expr_checkable(e, &ic)));
                        // SUM/AVG/MIN/MAX over an empty group are NULL.
                        nul.push(true);
                    }
                }
            }
            (check, nul)
        }
    };
    out[idx].check = check;
    out[idx].nullable = nullable;
    idx
}

/// Whether the expression's declared type is statically certain given
/// which input columns are.
fn expr_checkable(e: &PhysExpr, input: &[bool]) -> bool {
    match e {
        PhysExpr::Literal(v) => !v.is_null(),
        PhysExpr::Param { .. } => false,
        PhysExpr::Column { index, .. } => input.get(*index).copied().unwrap_or(false),
        PhysExpr::PathProp { .. } | PhysExpr::PathAgg { .. } => true,
        // Predicates are BOOLEAN no matter what feeds them.
        PhysExpr::Not(_)
        | PhysExpr::And(..)
        | PhysExpr::Or(..)
        | PhysExpr::Cmp { .. }
        | PhysExpr::InList { .. }
        | PhysExpr::Between { .. }
        | PhysExpr::Quant { .. } => true,
        PhysExpr::Neg(inner) => expr_checkable(inner, input),
        PhysExpr::Arith { left, right, .. } => {
            expr_checkable(left, input) && expr_checkable(right, input)
        }
    }
}

/// 3VL nullability: may evaluating this expression yield NULL, given
/// which input columns may be NULL?
fn expr_nullable(e: &PhysExpr, input: &[bool]) -> bool {
    match e {
        PhysExpr::Literal(v) => v.is_null(),
        PhysExpr::Param { .. } => true,
        PhysExpr::Column { index, .. } => input.get(*index).copied().unwrap_or(true),
        PhysExpr::PathProp { prop, .. } => match prop {
            // Always defined on any non-empty path.
            PathProp::Whole
            | PathProp::Length
            | PathProp::PathString
            | PathProp::Cost
            | PathProp::StartVertexId
            | PathProp::EndVertexId => false,
            // Attribute values come from base rows (may be NULL) and
            // positional element refs past the path's end are NULL.
            _ => true,
        },
        PhysExpr::PathAgg { func, .. } => !matches!(func, AggFunc::Count),
        // Kleene logic: NULL only escapes a connective if an operand can
        // be NULL; comparisons of non-NULL comparable values are defined.
        PhysExpr::Not(inner) => expr_nullable(inner, input),
        PhysExpr::And(a, b) | PhysExpr::Or(a, b) => {
            expr_nullable(a, input) || expr_nullable(b, input)
        }
        PhysExpr::Cmp { left, right, .. } => {
            expr_nullable(left, input) || expr_nullable(right, input)
        }
        PhysExpr::InList { expr, list, .. } => {
            expr_nullable(expr, input) || list.iter().any(|e| expr_nullable(e, input))
        }
        PhysExpr::Between { expr, low, high, .. } => {
            expr_nullable(expr, input)
                || expr_nullable(low, input)
                || expr_nullable(high, input)
        }
        // Quantified range tests always produce a definite boolean.
        PhysExpr::Quant { .. } => false,
        PhysExpr::Neg(inner) => expr_nullable(inner, input),
        PhysExpr::Arith { left, right, .. } => {
            expr_nullable(left, input) || expr_nullable(right, input)
        }
    }
}

// ---------------------------------------------------------------------------
// Typed EXPLAIN
// ---------------------------------------------------------------------------

/// Render one node's inferred schema: `(name TYPE, other TYPE?, ...)` —
/// `?` marks nullable columns, `*` columns whose type is a placeholder
/// (parameters / NULL literals).
pub fn render_contract(c: &NodeContract) -> String {
    let cols: Vec<String> = c
        .schema
        .columns()
        .iter()
        .enumerate()
        .map(|(i, col)| {
            format!(
                "{} {}{}{}",
                col.name,
                col.data_type,
                if c.nullable.get(i).copied().unwrap_or(true) { "?" } else { "" },
                if c.check.get(i).copied().unwrap_or(true) { "" } else { "*" },
            )
        })
        .collect();
    format!("({})", cols.join(", "))
}

/// `EXPLAIN` text with the statically inferred schema appended to every
/// node line, so plan-shape locks also lock types.
pub fn explain_typed(plan: &PlanNode) -> String {
    let contracts = node_contracts(plan);
    let mut out = String::new();
    let mut cursor = 0usize;
    explain_typed_into(plan, &contracts, &mut cursor, &mut out, 0);
    out
}

fn explain_typed_into(
    plan: &PlanNode,
    contracts: &[NodeContract],
    cursor: &mut usize,
    out: &mut String,
    depth: usize,
) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&plan.node_label());
    if let Some(c) = contracts.get(*cursor) {
        out.push_str(" :: ");
        out.push_str(&render_contract(c));
    }
    out.push('\n');
    *cursor += 1;
    for input in plan.inputs() {
        explain_typed_into(input, contracts, cursor, out, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, QuantTest};
    use crate::graph_view::GraphViewDef;
    use crate::plan::PushedPred;
    use grfusion_common::{Column, Value};
    use grfusion_sql::IndexEnd;

    /// Verify a shortest-path scan over view `g` — vertexes with one
    /// source column, edges with four — whose cost is edge column `cost`
    /// and which pushes a test on `attr`.
    fn verify_scan(cost: usize, attr: SlotAttr) -> Result<()> {
        let schema = |n: usize| {
            let cols = (0..n).map(|i| Column::new(format!("c{i}"), DataType::Integer));
            Arc::new(Schema::new(cols.collect()))
        };
        let def = GraphViewDef {
            name: "g".into(),
            directed: true,
            vertex_source: "v".into(),
            edge_source: "e".into(),
            vertex_id_col: 0,
            vertex_attrs: Vec::new(),
            edge_id_col: 0,
            edge_from_col: 1,
            edge_to_col: 2,
            edge_attrs: vec![("w".into(), 3)],
        };
        let meta = GraphMeta {
            def: Arc::new(def),
            vertex_schema: schema(1),
            edge_schema: schema(4),
        };
        let one = PhysExpr::Literal(Value::Integer(1));
        let test = QuantTest::Cmp {
            op: CmpOp::Lt,
            rhs: Box::new(one.clone()),
        };
        let config = PathScanConfig {
            graph: "g".into(),
            mode: ScanMode::ShortestPath {
                cost_attr: "w".into(),
                cost,
            },
            min_len: 0,
            max_len: 4,
            explicit_max_len: false,
            start: StartSource::Constant(one.clone()),
            end: Some(one),
            preds: vec![PushedPred {
                start: 0,
                end: IndexEnd::Star,
                attr,
                test,
            }],
            agg_preds: Vec::new(),
            lazy: true,
            reachability: false,
            closing: false,
            emit: Emit::Paths,
        };
        let plan = PlanNode::PathScan {
            config,
            schema: Arc::new(Schema::new(vec![Column::new("ps", DataType::Path)])),
        };
        let graphs = HashMap::from([("g".to_string(), meta)]);
        verify_plan(&plan, &graphs, &HashMap::new())
    }

    #[test]
    fn resolved_columns_lie_inside_the_source_schemas() {
        let edge = |c| SlotAttr::Edge(EdgeAttr::Col(c));
        let vertex = |c| SlotAttr::Vertex(VertexAttr::Col(c));
        assert!(verify_scan(3, edge(3)).is_ok());
        assert!(verify_scan(3, vertex(0)).is_ok());
        assert!(verify_scan(3, SlotAttr::Vertex(VertexAttr::FanOut)).is_ok());
        for (cost, attr) in [(4, edge(3)), (3, edge(4)), (3, vertex(1))] {
            let err = verify_scan(cost, attr).err().map(|e| e.to_string());
            let outside = err.as_deref().is_some_and(|e| e.contains("outside its source"));
            assert!(outside, "cost {cost}, {attr:?}: {err:?}");
        }
    }
}
