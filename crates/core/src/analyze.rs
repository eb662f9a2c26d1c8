//! Static QEP verification: plan-time schema/type analysis.
//!
//! GRFusion's cross-model QEPs compose graph operators (VertexScan /
//! EdgeScan / PathScan) freely with relational ones, which means an
//! ill-typed plan node — a `Paths.` attribute that doesn't resolve, a
//! predicate comparing PATH to INTEGER — would otherwise only surface as
//! a mid-execution `Err` deep inside the executor, after side effects and
//! wasted traversal work. This module closes that gap with three layers:
//!
//! 1. **AST typechecking** ([`check_select`]): every expression of a
//!    SELECT is typed with 3VL-aware inference *before* residual
//!    compilation. Ill-typed queries are rejected at plan time with the
//!    source span of the offending token. Unknown types (parameters, NULL
//!    literals) unify with everything, mirroring runtime coercion.
//! 2. **Plan verification** ([`verify_plan`]): after the planner builds a
//!    physical tree, every node's output schema is re-derived bottom-up
//!    and checked for width/type consistency, and graph-operator
//!    invariants are validated statically: pushed-down predicates only
//!    reference attributes the traversal can materialize, anchors are
//!    numeric, and SHORTESTPATH / reachability scans carry the anchors
//!    their physical implementation requires.
//! 3. **Contract inference** ([`node_contracts`]): for each node, the
//!    statically inferred per-column type + nullability contract that the
//!    debug-mode operator wrapper (see `exec.rs`) asserts against every
//!    emitted tuple — turning the analyzer into a continuously
//!    self-checking oracle across the whole test suite.
//!
//! [`explain_typed`] renders the plan with the inferred schema per node,
//! so plan-shape locks also lock types.

use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{DataType, Error, Result, Schema, Value};
use grfusion_sql::{BinaryOp, Expr, RefPart, Select, SelectItem, UnaryOp};

use crate::expr::{AggFunc, BindingKind, GraphMeta, Namespace, PathProp, PhysExpr};
use crate::plan::{
    AggSpec, Emit, PathScanConfig, PlanNode, PushedAggPred, PushedPred, ScanMode, StartSource,
};

/// The analyzer's type domain: `None` is "unknown" (parameters and NULL
/// literals), which unifies with every concrete type — exactly the values
/// the runtime coerces dynamically.
pub type Ty = Option<DataType>;

fn show(t: Ty) -> String {
    match t {
        Some(dt) => dt.to_string(),
        None => "UNKNOWN".to_string(),
    }
}

fn is_numeric(t: Ty) -> bool {
    matches!(t, None | Some(DataType::Integer) | Some(DataType::Double))
}

fn is_boolean(t: Ty) -> bool {
    matches!(t, None | Some(DataType::Boolean))
}

/// `" at line:col"` for a reference part, empty if the span is unknown.
fn at(part: &RefPart) -> String {
    if part.span.is_known() {
        format!(" at {}", part.span)
    } else {
        String::new()
    }
}

fn value_type(v: &Value) -> Ty {
    match v {
        Value::Null => None,
        Value::Integer(_) => Some(DataType::Integer),
        Value::Double(_) => Some(DataType::Double),
        Value::Boolean(_) => Some(DataType::Boolean),
        Value::Text(_) => Some(DataType::Varchar),
        Value::Path(_) => Some(DataType::Path),
    }
}

// ---------------------------------------------------------------------------
// AST typechecking (runs in the planner, before residual compilation)
// ---------------------------------------------------------------------------

/// Typecheck every expression of a SELECT against the FROM namespace.
///
/// Acceptance is deliberately *at least* as permissive as `expr::compile`
/// on structural matters (ranged references, aggregate placement): the
/// compiler stays the authority there. What this pass adds is type
/// soundness — comparisons must be comparable, arithmetic numeric,
/// predicates boolean — and attribute resolution with source spans for
/// forms the compiler defers to runtime (quantified-range attributes).
pub fn check_select(select: &Select, ns: &Namespace) -> Result<()> {
    if let Some(sel) = &select.selection {
        expect_boolean(sel, ns, "WHERE")?;
    }
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            infer(expr, ns)?;
        }
    }
    for g in &select.group_by {
        infer(g, ns)?;
    }
    if let Some(h) = &select.having {
        expect_boolean(h, ns, "HAVING")?;
    }
    for (e, _) in &select.order_by {
        infer(e, ns)?;
    }
    Ok(())
}

fn expect_boolean(e: &Expr, ns: &Namespace, clause: &str) -> Result<()> {
    let t = infer(e, ns)?;
    if !is_boolean(t) {
        return Err(Error::analysis(format!(
            "{clause} predicate must be BOOLEAN, got {}{}",
            show(t),
            e.span_suffix()
        )));
    }
    Ok(())
}

/// Infer the type of an expression, rejecting ill-typed subtrees.
pub fn infer(expr: &Expr, ns: &Namespace) -> Result<Ty> {
    match expr {
        Expr::Literal(v) => Ok(value_type(v)),
        Expr::Parameter(_) => Ok(None),
        Expr::CompoundRef(parts) => ref_type(parts, ns),
        Expr::Unary { op: UnaryOp::Not, expr: inner } => {
            let t = infer(inner, ns)?;
            if !is_boolean(t) {
                return Err(Error::analysis(format!(
                    "NOT requires a BOOLEAN operand, got {}{}",
                    show(t),
                    inner.span_suffix()
                )));
            }
            Ok(Some(DataType::Boolean))
        }
        Expr::Unary { op: UnaryOp::Neg, expr: inner } => {
            let t = infer(inner, ns)?;
            if !is_numeric(t) {
                return Err(Error::analysis(format!(
                    "unary minus requires a numeric operand, got {}{}",
                    show(t),
                    inner.span_suffix()
                )));
            }
            Ok(t)
        }
        Expr::Binary { left, op, right } => {
            let lt = infer(left, ns)?;
            let rt = infer(right, ns)?;
            match op {
                BinaryOp::And | BinaryOp::Or => {
                    for (t, side) in [(lt, &**left), (rt, &**right)] {
                        if !is_boolean(t) {
                            return Err(Error::analysis(format!(
                                "{} requires BOOLEAN operands, got {}{}",
                                if *op == BinaryOp::And { "AND" } else { "OR" },
                                show(t),
                                side.span_suffix()
                            )));
                        }
                    }
                    Ok(Some(DataType::Boolean))
                }
                BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq => {
                    check_comparable(lt, rt, expr)?;
                    Ok(Some(DataType::Boolean))
                }
                BinaryOp::Add
                | BinaryOp::Sub
                | BinaryOp::Mul
                | BinaryOp::Div
                | BinaryOp::Mod => {
                    for (t, side) in [(lt, &**left), (rt, &**right)] {
                        if !is_numeric(t) {
                            return Err(Error::analysis(format!(
                                "arithmetic requires numeric operands, got {}{}",
                                show(t),
                                side.span_suffix()
                            )));
                        }
                    }
                    Ok(match (lt, rt) {
                        (Some(DataType::Integer), Some(DataType::Integer)) => {
                            Some(DataType::Integer)
                        }
                        (None, _) | (_, None) => None,
                        _ => Some(DataType::Double),
                    })
                }
            }
        }
        Expr::InList { expr: needle, list, .. } => {
            let t = infer(needle, ns)?;
            for item in list {
                let it = infer(item, ns)?;
                check_comparable(t, it, item)?;
            }
            Ok(Some(DataType::Boolean))
        }
        Expr::InSubquery { expr: needle, .. } => {
            // The engine folds uncorrelated subqueries into literal lists
            // before planning; the inner SELECT is analyzed on its own
            // pass. Only the needle is typed here.
            infer(needle, ns)?;
            Ok(Some(DataType::Boolean))
        }
        Expr::Between { expr: needle, low, high, .. } => {
            let t = infer(needle, ns)?;
            for bound in [&**low, &**high] {
                let bt = infer(bound, ns)?;
                check_comparable(t, bt, bound)?;
            }
            Ok(Some(DataType::Boolean))
        }
        Expr::Function { name, args, star } => {
            let Some(func) = AggFunc::parse(name) else {
                return Err(Error::analysis(format!(
                    "unknown function `{name}`{}",
                    expr.span_suffix()
                )));
            };
            if *star {
                return Ok(Some(DataType::Integer));
            }
            if args.len() != 1 {
                return Err(Error::analysis(format!(
                    "{name}() takes exactly one argument{}",
                    expr.span_suffix()
                )));
            }
            let arg = &args[0];
            let t = infer(arg, ns)?;
            match func {
                AggFunc::Count => Ok(Some(DataType::Integer)),
                AggFunc::Sum => {
                    require_numeric_agg(t, "SUM", arg)?;
                    Ok(t)
                }
                AggFunc::Avg => {
                    require_numeric_agg(t, "AVG", arg)?;
                    Ok(Some(DataType::Double))
                }
                AggFunc::Min | AggFunc::Max => {
                    if t == Some(DataType::Path) {
                        return Err(Error::analysis(format!(
                            "{} cannot aggregate PATH values{}",
                            name.to_ascii_uppercase(),
                            arg.span_suffix()
                        )));
                    }
                    Ok(t)
                }
            }
        }
    }
}

fn require_numeric_agg(t: Ty, func: &str, arg: &Expr) -> Result<()> {
    if !is_numeric(t) {
        return Err(Error::analysis(format!(
            "{func}() requires a numeric argument, got {}{}",
            show(t),
            arg.span_suffix()
        )));
    }
    Ok(())
}

/// Whether two operand types can meet in a comparison under the runtime's
/// three-valued `sql_cmp`: unknowns unify with everything, INTEGER and
/// DOUBLE cross-compare, every other pair must match exactly — and PATH
/// values have no defined ordering at all.
fn check_comparable(a: Ty, b: Ty, expr: &Expr) -> Result<()> {
    let ok = match (a, b) {
        (None, _) | (_, None) => true,
        (Some(DataType::Path), _) | (_, Some(DataType::Path)) => false,
        (Some(x), Some(y)) => x == y || (is_numeric(Some(x)) && is_numeric(Some(y))),
    };
    if !ok {
        return Err(Error::analysis(format!(
            "cannot compare {} with {}{}",
            show(a),
            show(b),
            expr.span_suffix()
        )));
    }
    Ok(())
}

/// Resolve a compound reference to its value type, validating every
/// attribute against the namespace (tables, graph-view scan schemas, and
/// the graph view's exposed vertex/edge attributes for path references).
fn ref_type(parts: &[RefPart], ns: &Namespace) -> Result<Ty> {
    if parts.len() == 1 {
        let head = &parts[0];
        if let Some(b) = ns.binding(&head.name) {
            return match &b.kind {
                BindingKind::Paths(_) => Ok(Some(DataType::Path)),
                _ => Err(Error::analysis(format!(
                    "binding `{}` cannot be used as a value; select its columns{}",
                    head.name,
                    at(head)
                ))),
            };
        }
        // Unqualified column: search every binding's schema.
        let lower = head.name.to_ascii_lowercase();
        let mut found: Ty = None;
        let mut hits = 0usize;
        for b in &ns.bindings {
            if let Some(i) = b.schema.index_of(&lower) {
                hits += 1;
                found = Some(b.schema.column(i).data_type);
            }
        }
        return match hits {
            0 => Err(Error::analysis(format!(
                "unknown column `{}`{}",
                head.name,
                at(head)
            ))),
            1 => Ok(found),
            _ => Err(Error::analysis(format!(
                "ambiguous column `{}`{}",
                head.name,
                at(head)
            ))),
        };
    }

    let head = &parts[0];
    if head.index.is_some() {
        return Err(Error::analysis(format!(
            "cannot index binding `{}` directly{}",
            head.name,
            at(head)
        )));
    }
    let Some(binding) = ns.binding(&head.name) else {
        return Err(Error::analysis(format!(
            "unknown binding `{}` in reference{}",
            head.name,
            at(head)
        )));
    };
    match &binding.kind {
        BindingKind::Table(_) | BindingKind::Vertexes(_) | BindingKind::Edges(_) => {
            if parts.len() != 2 || parts[1].index.is_some() {
                return Err(Error::analysis(format!(
                    "invalid column reference on binding `{}`{}",
                    head.name,
                    at(head)
                )));
            }
            let col = &parts[1];
            match binding.schema.index_of(&col.name.to_ascii_lowercase()) {
                Some(i) => Ok(Some(binding.schema.column(i).data_type)),
                None => Err(Error::analysis(format!(
                    "unknown column `{}` on binding `{}`{}",
                    col.name,
                    head.name,
                    at(col)
                ))),
            }
        }
        BindingKind::Paths(graph) => {
            let meta = ns.graphs.get(graph).ok_or_else(|| {
                Error::analysis(format!("unknown graph view `{graph}`"))
            })?;
            path_ref_type(meta, parts)
        }
    }
}

/// Type a `PS.<property>` reference through the graph view.
///
/// Ranged forms (`PS.Edges[0..*].attr`) resolve to the *element* type —
/// the compiler decides where a range is structurally legal; this pass
/// guarantees the attribute itself exists on the view so a quantified
/// predicate can't fail attribute resolution mid-traversal.
fn path_ref_type(meta: &GraphMeta, parts: &[RefPart]) -> Result<Ty> {
    let seg = &parts[1];
    let seg_name = seg.name.to_ascii_lowercase();
    match seg_name.as_str() {
        "length" => Ok(Some(DataType::Integer)),
        "pathstring" => Ok(Some(DataType::Varchar)),
        "cost" | "totalcost" => Ok(Some(DataType::Double)),
        "startvertexid" | "endvertexid" => Ok(Some(DataType::Integer)),
        "startvertex" | "endvertex" => {
            if parts.len() == 2 {
                return Ok(Some(DataType::Integer));
            }
            if parts.len() != 3 || parts[2].index.is_some() {
                return Err(Error::analysis(format!(
                    "expected `.attribute` after StartVertex/EndVertex{}",
                    at(seg)
                )));
            }
            let attr = &parts[2];
            vertex_attr_ty(meta, &attr.name.to_ascii_lowercase())
                .map(Some)
                .ok_or_else(|| no_vertex_attr(meta, attr))
        }
        "edges" | "vertexes" | "vertices" => {
            let is_edges = seg_name == "edges";
            if parts.len() == 2 {
                // `PS.Edges[i]` (element id) or a bare/ranged element list
                // whose structural legality the compiler decides.
                return Ok(Some(DataType::Integer));
            }
            if parts.len() != 3 || parts[2].index.is_some() {
                return Err(Error::analysis(format!(
                    "invalid path element reference on `{}`{}",
                    parts[0].name,
                    at(seg)
                )));
            }
            let attr = &parts[2];
            let lower = attr.name.to_ascii_lowercase();
            let ty = if is_edges {
                edge_attr_ty(meta, &lower).ok_or_else(|| no_edge_attr(meta, attr))?
            } else {
                vertex_attr_ty(meta, &lower).ok_or_else(|| no_vertex_attr(meta, attr))?
            };
            Ok(Some(ty))
        }
        _ => Err(Error::analysis(format!(
            "unknown path property `{}` on `{}`{}",
            seg.name,
            parts[0].name,
            at(seg)
        ))),
    }
}

/// Vertex attribute type through the view: the synthesized `id` / `fanin`
/// / `fanout` columns are INTEGER; everything else must be an exposed
/// attribute backed by a live base-table column (tuple-pointer
/// provenance).
fn vertex_attr_ty(meta: &GraphMeta, attr: &str) -> Option<DataType> {
    match attr {
        "id" | "fanin" | "fanout" => Some(DataType::Integer),
        _ => meta
            .def
            .vertex_attr_col(attr)
            .map(|c| meta.vertex_schema.column(c).data_type),
    }
}

/// Edge attribute type through the view: `id` plus the per-hop
/// `startvertex` / `endvertex` endpoints are INTEGER; everything else
/// resolves through the exposed edge attributes.
fn edge_attr_ty(meta: &GraphMeta, attr: &str) -> Option<DataType> {
    match attr {
        "id" | "startvertex" | "endvertex" => Some(DataType::Integer),
        _ => meta
            .def
            .edge_attr_col(attr)
            .map(|c| meta.edge_schema.column(c).data_type),
    }
}

fn no_vertex_attr(meta: &GraphMeta, part: &RefPart) -> Error {
    Error::analysis(format!(
        "graph view `{}` has no vertex attribute `{}`{}",
        meta.def.name,
        part.name,
        at(part)
    ))
}

fn no_edge_attr(meta: &GraphMeta, part: &RefPart) -> Error {
    Error::analysis(format!(
        "graph view `{}` has no edge attribute `{}`{}",
        meta.def.name,
        part.name,
        at(part)
    ))
}

// ---------------------------------------------------------------------------
// Physical-expression typing
// ---------------------------------------------------------------------------

/// Static type of a compiled expression, `None` where only the runtime
/// knows (parameters, NULL literals, and arithmetic over them). Unlike
/// `PhysExpr::static_type` (which must produce a concrete placeholder for
/// schema building), this is honest about unknowns — the contract check
/// only asserts columns whose type is statically certain.
pub fn phys_type(e: &PhysExpr) -> Ty {
    match e {
        PhysExpr::Literal(v) => value_type(v),
        PhysExpr::Param { .. } => None,
        PhysExpr::Column { ty, .. }
        | PhysExpr::PathProp { ty, .. }
        | PhysExpr::PathAgg { ty, .. } => Some(*ty),
        PhysExpr::Not(_)
        | PhysExpr::And(..)
        | PhysExpr::Or(..)
        | PhysExpr::Cmp { .. }
        | PhysExpr::InList { .. }
        | PhysExpr::Between { .. }
        | PhysExpr::Quant { .. } => Some(DataType::Boolean),
        PhysExpr::Neg(inner) => phys_type(inner),
        PhysExpr::Arith { left, right, .. } => match (phys_type(left), phys_type(right)) {
            (Some(DataType::Integer), Some(DataType::Integer)) => Some(DataType::Integer),
            (None, _) | (_, None) => None,
            _ => Some(DataType::Double),
        },
    }
}

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
            verify_plan(outer, graphs, tables)?;
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
            verify_plan(input, graphs, tables)?;
            expect_width(plan, schema.len(), input.schema().len())
        }
        PlanNode::NestedLoopJoin { left, right, schema, .. } => {
            verify_plan(left, graphs, tables)?;
            verify_plan(right, graphs, tables)?;
            expect_width(plan, schema.len(), left.schema().len() + right.schema().len())
        }
        PlanNode::IndexJoin { outer, table, column, schema, .. } => {
            verify_plan(outer, graphs, tables)?;
            if let Some(cat) = tables.get(table) {
                expect_width(plan, schema.len(), outer.schema().len() + cat.len())?;
                if *column >= cat.len() {
                    return Err(plan_bug(plan, "index column out of range"));
                }
            }
            Ok(())
        }
        PlanNode::Project { input, exprs, schema } => {
            verify_plan(input, graphs, tables)?;
            expect_width(plan, schema.len(), exprs.len())?;
            for (i, e) in exprs.iter().enumerate() {
                if let Some(t) = phys_type(e) {
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
        PlanNode::Aggregate { input, group_exprs, aggs, schema } => {
            verify_plan(input, graphs, tables)?;
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

    if let ScanMode::ShortestPath { cost_attr } = &config.mode {
        if meta.def.edge_attr_col(&cost_attr.to_ascii_lowercase()).is_none() {
            return Err(plan_bug(
                plan,
                &format!(
                    "SHORTESTPATH cost attribute `{cost_attr}` does not resolve on graph view `{}`",
                    config.graph
                ),
            ));
        }
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
            let t = phys_type(e);
            if !is_numeric(t) {
                return Err(Error::analysis(format!(
                    "path {label} anchor must be a numeric vertex id, got {}",
                    show(t)
                )));
            }
        }
    }

    for p in config.edge_preds.iter().chain(&config.vertex_preds) {
        check_pushed_attr(plan, meta, &config.graph, p)?;
    }
    for p in &config.agg_preds {
        check_agg_attr(plan, meta, &config.graph, p)?;
    }
    Ok(())
}

fn start_expr(start: &StartSource) -> Option<&PhysExpr> {
    match start {
        StartSource::AllVertexes => None,
        StartSource::Constant(e) | StartSource::Probe(e) => Some(e),
    }
}

/// A pushed traversal predicate may only reference attributes the scan
/// can materialize per hop: the synthesized element ids / degrees, or an
/// exposed view attribute (which the executor dereferences through the
/// element's tuple pointer).
fn check_pushed_attr(
    plan: &PlanNode,
    meta: &GraphMeta,
    graph: &str,
    pred: &PushedPred,
) -> Result<()> {
    use crate::expr::PathTarget;
    let ok = match pred.target {
        PathTarget::Edges => edge_attr_ty(meta, &pred.attr).is_some(),
        PathTarget::Vertexes => vertex_attr_ty(meta, &pred.attr).is_some(),
    };
    if !ok {
        return Err(plan_bug(
            plan,
            &format!(
                "pushed predicate references attribute `{}` which graph view `{graph}` does not materialize",
                pred.attr
            ),
        ));
    }
    Ok(())
}

fn check_agg_attr(
    plan: &PlanNode,
    meta: &GraphMeta,
    graph: &str,
    pred: &PushedAggPred,
) -> Result<()> {
    use crate::expr::PathTarget;
    let ok = match pred.target {
        PathTarget::Edges => edge_attr_ty(meta, &pred.attr).is_some(),
        PathTarget::Vertexes => vertex_attr_ty(meta, &pred.attr).is_some(),
    };
    if !ok {
        return Err(plan_bug(
            plan,
            &format!(
                "pushed aggregate bound references attribute `{}` which graph view `{graph}` does not materialize",
                pred.attr
            ),
        ));
    }
    Ok(())
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
    match plan {
        PlanNode::TableScan { .. }
        | PlanNode::IndexLookup { .. }
        | PlanNode::VertexScan { .. }
        | PlanNode::EdgeScan { .. }
        | PlanNode::PathScan { .. } => {}
        PlanNode::PathJoin { outer, .. } | PlanNode::IndexJoin { outer, .. } => {
            explain_typed_into(outer, contracts, cursor, out, depth + 1);
        }
        PlanNode::NestedLoopJoin { left, right, .. } => {
            explain_typed_into(left, contracts, cursor, out, depth + 1);
            explain_typed_into(right, contracts, cursor, out, depth + 1);
        }
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Distinct { input, .. } => {
            explain_typed_into(input, contracts, cursor, out, depth + 1);
        }
    }
}

// ---------------------------------------------------------------------------
// DML statement checks
// ---------------------------------------------------------------------------

/// Typecheck an INSERT's literal value rows against the target schema:
/// arity per row, and each statically certain value type must be
/// admissible in its destination column.
pub fn check_insert_values(
    schema: &Schema,
    positions: &[usize],
    rows: &[Vec<Expr>],
) -> Result<()> {
    let ns = empty_namespace();
    for row in rows {
        if row.len() != positions.len() {
            return Err(Error::analysis(format!(
                "INSERT expects {} values, got {}",
                positions.len(),
                row.len()
            )));
        }
        for (pos, e) in positions.iter().zip(row) {
            let t = infer(e, &ns)?;
            let col = schema.column(*pos);
            let ok = match t {
                None => true,
                Some(DataType::Integer) => {
                    matches!(col.data_type, DataType::Integer | DataType::Double)
                }
                Some(dt) => dt == col.data_type,
            };
            if !ok {
                return Err(Error::analysis(format!(
                    "cannot insert {} into column `{}` ({}){}",
                    show(t),
                    col.name,
                    col.data_type,
                    e.span_suffix()
                )));
            }
        }
    }
    Ok(())
}

/// Typecheck an UPDATE's assignments and WHERE clause against the table.
pub fn check_update(
    table: &str,
    schema: Arc<Schema>,
    assignments: &[(String, Expr)],
    selection: &Option<Expr>,
) -> Result<()> {
    let ns = table_namespace(table, schema.clone())?;
    for (col, e) in assignments {
        let pos = schema.resolve(col)?;
        let t = infer(e, &ns)?;
        let dest = schema.column(pos);
        let ok = match t {
            None => true,
            Some(DataType::Integer) => {
                matches!(dest.data_type, DataType::Integer | DataType::Double)
            }
            Some(dt) => dt == dest.data_type,
        };
        if !ok {
            return Err(Error::analysis(format!(
                "cannot assign {} to column `{}` ({}){}",
                show(t),
                dest.name,
                dest.data_type,
                e.span_suffix()
            )));
        }
    }
    if let Some(sel) = selection {
        expect_boolean(sel, &ns, "WHERE")?;
    }
    Ok(())
}

/// Typecheck a DELETE's WHERE clause against the table.
pub fn check_delete(table: &str, schema: Arc<Schema>, selection: &Option<Expr>) -> Result<()> {
    if let Some(sel) = selection {
        let ns = table_namespace(table, schema)?;
        expect_boolean(sel, &ns, "WHERE")?;
    }
    Ok(())
}

pub(crate) fn empty_namespace() -> Namespace {
    Namespace::new(Arc::new(HashMap::new()))
}

pub(crate) fn table_namespace(table: &str, schema: Arc<Schema>) -> Result<Namespace> {
    let mut ns = empty_namespace();
    ns.push(table, BindingKind::Table(table.to_string()), schema)?;
    Ok(ns)
}
