//! Query planning: AST → physical plan.
//!
//! The planner implements the paper's conceptual evaluation order (EDBT
//! 2018 §5.3) — the relational FROM-sources are joined first, then each
//! `gv.PATHS` source is attached, probed by the relational block when a
//! start-vertex anchor references it (Figure 6) — plus the §6 optimizer:
//!
//! * **Path-length inference** (§6.1): `PS.Length` predicates and indexed
//!   references (`PS.Edges[5..*]` ⇒ length ≥ 6) become the traversal's
//!   `[min, max]` window.
//! * **Predicate pushdown** (§6.2): single-path edge/vertex predicates and
//!   bounded path aggregates are copied into the scan's traversal filters.
//!   Pushed predicates are *also* kept in the residual filter, so turning
//!   pushdown off (ablation) never changes results. So is the end anchor.
//! * **Consumed conjuncts**: the start anchor the scan is seeded from and
//!   every `PS.Length` bound folded into its window leave the residual
//!   filter — the scan enforces them by construction in every mode (it
//!   starts nowhere else and emits no other length), exactly as a table
//!   leaf consumes the conjuncts pushed onto it. A filter left with no
//!   conjunct is not emitted.
//! * **Cycle closure**: over an exact window `L..=L` (DFS/BFS/Auto), a
//!   conjunct equating the start and end vertexes (`PS.Edges[L-1].EndVertex
//!   = PS.Edges[0].StartVertex`, `PS.EndVertex.Id = PS.StartVertex.Id`) is
//!   consumed as [`PathScanConfig::closing`]: the traversal's last hop
//!   only lands on the start vertex.
//! * **Counting scans**: an ungrouped aggregate whose calls are all
//!   `COUNT(*)`/`COUNT(P)`, directly over a standalone path scan, is
//!   planned as that scan with [`Emit::Count`] (under `aggregate_pushdown`).
//! * **Logical→physical mapping** (§6.3): `HINT(...)` picks
//!   DFS/BFS/SPScan; otherwise `ScanMode::Auto` defers the `BFS iff F < L`
//!   decision to execution time where the fan-out statistic lives.

use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{Column, DataType, Error, Result, Schema};
use grfusion_sql::{
    BinaryOp, Expr, FromItem, IndexEnd, PathHint, RefPart, Select, SelectItem,
};
use grfusion_storage::IndexKind;

use crate::access::{choose, AccessPath};
use crate::config::OptimizerFlags;
use crate::expr::{
    compile, compile_aggregate, compile_conjuncts, compile_predicate, AggFunc, BindingKind, CmpOp,
    GraphMeta, Grouping, Namespace, PathProp, PathTarget, PhysExpr,
};
use crate::plan::{
    AggSpec, Emit, PathScanConfig, PlanNode, PushedAggPred, PushedPred, PushedTest, ScanMode,
    StartSource,
};

/// Length cap of a `SHORTESTPATH` scan whose query wrote no `PS.Length`
/// bound: SPScan terminates by cost order, so the cap is only a safety net.
/// Whether a scan's `max_len` is this default or the query's own bound is
/// carried by [`PathScanConfig::explicit_max_len`], never inferred from the
/// value.
const DEFAULT_SP_MAX_LEN: usize = 64;

/// Catalog information the planner needs (immutable snapshot).
pub struct PlannerCtx {
    /// Lowercase table name → schema.
    pub tables: HashMap<String, Arc<Schema>>,
    /// Lowercase table name → columns with a hash index (for IndexLookup).
    pub hash_indexed: HashMap<String, Vec<usize>>,
    /// Lowercase graph-view name → metadata.
    pub graphs: Arc<HashMap<String, GraphMeta>>,
    /// Per-graph scan schemas.
    pub vertex_scan_schemas: HashMap<String, Arc<Schema>>,
    pub edge_scan_schemas: HashMap<String, Arc<Schema>>,
}

/// Plan a SELECT statement.
pub fn plan_select(
    select: &Select,
    ctx: &PlannerCtx,
    flags: &OptimizerFlags,
) -> Result<PlanNode> {
    let plan = Planner {
        ctx,
        flags,
        ns: Namespace::new(ctx.graphs.clone()),
    }
    .plan(select)?;
    // Static QEP verification: re-derive every node's schema bottom-up and
    // check graph-operator invariants before anything executes.
    crate::analyze::verify_plan(&plan, &ctx.graphs, &ctx.tables)?;
    Ok(plan)
}

struct Planner<'a> {
    ctx: &'a PlannerCtx,
    flags: &'a OptimizerFlags,
    ns: Namespace,
}

impl<'a> Planner<'a> {
    fn plan(mut self, select: &Select) -> Result<PlanNode> {
        if select.from.is_empty() {
            return Err(Error::analysis("FROM clause is required"));
        }
        // §5.3: relational-model sources first, graph path sources after.
        let mut rel_items = Vec::new();
        let mut path_items = Vec::new();
        for item in &select.from {
            match item {
                FromItem::GraphPaths { .. } => path_items.push(item),
                _ => rel_items.push(item),
            }
        }

        let conjuncts: Vec<&Expr> = select
            .selection
            .as_ref()
            .map(|e| e.conjuncts())
            .unwrap_or_default();
        let mut consumed = vec![false; conjuncts.len()];

        // ---- relational block --------------------------------------------------
        let mut plan: Option<PlanNode> = None;
        for item in rel_items {
            let (node, binding_name, kind, schema) = self.relational_leaf(item)?;
            // Push single-binding conjuncts onto the leaf.
            let node = self.push_leaf_filters(
                node,
                &binding_name,
                &kind,
                &schema,
                &conjuncts,
                &mut consumed,
            )?;
            plan = Some(match plan {
                None => {
                    self.ns.push(&binding_name, kind, schema)?;
                    node
                }
                Some(left) => {
                    // Prefer an index nested-loop join when an unconsumed
                    // equality correlates a hash-indexed column of the new
                    // table with the outer bindings (the join shape that
                    // makes SQLGraph-style hop-joins viable).
                    let ij = if matches!(node, PlanNode::TableScan { .. }) {
                        self.find_index_join(
                            &binding_name,
                            &kind,
                            &schema,
                            &conjuncts,
                            &mut consumed,
                        )?
                    } else {
                        None
                    };
                    self.ns.push(&binding_name, kind, schema)?;
                    let out_schema =
                        Arc::new(Schema::clone(left.schema()).join(node.schema()));
                    match (ij, node) {
                        (Some((column, key)), PlanNode::TableScan { table, filter, .. }) => {
                            PlanNode::IndexJoin {
                                outer: Box::new(left),
                                table,
                                column,
                                key,
                                filter,
                                schema: out_schema,
                            }
                        }
                        (_, node) => PlanNode::NestedLoopJoin {
                            left: Box::new(left),
                            right: Box::new(node),
                            condition: None, // conditions live in the residual filter
                            schema: out_schema,
                        },
                    }
                }
            });
        }

        // ---- path sources ---------------------------------------------------------
        for item in path_items {
            let FromItem::GraphPaths { graph, alias: _, hint } = item else {
                return Err(Error::plan("non-path source in the path-planning list"));
            };
            let binding_name = item.binding().to_ascii_lowercase();
            let graph_lower = graph.to_ascii_lowercase();
            if !self.ctx.graphs.contains_key(&graph_lower) {
                return Err(Error::analysis(format!("unknown graph view `{graph}`")));
            }
            let config = self.path_scan_config(
                &graph_lower,
                &binding_name,
                hint.as_ref(),
                &conjuncts,
                &mut consumed,
                select.limit == Some(1),
            )?;
            let path_schema: Arc<Schema> = Schema::new(vec![Column::new(
                binding_name.clone(),
                DataType::Path,
            )])
            .shared();

            plan = Some(match (plan, &config.start) {
                (Some(outer), StartSource::Probe(_)) => {
                    let schema =
                        Arc::new(Schema::clone(outer.schema()).join(&path_schema));
                    PlanNode::PathJoin {
                        outer: Box::new(outer),
                        config,
                        schema,
                    }
                }
                (Some(outer), _) => {
                    let scan = PlanNode::PathScan {
                        config,
                        schema: path_schema.clone(),
                    };
                    let schema =
                        Arc::new(Schema::clone(outer.schema()).join(&path_schema));
                    PlanNode::NestedLoopJoin {
                        left: Box::new(outer),
                        right: Box::new(scan),
                        condition: None,
                        schema,
                    }
                }
                (None, _) => {
                    // A probe with no outer can only have resolved against
                    // constants; path_scan_config guarantees that.
                    PlanNode::PathScan {
                        config,
                        schema: path_schema.clone(),
                    }
                }
            });
            self.ns
                .push(&binding_name, BindingKind::Paths(graph_lower), path_schema)?;
        }

        let Some(mut plan) = plan else {
            return Err(Error::analysis("query requires at least one FROM source"));
        };

        // ---- residual predicate -----------------------------------------------------
        // Every conjunct is compiled — resolved and typed — against the
        // whole FROM clause, the ones the scans consumed included; the rest
        // become the residual filter.
        let compiled = compile_conjuncts(&conjuncts, &self.ns)?;
        let residual = compiled
            .into_iter()
            .zip(&consumed)
            .filter(|(_, c)| !**c)
            .map(|(pe, _)| pe)
            .reduce(|p, pe| PhysExpr::And(Box::new(p), Box::new(pe)));
        if let Some(predicate) = residual {
            plan = PlanNode::Filter {
                schema: plan.schema().clone(),
                predicate,
                input: Box::new(plan),
            };
        }

        // ---- aggregation ---------------------------------------------------------------
        let agg_calls = collect_aggregates(select)?;
        let grouped = !select.group_by.is_empty() || !agg_calls.is_empty();
        if grouped {
            let mut group_exprs = Vec::new();
            let mut cols = Vec::new();
            for (i, g) in select.group_by.iter().enumerate() {
                let pe = compile(g, &self.ns)?;
                cols.push(Column::new(format!("_g{i}"), pe.static_type()));
                group_exprs.push(pe);
            }
            let mut aggs = Vec::new();
            for (j, call) in agg_calls.iter().enumerate() {
                let (spec, ty) = compile_aggregate(call, &self.ns)?;
                cols.push(Column::new(format!("_a{j}"), ty));
                aggs.push(spec);
            }
            let schema = Schema::new(cols).shared();
            plan = match plan {
                // Every call counts every path of a standalone scan: the
                // scan counts inside the traversal and emits the one row.
                PlanNode::PathScan { mut config, .. }
                    if self.flags.aggregate_pushdown
                        && group_exprs.is_empty()
                        && aggs.iter().all(counts_every_path) =>
                {
                    config.emit = Emit::Count;
                    PlanNode::PathScan {
                        config,
                        schema: schema.clone(),
                    }
                }
                input => PlanNode::Aggregate {
                    input: Box::new(input),
                    group_exprs,
                    aggs,
                    schema: schema.clone(),
                },
            };
            // From here on, expressions read the aggregate's output.
            let mut keys = select.group_by.clone();
            keys.extend(agg_calls);
            self.ns.grouping = Some(Grouping { keys, schema });

            if let Some(having) = &select.having {
                plan = PlanNode::Filter {
                    schema: plan.schema().clone(),
                    predicate: compile_predicate(having, &self.ns, "HAVING")?,
                    input: Box::new(plan),
                };
            }
        } else if select.having.is_some() {
            return Err(Error::analysis("HAVING requires GROUP BY or aggregates"));
        }

        // ---- order by ---------------------------------------------------------------------
        if !select.order_by.is_empty() {
            let mut keys = Vec::new();
            for (e, asc) in &select.order_by {
                keys.push((compile(e, &self.ns)?, *asc));
            }
            plan = PlanNode::Sort {
                schema: plan.schema().clone(),
                input: Box::new(plan),
                keys,
            };
        }

        // ---- projection ----------------------------------------------------------------------
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        for item in &select.projections {
            match item {
                SelectItem::Wildcard => {
                    if grouped {
                        return Err(Error::analysis("SELECT * cannot be combined with GROUP BY"));
                    }
                    let combined = self.ns.combined_schema();
                    for (i, c) in combined.columns().iter().enumerate() {
                        exprs.push(PhysExpr::Column {
                            index: i,
                            ty: c.data_type,
                        });
                        cols.push(c.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let pe = compile(expr, &self.ns)?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr));
                    cols.push(Column::new(name, pe.static_type()));
                    exprs.push(pe);
                }
            }
        }
        let schema = Schema::new(cols).shared();
        plan = PlanNode::Project {
            input: Box::new(plan),
            exprs,
            schema: schema.clone(),
        };

        // ---- distinct ---------------------------------------------------------------------------
        if select.distinct {
            plan = PlanNode::Distinct {
                schema: schema.clone(),
                input: Box::new(plan),
            };
        }

        // ---- limit -----------------------------------------------------------------------------
        if let Some(n) = select.limit {
            plan = PlanNode::Limit {
                schema,
                input: Box::new(plan),
                limit: n,
            };
        }
        Ok(plan)
    }

    /// Build a leaf node for a relational-model FROM item.
    fn relational_leaf(
        &self,
        item: &FromItem,
    ) -> Result<(PlanNode, String, BindingKind, Arc<Schema>)> {
        match item {
            FromItem::Table { name, .. } => {
                let lower = name.to_ascii_lowercase();
                let schema = self
                    .ctx
                    .tables
                    .get(&lower)
                    .cloned()
                    .ok_or_else(|| Error::analysis(format!("unknown table `{name}`")))?;
                Ok((
                    PlanNode::TableScan {
                        table: lower.clone(),
                        schema: schema.clone(),
                        filter: None,
                    },
                    item.binding().to_ascii_lowercase(),
                    BindingKind::Table(lower),
                    schema,
                ))
            }
            FromItem::GraphVertexes { graph, .. } => {
                let lower = graph.to_ascii_lowercase();
                let schema = self
                    .ctx
                    .vertex_scan_schemas
                    .get(&lower)
                    .cloned()
                    .ok_or_else(|| Error::analysis(format!("unknown graph view `{graph}`")))?;
                Ok((
                    PlanNode::VertexScan {
                        graph: lower.clone(),
                        schema: schema.clone(),
                        filter: None,
                    },
                    item.binding().to_ascii_lowercase(),
                    BindingKind::Vertexes(lower),
                    schema,
                ))
            }
            FromItem::GraphEdges { graph, .. } => {
                let lower = graph.to_ascii_lowercase();
                let schema = self
                    .ctx
                    .edge_scan_schemas
                    .get(&lower)
                    .cloned()
                    .ok_or_else(|| Error::analysis(format!("unknown graph view `{graph}`")))?;
                Ok((
                    PlanNode::EdgeScan {
                        graph: lower.clone(),
                        schema: schema.clone(),
                        filter: None,
                    },
                    item.binding().to_ascii_lowercase(),
                    BindingKind::Edges(lower),
                    schema,
                ))
            }
            FromItem::GraphPaths { .. } => Err(Error::plan(
                "path sources are planned after the relational block",
            )),
        }
    }

    /// Push conjuncts that reference only `binding_name` down to a leaf.
    /// Consumed conjuncts are exact, so they are removed from the residual.
    /// Upgrades a table scan to an index lookup when a pushed conjunct is a
    /// constant equality on a hash-indexed column.
    fn push_leaf_filters(
        &self,
        node: PlanNode,
        binding_name: &str,
        kind: &BindingKind,
        schema: &Arc<Schema>,
        conjuncts: &[&Expr],
        consumed: &mut [bool],
    ) -> Result<PlanNode> {
        // Compile against a solo namespace (the leaf's own columns).
        let mut solo = Namespace::new(self.ctx.graphs.clone());
        solo.push(binding_name, kind.clone(), schema.clone())?;

        let mut pushed: Vec<PhysExpr> = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if consumed[i] {
                continue;
            }
            // Compiling against the leaf alone fails when the conjunct
            // reads another binding; a constant one is not the leaf's.
            let Ok(pe) = compile(c, &solo) else { continue };
            if pe.is_constant() {
                continue;
            }
            consumed[i] = true;
            pushed.push(pe);
        }
        // A constant equality on a hash-indexed column is consumed by the
        // index, not the filter. (Range verdicts stay scans for SELECT.)
        let mut index_key: Option<(usize, PhysExpr)> = None;
        let hash_indexed = match kind {
            BindingKind::Table(table) => self.ctx.hash_indexed.get(table),
            _ => None,
        };
        if let Some(columns) = hash_indexed {
            let indexes: Vec<_> = columns.iter().map(|c| (*c, IndexKind::Hash)).collect();
            if let AccessPath::Key { column, conjunct, key, .. } = choose(&pushed, &indexes) {
                index_key = Some((column, key.clone()));
                pushed.remove(conjunct);
            }
        }
        let filter = pushed
            .into_iter()
            .reduce(|f, pe| PhysExpr::And(Box::new(f), Box::new(pe)));

        Ok(match node {
            PlanNode::TableScan { table, schema, .. } => {
                if let Some((column, key)) = index_key {
                    PlanNode::IndexLookup {
                        table,
                        schema,
                        column,
                        key,
                        filter,
                    }
                } else {
                    PlanNode::TableScan {
                        table,
                        schema,
                        filter,
                    }
                }
            }
            PlanNode::VertexScan { graph, schema, .. } => PlanNode::VertexScan {
                graph,
                schema,
                filter,
            },
            PlanNode::EdgeScan { graph, schema, .. } => PlanNode::EdgeScan {
                graph,
                schema,
                filter,
            },
            other => other,
        })
    }

    /// Look for an equality conjunct `new.col = <expr over outer bindings>`
    /// where `new.col` has a hash index — the index-join opportunity. The
    /// matched conjunct is consumed (the index probe enforces it exactly).
    fn find_index_join(
        &self,
        binding_name: &str,
        kind: &BindingKind,
        schema: &Arc<Schema>,
        conjuncts: &[&Expr],
        consumed: &mut [bool],
    ) -> Result<Option<(usize, PhysExpr)>> {
        let BindingKind::Table(table) = kind else {
            return Ok(None);
        };
        let Some(indexed_cols) = self.ctx.hash_indexed.get(table) else {
            return Ok(None);
        };
        let mut solo = Namespace::new(self.ctx.graphs.clone());
        solo.push(binding_name, kind.clone(), schema.clone())?;

        for (i, c) in conjuncts.iter().enumerate() {
            if consumed[i] {
                continue;
            }
            let Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } = *c
            else {
                continue;
            };
            for (inner_side, outer_side) in [(left, right), (right, left)] {
                // Inner side must be a plain column of the new binding,
                // qualified or unambiguous.
                let Ok(PhysExpr::Column { index, ty }) = compile(inner_side, &solo) else {
                    continue;
                };
                if !indexed_cols.contains(&index) {
                    continue;
                }
                // Outer side must compile against the outer namespace and
                // not be resolvable against the new binding (otherwise the
                // conjunct is a same-table predicate, not a join key).
                if compile(outer_side, &solo).is_ok() {
                    continue;
                }
                let Ok(key) = compile(outer_side, &self.ns) else {
                    continue;
                };
                // Hash probes compare by group key; the executor coerces
                // the key to the column type so INT vs DOUBLE never misses.
                let _ = ty;
                consumed[i] = true;
                return Ok(Some((index, key)));
            }
        }
        Ok(None)
    }

    /// Analyze the conjuncts that constrain one path binding and build its
    /// scan configuration. The conjuncts the scan enforces by construction
    /// — its start anchor and its length window — are marked consumed.
    fn path_scan_config(
        &self,
        graph: &str,
        binding: &str,
        hint: Option<&PathHint>,
        conjuncts: &[&Expr],
        consumed: &mut [bool],
        limit1: bool,
    ) -> Result<PathScanConfig> {
        // The namespace visible to anchor/pushdown right-hand sides: the
        // bindings planned so far (the scan's outer).
        let outer_ns = &self.ns;

        let mode = match hint {
            Some(PathHint::ShortestPath { cost_attr }) => {
                let meta = self
                    .ctx
                    .graphs
                    .get(graph)
                    .ok_or_else(|| Error::analysis(format!("unknown graph view `{graph}`")))?;
                let attr = cost_attr.to_ascii_lowercase();
                if meta.def.edge_attr_col(&attr).is_none() {
                    return Err(Error::analysis(format!(
                        "SHORTESTPATH hint references unknown edge attribute `{cost_attr}`"
                    )));
                }
                ScanMode::ShortestPath { cost_attr: attr }
            }
            Some(PathHint::Dfs) => ScanMode::Dfs,
            Some(PathHint::Bfs) => ScanMode::Bfs,
            None => match self.flags.traversal {
                crate::config::TraversalChoice::Auto => ScanMode::Auto,
                crate::config::TraversalChoice::Dfs => ScanMode::Dfs,
                crate::config::TraversalChoice::Bfs => ScanMode::Bfs,
            },
        };
        let is_sp = matches!(mode, ScanMode::ShortestPath { .. });

        // ---- length window (§6.1) ----
        let (mut min_len, mut max_len) = (0usize, None::<usize>);
        if self.flags.length_inference {
            for (c, done) in conjuncts.iter().zip(consumed.iter_mut()) {
                *done |= apply_length_bounds(c, binding, &mut min_len, &mut max_len);
            }
        }
        let explicit_max_len = max_len.is_some();
        let max_len = max_len.unwrap_or(if is_sp {
            DEFAULT_SP_MAX_LEN
        } else {
            self.flags.default_max_path_len
        });

        // ---- anchors ----
        let mut start = StartSource::AllVertexes;
        for (c, done) in conjuncts.iter().zip(consumed.iter_mut()) {
            if let Some(rhs) = anchor_rhs(c, binding, true) {
                if let Ok(pe) = compile(rhs, outer_ns) {
                    start = if pe.is_constant() {
                        StartSource::Constant(pe)
                    } else {
                        StartSource::Probe(pe)
                    };
                    *done = true;
                    break;
                }
            }
        }
        let mut end = None;
        for c in conjuncts {
            if let Some(rhs) = anchor_rhs(c, binding, false) {
                if let Ok(pe) = compile(rhs, outer_ns) {
                    end = Some(pe);
                    break;
                }
            }
        }
        if is_sp {
            if matches!(start, StartSource::AllVertexes) {
                return Err(Error::plan(
                    "SHORTESTPATH requires a start anchor (PS.StartVertex.Id = ...)",
                ));
            }
            if end.is_none() {
                return Err(Error::plan(
                    "SHORTESTPATH requires an end anchor (PS.EndVertex.Id = ...)",
                ));
            }
        }

        // ---- cycle closure ----
        // Over an exact window `L..=L` a conjunct equating the start and end
        // vertexes keeps exactly the paths the traversal can close on its
        // last hop. KShortestPaths ignores the traversal spec, so a
        // SHORTESTPATH scan keeps the conjunct residual.
        let mut closing = false;
        if min_len == max_len && min_len >= 1 && !is_sp {
            for (c, done) in conjuncts.iter().zip(consumed.iter_mut()) {
                if !*done && closes_cycle(c, binding, max_len) {
                    *done = true;
                    closing = true;
                }
            }
        }

        // ---- pushdown (§6.2) ----
        let mut edge_preds = Vec::new();
        let mut vertex_preds = Vec::new();
        let mut agg_preds = Vec::new();
        if self.flags.predicate_pushdown {
            for c in conjuncts {
                if let Some(p) = pushable_pred(c, binding, outer_ns)? {
                    match p.target {
                        PathTarget::Edges => edge_preds.push(p),
                        PathTarget::Vertexes => vertex_preds.push(p),
                    }
                }
            }
        }
        if self.flags.aggregate_pushdown {
            for c in conjuncts {
                if let Some(p) = pushable_agg_pred(c, binding, outer_ns)? {
                    agg_preds.push(p);
                }
            }
        }

        // ---- reachability fast-path analysis (see PathScanConfig docs) ----
        let reachability = limit1
            && min_len == 0
            && end.is_some()
            && !matches!(start, StartSource::AllVertexes)
            && matches!(
                mode,
                ScanMode::Auto | ScanMode::Bfs | ScanMode::ShortestPath { .. }
            )
            && conjuncts.iter().all(|c| {
                self.conjunct_safe_for_reachability(c, binding, outer_ns)
            });

        Ok(PathScanConfig {
            graph: graph.to_string(),
            mode,
            min_len,
            max_len,
            explicit_max_len,
            start,
            end,
            edge_preds,
            vertex_preds,
            agg_preds,
            lazy: self.flags.lazy_path_scan,
            reachability,
            closing,
            emit: Emit::Paths,
        })
    }

    /// Is this conjunct compatible with returning the one path of a
    /// point-to-point search instead of enumerating? Safe forms: conjuncts not mentioning
    /// the binding at all, start/end anchors, recognized explicit length
    /// bounds, and uniform `[0..*]` predicates that were pushed into the
    /// traversal filter.
    fn conjunct_safe_for_reachability(
        &self,
        conjunct: &Expr,
        binding: &str,
        outer_ns: &Namespace,
    ) -> bool {
        if !mentions_binding(conjunct, binding) {
            return true;
        }
        if anchor_rhs(conjunct, binding, true).is_some()
            || anchor_rhs(conjunct, binding, false).is_some()
        {
            return true;
        }
        let (mut min, mut max) = (0usize, None);
        if apply_length_bounds(conjunct, binding, &mut min, &mut max) {
            return true;
        }
        if self.flags.predicate_pushdown {
            if let Ok(Some(p)) = pushable_pred(conjunct, binding, outer_ns) {
                return p.start == 0 && p.end == IndexEnd::Star;
            }
        }
        false
    }
}

/// `COUNT(*)`, or `COUNT(P)` of a path binding (never NULL): over a path
/// scan's one-column rows, the number of paths.
fn counts_every_path(spec: &AggSpec) -> bool {
    spec.func == AggFunc::Count
        && matches!(
            spec.arg,
            None | Some(PhysExpr::PathProp {
                prop: PathProp::Whole,
                ..
            })
        )
}

/// Derive an output column name from a projection expression.
fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::CompoundRef(parts) => parts
            .last()
            .map(|p| p.name.to_ascii_lowercase())
            .unwrap_or_else(|| "expr".into()),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        _ => "expr".into(),
    }
}

/// Collect the distinct group-aggregate calls appearing in the SELECT list
/// and HAVING/ORDER BY clauses. Path aggregates (`SUM(PS.Edges.W)`) are
/// scalars and are NOT collected.
fn collect_aggregates(select: &Select) -> Result<Vec<Expr>> {
    let mut calls = Vec::new();
    let mut visit = |e: &Expr| collect_agg_calls(e, &mut calls);
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            visit(expr);
        }
    }
    if let Some(h) = &select.having {
        visit(h);
    }
    for (e, _) in &select.order_by {
        visit(e);
    }
    Ok(calls)
}

fn collect_agg_calls(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Parameter(_) => {}
        Expr::Function { name, args, .. } => {
            if AggFunc::parse(name).is_some() {
                // Path aggregates look like FUNC(p.Edges.attr): 3-part
                // unindexed ref. They are scalar — skip them here. (If the
                // head isn't a path binding, compilation of the "scalar"
                // form fails later with a clear error.)
                let is_path_agg = matches!(
                    args.as_slice(),
                    [Expr::CompoundRef(parts)]
                        if parts.len() == 3
                            && parts.iter().all(|p| p.index.is_none())
                            && matches!(
                                parts[1].name.to_ascii_lowercase().as_str(),
                                "edges" | "vertexes" | "vertices"
                            )
                );
                if !is_path_agg {
                    if !out.contains(expr) {
                        out.push(expr.clone());
                    }
                    return;
                }
            }
            for a in args {
                collect_agg_calls(a, out);
            }
        }
        Expr::Unary { expr, .. } => collect_agg_calls(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_agg_calls(left, out);
            collect_agg_calls(right, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_agg_calls(expr, out);
            for e in list {
                collect_agg_calls(e, out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_agg_calls(expr, out),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_agg_calls(expr, out);
            collect_agg_calls(low, out);
            collect_agg_calls(high, out);
        }
        Expr::Literal(_) | Expr::CompoundRef(_) => {}
    }
}

/// Does this reference chain name the start (or end) vertex id of path
/// binding `binding`? Accepted spellings: `ps.StartVertex`,
/// `ps.StartVertex.Id`, `ps.StartVertexId`.
fn is_vertex_anchor_ref(parts: &[RefPart], binding: &str, start: bool) -> bool {
    if parts.is_empty() || !parts[0].name.eq_ignore_ascii_case(binding) {
        return false;
    }
    if parts.iter().any(|p| p.index.is_some()) {
        return false;
    }
    let (word, word_id) = if start {
        ("startvertex", "startvertexid")
    } else {
        ("endvertex", "endvertexid")
    };
    match parts.len() {
        2 => {
            let n = parts[1].name.to_ascii_lowercase();
            n == word || n == word_id
        }
        3 => {
            parts[1].name.eq_ignore_ascii_case(word) && parts[2].name.eq_ignore_ascii_case("id")
        }
        _ => false,
    }
}

/// If `conjunct` anchors the start (or end) vertex of `binding`
/// (`ps.StartVertex.Id = <rhs>`), return the other side.
fn anchor_rhs<'e>(conjunct: &'e Expr, binding: &str, start: bool) -> Option<&'e Expr> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = conjunct
    else {
        return None;
    };
    if let Expr::CompoundRef(parts) = left.as_ref() {
        if is_vertex_anchor_ref(parts, binding, start) {
            return Some(right);
        }
    }
    if let Expr::CompoundRef(parts) = right.as_ref() {
        if is_vertex_anchor_ref(parts, binding, start) {
            return Some(left);
        }
    }
    None
}

/// The path position (0 = start, `len` = end) of the vertex whose id a
/// reference on `binding` names, for every spelling `compile` accepts for a
/// vertex id: `StartVertex[.Id]`, `EndVertex[.Id]`, `StartVertexId`,
/// `EndVertexId`, `Vertexes[i][.Id]` and `Edges[i].StartVertex` /
/// `Edges[i].EndVertex` (positions `i` / `i + 1` in traversal direction).
fn vertex_position(expr: &Expr, binding: &str, len: usize) -> Option<usize> {
    let Expr::CompoundRef(parts) = expr else {
        return None;
    };
    if is_vertex_anchor_ref(parts, binding, true) {
        return Some(0);
    }
    if is_vertex_anchor_ref(parts, binding, false) {
        return Some(len);
    }
    if parts.len() < 2
        || !parts[0].name.eq_ignore_ascii_case(binding)
        || parts[0].index.is_some()
        || parts[2..].iter().any(|p| p.index.is_some())
    {
        return None;
    }
    let range = parts[1].index?;
    if range.end != IndexEnd::At {
        return None;
    }
    let i = usize::try_from(range.start).ok()?;
    let attr = parts.get(2).map(|p| p.name.to_ascii_lowercase());
    match (parts[1].name.to_ascii_lowercase().as_str(), parts.len(), attr.as_deref()) {
        ("vertexes" | "vertices", 2, None) | ("vertexes" | "vertices", 3, Some("id")) => Some(i),
        // `Edges[i]` is NULL past the path's last edge.
        ("edges", 3, Some("startvertex")) if i < len => Some(i),
        ("edges", 3, Some("endvertex")) if i < len => Some(i + 1),
        _ => None,
    }
}

/// Does `conjunct` equate the start and end vertexes of a `binding` path of
/// exactly `len` edges (`PS.Edges[len-1].EndVertex = PS.Edges[0].StartVertex`,
/// `PS.EndVertex.Id = PS.StartVertex.Id`, either side)?
fn closes_cycle(conjunct: &Expr, binding: &str, len: usize) -> bool {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = conjunct
    else {
        return false;
    };
    match (
        vertex_position(left, binding, len),
        vertex_position(right, binding, len),
    ) {
        (Some(a), Some(b)) => a.min(b) == 0 && a.max(b) == len,
        _ => false,
    }
}

/// Does the expression reference the given path binding anywhere?
fn mentions_binding(expr: &Expr, binding: &str) -> bool {
    match expr {
        Expr::Literal(_) | Expr::Parameter(_) => false,
        Expr::CompoundRef(parts) => parts
            .first()
            .is_some_and(|p| p.name.eq_ignore_ascii_case(binding)),
        Expr::Unary { expr, .. } => mentions_binding(expr, binding),
        Expr::Binary { left, right, .. } => {
            mentions_binding(left, binding) || mentions_binding(right, binding)
        }
        Expr::InList { expr, list, .. } => {
            mentions_binding(expr, binding) || list.iter().any(|e| mentions_binding(e, binding))
        }
        Expr::InSubquery { expr, .. } => mentions_binding(expr, binding),
        Expr::Between {
            expr, low, high, ..
        } => {
            mentions_binding(expr, binding)
                || mentions_binding(low, binding)
                || mentions_binding(high, binding)
        }
        Expr::Function { args, .. } => args.iter().any(|e| mentions_binding(e, binding)),
    }
}

/// Intersect the length window with `lo..=hi` (either side open). A
/// negative upper bound admits no length at all: the window becomes the
/// empty `1..=0`, so it stays exact.
fn narrow(min_len: &mut usize, max_len: &mut Option<usize>, lo: Option<i64>, hi: Option<i64>) {
    if let Some(lo) = lo {
        *min_len = (*min_len).max(usize::try_from(lo).unwrap_or(0));
    }
    if let Some(hi) = hi {
        let hi = usize::try_from(hi).unwrap_or_else(|_| {
            *min_len = (*min_len).max(1);
            0
        });
        *max_len = Some(max_len.map_or(hi, |m| m.min(hi)));
    }
}

/// Update `[min, max]` length bounds from one conjunct (§6.1): explicit
/// `ps.Length` comparisons with integer literals, plus implicit bounds from
/// indexed references anywhere in the conjunct. Returns `true` iff the
/// conjunct was recognized as an *explicit* length constraint — one the
/// window then expresses exactly, so a scan over it need not re-check it.
fn apply_length_bounds(
    conjunct: &Expr,
    binding: &str,
    min_len: &mut usize,
    max_len: &mut Option<usize>,
) -> bool {
    let is_len_ref = |e: &Expr| -> bool {
        matches!(e, Expr::CompoundRef(parts)
            if parts.len() == 2
                && parts[0].name.eq_ignore_ascii_case(binding)
                && parts[1].name.eq_ignore_ascii_case("length")
                && parts.iter().all(|p| p.index.is_none()))
    };
    let as_lit = |e: &Expr| -> Option<i64> {
        match e {
            Expr::Literal(grfusion_common::Value::Integer(i)) => Some(*i),
            _ => None,
        }
    };
    // Explicit PS.Length op literal.
    if let Expr::Binary { left, op, right } = conjunct {
        let (lit, op) = if is_len_ref(left) {
            (as_lit(right), *op)
        } else if is_len_ref(right) {
            // mirror the operator: lit OP len  ≡  len OP' lit
            let mirrored = match op {
                BinaryOp::Lt => BinaryOp::Gt,
                BinaryOp::LtEq => BinaryOp::GtEq,
                BinaryOp::Gt => BinaryOp::Lt,
                BinaryOp::GtEq => BinaryOp::LtEq,
                other => *other,
            };
            (as_lit(left), mirrored)
        } else {
            (None, *op)
        };
        if let Some(k) = lit {
            let (lo, hi) = match op {
                BinaryOp::Eq => (Some(k), Some(k)),
                BinaryOp::LtEq => (None, Some(k)),
                BinaryOp::Lt => (None, Some(k.saturating_sub(1))),
                BinaryOp::GtEq => (Some(k), None),
                BinaryOp::Gt => (Some(k.saturating_add(1)), None),
                _ => return false, // e.g. Length <> k: not a window bound
            };
            narrow(min_len, max_len, lo, hi);
            return true;
        }
    }
    // PS.Length BETWEEN a AND b.
    if let Expr::Between {
        expr,
        low,
        high,
        negated: false,
    } = conjunct
    {
        if let (true, Some(a), Some(b)) = (is_len_ref(expr), as_lit(low), as_lit(high)) {
            narrow(min_len, max_len, Some(a), Some(b));
            return true;
        }
    }
    // Implicit minimums from indexed references anywhere in the conjunct.
    implicit_min_from_refs(conjunct, binding, min_len);
    false
}

fn implicit_min_from_refs(expr: &Expr, binding: &str, min_len: &mut usize) {
    match expr {
        Expr::CompoundRef(parts) => {
            if parts.len() >= 2 && parts[0].name.eq_ignore_ascii_case(binding) {
                if let Some(range) = parts[1].index {
                    let seg = parts[1].name.to_ascii_lowercase();
                    // Edge position i requires length ≥ i+1; vertex position
                    // i requires length ≥ i (vertex count = length + 1).
                    let needed = |pos: u64| -> usize {
                        if seg == "edges" {
                            pos as usize + 1
                        } else {
                            pos as usize
                        }
                    };
                    if seg == "edges" || seg == "vertexes" || seg == "vertices" {
                        let m = match range.end {
                            IndexEnd::At => needed(range.start),
                            // `[0..*]` is vacuous on short paths (no
                            // minimum); `[k..*]`, k ≥ 1, requires position
                            // k (§6.1's `Edges[5..*]` ⇒ length ≥ 6).
                            IndexEnd::Star if range.start == 0 => 0,
                            IndexEnd::Star => needed(range.start),
                            IndexEnd::Bounded(b) => needed(b.max(range.start)),
                        };
                        *min_len = (*min_len).max(m);
                    }
                }
            }
        }
        Expr::Unary { expr, .. } => implicit_min_from_refs(expr, binding, min_len),
        Expr::Binary { left, right, .. } => {
            implicit_min_from_refs(left, binding, min_len);
            implicit_min_from_refs(right, binding, min_len);
        }
        Expr::InList { expr, list, .. } => {
            implicit_min_from_refs(expr, binding, min_len);
            for e in list {
                implicit_min_from_refs(e, binding, min_len);
            }
        }
        Expr::InSubquery { expr, .. } => implicit_min_from_refs(expr, binding, min_len),
        Expr::Between {
            expr, low, high, ..
        } => {
            implicit_min_from_refs(expr, binding, min_len);
            implicit_min_from_refs(low, binding, min_len);
            implicit_min_from_refs(high, binding, min_len);
        }
        Expr::Function { args, .. } => {
            for a in args {
                implicit_min_from_refs(a, binding, min_len);
            }
        }
        Expr::Literal(_) | Expr::Parameter(_) => {}
    }
}

/// Try to turn a conjunct into a traversal-pushable predicate (§6.2):
/// an (optionally ranged) indexed attribute reference on `binding` compared
/// against an expression over the scan's outer bindings.
fn pushable_pred(
    conjunct: &Expr,
    binding: &str,
    outer_ns: &Namespace,
) -> Result<Option<PushedPred>> {
    // Decompose: ref-side and rhs-side.
    let decompose = |e: &Expr| -> Option<(PathTarget, u64, IndexEnd, String)> {
        let Expr::CompoundRef(parts) = e else {
            return None;
        };
        if parts.len() != 3
            || !parts[0].name.eq_ignore_ascii_case(binding)
            || parts[0].index.is_some()
            || parts[2].index.is_some()
        {
            return None;
        }
        let target = match parts[1].name.to_ascii_lowercase().as_str() {
            "edges" => PathTarget::Edges,
            "vertexes" | "vertices" => PathTarget::Vertexes,
            _ => return None,
        };
        let range = parts[1].index?;
        let attr = parts[2].name.to_ascii_lowercase();
        // Direction-sensitive pseudo-attributes are not pushable.
        if attr == "startvertex" || attr == "endvertex" {
            return None;
        }
        Some((target, range.start, range.end, attr))
    };

    match conjunct {
        Expr::Binary { left, op, right } => {
            let Some(cmp) = CmpOp::from_binary(*op) else {
                return Ok(None);
            };
            if let Some((target, start, end, attr)) = decompose(left) {
                if let Ok(rhs) = compile(right, outer_ns) {
                    return Ok(Some(PushedPred {
                        target,
                        start,
                        end,
                        attr,
                        test: PushedTest::Cmp { op: cmp, rhs },
                    }));
                }
            }
            if let Some((target, start, end, attr)) = decompose(right) {
                if let Ok(rhs) = compile(left, outer_ns) {
                    return Ok(Some(PushedPred {
                        target,
                        start,
                        end,
                        attr,
                        test: PushedTest::Cmp {
                            op: cmp.mirrored(),
                            rhs,
                        },
                    }));
                }
            }
            Ok(None)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            if let Some((target, start, end, attr)) = decompose(expr) {
                let mut compiled = Vec::with_capacity(list.len());
                for e in list {
                    match compile(e, outer_ns) {
                        Ok(pe) => compiled.push(pe),
                        Err(_) => return Ok(None),
                    }
                }
                return Ok(Some(PushedPred {
                    target,
                    start,
                    end,
                    attr,
                    test: PushedTest::In {
                        list: compiled,
                        negated: *negated,
                    },
                }));
            }
            Ok(None)
        }
        _ => Ok(None),
    }
}

/// Try to turn a conjunct into a pushable running-aggregate bound (§6.2):
/// `SUM(ps.Edges.attr) < rhs` (or `<=`), possibly mirrored.
fn pushable_agg_pred(
    conjunct: &Expr,
    binding: &str,
    outer_ns: &Namespace,
) -> Result<Option<PushedAggPred>> {
    let Expr::Binary { left, op, right } = conjunct else {
        return Ok(None);
    };
    let decompose = |e: &Expr| -> Option<(PathTarget, String)> {
        let Expr::Function { name, args, star } = e else {
            return None;
        };
        if *star || !name.eq_ignore_ascii_case("sum") || args.len() != 1 {
            return None;
        }
        let Expr::CompoundRef(parts) = &args[0] else {
            return None;
        };
        if parts.len() != 3
            || !parts[0].name.eq_ignore_ascii_case(binding)
            || parts.iter().any(|p| p.index.is_some())
        {
            return None;
        }
        let target = match parts[1].name.to_ascii_lowercase().as_str() {
            "edges" => PathTarget::Edges,
            "vertexes" | "vertices" => PathTarget::Vertexes,
            _ => return None,
        };
        Some((target, parts[2].name.to_ascii_lowercase()))
    };
    // SUM(...) < rhs
    if let Some((target, attr)) = decompose(left) {
        let op = match op {
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            _ => return Ok(None),
        };
        if let Ok(rhs) = compile(right, outer_ns) {
            return Ok(Some(PushedAggPred {
                target,
                attr,
                op,
                rhs,
            }));
        }
    }
    // rhs > SUM(...)
    if let Some((target, attr)) = decompose(right) {
        let op = match op {
            BinaryOp::Gt => CmpOp::Lt,
            BinaryOp::GtEq => CmpOp::LtEq,
            _ => return Ok(None),
        };
        if let Ok(rhs) = compile(left, outer_ns) {
            return Ok(Some(PushedAggPred {
                target,
                attr,
                op,
                rhs,
            }));
        }
    }
    Ok(None)
}
