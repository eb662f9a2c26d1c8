//! Statistics-driven cost-based plan selection (`GRFUSION_OPTIMIZER=1`).
//!
//! The rule-based planner fixes several physical choices that the paper's
//! converged relational-graph setting really wants costed: traversal mode
//! (BFS/DFS/targeted-BFS), traversal-vs-iterated-join for fixed-length path
//! predicates (the SQLGraph-style rewrite our own Figure-7 experiment shows
//! crossing over with branching factor), predicate pushdown, and
//! buffered-side choice for nested-loop joins. This module
//! re-costs the rule-based QEP against those enumerable alternatives using
//! seal-time graph statistics ([`grfusion_graph::SealStats`]) and table row
//! counts / NDV estimates, picking the cheapest plan that is **provably
//! byte-identical** to the reference plan:
//!
//! * every rewrite is gated on a context where result bytes cannot change
//!   (an order-insensitive aggregate above — a counting scan is its own —
//!   or a residual filter the planner is documented to keep), and
//! * the differential oracle's optimizer lane replays 200 seeded workloads
//!   against the rule-based engine to enforce the contract empirically.
//!
//! With the flag off (the default) this module is never called and the
//! rule-based path stays byte-identical to the pre-optimizer engine.

use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{DataType, Result, Schema, Value};
use grfusion_graph::GraphStats;
use grfusion_storage::TableStats;

use crate::expr::{AggFunc, CmpOp, GraphMeta, PhysExpr};
use crate::plan::{AggSpec, Emit, PathScanConfig, PlanNode, ScanMode, StartSource};

// ---- cost model constants --------------------------------------------------
//
// Unit: one sequential row visit costs 1.0. The constants below place the
// traversal-vs-iterated-join crossover near effective fan-out ~6, matching
// the measured Figure-7 crossover between branching factors 2 and 8.

/// Per-path bookkeeping a traversal pays regardless of fan-out (path vector
/// clone, simple-path membership check).
const TRAVERSAL_PATH_BASE: f64 = 1.0;
/// Traversal cost that grows with fan-out (frontier pressure, per-hop
/// overlay dispatch).
const TRAVERSAL_FANOUT_FACTOR: f64 = 0.5;
/// Cost of one last-hop edge of a closing scan: a slot compare against the
/// start vertex, with no tuple dereference and no path built.
const CLOSING_HOP_COST: f64 = 0.25;
/// Cost of emitting one joined row through an index nested-loop probe.
const JOIN_ROW_COST: f64 = 4.0;
/// Flat cost per index probe stage.
const JOIN_PROBE_COST: f64 = 8.0;
/// Default filter selectivity when no statistic applies.
const FILTER_SELECTIVITY: f64 = 1.0 / 3.0;
/// Below this many estimated paths, per-hop predicate pushdown costs more
/// than the residual check it saves.
const PUSHDOWN_MIN_PATHS: f64 = 8.0;
/// Swap NLJ build sides only when the saving is clear (hysteresis keeps
/// borderline plans on the reference shape).
const NLJ_SWAP_RATIO: f64 = 1.5;
/// Deepest iterated-join chain the rewrite enumerates (beyond this the
/// intermediate result estimate is too unreliable to bet on).
const MAX_JOIN_CHAIN: usize = 3;

// ---- catalog ---------------------------------------------------------------

/// Per-table statistics snapshot for the cost model.
#[derive(Debug, Clone, Default)]
pub struct TableCost {
    pub rows: f64,
    /// `(column, distinct keys)` for every indexed column.
    pub ndv: Vec<(usize, usize)>,
}

impl TableCost {
    fn ndv_of(&self, column: usize) -> Option<f64> {
        self.ndv
            .iter()
            .find(|&&(c, _)| c == column)
            .map(|&(_, n)| n as f64) // cast-ok: statistic, f64 precision ample
    }
}

/// Per-graph statistics snapshot for the cost model.
#[derive(Debug, Clone)]
pub struct GraphCost {
    pub vertices: f64,
    pub edges: f64,
    pub avg_out: f64,
    /// 90th-percentile out-degree from the seal-time histogram (falls back
    /// to `avg_out` when the graph was never sealed).
    pub p90_out: f64,
    pub max_out: f64,
    /// Whether the seal-time distribution still describes the live graph.
    pub fresh: bool,
}

impl GraphCost {
    /// Effective branching factor: when the seal-time distribution is
    /// fresh, the geometric mean of average and maximum out-degree — a
    /// skew-aware figure that exposes hub-dominated graphs (a star graph
    /// has avg≈1 but every traversal that matters leaves the hub). Stale
    /// or absent distributions fall back to the incrementally maintained
    /// average.
    pub fn effective_fan_out(&self) -> f64 {
        if self.fresh && self.max_out > 0.0 {
            (self.avg_out.max(1e-3) * self.max_out).sqrt()
        } else {
            self.avg_out
        }
    }
}

/// Statistics catalog the optimizer reads. Built by the engine layer from
/// live tables and topologies right before planning.
#[derive(Debug, Clone, Default)]
pub struct CostCatalog {
    tables: HashMap<String, TableCost>,
    graphs: HashMap<String, GraphCost>,
}

impl CostCatalog {
    pub fn new() -> Self {
        CostCatalog::default()
    }

    pub fn add_table(&mut self, name: &str, stats: TableStats, ndv: Vec<(usize, usize)>) {
        self.tables.insert(
            name.to_ascii_lowercase(),
            TableCost {
                rows: stats.row_count as f64, // cast-ok: statistic, f64 precision ample
                ndv,
            },
        );
    }

    pub fn add_graph(&mut self, name: &str, stats: GraphStats) {
        let (p90, max, fresh) = match stats.seal {
            Some(s) => (
                s.degree_quantile(0.9) as f64, // cast-ok: statistic, f64 precision ample
                s.max_out_degree as f64,       // cast-ok: statistic, f64 precision ample
                stats.seal_fresh,
            ),
            None => (stats.avg_fan_out, stats.avg_fan_out, false),
        };
        self.graphs.insert(
            name.to_ascii_lowercase(),
            GraphCost {
                vertices: stats.vertex_count as f64, // cast-ok: statistic, f64 precision ample
                edges: stats.edge_count as f64,      // cast-ok: statistic, f64 precision ample
                avg_out: stats.avg_fan_out,
                p90_out: p90,
                max_out: max,
                fresh,
            },
        );
    }

    fn table(&self, name: &str) -> TableCost {
        self.tables.get(name).cloned().unwrap_or_default()
    }

    fn graph(&self, name: &str) -> GraphCost {
        self.graphs.get(name).cloned().unwrap_or(GraphCost {
            vertices: 0.0,
            edges: 0.0,
            avg_out: 1.0,
            p90_out: 1.0,
            max_out: 1.0,
            fresh: false,
        })
    }
}

// ---- estimation ------------------------------------------------------------

/// Cardinality/cost estimate for one plan node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEstimate {
    /// Estimated output rows (finite, non-negative).
    pub rows: f64,
    /// Cumulative cost of producing them (this node plus its subtree).
    pub cost: f64,
}

/// Estimate cardinalities bottom-up over the QEP, returned in **pre-order**
/// (the same order `PlanNode::explain` and `explain_typed` print nodes, so
/// estimates zip against EXPLAIN lines and `QueryMetrics` slots).
pub fn estimate(plan: &PlanNode, catalog: &CostCatalog) -> Vec<NodeEstimate> {
    let mut out = Vec::new();
    estimate_into(plan, catalog, &mut out);
    out
}

/// Recursive worker: reserves this node's pre-order slot, estimates the
/// children, then back-fills the slot from their results.
fn estimate_into(plan: &PlanNode, catalog: &CostCatalog, out: &mut Vec<NodeEstimate>) -> NodeEstimate {
    let slot = out.len();
    out.push(NodeEstimate { rows: 0.0, cost: 0.0 });
    let est = match plan {
        PlanNode::TableScan { table, filter, .. } => {
            let t = catalog.table(table);
            let sel = if filter.is_some() { FILTER_SELECTIVITY } else { 1.0 };
            NodeEstimate { rows: t.rows * sel, cost: t.rows }
        }
        PlanNode::IndexLookup { table, column, filter, .. } => {
            let t = catalog.table(table);
            let per_key = t.ndv_of(*column).map_or_else(
                || t.rows * FILTER_SELECTIVITY,
                |ndv| t.rows / ndv.max(1.0),
            );
            let sel = if filter.is_some() { FILTER_SELECTIVITY } else { 1.0 };
            NodeEstimate { rows: per_key * sel, cost: per_key + 1.0 }
        }
        PlanNode::VertexScan { graph, filter, .. } => {
            let g = catalog.graph(graph);
            let sel = if filter.is_some() { FILTER_SELECTIVITY } else { 1.0 };
            NodeEstimate { rows: g.vertices * sel, cost: g.vertices }
        }
        PlanNode::EdgeScan { graph, filter, .. } => {
            let g = catalog.graph(graph);
            let sel = if filter.is_some() { FILTER_SELECTIVITY } else { 1.0 };
            NodeEstimate { rows: g.edges * sel, cost: g.edges }
        }
        PlanNode::PathScan { config, .. } => {
            let paths = path_scan_estimate(config, catalog, 1.0);
            match config.emit {
                Emit::Paths => paths,
                // The same walk, one row out.
                Emit::Count => NodeEstimate { rows: 1.0, ..paths },
            }
        }
        PlanNode::PathJoin { outer, config, .. } => {
            let o = estimate_into(outer, catalog, out);
            let per_probe = path_scan_estimate(config, catalog, 1.0);
            NodeEstimate {
                rows: o.rows * per_probe.rows,
                cost: o.cost + o.rows.max(1.0) * per_probe.cost,
            }
        }
        PlanNode::Filter { input, .. } => {
            let i = estimate_into(input, catalog, out);
            NodeEstimate { rows: i.rows * FILTER_SELECTIVITY, cost: i.cost + i.rows }
        }
        PlanNode::NestedLoopJoin { left, right, condition, .. } => {
            let l = estimate_into(left, catalog, out);
            let r = estimate_into(right, catalog, out);
            let cross = l.rows * r.rows;
            let sel = if condition.is_some() { FILTER_SELECTIVITY } else { 1.0 };
            NodeEstimate { rows: cross * sel, cost: l.cost + r.cost + cross }
        }
        PlanNode::IndexJoin { outer, table, column, filter, .. } => {
            let o = estimate_into(outer, catalog, out);
            let t = catalog.table(table);
            let per_probe = t.ndv_of(*column).map_or_else(
                || t.rows * FILTER_SELECTIVITY,
                |ndv| t.rows / ndv.max(1.0),
            );
            let sel = if filter.is_some() { FILTER_SELECTIVITY } else { 1.0 };
            NodeEstimate {
                rows: o.rows * per_probe * sel,
                cost: o.cost + o.rows.max(1.0) * (per_probe * JOIN_ROW_COST + JOIN_PROBE_COST),
            }
        }
        PlanNode::Project { input, .. } => {
            let i = estimate_into(input, catalog, out);
            NodeEstimate { rows: i.rows, cost: i.cost + i.rows }
        }
        PlanNode::Aggregate { input, group_exprs, .. } => {
            let i = estimate_into(input, catalog, out);
            let rows = if group_exprs.is_empty() { 1.0 } else { i.rows.sqrt().max(1.0) };
            NodeEstimate { rows, cost: i.cost + i.rows }
        }
        PlanNode::Sort { input, .. } => {
            let i = estimate_into(input, catalog, out);
            let n = i.rows.max(1.0);
            NodeEstimate { rows: i.rows, cost: i.cost + n * n.log2().max(1.0) }
        }
        PlanNode::Limit { input, limit, .. } => {
            let i = estimate_into(input, catalog, out);
            NodeEstimate {
                rows: i.rows.min(*limit as f64), // cast-ok: statistic, f64 precision ample
                cost: i.cost,
            }
        }
        PlanNode::Distinct { input, .. } => {
            let i = estimate_into(input, catalog, out);
            NodeEstimate { rows: i.rows.sqrt().max(i.rows.min(1.0)), cost: i.cost + i.rows }
        }
    };
    // Clamp to the advertised contract: finite and non-negative, whatever
    // the statistics fed in.
    let est = NodeEstimate {
        rows: if est.rows.is_finite() { est.rows.max(0.0) } else { f64::MAX / 4.0 },
        cost: if est.cost.is_finite() { est.cost.max(0.0) } else { f64::MAX / 4.0 },
    };
    out[slot] = est;
    est
}

/// Expected paths (and enumeration cost) for one path-scan probe. The
/// branching factor comes from the seal-time distribution when fresh;
/// unanchored scans multiply by the vertex count.
fn path_scan_estimate(config: &PathScanConfig, catalog: &CostCatalog, _probes: f64) -> NodeEstimate {
    let g = catalog.graph(&config.graph);
    let f = g.effective_fan_out().max(1e-3);
    let seeds = match config.start {
        StartSource::AllVertexes => g.vertices.max(1.0),
        _ => 1.0,
    };
    // Paths of length d from one seed ~ f^d; enumeration visits every
    // prefix, so work ~ sum over 1..=max of f^d.
    let mut paths = 0.0f64;
    let mut work = 0.0f64;
    let mut level = 1.0f64;
    for d in 1..=config.max_len.min(32) {
        level = (level * f).min(1e12);
        work += level;
        if d >= config.min_len {
            paths += level;
        }
    }
    let per_path = TRAVERSAL_PATH_BASE + TRAVERSAL_FANOUT_FACTOR * f;
    let (mut rows, mut cost) = if config.closing {
        // The window is exact, so `paths` is the open paths at depth L; a
        // uniform last hop lands on the start with probability 1/|V|, and
        // examining it costs a compare, not an extension.
        (
            seeds * paths / g.vertices.max(1.0),
            seeds * ((work - level) * per_path + level * CLOSING_HOP_COST),
        )
    } else {
        (seeds * paths, seeds * work * per_path)
    };
    if config.reachability {
        // Point-to-point search: at most one row, work bounded by the component.
        rows = rows.min(1.0);
        cost = cost.min(g.edges.max(1.0));
    }
    if config.end.is_some() {
        // A target anchor keeps only paths landing on one vertex.
        rows /= g.vertices.max(1.0);
    }
    if !config.edge_preds.is_empty() || !config.vertex_preds.is_empty() {
        rows *= FILTER_SELECTIVITY;
    }
    NodeEstimate { rows, cost }
}

// ---- optimization ----------------------------------------------------------

/// Result of cost-based re-planning.
#[derive(Debug, Clone)]
pub struct Optimized {
    pub plan: PlanNode,
    /// Pre-order per-node estimates for the **final** plan.
    pub estimates: Vec<NodeEstimate>,
    /// Human-readable decision log (one line per choice that deviated from
    /// the rule-based reference).
    pub decisions: Vec<String>,
    /// Whether any rewrite changed the plan tree.
    pub changed: bool,
}

/// Re-cost the rule-based plan and apply any cheaper byte-identical
/// alternative. On any structural change the rewritten plan is re-verified
/// with the analyzer's schema re-derivation before it is returned.
pub fn optimize(
    plan: PlanNode,
    catalog: &CostCatalog,
    graphs: &HashMap<String, GraphMeta>,
    tables: &HashMap<String, Arc<Schema>>,
    hash_indexed: &HashMap<String, Vec<usize>>,
) -> Result<Optimized> {
    let mut rw = Rewriter {
        catalog,
        graphs,
        hash_indexed,
        decisions: Vec::new(),
        changed: false,
    };
    let plan = rw.rewrite(plan, false);
    if rw.changed {
        crate::analyze::verify_plan(&plan, graphs, tables)?;
    }
    let estimates = estimate(&plan, catalog);
    Ok(Optimized {
        plan,
        estimates,
        decisions: rw.decisions,
        changed: rw.changed,
    })
}

struct Rewriter<'a> {
    catalog: &'a CostCatalog,
    graphs: &'a HashMap<String, GraphMeta>,
    hash_indexed: &'a HashMap<String, Vec<usize>>,
    decisions: Vec<String>,
    changed: bool,
}

impl<'a> Rewriter<'a> {
    /// Walk the tree applying rewrites. `order_free` is true below an
    /// order-insensitive aggregate: every node there may emit rows in any
    /// order without changing result bytes.
    fn rewrite(&mut self, plan: PlanNode, order_free: bool) -> PlanNode {
        match plan {
            PlanNode::Aggregate { input, group_exprs, aggs, schema } => {
                let oi = group_exprs.is_empty() && aggs.iter().all(agg_order_insensitive);
                let input = Box::new(self.rewrite(*input, order_free || oi));
                PlanNode::Aggregate { input, group_exprs, aggs, schema }
            }
            PlanNode::PathScan { config, schema } => {
                // A counting scan is its own order-insensitive aggregate,
                // and the one shape the iterated-join rewrite replaces.
                let counts = config.emit == Emit::Count;
                if counts {
                    if let Some(rewritten) = self.try_iterated_join(&config, &schema) {
                        return rewritten;
                    }
                }
                let config = self.rewrite_path_config(config, order_free || counts);
                PlanNode::PathScan { config, schema }
            }
            PlanNode::PathJoin { outer, config, schema } => {
                let outer = Box::new(self.rewrite(*outer, order_free));
                let config = self.rewrite_path_config(config, order_free);
                PlanNode::PathJoin { outer, config, schema }
            }
            PlanNode::NestedLoopJoin { left, right, condition, schema } => {
                let left = Box::new(self.rewrite(*left, order_free));
                let right = Box::new(self.rewrite(*right, order_free));
                if order_free {
                    self.maybe_swap_nlj(left, right, condition, schema)
                } else {
                    PlanNode::NestedLoopJoin { left, right, condition, schema }
                }
            }
            PlanNode::Filter { input, predicate, schema } => {
                let input = Box::new(self.rewrite(*input, order_free));
                PlanNode::Filter { input, predicate, schema }
            }
            PlanNode::Project { input, exprs, schema } => {
                let input = Box::new(self.rewrite(*input, order_free));
                PlanNode::Project { input, exprs, schema }
            }
            PlanNode::Sort { input, keys, schema } => {
                // A full sort above restores order anyway; everything below
                // is order-free except that Sort is not total on ties, so
                // stay conservative and keep the flag as-is.
                let input = Box::new(self.rewrite(*input, order_free));
                PlanNode::Sort { input, keys, schema }
            }
            PlanNode::Limit { input, limit, schema } => {
                let input = Box::new(self.rewrite(*input, order_free));
                PlanNode::Limit { input, limit, schema }
            }
            PlanNode::Distinct { input, schema } => {
                let input = Box::new(self.rewrite(*input, order_free));
                PlanNode::Distinct { input, schema }
            }
            PlanNode::IndexJoin { outer, table, column, key, filter, schema } => {
                let outer = Box::new(self.rewrite(*outer, order_free));
                PlanNode::IndexJoin { outer, table, column, key, filter, schema }
            }
            leaf @ (PlanNode::TableScan { .. }
            | PlanNode::IndexLookup { .. }
            | PlanNode::VertexScan { .. }
            | PlanNode::EdgeScan { .. }) => leaf,
        }
    }

    /// Traversal-mode and pushdown choices on one path-scan config.
    fn rewrite_path_config(&mut self, mut config: PathScanConfig, order_free: bool) -> PathScanConfig {
        let g = self.catalog.graph(&config.graph);
        let f = g.effective_fan_out();
        // Mode choice: only where emission order is free (BFS and DFS emit
        // the same path set in different orders).
        if order_free && config.mode == ScanMode::Auto && !config.reachability {
            if config.end.is_some() {
                // Selective target anchor: breadth-first reaches the anchor
                // level by level and the residual end-filter kills whole
                // levels at once.
                config.mode = ScanMode::Bfs;
                self.decisions
                    .push(format!("targeted-bfs on {} (end anchor)", config.graph));
                self.changed = true;
            } else {
                let max_len = config.max_len as f64; // cast-ok: statistic, f64 precision ample
                let mode = if f < max_len { ScanMode::Bfs } else { ScanMode::Dfs };
                self.decisions.push(format!(
                    "{:?} on {} (effective fan-out {:.1} vs len {})",
                    mode, config.graph, f, config.max_len
                ));
                config.mode = mode;
                self.changed = true;
            }
        }
        // Pushdown ablation: the planner keeps pushed predicates in the
        // residual filter, so dropping them never changes rows or order —
        // worth it only when so few paths survive that per-hop checks cost
        // more than the residual pass. Never on the reachability fast path,
        // whose first-hit semantics depend on pruned traversal.
        // A closing scan's few rows say nothing about the open prefixes the
        // pushed predicates prune, so it keeps them.
        if !config.reachability
            && !config.closing
            && (!config.edge_preds.is_empty()
                || !config.vertex_preds.is_empty()
                || !config.agg_preds.is_empty())
        {
            let est = path_scan_estimate(&config, self.catalog, 1.0);
            if est.rows <= PUSHDOWN_MIN_PATHS {
                config.edge_preds.clear();
                config.vertex_preds.clear();
                config.agg_preds.clear();
                self.decisions.push(format!(
                    "pushdown ablated on {} (est {} paths)",
                    config.graph,
                    est.rows.round()
                ));
                self.changed = true;
            }
        }
        config
    }

    /// Buffered-side choice: NLJ buffers its LEFT input and re-streams the
    /// RIGHT per buffered row, so the smaller side should sit left. Output
    /// is left⊕right, so swapping needs a Project above to restore column
    /// order and an index remap inside the condition — both exact.
    fn maybe_swap_nlj(
        &mut self,
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        condition: Option<PhysExpr>,
        schema: Arc<Schema>,
    ) -> PlanNode {
        let l = estimate(&left, self.catalog);
        let r = estimate(&right, self.catalog);
        let (lrows, rrows) = (l[0].rows, r[0].rows);
        if lrows <= rrows * NLJ_SWAP_RATIO {
            return PlanNode::NestedLoopJoin { left, right, condition, schema };
        }
        let lw = left.schema().len();
        let rw = right.schema().len();
        let remap = |idx: usize| if idx < lw { idx + rw } else { idx - lw };
        let condition = condition.map(|c| remap_columns(c, &remap));
        let swapped_schema = Arc::new(Schema::clone(right.schema()).join(left.schema()));
        let inner = PlanNode::NestedLoopJoin {
            left: right,
            right: left,
            condition,
            schema: swapped_schema,
        };
        // Restore the original left⊕right column layout.
        let exprs: Vec<PhysExpr> = (0..lw + rw)
            .map(|i| {
                let src = remap(i);
                PhysExpr::Column { index: src, ty: schema.column(i).data_type }
            })
            .collect();
        self.decisions.push(format!(
            "nlj build-side swap (left est {} rows vs right {})",
            lrows.round(),
            rrows.round()
        ));
        self.changed = true;
        PlanNode::Project { input: Box::new(inner), exprs, schema }
    }

    /// The SQLGraph-style rewrite: a scan counting the paths of one exact
    /// length from one constant anchor becomes `COUNT(*)` over a chain of
    /// index joins over the edge source plus a simple-path distinctness
    /// filter. Applies only when every byte-identity condition holds *and*
    /// the cost model says the join side wins (high effective fan-out). The
    /// planner consumed the anchor and length conjuncts into `config`, so
    /// a scan with no filter above it is constrained by nothing else.
    fn try_iterated_join(
        &mut self,
        config: &PathScanConfig,
        agg_schema: &Arc<Schema>,
    ) -> Option<PlanNode> {
        let meta = self.graphs.get(&config.graph)?;
        if !meta.def.directed {
            return None; // join over (from, to) misses reverse hops
        }
        // The chain counts open paths; it has no closing test.
        if config.reachability
            || config.closing
            || config.end.is_some()
            || !config.edge_preds.is_empty()
            || !config.vertex_preds.is_empty()
            || !config.agg_preds.is_empty()
            || matches!(config.mode, ScanMode::ShortestPath { .. })
        {
            return None;
        }
        let k = config.min_len;
        if k != config.max_len || k == 0 || k > MAX_JOIN_CHAIN {
            return None;
        }
        let start = match &config.start {
            StartSource::Constant(PhysExpr::Literal(Value::Integer(s))) => *s,
            _ => return None,
        };
        // The chain needs a hash index on the edge-source from-column.
        let edge_table = &meta.def.edge_source;
        if !self
            .hash_indexed
            .get(edge_table)
            .is_some_and(|cols| cols.contains(&meta.def.edge_from_col))
        {
            return None;
        }
        // Cost the two sides; traversal keeps the plan unchanged.
        let g = self.catalog.graph(&config.graph);
        let f = g.effective_fan_out().max(1e-3);
        let paths: f64 = (1..=k).map(|d| f.powi(d as i32)).sum(); // cast-ok: k <= 3
        let work: f64 = paths; // same prefix set at exact depth k anchoring
        let traversal_cost = work * (TRAVERSAL_PATH_BASE + TRAVERSAL_FANOUT_FACTOR * f);
        let join_cost = paths * JOIN_ROW_COST + k as f64 * JOIN_PROBE_COST; // cast-ok: k <= 3
        if traversal_cost <= join_cost {
            return None;
        }

        let edge_schema = meta.edge_schema.clone();
        let width = edge_schema.len();
        let from_col = meta.def.edge_from_col;
        let to_col = meta.def.edge_to_col;
        let id_ty = edge_schema.column(to_col).data_type;
        // Hop 1: index lookup of edges leaving the anchor.
        let mut chain = PlanNode::IndexLookup {
            table: edge_table.clone(),
            schema: edge_schema.clone(),
            column: from_col,
            key: PhysExpr::Literal(Value::Integer(start)),
            filter: None,
        };
        let mut chain_schema = Schema::clone(&edge_schema);
        // Hops 2..=k: index join keyed on the previous hop's to-column.
        for hop in 2..=k {
            chain_schema = chain_schema.join(&edge_schema);
            chain = PlanNode::IndexJoin {
                outer: Box::new(chain),
                table: edge_table.clone(),
                column: from_col,
                key: PhysExpr::Column { index: (hop - 2) * width + to_col, ty: id_ty },
                filter: None,
                schema: Arc::new(chain_schema.clone()),
            };
        }
        let chain_schema = Arc::new(chain_schema);
        // Simple-path distinctness: targets pairwise distinct, and every
        // non-final target distinct from the start (the final target may
        // close a cycle back to the anchor).
        let target = |i: usize| PhysExpr::Column { index: (i - 1) * width + to_col, ty: id_ty };
        let mut pred: Option<PhysExpr> = None;
        let mut add = |p: PhysExpr| {
            pred = Some(match pred.take() {
                None => p,
                Some(q) => PhysExpr::And(Box::new(q), Box::new(p)),
            });
        };
        for i in 1..k {
            add(PhysExpr::Cmp {
                op: CmpOp::NotEq,
                left: Box::new(target(i)),
                right: Box::new(PhysExpr::Literal(Value::Integer(start))),
            });
        }
        for i in 1..=k {
            for j in (i + 1)..=k {
                add(PhysExpr::Cmp {
                    op: CmpOp::NotEq,
                    left: Box::new(target(i)),
                    right: Box::new(target(j)),
                });
            }
        }
        let joined = match pred {
            Some(predicate) => PlanNode::Filter {
                input: Box::new(chain),
                predicate,
                schema: chain_schema,
            },
            None => chain,
        };
        self.decisions.push(format!(
            "iterated join on {} (len {k}, effective fan-out {f:.1})",
            config.graph
        ));
        self.changed = true;
        Some(PlanNode::Aggregate {
            input: Box::new(joined),
            group_exprs: Vec::new(),
            aggs: vec![AggSpec { func: AggFunc::Count, arg: None }; agg_schema.len()],
            schema: agg_schema.clone(),
        })
    }
}

/// Aggregates whose value is independent of input order. Double-typed SUM
/// and AVG accumulate in f64 and are excluded; integer SUM/AVG accumulate
/// exactly (i128) and qualify.
fn agg_order_insensitive(spec: &AggSpec) -> bool {
    match spec.func {
        AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
        AggFunc::Sum | AggFunc::Avg => spec
            .arg
            .as_ref()
            .is_some_and(|a| a.static_type() == DataType::Integer),
    }
}

/// Rewrite every column reference in a predicate through `remap` (used when
/// swapping NLJ sides: the condition was compiled against left⊕right and
/// must re-address right⊕left).
fn remap_columns(expr: PhysExpr, remap: &impl Fn(usize) -> usize) -> PhysExpr {
    let rec = |e: Box<PhysExpr>| Box::new(remap_columns(*e, remap));
    match expr {
        PhysExpr::Column { index, ty } => PhysExpr::Column { index: remap(index), ty },
        PhysExpr::PathProp { col, prop, ty } => PhysExpr::PathProp { col: remap(col), prop, ty },
        PhysExpr::PathAgg { col, target, attr, func, ty } => {
            PhysExpr::PathAgg { col: remap(col), target, attr, func, ty }
        }
        PhysExpr::Quant { col, target, start, end, attr, test } => {
            PhysExpr::Quant { col: remap(col), target, start, end, attr, test }
        }
        PhysExpr::Not(e) => PhysExpr::Not(rec(e)),
        PhysExpr::Neg(e) => PhysExpr::Neg(rec(e)),
        PhysExpr::And(l, r) => PhysExpr::And(rec(l), rec(r)),
        PhysExpr::Or(l, r) => PhysExpr::Or(rec(l), rec(r)),
        PhysExpr::Cmp { op, left, right } => PhysExpr::Cmp { op, left: rec(left), right: rec(right) },
        PhysExpr::Arith { op, left, right } => {
            PhysExpr::Arith { op, left: rec(left), right: rec(right) }
        }
        PhysExpr::InList { expr, list, negated } => PhysExpr::InList {
            expr: rec(expr),
            list: list.into_iter().map(|e| remap_columns(e, remap)).collect(),
            negated,
        },
        PhysExpr::Between { expr, low, high, negated } => PhysExpr::Between {
            expr: rec(expr),
            low: rec(low),
            high: rec(high),
            negated,
        },
        e @ (PhysExpr::Literal(_) | PhysExpr::Param { .. }) => e,
    }
}

// ---- EXPLAIN annotation ----------------------------------------------------

/// Append ` rows_est=N cost=C` to each EXPLAIN line. `lines` must be the
/// pre-order node rendering (`explain_typed` / `PlanNode::explain`); when
/// the line count does not match the estimate count the text is returned
/// unchanged — estimates are an annotation, never a formatting risk.
pub fn annotate_explain(text: &str, estimates: &[NodeEstimate]) -> String {
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != estimates.len() {
        return text.to_string();
    }
    let mut out = String::with_capacity(text.len() + estimates.len() * 24);
    for (line, est) in lines.iter().zip(estimates) {
        out.push_str(line);
        out.push_str(&format!(" rows_est={} cost={}", fmt_est(est.rows), fmt_est(est.cost)));
        out.push('\n');
    }
    out
}

/// Render an estimate as a stable integer (no scientific notation, no `?`):
/// saturates at u64::MAX for overflow-level estimates.
fn fmt_est(v: f64) -> u64 {
    if !v.is_finite() || v >= u64::MAX as f64 { // cast-ok: saturation bound
        u64::MAX
    } else {
        v.round() as u64 // cast-ok: clamped non-negative finite
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_common::Column;

    fn catalog() -> CostCatalog {
        let mut c = CostCatalog::new();
        c.add_table(
            "e",
            TableStats { row_count: 1000, slot_count: 1000 },
            vec![(0, 1000), (1, 50)],
        );
        c
    }

    fn scan() -> PlanNode {
        PlanNode::TableScan {
            table: "e".into(),
            schema: Schema::new(vec![Column::new("id", DataType::Integer)]).shared(),
            filter: None,
        }
    }

    #[test]
    fn estimates_are_preorder_and_clamped() {
        let plan = PlanNode::Limit {
            schema: scan().schema().clone(),
            limit: 10,
            input: Box::new(PlanNode::Filter {
                schema: scan().schema().clone(),
                predicate: PhysExpr::Literal(Value::Boolean(true)),
                input: Box::new(scan()),
            }),
        };
        let ests = estimate(&plan, &catalog());
        assert_eq!(ests.len(), 3); // Limit, Filter, TableScan pre-order
        assert!((ests[2].rows - 1000.0).abs() < 1e-9);
        assert!(ests[1].rows < ests[2].rows);
        assert!(ests[0].rows <= 10.0);
        for e in &ests {
            assert!(e.rows.is_finite() && e.rows >= 0.0);
            assert!(e.cost.is_finite() && e.cost >= 0.0);
        }
    }

    #[test]
    fn limit_is_monotone() {
        for limit in [0u64, 1, 5, 100, 10_000] {
            let plan = PlanNode::Limit {
                schema: scan().schema().clone(),
                limit,
                input: Box::new(scan()),
            };
            let ests = estimate(&plan, &catalog());
            assert!(ests[0].rows <= ests[1].rows, "limit never raises cardinality");
            assert!(ests[0].rows <= limit as f64); // cast-ok: test bound
        }
    }

    #[test]
    fn annotate_requires_matching_line_count() {
        let ests = vec![NodeEstimate { rows: 3.4, cost: 10.6 }];
        let out = annotate_explain("TableScan(t)", &ests);
        assert_eq!(out, "TableScan(t) rows_est=3 cost=11\n");
        // Mismatch leaves the text untouched — no `rows_est=?` ever leaks.
        let out = annotate_explain("a\nb", &ests);
        assert_eq!(out, "a\nb");
        assert!(!out.contains("rows_est"));
    }

    #[test]
    fn effective_fanout_discounts_stale_distributions() {
        let fresh = GraphCost {
            vertices: 64.0,
            edges: 63.0,
            avg_out: 63.0 / 64.0,
            p90_out: 1.0,
            max_out: 63.0,
            fresh: true,
        };
        assert!(fresh.effective_fan_out() > 6.0, "hub visible when fresh");
        let stale = GraphCost { fresh: false, ..fresh };
        assert!(stale.effective_fan_out() < 1.0, "stale falls back to average");
    }

    #[test]
    fn order_insensitive_aggregates() {
        let count = AggSpec { func: AggFunc::Count, arg: None };
        assert!(agg_order_insensitive(&count));
        let int_sum = AggSpec {
            func: AggFunc::Sum,
            arg: Some(PhysExpr::Column { index: 0, ty: DataType::Integer }),
        };
        assert!(agg_order_insensitive(&int_sum));
        let dbl_sum = AggSpec {
            func: AggFunc::Sum,
            arg: Some(PhysExpr::Column { index: 0, ty: DataType::Double }),
        };
        assert!(!agg_order_insensitive(&dbl_sum), "f64 accumulation is order-sensitive");
    }

}
