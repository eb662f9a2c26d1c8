//! Physical query plans.
//!
//! Plans are owned trees (no borrows into storage) so they can be built
//! once and executed against freshly acquired read guards. The shape
//! follows the paper's cross-model QEPs (EDBT 2018 §5.2, Figures 5–6):
//! graph operators sit at the leaf level, relational operators consume
//! their output, and a relational outer can probe a path scan
//! ([`PlanNode::PathJoin`], the Figure 6 shape).

use std::sync::Arc;

use grfusion_common::Schema;
use grfusion_sql::IndexEnd;

use crate::expr::{AggFunc, CmpOp, PhysExpr, QuantTest, SlotAttr};

/// A physical plan node. Every node knows its output schema.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Sequential scan of a relational table.
    TableScan {
        /// Lowercase table name.
        table: String,
        schema: Arc<Schema>,
        /// Pushed single-binding predicate (compiled against the table's
        /// own schema).
        filter: Option<PhysExpr>,
    },
    /// Point lookup through a hash index (`IndexScan` in the paper's
    /// Figure 6 discussion).
    IndexLookup {
        table: String,
        schema: Arc<Schema>,
        column: usize,
        /// Constant key expression.
        key: PhysExpr,
        /// Residual pushed filter.
        filter: Option<PhysExpr>,
    },
    /// `gv.VERTEXES` scan (paper §5.1.1).
    VertexScan {
        graph: String,
        schema: Arc<Schema>,
        filter: Option<PhysExpr>,
    },
    /// `gv.EDGES` scan.
    EdgeScan {
        graph: String,
        schema: Arc<Schema>,
        filter: Option<PhysExpr>,
    },
    /// Standalone `gv.PATHS` scan (seeds are constants or all vertexes).
    /// Emits one PATH column, or — with [`Emit::Count`] — one row of
    /// INTEGER columns.
    PathScan {
        config: PathScanConfig,
        schema: Arc<Schema>,
    },
    /// Probe-style path scan: for each outer row, traverse from the start
    /// vertex computed by `config.start` (Figure 6's join of a relational
    /// outer with a traversal inner). Output = outer row ⊕ path column.
    PathJoin {
        outer: Box<PlanNode>,
        config: PathScanConfig,
        schema: Arc<Schema>,
    },
    /// Tuple-at-a-time filter.
    Filter {
        input: Box<PlanNode>,
        predicate: PhysExpr,
        schema: Arc<Schema>,
    },
    /// Nested-loop join with optional condition (inner side re-scanned).
    NestedLoopJoin {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
        condition: Option<PhysExpr>,
        schema: Arc<Schema>,
    },
    /// Index nested-loop join: for each outer row, probe a hash index on
    /// the inner table with `key` (compiled against the outer schema) and
    /// emit outer ⊕ inner. This is the join shape SQLGraph-style
    /// relational traversal relies on (one indexed self-join per hop).
    IndexJoin {
        outer: Box<PlanNode>,
        table: String,
        column: usize,
        key: PhysExpr,
        /// Filter over the inner row alone (compiled at offset 0).
        filter: Option<PhysExpr>,
        schema: Arc<Schema>,
    },
    /// Projection.
    Project {
        input: Box<PlanNode>,
        exprs: Vec<PhysExpr>,
        schema: Arc<Schema>,
    },
    /// Hash aggregation. Output = group columns then aggregate columns.
    Aggregate {
        input: Box<PlanNode>,
        group_exprs: Vec<PhysExpr>,
        aggs: Vec<AggSpec>,
        schema: Arc<Schema>,
    },
    /// Full sort.
    Sort {
        input: Box<PlanNode>,
        keys: Vec<(PhysExpr, bool)>,
        schema: Arc<Schema>,
    },
    /// Row-count limit.
    Limit {
        input: Box<PlanNode>,
        limit: u64,
        schema: Arc<Schema>,
    },
    /// Streaming duplicate elimination (`SELECT DISTINCT`).
    Distinct {
        input: Box<PlanNode>,
        schema: Arc<Schema>,
    },
}

impl PlanNode {
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            PlanNode::TableScan { schema, .. }
            | PlanNode::IndexLookup { schema, .. }
            | PlanNode::VertexScan { schema, .. }
            | PlanNode::EdgeScan { schema, .. }
            | PlanNode::PathScan { schema, .. }
            | PlanNode::PathJoin { schema, .. }
            | PlanNode::Filter { schema, .. }
            | PlanNode::NestedLoopJoin { schema, .. }
            | PlanNode::IndexJoin { schema, .. }
            | PlanNode::Project { schema, .. }
            | PlanNode::Aggregate { schema, .. }
            | PlanNode::Sort { schema, .. }
            | PlanNode::Limit { schema, .. }
            | PlanNode::Distinct { schema, .. } => schema,
        }
    }

    /// The node's inputs, the outer (left) one first.
    pub fn inputs(&self) -> impl Iterator<Item = &PlanNode> {
        let (first, second) = match self {
            PlanNode::TableScan { .. }
            | PlanNode::IndexLookup { .. }
            | PlanNode::VertexScan { .. }
            | PlanNode::EdgeScan { .. }
            | PlanNode::PathScan { .. } => (None, None),
            PlanNode::NestedLoopJoin { left, right, .. } => (Some(&**left), Some(&**right)),
            PlanNode::PathJoin { outer: input, .. }
            | PlanNode::IndexJoin { outer: input, .. }
            | PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input, .. } => (Some(&**input), None),
        };
        first.into_iter().chain(second)
    }

    /// Pretty-print the plan tree (EXPLAIN-style, for docs and debugging).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// The node's one-line `EXPLAIN` label (no children, no newline).
    /// `EXPLAIN ANALYZE` annotates the same labels with runtime counters,
    /// so the two outputs always line up.
    pub fn node_label(&self) -> String {
        match self {
            PlanNode::TableScan { table, filter, .. } => format!(
                "TableScan({table}{})",
                if filter.is_some() { ", filtered" } else { "" }
            ),
            PlanNode::IndexLookup { table, .. } => format!("IndexLookup({table})"),
            PlanNode::VertexScan { graph, .. } => format!("VertexScan({graph})"),
            PlanNode::EdgeScan { graph, .. } => format!("EdgeScan({graph})"),
            PlanNode::PathScan { config, .. } => format!(
                "PathScan({}, {}, len {}..={}{}{}{})",
                config.graph,
                config.mode.label(),
                config.min_len,
                config.max_len,
                if config.reachability { ", reachability" } else { "" },
                if config.closing { ", closing" } else { "" },
                if config.emit == Emit::Count { ", emit=count" } else { "" }
            ),
            PlanNode::PathJoin { config, .. } => format!(
                "PathJoin({}, {}, len {}..={}{}{})",
                config.graph,
                config.mode.label(),
                config.min_len,
                config.max_len,
                if config.reachability { ", reachability" } else { "" },
                if config.closing { ", closing" } else { "" }
            ),
            PlanNode::Filter { .. } => "Filter".to_string(),
            PlanNode::NestedLoopJoin { condition, .. } => format!(
                "NestedLoopJoin{}",
                if condition.is_some() { "(cond)" } else { "(cross)" }
            ),
            PlanNode::IndexJoin { table, .. } => format!("IndexJoin({table})"),
            PlanNode::Project { exprs, .. } => format!("Project({} cols)", exprs.len()),
            PlanNode::Aggregate {
                group_exprs, aggs, ..
            } => format!(
                "Aggregate({} groups, {} aggs)",
                group_exprs.len(),
                aggs.len()
            ),
            PlanNode::Sort { keys, .. } => format!("Sort({} keys)", keys.len()),
            PlanNode::Limit { limit, .. } => format!("Limit({limit})"),
            PlanNode::Distinct { .. } => "Distinct".to_string(),
        }
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.node_label());
        out.push('\n');
        for input in self.inputs() {
            input.explain_into(out, depth + 1);
        }
    }
}

/// One group-aggregate column.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Argument expression; `None` for `COUNT(*)`.
    pub arg: Option<PhysExpr>,
}

/// Physical traversal mode of a path scan (§6.3's logical→physical
/// mapping).
#[derive(Debug, Clone, PartialEq)]
pub enum ScanMode {
    /// Decide BFS vs. DFS at execution from the graph's average fan-out
    /// statistic (`BFS iff F < L`).
    Auto,
    Dfs,
    Bfs,
    /// Dijkstra-based shortest-path scan over an exposed edge attribute
    /// (requires start and end anchors): `cost` is its column of the edges
    /// source, `cost_attr` its name as EXPLAIN prints it.
    ShortestPath { cost_attr: String, cost: usize },
}

impl ScanMode {
    /// The mode as EXPLAIN prints it.
    fn label(&self) -> String {
        match self {
            ScanMode::ShortestPath { cost_attr, .. } => {
                format!("ShortestPath {{ cost_attr: {cost_attr:?} }}")
            }
            mode => format!("{mode:?}"),
        }
    }
}

/// Where a path scan's start vertexes come from.
#[derive(Debug, Clone, PartialEq)]
pub enum StartSource {
    /// No anchor: every vertex of the view seeds the traversal (§5.1.2).
    AllVertexes,
    /// Anchored to a constant expression (`PS.StartVertex.Id = 3`).
    Constant(PhysExpr),
    /// Probed from the outer row of a [`PlanNode::PathJoin`]; the
    /// expression is compiled against the outer schema.
    Probe(PhysExpr),
}

/// A predicate pushed into the traversal (§6.2). The test's operands read
/// only the *outer* row (none for a standalone scan) and are bound to
/// concrete values when the scan starts.
#[derive(Debug, Clone, PartialEq)]
pub struct PushedPred {
    pub start: u64,
    pub end: IndexEnd,
    /// The attribute tested (a hop's `StartVertex` / `EndVertex` is not
    /// pushable: its direction is only known per path).
    pub attr: SlotAttr,
    pub test: QuantTest,
}

/// A running path-aggregate bound pushed into traversal (§6.2):
/// `SUM(PS.Edges.attr) < rhs` prunes prefixes once exceeded.
#[derive(Debug, Clone, PartialEq)]
pub struct PushedAggPred {
    pub attr: SlotAttr,
    /// `Lt` or `LtEq` only. A prefix over the bound only dooms its
    /// extensions while the attribute is non-negative, so the scan stops
    /// pruning once it finds a negative value in the attribute's column.
    pub op: CmpOp,
    pub rhs: PhysExpr,
}

/// What a path scan hands its consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// One row per path, carrying the path.
    Paths,
    /// One row in all: the number of paths, once per output column. The
    /// planner's form of an ungrouped `COUNT(*)`/`COUNT(P)` directly over
    /// the scan — the traversal runs in full, but no path is materialized.
    Count,
}

/// Everything a path scan needs at execution time.
#[derive(Debug, Clone)]
pub struct PathScanConfig {
    /// Lowercase graph-view name.
    pub graph: String,
    pub mode: ScanMode,
    /// Inferred traversal window (§6.1).
    pub min_len: usize,
    pub max_len: usize,
    /// Whether `max_len` is a bound the query wrote (`PS.Length <= n`)
    /// rather than the planner's default cap. Hop-blind searches (classic
    /// Dijkstra) may only stand in for the bounded enumerator when it is
    /// not.
    pub explicit_max_len: bool,
    pub start: StartSource,
    /// Target anchor (`PS.EndVertex.Id = ...`) — required by
    /// `ShortestPath`, unused by DFS/BFS; always kept residual too.
    pub end: Option<PhysExpr>,
    /// Pushed traversal predicates (§6.2), in conjunct order. Empty when
    /// pushdown is off.
    pub preds: Vec<PushedPred>,
    pub agg_preds: Vec<PushedAggPred>,
    /// When false (ablation), the scan materializes all qualifying paths
    /// eagerly before emitting the first.
    pub lazy: bool,
    /// Reachability fast path: the planner proved that the query needs at
    /// most one path per probe (`LIMIT 1`), with pinned start/end vertexes,
    /// a max-only length window, and only uniform `[0..*]` edge/vertex
    /// predicates — so the scan may run one point-to-point search
    /// (`grfusion_graph::p2p`, visited-set BFS) instead of
    /// enumerating simple paths (how the paper's BFScan answers Listing 3
    /// queries at depth 20 in milliseconds, §7.2). Residual predicates are
    /// still applied above the scan, so this is semantics-preserving.
    pub reachability: bool,
    /// The planner consumed a cycle-closing conjunct (`PS.Edges[L-1].EndVertex
    /// = PS.Edges[0].StartVertex`, or `PS.EndVertex.Id = PS.StartVertex.Id`)
    /// over an exact window `L..=L`: the scan emits only paths that return to
    /// their start vertex. Only DFS, BFS and Auto scans carry it.
    pub closing: bool,
    /// Always [`Emit::Paths`] under a [`PlanNode::PathJoin`].
    pub emit: Emit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_common::{Column, DataType};

    fn leaf() -> PlanNode {
        PlanNode::TableScan {
            table: "t".into(),
            schema: Schema::new(vec![Column::new("a", DataType::Integer)]).shared(),
            filter: None,
        }
    }

    #[test]
    fn schema_accessor_and_explain() {
        let plan = PlanNode::Limit {
            schema: leaf().schema().clone(),
            input: Box::new(PlanNode::Filter {
                schema: leaf().schema().clone(),
                predicate: PhysExpr::Literal(grfusion_common::Value::Boolean(true)),
                input: Box::new(leaf()),
            }),
            limit: 3,
        };
        assert_eq!(plan.schema().len(), 1);
        let text = plan.explain();
        assert!(text.contains("Limit(3)"));
        assert!(text.contains("Filter"));
        assert!(text.contains("TableScan(t)"));
        // indentation reflects depth
        assert!(text.contains("\n  Filter"));
    }
}
