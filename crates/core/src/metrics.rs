//! Per-operator runtime metrics (`EXPLAIN ANALYZE`).
//!
//! The paper's evaluation (§6–§7) reasons about operator-level runtime
//! behaviour — traversal time, vertexes/edges visited, BFS-vs-DFS choice —
//! so the engine can instrument a query and report, per plan node, how many
//! rows it produced, how often it was pulled, how long it ran, and (for
//! graph operators) how much of the topology it actually touched.
//!
//! # Overhead discipline
//!
//! Collection is strictly opt-in. When metrics are off (every plain
//! `execute`), the executor builds the exact same operator tree as before —
//! no wrapper objects, no clock reads, no per-row bookkeeping. The only
//! always-on counters are the plain (non-atomic) `u64` fields of the
//! `SearchStats` every traversal keeps (vertexes visited, edges examined)
//! and the bound filter's dereference count; reading them costs nothing
//! when nobody asks. When metrics are on, each operator's instrumentation
//! wrapper updates its node's [`OpMetrics`] in the [`MetricsSink`] — a
//! query runs on its caller's thread, so no atomics are involved.

use std::cell::{RefCell, RefMut};

use grfusion_graph::TopologyLayout;

/// Counters describing how much of a graph a traversal touched — the exact
/// quantities the paper plots (§7: vertexes visited, edges expanded, and
/// tuple-pointer dereferences into relational storage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphCounters {
    /// Vertexes placed on a traversal path / frontier / closed set.
    pub vertices_visited: u64,
    /// Edges examined while expanding the traversal.
    pub edges_expanded: u64,
    /// Tuple-pointer dereferences into the vertex/edge source tables
    /// (pushed-predicate evaluation through `RowId`s, §6.2).
    pub tuple_derefs: u64,
}

impl GraphCounters {
    pub fn merge(&mut self, other: &GraphCounters) {
        self.vertices_visited += other.vertices_visited;
        self.edges_expanded += other.edges_expanded;
        self.tuple_derefs += other.tuple_derefs;
    }
}

/// Per-node resource-governor counters: how many bytes the node charged to
/// the memory accountant and how many cooperative cancellation/deadline
/// checks it performed. Only populated when the governor is active for the
/// query (`EXPLAIN ANALYZE` with a deadline, memory cap, or cancel token).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GovCounters {
    /// Bytes this node charged against the memory accountant.
    pub bytes: u64,
    /// Cooperative governor checks this node performed.
    pub checks: u64,
}

impl GovCounters {
    pub fn merge(&mut self, other: &GovCounters) {
        self.bytes += other.bytes;
        self.checks += other.checks;
    }
}

/// Runtime metrics for one plan node.
#[derive(Debug, Clone, Default)]
pub struct OpMetrics {
    /// The node's `EXPLAIN` label (e.g. `PathScan(g, Bfs, len 1..=3)`).
    pub label: String,
    /// Depth in the plan tree (root = 0); mirrors `EXPLAIN` indentation.
    pub depth: usize,
    /// Rows this node produced.
    pub rows: u64,
    /// Paths a counting scan (`emit=count`) counted into its one row;
    /// `None` for every other operator.
    pub paths: Option<u64>,
    /// `next_batch` calls the parent issued (batches + the exhausting call).
    pub next_calls: u64,
    /// Cumulative wall time inside this node *including* its children
    /// (PostgreSQL-style inclusive timing).
    pub time_ns: u64,
    /// Graph-traversal counters; `None` for relational operators.
    pub graph: Option<GraphCounters>,
    /// Resource-governor counters; `None` when the governor was inactive.
    pub gov: Option<GovCounters>,
    /// Topology layout the operator traversed (sealed CSR / delta overlay /
    /// plain adjacency); `None` for relational operators.
    pub layout: Option<TopologyLayout>,
}

impl OpMetrics {
    /// One `next_batch` call that took `elapsed_ns` and produced `rows`
    /// rows (0 = exhausted or errored).
    #[inline]
    pub(crate) fn record_batch(&mut self, elapsed_ns: u64, rows: u64) {
        self.next_calls += 1;
        self.time_ns += elapsed_ns;
        self.rows += rows;
    }
}

/// Structured metrics for one executed query.
#[derive(Debug, Clone, Default)]
pub struct QueryMetrics {
    /// Plan nodes in pre-order (same order as `EXPLAIN` lines).
    pub nodes: Vec<OpMetrics>,
}

impl QueryMetrics {
    /// First node whose label starts with `prefix` (convenience for tests
    /// and the bench harness: `metrics.node("PathScan")`).
    pub fn node(&self, prefix: &str) -> Option<&OpMetrics> {
        self.nodes.iter().find(|n| n.label.starts_with(prefix))
    }

    /// Sum of graph counters across all nodes.
    pub fn graph_totals(&self) -> GraphCounters {
        let mut total = GraphCounters::default();
        for n in &self.nodes {
            if let Some(g) = &n.graph {
                total.merge(g);
            }
        }
        total
    }

    /// Render the annotated plan tree (the `EXPLAIN ANALYZE` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            for _ in 0..n.depth {
                out.push_str("  ");
            }
            out.push_str(&n.label);
            out.push_str(&format!(" (rows={}", n.rows));
            if let Some(paths) = n.paths {
                out.push_str(&format!(" paths={paths}"));
            }
            out.push_str(&format!(
                " nexts={} time={}us)",
                n.next_calls,
                format_us(n.time_ns)
            ));
            if let Some(g) = &n.graph {
                out.push_str(&format!(
                    " (vertices={} edges={} derefs={})",
                    g.vertices_visited, g.edges_expanded, g.tuple_derefs
                ));
            }
            if let Some(l) = &n.layout {
                out.push_str(&format!(" (layout={l})"));
            }
            if let Some(g) = &n.gov {
                out.push_str(&format!(" (bytes={} checks={})", g.bytes, g.checks));
            }
            out.push('\n');
        }
        out
    }
}

fn format_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// Collection context for one instrumented execution. Created by
/// `execute_plan_with_metrics`; plan nodes register themselves in build
/// (pre-)order so the finished node list lines up with `EXPLAIN` output,
/// and each operator's instrumentation wrapper updates its own record by
/// index. `RefCell` suffices: the executor is single-threaded.
#[derive(Debug, Default)]
pub struct MetricsSink {
    nodes: RefCell<Vec<OpMetrics>>,
}

impl MetricsSink {
    pub(crate) fn new() -> Self {
        MetricsSink::default()
    }

    /// Add a node's record; the index is where [`MetricsSink::node`] finds
    /// it.
    pub(crate) fn register(&self, label: String, depth: usize) -> usize {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(OpMetrics {
            label,
            depth,
            ..OpMetrics::default()
        });
        nodes.len() - 1
    }

    /// Node `at`'s record, to update after one of its calls.
    #[inline]
    pub(crate) fn node(&self, at: usize) -> RefMut<'_, OpMetrics> {
        RefMut::map(self.nodes.borrow_mut(), |nodes| &mut nodes[at])
    }

    pub(crate) fn finish(self) -> QueryMetrics {
        QueryMetrics {
            nodes: self.nodes.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_snapshots_in_registration_order() {
        let sink = MetricsSink::new();
        let a = sink.register("Project(1 cols)".into(), 0);
        let b = sink.register("TableScan(t)".into(), 1);
        sink.node(a).record_batch(1_500, 1);
        sink.node(a).record_batch(500, 0);
        let mut node = sink.node(b);
        node.record_batch(1_000, 1);
        node.graph = Some(GraphCounters {
            vertices_visited: 3,
            edges_expanded: 5,
            tuple_derefs: 2,
        });
        node.gov = Some(GovCounters {
            bytes: 128,
            checks: 4,
        });
        node.layout = Some(TopologyLayout::Delta(2));
        drop(node);
        let m = sink.finish();
        assert_eq!(m.nodes.len(), 2);
        assert_eq!(m.nodes[0].label, "Project(1 cols)");
        assert_eq!(m.nodes[0].rows, 1);
        assert_eq!(m.nodes[0].next_calls, 2);
        assert_eq!(m.nodes[0].time_ns, 2_000);
        assert!(m.nodes[0].graph.is_none());
        assert_eq!(m.nodes[1].graph.unwrap().edges_expanded, 5);
        assert_eq!(m.node("TableScan").unwrap().rows, 1);
        assert_eq!(m.graph_totals().vertices_visited, 3);
        let text = m.render();
        assert!(text.contains("Project(1 cols) (rows=1 nexts=2"), "{text}");
        assert!(text.contains("  TableScan(t)"), "{text}");
        assert!(text.contains("(vertices=3 edges=5 derefs=2)"), "{text}");
        assert!(m.nodes[0].gov.is_none());
        assert_eq!(m.nodes[1].gov.unwrap_or_default().bytes, 128);
        assert!(text.contains("(bytes=128 checks=4)"), "{text}");
        assert!(m.nodes[0].layout.is_none());
        assert_eq!(m.nodes[1].layout, Some(TopologyLayout::Delta(2)));
        assert!(text.contains("(layout=delta(2))"), "{text}");
    }
}
