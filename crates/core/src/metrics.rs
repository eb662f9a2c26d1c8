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
//! wrapper owns a [`NodeSlot`] of `Cell<u64>` counters — a query runs on
//! its caller's thread, so no atomics are involved.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

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
#[derive(Debug, Clone)]
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

/// Mutable per-node counter slot shared between the operator's wrapper (which
/// bumps it) and the sink (which reads it at the end). `Cell` suffices:
/// the executor is single-threaded.
#[derive(Debug)]
pub struct NodeSlot {
    label: String,
    depth: usize,
    rows: Cell<u64>,
    paths: Cell<Option<u64>>,
    next_calls: Cell<u64>,
    time_ns: Cell<u64>,
    graph: Cell<Option<GraphCounters>>,
    gov: Cell<Option<GovCounters>>,
    layout: Cell<Option<TopologyLayout>>,
}

impl NodeSlot {
    /// One `next_batch` call that took `elapsed_ns` and produced `rows`
    /// rows (0 = exhausted or errored).
    #[inline]
    pub(crate) fn record_batch(&self, elapsed_ns: u64, rows: u64) {
        self.next_calls.set(self.next_calls.get() + 1);
        self.time_ns.set(self.time_ns.get() + elapsed_ns);
        self.rows.set(self.rows.get() + rows);
    }

    /// Overwrite the node's graph counters with the operator's cumulative
    /// totals (counters are monotonic, so the last write wins).
    #[inline]
    pub(crate) fn set_graph(&self, g: GraphCounters) {
        self.graph.set(Some(g));
    }

    /// Overwrite the paths a counting scan has counted (cumulative).
    #[inline]
    pub(crate) fn set_paths(&self, n: u64) {
        self.paths.set(Some(n));
    }

    /// Overwrite the node's governor counters with cumulative totals (same
    /// last-write-wins contract as [`NodeSlot::set_graph`]).
    #[inline]
    pub(crate) fn set_gov(&self, g: GovCounters) {
        self.gov.set(Some(g));
    }

    /// Record the topology layout the operator traversed (stable for the
    /// whole query — the topology lock is held — so any write wins).
    #[inline]
    pub(crate) fn set_layout(&self, l: TopologyLayout) {
        self.layout.set(Some(l));
    }

    fn snapshot(&self) -> OpMetrics {
        OpMetrics {
            label: self.label.clone(),
            depth: self.depth,
            rows: self.rows.get(),
            paths: self.paths.get(),
            next_calls: self.next_calls.get(),
            time_ns: self.time_ns.get(),
            graph: self.graph.get(),
            gov: self.gov.get(),
            layout: self.layout.get(),
        }
    }
}

/// Collection context for one instrumented execution. Created by
/// `execute_plan_with_metrics`; plan nodes register themselves in build
/// (pre-)order so the finished node list lines up with `EXPLAIN` output.
#[derive(Debug, Default)]
pub struct MetricsSink {
    nodes: RefCell<Vec<Rc<NodeSlot>>>,
}

impl MetricsSink {
    pub(crate) fn new() -> Self {
        MetricsSink::default()
    }

    pub(crate) fn register(&self, label: String, depth: usize) -> Rc<NodeSlot> {
        let slot = Rc::new(NodeSlot {
            label,
            depth,
            rows: Cell::new(0),
            paths: Cell::new(None),
            next_calls: Cell::new(0),
            time_ns: Cell::new(0),
            graph: Cell::new(None),
            gov: Cell::new(None),
            layout: Cell::new(None),
        });
        self.nodes.borrow_mut().push(slot.clone());
        slot
    }

    pub(crate) fn finish(&self) -> QueryMetrics {
        QueryMetrics {
            nodes: self.nodes.borrow().iter().map(|s| s.snapshot()).collect(),
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
        a.record_batch(1_500, 1);
        a.record_batch(500, 0);
        b.record_batch(1_000, 1);
        b.set_graph(GraphCounters {
            vertices_visited: 3,
            edges_expanded: 5,
            tuple_derefs: 2,
        });
        b.set_gov(GovCounters {
            bytes: 128,
            checks: 4,
        });
        b.set_layout(TopologyLayout::Delta(2));
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
