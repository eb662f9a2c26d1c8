//! State shared by the searches: the work counters every traversal
//! reports, the cost-ordered heap entry, and, for the two single-pair
//! searches ([`crate::p2p`] and
//! [`crate::dijkstra::shortest_path_with_stats`]), the per-thread dense
//! [`Scratch`] and the parent-edge walk that turns it back into a path.
//!
//! Visited marks and parent edges are dense arrays indexed by vertex slot,
//! stamped with a per-search generation so a probe neither clears nor
//! allocates them. One scratch per thread, so concurrent readers of a
//! shared topology never touch each other's state.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use grfusion_common::PathData;

use crate::topology::{ix, EdgeSlot, GraphTopology, VertexSlot};

/// Work counters of one traversal — the quantities the engine's
/// `EXPLAIN ANALYZE` reports for every path scan. Each search and
/// enumerator keeps one and reports it whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertexes marked (point-to-point BFS), settled (Dijkstra), added to
    /// a path (DFS/BFS enumeration) or popped as a path's tip (k-shortest).
    pub vertices_visited: u64,
    /// Out-edges examined.
    pub edges_examined: u64,
}

/// A heap entry ordered by ascending cost (`BinaryHeap` is a max-heap, so
/// the `Ord` impl is reversed), cost ties broken by the smaller `item`.
/// Both searches make the item's order their push order: Dijkstra pairs
/// each vertex with a push counter, k-shortest pushes arena indexes.
pub(crate) struct ByCost<T> {
    pub(crate) cost: f64,
    pub(crate) item: T,
}

impl<T: Ord> PartialEq for ByCost<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Ord> Eq for ByCost<T> {}
impl<T: Ord> PartialOrd for ByCost<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for ByCost<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: smaller cost = greater priority.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.item.cmp(&self.item))
    }
}

/// Per-thread state of a single-pair search. Everything is indexed by
/// vertex slot and grown lazily to the largest arena this thread has
/// searched; entries are valid only where `marks` holds one of the current
/// search's stamps, so nothing is cleared between probes.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Second stamp of the most recent search (the first is `stamp - 1`).
    /// 0 means "never marked", so stamps start at 1.
    pub(crate) stamp: u32,
    pub(crate) marks: Vec<u32>,
    /// The edge a marked vertex was reached over.
    pub(crate) via: Vec<EdgeSlot>,
    /// BFS: the level being expanded and the one being discovered.
    pub(crate) front: Vec<VertexSlot>,
    pub(crate) next: Vec<VertexSlot>,
    /// Dijkstra: tentative distances (sized on first use) and the frontier
    /// of `(push counter, vertex)` entries.
    pub(crate) dist: Vec<f64>,
    pub(crate) heap: BinaryHeap<ByCost<(u64, VertexSlot)>>,
}

impl Scratch {
    /// Start a search over `span` vertex slots and hand back its two
    /// stamps (BFS uses the first as "seen"; Dijkstra both, as open /
    /// closed). The O(V) clear happens only when the stamp counter wraps.
    pub(crate) fn begin(&mut self, span: usize) -> (u32, u32) {
        if self.marks.len() < span {
            self.marks.resize(span, 0);
            self.via.resize(span, 0);
        }
        if self.stamp >= u32::MAX - 1 {
            self.marks.fill(0);
            self.stamp = 0;
        }
        self.stamp += 2;
        (self.stamp - 1, self.stamp)
    }
}

thread_local! {
    pub(crate) static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` on this thread's scratch. A search started from inside another
/// one's filter or cost callback finds the scratch busy and gets a private
/// one instead of a panic.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut Scratch::default()),
    })
}

/// The path `source ⇝ target` recorded in `via` (each vertex's parent
/// edge), in user-visible ids.
pub(crate) fn path_to(
    graph: &GraphTopology,
    via: &[EdgeSlot],
    source: VertexSlot,
    target: VertexSlot,
    cost: f64,
) -> PathData {
    let mut vertexes = vec![target]; // alloc-ok: path reconstruction runs once, at the target
    let mut edges = Vec::new(); // alloc-ok: path reconstruction runs once, at the target
    let mut cur = target;
    while cur != source {
        let e = via[ix(cur)];
        cur = graph.edge_target(e, cur);
        edges.push(e);
        vertexes.push(cur);
    }
    vertexes.reverse();
    edges.reverse();
    snapshot(graph, &vertexes, &edges, cost)
}

/// A slot-form path in user-visible ids, with its cost.
pub(crate) fn snapshot(
    graph: &GraphTopology,
    vertexes: &[VertexSlot],
    edges: &[EdgeSlot],
    cost: f64,
) -> PathData {
    PathData::new(
        graph.shared_name(),
        vertexes.iter().map(|&s| graph.vertex_id(s)),
        edges.iter().map(|&s| graph.edge_id(s)),
        cost,
    )
}
