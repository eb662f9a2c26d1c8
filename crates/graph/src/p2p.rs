//! Point-to-point search: the kernel behind the planner-proven
//! reachability fast path, and the per-thread scratch it shares with
//! single-pair Dijkstra ([`crate::dijkstra::shortest_path_with_stats`]).
//!
//! [`hop_minimal_path`] is a level-synchronous bidirectional BFS. Each round
//! it expands one whole level of whichever side has the cheaper frontier —
//! the sum of out-degrees forwards, of in-degrees backwards — so a graph
//! that fans out forwards and is heavy-tailed backwards (or the reverse) is
//! searched from the side that stays narrow; a fixed alternation would pay
//! for the wide side half the time. It stops when the two depths can no
//! longer fit `max_len`, or when a frontier dies out. The first vertex one
//! side discovers that the other has already marked closes a hop-minimal
//! path: levels are expanded whole, so before the round no path of length
//! `d_fwd + d_bwd` existed, and the meeting has exactly `d_fwd + d_bwd + 1`
//! hops. Hop order is the same in every topology layout, so which of several
//! equal-length paths comes back is deterministic and layout-independent.
//!
//! The backward side is only sound when the filter's answers do not depend
//! on the hop position (the engine's uniform `[0..*]` predicates): a
//! backward expansion does not know how far from the source it is. Callers
//! say so with `uniform_filter`; when it is false the *same* loop runs with
//! the backward side never chosen, which is the classic forward
//! visited-set BFS.
//!
//! Visited marks and parent edges live in a [`Scratch`]: dense arrays
//! indexed by vertex slot, stamped with a per-search generation so a probe
//! neither clears nor allocates them. One scratch per thread, so concurrent
//! readers of a shared topology never touch each other's state.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

use grfusion_common::PathData;

use crate::dijkstra::snapshot;
use crate::filter::TraversalFilter;
use crate::topology::{ix, EdgeSlot, GraphTopology, VertexSlot};

/// Work counters of one single-pair search — the quantities the engine's
/// `EXPLAIN ANALYZE` reports for the reachability and shortest-path fast
/// paths. For the bidirectional BFS both directions are counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertexes marked (BFS) or settled (Dijkstra).
    pub vertices_visited: u64,
    /// Edges offered to the filter.
    pub edges_examined: u64,
}

/// A Dijkstra frontier entry ordered by ascending cost (`BinaryHeap` is a
/// max-heap, so the `Ord` impl is reversed). `seq` breaks cost ties in push
/// order.
pub(crate) struct Tip {
    pub(crate) cost: f64,
    pub(crate) seq: u64,
    pub(crate) vertex: VertexSlot,
}

impl PartialEq for Tip {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Tip {}
impl PartialOrd for Tip {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Tip {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-thread state of a single-pair search. Everything is indexed by
/// vertex slot and grown lazily to the largest arena this thread has
/// searched; entries are valid only where `marks` holds one of the current
/// search's two stamps, so nothing is cleared between probes.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Second stamp of the most recent search (the first is `stamp - 1`).
    /// 0 means "never marked", so stamps start at 1.
    stamp: u32,
    pub(crate) marks: Vec<u32>,
    /// The edge a marked vertex was reached over (towards the source on the
    /// forward side, towards the target on the backward side).
    pub(crate) via: Vec<EdgeSlot>,
    /// Tentative distances (Dijkstra only; sized on its first use).
    pub(crate) dist: Vec<f64>,
    pub(crate) heap: BinaryHeap<Tip>,
    front_fwd: Vec<VertexSlot>,
    front_bwd: Vec<VertexSlot>,
    next: Vec<VertexSlot>,
}

impl Scratch {
    /// Start a search over `span` vertex slots and hand back its two
    /// stamps (BFS: forward / backward side; Dijkstra: open / closed).
    /// The O(V) clear happens only when the stamp counter wraps.
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
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
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

/// Walk `via` edges from `from` until `root`, pushing each edge and the
/// vertex behind it.
pub(crate) fn walk(
    graph: &GraphTopology,
    via: &[EdgeSlot],
    from: VertexSlot,
    root: VertexSlot,
    vertexes: &mut Vec<VertexSlot>,
    edges: &mut Vec<EdgeSlot>,
) {
    let mut cur = from;
    while cur != root {
        let e = via[ix(cur)];
        cur = graph.edge_target(e, cur);
        edges.push(e);
        vertexes.push(cur);
    }
}

/// The hop-minimal path from `source` to `target` of at most `max_len`
/// hops whose every vertex and edge passes `filter`, or `None`; plus the
/// work the search did.
///
/// `uniform_filter` promises that `filter` ignores its hop / position
/// argument; only then may the backward side run (see the module docs).
/// Without it the filter sees exact positions, as in a forward BFS. The
/// filter's `prefix_allowed` hook is not consulted: a visited-set search
/// keeps one path per vertex, so prefix-dependent pruning would be unsound.
pub fn hop_minimal_path<F: TraversalFilter>(
    graph: &GraphTopology,
    source: VertexSlot,
    target: VertexSlot,
    max_len: usize,
    filter: &F,
    uniform_filter: bool,
) -> (Option<PathData>, SearchStats) {
    let mut stats = SearchStats::default();
    if !filter.vertex_allowed(graph, source, 0) {
        return (None, stats);
    }
    stats.vertices_visited += 1;
    if source == target {
        let seed = PathData::seed(graph.name(), graph.vertex_id(source));
        return (Some(seed), stats);
    }
    // A backward expansion walks away from the target before any forward
    // step has vetted it, so vet it up front. Forward-only, its position is
    // not known yet; the discovering step checks it there.
    if uniform_filter && !filter.vertex_allowed(graph, target, 0) {
        return (None, stats);
    }
    stats.vertices_visited += 1;
    let found = with_scratch(|scratch| {
        let view = graph.view();
        let (fwd, bwd) = scratch.begin(graph.vertex_slot_span());
        let Scratch {
            marks,
            via,
            front_fwd,
            front_bwd,
            next,
            ..
        } = scratch;
        marks[ix(source)] = fwd;
        marks[ix(target)] = bwd;
        front_fwd.clear();
        front_fwd.push(source);
        front_bwd.clear();
        front_bwd.push(target);
        // Edges the next expansion of each side would examine.
        let (mut work_fwd, mut work_bwd) = (view.out_len(source), view.in_len(target));
        let (mut depth_fwd, mut depth_bwd) = (0usize, 0usize);

        // Any path still to be found has more than depth_fwd + depth_bwd hops.
        while depth_fwd + depth_bwd < max_len && !front_fwd.is_empty() && !front_bwd.is_empty() {
            let forward = !uniform_filter || work_fwd <= work_bwd;
            let (front, depth, own, other) = if forward {
                (&mut *front_fwd, depth_fwd, fwd, bwd)
            } else {
                (&mut *front_bwd, depth_bwd, bwd, fwd)
            };
            next.clear();
            let mut next_work = 0usize;
            for &v in front.iter() {
                let hops = if forward {
                    view.out_hops(v)
                } else {
                    view.in_hops(v)
                };
                for (e, w) in hops {
                    stats.edges_examined += 1;
                    if !filter.edge_allowed(graph, e, depth) {
                        continue;
                    }
                    let mark = marks[ix(w)];
                    if mark == own || !filter.vertex_allowed(graph, w, depth + 1) {
                        continue;
                    }
                    if mark == other {
                        let (near_source, near_target) = if forward { (v, w) } else { (w, v) };
                        return Some(join(
                            graph,
                            via,
                            source,
                            near_source,
                            e,
                            near_target,
                            target,
                        ));
                    }
                    marks[ix(w)] = own;
                    via[ix(w)] = e;
                    stats.vertices_visited += 1;
                    next_work += if forward {
                        view.out_len(w)
                    } else {
                        view.in_len(w)
                    };
                    next.push(w);
                }
            }
            std::mem::swap(front, next);
            if forward {
                (work_fwd, depth_fwd) = (next_work, depth_fwd + 1);
            } else {
                (work_bwd, depth_bwd) = (next_work, depth_bwd + 1);
            }
        }
        None
    });
    (found, stats)
}

/// Stitch `source ⇝ a —e→ b ⇝ target` together from the two sides' parent
/// edges.
fn join(
    graph: &GraphTopology,
    via: &[EdgeSlot],
    source: VertexSlot,
    a: VertexSlot,
    e: EdgeSlot,
    b: VertexSlot,
    target: VertexSlot,
) -> PathData {
    let mut vertexes = vec![a]; // alloc-ok: path reconstruction runs once, at the meeting
    let mut edges = Vec::new(); // alloc-ok: path reconstruction runs once, at the meeting
    walk(graph, via, a, source, &mut vertexes, &mut edges);
    vertexes.reverse();
    edges.reverse();
    edges.push(e);
    vertexes.push(b);
    walk(graph, via, b, target, &mut vertexes, &mut edges);
    snapshot(graph, &vertexes, &edges, 0.0)
}

#[cfg(test)]
mod tests;
