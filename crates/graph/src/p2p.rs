//! Point-to-point reachability: the kernel behind the planner-proven
//! reachability fast path.
//!
//! [`hop_minimal_path`] is a level-synchronous forward BFS from the source
//! that stops at the first edge reaching the target. Levels are expanded
//! whole and in hop order, and hop order is the same in every topology
//! layout, so which of several equal-length paths comes back is
//! deterministic and layout-independent. Visited marks and parent edges
//! live in the per-thread dense scratch ([`crate::search`]): a probe
//! neither hashes, clears nor allocates per vertex.

use grfusion_common::PathData;

use crate::filter::TraversalFilter;
use crate::search::{path_to, with_scratch, SearchStats};
use crate::topology::{ix, GraphTopology, VertexSlot};

/// The hop-minimal path from `source` to `target` of at most `max_len`
/// hops whose every vertex and edge passes `filter` (which sees exact hop
/// positions), or `None`; plus the work the search did.
///
/// The filter's running sums are not kept: a visited-set search keeps one
/// path per vertex, so prefix-dependent pruning would be unsound.
pub fn hop_minimal_path<F: TraversalFilter>(
    graph: &GraphTopology,
    source: VertexSlot,
    target: VertexSlot,
    max_len: usize,
    filter: &F,
) -> (Option<PathData>, SearchStats) {
    let mut stats = SearchStats::default();
    if !filter.vertex_allowed(graph, source, 0) {
        return (None, stats);
    }
    stats.vertices_visited += 1;
    if source == target {
        let seed = PathData::seed(graph.shared_name(), graph.vertex_id(source));
        return (Some(seed), stats);
    }
    let found = with_scratch(|scratch| {
        let (seen, _) = scratch.begin(graph.vertex_slot_span());
        let (marks, via, front, next) = (
            &mut scratch.marks,
            &mut scratch.via,
            &mut scratch.front,
            &mut scratch.next,
        );
        marks[ix(source)] = seen;
        front.clear();
        front.push(source);
        for depth in 0..max_len {
            if front.is_empty() {
                break;
            }
            next.clear();
            for &v in front.iter() {
                for &(e, w) in graph.out_hops(v) {
                    stats.edges_examined += 1;
                    if !filter.edge_allowed(graph, e, depth) {
                        continue;
                    }
                    if marks[ix(w)] == seen || !filter.vertex_allowed(graph, w, depth + 1) {
                        continue;
                    }
                    marks[ix(w)] = seen;
                    via[ix(w)] = e;
                    stats.vertices_visited += 1;
                    if w == target {
                        return Some(path_to(graph, via, source, target, 0.0));
                    }
                    next.push(w);
                }
            }
            std::mem::swap(front, next);
        }
        None
    });
    (found, stats)
}

#[cfg(test)]
mod tests;
