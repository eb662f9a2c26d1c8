//! Shortest-path traversal (the `SPScan` physical operator, EDBT 2018 §6.3).
//!
//! Two entry points:
//!
//! * [`shortest_path`] — classic single-pair Dijkstra with a closed set;
//!   the fast path for `LIMIT 1` / plain shortest-path queries. Its
//!   per-vertex state lives in the per-thread search scratch
//!   ([`crate::search`]).
//! * [`KShortestPaths`] — a lazy, pull-based enumerator that yields simple
//!   paths between two vertexes in non-decreasing cost order; each `next()`
//!   does only the work needed for one more path, matching the paper's
//!   "returns the next shortest path as requested (pulled) by the parent
//!   operator" (useful for `TOP k` queries, Listing 6).
//!
//! Edge costs come from a caller-supplied function over edge slots (the
//! engine dereferences the hinted cost attribute through tuple pointers).
//! Costs must be non-negative, as the paper requires for Dijkstra.

use std::collections::BinaryHeap;

use grfusion_common::{Error, PathData, Result};

use crate::filter::TraversalFilter;
use crate::search::{path_to, with_scratch, ByCost, SearchStats};
use crate::topology::{ix, EdgeSlot, GraphTopology, VertexSlot};
use crate::traverse::{arena_index, extension, path_at, BfsNode};

/// Single-pair Dijkstra with a closed set. Returns `None` when `target` is
/// unreachable (under the filter). Errors on negative edge costs.
pub fn shortest_path<F, C>(
    graph: &GraphTopology,
    source: VertexSlot,
    target: VertexSlot,
    cost_fn: C,
    filter: &F,
) -> Result<Option<PathData>>
where
    F: TraversalFilter,
    C: Fn(&GraphTopology, EdgeSlot) -> f64,
{
    shortest_path_with_stats(graph, source, target, cost_fn, filter).map(|(p, _)| p)
}

/// [`shortest_path`] variant that also reports how much of the graph the
/// search touched.
pub fn shortest_path_with_stats<F, C>(
    graph: &GraphTopology,
    source: VertexSlot,
    target: VertexSlot,
    cost_fn: C,
    filter: &F,
) -> Result<(Option<PathData>, SearchStats)>
where
    F: TraversalFilter,
    C: Fn(&GraphTopology, EdgeSlot) -> f64,
{
    let mut stats = SearchStats::default();
    if !filter.vertex_allowed(graph, source, 0) {
        return Ok((None, stats));
    }
    let found = with_scratch(|scratch| {
        let span = graph.vertex_slot_span();
        // A vertex with a tentative distance carries `open`; once settled,
        // `closed` (its distance is never read again).
        let (open, closed) = scratch.begin(span);
        if scratch.dist.len() < span {
            scratch.dist.resize(span, 0.0);
        }
        let (marks, via, dist, heap) = (
            &mut scratch.marks,
            &mut scratch.via,
            &mut scratch.dist,
            &mut scratch.heap,
        );
        heap.clear();
        let mut seq = 0u64;
        marks[ix(source)] = open;
        dist[ix(source)] = 0.0;
        heap.push(ByCost {
            cost: 0.0,
            item: (seq, source),
        });

        while let Some(ByCost { cost, item: (_, v) }) = heap.pop() {
            if marks[ix(v)] == closed {
                continue;
            }
            marks[ix(v)] = closed;
            stats.vertices_visited += 1;
            if v == target {
                return Ok(Some(path_to(graph, via, source, target, cost)));
            }
            // Hop and position arguments for the filter: hop counts are
            // unknown in Dijkstra order, so pass hop 0 / position 1
            // (non-seed) — engine filters that need exact positions use the
            // enumerating scans instead.
            for &(e, t) in graph.out_hops(v) {
                stats.edges_examined += 1;
                if !filter.edge_allowed(graph, e, 0) {
                    continue;
                }
                let w = cost_fn(graph, e);
                if w < 0.0 {
                    return Err(Error::execution(
                        "SPScan requires a non-negative edge cost attribute",
                    ));
                }
                let mark = marks[ix(t)];
                if mark == closed || !filter.vertex_allowed(graph, t, 1) {
                    continue;
                }
                let nd = cost + w;
                if mark != open || nd < dist[ix(t)] {
                    marks[ix(t)] = open;
                    dist[ix(t)] = nd;
                    via[ix(t)] = e;
                    seq += 1;
                    heap.push(ByCost {
                        cost: nd,
                        item: (seq, t),
                    });
                }
            }
        }
        Ok(None)
    })?;
    Ok((found, stats))
}

/// Lazy enumeration of simple paths from `source` to `target` in
/// non-decreasing cost order (best-first search over simple paths).
///
/// Every prefix pushed so far is a node in BFS's parent-pointer arena
/// ([`BfsNode`], 20 bytes however long the path), and the frontier is a
/// heap of `(cost, arena index)`: an expansion copies no path, and the
/// index — the push order — breaks cost ties first-in first-out. Running
/// sums and closing scans are not consulted: the planner keeps their
/// conjuncts in the residual filter above a shortest-path scan.
///
/// Complete and correct for non-negative costs; worst-case exponential like
/// any simple-path enumeration, so callers bound it with `max_len` and/or
/// by pulling only `k` results (the paper's `TOP k` + `LIMIT` usage).
pub struct KShortestPaths<'g, F: TraversalFilter, C>
where
    C: Fn(&GraphTopology, EdgeSlot) -> f64,
{
    graph: &'g GraphTopology,
    target: VertexSlot,
    cost_fn: C,
    filter: F,
    max_len: usize,
    arena: Vec<BfsNode>,
    heap: BinaryHeap<ByCost<u32>>,
    /// Set when a negative cost is observed; surfaced on the next pull.
    error: Option<Error>,
    /// Heap entries processed (path tips considered), out-edges examined.
    stats: SearchStats,
}

impl<'g, F: TraversalFilter, C> KShortestPaths<'g, F, C>
where
    C: Fn(&GraphTopology, EdgeSlot) -> f64,
{
    pub fn new(
        graph: &'g GraphTopology,
        source: VertexSlot,
        target: VertexSlot,
        max_len: usize,
        cost_fn: C,
        filter: F,
    ) -> Self {
        let (mut arena, mut heap) = (Vec::new(), BinaryHeap::new());
        if filter.vertex_allowed(graph, source, 0) {
            arena.push(BfsNode::seed(0, source));
            heap.push(ByCost { cost: 0.0, item: 0 });
        }
        KShortestPaths {
            graph,
            target,
            cost_fn,
            filter,
            max_len,
            arena,
            heap,
            error: None,
            stats: SearchStats::default(),
        }
    }

    /// Error observed during enumeration (negative edge cost).
    pub fn take_error(&mut self) -> Option<Error> {
        self.error.take()
    }

    /// The work done so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The traversal filter, for callers that track filter-side counters.
    pub fn filter(&self) -> &F {
        &self.filter
    }
}

impl<'g, F: TraversalFilter, C> Iterator for KShortestPaths<'g, F, C>
where
    C: Fn(&GraphTopology, EdgeSlot) -> f64,
{
    type Item = PathData;

    fn next(&mut self) -> Option<PathData> {
        if self.error.is_some() {
            return None;
        }
        while let Some(ByCost { cost, item }) = self.heap.pop() {
            let at = ix(item);
            let node = self.arena[at];
            let depth = ix(node.depth);
            self.stats.vertices_visited += 1;
            let at_target = node.vertex == self.target;
            // A non-seed entry ending at the target is a result and is never
            // extended (a simple path cannot end at the target twice). The
            // seed IS extended even when source == target, so cycle queries
            // enumerate the cycles after the trivial zero-length path.
            let expand = depth < self.max_len && (!at_target || depth == 0);
            if !expand && !at_target {
                continue;
            }
            if !expand {
                return Some(path_at(self.graph, &self.arena, at, cost));
            }
            for &(e, t) in self.graph.out_hops(node.vertex) {
                self.stats.edges_examined += 1;
                if !self.filter.edge_allowed(self.graph, e, depth) {
                    continue;
                }
                let w = (self.cost_fn)(self.graph, e);
                if w < 0.0 {
                    self.error = Some(Error::execution(
                        "SPScan requires a non-negative edge cost attribute",
                    ));
                    return None;
                }
                // Simple paths: no intermediate revisit, no edge reuse. A
                // return to the start is only useful (and only allowed)
                // when the query asks for cycles (target == source).
                let closes = match extension(&self.arena, node, e, t) {
                    Some(closes) if !closes || t == self.target => closes,
                    _ => continue,
                };
                if !self.filter.vertex_allowed(self.graph, t, depth + 1) {
                    continue;
                }
                let child = arena_index(self.arena.len());
                self.arena.push(node.child(at, e, t, closes));
                self.heap.push(ByCost {
                    cost: cost + w,
                    item: child,
                });
            }
            if at_target {
                // The seed of a source == target query: emit the trivial
                // zero-length path after queueing its extensions.
                return Some(path_at(self.graph, &self.arena, at, cost));
            }
        }
        None
    }
}

/// Reference Bellman-Ford single-source shortest distances — the test
/// oracle for Dijkstra correctness (used by unit and property tests; not
/// part of the query engine).
pub fn reference_distances<C>(
    graph: &GraphTopology,
    source: VertexSlot,
    cost_fn: C,
) -> std::collections::HashMap<VertexSlot, f64>
where
    C: Fn(&GraphTopology, EdgeSlot) -> f64,
{
    let mut dist = std::collections::HashMap::new();
    dist.insert(source, 0.0);
    let n = graph.vertex_count();
    for _ in 0..n {
        let mut changed = false;
        for v in graph.vertex_slots() {
            let Some(&dv) = dist.get(&v) else { continue };
            for &(e, _) in graph.out_hops(v) {
                let t = graph.edge_target(e, v);
                let nd = dv + cost_fn(graph, e);
                if dist.get(&t).is_none_or(|&d| nd < d - 1e-12) {
                    dist.insert(t, nd);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{edge_filter, NoFilter};
    use grfusion_common::RowId;

    /// Weighted diamond: 1->2 (1), 2->4 (1), 1->3 (1), 3->4 (5), 1->4 (10)
    fn weighted() -> (GraphTopology, impl Fn(&GraphTopology, EdgeSlot) -> f64) {
        let mut g = GraphTopology::new("g", true);
        for v in 1..=4 {
            g.add_vertex(v, RowId(0)).unwrap();
        }
        g.add_edge(10, 1, 2, RowId(0)).unwrap();
        g.add_edge(11, 2, 4, RowId(0)).unwrap();
        g.add_edge(12, 1, 3, RowId(0)).unwrap();
        g.add_edge(13, 3, 4, RowId(0)).unwrap();
        g.add_edge(14, 1, 4, RowId(0)).unwrap();
        let cost = |g: &GraphTopology, e: EdgeSlot| match g.edge_id(e) {
            10..=12 => 1.0,
            13 => 5.0,
            14 => 10.0,
            _ => unreachable!(),
        };
        (g, cost)
    }

    #[test]
    fn dijkstra_finds_cheapest_path() {
        let (g, cost) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let t = g.vertex_slot(4).unwrap();
        let p = shortest_path(&g, s, t, cost, &NoFilter).unwrap().unwrap();
        assert_eq!(p.path_string(), "1->2->4");
        assert!((p.cost - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let (g, cost) = weighted();
        let s = g.vertex_slot(4).unwrap();
        let t = g.vertex_slot(1).unwrap();
        assert!(shortest_path(&g, s, t, cost, &NoFilter).unwrap().is_none());
    }

    #[test]
    fn dijkstra_respects_edge_filter() {
        let (g, cost) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let t = g.vertex_slot(4).unwrap();
        // Exclude the cheap 2->4 edge: forces 1->3->4 (6) over 1->4 (10).
        let f = edge_filter(|g: &GraphTopology, e, _| g.edge_id(e) != 11);
        let p = shortest_path(&g, s, t, cost, &f).unwrap().unwrap();
        assert_eq!(p.path_string(), "1->3->4");
        assert!((p.cost - 6.0).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_rejects_negative_costs() {
        let (g, _) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let t = g.vertex_slot(4).unwrap();
        let r = shortest_path(&g, s, t, |_, _| -1.0, &NoFilter);
        assert!(r.is_err());
    }

    #[test]
    fn dijkstra_source_equals_target() {
        let (g, cost) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let p = shortest_path(&g, s, s, cost, &NoFilter).unwrap().unwrap();
        assert_eq!(p.length(), 0);
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn k_shortest_yields_nondecreasing_costs() {
        let (g, cost) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let t = g.vertex_slot(4).unwrap();
        let paths: Vec<PathData> = KShortestPaths::new(&g, s, t, 10, cost, NoFilter).collect();
        let strings: Vec<String> = paths.iter().map(|p| p.path_string()).collect();
        assert_eq!(strings, vec!["1->2->4", "1->3->4", "1->4"]);
        let costs: Vec<f64> = paths.iter().map(|p| p.cost).collect();
        assert_eq!(costs, vec![2.0, 6.0, 10.0]);
    }

    #[test]
    fn k_shortest_is_lazy() {
        let (g, cost) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let t = g.vertex_slot(4).unwrap();
        let mut it = KShortestPaths::new(&g, s, t, 10, cost, NoFilter);
        assert_eq!(it.next().unwrap().path_string(), "1->2->4");
        // pull just one more
        assert_eq!(it.next().unwrap().path_string(), "1->3->4");
    }

    #[test]
    fn k_shortest_breaks_cost_ties_in_push_order() -> Result<()> {
        // Every edge costs 1: the two 2-hop paths tie, and the one whose
        // prefix was pushed first (hop order out of vertex 1) comes first.
        let (g, _) = weighted();
        let (s, t) = (g.vertex_slot(1)?, g.vertex_slot(4)?);
        let paths: Vec<String> = KShortestPaths::new(&g, s, t, 10, |_, _| 1.0, NoFilter)
            .map(|p| p.path_string())
            .collect();
        assert_eq!(paths, vec!["1->4", "1->2->4", "1->3->4"]);
        Ok(())
    }

    #[test]
    fn k_shortest_max_len_caps_exploration() {
        let (g, cost) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let t = g.vertex_slot(4).unwrap();
        let paths: Vec<String> = KShortestPaths::new(&g, s, t, 1, cost, NoFilter)
            .map(|p| p.path_string())
            .collect();
        assert_eq!(paths, vec!["1->4"]);
    }

    #[test]
    fn k_shortest_negative_cost_sets_error() {
        let (g, _) = weighted();
        let s = g.vertex_slot(1).unwrap();
        let t = g.vertex_slot(4).unwrap();
        let mut it = KShortestPaths::new(&g, s, t, 10, |_, _| -1.0, NoFilter);
        assert!(it.next().is_none());
        assert!(it.take_error().is_some());
    }

    #[test]
    fn dijkstra_agrees_with_bellman_ford_on_grid() {
        // 4x4 grid, undirected, unit-ish costs derived from edge ids.
        let mut g = GraphTopology::new("g", false);
        let n = 4i64;
        for v in 0..n * n {
            g.add_vertex(v, RowId(0)).unwrap();
        }
        let mut eid = 0;
        for r in 0..n {
            for c in 0..n {
                let v = r * n + c;
                if c + 1 < n {
                    g.add_edge(eid, v, v + 1, RowId(0)).unwrap();
                    eid += 1;
                }
                if r + 1 < n {
                    g.add_edge(eid, v, v + n, RowId(0)).unwrap();
                    eid += 1;
                }
            }
        }
        let cost = |g: &GraphTopology, e: EdgeSlot| 1.0 + (g.edge_id(e) % 7) as f64;
        let s = g.vertex_slot(0).unwrap();
        let reference = reference_distances(&g, s, cost);
        for v in 0..n * n {
            let t = g.vertex_slot(v).unwrap();
            let got = shortest_path(&g, s, t, cost, &NoFilter).unwrap();
            let want = reference.get(&t).copied();
            match (got, want) {
                (Some(p), Some(d)) => assert!((p.cost - d).abs() < 1e-9, "vertex {v}"),
                (None, None) => {}
                (g, w) => panic!("mismatch at {v}: {g:?} vs {w:?}"),
            }
        }
    }
}
