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
use crate::search::{path_to, snapshot, with_scratch, ByCost, SearchStats};
use crate::topology::{ix, EdgeSlot, GraphTopology, TopologyView, VertexSlot};

/// A partial simple path on the [`KShortestPaths`] frontier.
struct Prefix {
    vertexes: Vec<VertexSlot>,
    edges: Vec<EdgeSlot>,
}

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
        let view = graph.view();
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
            seq,
            item: source,
        });

        while let Some(ByCost { cost, item: v, .. }) = heap.pop() {
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
            for (e, t) in view.out_hops(v) {
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
                        seq,
                        item: t,
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
/// Complete and correct for non-negative costs; worst-case exponential like
/// any simple-path enumeration, so callers bound it with `max_len` and/or
/// by pulling only `k` results (the paper's `TOP k` + `LIMIT` usage).
pub struct KShortestPaths<'g, F: TraversalFilter, C>
where
    C: Fn(&GraphTopology, EdgeSlot) -> f64,
{
    graph: &'g GraphTopology,
    /// Unified adjacency accessor (sealed CSR or delta overlay).
    view: TopologyView<'g>,
    target: VertexSlot,
    cost_fn: C,
    filter: F,
    max_len: usize,
    heap: BinaryHeap<ByCost<Prefix>>,
    seq: u64,
    /// Set when a negative cost is observed; surfaced on the next pull.
    error: Option<Error>,
    vertices_visited: u64,
    edges_examined: u64,
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
        let mut heap = BinaryHeap::new();
        if filter.vertex_allowed(graph, source, 0) {
            heap.push(ByCost {
                cost: 0.0,
                seq: 0,
                item: Prefix {
                    vertexes: vec![source],
                    edges: Vec::new(),
                },
            });
        }
        KShortestPaths {
            graph,
            view: graph.view(),
            target,
            cost_fn,
            filter,
            max_len,
            heap,
            seq: 0,
            error: None,
            vertices_visited: 0,
            edges_examined: 0,
        }
    }

    /// Error observed during enumeration (negative edge cost).
    pub fn take_error(&mut self) -> Option<Error> {
        self.error.take()
    }

    /// Heap entries processed (path tips considered) so far.
    pub fn vertices_visited(&self) -> u64 {
        self.vertices_visited
    }

    /// Out-edges examined during expansion so far.
    pub fn edges_examined(&self) -> u64 {
        self.edges_examined
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
        while let Some(ByCost { cost, item: entry, .. }) = self.heap.pop() {
            let v = *entry.vertexes.last().expect("non-empty");
            self.vertices_visited += 1;
            let at_target = v == self.target;
            let is_seed = entry.edges.is_empty();
            // A non-seed entry ending at the target is a result and is never
            // extended (a simple path cannot end at the target twice). The
            // seed IS extended even when source == target, so cycle queries
            // enumerate the cycles after the trivial zero-length path.
            let expand = entry.edges.len() < self.max_len && (!at_target || is_seed);
            if !expand && !at_target {
                continue;
            }
            if !expand {
                return Some(snapshot(self.graph, &entry.vertexes, &entry.edges, cost));
            }
            for (e, t) in self.view.out_hops(v) {
                self.edges_examined += 1;
                if !self.filter.edge_allowed(self.graph, e, entry.edges.len()) {
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
                if entry.vertexes[1..].contains(&t) {
                    continue;
                }
                if t == entry.vertexes[0]
                    && (t != self.target || entry.edges.contains(&e))
                {
                    continue;
                }
                if !self.filter.vertex_allowed(self.graph, t, entry.vertexes.len()) {
                    continue;
                }
                let mut vs = entry.vertexes.clone(); // alloc-ok: path enumeration forks the prefix per expansion
                vs.push(t);
                let mut es = entry.edges.clone(); // alloc-ok: path enumeration forks the prefix per expansion
                es.push(e);
                self.seq += 1;
                self.heap.push(ByCost {
                    cost: cost + w,
                    seq: self.seq,
                    item: Prefix {
                        vertexes: vs,
                        edges: es,
                    },
                });
            }
            if at_target {
                // The seed of a source == target query: emit the trivial
                // zero-length path after queueing its extensions.
                return Some(snapshot(self.graph, &entry.vertexes, &entry.edges, cost));
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
            for &e in graph.out_edges(v) {
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
