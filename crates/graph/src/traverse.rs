//! Lazy depth-first and breadth-first simple-path enumeration.
//!
//! These back the paper's `DFScan` and `BFScan` physical operators
//! (EDBT 2018 §5.1.2, §6.3). Both are pull-based: each `next()` call does
//! only as much traversal as needed to surface one more qualifying path,
//! so `LIMIT`-style parents stop the walk early. Both enumerate **simple**
//! paths — no intermediate vertex is revisited and no edge is reused — and
//! respect a length window `[min_len, max_len]` that the optimizer infers
//! from query predicates (§6.1).
//!
//! One deliberate extension of "simple": a path may return to its *start*
//! vertex, closing a simple cycle, and a closed path is never extended
//! further. The paper's sub-graph pattern queries depend on this — Listing
//! 4's triangle count matches paths with `P.Length = 3 AND
//! P.Edges[2].EndVertex = P.Edges[0].StartVertex`, which only exist if the
//! third hop may land back on the start.

use grfusion_common::PathData;

use crate::filter::TraversalFilter;
use crate::search::{snapshot, SearchStats};
use crate::topology::{ix, EdgeSlot, GraphTopology, VertexSlot};

/// Traversal parameters shared by DFS and BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalSpec {
    /// Minimum path length (edges) to emit. 0 emits the seed itself.
    pub min_len: usize,
    /// Maximum path length (edges) to explore. Traversal never expands a
    /// path beyond this, which is the §6.1 early-pruning guarantee.
    pub max_len: usize,
    /// Only cycles back to the start vertex are wanted: on the last hop
    /// (`depth + 1 == max_len`) a target other than the start is skipped
    /// before the edge filter runs, so it costs no tuple dereference.
    pub closing: bool,
}

impl TraversalSpec {
    pub fn new(min_len: usize, max_len: usize) -> Self {
        TraversalSpec {
            min_len,
            max_len,
            closing: false,
        }
    }

    pub fn closing(mut self) -> Self {
        self.closing = true;
        self
    }

    /// Whether a hop from `depth` is the last hop of a closing scan, which
    /// may only land on the start vertex.
    fn closes_at(&self, depth: usize) -> bool {
        self.closing && depth + 1 == self.max_len
    }
}

// Both enumerators split a step in two. `advance()` moves to the next
// qualifying path and does all the traversal work — adjacency walks, filter
// calls, running sums, counters — without allocating; `current()`
// materializes the path `advance()` stopped on. A consumer that only counts
// paths never calls `current()`; `Iterator::next` is the two composed.

/// The running sums a filter bounds ([`TraversalFilter::running_sums`]),
/// `width` per prefix the traversal holds: prefix `i` owns
/// `sums[i * width..][..width]`. Each hop copies its prefix's sums and lets
/// the filter add the hop, so a bound costs one attribute read per hop
/// whatever the path's length. With width 0 nothing is stored or called.
struct RunningSums {
    sums: Vec<f64>,
    width: usize,
}

impl RunningSums {
    /// `prefixes` prefixes, each at its start: every sum 0.
    fn new(width: usize, prefixes: usize) -> Self {
        RunningSums {
            sums: vec![0.0; width * prefixes],
            width,
        }
    }

    /// Hold one prefix, a seed: every sum 0.
    fn seed(&mut self) {
        self.sums.clear();
        self.sums.resize(self.width, 0.0);
    }

    /// Keep the sums of the first `prefixes` prefixes only.
    fn truncate(&mut self, prefixes: usize) {
        self.sums.truncate(prefixes * self.width);
    }

    /// Append a copy of prefix `i`'s sums as the next prefix's, let `step`
    /// add the hop that extends it, and keep the copy only if `step` says
    /// the extended prefix may go on.
    #[inline]
    fn extend(&mut self, i: usize, step: impl FnOnce(&mut [f64]) -> bool) -> bool {
        if self.width == 0 {
            return true;
        }
        let (end, w) = (self.sums.len(), self.width);
        self.sums.extend_from_within(i * w..(i + 1) * w);
        let allowed = step(&mut self.sums[end..]);
        if !allowed {
            self.sums.truncate(end);
        }
        allowed
    }
}

// ---------------------------------------------------------------------------
// Depth-first
// ---------------------------------------------------------------------------

/// Iterative DFS over simple paths from a set of start vertexes.
///
/// The stack holds one cursor per path position (which out-edge to try
/// next), so the memory footprint is `O(path length + Σ on-path degree)` —
/// the `F·L` stack bound from §6.3.
pub struct DfsPaths<'g, F: TraversalFilter> {
    graph: &'g GraphTopology,
    filter: F,
    spec: TraversalSpec,
    seeds: Vec<VertexSlot>,
    next_seed: usize,
    path_vertexes: Vec<VertexSlot>,
    path_edges: Vec<EdgeSlot>,
    cursors: Vec<usize>,
    /// Running sums of the prefix ending at each path position.
    sums: RunningSums,
    /// Vertexes pushed onto the path stack, edges examined.
    stats: SearchStats,
}

impl<'g, F: TraversalFilter> DfsPaths<'g, F> {
    pub fn new(
        graph: &'g GraphTopology,
        seeds: Vec<VertexSlot>,
        spec: TraversalSpec,
        filter: F,
    ) -> Self {
        DfsPaths {
            graph,
            sums: RunningSums::new(filter.running_sums(), 0),
            filter,
            spec,
            seeds,
            next_seed: 0,
            path_vertexes: Vec::new(),
            path_edges: Vec::new(),
            cursors: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// The work done so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The traversal filter (counters live on engine-side filters).
    pub fn filter(&self) -> &F {
        &self.filter
    }

    fn pop(&mut self) {
        self.path_vertexes.pop();
        self.cursors.pop();
        let len = self.path_vertexes.len();
        self.path_edges.truncate(len.saturating_sub(1));
        self.sums.truncate(len);
    }

    /// Length (edges) of the path `advance()` stopped on.
    pub fn depth(&self) -> usize {
        self.path_edges.len()
    }

    /// Materialize the path `advance()` stopped on.
    pub fn current(&self) -> PathData {
        snapshot(self.graph, &self.path_vertexes, &self.path_edges, 0.0)
    }

    /// Move to the next qualifying path; `false` once there is none.
    pub fn advance(&mut self) -> bool {
        loop {
            // Start a new seed when the stack is empty.
            if self.path_vertexes.is_empty() {
                let seed = loop {
                    if self.next_seed >= self.seeds.len() {
                        return false;
                    }
                    let s = self.seeds[self.next_seed];
                    self.next_seed += 1;
                    if self.filter.vertex_allowed(self.graph, s, 0) {
                        break s;
                    }
                };
                self.path_vertexes.push(seed);
                self.cursors.push(0);
                self.sums.seed();
                self.stats.vertices_visited += 1;
                if self.spec.min_len == 0 {
                    return true;
                }
                continue;
            }

            let depth = self.path_edges.len();
            let v = *self.path_vertexes.last().expect("non-empty");

            // A closed path (returned to its start) is never extended.
            let closed = depth > 0 && v == self.path_vertexes[0];
            let mut extended = false;
            if depth < self.spec.max_len && !closed {
                let hops = self.graph.out_hops(v);
                let must_reach = self.spec.closes_at(depth).then_some(self.path_vertexes[0]);
                while let Some(&(e, t)) = hops.get(self.cursors[depth]) {
                    self.cursors[depth] += 1;
                    self.stats.edges_examined += 1;
                    if must_reach.is_some_and(|s| t != s) {
                        continue;
                    }
                    if !self.filter.edge_allowed(self.graph, e, depth) {
                        continue;
                    }
                    // Simple paths: never revisit an intermediate vertex,
                    // never reuse an edge; returning to the start closes a
                    // simple cycle and is allowed.
                    if self.path_vertexes[1..].contains(&t) {
                        continue;
                    }
                    if t == self.path_vertexes[0] && self.path_edges.contains(&e) {
                        continue;
                    }
                    if !self.filter.vertex_allowed(self.graph, t, depth + 1) {
                        continue;
                    }
                    self.stats.vertices_visited += 1;
                    let (filter, graph) = (&self.filter, self.graph);
                    let step = |sums: &mut [f64]| filter.step_sums(graph, sums, depth, v, e, t);
                    if !self.sums.extend(depth, step) {
                        continue;
                    }
                    self.path_edges.push(e);
                    self.path_vertexes.push(t);
                    self.cursors.push(0);
                    if self.path_edges.len() >= self.spec.min_len {
                        return true;
                    }
                    extended = true;
                    break;
                }
            }
            if !extended {
                self.pop();
            }
        }
    }
}

impl<'g, F: TraversalFilter> Iterator for DfsPaths<'g, F> {
    type Item = PathData;

    fn next(&mut self) -> Option<PathData> {
        self.advance().then(|| self.current())
    }
}

// ---------------------------------------------------------------------------
// Breadth-first
// ---------------------------------------------------------------------------

/// One enumerated path in a parent-pointer arena: its last hop plus a
/// pointer to the node of the path it extends, so a path costs 20 bytes
/// however long it is. BFS's queue and the k-shortest frontier
/// ([`crate::KShortestPaths`]) are both such arenas.
#[derive(Clone, Copy)]
pub(crate) struct BfsNode {
    /// Arena index of the prefix this path extends (a seed points at itself).
    parent: u32,
    pub(crate) vertex: VertexSlot,
    /// The edge that reached `vertex` (unused on a seed).
    edge: EdgeSlot,
    /// Edges on the path.
    pub(crate) depth: u32,
    /// The path returned to its start vertex, so it is never extended.
    closed: bool,
}

impl BfsNode {
    /// The zero-length path at `vertex`, stored at arena index `at`.
    pub(crate) fn seed(at: usize, vertex: VertexSlot) -> Self {
        BfsNode {
            parent: arena_index(at),
            vertex,
            edge: 0,
            depth: 0,
            closed: false,
        }
    }

    /// The path stored at arena index `at` extended over `edge` to `vertex`;
    /// `closed` as [`extension`] reported it.
    pub(crate) fn child(
        &self,
        at: usize,
        edge: EdgeSlot,
        vertex: VertexSlot,
        closed: bool,
    ) -> Self {
        BfsNode {
            parent: arena_index(at),
            vertex,
            edge,
            depth: self.depth + 1,
            closed,
        }
    }
}

/// Whether extending the path at `node` over `e` to `t` keeps it simple —
/// no intermediate vertex revisited, no edge reused — and if so, whether it
/// closes a simple cycle by returning to the start.
pub(crate) fn extension(
    arena: &[BfsNode],
    mut node: BfsNode,
    e: EdgeSlot,
    t: VertexSlot,
) -> Option<bool> {
    let mut edge_reused = false;
    while node.depth > 0 {
        if node.vertex == t {
            return None;
        }
        edge_reused |= node.edge == e;
        node = arena[ix(node.parent)];
    }
    let closes = node.vertex == t;
    (!(closes && edge_reused)).then_some(closes)
}

/// The start vertex of the path ending at `node`.
fn seed_of(arena: &[BfsNode], mut node: BfsNode) -> VertexSlot {
    while node.depth > 0 {
        node = arena[ix(node.parent)];
    }
    node.vertex
}

/// The path ending at arena node `at`, in user-visible ids, with `cost`:
/// the parent chain is walked once, filling the id buffer from the back.
pub(crate) fn path_at(graph: &GraphTopology, arena: &[BfsNode], at: usize, cost: f64) -> PathData {
    let mut node = arena[at];
    let len = ix(node.depth);
    let mut ids = vec![0; 2 * len + 1];
    for i in (1..=len).rev() {
        ids[i] = graph.vertex_id(node.vertex);
        ids[len + i] = graph.edge_id(node.edge);
        node = arena[ix(node.parent)];
    }
    ids[0] = graph.vertex_id(node.vertex);
    PathData::from_ids(graph.shared_name(), ids, cost)
}

/// BFS over simple paths from a set of start vertexes.
///
/// Every path enumerated so far is a node in a parent-pointer arena,
/// appended in discovery order — which is FIFO order, so the queue is the
/// arena's unexpanded tail `[head..]`. Its peak length is the `F^L` frontier
/// bound from §6.3 (the reason the optimizer prefers BFS only when the
/// fan-out is small relative to the target length).
pub struct BfsPaths<'g, F: TraversalFilter> {
    graph: &'g GraphTopology,
    filter: F,
    spec: TraversalSpec,
    arena: Vec<BfsNode>,
    /// Running sums of the path at each arena node.
    sums: RunningSums,
    /// Next arena node to expand; the one before it is the node
    /// `advance()` stopped on.
    head: usize,
    /// Vertexes enqueued onto the frontier, edges examined.
    stats: SearchStats,
}

impl<'g, F: TraversalFilter> BfsPaths<'g, F> {
    pub fn new(
        graph: &'g GraphTopology,
        seeds: Vec<VertexSlot>,
        spec: TraversalSpec,
        filter: F,
    ) -> Self {
        let mut arena = Vec::with_capacity(seeds.len());
        for s in seeds {
            if filter.vertex_allowed(graph, s, 0) {
                arena.push(BfsNode::seed(arena.len(), s));
            }
        }
        let sums = RunningSums::new(filter.running_sums(), arena.len());
        let stats = SearchStats {
            vertices_visited: arena.len() as u64, // cast-ok: usize -> u64 widening
            edges_examined: 0,
        };
        BfsPaths {
            graph,
            filter,
            spec,
            sums,
            arena,
            head: 0,
            stats,
        }
    }

    /// The work done so far.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The traversal filter (counters live on engine-side filters).
    pub fn filter(&self) -> &F {
        &self.filter
    }

    /// Length (edges) of the path `advance()` stopped on.
    pub fn depth(&self) -> usize {
        ix(self.arena[self.head - 1].depth)
    }

    /// Materialize the path `advance()` stopped on.
    pub fn current(&self) -> PathData {
        path_at(self.graph, &self.arena, self.head - 1, 0.0)
    }

    /// Move to the next qualifying path; `false` once there is none.
    pub fn advance(&mut self) -> bool {
        while let Some(&node) = self.arena.get(self.head) {
            let at = self.head;
            self.head += 1;
            let depth = ix(node.depth);
            // Expand children first so the emitted path's successors are
            // queued even when we return below. Closed paths (returned to
            // their start) are never extended.
            if depth < self.spec.max_len && !node.closed {
                let must_reach = self
                    .spec
                    .closes_at(depth)
                    .then(|| seed_of(&self.arena, node));
                for &(e, t) in self.graph.out_hops(node.vertex) {
                    self.stats.edges_examined += 1;
                    if must_reach.is_some_and(|s| t != s) {
                        continue;
                    }
                    if !self.filter.edge_allowed(self.graph, e, depth) {
                        continue;
                    }
                    let Some(closed) = extension(&self.arena, node, e, t) else {
                        continue;
                    };
                    if !self.filter.vertex_allowed(self.graph, t, depth + 1) {
                        continue;
                    }
                    let (filter, graph, v) = (&self.filter, self.graph, node.vertex);
                    let step = |sums: &mut [f64]| filter.step_sums(graph, sums, depth, v, e, t);
                    if !self.sums.extend(at, step) {
                        continue;
                    }
                    self.arena.push(node.child(at, e, t, closed));
                    self.stats.vertices_visited += 1;
                }
            }
            if depth >= self.spec.min_len {
                return true;
            }
        }
        false
    }
}

impl<'g, F: TraversalFilter> Iterator for BfsPaths<'g, F> {
    type Item = PathData;

    fn next(&mut self) -> Option<PathData> {
        self.advance().then(|| self.current())
    }
}

/// An arena position as a parent pointer. The arena holds one node per
/// enumerated path; a traversal that outgrows `u32` positions has long
/// since exhausted memory, so overflow is a broken invariant, not an input.
pub(crate) fn arena_index(at: usize) -> u32 {
    u32::try_from(at).expect("BFS arena outgrew u32 parent pointers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{edge_filter, NoFilter};
    use grfusion_common::RowId;

    /// 1 -> 2 -> 4, 1 -> 3 -> 4, 4 -> 5 (directed)
    fn sample() -> GraphTopology {
        let mut g = GraphTopology::new("g", true);
        for v in 1..=5 {
            g.add_vertex(v, RowId(v as u64)).unwrap();
        }
        g.add_edge(10, 1, 2, RowId(0)).unwrap();
        g.add_edge(11, 1, 3, RowId(0)).unwrap();
        g.add_edge(12, 2, 4, RowId(0)).unwrap();
        g.add_edge(13, 3, 4, RowId(0)).unwrap();
        g.add_edge(14, 4, 5, RowId(0)).unwrap();
        g
    }

    fn path_strings<I: Iterator<Item = PathData>>(it: I) -> Vec<String> {
        let mut v: Vec<String> = it.map(|p| p.path_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn dfs_enumerates_all_simple_paths_in_window() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        let paths = path_strings(DfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(1, 3),
            NoFilter,
        ));
        assert_eq!(
            paths,
            vec![
                "1->2", "1->2->4", "1->2->4->5", "1->3", "1->3->4", "1->3->4->5"
            ]
        );
    }

    #[test]
    fn bfs_matches_dfs_path_set() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        let dfs = path_strings(DfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(1, 3),
            NoFilter,
        ));
        let bfs = path_strings(BfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(1, 3),
            NoFilter,
        ));
        assert_eq!(dfs, bfs);
    }

    #[test]
    fn bfs_emits_in_length_order() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        let lens: Vec<usize> = BfsPaths::new(&g, vec![seed], TraversalSpec::new(1, 3), NoFilter)
            .map(|p| p.length())
            .collect();
        let mut sorted = lens.clone();
        sorted.sort();
        assert_eq!(lens, sorted);
    }

    #[test]
    fn min_len_zero_emits_seed() {
        let g = sample();
        let seed = g.vertex_slot(5).unwrap();
        let paths = path_strings(DfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(0, 2),
            NoFilter,
        ));
        assert_eq!(paths, vec!["5"]);
        let paths = path_strings(BfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(0, 2),
            NoFilter,
        ));
        assert_eq!(paths, vec!["5"]);
    }

    #[test]
    fn window_excludes_short_and_long() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        let paths = path_strings(DfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(2, 2),
            NoFilter,
        ));
        assert_eq!(paths, vec!["1->2->4", "1->3->4"]);
    }

    #[test]
    fn multiple_seeds() {
        let g = sample();
        let seeds = vec![g.vertex_slot(2).unwrap(), g.vertex_slot(3).unwrap()];
        let paths = path_strings(BfsPaths::new(
            &g,
            seeds,
            TraversalSpec::new(1, 1),
            NoFilter,
        ));
        assert_eq!(paths, vec!["2->4", "3->4"]);
    }

    #[test]
    fn simple_paths_only_in_cycles() {
        // triangle 1->2->3->1
        let mut g = GraphTopology::new("g", true);
        for v in 1..=3 {
            g.add_vertex(v, RowId(0)).unwrap();
        }
        g.add_edge(10, 1, 2, RowId(0)).unwrap();
        g.add_edge(11, 2, 3, RowId(0)).unwrap();
        g.add_edge(12, 3, 1, RowId(0)).unwrap();
        let seed = g.vertex_slot(1).unwrap();
        // Even with a huge max length, nothing longer than the closing
        // cycle is produced: intermediates are never revisited, and the
        // closed path 1->2->3->1 is not extended.
        let paths = path_strings(DfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(1, 10),
            NoFilter,
        ));
        assert_eq!(paths, vec!["1->2", "1->2->3", "1->2->3->1"]);
        // BFS agrees.
        let paths = path_strings(BfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(1, 10),
            NoFilter,
        ));
        assert_eq!(paths, vec!["1->2", "1->2->3", "1->2->3->1"]);
    }

    #[test]
    fn undirected_edge_not_reused_to_close() {
        // Single undirected edge 1-2: the only length-2 "cycle" would reuse
        // the edge, which is forbidden.
        let mut g = GraphTopology::new("g", false);
        g.add_vertex(1, RowId(0)).unwrap();
        g.add_vertex(2, RowId(0)).unwrap();
        g.add_edge(10, 1, 2, RowId(0)).unwrap();
        let seed = g.vertex_slot(1).unwrap();
        let paths = path_strings(DfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(1, 3),
            NoFilter,
        ));
        assert_eq!(paths, vec!["1->2"]);
        // With a parallel edge, the 2-cycle exists.
        g.add_edge(11, 2, 1, RowId(0)).unwrap();
        let seed = g.vertex_slot(1).unwrap();
        let paths = path_strings(BfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(2, 2),
            NoFilter,
        ));
        assert_eq!(paths, vec!["1->2->1", "1->2->1"]);
    }

    #[test]
    fn closing_keeps_only_cycles_and_skips_the_edge_filter_on_misses() -> grfusion_common::Result<()> {
        // Triangle 1->2->3->1 plus a chord 3->4, all seeds.
        let mut g = GraphTopology::new("g", true);
        for v in 1..=4 {
            g.add_vertex(v, RowId(0))?;
        }
        for (id, a, b) in [(10, 1, 2), (11, 2, 3), (12, 3, 1), (13, 3, 4)] {
            g.add_edge(id, a, b, RowId(0))?;
        }
        let seeds = (1..=4).map(|v| g.vertex_slot(v)).collect::<grfusion_common::Result<Vec<_>>>()?;
        let cycles = vec!["1->2->3->1", "2->3->1->2", "3->1->2->3"];
        let open = path_strings(DfsPaths::new(&g, seeds.clone(), TraversalSpec::new(3, 3), NoFilter));
        let closed: Vec<String> = open
            .into_iter()
            .filter(|p| p.split("->").next() == p.split("->").last())
            .collect();
        assert_eq!(closed, cycles);
        // Count last-hop filter calls: only hops onto the start reach it.
        let calls = std::cell::Cell::new(0usize);
        let f = || {
            edge_filter(|_: &GraphTopology, _, hop| {
                calls.set(calls.get() + usize::from(hop == 2));
                true
            })
        };
        let spec = TraversalSpec::new(3, 3).closing();
        assert_eq!(path_strings(DfsPaths::new(&g, seeds.clone(), spec, f())), cycles);
        assert_eq!(calls.replace(0), 3);
        assert_eq!(path_strings(BfsPaths::new(&g, seeds, spec, f())), cycles);
        assert_eq!(calls.get(), 3);
        Ok(())
    }

    #[test]
    fn undirected_traversal_crosses_both_ways() {
        let mut g = GraphTopology::new("g", false);
        g.add_vertex(1, RowId(0)).unwrap();
        g.add_vertex(2, RowId(0)).unwrap();
        g.add_edge(10, 2, 1, RowId(0)).unwrap(); // declared 2->1
        let seed = g.vertex_slot(1).unwrap();
        let paths = path_strings(BfsPaths::new(
            &g,
            vec![seed],
            TraversalSpec::new(1, 1),
            NoFilter,
        ));
        assert_eq!(paths, vec!["1->2"]);
    }

    #[test]
    fn edge_filter_prunes_during_traversal() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        // Forbid edge 11 (1->3): only the 1->2->4 branch survives.
        let f = edge_filter(|g: &GraphTopology, e, _| g.edge_id(e) != 11);
        let paths = path_strings(DfsPaths::new(&g, vec![seed], TraversalSpec::new(1, 3), f));
        assert_eq!(paths, vec!["1->2", "1->2->4", "1->2->4->5"]);
    }

    #[test]
    fn hop_indexed_edge_filter() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        // Hop 0 must be edge 10; later hops unconstrained.
        let f = edge_filter(|g: &GraphTopology, e, hop| hop != 0 || g.edge_id(e) == 10);
        let paths = path_strings(BfsPaths::new(&g, vec![seed], TraversalSpec::new(1, 2), f));
        assert_eq!(paths, vec!["1->2", "1->2->4"]);
    }

    /// A one-sum filter whose sum is the prefix's length, bounded below 2.
    struct UnderTwoHops;

    impl TraversalFilter for UnderTwoHops {
        fn running_sums(&self) -> usize {
            1
        }
        fn step_sums(
            &self,
            _: &GraphTopology,
            sums: &mut [f64],
            _: usize,
            _: VertexSlot,
            _: EdgeSlot,
            _: VertexSlot,
        ) -> bool {
            sums[0] += 1.0;
            sums[0] < 2.0
        }
    }

    #[test]
    fn prefix_filter_prunes_subtrees() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        // A prefix the running sums reject vanishes with its extensions,
        // and each sibling starts from its own copy of its prefix's sums.
        let spec = TraversalSpec::new(1, 3);
        let dfs = DfsPaths::new(&g, vec![seed], spec, UnderTwoHops);
        assert_eq!(path_strings(dfs), vec!["1->2", "1->3"]);
        let bfs = BfsPaths::new(&g, vec![seed], spec, UnderTwoHops);
        assert_eq!(path_strings(bfs), vec!["1->2", "1->3"]);
    }

    #[test]
    fn lazy_pull_stops_early() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        let mut it = DfsPaths::new(&g, vec![seed], TraversalSpec::new(1, 3), NoFilter);
        let first = it.next().unwrap();
        assert_eq!(first.length(), 1);
        // Only a prefix of the graph has been examined so far.
        assert!(it.stats().edges_examined <= 2);
    }

    #[test]
    fn traversal_metrics_populate() {
        let g = sample();
        let seed = g.vertex_slot(1).unwrap();
        let mut dfs = DfsPaths::new(&g, vec![seed], TraversalSpec::new(1, 3), NoFilter);
        while dfs.next().is_some() {}
        // Seed + one push per emitted path (6 simple paths from vertex 1).
        assert_eq!(dfs.stats().vertices_visited, 7);
        assert!(dfs.stats().edges_examined >= 6);
        let mut bfs = BfsPaths::new(&g, vec![seed], TraversalSpec::new(1, 3), NoFilter);
        while bfs.next().is_some() {}
        assert_eq!(bfs.stats().vertices_visited, 7);
    }

    #[test]
    fn seed_vertex_filter_applies() {
        let g = sample();
        let seeds = vec![g.vertex_slot(1).unwrap(), g.vertex_slot(2).unwrap()];
        let f = crate::filter::FnFilter {
            edge: |_: &GraphTopology, _, _| true,
            vertex: |g: &GraphTopology, v: VertexSlot, pos: usize| {
                pos != 0 || g.vertex_id(v) != 1
            },
        };
        let paths = path_strings(DfsPaths::new(&g, seeds, TraversalSpec::new(1, 1), f));
        assert_eq!(paths, vec!["2->4"]);
    }
}
