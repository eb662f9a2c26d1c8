//! Kernel equivalence: the dense-scratch search against the hash-map
//! visited-set BFS it replaced (kept here as the reference), on seeded
//! random graphs in every layout, plus scratch-reuse cases. Tests return
//! `Result` so they add no panic sites to the census.

use std::collections::{HashMap, VecDeque};

use grfusion_common::{PathData, Result, RowId};

use super::*;
use crate::dijkstra::{reference_distances, shortest_path};
use crate::filter::NoFilter;
use crate::search::SCRATCH;
use crate::topology::{EdgeSlot, TopologyLayout};

/// The search the engine ran before this kernel existed: forward BFS from
/// `seed`, one parent per vertex in a hash map, exact positions handed to
/// the filter.
fn reference_bfs<F: TraversalFilter>(
    topo: &GraphTopology,
    seed: VertexSlot,
    target: VertexSlot,
    max_len: usize,
    filter: &F,
) -> Option<PathData> {
    if !filter.vertex_allowed(topo, seed, 0) {
        return None;
    }
    if seed == target {
        return Some(PathData::seed(topo.name(), topo.vertex_id(seed)));
    }
    let mut parents: HashMap<VertexSlot, (VertexSlot, EdgeSlot)> = HashMap::new();
    let mut queue = VecDeque::new();
    queue.push_back((seed, 0usize));
    while let Some((v, depth)) = queue.pop_front() {
        if depth >= max_len {
            continue;
        }
        for &(e, t) in topo.out_hops(v) {
            if !filter.edge_allowed(topo, e, depth) {
                continue;
            }
            if t == seed || parents.contains_key(&t) {
                continue;
            }
            if !filter.vertex_allowed(topo, t, depth + 1) {
                continue;
            }
            parents.insert(t, (v, e));
            if t == target {
                let mut vs = vec![target];
                let mut es = Vec::new();
                let mut cur = target;
                while cur != seed {
                    let &(p, e) = parents.get(&cur)?;
                    vs.push(p);
                    es.push(e);
                    cur = p;
                }
                vs.reverse();
                es.reverse();
                return Some(PathData::new(
                    topo.shared_name(),
                    vs.iter().map(|&s| topo.vertex_id(s)),
                    es.iter().map(|&s| topo.edge_id(s)),
                    0.0,
                ));
            }
            queue.push_back((t, depth + 1));
        }
    }
    None
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform-ish draw from `0..n` (`n > 0`).
    fn below(&mut self, n: i64) -> i64 {
        i64::try_from(self.next() % n.unsigned_abs().max(1)).unwrap_or(0)
    }
}

/// A filter that ignores positions: edges whose id is a multiple
/// of `edge_mod` and vertexes whose id is 3 modulo `vertex_mod` are
/// forbidden; a modulus of 0 forbids nothing.
#[derive(Clone, Copy)]
struct Modular {
    edge_mod: i64,
    vertex_mod: i64,
}

impl TraversalFilter for Modular {
    fn edge_allowed(&self, g: &GraphTopology, e: EdgeSlot, _hop: usize) -> bool {
        self.edge_mod == 0 || g.edge_id(e) % self.edge_mod != 0
    }
    fn vertex_allowed(&self, g: &GraphTopology, v: VertexSlot, _position: usize) -> bool {
        self.vertex_mod == 0 || g.vertex_id(v) % self.vertex_mod != 3
    }
}

/// A filter whose answer depends on the hop.
struct Positional;

impl TraversalFilter for Positional {
    fn edge_allowed(&self, g: &GraphTopology, e: EdgeSlot, hop: usize) -> bool {
        let at = u64::try_from(hop).unwrap_or(u64::MAX);
        !g.edge_id(e)
            .unsigned_abs()
            .wrapping_add(at)
            .is_multiple_of(3)
    }
}

const EDGE_ID_BASE: i64 = 1000;

/// `n` vertexes with ids `0..n` and `m` random edges (parallel edges and
/// self-loops included) with ids from [`EDGE_ID_BASE`].
fn random_graph(rng: &mut Rng, n: i64, m: i64, directed: bool) -> Result<GraphTopology> {
    let mut g = GraphTopology::new("g", directed);
    for v in 0..n {
        g.add_vertex(v, RowId(v.unsigned_abs()))?;
    }
    for i in 0..m {
        g.add_edge(EDGE_ID_BASE + i, rng.below(n), rng.below(n), RowId(0))?;
    }
    Ok(g)
}

/// Post-load maintenance that leaves a sealed topology in the delta
/// layout: deletes, relinks (same id, new endpoints) and a new vertex with
/// edges both ways. Deterministic in `seed`, so twins stay twins.
fn churn(g: &mut GraphTopology, seed: u64, n: i64, m: i64) -> Result<()> {
    let mut rng = Rng::new(seed ^ 0xC0FFEE);
    for i in 0..m {
        let id = EDGE_ID_BASE + i;
        match rng.below(5) {
            0 => {
                g.remove_edge(id)?;
            }
            1 => {
                let tuple = g.remove_edge(id)?;
                g.add_edge(id, rng.below(n), rng.below(n), tuple)?;
            }
            _ => {}
        }
    }
    g.add_vertex(n, RowId(n.unsigned_abs()))?;
    for k in 0..3 {
        g.add_edge(EDGE_ID_BASE + m + 2 * k, rng.below(n), n, RowId(0))?;
        g.add_edge(EDGE_ID_BASE + m + 2 * k + 1, n, rng.below(n), RowId(0))?;
    }
    Ok(())
}

/// `p` runs `s ⇝ t`, hop by hop over real edges in their direction, visits
/// no vertex twice, passes `f` everywhere and fits `max_len`.
fn check_path(
    g: &GraphTopology,
    p: &PathData,
    (s, t): (VertexSlot, VertexSlot),
    max_len: usize,
    f: &Modular,
) -> Result<()> {
    assert_eq!(p.vertexes().len(), p.edges().len() + 1);
    assert!(p.length() <= max_len, "{} hops > {max_len}", p.length());
    assert_eq!(p.vertexes().first(), Some(&g.vertex_id(s)));
    assert_eq!(p.vertexes().last(), Some(&g.vertex_id(t)));
    let mut seen = p.vertexes().to_vec();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(
        seen.len(),
        p.vertexes().len(),
        "path revisits a vertex: {p:?}"
    );
    for (i, &v) in p.vertexes().iter().enumerate() {
        assert!(
            f.vertex_allowed(g, g.vertex_slot(v)?, i),
            "vertex {v} is filtered"
        );
    }
    for (i, &eid) in p.edges().iter().enumerate() {
        let e = g.edge_slot(eid)?;
        assert!(f.edge_allowed(g, e, i), "edge {eid} is filtered");
        let (from, to) = g.edge_endpoints(e);
        let hop = (
            g.vertex_slot(p.vertexes()[i])?,
            g.vertex_slot(p.vertexes()[i + 1])?,
        );
        assert!(
            hop == (from, to) || (!g.directed() && hop == (to, from)),
            "edge {eid} does not join hop {i} of {p:?}"
        );
    }
    Ok(())
}

#[test]
fn matches_reference_on_seeded_random_graphs_in_every_layout() -> Result<()> {
    let filters = [
        Modular {
            edge_mod: 0,
            vertex_mod: 0,
        },
        Modular {
            edge_mod: 5,
            vertex_mod: 7,
        },
    ];
    for seed in 0..60u64 {
        let mut rng = Rng::new(seed);
        let n = 2 + rng.below(12);
        let m = rng.below(3 * n + 1);
        let directed = seed % 2 == 0;
        let mut plain = random_graph(&mut rng, n, m, directed)?;
        let mut delta = plain.clone();
        delta.seal();
        churn(&mut plain, seed, n, m)?;
        churn(&mut delta, seed, n, m)?;
        let mut csr = delta.clone();
        csr.seal();
        assert_eq!(plain.layout(), TopologyLayout::Adjacency);
        assert!(matches!(delta.layout(), TopologyLayout::Delta(_)));
        assert_eq!(csr.layout(), TopologyLayout::Csr);
        assert_eq!(plain.topology_dump(), csr.topology_dump());

        let slots: Vec<VertexSlot> = plain.vertex_slots().collect();
        for f in &filters {
            for &s in &slots {
                for &t in &slots {
                    let exact = reference_bfs(&plain, s, t, usize::MAX, f).map(|p| p.length());
                    let bounds = match exact {
                        Some(d) => vec![0, 1, d.saturating_sub(1), d],
                        None => vec![0, 1, slots.len()],
                    };
                    for max_len in bounds {
                        let want = reference_bfs(&plain, s, t, max_len, f);
                        let (got, _) = hop_minimal_path(&plain, s, t, max_len, f);
                        let ctx = format!("seed {seed} {s}->{t} max_len {max_len}");
                        // Same expansion order as the reference: path for path.
                        assert_eq!(got, want, "{ctx}");
                        if let Some(p) = &got {
                            check_path(&plain, p, (s, t), max_len, f)?;
                        }
                        // Same hop order in every layout, so the very same path.
                        for g in [&delta, &csr] {
                            assert_eq!(hop_minimal_path(g, s, t, max_len, f).0, got, "{ctx}");
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

#[test]
fn positional_filters_see_exact_hops_and_match_the_reference() -> Result<()> {
    for seed in 100..130u64 {
        let mut rng = Rng::new(seed);
        let n = 3 + rng.below(8);
        let mut g = random_graph(&mut rng, n, 3 * n, seed % 2 == 0)?;
        if seed % 3 == 0 {
            g.seal();
        }
        let slots: Vec<VertexSlot> = g.vertex_slots().collect();
        for &s in &slots {
            for &t in &slots {
                for max_len in [1, 2, slots.len()] {
                    assert_eq!(
                        hop_minimal_path(&g, s, t, max_len, &Positional).0,
                        reference_bfs(&g, s, t, max_len, &Positional),
                        "seed {seed} {s}->{t} max_len {max_len}"
                    );
                }
            }
        }
    }
    Ok(())
}

/// `spokes` leaf vertexes each with one edge to (or, `outward`, from) a hub
/// `0`, and a chain `1000 -> 1001 -> 1002` joined to the hub at its far end.
fn hub(spokes: i64, outward: bool) -> Result<GraphTopology> {
    let mut g = GraphTopology::new("hub", true);
    g.add_vertex(0, RowId(0))?;
    for v in 1..=spokes {
        g.add_vertex(v, RowId(0))?;
        let (from, to) = if outward { (0, v) } else { (v, 0) };
        g.add_edge(v, from, to, RowId(0))?;
    }
    for v in 1000..1003 {
        g.add_vertex(v, RowId(0))?;
    }
    g.add_edge(2000, 1000, 1001, RowId(0))?;
    g.add_edge(2001, 1001, 1002, RowId(0))?;
    if outward {
        g.add_edge(2002, 1, 1000, RowId(0))?; // hub -> spoke 1 -> chain
    } else {
        g.add_edge(2002, 1002, 0, RowId(0))?; // chain -> hub
    }
    g.seal();
    Ok(g)
}

#[test]
fn a_hub_target_costs_only_the_forward_funnel() -> Result<()> {
    // Target with in-degree >> out-degree: the search never looks at its
    // 500 in-edges, only at the chain leading to it.
    let g = hub(500, false)?;
    let (s, t) = (g.vertex_slot(1000)?, g.vertex_slot(0)?);
    let (p, stats) = hop_minimal_path(&g, s, t, 8, &NoFilter);
    assert_eq!(
        p.map(|p| p.path_string()),
        Some("1000->1001->1002->0".to_string())
    );
    assert_eq!(
        stats,
        SearchStats {
            vertices_visited: 4,
            edges_examined: 3
        }
    );

    // The mirror image: a source that fans out 500 ways pays for the level.
    let g = hub(500, true)?;
    let (s, t) = (g.vertex_slot(0)?, g.vertex_slot(1002)?);
    let (p, stats) = hop_minimal_path(&g, s, t, 8, &NoFilter);
    assert_eq!(
        p.map(|p| p.path_string()),
        Some("0->1->1000->1001->1002".to_string())
    );
    assert_eq!(stats.edges_examined, 503, "{stats:?}");
    Ok(())
}

#[test]
fn a_filtered_endpoint_is_unreachable() -> Result<()> {
    let g = hub(3, false)?;
    let (s, t) = (g.vertex_slot(1000)?, g.vertex_slot(0)?);
    // Vertex ids 3 mod 7 are forbidden; the hub's id is 0, spoke 3's is 3.
    let f = Modular {
        edge_mod: 0,
        vertex_mod: 7,
    };
    assert!(hop_minimal_path(&g, s, t, 8, &f).0.is_some());
    let spoke = g.vertex_slot(3)?;
    assert_eq!(hop_minimal_path(&g, spoke, t, 8, &f).0, None);
    assert_eq!(hop_minimal_path(&g, s, spoke, 8, &f).0, None);
    Ok(())
}

/// Move this thread's stamp counter to `at` (just below the wrap).
fn force_stamp(at: u32) {
    SCRATCH.with(|cell| cell.borrow_mut().stamp = at);
}

#[test]
fn scratch_is_reused_across_topologies_and_a_generation_wrap() -> Result<()> {
    let mut rng = Rng::new(7);
    let big = {
        let mut g = random_graph(&mut rng, 300, 900, true)?;
        g.seal();
        g
    };
    let small = random_graph(&mut rng, 10, 25, false)?;
    let cost = |g: &GraphTopology, e: EdgeSlot| {
        1.0 + (g.edge_id(e) % 7).unsigned_abs() as f64 // cast-ok: test costs < 8
    };
    // Warm the scratch on the big arena, then park the counter so the
    // probes below cross the wrap (and its full clear) mid-sequence.
    let _ = hop_minimal_path(&big, 0, 1, 64, &NoFilter);
    force_stamp(u32::MAX - 9);
    for round in 0..40u32 {
        for g in [&big, &small] {
            let n = i64::try_from(g.vertex_count()).unwrap_or(1);
            let (s, t) = (g.vertex_slot(rng.below(n))?, g.vertex_slot(rng.below(n))?);
            let want = reference_bfs(g, s, t, 64, &NoFilter);
            let (got, _) = hop_minimal_path(g, s, t, 64, &NoFilter);
            assert_eq!(got, want, "round {round} {s}->{t}");
            // Dijkstra draws its stamps from the same counter.
            let best = shortest_path(g, s, t, cost, &NoFilter)?.map(|p| p.cost);
            let reference = reference_distances(g, s, cost).get(&t).copied();
            match (best, reference) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "round {round} {s}->{t}"),
                (a, b) => assert_eq!(a, b, "round {round} {s}->{t}"),
            }
        }
    }
    let wrapped = SCRATCH.with(|cell| cell.borrow().stamp);
    assert!(
        wrapped < 1000,
        "the counter wrapped and restarted, at {wrapped}"
    );
    Ok(())
}

/// A filter that runs a search of its own from inside the kernel's loop.
struct Nested<'g>(&'g GraphTopology);

impl TraversalFilter for Nested<'_> {
    fn edge_allowed(&self, g: &GraphTopology, e: EdgeSlot, _hop: usize) -> bool {
        let (from, to) = g.edge_endpoints(e);
        hop_minimal_path(self.0, from, to, 1, &NoFilter).0.is_some()
    }
}

#[test]
fn a_search_started_from_a_filter_callback_gets_its_own_scratch() -> Result<()> {
    let g = hub(4, false)?;
    let (s, t) = (g.vertex_slot(1000)?, g.vertex_slot(0)?);
    let (p, _) = hop_minimal_path(&g, s, t, 8, &Nested(&g));
    assert_eq!(p.map(|p| p.length()), Some(3));
    Ok(())
}

#[test]
fn the_search_stops_at_max_len() -> Result<()> {
    // 0 -> 1 -> 2 -> 3, searched 0 -> 3.
    let mut g = GraphTopology::new("chain", true);
    for v in 0..4 {
        g.add_vertex(v, RowId(0))?;
    }
    for v in 0..3 {
        g.add_edge(10 + v, v, v + 1, RowId(0))?;
    }
    let (s, t) = (g.vertex_slot(0)?, g.vertex_slot(3)?);
    let (p, stats) = hop_minimal_path(&g, s, t, 3, &NoFilter);
    assert_eq!(p.map(|p| p.path_string()), Some("0->1->2->3".to_string()));
    assert_eq!(
        stats,
        SearchStats {
            vertices_visited: 4,
            edges_examined: 3
        }
    );
    // One hop short: the last level is never expanded.
    let (p, stats) = hop_minimal_path(&g, s, t, 2, &NoFilter);
    assert_eq!(p, None);
    assert_eq!(stats.edges_examined, 2);
    Ok(())
}
