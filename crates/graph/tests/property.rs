//! Property tests at the topology/traversal API level (below SQL).

use proptest::prelude::*;

use grfusion_common::RowId;
use grfusion_graph::{
    shortest_path, BfsPaths, DfsPaths, GraphTopology, KShortestPaths, NoFilter, TraversalSpec,
};

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>, bool)> {
    (2usize..9).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..20);
        (Just(n), edges, any::<bool>())
    })
}

fn build(n: usize, edges: &[(usize, usize)], directed: bool) -> GraphTopology {
    let mut g = GraphTopology::new("g", directed);
    for v in 0..n as i64 {
        g.add_vertex(v, RowId(v as u64)).unwrap();
    }
    for (i, (a, b)) in edges.iter().enumerate() {
        g.add_edge(i as i64, *a as i64, *b as i64, RowId(0)).unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DFS and BFS enumerate the same multiset of edge sequences.
    #[test]
    fn dfs_bfs_same_paths((n, edges, directed) in arb_graph(), max in 1usize..4) {
        let g = build(n, &edges, directed);
        let seed = g.vertex_slot(0).unwrap();
        let spec = TraversalSpec::new(0, max);
        let mut dfs: Vec<Vec<i64>> =
            DfsPaths::new(&g, vec![seed], spec, NoFilter).map(|p| p.edges().to_vec()).collect();
        let mut bfs: Vec<Vec<i64>> =
            BfsPaths::new(&g, vec![seed], spec, NoFilter).map(|p| p.edges().to_vec()).collect();
        dfs.sort();
        bfs.sort();
        prop_assert_eq!(dfs, bfs);
    }

    /// BFS emits paths in non-decreasing length order (needed by the
    /// fewest-hops semantics of reachability).
    #[test]
    fn bfs_length_monotone((n, edges, directed) in arb_graph()) {
        let g = build(n, &edges, directed);
        let seed = g.vertex_slot(0).unwrap();
        let lens: Vec<usize> =
            BfsPaths::new(&g, vec![seed], TraversalSpec::new(0, 3), NoFilter)
                .map(|p| p.length())
                .collect();
        prop_assert!(lens.windows(2).all(|w| w[0] <= w[1]));
    }

    /// K-shortest-path enumeration yields non-decreasing costs, and its
    /// first result matches classic Dijkstra.
    #[test]
    fn ksp_costs_monotone_and_first_is_shortest(
        (n, edges, directed) in arb_graph(), target in 0usize..9
    ) {
        let target = target % n;
        let g = build(n, &edges, directed);
        let s = g.vertex_slot(0).unwrap();
        let t = g.vertex_slot(target as i64).unwrap();
        let cost = |g: &GraphTopology, e: grfusion_graph::EdgeSlot| {
            1.0 + (g.edge_id(e) % 5) as f64
        };
        let paths: Vec<_> = KShortestPaths::new(&g, s, t, 6, cost, NoFilter)
            .take(12)
            .collect();
        prop_assert!(paths.windows(2).all(|w| w[0].cost <= w[1].cost + 1e-12));
        let dij = shortest_path(&g, s, t, cost, &NoFilter).unwrap();
        match (paths.first(), dij) {
            (Some(p), Some(d)) => prop_assert!((p.cost - d.cost).abs() < 1e-9),
            (None, None) => {}
            // KSP bounded at 6 hops may miss a longer-but-only route that
            // unbounded Dijkstra finds.
            (None, Some(d)) => prop_assert!(d.length() > 6),
            (p, d) => prop_assert!(false, "mismatch: {:?} vs {:?}", p, d),
        }
    }

    /// Removing and re-adding edges keeps adjacency exactly consistent
    /// with a freshly built topology.
    #[test]
    fn edge_churn_matches_fresh_build(
        (n, edges, directed) in arb_graph(),
        remove in proptest::collection::vec(0usize..20, 0..10)
    ) {
        let mut g = build(n, &edges, directed);
        let mut kept: Vec<(usize, (usize, usize))> = edges.iter().cloned().enumerate().collect();
        for r in remove {
            if kept.is_empty() { break; }
            let i = r % kept.len();
            let (eid, _) = kept.remove(i);
            g.remove_edge(eid as i64).unwrap();
        }
        // fresh topology over the kept edges
        let mut fresh = GraphTopology::new("g", directed);
        for v in 0..n as i64 {
            fresh.add_vertex(v, RowId(v as u64)).unwrap();
        }
        for (eid, (a, b)) in &kept {
            fresh.add_edge(*eid as i64, *a as i64, *b as i64, RowId(0)).unwrap();
        }
        prop_assert_eq!(g.edge_count(), fresh.edge_count());
        for v in 0..n as i64 {
            let gs = g.vertex_slot(v).unwrap();
            let fs = fresh.vertex_slot(v).unwrap();
            prop_assert_eq!(g.fan_out(gs), fresh.fan_out(fs), "fan_out of {}", v);
            prop_assert_eq!(g.fan_in(gs), fresh.fan_in(fs), "fan_in of {}", v);
            let mut a: Vec<(i64, i64)> =
                g.out_hops(gs).iter().map(|&(e, t)| (g.edge_id(e), g.vertex_id(t))).collect();
            let mut b: Vec<(i64, i64)> = fresh
                .out_hops(fs)
                .iter()
                .map(|&(e, t)| (fresh.edge_id(e), fresh.vertex_id(t)))
                .collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "adjacency of {}", v);
        }
    }

    /// Stats stay consistent under churn: avg fan-out equals the direct
    /// adjacency average.
    #[test]
    fn stats_consistent((n, edges, directed) in arb_graph()) {
        let g = build(n, &edges, directed);
        let stats = g.stats();
        let total: usize = g.vertex_slots().map(|v| g.fan_out(v)).sum();
        let expect = total as f64 / g.vertex_count() as f64;
        prop_assert!((stats.avg_fan_out - expect).abs() < 1e-12);
        prop_assert_eq!(stats.vertex_count, n);
        prop_assert_eq!(stats.edge_count, edges.len());
    }
}
