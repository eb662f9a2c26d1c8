//! Cost-based optimizer battery (tier-1): plan-choice shape locks on
//! skewed fixtures, EXPLAIN cost-annotation formatting, and properties of
//! the cardinality estimates.
//!
//! Every lock runs the same query through an optimizer-on and an
//! optimizer-off engine and demands byte-identical rows — the optimizer's
//! whole contract is that it only re-picks *how* a result is computed,
//! never *what* the result is. The shape assertions then pin that the
//! cost model actually picked a **different** plan than the rule-based
//! reference on fixtures skewed to make the alternative cheaper.

use proptest::prelude::*;

use grfusion::{Database, EngineConfig, Value};

/// Engine with the cost-based optimizer explicitly on or off (independent
/// of the ambient `GRFUSION_OPTIMIZER` environment).
fn db_with_optimizer(on: bool) -> Database {
    let mut cfg = EngineConfig::default();
    cfg.optimizer.cost_based = on;
    Database::with_config(cfg)
}

/// Load `n` vertexes and the given directed edge list as tables `v`/`e`
/// plus graph view `g` (sealed at creation, so seal-time statistics are
/// fresh when the optimizer plans).
fn load_graph(db: &Database, n: i64, edges: &[(i64, i64)]) {
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let erows: Vec<Vec<Value>> = edges
        .iter()
        .enumerate()
        .map(|(i, (a, b))| {
            vec![
                Value::Integer(i as i64),
                Value::Integer(*a),
                Value::Integer(*b),
                Value::Double(1.0),
            ]
        })
        .collect();
    db.bulk_insert("e", erows).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
}

/// Rows rendered `col|col|...`, sorted (the locks compare result *sets*;
/// plan alternatives may legitimately emit in different orders under an
/// order-insensitive aggregate, and sorting keeps the comparison exact
/// without depending on that order).
fn rows(db: &Database, sql: &str) -> Vec<String> {
    let mut out: Vec<String> = db
        .execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    out.sort();
    out
}

/// Directed complete graph on `n` vertexes (no self-loops): every vertex
/// has out-degree `n-1`, so the effective fan-out sits far above the
/// traversal-vs-join crossover.
fn clique_edges(n: i64) -> Vec<(i64, i64)> {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                edges.push((a, b));
            }
        }
    }
    edges
}

/// Hub-and-spoke star with a short spoke chain: average out-degree ≈ 1
/// but the hub fans out to every spoke, so only the seal-time degree
/// distribution (not the average) reveals the skew.
fn star_edges() -> Vec<(i64, i64)> {
    let mut edges: Vec<(i64, i64)> = (1..64).map(|i| (0, i)).collect();
    edges.extend_from_slice(&[(1, 2), (2, 3), (3, 4)]);
    edges
}

/// Shape lock 1 — the tentpole's marquee rewrite: on a dense clique with
/// a hash index on the edge table's FROM column, fixed-length path
/// counting is re-planned as an iterated index join over the edge table
/// (the paper's §6 relational-baseline shape), because at fan-out 8 the
/// join enumerates the same simple paths cheaper than the traversal. The
/// rule-based plan keeps the PathScan.
#[test]
fn high_fanout_clique_picks_iterated_join() {
    let sql = "SELECT COUNT(*) FROM g.Paths PS \
               WHERE PS.StartVertex.Id = 0 AND PS.Length = 2";
    let mut lanes = Vec::new();
    for on in [false, true] {
        let db = db_with_optimizer(on);
        load_graph(&db, 9, &clique_edges(9));
        db.execute("CREATE INDEX ix_ea ON e (a)").unwrap();
        let plan = db.explain(sql).unwrap();
        if on {
            assert!(plan.contains("IndexJoin(e)"), "optimizer-on plan:\n{plan}");
            assert!(plan.contains("IndexLookup(e)"), "optimizer-on plan:\n{plan}");
            assert!(!plan.contains("PathScan"), "optimizer-on plan:\n{plan}");
        } else {
            assert!(plan.contains("PathScan"), "optimizer-off plan:\n{plan}");
            assert!(!plan.contains("IndexJoin"), "optimizer-off plan:\n{plan}");
        }
        lanes.push(rows(&db, sql));
    }
    assert_eq!(lanes[0], lanes[1], "iterated join changed result bytes");
    // 8 first hops from vertex 0, each with 8 simple extensions (the
    // second hop may close the cycle back to 0 but not revisit hop 1).
    assert_eq!(lanes[0], vec!["64".to_string()]);
}

/// The same fixture and count, closed into 2-cycles: the closing conjunct
/// is consumed into the scan, and the iterated join — which counts open
/// paths and has no closing test — must not take it over. Both lanes keep
/// the closing PathScan and count the 8 cycles 0→x→0.
#[test]
fn closing_count_keeps_the_traversal() {
    let sql = "SELECT COUNT(*) FROM g.Paths PS WHERE PS.StartVertex.Id = 0 \
               AND PS.Length = 2 AND PS.Edges[1].EndVertex = PS.Edges[0].StartVertex";
    for on in [false, true] {
        let db = db_with_optimizer(on);
        load_graph(&db, 9, &clique_edges(9));
        db.execute("CREATE INDEX ix_ea ON e (a)").unwrap();
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains("closing, emit=count"), "optimizer {on} plan:\n{plan}");
        assert!(!plan.contains("IndexJoin"), "optimizer {on} plan:\n{plan}");
        assert_eq!(rows(&db, sql), vec!["8".to_string()], "optimizer {on}");
    }
}

/// Shape lock 2 — physical traversal choice from the degree histogram:
/// the star's *average* out-degree (≈1) says BFS, but the seal-time
/// distribution exposes the 63-way hub, pushing the effective fan-out
/// past the path-length bound, so the cost model pins DFS. The rule-based
/// plan leaves the mode `Auto`.
#[test]
fn star_hub_skew_picks_dfs() {
    let sql = "SELECT COUNT(*) FROM g.Paths PS \
               WHERE PS.StartVertex.Id = 0 AND PS.Length = 2";
    let mut lanes = Vec::new();
    for on in [false, true] {
        let db = db_with_optimizer(on);
        load_graph(&db, 64, &star_edges());
        let plan = db.explain(sql).unwrap();
        if on {
            assert!(plan.contains("Dfs"), "optimizer-on plan:\n{plan}");
        } else {
            assert!(plan.contains("Auto"), "optimizer-off plan:\n{plan}");
            assert!(!plan.contains("Dfs"), "optimizer-off plan:\n{plan}");
        }
        lanes.push(rows(&db, sql));
    }
    assert_eq!(lanes[0], lanes[1], "traversal mode changed result bytes");
    // 0→1→2, 0→2→3, 0→3→4 are the only length-2 paths off the hub.
    assert_eq!(lanes[0], vec!["3".to_string()]);
}

/// Shape lock 3 — anchor selectivity: with both endpoints pinned, the
/// cost model picks the targeted BFS (frontier-pruned toward the end
/// anchor) instead of leaving the mode heuristic to run at execution.
#[test]
fn selective_end_anchor_picks_targeted_bfs() {
    let sql = "SELECT COUNT(*) FROM g.Paths PS \
               WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 3 \
               AND PS.Length = 2";
    let mut lanes = Vec::new();
    for on in [false, true] {
        let db = db_with_optimizer(on);
        load_graph(&db, 9, &clique_edges(9));
        let plan = db.explain(sql).unwrap();
        if on {
            assert!(plan.contains("Bfs"), "optimizer-on plan:\n{plan}");
        } else {
            assert!(plan.contains("Auto"), "optimizer-off plan:\n{plan}");
        }
        lanes.push(rows(&db, sql));
    }
    assert_eq!(lanes[0], lanes[1], "targeted BFS changed result bytes");
    // 0→t→3 for t ∉ {0, 3}: seven intermediates.
    assert_eq!(lanes[0], vec!["7".to_string()]);
}

/// Negative lock: on a sparse chain the effective fan-out is ~1, far
/// below the traversal-vs-join crossover, so even with the index present
/// the optimizer must *keep* the traversal. (Guards against the rewrite
/// firing unconditionally whenever its structural gates match.)
#[test]
fn sparse_chain_keeps_traversal() {
    let sql = "SELECT COUNT(*) FROM g.Paths PS \
               WHERE PS.StartVertex.Id = 0 AND PS.Length = 2";
    let db = db_with_optimizer(true);
    let chain: Vec<(i64, i64)> = (0..39).map(|i| (i, i + 1)).collect();
    load_graph(&db, 40, &chain);
    db.execute("CREATE INDEX ix_ea ON e (a)").unwrap();
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("PathScan"), "chain plan:\n{plan}");
    assert!(!plan.contains("IndexJoin"), "chain plan:\n{plan}");
    assert_eq!(rows(&db, sql), vec!["1".to_string()]);
}

/// The diamond fixture from the emission-order shape locks, with the optimizer
/// on: EXPLAIN must carry ` rows_est=N cost=C` on **every** line, and the
/// exact formatting is pinned so estimate/annotation drift is a reviewed
/// change, not an accident.
#[test]
fn explain_cost_format_pinned_on_diamond() {
    let db = db_with_optimizer(true);
    load_graph(
        &db,
        7,
        &[(1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (5, 6)],
    );
    let plan = db
        .explain(
            "SELECT PS.EndVertex.Id FROM g.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 2",
        )
        .unwrap();
    // No Filter line: the anchor seeds the scan and `Length = 2` is its
    // window, so both conjuncts are consumed; Project = scan rows (2) at
    // scan cost (5) + one visit per row.
    let expected = "\
Project(1 cols) :: (id INTEGER) rows_est=2 cost=7
  PathScan(g, Auto, len 2..=2) :: (ps PATH) rows_est=2 cost=5
";
    assert_eq!(plan, expected);
}

/// Satellite 4's stability contract: with the optimizer off, EXPLAIN is
/// byte-identical to the pre-optimizer engine — no `rows_est` fragments
/// of any kind (in particular no `rows_est=?` placeholders) may leak.
#[test]
fn explain_without_optimizer_has_no_estimates() {
    let db = db_with_optimizer(false);
    load_graph(&db, 9, &clique_edges(9));
    for sql in [
        "SELECT COUNT(*) FROM g.Paths PS WHERE PS.StartVertex.Id = 0 AND PS.Length = 2",
        "SELECT id FROM v WHERE id = 3",
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(!plan.contains("rows_est"), "estimate leaked:\n{plan}");
        assert!(!plan.contains("cost="), "estimate leaked:\n{plan}");
    }
}

/// Root-node row estimate parsed off an optimizer-annotated EXPLAIN.
fn root_estimate(db: &Database, sql: &str) -> u64 {
    let plan = db.explain(sql).unwrap();
    let first = plan.lines().next().unwrap();
    let tail = first
        .split("rows_est=")
        .nth(1)
        .unwrap_or_else(|| panic!("no estimate on root line: {first}"));
    tail.split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable estimate on root line: {first}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Estimated cardinalities are finite, non-negative, and monotone
    /// under LIMIT: est(LIMIT k) ≤ est(LIMIT k') for k ≤ k', and both are
    /// bounded by the unlimited estimate. (Finite and non-negative hold
    /// by construction of the parse: the annotation renders estimates as
    /// unsigned integers, so a negative/NaN/∞ estimate would fail the
    /// `rows_est=` parse itself.)
    #[test]
    fn estimates_monotone_under_limit(
        n in 4i64..32,
        extra in proptest::collection::vec((0i64..32, 0i64..32), 0..20),
        k1 in 0u64..50,
        dk in 0u64..50,
    ) {
        let db = db_with_optimizer(true);
        let mut edges: Vec<(i64, i64)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        for (a, b) in extra {
            let (a, b) = (a % n, b % n);
            if a != b {
                edges.push((a, b));
            }
        }
        load_graph(&db, n, &edges);
        let base = "SELECT PS.EndVertex.Id FROM g.Paths PS \
                    WHERE PS.StartVertex.Id = 0 AND PS.Length <= 3";
        let k2 = k1 + dk;
        let est_k1 = root_estimate(&db, &format!("{base} LIMIT {k1}"));
        let est_k2 = root_estimate(&db, &format!("{base} LIMIT {k2}"));
        let est_all = root_estimate(&db, base);
        prop_assert!(est_k1 <= est_k2, "LIMIT {k1} est {est_k1} > LIMIT {k2} est {est_k2}");
        prop_assert!(est_k2 <= est_all, "LIMIT {k2} est {est_k2} > unlimited est {est_all}");
        prop_assert!(est_k1 <= k1, "LIMIT {k1} est {est_k1} exceeds the limit itself");
    }
}
