//! Robustness battery: the resource governor (deadline / cancellation /
//! memory accountant) and the deterministic fault-injection harness.
//!
//! Two invariant families are proven here:
//!
//! * **Bounded abort**: a hostile query (unbounded enumeration on a clique)
//!   aborts with a typed `ResourceExhausted` error within 2× the configured
//!   deadline, and the engine remains fully usable afterwards — no
//!   poisoned locks, no half-built state.
//! * **Crash consistency**: for every DML fault-injection site, a fault
//!   driven into the middle of INSERT/UPDATE/DELETE graph-view maintenance
//!   leaves storage, indexes, and every topology byte-identical to never
//!   having run the statement, and the retried statement succeeds.

use std::time::{Duration, Instant};

use grfusion::{
    Database, EngineConfig, Error, FaultKind, FaultPlan, ResourceKind,
    Value, DML_FAULT_SITES,
};
use proptest::prelude::*;

/// Fully connected directed graph on `n` vertexes: unbounded simple-path
/// enumeration on it is combinatorially explosive (n=12 has ~10^10 simple
/// paths of length ≤ 8), which is exactly the workload the governor exists
/// to bound.
fn clique_db(n: i64, cfg: EngineConfig) -> Database {
    let db = Database::with_config(cfg);
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let mut erows = Vec::new();
    let mut eid = 0i64;
    for a in 0..n {
        for b in 0..n {
            if a != b {
                erows.push(vec![
                    Value::Integer(eid),
                    Value::Integer(a),
                    Value::Integer(b),
                    Value::Double(1.0),
                ]);
                eid += 1;
            }
        }
    }
    db.bulk_insert("e", erows).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    db
}

const CLIQUE_BOMB: &str =
    "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 8";

/// Fig7-family sanity queries: the same engine that just aborted a hostile
/// query must still answer these correctly.
fn assert_engine_usable(db: &Database, n: i64) {
    let rs = db
        .execute("SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length = 1")
        .unwrap();
    assert_eq!(rs.rows[0][0].to_string(), (n - 1).to_string());
    let rs = db
        .execute(
            "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
             WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 1 AND PS.Length <= 3 LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows[0][0].to_string(), "1");
}

#[test]
fn deadline_bounds_hostile_enumeration_serial() {
    let deadline_ms = 100u64;
    let mut cfg = EngineConfig::default();
    cfg.governor.deadline_ms = Some(deadline_ms);
    let n = 12i64;
    let db = clique_db(n, cfg);

    // The bomb is a counting scan; under `LIMIT 1` nothing above it pulls
    // a second time, so the scan itself must turn a walk the deadline cut
    // short into the typed error, never into the count of the part walked.
    for sql in [CLIQUE_BOMB.to_string(), format!("{CLIQUE_BOMB} LIMIT 1")] {
        let start = Instant::now();
        let err = db.execute(&sql).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(
                err,
                Error::ResourceExhausted {
                    kind: ResourceKind::Deadline,
                    ..
                }
            ),
            "{sql}: expected deadline abort, got {err:?}"
        );
        assert!(
            elapsed < Duration::from_millis(2 * deadline_ms),
            "{sql}: abort took {elapsed:?}, over 2x the {deadline_ms}ms deadline"
        );
    }

    // The same database, deadline cleared, answers correctly: the abort
    // left no poisoned locks or half-built state.
    let mut cfg = db.config();
    cfg.governor.deadline_ms = None;
    db.set_config(cfg);
    assert_engine_usable(&db, n);
}

#[test]
fn memory_cap_bounds_materialization() {
    let n = 12i64;
    let mut cfg = EngineConfig::default();
    cfg.governor.max_memory_bytes = Some(64 * 1024);
    let db = clique_db(n, cfg);
    // 13k+ paths at ~100 bytes each blow a 64 KiB cap long before the scan
    // drains.
    let err = db
        .execute("SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 3")
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                kind: ResourceKind::Bytes,
                ..
            }
        ),
        "expected memory abort, got {err:?}"
    );
    // Uncapped, the same query completes on the same database.
    let mut cfg = db.config();
    cfg.governor.max_memory_bytes = None;
    db.set_config(cfg);
    let rs = db
        .execute("SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 3")
        .unwrap();
    // The count must match a never-governed database of the same shape.
    let fresh = clique_db(n, EngineConfig::default());
    let expect = fresh
        .execute("SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 3")
        .unwrap();
    assert_eq!(rs.rows[0][0], expect.rows[0][0]);
    assert_engine_usable(&db, n);
}

#[test]
fn cancellation_from_another_thread() {
    let mut cfg = EngineConfig::default();
    cfg.optimizer.default_max_path_len = 10;
    let db = clique_db(12, cfg);
    let token = db.cancel_token();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        });
        let start = Instant::now();
        let err = db.execute(CLIQUE_BOMB).unwrap_err();
        assert!(
            matches!(
                err,
                Error::ResourceExhausted {
                    kind: ResourceKind::Cancelled,
                    ..
                }
            ),
            "expected cancellation, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancellation latency unreasonable"
        );
    });
    // Edge-triggered: the cancel consumed itself with the in-flight query,
    // so the very next statement on the same database runs to completion —
    // the multiplexed-connection contract (one client's cancel must never
    // bleed into the next pooled query).
    assert_engine_usable(&db, 12);
}

// ---------------------------------------------------------------------------
// Row-budget emission accounting
// ---------------------------------------------------------------------------

#[test]
fn limit_query_budget_is_charged_on_emission() {
    // The budget is charged on emission, never during enumeration: a
    // LIMIT 1 query fits a tiny row budget however many paths the clique
    // holds, and answers the unbudgeted query's first row.
    let sql = "SELECT P.PathString FROM g.Paths P HINT(DFS) \
               WHERE P.Length >= 1 AND P.Length <= 3 LIMIT 1";
    let mut cfg = EngineConfig::default();
    cfg.governor.max_intermediate_rows = Some(10);
    let db = clique_db(8, cfg);
    let budgeted = db.execute(sql).unwrap().rows;
    assert_eq!(budgeted.len(), 1);
    let unbudgeted = clique_db(8, EngineConfig::default()).execute(sql).unwrap().rows;
    assert_eq!(budgeted, unbudgeted, "the budget changed the LIMIT 1 answer");

    // Without the LIMIT the same budget does trip — at emission, with the
    // typed rows error.
    let err = db
        .execute(
            "SELECT P.PathString FROM g.Paths P HINT(DFS) \
             WHERE P.Length >= 1 AND P.Length <= 3",
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                kind: ResourceKind::Rows,
                ..
            }
        ),
        "expected rows abort, got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite lock for emission-time budget accounting: on random small
    /// graphs, a LIMIT 1 enumeration under a tight row budget answers
    /// exactly what the same enumeration without a budget answers (or
    /// fails with the same error) — the budget sees only emitted rows.
    #[test]
    fn limit_one_budget_serial_equivalence(
        (n, edges) in (3usize..8).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0..n, 0..n), 1..20))
        })
    ) {
        let mut cfg = EngineConfig::default();
        cfg.governor.max_intermediate_rows = Some(3);
        let db = Database::with_config(cfg);
        db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
        db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)").unwrap();
        let vrows: Vec<Vec<Value>> = (0..n as i64).map(|i| vec![Value::Integer(i)]).collect();
        db.bulk_insert("v", vrows).unwrap();
        let erows: Vec<Vec<Value>> = edges
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                vec![Value::Integer(i as i64), Value::Integer(*a as i64), Value::Integer(*b as i64)]
            })
            .collect();
        db.bulk_insert("e", erows).unwrap();
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
             EDGES(ID = id, FROM = a, TO = b) FROM e",
        ).unwrap();

        let sql = "SELECT P.PathString FROM g.Paths P HINT(DFS) \
                   WHERE P.Length >= 1 AND P.Length <= 3 LIMIT 1";
        let budgeted = db.execute(sql);
        let mut ucfg = db.config();
        ucfg.governor.max_intermediate_rows = None;
        db.set_config(ucfg);
        let unbudgeted = db.execute(sql);
        match (budgeted, unbudgeted) {
            (Ok(b), Ok(u)) => prop_assert_eq!(b.rows, u.rows),
            (Err(be), Err(ue)) => prop_assert_eq!(be.to_string(), ue.to_string()),
            (b, u) => prop_assert!(false, "diverged: budgeted {:?} vs unbudgeted {:?}",
                                   b.map(|r| r.rows.len()), u.map(|r| r.rows.len())),
        }
    }
}

// ---------------------------------------------------------------------------
// Counting scans: COUNT inside the traversal is the materializing plan's
// work and accounting, minus the paths
// ---------------------------------------------------------------------------

/// Fourteen ungrouped `COUNT` forms over a standalone path scan: `{C}` is
/// the aggregate call, `{H}` the traversal hint. The first twelve become
/// counting scans (the last four of those close 2-cycles); the last two
/// carry a pushed predicate, which stays in the residual filter (the
/// pushdown-ablation promise), so they keep the materializing plan
/// whatever `aggregate_pushdown` says.
fn count_forms() -> Vec<String> {
    let anchored = "SELECT {C} FROM g.Paths P {H} \
                    WHERE P.StartVertex.Id = 0 AND P.Length >= 1 AND P.Length <= 3";
    let all = "SELECT {C} FROM g.Paths P {H} WHERE P.Length >= 1 AND P.Length <= 2";
    let pushed = " AND P.Edges[0..*].w < 5.0";
    let mut forms = Vec::new();
    for shape in [anchored, all, CLOSING_COUNT] {
        for hint in ["HINT(DFS)", "HINT(BFS)"] {
            for call in ["COUNT(*)", "COUNT(P)"] {
                forms.push(shape.replace("{C}", call).replace("{H}", hint));
            }
        }
    }
    forms.push(format!("{anchored}{pushed}").replace("{C}", "COUNT(P)").replace("{H}", "HINT(DFS)"));
    forms.push(format!("{all}{pushed}").replace("{C}", "COUNT(*)").replace("{H}", "HINT(BFS)"));
    forms
}

/// Unanchored 2-cycles: the closing conjunct is consumed into the scan.
const CLOSING_COUNT: &str =
    "SELECT {C} FROM g.Paths P {H} WHERE P.Length = 2 AND P.EndVertex.Id = P.StartVertex.Id";

/// Undirected, with a 2-cycle (two parallel edges 0–1) so closing a cycle
/// and the no-edge-reuse rule are both on the counted paths, and one heavy
/// edge for the pushed predicate to prune.
fn two_cycle_db(cfg: EngineConfig) -> Database {
    let db = Database::with_config(cfg);
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..6).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let edges = [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0), (2, 3, 9.0), (2, 0, 1.0), (3, 4, 1.0), (4, 5, 1.0), (5, 3, 1.0)];
    let erows: Vec<Vec<Value>> = edges
        .iter()
        .enumerate()
        .map(|(id, &(a, b, w))| {
            vec![Value::Integer(id as i64), Value::Integer(a), Value::Integer(b), Value::Double(w)]
        })
        .collect();
    db.bulk_insert("e", erows).unwrap();
    db.execute(
        "CREATE UNDIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    db
}

#[test]
fn counting_scan_matches_the_materializing_plan() {
    // A memory cap nothing reaches: the governor is active, so every scan
    // reports `checks=` and `bytes=`.
    let mut cfg = EngineConfig::default();
    cfg.governor.max_memory_bytes = Some(1 << 40);
    let db = two_cycle_db(cfg);
    let set = |pushdown: bool, budget: Option<u64>| {
        let mut cfg = db.config();
        cfg.optimizer.aggregate_pushdown = pushdown;
        cfg.governor.max_intermediate_rows = budget;
        db.set_config(cfg);
    };
    for sql in count_forms() {
        // The answer, and everything EXPLAIN ANALYZE says about the scan.
        let scan_of = |pushdown: bool| {
            set(pushdown, None);
            let rs = db.execute_with_metrics(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let m = rs.metrics.expect("metrics requested");
            let scan = m.node("PathScan").unwrap_or_else(|| panic!("{sql}:\n{}", m.render())).clone();
            (rs.rows, scan)
        };
        let (counted, counting) = scan_of(true);
        let (expected, materializing) = scan_of(false);
        let counts = !sql.contains("Edges[");
        assert_eq!(counting.label.ends_with("emit=count)"), counts, "{sql}: {}", counting.label);
        assert!(!materializing.label.contains("emit="), "{sql}: {}", materializing.label);
        assert_eq!(counted, expected, "{sql}");
        let Value::Integer(n) = counted[0][0] else {
            panic!("{sql}: COUNT answered {:?}", counted[0][0]);
        };
        assert!(n > 3, "{sql}: fixture too small to tell plans apart ({n} paths)");
        if counts {
            assert_eq!((counting.rows, counting.paths), (1, Some(n as u64)), "{sql}");
            assert_eq!((materializing.rows, materializing.paths), (n as u64, None), "{sql}");
        }
        assert_eq!(counting.graph, materializing.graph, "{sql}: traversal work");
        assert_eq!(counting.gov, materializing.gov, "{sql}: governor checks / bytes");
        assert!(counting.gov.is_some_and(|g| g.bytes > 0), "{sql}: {:?}", counting.gov);

        // The row budget trips at the same path with the same error: a
        // budget of `n` rows passes, `n - 1` does not, in either plan.
        for budget in [0, n as u64 / 2, n as u64 - 1, n as u64] {
            let outcome = |pushdown: bool| {
                set(pushdown, Some(budget));
                db.execute(&sql).map(|rs| rs.rows).map_err(|e| e.to_string())
            };
            let (counting, materializing) = (outcome(true), outcome(false));
            assert_eq!(counting, materializing, "{sql}: budget {budget}");
            assert_eq!(counting.is_ok(), budget == n as u64, "{sql}: budget {budget} of {n} paths");
        }
    }
}

/// On the 2-cycle fixture the parallel edges 0–1 close 0→1→0 and 1→0→1
/// two ways each (4 cycles); no edge closes a cycle with itself, though
/// every one of the eight edges would if it could. The residual plan
/// (`length_inference` off: no consumed window, so no closing scan) agrees.
#[test]
fn closing_count_uses_parallel_edges_never_the_same_edge() {
    let db = two_cycle_db(EngineConfig::default());
    for hint in ["HINT(DFS)", "HINT(BFS)"] {
        let sql = CLOSING_COUNT.replace("{C}", "COUNT(*)").replace("{H}", hint);
        for inference in [true, false] {
            let mut cfg = db.config();
            cfg.optimizer.length_inference = inference;
            db.set_config(cfg);
            let plan = db.explain(&sql).unwrap();
            assert_eq!(plan.contains("closing, emit=count"), inference, "{sql}:\n{plan}");
            let rows = db.execute(&sql).unwrap().rows;
            assert_eq!(rows, vec![vec![Value::Integer(4)]], "{sql}, length_inference {inference}");
        }
    }
}

// ---------------------------------------------------------------------------
// Demand: a LIMIT reaches the traversal through every operator between
// ---------------------------------------------------------------------------

/// Operators hand over batches, and a batch is sized by what the consumer
/// asked for: `LIMIT k` asks for `k`, and projections, filters and path
/// joins pass that down. On the 12-clique — whose bounded simple-path
/// enumeration (~10^10 paths) cannot finish — every form below must return,
/// having expanded exactly the edges the row-at-a-time executor expanded
/// (the counts are the parent commit's, taken before batches existed). The
/// last three are the benchmark's `graph_prepared` probe forms.
#[test]
fn limit_is_a_demand_the_traversal_sees() {
    let db = clique_db(12, EngineConfig::default());
    // (sql, rows, vertices visited, edges expanded, tuple derefs)
    let cases: [(&str, usize, u64, u64, u64); 7] = [
        (
            "SELECT P.PathString FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 8 LIMIT 1",
            1,
            2,
            1,
            0,
        ),
        // A residual filter keeps asking for one path until one passes.
        (
            "SELECT P.PathString FROM g.Paths P HINT(DFS) WHERE P.Length >= 1 \
             AND P.Length <= 8 AND P.Edges[2].EndVertex = 7 LIMIT 1",
            1,
            43534,
            91574,
            0,
        ),
        // A path join starts one probe, for the first outer row only.
        (
            "SELECT v.id, P.Length FROM v, g.Paths P WHERE P.StartVertex.Id = v.id \
             AND P.Length >= 2 AND P.Length <= 8 LIMIT 1",
            1,
            3,
            2,
            0,
        ),
        (
            "SELECT P.PathString FROM g.Paths P HINT(DFS) WHERE P.Length >= 1 \
             AND P.Length <= 8 LIMIT 5",
            5,
            6,
            6,
            0,
        ),
        (
            "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 0 \
             AND PS.EndVertex.Id = 5 AND PS.Length <= 4 LIMIT 1",
            1,
            6,
            5,
            0,
        ),
        (
            "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 0 \
             AND PS.EndVertex.Id = 5 AND PS.Length <= 4 AND PS.Edges[0..*].w < 2.0 LIMIT 1",
            1,
            6,
            5,
            // The sealed view answers `w` from its edge columns.
            0,
        ),
        (
            "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
             WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 5 LIMIT 1",
            1,
            6,
            55,
            0,
        ),
    ];
    for (sql, rows, vertices, edges, derefs) in cases {
        let rs = db.execute_with_metrics(sql).unwrap();
        assert_eq!(rs.rows.len(), rows, "{sql}");
        let g = rs.metrics.expect("metrics requested").graph_totals();
        assert_eq!(
            (g.vertices_visited, g.edges_expanded, g.tuple_derefs),
            (vertices, edges, derefs),
            "{sql}"
        );
    }
}

/// A join whose outer row can match many times does not know how many
/// outer rows a `LIMIT k` needs, so under a LIMIT it must pull them one
/// per probe: an outer row past the one the query stops at is never
/// evaluated, at any batch size. Here the second outer row fails its
/// filter with a division by zero; the first alone fills the LIMIT.
#[test]
fn limit_never_evaluates_an_outer_row_past_the_one_it_stops_at() {
    let db = Database::with_config(EngineConfig::default());
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, x INTEGER)")
        .unwrap();
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, t INTEGER)")
        .unwrap();
    db.execute("CREATE INDEX b_k ON b (k)").unwrap();
    db.execute("INSERT INTO a VALUES (1, 10, 1), (2, 10, 0)")
        .unwrap();
    db.execute("INSERT INTO b VALUES (1, 10, 2), (2, 10, 3), (3, 10, 4)")
        .unwrap();
    // b as a graph: 10 -> 2, 10 -> 3, 10 -> 4 (three one-hop paths from 10).
    db.execute("CREATE TABLE n (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO n VALUES (2), (3), (4), (10)").unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM n \
         EDGES(ID = id, FROM = k, TO = t) FROM b",
    )
    .unwrap();

    let index_join = "SELECT a.id, b.id FROM a, b WHERE b.k = a.k AND 10 / a.x > 0";
    let path_join = "SELECT a.id, P.EndVertex.Id FROM a, g.Paths P \
                     WHERE P.StartVertex.Id = a.k AND P.Length = 1 AND 10 / a.x > 0";
    for (sql, node) in [(index_join, "IndexJoin"), (path_join, "PathJoin")] {
        let plan = db.explain(&format!("{sql} LIMIT 2")).unwrap();
        assert!(plan.contains(node), "{sql}:\n{plan}");
        // LIMIT 3 at batch size 2 asks for a full batch first: a LIMIT is
        // early-stopping whatever its size.
        for (limit, batch_rows) in [(2, 1), (2, 2), (2, 1024), (3, 2), (3, 1024)] {
            db.set_batch_rows(batch_rows);
            let rs = db
                .execute(&format!("{sql} LIMIT {limit}"))
                .unwrap_or_else(|e| panic!("{sql} LIMIT {limit} @ {batch_rows}: {e}"));
            assert_eq!(rs.rows.len(), limit, "{sql} LIMIT {limit} @ {batch_rows}");
            assert!(rs.rows.iter().all(|r| r[0] == Value::Integer(1)));
        }
        // Without the LIMIT (or with one the first outer row cannot fill)
        // the second outer row is reached and fails, at every size.
        for tail in ["", " LIMIT 4"] {
            for batch_rows in [1, 2, 1024] {
                db.set_batch_rows(batch_rows);
                let err = db.execute(&format!("{sql}{tail}")).unwrap_err();
                assert!(err.to_string().contains("division by zero"), "{err}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-injected DML: all-or-nothing across storage + indexes + topology
// ---------------------------------------------------------------------------

const CREATE_G: &str = "CREATE DIRECTED GRAPH VIEW g \
                        VERTEXES(ID = id) FROM u \
                        EDGES(ID = id, FROM = a, TO = b) FROM r";

/// Small social fixture whose DML reaches every maintenance path: vertex
/// source `u`, edge source `r`, ring topology 1->2->3->4->5->1.
fn social_db(cfg: EngineConfig) -> Database {
    let db = Database::with_config(cfg);
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
        .unwrap();
    db.execute("INSERT INTO u VALUES (1), (2), (3), (4), (5)").unwrap();
    db.execute("INSERT INTO r VALUES (100, 1, 2), (101, 2, 3), (102, 3, 4), (103, 4, 5), (104, 5, 1)")
        .unwrap();
    db.execute(CREATE_G).unwrap();
    db
}

/// A DML statement guaranteed to hit the given injection site at least once
/// on the social fixture.
fn statement_for(site: &str) -> &'static str {
    if site.starts_with("dml.insert") {
        "INSERT INTO u VALUES (10)"
    } else if site.starts_with("dml.delete") {
        "DELETE FROM r WHERE id = 100"
    } else if site == "dml.update.relink" || site == "dml.update.maintain" || site == "dml.seal" {
        // The relink overlays 3 of the ring's 5 vertexes (0.6 ≥ the 0.25
        // re-seal threshold), so the same statement deterministically
        // reaches the post-statement `dml.seal` site too.
        "UPDATE r SET b = 4 WHERE id = 100"
    } else {
        // update.cascade / update.storage / update.post: a vertex-id rename
        // that cascades into the edge source.
        "UPDATE u SET id = 9 WHERE id = 1"
    }
}

/// The maintained topology must equal a fresh re-extraction from the final
/// table state (drop + recreate the view; dumps are sorted so slot layout
/// does not matter).
fn assert_reextraction_consistent(db: &Database) {
    let maintained = db.state_dump().unwrap();
    db.execute("DROP GRAPH VIEW g").unwrap();
    db.execute(CREATE_G).unwrap();
    assert_eq!(
        db.state_dump().unwrap(),
        maintained,
        "maintained topology diverged from fresh extraction"
    );
}

/// Drive `kind` into `site` on its first hit; the statement must be
/// all-or-nothing, the retry must succeed, and the final topology must
/// match a fresh re-extraction.
fn run_site(site: &str, kind: &str) {
    let db = social_db(EngineConfig::default());
    let stmt = statement_for(site);
    let before = db.state_dump().unwrap();

    db.set_fault_plan(Some(
        FaultPlan::parse(&format!("0:{site}@1={kind}")).unwrap(),
    ));
    let err = db.execute(stmt).unwrap_err();
    if kind == "alloc" || kind == "deadline" {
        assert!(
            matches!(err, Error::ResourceExhausted { .. }),
            "site {site}: injected {kind} surfaced as {err:?}"
        );
    }
    assert_eq!(
        db.state_dump().unwrap(),
        before,
        "site {site} ({kind}): faulted statement was not all-or-nothing"
    );

    // Retry: the rule already fired, so the same statement now succeeds and
    // leaves a topology identical to re-extracting from the tables.
    db.execute(stmt).unwrap();
    assert_ne!(db.state_dump().unwrap(), before, "retried statement was a no-op");
    assert_reextraction_consistent(&db);
}

#[test]
fn fault_sweep_every_dml_site_serial() {
    for site in DML_FAULT_SITES {
        run_site(site, "error");
    }
}

#[test]
fn fault_kinds_all_roll_back() {
    for kind in ["error", "alloc", "deadline"] {
        run_site("dml.update.relink", kind);
    }
}

#[test]
fn seeded_fault_sweep_is_deterministic() {
    // Prefix rule over all DML sites with a seed-derived hit count: the
    // sweep the CI recipe runs. Every seed must roll back cleanly and the
    // retry must converge to the same final state.
    for seed in [1u64, 3, 5, 7, 11] {
        let db = social_db(EngineConfig::default());
        let before = db.state_dump().unwrap();
        db.set_fault_plan(Some(FaultPlan::parse(&format!("{seed}:dml=error")).unwrap()));
        // The cascading rename hits maintain, cascade (x2), storage, post —
        // at least 4 sites, so the seeded nth in 1..=4 always fires.
        let stmt = "UPDATE u SET id = 9 WHERE id = 1";
        let err = db.execute(stmt).unwrap_err();
        assert!(
            err.to_string().contains("injected fault"),
            "seed {seed}: expected injected fault, got {err:?}"
        );
        assert_eq!(db.state_dump().unwrap(), before, "seed {seed}: not all-or-nothing");
        db.execute(stmt).unwrap();
        assert_reextraction_consistent(&db);
        let rs = db.execute("SELECT COUNT(*) FROM u WHERE id = 9").unwrap();
        assert_eq!(rs.rows[0][0].to_string(), "1", "seed {seed}");
    }
}

#[test]
fn explicit_transaction_survives_injected_fault() {
    // Statement-level atomicity inside an explicit transaction: the faulted
    // statement rolls back to its savepoint, earlier statements survive,
    // and COMMIT lands exactly the surviving work.
    let db = social_db(EngineConfig::default());
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO u VALUES (20)").unwrap();
    db.set_fault_plan(Some(FaultPlan::parse("0:dml.insert.maintain@1=error").unwrap()));
    assert!(db.execute("INSERT INTO u VALUES (21)").is_err());
    db.set_fault_plan(None);
    db.execute("COMMIT").unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM u").unwrap();
    assert_eq!(rs.rows[0][0].to_string(), "6", "5 seed rows + the surviving insert");
    assert_reextraction_consistent(&db);
}

#[test]
fn bulk_insert_runs_the_insert_fault_sites() {
    // A bulk load runs SQL INSERT's loop: a fault on its second row rolls
    // back the first row and the edge it added to the view.
    let db = social_db(EngineConfig::default());
    let before = db.state_dump().unwrap();
    db.set_fault_plan(Some(FaultPlan::parse("0:dml.insert.row@2=error").unwrap()));
    let rows = || -> Vec<Vec<Value>> {
        [(105, 1, 3), (106, 2, 4), (107, 3, 5)]
            .into_iter()
            .map(|(id, a, b)| vec![Value::Integer(id), Value::Integer(a), Value::Integer(b)])
            .collect()
    };
    let err = db.bulk_insert("r", rows()).unwrap_err();
    assert!(err.to_string().contains("injected fault"), "got {err:?}");
    assert_eq!(db.state_dump().unwrap(), before, "faulted bulk load was not all-or-nothing");
    assert_eq!(db.bulk_insert("r", rows()).unwrap(), 3);
    assert_reextraction_consistent(&db);
}

// ---------------------------------------------------------------------------
// Operator-level fault injection
// ---------------------------------------------------------------------------

#[test]
fn operator_fault_aborts_query_not_engine() {
    let db = social_db(EngineConfig::default());
    let sql = "SELECT P.PathString FROM g.Paths P HINT(DFS) \
               WHERE P.Length >= 1 AND P.Length <= 2";
    let clean = db.execute(sql).unwrap().rows;
    assert!(!clean.is_empty());

    db.set_fault_plan(Some(FaultPlan::parse("0:PathScan@2=error").unwrap()));
    let err = db.execute(sql).unwrap_err();
    assert!(
        err.to_string().contains("injected fault at `PathScan"),
        "wrong injection point: {err:?}"
    );
    // The engine (and the identical retry, once the plan is cleared) is
    // untouched by the mid-query abort.
    db.set_fault_plan(None);
    assert_eq!(db.execute(sql).unwrap().rows, clean);

    // The typed convenience constructor round-trips through parse().
    assert_eq!(
        FaultPlan::parse("0:PathScan@2=error").unwrap(),
        FaultPlan::single("PathScan", 2, FaultKind::Error)
    );
}

// ---------------------------------------------------------------------------
// Sealed-CSR interaction: faults, memory cap, and cancellation vs. seal
// ---------------------------------------------------------------------------

#[test]
fn seal_fault_kinds_all_roll_back() {
    // The automatic re-seal runs inside the statement's atomicity scope:
    // any fault kind driven into `dml.seal` must abort the whole statement
    // all-or-nothing, exactly like the other maintenance sites.
    for kind in ["error", "alloc", "deadline"] {
        run_site("dml.seal", kind);
    }
}

/// The weighted ring 1->2->3->4->5->1 (`w` = 1..5) under views `g` and,
/// with `twin`, an identical `h`, so one statement can re-seal two views.
fn weighted_ring(cfg: EngineConfig, twin: bool) -> Database {
    let db = Database::with_config(cfg);
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO u VALUES (1), (2), (3), (4), (5)").unwrap();
    db.execute(
        "INSERT INTO r VALUES (100, 1, 2, 1.0), (101, 2, 3, 2.0), (102, 3, 4, 3.0), \
         (103, 4, 5, 4.0), (104, 5, 1, 5.0)",
    )
    .unwrap();
    for name in ["g", "h"].into_iter().take(1 + usize::from(twin)) {
        db.execute(&format!(
            "CREATE DIRECTED GRAPH VIEW {name} VERTEXES(ID = id) FROM u \
             EDGES(ID = id, FROM = a, TO = b, w = w) FROM r"
        ))
        .unwrap();
    }
    db
}

/// Shortest-path costs on `g` from every vertex to 4.
fn costs_to_4(db: &Database) -> Vec<String> {
    (1..=5)
        .map(|s| {
            let rs = db
                .execute(&format!(
                    "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
                     WHERE PS.StartVertex.Id = {s} AND PS.EndVertex.Id = 4"
                ))
                .unwrap();
            format!("{s}: {:?}", rs.rows)
        })
        .collect()
}

/// A fault at the re-seal after an attribute UPDATE rolls the statement
/// back, and SPScan answers the costs from before it: the sealed view's
/// edge columns never serve a value the rollback took back. `@1` faults
/// the one view's seal; `@2` faults the second view's after the first
/// (`g`) re-sealed and copied the new weights, which the rollback then
/// undoes under it.
#[test]
fn seal_fault_after_an_attribute_update_keeps_the_old_costs() {
    // Re-weights 102 (3->4) in place and relinks 100 (1->2 to 1->4): three
    // of five vertexes overlaid, so the statement re-seals.
    const STMT: &str = "UPDATE r SET w = w + 10.0, b = 4 WHERE id = 100 OR id = 102";
    let plain = EngineConfig {
        csr: grfusion::CsrConfig::adjacency_only(),
        ..Default::default()
    };
    for (twin, rule) in [(false, "0:dml.seal@1=error"), (true, "0:dml.seal@2=error")] {
        let db = weighted_ring(EngineConfig::default(), twin);
        let reference = weighted_ring(plain, twin);
        // An attribute UPDATE that commits: edge 101 reads its tuple now.
        for d in [&db, &reference] {
            d.execute("UPDATE r SET w = 7.0 WHERE id = 101").unwrap();
        }
        let old = costs_to_4(&reference);
        assert_eq!(costs_to_4(&db), old, "{rule}: before the fault");
        let before = db.state_dump().unwrap();
        db.set_fault_plan(Some(FaultPlan::parse(rule).unwrap()));
        assert!(db.execute(STMT).is_err(), "{rule}: the re-seal did not fault");
        assert_eq!(db.state_dump().unwrap(), before, "{rule}: not all-or-nothing");
        assert_eq!(costs_to_4(&db), old, "{rule}: the old costs after the rollback");
        // The rule is spent: the statement now re-seals, and the new costs
        // are the reference's.
        db.execute(STMT).unwrap();
        reference.execute(STMT).unwrap();
        assert_eq!(db.graph_stats("g").unwrap().overlay_bytes, 0, "{rule}: no re-seal");
        assert_eq!(costs_to_4(&db), costs_to_4(&reference), "{rule}: after the retry");
        assert_ne!(costs_to_4(&db), old, "{rule}: the retry changed no cost");
    }
}

#[test]
fn memory_cap_abort_mid_seal_leaves_engine_usable() {
    // The governor charges the compacted arrays *before* the re-seal
    // builds them: with a cap below the estimate, the triggering statement
    // aborts with a typed Bytes error, rolls back all-or-nothing, and the
    // topology stays on its previous (sealed + overlay) layout.
    let mut cfg = EngineConfig::default();
    cfg.governor.max_memory_bytes = Some(16);
    let db = social_db(cfg);
    let before = db.state_dump().unwrap();
    let err = db.execute("UPDATE r SET b = 4 WHERE id = 100").unwrap_err();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                kind: ResourceKind::Bytes,
                ..
            }
        ),
        "expected memory abort from the re-seal charge, got {err:?}"
    );
    assert_eq!(
        db.state_dump().unwrap(),
        before,
        "memory-capped re-seal was not all-or-nothing"
    );

    // Cap lifted: the identical statement succeeds, the deferred re-seal
    // folds the overlay back in, and the topology matches re-extraction.
    let mut cfg = db.config();
    cfg.governor.max_memory_bytes = None;
    db.set_config(cfg);
    db.execute("UPDATE r SET b = 4 WHERE id = 100").unwrap();
    let stats = db.graph_stats("g").unwrap();
    assert!(stats.sealed_bytes > 0, "re-seal did not run after cap lift");
    assert_eq!(stats.overlay_bytes, 0, "overlay not folded back by re-seal");
    assert_reextraction_consistent(&db);
}

#[test]
fn cancel_during_sealed_bfs() {
    // Cooperative cancellation must reach a BFS traversing the sealed CSR
    // arrays just as it reaches the adjacency path.
    let mut cfg = EngineConfig::default();
    cfg.optimizer.default_max_path_len = 10;
    let db = clique_db(12, cfg);
    let stats = db.graph_stats("g").unwrap();
    assert!(stats.sealed_bytes > 0, "fixture topology is not sealed");

    let token = db.cancel_token();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        });
        let start = Instant::now();
        let err = db
            .execute(
                "SELECT COUNT(P) FROM g.Paths P HINT(BFS) \
                 WHERE P.Length >= 1 AND P.Length <= 8",
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                Error::ResourceExhausted {
                    kind: ResourceKind::Cancelled,
                    ..
                }
            ),
            "expected cancellation on sealed BFS, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancellation latency unreasonable on sealed layout"
        );
    });
    // No reset step: cancellation is edge-triggered and the engine is
    // immediately usable.
    assert_engine_usable(&db, 12);
}

