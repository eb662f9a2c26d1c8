//! Performance-shape regression tests (run with `--ignored`): assert the
//! paper's qualitative results with wide margins so they survive noisy
//! machines. These are the guardrails behind EXPERIMENTS.md — if a future
//! change makes GRFusion slower than the join-based baseline on deep
//! traversals, something fundamental broke.

use std::time::Instant;

use grfusion_baselines::{GrFusionSystem, GrailSystem, GraphSystem, SqlGraphSystem};
use grfusion_datasets::{
    coauthor, follower, pairs_at_distance, protein, random_connected_pairs, Adjacency,
};

/// Row-shape and emission-order locks for PathScan (these run on every
/// `cargo test`, no `--ignored` needed): the exact rows and their exact
/// order on a fixed diamond-chain graph must not move.
mod emission_order_shape {
    use grfusion::{Database, Value};

    /// Fixed topology: 1->2, 1->3, 2->4, 3->4, 4->5, 5->6 (directed).
    pub(super) fn diamond_db() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
        db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
            .unwrap();
        let vrows: Vec<Vec<Value>> = (1..=6i64).map(|i| vec![Value::Integer(i)]).collect();
        db.bulk_insert("v", vrows).unwrap();
        let edges = [(10i64, 1i64, 2i64), (11, 1, 3), (12, 2, 4), (13, 3, 4), (14, 4, 5), (15, 5, 6)];
        let erows: Vec<Vec<Value>> = edges
            .iter()
            .map(|(id, a, b)| {
                vec![
                    Value::Integer(*id),
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
        db
    }

    /// Rows rendered `col|col|...` in emission order (never sorted).
    fn rows(db: &Database, sql: &str) -> Vec<String> {
        db.execute(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect()
    }

    /// Run `sql` on the diamond and assert the locked output.
    fn assert_locked(sql: &str, expected: &[&str]) {
        assert_eq!(rows(&diamond_db(), sql), expected, "sql={sql}");
    }

    #[test]
    fn dfs_anchored_order_is_locked() {
        assert_locked(
            "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(DFS) \
             WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 3",
            &[
                "1->2|1",
                "1->2->4|2",
                "1->2->4->5|3",
                "1->3|1",
                "1->3->4|2",
                "1->3->4->5|3",
            ],
        );
    }

    #[test]
    fn bfs_anchored_order_is_locked() {
        assert_locked(
            "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(BFS) \
             WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 3",
            &[
                "1->2|1",
                "1->3|1",
                "1->2->4|2",
                "1->3->4|2",
                "1->2->4->5|3",
                "1->3->4->5|3",
            ],
        );
    }

    #[test]
    fn dfs_all_vertexes_order_is_locked() {
        // Multi-seed scan: seed order is vertex insertion order, and DFS
        // drains each seed before the next.
        assert_locked(
            "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
             WHERE PS.Length >= 1 AND PS.Length <= 1",
            &["1->2", "1->3", "2->4", "3->4", "4->5", "5->6"],
        );
    }

    #[test]
    fn bfs_all_vertexes_order_is_locked() {
        // BFS interleaves seeds by level: all length-1 paths in seed
        // order, then all length-2 paths in seed order.
        assert_locked(
            "SELECT PS.PathString FROM g.Paths PS HINT(BFS) \
             WHERE PS.Length >= 1 AND PS.Length <= 2",
            &[
                "1->2",
                "1->3",
                "2->4",
                "3->4",
                "4->5",
                "5->6",
                "1->2->4",
                "1->3->4",
                "2->4->5",
                "3->4->5",
                "4->5->6",
            ],
        );
    }

    #[test]
    fn shortest_path_row_is_locked() {
        // Bounded SHORTESTPATH uses the enumerative SPScan.
        assert_locked(
            "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
             WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5 AND PS.Length <= 4 LIMIT 1",
            &["1->2->4->5|3"],
        );
    }

    #[test]
    fn reachability_fast_path_shape_is_locked() {
        // The planner-proven reachability fast path: one point-to-point
        // search answers the LIMIT 1.
        assert_locked(
            "SELECT PS.Length FROM g.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 6 AND PS.Length <= 10 LIMIT 1",
            &["4"],
        );
    }
}

/// Typed-EXPLAIN shape locks: the statically inferred per-node schema
/// (`label :: (name TYPE, nullable TYPE?, ...)`) on the diamond fixture
/// must not drift — these lock both the plan shape *and* the analyzer's
/// type/nullability inference. These run on every `cargo test`.
mod typed_explain_shape {
    use super::emission_order_shape::diamond_db;
    use grfusion::{Database, OptimizerFlags};

    fn explain_lines_on(db: &Database, sql: &str) -> Vec<String> {
        db.explain(sql).unwrap().lines().map(str::to_string).collect()
    }

    fn explain_lines(sql: &str) -> Vec<String> {
        explain_lines_on(&diamond_with(|_| {}), sql)
    }

    /// The diamond with one optimizer flag changed from the default.
    fn diamond_with(change: impl FnOnce(&mut OptimizerFlags)) -> Database {
        let db = diamond_db();
        let mut cfg = db.config();
        change(&mut cfg.optimizer);
        db.set_config(cfg);
        db
    }

    const ENUMERATION: &str = "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(DFS) \
         WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 3 \
         ORDER BY PS.Length LIMIT 5";
    const ANCHORED_COUNT: &str = "SELECT COUNT(PS) FROM g.Paths PS \
         WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 2";

    #[test]
    fn path_enumeration_schema_is_locked() {
        assert_eq!(
            explain_lines(ENUMERATION),
            [
                "Limit(5) :: (pathstring VARCHAR, length INTEGER)",
                "  Project(2 cols) :: (pathstring VARCHAR, length INTEGER)",
                "    Sort(1 keys) :: (ps PATH)",
                "      PathScan(g, Dfs, len 1..=3) :: (ps PATH)",
            ],
            "no Filter: the scan is seeded at vertex 1 (start anchor consumed) and its \
             window is exactly 1..=3 (both Length bounds consumed), so no conjunct is left"
        );
    }

    #[test]
    fn length_inference_off_keeps_the_length_filter() {
        // Ablation: without §6.1 the window is the default cap, so the
        // Length bounds are not the scan's to enforce and stay residual.
        // The start anchor seeds the scan either way and is still consumed.
        let db = diamond_with(|o| o.length_inference = false);
        let cap = db.config().optimizer.default_max_path_len;
        assert_eq!(
            explain_lines_on(&db, ENUMERATION),
            [
                "Limit(5) :: (pathstring VARCHAR, length INTEGER)".to_string(),
                "  Project(2 cols) :: (pathstring VARCHAR, length INTEGER)".to_string(),
                "    Sort(1 keys) :: (ps PATH)".to_string(),
                "      Filter :: (ps PATH)".to_string(),
                format!("        PathScan(g, Dfs, len 0..={cap}) :: (ps PATH)"),
            ]
        );
    }

    #[test]
    fn aggregation_schema_is_locked() {
        assert_eq!(
            explain_lines(
                "SELECT PS.Length, COUNT(PS) FROM g.Paths PS \
                 WHERE PS.Length >= 1 AND PS.Length <= 2 GROUP BY PS.Length"
            ),
            [
                "Project(2 cols) :: (length INTEGER, count INTEGER)",
                "  Aggregate(1 groups, 1 aggs) :: (_g0 INTEGER, _a0 INTEGER)",
                "    PathScan(g, Auto, len 1..=2) :: (ps PATH)",
            ],
            "no Filter: both Length bounds are the window 1..=2; no emit=count: a \
             grouped aggregate reads each path's Length, so the paths are materialized"
        );
    }

    #[test]
    fn ungrouped_count_is_a_counting_scan() {
        assert_eq!(
            explain_lines(ANCHORED_COUNT),
            [
                "Project(1 cols) :: (count INTEGER)",
                "  PathScan(g, Auto, len 1..=2, emit=count) :: (_a0 INTEGER)",
            ],
            "anchor and both Length bounds are consumed, which leaves COUNT(PS) directly \
             over a standalone scan: the scan counts and emits the aggregate's one row"
        );
        // COUNT(*), and both at once, take the same shape; one column each.
        assert_eq!(
            explain_lines(
                "SELECT COUNT(*), COUNT(PS) FROM g.Paths PS HINT(BFS) WHERE PS.Length = 2"
            ),
            [
                "Project(2 cols) :: (count INTEGER, count INTEGER)",
                "  PathScan(g, Bfs, len 2..=2, emit=count) :: (_a0 INTEGER, _a1 INTEGER)",
            ]
        );
        // A conjunct the scan does not enforce by construction (the end
        // anchor is only ever residual) keeps the materializing plan.
        assert_eq!(
            explain_lines(
                "SELECT COUNT(PS) FROM g.Paths PS \
                 WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 AND PS.Length = 2"
            ),
            [
                "Project(1 cols) :: (count INTEGER)",
                "  Aggregate(0 groups, 1 aggs) :: (_a0 INTEGER)",
                "    Filter :: (ps PATH)",
                "      PathScan(g, Auto, len 2..=2) :: (ps PATH)",
            ]
        );
    }

    #[test]
    fn aggregate_pushdown_off_keeps_the_aggregate() {
        let db = diamond_with(|o| o.aggregate_pushdown = false);
        assert_eq!(
            explain_lines_on(&db, ANCHORED_COUNT),
            [
                "Project(1 cols) :: (count INTEGER)",
                "  Aggregate(0 groups, 1 aggs) :: (_a0 INTEGER)",
                "    PathScan(g, Auto, len 1..=2) :: (ps PATH)",
            ]
        );
    }

    #[test]
    fn explain_analyze_keeps_the_counted_cardinality() {
        let db = diamond_db();
        let rs = db.execute(&format!("EXPLAIN ANALYZE {ANCHORED_COUNT}")).unwrap();
        let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        let scan = text
            .iter()
            .find(|l| l.trim_start().starts_with("PathScan("))
            .unwrap_or_else(|| panic!("no PathScan line in {text:?}"));
        // 1->2, 1->3, 1->2->4, 1->3->4.
        assert!(scan.contains("(rows=1 paths=4 nexts=2 "), "{scan}");
        // Only a counting scan prints it.
        assert!(!text.iter().any(|l| l.contains("Project") && l.contains("paths=")), "{text:?}");
    }

    #[test]
    fn vertex_scan_schema_is_locked() {
        // The synthesized id/fanin/fanout columns are NOT NULL (no `?`).
        assert_eq!(
            explain_lines("SELECT V.id, V.fanout FROM g.Vertexes V WHERE V.fanout > 1"),
            [
                "Project(2 cols) :: (id INTEGER, fanout INTEGER)",
                "  VertexScan(g) :: (id INTEGER, fanin INTEGER, fanout INTEGER)",
            ]
        );
    }

    #[test]
    fn cross_model_join_schema_is_locked() {
        // Table columns stay conservatively nullable (`?`); the appended
        // path column never is.
        assert_eq!(
            explain_lines(
                "SELECT v.id, PS.Length FROM v, g.Paths PS \
                 WHERE PS.StartVertex.Id = v.id AND PS.Length = 1"
            ),
            [
                "Project(2 cols) :: (id INTEGER?, length INTEGER)",
                "  PathJoin(g, Auto, len 1..=1) :: (id INTEGER?, ps PATH)",
                "    TableScan(v) :: (id INTEGER?)",
            ],
            "no Filter: each probe is seeded from v.id (the start-anchor conjunct is the \
             join's probe key) and walks exactly one hop (Length = 1 is the window)"
        );
    }
}

/// Counter-shape locks for `EXPLAIN ANALYZE`: on a fixed topology the
/// per-operator runtime counters are fully deterministic, so any drift in
/// rows / vertices visited / edges expanded signals a traversal or
/// instrumentation regression. These run on every `cargo test`.
mod explain_analyze_shape {
    use super::emission_order_shape::diamond_db;

    /// Anchored BFS from vertex 1, window 1..=3 on the diamond graph:
    /// paths 1-2, 1-3, 1-2-4, 1-3-4, 1-2-4-5, 1-3-4-5.
    const ANCHORED: &str = "SELECT PS.PathString FROM g.Paths PS \
                            WHERE PS.StartVertex.Id = 1 \
                            AND PS.Length >= 1 AND PS.Length <= 3";

    #[test]
    fn pathscan_counters_are_locked() {
        let db = diamond_db();
        let rs = db.execute_with_metrics(ANCHORED).unwrap();
        assert_eq!(rs.rows.len(), 6);
        let m = rs.metrics.expect("metrics requested but absent");
        let scan = m.node("PathScan").expect("no PathScan node in plan");
        assert_eq!(scan.rows, 6);
        assert_eq!(
            scan.next_calls, 2,
            "no LIMIT above, so the scan is asked for 1024 rows: one call returns all 6, \
             and a batch shorter than the demand does not mean exhausted, so a second call \
             learns that"
        );
        let g = scan.graph.expect("PathScan reported no graph counters");
        assert_eq!(g.vertices_visited, 7);
        assert_eq!(g.edges_expanded, 6);
        assert_eq!(g.tuple_derefs, 0, "no edge/vertex attrs referenced");
        // Every node in the tree was pulled at least once and timed.
        for n in &m.nodes {
            assert!(n.next_calls > 0, "unpulled node {}", n.label);
        }
    }

    /// A pushed edge test reads a sealed edge's `w` from the view's
    /// columns; once an UPDATE changed `w`, through the tuple pointer,
    /// which counts.
    #[test]
    fn pushed_predicate_counts_tuple_derefs() {
        let db = diamond_db();
        let derefs = |db: &grfusion::Database| {
            let rs = db
                .execute_with_metrics(
                    "SELECT PS.PathString FROM g.Paths PS \
                     WHERE PS.StartVertex.Id = 1 \
                     AND PS.Length >= 1 AND PS.Length <= 3 \
                     AND PS.Edges[0..*].w > 0.5",
                )
                .unwrap();
            assert_eq!(rs.rows.len(), 6); // all weights are above 0.5
            rs.metrics.unwrap().graph_totals().tuple_derefs
        };
        assert_eq!(derefs(&db), 0, "a sealed edge's weight is read from its column");
        db.execute("UPDATE e SET w = 2.0").unwrap();
        assert!(derefs(&db) > 0, "edge-weight predicate never dereferenced");
    }

    #[test]
    fn explain_analyze_prints_nonzero_counters() {
        let db = diamond_db();
        let rs = db.execute(&format!("EXPLAIN ANALYZE {ANCHORED}")).unwrap();
        let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        let plan = text.join("\n");
        assert!(plan.contains("rows=6"), "plan lacks row counts:\n{plan}");
        assert!(plan.contains("vertices=7"), "plan lacks traversal counters:\n{plan}");
        assert!(plan.contains("edges=6"), "plan lacks edge counters:\n{plan}");
        // Plain EXPLAIN stays un-annotated.
        let rs = db.execute(&format!("EXPLAIN {ANCHORED}")).unwrap();
        let plain: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        assert!(!plain.join("\n").contains("rows="), "EXPLAIN must not run the query");
    }

    /// Governor-counter lock (the counters are fully deterministic). With
    /// a memory cap armed, every node performs exactly one cooperative
    /// check on the diamond fixture (the end-of-stream check; pull counts
    /// never reach the 64-pull interval), and the PathScan charges exactly
    /// the sum of `path_bytes` over its six paths.
    #[test]
    fn governor_counters_are_locked() {
        use grfusion::governor::path_bytes;
        use grfusion_common::PathData;

        let db = diamond_db();
        let mut cfg = db.config();
        cfg.governor.max_memory_bytes = Some(64 * 1024 * 1024);
        db.set_config(cfg);

        let rs = db.execute_with_metrics(ANCHORED).unwrap();
        assert_eq!(rs.rows.len(), 6);
        let m = rs.metrics.expect("metrics requested but absent");
        for n in &m.nodes {
            let g = n.gov.unwrap_or_else(|| {
                panic!("governor active but node {} has no gov counters", n.label)
            });
            assert_eq!(g.checks, 1, "node {}: one end-of-stream check", n.label);
        }
        // Expected bytes: the six anchored paths 1-2, 1-3, 1-2-4, 1-3-4,
        // 1-2-4-5, 1-3-4-5 through the deterministic estimator.
        let paths: [(&[i64], &[i64]); 6] = [
            (&[1, 2], &[10]),
            (&[1, 3], &[11]),
            (&[1, 2, 4], &[10, 12]),
            (&[1, 3, 4], &[11, 13]),
            (&[1, 2, 4, 5], &[10, 12, 14]),
            (&[1, 3, 4, 5], &[11, 13, 15]),
        ];
        let expected: u64 = paths
            .iter()
            .map(|(vs, es)| {
                path_bytes(&PathData::new(
                    "g".into(),
                    vs.iter().copied(),
                    es.iter().copied(),
                    es.len() as f64,
                ))
            })
            .sum();
        let scan = m.node("PathScan").expect("no PathScan node");
        assert_eq!(scan.gov.unwrap().bytes, expected);
        // The textual EXPLAIN ANALYZE carries the same counters; without a
        // governor the segment is absent entirely.
        let rs = db
            .execute(&format!("EXPLAIN ANALYZE {}", ANCHORED))
            .unwrap();
        let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        let plan = text.join("\n");
        assert!(
            plan.contains(&format!("(bytes={expected} checks=1)")),
            "plan lacks governor counters:\n{plan}"
        );
        let mut cfg = db.config();
        cfg.governor.max_memory_bytes = None;
        db.set_config(cfg);
        let rs = db.execute(&format!("EXPLAIN ANALYZE {}", ANCHORED)).unwrap();
        let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
        assert!(
            !text.join("\n").contains("bytes="),
            "inactive governor must not annotate the plan"
        );
    }

    /// Arm a memory cap, so `EXPLAIN ANALYZE` prints governor counters,
    /// and pick lazy or eager path scans.
    fn capped(db: &grfusion::Database, eager: bool) {
        let mut cfg = db.config();
        cfg.governor.max_memory_bytes = Some(1 << 40);
        cfg.optimizer.lazy_path_scan = !eager;
        db.set_config(cfg);
    }

    /// The `vertices=…` and `bytes=…` segments of the `EXPLAIN ANALYZE`
    /// line of the first node whose label starts with `node`.
    fn counters(db: &grfusion::Database, sql: &str, node: &str) -> [String; 2] {
        let rs = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
        let plan = (rs.rows.iter().map(|r| r[0].to_string()))
            .collect::<Vec<_>>()
            .join("\n");
        let line = (plan.lines().find(|l| l.trim_start().starts_with(node)))
            .unwrap_or_else(|| panic!("no {node} in:\n{plan}"));
        ["vertices=", "bytes="].map(|key| {
            (line.split(['(', ')']).find(|s| s.starts_with(key)))
                .unwrap_or_else(|| panic!("{node} prints no {key}:\n{plan}"))
                .to_string()
        })
    }

    /// `derefs=` counts tuple reads only. On a sealed chain 1->…->10, a
    /// constrained reach and a SPScan under a pushed `sel` test read every
    /// edge's `sel` from the view's columns; an edge inserted after the
    /// seal (1->4, overlaid below the re-seal threshold) is read through
    /// its tuple pointer, and that read counts.
    #[test]
    fn sealed_reads_count_no_derefs_overlaid_ones_do() {
        let db = grfusion::Database::new();
        db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
        db.execute(
            "CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE, sel INTEGER)",
        )
        .unwrap();
        for i in 1..=10 {
            db.execute(&format!("INSERT INTO v VALUES ({i})")).unwrap();
        }
        for i in 1..=9 {
            db.execute(&format!("INSERT INTO e VALUES ({i}, {i}, {}, {i}.0, 10)", i + 1))
                .unwrap();
        }
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
             EDGES(ID = id, FROM = a, TO = b, w = w, sel = sel) FROM e",
        )
        .unwrap();
        let reach = "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 1 \
                     AND PS.EndVertex.Id = 4 AND PS.Length <= 5 AND PS.Edges[0..*].sel < 50 LIMIT 1";
        let sp = "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
                  WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 AND PS.Edges[0..*].sel < 50";
        let counters = |sql: &str| {
            let rs = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            let plan: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
            let line = (plan.iter().find(|l| l.trim_start().starts_with("PathScan")))
                .unwrap_or_else(|| panic!("no PathScan in:\n{}", plan.join("\n")));
            let at = line.find("(vertices=").unwrap();
            line[at..].to_string()
        };
        assert_eq!(counters(reach), "(vertices=4 edges=3 derefs=0) (layout=csr)");
        assert_eq!(counters(sp), "(vertices=4 edges=3 derefs=0) (layout=csr)");
        db.execute("INSERT INTO e VALUES (100, 1, 4, 0.5, 10)").unwrap();
        assert_eq!(counters(reach), "(vertices=3 edges=2 derefs=1) (layout=delta(2))");
        // Both paths to 4, cheapest first: the new edge is tested once.
        assert_eq!(counters(sp), "(vertices=5 edges=4 derefs=1) (layout=delta(2))");
    }

    /// A path join over two outer rows sums its probes' traversal
    /// counters and the bytes their paths were charged. The outer rows
    /// probe from 3 and then from 1, so under `LIMIT 1` the reachability
    /// probe from 3 finds nothing and the one from 1 finds 1-2.
    #[test]
    fn path_join_counters_are_locked() {
        let lazy = "SELECT s.sid, PS.PathString FROM s, g.Paths PS \
                    WHERE PS.StartVertex.Id = s.vid AND PS.Length >= 1 AND PS.Length <= 2";
        let reach = "SELECT s.sid, PS.Length FROM s, g.Paths PS \
                     WHERE PS.StartVertex.Id = s.vid AND PS.EndVertex.Id = 2 LIMIT 1";
        for (sql, eager, expected) in [
            (lazy, false, ["vertices=8 edges=6 derefs=0", "bytes=678 checks=1"]),
            (reach, false, ["vertices=6 edges=4 derefs=0", "bytes=105 checks=0"]),
            (lazy, true, ["vertices=8 edges=6 derefs=0", "bytes=678 checks=1"]),
        ] {
            let db = diamond_db();
            db.execute("CREATE TABLE s (sid INTEGER PRIMARY KEY, vid INTEGER)")
                .unwrap();
            db.execute("INSERT INTO s VALUES (1, 3), (2, 1)").unwrap();
            capped(&db, eager);
            assert_eq!(counters(&db, sql, "PathJoin"), expected, "eager={eager} {sql}");
        }
    }

    /// A standalone scan whose probe buffers its paths — the reachability
    /// search under `LIMIT 1`, or an eager scan — reports the bytes it
    /// charged, as the same probe does under a path join: the paths'
    /// `path_bytes`, 1-2-3-4-5 alone or all five paths from 1.
    #[test]
    fn buffered_scan_reports_the_bytes_it_charged() {
        use grfusion::governor::path_bytes_at;

        let db = grfusion::Database::new();
        db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
        db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
            .unwrap();
        db.execute("CREATE TABLE s (sid INTEGER PRIMARY KEY, vid INTEGER)")
            .unwrap();
        db.execute("INSERT INTO v VALUES (1), (2), (3), (4), (5)").unwrap();
        db.execute("INSERT INTO e VALUES (1, 1, 2), (2, 2, 3), (3, 3, 4), (4, 4, 5)")
            .unwrap();
        db.execute("INSERT INTO s VALUES (1, 1)").unwrap();
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
             EDGES(ID = id, FROM = a, TO = b) FROM e",
        )
        .unwrap();
        let reach = "PS.EndVertex.Id = 5 LIMIT 1";
        for (eager, tail, bytes) in [
            (false, reach, path_bytes_at(1, 4)),
            (true, "PS.Length >= 0", (0..=4).map(|l| path_bytes_at(1, l)).sum()),
        ] {
            assert_eq!(bytes, [153, 605][usize::from(eager)]);
            capped(&db, eager);
            let scan = counters(
                &db,
                &format!("SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 1 AND {tail}"),
                "PathScan",
            );
            let join = counters(
                &db,
                &format!(
                    "SELECT s.sid, PS.Length FROM s, g.Paths PS \
                     WHERE PS.StartVertex.Id = s.vid AND {tail}"
                ),
                "PathJoin",
            );
            assert_eq!(scan, join, "eager={eager}");
            assert!(scan[1].starts_with(&format!("bytes={bytes} ")), "eager={eager}: {scan:?}");
        }
    }
}

/// Sealed-CSR layout locks: exact byte footprints of the compacted arrays
/// on the diamond fixture, the `layout=` annotation in `EXPLAIN ANALYZE`,
/// and the delta-overlay → re-seal lifecycle. The byte values are fully
/// determined by the seal's `with_capacity` allocations, so any drift
/// signals a change to the CSR memory layout (and to what the governor
/// charges for it). These run on every `cargo test`.
mod csr_layout_shape {
    use super::emission_order_shape::diamond_db;

    const ANCHORED: &str = "SELECT PS.PathString FROM g.Paths PS \
                            WHERE PS.StartVertex.Id = 1 \
                            AND PS.Length >= 1 AND PS.Length <= 3";

    fn analyze_text(db: &grfusion::Database) -> String {
        let rs = db.execute(&format!("EXPLAIN ANALYZE {ANCHORED}")).unwrap();
        rs.rows
            .iter()
            .map(|r| r[0].to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn sealed_bytes_and_layout_lifecycle_are_locked() {
        let db = diamond_db();

        // Freshly materialized: sealed, no overlay. 6 vertexes / 6 directed
        // edges compact to (7+7) u32 offsets + 6 out-targets + 6 out-heads
        // + 6 in-targets = 128 bytes, and the `w` column to 6 doubles = 48
        // bytes (no NULL and no stale edge, so no bit map).
        let s = db.graph_stats("g").unwrap();
        assert_eq!(s.sealed_bytes, 128 + 48, "sealed CSR byte footprint drifted");
        assert_eq!(s.overlay_bytes, 0);
        assert!(
            s.memory_bytes >= s.sealed_bytes,
            "total footprint must include the sealed arrays"
        );
        assert!(analyze_text(&db).contains("(layout=csr)"), "{}", analyze_text(&db));

        // One new vertex diverts to the delta overlay (1/7 < the 0.25
        // re-seal threshold, so the statement does not re-seal).
        db.execute("INSERT INTO v VALUES (7)").unwrap();
        let s = db.graph_stats("g").unwrap();
        assert_eq!(s.sealed_bytes, 128 + 48, "seal must not rebuild below threshold");
        assert!(analyze_text(&db).contains("(layout=delta(1))"), "{}", analyze_text(&db));

        // An edge insert touches both endpoints: 3/7 overlaid ≥ 0.25, so
        // the same statement re-seals — overlay folded back, CSR rebuilt
        // for 7 vertexes / 7 edges: (8+8) u32 offsets + 7+7+7 slots = 148,
        // and the `w` column for 7 edges: 56.
        db.execute("INSERT INTO e VALUES (16, 6, 7, 1.0)").unwrap();
        let s = db.graph_stats("g").unwrap();
        assert_eq!(s.sealed_bytes, 148 + 56, "re-sealed CSR byte footprint drifted");
        assert_eq!(s.overlay_bytes, 0, "re-seal left overlay bytes behind");
        assert!(analyze_text(&db).contains("(layout=csr)"), "{}", analyze_text(&db));
    }
}

/// Consumption-parity locks: what the planner's conjunct-consumption rules
/// decide, pinned per query. EXPLAIN does not print a pushed predicate, so
/// each case records three things: the typed EXPLAIN lines, the row
/// multiset, and the `vertices=` / `edges=` / tuple-deref counters of every
/// PathScan and PathJoin, which are what show a predicate pushed into the
/// traversal. Anchors in every spelling, every `Length` bound, ranged
/// edge/vertex predicates, running `SUM` bounds, every closing spelling,
/// the reachability fast path, leaf pushdown, `IndexLookup` and
/// `IndexJoin` are each covered. These run on every `cargo test`.
mod consumption_parity {
    use super::emission_order_shape::diamond_db;
    use grfusion::{Database, Value};

    /// The diamond with weights 1..6 (`w = id - 9`), a back edge 5->1
    /// (w 7) that closes two 4-cycles, and two relational tables: `s`
    /// (a probe source whose `vid` names a vertex) and `u` (hash-indexed on
    /// `uid`, referring back to `s` through `sref`).
    fn parity_db() -> Database {
        let db = diamond_db();
        for sql in [
            "UPDATE e SET w = id - 9",
            "INSERT INTO e VALUES (16, 5, 1, 7.0)",
            "CREATE TABLE s (sid INTEGER PRIMARY KEY, vid INTEGER, k INTEGER)",
            "INSERT INTO s VALUES (1, 1, 10), (2, 4, 20), (3, 9, 30)",
            "CREATE TABLE u (uid INTEGER PRIMARY KEY, sref INTEGER, z INTEGER)",
            "INSERT INTO u VALUES (1, 2, 5), (2, 1, 6), (3, 3, 7), (4, 7, 8)",
        ] {
            db.execute(sql).unwrap();
        }
        db
    }

    fn sorted_rows(rows: &[Vec<Value>]) -> String {
        let mut rows: Vec<String> = rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            })
            .collect();
        rows.sort();
        rows.join("; ")
    }

    /// EXPLAIN lines, then the sorted rows, then one counter line per
    /// PathScan / PathJoin.
    fn fingerprint(db: &Database, sql: &str) -> Vec<String> {
        let mut out: Vec<String> = db
            .explain(sql)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        let rs = db.execute_with_metrics(sql).unwrap();
        out.push(format!("rows: {}", sorted_rows(&rs.rows)));
        for n in &rs.metrics.expect("metrics requested but absent").nodes {
            if n.label.starts_with("PathScan") || n.label.starts_with("PathJoin") {
                let g = n.graph.unwrap_or_default();
                out.push(format!(
                    "vertices={} edges={} derefs={}",
                    g.vertices_visited, g.edges_expanded, g.tuple_derefs
                ));
            }
        }
        out
    }

    /// A prepared statement: its plan, then the sorted rows it returns for
    /// `params`.
    fn prepared_fingerprint(db: &Database, sql: &str, params: &[i64]) -> Vec<String> {
        let q = db.prepare(sql).unwrap();
        let params: Vec<Value> = params.iter().map(|p| Value::Integer(*p)).collect();
        let rs = db.execute_prepared(&q, &params).unwrap();
        let mut out: Vec<String> = q.explain().lines().map(str::to_string).collect();
        out.push(format!("rows: {}", sorted_rows(&rs.rows)));
        out
    }

    fn check(cases: &[(&str, &[&str])]) {
        check_on(&parity_db(), cases);
    }

    fn check_on(db: &Database, cases: &[(&str, &[&str])]) {
        for (sql, want) in cases {
            assert_eq!(fingerprint(db, sql), *want, "sql={sql}");
        }
    }

    /// Start anchors in every spelling, mirrored, against a constant and against an
    /// outer column (PathJoin, also from another path); end anchors stay
    /// residual; `Vertexes[0]` is not an anchor.
    #[test]
    fn start_and_end_anchors() {
        check(&[
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 2 AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 2; 2->4; 2->4->5",
                    "vertices=3 edges=2 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex.Id = 2 AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 2; 2->4; 2->4->5",
                    "vertices=3 edges=2 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertexId = 2 AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 2; 2->4; 2->4->5",
                    "vertices=3 edges=2 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE 2 = PS.StartVertex.Id AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 2; 2->4; 2->4->5",
                    "vertices=3 edges=2 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE 2 = PS.StartVertexId AND 2 = PS.StartVertex",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 2; 2->4; 2->4->5; 2->4->5->1; 2->4->5->1->2; 2->4->5->1->3; 2->4->5->6",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.EndVertex = 4 AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 1->2->4; 1->3->4; 2->4; 3->4; 4",
                    "vertices=21 edges=15 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.EndVertex.Id = 4 AND PS.StartVertex = 1",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2->4; 1->3->4",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE 4 = PS.EndVertexId AND PS.StartVertex = 1",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2->4; 1->3->4",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Vertexes[0].Id = 1 AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->3; 1->3->4",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Vertexes[0] = 1 AND PS.Length = 1",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 1..=1) :: (ps PATH)",
                    "rows: 1->2; 1->3",
                    "vertices=13 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.StartVertex.Id = s.vid AND PS.Length = 1",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  PathJoin(g, Auto, len 1..=1) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|1->2; 1|1->3; 2|4->5",
                    "vertices=5 edges=3 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE s.vid = PS.StartVertexId AND PS.Length <= 2",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  PathJoin(g, Auto, len 0..=2) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|1; 1|1->2; 1|1->2->4; 1|1->3; 1|1->3->4; 2|4; 2|4->5; 2|4->5->1; 2|4->5->6",
                    "vertices=9 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.StartVertex = s.vid AND PS.EndVertex = 5 AND PS.Length <= 3",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    PathJoin(g, Auto, len 0..=3) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|1->2->4->5; 1|1->3->4->5; 2|4->5",
                    "vertices=13 edges=11 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.EndVertex = s.vid AND PS.Length = 1",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    NestedLoopJoin(cross) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "      PathScan(g, Auto, len 1..=1) :: (ps PATH)",
                    "rows: 1|5->1; 2|2->4; 2|3->4",
                    "vertices=13 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.StartVertex = s.vid + 1 AND PS.Length = 1",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  PathJoin(g, Auto, len 1..=1) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|2->4; 2|5->1; 2|5->6",
                    "vertices=5 edges=3 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.StartVertex = 1 AND s.sid = 2 AND PS.Length = 1",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  NestedLoopJoin(cross) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    IndexLookup(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "    PathScan(g, Auto, len 1..=1) :: (ps PATH)",
                    "rows: 2|1->2; 2|1->3",
                    "vertices=3 edges=2 derefs=0",
                ],
            ),
            (
                "SELECT P1.PathString, P2.PathString FROM g.Paths P1, g.Paths P2 WHERE P1.StartVertex = 1 AND P1.Length = 1 AND P2.StartVertex = P1.EndVertex AND P2.Length = 1",
                &[
                    "Project(2 cols) :: (pathstring VARCHAR, pathstring VARCHAR)",
                    "  PathJoin(g, Auto, len 1..=1) :: (p1 PATH, p2 PATH)",
                    "    PathScan(g, Auto, len 1..=1) :: (p1 PATH)",
                    "rows: 1->2|2->4; 1->3|3->4",
                    "vertices=4 edges=2 derefs=0",
                    "vertices=3 edges=2 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = PS.EndVertex AND PS.Length = 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 4..=4, closing) :: (ps PATH)",
                    "rows: 1->2->4->5->1; 1->3->4->5->1; 2->4->5->1->2; 3->4->5->1->3; 4->5->1->2->4; 4->5->1->3->4; 5->1->2->4->5; 5->1->3->4->5",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
        ]);
    }

    /// Every `Length` comparison, mirrored, `BETWEEN`, an empty window, and the
    /// shapes that are not a bound (`<>`, `NOT BETWEEN`, a DOUBLE, itself).
    #[test]
    fn length_bounds() {
        check(&[
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length = 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 2..=2) :: (ps PATH)",
                    "rows: 1->2->4; 1->3->4; 2->4->5; 3->4->5; 4->5->1; 4->5->6; 5->1->2; 5->1->3",
                    "vertices=21 edges=15 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length < 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 0..=1) :: (ps PATH)",
                    "rows: 1; 1->2; 1->3; 2; 2->4; 3; 3->4; 4; 4->5; 5; 5->1; 5->6; 6",
                    "vertices=13 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length <= 2 AND PS.StartVertex = 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 3; 3->4; 3->4->5",
                    "vertices=3 edges=2 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length > 2 AND PS.StartVertex = 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 3..=8) :: (ps PATH)",
                    "rows: 3->4->5->1; 3->4->5->1->2; 3->4->5->1->3; 3->4->5->6",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length >= 3 AND PS.StartVertex = 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 3..=8) :: (ps PATH)",
                    "rows: 3->4->5->1; 3->4->5->1->2; 3->4->5->1->3; 3->4->5->6",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length <> 1 AND PS.StartVertex = 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 3; 3->4->5; 3->4->5->1; 3->4->5->1->2; 3->4->5->1->3; 3->4->5->6",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length BETWEEN 1 AND 2 AND PS.StartVertex = 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 1..=2) :: (ps PATH)",
                    "rows: 4->5; 4->5->1; 4->5->6",
                    "vertices=4 edges=3 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length NOT BETWEEN 1 AND 2 AND PS.StartVertex = 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 4; 4->5->1->2; 4->5->1->2->4; 4->5->1->3; 4->5->1->3->4",
                    "vertices=8 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE 2 = PS.Length",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 2..=2) :: (ps PATH)",
                    "rows: 1->2->4; 1->3->4; 2->4->5; 3->4->5; 4->5->1; 4->5->6; 5->1->2; 5->1->3",
                    "vertices=21 edges=15 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE 2 > PS.Length AND PS.StartVertex = 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 0..=1) :: (ps PATH)",
                    "rows: 4; 4->5",
                    "vertices=2 edges=1 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE 2 <= PS.Length AND PS.StartVertex = 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 2..=8) :: (ps PATH)",
                    "rows: 4->5->1; 4->5->1->2; 4->5->1->2->4; 4->5->1->3; 4->5->1->3->4; 4->5->6",
                    "vertices=8 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length < 0",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 1..=0) :: (ps PATH)",
                    "rows: ",
                    "vertices=6 edges=0 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length = 1 AND PS.Length = 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 2..=1) :: (ps PATH)",
                    "rows: ",
                    "vertices=13 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length = 1.0",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2; 1->3; 2->4; 3->4; 4->5; 5->1; 5->6",
                    "vertices=43 edges=39 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length = PS.Length AND PS.StartVertex = 5",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 5; 5->1; 5->1->2; 5->1->2->4; 5->1->2->4->5; 5->1->3; 5->1->3->4; 5->1->3->4->5; 5->6",
                    "vertices=9 edges=8 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length >= 2 AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Auto, len 2..=3, emit=count) :: (_a0 INTEGER)",
                    "rows: 18",
                    "vertices=31 edges=25 derefs=0",
                ],
            ),
        ]);
    }

    /// `[i]`, `[a..b]`, `[k..*]` and `[0..*]` edge and vertex predicates, `IN`
    /// lists, `id` and `fanout`; hop endpoints (`Edges[i].StartVertex`) are
    /// never pushed. The deref counters show what the traversal tested.
    #[test]
    fn edge_and_vertex_predicates() {
        check(&[
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[1].w > 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=8) :: (ps PATH)",
                    "rows: 1->3->4; 1->3->4->5; 1->3->4->5->1; 1->3->4->5->6",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND 3 < PS.Edges[1].w",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=8) :: (ps PATH)",
                    "rows: 1->3->4; 1->3->4->5; 1->3->4->5->1; 1->3->4->5->6",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[0..1].w >= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=8) :: (ps PATH)",
                    "rows: 1->3->4; 1->3->4->5; 1->3->4->5->1; 1->3->4->5->6",
                    "vertices=6 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[1..*].w < 5",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=8) :: (ps PATH)",
                    "rows: 1->2->4; 1->3->4",
                    "vertices=5 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[0..*].w <> 4 AND PS.Length <= 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=4) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->2->4->5; 1->2->4->5->1; 1->2->4->5->6; 1->3",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND 4 > PS.Edges[0..*].w",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->3",
                    "vertices=4 edges=5 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[0..*].id IN (10, 12, 14, 16) AND PS.Length <= 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=4) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->2->4->5; 1->2->4->5->1",
                    "vertices=5 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[1..2].id NOT IN (13) AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 3..=3) :: (ps PATH)",
                    "rows: 1->2->4->5",
                    "vertices=5 edges=5 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[1].id = 12",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=8) :: (ps PATH)",
                    "rows: 1->2->4; 1->2->4->5; 1->2->4->5->1; 1->2->4->5->6",
                    "vertices=7 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[2].w IN (5, 6)",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 3..=8) :: (ps PATH)",
                    "rows: 1->2->4->5; 1->2->4->5->1; 1->2->4->5->6; 1->3->4->5; 1->3->4->5->1; 1->3->4->5->6",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[2] = 14",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 3..=8) :: (ps PATH)",
                    "rows: 1->2->4->5; 1->2->4->5->1; 1->2->4->5->6; 1->3->4->5; 1->3->4->5->1; 1->3->4->5->6",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Vertexes[1..*].Id IN (2, 4, 5) AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 1..=3) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->2->4->5",
                    "vertices=4 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Vertexes[0..*].fanout >= 1 AND PS.Length <= 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=4) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->2->4->5; 1->2->4->5->1; 1->3; 1->3->4; 1->3->4->5; 1->3->4->5->1",
                    "vertices=9 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Vertexes[2].fanout = 1 AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=3) :: (ps PATH)",
                    "rows: 1->2->4; 1->2->4->5; 1->3->4; 1->3->4->5",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Vertexes[1].id = 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 1..=8) :: (ps PATH)",
                    "rows: 1->3; 1->3->4; 1->3->4->5; 1->3->4->5->1; 1->3->4->5->6",
                    "vertices=6 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[0].StartVertex = 1 AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 1..=2) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->3; 1->3->4",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[1].EndVertex = 4 AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=3) :: (ps PATH)",
                    "rows: 1->2->4; 1->2->4->5; 1->3->4; 1->3->4->5",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[0..*].StartVertex <> 3 AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=3) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->2->4->5; 1->3",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[1].w > PS.Edges[0].w AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 2..=3) :: (ps PATH)",
                    "rows: 1->2->4; 1->2->4->5; 1->3->4; 1->3->4->5",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.StartVertex = s.vid AND PS.Edges[0..*].w < s.sid + 3 AND PS.Length <= 2",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    PathJoin(g, Auto, len 0..=2) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|1; 1|1->2; 1|1->2->4; 1|1->3; 2|4",
                    "vertices=5 edges=5 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.StartVertex = s.vid AND PS.Edges[0].w IN (s.sid, 4) AND PS.Length = 1",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    PathJoin(g, Auto, len 1..=1) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|1->2",
                    "vertices=3 edges=3 derefs=0",
                ],
            ),
        ]);
    }

    /// `SUM(…) < c` in both orientations is pruned on every prefix (derefs);
    /// a lower bound, a vertex SUM and `MAX` are not.
    #[test]
    fn running_sum_bounds() {
        check(&[
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND SUM(PS.Edges.w) < 9",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->3; 1->3->4",
                    "vertices=5 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND SUM(PS.Edges.w) <= 9",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->2->4->5; 1->3; 1->3->4",
                    "vertices=6 edges=8 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND 9 > SUM(PS.Edges.w)",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->3; 1->3->4",
                    "vertices=5 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND 9 >= SUM(PS.Edges.w)",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->2->4->5; 1->3; 1->3->4",
                    "vertices=6 edges=8 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND SUM(PS.Edges.w) > 9 AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=3) :: (ps PATH)",
                    "rows: 1->3->4->5",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND 9 < SUM(PS.Edges.w) AND PS.Length <= 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=3) :: (ps PATH)",
                    "rows: 1->3->4->5",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND SUM(PS.Vertexes.Id) < 8",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->3",
                    "vertices=4 edges=5 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND MAX(PS.Edges.w) < 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->3",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, g.Paths PS WHERE PS.StartVertex = s.vid AND SUM(PS.Edges.w) < s.k / 2",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    PathJoin(g, Auto, len 0..=8) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|1->2; 1|1->2->4; 1|1->3; 2|4->5",
                    "vertices=6 edges=8 derefs=0",
                ],
            ),
        ]);
    }

    /// Every closing spelling over the exact window 4..=4, and the shapes that
    /// do not close (not the last hop, an inexact window, no window,
    /// arithmetic, SHORTESTPATH).
    #[test]
    fn cycle_closure() {
        check(&[
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length = 4 AND PS.Edges[3].EndVertex = PS.Edges[0].StartVertex",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Auto, len 4..=4, closing, emit=count) :: (_a0 INTEGER)",
                    "rows: 8",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Edges[0].StartVertex = PS.Edges[3].EndVertex AND PS.Length = 4",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Auto, len 4..=4, closing, emit=count) :: (_a0 INTEGER)",
                    "rows: 8",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS HINT(DFS) WHERE PS.Length = 4 AND PS.EndVertex.Id = PS.StartVertex.Id",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Dfs, len 4..=4, closing, emit=count) :: (_a0 INTEGER)",
                    "rows: 8",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS HINT(BFS) WHERE PS.Length = 4 AND PS.StartVertexId = PS.EndVertex",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Bfs, len 4..=4, closing, emit=count) :: (_a0 INTEGER)",
                    "rows: 8",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length = 4 AND PS.Vertexes[4].Id = PS.Vertexes[0]",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Auto, len 4..=4, closing, emit=count) :: (_a0 INTEGER)",
                    "rows: 8",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length = 4 AND PS.Vertexes[4] = PS.StartVertexId",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Auto, len 4..=4, closing, emit=count) :: (_a0 INTEGER)",
                    "rows: 8",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length = 4 AND PS.Edges[3].EndVertex = PS.StartVertex.Id",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  PathScan(g, Auto, len 4..=4, closing, emit=count) :: (_a0 INTEGER)",
                    "rows: 8",
                    "vertices=39 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Length = 4 AND PS.EndVertex = PS.StartVertex",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  PathScan(g, Auto, len 4..=4, closing) :: (ps PATH)",
                    "rows: 1->2->4->5->1; 1->3->4->5->1",
                    "vertices=9 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length = 4 AND PS.Edges[1].EndVertex = PS.Edges[0].StartVertex",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  Aggregate(0 groups, 1 aggs) :: (_a0 INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 4..=4) :: (ps PATH)",
                    "rows: 0",
                    "vertices=43 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length >= 3 AND PS.Length <= 4 AND PS.EndVertex = PS.StartVertex",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  Aggregate(0 groups, 1 aggs) :: (_a0 INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 3..=4) :: (ps PATH)",
                    "rows: 8",
                    "vertices=43 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Edges[3].EndVertex = PS.Edges[0].StartVertex",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  Aggregate(0 groups, 1 aggs) :: (_a0 INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 4..=8) :: (ps PATH)",
                    "rows: 8",
                    "vertices=43 edges=39 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS WHERE PS.Length = 4 AND PS.EndVertex = PS.StartVertex + 0",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  Aggregate(0 groups, 1 aggs) :: (_a0 INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 4..=4) :: (ps PATH)",
                    "rows: 8",
                    "vertices=43 edges=37 derefs=0",
                ],
            ),
            (
                "SELECT COUNT(*) FROM g.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex = 1 AND PS.EndVertex = 1 AND PS.Length = 4 AND PS.EndVertex = PS.StartVertex",
                &[
                    "Project(1 cols) :: (count INTEGER)",
                    "  Aggregate(0 groups, 1 aggs) :: (_a0 INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, ShortestPath { cost_attr: \"w\" }, len 4..=4) :: (ps PATH)",
                    "rows: 2",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
        ]);
    }

    /// `LIMIT 1` reachability: the plain probe, a safe uniform `[0..*]`
    /// predicate, an unsafe residual, a constant and a repeated anchor, a
    /// running SUM, a lower bound, SHORTESTPATH, a PathJoin probe, and a
    /// second path joined on the first one's end vertex.
    #[test]
    fn reachability_fast_path() {
        check(&[
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND PS.Length <= 6 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 0..=6, reachability) :: (ps PATH)",
                    "rows: 4",
                    "vertices=6 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND PS.Length <= 6 AND PS.Edges[0..*].w > 0 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 0..=6, reachability) :: (ps PATH)",
                    "rows: 4",
                    "vertices=6 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND PS.Length <= 6 AND PS.PathString <> 'x' LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 0..=6) :: (ps PATH)",
                    "rows: 4",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND PS.Edges[0..*].w > 1 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 0..=8, reachability) :: (ps PATH)",
                    "rows: 4",
                    "vertices=5 edges=5 derefs=0",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND 1 = 1 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 0..=8, reachability) :: (ps PATH)",
                    "rows: 4",
                    "vertices=6 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND PS.StartVertex = 1 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 0..=8, reachability) :: (ps PATH)",
                    "rows: 4",
                    "vertices=6 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND SUM(PS.Edges.w) < 100 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 0..=8) :: (ps PATH)",
                    "rows: 4",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND PS.Length >= 4 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER)",
                    "  Project(1 cols) :: (length INTEGER)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, Auto, len 4..=8) :: (ps PATH)",
                    "rows: 4",
                    "vertices=11 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 LIMIT 1",
                &[
                    "Limit(1) :: (cost DOUBLE)",
                    "  Project(1 cols) :: (cost DOUBLE)",
                    "    Filter :: (ps PATH)",
                    "      PathScan(g, ShortestPath { cost_attr: \"w\" }, len 0..=64, reachability) :: (ps PATH)",
                    "rows: 15",
                    "vertices=6 edges=7 derefs=0",
                ],
            ),
            (
                "SELECT s.sid, PS.Length FROM s, g.Paths PS WHERE PS.StartVertex = s.vid AND PS.EndVertex = 6 AND s.sid < 3 LIMIT 1",
                &[
                    "Limit(1) :: (sid INTEGER?, length INTEGER)",
                    "  Project(2 cols) :: (sid INTEGER?, length INTEGER)",
                    "    Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "      PathJoin(g, Auto, len 0..=8, reachability) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "        TableScan(s, filtered) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|4",
                    "vertices=6 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT P1.Length, P2.Length FROM g.Paths P1, g.Paths P2 WHERE P1.StartVertex = 1 AND P1.EndVertex = 4 AND P2.StartVertex = P1.EndVertex AND P2.Length = 1 LIMIT 1",
                &[
                    "Limit(1) :: (length INTEGER, length INTEGER)",
                    "  Project(2 cols) :: (length INTEGER, length INTEGER)",
                    "    Filter :: (p1 PATH, p2 PATH)",
                    "      PathJoin(g, Auto, len 1..=1) :: (p1 PATH, p2 PATH)",
                    "        PathScan(g, Auto, len 0..=8, reachability) :: (p1 PATH)",
                    "rows: 2|1",
                    "vertices=2 edges=1 derefs=0",
                    "vertices=4 edges=3 derefs=0",
                ],
            ),
        ]);
    }

    /// Leaf pushdown (unqualified columns, vertex and edge scans),
    /// `IndexLookup`, `IndexJoin` in both orientations and from either
    /// table, and constant conjuncts, which stay residual.
    #[test]
    fn relational_leaves_and_joins() {
        check(&[
            (
                "SELECT sid FROM s, u WHERE k > 10 AND u.uid = s.sid",
                &[
                    "Project(1 cols) :: (sid INTEGER?)",
                    "  IndexJoin(u) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "    TableScan(s, filtered) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 2; 3",
                ],
            ),
            (
                "SELECT sid, z FROM s, u WHERE s.sid = u.uid",
                &[
                    "Project(2 cols) :: (sid INTEGER?, z INTEGER?)",
                    "  IndexJoin(u) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "    TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|5; 2|6; 3|7",
                ],
            ),
            (
                "SELECT sid, z FROM s, u WHERE u.uid = s.sid AND z > 5",
                &[
                    "Project(2 cols) :: (sid INTEGER?, z INTEGER?)",
                    "  IndexJoin(u) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "    TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 2|6; 3|7",
                ],
            ),
            (
                "SELECT sid, z FROM u, s WHERE s.sid = u.sref",
                &[
                    "Project(2 cols) :: (sid INTEGER?, z INTEGER?)",
                    "  IndexJoin(s) :: (uid INTEGER?, sref INTEGER?, z INTEGER?, sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "    TableScan(u) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: 1|6; 2|5; 3|7",
                ],
            ),
            (
                "SELECT sid, z FROM u, s WHERE u.sref = s.sid AND s.k < 30",
                &[
                    "Project(2 cols) :: (sid INTEGER?, z INTEGER?)",
                    "  IndexJoin(s) :: (uid INTEGER?, sref INTEGER?, z INTEGER?, sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "    TableScan(u) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: 1|6; 2|5",
                ],
            ),
            (
                "SELECT sid, z FROM u, s WHERE u.sref = s.sid + 0",
                &[
                    "Project(2 cols) :: (sid INTEGER?, z INTEGER?)",
                    "  Filter :: (uid INTEGER?, sref INTEGER?, z INTEGER?, sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "    NestedLoopJoin(cross) :: (uid INTEGER?, sref INTEGER?, z INTEGER?, sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "      TableScan(u) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|6; 2|5; 3|7",
                ],
            ),
            (
                "SELECT sid, z FROM s, u WHERE u.uid = 3 AND s.sid = u.sref",
                &[
                    "Project(2 cols) :: (sid INTEGER?, z INTEGER?)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "    NestedLoopJoin(cross) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "      IndexLookup(u) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: 3|7",
                ],
            ),
            (
                "SELECT z FROM u WHERE uid = 3",
                &[
                    "Project(1 cols) :: (z INTEGER?)",
                    "  IndexLookup(u) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: 7",
                ],
            ),
            (
                "SELECT z FROM u WHERE 3 = uid AND z > 1",
                &[
                    "Project(1 cols) :: (z INTEGER?)",
                    "  IndexLookup(u) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: 7",
                ],
            ),
            (
                "SELECT z FROM u WHERE uid = 3 AND uid = 4",
                &[
                    "Project(1 cols) :: (z INTEGER?)",
                    "  IndexLookup(u) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: ",
                ],
            ),
            (
                "SELECT z FROM u WHERE sref = 1",
                &[
                    "Project(1 cols) :: (z INTEGER?)",
                    "  TableScan(u, filtered) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: 6",
                ],
            ),
            (
                "SELECT sid FROM s WHERE 1 = 1",
                &[
                    "Project(1 cols) :: (sid INTEGER?)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "    TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1; 2; 3",
                ],
            ),
            (
                "SELECT sid FROM s WHERE 1 = 0 OR k = 20",
                &[
                    "Project(1 cols) :: (sid INTEGER?)",
                    "  TableScan(s, filtered) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 2",
                ],
            ),
            (
                "SELECT s.sid, u.uid FROM s, u WHERE s.k = 10 AND u.z = 5 AND 2 > 1",
                &[
                    "Project(2 cols) :: (sid INTEGER?, uid INTEGER?)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "    NestedLoopJoin(cross) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "      TableScan(s, filtered) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "      TableScan(u, filtered) :: (uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "rows: 1|1",
                ],
            ),
            (
                "SELECT V.id FROM g.Vertexes V WHERE V.fanout > 1",
                &[
                    "Project(1 cols) :: (id INTEGER)",
                    "  VertexScan(g) :: (id INTEGER, fanin INTEGER, fanout INTEGER)",
                    "rows: 1; 5",
                ],
            ),
            (
                "SELECT E.id FROM g.Edges E WHERE E.w > 3 AND E.id < 16",
                &[
                    "Project(1 cols) :: (id INTEGER)",
                    "  EdgeScan(g) :: (id INTEGER, from INTEGER, to INTEGER, w DOUBLE?)",
                    "rows: 13; 14; 15",
                ],
            ),
            (
                "SELECT V.id, E.id FROM g.Vertexes V, g.Edges E WHERE V.id = E.id - 9",
                &[
                    "Project(2 cols) :: (id INTEGER, id INTEGER)",
                    "  Filter :: (id INTEGER, fanin INTEGER, fanout INTEGER, id INTEGER, from INTEGER, to INTEGER, w DOUBLE?)",
                    "    NestedLoopJoin(cross) :: (id INTEGER, fanin INTEGER, fanout INTEGER, id INTEGER, from INTEGER, to INTEGER, w DOUBLE?)",
                    "      VertexScan(g) :: (id INTEGER, fanin INTEGER, fanout INTEGER)",
                    "      EdgeScan(g) :: (id INTEGER, from INTEGER, to INTEGER, w DOUBLE?)",
                    "rows: 1|10; 2|11; 3|12; 4|13; 5|14; 6|15",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, u, g.Paths PS WHERE u.uid = s.sid AND PS.StartVertex = u.sref AND u.z > 5 AND PS.Length = 1",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  PathJoin(g, Auto, len 1..=1) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?, ps PATH)",
                    "    IndexJoin(u) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, uid INTEGER?, sref INTEGER?, z INTEGER?)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 2|1->2; 2|1->3; 3|3->4",
                    "vertices=5 edges=3 derefs=0",
                ],
            ),
        ]);
    }

    /// `?` placeholders: anchors, a pushed comparand and a SUM bound bind at
    /// execution; a `?` length bound is not a window.
    /// `parity_db` plus a view `ga` over a second vertex table whose
    /// vertexes expose an INTEGER and a VARCHAR column and whose edges
    /// expose `w` as `W`, every attribute read in mixed case.
    fn attributes_db() -> Database {
        let db = parity_db();
        for sql in [
            "CREATE TABLE p (pid INTEGER PRIMARY KEY, age INTEGER, name VARCHAR)",
            "INSERT INTO p VALUES (1, 30, 'ann'), (2, 25, 'bob'), (3, 41, 'cy'), \
             (4, 25, 'dee'), (5, 52, 'eve'), (6, 19, 'fay')",
            "CREATE DIRECTED GRAPH VIEW ga VERTEXES(ID = pid, Age = age, nAmE = name) FROM p \
             EDGES(ID = id, FROM = a, TO = b, W = w) FROM e",
        ] {
            db.execute(sql).unwrap();
        }
        db
    }

    /// Every way a query reads a graph attribute, in mixed case: start and
    /// end vertex attributes, an edge's id / hop ends / exposed attribute
    /// and a vertex's id / degrees by position, quantified predicates kept
    /// residual (under `OR`) and pushed (edge, vertex, degree, id; a hop
    /// end is never pushed), path aggregates over exposed attributes,
    /// degrees and ids, running SUM bounds, SHORTESTPATH on the exposed
    /// cost, and a probe-bound pushed predicate. `Vertexes[0].Id` is a
    /// pushed predicate, not a start anchor.
    #[test]
    fn attributes() {
        check_on(&attributes_db(), &[
            (
                "SELECT PS.StartVertex.Name, PS.StartVertex.AGE, PS.EndVertex.name, PS.EndVertex.Age FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length = 2",
                &[
                    "Project(4 cols) :: (name VARCHAR?, age INTEGER?, name VARCHAR?, age INTEGER?)",
                    "  PathScan(ga, Auto, len 2..=2) :: (ps PATH)",
                    "rows: ann|30|dee|25; ann|30|dee|25",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.Edges[0].Id, PS.Edges[0].StartVertex, PS.Edges[0].EndVertex, PS.Edges[0].W, PS.Edges[1].id, PS.Edges[1].startvertex, PS.Edges[1].endVertex, PS.Edges[1].w, PS.Edges[2].W FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length = 2",
                &[
                    "Project(9 cols) :: (id INTEGER?, startvertex INTEGER?, endvertex INTEGER?, w DOUBLE?, id INTEGER?, startvertex INTEGER?, endvertex INTEGER?, w DOUBLE?, w DOUBLE?)",
                    "  PathScan(ga, Auto, len 2..=2) :: (ps PATH)",
                    "rows: 10|1|2|1|12|2|4|3|NULL; 11|1|3|2|13|3|4|4|NULL",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.Vertexes[0].Id, PS.Vertexes[1].ID, PS.Vertexes[1].FanIn, PS.Vertexes[1].FanOut, PS.Vertexes[2].fanin, PS.Vertexes[2].fanout, PS.Vertexes[2].Name, PS.Vertexes[3].Age FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length = 2",
                &[
                    "Project(8 cols) :: (id INTEGER?, id INTEGER?, fanin INTEGER?, fanout INTEGER?, fanin INTEGER?, fanout INTEGER?, name VARCHAR?, age INTEGER?)",
                    "  PathScan(ga, Auto, len 2..=2) :: (ps PATH)",
                    "rows: 1|2|1|1|2|1|dee|NULL; 1|3|1|1|2|1|dee|NULL",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.Vertexes[0].Id = 4 AND PS.Length <= 2",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 0..=2) :: (ps PATH)",
                    "rows: 4; 4->5; 4->5->1; 4->5->6",
                    "vertices=4 edges=3 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 3 AND PS.Edges[1].EndVertex = 4",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 2..=3) :: (ps PATH)",
                    "rows: 1->2->4; 1->2->4->5; 1->3->4; 1->3->4->5",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 3 AND (PS.Edges[0..*].W < 3 OR PS.Vertexes[1..*].Name IN ('cy', 'dee'))",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 0..=3) :: (ps PATH)",
                    "rows: 1; 1->2; 1->3; 1->3->4",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 3 AND PS.Edges[0..*].W < 5 AND PS.Vertexes[1..*].Age > 20",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 1..=3) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->3; 1->3->4",
                    "vertices=5 edges=6 derefs=4",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 3 AND PS.Vertexes[1].Name = 'cy' AND PS.Edges[1].Id <> 13",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 2..=3) :: (ps PATH)",
                    "rows: ",
                    "vertices=2 edges=3 derefs=2",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 3 AND PS.Vertexes[0..*].FanOut >= 1 AND PS.Vertexes[1..*].fanin < 2 AND PS.Edges[0..*].id > 10",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 1..=3) :: (ps PATH)",
                    "rows: 1->3",
                    "vertices=2 edges=3 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 3 AND PS.Edges[0..*].StartVertex <> 3",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 0..=3) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->2->4->5; 1->3",
                    "vertices=7 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString, SUM(PS.Edges.W), MIN(PS.Edges.w), MAX(PS.Edges.W), AVG(PS.Edges.W), COUNT(PS.Edges.W) FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length = 2",
                &[
                    "Project(6 cols) :: (pathstring VARCHAR, sum DOUBLE?, min DOUBLE?, max DOUBLE?, avg DOUBLE?, count INTEGER)",
                    "  PathScan(ga, Auto, len 2..=2) :: (ps PATH)",
                    "rows: 1->2->4|4|1|3|2|2; 1->3->4|6|2|4|3|2",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString, SUM(PS.Vertexes.Age), MIN(PS.Vertexes.Name), MAX(PS.Vertexes.name), AVG(PS.Vertexes.age), COUNT(PS.Vertexes.Name) FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length = 2",
                &[
                    "Project(6 cols) :: (pathstring VARCHAR, sum INTEGER?, min VARCHAR?, max VARCHAR?, avg DOUBLE?, count INTEGER)",
                    "  PathScan(ga, Auto, len 2..=2) :: (ps PATH)",
                    "rows: 1->2->4|80|ann|dee|26.666666666666668|3; 1->3->4|96|ann|dee|32|3",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString, SUM(PS.Vertexes.FanOut), MIN(PS.Vertexes.fanout), MAX(PS.Vertexes.FanIn), AVG(PS.Vertexes.FANOUT), COUNT(PS.Vertexes.fanout), SUM(PS.Edges.Id) FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length = 2",
                &[
                    "Project(7 cols) :: (pathstring VARCHAR, sum INTEGER?, min INTEGER?, max INTEGER?, avg DOUBLE?, count INTEGER, sum INTEGER?)",
                    "  PathScan(ga, Auto, len 2..=2) :: (ps PATH)",
                    "rows: 1->2->4|4|1|2|1.3333333333333333|3|22; 1->3->4|4|1|2|1.3333333333333333|3|24",
                    "vertices=5 edges=4 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 4 AND SUM(PS.Edges.W) < 9",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 0..=4) :: (ps PATH)",
                    "rows: 1->2; 1->2->4; 1->3; 1->3->4",
                    "vertices=5 edges=6 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString FROM ga.Paths PS WHERE PS.StartVertex = 1 AND PS.Length <= 4 AND SUM(PS.Vertexes.Age) <= 100 AND SUM(PS.Vertexes.FanOut) < 5",
                &[
                    "Project(1 cols) :: (pathstring VARCHAR)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, Auto, len 0..=4) :: (ps PATH)",
                    "rows: 1; 1->2; 1->2->4; 1->3; 1->3->4",
                    "vertices=5 edges=6 derefs=8",
                ],
            ),
            (
                "SELECT PS.PathString, PS.Cost FROM ga.Paths PS HINT(SHORTESTPATH(W)) WHERE PS.StartVertex = 1 AND PS.EndVertex = 6",
                &[
                    "Project(2 cols) :: (pathstring VARCHAR, cost DOUBLE)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, ShortestPath { cost_attr: \"w\" }, len 0..=64) :: (ps PATH)",
                    "rows: 1->2->4->5->6|15; 1->3->4->5->6|17",
                    "vertices=9 edges=10 derefs=0",
                ],
            ),
            (
                "SELECT PS.PathString, PS.Cost FROM ga.Paths PS HINT(SHORTESTPATH(w)) WHERE PS.StartVertex = 1 AND PS.EndVertex = 6 AND PS.Edges[0..*].W <> 2 AND PS.Vertexes[0..*].Age > 20",
                &[
                    "Project(2 cols) :: (pathstring VARCHAR, cost DOUBLE)",
                    "  Filter :: (ps PATH)",
                    "    PathScan(ga, ShortestPath { cost_attr: \"w\" }, len 0..=64) :: (ps PATH)",
                    "rows: ",
                    "vertices=4 edges=6 derefs=5",
                ],
            ),
            (
                "SELECT s.sid, PS.PathString FROM s, ga.Paths PS WHERE PS.StartVertex = s.vid AND PS.Length <= 2 AND PS.Edges[0..*].W < s.sid + 3 AND PS.EndVertex.Age > 20",
                &[
                    "Project(2 cols) :: (sid INTEGER?, pathstring VARCHAR)",
                    "  Filter :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "    PathJoin(ga, Auto, len 0..=2) :: (sid INTEGER?, vid INTEGER?, k INTEGER?, ps PATH)",
                    "      TableScan(s) :: (sid INTEGER?, vid INTEGER?, k INTEGER?)",
                    "rows: 1|1; 1|1->2; 1|1->2->4; 1|1->3; 2|4",
                    "vertices=5 edges=5 derefs=0",
                ],
            ),
        ]);
    }

    #[test]
    fn parameters() {
        let db = parity_db();
        let cases: &[(&str, &[i64], &[&str])] = &[
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = ? AND PS.Length <= 2",
                &[2],
                &[
                    "Project(1 cols)",
                    "  PathScan(g, Auto, len 0..=2)",
                    "rows: 2; 2->4; 2->4->5",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE ? = PS.StartVertexId AND PS.Length = 1",
                &[4],
                &[
                    "Project(1 cols)",
                    "  PathScan(g, Auto, len 1..=1)",
                    "rows: 4->5",
                ],
            ),
            (
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.EndVertex.Id = ? AND PS.Length <= 6 LIMIT 1",
                &[6],
                &[
                    "Limit(1)",
                    "  Project(1 cols)",
                    "    Filter",
                    "      PathScan(g, Auto, len 0..=6, reachability)",
                    "rows: 4",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND PS.Edges[0..*].w < ? AND PS.Length <= 3",
                &[4],
                &[
                    "Project(1 cols)",
                    "  Filter",
                    "    PathScan(g, Auto, len 0..=3)",
                    "rows: 1; 1->2; 1->2->4; 1->3",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.StartVertex = 1 AND SUM(PS.Edges.w) < ?",
                &[9],
                &[
                    "Project(1 cols)",
                    "  Filter",
                    "    PathScan(g, Auto, len 0..=8)",
                    "rows: 1->2; 1->2->4; 1->3; 1->3->4",
                ],
            ),
            (
                "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length <= ? AND PS.StartVertex = 4",
                &[1],
                &[
                    "Project(1 cols)",
                    "  Filter",
                    "    PathScan(g, Auto, len 0..=8)",
                    "rows: 4; 4->5",
                ],
            ),
            (
                "SELECT z FROM u WHERE uid = ?",
                &[3],
                &[
                    "Project(1 cols)",
                    "  IndexLookup(u)",
                    "rows: 7",
                ],
            ),
        ];
        for (sql, params, want) in cases {
            assert_eq!(prepared_fingerprint(&db, sql, params), *want, "sql={sql}");
        }
    }
}

/// The engine's prepared probes against the bare kernels they run: the
/// same topology built straight from the dataset, searched with `NoFilter`
/// and a `Vec<f64>` of weights by edge slot (what the benchmark's
/// `graph.kernel_*_us` time). Tier-1 holds their answers equal, sealed,
/// over a delta overlay with updated weights, and re-sealed; the timing
/// guard below holds their times close.
mod kernel_parity {
    use grfusion::{Database, PreparedQuery, Value};
    use grfusion_baselines::GrFusionSystem;
    use grfusion_common::RowId;
    use grfusion_datasets::{follower, random_connected_pairs, roads, Adjacency, Dataset};
    use grfusion_graph::{hop_minimal_path, shortest_path, GraphTopology, NoFilter};

    pub(super) const REACH12: &str = "SELECT PS.Length FROM g.Paths PS \
        WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? AND PS.Length <= 12 LIMIT 1";
    pub(super) const SHORTEST: &str = "SELECT PS.Cost FROM g.Paths PS \
        HINT(SHORTESTPATH(weight)) WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1";

    /// The dataset's graph as a bare topology, with each edge's weight at
    /// its slot.
    pub(super) struct Kernel {
        pub(super) g: GraphTopology,
        pub(super) weights: Vec<f64>,
    }

    impl Kernel {
        pub(super) fn build(ds: &Dataset) -> Kernel {
            let w = ds.weight_attr_index();
            let mut k = Kernel {
                g: GraphTopology::new("kernel", ds.directed),
                weights: Vec::new(),
            };
            for (id, _) in &ds.vertices {
                k.g.add_vertex(*id, RowId(*id as u64)).unwrap();
            }
            for (id, from, to, attrs) in &ds.edges {
                k.add_edge(*id, *from, *to, attrs[w].as_double().unwrap());
            }
            k.g.seal();
            k
        }

        fn add_edge(&mut self, id: i64, from: i64, to: i64, weight: f64) {
            let slot = self.g.add_edge(id, from, to, RowId(id as u64)).unwrap();
            assert_eq!(slot as usize, self.weights.len(), "edge slots follow insertion");
            self.weights.push(weight);
        }

        /// Hop length of a shortest path within 12 hops.
        pub(super) fn reach(&self, s: i64, t: i64) -> Option<i64> {
            let (s, t) = (self.g.vertex_slot(s).unwrap(), self.g.vertex_slot(t).unwrap());
            let (p, _) = hop_minimal_path(&self.g, s, t, 12, &NoFilter);
            p.map(|p| p.length() as i64)
        }

        /// Cost of a cheapest path.
        pub(super) fn shortest(&self, s: i64, t: i64) -> Option<f64> {
            let (s, t) = (self.g.vertex_slot(s).unwrap(), self.g.vertex_slot(t).unwrap());
            let p = shortest_path(&self.g, s, t, |_, e| self.weights[e as usize], &NoFilter);
            p.unwrap().map(|p| p.cost)
        }
    }

    /// The one value of a prepared probe's one row, if it found a path.
    pub(super) fn probe(db: &Database, q: &PreparedQuery, s: i64, t: i64) -> Option<Value> {
        let rs = db.execute_prepared(q, &[Value::Integer(s), Value::Integer(t)]).unwrap();
        assert!(rs.rows.len() <= 1);
        rs.rows.into_iter().next().map(|mut r| r.remove(0))
    }

    /// Every pair's reach length and cheapest cost, engine against kernel.
    fn assert_parity(what: &str, db: &Database, k: &Kernel, pairs: &[(i64, i64)]) {
        let (reach, sp) = (db.prepare(REACH12).unwrap(), db.prepare(SHORTEST).unwrap());
        let found = pairs.iter().filter(|&&(s, t)| k.reach(s, t).is_some()).count();
        assert!(found >= pairs.len() / 2, "{what}: only {found} pairs connected");
        for &(s, t) in pairs {
            let engine = probe(db, &reach, s, t).map(|v| v.as_integer().unwrap());
            assert_eq!(engine, k.reach(s, t), "{what}: reach {s} -> {t}");
            let engine = probe(db, &sp, s, t).map(|v| v.as_double().unwrap());
            let kernel = k.shortest(s, t);
            assert_eq!(engine.map(f64::to_bits), kernel.map(f64::to_bits), "{what}: cost {s} -> {t}: {engine:?} vs {kernel:?}");
        }
    }

    fn layout(db: &Database) -> (usize, usize) {
        let s = db.graph_stats("g").unwrap();
        (s.sealed_bytes, s.overlay_bytes)
    }

    #[test]
    fn prepared_probes_answer_what_the_bare_kernels_do() {
        for ds in [follower(600, 7), roads(600, 8)] {
            let directed = if ds.directed { "directed" } else { "undirected" };
            let sys = GrFusionSystem::load(&ds).unwrap();
            let db = sys.db();
            let mut k = Kernel::build(&ds);
            let adj = Adjacency::build(&ds);
            let mut pairs = random_connected_pairs(&ds, &adj, 12, 24, 11);
            // Pairs with no path within 12 hops in either system.
            pairs.extend([(0, 599), (599, 0), (17, 311)]);
            assert_parity(&format!("{directed} sealed"), db, &k, &pairs);

            // A few new edges and re-weighted old ones: the new edges sit in
            // the overlay, the re-weighted ones are stale in the columns.
            let mut next = ds.edges.len() as i64;
            let mut insert = |k: &mut Kernel, links: &[(i64, i64)]| {
                let rows: Vec<String> = links
                    .iter()
                    .map(|&(a, b)| {
                        let w = 0.25 + (next % 7) as f64;
                        k.add_edge(next, a, b, w);
                        next += 1;
                        format!("({}, {a}, {b}, {w:?}, 1)", next - 1)
                    })
                    .collect();
                db.execute(&format!(
                    "INSERT INTO e_src (id, src, dst, weight, sel) VALUES {}",
                    rows.join(", ")
                ))
                .unwrap();
            };
            insert(&mut k, &[(0, 599), (12, 40), (40, 12), (300, 301), (5, 77)]);
            for id in (0..ds.edges.len() as i64).step_by(9) {
                let w = 0.5 + (id % 5) as f64;
                db.execute(&format!("UPDATE e_src SET weight = {w:?} WHERE id = {id}")).unwrap();
                let slot = k.g.edge_slot(id).unwrap();
                k.weights[slot as usize] = w;
            }
            let (_, overlay) = layout(db);
            assert!(overlay > 0, "{directed}: the new edges should sit in an overlay");
            assert_parity(&format!("{directed} overlaid"), db, &k, &pairs);

            // Enough new edges that the statement re-seals.
            let links: Vec<(i64, i64)> = (0..150).map(|i| (i * 2, i * 2 + 3)).collect();
            let sealed_before = layout(db).0;
            insert(&mut k, &links);
            let (sealed, overlay) = layout(db);
            assert!(overlay == 0 && sealed > sealed_before, "{directed}: no re-seal");
            assert_parity(&format!("{directed} re-sealed"), db, &k, &pairs);
        }
    }
}

fn avg_micros<F: FnMut() -> ()>(n: usize, mut f: F) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

#[test]
#[ignore = "timing-sensitive; run with: cargo test --release -- --ignored"]
fn grfusion_beats_sqlgraph_on_deep_reachability() {
    let ds = protein(2_000, 42);
    let adj = Adjacency::build(&ds);
    let grf = GrFusionSystem::load(&ds).unwrap();
    let sqg = SqlGraphSystem::load_with_budget(&ds, Some(50_000_000)).unwrap();
    let pairs = pairs_at_distance(&ds, &adj, 8, 5, 7);
    assert!(!pairs.is_empty());

    let g = avg_micros(3, || {
        for (s, t) in &pairs {
            grf.reachable(*s, *t, 8, None).unwrap();
        }
    });
    let r = avg_micros(3, || {
        for (s, t) in &pairs {
            sqg.reachable(*s, *t, 8, None).unwrap();
        }
    });
    // Paper: orders of magnitude. Guardrail: at least 10×.
    assert!(
        r > 10.0 * g,
        "expected ≥10× gap at depth 8: grfusion {g:.1}µs vs sqlgraph {r:.1}µs"
    );
}

#[test]
#[ignore = "timing-sensitive; run with: cargo test --release -- --ignored"]
fn grfusion_beats_grail_on_shortest_paths() {
    let ds = protein(2_000, 43);
    let adj = Adjacency::build(&ds);
    let grf = GrFusionSystem::load(&ds).unwrap();
    let grail = GrailSystem::load(&ds).unwrap();
    let pairs = random_connected_pairs(&ds, &adj, 6, 5, 7);
    assert!(!pairs.is_empty());

    let g = avg_micros(3, || {
        for (s, t) in &pairs {
            grf.shortest_path_cost(*s, *t, None).unwrap();
        }
    });
    let r = avg_micros(3, || {
        for (s, t) in &pairs {
            grail.shortest_path_cost(*s, *t, None).unwrap();
        }
    });
    // Paper: large gaps. Guardrail: at least 2×.
    assert!(
        r > 2.0 * g,
        "expected ≥2× gap: grfusion {g:.1}µs vs grail {r:.1}µs"
    );
}

#[test]
#[ignore = "timing-sensitive; run with: cargo test --release -- --ignored"]
fn reachability_time_is_subexponential_in_depth() {
    // GRFusion's reachability must not blow up with the length bound
    // (the visited-set fast path): depth 20 within 50× of depth 4.
    let ds = protein(2_000, 44);
    let adj = Adjacency::build(&ds);
    let grf = GrFusionSystem::load(&ds).unwrap();
    let shallow = pairs_at_distance(&ds, &adj, 4, 5, 7);
    let deep = pairs_at_distance(&ds, &adj, 16, 5, 7);
    if shallow.is_empty() || deep.is_empty() {
        return; // graph too small for the deep workload at this seed
    }
    let t4 = avg_micros(3, || {
        for (s, t) in &shallow {
            grf.reachable(*s, *t, 4, None).unwrap();
        }
    });
    let t16 = avg_micros(3, || {
        for (s, t) in &deep {
            grf.reachable(*s, *t, 16, None).unwrap();
        }
    });
    assert!(
        t16 < 50.0 * t4.max(1.0),
        "depth 16 ({t16:.1}µs) should stay within 50× of depth 4 ({t4:.1}µs)"
    );
}

#[test]
#[ignore = "timing-sensitive; run with: cargo test --release -- --ignored"]
fn grfusion_beats_sqlgraph_on_triangles() {
    // Figure 10's cells where the self-join baseline came closest: the
    // closing scan never builds an open 3-path, the join chain must.
    for (ds, sel) in [(coauthor(2_000, 44), 30), (follower(2_000, 45), 50)] {
        let grf = GrFusionSystem::load(&ds).unwrap();
        let sqg = SqlGraphSystem::load_with_budget(&ds, Some(50_000_000)).unwrap();
        assert_eq!(grf.count_triangles(sel).unwrap(), sqg.count_triangles(sel).unwrap());
        let g = avg_micros(3, || {
            grf.count_triangles(sel).unwrap();
        });
        let r = avg_micros(3, || {
            sqg.count_triangles(sel).unwrap();
        });
        // Paper: GRFusion ahead at every selectivity. Guardrail: at least 2×.
        assert!(
            r > 2.0 * g,
            "expected ≥2× gap on {} at sel {sel}: grfusion {g:.1}µs vs sqlgraph {r:.1}µs",
            ds.kind.label()
        );
    }
}

/// A prepared probe costs what its kernel costs: the engine's reach-12 and
/// SHORTESTPATH probes stay within 1.3× of `hop_minimal_path` /
/// `shortest_path` with `NoFilter` and a `Vec<f64>` of weights, on the same
/// seeded pairs (best of 5 per pair, summed over the pairs). What is left
/// between them is the relational wrapper, the one-branch filter hooks and
/// the column read of each relaxed edge's weight.
#[test]
#[ignore = "timing-sensitive; run with: cargo test --release -- --ignored"]
fn prepared_probes_stay_near_the_bare_kernels() {
    use kernel_parity::{probe, Kernel, REACH12, SHORTEST};
    use std::hint::black_box;
    use std::time::Duration;

    let ds = follower(20_000, 42);
    let adj = Adjacency::build(&ds);
    let sys = GrFusionSystem::load(&ds).unwrap();
    let db = sys.db();
    let k = Kernel::build(&ds);
    let best = |f: &mut dyn FnMut()| -> Duration {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed()
            })
            .min()
            .unwrap_or_default()
    };
    let classes = [
        ("reach12", REACH12, pairs_at_distance(&ds, &adj, 12, 16, 42)),
        ("shortest_path", SHORTEST, random_connected_pairs(&ds, &adj, 6, 16, 42)),
    ];
    for (class, sql, pairs) in classes {
        assert!(!pairs.is_empty(), "{class}: no pairs");
        let q = db.prepare(sql).unwrap();
        let (mut engine, mut kernel) = (Duration::ZERO, Duration::ZERO);
        for &(s, t) in &pairs {
            engine += best(&mut || {
                black_box(probe(db, &q, s, t));
            });
            kernel += best(&mut || {
                if class == "reach12" {
                    black_box(k.reach(s, t));
                } else {
                    black_box(k.shortest(s, t));
                }
            });
        }
        let ratio = engine.as_secs_f64() / kernel.as_secs_f64();
        assert!(
            ratio <= 1.3,
            "{class}: engine {engine:?} vs kernel {kernel:?} over {} pairs = {ratio:.2}x",
            pairs.len()
        );
        println!("{class}: engine {engine:?} kernel {kernel:?} = {ratio:.2}x");
    }
}
