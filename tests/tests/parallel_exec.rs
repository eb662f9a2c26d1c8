//! CI battery for the morsel-driven parallel PathScan: every query shape
//! the engine supports runs down the parallel path (workers = 4, the
//! config equivalent of `GRFUSION_WORKERS=4`) on every plain
//! `cargo test -q`, and each answer is checked against serial execution.
//!
//! The property tests (`property.rs`) cover random graphs; this battery
//! pins a deterministic mid-size follower graph so failures reproduce
//! immediately, and additionally covers the shapes proptest skips
//! (prepared statements, aggregation above the scan, DML maintenance
//! between runs, the env-var knob itself).

use grfusion::{Database, EngineConfig, ParallelConfig, Value};

/// Deterministic follower-style graph: 120 vertexes, each following
/// `(v*7+k) % 120` for k in 1..=3, plus a weighted chain for SP queries.
fn follower_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let n = 120i64;
    let vrows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let mut erows = Vec::new();
    let mut eid = 0i64;
    for v in 0..n {
        for k in 1..=3i64 {
            let t = (v * 7 + k) % n;
            erows.push(vec![
                Value::Integer(eid),
                Value::Integer(v),
                Value::Integer(t),
                Value::Double(1.0 + (eid % 5) as f64),
            ]);
            eid += 1;
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

fn set_workers(db: &Database, workers: usize) {
    let mut cfg = db.config();
    cfg.parallel = ParallelConfig {
        workers,
        morsel_size: 16,
    };
    db.set_config(cfg);
}

fn rows_exact(db: &Database, sql: &str) -> Vec<Vec<String>> {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect()
}

/// Run `sql` serially and with 4 workers; rows must match exactly.
fn assert_parallel_equals_serial(db: &Database, sql: &str) {
    set_workers(db, 1);
    let serial = rows_exact(db, sql);
    set_workers(db, 4);
    let parallel = rows_exact(db, sql);
    assert_eq!(parallel, serial, "parallel output diverged for: {sql}");
    assert!(
        !serial.is_empty(),
        "battery query returned no rows (not exercising anything): {sql}"
    );
}

#[test]
fn enumeration_battery_runs_parallel() {
    let db = follower_db();
    for sql in [
        // Multi-seed enumeration, every physical operator.
        "SELECT PS.PathString FROM g.Paths PS HINT(DFS) WHERE PS.Length >= 1 AND PS.Length <= 2",
        "SELECT PS.PathString FROM g.Paths PS HINT(BFS) WHERE PS.Length >= 1 AND PS.Length <= 2",
        "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length = 2",
        // Anchored scans.
        "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
         WHERE PS.StartVertex.Id = 0 AND PS.Length >= 1 AND PS.Length <= 4",
        "SELECT PS.PathString FROM g.Paths PS HINT(BFS) \
         WHERE PS.StartVertex.Id = 0 AND PS.Length >= 1 AND PS.Length <= 4",
        // Pushed predicates (bind per morsel).
        "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
         WHERE PS.Edges[0..*].w < 4.0 AND PS.Length >= 1 AND PS.Length <= 3",
        // Pushed running aggregate (prefix checks in the workers).
        "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
         WHERE PS.StartVertex.Id = 0 AND SUM(PS.Edges.w) < 9.0 \
         AND PS.Length >= 1 AND PS.Length <= 4",
        // Bounded shortest path (enumerative SPScan, single morsel).
        "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
         WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 60 AND PS.Length <= 5 LIMIT 1",
    ] {
        assert_parallel_equals_serial(&db, sql);
    }
}

#[test]
fn relational_composition_runs_parallel() {
    let db = follower_db();
    for sql in [
        // Aggregation above the parallel scan.
        "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 2",
        // Projection of path components.
        "SELECT PS.StartVertex.Id, PS.EndVertex.Id FROM g.Paths PS \
         WHERE PS.Length = 2 AND PS.StartVertex.Id = 5",
        // ORDER BY above the scan.
        "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 0 \
         AND PS.Length >= 1 AND PS.Length <= 3 ORDER BY PS.Length",
    ] {
        assert_parallel_equals_serial(&db, sql);
    }
}

/// Counting scans (`emit=count`) at 4 workers: the workers step over their
/// morsels' paths and the per-worker counts are summed. The answer, the
/// counted cardinality and the traversal counters must be the serial
/// counting scan's — and the serial and parallel *materializing* plan's
/// (`aggregate_pushdown` off), which enumerates the same paths.
#[test]
fn counting_scans_run_parallel() {
    let db = follower_db();
    let run = |sql: &str, workers: usize, pushdown: bool| {
        let mut cfg = db.config();
        cfg.optimizer.aggregate_pushdown = pushdown;
        db.set_config(cfg);
        set_workers(&db, workers);
        let rs = db.execute_with_metrics(sql).unwrap();
        let m = rs.metrics.expect("metrics requested");
        let scan = m.node("PathScan").expect("no PathScan node").clone();
        assert_eq!(scan.label.ends_with("emit=count)"), pushdown, "{sql}: {}", scan.label);
        let by_workers: u64 = m.workers.iter().map(|w| w.paths).sum();
        (rs.rows, scan.graph, scan.paths, by_workers)
    };
    for sql in [
        "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 2",
        "SELECT COUNT(*) FROM g.Paths P HINT(DFS) WHERE P.Length >= 1 AND P.Length <= 3",
        "SELECT COUNT(*), COUNT(P) FROM g.Paths P HINT(BFS) WHERE P.Length = 2",
        // Anchored: one seed, one morsel — the pool declines, the serial
        // counting scan runs.
        "SELECT COUNT(P) FROM g.Paths P HINT(BFS) \
         WHERE P.StartVertex.Id = 0 AND P.Length >= 1 AND P.Length <= 4",
    ] {
        let (rows, graph, paths, _) = run(sql, 1, true);
        let n = rows[0][0].to_string().parse::<u64>().unwrap();
        assert!(n > 0, "{sql}");
        assert_eq!(paths, Some(n), "{sql}");

        let (par_rows, par_graph, par_paths, by_workers) = run(sql, 4, true);
        assert_eq!((&par_rows, par_graph, par_paths), (&rows, graph, paths), "{sql}");
        let fanned_out = !sql.contains("StartVertex");
        assert_eq!(by_workers, if fanned_out { n } else { 0 }, "{sql}: per-worker counts");

        for workers in [1, 4] {
            let (mat_rows, mat_graph, mat_paths, _) = run(sql, workers, false);
            assert_eq!((&mat_rows, mat_graph, mat_paths), (&rows, graph, None), "{sql}@{workers}");
        }
    }
}

#[test]
fn prepared_statements_run_parallel() {
    let db = follower_db();
    let q = db
        .prepare(
            "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
             WHERE PS.StartVertex.Id = ? AND PS.Length >= 1 AND PS.Length <= 3",
        )
        .unwrap();
    for start in [0i64, 17, 63] {
        set_workers(&db, 1);
        let serial = db
            .execute_prepared(&q, &[Value::Integer(start)])
            .unwrap()
            .rows;
        set_workers(&db, 4);
        let parallel = db
            .execute_prepared(&q, &[Value::Integer(start)])
            .unwrap()
            .rows;
        assert_eq!(parallel, serial, "prepared start={start}");
        assert!(!serial.is_empty());
    }
}

#[test]
fn maintenance_then_parallel_scan_sees_updates() {
    let db = follower_db();
    set_workers(&db, 4);
    let before = rows_exact(
        &db,
        "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length = 1",
    );
    db.execute("INSERT INTO v VALUES (500)").unwrap();
    db.execute("INSERT INTO e VALUES (900, 0, 500, 1.0)").unwrap();
    let after = rows_exact(
        &db,
        "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length = 1",
    );
    let parse = |r: &Vec<Vec<String>>| r[0][0].parse::<i64>().unwrap();
    assert_eq!(parse(&after), parse(&before) + 1);
    // Deleting the edge restores the old answer (topology maintenance and
    // the parallel scan agree through DML churn).
    db.execute("DELETE FROM e WHERE id = 900").unwrap();
    assert_eq!(
        rows_exact(
            &db,
            "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length = 1",
        ),
        before
    );
}

#[test]
fn env_knob_reaches_engine_config() {
    // The CI hook: GRFUSION_WORKERS must flow into EngineConfig::default()
    // (and only there — ParallelConfig::default() stays serial so embedded
    // uses are unaffected).
    std::env::set_var("GRFUSION_WORKERS", "4");
    std::env::set_var("GRFUSION_MORSEL_SIZE", "16");
    let cfg = EngineConfig::default();
    std::env::remove_var("GRFUSION_WORKERS");
    std::env::remove_var("GRFUSION_MORSEL_SIZE");
    assert_eq!(cfg.parallel.workers, 4);
    assert_eq!(cfg.parallel.morsel_size, 16);
    assert_eq!(ParallelConfig::default().workers, 1);

    // A database built from that config answers identically to serial.
    let db = follower_db();
    let sql = "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length = 2";
    set_workers(&db, 1);
    let serial = rows_exact(&db, sql);
    db.set_config(cfg);
    assert_eq!(rows_exact(&db, sql), serial);
}
