//! Concurrency: `Database` is `Send + Sync` with serial execution inside
//! (the H-Store model). Concurrent callers must never deadlock, corrupt
//! state, or observe torn graph views.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grfusion::{
    Database, EngineConfig, Error, GovernorConfig, RequestOptions, ResourceKind, Value,
};

fn seeded_db() -> Arc<Database> {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..200i64).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let erows: Vec<Vec<Value>> = (0..199i64)
        .map(|i| {
            vec![
                Value::Integer(i),
                Value::Integer(i),
                Value::Integer(i + 1),
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
    Arc::new(db)
}

#[test]
fn concurrent_readers_see_consistent_answers() {
    let db = seeded_db();
    let mut handles = Vec::new();
    for t in 0..8 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..50 {
                let s = (t * 7 + i) % 150;
                let rs = db
                    .execute(&format!(
                        "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = {s} \
                         AND PS.EndVertex.Id = {} AND PS.Length <= 30 LIMIT 1",
                        s + 20
                    ))
                    .unwrap();
                // chain graph: s+20 is exactly 20 hops downstream
                assert_eq!(rs.rows.len(), 1, "thread {t} query {i}");
                assert_eq!(rs.rows[0][0], Value::Integer(20));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn concurrent_writers_and_readers_serialize() {
    let db = seeded_db();
    let mut handles = Vec::new();
    // Writers append fresh chain segments; readers traverse concurrently.
    for w in 0..4 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                let vid = 1000 + w * 100 + i;
                db.execute(&format!("INSERT INTO v VALUES ({vid})")).unwrap();
                db.execute(&format!(
                    "INSERT INTO e VALUES ({}, 0, {vid}, 1.0)",
                    1000 + w * 100 + i
                ))
                .unwrap();
            }
        }));
    }
    for _ in 0..4 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..50 {
                let rs = db
                    .execute(
                        "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 \
                         AND P.Length = 1",
                    )
                    .unwrap();
                // Vertex 0 starts with exactly 1 out-edge; writers add more.
                let n = rs.scalar().unwrap().as_integer().unwrap();
                assert!((1..=101).contains(&n), "count {n}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // Final state: 100 writer edges + the original one.
    let s = db.graph_stats("g").unwrap();
    assert_eq!(s.vertex_count, 300);
    assert_eq!(s.edge_count, 299);
}

/// Many caller threads, each running unanchored scans against the same
/// shared `GraphTopology`: they must neither deadlock nor diverge from the
/// answer of a fresh database nobody else is reading.
#[test]
fn parallel_scans_hammer_shared_topology() {
    let db = seeded_db();
    let sql = "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 3";
    let expected = seeded_db()
        .execute(sql)
        .unwrap()
        .scalar()
        .unwrap()
        .as_integer()
        .unwrap();

    let mut handles = Vec::new();
    for t in 0..6 {
        let db = db.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..20 {
                let n = db
                    .execute(sql)
                    .unwrap()
                    .scalar()
                    .unwrap()
                    .as_integer()
                    .unwrap();
                assert_eq!(n, expected, "thread {t} iteration {i}");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// A row-budget violation mid-scan must surface as one clean typed `Err`
/// with no panic, deadlock, or poisoned state; the database stays usable
/// afterwards under the same budget.
#[test]
fn worker_budget_error_propagates_cleanly() {
    let sql = "SELECT PS.PathString FROM g.Paths PS WHERE PS.Length >= 1 AND PS.Length <= 4";
    let db = seeded_db();
    db.set_config(EngineConfig {
        governor: GovernorConfig {
            max_intermediate_rows: Some(50),
            ..GovernorConfig::default()
        },
        ..EngineConfig::default()
    });
    let err = db.execute(sql).expect_err("run must exceed budget");
    assert!(
        matches!(err, Error::ResourceExhausted { kind: ResourceKind::Rows, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("resource exhausted"));

    // The engine is not poisoned: a cheap query still works.
    let rs = db
        .execute("SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length = 1")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_integer().unwrap(), 1);
}

/// An evaluation error raised mid-traversal (negative edge cost during
/// shortest-path enumeration) propagates as one clean execution `Err`,
/// the same on every run, and leaves the database usable.
#[test]
fn worker_traversal_error_matches_serial() {
    let db = seeded_db();
    // Poison one edge weight so bounded shortest-path enumeration errors.
    db.execute("INSERT INTO v VALUES (900)").unwrap();
    db.execute("INSERT INTO e VALUES (900, 0, 900, -3.0)").unwrap();
    // Bounded => the enumerative SPScan (no Dijkstra fast path).
    let sql = "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
               WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 5 AND PS.Length <= 6";

    let err = db.execute(sql).expect_err("negative cost must error");
    assert!(
        matches!(&err, Error::Execution(m) if m.contains("non-negative edge cost")),
        "{err:?}"
    );
    assert_eq!(db.execute(sql).expect_err("the error is deterministic"), err);
    let rs = db
        .execute("SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length = 1")
        .unwrap();
    assert_eq!(rs.scalar().unwrap().as_integer().unwrap(), 2);
}

#[test]
fn prepared_queries_shared_across_threads() {
    let db = seeded_db();
    let q = Arc::new(
        db.prepare(
            "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = ? \
             AND PS.EndVertex.Id = ? AND PS.Length <= 30 LIMIT 1",
        )
        .unwrap(),
    );
    let mut handles = Vec::new();
    for t in 0..6 {
        let db = db.clone();
        let q = q.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..40 {
                let s = (t * 11 + i) % 150;
                let rs = db
                    .execute_prepared(&q, &[Value::Integer(s), Value::Integer(s + 10)])
                    .unwrap();
                assert_eq!(rs.rows[0][0], Value::Integer(10));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Many reader threads running point-to-point searches against one shared
/// `GraphTopology`: the search state is per thread,
/// so every thread must get the serial answers — the very same paths, since
/// the kernel is deterministic — for both the BFS and the Dijkstra probes
/// that share the scratch.
#[test]
fn point_to_point_probes_on_a_shared_topology_match_serial() {
    use grfusion_common::RowId;
    use grfusion_graph::{hop_minimal_path, shortest_path, EdgeSlot, GraphTopology, NoFilter};

    const N: i64 = 600;
    let mut g = GraphTopology::new("g", true);
    for v in 0..N {
        g.add_vertex(v, RowId(0)).unwrap();
    }
    let mut eid = 0;
    for v in 0..N {
        for step in [1, 7, 31] {
            g.add_edge(eid, v, (v + step) % N, RowId(0)).unwrap();
            eid += 1;
        }
    }
    g.seal();
    // Leave part of the graph in the delta overlay.
    for id in (0..eid).step_by(97) {
        g.remove_edge(id).unwrap();
    }
    let cost = |g: &GraphTopology, e: EdgeSlot| 1.0 + (g.edge_id(e) % 5) as f64;
    let probe = |i: i64| {
        let s = g.vertex_slot((i * 37) % N).unwrap();
        let t = g.vertex_slot((i * 101 + 13) % N).unwrap();
        let (hops, _) = hop_minimal_path(&g, s, t, 12, &NoFilter);
        let cheapest = shortest_path(&g, s, t, cost, &NoFilter).unwrap();
        (hops, cheapest)
    };
    let serial: Vec<_> = (0..200).map(probe).collect();
    assert!(serial.iter().any(|(hops, _)| hops.is_some()));
    assert!(serial.iter().any(|(hops, _)| hops.is_none()), "some pairs are over 12 hops apart");

    const THREADS: i64 = 8;
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (probe, serial, start) = (&probe, &serial, &start);
            scope.spawn(move || {
                start.wait();
                // Each thread walks the probes from its own offset, so at
                // any moment different threads are in different searches.
                for k in 0..200 {
                    let i = (k + t * 25) % 200;
                    assert_eq!(probe(i), serial[i as usize], "thread {t} probe {i}");
                }
            });
        }
    });
}

/// A directed `n`-clique: `v(id)`, `e(id, a, b)` and the view `g`.
fn clique_db(n: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
        .unwrap();
    db.bulk_insert("v", (0..n).map(|i| vec![Value::Integer(i)]).collect())
        .unwrap();
    let pairs = (0..n).flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| (a, b)));
    let erows = pairs
        .zip(0..)
        .map(|((a, b), id)| vec![Value::Integer(id), Value::Integer(a), Value::Integer(b)])
        .collect();
    db.bulk_insert("e", erows).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b) FROM e",
    )
    .unwrap();
    db
}

/// Every path of length 1..8 of a 12-clique: far more than any build
/// counts in a second, so the statement runs until it is stopped.
const CLIQUE_BOMB: &str = "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 8";

/// The cancel token sits beside the engine lock, not under it: a thread
/// asking for it while another thread's statement holds the lock gets it
/// at once, and the token then cancels a statement issued after the call.
#[test]
fn cancel_token_never_waits_behind_a_running_statement() {
    let db = clique_db(12);
    let bounded = |ms| RequestOptions {
        deadline_ms: Some(ms),
        cancel: None,
    };
    std::thread::scope(|s| {
        // Thread A: a statement that holds the engine lock for its whole
        // one-second deadline, then — after a pause — the cancel.
        let a = s.spawn(|| {
            let start = Instant::now();
            let err = db.execute_script_with_request(CLIQUE_BOMB, &bounded(1_000));
            let done = Instant::now();
            std::thread::sleep(Duration::from_millis(200));
            db.cancel_token().cancel();
            (start, done, err)
        });
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        let token = db.cancel_token();
        let got = Instant::now();
        // Issued after the call: it queues behind A, starts when A's
        // statement ends, and is still running when A cancels.
        let err = db
            .execute_script_with_request(CLIQUE_BOMB, &bounded(10_000))
            .unwrap_err();
        let (a_start, a_done, a_err) = a.join().unwrap();

        assert!(
            a_start < asked,
            "A had not started when the token was asked for"
        );
        assert!(
            matches!(
                a_err,
                Err(Error::ResourceExhausted {
                    kind: ResourceKind::Deadline,
                    ..
                })
            ),
            "A: {a_err:?}"
        );
        assert!(
            got + Duration::from_millis(500) < a_done,
            "cancel_token() took {:?}; A's statement ended {:?} after it was asked for",
            got - asked,
            a_done - asked
        );
        assert!(
            matches!(
                err,
                Error::ResourceExhausted {
                    kind: ResourceKind::Cancelled,
                    ..
                }
            ),
            "{err:?}"
        );
        drop(token);
    });
}
