//! Tier-1 EXPLAIN ANALYZE battery: one representative query per
//! EXPERIMENTS.md family (figs 7–10 plus the plain scan sources), each run
//! under metrics collection on a small fixed graph. Every family must
//! produce an annotated plan whose operators were actually pulled and whose
//! graph counters are populated — a zeroed or missing counter means the
//! instrumentation regressed even if results are still correct.

use grfusion::{Database, QueryMetrics, Value};

/// Weighted directed diamond-with-tail plus a back edge so `Length = 3`
/// cycles (the fig-10 triangle shape) exist: 1->2, 1->3, 2->4, 3->4,
/// 4->5, 5->6, 4->1.
fn fixture_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (1..=6i64).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let edges = [
        (10i64, 1i64, 2i64),
        (11, 1, 3),
        (12, 2, 4),
        (13, 3, 4),
        (14, 4, 5),
        (15, 5, 6),
        (16, 4, 1),
    ];
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

/// Run under metrics collection and apply the shared non-zero checks:
/// every plan node pulled and timed, and (when `graph` is set) non-zero
/// traversal counters somewhere in the tree.
fn collect(db: &Database, family: &str, sql: &str, expect_graph_work: bool) -> QueryMetrics {
    let rs = db
        .execute_with_metrics(sql)
        .unwrap_or_else(|e| panic!("{family}: {e}"));
    let m = rs.metrics.unwrap_or_else(|| panic!("{family}: metrics missing"));
    assert!(!m.nodes.is_empty(), "{family}: empty plan");
    for n in &m.nodes {
        assert!(n.next_calls > 0, "{family}: node {} never pulled", n.label);
    }
    if expect_graph_work {
        let g = m.graph_totals();
        assert!(
            g.vertices_visited > 0,
            "{family}: zero vertices visited\n{}",
            m.render()
        );
    }
    // The same query through the SQL front-end: EXPLAIN ANALYZE must print
    // an annotated tree, one plan line per metrics node.
    let rs = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let text: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(text.len(), m.nodes.len(), "{family}: EXPLAIN ANALYZE line count");
    assert!(
        text.iter().any(|l| l.contains("rows=")),
        "{family}: plan not annotated: {text:?}"
    );
    m
}

/// Fig 7 family — unconstrained s→t reachability (planner fast path).
#[test]
fn fig7_reachability_counters() {
    let db = fixture_db();
    let m = collect(
        &db,
        "fig7",
        "SELECT PS.Length FROM g.Paths PS \
         WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 6 \
         AND PS.Length <= 10 LIMIT 1",
        true,
    );
    let scan = m.node("PathScan").expect("no PathScan node");
    let g = scan.graph.expect("reachability scan lost its counters");
    assert!(g.edges_expanded > 0, "point-to-point search expanded no edges");
}

/// The reach probe runs on the PathScan's clock. A constant-anchored probe
/// used to start while the operator tree was built, so EXPLAIN ANALYZE
/// showed a whole search as ~0 µs of PathScan. Nine layers of 64 vertexes,
/// each wired to the whole next layer: a depth-8 probe walks ~25 000 edges
/// against two one-row operators above it, so the expected margin is three
/// orders of magnitude; and since these are wall-clock readings on a shared
/// box, one clean run out of five is enough.
#[test]
fn reach_probe_time_lands_on_the_pathscan_operator() {
    const LAYERS: i64 = 9;
    const WIDTH: i64 = 64;
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
        .unwrap();
    let vrows = (0..LAYERS * WIDTH).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let mut erows = Vec::new();
    for layer in 0..LAYERS - 1 {
        for a in 0..WIDTH {
            for b in 0..WIDTH {
                let id = erows.len() as i64;
                let (a, b) = (layer * WIDTH + a, (layer + 1) * WIDTH + b);
                erows.push(vec![Value::Integer(id), Value::Integer(a), Value::Integer(b)]);
            }
        }
    }
    db.bulk_insert("e", erows).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b) FROM e",
    )
    .unwrap();
    let sql = format!(
        "SELECT PS.Length FROM g.Paths PS \
         WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = {} \
         AND PS.Length <= 8 LIMIT 1",
        (LAYERS - 1) * WIDTH
    );
    let mut seen = Vec::new();
    let owned = (0..5).any(|_| {
        let m = collect(&db, "reach-depth-8", &sql, true);
        let root = &m.nodes[0];
        let scan = m.node("PathScan").expect("no PathScan node");
        assert_eq!(scan.rows, 1);
        assert!(scan.graph.expect("no counters").edges_expanded > 20_000);
        seen.push((scan.time_ns, root.time_ns));
        // PathScan is a leaf, so its inclusive time is its self time.
        2 * scan.time_ns >= root.time_ns
    });
    assert!(owned, "(PathScan ns, root ns) per run: {seen:?}");
}

/// Fig 8 family — constrained reachability: the pushed edge predicate
/// reads a sealed edge's `w` from the view's columns, and an edge whose
/// `w` an UPDATE changed since the seal through its tuple pointer, which
/// shows up as tuple-pointer dereferences (§6.2's per-hop attribute cost).
#[test]
fn fig8_constrained_counts_derefs() {
    let db = fixture_db();
    let sql = "SELECT PS.PathString FROM g.Paths PS \
               WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 3 \
               AND PS.Edges[0..*].w > 0.5";
    let g = collect(&db, "fig8", sql, true).graph_totals();
    assert_eq!(g.tuple_derefs, 0, "a sealed edge's `w` is read from its column");
    db.execute("UPDATE e SET w = 2.0 WHERE id = 10").unwrap();
    let g = collect(&db, "fig8", sql, true).graph_totals();
    assert!(g.tuple_derefs > 0, "the updated edge never dereferenced its tuple");
}

/// Fig 9 family — shortest paths via HINT(SHORTESTPATH(w)).
#[test]
fn fig9_shortest_path_counters() {
    let db = fixture_db();
    let m = collect(
        &db,
        "fig9",
        "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
         WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 6 LIMIT 1",
        true,
    );
    let g = m.graph_totals();
    assert!(g.edges_expanded > 0, "Dijkstra examined no edges");
}

/// Fig 10 family — triangle counting: unanchored Length = 3 cycles.
#[test]
fn fig10_triangle_counters() {
    let db = fixture_db();
    let rs = db
        .execute_with_metrics(
            "SELECT COUNT(PS) FROM g.Paths PS \
             WHERE PS.Length = 3 AND PS.StartVertex.Id = PS.EndVertex.Id",
        )
        .unwrap();
    // The cycles 1->2->4->1 and 1->3->4->1, each seen from its 3 seeds.
    assert_eq!(rs.rows, vec![vec![Value::Integer(6)]]);
    let m = rs.metrics.unwrap();
    let g = m.graph_totals();
    assert!(g.vertices_visited > 0 && g.edges_expanded > 0);
    // The closing conjunct is consumed, so no filter is left and the scan
    // counts: one row, six paths, no Aggregate above it.
    let scan = m.node("PathScan").expect("no PathScan node");
    assert!(scan.label.ends_with("closing, emit=count)"), "{}", scan.label);
    assert_eq!((scan.rows, scan.paths), (1, Some(6)));
    assert!(m.node("Aggregate").is_none() && m.node("Filter").is_none(), "{}", m.render());
}

/// Plain scan sources — vertex and edge scans over the graph view.
#[test]
fn scan_sources_are_metered() {
    let db = fixture_db();
    let m = collect(
        &db,
        "vertex-scan",
        "SELECT VS.Id FROM g.Vertexes VS WHERE VS.fanOut >= 1",
        false,
    );
    let scan = m.node("VertexScan").expect("no VertexScan node");
    assert!(scan.rows > 0 && scan.time_ns > 0);
    let m = collect(
        &db,
        "edge-scan",
        "SELECT ES.Id FROM g.Edges ES",
        false,
    );
    let scan = m.node("EdgeScan").expect("no EdgeScan node");
    assert_eq!(scan.rows, 7);
}

/// Metrics off (the default execute path) must leave `metrics` unset — the
/// counters are not collected, not just not rendered.
#[test]
fn metrics_absent_when_not_requested() {
    let db = fixture_db();
    let rs = db
        .execute("SELECT PS.Length FROM g.Paths PS WHERE PS.Length = 1")
        .unwrap();
    assert!(rs.metrics.is_none());
}
