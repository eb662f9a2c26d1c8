//! Analyzer battery: the static QEP verifier's two promises, exercised
//! from the public `Database` surface.
//!
//! * **Positive**: every query of the fig7–fig10 / metrics-battery
//!   families is accepted, executes with zero runtime type errors, and
//!   every emitted row matches the statically inferred result schema —
//!   with the executor's contract check on (it runs in every debug build).
//! * **Negative**: ill-typed queries are rejected *at plan time* with an
//!   `Error::Analysis` carrying the 1-based `line:col` of the offending
//!   token.

use grfusion::Database;
use grfusion_common::Error;

/// Diamond graph (1->2, 1->3, 2->4, 3->4, 4->5, 5->6) with a VARCHAR
/// vertex attribute and a DOUBLE edge weight, plus a plain relational
/// table `t` with a NULL to keep nullability honest, and a table `u`
/// that shares `t`'s column `x`.
fn fixture_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, name VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    for (id, name) in [(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e"), (6, "f")] {
        db.execute(&format!("INSERT INTO v VALUES ({id}, '{name}')"))
            .unwrap();
    }
    for (id, a, b, w) in [
        (10, 1, 2, 1.0),
        (11, 1, 3, 4.0),
        (12, 2, 4, 2.0),
        (13, 3, 4, 0.5),
        (14, 4, 5, 1.5),
        (15, 5, 6, 3.0),
    ] {
        db.execute(&format!("INSERT INTO e VALUES ({id}, {a}, {b}, {w})"))
            .unwrap();
    }
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, name = name) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, s VARCHAR, d DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 7, 'p', 0.5)").unwrap();
    db.execute("INSERT INTO t VALUES (2, NULL, 'q', 1.5)").unwrap();
    db.execute("INSERT INTO t VALUES (3, -3, 'r', 2.5)").unwrap();
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, x INTEGER)")
        .unwrap();
    db
}

/// The fig7–fig10 / metrics-battery query families: reachability,
/// shortest path, windowed enumeration (with pushed predicates and
/// attribute projection), vertex/edge scans, relational mixes, joins,
/// and aggregation.
const POSITIVE: &[&str] = &[
    // fig7: bounded reachability.
    "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 1 \
     AND PS.EndVertex.Id = 6 AND PS.Length <= 10 LIMIT 1",
    // fig8: shortest path with an edge-weight cost attribute.
    "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
     WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5 AND PS.Length <= 4",
    // fig9/10: windowed enumeration down both traversal hints.
    "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(DFS) \
     WHERE PS.Length >= 1 AND PS.Length <= 3",
    "SELECT PS.PathString FROM g.Paths PS HINT(BFS) \
     WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 3",
    // Pushed traversal predicate over the exposed edge attribute.
    "SELECT PS.PathString FROM g.Paths PS \
     WHERE PS.Edges[0..*].w < 5.0 AND PS.Length >= 1 AND PS.Length <= 3",
    // Vertex attribute projected through the path (nullable VARCHAR).
    "SELECT PS.EndVertex.name, PS.Length FROM g.Paths PS \
     WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 2",
    // Graph element scans with the synthesized degree columns.
    "SELECT V.id, V.name, V.fanout FROM g.Vertexes V WHERE V.fanout > 0",
    "SELECT E.id, E.w FROM g.Edges E WHERE E.w < 5.0 ORDER BY E.w",
    // Aggregation over paths and over edge attributes.
    "SELECT COUNT(PS) FROM g.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Length <= 3",
    "SELECT PS.Length, COUNT(PS) FROM g.Paths PS \
     WHERE PS.Length >= 1 AND PS.Length <= 3 GROUP BY PS.Length ORDER BY PS.Length",
    "SELECT SUM(E.w), AVG(E.w), MIN(E.w), MAX(E.w) FROM g.Edges E",
    // Relational-only: arithmetic, BETWEEN, NULL-bearing column.
    "SELECT t.x + 1, t.s FROM t WHERE t.x BETWEEN -10 AND 10 ORDER BY t.x LIMIT 5",
    "SELECT DISTINCT PS.Length FROM g.Paths PS WHERE PS.Length <= 2",
    // Cross-model join: base table driving a path scan.
    "SELECT v.name, PS.Length FROM v, g.Paths PS \
     WHERE PS.StartVertex.Id = v.id AND PS.Length = 1",
];

/// Every row of every result must match the advertised schema: exact
/// arity and per-column admissibility.
fn assert_rows_match_schema(sql: &str, db: &Database) {
    let rs = db
        .execute(sql)
        .unwrap_or_else(|e| panic!("analyzer rejected or execution failed\n  sql: {sql}\n  err: {e}"));
    for (r, row) in rs.rows.iter().enumerate() {
        assert_eq!(
            row.len(),
            rs.schema.len(),
            "row {r} arity != schema arity for {sql}"
        );
        for (i, (v, col)) in row.iter().zip(rs.schema.columns()).enumerate() {
            assert!(
                col.data_type.admits(v),
                "row {r} col {i} (`{}` {}) got {v:?} for {sql}",
                col.name,
                col.data_type
            );
        }
    }
}

#[test]
fn positive_battery_serial() {
    let db = fixture_db();
    for sql in POSITIVE {
        assert_rows_match_schema(sql, &db);
    }
}

/// Every accepted query's EXPLAIN carries an inferred schema on every
/// plan line.
#[test]
fn positive_battery_explains_with_schemas() {
    let db = fixture_db();
    for sql in POSITIVE {
        let text = db.explain(sql).unwrap();
        for line in text.lines() {
            assert!(
                line.contains(" :: ("),
                "EXPLAIN line lacks an inferred schema: {line}\n  sql: {sql}"
            );
        }
    }
}

/// Ill-typed statements and the exact diagnostic (with 1-based source
/// span) the analyzer must reject them with at plan time.
const NEGATIVE: &[(&str, &str)] = &[
    (
        "SELECT nope FROM t",
        "unknown column `nope` at 1:8",
    ),
    (
        "SELECT t.nope FROM t",
        "unknown column `nope` on binding `t` at 1:10",
    ),
    (
        "SELECT x FROM t WHERE s > 1",
        "cannot compare VARCHAR with INTEGER at 1:23",
    ),
    (
        "SELECT x FROM t WHERE x",
        "WHERE predicate must be BOOLEAN, got INTEGER at 1:23",
    ),
    (
        "SELECT x + s FROM t",
        "arithmetic requires numeric operands, got VARCHAR at 1:12",
    ),
    (
        "SELECT -s FROM t",
        "unary minus requires a numeric operand, got VARCHAR at 1:9",
    ),
    (
        "SELECT NOT x FROM t",
        "NOT requires a BOOLEAN operand, got INTEGER at 1:12",
    ),
    (
        "SELECT x FROM t WHERE x AND 1 < 2",
        "AND requires BOOLEAN operands, got INTEGER at 1:23",
    ),
    (
        "SELECT SUM(s) FROM t",
        "SUM() requires a numeric argument, got VARCHAR at 1:12",
    ),
    (
        "SELECT AVG(s) FROM t",
        "AVG() requires a numeric argument, got VARCHAR at 1:12",
    ),
    (
        "SELECT FROBNICATE(x) FROM t",
        "unknown function `FROBNICATE` at 1:19",
    ),
    (
        "SELECT MIN(PS) FROM g.Paths PS WHERE PS.Length <= 1",
        "MIN cannot aggregate PATH values at 1:12",
    ),
    (
        "SELECT PS.Nope FROM g.Paths PS WHERE PS.Length <= 1",
        "unknown path property `Nope` on `PS` at 1:11",
    ),
    (
        "SELECT PS.EndVertex.nope FROM g.Paths PS WHERE PS.Length <= 1",
        "graph view `g` has no vertex attribute `nope` at 1:21",
    ),
    (
        "SELECT PS.Edges[0..*].nope FROM g.Paths PS WHERE PS.Length <= 1",
        "graph view `g` has no edge attribute `nope` at 1:23",
    ),
    (
        "SELECT PS FROM g.Paths PS WHERE PS > 3",
        "cannot compare PATH with INTEGER at 1:33",
    ),
    (
        "SELECT x FROM t WHERE x IN (1, s)",
        "cannot compare INTEGER with VARCHAR at 1:32",
    ),
    (
        "SELECT x FROM t WHERE x BETWEEN 1 AND s",
        "cannot compare INTEGER with VARCHAR at 1:39",
    ),
    (
        "SELECT V.id FROM g.Vertexes V WHERE V.name < 3",
        "cannot compare VARCHAR with INTEGER at 1:37",
    ),
    (
        "SELECT PS.Length FROM g.Paths PS WHERE PS.PathString > PS.Cost",
        "cannot compare VARCHAR with DOUBLE at 1:40",
    ),
    (
        "SELECT x, COUNT(*) FROM t GROUP BY x HAVING x",
        "HAVING predicate must be BOOLEAN, got INTEGER at 1:45",
    ),
    // Conjuncts the planner consumes (anchors, length bounds, pushed
    // traversal and aggregate predicates, leaf filters) are typed against
    // the whole FROM clause all the same.
    (
        "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 'a'",
        "cannot compare INTEGER with VARCHAR at 1:40",
    ),
    (
        "SELECT PS.Length FROM g.Paths PS WHERE PS.Length = 'x'",
        "cannot compare INTEGER with VARCHAR at 1:40",
    ),
    (
        "SELECT PS.Length FROM g.Paths PS WHERE PS.Edges[0..*].w < 'x' AND PS.Length <= 2",
        "cannot compare DOUBLE with VARCHAR at 1:40",
    ),
    (
        "SELECT PS.Length FROM g.Paths PS WHERE PS.Edges[0..*].nope < 1 AND PS.Length <= 2",
        "graph view `g` has no edge attribute `nope` at 1:55",
    ),
    (
        "SELECT PS.Length FROM g.Paths PS WHERE SUM(PS.Edges.w) < 'x' AND PS.Length <= 2",
        "cannot compare DOUBLE with VARCHAR at 1:44",
    ),
    (
        "SELECT PS.Length FROM g.Paths PS WHERE SUM(PS.Vertexes.name) < 3 AND PS.Length <= 2",
        "SUM() requires a numeric argument, got VARCHAR at 1:44",
    ),
    (
        "SELECT t.id FROM t, u WHERE x = 7",
        "ambiguous column `x` at 1:29",
    ),
    (
        "SELECT SUM(x) + s FROM t GROUP BY s",
        "arithmetic requires numeric operands, got VARCHAR at 1:17",
    ),
    (
        "SELECT s FROM t GROUP BY s ORDER BY x",
        "column `x` must appear in GROUP BY or be an aggregate at 1:37",
    ),
    (
        "INSERT INTO t VALUES (99, 'x', 's', 1.5)",
        "cannot insert VARCHAR into column `x` (INTEGER)",
    ),
    (
        "UPDATE t SET x = 'abc'",
        "cannot assign VARCHAR to column `x` (INTEGER)",
    ),
    (
        "DELETE FROM t WHERE x + 1",
        "WHERE predicate must be BOOLEAN, got INTEGER at 1:21",
    ),
];

#[test]
fn negative_battery_rejects_at_plan_time() {
    let db = fixture_db();
    let rows_before = db.table_len("t").unwrap();
    for (sql, want) in NEGATIVE {
        match db.execute(sql) {
            Err(Error::Analysis(msg)) => assert!(
                msg.contains(want),
                "wrong diagnostic for {sql}\n  want substring: {want}\n  got: {msg}"
            ),
            Err(other) => panic!("{sql} rejected with non-analysis error: {other}"),
            Ok(_) => panic!("ill-typed statement accepted: {sql}"),
        }
    }
    // Rejected DML must not have touched the table.
    assert_eq!(db.table_len("t").unwrap(), rows_before);
}

/// Prepared and explained statements are analyzed too — no bypass
/// route: every SELECT of `NEGATIVE` is rejected with the same diagnostic
/// by `execute`, `prepare` and `explain`.
#[test]
fn prepare_rejects_ill_typed_queries() {
    let db = fixture_db();
    let mut checked = 0;
    for (sql, want) in NEGATIVE.iter().filter(|(sql, _)| sql.starts_with("SELECT")) {
        let routes = [
            ("execute", db.execute(sql).map(drop)),
            ("prepare", db.prepare(sql).map(drop)),
            ("explain", db.explain(sql).map(drop)),
        ];
        for (route, got) in routes {
            match got {
                Err(Error::Analysis(msg)) => assert!(
                    msg.contains(want),
                    "wrong diagnostic from {route} for {sql}\n  want substring: {want}\n  got: {msg}"
                ),
                Err(other) => panic!("{route} rejected {sql} with non-analysis error: {other}"),
                Ok(()) => panic!("{route} accepted ill-typed statement: {sql}"),
            }
        }
        checked += 1;
    }
    assert_eq!(
        checked,
        NEGATIVE.len() - 3,
        "every SELECT row went through all three routes"
    );
}
