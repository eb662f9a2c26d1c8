//! Expression-semantics tests through the SQL surface: three-valued
//! logic, quantified range predicates, path aggregates, and aggregate
//! corner cases.

use grfusion::{Database, Value};

fn db_with_nulls() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (1, 10, 'x'), (2, NULL, 'y'), (3, 30, NULL)")
        .unwrap();
    db
}

#[test]
fn null_comparisons_reject_rows() {
    let db = db_with_nulls();
    // a > 5 is UNKNOWN for the NULL row → excluded.
    let rs = db.execute("SELECT id FROM t WHERE a > 5 ORDER BY id").unwrap();
    assert_eq!(rs.rows.len(), 2);
    // NOT (a > 5) is also UNKNOWN for NULL → still excluded (3VL, not
    // two-valued negation).
    let rs = db.execute("SELECT id FROM t WHERE NOT a > 5").unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn three_valued_and_or() {
    let db = db_with_nulls();
    // UNKNOWN OR TRUE = TRUE: the NULL-a row qualifies via the second arm.
    let rs = db
        .execute("SELECT id FROM t WHERE a > 100 OR b = 'y' ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Integer(2));
    // UNKNOWN AND FALSE = FALSE; UNKNOWN AND TRUE = UNKNOWN → rejected.
    let rs = db.execute("SELECT id FROM t WHERE a > 5 AND b = 'y'").unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn in_list_with_null_semantics() {
    let db = db_with_nulls();
    // NULL IN (...) is UNKNOWN → row 2 excluded.
    let rs = db
        .execute("SELECT id FROM t WHERE a IN (10, 30) ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    // NOT IN with NULL in the probe value is UNKNOWN too.
    let rs = db
        .execute("SELECT id FROM t WHERE a NOT IN (10) ORDER BY id")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Integer(3));
}

#[test]
fn between_and_arithmetic() {
    let db = db_with_nulls();
    let rs = db
        .execute("SELECT id FROM t WHERE a BETWEEN 5 AND 20")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs = db
        .execute("SELECT id FROM t WHERE a NOT BETWEEN 5 AND 20")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Integer(3));
    // integer division and modulo
    let rs = db.execute("SELECT 7 / 2, 7 % 2, 7.0 / 2 FROM t LIMIT 1").unwrap();
    assert_eq!(rs.rows[0][0], Value::Integer(3));
    assert_eq!(rs.rows[0][1], Value::Integer(1));
    assert_eq!(rs.rows[0][2], Value::Double(3.5));
    // division by zero is a runtime error
    assert!(db.execute("SELECT 1 / 0 FROM t").is_err());
}

/// `-9223372036854775808` is the literal `i64::MIN`, the value
/// `-9223372036854775807 - 1` computes; negating it again overflows.
#[test]
fn i64_min_is_writable_as_a_literal() {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("INSERT INTO t VALUES (-9223372036854775807 - 1), (0)")
        .unwrap();
    let rs = db
        .execute("SELECT id FROM t WHERE id = -9223372036854775808")
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Integer(i64::MIN)]]);
    assert!(db.execute("SELECT - -9223372036854775808 FROM t").is_err());
    assert!(db.execute("SELECT 9223372036854775808 FROM t").is_err());
}

#[test]
fn group_aggregates_skip_nulls() {
    let db = db_with_nulls();
    let rs = db
        .execute("SELECT COUNT(*), COUNT(a), SUM(a), AVG(a), MIN(a), MAX(a) FROM t")
        .unwrap();
    let row = &rs.rows[0];
    assert_eq!(row[0], Value::Integer(3)); // COUNT(*)
    assert_eq!(row[1], Value::Integer(2)); // COUNT(a) ignores NULL
    assert_eq!(row[2], Value::Integer(40));
    assert_eq!(row[3], Value::Double(20.0));
    assert_eq!(row[4], Value::Integer(10));
    assert_eq!(row[5], Value::Integer(30));
}

#[test]
fn aggregates_over_empty_input() {
    let db = db_with_nulls();
    let rs = db
        .execute("SELECT COUNT(*), SUM(a), MIN(a) FROM t WHERE id > 100")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Integer(0));
    assert!(rs.rows[0][1].is_null());
    assert!(rs.rows[0][2].is_null());
    // ... but a grouped aggregate over empty input yields no rows.
    let rs = db
        .execute("SELECT b, COUNT(*) FROM t WHERE id > 100 GROUP BY b")
        .unwrap();
    assert!(rs.rows.is_empty());
}

// ---------------------------------------------------------------------------
// Quantified range predicates on a small chain graph
// ---------------------------------------------------------------------------

/// 1 -e10(w=1)-> 2 -e11(w=5)-> 3 -e12(w=2)-> 4 (directed chain)
fn chain_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w INTEGER)")
        .unwrap();
    db.execute("INSERT INTO v VALUES (1), (2), (3), (4)").unwrap();
    db.execute("INSERT INTO e VALUES (10, 1, 2, 1), (11, 2, 3, 5), (12, 3, 4, 2)")
        .unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    db
}

#[test]
fn quantifier_all_positions() {
    let db = chain_db();
    // [0..*]: every edge w >= 1 — all paths qualify.
    let rs = db
        .execute(
            "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 \
             AND P.Length >= 1 AND P.Edges[0..*].w >= 1",
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Integer(3))); // lengths 1, 2, 3
    // [0..*] w < 5 rejects any path containing edge 11.
    let rs = db
        .execute(
            "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 1 \
             AND P.Length >= 1 AND P.Edges[0..*].w < 5",
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Integer(1))); // only 1->2
}

#[test]
fn quantifier_bounded_and_single() {
    let db = chain_db();
    // [1..1] requires position 1 to exist and w = 5 there.
    let rs = db
        .execute(
            "SELECT P.Length FROM g.Paths P WHERE P.StartVertex.Id = 1 \
             AND P.Edges[1..1].w = 5 ORDER BY P.Length",
        )
        .unwrap();
    let lens: Vec<i64> = rs.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    assert_eq!(lens, vec![2, 3]);
    // Single-index form as a scalar predicate behaves the same.
    let rs = db
        .execute(
            "SELECT P.Length FROM g.Paths P WHERE P.StartVertex.Id = 1 \
             AND P.Edges[1].w = 5 ORDER BY P.Length",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn quantifier_star_from_one_is_existential() {
    let db = chain_db();
    // [1..*] requires at least 2 edges (paper §6.1: Edges[5..*] ⇒ len ≥ 6).
    let rs = db
        .execute(
            "SELECT P.Length FROM g.Paths P WHERE P.StartVertex.Id = 1 \
             AND P.Edges[1..*].w >= 1 ORDER BY P.Length",
        )
        .unwrap();
    let lens: Vec<i64> = rs.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    assert_eq!(lens, vec![2, 3]);
}

#[test]
fn path_aggregate_bounds_and_pushdown() {
    let db = chain_db();
    // SUM of weights along 1->2->3->4 is 8; the bound prunes mid-traversal.
    let rs = db
        .execute(
            "SELECT P.Length, SUM(P.Edges.w) FROM g.Paths P \
             WHERE P.StartVertex.Id = 1 AND P.Length >= 1 AND SUM(P.Edges.w) < 7 \
             ORDER BY P.Length",
        )
        .unwrap();
    let sums: Vec<i64> = rs.rows.iter().map(|r| r[1].as_integer().unwrap()).collect();
    assert_eq!(sums, vec![1, 6]); // 1 and 1+5; 1+5+2=8 pruned
}

#[test]
fn path_min_max_avg_aggregates() {
    let db = chain_db();
    let rs = db
        .execute(
            "SELECT MIN(P.Edges.w), MAX(P.Edges.w), AVG(P.Edges.w), COUNT(P.Edges.w) \
             FROM g.Paths P WHERE P.StartVertex.Id = 1 AND P.Length = 3",
        )
        .unwrap();
    let row = &rs.rows[0];
    assert_eq!(row[0], Value::Integer(1));
    assert_eq!(row[1], Value::Integer(5));
    assert!((row[2].as_double().unwrap() - 8.0 / 3.0).abs() < 1e-12);
    assert_eq!(row[3], Value::Integer(3));
}

#[test]
fn zero_length_paths_and_vacuous_star() {
    let db = chain_db();
    // Reachability of a vertex from itself holds even under a [0..*]
    // filter (vacuously true on the zero-length path).
    let rs = db
        .execute(
            "SELECT P.Length FROM g.Paths P WHERE P.StartVertex.Id = 2 \
             AND P.EndVertex.Id = 2 AND P.Length <= 3 AND P.Edges[0..*].w > 100 LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Integer(0));
}
