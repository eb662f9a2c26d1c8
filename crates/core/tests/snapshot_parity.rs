//! One read path, one snapshot source: every read entry point binds the
//! live state under the writer's lock, so a read inside an open
//! transaction — the session's own, another thread's, or the writer's own
//! `INSERT … SELECT` and subquery folds — sees the transaction's writes.

use grfusion::{Database, ResultSet, Value};

const PREPARED: &str = "SELECT PS.EndVertex.name FROM social.Paths PS \
                        WHERE PS.StartVertex.Id = ? AND PS.Length = 2";
const FOLDED: &str = "SELECT name FROM users \
                      WHERE uid IN (SELECT b FROM rel WHERE a = 1) AND age >= 30 ORDER BY name";
const METERED: &str = "SELECT U.name, COUNT(PS) FROM users U, social.Paths PS \
                       WHERE PS.StartVertex.Id = U.uid AND PS.Length <= 2 AND U.age = 41 \
                       GROUP BY U.name ORDER BY U.name";

/// Tables + hash index + graph view on the default engine.
fn fixture() -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE users (uid INTEGER PRIMARY KEY, name VARCHAR, age INTEGER);
         CREATE TABLE rel (rid INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE);
         CREATE INDEX users_age ON users (age);
         INSERT INTO users VALUES (1, 'ann', 41), (2, 'bob', 30), (3, 'cy', 41),
                                  (4, 'dee', 25), (5, 'eve', 33), (6, 'fay', 41);
         INSERT INTO rel VALUES (10, 1, 2, 1.0), (11, 2, 3, 2.0), (12, 3, 4, 1.5),
                                (13, 1, 5, 0.5), (14, 5, 6, 2.5), (15, 6, 3, 1.0);
         CREATE UNDIRECTED GRAPH VIEW social VERTEXES(ID = uid, name = name) FROM users \
             EDGES(ID = rid, FROM = a, TO = b, w = w) FROM rel;",
    )
    .unwrap();
    db
}

/// The writes the transaction applies (and the committed reference
/// replays): a new vertex, two edges reaching it, one changed attribute.
const WRITES: [&str; 3] = [
    "INSERT INTO users VALUES (7, 'gus', 41)",
    "INSERT INTO rel VALUES (16, 1, 7, 1.0), (17, 7, 4, 1.0)",
    "UPDATE users SET age = 34 WHERE uid = 2",
];

/// Everything a reader can see, with wall-clock noise removed.
#[derive(Debug, PartialEq)]
struct Observed {
    prepared_plan: String,
    prepared_rows: Vec<Vec<Value>>,
    folded_rows: Vec<Vec<Value>>,
    metered_rows: Vec<Vec<Value>>,
    /// `(label, rows, nexts)` per plan node of the metered run.
    metered_nodes: Vec<(String, u64, u64)>,
    explain: String,
    /// `EXPLAIN ANALYZE` text without timings.
    analyze: String,
    dump: String,
}

fn sorted(rs: ResultSet) -> Vec<Vec<Value>> {
    let mut rows = rs.rows;
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// Drop every ` time=…us` token: the only nondeterministic part of the
/// annotated plan.
fn without_timings(text: &str) -> String {
    text.lines()
        .map(|l| {
            l.split(' ')
                .filter(|w| !w.starts_with("time="))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Observe `db` through every read entry point.
fn observe(db: &Database) -> Observed {
    let prepared = db.prepare(PREPARED).unwrap();
    let metered = db.execute_with_metrics(METERED).unwrap();
    let metrics = metered.metrics.clone().expect("metrics requested");
    let analyze: Vec<String> = db
        .execute(&format!("EXPLAIN ANALYZE {METERED}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    Observed {
        prepared_plan: prepared.explain(),
        prepared_rows: sorted(
            db.execute_prepared(&prepared, &[Value::Integer(1)])
                .unwrap(),
        ),
        folded_rows: db.execute(FOLDED).unwrap().rows,
        metered_rows: metered.rows,
        metered_nodes: metrics
            .nodes
            .iter()
            .map(|n| (n.label.clone(), n.rows, n.next_calls))
            .collect(),
        explain: db.explain(METERED).unwrap(),
        analyze: without_timings(&analyze.join("\n")),
        dump: db.state_dump().unwrap(),
    }
}

/// Inside `BEGIN … COMMIT` every reader sees the open transaction's writes:
/// the session itself through every entry point, exactly what a database
/// that committed the same writes shows, and a second thread too — there is
/// one read source. ROLLBACK returns every reader to the committed state.
#[test]
fn open_transaction_reads_its_own_writes() {
    let db = fixture();
    let committed = observe(&db);
    assert_eq!(
        committed.prepared_rows.len(),
        2,
        "{:?}",
        committed.prepared_rows
    );
    assert_eq!(
        committed.folded_rows,
        vec![vec![Value::text("bob")], vec![Value::text("eve")]]
    );

    db.execute("BEGIN").unwrap();
    for w in WRITES {
        db.execute(w).unwrap();
    }
    let in_txn = observe(&db);
    assert_ne!(in_txn.dump, committed.dump);
    let reference = fixture();
    for w in WRITES {
        reference.execute(w).unwrap();
    }
    assert_eq!(in_txn, observe(&reference));
    let their_dump = std::thread::scope(|s| s.spawn(|| db.state_dump().unwrap()).join().unwrap());
    assert_eq!(
        their_dump, in_txn.dump,
        "a second thread reads the open transaction"
    );

    // ROLLBACK: back to the committed state (logically — undo leaves the
    // touched vertexes in the delta overlay, so the layout may differ).
    db.execute("ROLLBACK").unwrap();
    let after = observe(&db);
    assert_eq!(after.dump, committed.dump);
    assert_eq!(after.prepared_rows, committed.prepared_rows);
    assert_eq!(after.folded_rows, committed.folded_rows);
    assert_eq!(after.metered_rows, committed.metered_rows);
}

/// The writer's own reads — `INSERT … SELECT` and the `IN (SELECT …)` of an
/// UPDATE/DELETE predicate — bind the live state under the lock the
/// statement already holds, so inside a transaction they see the session's
/// uncommitted rows.
#[test]
fn writer_side_reads_see_uncommitted_rows() {
    let db = fixture();
    db.execute("CREATE TABLE seen (uid INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("BEGIN").unwrap();
    db.execute(WRITES[0]).unwrap(); // gus, 41 — uncommitted
    let n = db
        .execute("INSERT INTO seen SELECT uid FROM users WHERE age = 41")
        .unwrap();
    assert_eq!(n.rows_affected, 4, "ann, cy, fay and the uncommitted gus");
    let n = db
        .execute("UPDATE users SET age = 42 WHERE uid IN (SELECT uid FROM seen WHERE uid >= 6)")
        .unwrap();
    assert_eq!(
        n.rows_affected, 2,
        "fay and gus, found through the uncommitted `seen` rows"
    );
    let n = db
        .execute("DELETE FROM seen WHERE uid IN (SELECT uid FROM users WHERE age = 42)")
        .unwrap();
    assert_eq!(n.rows_affected, 2);
    db.execute("COMMIT").unwrap();
    let left = db
        .execute("SELECT uid FROM seen ORDER BY uid")
        .unwrap()
        .rows;
    assert_eq!(left, vec![vec![Value::Integer(1)], vec![Value::Integer(3)]]);
}

/// `Database::explain`, the `EXPLAIN` statement and a prepared query's plan
/// all come out of the one compile function.
#[test]
fn explain_surfaces_share_one_compile() {
    let db = fixture();
    let statement: Vec<String> = db
        .execute(&format!("EXPLAIN {METERED}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    let api = db.explain(METERED).unwrap();
    assert_eq!(api.lines().collect::<Vec<_>>(), statement);
    // The prepared plan prints the same nodes without their typed schemas.
    let untyped: Vec<&str> = api
        .lines()
        .map(|l| l.split(" :: ").next().unwrap())
        .collect();
    let prepared = db.prepare(METERED).unwrap().explain();
    assert_eq!(prepared.lines().collect::<Vec<_>>(), untyped);
}

/// There is one settings copy: a setter called once reaches reads, reads
/// inside a transaction and DML alike.
#[test]
fn one_settings_copy_reaches_every_statement_kind() {
    use grfusion::{FaultKind, FaultPlan, ResourceKind};
    let db = fixture();
    let over_budget = |r: grfusion::Result<ResultSet>| match r {
        Err(grfusion::Error::ResourceExhausted { kind, .. }) => kind == ResourceKind::Rows,
        _ => false,
    };

    let mut cfg = db.config();
    cfg.limits.max_intermediate_rows = Some(2);
    db.set_config(cfg);
    assert_eq!(db.config(), cfg);
    assert!(over_budget(db.execute("SELECT uid FROM users")), "read");
    db.execute("BEGIN").unwrap();
    assert!(
        over_budget(db.execute("SELECT uid FROM users")),
        "read inside a transaction"
    );
    assert!(
        over_budget(db.execute("INSERT INTO rel SELECT uid + 100, uid, uid, 1.0 FROM users")),
        "writer-side read"
    );
    db.execute("ROLLBACK").unwrap();
    cfg.limits.max_intermediate_rows = None;
    db.set_config(cfg);
    assert_eq!(db.execute("SELECT uid FROM users").unwrap().rows.len(), 6);

    db.set_fault_plan(Some(FaultPlan::single(
        "dml.update.storage",
        1,
        FaultKind::Error,
    )));
    let before = db.state_dump().unwrap();
    assert!(db
        .execute("UPDATE users SET age = 1 WHERE uid = 1")
        .is_err());
    assert_eq!(
        db.state_dump().unwrap(),
        before,
        "faulted statement rolled back"
    );
    db.set_fault_plan(None);
    db.execute("UPDATE users SET age = 1 WHERE uid = 1")
        .unwrap();
}
