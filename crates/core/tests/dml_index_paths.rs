//! UPDATE and DELETE reach their rows through an index; these tests pin
//! what must not change with that: statement atomicity when the selecting
//! index's own key is rewritten, and the vertex-id cascade's rows, order
//! and fault-site hits now that it walks incident edges instead of the
//! edge source.

use grfusion::{Database, FaultKind, FaultPlan, Value};

fn ints(db: &Database, sql: &str) -> Vec<Vec<i64>> {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.as_integer().unwrap()).collect())
        .collect()
}

/// Vertices 0..=9, edges 100..=119 (a ring and its chords), an ordered
/// index on `w` beside the hash primary key, and edge 1105 in the way of
/// `id + 1000`.
fn ring_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)")
        .unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w INTEGER)")
        .unwrap();
    db.execute("CREATE ORDERED INDEX e_w ON e (w)").unwrap();
    for v in 0..10 {
        db.execute(&format!("INSERT INTO v VALUES ({v})")).unwrap();
    }
    for i in 0..20 {
        let (a, b) = (i % 10, (i * 3 + 1) % 10);
        db.execute(&format!(
            "INSERT INTO e VALUES ({}, {a}, {b}, {})",
            100 + i,
            i % 4
        ))
        .unwrap();
    }
    db.execute("INSERT INTO e VALUES (1105, 0, 1, 9)").unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    db
}

/// What an index would answer wrongly if a failed statement left entries
/// moved: point probes on old and new keys, a range through the ordered
/// index, and the topology's own edge ids.
fn probes(db: &Database) -> String {
    let mut out = String::new();
    for id in [100, 101, 104, 105, 106, 1100, 1101, 1104, 1105, 1106] {
        out.push_str(&format!(
            "{id}:{:?} ",
            ints(db, &format!("SELECT a, b, w FROM e WHERE id = {id}"))
        ));
        // The DML side of the same index (a no-op assignment).
        let n = db
            .execute(&format!("UPDATE e SET w = w WHERE id = {id}"))
            .unwrap()
            .rows_affected;
        out.push_str(&format!("dml={n} "));
    }
    out.push_str(&format!(
        "w<=1:{:?} ",
        ints(db, "SELECT id FROM e WHERE w <= 1 ORDER BY id")
    ));
    out.push_str(&format!(
        "edges:{:?}",
        ints(db, "SELECT E.id FROM g.EDGES E ORDER BY E.id")
    ));
    out
}

/// `SET id = id + 1000 WHERE id >= 100 AND id < 110` selects its victims
/// through the hash primary key it is rewriting; the sixth victim (105)
/// collides with 1105 after five rows, their index entries and their
/// topology edges have already moved.
#[test]
fn failed_key_rewriting_update_rolls_back_table_index_and_topology() {
    for in_txn in [false, true] {
        let case = format!("in_txn={in_txn}");
        let db = ring_db();
        if in_txn {
            db.execute("BEGIN").unwrap();
            db.execute("UPDATE e SET w = 7 WHERE id = 119").unwrap();
        }
        let before = (db.state_dump().unwrap(), probes(&db));
        let err = db
            .execute("UPDATE e SET id = id + 1000 WHERE id >= 100 AND id < 110")
            .unwrap_err();
        assert!(err.to_string().contains("1105"), "{case}: {err}");
        assert_eq!((db.state_dump().unwrap(), probes(&db)), before, "{case}");
        // The engine is usable and the same statement succeeds once the
        // obstacle is gone.
        db.execute("DELETE FROM e WHERE id = 1105").unwrap();
        let n = db
            .execute("UPDATE e SET id = id + 1000 WHERE id >= 100 AND id < 110")
            .unwrap()
            .rows_affected;
        assert_eq!(n, 10, "{case}");
        if in_txn {
            db.execute("ROLLBACK").unwrap();
            let pristine = ring_db();
            assert_eq!(
                (db.state_dump().unwrap(), probes(&db)),
                (pristine.state_dump().unwrap(), probes(&pristine)),
                "{case}: after ROLLBACK"
            );
        } else {
            assert_eq!(
                ints(
                    &db,
                    "SELECT id FROM e WHERE id >= 1100 AND id < 1110 ORDER BY id"
                )
                .len(),
                10,
                "{case}"
            );
            let stats = db.graph_stats("g").unwrap();
            assert_eq!((stats.vertex_count, stats.edge_count), (10, 20), "{case}");
        }
    }
}

/// The same failure injected at every per-victim fault site of the
/// index-selected statement, not only at the unique conflict.
#[test]
fn faults_inside_an_index_selected_update_roll_back_cleanly() {
    for site in [
        "dml.update.maintain",
        "dml.update.relink",
        "dml.update.storage",
        "dml.update.post",
    ] {
        let db = ring_db();
        let before = (db.state_dump().unwrap(), probes(&db));
        db.set_fault_plan(Some(FaultPlan::single(site, 4, FaultKind::Error)));
        let sql = "UPDATE e SET b = 7, id = id + 2000 WHERE id >= 100 AND id < 110";
        assert!(db.execute(sql).is_err(), "{site}");
        db.set_fault_plan(None);
        assert_eq!((db.state_dump().unwrap(), probes(&db)), before, "{site}");
        assert_eq!(db.execute(sql).unwrap().rows_affected, 10, "{site}");
    }
}

#[test]
fn vertex_rename_cascades_through_incident_edges_in_row_order() {
    for directed in [true, false] {
        let db = Database::new();
        db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w INTEGER)")
            .unwrap();
        db.execute("INSERT INTO v VALUES (1), (2), (3), (4)")
            .unwrap();
        // Out-edges, in-edges, a self-loop, a deleted parallel edge and
        // bystanders, interleaved so incident rows are not contiguous.
        db.execute(
            "INSERT INTO e VALUES (10, 1, 2, 0), (11, 3, 4, 0), (12, 2, 1, 0), (13, 1, 1, 0), \
             (14, 4, 3, 0), (15, 1, 2, 0), (16, 3, 1, 0)",
        )
        .unwrap();
        db.execute("DELETE FROM e WHERE id = 15").unwrap();
        let kind = if directed { "DIRECTED" } else { "UNDIRECTED" };
        db.execute(&format!(
            "CREATE {kind} GRAPH VIEW g VERTEXES(ID = id) FROM v \
             EDGES(ID = id, FROM = a, TO = b) FROM e"
        ))
        .unwrap();
        // One hit of `dml.update.cascade` per referencing row (10, 12, 13,
        // 16): the fourth exists, a fifth does not.
        let nth = |n| Some(FaultPlan::single("dml.update.cascade", n, FaultKind::Error));
        let before = db.state_dump().unwrap();
        db.set_fault_plan(nth(4));
        assert!(db.execute("UPDATE v SET id = 9 WHERE id = 1").is_err());
        assert_eq!(db.state_dump().unwrap(), before);
        db.set_fault_plan(nth(5));
        assert_eq!(
            db.execute("UPDATE v SET id = 9 WHERE id = 1")
                .unwrap()
                .rows_affected,
            1
        );
        db.set_fault_plan(None);
        assert_eq!(
            ints(&db, "SELECT id, a, b FROM e ORDER BY id"),
            vec![
                vec![10, 9, 2],
                vec![11, 3, 4],
                vec![12, 2, 9],
                vec![13, 9, 9],
                vec![14, 4, 3],
                vec![16, 3, 9]
            ]
        );
        let stats = db.graph_stats("g").unwrap();
        assert_eq!((stats.vertex_count, stats.edge_count), (4, 6));
        // The renamed vertex still reaches what it reached.
        let reached = db
            .execute("SELECT PS.EndVertex.Id FROM g.Paths PS WHERE PS.StartVertex.Id = 9 AND PS.Length = 1")
            .unwrap();
        assert!(reached.rows.contains(&vec![Value::Integer(2)]));
    }
}
