//! Property tests for the row store: whatever random DML sequence runs,
//! the secondary indexes and the heap must agree exactly, row ids must
//! stay stable, and undo must restore the pre-transaction state.

use proptest::prelude::*;

use grfusion_common::{DataType, Schema, Value};
use grfusion_storage::{Catalog, IndexKind, Table, UndoOp};

#[derive(Debug, Clone)]
enum Op {
    Insert { key: i64, payload: i64 },
    Delete { pick: usize },
    Update { pick: usize, payload: i64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0i64..40, any::<i64>()).prop_map(|(key, payload)| Op::Insert { key, payload }),
            (0usize..64).prop_map(|pick| Op::Delete { pick }),
            (0usize..64, any::<i64>()).prop_map(|(pick, payload)| Op::Update { pick, payload }),
        ],
        0..60,
    )
}

fn make_table() -> Table {
    let mut t = Table::new(
        "t",
        Schema::from_pairs(&[
            ("k", DataType::Integer),
            ("p", DataType::Integer),
        ]),
    );
    t.create_index("uk", 0, true, IndexKind::Hash).unwrap();
    t.create_index("by_p", 1, false, IndexKind::Ordered).unwrap();
    t
}

/// Reference model: (row id, key, payload) triples.
type Model = Vec<(grfusion_common::RowId, i64, i64)>;

fn check_consistency(t: &Table, model: &Model) {
    assert_eq!(t.len(), model.len());
    // Heap agrees with the model.
    for (rid, k, p) in model {
        let row = t.get(*rid).expect("live row");
        assert_eq!(row[0], Value::Integer(*k));
        assert_eq!(row[1], Value::Integer(*p));
    }
    // Unique index finds exactly the modeled row per key.
    let uk = t.index_on(0, Some(IndexKind::Hash)).unwrap();
    for (rid, k, _) in model {
        assert_eq!(uk.get(&Value::Integer(*k)), vec![*rid], "key {k}");
    }
    // Ordered index range over everything returns every live row.
    let by_p = t.index_on(1, Some(IndexKind::Ordered)).unwrap();
    let mut from_index = by_p.range(None, None).unwrap();
    from_index.sort();
    let mut expected: Vec<_> = model.iter().map(|(r, _, _)| *r).collect();
    expected.sort();
    assert_eq!(from_index, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexes_and_heap_agree_under_random_dml(ops in arb_ops()) {
        let mut t = make_table();
        let mut model: Model = Vec::new();
        for op in ops {
            match op {
                Op::Insert { key, payload } => {
                    let dup = model.iter().any(|(_, k, _)| *k == key);
                    let r = t.insert(vec![Value::Integer(key), Value::Integer(payload)]);
                    if dup {
                        prop_assert!(r.is_err(), "duplicate key {} accepted", key);
                    } else {
                        model.push((r.unwrap(), key, payload));
                    }
                }
                Op::Delete { pick } => {
                    if model.is_empty() { continue; }
                    let i = pick % model.len();
                    let (rid, _, _) = model.remove(i);
                    t.delete(rid).unwrap();
                    prop_assert!(t.get(rid).is_none());
                }
                Op::Update { pick, payload } => {
                    if model.is_empty() { continue; }
                    let i = pick % model.len();
                    let (rid, k, _) = model[i];
                    t.update(rid, vec![Value::Integer(k), Value::Integer(payload)]).unwrap();
                    model[i] = (rid, k, payload);
                }
            }
            check_consistency(&t, &model);
        }
    }

    #[test]
    fn undo_log_round_trips_random_transactions(ops in arb_ops()) {
        let mut catalog = Catalog::new();
        let t = catalog.create_table(make_table()).unwrap();

        // Seed some committed rows.
        let mut live: Vec<(grfusion_common::RowId, i64)> = Vec::new();
        for k in 0..10 {
            let rid = t
                .insert(vec![Value::Integer(k), Value::Integer(k * 100)])
                .unwrap();
            live.push((rid, k));
        }
        let snapshot: Vec<(grfusion_common::RowId, Vec<Value>)> =
            t.scan().map(|(r, row)| (r, row.clone())).collect();

        // Run the ops inside an undo-logged transaction.
        let mut log: Vec<UndoOp> = Vec::new();
        let mut txn_live = live.clone();
        for op in ops {
            match op {
                Op::Insert { key, payload } => {
                    let r = t.insert(vec![Value::Integer(key + 1000), Value::Integer(payload)]);
                    if let Ok(rid) = r {
                        log.push(UndoOp::Insert { table: "t".into(), row: rid });
                        txn_live.push((rid, key + 1000));
                    }
                }
                Op::Delete { pick } => {
                    if txn_live.is_empty() { continue; }
                    let i = pick % txn_live.len();
                    let (rid, _) = txn_live.remove(i);
                    let old = t.delete(rid).unwrap();
                    log.push(UndoOp::Delete { table: "t".into(), row: rid, old });
                }
                Op::Update { pick, payload } => {
                    if txn_live.is_empty() { continue; }
                    let i = pick % txn_live.len();
                    let (rid, k) = txn_live[i];
                    let old = t
                        .update(rid, vec![Value::Integer(k), Value::Integer(payload)])
                        .unwrap();
                    log.push(UndoOp::Update { table: "t".into(), row: rid, old });
                }
            }
        }

        // Roll everything back, newest first: the table must equal the
        // snapshot exactly.
        while let Some(op) = log.pop() {
            op.undo(&mut catalog).unwrap();
        }
        let after: Vec<(grfusion_common::RowId, Vec<Value>)> = catalog
            .table("t")
            .unwrap()
            .scan()
            .map(|(r, row)| (r, row.clone()))
            .collect();
        prop_assert_eq!(snapshot, after);
    }
}
