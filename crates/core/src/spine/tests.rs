//! The batch contract and the demand rule, operator by operator, over a
//! source that records what it was asked for.

use std::cell::RefCell;
use std::rc::Rc;

use grfusion_common::{DataType, Schema};
use grfusion_storage::IndexKind;

use super::*;
use crate::expr::CmpOp;

type TestResult<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

fn env() -> QueryEnv<'static> {
    QueryEnv {
        snap: None,
        limits: Default::default(),
        params: Vec::new(),
        gov: Default::default(),
        batch_rows: BATCH_ROWS,
    }
}

fn int(i: i64) -> Value {
    Value::Integer(i)
}

fn col(index: usize) -> PhysExpr {
    PhysExpr::Column {
        index,
        ty: DataType::Integer,
    }
}

fn cmp(op: CmpOp, left: PhysExpr, right: PhysExpr) -> PhysExpr {
    PhysExpr::Cmp {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// Emits the single-column rows `0..count`, never more than asked, and
/// logs every demand.
struct Source {
    next: i64,
    count: i64,
    asked: Rc<RefCell<Vec<usize>>>,
}

fn source<'e>(count: i64) -> (BoxOp<'e>, Rc<RefCell<Vec<usize>>>) {
    let asked = Rc::new(RefCell::new(Vec::new()));
    let op = Source {
        next: 0,
        count,
        asked: asked.clone(),
    };
    (Box::new(op), asked)
}

impl<'e> Operator<'e> for Source {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        self.asked.borrow_mut().push(max_rows);
        out.fill_rows(1, max_rows, |row, _| {
            if self.next == self.count {
                return Ok(false);
            }
            row.push(int(self.next));
            self.next += 1;
            Ok(true)
        })
    }
}

/// Drain `op` at `demand` rows per call: the batches' first columns.
fn drain(op: &mut dyn Operator<'_>, demand: usize) -> TestResult<Vec<Vec<i64>>> {
    let mut out = Batch::default();
    let mut batches = Vec::new();
    while op.next_batch(&mut out, demand)? {
        assert!((1..=demand).contains(&out.len()), "batch of {}", out.len());
        let firsts = (0..out.len()).map(|i| out.tuple(i)[0].as_integer());
        batches.push(firsts.collect::<Result<_>>()?);
    }
    assert!(out.is_empty(), "exhaustion leaves the batch empty");
    assert!(
        !op.next_batch(&mut out, demand)?,
        "exhausted stays exhausted"
    );
    Ok(batches)
}

#[test]
fn retain_compacts_pointers_and_arena_in_place() -> TestResult {
    let stored: Vec<Vec<Value>> = (0..5).map(|i| vec![int(i), int(10 * i)]).collect();
    let mut borrowed = Batch::default();
    for row in &stored {
        borrowed.refs.push(row);
    }
    let mut computed = Batch::default();
    computed.start(2);
    for row in &stored {
        computed.push_concat(&row[..1], &row[1..]);
    }
    for batch in [&mut borrowed, &mut computed] {
        let odd = |t: &[Value]| Ok(t[0].as_integer()? % 2 == 1);
        batch.retain(odd)?;
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.tuple(0), [int(1), int(10)]);
        assert_eq!(batch.tuple(1), [int(3), int(30)]);
        batch.retain(|_| Ok(false))?;
        assert!(batch.is_empty());
    }
    Ok(())
}

#[test]
fn table_scan_hands_out_the_stored_tuples_themselves() -> TestResult {
    let mut table = Table::new("t", Schema::from_pairs(&[("id", DataType::Integer)]));
    let ids: Vec<_> = (0..600)
        .map(|i| table.insert(vec![int(i)]))
        .collect::<Result<_>>()?;
    table.delete(ids[300])?;
    let (env, budget) = (env(), RowBudget::new(None));
    let keep = cmp(CmpOp::GtEq, col(0), PhysExpr::Literal(int(250)));
    let admit = Admit {
        filter: Some(&keep),
        env: &env,
        budget: &budget,
    };
    let mut scan = TableScan::new(&table, admit);
    let mut out = Batch::default();
    // 349 survivors, across a chunk boundary (256 slots) and a tombstone.
    let mut seen = 0;
    while scan.next_batch(&mut out, 100)? {
        for i in 0..out.len() {
            let id = ids[250 + seen + usize::from(seen >= 50)];
            let stored = table.get(id).ok_or("live row")?.as_slice();
            assert!(
                std::ptr::eq(out.tuple(i), stored),
                "tuple {seen} was copied"
            );
            seen += 1;
        }
    }
    assert_eq!(seen, 349);
    Ok(())
}

#[test]
fn limit_asks_for_its_remainder_then_stops_asking() -> TestResult {
    let (input, asked) = source(100);
    let mut limit = Limit {
        input,
        remaining: 5,
    };
    assert_eq!(drain(&mut limit, 3)?, [vec![0, 1, 2], vec![3, 4]]);
    assert_eq!(*asked.borrow(), [3, 2], "never more than it can still emit");

    let (input, asked) = source(2);
    let mut limit = Limit {
        input,
        remaining: 5,
    };
    assert_eq!(drain(&mut limit, 1024)?, [vec![0, 1]]);
    assert_eq!(*asked.borrow(), [5, 3], "a dry input is not asked again");
    Ok(())
}

#[test]
fn filter_and_project_pass_the_demand_down_unchanged() -> TestResult {
    let env = env();
    let (input, asked) = source(10);
    let seven_up = cmp(CmpOp::GtEq, col(0), PhysExpr::Literal(int(7)));
    let exprs = [col(0), col(0)];
    let mut plan = Project {
        input: Box::new(Filter {
            input,
            predicate: &seven_up,
            env: &env,
        }),
        rows: Batch::default(),
        exprs: &exprs,
        env: &env,
    };
    // One row asked for: the filter keeps asking for one until row 7 passes.
    assert_eq!(drain(&mut plan, 1)?, [vec![7], vec![8], vec![9]]);
    // 10 rows, the call that finds the input dry, and `drain`'s re-check.
    assert_eq!(*asked.borrow(), [1; 12]);
    Ok(())
}

#[test]
fn distinct_keeps_first_sightings_in_order() -> TestResult {
    let (input, _) = source(10);
    let env = env();
    // 0..10 modulo 3, computed by a projection below the DISTINCT.
    let exprs = [PhysExpr::Arith {
        op: grfusion_common::value::ArithOp::Mod,
        left: Box::new(col(0)),
        right: Box::new(PhysExpr::Literal(int(3))),
    }];
    let mut distinct = Distinct {
        input: Box::new(Project {
            input,
            rows: Batch::default(),
            exprs: &exprs,
            env: &env,
        }),
        seen: Default::default(),
        tracker: None,
    };
    assert_eq!(drain(&mut distinct, 4)?, [vec![0, 1, 2]]);
    Ok(())
}

#[test]
fn nested_loop_join_asks_its_streamed_side_for_what_the_demand_needs() -> TestResult {
    let (env, budget) = (env(), RowBudget::new(None));
    let (left, left_asked) = source(4);
    let (right, right_asked) = source(3);
    let admit = Admit {
        filter: None,
        env: &env,
        budget: &budget,
    };
    let mut join = NestedLoopJoin::new(left, 1, right, 2, admit, None);
    // Right-major: every left row against right row 0, then right row 1, …
    let batches = drain(&mut join, 8)?;
    assert_eq!(batches.concat(), [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    assert_eq!(
        left_asked.borrow()[0],
        BATCH_ROWS,
        "the build side is drained"
    );
    // 8 rows wanted at 4 per right row: 2 right rows. Asked for 2 again,
    // the last right row yields 4, and the 4 still wanted need 1 more (dry).
    // The two calls after exhaustion each ask for 2 and get nothing.
    assert_eq!(*right_asked.borrow(), [2, 2, 1, 2, 2]);
    Ok(())
}

#[test]
fn index_join_probes_per_outer_row_and_resumes_mid_probe() -> TestResult {
    let mut inner = Table::new(
        "inner",
        Schema::from_pairs(&[("k", DataType::Integer), ("v", DataType::Integer)]),
    );
    inner.create_index("by_k", 0, false, IndexKind::Hash)?;
    for (k, v) in [(0, 100), (2, 200), (2, 201), (2, 202), (4, 400)] {
        inner.insert(vec![int(k), int(v)])?;
    }
    let (env, budget, key) = (env(), RowBudget::new(None), col(0));
    let (outer, asked) = source(5);
    let admit = Admit {
        filter: None,
        env: &env,
        budget: &budget,
    };
    let index = inner
        .index_on(0, Some(IndexKind::Hash))
        .ok_or("index just created")?;
    let mut join = IndexJoin::new(outer, &inner, index, &key, admit, 3, false);
    let mut out = Batch::default();
    let mut joined = Vec::new();
    while join.next_batch(&mut out, 2)? {
        assert!(out.len() <= 2);
        joined.extend((0..out.len()).map(|i| out.tuple(i).to_vec()));
    }
    let want: Vec<Vec<Value>> = [
        (0, 0, 100),
        (2, 2, 200),
        (2, 2, 201),
        (2, 2, 202),
        (4, 4, 400),
    ]
    .iter()
    .map(|&(o, k, v)| vec![int(o), int(k), int(v)])
    .collect();
    assert_eq!(joined, want);
    assert!(
        asked.borrow().iter().all(|&n| n <= 2),
        "{:?}",
        asked.borrow()
    );

    // Built under a LIMIT, the join cannot know how many outer rows a
    // demand of 4 needs (outer row 2 alone yields three), so it steps its
    // outer one row per probe: rows 0, 1 and 2 fill the demand and row 3 is
    // never asked for.
    let (outer, asked) = source(5);
    let mut join = IndexJoin::new(outer, &inner, index, &key, admit, 3, true);
    assert!(join.next_batch(&mut out, 4)?);
    assert_eq!(out.len(), 4);
    assert_eq!(*asked.borrow(), [1, 1, 1]);
    Ok(())
}

#[test]
fn sort_is_stable_and_aggregate_groups_in_first_seen_order() -> TestResult {
    let env = env();
    let (input, asked) = source(7);
    // Sort 0..7 by (id % 2) descending: odd ids first, each run in input order.
    let parity = PhysExpr::Arith {
        op: grfusion_common::value::ArithOp::Mod,
        left: Box::new(col(0)),
        right: Box::new(PhysExpr::Literal(int(2))),
    };
    let keys = [(parity.clone(), false)];
    let mut sort = Sort::new(input, &keys, 1, &env, None);
    assert_eq!(drain(&mut sort, 4)?, [vec![1, 3, 5, 0], vec![2, 4, 6]]);
    assert_eq!(asked.borrow()[0], BATCH_ROWS, "a sort drains its input");

    let (input, _) = source(7);
    let groups = [parity];
    let aggs = [
        AggSpec {
            func: AggFunc::Count,
            arg: None,
        },
        AggSpec {
            func: AggFunc::Max,
            arg: Some(col(0)),
        },
    ];
    let mut agg = Aggregate::new(input, &groups, &aggs, &env, None);
    let mut out = Batch::default();
    assert!(agg.next_batch(&mut out, 1024)?);
    assert_eq!(out.len(), 2);
    assert_eq!(out.tuple(0), [int(0), int(4), int(6)]);
    assert_eq!(out.tuple(1), [int(1), int(3), int(5)]);

    // A global aggregate over nothing still answers with its defaults.
    let (input, _) = source(0);
    let mut agg = Aggregate::new(input, &[], &aggs, &env, None);
    assert!(agg.next_batch(&mut out, 1024)?);
    assert_eq!(out.tuple(0), [int(0), Value::Null]);
    Ok(())
}
