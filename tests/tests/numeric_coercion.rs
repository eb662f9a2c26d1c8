//! Numeric-coercion boundary regressions and batch-size agreement.
//!
//! Four coercion bugs are pinned here so they cannot regress:
//!
//! 1. **Index-probe saturation at 2^63** — `index_probe_key` admitted the
//!    DOUBLE `9223372036854775808.0` (= 2^63, the rounded value of
//!    `i64::MAX as f64`), which `as i64` then saturated to `i64::MAX`: an
//!    indexed equality probe against 2^63 wrongly returned the `i64::MAX`
//!    row. The probe's contract is *exact-integer* semantics: a DOUBLE key
//!    matches only the one integer it exactly equals.
//! 2. **`Value::as_integer` wrap-around** — the same open upper bound now
//!    guards every DOUBLE→INTEGER read (unit-tested next to the impl).
//! 3. **AVG precision past 2^53** — an all-integer AVG computed
//!    `isum as f64 / count as f64`, rounding the (exact, i128) sum before
//!    dividing; AVG over {2^60, 128, 1} came out 384307168202282432
//!    instead of 384307168202282368.
//!
//! 4. **NaN keyed by bit pattern** — `Value::group_key` folded `-0.0` onto
//!    `0.0` but left every NaN bit pattern its own key, so `+NaN` and the
//!    x86 default NaN (`inf * 0`, sign bit set) — equal under `sql_eq` —
//!    were two groups, two DISTINCT rows and two hash-index keys.
//!
//! The proptest sweeps integers around the 2^53 (f64 exactness) and 2^63
//! (i64 range) boundaries through inserts, DOUBLE-literal comparisons, and
//! aggregates, at one row per batch and at larger batch sizes, and
//! requires byte-identical answers.

use grfusion::{Database, Value};
use proptest::prelude::*;

/// An engine whose operators hand over `batch_rows` rows at a time.
fn db_with_batch_rows(batch_rows: usize) -> Database {
    let db = Database::new();
    db.set_batch_rows(batch_rows);
    db
}

/// A single-column PK table holding `ids` (hash-indexed on `id`).
fn ids_db(batch_rows: usize, ids: &[i64]) -> Database {
    let db = db_with_batch_rows(batch_rows);
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").unwrap();
    db.bulk_insert("t", ids.iter().map(|i| vec![Value::Integer(*i)]).collect())
        .unwrap();
    db
}

fn ids_for(db: &Database, sql: &str) -> Vec<i64> {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Integer(i) => *i,
            other => panic!("expected INTEGER, got {other}"),
        })
        .collect()
}

/// Regression (pre-fix: returned the `i64::MAX` row): an indexed equality
/// probe with the DOUBLE 2^63 — which no i64 equals — must come back empty
/// instead of saturating onto `i64::MAX`.
#[test]
fn index_probe_rejects_double_two_pow_63() {
    let db = ids_db(1, &[0, 7, i64::MAX]);
    let sql = "SELECT id FROM t WHERE id = 9223372036854775808.0";
    // The probe path (not the scan filter) must be what's exercised.
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("IndexLookup"), "{plan}");
    assert_eq!(ids_for(&db, sql), Vec::<i64>::new());
}

/// The probe boundaries, both signs: the largest DOUBLEs inside i64 range
/// still probe exactly; the first ones outside match nothing. 2^53 marks
/// where f64 stops being exact, 2^63 where i64 ends.
#[test]
fn index_probe_boundaries_at_two_pow_53_and_two_pow_63() {
    const P53: i64 = 1 << 53; // 9007199254740992
    const BELOW_P63: i64 = 9_223_372_036_854_774_784; // largest f64 < 2^63
    let rows = [P53, -P53, BELOW_P63, i64::MIN, 42];
    for batch_rows in [1, 1024] {
        let db = ids_db(batch_rows, &rows);
        let cases: [(&str, &[i64]); 6] = [
            ("9007199254740992.0", &[P53]),
            ("-9007199254740992.0", &[-P53]),
            ("9223372036854774784.0", &[BELOW_P63]),
            ("-9223372036854775808.0", &[i64::MIN]), // -(2^63) IS an i64
            ("9223372036854775808.0", &[]),          // 2^63 is not
            ("-9223372036854777856.0", &[]),         // next f64 below i64::MIN
        ];
        for (lit, expect) in cases {
            let sql = format!("SELECT id FROM t WHERE id = {lit}");
            assert_eq!(ids_for(&db, &sql), expect, "{sql}");
        }
    }
}

/// Regression (pre-fix: 384307168202282432): all-integer AVG divides the
/// exact i128 sum, so AVG({2^60, 128, 1}) is the correctly rounded
/// 384307168202282368.
#[test]
fn integer_avg_is_exact_past_two_pow_53() {
    for batch_rows in [1, 1024] {
        let db = db_with_batch_rows(batch_rows);
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER)")
            .unwrap();
        db.bulk_insert(
            "t",
            vec![
                vec![Value::Integer(0), Value::Integer(1 << 60)],
                vec![Value::Integer(1), Value::Integer(128)],
                vec![Value::Integer(2), Value::Integer(1)],
            ],
        )
        .unwrap();
        let rs = db.execute("SELECT AVG(x) FROM t").unwrap();
        assert_eq!(rs.rows[0][0], Value::Double(384_307_168_202_282_368.0));
    }
}

/// The same exact-division fix covers the path-aggregate AVG
/// (`AVG(PS.Edges.attr)` over an all-INTEGER edge attribute).
#[test]
fn path_aggregate_avg_is_exact_past_two_pow_53() {
    let db = db_with_batch_rows(1);
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w INTEGER)")
        .unwrap();
    db.bulk_insert("v", (0..4i64).map(|i| vec![Value::Integer(i)]).collect())
        .unwrap();
    let ws = [1i64 << 60, 128, 1];
    db.bulk_insert(
        "e",
        (0..3i64)
            .map(|i| {
                vec![
                    Value::Integer(i),
                    Value::Integer(i),
                    Value::Integer(i + 1),
                    Value::Integer(ws[i as usize]),
                ]
            })
            .collect(),
    )
    .unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    let rs = db
        .execute(
            "SELECT AVG(PS.Edges.w) FROM g.Paths PS \
             WHERE PS.StartVertex.Id = 0 AND PS.Length >= 3 AND PS.Length <= 3",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Double(384_307_168_202_282_368.0));
}

/// Regression (pre-fix: two groups of NaNs, two DISTINCT NaN rows, and an
/// indexed probe that found only the NaNs spelled like its key): every NaN
/// is one group, one distinct row and one hash-index key, as `sql_eq`
/// holds them all equal.
#[test]
fn every_nan_is_one_group_one_distinct_row_and_one_hash_key() {
    let computed = std::hint::black_box(f64::INFINITY) * std::hint::black_box(0.0);
    let nans = [
        f64::NAN,
        -f64::NAN,
        computed,
        f64::from_bits(0x7ff0_0000_0000_0001),
    ];
    assert!(nans.iter().all(|d| d.is_nan()));
    assert_ne!(nans[0].to_bits(), nans[1].to_bits());
    for batch_rows in [1, 1024] {
        let db = db_with_batch_rows(batch_rows);
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x DOUBLE)")
            .unwrap();
        db.execute("CREATE INDEX t_x ON t (x)").unwrap();
        let rows = nans.iter().chain(&[1.5]).zip(0i64..);
        db.bulk_insert(
            "t",
            rows.map(|(x, id)| vec![Value::Integer(id), Value::Double(*x)])
                .collect(),
        )
        .unwrap();

        let groups = db.execute("SELECT COUNT(*) FROM t GROUP BY x").unwrap();
        assert_eq!(
            groups.rows,
            [vec![Value::Integer(4)], vec![Value::Integer(1)]]
        );
        let distinct = db.execute("SELECT DISTINCT x FROM t").unwrap();
        assert_eq!(distinct.rows.len(), 2, "{:?}", distinct.rows);

        // NaN has no literal; a constant expression computes one (on x86,
        // the sign-bit-set default NaN) and still probes the hash index.
        let sql = "SELECT id FROM t WHERE x = (1e308 * 10) * 0";
        let plan = db.explain(sql).unwrap();
        assert!(plan.contains("IndexLookup"), "{plan}");
        assert_eq!(ids_for(&db, sql), [0, 1, 2, 3]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Integers around the 2^53/2^62 boundaries, inserted and then read
    /// back through DOUBLE-literal equality/range probes and the aggregate
    /// battery, must produce byte-identical results at one row per batch
    /// and at larger batch sizes — and the equality probe must hit exactly
    /// the rows whose integer is exactly the DOUBLE's value.
    #[test]
    fn boundary_round_trips_agree_across_batch_sizes(
        base_ix in 0usize..4,
        off in -3i64..4,
        size_ix in 0usize..4,
    ) {
        let base: i64 = [1 << 53, -(1 << 53), 1 << 62, -(1 << 62)][base_ix];
        let pivot = base + off;
        let ids = [pivot, pivot - 1, pivot + 1, 0, 7];
        let row = ids_db(1, &ids);
        let batch = ids_db([2usize, 3, 7, 1024][size_ix], &ids);

        let lit = format!("{:.1}", pivot as f64);
        for sql in [
            format!("SELECT id FROM t WHERE id = {lit}"),
            format!("SELECT id FROM t WHERE id >= {lit}"),
            format!("SELECT id FROM t WHERE id < {lit}"),
            format!("SELECT COUNT(*), MIN(id), MAX(id), SUM(id), AVG(id) FROM t WHERE id <> 7"),
        ] {
            // Outcomes must agree even when they are errors (SUM over
            // several values near ±2^62 legitimately overflows INTEGER).
            let render = |db: &Database| -> Result<Vec<Vec<String>>, String> {
                db.execute(&sql)
                    .map(|rs| {
                        rs.rows
                            .iter()
                            .map(|r| r.iter().map(|v| v.to_string()).collect())
                            .collect()
                    })
                    .map_err(|e| e.to_string())
            };
            prop_assert_eq!(render(&row), render(&batch), "{}", sql);
        }

        // Exact-integer probe semantics: the DOUBLE literal matches a row
        // iff that row's integer is exactly the literal's value. Only the
        // hash-probe path promises this (a scan compares through f64
        // rounding), so assert it only when the plan indexes.
        let probe_sql = format!("SELECT id FROM t WHERE id = {lit}");
        if !row.explain(&probe_sql).unwrap().contains("IndexLookup") {
            return Ok(());
        }
        let expected: Vec<i64> = ids
            .iter()
            .copied()
            .filter(|i| (pivot as f64).fract() == 0.0 && pivot as f64 == *i as f64 && {
                // the literal's exact integer, when in range
                let d = pivot as f64;
                d >= -9_223_372_036_854_775_808.0
                    && d < 9_223_372_036_854_775_808.0
                    && d as i64 == *i
            })
            .collect();
        let mut got = ids_for(&row, &probe_sql);
        got.sort_unstable();
        let mut expected = expected;
        expected.sort_unstable();
        prop_assert_eq!(got, expected, "{}", probe_sql);
    }
}
