//! Index-driven selection against the scanning reference.
//!
//! `select_rows(.., None)` — every live row through the whole predicate —
//! is what UPDATE and DELETE did before the access-path chooser, and stays
//! the reference here: whatever path `matching_rows` takes must return the
//! identical `(RowId, Row)` list in the identical order.

use std::cell::Cell;

use grfusion_common::{DataType, Row, RowId, Schema, Value};
use grfusion_sql::{parse_statement, Statement};
use grfusion_storage::{Catalog, IndexKind, Table};

use super::*;
use crate::Database;

thread_local! {
    /// Rows handed to the predicate by `select_rows` on this thread.
    pub(super) static ROWS_EXAMINED: Cell<u64> = const { Cell::new(0) };
}

fn examined_by(f: impl FnOnce()) -> u64 {
    ROWS_EXAMINED.with(|n| n.set(0));
    f();
    ROWS_EXAMINED.with(|n| n.get())
}

/// xorshift64*: seeded, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    /// Uniform in `0..n` as the integer type SQL literals use.
    fn int(&mut self, n: i64) -> i64 {
        (self.next() % n.unsigned_abs()) as i64 // cast-ok: below n, which is an i64
    }
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.next() as usize % items.len()] // cast-ok: reduced modulo the length
    }
}

const P53: i64 = 9_007_199_254_740_992;
const NAMES: [&str; 6] = ["ann", "bob", "cy", "dee", "eve", ""];

/// `t(id, k, u, name, score)`: unique hash on `id` (NULLs allowed), ordered
/// on `k`, nothing on `u`, hash on `name`, ordered on `score`.
fn empty_table() -> TestResult<Table> {
    let mut t = Table::new(
        "t",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("k", DataType::Integer),
            ("u", DataType::Integer),
            ("name", DataType::Varchar),
            ("score", DataType::Double),
        ]),
    );
    t.create_index("pk", 0, true, IndexKind::Hash)?;
    t.create_index("by_k", 1, false, IndexKind::Ordered)?;
    t.create_index("by_name", 3, false, IndexKind::Hash)?;
    t.create_index("by_score", 4, false, IndexKind::Ordered)?;
    Ok(t)
}

/// Ids are small and dense apart from a few at the edges of `i64` and of
/// exact `f64`; about a fifth of the slots are tombstoned afterwards.
fn random_table(rng: &mut Rng) -> TestResult<Table> {
    let mut t = empty_table()?;
    let n = 20 + rng.int(60);
    let mut ids: Vec<Value> = (0..n).map(|i| Value::Integer(i * 2 - 10)).collect();
    for edge in [
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
        P53,
        P53 + 1,
        -P53 - 1,
    ] {
        if rng.below(2) == 0 {
            ids.push(Value::Integer(edge));
        }
    }
    ids.extend([Value::Null, Value::Null]);
    let nullable = |rng: &mut Rng, v: Value| if rng.below(8) == 0 { Value::Null } else { v };
    let mut slots = Vec::new();
    for id in ids {
        let k = Value::Integer(rng.int(12) - 3);
        let u = Value::Integer(rng.int(5));
        let name = Value::text(*rng.pick(&NAMES));
        // Both zeros and NaNs of both signs: SQL holds each pair equal.
        let score = Value::Double(match rng.below(12) {
            0 => -0.0,
            1 => 0.0,
            2 => f64::NAN,
            3 => -f64::NAN,
            _ => f64::from(i32::try_from(rng.int(40))? - 8) / 4.0,
        });
        let row = vec![
            id,
            nullable(rng, k),
            nullable(rng, u),
            nullable(rng, name),
            nullable(rng, score),
        ];
        slots.push(t.insert(row)?);
    }
    for slot in slots {
        if rng.below(5) == 0 {
            t.delete(slot)?;
        }
    }
    Ok(t)
}

fn literal(rng: &mut Rng, column: &str) -> String {
    if column == "name" {
        return match rng.below(8) {
            0 => "NULL".into(),
            1 => "'zed'".into(),
            _ => format!("'{}'", rng.pick(&NAMES)),
        };
    }
    match rng.below(18) {
        0 => "NULL".into(),
        16 => "-0.0".into(),
        17 => "0.0".into(),
        1 => i64::MAX.to_string(),
        2 => (i64::MIN + 1).to_string(),
        3 => P53.to_string(),
        4 => (P53 + 1).to_string(),
        5 => "9007199254740992.0".into(),
        6 => "-9007199254740994.0".into(),
        7 => "1e300".into(),
        8 => format!("{}.5", rng.int(20) - 5),
        9 => format!("{}.0", rng.int(20) - 5),
        10 => (rng.int(2_000_000) - 1_000_000).to_string(),
        _ => (rng.int(140) - 20).to_string(),
    }
}

fn comparison(rng: &mut Rng) -> String {
    let column = *rng.pick(&["id", "id", "id", "k", "k", "u", "name", "score"]);
    let op = *rng.pick(&["=", "=", "<", "<=", ">", ">=", "<>"]);
    match rng.below(12) {
        0 => format!(
            "{column} BETWEEN {} AND {}",
            literal(rng, column),
            literal(rng, column)
        ),
        1 => format!(
            "{column} NOT BETWEEN {} AND {}",
            literal(rng, column),
            literal(rng, column)
        ),
        // Reversed operands.
        2 | 3 => format!("{} {op} {column}", literal(rng, column)),
        // Comparands that are not constants, or columns that are not bare.
        // (`name` against an INTEGER is rejected when it is compiled.)
        4 if column != "name" => format!("{column} {op} u"),
        5 if column != "name" => format!("{column} + 1 {op} {}", literal(rng, column)),
        _ => format!("{column} {op} {}", literal(rng, column)),
    }
}

fn predicate(rng: &mut Rng) -> String {
    match rng.below(10) {
        0 => format!("{} OR {}", comparison(rng), comparison(rng)),
        1 => format!("NOT ({})", comparison(rng)),
        2..=5 => format!("{} AND {}", comparison(rng), comparison(rng)),
        6 => format!(
            "{} AND {} AND {}",
            comparison(rng),
            comparison(rng),
            comparison(rng)
        ),
        _ => comparison(rng),
    }
}

struct Fixture {
    catalog: Catalog,
}

impl Fixture {
    fn new(table: Table) -> TestResult<Fixture> {
        let mut catalog = Catalog::new();
        catalog.create_table(table)?;
        Ok(Fixture { catalog })
    }

    /// `(what matching_rows returns, the scanning reference, whether an
    /// index supplied the candidates)` for `WHERE <pred>`; an error (the
    /// predicate overflowed on some row) is compared by its text.
    fn both(&self, pred: &str) -> TestResult<(Selected, Selected, bool)> {
        let stmt = parse_statement(&format!("DELETE FROM t WHERE {pred}"))?;
        let Statement::Delete(Delete {
            selection: Some(selection),
            ..
        }) = &stmt
        else {
            return Err(format!("{pred}: not a DELETE with a WHERE clause").into());
        };
        let table = self.catalog.table("t")?;
        let ns = Namespace::table("t", table.schema().clone())?;
        let compiled = compile(selection, &ns)?;
        let env = empty_env();
        let reference = select_rows(table, Some(&compiled), &env, None).map_err(|e| e.to_string());
        let live = u64::try_from(table.len())?;
        let mut got = Ok(Vec::new());
        let examined = examined_by(|| {
            got = matching_rows(table, "t", &Some(selection.clone())).map_err(|e| e.to_string());
        });
        Ok((got, reference, examined < live))
    }
}

type Selected = std::result::Result<Vec<(RowId, Row)>, String>;
type TestResult<T = ()> = std::result::Result<T, Box<dyn std::error::Error>>;

#[test]
fn index_selection_equals_the_scan_on_random_tables_and_predicates() -> TestResult {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut cases, mut failed, mut indexed, mut nonempty_indexed) = (0, 0, 0, 0);
    for _ in 0..60 {
        let fx = Fixture::new(random_table(&mut rng)?)?;
        for _ in 0..120 {
            let pred = predicate(&mut rng);
            let (got, reference, used_index) = fx.both(&pred)?;
            assert_eq!(got, reference, "WHERE {pred}");
            let got = got.unwrap_or_default();
            assert!(
                got.windows(2).all(|w| w[0].0 < w[1].0),
                "WHERE {pred}: not in RowId order"
            );
            cases += 1;
            failed += u32::from(reference.is_err());
            indexed += u32::from(used_index);
            nonempty_indexed += u32::from(used_index && !got.is_empty());
        }
    }
    // The generator must keep exercising the index paths, with matches.
    assert!(
        indexed * 3 > cases,
        "{indexed} of {cases} cases used an index"
    );
    assert!(
        nonempty_indexed * 20 > cases,
        "{nonempty_indexed} of {cases}"
    );
    assert!(
        failed > 0,
        "no predicate failed: first-error behaviour went unchecked"
    );
    Ok(())
}

#[test]
fn index_selection_equals_the_scan_on_the_edge_cases_by_name() -> TestResult {
    let mut t = empty_table()?;
    let ids = [
        Value::Integer(i64::MIN),
        Value::Integer(i64::MIN + 1),
        Value::Integer(-P53 - 1),
        Value::Integer(-P53),
        Value::Integer(-1),
        Value::Integer(0),
        Value::Integer(1),
        Value::Integer(2),
        Value::Integer(3),
        Value::Null,
        Value::Integer(P53 - 1),
        Value::Integer(P53),
        Value::Integer(P53 + 1),
        Value::Integer(P53 + 2),
        Value::Integer(i64::MAX - 1),
        Value::Integer(i64::MAX),
    ];
    let mut slots = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        // `k` mirrors `id` (ordered index) and `score` is `id` as the
        // DOUBLE column stores it, so the cases run on every index kind.
        let row = vec![
            id.clone(),
            id.clone(),
            Value::Integer(i64::try_from(i % 3)?),
            Value::text(NAMES[i % NAMES.len()]),
            id.clone(),
        ];
        slots.push(t.insert(row)?);
    }
    t.delete(slots[6])?; // id 1: a tombstone the index no longer names
    let fx = Fixture::new(t)?;
    let max = i64::MAX;
    let min1 = i64::MIN + 1;
    let cases: Vec<(String, bool)> = vec![
        // (predicate, must come through an index)
        ("id = 2".into(), true),
        ("2 = id".into(), true),
        ("id = 1".into(), true),
        ("id = 2.0".into(), true),
        ("id = 2.5".into(), true),
        ("id = NULL".into(), true),
        ("id = 9007199254740992.0".into(), false), // rounds: 2^53 and 2^53+1 both match
        ("id = -9007199254740992.0".into(), false),
        (format!("id = {max}"), true),
        (format!("id = {min1}"), true),
        ("id >= 0 AND id < 3".into(), true),
        ("id >= 1.5 AND id <= 3.0".into(), true),
        ("id > 0.5 AND id < 2.5".into(), true),
        ("0 <= id AND 3 > id".into(), true),
        ("id BETWEEN 0 AND 3".into(), true),
        ("id BETWEEN 3 AND 0".into(), true), // inverted: nothing
        ("id > 2 AND id < 2".into(), true),  // empty
        ("id >= 0 AND id <= 1000000".into(), false), // wider than the table
        (format!("id >= {min1} AND id <= {max}"), false), // span overflows i64
        (format!("id >= {} AND id <= {max}", max - 5), true),
        (format!("id >= {min1} AND id <= {}", min1 + 5), true),
        ("id >= 0".into(), false), // a hash index needs both ends
        ("id >= 0 AND id < 9007199254740992.0".into(), false),
        ("id >= 0 AND id < 3 AND u = 1".into(), true),
        ("u = 1 AND id = 3".into(), true),
        ("id = 2 OR id = 3".into(), false),
        ("id = u".into(), false),
        ("id + 0 = 2".into(), false),
        ("k = 2".into(), true),
        ("k >= 0".into(), true),
        ("k < 0".into(), true),
        ("k > 2.5".into(), true),
        (format!("k <= {min1}"), true),
        (format!("k > {}", max - 1), true),
        (format!("k >= {P53} AND k <= {}", P53 + 1), true),
        (format!("k > {P53} AND k < {}", P53 + 2), true),
        ("k <= 9007199254740992.0".into(), false), // admits 2^53+1 through f64
        ("k < 3 AND id >= 0 AND id < 3".into(), true),
        ("k BETWEEN 2 AND 0".into(), true),
        ("name = 'bob'".into(), true),
        ("name = ''".into(), true),
        ("name >= 'a' AND name < 'c'".into(), false), // hash index, not integers
        ("score = 2".into(), true),
        ("score >= 0 AND score <= 2".into(), true),
        ("score > 9007199254740992".into(), true),
        (format!("score >= {}", P53 + 1), true), // the comparison's own rounding
        ("score < -1.5".into(), true),
    ];
    for (pred, must_index) in cases {
        let (got, reference, used_index) = fx.both(&pred)?;
        assert_eq!(got, reference, "WHERE {pred}");
        assert_eq!(used_index, must_index, "WHERE {pred}: index use");
    }
    Ok(())
}

/// `-0.0 = 0.0` and NaN = NaN in SQL, whichever spelling is stored and
/// whichever is asked for; a hash index keys doubles by bit pattern and an
/// ordered one by order bits, so both must fold the spellings (or decline).
#[test]
fn zeros_and_nans_of_either_sign_select_the_same_rows_as_the_scan() -> TestResult {
    let mut t = Table::new(
        "t",
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("h", DataType::Double),
            ("o", DataType::Double),
        ]),
    );
    t.create_index("by_h", 1, false, IndexKind::Hash)?;
    t.create_index("by_o", 2, false, IndexKind::Ordered)?;
    let stored = [
        Value::Double(-1.0),
        Value::Double(-0.0),
        Value::Double(0.0),
        Value::Double(5.0),
        Value::Double(f64::INFINITY),
        Value::Double(-f64::NAN),
        Value::Double(f64::NAN),
        Value::Null,
    ];
    for (id, v) in (0i64..).zip(stored) {
        t.insert(vec![Value::Integer(id), v.clone(), v])?;
    }
    let fx = Fixture::new(t)?;
    // A folded constant keeps its sign; NaN has no literal, so it is computed
    // (and a computed comparand makes the predicate walk the table).
    let nan = "(1e308 * 10) * 0";
    let cases: Vec<(String, &[i64])> = vec![
        ("= 0".into(), &[1, 2]),
        ("= 0.0".into(), &[1, 2]),
        ("= -0.0".into(), &[1, 2]),
        ("= 0.0 * -1".into(), &[1, 2]),
        (">= 0.0".into(), &[1, 2, 3, 4, 5, 6]),
        (">= -0.0".into(), &[1, 2, 3, 4, 5, 6]),
        ("> -0.0".into(), &[3, 4, 5, 6]),
        ("> 0".into(), &[3, 4, 5, 6]),
        ("<= -0.0".into(), &[0, 1, 2]),
        ("<= 0".into(), &[0, 1, 2]),
        ("< 0.0".into(), &[0]),
        ("BETWEEN -0.0 AND 0.0".into(), &[1, 2]),
        ("BETWEEN 0.0 AND -0.0".into(), &[1, 2]),
        ("> 5".into(), &[4, 5, 6]),
        (format!("= {nan}"), &[5, 6]),
        (format!(">= {nan}"), &[5, 6]),
        (format!("< {nan}"), &[0, 1, 2, 3, 4]),
    ];
    for column in ["h", "o"] {
        for (rest, want) in &cases {
            let pred = format!("{column} {rest}");
            let (got, reference, _) = fx.both(&pred)?;
            assert_eq!(got, reference, "WHERE {pred}");
            let ids: Vec<i64> = got?
                .iter()
                .map(|(_, row)| row[0].as_integer())
                .collect::<Result<_>>()?;
            assert_eq!(&ids, want, "WHERE {pred}");
        }
    }
    // The index paths are taken, not dodged, where a single key names the rows.
    for (pred, must_index) in [
        ("h = -0.0", true),
        ("h = 0", true),
        ("o = -0.0", true),
        ("o >= -0.0", true),
        ("o <= 0.0", true),
        ("o > 5", true),
    ] {
        let (_, _, used_index) = fx.both(pred)?;
        assert_eq!(used_index, must_index, "WHERE {pred}: index use");
    }
    Ok(())
}

/// The engine-level proof of index use is a count, never a clock: how many
/// rows the statement's read phase handed to the predicate.
#[test]
fn point_and_range_statements_examine_candidates_not_the_table() -> TestResult {
    let db = Database::new();
    db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)")?;
    let rows = (0..50_000)
        .map(|i| vec![Value::Integer(i), Value::Integer(i % 7)])
        .collect();
    db.bulk_insert("big", rows)?;
    // (rows affected, rows examined); an error reads as `None`.
    let run = |sql: &str| {
        let mut affected = None;
        let examined = examined_by(|| affected = db.execute(sql).ok().map(|rs| rs.rows_affected));
        (affected, examined)
    };
    assert_eq!(run("UPDATE big SET v = 9 WHERE id = 31337"), (Some(1), 1));
    assert_eq!(run("UPDATE big SET v = 9 WHERE id = 50000"), (Some(0), 0));
    // 100 keys; the exclusive end is probed inclusively, so 101 candidates.
    let range = "WHERE id >= 1000 AND id < 1100";
    assert_eq!(
        run(&format!("UPDATE big SET v = 8 {range}")),
        (Some(100), 101)
    );
    assert_eq!(
        run(&format!("UPDATE big SET id = id + 100000 {range}")),
        (Some(100), 101)
    );
    assert_eq!(
        run("DELETE FROM big WHERE id >= 101000 AND id < 101100"),
        (Some(100), 100)
    );
    assert_eq!(run("DELETE FROM big WHERE id = 7"), (Some(1), 1));
    assert_eq!(run("DELETE FROM big WHERE id = 7"), (Some(0), 0));
    // No usable index: every live row.
    assert_eq!(run("UPDATE big SET v = 0 WHERE v = 9"), (Some(1), 49_899));
    // A predicate that can fail walks the table, so the first error is the scan's.
    assert_eq!(
        run("UPDATE big SET v = 1 WHERE id = 5 AND v / 1 >= 0"),
        (Some(1), 49_899)
    );
    // (`id = 5` is false on rows 0..=4, so the division first runs on the sixth.)
    assert_eq!(
        run("UPDATE big SET v = 1 WHERE id = 5 AND 1 / (v - v) = 1"),
        (None, 6)
    );
    assert_eq!(db.table_len("big")?, 49_899);
    Ok(())
}
