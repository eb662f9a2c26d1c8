//! How one table is entered: the sargable access-path chooser.
//!
//! [`choose`] is the only place in the engine that recognises an
//! index-usable conjunct. The SELECT planner turns its [`AccessPath::Key`]
//! verdict into an `IndexLookup` node; UPDATE and DELETE turn any verdict
//! into candidate row ids through [`AccessPath::candidates`].
//!
//! Candidates are a *superset* of the rows the predicate admits, in
//! ascending `RowId` order (the scan's order), and the caller re-checks the
//! whole predicate on each — so an index can only ever skip rows the
//! predicate would have rejected anyway. That is why every bound is probed
//! as inclusive, and why a bound whose comparison the index cannot mirror
//! exactly (a DOUBLE beyond ±2^53 against an INTEGER column, where SQL
//! compares through `f64` and neighbouring integers collapse) is dropped
//! rather than approximated.

use grfusion_common::{DataType, Result, RowId, Value};
use grfusion_storage::{Index, IndexKind, Table};

use crate::env::QueryEnv;
use crate::exec::index_probe_key;
use crate::expr::{CmpOp, PhysExpr};

/// The chooser's verdict. Key and bound expressions are constant
/// (`PhysExpr::is_constant`) but not yet evaluated: a prepared statement's
/// `?` is bound only at execution time.
#[derive(Debug, PartialEq)]
pub(crate) enum AccessPath<'p> {
    /// Walk every live row.
    Scan,
    /// `column = key` through the `index` on it; `conjunct` is the position
    /// of the equality among the conjuncts given to [`choose`].
    Key {
        column: usize,
        index: IndexKind,
        conjunct: usize,
        key: &'p PhysExpr,
    },
    /// `lo <= column <= hi` through the `index` on it (`None` = open). An
    /// ordered index takes any range; a hash index only a closed INTEGER
    /// one, by enumerating its keys.
    Range {
        column: usize,
        index: IndexKind,
        lo: Option<&'p PhysExpr>,
        hi: Option<&'p PhysExpr>,
    },
}

/// First lower and first upper constant bound seen on one column.
struct ColumnBounds<'p> {
    column: usize,
    ty: DataType,
    lo: Option<&'p PhysExpr>,
    hi: Option<&'p PhysExpr>,
}

/// Choose how to enter a table whose rows must satisfy every one of
/// `conjuncts`, given its single-column `indexes` as `(column, kind)`.
///
/// Preference: the first constant equality on an indexed column (a hash
/// index over an ordered one), else the first bounded column with an
/// ordered index, else the first INTEGER column bounded on both sides with
/// a hash index, else the scan.
pub(crate) fn choose<'p>(
    conjuncts: impl IntoIterator<Item = &'p PhysExpr>,
    indexes: &[(usize, IndexKind)],
) -> AccessPath<'p> {
    let index_on = |column: usize, kind: IndexKind| indexes.contains(&(column, kind));
    let mut bounds: Vec<ColumnBounds<'p>> = Vec::new();
    for (i, conjunct) in conjuncts.into_iter().enumerate() {
        let (column, ty, lo, hi) = match conjunct {
            PhysExpr::Cmp { op, left, right } => {
                // `const op col` reads as `col op' const`.
                let (column, ty, op, k) = match (left.as_ref(), right.as_ref()) {
                    (PhysExpr::Column { index, ty }, k) if k.is_constant() => (*index, *ty, *op, k),
                    (k, PhysExpr::Column { index, ty }) if k.is_constant() => {
                        let flipped = match op {
                            CmpOp::Lt => CmpOp::Gt,
                            CmpOp::LtEq => CmpOp::GtEq,
                            CmpOp::Gt => CmpOp::Lt,
                            CmpOp::GtEq => CmpOp::LtEq,
                            same => *same,
                        };
                        (*index, *ty, flipped, k)
                    }
                    _ => continue,
                };
                match op {
                    CmpOp::Eq => {
                        let index = [IndexKind::Hash, IndexKind::Ordered]
                            .into_iter()
                            .find(|kind| index_on(column, *kind));
                        if let Some(index) = index {
                            return AccessPath::Key {
                                column,
                                index,
                                conjunct: i,
                                key: k,
                            };
                        }
                        continue;
                    }
                    CmpOp::Gt | CmpOp::GtEq => (column, ty, Some(k), None),
                    CmpOp::Lt | CmpOp::LtEq => (column, ty, None, Some(k)),
                    CmpOp::NotEq => continue,
                }
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated: false,
            } => match expr.as_ref() {
                PhysExpr::Column { index, ty } if low.is_constant() && high.is_constant() => {
                    (*index, *ty, Some(low.as_ref()), Some(high.as_ref()))
                }
                _ => continue,
            },
            _ => continue,
        };
        let at = match bounds.iter().position(|b| b.column == column) {
            Some(at) => at,
            None => {
                bounds.push(ColumnBounds {
                    column,
                    ty,
                    lo: None,
                    hi: None,
                });
                bounds.len() - 1
            }
        };
        bounds[at].lo = bounds[at].lo.or(lo);
        bounds[at].hi = bounds[at].hi.or(hi);
    }
    let range = |b: &ColumnBounds<'p>, index| AccessPath::Range {
        column: b.column,
        index,
        lo: b.lo,
        hi: b.hi,
    };
    if let Some(b) = bounds
        .iter()
        .find(|b| index_on(b.column, IndexKind::Ordered))
    {
        return range(b, IndexKind::Ordered);
    }
    let enumerable = |b: &&ColumnBounds<'p>| {
        b.ty == DataType::Integer
            && b.lo.is_some()
            && b.hi.is_some()
            && index_on(b.column, IndexKind::Hash)
    };
    match bounds.iter().find(enumerable) {
        Some(b) => range(b, IndexKind::Hash),
        None => AccessPath::Scan,
    }
}

/// Whether SQL's mixed INTEGER/DOUBLE comparison, which goes through
/// `f64`, agrees with exact integer order at `d`: below 2^53 in magnitude
/// `i64 → f64` rounds nothing. (False for NaN.)
fn exact_as_integer(d: f64) -> bool {
    d.abs() < 9_007_199_254_740_992.0
}

/// Which end of a range a bound closes.
#[derive(Clone, Copy, PartialEq)]
enum End {
    Lo,
    Hi,
}

/// The inclusive bound, as a key of a `ty` column, that admits every key
/// the predicate's own comparison against `v` can admit; `None` when no
/// such key can be named (NULL, another type family, a DOUBLE the INTEGER
/// comparison would round) — the range is then left open at that end.
fn inclusive_bound(v: Value, ty: DataType, end: End) -> Option<Value> {
    match (ty, v) {
        (DataType::Integer, Value::Double(d)) if exact_as_integer(d) => {
            let d = if end == End::Lo { d.ceil() } else { d.floor() };
            Some(Value::Integer(d as i64)) // cast-ok: integral and |d| <= 2^53
        }
        // SQL compares a DOUBLE column with an INTEGER through f64.
        (DataType::Double, Value::Integer(i)) => {
            Some(Value::Double(i as f64)) // cast-ok: the comparison's own coercion
        }
        (DataType::Double, Value::Double(d)) if !d.is_nan() => Some(Value::Double(d)),
        (DataType::Integer, v @ Value::Integer(_))
        | (DataType::Varchar, v @ Value::Text(_))
        | (DataType::Boolean, v @ Value::Boolean(_)) => Some(v),
        _ => None,
    }
}

impl AccessPath<'_> {
    /// Candidate rows of `table` for this path, ascending by `RowId`:
    /// every row the predicate can admit is among them. `None` means walk
    /// the table — the verdict was `Scan`, the table lacks the index, a
    /// bound could not be mirrored, or a hash index was asked for a span
    /// of keys wider than the table has live rows (one probe per key would
    /// then cost more than one predicate evaluation per row).
    pub(crate) fn candidates(
        &self,
        table: &Table,
        env: &QueryEnv<'_>,
    ) -> Result<Option<Vec<RowId>>> {
        let (column, index) = match *self {
            AccessPath::Scan => return Ok(None),
            AccessPath::Key { column, index, .. } | AccessPath::Range { column, index, .. } => {
                (column, index)
            }
        };
        let Some(ix) = table.index_on(column, Some(index)) else {
            return Ok(None);
        };
        let ty = table.schema().column(column).data_type;
        let eval = |e: &PhysExpr| e.eval(&Vec::new(), env);
        let ids = match *self {
            AccessPath::Scan => None,
            AccessPath::Key { key, .. } => probe_key(ix, eval(key)?, ty),
            AccessPath::Range { lo, hi, .. } => {
                let bound = |e: Option<&PhysExpr>, end| -> Result<Option<Value>> {
                    Ok(match e {
                        Some(e) => inclusive_bound(eval(e)?, ty, end),
                        None => None,
                    })
                };
                probe_range(ix, bound(lo, End::Lo)?, bound(hi, End::Hi)?, table.len())?
            }
        };
        Ok(ids.map(|mut ids| {
            ids.sort_unstable();
            ids
        }))
    }
}

/// `column = key` through the executor's probe-key coercion. A DOUBLE key
/// the INTEGER comparison would round (or a NaN, which it holds above
/// every integer) matches several neighbouring integers — no single probe
/// finds those: `None`.
fn probe_key(ix: &Index, key: Value, ty: DataType) -> Option<Vec<RowId>> {
    if let Value::Double(d) = key {
        if ty == DataType::Integer && !exact_as_integer(d) {
            return None;
        }
    }
    Some(index_probe_key(&key, ty).map_or_else(Vec::new, |k| ix.get(&k)))
}

/// `lo <= column <= hi` with both bounds already keys of the column.
fn probe_range(
    ix: &Index,
    lo: Option<Value>,
    hi: Option<Value>,
    live_rows: usize,
) -> Result<Option<Vec<RowId>>> {
    Ok(match (ix.kind(), lo, hi) {
        (_, None, None) => None,
        (IndexKind::Ordered, lo, hi) => Some(ix.range(
            lo.as_ref().map(|v| (v, true)),
            hi.as_ref().map(|v| (v, true)),
        )?),
        (IndexKind::Hash, Some(Value::Integer(lo)), Some(Value::Integer(hi))) => {
            enumerate_keys(ix, lo, hi, live_rows)
        }
        (IndexKind::Hash, ..) => None,
    })
}

/// Probe a hash index once per integer in `lo..=hi`, unless that is more
/// probes than the table has live rows.
fn enumerate_keys(ix: &Index, lo: i64, hi: i64, live_rows: usize) -> Option<Vec<RowId>> {
    let mut ids = Vec::new();
    if lo > hi {
        return Some(ids);
    }
    // `hi - lo` overflows i64 for spans over half its range.
    let span = (i128::from(hi) - i128::from(lo)).unsigned_abs() + 1;
    let live_rows = live_rows as u128; // cast-ok: usize → u128 widens
    if span > live_rows {
        return None;
    }
    for key in lo..=hi {
        ids.extend_from_slice(ix.lookup(&Value::Integer(key)));
    }
    Some(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(index: usize, ty: DataType) -> Box<PhysExpr> {
        Box::new(PhysExpr::Column { index, ty })
    }
    fn int(i: i64) -> Box<PhysExpr> {
        Box::new(PhysExpr::Literal(Value::Integer(i)))
    }
    fn cmp(op: CmpOp, left: Box<PhysExpr>, right: Box<PhysExpr>) -> PhysExpr {
        PhysExpr::Cmp { op, left, right }
    }
    const HASH0: (usize, IndexKind) = (0, IndexKind::Hash);
    const ORD1: (usize, IndexKind) = (1, IndexKind::Ordered);

    #[test]
    fn equality_on_an_indexed_column_is_a_key_either_way_round() {
        let plain = [cmp(CmpOp::Eq, col(0, DataType::Integer), int(7))];
        let reversed = [cmp(CmpOp::Eq, int(7), col(0, DataType::Integer))];
        for c in [&plain, &reversed] {
            assert_eq!(
                choose(c.iter(), &[HASH0]),
                AccessPath::Key {
                    column: 0,
                    index: IndexKind::Hash,
                    conjunct: 0,
                    key: &int(7)
                }
            );
            // An ordered index answers a point probe too; a hash one is preferred.
            assert!(matches!(
                choose(c.iter(), &[(0, IndexKind::Ordered)]),
                AccessPath::Key {
                    index: IndexKind::Ordered,
                    ..
                }
            ));
            assert!(matches!(
                choose(c.iter(), &[(0, IndexKind::Ordered), HASH0]),
                AccessPath::Key {
                    index: IndexKind::Hash,
                    ..
                }
            ));
            assert_eq!(choose(c.iter(), &[ORD1]), AccessPath::Scan);
        }
    }

    #[test]
    fn the_first_usable_equality_wins_over_any_range() {
        let c = [
            cmp(CmpOp::GtEq, col(1, DataType::Integer), int(3)),
            cmp(CmpOp::Eq, col(2, DataType::Integer), int(1)), // unindexed
            cmp(CmpOp::Eq, col(0, DataType::Integer), int(9)),
            cmp(CmpOp::Eq, col(0, DataType::Integer), int(10)),
        ];
        assert_eq!(
            choose(c.iter(), &[HASH0, ORD1]),
            AccessPath::Key {
                column: 0,
                index: IndexKind::Hash,
                conjunct: 2,
                key: &int(9)
            }
        );
    }

    #[test]
    fn bounds_on_an_ordered_index_become_a_range_open_or_closed() {
        let c = [cmp(CmpOp::Lt, col(1, DataType::Double), int(5))];
        assert_eq!(
            choose(c.iter(), &[HASH0, ORD1]),
            AccessPath::Range {
                column: 1,
                index: IndexKind::Ordered,
                lo: None,
                hi: Some(&int(5))
            }
        );
        // Reversed operands flip the side; the first bound per side is kept.
        let c = [
            cmp(CmpOp::Lt, int(2), col(1, DataType::Double)),
            cmp(CmpOp::LtEq, col(1, DataType::Double), int(8)),
            cmp(CmpOp::Gt, col(1, DataType::Double), int(4)),
        ];
        assert_eq!(
            choose(c.iter(), &[ORD1]),
            AccessPath::Range {
                column: 1,
                index: IndexKind::Ordered,
                lo: Some(&int(2)),
                hi: Some(&int(8))
            }
        );
        let between = [PhysExpr::Between {
            expr: col(1, DataType::Double),
            low: int(1),
            high: int(2),
            negated: false,
        }];
        assert_eq!(
            choose(between.iter(), &[ORD1]),
            AccessPath::Range {
                column: 1,
                index: IndexKind::Ordered,
                lo: Some(&int(1)),
                hi: Some(&int(2))
            }
        );
    }

    #[test]
    fn a_hash_index_takes_only_a_closed_integer_range() {
        let lo = cmp(CmpOp::GtEq, col(0, DataType::Integer), int(10));
        let hi = cmp(CmpOp::Lt, col(0, DataType::Integer), int(20));
        let closed = [lo.clone(), hi.clone()];
        assert_eq!(
            choose(closed.iter(), &[HASH0]),
            AccessPath::Range {
                column: 0,
                index: IndexKind::Hash,
                lo: Some(&int(10)),
                hi: Some(&int(20))
            }
        );
        assert_eq!(choose([&lo], &[HASH0]), AccessPath::Scan);
        assert_eq!(choose([&hi], &[HASH0]), AccessPath::Scan);
        let text = [
            cmp(CmpOp::GtEq, col(0, DataType::Varchar), int(10)),
            cmp(CmpOp::Lt, col(0, DataType::Varchar), int(20)),
        ];
        assert_eq!(choose(text.iter(), &[HASH0]), AccessPath::Scan);
        // An ordered index on another bounded column is preferred.
        let both = [lo, hi, cmp(CmpOp::Gt, col(1, DataType::Integer), int(0))];
        assert!(matches!(
            choose(both.iter(), &[HASH0, ORD1]),
            AccessPath::Range {
                column: 1,
                index: IndexKind::Ordered,
                ..
            }
        ));
    }

    #[test]
    fn what_is_not_a_constant_comparison_of_a_bare_column_scans() {
        let or = PhysExpr::Or(
            Box::new(cmp(CmpOp::Eq, col(0, DataType::Integer), int(1))),
            Box::new(cmp(CmpOp::Eq, col(0, DataType::Integer), int(2))),
        );
        let column_comparand = cmp(
            CmpOp::Eq,
            col(0, DataType::Integer),
            col(1, DataType::Integer),
        );
        let not_eq = cmp(CmpOp::NotEq, col(0, DataType::Integer), int(1));
        let computed_column = cmp(
            CmpOp::Eq,
            Box::new(PhysExpr::Neg(col(0, DataType::Integer))),
            int(1),
        );
        let not_between = PhysExpr::Between {
            expr: col(1, DataType::Integer),
            low: int(1),
            high: int(2),
            negated: true,
        };
        for c in [
            &or,
            &column_comparand,
            &not_eq,
            &computed_column,
            &not_between,
        ] {
            assert_eq!(choose([c], &[HASH0, ORD1]), AccessPath::Scan, "{c:?}");
        }
        assert_eq!(choose([], &[HASH0, ORD1]), AccessPath::Scan);
    }

    #[test]
    fn inclusive_bounds_round_towards_the_range_and_refuse_what_they_cannot_mirror() {
        use DataType::*;
        let b = inclusive_bound;
        assert_eq!(
            b(Value::Double(1.5), Integer, End::Lo),
            Some(Value::Integer(2))
        );
        assert_eq!(
            b(Value::Double(1.5), Integer, End::Hi),
            Some(Value::Integer(1))
        );
        assert_eq!(
            b(Value::Double(-1.5), Integer, End::Lo),
            Some(Value::Integer(-1))
        );
        assert_eq!(
            b(Value::Double(2.0), Integer, End::Hi),
            Some(Value::Integer(2))
        );
        assert_eq!(
            b(Value::Double(9_007_199_254_740_992.0), Integer, End::Hi),
            None
        );
        assert_eq!(b(Value::Double(f64::INFINITY), Integer, End::Lo), None);
        assert_eq!(b(Value::Double(f64::NAN), Integer, End::Lo), None);
        assert_eq!(b(Value::Double(f64::NAN), Double, End::Lo), None);
        assert_eq!(
            b(Value::Integer(i64::MAX), Integer, End::Hi),
            Some(Value::Integer(i64::MAX))
        );
        assert_eq!(
            b(Value::Integer(3), Double, End::Lo),
            Some(Value::Double(3.0))
        );
        assert_eq!(b(Value::Null, Integer, End::Lo), None);
        assert_eq!(b(Value::text("a"), Integer, End::Lo), None);
        assert_eq!(b(Value::Integer(1), Varchar, End::Lo), None);
        assert_eq!(
            b(Value::text("a"), Varchar, End::Hi),
            Some(Value::text("a"))
        );
    }
}
