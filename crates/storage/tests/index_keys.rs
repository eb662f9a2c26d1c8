//! Ordered-index keys are exact: integers beyond 2^53 stay distinct while
//! integers and doubles still interleave numerically, and an inverted or
//! empty range holds nothing (it used to reach `BTreeMap::range`'s panic).

use grfusion_common::{RowId, Value};
use grfusion_storage::{Index, IndexKind, OrdKey};

#[test]
fn inverted_and_empty_ranges_hold_nothing() {
    let mut ix = Index::new("o", 0, false, IndexKind::Ordered);
    for i in 0..10 {
        ix.insert(&Value::Integer(i), RowId(i as u64)).unwrap();
    }
    let (three, six) = (Value::Integer(3), Value::Integer(6));
    for (lo, hi) in [
        (Some((&six, true)), Some((&three, true))),
        (Some((&three, false)), Some((&three, false))),
        (Some((&three, true)), Some((&three, false))),
        (Some((&three, false)), Some((&three, true))),
        (None, Some((&Value::Null, true))),
    ] {
        assert_eq!(ix.range(lo, hi).unwrap(), Vec::<RowId>::new());
    }
    assert_eq!(
        ix.range(Some((&three, true)), Some((&three, true)))
            .unwrap(),
        vec![RowId(3)]
    );
}

/// 2^53: the first integer whose successor is not a double.
const P53: i64 = 9_007_199_254_740_992;

#[test]
fn integer_keys_are_exact_and_ordered_beyond_2_pow_53() {
    let ints = [
        i64::MIN,
        i64::MIN + 1,
        -P53 - 1,
        -P53,
        -P53 + 1,
        -1,
        0,
        1,
        P53 - 1,
        P53,
        P53 + 1,
        P53 + 2,
        i64::MAX - 1,
        i64::MAX,
    ];
    let keys: Vec<OrdKey> = ints
        .iter()
        .map(|i| OrdKey::from_value(&Value::Integer(*i)).unwrap())
        .collect();
    for w in keys.windows(2) {
        assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
    }
    // Integers and doubles still interleave numerically, and an
    // integer-valued double is the integer's key.
    let d = |d: f64| OrdKey::from_value(&Value::Double(d)).unwrap();
    let i = |i: i64| OrdKey::from_value(&Value::Integer(i)).unwrap();
    assert_eq!(d(P53 as f64), i(P53));
    assert_eq!(d(-(P53 as f64)), i(-P53));
    assert!(i(P53 + 1) > d(P53 as f64) && i(P53 + 1) < d(P53 as f64 + 2.0));
    assert!(i(-P53 - 1) < d(-(P53 as f64)) && i(-P53 - 1) > d(-(P53 as f64) - 2.0));
    assert_eq!(d(i64::MIN as f64), i(i64::MIN));
    assert!(i(i64::MAX) < d(i64::MAX as f64), "2^63 is above every i64");
    assert!(d(0.5) > i(0) && d(0.5) < i(1));
    assert!(d(-0.5) < i(0) && d(-0.5) > i(-1));
}

#[test]
fn unique_ordered_index_tells_neighbours_apart_beyond_2_pow_53() {
    for (a, b) in [
        (P53, P53 + 1),
        (-P53, -P53 - 1),
        (i64::MAX - 1, i64::MAX),
        (i64::MIN, i64::MIN + 1),
    ] {
        let mut ix = Index::new("u", 0, true, IndexKind::Ordered);
        ix.insert(&Value::Integer(a), RowId(1)).unwrap();
        ix.insert(&Value::Integer(b), RowId(2))
            .unwrap_or_else(|e| panic!("{b} is not a duplicate of {a}: {e}"));
        assert!(ix.insert(&Value::Integer(a), RowId(3)).is_err());
        assert_eq!(ix.get(&Value::Integer(a)), vec![RowId(1)]);
        assert_eq!(ix.get(&Value::Integer(b)), vec![RowId(2)]);
        // An exclusive bound drops its own key only.
        let (lo, hi) = (a.min(b), a.max(b));
        let (lo_row, hi_row) = if a < b {
            (RowId(1), RowId(2))
        } else {
            (RowId(2), RowId(1))
        };
        let below = ix.range(None, Some((&Value::Integer(hi), false))).unwrap();
        assert_eq!(below, vec![lo_row]);
        let above = ix.range(Some((&Value::Integer(lo), false)), None).unwrap();
        assert_eq!(above, vec![hi_row]);
        let both = ix
            .range(
                Some((&Value::Integer(lo), true)),
                Some((&Value::Integer(hi), true)),
            )
            .unwrap();
        assert_eq!(both, vec![lo_row, hi_row]);
        ix.remove(&Value::Integer(a), RowId(1));
        assert!(ix.get(&Value::Integer(a)).is_empty());
        assert_eq!(ix.get(&Value::Integer(b)), vec![RowId(2)]);
    }
}

/// SQL holds `-0.0 = 0.0` and every NaN equal to every other and above any
/// number (`Value::sql_cmp`); an ordered index must key them the same way,
/// or a probe with one spelling misses rows stored under the other.
#[test]
fn zeros_and_nans_of_either_sign_are_one_key_each() {
    let key = |v: Value| OrdKey::from_value(&v).unwrap();
    let d = |d: f64| key(Value::Double(d));
    assert_eq!(d(-0.0), d(0.0));
    assert_eq!(d(-0.0), key(Value::Integer(0)));
    assert!(d(-f64::MIN_POSITIVE) < d(-0.0) && d(0.0) < d(f64::MIN_POSITIVE));
    let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001)];
    for nan in nans {
        assert!(nan.is_nan());
        assert_eq!(d(nan), d(f64::NAN));
        assert!(d(nan) > d(f64::INFINITY) && d(nan) > key(Value::Integer(i64::MAX)));
    }

    let mut ix = Index::new("o", 0, false, IndexKind::Ordered);
    let stored = [-1.0, -0.0, 0.0, 5.0, f64::INFINITY, -f64::NAN, f64::NAN];
    for (row, v) in (0u64..).zip(stored) {
        ix.insert(&Value::Double(v), RowId(row)).unwrap();
    }
    let (neg, pos) = (Value::Double(-0.0), Value::Double(0.0));
    for zero in [&neg, &pos, &Value::Integer(0)] {
        assert_eq!(ix.get(zero), vec![RowId(1), RowId(2)]);
        let from = ix.range(Some((zero, true)), None).unwrap();
        assert_eq!(from, (1..=6).map(RowId).collect::<Vec<_>>());
        let upto = ix.range(None, Some((zero, true))).unwrap();
        assert_eq!(upto, vec![RowId(0), RowId(1), RowId(2)]);
        let above = ix.range(Some((zero, false)), None).unwrap();
        assert_eq!(above, (3..=6).map(RowId).collect::<Vec<_>>());
        let below = ix.range(None, Some((zero, false))).unwrap();
        assert_eq!(below, vec![RowId(0)]);
    }
    assert_eq!(ix.get(&Value::Double(f64::NAN)), vec![RowId(5), RowId(6)]);
    let past_inf = ix
        .range(Some((&Value::Double(f64::INFINITY), false)), None)
        .unwrap();
    assert_eq!(past_inf, vec![RowId(5), RowId(6)]);

    // A unique index sees the other zero as the duplicate it is.
    let mut unique = Index::new("u", 0, true, IndexKind::Ordered);
    unique.insert(&pos, RowId(0)).unwrap();
    assert!(unique.insert(&neg, RowId(1)).is_err());
}

/// A hash index keys a DOUBLE by `Value::group_key`, which must fold the
/// same spellings: a column holding `+NaN` and the sign-bit-set NaN x86
/// computes for `inf * 0` is probed with either and finds both.
#[test]
fn hash_index_holds_every_nan_and_both_zeros_under_one_key() {
    let computed = std::hint::black_box(f64::INFINITY) * std::hint::black_box(0.0);
    let stored = [f64::NAN, -f64::NAN, computed, 0.0, -0.0, 1.0];
    let mut ix = Index::new("h", 0, false, IndexKind::Hash);
    for (row, v) in (0u64..).zip(stored) {
        ix.insert(&Value::Double(v), RowId(row)).unwrap();
    }
    for nan in [f64::NAN, -f64::NAN, computed] {
        assert_eq!(ix.get(&Value::Double(nan)), vec![RowId(0), RowId(1), RowId(2)]);
    }
    for zero in [0.0, -0.0] {
        assert_eq!(ix.get(&Value::Double(zero)), vec![RowId(3), RowId(4)]);
    }
    assert_eq!(ix.distinct_keys(), 3);
    ix.remove(&Value::Double(-f64::NAN), RowId(0));
    assert_eq!(ix.lookup(&Value::Double(f64::NAN)), [RowId(1), RowId(2)]);

    let mut unique = Index::new("u", 0, true, IndexKind::Hash);
    unique.insert(&Value::Double(f64::NAN), RowId(0)).unwrap();
    assert!(unique.insert(&Value::Double(-f64::NAN), RowId(1)).is_err());
}
