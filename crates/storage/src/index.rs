//! Secondary indexes over tables.
//!
//! Two physical kinds mirror what VoltDB offers: hash indexes for point
//! lookups (`IndexScan` with an equality key, and the O(1) id→vertex hop
//! the paper relies on) and ordered indexes for range predicates.
//! Indexes are single-column; composite keys were not needed by any query
//! shape in the paper's evaluation.

use std::collections::{BTreeMap, HashMap};

use grfusion_common::value::GroupKey;
use grfusion_common::{Error, FoldState, Result, RowId, Value};

/// Key type for ordered indexes: a total order over index-able values that
/// agrees with `Value::sql_cmp` — equal values are one key.
///
/// A number is the pair (order bits of the largest double not above it,
/// what is left over), compared lexicographically. Doubles are mapped to a
/// sign-corrected bit pattern so `u64` ordering matches numeric ordering
/// (the classic IEEE-754 trick) and leave nothing over; an integer beyond
/// 2^53 keeps its distance to that double, so neighbouring integers stay
/// distinct keys while integers and doubles still interleave numerically.
/// This keeps the `BTreeMap` key `Ord` without custom comparators.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OrdKey {
    Null,
    Boolean(bool),
    Number(u64, u16),
    Text(std::sync::Arc<str>),
}

impl OrdKey {
    /// Build an ordered key from a value. Integers and doubles share the
    /// `Number` arm so cross-type range scans behave numerically.
    pub fn from_value(v: &Value) -> Result<OrdKey> {
        Ok(match v {
            Value::Null => OrdKey::Null,
            Value::Boolean(b) => OrdKey::Boolean(*b),
            Value::Integer(i) => {
                let (bits, rest) = i64_order_key(*i);
                OrdKey::Number(bits, rest)
            }
            Value::Double(d) => OrdKey::Number(f64_order_bits(*d), 0),
            Value::Text(s) => OrdKey::Text(s.clone()),
            Value::Path(_) => {
                return Err(Error::execution("PATH values are not indexable"));
            }
        })
    }
}

/// Map an f64 to a u64 whose unsigned order equals the float's order under
/// `Value::sql_cmp` (negative floats get their bits flipped; positives get
/// the sign bit set). SQL holds `-0.0 = 0.0`, every NaN equal to every other
/// and greater than any number, so both zeros share `+0.0`'s key and every
/// NaN, whatever its sign and payload, the key above `+inf`'s.
fn f64_order_bits(d: f64) -> u64 {
    if d.is_nan() {
        return u64::MAX;
    }
    let bits = if d == 0.0 { 0 } else { d.to_bits() };
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`f64_order_bits`].
fn f64_from_order_bits(bits: u64) -> f64 {
    f64::from_bits(if bits & (1 << 63) != 0 {
        bits ^ (1 << 63)
    } else {
        !bits
    })
}

/// Exact ordered key of an integer: the order bits of the largest double
/// `f <= i`, and `i - f`. Below 2^53 in magnitude `f == i`; beyond it
/// doubles are at most 1024 apart, so the remainder fits a `u16`.
fn i64_order_key(i: i64) -> (u64, u16) {
    // Every double this large is integral, so `as i128` reads it exactly.
    let exact = |bits: u64| f64_from_order_bits(bits) as i128; // cast-ok: integral, within i128
    let nearest = i as f64; // cast-ok: rounding up is undone below
    let mut bits = f64_order_bits(nearest);
    // Adjacent doubles have adjacent order bits: one double down is `- 1`.
    if exact(bits) > i128::from(i) {
        bits -= 1;
    }
    let rest = u16::try_from(i128::from(i) - exact(bits));
    let rest = rest.expect("doubles within the i64 range are at most 1024 apart");
    (bits, rest)
}

/// Physical index kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Hash,
    Ordered,
}

/// A single-column secondary index.
#[derive(Debug)]
pub struct Index {
    name: String,
    column: usize,
    unique: bool,
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    Hash(HashMap<GroupKey, Vec<RowId>, FoldState>),
    Ordered(BTreeMap<OrdKey, Vec<RowId>>),
}

impl Index {
    pub fn new(name: impl Into<String>, column: usize, unique: bool, kind: IndexKind) -> Self {
        Index {
            name: name.into(),
            column,
            unique,
            repr: match kind {
                IndexKind::Hash => Repr::Hash(HashMap::default()),
                IndexKind::Ordered => Repr::Ordered(BTreeMap::new()),
            },
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn column(&self) -> usize {
        self.column
    }

    pub fn unique(&self) -> bool {
        self.unique
    }

    pub fn kind(&self) -> IndexKind {
        match self.repr {
            Repr::Hash(_) => IndexKind::Hash,
            Repr::Ordered(_) => IndexKind::Ordered,
        }
    }

    /// Whether inserting `key` would violate uniqueness. NULLs never
    /// conflict (SQL unique semantics).
    pub fn would_conflict(&self, key: &Value) -> bool {
        if !self.unique || key.is_null() {
            return false;
        }
        !self.lookup(key).is_empty()
    }

    /// Insert an entry. The caller (the table) has already checked
    /// uniqueness; this re-checks defensively.
    pub fn insert(&mut self, key: &Value, row: RowId) -> Result<()> {
        if self.would_conflict(key) {
            return Err(Error::constraint(format!(
                "unique index `{}` already contains key {key}",
                self.name
            )));
        }
        match &mut self.repr {
            Repr::Hash(map) => map.entry(key.group_key()).or_default().push(row),
            Repr::Ordered(map) => map
                .entry(OrdKey::from_value(key)?)
                .or_default()
                .push(row),
        }
        Ok(())
    }

    /// Remove an entry (no-op if absent — removal during undo must be
    /// idempotent).
    pub fn remove(&mut self, key: &Value, row: RowId) {
        match &mut self.repr {
            Repr::Hash(map) => {
                let k = key.group_key();
                if let Some(v) = map.get_mut(&k) {
                    v.retain(|r| *r != row);
                    if v.is_empty() {
                        map.remove(&k);
                    }
                }
            }
            Repr::Ordered(map) => {
                if let Ok(k) = OrdKey::from_value(key) {
                    if let Some(v) = map.get_mut(&k) {
                        v.retain(|r| *r != row);
                        if v.is_empty() {
                            map.remove(&k);
                        }
                    }
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: &Value) -> Vec<RowId> {
        self.lookup(key).to_vec()
    }

    /// Point lookup without copying the entry (empty when the key is absent).
    pub fn lookup(&self, key: &Value) -> &[RowId] {
        let rows = match &self.repr {
            Repr::Hash(map) => map.get(&key.group_key()),
            Repr::Ordered(map) => OrdKey::from_value(key).ok().and_then(|k| map.get(&k)),
        };
        rows.map_or(&[], Vec::as_slice)
    }

    /// Range scan `[low, high]` with per-bound inclusivity. Only ordered
    /// indexes support ranges. `None` bounds are unbounded.
    pub fn range(
        &self,
        low: Option<(&Value, bool)>,
        high: Option<(&Value, bool)>,
    ) -> Result<Vec<RowId>> {
        let map = match &self.repr {
            Repr::Ordered(map) => map,
            Repr::Hash(_) => {
                return Err(Error::execution(format!(
                    "hash index `{}` does not support range scans",
                    self.name
                )));
            }
        };
        use std::ops::Bound;
        let lo = match low {
            None => Bound::Excluded(OrdKey::Null), // skip NULL keys entirely
            Some((v, true)) => Bound::Included(OrdKey::from_value(v)?),
            Some((v, false)) => Bound::Excluded(OrdKey::from_value(v)?),
        };
        let hi = match high {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(OrdKey::from_value(v)?),
            Some((v, false)) => Bound::Excluded(OrdKey::from_value(v)?),
        };
        let mut out = Vec::new();
        // `BTreeMap::range` panics on an inverted or doubly-excluded empty
        // interval; such a range simply holds no key.
        if let (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) =
            (&lo, &hi)
        {
            let both_included = matches!((&lo, &hi), (Bound::Included(_), Bound::Included(_)));
            if l > h || (l == h && !both_included) {
                return Ok(out);
            }
        }
        for (_, rows) in map.range((lo, hi)) {
            out.extend_from_slice(rows);
        }
        Ok(out)
    }

    /// Number of distinct keys (used by stats).
    pub fn distinct_keys(&self) -> usize {
        match &self.repr {
            Repr::Hash(map) => map.len(),
            Repr::Ordered(map) => map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_order_bits_is_monotonic() {
        let samples = [-1e300, -2.5, -0.0, 0.0, 1e-300, 1.0, 2.5, 1e300];
        for w in samples.windows(2) {
            assert!(
                f64_order_bits(w[0]) <= f64_order_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn hash_index_point_lookup() {
        let mut ix = Index::new("i", 0, false, IndexKind::Hash);
        ix.insert(&Value::Integer(5), RowId(1)).unwrap();
        ix.insert(&Value::Integer(5), RowId(2)).unwrap();
        ix.insert(&Value::Integer(6), RowId(3)).unwrap();
        let mut got = ix.get(&Value::Integer(5));
        got.sort();
        assert_eq!(got, vec![RowId(1), RowId(2)]);
        assert!(ix.get(&Value::Integer(7)).is_empty());
    }

    #[test]
    fn unique_index_rejects_duplicates_but_not_nulls() {
        let mut ix = Index::new("u", 0, true, IndexKind::Hash);
        ix.insert(&Value::Integer(5), RowId(1)).unwrap();
        assert!(ix.insert(&Value::Integer(5), RowId(2)).is_err());
        // NULLs never conflict
        ix.insert(&Value::Null, RowId(3)).unwrap();
        ix.insert(&Value::Null, RowId(4)).unwrap();
    }

    #[test]
    fn remove_is_idempotent() {
        let mut ix = Index::new("i", 0, false, IndexKind::Hash);
        ix.insert(&Value::Integer(5), RowId(1)).unwrap();
        ix.remove(&Value::Integer(5), RowId(1));
        ix.remove(&Value::Integer(5), RowId(1));
        assert!(ix.get(&Value::Integer(5)).is_empty());
    }

    #[test]
    fn ordered_index_range_scan() {
        let mut ix = Index::new("o", 0, false, IndexKind::Ordered);
        for i in 0..10 {
            ix.insert(&Value::Integer(i), RowId(i as u64)).unwrap();
        }
        let got = ix
            .range(
                Some((&Value::Integer(3), true)),
                Some((&Value::Integer(6), false)),
            )
            .unwrap();
        assert_eq!(got, vec![RowId(3), RowId(4), RowId(5)]);
        // unbounded low skips nothing but NULLs
        ix.insert(&Value::Null, RowId(99)).unwrap();
        let all = ix.range(None, None).unwrap();
        assert_eq!(all.len(), 10); // NULL key excluded
    }

    #[test]
    fn ordered_range_mixes_ints_and_doubles() {
        let mut ix = Index::new("o", 0, false, IndexKind::Ordered);
        ix.insert(&Value::Integer(1), RowId(1)).unwrap();
        ix.insert(&Value::Double(1.5), RowId(2)).unwrap();
        ix.insert(&Value::Integer(2), RowId(3)).unwrap();
        let got = ix
            .range(
                Some((&Value::Double(0.5), true)),
                Some((&Value::Integer(2), true)),
            )
            .unwrap();
        assert_eq!(got, vec![RowId(1), RowId(2), RowId(3)]);
    }

    #[test]
    fn hash_index_rejects_range() {
        let ix = Index::new("i", 0, false, IndexKind::Hash);
        assert!(ix.range(None, None).is_err());
    }
}
