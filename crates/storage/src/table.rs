//! Slotted in-memory row store with stable row ids.

use std::sync::Arc;

use grfusion_common::{Error, Result, Row, RowId, Schema, Value};

use crate::index::{Index, IndexKind};

/// Slots per chunk (power of two so slot→chunk resolution is
/// a shift and a mask on the hot tuple-pointer dereference path).
const CHUNK_BITS: usize = 8;
const CHUNK_SLOTS: usize = 1 << CHUNK_BITS;
const CHUNK_MASK: usize = CHUNK_SLOTS - 1;

/// A fixed-capacity run of row slots.
#[derive(Debug)]
struct Chunk {
    slots: Vec<Option<Row>>,
}

/// An in-memory table.
///
/// Rows live in a slot vector; a slot is assigned exactly once, so a
/// [`RowId`] is a stable main-memory tuple pointer for the table's lifetime
/// (deletes tombstone the slot). This is the property GRFusion's graph
/// views build on: topology nodes keep `RowId`s into their relational
/// sources and dereference them in O(1) during traversal.
///
/// The slot vector is stored as fixed-size chunks, so growing the table
/// never moves a stored row.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    chunks: Vec<Chunk>,
    slot_len: usize,
    live: usize,
    indexes: Vec<Index>,
}

impl Table {
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema: Arc::new(schema),
            chunks: Vec::new(),
            slot_len: 0,
            live: 0,
            indexes: Vec::new(),
        }
    }

    /// Slot contents by raw slot number (`None` = never allocated).
    #[inline]
    fn slot(&self, i: usize) -> Option<&Option<Row>> {
        self.chunks.get(i >> CHUNK_BITS).and_then(|c| c.slots.get(i & CHUNK_MASK))
    }

    /// Mutable slot access.
    #[inline]
    fn slot_mut(&mut self, i: usize) -> Option<&mut Option<Row>> {
        self.chunks
            .get_mut(i >> CHUNK_BITS)
            .and_then(|c| c.slots.get_mut(i & CHUNK_MASK))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (live + tombstoned).
    pub fn slot_count(&self) -> usize {
        self.slot_len
    }

    // ---- index management -------------------------------------------------

    /// Create a secondary index on `column` and backfill it from existing
    /// rows. Fails (leaving the table unchanged) if a unique index would be
    /// violated by current data or the index name is taken.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column: usize,
        unique: bool,
        kind: IndexKind,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name() == name) {
            return Err(Error::catalog(format!("index `{name}` already exists")));
        }
        if column >= self.schema.len() {
            return Err(Error::analysis(format!(
                "index column {column} out of range for table `{}`",
                self.name
            )));
        }
        let mut ix = Index::new(name, column, unique, kind);
        for (slot, row) in self.scan() {
            ix.insert(&row[column], slot)?;
        }
        self.indexes.push(ix);
        Ok(())
    }

    pub fn indexes(&self) -> impl Iterator<Item = &Index> + '_ {
        self.indexes.iter()
    }

    /// Find an index on `column`, preferring hash for point lookups.
    pub fn index_on(&self, column: usize, kind: Option<IndexKind>) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.column() == column && kind.is_none_or(|k| i.kind() == k))
    }

    // ---- DML ---------------------------------------------------------------

    /// Insert a row, returning its stable id. Validates arity, types
    /// (with int→double widening), and unique indexes.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        let row = self.check_row(row)?;
        let id = RowId(self.slot_len as u64);
        for ix in &self.indexes {
            if ix.would_conflict(&row[ix.column()]) {
                return Err(Error::constraint(format!(
                    "unique index `{}` on table `{}` violated by key {}",
                    ix.name(),
                    self.name,
                    row[ix.column()]
                )));
            }
        }
        for ix in &mut self.indexes {
            let c = ix.column();
            ix.insert(&row[c], id)?;
        }
        if self.slot_len & CHUNK_MASK == 0 {
            self.chunks.push(Chunk {
                slots: Vec::with_capacity(CHUNK_SLOTS),
            });
        }
        self.chunks
            .last_mut()
            .expect("chunk just ensured")
            .slots
            .push(Some(row));
        self.slot_len += 1;
        self.live += 1;
        Ok(id)
    }

    /// Delete a row, returning its former contents (needed for undo).
    pub fn delete(&mut self, id: RowId) -> Result<Row> {
        match self.slot(id.index()) {
            None => {
                return Err(Error::execution(format!("row id {id:?} out of range")));
            }
            Some(None) => {
                return Err(Error::execution(format!("row id {id:?} already deleted")));
            }
            Some(Some(_)) => {}
        }
        let slot = self.slot_mut(id.index()).expect("slot checked above");
        let row = slot.take().expect("slot checked above");
        for ix in &mut self.indexes {
            let c = ix.column();
            ix.remove(&row[c], id);
        }
        self.live -= 1;
        Ok(row)
    }

    /// Restore a previously deleted row into its original slot (undo of
    /// delete). The slot must be tombstoned.
    pub fn restore(&mut self, id: RowId, row: Row) -> Result<()> {
        match self.slot(id.index()) {
            None => {
                return Err(Error::execution(format!("row id {id:?} out of range")));
            }
            Some(Some(_)) => {
                return Err(Error::execution(format!("slot {id:?} is occupied")));
            }
            Some(None) => {}
        }
        for ix in &mut self.indexes {
            let c = ix.column();
            ix.insert(&row[c], id)?;
        }
        *self.slot_mut(id.index()).expect("slot checked above") = Some(row);
        self.live += 1;
        Ok(())
    }

    /// Overwrite a row in place, returning the old contents. Index entries
    /// are moved for changed key columns.
    pub fn update(&mut self, id: RowId, new_row: Row) -> Result<Row> {
        let new_row = self.check_row(new_row)?;
        // Borrow the stored row (fields, not `self.get`, so the indexes can
        // be moved while it is read); it is swapped out, not cloned, below.
        let old = self
            .chunks
            .get(id.index() >> CHUNK_BITS)
            .and_then(|c| c.slots.get(id.index() & CHUNK_MASK))
            .and_then(|s| s.as_ref())
            .ok_or_else(|| Error::execution(format!("row id {id:?} not found")))?;
        // Check unique conflicts first (excluding this row's own entry).
        for ix in &self.indexes {
            let c = ix.column();
            if old[c].sql_eq(&new_row[c]) != Some(true) && ix.would_conflict(&new_row[c]) {
                return Err(Error::constraint(format!(
                    "unique index `{}` on table `{}` violated by key {}",
                    ix.name(),
                    self.name,
                    new_row[c]
                )));
            }
        }
        // Move index entries all-or-nothing. The unique pre-check above can
        // disagree with an index's own insert-time validation (e.g. a key
        // type the index cannot hold), so an insert may still fail after
        // earlier indexes were already moved — undo every move and restore
        // the old keys before surfacing the error, leaving the indexes
        // consistent with the unchanged row store.
        let mut moved = 0;
        let mut failure = None;
        for (i, ix) in self.indexes.iter_mut().enumerate() {
            let c = ix.column();
            ix.remove(&old[c], id);
            if let Err(e) = ix.insert(&new_row[c], id) {
                failure = Some((i, e));
                break;
            }
            moved = i + 1;
        }
        if let Some((failed, e)) = failure {
            for (i, ix) in self.indexes.iter_mut().enumerate().take(failed + 1) {
                let c = ix.column();
                if i < moved {
                    ix.remove(&new_row[c], id);
                }
                // The old key was indexed before this call, so re-inserting
                // it cannot fail.
                ix.insert(&old[c], id)
                    .expect("restoring a previously indexed key");
            }
            return Err(e);
        }
        self.slot_mut(id.index())
            .and_then(|slot| slot.replace(new_row))
            .ok_or_else(|| Error::execution(format!("row id {id:?} not found")))
    }

    /// Fetch a row by id (None if deleted / out of range).
    #[inline]
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.slot(id.index()).and_then(|s| s.as_ref())
    }

    /// Read one column of one row — the hot path for traversal predicate
    /// evaluation through tuple pointers.
    #[inline]
    pub fn get_value(&self, id: RowId, column: usize) -> Option<&Value> {
        self.get(id).map(|r| &r[column])
    }

    /// Iterate live rows with their ids.
    pub fn scan(&self) -> impl Iterator<Item = (RowId, &Row)> + '_ {
        self.chunks
            .iter()
            .flat_map(|c| c.slots.iter())
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|r| (RowId(i as u64), r)))
    }

    /// The raw slot chunks, in slot order (`None` = tombstoned or never
    /// written). This is the batch executor's scan surface: a block-at-a-
    /// time table scan walks each chunk's contiguous slot slice directly
    /// instead of pulling rows through a one-at-a-time iterator, so the
    /// inner fill loop is a plain slice traversal.
    pub fn chunk_slices(&self) -> impl Iterator<Item = &[Option<Row>]> + '_ {
        self.chunks.iter().map(|c| c.slots.as_slice())
    }

    /// Validate arity and column types, applying int→double widening.
    fn check_row(&self, mut row: Row) -> Result<Row> {
        if row.len() != self.schema.len() {
            return Err(Error::execution(format!(
                "table `{}` expects {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (i, col) in self.schema.columns().iter().enumerate() {
            let v = std::mem::replace(&mut row[i], Value::Null);
            row[i] = col.data_type.coerce(v).map_err(|_| {
                Error::execution(format!(
                    "column `{}` of table `{}` has type {}, got incompatible value",
                    col.name, self.name, col.data_type
                ))
            })?;
        }
        Ok(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_common::DataType;

    fn users() -> Table {
        let mut t = Table::new(
            "users",
            Schema::from_pairs(&[
                ("id", DataType::Integer),
                ("name", DataType::Varchar),
                ("score", DataType::Double),
            ]),
        );
        t.create_index("pk", 0, true, IndexKind::Hash).unwrap();
        t
    }

    fn row(id: i64, name: &str, score: f64) -> Row {
        vec![Value::Integer(id), Value::text(name), Value::Double(score)]
    }

    #[test]
    fn insert_get_scan() {
        let mut t = users();
        let r1 = t.insert(row(1, "a", 0.5)).unwrap();
        let r2 = t.insert(row(2, "b", 1.5)).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(r1).unwrap()[1], Value::text("a"));
        assert_eq!(t.get_value(r2, 2), Some(&Value::Double(1.5)));
        let ids: Vec<_> = t.scan().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![r1, r2]);
    }

    #[test]
    fn row_ids_are_stable_across_deletes() {
        let mut t = users();
        let r1 = t.insert(row(1, "a", 0.0)).unwrap();
        let r2 = t.insert(row(2, "b", 0.0)).unwrap();
        t.delete(r1).unwrap();
        let r3 = t.insert(row(3, "c", 0.0)).unwrap();
        // Slot of r1 is NOT reused.
        assert_ne!(r3, r1);
        assert_eq!(t.get(r2).unwrap()[0], Value::Integer(2));
        assert!(t.get(r1).is_none());
        assert_eq!(t.len(), 2);
        assert_eq!(t.slot_count(), 3);
    }

    #[test]
    fn unique_index_enforced_on_insert_and_update() {
        let mut t = users();
        t.insert(row(1, "a", 0.0)).unwrap();
        let r2 = t.insert(row(2, "b", 0.0)).unwrap();
        assert!(t.insert(row(1, "dup", 0.0)).is_err());
        assert_eq!(t.len(), 2);
        // update colliding with existing pk
        assert!(t.update(r2, row(1, "b", 0.0)).is_err());
        // self-update with same key is fine
        t.update(r2, row(2, "b2", 9.0)).unwrap();
        assert_eq!(t.get(r2).unwrap()[1], Value::text("b2"));
    }

    #[test]
    fn failed_update_leaves_indexes_consistent() {
        // An ordered index cannot hold PATH keys, but `would_conflict`
        // passes them (non-unique index): the insert-time failure fires
        // after the hash index on column 0 was already moved. Regression:
        // the move must be all-or-nothing.
        let mut t = Table::new(
            "g",
            Schema::from_pairs(&[("k", DataType::Integer), ("p", DataType::Path)]),
        );
        t.create_index("by_k", 0, true, IndexKind::Hash).unwrap();
        let r1 = t
            .insert(vec![Value::Integer(1), Value::Null])
            .unwrap();
        t.create_index("by_p", 1, false, IndexKind::Ordered).unwrap();
        let path = Value::Path(std::sync::Arc::new(grfusion_common::PathData::seed("g", 7)));
        let err = t.update(r1, vec![Value::Integer(2), path]);
        assert!(err.is_err());
        // Row store unchanged…
        assert_eq!(t.get(r1).unwrap()[0], Value::Integer(1));
        assert!(t.get(r1).unwrap()[1].is_null());
        // …and the hash index still maps the OLD key to the row (before
        // the fix it had already moved to key 2).
        let by_k = t.index_on(0, Some(IndexKind::Hash)).unwrap();
        assert_eq!(by_k.get(&Value::Integer(1)), vec![r1]);
        assert!(by_k.get(&Value::Integer(2)).is_empty());
        // A follow-up valid update still works.
        t.update(r1, vec![Value::Integer(3), Value::Null]).unwrap();
        let by_k = t.index_on(0, Some(IndexKind::Hash)).unwrap();
        assert_eq!(by_k.get(&Value::Integer(3)), vec![r1]);
    }

    #[test]
    fn delete_restore_roundtrip() {
        let mut t = users();
        let r1 = t.insert(row(1, "a", 0.0)).unwrap();
        let old = t.delete(r1).unwrap();
        assert!(t.get(r1).is_none());
        t.restore(r1, old).unwrap();
        assert_eq!(t.get(r1).unwrap()[0], Value::Integer(1));
        // Index entries are restored too.
        let ix = t.index_on(0, None).unwrap();
        assert_eq!(ix.get(&Value::Integer(1)), vec![r1]);
    }

    #[test]
    fn restore_into_occupied_slot_fails() {
        let mut t = users();
        let r1 = t.insert(row(1, "a", 0.0)).unwrap();
        assert!(t.restore(r1, row(9, "z", 0.0)).is_err());
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = users();
        let r1 = t.insert(row(1, "a", 0.0)).unwrap();
        t.update(r1, row(5, "a", 0.0)).unwrap();
        let ix = t.index_on(0, None).unwrap();
        assert!(ix.get(&Value::Integer(1)).is_empty());
        assert_eq!(ix.get(&Value::Integer(5)), vec![r1]);
    }

    #[test]
    fn type_checking_with_widening() {
        let mut t = users();
        // integer into double column widens
        let r = t
            .insert(vec![Value::Integer(1), Value::text("a"), Value::Integer(3)])
            .unwrap();
        assert_eq!(t.get(r).unwrap()[2], Value::Double(3.0));
        // wrong arity
        assert!(t.insert(vec![Value::Integer(2)]).is_err());
        // wrong type
        assert!(t
            .insert(vec![Value::text("x"), Value::text("a"), Value::Null])
            .is_err());
    }

    #[test]
    fn create_index_backfills_and_validates() {
        let mut t = users();
        t.insert(row(1, "a", 1.0)).unwrap();
        t.insert(row(2, "a", 2.0)).unwrap();
        t.create_index("by_name", 1, false, IndexKind::Hash).unwrap();
        let ix = t.index_on(1, None).unwrap();
        assert_eq!(ix.get(&Value::text("a")).len(), 2);
        // unique index over duplicate data fails
        assert!(t
            .create_index("uniq_name", 1, true, IndexKind::Hash)
            .is_err());
        // duplicate index name fails
        assert!(t.create_index("by_name", 2, false, IndexKind::Hash).is_err());
    }

    #[test]
    fn chunk_slices_cover_every_slot_in_order() {
        let mut t = users();
        let mut ids = Vec::new();
        for i in 0..600 {
            ids.push(t.insert(row(i, "n", i as f64)).unwrap());
        }
        t.delete(ids[7]).unwrap();
        // Chunk slices are the batch scan surface: concatenated they must
        // equal the slot vector, with tombstones as None, in slot order.
        let slots: Vec<&Option<Row>> = t.chunk_slices().flatten().collect();
        assert_eq!(slots.len(), 600);
        assert!(slots[7].is_none());
        let live: Vec<i64> = slots
            .iter()
            .filter_map(|s| s.as_ref())
            .map(|r| r[0].as_integer().unwrap())
            .collect();
        let scanned: Vec<i64> = t.scan().map(|(_, r)| r[0].as_integer().unwrap()).collect();
        assert_eq!(live, scanned);
        // Chunks are fixed-size runs: every slice but the last is full.
        let lens: Vec<usize> = t.chunk_slices().map(|c| c.len()).collect();
        for l in &lens[..lens.len() - 1] {
            assert_eq!(*l, 256);
        }
    }

    #[test]
    fn ordered_index_supports_ranges_after_dml() {
        let mut t = users();
        t.create_index("by_score", 2, false, IndexKind::Ordered)
            .unwrap();
        let mut ids = Vec::new();
        for i in 0..10 {
            ids.push(t.insert(row(i, "n", i as f64)).unwrap());
        }
        t.delete(ids[5]).unwrap();
        let ix = t.index_on(2, Some(IndexKind::Ordered)).unwrap();
        let got = ix
            .range(
                Some((&Value::Double(4.0), true)),
                Some((&Value::Double(7.0), true)),
            )
            .unwrap();
        assert_eq!(got, vec![ids[4], ids[6], ids[7]]);
    }
}
