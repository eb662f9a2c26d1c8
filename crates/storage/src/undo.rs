//! Undo logging for serial transactions.
//!
//! VoltDB/H-Store executes single-partition transactions serially, so
//! isolation is trivial; atomicity comes from an undo log that rolls the
//! partition back if a statement aborts mid-transaction. We mirror that:
//! every storage mutation appends an [`UndoOp`]; rollback replays them in
//! reverse. The engine layer extends the same log with graph-topology undo
//! actions so that graph-view maintenance (§3.3) is atomic with the
//! triggering DML.

use std::sync::Arc;

use grfusion_common::{Result, Row, RowId};

use crate::catalog::Catalog;

/// One reversible storage action, keyed by table name. The name is shared
/// (`Arc<str>`), so a statement logging one op per row allocates it once.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// A row was inserted; undo deletes it.
    Insert { table: Arc<str>, row: RowId },
    /// A row was deleted; undo restores the old contents into its slot.
    Delete {
        table: Arc<str>,
        row: RowId,
        old: Row,
    },
    /// A row was updated; undo restores the old contents.
    Update {
        table: Arc<str>,
        row: RowId,
        old: Row,
    },
}

/// Append-only log of reversible actions for one transaction.
#[derive(Debug, Default)]
pub struct UndoLog {
    ops: Vec<UndoOp>,
}

impl UndoLog {
    pub fn new() -> Self {
        UndoLog::default()
    }

    pub fn record(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of ops currently logged — used as a savepoint marker.
    pub fn savepoint(&self) -> usize {
        self.ops.len()
    }

    /// Roll back everything after `savepoint` (0 = whole transaction),
    /// applying ops newest-first against the catalog's tables.
    pub fn rollback_to(&mut self, catalog: &Catalog, savepoint: usize) -> Result<()> {
        while self.ops.len() > savepoint {
            let op = self.ops.pop().expect("len checked");
            match op {
                UndoOp::Insert { table, row } => {
                    catalog.table(&table)?.write().delete(row)?;
                }
                UndoOp::Delete { table, row, old } => {
                    catalog.table(&table)?.write().restore(row, old)?;
                }
                UndoOp::Update { table, row, old } => {
                    catalog.table(&table)?.write().update(row, old)?;
                }
            }
        }
        Ok(())
    }

    /// Commit: drop the log.
    pub fn clear(&mut self) {
        self.ops.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use grfusion_common::{DataType, Schema, Value};

    fn setup() -> (Catalog, RowId) {
        let mut c = Catalog::new();
        let t = Table::new(
            "t",
            Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Varchar)]),
        );
        let h = c.create_table(t).unwrap();
        let r0 = h
            .write()
            .insert(vec![Value::Integer(0), Value::text("base")])
            .unwrap();
        (c, r0)
    }

    #[test]
    fn rollback_insert() {
        let (c, _r0) = setup();
        let mut log = UndoLog::new();
        let h = c.table("t").unwrap();
        let r = h
            .write()
            .insert(vec![Value::Integer(1), Value::text("x")])
            .unwrap();
        log.record(UndoOp::Insert {
            table: "t".into(),
            row: r,
        });
        log.rollback_to(&c, 0).unwrap();
        assert!(h.read().get(r).is_none());
        assert_eq!(h.read().len(), 1);
    }

    #[test]
    fn rollback_delete_and_update() {
        let (c, r0) = setup();
        let mut log = UndoLog::new();
        let h = c.table("t").unwrap();

        let old = h
            .write()
            .update(r0, vec![Value::Integer(0), Value::text("changed")])
            .unwrap();
        log.record(UndoOp::Update {
            table: "t".into(),
            row: r0,
            old,
        });
        let old = h.write().delete(r0).unwrap();
        log.record(UndoOp::Delete {
            table: "t".into(),
            row: r0,
            old,
        });

        log.rollback_to(&c, 0).unwrap();
        let t = h.read();
        assert_eq!(t.get(r0).unwrap()[1], Value::text("base"));
    }

    #[test]
    fn partial_rollback_to_savepoint() {
        let (c, _r0) = setup();
        let mut log = UndoLog::new();
        let h = c.table("t").unwrap();

        let r1 = h
            .write()
            .insert(vec![Value::Integer(1), Value::text("a")])
            .unwrap();
        log.record(UndoOp::Insert {
            table: "t".into(),
            row: r1,
        });
        let sp = log.savepoint();
        let r2 = h
            .write()
            .insert(vec![Value::Integer(2), Value::text("b")])
            .unwrap();
        log.record(UndoOp::Insert {
            table: "t".into(),
            row: r2,
        });

        log.rollback_to(&c, sp).unwrap();
        assert!(h.read().get(r1).is_some());
        assert!(h.read().get(r2).is_none());
        assert_eq!(log.len(), sp);
    }

    #[test]
    fn clear_commits() {
        let (_c, _r0) = setup();
        let mut log = UndoLog::new();
        log.record(UndoOp::Insert {
            table: "t".into(),
            row: RowId(0),
        });
        log.clear();
        assert!(log.is_empty());
    }
}
