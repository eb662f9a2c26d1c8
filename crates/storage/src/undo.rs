//! Undo logging for serial transactions.
//!
//! VoltDB/H-Store executes single-partition transactions serially, so
//! isolation is trivial; atomicity comes from an undo log that rolls the
//! partition back if a statement aborts mid-transaction. We mirror that:
//! every storage mutation yields an [`UndoOp`], and [`UndoOp::undo`]
//! reverses one. The log itself lives in the engine layer (`core::dml`'s
//! journal), which interleaves these ops with graph-topology undo actions
//! so that graph-view maintenance (§3.3) is atomic with the triggering DML
//! and rolls both back newest-first.

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

impl UndoOp {
    /// Lowercase name of the table this op acted on.
    pub fn table(&self) -> &Arc<str> {
        match self {
            UndoOp::Insert { table, .. }
            | UndoOp::Delete { table, .. }
            | UndoOp::Update { table, .. } => table,
        }
    }

    /// Reverse this op against the catalog's tables — the one place the
    /// three storage-undo arms are spelled. A log is rolled back by undoing
    /// its ops newest-first.
    pub fn undo(self, catalog: &mut Catalog) -> Result<()> {
        let table = catalog.table_mut(self.table())?;
        match self {
            UndoOp::Insert { row, .. } => table.delete(row).map(drop),
            UndoOp::Delete { row, old, .. } => table.restore(row, old),
            UndoOp::Update { row, old, .. } => table.update(row, old).map(drop),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use grfusion_common::{DataType, Schema, Value};

    fn setup() -> Result<(Catalog, RowId)> {
        let mut c = Catalog::new();
        let t = Table::new(
            "t",
            Schema::from_pairs(&[("id", DataType::Integer), ("v", DataType::Varchar)]),
        );
        let r0 = c
            .create_table(t)?
            .insert(vec![Value::Integer(0), Value::text("base")])?;
        Ok((c, r0))
    }

    /// Undo `log` newest-first down to `savepoint` entries.
    fn rollback_to(log: &mut Vec<UndoOp>, c: &mut Catalog, savepoint: usize) -> Result<()> {
        for op in log.drain(savepoint..).rev() {
            op.undo(c)?;
        }
        Ok(())
    }

    #[test]
    fn rollback_insert() -> Result<()> {
        let (mut c, _r0) = setup()?;
        let mut log = Vec::new();
        let r = c
            .table_mut("t")?
            .insert(vec![Value::Integer(1), Value::text("x")])?;
        log.push(UndoOp::Insert {
            table: "t".into(),
            row: r,
        });
        rollback_to(&mut log, &mut c, 0)?;
        let t = c.table("t")?;
        assert!(t.get(r).is_none());
        assert_eq!(t.len(), 1);
        Ok(())
    }

    #[test]
    fn rollback_delete_and_update() -> Result<()> {
        let (mut c, r0) = setup()?;
        let mut log = Vec::new();
        let t = c.table_mut("t")?;

        let old = t
            .update(r0, vec![Value::Integer(0), Value::text("changed")])?;
        log.push(UndoOp::Update {
            table: "t".into(),
            row: r0,
            old,
        });
        let old = t.delete(r0)?;
        log.push(UndoOp::Delete {
            table: "t".into(),
            row: r0,
            old,
        });

        rollback_to(&mut log, &mut c, 0)?;
        let t = c.table("t")?;
        assert_eq!(t.get(r0).map(|r| &r[1]), Some(&Value::text("base")));
        Ok(())
    }

    #[test]
    fn partial_rollback_to_savepoint() -> Result<()> {
        let (mut c, _r0) = setup()?;
        let mut log = Vec::new();
        let t = c.table_mut("t")?;

        let r1 = t.insert(vec![Value::Integer(1), Value::text("a")])?;
        log.push(UndoOp::Insert {
            table: "t".into(),
            row: r1,
        });
        let sp = log.len();
        let r2 = t.insert(vec![Value::Integer(2), Value::text("b")])?;
        log.push(UndoOp::Insert {
            table: "t".into(),
            row: r2,
        });

        rollback_to(&mut log, &mut c, sp)?;
        let t = c.table("t")?;
        assert!(t.get(r1).is_some());
        assert!(t.get(r2).is_none());
        assert_eq!(log.len(), sp);
        Ok(())
    }

    #[test]
    fn undo_of_a_dropped_table_is_an_error() -> Result<()> {
        let (mut c, r0) = setup()?;
        c.drop_table("t")?;
        let op = UndoOp::Insert {
            table: "t".into(),
            row: r0,
        };
        assert!(op.undo(&mut c).is_err());
        Ok(())
    }
}
