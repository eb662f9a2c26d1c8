//! Fixture: a per-victim statement body that shares the table name by
//! reference count and moves each row where it can — pass clean. (The path
//! ends in `crates/core/src/dml.rs`, so every function in the file is hot.)
fn execute_delete(journal: &mut Journal, table: &Arc<str>, victims: Vec<(RowId, Row)>) -> u64 {
    let mut n = 0;
    for (row_id, old) in victims {
        journal.record(Undo::Deleted {
            table: table.clone(), // alloc-ok: Arc bump
            row: row_id,
            old,
        });
        n += 1;
    }
    n
}
