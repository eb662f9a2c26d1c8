//! Fixture: a statement body that copies the table name into every journal
//! entry — must be flagged, although no function here is named `next` (the
//! path ends in `crates/core/src/dml.rs`, a whole-file-hot statement body).
fn execute_delete(journal: &mut Journal, table: &str, victims: Vec<(RowId, Row)>) -> u64 {
    let mut n = 0;
    for (row_id, old) in victims {
        journal.record(Undo::Deleted {
            table: table.to_string(),
            row: row_id,
            old,
        });
        n += 1;
    }
    n
}
