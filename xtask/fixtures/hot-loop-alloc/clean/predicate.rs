//! Fixture: an IN-list predicate that compares each item in place — pass
//! clean. (`truth` runs once per row, so its loops are hot in any file.)
impl Expr {
    fn truth(&self, row: &[Value]) -> Option<bool> {
        let v = &row[self.column];
        for item in &self.list {
            if v == item {
                return Some(true);
            }
        }
        Some(false)
    }
}
