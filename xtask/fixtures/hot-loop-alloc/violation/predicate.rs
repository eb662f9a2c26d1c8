//! Fixture: an IN-list predicate that copies every item it compares — must
//! be flagged, although the function is not named `next`.
impl Expr {
    fn truth(&self, row: &[Value]) -> Option<bool> {
        let v = &row[self.column];
        for item in &self.list {
            if *v == item.clone() {
                return Some(true);
            }
        }
        Some(false)
    }
}
