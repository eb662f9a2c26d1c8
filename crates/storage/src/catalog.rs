//! The table catalog.

use std::collections::BTreeMap;
use std::sync::Arc;

use grfusion_common::{Error, Result};
use parking_lot::RwLock;

use crate::table::Table;

/// Shared handle to a table. Readers (executor operators, graph traversals
/// dereferencing tuple pointers) take read locks; the single-writer engine
/// takes write locks for DML. With H-Store-style serial execution there is
/// no lock contention — the lock exists for memory safety, matching the
/// paper's "low-overhead concurrency model" observation (§7.2).
pub type TableRef = Arc<RwLock<Table>>;

/// Named collection of tables. Names are case-insensitive (normalized to
/// lowercase).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableRef>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a new table. Fails if the name is taken.
    pub fn create_table(&mut self, table: Table) -> Result<TableRef> {
        let key = table.name().to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(Error::catalog(format!(
                "table `{}` already exists",
                table.name()
            )));
        }
        let handle: TableRef = Arc::new(RwLock::new(table));
        self.tables.insert(key, handle.clone());
        Ok(handle)
    }

    /// Remove a table from the catalog.
    pub fn drop_table(&mut self, name: &str) -> Result<TableRef> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::catalog(format!("table `{name}` does not exist")))
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<TableRef> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::catalog(format!("table `{name}` does not exist")))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Every table under its lowercase name, in deterministic (sorted)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TableRef)> {
        self.tables.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Table names in deterministic (sorted) order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_common::{DataType, Schema};

    #[test]
    fn create_lookup_drop() {
        let mut c = Catalog::new();
        let t = Table::new("Users", Schema::from_pairs(&[("id", DataType::Integer)]));
        c.create_table(t).unwrap();
        assert!(c.contains("users"));
        assert!(c.contains("USERS"));
        let h = c.table("uSeRs").unwrap();
        assert_eq!(h.read().name(), "Users");
        // duplicate
        let t2 = Table::new("USERS", Schema::default());
        assert!(c.create_table(t2).is_err());
        c.drop_table("users").unwrap();
        assert!(c.table("users").is_err());
        assert!(c.drop_table("users").is_err());
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.create_table(Table::new("b", Schema::default())).unwrap();
        c.create_table(Table::new("a", Schema::default())).unwrap();
        assert_eq!(c.table_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn iter_yields_lowercase_names_with_their_handles() -> Result<()> {
        let mut c = Catalog::new();
        c.create_table(Table::new("Zed", Schema::default()))?;
        c.create_table(Table::new("Abe", Schema::default()))?;
        let seen: Vec<(&str, String)> = c
            .iter()
            .map(|(n, h)| (n, h.read().name().to_string()))
            .collect();
        assert_eq!(
            seen,
            vec![("abe", "Abe".to_string()), ("zed", "Zed".to_string())]
        );
        Ok(())
    }
}
