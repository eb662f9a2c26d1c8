//! The table catalog.
//!
//! The catalog owns its tables by value. Whoever holds `&mut Catalog` — in
//! the engine, the one thread inside the writer's mutex — is the only
//! writer, and the borrow checker proves it: there is no per-table lock
//! (the paper's "low-overhead concurrency model", §7.2, is H-Store's serial
//! execution, and serial execution needs none).

use std::borrow::Cow;
use std::collections::BTreeMap;

use grfusion_common::{Error, Result};

use crate::table::Table;

/// Named collection of tables. Names are case-insensitive (normalized to
/// lowercase).
#[derive(Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

/// The catalog key of `name`: borrowed when it already is lowercase (what
/// every DML caller passes), allocated only otherwise. Table and graph view
/// names are keyed the same way.
pub fn key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

fn missing(name: &str) -> Error {
    Error::catalog(format!("table `{name}` does not exist"))
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a new table. Fails if the name is taken.
    pub fn create_table(&mut self, table: Table) -> Result<&mut Table> {
        use std::collections::btree_map::Entry;
        match self.tables.entry(table.name().to_ascii_lowercase()) {
            Entry::Occupied(_) => Err(Error::catalog(format!(
                "table `{}` already exists",
                table.name()
            ))),
            Entry::Vacant(slot) => Ok(slot.insert(table)),
        }
    }

    /// Remove a table from the catalog.
    pub fn drop_table(&mut self, name: &str) -> Result<Table> {
        self.tables.remove(&*key(name)).ok_or_else(|| missing(name))
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(&*key(name)).ok_or_else(|| missing(name))
    }

    /// Look up a table by name, for writing.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables.get_mut(&*key(name)).ok_or_else(|| missing(name))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&*key(name))
    }

    /// Every table under its lowercase name, in deterministic (sorted)
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t))
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
    fn create_lookup_drop() -> Result<()> {
        let mut c = Catalog::new();
        let t = Table::new("Users", Schema::from_pairs(&[("id", DataType::Integer)]));
        c.create_table(t)?;
        assert!(c.contains("users"));
        assert!(c.contains("USERS"));
        assert_eq!(c.table("uSeRs")?.name(), "Users");
        assert_eq!(c.table_mut("USERS")?.name(), "Users");
        // duplicate
        let t2 = Table::new("USERS", Schema::default());
        assert!(c.create_table(t2).is_err());
        c.drop_table("Users")?;
        assert!(c.table("users").is_err());
        assert!(c.drop_table("users").is_err());
        Ok(())
    }

    #[test]
    fn names_sorted() -> Result<()> {
        let mut c = Catalog::new();
        c.create_table(Table::new("b", Schema::default()))?;
        c.create_table(Table::new("a", Schema::default()))?;
        assert_eq!(c.table_names(), vec!["a".to_string(), "b".to_string()]);
        Ok(())
    }

    #[test]
    fn iter_yields_lowercase_names_with_their_tables() -> Result<()> {
        let mut c = Catalog::new();
        c.create_table(Table::new("Zed", Schema::default()))?;
        c.create_table(Table::new("Abe", Schema::default()))?;
        let seen: Vec<(&str, String)> = c.iter().map(|(n, t)| (n, t.name().to_string())).collect();
        assert_eq!(
            seen,
            vec![("abe", "Abe".to_string()), ("zed", "Zed".to_string())]
        );
        Ok(())
    }
}
