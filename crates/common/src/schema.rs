//! Relational schemas.

use std::fmt;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::Value;

/// SQL data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Integer,
    Double,
    Boolean,
    Varchar,
    /// The cross-model path type (EDBT 2018 §5.2). Only graph operators
    /// produce it; relational operators pass it through.
    Path,
}

impl DataType {
    /// Whether `value` is storable in a column of this type (NULL always is).
    pub fn admits(self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Integer, Value::Integer(_))
                | (DataType::Double, Value::Double(_))
                | (DataType::Double, Value::Integer(_))
                | (DataType::Boolean, Value::Boolean(_))
                | (DataType::Varchar, Value::Text(_))
                | (DataType::Path, Value::Path(_))
        )
    }

    /// Coerce `value` for storage in this type (int→double widening only).
    pub fn coerce(self, value: Value) -> Result<Value> {
        match (self, &value) {
            (DataType::Double, Value::Integer(i)) => Ok(Value::Double(*i as f64)),
            _ if self.admits(&value) => Ok(value),
            _ => Err(Error::execution(format!(
                "value {value} is not assignable to {self}"
            ))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Integer => "INTEGER",
            DataType::Double => "DOUBLE",
            DataType::Boolean => "BOOLEAN",
            DataType::Varchar => "VARCHAR",
            DataType::Path => "PATH",
        };
        f.write_str(s)
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
}

impl Column {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Column {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of columns. Shared via `Arc` so operators can hand
/// schemas around without copying.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema {
            columns: pairs
                .iter()
                .map(|(n, t)| Column::new(*n, *t))
                .collect(),
        }
    }

    pub fn shared(self) -> Arc<Schema> {
        Arc::new(self)
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Case-insensitive column lookup (SQL identifiers are case-insensitive
    /// in this engine; they are normalized to lowercase at parse time but
    /// user-facing APIs may pass any case).
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Lookup that raises an analysis error on a miss.
    pub fn resolve(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| Error::analysis(format!("unknown column `{name}`")))
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Concatenate two schemas (for join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = Vec::with_capacity(self.len() + other.len());
        columns.extend(self.columns.iter().chain(&other.columns).cloned());
        Schema { columns }
    }

    /// Append a column, returning its index.
    pub fn push(&mut self, column: Column) -> usize {
        self.columns.push(column);
        self.columns.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("name", DataType::Varchar),
            ("score", DataType::Double),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = sample();
        assert_eq!(s.index_of("ID"), Some(0));
        assert_eq!(s.index_of("Name"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.resolve("missing").is_err());
    }

    #[test]
    fn join_concatenates() {
        let s = sample();
        let t = Schema::from_pairs(&[("x", DataType::Boolean)]);
        let j = s.join(&t);
        assert_eq!(j.len(), 4);
        assert_eq!(j.column(3).name, "x");
    }

    #[test]
    fn admits_and_coerce() {
        assert!(DataType::Integer.admits(&Value::Integer(1)));
        assert!(DataType::Integer.admits(&Value::Null));
        assert!(!DataType::Integer.admits(&Value::text("x")));
        // int widens to double
        assert_eq!(
            DataType::Double.coerce(Value::Integer(2)).unwrap(),
            Value::Double(2.0)
        );
        assert!(DataType::Boolean.coerce(Value::Integer(1)).is_err());
    }
}
