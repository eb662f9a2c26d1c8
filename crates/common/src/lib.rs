//! Shared primitives for the GRFusion reproduction.
//!
//! This crate defines the vocabulary that every other crate in the workspace
//! speaks: SQL [`Value`]s and their comparison/arithmetic semantics,
//! [`DataType`]s, relational [`Schema`]s, [`Row`]s, stable [`RowId`]s into
//! the row store, the [`PathData`] payload that graph operators attach to
//! result rows, the workspace-wide [`Error`] type, and the [`FoldState`]
//! hasher of the maps probed per row.
//!
//! GRFusion's central trick (EDBT 2018, §5.2) is that vertexes, edges, and
//! paths are *extended tuples*: a graph operator emits ordinary rows whose
//! schema extends the entity's relational schema, so relational operators
//! can consume graph-operator output without conversion. Keeping `PathData`
//! here (rather than in the graph crate) lets a plain [`Value`] carry a path
//! through a relational pipeline.

pub mod error;
pub mod hash;
pub mod ids;
pub mod path;
pub mod row;
pub mod schema;
pub mod value;

pub use error::{Error, ResourceKind, Result};
pub use hash::FoldState;
pub use ids::{EdgeId, RowId, VertexId};
pub use path::PathData;
pub use row::Row;
pub use schema::{Column, DataType, Schema};
pub use value::Value;
