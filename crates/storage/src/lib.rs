//! In-memory row store for the GRFusion reproduction.
//!
//! This crate is the storage substrate the paper assumes from VoltDB: an
//! in-memory row store with stable main-memory tuple pointers ([`RowId`]s),
//! hash and ordered secondary indexes, a catalog of named tables, and
//! undo-log primitives that the engine layer composes into serial
//! (H-Store-style single-writer) transactions.
//!
//! The crucial property for GRFusion is **tuple-pointer stability** (EDBT
//! 2018 §3.2): a graph view's topology holds `RowId`s into the vertex/edge
//! relational sources, and those ids must survive unrelated inserts,
//! deletes, and attribute updates. [`Table`] guarantees exactly that: a slot
//! is assigned once per row and never reused while the table lives.

pub mod catalog;
pub mod index;
pub mod table;
pub mod undo;

pub use catalog::Catalog;
pub use index::{Index, IndexKind, OrdKey};
pub use table::Table;
pub use undo::UndoOp;

pub use grfusion_common::RowId;
