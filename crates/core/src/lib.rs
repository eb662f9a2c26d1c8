//! # GRFusion-RS — native graph support inside an in-memory relational engine
//!
//! A from-scratch Rust reproduction of *Extending In-Memory Relational
//! Database Engines with Native Graph Support* (Hassan, Kuznetsova, Jeong,
//! Aref, Sadoghi — EDBT 2018). The paper's GRFusion system makes graphs
//! first-class citizens inside VoltDB; this crate is the analogous engine:
//!
//! * **Graph views as database objects** (§3): `CREATE GRAPH VIEW`
//!   materializes a native adjacency-list topology whose vertexes/edges
//!   hold tuple pointers into relational storage ([`graph_view`]).
//! * **Online graph updates** (§3.3): DML on a graph view's relational
//!   sources transactionally maintains the topology ([`dml`]).
//! * **The PATHS construct** (§4): `gv.PATHS`, `gv.VERTEXES`, `gv.EDGES`
//!   in the FROM clause, indexed path references, path aggregates.
//! * **Cross-model query pipelines** (§5): `VertexScan`, `EdgeScan`, and
//!   lazy `PathScan` operators co-exist with relational operators in one
//!   pull-based pipeline ([`exec`]); vertexes/edges/paths are extended tuples.
//! * **Query optimization** (§6): path-length inference, predicate pushdown
//!   ahead of path scans, and logical→physical traversal-operator mapping
//!   (DFS/BFS/shortest-path with the `F < L` memory heuristic)
//!   ([`planner`]).
//!
//! ## Quick start
//!
//! ```
//! use grfusion::Database;
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE Users (uId INTEGER PRIMARY KEY, lName VARCHAR)").unwrap();
//! db.execute("CREATE TABLE Rel (relId INTEGER PRIMARY KEY, u1 INTEGER, u2 INTEGER)").unwrap();
//! db.execute("INSERT INTO Users VALUES (1, 'Smith'), (2, 'Jones'), (3, 'Parker')").unwrap();
//! db.execute("INSERT INTO Rel VALUES (10, 1, 2), (11, 2, 3)").unwrap();
//! db.execute(
//!     "CREATE UNDIRECTED GRAPH VIEW Social \
//!      VERTEXES(ID = uId, lstName = lName) FROM Users \
//!      EDGES(ID = relId, FROM = u1, TO = u2) FROM Rel",
//! ).unwrap();
//! let rs = db.execute(
//!     "SELECT PS.EndVertex.lstName FROM Social.Paths PS \
//!      WHERE PS.StartVertex.Id = 1 AND PS.Length = 2",
//! ).unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! assert_eq!(rs.rows[0][0].to_string(), "Parker");
//! ```

mod access;
pub mod analyze;
pub mod config;
pub mod db;
pub mod dml;
pub mod env;
pub mod exec;
pub mod expr;
pub mod governor;
pub mod graph_view;
pub mod metrics;
pub mod plan;
pub mod planner;
pub mod result;
mod snapshot;
mod spine;

pub use config::{CsrConfig, EngineConfig, GovernorConfig, OptimizerFlags, TraversalChoice};
pub use db::{Database, PreparedQuery};
pub use governor::{
    enter_request, CancelToken, FaultKind, FaultPlan, FaultRule, FaultState, RequestGuard,
    RequestOptions, DML_FAULT_SITES,
};
pub use metrics::{GovCounters, GraphCounters, OpMetrics, QueryMetrics};
pub use result::ResultSet;

pub use grfusion_common::{Error, ResourceKind, Result, Value};
