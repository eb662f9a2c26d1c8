//! Execution environment: borrowed storage and topology state for one query.
//!
//! GRFusion executes queries serially (the H-Store single-partition model),
//! so a query takes read guards on every table and graph view it touches
//! once, up front, and operators work against plain references for the
//! whole execution. This module defines those borrowed views plus the
//! attribute-access helpers that dereference tuple pointers during path
//! evaluation (the O(1) topology→tuple hop of EDBT 2018 §3.2).

use grfusion_common::{Error, PathData, Result, Value};
use grfusion_graph::{GraphTopology, VertexSlot};
use grfusion_storage::Table;

use crate::graph_view::GraphViewDef;
use crate::snapshot::Snapshot;

/// Lossless `usize → i64` degree conversion. Topology degrees are bounded
/// by live row counts, so the fallible branch is unreachable in practice;
/// clamping (instead of `as`, which would wrap on a 64-bit count with the
/// high bit set) keeps the conversion total without a panic path.
#[inline]
pub fn degree_i64(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// Borrowed view of one graph view during query execution.
pub struct GraphEnv<'e> {
    pub def: &'e GraphViewDef,
    pub topo: &'e GraphTopology,
    pub vertex_table: &'e Table,
    pub edge_table: &'e Table,
}

impl<'e> GraphEnv<'e> {
    /// Value of a vertex attribute by exposed name. Special properties:
    /// `id`, `fanin`, `fanout` (§5.2).
    pub fn vertex_attr(&self, slot: VertexSlot, attr: &str) -> Result<Value> {
        if attr.eq_ignore_ascii_case("id") {
            return Ok(Value::Integer(self.topo.vertex_id(slot)));
        }
        if attr.eq_ignore_ascii_case("fanin") {
            return Ok(Value::Integer(degree_i64(self.topo.fan_in(slot))));
        }
        if attr.eq_ignore_ascii_case("fanout") {
            return Ok(Value::Integer(degree_i64(self.topo.fan_out(slot))));
        }
        let col = self.def.vertex_attr_col(attr).ok_or_else(|| {
            Error::analysis(format!(
                "graph view `{}` has no vertex attribute `{attr}`",
                self.def.name
            ))
        })?;
        self.vertex_table
            .get_value(self.topo.vertex_tuple(slot), col)
            .cloned()
            .ok_or_else(|| Error::execution("dangling vertex tuple pointer"))
    }

    /// Value of an edge attribute by exposed name (`id` is special; the
    /// direction-sensitive `StartVertex`/`EndVertex` are resolved at the
    /// path level because an undirected edge has no intrinsic direction).
    pub fn edge_attr(&self, slot: grfusion_graph::EdgeSlot, attr: &str) -> Result<Value> {
        if attr.eq_ignore_ascii_case("id") {
            return Ok(Value::Integer(self.topo.edge_id(slot)));
        }
        let col = self.def.edge_attr_col(attr).ok_or_else(|| {
            Error::analysis(format!(
                "graph view `{}` has no edge attribute `{attr}`",
                self.def.name
            ))
        })?;
        self.edge_table
            .get_value(self.topo.edge_tuple(slot), col)
            .cloned()
            .ok_or_else(|| Error::execution("dangling edge tuple pointer"))
    }

    /// Attribute of the edge at path position `pos`, with
    /// traversal-direction semantics for `StartVertex`/`EndVertex`: the
    /// start of hop `i` is `path.vertexes()[i]` and its end is
    /// `path.vertexes()[i+1]` (this is what makes Listing 4's triangle
    /// predicate `P.Edges[2].EndVertex = P.Edges[0].StartVertex` work on
    /// undirected graphs).
    pub fn path_edge_attr(&self, path: &PathData, pos: usize, attr: &str) -> Result<Value> {
        if pos >= path.edges().len() {
            return Ok(Value::Null);
        }
        if attr.eq_ignore_ascii_case("startvertex") {
            return Ok(Value::Integer(path.vertexes()[pos]));
        }
        if attr.eq_ignore_ascii_case("endvertex") {
            return Ok(Value::Integer(path.vertexes()[pos + 1]));
        }
        let slot = self.topo.edge_slot(path.edges()[pos])?;
        self.edge_attr(slot, attr)
    }

    /// Attribute of the vertex at path position `pos` (position 0 is the
    /// start vertex).
    pub fn path_vertex_attr(&self, path: &PathData, pos: usize, attr: &str) -> Result<Value> {
        if pos >= path.vertexes().len() {
            return Ok(Value::Null);
        }
        let slot = self.topo.vertex_slot(path.vertexes()[pos])?;
        self.vertex_attr(slot, attr)
    }
}

/// All borrowed state for one query execution.
pub struct QueryEnv<'e> {
    /// The tables and graph views the query can name. `None` for DML
    /// expressions, which read one table's row (or nothing at all), never
    /// a catalog object.
    pub(crate) snap: Option<&'e Snapshot<'e>>,
    /// Execution limits carried into operators.
    pub limits: crate::config::ExecLimits,
    /// Bound parameter values for prepared statements (empty otherwise).
    pub params: Vec<grfusion_common::Value>,
    /// Per-query resource governor (deadline / cancellation / memory
    /// accountant / fault plan). Defaults to unlimited.
    pub gov: crate::governor::ExecContext,
    /// Rows the result collector asks the root for per call, and every
    /// operator that drains its input asks its child for: see
    /// [`QueryEnv::demand`].
    pub(crate) batch_rows: usize,
}

impl<'e> QueryEnv<'e> {
    /// The query's batch size: `batch_rows`, or one row when a row budget
    /// or a fault plan is armed. Both count rows as they are
    /// *pulled*, so under them every operator hands over exactly the row
    /// its consumer is about to use — the same operators, asked for one.
    pub(crate) fn demand(
        limits: &crate::config::ExecLimits,
        gov: &crate::governor::ExecContext,
        batch_rows: usize,
    ) -> usize {
        let counted = limits.max_intermediate_rows.is_some() || gov.faults().is_some();
        if counted {
            1
        } else {
            batch_rows
        }
    }

    pub fn table(&self, name: &str) -> Result<&'e Table> {
        self.snap
            .and_then(|s| s.table(name))
            .ok_or_else(|| Error::execution(format!("table `{name}` not bound in query env")))
    }

    pub fn graph(&self, name: &str) -> Result<&'e GraphEnv<'e>> {
        self.snap
            .and_then(|s| s.graph(name))
            .ok_or_else(|| Error::execution(format!("graph view `{name}` not bound in query env")))
    }

    /// Resolve the graph env a path value belongs to.
    pub fn graph_of_path(&self, path: &PathData) -> Result<&GraphEnv<'e>> {
        self.graph(&path.graph_view)
    }
}
