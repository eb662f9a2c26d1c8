//! Execution environment: borrowed storage and topology state for one query.
//!
//! GRFusion executes queries serially (the H-Store single-partition model),
//! so a query takes read guards on every table and graph view it touches
//! once, up front, and operators work against plain references for the
//! whole execution. This module defines those borrowed views plus the
//! attribute fetches that dereference tuple pointers (the O(1)
//! topology→tuple hop of EDBT 2018 §3.2): one per element kind, taking an
//! accessor `expr::compile` resolved from the attribute's name, so no name
//! is looked up while a query runs.

use std::borrow::Cow;
use std::sync::Arc;

use grfusion_common::{Error, PathData, Result, Value};
use grfusion_graph::{EdgeSlot, GraphTopology, VertexSlot};
use grfusion_storage::Table;

use crate::expr::{EdgeAttr, ElemAttr, SlotAttr, VertexAttr};
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
    pub def: &'e Arc<GraphViewDef>,
    pub topo: &'e GraphTopology,
    pub vertex_table: &'e Table,
    pub edge_table: &'e Table,
}

impl<'e> GraphEnv<'e> {
    /// Attribute `attr` of the edge in `slot`: the one edge fetch, which
    /// residual evaluation, the traversal filter and the shortest-path cost
    /// all read through. Only a [`EdgeAttr::Col`] dereferences the edge's
    /// tuple pointer, and borrows the value; `None` if the pointer dangles.
    #[inline]
    pub fn edge_value(&self, slot: EdgeSlot, attr: EdgeAttr) -> Option<Cow<'e, Value>> {
        match attr {
            EdgeAttr::Id => Some(Cow::Owned(Value::Integer(self.topo.edge_id(slot)))),
            EdgeAttr::Col(c) => self
                .edge_table
                .get_value(self.topo.edge_tuple(slot), c)
                .map(Cow::Borrowed),
        }
    }

    /// Attribute `attr` of the vertex in `slot`: the one vertex fetch (see
    /// [`GraphEnv::edge_value`]).
    #[inline]
    pub fn vertex_value(&self, slot: VertexSlot, attr: VertexAttr) -> Option<Cow<'e, Value>> {
        let degree = |n: usize| Some(Cow::Owned(Value::Integer(degree_i64(n))));
        match attr {
            VertexAttr::Id => Some(Cow::Owned(Value::Integer(self.topo.vertex_id(slot)))),
            VertexAttr::FanIn => degree(self.topo.fan_in(slot)),
            VertexAttr::FanOut => degree(self.topo.fan_out(slot)),
            VertexAttr::Col(c) => self
                .vertex_table
                .get_value(self.topo.vertex_tuple(slot), c)
                .map(Cow::Borrowed),
        }
    }

    /// Attribute `attr` of the element at position `pos` of its list
    /// (vertex 0 is the start vertex); NULL past the path's end. The start
    /// of hop `i` is `path.vertexes()[i]` and its end is
    /// `path.vertexes()[i+1]`, in traversal direction (this is what makes
    /// Listing 4's triangle predicate `P.Edges[2].EndVertex =
    /// P.Edges[0].StartVertex` work on undirected graphs).
    pub fn element(&self, path: &PathData, pos: usize, attr: ElemAttr) -> Result<Value> {
        let edge = path.edges().get(pos);
        let hop = |end: usize| {
            edge.and_then(|_| path.vertexes().get(pos + end))
                .map_or(Value::Null, |&v| Value::Integer(v))
        };
        let value = match attr {
            ElemAttr::Slot(SlotAttr::Vertex(attr)) => match path.vertexes().get(pos) {
                Some(&id) => self.vertex_value(self.topo.vertex_slot(id)?, attr),
                None => return Ok(Value::Null),
            },
            ElemAttr::Slot(SlotAttr::Edge(attr)) => match edge {
                Some(&id) => self.edge_value(self.topo.edge_slot(id)?, attr),
                None => return Ok(Value::Null),
            },
            ElemAttr::HopStart => return Ok(hop(0)),
            ElemAttr::HopEnd => return Ok(hop(1)),
        };
        value
            .map(Cow::into_owned)
            .ok_or_else(|| Error::execution("dangling tuple pointer"))
    }
}

/// All borrowed state for one query execution.
pub struct QueryEnv<'e> {
    /// The tables and graph views the query can name. `None` for DML
    /// expressions, which read one table's row (or nothing at all), never
    /// a catalog object.
    pub(crate) snap: Option<&'e Snapshot<'e>>,
    /// Bound parameter values for prepared statements (empty otherwise).
    pub params: Vec<grfusion_common::Value>,
    /// Per-query resource governor (row cap / deadline / cancellation /
    /// memory accountant / fault plan). Defaults to unlimited.
    pub gov: crate::governor::ExecContext,
    /// Rows the result collector asks the root for per call, and every
    /// operator that drains its input asks its child for: see
    /// [`ExecContext::demand`](crate::governor::ExecContext::demand).
    pub(crate) batch_rows: usize,
}

impl<'e> QueryEnv<'e> {
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
