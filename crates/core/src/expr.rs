//! Expression compilation and evaluation.
//!
//! The parser produces generic reference chains (`PS.Edges[0..*].Type`);
//! this module resolves them against the query's FROM-clause bindings into
//! physical expressions over the pipeline's flat rows. [`compile`] is the
//! only path from an AST expression to a [`PhysExpr`]: it resolves every
//! name once and types every operator as it goes, so it is also where an
//! ill-typed statement is rejected, with the source span of the operand
//! at fault. Three GRFusion extensions live here (EDBT 2018 §4, §5.2):
//!
//! * **Path properties** — `PS.Length`, `PS.StartVertex.attr`,
//!   `PS.Edges[2].EndVertex`, ... evaluate against the path payload column
//!   by dereferencing graph-view tuple pointers.
//! * **Quantified range predicates** — `PS.Edges[0..*].Type IN (...)`
//!   means *every* edge in the range satisfies the test.
//! * **Path aggregates** — `SUM(PS.Edges.Weight)` is a *scalar* per path
//!   (not a group aggregate).
//!
//! Predicates follow SQL's three-valued (Kleene) logic, computed as a truth
//! value by [`PhysExpr::truth`]; filters accept only `TRUE`.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::value::ArithOp;
use grfusion_common::{DataType, Error, PathData, Result, Schema, Value};
use grfusion_sql::{BinaryOp, Expr, IndexEnd, RefPart, UnaryOp};

use crate::env::{GraphEnv, QueryEnv};
use crate::graph_view::{self as gv, GraphViewDef};
use crate::plan::AggSpec;

// ---------------------------------------------------------------------------
// Bindings / namespace
// ---------------------------------------------------------------------------

/// What a FROM-clause binding denotes, by the catalog's (lowercase) name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BindingKind<'a> {
    /// A relational table.
    Table(&'a str),
    /// `gv.VERTEXES` scan output.
    Vertexes(&'a str),
    /// `gv.EDGES` scan output.
    Edges(&'a str),
    /// `gv.PATHS` — contributes a single Path-typed column.
    Paths(&'a str),
}

/// One FROM-clause binding with its slice of the combined pipeline row.
#[derive(Debug, Clone)]
pub struct Binding<'a> {
    /// Binding name (alias or source name) as the query wrote it; it
    /// matches in any case.
    pub name: &'a str,
    pub kind: BindingKind<'a>,
    /// Schema of this binding's columns.
    pub schema: Arc<Schema>,
    /// Offset of this binding's first column in the combined row.
    pub offset: usize,
}

/// Compile-time metadata for a graph view (definition + source schemas so
/// attribute types resolve statically).
#[derive(Debug, Clone)]
pub struct GraphMeta {
    pub def: Arc<GraphViewDef>,
    pub vertex_schema: Arc<Schema>,
    pub edge_schema: Arc<Schema>,
}

impl GraphMeta {
    /// The one resolver of a graph attribute name: the accessor `name`
    /// (any case) denotes on the view's edges or vertexes, with its type.
    /// The synthesized names are INTEGER; anything else must be an exposed
    /// attribute, read from its base-table column through the element's
    /// tuple pointer.
    pub(crate) fn attr_of(&self, target: PathTarget, name: &str) -> Option<(ElemAttr, DataType)> {
        if target == PathTarget::Vertexes {
            let (attr, ty) = self.vertex_attr_of(name)?;
            return Some((ElemAttr::Slot(SlotAttr::Vertex(attr)), ty));
        }
        let attr = match lowercase(name, &mut [0; KEYWORD_MAX]) {
            gv::ID => ElemAttr::Slot(SlotAttr::Edge(EdgeAttr::Id)),
            gv::START_VERTEX => ElemAttr::HopStart,
            gv::END_VERTEX => ElemAttr::HopEnd,
            _ => {
                let c = self.def.edge_attr_col(name)?;
                let ty = self.edge_schema.column(c).data_type;
                return Some((ElemAttr::Slot(SlotAttr::Edge(EdgeAttr::Col(c))), ty));
            }
        };
        Some((attr, DataType::Integer))
    }

    /// [`GraphMeta::attr_of`] on the vertexes.
    fn vertex_attr_of(&self, name: &str) -> Option<(VertexAttr, DataType)> {
        let attr = match lowercase(name, &mut [0; KEYWORD_MAX]) {
            gv::ID => VertexAttr::Id,
            gv::FANIN => VertexAttr::FanIn,
            gv::FANOUT => VertexAttr::FanOut,
            _ => {
                let c = self.def.vertex_attr_col(name)?;
                return Some((VertexAttr::Col(c), self.vertex_schema.column(c).data_type));
            }
        };
        Some((attr, DataType::Integer))
    }

    /// [`GraphMeta::attr_of`] for the reference segment `part`.
    fn attr_at(&self, target: PathTarget, part: &RefPart) -> Result<(ElemAttr, DataType)> {
        self.attr_of(target, &part.name)
            .ok_or_else(|| self.no_attr(target, part))
    }

    fn no_attr(&self, target: PathTarget, part: &RefPart) -> Error {
        Error::analysis(format!(
            "graph view `{}` has no {} attribute `{}`{}",
            self.def.name,
            match target {
                PathTarget::Edges => "edge",
                PathTarget::Vertexes => "vertex",
            },
            part.name,
            at(part)
        ))
    }
}

/// Longest keyword [`lowercase`] matches: `startvertexid`.
const KEYWORD_MAX: usize = 16;

/// `name` in ASCII lowercase, written into `buf`, so matching a name
/// against lowercase keywords allocates nothing. A name longer than any
/// keyword comes back empty, which matches none.
pub(crate) fn lowercase<'b>(name: &str, buf: &'b mut [u8; KEYWORD_MAX]) -> &'b str {
    let Some(out) = buf.get_mut(..name.len()) else {
        return "";
    };
    out.copy_from_slice(name.as_bytes());
    out.make_ascii_lowercase();
    std::str::from_utf8(out).unwrap_or_default()
}

/// The name-resolution context for one query: FROM bindings plus graph
/// metadata, and after aggregation the `Grouping` that reads its output.
#[derive(Debug, Clone)]
pub struct Namespace<'a> {
    pub bindings: Vec<Binding<'a>>,
    pub graphs: Arc<HashMap<String, GraphMeta>>,
    pub(crate) grouping: Option<Grouping<'a>>,
}

/// The post-aggregation substitution: the GROUP BY expressions, then the
/// aggregate calls, each read from its column of the aggregate's output
/// (`schema`). An expression after aggregation is built from these; any
/// other reference to the input row is an error.
#[derive(Debug, Clone)]
pub(crate) struct Grouping<'a> {
    pub(crate) keys: Vec<&'a Expr>,
    pub(crate) schema: Arc<Schema>,
}

impl<'a> Namespace<'a> {
    pub fn new(graphs: Arc<HashMap<String, GraphMeta>>) -> Self {
        Namespace {
            bindings: Vec::new(),
            graphs,
            grouping: None,
        }
    }

    /// No bindings and no graphs: constant expressions only.
    pub(crate) fn empty() -> Self {
        Namespace::new(Arc::new(HashMap::new()))
    }

    /// One table's columns, as a DML statement sees them.
    pub(crate) fn table(table: &'a str, schema: Arc<Schema>) -> Result<Self> {
        let mut ns = Namespace::empty();
        ns.push(table, BindingKind::Table(table), schema)?;
        Ok(ns)
    }

    /// Total width of the combined row.
    pub fn width(&self) -> usize {
        self.bindings
            .last()
            .map_or(0, |b| b.offset + b.schema.len())
    }

    /// Append a binding; returns an analysis error on duplicate names.
    pub fn push(
        &mut self,
        name: &'a str,
        kind: BindingKind<'a>,
        schema: Arc<Schema>,
    ) -> Result<()> {
        if self.binding(name).is_some() {
            return Err(Error::analysis(format!(
                "duplicate FROM binding `{}`",
                name.to_ascii_lowercase()
            )));
        }
        let offset = self.width();
        self.bindings.push(Binding {
            name,
            kind,
            schema,
            offset,
        });
        Ok(())
    }

    pub fn binding(&self, name: &str) -> Option<&Binding<'a>> {
        self.bindings
            .iter()
            .find(|b| b.name.eq_ignore_ascii_case(name))
    }

    /// Combined schema of all bindings in order.
    pub fn combined_schema(&self) -> Schema {
        let mut s = Schema::default();
        for b in &self.bindings {
            for c in b.schema.columns() {
                s.push(c.clone());
            }
        }
        s
    }

    /// Resolve an unqualified column across all bindings (must be unique).
    fn resolve_unqualified(&self, part: &RefPart) -> Result<(usize, DataType)> {
        let mut found = None;
        for b in &self.bindings {
            if let Some(i) = b.schema.index_of(&part.name) {
                if found.is_some() {
                    return Err(Error::analysis(format!(
                        "ambiguous column `{}`{}",
                        part.name,
                        at(part)
                    )));
                }
                found = Some((b.offset + i, b.schema.column(i).data_type));
            }
        }
        found.ok_or_else(|| Error::analysis(format!("unknown column `{}`{}", part.name, at(part))))
    }

    fn graph_meta(&self, graph: &str) -> Result<&GraphMeta> {
        self.graphs
            .get(graph)
            .ok_or_else(|| Error::analysis(format!("unknown graph view `{graph}`")))
    }

    /// `pe`, compiled from `expr`, reads the input row. After aggregation
    /// that row is gone: only a GROUP BY expression may be read, as a whole.
    fn reads_row(&self, pe: PhysExpr, expr: &Expr) -> Result<PhysExpr> {
        if self.grouping.is_none() {
            return Ok(pe);
        }
        let what = match expr {
            Expr::CompoundRef(_) => format!("column `{}`", ref_text(expr)),
            _ => format!("`{}`", ref_text(expr)),
        };
        Err(Error::analysis(format!(
            "{what} must appear in GROUP BY or be an aggregate{}",
            expr.span_suffix()
        )))
    }
}

// ---------------------------------------------------------------------------
// Physical expressions
// ---------------------------------------------------------------------------

/// Comparison operators at the physical level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    pub fn from_binary(op: BinaryOp) -> Option<CmpOp> {
        Some(match op {
            BinaryOp::Eq => CmpOp::Eq,
            BinaryOp::NotEq => CmpOp::NotEq,
            BinaryOp::Lt => CmpOp::Lt,
            BinaryOp::LtEq => CmpOp::LtEq,
            BinaryOp::Gt => CmpOp::Gt,
            BinaryOp::GtEq => CmpOp::GtEq,
            _ => return None,
        })
    }

    /// The operator with its operands swapped: `a < b` is `b > a`.
    pub(crate) fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::LtEq => CmpOp::GtEq,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::GtEq => CmpOp::LtEq,
            other => other,
        }
    }

    /// Apply to an ordering result under three-valued logic: `None`
    /// (UNKNOWN) when the operands were incomparable.
    pub fn test(self, ord: Option<Ordering>) -> Option<bool> {
        ord.map(|o| match self {
            CmpOp::Eq => o == Ordering::Equal,
            CmpOp::NotEq => o != Ordering::Equal,
            CmpOp::Lt => o == Ordering::Less,
            CmpOp::LtEq => o != Ordering::Greater,
            CmpOp::Gt => o == Ordering::Greater,
            CmpOp::GtEq => o != Ordering::Less,
        })
    }
}

/// An edge attribute, resolved by [`GraphMeta::attr_of`]: what the edge
/// alone determines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeAttr {
    Id,
    /// An exposed attribute: this column of the edges source.
    Col(usize),
}

/// A vertex attribute, resolved by [`GraphMeta::attr_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexAttr {
    Id,
    FanIn,
    FanOut,
    /// An exposed attribute: this column of the vertexes source.
    Col(usize),
}

/// An attribute the element's slot alone determines: what a traversal
/// filter can test on each hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotAttr {
    Edge(EdgeAttr),
    Vertex(VertexAttr),
}

/// The attribute a reference reads on an element of a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemAttr {
    Slot(SlotAttr),
    /// An edge's `StartVertex` / `EndVertex`: which end is which depends
    /// on the direction a path takes the edge in, so it is read from the
    /// path (positions `i` and `i + 1`), not from the edge.
    HopStart,
    HopEnd,
}

impl ElemAttr {
    /// The element list the attribute is read on.
    pub(crate) fn target(self) -> PathTarget {
        match self {
            ElemAttr::Slot(SlotAttr::Vertex(_)) => PathTarget::Vertexes,
            _ => PathTarget::Edges,
        }
    }
}

/// A resolved path property (evaluated against a Path-typed column).
#[derive(Debug, Clone, PartialEq)]
pub enum PathProp {
    /// The whole path value.
    Whole,
    /// `PS.Length` — number of edges.
    Length,
    /// `PS.PathString`.
    PathString,
    /// `PS.Cost` — accumulated SPScan cost.
    Cost,
    /// `PS.StartVertex` / `PS.StartVertex.Id`.
    StartVertexId,
    /// `PS.EndVertex` / `PS.EndVertex.Id`.
    EndVertexId,
    /// `PS.StartVertex.attr`.
    StartVertexAttr(VertexAttr),
    /// `PS.EndVertex.attr`.
    EndVertexAttr(VertexAttr),
    /// `PS.Edges[i].attr` / `PS.Vertexes[i].attr`.
    ElementAt(u64, ElemAttr),
    /// `PS.Edges[i]` — the edge id.
    EdgeIdAt(u64),
    /// `PS.Vertexes[i]` — the vertex id.
    VertexIdAt(u64),
}

impl PathProp {
    /// The shortest path on which this property is not NULL: one that has
    /// the element it reads.
    pub(crate) fn min_length(&self) -> usize {
        match self {
            PathProp::ElementAt(i, attr) => length_with(attr.target(), *i),
            PathProp::EdgeIdAt(i) => length_with(PathTarget::Edges, *i),
            PathProp::VertexIdAt(i) => length_with(PathTarget::Vertexes, *i),
            _ => 0,
        }
    }

    /// The position (0 = start, `len` = end) of the vertex whose id this
    /// property is, on a path of `len` edges: `StartVertex[.Id]`,
    /// `StartVertexId`, their `End` twins, `Vertexes[i][.Id]`, and
    /// `Edges[i].StartVertex` / `Edges[i].EndVertex` (positions `i` and
    /// `i + 1` in traversal direction; `Edges[i]` is NULL past the last edge).
    pub(crate) fn position_of_vertex(&self, len: usize) -> Option<usize> {
        let at = |i: u64| usize::try_from(i).ok();
        let hop = |i: u64| at(i).filter(|i| *i < len);
        match self {
            PathProp::StartVertexId => Some(0),
            PathProp::EndVertexId => Some(len),
            PathProp::VertexIdAt(i)
            | PathProp::ElementAt(i, ElemAttr::Slot(SlotAttr::Vertex(VertexAttr::Id))) => at(*i),
            PathProp::ElementAt(i, ElemAttr::HopStart) => hop(*i),
            PathProp::ElementAt(i, ElemAttr::HopEnd) => hop(*i).map(|i| i + 1),
            _ => None,
        }
    }
}

/// The path length at which position `pos` of `target` exists: edge `i`
/// needs `i + 1` edges, vertex `i` needs `i`.
pub(crate) fn length_with(target: PathTarget, pos: u64) -> usize {
    let pos = usize::try_from(pos).unwrap_or(usize::MAX);
    match target {
        PathTarget::Edges => pos.saturating_add(1),
        PathTarget::Vertexes => pos,
    }
}

/// Range target for quantified predicates and path aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathTarget {
    Edges,
    Vertexes,
}

/// Test applied to every element of a quantified range.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantTest {
    Cmp { op: CmpOp, rhs: Box<PhysExpr> },
    In { list: Vec<PhysExpr>, negated: bool },
}

impl QuantTest {
    /// The expressions the test compares an element with.
    pub(crate) fn operands(&self) -> &[PhysExpr] {
        match self {
            QuantTest::Cmp { rhs, .. } => std::slice::from_ref(rhs.as_ref()),
            QuantTest::In { list, .. } => list,
        }
    }

    /// [`QuantTest::operands`] evaluated against one row, for
    /// [`QuantTest::holds`].
    pub(crate) fn bind(&self, row: &[Value], env: &QueryEnv<'_>) -> Result<Vec<Value>> {
        self.operands().iter().map(|e| e.eval(row, env)).collect()
    }

    /// Whether element value `v` passes, against the values [`QuantTest::bind`]
    /// returned. Only TRUE passes.
    pub(crate) fn holds(&self, v: &Value, bound: &[Value]) -> bool {
        match self {
            QuantTest::Cmp { op, .. } => bound
                .first()
                .is_some_and(|rhs| op.test(v.sql_cmp(rhs)) == Some(true)),
            QuantTest::In { negated, .. } => {
                let any = bound.iter().any(|rv| v.sql_eq(rv) == Some(true));
                any != *negated
            }
        }
    }
}

/// Aggregate functions (group aggregates and path aggregates share these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        Some(match lowercase(name, &mut [0; KEYWORD_MAX]) {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// A compiled physical expression over the pipeline's combined rows.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    Literal(Value),
    /// Positional parameter of a prepared statement, bound at execution
    /// time from `QueryEnv::params`.
    Param { index: usize },
    /// Absolute column index in the combined row.
    Column { index: usize, ty: DataType },
    /// Path property of the Path value at `col`.
    PathProp {
        col: usize,
        prop: PathProp,
        ty: DataType,
    },
    /// Scalar path aggregate, e.g. `SUM(PS.Edges.Weight)`.
    PathAgg {
        col: usize,
        attr: ElemAttr,
        func: AggFunc,
        ty: DataType,
    },
    Not(Box<PhysExpr>),
    Neg(Box<PhysExpr>),
    And(Box<PhysExpr>, Box<PhysExpr>),
    Or(Box<PhysExpr>, Box<PhysExpr>),
    Cmp {
        op: CmpOp,
        left: Box<PhysExpr>,
        right: Box<PhysExpr>,
    },
    Arith {
        op: ArithOp,
        left: Box<PhysExpr>,
        right: Box<PhysExpr>,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    Between {
        expr: Box<PhysExpr>,
        low: Box<PhysExpr>,
        high: Box<PhysExpr>,
        negated: bool,
    },
    /// Universally quantified range predicate:
    /// `PS.<target>[start..end].attr <test>` holds for *every* position.
    Quant {
        col: usize,
        start: u64,
        end: IndexEnd,
        attr: ElemAttr,
        test: QuantTest,
    },
}

impl PhysExpr {
    /// The static type: `None` where only the runtime knows (parameters,
    /// NULL literals, and arithmetic over them).
    pub fn ty(&self) -> Ty {
        match self {
            PhysExpr::Literal(v) => value_type(v),
            PhysExpr::Param { .. } => None,
            PhysExpr::Column { ty, .. }
            | PhysExpr::PathProp { ty, .. }
            | PhysExpr::PathAgg { ty, .. } => Some(*ty),
            PhysExpr::Not(_)
            | PhysExpr::And(..)
            | PhysExpr::Or(..)
            | PhysExpr::Cmp { .. }
            | PhysExpr::InList { .. }
            | PhysExpr::Between { .. }
            | PhysExpr::Quant { .. } => Some(DataType::Boolean),
            PhysExpr::Neg(inner) => inner.ty(),
            PhysExpr::Arith { left, right, .. } => match (left.ty(), right.ty()) {
                (Some(DataType::Integer), Some(DataType::Integer)) => Some(DataType::Integer),
                (None, _) | (_, None) => None,
                _ => Some(DataType::Double),
            },
        }
    }

    /// The type an output schema declares: [`PhysExpr::ty`], or where that
    /// is unknown a placeholder — DOUBLE for arithmetic, VARCHAR otherwise
    /// (projecting a bare `?` is legal but rare).
    pub fn static_type(&self) -> DataType {
        self.ty().unwrap_or_else(|| match self {
            PhysExpr::Arith { .. } => DataType::Double,
            PhysExpr::Neg(inner) => inner.static_type(),
            _ => DataType::Varchar,
        })
    }

    /// The operands of the top-level `AND` chain, left to right (the
    /// expression itself when it is not an `AND`).
    pub(crate) fn conjuncts(&self) -> Vec<&PhysExpr> {
        fn flatten<'p>(e: &'p PhysExpr, out: &mut Vec<&'p PhysExpr>) {
            match e {
                PhysExpr::And(l, r) => {
                    flatten(l, out);
                    flatten(r, out);
                }
                e => out.push(e),
            }
        }
        let mut out = Vec::new();
        flatten(self, &mut out);
        out
    }

    /// Whether the expression references any column (false ⇒ constant).
    pub fn is_constant(&self) -> bool {
        self.column_span().is_none()
    }

    /// The lowest and the highest column of the combined row the
    /// expression reads, or `None` when it reads none.
    pub(crate) fn column_span(&self) -> Option<(usize, usize)> {
        let mut span = self.column().map(|c| (c, c));
        self.for_each_operand(&mut |e| {
            if let Some((lo, hi)) = e.column_span() {
                span = Some(span.map_or((lo, hi), |(a, b)| (a.min(lo), b.max(hi))));
            }
        });
        span
    }

    /// Whether the expression reads column `c` of the combined row.
    pub(crate) fn reads_column(&self, c: usize) -> bool {
        let mut reads = self.column() == Some(c);
        self.for_each_operand(&mut |e| reads |= e.reads_column(c));
        reads
    }

    /// The expression over a row that is the slice of the combined row
    /// starting at column `offset`. Every column it reads lies at or past
    /// `offset`.
    pub(crate) fn rebased(mut self, offset: usize) -> PhysExpr {
        self.shift_down(offset);
        self
    }

    fn shift_down(&mut self, offset: usize) {
        if let PhysExpr::Column { index: c, .. }
        | PhysExpr::PathProp { col: c, .. }
        | PhysExpr::PathAgg { col: c, .. }
        | PhysExpr::Quant { col: c, .. } = self
        {
            *c -= offset;
        }
        self.for_each_operand_mut(&mut |e| e.shift_down(offset));
    }

    /// The column a leaf reads: a column, or the path a path accessor reads.
    fn column(&self) -> Option<usize> {
        match self {
            PhysExpr::Column { index: c, .. }
            | PhysExpr::PathProp { col: c, .. }
            | PhysExpr::PathAgg { col: c, .. }
            | PhysExpr::Quant { col: c, .. } => Some(*c),
            _ => None,
        }
    }

    /// Call `f` on every direct operand, a quantified test's included.
    fn for_each_operand(&self, f: &mut dyn FnMut(&PhysExpr)) {
        match self {
            PhysExpr::Literal(_)
            | PhysExpr::Param { .. }
            | PhysExpr::Column { .. }
            | PhysExpr::PathProp { .. }
            | PhysExpr::PathAgg { .. } => {}
            PhysExpr::Not(e) | PhysExpr::Neg(e) => f(e),
            PhysExpr::And(a, b)
            | PhysExpr::Or(a, b)
            | PhysExpr::Cmp {
                left: a, right: b, ..
            }
            | PhysExpr::Arith {
                left: a, right: b, ..
            } => {
                f(a);
                f(b);
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            PhysExpr::Quant { test, .. } => test.operands().iter().for_each(f),
        }
    }

    fn for_each_operand_mut(&mut self, f: &mut dyn FnMut(&mut PhysExpr)) {
        match self {
            PhysExpr::Literal(_)
            | PhysExpr::Param { .. }
            | PhysExpr::Column { .. }
            | PhysExpr::PathProp { .. }
            | PhysExpr::PathAgg { .. } => {}
            PhysExpr::Not(e) | PhysExpr::Neg(e) => f(e),
            PhysExpr::And(a, b)
            | PhysExpr::Or(a, b)
            | PhysExpr::Cmp {
                left: a, right: b, ..
            }
            | PhysExpr::Arith {
                left: a, right: b, ..
            } => {
                f(a);
                f(b);
            }
            PhysExpr::InList { expr, list, .. } => {
                f(expr);
                list.iter_mut().for_each(f);
            }
            PhysExpr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            PhysExpr::Quant { test, .. } => match test {
                QuantTest::Cmp { rhs, .. } => f(rhs),
                QuantTest::In { list, .. } => list.iter_mut().for_each(f),
            },
        }
    }

    /// The value a bare operand (literal, bound parameter, column) denotes,
    /// read in place.
    #[inline]
    fn operand<'a>(&'a self, row: &'a [Value], env: &'a QueryEnv<'_>) -> Option<&'a Value> {
        match self {
            PhysExpr::Literal(v) => Some(v),
            PhysExpr::Param { index } => env.params.get(*index),
            PhysExpr::Column { index, .. } => Some(&row[*index]),
            _ => None,
        }
    }

    /// [`PhysExpr::eval`] for a caller that only reads the value: a bare
    /// operand is borrowed in place, anything else is evaluated into `slot`
    /// — what comparisons, group keys, aggregate arguments and index probes
    /// read. On the borrowed path nothing is built and nothing is dropped.
    #[inline]
    pub(crate) fn eval_ref<'a>(
        &'a self,
        row: &'a [Value],
        env: &'a QueryEnv<'_>,
        slot: &'a mut Option<Value>,
    ) -> Result<&'a Value> {
        match self.operand(row, env) {
            Some(v) => Ok(v),
            None => Ok(slot.insert(self.eval(row, env)?)),
        }
    }

    /// Evaluate against a combined row.
    pub fn eval(&self, row: &[Value], env: &QueryEnv<'_>) -> Result<Value> {
        match self {
            PhysExpr::Literal(v) => Ok(v.clone()),
            PhysExpr::Param { index } => {
                env.params.get(*index).cloned().ok_or_else(|| {
                    Error::execution(format!(
                        "prepared statement executed with too few parameters (needs index {index})"
                    ))
                })
            }
            PhysExpr::Column { index, .. } => Ok(row[*index].clone()),
            PhysExpr::PathProp { col, prop, .. } => {
                let path = row[*col].as_path()?;
                eval_path_prop(path, prop, env)
            }
            PhysExpr::PathAgg {
                col, attr, func, ..
            } => {
                let path = row[*col].as_path()?;
                eval_path_agg(path, *attr, *func, &env.graph_of_path(path)?)
            }
            PhysExpr::Not(_)
            | PhysExpr::And(..)
            | PhysExpr::Or(..)
            | PhysExpr::Cmp { .. }
            | PhysExpr::InList { .. }
            | PhysExpr::Between { .. } => {
                Ok(self.truth(row, env)?.map_or(Value::Null, Value::Boolean))
            }
            PhysExpr::Neg(e) => Value::Integer(0).arith(ArithOp::Sub, &e.eval(row, env)?),
            PhysExpr::Arith { op, left, right } => {
                let l = left.eval(row, env)?;
                let r = right.eval(row, env)?;
                l.arith(*op, &r)
            }
            PhysExpr::Quant {
                col,
                start,
                end,
                attr,
                test,
            } => {
                let path = row[*col].as_path()?;
                let genv = env.graph_of_path(path)?;
                eval_quant(path, *start, *end, *attr, test, row, env, &genv)
            }
        }
    }

    /// Evaluate as a filter predicate: only TRUE passes (SQL semantics).
    pub fn matches(&self, row: &[Value], env: &QueryEnv<'_>) -> Result<bool> {
        Ok(self.truth(row, env)? == Some(true))
    }

    /// The Kleene truth value of the expression: `Some(true)`/`Some(false)`,
    /// or `None` for UNKNOWN. The boolean nodes and their comparisons read
    /// bare operands in place and build no [`Value`]; every other node is
    /// evaluated, and a value that is not a BOOLEAN has no truth value — a
    /// filter rejects it rather than raising.
    pub fn truth(&self, row: &[Value], env: &QueryEnv<'_>) -> Result<Option<bool>> {
        match self {
            PhysExpr::And(a, b) => connective(a, b, false, row, env),
            PhysExpr::Or(a, b) => connective(a, b, true, row, env),
            PhysExpr::Not(e) => Ok(e.side(row, env)?.known(e, row, env)?.map(|b| !b)),
            PhysExpr::Cmp { op, left, right } => {
                let (mut l, mut r) = (None, None);
                let l = left.eval_ref(row, env, &mut l)?;
                let r = right.eval_ref(row, env, &mut r)?;
                Ok(op.test(l.sql_cmp(r)))
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let mut v = None;
                let v = expr.eval_ref(row, env, &mut v)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_unknown = false;
                for item in list {
                    let mut iv = None;
                    match v.sql_eq(item.eval_ref(row, env, &mut iv)?) {
                        Some(true) => return Ok(Some(!negated)),
                        Some(false) => {}
                        None => saw_unknown = true,
                    }
                }
                Ok((!saw_unknown).then_some(*negated))
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let (mut v, mut lo, mut hi) = (None, None, None);
                let v = expr.eval_ref(row, env, &mut v)?;
                let lo = low.eval_ref(row, env, &mut lo)?;
                let hi = high.eval_ref(row, env, &mut hi)?;
                let ge = CmpOp::GtEq.test(v.sql_cmp(lo));
                let le = CmpOp::LtEq.test(v.sql_cmp(hi));
                let both = match (ge, le) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (None, _) | (_, None) => None,
                    _ => Some(true),
                };
                Ok(both.map(|b| b != *negated))
            }
            // A leaf: one that is not a BOOLEAN has no truth value.
            _ => Ok(match self.side(row, env)? {
                Side::Truth(t) => t,
                Side::NotBoolean => None,
            }),
        }
    }

    /// This expression as an operand of AND, OR or NOT: a boolean node's
    /// truth value, or a leaf's. A leaf that is not a BOOLEAN is marked, not
    /// raised: it raises only if no sibling decides the result first.
    fn side(&self, row: &[Value], env: &QueryEnv<'_>) -> Result<Side> {
        if matches!(
            self,
            PhysExpr::And(..)
                | PhysExpr::Or(..)
                | PhysExpr::Not(_)
                | PhysExpr::Cmp { .. }
                | PhysExpr::InList { .. }
                | PhysExpr::Between { .. }
        ) {
            return self.truth(row, env).map(Side::Truth);
        }
        let mut v = None;
        Ok(match self.eval_ref(row, env, &mut v)? {
            Value::Null => Side::Truth(None),
            Value::Boolean(b) => Side::Truth(Some(*b)),
            _ => Side::NotBoolean,
        })
    }

    /// Whether evaluating this expression provably cannot fail on any row:
    /// literals, columns, comparisons, BETWEEN/IN over those, and boolean
    /// combinators whose operands are statically boolean. Arithmetic
    /// (overflow, division by zero), parameters (arity errors) and every
    /// path accessor (graph lookups) can fail. UPDATE/DELETE may only skip
    /// rows through an index when the predicate is infallible — otherwise
    /// the statement must surface the error of the first row in scan order
    /// that raises one.
    pub(crate) fn infallible(&self) -> bool {
        match self {
            PhysExpr::Literal(_) | PhysExpr::Column { .. } => true,
            PhysExpr::Not(e) => e.infallible() && e.ty() == Some(DataType::Boolean),
            PhysExpr::And(a, b) | PhysExpr::Or(a, b) => {
                a.infallible()
                    && b.infallible()
                    && a.ty() == Some(DataType::Boolean)
                    && b.ty() == Some(DataType::Boolean)
            }
            PhysExpr::Cmp { left, right, .. } => left.infallible() && right.infallible(),
            PhysExpr::Between {
                expr, low, high, ..
            } => expr.infallible() && low.infallible() && high.infallible(),
            PhysExpr::InList { expr, list, .. } => {
                expr.infallible() && list.iter().all(|e| e.infallible())
            }
            _ => false,
        }
    }
}

/// An operand of AND, OR or NOT (see [`PhysExpr::side`]).
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Truth(Option<bool>),
    NotBoolean,
}

impl Side {
    /// The truth value of operand `e`. A non-BOOLEAN raises the error of
    /// reading it as one; `e` is evaluated again for the message, which an
    /// operand that evaluated once reproduces.
    fn known(self, e: &PhysExpr, row: &[Value], env: &QueryEnv<'_>) -> Result<Option<bool>> {
        match self {
            Side::Truth(t) => Ok(t),
            Side::NotBoolean => e.eval(row, env)?.as_boolean().map(Some),
        }
    }
}

/// Kleene AND (`decides` = false) or OR (`decides` = true): an operand
/// equal to `decides` settles the result — the right one is not evaluated
/// when the left settles it — then an UNKNOWN makes it UNKNOWN, and only
/// then does a non-BOOLEAN operand raise, the left one first.
fn connective(
    a: &PhysExpr,
    b: &PhysExpr,
    decides: bool,
    row: &[Value],
    env: &QueryEnv<'_>,
) -> Result<Option<bool>> {
    let settled = Side::Truth(Some(decides));
    let l = a.side(row, env)?;
    if l == settled {
        return Ok(Some(decides));
    }
    let r = b.side(row, env)?;
    if r == settled {
        return Ok(Some(decides));
    }
    if l == Side::Truth(None) || r == Side::Truth(None) {
        return Ok(None);
    }
    l.known(a, row, env)?;
    r.known(b, row, env)?;
    Ok(Some(!decides))
}

fn eval_path_prop(path: &Arc<PathData>, prop: &PathProp, env: &QueryEnv<'_>) -> Result<Value> {
    Ok(match prop {
        // The row's own path: a refcount, not a copy.
        PathProp::Whole => Value::Path(path.clone()),
        PathProp::Length => Value::Integer(crate::env::degree_i64(path.length())),
        PathProp::PathString => Value::text(path.path_string()),
        PathProp::Cost => Value::Double(path.cost),
        PathProp::StartVertexId => Value::Integer(path.start_vertex()),
        PathProp::EndVertexId => Value::Integer(path.end_vertex()),
        PathProp::StartVertexAttr(attr) | PathProp::EndVertexAttr(attr) => {
            let end = matches!(prop, PathProp::EndVertexAttr(_));
            let pos = if end { path.length() } else { 0 };
            let attr = ElemAttr::Slot(SlotAttr::Vertex(*attr));
            env.graph_of_path(path)?.element(path, pos, attr)?
        }
        PathProp::ElementAt(i, attr) => match usize::try_from(*i) {
            Ok(i) => env.graph_of_path(path)?.element(path, i, *attr)?,
            Err(_) => Value::Null,
        },
        PathProp::EdgeIdAt(i) => id_at(path.edges(), *i),
        PathProp::VertexIdAt(i) => id_at(path.vertexes(), *i),
    })
}

/// The id at position `i` of a path's edge or vertex list; NULL past its end.
fn id_at(ids: &[i64], i: u64) -> Value {
    usize::try_from(i)
        .ok()
        .and_then(|i| ids.get(i))
        .map_or(Value::Null, |&id| Value::Integer(id))
}

/// AVG of an exact integer sum. For sums within f64's exact-integer window
/// (|isum| ≤ 2^53) this is the plain cast-then-divide — one correctly
/// rounded operation, identical to the engine's historical results. Beyond
/// 2^53 the cast itself is lossy (up to 2^10 ulps near 2^63), so the
/// division is done in i128 first and only the sub-divisor remainder goes
/// through floating point: `q + r/count` where `q = isum / count` is exact.
pub(crate) fn integer_avg(isum: i128, count: i128) -> f64 {
    const EXACT: i128 = 1 << 53;
    if isum.abs() <= EXACT {
        isum as f64 / count as f64
    } else {
        let q = isum / count;
        let r = isum % count;
        q as f64 + r as f64 / count as f64
    }
}

/// The number of elements of `target` on `path`.
fn element_count(path: &PathData, target: PathTarget) -> usize {
    match target {
        PathTarget::Edges => path.edges().len(),
        PathTarget::Vertexes => path.vertexes().len(),
    }
}

/// Evaluate a scalar path aggregate (`SUM(PS.Edges.W)` etc., §4).
pub fn eval_path_agg(
    path: &PathData,
    attr: ElemAttr,
    func: AggFunc,
    genv: &GraphEnv<'_>,
) -> Result<Value> {
    let count = element_count(path, attr.target());
    if func == AggFunc::Count {
        return Ok(Value::Integer(crate::env::degree_i64(count)));
    }
    let mut sum = 0.0f64;
    // Exact integer accumulator: `f64` loses precision past 2^53, so an
    // all-integer aggregate is carried in `i128` (which cannot overflow
    // from summing `i64`s) and checked back into `i64` at the end.
    let mut isum = 0i128;
    let mut n = 0usize;
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    let mut all_int = true;
    for pos in 0..count {
        let v = genv.element(path, pos, attr)?;
        if v.is_null() {
            continue;
        }
        match func {
            AggFunc::Sum | AggFunc::Avg => {
                if let Value::Integer(i) = &v {
                    isum += *i as i128;
                } else {
                    all_int = false;
                }
                sum += v.as_double()?;
                n += 1;
            }
            AggFunc::Min => {
                if min.as_ref().is_none_or(|m| {
                    v.sql_cmp(m) == Some(Ordering::Less)
                }) {
                    min = Some(v);
                }
            }
            AggFunc::Max => {
                if max.as_ref().is_none_or(|m| {
                    v.sql_cmp(m) == Some(Ordering::Greater)
                }) {
                    max = Some(v);
                }
            }
            // Answered from `count` before the loop.
            AggFunc::Count => {}
        }
    }
    Ok(match func {
        AggFunc::Sum => {
            if n == 0 {
                Value::Null
            } else if all_int {
                Value::Integer(
                    i64::try_from(isum).map_err(|_| Error::execution("integer overflow"))?,
                )
            } else {
                Value::Double(sum)
            }
        }
        AggFunc::Avg => {
            if n == 0 {
                Value::Null
            } else if all_int {
                Value::Double(integer_avg(isum, n as i128))
            } else {
                Value::Double(sum / n as f64)
            }
        }
        AggFunc::Min => min.unwrap_or(Value::Null),
        AggFunc::Max => max.unwrap_or(Value::Null),
        AggFunc::Count => Value::Integer(crate::env::degree_i64(count)),
    })
}

#[allow(clippy::too_many_arguments)]
fn eval_quant(
    path: &PathData,
    start: u64,
    end: IndexEnd,
    attr: ElemAttr,
    test: &QuantTest,
    row: &[Value],
    env: &QueryEnv<'_>,
    genv: &GraphEnv<'_>,
) -> Result<Value> {
    let len = element_count(path, attr.target());
    // A position past `usize` is past the end of every list.
    let pos = |i: u64| usize::try_from(i).unwrap_or(usize::MAX);
    let start = pos(start);
    // Determine the positions the predicate quantifies over. `[i]` and
    // `[i..j]` require the positions to exist; `[i..*]` is vacuous when the
    // path is shorter (length inference normally guarantees existence).
    let (lo, hi) = match end {
        IndexEnd::At => {
            if start >= len {
                return Ok(Value::Boolean(false));
            }
            (start, start)
        }
        IndexEnd::Bounded(e) => {
            let e = pos(e);
            if e >= len || start > e {
                return Ok(Value::Boolean(false));
            }
            (start, e)
        }
        IndexEnd::Star => {
            if start >= len {
                // `[0..*]` over an empty element list is vacuously true;
                // `[k..*]` with k ≥ 1 requires position k to exist (the
                // paper's §6.1 reading: `Edges[5..*]` implies length ≥ 6).
                return Ok(Value::Boolean(start == 0));
            }
            (start, len - 1)
        }
    };
    // Evaluate the right-hand side(s) once per row.
    let bound = test.bind(row, env)?;
    for pos in lo..=hi {
        if !test.holds(&genv.element(path, pos, attr)?, &bound) {
            return Ok(Value::Boolean(false));
        }
    }
    Ok(Value::Boolean(true))
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// The static type domain: `None` is "unknown" (parameters and NULL
/// literals), which unifies with every concrete type — exactly the values
/// the runtime coerces dynamically.
pub type Ty = Option<DataType>;

pub(crate) fn show(t: Ty) -> String {
    match t {
        Some(dt) => dt.to_string(),
        None => "UNKNOWN".to_string(),
    }
}

pub(crate) fn is_numeric(t: Ty) -> bool {
    matches!(t, None | Some(DataType::Integer) | Some(DataType::Double))
}

fn is_boolean(t: Ty) -> bool {
    matches!(t, None | Some(DataType::Boolean))
}

pub(crate) fn value_type(v: &Value) -> Ty {
    match v {
        Value::Null => None,
        Value::Integer(_) => Some(DataType::Integer),
        Value::Double(_) => Some(DataType::Double),
        Value::Boolean(_) => Some(DataType::Boolean),
        Value::Text(_) => Some(DataType::Varchar),
        Value::Path(_) => Some(DataType::Path),
    }
}

/// `" at line:col"` for a reference part, empty if the span is unknown.
fn at(part: &RefPart) -> String {
    if part.span.is_known() {
        format!(" at {}", part.span)
    } else {
        String::new()
    }
}

/// `"{what}, got {type} at line:col"`: an operand of the wrong type.
fn type_error(what: &str, t: Ty, operand: &Expr) -> Error {
    Error::analysis(format!("{what}, got {}{}", show(t), operand.span_suffix()))
}

/// Whether two operand types can meet in a comparison under the runtime's
/// three-valued `sql_cmp`: unknowns unify with everything, INTEGER and
/// DOUBLE cross-compare, every other pair must match exactly — and PATH
/// values have no defined ordering at all.
fn check_comparable(a: Ty, b: Ty, expr: &Expr) -> Result<()> {
    let ok = match (a, b) {
        (None, _) | (_, None) => true,
        (Some(DataType::Path), _) | (_, Some(DataType::Path)) => false,
        (Some(x), Some(y)) => x == y || (is_numeric(Some(x)) && is_numeric(Some(y))),
    };
    if !ok {
        return Err(Error::analysis(format!(
            "cannot compare {} with {}{}",
            show(a),
            show(b),
            expr.span_suffix()
        )));
    }
    Ok(())
}

/// The result type of aggregate `func` (written `name`) over an argument
/// of type `t`: SUM and AVG need a number, MIN and MAX an ordered type.
fn aggregate_type(func: AggFunc, name: &str, t: Ty, arg: &Expr) -> Result<Ty> {
    match func {
        AggFunc::Count => Ok(Some(DataType::Integer)),
        AggFunc::Sum | AggFunc::Avg => {
            if !is_numeric(t) {
                let func = if func == AggFunc::Sum { "SUM" } else { "AVG" };
                return Err(type_error(
                    &format!("{func}() requires a numeric argument"),
                    t,
                    arg,
                ));
            }
            Ok(if func == AggFunc::Avg {
                Some(DataType::Double)
            } else {
                t
            })
        }
        AggFunc::Min | AggFunc::Max => {
            if t == Some(DataType::Path) {
                return Err(Error::analysis(format!(
                    "{} cannot aggregate PATH values{}",
                    name.to_ascii_uppercase(),
                    arg.span_suffix()
                )));
            }
            Ok(t)
        }
    }
}

/// Compile an AST expression against a namespace: every reference is
/// resolved, and every operator checked against the types of the operands
/// just compiled, so an ill-typed expression is rejected here with the
/// source span of the offending operand. Group aggregates are not allowed
/// in a row expression — the planner compiles them with
/// `compile_aggregate` and reads their results through the namespace's
/// `Grouping`.
pub fn compile(expr: &Expr, ns: &Namespace) -> Result<PhysExpr> {
    if let Some(g) = &ns.grouping {
        if let Some(index) = g.keys.iter().position(|k| *k == expr) {
            let ty = g.schema.column(index).data_type;
            return Ok(PhysExpr::Column { index, ty });
        }
    }
    match expr {
        Expr::Literal(v) => Ok(PhysExpr::Literal(v.clone())),
        Expr::Parameter(i) => Ok(PhysExpr::Param { index: *i as usize }),
        Expr::CompoundRef(parts) => ns.reads_row(compile_ref(parts, ns)?, expr),
        Expr::Unary { op, expr: operand } => {
            let inner = compile(operand, ns)?;
            let t = inner.ty();
            Ok(match op {
                UnaryOp::Not if is_boolean(t) => PhysExpr::Not(Box::new(inner)),
                UnaryOp::Neg if is_numeric(t) => PhysExpr::Neg(Box::new(inner)),
                UnaryOp::Not => {
                    return Err(type_error("NOT requires a BOOLEAN operand", t, operand))
                }
                UnaryOp::Neg => {
                    return Err(type_error(
                        "unary minus requires a numeric operand",
                        t,
                        operand,
                    ))
                }
            })
        }
        Expr::Binary { left, op, right } => compile_binary(expr, left, *op, right, ns),
        Expr::InList {
            expr: probe,
            list,
            negated,
        } => {
            let needle = operand(probe, ns)?;
            let mut items = Vec::with_capacity(list.len());
            for item in list {
                let pe = compile(item, ns)?;
                check_comparable(needle.ty(), pe.ty(), item)?;
                items.push(pe);
            }
            let negated = *negated;
            match needle {
                // A range reference IN a list: every element is in it.
                Operand::Range(r) => {
                    let test = QuantTest::In {
                        list: items,
                        negated,
                    };
                    ns.reads_row(r.quant(test), probe)
                }
                Operand::Value(pe) => Ok(PhysExpr::InList {
                    expr: Box::new(pe),
                    list: items,
                    negated,
                }),
            }
        }
        Expr::Between {
            expr: probe,
            low,
            high,
            negated,
        } => {
            let pe = compile(probe, ns)?;
            let low_pe = compile(low, ns)?;
            check_comparable(pe.ty(), low_pe.ty(), low)?;
            let high_pe = compile(high, ns)?;
            check_comparable(pe.ty(), high_pe.ty(), high)?;
            Ok(PhysExpr::Between {
                expr: Box::new(pe),
                low: Box::new(low_pe),
                high: Box::new(high_pe),
                negated: *negated,
            })
        }
        Expr::InSubquery { .. } => Err(Error::analysis(
            "IN (SELECT ...) subqueries must be folded before compilation \
             (unsupported in this context, e.g. DML WHERE clauses)",
        )),
        Expr::Function { name, args, star } => {
            let (func, Some(arg)) = aggregate_call(expr, name, args, *star)? else {
                return Err(Error::analysis(format!(
                    "aggregate {name}(*) is only allowed in SELECT/HAVING clauses"
                )));
            };
            // Path aggregate: FUNC(PS.Edges.attr) / FUNC(PS.Vertexes.attr).
            if let Some(pa) = as_path_agg(arg, func, name, ns)? {
                return ns.reads_row(pa, expr);
            }
            let pe = compile(arg, ns)?;
            aggregate_type(func, name, pe.ty(), arg)?;
            Err(Error::analysis(format!(
                "aggregate {name}(...) is only allowed in SELECT/HAVING clauses{}",
                expr.span_suffix()
            )))
        }
    }
}

/// The aggregate function `call` names and its one argument (`None` for
/// `name(*)`).
fn aggregate_call<'e>(
    call: &Expr,
    name: &str,
    args: &'e [Expr],
    star: bool,
) -> Result<(AggFunc, Option<&'e Expr>)> {
    let Some(func) = AggFunc::parse(name) else {
        return Err(Error::analysis(format!(
            "unknown function `{name}`{}",
            call.span_suffix()
        )));
    };
    if star {
        return Ok((func, None));
    }
    let [arg] = args else {
        return Err(Error::analysis(format!(
            "{name}() takes exactly one argument{}",
            call.span_suffix()
        )));
    };
    Ok((func, Some(arg)))
}

/// Compile a WHERE or HAVING predicate (`clause`), which must be BOOLEAN.
pub(crate) fn compile_predicate(expr: &Expr, ns: &Namespace, clause: &str) -> Result<PhysExpr> {
    let pe = compile(expr, ns)?;
    if !is_boolean(pe.ty()) {
        let what = format!("{clause} predicate must be BOOLEAN");
        return Err(type_error(&what, pe.ty(), expr));
    }
    Ok(pe)
}

/// Compile the conjuncts of a WHERE clause one by one (the planner
/// consumes some of them): each must be BOOLEAN, as an operand of the AND
/// chain they came from or, alone, as the whole predicate.
pub(crate) fn compile_conjuncts(conjuncts: &[&Expr], ns: &Namespace) -> Result<Vec<PhysExpr>> {
    if let [only] = conjuncts {
        return Ok(vec![compile_predicate(only, ns, "WHERE")?]);
    }
    let compiled = conjuncts
        .iter()
        .map(|c| compile(c, ns))
        .collect::<Result<Vec<_>>>()?;
    for (c, pe) in conjuncts.iter().zip(&compiled) {
        if !is_boolean(pe.ty()) {
            return Err(type_error("AND requires BOOLEAN operands", pe.ty(), c));
        }
    }
    Ok(compiled)
}

/// Compile one group-aggregate call (`COUNT(*)`, `SUM(x)`, ...) over the
/// rows entering the aggregation, with the type of its output column.
pub(crate) fn compile_aggregate(call: &Expr, ns: &Namespace) -> Result<(AggSpec, DataType)> {
    let Expr::Function { name, args, star } = call else {
        return Err(Error::plan("aggregate rewrite saw a non-function call"));
    };
    let (func, arg) = aggregate_call(call, name, args, *star)?;
    let Some(arg) = arg else {
        if func != AggFunc::Count {
            return Err(Error::analysis(format!("{name}(*) is not supported")));
        }
        return Ok((AggSpec { func, arg: None }, DataType::Integer));
    };
    let pe = compile(arg, ns)?;
    let ty = aggregate_type(func, name, pe.ty(), arg)?.unwrap_or_else(|| pe.static_type());
    Ok((
        AggSpec {
            func,
            arg: Some(pe),
        },
        ty,
    ))
}

fn compile_binary(
    expr: &Expr,
    left: &Expr,
    op: BinaryOp,
    right: &Expr,
    ns: &Namespace,
) -> Result<PhysExpr> {
    if let Some(cmp) = CmpOp::from_binary(op) {
        // Quantified forms: a range reference on either side.
        let quant = |r: RangeRef, op: CmpOp, rhs: PhysExpr, side: &Expr| {
            let rhs = Box::new(rhs);
            ns.reads_row(r.quant(QuantTest::Cmp { op, rhs }), side)
        };
        let lhs = match operand(left, ns)? {
            Operand::Range(r) => {
                let rhs = compile(right, ns)?;
                check_comparable(Some(r.ty), rhs.ty(), expr)?;
                return quant(r, cmp, rhs, left);
            }
            Operand::Value(lhs) => lhs,
        };
        let rhs = operand(right, ns)?;
        check_comparable(lhs.ty(), rhs.ty(), expr)?;
        return match rhs {
            Operand::Range(r) => quant(r, cmp.mirrored(), lhs, right),
            Operand::Value(rhs) => Ok(PhysExpr::Cmp {
                op: cmp,
                left: Box::new(lhs),
                right: Box::new(rhs),
            }),
        };
    }
    let l = compile(left, ns)?;
    let r = compile(right, ns)?;
    let arith = match op {
        BinaryOp::And | BinaryOp::Or => {
            for (pe, side) in [(&l, left), (&r, right)] {
                if !is_boolean(pe.ty()) {
                    let what = if op == BinaryOp::And {
                        "AND requires BOOLEAN operands"
                    } else {
                        "OR requires BOOLEAN operands"
                    };
                    return Err(type_error(what, pe.ty(), side));
                }
            }
            let (l, r) = (Box::new(l), Box::new(r));
            return Ok(if op == BinaryOp::And {
                PhysExpr::And(l, r)
            } else {
                PhysExpr::Or(l, r)
            });
        }
        BinaryOp::Add => ArithOp::Add,
        BinaryOp::Sub => ArithOp::Sub,
        BinaryOp::Mul => ArithOp::Mul,
        BinaryOp::Div => ArithOp::Div,
        BinaryOp::Mod => ArithOp::Mod,
        _ => {
            return Err(Error::plan(
                "comparison operator reached arithmetic lowering",
            ))
        }
    };
    for (pe, side) in [(&l, left), (&r, right)] {
        if !is_numeric(pe.ty()) {
            return Err(type_error(
                "arithmetic requires numeric operands",
                pe.ty(),
                side,
            ));
        }
    }
    Ok(PhysExpr::Arith {
        op: arith,
        left: Box::new(l),
        right: Box::new(r),
    })
}

/// An operand of a comparison or an IN list: a range reference, whose
/// test is quantified over every position it covers, or a value.
enum Operand {
    Range(RangeRef),
    Value(PhysExpr),
}

impl Operand {
    fn ty(&self) -> Ty {
        match self {
            Operand::Range(r) => Some(r.ty),
            Operand::Value(pe) => pe.ty(),
        }
    }
}

fn operand(e: &Expr, ns: &Namespace) -> Result<Operand> {
    Ok(match as_range_ref(e, ns)? {
        Some(r) => Operand::Range(r),
        None => Operand::Value(compile(e, ns)?),
    })
}

/// A decomposed range reference `p.Edges[a..b].attr`: the path column,
/// the element list and positions, and the attribute with its type.
struct RangeRef {
    col: usize,
    start: u64,
    end: IndexEnd,
    attr: ElemAttr,
    ty: DataType,
}

impl RangeRef {
    fn quant(self, test: QuantTest) -> PhysExpr {
        PhysExpr::Quant {
            col: self.col,
            start: self.start,
            end: self.end,
            attr: self.attr,
            test,
        }
    }
}

/// The element list a `PS.<segment>` reference names, if any.
pub(crate) fn element_target(segment: &RefPart) -> Option<PathTarget> {
    match lowercase(&segment.name, &mut [0; KEYWORD_MAX]) {
        "edges" => Some(PathTarget::Edges),
        "vertexes" | "vertices" => Some(PathTarget::Vertexes),
        _ => None,
    }
}

/// If `expr` is a range reference `p.Edges[a..b].attr` (or `Vertexes`),
/// return its pieces. Single-index `[i]` refs are scalars, not ranges.
fn as_range_ref(expr: &Expr, ns: &Namespace) -> Result<Option<RangeRef>> {
    let Expr::CompoundRef(parts) = expr else {
        return Ok(None);
    };
    if parts.len() != 3 {
        return Ok(None);
    }
    let Some(binding) = ns.binding(&parts[0].name) else {
        return Ok(None);
    };
    let BindingKind::Paths(graph) = &binding.kind else {
        return Ok(None);
    };
    let Some(target) = element_target(&parts[1]) else {
        return Ok(None);
    };
    let Some(range) = parts[1].index else {
        return Ok(None);
    };
    if range.end == IndexEnd::At {
        return Ok(None); // scalar indexed ref
    }
    if parts[2].index.is_some() {
        return Err(Error::analysis(format!(
            "invalid path element reference on `{}`{}",
            parts[0].name,
            at(&parts[1])
        )));
    }
    let (attr, ty) = ns.graph_meta(graph)?.attr_at(target, &parts[2])?;
    Ok(Some(RangeRef {
        col: binding.offset,
        start: range.start,
        end: range.end,
        attr,
        ty,
    }))
}

/// If `arg` is `p.Edges.attr` / `p.Vertexes.attr` (no index), compile the
/// scalar path aggregate `name(arg)`.
fn as_path_agg(arg: &Expr, func: AggFunc, name: &str, ns: &Namespace) -> Result<Option<PhysExpr>> {
    let Expr::CompoundRef(parts) = arg else {
        return Ok(None);
    };
    // COUNT(p) over a path binding is handled by the planner as a group
    // aggregate; here we only handle the 3-part attribute form.
    if parts.len() != 3 || parts.iter().any(|p| p.index.is_some()) {
        return Ok(None);
    }
    let Some(binding) = ns.binding(&parts[0].name) else {
        return Ok(None);
    };
    let BindingKind::Paths(graph) = &binding.kind else {
        return Ok(None);
    };
    let Some(target) = element_target(&parts[1]) else {
        return Ok(None);
    };
    let (attr, attr_ty) = ns.graph_meta(graph)?.attr_at(target, &parts[2])?;
    let ty = aggregate_type(func, name, Some(attr_ty), arg)?.unwrap_or(attr_ty);
    Ok(Some(PhysExpr::PathAgg {
        col: binding.offset,
        attr,
        func,
        ty,
    }))
}

fn compile_ref(parts: &[RefPart], ns: &Namespace) -> Result<PhysExpr> {
    let head = &parts[0];
    if head.index.is_some() {
        return Err(Error::analysis(format!(
            "cannot index binding `{}` directly{}",
            head.name,
            at(head)
        )));
    }
    // Single part: a binding reference (paths → whole path) or an
    // unqualified column.
    if parts.len() == 1 {
        if let Some(b) = ns.binding(&head.name) {
            return match &b.kind {
                BindingKind::Paths(_) => Ok(PhysExpr::PathProp {
                    col: b.offset,
                    prop: PathProp::Whole,
                    ty: DataType::Path,
                }),
                _ => Err(Error::analysis(format!(
                    "binding `{}` cannot be used as a value; select its columns{}",
                    head.name,
                    at(head)
                ))),
            };
        }
        let (index, ty) = ns.resolve_unqualified(head)?;
        return Ok(PhysExpr::Column { index, ty });
    }

    // Multi-part: the head must be a binding.
    let Some(binding) = ns.binding(&head.name) else {
        return Err(Error::analysis(format!(
            "unknown binding `{}` in reference{}",
            head.name,
            at(head)
        )));
    };
    match &binding.kind {
        BindingKind::Table(_) | BindingKind::Vertexes(_) | BindingKind::Edges(_) => {
            if parts.len() != 2 || parts[1].index.is_some() {
                return Err(Error::analysis(format!(
                    "invalid column reference on binding `{}`{}",
                    head.name,
                    at(head)
                )));
            }
            let col = &parts[1];
            let Some(i) = binding.schema.index_of(&col.name) else {
                return Err(Error::analysis(format!(
                    "unknown column `{}` on binding `{}`{}",
                    col.name,
                    head.name,
                    at(col)
                )));
            };
            Ok(PhysExpr::Column {
                index: binding.offset + i,
                ty: binding.schema.column(i).data_type,
            })
        }
        BindingKind::Paths(graph) => compile_path_ref(binding.offset, graph, parts, ns),
    }
}

/// Resolve a `PS.<property>` reference on the path column `col` through
/// graph view `graph`.
fn compile_path_ref(
    col: usize,
    graph: &str,
    parts: &[RefPart],
    ns: &Namespace,
) -> Result<PhysExpr> {
    let meta = ns.graph_meta(graph)?;
    let seg = &parts[1];
    let mut buf = [0; KEYWORD_MAX];
    let seg_name = lowercase(&seg.name, &mut buf);
    let mk = |prop: PathProp, ty: DataType| PhysExpr::PathProp { col, prop, ty };

    match seg_name {
        "length" => Ok(mk(PathProp::Length, DataType::Integer)),
        "pathstring" => Ok(mk(PathProp::PathString, DataType::Varchar)),
        "cost" | "totalcost" => Ok(mk(PathProp::Cost, DataType::Double)),
        "startvertexid" => Ok(mk(PathProp::StartVertexId, DataType::Integer)),
        "endvertexid" => Ok(mk(PathProp::EndVertexId, DataType::Integer)),
        "startvertex" | "endvertex" => {
            let is_start = seg_name == "startvertex";
            let id = if is_start {
                PathProp::StartVertexId
            } else {
                PathProp::EndVertexId
            };
            if parts.len() == 2 {
                // bare `PS.EndVertex` — the vertex id
                return Ok(mk(id, DataType::Integer));
            }
            if parts.len() != 3 || parts[2].index.is_some() {
                return Err(Error::analysis(format!(
                    "expected `.attribute` after StartVertex/EndVertex{}",
                    at(seg)
                )));
            }
            let (attr, ty) = meta
                .vertex_attr_of(&parts[2].name)
                .ok_or_else(|| meta.no_attr(PathTarget::Vertexes, &parts[2]))?;
            Ok(match attr {
                VertexAttr::Id => mk(id, DataType::Integer),
                attr if is_start => mk(PathProp::StartVertexAttr(attr), ty),
                attr => mk(PathProp::EndVertexAttr(attr), ty),
            })
        }
        "edges" | "vertexes" | "vertices" => {
            let is_edges = seg_name == "edges";
            let target = if is_edges {
                PathTarget::Edges
            } else {
                PathTarget::Vertexes
            };
            let attr = match parts {
                [_, _] => None,
                [_, _, attr] if attr.index.is_none() => Some(meta.attr_at(target, attr)?),
                _ => {
                    return Err(Error::analysis(format!(
                        "invalid path element reference on `{}`{}",
                        parts[0].name,
                        at(seg)
                    )))
                }
            };
            let Some(range) = seg.index else {
                return Err(Error::analysis(format!(
                    "`{}.{}` requires an index (ranges are only valid in predicates, \
                     bare element lists only inside aggregates){}",
                    parts[0].name,
                    seg.name,
                    at(seg)
                )));
            };
            if range.end != IndexEnd::At {
                return Err(Error::analysis(format!(
                    "range reference `{}.{}[{}..]` is only valid as a predicate operand{}",
                    parts[0].name,
                    seg.name,
                    range.start,
                    at(seg)
                )));
            }
            let i = range.start;
            Ok(match (attr, is_edges) {
                (None, true) => mk(PathProp::EdgeIdAt(i), DataType::Integer),
                (None, false) => mk(PathProp::VertexIdAt(i), DataType::Integer),
                (Some((attr, ty)), _) => mk(PathProp::ElementAt(i, attr), ty),
            })
        }
        _ => Err(Error::analysis(format!(
            "unknown path property `{}` on `{}`{}",
            seg.name,
            parts[0].name,
            at(seg)
        ))),
    }
}

/// SQL text of a reference (`PS.Edges[0..*].w`) or of a path aggregate
/// over one, for diagnostics.
fn ref_text(expr: &Expr) -> String {
    match expr {
        Expr::CompoundRef(parts) => {
            let mut out = String::new();
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    out.push('.');
                }
                out.push_str(&p.name);
                if let Some(r) = p.index {
                    let end = match r.end {
                        IndexEnd::At => String::new(),
                        IndexEnd::Bounded(e) => format!("..{e}"),
                        IndexEnd::Star => "..*".to_string(),
                    };
                    out.push_str(&format!("[{}{end}]", r.start));
                }
            }
            out
        }
        Expr::Function { name, args, .. } => {
            let args: Vec<String> = args.iter().map(ref_text).collect();
            format!("{name}({})", args.join(", "))
        }
        _ => "expression".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> QueryEnv<'static> {
        QueryEnv {
            snap: None,
            params: vec![Value::Integer(5)],
            gov: Default::default(),
            batch_rows: crate::spine::BATCH_ROWS,
        }
    }

    /// NULL, TRUE, FALSE, 1, 1.0, NaN and 'x' as columns of the row and as
    /// literals, and `?` bound to 5.
    fn row() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Boolean(true),
            Value::Boolean(false),
            Value::Integer(1),
            Value::Double(1.0),
            Value::Double(f64::NAN),
            Value::text("x"),
        ]
    }

    fn operands() -> Vec<PhysExpr> {
        let columns = row()
            .into_iter()
            .enumerate()
            .map(|(index, v)| PhysExpr::Column {
                index,
                ty: PhysExpr::Literal(v).static_type(),
            });
        let mut out: Vec<PhysExpr> = columns.collect();
        out.extend(row().into_iter().map(PhysExpr::Literal));
        out.push(PhysExpr::Param { index: 0 });
        out
    }

    /// The evaluator this crate shipped before [`PhysExpr::truth`], kept
    /// verbatim as the reference for the boolean nodes (leaves go through
    /// `eval`, which did not change).
    fn reference(e: &PhysExpr, row: &[Value], env: &QueryEnv<'_>) -> Result<Value> {
        let cmp = |op: CmpOp, ord: Option<Ordering>| match ord {
            None => Value::Null,
            Some(o) => Value::Boolean(match op {
                CmpOp::Eq => o == Ordering::Equal,
                CmpOp::NotEq => o != Ordering::Equal,
                CmpOp::Lt => o == Ordering::Less,
                CmpOp::LtEq => o != Ordering::Greater,
                CmpOp::Gt => o == Ordering::Greater,
                CmpOp::GtEq => o != Ordering::Less,
            }),
        };
        match e {
            PhysExpr::Not(e) => match reference(e, row, env)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Boolean(!v.as_boolean()?)),
            },
            PhysExpr::And(a, b) => {
                let va = reference(a, row, env)?;
                if matches!(va, Value::Boolean(false)) {
                    return Ok(Value::Boolean(false));
                }
                let vb = reference(b, row, env)?;
                if matches!(vb, Value::Boolean(false)) {
                    return Ok(Value::Boolean(false));
                }
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Boolean(va.as_boolean()? && vb.as_boolean()?))
            }
            PhysExpr::Or(a, b) => {
                let va = reference(a, row, env)?;
                if matches!(va, Value::Boolean(true)) {
                    return Ok(Value::Boolean(true));
                }
                let vb = reference(b, row, env)?;
                if matches!(vb, Value::Boolean(true)) {
                    return Ok(Value::Boolean(true));
                }
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Boolean(va.as_boolean()? || vb.as_boolean()?))
            }
            PhysExpr::Cmp { op, left, right } => {
                let l = reference(left, row, env)?;
                let r = reference(right, row, env)?;
                Ok(cmp(*op, l.sql_cmp(&r)))
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = reference(expr, row, env)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_unknown = false;
                for item in list {
                    match v.sql_eq(&reference(item, row, env)?) {
                        Some(true) => return Ok(Value::Boolean(!negated)),
                        Some(false) => {}
                        None => saw_unknown = true,
                    }
                }
                Ok(if saw_unknown {
                    Value::Null
                } else {
                    Value::Boolean(*negated)
                })
            }
            PhysExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = reference(expr, row, env)?;
                let ge = cmp(CmpOp::GtEq, v.sql_cmp(&reference(low, row, env)?));
                let le = cmp(CmpOp::LtEq, v.sql_cmp(&reference(high, row, env)?));
                let both = match (ge, le) {
                    (Value::Boolean(false), _) | (_, Value::Boolean(false)) => {
                        Value::Boolean(false)
                    }
                    (Value::Null, _) | (_, Value::Null) => Value::Null,
                    _ => Value::Boolean(true),
                };
                Ok(match both {
                    Value::Boolean(b) => Value::Boolean(b != *negated),
                    other => other,
                })
            }
            leaf => leaf.eval(row, env),
        }
    }

    /// `eval` and `matches` agree with the reference on `e`, error for error.
    fn check(e: &PhysExpr, row: &[Value], env: &QueryEnv<'_>) {
        let want = reference(e, row, env);
        assert_eq!(e.eval(row, env), want, "eval of {e:?}");
        let want_match = want.map(|v| matches!(v, Value::Boolean(true)));
        assert_eq!(e.matches(row, env), want_match, "matches of {e:?}");
    }

    fn b(e: &PhysExpr) -> Box<PhysExpr> {
        Box::new(e.clone())
    }

    #[test]
    fn kleene_truth_table_matches_the_reference() {
        let (row, env) = (row(), env());
        let ops = operands();
        let cmp_ops = [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ];
        let mut checked = 0;
        for x in &ops {
            check(x, &row, &env);
            check(&PhysExpr::Not(b(x)), &row, &env);
            for y in &ops {
                check(&PhysExpr::And(b(x), b(y)), &row, &env);
                check(&PhysExpr::Or(b(x), b(y)), &row, &env);
                for op in cmp_ops {
                    let c = PhysExpr::Cmp {
                        op,
                        left: b(x),
                        right: b(y),
                    };
                    check(&c, &row, &env);
                    check(&PhysExpr::Not(b(&c)), &row, &env);
                }
                for z in &ops {
                    // A connective over a connective: the inner result is
                    // a boolean node's, never a deferred non-BOOLEAN.
                    check(
                        &PhysExpr::And(b(x), Box::new(PhysExpr::Or(b(y), b(z)))),
                        &row,
                        &env,
                    );
                    check(
                        &PhysExpr::Or(
                            Box::new(PhysExpr::Not(b(x))),
                            Box::new(PhysExpr::And(b(y), b(z))),
                        ),
                        &row,
                        &env,
                    );
                    for negated in [false, true] {
                        check(
                            &PhysExpr::Between {
                                expr: b(x),
                                low: b(y),
                                high: b(z),
                                negated,
                            },
                            &row,
                            &env,
                        );
                        check(
                            &PhysExpr::InList {
                                expr: b(x),
                                list: vec![y.clone(), z.clone()],
                                negated,
                            },
                            &row,
                            &env,
                        );
                    }
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, ops.len().pow(3));
    }

    #[test]
    fn a_non_boolean_operand_raises_only_when_no_sibling_decides() {
        let (row, env) = (row(), env());
        let lit = |v: Value| Box::new(PhysExpr::Literal(v));
        let param = || Box::new(PhysExpr::Param { index: 0 });
        let null = || lit(Value::Null);
        let t = || lit(Value::Boolean(true));
        let f = || lit(Value::Boolean(false));
        let is_exec = |r: Result<Value>| matches!(r, Err(Error::Execution(_)));
        // AND: FALSE on either side decides; so does a NULL beside it.
        assert_eq!(
            PhysExpr::And(param(), f()).eval(&row, &env),
            Ok(Value::Boolean(false))
        );
        assert_eq!(
            PhysExpr::And(f(), param()).eval(&row, &env),
            Ok(Value::Boolean(false))
        );
        assert_eq!(
            PhysExpr::And(param(), null()).eval(&row, &env),
            Ok(Value::Null)
        );
        assert!(is_exec(PhysExpr::And(param(), t()).eval(&row, &env)));
        assert!(is_exec(PhysExpr::And(t(), param()).eval(&row, &env)));
        // OR: TRUE decides.
        assert_eq!(
            PhysExpr::Or(param(), t()).eval(&row, &env),
            Ok(Value::Boolean(true))
        );
        assert_eq!(
            PhysExpr::Or(null(), param()).eval(&row, &env),
            Ok(Value::Null)
        );
        assert!(is_exec(PhysExpr::Or(param(), f()).eval(&row, &env)));
        // NOT has no sibling.
        assert!(is_exec(PhysExpr::Not(param()).eval(&row, &env)));
        assert!(PhysExpr::Not(param()).matches(&row, &env).is_err());
        // `WHERE ?` bound to a non-BOOLEAN filters the row out.
        assert_eq!(PhysExpr::Param { index: 0 }.matches(&row, &env), Ok(false));
        assert_eq!(PhysExpr::Param { index: 0 }.truth(&row, &env), Ok(None));
        // An unbound parameter is an error wherever it is read.
        let unbound = PhysExpr::Param { index: 1 };
        assert!(unbound.matches(&row, &env).is_err());
        assert!(PhysExpr::Or(t(), Box::new(unbound)).matches(&row, &env) == Ok(true));
    }
}
