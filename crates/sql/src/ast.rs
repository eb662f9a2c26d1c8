//! Abstract syntax tree for the SQL subset + GRFusion extensions.

use grfusion_common::Value;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    CreateGraphView(CreateGraphView),
    DropTable { name: String },
    DropGraphView { name: String },
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    Select(Select),
    /// `EXPLAIN [ANALYZE] SELECT ...` — static plan text, or an annotated
    /// plan with per-operator runtime counters when `analyze` is set.
    Explain { analyze: bool, select: Box<Select> },
    Begin,
    Commit,
    Rollback,
}

/// `CREATE TABLE name (col TYPE [PRIMARY KEY], ...)`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub columns: Vec<ColumnDef>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: TypeName,
    pub primary_key: bool,
}

/// Type names as written; mapped to `DataType` during DDL execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeName {
    Integer,
    Double,
    Boolean,
    Varchar,
}

/// `CREATE [UNIQUE] [ORDERED] INDEX name ON table (column)`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub column: String,
    pub unique: bool,
    pub ordered: bool,
}

/// The paper's graph-view DDL (Listing 1):
///
/// ```sql
/// CREATE UNDIRECTED GRAPH VIEW SocialNetwork
/// VERTEXES(ID = uId, lstName = lName, birthdate = dob) FROM Users
/// EDGES(ID = relId, FROM = uId1, TO = uId2, sdate = startDate) FROM Relationships
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CreateGraphView {
    pub name: String,
    pub directed: bool,
    /// Source column providing the vertex id.
    pub vertex_id: String,
    /// `(exposed attribute name, source column)` pairs.
    pub vertex_attrs: Vec<(String, String)>,
    /// Vertexes relational-source (table or materialized view name).
    pub vertex_source: String,
    pub edge_id: String,
    pub edge_from: String,
    pub edge_to: String,
    pub edge_attrs: Vec<(String, String)>,
    pub edge_source: String,
}

/// `INSERT INTO t [(cols)] VALUES (...), (...)` or
/// `INSERT INTO t [(cols)] SELECT ...` (set-at-a-time insertion — the
/// statement shape Grail-style iterative graph algorithms are made of).
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub columns: Option<Vec<String>>,
    pub source: InsertSource,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Select(Box<Select>),
}

/// `UPDATE t SET a = e, ... [WHERE p]`
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub selection: Option<Expr>,
}

/// `DELETE FROM t [WHERE p]`
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub selection: Option<Expr>,
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// `SELECT DISTINCT` deduplicates the projected rows.
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: Vec<FromItem>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    /// `(expression, ascending)` pairs.
    pub order_by: Vec<(Expr, bool)>,
    /// `LIMIT n` or `SELECT TOP n`.
    pub limit: Option<u64>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `SELECT *`
    Wildcard,
    /// Expression with optional `AS alias`.
    Expr { expr: Expr, alias: Option<String> },
}

/// One FROM-clause source. Graph sources are recognized syntactically by
/// the `.<PATHS|VERTEXES|EDGES>` suffix (EDBT 2018 §4).
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    Table {
        name: Name,
        alias: Option<Name>,
    },
    GraphVertexes {
        graph: Name,
        alias: Option<Name>,
    },
    GraphEdges {
        graph: Name,
        alias: Option<Name>,
    },
    GraphPaths {
        graph: Name,
        alias: Option<Name>,
        hint: Option<PathHint>,
    },
}

impl FromItem {
    /// The name this source binds in the query's namespace.
    pub fn binding(&self) -> &str {
        match self {
            FromItem::Table { name, alias } => alias.as_deref().unwrap_or(name),
            FromItem::GraphVertexes { graph, alias }
            | FromItem::GraphEdges { graph, alias }
            | FromItem::GraphPaths { graph, alias, .. } => alias.as_deref().unwrap_or(graph),
        }
    }
}

/// Traversal hint attached to a `gv.PATHS` source (Listing 6 and §6.3).
#[derive(Debug, Clone, PartialEq)]
pub enum PathHint {
    /// `HINT(SHORTESTPATH(attr))` — use `SPScan` over the given edge cost
    /// attribute.
    ShortestPath { cost_attr: String },
    /// `HINT(DFS)` — force depth-first scan.
    Dfs,
    /// `HINT(BFS)` — force breadth-first scan.
    Bfs,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    /// Positional parameter `?` of a prepared statement (0-indexed in
    /// appearance order).
    Parameter(u32),
    /// A possibly-qualified, possibly-indexed reference chain, e.g.
    /// `U.Job`, `PS.Length`, `PS.Edges[0..*].Type`, `P.Edges[2].EndVertex`.
    /// Resolution to columns vs. path properties happens in the planner.
    CompoundRef(Vec<RefPart>),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, ...)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)` — uncorrelated subquery membership.
    /// The engine folds it into an `InList` of literals before planning.
    InSubquery {
        expr: Box<Expr>,
        select: Box<Select>,
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// Function call, including aggregates. `COUNT(*)` sets `star`.
    Function {
        name: Name,
        args: Vec<Expr>,
        star: bool,
    },
}

/// A name of a query: a reference segment (`PS`, `Edges`, `lstName`), a
/// function name, or a FROM item's source or alias. It is kept inline when
/// it fits in [`Name::INLINE`] bytes, as nearly every name does, so a
/// query's names cost no allocation; a longer one is boxed. It reads as a
/// `str`.
#[derive(Clone)]
pub struct Name(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Inline { len: u8, bytes: [u8; Name::INLINE] },
    Boxed(Box<str>),
}

impl Name {
    /// The longest name stored inline; with the length byte and the tag a
    /// `Name` is as large as a `String`.
    pub const INLINE: usize = 22;

    pub fn as_str(&self) -> &str {
        match &self.0 {
            NameRepr::Inline { len, bytes } => {
                let bytes = &bytes[..usize::from(*len)];
                // SAFETY: `From<&str>` is the only constructor of an inline
                // name, and it copies a whole `str` into `bytes[..len]`, so
                // they are UTF-8. Checking them again on every read would
                // triple the cost of a name comparison in the planner.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            NameRepr::Boxed(s) => s,
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        match u8::try_from(s.len()) {
            Ok(len) if s.len() <= Name::INLINE => {
                let mut bytes = [0; Name::INLINE];
                bytes[..s.len()].copy_from_slice(s.as_bytes());
                Name(NameRepr::Inline { len, bytes })
            }
            _ => Name(NameRepr::Boxed(s.into())),
        }
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name::from(s.as_str())
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

/// A source location (1-based line and column of a token). `0:0` means
/// "unknown" — synthesized expressions carry no span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    pub line: u32,
    pub col: u32,
}

impl Span {
    /// The "no location" span used for synthesized AST nodes.
    pub fn none() -> Self {
        Span::default()
    }

    pub fn is_known(&self) -> bool {
        self.line != 0
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// One segment of a reference chain: a name plus an optional `[...]` index.
///
/// Equality deliberately ignores `span`: the planner dedups aggregate calls
/// and matches GROUP BY / post-aggregation expressions structurally, and two
/// occurrences of the same reference at different source positions must
/// compare equal.
#[derive(Debug, Clone)]
pub struct RefPart {
    pub name: Name,
    pub index: Option<IndexRange>,
    /// Source position of the segment's identifier token (for plan-time
    /// diagnostics). Not part of structural equality.
    pub span: Span,
}

impl PartialEq for RefPart {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.index == other.index
    }
}

impl RefPart {
    pub fn plain(name: impl Into<Name>) -> Self {
        RefPart {
            name: name.into(),
            index: None,
            span: Span::none(),
        }
    }
}

/// The `[i]`, `[i..j]`, `[i..*]` index forms of path element references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexRange {
    pub start: u64,
    pub end: IndexEnd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexEnd {
    /// `[i]` — exactly position `start`.
    At,
    /// `[i..j]` — inclusive range end.
    Bounded(u64),
    /// `[i..*]` — from `start` to the end of the path.
    Star,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    Neg,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl Expr {
    /// Convenience: build `left AND right`, treating `None` as absent.
    pub fn and_opt(left: Option<Expr>, right: Option<Expr>) -> Option<Expr> {
        match (left, right) {
            (Some(l), Some(r)) => Some(Expr::Binary {
                left: Box::new(l),
                op: BinaryOp::And,
                right: Box::new(r),
            }),
            (Some(l), None) => Some(l),
            (None, r) => r,
        }
    }

    /// The leftmost known source span inside this expression (the position
    /// reported by plan-time diagnostics). `None` when the expression holds
    /// no reference — literals carry no location.
    pub fn span(&self) -> Option<Span> {
        match self {
            Expr::CompoundRef(parts) => {
                parts.iter().map(|p| p.span).find(|s| s.is_known())
            }
            Expr::Unary { expr, .. } => expr.span(),
            Expr::Binary { left, right, .. } => left.span().or_else(|| right.span()),
            Expr::InList { expr, list, .. } => expr
                .span()
                .or_else(|| list.iter().find_map(|e| e.span())),
            Expr::InSubquery { expr, .. } => expr.span(),
            Expr::Between {
                expr, low, high, ..
            } => expr
                .span()
                .or_else(|| low.span())
                .or_else(|| high.span()),
            Expr::Function { args, .. } => args.iter().find_map(|e| e.span()),
            Expr::Literal(_) | Expr::Parameter(_) => None,
        }
    }

    /// Render a span suffix like " at 1:23" (empty when no span is known) —
    /// the uniform tail of plan-time diagnostics.
    pub fn span_suffix(&self) -> String {
        match self.span() {
            Some(s) => format!(" at {s}"),
            None => String::new(),
        }
    }

    /// Split a predicate into its top-level AND-ed conjuncts, left to right.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        fn flatten<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            match e {
                Expr::Binary {
                    left,
                    op: BinaryOp::And,
                    right,
                } => {
                    flatten(left, out);
                    flatten(right, out);
                }
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        flatten(self, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let a = Expr::Literal(Value::Boolean(true));
        let b = Expr::Literal(Value::Boolean(false));
        let c = Expr::Literal(Value::Null);
        let e = Expr::Binary {
            left: Box::new(Expr::Binary {
                left: Box::new(a.clone()),
                op: BinaryOp::And,
                right: Box::new(b.clone()),
            }),
            op: BinaryOp::And,
            right: Box::new(c.clone()),
        };
        assert_eq!(e.conjuncts(), vec![&a, &b, &c]);
    }

    #[test]
    fn or_is_a_single_conjunct() {
        let a = Expr::Literal(Value::Boolean(true));
        let e = Expr::Binary {
            left: Box::new(a.clone()),
            op: BinaryOp::Or,
            right: Box::new(a.clone()),
        };
        assert_eq!(e.conjuncts(), vec![&e]);
    }

    #[test]
    fn and_opt_combinations() {
        let t = Expr::Literal(Value::Boolean(true));
        assert_eq!(Expr::and_opt(None, None), None);
        assert_eq!(Expr::and_opt(Some(t.clone()), None), Some(t.clone()));
        let both = Expr::and_opt(Some(t.clone()), Some(t.clone())).unwrap();
        assert_eq!(both.conjuncts().len(), 2);
    }

    #[test]
    fn from_item_binding() {
        let f = FromItem::Table {
            name: "users".into(),
            alias: Some("u".into()),
        };
        assert_eq!(f.binding(), "u");
        let f = FromItem::GraphPaths {
            graph: "sn".into(),
            alias: None,
            hint: None,
        };
        assert_eq!(f.binding(), "sn");
    }
}
