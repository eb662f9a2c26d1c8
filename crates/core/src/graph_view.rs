//! Graph views as database objects (EDBT 2018 §3).

use std::sync::Arc;

use grfusion_common::{Column, DataType, Error, Result, Schema, Value};
use grfusion_graph::{EdgeSlot, GraphTopology};
use grfusion_sql::CreateGraphView;
use grfusion_storage::{Catalog, Table};

/// The names a view synthesizes, spelled once: every element's `id`, a
/// vertex's `fanin` / `fanout` (§5.2), the `from` / `to` columns of
/// `gv.EDGES`, and the `startvertex` / `endvertex` of an edge on a path.
/// No exposed attribute may take one of its element's names.
pub const ID: &str = "id";
pub const FANIN: &str = "fanin";
pub const FANOUT: &str = "fanout";
pub const FROM: &str = "from";
pub const TO: &str = "to";
pub const START_VERTEX: &str = "startvertex";
pub const END_VERTEX: &str = "endvertex";
const VERTEX_NAMES: [&str; 3] = [ID, FANIN, FANOUT];
const EDGE_NAMES: [&str; 5] = [ID, FROM, TO, START_VERTEX, END_VERTEX];

/// Resolved definition of a graph view: which relational sources feed it
/// and how source columns map to exposed vertex/edge attributes.
///
/// All names are stored lowercase; exposed attribute lookups are
/// case-insensitive.
#[derive(Debug, Clone)]
pub struct GraphViewDef {
    /// Graph-view name, lowercase (the topology's name too, so a
    /// [`PathData`](grfusion_common::PathData) can be traced back to its
    /// view).
    pub name: String,
    pub directed: bool,
    /// Vertexes relational-source (lowercase table name).
    pub vertex_source: String,
    /// Edges relational-source (lowercase table name).
    pub edge_source: String,
    /// Column of `vertex_source` providing the vertex id.
    pub vertex_id_col: usize,
    /// `(exposed attribute name lowercase, source column)` pairs.
    pub vertex_attrs: Vec<(String, usize)>,
    pub edge_id_col: usize,
    pub edge_from_col: usize,
    pub edge_to_col: usize,
    pub edge_attrs: Vec<(String, usize)>,
}

impl GraphViewDef {
    /// Resolve a `CREATE GRAPH VIEW` statement against the catalog.
    pub fn resolve(stmt: &CreateGraphView, catalog: &Catalog) -> Result<GraphViewDef> {
        let vs = catalog.table(&stmt.vertex_source)?.schema();
        let es = catalog.table(&stmt.edge_source)?.schema();

        let resolve_col = |schema: &Schema, col: &str, clause: &str| -> Result<usize> {
            schema.index_of(col).ok_or_else(|| {
                Error::analysis(format!(
                    "{clause} clause references unknown column `{col}`"
                ))
            })
        };

        let mut vertex_attrs = Vec::with_capacity(stmt.vertex_attrs.len());
        for (exposed, col) in &stmt.vertex_attrs {
            vertex_attrs.push((
                exposed.to_ascii_lowercase(),
                resolve_col(vs, col, "VERTEXES")?,
            ));
        }
        let mut edge_attrs = Vec::with_capacity(stmt.edge_attrs.len());
        for (exposed, col) in &stmt.edge_attrs {
            edge_attrs.push((exposed.to_ascii_lowercase(), resolve_col(es, col, "EDGES")?));
        }
        // An exposed name that repeats another, or one the view
        // synthesizes, could not be read.
        let vertex = ("vertex", &vertex_attrs, &VERTEX_NAMES[..]);
        for (kind, attrs, synthesized) in [vertex, ("edge", &edge_attrs, &EDGE_NAMES[..])] {
            for (i, (name, _)) in attrs.iter().enumerate() {
                let repeated = attrs.iter().take(i).any(|(a, _)| a == name);
                if repeated || synthesized.contains(&name.as_str()) {
                    return Err(Error::analysis(format!(
                        "graph view `{}` cannot expose {kind} attribute `{name}`: \
                         its {kind}es already have an attribute of that name",
                        stmt.name
                    )));
                }
            }
        }

        Ok(GraphViewDef {
            name: stmt.name.to_ascii_lowercase(),
            directed: stmt.directed,
            vertex_source: stmt.vertex_source.to_ascii_lowercase(),
            edge_source: stmt.edge_source.to_ascii_lowercase(),
            vertex_id_col: resolve_col(vs, &stmt.vertex_id, "VERTEXES")?,
            vertex_attrs,
            edge_id_col: resolve_col(es, &stmt.edge_id, "EDGES")?,
            edge_from_col: resolve_col(es, &stmt.edge_from, "EDGES")?,
            edge_to_col: resolve_col(es, &stmt.edge_to, "EDGES")?,
            edge_attrs,
        })
    }

    /// Output schema of the `gv.VERTEXES` scan: `id`, exposed attributes,
    /// then the graph-only `fanin`/`fanout` properties (§5.2).
    pub fn vertex_scan_schema(&self, vertex_table: &Table) -> Schema {
        let src = vertex_table.schema();
        let mut cols = vec![Column::new(ID, DataType::Integer)];
        for (exposed, col) in &self.vertex_attrs {
            cols.push(Column::new(exposed.clone(), src.column(*col).data_type));
        }
        cols.push(Column::new(FANIN, DataType::Integer));
        cols.push(Column::new(FANOUT, DataType::Integer));
        Schema::new(cols)
    }

    /// Output schema of the `gv.EDGES` scan: `id`, `from`, `to`, exposed
    /// attributes.
    pub fn edge_scan_schema(&self, edge_table: &Table) -> Schema {
        let src = edge_table.schema();
        let mut cols = vec![
            Column::new(ID, DataType::Integer),
            Column::new(FROM, DataType::Integer),
            Column::new(TO, DataType::Integer),
        ];
        for (exposed, col) in &self.edge_attrs {
            cols.push(Column::new(exposed.clone(), src.column(*col).data_type));
        }
        Schema::new(cols)
    }

    /// The vertex id a row of the vertexes source carries.
    pub fn vertex_id_of(&self, row: &[Value]) -> Result<i64> {
        id_value(&row[self.vertex_id_col], "vertex")
    }

    /// The `(id, FROM, TO)` ids a row of the edges source carries.
    pub fn edge_of(&self, row: &[Value]) -> Result<(i64, i64, i64)> {
        Ok((
            id_value(&row[self.edge_id_col], "edge")?,
            id_value(&row[self.edge_from_col], "edge FROM")?,
            id_value(&row[self.edge_to_col], "edge TO")?,
        ))
    }

    /// Find the source column of an exposed vertex attribute.
    pub fn vertex_attr_col(&self, attr: &str) -> Option<usize> {
        self.vertex_attrs
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))
            .map(|(_, c)| *c)
    }

    /// Find the source column of an exposed edge attribute.
    pub fn edge_attr_col(&self, attr: &str) -> Option<usize> {
        self.edge_attrs
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))
            .map(|(_, c)| *c)
    }
}

/// A graph view: the resolved definition plus the singleton materialized
/// topology (shared by every query that references the view, §3.2). The
/// view owns its topology; whoever holds `&mut GraphView` is its writer.
#[derive(Debug)]
pub struct GraphView {
    /// Shared with the plans prepared against this view: a plan holding
    /// another definition was prepared against a view since dropped.
    pub def: Arc<GraphViewDef>,
    pub topology: GraphTopology,
    /// The numeric edge attributes as of the last seal; empty while the
    /// view has never sealed.
    pub columns: EdgeColumns,
}

/// Edge slot → array index: slots are `u32`, so this widens.
#[inline]
fn slot_ix(slot: EdgeSlot) -> usize {
    slot as usize // cast-ok: u32 -> usize widening
}

/// Whether bit `i` of `bits` is set; `false` past its end, so an empty map
/// reads all clear.
#[inline]
fn bit(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

/// Set bit `i` of `bits`, first sizing an empty map to `span` bits.
fn set_bit(bits: &mut Vec<u64>, span: usize, i: usize) {
    if bits.is_empty() {
        *bits = vec![0; span.div_ceil(64)];
    }
    if let Some(w) = bits.get_mut(i / 64) {
        *w |= 1 << (i % 64);
    }
}

/// A view's INTEGER and DOUBLE edge attributes copied into columns indexed
/// by edge slot at every seal (GRAPHITE's split, PAPERS.md): the
/// shortest-path cost, a pushed `Edges[..].attr` test and a running sum
/// read a sealed edge's value here instead of dereferencing its tuple
/// pointer. Layout: 8 bytes a slot per column; a column holding a NULL
/// adds a 1-bit null map, and the first stale edge a 1-bit stale map.
///
/// An edge answers from the columns only while it is *fresh*:
/// * it was live in the edge arena at the seal — an edge born later
///   (inserted, relinked, restored by a rollback) has a slot past the
///   columns' span;
/// * no UPDATE changed one of its copied attributes since: view
///   maintenance marks the edge stale until the next seal;
/// * no rollback undid an UPDATE of the edge source since: a restored
///   value may predate the columns, so the rollback drops them whole until
///   the next seal.
///
/// Every other read goes through the tuple pointer, as before the seal.
#[derive(Debug, Default)]
pub struct EdgeColumns {
    /// By source column; `None` for a column that is not copied.
    cols: Vec<Option<EdgeColumn>>,
    /// Edge slots the columns cover: the edge arena at the seal.
    span: usize,
    /// One bit per covered slot, set for a stale edge; empty while none is.
    stale: Vec<u64>,
}

#[derive(Debug)]
struct EdgeColumn {
    /// `span` values. A NULL DOUBLE holds +∞, its shortest-path cost.
    values: Numbers,
    /// One bit per covered slot, set where the value is NULL; empty while
    /// none is.
    nulls: Vec<u64>,
}

#[derive(Debug)]
enum Numbers {
    Integer(Vec<i64>),
    Double(Vec<f64>),
}

/// One copied column, looked up once and then read by slot (see
/// [`EdgeColumns::column`]).
#[derive(Clone, Copy)]
pub struct ColumnRef<'c> {
    values: NumberSlice<'c>,
    nulls: &'c [u64],
    stale: &'c [u64],
}

#[derive(Clone, Copy)]
enum NumberSlice<'c> {
    Integer(&'c [i64]),
    Double(&'c [f64]),
}

impl ColumnRef<'_> {
    /// The value of the edge in `slot`, if it is fresh; `None`: read the
    /// tuple.
    #[inline]
    pub fn value(&self, slot: EdgeSlot) -> Option<Value> {
        let s = slot_ix(slot);
        let v = match self.values {
            NumberSlice::Integer(v) => Value::Integer(*v.get(s)?),
            NumberSlice::Double(v) => Value::Double(*v.get(s)?),
        };
        if bit(self.stale, s) {
            return None;
        }
        Some(if bit(self.nulls, s) { Value::Null } else { v })
    }

    /// [`ColumnRef::value`] as a shortest-path cost: the number, or +∞
    /// where it is NULL.
    #[inline]
    pub fn cost(&self, slot: EdgeSlot) -> Option<f64> {
        let s = slot_ix(slot);
        let cost = match self.values {
            NumberSlice::Double(v) => *v.get(s)?,
            NumberSlice::Integer(v) => {
                let i = *v.get(s)?;
                if bit(self.nulls, s) {
                    f64::INFINITY
                } else {
                    i as f64 // cast-ok: SQL's INTEGER -> DOUBLE widening, as `Value::as_double`
                }
            }
        };
        if bit(self.stale, s) {
            return None;
        }
        Some(cost)
    }
}

impl EdgeColumns {
    /// The source columns a seal copies: the view's INTEGER and DOUBLE
    /// edge attributes, less `links`.
    fn copied(def: &GraphViewDef, edge_table: &Table, links: &[usize]) -> Vec<(usize, DataType)> {
        let schema = edge_table.schema();
        let mut out: Vec<(usize, DataType)> = Vec::new();
        for &(_, c) in &def.edge_attrs {
            let ty = schema.column(c).data_type;
            let numeric = matches!(ty, DataType::Integer | DataType::Double);
            if numeric && !links.contains(&c) && !out.iter().any(|&(o, _)| o == c) {
                out.push((c, ty));
            }
        }
        out
    }

    /// The edge slots a seal of `topo` would cover.
    fn span_of(topo: &GraphTopology) -> usize {
        topo.edge_slots().last().map_or(0, |s| slot_ix(s) + 1)
    }

    /// Bytes the value arrays of a seal of `topo` would hold, charged to
    /// the governor before the seal (the bit maps come later, and only
    /// with a NULL or a stale edge).
    fn bytes_estimate(
        def: &GraphViewDef,
        topo: &GraphTopology,
        edge_table: &Table,
        links: &[usize],
    ) -> usize {
        Self::copied(def, edge_table, links).len() * Self::span_of(topo) * 8
    }

    /// Copy the numeric attributes of every live edge of `topo`. An edge
    /// whose row is missing, or holds a value of another type than its
    /// column's, is left stale and reads through its tuple pointer.
    fn build(
        def: &GraphViewDef,
        topo: &GraphTopology,
        edge_table: &Table,
        links: &[usize],
    ) -> EdgeColumns {
        let span = Self::span_of(topo);
        let mut copied: Vec<(usize, EdgeColumn)> = Self::copied(def, edge_table, links)
            .into_iter()
            .map(|(c, ty)| {
                let values = match ty {
                    DataType::Integer => Numbers::Integer(vec![0; span]),
                    _ => Numbers::Double(vec![0.0; span]),
                };
                (c, EdgeColumn { values, nulls: Vec::new() })
            })
            .collect();
        let mut stale = Vec::new();
        for slot in topo.edge_slots() {
            let s = slot_ix(slot);
            let Some(row) = edge_table.get(topo.edge_tuple(slot)) else {
                set_bit(&mut stale, span, s);
                continue;
            };
            for (c, col) in &mut copied {
                match (&mut col.values, &row[*c]) {
                    (Numbers::Integer(v), Value::Integer(i)) => v[s] = *i,
                    (Numbers::Double(v), Value::Double(d)) => v[s] = *d,
                    (values, Value::Null) => {
                        if let Numbers::Double(v) = values {
                            v[s] = f64::INFINITY;
                        }
                        set_bit(&mut col.nulls, span, s);
                    }
                    _ => set_bit(&mut stale, span, s),
                }
            }
        }
        let mut cols: Vec<Option<EdgeColumn>> = Vec::new();
        for (c, col) in copied {
            if cols.len() <= c {
                cols.resize_with(c + 1, || None);
            }
            cols[c] = Some(col);
        }
        EdgeColumns { cols, span, stale }
    }

    /// Source column `col`, if the columns hold it.
    #[inline]
    pub fn column(&self, col: usize) -> Option<ColumnRef<'_>> {
        let c = self.cols.get(col)?.as_ref()?;
        let values = match &c.values {
            Numbers::Integer(v) => NumberSlice::Integer(v),
            Numbers::Double(v) => NumberSlice::Double(v),
        };
        Some(ColumnRef {
            values,
            nulls: &c.nulls,
            stale: &self.stale,
        })
    }

    /// Whether the columns hold source column `col`.
    pub fn copies(&self, col: usize) -> bool {
        self.cols.get(col).is_some_and(Option::is_some)
    }

    /// View maintenance saw an UPDATE rewrite the edge in `slot`: unless
    /// every copied attribute kept its value, the edge reads its tuple
    /// until the next seal.
    pub fn note_update(&mut self, slot: EdgeSlot, old_row: &[Value], new_row: &[Value]) {
        // Identity, not SQL equality: `0.0 = -0.0` and `1 = 1.0` hold in
        // SQL, yet each pair prints apart.
        let same = |a: Option<&Value>, b: Option<&Value>| match (a, b) {
            (Some(Value::Null), Some(Value::Null)) => true,
            (Some(Value::Integer(x)), Some(Value::Integer(y))) => x == y,
            (Some(Value::Double(x)), Some(Value::Double(y))) => x.to_bits() == y.to_bits(),
            _ => false,
        };
        let changed = (self.cols.iter().enumerate())
            .any(|(c, col)| col.is_some() && !same(old_row.get(c), new_row.get(c)));
        let s = slot_ix(slot);
        if changed && s < self.span {
            set_bit(&mut self.stale, self.span, s);
        }
    }

    /// Whether no edge is covered: never sealed, or dropped by a rollback.
    pub fn is_empty(&self) -> bool {
        self.span == 0
    }

    /// Forget every copied value, until the next seal.
    pub fn clear(&mut self) {
        *self = EdgeColumns::default();
    }

    /// Heap bytes the columns hold.
    pub fn bytes(&self) -> usize {
        let column = |c: &EdgeColumn| {
            let values = match &c.values {
                Numbers::Integer(v) => v.capacity() * std::mem::size_of::<i64>(),
                Numbers::Double(v) => v.capacity() * std::mem::size_of::<f64>(),
            };
            values + c.nulls.capacity() * 8
        };
        let cols: usize = self.cols.iter().flatten().map(column).sum();
        cols + self.stale.capacity() * 8
    }
}

impl GraphView {
    /// Compact the topology into sealed CSR arrays and copy the numeric
    /// edge attributes into columns (see [`EdgeColumns`]), all but the
    /// `links`: the id, `FROM` and `TO` columns of every view over the edge
    /// source ([`GraphView::links`]), which a vertex-id cascade rewrites
    /// without an UPDATE of the edge.
    pub fn seal(&mut self, edge_table: &Table, links: &[usize]) {
        self.topology.seal();
        // Free the old columns first: a re-seal then holds one copy at a
        // time, not two.
        self.columns.clear();
        self.columns = EdgeColumns::build(&self.def, &self.topology, edge_table, links);
    }

    /// Bytes a [`GraphView::seal`] would allocate now: the CSR arrays and
    /// the column values. The governor charges it before the seal.
    pub fn sealed_bytes_estimate(&self, edge_table: &Table, links: &[usize]) -> usize {
        self.topology.sealed_bytes_estimate()
            + EdgeColumns::bytes_estimate(&self.def, &self.topology, edge_table, links)
    }

    /// The id, `FROM` and `TO` columns of `edge_source` that `views` use.
    pub fn links<'v>(views: impl IntoIterator<Item = &'v GraphView>, edge_source: &str) -> Vec<usize> {
        let mut links = Vec::new();
        for d in views.into_iter().map(|v| &v.def) {
            if d.edge_source == edge_source {
                links.extend([d.edge_id_col, d.edge_from_col, d.edge_to_col]);
            }
        }
        links
    }
}

impl GraphView {
    /// Materialize a graph view: a single pass over the vertexes source,
    /// then a single pass over the edges source (§3.2). Edge endpoints must
    /// exist in the vertex set.
    pub fn materialize(def: GraphViewDef, catalog: &Catalog) -> Result<GraphView> {
        let vt = catalog.table(&def.vertex_source)?;
        let et = catalog.table(&def.edge_source)?;

        let mut topo =
            GraphTopology::with_capacity(def.name.clone(), def.directed, vt.len(), et.len());
        for (row_id, row) in vt.scan() {
            topo.add_vertex(def.vertex_id_of(row)?, row_id)?;
        }
        for (row_id, row) in et.scan() {
            let (id, from, to) = def.edge_of(row)?;
            topo.add_edge(id, from, to, row_id)?;
        }
        Ok(GraphView {
            def: Arc::new(def),
            topology: topo,
            columns: EdgeColumns::default(),
        })
    }
}

/// Extract an integer id from a source column value.
fn id_value(v: &Value, what: &str) -> Result<i64> {
    match v {
        Value::Integer(i) => Ok(*i),
        other => Err(Error::constraint(format!(
            "{what} id must be a non-null INTEGER, got {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_sql::parse_statement;
    use grfusion_sql::Statement;

    fn catalog_with_social() -> Result<Catalog> {
        let mut c = Catalog::new();
        let mut users = Table::new(
            "Users",
            Schema::from_pairs(&[
                ("uid", DataType::Integer),
                ("lname", DataType::Varchar),
                ("dob", DataType::Varchar),
            ]),
        );
        users.insert(vec![Value::Integer(1), Value::text("Smith"), Value::text("1989")])?;
        users.insert(vec![Value::Integer(2), Value::text("Jones"), Value::text("1991")])?;
        c.create_table(users)?;
        let mut rel = Table::new(
            "Relationships",
            Schema::from_pairs(&[
                ("relid", DataType::Integer),
                ("uid1", DataType::Integer),
                ("uid2", DataType::Integer),
                ("isrelative", DataType::Boolean),
            ]),
        );
        rel.insert(vec![
            Value::Integer(10),
            Value::Integer(1),
            Value::Integer(2),
            Value::Boolean(true),
        ])?;
        c.create_table(rel)?;
        Ok(c)
    }

    fn parse_graph_view(sql: &str) -> Result<grfusion_sql::CreateGraphView> {
        match parse_statement(sql)? {
            Statement::CreateGraphView(stmt) => Ok(stmt),
            _ => Err(Error::execution("test SQL did not parse to CREATE GRAPH VIEW")),
        }
    }

    fn social_def(catalog: &Catalog) -> Result<GraphViewDef> {
        let sql = "CREATE UNDIRECTED GRAPH VIEW Social \
                   VERTEXES(ID = uid, lstName = lname, birthdate = dob) FROM Users \
                   EDGES(ID = relid, FROM = uid1, TO = uid2, relative = isrelative) FROM Relationships";
        GraphViewDef::resolve(&parse_graph_view(sql)?, catalog)
    }

    #[test]
    fn resolve_maps_columns() -> Result<()> {
        let c = catalog_with_social()?;
        let def = social_def(&c)?;
        assert_eq!(def.name, "social");
        assert!(!def.directed);
        assert_eq!(def.vertex_id_col, 0);
        assert_eq!(def.vertex_attrs, vec![("lstname".into(), 1), ("birthdate".into(), 2)]);
        assert_eq!(def.edge_from_col, 1);
        assert_eq!(def.edge_to_col, 2);
        assert_eq!(def.vertex_attr_col("LstName"), Some(1));
        assert_eq!(def.edge_attr_col("relative"), Some(3));
        assert_eq!(def.edge_attr_col("nope"), None);
        Ok(())
    }

    #[test]
    fn resolve_rejects_unknown_columns() -> Result<()> {
        let c = catalog_with_social()?;
        let sql = "CREATE GRAPH VIEW g VERTEXES(ID = missing) FROM Users \
                   EDGES(ID = relid, FROM = uid1, TO = uid2) FROM Relationships";
        assert!(GraphViewDef::resolve(&parse_graph_view(sql)?, &c).is_err());
        Ok(())
    }

    #[test]
    fn resolve_rejects_unknown_tables() -> Result<()> {
        let c = catalog_with_social()?;
        let sql = "CREATE GRAPH VIEW g VERTEXES(ID = uid) FROM nope \
                   EDGES(ID = relid, FROM = uid1, TO = uid2) FROM Relationships";
        assert!(GraphViewDef::resolve(&parse_graph_view(sql)?, &c).is_err());
        Ok(())
    }

    #[test]
    fn materialize_builds_topology_with_tuple_pointers() -> Result<()> {
        let c = catalog_with_social()?;
        let def = social_def(&c)?;
        let gv = GraphView::materialize(def, &c)?;
        let topo = &gv.topology;
        assert_eq!(topo.vertex_count(), 2);
        assert_eq!(topo.edge_count(), 1);
        // tuple pointer of vertex 1 dereferences to the Smith row
        let slot = topo.vertex_slot(1)?;
        let row = c
            .table("users")?
            .get(topo.vertex_tuple(slot))
            .ok_or_else(|| Error::execution("tuple pointer dangles"))?;
        assert_eq!(row[1], Value::text("Smith"));
        Ok(())
    }

    #[test]
    fn materialize_rejects_dangling_edges() -> Result<()> {
        let mut c = catalog_with_social()?;
        // add an edge to a nonexistent vertex
        c.table_mut("relationships")?.insert(vec![
            Value::Integer(11),
            Value::Integer(1),
            Value::Integer(99),
            Value::Boolean(false),
        ])?;
        let def = social_def(&c)?;
        assert!(GraphView::materialize(def, &c).is_err());
        Ok(())
    }

    #[test]
    fn scan_schemas() -> Result<()> {
        let c = catalog_with_social()?;
        let def = social_def(&c)?;
        let vs = def.vertex_scan_schema(c.table("users")?);
        let names: Vec<&str> = vs.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["id", "lstname", "birthdate", "fanin", "fanout"]);
        let es = def.edge_scan_schema(c.table("relationships")?);
        let names: Vec<&str> = es.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["id", "from", "to", "relative"]);
        assert_eq!(es.column(3).data_type, DataType::Boolean);
        Ok(())
    }

    #[test]
    fn id_value_requires_integer() -> Result<()> {
        assert_eq!(id_value(&Value::Integer(5), "v")?, 5);
        assert!(id_value(&Value::text("x"), "v").is_err());
        assert!(id_value(&Value::Null, "v").is_err());
        Ok(())
    }
}
