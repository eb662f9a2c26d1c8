//! DML execution with transactional graph-view maintenance (EDBT 2018 §3.3).
//!
//! When a table serves as a graph view's vertexes or edges
//! relational-source, every INSERT/UPDATE/DELETE on it must keep the
//! materialized topology consistent **as part of the same transaction**.
//! This module implements that: a unified [`Journal`] interleaves storage
//! undo actions with topology undo actions so a failed statement (or an
//! explicit ROLLBACK) restores both sides exactly.
//!
//! Maintenance rules (paper §3.3.1–§3.3.2):
//! * insert into a vertex source → `add_vertex`; into an edge source →
//!   `add_edge` (endpoints must exist — referential integrity);
//! * delete from a vertex source → `remove_vertex` (refused while incident
//!   edges remain); from an edge source → `remove_edge`;
//! * updating a vertex id renames the vertex *and cascades* the new id into
//!   edge-source rows referencing it; updating edge endpoints re-links the
//!   edge; updating any other attribute touches only the relational store
//!   (the topology holds tuple pointers, which stay valid across updates).

use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{Column, DataType, Error, Result, Row, RowId, Value};
use grfusion_sql::{Delete, Expr, Insert, Update};
use grfusion_storage::{Catalog, Table, UndoOp};

use crate::access;
use crate::env::QueryEnv;
use crate::expr::{compile, compile_predicate, show, value_type, Namespace, PhysExpr, Ty};
use crate::governor::ExecContext;
use crate::graph_view::GraphView;

/// A reversible topology action.
#[derive(Debug, Clone)]
pub enum GraphUndo {
    AddedVertex { id: i64 },
    RemovedVertex { id: i64, tuple: RowId },
    AddedEdge { id: i64 },
    RemovedEdge {
        id: i64,
        from: i64,
        to: i64,
        tuple: RowId,
    },
    RenamedVertex { from: i64, to: i64 },
    RenamedEdge { from: i64, to: i64 },
}

/// One journal entry: a storage action on a table or a topology action on
/// a graph view. Names are shared (`Arc<str>`), so an entry per row costs
/// no allocation for them.
#[derive(Debug, Clone)]
pub enum EngineUndo {
    Storage(UndoOp),
    Graph { gv: Arc<str>, op: GraphUndo },
}

/// The transaction journal. Entries are appended in execution order and
/// rolled back newest-first.
#[derive(Debug, Default)]
pub struct Journal {
    entries: Vec<EngineUndo>,
}

impl Journal {
    pub fn new() -> Self {
        Journal::default()
    }

    pub fn record_storage(&mut self, op: UndoOp) {
        self.entries.push(EngineUndo::Storage(op));
    }

    fn record_graph(&mut self, gv: &Arc<str>, op: GraphUndo) {
        self.entries.push(EngineUndo::Graph { gv: gv.clone(), op });
    }

    pub fn savepoint(&self) -> usize {
        self.entries.len()
    }

    /// Roll back to `savepoint`, undoing storage and topology actions in
    /// reverse order. This is the recovery path: it hits no fault site and
    /// polls no governor, so nothing can interrupt it.
    ///
    /// Undoing an UPDATE of a view's edge source drops the view's edge
    /// columns until its next seal: the restored value may be older than
    /// the columns (a statement that re-sealed after the write).
    pub fn rollback_to(
        &mut self,
        catalog: &mut Catalog,
        graph_views: &mut HashMap<String, GraphView>,
        savepoint: usize,
    ) -> Result<()> {
        while self.entries.len() > savepoint {
            let Some(entry) = self.entries.pop() else {
                break;
            };
            match entry {
                EngineUndo::Storage(op) => {
                    if let UndoOp::Update { table, .. } = &op {
                        let fed = graph_views.values_mut();
                        for view in fed.filter(|v| v.def.edge_source == **table) {
                            view.columns.clear();
                        }
                    }
                    op.undo(catalog)?
                }
                EngineUndo::Graph { gv, op } => {
                    let topo = &mut graph_views
                        .get_mut(&*gv)
                        .ok_or_else(|| Error::catalog(format!("graph view `{gv}` missing")))? // alloc-ok: error path
                        .topology;
                    match op {
                        GraphUndo::AddedVertex { id } => {
                            topo.remove_vertex(id)?;
                        }
                        GraphUndo::RemovedVertex { id, tuple } => {
                            topo.add_vertex(id, tuple)?;
                        }
                        GraphUndo::AddedEdge { id } => {
                            topo.remove_edge(id)?;
                        }
                        GraphUndo::RemovedEdge {
                            id,
                            from,
                            to,
                            tuple,
                        } => {
                            topo.add_edge(id, from, to, tuple)?;
                        }
                        GraphUndo::RenamedVertex { from, to } => topo.rename_vertex(to, from)?,
                        GraphUndo::RenamedEdge { from, to } => topo.rename_edge(to, from)?,
                    }
                }
            }
        }
        Ok(())
    }
}

/// The live state a DML statement writes, borrowed from the writer's
/// mutex for the statement: the `&mut`s are the proof that nothing else
/// reads or writes a table or a topology meanwhile.
pub struct DmlCtx<'a> {
    pub catalog: &'a mut Catalog,
    /// Lowercase name → graph view.
    pub graph_views: &'a mut HashMap<String, GraphView>,
    /// Lowercase table name → graph views that use it as a source.
    pub source_map: &'a HashMap<String, Vec<Arc<str>>>,
    /// The statement's governor, whose [`ExecContext::fault`] is an abort
    /// point at every maintenance step (the journal then rolls the prefix
    /// back). Shared, so a check never conflicts with a `&mut Table` or
    /// `&mut GraphView` held across rows.
    pub gov: &'a ExecContext,
}

/// One statement's write side, split off the [`DmlCtx`] beside the
/// catalog: the journal, the abort points, and the views the target table
/// feeds — each borrowed once and held across the statement's rows.
struct Writer<'s> {
    gov: &'s ExecContext,
    journal: &'s mut Journal,
    /// Lowercase name of the table being written.
    table: Arc<str>,
    /// The views it feeds, in registration order.
    views: Vec<(&'s Arc<str>, &'s mut GraphView)>,
}

impl<'s> Writer<'s> {
    fn open(
        ctx: &'s mut DmlCtx<'_>,
        journal: &'s mut Journal,
        table: &str,
    ) -> (&'s mut Catalog, Writer<'s>) {
        let table: Arc<str> = table.to_ascii_lowercase().into();
        let fed = ctx.source_map.get(&*table).map_or(&[][..], |v| v);
        // `iter_mut` is what hands out several views at once; its order is
        // the hasher's, so put them back in registration order — the
        // fault-site hit sequence depends on it.
        let mut views: Vec<(&Arc<str>, &mut GraphView)> = ctx
            .graph_views
            .iter_mut()
            .filter_map(|(name, view)| Some((fed.iter().find(|f| ***f == **name)?, view)))
            .collect();
        views.sort_unstable_by_key(|(name, _)| fed.iter().position(|f| Arc::ptr_eq(f, name)));
        let writer = Writer {
            gov: ctx.gov,
            journal,
            table,
            views,
        };
        (&mut *ctx.catalog, writer)
    }
}

/// An environment with nothing bound: DML expressions read one table's row
/// (or nothing at all), never a catalog object.
fn empty_env() -> QueryEnv<'static> {
    QueryEnv {
        snap: None,
        params: Vec::new(),
        gov: Default::default(),
        batch_rows: crate::spine::BATCH_ROWS,
    }
}

/// Check that `col` can store `value`, an INSERT value (`insert`) or an
/// UPDATE assignment of static type `t`: an unknown type is checked when
/// the value is written, and an INTEGER widens to a DOUBLE.
fn check_admissible(t: Ty, col: &Column, value: &Expr, insert: bool) -> Result<()> {
    let ok = match t {
        None => true,
        Some(DataType::Integer) => matches!(col.data_type, DataType::Integer | DataType::Double),
        Some(dt) => dt == col.data_type,
    };
    if ok {
        return Ok(());
    }
    let (verb, to) = if insert {
        ("insert", "into")
    } else {
        ("assign", "to")
    };
    Err(Error::analysis(format!(
        "cannot {verb} {} {to} column `{}` ({}){}",
        show(t),
        col.name,
        col.data_type,
        value.span_suffix()
    )))
}

/// Rows of `table` matching an optional predicate (read phase: collect row
/// ids and contents before any mutation), in ascending `RowId` order.
///
/// The rows come through the access path [`access::choose`] picks for the
/// predicate's conjuncts — index candidates re-checked against the whole
/// predicate — whenever evaluating the predicate cannot fail on any row
/// ([`PhysExpr::infallible`]). A predicate that can fail is walked over
/// the whole table, because the statement must surface the error of the
/// first row in scan order that raises one, candidate or not.
fn matching_rows(
    table: &Table,
    table_name: &str,
    selection: &Option<Expr>,
) -> Result<Vec<(RowId, Row)>> {
    let pred = match selection {
        Some(e) => {
            let ns = Namespace::table(table_name, table.schema().clone())?;
            Some(compile_predicate(e, &ns, "WHERE")?)
        }
        None => None,
    };
    let env = empty_env();
    let candidates = match &pred {
        Some(p) if p.infallible() => {
            let indexes: Vec<_> = table.indexes().map(|ix| (ix.column(), ix.kind())).collect();
            access::choose(p.conjuncts(), &indexes).candidates(table, &env)?
        }
        _ => None,
    };
    select_rows(table, pred.as_ref(), &env, candidates)
}

/// The rows among `candidates` (`None` = every live row) that satisfy
/// `pred`, with their ids. Candidates are ascending, so the output order is
/// the scan's either way.
fn select_rows(
    table: &Table,
    pred: Option<&PhysExpr>,
    env: &QueryEnv<'_>,
    candidates: Option<Vec<RowId>>,
) -> Result<Vec<(RowId, Row)>> {
    let rows: Box<dyn Iterator<Item = (RowId, &Row)>> = match candidates {
        Some(ids) => Box::new(ids.into_iter().filter_map(|id| Some((id, table.get(id)?)))),
        None => Box::new(table.scan()),
    };
    let mut out = Vec::new();
    for (id, row) in rows {
        #[cfg(test)]
        tests::ROWS_EXAMINED.with(|n| n.set(n.get() + 1));
        if pred.map_or(Ok(true), |p| p.matches(row, env))? {
            out.push((id, row.clone())); // alloc-ok: the victim copy is what the read phase returns
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// INSERT
// ---------------------------------------------------------------------------

/// Execute an `INSERT ... VALUES`, maintaining affected graph views
/// (§3.3.2). `INSERT ... SELECT` is evaluated by the engine layer, which
/// feeds the materialized rows to [`execute_insert_rows`].
pub fn execute_insert(ctx: &mut DmlCtx<'_>, journal: &mut Journal, ins: &Insert) -> Result<u64> {
    let grfusion_sql::InsertSource::Values(value_rows) = &ins.source else {
        return Err(Error::execution(
            "INSERT ... SELECT must be evaluated by the engine layer",
        ));
    };
    let schema = ctx.catalog.table(&ins.table.to_ascii_lowercase())?.schema();
    let positions = insert_positions(schema, &ins.columns)?;
    if let Some(bad) = value_rows.iter().find(|r| r.len() != positions.len()) {
        return Err(Error::analysis(format!(
            "INSERT expects {} values, got {}",
            positions.len(),
            bad.len()
        )));
    }
    // A literal is its own value; anything else is a constant expression
    // compiled against nothing. One namespace and environment serve the
    // whole statement. Each statically certain type must be admissible in
    // its column before the value is computed.
    let (ns, env) = (Namespace::empty(), empty_env());
    let no_row = Row::new();
    let eval = |e: &Expr, pos: usize| {
        let col = schema.column(pos);
        match e {
            Expr::Literal(v) => {
                check_admissible(value_type(v), col, e, true)?;
                Ok(v.clone())
            }
            e => {
                let pe = compile(e, &ns)?;
                check_admissible(pe.ty(), col, e, true)?;
                pe.eval(&no_row, &env)
            }
        }
    };
    let mut rows: Vec<Row> = Vec::with_capacity(value_rows.len());
    for exprs in value_rows {
        // Sized up front: collecting through `Result` would grow it twice.
        let mut row = Row::with_capacity(exprs.len()); // alloc-ok: the row being inserted
        for (e, pos) in exprs.iter().zip(&positions) {
            row.push(eval(e, *pos)?);
        }
        rows.push(row);
    }
    execute_insert_rows(ctx, journal, &ins.table, &ins.columns, rows)
}

/// Resolve an INSERT's optional column list to schema positions.
fn insert_positions(
    schema: &grfusion_common::Schema,
    columns: &Option<Vec<String>>,
) -> Result<Vec<usize>> {
    match columns {
        None => Ok((0..schema.len()).collect()),
        Some(cols) => cols.iter().map(|c| schema.resolve(c)).collect(),
    }
}

/// Insert pre-evaluated value rows, honoring an optional column list
/// (missing columns become NULL).
pub fn execute_insert_rows(
    ctx: &mut DmlCtx<'_>,
    journal: &mut Journal,
    table: &str,
    columns: &Option<Vec<String>>,
    rows: Vec<Row>,
) -> Result<u64> {
    let (catalog, mut w) = Writer::open(ctx, journal, table);
    let table = catalog.table_mut(&w.table)?;
    let width = table.schema().len();
    let positions = insert_positions(table.schema(), columns)?;

    let mut n = 0u64;
    for value_row in rows {
        if value_row.len() != positions.len() {
            return Err(arity_error(positions.len(), value_row.len()));
        }
        // Without a column list the values already are the row.
        let row = if columns.is_none() {
            value_row
        } else {
            let mut row: Row = vec![Value::Null; width]; // alloc-ok: the row being inserted
            for (pos, v) in positions.iter().zip(value_row) {
                row[*pos] = v;
            }
            row
        };
        w.gov.fault("dml.insert.row")?;
        w.insert_row(table, row)?;
        w.gov.fault("dml.insert.post")?;
        n += 1;
    }
    Ok(n)
}

fn arity_error(expected: usize, got: usize) -> Error {
    Error::execution(format!("INSERT expects {expected} values, got {got}"))
}

impl Writer<'_> {
    /// Store one row, journal it and maintain the views its table feeds.
    /// Maintenance reads the row where storage put it.
    fn insert_row(&mut self, table: &mut Table, row: Row) -> Result<()> {
        let row_id = table.insert(row)?;
        self.journal.record_storage(UndoOp::Insert {
            table: self.table.clone(), // alloc-ok: Arc bump
            row: row_id,
        });
        if self.views.is_empty() {
            return Ok(());
        }
        let row = table
            .get(row_id)
            .ok_or_else(|| Error::execution("inserted row is not live"))?;
        for (gv_name, view) in &mut self.views {
            self.gov.fault("dml.insert.maintain")?;
            let def = &view.def;
            if def.vertex_source == *self.table {
                let id = def.vertex_id_of(row)?;
                view.topology.add_vertex(id, row_id)?;
                self.journal.record_graph(gv_name, GraphUndo::AddedVertex { id });
            }
            if def.edge_source == *self.table {
                let (id, from, to) = def.edge_of(row)?;
                view.topology.add_edge(id, from, to, row_id)?;
                self.journal.record_graph(gv_name, GraphUndo::AddedEdge { id });
            }
        }
        Ok(())
    }

    /// Topology maintenance for one row about to be deleted.
    fn maintain_delete(&mut self, row: &Row) -> Result<()> {
        for (gv_name, view) in &mut self.views {
            self.gov.fault("dml.delete.maintain")?;
            let def = &view.def;
            if def.edge_source == *self.table {
                let (id, from, to) = def.edge_of(row)?;
                let tuple = view.topology.remove_edge(id)?;
                self.journal
                    .record_graph(gv_name, GraphUndo::RemovedEdge { id, from, to, tuple });
            }
            if def.vertex_source == *self.table {
                let id = def.vertex_id_of(row)?;
                let tuple = view.topology.remove_vertex(id)?;
                self.journal
                    .record_graph(gv_name, GraphUndo::RemovedVertex { id, tuple });
            }
        }
        Ok(())
    }

    /// Topology and identifier maintenance for one row about to be
    /// rewritten (§3.3.1). Takes the catalog, not the target table: a
    /// vertex-id change cascades into the edge source, which may be any
    /// table — the target included.
    fn maintain_update(
        &mut self,
        catalog: &mut Catalog,
        row_id: RowId,
        old_row: &Row,
        new_row: &Row,
    ) -> Result<()> {
        let gov = self.gov;
        for (gv_name, view) in &mut self.views {
            gov.fault("dml.update.maintain")?;
            let def = &view.def;
            if def.vertex_source == *self.table {
                let (old_id, new_id) = (def.vertex_id_of(old_row)?, def.vertex_id_of(new_row)?);
                if old_id != new_id {
                    view.topology.rename_vertex(old_id, new_id)?;
                    self.journal.record_graph(
                        gv_name,
                        GraphUndo::RenamedVertex {
                            from: old_id,
                            to: new_id,
                        },
                    );
                    // Cascade the new id into the edges relational-source
                    // (§3.3.1: referential integrity of the edge source on
                    // vertex-id update).
                    cascade_vertex_id(gov, self.journal, catalog, view, old_id, new_id)?;
                }
            }
            if def.edge_source == *self.table {
                let (old_id, old_from, old_to) = def.edge_of(old_row)?;
                let (cur_id, new_from, new_to) = def.edge_of(new_row)?;
                // An edge whose copied attributes change reads its tuple
                // until the next seal. A relinked edge is reborn in a new
                // slot below, which the columns do not cover.
                if !view.columns.is_empty() {
                    let slot = view.topology.edge_slot(old_id)?;
                    view.columns.note_update(slot, old_row, new_row);
                }
                if old_id != cur_id {
                    view.topology.rename_edge(old_id, cur_id)?;
                    self.journal.record_graph(
                        gv_name,
                        GraphUndo::RenamedEdge {
                            from: old_id,
                            to: cur_id,
                        },
                    );
                }
                if (old_from, old_to) != (new_from, new_to) {
                    // Re-link: drop the old edge and add the new one.
                    let tuple = view.topology.remove_edge(cur_id)?;
                    self.journal.record_graph(
                        gv_name,
                        GraphUndo::RemovedEdge {
                            id: cur_id,
                            from: old_from,
                            to: old_to,
                            tuple,
                        },
                    );
                    // The nastiest crash point: the edge is gone from the
                    // topology but not yet re-added — rollback must restore it.
                    gov.fault("dml.update.relink")?;
                    view.topology.add_edge(cur_id, new_from, new_to, row_id)?;
                    self.journal
                        .record_graph(gv_name, GraphUndo::AddedEdge { id: cur_id });
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DELETE
// ---------------------------------------------------------------------------

/// Execute a DELETE, maintaining affected graph views.
pub fn execute_delete(ctx: &mut DmlCtx<'_>, journal: &mut Journal, del: &Delete) -> Result<u64> {
    let (catalog, mut w) = Writer::open(ctx, journal, &del.table);
    let table = catalog.table_mut(&w.table)?;
    let victims = matching_rows(table, &w.table, &del.selection)?;
    let mut n = 0u64;
    for (row_id, row) in victims {
        // Topology first: a vertex with incident edges refuses deletion,
        // aborting the statement before storage is touched for this row.
        w.maintain_delete(&row)?;
        w.gov.fault("dml.delete.storage")?;
        let old = table.delete(row_id)?;
        w.journal.record_storage(UndoOp::Delete {
            table: w.table.clone(), // alloc-ok: Arc bump
            row: row_id,
            old,
        });
        w.gov.fault("dml.delete.post")?;
        n += 1;
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// UPDATE
// ---------------------------------------------------------------------------

/// Execute an UPDATE, maintaining affected graph views (§3.3.1).
pub fn execute_update(ctx: &mut DmlCtx<'_>, journal: &mut Journal, upd: &Update) -> Result<u64> {
    let (catalog, mut w) = Writer::open(ctx, journal, &upd.table);
    let table = catalog.table(&w.table)?;
    let schema = table.schema().clone();

    // Compile assignments once; each statically certain type must be
    // admissible in its column.
    let ns = Namespace::table(&w.table, schema.clone())?;
    let mut compiled: Vec<(usize, PhysExpr)> = Vec::with_capacity(upd.assignments.len());
    for (col, expr) in &upd.assignments {
        let pos = schema.resolve(col)?;
        let pe = compile(expr, &ns)?;
        check_admissible(pe.ty(), schema.column(pos), expr, false)?;
        compiled.push((pos, pe));
    }

    let victims = matching_rows(table, &w.table, &upd.selection)?;
    let env = empty_env();

    let mut n = 0u64;
    for (row_id, old_row) in victims {
        let mut new_row = old_row.clone(); // alloc-ok: the row being written; maintenance compares it with the old one
        for (pos, expr) in &compiled {
            new_row[*pos] = expr.eval(&old_row, &env)?;
        }
        // Topology / identifier consistency before the storage write.
        w.maintain_update(catalog, row_id, &old_row, &new_row)?;
        w.gov.fault("dml.update.storage")?;
        // Resolved per row: the cascade above may have written this table.
        let old = catalog.table_mut(&w.table)?.update(row_id, new_row)?;
        w.journal.record_storage(UndoOp::Update {
            table: w.table.clone(), // alloc-ok: Arc bump
            row: row_id,
            old,
        });
        w.gov.fault("dml.update.post")?;
        n += 1;
    }
    Ok(n)
}

/// Propagate a vertex-id change into every edge-source row that references
/// the old id.
///
/// The rows are found through the topology, not by scanning the edge
/// source: §3.3 maintenance keeps edge-source rows and topology edges one
/// to one, so the rows naming a vertex are the tuple pointers of its
/// incident edges (the vertex was just renamed, so it is looked up by
/// `new_id`). They are visited in ascending `RowId` order — the scan's —
/// and each is still checked to name `old_id` before it is rewritten.
fn cascade_vertex_id(
    gov: &ExecContext,
    journal: &mut Journal,
    catalog: &mut Catalog,
    view: &GraphView,
    old_id: i64,
    new_id: i64,
) -> Result<()> {
    let (from_col, to_col) = (view.def.edge_from_col, view.def.edge_to_col);
    let names_old = |v: &Value| matches!(v, Value::Integer(i) if *i == old_id);
    let topo = &view.topology;
    let slot = topo.vertex_slot(new_id)?;
    // Undirected views list every incident edge as outgoing.
    let mut incident: Vec<RowId> = topo
        .out_hops(slot)
        .iter()
        .map(|&(e, _)| e)
        .chain(topo.in_edges(slot).iter().copied())
        .map(|e| topo.edge_tuple(e))
        .collect();
    incident.sort_unstable();
    incident.dedup(); // a self-loop is both outgoing and incoming
    let table: Arc<str> = view.def.edge_source.as_str().into();
    let edges = catalog.table_mut(&table)?;
    // There is no scan to fall back on, so a view that covered only part of
    // its edge source (a filter, a row maintenance skipped) would make the
    // cascade miss referencing rows silently: say so instead.
    debug_assert_eq!(
        edges.len(),
        topo.edge_count(),
        "graph view `{}`: edge-source rows and topology edges are not one to one",
        view.def.name
    );
    for row_id in incident {
        let Some(row) = edges.get(row_id) else {
            continue;
        };
        if !(names_old(&row[from_col]) || names_old(&row[to_col])) {
            continue;
        }
        let mut new_row = row.clone(); // alloc-ok: the row being written
        gov.fault("dml.update.cascade")?;
        for col in [from_col, to_col] {
            if names_old(&new_row[col]) {
                new_row[col] = Value::Integer(new_id);
            }
        }
        let old = edges.update(row_id, new_row)?;
        journal.record_storage(UndoOp::Update {
            table: table.clone(), // alloc-ok: Arc bump
            row: row_id,
            old,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests;
