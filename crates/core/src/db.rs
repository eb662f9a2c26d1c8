//! The `Database` facade: GRFusion's public API.
//!
//! One object owns the catalog, the graph views, the transaction state and
//! the settings, and executes SQL statements **serially** — the
//! H-Store/VoltDB single-partition execution model the paper builds on
//! (§7.2 credits part of GRFusion's speedups to this
//! lock-free-by-construction concurrency model). The one engine lock,
//! `DbInner`, owns every live table, topology and setting *by value*:
//! holding it is the only way to reach one, so there is no lock below it —
//! a statement borrows what it writes `&mut`, a read borrows it shared, and
//! the borrow checker proves the exclusion. A statement locks it once and
//! runs as `DbInner` methods, which hold no `&Database` and so cannot
//! re-lock it (the xtask `lock-order` pass refuses a `DbInner` beside a
//! `Database`). Every read — ad hoc, prepared, `EXPLAIN`, the state dump —
//! binds that live state, so a read inside an open transaction sees its
//! writes. The cancel token sits beside the lock in a `OnceLock`, so
//! `cancel_token()` never waits behind a running statement. `Database` is
//! `Send + Sync` (asserted below); concurrent callers queue on the lock.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use grfusion_common::{DataType, Error, Result, Schema};
use grfusion_graph::GraphStats;
use grfusion_sql::{parse_statement, parse_statements, CreateIndex, CreateTable, Statement, TypeName};
use grfusion_storage::{Catalog, IndexKind, Table};
use parking_lot::Mutex;

use crate::config::EngineConfig;
use crate::dml::{self, DmlCtx, Journal};
use crate::governor::{CancelToken, ExecContext, FaultPlan, FaultState};
use crate::expr::GraphMeta;
use crate::graph_view::{GraphView, GraphViewDef};
use crate::planner::PlannerCtx;
use crate::result::ResultSet;
use crate::snapshot::{has_subquery, Snapshot, Sources};

/// Everything the engine lock guards — and owns.
struct DbInner {
    catalog: Catalog,
    /// Lowercase graph-view name → view object (singleton topology).
    graph_views: HashMap<String, GraphView>,
    /// Lowercase table name → graph views sourcing from it (§3.3: each
    /// relational source knows the views it feeds).
    source_map: HashMap<String, Vec<Arc<str>>>,
    /// Journal of the open explicit transaction, if any.
    txn: Option<Journal>,
    /// Cached planner context — schemas and graph metadata only change on
    /// DDL, so queries reuse it (VoltDB-style pre-compiled metadata; DDL
    /// invalidates).
    plan_ctx: Option<Arc<PlannerCtx>>,
    settings: Settings,
}

/// What a statement runs under, besides the data it reads: set by
/// `Database::with_config` and the setters, never by the environment.
pub(crate) struct Settings {
    pub config: EngineConfig,
    /// Fault-injection state shared by all statements (hit counters persist
    /// across statements so a retried statement runs past a spent rule).
    pub faults: Option<Arc<FaultState>>,
    /// Rows per batch (`spine::BATCH_ROWS` unless a test swept it).
    pub batch_rows: usize,
}

impl Settings {
    /// The per-statement governor: the config's limits, the database's
    /// cancel token (armed from now, so a past cancel never bleeds into
    /// this statement), the thread's request scope and the fault plan.
    pub(crate) fn exec_context(&self, cancel: Option<&CancelToken>) -> ExecContext {
        ExecContext::for_query(&self.config.governor, cancel, self.faults.clone())
    }
}

/// An in-memory relational database with native graph support.
pub struct Database {
    inner: Mutex<DbInner>,
    /// Cancellation token, created the first time a caller asks for one.
    /// While none has been handed out, statements run with no cancel watch
    /// at all, so the governor stays inactive (zero overhead) unless a
    /// deadline or memory cap is also configured.
    cancel: OnceLock<CancelToken>,
}

// Server connections and reader threads share one `Database` by reference.
// `Sync` derives from the engine lock and the `OnceLock` alone — nothing
// below them is shared.
const _: () = {
    const fn send_and_sync<T: Send + Sync>() {}
    send_and_sync::<Database>()
};

/// A compiled SELECT statement (see [`Database::prepare`]).
pub struct PreparedQuery {
    pub(crate) plan: crate::plan::PlanNode,
    /// What the plan was prepared against; empty for an ad-hoc query,
    /// which runs in the snapshot it was compiled in.
    pub(crate) sources: Sources,
}

impl PreparedQuery {
    /// EXPLAIN-style plan text.
    pub fn explain(&self) -> String {
        self.plan.explain()
    }

    /// The `EXPLAIN` statement's text: every node with its typed schema.
    pub(crate) fn explain_typed(&self) -> String {
        crate::analyze::explain_typed(&self.plan)
    }
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl Database {
    /// Create an empty database with default configuration.
    pub fn new() -> Database {
        Database::with_config(EngineConfig::default())
    }

    /// Create an empty database with a custom configuration (used by the
    /// benchmark harness for optimizer ablations and resource limits).
    pub fn with_config(config: EngineConfig) -> Database {
        Database {
            inner: Mutex::new(DbInner {
                catalog: Catalog::new(),
                graph_views: HashMap::new(),
                source_map: HashMap::new(),
                txn: None,
                plan_ctx: None,
                settings: Settings {
                    config,
                    faults: None,
                    batch_rows: crate::spine::BATCH_ROWS,
                },
            }),
            cancel: OnceLock::new(),
        }
    }

    /// Handle for cancelling in-flight queries from another thread.
    /// Cancellation is edge-triggered: [`CancelToken::cancel`] aborts the
    /// queries running *at that moment* and nothing issued afterwards — a
    /// pooled connection's next query is unaffected. Creating the token is
    /// what arms the cooperative checks; a database nobody can cancel pays
    /// nothing for the feature. Never waits behind a running statement.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.get_or_init(CancelToken::default).clone()
    }

    /// Install (or with `None` clear) a deterministic fault-injection plan
    /// and reset all hit counters (takes effect on the next statement).
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.inner.lock().settings.faults = plan.map(|p| Arc::new(FaultState::new(p)));
    }

    /// Test hook: run every later query with `rows` (at least one) as its
    /// batch size instead of the engine's constant. Answers, errors and
    /// state must not depend on it — that is what the differential oracle
    /// sweeps it to show.
    #[doc(hidden)]
    pub fn set_batch_rows(&self, rows: usize) {
        self.inner.lock().settings.batch_rows = rows.max(1);
    }

    /// Replace the engine configuration (takes effect on the next
    /// statement).
    pub fn set_config(&self, config: EngineConfig) {
        self.inner.lock().settings.config = config;
    }

    /// Current configuration.
    pub fn config(&self) -> EngineConfig {
        self.inner.lock().settings.config
    }

    /// Run `f` over the live state under the engine lock — the one read
    /// source, uncommitted writes of an open transaction included.
    fn read<T>(&self, f: impl FnOnce(&Snapshot<'_>) -> Result<T>) -> Result<T> {
        self.inner.lock().read(self.cancel.get(), f)
    }

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a semicolon-separated script, returning the last result.
    pub fn execute_script(&self, sql: &str) -> Result<ResultSet> {
        self.run_script(&parse_statements(sql)?)
    }

    fn run_script(&self, stmts: &[Statement]) -> Result<ResultSet> {
        let mut last = ResultSet::empty();
        for s in stmts {
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    /// [`Database::execute_script`] under per-request options: a wall-clock
    /// deadline (tightening — never loosening — the configured governor
    /// deadline) and a request-scoped cancel token a front-end trips on
    /// client disconnect. This is the network server's entry point; the
    /// whole script shares one deadline budget, subquery folding included,
    /// and is refused as a whole — before its first statement runs — if any
    /// statement is transaction control: each served script is its own
    /// transaction.
    pub fn execute_script_with_request(
        &self,
        sql: &str,
        opts: &crate::governor::RequestOptions,
    ) -> Result<ResultSet> {
        let _guard = crate::governor::enter_request(opts);
        let stmts = parse_statements(sql)?;
        refuse_transaction_control(&stmts)?;
        self.run_script(&stmts)
    }

    /// Execute a parsed statement.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<ResultSet> {
        self.inner.lock().execute(stmt, self.cancel.get())
    }

    /// Bulk-insert pre-built rows into a table (the loader path: no SQL
    /// text to parse — VoltDB similarly ships a bulk loader). The rows run
    /// through SQL INSERT's own loop, so graph views, transactional
    /// semantics, fault sites and cancellation are exactly INSERT's.
    pub fn bulk_insert(&self, table: &str, rows: Vec<grfusion_common::Row>) -> Result<u64> {
        let rs = self
            .inner
            .lock()
            .run_dml(self.cancel.get(), |ctx, journal| {
                dml::execute_insert_rows(ctx, journal, table, &None, rows)
            })?;
        Ok(rs.rows_affected)
    }

    /// Prepare a SELECT statement with `?` parameter placeholders.
    ///
    /// Parsing and planning happen once; each [`Database::execute_prepared`]
    /// call only binds parameters and runs the stored plan — the stored
    /// procedure execution model of VoltDB, which is how the paper's system
    /// avoids per-query SQL processing (§7.2). The plan is bound to the
    /// tables and graph views it reads: once one is dropped or recreated,
    /// every execution fails with a catalog error naming it until the
    /// statement is prepared again. DDL on other objects leaves it runnable.
    ///
    /// Planner analyses that need literal values (path-length inference,
    /// §6.1) cannot see through `?`; put length bounds inline and
    /// parameterize the rest.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = &stmt else {
            return Err(Error::analysis("only SELECT statements can be prepared"));
        };
        // Subqueries fold at prepare time: their results are frozen into
        // the stored plan (documented prepared-statement semantics).
        self.read(|snap| snap.prepare(select))
    }

    /// Execute a prepared query with the given parameter values (bound to
    /// the `?` placeholders in order of appearance).
    pub fn execute_prepared(
        &self,
        query: &PreparedQuery,
        params: &[grfusion_common::Value],
    ) -> Result<ResultSet> {
        self.read(|snap| snap.run(query, params.to_vec(), false))
    }

    /// Execute a SELECT with per-operator instrumentation. The result
    /// carries the query's normal rows *and* `metrics: Some(..)` — the
    /// programmatic twin of `EXPLAIN ANALYZE` (used by the bench harness
    /// to emit per-operator stats alongside timings).
    pub fn execute_with_metrics(&self, sql: &str) -> Result<ResultSet> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = &stmt else {
            return Err(Error::analysis(
                "execute_with_metrics supports SELECT statements only",
            ));
        };
        self.read(|snap| snap.select(select, true))
    }

    /// EXPLAIN-style plan text for a SELECT statement.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = &stmt else {
            return Err(Error::analysis("EXPLAIN supports SELECT statements only"));
        };
        self.read(|snap| Ok(snap.compile(select)?.explain_typed()))
    }

    /// Statistics of a graph view's materialized topology (vertex/edge
    /// counts, average fan-out, approximate memory — the §6.3 catalog
    /// statistic plus the build-cost experiment's memory number). The
    /// sealed bytes, and so the memory, include the edge columns a seal
    /// copies.
    pub fn graph_stats(&self, name: &str) -> Result<GraphStats> {
        let inner = self.inner.lock();
        let view = inner
            .graph_views
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::catalog(format!("graph view `{name}` does not exist")))?;
        let mut stats = view.topology.stats();
        let columns = view.columns.bytes();
        stats.sealed_bytes += columns;
        stats.memory_bytes += columns;
        Ok(stats)
    }

    /// Names of all graph views (sorted).
    pub fn graph_view_names(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner.graph_views.keys().cloned().collect();
        names.sort();
        names
    }

    /// Names of all tables (sorted).
    pub fn table_names(&self) -> Vec<String> {
        self.inner.lock().catalog.table_names()
    }

    /// Row count of a table.
    pub fn table_len(&self, name: &str) -> Result<usize> {
        let inner = self.inner.lock();
        Ok(inner.catalog.table(name)?.len())
    }

    /// Deterministic dump of all observable state: every table's rows (with
    /// their stable row ids) and every graph view's topology, each sorted so
    /// the text is independent of iteration order. The robustness battery
    /// snapshots this before and after a fault-injected statement: equal
    /// dumps prove the statement was all-or-nothing across storage, indexes,
    /// and topologies.
    pub fn state_dump(&self) -> Result<String> {
        self.read(|snap| Ok(snap.state_dump()))
    }
}

impl DbInner {
    /// Run one statement under the engine lock the caller holds. `cancel`
    /// is the database's cancel token, if one was handed out.
    fn execute(&mut self, stmt: &Statement, cancel: Option<&CancelToken>) -> Result<ResultSet> {
        match stmt {
            Statement::Select(select) => self.read(cancel, |snap| snap.select(select, false)),
            Statement::Explain { analyze, select } => {
                self.read(cancel, |snap| snap.explain(select, *analyze))
            }
            Statement::CreateTable(ct) => ddl(self, |inner| create_table(inner, ct)),
            Statement::CreateIndex(ci) => ddl(self, |inner| create_index(inner, ci)),
            Statement::CreateGraphView(cgv) => ddl(self, |inner| {
                let seal = inner.settings.config.csr.sealed;
                create_graph_view(inner, cgv, seal)
            }),
            Statement::DropTable { name } => ddl(self, |inner| drop_table(inner, name)),
            Statement::DropGraphView { name } => ddl(self, |inner| drop_graph_view(inner, name)),
            Statement::Insert(ins) => match &ins.source {
                grfusion_sql::InsertSource::Values(_) => self.run_dml(cancel, |ctx, journal| {
                    dml::execute_insert(ctx, journal, ins)
                }),
                grfusion_sql::InsertSource::Select(select) => {
                    // INSERT ... SELECT: materialize the query first (the
                    // engine is serial, so this is a consistent snapshot),
                    // then insert through the normal maintenance path.
                    let rs = self.read(cancel, |snap| snap.select(select, false))?;
                    self.run_dml(cancel, |ctx, journal| {
                        dml::execute_insert_rows(ctx, journal, &ins.table, &ins.columns, rs.rows)
                    })
                }
            },
            Statement::Update(upd) => {
                let mut upd = upd.clone();
                self.fold_predicate(cancel, &mut upd.selection)?;
                self.run_dml(cancel, move |ctx, journal| {
                    dml::execute_update(ctx, journal, &upd)
                })
            }
            Statement::Delete(del) => {
                let mut del = del.clone();
                self.fold_predicate(cancel, &mut del.selection)?;
                self.run_dml(cancel, move |ctx, journal| {
                    dml::execute_delete(ctx, journal, &del)
                })
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(Error::transaction("transaction already in progress"));
                }
                self.txn = Some(Journal::new());
                Ok(ResultSet::empty())
            }
            Statement::Commit => {
                if self.txn.take().is_none() {
                    return Err(Error::transaction("no transaction in progress"));
                }
                Ok(ResultSet::empty())
            }
            Statement::Rollback => {
                let Some(mut journal) = self.txn.take() else {
                    return Err(Error::transaction("no transaction in progress"));
                };
                journal.rollback_to(&mut self.catalog, &mut self.graph_views, 0)?;
                Ok(ResultSet::empty())
            }
        }
    }

    /// Run `f` over the live state — the one read source, uncommitted
    /// writes of an open transaction included.
    fn read<T>(
        &mut self,
        cancel: Option<&CancelToken>,
        f: impl FnOnce(&Snapshot<'_>) -> Result<T>,
    ) -> Result<T> {
        let plan_ctx = cached_planner_ctx(self)?;
        let snap = Snapshot::locked(
            &self.catalog,
            &self.graph_views,
            &plan_ctx,
            &self.settings,
            cancel,
        );
        f(&snap)
    }
}

/// Refuse transaction control arriving through a request.
///
/// The open transaction is one slot per `Database`, and served connections
/// share the `Database`: a `BEGIN` would outlive the request that sent it,
/// capture every other connection's acknowledged writes in its journal, and
/// let any connection's `ROLLBACK` erase them. In-process callers own their
/// `Database` and keep `BEGIN … COMMIT`.
fn refuse_transaction_control(stmts: &[Statement]) -> Result<()> {
    let control = |s: &Statement| {
        matches!(s, Statement::Begin | Statement::Commit | Statement::Rollback)
    };
    if stmts.iter().any(control) {
        return Err(Error::transaction(
            "BEGIN / COMMIT / ROLLBACK are not available to a served request: \
             connections share one database, so each served statement is its own transaction",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

/// Run a DDL statement: it invalidates the cached planner context.
fn ddl(inner: &mut DbInner, f: impl FnOnce(&mut DbInner) -> Result<()>) -> Result<ResultSet> {
    f(inner)?;
    inner.plan_ctx = None;
    Ok(ResultSet::empty())
}

fn map_type(t: TypeName) -> DataType {
    match t {
        TypeName::Integer => DataType::Integer,
        TypeName::Double => DataType::Double,
        TypeName::Boolean => DataType::Boolean,
        TypeName::Varchar => DataType::Varchar,
    }
}

fn create_table(inner: &mut DbInner, ct: &CreateTable) -> Result<()> {
    if ct.columns.is_empty() {
        return Err(Error::analysis("CREATE TABLE requires at least one column"));
    }
    let schema = Schema::new(
        ct.columns
            .iter()
            .map(|c| grfusion_common::Column::new(c.name.to_ascii_lowercase(), map_type(c.data_type)))
            .collect(),
    );
    let mut table = Table::new(ct.name.clone(), schema);
    let pks: Vec<usize> = ct
        .columns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.primary_key)
        .map(|(i, _)| i)
        .collect();
    if pks.len() > 1 {
        return Err(Error::analysis("composite primary keys are not supported"));
    }
    if let Some(&pk) = pks.first() {
        table.create_index(
            format!("pk_{}", ct.name.to_ascii_lowercase()),
            pk,
            true,
            IndexKind::Hash,
        )?;
    }
    inner.catalog.create_table(table)?;
    Ok(())
}

fn create_index(inner: &mut DbInner, ci: &CreateIndex) -> Result<()> {
    let table = inner.catalog.table_mut(&ci.table)?;
    let col = table.schema().resolve(&ci.column)?;
    let kind = if ci.ordered {
        IndexKind::Ordered
    } else {
        IndexKind::Hash
    };
    table.create_index(ci.name.clone(), col, ci.unique, kind)
}

fn create_graph_view(
    inner: &mut DbInner,
    cgv: &grfusion_sql::CreateGraphView,
    seal: bool,
) -> Result<()> {
    let name = cgv.name.to_ascii_lowercase();
    if inner.graph_views.contains_key(&name) {
        return Err(Error::catalog(format!(
            "graph view `{}` already exists",
            cgv.name
        )));
    }
    let def = GraphViewDef::resolve(cgv, &inner.catalog)?;
    let mut view = GraphView::materialize(def, &inner.catalog)?;
    // Compact the freshly built adjacency into sealed CSR arrays right
    // away: materialization is the one moment the topology is complete and
    // overlay-free, so the seal is a straight copy.
    if seal {
        let def = view.def.clone();
        let edge_source = def.edge_source.as_str();
        let mut links = GraphView::links(inner.graph_views.values(), edge_source);
        links.extend([def.edge_id_col, def.edge_from_col, def.edge_to_col]);
        view.seal(inner.catalog.table(edge_source)?, &links);
        // A view over the same edge source that copied one of this view's
        // links would miss the cascades that rewrite it: it reads its
        // tuples until its next seal, which leaves the column out.
        for other in inner.graph_views.values_mut() {
            let fed = other.def.edge_source == edge_source;
            if fed && links.iter().any(|&c| other.columns.copies(c)) {
                other.columns.clear();
            }
        }
    }
    // Register the view with each of its sources (§3.3: a source knows the
    // views it feeds). A table used for both roles is registered once.
    let mut sources = vec![view.def.vertex_source.clone()];
    if view.def.edge_source != view.def.vertex_source {
        sources.push(view.def.edge_source.clone());
    }
    for s in sources {
        inner.source_map.entry(s).or_default().push(name.as_str().into());
    }
    inner.graph_views.insert(name, view);
    Ok(())
}

fn drop_graph_view(inner: &mut DbInner, name: &str) -> Result<()> {
    let lower = name.to_ascii_lowercase();
    if inner.graph_views.remove(&lower).is_none() {
        return Err(Error::catalog(format!(
            "graph view `{name}` does not exist"
        )));
    }
    for views in inner.source_map.values_mut() {
        views.retain(|v| **v != *lower);
    }
    inner.source_map.retain(|_, v| !v.is_empty());
    Ok(())
}

fn drop_table(inner: &mut DbInner, name: &str) -> Result<()> {
    let lower = name.to_ascii_lowercase();
    if let Some(views) = inner.source_map.get(&lower) {
        if !views.is_empty() {
            return Err(Error::constraint(format!(
                "table `{name}` is a relational source of graph view(s) {views:?}; drop them first"
            )));
        }
    }
    inner.catalog.drop_table(&lower)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// DML with transactions
// ---------------------------------------------------------------------------

/// Overlaid share of a sealed view's live vertexes at which the next DML
/// statement re-seals it.
const RESEAL_FRACTION: f64 = 0.25;

impl DbInner {
    /// Run one DML statement atomically: inside an open transaction behind
    /// a savepoint in its journal, otherwise in a journal of its own
    /// (auto-commit). A failure rolls back exactly the statement's changes.
    fn run_dml<F>(&mut self, cancel: Option<&CancelToken>, f: F) -> Result<ResultSet>
    where
        F: FnOnce(&mut DmlCtx<'_>, &mut Journal) -> Result<u64>,
    {
        // Governor context for cancellation/deadline checkpoints, fault
        // sites and re-seal byte accounting.
        let gov = self.settings.exec_context(cancel);
        let sealed = self.settings.config.csr.sealed;
        let mut ctx = DmlCtx {
            catalog: &mut self.catalog,
            graph_views: &mut self.graph_views,
            source_map: &self.source_map,
            gov: &gov,
        };
        let mut auto_commit = Journal::new();
        let journal = self.txn.as_mut().unwrap_or(&mut auto_commit);
        let sp = journal.savepoint();
        match f(&mut ctx, journal).and_then(|n| {
            maybe_reseal(&mut ctx, sealed)?;
            Ok(n)
        }) {
            Ok(n) => Ok(ResultSet::affected(n)),
            Err(e) => {
                journal.rollback_to(ctx.catalog, ctx.graph_views, sp)?;
                Err(e)
            }
        }
    }

    /// Fold the `IN (SELECT ...)` subqueries of an UPDATE/DELETE predicate
    /// against the writer's own view, before the statement starts mutating.
    fn fold_predicate(
        &mut self,
        cancel: Option<&CancelToken>,
        selection: &mut Option<grfusion_sql::Expr>,
    ) -> Result<()> {
        match selection {
            Some(e) if has_subquery(e) => self.read(cancel, |snap| snap.fold_expr(e)),
            _ => Ok(()),
        }
    }
}

/// Re-seal every sealed graph view whose delta overlay reached
/// [`RESEAL_FRACTION`] of its vertex set.
///
/// Runs inside the calling statement's atomicity scope, *after* the
/// statement's own maintenance succeeded: an injected fault at `dml.seal`
/// or a memory-cap refusal from the governor aborts the whole statement,
/// whose logical changes then roll back through the journal (undo works on
/// a sealed topology via the delta overlay). The seal itself is
/// build-then-swap, so a failure before the swap leaves the topology on
/// its previous layout — never half-compacted.
fn maybe_reseal(ctx: &mut DmlCtx<'_>, sealed: bool) -> Result<()> {
    if !sealed {
        return Ok(());
    }
    // Sorted order: with several views due at once, the fault-site hit
    // sequence (and thus a sweep's nth-hit selection) must be stable.
    let mut due: Vec<String> = (ctx.graph_views.iter())
        .filter(|(_, v)| v.topology.is_sealed() && v.topology.overlay_fraction() >= RESEAL_FRACTION)
        .map(|(name, _)| name.clone())
        .collect();
    due.sort_unstable();
    for name in due {
        ctx.gov.fault("dml.seal")?;
        let Some(def) = ctx.graph_views.get(&name).map(|v| v.def.clone()) else {
            continue;
        };
        let links = GraphView::links(ctx.graph_views.values(), &def.edge_source);
        let edges = ctx.catalog.table(&def.edge_source)?;
        let Some(view) = ctx.graph_views.get_mut(&name) else {
            continue;
        };
        // Charge the compacted arrays and the columns before building
        // them, so a cap violation surfaces while the view is untouched.
        if ctx.gov.active() {
            ctx.gov.charge_bytes(view.sealed_bytes_estimate(edges, &links) as u64)?;
        }
        view.seal(edges, &links);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Planner context
// ---------------------------------------------------------------------------

/// Get the cached planner context, building it on first use after DDL.
fn cached_planner_ctx(inner: &mut DbInner) -> Result<Arc<PlannerCtx>> {
    if let Some(ctx) = &inner.plan_ctx {
        return Ok(ctx.clone());
    }
    let ctx = Arc::new(planner_ctx(inner)?);
    inner.plan_ctx = Some(ctx.clone());
    Ok(ctx)
}

fn planner_ctx(inner: &DbInner) -> Result<PlannerCtx> {
    let mut tables = HashMap::new();
    let mut hash_indexed = HashMap::new();
    for (name, t) in inner.catalog.iter() {
        tables.insert(name.to_string(), t.schema().clone());
        let cols: Vec<_> = t
            .indexes()
            .filter(|ix| ix.kind() == IndexKind::Hash)
            .map(|ix| (ix.column(), IndexKind::Hash))
            .collect();
        if !cols.is_empty() {
            hash_indexed.insert(name.to_string(), cols);
        }
    }
    let mut graphs = HashMap::new();
    let mut vertex_scan_schemas = HashMap::new();
    let mut edge_scan_schemas = HashMap::new();
    for (name, view) in &inner.graph_views {
        let vt = inner.catalog.table(&view.def.vertex_source)?;
        let et = inner.catalog.table(&view.def.edge_source)?;
        graphs.insert(
            name.clone(),
            GraphMeta {
                def: view.def.clone(),
                vertex_schema: vt.schema().clone(),
                edge_schema: et.schema().clone(),
            },
        );
        vertex_scan_schemas.insert(name.clone(), Arc::new(view.def.vertex_scan_schema(vt)));
        edge_scan_schemas.insert(name.clone(), Arc::new(view.def.edge_scan_schema(et)));
    }
    Ok(PlannerCtx {
        tables,
        hash_indexed,
        graphs: Arc::new(graphs),
        vertex_scan_schemas,
        edge_scan_schemas,
    })
}
