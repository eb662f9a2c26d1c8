//! The `Database` facade: GRFusion's public API.
//!
//! One object owns the catalog, the graph views, and the transaction state,
//! and executes SQL statements **serially** — the H-Store/VoltDB
//! single-partition execution model the paper builds on (§7.2 credits part
//! of GRFusion's speedups to this lock-free-by-construction concurrency
//! model). `Database` is `Send + Sync`; concurrent callers simply queue on
//! the internal mutex.

use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{Column, DataType, Error, Result, Schema, Value};
use grfusion_graph::GraphStats;
use grfusion_sql::{parse_statement, parse_statements, CreateIndex, CreateTable, Statement, TypeName};
use grfusion_storage::{Catalog, IndexKind, Table};
use crate::lockorder::{LockClass, OrderedMutex};

use crate::config::EngineConfig;
use crate::dml::{self, DmlCtx, Journal};
use crate::env::{GraphEnv, QueryEnv};
use crate::epoch::{self, DirtySet, EpochHub, EpochView, ReaderShared};
use crate::exec::{execute_plan, execute_plan_with_metrics};
use crate::governor::{CancelToken, ExecContext, FaultPlan, FaultState};
use crate::expr::GraphMeta;
use crate::graph_view::{GraphView, GraphViewDef};
use crate::planner::{plan_select, PlannerCtx};
use crate::result::ResultSet;

struct DbInner {
    catalog: Catalog,
    /// Lowercase graph-view name → view object (singleton topology).
    graph_views: HashMap<String, GraphView>,
    /// Lowercase table name → graph views sourcing from it (§3.3: each
    /// relational source knows the views it feeds).
    source_map: HashMap<String, Vec<Arc<str>>>,
    config: EngineConfig,
    /// Journal of the open explicit transaction, if any.
    txn: Option<Journal>,
    /// Cached planner context — schemas and graph metadata only change on
    /// DDL, so queries reuse it (VoltDB-style pre-compiled metadata; DDL
    /// invalidates).
    plan_ctx: Option<Arc<PlannerCtx>>,
    /// Cancellation token, created lazily the first time a caller asks for
    /// one. While no token has been handed out, queries run with no cancel
    /// flag at all, so the governor stays inactive (zero overhead) unless a
    /// deadline or memory cap is also configured.
    cancel: Option<CancelToken>,
    /// Fault-injection state shared by all statements (hit counters persist
    /// across statements so a retried statement runs past a spent rule).
    faults: Option<Arc<FaultState>>,
    /// A malformed `GRFUSION_FAULTS` value, surfaced on first use rather
    /// than silently disabling the sweep.
    faults_err: Option<String>,
    /// A malformed `GRFUSION_*` engine knob (workers, batch, reseal, ...),
    /// surfaced on the first statement rather than silently degrading to
    /// defaults. Cleared by `set_config` (an explicit config supersedes
    /// whatever the environment asked for).
    env_err: Option<String>,
}

impl DbInner {
    /// Build the per-query resource governor from the current config plus
    /// the database-level cancel token (armed from now, so a past cancel
    /// never bleeds into this query), the calling thread's ambient request
    /// scope, and the fault plan.
    fn exec_context(&self) -> Result<ExecContext> {
        if let Some(msg) = self.env_err.as_ref().or(self.faults_err.as_ref()) {
            return Err(Error::analysis(msg.clone()));
        }
        Ok(ExecContext::for_query(
            &self.config.governor,
            self.cancel.as_ref(),
            self.faults.clone(),
        ))
    }
}

/// An in-memory relational database with native graph support.
pub struct Database {
    inner: OrderedMutex<DbInner>,
    /// Epoch publication point. Lives *outside* `inner`: epoch readers pin
    /// the current snapshot through the hub's tiny mutex and never contend
    /// with the writer holding `inner`.
    hub: EpochHub,
}

/// A compiled SELECT statement (see [`Database::prepare`]).
pub struct PreparedQuery {
    plan: crate::plan::PlanNode,
    /// Per-node cost-model estimates, captured at prepare time when the
    /// cost-based optimizer is enabled (`None` on the rule-based path).
    estimates: Option<Vec<crate::cost::NodeEstimate>>,
    /// Cost-model pipeline choice frozen into the stored plan.
    prefer_row: bool,
}

impl PreparedQuery {
    /// EXPLAIN-style plan text. When the plan was prepared under the
    /// cost-based optimizer each line carries its cardinality estimate.
    pub fn explain(&self) -> String {
        let text = self.plan.explain();
        match &self.estimates {
            Some(est) => crate::cost::annotate_explain(&text, est),
            None => text,
        }
    }
}

/// A planned SELECT plus whatever the cost-based optimizer decided about
/// it. On the rule-based path (`GRFUSION_OPTIMIZER=0`, the default) the
/// plan passes through untouched and `estimates` stays `None`, keeping
/// every downstream byte identical.
struct CostedPlan {
    plan: crate::plan::PlanNode,
    estimates: Option<Vec<crate::cost::NodeEstimate>>,
    prefer_row: bool,
}

/// Run the cost-based optimizer over a rule-based plan if it is enabled.
fn cost_plan(
    inner: &DbInner,
    ctx: &PlannerCtx,
    plan: crate::plan::PlanNode,
) -> Result<CostedPlan> {
    if !inner.config.optimizer.cost_based {
        return Ok(CostedPlan {
            plan,
            estimates: None,
            prefer_row: false,
        });
    }
    let catalog = cost_catalog(inner)?;
    let o = crate::cost::optimize(plan, &catalog, &ctx.graphs, &ctx.tables, &ctx.hash_indexed)?;
    Ok(CostedPlan {
        plan: o.plan,
        estimates: Some(o.estimates),
        prefer_row: o.prefer_row_pipeline,
    })
}

/// Snapshot live table/topology statistics for the cost model.
fn cost_catalog(inner: &DbInner) -> Result<crate::cost::CostCatalog> {
    let mut cat = crate::cost::CostCatalog::new();
    for name in inner.catalog.table_names() {
        let handle = inner.catalog.table(&name)?;
        let t = handle.read();
        cat.add_table(&name, t.stats(), t.column_ndvs());
    }
    for (name, view) in &inner.graph_views {
        cat.add_graph(name, view.topology.read().stats());
    }
    Ok(cat)
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
        // A malformed GRFUSION_FAULTS is remembered and surfaced on the
        // first statement: `with_config` is infallible, but a typo in a
        // fault sweep must not silently run with injection disabled.
        let (faults, faults_err) = match FaultPlan::from_env() {
            Ok(plan) => (plan.map(|p| Arc::new(FaultState::new(p))), None),
            Err(e) => (None, Some(e.to_string())),
        };
        // Same contract for the engine knobs: a typo'd GRFUSION_WORKERS
        // must fail the first statement, not silently run serial.
        let env_err = EngineConfig::env_error();
        let db = Database {
            inner: OrderedMutex::new(LockClass::DbInner, DbInner {
                catalog: Catalog::new(),
                graph_views: HashMap::new(),
                source_map: HashMap::new(),
                config,
                txn: None,
                plan_ctx: None,
                cancel: None,
                faults: faults.clone(),
                faults_err: faults_err.clone(),
                env_err: env_err.clone(),
            }),
            hub: EpochHub::new(
                ReaderShared {
                    config,
                    cancel: None,
                    faults,
                    faults_err,
                    env_err,
                },
                config.epochs.enabled,
            ),
        };
        if config.epochs.enabled {
            // Publish epoch 0 (the empty catalog) so readers always have a
            // snapshot to pin.
            let mut inner = db.inner.lock();
            let _ = publish_epoch(&db.hub, &mut inner, None);
            drop(inner);
        }
        db
    }

    /// Handle for cancelling in-flight queries from another thread.
    /// Cancellation is edge-triggered: [`CancelToken::cancel`] aborts the
    /// queries running *at that moment* and nothing issued afterwards — a
    /// pooled connection's next query is unaffected. Creating the token is
    /// what arms the cooperative checks; a database nobody can cancel pays
    /// nothing for the feature.
    pub fn cancel_token(&self) -> CancelToken {
        let token = self
            .inner
            .lock()
            .cancel
            .get_or_insert_with(CancelToken::default)
            .clone();
        let mirror = token.clone();
        self.hub.update_shared(move |s| s.cancel = Some(mirror));
        token
    }

    /// Install (or with `None` clear) a deterministic fault-injection plan.
    /// Replaces any plan read from `GRFUSION_FAULTS` and resets all hit
    /// counters.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        let mut inner = self.inner.lock();
        inner.faults = plan.map(|p| Arc::new(FaultState::new(p)));
        inner.faults_err = None;
        let faults = inner.faults.clone();
        self.hub.update_shared(move |s| {
            s.faults = faults;
            s.faults_err = None;
        });
    }

    /// Replace the engine configuration (takes effect on the next
    /// statement).
    pub fn set_config(&self, config: EngineConfig) {
        let mut inner = self.inner.lock();
        inner.config = config;
        inner.env_err = None;
        self.hub.update_shared(|s| {
            s.config = config;
            s.env_err = None;
        });
        self.hub.set_enabled(config.epochs.enabled);
        // (Re)publish immediately so readers see the current committed
        // state under the new configuration — this is also how enabling
        // epochs mid-session seeds the first snapshot.
        if config.epochs.enabled && inner.txn.is_none() {
            let _ = publish_epoch(&self.hub, &mut inner, None);
        }
    }

    /// Current configuration.
    pub fn config(&self) -> EngineConfig {
        self.inner.lock().config
    }

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a semicolon-separated script, returning the last result.
    pub fn execute_script(&self, sql: &str) -> Result<ResultSet> {
        let stmts = parse_statements(sql)?;
        let mut last = ResultSet::empty();
        for s in &stmts {
            last = self.execute_statement(s)?;
        }
        Ok(last)
    }

    /// Execute one SQL statement under per-request options: a wall-clock
    /// deadline (tightening — never loosening — the configured governor
    /// deadline) and a request-scoped cancel token a front-end trips on
    /// client disconnect. This is the network server's entry point; the
    /// options hold for the whole statement, including subquery folding.
    pub fn execute_with_request(
        &self,
        sql: &str,
        opts: &crate::governor::RequestOptions,
    ) -> Result<ResultSet> {
        let _guard = crate::governor::enter_request(opts);
        self.execute(sql)
    }

    /// [`Database::execute_script`] under per-request options; the whole
    /// script shares one deadline budget.
    pub fn execute_script_with_request(
        &self,
        sql: &str,
        opts: &crate::governor::RequestOptions,
    ) -> Result<ResultSet> {
        let _guard = crate::governor::enter_request(opts);
        self.execute_script(sql)
    }

    /// Execute a parsed statement.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<ResultSet> {
        // Epoch read path: pin the current published snapshot and run the
        // whole query against it without ever taking the writer's lock.
        match stmt {
            Statement::Select(select) => {
                if let Some(ep) = self.hub.pin() {
                    return epoch::run_select_epoch(&self.hub, &ep, select, false);
                }
            }
            Statement::Explain {
                analyze: true,
                select,
            } => {
                if let Some(ep) = self.hub.pin() {
                    return epoch::explain_analyze_epoch(&self.hub, &ep, select);
                }
            }
            _ => {}
        }
        let mut inner = self.inner.lock();
        match stmt {
            Statement::Select(select) => {
                let ctx = cached_planner_ctx(&mut inner)?;
                run_select(&inner, select, &ctx)
            }
            Statement::Explain { analyze, select } => {
                let ctx = cached_planner_ctx(&mut inner)?;
                let select = fold_subqueries(&inner, select, &ctx)?;
                let plan = plan_select(&select, &ctx, &inner.config.optimizer)?;
                let costed = cost_plan(&inner, &ctx, plan)?;
                let plan_schema = Arc::new(Schema::new(vec![Column::new(
                    "plan",
                    DataType::Varchar,
                )]));
                if *analyze {
                    // Run the query with instrumentation, discard its rows,
                    // and return the annotated plan tree instead.
                    let rs = run_plan(&inner, &costed.plan, Vec::new(), true, costed.prefer_row)?;
                    let Some(mut metrics) = rs.metrics else {
                        return Err(Error::execution("instrumented run returned no metrics"));
                    };
                    if let Some(est) = &costed.estimates {
                        metrics.attach_estimates(est);
                    }
                    let rows = metrics
                        .render()
                        .lines()
                        .map(|l| vec![Value::text(l)])
                        .collect();
                    Ok(ResultSet {
                        schema: plan_schema,
                        rows,
                        rows_affected: 0,
                        metrics: Some(metrics),
                    })
                } else {
                    let text = crate::analyze::explain_typed(&costed.plan);
                    let text = match &costed.estimates {
                        Some(est) => crate::cost::annotate_explain(&text, est),
                        None => text,
                    };
                    let rows = text
                        .lines()
                        .map(|l| vec![Value::text(l)])
                        .collect();
                    Ok(ResultSet {
                        schema: plan_schema,
                        rows,
                        rows_affected: 0,
                        metrics: None,
                    })
                }
            }
            Statement::CreateTable(ct) => {
                create_table(&mut inner, ct)?;
                inner.plan_ctx = None;
                self.publish_after_ddl(&mut inner)?;
                Ok(ResultSet::empty())
            }
            Statement::CreateIndex(ci) => {
                create_index(&inner, ci)?;
                inner.plan_ctx = None;
                self.publish_after_ddl(&mut inner)?;
                Ok(ResultSet::empty())
            }
            Statement::CreateGraphView(cgv) => {
                create_graph_view(&mut inner, cgv)?;
                inner.plan_ctx = None;
                self.publish_after_ddl(&mut inner)?;
                Ok(ResultSet::empty())
            }
            Statement::DropTable { name } => {
                drop_table(&mut inner, name)?;
                inner.plan_ctx = None;
                self.publish_after_ddl(&mut inner)?;
                Ok(ResultSet::empty())
            }
            Statement::DropGraphView { name } => {
                drop_graph_view(&mut inner, name)?;
                inner.plan_ctx = None;
                self.publish_after_ddl(&mut inner)?;
                Ok(ResultSet::empty())
            }
            Statement::Insert(ins) => match &ins.source {
                grfusion_sql::InsertSource::Values(_) => run_dml(&self.hub, &mut inner, |ctx, journal| {
                    dml::execute_insert(ctx, journal, ins)
                }),
                grfusion_sql::InsertSource::Select(select) => {
                    // INSERT ... SELECT: materialize the query first (the
                    // engine is serial, so this is a consistent snapshot),
                    // then insert through the normal maintenance path.
                    let ctx = cached_planner_ctx(&mut inner)?;
                    let rs = run_select(&inner, select, &ctx)?;
                    run_dml(&self.hub, &mut inner, |ctx, journal| {
                        dml::execute_insert_rows(ctx, journal, &ins.table, &ins.columns, rs.rows)
                    })
                }
            },
            Statement::Update(upd) => {
                let mut upd = upd.clone();
                if let Some(sel) = &mut upd.selection {
                    let ctx = cached_planner_ctx(&mut inner)?;
                    fold_expr_subqueries(&inner, sel, &ctx)?;
                }
                run_dml(&self.hub, &mut inner, move |ctx, journal| {
                    dml::execute_update(ctx, journal, &upd)
                })
            }
            Statement::Delete(del) => {
                let mut del = del.clone();
                if let Some(sel) = &mut del.selection {
                    let ctx = cached_planner_ctx(&mut inner)?;
                    fold_expr_subqueries(&inner, sel, &ctx)?;
                }
                run_dml(&self.hub, &mut inner, move |ctx, journal| {
                    dml::execute_delete(ctx, journal, &del)
                })
            }
            Statement::Begin => {
                if inner.txn.is_some() {
                    return Err(Error::transaction("transaction already in progress"));
                }
                inner.txn = Some(Journal::new());
                // Reads now need the locked path to observe their own
                // uncommitted writes; readers pinning the previous epoch
                // keep seeing the last committed state (snapshot isolation).
                self.hub.set_txn_open(true);
                Ok(ResultSet::empty())
            }
            Statement::Commit => {
                if inner.txn.take().is_none() {
                    return Err(Error::transaction("no transaction in progress"));
                }
                self.hub.set_txn_open(false);
                // The whole transaction becomes visible in one publication
                // (full snapshot: mid-transaction DDL is not journaled).
                if self.hub.enabled() {
                    publish_epoch(&self.hub, &mut inner, None)?;
                }
                Ok(ResultSet::empty())
            }
            Statement::Rollback => {
                let Some(mut journal) = inner.txn.take() else {
                    return Err(Error::transaction("no transaction in progress"));
                };
                {
                    let inner = &mut *inner;
                    let ctx = DmlCtx {
                        catalog: &inner.catalog,
                        graph_views: &inner.graph_views,
                        source_map: &inner.source_map,
                        // Rollback is the recovery path: never inject into
                        // it, and never let a cancel/deadline interrupt it.
                        faults: None,
                        gov: None,
                    };
                    journal.rollback_to(&ctx, 0)?;
                }
                self.hub.set_txn_open(false);
                // DML was undone, but DDL survives a rollback — republish
                // so readers see the post-rollback catalog.
                if self.hub.enabled() {
                    publish_epoch(&self.hub, &mut inner, None)?;
                }
                Ok(ResultSet::empty())
            }
        }
    }

    /// Bulk-insert pre-built rows into a table (loader fast path; maintains
    /// graph views and transactional semantics exactly like SQL INSERT).
    pub fn bulk_insert(&self, table: &str, rows: Vec<grfusion_common::Row>) -> Result<u64> {
        let mut inner = self.inner.lock();
        let rs = run_dml(&self.hub, &mut inner, |ctx, journal| {
            dml::execute_bulk_insert(ctx, journal, table, rows)
        })?;
        Ok(rs.rows_affected)
    }

    /// Prepare a SELECT statement with `?` parameter placeholders.
    ///
    /// Parsing and planning happen once; each [`Database::execute_prepared`]
    /// call only binds parameters and runs the stored plan — the stored
    /// procedure execution model of VoltDB, which is how the paper's system
    /// avoids per-query SQL processing (§7.2). The plan snapshots the
    /// current catalog: running it after dropping a referenced table or
    /// graph view fails at execution time.
    ///
    /// Planner analyses that need literal values (path-length inference,
    /// §6.1) cannot see through `?`; put length bounds inline and
    /// parameterize the rest.
    pub fn prepare(&self, sql: &str) -> Result<PreparedQuery> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = &stmt else {
            return Err(Error::analysis("only SELECT statements can be prepared"));
        };
        let mut inner = self.inner.lock();
        let ctx = cached_planner_ctx(&mut inner)?;
        // Subqueries fold at prepare time: their results are frozen into
        // the stored plan (documented prepared-statement semantics).
        let select = fold_subqueries(&inner, select, &ctx)?;
        let plan = plan_select(&select, &ctx, &inner.config.optimizer)?;
        let costed = cost_plan(&inner, &ctx, plan)?;
        Ok(PreparedQuery {
            plan: costed.plan,
            estimates: costed.estimates,
            prefer_row: costed.prefer_row,
        })
    }

    /// Execute a prepared query with the given parameter values (bound to
    /// the `?` placeholders in order of appearance).
    pub fn execute_prepared(
        &self,
        query: &PreparedQuery,
        params: &[grfusion_common::Value],
    ) -> Result<ResultSet> {
        if let Some(ep) = self.hub.pin() {
            return epoch::run_plan_epoch(
                &self.hub,
                &ep,
                &query.plan,
                params.to_vec(),
                false,
                query.prefer_row,
            );
        }
        let inner = self.inner.lock();
        run_plan(&inner, &query.plan, params.to_vec(), false, query.prefer_row)
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
        if let Some(ep) = self.hub.pin() {
            return epoch::run_select_epoch(&self.hub, &ep, select, true);
        }
        let mut inner = self.inner.lock();
        let ctx = cached_planner_ctx(&mut inner)?;
        let select = fold_subqueries(&inner, select, &ctx)?;
        let plan = plan_select(&select, &ctx, &inner.config.optimizer)?;
        let costed = cost_plan(&inner, &ctx, plan)?;
        let mut rs = run_plan(&inner, &costed.plan, Vec::new(), true, costed.prefer_row)?;
        if let (Some(m), Some(est)) = (rs.metrics.as_mut(), &costed.estimates) {
            m.attach_estimates(est);
        }
        Ok(rs)
    }

    /// EXPLAIN-style plan text for a SELECT statement.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parse_statement(sql)?;
        let Statement::Select(select) = &stmt else {
            return Err(Error::analysis("EXPLAIN supports SELECT statements only"));
        };
        let inner = self.inner.lock();
        let ctx = planner_ctx(&inner)?;
        let select = fold_subqueries(&inner, select, &ctx)?;
        let plan = plan_select(&select, &ctx, &inner.config.optimizer)?;
        let costed = cost_plan(&inner, &ctx, plan)?;
        let text = crate::analyze::explain_typed(&costed.plan);
        Ok(match &costed.estimates {
            Some(est) => crate::cost::annotate_explain(&text, est),
            None => text,
        })
    }

    /// Statistics of a graph view's materialized topology (vertex/edge
    /// counts, average fan-out, approximate memory — the §6.3 catalog
    /// statistic plus the build-cost experiment's memory number).
    pub fn graph_stats(&self, name: &str) -> Result<GraphStats> {
        let inner = self.inner.lock();
        let view = inner
            .graph_views
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::catalog(format!("graph view `{name}` does not exist")))?;
        let mut stats = view.topology.read().stats();
        let (live_epochs, retained_bytes) = self.hub.live_stats();
        stats.live_epochs = live_epochs;
        stats.retained_bytes = retained_bytes;
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
        Ok(inner.catalog.table(name)?.read().len())
    }

    /// Deterministic dump of all observable state: every table's rows (with
    /// their stable row ids) and every graph view's topology, each sorted so
    /// the text is independent of iteration order. The robustness battery
    /// snapshots this before and after a fault-injected statement: equal
    /// dumps prove the statement was all-or-nothing across storage, indexes,
    /// and topologies.
    pub fn state_dump(&self) -> Result<String> {
        // With epochs on, dump the pinned snapshot: safe from any reader
        // thread, never blocks on (or observes partial work of) the writer.
        if let Some(ep) = self.hub.pin() {
            return Ok(epoch::state_dump_epoch(&ep));
        }
        let inner = self.inner.lock();
        let mut out = String::new();
        for name in inner.catalog.table_names() {
            let handle = inner.catalog.table(&name)?;
            let t = handle.read();
            let mut rows: Vec<(u64, String)> = t
                .scan()
                .map(|(id, row)| {
                    let vals: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    (id.0, vals.join(","))
                })
                .collect();
            rows.sort_unstable();
            out.push_str(&format!("table {} rows={}\n", name, rows.len()));
            for (id, vals) in rows {
                out.push_str(&format!("r @{id} {vals}\n"));
            }
        }
        let mut names: Vec<&String> = inner.graph_views.keys().collect();
        names.sort();
        for n in names {
            out.push_str(&inner.graph_views[n].topology_dump());
        }
        Ok(out)
    }

    /// Number of the currently published epoch (`None` when epoch
    /// publication is off or nothing has been published yet).
    pub fn current_epoch(&self) -> Option<u64> {
        self.hub.current_number()
    }

    /// Atomically pin the current epoch and dump it: `(epoch number, state
    /// dump)`. The concurrent differential oracle uses this to assert that
    /// every observed snapshot equals the serial state after some committed
    /// statement prefix. `None` when reads are not routing through epochs.
    pub fn snapshot_dump(&self) -> Option<(u64, String)> {
        let ep = self.hub.pin()?;
        Some((ep.number, epoch::state_dump_epoch(&ep)))
    }

    /// Pin the current epoch and hold it: the returned handle keeps the
    /// snapshot resident across any number of later writes until dropped.
    /// `None` when reads are not routing through epochs (publication off,
    /// or an explicit transaction is open on this connection).
    pub fn pin_snapshot(&self) -> Option<crate::epoch::EpochSnapshot> {
        self.hub.pin().map(|ep| crate::epoch::EpochSnapshot { ep })
    }

    /// `(live epochs, retained bytes)` — see [`GraphStats::live_epochs`].
    pub fn epoch_stats(&self) -> (usize, usize) {
        self.hub.live_stats()
    }

    /// Publish after a DDL statement (full snapshot: DDL changes the
    /// catalog shape, so nothing can be reused), unless a transaction is
    /// open — then visibility waits for COMMIT/ROLLBACK.
    fn publish_after_ddl(&self, inner: &mut DbInner) -> Result<()> {
        if self.hub.enabled() && inner.txn.is_none() {
            publish_epoch(&self.hub, inner, None)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

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

fn create_index(inner: &DbInner, ci: &CreateIndex) -> Result<()> {
    let handle = inner.catalog.table(&ci.table)?;
    let mut table = handle.write();
    let col = table.schema().resolve(&ci.column)?;
    let kind = if ci.ordered {
        IndexKind::Ordered
    } else {
        IndexKind::Hash
    };
    table.create_index(ci.name.clone(), col, ci.unique, kind)
}

fn create_graph_view(inner: &mut DbInner, cgv: &grfusion_sql::CreateGraphView) -> Result<()> {
    let name = cgv.name.to_ascii_lowercase();
    if inner.graph_views.contains_key(&name) {
        return Err(Error::catalog(format!(
            "graph view `{}` already exists",
            cgv.name
        )));
    }
    let def = GraphViewDef::resolve(cgv, &inner.catalog)?;
    let view = GraphView::materialize(def, &inner.catalog)?;
    // Compact the freshly built adjacency into sealed CSR arrays right
    // away: materialization is the one moment the topology is complete and
    // overlay-free, so the seal is a straight copy.
    if inner.config.csr.sealed {
        view.topology.write().seal();
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

fn run_dml<F>(hub: &EpochHub, inner: &mut DbInner, f: F) -> Result<ResultSet>
where
    F: FnOnce(&DmlCtx<'_>, &mut Journal) -> Result<u64>,
{
    let inner = &mut *inner;
    if let Some(msg) = inner.env_err.as_ref().or(inner.faults_err.as_ref()) {
        return Err(Error::analysis(msg.clone()));
    }
    // Governor context for cancellation/deadline checkpoints and re-seal
    // byte accounting, built up front because the transaction journal below
    // holds the only &mut into `inner`.
    let gov = inner.exec_context()?;
    let ctx = DmlCtx {
        catalog: &inner.catalog,
        graph_views: &inner.graph_views,
        source_map: &inner.source_map,
        faults: inner.faults.clone(),
        gov: if gov.active() { Some(&gov) } else { None },
    };
    let csr = inner.config.csr;
    match &mut inner.txn {
        Some(journal) => {
            // Explicit transaction: statement-level atomicity via savepoint.
            // Nothing publishes until COMMIT — readers keep the previous
            // epoch.
            let sp = journal.savepoint();
            match f(&ctx, journal).and_then(|n| {
                maybe_reseal(&ctx, csr, &gov)?;
                Ok(n)
            }) {
                Ok(n) => Ok(ResultSet::affected(n)),
                Err(e) => {
                    journal.rollback_to(&ctx, sp)?;
                    Err(e)
                }
            }
        }
        None => {
            // Implicit (auto-commit) transaction.
            let mut journal = Journal::new();
            let mut resealed: Vec<String> = Vec::new();
            match f(&ctx, &mut journal).and_then(|n| {
                resealed = maybe_reseal(&ctx, csr, &gov)?;
                Ok(n)
            }) {
                Ok(n) => {
                    if hub.enabled() {
                        // Publish exactly the statement's dirty set: tables
                        // and views it journaled plus any view it re-sealed.
                        let (dirty_tables, mut dirty_views) = journal.dirty_since(0);
                        dirty_views.extend(resealed);
                        publish_epoch(hub, inner, Some((&dirty_tables, &dirty_views)))?;
                    }
                    Ok(ResultSet::affected(n))
                }
                Err(e) => {
                    // The statement rolled back: publish nothing — every
                    // published epoch is some *committed* prefix.
                    journal.rollback_to(&ctx, 0)?;
                    Err(e)
                }
            }
        }
    }
}

/// Re-seal every sealed graph view whose delta overlay outgrew the
/// configured fraction of its vertex set.
///
/// Runs inside the calling statement's atomicity scope, *after* the
/// statement's own maintenance succeeded: an injected fault at `dml.seal`
/// or a memory-cap refusal from the governor aborts the whole statement,
/// whose logical changes then roll back through the journal (undo works on
/// a sealed topology via the delta overlay). The seal itself is
/// build-then-swap, so a failure before the swap leaves the topology on
/// its previous layout — never half-compacted.
fn maybe_reseal(
    ctx: &DmlCtx<'_>,
    csr: crate::config::CsrConfig,
    gov: &ExecContext,
) -> Result<Vec<String>> {
    let mut resealed = Vec::new();
    if !csr.sealed {
        return Ok(resealed);
    }
    // Sorted order: with several views due at once, the fault-site hit
    // sequence (and thus a sweep's nth-hit selection) must be stable.
    let mut names: Vec<&String> = ctx.graph_views.keys().collect();
    names.sort();
    for name in names {
        let view = &ctx.graph_views[name];
        let estimate = {
            let topo = view.topology.read();
            if !(topo.is_sealed() && topo.overlay_fraction() >= csr.reseal_fraction) {
                continue;
            }
            topo.sealed_bytes_estimate()
        };
        ctx.fault("dml.seal")?;
        // Charge the compacted arrays before building them, so a cap
        // violation surfaces while the topology is still untouched.
        if gov.active() {
            gov.charge_bytes(estimate as u64)?;
        }
        view.topology.write().seal();
        resealed.push(name.clone());
    }
    Ok(resealed)
}

// ---------------------------------------------------------------------------
// SELECT execution
// ---------------------------------------------------------------------------

/// Publish a new epoch from the writer's committed state.
///
/// `dirty` is `None` for a full publication (DDL, COMMIT, ROLLBACK,
/// enablement) or `Some((tables, views))` listing exactly what the last
/// auto-committed statement touched — everything else reuses the previous
/// epoch's `Arc`s, so a point update re-snapshots one table, not the whole
/// database. Must never run while `inner.txn` is open: the live tables
/// would contain uncommitted changes.
fn publish_epoch(hub: &EpochHub, inner: &mut DbInner, dirty: DirtySet) -> Result<()> {
    if !hub.enabled() {
        return Ok(());
    }
    debug_assert!(inner.txn.is_none(), "publishing mid-transaction");
    let plan_ctx = cached_planner_ctx(inner)?;
    let prev = hub.current_arc();
    let is_clean = |set: Option<&std::collections::HashSet<String>>, name: &str| {
        matches!(set, Some(s) if !s.contains(name))
    };
    let mut bytes = 0usize;
    let mut tables = HashMap::new();
    for name in inner.catalog.table_names() {
        let reused = if is_clean(dirty.map(|(t, _)| t), &name) {
            prev.as_ref().and_then(|p| p.tables.get(&name).cloned())
        } else {
            None
        };
        let t = match reused {
            Some(t) => t,
            None => Arc::new(inner.catalog.table(&name)?.read().snapshot()),
        };
        // Coarse size estimate: slots dominate; good enough for the
        // retained-bytes gauge (not an allocator-accurate count).
        bytes += t.slot_count() * 48;
        tables.insert(name, t);
    }
    let mut views = HashMap::new();
    for (name, view) in &inner.graph_views {
        let reused = if is_clean(dirty.map(|(_, v)| v), name) {
            prev.as_ref().and_then(|p| p.views.get(name).map(|v| v.topo.clone()))
        } else {
            None
        };
        let topo = match reused {
            Some(t) => t,
            None => Arc::new(view.topology.read().snapshot()),
        };
        bytes += topo.memory_bytes();
        views.insert(
            name.clone(),
            EpochView {
                def: view.def.clone(),
                topo,
            },
        );
    }
    hub.install(tables, views, plan_ctx, bytes);
    Ok(())
}

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
    for name in inner.catalog.table_names() {
        let handle = inner.catalog.table(&name)?;
        let t = handle.read();
        tables.insert(name.clone(), t.schema().clone());
        let cols: Vec<usize> = t
            .indexes()
            .filter(|ix| ix.kind() == IndexKind::Hash)
            .map(|ix| ix.column())
            .collect();
        if !cols.is_empty() {
            hash_indexed.insert(name.clone(), cols);
        }
    }
    let mut graphs = HashMap::new();
    let mut vertex_scan_schemas = HashMap::new();
    let mut edge_scan_schemas = HashMap::new();
    for (name, view) in &inner.graph_views {
        let vh = inner.catalog.table(&view.def.vertex_source)?;
        let eh = inner.catalog.table(&view.def.edge_source)?;
        let vt = vh.read();
        let et = eh.read();
        graphs.insert(
            name.clone(),
            GraphMeta {
                def: view.def.clone(),
                vertex_schema: vt.schema().clone(),
                edge_schema: et.schema().clone(),
            },
        );
        vertex_scan_schemas.insert(name.clone(), Arc::new(view.def.vertex_scan_schema(&vt)));
        edge_scan_schemas.insert(name.clone(), Arc::new(view.def.edge_scan_schema(&et)));
    }
    Ok(PlannerCtx {
        tables,
        hash_indexed,
        graphs: Arc::new(graphs),
        vertex_scan_schemas,
        edge_scan_schemas,
    })
}

fn run_select(
    inner: &DbInner,
    select: &grfusion_sql::Select,
    ctx: &PlannerCtx,
) -> Result<ResultSet> {
    let select = fold_subqueries(inner, select, ctx)?;
    let plan = plan_select(&select, ctx, &inner.config.optimizer)?;
    let costed = cost_plan(inner, ctx, plan)?;
    run_plan(inner, &costed.plan, Vec::new(), false, costed.prefer_row)
}

/// Fold uncorrelated `IN (SELECT ...)` subqueries into literal lists by
/// executing them bottom-up (the engine is serial, so each fold sees a
/// consistent snapshot). Returns a clone only when folding is needed.
fn fold_subqueries<'s>(
    inner: &DbInner,
    select: &'s grfusion_sql::Select,
    ctx: &PlannerCtx,
) -> Result<std::borrow::Cow<'s, grfusion_sql::Select>> {
    fold_subqueries_with(&mut |s| run_select(inner, s, ctx), select)
}

/// Runner-generic body of [`fold_subqueries`]: the locked path executes
/// subqueries against `DbInner`, the epoch path against a pinned
/// [`crate::epoch::Epoch`] — both share the folding logic through `run`.
pub(crate) fn fold_subqueries_with<'s>(
    run: &mut dyn FnMut(&grfusion_sql::Select) -> Result<ResultSet>,
    select: &'s grfusion_sql::Select,
) -> Result<std::borrow::Cow<'s, grfusion_sql::Select>> {
    use std::borrow::Cow;
    fn select_has_subquery(s: &grfusion_sql::Select) -> bool {
        let exprs = s
            .projections
            .iter()
            .filter_map(|p| match p {
                grfusion_sql::SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .chain(s.selection.iter())
            .chain(s.group_by.iter())
            .chain(s.having.iter())
            .chain(s.order_by.iter().map(|(e, _)| e));
        exprs.into_iter().any(expr_has_subquery)
    }
    fn expr_has_subquery(e: &grfusion_sql::Expr) -> bool {
        use grfusion_sql::Expr as E;
        match e {
            E::InSubquery { .. } => true,
            E::Literal(_) | E::Parameter(_) | E::CompoundRef(_) => false,
            E::Unary { expr, .. } => expr_has_subquery(expr),
            E::Binary { left, right, .. } => expr_has_subquery(left) || expr_has_subquery(right),
            E::InList { expr, list, .. } => {
                expr_has_subquery(expr) || list.iter().any(expr_has_subquery)
            }
            E::Between {
                expr, low, high, ..
            } => expr_has_subquery(expr) || expr_has_subquery(low) || expr_has_subquery(high),
            E::Function { args, .. } => args.iter().any(expr_has_subquery),
        }
    }
    if !select_has_subquery(select) {
        return Ok(Cow::Borrowed(select));
    }
    let mut owned = select.clone();
    for p in &mut owned.projections {
        if let grfusion_sql::SelectItem::Expr { expr, .. } = p {
            fold_expr_subqueries_with(run, expr)?;
        }
    }
    if let Some(sel) = &mut owned.selection {
        fold_expr_subqueries_with(run, sel)?;
    }
    for g in &mut owned.group_by {
        fold_expr_subqueries_with(run, g)?;
    }
    if let Some(h) = &mut owned.having {
        fold_expr_subqueries_with(run, h)?;
    }
    for (e, _) in &mut owned.order_by {
        fold_expr_subqueries_with(run, e)?;
    }
    Ok(Cow::Owned(owned))
}

fn fold_expr_subqueries(
    inner: &DbInner,
    e: &mut grfusion_sql::Expr,
    ctx: &PlannerCtx,
) -> Result<()> {
    fold_expr_subqueries_with(&mut |s| run_select(inner, s, ctx), e)
}

pub(crate) fn fold_expr_subqueries_with(
    run: &mut dyn FnMut(&grfusion_sql::Select) -> Result<ResultSet>,
    e: &mut grfusion_sql::Expr,
) -> Result<()> {
    use grfusion_sql::Expr as E;
    match e {
        E::InSubquery {
            expr,
            select,
            negated,
        } => {
            fold_expr_subqueries_with(run, expr)?;
            let rs = run(select)?;
            if rs.schema.len() != 1 {
                return Err(Error::analysis(format!(
                    "IN (SELECT ...) must return exactly one column, got {}",
                    rs.schema.len()
                )));
            }
            let list = rs
                .rows
                .into_iter()
                .map(|mut r| E::Literal(r.remove(0)))
                .collect();
            *e = E::InList {
                expr: expr.clone(),
                list,
                negated: *negated,
            };
        }
        E::Literal(_) | E::Parameter(_) | E::CompoundRef(_) => {}
        E::Unary { expr, .. } => fold_expr_subqueries_with(run, expr)?,
        E::Binary { left, right, .. } => {
            fold_expr_subqueries_with(run, left)?;
            fold_expr_subqueries_with(run, right)?;
        }
        E::InList { expr, list, .. } => {
            fold_expr_subqueries_with(run, expr)?;
            for i in list {
                fold_expr_subqueries_with(run, i)?;
            }
        }
        E::Between {
            expr, low, high, ..
        } => {
            fold_expr_subqueries_with(run, expr)?;
            fold_expr_subqueries_with(run, low)?;
            fold_expr_subqueries_with(run, high)?;
        }
        E::Function { args, .. } => {
            for a in args {
                fold_expr_subqueries_with(run, a)?;
            }
        }
    }
    Ok(())
}

fn run_plan(
    inner: &DbInner,
    plan: &crate::plan::PlanNode,
    params: Vec<grfusion_common::Value>,
    collect_metrics: bool,
    force_row: bool,
) -> Result<ResultSet> {
    // Acquire read guards for every table and topology once; operators then
    // work against plain references (serial execution — no per-row locks).
    let table_names = inner.catalog.table_names();
    let handles: Vec<(String, grfusion_storage::TableRef)> = table_names
        .iter()
        .map(|n| Ok((n.clone(), inner.catalog.table(n)?)))
        .collect::<Result<_>>()?;
    let table_guards: Vec<(String, parking_lot::RwLockReadGuard<'_, Table>)> = handles
        .iter()
        .map(|(n, h)| (n.clone(), h.read()))
        .collect();
    let topo_guards: Vec<(
        String,
        parking_lot::RwLockReadGuard<'_, grfusion_graph::GraphTopology>,
    )> = inner
        .graph_views
        .iter()
        .map(|(n, v)| (n.clone(), v.topology.read()))
        .collect();

    let mut tables: HashMap<String, &Table> = HashMap::new();
    for (n, g) in &table_guards {
        tables.insert(n.clone(), &**g);
    }
    let mut graphs: HashMap<String, GraphEnv<'_>> = HashMap::new();
    for (n, g) in &topo_guards {
        let view = &inner.graph_views[n];
        let vertex_table = *tables
            .get(&view.def.vertex_source)
            .ok_or_else(|| Error::execution("missing vertex source table"))?;
        let edge_table = *tables
            .get(&view.def.edge_source)
            .ok_or_else(|| Error::execution("missing edge source table"))?;
        graphs.insert(
            n.clone(),
            GraphEnv {
                def: &view.def,
                topo: g,
                vertex_table,
                edge_table,
            },
        );
    }
    let env = QueryEnv {
        tables,
        graphs,
        limits: inner.config.limits,
        parallel: inner.config.parallel,
        params,
        gov: inner.exec_context()?,
        // Cost-model pipeline choice: small estimated results skip batch
        // assembly entirely (row and batch pipelines are byte-identical, so
        // this is a pure latency decision).
        batch: if force_row {
            crate::config::BatchConfig::disabled()
        } else {
            inner.config.batch
        },
    };
    let (rows, metrics) = if collect_metrics {
        let (rows, m) = execute_plan_with_metrics(plan, &env)?;
        (rows, Some(m))
    } else {
        (execute_plan(plan, &env)?, None)
    };
    Ok(ResultSet {
        schema: plan.schema().clone(),
        rows,
        rows_affected: 0,
        metrics,
    })
}
