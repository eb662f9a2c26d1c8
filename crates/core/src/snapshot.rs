//! The one read path: every SELECT-shaped operation runs over a borrowed
//! [`Snapshot`].
//!
//! A snapshot binds names to tables and graph views for the duration of one
//! read. Its one source is the tables and topologies `DbInner` owns,
//! borrowed while the writer's mutex is held — so a read inside an open
//! transaction sees its writes, and `INSERT … SELECT` and DML subquery
//! folding read the same way — and everything downstream of the
//! constructor is the same code: compile (fold subqueries → plan), run,
//! `EXPLAIN [ANALYZE]` and the state dump.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{Column, DataType, Error, Result, Schema, Value};
use grfusion_sql::{Expr, Select, SelectItem};
use grfusion_storage::{Catalog, Table};

use crate::db::PreparedQuery;
use crate::env::{GraphEnv, QueryEnv};
use crate::exec::{execute_plan, execute_plan_with_metrics};
use crate::graph_view::{GraphView, GraphViewDef};
use crate::plan::PlanNode;
use crate::planner::{plan_select, PlannerCtx};
use crate::result::ResultSet;
use crate::settings::Settings;

/// The tables and graph views a prepared plan reads, each held by the
/// `Arc` that is its identity: a recreated object is a new allocation, and
/// the held one cannot be freed and reused while the plan lives.
#[derive(Default)]
pub(crate) struct Sources {
    tables: Vec<(String, Arc<Schema>)>,
    graphs: Vec<Arc<GraphViewDef>>,
}

/// Everything one read can observe, by lowercase name.
pub(crate) struct Snapshot<'a> {
    tables: HashMap<&'a str, &'a Table>,
    graphs: HashMap<&'a str, GraphEnv<'a>>,
    plan_ctx: &'a PlannerCtx,
}

impl<'a> Snapshot<'a> {
    /// The live state the writer's mutex owns, uncommitted writes of the
    /// open transaction included. The shared borrows are the whole
    /// protocol: nothing can write a table or a topology while the snapshot
    /// lives.
    pub(crate) fn locked(
        catalog: &'a Catalog,
        views: &'a HashMap<String, GraphView>,
        plan_ctx: &'a PlannerCtx,
    ) -> Self {
        let tables: HashMap<&str, &Table> = catalog.iter().collect();
        // A view's sources cannot be dropped before the view, so both
        // lookups hit; a view that somehow lost one stays unbound and a
        // query naming it fails with "not bound in query env".
        let graphs = views
            .iter()
            .filter_map(|(name, v)| {
                let env = GraphEnv {
                    def: &v.def,
                    topo: &v.topology,
                    vertex_table: tables.get(v.def.vertex_source.as_str())?,
                    edge_table: tables.get(v.def.edge_source.as_str())?,
                };
                Some((name.as_str(), env))
            })
            .collect();
        Snapshot {
            tables,
            graphs,
            plan_ctx,
        }
    }

    pub(crate) fn table(&self, name: &str) -> Option<&'a Table> {
        self.tables.get(name).copied()
    }

    pub(crate) fn graph(&self, name: &str) -> Option<&GraphEnv<'a>> {
        self.graphs.get(name)
    }

    /// Compile a SELECT: fold its subqueries against this snapshot and plan
    /// it with the rule-based planner.
    pub(crate) fn compile(&self, cfg: &Settings, select: &Select) -> Result<PreparedQuery> {
        let select = self.fold_subqueries(cfg, select)?;
        let plan = plan_select(&select, self.plan_ctx, &cfg.config.optimizer)?;
        let sources = Sources::default();
        Ok(PreparedQuery { plan, sources })
    }

    /// [`Snapshot::compile`] for a statement that runs in later snapshots:
    /// the query keeps the tables and graph views its plan reads, and
    /// [`Snapshot::run`] refuses it once one is no longer the object of
    /// that name.
    pub(crate) fn prepare(&self, cfg: &Settings, select: &Select) -> Result<PreparedQuery> {
        let PreparedQuery { plan, mut sources } = self.compile(cfg, select)?;
        let mut nodes = vec![&plan];
        while let Some(node) = nodes.pop() {
            nodes.extend(node.inputs());
            let graph = match node {
                PlanNode::TableScan { table, .. }
                | PlanNode::IndexLookup { table, .. }
                | PlanNode::IndexJoin { table, .. } => {
                    if let Some(t) = self.table(table) {
                        sources.tables.push((table.clone(), t.schema().clone()));
                    }
                    continue;
                }
                PlanNode::VertexScan { graph, .. } | PlanNode::EdgeScan { graph, .. } => graph,
                PlanNode::PathScan { config, .. } | PlanNode::PathJoin { config, .. } => {
                    &config.graph
                }
                _ => continue,
            };
            if let Some(g) = self.graph(graph) {
                sources.graphs.push(g.def.clone());
            }
        }
        Ok(PreparedQuery { plan, sources })
    }

    /// Fails unless every object a prepared plan reads is still the one it
    /// was prepared against.
    fn check_sources(&self, sources: &Sources) -> Result<()> {
        let stale = |object: String| {
            Err(Error::catalog(format!(
                "{object} was dropped or recreated after the statement was prepared; \
                 prepare it again"
            )))
        };
        for (name, schema) in &sources.tables {
            let live = self.table(name).map(|t| t.schema());
            if !live.is_some_and(|s| Arc::ptr_eq(s, schema)) {
                return stale(format!("table `{name}`"));
            }
        }
        for def in &sources.graphs {
            let live = self.graph(&def.name).map(|g| g.def);
            if !live.is_some_and(|d| Arc::ptr_eq(d, def)) {
                return stale(format!("graph view `{}`", def.name));
            }
        }
        Ok(())
    }

    /// Execute a compiled query. With `collect_metrics` every operator is
    /// instrumented and the result carries the metrics.
    pub(crate) fn run(
        &self,
        cfg: &Settings,
        query: &PreparedQuery,
        params: Vec<Value>,
        collect_metrics: bool,
    ) -> Result<ResultSet> {
        self.check_sources(&query.sources)?;
        let gov = cfg.exec_context();
        let env = QueryEnv {
            snap: Some(self),
            limits: cfg.config.limits,
            params,
            batch_rows: QueryEnv::demand(&cfg.config.limits, &gov, cfg.batch_rows),
            gov,
        };
        let (rows, metrics) = if collect_metrics {
            let (rows, m) = execute_plan_with_metrics(&query.plan, &env)?;
            (rows, Some(m))
        } else {
            (execute_plan(&query.plan, &env)?, None)
        };
        Ok(ResultSet {
            schema: query.plan.schema().clone(),
            rows,
            rows_affected: 0,
            metrics,
        })
    }

    /// Compile and run an ad-hoc SELECT.
    pub(crate) fn select(
        &self,
        cfg: &Settings,
        select: &Select,
        collect_metrics: bool,
    ) -> Result<ResultSet> {
        let query = self.compile(cfg, select)?;
        self.run(cfg, &query, Vec::new(), collect_metrics)
    }

    /// `EXPLAIN` (the typed plan) or `EXPLAIN ANALYZE` (run instrumented,
    /// discard the rows, return the annotated plan tree), one line per
    /// result row.
    pub(crate) fn explain(
        &self,
        cfg: &Settings,
        select: &Select,
        analyze: bool,
    ) -> Result<ResultSet> {
        let (text, metrics) = if analyze {
            let Some(m) = self.select(cfg, select, true)?.metrics else {
                return Err(Error::execution("instrumented run returned no metrics"));
            };
            (m.render(), Some(m))
        } else {
            (self.compile(cfg, select)?.explain_typed(), None)
        };
        Ok(ResultSet {
            schema: Arc::new(Schema::new(vec![Column::new("plan", DataType::Varchar)])),
            rows: text.lines().map(|l| vec![Value::text(l)]).collect(),
            rows_affected: 0,
            metrics,
        })
    }

    /// Deterministic dump of all observable state: every table's live rows
    /// with their stable row ids, then every topology, all name-sorted so
    /// the text is independent of iteration order.
    pub(crate) fn state_dump(&self) -> String {
        let mut out = String::new();
        let mut names: Vec<&str> = self.tables.keys().copied().collect();
        names.sort_unstable();
        for name in names {
            let mut rows: Vec<(u64, String)> = self.tables[name]
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
        let mut names: Vec<&str> = self.graphs.keys().copied().collect();
        names.sort_unstable();
        for name in names {
            out.push_str(&self.graphs[name].topo.topology_dump());
        }
        out
    }

    /// Fold uncorrelated `IN (SELECT ...)` subqueries into literal lists by
    /// executing them bottom-up against this snapshot (so every fold and
    /// the outer query see one consistent state). Returns a clone only when
    /// folding is needed.
    fn fold_subqueries<'s>(&self, cfg: &Settings, select: &'s Select) -> Result<Cow<'s, Select>> {
        let exprs = select
            .projections
            .iter()
            .filter_map(|p| match p {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .chain(select.selection.iter())
            .chain(select.group_by.iter())
            .chain(select.having.iter())
            .chain(select.order_by.iter().map(|(e, _)| e));
        if !exprs.into_iter().any(has_subquery) {
            return Ok(Cow::Borrowed(select));
        }
        let mut owned = select.clone();
        for p in &mut owned.projections {
            if let SelectItem::Expr { expr, .. } = p {
                self.fold_expr(cfg, expr)?;
            }
        }
        if let Some(sel) = &mut owned.selection {
            self.fold_expr(cfg, sel)?;
        }
        for g in &mut owned.group_by {
            self.fold_expr(cfg, g)?;
        }
        if let Some(h) = &mut owned.having {
            self.fold_expr(cfg, h)?;
        }
        for (e, _) in &mut owned.order_by {
            self.fold_expr(cfg, e)?;
        }
        Ok(Cow::Owned(owned))
    }

    /// Fold the subqueries of one expression in place (also the entry point
    /// for UPDATE/DELETE predicates).
    pub(crate) fn fold_expr(&self, cfg: &Settings, e: &mut Expr) -> Result<()> {
        use Expr as E;
        match e {
            E::InSubquery {
                expr,
                select,
                negated,
            } => {
                self.fold_expr(cfg, expr)?;
                let rs = self.select(cfg, select, false)?;
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
            E::Unary { expr, .. } => self.fold_expr(cfg, expr)?,
            E::Binary { left, right, .. } => {
                self.fold_expr(cfg, left)?;
                self.fold_expr(cfg, right)?;
            }
            E::InList { expr, list, .. } => {
                self.fold_expr(cfg, expr)?;
                for i in list {
                    self.fold_expr(cfg, i)?;
                }
            }
            E::Between {
                expr, low, high, ..
            } => {
                self.fold_expr(cfg, expr)?;
                self.fold_expr(cfg, low)?;
                self.fold_expr(cfg, high)?;
            }
            E::Function { args, .. } => {
                for a in args {
                    self.fold_expr(cfg, a)?;
                }
            }
        }
        Ok(())
    }
}

/// Whether `e` contains an `IN (SELECT ...)` anywhere — i.e. whether
/// folding it needs a snapshot at all.
pub(crate) fn has_subquery(e: &Expr) -> bool {
    use Expr as E;
    match e {
        E::InSubquery { .. } => true,
        E::Literal(_) | E::Parameter(_) | E::CompoundRef(_) => false,
        E::Unary { expr, .. } => has_subquery(expr),
        E::Binary { left, right, .. } => has_subquery(left) || has_subquery(right),
        E::InList { expr, list, .. } => has_subquery(expr) || list.iter().any(has_subquery),
        E::Between {
            expr, low, high, ..
        } => has_subquery(expr) || has_subquery(low) || has_subquery(high),
        E::Function { args, .. } => args.iter().any(has_subquery),
    }
}
