//! Query planning: AST → physical plan.
//!
//! The planner implements the paper's conceptual evaluation order (EDBT
//! 2018 §5.3) — the relational FROM-sources are joined first, then each
//! `gv.PATHS` source is attached, probed by the relational block when a
//! start-vertex anchor references it (Figure 6) — plus the §6 optimizer.
//!
//! Every WHERE conjunct is compiled once, against the whole FROM clause
//! (relational items in FROM order, then path items — the layout of the
//! combined row), before any source is planned. The rules below match the
//! compiled [`PhysExpr`], never the AST, so what a path reference means is
//! decided in one place, `expr::compile`. Which source a conjunct belongs
//! to is a question about the columns it reads: a relational leaf owns a
//! conjunct that reads only its columns, and a path scan's anchor or
//! pushed comparand is usable when it reads only the scan's outer row, a
//! prefix of the combined row.
//!
//! * **Path-length inference** (§6.1): `PS.Length` bounds against integer
//!   literals, and indexed references (`PS.Edges[5..*]` ⇒ length ≥ 6) a
//!   conjunct cannot hold without, become the traversal's `[min, max]`
//!   window.
//! * **Predicate pushdown** (§6.2): single-path edge/vertex predicates and
//!   running `SUM` bounds are copied into the scan's traversal filters.
//!   Pushed predicates are *also* kept in the residual filter, so turning
//!   pushdown off (ablation) never changes results. So is the end anchor.
//! * **Consumed conjuncts**: the start anchor the scan is seeded from and
//!   every `PS.Length` bound folded into its window leave the residual
//!   filter — the scan enforces them by construction in every mode (it
//!   starts nowhere else and emits no other length), exactly as a table
//!   leaf consumes the conjuncts pushed onto it. A filter left with no
//!   conjunct is not emitted.
//! * **Cycle closure**: over an exact window `L..=L` (DFS/BFS/Auto), a
//!   conjunct equating the start and end vertexes (`PS.Edges[L-1].EndVertex
//!   = PS.Edges[0].StartVertex`, `PS.EndVertex.Id = PS.StartVertex.Id`) is
//!   consumed as [`PathScanConfig::closing`]: the traversal's last hop
//!   only lands on the start vertex.
//! * **Counting scans**: an ungrouped aggregate whose calls are all
//!   `COUNT(*)`/`COUNT(P)`, directly over a standalone path scan, is
//!   planned as that scan with [`Emit::Count`] (under `aggregate_pushdown`).
//! * **Logical→physical mapping** (§6.3): `HINT(...)` picks
//!   DFS/BFS/SPScan; otherwise `ScanMode::Auto` defers the `BFS iff F < L`
//!   decision to execution time where the fan-out statistic lives.

use std::collections::HashMap;
use std::sync::Arc;

use grfusion_common::{Column, DataType, Error, Result, Schema, Value};
use grfusion_sql::{Expr, FromItem, IndexEnd, PathHint, Select, SelectItem};
use grfusion_storage::{catalog, IndexKind};

use crate::access::{choose, AccessPath};
use crate::config::OptimizerFlags;
use crate::expr::{
    compile, compile_aggregate, compile_conjuncts, compile_predicate, element_target, length_with,
    AggFunc, Binding, BindingKind, CmpOp, EdgeAttr, ElemAttr, GraphMeta, Grouping, Namespace,
    PathProp, PathTarget, PhysExpr, QuantTest, SlotAttr,
};
use crate::plan::{
    AggSpec, Emit, PathScanConfig, PlanNode, PushedAggPred, PushedPred, ScanMode, StartSource,
};

/// Length cap of a `SHORTESTPATH` scan whose query wrote no `PS.Length`
/// bound: SPScan terminates by cost order, so the cap is only a safety net.
/// Whether a scan's `max_len` is this default or the query's own bound is
/// carried by [`PathScanConfig::explicit_max_len`], never inferred from the
/// value.
const DEFAULT_SP_MAX_LEN: usize = 64;

/// Catalog information the planner needs (immutable snapshot).
pub struct PlannerCtx {
    /// Lowercase table name → schema.
    pub tables: HashMap<String, Arc<Schema>>,
    /// Lowercase table name → columns with a hash index (for IndexLookup).
    pub hash_indexed: HashMap<String, Vec<(usize, IndexKind)>>,
    /// Lowercase graph-view name → metadata.
    pub graphs: Arc<HashMap<String, GraphMeta>>,
    /// Per-graph scan schemas.
    pub vertex_scan_schemas: HashMap<String, Arc<Schema>>,
    pub edge_scan_schemas: HashMap<String, Arc<Schema>>,
}

/// Plan a SELECT statement.
pub fn plan_select(select: &Select, ctx: &PlannerCtx, flags: &OptimizerFlags) -> Result<PlanNode> {
    let plan = Planner {
        ctx,
        flags,
        ns: Namespace::new(ctx.graphs.clone()),
    }
    .plan(select)?;
    // Static QEP verification: re-derive every node's schema bottom-up and
    // check graph-operator invariants before anything executes.
    crate::analyze::verify_plan(&plan, &ctx.graphs, &ctx.tables)?;
    Ok(plan)
}

struct Planner<'a> {
    ctx: &'a PlannerCtx,
    flags: &'a OptimizerFlags,
    ns: Namespace<'a>,
}

impl<'a> Planner<'a> {
    fn plan(mut self, select: &'a Select) -> Result<PlanNode> {
        if select.from.is_empty() {
            return Err(Error::analysis("FROM clause is required"));
        }
        // §5.3: relational-model sources first, graph path sources after.
        // The namespace binds them in that order: it is the combined row.
        let is_path = |item: &&FromItem| matches!(item, FromItem::GraphPaths { .. });
        let path_items = || select.from.iter().filter(is_path);
        let relational = select.from.len() - path_items().count();
        for item in select.from.iter().filter(|item| !is_path(item)) {
            self.bind_relational(item)?;
        }
        let ctx = self.ctx;
        for item in path_items() {
            let FromItem::GraphPaths { graph, .. } = item else {
                return Err(Error::plan("non-path source in the path-planning list"));
            };
            let Some((graph, _)) = ctx.graphs.get_key_value(&*catalog::key(graph)) else {
                return Err(Error::analysis(format!("unknown graph view `{graph}`")));
            };
            // The scan's one column, named by the binding in lowercase.
            let binding = item.binding();
            let column = Column::new(binding.to_ascii_lowercase(), DataType::Path);
            let schema = Schema::new(vec![column]).shared();
            self.ns.push(binding, BindingKind::Paths(graph), schema)?;
        }

        // Every conjunct is compiled — resolved and typed — once, against
        // the whole FROM clause. The rules below consume some of them, each
        // taking its slot (`None` from then on); the rest become the
        // residual filter.
        let conjuncts: Vec<&Expr> = select
            .selection
            .as_ref()
            .map(|e| e.conjuncts())
            .unwrap_or_default();
        let mut compiled: Vec<Option<PhysExpr>> = compile_conjuncts(&conjuncts, &self.ns)?
            .into_iter()
            .map(Some)
            .collect();

        // ---- relational block --------------------------------------------------
        let (tables, paths) = self.ns.bindings.split_at(relational);
        let mut plan: Option<PlanNode> = None;
        for binding in tables {
            let node = self.leaf(binding, &mut compiled)?;
            plan = Some(match plan {
                None => node,
                Some(left) => {
                    // Prefer an index nested-loop join when an unconsumed
                    // equality correlates a hash-indexed column of the new
                    // table with the outer bindings (the join shape that
                    // makes SQLGraph-style hop-joins viable).
                    let ij = match node {
                        PlanNode::TableScan { .. } => self.find_index_join(binding, &mut compiled),
                        _ => None,
                    };
                    let out_schema = Arc::new(left.schema().join(node.schema()));
                    match (ij, node) {
                        (Some((column, key)), PlanNode::TableScan { table, filter, .. }) => {
                            PlanNode::IndexJoin {
                                outer: Box::new(left),
                                table,
                                column,
                                key,
                                filter,
                                schema: out_schema,
                            }
                        }
                        (_, node) => PlanNode::NestedLoopJoin {
                            left: Box::new(left),
                            right: Box::new(node),
                            condition: None, // conditions live in the residual filter
                            schema: out_schema,
                        },
                    }
                }
            });
        }

        // ---- path sources ---------------------------------------------------------
        for (binding, item) in paths.iter().zip(path_items()) {
            let (BindingKind::Paths(graph), FromItem::GraphPaths { hint, .. }) =
                (binding.kind, item)
            else {
                return Err(Error::plan("non-path source in the path-planning list"));
            };
            let config = self.path_scan_config(
                graph,
                binding.offset,
                hint.as_ref(),
                &mut compiled,
                select.limit == Some(1),
            )?;
            let path_schema = binding.schema.clone();
            plan = Some(match (plan, &config.start) {
                (Some(outer), StartSource::Probe(_)) => {
                    let schema = Arc::new(outer.schema().join(&path_schema));
                    PlanNode::PathJoin {
                        outer: Box::new(outer),
                        config,
                        schema,
                    }
                }
                (Some(outer), _) => {
                    let scan = PlanNode::PathScan {
                        config,
                        schema: path_schema.clone(),
                    };
                    let schema = Arc::new(outer.schema().join(&path_schema));
                    PlanNode::NestedLoopJoin {
                        left: Box::new(outer),
                        right: Box::new(scan),
                        condition: None,
                        schema,
                    }
                }
                (None, _) => {
                    // A probe with no outer can only have resolved against
                    // constants; path_scan_config guarantees that.
                    PlanNode::PathScan {
                        config,
                        schema: path_schema,
                    }
                }
            });
        }

        let Some(mut plan) = plan else {
            return Err(Error::analysis("query requires at least one FROM source"));
        };

        // ---- residual predicate -----------------------------------------------------
        let residual = compiled
            .into_iter()
            .flatten()
            .reduce(|p, pe| PhysExpr::And(Box::new(p), Box::new(pe)));
        if let Some(predicate) = residual {
            plan = PlanNode::Filter {
                schema: plan.schema().clone(),
                predicate,
                input: Box::new(plan),
            };
        }

        // ---- aggregation ---------------------------------------------------------------
        // The aggregate's output columns: the GROUP BY expressions, then
        // the distinct aggregate calls.
        let mut keys: Vec<&Expr> = select.group_by.iter().collect();
        collect_aggregates(select, &mut keys);
        let (group_by, agg_calls) = keys.split_at(select.group_by.len());
        let grouped = !keys.is_empty();
        if grouped {
            let mut group_exprs = Vec::with_capacity(group_by.len());
            let mut cols = Vec::with_capacity(keys.len());
            for (i, g) in group_by.iter().enumerate() {
                let pe = compile(g, &self.ns)?;
                cols.push(Column::new(format!("_g{i}"), pe.static_type()));
                group_exprs.push(pe);
            }
            let mut aggs = Vec::with_capacity(agg_calls.len());
            for (j, call) in agg_calls.iter().enumerate() {
                let (spec, ty) = compile_aggregate(call, &self.ns)?;
                cols.push(Column::new(format!("_a{j}"), ty));
                aggs.push(spec);
            }
            let schema = Schema::new(cols).shared();
            plan = match plan {
                // Every call counts every path of a standalone scan: the
                // scan counts inside the traversal and emits the one row.
                PlanNode::PathScan { mut config, .. }
                    if self.flags.aggregate_pushdown
                        && group_exprs.is_empty()
                        && aggs.iter().all(counts_every_path) =>
                {
                    config.emit = Emit::Count;
                    PlanNode::PathScan {
                        config,
                        schema: schema.clone(),
                    }
                }
                input => PlanNode::Aggregate {
                    input: Box::new(input),
                    group_exprs,
                    aggs,
                    schema: schema.clone(),
                },
            };
            // From here on, expressions read the aggregate's output.
            self.ns.grouping = Some(Grouping { keys, schema });

            if let Some(having) = &select.having {
                plan = PlanNode::Filter {
                    schema: plan.schema().clone(),
                    predicate: compile_predicate(having, &self.ns, "HAVING")?,
                    input: Box::new(plan),
                };
            }
        } else if select.having.is_some() {
            return Err(Error::analysis("HAVING requires GROUP BY or aggregates"));
        }

        // ---- order by ---------------------------------------------------------------------
        if !select.order_by.is_empty() {
            let mut keys = Vec::new();
            for (e, asc) in &select.order_by {
                keys.push((compile(e, &self.ns)?, *asc));
            }
            plan = PlanNode::Sort {
                schema: plan.schema().clone(),
                input: Box::new(plan),
                keys,
            };
        }

        // ---- projection ----------------------------------------------------------------------
        let mut exprs = Vec::with_capacity(select.projections.len());
        let mut cols = Vec::with_capacity(select.projections.len());
        for item in &select.projections {
            match item {
                SelectItem::Wildcard => {
                    if grouped {
                        return Err(Error::analysis("SELECT * cannot be combined with GROUP BY"));
                    }
                    let combined = self.ns.combined_schema();
                    for (i, c) in combined.columns().iter().enumerate() {
                        exprs.push(PhysExpr::Column {
                            index: i,
                            ty: c.data_type,
                        });
                        cols.push(c.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let pe = compile(expr, &self.ns)?;
                    let name = alias.clone().unwrap_or_else(|| derive_name(expr));
                    cols.push(Column::new(name, pe.static_type()));
                    exprs.push(pe);
                }
            }
        }
        let schema = Schema::new(cols).shared();
        plan = PlanNode::Project {
            input: Box::new(plan),
            exprs,
            schema: schema.clone(),
        };

        // ---- distinct ---------------------------------------------------------------------------
        if select.distinct {
            plan = PlanNode::Distinct {
                schema: schema.clone(),
                input: Box::new(plan),
            };
        }

        // ---- limit -----------------------------------------------------------------------------
        if let Some(n) = select.limit {
            plan = PlanNode::Limit {
                schema,
                input: Box::new(plan),
                limit: n,
            };
        }
        Ok(plan)
    }

    /// Bind the columns of a relational-model FROM item.
    fn bind_relational(&mut self, item: &'a FromItem) -> Result<()> {
        let ctx = self.ctx;
        let unknown_view = |graph: &str| Error::analysis(format!("unknown graph view `{graph}`"));
        let (kind, schema) = match item {
            FromItem::Table { name, .. } => {
                let (table, schema) = ctx
                    .tables
                    .get_key_value(&*catalog::key(name))
                    .ok_or_else(|| Error::analysis(format!("unknown table `{name}`")))?;
                (BindingKind::Table(table), schema)
            }
            FromItem::GraphVertexes { graph, .. } => {
                let (graph, schema) = ctx
                    .vertex_scan_schemas
                    .get_key_value(&*catalog::key(graph))
                    .ok_or_else(|| unknown_view(graph))?;
                (BindingKind::Vertexes(graph), schema)
            }
            FromItem::GraphEdges { graph, .. } => {
                let (graph, schema) = ctx
                    .edge_scan_schemas
                    .get_key_value(&*catalog::key(graph))
                    .ok_or_else(|| unknown_view(graph))?;
                (BindingKind::Edges(graph), schema)
            }
            FromItem::GraphPaths { .. } => {
                return Err(Error::plan(
                    "path sources are planned after the relational block",
                ))
            }
        };
        self.ns.push(item.binding(), kind, schema.clone())
    }

    /// The leaf scan of a relational binding, with the conjuncts that read
    /// only its columns pushed down, rebased to the leaf's own row.
    /// Consumed conjuncts are exact, so they are taken out of the residual.
    /// A table scan becomes an index lookup when a pushed conjunct is a
    /// constant equality on a hash-indexed column.
    fn leaf(&self, binding: &Binding, compiled: &mut [Option<PhysExpr>]) -> Result<PlanNode> {
        let columns = binding.offset..binding.offset + binding.schema.len();
        // A constant conjunct reads no column, so it is no leaf's.
        let owned = |pe: &mut PhysExpr| {
            pe.column_span()
                .is_some_and(|(lo, hi)| columns.contains(&lo) && columns.contains(&hi))
        };
        let mut pushed: Vec<PhysExpr> = Vec::new();
        for slot in compiled.iter_mut() {
            if let Some(pe) = slot.take_if(owned) {
                pushed.push(pe.rebased(binding.offset));
            }
        }
        // A constant equality on a hash-indexed column is consumed by the
        // index, not the filter. (Range verdicts stay scans for SELECT.)
        let mut index_key: Option<(usize, PhysExpr)> = None;
        let hash_indexed = match binding.kind {
            BindingKind::Table(table) => self.ctx.hash_indexed.get(table),
            _ => None,
        };
        if let Some(indexes) = hash_indexed {
            if let AccessPath::Key {
                column,
                conjunct,
                key,
                ..
            } = choose(&pushed, indexes)
            {
                index_key = Some((column, key.clone()));
                pushed.remove(conjunct);
            }
        }
        let filter = pushed
            .into_iter()
            .reduce(|f, pe| PhysExpr::And(Box::new(f), Box::new(pe)));

        let schema = binding.schema.clone();
        Ok(match binding.kind {
            BindingKind::Table(table) => match index_key {
                Some((column, key)) => PlanNode::IndexLookup {
                    table: table.to_owned(),
                    schema,
                    column,
                    key,
                    filter,
                },
                None => PlanNode::TableScan {
                    table: table.to_owned(),
                    schema,
                    filter,
                },
            },
            BindingKind::Vertexes(graph) => PlanNode::VertexScan {
                graph: graph.to_owned(),
                schema,
                filter,
            },
            BindingKind::Edges(graph) => PlanNode::EdgeScan {
                graph: graph.to_owned(),
                schema,
                filter,
            },
            BindingKind::Paths(_) => {
                return Err(Error::plan("path binding in the relational block"));
            }
        })
    }

    /// Look for an equality conjunct `new.col = <expr over outer bindings>`
    /// where `new.col` has a hash index — the index-join opportunity. The
    /// matched conjunct is consumed (the index probe enforces it exactly).
    /// The outer row is a prefix of the combined row, so the key reads it
    /// as compiled.
    fn find_index_join(
        &self,
        binding: &Binding,
        compiled: &mut [Option<PhysExpr>],
    ) -> Option<(usize, PhysExpr)> {
        let BindingKind::Table(table) = binding.kind else {
            return None;
        };
        let indexed_cols = self.ctx.hash_indexed.get(table)?;
        for slot in compiled.iter_mut() {
            let Some(PhysExpr::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            }) = slot.as_ref()
            else {
                continue;
            };
            // The inner side is a hash-indexed column of the new table; the
            // outer side reads the bindings joined so far, and only them.
            // (Hash probes compare by group key; the executor coerces the
            // key to the column type, so INT vs DOUBLE never misses.)
            let found = [(left, right), (right, left)]
                .into_iter()
                .find_map(|(inner, outer)| {
                    let PhysExpr::Column { index, .. } = **inner else {
                        return None;
                    };
                    let column = index.checked_sub(binding.offset)?;
                    let outer_only = outer
                        .column_span()
                        .is_some_and(|(_, hi)| hi < binding.offset);
                    (outer_only
                        && column < binding.schema.len()
                        && indexed_cols.contains(&(column, IndexKind::Hash)))
                    .then(|| (column, PhysExpr::clone(outer)))
                });
            if found.is_some() {
                *slot = None;
                return found;
            }
        }
        None
    }

    /// Analyze the conjuncts that constrain the path in column `col` and
    /// build its scan configuration. The conjuncts the scan enforces by
    /// construction — its start anchor, its length window and a closing
    /// conjunct — are consumed.
    fn path_scan_config(
        &self,
        graph: &str,
        col: usize,
        hint: Option<&PathHint>,
        compiled: &mut [Option<PhysExpr>],
        limit1: bool,
    ) -> Result<PathScanConfig> {
        let mode = match hint {
            Some(PathHint::ShortestPath { cost_attr }) => {
                let meta = self
                    .ctx
                    .graphs
                    .get(graph)
                    .ok_or_else(|| Error::analysis(format!("unknown graph view `{graph}`")))?;
                let Some((ElemAttr::Slot(SlotAttr::Edge(EdgeAttr::Col(cost))), _)) =
                    meta.attr_of(PathTarget::Edges, cost_attr)
                else {
                    return Err(Error::analysis(format!(
                        "SHORTESTPATH hint references unknown edge attribute `{cost_attr}`"
                    )));
                };
                ScanMode::ShortestPath {
                    cost_attr: cost_attr.to_ascii_lowercase(),
                    cost,
                }
            }
            Some(PathHint::Dfs) => ScanMode::Dfs,
            Some(PathHint::Bfs) => ScanMode::Bfs,
            None => match self.flags.traversal {
                crate::config::TraversalChoice::Auto => ScanMode::Auto,
                crate::config::TraversalChoice::Dfs => ScanMode::Dfs,
                crate::config::TraversalChoice::Bfs => ScanMode::Bfs,
            },
        };
        let is_sp = matches!(mode, ScanMode::ShortestPath { .. });

        // ---- length window (§6.1) ----
        let (mut min_len, mut max_len) = (0usize, None::<usize>);
        if self.flags.length_inference {
            for slot in compiled.iter_mut() {
                let Some(pe) = slot else { continue };
                match length_bound(pe, col) {
                    Some((lo, hi)) => {
                        narrow(&mut min_len, &mut max_len, lo, hi);
                        *slot = None;
                    }
                    None => min_len = min_len.max(implied_min_len(pe, col)),
                }
            }
        }
        let explicit_max_len = max_len.is_some();
        let max_len = max_len.unwrap_or(if is_sp {
            DEFAULT_SP_MAX_LEN
        } else {
            self.flags.default_max_path_len
        });

        // ---- anchors ----
        // A start anchor may read the scan's outer row: it makes the scan
        // a probe of it.
        let mut start = StartSource::AllVertexes;
        for slot in compiled.iter_mut() {
            let Some(pe) = slot else { continue };
            let start_anchor = anchor(pe, col, &PathProp::StartVertexId, |rhs| {
                reads_below(rhs, col)
            });
            if let Some(rhs) = start_anchor {
                start = if rhs.is_constant() {
                    StartSource::Constant(rhs.clone())
                } else {
                    StartSource::Probe(rhs.clone())
                };
                *slot = None;
                break;
            }
        }
        // Everything else the scan binds sees the outer row only when it is
        // a probe: a standalone scan binds against no row.
        let outer = if matches!(start, StartSource::Probe(_)) {
            col
        } else {
            0
        };
        let end = compiled
            .iter()
            .flatten()
            .find_map(|pe| {
                anchor(pe, col, &PathProp::EndVertexId, |rhs| {
                    reads_below(rhs, outer)
                })
            })
            .cloned();
        if is_sp {
            if matches!(start, StartSource::AllVertexes) {
                return Err(Error::plan(
                    "SHORTESTPATH requires a start anchor (PS.StartVertex.Id = ...)",
                ));
            }
            if end.is_none() {
                return Err(Error::plan(
                    "SHORTESTPATH requires an end anchor (PS.EndVertex.Id = ...)",
                ));
            }
        }

        // ---- cycle closure ----
        // Over an exact window `L..=L` a conjunct equating the start and end
        // vertexes keeps exactly the paths the traversal can close on its
        // last hop. KShortestPaths ignores the traversal spec, so a
        // SHORTESTPATH scan keeps the conjunct residual.
        let mut closing = false;
        if min_len == max_len && min_len >= 1 && !is_sp {
            for slot in compiled.iter_mut() {
                if slot.take_if(|pe| equates_ends(pe, col, max_len)).is_some() {
                    closing = true;
                }
            }
        }

        // ---- pushdown (§6.2) ----
        let preds = if self.flags.predicate_pushdown {
            compiled
                .iter()
                .flatten()
                .filter_map(|pe| pushed_pred(pe, col, outer))
                .collect()
        } else {
            Vec::new()
        };
        let agg_preds = if self.flags.aggregate_pushdown {
            compiled
                .iter()
                .flatten()
                .filter_map(|pe| pushed_sum_bound(pe, col, outer))
                .collect()
        } else {
            Vec::new()
        };

        // ---- reachability fast-path analysis (see PathScanConfig docs) ----
        let reachability = limit1
            && min_len == 0
            && end.is_some()
            && !matches!(start, StartSource::AllVertexes)
            && matches!(
                mode,
                ScanMode::Auto | ScanMode::Bfs | ScanMode::ShortestPath { .. }
            )
            && compiled
                .iter()
                .flatten()
                .all(|pe| self.safe_for_reachability(pe, col, outer));

        Ok(PathScanConfig {
            graph: graph.to_string(),
            mode,
            min_len,
            max_len,
            explicit_max_len,
            start,
            end,
            preds,
            agg_preds,
            lazy: self.flags.lazy_path_scan,
            reachability,
            closing,
            emit: Emit::Paths,
        })
    }

    /// Is this conjunct compatible with returning the one path of a
    /// point-to-point search instead of enumerating? Safe forms: conjuncts
    /// that do not read the path, equalities on its start or end vertex
    /// whose other side does not read it (every candidate path shares those
    /// vertexes), length bounds the window holds, and uniform `[0..*]`
    /// predicates pushed into the traversal filter.
    fn safe_for_reachability(&self, pe: &PhysExpr, col: usize, outer: usize) -> bool {
        let path_free = |other: &PhysExpr| !other.reads_column(col);
        !pe.reads_column(col)
            || anchor(pe, col, &PathProp::StartVertexId, path_free).is_some()
            || anchor(pe, col, &PathProp::EndVertexId, path_free).is_some()
            || (self.flags.length_inference && length_bound(pe, col).is_some())
            || (self.flags.predicate_pushdown
                && pushed_pred(pe, col, outer)
                    .is_some_and(|p| p.start == 0 && p.end == IndexEnd::Star))
    }
}

/// `COUNT(*)`, or `COUNT(P)` of a path binding (never NULL): over a path
/// scan's one-column rows, the number of paths.
fn counts_every_path(spec: &AggSpec) -> bool {
    spec.func == AggFunc::Count
        && matches!(
            spec.arg,
            None | Some(PhysExpr::PathProp {
                prop: PathProp::Whole,
                ..
            })
        )
}

/// Derive an output column name from a projection expression.
fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::CompoundRef(parts) => parts
            .last()
            .map(|p| p.name.to_ascii_lowercase())
            .unwrap_or_else(|| "expr".into()),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        _ => "expr".into(),
    }
}

/// Append to `out` the distinct group-aggregate calls appearing in the
/// SELECT list and HAVING/ORDER BY clauses, each distinct from the calls
/// appended before it. Path aggregates (`SUM(PS.Edges.W)`) are scalars and
/// are NOT collected.
fn collect_aggregates<'s>(select: &'s Select, out: &mut Vec<&'s Expr>) {
    let from = out.len();
    let mut visit = |e| collect_agg_calls(e, out, from);
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            visit(expr);
        }
    }
    if let Some(h) = &select.having {
        visit(h);
    }
    for (e, _) in &select.order_by {
        visit(e);
    }
}

fn collect_agg_calls<'s>(expr: &'s Expr, out: &mut Vec<&'s Expr>, from: usize) {
    match expr {
        Expr::Parameter(_) => {}
        Expr::Function { name, args, .. } => {
            if AggFunc::parse(name).is_some() {
                // Path aggregates look like FUNC(p.Edges.attr): 3-part
                // unindexed ref. They are scalar — skip them here. (If the
                // head isn't a path binding, compilation of the "scalar"
                // form fails later with a clear error.)
                let is_path_agg = matches!(
                    args.as_slice(),
                    [Expr::CompoundRef(parts)]
                        if parts.len() == 3
                            && parts.iter().all(|p| p.index.is_none())
                            && element_target(&parts[1]).is_some()
                );
                if !is_path_agg {
                    if !out[from..].contains(&expr) {
                        out.push(expr);
                    }
                    return;
                }
            }
            for a in args {
                collect_agg_calls(a, out, from);
            }
        }
        Expr::Unary { expr, .. } => collect_agg_calls(expr, out, from),
        Expr::Binary { left, right, .. } => {
            collect_agg_calls(left, out, from);
            collect_agg_calls(right, out, from);
        }
        Expr::InList { expr, list, .. } => {
            collect_agg_calls(expr, out, from);
            for e in list {
                collect_agg_calls(e, out, from);
            }
        }
        Expr::InSubquery { expr, .. } => collect_agg_calls(expr, out, from),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_agg_calls(expr, out, from);
            collect_agg_calls(low, out, from);
            collect_agg_calls(high, out, from);
        }
        Expr::Literal(_) | Expr::CompoundRef(_) => {}
    }
}

/// Whether `pe` reads no column at or past `limit` (a constant reads none).
fn reads_below(pe: &PhysExpr, limit: usize) -> bool {
    pe.column_span().is_none_or(|(_, hi)| hi < limit)
}

/// The other side of `pe` when it is `<vertex> = <rhs>`, either way round,
/// for `vertex` (the start or end vertex id) of the path in column `col`,
/// and `usable(rhs)`.
fn anchor<'p>(
    pe: &'p PhysExpr,
    col: usize,
    vertex: &PathProp,
    usable: impl Fn(&PhysExpr) -> bool,
) -> Option<&'p PhysExpr> {
    let PhysExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = pe
    else {
        return None;
    };
    let is_vertex = |e: &PhysExpr| match e {
        PhysExpr::PathProp { col: c, prop, .. } => *c == col && prop == vertex,
        _ => false,
    };
    if is_vertex(left) && usable(right) {
        Some(right)
    } else if is_vertex(right) && usable(left) {
        Some(left)
    } else {
        None
    }
}

/// Whether `pe` equates the start and end vertexes of the path in column
/// `col`, on a path of exactly `len` edges, in any spelling of either.
fn equates_ends(pe: &PhysExpr, col: usize, len: usize) -> bool {
    let PhysExpr::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = pe
    else {
        return false;
    };
    let position = |e: &PhysExpr| match e {
        PhysExpr::PathProp { col: c, prop, .. } if *c == col => prop.position_of_vertex(len),
        _ => None,
    };
    matches!(
        (position(left), position(right)),
        (Some(a), Some(b)) if a.min(b) == 0 && a.max(b) == len
    )
}

/// Intersect the length window with `lo..=hi` (either side open). A
/// negative upper bound admits no length at all: the window becomes the
/// empty `1..=0`, so it stays exact.
fn narrow(min_len: &mut usize, max_len: &mut Option<usize>, lo: Option<i64>, hi: Option<i64>) {
    if let Some(lo) = lo {
        *min_len = (*min_len).max(usize::try_from(lo).unwrap_or(0));
    }
    if let Some(hi) = hi {
        let hi = usize::try_from(hi).unwrap_or_else(|_| {
            *min_len = (*min_len).max(1);
            0
        });
        *max_len = Some(max_len.map_or(hi, |m| m.min(hi)));
    }
}

/// An explicit `PS.Length` bound on the path in column `col` (§6.1):
/// `PS.Length op k` either way round, or `PS.Length BETWEEN a AND b`, with
/// INTEGER literals — the lengths `lo..=hi` it admits, either side open.
/// The window expresses such a conjunct exactly, so a scan over it need not
/// re-check it.
fn length_bound(pe: &PhysExpr, col: usize) -> Option<(Option<i64>, Option<i64>)> {
    let is_length = |e: &PhysExpr| match e {
        PhysExpr::PathProp { col: c, prop, .. } => *c == col && *prop == PathProp::Length,
        _ => false,
    };
    let literal = |e: &PhysExpr| match e {
        PhysExpr::Literal(Value::Integer(k)) => Some(*k),
        _ => None,
    };
    match pe {
        PhysExpr::Cmp { op, left, right } => {
            let (op, k) = if is_length(left) {
                (*op, literal(right)?)
            } else if is_length(right) {
                // k op len  ≡  len op' k
                (op.mirrored(), literal(left)?)
            } else {
                return None;
            };
            match op {
                CmpOp::Eq => Some((Some(k), Some(k))),
                CmpOp::LtEq => Some((None, Some(k))),
                CmpOp::Lt => Some((None, Some(k.saturating_sub(1)))),
                CmpOp::GtEq => Some((Some(k), None)),
                CmpOp::Gt => Some((Some(k.saturating_add(1)), None)),
                CmpOp::NotEq => None, // not a window bound
            }
        }
        PhysExpr::Between {
            expr,
            low,
            high,
            negated: false,
        } if is_length(expr) => Some((Some(literal(low)?), Some(literal(high)?))),
        _ => None,
    }
}

/// The implicit minimum length a conjunct puts on the path in column `col`
/// (§6.1): the shortest path on which it can be TRUE. A quantified range
/// needs its last fixed position (`Edges[5..*]` ⇒ length ≥ 6; `[0..*]` is
/// vacuous on short paths). A comparison, a `BETWEEN` or an `IN` is not TRUE
/// when an operand it reads as a value is NULL — an element past the path's
/// end — except a `NOT BETWEEN` bound or an `IN`-list item. A position
/// under `OR` or `NOT` implies nothing.
fn implied_min_len(pe: &PhysExpr, col: usize) -> usize {
    let value = |e: &PhysExpr| value_min_len(e, col);
    match pe {
        PhysExpr::Quant {
            col: c,
            start,
            end,
            attr,
            ..
        } if *c == col => match end {
            IndexEnd::Star if *start == 0 => 0,
            IndexEnd::Star | IndexEnd::At => length_with(attr.target(), *start),
            IndexEnd::Bounded(b) => length_with(attr.target(), (*b).max(*start)),
        },
        PhysExpr::Cmp { left, right, .. } => value(left).max(value(right)),
        PhysExpr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let probe = value(expr);
            if *negated {
                probe
            } else {
                probe.max(value(low)).max(value(high))
            }
        }
        PhysExpr::InList { expr, .. } => value(expr),
        _ => 0,
    }
}

/// The shortest path in column `col` on which value `pe` is not NULL, from
/// the elements it reads through arithmetic, which a NULL operand makes
/// NULL.
fn value_min_len(pe: &PhysExpr, col: usize) -> usize {
    match pe {
        PhysExpr::PathProp { col: c, prop, .. } if *c == col => prop.min_length(),
        PhysExpr::Neg(e) => value_min_len(e, col),
        PhysExpr::Arith { left, right, .. } => {
            value_min_len(left, col).max(value_min_len(right, col))
        }
        _ => 0,
    }
}

/// `pe` as a traversal predicate on the elements of the path in column
/// `col` (§6.2): a quantified range test, or a comparison or `IN` list on
/// one element, whose comparands read only the first `outer` columns. A
/// hop's `StartVertex` / `EndVertex` depend on the path's direction, so
/// tests on them are never pushed: only an [`ElemAttr::Slot`] is.
fn pushed_pred(pe: &PhysExpr, col: usize, outer: usize) -> Option<PushedPred> {
    fn element(e: &PhysExpr, col: usize) -> Option<(u64, SlotAttr)> {
        match e {
            PhysExpr::PathProp {
                col: c,
                prop: PathProp::ElementAt(i, ElemAttr::Slot(attr)),
                ..
            } if *c == col => Some((*i, *attr)),
            _ => None,
        }
    }
    let below = |es: &[PhysExpr]| es.iter().all(|e| reads_below(e, outer));
    let cmp = |op: CmpOp, rhs: &PhysExpr| QuantTest::Cmp {
        op,
        rhs: Box::new(rhs.clone()),
    };
    let (start, end, attr, test) = match pe {
        PhysExpr::Quant {
            col: c,
            start,
            end,
            attr: ElemAttr::Slot(attr),
            test,
        } if *c == col && below(test.operands()) => (*start, *end, *attr, test.clone()),
        PhysExpr::Cmp { op, left, right } => match (element(left, col), element(right, col)) {
            (Some((i, attr)), _) if reads_below(right, outer) => {
                (i, IndexEnd::At, attr, cmp(*op, right))
            }
            (_, Some((i, attr))) if reads_below(left, outer) => {
                (i, IndexEnd::At, attr, cmp(op.mirrored(), left))
            }
            _ => return None,
        },
        PhysExpr::InList {
            expr,
            list,
            negated,
        } if below(list) => {
            let (i, attr) = element(expr, col)?;
            let test = QuantTest::In {
                list: list.clone(),
                negated: *negated,
            };
            (i, IndexEnd::At, attr, test)
        }
        _ => return None,
    };
    Some(PushedPred {
        start,
        end,
        attr,
        test,
    })
}

/// `pe` as a running-aggregate bound (§6.2): `SUM(PS.Edges.attr) < rhs`
/// (or `<=`), either way round, on the path in column `col`, whose `rhs`
/// reads only the first `outer` columns.
fn pushed_sum_bound(pe: &PhysExpr, col: usize, outer: usize) -> Option<PushedAggPred> {
    let PhysExpr::Cmp { op, left, right } = pe else {
        return None;
    };
    let sum = |e: &PhysExpr| match e {
        PhysExpr::PathAgg {
            col: c,
            attr: ElemAttr::Slot(attr),
            func: AggFunc::Sum,
            ..
        } if *c == col => Some(*attr),
        _ => None,
    };
    let (attr, op, rhs) = match (sum(left), op) {
        (Some(agg), CmpOp::Lt | CmpOp::LtEq) => (agg, *op, right),
        (Some(_), _) => return None,
        (None, CmpOp::Gt | CmpOp::GtEq) => (sum(right)?, op.mirrored(), left),
        (None, _) => return None,
    };
    reads_below(rhs, outer).then(|| PushedAggPred {
        attr,
        op,
        rhs: PhysExpr::clone(rhs),
    })
}
