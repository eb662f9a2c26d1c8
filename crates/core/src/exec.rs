//! Execution of physical plans: the entry points, the operator-tree
//! builder with its one instrumentation wrapper, and the graph operators —
//! the vertex and edge scans and the one path operator, which serves both
//! `PathScan` (one probe) and `PathJoin` (one probe per outer row).
//!
//! Every operator implements `Operator` (see `spine.rs`, which also
//! holds the relational operators): `next_batch(out, max_rows)` returns at
//! most `max_rows` tuples, where `max_rows` is the consumer's demand, so
//! laziness propagates end-to-end: a `LIMIT 1` reachability query stops the
//! underlying graph traversal after the first qualifying path (EDBT 2018
//! §5.1.2). Graph operators emit ordinary tuples, which is how they compose
//! with the relational operators in one pipeline (§5.2); they are the one
//! place that still produces a row at a time, behind
//! `Batch::fill_rows`, which pulls exactly as many as were asked for.
//!
//! The executor runs against a [`QueryEnv`] of plain references: the engine
//! acquires read guards for every table/topology once per query (serial
//! H-Store-style execution), so operators never lock per row.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use grfusion_common::{Error, PathData, Result, Row, Value};
use grfusion_graph::{
    hop_minimal_path, shortest_path_with_stats, BfsPaths, DfsPaths, EdgeSlot, GraphTopology,
    KShortestPaths, SearchStats, TopologyLayout, TraversalFilter, TraversalSpec, VertexSlot,
};
use grfusion_sql::IndexEnd;
use grfusion_storage::{Index, IndexKind, Table};

use crate::analyze::NodeContract;
use crate::env::{GraphEnv, QueryEnv};
use crate::expr::{CmpOp, EdgeAttr, PhysExpr, SlotAttr, VertexAttr};
use crate::governor::{
    path_bytes, path_bytes_at, ExecContext, EXPANSION_CHECK_INTERVAL, OP_CHECK_INTERVAL,
};
use crate::metrics::{GovCounters, GraphCounters, MetricsSink, QueryMetrics};
use crate::plan::{
    Emit, PathScanConfig, PlanNode, PushedAggPred, PushedPred, ScanMode, StartSource,
};
use crate::spine::{
    Admit, Aggregate, Batch, BoxOp, Cursor, Distinct, Filter, IndexJoin, IndexLookup, Limit,
    NestedLoopJoin, Operator, Project, Sort, TableScan,
};

/// Coerce a probe key to the indexed column's type so hash lookups honor
/// SQL's cross-numeric equality (`uId = 2.0` must find integer 2; a key of
/// an incompatible type matches nothing). A key already of the column's type
/// is probed in place.
pub(crate) fn index_probe_key(v: &Value, ty: grfusion_common::DataType) -> Option<Cow<'_, Value>> {
    use grfusion_common::DataType;
    match (ty, v) {
        (DataType::Integer, Value::Double(d)) => {
            // Strict i64 range: the upper bound is exclusive because
            // `i64::MAX as f64` rounds up to 2^63, so `<= i64::MAX as f64`
            // admits 9223372036854775808.0 and `as` saturates it to
            // i64::MAX — a probe key that silently matched the wrong row.
            // `i64::MIN as f64` is exactly -(2^63) and remains inclusive.
            if d.fract() == 0.0 && *d >= i64::MIN as f64 && *d < 9_223_372_036_854_775_808.0 {
                Some(Cow::Owned(Value::Integer(*d as i64)))
            } else {
                None
            }
        }
        (DataType::Double, Value::Integer(i)) => Some(Cow::Owned(Value::Double(*i as f64))),
        _ if ty.admits(v) && !v.is_null() => Some(Cow::Borrowed(v)),
        _ => None,
    }
}

/// Execute a plan to completion, materializing the result rows.
pub fn execute_plan(plan: &PlanNode, env: &QueryEnv<'_>) -> Result<Vec<Row>> {
    run(plan, env, None)
}

/// Execute a plan with per-operator instrumentation (`EXPLAIN ANALYZE`):
/// every operator's batches are timed and counted, and graph operators
/// also report traversal counters. Returns the rows plus the metrics
/// snapshot.
pub fn execute_plan_with_metrics(
    plan: &PlanNode,
    env: &QueryEnv<'_>,
) -> Result<(Vec<Row>, QueryMetrics)> {
    let sink = MetricsSink::new();
    let rows = run(plan, env, Some(&sink))?;
    Ok((rows, sink.finish()))
}

/// Build the operator tree and drain it: the result collector is the one
/// consumer that copies a tuple out of a batch, one allocation per result
/// row.
fn run(plan: &PlanNode, env: &QueryEnv<'_>, sink: Option<&MetricsSink>) -> Result<Vec<Row>> {
    // Debug builds check every operator's contract, so the whole test
    // suite runs self-checking; release builds pay nothing.
    let contracts = cfg!(debug_assertions)
        .then(|| RefCell::new(crate::analyze::node_contracts(plan).into_iter()));
    let mut op = build(plan, env, sink, contracts.as_ref(), 0, false)?;
    let mut batch = Batch::default();
    let mut rows = Vec::new();
    while op.next_batch(&mut batch, env.batch_rows)? {
        rows.extend((0..batch.len()).map(|i| batch.tuple(i).to_vec())); // alloc-ok: a result row
    }
    Ok(rows)
}

/// The statically inferred per-node contracts in pre-order, handed out one
/// by one as [`build`] walks the plan in the same order.
type Contracts = RefCell<std::vec::IntoIter<NodeContract>>;

/// Assert one emitted tuple against a node's statically inferred contract
/// — arity, per-column type where statically certain, and inferred NOT
/// NULL. A violation means the analyzer and the executor disagree;
/// surfacing it at the offending operator beats corrupting downstream
/// state.
fn check_row_contract(c: &NodeContract, label: &str, row: &[Value]) -> Result<()> {
    if row.len() != c.schema.len() {
        return Err(Error::execution(format!(
            "operator contract violation at {label}: emitted {} columns, schema declares {}",
            row.len(),
            c.schema.len()
        )));
    }
    let violates = |&(i, v): &(usize, &Value)| {
        if v.is_null() {
            !c.nullable[i]
        } else {
            c.check[i] && !c.schema.column(i).data_type.admits(v)
        }
    };
    let Some((i, v)) = row.iter().enumerate().find(violates) else {
        return Ok(());
    };
    let col = c.schema.column(i);
    Err(Error::execution(if v.is_null() {
        format!(
            "operator contract violation at {label}: column {i} (`{}`) was inferred NOT NULL but emitted NULL",
            col.name
        )
    } else {
        format!(
            "operator contract violation at {label}: column {i} (`{}`) declared {} but emitted {v}",
            col.name, col.data_type
        )
    }))
}

/// Everything the engine observes about an operator from outside, in one
/// wrapper that [`build`] puts around a node when any of it is switched on
/// (and leaves out when none is, so the default release path runs bare
/// operators). Per `next_batch`, innermost out:
///
/// * **fault injection** — one hit of the node's label as an injection
///   site before the pull; the plan's matching rule (if any) converts the
///   chosen hit into an injected error, so tests can fail a specific
///   operator at a specific pull and prove the abort path cleans up. A
///   fault plan makes every demand one row, so a hit is a row.
/// * **contracts** — every emitted tuple is checked against the node's
///   inferred schema (faults abort, they don't corrupt, so contracts only
///   ever see real tuples).
/// * **governor** — a deadline/cancel check falls due once per
///   [`OP_CHECK_INTERVAL`] rows (a batch of `n` rows advances the counter
///   by `n`, the exhausting call by one); those due in one batch are all
///   counted and polled once. One more falls due on exhaustion: a
///   traversal whose filter tripped mid-walk drains to "no more rows", and
///   that final check converts the silent truncation into the governor's
///   typed error before the consumer can mistake it for a clean end of
///   stream.
/// * **metrics** — the clock is read around the whole call (inclusive of
///   children and of the overhead above, PostgreSQL-style), and the batch's
///   rows, the operator's cumulative traversal and governor counters and
///   its layout land in its node's record in the [`MetricsSink`].
struct Instrumented<'e> {
    inner: BoxOp<'e>,
    label: String,
    contract: Option<NodeContract>,
    gov: &'e ExecContext,
    pulls: u64,
    checks: u64,
    metrics: Option<(&'e MetricsSink, usize)>,
}

impl<'e> Instrumented<'e> {
    fn pull(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        if let Some(faults) = self.gov.faults() {
            faults.hit(&self.label)?;
        }
        let more = self.inner.next_batch(out, max_rows)?;
        if let Some(contract) = &self.contract {
            for i in 0..out.len() {
                check_row_contract(contract, &self.label, out.tuple(i))?;
            }
        }
        if self.gov.active() {
            let before = self.pulls / OP_CHECK_INTERVAL;
            // A counting scan's one row stands for the paths it counted.
            let rows = self.inner.counted().unwrap_or(out.len() as u64); // cast-ok: usize -> u64 widening
            self.pulls += if more { rows } else { 1 };
            let due = self.pulls / OP_CHECK_INTERVAL - before + u64::from(!more);
            self.checks += due;
            if due > 0 {
                self.gov.check_now()?;
            }
        }
        Ok(more)
    }
}

impl<'e> Operator<'e> for Instrumented<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        let start = self.metrics.is_some().then(Instant::now);
        let r = self.pull(out, max_rows);
        let (Some((sink, at)), Some(start)) = (self.metrics, start) else {
            return r;
        };
        let rows = if matches!(r, Ok(true)) { out.len() } else { 0 };
        let mut m = sink.node(at);
        m.record_batch(start.elapsed().as_nanos() as u64, rows as u64);
        // Cumulative counters: the last write wins.
        m.graph = self.inner.graph_stats().or(m.graph);
        m.paths = self.inner.counted().or(m.paths);
        // The inner operator's counters (bytes it charged, expansion-hook
        // checks) plus this wrapper's own polls.
        let gov = self.inner.governor_stats();
        if self.gov.active() || gov.is_some() {
            let mut g = gov.unwrap_or_default();
            g.checks += self.checks;
            m.gov = Some(g);
        }
        m.layout = self.inner.layout().or(m.layout);
        r
    }
}

/// The one builder: instantiate `plan`'s operator over its (recursively
/// built) children and wrap it in [`Instrumented`] if anything observes it.
/// `lazy`: a `Limit` above may stop pulling early, with no draining operator
/// (aggregate, sort, nested-loop build side) in between; the index and path
/// joins then step their outer one tuple per probe (see [`Cursor`]).
fn build<'e>(
    plan: &'e PlanNode,
    env: &'e QueryEnv<'e>,
    sink: Option<&'e MetricsSink>,
    contracts: Option<&'e Contracts>,
    depth: usize,
    lazy: bool,
) -> Result<BoxOp<'e>> {
    // Register before building children so the sink's node list comes out
    // in pre-order — the same order as the `EXPLAIN` lines. The contract
    // cursor advances in the same pre-order walk.
    let metrics = sink.map(|s| (s, s.register(plan.node_label(), depth)));
    let contract = contracts.and_then(|c| c.borrow_mut().next());
    let child = |n: &'e PlanNode, lazy| build(n, env, sink, contracts, depth + 1, lazy);
    let admit = |filter: &'e Option<PhysExpr>| Admit {
        filter: filter.as_ref(),
        env,
    };
    let inner: BoxOp<'e> = match plan {
        PlanNode::TableScan { table, filter, .. } => {
            Box::new(TableScan::new(env.table(table)?, admit(filter)))
        }
        PlanNode::IndexLookup {
            table,
            column,
            key,
            filter,
            ..
        } => {
            let t = env.table(table)?;
            let ix = hash_index(t, table, *column, "lookup")?;
            let col_ty = t.schema().column(*column).data_type;
            let mut slot = None;
            let ids = match index_probe_key(key.eval_ref(&[], env, &mut slot)?, col_ty) {
                Some(k) => ix.lookup(&k),
                None => &[],
            };
            Box::new(IndexLookup {
                table: t,
                ids: ids.iter(),
                admit: admit(filter),
            })
        }
        PlanNode::VertexScan { graph, filter, .. } => {
            let genv = env.graph(graph)?;
            Box::new(VertexScanOp {
                genv,
                slots: Box::new(genv.topo.vertex_slots()),
                admit: admit(filter),
            })
        }
        PlanNode::EdgeScan { graph, filter, .. } => {
            let genv = env.graph(graph)?;
            Box::new(EdgeScanOp {
                genv,
                slots: Box::new(genv.topo.edge_slots()),
                admit: admit(filter),
            })
        }
        PlanNode::PathScan { config, schema } => {
            Box::new(PathScanOp::new(config, schema.len(), None, env)?)
        }
        PlanNode::PathJoin {
            outer,
            config,
            schema,
        } => {
            let outer = Cursor::new(child(outer, lazy)?, lazy);
            Box::new(PathScanOp::new(config, schema.len(), Some(outer), env)?)
        }
        PlanNode::Filter {
            input, predicate, ..
        } => Box::new(Filter {
            input: child(input, lazy)?,
            predicate,
            env,
        }),
        PlanNode::NestedLoopJoin {
            left,
            right,
            condition,
            schema,
        } => {
            let (l, r) = (child(left, false)?, child(right, lazy)?);
            Box::new(NestedLoopJoin::new(
                l,
                left.schema().len(),
                r,
                schema.len(),
                admit(condition),
                mem_tracker(env),
            ))
        }
        PlanNode::IndexJoin {
            outer,
            table,
            column,
            key,
            filter,
            schema,
        } => {
            let t = env.table(table)?;
            Box::new(IndexJoin::new(
                child(outer, lazy)?,
                t,
                hash_index(t, table, *column, "join")?,
                key,
                admit(filter),
                schema.len(),
                lazy,
            ))
        }
        PlanNode::Project { input, exprs, .. } => Box::new(Project {
            input: child(input, lazy)?,
            rows: Batch::default(),
            exprs,
            env,
        }),
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
            ..
        } => Box::new(Aggregate::new(
            child(input, false)?,
            group_exprs,
            aggs,
            env,
            mem_tracker(env),
        )),
        PlanNode::Sort {
            input,
            keys,
            schema,
        } => Box::new(Sort::new(
            child(input, false)?,
            keys,
            schema.len(),
            env,
            mem_tracker(env),
        )),
        PlanNode::Limit { input, limit, .. } => Box::new(Limit {
            input: child(input, true)?,
            remaining: *limit,
        }),
        PlanNode::Distinct { input, .. } => Box::new(Distinct {
            input: child(input, lazy)?,
            seen: Default::default(),
            tracker: mem_tracker(env),
        }),
    };
    let gov = &env.gov;
    if gov.faults().is_none() && !gov.active() && contract.is_none() && metrics.is_none() {
        return Ok(inner);
    }
    Ok(Box::new(Instrumented {
        inner,
        label: plan.node_label(),
        contract,
        gov,
        pulls: 0,
        checks: 0,
        metrics,
    }))
}

/// The hash index the planner counted on for an index `lookup` or `join`.
fn hash_index<'e>(table: &'e Table, name: &str, column: usize, planned: &str) -> Result<&'e Index> {
    table
        .index_on(column, Some(IndexKind::Hash))
        .ok_or_else(|| {
            Error::execution(format!(
                "planned index {planned} but table `{name}` has no hash index on column {column}"
            ))
        })
}

/// Per-operator memory accounting handle: a local running total (surfaced
/// in `EXPLAIN ANALYZE` as the node's `bytes=`) plus the shared accountant
/// the bytes are charged against. Only materializing operators hold one,
/// and only when the governor is active — `mem_tracker` returns `None`
/// otherwise, so the default path never computes byte estimates.
pub(crate) struct MemTracker<'e> {
    ctx: &'e ExecContext,
    bytes: Cell<u64>,
}

impl MemTracker<'_> {
    #[inline]
    pub(crate) fn charge(&self, n: u64) -> Result<()> {
        self.bytes.set(self.bytes.get() + n);
        self.ctx.charge_bytes(n)
    }

    pub(crate) fn counters(&self) -> GovCounters {
        GovCounters {
            bytes: self.bytes.get(),
            checks: 0,
        }
    }
}

fn mem_tracker<'e>(env: &'e QueryEnv<'e>) -> Option<MemTracker<'e>> {
    env.gov.active().then(|| MemTracker {
        ctx: &env.gov,
        bytes: Cell::new(0),
    })
}

// ---------------------------------------------------------------------------
// Graph scans
// ---------------------------------------------------------------------------

struct VertexScanOp<'e> {
    genv: GraphEnv<'e>,
    slots: Box<dyn Iterator<Item = VertexSlot> + 'e>,
    admit: Admit<'e>,
}

impl<'e> VertexScanOp<'e> {
    /// Append the next qualifying vertex tuple:
    /// `[id, exposed attributes…, fanin, fanout]`.
    fn next_row(&mut self, row: &mut Vec<Value>) -> Result<bool> {
        let g = self.genv;
        for slot in self.slots.by_ref() {
            let at = row.len();
            row.push(Value::Integer(g.topo.vertex_id(slot)));
            let tuple = g.topo.vertex_tuple(slot);
            for (_, col) in &g.def.vertex_attrs {
                row.push(
                    g.vertex_table
                        .get_value(tuple, *col)
                        .cloned()
                        .ok_or_else(|| Error::execution("dangling vertex tuple pointer"))?,
                );
            }
            row.push(Value::Integer(crate::env::degree_i64(g.topo.fan_in(slot))));
            row.push(Value::Integer(crate::env::degree_i64(g.topo.fan_out(slot))));
            if self.admit.admit(&row[at..])? {
                return Ok(true);
            }
            row.truncate(at);
        }
        Ok(false)
    }
}

impl<'e> Operator<'e> for VertexScanOp<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        let width = self.genv.def.vertex_attrs.len() + 3;
        out.fill_rows(width, max_rows, |row, _| self.next_row(row))
    }
}

struct EdgeScanOp<'e> {
    genv: GraphEnv<'e>,
    slots: Box<dyn Iterator<Item = EdgeSlot> + 'e>,
    admit: Admit<'e>,
}

impl<'e> EdgeScanOp<'e> {
    /// Append the next qualifying edge tuple:
    /// `[id, from, to, exposed attributes…]`.
    fn next_row(&mut self, row: &mut Vec<Value>) -> Result<bool> {
        let g = self.genv;
        for slot in self.slots.by_ref() {
            let at = row.len();
            let (from, to) = g.topo.edge_endpoints(slot);
            row.push(Value::Integer(g.topo.edge_id(slot)));
            row.push(Value::Integer(g.topo.vertex_id(from)));
            row.push(Value::Integer(g.topo.vertex_id(to)));
            let tuple = g.topo.edge_tuple(slot);
            for (_, col) in &g.def.edge_attrs {
                row.push(
                    g.edge_table
                        .get_value(tuple, *col)
                        .cloned()
                        .ok_or_else(|| Error::execution("dangling edge tuple pointer"))?,
                );
            }
            if self.admit.admit(&row[at..])? {
                return Ok(true);
            }
            row.truncate(at);
        }
        Ok(false)
    }
}

impl<'e> Operator<'e> for EdgeScanOp<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        let width = self.genv.def.edge_attrs.len() + 3;
        out.fill_rows(width, max_rows, |row, _| self.next_row(row))
    }
}

// ---------------------------------------------------------------------------
// Path scanning
// ---------------------------------------------------------------------------

/// A pushed predicate on the element kind whose accessor `A` is, with its
/// test's operands bound to concrete values.
struct BoundPred<'e, A> {
    pred: &'e PushedPred,
    attr: A,
    bound: Vec<Value>,
}

impl<A: Copy> BoundPred<'_, A> {
    /// Whether the predicate holds for the element at `pos`, whose
    /// attribute `fetch` reads.
    #[inline]
    fn holds_at<'v>(&self, pos: usize, fetch: impl FnOnce(A) -> Cow<'v, Value>) -> bool {
        let (p, start) = (pos as u64, self.pred.start);
        let applies = match self.pred.end {
            IndexEnd::At => p == start,
            IndexEnd::Bounded(b) => p >= start && p <= b,
            IndexEnd::Star => p >= start,
        };
        !applies || self.pred.test.holds(&fetch(self.attr), &self.bound)
    }
}

/// A bound running-aggregate prune.
struct BoundAggPred {
    attr: SlotAttr,
    op: CmpOp,
    rhs: Value,
    gate: PruneGate,
}

/// Whether a running-SUM bound may prune, shared by every probe of one
/// scan operator: unknown until the bound first would prune, then whether
/// the attribute holds no negative value anywhere in the graph. Past a
/// negative value a prefix over the bound can come back under it, so the
/// prune would drop rows.
type PruneGate = Rc<Cell<Option<bool>>>;

/// One [`PruneGate`] per running-aggregate bound of a scan.
fn prune_gates(config: &PathScanConfig) -> Vec<PruneGate> {
    config
        .agg_preds
        .iter()
        .map(|_| PruneGate::default())
        .collect()
}

/// Per-expansion governor hook carried by a bound [`EngineFilter`]: every
/// vertex/edge expansion the traversal offers to the filter ticks it, and
/// every [`EXPANSION_CHECK_INTERVAL`] ticks it polls the deadline/cancel
/// token. A failed poll *trips* the filter — it rejects everything from
/// then on, so the traversal drains in bounded time with no further
/// expansion work — and the typed error is re-derived by the engine's
/// scan-end `check_now` (deadline expiry is monotone, cancellation is
/// sticky). This is the hook that bounds traversals which spin for a long
/// time *without producing rows*: operator-level pull checks never fire
/// when no rows come up, but this one ticks on every expansion.
struct FilterGov<'e> {
    ctx: &'e ExecContext,
    ticks: Cell<u64>,
    checks: Cell<u64>,
    tripped: Cell<bool>,
}

/// The engine-side traversal filter: reads element attributes to check
/// pushed predicates while the graph is being walked (§6.2).
///
/// Every traversal kernel asks it once per edge and once per new vertex.
/// Where a hook has nothing to do — no pushed test of that element kind
/// and no governor ticks — it answers in one inlined branch, so an
/// unconstrained probe runs at the bare kernel's speed. The tests run out
/// of line, in functions marked cold: the kernel's loop then keeps its
/// registers for the walk instead of saving them around a call it rarely
/// makes.
pub struct EngineFilter<'e> {
    genv: GraphEnv<'e>,
    /// Whether [`TraversalFilter::edge_allowed`] has work: edge tests or
    /// governor ticks.
    edge_work: bool,
    /// Whether [`TraversalFilter::vertex_allowed`] has work: vertex tests or
    /// governor ticks.
    vertex_work: bool,
    edge_preds: Vec<BoundPred<'e, EdgeAttr>>,
    vertex_preds: Vec<BoundPred<'e, VertexAttr>>,
    agg_preds: Vec<BoundAggPred>,
    /// Tuple-pointer dereferences into the source tables (the §6.2 cost
    /// the paper plots). `Cell`: the fetches take `&self`.
    derefs: Cell<u64>,
    /// Present iff the query's governor is active.
    gov: Option<FilterGov<'e>>,
}

impl<'e> EngineFilter<'e> {
    /// The counters of a probe that walked under this filter, as
    /// `EXPLAIN ANALYZE` reports them: the traversal's work `search` with
    /// the dereferences the filter made, and the governor checks of its
    /// expansion hook. No bytes: those are charged per path.
    fn counters(&self, search: SearchStats) -> (GraphCounters, GovCounters) {
        let graph = GraphCounters {
            vertices_visited: search.vertices_visited,
            edges_expanded: search.edges_examined,
            tuple_derefs: self.derefs.get(),
        };
        let checks = self.gov.as_ref().map_or(0, |g| g.checks.get());
        (graph, GovCounters { bytes: 0, checks })
    }

    /// Tick the expansion counter; returns `false` once the governor has
    /// tripped (pruning every further expansion).
    #[inline]
    fn gov_ok(&self) -> bool {
        let Some(g) = &self.gov else {
            return true;
        };
        if g.tripped.get() {
            return false;
        }
        let t = g.ticks.get() + 1;
        g.ticks.set(t);
        if t % EXPANSION_CHECK_INTERVAL == 0 {
            g.checks.set(g.checks.get() + 1);
            if g.ctx.check_now().is_err() {
                g.tripped.set(true);
                return false;
            }
        }
        true
    }

    /// Attribute `attr` of edge `e` for a pushed test (NULL where the
    /// fetch fails), counting the dereference a tuple read makes.
    fn edge_value(&self, e: EdgeSlot, attr: EdgeAttr) -> Cow<'e, Value> {
        let (value, deref) = self.genv.edge_read(e, attr);
        if deref {
            self.derefs.set(self.derefs.get() + 1);
        }
        value.unwrap_or(Cow::Owned(Value::Null))
    }

    /// [`EngineFilter::edge_value`] for a vertex.
    fn vertex_value(&self, v: VertexSlot, attr: VertexAttr) -> Cow<'e, Value> {
        if let VertexAttr::Col(_) = attr {
            self.derefs.set(self.derefs.get() + 1);
        }
        self.genv.vertex_value(v, attr).unwrap_or(Cow::Owned(Value::Null))
    }

    /// Whether the attribute bound `p` sums holds a negative value on any
    /// element of the graph. A scan of the graph, not the traversal's
    /// work: it counts no dereference.
    fn holds_negative(&self, g: &GraphTopology, p: &BoundAggPred) -> bool {
        let derefs = self.derefs.get();
        let negative = |v: Cow<Value>| v.as_double().is_ok_and(|d| d < 0.0);
        let found = match p.attr {
            SlotAttr::Edge(a) => g.edge_slots().any(|e| negative(self.edge_value(e, a))),
            SlotAttr::Vertex(a) => g.vertex_slots().any(|v| negative(self.vertex_value(v, a))),
        };
        self.derefs.set(derefs);
        found
    }
}

impl<'e> EngineFilter<'e> {
    /// The edge hook's work: the governor tick, then the edge tests.
    #[cold]
    #[inline(never)]
    fn edge_passes(&self, edge: EdgeSlot, hop: usize) -> bool {
        if !self.gov_ok() {
            return false;
        }
        (self.edge_preds.iter()).all(|p| p.holds_at(hop, |a| self.edge_value(edge, a)))
    }

    /// The vertex hook's work: the governor tick, then the vertex tests.
    #[cold]
    #[inline(never)]
    fn vertex_passes(&self, vertex: VertexSlot, position: usize) -> bool {
        if !self.gov_ok() {
            return false;
        }
        (self.vertex_preds.iter()).all(|p| p.holds_at(position, |a| self.vertex_value(vertex, a)))
    }
}

impl<'e> TraversalFilter for EngineFilter<'e> {
    #[inline]
    fn edge_allowed(&self, _: &GraphTopology, edge: EdgeSlot, hop: usize) -> bool {
        !self.edge_work || self.edge_passes(edge, hop)
    }

    #[inline]
    fn vertex_allowed(&self, _: &GraphTopology, vertex: VertexSlot, position: usize) -> bool {
        !self.vertex_work || self.vertex_passes(vertex, position)
    }

    #[inline]
    fn running_sums(&self) -> usize {
        self.agg_preds.len()
    }

    /// One read per bound and hop (two on the first hop of a vertex
    /// sum, which also adds the start vertex), summed left to right as the
    /// path lists its elements; values that are not numbers add nothing.
    fn step_sums(
        &self,
        g: &GraphTopology,
        sums: &mut [f64],
        hop: usize,
        from: VertexSlot,
        edge: EdgeSlot,
        to: VertexSlot,
    ) -> bool {
        self.agg_preds.iter().zip(sums).all(|(p, sum)| {
            let mut add = |v: Cow<Value>| {
                if let Ok(d) = v.as_double() {
                    *sum += d;
                }
            };
            match p.attr {
                SlotAttr::Edge(a) => add(self.edge_value(edge, a)),
                SlotAttr::Vertex(a) => {
                    if hop == 0 {
                        add(self.vertex_value(from, a));
                    }
                    add(self.vertex_value(to, a));
                }
            }
            if p.op.test(Value::Double(*sum).sql_cmp(&p.rhs)) == Some(true) {
                return true;
            }
            let prunes = p.gate.get().unwrap_or_else(|| {
                let prunes = !self.holds_negative(g, p);
                p.gate.set(Some(prunes));
                prunes
            });
            !prunes
        })
    }
}

/// Bind pushed predicates against one outer row, and record which hooks
/// have work.
fn bind_filter<'e>(
    config: &'e PathScanConfig,
    outer_row: &[Value],
    env: &'e QueryEnv<'e>,
    genv: GraphEnv<'e>,
    gates: &[PruneGate],
) -> Result<EngineFilter<'e>> {
    let (mut edge_preds, mut vertex_preds) = (Vec::new(), Vec::new());
    for pred in &config.preds {
        let bound = pred.test.bind(outer_row, env)?;
        match pred.attr {
            SlotAttr::Edge(attr) => edge_preds.push(BoundPred { pred, attr, bound }),
            SlotAttr::Vertex(attr) => vertex_preds.push(BoundPred { pred, attr, bound }),
        }
    }
    let bind_agg = |(p, gate): (&PushedAggPred, &PruneGate)| -> Result<BoundAggPred> {
        Ok(BoundAggPred {
            attr: p.attr,
            op: p.op,
            rhs: p.rhs.eval(outer_row, env)?,
            gate: gate.clone(),
        })
    };
    let governed = env.gov.active();
    Ok(EngineFilter {
        genv,
        edge_work: governed || !edge_preds.is_empty(),
        vertex_work: governed || !vertex_preds.is_empty(),
        edge_preds,
        vertex_preds,
        agg_preds: config
            .agg_preds
            .iter()
            .zip(gates)
            .map(bind_agg)
            .collect::<Result<_>>()?,
        derefs: Cell::new(0),
        gov: governed.then(|| FilterGov {
            ctx: &env.gov,
            ticks: Cell::new(0),
            checks: Cell::new(0),
            tripped: Cell::new(false),
        }),
    })
}

/// Boxed edge-cost function used by shortest-path scans.
type CostFn<'e> = Box<dyn Fn(&GraphTopology, EdgeSlot) -> f64 + 'e>;

/// An in-flight traversal for one probe.
enum ActiveScan<'e> {
    Dfs(DfsPaths<'e, EngineFilter<'e>>),
    Bfs(BfsPaths<'e, EngineFilter<'e>>),
    Sp {
        iter: KShortestPaths<'e, EngineFilter<'e>, CostFn<'e>>,
        min_len: usize,
    },
    /// Eager ablation mode (or a finished reachability fast path):
    /// everything materialized up front, with the traversal and governor
    /// counters of the enumeration that produced the buffer.
    Buffered {
        iter: std::vec::IntoIter<PathData>,
        stats: GraphCounters,
        gov: GovCounters,
    },
    /// A probe whose start vertex does not exist (no matches).
    Empty,
}

impl<'e> ActiveScan<'e> {
    fn next_path(&mut self) -> Result<Option<PathData>> {
        match self {
            ActiveScan::Dfs(it) => Ok(it.next()),
            ActiveScan::Bfs(it) => Ok(it.next()),
            ActiveScan::Sp { iter, min_len } => {
                for p in iter.by_ref() {
                    if p.length() >= *min_len {
                        return Ok(Some(p));
                    }
                }
                if let Some(e) = iter.take_error() {
                    return Err(e);
                }
                Ok(None)
            }
            ActiveScan::Buffered { iter, .. } => Ok(iter.next()),
            ActiveScan::Empty => Ok(None),
        }
    }

    /// Step to the next path without materializing it where the traversal
    /// allows (DFS/BFS), and report its length — all a counting scan needs.
    fn advance(&mut self) -> Result<Option<usize>> {
        Ok(match self {
            ActiveScan::Dfs(it) => it.advance().then(|| it.depth()),
            ActiveScan::Bfs(it) => it.advance().then(|| it.depth()),
            scan => scan.next_path()?.map(|p| p.length()),
        })
    }

    /// The probe's cumulative traversal and governor counters: those of
    /// the traversal so far, or those recorded when the buffer was filled.
    fn counters(&self) -> (GraphCounters, GovCounters) {
        match self {
            ActiveScan::Dfs(it) => it.filter().counters(it.stats()),
            ActiveScan::Bfs(it) => it.filter().counters(it.stats()),
            ActiveScan::Sp { iter, .. } => iter.filter().counters(iter.stats()),
            ActiveScan::Buffered { stats, gov, .. } => (*stats, *gov),
            ActiveScan::Empty => Default::default(),
        }
    }

    /// Whether path bytes should be charged as paths are emitted. False
    /// for the materialized variant, which charged during enumeration.
    fn charges_on_emission(&self) -> bool {
        !matches!(self, ActiveScan::Buffered { .. })
    }
}

/// What a probe needs before it can traverse: its view, the pushed
/// predicates bound and the anchors resolved against the probing row.
struct ProbeInputs<'e> {
    genv: GraphEnv<'e>,
    filter: EngineFilter<'e>,
    /// Empty when an anchor is NULL or names no vertex: no path matches.
    seeds: Vec<VertexSlot>,
    /// The pinned end vertex, for the scans that search towards it (the
    /// single-path fast path and `SPScan`).
    target: Option<VertexSlot>,
}

/// Single-path fast path (planner-proven safe): the query needs at most
/// one path to the pinned target, so the probe runs the point-to-point
/// search — or, under a SHORTESTPATH hint, classic closed-set Dijkstra —
/// instead of enumerating simple paths. Classic Dijkstra ignores hop
/// counts while searching, so under the hint the fast path only applies
/// when the query put no upper bound on the length; an explicit hop
/// bound falls back to the bounded k-shortest enumerator.
fn single_path(config: &PathScanConfig) -> bool {
    config.reachability
        && !(matches!(config.mode, ScanMode::ShortestPath { .. }) && config.explicit_max_len)
}

/// Bind the filter and resolve the anchors against `outer_row`: everything
/// a probe can reject short of the traversal itself.
fn resolve_probe<'e>(
    config: &'e PathScanConfig,
    genv: GraphEnv<'e>,
    outer_row: &[Value],
    env: &'e QueryEnv<'e>,
    gates: &[PruneGate],
) -> Result<ProbeInputs<'e>> {
    let topo = genv.topo;
    let filter = bind_filter(config, outer_row, env, genv, gates)?;
    // The vertex an anchor value names, under SQL's `id = value`: the
    // planner drops the start-anchor conjunct from the residual filter,
    // so a value no INTEGER id can equal (NULL, 1.5, a string) must
    // resolve to no vertex rather than be rounded onto one.
    let anchor = |e: &PhysExpr| -> Result<Option<VertexSlot>> {
        let mut slot = None;
        let key = e.eval_ref(outer_row, env, &mut slot)?;
        let id = index_probe_key(key, grfusion_common::DataType::Integer);
        Ok(id.and_then(|id| topo.vertex_slot(id.as_integer().ok()?).ok()))
    };
    let no_match = |filter| {
        Ok(ProbeInputs {
            genv,
            filter,
            seeds: Vec::new(),
            target: None,
        })
    };
    let seeds: Vec<VertexSlot> = match &config.start {
        StartSource::AllVertexes => topo.vertex_slots().collect(),
        StartSource::Constant(e) | StartSource::Probe(e) => match anchor(e)? {
            Some(slot) => vec![slot],
            None => return no_match(filter),
        },
    };
    let mut target = None;
    if single_path(config) || matches!(config.mode, ScanMode::ShortestPath { .. }) {
        let Some(end_expr) = &config.end else {
            return Err(Error::plan("single-target path scan without end anchor"));
        };
        target = anchor(end_expr)?;
        if target.is_none() {
            return no_match(filter);
        }
    }
    Ok(ProbeInputs {
        genv,
        filter,
        seeds,
        target,
    })
}

/// Start a resolved probe's traversal: a single-path search or an eager
/// enumeration runs to its end here, a lazy enumeration is pulled as its
/// paths are asked for.
fn start_probe<'e>(
    config: &PathScanConfig,
    env: &'e QueryEnv<'e>,
    inputs: ProbeInputs<'e>,
) -> Result<ActiveScan<'e>> {
    let ProbeInputs {
        genv,
        filter,
        seeds,
        target,
    } = inputs;
    let topo = genv.topo;
    let Some(&seed) = seeds.first() else {
        return Ok(ActiveScan::Empty);
    };
    if let (true, Some(target)) = (single_path(config), target) {
        let (found, search) = if let ScanMode::ShortestPath { cost, .. } = config.mode {
            let (p, search) =
                shortest_path_with_stats(topo, seed, target, genv.edge_costs(cost), &filter)?;
            (p.filter(|p| p.length() <= config.max_len), search)
        } else {
            // By hop-minimality the path satisfies any max-only
            // length window.
            hop_minimal_path(topo, seed, target, config.max_len, &filter)
        };
        let (stats, mut gov) = filter.counters(search);
        if env.gov.active() {
            if let Some(p) = &found {
                gov.bytes = path_bytes(p);
                env.gov.charge_bytes(gov.bytes)?;
            }
            // A tripped filter pruned the search silently; re-derive
            // the governor error instead of reporting "unreachable".
            env.gov.check_now()?;
        }
        return Ok(ActiveScan::Buffered {
            iter: found.into_iter().collect::<Vec<_>>().into_iter(),
            stats,
            gov,
        });
    }

    let (mode, spec) = resolve_traversal(config, topo);

    let mut scan = match mode {
        ScanMode::Dfs => ActiveScan::Dfs(DfsPaths::new(topo, seeds, spec, filter)),
        ScanMode::Bfs => ActiveScan::Bfs(BfsPaths::new(topo, seeds, spec, filter)),
        ScanMode::ShortestPath { cost, .. } => {
            let Some(target) = target else {
                return Ok(ActiveScan::Empty);
            };
            ActiveScan::Sp {
                iter: KShortestPaths::new(
                    topo,
                    seed,
                    target,
                    config.max_len,
                    Box::new(genv.edge_costs(cost)),
                    filter,
                ),
                min_len: config.min_len,
            }
        }
        // Resolved to Bfs/Dfs above; fail the query, not the process,
        // if that resolution is ever skipped.
        ScanMode::Auto => return Err(Error::plan("unresolved Auto traversal mode")),
    };

    if !config.lazy {
        // Ablation: eager materialization of all qualifying paths,
        // charged against the memory accountant as they land.
        let track = env.gov.active();
        let mut bytes = 0u64;
        let mut all = Vec::new();
        while let Some(p) = scan.next_path()? {
            if track {
                let b = path_bytes(&p);
                bytes += b;
                env.gov.charge_bytes(b)?;
            }
            all.push(p);
        }
        if track {
            // Surface a mid-enumeration deadline/cancel trip now
            // rather than handing back a truncated buffer.
            env.gov.check_now()?;
        }
        let (stats, mut gov) = scan.counters();
        gov.bytes = bytes;
        return Ok(ActiveScan::Buffered {
            iter: all.into_iter(),
            stats,
            gov,
        });
    }
    Ok(scan)
}

/// §6.3's logical→physical mapping: the traversal a scan runs — never
/// `Auto`, which resolves to `BFS iff F < L` against the view's fan-out
/// statistic — and the window it explores.
fn resolve_traversal(config: &PathScanConfig, topo: &GraphTopology) -> (ScanMode, TraversalSpec) {
    let mode = match &config.mode {
        ScanMode::Auto => {
            // `u32 → f64` is exact; a length cap beyond u32::MAX (never
            // inferable from a real query) means L is effectively
            // unbounded, so the `F < L` test always picks BFS rather
            // than comparing against a rounded `usize as f64`.
            let cap = u32::try_from(config.max_len)
                .map(f64::from)
                .unwrap_or(f64::INFINITY);
            if topo.avg_fan_out() < cap {
                ScanMode::Bfs
            } else {
                ScanMode::Dfs
            }
        }
        m => m.clone(),
    };
    let mut spec = TraversalSpec::new(config.min_len, config.max_len);
    if config.closing {
        spec = spec.closing();
    }
    (mode, spec)
}

/// The one path operator. A standalone `PathScan` runs one probe; a
/// `PathJoin` (Figure 6) runs one per outer row, its pushed predicates and
/// anchors bound to that row, and emits `outer ⊕ path`.
struct PathScanOp<'e> {
    config: &'e PathScanConfig,
    env: &'e QueryEnv<'e>,
    /// The scanned view, bound once when the operator is built.
    genv: GraphEnv<'e>,
    /// A join's outer, positioned on the row the current probe binds;
    /// `None` for a standalone scan.
    outer: Option<Cursor<'e>>,
    /// Output columns: the outer's and the path, or one count per
    /// aggregate call.
    width: usize,
    /// A standalone scan's probe, resolved (and so validated) while the
    /// operator tree is built, so a bad statement is refused even when its
    /// parent never pulls; taken by the first pull.
    pending: Option<ProbeInputs<'e>>,
    /// The probe being drained. A traversal (a whole point-to-point search
    /// or an eager materialization) starts on the pull that needs it, so
    /// its time lands on this operator's clock and a parent that never
    /// pulls never pays for it.
    current: Option<ActiveScan<'e>>,
    /// Shared by every probe.
    gates: Vec<PruneGate>,
    /// Counters of the probes already drained.
    done: (GraphCounters, GovCounters),
    /// Paths a counting scan ([`Emit::Count`]) has stepped over.
    counted: u64,
    /// Emission-side byte accounting; present iff the governor is active.
    tracker: Option<MemTracker<'e>>,
}

impl<'e> PathScanOp<'e> {
    fn new(
        config: &'e PathScanConfig,
        width: usize,
        outer: Option<Cursor<'e>>,
        env: &'e QueryEnv<'e>,
    ) -> Result<Self> {
        let gates = prune_gates(config);
        let genv = env.graph(&config.graph)?;
        let pending = match outer {
            Some(_) => None,
            None => Some(resolve_probe(config, genv, &[], env, &gates)?),
        };
        Ok(PathScanOp {
            config,
            env,
            genv,
            outer,
            width,
            pending,
            current: None,
            gates,
            done: Default::default(),
            counted: 0,
            tracker: mem_tracker(env),
        })
    }

    /// Start the next probe: the outer's next row's, or a standalone
    /// scan's one. `false`: there is none. The outer is asked for no more
    /// rows than the consumer still wants (`demand`), and for one per
    /// probe under a `LIMIT`.
    fn next_probe(&mut self, demand: usize) -> Result<bool> {
        let inputs = match &mut self.outer {
            Some(outer) => {
                if !outer.advance(demand)? {
                    return Ok(false);
                }
                resolve_probe(self.config, self.genv, outer.tuple(), self.env, &self.gates)?
            }
            None => match self.pending.take() {
                Some(inputs) => inputs,
                None => return Ok(false),
            },
        };
        self.current = Some(start_probe(self.config, self.env, inputs)?);
        Ok(true)
    }

    /// Counters of every probe so far: the drained ones and the current.
    fn totals(&self) -> (GraphCounters, GovCounters) {
        let (mut graph, mut gov) = self.done;
        if let Some(scan) = &self.current {
            let (g, v) = scan.counters();
            graph.merge(&g);
            gov.merge(&v);
        }
        (graph, gov)
    }

    /// Retire the drained current probe into [`PathScanOp::done`].
    fn finish_probe(&mut self) {
        self.done = self.totals();
        self.current = None;
    }

    /// Append the next `outer ⊕ path` tuple.
    fn next_row(&mut self, row: &mut Vec<Value>, remaining: usize) -> Result<bool> {
        loop {
            if let Some(scan) = &mut self.current {
                if let Some(p) = scan.next_path()? {
                    // The row cap is charged here, at emission, for every
                    // variant; the bytes, unless the probe charged them
                    // while buffering.
                    self.env.gov.charge_row()?;
                    if let (true, Some(t)) = (scan.charges_on_emission(), &self.tracker) {
                        t.charge(path_bytes(&p))?;
                    }
                    if let Some(outer) = &self.outer {
                        row.extend_from_slice(outer.tuple());
                    }
                    row.push(Value::Path(std::sync::Arc::new(p)));
                    return Ok(true);
                }
                self.finish_probe();
            }
            if !self.next_probe(remaining)? {
                return Ok(false);
            }
        }
    }

    /// Run every probe, counting its paths instead of emitting them. Each
    /// is accounted exactly as its emission would be — one row charged,
    /// its bytes from its length — but none is materialized.
    fn count(&mut self) -> Result<i64> {
        let view_name_len = self.genv.topo.name().len();
        while self.next_probe(usize::MAX)? {
            let (Some(scan), gov) = (&mut self.current, &self.env.gov) else {
                break;
            };
            let tracker = self.tracker.as_ref().filter(|_| scan.charges_on_emission());
            while let Some(length) = scan.advance()? {
                gov.charge_row()?;
                if let Some(t) = tracker {
                    t.charge(path_bytes_at(view_name_len, length))?;
                }
                self.counted += 1;
            }
            self.finish_probe();
        }
        // A tripped traversal filter drains the walk early; re-derive the
        // governor's error rather than hand up a count of the part walked.
        if self.env.gov.active() {
            self.env.gov.check_now()?;
        }
        i64::try_from(self.counted)
            .map_err(|_| Error::execution("path count exceeds INTEGER range"))
    }
}

impl<'e> Operator<'e> for PathScanOp<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        let width = self.width;
        if self.config.emit == Emit::Count {
            // One row, on the first pull: a counting scan has no outer, so
            // its one probe is pending until then.
            return out.fill_rows(width, max_rows, |row, _| {
                if self.pending.is_none() {
                    return Ok(false);
                }
                let n = self.count()?;
                row.extend(std::iter::repeat_n(Value::Integer(n), width));
                Ok(true)
            });
        }
        out.fill_rows(width, max_rows, |row, left| self.next_row(row, left))
    }

    fn graph_stats(&self) -> Option<GraphCounters> {
        Some(self.totals().0)
    }

    fn counted(&self) -> Option<u64> {
        (self.config.emit == Emit::Count).then_some(self.counted)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        // The tracker exists iff the governor is active; an ungoverned scan
        // performs no checks and must not annotate the plan.
        let t = self.tracker.as_ref()?;
        let mut g = self.totals().1;
        g.merge(&t.counters());
        Some(g)
    }

    fn layout(&self) -> Option<TopologyLayout> {
        // The topology is borrowed for the whole query, so it cannot change
        // underneath the scan.
        Some(self.genv.topo.layout())
    }
}
