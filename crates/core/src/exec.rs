//! Execution of physical plans: the entry points, the operator-tree
//! builder with its one instrumentation wrapper, and the graph operators.
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
    KShortestPaths, TopologyLayout, TraversalFilter, TraversalSpec, VertexSlot,
};
use grfusion_sql::IndexEnd;
use grfusion_storage::{Index, IndexKind, Table};

use crate::analyze::NodeContract;
use crate::env::{GraphEnv, QueryEnv};
use crate::expr::{CmpOp, EdgeAttr, PhysExpr, SlotAttr, VertexAttr};
use crate::governor::{
    path_bytes, path_bytes_at, ExecContext, EXPANSION_CHECK_INTERVAL, OP_CHECK_INTERVAL,
};
use crate::metrics::{GovCounters, GraphCounters, MetricsSink, NodeSlot, QueryMetrics};
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
        rows.extend((0..batch.len()).map(|i| batch.tuple(i).to_vec()));
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
    for (i, v) in row.iter().enumerate() {
        let col = c.schema.column(i);
        if v.is_null() {
            if !c.nullable[i] {
                return Err(Error::execution(format!(
                    "operator contract violation at {label}: column {i} (`{}`) was inferred NOT NULL but emitted NULL",
                    col.name
                )));
            }
            continue;
        }
        if c.check[i] && !col.data_type.admits(v) {
            return Err(Error::execution(format!(
                "operator contract violation at {label}: column {i} (`{}`) declared {} but emitted {v}",
                col.name, col.data_type
            )));
        }
    }
    Ok(())
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
///   its layout land in the shared [`NodeSlot`].
struct Instrumented<'e> {
    inner: BoxOp<'e>,
    label: String,
    contract: Option<NodeContract>,
    gov: &'e ExecContext,
    pulls: u64,
    checks: u64,
    slot: Option<Rc<NodeSlot>>,
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
        let start = self.slot.is_some().then(Instant::now);
        let r = self.pull(out, max_rows);
        let (Some(slot), Some(start)) = (&self.slot, start) else {
            return r;
        };
        let rows = if matches!(r, Ok(true)) { out.len() } else { 0 };
        slot.record_batch(start.elapsed().as_nanos() as u64, rows as u64);
        if let Some(g) = self.inner.graph_stats() {
            slot.set_graph(g);
        }
        if let Some(n) = self.inner.counted() {
            slot.set_paths(n);
        }
        // The inner operator's counters (bytes it charged, expansion-hook
        // checks) plus this wrapper's own polls.
        let gov = self.inner.governor_stats();
        if self.gov.active() || gov.is_some() {
            let mut g = gov.unwrap_or_default();
            g.checks += self.checks;
            slot.set_gov(g);
        }
        if let Some(l) = self.inner.layout() {
            slot.set_layout(l);
        }
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
    let slot = sink.map(|s| s.register(plan.node_label(), depth));
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
        PlanNode::PathScan { config, schema } => Box::new(PathScanOp {
            config,
            width: schema.len(),
            env,
            inputs: PathProbe::resolve(config, &[], env, &prune_gates(config))?,
            scan: None,
            done: false,
            counted: 0,
            tracker: None,
            layout: env.graph(&config.graph)?.topo.layout(),
        }),
        PlanNode::PathJoin {
            outer,
            config,
            schema,
        } => Box::new(PathJoinOp {
            outer: Cursor::new(child(outer, lazy)?, lazy),
            width: schema.len(),
            current: None,
            config,
            gates: prune_gates(config),
            env,
            stats_done: GraphCounters::default(),
            gov_done: GovCounters::default(),
            tracker: mem_tracker(env),
            layout: env.graph(&config.graph)?.topo.layout(),
        }),
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
    if gov.faults().is_none() && !gov.active() && contract.is_none() && slot.is_none() {
        return Ok(inner);
    }
    Ok(Box::new(Instrumented {
        inner,
        label: plan.node_label(),
        contract,
        gov,
        pulls: 0,
        checks: 0,
        slot,
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
    genv: &'e GraphEnv<'e>,
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
    genv: &'e GraphEnv<'e>,
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

/// The engine-side traversal filter: dereferences tuple pointers to check
/// pushed predicates while the graph is being walked (§6.2).
pub struct EngineFilter<'e> {
    genv: &'e GraphEnv<'e>,
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
    /// Tuple-pointer dereferences performed so far.
    pub(crate) fn derefs(&self) -> u64 {
        self.derefs.get()
    }

    /// Governor checks performed by this filter's expansion hook.
    pub(crate) fn gov_checks(&self) -> u64 {
        self.gov.as_ref().map_or(0, |g| g.checks.get())
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
    /// fetch fails), counting the dereference a column read makes.
    fn edge_value(&self, e: EdgeSlot, attr: EdgeAttr) -> Cow<'e, Value> {
        if let EdgeAttr::Col(_) = attr {
            self.derefs.set(self.derefs.get() + 1);
        }
        self.genv.edge_value(e, attr).unwrap_or(Cow::Owned(Value::Null))
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

impl<'e> TraversalFilter for EngineFilter<'e> {
    fn edge_allowed(&self, _: &GraphTopology, edge: EdgeSlot, hop: usize) -> bool {
        if !self.gov_ok() {
            return false;
        }
        (self.edge_preds.iter()).all(|p| p.holds_at(hop, |a| self.edge_value(edge, a)))
    }

    fn vertex_allowed(&self, _: &GraphTopology, vertex: VertexSlot, position: usize) -> bool {
        if !self.gov_ok() {
            return false;
        }
        (self.vertex_preds.iter()).all(|p| p.holds_at(position, |a| self.vertex_value(vertex, a)))
    }

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

/// Bind pushed predicates against one outer row.
fn bind_filter<'e>(
    config: &'e PathScanConfig,
    outer_row: &[Value],
    env: &'e QueryEnv<'e>,
    genv: &'e GraphEnv<'e>,
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
    Ok(EngineFilter {
        genv,
        edge_preds,
        vertex_preds,
        agg_preds: config
            .agg_preds
            .iter()
            .zip(gates)
            .map(bind_agg)
            .collect::<Result<_>>()?,
        derefs: Cell::new(0),
        gov: env.gov.active().then(|| FilterGov {
            ctx: &env.gov,
            ticks: Cell::new(0),
            checks: Cell::new(0),
            tripped: Cell::new(false),
        }),
    })
}

/// The edge-cost function of a shortest-path scan: column `cost` of the
/// edges source, read through the edge's tuple pointer (NULL or
/// non-numeric = infinite).
fn edge_cost<'e>(
    genv: &'e GraphEnv<'e>,
    cost: usize,
) -> impl Fn(&GraphTopology, EdgeSlot) -> f64 + 'e {
    move |_, e| {
        genv.edge_value(e, EdgeAttr::Col(cost))
            .and_then(|v| v.as_double().ok())
            .unwrap_or(f64::INFINITY)
    }
}

/// Boxed edge-cost function used by shortest-path scans.
type CostFn<'e> = Box<dyn Fn(&GraphTopology, EdgeSlot) -> f64 + 'e>;

/// An in-flight traversal for one probe (or for a standalone scan).
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

    /// The scan's cumulative traversal counters so far.
    fn graph_counters(&self) -> GraphCounters {
        match self {
            ActiveScan::Dfs(it) => GraphCounters {
                vertices_visited: it.vertices_visited(),
                edges_expanded: it.edges_examined(),
                tuple_derefs: it.filter().derefs(),
            },
            ActiveScan::Bfs(it) => GraphCounters {
                vertices_visited: it.vertices_visited(),
                edges_expanded: it.edges_examined(),
                tuple_derefs: it.filter().derefs(),
            },
            ActiveScan::Sp { iter, .. } => GraphCounters {
                vertices_visited: iter.vertices_visited(),
                edges_expanded: iter.edges_examined(),
                tuple_derefs: iter.filter().derefs(),
            },
            ActiveScan::Buffered { stats, .. } => *stats,
            ActiveScan::Empty => GraphCounters::default(),
        }
    }

    /// Governor work attributable to the scan itself: expansion-hook
    /// checks from the bound filter (in-flight traversals) or the counters
    /// recorded when the buffer was materialized.
    fn gov_counters(&self) -> GovCounters {
        match self {
            ActiveScan::Dfs(it) => GovCounters {
                bytes: 0,
                checks: it.filter().gov_checks(),
            },
            ActiveScan::Bfs(it) => GovCounters {
                bytes: 0,
                checks: it.filter().gov_checks(),
            },
            ActiveScan::Sp { iter, .. } => GovCounters {
                bytes: 0,
                checks: iter.filter().gov_checks(),
            },
            ActiveScan::Buffered { gov, .. } => *gov,
            ActiveScan::Empty => GovCounters::default(),
        }
    }

    /// Whether path bytes should be charged as paths are emitted. False
    /// for the materialized variant, which charged during enumeration.
    fn charges_on_emission(&self) -> bool {
        !matches!(self, ActiveScan::Buffered { .. })
    }
}

/// What a probe needs before it can traverse: the pushed predicates bound
/// and the anchors resolved against the probing row.
struct ProbeInputs<'e> {
    filter: EngineFilter<'e>,
    seeds: Vec<VertexSlot>,
    /// The pinned end vertex, for the scans that search towards it (the
    /// single-path fast path and `SPScan`).
    target: Option<VertexSlot>,
}

/// Shared probe-start logic for `PathScan` and `PathJoin`.
struct PathProbe;

impl PathProbe {
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

    /// Bind the filter and resolve the anchors: everything a probe can
    /// reject short of the traversal itself. A standalone scan does this
    /// while the operator tree is built, so a bad statement is refused even
    /// when its parent never pulls. `None`: an anchor is NULL or names no
    /// vertex, so no path matches.
    fn resolve<'e>(
        config: &'e PathScanConfig,
        outer_row: &[Value],
        env: &'e QueryEnv<'e>,
        gates: &[PruneGate],
    ) -> Result<Option<ProbeInputs<'e>>> {
        let genv = env.graph(&config.graph)?;
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

        let seeds: Vec<VertexSlot> = match &config.start {
            StartSource::AllVertexes => topo.vertex_slots().collect(),
            StartSource::Constant(e) | StartSource::Probe(e) => match anchor(e)? {
                Some(slot) => vec![slot],
                None => return Ok(None),
            },
        };
        let mut target = None;
        if Self::single_path(config) || matches!(config.mode, ScanMode::ShortestPath { .. }) {
            let Some(end_expr) = &config.end else {
                return Err(Error::plan("single-target path scan without end anchor"));
            };
            target = anchor(end_expr)?;
            if target.is_none() {
                return Ok(None);
            }
        }
        Ok(Some(ProbeInputs {
            filter,
            seeds,
            target,
        }))
    }

    fn start<'e>(
        config: &'e PathScanConfig,
        outer_row: &[Value],
        env: &'e QueryEnv<'e>,
        gates: &[PruneGate],
    ) -> Result<ActiveScan<'e>> {
        match Self::resolve(config, outer_row, env, gates)? {
            Some(inputs) => Self::run(config, env, inputs),
            None => Ok(ActiveScan::Empty),
        }
    }

    fn run<'e>(
        config: &PathScanConfig,
        env: &'e QueryEnv<'e>,
        inputs: ProbeInputs<'e>,
    ) -> Result<ActiveScan<'e>> {
        let genv = env.graph(&config.graph)?;
        let topo = genv.topo;
        let ProbeInputs {
            filter,
            seeds,
            target,
        } = inputs;
        let Some(&seed) = seeds.first() else {
            return Ok(ActiveScan::Empty);
        };
        if let (true, Some(target)) = (Self::single_path(config), target) {
            let (found, search) = if let ScanMode::ShortestPath { cost, .. } = config.mode {
                let (p, search) =
                    shortest_path_with_stats(topo, seed, target, edge_cost(genv, cost), &filter)?;
                (p.filter(|p| p.length() <= config.max_len), search)
            } else {
                // By hop-minimality the path satisfies any max-only
                // length window.
                hop_minimal_path(topo, seed, target, config.max_len, &filter)
            };
            let mut gov = GovCounters {
                bytes: 0,
                checks: filter.gov_checks(),
            };
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
                stats: GraphCounters {
                    vertices_visited: search.vertices_visited,
                    edges_expanded: search.edges_examined,
                    tuple_derefs: filter.derefs(),
                },
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
                        Box::new(edge_cost(genv, cost)),
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
            let stats = scan.graph_counters();
            let gov = GovCounters {
                bytes,
                checks: scan.gov_counters().checks,
            };
            return Ok(ActiveScan::Buffered {
                iter: all.into_iter(),
                stats,
                gov,
            });
        }
        Ok(scan)
    }
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

struct PathScanOp<'e> {
    config: &'e PathScanConfig,
    /// Output columns: the path, or one count per aggregate call.
    width: usize,
    env: &'e QueryEnv<'e>,
    /// The probe's filter and anchors, resolved (and so validated) while
    /// the operator tree is built; taken by the first pull.
    inputs: Option<ProbeInputs<'e>>,
    /// `None` until the first pull: the traversal (a whole
    /// point-to-point search or an eager materialization) starts there
    /// and not while the operator tree is built, so its time lands on
    /// this operator's clock and a parent that never pulls never pays
    /// for it.
    scan: Option<ActiveScan<'e>>,
    /// The traversal reported its end; it is not pulled again.
    done: bool,
    /// Paths a counting scan ([`Emit::Count`]) has stepped over.
    counted: u64,
    /// Emission-side byte accounting for in-flight (lazy) scans; `None`
    /// for the buffered variant, whose bytes were charged during
    /// materialization.
    tracker: Option<MemTracker<'e>>,
    /// Topology layout captured at build time (the topology is locked for
    /// the whole query, so it cannot change underneath the scan).
    layout: TopologyLayout,
}

impl<'e> PathScanOp<'e> {
    fn start(&mut self) -> Result<&mut ActiveScan<'e>> {
        let scan = match self.inputs.take() {
            Some(inputs) => PathProbe::run(self.config, self.env, inputs)?,
            None => ActiveScan::Empty,
        };
        // The buffered variant charged its bytes while materializing; a
        // tracker here would double-charge them at emission.
        if scan.charges_on_emission() {
            self.tracker = mem_tracker(self.env);
        }
        Ok(self.scan.insert(scan))
    }

    /// Run the whole traversal, counting its paths instead of emitting
    /// them. Each is accounted exactly as its emission would be — one row
    /// charged, its bytes from its length — but none is materialized.
    fn count(&mut self) -> Result<()> {
        let view_name_len = self.env.graph(&self.config.graph)?.topo.name().len();
        self.start()?;
        let (Some(scan), gov) = (&mut self.scan, &self.env.gov) else {
            return Err(Error::execution("counting scan did not start"));
        };
        while let Some(length) = scan.advance()? {
            gov.charge_row()?;
            if let Some(t) = &self.tracker {
                t.charge(path_bytes_at(view_name_len, length))?;
            }
            self.counted += 1;
        }
        // A tripped traversal filter drains the walk early; re-derive the
        // governor's error rather than hand up a count of the part walked.
        if self.env.gov.active() {
            self.env.gov.check_now()?;
        }
        Ok(())
    }
}

impl<'e> Operator<'e> for PathScanOp<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        if self.config.emit == Emit::Count {
            let width = self.width;
            return out.fill_rows(width, max_rows, |row, _| {
                if self.done {
                    return Ok(false);
                }
                self.done = true;
                self.count()?;
                let n = i64::try_from(self.counted)
                    .map_err(|_| Error::execution("path count exceeds INTEGER range"))?;
                row.extend(std::iter::repeat_n(Value::Integer(n), width));
                Ok(true)
            });
        }
        out.fill_rows(1, max_rows, |row, _| {
            if self.done {
                return Ok(false);
            }
            let scan = match &mut self.scan {
                Some(scan) => scan,
                None => self.start()?,
            };
            let Some(p) = scan.next_path()? else {
                self.done = true;
                return Ok(false);
            };
            // The row cap is charged here, at emission, for every
            // variant — identical accounting at any worker count.
            self.env.gov.charge_row()?;
            if let Some(t) = &self.tracker {
                t.charge(path_bytes(&p))?;
            }
            row.push(Value::Path(std::sync::Arc::new(p)));
            Ok(true)
        })
    }

    fn graph_stats(&self) -> Option<GraphCounters> {
        Some(self.scan.as_ref().map(ActiveScan::graph_counters).unwrap_or_default())
    }

    fn counted(&self) -> Option<u64> {
        (self.config.emit == Emit::Count).then_some(self.counted)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        // The tracker exists iff the governor is active; an ungoverned scan
        // performs no checks and must not annotate the plan.
        let t = self.tracker.as_ref()?;
        let mut g = self.scan.as_ref()?.gov_counters();
        g.merge(&t.counters());
        Some(g)
    }

    fn layout(&self) -> Option<TopologyLayout> {
        Some(self.layout)
    }
}

struct PathJoinOp<'e> {
    /// Positioned on the outer row `current` probes from.
    outer: Cursor<'e>,
    width: usize,
    current: Option<ActiveScan<'e>>,
    config: &'e PathScanConfig,
    /// Shared by every probe.
    gates: Vec<PruneGate>,
    env: &'e QueryEnv<'e>,
    /// Traversal counters accumulated from probes that already finished
    /// (the in-flight probe's counters are added on read).
    stats_done: GraphCounters,
    /// Same accumulation for per-probe governor counters.
    gov_done: GovCounters,
    tracker: Option<MemTracker<'e>>,
    /// Topology layout captured at build time (see [`PathScanOp::layout`]).
    layout: TopologyLayout,
}

impl<'e> PathJoinOp<'e> {
    /// Append the next `outer ⊕ path` tuple. A probe starts only when its
    /// outer row is reached; the outer is asked for no more rows than the
    /// consumer still wants, and for one per probe under a `LIMIT`.
    fn next_row(&mut self, row: &mut Vec<Value>, remaining: usize) -> Result<bool> {
        loop {
            if let Some(scan) = &mut self.current {
                if let Some(p) = scan.next_path()? {
                    self.env.gov.charge_row()?;
                    // Buffered probes (reachability / eager ablation)
                    // charged their bytes during materialization.
                    if scan.charges_on_emission() {
                        if let Some(t) = &self.tracker {
                            t.charge(path_bytes(&p))?;
                        }
                    }
                    row.extend_from_slice(self.outer.tuple());
                    row.push(Value::Path(std::sync::Arc::new(p)));
                    return Ok(true);
                }
                self.stats_done.merge(&scan.graph_counters());
                self.gov_done.merge(&scan.gov_counters());
                self.current = None;
            }
            if !self.outer.advance(remaining)? {
                return Ok(false);
            }
            self.current = Some(PathProbe::start(
                self.config,
                self.outer.tuple(),
                self.env,
                &self.gates,
            )?);
        }
    }
}

impl<'e> Operator<'e> for PathJoinOp<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.fill_rows(self.width, max_rows, |row, left| self.next_row(row, left))
    }

    fn graph_stats(&self) -> Option<GraphCounters> {
        let mut total = self.stats_done;
        if let Some(scan) = &self.current {
            total.merge(&scan.graph_counters());
        }
        Some(total)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        // As for PathScanOp: tracker presence == governor active.
        let t = self.tracker.as_ref()?;
        let mut total = self.gov_done;
        if let Some(scan) = &self.current {
            total.merge(&scan.gov_counters());
        }
        total.merge(&t.counters());
        Some(total)
    }

    fn layout(&self) -> Option<TopologyLayout> {
        Some(self.layout)
    }
}
