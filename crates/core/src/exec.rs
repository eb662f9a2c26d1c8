//! Volcano-style execution of physical plans.
//!
//! Operators are pull-based (`next()` returns one row), so laziness
//! propagates end-to-end: a `LIMIT 1` reachability query stops the
//! underlying graph traversal after the first qualifying path (EDBT 2018
//! §5.1.2). Graph operators emit ordinary rows, which is how they compose
//! with the relational operators in one pipeline (§5.2).
//!
//! The executor runs against a [`QueryEnv`] of plain references: the engine
//! acquires read guards for every table/topology once per query (serial
//! H-Store-style execution), so operators never lock per row.

use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Instant;

use grfusion_common::value::GroupKey;
use grfusion_common::{Error, PathData, ResourceKind, Result, Row, Value};
use grfusion_graph::{
    hop_minimal_path, shortest_path, shortest_path_with_stats, BfsPaths, DfsPaths, EdgeSlot,
    GraphTopology, KShortestPaths, TopologyLayout, TraversalFilter, TraversalSpec, VertexSlot,
};
use grfusion_sql::IndexEnd;

use crate::analyze::NodeContract;
use crate::env::{GraphEnv, QueryEnv};
use crate::expr::{AggFunc, CmpOp, PathTarget, PhysExpr};
use crate::governor::{
    path_bytes, row_bytes, ExecContext, FaultState, EXPANSION_CHECK_INTERVAL, OP_CHECK_INTERVAL,
};
use crate::metrics::{GovCounters, GraphCounters, MetricsSink, NodeSlot, QueryMetrics};
use crate::plan::{
    AggSpec, PathScanConfig, PlanNode, PushedAggPred, PushedPred, PushedTest, ScanMode,
    StartSource,
};

/// Shared row budget: reproduces the paper's temp-memory exhaustion for
/// join-heavy plans (§7.2). Every row produced by a scan or join ticks it —
/// always at *emission* time (when the operator yields the row up the
/// pipeline), never during enumeration, so accounting is identical at any
/// worker count and a `LIMIT 1` query charges one scan row whether the
/// paths behind it were enumerated serially or by a morsel pool.
///
/// The counter is atomic only so the budget type stays shareable across
/// the parallel scan's scoped threads; workers never charge it.
pub struct RowBudget {
    produced: AtomicU64,
    limit: Option<u64>,
}

impl RowBudget {
    pub fn new(limit: Option<u64>) -> Self {
        RowBudget {
            produced: AtomicU64::new(0),
            limit,
        }
    }

    #[inline]
    pub(crate) fn tick(&self) -> Result<()> {
        let total = self.produced.fetch_add(1, AtomicOrdering::Relaxed) + 1;
        if let Some(l) = self.limit {
            if total > l {
                return Err(Error::resource(ResourceKind::Rows, total, l));
            }
        }
        Ok(())
    }

    pub fn produced(&self) -> u64 {
        self.produced.load(AtomicOrdering::Relaxed)
    }
}

/// Coerce a probe key to the indexed column's type so hash lookups honor
/// SQL's cross-numeric equality (`uId = 2.0` must find integer 2; a key of
/// an incompatible type matches nothing).
pub(crate) fn index_probe_key(v: Value, ty: grfusion_common::DataType) -> Option<Value> {
    use grfusion_common::DataType;
    match (ty, &v) {
        (DataType::Integer, Value::Double(d)) => {
            // Strict i64 range: the upper bound is exclusive because
            // `i64::MAX as f64` rounds up to 2^63, so `<= i64::MAX as f64`
            // admits 9223372036854775808.0 and `as` saturates it to
            // i64::MAX — a probe key that silently matched the wrong row.
            // `i64::MIN as f64` is exactly -(2^63) and remains inclusive.
            if d.fract() == 0.0 && *d >= i64::MIN as f64 && *d < 9_223_372_036_854_775_808.0 {
                Some(Value::Integer(*d as i64))
            } else {
                None
            }
        }
        (DataType::Double, Value::Integer(i)) => Some(Value::Double(*i as f64)),
        _ if ty.admits(&v) && !v.is_null() => Some(v),
        _ => None,
    }
}

/// Execute a plan to completion, materializing the result rows.
pub fn execute_plan(plan: &PlanNode, env: &QueryEnv<'_>) -> Result<Vec<Row>> {
    let budget = RowBudget::new(env.limits.max_intermediate_rows);
    let contracts = contracts_enabled().then(|| ContractCtx::new(plan));
    let batch_ok = crate::batch::batch_active(env) && !crate::batch::plan_has_limit(plan);
    let mut op = build(plan, env, &budget, None, contracts.as_ref(), 0, batch_ok)?;
    let mut rows = Vec::new();
    while let Some(row) = op.next()? {
        rows.push(row);
    }
    Ok(rows)
}

/// Execute a plan with per-operator instrumentation (`EXPLAIN ANALYZE`).
/// Every operator is wrapped in a metering shim; graph operators also
/// report traversal counters. Returns the rows plus the metrics snapshot.
pub fn execute_plan_with_metrics(
    plan: &PlanNode,
    env: &QueryEnv<'_>,
) -> Result<(Vec<Row>, QueryMetrics)> {
    let budget = RowBudget::new(env.limits.max_intermediate_rows);
    let sink = MetricsSink::new();
    let contracts = contracts_enabled().then(|| ContractCtx::new(plan));
    let batch_ok = crate::batch::batch_active(env) && !crate::batch::plan_has_limit(plan);
    let rows = {
        let mut op = build(plan, env, &budget, Some(&sink), contracts.as_ref(), 0, batch_ok)?;
        let mut rows = Vec::new();
        while let Some(row) = op.next()? {
            rows.push(row);
        }
        rows
    };
    Ok((rows, sink.finish()))
}

/// A pull-based operator.
pub(crate) trait Op<'e> {
    fn next(&mut self) -> Result<Option<Row>>;

    /// Cumulative graph-traversal counters, for operators that walk the
    /// topology (`PathScan`/`PathJoin`). Relational operators return `None`.
    fn graph_stats(&self) -> Option<GraphCounters> {
        None
    }

    /// Cumulative resource-governor counters (bytes charged to the memory
    /// accountant, cooperative checks performed). `None` when this operator
    /// does neither.
    fn governor_stats(&self) -> Option<GovCounters> {
        None
    }

    /// Topology layout this operator traverses (sealed CSR, delta overlay,
    /// or plain adjacency). `None` for relational operators.
    fn layout(&self) -> Option<TopologyLayout> {
        None
    }
}

pub(crate) type BoxOp<'e> = Box<dyn Op<'e> + 'e>;

/// Metering shim wrapped around every operator when metrics collection is
/// on. Each `next()` is timed (inclusive of children, PostgreSQL-style)
/// and counted into the shared [`NodeSlot`]; graph counters are re-read
/// after each pull so the slot always holds the operator's running totals.
/// The shim deliberately does NOT forward `graph_stats()`: the inner
/// operator's counters must not be double-counted by an outer shim.
struct MeteredOp<'e> {
    inner: BoxOp<'e>,
    slot: Rc<NodeSlot>,
}

impl<'e> Op<'e> for MeteredOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        let start = Instant::now();
        let r = self.inner.next();
        let elapsed = start.elapsed().as_nanos() as u64;
        self.slot
            .record_next(elapsed, matches!(r, Ok(Some(_))));
        if let Some(g) = self.inner.graph_stats() {
            self.slot.set_graph(g);
        }
        if let Some(g) = self.inner.governor_stats() {
            self.slot.set_gov(g);
        }
        if let Some(l) = self.inner.layout() {
            self.slot.set_layout(l);
        }
        r
    }
}

/// Whether the [`CheckedOp`] contract shim is active. Defaults to on in
/// debug builds (so the whole test suite runs self-checking) and off in
/// release builds (zero cost); `GRFUSION_CHECK_CONTRACTS=1` forces it on,
/// `=0` forces it off. Process-wide and read once — the first query fixes
/// it — so a SELECT never touches the environment.
fn contracts_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("GRFUSION_CHECK_CONTRACTS") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => false,
        Ok(_) => true,
        Err(_) => cfg!(debug_assertions),
    })
}

/// Pre-order list of statically inferred per-node contracts, consumed by
/// [`build`] with a cursor as it walks the plan in the same order.
pub(crate) struct ContractCtx {
    contracts: Vec<NodeContract>,
    cursor: Cell<usize>,
}

impl ContractCtx {
    pub(crate) fn new(plan: &PlanNode) -> ContractCtx {
        ContractCtx {
            contracts: crate::analyze::node_contracts(plan),
            cursor: Cell::new(0),
        }
    }

    pub(crate) fn next_contract(&self) -> Option<NodeContract> {
        let i = self.cursor.get();
        self.cursor.set(i + 1);
        self.contracts.get(i).cloned()
    }
}

/// Contract shim (the debug-mode twin of [`MeteredOp`]): asserts every
/// emitted tuple against the node's statically inferred schema — arity,
/// per-column type where statically certain, and inferred NOT NULL. A
/// violation means the analyzer and the executor disagree; surfacing it
/// at the offending operator beats corrupting downstream state.
struct CheckedOp<'e> {
    inner: BoxOp<'e>,
    contract: NodeContract,
    label: String,
}

impl<'e> Op<'e> for CheckedOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        let r = self.inner.next()?;
        if let Some(row) = &r {
            self.check(row)?;
        }
        Ok(r)
    }

    /// Forwarded: the metering shim sits *outside* this one and reads its
    /// inner operator's traversal counters through it.
    fn graph_stats(&self) -> Option<GraphCounters> {
        self.inner.graph_stats()
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        self.inner.governor_stats()
    }

    fn layout(&self) -> Option<TopologyLayout> {
        self.inner.layout()
    }
}

impl CheckedOp<'_> {
    fn check(&self, row: &Row) -> Result<()> {
        check_row_contract(&self.contract, &self.label, row)
    }
}

/// Assert one emitted row against a node's statically inferred contract.
/// Shared between the row-mode [`CheckedOp`] shim and the batch pipeline's
/// per-batch contract shim, which applies it to every row of every batch.
pub(crate) fn check_row_contract(c: &NodeContract, label: &str, row: &Row) -> Result<()> {
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

/// Governor shim, wrapped around every operator when the query carries an
/// active [`ExecContext`]: polls the deadline/cancel token every
/// [`OP_CHECK_INTERVAL`] `next()` calls, plus once when the inner operator
/// reports exhaustion — a traversal whose filter tripped mid-walk drains to
/// `Ok(None)`, and that final check converts the silent truncation into the
/// governor's typed error before the consumer can mistake it for a clean
/// end-of-stream.
struct GovernedOp<'e> {
    inner: BoxOp<'e>,
    ctx: &'e ExecContext,
    pulls: u64,
    checks: u64,
}

impl<'e> Op<'e> for GovernedOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        self.pulls += 1;
        if self.pulls % OP_CHECK_INTERVAL == 0 {
            self.checks += 1;
            self.ctx.check_now()?;
        }
        let r = self.inner.next()?;
        if r.is_none() {
            self.checks += 1;
            self.ctx.check_now()?;
        }
        Ok(r)
    }

    fn graph_stats(&self) -> Option<GraphCounters> {
        self.inner.graph_stats()
    }

    /// The inner operator's counters (bytes it charged) merged with this
    /// shim's own check count.
    fn governor_stats(&self) -> Option<GovCounters> {
        let mut g = self.inner.governor_stats().unwrap_or_default();
        g.checks += self.checks;
        Some(g)
    }

    fn layout(&self) -> Option<TopologyLayout> {
        self.inner.layout()
    }
}

/// Deterministic fault-injection shim (the test-harness twin of
/// [`MeteredOp`]/[`CheckedOp`]), wrapped innermost when a fault plan is
/// armed: every `next()` records one hit of the node's label as an
/// injection site, and the plan's matching rule (if any) converts the
/// chosen hit into an injected error — so tests can fail a specific
/// operator at a specific pull count and prove the abort path cleans up.
struct FaultOp<'e> {
    inner: BoxOp<'e>,
    site: String,
    faults: &'e FaultState,
}

impl<'e> Op<'e> for FaultOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        self.faults.hit(&self.site)?;
        self.inner.next()
    }

    fn graph_stats(&self) -> Option<GraphCounters> {
        self.inner.graph_stats()
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        self.inner.governor_stats()
    }

    fn layout(&self) -> Option<TopologyLayout> {
        self.inner.layout()
    }
}

pub(crate) fn build<'e>(
    plan: &'e PlanNode,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
    sink: Option<&'e MetricsSink>,
    contracts: Option<&'e ContractCtx>,
    depth: usize,
    batch_ok: bool,
) -> Result<BoxOp<'e>> {
    // Batch interception: when batching is permitted for this query
    // (`batch_ok` — computed once at the root: batching enabled, no row
    // budget, no fault plan, no LIMIT anywhere in the plan) and this
    // subtree's root is a batch-native relational operator, the whole
    // native prefix of the subtree runs batch-at-a-time and comes back
    // behind a Batch→Row adapter. Registration and contract consumption
    // happen inside `build_batch` in the same pre-order walk, so EXPLAIN
    // output and contract assignment are identical in both modes.
    if batch_ok && crate::batch::batch_native(plan) {
        return crate::batch::build_batch_bridge(plan, env, budget, sink, contracts, depth);
    }
    // Register before building children so the sink's node list comes out
    // in pre-order — the same order as the `EXPLAIN` lines. The contract
    // cursor advances in the same pre-order walk.
    let slot = sink.map(|s| s.register(plan.node_label(), depth));
    let contract = contracts.and_then(|c| c.next_contract());
    let op = build_inner(plan, env, budget, sink, contracts, depth, batch_ok)?;
    // Shim order, innermost out: Fault (inject at the operator itself),
    // Checked (contracts see injected-free rows only — faults abort, they
    // don't corrupt), Governed (deadline/cancel polling), Metered
    // (timing includes all governance overhead, like any other cost).
    let op = match env.gov.faults() {
        Some(faults) => Box::new(FaultOp {
            inner: op,
            site: plan.node_label(),
            faults,
        }) as BoxOp<'e>,
        None => op,
    };
    let op = match contract {
        Some(contract) => Box::new(CheckedOp {
            inner: op,
            contract,
            label: plan.node_label(),
        }) as BoxOp<'e>,
        None => op,
    };
    let op = if env.gov.active() {
        Box::new(GovernedOp {
            inner: op,
            ctx: &env.gov,
            pulls: 0,
            checks: 0,
        }) as BoxOp<'e>
    } else {
        op
    };
    Ok(match slot {
        Some(slot) => Box::new(MeteredOp { inner: op, slot }),
        None => op,
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

pub(crate) fn mem_tracker<'e>(env: &'e QueryEnv<'e>) -> Option<MemTracker<'e>> {
    env.gov.active().then(|| MemTracker {
        ctx: &env.gov,
        bytes: Cell::new(0),
    })
}

fn build_inner<'e>(
    plan: &'e PlanNode,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
    sink: Option<&'e MetricsSink>,
    contracts: Option<&'e ContractCtx>,
    depth: usize,
    batch_ok: bool,
) -> Result<BoxOp<'e>> {
    Ok(match plan {
        PlanNode::TableScan { table, filter, .. } => {
            let t = env.table(table)?;
            Box::new(TableScanOp {
                iter: Box::new(t.scan().map(|(_, r)| r)),
                filter: filter.as_ref(),
                env,
                budget,
            })
        }
        PlanNode::IndexLookup {
            table,
            column,
            key,
            filter,
            ..
        } => {
            let t = env.table(table)?;
            let col_ty = t.schema().column(*column).data_type;
            let key_val = index_probe_key(key.eval(&Vec::new(), env)?, col_ty);
            let ids = match t.index_on(*column, Some(grfusion_storage::IndexKind::Hash)) {
                Some(ix) => key_val.map(|k| ix.get(&k)).unwrap_or_default(),
                None => {
                    return Err(Error::execution(format!(
                        "planned index lookup but table `{table}` has no hash index on column {column}"
                    )));
                }
            };
            Box::new(IndexLookupOp {
                table: t,
                ids,
                pos: 0,
                filter: filter.as_ref(),
                env,
                budget,
            })
        }
        PlanNode::VertexScan { graph, filter, .. } => {
            let genv = env.graph(graph)?;
            Box::new(VertexScanOp {
                genv,
                slots: Box::new(genv.topo.vertex_slots()),
                filter: filter.as_ref(),
                env,
                budget,
            })
        }
        PlanNode::EdgeScan { graph, filter, .. } => {
            let genv = env.graph(graph)?;
            Box::new(EdgeScanOp {
                genv,
                slots: Box::new(genv.topo.edge_slots()),
                filter: filter.as_ref(),
                env,
                budget,
            })
        }
        PlanNode::PathScan { config, .. } => Box::new(PathScanOp {
            config,
            env,
            sink,
            inputs: PathProbe::resolve(config, &Vec::new(), env)?,
            scan: None,
            budget,
            tracker: None,
            layout: env.graph(&config.graph)?.topo.layout(),
        }),
        PlanNode::PathJoin { outer, config, .. } => {
            let outer_op = build(outer, env, budget, sink, contracts, depth + 1, batch_ok)?;
            Box::new(PathJoinOp {
                outer: outer_op,
                current: None,
                config,
                env,
                budget,
                stats_done: GraphCounters::default(),
                gov_done: GovCounters::default(),
                tracker: mem_tracker(env),
                layout: env.graph(&config.graph)?.topo.layout(),
            })
        }
        PlanNode::Filter {
            input, predicate, ..
        } => Box::new(FilterOp {
            input: build(input, env, budget, sink, contracts, depth + 1, batch_ok)?,
            predicate,
            env,
        }),
        PlanNode::NestedLoopJoin {
            left,
            right,
            condition,
            ..
        } => Box::new(NestedLoopJoinOp {
            left_rows: None,
            left: Some(build(left, env, budget, sink, contracts, depth + 1, batch_ok)?),
            right: build(right, env, budget, sink, contracts, depth + 1, batch_ok)?,
            right_row: None,
            left_pos: 0,
            condition: condition.as_ref(),
            env,
            budget,
            tracker: mem_tracker(env),
        }),
        PlanNode::IndexJoin {
            outer,
            table,
            column,
            key,
            filter,
            ..
        } => {
            let t = env.table(table)?;
            if t.index_on(*column, Some(grfusion_storage::IndexKind::Hash))
                .is_none()
            {
                return Err(Error::execution(format!(
                    "planned index join but table `{table}` has no hash index on column {column}"
                )));
            }
            Box::new(IndexJoinOp {
                outer: build(outer, env, budget, sink, contracts, depth + 1, batch_ok)?,
                table: t,
                column: *column,
                key,
                filter: filter.as_ref(),
                current: None,
                env,
                budget,
            })
        }
        PlanNode::Project { input, exprs, .. } => Box::new(ProjectOp {
            input: build(input, env, budget, sink, contracts, depth + 1, batch_ok)?,
            exprs,
            env,
        }),
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
            ..
        } => Box::new(AggregateOp {
            input: Some(build(input, env, budget, sink, contracts, depth + 1, batch_ok)?),
            group_exprs,
            aggs,
            env,
            output: Vec::new(),
            pos: 0,
            done: false,
            tracker: mem_tracker(env),
        }),
        PlanNode::Sort { input, keys, .. } => Box::new(SortOp {
            input: Some(build(input, env, budget, sink, contracts, depth + 1, batch_ok)?),
            keys,
            env,
            rows: Vec::new(),
            pos: 0,
            done: false,
            tracker: mem_tracker(env),
        }),
        PlanNode::Limit { input, limit, .. } => Box::new(LimitOp {
            input: build(input, env, budget, sink, contracts, depth + 1, batch_ok)?,
            remaining: *limit,
        }),
        PlanNode::Distinct { input, .. } => Box::new(DistinctOp {
            input: build(input, env, budget, sink, contracts, depth + 1, batch_ok)?,
            seen: std::collections::HashSet::new(),
            tracker: mem_tracker(env),
        }),
    })
}

/// Streaming duplicate elimination: a row passes the first time its
/// group-key form is seen.
struct DistinctOp<'e> {
    input: BoxOp<'e>,
    seen: std::collections::HashSet<Vec<GroupKey>>,
    tracker: Option<MemTracker<'e>>,
}

impl<'e> Op<'e> for DistinctOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            let key: Vec<GroupKey> = row.iter().map(|v| v.group_key()).collect();
            if self.seen.insert(key) {
                // The seen-set retains (a key form of) every distinct row.
                if let Some(t) = &self.tracker {
                    t.charge(row_bytes(&row))?;
                }
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        self.tracker.as_ref().map(|t| t.counters())
    }
}

// ---------------------------------------------------------------------------
// Relational operators
// ---------------------------------------------------------------------------

struct TableScanOp<'e> {
    iter: Box<dyn Iterator<Item = &'e Row> + 'e>,
    filter: Option<&'e PhysExpr>,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
}

impl<'e> Op<'e> for TableScanOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        for row in self.iter.by_ref() {
            if let Some(f) = self.filter {
                if !f.matches(row, self.env)? {
                    continue;
                }
            }
            self.budget.tick()?;
            return Ok(Some(row.clone())); // alloc-ok: Op contract returns owned rows
        }
        Ok(None)
    }
}

struct IndexLookupOp<'e> {
    table: &'e grfusion_storage::Table,
    ids: Vec<grfusion_common::RowId>,
    pos: usize,
    filter: Option<&'e PhysExpr>,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
}

impl<'e> Op<'e> for IndexLookupOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        while self.pos < self.ids.len() {
            let id = self.ids[self.pos];
            self.pos += 1;
            let Some(row) = self.table.get(id) else {
                continue;
            };
            if let Some(f) = self.filter {
                if !f.matches(row, self.env)? {
                    continue;
                }
            }
            self.budget.tick()?;
            return Ok(Some(row.clone())); // alloc-ok: Op contract returns owned rows
        }
        Ok(None)
    }
}

struct FilterOp<'e> {
    input: BoxOp<'e>,
    predicate: &'e PhysExpr,
    env: &'e QueryEnv<'e>,
}

impl<'e> Op<'e> for FilterOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.input.next()? {
            if self.predicate.matches(&row, self.env)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

struct ProjectOp<'e> {
    input: BoxOp<'e>,
    exprs: &'e [PhysExpr],
    env: &'e QueryEnv<'e>,
}

impl<'e> Op<'e> for ProjectOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        match self.input.next()? {
            None => Ok(None),
            Some(row) => {
                let mut out = Vec::with_capacity(self.exprs.len());
                for e in self.exprs {
                    out.push(e.eval(&row, self.env)?);
                }
                Ok(Some(out))
            }
        }
    }
}

struct LimitOp<'e> {
    input: BoxOp<'e>,
    remaining: u64,
}

impl<'e> Op<'e> for LimitOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.input.next()? {
            None => {
                self.remaining = 0;
                Ok(None)
            }
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
        }
    }
}

/// Nested-loop join: the LEFT side is buffered, the RIGHT side is streamed
/// once. Output rows are `left ⊕ right` in right-major order. Keeping the
/// right side streamed preserves laziness when the right side is a path
/// scan (the common cross-model shape after the planner's reordering).
struct NestedLoopJoinOp<'e> {
    left: Option<BoxOp<'e>>,
    left_rows: Option<Vec<Row>>,
    right: BoxOp<'e>,
    right_row: Option<Row>,
    left_pos: usize,
    condition: Option<&'e PhysExpr>,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
    tracker: Option<MemTracker<'e>>,
}

impl<'e> Op<'e> for NestedLoopJoinOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.left_rows.is_none() {
            let mut rows = Vec::new();
            if let Some(mut left) = self.left.take() {
                while let Some(r) = left.next()? {
                    // The build side is retained for the whole join.
                    if let Some(t) = &self.tracker {
                        t.charge(row_bytes(&r))?;
                    }
                    rows.push(r);
                }
            }
            self.left_rows = Some(rows);
        }
        let Some(left_rows) = self.left_rows.as_ref() else {
            return Ok(None);
        };
        if left_rows.is_empty() {
            return Ok(None);
        }
        loop {
            if self.right_row.is_none() || self.left_pos >= left_rows.len() {
                match self.right.next()? {
                    None => return Ok(None),
                    Some(r) => {
                        self.right_row = Some(r);
                        self.left_pos = 0;
                    }
                }
            }
            let Some(right) = self.right_row.as_ref() else {
                return Ok(None);
            };
            while self.left_pos < left_rows.len() {
                let l = &left_rows[self.left_pos];
                self.left_pos += 1;
                let mut out = Vec::with_capacity(l.len() + right.len());
                out.extend_from_slice(l);
                out.extend_from_slice(right);
                if let Some(cond) = self.condition {
                    if !cond.matches(&out, self.env)? {
                        continue;
                    }
                }
                self.budget.tick()?;
                return Ok(Some(out));
            }
        }
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        self.tracker.as_ref().map(|t| t.counters())
    }
}

/// Index nested-loop join: per outer row, probe the inner table's hash
/// index and emit outer ⊕ inner. The per-hop join of SQLGraph-style
/// relational traversal (§7.2's "one relational join per edge traversal").
struct IndexJoinOp<'e> {
    outer: BoxOp<'e>,
    table: &'e grfusion_storage::Table,
    column: usize,
    key: &'e PhysExpr,
    filter: Option<&'e PhysExpr>,
    /// (outer row, matching inner row ids, cursor)
    current: Option<(Row, Vec<grfusion_common::RowId>, usize)>,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
}

impl<'e> Op<'e> for IndexJoinOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some((outer_row, ids, pos)) = &mut self.current {
                while *pos < ids.len() {
                    let id = ids[*pos];
                    *pos += 1;
                    let Some(inner) = self.table.get(id) else {
                        continue;
                    };
                    if let Some(f) = self.filter {
                        if !f.matches(inner, self.env)? {
                            continue;
                        }
                    }
                    self.budget.tick()?;
                    let mut out = Vec::with_capacity(outer_row.len() + inner.len());
                    out.extend_from_slice(outer_row);
                    out.extend_from_slice(inner);
                    return Ok(Some(out));
                }
                self.current = None;
            }
            match self.outer.next()? {
                None => return Ok(None),
                Some(outer_row) => {
                    let col_ty = self.table.schema().column(self.column).data_type;
                    let key_val =
                        index_probe_key(self.key.eval(&outer_row, self.env)?, col_ty);
                    let ids = match key_val {
                        None => Vec::new(), // alloc-ok: empty Vec does not allocate
                        // The index's existence is verified at build time,
                        // but fail the query (not the process) if that
                        // invariant ever breaks.
                        Some(k) => match self
                            .table
                            .index_on(self.column, Some(grfusion_storage::IndexKind::Hash))
                        {
                            Some(ix) => ix.get(&k),
                            None => {
                                return Err(Error::execution(
                                    "hash index vanished between build and probe",
                                ))
                            }
                        },
                    };
                    self.current = Some((outer_row, ids, 0));
                }
            }
        }
    }
}

struct SortOp<'e> {
    input: Option<BoxOp<'e>>,
    keys: &'e [(PhysExpr, bool)],
    env: &'e QueryEnv<'e>,
    rows: Vec<Row>,
    pos: usize,
    done: bool,
    tracker: Option<MemTracker<'e>>,
}

impl<'e> Op<'e> for SortOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        if !self.done {
            let Some(mut input) = self.input.take() else {
                return Ok(None);
            };
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();
            while let Some(row) = input.next()? {
                let mut key = Vec::with_capacity(self.keys.len());
                for (e, _) in self.keys {
                    key.push(e.eval(&row, self.env)?);
                }
                // The sort buffer holds every input row plus its key.
                if let Some(t) = &self.tracker {
                    t.charge(row_bytes(&row) + row_bytes(&key))?;
                }
                keyed.push((key, row));
            }
            let keys = self.keys;
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, (_, asc)) in keys.iter().enumerate() {
                    let ord = cmp_values_nulls_last(&ka[i], &kb[i]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            self.rows = keyed.into_iter().map(|(_, r)| r).collect();
            self.done = true;
        }
        if self.pos < self.rows.len() {
            let r = std::mem::take(&mut self.rows[self.pos]);
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        self.tracker.as_ref().map(|t| t.counters())
    }
}

/// Total order for sorting: NULLs sort last in ascending order.
fn cmp_values_nulls_last(a: &Value, b: &Value) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.sql_cmp(b).unwrap_or(Ordering::Equal),
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct AggState {
    pub(crate) count: i64,
    sum: f64,
    /// Exact integer accumulator: `f64` loses precision past 2^53, so an
    /// all-integer SUM is carried in `i128` (which cannot overflow from
    /// summing `i64`s) and checked back into `i64` at finish.
    isum: i128,
    sum_is_int: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    pub(crate) fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            isum: 0,
            sum_is_int: true,
            min: None,
            max: None,
        }
    }

    pub(crate) fn update(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        if let Ok(d) = v.as_double() {
            self.sum += d;
            if let Value::Integer(i) = v {
                self.isum += *i as i128;
            } else {
                self.sum_is_int = false;
            }
        }
        if self
            .min
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less))
        {
            self.min = Some(v.clone());
        }
        if self
            .max
            .as_ref()
            .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater))
        {
            self.max = Some(v.clone());
        }
        Ok(())
    }

    pub(crate) fn finish(&self, func: AggFunc) -> Result<Value> {
        Ok(match func {
            AggFunc::Count => Value::Integer(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Integer(
                        i64::try_from(self.isum)
                            .map_err(|_| Error::execution("integer overflow"))?,
                    )
                } else {
                    Value::Double(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    // Divide from the exact accumulator: (a+b)/2 computed
                    // through a lossy f64 sum drifts for huge integers.
                    Value::Double(crate::expr::integer_avg(self.isum, self.count as i128))
                } else {
                    Value::Double(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        })
    }
}

struct AggregateOp<'e> {
    input: Option<BoxOp<'e>>,
    group_exprs: &'e [PhysExpr],
    aggs: &'e [AggSpec],
    env: &'e QueryEnv<'e>,
    output: Vec<Row>,
    pos: usize,
    done: bool,
    tracker: Option<MemTracker<'e>>,
}

impl<'e> Op<'e> for AggregateOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        if !self.done {
            let Some(mut input) = self.input.take() else {
                return Ok(None);
            };
            let mut groups: HashMap<Vec<GroupKey>, (Row, Vec<AggState>)> = HashMap::new();
            let mut order: Vec<Vec<GroupKey>> = Vec::new();
            while let Some(row) = input.next()? {
                let mut key = Vec::with_capacity(self.group_exprs.len());
                let mut key_vals = Vec::with_capacity(self.group_exprs.len());
                for g in self.group_exprs {
                    let v = g.eval(&row, self.env)?;
                    key.push(v.group_key());
                    key_vals.push(v);
                }
                // Each new group adds its key values plus one aggregation
                // state per aggregate to the hash table.
                if let Some(t) = &self.tracker {
                    if !groups.contains_key(&key) {
                        t.charge(
                            row_bytes(&key_vals)
                                + (self.aggs.len() * std::mem::size_of::<AggState>()) as u64,
                        )?;
                    }
                }
                let entry = groups.entry(key.clone()).or_insert_with(|| { // alloc-ok: std entry API needs an owned key
                    order.push(key);
                    (key_vals, vec![AggState::new(); self.aggs.len()]) // alloc-ok: runs once per new group
                });
                for (i, spec) in self.aggs.iter().enumerate() {
                    match &spec.arg {
                        None => {
                            // COUNT(*)
                            entry.1[i].count += 1;
                        }
                        Some(e) => {
                            let v = e.eval(&row, self.env)?;
                            entry.1[i].update(&v)?;
                        }
                    }
                }
            }
            if groups.is_empty() && self.group_exprs.is_empty() {
                // Global aggregate over an empty input: one row of defaults.
                let row: Row = self
                    .aggs
                    .iter()
                    .map(|spec| AggState::new().finish(spec.func))
                    .collect::<Result<_>>()?;
                self.output.push(row);
            } else {
                for key in order {
                    let Some((vals, states)) = groups.remove(&key) else {
                        continue;
                    };
                    let mut row = vals;
                    for (spec, st) in self.aggs.iter().zip(&states) {
                        row.push(st.finish(spec.func)?);
                    }
                    self.output.push(row);
                }
            }
            self.done = true;
        }
        if self.pos < self.output.len() {
            let r = std::mem::take(&mut self.output[self.pos]);
            self.pos += 1;
            Ok(Some(r))
        } else {
            Ok(None)
        }
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        self.tracker.as_ref().map(|t| t.counters())
    }
}

// ---------------------------------------------------------------------------
// Graph operators
// ---------------------------------------------------------------------------

struct VertexScanOp<'e> {
    genv: &'e GraphEnv<'e>,
    slots: Box<dyn Iterator<Item = VertexSlot> + 'e>,
    filter: Option<&'e PhysExpr>,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
}

impl<'e> VertexScanOp<'e> {
    fn make_row(&self, slot: VertexSlot) -> Result<Row> {
        let g = self.genv;
        let mut row = Vec::with_capacity(g.def.vertex_attrs.len() + 3);
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
        Ok(row)
    }
}

impl<'e> Op<'e> for VertexScanOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(slot) = self.slots.next() {
            let row = self.make_row(slot)?;
            if let Some(f) = self.filter {
                if !f.matches(&row, self.env)? {
                    continue;
                }
            }
            self.budget.tick()?;
            return Ok(Some(row));
        }
        Ok(None)
    }
}

struct EdgeScanOp<'e> {
    genv: &'e GraphEnv<'e>,
    slots: Box<dyn Iterator<Item = EdgeSlot> + 'e>,
    filter: Option<&'e PhysExpr>,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
}

impl<'e> Op<'e> for EdgeScanOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        for slot in self.slots.by_ref() {
            let g = self.genv;
            let (from, to) = g.topo.edge_endpoints(slot);
            let mut row = Vec::with_capacity(g.def.edge_attrs.len() + 3);
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
            if let Some(f) = self.filter {
                if !f.matches(&row, self.env)? {
                    continue;
                }
            }
            self.budget.tick()?;
            return Ok(Some(row));
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Path scanning
// ---------------------------------------------------------------------------

/// How an attribute named in a pushed predicate is fetched during
/// traversal (resolved once when the scan starts).
#[derive(Debug, Clone, Copy)]
enum AttrAccess {
    EdgeCol(usize),
    VertexCol(usize),
    EdgeId,
    VertexId,
    FanIn,
    FanOut,
}

/// A pushed predicate with its right-hand side bound to concrete values.
struct BoundPred {
    start: u64,
    end: IndexEnd,
    access: AttrAccess,
    test: BoundTest,
}

enum BoundTest {
    Cmp { op: CmpOp, rhs: Value },
    In { list: Vec<Value>, negated: bool },
}

impl BoundPred {
    #[inline]
    fn applies_at(&self, pos: usize) -> bool {
        let p = pos as u64;
        match self.end {
            IndexEnd::At => p == self.start,
            IndexEnd::Bounded(b) => p >= self.start && p <= b,
            IndexEnd::Star => p >= self.start,
        }
    }

    fn check(&self, v: &Value) -> bool {
        match &self.test {
            BoundTest::Cmp { op, rhs } => op.test(v.sql_cmp(rhs)).is_truthy(),
            BoundTest::In { list, negated } => {
                let any = list.iter().any(|rv| v.sql_eq(rv) == Some(true));
                any != *negated
            }
        }
    }
}

/// A bound running-aggregate prune.
struct BoundAggPred {
    target: PathTarget,
    access: AttrAccess,
    op: CmpOp,
    rhs: Value,
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
    edge_preds: Vec<BoundPred>,
    vertex_preds: Vec<BoundPred>,
    agg_preds: Vec<BoundAggPred>,
    /// Tuple-pointer dereferences into the source tables (the §6.2 cost
    /// the paper plots). `Cell`: the fetches take `&self`, and each
    /// parallel worker binds its own filter, so no atomics are needed.
    derefs: Cell<u64>,
    /// Present iff the query's governor is active.
    gov: Option<FilterGov<'e>>,
}

impl<'e> EngineFilter<'e> {
    /// Whether any running-aggregate predicates were pushed down (they
    /// require prefix checks during traversal).
    pub(crate) fn has_agg_preds(&self) -> bool {
        !self.agg_preds.is_empty()
    }

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

    fn fetch_edge(&self, g: &GraphTopology, e: EdgeSlot, access: AttrAccess) -> Value {
        match access {
            AttrAccess::EdgeId => Value::Integer(g.edge_id(e)),
            AttrAccess::EdgeCol(c) => {
                self.derefs.set(self.derefs.get() + 1);
                self.genv
                    .edge_table
                    .get_value(g.edge_tuple(e), c)
                    .cloned()
                    .unwrap_or(Value::Null)
            }
            _ => Value::Null,
        }
    }

    fn fetch_vertex(&self, g: &GraphTopology, v: VertexSlot, access: AttrAccess) -> Value {
        match access {
            AttrAccess::VertexId => Value::Integer(g.vertex_id(v)),
            AttrAccess::FanIn => Value::Integer(crate::env::degree_i64(g.fan_in(v))),
            AttrAccess::FanOut => Value::Integer(crate::env::degree_i64(g.fan_out(v))),
            AttrAccess::VertexCol(c) => {
                self.derefs.set(self.derefs.get() + 1);
                self.genv
                    .vertex_table
                    .get_value(g.vertex_tuple(v), c)
                    .cloned()
                    .unwrap_or(Value::Null)
            }
            _ => Value::Null,
        }
    }
}

impl<'e> TraversalFilter for EngineFilter<'e> {
    fn edge_allowed(&self, g: &GraphTopology, edge: EdgeSlot, hop: usize) -> bool {
        if !self.gov_ok() {
            return false;
        }
        self.edge_preds.iter().all(|p| {
            !p.applies_at(hop) || p.check(&self.fetch_edge(g, edge, p.access))
        })
    }

    fn vertex_allowed(&self, g: &GraphTopology, vertex: VertexSlot, position: usize) -> bool {
        if !self.gov_ok() {
            return false;
        }
        self.vertex_preds.iter().all(|p| {
            !p.applies_at(position) || p.check(&self.fetch_vertex(g, vertex, p.access))
        })
    }

    fn prefix_allowed(&self, g: &GraphTopology, path: &PathData) -> bool {
        self.agg_preds.iter().all(|p| {
            let mut sum = 0.0f64;
            match p.target {
                PathTarget::Edges => {
                    for &eid in &path.edges {
                        if let Ok(slot) = g.edge_slot(eid) {
                            if let Ok(d) = self.fetch_edge(g, slot, p.access).as_double() {
                                sum += d;
                            }
                        }
                    }
                }
                PathTarget::Vertexes => {
                    for &vid in &path.vertexes {
                        if let Ok(slot) = g.vertex_slot(vid) {
                            if let Ok(d) = self.fetch_vertex(g, slot, p.access).as_double() {
                                sum += d;
                            }
                        }
                    }
                }
            }
            p.op.test(Value::Double(sum).sql_cmp(&p.rhs)).is_truthy()
        })
    }
}

fn resolve_attr(genv: &GraphEnv<'_>, target: PathTarget, attr: &str) -> Result<AttrAccess> {
    Ok(match target {
        PathTarget::Edges => {
            if attr.eq_ignore_ascii_case("id") {
                AttrAccess::EdgeId
            } else {
                AttrAccess::EdgeCol(genv.def.edge_attr_col(attr).ok_or_else(|| {
                    Error::analysis(format!(
                        "graph view `{}` has no edge attribute `{attr}`",
                        genv.def.name
                    ))
                })?)
            }
        }
        PathTarget::Vertexes => {
            if attr.eq_ignore_ascii_case("id") {
                AttrAccess::VertexId
            } else if attr.eq_ignore_ascii_case("fanin") {
                AttrAccess::FanIn
            } else if attr.eq_ignore_ascii_case("fanout") {
                AttrAccess::FanOut
            } else {
                AttrAccess::VertexCol(genv.def.vertex_attr_col(attr).ok_or_else(|| {
                    Error::analysis(format!(
                        "graph view `{}` has no vertex attribute `{attr}`",
                        genv.def.name
                    ))
                })?)
            }
        }
    })
}

/// Bind pushed predicates against one outer row.
pub(crate) fn bind_filter<'e>(
    config: &PathScanConfig,
    outer_row: &Row,
    env: &'e QueryEnv<'e>,
    genv: &'e GraphEnv<'e>,
) -> Result<EngineFilter<'e>> {
    let bind_pred = |p: &PushedPred| -> Result<BoundPred> {
        let access = resolve_attr(genv, p.target, &p.attr)?;
        let test = match &p.test {
            PushedTest::Cmp { op, rhs } => BoundTest::Cmp {
                op: *op,
                rhs: rhs.eval(outer_row, env)?,
            },
            PushedTest::In { list, negated } => BoundTest::In {
                list: list
                    .iter()
                    .map(|e| e.eval(outer_row, env))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
        };
        Ok(BoundPred {
            start: p.start,
            end: p.end,
            access,
            test,
        })
    };
    let bind_agg = |p: &PushedAggPred| -> Result<BoundAggPred> {
        Ok(BoundAggPred {
            target: p.target,
            access: resolve_attr(genv, p.target, &p.attr)?,
            op: p.op,
            rhs: p.rhs.eval(outer_row, env)?,
        })
    };
    Ok(EngineFilter {
        genv,
        edge_preds: config
            .edge_preds
            .iter()
            .map(bind_pred)
            .collect::<Result<_>>()?,
        vertex_preds: config
            .vertex_preds
            .iter()
            .map(bind_pred)
            .collect::<Result<_>>()?,
        agg_preds: config
            .agg_preds
            .iter()
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

/// The edge-cost function of a shortest-path scan: the hinted attribute,
/// read through the edge's tuple pointer (NULL or non-numeric = infinite).
fn edge_cost<'e>(
    genv: &'e GraphEnv<'e>,
    cost_attr: &str,
) -> Result<impl Fn(&GraphTopology, EdgeSlot) -> f64 + 'e> {
    let col = genv.def.edge_attr_col(cost_attr).ok_or_else(|| {
        Error::analysis(format!(
            "graph view `{}` has no edge attribute `{cost_attr}`",
            genv.def.name
        ))
    })?;
    let edge_table = genv.edge_table;
    Ok(move |g: &GraphTopology, e| {
        edge_table
            .get_value(g.edge_tuple(e), col)
            .and_then(|v| v.as_double().ok())
            .unwrap_or(f64::INFINITY)
    })
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
    /// Parallel fan-out result: materialized and merged in serial order.
    /// The workers charged each path's bytes to the memory accountant
    /// while enumerating; the row budget is charged at emission like every
    /// other variant.
    Parallel {
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
            ActiveScan::Parallel { iter, .. } => Ok(iter.next()),
            ActiveScan::Empty => Ok(None),
        }
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
            ActiveScan::Buffered { stats, .. } | ActiveScan::Parallel { stats, .. } => *stats,
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
            ActiveScan::Buffered { gov, .. } | ActiveScan::Parallel { gov, .. } => *gov,
            ActiveScan::Empty => GovCounters::default(),
        }
    }

    /// Whether path bytes should be charged as paths are emitted. False
    /// for materialized variants, which charged during enumeration.
    fn charges_on_emission(&self) -> bool {
        !matches!(
            self,
            ActiveScan::Buffered { .. } | ActiveScan::Parallel { .. }
        )
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
        config: &PathScanConfig,
        outer_row: &Row,
        env: &'e QueryEnv<'e>,
    ) -> Result<Option<ProbeInputs<'e>>> {
        let genv = env.graph(&config.graph)?;
        let topo = genv.topo;
        let filter = bind_filter(config, outer_row, env, genv)?;
        let anchor = |e: &PhysExpr| -> Result<Option<VertexSlot>> {
            let v = e.eval(outer_row, env)?;
            if v.is_null() {
                return Ok(None);
            }
            Ok(topo.vertex_slot(v.as_integer()?).ok())
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
        config: &PathScanConfig,
        outer_row: &Row,
        env: &'e QueryEnv<'e>,
    ) -> Result<ActiveScan<'e>> {
        match Self::resolve(config, outer_row, env)? {
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
            let (found, search) = if let ScanMode::ShortestPath { cost_attr } = &config.mode {
                let (p, search) =
                    shortest_path_with_stats(topo, seed, target, edge_cost(genv, cost_attr)?, &filter)?;
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

        // Resolve the physical mode (§6.3): hint > flags; Auto applies the
        // `BFS iff F < L` heuristic with the view's fan-out statistic.
        let mode = match &config.mode {
            ScanMode::Auto => {
                let f = topo.avg_fan_out();
                // `u32 → f64` is exact; a length cap beyond u32::MAX (never
                // inferable from a real query) means L is effectively
                // unbounded, so the `F < L` test always picks BFS rather
                // than comparing against a rounded `usize as f64`.
                let cap = u32::try_from(config.max_len)
                    .map(f64::from)
                    .unwrap_or(f64::INFINITY);
                if f < cap {
                    ScanMode::Bfs
                } else {
                    ScanMode::Dfs
                }
            }
            m => m.clone(),
        };

        let mut spec = TraversalSpec::new(config.min_len, config.max_len);
        if !filter.agg_preds.is_empty() {
            spec = spec.with_prefix_checks();
        }

        let mut scan = match mode {
            ScanMode::Dfs => ActiveScan::Dfs(DfsPaths::new(topo, seeds, spec, filter)),
            ScanMode::Bfs => ActiveScan::Bfs(BfsPaths::new(topo, seeds, spec, filter)),
            ScanMode::ShortestPath { cost_attr } => {
                let Some(target) = target else {
                    return Ok(ActiveScan::Empty);
                };
                ActiveScan::Sp {
                    iter: KShortestPaths::new(
                        topo,
                        seed,
                        target,
                        config.max_len,
                        Box::new(edge_cost(genv, &cost_attr)?),
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

struct PathScanOp<'e> {
    config: &'e PathScanConfig,
    env: &'e QueryEnv<'e>,
    sink: Option<&'e MetricsSink>,
    /// The probe's filter and anchors, resolved (and so validated) while
    /// the operator tree is built; taken by the first `next()`.
    inputs: Option<ProbeInputs<'e>>,
    /// `None` until the first `next()`: the traversal (a whole
    /// point-to-point search, an eager materialization, or a morsel
    /// fan-out) starts there and not while the operator tree is built, so
    /// its time lands on this operator's clock and a parent that never
    /// pulls never pays for it.
    scan: Option<ActiveScan<'e>>,
    budget: &'e RowBudget,
    /// Emission-side byte accounting for in-flight (lazy serial) scans;
    /// `None` for buffered/parallel variants, whose bytes were charged
    /// during materialization.
    tracker: Option<MemTracker<'e>>,
    /// Topology layout captured at build time (the topology is locked for
    /// the whole query, so it cannot change underneath the scan).
    layout: TopologyLayout,
}

impl<'e> PathScanOp<'e> {
    fn start(&mut self) -> Result<&mut ActiveScan<'e>> {
        // With workers > 1 the seed set is fanned out over a morsel pool;
        // the merged buffer comes back in serial order with its bytes
        // already charged by the workers (the row budget is charged at
        // emission, like every serial variant). Scans the pool cannot take
        // (reachability fast path) fall back to the serial probe.
        let parallel = if self.env.parallel.workers > 1 {
            crate::parallel::try_parallel_path_scan(self.config, self.env)?
        } else {
            None
        };
        let scan = match parallel {
            Some(outcome) => {
                let mut stats = GraphCounters::default();
                for w in &outcome.workers {
                    stats.merge(&w.counters);
                }
                if let Some(s) = self.sink {
                    s.record_workers(outcome.workers);
                }
                ActiveScan::Parallel {
                    iter: outcome.paths.into_iter(),
                    stats,
                    gov: outcome.gov,
                }
            }
            None => match self.inputs.take() {
                Some(inputs) => PathProbe::run(self.config, self.env, inputs)?,
                None => ActiveScan::Empty,
            },
        };
        // Buffered/parallel variants charged their bytes while
        // materializing; a tracker here would double-charge them at
        // emission.
        if scan.charges_on_emission() {
            self.tracker = mem_tracker(self.env);
        }
        Ok(self.scan.insert(scan))
    }
}

impl<'e> Op<'e> for PathScanOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        let scan = match &mut self.scan {
            Some(scan) => scan,
            None => self.start()?,
        };
        match scan.next_path()? {
            None => Ok(None),
            Some(p) => {
                // The row budget is charged here, at emission, for every
                // variant — identical accounting at any worker count.
                self.budget.tick()?;
                if let Some(t) = &self.tracker {
                    t.charge(path_bytes(&p))?;
                }
                Ok(Some(vec![Value::Path(std::sync::Arc::new(p))]))
            }
        }
    }

    fn graph_stats(&self) -> Option<GraphCounters> {
        Some(self.scan.as_ref().map(ActiveScan::graph_counters).unwrap_or_default())
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
    outer: BoxOp<'e>,
    current: Option<(Row, ActiveScan<'e>)>,
    config: &'e PathScanConfig,
    env: &'e QueryEnv<'e>,
    budget: &'e RowBudget,
    /// Traversal counters accumulated from probes that already finished
    /// (the in-flight probe's counters are added on read).
    stats_done: GraphCounters,
    /// Same accumulation for per-probe governor counters.
    gov_done: GovCounters,
    tracker: Option<MemTracker<'e>>,
    /// Topology layout captured at build time (see [`PathScanOp::layout`]).
    layout: TopologyLayout,
}

impl<'e> Op<'e> for PathJoinOp<'e> {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some((outer_row, scan)) = &mut self.current {
                if let Some(p) = scan.next_path()? {
                    self.budget.tick()?;
                    // Buffered probes (reachability / eager ablation)
                    // charged their bytes during materialization.
                    if scan.charges_on_emission() {
                        if let Some(t) = &self.tracker {
                            t.charge(path_bytes(&p))?;
                        }
                    }
                    let mut out = Vec::with_capacity(outer_row.len() + 1);
                    out.extend_from_slice(outer_row);
                    out.push(Value::Path(std::sync::Arc::new(p)));
                    return Ok(Some(out));
                }
                self.stats_done.merge(&scan.graph_counters());
                self.gov_done.merge(&scan.gov_counters());
                self.current = None;
            }
            match self.outer.next()? {
                None => return Ok(None),
                Some(outer_row) => {
                    let scan = PathProbe::start(self.config, &outer_row, self.env)?;
                    self.current = Some((outer_row, scan));
                }
            }
        }
    }

    fn graph_stats(&self) -> Option<GraphCounters> {
        let mut total = self.stats_done;
        if let Some((_, scan)) = &self.current {
            total.merge(&scan.graph_counters());
        }
        Some(total)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        // As for PathScanOp: tracker presence == governor active.
        let t = self.tracker.as_ref()?;
        let mut total = self.gov_done;
        if let Some((_, scan)) = &self.current {
            total.merge(&scan.gov_counters());
        }
        total.merge(&t.counters());
        Some(total)
    }

    fn layout(&self) -> Option<TopologyLayout> {
        Some(self.layout)
    }
}

/// Convenience single-pair shortest path used by maintenance/examples (not
/// part of query execution, but exercised by tests).
pub fn single_pair_shortest<'e>(
    genv: &'e GraphEnv<'e>,
    source: i64,
    target: i64,
    cost_attr: &str,
) -> Result<Option<PathData>> {
    let topo = genv.topo;
    let (Ok(s), Ok(t)) = (topo.vertex_slot(source), topo.vertex_slot(target)) else {
        return Ok(None);
    };
    shortest_path(
        topo,
        s,
        t,
        edge_cost(genv, cost_attr)?,
        &grfusion_graph::NoFilter,
    )
}
