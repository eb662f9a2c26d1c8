//! The relational spine: one batch interface, and the relational operators
//! over it.
//!
//! Every operator — relational or graph — implements [`Operator`]:
//! `next_batch(out, max_rows)` fills the caller's [`Batch`] with at most
//! `max_rows` tuples. `max_rows` is the consumer's *demand*: a `LIMIT k`
//! asks for at most its remaining `k`, operators that map input to output
//! one-for-one or fewer (project, filter, distinct) pass their consumer's
//! demand down, and operators that drain their input before emitting
//! (aggregate, sort, the nested-loop build side) ask for the query's
//! [`QueryEnv::batch_rows`]. One outer tuple of an index or path join may
//! match many times, so under a `LIMIT` (`exec::build`'s `lazy` flag) its
//! outer is asked for one tuple per probe, and for the demand otherwise:
//! nothing is evaluated that a row-at-a-time executor would not have
//! reached before the query stopped. Laziness therefore still propagates
//! end to end (EDBT 2018 §5.1.2): a `LIMIT 1` over a path scan pulls one
//! path. A filter loops until it has a tuple or its child is exhausted, so
//! an operator never returns an empty batch.
//!
//! A batch carries **tuples, not gathered columns**. A table scan hands
//! out `&'e [Value]` straight from the chunk slot slices — the §3.2 tuple
//! pointer, dereferenced once and never cloned — and filters compact that
//! pointer list in place. Operators that compute new tuples (project, join
//! concatenation, aggregate and sort output, the graph operators) write
//! them into the batch's flat arena, which the consuming operator owns and
//! reuses call after call. Per input row the spine allocates nothing; the
//! result collector pays one allocation per *result* row.
//!
//! Batch buffers are bounded by the demand and are not charged to the
//! memory accountant. Retained state — the nested-loop build side, the
//! aggregation table, the sort buffer, the distinct set — is.

use std::cmp::Ordering;
use std::collections::HashMap;

use grfusion_common::value::GroupKey;
use grfusion_common::{DataType, Error, FoldState, Result, Row, RowId, Value};
use grfusion_graph::TopologyLayout;
use grfusion_storage::{Index, Table};

use crate::env::QueryEnv;
use crate::exec::MemTracker;
use crate::expr::{AggFunc, PhysExpr};
use crate::governor::row_bytes;
use crate::metrics::{GovCounters, GraphCounters};
use crate::plan::AggSpec;

/// Rows a consumer with no early stop asks for: large enough to amortize
/// the per-batch virtual call, small enough that the pointer list and the
/// arena stay cache-resident.
pub(crate) const BATCH_ROWS: usize = 1024;

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

/// A run of tuples handed from one operator to its consumer: either
/// pointers into storage that outlives the query, or computed tuples of
/// `width` values laid back to back in the arena — never both at once.
#[derive(Debug, Default)]
pub(crate) struct Batch<'e> {
    refs: Vec<&'e [Value]>,
    arena: Vec<Value>,
    width: usize,
    /// Tuples in the arena (counted, not derived, so zero-width tuples
    /// still count).
    owned: usize,
}

impl<'e> Batch<'e> {
    pub(crate) fn len(&self) -> usize {
        self.refs.len() + self.owned
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub(crate) fn tuple(&self, i: usize) -> &[Value] {
        match self.refs.get(i) {
            Some(t) => t,
            None => &self.arena[i * self.width..(i + 1) * self.width],
        }
    }

    /// Drop every tuple, keeping both buffers' capacity for the next fill.
    pub(crate) fn clear(&mut self) {
        self.refs.clear();
        self.arena.clear();
        self.owned = 0;
    }

    /// Empty the batch and declare the width of the computed tuples the
    /// caller is about to append.
    fn start(&mut self, width: usize) {
        self.clear();
        self.width = width;
    }

    /// Append the computed tuple `left ⊕ right`.
    fn push_concat(&mut self, left: &[Value], right: &[Value]) {
        self.arena.extend_from_slice(left);
        self.arena.extend_from_slice(right);
        self.owned += 1;
    }

    /// The one place row-at-a-time production meets the batch interface:
    /// `next(arena, remaining)` appends exactly one tuple of `width` values
    /// and returns `true`, or returns `false` when it has no more. At most
    /// `max_rows` tuples are pulled, so the producer does no work its
    /// consumer did not ask for.
    pub(crate) fn fill_rows(
        &mut self,
        width: usize,
        max_rows: usize,
        mut next: impl FnMut(&mut Vec<Value>, usize) -> Result<bool>,
    ) -> Result<bool> {
        self.start(width);
        while self.owned < max_rows && next(&mut self.arena, max_rows - self.owned)? {
            debug_assert_eq!(self.arena.len(), (self.owned + 1) * width);
            self.owned += 1;
        }
        Ok(self.owned > 0)
    }

    /// Keep only the tuples `keep` accepts, compacting in place: the
    /// pointer list for borrowed tuples, the arena for computed ones.
    fn retain(&mut self, mut keep: impl FnMut(&[Value]) -> Result<bool>) -> Result<()> {
        if self.owned == 0 {
            let mut kept = 0;
            for i in 0..self.refs.len() {
                let t = self.refs[i];
                if keep(t)? {
                    self.refs[kept] = t;
                    kept += 1;
                }
            }
            self.refs.truncate(kept);
        } else {
            let w = self.width;
            let mut kept = 0;
            for i in 0..self.owned {
                if keep(&self.arena[i * w..(i + 1) * w])? {
                    if kept != i {
                        for k in 0..w {
                            self.arena.swap(kept * w + k, i * w + k);
                        }
                    }
                    kept += 1;
                }
            }
            self.arena.truncate(kept * w);
            self.owned = kept;
        }
        Ok(())
    }
}

/// A pull-based operator. `next_batch` empties `out`, then fills it with
/// between 1 and `max_rows` tuples and returns `true`, or leaves it empty
/// and returns `false` once exhausted (and on every call after that).
pub(crate) trait Operator<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool>;

    /// Cumulative graph-traversal counters, for operators that walk the
    /// topology (`PathScan`/`PathJoin`). Relational operators return `None`.
    fn graph_stats(&self) -> Option<GraphCounters> {
        None
    }

    /// Paths a counting scan (`Emit::Count`) has folded into its one row:
    /// the cardinality `EXPLAIN ANALYZE` prints as `paths=`, and what the
    /// governor's per-row check clock advances by. `None` for every
    /// operator that emits what it enumerates.
    fn counted(&self) -> Option<u64> {
        None
    }

    /// Cumulative bytes this operator charged to the memory accountant and
    /// governor checks it performed itself. `None` when it does neither.
    fn governor_stats(&self) -> Option<GovCounters> {
        None
    }

    /// Topology layout this operator traverses (sealed CSR, delta overlay,
    /// or plain adjacency). `None` for relational operators.
    fn layout(&self) -> Option<TopologyLayout> {
        None
    }
}

pub(crate) type BoxOp<'e> = Box<dyn Operator<'e> + 'e>;

fn tracker_stats(tracker: &Option<MemTracker<'_>>) -> Option<GovCounters> {
    tracker.as_ref().map(|t| t.counters())
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// What every scan does with a candidate tuple: test the pushed filter,
/// then charge the governor's row cap for the tuple about to be emitted.
#[derive(Clone, Copy)]
pub(crate) struct Admit<'e> {
    pub(crate) filter: Option<&'e PhysExpr>,
    pub(crate) env: &'e QueryEnv<'e>,
}

impl Admit<'_> {
    #[inline]
    pub(crate) fn admit(&self, tuple: &[Value]) -> Result<bool> {
        if let Some(f) = self.filter {
            if !f.matches(tuple, self.env)? {
                return Ok(false);
            }
        }
        self.env.gov.charge_row()?;
        Ok(true)
    }
}

/// Table scan over the chunk slot slices: survivors of the pushed filter
/// leave as tuple pointers.
pub(crate) struct TableScan<'e> {
    chunks: Vec<&'e [Option<Row>]>,
    chunk: usize,
    slot: usize,
    admit: Admit<'e>,
}

impl<'e> TableScan<'e> {
    pub(crate) fn new(table: &'e Table, admit: Admit<'e>) -> Self {
        TableScan {
            chunks: table.chunk_slices().collect(),
            chunk: 0,
            slot: 0,
            admit,
        }
    }
}

impl<'e> Operator<'e> for TableScan<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.clear();
        'fill: while let Some(&chunk) = self.chunks.get(self.chunk) {
            for slot in &chunk[self.slot..] {
                if out.refs.len() == max_rows {
                    break 'fill;
                }
                self.slot += 1;
                if let Some(row) = slot {
                    if self.admit.admit(row)? {
                        out.refs.push(row);
                    }
                }
            }
            if self.slot == chunk.len() {
                self.chunk += 1;
                self.slot = 0;
            }
        }
        Ok(!out.is_empty())
    }
}

/// Point lookup through a hash index; the matching row ids are read in
/// place from the index entry.
pub(crate) struct IndexLookup<'e> {
    pub(crate) table: &'e Table,
    pub(crate) ids: std::slice::Iter<'e, RowId>,
    pub(crate) admit: Admit<'e>,
}

impl<'e> Operator<'e> for IndexLookup<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.clear();
        while out.refs.len() < max_rows {
            let Some(&id) = self.ids.next() else {
                break;
            };
            if let Some(row) = self.table.get(id) {
                if self.admit.admit(row)? {
                    out.refs.push(row);
                }
            }
        }
        Ok(!out.is_empty())
    }
}

// ---------------------------------------------------------------------------
// One-for-one or fewer: filter, project, limit, distinct
// ---------------------------------------------------------------------------

pub(crate) struct Filter<'e> {
    pub(crate) input: BoxOp<'e>,
    pub(crate) predicate: &'e PhysExpr,
    pub(crate) env: &'e QueryEnv<'e>,
}

impl<'e> Operator<'e> for Filter<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        while self.input.next_batch(out, max_rows)? {
            out.retain(|t| self.predicate.matches(t, self.env))?;
            if !out.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

pub(crate) struct Project<'e> {
    pub(crate) input: BoxOp<'e>,
    pub(crate) rows: Batch<'e>,
    pub(crate) exprs: &'e [PhysExpr],
    pub(crate) env: &'e QueryEnv<'e>,
}

impl<'e> Operator<'e> for Project<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.start(self.exprs.len());
        if !self.input.next_batch(&mut self.rows, max_rows)? {
            return Ok(false);
        }
        for i in 0..self.rows.len() {
            let t = self.rows.tuple(i);
            for e in self.exprs {
                // A bare operand is copied out of the tuple without a call
                // into `eval`, which costs more than the copy.
                let mut slot = None;
                let v = e.eval_ref(t, self.env, &mut slot)?;
                out.arena.push(v.clone()); // alloc-ok: the output value; a copy or a refcount bump
            }
        }
        out.owned = self.rows.len();
        Ok(true)
    }
}

pub(crate) struct Limit<'e> {
    pub(crate) input: BoxOp<'e>,
    pub(crate) remaining: u64,
}

impl<'e> Operator<'e> for Limit<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.clear();
        if self.remaining == 0 {
            return Ok(false);
        }
        let want = usize::try_from(self.remaining).map_or(max_rows, |r| r.min(max_rows));
        if !self.input.next_batch(out, want)? {
            self.remaining = 0;
            return Ok(false);
        }
        self.remaining = self.remaining.saturating_sub(out.len() as u64); // cast-ok: usize -> u64 widening
        Ok(true)
    }
}

/// Group numbers by key form, in first-seen order. The caller builds each
/// tuple's key in the reused `key` buffer; only a key seen for the first
/// time is copied into the table.
#[derive(Default)]
pub(crate) struct Groups {
    numbers: HashMap<Vec<GroupKey>, usize, FoldState>,
    key: Vec<GroupKey>,
}

impl Groups {
    /// The group `key` belongs to, and whether this is its first sighting.
    fn resolve(&mut self) -> (usize, bool) {
        if let Some(&group) = self.numbers.get(self.key.as_slice()) {
            return (group, false);
        }
        let group = self.numbers.len();
        self.numbers.insert(self.key.clone(), group);
        (group, true)
    }
}

/// Streaming duplicate elimination: a tuple passes the first time its
/// group-key form is seen.
pub(crate) struct Distinct<'e> {
    pub(crate) input: BoxOp<'e>,
    pub(crate) seen: Groups,
    pub(crate) tracker: Option<MemTracker<'e>>,
}

impl<'e> Operator<'e> for Distinct<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        while self.input.next_batch(out, max_rows)? {
            let (seen, tracker) = (&mut self.seen, &self.tracker);
            out.retain(|t| {
                seen.key.clear();
                seen.key.extend(t.iter().map(Value::group_key));
                let (_, first) = seen.resolve();
                // The seen-set retains (a key form of) every distinct row.
                if let (true, Some(tr)) = (first, tracker) {
                    tr.charge(row_bytes(t))?;
                }
                Ok(first)
            })?;
            if !out.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        tracker_stats(&self.tracker)
    }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

/// An input a join consumes one tuple at a time: the batch last pulled from
/// it and a position in that batch. Starts before the first tuple.
pub(crate) struct Cursor<'e> {
    input: BoxOp<'e>,
    rows: Batch<'e>,
    pos: usize,
    /// Refill with one tuple whatever the demand: the outer of an index or
    /// path join under a `LIMIT`. How many outer tuples the demand needs is
    /// unknown until they are probed, and one pulled ahead of need could
    /// fail in a filter the query would never have reached.
    one_at_a_time: bool,
}

impl<'e> Cursor<'e> {
    pub(crate) fn new(input: BoxOp<'e>, one_at_a_time: bool) -> Self {
        Cursor {
            input,
            rows: Batch::default(),
            pos: 0,
            one_at_a_time,
        }
    }

    /// Step to the next tuple, pulling up to `demand` more once the batch
    /// is used up. `false`: the input is exhausted.
    pub(crate) fn advance(&mut self, demand: usize) -> Result<bool> {
        self.pos += 1;
        if self.pos >= self.rows.len() {
            let demand = if self.one_at_a_time { 1 } else { demand };
            if !self.input.next_batch(&mut self.rows, demand)? {
                return Ok(false);
            }
            self.pos = 0;
        }
        Ok(true)
    }

    pub(crate) fn tuple(&self) -> &[Value] {
        self.rows.tuple(self.pos)
    }
}

/// Nested-loop join: the LEFT side is buffered, the RIGHT side is streamed
/// once. Output rows are `left ⊕ right` in right-major order. Keeping the
/// right side streamed preserves laziness when the right side is a path
/// scan (the common cross-model shape after the planner's reordering).
pub(crate) struct NestedLoopJoin<'e> {
    left: Option<BoxOp<'e>>,
    /// The build side, `left_width` values per row, back to back.
    left_rows: Vec<Value>,
    left_width: usize,
    left_count: usize,
    /// Build rows already joined with the current right row.
    left_pos: usize,
    right: Cursor<'e>,
    width: usize,
    /// The join condition, over the joined tuple.
    admit: Admit<'e>,
    tracker: Option<MemTracker<'e>>,
}

impl<'e> NestedLoopJoin<'e> {
    pub(crate) fn new(
        left: BoxOp<'e>,
        left_width: usize,
        right: BoxOp<'e>,
        width: usize,
        admit: Admit<'e>,
        tracker: Option<MemTracker<'e>>,
    ) -> Self {
        NestedLoopJoin {
            left: Some(left),
            left_rows: Vec::new(),
            left_width,
            left_count: 0,
            left_pos: 0,
            // Asked for the fewest rows the demand can take (see `next_batch`).
            right: Cursor::new(right, false),
            width,
            admit,
            tracker,
        }
    }

    fn build(&mut self, mut left: BoxOp<'e>) -> Result<()> {
        // The right cursor's batch is idle until the build side is complete.
        let rows = &mut self.right.rows;
        while left.next_batch(rows, self.admit.env.batch_rows)? {
            for i in 0..rows.len() {
                let t = rows.tuple(i);
                // The build side is retained for the whole join.
                if let Some(tr) = &self.tracker {
                    tr.charge(row_bytes(t))?;
                }
                self.left_rows.extend_from_slice(t);
            }
            self.left_count += rows.len();
        }
        // No right row yet: the first one is pulled on demand.
        self.left_pos = self.left_count;
        Ok(())
    }
}

impl<'e> Operator<'e> for NestedLoopJoin<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.start(self.width);
        if let Some(left) = self.left.take() {
            self.build(left)?;
        }
        if self.left_count == 0 {
            return Ok(false);
        }
        while out.owned < max_rows {
            if self.left_pos == self.left_count {
                // A right row yields at most `left_count` rows, so this many
                // are needed whatever the condition lets through.
                let want = (max_rows - out.owned).div_ceil(self.left_count);
                if !self.right.advance(want)? {
                    break;
                }
                self.left_pos = 0;
            }
            let right = self.right.tuple();
            while self.left_pos < self.left_count && out.owned < max_rows {
                let at = self.left_pos * self.left_width;
                self.left_pos += 1;
                let joined = out.arena.len();
                out.push_concat(&self.left_rows[at..at + self.left_width], right);
                if !self.admit.admit(&out.arena[joined..])? {
                    out.arena.truncate(joined);
                    out.owned -= 1;
                }
            }
        }
        Ok(out.owned > 0)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        tracker_stats(&self.tracker)
    }
}

/// Index nested-loop join: per outer row, probe the inner table's hash
/// index and emit outer ⊕ inner. The per-hop join of SQLGraph-style
/// relational traversal (§7.2's "one relational join per edge traversal").
pub(crate) struct IndexJoin<'e> {
    outer: Cursor<'e>,
    /// Unread matches of the outer row being probed.
    ids: std::slice::Iter<'e, RowId>,
    table: &'e Table,
    index: &'e Index,
    col_ty: DataType,
    key: &'e PhysExpr,
    /// The pushed filter, over the inner row alone.
    admit: Admit<'e>,
    width: usize,
}

impl<'e> IndexJoin<'e> {
    pub(crate) fn new(
        outer: BoxOp<'e>,
        table: &'e Table,
        index: &'e Index,
        key: &'e PhysExpr,
        admit: Admit<'e>,
        width: usize,
        lazy: bool,
    ) -> Self {
        IndexJoin {
            outer: Cursor::new(outer, lazy),
            ids: [].iter(),
            table,
            index,
            col_ty: table.schema().column(index.column()).data_type,
            key,
            admit,
            width,
        }
    }
}

impl<'e> Operator<'e> for IndexJoin<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.start(self.width);
        while out.owned < max_rows {
            let Some(&id) = self.ids.next() else {
                // The outer row is spent: probe with the next one.
                if !self.outer.advance(max_rows - out.owned)? {
                    break;
                }
                let mut slot = None;
                let key = self.key.eval_ref(self.outer.tuple(), self.admit.env, &mut slot)?;
                self.ids = match crate::exec::index_probe_key(key, self.col_ty) {
                    Some(k) => self.index.lookup(&k).iter(),
                    None => [].iter(),
                };
                continue;
            };
            if let Some(inner) = self.table.get(id) {
                if self.admit.admit(inner)? {
                    out.push_concat(self.outer.tuple(), inner);
                }
            }
        }
        Ok(out.owned > 0)
    }
}

// ---------------------------------------------------------------------------
// Sort
// ---------------------------------------------------------------------------

/// Full sort. The buffer holds `stride` values per input row — its sort
/// keys, then the row — back to back; sorting permutes row numbers.
pub(crate) struct Sort<'e> {
    input: Option<BoxOp<'e>>,
    keys: &'e [(PhysExpr, bool)],
    width: usize,
    buf: Vec<Value>,
    order: Vec<usize>,
    pos: usize,
    env: &'e QueryEnv<'e>,
    tracker: Option<MemTracker<'e>>,
}

impl<'e> Sort<'e> {
    pub(crate) fn new(
        input: BoxOp<'e>,
        keys: &'e [(PhysExpr, bool)],
        width: usize,
        env: &'e QueryEnv<'e>,
        tracker: Option<MemTracker<'e>>,
    ) -> Self {
        Sort {
            input: Some(input),
            keys,
            width,
            buf: Vec::new(),
            order: Vec::new(),
            pos: 0,
            env,
            tracker,
        }
    }

    fn stride(&self) -> usize {
        self.keys.len() + self.width
    }

    fn build(&mut self, mut input: BoxOp<'e>) -> Result<()> {
        let mut rows = Batch::default();
        let mut count = 0;
        while input.next_batch(&mut rows, self.env.batch_rows)? {
            for i in 0..rows.len() {
                let t = rows.tuple(i);
                let at = self.buf.len();
                for (e, _) in self.keys {
                    self.buf.push(e.eval(t, self.env)?);
                }
                // The sort buffer holds every input row plus its key.
                if let Some(tr) = &self.tracker {
                    tr.charge(row_bytes(t) + row_bytes(&self.buf[at..]))?;
                }
                self.buf.extend_from_slice(t);
            }
            count += rows.len();
        }
        let (stride, keys, buf) = (self.stride(), self.keys, &self.buf);
        self.order = (0..count).collect();
        self.order.sort_by(|&a, &b| {
            for (i, (_, asc)) in keys.iter().enumerate() {
                let ord = cmp_values_nulls_last(&buf[a * stride + i], &buf[b * stride + i]);
                let ord = if *asc { ord } else { ord.reverse() };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        Ok(())
    }
}

impl<'e> Operator<'e> for Sort<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.start(self.width);
        if let Some(input) = self.input.take() {
            self.build(input)?;
        }
        let stride = self.stride();
        let end = self.order.len().min(self.pos + max_rows);
        for &row in &self.order[self.pos..end] {
            let at = row * stride + self.keys.len();
            out.arena.extend_from_slice(&self.buf[at..at + self.width]);
        }
        out.owned = end - self.pos;
        self.pos = end;
        Ok(out.owned > 0)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        tracker_stats(&self.tracker)
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
    count: i64,
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
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0.0,
            isum: 0,
            sum_is_int: true,
            min: None,
            max: None,
        }
    }

    /// Fold one argument value into the state `func` will finish from.
    fn update(&mut self, func: AggFunc, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        match func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                if let Ok(d) = v.as_double() {
                    self.sum += d;
                    if let Value::Integer(i) = v {
                        self.isum += i128::from(*i);
                    } else {
                        self.sum_is_int = false;
                    }
                }
            }
            AggFunc::Min => {
                if self
                    .min
                    .as_ref()
                    .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Less))
                {
                    self.min = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self
                    .max
                    .as_ref()
                    .is_none_or(|m| v.sql_cmp(m) == Some(Ordering::Greater))
                {
                    self.max = Some(v.clone());
                }
            }
        }
    }

    fn finish(&self, func: AggFunc) -> Result<Value> {
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
                    Value::Double(crate::expr::integer_avg(self.isum, i128::from(self.count)))
                } else {
                    Value::Double(self.sum / self.count as f64) // cast-ok: a row count, exact below 2^53
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        })
    }
}

/// Hash aggregation. Output = group columns then aggregate columns, one
/// row per group in first-seen order.
pub(crate) struct Aggregate<'e> {
    input: Option<BoxOp<'e>>,
    group_exprs: &'e [PhysExpr],
    aggs: &'e [AggSpec],
    /// Finished output rows, `width` values each, back to back.
    output: Vec<Value>,
    width: usize,
    rows: usize,
    pos: usize,
    env: &'e QueryEnv<'e>,
    tracker: Option<MemTracker<'e>>,
}

impl<'e> Aggregate<'e> {
    pub(crate) fn new(
        input: BoxOp<'e>,
        group_exprs: &'e [PhysExpr],
        aggs: &'e [AggSpec],
        env: &'e QueryEnv<'e>,
        tracker: Option<MemTracker<'e>>,
    ) -> Self {
        Aggregate {
            input: Some(input),
            group_exprs,
            aggs,
            output: Vec::new(),
            width: group_exprs.len() + aggs.len(),
            rows: 0,
            pos: 0,
            env,
            tracker,
        }
    }

    fn build(&mut self, mut input: BoxOp<'e>) -> Result<()> {
        let (ng, na) = (self.group_exprs.len(), self.aggs.len());
        // The groups' key values and aggregation states sit in first-seen
        // order, `ng` and `na` per group.
        let mut groups = Groups::default();
        let mut key_vals: Vec<Value> = Vec::new();
        let mut states: Vec<AggState> = Vec::new();
        let mut rows = Batch::default();
        while input.next_batch(&mut rows, self.env.batch_rows)? {
            for i in 0..rows.len() {
                let t = rows.tuple(i);
                let (group, first) = if ng == 0 {
                    // No GROUP BY: every row folds into group 0, no key to hash.
                    (0, states.is_empty())
                } else {
                    groups.key.clear();
                    for g in self.group_exprs {
                        let mut slot = None;
                        groups.key.push(g.eval_ref(t, self.env, &mut slot)?.group_key());
                    }
                    groups.resolve()
                };
                if first {
                    let at = key_vals.len();
                    for g in self.group_exprs {
                        key_vals.push(g.eval(t, self.env)?);
                    }
                    // Each new group adds its key values plus one
                    // aggregation state per aggregate to the table.
                    if let Some(tr) = &self.tracker {
                        tr.charge(
                            row_bytes(&key_vals[at..])
                                + (na * std::mem::size_of::<AggState>()) as u64, // cast-ok: usize -> u64 widening
                        )?;
                    }
                    states.resize(states.len() + na, AggState::new());
                }
                for (spec, state) in self.aggs.iter().zip(&mut states[group * na..]) {
                    match &spec.arg {
                        // COUNT(*)
                        None => state.count += 1,
                        Some(e) => {
                            let mut slot = None;
                            state.update(spec.func, e.eval_ref(t, self.env, &mut slot)?);
                        }
                    }
                }
            }
        }
        self.rows = groups.numbers.len();
        if ng == 0 {
            // One global row, of defaults over an empty input.
            states.resize(na, AggState::new());
            self.rows = 1;
        }
        let mut key_vals = key_vals.into_iter();
        for group in 0..self.rows {
            self.output.extend(key_vals.by_ref().take(ng));
            for (spec, state) in self.aggs.iter().zip(&states[group * na..]) {
                self.output.push(state.finish(spec.func)?);
            }
        }
        Ok(())
    }
}

impl<'e> Operator<'e> for Aggregate<'e> {
    fn next_batch(&mut self, out: &mut Batch<'e>, max_rows: usize) -> Result<bool> {
        out.start(self.width);
        if let Some(input) = self.input.take() {
            self.build(input)?;
        }
        let end = self.rows.min(self.pos + max_rows);
        out.arena
            .extend_from_slice(&self.output[self.pos * self.width..end * self.width]);
        out.owned = end - self.pos;
        self.pos = end;
        Ok(out.owned > 0)
    }

    fn governor_stats(&self) -> Option<GovCounters> {
        tracker_stats(&self.tracker)
    }
}

#[cfg(test)]
mod tests;
