//! Per-query resource governor and deterministic fault injection.
//!
//! The paper is explicit that unbounded path enumeration is combinatorially
//! explosive (EDBT 2018 §6.1 motivates length inference with exactly that
//! risk). Every condition a statement can be aborted on lives in the one
//! [`ExecContext`] created per statement from `EngineConfig.governor`, the
//! database's cancel token, the caller's request scope and the fault plan:
//!
//! * a **row cap** (`max_intermediate_rows`): the paper's §7.2 temp-memory
//!   exhaustion, charged by [`ExecContext::charge_row`] at emission;
//! * a **wall-clock deadline** (`deadline_ms`; `grfusion-serve
//!   --deadline-ms`, harness `--deadline-ms`), for the hostile query that
//!   pins a thread without producing rows;
//! * a **cooperative cancellation token** ([`CancelToken`]) an external
//!   thread can trip mid-query;
//! * a **memory accountant** charging estimated bytes for path
//!   materialization, aggregation hash tables, sort buffers, and join
//!   builds against `max_memory_bytes`;
//! * the **fault plan**, whose sites a DML statement reaches through
//!   [`ExecContext::fault`].
//!
//! Cancellation is *cooperative*, not preemptive: operators and traversal
//! filters poll [`ExecContext::check_now`] at periodic checkpoints (every
//! [`OP_CHECK_INTERVAL`] rows an operator hands up, every
//! [`EXPANSION_CHECK_INTERVAL`] vertex/edge expansions inside traversal
//! loops, every DML fault site). Preempting a thread mid-mutation could
//! leave shared state half-written; polling at safe points guarantees the
//! abort path is an ordinary `Err` that unwinds through the same
//! all-or-nothing rollback machinery as any other error — storage, indexes,
//! and every `GraphTopology` stay untouched.
//!
//! The **deterministic fault-injection plan** (`<seed>:<spec>`, installed
//! with `Database::set_fault_plan` or `grfusion-serve --faults`) is a list
//! of rules, each matching a site name by prefix and firing on an exact
//! hit count, so tests can drive an error (or simulated allocation failure
//! / deadline expiry) into a chosen operator `next()` call or DML
//! maintenance step and prove the crash-consistency invariants hold.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use grfusion_common::{Error, PathData, ResourceKind, Result, Value};

use crate::config::GovernorConfig;

/// Operators poll the governor every this many rows they hand up (plus
/// once on exhaustion, so a truncated stream can never read as a clean
/// end-of-stream).
pub const OP_CHECK_INTERVAL: u64 = 64;

/// Traversal filters poll the governor every this many vertex/edge
/// expansions — the guard that catches a traversal spinning without
/// emitting rows.
pub const EXPANSION_CHECK_INTERVAL: u64 = 256;

/// External cancellation handle for in-flight queries. Cloneable; all
/// clones share one generation counter.
///
/// Cancellation is **edge-triggered**, not sticky: [`CancelToken::cancel`]
/// bumps a generation, and a query aborts iff a bump happened after its
/// own [`CancelWatch`] was armed. A database-level token (see
/// `Database::cancel_token`) arms each query's watch at query start, so
/// cancelling trips every query in flight *at that moment* — a fresh
/// query issued afterwards runs to completion with no `reset()` dance.
/// That is exactly the multiplexed-connection contract the network
/// front-end needs: one client's disconnect must never bleed into the
/// next pooled query. A *per-request* token (`RequestOptions::cancel`)
/// instead arms its watch at generation zero, so a cancel that lands
/// while the request is still queued is not lost.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicU64>);

impl CancelToken {
    /// Request cancellation of the queries currently watching this token.
    /// Cooperative: each aborts at its next checkpoint with
    /// `Error::ResourceExhausted { kind: Cancelled, .. }`.
    pub fn cancel(&self) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether [`CancelToken::cancel`] has ever fired on this token.
    /// Meaningful for per-request tokens (which are born fresh); a
    /// database-level token accumulates generations across its lifetime.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire) > 0
    }

    /// A watch tripped only by cancels *after* this call — the
    /// database-level arming point (queries already running get
    /// cancelled; later queries don't inherit the cancel).
    pub(crate) fn watch_from_now(&self) -> CancelWatch {
        CancelWatch {
            gen: self.0.clone(),
            armed_below: self.0.load(Ordering::Acquire),
        }
    }

    /// A watch tripped by *any* cancel on this token, ever — the
    /// per-request arming point (a disconnect while the request sits in
    /// the server's queue must still abort it when it runs).
    pub(crate) fn watch_any(&self) -> CancelWatch {
        CancelWatch {
            gen: self.0.clone(),
            armed_below: 0,
        }
    }
}

/// One query's view of a [`CancelToken`]: fires when the token's
/// generation exceeds the value captured at arming time.
#[derive(Debug, Clone)]
pub struct CancelWatch {
    gen: Arc<AtomicU64>,
    armed_below: u64,
}

impl CancelWatch {
    #[inline]
    pub(crate) fn fired(&self) -> bool {
        self.gen.load(Ordering::Relaxed) > self.armed_below
    }
}

// ---------------------------------------------------------------------------
// Ambient request scope
// ---------------------------------------------------------------------------

/// Per-request execution options a front-end attaches to a statement:
/// a wall-clock deadline (combined with — never exceeding — the engine's
/// configured governor deadline) and a per-request cancel token (tripped
/// by client disconnect).
#[derive(Debug, Clone, Default)]
pub struct RequestOptions {
    /// Remaining wall-clock budget for this request, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Cancel token dedicated to this request (armed from generation 0:
    /// a cancel that lands before execution starts still aborts it).
    pub cancel: Option<CancelToken>,
}

/// The active request scope, established by [`enter_request`]. The
/// deadline is stored as an absolute instant so nested statement work
/// (subquery folding re-enters the executor) consumes one shared budget
/// instead of restarting the clock.
#[derive(Debug, Clone)]
pub(crate) struct RequestScope {
    pub deadline: Option<Instant>,
    pub cancel: Option<CancelToken>,
}

thread_local! {
    /// Statement execution is synchronous on the calling thread, so an
    /// ambient thread-local carries the request scope into every
    /// `ExecContext` construction — including subquery folds — without
    /// threading a parameter through each planner/executor layer.
    static REQUEST: std::cell::RefCell<Option<RequestScope>> =
        const { std::cell::RefCell::new(None) };
}

/// Install `opts` as the calling thread's request scope until the guard
/// drops. Nested scopes stack (inner restores outer on drop).
pub fn enter_request(opts: &RequestOptions) -> RequestGuard {
    let scope = RequestScope {
        deadline: opts
            .deadline_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
        cancel: opts.cancel.clone(),
    };
    let prev = REQUEST.with(|r| r.borrow_mut().replace(scope));
    RequestGuard { prev }
}

/// RAII guard restoring the previous request scope.
pub struct RequestGuard {
    prev: Option<RequestScope>,
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        REQUEST.with(|r| *r.borrow_mut() = self.prev.take());
    }
}

fn current_request() -> Option<RequestScope> {
    REQUEST.with(|r| r.borrow().clone())
}

/// Per-query governor state, carried by `QueryEnv` into every operator of
/// the one thread that runs the query. Only the cancel watches are shared
/// with other threads (they trip the token); the row counter and the
/// memory accountant are `Cell`s.
#[derive(Debug)]
pub struct ExecContext {
    started: Instant,
    deadline: Option<Instant>,
    deadline_ms: u64,
    cancel: Vec<CancelWatch>,
    row_cap: Option<u64>,
    rows: Cell<u64>,
    mem_cap: Option<u64>,
    mem_used: Cell<u64>,
    faults: Option<Arc<FaultState>>,
}

impl Default for ExecContext {
    /// An unlimited context (no deadline, no cap, no cancel token): the
    /// zero-enforcement configuration used by internal evaluation paths.
    fn default() -> Self {
        ExecContext::new(&GovernorConfig::default(), Vec::new(), None)
    }
}

impl ExecContext {
    pub fn new(
        cfg: &GovernorConfig,
        cancel: Vec<CancelWatch>,
        faults: Option<Arc<FaultState>>,
    ) -> Self {
        let started = Instant::now();
        ExecContext {
            started,
            deadline: cfg
                .deadline_ms
                .map(|ms| started + std::time::Duration::from_millis(ms)),
            deadline_ms: cfg.deadline_ms.unwrap_or(0),
            cancel,
            row_cap: cfg.max_intermediate_rows,
            rows: Cell::new(0),
            mem_cap: cfg.max_memory_bytes,
            mem_used: Cell::new(0),
            faults,
        }
    }

    /// The per-statement constructor: combines the engine's configured
    /// governor with the database-level cancel token (armed from *now*, so
    /// a past cancel never bleeds into this query) and the calling
    /// thread's ambient request scope, if a front-end installed one — the
    /// request deadline tightens (never loosens) the configured one, and
    /// the per-request token is armed from generation zero.
    pub(crate) fn for_query(
        cfg: &GovernorConfig,
        db_cancel: Option<&CancelToken>,
        faults: Option<Arc<FaultState>>,
    ) -> Self {
        let mut watches = Vec::new();
        if let Some(t) = db_cancel {
            watches.push(t.watch_from_now());
        }
        let mut effective = *cfg;
        if let Some(scope) = current_request() {
            if let Some(t) = &scope.cancel {
                watches.push(t.watch_any());
            }
            if let Some(d) = scope.deadline {
                let now = Instant::now();
                let remaining_ms = d.saturating_duration_since(now).as_millis() as u64;
                effective.deadline_ms = Some(match effective.deadline_ms {
                    Some(cfg_ms) => cfg_ms.min(remaining_ms),
                    None => remaining_ms,
                });
            }
        }
        ExecContext::new(&effective, watches, faults)
    }

    /// Whether a deadline, a cancel token or a byte cap is armed. When
    /// false the executor skips its governor polls and byte estimates
    /// entirely, keeping the default path zero-cost. The row cap is not
    /// polled — [`ExecContext::charge_row`] enforces it where rows leave.
    pub fn active(&self) -> bool {
        self.deadline.is_some() || !self.cancel.is_empty() || self.mem_cap.is_some()
    }

    /// The query's batch size: `batch_rows`, or one row when something
    /// counts rows as they are *pulled* — the row cap or a fault plan — so
    /// every operator hands over exactly the row its consumer is about to
    /// use: the same operators, asked for one.
    pub(crate) fn demand(&self, batch_rows: usize) -> usize {
        if self.row_cap.is_some() || self.faults.is_some() {
            1
        } else {
            batch_rows
        }
    }

    /// Milliseconds since the query started.
    pub fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Poll the cancellation token and the deadline. Deadline expiry is
    /// monotone and cancellation is sticky, so once this errs it errs on
    /// every later call — engine code can re-check at a coarser site to
    /// surface the same abort.
    pub fn check_now(&self) -> Result<()> {
        for watch in &self.cancel {
            if watch.fired() {
                return Err(Error::resource(
                    ResourceKind::Cancelled,
                    self.elapsed_ms(),
                    0,
                ));
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(Error::resource(
                    ResourceKind::Deadline,
                    self.elapsed_ms(),
                    self.deadline_ms,
                ));
            }
        }
        Ok(())
    }

    /// Charge `n` bytes against the memory cap. Without a cap this is
    /// free. Accounting is charge-only (a high-water estimate of
    /// materialized bytes): the buffers being charged — path buffers,
    /// sort/aggregation/join builds — live until the query ends anyway.
    pub fn charge_bytes(&self, n: u64) -> Result<()> {
        let Some(cap) = self.mem_cap else {
            return Ok(());
        };
        let total = self.mem_used.get() + n;
        self.mem_used.set(total);
        if total > cap {
            return Err(Error::resource(ResourceKind::Bytes, total, cap));
        }
        Ok(())
    }

    /// Charge one emitted row against the row cap: scans and joins call it
    /// at *emission*, never during enumeration, so a `LIMIT 1` query charges
    /// one scan row however many paths its traversal stepped over. Without
    /// a cap this is free.
    #[inline]
    pub fn charge_row(&self) -> Result<()> {
        let Some(cap) = self.row_cap else {
            return Ok(());
        };
        let total = self.rows.get() + 1;
        self.rows.set(total);
        if total > cap {
            return Err(Error::resource(ResourceKind::Rows, total, cap));
        }
        Ok(())
    }

    /// The active fault plan, if any.
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_deref()
    }

    /// A DML abort point: poll the deadline and the cancel tokens, then hit
    /// the named fault-injection site (see [`DML_FAULT_SITES`]). Sites sit
    /// at every maintenance step, which is exactly the granularity at which
    /// a statement can safely abort and roll back.
    #[inline]
    pub(crate) fn fault(&self, site: &str) -> Result<()> {
        if self.active() {
            self.check_now()?;
        }
        match &self.faults {
            Some(f) => f.hit(site),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Byte estimators
// ---------------------------------------------------------------------------

/// Fixed part of a materialized path's byte estimate. Pinned, not
/// `size_of::<PathData>()`, so the estimate a scan charges stays the same
/// when the struct's layout changes.
const PATH_HEADER_BYTES: usize = 80;

/// Estimated resident bytes of one materialized path: a fixed header plus
/// its id vectors and view-name string. Deterministic, so tests can
/// predict exactly what a scan charges.
pub fn path_bytes(p: &PathData) -> u64 {
    path_bytes_at(p.graph_view.len(), p.length())
}

/// [`path_bytes`] of a path of `length` edges over a view whose name has
/// `view_name_len` bytes — what a scan that counts paths without
/// materializing them charges for each.
pub fn path_bytes_at(view_name_len: usize, length: usize) -> u64 {
    (PATH_HEADER_BYTES + view_name_len + (2 * length + 1) * std::mem::size_of::<i64>()) as u64
}

/// Estimated resident bytes of one value (inline enum + owned heap).
pub fn value_bytes(v: &Value) -> u64 {
    let heap = match v {
        Value::Text(s) => s.len() as u64,
        Value::Path(p) => path_bytes(p),
        _ => 0,
    };
    std::mem::size_of::<Value>() as u64 + heap
}

/// Estimated resident bytes of one row.
pub fn row_bytes(row: &[Value]) -> u64 {
    row.iter().map(value_bytes).sum()
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// What an injected fault simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A plain execution error at the site.
    Error,
    /// An allocation failure (`ResourceExhausted { kind: Bytes, .. }`).
    Alloc,
    /// Deadline expiry (`ResourceExhausted { kind: Deadline, .. }`).
    Deadline,
}

/// One injection rule: fire `kind` on the `nth` hit of any site whose name
/// starts with `site`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    pub site: String,
    pub nth: u64,
    pub kind: FaultKind,
}

/// A parsed fault-injection plan. Syntax:
/// `<seed>:<site>[@<n>]=<error|alloc|deadline>[,...]` — e.g.
/// `7:dml.update.relink=error,PathScan@3=alloc`. A rule without `@<n>`
/// fires on a seed-derived hit count (deterministic per `(seed, site)`),
/// which is what the fault-sweep battery iterates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// One rule firing on the exact `nth` hit of `site` (test convenience).
    pub fn single(site: &str, nth: u64, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            seed: 0,
            rules: vec![FaultRule {
                site: site.to_string(),
                nth,
                kind,
            }],
        }
    }

    /// Parse the plan syntax.
    pub fn parse(spec: &str) -> Result<FaultPlan> {
        let bad = |why: &str| Error::analysis(format!("invalid fault plan `{spec}`: {why}"));
        let (seed_s, rules_s) = spec
            .split_once(':')
            .ok_or_else(|| bad("expected `<seed>:<rules>`"))?;
        let seed: u64 = seed_s
            .trim()
            .parse()
            .map_err(|_| bad("seed is not an integer"))?;
        let mut rules = Vec::new();
        for part in rules_s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site_part, kind_s) = part
                .split_once('=')
                .ok_or_else(|| bad("rule needs `site=kind`"))?;
            let kind = match kind_s.trim().to_ascii_lowercase().as_str() {
                "error" => FaultKind::Error,
                "alloc" => FaultKind::Alloc,
                "deadline" => FaultKind::Deadline,
                _ => return Err(bad("kind must be error|alloc|deadline")),
            };
            let (site, nth) = match site_part.split_once('@') {
                Some((s, n)) => match n.trim().parse::<u64>() {
                    Ok(0) => return Err(bad("`@n` must be at least 1")),
                    Ok(n) => (s.trim().to_string(), n),
                    Err(_) => return Err(bad("`@n` is not an integer")),
                },
                None => {
                    let s = site_part.trim().to_string();
                    let n = seeded_nth(seed, &s);
                    (s, n)
                }
            };
            if site.is_empty() {
                return Err(bad("empty site pattern"));
            }
            rules.push(FaultRule { site, nth, kind });
        }
        if rules.is_empty() {
            return Err(bad("no rules"));
        }
        Ok(FaultPlan { seed, rules })
    }
}

/// Seed-derived hit count for rules without an explicit `@n`: a small
/// deterministic function of `(seed, site)` in `1..=4` so sweeping seeds
/// moves the injection point around without any test-side bookkeeping.
fn seeded_nth(seed: u64, site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // xorshift finisher so nearby seeds decorrelate.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    1 + (h % 4)
}

/// Runtime state of a fault plan: the rules plus one atomic hit counter
/// per rule, shared across statements so "retry after the fault" naturally
/// succeeds (the rule has already fired).
#[derive(Debug)]
pub struct FaultState {
    rules: Vec<(FaultRule, AtomicU64)>,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            rules: plan
                .rules
                .into_iter()
                .map(|r| (r, AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Record one hit of `site` against every matching rule; returns the
    /// injected error when a rule's hit count lands exactly on its `nth`.
    pub fn hit(&self, site: &str) -> Result<()> {
        for (rule, count) in &self.rules {
            if !site.starts_with(rule.site.as_str()) {
                continue;
            }
            let n = count.fetch_add(1, Ordering::Relaxed) + 1;
            if n == rule.nth {
                return Err(match rule.kind {
                    FaultKind::Error => Error::execution(format!(
                        "injected fault at `{site}` (hit {n})"
                    )),
                    FaultKind::Alloc => Error::resource(ResourceKind::Bytes, n, 0),
                    FaultKind::Deadline => Error::resource(ResourceKind::Deadline, n, 0),
                });
            }
        }
        Ok(())
    }

    /// Reset all hit counters (re-arm the plan).
    pub fn reset(&self) {
        for (_, count) in &self.rules {
            count.store(0, Ordering::Relaxed);
        }
    }
}

/// Every DML fault-injection site, in statement-execution order. The
/// robustness battery iterates this list; keep it in sync with the
/// `fault(..)` calls in `dml.rs`.
pub const DML_FAULT_SITES: &[&str] = &[
    "dml.insert.row",
    "dml.insert.maintain",
    "dml.insert.post",
    "dml.delete.maintain",
    "dml.delete.storage",
    "dml.delete.post",
    "dml.update.maintain",
    "dml.update.relink",
    "dml.update.cascade",
    "dml.update.storage",
    "dml.update.post",
    "dml.seal",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_and_errors() -> Result<()> {
        let p = FaultPlan::parse("7:dml.update.relink=error,PathScan@3=alloc")?;
        assert_eq!(p.seed, 7);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].site, "dml.update.relink");
        assert_eq!(p.rules[0].kind, FaultKind::Error);
        assert_eq!(p.rules[1].nth, 3);
        assert_eq!(p.rules[1].kind, FaultKind::Alloc);
        // Seed-derived nth is deterministic and in range.
        let a = FaultPlan::parse("9:x=deadline")?;
        let b = FaultPlan::parse("9:x=deadline")?;
        assert_eq!(a.rules[0].nth, b.rules[0].nth);
        assert!((1..=4).contains(&a.rules[0].nth));
        for (spec, why) in [
            ("nonsense", "expected `<seed>:<rules>`"),
            ("1:", "no rules"),
            ("1:a=b", "kind must be error|alloc|deadline"),
            ("1:@2=error", "empty site pattern"),
            ("1:x@0=error", "`@n` must be at least 1"),
        ] {
            let e = FaultPlan::parse(spec).unwrap_err().to_string();
            assert!(
                e.contains(&format!("invalid fault plan `{spec}`: {why}")),
                "{e}"
            );
        }
        Ok(())
    }

    #[test]
    fn fault_state_fires_exactly_once() {
        let st = FaultState::new(FaultPlan::single("site.a", 2, FaultKind::Error));
        assert!(st.hit("site.a").is_ok());
        assert!(st.hit("site.b").is_ok()); // no prefix match
        assert!(st.hit("site.a.sub").is_err()); // 2nd matching hit fires
        assert!(st.hit("site.a").is_ok()); // spent
        st.reset();
        assert!(st.hit("site.a").is_ok());
        assert!(st.hit("site.a").is_err());
    }

    #[test]
    fn context_guards() {
        let ctx = ExecContext::default();
        assert!(!ctx.active());
        assert!(ctx.check_now().is_ok());
        assert!(ctx.charge_bytes(u64::MAX / 2).is_ok()); // uncapped: free
        assert!(ctx.charge_row().is_ok()); // uncapped: free

        let cfg = GovernorConfig {
            max_intermediate_rows: None,
            deadline_ms: None,
            max_memory_bytes: Some(100),
        };
        let ctx = ExecContext::new(&cfg, Vec::new(), None);
        assert!(ctx.active());
        assert!(ctx.charge_bytes(60).is_ok());
        let err = ctx.charge_bytes(60);
        assert!(
            matches!(
                err,
                Err(Error::ResourceExhausted {
                    kind: ResourceKind::Bytes,
                    spent: 120,
                    limit: 100,
                })
            ),
            "{err:?}"
        );

        let token = CancelToken::default();
        let ctx = ExecContext::new(
            &GovernorConfig::default(),
            vec![token.watch_from_now()],
            None,
        );
        assert!(ctx.active());
        assert!(ctx.check_now().is_ok());
        token.cancel();
        assert!(matches!(
            ctx.check_now(),
            Err(Error::ResourceExhausted {
                kind: ResourceKind::Cancelled,
                ..
            })
        ));

        let cfg = GovernorConfig {
            max_intermediate_rows: None,
            deadline_ms: Some(0),
            max_memory_bytes: None,
        };
        let ctx = ExecContext::new(&cfg, Vec::new(), None);
        assert!(matches!(
            ctx.check_now(),
            Err(Error::ResourceExhausted {
                kind: ResourceKind::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn row_cap_is_charged_not_polled() {
        let cfg = GovernorConfig {
            max_intermediate_rows: Some(2),
            ..GovernorConfig::default()
        };
        let ctx = ExecContext::new(&cfg, Vec::new(), None);
        // Nothing to poll: the cap bites where rows are emitted, and it
        // makes every demand one row.
        assert!(!ctx.active());
        assert_eq!(ctx.demand(1024), 1);
        assert!(ctx.charge_row().is_ok() && ctx.charge_row().is_ok());
        assert_eq!(
            ctx.charge_row(),
            Err(Error::resource(ResourceKind::Rows, 3, 2))
        );
        assert_eq!(ExecContext::default().demand(1024), 1024);
    }

    #[test]
    fn dml_fault_point_polls_then_hits() {
        // No plan, no guard: every site passes.
        assert!(ExecContext::default().fault("dml.insert.row").is_ok());

        // The plan's rule fires on its hit and counts only matching sites.
        let plan = FaultState::new(FaultPlan::single("dml.update", 2, FaultKind::Error));
        let ctx = ExecContext::new(&GovernorConfig::default(), Vec::new(), Some(Arc::new(plan)));
        assert_eq!(ctx.demand(1024), 1);
        assert!(ctx.fault("dml.update.maintain").is_ok());
        assert!(ctx.fault("dml.insert.row").is_ok());
        let err = ctx.fault("dml.update.relink").unwrap_err().to_string();
        assert!(
            err.contains("injected fault at `dml.update.relink` (hit 2)"),
            "{err}"
        );

        // A cancel is polled before the site is hit: the abort is the
        // governor's, and the plan's first hit is still to come.
        let plan = Arc::new(FaultState::new(FaultPlan::single(
            "dml",
            1,
            FaultKind::Error,
        )));
        let token = CancelToken::default();
        let watch = vec![token.watch_from_now()];
        let ctx = ExecContext::new(&GovernorConfig::default(), watch, Some(plan.clone()));
        token.cancel();
        let err = ctx.fault("dml.update.storage");
        assert!(matches!(
            err,
            Err(Error::ResourceExhausted {
                kind: ResourceKind::Cancelled,
                ..
            })
        ));
        let ctx = ExecContext::new(&GovernorConfig::default(), Vec::new(), Some(plan));
        let err = ctx.fault("dml.update.storage").unwrap_err().to_string();
        assert!(err.contains("(hit 1)"), "{err}");
    }

    #[test]
    fn cancel_does_not_bleed_into_later_queries() {
        // Database-level arming (`watch_from_now`): a cancel trips only
        // contexts armed before it; a context armed after runs clean.
        let token = CancelToken::default();
        let in_flight = ExecContext::new(
            &GovernorConfig::default(),
            vec![token.watch_from_now()],
            None,
        );
        token.cancel();
        assert!(in_flight.check_now().is_err());
        let next = ExecContext::new(
            &GovernorConfig::default(),
            vec![token.watch_from_now()],
            None,
        );
        assert!(next.check_now().is_ok(), "cancel bled into a later query");

        // Per-request arming (`watch_any`): a cancel that happened while
        // the request sat in a queue still aborts it once it runs.
        let req = CancelToken::default();
        req.cancel();
        assert!(req.is_cancelled());
        let queued = ExecContext::new(&GovernorConfig::default(), vec![req.watch_any()], None);
        assert!(queued.check_now().is_err(), "queued-cancel was lost");
    }

    #[test]
    fn request_scope_tightens_deadline_and_arms_token() {
        let opts = RequestOptions {
            deadline_ms: Some(10_000),
            cancel: Some(CancelToken::default()),
        };
        {
            let _g = enter_request(&opts);
            // Configured deadline is tighter: it wins.
            let cfg = GovernorConfig {
                max_intermediate_rows: None,
                deadline_ms: Some(5),
                max_memory_bytes: None,
            };
            let ctx = ExecContext::for_query(&cfg, None, None);
            assert!(ctx.active());
            assert!(ctx.deadline_ms <= 5);
            // No configured deadline: the request's budget applies.
            let ctx = ExecContext::for_query(&GovernorConfig::default(), None, None);
            assert!(ctx.deadline.is_some());
            assert!(ctx.check_now().is_ok());
            opts.cancel.as_ref().unwrap().cancel();
            assert!(ctx.check_now().is_err(), "request token not armed");
        }
        // Scope dropped: contexts stop seeing the request.
        let ctx = ExecContext::for_query(&GovernorConfig::default(), None, None);
        assert!(!ctx.active());
    }

    #[test]
    fn byte_estimators_are_deterministic() {
        let p = PathData::from_ids("g".into(), vec![1, 2, 3, 10, 11], 0.0);
        let expect = (80 + 1 + 3 * 8 + 2 * 8) as u64;
        assert_eq!(path_bytes(&p), expect);
        assert_eq!(
            value_bytes(&Value::Path(std::sync::Arc::new(p))),
            std::mem::size_of::<Value>() as u64 + expect
        );
        assert_eq!(
            row_bytes(&[Value::Integer(1), Value::text("ab")]),
            2 * std::mem::size_of::<Value>() as u64 + 2
        );
    }
}
