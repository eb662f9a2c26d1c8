//! Epoch-published snapshot isolation (MVCC-lite).
//!
//! The engine's writer stays strictly serial (the H-Store model the paper
//! builds on), but with epoch publication enabled every *committed*
//! statement publishes an immutable [`Epoch`]: copy-on-write snapshots of
//! all relational tables plus every graph view's topology (sealed CSR
//! arrays shared by `Arc`, delta overlay copied), behind an
//! atomically-swapped `Arc<Epoch>`. Reader threads pin the current epoch
//! with one `Arc` clone and run whole queries against it without taking
//! any lock the writer holds; a superseded epoch is reclaimed when its
//! last reader drops the pin.
//!
//! The publication point is [`EpochHub`]: one mutex over the current
//! epoch, the registry of weak handles and the engine's settings — rank 1
//! of the engine's two-lock order, after the writer's `DbInner`.
//!
//! Lifecycle: seal → publish → overlay → re-seal → reclaim. The writer
//! builds the next delta inside the existing savepoint + fault-site
//! machinery (`dml.seal` faults and governor pre-charges still abort the
//! statement, which then publishes nothing), so every published epoch is
//! exactly the state after some committed statement prefix — a rolled-back
//! statement is never visible to any reader.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use grfusion_common::{Error, Result};
use grfusion_graph::GraphTopology;
use grfusion_storage::Table;
use crate::lockorder::{LockClass, OrderedMutex};

use crate::config::EngineConfig;
use crate::governor::{CancelToken, ExecContext, FaultState};
use crate::graph_view::GraphViewDef;
use crate::planner::PlannerCtx;
use crate::snapshot::Snapshot;

/// One graph view inside an epoch: the definition plus an immutable
/// topology snapshot (sealed CSR shared with the live topology by `Arc`;
/// the delta overlay and id maps are copies).
#[derive(Debug)]
pub(crate) struct EpochView {
    pub def: GraphViewDef,
    pub topo: Arc<GraphTopology>,
}

/// An immutable snapshot of everything a query can observe, published
/// after a committed statement. Tables and topologies are the very same
/// types the writer holds live, so a [`Snapshot`] binds either source and
/// the whole planner/executor stack runs over it unchanged.
pub(crate) struct Epoch {
    /// Monotonically increasing publication number (0 = the epoch
    /// published at construction / enablement).
    pub number: u64,
    /// Lowercase table name → frozen table snapshot.
    pub tables: HashMap<String, Arc<Table>>,
    /// Lowercase graph-view name → frozen view snapshot.
    pub views: HashMap<String, EpochView>,
    /// Planner context matching this epoch's catalog (schemas and graph
    /// metadata only change on DDL, which always publishes a fresh one).
    pub plan_ctx: Arc<PlannerCtx>,
    /// Approximate resident bytes this epoch keeps alive while pinned.
    pub bytes: usize,
}

/// A caller-held pin on one published epoch. While the handle lives, the
/// epoch — its table snapshots and sealed topology — stays resident no
/// matter how many times the writer re-seals and republishes; dropping the
/// last handle reclaims it. This is the same pin a read holds for its own
/// duration, exposed so tests and external snapshot consumers can hold a
/// snapshot across statements.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    pub(crate) ep: Arc<Epoch>,
}

impl EpochSnapshot {
    /// The pinned epoch's publication number.
    pub fn number(&self) -> u64 {
        self.ep.number
    }

    /// Approximate bytes this pin keeps resident.
    pub fn bytes(&self) -> usize {
        self.ep.bytes
    }

    /// Dump the pinned epoch's full logical state — byte-identical to what
    /// `Database::state_dump` produced when this epoch was current.
    pub fn state_dump(&self) -> String {
        Snapshot::pinned(&self.ep).state_dump()
    }
}

impl std::fmt::Debug for Epoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Epoch")
            .field("number", &self.number)
            .field("tables", &self.tables.len())
            .field("views", &self.views.len())
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// The engine's settings — the one copy. It lives behind the `EpochHub`
/// mutex rather than inside the writer's so that epoch readers never take
/// the writer's; the writer reads it there too (`DbInner → EpochHub` is in
/// lock order). Each read and each DML statement clones it once, so a
/// setter takes effect on the next statement.
#[derive(Clone)]
pub(crate) struct Settings {
    pub config: EngineConfig,
    /// Cancellation token, created lazily the first time a caller asks for
    /// one. While no token has been handed out, queries run with no cancel
    /// flag at all, so the governor stays inactive (zero overhead) unless a
    /// deadline or memory cap is also configured.
    pub cancel: Option<CancelToken>,
    /// Fault-injection state shared by all statements (hit counters persist
    /// across statements so a retried statement runs past a spent rule).
    pub faults: Option<Arc<FaultState>>,
    /// A malformed `GRFUSION_FAULTS` value, surfaced on first use rather
    /// than silently disabling the sweep.
    pub faults_err: Option<String>,
    /// A malformed `GRFUSION_*` engine knob (deadline, reseal, ...),
    /// surfaced on the first statement rather than silently degrading to
    /// defaults. Cleared by `set_config` (an explicit config supersedes
    /// whatever the environment asked for).
    pub env_err: Option<String>,
    /// Rows per batch (`spine::BATCH_ROWS` unless a test swept it).
    pub batch_rows: usize,
}

impl Settings {
    /// Build the per-statement resource governor from the config plus the
    /// database-level cancel token (armed from now, so a past cancel never
    /// bleeds into this statement), the calling thread's ambient request
    /// scope, and the fault plan.
    pub fn exec_context(&self) -> Result<ExecContext> {
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

/// Everything the hub's one mutex guards.
struct HubState {
    settings: Settings,
    current: Option<Arc<Epoch>>,
    /// Weak handles to every published epoch, for live-epoch accounting.
    registry: Vec<Weak<Epoch>>,
}

/// The publication point and the settings, behind one tiny mutex (lock →
/// clone → unlock; the writer swaps, readers pin). `enabled` and `txn_open`
/// are atomics so that a read on the default engine (epochs off) learns it
/// must take the writer's lock without taking this one first.
pub(crate) struct EpochHub {
    state: OrderedMutex<HubState>,
    next: AtomicU64,
    enabled: AtomicBool,
    /// An explicit transaction is open: reads must go down the locked path
    /// so they observe their own uncommitted writes.
    txn_open: AtomicBool,
}

impl EpochHub {
    pub fn new(settings: Settings, enabled: bool) -> EpochHub {
        EpochHub {
            state: OrderedMutex::new(
                LockClass::EpochHub,
                HubState {
                    settings,
                    current: None,
                    registry: Vec::new(),
                },
            ),
            next: AtomicU64::new(0),
            enabled: AtomicBool::new(enabled),
            txn_open: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Flip publication on/off. Turning it off drops the current epoch
    /// (readers already holding a pin finish undisturbed).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
        if !on {
            self.state.lock().current = None;
        }
    }

    pub fn set_txn_open(&self, open: bool) {
        self.txn_open.store(open, Ordering::Release);
    }

    /// Pin the current epoch for a read and copy the settings it runs
    /// under, in one acquisition — if reads should route through epochs
    /// right now (publication enabled, an epoch exists, and no explicit
    /// transaction is open).
    pub fn pin(&self) -> Option<(Arc<Epoch>, Settings)> {
        if !self.enabled() || self.txn_open.load(Ordering::Acquire) {
            return None;
        }
        let state = self.state.lock();
        Some((state.current.clone()?, state.settings.clone()))
    }

    /// Number of the current epoch, if one is published.
    pub fn current_number(&self) -> Option<u64> {
        self.current_arc().map(|e| e.number)
    }

    /// The current epoch regardless of transaction state — used by the
    /// writer to reuse clean table/view `Arc`s when publishing the next
    /// epoch (unlike [`EpochHub::pin`], which gates on `txn_open`).
    pub fn current_arc(&self) -> Option<Arc<Epoch>> {
        self.state.lock().current.clone()
    }

    /// Publish a new epoch: assign its number, swap it in as current, and
    /// register a weak handle for reclamation accounting.
    pub fn install(
        &self,
        tables: HashMap<String, Arc<Table>>,
        views: HashMap<String, EpochView>,
        plan_ctx: Arc<PlannerCtx>,
        bytes: usize,
    ) -> Arc<Epoch> {
        let ep = Arc::new(Epoch {
            number: self.next.fetch_add(1, Ordering::AcqRel),
            tables,
            views,
            plan_ctx,
            bytes,
        });
        let mut state = self.state.lock();
        state.registry.retain(|w| w.strong_count() > 0);
        state.registry.push(Arc::downgrade(&ep));
        state.current = Some(ep.clone());
        ep
    }

    /// `(live epochs, retained bytes)`: how many published epochs are
    /// still alive (current included) and how many bytes superseded ones
    /// — kept alive only by reader pins — still hold. Retained bytes
    /// return to 0 once every old reader has dropped.
    pub fn live_stats(&self) -> (usize, usize) {
        let mut state = self.state.lock();
        let current = state.current.as_ref().map(|e| e.number);
        state.registry.retain(|w| w.strong_count() > 0);
        let mut live = 0usize;
        let mut retained = 0usize;
        for ep in state.registry.iter().filter_map(Weak::upgrade) {
            live += 1;
            if Some(ep.number) != current {
                retained += ep.bytes;
            }
        }
        (live, retained)
    }

    /// Change the settings (takes effect on the next statement).
    pub fn update_settings<T>(&self, f: impl FnOnce(&mut Settings) -> T) -> T {
        f(&mut self.state.lock().settings)
    }

    /// The settings as of now.
    pub fn settings(&self) -> Settings {
        self.state.lock().settings.clone()
    }
}

/// The dirty set of one committed statement: lowercase names of tables and
/// graph views it touched. `None` means "treat everything as dirty" (DDL,
/// commit/rollback of a whole transaction).
pub(crate) type DirtySet<'a> = Option<(&'a HashSet<String>, &'a HashSet<String>)>;
