//! The engine's settings — the one copy.
//!
//! They live behind their own small mutex in `Database` (lock class
//! `Settings`, rank 1, after the writer's `DbInner`) rather than inside the
//! writer's state, so a setter or `cancel_token()` never waits behind a
//! running statement. Each read and each DML statement clones them once, so
//! a setter takes effect on the next statement. Every setting arrives
//! through `Database::with_config` or a setter; none is read from the
//! process environment.

use std::sync::Arc;

use crate::config::EngineConfig;
use crate::governor::{CancelToken, ExecContext, FaultState};

/// What a statement runs under, besides the data it reads.
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
    /// Rows per batch (`spine::BATCH_ROWS` unless a test swept it).
    pub batch_rows: usize,
}

impl Settings {
    /// Build the per-statement resource governor from the config plus the
    /// database-level cancel token (armed from now, so a past cancel never
    /// bleeds into this statement), the calling thread's ambient request
    /// scope, and the fault plan.
    pub fn exec_context(&self) -> ExecContext {
        ExecContext::for_query(&self.config.governor, self.cancel.as_ref(), self.faults.clone())
    }
}
