//! Workspace-wide error type.
//!
//! A single error enum keeps the `Result` plumbing between the SQL layer,
//! the storage layer, the graph layer, and the executor uniform. Variants
//! are grouped by the layer that raises them; all carry human-readable
//! context because the public API surfaces them directly to callers.

use std::fmt;

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type shared by every GRFusion crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Lexer/parser failure with position information.
    Parse(String),
    /// Name resolution / semantic analysis failure (unknown table, column,
    /// graph view, ambiguous reference, arity mismatch, ...).
    Analysis(String),
    /// Planner or optimizer failure (unsupported construct, contradictory
    /// path-length constraints, ...).
    Plan(String),
    /// Runtime failure inside the executor (type mismatch discovered at
    /// evaluation time, division by zero, ...).
    Execution(String),
    /// Catalog violation: duplicate object, missing object.
    Catalog(String),
    /// Storage-level violation: unique constraint, referential integrity,
    /// dangling row id.
    Constraint(String),
    /// Transaction handling misuse (nested begin, commit without begin, ...).
    Transaction(String),
    /// A resource budget was exceeded: the row budget, the memory
    /// accountant, the wall-clock deadline, or an external cancellation.
    /// The benchmark harness uses this to reproduce the paper's "SQLGraph
    /// exceeds temp-memory at depth > 4 on Twitter" DNF rows (EDBT 2018
    /// §7.2); the resource governor raises it for deadline/memory/cancel
    /// aborts. `spent`/`limit` are in the `kind`'s unit (rows, bytes, or
    /// milliseconds; a cancellation has no limit and reports `limit: 0`).
    ResourceExhausted {
        kind: ResourceKind,
        spent: u64,
        limit: u64,
    },
    /// The server shed this request before executing it: a per-tenant
    /// quota or the global in-flight cap is saturated. Retryable by
    /// contract — the client should back off at least `retry_after_ms`
    /// before resubmitting. Shedding at admission (instead of queueing
    /// unboundedly) is what keeps server memory flat under overload.
    Overloaded { retry_after_ms: u64 },
    /// The server is draining for shutdown and refuses new work. The
    /// in-flight queries it already admitted still finish (until the
    /// drain deadline); retry against another server or later.
    ShuttingDown,
    /// The peer violated the wire protocol (torn/truncated frame,
    /// oversized length prefix, garbage tenant id, unknown frame type).
    /// Fatal: retrying the same bytes cannot succeed.
    Protocol(String),
    /// The transport failed mid-conversation (connection refused/reset,
    /// EOF inside a frame). The request's outcome is unknown; retryable
    /// over a fresh connection for idempotent work.
    Unavailable(String),
}

/// Which budget a [`Error::ResourceExhausted`] abort tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Intermediate-result row cap (`GovernorConfig::max_intermediate_rows`).
    Rows,
    /// Memory accountant byte cap (path/sort/aggregation/join buffers).
    Bytes,
    /// Wall-clock query deadline, in milliseconds.
    Deadline,
    /// Cooperative cancellation through the query's cancel token.
    Cancelled,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::Rows => "rows",
            ResourceKind::Bytes => "bytes",
            ResourceKind::Deadline => "deadline",
            ResourceKind::Cancelled => "cancelled",
        })
    }
}

impl Error {
    /// Shorthand constructors keep call sites terse.
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse(msg.into())
    }
    pub fn analysis(msg: impl Into<String>) -> Self {
        Error::Analysis(msg.into())
    }
    pub fn plan(msg: impl Into<String>) -> Self {
        Error::Plan(msg.into())
    }
    pub fn execution(msg: impl Into<String>) -> Self {
        Error::Execution(msg.into())
    }
    pub fn catalog(msg: impl Into<String>) -> Self {
        Error::Catalog(msg.into())
    }
    pub fn constraint(msg: impl Into<String>) -> Self {
        Error::Constraint(msg.into())
    }
    pub fn transaction(msg: impl Into<String>) -> Self {
        Error::Transaction(msg.into())
    }
    pub fn resource(kind: ResourceKind, spent: u64, limit: u64) -> Self {
        Error::ResourceExhausted { kind, spent, limit }
    }
    pub fn overloaded(retry_after_ms: u64) -> Self {
        Error::Overloaded { retry_after_ms }
    }
    pub fn protocol(msg: impl Into<String>) -> Self {
        Error::Protocol(msg.into())
    }
    pub fn unavailable(msg: impl Into<String>) -> Self {
        Error::Unavailable(msg.into())
    }

    /// The wire contract's retryable-vs-fatal split. Retryable errors are
    /// *about the server's current state*, not about the request: the same
    /// request can succeed later (after backoff) or elsewhere. Everything
    /// else — malformed SQL, constraint violations, exhausted per-query
    /// budgets, protocol violations — is deterministic for the request and
    /// retrying it verbatim is wasted load.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            Error::Overloaded { .. } | Error::ShuttingDown | Error::Unavailable(_)
        )
    }

    /// Convert a panic payload (as returned by `std::panic::catch_unwind`
    /// or `JoinHandle::join`) into a clean execution error, preserving the
    /// panic message when it is a string. The server contains a panicking
    /// statement with this so its client gets one typed `Err` instead of
    /// a torn-down connection.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Error::Execution(format!("panicked: {msg}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::Analysis(m) => write!(f, "analysis error: {m}"),
            Error::Plan(m) => write!(f, "plan error: {m}"),
            Error::Execution(m) => write!(f, "execution error: {m}"),
            Error::Catalog(m) => write!(f, "catalog error: {m}"),
            Error::Constraint(m) => write!(f, "constraint violation: {m}"),
            Error::Transaction(m) => write!(f, "transaction error: {m}"),
            Error::ResourceExhausted { kind, spent, limit } => match kind {
                ResourceKind::Deadline => write!(
                    f,
                    "resource exhausted: deadline of {limit}ms exceeded after {spent}ms"
                ),
                ResourceKind::Cancelled => {
                    write!(f, "resource exhausted: query cancelled after {spent}ms")
                }
                _ => write!(
                    f,
                    "resource exhausted: {kind} budget of {limit} exceeded (spent {spent})"
                ),
            },
            Error::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: retry after {retry_after_ms}ms")
            }
            Error::ShuttingDown => f.write_str("shutting down: server is draining"),
            Error::Protocol(m) => write!(f, "protocol error: {m}"),
            Error::Unavailable(m) => write!(f, "unavailable: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = Error::parse("unexpected token `)` at 1:17");
        assert_eq!(e.to_string(), "parse error: unexpected token `)` at 1:17");
        let e = Error::resource(ResourceKind::Rows, 1001, 1000);
        assert_eq!(
            e.to_string(),
            "resource exhausted: rows budget of 1000 exceeded (spent 1001)"
        );
        let e = Error::resource(ResourceKind::Deadline, 250, 100);
        assert_eq!(
            e.to_string(),
            "resource exhausted: deadline of 100ms exceeded after 250ms"
        );
        let e = Error::resource(ResourceKind::Cancelled, 42, 0);
        assert!(e.to_string().contains("cancelled after 42ms"));
    }

    #[test]
    fn retryable_split_matches_wire_contract() {
        assert!(Error::overloaded(25).is_retryable());
        assert!(Error::ShuttingDown.is_retryable());
        assert!(Error::unavailable("connection reset").is_retryable());
        assert!(!Error::protocol("oversized frame").is_retryable());
        assert!(!Error::parse("x").is_retryable());
        assert!(!Error::constraint("dup").is_retryable());
        assert!(!Error::resource(ResourceKind::Deadline, 10, 5).is_retryable());
        assert!(!Error::resource(ResourceKind::Cancelled, 1, 0).is_retryable());
        assert_eq!(
            Error::overloaded(25).to_string(),
            "overloaded: retry after 25ms"
        );
        assert_eq!(
            Error::ShuttingDown.to_string(),
            "shutting down: server is draining"
        );
        assert!(Error::protocol("bad tenant").to_string().contains("bad tenant"));
        assert!(Error::unavailable("eof").to_string().starts_with("unavailable"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::catalog("x"), Error::catalog("x"));
        assert_ne!(Error::catalog("x"), Error::analysis("x"));
    }

    #[test]
    fn panic_payloads_become_execution_errors() {
        let p = std::panic::catch_unwind(|| panic!("statement 3 exploded")).unwrap_err();
        let e = Error::from_panic(p);
        assert!(matches!(&e, Error::Execution(m) if m.contains("statement 3 exploded")));

        let p = std::panic::catch_unwind(|| panic!("{} bad slots", 7)).unwrap_err();
        assert!(Error::from_panic(p).to_string().contains("7 bad slots"));

        let p = std::panic::catch_unwind(|| std::panic::panic_any(42u32)).unwrap_err();
        assert!(Error::from_panic(p).to_string().contains("non-string"));
    }
}
