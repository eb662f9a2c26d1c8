//! Hardened network front-end for GRFusion.
//!
//! A std-only TCP server (no async runtime, no external crates — the
//! registry is offline) speaking a length-prefixed binary protocol, each
//! connection's thread running its own statements over blocking I/O,
//! designed around the failure modes a serving layer actually meets:
//!
//! * **Admission control** ([`tenant`]): every query passes per-tenant
//!   concurrency and queued-bytes quotas plus a global in-flight cap;
//!   saturation sheds immediately with a typed, retryable
//!   `Error::Overloaded { retry_after_ms }` instead of queueing without
//!   bound. Server memory stays flat no matter how hard one tenant pushes,
//!   and the global cap is the one ceiling on concurrency in the engine.
//! * **Deadline & cancel propagation** ([`server`]): a deadline in the
//!   `Query` frame header tightens the engine governor's budget; a client
//!   that disconnects mid-query trips a per-request cancel token so the
//!   engine stops at its next checkpoint. Graceful shutdown drains
//!   in-flight work under a deadline, then cancels the rest. A statement
//!   that panics answers a typed non-retryable error and costs only its
//!   own connection.
//! * **Hostile-input framing** ([`wire`]): length prefixes are capped
//!   before allocation, payloads decode through a bounds-checked cursor,
//!   and forged element counts are rejected against the bytes actually
//!   present — malformed frames are typed `Error::Protocol` values, never
//!   panics.
//! * **Connection-fault injection**: the engine's fault plan extends
//!   to `net.accept`, `net.read_frame`, `net.write_frame`,
//!   `net.slow_client`, and `net.disconnect` sites, deterministic and
//!   hit-counted like the engine's DML sites.
//!
//! The `grfusion-serve` binary wraps [`Server`] with strictly validated CLI
//! flags (the engine's deadline, memory cap and fault plan among them) and
//! SIGTERM-triggered graceful drain.

pub mod client;
pub mod server;
pub mod tenant;
pub mod wire;

pub use client::{Client, Response};
pub use server::{Server, ServerConfig, ServerHandle};
pub use tenant::{Permit, TenantQuota, TenantRegistry, TenantStats};
pub use wire::{Frame, MAX_FRAME_BYTES, MAX_TENANT_LEN};
