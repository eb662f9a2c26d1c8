//! The hardened network front-end: an acceptor, one thread per connection
//! that runs its own statements, and one disconnect watcher, over one
//! shared [`Database`].
//!
//! Threading model (std-only, no async, nothing polls a socket to wait):
//!
//! * **Acceptor** — one thread blocked in `accept`; every accepted socket
//!   gets its own connection thread and an entry in the watch list (a
//!   `try_clone` of the socket, the connection's in-flight slot, its join
//!   handle).
//! * **Connection threads** — run the handshake (`Hello` → tenant
//!   validation → `HelloAck`), then a request loop over blocking I/O: read
//!   a `Query` frame, pass admission control, call
//!   [`Database::execute_script_with_request`] *on this thread*, write the
//!   response. Admission control is the one concurrency ceiling on the
//!   engine; there is no queue and no hand-off between frame decode and
//!   the engine call.
//! * **Watcher** — one thread sweeping the watch list every [`SWEEP`]. A
//!   request still in flight at its second sweep has its socket peeked: a
//!   client that hung up mid-query trips the per-request cancel token, so
//!   its work stops at the engine's next checkpoint instead of running to
//!   completion for nobody. The same sweep joins connection threads that
//!   have finished.
//!
//! Shutdown is a drain state machine: set `draining` (new queries are
//! refused with [`Error::ShuttingDown`]), wait up to `drain_deadline_ms`
//! for in-flight queries to finish, cancel whatever is left through the
//! database's cancel token, then wake every blocked thread through its
//! socket — a self-connect for the acceptor, `shutdown(Read)` on the watch
//! list for idle connections — and join them all.
//!
//! Fault injection: [`ServerConfig::faults`] extends the engine's fault
//! plan to the network layer with `net.*` sites (`net.accept`, `net.read_frame`,
//! `net.write_frame`, `net.slow_client`, `net.disconnect`), hit-counted
//! server-wide through the same deterministic [`FaultState`] machinery the
//! engine uses for DML sites.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use grfusion::{CancelToken, Database, FaultPlan, FaultState, RequestOptions};
use grfusion_common::{Error, Result};

use crate::tenant::{TenantQuota, TenantRegistry, TenantStats};
use crate::wire::{self, Frame};

/// Cadence of the watcher's sweep, of the drain's in-flight check, and the
/// back-off after a failed `accept`. A hang-up during a running statement
/// is noticed within two sweeps.
const SWEEP: Duration = Duration::from_millis(10);

/// How long shutdown lets a connection finish writing a response it
/// already owes before cutting the socket's write half too.
const FLUSH_GRACE: Duration = Duration::from_millis(250);

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; `grfusion-serve` maps its CLI flags onto this.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (the bound address is
    /// reported by [`ServerHandle::addr`]).
    pub addr: String,
    /// Per-tenant admission quotas.
    pub quota: TenantQuota,
    /// Global in-flight cap across all tenants: statements executing
    /// concurrently inside the engine.
    pub global_in_flight: usize,
    /// `retry_after_ms` hint carried by admission sheds.
    pub retry_after_ms: u64,
    /// How long graceful shutdown waits for in-flight queries before
    /// cancelling them.
    pub drain_deadline_ms: u64,
    /// Stall injected by the `net.slow_client` fault site.
    pub slow_client_ms: u64,
    /// Network fault plan (`net.*` sites); `None` means no network faults.
    pub faults: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            quota: TenantQuota::default(),
            global_in_flight: 8,
            retry_after_ms: 25,
            drain_deadline_ms: 2_000,
            slow_client_ms: 50,
            faults: None,
        }
    }
}

impl ServerConfig {
    /// Refuse an admission limit of 0, which would shed every statement,
    /// naming the field that holds it.
    fn check(&self) -> Result<()> {
        let limits = [
            ("global_in_flight", self.global_in_flight),
            ("quota.max_concurrent", self.quota.max_concurrent),
            ("quota.max_queued_bytes", self.quota.max_queued_bytes),
        ];
        match limits.iter().find(|(_, n)| *n == 0) {
            Some((field, _)) => Err(Error::analysis(format!(
                "invalid server config: `{field}` is 0, must be at least 1"
            ))),
            None => Ok(()),
        }
    }
}

/// The request a connection is running right now.
struct InFlight {
    token: CancelToken,
    /// Already in flight at the previous sweep: only then is the socket
    /// peeked, so a microsecond statement never costs a syscall.
    swept: bool,
}

/// A connection's in-flight slot: set and cleared around the engine call,
/// never held across it. While it is `Some` the owner is inside the engine,
/// not in `read` or `write`, so whoever holds the lock may touch the
/// socket.
type Slot = Mutex<Option<InFlight>>;

/// One watch-list entry.
struct Conn {
    /// `try_clone` of the connection's socket: what the watcher peeks and
    /// shutdown uses to wake the owner out of a blocking `read`.
    stream: TcpStream,
    slot: Arc<Slot>,
    thread: JoinHandle<()>,
}

/// The watch list and every slot guard single assignments and pushes, so
/// the data behind a poisoned lock is still valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by the acceptor, the watcher and every connection thread.
struct Shared {
    db: Arc<Database>,
    /// Database-wide cancel token, materialized before the first query so
    /// every served request watches it; the drain's last resort.
    db_cancel: CancelToken,
    registry: Arc<TenantRegistry>,
    faults: Option<Arc<FaultState>>,
    cfg: ServerConfig,
    /// Draining: new queries are refused with `ShuttingDown`.
    draining: AtomicBool,
    /// Stopped: the acceptor and the watcher exit at their next wake-up.
    stopped: AtomicBool,
    /// Set when a client sends a `Shutdown` frame; the embedding binary
    /// polls this and runs the drain.
    shutdown_requested: AtomicBool,
    /// Every connection whose thread has not been joined yet. A leaf lock,
    /// like the slots: never held across an engine call.
    conns: Mutex<Vec<Conn>>,
}

impl Shared {
    /// Fire a network fault site; `true` means the planned fault landed on
    /// this hit and the caller should act it out.
    fn net_fault(&self, site: &str) -> bool {
        match &self.faults {
            Some(f) => f.hit(site).is_err(),
            None => false,
        }
    }
}

/// A running server. Dropping the handle performs a graceful shutdown.
pub struct Server;

impl Server {
    /// Bind, spawn the acceptor and the watcher, and return the handle.
    /// A configuration with a zero admission limit is refused before
    /// anything binds.
    pub fn start(db: Arc<Database>, cfg: ServerConfig) -> Result<ServerHandle> {
        cfg.check()?;
        let faults = cfg.faults.clone().map(|p| Arc::new(FaultState::new(p)));
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| Error::unavailable(format!("bind {}: {e}", cfg.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::unavailable(format!("local_addr: {e}")))?;

        let registry = Arc::new(TenantRegistry::new(
            cfg.quota,
            cfg.global_in_flight,
            cfg.retry_after_ms,
        ));
        // Materialize the database-wide cancel token *before* serving: the
        // token is created lazily and only queries issued after it exists
        // watch it, so a drain must not be the first caller.
        let db_cancel = db.cancel_token();
        let shared = Arc::new(Shared {
            db,
            db_cancel,
            registry,
            faults,
            cfg,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });

        let mut handle = ServerHandle {
            addr,
            shared: shared.clone(),
            acceptor: None,
            watcher: None,
        };
        // An early return drops `handle`, which stops whatever did start.
        let watched = shared.clone();
        handle.watcher = Some(spawn("grfusion-watcher", move || watcher_loop(&watched))?);
        handle.acceptor = Some(spawn("grfusion-acceptor", move || {
            acceptor_loop(listener, &shared)
        })?);
        Ok(handle)
    }
}

fn spawn(name: &str, body: impl FnOnce() + Send + 'static) -> Result<JoinHandle<()>> {
    thread::Builder::new()
        .name(name.to_string())
        .spawn(body)
        .map_err(|e| Error::unavailable(format!("spawn {name}: {e}")))
}

/// Handle to a running server: address, stats, and graceful shutdown.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    /// `None` once shut down.
    watcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Per-tenant admission counters.
    pub fn stats(&self) -> Vec<TenantStats> {
        self.shared.registry.stats()
    }

    /// True once a client has sent a `Shutdown` frame; the embedding
    /// binary polls this and calls [`ServerHandle::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful shutdown: refuse new queries, drain in-flight work for up
    /// to `drain_deadline_ms`, cancel stragglers through the database's
    /// cancel token, then wake and join every thread the server started.
    /// Returns the final per-tenant counters, statements that finished
    /// during the drain included.
    pub fn shutdown(mut self) -> Vec<TenantStats> {
        self.shutdown_impl()
    }

    fn shutdown_impl(&mut self) -> Vec<TenantStats> {
        let shared = &self.shared;
        let Some(watcher) = self.watcher.take() else {
            return shared.registry.stats();
        };
        shared.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_millis(shared.cfg.drain_deadline_ms);
        while shared.registry.total_in_flight() > 0 && Instant::now() < deadline {
            thread::sleep(SWEEP);
        }
        if shared.registry.total_in_flight() > 0 {
            // Drain deadline expired: in-flight queries abort at their next
            // checkpoint with a typed cancellation error.
            shared.db_cancel.cancel();
        }
        shared.stopped.store(true, Ordering::Release);
        // The acceptor is blocked in `accept`; a connection to ourselves
        // wakes it. Should that fail it stays blocked, so it is not joined.
        if let Some(acceptor) = self.acceptor.take() {
            if TcpStream::connect(self.addr).is_ok() {
                let _ = acceptor.join();
            }
        }
        watcher.thread().unpark();
        let _ = watcher.join();
        // With the acceptor and the watcher gone the list is final. Closing
        // the read half wakes every connection blocked in `read` with EOF
        // and leaves the write half to a straggler that still owes its
        // client the typed cancellation; one stuck writing to a client that
        // stopped reading is cut off after the grace.
        let conns = std::mem::take(&mut *lock(&shared.conns));
        for c in &conns {
            let _ = c.stream.shutdown(Shutdown::Read);
        }
        let cutoff = Instant::now() + FLUSH_GRACE;
        for c in conns {
            while !c.thread.is_finished() && Instant::now() < cutoff {
                thread::sleep(Duration::from_millis(1));
            }
            let _ = c.stream.shutdown(Shutdown::Both);
            let _ = c.thread.join();
        }
        shared.registry.stats()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut conn_id: u64 = 0;
    loop {
        let accepted = listener.accept();
        if shared.stopped.load(Ordering::Acquire) {
            return;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                // A failing `accept` (descriptor exhaustion, a handshake
                // aborted in the backlog) must not spin.
                thread::sleep(SWEEP);
                continue;
            }
        };
        if shared.net_fault("net.accept") {
            // Injected accept failure: drop the connection on the floor;
            // the client sees EOF during handshake.
            continue;
        }
        // A socket that cannot be watched cannot be woken at shutdown.
        let Ok(watched) = stream.try_clone() else {
            continue;
        };
        conn_id += 1;
        let slot = Arc::new(Slot::default());
        let (s, own_slot) = (shared.clone(), slot.clone());
        if let Ok(thread) = spawn(&format!("grfusion-conn-{conn_id}"), move || {
            connection_loop(stream, &own_slot, &s)
        }) {
            lock(&shared.conns).push(Conn {
                stream: watched,
                slot,
                thread,
            });
        }
    }
}

/// Sweep the watch list every [`SWEEP`]: join the connections that have
/// finished, and cancel the request of every client that hung up while its
/// statement was running.
fn watcher_loop(shared: &Shared) {
    while !shared.stopped.load(Ordering::Acquire) {
        thread::park_timeout(SWEEP);
        let mut conns = lock(&shared.conns);
        let mut i = 0;
        while i < conns.len() {
            if conns[i].thread.is_finished() {
                // Dropping the entry closes the last handle on its socket.
                let _ = conns.swap_remove(i).thread.join();
                continue;
            }
            if let Some(request) = lock(&conns[i].slot).as_mut() {
                if !request.swept {
                    request.swept = true;
                } else if hung_up(&conns[i].stream) {
                    request.token.cancel();
                }
            }
            i += 1;
        }
    }
}

/// Whether the peer has closed or reset the connection. A pipelined next
/// request (bytes waiting) is not a hang-up. The socket's nonblocking flag
/// is shared with the owner's handle, so the caller holds the connection's
/// slot lock with a request in it: the owner is then inside the engine,
/// not in `read` or `write`.
fn hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let peeked = stream.peek(&mut [0u8; 1]);
    let _ = stream.set_nonblocking(false);
    match peeked {
        Ok(n) => n == 0,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    }
}

/// Run one statement with a panic contained at the request boundary: the
/// `Err` is the typed, non-retryable answer its client gets.
fn contain_panic<T>(statement: impl FnOnce() -> T) -> std::result::Result<T, Error> {
    catch_unwind(AssertUnwindSafe(statement)).map_err(|payload| match Error::from_panic(payload) {
        Error::Execution(what) => Error::Execution(format!("internal error: {what}")),
        other => other,
    })
}

/// Write a response frame, acting out the `net.write_frame` fault: on a
/// planned hit only half the frame is written before the connection is
/// torn down, which the client surfaces as a retryable `Unavailable`.
fn write_response(stream: &mut TcpStream, frame: &Frame, shared: &Shared) -> Result<()> {
    if shared.net_fault("net.write_frame") {
        let bytes = wire::encode_frame(frame);
        let half = bytes.len() / 2;
        let _ = stream.write_all(&bytes[..half]);
        let _ = stream.flush();
        return Err(Error::unavailable("injected torn write"));
    }
    wire::write_frame(stream, frame)
}

fn write_error(stream: &mut TcpStream, id: u64, error: Error, shared: &Shared) -> Result<()> {
    write_response(stream, &Frame::Err { id, error }, shared)
}

fn connection_loop(mut stream: TcpStream, slot: &Slot, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    serve(&mut stream, slot, shared);
    // The watch list holds a clone of this socket until the next sweep;
    // close both directions now so the peer sees EOF without waiting for it.
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve(stream: &mut TcpStream, slot: &Slot, shared: &Shared) {
    // Handshake: exactly one Hello, answered with HelloAck. Tenant ids are
    // validated at decode; anything else on a fresh connection is a
    // protocol error.
    let tenant = match wire::read_frame(stream) {
        Ok(Some(Frame::Hello { tenant })) => tenant,
        Ok(Some(_)) => {
            let error = Error::protocol("expected Hello as the first frame");
            let _ = write_error(stream, 0, error, shared);
            return;
        }
        Ok(None) => return,
        Err(e) => {
            let _ = write_error(stream, 0, e, shared);
            return;
        }
    };
    if write_response(stream, &Frame::HelloAck, shared).is_err() {
        return;
    }

    // Request loop.
    loop {
        if shared.net_fault("net.slow_client") {
            // A stalled client ties up only its own connection thread.
            thread::sleep(Duration::from_millis(shared.cfg.slow_client_ms));
        }
        let frame = match wire::read_frame(stream) {
            Ok(Some(f)) => f,
            // The client hung up between requests, or shutdown closed the
            // read half under an idle connection.
            Ok(None) => return,
            Err(e) => {
                // Torn/malformed request: report if the socket still
                // works, then close — request framing is unrecoverable.
                let _ = write_error(stream, 0, e, shared);
                return;
            }
        };
        if shared.net_fault("net.read_frame") {
            // Injected torn read: the request is dropped on the floor and
            // the connection closed without a response.
            return;
        }
        let (id, deadline_ms, sql) = match frame {
            Frame::Query {
                id,
                deadline_ms,
                sql,
            } => (id, deadline_ms, sql),
            Frame::Shutdown => {
                shared.shutdown_requested.store(true, Ordering::Release);
                return;
            }
            _ => {
                let error = Error::protocol("expected Query or Shutdown");
                let _ = write_error(stream, 0, error, shared);
                return;
            }
        };
        if shared.draining.load(Ordering::Acquire) {
            let _ = write_error(stream, id, Error::ShuttingDown, shared);
            continue;
        }

        // Admission control: shed instead of running.
        let permit = match shared.registry.admit(&tenant, sql.len()) {
            Ok(p) => p,
            Err(e) => {
                if write_error(stream, id, e, shared).is_err() {
                    return;
                }
                continue;
            }
        };

        // Per-request cancel token, published in the slot so the watcher
        // can trip it if the client hangs up while the statement runs.
        let token = CancelToken::default();
        let opts = RequestOptions {
            deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
            cancel: Some(token.clone()),
        };
        *lock(slot) = Some(InFlight {
            token: token.clone(),
            swept: false,
        });
        if shared.net_fault("net.disconnect") {
            // Injected abrupt client death mid-query: cancel and close
            // without a response. The committed prefix stays committed;
            // the statement in flight aborts at its next checkpoint.
            token.cancel();
        }
        let outcome = contain_panic(|| shared.db.execute_script_with_request(&sql, &opts));
        *lock(slot) = None;
        drop(permit);
        if token.is_cancelled() {
            // The client is gone. Every statement of its script is already
            // committed or rolled back: a served statement is its own
            // transaction (`execute_script_with_request` refuses BEGIN /
            // COMMIT / ROLLBACK), so nothing it did can outlive the request
            // half-open.
            return;
        }
        let panicked = outcome.is_err();
        let frame = match outcome.unwrap_or_else(Err) {
            Ok(rs) => Frame::Rows {
                id,
                columns: rs.schema.columns().iter().map(|c| c.name.clone()).collect(),
                rows: rs.rows,
                rows_affected: rs.rows_affected,
            },
            Err(error) => Frame::Err { id, error },
        };
        // After a panic, answer and close: whatever thread-local engine
        // state the unwind skipped dies with this thread.
        if write_response(stream, &frame, shared).is_err() || panicked {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_statement_is_a_typed_non_retryable_error() {
        let ok: std::result::Result<Result<u8>, Error> = contain_panic(|| Ok(7));
        assert_eq!(ok, Ok(Ok(7)));
        let err = contain_panic(|| -> u8 { panic!("boom") }).unwrap_err();
        assert!(
            matches!(&err, Error::Execution(m) if m.starts_with("internal error: ") && m.ends_with("boom")),
            "{err:?}"
        );
        assert!(!err.is_retryable());
    }
}
