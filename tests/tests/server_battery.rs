//! Tier-1 battery for the network front-end: loopback roundtrips, deadline
//! and cancellation propagation over the wire, admission-control shedding,
//! graceful drain, bounded overload, and a seeded chaos soak with `net.*`
//! connection faults armed.
//!
//! Every test runs a real [`Server`] on an ephemeral loopback port and
//! talks to it through the blocking [`Client`] (or raw `wire` frames where
//! the test needs to misbehave on purpose).

use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use grfusion::{Database, FaultKind, FaultPlan, FaultRule};
use grfusion_common::{Error, ResourceKind, Value};
use grfusion_server::{wire, Client, Server, ServerConfig, ServerHandle, TenantQuota};

fn fresh_db() -> Arc<Database> {
    Arc::new(Database::new())
}

/// Fully connected directed graph on `n` vertexes (same combinatorial bomb
/// the robustness battery uses): unbounded path enumeration over it is the
/// workload deadlines and cancellation exist to bound.
fn load_clique(db: &Database, n: i64) {
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..n).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let mut erows = Vec::new();
    let mut eid = 0i64;
    for a in 0..n {
        for b in 0..n {
            if a != b {
                erows.push(vec![
                    Value::Integer(eid),
                    Value::Integer(a),
                    Value::Integer(b),
                    Value::Double(1.0),
                ]);
                eid += 1;
            }
        }
    }
    db.bulk_insert("e", erows).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
}

const CLIQUE_BOMB: &str = "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 8";

fn start(db: Arc<Database>, cfg: ServerConfig) -> ServerHandle {
    Server::start(db, cfg).expect("server start")
}

/// Wait until the registry reports no in-flight work (bounded).
fn wait_drained(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let busy: usize = handle.stats().iter().map(|t| t.in_flight).sum();
        if busy == 0 {
            return;
        }
        assert!(Instant::now() < deadline, "in-flight work never drained");
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn loopback_roundtrip_ddl_dml_query() {
    let db = fresh_db();
    let handle = start(
        db,
        ServerConfig::default(),
    );
    let mut c = Client::connect(handle.addr(), "tenant-1").unwrap();
    c.query("CREATE TABLE kv (k INTEGER PRIMARY KEY, v VARCHAR)")
        .unwrap();
    let r = c
        .query("INSERT INTO kv VALUES (1, 'one'); INSERT INTO kv VALUES (2, 'two')")
        .unwrap();
    assert_eq!(r.rows_affected, 1); // script result is the last statement's
    let r = c.query("SELECT k, v FROM kv ORDER BY k").unwrap();
    assert_eq!(r.columns, vec!["k".to_string(), "v".to_string()]);
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Integer(1));
    assert_eq!(r.rows[1][1], Value::text("two"));
    // Typed engine errors come back as themselves, not stringly blobs.
    let err = c.query("SELECT nope FROM kv").unwrap_err();
    assert!(matches!(err, Error::Analysis(_)), "{err:?}");
    assert!(!err.is_retryable());
    handle.shutdown();
}

/// The open transaction is one slot per `Database` and connections share
/// the `Database`, so a served `BEGIN` would outlive its request: tenant A
/// opens one and hangs up, tenant B's acknowledged INSERT lands in A's
/// journal, and tenant C's ROLLBACK erases it. Transaction control is
/// therefore refused on the served path; every statement is its own
/// transaction.
#[test]
fn served_transaction_control_is_refused_and_acked_writes_survive() {
    let db = fresh_db();
    let handle = start(
        db.clone(),
        ServerConfig::default(),
    );
    let refused = |r: Result<grfusion_server::Response, Error>| {
        let err = r.unwrap_err();
        assert!(matches!(err, Error::Transaction(_)), "{err:?}");
        assert!(!err.is_retryable());
        assert!(err.to_string().contains("its own transaction"), "{err}");
    };
    let mut a = Client::connect(handle.addr(), "tenant-a").unwrap();
    a.query("CREATE TABLE kv (k INTEGER PRIMARY KEY)").unwrap();
    refused(a.query("BEGIN"));
    drop(a); // A hangs up right after its BEGIN.

    let mut b = Client::connect(handle.addr(), "tenant-b").unwrap();
    assert_eq!(b.query("INSERT INTO kv VALUES (1)").unwrap().rows_affected, 1);
    refused(b.query("BEGIN"));
    // A script is refused as a whole, before its first statement runs.
    refused(b.query("INSERT INTO kv VALUES (2); COMMIT"));

    let mut c = Client::connect(handle.addr(), "tenant-c").unwrap();
    refused(c.query("ROLLBACK"));
    let rows = c.query("SELECT k FROM kv").unwrap().rows;
    assert_eq!(rows, vec![vec![Value::Integer(1)]], "B's acked row, and only it");
    handle.shutdown();

    // In process the database is the caller's own: BEGIN … ROLLBACK works.
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO kv VALUES (3)").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert_eq!(db.table_len("kv").unwrap(), 1);
}

#[test]
fn client_deadline_expires_as_typed_resource_exhausted() {
    let db = fresh_db();
    load_clique(&db, 12);
    let handle = start(
        db,
        ServerConfig::default(),
    );
    let mut c = Client::connect(handle.addr(), "t").unwrap();
    let start_at = Instant::now();
    let err = c.query_with_deadline(CLIQUE_BOMB, 150).unwrap_err();
    let elapsed = start_at.elapsed();
    assert!(
        matches!(
            err,
            Error::ResourceExhausted {
                kind: ResourceKind::Deadline,
                ..
            }
        ),
        "{err:?}"
    );
    // The deadline tripped roughly on time, not after the bomb finished.
    assert!(elapsed < Duration::from_secs(5), "{elapsed:?}");
    // The engine is still healthy for the next query on the same conn.
    let r = c
        .query("SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length = 1")
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer(11)));
    handle.shutdown();
}

/// A zero admission limit would shed every statement as `Overloaded` (or,
/// for the global cap, be silently raised to 1): `Server::start` refuses
/// it with a typed, non-retryable error that names the field.
#[test]
fn zero_admission_limits_are_refused_at_start_by_name() {
    let quota = |max_concurrent, max_queued_bytes| ServerConfig {
        quota: TenantQuota {
            max_concurrent,
            max_queued_bytes,
        },
        ..ServerConfig::default()
    };
    let zeroed = [
        (
            "global_in_flight",
            ServerConfig {
                global_in_flight: 0,
                ..ServerConfig::default()
            },
        ),
        ("quota.max_concurrent", quota(0, 1 << 20)),
        ("quota.max_queued_bytes", quota(4, 0)),
    ];
    for (field, cfg) in zeroed {
        match Server::start(fresh_db(), cfg) {
            Err(e @ Error::Analysis(_)) => {
                assert!(
                    e.to_string().contains(&format!("`{field}`")),
                    "{field}: {e}"
                );
                assert!(!e.is_retryable(), "{field}: {e}");
            }
            Err(e) => panic!("{field} = 0: wrong error {e:?}"),
            Ok(handle) => {
                handle.shutdown();
                panic!("{field} = 0: the server started");
            }
        }
    }
    let handle = start(fresh_db(), ServerConfig::default());
    handle.shutdown();
}

#[test]
fn tenant_quota_sheds_with_retryable_overloaded() {
    let db = fresh_db();
    load_clique(&db, 12);
    let handle = start(
        db,
        ServerConfig {
            quota: TenantQuota {
                max_concurrent: 1,
                max_queued_bytes: 1 << 20,
            },
            retry_after_ms: 25,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    // Occupy tenant "t"'s single slot with a bounded bomb.
    let occupier = thread::spawn(move || {
        let mut c = Client::connect(addr, "t").unwrap();
        let err = c.query_with_deadline(CLIQUE_BOMB, 1500).unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted { .. }),
            "{err:?}"
        );
    });
    // Wait until the occupier is actually in flight.
    let spin = Instant::now() + Duration::from_secs(5);
    while handle.stats().iter().map(|t| t.in_flight).sum::<usize>() == 0 {
        assert!(Instant::now() < spin, "occupier never admitted");
        thread::sleep(Duration::from_millis(5));
    }
    // Same tenant: shed. Different tenant: admitted.
    let mut c2 = Client::connect(addr, "t").unwrap();
    let err = c2.query("SELECT COUNT(*) FROM v").unwrap_err();
    assert_eq!(err, Error::Overloaded { retry_after_ms: 25 });
    assert!(err.is_retryable());
    let mut other = Client::connect(addr, "other").unwrap();
    other.query("SELECT COUNT(*) FROM v").unwrap();
    occupier.join().unwrap();
    // Slot released: the shed tenant's retry now succeeds.
    wait_drained(&handle);
    c2.query("SELECT COUNT(*) FROM v").unwrap();
    let stats = handle.stats();
    let t = stats.iter().find(|s| s.tenant == "t").unwrap();
    assert!(t.shed >= 1, "{stats:?}");
    handle.shutdown();
}

#[test]
fn disconnect_mid_query_cancels_and_preserves_committed_prefix() {
    let db = fresh_db();
    load_clique(&db, 12);
    db.execute("CREATE TABLE log (id INTEGER PRIMARY KEY, note VARCHAR)")
        .unwrap();
    let handle = start(
        db.clone(),
        ServerConfig::default(),
    );

    // Acked work over a well-behaved connection.
    let mut c = Client::connect(handle.addr(), "t").unwrap();
    c.query("INSERT INTO log VALUES (1, 'acked')").unwrap();
    let expected = db.state_dump().unwrap();

    // Now a raw connection that sends a script — committed INSERT, then a
    // bomb, then another INSERT — and hangs up while the bomb runs. The
    // server must cancel the script at the bomb; the trailing INSERT never
    // executes and the aborted statement leaves no partial state.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    wire::write_frame(
        &mut raw,
        &wire::Frame::Hello {
            tenant: "t".to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        wire::read_frame(&mut raw).unwrap(),
        Some(wire::Frame::HelloAck)
    ));
    wire::write_frame(
        &mut raw,
        &wire::Frame::Query {
            id: 1,
            deadline_ms: 0,
            sql: format!(
                "INSERT INTO log VALUES (2, 'doomed-prefix'); {CLIQUE_BOMB}; \
                 INSERT INTO log VALUES (3, 'never-runs')"
            ),
        },
    )
    .unwrap();
    // Give the script time to commit its first statement and enter the
    // bomb, then vanish without reading the response.
    thread::sleep(Duration::from_millis(200));
    drop(raw);

    wait_drained(&handle);
    let after = db.state_dump().unwrap();
    // The committed prefix (insert id=2) survives; the statement the
    // cancellation aborted (the bomb, read-only) and everything after it
    // left no trace. Replaying the acked prefix serially must match.
    let replay = fresh_db();
    load_clique(&replay, 12);
    replay
        .execute("CREATE TABLE log (id INTEGER PRIMARY KEY, note VARCHAR)")
        .unwrap();
    replay.execute("INSERT INTO log VALUES (1, 'acked')").unwrap();
    replay
        .execute("INSERT INTO log VALUES (2, 'doomed-prefix')")
        .unwrap();
    assert_eq!(after, replay.state_dump().unwrap());
    assert_ne!(after, expected, "prefix insert must have committed");
    handle.shutdown();
}

#[test]
fn graceful_drain_refuses_new_work_and_cancels_stragglers() {
    let db = fresh_db();
    load_clique(&db, 12);
    let handle = start(
        db,
        ServerConfig {
            drain_deadline_ms: 300,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    // A long-running query that will still be in flight when drain begins.
    let straggler = thread::spawn(move || {
        let mut c = Client::connect(addr, "t").unwrap();
        c.query(CLIQUE_BOMB)
    });
    let spin = Instant::now() + Duration::from_secs(5);
    while handle.stats().iter().map(|t| t.in_flight).sum::<usize>() == 0 {
        assert!(Instant::now() < spin, "straggler never admitted");
        thread::sleep(Duration::from_millis(5));
    }
    // A second connection established before the drain starts.
    let mut bystander = Client::connect(addr, "t2").unwrap();

    let drainer = thread::spawn(move || handle.shutdown());
    thread::sleep(Duration::from_millis(50));
    // New work during the drain is refused with the typed retryable error.
    let err = bystander.query("SELECT COUNT(*) FROM v").unwrap_err();
    assert!(
        matches!(err, Error::ShuttingDown) || matches!(err, Error::Unavailable(_)),
        "{err:?}"
    );
    if let Error::ShuttingDown = err {
        assert!(err.is_retryable());
    }
    // The straggler was cancelled at the drain deadline with a typed
    // resource error, not dropped on the floor.
    let res = straggler.join().unwrap();
    let err = res.unwrap_err();
    assert!(
        matches!(err, Error::ResourceExhausted { .. }) || matches!(err, Error::Unavailable(_)),
        "{err:?}"
    );
    drainer.join().unwrap();
}

/// Seeded chaos soak: 8 tenants hammer the server with idempotent DML and
/// reads while every `net.*` fault site is armed. Invariants: the process
/// never panics, every shed/refusal is typed retryable, and the final
/// state dump byte-matches a serial replay of exactly the acked
/// statements.
#[test]
fn chaos_soak_with_net_faults_matches_serial_replay() {
    const TENANTS: usize = 8;
    const STMTS_PER_TENANT: usize = 12;

    let db = fresh_db();
    db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner INTEGER, val INTEGER)")
        .unwrap();
    let mut seed_rows = Vec::new();
    for t in 0..TENANTS as i64 {
        for k in 0..5i64 {
            seed_rows.push(vec![
                Value::Integer(t * 100 + k),
                Value::Integer(t),
                Value::Integer(0),
            ]);
        }
    }
    db.bulk_insert("acct", seed_rows.clone()).unwrap();

    let faults = FaultPlan {
        seed: 42,
        rules: vec![
            FaultRule {
                site: "net.accept".into(),
                nth: 3,
                kind: FaultKind::Error,
            },
            FaultRule {
                site: "net.read_frame".into(),
                nth: 7,
                kind: FaultKind::Error,
            },
            FaultRule {
                site: "net.write_frame".into(),
                nth: 11,
                kind: FaultKind::Error,
            },
            FaultRule {
                site: "net.slow_client".into(),
                nth: 5,
                kind: FaultKind::Error,
            },
            FaultRule {
                site: "net.disconnect".into(),
                nth: 9,
                kind: FaultKind::Error,
            },
        ],
    };
    let handle = start(
        db.clone(),
        ServerConfig {
            quota: TenantQuota {
                max_concurrent: 2,
                max_queued_bytes: 1 << 16,
            },
            faults: Some(faults),
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let mut threads = Vec::new();
    for t in 0..TENANTS {
        threads.push(thread::spawn(move || {
            let tenant = format!("tenant-{t}");
            let mut acked: Vec<String> = Vec::new();
            let mut client: Option<Client> = None;
            for k in 0..STMTS_PER_TENANT {
                // Idempotent by construction: absolute-value UPDATE on rows
                // this tenant owns exclusively, so at-least-once retries
                // and cross-tenant interleavings cannot change the final
                // state a serial replay of acked statements produces.
                let stmt = format!(
                    "UPDATE acct SET val = {} WHERE id = {}",
                    k as i64 * 10 + t as i64,
                    t as i64 * 100 + (k % 5) as i64
                );
                let mut attempts = 0;
                loop {
                    attempts += 1;
                    assert!(attempts < 100, "tenant {t} stuck on `{stmt}`");
                    let c = match client.as_mut() {
                        Some(c) => c,
                        None => match Client::connect(addr, &tenant) {
                            Ok(c) => {
                                client = Some(c);
                                client.as_mut().unwrap()
                            }
                            Err(e) => {
                                assert!(e.is_retryable(), "fatal connect error: {e:?}");
                                thread::sleep(Duration::from_millis(5));
                                continue;
                            }
                        },
                    };
                    match c.query(&stmt) {
                        Ok(_) => {
                            acked.push(stmt.clone());
                            break;
                        }
                        Err(e) => {
                            assert!(e.is_retryable(), "fatal error for `{stmt}`: {e:?}");
                            if matches!(e, Error::Unavailable(_)) {
                                client = None; // torn connection: rebuild
                            }
                            thread::sleep(Duration::from_millis(5));
                        }
                    }
                }
                // Interleave a read; its result is incidental, but it must
                // never fail fatally.
                let mut torn = false;
                if let Some(c) = client.as_mut() {
                    if let Err(e) = c.query("SELECT COUNT(*) FROM acct") {
                        assert!(e.is_retryable(), "fatal read error: {e:?}");
                        torn = matches!(e, Error::Unavailable(_));
                    }
                }
                if torn {
                    client = None;
                }
            }
            acked
        }));
    }
    let acked_per_tenant: Vec<Vec<String>> =
        threads.into_iter().map(|t| t.join().unwrap()).collect();
    wait_drained(&handle);
    handle.shutdown();

    // Serial replay of exactly the acked statements, tenant by tenant
    // (tenants own disjoint rows, so inter-tenant order is immaterial).
    let replay = fresh_db();
    replay
        .execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner INTEGER, val INTEGER)")
        .unwrap();
    replay.bulk_insert("acct", seed_rows).unwrap();
    for acked in &acked_per_tenant {
        for stmt in acked {
            replay.execute(stmt).unwrap();
        }
    }
    assert_eq!(db.state_dump().unwrap(), replay.state_dump().unwrap());
}

/// Overload stays bounded: a quota of one and saturating clients produce
/// typed sheds and flat queue occupancy, never unbounded buffering.
#[test]
fn saturating_tenant_is_shed_not_buffered() {
    let db = fresh_db();
    load_clique(&db, 8);
    let handle = start(
        db,
        ServerConfig {
            quota: TenantQuota {
                max_concurrent: 1,
                max_queued_bytes: 256,
            },
            retry_after_ms: 10,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let mut threads = Vec::new();
    for _ in 0..4 {
        threads.push(thread::spawn(move || {
            let mut c = Client::connect(addr, "hammer").unwrap();
            let mut done = 0u64;
            let mut shed = 0u64;
            for _ in 0..25 {
                // Each admitted query burns its full 30 ms deadline on the
                // bomb, so with quota 1 the other hammers must collide.
                match c.query_with_deadline(
                    "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 7",
                    30,
                ) {
                    Ok(_) | Err(Error::ResourceExhausted { .. }) => done += 1,
                    Err(Error::Overloaded { retry_after_ms }) => {
                        assert_eq!(retry_after_ms, 10);
                        shed += 1;
                    }
                    Err(e) => panic!("unexpected error under overload: {e:?}"),
                }
            }
            (done, shed)
        }));
    }
    let mut total_done = 0;
    let mut total_shed = 0;
    for t in threads {
        let (done, shed) = t.join().unwrap();
        total_done += done;
        total_shed += shed;
    }
    assert!(total_done > 0, "some queries must get through");
    assert!(total_shed > 0, "quota 1 with 4 hammers must shed");
    let stats = handle.stats();
    let h = stats.iter().find(|s| s.tenant == "hammer").unwrap();
    assert_eq!(h.in_flight, 0);
    assert_eq!(h.queued_bytes, 0);
    assert_eq!(h.admitted, total_done);
    assert_eq!(h.shed, total_shed);
    handle.shutdown();
}

/// Handshake a raw connection (no `Client`, so the test controls every byte).
fn raw_hello(handle: &ServerHandle, tenant: &str) -> TcpStream {
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    wire::write_frame(
        &mut raw,
        &wire::Frame::Hello {
            tenant: tenant.to_string(),
        },
    )
    .unwrap();
    assert!(matches!(
        wire::read_frame(&mut raw).unwrap(),
        Some(wire::Frame::HelloAck)
    ));
    raw
}

/// Bytes waiting behind a running statement are the next request, not a
/// hang-up: the first of two pipelined queries runs long enough for the
/// disconnect watcher to peek its socket several times, and must still
/// answer with rows.
#[test]
fn pipelined_queries_answer_in_order_and_the_first_is_not_cancelled() {
    let db = fresh_db();
    load_clique(&db, 10);
    // ~190 k paths took 48–59 ms in a debug build on the 2-core box — astride
    // the 50 ms floor asserted below; one more hop is ~1.1 M paths.
    let long = "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 6";
    let expected = db.execute(long).unwrap().rows;
    let handle = start(
        db,
        ServerConfig::default(),
    );
    let mut raw = raw_hello(&handle, "t");
    let mut both = wire::encode_frame(&wire::Frame::Query {
        id: 1,
        deadline_ms: 0,
        sql: long.to_string(),
    });
    both.extend(wire::encode_frame(&wire::Frame::Query {
        id: 2,
        deadline_ms: 0,
        sql: "SELECT COUNT(*) FROM v".to_string(),
    }));
    let sent = Instant::now();
    std::io::Write::write_all(&mut raw, &both).unwrap();
    match wire::read_frame(&mut raw).unwrap() {
        Some(wire::Frame::Rows { id: 1, rows, .. }) => assert_eq!(rows, expected),
        other => panic!("first response: {other:?}"),
    }
    assert!(
        sent.elapsed() > Duration::from_millis(50),
        "the first statement must outlast several watcher sweeps, took {:?}",
        sent.elapsed()
    );
    match wire::read_frame(&mut raw).unwrap() {
        Some(wire::Frame::Rows { id: 2, rows, .. }) => {
            assert_eq!(rows, vec![vec![Value::Integer(10)]]);
        }
        other => panic!("second response: {other:?}"),
    }
    handle.shutdown();
}

/// Shutdown wakes connections blocked in `read` — idle at a frame boundary
/// or inside a half-sent frame — without waiting out any deadline, and
/// joins every thread it started.
#[test]
fn shutdown_wakes_idle_and_half_sent_connections_and_joins_them() {
    let db = fresh_db();
    let handle = start(
        db.clone(),
        ServerConfig {
            drain_deadline_ms: 5_000,
            ..ServerConfig::default()
        },
    );
    let mut idle: Vec<TcpStream> = (0..3).map(|_| raw_hello(&handle, "idle")).collect();
    let mut torn = raw_hello(&handle, "torn");
    let frame = wire::encode_frame(&wire::Frame::Query {
        id: 1,
        deadline_ms: 0,
        sql: "SELECT 1".to_string(),
    });
    std::io::Write::write_all(&mut torn, &frame[..frame.len() / 2]).unwrap();
    // Let every connection thread reach its blocking read.
    thread::sleep(Duration::from_millis(50));

    let begun = Instant::now();
    let stats = handle.shutdown();
    assert!(
        begun.elapsed() < Duration::from_millis(1_000),
        "shutdown waited {:?} with nothing in flight",
        begun.elapsed()
    );
    assert!(stats.iter().all(|t| t.in_flight == 0), "{stats:?}");
    // Every server thread held the database through the shared state; all
    // of them have been joined, so only this test's handle is left.
    assert_eq!(Arc::strong_count(&db), 1);
    for c in &mut idle {
        assert!(
            wire::read_frame(c).unwrap().is_none(),
            "idle client wants EOF"
        );
    }
    // The half-sent frame is answered with a retryable refusal, then EOF.
    match wire::read_frame(&mut torn) {
        Ok(Some(wire::Frame::Err { error, .. })) => assert!(error.is_retryable(), "{error:?}"),
        Ok(None) | Err(Error::Unavailable(_)) => {}
        other => panic!("half-sent frame: {other:?}"),
    }
}

/// Failed accepts neither spin the acceptor nor delay the connects behind
/// them: each dropped connection costs its client one retry, nothing more.
#[test]
fn accept_faults_do_not_stall_later_connects() {
    let db = fresh_db();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)")
        .unwrap();
    let rule = |nth| FaultRule {
        site: "net.accept".into(),
        nth,
        kind: FaultKind::Error,
    };
    let handle = start(
        db,
        ServerConfig {
            faults: Some(FaultPlan {
                seed: 0,
                rules: vec![rule(1), rule(2), rule(3)],
            }),
            ..ServerConfig::default()
        },
    );
    let mut refused = 0;
    let mut served = 0;
    let begun = Instant::now();
    while served < 8 {
        let attempt = Instant::now();
        match Client::connect(handle.addr(), "t") {
            Ok(mut c) => {
                c.query("SELECT COUNT(*) FROM v").unwrap();
                served += 1;
            }
            Err(e) => {
                assert!(e.is_retryable(), "{e:?}");
                refused += 1;
            }
        }
        assert!(
            attempt.elapsed() < Duration::from_millis(500),
            "connect stalled {:?}",
            attempt.elapsed()
        );
    }
    // A hit that fires a rule is not counted by the rules after it, so the
    // three rules drop accepts 1, 3 and 5.
    assert_eq!(refused, 3);
    assert!(
        begun.elapsed() < Duration::from_secs(2),
        "{:?}",
        begun.elapsed()
    );
    handle.shutdown();
}
