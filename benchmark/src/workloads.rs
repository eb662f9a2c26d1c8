//! The five workloads: set-up against the default engine, and one measured
//! round each. See `README.md` for why each exists.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use grfusion::{Database, FaultPlan, Value};
use grfusion_common::DataType;
use grfusion_datasets::{follower, protein, Adjacency};
use grfusion_server::wire::{decode_payload, encode_frame, Frame, MAX_FRAME_BYTES};
use grfusion_server::{Client, Server, ServerConfig, ServerHandle};

use crate::data::{load_graph, ms_since, GraphDb, RefGraph};
use crate::openloop::{drive, Clock, RealClock, Sample, Schedule};
use crate::ops::{
    adhoc_statements, check, graph_probes, metered_query, reach_probes, AdhocRef, AdhocStream,
    Expect, LoopOut, Metered, PreparedLoop, Probe, ProbeSet, ADHOC_KINDS, METERED_EVERY,
};
use crate::rng::Rng;
use crate::spec::WORKLOAD_SPECS;
use crate::stats::{median, percentile};
use crate::trace::{merge, Recorder, Span, NO_PARENT};

pub fn workload_names() -> Vec<&'static str> {
    WORKLOAD_SPECS.iter().map(|w| w.name).collect()
}

pub const GRAPH_VERTICES: usize = 20_000;
pub const PROTEIN_VERTICES: usize = 2_000;
pub const FACT_ROWS: i64 = 20_000;
pub const DIM_ROWS: i64 = 1_000;
pub const TRIANGLE_SEL: i64 = 30;
/// Statements handed to the layer micro-benchmarks and the counter pass.
const LAYER_STATEMENTS: usize = 256;
/// Statements over which the Zipf stream's repeat share is taken.
const ZIPF_WINDOW: usize = 1 << 16;

/// What one measured round produced.
#[derive(Default)]
pub struct RoundOut {
    pub reads: Vec<u64>,
    pub read_class: Vec<u8>,
    pub writes: Vec<u64>,
    pub write_kind: Vec<u8>,
    pub attempted: u64,
    pub failed: u64,
    /// Seconds the readers ran.
    pub wall_s: f64,
    /// Seconds the writers ran (a writer finishes its cycle after the
    /// reader stops).
    pub write_wall_s: f64,
    pub spans: Vec<Span>,
    pub metered: Metered,
    /// `serve_open`: how late the generator sent each request.
    pub late_ns: Vec<u64>,
    /// `serve_open`: requests due in the round (offered load).
    pub offered: u64,
    /// `serve_open`, traced: what was sent and what came back, for replay.
    pub served: Vec<Served>,
}

pub struct Served {
    pub sql: String,
    pub is_write: bool,
    pub rows: Vec<Vec<Value>>,
    /// Client-side round trip (sent → response decoded).
    pub rtt_ns: u64,
}

impl RoundOut {
    fn from_reads(out: LoopOut) -> RoundOut {
        RoundOut {
            reads: out.lat_ns,
            read_class: out.class,
            attempted: out.attempted,
            failed: out.failed,
            wall_s: out.wall_s,
            spans: out.spans,
            metered: out.metered,
            ..RoundOut::default()
        }
    }
}

pub trait Workload {
    /// Run for `secs` seconds; record spans when `traced`.
    fn round(&mut self, secs: f64, traced: bool) -> RoundOut;
    /// The dataset, the database it is loaded in (graph view `g`), and how
    /// long loading took.
    fn graph(&self) -> &GraphDb;
    fn read_classes(&self) -> Vec<String>;
    fn write_kinds(&self) -> &'static [&'static str] {
        &[]
    }
    /// A fixed, seed-determined sample of the read statements, literals
    /// inlined: input of the layer micro-benchmarks and the counter pass.
    fn statements(&self) -> Vec<String>;
    /// Workload-specific per-layer and validity numbers (traced run only).
    fn trace_extras(&mut self, _traced: &RoundOut) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// End-of-run invariants; returns `(checks, failures)`.
    fn finish(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

/// A workload instance and the seconds its *system* set-up took: dataset
/// generation, load, `CREATE GRAPH VIEW`, prepare, server start. Building
/// probes and reference answers is the benchmark's work and is left out.
pub struct Built {
    pub workload: Box<dyn Workload>,
    pub system_s: f64,
}

pub fn setup(name: &str, seed: u64) -> Result<Built, String> {
    match name {
        "graph_prepared" => Prepared::setup_graph(seed),
        "analytic_prepared" => Prepared::setup_analytic(seed),
        "adhoc_short" => AdhocShort::setup(seed),
        "mixed_rw" => MixedRw::setup(seed),
        "serve_open" => ServeOpen::setup(seed),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            workload_names().join(", ")
        )),
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

fn load_follower(seed: u64, acc: &mut f64) -> Result<GraphDb, String> {
    timed(acc, || load_graph(follower(GRAPH_VERTICES, seed)))
}

// ---------------------------------------------------------------------------
// graph_prepared and analytic_prepared: one thread, prepared statements
// ---------------------------------------------------------------------------

struct Prepared {
    graph: GraphDb,
    reads: PreparedLoop,
}

impl Workload for Prepared {
    fn round(&mut self, secs: f64, traced: bool) -> RoundOut {
        RoundOut::from_reads(self.reads.run(secs, Instant::now(), traced, None))
    }
    fn graph(&self) -> &GraphDb {
        &self.graph
    }
    fn read_classes(&self) -> Vec<String> {
        self.reads.probes.class_names.clone()
    }
    fn statements(&self) -> Vec<String> {
        self.reads.probes.statements()
    }
}

const SCAN_SQL: &str = "SELECT id, val FROM fact WHERE val < 50.0 AND grp < 48";
const JOIN_SQL: &str = "SELECT fact.id, dim.tag FROM fact JOIN dim ON fact.dim_id = dim.id";
const AGG_SQL: &str = "SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) \
     FROM fact GROUP BY grp";
const TRIANGLE_SQL: &str = "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 3 \
     AND P.Edges[0..*].sel < ? AND P.Edges[2].EndVertex = P.Edges[0].StartVertex";

impl Prepared {
    fn setup_graph(seed: u64) -> Result<Built, String> {
        let mut system_s = 0.0;
        let graph = load_follower(seed, &mut system_s)?;
        let probes = graph_probes(&graph.ds, seed)?;
        let reads = timed(&mut system_s, || {
            PreparedLoop::new(graph.db.clone(), probes)
        })?;
        Ok(Built {
            workload: Box::new(Prepared { graph, reads }),
            system_s,
        })
    }

    fn setup_analytic(seed: u64) -> Result<Built, String> {
        let mut system_s = 0.0;
        let mut graph = timed(&mut system_s, || {
            load_graph(protein(PROTEIN_VERTICES, seed))
        })?;

        // The `batch` lane's relational tables, generated from the seed.
        let mut rng = Rng::new(seed ^ 0xFAC7);
        let mut scan_rows = 0usize;
        let mut groups = vec![0i64; 64];
        let fact: Vec<Vec<Value>> = (0..FACT_ROWS)
            .map(|id| {
                let r = rng.next_u64();
                let (grp, val) = (id % 64, (r % 1000) as f64 / 10.0);
                groups[grp as usize] += 1;
                if val < 50.0 && grp < 48 {
                    scan_rows += 1;
                }
                vec![
                    Value::Integer(id),
                    Value::Integer(grp),
                    Value::Integer((r >> 32) as i64 % DIM_ROWS),
                    Value::Double(val),
                ]
            })
            .collect();
        let dim: Vec<Vec<Value>> = (0..DIM_ROWS)
            .map(|id| vec![Value::Integer(id), Value::Integer(id % 7)])
            .collect();
        let db = graph.db.clone();
        let mut bulk_load_ms = 0.0;
        timed(&mut system_s, || -> Result<(), String> {
            db.execute(
                "CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, dim_id INTEGER, val DOUBLE)",
            )
            .map_err(|e| e.to_string())?;
            db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, tag INTEGER)")
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            db.bulk_insert("fact", fact).map_err(|e| e.to_string())?;
            db.bulk_insert("dim", dim).map_err(|e| e.to_string())?;
            bulk_load_ms += ms_since(t);
            Ok(())
        })?;
        graph.bulk_load_ms += bulk_load_ms;

        // Every dim_id has its dim row, so the join keeps every fact row.
        let triangles = RefGraph::build(&graph.ds).triangles_sel_lt(TRIANGLE_SEL);
        let probe = |query: usize, params: Vec<Value>, expect: Expect| {
            vec![Probe {
                query,
                params,
                expect,
            }]
        };
        let probes = ProbeSet {
            templates: [SCAN_SQL, JOIN_SQL, AGG_SQL, TRIANGLE_SQL]
                .map(String::from)
                .to_vec(),
            class_names: ["scan", "join", "aggregate", "triangles"]
                .map(String::from)
                .to_vec(),
            classes: vec![
                probe(0, vec![], Expect::Rows(scan_rows)),
                probe(1, vec![], Expect::Rows(FACT_ROWS as usize)),
                probe(
                    2,
                    vec![],
                    Expect::GroupCounts((0..64).map(|g| (g, groups[g as usize])).collect()),
                ),
                // Each undirected triangle closes six 3-paths (3 starts × 2 ways).
                probe(
                    3,
                    vec![Value::Integer(TRIANGLE_SEL)],
                    Expect::Int(6 * triangles as i64),
                ),
            ],
            // The scan runs twice per cycle. With four classes in equal
            // shares the median op would sit on the edge between the second
            // and third cheapest class and jump between them from round to
            // round; with the scan at 40 % it lies inside the scan class.
            cycle: vec![0, 1, 2, 3, 0],
        };
        let reads = timed(&mut system_s, || PreparedLoop::new(db, probes))?;
        Ok(Built {
            workload: Box::new(Prepared { graph, reads }),
            system_s,
        })
    }
}

// ---------------------------------------------------------------------------
// adhoc_short
// ---------------------------------------------------------------------------

struct AdhocShort {
    graph: GraphDb,
    seed: u64,
    stream: AdhocStream,
    reference: AdhocRef,
}

impl AdhocShort {
    fn setup(seed: u64) -> Result<Built, String> {
        let mut system_s = 0.0;
        let graph = load_follower(seed, &mut system_s)?;
        let reference = AdhocRef::build(&graph.ds);
        Ok(Built {
            workload: Box::new(AdhocShort {
                stream: AdhocStream::new(graph.ds.vertex_count(), seed),
                reference,
                graph,
                seed,
            }),
            system_s,
        })
    }
}

impl Workload for AdhocShort {
    fn round(&mut self, secs: f64, traced: bool) -> RoundOut {
        let mut out = RoundOut::default();
        let db = &self.graph.db;
        let origin = Instant::now();
        let mut rec = Recorder::new(origin);
        let deadline = origin + Duration::from_secs_f64(secs);
        loop {
            // Statement text and expected answer are made between the timed
            // spans: they are the client's work, not the engine's.
            let op = self.stream.next_op();
            let expect = self.reference.expect(&op);
            let request = self.stream.issued;
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            let (result, t1) = if traced {
                // `Database::execute` is parse + execute_statement; the traced
                // loop makes the same two calls with a clock read between.
                let parsed = grfusion_sql::parse_statement(&op.sql);
                let mid = Instant::now();
                let result = parsed.and_then(|stmt| db.execute_statement(&stmt));
                let t1 = Instant::now();
                let (a, b, c) = (rec.at(t0), rec.at(mid), rec.at(t1));
                let parent = rec.push("adhoc.execute", a, c, NO_PARENT, request);
                rec.push("sql.parse", a, b, parent, request);
                rec.push("core.execute_statement", b, c, parent, request);
                (result, t1)
            } else {
                let result = db.execute(&op.sql);
                (result, Instant::now())
            };
            out.reads.push((t1 - t0).as_nanos() as u64);
            out.read_class.push(op.kind);
            out.attempted += 1;
            if !result.is_ok_and(|rs| check(&expect, &rs.rows, rs.rows_affected)) {
                out.failed += 1;
            }
            if traced && request.is_multiple_of(METERED_EVERY) {
                metered_query(db, &op.sql, &mut rec, request, &mut out.metered);
            }
        }
        out.wall_s = origin.elapsed().as_secs_f64();
        out.spans = rec.spans;
        out
    }
    fn graph(&self) -> &GraphDb {
        &self.graph
    }
    fn read_classes(&self) -> Vec<String> {
        ADHOC_KINDS.map(String::from).to_vec()
    }
    fn statements(&self) -> Vec<String> {
        adhoc_statements(self.graph.ds.vertex_count(), self.seed, LAYER_STATEMENTS)
    }
    fn trace_extras(&mut self, _traced: &RoundOut) -> Vec<(&'static str, f64)> {
        // Over a fixed window from the start of the stream: over a whole run
        // every statement has been seen and the share tends to 1.
        let mut window = AdhocStream::new(self.graph.ds.vertex_count(), self.seed);
        for _ in 0..ZIPF_WINDOW {
            window.next_op();
        }
        vec![("valid.zipf_repeat_frac", window.repeat_frac())]
    }
}

// ---------------------------------------------------------------------------
// mixed_rw
// ---------------------------------------------------------------------------

pub const WRITE_KINDS: [&str; 4] = ["insert_edge", "relink", "update_attr", "delete_edge"];
const WRITE_SPANS: [&str; 4] = [
    "dml.insert_edge",
    "dml.relink",
    "dml.update_attr",
    "dml.delete_edge",
];
/// Edges per writer cycle. A cycle overlays about 1 500 of the 20 000
/// vertices, so the 0.25 re-seal threshold is crossed every ~4 cycles —
/// several times in every round.
pub const CYCLE_EDGES: i64 = 768;
/// Both threads are closed loops with think time. `UPDATE`/`DELETE` scan the
/// table (~6 ms on 120 000 rows) under the engine lock, a read takes ~70 µs.
/// Run flat out, the two threads fight over an unfair mutex and the numbers
/// measure who wins the hand-off; and about 1 % of reads meet a writer, so
/// the read p99 sits on the cliff between "waited" and "did not". With think
/// time the writer holds the engine about a quarter of the time, a read
/// arrives at a random moment, the median read does not wait and the p99
/// read waits for most of a statement.
pub const WRITER_THINK: Duration = Duration::from_millis(20);
pub const READER_THINK: Duration = Duration::from_micros(300);

/// Net-zero edge cycles: insert a batch of edges, relink them, update their
/// weight, delete them. The writer only ever touches edges it inserted.
struct Writer {
    rng: Rng,
    next_id: i64,
    n_vertices: u64,
    /// `, <attr literals>` for the dataset's edge attributes.
    attr_tail: String,
    last_overlay: usize,
}

#[derive(Default)]
struct WriterOut {
    lat_ns: Vec<u64>,
    kind: Vec<u8>,
    failed: u64,
    reseals: u64,
    spans: Vec<Span>,
}

impl Writer {
    fn cycle(&mut self, db: &Database, rec: Option<&mut Recorder>, out: &mut WriterOut) {
        let (lo, hi) = (self.next_id, self.next_id + CYCLE_EDGES);
        self.next_id = hi;
        let mut insert = String::from("INSERT INTO e_src VALUES ");
        for id in lo..hi {
            let src = self.rng.below(self.n_vertices);
            let dst = (src + 1 + self.rng.below(self.n_vertices - 1)) % self.n_vertices;
            if id > lo {
                insert.push_str(", ");
            }
            insert.push_str(&format!("({id}, {src}, {dst}{})", self.attr_tail));
        }
        let own = format!("WHERE id >= {lo} AND id < {hi}");
        let statements = [
            insert,
            format!(
                "UPDATE e_src SET dst = {} {own}",
                self.rng.below(self.n_vertices)
            ),
            format!("UPDATE e_src SET weight = {}.25 {own}", lo % 89),
            format!("DELETE FROM e_src {own}"),
        ];
        let mut rec = rec;
        for (kind, sql) in statements.iter().enumerate() {
            let start = rec.as_ref().map(|r| r.now());
            let t = Instant::now();
            let result = db.execute(sql);
            out.lat_ns.push(t.elapsed().as_nanos() as u64);
            out.kind.push(kind as u8);
            if let (Some(r), Some(start)) = (rec.as_mut(), start) {
                r.push(WRITE_SPANS[kind], start, r.now(), NO_PARENT, lo as u64);
            }
            if !result.is_ok_and(|rs| rs.rows_affected == CYCLE_EDGES as u64) {
                out.failed += 1;
            }
            std::thread::sleep(WRITER_THINK);
        }
        // A re-seal empties the delta overlay; between re-seals it only grows.
        if let Ok(stats) = db.graph_stats("g") {
            if stats.overlay_bytes < self.last_overlay / 2 {
                out.reseals += 1;
            }
            self.last_overlay = stats.overlay_bytes;
        }
    }
}

struct MixedRw {
    graph: GraphDb,
    reads: PreparedLoop,
    writer: Writer,
    initial_edges: usize,
    reseals: Vec<u64>,
}

impl MixedRw {
    fn setup(seed: u64) -> Result<Built, String> {
        let mut system_s = 0.0;
        let graph = load_follower(seed, &mut system_s)?;
        let adj = Adjacency::build(&graph.ds);
        let probes = reach_probes(&graph.ds, &adj, seed, false)?;
        let reads = timed(&mut system_s, || {
            PreparedLoop::new(graph.db.clone(), probes)
        })?;
        let attr_tail: String = graph
            .ds
            .edge_schema
            .iter()
            .map(|(_, ty)| match ty {
                DataType::Double => ", 1.5",
                DataType::Integer => ", 7",
                _ => ", 'A'",
            })
            .collect();
        let writer = Writer {
            rng: Rng::new(seed ^ 0x3817),
            next_id: graph.ds.edges.iter().map(|e| e.0).max().unwrap_or(0) + 1_000_000,
            n_vertices: graph.ds.vertex_count() as u64,
            attr_tail,
            last_overlay: 0,
        };
        Ok(Built {
            workload: Box::new(MixedRw {
                initial_edges: graph.ds.edge_count(),
                graph,
                reads,
                writer,
                reseals: Vec::new(),
            }),
            system_s,
        })
    }
}

impl Workload for MixedRw {
    fn round(&mut self, secs: f64, traced: bool) -> RoundOut {
        let origin = Instant::now();
        let stop = AtomicBool::new(false);
        let db = self.graph.db.clone();
        let (writer, reads) = (&mut self.writer, &mut self.reads);
        let (read_out, write_out) = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let mut out = WriterOut::default();
                let mut rec = traced.then(|| Recorder::new(origin));
                // SeqCst: the flag is the only hand-off between the threads.
                while !stop.load(Ordering::SeqCst) {
                    writer.cycle(&db, rec.as_mut(), &mut out);
                }
                out.spans = rec.map(|r| r.spans).unwrap_or_default();
                out
            });
            let read_out = reads.run(secs, origin, traced, Some(READER_THINK));
            stop.store(true, Ordering::SeqCst);
            (read_out, handle.join().expect("writer thread panicked"))
        });
        self.reseals.push(write_out.reseals);
        let mut out = RoundOut::from_reads(read_out);
        out.write_wall_s = origin.elapsed().as_secs_f64();
        out.attempted += write_out.lat_ns.len() as u64;
        out.failed += write_out.failed;
        out.writes = write_out.lat_ns;
        out.write_kind = write_out.kind;
        out.spans = merge(vec![std::mem::take(&mut out.spans), write_out.spans]);
        out
    }
    fn graph(&self) -> &GraphDb {
        &self.graph
    }
    fn read_classes(&self) -> Vec<String> {
        self.reads.probes.class_names.clone()
    }
    fn write_kinds(&self) -> &'static [&'static str] {
        &WRITE_KINDS
    }
    fn statements(&self) -> Vec<String> {
        self.reads.probes.statements()
    }
    fn trace_extras(&mut self, traced: &RoundOut) -> Vec<(&'static str, f64)> {
        // The same reader with no writer beside it: the base of the slowdown.
        let quiet = self
            .reads
            .run(0.3, Instant::now(), false, Some(READER_THINK));
        let p50 = |ns: &[u64]| {
            let mut v = ns.to_vec();
            v.sort_unstable();
            percentile(&v, 0.5).unwrap_or(0) as f64 / 1e3
        };
        let (base, mixed) = (p50(&quiet.lat_ns), p50(&traced.reads));
        let reseals: Vec<f64> = self.reseals.iter().map(|&r| r as f64).collect();
        vec![
            ("mixed.read_base_p50_us", base),
            (
                "mixed.read_slowdown_x",
                if base > 0.0 { mixed / base } else { 0.0 },
            ),
            ("valid.reseals_per_round", median(&reseals)),
        ]
    }
    fn finish(&mut self) -> (u64, u64) {
        // Net-zero cycles: topology and table are back at the initial count.
        let db = &self.graph.db;
        let topo = db.graph_stats("g").map(|s| s.edge_count).ok();
        let table = db.table_len("e_src").ok();
        let ok = topo == Some(self.initial_edges) && table == Some(self.initial_edges);
        (1, u64::from(!ok))
    }
}

// ---------------------------------------------------------------------------
// serve_open
// ---------------------------------------------------------------------------

pub const CONNECTIONS: u64 = 2;
/// Each connection sends every 5 ms, the second offset by 2.5 ms: 400 req/s.
pub const PERIOD_NS: u64 = 5_000_000;
/// One request in ten is a write, and all writes come from connection 0
/// (one in five of its requests), so at most one is in flight. With writes
/// on both connections the read tail sits on a cliff — behind one 6 ms
/// table-scanning UPDATE or, now and then, behind two — and p99 swings
/// between the two from run to run.
const WRITER_CONNECTION: u64 = 0;
const WRITE_ONE_IN: u64 = 5;

/// A client over the wire protocol's public encode/decode functions, so the
/// traced run can time encode, write, wait and decode apart.
struct RawClient {
    stream: TcpStream,
    next_id: u64,
}

impl RawClient {
    fn connect(addr: SocketAddr, tenant: &str) -> Result<RawClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut client = RawClient { stream, next_id: 1 };
        client.send(&encode_frame(&Frame::Hello {
            tenant: tenant.to_string(),
        }))?;
        match decode_payload(&client.receive()?).map_err(|e| e.to_string())? {
            Frame::HelloAck => Ok(client),
            other => Err(format!("handshake refused: {other:?}")),
        }
    }

    fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// One frame's payload (the bytes after the length prefix).
    fn receive(&mut self) -> Result<Vec<u8>, String> {
        let mut len = [0u8; 4];
        self.stream
            .read_exact(&mut len)
            .map_err(|e| format!("read: {e}"))?;
        let len = u32::from_le_bytes(len) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(format!("frame length {len} out of range"));
        }
        let mut payload = vec![0u8; len];
        self.stream
            .read_exact(&mut payload)
            .map_err(|e| format!("read: {e}"))?;
        Ok(payload)
    }

    /// One query; returns `(rows, rows_affected)`. With a recorder, the four
    /// client-side steps become spans under one `client.request`.
    fn query(
        &mut self,
        sql: &str,
        rec: Option<(&mut Recorder, u64)>,
    ) -> Result<(Vec<Vec<Value>>, u64), String> {
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let bytes = encode_frame(&Frame::Query {
            id,
            deadline_ms: 0,
            sql: sql.to_string(),
        });
        let t1 = Instant::now();
        self.send(&bytes)?;
        let t2 = Instant::now();
        let payload = self.receive()?;
        let t3 = Instant::now();
        let frame = decode_payload(&payload);
        let t4 = Instant::now();
        if let Some((rec, request)) = rec {
            let at = [t0, t1, t2, t3, t4].map(|t| rec.at(t));
            let parent = rec.push("client.request", at[0], at[4], NO_PARENT, request);
            for (i, name) in ["wire.encode", "client.write", "client.wait", "wire.decode"]
                .into_iter()
                .enumerate()
            {
                rec.push(name, at[i], at[i + 1], parent, request);
            }
        }
        match frame.map_err(|e| e.to_string())? {
            Frame::Rows {
                id: got,
                rows,
                rows_affected,
                ..
            } if got == id => Ok((rows, rows_affected)),
            Frame::Err { error, .. } => Err(error.to_string()),
            other => Err(format!("unexpected response {other:?}")),
        }
    }
}

/// One connection's generator state.
struct Connection {
    client: RawClient,
    index: u64,
    stream: AdhocStream,
    rng: Rng,
    sent: u64,
}

#[derive(Default)]
struct ConnectionOut {
    samples: Vec<Sample>,
    is_write: Vec<bool>,
    failed: u64,
    spans: Vec<Span>,
    served: Vec<Served>,
}

struct ServeOpen {
    graph: GraphDb,
    seed: u64,
    server: Option<ServerHandle>,
    connections: Vec<Connection>,
    reference: AdhocRef,
}

impl ServeOpen {
    fn setup(seed: u64) -> Result<Built, String> {
        let mut system_s = 0.0;
        let graph = load_follower(seed, &mut system_s)?;
        let (server, connections) = timed(&mut system_s, || -> Result<_, String> {
            let server = Server::start(
                graph.db.clone(),
                ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    // An empty plan, so the server never consults the environment.
                    faults: Some(FaultPlan {
                        seed: 0,
                        rules: Vec::new(),
                    }),
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("server start: {e}"))?;
            let connections = (0..CONNECTIONS)
                .map(|index| {
                    Ok(Connection {
                        client: RawClient::connect(server.addr(), &format!("bench-{index}"))?,
                        index,
                        stream: AdhocStream::new(graph.ds.vertex_count(), seed + index),
                        rng: Rng::new(seed ^ (0x5E4E + index)),
                        sent: 0,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok((server, connections))
        })?;
        let reference = AdhocRef::build(&graph.ds);
        Ok(Built {
            workload: Box::new(ServeOpen {
                graph,
                seed,
                server: Some(server),
                connections,
                reference,
            }),
            system_s,
        })
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until drop").addr()
    }
}

impl Connection {
    /// The next statement of the 90/10 mix. Writes set an absolute value on
    /// an existing edge, so they are idempotent.
    fn next_statement(&mut self, n_edges: u64, reference: &AdhocRef) -> (String, Expect, bool) {
        self.sent += 1;
        if self.index == WRITER_CONNECTION && self.rng.below(WRITE_ONE_IN) == 0 {
            let edge = self.rng.below(n_edges);
            let sql = format!(
                "UPDATE e_src SET weight = {}.5 WHERE id = {edge}",
                self.sent % 97
            );
            (sql, Expect::Affected(1), true)
        } else {
            let op = self.stream.next_op();
            let expect = reference.expect(&op);
            (op.sql, expect, false)
        }
    }

    fn run(
        &mut self,
        origin: Instant,
        secs: f64,
        traced: bool,
        n_edges: u64,
        reference: &AdhocRef,
    ) -> ConnectionOut {
        let clock = RealClock { origin };
        let mut out = ConnectionOut::default();
        let mut rec = Recorder::new(origin);
        let schedule = Schedule {
            first_ns: self.index * PERIOD_NS / CONNECTIONS,
            period_ns: PERIOD_NS,
        };
        // The next statement is made after the previous response is timed,
        // before sleeping: generation never delays a due request.
        let mut next = self.next_statement(n_edges, reference);
        let index = self.index;
        out.samples = drive(&clock, schedule, (secs * 1e9) as u64, |k, sent_ns| {
            let (sql, expect, is_write) = &next;
            let request = k * CONNECTIONS + index;
            let result = self
                .client
                .query(sql, traced.then_some((&mut rec, request)));
            let done_ns = clock.now_ns();
            out.is_write.push(*is_write);
            match result {
                Ok((rows, affected)) => {
                    if !check(expect, &rows, affected) {
                        out.failed += 1;
                    }
                    if traced {
                        out.served.push(Served {
                            sql: sql.clone(),
                            is_write: *is_write,
                            rows,
                            rtt_ns: done_ns - sent_ns,
                        });
                    }
                }
                Err(_) => out.failed += 1,
            }
            next = self.next_statement(n_edges, reference);
            done_ns
        });
        out.spans = rec.spans;
        out
    }
}

impl Workload for ServeOpen {
    fn round(&mut self, secs: f64, traced: bool) -> RoundOut {
        let origin = Instant::now();
        let n_edges = self.graph.ds.edge_count() as u64;
        let reference = &self.reference;
        let outs: Vec<ConnectionOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .connections
                .iter_mut()
                .map(|c| scope.spawn(move || c.run(origin, secs, traced, n_edges, reference)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect()
        });
        let mut out = RoundOut {
            wall_s: secs,
            write_wall_s: secs,
            offered: CONNECTIONS * ((secs * 1e9) as u64).div_ceil(PERIOD_NS),
            ..RoundOut::default()
        };
        let mut spans = Vec::new();
        for c in outs {
            for (s, is_write) in c.samples.iter().zip(&c.is_write) {
                if *is_write {
                    out.writes.push(s.latency_ns());
                    out.write_kind.push(0);
                } else {
                    out.reads.push(s.latency_ns());
                }
                out.late_ns.push(s.late_ns());
            }
            out.attempted += c.samples.len() as u64;
            out.failed += c.failed;
            out.served.extend(c.served);
            spans.push(c.spans);
        }
        out.read_class = vec![0; out.reads.len()];
        out.spans = merge(spans);
        out
    }
    fn graph(&self) -> &GraphDb {
        &self.graph
    }
    fn read_classes(&self) -> Vec<String> {
        vec!["adhoc_read".to_string()]
    }
    fn write_kinds(&self) -> &'static [&'static str] {
        &["update_weight"]
    }
    fn statements(&self) -> Vec<String> {
        adhoc_statements(self.graph.ds.vertex_count(), self.seed, LAYER_STATEMENTS)
    }

    fn trace_extras(&mut self, traced: &RoundOut) -> Vec<(&'static str, f64)> {
        let addr = self.addr();
        let us = |ns: u128| ns as f64 / 1e3;
        let mut extras = Vec::new();

        let connects: Vec<f64> = (0..20)
            .filter_map(|_| {
                let t = Instant::now();
                Client::connect(addr, "bench-probe")
                    .ok()
                    .map(|_| us(t.elapsed().as_nanos()))
            })
            .collect();
        extras.push(("server.connect_us", median(&connects)));

        // Closed loop, one connection, the cheapest statement: the floor.
        if let Ok(mut client) = Client::connect(addr, "bench-probe") {
            let floor: Vec<f64> = (0..300)
                .filter_map(|i| {
                    let t = Instant::now();
                    client
                        .query(&format!("SELECT name FROM v_src WHERE id = {}", i % 100))
                        .ok()
                        .map(|_| us(t.elapsed().as_nanos()))
                })
                .collect();
            extras.push(("server.rtt_floor_us", median(&floor)));
        }

        // Replay the traced round's reads in process: what the engine alone
        // costs, and a second check of what the server answered.
        let mut engine = Vec::new();
        let mut mismatched = 0u64;
        for s in traced.served.iter().filter(|s| !s.is_write) {
            let t = Instant::now();
            let replay = self.graph.db.execute(&s.sql);
            engine.push(us(t.elapsed().as_nanos()));
            if !replay.is_ok_and(|rs| rs.rows == s.rows) {
                mismatched += 1;
            }
        }
        let rtt: Vec<f64> = traced
            .served
            .iter()
            .filter(|s| !s.is_write)
            .map(|s| s.rtt_ns as f64 / 1e3)
            .collect();
        extras.push(("server.engine_us", median(&engine)));
        extras.push(("server.served_p50_us", median(&rtt)));
        extras.push(("server.replay_mismatches", mismatched as f64));

        let stats = self.server.as_ref().map(|s| s.stats()).unwrap_or_default();
        let sum =
            |f: fn(&grfusion_server::TenantStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        extras.push(("server.admitted", sum(|t| t.admitted)));
        extras.push(("server.shed", sum(|t| t.shed)));
        extras.push(("server.in_flight_end", sum(|t| t.in_flight as u64)));
        extras
    }

    fn finish(&mut self) -> (u64, u64) {
        // With every response read, nothing may be left in flight.
        let in_flight: usize = self
            .server
            .as_ref()
            .map(|s| s.stats().iter().map(|t| t.in_flight).sum())
            .unwrap_or(0);
        (1, u64::from(in_flight != 0))
    }
}

impl Drop for ServeOpen {
    fn drop(&mut self) {
        // Close the client sockets first so the connection threads see EOF.
        self.connections.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
