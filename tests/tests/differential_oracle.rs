//! Cross-engine differential oracle for the sealed-CSR topology layout.
//!
//! Every workload — a seeded graph (chain / clique / power-law / random)
//! plus a random DML interleaving — is executed on three independent
//! systems and their answers are compared:
//!
//! * a GRFusion engine with `CsrConfig::sealed()` (seal at
//!   materialization, delta overlay under DML, automatic re-seal),
//! * a GRFusion engine with `CsrConfig::adjacency_only()` (the layout
//!   that existed before sealing; never compacts),
//! * the `SqlGraphSystem` baseline (graph-in-tables + join-chain SQL),
//!   loaded from the final table state.
//!
//! The two engine lanes must be *byte-identical* on full DFS/BFS path
//! enumerations and shortest-path probes — the physical layout must be
//! invisible. The SQLGraph lane pins down reachability booleans from the
//! outside, so a bug shared by both engine lanes (they share the
//! maintenance code) still gets caught.
//!
//! On mismatch a greedy minimizer shrinks the workload (drop DML ops,
//! then edges, then vertexes) while the failure persists, and the panic
//! message prints the minimal graph + DML script for replay. A proptest
//! variant feeds the same checker so proptest's own shrinking covers
//! shapes the seeded families miss.

use grfusion::{CsrConfig, Database, EngineConfig, Value};
use grfusion_baselines::{GraphSystem, SqlGraphSystem};
use grfusion_datasets::{Dataset, DatasetKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One DML operation with raw parameters; resolved against the live id
/// counters when the script is rendered, so a shrunk workload stays
/// replayable (statements that no longer apply fail on *both* engines,
/// which the oracle accepts as agreement).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    AddVertex,
    AddEdge(u32, u32),
    DeleteEdge(u32),
    DeleteVertex(u32),
    /// Retargets edge `id % next_e` to vertex `b % next_v` — the overlay
    /// workhorse: an in-place relink touches both endpoints' adjacency.
    RelinkEdge(u32, u32),
}

#[derive(Clone)]
struct Workload {
    name: String,
    n: usize,
    directed: bool,
    edges: Vec<(u32, u32)>,
    ops: Vec<Op>,
}

impl Workload {
    /// Render the DML interleaving as concrete SQL, mirroring the id
    /// arithmetic of `property.rs`'s maintenance fuzzer.
    fn script(&self) -> Vec<String> {
        let mut next_v = self.n as i64;
        let mut next_e = self.edges.len() as i64;
        let mut out = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            out.push(match *op {
                Op::AddVertex => {
                    next_v += 1;
                    format!("INSERT INTO v VALUES ({})", next_v - 1)
                }
                Op::AddEdge(a, b) => {
                    let (a, b) = (a as i64 % next_v, b as i64 % next_v);
                    next_e += 1;
                    format!("INSERT INTO e VALUES ({}, {a}, {b}, 1.5)", next_e - 1)
                }
                Op::DeleteEdge(x) => {
                    format!("DELETE FROM e WHERE id = {}", x as i64 % next_e.max(1))
                }
                Op::DeleteVertex(x) => {
                    format!("DELETE FROM v WHERE id = {}", x as i64 % next_v)
                }
                Op::RelinkEdge(x, b) => format!(
                    "UPDATE e SET b = {} WHERE id = {}",
                    b as i64 % next_v,
                    x as i64 % next_e.max(1)
                ),
            });
        }
        out
    }

    /// Pretty-print for failure reports: the graph plus the replay script.
    fn render(&self) -> String {
        let mut s = format!(
            "workload {} ({} vertexes, {}, {} edges)\n  edges: {:?}\n  script:\n",
            self.name,
            self.n,
            if self.directed { "directed" } else { "undirected" },
            self.edges.len(),
            self.edges
        );
        for stmt in self.script() {
            s.push_str("    ");
            s.push_str(&stmt);
            s.push('\n');
        }
        s
    }
}

fn gen_ops(rng: &mut StdRng, count: usize) -> Vec<Op> {
    (0..count)
        .map(|_| match rng.gen_range(0..6u32) {
            0 => Op::AddVertex,
            1 | 2 => Op::AddEdge(rng.gen_range(0..64), rng.gen_range(0..64)),
            3 => Op::DeleteEdge(rng.gen_range(0..64)),
            4 => Op::DeleteVertex(rng.gen_range(0..64)),
            _ => Op::RelinkEdge(rng.gen_range(0..64), rng.gen_range(0..64)),
        })
        .collect()
}

/// The seeded workload family: seed selects the graph shape (chain,
/// clique, power-law, uniform random) and drives every random choice, so
/// a failing seed replays exactly.
fn gen_workload(seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(0x5EA1_0000 ^ seed);
    let directed = rng.gen::<bool>();
    let (shape, n, mut edges): (&str, usize, Vec<(u32, u32)>) = match seed % 4 {
        0 => {
            let n = rng.gen_range(4..10usize);
            ("chain", n, (0..n as u32 - 1).map(|i| (i, i + 1)).collect())
        }
        1 => {
            let n = rng.gen_range(3..6usize);
            let mut e = Vec::new();
            for i in 0..n as u32 {
                for j in (i + 1)..n as u32 {
                    e.push((i, j));
                }
            }
            ("clique", n, e)
        }
        2 => {
            // Preferential attachment: each new vertex links to an
            // endpoint of a uniformly chosen existing edge, so
            // high-degree vertexes keep winning (power-law-ish hubs).
            let n = rng.gen_range(5..10usize);
            let mut e: Vec<(u32, u32)> = vec![(0, 1)];
            for v in 2..n as u32 {
                let (a, b) = e[rng.gen_range(0..e.len())];
                let hub = if rng.gen::<bool>() { a } else { b };
                e.push((v, hub));
            }
            for _ in 0..rng.gen_range(0..3usize) {
                let (a, b) = e[rng.gen_range(0..e.len())];
                let hub = if rng.gen::<bool>() { a } else { b };
                e.push((rng.gen_range(0..n as u32), hub));
            }
            ("power-law", n, e)
        }
        _ => {
            let n = rng.gen_range(2..10usize);
            let m = rng.gen_range(0..2 * n);
            let e = (0..m)
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            ("random", n, e)
        }
    };
    edges.truncate(24);
    let op_count = rng.gen_range(0..16usize);
    let ops = gen_ops(&mut rng, op_count);
    Workload {
        name: format!("seed-{seed}/{shape}"),
        n,
        directed,
        edges,
        ops,
    }
}

// ---------------------------------------------------------------------------
// The three lanes
// ---------------------------------------------------------------------------

fn build_engine(csr: CsrConfig, w: &Workload) -> Database {
    // One row per batch: every operator hands over exactly the row its
    // consumer is about to use. This is the reference the batch-size lane
    // is compared against.
    let db = build_engine_cfg(
        EngineConfig {
            csr,
            ..Default::default()
        },
        w,
    );
    db.set_batch_rows(1);
    db
}

/// The batch-size lane: sealed CSR like the reference, at the engine's own
/// batch size until the checker sweeps it.
fn build_engine_batched(w: &Workload) -> Database {
    build_engine_cfg(
        EngineConfig {
            csr: CsrConfig::sealed(),
            ..Default::default()
        },
        w,
    )
}

/// Batch sizes the lane compares against the one-row reference: the
/// engine's constant plus small sizes that make batch boundaries fall
/// inside every operator's input.
const BATCH_ROWS: [usize; 4] = [2, 3, 7, 1024];

fn build_engine_cfg(cfg: EngineConfig, w: &Workload) -> Database {
    let db = Database::with_config(cfg);
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..w.n as i64).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let erows: Vec<Vec<Value>> = w
        .edges
        .iter()
        .enumerate()
        .map(|(i, (a, b))| {
            vec![
                Value::Integer(i as i64),
                Value::Integer(*a as i64),
                Value::Integer(*b as i64),
                Value::Double(1.0 + (i % 7) as f64),
            ]
        })
        .collect();
    db.bulk_insert("e", erows).unwrap();
    db.execute(&format!(
        "CREATE {} GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
        if w.directed { "DIRECTED" } else { "UNDIRECTED" }
    ))
    .unwrap();
    db
}

/// The final table state as a `Dataset`, for loading the SQLGraph lane.
fn dataset_of(db: &Database, directed: bool) -> Dataset {
    let vertices = db
        .execute("SELECT id FROM v")
        .unwrap()
        .rows
        .iter()
        .map(|r| (r[0].as_integer().unwrap(), Vec::new()))
        .collect();
    let edges = db
        .execute("SELECT id, a, b FROM e")
        .unwrap()
        .rows
        .iter()
        .map(|r| {
            (
                r[0].as_integer().unwrap(),
                r[1].as_integer().unwrap(),
                r[2].as_integer().unwrap(),
                Vec::new(),
            )
        })
        .collect();
    Dataset {
        kind: DatasetKind::Roads, // label only; the oracle graphs are synthetic
        directed,
        vertex_schema: Vec::new(),
        edge_schema: Vec::new(),
        vertices,
        edges,
    }
}

/// Ungrouped `COUNT`s directly over a path scan. The first six plan as
/// counting scans (`emit=count`: the traversal counts, no path is built);
/// the pushed predicate of the seventh stays residual, so it keeps its
/// aggregate. The rest close a cycle over an exact window — both spellings,
/// anchored and not, DFS and BFS, with and without a pushed predicate — so
/// the planner consumes the closing conjunct into the scan. Every lane
/// below replays them; the layout lane compares them against the plan that
/// materializes every path and against the plan that leaves the closing
/// conjunct residual (`length_inference` off).
const COUNT_QUERIES: [&str; 13] = [
    "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 AND P.Length >= 1 AND P.Length <= 2",
    "SELECT COUNT(*) FROM g.Paths P HINT(DFS) WHERE P.StartVertex.Id = 1 AND P.Length <= 3",
    "SELECT COUNT(P), COUNT(*) FROM g.Paths P HINT(BFS) \
     WHERE P.StartVertex.Id = 1 AND P.Length >= 2 AND P.Length <= 3",
    "SELECT COUNT(P) FROM g.Paths P HINT(DFS) WHERE P.Length >= 1 AND P.Length <= 2",
    "SELECT COUNT(*) FROM g.Paths P HINT(BFS) WHERE P.Length = 2",
    "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 3 AND P.Length = 2",
    "SELECT COUNT(P) FROM g.Paths P WHERE P.Length >= 1 AND P.Length <= 2 AND P.Edges[0..*].w < 4.0",
    "SELECT COUNT(*) FROM g.Paths P HINT(DFS) \
     WHERE P.Length = 3 AND P.Edges[2].EndVertex = P.Edges[0].StartVertex",
    "SELECT COUNT(*) FROM g.Paths P HINT(BFS) \
     WHERE P.Length = 3 AND P.Edges[0].StartVertex = P.Edges[2].EndVertex",
    "SELECT COUNT(P) FROM g.Paths P HINT(BFS) \
     WHERE P.StartVertex.Id = 0 AND P.Length = 2 AND P.EndVertex.Id = P.StartVertex.Id",
    "SELECT COUNT(*) FROM g.Paths P HINT(DFS) \
     WHERE P.StartVertexId = P.EndVertexId AND P.Length = 2",
    "SELECT COUNT(*) FROM g.Paths P HINT(DFS) WHERE P.StartVertex.Id = 1 AND P.Length = 3 \
     AND P.Edges[2].EndVertex = P.Edges[0].StartVertex AND P.Edges[0..*].w > 1.0",
    "SELECT COUNT(*) FROM g.Paths P HINT(BFS) \
     WHERE P.Length = 2 AND P.StartVertex = P.EndVertex AND P.Edges[0..*].w < 6.0",
];

/// Order-free aggregates the layout lane holds to the same references as
/// `COUNT_QUERIES`: an anchored 2-cycle count, an anchored closing count
/// under a pushed edge predicate, `COUNT/MIN/MAX` of the path length, an
/// end-anchored count (a targeted BFS) and a `COUNT(*)` over an index join.
const AGGREGATE_QUERIES: [&str; 5] = [
    "SELECT COUNT(*) FROM g.Paths PS WHERE PS.StartVertex.Id = 0 AND PS.Length = 2 \
     AND PS.Edges[1].EndVertex = PS.Edges[0].StartVertex",
    "SELECT COUNT(*) FROM g.Paths PS WHERE PS.StartVertex.Id = 1 AND PS.Length = 3 \
     AND PS.Edges[2].EndVertex = PS.Edges[0].StartVertex AND PS.Edges[0..*].w < 6.0",
    "SELECT COUNT(*), MIN(PS.Length), MAX(PS.Length) FROM g.Paths PS \
     WHERE PS.StartVertex.Id = 1 AND PS.Length >= 1 AND PS.Length <= 3",
    "SELECT COUNT(*) FROM g.Paths PS \
     WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 2 AND PS.Length = 2",
    "SELECT COUNT(*) FROM e JOIN v ON e.b = v.id",
];

/// Switch `aggregate_pushdown` (on by default): off, an ungrouped `COUNT`
/// aggregates materialized paths instead of counting inside the scan.
fn set_aggregate_pushdown(db: &Database, on: bool) {
    let mut cfg = db.config();
    cfg.optimizer.aggregate_pushdown = on;
    db.set_config(cfg);
}

/// `sql`'s rows with `length_inference` off: the scan consumes no length
/// bound, so a cycle-closing conjunct stays in the residual filter.
fn rows_residual(db: &Database, sql: &str) -> Result<Vec<Vec<String>>, String> {
    let mut cfg = db.config();
    cfg.optimizer.length_inference = false;
    db.set_config(cfg);
    let rows = rows_exact(db, sql);
    cfg.optimizer.length_inference = true;
    db.set_config(cfg);
    rows
}

fn rows_exact(db: &Database, sql: &str) -> Result<Vec<Vec<String>>, String> {
    let rs = db.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    Ok(rs
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect())
}

// ---------------------------------------------------------------------------
// The checker
// ---------------------------------------------------------------------------

/// Run one workload through all three lanes. `Err` carries a
/// human-readable mismatch description (the minimizer re-runs this).
fn check(w: &Workload) -> Result<(), String> {
    let sealed = build_engine(CsrConfig::sealed(), w);
    let plain = build_engine(CsrConfig::adjacency_only(), w);
    let batch = build_engine_batched(w);
    if sealed.graph_stats("g").unwrap().sealed_bytes == 0 {
        return Err("sealed lane did not seal at materialization".into());
    }

    // DML interleaving: each statement must succeed on every lane with the
    // same row count, or fail on every lane.
    for stmt in w.script() {
        let a = sealed.execute(&stmt).map(|r| r.rows_affected);
        let b = plain.execute(&stmt).map(|r| r.rows_affected);
        let c = batch.execute(&stmt).map(|r| r.rows_affected);
        match (&a, &b, &c) {
            (Ok(x), Ok(y), Ok(z)) if x == y && y == z => {}
            (Err(_), Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "DML divergence on `{stmt}`: sealed {a:?} vs plain {b:?} vs batch {c:?}"
                ))
            }
        }
    }

    // Logical state: tables + maintained topology must dump identically.
    let (sd, pd) = (sealed.state_dump().unwrap(), plain.state_dump().unwrap());
    if sd != pd {
        return Err(format!("state_dump divergence:\n--- sealed\n{sd}\n--- plain\n{pd}"));
    }
    let bd = batch.state_dump().unwrap();
    if bd != sd {
        return Err(format!("state_dump divergence:\n--- sealed\n{sd}\n--- batch\n{bd}"));
    }

    // Batch-size lane: answers *and errors* over the final state must not
    // depend on how many rows an operator hands over at once — scans,
    // filters, joins, aggregates, sorts, early-stopping LIMITs over
    // relational and path inputs, and a projection that fails part-way.
    let sized = [
        "SELECT id FROM v WHERE id >= 1",
        "SELECT id, a, b, w FROM e WHERE a <> b AND w > 1.0",
        "SELECT COUNT(*), MIN(a), MAX(b), SUM(w), AVG(w) FROM e",
        "SELECT a, COUNT(*) FROM e GROUP BY a",
        "SELECT e.id, v.id FROM e JOIN v ON e.a = v.id",
        "SELECT DISTINCT a FROM e ORDER BY a DESC",
        "SELECT e.id, v.id FROM e, v WHERE e.b < v.id LIMIT 5",
        "SELECT id FROM v WHERE id >= 1 LIMIT 2",
        "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
         WHERE PS.Length >= 1 AND PS.Length <= 3 LIMIT 4",
        "SELECT v.id, PS.Length FROM v, g.Paths PS \
         WHERE PS.StartVertex.Id = v.id AND PS.Length <= 2 LIMIT 3",
        "SELECT 6 / (id - 2) FROM v",
    ];
    // A join whose outer row can match many times, under a LIMIT the
    // first outer row may fill on its own, with an outer filter that fails
    // on the second (`id = 1`): the outer must not be pulled ahead of need.
    // `e.a` gets a non-unique hash index for the index-join form (every
    // lane, so later comparisons still see one state).
    for db in [&sealed, &plain, &batch] {
        db.execute("CREATE INDEX ix_ea ON e (a)")
            .map_err(|e| format!("create index: {e}"))?;
    }
    let fan_out = [
        "SELECT v.id, e.id FROM v, e WHERE e.a = v.id AND 10 / (1 - v.id) > 0 LIMIT 2",
        "SELECT v.id, PS.Length FROM v, g.Paths PS WHERE PS.StartVertex.Id = v.id \
         AND PS.Length >= 1 AND PS.Length <= 2 AND 10 / (1 - v.id) > 0 LIMIT 2",
    ];
    for sql in sized.into_iter().chain(fan_out).chain(COUNT_QUERIES) {
        let want = rows_exact(&sealed, sql);
        for rows in BATCH_ROWS {
            batch.set_batch_rows(rows);
            let got = rows_exact(&batch, sql);
            if got != want {
                return Err(format!(
                    "batch_rows={rows} diverges on `{sql}`:\n  got {got:?}\n  want {want:?}"
                ));
            }
        }
    }

    // Full path enumerations and shortest-path probes, byte-compared
    // across layouts. Emission order is part of the contract.
    let queries = [
        "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(DFS) \
         WHERE PS.Length >= 1 AND PS.Length <= 3",
        "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(BFS) \
         WHERE PS.Length >= 1 AND PS.Length <= 3",
        "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
         WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 1",
    ];
    let aggregates = COUNT_QUERIES.into_iter().chain(AGGREGATE_QUERIES);
    for sql in queries.into_iter().chain(aggregates) {
        set_aggregate_pushdown(&sealed, false);
        let reference = rows_exact(&sealed, sql);
        set_aggregate_pushdown(&sealed, true);
        let reference = reference?;
        // The residual plan may enumerate in another order; a count cannot.
        if !queries.contains(&sql) {
            let residual = rows_residual(&sealed, sql)?;
            if residual != reference {
                return Err(format!(
                    "residual plan diverges on `{sql}`:\n  got {residual:?}\n  want {reference:?}"
                ));
            }
        }
        for (lane, db) in [("sealed", &sealed), ("plain", &plain), ("batch", &batch)] {
            let got = rows_exact(db, sql)?;
            if got != reference {
                return Err(format!(
                    "{lane} diverges on `{sql}`:\n  got {got:?}\n  want {reference:?}"
                ));
            }
        }
    }

    // Outside lane: SQLGraph join-chain reachability over the final state.
    // Walks subsume simple paths, so booleans must agree exactly.
    let ds = dataset_of(&plain, w.directed);
    let sqlgraph = SqlGraphSystem::load(&ds).map_err(|e| format!("sqlgraph load: {e}"))?;
    let ids: Vec<i64> = ds.vertices.iter().map(|(id, _)| *id).collect();
    if ids.is_empty() {
        return Ok(());
    }
    let mut rng = StdRng::seed_from_u64(0xD1FF ^ w.n as u64 ^ (w.edges.len() as u64) << 32);
    for _ in 0..12 {
        let s = ids[rng.gen_range(0..ids.len())];
        let t = ids[rng.gen_range(0..ids.len())];
        let hops = rng.gen_range(1..=4usize);
        let baseline = sqlgraph
            .reachable(s, t, hops, None)
            .map_err(|e| format!("sqlgraph reachable: {e}"))?;
        let engine = if s == t {
            true // both systems treat a vertex as trivially reaching itself
        } else {
            !rows_exact(
                &sealed,
                &format!(
                    "SELECT PS.StartVertex.Id FROM g.Paths PS HINT(BFS) \
                     WHERE PS.StartVertex.Id = {s} AND PS.EndVertex.Id = {t} \
                     AND PS.Length <= {hops} LIMIT 1"
                ),
            )?
            .is_empty()
        };
        if engine != baseline {
            return Err(format!(
                "reachability divergence {s}→{t} within {hops} hops: \
                 engine {engine} vs sqlgraph {baseline}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Greedy minimizer
// ---------------------------------------------------------------------------

/// Shrink a failing workload: repeatedly drop one DML op, then one edge,
/// then one trailing vertex, keeping any removal that still fails, until
/// no single removal reproduces. Quadratic, but failing workloads are
/// already small.
fn minimize(w: Workload) -> (Workload, String) {
    minimize_with(w, check)
}

fn minimize_with(
    mut w: Workload,
    check: impl Fn(&Workload) -> Result<(), String>,
) -> (Workload, String) {
    let mut err = check(&w).expect_err("minimize called on a passing workload");
    loop {
        let mut shrunk = false;
        let mut i = 0;
        while i < w.ops.len() {
            let mut cand = w.clone();
            cand.ops.remove(i);
            if let Err(e) = check(&cand) {
                w = cand;
                err = e;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < w.edges.len() {
            let mut cand = w.clone();
            cand.edges.remove(i);
            if let Err(e) = check(&cand) {
                w = cand;
                err = e;
                shrunk = true;
            } else {
                i += 1;
            }
        }
        while w.n > 2 && w.edges.iter().all(|&(a, b)| ((w.n - 1) as u32) > a.max(b)) {
            let mut cand = w.clone();
            cand.n -= 1;
            if let Err(e) = check(&cand) {
                w = cand;
                err = e;
                shrunk = true;
            } else {
                break;
            }
        }
        if !shrunk {
            return (w, err);
        }
    }
}

/// The minimizer itself, exercised against a synthetic failure predicate
/// (a real engine divergence would only cover this path on the day the
/// oracle fires): it must strip everything not implicated.
#[test]
fn minimizer_reaches_a_local_minimum()
{
    let w = Workload {
        name: "minimizer-probe".into(),
        n: 8,
        directed: true,
        edges: vec![(0, 1), (1, 2), (2, 3)],
        ops: vec![
            Op::AddVertex,
            Op::RelinkEdge(3, 5),
            Op::DeleteEdge(1),
            Op::RelinkEdge(7, 1),
        ],
    };
    let predicate = |w: &Workload| -> Result<(), String> {
        let relinks = w.ops.iter().filter(|o| matches!(o, Op::RelinkEdge(..))).count();
        if relinks >= 1 && w.edges.len() >= 2 {
            Err("synthetic".into())
        } else {
            Ok(())
        }
    };
    assert!(predicate(&w).is_err());
    let (min, err) = minimize_with(w, predicate);
    assert_eq!(err, "synthetic");
    // 1-minimal: one relink, two edges, and the unused tail vertexes
    // stripped down to the highest surviving endpoint.
    assert_eq!(min.edges, vec![(1, 2), (2, 3)], "{}", min.render());
    assert_eq!(min.ops, vec![Op::RelinkEdge(7, 1)]);
    assert_eq!(min.n, 4);
}

fn run_seed(seed: u64) {
    let w = gen_workload(seed);
    if check(&w).is_err() {
        let (min, err) = minimize(w);
        panic!("differential oracle failed (minimized):\n{}\n{err}", min.render());
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

/// The headline oracle: 200 seeded workloads, ~50 per graph family.
#[test]
fn differential_oracle_200_seeded_workloads() {
    for seed in 0..200u64 {
        run_seed(seed);
    }
}

/// A denser DML mix over the overlay-heavy shapes (relinks dominate after
/// a chain seals with almost no slack), biased past the re-seal
/// threshold so sealed → delta → re-seal cycles happen mid-workload.
#[test]
fn differential_oracle_reseal_churn() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_FFEE ^ seed);
        let n = rng.gen_range(4..8usize);
        let mut w = Workload {
            name: format!("churn-{seed}"),
            n,
            directed: seed % 2 == 0,
            edges: (0..n as u32 - 1).map(|i| (i, i + 1)).collect(),
            ops: Vec::new(),
        };
        w.ops = (0..24)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => Op::RelinkEdge(rng.gen_range(0..64), rng.gen_range(0..64)),
                1 => Op::AddEdge(rng.gen_range(0..64), rng.gen_range(0..64)),
                _ => Op::DeleteEdge(rng.gen_range(0..64)),
            })
            .collect();
        if check(&w).is_err() {
            let (min, err) = minimize(w);
            panic!("churn oracle failed (minimized):\n{}\n{err}", min.render());
        }
    }
}

// Free-shape variant: proptest generates graph + op stream directly and
// its shrinker minimizes structurally (complementing the greedy
// minimizer, which only deletes).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn differential_oracle_arbitrary_workloads(
        n in 2usize..9,
        edges in proptest::collection::vec((0u32..9, 0u32..9), 0..16),
        directed in any::<bool>(),
        raw_ops in proptest::collection::vec((0u32..6, 0u32..64, 0u32..64), 0..14)
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| (a % n as u32, b % n as u32))
            .collect();
        let ops = raw_ops
            .into_iter()
            .map(|(k, x, y)| match k {
                0 => Op::AddVertex,
                1 | 2 => Op::AddEdge(x, y),
                3 => Op::DeleteEdge(x),
                4 => Op::DeleteVertex(x),
                _ => Op::RelinkEdge(x, y),
            })
            .collect();
        let w = Workload {
            name: "proptest".into(),
            n,
            directed,
            edges,
            ops,
        };
        if let Err(e) = check(&w) {
            prop_assert!(false, "{}\n{e}", w.render());
        }
    }
}

// ---------------------------------------------------------------------------
// Stale-column cases: attribute DML against the sealed edge columns
// ---------------------------------------------------------------------------

/// A workload's graph with a `sel` INTEGER beside the weight, so the
/// sealed lane copies both into edge columns.
fn build_attr_engine(csr: CsrConfig, w: &Workload) -> Database {
    let db = Database::with_config(EngineConfig {
        csr,
        ..Default::default()
    });
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute(
        "CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE, sel INTEGER)",
    )
    .unwrap();
    let vrows: Vec<Vec<Value>> = (0..w.n as i64).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let erows: Vec<Vec<Value>> = (w.edges.iter().enumerate())
        .map(|(i, (a, b))| {
            vec![
                Value::Integer(i as i64),
                Value::Integer(*a as i64),
                Value::Integer(*b as i64),
                Value::Double(1.0 + (i % 7) as f64),
                Value::Integer((i as i64 * 37) % 100),
            ]
        })
        .collect();
    db.bulk_insert("e", erows).unwrap();
    db.execute(&format!(
        "CREATE {} GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w, sel = sel) FROM e",
        if w.directed { "DIRECTED" } else { "UNDIRECTED" }
    ))
    .unwrap();
    db
}

/// The reads that go through the edge columns: SPScan costs, constrained
/// reachability, a pushed predicate over whole paths and a running sum.
fn attr_queries(n: usize) -> Vec<String> {
    let mut out = vec![
        "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
         WHERE PS.Length >= 1 AND PS.Length <= 3 AND PS.Edges[0..*].sel < 50"
            .to_string(),
        "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(BFS) \
         WHERE PS.StartVertex.Id = 0 AND PS.Length <= 3 AND SUM(PS.Edges.w) < 8.0"
            .to_string(),
    ];
    for s in 0..n.min(3) {
        for t in 0..n {
            out.push(format!(
                "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
                 WHERE PS.StartVertex.Id = {s} AND PS.EndVertex.Id = {t}"
            ));
            out.push(format!(
                "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = {s} \
                 AND PS.EndVertex.Id = {t} AND PS.Length <= 4 AND PS.Edges[0..*].sel < 50 LIMIT 1"
            ));
        }
    }
    out
}

/// The sealed lane against the `adjacency_only` reference through three
/// cases: an UPDATE of the weight, then SPScan; an UPDATE of `sel`, then
/// constrained reachability; and an UPDATE inside `BEGIN … ROLLBACK`
/// across a statement that re-seals. The sealed lane must answer every
/// read as the reference does, and end in the same state.
fn check_attr(w: &Workload) -> Result<(), String> {
    let sealed = build_attr_engine(CsrConfig::sealed(), w);
    let plain = build_attr_engine(CsrConfig::adjacency_only(), w);
    let queries = attr_queries(w.n);
    let compare = |step: &str| -> Result<(), String> {
        for sql in &queries {
            let (got, want) = (rows_exact(&sealed, sql), rows_exact(&plain, sql));
            if got != want {
                return Err(format!(
                    "{step}: sealed diverges on `{sql}`:\n  got {got:?}\n  want {want:?}"
                ));
            }
        }
        let (sd, pd) = (sealed.state_dump().unwrap(), plain.state_dump().unwrap());
        if sd != pd {
            return Err(format!("{step}: state_dump divergence"));
        }
        Ok(())
    };
    let run = |stmt: &str| -> Result<(), String> {
        let (a, b) = (sealed.execute(stmt), plain.execute(stmt));
        match (&a, &b) {
            (Ok(x), Ok(y)) if x.rows_affected == y.rows_affected => Ok(()),
            _ => Err(format!("DML divergence on `{stmt}`: sealed {a:?} vs plain {b:?}")),
        }
    };
    compare("sealed")?;
    run("UPDATE e SET w = w + 2.5 WHERE id % 3 = 0")?;
    compare("UPDATE w")?;
    run("UPDATE e SET sel = 90 WHERE id % 2 = 1")?;
    compare("UPDATE sel")?;

    // Inside a transaction: an UPDATE, then a statement whose new edges
    // touch every vertex, so the sealed lane re-seals with the updated
    // values copied; ROLLBACK must take those values back.
    run("BEGIN")?;
    run("UPDATE e SET w = 9.5, sel = 95 WHERE id % 2 = 0")?;
    let ring: Vec<String> = (0..w.n)
        .map(|i| format!("({}, {i}, {}, 0.5, 5)", 1000 + i, (i + 1) % w.n))
        .collect();
    run(&format!("INSERT INTO e VALUES {}", ring.join(", ")))?;
    if sealed.graph_stats("g").unwrap().overlay_bytes != 0 {
        return Err("the ring insert did not re-seal the sealed lane".into());
    }
    compare("in the transaction, re-sealed")?;
    run("ROLLBACK")?;
    compare("after ROLLBACK")?;
    // The next re-seal copies the columns again.
    run(&format!("INSERT INTO e VALUES {}", ring.join(", ")))?;
    compare("re-sealed after the rollback")
}

#[test]
fn differential_oracle_stale_columns() {
    for seed in 0..48u64 {
        let w = gen_workload(seed);
        if let Err(err) = check_attr(&w) {
            panic!("stale-column oracle failed:\n{}\n{err}", w.render());
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrent lane: statement atomicity under concurrent readers
// ---------------------------------------------------------------------------

/// The three oracle queries, shared by the serial and concurrent lanes.
const ORACLE_QUERIES: [&str; 3] = [
    "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(DFS) \
     WHERE PS.Length >= 1 AND PS.Length <= 3",
    "SELECT PS.PathString, PS.Length FROM g.Paths PS HINT(BFS) \
     WHERE PS.Length >= 1 AND PS.Length <= 3",
    "SELECT PS.PathString, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
     WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 1",
];

/// Per-prefix serial reference: the three query answers plus the full
/// state dump after the first `prefix` script statements.
struct PrefixRef {
    rows: [Vec<Vec<String>>; 3],
    dump: String,
}

fn capture_reference(db: &Database) -> Result<PrefixRef, String> {
    Ok(PrefixRef {
        rows: [
            rows_exact(db, ORACLE_QUERIES[0])?,
            rows_exact(db, ORACLE_QUERIES[1])?,
            rows_exact(db, ORACLE_QUERIES[2])?,
        ],
        dump: db.state_dump().map_err(|e| format!("reference dump: {e}"))?,
    })
}

/// Run one workload on the default engine: a single writer
/// replays the DML script while `readers` threads hammer full path
/// enumerations and state dumps. Every read must equal the serial reference
/// after some script prefix `p`, with `before ≤ p ≤ after + 1`: `before`
/// and `after` are the writer's finished-statement count read just before
/// and just after the read, and the `+ 1` is the statement the writer may
/// have finished on the live engine but not yet counted. A statement
/// half-applied when a read ran matches no prefix.
///
/// A failed statement counts too: its rollback restores every row, but a
/// relinked edge goes back to the end of its vertexes' adjacency, so path
/// emission order after it can differ from before it.
///
/// Failure strings name the `(script-prefix, query)` pair so the minimizer
/// output pinpoints the diverging read.
fn check_concurrent(w: &Workload, readers: usize) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    let live = build_engine_batched(w);
    let reference = build_engine(CsrConfig::sealed(), w);

    // prefix 0 = the state right after setup, before any script DML. The
    // writer pushes prefix `p + 1`'s reference before it runs that
    // statement on the live engine, and counts it after (`Release`, paired
    // with the readers' `Acquire` loads).
    let expected: Mutex<Vec<PrefixRef>> = Mutex::new(vec![capture_reference(&reference)?]);
    let finished = AtomicUsize::new(0);
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let done = AtomicBool::new(false);

    let fail = |msg: String| {
        let mut f = failure.lock().unwrap();
        if f.is_none() {
            *f = Some(msg);
        }
    };
    // The prefix in `before ..= after + 1` whose reference `matches`.
    let find_prefix = |before: usize, after: usize, matches: &dyn Fn(&PrefixRef) -> bool| {
        let refs = expected.lock().unwrap();
        (before..=after + 1).find(|&p| refs.get(p).is_some_and(matches))
    };

    std::thread::scope(|scope| {
        for r in 0..readers {
            let (live, finished, failure, done) = (&live, &finished, &failure, &done);
            let (fail, find_prefix) = (&fail, &find_prefix);
            scope.spawn(move || {
                let mut iters = 0usize;
                // Keep reading until the writer finishes, and always do at
                // least two full passes so short scripts still get
                // concurrent coverage.
                while !done.load(Ordering::Acquire) || iters < 2 {
                    if failure.lock().unwrap().is_some() {
                        return;
                    }
                    for (qi, sql) in ORACLE_QUERIES.iter().enumerate() {
                        let before = finished.load(Ordering::Acquire);
                        let got = match rows_exact(live, sql) {
                            Ok(rows) => rows,
                            Err(e) => return fail(format!("reader {r}: {e}")),
                        };
                        let after = finished.load(Ordering::Acquire);
                        if find_prefix(before, after, &|p| p.rows[qi] == got).is_none() {
                            return fail(format!(
                                "reader {r}: script-prefix {before}..={}, query `{sql}`: \
                                 read matches no prefix\n  got {got:?}",
                                after + 1
                            ));
                        }
                    }
                    // The whole-database dump must also be some prefix.
                    let before = finished.load(Ordering::Acquire);
                    let dump = match live.state_dump() {
                        Ok(dump) => dump,
                        Err(e) => return fail(format!("reader {r}: state_dump: {e}")),
                    };
                    let after = finished.load(Ordering::Acquire);
                    if find_prefix(before, after, &|p| p.dump == dump).is_none() {
                        return fail(format!(
                            "reader {r}: script-prefix {before}..={}, query `state_dump`: \
                             dump matches no prefix\n--- got\n{dump}",
                            after + 1
                        ));
                    }
                    iters += 1;
                }
            });
        }

        // The writer: replay the script statement by statement on the
        // reference first, so the prefix a live statement produces always
        // has its reference in place before any reader can observe it.
        for (prefix, stmt) in w.script().iter().enumerate() {
            if failure.lock().unwrap().is_some() {
                break;
            }
            let b = reference.execute(stmt).map(|rs| rs.rows_affected);
            match capture_reference(&reference) {
                Ok(snap) => expected.lock().unwrap().push(snap),
                Err(e) => {
                    fail(format!("script-prefix {}: {e}", prefix + 1));
                    break;
                }
            }
            let a = live.execute(stmt).map(|rs| rs.rows_affected);
            match (&a, &b) {
                (Ok(x), Ok(y)) if x == y => {}
                (Err(_), Err(_)) => {} // agreement: both roll back
                _ => {
                    fail(format!(
                        "script-prefix {prefix}: DML divergence on `{stmt}`: \
                         live {a:?} vs reference {b:?}"
                    ));
                    break;
                }
            }
            finished.store(prefix + 1, Ordering::Release);
        }
        done.store(true, Ordering::Release);
    });

    match failure.into_inner().unwrap() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The concurrent headline oracle: the 200 seeded workloads, read by 4
/// concurrent reader threads while the writer replays the script on the
/// default engine. On failure the greedy minimizer re-runs the *concurrent*
/// checker and the panic names the failing (script-prefix, query) pair.
#[test]
fn concurrent_oracle_200_seeded_workloads() {
    for seed in 0..200u64 {
        let w = gen_workload(seed);
        if check_concurrent(&w, 4).is_err() {
            let (min, err) = minimize_with(w, |w| check_concurrent(w, 4));
            panic!(
                "concurrent oracle failed (minimized):\n{}\n{err}",
                min.render()
            );
        }
    }
}
