//! Per-layer measurements taken from outside, by timing calls into each
//! layer's public functions (the traced run's second half).

use std::sync::Arc;
use std::time::{Duration, Instant};

use grfusion::{Database, Value};
use grfusion_common::{DataType, RowId, Schema};
use grfusion_datasets::{pairs_at_distance, random_connected_pairs, Adjacency, Dataset};
use grfusion_graph::{shortest_path, DfsPaths, GraphTopology, NoFilter, TraversalSpec};
use grfusion_server::wire::{decode_payload, encode_frame, Frame};
use grfusion_server::{TenantQuota, TenantRegistry};
use grfusion_sql::parse_statement;
use grfusion_storage::{IndexKind, Table};

use crate::data::ms_since;
use crate::ops::{Metered, SP_TEMPLATE};
use crate::stats::median;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Where an ad-hoc statement's time goes before and around execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct SqlCore {
    pub parse_us: f64,
    pub prepare_us: f64,
    pub exec_prepared_us: f64,
    pub execute_us: f64,
    /// Mean over the same statements, for the build/root split.
    pub exec_prepared_mean_us: f64,
    pub root_mean_us: f64,
}

/// Parse, prepare, run prepared, run as text and run instrumented, each
/// statement in turn, until the statements or the time budget run out.
/// Medians are over statements.
pub fn sql_core(db: &Database, statements: &[String], budget: Duration) -> SqlCore {
    let started = Instant::now();
    let (mut parse, mut prepare, mut prepared, mut execute, mut root) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for sql in statements {
        if started.elapsed() > budget && parse.len() >= 4 {
            break;
        }
        let t = Instant::now();
        let parsed = parse_statement(sql);
        parse.push(us_since(t));
        drop(parsed);

        let t = Instant::now();
        let Ok(query) = db.prepare(sql) else { continue };
        prepare.push(us_since(t));

        let t = Instant::now();
        let rs = db.execute_prepared(&query, &[]);
        prepared.push(us_since(t));
        drop(rs);

        let t = Instant::now();
        let rs = db.execute(sql);
        execute.push(us_since(t));
        drop(rs);

        if let Ok(Some(m)) = db.execute_with_metrics(sql).map(|rs| rs.metrics) {
            root.push(m.nodes.first().map_or(0.0, |n| n.time_ns as f64 / 1e3));
        }
    }
    SqlCore {
        parse_us: median(&parse),
        prepare_us: median(&prepare),
        exec_prepared_us: median(&prepared),
        execute_us: median(&execute),
        exec_prepared_mean_us: mean(&prepared),
        root_mean_us: mean(&root),
    }
}

/// Exact work counters over a fixed list of statements: the same seed gives
/// the same list, so on a read-only workload the sums repeat bit for bit.
pub fn counter_pass(db: &Database, statements: &[String]) -> Metered {
    let mut totals = Metered::default();
    for sql in statements {
        if let Ok(Some(m)) = db.execute_with_metrics(sql).map(|rs| rs.metrics) {
            totals.add(&m);
        }
    }
    totals
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Storage {
    pub insert_us: f64,
    pub index_get_us: f64,
    pub scan_ns_per_row: f64,
}

/// `Table::insert`, `Index::get` and `Table::scan` on a table the benchmark
/// builds: 20 000 three-column rows with a unique hash index on the key.
pub fn storage() -> Storage {
    const ROWS: i64 = 20_000;
    const REPEATS: usize = 5;
    let (mut insert, mut get, mut scan) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let schema = Schema::from_pairs(&[
            ("id", DataType::Integer),
            ("grp", DataType::Integer),
            ("val", DataType::Double),
        ]);
        let mut table = Table::new("bench", schema);
        if table
            .create_index("bench_pk", 0, true, IndexKind::Hash)
            .is_err()
        {
            return Storage::default();
        }
        let rows: Vec<Vec<Value>> = (0..ROWS)
            .map(|id| {
                vec![
                    Value::Integer(id),
                    Value::Integer(id % 64),
                    Value::Double(id as f64 / 8.0),
                ]
            })
            .collect();
        let t = Instant::now();
        for row in rows {
            let _ = std::hint::black_box(table.insert(row));
        }
        insert.push(us_since(t) / ROWS as f64);

        if let Some(index) = table.index_on(0, None) {
            let t = Instant::now();
            let mut hits = 0usize;
            for k in 0..ROWS {
                // A stride walks the keys out of insertion order.
                hits += index.get(&Value::Integer((k * 7919) % ROWS)).len();
            }
            std::hint::black_box(hits);
            get.push(us_since(t) / ROWS as f64);
        }

        let t = Instant::now();
        let mut sum = 0.0;
        let mut n = 0u64;
        for (_, row) in table.scan() {
            sum += row[2].as_double().unwrap_or(0.0);
            n += 1;
        }
        std::hint::black_box(sum);
        scan.push(us_since(t) * 1e3 / n.max(1) as f64);
    }
    Storage {
        insert_us: median(&insert),
        index_get_us: median(&get),
        scan_ns_per_row: median(&scan),
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Wire {
    pub encode_query_us: f64,
    pub decode_query_us: f64,
    pub encode_rows_us: f64,
    pub decode_rows_us: f64,
}

impl Wire {
    pub fn total_us(&self) -> f64 {
        self.encode_query_us + self.decode_query_us + self.encode_rows_us + self.decode_rows_us
    }
}

/// `encode_frame` / `decode_payload` on the frames this workload's
/// statements and their results would travel in.
pub fn wire(db: &Database, statements: &[String]) -> Wire {
    let (mut eq, mut dq, mut er, mut dr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let time_frame = |frame: &Frame, enc: &mut Vec<f64>, dec: &mut Vec<f64>| {
        let t = Instant::now();
        let bytes = encode_frame(frame);
        enc.push(us_since(t));
        let t = Instant::now();
        let decoded = decode_payload(&bytes[4..]);
        dec.push(us_since(t));
        std::hint::black_box(decoded.is_ok());
    };
    for (id, sql) in statements.iter().enumerate() {
        let query = Frame::Query {
            id: id as u64,
            deadline_ms: 0,
            sql: sql.clone(),
        };
        time_frame(&query, &mut eq, &mut dq);
        let Ok(rs) = db.execute(sql) else { continue };
        let rows = Frame::Rows {
            id: id as u64,
            columns: rs.schema.columns().iter().map(|c| c.name.clone()).collect(),
            rows: rs.rows,
            rows_affected: rs.rows_affected,
        };
        time_frame(&rows, &mut er, &mut dr);
    }
    Wire {
        encode_query_us: median(&eq),
        decode_query_us: median(&dq),
        encode_rows_us: median(&er),
        decode_rows_us: median(&dr),
    }
}

/// `TenantRegistry::admit` plus the permit's release, per admission.
pub fn tenant_admit_us() -> f64 {
    const N: usize = 10_000;
    let registry = Arc::new(TenantRegistry::new(TenantQuota::default(), 8, 25));
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..N {
                drop(std::hint::black_box(registry.admit("bench", 64)));
            }
            us_since(t) / N as f64
        })
        .collect();
    median(&batches)
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Kernel {
    pub seal_ms: f64,
    /// `DfsPaths` from the source, bounded at 4 hops, until the first path
    /// that ends at the target — pairs at hop distance exactly 4. The
    /// engine's visited-set reachability fast path is private to
    /// `core::exec`; the public kernel enumerates simple paths.
    pub reach_us: f64,
    /// `shortest_path` over the same pairs the engine's SP probes use.
    pub sp_us: f64,
    /// The engine's prepared `HINT(SHORTESTPATH(weight))` on those pairs:
    /// the same Dijkstra, reached through the relational wrapper.
    pub engine_sp_us: f64,
}

/// The traversal kernel measured apart from the engine (GRAPHITE's split):
/// a `GraphTopology` the benchmark builds from the same dataset.
pub fn kernel(ds: &Dataset, db: &Database, seed: u64) -> Kernel {
    const PAIRS: usize = 32;
    const REPEATS: usize = 3;
    let w = ds.weight_attr_index();
    let mut g = GraphTopology::new("kernel", ds.directed);
    let mut slots = Vec::with_capacity(ds.vertex_count());
    for (id, _) in &ds.vertices {
        match g.add_vertex(*id, RowId(*id as u64)) {
            Ok(slot) => slots.push(slot),
            Err(_) => return Kernel::default(),
        }
    }
    // Edge slots are handed out in insertion order, so they index `weights`.
    let mut weights = Vec::with_capacity(ds.edge_count());
    for (id, from, to, attrs) in &ds.edges {
        match g.add_edge(*id, *from, *to, RowId(*id as u64)) {
            Ok(slot) if slot as usize == weights.len() => {
                weights.push(attrs[w].as_double().unwrap_or(f64::INFINITY));
            }
            _ => return Kernel::default(),
        }
    }
    let t = Instant::now();
    g.seal();
    let mut out = Kernel {
        seal_ms: ms_since(t),
        ..Kernel::default()
    };

    let adj = Adjacency::build(ds);
    let mut reach = Vec::new();
    for &(s, t) in &pairs_at_distance(ds, &adj, 4, PAIRS, seed) {
        for _ in 0..REPEATS {
            let clock = Instant::now();
            let hit = DfsPaths::new(
                &g,
                vec![slots[s as usize]],
                TraversalSpec::new(1, 4),
                NoFilter,
            )
            .find(|p| p.end_vertex() == t);
            reach.push(us_since(clock));
            std::hint::black_box(hit);
        }
    }
    out.reach_us = median(&reach);

    let (mut sp, mut engine) = (Vec::new(), Vec::new());
    let prepared = db.prepare(SP_TEMPLATE).ok();
    for &(s, t) in &random_connected_pairs(ds, &adj, 6, PAIRS, seed) {
        for _ in 0..REPEATS {
            let clock = Instant::now();
            let path = shortest_path(
                &g,
                slots[s as usize],
                slots[t as usize],
                |_, e| weights[e as usize],
                &NoFilter,
            );
            sp.push(us_since(clock));
            std::hint::black_box(path.is_ok());
            if let Some(q) = &prepared {
                let clock = Instant::now();
                let rs = db.execute_prepared(q, &[Value::Integer(s), Value::Integer(t)]);
                engine.push(us_since(clock));
                std::hint::black_box(rs.is_ok());
            }
        }
    }
    out.sp_us = median(&sp);
    out.engine_sp_us = median(&engine);
    out
}
