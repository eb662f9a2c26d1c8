//! One workload, start to finish: set-up (three times), warm-up, the
//! untraced rounds behind the end-to-end metrics, the traced round and the
//! layer timings behind the per-layer metrics, and the final invariants.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use crate::json::Json;
use crate::layers;
use crate::spec::{self, PER_LAYER};
use crate::stats::{median, percentile, tail, Summary, Tail};
use crate::trace::{self, Span, OPERATOR_KINDS};
use crate::workloads::{self, RoundOut, Workload};

pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub setups: usize,
    pub rounds: usize,
    pub round_secs: f64,
    pub warmup_secs: f64,
    /// Measure the end-to-end metrics (untraced rounds).
    pub end_to_end: bool,
    /// Measure the per-layer metrics (traced round + layer timings).
    pub traced: bool,
    pub out_dir: PathBuf,
}

/// Untraced rounds run before the traced one when the end-to-end phase is
/// skipped: the base of `trace.overhead_frac`.
const TRACE_BASE_ROUNDS: usize = 2;

pub struct WorkloadReport {
    pub attempted: u64,
    pub failed: u64,
    /// Everything measured, for the run document.
    pub detail: Json,
}

impl WorkloadReport {
    /// The driver's contract: the last line of standard output.
    pub fn contract_line(&self, traced: bool) -> String {
        let block = self
            .detail
            .get(if traced { "per_layer" } else { "end_to_end" })
            .map(Json::fields)
            .unwrap_or(&[]);
        let mut metrics = Json::obj();
        for (name, m) in block {
            // The contract's end-to-end block holds the metrics every
            // workload reports; the rest ride in the per-layer block.
            if !traced && !spec::end_to_end(name).is_some_and(|s| s.universal) {
                continue;
            }
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.set(name, Json::obj().with("value", value).with("unit", unit));
        }
        Json::obj()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .render()
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Median and p99 of latencies over rounds, in microseconds.
struct Latency {
    ops_s: Summary,
    ops_s_rounds: Vec<f64>,
    p50: Tail,
    p99: Tail,
}

fn latency(samples: &[Vec<u64>], walls: &[f64]) -> Option<Latency> {
    if samples.iter().all(Vec::is_empty) {
        return None;
    }
    // `tail` sorts; the caller's samples stay paired with their classes.
    let samples = &mut samples.to_vec();
    let rates: Vec<f64> = samples
        .iter()
        .zip(walls)
        .map(|(s, wall)| s.len() as f64 / wall.max(1e-9))
        .collect();
    Some(Latency {
        ops_s: Summary::best_of(&rates, true),
        ops_s_rounds: rates,
        p50: tail(samples, 0.5)?,
        p99: tail(samples, 0.99)?,
    })
}

fn summary_json(s: &Summary, per_round: &[f64], unit: &str) -> Json {
    Json::obj()
        .with("value", s.value)
        .with("unit", unit)
        .with("median", s.median)
        .with("iqr", s.iqr)
        .with("spread", s.spread())
        .with("rounds", s.rounds)
        .with(
            "per_round",
            per_round.iter().map(|&v| Json::Num(v)).collect::<Vec<_>>(),
        )
}

fn tail_json(t: &Tail, unit: &str) -> Json {
    summary_json(
        &Summary {
            value: us(t.summary.value),
            median: us(t.summary.median),
            iqr: us(t.summary.iqr),
            rounds: t.summary.rounds,
        },
        &t.per_round.iter().map(|&ns| us(ns)).collect::<Vec<_>>(),
        unit,
    )
    .with("quantile", t.q)
    .with("pooled", t.pooled)
    .with("samples", t.samples)
    .with("beyond", t.beyond)
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, r: &RoundOut) {
        self.attempted += r.attempted;
        self.failed += r.failed;
    }
}

#[derive(Default)]
struct Rounds {
    reads: Vec<Vec<u64>>,
    read_class: Vec<Vec<u8>>,
    writes: Vec<Vec<u64>>,
    write_kind: Vec<Vec<u8>>,
    read_walls: Vec<f64>,
    write_walls: Vec<f64>,
}

impl Rounds {
    fn push(&mut self, r: &mut RoundOut) {
        self.reads.push(std::mem::take(&mut r.reads));
        self.read_class.push(std::mem::take(&mut r.read_class));
        self.writes.push(std::mem::take(&mut r.writes));
        self.write_kind.push(std::mem::take(&mut r.write_kind));
        self.read_walls.push(r.wall_s);
        self.write_walls.push(r.write_wall_s);
    }
}

pub fn run_workload(cfg: &RunConfig) -> Result<WorkloadReport, String> {
    let spec = spec::WORKLOAD_SPECS
        .iter()
        .find(|w| w.name == cfg.workload)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;

    // Set-up, `setups` times; each instance is dropped before the next is
    // built so the peak RSS is one instance's, and the last is kept.
    let mut setup_s = Vec::new();
    let (mut bulk_ms, mut view_ms) = (Vec::new(), Vec::new());
    let mut instance: Option<Box<dyn Workload>> = None;
    for _ in 0..cfg.setups.max(1) {
        drop(instance.take());
        let built = workloads::setup(&cfg.workload, cfg.seed)?;
        setup_s.push(built.system_s);
        let graph = built.workload.graph();
        bulk_ms.push(graph.bulk_load_ms);
        view_ms.push(graph.create_view_ms);
        instance = Some(built.workload);
    }
    let mut w = instance.expect("at least one set-up ran");

    let read_names = w.read_classes();
    let write_names: Vec<String> = w.write_kinds().iter().map(|k| k.to_string()).collect();
    let mut tally = Tally::default();

    // Warm-up: caches fill and lazy set-up finishes before anything is timed.
    tally.add(&w.round(cfg.warmup_secs, false));

    let mut detail = Json::obj()
        .with("workload", spec.name)
        .with("load", spec.load)
        .with("why", spec.why)
        .with("seed", cfg.seed)
        .with("rounds", cfg.rounds)
        .with("round_secs", cfg.round_secs)
        .with("warmup_secs", cfg.warmup_secs);

    // Untraced rounds: the end-to-end metrics, and the base the traced
    // round's throughput is compared with.
    let mut rounds = Rounds::default();
    let n_rounds = if cfg.end_to_end {
        cfg.rounds
    } else {
        TRACE_BASE_ROUNDS
    };
    for _ in 0..n_rounds {
        let mut r = w.round(cfg.round_secs, false);
        tally.add(&r);
        rounds.push(&mut r);
    }
    let rss_mb = peak_rss_mb();
    let reads =
        latency(&rounds.reads, &rounds.read_walls).ok_or("a round completed no read operation")?;
    let writes = latency(&rounds.writes, &rounds.write_walls);
    let setup = Summary::median_of(&setup_s);

    let mut layer_values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut validity = Json::obj();
    if cfg.traced {
        let mut traced = w.round(cfg.round_secs, true);
        tally.add(&traced);
        let spans = std::mem::take(&mut traced.spans);
        let path = cfg.out_dir.join(format!("trace.{}.jsonl", cfg.workload));
        trace::write_jsonl(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        detail.set("trace_file", path.display().to_string());

        let traced_ops = traced.reads.len() as f64 / traced.wall_s.max(1e-9);
        layer_values.insert("trace.overhead_frac", 1.0 - traced_ops / reads.ops_s.median);
        layer_values.insert("trace.spans", spans.len() as f64);
        let (self_total_us, self_relational_us) =
            operator_metrics(&spans, &traced, &mut layer_values);

        // Per-kind DML timing over every write of this phase (tracing adds
        // two clock reads to a statement that scans a table).
        rounds.writes.push(std::mem::take(&mut traced.writes));
        rounds
            .write_kind
            .push(std::mem::take(&mut traced.write_kind));
        dml_metrics(&rounds, &write_names, &mut layer_values);

        if !traced.late_ns.is_empty() {
            let mut late = std::mem::take(&mut traced.late_ns);
            late.sort_unstable();
            let at = |q| us(percentile(&late, q).unwrap_or(0) as f64);
            layer_values.insert("loadgen.late_p50_us", at(0.5));
            layer_values.insert("loadgen.late_p99_us", at(0.99));
            layer_values.insert(
                "loadgen.achieved_over_offered",
                late.len() as f64 / traced.offered.max(1) as f64,
            );
        }

        // Layer timings from outside, on this workload's own statements.
        // `statements()` is fixed by the seed, so the counter pass repeats.
        let statements = w.statements();
        let db = w.graph().db.clone();
        let counters = layers::counter_pass(&db, &statements);
        let per_op = |n: u64| n as f64 / counters.queries.max(1) as f64;
        layer_values.insert(
            "graph.edges_expanded_per_op",
            per_op(counters.graph.edges_expanded),
        );
        layer_values.insert(
            "graph.vertices_visited_per_op",
            per_op(counters.graph.vertices_visited),
        );
        layer_values.insert(
            "graph.tuple_derefs_per_op",
            per_op(counters.graph.tuple_derefs),
        );
        layer_values.insert(
            "graph.paths_per_edge_expanded",
            counters.path_rows as f64 / counters.graph.edges_expanded.max(1) as f64,
        );

        let core = layers::sql_core(&db, &statements, Duration::from_millis(1500));
        layer_values.insert("sql.parse_us", core.parse_us);
        layer_values.insert("core.prepare_us", core.prepare_us);
        layer_values.insert("core.plan_us", core.prepare_us - core.parse_us);
        layer_values.insert("core.exec_prepared_us", core.exec_prepared_us);
        layer_values.insert(
            "core.adhoc_tax_frac",
            1.0 - core.exec_prepared_us / core.execute_us.max(1e-9),
        );
        layer_values.insert("exec.root_time_us", core.root_mean_us);
        let build_us = core.exec_prepared_mean_us - core.root_mean_us;
        layer_values.insert("exec.build_us", build_us);
        // A constant-anchored PathScan starts its probe — for `LIMIT 1`
        // reachability, runs the whole search — inside the operator build,
        // where the operator clock does not run. Build time is therefore
        // counted as the PathScan's; the other operators' builds are a few
        // allocations.
        // (`serve_open` instruments no query in its traced round: no shares.)
        if self_total_us > 0.0 {
            let graph_build_us = build_us.max(0.0);
            let op_total_us = self_total_us + graph_build_us;
            let pathscan_us = layer_values
                .get("exec.self_us.PathScan")
                .copied()
                .unwrap_or(0.0);
            layer_values.insert(
                "valid.pathscan_share",
                (pathscan_us + graph_build_us) / op_total_us,
            );
            layer_values.insert("valid.relational_share", self_relational_us / op_total_us);
        }

        let kernel = layers::kernel(&w.graph().ds, &db, cfg.seed);
        layer_values.insert("graph.kernel_reach_us", kernel.reach_us);
        layer_values.insert("graph.kernel_sp_us", kernel.sp_us);
        layer_values.insert(
            "graph.engine_over_kernel_x",
            if kernel.sp_us > 0.0 {
                kernel.engine_sp_us / kernel.sp_us
            } else {
                0.0
            },
        );
        layer_values.insert("graph.seal_ms", kernel.seal_ms);
        layer_values.insert("graph.create_view_ms", median(&view_ms));
        layer_values.insert("storage.bulk_load_ms", median(&bulk_ms));

        let storage = layers::storage();
        layer_values.insert("storage.insert_us", storage.insert_us);
        layer_values.insert("storage.index_get_us", storage.index_get_us);
        layer_values.insert("storage.scan_ns_per_row", storage.scan_ns_per_row);

        let wire = layers::wire(&db, &statements);
        layer_values.insert("wire.encode_query_us", wire.encode_query_us);
        layer_values.insert("wire.decode_query_us", wire.decode_query_us);
        layer_values.insert("wire.encode_rows_us", wire.encode_rows_us);
        layer_values.insert("wire.decode_rows_us", wire.decode_rows_us);
        layer_values.insert("tenant.admit_us", layers::tenant_admit_us());

        for (name, value) in w.trace_extras(&traced) {
            layer_values.insert(name, value);
        }
        if let Some(&served) = layer_values.get("server.served_p50_us") {
            let engine = layer_values.get("server.engine_us").copied().unwrap_or(0.0);
            let overhead = served - engine - wire.total_us();
            layer_values.insert("server.overhead_us", overhead);
            layer_values.insert("server.overhead_frac", overhead / served.max(1e-9));
            tally.failed += layer_values
                .get("server.replay_mismatches")
                .copied()
                .unwrap_or(0.0) as u64;
        }

        layer_values.insert("e2e.read_p99_us", us(reads.p99.summary.value));
        if let Some(wr) = &writes {
            layer_values.insert("e2e.write_ops_s", wr.ops_s.value);
            layer_values.insert("e2e.write_p50_us", us(wr.p50.summary.value));
            layer_values.insert("e2e.write_p99_us", us(wr.p99.summary.value));
        }

        // What each workload is meant to stress, recorded so that a workload
        // that stops stressing its layer shows.
        let named = |name: &str| layer_values.get(name).copied().unwrap_or(0.0);
        validity = Json::obj()
            .with("pathscan_share", named("valid.pathscan_share"))
            .with("relational_share", named("valid.relational_share"))
            .with("adhoc_tax_frac", named("core.adhoc_tax_frac"))
            .with("server_overhead_frac", named("server.overhead_frac"))
            .with("reseals_per_round", named("valid.reseals_per_round"))
            .with("zipf_repeat_frac", named("valid.zipf_repeat_frac"));
    }

    let (checks, broken) = w.finish();
    tally.attempted += checks;
    tally.failed += broken;
    let Tally { attempted, failed } = tally;
    let stats = w.graph().db.graph_stats("g").map_err(|e| e.to_string())?;
    layer_values.insert("graph.topology_bytes", stats.memory_bytes as f64);
    layer_values.insert("graph.sealed_bytes", stats.sealed_bytes as f64);
    layer_values.insert("graph.overlay_bytes", stats.overlay_bytes as f64);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    layer_values.insert("e2e.failed_frac", failed_frac);
    drop(w);

    let mut e2e = Json::obj();
    if cfg.end_to_end {
        let mut put = |name: &str, m: Json| {
            let s = spec::end_to_end(name).expect("every end-to-end metric is in the spec");
            e2e.set(
                name,
                m.with("better", s.better.as_str()).with("bound", s.bound),
            );
        };
        put(
            "read_ops_s",
            summary_json(&reads.ops_s, &reads.ops_s_rounds, "1/s"),
        );
        put("read_p50_us", tail_json(&reads.p50, "us"));
        put("read_p99_us", tail_json(&reads.p99, "us"));
        if let Some(wr) = &writes {
            put(
                "write_ops_s",
                summary_json(&wr.ops_s, &wr.ops_s_rounds, "1/s"),
            );
            put("write_p50_us", tail_json(&wr.p50, "us"));
            put("write_p99_us", tail_json(&wr.p99, "us"));
        }
        put(
            "failed_frac",
            Json::obj().with("value", failed_frac).with("unit", "frac"),
        );
        put("setup_s", summary_json(&setup, &setup_s, "s"));
        put(
            "peak_rss_mb",
            Json::obj().with("value", rss_mb).with("unit", "MB"),
        );
        detail.set("by_class", by_class(&rounds, &read_names, &write_names));
    }
    detail.set("attempted", attempted).set("failed", failed);
    detail.set("end_to_end", e2e);

    if cfg.traced {
        let mut per_layer = Json::obj();
        for m in &PER_LAYER {
            let value = layer_values.get(m.name).copied().unwrap_or(0.0);
            per_layer.set(
                m.name,
                Json::obj().with("value", value).with("unit", m.unit),
            );
        }
        detail.set("per_layer", per_layer);
        detail.set("validity", validity);
    }
    detail.set(
        "setup",
        Json::obj()
            .with(
                "system_s",
                setup_s.iter().map(|&s| Json::Num(s)).collect::<Vec<_>>(),
            )
            .with("bulk_load_ms", median(&bulk_ms))
            .with("create_view_ms", median(&view_ms)),
    );
    Ok(WorkloadReport {
        attempted,
        failed,
        detail,
    })
}

/// Median latency per read class and write kind, pooled over the rounds.
fn by_class(rounds: &Rounds, read_names: &[String], write_names: &[String]) -> Json {
    let pooled = |samples: &[Vec<u64>], classes: &[Vec<u8>], names: &[String]| {
        let mut out = Json::obj();
        for (i, name) in names.iter().enumerate() {
            let mut v: Vec<u64> = samples
                .iter()
                .zip(classes)
                .flat_map(|(s, c)| {
                    s.iter()
                        .zip(c)
                        .filter(|(_, &c)| c as usize == i)
                        .map(|(&ns, _)| ns)
                })
                .collect();
            v.sort_unstable();
            if let Some(p50) = percentile(&v, 0.5) {
                out.set(
                    name,
                    Json::obj()
                        .with("p50_us", us(p50 as f64))
                        .with("samples", v.len()),
                );
            }
        }
        out
    };
    Json::obj()
        .with(
            "reads",
            pooled(&rounds.reads, &rounds.read_class, read_names),
        )
        .with(
            "writes",
            pooled(&rounds.writes, &rounds.write_kind, write_names),
        )
}

/// Operator self times from the traced round's instrumented queries, per
/// query. Returns the self time of all operators and of the relational ones.
fn operator_metrics(
    spans: &[Span],
    traced: &RoundOut,
    out: &mut BTreeMap<&'static str, f64>,
) -> (f64, f64) {
    let totals = trace::totals_by_name(spans);
    let queries = traced.metered.queries.max(1) as f64;
    let mut all_self = 0.0;
    let mut relational = 0.0;
    for (name, t) in &totals {
        if let Some(kind) = name.strip_prefix("exec.") {
            all_self += t.self_ns as f64;
            if OPERATOR_KINDS.contains(&kind) && kind != "PathScan" && kind != "Limit" {
                relational += t.self_ns as f64;
            }
        }
    }
    for m in &PER_LAYER {
        if let Some(kind) = m.name.strip_prefix("exec.self_us.") {
            let span_name = trace::operator_span_name(kind);
            let self_ns = totals.get(span_name).map_or(0, |t| t.self_ns);
            out.insert(m.name, us(self_ns as f64) / queries);
        }
    }
    out.insert(
        "exec.next_calls_per_row",
        traced.metered.next_calls as f64 / traced.metered.rows.max(1) as f64,
    );
    (us(all_self) / queries, us(relational) / queries)
}

/// Median per statement kind (for every write kind `k` that has a
/// `dml.<k>_us` metric), the worst statement, and the share of statements
/// slower than ten times their kind's median — the re-seal spikes a median
/// hides.
fn dml_metrics(rounds: &Rounds, write_names: &[String], out: &mut BTreeMap<&'static str, f64>) {
    let (mut slow, mut total, mut max) = (0usize, 0usize, 0u64);
    for (kind, kind_name) in write_names.iter().enumerate() {
        let metric = format!("dml.{kind_name}_us");
        let Some(spec) = PER_LAYER.iter().find(|m| m.name == metric) else {
            continue;
        };
        let mut v: Vec<u64> = rounds
            .writes
            .iter()
            .zip(&rounds.write_kind)
            .flat_map(|(s, k)| {
                s.iter()
                    .zip(k)
                    .filter(|(_, &k)| k as usize == kind)
                    .map(|(&ns, _)| ns)
            })
            .collect();
        v.sort_unstable();
        let Some(p50) = percentile(&v, 0.5) else {
            continue;
        };
        out.insert(spec.name, us(p50 as f64));
        slow += v.iter().filter(|&&ns| ns > 10 * p50).count();
        total += v.len();
        max = max.max(v.last().copied().unwrap_or(0));
    }
    if total > 0 {
        out.insert("dml.stmt_max_us", us(max as f64));
        out.insert("dml.slow_stmt_frac", slow as f64 / total as f64);
    }
}
