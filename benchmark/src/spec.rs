//! The benchmark's fixed vocabulary: workloads, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root says
//! the same thing to the driver; a test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    /// Closed loop, or open loop with its rate.
    pub load: &'static str,
    pub why: &'static str,
}

pub const WORKLOAD_SPECS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "graph_prepared",
        load: "closed loop, 1 thread",
        why: "prepared reach/constrained/shortest-path probes on follower(20000): the graph kernel does the work; sql, planner and server are bypassed",
    },
    WorkloadSpec {
        name: "analytic_prepared",
        load: "closed loop, 1 thread",
        why: "prepared ms-scale scan/join/aggregate on fact(20000) plus triangle count on protein(2000): per-row operator and storage-scan cost dominates",
    },
    WorkloadSpec {
        name: "adhoc_short",
        load: "closed loop, 1 thread",
        why: "SQL text with Zipf(1) literals on follower(20000): execution is microseconds, so parse and plan are a large share of every op",
    },
    WorkloadSpec {
        name: "mixed_rw",
        load: "closed loop, 1 writer + 1 reader thread",
        why: "net-zero edge cycles beside reach probes on one Database: view maintenance, delta overlay, re-seal and the writer lock",
    },
    WorkloadSpec {
        name: "serve_open",
        load: "open loop, 2 connections, 400 req/s",
        why: "loopback server, 90% ad-hoc reads / 10% updates timed from the due time: server hand-offs, wire and admission dominate the engine",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen — except
    /// `failed_frac`, whose bound is absolute.
    pub bound: f64,
    pub absolute: bool,
    /// Reported by every workload, never 0, and repeating within its bound
    /// on every workload, so the driver's contract can carry it as an
    /// end-to-end metric. The others ride in the per-layer block as
    /// `e2e.<name>`: `write_*` exist on two workloads only, `failed_frac` is
    /// 0, and `read_p99_us` on `mixed_rw` and `serve_open` is a wait behind a
    /// table-scanning write that spread 26–51 % between runs of the same code
    /// (README, *The bounds*). The run document and `compare` keep all nine.
    pub universal: bool,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "read_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        absolute: false,
        universal: true,
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
        universal: true,
    },
    EndToEnd {
        name: "read_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
        universal: false,
    },
    EndToEnd {
        name: "write_ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        absolute: false,
        universal: false,
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
        universal: false,
    },
    EndToEnd {
        name: "write_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
        universal: false,
    },
    EndToEnd {
        name: "failed_frac",
        unit: "frac",
        better: Better::Lower,
        bound: 0.001,
        absolute: true,
        universal: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
        universal: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        absolute: false,
        universal: true,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this layer metric should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every traced run prints every one of these; a metric whose layer the
/// workload does not touch reads 0.
pub const PER_LAYER: [PerLayer; 69] = [
    layer(
        "sql.parse_us",
        "us",
        Lower,
        "read_p50_us on adhoc_short, serve_open",
    ),
    layer("core.prepare_us", "us", Lower, "read_p50_us on adhoc_short"),
    layer("core.plan_us", "us", Lower, "read_p50_us on adhoc_short"),
    layer(
        "core.exec_prepared_us",
        "us",
        Lower,
        "read_p50_us on every in-process workload",
    ),
    layer(
        "core.adhoc_tax_frac",
        "frac",
        Lower,
        "read_ops_s on adhoc_short",
    ),
    layer(
        "exec.root_time_us",
        "us",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.build_us",
        "us",
        Lower,
        "read_p50_us on analytic_prepared, adhoc_short",
    ),
    layer(
        "exec.next_calls_per_row",
        "count",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.self_us.TableScan",
        "us",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.self_us.Filter",
        "us",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.self_us.Project",
        "us",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.self_us.IndexJoin",
        "us",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.self_us.NestedLoopJoin",
        "us",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.self_us.Aggregate",
        "us",
        Lower,
        "read_p50_us on analytic_prepared",
    ),
    layer(
        "exec.self_us.PathScan",
        "us",
        Lower,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "exec.self_us.Limit",
        "us",
        Lower,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "graph.kernel_reach_us",
        "us",
        Lower,
        "read_p50_us on graph_prepared, mixed_rw",
    ),
    layer(
        "graph.kernel_sp_us",
        "us",
        Lower,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "graph.engine_over_kernel_x",
        "x",
        Lower,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "graph.edges_expanded_per_op",
        "count",
        Lower,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "graph.vertices_visited_per_op",
        "count",
        Lower,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "graph.tuple_derefs_per_op",
        "count",
        Lower,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "graph.paths_per_edge_expanded",
        "frac",
        Higher,
        "read_p50_us on graph_prepared",
    ),
    layer(
        "graph.seal_ms",
        "ms",
        Lower,
        "setup_s everywhere; write_p99_us on mixed_rw",
    ),
    layer("graph.create_view_ms", "ms", Lower, "setup_s everywhere"),
    layer("storage.bulk_load_ms", "ms", Lower, "setup_s everywhere"),
    layer("graph.topology_bytes", "bytes", Lower, "peak_rss_mb"),
    layer("graph.sealed_bytes", "bytes", Lower, "peak_rss_mb"),
    layer(
        "graph.overlay_bytes",
        "bytes",
        Lower,
        "peak_rss_mb on mixed_rw",
    ),
    layer(
        "storage.insert_us",
        "us",
        Lower,
        "write_p50_us on mixed_rw; setup_s",
    ),
    layer(
        "storage.index_get_us",
        "us",
        Lower,
        "read_p50_us on adhoc_short",
    ),
    layer(
        "storage.scan_ns_per_row",
        "ns",
        Lower,
        "read_p50_us on analytic_prepared; write_p50_us on mixed_rw",
    ),
    layer(
        "dml.insert_edge_us",
        "us",
        Lower,
        "write_p50_us on mixed_rw",
    ),
    layer("dml.relink_us", "us", Lower, "write_p50_us on mixed_rw"),
    layer(
        "dml.update_attr_us",
        "us",
        Lower,
        "write_p50_us on mixed_rw",
    ),
    layer(
        "dml.delete_edge_us",
        "us",
        Lower,
        "write_p50_us on mixed_rw",
    ),
    layer("dml.stmt_max_us", "us", Lower, "write_p99_us on mixed_rw"),
    layer(
        "dml.slow_stmt_frac",
        "frac",
        Lower,
        "write_p99_us on mixed_rw",
    ),
    layer(
        "mixed.read_base_p50_us",
        "us",
        Lower,
        "base of mixed.read_slowdown_x",
    ),
    layer(
        "mixed.read_slowdown_x",
        "x",
        Lower,
        "read_p50_us on mixed_rw",
    ),
    layer(
        "wire.encode_query_us",
        "us",
        Lower,
        "read_p50_us on serve_open",
    ),
    layer(
        "wire.decode_query_us",
        "us",
        Lower,
        "read_p50_us on serve_open",
    ),
    layer(
        "wire.encode_rows_us",
        "us",
        Lower,
        "read_p50_us on serve_open",
    ),
    layer(
        "wire.decode_rows_us",
        "us",
        Lower,
        "read_p50_us on serve_open",
    ),
    layer("tenant.admit_us", "us", Lower, "read_p50_us on serve_open"),
    layer("server.connect_us", "us", Lower, "setup_s on serve_open"),
    layer(
        "server.rtt_floor_us",
        "us",
        Lower,
        "read_p50_us on serve_open",
    ),
    layer("server.engine_us", "us", Lower, "read_p50_us on serve_open"),
    layer(
        "server.served_p50_us",
        "us",
        Lower,
        "read_p50_us on serve_open",
    ),
    layer(
        "server.overhead_us",
        "us",
        Lower,
        "read_p50_us, read_p99_us on serve_open",
    ),
    layer(
        "server.overhead_frac",
        "frac",
        Lower,
        "read_p50_us on serve_open",
    ),
    layer(
        "server.replay_mismatches",
        "count",
        Lower,
        "failed_frac on serve_open",
    ),
    layer("server.admitted", "count", Higher, "validity of serve_open"),
    layer("server.shed", "count", Lower, "failed_frac on serve_open"),
    layer(
        "server.in_flight_end",
        "count",
        Lower,
        "failed_frac on serve_open",
    ),
    layer(
        "loadgen.late_p50_us",
        "us",
        Lower,
        "validity of serve_open latencies",
    ),
    layer(
        "loadgen.late_p99_us",
        "us",
        Lower,
        "validity of serve_open latencies",
    ),
    layer(
        "loadgen.achieved_over_offered",
        "frac",
        Higher,
        "read_ops_s on serve_open",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        Lower,
        "nothing: the cost of looking",
    ),
    layer(
        "trace.spans",
        "count",
        Higher,
        "nothing: the cost of looking",
    ),
    layer(
        "e2e.read_p99_us",
        "us",
        Lower,
        "end-to-end everywhere; on mixed_rw, serve_open a wait behind a write",
    ),
    layer(
        "e2e.write_ops_s",
        "1/s",
        Higher,
        "end-to-end on mixed_rw, serve_open",
    ),
    layer(
        "e2e.write_p50_us",
        "us",
        Lower,
        "end-to-end on mixed_rw, serve_open",
    ),
    layer(
        "e2e.write_p99_us",
        "us",
        Lower,
        "end-to-end on mixed_rw, serve_open",
    ),
    layer(
        "e2e.failed_frac",
        "frac",
        Lower,
        "end-to-end everywhere; expected 0",
    ),
    layer(
        "valid.pathscan_share",
        "frac",
        Higher,
        "graph_prepared still stresses the kernel",
    ),
    layer(
        "valid.relational_share",
        "frac",
        Higher,
        "analytic_prepared still stresses the operators",
    ),
    layer(
        "valid.reseals_per_round",
        "count",
        Higher,
        "mixed_rw still crosses the re-seal threshold",
    ),
    layer(
        "valid.zipf_repeat_frac",
        "frac",
        Higher,
        "adhoc_short still repeats hot statements",
    ),
];

/// Recorded in every output; supersedes the "1 core" prose elsewhere.
pub const NOTES: &str =
    "Measured on a shared 2-core container (nproc = 2): load is generated from \
one process with at most 2 generator threads or connections, and with two threads busy nothing is \
left for the OS, so tails (p99) carry scheduler noise that medians do not. Latencies are this \
sandbox's, not a server's; compare runs made on the same box only. Each workload runs in a fresh \
process; end-to-end metrics are the best of the untraced rounds (median and spread beside them), per-layer metrics come from a \
separate traced round and from timing calls into each layer's public functions.";
