//! Morsel-driven intra-query parallelism for graph operators.
//!
//! A standalone `PathScan` over many seed vertexes is embarrassingly
//! parallel: each seed's traversal touches only shared *read-only* state
//! (the topology, the vertex/edge tables, the bound filter inputs), so the
//! seed set can be split into fixed-size morsels and fanned out over scoped
//! worker threads (Leis et al., "Morsel-Driven Parallelism", SIGMOD 2014).
//! Workers run the exact same per-seed traversal iterators the serial
//! executor uses, so per-path semantics are identical by construction; the
//! only parallel-specific code is morsel dispatch and the merge.
//!
//! # Determinism
//!
//! The merge reproduces the serial emission order exactly:
//!
//! * **DFS** drains one seed's stack completely before starting the next
//!   seed, so the serial output is the concatenation of per-seed outputs in
//!   seed order. Concatenating per-morsel outputs in morsel order (morsels
//!   are contiguous seed ranges) is the same sequence.
//! * **BFS** uses one global FIFO queue seeded in seed order, so level
//!   `d` paths appear in (seed order, per-seed discovery order) within the
//!   level — by induction: level-`d` entries are enqueued while popping
//!   level-`d-1` entries, which are already in that order. Concatenating
//!   per-morsel outputs in morsel order and then *stably* sorting by path
//!   length reproduces exactly that (length, seed, discovery) order.
//! * **Shortest-path** scans stay serial: they consume only the first seed
//!   (one morsel — nothing to fan out), and the serial `SPScan` streams
//!   best-first so a `LIMIT k` parent stops the enumeration after `k`
//!   paths, which materialization would forfeit (top-k over a dense graph
//!   enumerates astronomically many simple paths).
//!
//! The same streaming argument applies to *any* single-morsel job
//! (anchored starts, seed sets within one morsel): the pool would add
//! materialization without adding parallelism, so those fall back to the
//! serial probe too.
//!
//! # Budget accounting
//!
//! Workers never touch the shared `RowBudget`: the budget is charged on
//! *emission*, when `PathScanOp` yields a path up the pipeline — the same
//! point at any worker count — so a `LIMIT 1` query that stays under
//! budget serially can never trip it in parallel. The physical cost of
//! morsels enumerating eagerly is governed instead by the per-query
//! [`ExecContext`]: each worker charges estimated path bytes against the
//! shared memory accountant as it enumerates and polls the deadline/cancel
//! token at every morsel claim (plus the per-expansion checks inside its
//! own bound traversal filter), so a runaway fan-out aborts promptly with
//! the governor's typed error instead of silently blowing past a row
//! budget the consumer would never have spent.
//!
//! # Failure containment
//!
//! Each morsel runs under `catch_unwind`; a panicking worker surfaces as a
//! single clean `Error::Execution` (see [`Error::from_panic`]) instead of
//! tearing down the process. The first error in morsel order wins, and an
//! atomic stop flag keeps other workers from claiming further morsels. The
//! flag is checked only at morsel-claim time, so every merged `Ok` slot is
//! a fully completed morsel.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use grfusion_common::{Error, PathData, Result, Row};
use grfusion_graph::{BfsPaths, DfsPaths, TraversalSpec, VertexSlot};

use crate::env::{GraphEnv, QueryEnv};
use crate::exec::{bind_filter, resolve_traversal};
use crate::governor::{path_bytes_at, ExecContext};
use crate::metrics::{GovCounters, GraphCounters, WorkerMetrics};
use crate::plan::{Emit, PathScanConfig, ScanMode, StartSource};

/// A completed parallel scan: the merged path buffer plus per-worker
/// counters (morsels claimed, paths enumerated, traversal work) so
/// `EXPLAIN ANALYZE` can report fan-out balance.
pub(crate) struct ParallelScanResult {
    pub paths: Vec<PathData>,
    /// Paths a counting scan's workers stepped over without materializing
    /// (`paths` is then empty); 0 otherwise.
    pub counted: u64,
    pub workers: Vec<WorkerMetrics>,
    /// Governor work done during the fan-out: bytes the workers charged to
    /// the memory accountant and cooperative checks they performed.
    pub gov: GovCounters,
}

/// Run a standalone `PathScan` through the morsel pool.
///
/// Returns `Ok(None)` when the scan should fall back to the serial probe:
/// the planner-proven reachability fast path, shortest-path scans, and any
/// seed set that fits in a single morsel — all cases where there is nothing
/// to fan out and the serial probe's streaming (a `LIMIT` parent stops it
/// early) beats materializing. Otherwise returns every qualifying path,
/// merged into the serial emission order — or, for a counting scan, just
/// how many there are; the row budget is charged later, at emission, by
/// `PathScanOp`.
pub(crate) fn try_parallel_path_scan<'e>(
    config: &PathScanConfig,
    env: &'e QueryEnv<'e>,
) -> Result<Option<ParallelScanResult>> {
    // The reachability fast path (point-to-point BFS / classic Dijkstra) answers
    // the whole query with one search from one seed, and `SPScan` always
    // traverses from a single seed — serial either way.
    if config.reachability || matches!(config.mode, ScanMode::ShortestPath { .. }) {
        return Ok(None);
    }

    let genv = env.graph(&config.graph)?;
    let topo = genv.topo;

    // Only an unanchored scan (seed set = every vertex) has a seed set
    // worth splitting; `Constant`/`Probe` starts resolve to at most one
    // seed — one morsel — so the serial probe handles them.
    let seeds: Vec<VertexSlot> = match &config.start {
        StartSource::AllVertexes => topo.vertex_slots().collect(),
        StartSource::Constant(_) | StartSource::Probe(_) => return Ok(None),
    };

    // The serial probe's own §6.3 resolution, made once for every worker.
    let (mode, spec) = resolve_traversal(config, topo);

    // Partition seeds into contiguous morsels. A single morsel (anchored
    // start, tiny seed set) has nothing to fan out — the serial probe
    // streams instead of materializing, and skips thread spawns that would
    // dominate small scans, so fall back.
    let morsels: Vec<Vec<VertexSlot>> = seeds
        .chunks(env.parallel.morsel_size.max(1))
        .map(|c| c.to_vec())
        .collect();
    if morsels.len() <= 1 {
        return Ok(None);
    }

    let n_workers = env.parallel.workers.min(morsels.len()).max(1);
    let next_morsel = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    // Fan out. Each worker claims morsels off the shared counter and runs
    // the serial per-seed iterators against the shared read-only env. Each
    // worker also keeps its own counters (thread-local plain integers, no
    // atomics) that are merged once at join time.
    let (mut slots, workers, gov) = std::thread::scope(|s| {
        let morsels = &morsels;
        let next_morsel = &next_morsel;
        let stop = &stop;
        let mode = &mode;
        let handles: Vec<_> = (0..n_workers)
            .map(|w| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut wm = WorkerMetrics {
                        worker: w,
                        ..WorkerMetrics::default()
                    };
                    let mut gov = GovCounters::default();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let idx = next_morsel.fetch_add(1, Ordering::Relaxed);
                        if idx >= morsels.len() {
                            break;
                        }
                        // Morsel boundaries are the pool's cooperative
                        // checkpoints: a tripped deadline/cancel keeps any
                        // further morsel from starting.
                        if env.gov.active() {
                            gov.checks += 1;
                            if let Err(e) = env.gov.check_now() {
                                stop.store(true, Ordering::Relaxed);
                                done.push((idx, Err(e)));
                                break;
                            }
                        }
                        let r = catch_unwind(AssertUnwindSafe(|| {
                            run_morsel(config, env, genv, &morsels[idx], mode, spec)
                        }))
                        .unwrap_or_else(|payload| Err(Error::from_panic(payload)));
                        match r {
                            Ok((paths, counted, counters, morsel_gov)) => {
                                wm.morsels += 1;
                                wm.paths += paths.len() as u64 + counted;
                                wm.counters.merge(&counters);
                                gov.merge(&morsel_gov);
                                done.push((idx, Ok(paths)));
                            }
                            Err(e) => {
                                stop.store(true, Ordering::Relaxed);
                                done.push((idx, Err(e)));
                            }
                        }
                    }
                    (done, wm, gov)
                })
            })
            .collect();
        let mut slots: Vec<(usize, Result<Vec<PathData>>)> = Vec::with_capacity(morsels.len());
        let mut workers = Vec::with_capacity(n_workers);
        let mut gov = GovCounters::default();
        for h in handles {
            match h.join() {
                Ok((done, wm, worker_gov)) => {
                    slots.extend(done);
                    workers.push(wm);
                    gov.merge(&worker_gov);
                }
                Err(payload) => slots.push((usize::MAX, Err(Error::from_panic(payload)))),
            }
        }
        (slots, workers, gov)
    });

    // Merge in morsel (= seed) order; the first error in that order wins.
    slots.sort_by_key(|(idx, _)| *idx);
    let mut merged = Vec::new();
    for (_, r) in slots {
        merged.extend(r?);
    }
    if mode == ScanMode::Bfs {
        // Stable by-length sort turns per-morsel level order into the
        // global (length, seed, discovery) order of the serial scan.
        merged.sort_by_key(|p| p.length());
    }
    Ok(Some(ParallelScanResult {
        paths: merged,
        counted: match config.emit {
            Emit::Count => workers.iter().map(|w| w.paths).sum(),
            Emit::Paths => 0,
        },
        workers,
        gov,
    }))
}

/// Enumerate every qualifying path for one morsel of seeds, charging each
/// path's estimated bytes against the shared memory accountant. A counting
/// scan steps over its paths and returns how many; any other materializes
/// them. Also returns the traversal and governor counters of this morsel's
/// enumeration.
fn run_morsel<'e>(
    config: &PathScanConfig,
    env: &'e QueryEnv<'e>,
    genv: &'e GraphEnv<'e>,
    seeds: &[VertexSlot],
    mode: &ScanMode,
    spec: TraversalSpec,
) -> Result<(Vec<PathData>, u64, GraphCounters, GovCounters)> {
    let topo = genv.topo;
    let outer_row: Row = Vec::new();
    // Traversal iterators consume the filter by value, so each morsel
    // rebinds it (binding is cheap: predicate RHS evaluation only). The
    // bound filter carries this morsel's per-expansion governor hook.
    let filter = bind_filter(config, &outer_row, env, genv)?;

    let gov: &ExecContext = &env.gov;
    let track = gov.active();
    let mut bytes = 0u64;
    let mut out = Vec::new();
    let mut counted = 0u64;
    let count_only = config.emit == Emit::Count;
    let view_name_len = topo.name().len();
    // `step` moves to the next path and hands back its length, plus the
    // path itself unless the scan only counts.
    let mut drain = |step: &mut dyn FnMut() -> Option<(usize, Option<PathData>)>| -> Result<()> {
        while let Some((length, path)) = step() {
            if track {
                let b = path_bytes_at(view_name_len, length);
                bytes += b;
                gov.charge_bytes(b)?;
            }
            match path {
                Some(p) => out.push(p),
                None => counted += 1,
            }
        }
        Ok(())
    };
    let (counters, checks) = match mode {
        ScanMode::Dfs => {
            let mut it = DfsPaths::new(topo, seeds.to_vec(), spec, filter);
            drain(&mut || {
                it.advance()
                    .then(|| (it.depth(), (!count_only).then(|| it.current())))
            })?;
            (
                GraphCounters {
                    vertices_visited: it.vertices_visited(),
                    edges_expanded: it.edges_examined(),
                    tuple_derefs: DfsPaths::filter(&it).derefs(),
                },
                DfsPaths::filter(&it).gov_checks(),
            )
        }
        ScanMode::Bfs => {
            let mut it = BfsPaths::new(topo, seeds.to_vec(), spec, filter);
            drain(&mut || {
                it.advance()
                    .then(|| (it.depth(), (!count_only).then(|| it.current())))
            })?;
            (
                GraphCounters {
                    vertices_visited: it.vertices_visited(),
                    edges_expanded: it.edges_examined(),
                    tuple_derefs: BfsPaths::filter(&it).derefs(),
                },
                BfsPaths::filter(&it).gov_checks(),
            )
        }
        // Shortest-path scans never reach the pool and `Auto` is resolved
        // before it starts; if a future edit breaks either, fail the
        // query instead of the process.
        ScanMode::ShortestPath { .. } | ScanMode::Auto => {
            return Err(Error::plan(
                "only DFS and BFS scans run in the morsel pool",
            ))
        }
    };
    // A tripped filter drains its traversal without enumerating further;
    // re-derive the governor error here so the morsel reports the abort
    // instead of returning a silently truncated buffer.
    if track {
        gov.check_now()?;
    }
    Ok((out, counted, counters, GovCounters { bytes, checks }))
}

#[cfg(test)]
mod tests {
    // The parallel scan is exercised end-to-end (including against its
    // serial twin) by `tests/tests/property.rs` and
    // `tests/tests/parallel_exec.rs`; unit coverage here sticks to the
    // pieces that do not need a full database.
    use crate::config::ParallelConfig;

    #[test]
    fn morsel_partitioning_covers_all_seeds() {
        let seeds: Vec<u32> = (0..257).collect();
        let cfg = ParallelConfig {
            workers: 4,
            morsel_size: 64,
        };
        let morsels: Vec<Vec<u32>> = seeds
            .chunks(cfg.morsel_size)
            .map(|c| c.to_vec())
            .collect();
        assert_eq!(morsels.len(), 5);
        assert_eq!(morsels.iter().map(|m| m.len()).sum::<usize>(), 257);
        // Concatenation preserves seed order.
        let flat: Vec<u32> = morsels.into_iter().flatten().collect();
        assert_eq!(flat, seeds);
    }
}
