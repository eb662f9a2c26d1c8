//! Experiment implementations — one per table/figure of EDBT 2018 §7.
//!
//! Every experiment returns its rows as [`Measurement`]s (so tests can
//! assert on shapes) and the harness binary prints them. Workloads are
//! seeded and deterministic.

use grfusion::{EngineConfig, OptimizerFlags, TraversalChoice};
use grfusion_baselines::{
    GrFusionSystem, GrailSystem, GraphSystem, NeoDb, SqlGraphSystem, TitanDb,
};
use grfusion_common::{Error, Result};
use grfusion_datasets::{
    coauthor, follower, pairs_at_distance, protein, random_connected_pairs, roads, Adjacency,
    Dataset,
};

use crate::timing::{time_once, time_per_item};

/// Scale knobs. `small()` finishes a full `harness all` run in minutes on
/// a laptop; `paper_like()` stretches toward the paper's regimes (minutes
/// to hours).
#[derive(Debug, Clone)]
pub struct ExperimentScale {
    /// Vertices per generated dataset.
    pub vertices: usize,
    /// Queries averaged per measured point.
    pub queries: usize,
    /// Reachability result path lengths (paper: 2..=20).
    pub reach_lengths: Vec<usize>,
    /// Sub-graph selectivities in percent (paper: 5..=50).
    pub selectivities: Vec<i64>,
    /// SQLGraph intermediate-result budget (reproduces the paper's DNFs).
    pub sqlgraph_budget: u64,
    pub seed: u64,
    /// Per-query wall-clock deadline for every system built on `Database`
    /// (harness `--deadline-ms`); `None` = ungoverned.
    pub deadline_ms: Option<u64>,
}

impl ExperimentScale {
    pub fn small() -> Self {
        ExperimentScale {
            vertices: 2_000,
            queries: 10,
            reach_lengths: vec![2, 4, 6, 8, 12, 16, 20],
            selectivities: vec![5, 10, 20, 30, 40, 50],
            sqlgraph_budget: 2_000_000,
            seed: 42,
            deadline_ms: None,
        }
    }

    pub fn paper_like() -> Self {
        ExperimentScale {
            vertices: 50_000,
            queries: 50,
            reach_lengths: (2..=20).step_by(2).collect(),
            selectivities: vec![5, 10, 20, 30, 40, 50],
            sqlgraph_budget: 20_000_000,
            seed: 42,
            deadline_ms: None,
        }
    }

    /// The paper's engine configuration under this scale's deadline: what
    /// every GRFusion, Grail and SQLGraph engine here starts from.
    pub fn engine(&self) -> EngineConfig {
        let mut cfg = EngineConfig::default();
        cfg.governor.deadline_ms = self.deadline_ms;
        cfg
    }

    /// The SQLGraph baseline over `ds`, with its intermediate-result budget.
    fn sqlgraph(&self, ds: &Dataset) -> Result<SqlGraphSystem> {
        let mut cfg = self.engine();
        cfg.governor.max_intermediate_rows = Some(self.sqlgraph_budget);
        SqlGraphSystem::load_with(ds, cfg)
    }

    /// The four paper datasets at this scale.
    pub fn datasets(&self) -> Vec<Dataset> {
        vec![
            roads(self.vertices, self.seed),
            protein(self.vertices, self.seed + 1),
            coauthor(self.vertices, self.seed + 2),
            follower(self.vertices, self.seed + 3),
        ]
    }
}

/// One reported cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub experiment: &'static str,
    pub dataset: String,
    pub system: String,
    /// The x-axis / parameter (path length, selectivity, metric name).
    pub x: String,
    /// Rendered value (µs, count, bytes, or DNF).
    pub value: String,
}

impl Measurement {
    pub fn line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}",
            self.experiment, self.dataset, self.system, self.x, self.value
        )
    }
}

fn m(
    experiment: &'static str,
    dataset: &str,
    system: &str,
    x: impl ToString,
    value: impl ToString,
) -> Measurement {
    Measurement {
        experiment,
        dataset: dataset.to_string(),
        system: system.to_string(),
        x: x.to_string(),
        value: value.to_string(),
    }
}

/// The GRFusion configuration §7.1 prescribes for the reachability
/// experiments: breadth-first scan, predicates NOT pushed ahead of the
/// path scan (isolating the graph-view effect).
fn fig7_grfusion_config(scale: &ExperimentScale) -> EngineConfig {
    flags_config(scale, OptimizerFlags {
        traversal: TraversalChoice::Bfs,
        predicate_pushdown: false,
        ..Default::default()
    })
}

// ---------------------------------------------------------------------------
// Table 2 — dataset properties
// ---------------------------------------------------------------------------

pub fn table2(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for ds in scale.datasets() {
        let name = ds.kind.label();
        out.push(m("table2", name, "-", "vertices", ds.vertex_count()));
        out.push(m("table2", name, "-", "edges", ds.edge_count()));
        out.push(m(
            "table2",
            name,
            "-",
            "directed",
            if ds.directed { "yes" } else { "no" },
        ));
        out.push(m(
            "table2",
            name,
            "-",
            "avg_degree",
            format!("{:.2}", ds.avg_degree()),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figure 7 — unconstrained reachability vs. result path length
// ---------------------------------------------------------------------------

pub fn fig7(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for ds in scale.datasets() {
        let name = ds.kind.label();
        let adj = Adjacency::build(&ds);
        let grf = GrFusionSystem::load_with(&ds, fig7_grfusion_config(scale))?;
        let sqg = scale.sqlgraph(&ds)?;
        let neo = NeoDb::load(&ds);
        let titan = TitanDb::load(&ds);
        let systems: Vec<&dyn GraphSystem> = vec![&grf, &sqg, &neo, &titan];
        for &len in &scale.reach_lengths {
            let pairs = pairs_at_distance(&ds, &adj, len as u32, scale.queries, scale.seed);
            if pairs.is_empty() {
                continue; // graph has no pairs at this distance
            }
            for sys in &systems {
                let t = time_per_item(&pairs, |(s, tgt)| {
                    sys.reachable(*s, *tgt, len, None).map(drop)
                })?;
                out.push(m("fig7", name, sys.name(), len, t.render()));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figure 8 — constrained reachability vs. sub-graph selectivity
// ---------------------------------------------------------------------------

pub fn fig8(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let hop_len = 4usize;
    let mut out = Vec::new();
    for ds in scale.datasets() {
        let name = ds.kind.label();
        let grf = GrFusionSystem::load_with(&ds, scale.engine())?;
        let sqg = scale.sqlgraph(&ds)?;
        let neo = NeoDb::load(&ds);
        let titan = TitanDb::load(&ds);
        let systems: Vec<&dyn GraphSystem> = vec![&grf, &sqg, &neo, &titan];
        for &sel in &scale.selectivities {
            // Query pairs connected within the selected sub-graph.
            let sub = ds.filter_edges_sel_lt(sel);
            let sub_adj = Adjacency::build(&sub);
            let pairs =
                pairs_at_distance(&sub, &sub_adj, hop_len as u32, scale.queries, scale.seed);
            if pairs.is_empty() {
                continue;
            }
            for sys in &systems {
                let t = time_per_item(&pairs, |(s, tgt)| {
                    sys.reachable(*s, *tgt, hop_len, Some(sel)).map(drop)
                })?;
                out.push(m("fig8", name, sys.name(), sel, t.render()));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figure 9 — shortest paths (vs. Grail and the graph stores)
// ---------------------------------------------------------------------------

pub fn fig9(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for ds in scale.datasets() {
        let name = ds.kind.label();
        let grf = GrFusionSystem::load_with(&ds, scale.engine())?;
        let grail = GrailSystem::load_with(&ds, scale.engine())?;
        let neo = NeoDb::load(&ds);
        let titan = TitanDb::load(&ds);
        let systems: Vec<&dyn GraphSystem> = vec![&grf, &grail, &neo, &titan];
        for &sel in &scale.selectivities {
            let sub = ds.filter_edges_sel_lt(sel);
            let sub_adj = Adjacency::build(&sub);
            let pairs = random_connected_pairs(&sub, &sub_adj, 6, scale.queries, scale.seed);
            if pairs.is_empty() {
                continue;
            }
            for sys in &systems {
                let t = time_per_item(&pairs, |(s, tgt)| {
                    sys.shortest_path_cost(*s, *tgt, Some(sel)).map(drop)
                })?;
                out.push(m("fig9", name, sys.name(), sel, t.render()));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figure 10 — triangle counting vs. edge-predicate selectivity
// ---------------------------------------------------------------------------

pub fn fig10(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for ds in scale.datasets() {
        let name = ds.kind.label();
        let grf = GrFusionSystem::load_with(&ds, scale.engine())?;
        let sqg = scale.sqlgraph(&ds)?;
        let neo = NeoDb::load(&ds);
        let titan = TitanDb::load(&ds);
        let systems: Vec<&dyn GraphSystem> = vec![&grf, &sqg, &neo, &titan];
        for &sel in &scale.selectivities {
            // Sanity: every system must report the same triangle count.
            let mut counts = Vec::new();
            for sys in &systems {
                let one = [()];
                let t = time_per_item(&one, |_| {
                    sys.count_triangles(sel).map(|c| counts.push(c))
                })?;
                out.push(m("fig10", name, sys.name(), sel, t.render()));
            }
            counts.dedup();
            if counts.len() > 1 {
                return Err(grfusion_common::Error::execution(format!(
                    "triangle-count disagreement on {name} at sel {sel}: {counts:?}"
                )));
            }
            if let Some(c) = counts.first() {
                out.push(m("fig10", name, "count", sel, c));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Table 3 — graph-view build cost (time + topology memory)
// ---------------------------------------------------------------------------

pub fn table3(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for ds in scale.datasets() {
        let name = ds.kind.label();
        let db = GrFusionSystem::prepare_tables(&ds, scale.engine())?;
        let ddl = GrFusionSystem::graph_view_ddl(&ds);
        let d = time_once(|| db.execute(&ddl).map(drop))?;
        let stats = db.graph_stats("g")?;
        out.push(m(
            "table3",
            name,
            "grfusion",
            "build_ms",
            format!("{:.2}", d.as_secs_f64() * 1e3),
        ));
        out.push(m("table3", name, "grfusion", "topology_bytes", stats.memory_bytes));
        out.push(m(
            "table3",
            name,
            "grfusion",
            "bytes_per_edge",
            format!(
                "{:.1}",
                stats.memory_bytes as f64 / stats.edge_count.max(1) as f64
            ),
        ));
        out.push(m(
            "table3",
            name,
            "grfusion",
            "avg_fan_out",
            format!("{:.2}", stats.avg_fan_out),
        ));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Ablations (§6 design choices)
// ---------------------------------------------------------------------------

fn flags_config(scale: &ExperimentScale, optimizer: OptimizerFlags) -> EngineConfig {
    EngineConfig {
        optimizer,
        ..scale.engine()
    }
}

/// §6.2 predicate pushdown on/off, fig8-style constrained reachability.
pub fn ablate_pushdown(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let ds = protein(scale.vertices, scale.seed + 1);
    let hop_len = 4usize;
    let mut out = Vec::new();
    for (label, pushdown) in [("pushdown=on", true), ("pushdown=off", false)] {
        let grf = GrFusionSystem::load_with(
            &ds,
            flags_config(scale, OptimizerFlags {
                predicate_pushdown: pushdown,
                ..Default::default()
            }),
        )?;
        for &sel in &scale.selectivities {
            let sub = ds.filter_edges_sel_lt(sel);
            let sub_adj = Adjacency::build(&sub);
            let pairs =
                pairs_at_distance(&sub, &sub_adj, hop_len as u32, scale.queries, scale.seed);
            if pairs.is_empty() {
                continue;
            }
            let t = time_per_item(&pairs, |(s, tgt)| {
                grf.reachable(*s, *tgt, hop_len, Some(sel)).map(drop)
            })?;
            out.push(m("ablate-pushdown", ds.kind.label(), label, sel, t.render()));
        }
    }
    Ok(out)
}

/// §6.1 length inference on/off, fixed-length path query.
pub fn ablate_leninfer(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let ds = coauthor(scale.vertices, scale.seed + 2);
    let adj = Adjacency::build(&ds);
    let mut out = Vec::new();
    for (label, inference) in [("inference=on", true), ("inference=off", false)] {
        let grf = GrFusionSystem::load_with(
            &ds,
            flags_config(scale, OptimizerFlags {
                length_inference: inference,
                default_max_path_len: 5,
                ..Default::default()
            }),
        )?;
        for len in [2usize, 3] {
            let pairs = pairs_at_distance(&ds, &adj, len as u32, scale.queries, scale.seed);
            if pairs.is_empty() {
                continue;
            }
            let t = time_per_item(&pairs, |(s, _)| {
                // Friends-of-friends shape: exact-length paths from s.
                let sql = format!(
                    "SELECT COUNT(P) FROM g.Paths P \
                     WHERE P.StartVertex.Id = {s} AND P.Length = {len}"
                );
                grf.db().execute(&sql).map(drop)
            })?;
            out.push(m("ablate-leninfer", ds.kind.label(), label, len, t.render()));
        }
    }
    Ok(out)
}

/// §5.1.2 lazy vs. eager path scans: `LIMIT 1` over exact-length paths
/// (a query shape the reachability fast-path cannot absorb, so the scan
/// really enumerates — lazily or eagerly).
pub fn ablate_lazy(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let ds = follower(scale.vertices, scale.seed + 3);
    let adj = Adjacency::build(&ds);
    let mut out = Vec::new();
    for (label, lazy) in [("lazy=on", true), ("lazy=off", false)] {
        let grf = GrFusionSystem::load_with(
            &ds,
            flags_config(scale, OptimizerFlags {
                lazy_path_scan: lazy,
                ..Default::default()
            }),
        )?;
        for len in [3usize, 4] {
            let pairs = pairs_at_distance(&ds, &adj, len as u32, scale.queries, scale.seed);
            if pairs.is_empty() {
                continue;
            }
            let t = time_per_item(&pairs, |(s, _)| {
                let sql = format!(
                    "SELECT PS.PathString FROM g.Paths PS \
                     WHERE PS.StartVertex.Id = {s} AND PS.Length = {len} LIMIT 1"
                );
                grf.db().execute(&sql).map(drop)
            })?;
            out.push(m("ablate-lazy", ds.kind.label(), label, len, t.render()));
        }
    }
    Ok(out)
}

/// §6.3 BFS vs. DFS across structural regimes (long-diameter roads vs.
/// high-fan-out follower graph).
pub fn ablate_traversal(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for ds in [roads(scale.vertices, scale.seed), follower(scale.vertices, scale.seed + 3)] {
        let adj = Adjacency::build(&ds);
        for (label, choice) in [
            ("dfs", TraversalChoice::Dfs),
            ("bfs", TraversalChoice::Bfs),
            ("auto", TraversalChoice::Auto),
        ] {
            let grf = GrFusionSystem::load_with(
                &ds,
                flags_config(scale, OptimizerFlags {
                    traversal: choice,
                    ..Default::default()
                }),
            )?;
            for len in [4usize, 8] {
                let pairs = pairs_at_distance(&ds, &adj, len as u32, scale.queries, scale.seed);
                if pairs.is_empty() {
                    continue;
                }
                let t = time_per_item(&pairs, |(s, tgt)| {
                    grf.reachable(*s, *tgt, len, None).map(drop)
                })?;
                out.push(m(
                    "ablate-traversal",
                    ds.kind.label(),
                    label,
                    len,
                    t.render(),
                ));
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE dump (`--metrics`) — per-operator runtime counters
// ---------------------------------------------------------------------------

/// Run one representative GRFusion query per §7 family under metrics
/// collection and report every operator's runtime counters as TSV rows
/// (`x = family/operator:counter`). Counter values (rows, next calls,
/// vertexes visited, edges expanded, tuple dereferences) are exact and
/// deterministic for a fixed scale/seed; only `time_us` varies run to run.
pub fn metrics(scale: &ExperimentScale) -> Result<Vec<Measurement>> {
    let mut out = Vec::new();
    for ds in scale.datasets() {
        let name = ds.kind.label();
        let adj = Adjacency::build(&ds);
        let grf = GrFusionSystem::load_with(&ds, scale.engine())?;
        let pair = pairs_at_distance(&ds, &adj, 4, 1, scale.seed)
            .first()
            .copied()
            .or_else(|| {
                random_connected_pairs(&ds, &adj, 4, 1, scale.seed)
                    .first()
                    .copied()
            });
        let Some((s, t)) = pair else { continue };
        let sel = scale.selectivities.last().copied().unwrap_or(50);
        let families: [(&str, String); 4] = [
            (
                "fig7",
                format!(
                    "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = {s} \
                     AND PS.EndVertex.Id = {t} AND PS.Length <= 4 LIMIT 1"
                ),
            ),
            (
                "fig8",
                format!(
                    "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = {s} \
                     AND PS.EndVertex.Id = {t} AND PS.Length <= 4 \
                     AND PS.Edges[0..*].sel < {sel} LIMIT 1"
                ),
            ),
            (
                "fig9",
                format!(
                    "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(weight)) \
                     WHERE PS.StartVertex.Id = {s} AND PS.EndVertex.Id = {t} LIMIT 1"
                ),
            ),
            (
                "fig10",
                format!(
                    "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 3 \
                     AND P.Edges[0..*].sel < {sel} \
                     AND P.Edges[2].EndVertex = P.Edges[0].StartVertex"
                ),
            ),
        ];
        for (family, sql) in &families {
            let rs = grf.db().execute_with_metrics(sql)?;
            let qm = rs
                .metrics
                .ok_or_else(|| Error::execution("metrics collection returned nothing"))?;
            for (i, n) in qm.nodes.iter().enumerate() {
                let op = format!("{family}/{i}.{}", n.label);
                out.push(m("metrics", name, "grfusion", format!("{op}:rows"), n.rows));
                out.push(m(
                    "metrics",
                    name,
                    "grfusion",
                    format!("{op}:nexts"),
                    n.next_calls,
                ));
                out.push(m(
                    "metrics",
                    name,
                    "grfusion",
                    format!("{op}:time_us"),
                    n.time_ns / 1_000,
                ));
                if let Some(g) = n.graph {
                    out.push(m(
                        "metrics",
                        name,
                        "grfusion",
                        format!("{op}:vertices"),
                        g.vertices_visited,
                    ));
                    out.push(m(
                        "metrics",
                        name,
                        "grfusion",
                        format!("{op}:edges"),
                        g.edges_expanded,
                    ));
                    out.push(m(
                        "metrics",
                        name,
                        "grfusion",
                        format!("{op}:derefs"),
                        g.tuple_derefs,
                    ));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            vertices: 200,
            queries: 3,
            reach_lengths: vec![2, 4],
            selectivities: vec![30, 60],
            sqlgraph_budget: 500_000,
            seed: 7,
            deadline_ms: None,
        }
    }

    #[test]
    fn the_deadline_reaches_every_engine_config() {
        let mut scale = tiny();
        assert_eq!(scale.engine(), EngineConfig::default());
        scale.deadline_ms = Some(5);
        for cfg in [scale.engine(), fig7_grfusion_config(&scale)] {
            assert_eq!(cfg.governor.deadline_ms, Some(5));
        }
    }

    #[test]
    fn table2_reports_all_datasets() {
        let rows = table2(&tiny()).unwrap();
        assert_eq!(rows.len(), 16); // 4 datasets × 4 metrics
        assert!(rows.iter().any(|r| r.dataset.contains("Tiger")));
    }

    #[test]
    fn fig7_produces_series_for_every_system() {
        let mut scale = tiny();
        scale.reach_lengths = vec![2];
        let rows = fig7(&scale).unwrap();
        for sys in ["grfusion", "sqlgraph", "neo4j-like", "titan-like"] {
            assert!(
                rows.iter().any(|r| r.system == sys),
                "missing series for {sys}"
            );
        }
    }

    #[test]
    fn fig10_systems_agree_on_counts() {
        let mut scale = tiny();
        scale.vertices = 120;
        // fig10 returns Err on any cross-system disagreement.
        let rows = fig10(&scale).unwrap();
        assert!(rows.iter().any(|r| r.system == "count"));
    }

    #[test]
    fn table3_reports_build_cost() {
        let rows = table3(&tiny()).unwrap();
        assert!(rows.iter().any(|r| r.x == "build_ms"));
        assert!(rows.iter().any(|r| r.x == "topology_bytes"));
    }

    #[test]
    fn metrics_dump_has_nonzero_traversal_counters() {
        let mut scale = tiny();
        scale.vertices = 150;
        let rows = metrics(&scale).unwrap();
        assert!(!rows.is_empty());
        // Every family produced an annotated PathScan with real work.
        for family in ["fig7", "fig8", "fig9", "fig10"] {
            let visited: u64 = rows
                .iter()
                .filter(|r| {
                    r.x.starts_with(family)
                        && (r.x.ends_with(":vertices") || r.x.ends_with(":edges"))
                })
                .map(|r| r.value.parse::<u64>().unwrap())
                .sum();
            assert!(visited > 0, "{family}: zero traversal counters");
        }
        // fig8's pushed selectivity predicate dereferences edge tuples.
        assert!(rows.iter().any(|r| {
            r.x.starts_with("fig8") && r.x.ends_with(":derefs") && r.value != "0"
        }));
    }

    #[test]
    fn ablations_run() {
        let mut scale = tiny();
        scale.vertices = 150;
        assert!(!ablate_pushdown(&scale).unwrap().is_empty());
        assert!(!ablate_lazy(&scale).unwrap().is_empty());
    }
}
