//! Engine configuration: optimizer flags and execution limits.
//!
//! The planner is rule-based (EDBT 2018 §6: length inference, pushdown, BFS
//! iff F < L). The optimizer flags exist so the benchmark harness can ablate
//! the paper's individual design choices: each flag disables one
//! optimization while keeping results identical (the engine always applies
//! residual predicates). Nothing here reads the process environment: a
//! deployment passes its limits in (`grfusion-serve --deadline-ms`).

/// Which traversal the planner picks when the query gives no hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraversalChoice {
    /// The paper's §6.3 heuristic: BFS iff average fan-out `F` is smaller
    /// than the inferred maximum path length `L` (optimizes traversal
    /// memory: DFS holds ~`F·L` entries, BFS ~`F^L`).
    Auto,
    /// Always depth-first.
    Dfs,
    /// Always breadth-first.
    Bfs,
}

/// Optimizer switches (all on by default — the paper's configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerFlags {
    /// §6.1: infer `[min, max]` path-length windows from `PS.Length`
    /// predicates and indexed references. When off, only the default cap
    /// bounds traversal.
    pub length_inference: bool,
    /// §6.2: push edge/vertex predicates ahead of the path scan so doomed
    /// paths are pruned during traversal. When off, predicates are only
    /// applied residually above the scan.
    pub predicate_pushdown: bool,
    /// §6.2: check running path aggregates (e.g. `SUM(PS.Edges.Cost) < c`)
    /// during traversal. Pruning a prefix is sound only for the
    /// non-negative attributes the paper assumes, so the first time a
    /// bound would prune, the scan checks the attribute once and stops
    /// pruning on it if any element holds a negative value; the residual
    /// check still runs either way.
    pub aggregate_pushdown: bool,
    /// §5.1.2: traverse lazily (pull-based). When off, each path scan
    /// eagerly materializes every qualifying path before returning the
    /// first one (the ablation baseline for the lazy design).
    pub lazy_path_scan: bool,
    /// Physical traversal choice when the query has no hint.
    pub traversal: TraversalChoice,
    /// Cap applied when no maximum path length can be inferred. The paper
    /// notes most real traversal queries carry explicit length bounds; the
    /// cap keeps unbounded simple-path enumeration from exploding.
    pub default_max_path_len: usize,
}

impl Default for OptimizerFlags {
    fn default() -> Self {
        OptimizerFlags {
            length_inference: true,
            predicate_pushdown: true,
            aggregate_pushdown: true,
            lazy_path_scan: true,
            traversal: TraversalChoice::Auto,
            default_max_path_len: 8,
        }
    }
}

/// Execution resource limits.
///
/// `max_intermediate_rows` reproduces the paper's observation (§7.2) that
/// the Native Relational-Core approach dies on deep traversals because join
/// intermediate results exhaust temp memory: when a query's operators
/// produce more rows than the budget, execution aborts with
/// `Error::ResourceExhausted` — the harness reports those as DNF, like the
/// paper's Twitter plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecLimits {
    /// Maximum rows produced across all operators of one query
    /// (None = unlimited).
    pub max_intermediate_rows: Option<u64>,
}

/// Runtime resource-governor limits, enforced per query by the
/// `governor::ExecContext` threaded through every operator and traversal
/// loop. Both limits default to off (None): governance is opt-in so the
/// default execution path stays zero-cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernorConfig {
    /// Wall-clock deadline per query, in milliseconds. Exceeding it aborts
    /// with `Error::ResourceExhausted { kind: Deadline, .. }` at the next
    /// cooperative checkpoint.
    pub deadline_ms: Option<u64>,
    /// Byte cap on materialized intermediate state (paths, sort buffers,
    /// aggregation tables, join builds) per query. Exceeding it aborts with
    /// `Error::ResourceExhausted { kind: Bytes, .. }`.
    pub max_memory_bytes: Option<u64>,
}

/// Sealed-CSR topology layout policy.
///
/// When sealing is on (the default), every graph view compacts its
/// adjacency into contiguous CSR arrays right after materialization, and
/// post-seal DML maintenance diverts touched vertexes to a small delta
/// overlay that traversals merge on the fly. Once a quarter of the vertex
/// set is overlaid, the next DML statement re-seals the view (inside the
/// statement's atomicity scope, so a fault or memory-cap abort during the
/// re-seal rolls the statement back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrConfig {
    /// Seal topologies into CSR arrays. Off = pure adjacency-list layout
    /// (the pre-CSR engine; also the differential oracle's "delta only"
    /// lane).
    pub sealed: bool,
}

impl CsrConfig {
    /// The engine default: sealing on.
    pub fn sealed() -> Self {
        CsrConfig { sealed: true }
    }

    /// Sealing disabled: topologies stay on per-vertex adjacency lists.
    pub fn adjacency_only() -> Self {
        CsrConfig { sealed: false }
    }
}

impl Default for CsrConfig {
    fn default() -> Self {
        CsrConfig::sealed()
    }
}

/// Top-level engine configuration. The default is the paper's
/// configuration; the caller that builds a `Database` owns every setting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineConfig {
    pub optimizer: OptimizerFlags,
    pub limits: ExecLimits,
    pub governor: GovernorConfig,
    pub csr: CsrConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let f = OptimizerFlags::default();
        assert!(f.length_inference);
        assert!(f.predicate_pushdown);
        assert!(f.aggregate_pushdown);
        assert!(f.lazy_path_scan);
        assert_eq!(f.traversal, TraversalChoice::Auto);
        assert!(f.default_max_path_len >= 1);
        assert_eq!(ExecLimits::default().max_intermediate_rows, None);
        assert_eq!(
            GovernorConfig::default(),
            GovernorConfig {
                deadline_ms: None,
                max_memory_bytes: None
            }
        );
    }

    #[test]
    fn constructors_sanitize_inputs() {
        assert!(CsrConfig::default().sealed);
        assert!(!CsrConfig::adjacency_only().sealed);
    }
}
