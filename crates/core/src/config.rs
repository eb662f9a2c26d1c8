//! Engine configuration: optimizer flags and execution limits.
//!
//! The planner is rule-based (EDBT 2018 §6: length inference, pushdown, BFS
//! iff F < L). The optimizer flags exist so the benchmark harness can ablate
//! the paper's individual design choices: each flag disables one
//! optimization while keeping results identical (the engine always applies
//! residual predicates). The environment sets only the two governor limits
//! (`ENV_KNOBS`).

use grfusion_common::{Error, Result};

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

/// Top-level engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    pub optimizer: OptimizerFlags,
    pub limits: ExecLimits,
    pub governor: GovernorConfig,
    pub csr: CsrConfig,
}

impl Default for EngineConfig {
    /// The strict parse of the `GRFUSION_*` knobs (`ENV_KNOBS`) — that
    /// hook is what lets CI run the whole suite down the governed path
    /// without code changes — or the paper's configuration
    /// when a knob is malformed. The failure is not lost: `Database`
    /// surfaces [`EngineConfig::env_error`] on the first statement.
    fn default() -> Self {
        EngineConfig::from_env_checked().unwrap_or_else(|_| EngineConfig::paper())
    }
}

/// One engine knob read from the environment: a governor limit, with `0`
/// an explicit "off".
struct EnvKnob {
    var: &'static str,
    /// Stores the parsed limit into the config.
    set: fn(&mut EngineConfig, Option<u64>),
}

/// What every knob accepts — the tail of the malformed-value error.
const LIMIT: &str = "expected a non-negative integer (0 = off)";

/// Every `GRFUSION_*` engine knob, in the order they are validated (the
/// first malformed one is the one reported). `GRFUSION_FAULTS` is not
/// here: `Database::with_config` owns the fault plan's lifecycle.
static ENV_KNOBS: [EnvKnob; 2] = [
    EnvKnob {
        var: "GRFUSION_DEADLINE_MS",
        set: |c, v| c.governor.deadline_ms = v,
    },
    EnvKnob {
        var: "GRFUSION_MEMORY_BYTES",
        set: |c, v| c.governor.max_memory_bytes = v,
    },
];

impl EngineConfig {
    /// The paper's configuration, with nothing read from the environment.
    fn paper() -> EngineConfig {
        EngineConfig {
            optimizer: OptimizerFlags::default(),
            limits: ExecLimits::default(),
            governor: GovernorConfig::default(),
            csr: CsrConfig::default(),
        }
    }

    /// Names of the `GRFUSION_*` engine knobs the environment parser
    /// recognises, in validation order (what `grfusion-serve --help` lists).
    pub fn env_vars() -> impl Iterator<Item = &'static str> {
        ENV_KNOBS.iter().map(|k| k.var)
    }

    /// The paper's configuration plus every `GRFUSION_*` engine knob set in
    /// the environment, strictly parsed: a malformed or out-of-range value
    /// is an error naming the variable and the value, never a silent
    /// fallback. Unset, empty and whitespace-only all mean "not set" (the
    /// `GRFUSION_FAULTS` convention).
    pub fn from_env_checked() -> Result<EngineConfig> {
        EngineConfig::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`EngineConfig::from_env_checked`] over any variable source (tests
    /// parse without mutating process-global environment state).
    fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<EngineConfig> {
        let mut cfg = EngineConfig::paper();
        for knob in &ENV_KNOBS {
            let raw = get(knob.var);
            let Some(v) = raw.as_deref().map(str::trim).filter(|t| !t.is_empty()) else {
                continue;
            };
            let n: u64 = v
                .parse()
                .map_err(|_| Error::analysis(format!("invalid {} `{v}`: {LIMIT}", knob.var)))?;
            (knob.set)(&mut cfg, (n > 0).then_some(n));
        }
        Ok(cfg)
    }

    /// The first malformed `GRFUSION_*` engine knob in the current
    /// environment, rendered for the startup-error path (`None` when every
    /// set variable parses). `Database::with_config` remembers this and
    /// surfaces it on the first statement, the same contract as a
    /// malformed `GRFUSION_FAULTS` spec.
    pub fn env_error() -> Option<String> {
        EngineConfig::from_env_checked()
            .err()
            .map(|e| e.to_string())
    }
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

    /// Parse an environment in which only `var` is set.
    fn parse(var: &str, value: &str) -> Result<EngineConfig> {
        EngineConfig::from_lookup(|k| (k == var).then(|| value.to_string()))
    }

    #[test]
    fn recognised_variables_are_the_two_documented_ones() {
        let vars: Vec<&str> = EngineConfig::env_vars().collect();
        assert_eq!(vars, ["GRFUSION_DEADLINE_MS", "GRFUSION_MEMORY_BYTES"]);
    }

    /// Every variable × {unset, empty/whitespace, each valid spelling,
    /// out-of-range, garbage}: the expected config, or the strict error
    /// naming the variable, the offending value and what was expected.
    #[test]
    fn every_knob_every_input_class() {
        let paper = EngineConfig::paper();
        assert_eq!(EngineConfig::from_lookup(|_| None).unwrap(), paper);
        for var in EngineConfig::env_vars() {
            for blank in ["", " ", " \t "] {
                assert_eq!(parse(var, blank).unwrap(), paper, "{var}={blank:?}");
            }
        }

        let with = |edit: fn(&mut EngineConfig)| {
            let mut c = paper;
            edit(&mut c);
            c
        };
        let valid: &[(&str, &[&str], EngineConfig)] = &[
            (
                "GRFUSION_DEADLINE_MS",
                &["50", " 50 "],
                with(|c| c.governor.deadline_ms = Some(50)),
            ),
            ("GRFUSION_DEADLINE_MS", &["0"], paper),
            (
                "GRFUSION_MEMORY_BYTES",
                &["1048576"],
                with(|c| c.governor.max_memory_bytes = Some(1_048_576)),
            ),
            ("GRFUSION_MEMORY_BYTES", &["0"], paper),
        ];
        for (var, spellings, want) in valid {
            for s in *spellings {
                assert_eq!(parse(var, s).unwrap(), *want, "{var}={s}");
            }
        }

        // Out-of-range first, then garbage.
        let invalid: &[(&str, &[&str], &str)] = &[
            ("GRFUSION_DEADLINE_MS", &["-1", "1.5", "fast"], LIMIT),
            ("GRFUSION_MEMORY_BYTES", &["-1", "64MB"], LIMIT),
        ];
        for (var, values, expects) in invalid {
            for v in *values {
                let e = parse(var, v).unwrap_err().to_string();
                assert!(
                    e.contains(&format!("invalid {var} `{v}`")) && e.contains(expects),
                    "{var}={v}: {e}"
                );
            }
        }
    }

    #[test]
    fn first_malformed_knob_in_table_order_is_reported() {
        let e = EngineConfig::from_lookup(|k| match k {
            "GRFUSION_MEMORY_BYTES" => Some("nope".into()),
            "GRFUSION_DEADLINE_MS" => Some("-1".into()),
            _ => None,
        })
        .unwrap_err()
        .to_string();
        assert!(
            e.contains("GRFUSION_DEADLINE_MS") && !e.contains("GRFUSION_MEMORY_BYTES"),
            "{e}"
        );
    }
}
