//! Tier-1 enforcement of the grfusion-analyze suite: `cargo test` fails if
//! any pass regresses — a panic/lossy-cast/hot-loop-alloc count grows past
//! its committed baseline under `xtask/baselines/`, or a zero-tolerance
//! pass (lock-order) finds anything at all. The same gate is
//! available standalone as `cargo run -p xtask -- analyze`; deliberate
//! burn-down moves regenerate baselines with `analyze --update`.

use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests crate sits one level below the repo root")
}

#[test]
fn analyze_gates_hold() {
    if let Err(report) = xtask::check(repo_root()) {
        panic!("{report}");
    }
}

/// The ratchet only has teeth if the committed baselines parse and the
/// panic baseline still covers the engine crates.
#[test]
fn baselines_parse_and_cover_engine_crates() {
    let root = repo_root();
    for pass in xtask::passes::registry() {
        let Some(rel) = pass.baseline_file() else {
            continue;
        };
        let counts = xtask::baseline::load(root, rel)
            .unwrap_or_else(|e| panic!("baseline for `{}`: {e}", pass.name()));
        if pass.name() == "panic" {
            for krate in ["common", "core", "graph", "sql", "storage"] {
                assert!(
                    counts.contains_key(krate),
                    "panic baseline missing crate `{krate}`"
                );
            }
        }
    }
}

/// Every ratcheting pass names a baseline file that exists on disk; a pass
/// silently pointing at a missing file would gate at zero and mask churn.
#[test]
fn ratchet_baseline_files_exist() {
    let root = repo_root();
    for pass in xtask::passes::registry() {
        if let Some(rel) = pass.baseline_file() {
            assert!(
                root.join(rel).is_file(),
                "pass `{}` baseline `{rel}` missing — run `cargo run -p xtask -- analyze {} --update`",
                pass.name(),
                pass.name()
            );
        }
    }
}

/// The lock order has one rank table kept in two places — the static pass
/// reads source text, the runtime validator wraps the mutexes — and they
/// must agree row for row, or the two would police different orders.
#[test]
fn static_and_runtime_lock_rank_tables_agree() {
    let runtime: Vec<(u8, &str)> = grfusion::lockorder::LockClass::ALL
        .iter()
        .map(|c| (c.rank(), c.name()))
        .collect();
    let statik: Vec<(u8, &str)> = xtask::passes::lock_order::CLASSES
        .iter()
        .map(|&(_, rank, class)| (rank, class))
        .collect();
    assert_eq!(statik, runtime);
    assert_eq!(runtime.len(), 3);
}

/// The README's "Engine knobs" table is the user-facing list of the
/// environment variables the engine reads: it must name exactly
/// `EngineConfig::env_vars()`, in the parser's validation order.
#[test]
fn readme_knob_table_lists_exactly_the_parsed_variables() {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    let section = readme
        .split("\n### Engine knobs\n")
        .nth(1)
        .expect("README has an `### Engine knobs` section");
    let section = section.split("\n#").next().unwrap_or(section);
    let listed: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .filter_map(|l| l.split('`').next())
        .collect();
    let parsed: Vec<&str> = grfusion::EngineConfig::env_vars().collect();
    assert_eq!(listed, parsed, "README knob table drifted from ENV_KNOBS");
}
