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

/// The engine reads no environment: every setting comes from the caller
/// that builds the `Database` (`EngineConfig`, `set_fault_plan`), and a
/// deployment's settings are the server binary's flags. Library sources
/// (`crates/*/src`, binaries under `src/bin/` excepted) may neither read
/// nor write the process environment.
#[test]
fn library_crates_never_touch_the_process_environment() {
    const FORBIDDEN: [&str; 5] = ["env::var", "var_os", "env::vars", "set_var", "remove_var"];
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "bin") {
                    walk(&path, out);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("crates/").flatten() {
        let src = krate.path().join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "scanned only {} files", files.len());
    let mut hits = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        for (n, line) in text.lines().enumerate() {
            if FORBIDDEN.iter().any(|f| line.contains(f)) {
                hits.push(format!("{}:{}: {}", file.display(), n + 1, line.trim()));
            }
        }
    }
    assert!(hits.is_empty(), "library code touches the environment:\n{}", hits.join("\n"));
}
