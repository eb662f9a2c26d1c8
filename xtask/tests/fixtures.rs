//! Analyzer self-tests against the committed fixtures in
//! `xtask/fixtures/<pass>/{clean,violation}/`: every pass must stay silent
//! on its clean snippet and produce the exact `file:line` diagnostic on
//! its violating one. This pins the finding format — downstream tooling
//! (and humans grepping CI logs) parse these lines.

use std::path::PathBuf;

use xtask::model::SourceModel;
use xtask::passes::{registry, Pass};
use xtask::repo_root;

fn pass_named(name: &str) -> Box<dyn Pass> {
    registry()
        .into_iter()
        .find(|p| p.name() == name)
        .unwrap_or_else(|| panic!("pass `{name}` not registered"))
}

fn fixture_model(pass: &str, kind: &str, file: &str) -> SourceModel {
    let root = repo_root();
    let rel = PathBuf::from(format!("xtask/fixtures/{pass}/{kind}/{file}"));
    SourceModel::from_paths(&root, &[rel]).expect("fixture file readable")
}

fn findings(pass: &str, kind: &str, file: &str) -> Vec<String> {
    pass_named(pass)
        .run(&fixture_model(pass, kind, file))
        .iter()
        .map(|f| f.render())
        .collect()
}

#[test]
fn panic_fixture_pair() {
    assert_eq!(findings("panic", "clean", "lib.rs"), Vec::<String>::new());
    assert_eq!(
        findings("panic", "violation", "lib.rs"),
        vec!["xtask/fixtures/panic/violation/lib.rs:3: panic site `.unwrap()`"]
    );
}

#[test]
fn lock_order_fixture_pair() {
    assert_eq!(findings("lock-order", "clean", "lib.rs"), Vec::<String>::new());
    assert_eq!(
        findings("lock-order", "violation", "lib.rs"),
        vec![
            "xtask/fixtures/lock-order/violation/lib.rs:5: lock-order violation in fn \
             `admit_and_run`: acquires `DbInner` (rank 0) while holding `TenantRegistry` \
             (rank 1); documented order is DbInner -> TenantRegistry"
        ]
    );
}

#[test]
fn lossy_cast_fixture_pair() {
    assert_eq!(findings("lossy-cast", "clean", "lib.rs"), Vec::<String>::new());
    assert_eq!(
        findings("lossy-cast", "violation", "lib.rs"),
        vec![
            "xtask/fixtures/lossy-cast/violation/lib.rs:3: numeric cast `as u32` — convert to \
             `try_from` or audit with `// cast-ok: <reason>`"
        ]
    );
}

#[test]
fn hot_loop_alloc_fixture_pair() {
    assert_eq!(findings("hot-loop-alloc", "clean", "lib.rs"), Vec::<String>::new());
    assert_eq!(
        findings("hot-loop-alloc", "violation", "lib.rs"),
        vec![
            "xtask/fixtures/hot-loop-alloc/violation/lib.rs:5: allocation `to_string` in hot \
             loop — hoist it out or audit with `// alloc-ok: <reason>`"
        ]
    );
}

/// The point-to-point kernel is hot as a whole file: its fixtures sit at a
/// path ending in `crates/graph/src/p2p.rs` and use no `next()` function.
#[test]
fn hot_loop_alloc_p2p_kernel_fixture_pair() {
    let file = "crates/graph/src/p2p.rs";
    assert_eq!(findings("hot-loop-alloc", "clean", file), Vec::<String>::new());
    assert_eq!(
        findings("hot-loop-alloc", "violation", file),
        vec![
            "xtask/fixtures/hot-loop-alloc/violation/crates/graph/src/p2p.rs:6: allocation \
             `Vec::new` in hot loop — hoist it out or audit with `// alloc-ok: <reason>`"
        ]
    );
}

/// So are the DML statement bodies: a per-row `String` copy in
/// `crates/core/src/dml.rs` is flagged without any `next()` around it.
#[test]
fn hot_loop_alloc_dml_statement_body_fixture_pair() {
    let file = "crates/core/src/dml.rs";
    assert_eq!(findings("hot-loop-alloc", "clean", file), Vec::<String>::new());
    assert_eq!(
        findings("hot-loop-alloc", "violation", file),
        vec![
            "xtask/fixtures/hot-loop-alloc/violation/crates/core/src/dml.rs:8: allocation \
             `to_string` in hot loop — hoist it out or audit with `// alloc-ok: <reason>`"
        ]
    );
}

/// So is per-row predicate evaluation: a copy inside a `truth` loop is
/// flagged in any file.
#[test]
fn hot_loop_alloc_predicate_fixture_pair() {
    let file = "predicate.rs";
    assert_eq!(findings("hot-loop-alloc", "clean", file), Vec::<String>::new());
    assert_eq!(
        findings("hot-loop-alloc", "violation", file),
        vec![
            "xtask/fixtures/hot-loop-alloc/violation/predicate.rs:7: allocation `clone` in hot \
             loop — hoist it out or audit with `// alloc-ok: <reason>`"
        ]
    );
}

/// Every registered pass has a fixture pair on disk — adding a fifth pass
/// without fixtures fails here, not in review.
#[test]
fn every_pass_has_fixtures() {
    let root = repo_root();
    for pass in registry() {
        for kind in ["clean", "violation"] {
            let dir = root.join("xtask/fixtures").join(pass.name()).join(kind);
            let populated = std::fs::read_dir(&dir)
                .map(|mut d| d.next().is_some())
                .unwrap_or(false);
            assert!(populated, "missing fixture dir {}", dir.display());
        }
    }
}
