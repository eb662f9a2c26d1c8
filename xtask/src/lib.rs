//! grfusion-analyze: the repo's std-only multi-pass static analysis
//! framework (`cargo run -p xtask -- analyze [pass...]`).
//!
//! Grown out of the original single-purpose panic census (PR 3), this is
//! now a shared source model — file walker, comment/string-stripping
//! tokenizer, function/loop scanners — plus one baseline format and
//! ratchet engine that every pass reuses. Four passes ship today:
//!
//! | pass             | gate             | what it checks                             |
//! |------------------|------------------|--------------------------------------------|
//! | `panic`          | per-crate ratchet | unwrap/expect/panic!/unreachable! sites   |
//! | `lock-order`     | zero tolerance   | DbInner-outside / Settings-leaf nesting    |
//! | `lossy-cast`     | per-file ratchet | numeric `as` casts (`// cast-ok:` audits)  |
//! | `hot-loop-alloc` | per-file ratchet | allocations in next()/traversal loops      |
//!
//! Ratchet semantics: counts may shrink freely; growth (or a new key)
//! fails the gate with per-site `file:line` diagnostics. Deliberate moves
//! regenerate baselines with `analyze --update`. The whole suite runs
//! tier-1 via `tests/tests/lint_gate.rs`.

pub mod baseline;
pub mod findings;
pub mod model;
pub mod passes;
pub mod strip;

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

use model::SourceModel;
use passes::Pass;

/// Repository root, assuming xtask lives at `<root>/xtask`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent dir")
        .to_path_buf()
}

/// Outcome of one pass against its gate.
pub struct PassReport {
    pub name: &'static str,
    pub sites: usize,
    /// Rendered failure lines; empty means the gate passed.
    pub failures: Vec<String>,
    /// Set when `--update` rewrote the baseline.
    pub updated: Option<String>,
}

/// Resolve pass names (empty = all) against the registry.
fn select(names: &[String]) -> Result<Vec<Box<dyn Pass>>, String> {
    let all = passes::registry();
    if names.is_empty() {
        return Ok(all);
    }
    let mut picked = Vec::new();
    for n in names {
        let Some(p) = passes::registry().into_iter().find(|p| p.name() == n) else {
            let known: Vec<&str> = all.iter().map(|p| p.name()).collect();
            return Err(format!("unknown pass `{n}` (known: {})", known.join(", ")));
        };
        picked.push(p);
    }
    Ok(picked)
}

/// Cap per-violation site listings so a fresh pass on a big tree stays
/// readable; the counts line always carries the true totals.
const MAX_SITES_SHOWN: usize = 25;

/// Run the selected passes over the engine crates. `update` rewrites
/// ratchet baselines instead of checking them.
pub fn analyze(root: &Path, names: &[String], update: bool) -> Result<Vec<PassReport>, String> {
    let model = SourceModel::load(root).map_err(|e| format!("loading sources: {e}"))?;
    let selected = select(names)?;
    let mut reports = Vec::new();
    for pass in &selected {
        reports.push(run_pass(root, pass.as_ref(), &model, update)?);
    }
    Ok(reports)
}

/// Run one pass against an explicit model (the fixture self-tests use
/// this with `SourceModel::from_paths`).
pub fn run_pass(
    root: &Path,
    pass: &dyn Pass,
    model: &SourceModel,
    update: bool,
) -> Result<PassReport, String> {
    let found = pass.run(model);
    let mut report = PassReport {
        name: pass.name(),
        sites: found.len(),
        failures: Vec::new(),
        updated: None,
    };
    match pass.baseline_file() {
        Some(rel) => {
            if update {
                let counts = findings::counts_by_key(&found);
                let text = baseline::render(pass.name(), pass.description(), &counts);
                let path = root.join(rel);
                if let Some(dir) = path.parent() {
                    fs::create_dir_all(dir)
                        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                }
                fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
                report.updated = Some(rel.to_string());
            } else {
                let bl = baseline::load(root, rel)?;
                for v in baseline::ratchet(&found, &bl) {
                    let mut msg = format!(
                        "{}: `{}` has {} sites, baseline allows {} — fix the new sites or run `analyze {} --update`",
                        pass.name(),
                        v.key,
                        v.current,
                        v.allowed,
                        pass.name()
                    );
                    for site in v.sites.iter().take(MAX_SITES_SHOWN) {
                        let _ = write!(msg, "\n    {}", site.render());
                    }
                    if v.sites.len() > MAX_SITES_SHOWN {
                        let _ = write!(msg, "\n    … and {} more", v.sites.len() - MAX_SITES_SHOWN);
                    }
                    report.failures.push(msg);
                }
            }
        }
        None => {
            // Zero-tolerance: every finding is a failure (nothing to update).
            for f in &found {
                report.failures.push(format!("{}: {}", pass.name(), f.render()));
            }
        }
    }
    Ok(report)
}

/// Render reports for the CLI / test gate; `Err` carries the full failure
/// text when any gate failed.
pub fn render_reports(reports: &[PassReport]) -> Result<String, String> {
    let mut ok = String::new();
    let mut bad = String::new();
    for r in reports {
        match (&r.updated, r.failures.is_empty()) {
            (Some(rel), _) => {
                let _ = writeln!(ok, "pass {:<14} {} sites -> updated {}", r.name, r.sites, rel);
            }
            (None, true) => {
                let _ = writeln!(ok, "pass {:<14} {} sites, gate OK", r.name, r.sites);
            }
            (None, false) => {
                let _ = writeln!(
                    ok,
                    "pass {:<14} {} sites, GATE FAILED ({} violations)",
                    r.name,
                    r.sites,
                    r.failures.len()
                );
                for f in &r.failures {
                    let _ = writeln!(bad, "{f}");
                }
            }
        }
    }
    if bad.is_empty() {
        Ok(ok)
    } else {
        Err(format!("{ok}\n{bad}"))
    }
}

/// Tier-1 entry point used by `tests/tests/lint_gate.rs`: run every pass
/// against the committed baselines, failing with full diagnostics.
pub fn check(root: &Path) -> Result<(), String> {
    render_reports(&analyze(root, &[], false)?).map(|_| ())
}
