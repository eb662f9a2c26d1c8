//! The repo benchmark: five named workloads over the default engine,
//! end-to-end and per-layer metrics, a traced run, and the `compare`
//! referee. See `README.md`.
//!
//! ```text
//! grfusion-benchmark run [--seed N] [--out PATH] [--workload NAME] [--smoke]
//! grfusion-benchmark run --workload NAME --seed N --seconds S --trace 0|1   (the driver's form)
//! grfusion-benchmark compare A.json B.json
//! ```

mod compare;
mod data;
mod json;
mod layers;
mod openloop;
mod ops;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::Json;
use run::{RunConfig, WorkloadReport};

/// Untraced rounds behind every end-to-end metric. This box's speed wanders
/// from second to second; ten short rounds see its undisturbed speed more
/// reliably than five long ones.
const ROUNDS: usize = 10;
/// Set-ups behind the `setup_s` median (the last instance is kept). Seven,
/// so that the quartiles over them leave out the first, cold one.
const SETUPS: usize = 7;
const DEFAULT_SEED: u64 = 42;
/// Measured seconds per workload of a full run: 10 rounds × 2 s.
const DEFAULT_SECONDS: f64 = 20.0;

/// Remove every `GRFUSION_*` variable, so that `Database::new()` and
/// `ServerConfig::default()` are the engine a user gets by default. Runs
/// before any thread starts. Returns the names removed, sorted.
fn scrub_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GRFUSION_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

struct RunArgs {
    seed: u64,
    out: Option<PathBuf>,
    workload: Option<String>,
    smoke: bool,
    seconds: Option<f64>,
    /// `Some(false)` / `Some(true)`: the driver's `--trace 0` / `--trace 1`.
    trace: Option<bool>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: DEFAULT_SEED,
        out: None,
        workload: None,
        smoke: false,
        seconds: None,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--smoke" => parsed.smoke = true,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range (0, 600]"));
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !workloads::workload_names().contains(&w.as_str()) {
            return Err(format!(
                "unknown workload `{w}` (expected one of {})",
                workloads::workload_names().join(", ")
            ));
        }
    }
    Ok(parsed)
}

fn run_config(args: &RunArgs, workload: &str) -> RunConfig {
    let (setups, rounds, round_secs, warmup_secs) = if args.smoke {
        (1, 1, 0.5, 0.2)
    } else {
        let round = args.seconds.unwrap_or(DEFAULT_SECONDS) / ROUNDS as f64;
        (SETUPS, ROUNDS, round, (round / 2.0).min(2.0))
    };
    RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        setups,
        rounds,
        round_secs,
        warmup_secs,
        // `--trace 0` measures end to end only, `--trace 1` per layer only;
        // without the flag a workload does both.
        end_to_end: args.trace != Some(true),
        traced: args.trace != Some(false),
        out_dir: out_dir(),
    }
}

/// Every metric by name, with its unit.
fn print_report(detail: &Json) {
    let name = detail.get("workload").and_then(Json::as_str).unwrap_or("?");
    let num = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64);
    println!(
        "== {name}  ({})  attempted {} failed {}",
        detail.get("load").and_then(Json::as_str).unwrap_or(""),
        num(detail, "attempted").unwrap_or(0.0),
        num(detail, "failed").unwrap_or(0.0)
    );
    for (metric, m) in detail.get("end_to_end").map(Json::fields).unwrap_or(&[]) {
        let mut line = format!(
            "  {metric:<34} {:>16.4} {:<6}",
            num(m, "value").unwrap_or(0.0),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
        if let (Some(median), Some(iqr), Some(rounds)) =
            (num(m, "median"), num(m, "iqr"), num(m, "rounds"))
        {
            line.push_str(&format!(
                " (median {median:.4}, iqr {iqr:.4} over {rounds} rounds)"
            ));
        }
        if let (Some(samples), Some(beyond)) = (num(m, "samples"), num(m, "beyond")) {
            let pooled = if m.get("pooled") == Some(&Json::Bool(true)) {
                " pooled"
            } else {
                ""
            };
            line.push_str(&format!(
                "; q{} of {samples}{pooled} samples, {beyond} beyond",
                num(m, "quantile").unwrap_or(0.0)
            ));
        }
        println!("{line}");
    }
    for (metric, m) in detail.get("per_layer").map(Json::fields).unwrap_or(&[]) {
        println!(
            "  {metric:<34} {:>16.4} {}",
            num(m, "value").unwrap_or(0.0),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    if let Some(v) = detail.get("validity") {
        println!("  validity {}", v.render());
    }
}

/// One workload in this process.
fn run_single(args: &RunArgs, workload: &str) -> Result<WorkloadReport, String> {
    let report = run::run_workload(&run_config(args, workload))?;
    print_report(&report.detail);
    if let Some(path) = &args.out {
        write_file(path, &report.detail.pretty())?;
    }
    Ok(report)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each in a fresh child process (a re-exec of this
/// binary), so RSS and allocator state do not leak between workloads.
fn run_all(args: &RunArgs, scrubbed: &[String]) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = out_dir();
    let cfg = run_config(args, "");
    let mut workloads_json = Json::obj();
    let mut failed_total = 0u64;
    for workload in workloads::workload_names() {
        let child_out = dir.join(format!("workload.{workload}.json"));
        let mut cmd = Command::new(&exe);
        cmd.args([
            "run",
            "--workload",
            workload,
            "--seed",
            &args.seed.to_string(),
        ]);
        cmd.arg("--out").arg(&child_out);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        // `status` waits for the child; its report goes straight to our stdout.
        let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
        let text = std::fs::read_to_string(&child_out)
            .map_err(|e| format!("{workload} left no report ({status}): {e}"))?;
        let detail = Json::parse(&text).map_err(|e| format!("{}: {e}", child_out.display()))?;
        failed_total += detail.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if !status.success() {
            failed_total = failed_total.max(1);
        }
        workloads_json.set(workload, detail);
    }
    let meta = Json::obj()
        .with("seed", args.seed)
        .with("rounds", cfg.rounds)
        .with("round_secs", cfg.round_secs)
        .with("warmup_secs", cfg.warmup_secs)
        .with("setups", cfg.setups)
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .with("generator_threads_max", workloads::CONNECTIONS)
        .with(
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        )
        .with("rustc", command_line("rustc", &["--version"]))
        .with(
            "scrubbed_env",
            scrubbed
                .iter()
                .map(|s| Json::from(s.as_str()))
                .collect::<Vec<_>>(),
        );
    // What each per-layer metric is expected to move, beside the numbers.
    let mut legend = Json::obj();
    for m in &spec::PER_LAYER {
        legend.set(
            m.name,
            Json::obj()
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("should_move", m.moves),
        );
    }
    let doc = Json::obj()
        .with("benchmark", "grfusion-benchmark")
        .with("meta", meta)
        .with("notes", spec::NOTES)
        .with("workloads", workloads_json)
        .with("per_layer_legend", legend);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| dir.join(format!("run.seed{}.json", args.seed)));
    write_file(&path, &doc.pretty())?;
    println!("wrote {}", path.display());
    Ok(failed_total)
}

fn cmd_run(args: &[String], scrubbed: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let failed = match &args.workload {
        Some(workload) => {
            let report = run_single(&args, workload)?;
            if let Some(traced) = args.trace {
                // The driver reads the last line of standard output.
                println!("{}", report.contract_line(traced));
            }
            report.failed
        }
        None if args.trace.is_some() => return Err("--trace needs --workload".to_string()),
        None => run_all(&args, scrubbed)?,
    };
    if failed > 0 {
        eprintln!("{failed} operation(s) failed or answered wrongly");
        return Ok(ExitCode::from(1));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: compare A.json B.json".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{} rows: {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(if regressed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// `env-check`: what the scrub removed, and that the engine starts clean
/// afterwards (a malformed `GRFUSION_*` knob fails the first statement).
fn cmd_env_check(scrubbed: &[String]) -> Result<ExitCode, String> {
    println!("scrubbed {}", scrubbed.join(","));
    let left: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GRFUSION_"))
        .collect();
    println!("left {}", left.join(","));
    grfusion::Database::new()
        .execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        .map_err(|e| format!("engine: {e}"))?;
    println!("engine ok");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let scrubbed = scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest, &scrubbed),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        Some((cmd, [])) if cmd == "env-check" => cmd_env_check(&scrubbed),
        _ => Err(
            "usage: grfusion-benchmark run [--seed N] [--out PATH] [--workload NAME] \
                  [--smoke] [--seconds S] [--trace 0|1] | compare A.json B.json"
                .to_string(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_form_parses_and_splits_seconds_into_rounds() {
        let a = parse_run_args(&args(&[
            "--workload",
            "serve_open",
            "--seed",
            "9",
            "--seconds",
            "15",
            "--trace",
            "0",
        ]))
        .unwrap();
        let cfg = run_config(&a, "serve_open");
        assert_eq!((cfg.seed, cfg.rounds, cfg.setups), (9, ROUNDS, SETUPS));
        assert_eq!(cfg.round_secs, 1.5);
        assert!(cfg.end_to_end && !cfg.traced);
        let a = parse_run_args(&args(&["--workload", "mixed_rw", "--trace", "1"])).unwrap();
        let cfg = run_config(&a, "mixed_rw");
        assert!(!cfg.end_to_end && cfg.traced);
        assert_eq!(cfg.seed, DEFAULT_SEED);
    }

    #[test]
    fn smoke_is_one_short_round_with_every_phase_on() {
        let cfg = run_config(&parse_run_args(&args(&["--smoke"])).unwrap(), "adhoc_short");
        assert_eq!((cfg.rounds, cfg.setups), (1, 1));
        assert_eq!(cfg.round_secs, 0.5);
        assert!(cfg.end_to_end && cfg.traced);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// `BENCHMARK.json` and `spec.rs` name the same metrics with the same
    /// units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), workloads::workload_names());
        let universal: Vec<&spec::EndToEnd> =
            spec::END_TO_END.iter().filter(|m| m.universal).collect();
        assert_eq!(
            names("end_to_end"),
            universal.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, s) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&universal)
        {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(s.unit),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(s.better.as_str()),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("bound").and_then(Json::as_f64),
                Some(s.bound),
                "{}",
                s.name
            );
        }
        assert_eq!(
            names("per_layer"),
            spec::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (m, s) in doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(&spec::PER_LAYER)
        {
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(s.unit),
                "{}",
                s.name
            );
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(s.better.as_str()),
                "{}",
                s.name
            );
        }
    }
}
