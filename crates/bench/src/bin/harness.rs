//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (EDBT 2018 §7).
//!
//! ```text
//! cargo run -p grfusion-bench --release --bin harness -- all
//! cargo run -p grfusion-bench --release --bin harness -- fig7 --vertices 10000 --queries 25
//! ```
//!
//! Output is TSV: `experiment  dataset  system  x  value` (value in µs for
//! timings, or DNF when a system exceeded its resource budget — the
//! paper's did-not-finish points).

use std::process::ExitCode;

use grfusion_bench::experiments::{self, ExperimentScale, Measurement};

fn usage() -> ! {
    eprintln!(
        "usage: harness <experiment> [--vertices N] [--queries N] [--seed N] [--deadline-ms N] [--paper-like] [--metrics]\n\
         experiments: table2 | fig7 | fig8 | fig9 | fig10 | table3 |\n\
         \u{20}            ablate-pushdown | ablate-leninfer | ablate-lazy | ablate-traversal |\n\
         \u{20}            metrics | all\n\
         --deadline-ms N arms the per-query resource governor: any query\n\
         exceeding the wall-clock deadline aborts cleanly (reported as DNF)\n\
         --metrics additionally dumps per-operator EXPLAIN ANALYZE counters\n\
         (rows, next calls, vertexes visited, edges expanded, tuple derefs)\n\
         for one representative query per family, as TSV rows with\n\
         experiment = metrics"
    );
    std::process::exit(2);
}

/// What a well-formed command line asks for.
#[derive(Debug)]
struct Args {
    experiment: String,
    scale: ExperimentScale,
    with_metrics: bool,
}

/// Parse the arguments after the program name: the experiment, then flags
/// in any order; `None` for a malformed line. The base scale is picked
/// first — `--paper-like` wherever it stands — and `--vertices`,
/// `--queries`, `--seed` and `--deadline-ms` then apply on top of it.
fn parse_args(args: &[String]) -> Option<Args> {
    let (experiment, flags) = args.split_first()?;
    let mut scale = if flags.iter().any(|f| f == "--paper-like") {
        ExperimentScale::paper_like()
    } else {
        ExperimentScale::small()
    };
    let mut with_metrics = false;
    let mut i = 0;
    while i < flags.len() {
        let flag = flags[i].as_str();
        if matches!(flag, "--paper-like" | "--metrics") {
            with_metrics |= flag == "--metrics";
            i += 1;
            continue;
        }
        let value = flags.get(i + 1)?;
        match flag {
            "--vertices" => scale.vertices = value.parse().ok()?,
            "--queries" => scale.queries = value.parse().ok()?,
            "--seed" => scale.seed = value.parse().ok()?,
            "--deadline-ms" => {
                let ms: u64 = value.parse().ok()?;
                scale.deadline_ms = (ms > 0).then_some(ms);
            }
            _ => return None,
        }
        i += 2;
    }
    Some(Args {
        experiment: experiment.clone(),
        scale,
        with_metrics,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(args) = parse_args(&argv) else {
        usage();
    };
    let (exp, scale) = (args.experiment, args.scale);

    let run = |name: &str, scale: &ExperimentScale| -> grfusion_common::Result<Vec<Measurement>> {
        match name {
            "table2" => experiments::table2(scale),
            "fig7" => experiments::fig7(scale),
            "fig8" => experiments::fig8(scale),
            "fig9" => experiments::fig9(scale),
            "fig10" => experiments::fig10(scale),
            "table3" => experiments::table3(scale),
            "ablate-pushdown" => experiments::ablate_pushdown(scale),
            "ablate-leninfer" => experiments::ablate_leninfer(scale),
            "ablate-lazy" => experiments::ablate_lazy(scale),
            "ablate-traversal" => experiments::ablate_traversal(scale),
            "metrics" => experiments::metrics(scale),
            other => {
                eprintln!("unknown experiment `{other}`");
                usage();
            }
        }
    };

    let experiments_to_run: Vec<&str> = if exp == "all" {
        vec![
            "table2",
            "table3",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablate-pushdown",
            "ablate-leninfer",
            "ablate-lazy",
            "ablate-traversal",
        ]
    } else {
        vec![exp.as_str()]
    };
    let mut experiments_to_run = experiments_to_run;
    if args.with_metrics && !experiments_to_run.contains(&"metrics") {
        experiments_to_run.push("metrics");
    }

    println!("experiment\tdataset\tsystem\tx\tvalue");
    for name in experiments_to_run {
        eprintln!("[harness] running {name} (vertices={}, queries={})", scale.vertices, scale.queries);
        match run(name, &scale) {
            Ok(rows) => {
                for r in rows {
                    println!("{}", r.line());
                }
            }
            Err(e) => {
                eprintln!("[harness] {name} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Option<Args> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn explicit_flags_win_over_paper_like_in_either_order() -> Result<(), String> {
        for args in [
            &["table2", "--vertices", "300", "--paper-like"][..],
            &["table2", "--paper-like", "--vertices", "300"],
        ] {
            let a = parse(args).ok_or(format!("{args:?} refused"))?;
            assert_eq!(a.scale.vertices, 300, "{args:?}");
            assert_eq!(
                a.scale.queries,
                ExperimentScale::paper_like().queries,
                "{args:?}"
            );
        }
        let a = parse(&["fig7", "--seed", "7", "--deadline-ms", "0", "--metrics"]);
        let a = a.ok_or("refused")?;
        assert_eq!((a.experiment.as_str(), a.scale.seed), ("fig7", 7));
        assert_eq!((a.scale.deadline_ms, a.with_metrics), (None, true));
        assert_eq!(a.scale.vertices, ExperimentScale::small().vertices);
        Ok(())
    }

    #[test]
    fn malformed_lines_are_refused() {
        for bad in [
            &[][..],
            &["fig7", "--vertices"],
            &["fig7", "--queries", "x"],
            &["fig7", "--workers", "2"],
        ] {
            assert!(parse(bad).is_none(), "{bad:?} accepted");
        }
    }
}
