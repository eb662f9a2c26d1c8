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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let exp = args[0].clone();
    let mut scale = ExperimentScale::small();
    let mut with_metrics = false;
    let mut deadline_ms = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--paper-like" => {
                scale = ExperimentScale::paper_like();
                i += 1;
            }
            "--vertices" => {
                scale.vertices = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--queries" => {
                scale.queries = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                scale.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--deadline-ms" => {
                let ms: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                deadline_ms = (ms > 0).then_some(ms);
                i += 2;
            }
            "--metrics" => {
                with_metrics = true;
                i += 1;
            }
            _ => usage(),
        }
    }

    // Applied after the loop so `--paper-like` cannot reset it.
    scale.deadline_ms = deadline_ms;

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
    if with_metrics && !experiments_to_run.contains(&"metrics") {
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
