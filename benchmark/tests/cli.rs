//! The command-line surface, driven as the driver and a user drive it.

use std::path::PathBuf;
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_grfusion-benchmark");

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn env_scrub_removes_grfusion_variables_before_the_engine_starts() {
    // Either variable, left in place, fails the engine's first statement.
    let out = Command::new(EXE)
        .arg("env-check")
        .env("GRFUSION_WORKERS", "banana")
        .env("GRFUSION_FAULTS", "not a plan")
        .env("UNRELATED_VARIABLE", "kept")
        .output()
        .unwrap();
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    assert!(
        text.contains("scrubbed GRFUSION_FAULTS,GRFUSION_WORKERS\n"),
        "{text}"
    );
    assert!(text.contains("left \n"), "{text}");
    assert!(text.contains("engine ok"), "{text}");
}

#[test]
fn driver_form_prints_the_contract_line_last() {
    let out = Command::new(EXE)
        .args(["run", "--smoke", "--workload", "analytic_prepared"])
        .args(["--seed", "11", "--trace", "0"])
        .output()
        .unwrap();
    let text = stdout(&out);
    assert!(out.status.success(), "{text}");
    let last = text.lines().last().unwrap();
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    assert!(last.contains("\"failed\":0,\"metrics\":{"), "{last}");
    for metric in ["read_ops_s", "read_p50_us", "setup_s", "peak_rss_mb"] {
        assert!(
            last.contains(&format!("\"{metric}\":{{\"value\":")),
            "{metric}: {last}"
        );
    }
    // Metrics that only some workloads have, or that do not repeat within
    // their bound on every workload, stay out of the contract block.
    for metric in ["write_ops_s", "failed_frac", "read_p99_us"] {
        assert!(!last.contains(metric), "{metric}: {last}");
    }
}

#[test]
fn bad_usage_exits_two_and_prints_no_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--trace", "1"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(EXE).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
    }
}

#[test]
fn compare_exits_nonzero_only_on_a_regression() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let doc = |p50: f64| {
        format!(
            "{{\"workloads\":{{\"adhoc_short\":{{\"end_to_end\":{{\
             \"read_p50_us\":{{\"value\":{p50},\"iqr\":0.1}}}}}}}}}}"
        )
    };
    let write = |name: &str, p50: f64| {
        let path = dir.join(format!("compare-{name}.json"));
        std::fs::write(&path, doc(p50)).unwrap();
        path
    };
    let (base, same, slow) = (write("base", 7.0), write("same", 7.2), write("slow", 12.0));
    let run = |b: &PathBuf| {
        Command::new(EXE)
            .arg("compare")
            .arg(&base)
            .arg(b)
            .output()
            .unwrap()
    };
    let ok = run(&same);
    assert!(ok.status.success(), "{}", stdout(&ok));
    assert!(stdout(&ok).contains(" ok\n"));
    let bad = run(&slow);
    assert_eq!(bad.status.code(), Some(1));
    assert!(stdout(&bad).contains("regressed"));
}
