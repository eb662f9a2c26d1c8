//! `grfusion-serve`: stand-alone GRFusion server binary.
//!
//! Serves one in-memory database over the length-prefixed binary protocol
//! with per-tenant admission control. Engine knobs come from the
//! environment (`GRFUSION_DEADLINE_MS`, `GRFUSION_MEMORY_BYTES`) under
//! *strict* validation — a malformed value is a startup error with the variable
//! name and offending value, never a silent fallback. SIGTERM/SIGINT and
//! a client `Shutdown` frame both trigger the graceful drain.
//!
//! ```text
//! grfusion-serve [--addr HOST:PORT] [--max-concurrent N]
//!                [--max-queued-bytes N] [--global-in-flight N]
//!                [--drain-ms N] [--init FILE]
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use grfusion::{Database, EngineConfig};
use grfusion_server::{Server, ServerConfig, TenantQuota};

/// Set by the SIGTERM/SIGINT handler; the main loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    use super::STOP;
    use std::sync::atomic::Ordering;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize); // cast-ok: handler address for signal(2)
            signal(SIGTERM, on_signal as *const () as usize); // cast-ok: handler address for signal(2)
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
}

const USAGE: &str = "grfusion-serve: serve an in-memory GRFusion database over TCP

USAGE:
    grfusion-serve [OPTIONS]

OPTIONS:
    --addr HOST:PORT        bind address (default 127.0.0.1:7432; port 0 = ephemeral)
    --max-concurrent N      per-tenant concurrent-query quota (default 4)
    --max-queued-bytes N    per-tenant queued-SQL-bytes quota (default 1048576)
    --global-in-flight N    global in-flight cap (default 8)
    --drain-ms N            graceful-drain deadline in ms (default 2000)
    --init FILE             execute a SQL script before accepting connections
    --help                  print this help";

/// [`USAGE`] plus the engine knobs, listed from the environment parser's
/// own table so the help text cannot name a variable nothing reads.
fn usage() -> String {
    let knobs: Vec<&str> = EngineConfig::env_vars().collect();
    format!(
        "{USAGE}\n\nEngine knobs, read from the environment under strict validation (a\n\
         malformed value is a startup error), plus GRFUSION_FAULTS:\n    {}",
        knobs.join("\n    ")
    )
}

struct Args {
    cfg: ServerConfig,
    init: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7432".to_string(),
        ..ServerConfig::default()
    };
    let mut init = None;
    let mut quota = TenantQuota::default();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag {
            "--help" | "-h" => return Err(usage()),
            "--addr" => cfg.addr = value("--addr")?,
            "--max-concurrent" => {
                quota.max_concurrent = parse_num(&value("--max-concurrent")?, "--max-concurrent")?;
            }
            "--max-queued-bytes" => {
                quota.max_queued_bytes =
                    parse_num(&value("--max-queued-bytes")?, "--max-queued-bytes")?;
            }
            "--global-in-flight" => {
                cfg.global_in_flight =
                    parse_num(&value("--global-in-flight")?, "--global-in-flight")?;
            }
            "--drain-ms" => {
                cfg.drain_deadline_ms = parse_num(&value("--drain-ms")?, "--drain-ms")?;
            }
            "--init" => init = Some(value("--init")?),
            other => return Err(format!("unknown flag `{other}`\n\n{}", usage())),
        }
        i += 1;
    }
    cfg.quota = quota;
    Ok(Args { cfg, init })
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: invalid value `{s}`"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    // Strict engine-env validation: refuse to start on a malformed knob
    // instead of serving traffic with silently-degraded configuration.
    let engine_cfg = match EngineConfig::from_env_checked() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("grfusion-serve: {e}");
            return ExitCode::from(2);
        }
    };
    let db = Arc::new(Database::with_config(engine_cfg));

    if let Some(path) = &args.init {
        let script = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("grfusion-serve: --init {path}: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = db.execute_script(&script) {
            eprintln!("grfusion-serve: --init {path}: {e}");
            return ExitCode::from(2);
        }
    }

    sig::install();
    let handle = match Server::start(db, args.cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("grfusion-serve: {e}");
            return ExitCode::from(1);
        }
    };
    println!("grfusion-serve: listening on {}", handle.addr());

    while !STOP.load(Ordering::SeqCst) && !handle.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("grfusion-serve: draining");
    for t in handle.shutdown() {
        println!(
            "grfusion-serve: tenant {} admitted={} shed={}",
            t.tenant, t.admitted, t.shed
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_readme_list_the_knobs_the_parser_reads() {
        // `--help` short-circuits parsing with the usage text as the "error".
        let help = parse_args(&["--help".to_string()])
            .err()
            .unwrap_or_default();
        let readme = include_str!("../../../../README.md");
        for var in EngineConfig::env_vars() {
            assert!(help.contains(var), "usage omits {var}:\n{help}");
            assert!(
                readme.contains(&format!("| `{var}` |")),
                "README knob table omits {var}"
            );
        }
        // Every GRFUSION_* name in the text is one something reads.
        for word in help.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            if word.starts_with("GRFUSION_") {
                assert!(
                    word == "GRFUSION_FAULTS" || EngineConfig::env_vars().any(|v| v == word),
                    "usage advertises {word}, which nothing reads"
                );
            }
        }
    }
}
