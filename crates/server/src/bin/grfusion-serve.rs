//! `grfusion-serve`: stand-alone GRFusion server binary.
//!
//! Serves one in-memory database over the length-prefixed binary protocol
//! with per-tenant admission control. The engine's deployment settings —
//! deadline, memory cap, fault plan — are flags like the rest, under
//! *strict* validation: a malformed value is a startup error (exit 2) with
//! the flag and the offending value, never a silent fallback. The binary
//! reads no environment variable. SIGTERM/SIGINT and a client `Shutdown`
//! frame both trigger the graceful drain.
//!
//! ```text
//! grfusion-serve [--addr HOST:PORT] [--max-concurrent N]
//!                [--max-queued-bytes N] [--global-in-flight N]
//!                [--drain-ms N] [--init FILE] [--deadline-ms N]
//!                [--memory-bytes N] [--faults SPEC]
//! ```

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use grfusion::{Database, EngineConfig, FaultPlan};
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
    --max-concurrent N      per-tenant concurrent-query quota, at least 1 (default 4)
    --max-queued-bytes N    per-tenant queued-SQL-bytes quota, at least 1 (default 1048576)
    --global-in-flight N    global in-flight cap, at least 1 (default 8)
    --drain-ms N            graceful-drain deadline in ms (default 2000)
    --init FILE             execute a SQL script before accepting connections
    --deadline-ms N         per-query wall-clock deadline in ms (0 = off, the default)
    --memory-bytes N        per-query cap on materialized bytes (0 = off, the default)
    --faults SPEC           fault-injection plan `<seed>:<site>[@<n>]=<kind>[,...]`
                            for the engine's and the network's sites (default none)
    --help                  print this help";

struct Args {
    /// Carries the fault plan too: the server's `net.*` sites read it from
    /// here, and `main` installs the same plan in the engine.
    cfg: ServerConfig,
    engine: EngineConfig,
    init: Option<String>,
}

/// What a well-formed command line asks for.
enum Command {
    Serve(Args),
    /// `--help` / `-h`: the usage goes to stdout and the exit status is 0.
    Help,
}

/// The command line's request, or the message (usage included where it
/// helps) that a malformed one exits 2 with.
fn parse_args(argv: &[String]) -> Result<Command, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7432".to_string(),
        ..ServerConfig::default()
    };
    let mut engine = EngineConfig::default();
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
            "--help" | "-h" => return Ok(Command::Help),
            "--addr" => cfg.addr = value("--addr")?,
            "--max-concurrent" => {
                quota.max_concurrent = parse_quota(&value(flag)?, flag)?;
            }
            "--max-queued-bytes" => {
                quota.max_queued_bytes = parse_quota(&value(flag)?, flag)?;
            }
            "--global-in-flight" => {
                cfg.global_in_flight = parse_quota(&value(flag)?, flag)?;
            }
            "--drain-ms" => {
                cfg.drain_deadline_ms = parse_num(&value(flag)?, flag)?;
            }
            "--init" => init = Some(value(flag)?),
            "--deadline-ms" => {
                engine.governor.deadline_ms = parse_limit(&value(flag)?, flag)?;
            }
            "--memory-bytes" => {
                engine.governor.max_memory_bytes = parse_limit(&value(flag)?, flag)?;
            }
            "--faults" => {
                let spec = value(flag)?;
                let plan = FaultPlan::parse(&spec).map_err(|e| format!("{flag}: {e}"))?;
                cfg.faults = Some(plan);
            }
            other => return Err(format!("unknown flag `{other}`\n\n{USAGE}")),
        }
        i += 1;
    }
    cfg.quota = quota;
    Ok(Command::Serve(Args { cfg, engine, init }))
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: invalid value `{s}`"))
}

/// A governor limit: a non-negative integer, `0` meaning off.
fn parse_limit(s: &str, flag: &str) -> Result<Option<u64>, String> {
    parse_num::<u64>(s, flag).map(|n| (n > 0).then_some(n))
}

/// An admission quota: `0` would shed every statement, so it is refused.
fn parse_quota(s: &str, flag: &str) -> Result<usize, String> {
    match parse_num(s, flag)? {
        0 => Err(format!("{flag}: invalid value `0`: must be at least 1")),
        n => Ok(n),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Command::Serve(a)) => a,
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let db = Arc::new(Database::with_config(args.engine));
    db.set_fault_plan(args.cfg.faults.clone());

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

    fn command(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn parse(args: &[&str]) -> Result<Args, String> {
        match command(args)? {
            Command::Serve(args) => Ok(args),
            Command::Help => Err("help asked for".to_string()),
        }
    }

    #[test]
    fn help_and_readme_list_the_knobs_the_parser_reads() {
        // `--help` / `-h` are a request (usage on stdout, exit 0) wherever
        // they stand; a malformed flag is an error (stderr, exit 2) whose
        // message carries the usage.
        for args in [
            &["--help"][..],
            &["-h"],
            &["--addr", "127.0.0.1:0", "--help"],
        ] {
            assert!(matches!(command(args), Ok(Command::Help)), "{args:?}");
        }
        let e = parse(&["--bogus"]).err().unwrap_or_default();
        assert!(
            e.contains("unknown flag `--bogus`") && e.contains(USAGE),
            "{e}"
        );
        let readme = include_str!("../../../../README.md");
        for flag in ["--deadline-ms", "--memory-bytes", "--faults"] {
            assert!(USAGE.contains(flag), "usage omits {flag}:\n{USAGE}");
            assert!(readme.contains(&format!("`{flag}")), "README omits {flag}");
        }
    }

    #[test]
    fn governor_limits_parse_strictly_with_zero_meaning_off() {
        type Get = fn(&EngineConfig) -> Option<u64>;
        let limits: [(&str, Get); 2] = [
            ("--deadline-ms", |c| c.governor.deadline_ms),
            ("--memory-bytes", |c| c.governor.max_memory_bytes),
        ];
        for (flag, get) in limits {
            let limit = |args: &[&str]| parse(args).map(|a| get(&a.engine));
            assert_eq!(limit(&[]), Ok(None), "{flag} unset");
            assert_eq!(limit(&[flag, "50"]), Ok(Some(50)), "{flag} 50");
            assert_eq!(limit(&[flag, "0"]), Ok(None), "{flag} 0");
            for bad in ["lots", "-1", "1.5", ""] {
                let e = parse(&[flag, bad]).err().unwrap_or_default();
                assert!(e.contains(flag) && e.contains(&format!("`{bad}`")), "{flag} {bad}: {e}");
            }
            let e = parse(&[flag]).err().unwrap_or_default();
            assert!(e.contains(flag), "{flag} with no value: {e}");
        }
    }

    #[test]
    fn fault_plan_flag_parses_or_names_the_spec() {
        let plan = |args: &[&str]| parse(args).map(|a| a.cfg.faults.map(|p| (p.seed, p.rules.len())));
        assert_eq!(plan(&["--faults", "7:dml=error,net.accept@2=error"]), Ok(Some((7, 2))));
        assert_eq!(plan(&[]), Ok(None));

        let e = parse(&["--faults", "bogus"]).err().unwrap_or_default();
        assert!(e.contains("--faults") && e.contains("invalid fault plan `bogus`"), "{e}");
    }

    #[test]
    fn zero_quotas_are_refused_by_name() {
        for flag in ["--max-concurrent", "--max-queued-bytes", "--global-in-flight"] {
            let e = parse(&[flag, "0"]).err().unwrap_or_default();
            assert!(e.contains(flag) && e.contains("at least 1"), "{flag} 0: {e}");
            assert!(parse(&[flag, "1"]).is_ok(), "{flag} 1");
        }
    }
}
