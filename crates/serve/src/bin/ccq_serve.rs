//! `ccq-serve` — operate a crash-safe CCQ quantization job spool.
//!
//! ```text
//! ccq-serve init <root>
//! ccq-serve demo-spec <name> [--variant N]
//! ccq-serve enqueue <root> <spec-file>|-
//! ccq-serve run <root> [--workers N] [--drain] [--poll-ms MS]
//!                      [--max-retries N] [--base-backoff-ms MS]
//! ccq-serve status <root> [--assert-done N]
//! ccq-serve stop <root>
//! ```
//!
//! `run` drains the spool with a supervised worker pool; `stop` raises
//! the graceful-shutdown sentinel (workers park at the next autosave
//! boundary). A killed daemon needs no special handling: the next `run`
//! reclaims `running/` orphans and resumes them bit-for-bit.

// A CLI talks on stdout/stderr by design.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use ccq_serve::{run_daemon, DaemonConfig, Dir, JobSpec, JobStatus, ServeError, Spool};
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;

const USAGE: &str = "usage: ccq-serve <init|demo-spec|enqueue|run|status|stop> ... (see --help)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ccq-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, ServeError> {
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return Ok(ExitCode::FAILURE);
    };
    match cmd.as_str() {
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        "init" => {
            let root = expect_arg(args, 1, "root")?;
            Spool::new(root).init()?;
            println!("initialized spool at {root}");
            Ok(ExitCode::SUCCESS)
        }
        "demo-spec" => {
            let name = expect_arg(args, 1, "name")?;
            let variant = flag_value(args, "--variant")?.unwrap_or(0);
            print!("{}", JobSpec::demo(name, variant).render());
            Ok(ExitCode::SUCCESS)
        }
        "enqueue" => {
            let root = expect_arg(args, 1, "root")?;
            let src = expect_arg(args, 2, "spec-file")?;
            let text = if src == "-" {
                let mut buf = String::new();
                std::io::stdin()
                    .read_to_string(&mut buf)
                    .map_err(|e| ServeError::Io(format!("read stdin: {e}")))?;
                buf
            } else {
                std::fs::read_to_string(src)
                    .map_err(|e| ServeError::Io(format!("read {src}: {e}")))?
            };
            let spec = JobSpec::parse(&text)?;
            let spool = Spool::new(root);
            spool.init()?;
            spool.enqueue(&spec)?;
            println!("enqueued job {:?}", spec.name);
            Ok(ExitCode::SUCCESS)
        }
        "run" => {
            let root = expect_arg(args, 1, "root")?;
            let mut cfg = DaemonConfig {
                drain: args.iter().any(|a| a == "--drain"),
                ..DaemonConfig::default()
            };
            if let Some(n) = flag_value(args, "--workers")? {
                cfg.workers = n;
            }
            if let Some(ms) = flag_value(args, "--poll-ms")? {
                cfg.poll_ms = ms;
            }
            if let Some(n) = flag_value(args, "--max-retries")? {
                cfg.retry.max_retries = n;
            }
            if let Some(ms) = flag_value(args, "--base-backoff-ms")? {
                cfg.retry.base_backoff_ms = ms;
            }
            let spool = Spool::new(root);
            let report = run_daemon(&spool, &cfg, &AtomicBool::new(false))?;
            println!(
                "daemon exit: {} done, {} failed, {} quarantined, {} parked \
                 ({} claims, {} resumes, {} retries)",
                report.done,
                report.failed,
                report.quarantined,
                report.parked,
                report.claims,
                report.resumes,
                report.retries
            );
            Ok(ExitCode::SUCCESS)
        }
        "status" => {
            let root = expect_arg(args, 1, "root")?;
            let spool = Spool::new(root);
            let mut counts = [0usize; 5];
            for (i, d) in Dir::ALL.iter().enumerate() {
                let ids = spool.list(*d)?;
                counts[i] = ids.len();
                for id in ids {
                    let st = JobStatus::load_or_default(&spool.status_path(*d, &id))?;
                    let mut line = format!(
                        "{:<12} {id}  attempt={}{}",
                        d.name(),
                        st.attempt,
                        if st.resumed { " resumed" } else { "" }
                    );
                    if let Some(e) = &st.error {
                        line.push_str(&format!("  error: {e}"));
                    }
                    println!("{line}");
                }
            }
            println!(
                "totals: {} pending, {} running, {} done, {} failed, {} quarantined",
                counts[0], counts[1], counts[2], counts[3], counts[4]
            );
            if let Some(want) = flag_value::<usize>(args, "--assert-done")? {
                if counts[2] != want || counts[3] != 0 || counts[4] != 0 {
                    eprintln!(
                        "ccq-serve: assertion failed: expected {want} done and no \
                         failed/quarantined jobs"
                    );
                    return Ok(ExitCode::FAILURE);
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "stop" => {
            let root = expect_arg(args, 1, "root")?;
            Spool::new(root).request_stop()?;
            println!("stop requested; workers park at the next autosave boundary");
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("ccq-serve: unknown command {other:?}\n{USAGE}");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn expect_arg<'a>(args: &'a [String], idx: usize, what: &str) -> Result<&'a str, ServeError> {
    args.get(idx)
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| ServeError::Queue(format!("missing <{what}> argument\n{USAGE}")))
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, ServeError> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(pos + 1) else {
        return Err(ServeError::Queue(format!("{flag} needs a value")));
    };
    raw.parse::<T>()
        .map(Some)
        .map_err(|_| ServeError::Queue(format!("{flag}: cannot parse {raw:?}")))
}
