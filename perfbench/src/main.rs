//! Benchmark entry point.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-hedge --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Prints the host, every metric by name with its unit, and as the last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits nonzero when any correctness check failed.

// The report goes to stdout by design.
#![allow(clippy::print_stdout)]

use ccq_perfbench::{host, run, Params, Scale, Workload};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: ccq-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    )
}

fn parse() -> Result<Params, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    Ok(Params {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::full(),
        work_dir,
    })
}

fn main() -> ExitCode {
    host::pin_threads();
    let p = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&p.work_dir) {
        eprintln!("cannot create {}: {e}", p.work_dir.display());
        return ExitCode::FAILURE;
    }
    let out = run(&p);
    let _ = std::fs::remove_dir_all(&p.work_dir);
    if let Some(parent) = p.work_dir.parent() {
        // Removes the shared scratch root once the last run left it empty.
        let _ = std::fs::remove_dir(parent);
    }
    println!(
        "workload={} seed={} seconds={} trace={}",
        p.workload.name(),
        p.seed,
        p.seconds,
        u8::from(p.trace)
    );
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    println!("{}", out.result_json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
