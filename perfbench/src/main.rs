//! Benchmark of the served tuning path: the HTTP gateway over the tuning
//! service, with API-key auth on, driven by a seeded workload.
//!
//! ```text
//! crowdtune-perfbench --workload <hot_cache|budget_ladder|cold_mix>
//!                     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the timed phases and prints the end-to-end metrics;
//! `--trace 1` runs the per-layer ledger instead. Either way the last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A served plan that differs from the in-process reference exits 1.

mod client;
mod e2e;
mod gen;
mod ledger;
mod report;
mod stack;

use gen::{Sizes, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in the child processes of the traced run.
    serve_child: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve_child = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--serve-child" => serve_child = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace,
        serve_child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("crowdtune-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let sizes = Sizes::for_run(args.workload, args.seconds);
    let plan = gen::generate(args.workload, args.seed, sizes, args.workload.segments());
    if let Some(label) = &args.serve_child {
        stack::serve_child(&plan, label);
        return ExitCode::SUCCESS;
    }
    println!(
        "workload={} seed={} seconds={} trace={} digest={:016x} cpus={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.digest(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let (correct, attempted, failed, metrics, mismatch) = if args.trace {
        let child_args = [
            "--workload".to_owned(),
            args.workload.name().to_owned(),
            "--seed".to_owned(),
            args.seed.to_string(),
            "--seconds".to_owned(),
            args.seconds.to_string(),
        ];
        let run = ledger::run(&plan, &child_args, args.seed);
        (
            run.failed == 0,
            run.attempted,
            run.failed,
            run.metrics,
            run.failed > 0,
        )
    } else {
        let run = e2e::run(&plan, sizes);
        let mismatch = run.plan_mismatches > 0;
        (
            run.correct,
            run.attempted,
            run.failed,
            run.metrics,
            mismatch,
        )
    };
    metrics.print_table();
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    // Each stack removed its own store; drop the parent once it is empty.
    let _ = std::fs::remove_dir(stack::out_dir().join("work"));
    if mismatch {
        eprintln!("crowdtune-perfbench: served plans differ from the reference");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
