//! Command line of the system benchmark.
//!
//! ```text
//! transputer-benchmark [--seed N] [--seconds S] [--smoke] [--repeat K] [--workload W]
//! transputer-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace` the process measures one pass of one workload itself
//! and prints the result line the benchmark contract asks for as the last
//! line of its standard output. Without it, the process runs the set
//! (or the one workload named) in child processes, both passes each,
//! prints every metric, and writes `out/results.json` and
//! `out/trace.json`.

use std::process::ExitCode;

use transputer_benchmark::harness::{self, Request};
use transputer_benchmark::report::{self, SetOptions};

/// Seed used when none is given: the paper's year, as everywhere else in
/// the repository.
const DEFAULT_SEED: u64 = 1985;

/// Seconds each pass measures when none are given.
const DEFAULT_SECONDS: f64 = 15.0;

/// The same under `--smoke`: the whole set, both passes, inside 10 s.
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => args.smoke = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&args.repeat) {
                    return Err("--repeat must be between 1 and 100".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });

    let ok = match (args.trace, args.workload) {
        // One pass of one workload, in this process.
        (Some(trace), Some(workload)) => {
            let request = Request {
                workload,
                seed: args.seed,
                seconds,
                trace,
                smoke: args.smoke,
            };
            harness::run(&request).and_then(|outcome| {
                if let Some(spans) = &outcome.trace {
                    let dir = report::out_dir();
                    std::fs::create_dir_all(&dir)
                        .and_then(|()| {
                            std::fs::write(
                                dir.join(format!("trace.{}.json", request.workload)),
                                spans.pretty(),
                            )
                        })
                        .map_err(|e| {
                            format!("cannot write the trace under {}: {e}", dir.display())
                        })?;
                }
                println!("{}", outcome.result_line());
                Ok(outcome.correct)
            })
        }
        (Some(_), None) => Err("--trace needs --workload".to_string()),
        // The set (or one workload of it), in child processes.
        (None, only) => report::run(&SetOptions {
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            repeat: args.repeat,
            only,
        }),
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAIL: a check failed or a bound was exceeded");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
