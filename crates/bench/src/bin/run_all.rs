//! Run every experiment binary in order, producing the complete
//! paper-vs-measured report (the source of EXPERIMENTS.md), then the
//! corpus lint gate and the `hostperf --smoke` outcome gate.
//!
//! Usage: `cargo run --release -p transputer-bench --bin run_all`
//!
//! Exits non-zero if any experiment exits non-zero (including panics,
//! which surface as a non-success status with their message echoed
//! from stderr), prints a `FAIL:` marker, or fails a gate; each
//! failure is reported with its cause.

use std::path::Path;
use std::process::Command;

use transputer_bench::hostperf::EXPERIMENTS;

/// Run one binary, echoing its stdout (and stderr, so panic messages
/// are not swallowed), and describe the failure if it failed.
fn run_gate(path: &Path, name: &str, args: &[&str], envs: &[(&str, &str)]) -> Option<String> {
    let mut cmd = Command::new(path);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => return Some(format!("{name}: failed to launch: {e}")),
    };
    print!("{}", String::from_utf8_lossy(&out.stdout));
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        let cause = match out.status.code() {
            // 101 is the Rust panic exit status.
            Some(101) => "panicked (exit status 101)".to_string(),
            Some(code) => format!("exit status {code}"),
            None => "killed by a signal".to_string(),
        };
        return Some(format!("{name}: {cause}"));
    }
    if String::from_utf8_lossy(&out.stdout).contains("FAIL:") {
        return Some(format!("{name}: FAIL marker in output"));
    }
    None
}

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin directory");
    let mut failures = Vec::new();
    for name in EXPERIMENTS {
        if let Some(failure) = run_gate(&dir.join(name), name, &[], &[]) {
            failures.push(failure);
        }
    }
    // The lint gate: the occam corpus must pass the txlint checks.
    if let Some(failure) = run_gate(&dir.join("lint_corpus"), "lint_corpus", &[], &[]) {
        failures.push(failure);
    }
    // The host-performance smoke gate: all engines must produce
    // bit-identical simulated outcomes (wall time is informational),
    // clean and under injected link faults. Its JSON and its history
    // line go next to the binaries so the full `hostperf` run's
    // committed BENCH_host.json and BENCH_history.jsonl are not touched.
    let smoke_out = dir.join("BENCH_host_smoke.json");
    let smoke_history = dir.join("BENCH_history_smoke.jsonl");
    if let Some(failure) = run_gate(
        &dir.join("hostperf"),
        "hostperf_smoke",
        &["--smoke"],
        &[
            ("BENCH_HOST_OUT", smoke_out.to_str().expect("utf-8 path")),
            (
                "BENCH_HISTORY_OUT",
                smoke_history.to_str().expect("utf-8 path"),
            ),
        ],
    ) {
        failures.push(failure);
    }
    println!("\n---\n");
    if failures.is_empty() {
        println!("all {} experiments PASS", EXPERIMENTS.len());
    } else {
        println!("FAILING experiments:");
        for f in &failures {
            println!("  {f}");
        }
        std::process::exit(1);
    }
}
