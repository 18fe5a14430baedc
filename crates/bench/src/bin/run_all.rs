//! Run every experiment binary in order, producing the complete
//! paper-vs-measured report (EXPERIMENTS.md from `## E1` down is their
//! concatenated output), then the corpus lint gate and `hostperf`, which
//! rewrites `BENCH_host.json` in the current directory.
//!
//! Usage, from the repository root:
//!   `cargo run --release -p transputer-bench --bin run_all`
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
fn run_gate(path: &Path, name: &str) -> Option<String> {
    let out = match Command::new(path).output() {
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
    // The experiments, then the lint gate (the occam corpus must pass
    // the txlint checks), then the exact ledger: every engine and CPU
    // tier must produce bit-identical simulated outcomes, clean, under
    // injected link faults and over the router.
    for name in EXPERIMENTS.iter().chain(&["lint_corpus", "hostperf"]) {
        if let Some(failure) = run_gate(&dir.join(name), name) {
            failures.push(failure);
        }
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
