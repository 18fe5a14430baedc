//! Lint gate over everything the benchmarks execute: the occam
//! workload corpus, the generated experiment sources, and the
//! hand-assembled experiment images — every program must pass the
//! `transputer-analysis` checks that back `txlint`.
//!
//! Usage: `cargo run --release -p transputer-bench --bin lint_corpus`
//!
//! Four passes, all gating on errors (warnings are reported and
//! counted but do not fail):
//!
//! 1. **Corpus sources** — channel-usage lints, compiler PAR-usage
//!    warnings, and the CFG-based bytecode verifier over the emitted
//!    code.
//! 2. **Experiment sources** — the same stack over every occam source
//!    the experiment binaries generate (compiler-shape checks, the
//!    e09 database-search node programs, the e11 workstation
//!    placements).
//! 3. **Experiment images** — CFG recovery and bytecode verification
//!    over every hand-assembled image e01–e14 load into a CPU.
//! 4. **Static cost model** — `cost::analyze_program` versus the
//!    emulator over the compute-class validation corpus; any program
//!    the model refuses, or predicts with more than 5 % cycle error,
//!    fails the gate. The table is printed with a `static-model: `
//!    prefix so CI can lift it into the job summary.

use transputer_analysis::cfg::Cfg;
use transputer_analysis::{lint_occam, Diagnostic};
use transputer_bench::corpus::{CORPUS, STATIC_MODEL_CORPUS};
use transputer_bench::expimages;
use transputer_bench::hostperf::static_model_runs;

struct Tally {
    errors: usize,
    warnings: usize,
}

impl Tally {
    fn report(&mut self, name: &str, diags: &[Diagnostic]) {
        for d in diags {
            println!("{name}: {d}");
            if d.is_error() {
                self.errors += 1;
            } else {
                self.warnings += 1;
            }
        }
        if diags.is_empty() {
            println!("{name}: ok");
        }
    }
}

fn main() {
    let mut tally = Tally {
        errors: 0,
        warnings: 0,
    };

    // Pass 1: the occam workload corpus.
    println!("== occam corpus ==");
    for item in CORPUS {
        tally.report(item.name, &lint_occam(item.source).0);
    }

    // Pass 2: generated experiment sources.
    println!("\n== experiment sources ==");
    let sources = expimages::experiment_sources();
    for (name, source) in &sources {
        tally.report(name, &lint_occam(source).0);
    }

    // Pass 3: hand-assembled experiment images.
    println!("\n== experiment images ==");
    let images = expimages::experiment_images();
    for img in &images {
        let cfg = Cfg::recover(&img.code);
        tally.report(img.name, &cfg.diags);
        for u in &cfg.unanalyzable {
            println!("{}: note: {u}", img.name);
        }
    }

    // Pass 4: the static cost model against the emulator.
    println!("\n== static cost model ==");
    println!("static-model: | program | predicted cycles | measured cycles | error |");
    println!("static-model: |---|---:|---:|---:|");
    let mut model_problems = Vec::new();
    for r in static_model_runs(&mut model_problems) {
        println!(
            "static-model: | {} | {} | {} | {} |",
            r.name,
            r.predicted
                .map_or("(refused)".to_string(), |p| p.to_string()),
            r.measured,
            r.error_pct()
                .map_or("—".to_string(), |e| format!("{e:.3}%")),
        );
    }
    for p in &model_problems {
        println!("{p}");
    }
    tally.errors += model_problems.len();

    println!(
        "\nlint gate: {} corpus + {} experiment source(s) + {} image(s) + {} model check(s), \
         {} error(s), {} warning(s)",
        CORPUS.len(),
        sources.len(),
        images.len(),
        STATIC_MODEL_CORPUS.len(),
        tally.errors,
        tally.warnings
    );
    if tally.errors > 0 {
        println!("FAIL: lint errors in the benchmark workloads");
        std::process::exit(1);
    }
}
