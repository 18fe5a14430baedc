//! The engine invariant, in tier-1: on trimmed search machines the
//! lookahead-batched Sliced engine must land bit-identically on the
//! per-instruction Event oracle — answers, arrival times, per-node
//! cycles and instruction counts, per-wire bytes, full memory images.
//! Five fast rows of the full table in
//! `crates/bench/tests/determinism.rs` (which needs `--workspace`), and
//! one CPU-tier row: the translation tier off against the default.

use transputer_bench::hostperf::{
    assert_run_matches, figure8_smoke, hypercube_smoke, routed_smoke, sweep_engines, Machine,
};
use transputer_link::FaultPlan;
use transputer_net::Engine;

#[test]
fn e09_smoke_sliced_matches_event() {
    sweep_engines(
        "e09 smoke",
        |e| Machine::Tree(figure8_smoke()).build(e),
        |_, report| assert!(!report.degraded),
    );
}

#[test]
fn e09_smoke_faulted_sliced_matches_event() {
    sweep_engines(
        "e09 smoke faulted",
        |e| {
            Machine::Tree(figure8_smoke())
                .faulted(FaultPlan::uniform(1985, 2e-3))
                .build(e)
        },
        |sim, report| {
            assert!(!report.degraded, "retries must hide the faults");
            let net = sim.network();
            let retries: u64 = (0..net.len())
                .map(|id| net.node(id).stats().link_retries)
                .sum();
            assert!(retries > 0, "the fault rate must force retransmissions");
        },
    );
}

#[test]
fn routed_grid_store_and_forward_sliced_matches_event() {
    sweep_engines(
        "routed 3x3",
        |e| Machine::Routed(routed_smoke()).build(e),
        |_, report| assert!(!report.degraded),
    );
}

#[test]
fn routed_grid_wormhole_sliced_matches_event() {
    sweep_engines(
        "routed 3x3 wormhole",
        |e| Machine::Routed(routed_smoke()).wormhole().build(e),
        |_, report| assert!(!report.degraded),
    );
}

/// The topology the router-aware lookahead hop lengthens slices on most:
/// transit queues live at several cluster anchors at once.
#[test]
fn routed_hypercube_sliced_matches_event() {
    sweep_engines(
        "routed hypercube",
        |e| Machine::RoutedCube(hypercube_smoke()).build(e),
        |_, report| assert!(!report.degraded),
    );
}

/// The CPU tiers share one predecoded loop (`Cpu::run_predecoded`);
/// switching block lookups off must change nothing the simulation can
/// see. (Under the `TRANSLATE=off` hook both runs are tier-off.)
#[test]
fn e09_smoke_translate_off_matches_on() {
    let run = |translate: bool| {
        let mut config = figure8_smoke();
        config.net.cpu = config.net.cpu.with_translate(translate);
        let mut sim = Machine::Tree(config).build(Engine::Sliced);
        let report = sim.run(1_000_000_000_000).expect("runs");
        assert!(report.all_correct() && !report.degraded);
        (sim, report)
    };
    let (on, on_report) = run(true);
    let (off, off_report) = run(false);
    let net = off.network();
    let enters: u64 = (0..net.len())
        .map(|id| net.node(id).stats().trans_enters)
        .sum();
    assert_eq!(enters, 0, "the tier-off run must not enter a block");
    assert_run_matches(
        "e09 smoke translate off",
        &off,
        &off_report,
        &on,
        &on_report,
    );
}
