//! The engine invariant, in tier-1: on trimmed search machines the
//! lookahead-batched Sliced engine must land bit-identically on the
//! per-instruction Event oracle — answers, arrival times, per-node
//! cycles and instruction counts, per-wire bytes, full memory images.
//! Five fast rows of the full table in
//! `crates/bench/tests/determinism.rs` (which needs `--workspace`).

use transputer_bench::hostperf::{
    figure8_smoke, hypercube_smoke, routed_smoke, sweep_engines, Machine,
};
use transputer_link::FaultPlan;

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
