//! The engine invariant, in tier-1: on trimmed search machines the
//! lookahead-batched Sliced engine must land bit-identically on the
//! per-instruction Event oracle — answers, arrival times, per-node
//! cycles and instruction counts, per-wire bytes, full memory images.
//! Five fast rows of the full table in
//! `crates/bench/tests/determinism.rs` (which needs `--workspace`),
//! one CPU-tier row: the translation tier off against the default, and
//! one hand-assembled row that keeps both lanes of the event queue busy.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer_bench::hostperf::{
    assert_run_matches, figure8_smoke, full_image, hypercube_smoke, routed_smoke, sweep_engines,
    Machine,
};
use transputer_link::FaultPlan;
use transputer_net::{Engine, NetworkBuilder, NetworkConfig};

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

/// Both lanes of the event queue at once, on a classic network (where
/// data-start probes and timer wakes can tie): the sender streams eight
/// words — frames 200 and 1 100 ns ahead of the frontier, the queue's
/// near lane — at a receiver that first sleeps one low-priority timer
/// tick, a wake 64 us ahead, far beyond the near lane's 4 096 ns. The
/// first byte lands while that wake waits in the far lane; the other 31
/// stream once it has popped.
#[test]
fn timer_sleep_beside_a_byte_stream_sliced_matches_event() {
    const WORDS: u32 = 8;
    let mut sender = Vec::new();
    for k in 0..WORDS {
        sender.extend(encode(Direct::LoadConstant, i64::from(0x1985_0000 + k)));
        sender.extend(encode_op(Op::MinimumInteger));
        sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
        sender.extend(encode_op(Op::OutputWord));
    }
    sender.extend(encode_op(Op::HaltSimulation));

    let mut receiver = Vec::new();
    receiver.extend(encode_op(Op::LoadTimer));
    receiver.extend(encode(Direct::AddConstant, 1));
    receiver.extend(encode_op(Op::TimerInput));
    receiver.extend(encode(Direct::LoadLocalPointer, 1));
    receiver.extend(encode_op(Op::MinimumInteger));
    receiver.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
    receiver.extend(encode(Direct::LoadConstant, i64::from(4 * WORDS)));
    receiver.extend(encode_op(Op::InputMessage));
    receiver.extend(encode_op(Op::HaltSimulation));

    let run = |engine| {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        let tx = b.add_node();
        let rx = b.add_node();
        b.connect((tx, 0), (rx, 0));
        let mut net = b.build();
        net.node_mut(tx).load_boot_program(&sender).unwrap();
        net.node_mut(rx).load_boot_program(&receiver).unwrap();
        net.run_until_all_halted(10_000_000).unwrap();
        assert!(net.time_ns() > 64_000, "{engine:?}: the receiver slept");
        let w = net.node(rx).default_boot_workspace();
        for k in 0..WORDS {
            let got = net.node_mut(rx).peek_word(w + 4 * (k + 1)).unwrap();
            assert_eq!(got, 0x1985_0000 + k, "{engine:?}: word {k}");
        }
        net
    };
    let event = run(Engine::Event);
    let sliced = run(Engine::Sliced);
    assert_eq!(event.wire_delivered(0), (0, u64::from(4 * WORDS)));
    assert_eq!(sliced.wire_delivered(0), event.wire_delivered(0));
    for id in 0..2 {
        let (e, s) = (event.node(id), sliced.node(id));
        assert_eq!(s.cycles(), e.cycles(), "node {id} cycles");
        assert_eq!(
            s.stats().instructions,
            e.stats().instructions,
            "node {id} instructions"
        );
        assert!(full_image(s) == full_image(e), "node {id} memory image");
    }
}
