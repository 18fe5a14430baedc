//! Fault injection: the robust link protocol must survive the planned
//! faults deterministically, and declare links dead instead of wedging.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer_link::FaultPlan;
use transputer_net::{Engine, NetworkBuilder, NetworkConfig, SimOutcome};

fn sender(word: i64) -> Vec<u8> {
    let mut c = Vec::new();
    c.extend(encode(Direct::LoadConstant, word));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocalPointer, 1));
    c.extend(encode_op(Op::MinimumInteger));
    c.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
    c.extend(encode(Direct::LoadConstant, 4));
    c.extend(encode_op(Op::OutputMessage));
    c.extend(encode_op(Op::HaltSimulation));
    c
}

fn receiver() -> Vec<u8> {
    let mut c = Vec::new();
    c.extend(encode(Direct::LoadLocalPointer, 1));
    c.extend(encode_op(Op::MinimumInteger));
    c.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
    c.extend(encode(Direct::LoadConstant, 4));
    c.extend(encode_op(Op::InputMessage));
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode_op(Op::HaltSimulation));
    c
}

/// Engine-invariant observables of a one-word transfer: per-node cycle
/// counts, delivered-byte counts, and the word received. (The *final
/// detection time* of all-halted is not compared: it is the pop time of
/// the event that noticed the halt, which is coarser under the sliced
/// engines — exactly as in the classic determinism suite.)
#[allow(clippy::type_complexity)]
fn transfer_under(fault: Option<FaultPlan>, engine: Engine) -> ((u64, u64, (u64, u64), i64), u64) {
    let mut b = NetworkBuilder::new(NetworkConfig {
        engine,
        fault,
        ..NetworkConfig::default()
    });
    let tx = b.add_node();
    let rx = b.add_node();
    b.connect((tx, 0), (rx, 0));
    let mut net = b.build();
    net.node_mut(tx)
        .load_boot_program(&sender(0x1234_5678))
        .unwrap();
    net.node_mut(rx).load_boot_program(&receiver()).unwrap();
    let out = net.run_until_all_halted(1_000_000_000).unwrap();
    assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
    (
        (
            net.node(tx).cycles(),
            net.node(rx).cycles(),
            net.wire_delivered(0),
            net.node(rx).areg() as i64,
        ),
        net.time_ns(),
    )
}

/// The robust protocol with a zero fault rate still transfers correctly
/// (it is slower than classic — 13-bit frames — but lossless).
#[test]
fn robust_protocol_clean_wire_transfers() {
    for engine in [Engine::Event, Engine::Sliced] {
        let ((_, _, delivered, got), _) = transfer_under(Some(FaultPlan::uniform(1, 0.0)), engine);
        assert_eq!(got, 0x1234_5678, "{engine:?}");
        assert_eq!(delivered.0 + delivered.1, 4, "{engine:?}");
    }
}

/// Retransmission recovers from heavy loss and corruption: at a 5% rate
/// per packet, a word still crosses the wire intact.
#[test]
fn retries_recover_from_heavy_faults() {
    for seed in [1u64, 2, 3, 42] {
        let plan = FaultPlan::uniform(seed, 0.05);
        let ((_, _, _, got), _) = transfer_under(Some(plan), Engine::Sliced);
        assert_eq!(got, 0x1234_5678, "seed {seed}");
    }
}

/// The same fault seed produces bit-identical runs under every engine:
/// same final time, same per-node cycle counts, same received word.
#[test]
fn engines_agree_under_faults() {
    for seed in [7u64, 1985] {
        let mut reference = None;
        for engine in [Engine::Event, Engine::Sliced] {
            let (got, _) = transfer_under(Some(FaultPlan::uniform(seed, 0.08)), engine);
            match reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(got, want, "{engine:?} diverged at seed {seed}"),
            }
        }
    }
}

/// Faults slow a transfer down but never corrupt it: under one engine,
/// the faulted run finishes strictly later than the clean robust run.
#[test]
fn faults_cost_time_not_correctness() {
    let (_, clean_ns) = transfer_under(Some(FaultPlan::uniform(3, 0.0)), Engine::Sliced);
    let ((_, _, _, got), faulted_ns) =
        transfer_under(Some(FaultPlan::uniform(3, 0.2)), Engine::Sliced);
    assert_eq!(got, 0x1234_5678);
    assert!(
        faulted_ns > clean_ns,
        "faulted {faulted_ns} <= clean {clean_ns} ns"
    );
}

/// A wire that is dead from boot: the sender exhausts its retries, the
/// direction is declared failed, and the network reports deadlock
/// instead of hanging forever.
#[test]
fn dead_wire_is_declared_failed() {
    for engine in [Engine::Event, Engine::Sliced] {
        let plan = FaultPlan::uniform(1, 0.0).with_dead_link(0, 0);
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            fault: Some(plan),
            ..NetworkConfig::default()
        });
        let tx = b.add_node();
        let rx = b.add_node();
        b.connect((tx, 0), (rx, 0));
        let mut net = b.build();
        net.node_mut(tx).load_boot_program(&sender(1)).unwrap();
        net.node_mut(rx).load_boot_program(&receiver()).unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::Deadlock, "{engine:?}");
        assert!(net.any_link_failed(), "{engine:?}");
        let (from_a, _) = net.wire_failed(0);
        assert!(from_a, "sender direction must be the failed one");
        assert!(net.node(tx).stats().link_failures >= 1, "{engine:?}");
        assert!(net.node(tx).stats().link_retries >= 1, "{engine:?}");
    }
}

/// A faulted relay chain under the sliced engine lands bit-identically
/// on the event reference — per-node cycle counts, per-wire
/// delivered-byte counters, the relayed word, and the fault counters
/// themselves. The chain keeps several links retrying at once, so a
/// node's slice regularly runs alongside its neighbours' retransmissions.
#[test]
fn relay_chain_is_engine_invariant_under_faults() {
    // Receive a word on port 0, relay it out port 1, halt with it in
    // the A register.
    fn forwarder() -> Vec<u8> {
        let mut c = Vec::new();
        c.extend(encode(Direct::LoadLocalPointer, 1));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::InputMessage));
        c.extend(encode(Direct::LoadLocalPointer, 1));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(
            Direct::LoadNonLocalPointer,
            LINK_OUT_BASE as i64 + 1,
        ));
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::OutputMessage));
        c.extend(encode(Direct::LoadLocal, 1));
        c.extend(encode_op(Op::HaltSimulation));
        c
    }

    const HOPS: usize = 6;
    let run = |engine: Engine| {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            fault: Some(FaultPlan::uniform(1985, 0.04)),
            ..NetworkConfig::default()
        });
        let nodes: Vec<_> = (0..HOPS + 2).map(|_| b.add_node()).collect();
        b.connect((nodes[0], 0), (nodes[1], 0));
        for i in 1..=HOPS {
            b.connect((nodes[i], 1), (nodes[i + 1], 0));
        }
        let mut net = b.build();
        net.node_mut(nodes[0])
            .load_boot_program(&sender(0x0BAD_CAFE))
            .unwrap();
        for &node in &nodes[1..=HOPS] {
            net.node_mut(node).load_boot_program(&forwarder()).unwrap();
        }
        net.node_mut(nodes[HOPS + 1])
            .load_boot_program(&receiver())
            .unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
        let cycles: Vec<u64> = (0..net.len()).map(|id| net.node(id).cycles()).collect();
        let delivered: Vec<(u64, u64)> = (0..net.wire_count())
            .map(|w| net.wire_delivered(w))
            .collect();
        let retries: u64 = (0..net.len())
            .map(|id| net.node(id).stats().link_retries)
            .sum();
        let rx_errors: u64 = (0..net.len())
            .map(|id| net.node(id).stats().link_rx_errors)
            .sum();
        let word = net.node(nodes[HOPS + 1]).areg() as i64;
        (cycles, delivered, retries, rx_errors, word)
    };

    let reference = run(Engine::Event);
    assert_eq!(reference.4, 0x0BAD_CAFE, "the word must survive the relay");
    assert!(reference.2 > 0, "the fault rate must force retransmissions");
    assert_eq!(run(Engine::Sliced), reference, "sliced diverged");
}

/// Error counters surface through `Stats`: a corrupting wire leaves
/// discarded-frame counts at the receivers and retries at the sender.
#[test]
fn stats_count_link_faults() {
    let plan = FaultPlan {
        corrupt_rate: 0.5,
        ..FaultPlan::uniform(11, 0.0)
    };
    let mut b = NetworkBuilder::new(NetworkConfig {
        fault: Some(plan),
        ..NetworkConfig::default()
    });
    let tx = b.add_node();
    let rx = b.add_node();
    b.connect((tx, 0), (rx, 0));
    let mut net = b.build();
    net.node_mut(tx).load_boot_program(&sender(0x7777)).unwrap();
    net.node_mut(rx).load_boot_program(&receiver()).unwrap();
    net.run_until_all_halted(1_000_000_000).unwrap();
    let total_errors = net.node(tx).stats().link_rx_errors
        + net.node(rx).stats().link_rx_errors
        + net.node(tx).stats().link_retries
        + net.node(rx).stats().link_dup_data;
    assert!(total_errors > 0, "a 50% corruption rate must leave traces");
    assert_eq!(net.node(rx).areg(), 0x7777, "word still arrives intact");
}
