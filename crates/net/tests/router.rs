//! The virtual-channel router: any-to-any occam channels over
//! store-and-forward packet hops, bit-identical between the Event
//! oracle and the Sliced engine, clean and faulted.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer_link::FaultPlan;
use transputer_net::topology::{grid_edge_wire, PORT_NORTH, PORT_SOUTH};
use transputer_net::{
    grid_wires, hypercube_wires, Engine, Network, NetworkBuilder, NetworkConfig, NodeId,
    RouterConfig, SimOutcome, Switching,
};

/// Send each word as one four-byte message out link port 0, then halt.
fn sender_words(words: &[i64]) -> Vec<u8> {
    let mut c = Vec::new();
    for (i, &word) in words.iter().enumerate() {
        let slot = i as i64 + 1;
        c.extend(encode(Direct::LoadConstant, word));
        c.extend(encode(Direct::StoreLocal, slot));
        c.extend(encode(Direct::LoadLocalPointer, slot));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::OutputMessage));
    }
    c.extend(encode(Direct::LoadConstant, 1));
    c.extend(encode_op(Op::HaltSimulation));
    c
}

/// Input `n` words from link port 0 into locals 1..=n, then halt.
fn receiver_words(n: i64) -> Vec<u8> {
    let mut c = Vec::new();
    for slot in 1..=n {
        c.extend(encode(Direct::LoadLocalPointer, slot));
        c.extend(encode_op(Op::MinimumInteger));
        c.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        c.extend(encode(Direct::LoadConstant, 4));
        c.extend(encode_op(Op::InputMessage));
    }
    c.extend(encode(Direct::LoadConstant, 1));
    c.extend(encode_op(Op::HaltSimulation));
    c
}

/// Do nothing: in a routed network, transit nodes forward in the router
/// with their CPUs halted.
fn halting() -> Vec<u8> {
    let mut c = Vec::new();
    c.extend(encode(Direct::LoadConstant, 1));
    c.extend(encode_op(Op::HaltSimulation));
    c
}

/// Engine-invariant observables: per-node cycle counts, per-wire
/// delivered-byte counts, and the words at the given `(node, local)`
/// workspace slots.
fn fingerprint(
    net: &mut Network,
    peeks: &[(NodeId, u32)],
) -> (Vec<u64>, Vec<(u64, u64)>, Vec<u32>) {
    let cycles = (0..net.len()).map(|n| net.node(n).cycles()).collect();
    let delivered = (0..net.wire_count())
        .map(|w| net.wire_delivered(w))
        .collect();
    let words = peeks
        .iter()
        .map(|&(node, slot)| {
            let addr = net.node(node).default_boot_workspace() + 4 * slot;
            net.node(node).inspect_word(addr).unwrap()
        })
        .collect();
    (cycles, delivered, words)
}

const ENGINES: [Engine; 2] = [Engine::Event, Engine::Sliced];

/// A word crosses a three-node chain whose middle CPU never runs a
/// forwarding process: the router hops the packet, store-and-forward.
#[test]
fn routed_word_crosses_a_transit_node() {
    let mut reference = None;
    for engine in ENGINES {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        for _ in 0..3 {
            b.add_node();
        }
        b.connect_all(&grid_wires(3, 1, 0)).enable_router();
        b.add_vc((0, 0), (2, 0));
        let mut net = b.build();
        net.node_mut(0)
            .load_boot_program(&sender_words(&[0x0CAF_E123]))
            .unwrap();
        net.node_mut(1).load_boot_program(&halting()).unwrap();
        net.node_mut(2)
            .load_boot_program(&receiver_words(1))
            .unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
        let got = fingerprint(&mut net, &[(2, 1)]);
        assert_eq!(got.2, vec![0x0CAF_E123], "{engine:?}");
        // One packet (4-byte header + 4-byte payload) crossed each hop.
        let total: u64 = got.1.iter().map(|&(a, b)| a + b).sum();
        assert_eq!(total, 16, "8 bytes on each of the two wires");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    }
}

/// Two virtual channels multiplex one wire: consecutive messages from
/// one CPU out port round-robin across its registered channels, and the
/// destination consumes them out of order (the parked delivery resumes
/// via the deferred acknowledge).
#[test]
fn virtual_channels_multiplex_one_wire() {
    let mut reference = None;
    for engine in ENGINES {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        b.add_node();
        b.add_node();
        b.connect_all(&grid_wires(2, 1, 0)).enable_router();
        b.add_vc((0, 0), (1, 0));
        b.add_vc((0, 0), (1, 1));
        let mut net = b.build();
        net.node_mut(0)
            .load_boot_program(&sender_words(&[111, 222]))
            .unwrap();
        // Input port 1 first: message one (on the port-0 channel) must
        // wait buffered in its delivery slot until after message two.
        let mut rx = Vec::new();
        for (slot, port) in [(1i64, 1i64), (2, 0)] {
            rx.extend(encode(Direct::LoadLocalPointer, slot));
            rx.extend(encode_op(Op::MinimumInteger));
            rx.extend(encode(
                Direct::LoadNonLocalPointer,
                LINK_IN_BASE as i64 + port,
            ));
            rx.extend(encode(Direct::LoadConstant, 4));
            rx.extend(encode_op(Op::InputMessage));
        }
        rx.extend(encode(Direct::LoadConstant, 1));
        rx.extend(encode_op(Op::HaltSimulation));
        net.node_mut(1).load_boot_program(&rx).unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
        let got = fingerprint(&mut net, &[(1, 1), (1, 2)]);
        assert_eq!(got.2, vec![222, 111], "{engine:?}");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    }
}

/// Bounded forwarding buffers exert backpressure instead of absorbing
/// unbounded traffic: against a receiver that never inputs, exactly one
/// packet reaches the stuck delivery slot and one more is parked with
/// its final acknowledge withheld — then the wire falls silent and the
/// sender stays blocked (deadlock, not memory growth).
#[test]
fn full_buffers_backpressure_the_sender() {
    let mut reference = None;
    for engine in ENGINES {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        b.add_node();
        b.add_node();
        b.connect_all(&grid_wires(2, 1, 0)).enable_router();
        b.add_vc((0, 0), (1, 0));
        let mut net = b.build();
        let words: Vec<i64> = (1..=12).collect();
        net.node_mut(0)
            .load_boot_program(&sender_words(&words))
            .unwrap();
        net.node_mut(1).load_boot_program(&halting()).unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::Deadlock, "{engine:?}");
        let (a, b_) = net.wire_delivered(0);
        assert_eq!(
            a + b_,
            16,
            "one delivered packet and one parked packet, nothing more ({engine:?})"
        );
        assert!(
            net.node(0).halt_reason().is_none(),
            "the sender must still be blocked mid-message ({engine:?})"
        );
        let got = fingerprint(&mut net, &[]);
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    }
}

/// Routed traffic under the robust protocol with heavy corruption:
/// both engines land on one bit-identical outcome.
#[test]
fn routed_faulted_runs_are_engine_invariant() {
    let mut reference = None;
    let mut run = |engine: Engine| {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            fault: Some(FaultPlan::uniform(1985, 0.05)),
            ..NetworkConfig::default()
        });
        for _ in 0..3 {
            b.add_node();
        }
        b.connect_all(&grid_wires(3, 1, 0)).enable_router();
        b.add_vc((0, 0), (2, 0));
        let mut net = b.build();
        net.node_mut(0)
            .load_boot_program(&sender_words(&[0x7E57_7E57, 0x000D_A7A5]))
            .unwrap();
        net.node_mut(1).load_boot_program(&halting()).unwrap();
        net.node_mut(2)
            .load_boot_program(&receiver_words(2))
            .unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
        let got = fingerprint(&mut net, &[(2, 1), (2, 2)]);
        assert_eq!(got.2, vec![0x7E57_7E57, 0x000D_A7A5], "{engine:?}");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    };
    for engine in ENGINES {
        run(engine);
    }
}

/// A wire dead from boot is excluded from the initial tables: traffic
/// between its endpoints detours around the square and the dead wire
/// carries nothing.
#[test]
fn boot_dead_wire_is_routed_around() {
    let direct = grid_edge_wire(2, 2, 0, 0, true);
    let mut reference = None;
    for engine in ENGINES {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            fault: Some(FaultPlan::uniform(1, 0.0).with_dead_link(direct, 0)),
            ..NetworkConfig::default()
        });
        for _ in 0..4 {
            b.add_node();
        }
        b.connect_all(&grid_wires(2, 2, 0)).enable_router();
        b.add_vc((0, 0), (1, 0));
        let mut net = b.build();
        net.node_mut(0)
            .load_boot_program(&sender_words(&[0x600D]))
            .unwrap();
        net.node_mut(1)
            .load_boot_program(&receiver_words(1))
            .unwrap();
        net.node_mut(2).load_boot_program(&halting()).unwrap();
        net.node_mut(3).load_boot_program(&halting()).unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
        let got = fingerprint(&mut net, &[(1, 1)]);
        assert_eq!(got.2, vec![0x600D], "{engine:?}");
        let (da, db) = net.wire_delivered(direct);
        assert_eq!((da, db), (0, 0), "the dead wire carried nothing");
        // Three detour hops: 0 -> 2 -> 3 -> 1, 8 bytes each.
        let total: u64 = got.1.iter().map(|&(a, b)| a + b).sum();
        assert_eq!(total, 24, "{engine:?}");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    }
}

/// A mid-run `DeadLink` on the hop in use: the sender's retries exhaust,
/// the router rebuilds its tables from the surviving adjacency, reroutes
/// the stranded packets, and the full message stream still arrives —
/// identically on both engines.
#[test]
fn midrun_dead_link_reroutes_identically() {
    let direct = grid_edge_wire(2, 2, 0, 0, true);
    let words: Vec<i64> = vec![11, 22, 33, 44];
    let mut reference = None;
    let mut run = |engine: Engine| {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            // The wire dies mid-stream, while packets are crossing it.
            fault: Some(FaultPlan::uniform(1, 0.0).with_dead_link(direct, 5_000)),
            ..NetworkConfig::default()
        });
        for _ in 0..4 {
            b.add_node();
        }
        b.connect_all(&grid_wires(2, 2, 0)).enable_router();
        b.add_vc((0, 0), (1, 0));
        let mut net = b.build();
        net.node_mut(0)
            .load_boot_program(&sender_words(&words))
            .unwrap();
        net.node_mut(1)
            .load_boot_program(&receiver_words(words.len() as i64))
            .unwrap();
        net.node_mut(2).load_boot_program(&halting()).unwrap();
        net.node_mut(3).load_boot_program(&halting()).unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
        assert!(net.any_link_failed(), "the hop must actually die mid-run");
        assert!(
            net.route_reachable(0, 1),
            "the square still connects 0 to 1 after losing one edge"
        );
        let got = fingerprint(&mut net, &[(1, 1), (1, 2), (1, 3), (1, 4)]);
        let want: Vec<u32> = words.iter().map(|&w| w as u32).collect();
        assert_eq!(got.2, want, "{engine:?}");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    };
    for engine in ENGINES {
        run(engine);
    }
}

/// The closed-form e-cube tables drive a routed clustered hypercube end
/// to end: host leaves hang off core anchors, the leaf-to-leaf channel
/// crosses the cube, and all engines agree.
#[test]
fn routed_hypercube_with_host_leaves() {
    let (dim, side) = (1, 2);
    let core = 2 * side * side;
    let sender = core;
    let collector = core + 1;
    let mut wires = hypercube_wires(dim, side);
    wires.push(((0, PORT_NORTH), (sender, PORT_SOUTH)));
    wires.push(((core - 1, PORT_SOUTH), (collector, PORT_NORTH)));
    let mut reference = None;
    for engine in ENGINES {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        for _ in 0..core + 2 {
            b.add_node();
        }
        b.connect_all(&wires).enable_router_hypercube(dim, side);
        b.add_vc((sender, 0), (collector, 0));
        let mut net = b.build();
        net.node_mut(sender)
            .load_boot_program(&sender_words(&[0x000C_0BE5]))
            .unwrap();
        net.node_mut(collector)
            .load_boot_program(&receiver_words(1))
            .unwrap();
        for n in 0..core {
            net.node_mut(n).load_boot_program(&halting()).unwrap();
        }
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::AllHalted, "{engine:?}");
        let got = fingerprint(&mut net, &[(collector, 1)]);
        assert_eq!(got.2, vec![0x000C_0BE5], "{engine:?}");
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    }
}

/// Router stats are exposed for observability: a clean routed run counts
/// its injected, forwarded and delivered packets.
#[test]
fn router_stats_count_packets() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    for _ in 0..3 {
        b.add_node();
    }
    b.connect_all(&grid_wires(3, 1, 0)).enable_router();
    b.add_vc((0, 0), (2, 0));
    let mut net = b.build();
    assert!(net.routed());
    net.node_mut(0)
        .load_boot_program(&sender_words(&[5, 6, 7]))
        .unwrap();
    net.node_mut(1).load_boot_program(&halting()).unwrap();
    net.node_mut(2)
        .load_boot_program(&receiver_words(3))
        .unwrap();
    net.run_until_all_halted(1_000_000_000).unwrap();
    let stats = net.router_stats().expect("routed network has stats");
    assert_eq!(stats.packets_sent, 3);
    assert_eq!(stats.packets_forwarded, 3, "each packet transits node 1");
    assert_eq!(stats.packets_delivered, 3);
    assert_eq!(stats.packets_dropped, 0);
    // Two queue traversals per packet, minus any whose closing ack was
    // still in flight when the last CPU halted.
    assert!(stats.hops >= 5, "queue traversals: {}", stats.hops);
    assert!(stats.mean_hop_ns() > 0);
    // Reachability queries: everything reachable on a healthy chain.
    assert!(net.route_reachable(0, 2) && net.route_reachable(2, 0));
}

/// Wormhole mode on a transit chain: same answers and the same
/// per-wire byte totals as store-and-forward, but each transit node
/// starts retransmitting at header decode instead of after full
/// reassembly — the receiver halts earlier and the measured
/// header-forwarding hop latency collapses.
#[test]
fn wormhole_cuts_through_a_transit_chain() {
    // One packet on a quiescent chain: the hop measurements are pure
    // forwarding latency, with no injection waits or busy-port
    // store-and-forward fallbacks blurring the comparison.
    let words: Vec<i64> = vec![0x0BED_1111];
    let mut per_mode = Vec::new();
    for switching in [Switching::StoreAndForward, Switching::Wormhole] {
        let mut reference = None;
        let mut stats = None;
        let mut end_ns = 0;
        for engine in ENGINES {
            let mut b = NetworkBuilder::new(NetworkConfig {
                engine,
                router: RouterConfig { switching },
                ..NetworkConfig::default()
            });
            for _ in 0..5 {
                b.add_node();
            }
            b.connect_all(&grid_wires(5, 1, 0)).enable_router();
            b.add_vc((0, 0), (4, 0));
            let mut net = b.build();
            net.node_mut(0)
                .load_boot_program(&sender_words(&words))
                .unwrap();
            for n in 1..4 {
                net.node_mut(n).load_boot_program(&halting()).unwrap();
            }
            net.node_mut(4)
                .load_boot_program(&receiver_words(words.len() as i64))
                .unwrap();
            let out = net.run_until_all_halted(1_000_000_000).unwrap();
            assert_eq!(out, SimOutcome::AllHalted, "{switching:?} {engine:?}");
            let got = fingerprint(&mut net, &[(4, 1)]);
            assert_eq!(got.2, vec![0x0BED_1111], "{switching:?} {engine:?}");
            // Every byte still crosses every hop exactly once.
            let total: u64 = got.1.iter().map(|&(a, b)| a + b).sum();
            assert_eq!(total, 8 * 4, "{switching:?} {engine:?}");
            stats = net.router_stats();
            end_ns = net.time_ns();
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(&got, want, "{switching:?} {engine:?} diverged"),
            }
        }
        per_mode.push((reference.unwrap(), stats.unwrap(), end_ns));
    }
    let (ref _sf, sf_stats, sf_end) = per_mode[0];
    let (ref _worm, worm_stats, worm_end) = per_mode[1];
    assert!(
        worm_end < sf_end,
        "the message must complete earlier under wormhole ({worm_end} vs {sf_end} ns)"
    );
    assert!(
        sf_stats.mean_hop_ns() >= 2 * worm_stats.mean_hop_ns(),
        "cut-through must at least halve mean header-forwarding latency \
         (sf {} ns vs wormhole {} ns)",
        sf_stats.mean_hop_ns(),
        worm_stats.mean_hop_ns()
    );
    assert!(
        sf_stats.p50_hop_ns() >= 2 * worm_stats.p50_hop_ns(),
        "p50 must collapse too (sf {} ns vs wormhole {} ns)",
        sf_stats.p50_hop_ns(),
        worm_stats.p50_hop_ns()
    );
    assert_eq!(worm_stats.packets_forwarded, sf_stats.packets_forwarded);
    assert_eq!(worm_stats.packets_delivered, sf_stats.packets_delivered);
}

/// Wormhole against a receiver that never inputs: the flit-credit
/// window stalls the stream without unbounded buffering, every engine
/// deadlocks on the identical wire state.
#[test]
fn wormhole_backpressure_stays_bounded() {
    let mut reference = None;
    for engine in ENGINES {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            router: RouterConfig {
                switching: Switching::Wormhole,
            },
            ..NetworkConfig::default()
        });
        for _ in 0..3 {
            b.add_node();
        }
        b.connect_all(&grid_wires(3, 1, 0)).enable_router();
        b.add_vc((0, 0), (2, 0));
        let mut net = b.build();
        let words: Vec<i64> = (1..=24).collect();
        net.node_mut(0)
            .load_boot_program(&sender_words(&words))
            .unwrap();
        net.node_mut(1).load_boot_program(&halting()).unwrap();
        net.node_mut(2).load_boot_program(&halting()).unwrap();
        let out = net.run_until_all_halted(1_000_000_000).unwrap();
        assert_eq!(out, SimOutcome::Deadlock, "{engine:?}");
        let got = fingerprint(&mut net, &[]);
        let total: u64 = got.1.iter().map(|&(a, b)| a + b).sum();
        assert!(
            total < 16 * 8,
            "bounded buffering must stall the sender well short of the \
             full stream ({total} bytes crossed, {engine:?})"
        );
        assert!(
            net.node(0).halt_reason().is_none(),
            "the sender must still be blocked mid-message ({engine:?})"
        );
        match &reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(&got, want, "{engine:?} diverged"),
        }
    }
}
