//! The engine invariant, in tier-1: on trimmed search machines the
//! lookahead-batched Sliced engine must land bit-identically on the
//! per-instruction Event oracle — answers, arrival times, per-node
//! cycles and instruction counts, per-wire bytes, full memory images.
//! Five fast rows of the full table in
//! `crates/bench/tests/determinism.rs` (which needs `--workspace`), one
//! under the after-stop acknowledge policy, one CPU-tier table: the
//! translation tier off against the default on five smoke machines, one
//! hand-assembled row that keeps both lanes of the event queue busy, and
//! four hand-assembled rows where a computing node runs far ahead of its
//! wires (the two horizons of DESIGN.md §5): a byte landing in its buffer
//! meanwhile, an ALT guard enabled before the compute, resends and busy
//! notices meanwhile, and a routed packet delivered meanwhile; one where
//! a byte wakes a node around the instruction that idled it; and one
//! where a receiver runs ahead to its `in` while a byte is on the wire,
//! which only the early-acknowledge history answers right.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer::Priority;
use transputer_apps::DbSearchConfig;
use transputer_bench::hostperf::{
    assert_run_matches, figure8_smoke, full_image, hypercube_smoke, routed_smoke, sweep_engines,
    Machine,
};
use transputer_link::{AckPolicy, FaultPlan};
use transputer_net::{grid_wires, Engine, Network, NetworkBuilder, NetworkConfig, WireEnds};

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

/// The after-stop policy the ablation measures (§2.3: acknowledge a byte
/// only once it has fully arrived): both engines decide every early
/// acknowledge in one place, so both must also decline it there.
#[test]
fn e09_smoke_after_stop_sliced_matches_event() {
    let mut early = Machine::Tree(figure8_smoke()).build(Engine::Sliced);
    let early = early.run(1_000_000_000_000).expect("runs");
    sweep_engines(
        "e09 smoke after stop",
        |e| {
            let mut config = figure8_smoke();
            config.net.ack_policy = AckPolicy::AfterStop;
            Machine::Tree(config).build(e)
        },
        |_, report| {
            assert!(!report.degraded);
            assert!(report.first_answer_ns > early.first_answer_ns);
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

/// The translation tier against the byte path: switching it off must
/// change nothing the simulation can see, on every smoke machine —
/// planned and routed, clean and faulted, and cut through.
#[test]
fn e09_smoke_translate_off_matches_on() {
    fn tier(mut config: DbSearchConfig, translate: bool) -> DbSearchConfig {
        config.net.cpu = config.net.cpu.with_translate(translate);
        config
    }
    /// A smoke machine with the translation tier on or off.
    type Smoke = fn(bool) -> Machine;
    let machines: [(&str, Smoke); 5] = [
        ("planned", |t| Machine::Tree(tier(figure8_smoke(), t))),
        ("planned faulted", |t| {
            Machine::Tree(tier(figure8_smoke(), t)).faulted(FaultPlan::uniform(1985, 2e-3))
        }),
        ("routed", |t| Machine::Routed(tier(routed_smoke(), t))),
        ("routed faulted", |t| {
            Machine::Routed(tier(routed_smoke(), t)).faulted(FaultPlan::uniform(1985, 2e-3))
        }),
        ("routed wormhole", |t| {
            Machine::Routed(tier(routed_smoke(), t)).wormhole()
        }),
    ];
    for (label, machine) in machines {
        let run = |translate: bool| {
            let mut sim = machine(translate).build(Engine::Sliced);
            let report = sim.run(1_000_000_000_000).expect("runs");
            assert!(report.all_correct() && !report.degraded, "{label}");
            (sim, report)
        };
        let (on, on_report) = run(true);
        let (off, off_report) = run(false);
        let net = off.network();
        let enters: u64 = (0..net.len())
            .map(|id| net.node(id).stats().trans_enters)
            .sum();
        assert_eq!(
            enters, 0,
            "{label}: the tier-off run must not enter a block"
        );
        assert_run_matches(
            &format!("{label} translate off"),
            &off,
            &off_report,
            &on,
            &on_report,
        );
    }
}

/// Both lanes of the event queue at once, on a classic network (where
/// data-start probes and timer wakes can tie): the sender streams eight
/// words — frames 200 and 1 100 ns ahead of the frontier, the queue's
/// near lane — at a receiver that first sleeps one low-priority timer
/// tick, a wake 64 us ahead, far beyond the near lane's 3 200 ns. The
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
            let got = net.node(rx).inspect_word(w + 4 * (k + 1)).unwrap();
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

// ---- A computing node runs past its wires ---------------------------

/// Straight-line compute that touches no link and has no timeslice
/// point: `coarse` multiplies of 42 cycles (2.1 us) each, then `fine`
/// single-cycle operations.
fn compute(coarse: usize, fine: usize) -> Vec<u8> {
    let mut c = Vec::new();
    for _ in 0..coarse {
        c.extend(encode(Direct::LoadConstant, 3));
        c.extend(encode(Direct::LoadConstant, 3));
        c.extend(encode_op(Op::Multiply));
        c.extend(encode(Direct::StoreLocal, 2));
    }
    for _ in 0..fine {
        c.extend(encode(Direct::LoadLocalPointer, 0));
    }
    c
}

/// `outbyte value` on link 0.
fn send_byte(value: i64) -> Vec<u8> {
    let mut c = encode(Direct::LoadConstant, value);
    c.extend(encode_op(Op::MinimumInteger));
    c.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
    c.extend(encode_op(Op::OutputByte));
    c
}

/// `in` of `count` bytes from link 0 into local `slot`.
fn recv(slot: i64, count: i64) -> Vec<u8> {
    let mut c = encode(Direct::LoadLocalPointer, slot);
    c.extend(encode_op(Op::MinimumInteger));
    c.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
    c.extend(encode(Direct::LoadConstant, count));
    c.extend(encode_op(Op::InputMessage));
    c
}

fn halt() -> Vec<u8> {
    encode_op(Op::HaltSimulation)
}

/// One node's code: its boot process, and optionally a second process
/// (own workspace) that runs once the first deschedules.
struct Node {
    boot: Vec<u8>,
    second: Option<Vec<u8>>,
}

fn node(parts: &[Vec<u8>]) -> Node {
    Node {
        boot: parts.concat(),
        second: None,
    }
}

/// A network of hand-assembled nodes over `wires`, ready to run —
/// routed, over the virtual channels `vcs`, if there are any.
fn hand_net(
    config: NetworkConfig,
    wires: &[WireEnds],
    vcs: &[WireEnds],
    nodes: &[Node],
) -> Network {
    let mut b = NetworkBuilder::new(config);
    for _ in nodes {
        b.add_node();
    }
    b.connect_all(wires);
    if !vcs.is_empty() {
        b.enable_router();
        for &(src, dst) in vcs {
            b.add_vc(src, dst);
        }
    }
    let mut net = b.build();
    for (id, n) in nodes.iter().enumerate() {
        let cpu = net.node_mut(id);
        cpu.load_boot_program(&n.boot).unwrap();
        if let Some(second) = &n.second {
            let at = cpu.memory().mem_start() + n.boot.len() as u32;
            cpu.load(at, second).unwrap();
            let w = cpu.default_boot_workspace().wrapping_sub(256);
            cpu.spawn(w, at, Priority::Low);
        }
    }
    net
}

/// Run `build(engine)` to completion under both engines — the Event
/// oracle one heap event at a time, `watch`ed after each — and hold
/// Sliced to it: per-node cycles and instructions, full memory images,
/// per-wire delivered bytes. Returns the Sliced network.
fn sliced_matches_event(
    label: &str,
    build: impl Fn(Engine) -> Network,
    mut watch: impl FnMut(&Network),
) -> Network {
    let mut event = build(Engine::Event);
    while !event.all_halted() {
        assert!(
            event.step_event().expect("no fault"),
            "{label}: Event stuck"
        );
        watch(&event);
    }
    let mut sliced = build(Engine::Sliced);
    sliced
        .run_until_all_halted(10_000_000)
        .expect("Sliced runs");
    for wire in 0..event.wire_count() {
        assert_eq!(
            sliced.wire_delivered(wire),
            event.wire_delivered(wire),
            "{label}: wire {wire}"
        );
    }
    for id in 0..event.len() {
        let (e, s) = (event.node(id), sliced.node(id));
        assert_eq!(s.cycles(), e.cycles(), "{label}: node {id} cycles");
        assert_eq!(
            s.stats().simulated(),
            e.stats().simulated(),
            "{label}: node {id} statistics"
        );
        assert!(
            full_image(s) == full_image(e),
            "{label}: node {id} memory image"
        );
    }
    sliced
}

fn config(engine: Engine) -> NetworkConfig {
    NetworkConfig {
        engine,
        ..NetworkConfig::default()
    }
}

/// Sender 0 — receiver 1 — neighbour 2. The neighbour never
/// communicates: it computes beside the receiver, which is what used to
/// cut both into two-hop windows.
const CHAIN: [WireEnds; 2] = [((0, 0), (1, 0)), ((1, 1), (2, 0))];

/// The first instant `cond` holds, recorded while watching an Event run.
fn first_instant(slot: &mut Option<u64>, net: &Network, cond: bool) {
    if cond && slot.is_none() {
        *slot = Some(net.time_ns());
    }
}

/// (a) A byte lands in the buffer of a receiver that computes for 63 us
/// and only then inputs — the receiver must run ahead to its `in` in a
/// handful of slices, not leapfrog its computing neighbour — and then a
/// sweep of the sender's delay in single cycles across the instant the
/// receiver's `in` starts, so one run has the data frame complete at
/// exactly that instant (a fenced node popped beside its own wire).
#[test]
fn byte_lands_while_the_receiver_computes_sliced_matches_event() {
    let receiver = || node(&[compute(30, 0), recv(1, 1), halt()]);
    let neighbour = || node(&[compute(40, 0), halt()]);
    let run = |label: &str, sender: Node| {
        let (mut data_at, mut in_at) = (None, None);
        let nodes = [sender, receiver(), neighbour()];
        let sliced = sliced_matches_event(
            label,
            |e| hand_net(config(e), &CHAIN, &[], &nodes),
            |net| {
                first_instant(&mut data_at, net, net.wire_delivered(0).1 == 1);
                let inputs = net.node(1).stats().op_count(Op::InputMessage);
                first_instant(&mut in_at, net, inputs == 1);
            },
        );
        let w = sliced.node(1).default_boot_workspace();
        assert_eq!(sliced.node(1).inspect_word(w + 4).unwrap() & 0xFF, 0x5A);
        (sliced, data_at.unwrap(), in_at.unwrap())
    };

    let (sliced, data_at, in_at) = run("early byte", node(&[send_byte(0x5A), halt()]));
    assert!(
        data_at + 50_000 < in_at,
        "byte at {data_at}, `in` at {in_at}"
    );
    // Each node runs to its link instruction or its halt, executes it,
    // and is popped once or twice around the one byte: 7 pops. Cut at
    // every wire, receiver and neighbour leapfrogged through 38.
    let pops = sliced.pop_counts().node;
    assert!(
        pops <= 10,
        "{pops} node pops: the receiver did not run ahead"
    );

    let mut tie = false;
    let (mut buffered, mut waited) = (false, false);
    for fine in 0..64 {
        let sender = node(&[compute(29, fine), send_byte(0x5A), halt()]);
        let (sliced, data_at, in_at) = run(&format!("sender delay {fine}"), sender);
        tie |= data_at == in_at;
        // Whether the `in` found the byte or waited for it.
        match sliced.node(1).stats().deschedules {
            0 => buffered = true,
            _ => waited = true,
        }
    }
    assert!(tie, "no run had the frame complete as the `in` started");
    assert!(buffered && waited, "the sweep must straddle the tie");
}

/// (a, ROADMAP 1a(iv)) A slice that ends `Idle` leaves no queue entry,
/// where Event keeps one at the end of the last instruction. Node 1's
/// boot process waits on a link input while its second process computes
/// 63 us and then `stopp`s (11 cycles), blocking the last runnable
/// process. The sweep moves the sender's byte one cycle at a time so it
/// lands before, at, inside and after that `stopp`; the woken process
/// answers, and the sender's clock at its halt is when the answer came.
/// The engines agree: a waiting input makes the node link-sensitive, so
/// its run horizon is its fence, and a slice only ends `Idle` when the
/// idling instruction finished strictly before that fence. One that
/// finishes at or past it ends `BudgetExpired` and is queued at its end,
/// where Event has its entry, so no wake can land inside it.
#[test]
fn wake_inside_the_last_instruction_sliced_matches_event() {
    let (mut before, mut at, mut inside, mut after) = (false, false, false, false);
    for fine in 0..64 {
        let sender = node(&[compute(29, fine), send_byte(0x5A), recv(1, 1), halt()]);
        let mut receiver = node(&[recv(1, 1), send_byte(0x21), halt()]);
        receiver.second = Some([compute(30, 0), encode_op(Op::StopProcess)].concat());
        let nodes = [sender, receiver, node(&[compute(40, 0), halt()])];
        let (mut data_at, mut stop_at) = (None, None);
        let sliced = sliced_matches_event(
            &format!("sender delay {fine}"),
            |e| hand_net(config(e), &CHAIN, &[], &nodes),
            |net| {
                first_instant(&mut data_at, net, net.wire_delivered(0).1 == 1);
                let stops = net.node(1).stats().op_count(Op::StopProcess);
                first_instant(&mut stop_at, net, stops == 1);
            },
        );
        let w = sliced.node(0).default_boot_workspace();
        assert_eq!(sliced.node(0).inspect_word(w + 4).unwrap() & 0xFF, 0x21);
        let (data_at, stop_at) = (data_at.unwrap(), stop_at.unwrap());
        let stop_end = stop_at + 11 * sliced.node(1).cycle_time_ns();
        before |= data_at < stop_at;
        at |= data_at == stop_at;
        inside |= stop_at < data_at && data_at < stop_end;
        after |= data_at >= stop_end;
    }
    assert!(
        before && at && inside && after,
        "the sweep must land the byte before ({before}), at ({at}), inside ({inside}) \
         and after ({after}) the `stopp`"
    );
}

/// (a, second tie) The receiver's own earlier output is acknowledged
/// late — its byte sat in the peer's buffer — and the sweep moves the
/// receiver's `in` in single cycles across the instant that
/// acknowledge lands.
#[test]
fn in_starts_as_its_own_acknowledge_lands_sliced_matches_event() {
    let mut tie = false;
    for fine in 0..64 {
        // Node 1: compute 63 us, output a byte to node 0, stop; its
        // second process then inputs from node 0 after `fine` cycles.
        let mut receiver = node(&[compute(30, 0), send_byte(0x21), encode_op(Op::StopProcess)]);
        receiver.second = Some([compute(0, fine), recv(1, 1), halt()].concat());
        // Node 0 takes that byte 2 us after it landed — releasing the
        // deferred acknowledge — and answers.
        let peer = node(&[compute(31, 20), recv(1, 1), send_byte(0x5A), halt()]);
        let nodes = [peer, receiver, node(&[compute(40, 0), halt()])];
        let (mut sent, mut ack_at, mut in_at) = (false, None, None);
        let sliced = sliced_matches_event(
            &format!("`in` delay {fine}"),
            |e| hand_net(config(e), &CHAIN, &[], &nodes),
            |net| {
                let in_flight = net.node(1).link_tx_in_flight(0);
                sent |= in_flight;
                first_instant(&mut ack_at, net, sent && !in_flight);
                let inputs = net.node(1).stats().op_count(Op::InputMessage);
                first_instant(&mut in_at, net, inputs == 1);
            },
        );
        let w = sliced.node(1).default_boot_workspace().wrapping_sub(256);
        assert_eq!(sliced.node(1).inspect_word(w + 4).unwrap() & 0xFF, 0x5A);
        tie |= ack_at.unwrap() == in_at.unwrap();
    }
    assert!(tie, "no run had the acknowledge land as the `in` started");
}

/// (b) `enbc` on a link, 42 us of compute, then `altwt`: from the
/// `enbc` on an arriving byte marks the alternative ready — state
/// `altwt` reads — so the guard must make the node sensitive, and the
/// compute after it must not run past the byte. The 63 us before the
/// `enbc` still run ahead.
#[test]
fn alt_guard_enabled_before_a_long_compute_sliced_matches_event() {
    let link_in = || {
        let mut c = encode_op(Op::MinimumInteger);
        c.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
        c
    };
    let alting = || {
        node(&[
            compute(30, 0),
            encode_op(Op::Alt),
            link_in(),
            encode(Direct::LoadConstant, 1),
            encode_op(Op::EnableChannel),
            compute(20, 0),
            encode_op(Op::AltWait),
            link_in(),
            encode(Direct::LoadConstant, 1),
            encode(Direct::LoadConstant, 0),
            encode_op(Op::DisableChannel),
            encode_op(Op::AltEnd),
            recv(1, 1),
            halt(),
        ])
    };
    // The byte lands before the `enbc`, during the guarded compute, or
    // after the `altwt` has descheduled the alternative.
    for (when, coarse) in [("before", 0), ("during", 38), ("after", 52)] {
        let nodes = [
            node(&[compute(coarse, 0), send_byte(0x5A), halt()]),
            alting(),
            node(&[compute(28, 0), halt()]),
        ];
        let sliced = sliced_matches_event(
            &format!("byte {when} the guarded compute"),
            |e| hand_net(config(e), &CHAIN, &[], &nodes),
            |_| {},
        );
        let cpu = sliced.node(1);
        let waited = cpu.stats().deschedules > 0;
        assert_eq!(waited, when == "after", "byte {when}: `altwt` waited");
        let w = cpu.default_boot_workspace();
        assert_eq!(cpu.inspect_word(w + 4).unwrap() & 0xFF, 0x5A);
        // 9 to 11 pops; cut at every wire, at least 35.
        let pops = sliced.pop_counts().node;
        assert!(pops <= 14, "byte {when}: {pops} node pops");
    }
}

/// (c) The pair of (a) on the robust protocol: the byte sits in the
/// receiver's buffer with its acknowledge withheld, so the sender's
/// resend deadline passes (25.6 us), the duplicate finds the interface
/// busy and a busy notice goes back — all while the receiver is tens of
/// microseconds ahead.
#[test]
fn resend_and_busy_notice_while_the_receiver_is_ahead_sliced_matches_event() {
    let nodes = [
        node(&[send_byte(0x5A), halt()]),
        node(&[compute(30, 0), recv(1, 1), halt()]),
        node(&[compute(40, 0), halt()]),
    ];
    let sliced = sliced_matches_event(
        "faulted pair",
        |engine| {
            let faulted = NetworkConfig {
                fault: Some(FaultPlan::uniform(1985, 0.0)),
                ..config(engine)
            };
            hand_net(faulted, &CHAIN, &[], &nodes)
        },
        |_| {},
    );
    assert!(sliced.node(0).stats().link_retries >= 1, "a resend fired");
    assert!(
        sliced.node(1).stats().link_dup_data >= 1,
        "the duplicate found the buffer full"
    );
    let w = sliced.node(1).default_boot_workspace();
    assert_eq!(sliced.node(1).inspect_word(w + 4).unwrap() & 0xFF, 0x5A);
    // 7 pops; cut at every wire — resend deadlines included — 40.
    let pops = sliced.pop_counts().node;
    assert!(
        pops <= 10,
        "{pops} node pops: the receiver did not run ahead"
    );
}

/// (d) A routed 2x2 grid: node 0's four-byte request crosses node 1's
/// router and is delivered whole at node 3, its first byte lodged in the
/// link buffer of a CPU that computes for 63 us before its `in`; the
/// transit node and the fourth compute beside it throughout.
#[test]
fn routed_packet_delivered_to_a_computing_cpu_sliced_matches_event() {
    let mut request = encode(Direct::LoadConstant, 0x1985_0419);
    request.extend(encode(Direct::StoreLocal, 1));
    request.extend(encode(Direct::LoadLocalPointer, 1));
    request.extend(encode_op(Op::MinimumInteger));
    request.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
    request.extend(encode(Direct::LoadConstant, 4));
    request.extend(encode_op(Op::OutputMessage));
    let nodes = [
        node(&[request, halt()]),
        node(&[compute(40, 0), halt()]),
        node(&[compute(40, 0), halt()]),
        node(&[compute(30, 0), recv(1, 4), halt()]),
    ];
    let (mut arrived_at, mut in_at) = (None, None);
    let sliced = sliced_matches_event(
        "routed 2x2",
        |e| hand_net(config(e), &grid_wires(2, 2, 0), &[((0, 0), (3, 0))], &nodes),
        |net| {
            first_instant(&mut arrived_at, net, net.node(3).link_holds_ack(0));
            let inputs = net.node(3).stats().op_count(Op::InputMessage);
            first_instant(&mut in_at, net, inputs == 1);
        },
    );
    let (arrived_at, in_at) = (arrived_at.unwrap(), in_at.unwrap());
    assert!(
        arrived_at + 30_000 < in_at,
        "packet at {arrived_at}, `in` at {in_at}"
    );
    let w = sliced.node(3).default_boot_workspace();
    assert_eq!(sliced.node(3).inspect_word(w + 4).unwrap(), 0x1985_0419);
    // 7 pops; with every transit byte bounding every CPU, 90.
    let pops = sliced.pop_counts().node;
    assert!(pops <= 10, "{pops} node pops: the CPUs did not run ahead");
}

/// (e) The early-acknowledge history. On one wire, with no third node to
/// bound it, the receiver's first slice runs ahead to its `in` while the
/// sender is still fenced off the `outbyte` before it; the byte starts
/// later, once the sender's entry pops. The sweep moves the `in` one
/// cycle at a time from before that data start to after the frame ends,
/// so some runs reach the `in` while the byte is on the wire: the
/// early-acknowledge decision for the byte must see the receiver as it
/// was when the byte started — not yet waiting, so the acknowledge goes
/// out when the byte lands — not as it is after the `in` it ran ahead
/// to. The acknowledge's time shows in the sender's cycles: its own `in`
/// for the receiver's answer idles it, and the pop at that `in`'s end
/// brings its clock up to global time. The answer comes after 4.2 us of
/// compute, so it never lands as that `in` ends: a tie the engines order
/// differently (ROADMAP item 2a records it).
#[test]
fn in_starts_while_a_byte_is_arriving_sliced_matches_event() {
    const WIRE: [WireEnds; 1] = [((0, 0), (1, 0))];
    let (mut before, mut at, mut during, mut after) = (false, false, false, false);
    for fine in 0..52 {
        let nodes = [
            node(&[compute(1, 4), send_byte(0x5A), recv(1, 1), halt()]),
            node(&[
                compute(1, fine),
                recv(1, 1),
                compute(2, 0),
                send_byte(0x21),
                halt(),
            ]),
        ];
        let (mut start_at, mut landed_at, mut in_at) = (None, None, None);
        let sliced = sliced_matches_event(
            &format!("`in` delay {fine}"),
            |e| hand_net(config(e), &WIRE, &[], &nodes),
            |net| {
                let sends = net.node(0).stats().op_count(Op::OutputByte);
                first_instant(&mut start_at, net, sends == 1);
                first_instant(&mut landed_at, net, net.wire_delivered(0).1 == 1);
                let inputs = net.node(1).stats().op_count(Op::InputMessage);
                first_instant(&mut in_at, net, inputs == 1);
            },
        );
        for (id, byte) in [(0, 0x21), (1, 0x5A)] {
            let w = sliced.node(id).default_boot_workspace();
            assert_eq!(sliced.node(id).inspect_word(w + 4).unwrap() & 0xFF, byte);
        }
        let (start_at, landed_at, in_at) = (start_at.unwrap(), landed_at.unwrap(), in_at.unwrap());
        before |= in_at < start_at;
        at |= in_at == start_at;
        during |= start_at < in_at && in_at < landed_at;
        after |= in_at >= landed_at;
    }
    assert!(
        before && at && during && after,
        "the sweep must start the `in` before ({before}), at ({at}) and during ({during}) \
         the byte's flight, and after it landed ({after})"
    );
}
