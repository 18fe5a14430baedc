use super::*;
use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer::RunOutcome;
use transputer_link::packet::{ROBUST_BUSY_BACKOFF_TIMEOUTS, ROBUST_MAX_RETRIES};
use transputer_link::vc::{VcHeader, HEADER_BYTES};
use transputer_link::LinkEvent;

use crate::Switching;

fn halting_program() -> Vec<u8> {
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadConstant, 1));
    code.extend(encode_op(Op::HaltSimulation));
    code
}

#[test]
fn builder_validates_ports() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let a = b.add_node();
    let c = b.add_node();
    b.connect((a, 0), (c, 0));
    let net = b.build();
    assert_eq!(net.len(), 2);
    assert_eq!(net.wire_count(), 1);
}

#[test]
#[should_panic(expected = "already wired")]
fn builder_rejects_double_wiring() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let a = b.add_node();
    let c = b.add_node();
    let d = b.add_node();
    b.connect((a, 0), (c, 0));
    b.connect((a, 0), (d, 0));
}

#[test]
fn independent_nodes_halt() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let n0 = b.add_node();
    let n1 = b.add_node();
    let mut net = b.build();
    net.node_mut(n0)
        .load_boot_program(&halting_program())
        .unwrap();
    net.node_mut(n1)
        .load_boot_program(&halting_program())
        .unwrap();
    let out = net.run_until_all_halted(1_000_000).unwrap();
    assert_eq!(out, SimOutcome::AllHalted);
}

/// `all_halted` resumes its scan where it last stopped, so
/// `node_mut` must rewind it: a processor put in a halted node's
/// place is live, whichever side of the cursor it sits on.
#[test]
fn all_halted_notices_a_node_replaced_through_node_mut() {
    for replaced in 0..2 {
        let mut b = NetworkBuilder::new(NetworkConfig::default());
        b.add_node();
        b.add_node();
        let mut net = b.build();
        for id in 0..2 {
            net.node_mut(id)
                .load_boot_program(&halting_program())
                .unwrap();
        }
        assert!(!net.all_halted());
        assert_eq!(
            net.run_until_all_halted(1_000_000),
            Ok(SimOutcome::AllHalted)
        );
        // Reloading a halted processor does not revive it.
        net.node_mut(replaced)
            .load_boot_program(&halting_program())
            .unwrap();
        assert!(net.all_halted());
        assert_eq!(
            net.run_until_all_halted(1_000_000),
            Ok(SimOutcome::AllHalted)
        );
        // A fresh one in its place is live, and nothing schedules it:
        // the run must end saying so, not claim a clean halt.
        *net.node_mut(replaced) = Cpu::new(CpuConfig::t424());
        net.node_mut(replaced)
            .load_boot_program(&halting_program())
            .unwrap();
        assert!(!net.all_halted(), "node {replaced} replaced");
        assert_eq!(
            net.run_until_all_halted(1_000_000),
            Ok(SimOutcome::Deadlock)
        );
        assert!(!net.all_halted());
    }
}

fn one_word_sender() -> Vec<u8> {
    // Sender: outword 0xBEEF on link 0 output channel, then halt.
    // The link-0 output channel word is at MostNeg (reserved word 0):
    // its address is mint + LINK_OUT_BASE words.
    let mut sender = Vec::new();
    sender.extend(encode(Direct::LoadConstant, 0xBEEF));
    sender.extend(encode_op(Op::MinimumInteger));
    sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
    sender.extend(encode_op(Op::OutputWord));
    sender.extend(encode_op(Op::HaltSimulation));
    sender
}

fn one_word_receiver() -> Vec<u8> {
    // Receiver: in 4 bytes from link 0 input channel into w[1].
    let mut receiver = Vec::new();
    receiver.extend(encode(Direct::LoadLocalPointer, 1));
    receiver.extend(encode_op(Op::MinimumInteger));
    receiver.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
    receiver.extend(encode(Direct::LoadConstant, 4));
    // Stack now: A=4 (count), B=chan, C=dest pointer.
    receiver.extend(encode_op(Op::InputMessage));
    receiver.extend(encode(Direct::LoadLocal, 1));
    receiver.extend(encode_op(Op::HaltSimulation));
    receiver
}

/// Sender transmits one word over link 0; receiver stores it and halts.
#[test]
fn one_word_over_a_link() {
    for engine in [Engine::Event, Engine::Sliced] {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        let tx = b.add_node();
        let rx = b.add_node();
        b.connect((tx, 0), (rx, 0));
        let mut net = b.build();
        net.node_mut(tx)
            .load_boot_program(&one_word_sender())
            .unwrap();
        net.node_mut(rx)
            .load_boot_program(&one_word_receiver())
            .unwrap();
        net.run_until_all_halted(10_000_000).unwrap();
        assert_eq!(net.node(rx).areg(), 0xBEEF, "{engine:?}");
        let (to_end0, to_end1) = net.wire_delivered(0);
        assert_eq!(
            to_end0 + to_end1,
            4,
            "four data bytes crossed the wire ({engine:?})"
        );
    }
}

/// Both engines agree on per-node cycle counts for a transfer.
#[test]
fn engines_agree_on_one_word_transfer() {
    let mut reference: Option<(u64, u64)> = None;
    for engine in [Engine::Event, Engine::Sliced] {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        let tx = b.add_node();
        let rx = b.add_node();
        b.connect((tx, 0), (rx, 0));
        let mut net = b.build();
        net.node_mut(tx)
            .load_boot_program(&one_word_sender())
            .unwrap();
        net.node_mut(rx)
            .load_boot_program(&one_word_receiver())
            .unwrap();
        net.run_until_all_halted(10_000_000).unwrap();
        let got = (net.node(tx).cycles(), net.node(rx).cycles());
        match reference {
            None => reference = Some(got),
            Some(want) => assert_eq!(got, want, "{engine:?} diverged"),
        }
    }
}

/// The paper (§4.2): "It takes about 6 microseconds to send a 4 byte
/// message from one transputer to another."
#[test]
fn four_byte_message_latency_about_6_us() {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let tx = b.add_node();
    let rx = b.add_node();
    b.connect((tx, 0), (rx, 0));
    let mut net = b.build();

    let mut sender = Vec::new();
    sender.extend(encode(Direct::LoadConstant, 0x0403_0201));
    sender.extend(encode(Direct::StoreLocal, 1));
    sender.extend(encode(Direct::LoadLocalPointer, 1));
    sender.extend(encode_op(Op::MinimumInteger));
    sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
    sender.extend(encode(Direct::LoadConstant, 4));
    sender.extend(encode_op(Op::OutputMessage));
    sender.extend(encode_op(Op::HaltSimulation));

    let mut receiver = Vec::new();
    receiver.extend(encode(Direct::LoadLocalPointer, 1));
    receiver.extend(encode_op(Op::MinimumInteger));
    receiver.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
    receiver.extend(encode(Direct::LoadConstant, 4));
    receiver.extend(encode_op(Op::InputMessage));
    receiver.extend(encode_op(Op::HaltSimulation));

    net.node_mut(tx).load_boot_program(&sender).unwrap();
    net.node_mut(rx).load_boot_program(&receiver).unwrap();
    net.run_until_all_halted(100_000_000).unwrap();
    let t_us = net.time_ns() as f64 / 1000.0;
    assert!(
        t_us > 4.0 && t_us < 8.0,
        "4-byte message took {t_us} µs; the paper says about 6"
    );
    let w = net.node(rx).default_boot_workspace() + 4;
    assert_eq!(net.node(rx).inspect_word(w).unwrap(), 0x0403_0201);
}

/// A wire's utilisation counts a frame's transmit time as it elapses,
/// so it stays in [0, 1] while a byte is on the wire. The sender's
/// first byte starts at 350 ns and is acknowledged at reception start;
/// at 1 500 ns its second byte and acknowledge are 50 ns along. The run
/// ends with four bytes' and four acknowledges' whole frame times.
#[test]
fn wire_utilization_counts_only_elapsed_transmit_time() {
    for engine in [Engine::Event, Engine::Sliced] {
        let mut b = NetworkBuilder::new(NetworkConfig {
            engine,
            ..NetworkConfig::default()
        });
        b.add_node();
        b.add_node();
        b.connect((0, 0), (1, 0));
        let mut net = b.build();
        net.node_mut(0)
            .load_boot_program(&one_word_sender())
            .unwrap();
        net.node_mut(1)
            .load_boot_program(&one_word_receiver())
            .unwrap();
        for until in [600, 1_000, 1_500] {
            net.run_for(until - net.time_ns()).unwrap();
            let (out, back) = net.wire_utilization(0);
            for u in [out, back] {
                assert!(u > 0.0 && u <= 1.0, "{u} at {until} ns ({engine:?})");
            }
        }
        let busy = |u: f64| (u * 1_500.0).round();
        let (out, back) = net.wire_utilization(0);
        assert_eq!((busy(out), busy(back)), (1_150.0, 250.0), "{engine:?}");
        net.run_until_all_halted(1_000_000).unwrap();
        let now = net.time_ns() as f64;
        let (data_ns, ack_ns) = (4.0 * 1_100.0, 4.0 * 200.0);
        assert_eq!(net.wire_utilization(0), (data_ns / now, ack_ns / now));
    }
}

// The robust protocol's sequence bits live at the wire end. These
// tests drive one end of a two-node robust machine by hand, once
// CPU-owned and once router-owned: wire 0 joins node 0's port 0
// (end A) to node 1's (end B), and events land at an end as the
// wire's drain would hand them over.

fn robust_pair(routed: bool) -> Network {
    let mut b = NetworkBuilder::new(NetworkConfig {
        fault: Some(FaultPlan::uniform(1985, 0.0)),
        ..NetworkConfig::default()
    });
    b.add_node();
    b.add_node();
    b.connect((0, 0), (1, 0));
    if routed {
        b.enable_router();
        b.add_vc((0, 0), (1, 0));
    }
    b.build()
}

/// Run a node's processor on its own until its process blocks on a
/// link.
fn run_to_block(net: &mut Network, id: usize) {
    let outcome = net.node_mut(id).run(100_000);
    assert!(matches!(outcome, Ok(RunOutcome::Deadlock)), "{outcome:?}");
}

/// Receive `count` bytes from link 0 into w[1], then halt.
fn receiver(count: i64) -> Vec<u8> {
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadLocalPointer, 1));
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
    code.extend(encode(Direct::LoadConstant, count));
    code.extend(encode_op(Op::InputMessage));
    code.extend(encode_op(Op::HaltSimulation));
    code
}

/// Hand one event to the owner of the end it reached, as the wire's
/// drain would.
fn land(net: &mut Network, ev: LinkEvent) {
    net.land(0, &[ev]);
}

fn data(to: End, byte: u8, seq: bool) -> LinkEvent {
    LinkEvent::DataDelivered { to, byte, seq }
}

/// The frames put on the line from `from` since the last call, with
/// their sequence bits.
fn frames_from(net: &mut Network, from: End) -> Vec<(PacketKind, bool)> {
    let events = net.fabric.wires[0].link.advance(u64::MAX);
    events
        .into_iter()
        .filter_map(|ev| match ev {
            LinkEvent::DataDelivered { to, byte, seq } if to != from => {
                Some((PacketKind::Data(byte), seq))
            }
            LinkEvent::AckDelivered { to, seq } if to != from => Some((PacketKind::Ack, seq)),
            LinkEvent::BusyDelivered { to, seq } if to != from => Some((PacketKind::Busy, seq)),
            _ => None,
        })
        .collect()
}

/// The sender half: an acknowledge with the wrong bit, or with no
/// byte awaiting it, changes nothing; the fresh one flips the end's
/// transmit bit, and the next byte goes out carrying it.
#[test]
fn robust_output_ignores_stale_acks() {
    // The CPU sends the word's four bytes; the router, one packet.
    for (routed, bytes) in [(false, 4), (true, HEADER_BYTES + 4)] {
        let mut net = robust_pair(routed);
        net.node_mut(0)
            .load_boot_program(&one_word_sender())
            .unwrap();
        run_to_block(&mut net, 0);
        net.service_node_links_at(0, 0);
        let mut sent = frames_from(&mut net, End::A);
        for i in 0..bytes {
            let bit = i % 2 == 1;
            let resend = net.fabric.wires[0].resend[0].expect("a byte in flight is armed");
            assert_eq!(sent, [(PacketKind::Data(resend.byte), bit)], "byte {i}");
            // The previous byte's acknowledge, repeated (for the
            // first byte, a bit no byte has carried yet).
            land(
                &mut net,
                LinkEvent::AckDelivered {
                    to: End::A,
                    seq: !bit,
                },
            );
            assert!(net.awaits_ack(0, 0), "byte {i}");
            assert_eq!(net.fabric.wires[0].tx_bit[0], bit);
            assert_eq!(
                net.fabric.wires[0].resend[0].map(|r| r.byte),
                Some(resend.byte)
            );
            assert_eq!(frames_from(&mut net, End::A), []);
            land(
                &mut net,
                LinkEvent::AckDelivered {
                    to: End::A,
                    seq: bit,
                },
            );
            assert_eq!(net.fabric.wires[0].tx_bit[0], !bit);
            sent = frames_from(&mut net, End::A);
        }
        assert_eq!(sent, [], "routed {routed}");
        assert!(!net.awaits_ack(0, 0));
        assert!(net.fabric.wires[0].resend[0].is_none());
        assert!(!net.node(0).link_output_busy(0), "the sender woke");
        // Nothing awaits an acknowledge: either bit is stale.
        for seq in [false, true] {
            land(&mut net, LinkEvent::AckDelivered { to: End::A, seq });
            assert!(!net.fabric.wires[0].tx_bit[0]);
        }
    }
}

/// The receiver half, with each acknowledge released at once: the
/// byte carrying the expected bit is accepted and acknowledged with
/// it; its resend is acknowledged again, never delivered again.
#[test]
fn robust_input_classifies_duplicates() {
    let payload = [0x11, 0x22, 0x33, 0x44];
    for routed in [false, true] {
        let mut net = robust_pair(routed);
        net.node_mut(1).load_boot_program(&receiver(4)).unwrap();
        run_to_block(&mut net, 1);
        let mut stream = Vec::new();
        if routed {
            let header = VcHeader {
                vc: 0,
                len: 4,
                eom: true,
            };
            stream.extend(header.encode());
        }
        stream.extend(payload);
        for (i, &byte) in stream.iter().enumerate() {
            let bit = i % 2 == 1;
            land(&mut net, data(End::B, byte, bit));
            assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
            // That acknowledge was lost: the byte comes again.
            land(&mut net, data(End::B, byte, bit));
            assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
        }
        assert_eq!(net.wire_delivered(0), (0, stream.len() as u64));
        let dups = if routed { 0 } else { payload.len() as u64 };
        assert_eq!(net.node(1).stats().link_dup_data, dups);
        let w = net.node(1).default_boot_workspace();
        let word = net.node(1).inspect_word(w + 4).unwrap();
        assert_eq!(word, u32::from_le_bytes(payload), "routed {routed}");
    }
}

/// The receiver half, with the acknowledge held: a CPU holds it while
/// the byte sits in its buffer and, once a process takes the byte,
/// until the deferred acknowledge is sent; a router holds it while a
/// packet is parked. A resend meanwhile is answered busy, afterwards
/// acknowledged again.
#[test]
fn robust_input_reports_busy_while_ack_is_held() {
    for routed in [false, true] {
        let mut net = robust_pair(routed);
        // Loaded, not run: no process waits yet.
        net.node_mut(1).load_boot_program(&receiver(2)).unwrap();
        // The CPU's one byte; or the router's two packets of one
        // message, the second parked while the first's byte sits in
        // the CPU's buffer.
        let mut stream = Vec::new();
        if routed {
            for (payload, eom) in [(&[0x55][..], false), (&[0x66, 0x77][..], true)] {
                let len = payload.len() as u8;
                stream.extend(VcHeader { vc: 0, len, eom }.encode());
                stream.extend(payload);
            }
        } else {
            stream.push(0x55);
        }
        let last = stream.len() - 1;
        for (i, &byte) in stream.iter().enumerate() {
            land(&mut net, data(End::B, byte, i % 2 == 1));
            let acked = frames_from(&mut net, End::B);
            assert_eq!(acked.is_empty(), i == last, "byte {i}: {acked:?}");
        }
        let bit = last % 2 == 1;
        let resend = data(End::B, stream[last], bit);
        land(&mut net, resend);
        assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Busy, bit)]);
        // A process takes the buffered byte; the acknowledge it owes
        // is not sent yet.
        run_to_block(&mut net, 1);
        assert!(net.node(1).link_holds_ack(0));
        land(&mut net, resend);
        assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Busy, bit)]);
        // Released, as at the end of the slice that took the byte.
        net.service_node_links_at(1, 0);
        assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
        land(&mut net, resend);
        assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, bit)]);
        let dups = if routed { 0 } else { 3 };
        assert_eq!(net.node(1).stats().link_dup_data, dups);
        let w = net.node(1).default_boot_workspace();
        let word = net.node(1).inspect_word(w + 4).unwrap();
        let want = if routed { 0x6655 } else { 0x55 };
        assert_eq!(word & 0xFFFF, want, "routed {routed}");
    }
}

/// A parked packet that the CPU takes whole the moment it is
/// unparked is delivered once: completing its delivery unparks
/// again, and that nested pass must not find it still parked.
#[test]
fn a_parked_packet_is_delivered_once() {
    let mut net = robust_pair(true);
    net.node_mut(1).load_boot_program(&receiver(3)).unwrap();
    let mut stream = Vec::new();
    for (payload, eom) in [(0x55, false), (0x66, true)] {
        stream.extend(VcHeader { vc: 0, len: 1, eom }.encode());
        stream.push(payload);
    }
    for (i, &byte) in stream.iter().enumerate() {
        land(&mut net, data(End::B, byte, i % 2 == 1));
    }
    // The process takes the first packet's byte from the buffer and
    // waits for two more; releasing that byte's acknowledge unparks
    // the second packet, which the waiting process takes whole.
    run_to_block(&mut net, 1);
    net.service_node_links_at(1, 0);
    assert_eq!(net.router_stats().unwrap().packets_delivered, 2);
    let w = net.node(1).default_boot_workspace();
    // Two bytes in; the third is still awaited.
    assert_eq!(net.node(1).inspect_word(w + 4).unwrap(), 0x6655);
}

/// A garbled frame counts as a receive error at the processor of the
/// end it reached, whoever owns that end, and is answered by nothing.
#[test]
fn a_garbled_frame_counts_at_either_owner() {
    for routed in [false, true] {
        let mut net = robust_pair(routed);
        land(&mut net, LinkEvent::Garbled { to: End::B });
        assert_eq!(net.node(1).stats().link_rx_errors, 1, "routed {routed}");
        assert_eq!(net.node(0).stats().link_rx_errors, 0, "routed {routed}");
        assert_eq!(frames_from(&mut net, End::B), [], "routed {routed}");
    }
}

/// A wire end with the first byte of a word on the line and its resend
/// armed: `timeout_ns` from now, no timeout burned yet.
fn byte_in_flight(routed: bool) -> Network {
    let mut net = robust_pair(routed);
    net.node_mut(0)
        .load_boot_program(&one_word_sender())
        .unwrap();
    run_to_block(&mut net, 0);
    net.service_node_links_at(0, 0);
    let r = net.fabric.wires[0].resend[0].expect("a byte in flight is armed");
    let t = net.fabric.wires[0].timeout_ns();
    assert_eq!((r.deadline, r.attempts, r.interval_ns), (t, 0, t));
    net
}

/// A router hears a drain's events only once the wire's filter has
/// passed them all. Here one drain lands a byte at B, which B's router
/// acknowledges, and the acknowledge A's byte awaits, 100 ns before A's
/// resend deadline. The wire's next pop is that acknowledge's landing:
/// heard at once, B's frame would have scheduled the wire at the
/// deadline the same drain clears.
#[test]
fn a_router_hears_a_drain_once_the_filter_has_passed_it() {
    let mut net = byte_in_flight(true);
    assert_eq!(frames_from(&mut net, End::A).len(), 1);
    let deadline = net.fabric.wires[0].resend[0].unwrap().deadline;
    net.now_ns = deadline - 100;
    net.fabric.wire_next[0] = u64::MAX;
    let header = VcHeader {
        vc: 0,
        len: 1,
        eom: true,
    };
    let ack = LinkEvent::AckDelivered {
        to: End::A,
        seq: false,
    };
    net.land(0, &[data(End::B, header.encode()[0], false), ack]);
    assert_eq!(frames_from(&mut net, End::B), [(PacketKind::Ack, false)]);
    assert_eq!(net.fabric.wire_next[0], net.now_ns + 500);
}

fn busy(seq: bool) -> LinkEvent {
    LinkEvent::BusyDelivered { to: End::A, seq }
}

/// A busy notice with the wrong bit repeats one for a byte already
/// acknowledged: the resend in flight keeps its deadline and spacing.
#[test]
fn robust_busy_ignores_a_stale_notice() {
    for routed in [false, true] {
        let mut net = byte_in_flight(routed);
        let before = net.fabric.wires[0].resend[0].map(|r| (r.deadline, r.interval_ns));
        net.now_ns = 1_000;
        let stale = !net.fabric.wires[0].tx_bit[0];
        land(&mut net, busy(stale));
        let after = net.fabric.wires[0].resend[0].map(|r| (r.deadline, r.interval_ns));
        assert_eq!(after, before, "routed {routed}");
    }
}

/// A fresh busy notice says the receiver holds the byte: the timeouts
/// burned so far stop counting toward the retry budget.
#[test]
fn robust_busy_resets_the_retry_budget() {
    for routed in [false, true] {
        let mut net = byte_in_flight(routed);
        for attempts in 1..=2 {
            net.now_ns = net.fabric.wires[0].resend[0].unwrap().deadline;
            net.fire_due_resends(0);
            assert_eq!(net.fabric.wires[0].resend[0].unwrap().attempts, attempts);
        }
        let fresh = net.fabric.wires[0].tx_bit[0];
        land(&mut net, busy(fresh));
        let r = net.fabric.wires[0].resend[0].unwrap();
        assert_eq!(r.attempts, 0, "routed {routed}");
        assert_eq!(r.deadline, net.now_ns + r.interval_ns);
    }
}

/// Each fresh busy notice doubles the polling interval, up to
/// `ROBUST_BUSY_BACKOFF_TIMEOUTS` timeouts.
#[test]
fn robust_busy_backoff_doubles_up_to_its_cap() {
    for routed in [false, true] {
        let mut net = byte_in_flight(routed);
        let t = net.fabric.wires[0].timeout_ns();
        for k in 1..=6u32 {
            net.now_ns = 1_000 * u64::from(k);
            let fresh = net.fabric.wires[0].tx_bit[0];
            land(&mut net, busy(fresh));
            let r = net.fabric.wires[0].resend[0].unwrap();
            let want = (t << k).min(t * ROBUST_BUSY_BACKOFF_TIMEOUTS);
            assert_eq!(r.interval_ns, want, "notice {k}, routed {routed}");
            assert_eq!(r.deadline, net.now_ns + want);
        }
    }
}

/// A byte no acknowledge answers is resent at each deadline, the same
/// byte with the same bit, `ROBUST_MAX_RETRIES` times, each retry
/// counted and re-armed one interval on; at the next deadline the
/// direction fails. A router then resets its transmitter, so nothing
/// awaits an acknowledge there; a CPU keeps its output waiting.
#[test]
fn robust_resends_until_the_budget_then_fails_the_direction() {
    for routed in [false, true] {
        let mut net = byte_in_flight(routed);
        let first = frames_from(&mut net, End::A);
        assert_eq!(first.len(), 1, "routed {routed}");
        for k in 1..=ROBUST_MAX_RETRIES {
            net.now_ns = net.fabric.wires[0].resend[0].unwrap().deadline;
            net.fire_due_resends(0);
            assert_eq!(frames_from(&mut net, End::A), first, "retry {k}");
            let r = net.fabric.wires[0].resend[0].expect("still armed");
            assert_eq!(r.attempts, k, "routed {routed}");
            assert_eq!(r.deadline, net.now_ns + r.interval_ns);
            assert_eq!(net.node(0).stats().link_retries, u64::from(k));
        }
        net.now_ns = net.fabric.wires[0].resend[0].unwrap().deadline;
        net.fire_due_resends(0);
        assert!(net.fabric.wires[0].resend[0].is_none(), "routed {routed}");
        assert_eq!(net.wire_failed(0), (true, false));
        assert_eq!(net.node(0).stats().link_failures, 1);
        assert_eq!(net.awaits_ack(0, 0), !routed);
    }
}

/// Cut-through runs only on lossless wires: on a robust network a
/// wormhole router forwards store-and-forward, and once the last
/// acknowledge lands no port awaits one.
#[test]
fn a_wormhole_router_on_robust_wires_never_cuts_through() {
    let mut b = NetworkBuilder::new(NetworkConfig {
        fault: Some(FaultPlan::uniform(1985, 0.0)),
        router: RouterConfig {
            switching: Switching::Wormhole,
        },
        ..NetworkConfig::default()
    });
    b.add_node();
    b.add_node();
    b.connect((0, 0), (1, 0));
    b.enable_router();
    b.add_vc((0, 0), (1, 0));
    let mut net = b.build();
    assert_eq!(net.router_cut_through(), Some(false));
    net.node_mut(0)
        .load_boot_program(&one_word_sender())
        .unwrap();
    net.node_mut(1)
        .load_boot_program(&one_word_receiver())
        .unwrap();
    net.run_until_all_halted(10_000_000).unwrap();
    assert_eq!(net.node(1).areg(), 0xBEEF);
    // The last byte's acknowledge is still on the wire: let it land.
    net.run_for(1_000_000).unwrap();
    assert!(net.fabric.wires[0].link.is_quiescent());
    assert!(net.wire_delivered(0).1 > 4, "a header and the word crossed");
    for node in 0..2 {
        for port in 0..4 {
            assert!(!net.awaits_ack(node, port), "node {node} port {port}");
        }
    }
}
