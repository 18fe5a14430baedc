use super::*;
use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer::RunOutcome;
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

/// Hand one event to the owner of the end it reached, and put on
/// the wire what a router asked for.
fn land(net: &mut Network, ev: LinkEvent) {
    net.land(0, &[Some(ev)]);
}

fn data(to: End, byte: u8, seq: bool) -> LinkEvent {
    LinkEvent::DataDelivered { to, byte, seq }
}

/// The frames put on the line from `from` since the last call, with
/// their sequence bits.
fn frames_from(net: &mut Network, from: End) -> Vec<(PacketKind, bool)> {
    let events = net.wires[0].link.advance(u64::MAX);
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
            let resend = net.wires[0].resend[0].expect("a byte in flight is armed");
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
            assert_eq!(net.wires[0].tx_bit[0], bit);
            assert_eq!(net.wires[0].resend[0].map(|r| r.byte), Some(resend.byte));
            assert_eq!(frames_from(&mut net, End::A), []);
            land(
                &mut net,
                LinkEvent::AckDelivered {
                    to: End::A,
                    seq: bit,
                },
            );
            assert_eq!(net.wires[0].tx_bit[0], !bit);
            sent = frames_from(&mut net, End::A);
        }
        assert_eq!(sent, [], "routed {routed}");
        assert!(!net.awaits_ack(0, 0));
        assert!(net.wires[0].resend[0].is_none());
        assert!(!net.node(0).link_output_busy(0), "the sender woke");
        // Nothing awaits an acknowledge: either bit is stale.
        for seq in [false, true] {
            land(&mut net, LinkEvent::AckDelivered { to: End::A, seq });
            assert!(!net.wires[0].tx_bit[0]);
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

/// Where a wire may die under a live cut-through stream (robust wires,
/// wormhole tables proven at build), every transmit-mirror bit is set
/// at build and never cleared (DESIGN.md §11): the fresh acknowledges
/// that land at router ends during a transfer leave it saturated.
#[test]
fn a_pinned_transmit_mirror_stays_saturated() {
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
    assert!(net.pin_tx_flight);
    assert_eq!(net.router_cut_through(), Some(true));
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
    assert!(net.wires[0].link.is_quiescent());
    assert!(net.wire_delivered(0).1 > 4, "a header and the word crossed");
    assert_eq!(net.hot.tx_flight, [0b1111, 0b1111]);
}
