//! What a wire event or a node's link service does to a CPU or a
//! router. Both engines reach every CPU and router through these
//! routines: link service at the instruction that made it, and a
//! wire's one drain at its pop — the data-start probe and its
//! early-acknowledge history, then the completions, through the wire's
//! sequence filter — with the router's acts applied after each.

use transputer_link::{AckPolicy, End, LinkEvent, PacketKind};

use super::wire::end_index;
use super::{Network, Port};
use crate::router::Act;

/// Per-port early-acknowledge history: enough state to answer "would
/// this port have acknowledged early at time `stamp`" for one probe
/// stamped earlier than the port's latest state change. One level of
/// history suffices: a node's slice ends at the instruction that changes
/// this state, and the node is rescheduled at or after that instruction,
/// so at most one applied change can postdate any in-flight probe.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct EaState {
    /// Value after the most recent recorded change.
    last: bool,
    /// Stamp of the most recent recorded change.
    stamp: u64,
    /// Value before that change.
    prev: bool,
}

impl Network {
    /// Initialise the early-acknowledge history from live link state.
    /// Runs at the first step so program loading and boot configuration
    /// between `build()` and the first run are captured.
    pub(super) fn prime_ea(&mut self) {
        if self.ea_primed {
            return;
        }
        self.ea_primed = true;
        for node in 0..self.nodes.len() {
            for port in 0..4 {
                if self.hot.ports[node][port] == usize::MAX {
                    continue;
                }
                let live = self.nodes[node].link_rx_early_ack(port);
                self.hot.ea[node][port] = EaState {
                    last: live,
                    stamp: self.now_ns,
                    prev: live,
                };
            }
        }
    }

    /// Record any change to a node's receiver-visible link state, stamped
    /// with the instruction (or wire event) that caused it.
    pub(super) fn refresh_ea(&mut self, node: usize, stamp: u64) {
        for port in 0..4 {
            if self.hot.ports[node][port] == usize::MAX {
                continue;
            }
            let live = self.nodes[node].link_rx_early_ack(port);
            let e = &mut self.hot.ea[node][port];
            if live != e.last {
                e.prev = e.last;
                e.stamp = stamp;
                e.last = live;
            }
        }
    }

    /// Would `node`'s receiver on `port` have acknowledged early at time
    /// `stamp`? Current state answers for stamps at or after the latest
    /// recorded change; the one-deep history answers for older probes.
    /// Under the Event oracle every probe resolves at its own stamp,
    /// before any later instruction, so current state always answers.
    fn ea_at(&self, node: usize, port: usize, stamp: u64) -> bool {
        let e = &self.hot.ea[node][port];
        if stamp >= e.stamp {
            self.nodes[node].link_rx_early_ack(port)
        } else {
            e.prev
        }
    }

    /// The early-acknowledge decision for a data packet that started
    /// arriving at `to` at time `stamp`.
    fn resolve_probe(&mut self, w: usize, to: End, stamp: u64) {
        let (node, port) = self.wire_end(w, to);
        let early = self.config.ack_policy == AckPolicy::Early && self.ea_at(node, port, stamp);
        self.wires[w].early_acked[end_index(to)] = early;
        if early {
            self.wires[w].send(to, PacketKind::Ack, stamp);
        }
    }

    fn wire_end(&self, w: usize, end: End) -> Port {
        self.wires[w].ends[end_index(end)]
    }

    /// Offer a node's transmit bytes and deferred acknowledges to its
    /// wires, or hand them to its router, stamped `stamp`: the start of
    /// the instruction that made them, which under a slice may lie ahead
    /// of the global frontier. A data byte's early-acknowledge probe
    /// waits for the wire's pop at that stamp ([`Network::put`]).
    pub(super) fn service_node_links_at(&mut self, node: usize, stamp: u64) {
        if let Some(router) = &mut self.router {
            // It absorbs CPU output and resumes deliveries.
            router.service_node(&mut self.nodes, node, stamp, &mut self.acts);
            self.apply_router_acts(stamp);
            return;
        }
        for port in 0..4 {
            if self.hot.ports[node][port] == usize::MAX {
                continue;
            }
            if self.nodes[node].link_take_deferred_ack(port) {
                self.put(node, port, PacketKind::Ack, stamp);
            }
            if let Some(byte) = self.nodes[node].link_tx_poll(port) {
                self.put(node, port, PacketKind::Data(byte), stamp);
            }
        }
    }

    /// The one wire drain, for every wire whoever owns its ends: resolve
    /// the due probes at their own stamps, then [`Network::land`] what
    /// the link reports at the frontier.
    pub(super) fn drain_wire(&mut self, w: usize) {
        let now = self.now_ns;
        if !self.wires[w].probes.is_empty() {
            // Stable, so same-stamp probes resolve in the order sent.
            self.wires[w].probes.sort_by_key(|&(t, _)| t);
            let due = self.wires[w].probes.partition_point(|&(t, _)| t <= now);
            for i in 0..due {
                let (t, to) = self.wires[w].probes[i];
                self.resolve_probe(w, to, t);
            }
            self.wires[w].probes.drain(..due);
        }
        let lines = self.wires[w].link.complete_due(now);
        self.land(w, lines.as_flattened());
        self.schedule_wire(w);
    }

    /// Hand wire events, in order, to the owner of the end each reached
    /// (its CPU, or on a routed network its router), through the wire's
    /// sequence filter; then put on the wire what a router asked for.
    /// The owner answers four questions: is an acknowledge awaited
    /// ([`Network::awaits_ack`]), is the last byte's acknowledge still
    /// held ([`Network::holds_ack`]), here is a fresh byte
    /// ([`Network::take_byte`]), here is a fresh acknowledge
    /// ([`Network::take_ack`]). Beyond those answers the owners differ
    /// in what the contract pins, and only there:
    ///
    /// * A CPU acts at once. A router's answers come back as [`Act`]s,
    ///   applied once, after the last event.
    /// * Only a CPU end counts a duplicate byte (`note_link_dup_data`, a
    ///   statistic of the processor's own link, zero on a routed end).
    /// * Only a CPU end acknowledges at reception start. So only a CPU
    ///   owner takes a data start — here the start a completion chains
    ///   on, resolved at once; in [`Network::put`] a send's, recorded as
    ///   a probe — and only a CPU end can have `early_acked` set. A
    ///   router needs the whole byte, and often the whole packet, before
    ///   it forwards, so it declines a start. Probes feed `wire_next` and
    ///   the tie deferral: recorded on a routed wire, they would move
    ///   the pop counts.
    pub(super) fn land(&mut self, w: usize, events: &[Option<LinkEvent>]) {
        let now = self.now_ns;
        for &ev in events.iter().flatten() {
            match ev {
                LinkEvent::DataStarted { to } => {
                    // A queued frame chained onto a completion: it
                    // starts exactly now.
                    if self.router.is_none() {
                        self.resolve_probe(w, to, now);
                    }
                }
                LinkEvent::DataDelivered { to, byte, seq } => {
                    if self.wires[w].accept_data(to, seq) {
                        self.wires[w].delivered[end_index(to)] += 1;
                        self.take_byte(w, to, byte);
                        continue;
                    }
                    // A duplicate: repeat the acknowledge, or signal busy
                    // while the owner still holds it.
                    let (node, port) = self.wire_end(w, to);
                    match (&self.router, self.holds_ack(node, port)) {
                        (Some(_), false) => self.acts.push((node, Act::Ack { port })),
                        (Some(_), true) => self.acts.push((node, Act::Busy { port })),
                        (None, held) => {
                            self.nodes[node].note_link_dup_data();
                            let reply = if held {
                                PacketKind::Busy
                            } else {
                                PacketKind::Ack
                            };
                            self.wires[w].send(to, reply, now);
                        }
                    }
                }
                LinkEvent::AckDelivered { to, seq } => {
                    let (node, port) = self.wire_end(w, to);
                    let awaiting = self.awaits_ack(node, port);
                    if !self.wires[w].accept_ack(to, seq, awaiting) {
                        continue;
                    }
                    // Cleared before the owner answers: a data byte the
                    // answer releases re-arms it through `put`.
                    self.wires[w].resend[end_index(to)] = None;
                    self.take_ack(node, port);
                }
                LinkEvent::BusyDelivered { to, seq } => {
                    self.wires[w].busy(to, seq, now);
                }
                LinkEvent::Garbled { to } => {
                    let (node, _) = self.wire_end(w, to);
                    self.nodes[node].note_link_rx_error();
                }
            }
        }
        self.apply_router_acts(now);
    }

    /// Is an acknowledge awaited: whether the owner of `(node, port)`
    /// has a data byte on the wire awaiting its acknowledge. The drain
    /// and both slice bounds ask it; nothing else keeps a copy.
    pub(super) fn awaits_ack(&self, node: usize, port: usize) -> bool {
        match &self.router {
            Some(router) => router.awaits_ack(node, port),
            None => self.nodes[node].link_tx_in_flight(port),
        }
    }

    /// Is the last byte's acknowledge still held: whether the owner of
    /// `(node, port)` holds back the acknowledge of the last byte it
    /// accepted there.
    fn holds_ack(&self, node: usize, port: usize) -> bool {
        match &self.router {
            Some(router) => router.withholds_ack(node, port),
            None => self.nodes[node].link_holds_ack(port),
        }
    }

    /// Here is a fresh byte, landed at end `to` of wire `w`. A CPU takes
    /// it into its link interface, acknowledges it unless it did so at
    /// reception start, records its receiver state, and is scheduled if
    /// the byte readied it.
    fn take_byte(&mut self, w: usize, to: End, byte: u8) {
        let now = self.now_ns;
        let (node, port) = self.wire_end(w, to);
        match &mut self.router {
            Some(router) => {
                router.phys_data(&mut self.nodes, node, port, byte, now, &mut self.acts)
            }
            None => {
                let ei = end_index(to);
                let was_idle = self.nodes[node].is_idle();
                let ack_now = self.nodes[node].link_rx_deliver(port, byte);
                if ack_now && !self.wires[w].early_acked[ei] {
                    self.wires[w].send(to, PacketKind::Ack, now);
                }
                self.wires[w].early_acked[ei] = false;
                self.refresh_ea(node, now);
                if was_idle && !self.nodes[node].is_idle() {
                    // Its clock is synced when its entry pops.
                    self.schedule_node(node, now);
                }
            }
        }
    }

    /// Here is a fresh acknowledge, landed at `(node, port)`. A CPU
    /// completes its output, is scheduled if that readied it, and
    /// offers the port's next byte.
    fn take_ack(&mut self, node: usize, port: usize) {
        let now = self.now_ns;
        match &mut self.router {
            Some(router) => router.phys_ack(&mut self.nodes, node, port, now, &mut self.acts),
            None => {
                let was_idle = self.nodes[node].is_idle();
                self.nodes[node].link_tx_ack(port);
                if was_idle && !self.nodes[node].is_idle() {
                    self.schedule_node(node, now);
                }
                // The output port may have another byte ready now.
                self.service_node_links_at(node, now);
            }
        }
    }

    /// Apply (and consume) the wire- and scheduler-visible effects the
    /// last router call left in `self.acts`. Every router call ends here
    /// — link service at interaction stamps, wire events at the
    /// frontier, a failure at a resend-deadline pop — so both engines
    /// apply the same effects at the same times. Router logic never
    /// re-enters here: acts are self-contained, and each frame reaches
    /// its wire through [`Network::put`].
    pub(super) fn apply_router_acts(&mut self, stamp: u64) {
        let count = self.acts.len();
        for i in 0..count {
            let (node, act) = self.acts[i];
            let (port, kind) = match act {
                Act::Wake => {
                    self.schedule_node(node, stamp);
                    continue;
                }
                Act::Data { port, byte } => (port, PacketKind::Data(byte)),
                Act::Ack { port } => (port, PacketKind::Ack),
                Act::Busy { port } => (port, PacketKind::Busy),
            };
            self.put(node, port, kind, stamp);
        }
        debug_assert_eq!(
            self.acts.len(),
            count,
            "an act pushed while acts were applied"
        );
        self.acts.clear();
    }
}
