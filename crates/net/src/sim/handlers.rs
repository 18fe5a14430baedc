//! What a wire event or a node's link service does to a CPU or a
//! router. Both engines reach every CPU and router through these
//! routines: link service at the instruction that made it, and a
//! wire's one drain at its pop — the data-start probe and its
//! early-acknowledge history, then the completions, through the wire's
//! sequence filter. A router puts the frames it decides on the wire as
//! it decides them.

use transputer_link::{AckPolicy, End, LinkEvent, PacketKind};

use super::wire::end_index;
use super::{Network, Port};

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
                if self.fabric.hot.ports[node][port] == usize::MAX {
                    continue;
                }
                let live = self.nodes[node].link_rx_early_ack(port);
                self.fabric.hot.ea[node][port] = EaState {
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
            if self.fabric.hot.ports[node][port] == usize::MAX {
                continue;
            }
            let live = self.nodes[node].link_rx_early_ack(port);
            let e = &mut self.fabric.hot.ea[node][port];
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
        let e = &self.fabric.hot.ea[node][port];
        if stamp >= e.stamp {
            self.nodes[node].link_rx_early_ack(port)
        } else {
            e.prev
        }
    }

    /// The early-acknowledge decision for a data packet that started
    /// arriving at `to` at time `stamp`.
    fn resolve_probe(&mut self, w: usize, to: End, stamp: u64) {
        let (node, port) = self.fabric.wires[w].ends[end_index(to)];
        let early = self.config.ack_policy == AckPolicy::Early && self.ea_at(node, port, stamp);
        self.fabric.wires[w].early_acked[end_index(to)] = early;
        if early {
            self.fabric.wires[w].send(to, PacketKind::Ack, stamp);
        }
    }

    /// Offer a node's transmit bytes and deferred acknowledges to its
    /// wires, or hand them to its router, stamped `stamp`: the start of
    /// the instruction that made them, which under a slice may lie ahead
    /// of the global frontier. A data byte's early-acknowledge probe
    /// waits for the wire's pop at that stamp ([`Fabric::put`]).
    ///
    /// [`Fabric::put`]: super::Fabric::put
    pub(super) fn service_node_links_at(&mut self, node: usize, stamp: u64) {
        if let Some(router) = &mut self.router {
            // It absorbs CPU output and resumes deliveries.
            router.service_node(&mut self.nodes, &mut self.fabric, node, stamp);
            return;
        }
        for port in 0..4 {
            if self.fabric.hot.ports[node][port] == usize::MAX {
                continue;
            }
            if self.nodes[node].link_take_deferred_ack(port) {
                self.fabric.put(node, port, PacketKind::Ack, stamp);
            }
            if let Some(byte) = self.nodes[node].link_tx_poll(port) {
                self.fabric.put(node, port, PacketKind::Data(byte), stamp);
            }
        }
    }

    /// The one wire drain, for every wire whoever owns its ends: resolve
    /// the due probes at their own stamps, then [`Network::land`] what
    /// the link reports at the frontier.
    pub(super) fn drain_wire(&mut self, w: usize) {
        let now = self.now_ns;
        if !self.fabric.wires[w].probes.is_empty() {
            let probes = &mut self.fabric.wires[w].probes;
            // Stable, so same-stamp probes resolve in the order sent.
            probes.sort_by_key(|&(t, _)| t);
            let due = probes.partition_point(|&(t, _)| t <= now);
            for i in 0..due {
                let (t, to) = self.fabric.wires[w].probes[i];
                self.resolve_probe(w, to, t);
            }
            self.fabric.wires[w].probes.drain(..due);
        }
        let landed = self.fabric.wires[w].link.complete_due(now);
        self.land(w, &landed);
        self.fabric.schedule_wire(w);
    }

    /// Hand wire events, in order, to the owner of the end each reached
    /// (its CPU, or on a routed network its router), through the wire's
    /// sequence filter. The owner answers four questions: is an
    /// acknowledge awaited ([`Network::awaits_ack`]), is the last byte's
    /// acknowledge still held ([`Network::holds_ack`]), here is a fresh
    /// byte, here is a fresh acknowledge (a CPU's [`Network::hear`], a
    /// router's `phys_data` and `phys_ack`). Beyond those answers the
    /// owners differ in what the contract pins, and only there:
    ///
    /// * A CPU hears each event as the filter passes it. A router hears
    ///   the drain's events, in order, once the filter has passed them
    ///   all, so each frame it puts, and the wire's schedule each put
    ///   makes, sees the resend deadlines the filter cleared or backed
    ///   off. Nothing else moves with where its puts fall: the router
    ///   reads no wire state, a frame reads only its own end's sequence
    ///   bits, and a drain's two events reach different ends (only a wire
    ///   from a node to itself joins them; a router routes nothing over one).
    /// * Only a CPU end counts a duplicate byte (`note_link_dup_data`, a
    ///   statistic of the processor's own link, zero on a routed end).
    /// * Only a CPU end acknowledges at reception start. So only a CPU
    ///   owner takes a data start — here the start a completion chains
    ///   on, resolved at once; in [`Fabric::put`] a send's, recorded as
    ///   a probe — and only a CPU end can have `early_acked` set. A
    ///   router needs the whole byte, and often the whole packet, before
    ///   it forwards, so it declines a start. Probes feed `wire_next` and
    ///   the tie deferral: recorded on a routed wire, they would move
    ///   the pop counts.
    ///
    /// [`Fabric::put`]: super::Fabric::put
    pub(super) fn land(&mut self, w: usize, events: &[LinkEvent]) {
        let now = self.now_ns;
        let ends = self.fabric.wires[w].ends;
        // What the router hears once the filter has passed every event:
        // at most one event a line.
        let mut heard = [(End::A, Heard::Ack); 2];
        let mut count = 0;
        for &ev in events {
            let (to, what) = match ev {
                LinkEvent::DataStarted { to } => {
                    // A queued frame chained onto a completion: it
                    // starts exactly now.
                    if self.router.is_none() {
                        self.resolve_probe(w, to, now);
                    }
                    continue;
                }
                LinkEvent::DataDelivered { to, byte, seq } => {
                    let wire = &mut self.fabric.wires[w];
                    if wire.accept_data(to, seq) {
                        wire.delivered[end_index(to)] += 1;
                        (to, Heard::Byte(byte))
                    } else {
                        // A duplicate: repeat the acknowledge, or signal
                        // busy while the owner still holds it.
                        let (node, port) = ends[end_index(to)];
                        let reply = if self.holds_ack(node, port) {
                            PacketKind::Busy
                        } else {
                            PacketKind::Ack
                        };
                        (to, Heard::Duplicate(reply))
                    }
                }
                LinkEvent::AckDelivered { to, seq } => {
                    let (node, port) = ends[end_index(to)];
                    let awaiting = self.awaits_ack(node, port);
                    let wire = &mut self.fabric.wires[w];
                    if !wire.accept_ack(to, seq, awaiting) {
                        continue;
                    }
                    // Cleared before the owner answers: a data byte the
                    // answer releases re-arms it through `put`.
                    wire.resend[end_index(to)] = None;
                    (to, Heard::Ack)
                }
                LinkEvent::BusyDelivered { to, seq } => {
                    self.fabric.wires[w].busy(to, seq, now);
                    continue;
                }
                LinkEvent::Garbled { to } => {
                    let (node, _) = ends[end_index(to)];
                    self.nodes[node].note_link_rx_error();
                    continue;
                }
            };
            match self.router {
                Some(_) => {
                    heard[count] = (to, what);
                    count += 1;
                }
                None => self.hear(w, to, ends[end_index(to)], what),
            }
        }
        if let Some(router) = &mut self.router {
            let (cpus, fabric) = (&mut self.nodes, &mut self.fabric);
            for &(to, what) in &heard[..count] {
                let (node, port) = ends[end_index(to)];
                match what {
                    Heard::Byte(byte) => router.phys_data(cpus, fabric, node, port, byte, now),
                    Heard::Ack => router.phys_ack(cpus, fabric, node, port, now),
                    Heard::Duplicate(reply) => fabric.put(node, port, reply, now),
                }
            }
        }
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

    /// Hand the CPU at end `to` of wire `w`, `(node, port)`, what the
    /// filter passed there. It takes a fresh byte into its link
    /// interface, acknowledges it unless it did so at reception start
    /// and records its receiver state; it completes its output on a
    /// fresh acknowledge and offers the port's next byte; and it is
    /// scheduled if either readied it.
    fn hear(&mut self, w: usize, to: End, (node, port): Port, what: Heard) {
        let now = self.now_ns;
        let was_idle = self.nodes[node].is_idle();
        match what {
            Heard::Byte(byte) => {
                let ei = end_index(to);
                let ack_now = self.nodes[node].link_rx_deliver(port, byte);
                let wire = &mut self.fabric.wires[w];
                if ack_now && !wire.early_acked[ei] {
                    wire.send(to, PacketKind::Ack, now);
                }
                wire.early_acked[ei] = false;
                self.refresh_ea(node, now);
            }
            Heard::Ack => self.nodes[node].link_tx_ack(port),
            Heard::Duplicate(reply) => {
                self.nodes[node].note_link_dup_data();
                self.fabric.wires[w].send(to, reply, now);
            }
        }
        if was_idle && !self.nodes[node].is_idle() {
            // Its clock is synced when its entry pops.
            self.fabric.schedule_node(node, now);
        }
        if let Heard::Ack = what {
            // The output port may have another byte ready now.
            self.service_node_links_at(node, now);
        }
    }
}

/// What the wire's filter passes to the owner of the end an event
/// reached: a fresh byte, a fresh acknowledge, or a duplicate byte to
/// answer with an acknowledge or, while that is held, a busy notice.
#[derive(Debug, Clone, Copy)]
enum Heard {
    Byte(u8),
    Ack,
    Duplicate(PacketKind),
}
