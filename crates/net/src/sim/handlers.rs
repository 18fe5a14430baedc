//! What a wire event or a node's link service does to a CPU or a
//! router. Both engines reach every CPU and router through these
//! routines: link service at the instruction that made it, a wire's
//! drain at its pop — the data-start probe and its early-acknowledge
//! history, then the completions, through the wire's sequence filter —
//! and a dead hop's reroute.

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
            self.wires[w].link.send_ack(to, stamp);
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
        if self.router.is_some() {
            self.router_service(node, stamp);
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

    /// The one wire drain, for classic and robust wires alike (a routed
    /// wire goes to the router's): resolve due probes at their own
    /// stamps, then hand the completions due at the frontier to the
    /// endpoint CPUs.
    pub(super) fn drain_wire(&mut self, w: usize) {
        if self.router.is_some() {
            self.process_wire_routed(w);
            return;
        }
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
        let mut events = std::mem::take(&mut self.events);
        self.wires[w].link.advance_into(now, &mut events);
        for ev in events.drain(..) {
            self.cpu_wire_event(w, ev);
        }
        self.events = events;
        self.schedule_wire(w);
    }

    /// Hand one wire event to the CPU at the end it reached, through the
    /// wire's sequence filter.
    pub(super) fn cpu_wire_event(&mut self, w: usize, ev: LinkEvent) {
        let now = self.now_ns;
        match ev {
            LinkEvent::DataStarted { to } => {
                // A queued packet chained onto a completion: it starts
                // exactly now.
                self.resolve_probe(w, to, now);
            }
            LinkEvent::DataDelivered { to, byte, seq } => {
                let (node, port) = self.wire_end(w, to);
                if !self.wires[w].accept_data(to, seq) {
                    // A duplicate: repeat the acknowledge, or signal busy
                    // while the interface still holds it.
                    self.nodes[node].note_link_dup_data();
                    let reply = if self.nodes[node].link_holds_ack(port) {
                        PacketKind::Busy
                    } else {
                        PacketKind::Ack
                    };
                    self.wires[w].send(to, reply, now);
                    return;
                }
                let ei = end_index(to);
                self.wires[w].delivered[ei] += 1;
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
            LinkEvent::AckDelivered { to, seq } => {
                let (node, port) = self.wire_end(w, to);
                let awaiting = self.nodes[node].link_tx_in_flight(port);
                if !self.wires[w].accept_ack(to, seq, awaiting) {
                    return;
                }
                self.wires[w].resend[end_index(to)] = None;
                let was_idle = self.nodes[node].is_idle();
                self.nodes[node].link_tx_ack(port);
                self.hot.tx_flight[node] &= !(1 << port);
                if was_idle && !self.nodes[node].is_idle() {
                    self.schedule_node(node, now);
                }
                // The output port may have another byte ready now.
                self.service_node_links_at(node, now);
            }
            LinkEvent::BusyDelivered { to, seq } => {
                self.wires[w].busy(to, seq, now, self.timeout_ns);
            }
            LinkEvent::Garbled { to } => {
                let (node, _) = self.wire_end(w, to);
                self.nodes[node].note_link_rx_error();
            }
        }
    }

    // ------------------------------------------------------------------
    // The virtual-channel router (routed mode). Both engines call
    // the same three entry points at the same times — CPU link service
    // at interaction stamps, wire events at the frontier, failure at
    // resend-deadline pops — so routed runs stay bit-identical.
    // ------------------------------------------------------------------

    /// Routed replacement for CPU link service: let the node's router
    /// absorb CPU output and resume deliveries, then apply the wire
    /// effects it requested, stamped at `stamp`.
    fn router_service(&mut self, node: usize, stamp: u64) {
        let router = self.router.as_mut().expect("routed mode");
        router.service_node(&mut self.nodes, node, stamp, &mut self.acts);
        self.apply_router_acts(stamp);
    }

    /// Routed replacement for the CPU drain: take the due completions,
    /// at most one per line, and hand them to the endpoint routers.
    /// Routers never early-acknowledge — the forwarding decision needs
    /// the whole byte, and often the whole packet — so reception starts
    /// carry no information and the link drops them.
    fn process_wire_routed(&mut self, w: usize) {
        let now = self.now_ns;
        for ev in self.wires[w].link.complete_due(now).into_iter().flatten() {
            self.router_wire_event(w, ev);
        }
        self.apply_router_acts(now);
        self.schedule_wire(w);
    }

    /// Hand one wire event to the router at the end it reached, through
    /// the wire's sequence filter. Effects queue in `self.acts`, in the
    /// order the router asks for them, for [`Network::apply_router_acts`].
    pub(super) fn router_wire_event(&mut self, w: usize, ev: LinkEvent) {
        let now = self.now_ns;
        let router = self.router.as_mut().expect("routed mode");
        let wire = &mut self.wires[w];
        match ev {
            LinkEvent::DataStarted { .. } => unreachable!("the link drops start events"),
            LinkEvent::DataDelivered { to, byte, seq } => {
                let (node, port) = wire.ends[end_index(to)];
                if wire.accept_data(to, seq) {
                    wire.delivered[end_index(to)] += 1;
                    router.phys_data(&mut self.nodes, node, port, byte, now, &mut self.acts);
                } else {
                    // A duplicate: repeat the acknowledge, or signal busy
                    // while the router withholds it.
                    let act = if router.withholds_ack(node, port) {
                        Act::Busy { port }
                    } else {
                        Act::Ack { port }
                    };
                    self.acts.push((node, act));
                }
            }
            LinkEvent::AckDelivered { to, seq } => {
                let (node, port) = wire.ends[end_index(to)];
                if wire.accept_ack(to, seq, router.awaits_ack(node, port)) {
                    router.phys_ack(&mut self.nodes, node, port, now, &mut self.acts);
                    wire.resend[end_index(to)] = None;
                    // Any data act this acknowledge released sets the
                    // bit again when applied.
                    if !self.pin_tx_flight {
                        self.hot.tx_flight[node] &= !(1 << port);
                    }
                }
            }
            LinkEvent::BusyDelivered { to, seq } => wire.busy(to, seq, now, self.timeout_ns),
            LinkEvent::Garbled { to } => {
                let (node, _) = wire.ends[end_index(to)];
                self.nodes[node].note_link_rx_error();
            }
        }
    }

    /// A wire direction exhausted its retry budget under a routed
    /// network: rebuild tables and reroute (see [`crate::router::RouterNet`]).
    pub(super) fn router_wire_failed(&mut self, w: usize) {
        let now = self.now_ns;
        let ends = self.wires[w].ends;
        let router = self.router.as_mut().expect("routed mode");
        router.wire_failed(&mut self.nodes, w, ends, now, &mut self.acts);
        self.apply_router_acts(now);
    }

    /// Apply (and consume) the wire- and scheduler-visible effects the
    /// last router call left in `self.acts`. Router logic never
    /// re-enters here: acts are self-contained, and each frame reaches
    /// its wire through [`Network::put`].
    pub(super) fn apply_router_acts(&mut self, stamp: u64) {
        let mut acts = std::mem::take(&mut self.acts);
        for (node, act) in acts.drain(..) {
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
        self.acts = acts;
    }
}
