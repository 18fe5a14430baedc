//! A wire: its two lines, its end-of-wire sequence filter, the one
//! routine that puts a frame on it, and its resends, with a dead hop's
//! reroute on a routed network.

use transputer_link::packet::{
    ROBUST_BUSY_BACKOFF_TIMEOUTS, ROBUST_MAX_RETRIES, ROBUST_TIMEOUT_BITS,
};
use transputer_link::{DuplexLink, End, LinkEvent, LinkProtocol, PacketKind};

use super::{Network, Port};
use crate::queue::Actor;

/// Retransmission state for the data byte a wire end has in flight
/// (robust protocol). Cleared by the fresh acknowledge; fired by wire
/// pops when the deadline passes. The byte goes out again with the
/// end's transmit bit, which only that acknowledge flips.
#[derive(Debug, Clone, Copy)]
pub(super) struct Resend {
    pub(super) byte: u8,
    /// When to retransmit if no acknowledge (or busy) arrives first.
    deadline: u64,
    /// Timeouts burned since the last acknowledge or busy.
    attempts: u32,
    /// Current deadline spacing; doubled by each busy notice so a slow
    /// receiver is polled, not flooded.
    interval_ns: u64,
}

#[derive(Debug)]
pub(super) struct Wire {
    pub(super) link: DuplexLink,
    pub(super) ends: [Port; 2],
    /// Whether the data byte currently in flight toward each end was
    /// already acknowledged early (indexed by receiving end).
    pub(super) early_acked: [bool; 2],
    /// Data bytes delivered in each direction (toward end 0 / end 1).
    /// Under the robust protocol, only *accepted* (non-duplicate) bytes
    /// count, so the counts match the classic protocol's exactly.
    pub(super) delivered: [u64; 2],
    /// Data-start probes not yet resolved, with their stamped times. A
    /// send is stamped with the instruction that made it, which under a
    /// slice may lie ahead of the global frontier, so in both engines
    /// the early-acknowledge decision waits for the wire's pop at that
    /// stamp.
    pub(super) probes: Vec<(u64, End)>,
    /// Robust protocol: retransmission state per *sending* end.
    pub(super) resend: [Option<Resend>; 2],
    /// Alternating-bit state per end (robust protocol): the bit the
    /// end's data byte in flight, or its next one, carries. Flips on the
    /// fresh acknowledge.
    pub(super) tx_bit: [bool; 2],
    /// The bit the next fresh data byte toward each end must carry.
    /// Flips on each byte accepted, so the end's acknowledges and busy
    /// notices carry its complement.
    rx_bit: [bool; 2],
    /// Directions declared failed after the retry budget ran out
    /// (indexed by sending end).
    pub(super) failed: [bool; 2],
}

/// The robust protocol's sequence bits, written once for both owners:
/// every frame an end sends is stamped here, and every data byte and
/// acknowledge that reaches an end is filtered here before the end's
/// CPU or router sees it. A classic line carries no bit, so there every
/// byte is fresh, and so is every acknowledge with a byte awaiting it.
impl Wire {
    pub(super) fn new(link: DuplexLink, ends: [Port; 2]) -> Wire {
        Wire {
            link,
            ends,
            early_acked: [false; 2],
            delivered: [0; 2],
            probes: Vec::new(),
            resend: [None; 2],
            tx_bit: [false; 2],
            rx_bit: [false; 2],
            failed: [false; 2],
        }
    }

    fn classic(&self) -> bool {
        self.link.protocol() == LinkProtocol::Classic
    }

    /// How long a robust end waits for an acknowledge before it resends.
    fn timeout_ns(&self) -> u64 {
        u64::from(ROBUST_TIMEOUT_BITS) * self.link.speed().bit_time_ns
    }

    /// Put a frame from `end` on the line with the end's sequence bit:
    /// a data byte carries the transmit bit; an acknowledge or busy
    /// notice, the bit of the last byte the end accepted. Returns the
    /// reception start of a data frame that went straight on the wire
    /// ([`DuplexLink::send`]).
    pub(super) fn send(&mut self, end: End, kind: PacketKind, now: u64) -> Option<LinkEvent> {
        let ei = end_index(end);
        let bit = match kind {
            PacketKind::Data(_) => self.tx_bit[ei],
            PacketKind::Ack | PacketKind::Busy => !self.rx_bit[ei],
        };
        self.link.send(end, kind, bit, now)
    }

    /// Whether a data byte carrying `bit` that reached `to` is fresh; a
    /// fresh byte flips the end's receive bit. Any other byte repeats
    /// the last one accepted, whose acknowledge was lost or is still
    /// held.
    pub(super) fn accept_data(&mut self, to: End, bit: bool) -> bool {
        let ei = end_index(to);
        let fresh = self.classic() || bit == self.rx_bit[ei];
        if fresh {
            self.rx_bit[ei] = !self.rx_bit[ei];
        }
        fresh
    }

    /// Whether an acknowledge carrying `bit` that reached `to` is fresh:
    /// the end's owner has a byte `awaiting` it, and the bit is the
    /// end's transmit bit, which then flips. Any other acknowledge
    /// repeats one already acted on and changes nothing.
    pub(super) fn accept_ack(&mut self, to: End, bit: bool, awaiting: bool) -> bool {
        let ei = end_index(to);
        let fresh = awaiting && (self.classic() || bit == self.tx_bit[ei]);
        if fresh {
            self.tx_bit[ei] = !self.tx_bit[ei];
        }
        fresh
    }

    /// A busy notice carrying `bit` reached `to` at `now`. If it names
    /// the byte in flight, the receiver holds that byte but cannot
    /// release its acknowledge yet (a slow consumer, or a router exerting
    /// backpressure): poll with backoff instead of burning the retry
    /// budget.
    pub(super) fn busy(&mut self, to: End, bit: bool, now: u64) {
        let ei = end_index(to);
        if bit != self.tx_bit[ei] {
            return;
        }
        let most = self.timeout_ns() * ROBUST_BUSY_BACKOFF_TIMEOUTS;
        if let Some(r) = &mut self.resend[ei] {
            r.attempts = 0;
            r.interval_ns = r.interval_ns.saturating_mul(2).min(most);
            r.deadline = now + r.interval_ns;
        }
    }

    /// Whether a probe or a resend deadline falls exactly at `t`: what
    /// ties a wire pop at `t` with node entries at the same instant.
    pub(super) fn due_exactly_at(&self, t: u64) -> bool {
        let mut tie = false;
        for &(stamp, _) in &self.probes {
            tie |= stamp == t;
        }
        for r in &self.resend {
            tie |= r.is_some_and(|r| r.deadline == t);
        }
        tie
    }
}

impl Network {
    /// Earliest pending activity on a wire (`u64::MAX` = none): an
    /// in-flight packet completion, an unresolved data-start probe, or a
    /// resend deadline. Only a list the network can fill is walked: a
    /// probe needs a CPU end, so none exists beside a router, and a
    /// resend a robust wire ([`Network::put`] is the one writer of each).
    fn wire_next_event_ns(&self, wire: usize) -> u64 {
        let w = &self.wires[wire];
        let mut t = w.link.next_deadline().unwrap_or(u64::MAX);
        debug_assert!(
            self.router.is_none() || w.probes.is_empty(),
            "a probe on a routed wire"
        );
        if self.router.is_none() {
            for &(stamp, _) in &w.probes {
                t = t.min(stamp);
            }
        }
        if self.robust {
            for r in &w.resend {
                t = t.min(r.map_or(u64::MAX, |r| r.deadline));
            }
        }
        t
    }

    pub(super) fn schedule_wire(&mut self, wire: usize) {
        let t = self.wire_next_event_ns(wire);
        if t == u64::MAX {
            self.wire_next[wire] = u64::MAX;
            return;
        }
        // At most one live heap entry per wire (`wire_next` holds its
        // time; `u64::MAX` = none). An entry firing no later than `t`
        // recomputes the schedule when it pops, so pushing a duplicate
        // here would only breed no-op pops — each one rescheduling in
        // turn, O(n^2) heap churn on a busy routed wire.
        if self.wire_next[wire] <= t {
            return;
        }
        self.wire_next[wire] = t;
        self.queue.push(t, Actor::Wire(wire));
    }

    /// Put one frame from `(node, port)` on its wire at `stamp`: the one
    /// way CPU link service and router acts reach a wire, stamped with
    /// the end's sequence bit ([`Wire::send`]). A data byte arms its
    /// retransmission timer on a robust wire (the one place a
    /// [`Resend`] is registered) and sets the port's transmit bit (see
    /// `NodeHot::tx_flight`). A data byte that starts on an idle classic
    /// line leaves its early-acknowledge probe, stamped `stamp`, when a
    /// CPU owns the end; a router declines it (see [`Network::land`]).
    /// Force-inlined: both callers sit on the routed and board hot
    /// paths.
    #[inline(always)]
    pub(super) fn put(&mut self, node: usize, port: usize, kind: PacketKind, stamp: u64) {
        let w = self.hot.ports[node][port];
        debug_assert!(w != usize::MAX, "a frame put on an unwired port");
        let wire = &mut self.wires[w];
        let end = if wire.ends[0] == (node, port) {
            End::A
        } else {
            End::B
        };
        let started = wire.send(end, kind, stamp);
        if let PacketKind::Data(byte) = kind {
            if self.robust {
                debug_assert!(!wire.classic(), "a resend armed on a classic wire");
                let timeout_ns = wire.timeout_ns();
                wire.resend[end_index(end)] = Some(Resend {
                    byte,
                    deadline: stamp + timeout_ns,
                    attempts: 0,
                    interval_ns: timeout_ns,
                });
            }
            self.hot.tx_flight[node] |= 1 << port;
        }
        if let (Some(LinkEvent::DataStarted { to }), None) = (started, &self.router) {
            wire.probes.push((stamp, to));
        }
        self.schedule_wire(w);
    }

    /// Fire any due retransmissions on a wire (robust protocol). Called
    /// at wire pops only, *after* the due completions — an acknowledge
    /// landing at the deadline instant wins the race — so every engine
    /// resolves the tie the same way.
    pub(super) fn fire_due_resends(&mut self, w: usize) {
        if !self.robust {
            return;
        }
        let now = self.now_ns;
        let mut fired = false;
        for ei in 0..2 {
            let due = matches!(self.wires[w].resend[ei], Some(r) if r.deadline <= now);
            if !due {
                continue;
            }
            let mut r = self.wires[w].resend[ei].expect("checked above");
            let (node, _) = self.wires[w].ends[ei];
            if r.attempts >= ROBUST_MAX_RETRIES {
                self.wires[w].resend[ei] = None;
                self.wires[w].failed[ei] = true;
                self.nodes[node].note_link_failure();
                if let Some(router) = &mut self.router {
                    // Routed networks respond to a dead hop by
                    // rebuilding their tables and rerouting.
                    let ends = self.wires[w].ends;
                    router.wire_failed(&mut self.nodes, w, ends, now, &mut self.acts);
                    self.apply_router_acts(now);
                }
                fired = true;
                continue;
            }
            r.attempts += 1;
            r.deadline = now + r.interval_ns;
            self.wires[w].resend[ei] = Some(r);
            self.nodes[node].note_link_retry();
            let end = if ei == 0 { End::A } else { End::B };
            self.wires[w].send(end, PacketKind::Data(r.byte), now);
            fired = true;
        }
        if fired {
            self.schedule_wire(w);
        }
    }
}

pub(super) fn end_index(end: End) -> usize {
    match end {
        End::A => 0,
        End::B => 1,
    }
}
