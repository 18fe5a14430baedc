//! Signal-line timing: two one-directional lines forming one link.

use crate::fault::{Fate, LineFaultCounts, LineFaults};
use crate::packet::{LinkProtocol, PacketKind};
use std::collections::VecDeque;
use std::ops::Deref;

/// Transmission speed of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpeed {
    /// Nanoseconds per bit. 100 ns at the standard 10 MHz rate (§2.3.1).
    pub bit_time_ns: u64,
}

impl LinkSpeed {
    /// The standard 10 MHz rate.
    pub fn standard() -> LinkSpeed {
        LinkSpeed { bit_time_ns: 100 }
    }

    /// Duration of a packet in nanoseconds under the classic protocol.
    pub fn packet_ns(self, kind: PacketKind) -> u64 {
        u64::from(kind.bits()) * self.bit_time_ns
    }

    /// Duration of a frame under an explicit protocol.
    pub fn frame_ns(self, protocol: LinkProtocol, kind: PacketKind) -> u64 {
        u64::from(protocol.frame_bits(kind)) * self.bit_time_ns
    }

    /// Peak streaming bandwidth with overlapped acknowledges: one byte
    /// per data-packet time.
    pub fn streaming_bandwidth_bytes_per_sec(self) -> f64 {
        1e9 / (self.packet_ns(PacketKind::Data(0)) as f64)
    }
}

impl Default for LinkSpeed {
    fn default() -> Self {
        LinkSpeed::standard()
    }
}

/// The two ends of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum End {
    /// First endpoint.
    A,
    /// Second endpoint.
    B,
}

impl End {
    /// The opposite end.
    pub fn other(self) -> End {
        match self {
            End::A => End::B,
            End::B => End::A,
        }
    }

    fn index(self) -> usize {
        match self {
            End::A => 0,
            End::B => 1,
        }
    }

    fn from_index(i: usize) -> End {
        if i == 0 {
            End::A
        } else {
            End::B
        }
    }
}

/// When the receiving interface acknowledges a data byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckPolicy {
    /// As soon as reception starts, when a process is already waiting —
    /// the paper's design, enabling continuous transmission (§2.3).
    Early,
    /// Only after the stop bit (the ablation baseline).
    AfterStop,
}

/// Something that happened on the link. Sequence bits are always `false`
/// under the classic protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEvent {
    /// A data packet began arriving at `to` (the early-acknowledge
    /// decision point). Only emitted under the classic protocol: a
    /// robust receiver cannot acknowledge before the parity check.
    DataStarted {
        /// Receiving end.
        to: End,
    },
    /// A data packet finished arriving intact.
    DataDelivered {
        /// Receiving end.
        to: End,
        /// The byte carried.
        byte: u8,
        /// Sequence bit (robust protocol).
        seq: bool,
    },
    /// An acknowledge finished arriving.
    AckDelivered {
        /// Receiving end.
        to: End,
        /// Sequence bit of the byte being acknowledged.
        seq: bool,
    },
    /// A busy notice finished arriving: the peer holds the (duplicate)
    /// byte but has not yet acknowledged it (robust protocol only).
    BusyDelivered {
        /// Receiving end.
        to: End,
        /// Sequence bit of the byte in question.
        seq: bool,
    },
    /// A detectably corrupt frame arrived at `to` and was discarded.
    Garbled {
        /// Receiving end.
        to: End,
    },
}

/// What one [`DuplexLink::complete_due`] call took off the wire, in
/// order: line 0's report, then line 1's, each what its receiving end
/// sees (nothing when the frame was lost) followed by the reception
/// start of a queued data frame the completion put on the wire
/// ([`LinkEvent::DataStarted`], classic lines only). At most four
/// events; it derefs to the slice of them.
#[derive(Debug, Clone, Copy)]
pub struct Landed {
    events: [LinkEvent; 4],
    len: usize,
}

impl Landed {
    #[inline(always)]
    fn push(&mut self, event: LinkEvent) {
        self.events[self.len] = event;
        self.len += 1;
    }
}

impl Deref for Landed {
    type Target = [LinkEvent];

    #[inline(always)]
    fn deref(&self) -> &[LinkEvent] {
        &self.events[..self.len]
    }
}

/// A packet on the wire: what it is, when it started and when it lands,
/// and what the fault schedule decided about it at transmission start.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    kind: PacketKind,
    seq: bool,
    start_ns: u64,
    done_ns: u64,
    fate: Fate,
}

/// One one-directional signal line.
#[derive(Debug, Clone, Default)]
struct Line {
    /// Packet currently on the wire.
    in_flight: Option<InFlight>,
    /// Packets waiting for the wire (acknowledges are queued ahead of
    /// data to keep the reverse path prompt).
    queue: VecDeque<(PacketKind, bool)>,
    /// Transmit time of every frame this line has started, in full.
    busy_ns: u64,
}

/// A bidirectional link: a pair of signal lines. Line `i` carries packets
/// *from* end `i`: data from `i`'s output channel and acknowledges for
/// data `i` has received.
///
/// The fields every frame reads come first and the fault streams,
/// read only under a fault plan, last, so a wire event touches few
/// cache lines.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct DuplexLink {
    lines: [Line; 2],
    speed: LinkSpeed,
    protocol: LinkProtocol,
    /// When (if ever) the whole wire dies.
    dead_from: Option<u64>,
    /// Reception starts of the data frames the `send_*` calls put on
    /// the wire, reported by the next [`DuplexLink::advance`].
    pending_events: Vec<LinkEvent>,
    /// Fault schedule of the line transmitting from each end, if faulty.
    faults: [Option<LineFaults>; 2],
}

impl DuplexLink {
    /// A classic link with the given speed, both lines idle and perfect.
    pub fn new(speed: LinkSpeed) -> DuplexLink {
        DuplexLink {
            speed,
            protocol: LinkProtocol::Classic,
            lines: [Line::default(), Line::default()],
            dead_from: None,
            pending_events: Vec::new(),
            faults: [None, None],
        }
    }

    /// A robust-protocol link, optionally faulty. `faults[i]` is the
    /// fault stream of the line transmitting *from* end `i`.
    pub fn new_robust(
        speed: LinkSpeed,
        faults: [Option<LineFaults>; 2],
        dead_from: Option<u64>,
    ) -> DuplexLink {
        DuplexLink {
            speed,
            protocol: LinkProtocol::Robust,
            lines: [Line::default(), Line::default()],
            dead_from,
            pending_events: Vec::new(),
            faults,
        }
    }

    /// The configured speed.
    pub fn speed(&self) -> LinkSpeed {
        self.speed
    }

    /// The frame set this link speaks.
    pub fn protocol(&self) -> LinkProtocol {
        self.protocol
    }

    /// When (if ever) this wire dies.
    pub fn dead_from(&self) -> Option<u64> {
        self.dead_from
    }

    /// Fault counters of the line transmitting from `from`, if faulty.
    pub fn fault_counts(&self, from: End) -> Option<LineFaultCounts> {
        self.faults[from.index()].as_ref().map(|f| f.counts())
    }

    /// Queue a data byte for transmission from `from`, with the sequence
    /// bit the robust protocol stamps on it (a classic line drops it).
    /// Flow control (one outstanding unacknowledged byte) is the
    /// *interface's* duty; the wire transmits whatever it is given, in
    /// order.
    pub fn send_data_seq(&mut self, from: End, byte: u8, seq: bool, now: u64) {
        let started = self.send(from, PacketKind::Data(byte), seq, now);
        self.pending_events.extend(started);
    }

    /// Queue an acknowledge from `from` (for data `from` received), with
    /// its sequence bit. Acknowledges jump the queue: the hardware gives
    /// them priority so the sender's pipeline never stalls on a queued
    /// data byte.
    pub fn send_ack_seq(&mut self, from: End, seq: bool, now: u64) {
        self.send(from, PacketKind::Ack, seq, now);
    }

    /// Hand a frame to the line driven by `from`: straight onto the wire
    /// if the line is idle (an idle line has nothing queued — every
    /// completion starts the next queued frame), otherwise into its
    /// queue, data behind and everything else ahead of what waits there.
    /// A classic line carries no sequence bit, so `seq` is dropped there.
    /// Returns the reception start of a data frame that went straight
    /// on the wire ([`LinkEvent::DataStarted`]); the `send_*` calls keep
    /// it for the next [`DuplexLink::advance`].
    #[inline(always)]
    pub fn send(&mut self, from: End, kind: PacketKind, seq: bool, now: u64) -> Option<LinkEvent> {
        let seq = seq && self.protocol == LinkProtocol::Robust;
        let line = &mut self.lines[from.index()];
        if line.in_flight.is_some() {
            match kind {
                PacketKind::Data(_) => line.queue.push_back((kind, seq)),
                PacketKind::Ack | PacketKind::Busy => line.queue.push_front((kind, seq)),
            }
            return None;
        }
        debug_assert!(line.queue.is_empty(), "frames queued behind an idle line");
        let frame = self.start(from.index(), kind, seq, now);
        self.start_event(from.index(), frame)
    }

    /// Put a frame on idle line `i` at `now` and return it; the line's
    /// fault schedule decides its fate here, at transmission start.
    #[inline(always)]
    fn start(&mut self, i: usize, kind: PacketKind, seq: bool, now: u64) -> InFlight {
        let bits = self.protocol.frame_bits(kind);
        let mut fate = match &mut self.faults[i] {
            Some(f) => f.next_fate(bits, self.speed.bit_time_ns),
            None => Fate::Deliver { extra_ns: 0 },
        };
        let extra = match fate {
            Fate::Deliver { extra_ns } => extra_ns,
            _ => 0,
        };
        let duration = u64::from(bits) * self.speed.bit_time_ns + extra;
        let done_ns = now + duration;
        if let Some(dead) = self.dead_from {
            // Anything still on the wire when it dies is lost.
            if done_ns > dead {
                fate = Fate::Lose;
            }
        }
        let frame = InFlight {
            kind,
            seq,
            start_ns: now,
            done_ns,
            fate,
        };
        let line = &mut self.lines[i];
        line.in_flight = Some(frame);
        line.busy_ns += duration;
        frame
    }

    /// The reception-start event of frame `p`, which line `i` just put on
    /// the wire, if it is one. Robust receivers cannot acknowledge at
    /// reception start (the parity check needs the whole frame), so the
    /// early-ack decision point only exists on classic lines.
    #[inline(always)]
    fn start_event(&self, i: usize, p: InFlight) -> Option<LinkEvent> {
        (matches!(p.kind, PacketKind::Data(_))
            && self.protocol == LinkProtocol::Classic
            && p.fate == (Fate::Deliver { extra_ns: 0 }))
        .then_some(LinkEvent::DataStarted {
            to: End::from_index(i).other(),
        })
    }

    /// The earliest time at which something will complete, if any packet
    /// is in flight.
    #[inline(always)]
    pub fn next_deadline(&self) -> Option<u64> {
        match (&self.lines[0].in_flight, &self.lines[1].in_flight) {
            (Some(a), Some(b)) => Some(a.done_ns.min(b.done_ns)),
            (Some(p), None) | (None, Some(p)) => Some(p.done_ns),
            (None, None) => None,
        }
    }

    /// Transmit time of the line driven by `from` elapsed by `now`, in
    /// nanoseconds — the numerator of a link-utilisation measurement. A
    /// frame on the wire counts only the part of it sent by `now`.
    pub fn busy_ns(&self, from: End, now: u64) -> u64 {
        let line = &self.lines[from.index()];
        let unsent = line
            .in_flight
            .map_or(0, |p| p.done_ns - now.clamp(p.start_ns, p.done_ns));
        line.busy_ns - unsent
    }

    /// Whether both lines are idle with nothing queued.
    pub fn is_quiescent(&self) -> bool {
        self.lines
            .iter()
            .all(|l| l.in_flight.is_none() && l.queue.is_empty())
    }

    /// Deliver everything that has completed by `now`, after the start
    /// events the `send_*` calls produced: [`DuplexLink::complete_due`]
    /// at each deadline up to `now`, so events come in time order, and
    /// same-instant ones in line order. Lost packets complete silently;
    /// garbled packets surface as [`LinkEvent::Garbled`].
    pub fn advance(&mut self, now: u64) -> Vec<LinkEvent> {
        let mut events = std::mem::take(&mut self.pending_events);
        while let Some(t) = self.next_deadline().filter(|&t| t <= now) {
            events.extend_from_slice(&self.complete_due(t));
        }
        events
    }

    /// Take off the wire every frame due by `now` and start the frame
    /// queued behind it, reporting what landed ([`Landed`]). Call it no
    /// later than each [`DuplexLink::next_deadline`], as an event
    /// scheduler does: a started frame is then never due by the same
    /// `now`, so one call completes at most one frame a line.
    #[inline(always)]
    pub fn complete_due(&mut self, now: u64) -> Landed {
        let mut landed = Landed {
            events: [LinkEvent::Garbled { to: End::A }; 4],
            len: 0,
        };
        self.complete_line(0, now, &mut landed);
        self.complete_line(1, now, &mut landed);
        landed
    }

    /// Line `i`'s part of [`DuplexLink::complete_due`].
    #[inline(always)]
    fn complete_line(&mut self, i: usize, now: u64, landed: &mut Landed) {
        let line = &mut self.lines[i];
        let p = match line.in_flight {
            Some(p) if p.done_ns <= now => p,
            _ => return,
        };
        line.in_flight = None;
        let mut started = None;
        if let Some((kind, seq)) = line.queue.pop_front() {
            let next = self.start(i, kind, seq, p.done_ns);
            debug_assert!(
                next.done_ns > now,
                "two frames due on one line: complete_due called past a deadline"
            );
            started = self.start_event(i, next);
        }
        let to = End::from_index(i).other();
        match p.fate {
            Fate::Deliver { .. } => landed.push(match p.kind {
                PacketKind::Data(byte) => LinkEvent::DataDelivered {
                    to,
                    byte,
                    seq: p.seq,
                },
                PacketKind::Ack => LinkEvent::AckDelivered { to, seq: p.seq },
                PacketKind::Busy => LinkEvent::BusyDelivered { to, seq: p.seq },
            }),
            Fate::Garble => landed.push(LinkEvent::Garbled { to }),
            Fate::Lose => {}
        }
        if let Some(started) = started {
            landed.push(started);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::packet::JITTER_BITS_MAX;
    use proptest::prelude::*;

    #[test]
    fn speed_constructors() {
        assert_eq!(LinkSpeed::standard().bit_time_ns, 100);
        assert_eq!(LinkSpeed::standard().packet_ns(PacketKind::Data(0)), 1100);
        assert_eq!(LinkSpeed::standard().packet_ns(PacketKind::Ack), 200);
        let s = LinkSpeed::standard();
        assert_eq!(s.frame_ns(LinkProtocol::Robust, PacketKind::Data(0)), 1300);
        assert_eq!(s.frame_ns(LinkProtocol::Robust, PacketKind::Ack), 500);
    }

    #[test]
    fn data_start_event_emitted_immediately() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        link.send_data_seq(End::A, 7, false, 0);
        let evs = link.advance(0);
        assert_eq!(evs, vec![LinkEvent::DataStarted { to: End::B }]);
    }

    #[test]
    fn delivery_at_eleven_bit_times() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        link.send_data_seq(End::A, 0x5A, false, 0);
        let _ = link.advance(0);
        assert_eq!(link.next_deadline(), Some(1100));
        let evs = link.advance(1100);
        assert_eq!(
            evs,
            vec![LinkEvent::DataDelivered {
                to: End::B,
                byte: 0x5A,
                seq: false,
            }]
        );
        assert!(link.is_quiescent());
    }

    #[test]
    fn ack_has_priority_over_queued_data() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        // End B has a data byte queued behind a busy line, then owes an
        // ack: the ack must go first.
        link.send_data_seq(End::B, 1, false, 0); // occupies the line until 1100
        link.send_data_seq(End::B, 2, false, 0); // queued
        link.send_ack_seq(End::B, false, 0); // queued ahead of byte 2
        let _ = link.advance(0);
        let evs = link.advance(1100);
        assert!(evs.contains(&LinkEvent::DataDelivered {
            to: End::A,
            byte: 1,
            seq: false,
        }));
        // Next completion is the ack at 1100 + 200.
        let evs = link.advance(1300);
        assert!(evs.contains(&LinkEvent::AckDelivered {
            to: End::A,
            seq: false
        }));
        // Then the second data byte at 1300 + 1100.
        let evs = link.advance(2400);
        assert!(evs.contains(&LinkEvent::DataDelivered {
            to: End::A,
            byte: 2,
            seq: false,
        }));
    }

    #[test]
    fn quiescence() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        assert!(link.is_quiescent());
        assert_eq!(link.next_deadline(), None);
        link.send_ack_seq(End::A, false, 5);
        assert!(!link.is_quiescent());
        link.advance(205);
        assert!(link.is_quiescent());
    }

    #[test]
    fn robust_frames_take_longer_and_carry_seq() {
        let plan = FaultPlan::uniform(1, 0.0);
        let mut link = DuplexLink::new_robust(
            LinkSpeed::standard(),
            [Some(plan.line_faults(0, 0)), Some(plan.line_faults(0, 1))],
            None,
        );
        link.send_data_seq(End::A, 0x42, true, 0);
        // No DataStarted under the robust protocol.
        assert!(link.advance(0).is_empty());
        assert_eq!(link.next_deadline(), Some(1300));
        let evs = link.advance(1300);
        assert_eq!(
            evs,
            vec![LinkEvent::DataDelivered {
                to: End::B,
                byte: 0x42,
                seq: true,
            }]
        );
        link.send(End::B, PacketKind::Busy, true, 1300);
        let evs = link.advance(1800);
        assert_eq!(
            evs,
            vec![LinkEvent::BusyDelivered {
                to: End::A,
                seq: true
            }]
        );
    }

    #[test]
    fn dead_wire_swallows_packets() {
        let mut link = DuplexLink::new_robust(LinkSpeed::standard(), [None, None], Some(2000));
        link.send_data_seq(End::A, 1, false, 0);
        let evs = link.advance(1300);
        assert_eq!(evs.len(), 1, "delivered before death");
        link.send_data_seq(End::A, 2, false, 1300);
        // Completes at 2600 > 2000: lost.
        assert!(link.advance(2600).is_empty());
        link.send_data_seq(End::A, 3, false, 3000);
        assert!(link.advance(10_000).is_empty());
        assert!(link.is_quiescent());
    }

    #[test]
    fn garbled_frames_surface_as_garbled_events() {
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::uniform(3, 0.0)
        };
        let mut link = DuplexLink::new_robust(
            LinkSpeed::standard(),
            [Some(plan.line_faults(0, 0)), None],
            None,
        );
        // Every A→B frame is corrupted; some flips hit the start bit and
        // become losses, the rest must surface as Garbled.
        let mut garbled = 0;
        let mut now = 0;
        for _ in 0..64 {
            link.send_data_seq(End::A, 0xAB, false, now);
            now += 1300;
            for ev in link.advance(now) {
                match ev {
                    LinkEvent::Garbled { to: End::B } => garbled += 1,
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert!(garbled > 32, "only {garbled} of 64 surfaced");
        let counts = link.fault_counts(End::A).unwrap();
        assert_eq!(counts.garbled + counts.dropped, 64);
    }

    /// A link of each kind the simulator builds: classic, robust and
    /// clean, robust under a 10 % fault plan, and either robust one
    /// dying at `dead_ns`.
    fn link_variant(variant: u8, seed: u64, dead_ns: u64) -> DuplexLink {
        let speed = LinkSpeed::standard();
        let plan = FaultPlan::uniform(seed, 0.1);
        let faulty = [Some(plan.line_faults(0, 0)), Some(plan.line_faults(0, 1))];
        match variant {
            0 => DuplexLink::new(speed),
            1 => DuplexLink::new_robust(speed, [None, None], None),
            2 => DuplexLink::new_robust(speed, faulty, None),
            3 => DuplexLink::new_robust(speed, [None, None], Some(dead_ns)),
            _ => DuplexLink::new_robust(speed, faulty, Some(dead_ns)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `advance` is `complete_due` stepped to each deadline, start
        /// events included: the starts that sends report, then each
        /// line's completion and the start it chains, in order; and the
        /// two links end in the same state. `advance` is built from
        /// `complete_due`, so an order they share is pinned by the
        /// hand-written cases below.
        #[test]
        fn advance_is_complete_due_at_each_deadline(
            (variant, seed, dead_ns) in (0u8..5, any::<u64>(), 0u64..60_000),
            ops in proptest::collection::vec(
                (0u8..14, any::<bool>(), any::<u8>(), 0u64..3_000),
                200..400,
            ),
        ) {
            let mut reference = link_variant(variant, seed, dead_ns);
            let mut stepped = reference.clone();
            let (mut now, mut both, mut starts) = (0u64, 0, Vec::new());
            for (op, from_a, byte, dt) in ops {
                let from = if from_a { End::A } else { End::B };
                match op {
                    0 | 1 => {
                        reference.send_data_seq(from, byte, from_a, now);
                        starts.extend(stepped.send(from, PacketKind::Data(byte), from_a, now));
                    }
                    2 => {
                        // Both ends at once: on idle lines, a pair that
                        // completes at one instant.
                        for end in [End::A, End::B] {
                            reference.send_data_seq(end, byte, from_a, now);
                            starts.extend(stepped.send(end, PacketKind::Data(byte), from_a, now));
                        }
                    }
                    3 => {
                        reference.send_ack_seq(from, from_a, now);
                        starts.extend(stepped.send(from, PacketKind::Ack, from_a, now));
                    }
                    4 => {
                        reference.send(from, PacketKind::Busy, from_a, now);
                        starts.extend(stepped.send(from, PacketKind::Busy, from_a, now));
                    }
                    // Step time, often past several completions.
                    _ => {
                        now += dt;
                        let want = reference.advance(now);
                        let mut got = std::mem::take(&mut starts);
                        while let Some(t) = stepped.next_deadline().filter(|&t| t <= now) {
                            let landed = stepped.complete_due(t);
                            let reached = landed
                                .iter()
                                .filter(|ev| !matches!(ev, LinkEvent::DataStarted { .. }));
                            both += usize::from(reached.count() == 2);
                            got.extend_from_slice(&landed);
                        }
                        prop_assert_eq!(&got, &want, "at {}", now);
                    }
                }
                prop_assert_eq!(stepped.next_deadline(), reference.next_deadline());
                for end in [End::A, End::B] {
                    prop_assert_eq!(stepped.busy_ns(end, now), reference.busy_ns(end, now));
                }
                prop_assert_eq!(stepped.is_quiescent(), reference.is_quiescent());
            }
            // Sends at one instant from both ends land together often;
            // a dead wire loses them.
            prop_assert!(both > 0 || variant >= 3, "no same-instant pair on either line");
        }
    }

    #[test]
    fn jitter_delays_delivery_and_line_occupancy() {
        let plan = FaultPlan {
            jitter_rate: 1.0,
            ..FaultPlan::uniform(11, 0.0)
        };
        let mut link = DuplexLink::new_robust(
            LinkSpeed::standard(),
            [Some(plan.line_faults(0, 0)), None],
            None,
        );
        link.send_data_seq(End::A, 9, false, 0);
        let d = link.next_deadline().unwrap();
        let most = 1300 + u64::from(JITTER_BITS_MAX) * 100;
        assert!(d > 1300 && d <= most, "jittered deadline {d}");
        let evs = link.advance(d);
        assert_eq!(evs.len(), 1);
        assert_eq!(link.busy_ns(End::A, d), d);
    }

    /// Both lines complete in one call, each with a data frame queued
    /// behind it: line 0's delivery, the start it chains, then line 1's
    /// delivery and its chained start.
    #[test]
    fn complete_due_reports_line_0_then_line_1_each_before_its_chained_start() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        for (from, first, second) in [(End::A, 1, 2), (End::B, 3, 4)] {
            link.send_data_seq(from, first, false, 0);
            link.send_data_seq(from, second, false, 0);
        }
        let _ = link.advance(0);
        let landed = link.complete_due(1100);
        assert_eq!(
            *landed,
            [
                LinkEvent::DataDelivered {
                    to: End::B,
                    byte: 1,
                    seq: false,
                },
                LinkEvent::DataStarted { to: End::B },
                LinkEvent::DataDelivered {
                    to: End::A,
                    byte: 3,
                    seq: false,
                },
                LinkEvent::DataStarted { to: End::A },
            ]
        );
        assert_eq!(link.next_deadline(), Some(2200));
    }

    /// The same on a robust link, which reports no starts: line 0's
    /// acknowledge, then line 1's data byte, whatever each chains.
    #[test]
    fn complete_due_reports_line_0_first_on_a_robust_link() {
        let mut link = DuplexLink::new_robust(LinkSpeed::standard(), [None, None], None);
        link.send_ack_seq(End::A, true, 800);
        link.send_data_seq(End::A, 5, false, 800);
        link.send_data_seq(End::B, 6, true, 0);
        link.send_ack_seq(End::B, false, 0);
        assert!(link.advance(0).is_empty());
        let landed = link.complete_due(1300);
        assert_eq!(
            *landed,
            [
                LinkEvent::AckDelivered {
                    to: End::B,
                    seq: true,
                },
                LinkEvent::DataDelivered {
                    to: End::A,
                    byte: 6,
                    seq: true,
                },
            ]
        );
    }

    /// A line not yet due reports nothing, and a line that chains an
    /// acknowledge reports no start.
    #[test]
    fn complete_due_reports_only_the_lines_that_landed() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        link.send_data_seq(End::A, 1, false, 0);
        link.send_ack_seq(End::A, false, 0);
        link.send_ack_seq(End::B, false, 0);
        link.send_data_seq(End::B, 2, false, 0);
        let _ = link.advance(0);
        assert_eq!(
            *link.complete_due(200),
            [
                LinkEvent::AckDelivered {
                    to: End::A,
                    seq: false,
                },
                LinkEvent::DataStarted { to: End::A },
            ]
        );
        assert_eq!(
            *link.complete_due(1100),
            [LinkEvent::DataDelivered {
                to: End::B,
                byte: 1,
                seq: false,
            }]
        );
    }
}
