//! Signal-line timing: two one-directional lines forming one link.

use crate::fault::{Fate, LineFaultCounts, LineFaults};
use crate::packet::{LinkProtocol, PacketKind};
use std::collections::VecDeque;

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

/// A packet on the wire: what it is, when it lands, and what the fault
/// schedule decided about it at transmission start.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    kind: PacketKind,
    seq: bool,
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
    /// Cumulative nanoseconds this line has spent transmitting.
    busy_ns: u64,
    /// Fault schedule, if this line is faulty.
    faults: Option<LineFaults>,
}

impl Line {
    /// Put a frame on the idle line at `now`; the fault schedule decides
    /// its fate here, at transmission start.
    fn start(
        &mut self,
        kind: PacketKind,
        seq: bool,
        now: u64,
        speed: LinkSpeed,
        protocol: LinkProtocol,
        dead_from: Option<u64>,
    ) {
        let bits = protocol.frame_bits(kind);
        let mut fate = match &mut self.faults {
            Some(f) => f.next_fate(bits, speed.bit_time_ns),
            None => Fate::Deliver { extra_ns: 0 },
        };
        let extra = match fate {
            Fate::Deliver { extra_ns } => extra_ns,
            _ => 0,
        };
        let duration = u64::from(bits) * speed.bit_time_ns + extra;
        let done_ns = now + duration;
        if let Some(dead) = dead_from {
            // Anything still on the wire when it dies is lost.
            if done_ns > dead {
                fate = Fate::Lose;
            }
        }
        self.in_flight = Some(InFlight {
            kind,
            seq,
            done_ns,
            fate,
        });
        self.busy_ns += duration;
    }
}

/// A bidirectional link: a pair of signal lines. Line `i` carries packets
/// *from* end `i`: data from `i`'s output channel and acknowledges for
/// data `i` has received.
#[derive(Debug, Clone)]
pub struct DuplexLink {
    speed: LinkSpeed,
    protocol: LinkProtocol,
    lines: [Line; 2],
    /// When (if ever) the whole wire dies.
    dead_from: Option<u64>,
    /// Reception starts of the data frames the `send_*` calls put on
    /// the wire, reported by the next [`DuplexLink::advance`].
    pending_events: Vec<LinkEvent>,
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
        }
    }

    /// A robust-protocol link, optionally faulty. `faults[i]` is the
    /// fault stream of the line transmitting *from* end `i`.
    pub fn new_robust(
        speed: LinkSpeed,
        faults: [Option<LineFaults>; 2],
        dead_from: Option<u64>,
    ) -> DuplexLink {
        let [fa, fb] = faults;
        DuplexLink {
            speed,
            protocol: LinkProtocol::Robust,
            lines: [
                Line {
                    faults: fa,
                    ..Line::default()
                },
                Line {
                    faults: fb,
                    ..Line::default()
                },
            ],
            dead_from,
            pending_events: Vec::new(),
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
        self.lines[from.index()].faults.as_ref().map(|f| f.counts())
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
        line.start(kind, seq, now, self.speed, self.protocol, self.dead_from);
        self.start_event(from.index())
    }

    /// The reception-start event of the frame line `i` just put on the
    /// wire, if it is one. Robust receivers cannot acknowledge at
    /// reception start (the parity check needs the whole frame), so the
    /// early-ack decision point only exists on classic lines.
    fn start_event(&self, i: usize) -> Option<LinkEvent> {
        let p = self.lines[i].in_flight.as_ref()?;
        (matches!(p.kind, PacketKind::Data(_))
            && self.protocol == LinkProtocol::Classic
            && p.fate == (Fate::Deliver { extra_ns: 0 }))
        .then_some(LinkEvent::DataStarted {
            to: End::from_index(i).other(),
        })
    }

    /// The earliest time at which something will complete, if any packet
    /// is in flight.
    #[inline]
    pub fn next_deadline(&self) -> Option<u64> {
        match (&self.lines[0].in_flight, &self.lines[1].in_flight) {
            (Some(a), Some(b)) => Some(a.done_ns.min(b.done_ns)),
            (Some(p), None) | (None, Some(p)) => Some(p.done_ns),
            (None, None) => None,
        }
    }

    /// Cumulative transmit time of the line driven by `from`, in
    /// nanoseconds — the numerator of a link-utilisation measurement.
    pub fn busy_ns(&self, from: End) -> u64 {
        self.lines[from.index()].busy_ns
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
            events.extend(self.complete_due(t).into_iter().flatten().flatten());
        }
        events
    }

    /// Take off the wire every frame due by `now` and start the frame
    /// queued behind it. Slot `i` is line `i`'s report, in order: what
    /// its receiving end sees (`None` when nothing was due, or the frame
    /// was lost), then the reception start of a queued data frame the
    /// completion put on the wire ([`LinkEvent::DataStarted`], classic
    /// lines only). Call it no later than each
    /// [`DuplexLink::next_deadline`], as an event scheduler does: a
    /// started frame is then never due by the same `now`, so one call
    /// completes at most one frame a line.
    #[inline]
    pub fn complete_due(&mut self, now: u64) -> [[Option<LinkEvent>; 2]; 2] {
        [self.complete_line(0, now), self.complete_line(1, now)]
    }

    /// Line `i`'s slot of [`DuplexLink::complete_due`].
    #[inline]
    fn complete_line(&mut self, i: usize, now: u64) -> [Option<LinkEvent>; 2] {
        let line = &mut self.lines[i];
        let p = match line.in_flight {
            Some(p) if p.done_ns <= now => p,
            _ => return [None, None],
        };
        line.in_flight = None;
        let mut started = None;
        if let Some((kind, seq)) = line.queue.pop_front() {
            line.start(
                kind,
                seq,
                p.done_ns,
                self.speed,
                self.protocol,
                self.dead_from,
            );
            debug_assert!(
                self.lines[i].in_flight.is_none_or(|q| q.done_ns > now),
                "two frames due on one line: complete_due called past a deadline"
            );
            started = self.start_event(i);
        }
        let to = End::from_index(i).other();
        let event = match p.fate {
            Fate::Deliver { .. } => Some(match p.kind {
                PacketKind::Data(byte) => LinkEvent::DataDelivered {
                    to,
                    byte,
                    seq: p.seq,
                },
                PacketKind::Ack => LinkEvent::AckDelivered { to, seq: p.seq },
                PacketKind::Busy => LinkEvent::BusyDelivered { to, seq: p.seq },
            }),
            Fate::Garble => Some(LinkEvent::Garbled { to }),
            Fate::Lose => None,
        };
        [event, started]
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
        /// two links end in the same state.
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
                            let lines = stepped.complete_due(t);
                            both += usize::from(lines[0][0].is_some() && lines[1][0].is_some());
                            got.extend(lines.into_iter().flatten().flatten());
                        }
                        prop_assert_eq!(&got, &want, "at {}", now);
                    }
                }
                prop_assert_eq!(stepped.next_deadline(), reference.next_deadline());
                for end in [End::A, End::B] {
                    prop_assert_eq!(stepped.busy_ns(end), reference.busy_ns(end));
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
        assert_eq!(link.busy_ns(End::A), d);
    }
}
