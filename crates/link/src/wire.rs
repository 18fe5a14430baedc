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

    /// A custom rate in MHz.
    pub fn mhz(rate: f64) -> LinkSpeed {
        LinkSpeed {
            bit_time_ns: (1000.0 / rate).round() as u64,
        }
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

    /// Streaming bandwidth when each byte also waits for a full
    /// acknowledge packet (the no-early-ack ablation).
    pub fn serialised_bandwidth_bytes_per_sec(self) -> f64 {
        1e9 / ((self.packet_ns(PacketKind::Data(0)) + self.packet_ns(PacketKind::Ack)) as f64)
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
    fn start_next(
        &mut self,
        now: u64,
        speed: LinkSpeed,
        protocol: LinkProtocol,
        dead_from: Option<u64>,
    ) -> Option<(PacketKind, Fate)> {
        if self.in_flight.is_some() {
            return None;
        }
        let (kind, seq) = self.queue.pop_front()?;
        Some((kind, self.start(kind, seq, now, speed, protocol, dead_from)))
    }

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
    ) -> Fate {
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
        fate
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
    /// Events produced by packet starts, drained by [`DuplexLink::advance`].
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

    /// Queue a data byte for transmission from `from`. Flow control (one
    /// outstanding unacknowledged byte) is the *interface's* duty; the
    /// wire transmits whatever it is given, in order.
    pub fn send_data(&mut self, from: End, byte: u8, now: u64) {
        self.send_data_seq(from, byte, false, now);
    }

    /// Queue a data byte with an explicit sequence bit (robust protocol).
    pub fn send_data_seq(&mut self, from: End, byte: u8, seq: bool, now: u64) {
        self.send(from, PacketKind::Data(byte), seq, now);
    }

    /// Queue an acknowledge from `from` (for data `from` received).
    /// Acknowledges jump the queue: the hardware gives them priority so
    /// the sender's pipeline never stalls on a queued data byte.
    pub fn send_ack(&mut self, from: End, now: u64) {
        self.send_ack_seq(from, false, now);
    }

    /// Queue an acknowledge with an explicit sequence bit.
    pub fn send_ack_seq(&mut self, from: End, seq: bool, now: u64) {
        self.send(from, PacketKind::Ack, seq, now);
    }

    /// Queue a busy notice (robust protocol; jumps the queue like an
    /// acknowledge).
    pub fn send_busy(&mut self, from: End, seq: bool, now: u64) {
        self.send(from, PacketKind::Busy, seq, now);
    }

    /// Hand a frame to the line driven by `from`: straight onto the wire
    /// if the line is idle (an idle line has nothing queued — every
    /// completion starts the next queued frame), otherwise into its
    /// queue, data behind and everything else ahead of what waits there.
    fn send(&mut self, from: End, kind: PacketKind, seq: bool, now: u64) {
        let line = &mut self.lines[from.index()];
        if line.in_flight.is_some() {
            match kind {
                PacketKind::Data(_) => line.queue.push_back((kind, seq)),
                PacketKind::Ack | PacketKind::Busy => line.queue.push_front((kind, seq)),
            }
            return;
        }
        debug_assert!(line.queue.is_empty(), "frames queued behind an idle line");
        let fate = line.start(kind, seq, now, self.speed, self.protocol, self.dead_from);
        // Robust receivers cannot acknowledge at reception start (the
        // parity check needs the whole frame), so the early-ack decision
        // point only exists on classic lines.
        if matches!(kind, PacketKind::Data(_))
            && self.protocol == LinkProtocol::Classic
            && fate == (Fate::Deliver { extra_ns: 0 })
        {
            self.pending_events
                .push(LinkEvent::DataStarted { to: from.other() });
        }
    }

    /// Take any start events produced by sends that have not yet been
    /// drained by [`DuplexLink::advance`]. Schedulers that must handle
    /// start events at their own stamped times (rather than at the next
    /// `advance` call) use this to intercept them.
    pub fn take_pending_events(&mut self) -> Vec<LinkEvent> {
        std::mem::take(&mut self.pending_events)
    }

    /// Drop any undrained start events in place, keeping the buffer: for
    /// schedulers whose receivers never decide at reception start.
    pub fn discard_pending_events(&mut self) {
        self.pending_events.clear();
    }

    /// The earliest time at which something will complete, if any packet
    /// is in flight.
    pub fn next_deadline(&self) -> Option<u64> {
        self.lines
            .iter()
            .filter_map(|l| l.in_flight.as_ref().map(|p| p.done_ns))
            .min()
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

    /// Deliver everything that has completed by `now` (and any start
    /// events already produced). Events are returned in time order for
    /// completions at distinct times; same-instant events are returned in
    /// line order. Lost packets complete silently; garbled packets
    /// surface as [`LinkEvent::Garbled`].
    pub fn advance(&mut self, now: u64) -> Vec<LinkEvent> {
        let mut events = Vec::new();
        self.advance_into(now, &mut events);
        events
    }

    /// [`DuplexLink::advance`], appending to a caller-owned buffer so a
    /// scheduler draining millions of wire events allocates nothing.
    pub fn advance_into(&mut self, now: u64, events: &mut Vec<LinkEvent>) {
        events.append(&mut self.pending_events);
        loop {
            let mut progressed = false;
            for i in 0..2 {
                let done = match &self.lines[i].in_flight {
                    Some(p) if p.done_ns <= now => Some(*p),
                    _ => None,
                };
                if let Some(p) = done {
                    self.lines[i].in_flight = None;
                    let to = End::from_index(i).other();
                    match p.fate {
                        Fate::Deliver { .. } => match p.kind {
                            PacketKind::Data(byte) => events.push(LinkEvent::DataDelivered {
                                to,
                                byte,
                                seq: p.seq,
                            }),
                            PacketKind::Ack => {
                                events.push(LinkEvent::AckDelivered { to, seq: p.seq })
                            }
                            PacketKind::Busy => {
                                events.push(LinkEvent::BusyDelivered { to, seq: p.seq })
                            }
                        },
                        Fate::Garble => events.push(LinkEvent::Garbled { to }),
                        Fate::Lose => {}
                    }
                    // Start whatever is queued next, from the completion
                    // time of the previous packet.
                    if let Some((PacketKind::Data(_), fate)) = self.lines[i].start_next(
                        p.done_ns,
                        self.speed,
                        self.protocol,
                        self.dead_from,
                    ) {
                        if self.protocol == LinkProtocol::Classic
                            && fate == (Fate::Deliver { extra_ns: 0 })
                        {
                            events.push(LinkEvent::DataStarted {
                                to: End::from_index(i).other(),
                            });
                        }
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn speed_constructors() {
        assert_eq!(LinkSpeed::standard().bit_time_ns, 100);
        assert_eq!(LinkSpeed::mhz(20.0).bit_time_ns, 50);
        assert_eq!(LinkSpeed::standard().packet_ns(PacketKind::Data(0)), 1100);
        assert_eq!(LinkSpeed::standard().packet_ns(PacketKind::Ack), 200);
        let s = LinkSpeed::standard();
        assert_eq!(s.frame_ns(LinkProtocol::Robust, PacketKind::Data(0)), 1300);
        assert_eq!(s.frame_ns(LinkProtocol::Robust, PacketKind::Ack), 500);
    }

    #[test]
    fn data_start_event_emitted_immediately() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        link.send_data(End::A, 7, 0);
        let evs = link.advance(0);
        assert_eq!(evs, vec![LinkEvent::DataStarted { to: End::B }]);
    }

    #[test]
    fn advance_into_appends_what_advance_returns() {
        let mut into = DuplexLink::new(LinkSpeed::standard());
        into.send_data(End::A, 7, 0);
        let mut plain = into.clone();
        // Whatever the caller's buffer already holds stays in front.
        let mut got = vec![LinkEvent::Garbled { to: End::A }];
        let mut want = got.clone();
        for now in [0, 1100] {
            into.advance_into(now, &mut got);
            want.extend(plain.advance(now));
        }
        assert_eq!(got, want);
        assert_eq!(got.len(), 3, "marker, start, delivery");
    }

    #[test]
    fn discarded_start_events_never_surface() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        link.send_data(End::A, 7, 0);
        link.discard_pending_events();
        assert!(link.advance(0).is_empty());
        assert_eq!(link.advance(1100).len(), 1, "the byte still arrives");
    }

    #[test]
    fn delivery_at_eleven_bit_times() {
        let mut link = DuplexLink::new(LinkSpeed::standard());
        link.send_data(End::A, 0x5A, 0);
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
        link.send_data(End::B, 1, 0); // occupies the line until 1100
        link.send_data(End::B, 2, 0); // queued
        link.send_ack(End::B, 0); // queued ahead of byte 2
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
        link.send_ack(End::A, 5);
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
        link.send_busy(End::B, true, 1300);
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

    #[test]
    fn jitter_delays_delivery_and_line_occupancy() {
        let plan = FaultPlan {
            jitter_rate: 1.0,
            jitter_bits_max: 4,
            ..FaultPlan::uniform(11, 0.0)
        };
        let mut link = DuplexLink::new_robust(
            LinkSpeed::standard(),
            [Some(plan.line_faults(0, 0)), None],
            None,
        );
        link.send_data_seq(End::A, 9, false, 0);
        let d = link.next_deadline().unwrap();
        assert!(d > 1300 && d <= 1300 + 400, "jittered deadline {d}");
        let evs = link.advance(d);
        assert_eq!(evs.len(), 1);
        assert_eq!(link.busy_ns(End::A), d);
    }
}
