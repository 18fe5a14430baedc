//! # transputer-link
//!
//! Bit-level model of the INMOS transputer serial link (§2.3 of the
//! ISCA 1985 paper, Figure 1).
//!
//! A link between two transputers is implemented by two one-directional
//! signal lines, each carrying data *and* control information:
//!
//! * a **data packet** is a start bit, a one bit, eight data bits and a
//!   stop bit — eleven bit-times;
//! * an **acknowledge packet** is a start bit followed by a zero bit —
//!   two bit-times.
//!
//! "After transmitting a data byte, the sender waits until an
//! acknowledge is received. ... An acknowledge is transmitted as soon as
//! reception of a data byte starts (if there is a process waiting for it,
//! and if there is room to buffer another one). Consequently transmission
//! may be continuous, with no delays between data bytes."
//!
//! The standard transmission rate is 10 MHz (100 ns bit time), "providing
//! a maximum performance of about 1 Mbyte/sec in each direction on each
//! link" (§2.3.1). Both claims are reproduced by experiment E7.

#![forbid(unsafe_code)]

pub mod fault;
pub mod packet;
pub mod vc;
pub mod wire;

pub use fault::{DeadLink, Fate, FaultPlan, LineFaultCounts, LineFaults, Xorshift64};
pub use packet::{
    LinkProtocol, PacketKind, ACK_PACKET_BITS, DATA_PACKET_BITS, ROBUST_CTRL_BITS, ROBUST_DATA_BITS,
};
pub use vc::VcHeader;
pub use wire::{AckPolicy, DuplexLink, End, LinkEvent, LinkSpeed};

#[cfg(test)]
mod tests {
    use super::*;

    /// Stream `n` bytes A→B with an attentive receiver and return the
    /// arrival time of the final acknowledge at A.
    fn stream_bytes(n: usize, policy: AckPolicy) -> u64 {
        let speed = LinkSpeed::standard();
        let mut link = DuplexLink::new(speed);
        let mut now = 0u64;
        let mut sent = 1usize;
        let mut acked = 0usize;
        let mut delivered = 0usize;
        link.send_data_seq(End::A, 0xA5, false, now);
        let mut last_ack_time = 0;
        while acked < n {
            let evs = link.advance(now);
            if evs.is_empty() {
                now = link.next_deadline().expect("link active");
                continue;
            }
            for ev in evs {
                match ev {
                    LinkEvent::DataStarted { to: End::B } if policy == AckPolicy::Early => {
                        // Receiver is ready: acknowledge at once.
                        link.send_ack_seq(End::B, false, now);
                    }
                    LinkEvent::DataDelivered { to: End::B, .. } => {
                        delivered += 1;
                        if policy == AckPolicy::AfterStop {
                            link.send_ack_seq(End::B, false, now);
                        }
                    }
                    LinkEvent::AckDelivered { to: End::A, .. } => {
                        acked += 1;
                        last_ack_time = now;
                        if sent < n {
                            link.send_data_seq(End::A, 0xA5, false, now);
                            sent += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        // With early acknowledge the final byte's ack precedes its
        // delivery; drain the wire before checking.
        while let Some(d) = link.next_deadline() {
            now = d;
            for ev in link.advance(now) {
                if let LinkEvent::DataDelivered { to: End::B, .. } = ev {
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, n);
        last_ack_time
    }

    #[test]
    fn single_byte_ack_timing() {
        // The early ack is sent at reception *start*, so it lands two
        // bit-times after the data packet begins; the sender has its
        // acknowledgement before its own stop bit goes out.
        let t = stream_bytes(1, AckPolicy::Early);
        assert_eq!(t, 2 * 100, "early ack arrives two bit-times after start");
        let t = stream_bytes(1, AckPolicy::AfterStop);
        assert_eq!(t, (11 + 2) * 100);
    }

    #[test]
    fn early_ack_gives_continuous_transmission() {
        // With early acknowledge, data bytes follow each other with no
        // gap: the wire is saturated at one byte per 11 bit-times (§2.3:
        // "transmission may be continuous, with no delays between data
        // bytes"). The sender can queue byte k+1 the moment byte k's ack
        // arrives (2 bit-times in), but the line is still busy until
        // 11 bit-times; so byte k starts at k*11 and its ack lands at
        // k*11 + 2.
        let n = 100u64;
        let expected = ((n - 1) * 11 + 2) * 100;
        assert_eq!(stream_bytes(n as usize, AckPolicy::Early), expected);
    }

    #[test]
    fn late_ack_serialises_bytes() {
        // Ack-after-stop costs 13 bit-times per byte: 11 for the data,
        // 2 for the acknowledge, with the sender idle in between.
        let n = 100u64;
        let t = stream_bytes(n as usize, AckPolicy::AfterStop);
        assert_eq!(t, ((n - 1) * 13 + 13) * 100);
    }

    #[test]
    fn bandwidth_is_about_one_megabyte_per_second() {
        // §2.3.1: "a maximum performance of about 1 Mbyte/sec in each
        // direction". 1 byte / 11 bit-times at 10 MHz = 0.909 MB/s.
        let mb_per_s = LinkSpeed::standard().streaming_bandwidth_bytes_per_sec() / 1e6;
        assert!(mb_per_s > 0.85 && mb_per_s < 1.0, "got {mb_per_s}");
    }

    #[test]
    fn duplex_directions_are_independent() {
        // Data A→B and B→A at the same time do not contend: the lines
        // are one-directional (§2.3).
        let mut link = DuplexLink::new(LinkSpeed::standard());
        link.send_data_seq(End::A, 1, false, 0);
        link.send_data_seq(End::B, 2, false, 0);
        let mut got_a = false;
        let mut got_b = false;
        let mut now = 0;
        while let Some(d) = link.next_deadline() {
            now = d;
            for ev in link.advance(now) {
                match ev {
                    LinkEvent::DataDelivered {
                        to: End::B, byte, ..
                    } => {
                        assert_eq!(byte, 1);
                        got_b = true;
                    }
                    LinkEvent::DataDelivered {
                        to: End::A, byte, ..
                    } => {
                        assert_eq!(byte, 2);
                        got_a = true;
                    }
                    _ => {}
                }
            }
            if got_a && got_b {
                break;
            }
        }
        assert!(got_a && got_b);
        assert_eq!(now, 11 * 100, "both arrive at 11 bit-times");
    }
}
