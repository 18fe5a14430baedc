//! Packet formats of the link protocol (Figure 1 of the paper), plus the
//! robust framing and timing used under fault injection.
//!
//! The classic frames are the paper's: a data packet is start bit, one
//! bit, eight data bits, stop bit; an acknowledge is a start bit and a
//! zero bit. The **robust** frames extend them with an alternating
//! sequence bit and an even-parity bit so that any single-bit flip is
//! *detected* (and the frame discarded) rather than silently corrupting
//! a byte, and with a `Busy` control frame that lets a receiver holding
//! an unacknowledged byte tell a resending sender to keep waiting.

/// Bits in a classic data packet: start bit, one bit, eight data bits,
/// stop bit.
pub const DATA_PACKET_BITS: u32 = 11;

/// Bits in a classic acknowledge packet: start bit, zero bit.
pub const ACK_PACKET_BITS: u32 = 2;

/// Bits in a robust data packet: start, flag, sequence, eight data bits,
/// parity, stop.
pub const ROBUST_DATA_BITS: u32 = 13;

/// Bits in a robust control packet (acknowledge or busy): start, flag,
/// kind, sequence, parity.
pub const ROBUST_CTRL_BITS: u32 = 5;

/// Bit-times a robust sender waits for an acknowledge before resending
/// a data byte: 25.6 µs at 100 ns a bit. The paper's link has no timeout.
pub const ROBUST_TIMEOUT_BITS: u32 = 256;

/// Resends of a data byte before its direction fails; a busy notice
/// resets the count, so a slow receiver is not taken for a dead wire.
pub const ROBUST_MAX_RETRIES: u32 = 8;

/// Each busy notice doubles the resend interval, up to this many timeouts.
pub const ROBUST_BUSY_BACKOFF_TIMEOUTS: u64 = 16;

/// The most bit-times a packet is jittered by. Jitter only ever delays.
pub const JITTER_BITS_MAX: u32 = 4;

/// Which frame set a line speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinkProtocol {
    /// The paper's frames (Figure 1): no redundancy, perfect wires.
    #[default]
    Classic,
    /// Sequence + parity frames: single-bit flips are detected,
    /// duplicates are identified, and `Busy` distinguishes a slow
    /// receiver from a dead wire.
    Robust,
}

impl LinkProtocol {
    /// Frame length of `kind` under this protocol, in bit-times.
    pub fn frame_bits(self, kind: PacketKind) -> u32 {
        match (self, kind) {
            (LinkProtocol::Classic, PacketKind::Data(_)) => DATA_PACKET_BITS,
            (LinkProtocol::Classic, _) => ACK_PACKET_BITS,
            (LinkProtocol::Robust, PacketKind::Data(_)) => ROBUST_DATA_BITS,
            (LinkProtocol::Robust, _) => ROBUST_CTRL_BITS,
        }
    }
}

/// A packet travelling down a signal line. "Data bytes and acknowledges
/// are multiplexed down each signal line" (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data packet carrying one byte.
    Data(u8),
    /// An acknowledge: "the acknowledge signifies both that a process was
    /// able to receive the acknowledged byte, and that the receiving link
    /// is able to receive another byte" (§2.3).
    Ack,
    /// Robust protocol only: the receiver holds the (duplicate) byte but
    /// has not yet been able to acknowledge it — the sender should reset
    /// its retry count and back off rather than declare the wire dead.
    Busy,
}

impl PacketKind {
    /// Duration of this packet in bit-times under the classic protocol.
    /// (`Busy` never occurs on a classic line; it is given the control
    /// frame length for completeness.)
    pub fn bits(self) -> u32 {
        match self {
            PacketKind::Data(_) => DATA_PACKET_BITS,
            PacketKind::Ack | PacketKind::Busy => ACK_PACKET_BITS,
        }
    }

    /// The classic on-wire bit pattern, LSB transmitted first after the
    /// header, for tests and visualisation. Data: `1 1 d0..d7 0`;
    /// ack: `1 0`.
    pub fn wire_bits(self) -> Vec<bool> {
        match self {
            PacketKind::Data(byte) => {
                let mut v = Vec::with_capacity(DATA_PACKET_BITS as usize);
                v.push(true); // start bit
                v.push(true); // flag: data
                for i in 0..8 {
                    v.push((byte >> i) & 1 == 1);
                }
                v.push(false); // stop bit
                v
            }
            PacketKind::Ack | PacketKind::Busy => vec![true, false],
        }
    }

    /// Decode a bit pattern produced by [`PacketKind::wire_bits`].
    pub fn from_wire_bits(bits: &[bool]) -> Option<PacketKind> {
        match bits {
            [true, false] => Some(PacketKind::Ack),
            [true, true, data @ .., false] if data.len() == 8 => {
                let mut byte = 0u8;
                for (i, b) in data.iter().enumerate() {
                    if *b {
                        byte |= 1 << i;
                    }
                }
                Some(PacketKind::Data(byte))
            }
            _ => None,
        }
    }

    /// The robust on-wire pattern with sequence bit `seq`.
    /// Data: `1 1 s d0..d7 p 0` where `p` makes flag+seq+data even
    /// parity. Control: `1 0 k s p` where `k` is 0 for acknowledge and
    /// 1 for busy, and `p` makes flag+kind+seq even parity.
    pub fn robust_wire_bits(self, seq: bool) -> Vec<bool> {
        match self {
            PacketKind::Data(byte) => {
                let mut v = Vec::with_capacity(ROBUST_DATA_BITS as usize);
                v.push(true); // start
                v.push(true); // flag: data
                v.push(seq);
                for i in 0..8 {
                    v.push((byte >> i) & 1 == 1);
                }
                let parity = v[1..].iter().filter(|b| **b).count() % 2 == 1;
                v.push(parity); // even parity over flag+seq+data
                v.push(false); // stop
                v
            }
            PacketKind::Ack | PacketKind::Busy => {
                let kind = self == PacketKind::Busy;
                let parity = [false, kind, seq].iter().filter(|b| **b).count() % 2 == 1;
                vec![true, false, kind, seq, parity]
            }
        }
    }

    /// Decode a robust frame; `None` on any framing or parity violation
    /// — which is every single-bit flip of a valid frame except the
    /// start bit (whose loss means the frame is never seen at all).
    pub fn from_robust_wire_bits(bits: &[bool]) -> Option<(PacketKind, bool)> {
        match bits {
            [true, true, seq, data @ .., parity, false] if data.len() == 8 => {
                let ones =
                    usize::from(true) + usize::from(*seq) + data.iter().filter(|b| **b).count();
                if *parity != (ones % 2 == 1) {
                    return None;
                }
                let mut byte = 0u8;
                for (i, b) in data.iter().enumerate() {
                    if *b {
                        byte |= 1 << i;
                    }
                }
                Some((PacketKind::Data(byte), *seq))
            }
            [true, false, kind, seq, parity] => {
                let ones = usize::from(*kind) + usize::from(*seq);
                if *parity != (ones % 2 == 1) {
                    return None;
                }
                let k = if *kind {
                    PacketKind::Busy
                } else {
                    PacketKind::Ack
                };
                Some((k, *seq))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_sizes_match_figure_1() {
        assert_eq!(PacketKind::Data(0).bits(), 11);
        assert_eq!(PacketKind::Ack.bits(), 2);
        assert_eq!(PacketKind::Data(0xFF).wire_bits().len(), 11);
        assert_eq!(PacketKind::Ack.wire_bits().len(), 2);
    }

    #[test]
    fn wire_roundtrip() {
        for byte in [0u8, 1, 0x55, 0xAA, 0xFF] {
            let bits = PacketKind::Data(byte).wire_bits();
            assert_eq!(
                PacketKind::from_wire_bits(&bits),
                Some(PacketKind::Data(byte))
            );
        }
        let bits = PacketKind::Ack.wire_bits();
        assert_eq!(PacketKind::from_wire_bits(&bits), Some(PacketKind::Ack));
        assert_eq!(PacketKind::from_wire_bits(&[false, true]), None);
    }

    #[test]
    fn data_and_ack_are_distinguished_by_second_bit() {
        // The bit after the start bit is 1 for data, 0 for acknowledge
        // (Figure 1), letting the two packet kinds share a line.
        assert!(PacketKind::Data(0).wire_bits()[1]);
        assert!(!PacketKind::Ack.wire_bits()[1]);
    }

    #[test]
    fn robust_frame_sizes() {
        let p = LinkProtocol::Robust;
        assert_eq!(p.frame_bits(PacketKind::Data(0)), 13);
        assert_eq!(p.frame_bits(PacketKind::Ack), 5);
        assert_eq!(p.frame_bits(PacketKind::Busy), 5);
        assert_eq!(PacketKind::Data(0x5A).robust_wire_bits(true).len(), 13);
        assert_eq!(PacketKind::Busy.robust_wire_bits(false).len(), 5);
        let c = LinkProtocol::Classic;
        assert_eq!(c.frame_bits(PacketKind::Data(0)), 11);
        assert_eq!(c.frame_bits(PacketKind::Ack), 2);
    }

    #[test]
    fn robust_roundtrip() {
        for seq in [false, true] {
            for byte in [0u8, 1, 0x55, 0xAA, 0xFF] {
                let bits = PacketKind::Data(byte).robust_wire_bits(seq);
                assert_eq!(
                    PacketKind::from_robust_wire_bits(&bits),
                    Some((PacketKind::Data(byte), seq))
                );
            }
            for kind in [PacketKind::Ack, PacketKind::Busy] {
                let bits = kind.robust_wire_bits(seq);
                assert_eq!(PacketKind::from_robust_wire_bits(&bits), Some((kind, seq)));
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_lost() {
        // The robustness claim the wire model's `Garble` fate rests on:
        // flipping any one bit of a valid robust frame either breaks the
        // start bit (the frame is never seen — modelled as a loss) or
        // fails parity/framing (the frame is discarded). No single flip
        // decodes to a *different* valid frame.
        let mut frames: Vec<Vec<bool>> = Vec::new();
        for seq in [false, true] {
            for byte in [0u8, 1, 0x0F, 0x55, 0xAA, 0xFF] {
                frames.push(PacketKind::Data(byte).robust_wire_bits(seq));
            }
            frames.push(PacketKind::Ack.robust_wire_bits(seq));
            frames.push(PacketKind::Busy.robust_wire_bits(seq));
        }
        for frame in frames {
            let original = PacketKind::from_robust_wire_bits(&frame);
            assert!(original.is_some());
            for i in 0..frame.len() {
                let mut flipped = frame.clone();
                flipped[i] = !flipped[i];
                if i == 0 {
                    continue; // start bit: loss, not reception
                }
                assert_eq!(
                    PacketKind::from_robust_wire_bits(&flipped),
                    None,
                    "flip of bit {i} in {frame:?} went undetected"
                );
            }
        }
    }
}
