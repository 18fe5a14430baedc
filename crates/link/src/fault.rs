//! Deterministic link fault injection.
//!
//! The paper's wires are perfect; real INMOS deployments were not. This
//! module supplies a seeded, per-line schedule of packet fates — dropped
//! packets, single-bit corruption (always *detected* by the robust
//! frame's parity and framing, see [`crate::packet`]), bit-time jitter,
//! and links that die outright — so the robustness machinery upstream
//! can be exercised reproducibly: the same [`FaultPlan`] seed produces
//! the same fault schedule on every run and under every engine.
//!
//! Determinism argument: each one-directional line owns one RNG stream,
//! seeded from the plan seed and the line identity alone. Fates are
//! drawn exactly once per packet, at transmission start, and the
//! per-line sequence of packet starts is engine-invariant (a line
//! transmits its queue in order; queueing times are stamped identically
//! by all engines). A fixed number of draws per packet keeps the
//! streams aligned regardless of which fate is chosen.

/// `xorshift64*` — small, fast, and good enough for fault schedules.
#[derive(Debug, Clone)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Seed the generator; a zero seed is mapped to a fixed non-zero
    /// constant (xorshift has a zero fixed point).
    pub fn new(seed: u64) -> Xorshift64 {
        Xorshift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next draw as a float uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// SplitMix64, used to derive well-separated per-line seeds from one
/// plan seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A wire that dies: every packet still in flight at (or starting
/// after) `from_ns` is lost, in both directions, forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadLink {
    /// Wire index, in `NetworkBuilder::connect` call order (for the
    /// topology helpers: row-major, east wire before south wire).
    pub wire: usize,
    /// When the wire dies. `0` = dead at boot; routing layers treat
    /// boot-dead wires as absent and route around them.
    pub from_ns: u64,
}

/// A deterministic, seeded fault schedule for a whole network.
///
/// Rates are per *packet* (data and control frames alike), decided
/// independently per one-directional line from a stream derived from
/// `seed` and the line identity.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Probability a packet is silently lost.
    pub drop_rate: f64,
    /// Probability a packet suffers a single-bit flip. A flipped start
    /// bit loses the frame (the receiver never syncs); any other flip
    /// is detected by parity/framing and the frame is discarded.
    pub corrupt_rate: f64,
    /// Probability a delivered packet is stretched by clock jitter.
    pub jitter_rate: f64,
    /// Wires that die at a given time.
    pub dead: Vec<DeadLink>,
}

impl FaultPlan {
    /// A plan where drop, corrupt and jitter all happen at `rate`.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_rate: rate,
            corrupt_rate: rate,
            jitter_rate: rate,
            dead: Vec::new(),
        }
    }

    /// Add a dead wire to the plan.
    #[must_use]
    pub fn with_dead_link(mut self, wire: usize, from_ns: u64) -> FaultPlan {
        self.dead.push(DeadLink { wire, from_ns });
        self
    }

    /// When (if ever) `wire` dies.
    pub fn dead_from(&self, wire: usize) -> Option<u64> {
        self.dead
            .iter()
            .filter(|d| d.wire == wire)
            .map(|d| d.from_ns)
            .min()
    }

    /// The fault stream for one one-directional line of one wire.
    /// `dir` is the transmitting end index (0 or 1).
    pub fn line_faults(&self, wire: usize, dir: usize) -> LineFaults {
        let id = (wire as u64) << 1 | (dir as u64 & 1);
        LineFaults {
            rng: Xorshift64::new(splitmix64(self.seed ^ splitmix64(id))),
            drop_rate: self.drop_rate,
            corrupt_rate: self.corrupt_rate,
            jitter_rate: self.jitter_rate,
            counts: LineFaultCounts::default(),
        }
    }
}

/// What happens to one transmitted packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered intact, `extra_ns` late (clock jitter stretching the
    /// frame; the line stays busy for the stretched duration).
    Deliver {
        /// Extra nanoseconds beyond the nominal frame time.
        extra_ns: u64,
    },
    /// A detectable single-bit flip: the receiver sees a corrupt frame
    /// and discards it.
    Garble,
    /// Silent loss (dropped outright, or the start bit itself flipped).
    Lose,
}

/// Cumulative fault counters for one line (diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineFaultCounts {
    /// Packets whose fate was drawn.
    pub packets: u64,
    /// Packets silently lost.
    pub dropped: u64,
    /// Packets garbled (detectably corrupted).
    pub garbled: u64,
    /// Packets delivered late.
    pub jittered: u64,
}

/// The per-line fault stream: one RNG plus the plan rates.
#[derive(Debug, Clone)]
pub struct LineFaults {
    rng: Xorshift64,
    drop_rate: f64,
    corrupt_rate: f64,
    jitter_rate: f64,
    counts: LineFaultCounts,
}

impl LineFaults {
    /// Draw the fate of the next packet on this line. Always consumes
    /// exactly four RNG draws, so the stream stays aligned whatever is
    /// decided. `frame_bits` is the nominal frame length (for picking
    /// the flipped bit) and `bit_ns` the configured bit time.
    pub fn next_fate(&mut self, frame_bits: u32, bit_ns: u64) -> Fate {
        let r_fate = self.rng.next_f64();
        let r_bit = self.rng.next_u64();
        let r_jitter = self.rng.next_f64();
        let r_jbits = self.rng.next_u64();
        self.counts.packets += 1;
        if r_fate < self.drop_rate {
            self.counts.dropped += 1;
            return Fate::Lose;
        }
        if r_fate < self.drop_rate + self.corrupt_rate {
            let bit = r_bit % u64::from(frame_bits.max(1));
            if bit == 0 {
                // The start bit never arrived: the receiver sees nothing.
                self.counts.dropped += 1;
                return Fate::Lose;
            }
            self.counts.garbled += 1;
            return Fate::Garble;
        }
        if r_jitter < self.jitter_rate {
            let extra = r_jbits % u64::from(crate::packet::JITTER_BITS_MAX) + 1;
            self.counts.jittered += 1;
            return Fate::Deliver {
                extra_ns: extra * bit_ns,
            };
        }
        Fate::Deliver { extra_ns: 0 }
    }

    /// Counters so far.
    pub fn counts(&self) -> LineFaultCounts {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::uniform(42, 0.1);
        let mut a = plan.line_faults(3, 1);
        let mut b = plan.line_faults(3, 1);
        for _ in 0..1000 {
            assert_eq!(a.next_fate(13, 100), b.next_fate(13, 100));
        }
    }

    #[test]
    fn different_lines_differ() {
        let plan = FaultPlan::uniform(42, 0.5);
        let seq =
            |mut lf: LineFaults| -> Vec<Fate> { (0..64).map(|_| lf.next_fate(13, 100)).collect() };
        let a = seq(plan.line_faults(0, 0));
        let b = seq(plan.line_faults(0, 1));
        let c = seq(plan.line_faults(1, 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::uniform(7, 0.1);
        let mut lf = plan.line_faults(0, 0);
        for _ in 0..10_000 {
            lf.next_fate(13, 100);
        }
        let c = lf.counts();
        assert_eq!(c.packets, 10_000);
        // drop 10% plus ~1/13th of the corrupt 10% hit the start bit.
        let lost = c.dropped as f64 / 10_000.0;
        assert!(lost > 0.07 && lost < 0.14, "lost {lost}");
        let garbled = c.garbled as f64 / 10_000.0;
        assert!(garbled > 0.06 && garbled < 0.13, "garbled {garbled}");
        assert!(c.jittered > 0);
    }

    #[test]
    fn zero_rate_always_delivers_on_time() {
        let plan = FaultPlan::uniform(9, 0.0);
        let mut lf = plan.line_faults(2, 0);
        for _ in 0..256 {
            assert_eq!(lf.next_fate(11, 100), Fate::Deliver { extra_ns: 0 });
        }
    }

    #[test]
    fn jitter_only_ever_delays() {
        let plan = FaultPlan {
            jitter_rate: 1.0,
            ..FaultPlan::uniform(5, 0.0)
        };
        let mut lf = plan.line_faults(0, 0);
        for _ in 0..256 {
            match lf.next_fate(13, 100) {
                Fate::Deliver { extra_ns } => {
                    assert!((100..=400).contains(&extra_ns));
                }
                other => panic!("jitter produced {other:?}"),
            }
        }
    }

    #[test]
    fn dead_links_resolve_by_wire() {
        let plan = FaultPlan::uniform(1, 0.0)
            .with_dead_link(4, 0)
            .with_dead_link(7, 5_000);
        assert_eq!(plan.dead_from(4), Some(0));
        assert_eq!(plan.dead_from(7), Some(5_000));
        assert_eq!(plan.dead_from(3), None);
    }
}
