//! Instruction timing formulas and constants (processor cycles).
//!
//! Every fixed per-instruction cost is a column of its row in
//! [`crate::instr`] ([`Direct::cycles`], [`Op::fixed_cycles`]). What
//! lives here is what a row cannot hold: the paper's formulae for the
//! variable-cost operations (multiply, divide, remainder, product,
//! shifts), communication (§3.2.10) and priority switching (§3.2.4), the
//! `cj` and `lend` branch costs, and the clocks. The paper's printed
//! figures are *asserted by the experiment suite*; timings the paper
//! does not print are taken from the first-generation (T414-era) family
//! documentation tradition and are plausible rather than asserted.
//!
//! All figures assume program and data on chip, as the paper's do
//! ("The figures given in this paper assume that program and data are
//! stored on chip", §3.2.1). Off-chip penalties are modelled separately
//! by [`crate::MemoryConfig::off_chip_penalty`].
//!
//! [`Direct::cycles`]: crate::instr::Direct::cycles
//! [`Op::fixed_cycles`]: crate::instr::Op::fixed_cycles

use crate::word::WordLength;

/// `cj` when A is zero and the jump is taken; falling through costs
/// the row's [`crate::instr::Direct::cycles`].
pub const CONDITIONAL_JUMP_TAKEN: u32 = 4;

/// Cycles of the `multiply` operation itself. The paper's table charges
/// the complete two-byte sequence (one prefix plus `operate`) at
/// "7 + wordlength" cycles (§3.2.9); the prefix contributes one of them.
pub fn multiply_cycles(word: WordLength) -> u32 {
    6 + word.bits()
}

/// Total cycles of the encoded multiply sequence, as the paper's table
/// states it: 7 + wordlength.
pub fn multiply_sequence_cycles(word: WordLength) -> u32 {
    multiply_cycles(word) + 1
}

/// Divide cost; the paper does not print it, modelled symmetrically with
/// multiply.
pub fn divide_cycles(word: WordLength) -> u32 {
    6 + word.bits()
}

/// Remainder cost.
pub fn remainder_cycles(word: WordLength) -> u32 {
    4 + word.bits()
}

/// `product` (quick unchecked multiply): "the time taken is proportional
/// to the logarithm of the second operand" (§3.2.9). Modelled as
/// 4 cycles plus the bit position of the most significant set bit of the
/// second operand.
pub fn product_cycles(b_operand: u32) -> u32 {
    let highest = 32 - b_operand.leading_zeros();
    4 + highest
}

/// Shift cost: `n + 2` cycles for a shift of `n` places.
pub fn shift_cycles(places: u32) -> u32 {
    places.min(64) + 2
}

/// `loop end` when the decremented count is still positive: write back
/// the control block, bump the index, and jump backwards.
pub const LOOP_END_TAKEN: u32 = 10;

/// `loop end` when the loop is exhausted and control falls through.
pub const LOOP_END_EXIT: u32 = 5;

/// Internal-channel communication, total across both participating
/// processes including scheduling overhead (§3.2.10):
/// `max(24, 21 + 8n / wordlength)` cycles for an `n`-byte message.
///
/// The cost is split between the first-ready process (which must wait)
/// and the second-ready process (which performs the copy):
/// [`COMM_FIRST_PARTY`] cycles for the waiter and
/// `max(12, 9 + copy)` for the mover, where `copy` is one cycle per word
/// moved.
pub fn comm_total_cycles(n_bytes: u32, word: WordLength) -> u32 {
    let copy = copy_cycles(n_bytes, word);
    (21 + copy).max(24)
}

/// Cycles charged to the first-ready (waiting) side of a communication.
pub const COMM_FIRST_PARTY: u32 = 12;

/// Cycles charged to the second-ready (data-moving) side of an internal
/// communication of `n` bytes.
pub fn comm_second_party_cycles(n_bytes: u32, word: WordLength) -> u32 {
    (9 + copy_cycles(n_bytes, word)).max(COMM_FIRST_PARTY)
}

/// The microcoded block copy moves one word per cycle: `8n / wordlength`
/// cycles, rounded up (§3.2.10 formula).
pub fn copy_cycles(n_bytes: u32, word: WordLength) -> u32 {
    (8 * n_bytes).div_ceil(word.bits())
}

/// Cycles to initiate an external (link) transfer and deschedule; the
/// link engine then runs autonomously.
pub const LINK_INITIATE: u32 = 20;

/// Cycles to reschedule a process when its link transfer completes.
pub const LINK_COMPLETE: u32 = 4;

/// Fixed cost of the low-to-high priority switch machinery itself; on top
/// of this the processor may first have to finish (a bounded chunk of)
/// the current instruction, which is what brings the worst case to the
/// paper's 58-cycle bound (§3.2.4).
pub const PRIORITY_RAISE_SWITCH: u32 = 19;

/// "The switch from priority 0 to priority 1 ... takes 17 cycles" (§3.2.4).
pub const PRIORITY_LOWER_SWITCH: u32 = 17;

/// The paper's bound: "the maximum time taken to switch from priority 1
/// to priority 0 is 58 cycles" (§3.2.4).
pub const PRIORITY_RAISE_MAX: u32 = 58;

/// Longest non-interruptible instruction permitted by the latency budget:
/// `PRIORITY_RAISE_MAX - PRIORITY_RAISE_SWITCH`.
pub const MAX_UNINTERRUPTIBLE: u32 = PRIORITY_RAISE_MAX - PRIORITY_RAISE_SWITCH;

/// High-priority clock period in processor cycles: 1 microsecond at the
/// nominal 20 MHz internal clock (§2.2.2 gives each priority its own
/// incrementing clock).
pub const HI_TICK_CYCLES: u64 = 20;

/// Low-priority clock period: 64 microseconds.
pub const LO_TICK_CYCLES: u64 = 64 * HI_TICK_CYCLES;

/// Nominal processor cycle time in nanoseconds (50 ns at 20 MHz, §3.2.4).
pub const CYCLE_NS: u64 = 50;

/// Low-priority timeslice period: a low-priority process yields at a
/// `jump` or `loop end` once it has run this long (two low-priority
/// clock periods).
pub const TIMESLICE_CYCLES: u64 = 2 * LO_TICK_CYCLES;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Direct, Op};

    #[test]
    fn paper_table_direct_costs() {
        // §3.2.6, §3.2.7 and §3.2.9 tables.
        assert_eq!(Direct::LoadConstant.cycles(), 1);
        assert_eq!(Direct::StoreLocal.cycles(), 1);
        assert_eq!(Direct::LoadLocal.cycles(), 2);
        assert_eq!(Direct::AddConstant.cycles(), 1);
        assert_eq!(Direct::StoreNonLocal.cycles(), 2);
        assert_eq!(Direct::Prefix.cycles(), 1);
    }

    #[test]
    fn multiply_matches_paper() {
        // §3.2.9: the 2-byte multiply sequence takes 7 + wordlength cycles.
        assert_eq!(multiply_sequence_cycles(WordLength::Bits32), 39);
        assert_eq!(multiply_sequence_cycles(WordLength::Bits16), 23);
    }

    #[test]
    fn comm_formula() {
        // §3.2.10: max(24, 21 + 8n/wordlength).
        let w = WordLength::Bits32;
        assert_eq!(comm_total_cycles(1, w), 24);
        assert_eq!(comm_total_cycles(4, w), 24);
        assert_eq!(comm_total_cycles(12, w), 24);
        assert_eq!(comm_total_cycles(16, w), 25);
        assert_eq!(comm_total_cycles(64, w), 37);
        let w16 = WordLength::Bits16;
        assert_eq!(comm_total_cycles(64, w16), 53);
    }

    #[test]
    fn split_sums_to_formula() {
        for n in 1..=256u32 {
            for w in [WordLength::Bits16, WordLength::Bits32] {
                assert_eq!(
                    COMM_FIRST_PARTY + comm_second_party_cycles(n, w),
                    comm_total_cycles(n, w),
                    "n={n} w={w}"
                );
            }
        }
    }

    #[test]
    fn product_is_logarithmic() {
        assert!(product_cycles(2) < product_cycles(1 << 20));
        assert_eq!(product_cycles(0), 4);
        assert_eq!(product_cycles(1), 5);
    }

    #[test]
    fn latency_budget() {
        assert_eq!(PRIORITY_RAISE_MAX, 58);
        assert_eq!(PRIORITY_LOWER_SWITCH, 17);
        assert!(MAX_UNINTERRUPTIBLE >= multiply_cycles(WordLength::Bits32));
    }

    #[test]
    fn fixed_table_covers_fixed_ops() {
        // Every op either has a fixed cost or is one of the documented
        // variable-cost operations, which this module prices.
        use Op::*;
        for op in Op::ALL {
            if op.fixed_cycles().is_none() {
                assert!(matches!(
                    op,
                    Product
                        | Normalise
                        | LongDivide
                        | Remainder
                        | LoopEnd
                        | TimerInput
                        | Divide
                        | LongMultiply
                        | LongShiftRight
                        | LongShiftLeft
                        | ShiftRight
                        | ShiftLeft
                        | AltWait
                        | Move
                        | TimerAltWait
                        | Multiply
                        | InputMessage
                        | OutputMessage
                        | OutputByte
                        | OutputWord
                ));
            }
        }
    }
}
