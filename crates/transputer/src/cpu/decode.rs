//! Fused decoding: one whole operation — its `pfix`/`nfix` chain and
//! its terminal function — decoded in one call.
//!
//! There are two CPU tiers: the byte path (`Cpu::exec_one`, the
//! reference) and the translation tier (`cpu/translate.rs`). This
//! module is the decoder of the second, and `build_block` is its only
//! caller: [`decode_entry`] is what a hot leader's basic block is
//! walked with, once, when it is translated. It is a pure function of
//! memory. Nothing it returns is stored outside a translated block, so
//! there is no cache of decoded operations to go stale; code that is
//! not in a block runs on the byte path, which reads each byte as it
//! executes it, so cold self-modifying code is right by construction.
//! A memo would be filled and never read — a leader is translated on
//! its second arrival, so warm code is in a block before it could hit
//! (DESIGN §7 has the counts).
//!
//! An operation the decoder refuses (`None`) is one no block can start
//! with or hold: an unknown operation, or a chain that is over-long or
//! runs past the end of memory. Such code runs on the byte path.

use super::exec::link_channel_depth;
use crate::instr::{Direct, Op};
use crate::memory::Memory;
use crate::word::Width;

/// Longest byte chain fused into one entry. Minimal encodings never
/// exceed `2 * bytes_per_word` bytes; longer (redundant) chains fall
/// back to the byte path.
const MAX_FUSED_LEN: u32 = 16;

/// One decoded operation: the whole `pfix`/`nfix` chain plus its
/// terminal function, fused.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecEntry {
    /// Fused operand (prefix chain folded in, as `oreg | data` would be).
    pub operand: u32,
    /// Terminal function nibble.
    pub fun: u8,
    /// Total encoded length in bytes, including prefixes.
    pub len: u8,
    /// One of the operations that can act on a link channel
    /// (`exec::link_channel_depth`): its block checks it against the
    /// link fence before executing it.
    pub link: bool,
}

/// Decode one operation starting at `iptr`, replaying the `pfix`/`nfix`
/// operand construction of §3.2.7. `None` ends the block before it,
/// leaving the operation to the byte path: a chain that is over-long,
/// wraps the address space or runs past the end of memory cannot be
/// fused, and an unknown operation must raise its illegal-instruction
/// fault with byte-exact state. Every legal operation — including
/// timeslice points (`j`, `lend`) and the operations that suspend into
/// a [`super::Resume`] continuation — runs in its block through the
/// same [`Cpu::exec_direct`] the byte path uses, and the block's
/// post-operation checks hand any descheduling, resumption, or
/// interaction outcome straight back to the slice loop.
pub(super) fn decode_entry<W: Width>(mem: &Memory, iptr: u32) -> Option<DecEntry> {
    let word = W::WORD;
    let base = word.most_neg();
    let start = word.mask(iptr.wrapping_sub(base)) as usize;
    let mut oreg: u32 = 0;
    for len in 0..MAX_FUSED_LEN {
        let addr = word.mask(iptr.wrapping_add(len));
        if word.mask(addr.wrapping_sub(base)) as usize != start + len as usize {
            return None;
        }
        let byte = mem.fetch_byte_fast::<W>(addr)?;
        let fun = Direct::from_nibble(byte >> 4);
        let data = u32::from(byte & 0xF);
        match fun {
            Direct::Prefix => oreg = word.mask((oreg | data) << 4),
            Direct::NegativePrefix => oreg = word.mask(!(oreg | data) << 4),
            _ => {
                let operand = oreg | data;
                let opr = fun == Direct::Operate;
                if opr && Op::from_code(operand).is_none() {
                    return None;
                }
                return Some(DecEntry {
                    operand,
                    fun: fun.nibble(),
                    len: len as u8 + 1,
                    link: opr && link_channel_depth(operand).is_some(),
                });
            }
        }
    }
    None
}
