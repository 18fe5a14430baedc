//! Predecoded instruction cache with prefix fusion.
//!
//! Every instruction byte costs the interpreter a fetch, a nibble
//! split, and a 16-way dispatch — and a `pfix`/`nfix` chain pays that
//! per prefix byte. Real transputer programs re-execute the same code
//! constantly, so the emulator predecodes each operation *once* into a
//! fixed-size record (terminal function, fused operand, byte length)
//! and thereafter executes the whole chain from the record. This module
//! is the cache alone; the loop that executes from it is
//! `Cpu::run_predecoded` in `cpu/translate.rs`, shared with the
//! translation tier.
//!
//! The cache is an instrument of the host, invisible to the simulation:
//!
//! * **Timing** is charged exactly as the byte path charges it — one
//!   cycle per prefix byte (batched into a single `advance_time64`,
//!   legal because fusion only runs while both timer queues are empty,
//!   so no tick in the batch can wake or preempt anything), then the
//!   terminal's own cycles via the shared [`Cpu::exec_direct`].
//! * **Stats** count each byte (`instructions`) and the true encoded
//!   length (`record_operation`), exactly as before.
//! * **Invalidation** is write-gated on the memory side: a cache line
//!   snapshots its 64-byte block's generation counter, and any store
//!   landing in a block that holds cached code bumps the generation,
//!   so self-modifying code and boot loading re-decode naturally.
//! * **Bypass**: entries whose execution can interact mid-instruction —
//!   `j` (a timeslice point), `lend`, and the resumable long operations
//!   (block moves, messages, long arithmetic) — are recorded as bypass
//!   markers and always run through the byte-at-a-time path, as do
//!   entries outside penalty-free memory or abutting the slice budget.

use super::exec::link_channel_depth;
use crate::instr::{Direct, Op};
use crate::memory::{Memory, CODE_BLOCK_BYTES, CODE_BLOCK_SHIFT};
use crate::stats::Stats;
use crate::word::WordLength;

/// Longest byte chain the cache will fuse. Minimal encodings never
/// exceed `2 * bytes_per_word` bytes; longer (redundant) chains fall
/// back to the byte path.
const MAX_FUSED_LEN: u32 = 16;

/// Entry holds a decoded operation.
pub(crate) const F_VALID: u8 = 1;
/// Entry must execute through the byte-at-a-time path.
pub(crate) const F_BYPASS: u8 = 2;
/// Entry's byte chain spills into the next 64-byte block.
pub(crate) const F_SPANS: u8 = 4;
/// Entry is one of the operations that can act on a link channel
/// (`exec::link_channel_depth`): the fused loop checks it against the
/// link fence before executing it.
pub(crate) const F_LINK: u8 = 8;

/// One predecoded operation: the whole `pfix`/`nfix` chain plus its
/// terminal function, fused.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DecEntry {
    /// Fused operand (prefix chain folded in, as `oreg | data` would be).
    pub operand: u32,
    /// Terminal function nibble.
    pub fun: u8,
    /// Total encoded length in bytes, including prefixes.
    pub len: u8,
    /// `F_VALID` / `F_BYPASS` / `F_SPANS` / `F_LINK`.
    pub flags: u8,
}

/// Per-block bookkeeping flag: the block's entries have been filled at
/// least once (distinguishes a true invalidation from a cold line).
const B_FILLED: u8 = 1;
/// Per-block bookkeeping flag: some entry in the block carries
/// `F_SPANS`.
const B_HAS_SPANS: u8 = 2;

/// The per-processor decode cache: one entry per code byte in flat,
/// directly mapped storage (the memory offset *is* the key, so there
/// are no tags and no aliasing), plus per-64-byte-block generation
/// snapshots. Flat contiguous arrays keep the hit path to three dense
/// loads — sequential code walks sequential entries, so the host's own
/// cache prefetches them. Storage grows geometrically with the highest
/// code offset actually executed, so short-lived processors never pay
/// for the full address range.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodeCache {
    /// Decoded entries indexed by the operation's first-byte offset.
    entries: Vec<DecEntry>,
    /// Per-block generation observed when the block's entries filled;
    /// entries are stale whenever this differs from the memory side.
    gens: Vec<u32>,
    /// Per-block generation of the *next* block observed when a
    /// spilling entry filled; guards chains crossing the boundary.
    spill_gens: Vec<u32>,
    /// Per-block `B_FILLED` / `B_HAS_SPANS`.
    block_flags: Vec<u8>,
}

impl DecodeCache {
    pub(crate) fn new() -> DecodeCache {
        DecodeCache::default()
    }

    /// The decoded entry for the operation whose first byte is at
    /// memory offset `off` (`== mask(iptr - base)`, already checked
    /// `< fast_limit`), filling or refreshing it as needed. The hit
    /// path is branch-minimal and inlined into the fused loop; misses,
    /// growth, and invalidations take the cold path.
    #[inline(always)]
    pub(crate) fn entry_at(
        &mut self,
        mem: &mut Memory,
        stats: &mut Stats,
        word: WordLength,
        iptr: u32,
        off: usize,
    ) -> DecEntry {
        let block = off >> CODE_BLOCK_SHIFT;
        let e = match self.entries.get(off) {
            Some(&e) => e,
            None => return self.fill(mem, stats, word, iptr, off),
        };
        if e.flags & F_VALID != 0
            && self.gens[block] == mem.code_block_gen(block)
            && (e.flags & F_SPANS == 0 || self.spill_gens[block] == mem.code_block_gen(block + 1))
        {
            stats.decode_hits += 1;
            return e;
        }
        self.fill(mem, stats, word, iptr, off)
    }

    /// Cold path of [`DecodeCache::entry_at`]: grow the arrays to
    /// cover the block if needed, refresh the block's bookkeeping,
    /// decode the operation, and store the entry.
    #[cold]
    fn fill(
        &mut self,
        mem: &mut Memory,
        stats: &mut Stats,
        word: WordLength,
        iptr: u32,
        off: usize,
    ) -> DecEntry {
        let block = off >> CODE_BLOCK_SHIFT;
        if block >= self.gens.len() {
            // Double (at least) so growth cost amortises to O(1) per
            // block; new blocks arrive zeroed, i.e. all-invalid.
            let target = (block + 1).next_power_of_two().max(self.gens.len() * 2);
            self.entries
                .resize(target * CODE_BLOCK_BYTES, DecEntry::default());
            self.gens.resize(target, 0);
            self.spill_gens.resize(target, 0);
            self.block_flags.resize(target, 0);
        }
        if self.gens[block] != mem.code_block_gen(block) {
            // The block was written since its entries filled.
            if self.block_flags[block] & B_FILLED != 0 {
                stats.decode_invalidations += 1;
            }
            self.wipe_block(block);
            self.gens[block] = mem.code_block_gen(block);
        } else if self.entries[off].flags & (F_VALID | F_SPANS) == F_VALID | F_SPANS {
            // Reached on the hit path's spill mismatch: the
            // spilled-into block was written, so every spanning entry
            // in this block is suspect.
            stats.decode_invalidations += 1;
            self.wipe_spans(block);
        }
        stats.decode_misses += 1;
        let e = decode_entry(mem, word, iptr);
        self.entries[off] = e;
        self.block_flags[block] |= B_FILLED;
        mem.note_code_cached(block);
        if e.flags & F_SPANS != 0 {
            let next_gen = mem.code_block_gen(block + 1);
            if self.block_flags[block] & B_HAS_SPANS != 0 && self.spill_gens[block] != next_gen {
                // A previously observed next-block generation went
                // stale; older spanning entries must not survive under
                // the new spill_gen.
                self.wipe_spans(block);
                self.entries[off] = e;
            }
            self.spill_gens[block] = next_gen;
            self.block_flags[block] |= B_HAS_SPANS;
            mem.note_code_cached(block + 1);
        }
        e
    }

    fn block_entries(&mut self, block: usize) -> &mut [DecEntry] {
        &mut self.entries[block << CODE_BLOCK_SHIFT..][..CODE_BLOCK_BYTES]
    }

    fn wipe_block(&mut self, block: usize) {
        self.block_entries(block).fill(DecEntry::default());
        self.spill_gens[block] = 0;
        self.block_flags[block] &= !B_HAS_SPANS;
    }

    fn wipe_spans(&mut self, block: usize) {
        for e in self.block_entries(block) {
            if e.flags & F_SPANS != 0 {
                *e = DecEntry::default();
            }
        }
        self.block_flags[block] &= !B_HAS_SPANS;
    }
}

/// Decode one operation starting at `iptr` into a cache entry,
/// replaying the `pfix`/`nfix` operand construction of §3.2.7. Also
/// used by the translation tier (`cpu/translate.rs`) to walk a basic
/// block without touching this cache's storage.
pub(super) fn decode_entry(mem: &Memory, word: WordLength, iptr: u32) -> DecEntry {
    let base = word.most_neg();
    let start = word.mask(iptr.wrapping_sub(base)) as usize;
    let mut oreg: u32 = 0;
    let mut len: u32 = 0;
    loop {
        if len >= MAX_FUSED_LEN {
            return bypass_entry(len);
        }
        let addr = word.mask(iptr.wrapping_add(len));
        // Chains that wrap the address space or leave penalty-free
        // memory cannot be fused.
        if word.mask(addr.wrapping_sub(base)) as usize != start + len as usize {
            return bypass_entry(len + 1);
        }
        let byte = match mem.fetch_byte_fast(addr) {
            Some(b) => b,
            None => return bypass_entry(len + 1),
        };
        let fun = Direct::from_nibble(byte >> 4);
        let data = u32::from(byte & 0xF);
        len += 1;
        match fun {
            Direct::Prefix => oreg = word.mask((oreg | data) << 4),
            Direct::NegativePrefix => oreg = word.mask(!(oreg | data) << 4),
            _ => {
                let operand = oreg | data;
                let mut flags = F_VALID;
                if bypasses(fun, operand) {
                    flags |= F_BYPASS;
                } else if fun == Direct::Operate && link_channel_depth(operand).is_some() {
                    flags |= F_LINK;
                }
                if (start + len as usize - 1) >> CODE_BLOCK_SHIFT != start >> CODE_BLOCK_SHIFT {
                    flags |= F_SPANS;
                }
                return DecEntry {
                    operand,
                    fun: fun.nibble(),
                    len: len as u8,
                    flags,
                };
            }
        }
    }
}

fn bypass_entry(len: u32) -> DecEntry {
    DecEntry {
        operand: 0,
        fun: 0,
        len: len.min(u32::from(u8::MAX)) as u8,
        flags: F_VALID | F_BYPASS,
    }
}

/// Whether a decoded operation must run through the byte-at-a-time
/// path. Every legal operation — including timeslice points (`j`,
/// `lend`) and the operations that suspend into a [`super::Resume`]
/// continuation — executes through the same [`Cpu::exec_direct`] the
/// byte path uses, and the fused loop's post-execution checks hand any
/// descheduling, resumption, or interaction outcome straight back to
/// the outer loop. Only unknown opcodes bypass, so the slow path
/// raises the illegal-instruction fault with byte-exact state.
fn bypasses(fun: Direct, operand: u32) -> bool {
    fun == Direct::Operate && Op::from_code(operand).is_none()
}
