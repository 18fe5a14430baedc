//! Byte-addressed memory with the transputer's signed linear address
//! space (§3.2.2).
//!
//! Memory starts at the most negative integer ("MostNeg") and runs
//! upwards. The first words are reserved for the link channels, the event
//! channel and the timer queue pointers, exactly as on the first parts;
//! user memory begins at [`Memory::mem_start`]. The instruction
//! architecture does not differentiate between on-chip and off-chip
//! memory (§3.2.2); the emulator models the *timing* difference with a
//! per-access penalty that only the processor's own accesses pay.
//!
//! A node's memory costs what its program touches: the image is a low
//! (code) and a high (workspace) segment, zeroed, that grow on write; the
//! gap between them reads as zero. Data accesses test the high one first.

use crate::error::HaltReason;
use crate::word::WordLength;

/// Number of reserved words at the bottom of memory: 4 link output
/// channels, 4 link input channels, the event channel, two timer queue
/// pointers, and 7 further reserved words (mirroring the first parts'
/// layout, where the reserved area also shadows state during analyse).
pub const RESERVED_WORDS: u32 = 18;

/// Word offset of the first link output channel.
pub const LINK_OUT_BASE: u32 = 0;
/// Word offset of the first link input channel.
pub const LINK_IN_BASE: u32 = 4;
/// Word offset of the event channel.
pub const EVENT_CHANNEL: u32 = 8;
/// Word offset of the high-priority timer queue pointer (TPtrLoc0).
pub const TPTR_LOC: [u32; 2] = [9, 10];

/// Default on-chip memory of the T424: 4K bytes (§3.1).
pub const T424_ON_CHIP_BYTES: u32 = 4 * 1024;

/// Log2 of the code block size: the granularity of the translation
/// tier's write gate.
pub(crate) const CODE_BLOCK_SHIFT: usize = 6;
/// Bytes per code block.
pub(crate) const CODE_BLOCK_BYTES: usize = 1 << CODE_BLOCK_SHIFT;

/// Growth step of a segment. Every segment edge is a multiple of it or
/// the end of memory, so no aligned word straddles two segments.
const PAGE: usize = 1024;

/// Memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Bytes of on-chip memory (single-cycle access).
    pub on_chip_bytes: u32,
    /// Bytes of external memory appended above the on-chip block.
    pub off_chip_bytes: u32,
    /// Extra processor cycles charged per access falling in external
    /// memory. Zero reproduces the paper's on-chip figures.
    pub off_chip_penalty: u32,
}

impl MemoryConfig {
    /// The T424 with no external memory.
    pub fn t424() -> MemoryConfig {
        MemoryConfig {
            on_chip_bytes: T424_ON_CHIP_BYTES,
            off_chip_bytes: 0,
            off_chip_penalty: 0,
        }
    }

    /// A development configuration with generous external memory attached
    /// through a zero-wait-state interface.
    pub fn with_external(self, bytes: u32, penalty: u32) -> MemoryConfig {
        MemoryConfig {
            off_chip_bytes: bytes,
            off_chip_penalty: penalty,
            ..self
        }
    }
}

impl Default for MemoryConfig {
    fn default() -> Self {
        // Default to a comfortable development part: 4K on chip plus
        // 60K external with no penalty.
        MemoryConfig::t424().with_external(60 * 1024, 0)
    }
}

/// The memory of one transputer. Its timed accessors are the
/// processor's; the host writes through [`Memory::load`] and
/// `Cpu::poke_word` and reads through [`Memory::peek_word`] and
/// [`Memory::dump`], which accrue no off-chip penalty.
#[derive(Debug, Clone)]
pub struct Memory {
    word: WordLength,
    /// The low segment: offsets `0..lo.len()`.
    lo: Vec<u8>,
    /// The high segment: offsets `hi_base..size()`.
    hi: Vec<u8>,
    /// Offset of `hi[0]`; the gap `lo.len()..hi_base` reads as zero.
    hi_base: usize,
    on_chip_bytes: u32,
    off_chip_penalty: u32,
    /// Cycles accrued from off-chip accesses since last drained.
    penalty_accrued: u32,
    /// `lo.len()` capped at [`Memory::fast_limit`]: one compare a fetch.
    fast_lo: usize,
    /// Write gate, one flag per 64-byte block: armed while translated
    /// code covers the block, so ordinary data writes stay one branch.
    /// A write into an armed block disarms it and moves `code_epoch`.
    code_cached: Vec<bool>,
    /// Monotonic count of writes into translated code, anywhere. The
    /// translation tier compares it mid-block (a store into the running
    /// block deoptimises it) and at every block lookup (any move drops
    /// every translated block and disarms every gate).
    code_epoch: u64,
    /// A write landed in the reserved words (link channels, timer queue
    /// heads) since the flag was last taken. The CPU re-latches its
    /// timer queues' due ticks from it.
    reserved_dirty: bool,
    /// Byte size of the reserved region, precomputed.
    reserved_bytes: usize,
}

/// The little-endian machine word at the start of `bytes`.
#[inline]
fn get_word(word: WordLength, bytes: &[u8]) -> u32 {
    match word {
        WordLength::Bits32 => u32::from_le_bytes(*bytes.first_chunk().expect("a whole word")),
        WordLength::Bits16 => u32::from(u16::from_le_bytes([bytes[0], bytes[1]])),
    }
}

/// Store the (masked) machine word `v` at the start of `bytes`.
#[inline]
fn put_word(word: WordLength, bytes: &mut [u8], v: u32) {
    match word {
        WordLength::Bits32 => bytes[..4].copy_from_slice(&v.to_le_bytes()),
        WordLength::Bits16 => bytes[..2].copy_from_slice(&(v as u16).to_le_bytes()),
    }
}

impl Memory {
    /// Create a memory for the given word length: free until written.
    pub fn new(word: WordLength, config: MemoryConfig) -> Memory {
        let total = (config.on_chip_bytes + config.off_chip_bytes) as usize;
        let blocks = total.div_ceil(CODE_BLOCK_BYTES);
        Memory {
            word,
            lo: Vec::new(),
            hi: Vec::new(),
            hi_base: total,
            on_chip_bytes: config.on_chip_bytes,
            off_chip_penalty: config.off_chip_penalty,
            penalty_accrued: 0,
            fast_lo: 0,
            code_cached: vec![false; blocks],
            code_epoch: 0,
            reserved_dirty: true,
            reserved_bytes: (RESERVED_WORDS * word.bytes_per_word()) as usize,
        }
    }

    /// The word length this memory serves.
    pub fn word_length(&self) -> WordLength {
        self.word
    }

    /// Total bytes of memory.
    pub fn size(&self) -> u32 {
        (self.hi_base + self.hi.len()) as u32
    }

    /// Bytes of the image writes have materialised, at most `size()`.
    pub fn resident_bytes(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    /// Lowest address: MostNeg.
    pub fn base(&self) -> u32 {
        self.word.most_neg()
    }

    /// First address available to programs, above the reserved words.
    pub fn mem_start(&self) -> u32 {
        self.word.mask(
            self.base()
                .wrapping_add(RESERVED_WORDS * self.word.bytes_per_word()),
        )
    }

    /// One-past-the-last valid address.
    pub fn limit(&self) -> u32 {
        self.word.mask(self.base().wrapping_add(self.size()))
    }

    /// Address of a reserved word (link channel, timer pointer).
    pub fn reserved_addr(&self, word_offset: u32) -> u32 {
        self.word.index_word(self.base(), word_offset)
    }

    /// Whether `addr` denotes an external channel (a reserved link or
    /// event channel word). The `input message` and `output message`
    /// instructions "use the address of a channel to determine whether
    /// the channel is internal or external" (§3.2.10).
    pub fn is_external_channel(&self, addr: u32) -> bool {
        let off = self.word.mask(addr.wrapping_sub(self.base()));
        off < (EVENT_CHANNEL + 1) * self.word.bytes_per_word()
    }

    /// Classify an external channel address: `(link, is_output)`.
    /// Link 4 with `is_output == false` is the event channel.
    pub fn external_channel_id(&self, addr: u32) -> Option<(u32, bool)> {
        if !self.is_external_channel(addr) {
            return None;
        }
        let w = self.word.mask(addr.wrapping_sub(self.base())) / self.word.bytes_per_word();
        Some(if w < LINK_IN_BASE {
            (w, true)
        } else if w < EVENT_CHANNEL {
            (w - LINK_IN_BASE, false)
        } else {
            (4, false)
        })
    }

    #[inline]
    fn offset(&self, addr: u32) -> Result<usize, HaltReason> {
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        if off < self.size() as usize {
            Ok(off)
        } else {
            Err(HaltReason::MemoryFault { address: addr })
        }
    }

    /// The segment bytes from in-range `off` on; `None` in the gap.
    #[inline]
    fn held(&self, off: usize) -> Option<&[u8]> {
        if off < self.lo.len() {
            Some(&self.lo[off..])
        } else {
            (off >= self.hi_base).then(|| &self.hi[off - self.hi_base..])
        }
    }

    /// The segment bytes from `off` on, once `off..end` (in range) is
    /// materialised: the nearer segment grows over any of it in the gap,
    /// to a page edge and at least doubling, so copying stays linear.
    fn held_mut(&mut self, off: usize, end: usize) -> &mut [u8] {
        let (from, to) = (off.max(self.lo.len()), end.min(self.hi_base));
        if from < to && from - self.lo.len() <= self.hi_base - to {
            let len = to.max(2 * self.lo.len()).next_multiple_of(PAGE);
            let len = len.min(self.hi_base);
            self.lo.reserve_exact(len - self.lo.len());
            self.lo.resize(len, 0);
            self.fast_lo = len.min(self.fast_limit());
        } else if from < to {
            let size = self.size() as usize;
            let base = from.min(size.saturating_sub(2 * self.hi.len())) / PAGE * PAGE;
            let base = base.max(self.lo.len());
            let mut hi = vec![0; size - base];
            hi[self.hi_base - base..].copy_from_slice(&self.hi);
            (self.hi, self.hi_base) = (hi, base);
        }
        if off >= self.hi_base {
            &mut self.hi[off - self.hi_base..]
        } else {
            &mut self.lo[off..]
        }
    }

    #[inline]
    fn note_access(&mut self, off: usize) {
        if off >= self.on_chip_bytes as usize {
            self.penalty_accrued += self.off_chip_penalty;
        }
    }

    /// Drain the off-chip penalty cycles accrued since the last call.
    pub(crate) fn take_penalty_cycles(&mut self) -> u32 {
        std::mem::take(&mut self.penalty_accrued)
    }

    /// Write gate for the translation tier: move the code epoch on a
    /// write into a block that translated code covers, and flag writes
    /// into the reserved words.
    #[inline]
    fn note_write(&mut self, off: usize) {
        let b = off >> CODE_BLOCK_SHIFT;
        if self.code_cached[b] {
            self.code_cached[b] = false;
            self.code_epoch += 1;
        }
        if off < self.reserved_bytes {
            self.reserved_dirty = true;
        }
    }

    /// [`Memory::note_write`] over a byte range (bulk loads).
    fn note_write_range(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = off >> CODE_BLOCK_SHIFT;
        let last = (off + len - 1) >> CODE_BLOCK_SHIFT;
        for b in first..=last {
            if self.code_cached[b] {
                self.code_cached[b] = false;
                self.code_epoch += 1;
            }
        }
        if off < self.reserved_bytes {
            self.reserved_dirty = true;
        }
    }

    /// Mark a block as covered by translated code, arming the write gate.
    #[inline]
    pub(crate) fn note_code_cached(&mut self, block: usize) {
        self.code_cached[block] = true;
    }

    /// Global write-into-translated-code epoch (see the field's docs).
    #[inline]
    pub(crate) fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Disarm every write gate: no translated code is left.
    pub(crate) fn disarm_code(&mut self) {
        self.code_cached.fill(false);
    }

    /// Number of 64-byte code blocks tracked by the write gate.
    #[inline]
    pub(crate) fn code_blocks(&self) -> usize {
        self.code_cached.len()
    }

    /// Take the reserved-words-written flag.
    #[inline]
    pub(crate) fn take_reserved_dirty(&mut self) -> bool {
        // Checked on the hot path: branch on the common (clean) case
        // rather than storing `false` unconditionally.
        if self.reserved_dirty {
            self.reserved_dirty = false;
            true
        } else {
            false
        }
    }

    /// One past the highest offset [`Memory::fetch_byte_fast`] serves.
    #[inline]
    pub(crate) fn fast_limit(&self) -> usize {
        if self.off_chip_penalty == 0 {
            self.size() as usize
        } else {
            self.on_chip_bytes as usize
        }
    }

    /// Read a machine word. The address is word-aligned first, as on the
    /// hardware.
    #[inline]
    pub(crate) fn read_word(&mut self, addr: u32) -> Result<u32, HaltReason> {
        let addr = self.word.align_word(addr);
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        // Workspaces first: this one compare is also the bounds check.
        let h = off.wrapping_sub(self.hi_base);
        if h < self.hi.len() {
            self.note_access(off);
            return Ok(get_word(self.word, &self.hi[h..]));
        }
        self.read_cold(addr, self.word.bytes_per_word() as usize)
    }

    /// A read of `n` bytes outside the high segment.
    #[cold]
    #[inline(never)]
    fn read_cold(&mut self, addr: u32, n: usize) -> Result<u32, HaltReason> {
        let off = self.offset(addr)?;
        self.note_access(off);
        let mut le = [0; 4];
        le[..n].copy_from_slice(&self.held(off).unwrap_or(&[0; 4])[..n]);
        Ok(u32::from_le_bytes(le))
    }

    /// Write a machine word (address word-aligned first).
    #[inline]
    pub(crate) fn write_word(&mut self, addr: u32, value: u32) -> Result<(), HaltReason> {
        let addr = self.word.align_word(addr);
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        let v = self.word.mask(value);
        let h = off.wrapping_sub(self.hi_base);
        if h < self.hi.len() {
            self.note_access(off);
            self.note_write(off);
            put_word(self.word, &mut self.hi[h..], v);
            return Ok(());
        }
        self.write_cold(addr, self.word.bytes_per_word() as usize, v)
    }

    /// A write of the low `n` bytes of `v` outside the high segment.
    #[cold]
    #[inline(never)]
    fn write_cold(&mut self, addr: u32, n: usize, v: u32) -> Result<(), HaltReason> {
        let off = self.offset(addr)?;
        self.note_access(off);
        self.note_write(off);
        self.held_mut(off, off + n)[..n].copy_from_slice(&v.to_le_bytes()[..n]);
        Ok(())
    }

    /// Write a machine word as [`Memory::write_word`] does, the write
    /// gate and the reserved-words flag included, but accrue no off-chip
    /// penalty: a host-side write moves no simulated time.
    #[inline]
    pub(crate) fn poke_word(&mut self, addr: u32, value: u32) -> Result<(), HaltReason> {
        let accrued = self.penalty_accrued;
        let written = self.write_word(addr, value);
        self.penalty_accrued = accrued;
        written
    }

    /// Instruction-fetch fast path: read one byte with neither `Result`
    /// plumbing nor penalty bookkeeping. Returns `None` when the address
    /// is out of range or would accrue an off-chip penalty, in which case
    /// the caller must fall back to [`Memory::read_byte`].
    #[inline]
    pub(crate) fn fetch_byte_fast(&self, addr: u32) -> Option<u8> {
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        if off < self.fast_lo {
            Some(self.lo[off])
        } else {
            self.fetch_byte_cold(off)
        }
    }

    #[cold]
    #[inline(never)]
    fn fetch_byte_cold(&self, off: usize) -> Option<u8> {
        (off < self.fast_limit()).then(|| self.held(off).map_or(0, |bytes| bytes[0]))
    }

    /// Read one byte without timing effects, `None` out of range.
    pub(crate) fn peek_byte(&self, addr: u32) -> Option<u8> {
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        (off < self.size() as usize).then(|| self.held(off).map_or(0, |bytes| bytes[0]))
    }

    /// Read one byte.
    #[inline]
    pub(crate) fn read_byte(&mut self, addr: u32) -> Result<u8, HaltReason> {
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        if let Some(&byte) = self.hi.get(off.wrapping_sub(self.hi_base)) {
            self.note_access(off);
            return Ok(byte);
        }
        self.read_cold(self.word.mask(addr), 1).map(|v| v as u8)
    }

    /// Write one byte.
    #[inline]
    pub(crate) fn write_byte(&mut self, addr: u32, value: u8) -> Result<(), HaltReason> {
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        if let Some(byte) = self.hi.get_mut(off.wrapping_sub(self.hi_base)) {
            *byte = value;
            self.note_access(off);
            self.note_write(off);
            return Ok(());
        }
        self.write_cold(self.word.mask(addr), 1, value.into())
    }

    /// Bulk load bytes (no timing effects): program loading, test setup.
    pub fn load(&mut self, addr: u32, data: &[u8]) -> Result<(), HaltReason> {
        let off = self.offset(addr)?;
        let end = off + data.len();
        if end > self.size() as usize {
            return Err(HaltReason::MemoryFault {
                address: addr.wrapping_add(data.len() as u32),
            });
        }
        self.note_write_range(off, data.len());
        // What lies in the high segment already stays there.
        let (low, high) = data.split_at(self.hi_base.clamp(off, end) - off);
        for (at, part) in [(off, low), (off + low.len(), high)] {
            if !part.is_empty() {
                self.held_mut(at, at + part.len())[..part.len()].copy_from_slice(part);
            }
        }
        Ok(())
    }

    /// Read a machine word without timing effects (observer access for
    /// harnesses; does not accrue off-chip penalties).
    pub fn peek_word(&self, addr: u32) -> Result<u32, HaltReason> {
        let addr = self.word.align_word(addr);
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        if off + self.word.bytes_per_word() as usize > self.size() as usize {
            return Err(HaltReason::MemoryFault { address: addr });
        }
        Ok(self.held(off).map_or(0, |bytes| get_word(self.word, bytes)))
    }

    /// Bulk read bytes (no timing effects): result extraction in tests.
    pub fn dump(&self, addr: u32, len: usize) -> Result<Vec<u8>, HaltReason> {
        let off = self.word.mask(addr.wrapping_sub(self.base())) as usize;
        let end = off + len;
        if end > self.size() as usize {
            return Err(HaltReason::MemoryFault { address: addr });
        }
        let mut image = vec![0; len];
        for (segment, base) in [(&self.lo, 0), (&self.hi, self.hi_base)] {
            let (from, to) = (off.max(base), end.min(base + segment.len()));
            if from < to {
                image[from - off..to - off].copy_from_slice(&segment[from - base..to - base]);
            }
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mem32() -> Memory {
        Memory::new(WordLength::Bits32, MemoryConfig::t424())
    }

    #[test]
    fn word_roundtrip_little_endian() {
        let mut m = mem32();
        let a = m.mem_start();
        m.write_word(a, 0x1234_5678).unwrap();
        assert_eq!(m.read_word(a).unwrap(), 0x1234_5678);
        assert_eq!(m.read_byte(a).unwrap(), 0x78); // little-endian bytes
        assert_eq!(m.read_byte(a + 3).unwrap(), 0x12);
    }

    #[test]
    fn unaligned_word_access_aligns() {
        let mut m = mem32();
        let a = m.mem_start();
        m.write_word(a, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_word(a + 3).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn mem_start_is_18_words_up() {
        let m = mem32();
        assert_eq!(m.mem_start(), 0x8000_0048);
        let m16 = Memory::new(WordLength::Bits16, MemoryConfig::t424());
        assert_eq!(m16.mem_start(), 0x8000 + 36);
    }

    #[test]
    fn external_channel_classification() {
        let m = mem32();
        // Link 0 output channel at MostNeg.
        assert!(m.is_external_channel(0x8000_0000));
        assert_eq!(m.external_channel_id(0x8000_0000), Some((0, true)));
        // Link 2 input channel.
        assert_eq!(m.external_channel_id(m.reserved_addr(6)), Some((2, false)));
        // Event channel.
        assert_eq!(m.external_channel_id(m.reserved_addr(8)), Some((4, false)));
        // First user word is internal.
        assert_eq!(m.external_channel_id(m.mem_start()), None);
        assert!(!m.is_external_channel(m.mem_start()));
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = mem32();
        let past_end = m.limit();
        assert!(matches!(
            m.read_word(past_end),
            Err(HaltReason::MemoryFault { .. })
        ));
        assert!(m.write_byte(past_end, 1).is_err());
        // Positive addresses are far outside a 4K part.
        assert!(m.read_word(0x0000_0000).is_err());
    }

    #[test]
    fn off_chip_penalty_accrues() {
        let cfg = MemoryConfig::t424().with_external(4096, 3);
        let mut m = Memory::new(WordLength::Bits32, cfg);
        let external = m.base().wrapping_add(T424_ON_CHIP_BYTES);
        m.read_word(external).unwrap();
        m.write_word(external + 4, 1).unwrap();
        assert_eq!(m.take_penalty_cycles(), 6);
        assert_eq!(m.take_penalty_cycles(), 0);
        // On-chip accesses are free.
        let on = m.mem_start();
        m.read_word(on).unwrap();
        assert_eq!(m.take_penalty_cycles(), 0);
    }

    #[test]
    fn load_and_dump() {
        let mut m = mem32();
        let a = m.mem_start();
        m.load(a, &[1, 2, 3, 4, 5]).unwrap();
        assert_eq!(m.dump(a, 5).unwrap(), vec![1, 2, 3, 4, 5]);
    }

    /// The translation tier keeps a block only while the code epoch
    /// stands still (`cpu/translate.rs`), which is sound only if every
    /// write path moves the epoch when it touches an armed 64-byte block
    /// (and disarms that block), and data writes elsewhere leave both
    /// alone. Every path, over armed and unarmed blocks, in an arbitrary
    /// but fixed order.
    #[test]
    fn a_write_moves_the_epoch_exactly_when_it_touches_armed_code() {
        let mut m = mem32();
        let (base, size) = (m.base(), m.size());
        let mut seed = 0x1985_u32;
        let mut next = |bound: u32| {
            seed = seed.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (seed >> 8) % bound
        };
        let (mut moved, mut still) = (0, 0);
        for step in 0..4_000 {
            if next(3) != 0 {
                m.note_code_cached(next(size) as usize >> CODE_BLOCK_SHIFT);
            }
            let (armed, epoch) = (m.code_cached.clone(), m.code_epoch());
            let addr = base + next(size);
            let off = (addr - base) as usize;
            // The byte range the write touches.
            let touched = match step % 4 {
                0 => {
                    m.write_word(addr, step).unwrap();
                    off & !3..(off & !3) + 4
                }
                1 => {
                    m.write_byte(addr, step as u8).unwrap();
                    off..off + 1
                }
                2 => {
                    let len = next(3 * CODE_BLOCK_BYTES as u32).min(size - (addr - base));
                    m.load(addr, &vec![step as u8; len as usize]).unwrap();
                    off..off + len as usize
                }
                _ => {
                    assert!(m.load(base + size, &[0]).is_err());
                    0..0
                }
            };
            let mut expect = armed.clone();
            if !touched.is_empty() {
                let blocks =
                    touched.start >> CODE_BLOCK_SHIFT..=(touched.end - 1) >> CODE_BLOCK_SHIFT;
                expect[blocks].fill(false);
            }
            assert_eq!(m.code_cached, expect, "step {step}: the gates");
            if expect != armed {
                assert_ne!(m.code_epoch(), epoch, "step {step}: armed code written");
                moved += 1;
            } else {
                assert_eq!(m.code_epoch(), epoch, "step {step}: only data written");
                still += 1;
            }
        }
        assert!(moved > 100 && still > 100, "both cases: {moved} / {still}");
    }

    #[test]
    fn reserved_dirty_tracks_reserved_writes() {
        let mut m = mem32();
        assert!(m.take_reserved_dirty(), "starts dirty");
        assert!(!m.take_reserved_dirty());
        m.write_word(m.reserved_addr(TPTR_LOC[0]), 7).unwrap();
        assert!(m.take_reserved_dirty());
        m.write_word(m.mem_start(), 7).unwrap();
        assert!(!m.take_reserved_dirty(), "user writes do not flag");
    }

    #[test]
    fn word16_masking() {
        let mut m = Memory::new(WordLength::Bits16, MemoryConfig::t424());
        let a = m.mem_start();
        m.write_word(a, 0xFFFF_1234).unwrap();
        assert_eq!(m.read_word(a).unwrap(), 0x1234);
    }

    /// The flat image [`Memory`] replaces, as it was: one zeroed byte per
    /// address. Every observable of the segmented memory must be this
    /// one's.
    struct Flat {
        word: WordLength,
        bytes: Vec<u8>,
        on_chip: usize,
        penalty: u32,
        accrued: u32,
        code_cached: Vec<bool>,
        code_epoch: u64,
        reserved_dirty: bool,
        reserved_bytes: usize,
    }

    impl Flat {
        fn new(word: WordLength, config: MemoryConfig) -> Flat {
            let total = (config.on_chip_bytes + config.off_chip_bytes) as usize;
            Flat {
                word,
                bytes: vec![0; total],
                on_chip: config.on_chip_bytes as usize,
                penalty: config.off_chip_penalty,
                accrued: 0,
                code_cached: vec![false; total.div_ceil(CODE_BLOCK_BYTES)],
                code_epoch: 0,
                reserved_dirty: true,
                reserved_bytes: (RESERVED_WORDS * word.bytes_per_word()) as usize,
            }
        }

        fn off(&self, addr: u32) -> usize {
            self.word.mask(addr.wrapping_sub(self.word.most_neg())) as usize
        }

        fn offset(&self, addr: u32) -> Result<usize, HaltReason> {
            let off = self.off(addr);
            match off < self.bytes.len() {
                true => Ok(off),
                false => Err(HaltReason::MemoryFault { address: addr }),
            }
        }

        fn access(&mut self, off: usize) {
            if off >= self.on_chip {
                self.accrued += self.penalty;
            }
        }

        fn written(&mut self, off: usize, len: usize) {
            for b in off >> CODE_BLOCK_SHIFT..=(off + len - 1) >> CODE_BLOCK_SHIFT {
                if std::mem::take(&mut self.code_cached[b]) {
                    self.code_epoch += 1;
                }
            }
            self.reserved_dirty |= off < self.reserved_bytes;
        }

        fn word_at(&self, off: usize) -> u32 {
            let n = self.word.bytes_per_word() as usize;
            let bytes = self.bytes[off..off + n].iter().rev();
            bytes.fold(0, |v, &b| v << 8 | u32::from(b))
        }

        fn read_word(&mut self, addr: u32) -> Result<u32, HaltReason> {
            let off = self.offset(self.word.align_word(addr))?;
            self.access(off);
            Ok(self.word_at(off))
        }

        fn write_word(&mut self, addr: u32, value: u32) -> Result<(), HaltReason> {
            let off = self.offset(self.word.align_word(addr))?;
            self.access(off);
            self.written(off, 1);
            let n = self.word.bytes_per_word() as usize;
            let value = self.word.mask(value).to_le_bytes();
            self.bytes[off..off + n].copy_from_slice(&value[..n]);
            Ok(())
        }

        fn poke_word(&mut self, addr: u32, value: u32) -> Result<(), HaltReason> {
            let off = self.offset(self.word.align_word(addr))?;
            self.written(off, 1);
            let n = self.word.bytes_per_word() as usize;
            let value = self.word.mask(value).to_le_bytes();
            self.bytes[off..off + n].copy_from_slice(&value[..n]);
            Ok(())
        }

        fn read_byte(&mut self, addr: u32) -> Result<u8, HaltReason> {
            let off = self.offset(self.word.mask(addr))?;
            self.access(off);
            Ok(self.bytes[off])
        }

        fn write_byte(&mut self, addr: u32, value: u8) -> Result<(), HaltReason> {
            let off = self.offset(self.word.mask(addr))?;
            self.access(off);
            self.written(off, 1);
            self.bytes[off] = value;
            Ok(())
        }

        fn load(&mut self, addr: u32, data: &[u8]) -> Result<(), HaltReason> {
            let off = self.offset(addr)?;
            if off + data.len() > self.bytes.len() {
                let address = addr.wrapping_add(data.len() as u32);
                return Err(HaltReason::MemoryFault { address });
            }
            if !data.is_empty() {
                self.written(off, data.len());
            }
            self.bytes[off..off + data.len()].copy_from_slice(data);
            Ok(())
        }

        fn peek_word(&self, addr: u32) -> Result<u32, HaltReason> {
            let addr = self.word.align_word(addr);
            let off = self.off(addr);
            if off + self.word.bytes_per_word() as usize > self.bytes.len() {
                return Err(HaltReason::MemoryFault { address: addr });
            }
            Ok(self.word_at(off))
        }

        fn dump(&self, addr: u32, len: usize) -> Result<Vec<u8>, HaltReason> {
            let off = self.off(addr);
            let bytes = self.bytes.get(off..off + len);
            bytes
                .map(<[u8]>::to_vec)
                .ok_or(HaltReason::MemoryFault { address: addr })
        }

        fn fetch_byte_fast(&self, addr: u32) -> Option<u8> {
            let fast = if self.penalty == 0 {
                self.bytes.len()
            } else {
                self.on_chip
            };
            let off = self.off(addr);
            (off < fast).then(|| self.bytes[off])
        }

        fn peek_byte(&self, addr: u32) -> Option<u8> {
            self.bytes.get(self.off(addr)).copied()
        }

        fn take_reserved_dirty(&mut self) -> bool {
            std::mem::take(&mut self.reserved_dirty)
        }
    }

    /// Both word lengths, the bare T424, the default part, a size that is
    /// not a page multiple (nor its on-chip block), and off-chip penalties.
    fn oracle_configs() -> [(WordLength, MemoryConfig); 5] {
        let odd = MemoryConfig {
            on_chip_bytes: 1000,
            off_chip_bytes: 3002,
            off_chip_penalty: 2,
        };
        [
            (WordLength::Bits32, MemoryConfig::default()),
            (WordLength::Bits16, MemoryConfig::default()),
            (WordLength::Bits32, MemoryConfig::t424()),
            (
                WordLength::Bits32,
                MemoryConfig::t424().with_external(2052, 3),
            ),
            (WordLength::Bits16, odd),
        ]
    }

    /// An address from `a`: among the reserved words and code, among the
    /// workspaces at the top, beside a page edge (where segments end),
    /// anywhere (a little past the end too), or wild.
    fn oracle_address(m: &Memory, a: u32) -> u32 {
        let size = m.size();
        let off = match a % 5 {
            0 => a / 5 % 2048,
            1 => size.saturating_sub(2048) + a / 5 % 2048,
            2 => ((a >> 8) % (size / PAGE as u32 + 1) * PAGE as u32 + (a >> 3) % 8).wrapping_sub(4),
            3 => a / 5 % (size + 64),
            _ => a,
        };
        m.word_length().mask(m.base().wrapping_add(off))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Random sequences of every operation — word and byte accesses,
        /// loads and dumps that span both segments and the gap, observer
        /// reads and host writes, instruction fetch, armed write gates, out-of-range
        /// addresses — see the same values, faults, penalty cycles,
        /// gates, epoch and reserved-words flag as on the flat image,
        /// and never hold more than the logical size.
        #[test]
        fn segments_are_indistinguishable_from_the_flat_image(
            config in 0usize..5,
            steps in proptest::collection::vec(
                (0u32..12, any::<u32>(), any::<u32>()),
                1..160,
            ),
        ) {
            let (word, config) = oracle_configs()[config];
            let mut m = Memory::new(word, config);
            let mut f = Flat::new(word, config);
            let size = m.size() as usize;
            for (i, &(kind, a, b)) in steps.iter().enumerate() {
                macro_rules! same {
                    ($op:ident($($arg:expr),*)) => {{
                        let (got, want) = (m.$op($($arg),*), f.$op($($arg),*));
                        let op = stringify!($op);
                        prop_assert!(got == want, "step {i} {op}: {got:?} != {want:?}");
                    }};
                }
                let addr = oracle_address(&m, a);
                // Mostly short runs; one in eight up to the whole memory.
                let len = (b as usize >> 3) % if b & 7 == 0 { size + 16 } else { 300 };
                match kind {
                    0 => same!(read_word(addr)),
                    1 => same!(write_word(addr, b)),
                    2 => same!(read_byte(addr)),
                    3 => same!(write_byte(addr, b as u8)),
                    4 => {
                        let data: Vec<u8> = (0..len).map(|k| (b >> 8) as u8 ^ k as u8).collect();
                        same!(load(addr, &data));
                    }
                    5 => same!(dump(addr, len)),
                    6 => same!(peek_word(addr)),
                    7 => same!(fetch_byte_fast(addr)),
                    8 => same!(peek_byte(addr)),
                    9 => {
                        let block = a as usize % m.code_blocks();
                        m.note_code_cached(block);
                        f.code_cached[block] = true;
                    }
                    10 => same!(poke_word(addr, b)),
                    _ => same!(take_reserved_dirty()),
                }
                prop_assert_eq!(m.take_penalty_cycles(), std::mem::take(&mut f.accrued));
                prop_assert!(m.code_cached == f.code_cached, "step {}: the gates", i);
                prop_assert_eq!(m.code_epoch(), f.code_epoch);
                prop_assert_eq!(m.reserved_dirty, f.reserved_dirty);
                prop_assert!(m.resident_bytes() <= size, "step {}: {} resident", i, m.resident_bytes());
            }
            prop_assert!(m.dump(m.base(), size).unwrap() == f.bytes, "the images");
        }
    }
}
