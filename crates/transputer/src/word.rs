//! Word-length abstraction.
//!
//! The paper stresses *word-length independence*: "a program which
//! manipulates bytes, words and truth values can be translated into an
//! instruction sequence which behaves identically whatever the wordlength
//! of the processor executing it" (§3.3). The emulator is therefore
//! parametric over the machine word length. The first products were the
//! 32-bit T424 and the 16-bit T222; both are modelled.
//!
//! A part's word length is fixed when it is made, so the processor does
//! not decide it again per instruction: the executor is written once,
//! generic over the crate-private `Width`, and compiled twice (`W16`,
//! `W32`); `Cpu` picks the instantiation once at each entry that runs
//! it. The [`WordLength`] methods below stay the one statement of every
//! word rule; the instantiations only make their argument a constant.
//!
//! Machine words are carried in `u32` containers. In 16-bit mode only the
//! low 16 bits are significant and every write masks to width. Pointers
//! are signed values running from the most negative integer ("MostNeg",
//! the bottom of memory) through zero to the most positive integer, so the
//! ordinary signed comparison instructions work on pointers (§3.2.2).

use std::fmt;

/// Machine word length of a transputer model.
///
/// # Examples
///
/// ```
/// use transputer::WordLength;
///
/// let w = WordLength::Bits32;
/// assert_eq!(w.bytes_per_word(), 4);
/// assert_eq!(w.most_neg(), 0x8000_0000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordLength {
    /// 16-bit parts (the T222 of the paper).
    Bits16,
    /// 32-bit parts (the T424 of the paper).
    Bits32,
}

impl WordLength {
    /// Number of bits in a machine word.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            WordLength::Bits16 => 16,
            WordLength::Bits32 => 32,
        }
    }

    /// Number of bytes in a machine word.
    #[inline]
    pub fn bytes_per_word(self) -> u32 {
        self.bits() / 8
    }

    /// Number of byte-selector bits in a pointer (§3.2.2): 1 for a 16-bit
    /// part, 2 for a 32-bit part.
    #[inline]
    pub fn byte_select_bits(self) -> u32 {
        match self {
            WordLength::Bits16 => 1,
            WordLength::Bits32 => 2,
        }
    }

    /// Mask selecting the byte-selector bits of a pointer.
    #[inline]
    pub fn byte_select_mask(self) -> u32 {
        self.bytes_per_word() - 1
    }

    /// Mask selecting the significant bits of a word.
    #[inline]
    pub fn value_mask(self) -> u32 {
        match self {
            WordLength::Bits16 => 0xFFFF,
            WordLength::Bits32 => 0xFFFF_FFFF,
        }
    }

    /// The most negative integer: the bottom of the address space, the
    /// `NotProcess` marker, and the `mint` instruction's result.
    #[inline]
    pub fn most_neg(self) -> u32 {
        match self {
            WordLength::Bits16 => 0x8000,
            WordLength::Bits32 => 0x8000_0000,
        }
    }

    /// The most positive integer.
    #[inline]
    pub fn most_pos(self) -> u32 {
        match self {
            WordLength::Bits16 => 0x7FFF,
            WordLength::Bits32 => 0x7FFF_FFFF,
        }
    }

    /// Truncate a value to word width.
    #[inline]
    pub fn mask(self, v: u32) -> u32 {
        v & self.value_mask()
    }

    /// Truncate a 64-bit intermediate to word width.
    #[inline]
    pub fn mask64(self, v: u64) -> u32 {
        (v as u32) & self.value_mask()
    }

    /// Interpret a machine word as a signed integer.
    #[inline]
    pub fn to_signed(self, v: u32) -> i64 {
        match self {
            WordLength::Bits16 => i64::from(self.mask(v) as u16 as i16),
            WordLength::Bits32 => i64::from(v as i32),
        }
    }

    /// Wrap a signed integer into a machine word (modulo arithmetic).
    #[inline]
    pub fn from_signed(self, v: i64) -> u32 {
        self.mask(v as u32)
    }

    /// Wrapping (modulo) addition, the `sum` instruction.
    #[inline]
    pub fn wrapping_add(self, a: u32, b: u32) -> u32 {
        self.mask(a.wrapping_add(b))
    }

    /// Wrapping (modulo) subtraction, the `diff` instruction.
    #[inline]
    pub fn wrapping_sub(self, a: u32, b: u32) -> u32 {
        self.mask(a.wrapping_sub(b))
    }

    /// Wrapping (modulo) multiplication, the `prod` instruction.
    #[inline]
    pub fn wrapping_mul(self, a: u32, b: u32) -> u32 {
        self.mask(a.wrapping_mul(b))
    }

    /// Checked signed addition: result plus whether it overflowed
    /// (overflow sets the error flag in `add`/`adc`).
    #[inline]
    pub fn checked_add(self, a: u32, b: u32) -> (u32, bool) {
        let r = self.to_signed(a) + self.to_signed(b);
        (
            self.from_signed(r),
            r > self.to_signed(self.most_pos()) || r < self.to_signed(self.most_neg()),
        )
    }

    /// Checked signed subtraction.
    #[inline]
    pub fn checked_sub(self, a: u32, b: u32) -> (u32, bool) {
        let r = self.to_signed(a) - self.to_signed(b);
        (
            self.from_signed(r),
            r > self.to_signed(self.most_pos()) || r < self.to_signed(self.most_neg()),
        )
    }

    /// Checked signed multiplication.
    #[inline]
    pub fn checked_mul(self, a: u32, b: u32) -> (u32, bool) {
        let r = self.to_signed(a) * self.to_signed(b);
        (
            self.from_signed(r),
            r > self.to_signed(self.most_pos()) || r < self.to_signed(self.most_neg()),
        )
    }

    /// Signed greater-than, the `gt` instruction. Works on pointers too,
    /// because pointers are ordered as signed integers (§3.2.2).
    #[inline]
    pub fn gt(self, a: u32, b: u32) -> bool {
        self.to_signed(a) > self.to_signed(b)
    }

    /// The `AFTER` ordering on timer values: `a AFTER b` iff
    /// `(a - b)` is strictly positive in modulo arithmetic. This makes
    /// time comparisons robust against clock wrap-around.
    #[inline]
    pub fn after(self, a: u32, b: u32) -> bool {
        let d = self.wrapping_sub(a, b);
        self.to_signed(d) > 0
    }

    /// Word-align a pointer downwards (clear the byte selector).
    #[inline]
    pub fn align_word(self, p: u32) -> u32 {
        self.mask(p) & !self.byte_select_mask()
    }

    /// Build a pointer from a word base plus a word index, the `wsub`
    /// instruction ("word subscript", §3.2.2).
    #[inline]
    pub fn index_word(self, base: u32, index: u32) -> u32 {
        self.mask(base.wrapping_add(index.wrapping_mul(self.bytes_per_word())))
    }

    /// Byte subscript: pointer plus byte index (`bsub`).
    #[inline]
    pub fn index_byte(self, base: u32, index: u32) -> u32 {
        self.mask(base.wrapping_add(index))
    }
}

/// A word length fixed at compile time. The executor is generic over
/// it, so each [`WordLength`] rule it applies (`W::WORD.mask(..)`)
/// folds to the constant of one part: one source, instantiated for the
/// T222 ([`W16`]) and the T424 ([`W32`]).
pub(crate) trait Width {
    /// The word length this type stands for.
    const WORD: WordLength;
}

/// The 16-bit word of the T222.
pub(crate) struct W16;

/// The 32-bit word of the T424.
pub(crate) struct W32;

impl Width for W16 {
    const WORD: WordLength = WordLength::Bits16;
}

impl Width for W32 {
    const WORD: WordLength = WordLength::Bits32;
}

impl fmt::Display for WordLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

/// The canonical truth values of the instruction set.
pub const MACHINE_TRUE: u32 = 1;
/// The canonical false value.
pub const MACHINE_FALSE: u32 = 0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(WordLength::Bits16.bits(), 16);
        assert_eq!(WordLength::Bits32.bits(), 32);
        assert_eq!(WordLength::Bits16.bytes_per_word(), 2);
        assert_eq!(WordLength::Bits32.bytes_per_word(), 4);
        assert_eq!(WordLength::Bits16.byte_select_bits(), 1);
        assert_eq!(WordLength::Bits32.byte_select_bits(), 2);
    }

    #[test]
    fn most_neg_is_minimum_pointer() {
        for w in [WordLength::Bits16, WordLength::Bits32] {
            assert!(w.to_signed(w.most_neg()) < w.to_signed(0));
            assert!(w.to_signed(w.most_pos()) > w.to_signed(0));
            assert_eq!(w.to_signed(w.most_neg()), -(w.to_signed(w.most_pos()) + 1));
        }
    }

    #[test]
    fn signed_roundtrip_16() {
        let w = WordLength::Bits16;
        assert_eq!(w.to_signed(0xFFFF), -1);
        assert_eq!(w.from_signed(-1), 0xFFFF);
        assert_eq!(w.to_signed(0x8000), -32768);
    }

    #[test]
    fn checked_add_overflow() {
        let w = WordLength::Bits32;
        let (r, o) = w.checked_add(w.most_pos(), 1);
        assert!(o);
        assert_eq!(r, w.most_neg());
        let (_, o2) = w.checked_add(5, 7);
        assert!(!o2);
    }

    #[test]
    fn gt_is_signed() {
        let w = WordLength::Bits32;
        assert!(w.gt(1, 0xFFFF_FFFF)); // 1 > -1
        assert!(!w.gt(w.most_neg(), 0));
    }

    #[test]
    fn after_wraps() {
        let w = WordLength::Bits16;
        // Times 1 tick apart compare correctly even across wrap.
        assert!(w.after(0x0001, 0xFFFF));
        assert!(!w.after(0xFFFF, 0x0001));
    }

    #[test]
    fn word_indexing() {
        let w = WordLength::Bits32;
        assert_eq!(w.index_word(0x8000_0000, 3), 0x8000_000C);
        assert_eq!(w.index_byte(0x8000_0000, 3), 0x8000_0003);
        assert_eq!(w.align_word(0x8000_0007), 0x8000_0004);
    }
}
