//! Process representation: workspace layout, process descriptors, and the
//! special values threaded through channel and state words (§3.2.4).
//!
//! A process is identified by its *workspace pointer* (Wptr). The words
//! immediately below the workspace hold the scheduler's per-process
//! state — this is what lets a context switch "affect only the
//! instruction pointer and the workspace pointer" (§3.2.4): everything
//! else already lives in memory.

use crate::word::WordLength;

/// Workspace offset (in words, negative) of the saved instruction pointer.
pub const PW_IPTR: i32 = -1;
/// Offset of the scheduling-list link word (Figure 3).
pub const PW_LINK: i32 = -2;
/// Offset of the channel-data pointer / ALT state word.
pub const PW_STATE: i32 = -3;
/// Offset of the timer-queue link word.
pub const PW_TLINK: i32 = -4;
/// Offset of the wake-up time word.
pub const PW_TIME: i32 = -5;

/// Number of below-workspace words a blockable process needs.
pub const PW_SLOTS: u32 = 5;

/// Scheduling priority. The transputer supports two (§3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum Priority {
    /// Priority 0 — high. "A higher priority process always proceeds in
    /// preference to a lower priority one" (§2.2.2).
    High = 0,
    /// Priority 1 — low.
    Low = 1,
}

impl Priority {
    /// Index into per-priority register files.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Decode from the low bit of a process descriptor.
    #[inline]
    pub fn from_bit(bit: u32) -> Priority {
        if bit & 1 == 0 {
            Priority::High
        } else {
            Priority::Low
        }
    }

    /// The descriptor bit.
    #[inline]
    pub fn bit(self) -> u32 {
        self as u32
    }

    /// The other priority.
    #[inline]
    pub fn other(self) -> Priority {
        match self {
            Priority::High => Priority::Low,
            Priority::Low => Priority::High,
        }
    }

    /// Processor cycles between two ticks of this priority's clock.
    #[inline]
    pub(crate) fn tick_cycles(self) -> u64 {
        match self {
            Priority::High => crate::timing::HI_TICK_CYCLES,
            Priority::Low => crate::timing::LO_TICK_CYCLES,
        }
    }
}

/// Special process/state values, all taken from the reserved region near
/// MostNeg so they can never be confused with a real workspace address or
/// data pointer.
#[derive(Debug, Clone, Copy)]
pub struct Magic {
    /// "No process": empty channel word, empty queue.
    pub not_process: u32,
    /// ALT state: enabling guards.
    pub enabling: u32,
    /// ALT state: waiting for a guard to become ready.
    pub waiting: u32,
    /// ALT state: at least one guard ready.
    pub ready: u32,
    /// Timer-ALT state: no timeout armed yet.
    pub time_not_set: u32,
    /// Timer-ALT state: a timeout is armed.
    pub time_set: u32,
    /// "No branch selected yet" marker in the selection word.
    pub none_selected: u32,
}

impl Magic {
    /// The magic values for a word length.
    pub fn new(word: WordLength) -> Magic {
        let mn = word.most_neg();
        Magic {
            not_process: mn,
            enabling: word.mask(mn.wrapping_add(1)),
            waiting: word.mask(mn.wrapping_add(2)),
            ready: word.mask(mn.wrapping_add(3)),
            time_not_set: word.mask(mn.wrapping_add(1)),
            time_set: word.mask(mn.wrapping_add(2)),
            none_selected: word.mask(u32::MAX),
        }
    }

    /// Whether a channel word holds an ALT state marker rather than an
    /// ordinary waiting process.
    pub fn is_alt_state(&self, v: u32) -> bool {
        v == self.enabling || v == self.waiting || v == self.ready
    }
}

/// A process descriptor: workspace pointer with the priority in bit 0.
/// Workspaces are word aligned, so the low bits are free (§3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcDesc(pub u32);

impl ProcDesc {
    /// Build a descriptor from a workspace pointer and priority.
    #[inline]
    pub fn new(wptr: u32, pri: Priority) -> ProcDesc {
        ProcDesc((wptr & !1) | pri.bit())
    }

    /// The workspace pointer.
    #[inline]
    pub fn wptr(self) -> u32 {
        self.0 & !1
    }

    /// The priority.
    #[inline]
    pub fn priority(self) -> Priority {
        Priority::from_bit(self.0)
    }

    /// Raw descriptor word.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Compute the address of a below/above-workspace word.
#[inline]
pub fn workspace_word(word: WordLength, wptr: u32, offset: i32) -> u32 {
    word.mask(wptr.wrapping_add((offset as u32).wrapping_mul(word.bytes_per_word())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip() {
        let d = ProcDesc::new(0x8000_0100, Priority::Low);
        assert_eq!(d.wptr(), 0x8000_0100);
        assert_eq!(d.priority(), Priority::Low);
        let h = ProcDesc::new(0x8000_0100, Priority::High);
        assert_eq!(h.raw(), 0x8000_0100);
        assert_eq!(h.priority(), Priority::High);
    }

    #[test]
    fn magic_values_are_distinct_and_reserved() {
        for w in [WordLength::Bits16, WordLength::Bits32] {
            let m = Magic::new(w);
            assert_ne!(m.not_process, m.enabling);
            assert_ne!(m.enabling, m.waiting);
            assert_ne!(m.waiting, m.ready);
            assert!(m.is_alt_state(m.enabling));
            assert!(m.is_alt_state(m.waiting));
            assert!(m.is_alt_state(m.ready));
            assert!(!m.is_alt_state(m.not_process));
            assert!(!m.is_alt_state(0));
        }
    }

    #[test]
    fn workspace_word_addressing() {
        let w = WordLength::Bits32;
        assert_eq!(workspace_word(w, 0x8000_0100, PW_IPTR), 0x8000_00FC);
        assert_eq!(workspace_word(w, 0x8000_0100, 2), 0x8000_0108);
    }

    #[test]
    fn priority_helpers() {
        assert_eq!(Priority::High.other(), Priority::Low);
        assert_eq!(Priority::from_bit(7), Priority::Low);
        assert_eq!(Priority::from_bit(6), Priority::High);
    }
}
