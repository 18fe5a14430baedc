//! Channel input/output (§3.2.10) and the processor side of link traffic.
//!
//! "The *input message* and *output message* instructions use the address
//! of a channel to determine whether the channel is internal or external.
//! This means that the same instruction sequence can be used for both,
//! allowing a process to be written and compiled without knowledge of
//! where its channels are connected."

use super::{Cpu, Resume, SliceOutcome};
use crate::error::HaltReason;
use crate::linkif::{RxOutcome, Transfer};
use crate::memory::external_channel;
use crate::process::{workspace_word, ProcDesc, PW_IPTR, PW_STATE};
use crate::timing;
use crate::word::Width;

/// Maximum words copied per micro-step of a block transfer, keeping every
/// non-interruptible stretch within the §3.2.4 latency budget.
const COPY_CHUNK_WORDS: u32 = 16;

/// Maximum stall cycles burned per micro-step of a long pure operation.
const STALL_CHUNK: u32 = 8;

impl Cpu {
    /// Execute `output message`: A = byte count, B = channel address,
    /// C = source pointer. Returns cycles.
    pub(crate) fn op_out<W: Width>(&mut self) -> Result<u32, HaltReason> {
        let count = self.areg;
        let chan = self.breg;
        let src = self.creg;
        self.pop3();
        if let Some((link, is_out)) = external_channel(W::WORD, chan) {
            return self.external_out::<W>(link, is_out, src, count);
        }
        let w = self.mem.read_word::<W>(chan)?;
        if w == self.magic.not_process {
            // First at the rendezvous: enrol and wait (§3.2.10).
            self.mem.write_word::<W>(chan, self.wdesc)?;
            self.ws_write::<W>(PW_STATE, src)?;
            self.block_current::<W>()?;
            return Ok(timing::COMM_FIRST_PARTY);
        }
        let partner = ProcDesc(w);
        let pstate_addr = workspace_word(W::WORD, partner.wptr(), PW_STATE);
        let pstate = self.mem.read_word::<W>(pstate_addr)?;
        if self.magic.is_alt_state(pstate) {
            // The partner is an alternative construct: mark its guard
            // ready; the data moves when the selected branch inputs.
            self.mem.write_word::<W>(chan, self.wdesc)?;
            self.ws_write::<W>(PW_STATE, src)?;
            self.mem.write_word::<W>(pstate_addr, self.magic.ready)?;
            self.block_current::<W>()?;
            if pstate == self.magic.waiting {
                let now = self.cycles;
                self.schedule::<W>(partner, now);
            }
            return Ok(timing::COMM_FIRST_PARTY);
        }
        // The partner arrived first and is waiting to input: copy.
        let dst = pstate;
        self.mem.write_word::<W>(chan, self.magic.not_process)?;
        self.stats.messages += 1;
        self.stats.message_bytes += u64::from(count);
        self.begin_copy::<W>(src, dst, count, Some(partner));
        let upfront =
            timing::comm_second_party_cycles(count, W::WORD) - timing::copy_cycles(count, W::WORD);
        Ok(upfront)
    }

    /// Execute `input message`: A = byte count, B = channel address,
    /// C = destination pointer.
    pub(crate) fn op_in<W: Width>(&mut self) -> Result<u32, HaltReason> {
        let count = self.areg;
        let chan = self.breg;
        let dst = self.creg;
        self.pop3();
        if let Some((link, is_out)) = external_channel(W::WORD, chan) {
            return self.external_in::<W>(link, is_out, dst, count);
        }
        let w = self.mem.read_word::<W>(chan)?;
        if w == self.magic.not_process {
            self.mem.write_word::<W>(chan, self.wdesc)?;
            self.ws_write::<W>(PW_STATE, dst)?;
            self.block_current::<W>()?;
            return Ok(timing::COMM_FIRST_PARTY);
        }
        // An outputter is waiting: its source pointer is in its state word.
        let partner = ProcDesc(w);
        let src = self
            .mem
            .read_word::<W>(workspace_word(W::WORD, partner.wptr(), PW_STATE))?;
        self.mem.write_word::<W>(chan, self.magic.not_process)?;
        self.stats.messages += 1;
        self.stats.message_bytes += u64::from(count);
        self.begin_copy::<W>(src, dst, count, Some(partner));
        let upfront =
            timing::comm_second_party_cycles(count, W::WORD) - timing::copy_cycles(count, W::WORD);
        Ok(upfront)
    }

    /// Start (or trivially complete) a block copy as an interruptible
    /// instruction.
    pub(crate) fn begin_copy<W: Width>(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u32,
        wake: Option<ProcDesc>,
    ) {
        if bytes == 0 {
            if let Some(p) = wake {
                let now = self.cycles;
                self.schedule::<W>(p, now);
            }
            return;
        }
        self.resume = Some(Resume::BlockCopy {
            src,
            dst,
            remaining: bytes,
            wake,
        });
    }

    /// Continue an interruptible instruction; returns cycles consumed by
    /// this micro-step.
    pub(crate) fn continue_resume<W: Width>(&mut self) -> Result<u32, HaltReason> {
        match self.resume.take() {
            None => Ok(0),
            Some(Resume::Stall { remaining }) => {
                let burn = remaining.min(STALL_CHUNK);
                if remaining > burn {
                    self.resume = Some(Resume::Stall {
                        remaining: remaining - burn,
                    });
                }
                Ok(burn)
            }
            Some(Resume::BlockCopy {
                mut src,
                mut dst,
                mut remaining,
                wake,
            }) => {
                let bpw = W::WORD.bytes_per_word();
                let chunk_bytes = (COPY_CHUNK_WORDS * bpw).min(remaining);
                for _ in 0..chunk_bytes {
                    let b = self.mem.read_byte::<W>(src)?;
                    self.mem.write_byte::<W>(dst, b)?;
                    src = W::WORD.mask(src.wrapping_add(1));
                    dst = W::WORD.mask(dst.wrapping_add(1));
                }
                remaining -= chunk_bytes;
                // One cycle per word moved (§3.2.10's 8n/wordlength term).
                let cycles = timing::copy_cycles(chunk_bytes, W::WORD).max(1);
                if remaining == 0 {
                    if let Some(p) = wake {
                        let now = self.cycles;
                        self.schedule::<W>(p, now);
                    }
                } else {
                    self.resume = Some(Resume::BlockCopy {
                        src,
                        dst,
                        remaining,
                        wake,
                    });
                }
                Ok(cycles)
            }
        }
    }

    /// Commit a long pure operation: its effect has been applied; burn
    /// the remaining cycles interruptibly if they exceed the latency
    /// budget chunk.
    pub(crate) fn stall(&mut self, total_cycles: u32) -> u32 {
        if total_cycles > timing::MAX_UNINTERRUPTIBLE {
            let now = total_cycles.min(STALL_CHUNK);
            self.resume = Some(Resume::Stall {
                remaining: total_cycles - now,
            });
            now
        } else {
            total_cycles
        }
    }

    /// `output message` on an external channel: hand the transfer to the
    /// link interface and deschedule (§2.3: the sending process proceeds
    /// only after the final acknowledge).
    fn external_out<W: Width>(
        &mut self,
        link: u32,
        is_out: bool,
        src: u32,
        count: u32,
    ) -> Result<u32, HaltReason> {
        debug_assert!(is_out, "output on an input link channel");
        if count == 0 || !is_out || link >= 4 {
            return Ok(timing::LINK_INITIATE);
        }
        let me = ProcDesc(self.wdesc);
        self.ws_write::<W>(PW_IPTR, self.iptr)?;
        self.link_out[link as usize].begin(Transfer {
            process: me,
            pointer: src,
            remaining: count,
        });
        self.stats.messages += 1;
        self.stats.message_bytes += u64::from(count);
        self.stats.deschedules += 1;
        self.dispatch_next::<W>();
        self.links_dirty = true;
        self.slice_exit = Some(SliceOutcome::TxReady);
        Ok(timing::LINK_INITIATE)
    }

    /// `input message` on an external channel. Link 4 is the event
    /// channel, which synchronises without transferring data.
    fn external_in<W: Width>(
        &mut self,
        link: u32,
        is_out: bool,
        dst: u32,
        count: u32,
    ) -> Result<u32, HaltReason> {
        debug_assert!(!is_out, "input on an output link channel");
        let me = ProcDesc(self.wdesc);
        if link == 4 {
            // Event channel: pure synchronisation.
            if self.event_pending {
                self.event_pending = false;
                return Ok(timing::LINK_INITIATE);
            }
            self.ws_write::<W>(PW_IPTR, self.iptr)?;
            self.event_waiting = Some(me);
            self.stats.deschedules += 1;
            self.dispatch_next::<W>();
            return Ok(timing::LINK_INITIATE);
        }
        if count == 0 || is_out {
            return Ok(timing::LINK_INITIATE);
        }
        let buffered = self.link_in[link as usize].begin(Transfer {
            process: me,
            pointer: dst,
            remaining: count,
        });
        if let Some(byte) = buffered {
            self.mem.write_byte::<W>(dst, byte)?;
            if let Some(done) = self.link_in[link as usize].byte_stored(true) {
                // Whole message satisfied from the buffer: continue.
                debug_assert_eq!(done, me);
                self.stats.messages += 1;
                self.stats.message_bytes += u64::from(count);
                self.links_dirty = true;
                self.slice_exit = Some(SliceOutcome::AckRaised);
                return Ok(timing::LINK_INITIATE);
            }
        }
        self.ws_write::<W>(PW_IPTR, self.iptr)?;
        self.stats.deschedules += 1;
        self.dispatch_next::<W>();
        if buffered.is_some() {
            // The buffered byte was taken: its deferred acknowledge is due.
            self.links_dirty = true;
            self.slice_exit = Some(SliceOutcome::AckRaised);
        } else {
            self.slice_exit = Some(SliceOutcome::RxWait);
        }
        Ok(timing::LINK_INITIATE)
    }

    // ---- Wire-facing API, used by the network simulator ----

    /// Fetch the next byte to transmit on a link, if the output channel
    /// has one ready (flow control permits a single un-acknowledged byte).
    pub fn link_tx_poll(&mut self, link: usize) -> Option<u8> {
        at_width!(self.link_tx_poll_at(link))
    }

    /// [`Cpu::link_tx_poll`] at word length `W`.
    fn link_tx_poll_at<W: Width>(&mut self, link: usize) -> Option<u8> {
        let addr = self.link_out[link].next_byte_addr()?;
        match self.mem.read_byte::<W>(addr) {
            Ok(b) => {
                self.link_out[link].byte_taken();
                Some(b)
            }
            Err(fault) => {
                self.halted = Some(fault);
                None
            }
        }
    }

    /// An acknowledge arrived for the in-flight byte on a link. Wakes the
    /// sending process after the final byte of its message (§2.3).
    pub fn link_tx_ack(&mut self, link: usize) {
        if let Some(p) = self.link_out[link].acknowledged() {
            let now = self.cycles;
            at_width!(self.schedule(p, now));
        }
    }

    /// Count a duplicate data byte arriving on this node's input: a
    /// resend of a byte already accepted.
    pub fn note_link_dup_data(&mut self) {
        self.stats.link_dup_data += 1;
    }

    /// Count a detected-and-discarded corrupt frame on this node's input.
    pub fn note_link_rx_error(&mut self) {
        self.stats.link_rx_errors += 1;
    }

    /// Count a timeout-driven retransmission from this node.
    pub fn note_link_retry(&mut self) {
        self.stats.link_retries += 1;
    }

    /// Count a link direction declared failed at this node.
    pub fn note_link_failure(&mut self) {
        self.stats.link_failures += 1;
    }

    /// Whether reception on a link may be acknowledged as soon as it
    /// starts: a process is waiting and the single-byte buffer is free
    /// (§2.3) — or the boot logic will consume the byte immediately.
    pub fn link_rx_early_ack(&self, link: usize) -> bool {
        self.boot_will_consume(link) || self.link_in[link].early_ack_possible()
    }

    /// Deliver a received byte. Returns whether an acknowledge should be
    /// transmitted now (it may already have been sent early).
    pub fn link_rx_deliver(&mut self, link: usize, byte: u8) -> bool {
        at_width!(self.link_rx_deliver_at(link, byte))
    }

    /// [`Cpu::link_rx_deliver`] at word length `W`.
    fn link_rx_deliver_at<W: Width>(&mut self, link: usize, byte: u8) -> bool {
        if self.is_booting() && self.boot_rx::<W>(link, byte) {
            return true;
        }
        match self.link_in[link].deliver(byte) {
            RxOutcome::Consumed => {
                let addr = self.link_in[link]
                    .store_addr()
                    .expect("consumed byte must have a store address");
                if let Err(fault) = self.mem.write_byte::<W>(addr, byte) {
                    self.halted = Some(fault);
                    return false;
                }
                if let Some(p) = self.link_in[link].byte_stored(false) {
                    let now = self.cycles;
                    self.schedule::<W>(p, now);
                }
                true
            }
            RxOutcome::Buffered { alting } => {
                if let Some(p) = alting {
                    self.alt_guard_ready::<W>(p);
                }
                false
            }
        }
    }

    /// Take a deferred acknowledge owed on a link's input side.
    pub fn link_take_deferred_ack(&mut self, link: usize) -> bool {
        self.link_in[link].take_ack_due()
    }

    /// Whether a link output channel has an active transfer (diagnostic).
    pub fn link_output_busy(&self, link: usize) -> bool {
        self.link_out[link].is_busy()
    }

    /// Whether a transmitted byte on a link is still awaiting its
    /// acknowledge: only then is an arriving acknowledge fresh. The
    /// network scheduler's lookahead window reads it too: an in-flight
    /// byte means the peer owes this node an acknowledge.
    pub fn link_tx_in_flight(&self, link: usize) -> bool {
        self.link_out[link].awaiting_ack()
    }

    /// Whether a link input channel still holds the last byte's
    /// acknowledge: the byte is buffered, or a process took it and the
    /// deferred acknowledge has not been sent.
    pub fn link_holds_ack(&self, link: usize) -> bool {
        self.link_in[link].holds_ack()
    }

    /// Mark an alternative's guard ready and wake it if it was waiting.
    pub(crate) fn alt_guard_ready<W: Width>(&mut self, p: ProcDesc) {
        let state_addr = workspace_word(W::WORD, p.wptr(), PW_STATE);
        let state = self
            .mem
            .read_word::<W>(state_addr)
            .unwrap_or(self.magic.not_process);
        let _ = self.mem.write_word::<W>(state_addr, self.magic.ready);
        if state == self.magic.waiting {
            let now = self.cycles;
            self.schedule::<W>(p, now);
        }
    }
}
