//! The processor side of a link interface (§2.3).
//!
//! Each transputer has four bi-directional links; each link provides one
//! occam channel in each direction. A message is transmitted as a
//! sequence of single-byte communications, "requiring only the presence
//! of a single byte buffer in the receiving transputer to ensure that no
//! information is lost" (§2.3). The wire itself — packet timing and
//! framing — is modelled by the `transputer-link` crate, and the robust
//! protocol's sequence bits live at the network simulator's wire ends;
//! this module keeps the per-link state the *processor* sees: the active
//! transfer, the one-byte receive buffer, deferred acknowledges, and any
//! ALT guard watching the channel.

use crate::process::ProcDesc;

/// Number of links on the first transputers (§3.1: "four bi-directional
/// communications links").
pub const LINK_COUNT: usize = 4;

/// An in-progress block transfer on behalf of a descheduled process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The descheduled process to wake on completion.
    pub process: ProcDesc,
    /// Next byte address to read (output) or write (input).
    pub pointer: u32,
    /// Bytes still to transfer.
    pub remaining: u32,
}

/// Output half of a link: one occam channel out of the transputer.
#[derive(Debug, Clone, Default)]
pub struct LinkOut {
    transfer: Option<Transfer>,
    /// A byte has been handed to the wire and its acknowledge is still
    /// outstanding. "After transmitting a data byte, the sender waits
    /// until an acknowledge is received" (§2.3).
    in_flight: bool,
}

impl LinkOut {
    /// Begin an output transfer (the `output message` instruction on an
    /// external channel). The process must already be descheduled.
    pub fn begin(&mut self, t: Transfer) {
        debug_assert!(
            self.transfer.is_none(),
            "link output channel already in use"
        );
        self.transfer = Some(t);
    }

    /// Whether the wire may fetch a byte now.
    pub fn byte_available(&self) -> bool {
        matches!(&self.transfer, Some(t) if t.remaining > 0) && !self.in_flight
    }

    /// Address of the next byte to transmit, if one is available.
    /// The caller reads memory and then calls [`LinkOut::byte_taken`].
    pub fn next_byte_addr(&self) -> Option<u32> {
        if self.byte_available() {
            self.transfer.map(|t| t.pointer)
        } else {
            None
        }
    }

    /// Mark the next byte as handed to the wire.
    pub fn byte_taken(&mut self) {
        let t = self.transfer.as_mut().expect("no transfer in progress");
        debug_assert!(!self.in_flight && t.remaining > 0);
        self.in_flight = true;
    }

    /// An acknowledge arrived for the in-flight byte. Returns the process
    /// to wake if this was the final byte of the message ("the sending
    /// process may proceed only after the acknowledge for the final byte
    /// of the message has been received", §2.3).
    pub fn acknowledged(&mut self) -> Option<ProcDesc> {
        debug_assert!(self.in_flight, "acknowledge with no byte in flight");
        self.in_flight = false;
        let t = self
            .transfer
            .as_mut()
            .expect("acknowledge with no transfer");
        t.pointer = t.pointer.wrapping_add(1);
        t.remaining -= 1;
        if t.remaining == 0 {
            let done = *t;
            self.transfer = None;
            Some(done.process)
        } else {
            None
        }
    }

    /// Whether a transfer is active (for diagnostics).
    pub fn is_busy(&self) -> bool {
        self.transfer.is_some()
    }

    /// Whether a byte has been handed to the wire and its acknowledge is
    /// still outstanding. Used by the network scheduler's lookahead: an
    /// in-flight byte means the peer will owe an acknowledge.
    pub fn awaiting_ack(&self) -> bool {
        self.in_flight
    }
}

/// What a delivered byte did on the input side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Byte consumed by a waiting process; acknowledge may be sent.
    /// `completed` carries the process to wake when the whole message has
    /// arrived.
    Consumed { completed: Option<ProcDesc> },
    /// No process was waiting; the byte went into the single-byte buffer
    /// and the acknowledge is deferred until a process takes it.
    Buffered { alting: Option<ProcDesc> },
}

/// Input half of a link: one occam channel into the transputer.
#[derive(Debug, Clone, Default)]
pub struct LinkIn {
    transfer: Option<Transfer>,
    /// The single byte buffer of §2.3.
    buffer: Option<u8>,
    /// An acknowledge owed to the remote sender, to be transmitted when
    /// the wire is free.
    ack_due: bool,
    /// An alternative construct is watching this channel (§3.2.10:
    /// "instructions for enabling and disabling channels provide support
    /// for an implementation of alternative input without polling").
    alting: Option<ProcDesc>,
}

impl LinkIn {
    /// Does the interface still hold the last byte's acknowledge? It
    /// does while the byte sits in the buffer, and after a process takes
    /// it until the deferred acknowledge is sent.
    pub fn holds_ack(&self) -> bool {
        self.buffer.is_some() || self.ack_due
    }

    /// Is a receiving process already waiting? Used by the wire to decide
    /// whether an *early* acknowledge may be sent as soon as reception
    /// starts (§2.3: "An acknowledge is transmitted as soon as reception
    /// of a data byte starts (if there is a process waiting for it...)").
    pub fn early_ack_possible(&self) -> bool {
        self.transfer.is_some() && self.buffer.is_none()
    }

    /// Register a receiving transfer. Returns a byte to consume
    /// immediately if one was buffered; the caller stores it to memory,
    /// then calls [`LinkIn::byte_stored`].
    pub fn begin(&mut self, t: Transfer) -> Option<u8> {
        debug_assert!(self.transfer.is_none(), "link input channel already in use");
        self.transfer = Some(t);
        self.buffer.take()
    }

    /// Register an ALT guard on this channel. Returns whether the guard
    /// is already ready (a byte is buffered).
    pub fn enable_alt(&mut self, p: ProcDesc) -> bool {
        self.alting = Some(p);
        self.buffer.is_some()
    }

    /// Is an ALT guard registered on this channel? Until it is disabled
    /// (or a byte arrives and takes it), an arriving byte marks the
    /// alternative ready and may schedule its process.
    pub fn alt_enabled(&self) -> bool {
        self.alting.is_some()
    }

    /// Remove an ALT guard. Returns whether the channel was ready.
    pub fn disable_alt(&mut self) -> bool {
        self.alting = None;
        self.buffer.is_some()
    }

    /// Account for one byte written to the waiting process's memory.
    /// Returns the process to wake if the message is complete, and sets
    /// the deferred acknowledge if the byte came from the buffer.
    pub fn byte_stored(&mut self, from_buffer: bool) -> Option<ProcDesc> {
        if from_buffer {
            self.ack_due = true;
        }
        let t = self.transfer.as_mut().expect("no transfer in progress");
        t.pointer = t.pointer.wrapping_add(1);
        t.remaining -= 1;
        if t.remaining == 0 {
            let done = *t;
            self.transfer = None;
            Some(done.process)
        } else {
            None
        }
    }

    /// Address the next received byte should be stored at, if a transfer
    /// is waiting.
    pub fn store_addr(&self) -> Option<u32> {
        self.transfer.map(|t| t.pointer)
    }

    /// A byte arrived from the wire. If a process is waiting the caller
    /// must store it at [`LinkIn::store_addr`] and then call
    /// [`LinkIn::byte_stored`] with `from_buffer = false`; otherwise it is
    /// buffered here.
    pub fn deliver(&mut self, byte: u8) -> RxOutcome {
        if self.transfer.is_some() {
            RxOutcome::Consumed { completed: None }
        } else {
            debug_assert!(self.buffer.is_none(), "protocol violation: buffer overrun");
            self.buffer = Some(byte);
            RxOutcome::Buffered {
                alting: self.alting.take(),
            }
        }
    }

    /// Take a deferred acknowledge, if one is owed.
    pub fn take_ack_due(&mut self) -> bool {
        std::mem::take(&mut self.ack_due)
    }

    /// Whether a transfer is active (for diagnostics).
    pub fn is_busy(&self) -> bool {
        self.transfer.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Priority;

    fn proc1() -> ProcDesc {
        ProcDesc::new(0x8000_0100, Priority::Low)
    }

    #[test]
    fn output_wakes_after_final_ack() {
        let mut out = LinkOut::default();
        out.begin(Transfer {
            process: proc1(),
            pointer: 0x8000_0200,
            remaining: 2,
        });
        assert!(out.byte_available());
        assert_eq!(out.next_byte_addr(), Some(0x8000_0200));
        out.byte_taken();
        assert!(!out.byte_available()); // waits for the acknowledge
        assert_eq!(out.acknowledged(), None);
        assert_eq!(out.next_byte_addr(), Some(0x8000_0201));
        out.byte_taken();
        assert_eq!(out.acknowledged(), Some(proc1()));
        assert!(!out.is_busy());
    }

    #[test]
    fn input_buffers_one_byte_when_no_process() {
        let mut li = LinkIn::default();
        assert!(!li.early_ack_possible());
        match li.deliver(0xAB) {
            RxOutcome::Buffered { alting: None } => {}
            other => panic!("expected Buffered, got {other:?}"),
        }
        assert!(li.holds_ack());
        // A process arrives and takes the buffered byte: ack becomes due.
        let got = li.begin(Transfer {
            process: proc1(),
            pointer: 0x8000_0300,
            remaining: 1,
        });
        assert_eq!(got, Some(0xAB));
        assert_eq!(li.byte_stored(true), Some(proc1()));
        assert!(li.holds_ack(), "taken, but its acknowledge is still owed");
        assert!(li.take_ack_due());
        assert!(!li.take_ack_due());
        assert!(!li.holds_ack());
    }

    #[test]
    fn input_with_waiting_process_allows_early_ack() {
        let mut li = LinkIn::default();
        li.begin(Transfer {
            process: proc1(),
            pointer: 0x8000_0300,
            remaining: 2,
        });
        assert!(li.early_ack_possible());
        match li.deliver(1) {
            RxOutcome::Consumed { .. } => {}
            other => panic!("expected Consumed, got {other:?}"),
        }
        assert_eq!(li.store_addr(), Some(0x8000_0300));
        assert_eq!(li.byte_stored(false), None);
        assert_eq!(li.store_addr(), Some(0x8000_0301));
        li.deliver(2);
        assert_eq!(li.byte_stored(false), Some(proc1()));
    }

    #[test]
    fn alt_guard_sees_buffered_byte() {
        let mut li = LinkIn::default();
        assert!(!li.enable_alt(proc1()));
        match li.deliver(9) {
            RxOutcome::Buffered { alting: Some(p) } => assert_eq!(p, proc1()),
            other => panic!("expected alting wake, got {other:?}"),
        }
        // Guard disabled: channel reports ready because the byte is held.
        assert!(li.disable_alt());
    }
}
