//! The hardware scheduler (§3.2.4, Figure 3).
//!
//! "The active processes waiting to be executed are held on a list. This
//! is a linked list of process workspaces, implemented using two
//! registers, one of which points to the first process on the list, the
//! other to the last." There is one such list per priority.

use super::{Cpu, Shadow};
use crate::error::HaltReason;
use crate::memory::TPTR_LOC;
use crate::process::{
    workspace_word, Priority, ProcDesc, PW_IPTR, PW_LINK, PW_STATE, PW_TIME, PW_TLINK,
};
use crate::timing;

impl Cpu {
    /// Address of a workspace word of the *current* process.
    pub(crate) fn ws_addr(&self, offset: i32) -> u32 {
        workspace_word(self.word, self.wptr(), offset)
    }

    /// Read a workspace word of the current process.
    pub(crate) fn ws_read(&mut self, offset: i32) -> Result<u32, HaltReason> {
        let a = self.ws_addr(offset);
        self.mem.read_word(a)
    }

    /// Write a workspace word of the current process.
    pub(crate) fn ws_write(&mut self, offset: i32, v: u32) -> Result<(), HaltReason> {
        let a = self.ws_addr(offset);
        self.mem.write_word(a, v)
    }

    /// Make a process ready to run: append it to the scheduling list of
    /// its priority (the `start process` path of §3.2.4). `ready_at` is
    /// the cycle at which the process logically became ready, used for
    /// the preemption latency measurement.
    pub(crate) fn schedule(&mut self, p: ProcDesc, ready_at: u64) {
        let pri = p.priority().index();
        let wptr = p.wptr();
        if self.fptr[pri] == self.magic.not_process {
            self.fptr[pri] = wptr;
            self.bptr[pri] = wptr;
        } else {
            let tail_link = workspace_word(self.word, self.bptr[pri], PW_LINK);
            // Queue words are always in range: they were valid workspaces.
            let _ = self.mem.write_word(tail_link, wptr);
            self.bptr[pri] = wptr;
        }
        if p.priority() == Priority::High {
            if self.has_current_process() && self.priority() == Priority::Low {
                // Preemption will be taken at the next micro-step boundary.
                if self.hi_ready_at.is_none() {
                    self.hi_ready_at = Some(ready_at);
                }
            } else if !self.has_current_process() {
                self.hi_ready_at = Some(ready_at);
            }
        }
        if !self.has_current_process() {
            self.dispatch_next();
        }
    }

    /// Pop the front of a priority queue. The queue must be non-empty.
    fn dequeue(&mut self, pri: Priority) -> u32 {
        let i = pri.index();
        let wptr = self.fptr[i];
        debug_assert_ne!(wptr, self.magic.not_process, "dequeue from empty list");
        if wptr == self.bptr[i] {
            self.fptr[i] = self.magic.not_process;
            self.bptr[i] = self.magic.not_process;
        } else {
            let link = workspace_word(self.word, wptr, PW_LINK);
            self.fptr[i] = self.mem.read_word(link).unwrap_or(self.magic.not_process);
        }
        wptr
    }

    /// Load a process into the processor registers.
    fn activate(&mut self, wptr: u32, pri: Priority) {
        self.wdesc = ProcDesc::new(wptr, pri).raw();
        let iptr_word = workspace_word(self.word, wptr, PW_IPTR);
        self.iptr = self.mem.read_word(iptr_word).unwrap_or(0);
        self.oreg = 0;
        self.op_len = 0;
        self.resume = None;
        self.stats.dispatches += 1;
        self.last_dispatch = self.cycles;
        if pri == Priority::High {
            if let Some(t0) = self.hi_ready_at.take() {
                let latency = self.cycles.saturating_sub(t0);
                self.stats.max_preempt_latency = self.stats.max_preempt_latency.max(latency);
            }
        }
    }

    /// Choose the next process to run: high-priority work first, then an
    /// interrupted low-priority process from the shadow registers, then
    /// the low-priority list. Returns whether anything was dispatched.
    pub(crate) fn dispatch_next(&mut self) -> bool {
        if self.fptr[Priority::High.index()] != self.magic.not_process {
            let w = self.dequeue(Priority::High);
            self.activate(w, Priority::High);
            return true;
        }
        if let Some(sh) = self.shadow.take() {
            // "The switch from priority 0 to priority 1 ... takes 17
            // cycles" (§3.2.4): restoring the full shadowed context.
            self.wdesc = sh.wdesc;
            self.iptr = sh.iptr;
            self.op_start = sh.op_start;
            self.areg = sh.areg;
            self.breg = sh.breg;
            self.creg = sh.creg;
            self.oreg = sh.oreg;
            self.op_len = sh.op_len;
            self.resume = sh.resume;
            self.stats.priority_lowerings += 1;
            self.stats.dispatches += 1;
            self.last_dispatch = self.cycles;
            self.advance_time(timing::PRIORITY_LOWER_SWITCH);
            return true;
        }
        if self.fptr[Priority::Low.index()] != self.magic.not_process {
            let w = self.dequeue(Priority::Low);
            self.activate(w, Priority::Low);
            return true;
        }
        self.wdesc = self.magic.not_process;
        false
    }

    /// Suspend the current low-priority process into the shadow registers
    /// and dispatch the waiting high-priority process. Returns the cycles
    /// charged for the switch.
    pub(crate) fn preempt_to_high(&mut self) -> u32 {
        debug_assert_eq!(self.priority(), Priority::Low);
        self.shadow = Some(Shadow {
            wdesc: self.wdesc,
            iptr: self.iptr,
            op_start: self.op_start,
            areg: self.areg,
            breg: self.breg,
            creg: self.creg,
            oreg: self.oreg,
            op_len: self.op_len,
            resume: self.resume.take(),
        });
        self.stats.preemptions += 1;
        // Charge the switch before activating so the latency measurement
        // includes it.
        self.advance_time(timing::PRIORITY_RAISE_SWITCH);
        let w = self.dequeue(Priority::High);
        self.activate(w, Priority::High);
        timing::PRIORITY_RAISE_SWITCH
    }

    /// Save the current instruction pointer and give up the processor
    /// without requeueing (used when blocking on a channel or timer).
    pub(crate) fn block_current(&mut self) -> Result<(), HaltReason> {
        self.ws_write(PW_IPTR, self.iptr)?;
        self.stats.deschedules += 1;
        self.dispatch_next();
        Ok(())
    }

    /// Stop the current process without saving anything (its life ended,
    /// e.g. at `end process`).
    pub(crate) fn end_current(&mut self) {
        self.stats.deschedules += 1;
        self.dispatch_next();
    }

    /// Timeslice point (taken at `jump` and `loop end`): a low-priority
    /// process that has run for a full timeslice yields to its peers.
    pub(crate) fn maybe_timeslice(&mut self) -> Result<(), HaltReason> {
        if self.priority() == Priority::Low
            && self.fptr[Priority::Low.index()] != self.magic.not_process
            && self.cycles - self.last_dispatch >= timing::TIMESLICE_CYCLES
        {
            self.ws_write(PW_IPTR, self.iptr)?;
            let me = ProcDesc(self.wdesc);
            self.stats.deschedules += 1;
            let now = self.cycles;
            self.wdesc = self.magic.not_process;
            self.schedule(me, now);
            if !self.has_current_process() {
                self.dispatch_next();
            }
        }
        Ok(())
    }

    /// Advance simulated time, ticking the per-priority clocks and waking
    /// timer queue entries that come due.
    #[inline]
    pub(crate) fn advance_time(&mut self, cycles: u32) {
        self.advance_time64(u64::from(cycles));
    }

    /// [`Cpu::advance_time`] with a 64-bit delta, so arbitrarily long
    /// idle gaps advance in one call without truncation.
    ///
    /// A tick before its queue head comes due changes nothing but the
    /// clock, which [`Cpu::clock_now`] reads off the cycle counter, so
    /// the common case is an addition and a compare with the two
    /// latched due ticks (`Cpu::wake_at`).
    #[inline]
    pub(crate) fn advance_time64(&mut self, cycles: u64) {
        // Refresh BEFORE bumping the cycle counter: a timer insert
        // during the instruction just executed latches its due tick
        // against the clock of the pre-advance instant; a due tick
        // inside the window advanced now is then walked below, exactly
        // where it falls.
        self.refresh_timer_heads();
        self.cycles += cycles;
        if self.cycles >= self.wake_at[0].min(self.wake_at[1]) {
            self.catch_up_ticks();
        }
    }

    /// A priority's clock at `cycle`: the value both clocks were last
    /// set to plus the ticks since. Tick `k` falls `k` tick periods
    /// after the set.
    #[inline]
    pub(crate) fn clock_at(&self, pri: Priority, cycle: u64) -> u32 {
        let ticks = (cycle - self.clock_set_at) / pri.tick_cycles();
        self.word
            .wrapping_add(self.clock_set_to, self.word.mask64(ticks))
    }

    /// The current value of a priority's clock.
    #[inline]
    pub(crate) fn clock_now(&self, pri: Priority) -> u32 {
        self.clock_at(pri, self.cycles)
    }

    /// Re-latch the due ticks if any write has landed in the reserved
    /// words since the last look.
    #[inline(always)]
    pub(crate) fn refresh_timer_heads(&mut self) {
        if self.mem.take_reserved_dirty() {
            self.reload_timer_heads();
        }
    }

    /// Latch both priorities' due ticks, counting from the current
    /// cycle (see [`Cpu::latch_due_tick`]): a write has landed in the
    /// reserved words, or `sttimer` has set the clocks.
    #[cold]
    pub(crate) fn reload_timer_heads(&mut self) {
        for pri in [Priority::High, Priority::Low] {
            self.latch_due_tick(pri, self.cycles);
        }
    }

    /// Latch a priority's due tick from its queue head and the head's
    /// wake time: the cycle of the tick on which the head comes due, or
    /// `u64::MAX` while the queue is empty. The words are peeked:
    /// keeping the latch is the emulator's bookkeeping, not a read the
    /// processor makes.
    ///
    /// The due tick is counted from the clock at `from`, a cycle by
    /// which every due tick of the priority has been walked: the
    /// current cycle, or the due tick just walked, whose clock the rest
    /// of the queue was found not to have reached. The due tick always
    /// lies after `from`.
    ///
    /// The latch follows the head, not its wake time: a store that
    /// moves a waiting head's time earlier takes effect at the latched
    /// tick; a later time is found unreached there and latched again.
    fn latch_due_tick(&mut self, pri: Priority, from: u64) {
        let period = pri.tick_cycles();
        let head_loc = self.mem.reserved_addr(TPTR_LOC[pri.index()]);
        let head = self
            .mem
            .peek_word(head_loc)
            .unwrap_or(self.magic.not_process);
        self.wake_at[pri.index()] = if head == self.magic.not_process {
            u64::MAX
        } else {
            let time_loc = workspace_word(self.word, head, PW_TIME);
            let due = self.mem.peek_word(time_loc).unwrap_or(0);
            // Ticks before the one on which the clock reaches `due`
            // (`timer input` stores t+1, so this realises "clock
            // AFTER t"); none if `due` is not after the clock at `from`.
            let delta = self.word.wrapping_sub(due, self.clock_at(pri, from));
            let before = (self.word.to_signed(delta).max(1) - 1) as u64;
            let next = (from - self.clock_set_at) / period + 1;
            self.clock_set_at + (next + before) * period
        };
    }

    /// Walk every due tick at or before the current cycle, high
    /// priority first: wake the heads whose time the tick's clock
    /// reaches, and latch the next due tick from that tick. A wake
    /// writes only its own queue's head, so the other latch stands. No
    /// other tick touches memory. Out of line: its caller,
    /// `advance_time64`, is inlined everywhere.
    #[inline(never)]
    fn catch_up_ticks(&mut self) {
        for pri in [Priority::High, Priority::Low] {
            while self.wake_at[pri.index()] <= self.cycles {
                let tick = self.wake_at[pri.index()];
                self.wake_due_timers(pri, tick);
                self.latch_due_tick(pri, tick);
            }
        }
    }

    /// Wake every head of a timer queue whose time has been reached.
    fn wake_due_timers(&mut self, pri: Priority, tick_cycle: u64) {
        let head_loc = self.mem.reserved_addr(TPTR_LOC[pri.index()]);
        loop {
            let head = match self.mem.read_word(head_loc) {
                Ok(h) => h,
                Err(_) => return,
            };
            if head == self.magic.not_process {
                return;
            }
            let due = self
                .mem
                .read_word(workspace_word(self.word, head, PW_TIME))
                .unwrap_or(0);
            // Due when clock has reached `due` (timer input stores t+1,
            // so this realises "clock AFTER t").
            let reached = !self.word.after(due, self.clock_at(pri, tick_cycle));
            if !reached {
                return;
            }
            let next = self
                .mem
                .read_word(workspace_word(self.word, head, PW_TLINK))
                .unwrap_or(self.magic.not_process);
            let _ = self.mem.write_word(head_loc, next);
            self.timer_wake(ProcDesc::new(head, pri), tick_cycle);
        }
    }

    /// Wake a process popped from a timer queue: a plain `timer input`
    /// waiter is scheduled; an alternative is marked ready and scheduled
    /// only if it was waiting (§2.2.2: a timer input may be used as an
    /// alternative guard).
    fn timer_wake(&mut self, p: ProcDesc, ready_at: u64) {
        let state_addr = workspace_word(self.word, p.wptr(), PW_STATE);
        let state = self
            .mem
            .read_word(state_addr)
            .unwrap_or(self.magic.not_process);
        if state == self.magic.waiting {
            let _ = self.mem.write_word(state_addr, self.magic.ready);
            self.schedule(p, ready_at);
        } else if state == self.magic.enabling {
            let _ = self.mem.write_word(state_addr, self.magic.ready);
        } else {
            self.schedule(p, ready_at);
        }
    }

    /// Insert the current process into its priority's timer queue, sorted
    /// by wake-up time, and record the time in its workspace.
    pub(crate) fn timer_insert_current(&mut self, wake_time: u32) -> Result<(), HaltReason> {
        let pri = self.priority();
        self.ws_write(PW_TIME, wake_time)?;
        let me = self.wptr();
        let head_loc = self.mem.reserved_addr(TPTR_LOC[pri.index()]);
        let mut prev: Option<u32> = None;
        let mut cur = self.mem.read_word(head_loc)?;
        while cur != self.magic.not_process {
            let t = self
                .mem
                .read_word(workspace_word(self.word, cur, PW_TIME))?;
            if self.word.after(t, wake_time) {
                break;
            }
            prev = Some(cur);
            cur = self
                .mem
                .read_word(workspace_word(self.word, cur, PW_TLINK))?;
        }
        self.mem
            .write_word(workspace_word(self.word, me, PW_TLINK), cur)?;
        match prev {
            None => self.mem.write_word(head_loc, me)?,
            Some(p) => self
                .mem
                .write_word(workspace_word(self.word, p, PW_TLINK), me)?,
        }
        Ok(())
    }

    /// Remove the current process from its priority's timer queue if it
    /// is linked there (used by `disable timer`, which must cancel the
    /// timeout armed by a timer alternative).
    pub(crate) fn timer_remove_current(&mut self) -> Result<(), HaltReason> {
        let pri = self.priority();
        let me = self.wptr();
        let head_loc = self.mem.reserved_addr(TPTR_LOC[pri.index()]);
        let mut prev: Option<u32> = None;
        let mut cur = self.mem.read_word(head_loc)?;
        while cur != self.magic.not_process {
            let next = self
                .mem
                .read_word(workspace_word(self.word, cur, PW_TLINK))?;
            if cur == me {
                match prev {
                    None => self.mem.write_word(head_loc, next)?,
                    Some(p) => self
                        .mem
                        .write_word(workspace_word(self.word, p, PW_TLINK), next)?,
                }
                return Ok(());
            }
            prev = Some(cur);
            cur = next;
        }
        Ok(())
    }
}
