//! Instruction fetch, decode and execute.
//!
//! "All instructions are executed by loading the four data bits into the
//! least significant four bits of the operand register, which is then
//! used as the instruction's operand. All instructions except the
//! prefixing instructions end by clearing the operand register" (§3.2.7).

use super::Cpu;
use crate::error::HaltReason;
use crate::instr::{Direct, Op};
use crate::process::{Priority, ProcDesc, PW_IPTR, PW_STATE, PW_TIME, PW_TLINK};
use crate::timing;
use crate::word::{MACHINE_FALSE, MACHINE_TRUE};

/// Evaluation-stack depth (0 = A, 1 = B, 2 = C) of the channel operand
/// of `opr operand`, for the seven operations that can act on a link;
/// `None` for every other operation.
pub(super) fn link_channel_depth(operand: u32) -> Option<u8> {
    match Op::from_code(operand)? {
        Op::OutputByte | Op::OutputWord | Op::ResetChannel => Some(0),
        Op::InputMessage | Op::OutputMessage | Op::EnableChannel => Some(1),
        Op::DisableChannel => Some(2),
        _ => None,
    }
}

impl Cpu {
    // ---- evaluation stack helpers (§3.2.9) ----

    /// Push: "Loading a value onto the evaluation stack pushes B into C,
    /// and A into B, before loading A."
    #[inline]
    pub(crate) fn push(&mut self, v: u32) {
        self.creg = self.breg;
        self.breg = self.areg;
        self.areg = self.word.mask(v);
    }

    /// Pop: "Storing a value from A, pops B into A and C into B."
    #[inline]
    pub(crate) fn pop(&mut self) -> u32 {
        let v = self.areg;
        self.areg = self.breg;
        self.breg = self.creg;
        v
    }

    /// Pop two values (A then B).
    #[inline]
    pub(crate) fn pop2(&mut self) -> (u32, u32) {
        (self.pop(), self.pop())
    }

    /// Pop all three values.
    #[inline]
    pub(crate) fn pop3(&mut self) -> (u32, u32, u32) {
        (self.pop(), self.pop(), self.pop())
    }

    #[inline]
    fn set_error(&mut self) {
        self.error = true;
        if self.halt_on_error {
            self.halted = Some(HaltReason::ErrorFlag);
        }
    }

    #[inline]
    pub(super) fn set_error_if(&mut self, cond: bool) {
        if cond {
            self.set_error();
        }
    }

    /// Whether `opr operand`, executed with the evaluation stack as it
    /// stands, would act on one of the four link channels.
    #[inline]
    pub(super) fn touches_link(&self, operand: u32) -> bool {
        let chan = match link_channel_depth(operand) {
            Some(0) => self.areg,
            Some(1) => self.breg,
            Some(_) => self.creg,
            None => return false,
        };
        matches!(self.mem.external_channel_id(chan), Some((link, _)) if link < 4)
    }

    /// Whether the byte at `Iptr` is the terminal byte of an operation
    /// that would act on a link channel. Reads nothing with a timing
    /// effect: the caller has not decided to execute it yet.
    pub(super) fn at_link_instruction(&self) -> bool {
        self.mem.peek_byte(self.iptr).is_some_and(|byte| {
            byte >> 4 == Direct::Operate.nibble()
                && self.touches_link(self.oreg | u32::from(byte & 0xF))
        })
    }

    /// Fetch and execute one instruction byte; returns cycles consumed.
    pub(crate) fn exec_one(&mut self) -> Result<u32, HaltReason> {
        if self.op_len == 0 {
            self.op_start = self.iptr;
        }
        let byte = match self.mem.fetch_byte_fast(self.iptr) {
            Some(b) => b,
            None => self.mem.read_byte(self.iptr)?,
        };
        self.iptr = self.word.mask(self.iptr.wrapping_add(1));
        self.stats.instructions += 1;
        self.op_len += 1;
        let fun = Direct::from_nibble(byte >> 4);
        let data = u32::from(byte & 0xF);

        match fun {
            Direct::Prefix => {
                self.oreg = self.word.mask((self.oreg | data) << 4);
                return Ok(fun.cycles());
            }
            Direct::NegativePrefix => {
                self.oreg = self.word.mask(!(self.oreg | data) << 4);
                return Ok(fun.cycles());
            }
            _ => {}
        }

        let operand = self.oreg | data;
        self.oreg = 0;
        let len = self.op_len as usize;
        self.op_len = 0;
        self.stats.record_operation(fun, len);
        self.last_op = Some((fun, operand, self.iptr));
        if self.trace.is_some() {
            self.pending_trace = Some((fun, operand));
        }
        self.exec_direct(fun, operand)
    }

    /// Execute a fully decoded direct function with its fused operand;
    /// returns cycles consumed. Shared by the byte-at-a-time path above
    /// and the translation tier (`cpu/translate.rs`), whose translated
    /// arms call it, so both tiers execute one definition of each
    /// function. Force-inlined: the body minus
    /// [`Cpu::exec_op`] (which stays out of line) is small, and the
    /// tier's arms call it with a constant `fun`, which reduces it to
    /// that function's body.
    #[inline(always)]
    pub(crate) fn exec_direct(&mut self, fun: Direct, operand: u32) -> Result<u32, HaltReason> {
        let bpw = self.word.bytes_per_word();

        let cycles = match fun {
            Direct::Prefix | Direct::NegativePrefix => {
                unreachable!("prefixes are folded into the operand before dispatch")
            }
            Direct::Jump => {
                self.iptr = self
                    .word
                    .mask(self.iptr.wrapping_add(self.signed_offset(operand)));
                let c = fun.cycles();
                // Jump is a descheduling (timeslice) point.
                self.advance_time(c);
                self.maybe_timeslice()?;
                return Ok(0);
            }
            Direct::LoadLocalPointer => {
                let p = self.word.index_word(self.wptr(), operand);
                self.push(p);
                fun.cycles()
            }
            Direct::LoadNonLocal => {
                let a = self.word.index_word(self.areg, operand);
                self.areg = self.mem.read_word(a)?;
                fun.cycles()
            }
            Direct::LoadConstant => {
                self.push(operand);
                fun.cycles()
            }
            Direct::LoadNonLocalPointer => {
                self.areg = self.word.index_word(self.areg, operand);
                fun.cycles()
            }
            Direct::LoadLocal => {
                let a = self.word.index_word(self.wptr(), operand);
                let v = self.mem.read_word(a)?;
                self.push(v);
                fun.cycles()
            }
            Direct::AddConstant => {
                let (r, o) = self.word.checked_add(self.areg, operand);
                self.areg = r;
                self.set_error_if(o);
                fun.cycles()
            }
            Direct::Call => {
                // Wptr descends by four words; Iptr, A, B, C are saved in
                // the new frame (§3.2.3: the stack holds "parameters of
                // procedure calls").
                let new_wptr = self.word.mask(self.wptr().wrapping_sub(4 * bpw));
                self.set_wptr(new_wptr);
                self.ws_write(0, self.iptr)?;
                let (a, b, c) = (self.areg, self.breg, self.creg);
                self.ws_write(1, a)?;
                self.ws_write(2, b)?;
                self.ws_write(3, c)?;
                self.areg = self.iptr; // return address available in A
                self.iptr = self
                    .word
                    .mask(self.iptr.wrapping_add(self.signed_offset(operand)));
                fun.cycles()
            }
            Direct::ConditionalJump => {
                if self.areg == 0 {
                    self.iptr = self
                        .word
                        .mask(self.iptr.wrapping_add(self.signed_offset(operand)));
                    timing::CONDITIONAL_JUMP_TAKEN
                } else {
                    self.pop();
                    fun.cycles()
                }
            }
            Direct::AdjustWorkspace => {
                let w = self.word.index_word(self.wptr(), operand);
                self.set_wptr(w);
                fun.cycles()
            }
            Direct::EqualsConstant => {
                self.areg = if self.areg == self.word.mask(operand) {
                    MACHINE_TRUE
                } else {
                    MACHINE_FALSE
                };
                fun.cycles()
            }
            Direct::StoreLocal => {
                let a = self.word.index_word(self.wptr(), operand);
                let v = self.pop();
                self.mem.write_word(a, v)?;
                fun.cycles()
            }
            Direct::StoreNonLocal => {
                let (addr, val) = self.pop2();
                let a = self.word.index_word(addr, operand);
                self.mem.write_word(a, val)?;
                fun.cycles()
            }
            Direct::Operate => {
                let op = Op::from_code(operand)
                    .ok_or(HaltReason::IllegalInstruction { opcode: operand })?;
                self.stats.record_op(op);
                self.exec_op(op)?
            }
        };
        Ok(cycles)
    }

    /// Sign-extended word value of an operand used as an Iptr offset.
    #[inline]
    fn signed_offset(&self, operand: u32) -> u32 {
        // Operands are already word-masked; offsets add modulo the word.
        operand
    }

    /// Replace the workspace pointer, preserving priority.
    #[inline]
    pub(super) fn set_wptr(&mut self, wptr: u32) {
        let pri = self.priority();
        self.wdesc = ProcDesc::new(self.word.align_word(wptr), pri).raw();
    }

    /// Execute an indirect function (§3.2.8). `pub(crate)` so the
    /// translation tier can enter here directly with an `Op` it
    /// resolved at block-build time.
    pub(crate) fn exec_op(&mut self, op: Op) -> Result<u32, HaltReason> {
        let word = self.word;
        let bpw = word.bytes_per_word();
        if let Some(fixed) = op.fixed_cycles() {
            match op {
                Op::Reverse => std::mem::swap(&mut self.areg, &mut self.breg),
                Op::LoadByte => {
                    self.areg = u32::from(self.mem.read_byte(self.areg)?);
                }
                Op::ByteSubscript => {
                    let (a, b) = self.pop2();
                    self.push(word.index_byte(b, a));
                }
                Op::EndProcess => {
                    return self.op_endp().map(|()| fixed);
                }
                Op::Difference | Op::Add | Op::GreaterThan | Op::WordSubscript => {
                    self.exec_alu(op);
                }
                Op::GeneralCall => std::mem::swap(&mut self.areg, &mut self.iptr),
                Op::Subtract => {
                    let (a, b) = self.pop2();
                    let (r, o) = word.checked_sub(b, a);
                    self.push(r);
                    self.set_error_if(o);
                }
                Op::StartProcess => {
                    // A = new workspace, B = code offset from here (§3.2.4:
                    // "a start process instruction creates a new process by
                    // adding a new workspace to the end of the scheduling
                    // list").
                    let (a, b) = self.pop2();
                    let child_iptr = word.mask(self.iptr.wrapping_add(b));
                    let child = ProcDesc::new(word.align_word(a), self.priority());
                    let iptr_word = crate::process::workspace_word(word, child.wptr(), PW_IPTR);
                    self.mem.write_word(iptr_word, child_iptr)?;
                    let now = self.cycles;
                    self.schedule(child, now);
                }
                Op::SetError => self.set_error(),
                Op::ResetChannel => {
                    let chan = self.areg;
                    if let Some((link, is_out)) = self.mem.external_channel_id(chan) {
                        if link < 4 {
                            if is_out {
                                self.link_out[link as usize] = Default::default();
                                self.slice_exit = Some(super::SliceOutcome::TxReady);
                            } else {
                                self.link_in[link as usize] = Default::default();
                                self.slice_exit = Some(super::SliceOutcome::RxWait);
                            }
                            self.links_dirty = true;
                        }
                        self.areg = self.magic.not_process;
                    } else {
                        let old = self.mem.read_word(chan)?;
                        self.mem.write_word(chan, self.magic.not_process)?;
                        self.areg = old;
                    }
                }
                Op::CheckSubscriptFromZero => {
                    // Error unless 0 <= B < A (unsigned compare covers both).
                    let a = self.pop();
                    let bad = self.areg >= a;
                    self.set_error_if(bad);
                }
                Op::StopProcess => {
                    self.block_current()?;
                }
                Op::LongAdd => {
                    let (a, b, c) = self.pop3();
                    let carry = i64::from(c & 1);
                    let r = word.to_signed(b) + word.to_signed(a) + carry;
                    let wrapped = word.from_signed(r);
                    self.push(wrapped);
                    self.set_error_if(
                        r > word.to_signed(word.most_pos()) || r < word.to_signed(word.most_neg()),
                    );
                }
                Op::StoreLowBack => {
                    let v = self.pop();
                    self.bptr[Priority::Low.index()] = v;
                }
                Op::StoreHighFront => {
                    let v = self.pop();
                    self.fptr[Priority::High.index()] = v;
                }
                Op::LoadPointerToInstruction => {
                    self.areg = word.mask(self.iptr.wrapping_add(self.areg));
                }
                Op::StoreLowFront => {
                    let v = self.pop();
                    self.fptr[Priority::Low.index()] = v;
                }
                Op::ExtendToDouble => {
                    // (A) -> (low = A, high = sign extension).
                    let sign = if word.to_signed(self.areg) < 0 {
                        word.value_mask()
                    } else {
                        0
                    };
                    self.creg = self.breg;
                    self.breg = sign;
                }
                Op::LoadPriority => {
                    let p = self.priority().bit();
                    self.push(p);
                }
                Op::Return => {
                    self.iptr = self.ws_read(0)?;
                    let w = word.mask(self.wptr().wrapping_add(4 * bpw));
                    self.set_wptr(w);
                }
                Op::LoadTimer => {
                    let c = self.clock_now(self.priority());
                    self.push(c);
                }
                Op::TestError => {
                    let was_clear = !self.error;
                    self.error = false;
                    self.push(if was_clear {
                        MACHINE_TRUE
                    } else {
                        MACHINE_FALSE
                    });
                }
                Op::TestProcessorAnalysing => self.push(MACHINE_FALSE),
                Op::DisableTimer => return self.op_dist().map(|()| fixed),
                Op::DisableChannel => return self.op_disc().map(|()| fixed),
                Op::DisableSkip => {
                    let (a, b) = self.pop2();
                    let taken = b != MACHINE_FALSE && self.select_branch(a)?;
                    self.push(if taken { MACHINE_TRUE } else { MACHINE_FALSE });
                }
                Op::Not => self.areg = word.mask(!self.areg),
                Op::ExclusiveOr => {
                    let (a, b) = self.pop2();
                    self.push(a ^ b);
                }
                Op::ByteCount => self.areg = word.wrapping_mul(self.areg, bpw),
                Op::LongSum => {
                    // (A, B, C) -> A = low word of B+A+carry, B = carry out.
                    let (a, b, c) = self.pop3();
                    let t = u64::from(a) + u64::from(b) + u64::from(c & 1);
                    self.push((t >> word.bits()) as u32 & 1);
                    self.push(word.mask64(t));
                }
                Op::LongSubtract => {
                    let (a, b, c) = self.pop3();
                    let r = word.to_signed(b) - word.to_signed(a) - i64::from(c & 1);
                    self.push(word.from_signed(r));
                    self.set_error_if(
                        r > word.to_signed(word.most_pos()) || r < word.to_signed(word.most_neg()),
                    );
                }
                Op::RunProcess => {
                    let d = self.pop();
                    let now = self.cycles;
                    self.schedule(ProcDesc(d), now);
                }
                Op::ExtendWord => {
                    // A = sign-bit value, B = part-word: sign extend.
                    let (a, b) = self.pop2();
                    let r = if a != 0 && (b & a) != 0 {
                        word.mask(b | !(a.wrapping_mul(2).wrapping_sub(1)))
                    } else if a != 0 {
                        b & (a.wrapping_mul(2).wrapping_sub(1))
                    } else {
                        b
                    };
                    self.push(r);
                }
                Op::StoreByte => {
                    let (addr, v) = self.pop2();
                    self.mem.write_byte(addr, (v & 0xFF) as u8)?;
                }
                Op::GeneralAdjustWorkspace => {
                    let old = self.wptr();
                    let new = word.align_word(self.areg);
                    self.set_wptr(new);
                    self.areg = old;
                }
                Op::SaveLow => {
                    let a = self.pop();
                    let f = self.fptr[Priority::Low.index()];
                    let b = self.bptr[Priority::Low.index()];
                    self.mem.write_word(a, f)?;
                    self.mem.write_word(word.index_word(a, 1), b)?;
                }
                Op::SaveHigh => {
                    let a = self.pop();
                    let f = self.fptr[Priority::High.index()];
                    let b = self.bptr[Priority::High.index()];
                    self.mem.write_word(a, f)?;
                    self.mem.write_word(word.index_word(a, 1), b)?;
                }
                Op::WordCount => {
                    let p = self.pop();
                    let sel = p & word.byte_select_mask();
                    let wordpart = word.from_signed(word.to_signed(p) >> word.byte_select_bits());
                    self.push(sel);
                    self.push(wordpart);
                }
                Op::MinimumInteger => self.push(word.most_neg()),
                Op::Alt => {
                    self.ws_write(PW_STATE, self.magic.enabling)?;
                }
                Op::AltEnd => {
                    let off = self.ws_read(0)?;
                    self.iptr = word.mask(self.iptr.wrapping_add(off));
                }
                Op::And => {
                    let (a, b) = self.pop2();
                    self.push(a & b);
                }
                Op::EnableTimer => return self.op_enbt().map(|()| fixed),
                Op::EnableChannel => return self.op_enbc().map(|()| fixed),
                Op::EnableSkip => {
                    // A = guard; a true skip guard is immediately ready.
                    if self.areg != MACHINE_FALSE {
                        self.ws_write(PW_STATE, self.magic.ready)?;
                    }
                }
                Op::Or => {
                    let (a, b) = self.pop2();
                    self.push(a | b);
                }
                Op::CheckSingle => {
                    let (a, b) = self.pop2();
                    // (low = a, high = b): error unless high is the sign
                    // extension of low.
                    let sign_ok = if word.to_signed(a) < 0 {
                        b == word.value_mask()
                    } else {
                        b == 0
                    };
                    self.set_error_if(!sign_ok);
                    self.push(a);
                }
                Op::CheckCountFromOne => {
                    // Error unless 1 <= B <= A (unsigned).
                    let a = self.pop();
                    let bad = self.areg == 0 || self.areg > a;
                    self.set_error_if(bad);
                }
                Op::TimerAlt => {
                    self.ws_write(PW_TLINK, self.magic.time_not_set)?;
                    self.ws_write(PW_STATE, self.magic.enabling)?;
                }
                Op::LongDiff => {
                    // (A, B, C) -> A = low word of B-A-borrow, B = borrow out.
                    let (a, b, c) = self.pop3();
                    let t = i64::from(b) - i64::from(a) - i64::from(c & 1);
                    self.push(if t < 0 { 1 } else { 0 });
                    self.push(word.mask64(t as u64));
                }
                Op::StoreHighBack => {
                    let v = self.pop();
                    self.bptr[Priority::High.index()] = v;
                }
                Op::Sum => {
                    let (a, b) = self.pop2();
                    self.push(word.wrapping_add(b, a));
                }
                Op::StoreTimer => {
                    let v = self.pop();
                    self.clock_set_at = self.cycles;
                    self.clock_set_to = v;
                    // The queued wake times now count from the new clock.
                    self.reload_timer_heads();
                }
                Op::StopOnError => {
                    if self.error {
                        self.block_current()?;
                    }
                }
                Op::CheckWord => {
                    // A = sign-bit value, B = word: error unless -A <= B < A.
                    let a = self.pop();
                    let v = word.to_signed(self.areg);
                    let bound = word.to_signed(a);
                    self.set_error_if(bound <= 0 || v >= bound || v < -bound);
                }
                Op::ClearHaltOnError => self.halt_on_error = false,
                Op::SetHaltOnError => self.halt_on_error = true,
                Op::TestHaltOnError => {
                    let h = self.halt_on_error;
                    self.push(if h { MACHINE_TRUE } else { MACHINE_FALSE });
                }
                Op::HaltSimulation => self.halted = Some(HaltReason::Stopped),
                _ => unreachable!("fixed-cost table covered a variable op: {op:?}"),
            }
            return Ok(fixed);
        }

        // Variable-cost operations.
        let cycles = match op {
            Op::Product => {
                let (a, b) = self.pop2();
                self.push(word.wrapping_mul(b, a));
                timing::product_cycles(a)
            }
            Op::Multiply => {
                let (a, b) = self.pop2();
                let (r, o) = word.checked_mul(b, a);
                self.push(r);
                self.set_error_if(o);
                timing::multiply_cycles(word)
            }
            Op::Divide => {
                let (a, b) = self.pop2();
                let (sa, sb) = (word.to_signed(a), word.to_signed(b));
                if sa == 0 || (sb == word.to_signed(word.most_neg()) && sa == -1) {
                    self.set_error();
                    self.push(0);
                } else {
                    self.push(word.from_signed(sb / sa));
                }
                timing::divide_cycles(word)
            }
            Op::Remainder => {
                let (a, b) = self.pop2();
                let (sa, sb) = (word.to_signed(a), word.to_signed(b));
                if sa == 0 {
                    self.set_error();
                    self.push(0);
                } else {
                    self.push(word.from_signed(sb % sa));
                }
                timing::remainder_cycles(word)
            }
            Op::ShiftLeft => {
                let (a, b) = self.pop2();
                let r = if a >= word.bits() {
                    0
                } else {
                    word.mask(b << a)
                };
                self.push(r);
                timing::shift_cycles(a.min(word.bits()))
            }
            Op::ShiftRight => {
                let (a, b) = self.pop2();
                let r = if a >= word.bits() { 0 } else { b >> a };
                self.push(r);
                timing::shift_cycles(a.min(word.bits()))
            }
            Op::LongShiftLeft => {
                // (A = count, B = low, C = high) -> (A = low, B = high).
                let (a, b, c) = self.pop3();
                let v = (u64::from(c) << word.bits()) | u64::from(b);
                let shifted = if a >= 2 * word.bits() { 0 } else { v << a };
                self.push(word.mask64(shifted >> word.bits()));
                self.push(word.mask64(shifted));
                self.stall(timing::shift_cycles(a.min(2 * word.bits())))
            }
            Op::LongShiftRight => {
                let (a, b, c) = self.pop3();
                let v = (u64::from(c) << word.bits()) | u64::from(b);
                let shifted = if a >= 2 * word.bits() { 0 } else { v >> a };
                self.push(word.mask64(shifted >> word.bits()));
                self.push(word.mask64(shifted));
                self.stall(timing::shift_cycles(a.min(2 * word.bits())))
            }
            Op::LongMultiply => {
                // (A, B, C = carry in) -> (A = low, B = high) of A*B+C.
                let (a, b, c) = self.pop3();
                let t = u64::from(a) * u64::from(b) + u64::from(c);
                self.push(word.mask64(t >> word.bits()));
                self.push(word.mask64(t));
                self.stall(word.bits() + 1)
            }
            Op::LongDivide => {
                // (A = divisor, B = dividend high, C = dividend low)
                // -> (A = quotient, B = remainder). Error on overflow.
                let (a, b, c) = self.pop3();
                if a == 0 || b >= a {
                    self.set_error();
                    self.push(0);
                    timing::divide_cycles(word)
                } else {
                    let v = (u64::from(b) << word.bits()) | u64::from(c);
                    self.push(word.mask64(v % u64::from(a)));
                    self.push(word.mask64(v / u64::from(a)));
                    self.stall(word.bits() + 3)
                }
            }
            Op::Normalise => {
                // (A = low, B = high) -> (A = low, B = high, C = places).
                let (a, b) = self.pop2();
                let v = (u64::from(b) << word.bits()) | u64::from(a);
                if v == 0 {
                    self.push(2 * word.bits());
                    self.push(0);
                    self.push(0);
                    self.stall(timing::shift_cycles(2 * word.bits()))
                } else {
                    let msb = 63 - v.leading_zeros();
                    let places = 2 * word.bits() - 1 - msb;
                    let shifted = v << places;
                    self.push(places);
                    self.push(word.mask64(shifted >> word.bits()));
                    self.push(word.mask64(shifted));
                    self.stall(timing::shift_cycles(places))
                }
            }
            Op::LoopEnd => {
                // B = control block (index, count), A = bytes back to the
                // loop start.
                let (a, b) = self.pop2();
                let count_addr = word.index_word(b, 1);
                let count = self.mem.read_word(count_addr)?;
                let count = word.wrapping_sub(count, 1);
                self.mem.write_word(count_addr, count)?;
                if word.to_signed(count) > 0 {
                    let idx = self.mem.read_word(b)?;
                    self.mem.write_word(b, word.wrapping_add(idx, 1))?;
                    self.iptr = word.mask(self.iptr.wrapping_sub(a));
                    self.advance_time(timing::LOOP_END_TAKEN);
                    self.maybe_timeslice()?;
                    0
                } else {
                    timing::LOOP_END_EXIT
                }
            }
            Op::TimerInput => {
                let t = self.pop();
                let now = self.clock_now(self.priority());
                if word.after(now, t) || now == t {
                    4
                } else {
                    self.ws_write(PW_IPTR, self.iptr)?;
                    self.ws_write(PW_STATE, self.magic.not_process)?;
                    self.timer_insert_current(word.wrapping_add(t, 1))?;
                    self.stats.deschedules += 1;
                    self.dispatch_next();
                    30
                }
            }
            Op::AltWait => {
                self.ws_write(0, self.magic.none_selected)?;
                let state = self.ws_read(PW_STATE)?;
                if state == self.magic.ready {
                    5
                } else {
                    self.ws_write(PW_STATE, self.magic.waiting)?;
                    self.ws_write(PW_IPTR, self.iptr)?;
                    self.stats.deschedules += 1;
                    self.dispatch_next();
                    17
                }
            }
            Op::TimerAltWait => {
                self.ws_write(0, self.magic.none_selected)?;
                let state = self.ws_read(PW_STATE)?;
                if state == self.magic.ready {
                    5
                } else {
                    let tstate = self.ws_read(PW_TLINK)?;
                    if tstate == self.magic.time_set {
                        let t = self.ws_read(PW_TIME)?;
                        let now = self.clock_now(self.priority());
                        if word.after(now, t) || now == t {
                            // Timeout already passed: ready immediately.
                            self.ws_write(PW_STATE, self.magic.ready)?;
                            return Ok(10);
                        }
                        self.ws_write(PW_STATE, self.magic.waiting)?;
                        self.ws_write(PW_IPTR, self.iptr)?;
                        self.timer_insert_current(word.wrapping_add(t, 1))?;
                        self.stats.deschedules += 1;
                        self.dispatch_next();
                        30
                    } else {
                        self.ws_write(PW_STATE, self.magic.waiting)?;
                        self.ws_write(PW_IPTR, self.iptr)?;
                        self.stats.deschedules += 1;
                        self.dispatch_next();
                        17
                    }
                }
            }
            Op::Move => {
                let (a, b, c) = self.pop3();
                // A = count, B = source, C = destination.
                self.begin_copy(b, c, a, None);
                8
            }
            Op::InputMessage => return self.op_in(),
            Op::OutputMessage => return self.op_out(),
            Op::OutputWord => {
                // A = channel, B = value: transfer one word via w[0].
                let (chan, value) = self.pop2();
                self.ws_write(0, value)?;
                let ptr = self.ws_addr(0);
                self.push(ptr);
                self.push(chan);
                self.push(bpw);
                return self.op_out().map(|c| c + 2);
            }
            Op::OutputByte => {
                let (chan, value) = self.pop2();
                let w0 = self.ws_addr(0);
                self.mem.write_byte(w0, (value & 0xFF) as u8)?;
                self.push(w0);
                self.push(chan);
                self.push(1);
                return self.op_out().map(|c| c + 2);
            }
            other => unreachable!("unhandled variable-cost op {other:?}"),
        };
        Ok(cycles)
    }

    /// Execute one of the two-operand ALU operations the translation
    /// tier dispatches on codes of their own; returns cycles consumed.
    /// [`Cpu::exec_op`] runs these operations through here too, so each
    /// has one definition. Force-inlined: the tier calls it with a
    /// constant `op`, which reduces it to that operation's body.
    #[inline(always)]
    pub(crate) fn exec_alu(&mut self, op: Op) -> u32 {
        let word = self.word;
        let (a, b) = self.pop2();
        match op {
            Op::Difference => self.push(word.wrapping_sub(b, a)),
            Op::Add => {
                let (r, o) = word.checked_add(b, a);
                self.push(r);
                self.set_error_if(o);
            }
            Op::GreaterThan => self.push(if word.gt(b, a) {
                MACHINE_TRUE
            } else {
                MACHINE_FALSE
            }),
            Op::WordSubscript => self.push(word.index_word(b, a)),
            _ => unreachable!("{op:?} is not a two-operand ALU operation"),
        }
        op.fixed_cycles().expect("ALU operations cost a fixed time")
    }

    /// `end process` (§3.2.4): A = address of the parallel-construct
    /// control block: word 0 holds the successor Iptr, word 1 the count
    /// of components still to terminate.
    fn op_endp(&mut self) -> Result<(), HaltReason> {
        let a = self.pop();
        let count_addr = self.word.index_word(a, 1);
        let count = self.mem.read_word(count_addr)?;
        let count = self.word.wrapping_sub(count, 1);
        if count == 0 {
            // All components terminated: the construct continues.
            self.iptr = self.mem.read_word(a)?;
            self.set_wptr(a);
            self.oreg = 0;
        } else {
            self.mem.write_word(count_addr, count)?;
            self.end_current();
        }
        Ok(())
    }

    /// `enable channel`: A = guard, B = channel.
    fn op_enbc(&mut self) -> Result<(), HaltReason> {
        let guard = self.areg;
        let chan = self.breg;
        // Pop the channel, keep the guard in A.
        self.breg = self.creg;
        if guard == MACHINE_FALSE {
            return Ok(());
        }
        if let Some((link, is_out)) = self.mem.external_channel_id(chan) {
            if !is_out && link < 4 {
                let me = ProcDesc(self.wdesc);
                if self.link_in[link as usize].enable_alt(me) {
                    self.ws_write(PW_STATE, self.magic.ready)?;
                }
                // The guard makes the port sensitive to the wire: end
                // the slice so the caller re-reads `link_sensitive`.
                self.slice_exit = Some(super::SliceOutcome::RxWait);
            }
            return Ok(());
        }
        let w = self.mem.read_word(chan)?;
        if w == self.magic.not_process {
            self.mem.write_word(chan, self.wdesc)?;
        } else if w != self.wdesc {
            // Another process is waiting to output: the guard is ready.
            self.ws_write(PW_STATE, self.magic.ready)?;
        }
        Ok(())
    }

    /// `disable channel`: A = branch offset, B = guard, C = channel.
    fn op_disc(&mut self) -> Result<(), HaltReason> {
        let (a, b, c) = self.pop3();
        let mut ready = false;
        if b != MACHINE_FALSE {
            if let Some((link, is_out)) = self.mem.external_channel_id(c) {
                if !is_out && link < 4 {
                    ready = self.link_in[link as usize].disable_alt();
                    self.slice_exit = Some(super::SliceOutcome::RxWait);
                }
            } else {
                let w = self.mem.read_word(c)?;
                if w == self.wdesc {
                    self.mem.write_word(c, self.magic.not_process)?;
                } else if w != self.magic.not_process {
                    ready = true;
                }
            }
        }
        let taken = ready && self.select_branch(a)?;
        self.push(if taken { MACHINE_TRUE } else { MACHINE_FALSE });
        Ok(())
    }

    /// `enable timer`: A = guard, B = time.
    fn op_enbt(&mut self) -> Result<(), HaltReason> {
        let guard = self.areg;
        let time = self.breg;
        self.breg = self.creg;
        if guard == MACHINE_FALSE {
            return Ok(());
        }
        let tstate = self.ws_read(PW_TLINK)?;
        if tstate == self.magic.time_not_set {
            self.ws_write(PW_TLINK, self.magic.time_set)?;
            self.ws_write(PW_TIME, time)?;
        } else {
            let cur = self.ws_read(PW_TIME)?;
            if self.word.after(cur, time) {
                self.ws_write(PW_TIME, time)?;
            }
        }
        Ok(())
    }

    /// `disable timer`: A = branch offset, B = guard, C = time.
    fn op_dist(&mut self) -> Result<(), HaltReason> {
        let (a, b, c) = self.pop3();
        // The process may still be linked into the timer queue from
        // `timer alt wait`; the first disable removes it.
        self.timer_remove_current()?;
        let now = self.clock_now(self.priority());
        let ready = b != MACHINE_FALSE && (self.word.after(now, c) || now == c);
        let taken = ready && self.select_branch(a)?;
        self.push(if taken { MACHINE_TRUE } else { MACHINE_FALSE });
        Ok(())
    }

    /// Record the first ready guard's branch offset in w[0]. Returns
    /// whether this call made the selection.
    fn select_branch(&mut self, offset: u32) -> Result<bool, HaltReason> {
        let sel = self.ws_read(0)?;
        if sel == self.magic.none_selected {
            self.ws_write(0, offset)?;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}
