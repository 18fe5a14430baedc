//! Expression evaluation onto the three-register stack.
//!
//! "If there is insufficient room to evaluate an expression on the stack,
//! then the compiler introduces the necessary temporary variables in the
//! local workspace. However, expressions of such complexity are, in
//! practice, rarely encountered. Three registers provide a good balance
//! between code compactness and implementation complexity" (§3.2.9).

use super::{Binding, Cg, Slot, TEMP_SLOTS};
use crate::ast::{BinOp, ChanRef, Expr, Lvalue, UnOp};
use crate::error::CompileError;
use transputer::instr::{Direct, Op};

/// How a vector's base address is obtained: declared vectors live in a
/// workspace (`ldlp`-style), vector *parameters* hold their base address
/// in a parameter word (`ldl`-style).
#[derive(Debug, Clone, Copy)]
pub(crate) enum VecBase {
    /// The vector's storage is at this slot.
    Direct(Slot),
    /// The slot holds a pointer to the vector.
    Indirect(Slot),
}

/// A resolved vector: how to reach it, its length if known (parameters
/// carry none — occam 1 vector parameters are unbounded), and whether
/// stores are allowed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VectorRef {
    pub base: VecBase,
    pub len: Option<i64>,
    pub writable: bool,
}

impl Cg<'_> {
    /// Registers the evaluation of `e` would need on an empty stack.
    pub(crate) fn depth(&self, e: &Expr) -> u32 {
        match e {
            Expr::Literal(_) | Expr::True | Expr::False => 1,
            Expr::Name(_) => 1,
            Expr::Index(name, idx) => {
                if self.const_eval(idx).is_some() && self.vector_indexes_in_one(name) {
                    1
                } else {
                    let d = (self.depth(idx) + 1).max(2);
                    // A bounds check pushes the limit constant too.
                    if self.options.bounds_checks {
                        d.max(3)
                    } else {
                        d
                    }
                }
            }
            Expr::ByteIndex(_, idx) => {
                let d = (self.depth(idx) + 1).max(2);
                if self.options.bounds_checks {
                    d.max(3)
                } else {
                    d
                }
            }
            Expr::Un(UnOp::Neg, inner) => (self.depth(inner) + 1).min(4),
            Expr::Un(_, inner) => self.depth(inner),
            Expr::Bin(op, l, r) => {
                if self.adc_operand(*op, r).is_some() {
                    return self.depth(l);
                }
                if matches!(op, BinOp::Add) && self.const_eval(l).is_some() {
                    return self.depth(r);
                }
                let (first, second) = if matches!(op, BinOp::Lt | BinOp::Ge) {
                    (r, l)
                } else {
                    (l, r)
                };
                let d2 = self.depth(second);
                if d2 >= 3 {
                    // Spill path: `second` is evaluated first and needs
                    // the whole stack, so the expression as a whole does
                    // too — any enclosing operand must itself be
                    // spilled around it.
                    (self.depth(first) + 1).max(d2).min(4)
                } else {
                    self.depth(first).max(d2 + 1)
                }
            }
        }
    }

    /// The `adc` operand computing `l + r` or `l - r` when `r` is a
    /// constant; `x - MOSTNEG` has none, as its negation leaves the word.
    fn adc_operand(&self, op: BinOp, r: &Expr) -> Option<i64> {
        match op {
            BinOp::Add => self.const_eval(r),
            BinOp::Sub => self.word(-self.const_eval(r)?),
            _ => None,
        }
    }

    /// Whether a constant subscript of this vector compiles to a single
    /// one-deep access (same-level declared vector: `ldl base+k`;
    /// same-level vector parameter: `ldl p; ldnl k`).
    fn vector_indexes_in_one(&self, name: &str) -> bool {
        matches!(
            self.lookup(name),
            Some(Binding::Vec(slot, _)) | Some(Binding::VecParam(slot, _))
                if slot.level == self.level()
        )
    }

    /// Take a spill temporary; returns its operand (current-context
    /// relative).
    fn take_temp(&mut self, line: u32) -> Result<i64, CompileError> {
        let ctx = self.ctx();
        if ctx.temps_used >= i64::from(TEMP_SLOTS as u32) {
            return Err(CompileError::codegen(
                line,
                "expression too complex: spill temporaries exhausted",
            ));
        }
        let t = ctx.temps_base + ctx.temps_used;
        ctx.temps_used += 1;
        Ok(t)
    }

    fn release_temp(&mut self) {
        self.ctx().temps_used -= 1;
    }

    /// Operand for a slot accessed from the current context.
    pub(crate) fn slot_operand(&self, slot: Slot) -> i64 {
        debug_assert_eq!(slot.level, self.level(), "same-frame access only");
        slot.offset + (self.ctx_ref().adjust - slot.adjust)
    }

    /// Emit the static-link chase from the current frame down to `level`,
    /// leaving that frame's base pointer in A.
    pub(crate) fn emit_chain_to(&mut self, level: usize, line: u32) -> Result<(), CompileError> {
        let my_level = self.level();
        debug_assert!(level < my_level);
        // Our own static link is a parameter of the current frame.
        let root = self
            .contexts
            .iter()
            .rev()
            .find(|c| c.is_frame_root)
            .expect("inside a frame");
        let sl = root
            .static_link_offset
            .ok_or_else(|| CompileError::codegen(line, "internal: frame has no static link"))?;
        self.emit
            .insn(Direct::LoadLocal, sl + self.ctx_ref().adjust);
        // Each intermediate frame's static link is at a known offset in
        // that frame.
        let mut at = my_level - 1;
        while at > level {
            let sl_at = self
                .frame_static_link_offset(at)
                .ok_or_else(|| CompileError::codegen(line, "internal: missing static link"))?;
            self.emit.insn(Direct::LoadNonLocal, sl_at);
            at -= 1;
        }
        Ok(())
    }

    /// Static-link offset (frame-base relative) of the frame at `level`.
    fn frame_static_link_offset(&self, level: usize) -> Option<i64> {
        self.contexts
            .iter()
            .find(|c| c.is_frame_root && c.level == level)
            .and_then(|c| c.static_link_offset)
    }

    /// Load a slot's value into A (local `ldl` or chained `ldnl`).
    fn emit_slot_value(&mut self, slot: Slot, line: u32) -> Result<(), CompileError> {
        if slot.level == self.level() {
            self.emit.insn(Direct::LoadLocal, self.slot_operand(slot));
        } else {
            self.emit_chain_to(slot.level, line)?;
            self.emit
                .insn(Direct::LoadNonLocal, slot.offset - slot.adjust);
        }
        Ok(())
    }

    /// Put a slot's address in A (local `ldlp` or chained `ldnlp`).
    fn emit_slot_addr(&mut self, slot: Slot, line: u32) -> Result<(), CompileError> {
        if slot.level == self.level() {
            self.emit
                .insn(Direct::LoadLocalPointer, self.slot_operand(slot));
        } else {
            self.emit_chain_to(slot.level, line)?;
            self.emit
                .insn(Direct::LoadNonLocalPointer, slot.offset - slot.adjust);
        }
        Ok(())
    }

    /// Put a vector's base address in A.
    fn emit_vec_base(&mut self, base: VecBase, line: u32) -> Result<(), CompileError> {
        match base {
            VecBase::Direct(slot) => self.emit_slot_addr(slot, line),
            VecBase::Indirect(slot) => self.emit_slot_value(slot, line),
        }
    }

    /// Resolve a name as a (value) vector.
    pub(crate) fn resolve_vector(&self, name: &str, line: u32) -> Result<VectorRef, CompileError> {
        match self.lookup(name) {
            Some(Binding::Vec(slot, len)) => Ok(VectorRef {
                base: VecBase::Direct(*slot),
                len: Some(*len),
                writable: true,
            }),
            Some(Binding::VecParam(slot, writable)) => Ok(VectorRef {
                base: VecBase::Indirect(*slot),
                len: None,
                writable: *writable,
            }),
            Some(_) => Err(CompileError::check(
                line,
                format!("`{name}` is not a vector"),
            )),
            None => Err(CompileError::check(
                line,
                format!("`{name}` is not defined"),
            )),
        }
    }

    /// Evaluate an expression, leaving its value in A.
    pub(crate) fn gen_expr(&mut self, e: &Expr, line: u32) -> Result<(), CompileError> {
        // Whole-expression constant folding.
        if let Some(v) = self.const_eval(e) {
            self.emit.insn(Direct::LoadConstant, v);
            return Ok(());
        }
        match e {
            Expr::Literal(n) => {
                let bits = self.options.word_length.bits();
                let message = format!("constant {n} does not fit in a {bits}-bit word");
                Err(CompileError::codegen(line, message))
            }
            Expr::True | Expr::False => unreachable!("folded above"),
            Expr::Name(name) => self.gen_load_name(name, line),
            Expr::Index(name, idx) => self.gen_load_index(name, idx, line),
            Expr::ByteIndex(name, idx) => self.gen_load_byte_index(name, idx, line),
            Expr::Un(op, inner) => match op {
                UnOp::Neg => {
                    // 0 - e, checked.
                    if self.depth(inner) >= 3 {
                        self.gen_expr(inner, line)?;
                        let t = self.take_temp(line)?;
                        self.emit.insn(Direct::StoreLocal, t);
                        self.emit.insn(Direct::LoadConstant, 0);
                        self.emit.insn(Direct::LoadLocal, t);
                        self.release_temp();
                    } else {
                        self.emit.insn(Direct::LoadConstant, 0);
                        self.gen_expr(inner, line)?;
                    }
                    self.emit.op(Op::Subtract);
                    Ok(())
                }
                UnOp::Not => {
                    self.gen_expr(inner, line)?;
                    self.emit.insn(Direct::EqualsConstant, 0);
                    Ok(())
                }
                UnOp::BitNot => {
                    self.gen_expr(inner, line)?;
                    self.emit.op(Op::Not);
                    Ok(())
                }
            },
            Expr::Bin(op, l, r) => self.gen_bin(*op, l, r, line),
        }
    }

    fn gen_bin(&mut self, op: BinOp, l: &Expr, r: &Expr, line: u32) -> Result<(), CompileError> {
        // `x + 2` compiles to `ldl x; adc 2` — exactly the paper's
        // §3.2.9 table.
        if let Some(c) = self.adc_operand(op, r) {
            self.gen_expr(l, line)?;
            if c != 0 {
                self.emit.insn(Direct::AddConstant, c);
            }
            return Ok(());
        }
        if op == BinOp::Add {
            if let Some(c) = self.const_eval(l) {
                self.gen_expr(r, line)?;
                if c != 0 {
                    self.emit.insn(Direct::AddConstant, c);
                }
                return Ok(());
            }
        }
        // `<` and `>=` evaluate the right operand first so a single
        // `gt` (B > A) computes the result.
        let (first, second) = if matches!(op, BinOp::Lt | BinOp::Ge) {
            (r, l)
        } else {
            (l, r)
        };
        self.gen_operands(first, second, line)?;
        match op {
            BinOp::Add => self.emit.op(Op::Add),
            BinOp::Sub => self.emit.op(Op::Subtract),
            BinOp::Mul => self.emit.op(Op::Multiply),
            BinOp::Div => self.emit.op(Op::Divide),
            BinOp::Rem => self.emit.op(Op::Remainder),
            BinOp::Eq => {
                self.emit.op(Op::Difference);
                self.emit.insn(Direct::EqualsConstant, 0);
            }
            BinOp::Ne => {
                self.emit.op(Op::Difference);
                self.emit.insn(Direct::EqualsConstant, 0);
                self.emit.insn(Direct::EqualsConstant, 0);
            }
            BinOp::Gt | BinOp::Lt => self.emit.op(Op::GreaterThan),
            BinOp::Le | BinOp::Ge => {
                self.emit.op(Op::GreaterThan);
                self.emit.insn(Direct::EqualsConstant, 0);
            }
            BinOp::And | BinOp::BitAnd => self.emit.op(Op::And),
            BinOp::Or | BinOp::BitOr => self.emit.op(Op::Or),
            BinOp::BitXor => self.emit.op(Op::ExclusiveOr),
            BinOp::Shl => self.emit.op(Op::ShiftLeft),
            BinOp::Shr => self.emit.op(Op::ShiftRight),
            BinOp::After => {
                // l AFTER r  ⇔  (l - r) > 0 in modulo arithmetic (§2.2.2).
                self.emit.op(Op::Difference);
                self.emit.insn(Direct::LoadConstant, 0);
                self.emit.op(Op::GreaterThan);
            }
        }
        Ok(())
    }

    /// Evaluate `first` then `second` so that B = first, A = second,
    /// spilling through a temporary when `second` needs the whole stack.
    fn gen_operands(&mut self, first: &Expr, second: &Expr, line: u32) -> Result<(), CompileError> {
        if self.depth(second) >= 3 {
            self.gen_expr(second, line)?;
            let t = self.take_temp(line)?;
            self.emit.insn(Direct::StoreLocal, t);
            self.gen_expr(first, line)?;
            self.emit.insn(Direct::LoadLocal, t);
            self.release_temp();
        } else {
            self.gen_expr(first, line)?;
            self.gen_expr(second, line)?;
        }
        Ok(())
    }

    /// Load a named value.
    fn gen_load_name(&mut self, name: &str, line: u32) -> Result<(), CompileError> {
        if name == "TIME" {
            self.emit.op(Op::LoadTimer);
            return Ok(());
        }
        let b = self
            .lookup(name)
            .cloned()
            .ok_or_else(|| CompileError::check(line, format!("`{name}` is not defined")))?;
        match b {
            Binding::Const(v) => self.emit.insn(Direct::LoadConstant, v),
            Binding::Var(slot) | Binding::ValueParam(slot) => {
                self.emit_slot_value(slot, line)?;
            }
            Binding::VarParam(slot) => {
                self.emit_slot_value(slot, line)?;
                self.emit.insn(Direct::LoadNonLocal, 0);
            }
            Binding::Vec(..)
            | Binding::ChanVec(..)
            | Binding::VecParam(..)
            | Binding::ChanVecParam(_) => {
                return Err(CompileError::check(
                    line,
                    format!("`{name}` is a vector and needs a subscript"),
                ))
            }
            Binding::Chan(_) | Binding::PlacedChan(_) | Binding::ChanParam(_) => {
                return Err(CompileError::check(
                    line,
                    format!("`{name}` is a channel, not a value"),
                ))
            }
            Binding::Proc(_) => {
                return Err(CompileError::check(
                    line,
                    format!("`{name}` is a PROC, not a value"),
                ))
            }
        }
        Ok(())
    }

    /// Load a vector element.
    fn gen_load_index(&mut self, name: &str, idx: &Expr, line: u32) -> Result<(), CompileError> {
        let v = self.resolve_vector(name, line)?;
        if let Some(k) = self.const_eval(idx) {
            self.check_const_subscript(name, k, v.len, line)?;
            match v.base {
                VecBase::Direct(slot) => {
                    if slot.level == self.level() {
                        self.emit
                            .insn(Direct::LoadLocal, self.slot_operand(slot) + k);
                    } else {
                        self.emit_chain_to(slot.level, line)?;
                        self.emit
                            .insn(Direct::LoadNonLocal, slot.offset - slot.adjust + k);
                    }
                }
                VecBase::Indirect(slot) => {
                    self.emit_slot_value(slot, line)?;
                    self.emit.insn(Direct::LoadNonLocal, k);
                }
            }
            return Ok(());
        }
        self.gen_vector_element_addr(v, idx, line)?;
        self.emit.insn(Direct::LoadNonLocal, 0);
        Ok(())
    }

    fn check_const_subscript(
        &self,
        name: &str,
        k: i64,
        len: Option<i64>,
        line: u32,
    ) -> Result<(), CompileError> {
        if k < 0 {
            return Err(CompileError::check(
                line,
                format!("negative subscript {k} on `{name}`"),
            ));
        }
        if let Some(len) = len {
            if k >= len {
                return Err(CompileError::check(
                    line,
                    format!("subscript {k} outside `{name}[{len}]`"),
                ));
            }
        }
        Ok(())
    }

    /// Leave the address of `vec[idx]` in A.
    pub(crate) fn gen_vector_element_addr(
        &mut self,
        v: VectorRef,
        idx: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        self.emit_vec_base(v.base, line)?;
        // Index (one stack entry is occupied by the base).
        if self.depth(idx) >= 3 {
            let t = self.take_temp(line)?;
            self.emit.insn(Direct::StoreLocal, t);
            self.gen_expr(idx, line)?;
            let t2 = self.take_temp(line)?;
            self.emit.insn(Direct::StoreLocal, t2);
            self.emit.insn(Direct::LoadLocal, t);
            self.emit.insn(Direct::LoadLocal, t2);
            self.release_temp();
            self.release_temp();
        } else {
            self.gen_expr(idx, line)?;
        }
        if self.options.bounds_checks {
            if let Some(len) = v.len {
                self.emit.insn(Direct::LoadConstant, len);
                self.emit.op(Op::CheckSubscriptFromZero);
            }
        }
        self.emit.op(Op::WordSubscript);
        Ok(())
    }

    /// Load a byte element (`v[BYTE i]`), zero-extended into A.
    fn gen_load_byte_index(
        &mut self,
        name: &str,
        idx: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        let v = self.resolve_vector(name, line)?;
        self.gen_byte_element_addr(v, idx, line)?;
        self.emit.op(Op::LoadByte);
        Ok(())
    }

    /// Leave the address of byte `idx` of a vector in A.
    fn gen_byte_element_addr(
        &mut self,
        v: VectorRef,
        idx: &Expr,
        line: u32,
    ) -> Result<(), CompileError> {
        self.emit_vec_base(v.base, line)?;
        if self.depth(idx) >= 3 {
            let t = self.take_temp(line)?;
            self.emit.insn(Direct::StoreLocal, t);
            self.gen_expr(idx, line)?;
            let t2 = self.take_temp(line)?;
            self.emit.insn(Direct::StoreLocal, t2);
            self.emit.insn(Direct::LoadLocal, t);
            self.emit.insn(Direct::LoadLocal, t2);
            self.release_temp();
            self.release_temp();
        } else {
            self.gen_expr(idx, line)?;
        }
        if self.options.bounds_checks {
            if let Some(len) = v.len {
                self.emit
                    .insn(Direct::LoadConstant, len * self.bytes_per_word());
                self.emit.op(Op::CheckSubscriptFromZero);
            }
        }
        self.emit.op(Op::ByteSubscript);
        Ok(())
    }

    /// Store A into an lvalue. (Callers must have the value on top.)
    pub(crate) fn gen_store(&mut self, lv: &Lvalue, line: u32) -> Result<(), CompileError> {
        match lv {
            Lvalue::Name(name) => {
                let b = self
                    .lookup(name)
                    .cloned()
                    .ok_or_else(|| CompileError::check(line, format!("`{name}` is not defined")))?;
                match b {
                    Binding::Var(slot) => {
                        if slot.level == self.level() {
                            self.emit.insn(Direct::StoreLocal, self.slot_operand(slot));
                        } else {
                            // The paper's §3.2.6 static-link sequence:
                            // `ldl staticlink; stnl z`.
                            self.emit_chain_to(slot.level, line)?;
                            self.emit
                                .insn(Direct::StoreNonLocal, slot.offset - slot.adjust);
                        }
                    }
                    Binding::VarParam(slot) => {
                        self.emit_slot_value(slot, line)?;
                        self.emit.insn(Direct::StoreNonLocal, 0);
                    }
                    Binding::ValueParam(_) => {
                        return Err(CompileError::check(
                            line,
                            format!("cannot assign to VALUE parameter `{name}`"),
                        ))
                    }
                    Binding::Const(_) => {
                        return Err(CompileError::check(
                            line,
                            format!("cannot assign to constant `{name}`"),
                        ))
                    }
                    _ => {
                        return Err(CompileError::check(
                            line,
                            format!("`{name}` is not an assignable variable"),
                        ))
                    }
                }
            }
            Lvalue::ByteIndex(name, idx) => {
                let v = self.resolve_vector(name, line)?;
                self.require_writable(name, &v, line)?;
                if self.depth(idx) >= 2 || self.options.bounds_checks {
                    let t = self.take_temp(line)?;
                    self.emit.insn(Direct::StoreLocal, t);
                    self.gen_byte_element_addr(v, idx, line)?;
                    self.emit.insn(Direct::LoadLocal, t);
                    self.emit.op(Op::Reverse);
                    self.emit.op(Op::StoreByte);
                    self.release_temp();
                } else {
                    self.gen_byte_element_addr(v, idx, line)?;
                    self.emit.op(Op::StoreByte);
                }
            }
            Lvalue::Index(name, idx) => {
                let v = self.resolve_vector(name, line)?;
                self.require_writable(name, &v, line)?;
                if let Some(k) = self.const_eval(idx) {
                    self.check_const_subscript(name, k, v.len, line)?;
                    match v.base {
                        VecBase::Direct(slot) => {
                            if slot.level == self.level() {
                                self.emit
                                    .insn(Direct::StoreLocal, self.slot_operand(slot) + k);
                            } else {
                                self.emit_chain_to(slot.level, line)?;
                                self.emit
                                    .insn(Direct::StoreNonLocal, slot.offset - slot.adjust + k);
                            }
                        }
                        VecBase::Indirect(slot) => {
                            self.emit_slot_value(slot, line)?;
                            self.emit.insn(Direct::StoreNonLocal, k);
                        }
                    }
                } else if self.depth(idx) >= 2 || self.options.bounds_checks {
                    // The value occupies a register; an index this deep
                    // (or a bounds check) would push it off the stack.
                    // Park the value in a temporary while computing the
                    // element address.
                    let t = self.take_temp(line)?;
                    self.emit.insn(Direct::StoreLocal, t);
                    self.gen_vector_element_addr(v, idx, line)?;
                    self.emit.insn(Direct::LoadLocal, t);
                    self.emit.op(Op::Reverse);
                    self.emit.insn(Direct::StoreNonLocal, 0);
                    self.release_temp();
                } else {
                    // Value is in A; the address fits above it.
                    self.gen_vector_element_addr(v, idx, line)?;
                    self.emit.insn(Direct::StoreNonLocal, 0);
                }
            }
        }
        Ok(())
    }

    fn require_writable(&self, name: &str, v: &VectorRef, line: u32) -> Result<(), CompileError> {
        if v.writable {
            Ok(())
        } else {
            Err(CompileError::check(
                line,
                format!("cannot assign into VALUE vector parameter `{name}`"),
            ))
        }
    }

    /// Leave the address of an lvalue in A (for `VAR` actuals and
    /// message input).
    pub(crate) fn gen_lvalue_addr(&mut self, lv: &Lvalue, line: u32) -> Result<(), CompileError> {
        match lv {
            Lvalue::Name(name) => self.gen_var_addr(name, None, line),
            Lvalue::Index(name, idx) => self.gen_var_addr(name, Some(idx), line),
            Lvalue::ByteIndex(..) => Err(CompileError::check(
                line,
                "a BYTE element cannot receive a whole-word message or act as a VAR argument",
            )),
        }
    }

    /// Leave the address of a variable, or of a word of a vector, in A.
    pub(crate) fn gen_var_addr(
        &mut self,
        name: &str,
        idx: Option<&Expr>,
        line: u32,
    ) -> Result<(), CompileError> {
        if let Some(idx) = idx {
            let v = self.resolve_vector(name, line)?;
            self.require_writable(name, &v, line)?;
            return self.gen_vector_element_addr(v, idx, line);
        }
        let b = self
            .lookup(name)
            .cloned()
            .ok_or_else(|| CompileError::check(line, format!("`{name}` is not defined")))?;
        match b {
            Binding::Var(slot) => self.emit_slot_addr(slot, line),
            Binding::VarParam(slot) => self.emit_slot_value(slot, line),
            _ => Err(CompileError::check(
                line,
                format!("`{name}` is not a variable"),
            )),
        }
    }

    /// Put a whole vector's base address in A (for vector actuals).
    pub(crate) fn gen_vector_base_addr(
        &mut self,
        name: &str,
        line: u32,
    ) -> Result<(), CompileError> {
        let v = self.resolve_vector(name, line)?;
        self.emit_vec_base(v.base, line)
    }

    /// Leave the address of a channel, named and subscripted as
    /// [`ChanRef::parts`] gives it, in A.
    pub(crate) fn gen_chan_addr(
        &mut self,
        (name, idx): (&str, Option<&Expr>),
        line: u32,
    ) -> Result<(), CompileError> {
        let b = self
            .lookup(name)
            .cloned()
            .ok_or_else(|| CompileError::check(line, format!("`{name}` is not defined")))?;
        match (idx, b) {
            (None, Binding::Chan(slot)) => self.emit_slot_addr(slot, line)?,
            (None, Binding::ChanParam(slot)) => self.emit_slot_value(slot, line)?,
            (None, Binding::PlacedChan(word)) => {
                // Address = MostNeg + word * bytes-per-word: the link
                // channel words at the bottom of the address space.
                self.emit.op(Op::MinimumInteger);
                if word != 0 {
                    self.emit.insn(Direct::LoadNonLocalPointer, word);
                }
            }
            (Some(idx), Binding::ChanVec(slot, len)) => {
                let v = VectorRef {
                    base: VecBase::Direct(slot),
                    len: Some(len),
                    writable: true,
                };
                self.gen_vector_element_addr(v, idx, line)?;
            }
            (Some(idx), Binding::ChanVecParam(slot)) => {
                let v = VectorRef {
                    base: VecBase::Indirect(slot),
                    len: None,
                    writable: true,
                };
                self.gen_vector_element_addr(v, idx, line)?;
            }
            (Some(_), _) => {
                return Err(CompileError::check(
                    line,
                    format!("`{name}` is not a channel vector"),
                ))
            }
            (None, _) => {
                return Err(CompileError::check(
                    line,
                    format!("`{name}` is not a channel"),
                ))
            }
        }
        Ok(())
    }

    /// Registers needed to put a channel's address in A.
    pub(crate) fn chan_depth(&self, c: &ChanRef) -> u32 {
        match c {
            ChanRef::Name(_) => 1,
            ChanRef::Index(_, idx) => {
                let d = (self.depth(idx) + 1).max(2);
                if self.options.bounds_checks {
                    d.max(3)
                } else {
                    d
                }
            }
        }
    }

    /// Park the value in A in a spill temporary; returns the operand to
    /// reload it with. The caller must call [`Cg::temp_done`] after.
    pub(crate) fn park_a(&mut self, line: u32) -> Result<i64, CompileError> {
        let t = self.take_temp(line)?;
        self.emit.insn(Direct::StoreLocal, t);
        Ok(t)
    }

    /// Release the most recently taken spill temporary.
    pub(crate) fn temp_done(&mut self) {
        self.release_temp();
    }

    /// Emit the byte count for a one-word message: a constant, or the
    /// word-length independent `ldc 1; bcnt` (§3.3).
    pub(crate) fn gen_word_count(&mut self) {
        if self.options.word_independent {
            self.emit.insn(Direct::LoadConstant, 1);
            self.emit.op(Op::ByteCount);
        } else {
            self.emit.insn(Direct::LoadConstant, self.bytes_per_word());
        }
    }
}
