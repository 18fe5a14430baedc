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

impl Binding {
    /// The vector of words this binds, if it binds one.
    pub(crate) fn word_vector(&self) -> Option<VectorRef> {
        match *self {
            Binding::Vec(slot, len) => Some(VectorRef {
                base: VecBase::Direct(slot),
                len: Some(len),
                writable: true,
            }),
            Binding::VecParam(slot, writable) => Some(VectorRef {
                base: VecBase::Indirect(slot),
                len: None,
                writable,
            }),
            _ => None,
        }
    }

    /// The vector of channel words this binds, if it binds one.
    pub(crate) fn chan_vector(&self) -> Option<VectorRef> {
        let (base, len) = match *self {
            Binding::ChanVec(slot, len) => (VecBase::Direct(slot), Some(len)),
            Binding::ChanVecParam(slot) => (VecBase::Indirect(slot), None),
            _ => return None,
        };
        Some(VectorRef {
            base,
            len,
            writable: true,
        })
    }
}

/// How a slot is accessed: the instruction for a slot in the current
/// frame, and the one for a slot reached through the static links.
type Access = (Direct, Direct);

/// Load a slot's value.
const LOAD: Access = (Direct::LoadLocal, Direct::LoadNonLocal);
/// Take a slot's address.
const ADDR: Access = (Direct::LoadLocalPointer, Direct::LoadNonLocalPointer);
/// Store into a slot. The non-local form is the paper's §3.2.6
/// static-link sequence: `ldl staticlink; stnl z`.
const STORE: Access = (Direct::StoreLocal, Direct::StoreNonLocal);

/// The operands of `l op r` in evaluation order. `<` and `>=` evaluate
/// the right operand first, so a single `gt` (B > A) computes them.
fn operand_order<'e>(op: BinOp, l: &'e Expr<'e>, r: &'e Expr<'e>) -> (&'e Expr<'e>, &'e Expr<'e>) {
    if matches!(op, BinOp::Lt | BinOp::Ge) {
        (r, l)
    } else {
        (l, r)
    }
}

impl Cg<'_> {
    /// Registers the evaluation of `e` would need on an empty stack.
    pub(crate) fn depth(&self, e: &Expr) -> u32 {
        match e {
            Expr::Literal(_) | Expr::True | Expr::False => 1,
            Expr::Name(_) => 1,
            Expr::Index(name, idx)
                if self.const_eval(idx).is_some() && self.vector_indexes_in_one(name) =>
            {
                1
            }
            Expr::Index(_, idx) | Expr::ByteIndex(_, idx) => self.subscript_depth(idx),
            Expr::Un(UnOp::Neg, inner) => (self.depth(inner) + 1).min(4),
            Expr::Un(_, inner) => self.depth(inner),
            Expr::Bin(op, l, r) => {
                if let Some((e, _)) = self.adc_form(*op, l, r) {
                    return self.depth(e);
                }
                let (first, second) = operand_order(*op, l, r);
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

    /// Registers an element address needs: the base under the
    /// subscript, and with bounds checks the limit above both.
    pub(crate) fn subscript_depth(&self, idx: &Expr) -> u32 {
        let d = (self.depth(idx) + 1).max(2);
        if self.options.bounds_checks {
            d.max(3)
        } else {
            d
        }
    }

    /// `l op r` as one operand and an `adc` constant: `l + r` or `l - r`
    /// when `r` is a constant, `l + r` when `l` is. `x - MOSTNEG` has
    /// none, as its negation leaves the word.
    fn adc_form<'e>(&self, op: BinOp, l: &'e Expr, r: &'e Expr) -> Option<(&'e Expr<'e>, i64)> {
        match op {
            BinOp::Add => match self.const_eval(r) {
                Some(c) => Some((l, c)),
                None => Some((r, self.const_eval(l)?)),
            },
            BinOp::Sub => Some((l, self.word(-self.const_eval(r)?)?)),
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

    /// Take a spill temporary for `what`; returns its operand
    /// (current-context relative).
    pub(crate) fn take_temp(&mut self, line: u32, what: &str) -> Result<i64, CompileError> {
        let ctx = self.ctx();
        if ctx.temps_used >= TEMP_SLOTS {
            return Err(CompileError::codegen(
                line,
                format!("{what} too complex: spill temporaries exhausted"),
            ));
        }
        let t = ctx.temps_base + ctx.temps_used;
        ctx.temps_used += 1;
        Ok(t)
    }

    /// Release the most recently taken spill temporary.
    fn release_temp(&mut self) {
        self.ctx().temps_used -= 1;
    }

    /// Park A in a spill temporary while `then` runs, then reload it
    /// into A.
    fn with_parked(
        &mut self,
        line: u32,
        then: impl FnOnce(&mut Self) -> Result<(), CompileError>,
    ) -> Result<(), CompileError> {
        let t = self.take_temp(line, "expression")?;
        self.emit.insn(Direct::StoreLocal, t);
        then(self)?;
        self.emit.insn(Direct::LoadLocal, t);
        self.release_temp();
        Ok(())
    }

    /// Leave `below`'s value in B and `top`'s in A. A `top` that needs
    /// the whole stack (`deep`) runs first, parked while `below` runs.
    pub(crate) fn gen_pair(
        &mut self,
        deep: bool,
        line: u32,
        below: impl FnOnce(&mut Self) -> Result<(), CompileError>,
        top: impl FnOnce(&mut Self) -> Result<(), CompileError>,
    ) -> Result<(), CompileError> {
        if deep {
            top(self)?;
            self.with_parked(line, below)
        } else {
            below(self)?;
            top(self)
        }
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

    /// Access word `k` of the storage at `slot`: in the current frame
    /// directly, in an enclosing one through the static links.
    fn emit_slot(
        &mut self,
        (local, non_local): Access,
        slot: Slot,
        k: i64,
        line: u32,
    ) -> Result<(), CompileError> {
        if slot.level == self.level() {
            self.emit.insn(local, self.slot_operand(slot) + k);
        } else {
            self.emit_chain_to(slot.level, line)?;
            self.emit.insn(non_local, slot.offset - slot.adjust + k);
        }
        Ok(())
    }

    /// Put a vector's base address in A.
    pub(crate) fn emit_vec_base(&mut self, base: VecBase, line: u32) -> Result<(), CompileError> {
        match base {
            VecBase::Direct(slot) => self.emit_slot(ADDR, slot, 0, line),
            VecBase::Indirect(slot) => self.emit_slot(LOAD, slot, 0, line),
        }
    }

    /// Load or store word `k` of a vector, a constant subscript.
    fn emit_const_element(
        &mut self,
        access: Access,
        v: VectorRef,
        k: i64,
        line: u32,
    ) -> Result<(), CompileError> {
        match v.base {
            VecBase::Direct(slot) => self.emit_slot(access, slot, k, line),
            VecBase::Indirect(slot) => {
                self.emit_slot(LOAD, slot, 0, line)?;
                self.emit.insn(access.1, k);
                Ok(())
            }
        }
    }

    /// What `name` denotes.
    fn resolve(&self, name: &str, line: u32) -> Result<Binding, CompileError> {
        let b = self.lookup(name).cloned();
        b.ok_or_else(|| CompileError::check(line, format!("`{name}` is not defined")))
    }

    /// Resolve a name as a (value) vector.
    fn resolve_vector(&self, name: &str, line: u32) -> Result<VectorRef, CompileError> {
        self.resolve(name, line)?
            .word_vector()
            .ok_or_else(|| CompileError::check(line, format!("`{name}` is not a vector")))
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
            Expr::Index(name, idx) => self.gen_load_element(name, idx, false, line),
            Expr::ByteIndex(name, idx) => self.gen_load_element(name, idx, true, line),
            Expr::Un(op, inner) => match op {
                UnOp::Neg => {
                    // 0 - e, checked.
                    let zero = |cg: &mut Self| {
                        cg.emit.insn(Direct::LoadConstant, 0);
                        Ok(())
                    };
                    let deep = self.depth(inner) >= 3;
                    self.gen_pair(deep, line, zero, |cg| cg.gen_expr(inner, line))?;
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
        if let Some((e, c)) = self.adc_form(op, l, r) {
            self.gen_expr(e, line)?;
            if c != 0 {
                self.emit.insn(Direct::AddConstant, c);
            }
            return Ok(());
        }
        let (first, second) = operand_order(op, l, r);
        let deep = self.depth(second) >= 3;
        self.gen_pair(
            deep,
            line,
            |cg| cg.gen_expr(first, line),
            |cg| cg.gen_expr(second, line),
        )?;
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

    /// Load a named value.
    fn gen_load_name(&mut self, name: &str, line: u32) -> Result<(), CompileError> {
        if name == "TIME" {
            self.emit.op(Op::LoadTimer);
            return Ok(());
        }
        let b = self.resolve(name, line)?;
        match b {
            Binding::Const(v) => self.emit.insn(Direct::LoadConstant, v),
            Binding::Var(slot) | Binding::ValueParam(slot) => {
                self.emit_slot(LOAD, slot, 0, line)?;
            }
            Binding::VarParam(slot) => {
                self.emit_slot(LOAD, slot, 0, line)?;
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

    /// Load a vector element: a word, or a `BYTE` zero-extended.
    fn gen_load_element(
        &mut self,
        name: &str,
        idx: &Expr,
        byte: bool,
        line: u32,
    ) -> Result<(), CompileError> {
        let v = self.resolve_vector(name, line)?;
        if let (false, Some(k)) = (byte, self.const_eval(idx)) {
            self.check_const_subscript(name, k, v.len, line)?;
            return self.emit_const_element(LOAD, v, k, line);
        }
        self.gen_element_addr(v, idx, byte, line)?;
        if byte {
            self.emit.op(Op::LoadByte);
        } else {
            self.emit.insn(Direct::LoadNonLocal, 0);
        }
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

    /// Leave the address of element `idx` of a vector in A: of a word,
    /// or with `byte` of a byte. With bounds checks, a subscript of a
    /// vector of known length is range-checked first.
    fn gen_element_addr(
        &mut self,
        v: VectorRef,
        idx: &Expr,
        byte: bool,
        line: u32,
    ) -> Result<(), CompileError> {
        self.emit_vec_base(v.base, line)?;
        // Index (one stack entry is occupied by the base).
        if self.depth(idx) >= 3 {
            let t = self.take_temp(line, "expression")?;
            self.emit.insn(Direct::StoreLocal, t);
            self.gen_expr(idx, line)?;
            let t2 = self.take_temp(line, "expression")?;
            self.emit.insn(Direct::StoreLocal, t2);
            self.emit.insn(Direct::LoadLocal, t);
            self.emit.insn(Direct::LoadLocal, t2);
            self.release_temp();
            self.release_temp();
        } else {
            self.gen_expr(idx, line)?;
        }
        if let (true, Some(len)) = (self.options.bounds_checks, v.len) {
            let unit = if byte { self.bytes_per_word() } else { 1 };
            self.emit.insn(Direct::LoadConstant, len * unit);
            self.emit.op(Op::CheckSubscriptFromZero);
        }
        self.emit.op(if byte {
            Op::ByteSubscript
        } else {
            Op::WordSubscript
        });
        Ok(())
    }

    /// Store A into an lvalue. (Callers must have the value on top.)
    pub(crate) fn gen_store(&mut self, lv: &Lvalue, line: u32) -> Result<(), CompileError> {
        let (name, idx, byte) = match lv {
            Lvalue::Name(name) => return self.gen_store_name(name, line),
            Lvalue::Index(name, idx) => (name, idx, false),
            Lvalue::ByteIndex(name, idx) => (name, idx, true),
        };
        let v = self.resolve_vector(name, line)?;
        self.require_writable(name, &v, line)?;
        if let (false, Some(k)) = (byte, self.const_eval(idx)) {
            self.check_const_subscript(name, k, v.len, line)?;
            return self.emit_const_element(STORE, v, k, line);
        }
        if self.depth(idx) >= 2 || self.options.bounds_checks {
            // The value occupies a register; an index this deep (or a
            // bounds check) would push it off the stack. Park the value
            // in a temporary while computing the element address.
            self.with_parked(line, |cg| cg.gen_element_addr(v, idx, byte, line))?;
            self.emit.op(Op::Reverse);
        } else {
            // Value is in A; the address fits above it.
            self.gen_element_addr(v, idx, byte, line)?;
        }
        if byte {
            self.emit.op(Op::StoreByte);
        } else {
            self.emit.insn(Direct::StoreNonLocal, 0);
        }
        Ok(())
    }

    /// Store A into a named variable.
    fn gen_store_name(&mut self, name: &str, line: u32) -> Result<(), CompileError> {
        let b = self.resolve(name, line)?;
        match b {
            Binding::Var(slot) => self.emit_slot(STORE, slot, 0, line),
            Binding::VarParam(slot) => {
                self.emit_slot(LOAD, slot, 0, line)?;
                self.emit.insn(Direct::StoreNonLocal, 0);
                Ok(())
            }
            Binding::ValueParam(_) => Err(CompileError::check(
                line,
                format!("cannot assign to VALUE parameter `{name}`"),
            )),
            Binding::Const(_) => Err(CompileError::check(
                line,
                format!("cannot assign to constant `{name}`"),
            )),
            _ => Err(CompileError::check(
                line,
                format!("`{name}` is not an assignable variable"),
            )),
        }
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
            return self.gen_element_addr(v, idx, false, line);
        }
        let b = self.resolve(name, line)?;
        match b {
            Binding::Var(slot) => self.emit_slot(ADDR, slot, 0, line),
            Binding::VarParam(slot) => self.emit_slot(LOAD, slot, 0, line),
            _ => Err(CompileError::check(
                line,
                format!("`{name}` is not a variable"),
            )),
        }
    }

    /// Leave the address of a channel, named and subscripted as
    /// [`ChanRef::parts`] gives it, in A.
    pub(crate) fn gen_chan_addr(
        &mut self,
        (name, idx): (&str, Option<&Expr>),
        line: u32,
    ) -> Result<(), CompileError> {
        let b = self.resolve(name, line)?;
        match (idx, b) {
            (None, Binding::Chan(slot)) => self.emit_slot(ADDR, slot, 0, line),
            (None, Binding::ChanParam(slot)) => self.emit_slot(LOAD, slot, 0, line),
            (None, Binding::PlacedChan(word)) => {
                // Address = MostNeg + word * bytes-per-word: the link
                // channel words at the bottom of the address space.
                self.emit.op(Op::MinimumInteger);
                if word != 0 {
                    self.emit.insn(Direct::LoadNonLocalPointer, word);
                }
                Ok(())
            }
            (Some(idx), b) => match b.chan_vector() {
                Some(v) => self.gen_element_addr(v, idx, false, line),
                None => Err(CompileError::check(
                    line,
                    format!("`{name}` is not a channel vector"),
                )),
            },
            (None, _) => Err(CompileError::check(
                line,
                format!("`{name}` is not a channel"),
            )),
        }
    }

    /// Registers needed to put a channel's address in A.
    pub(crate) fn chan_depth(&self, c: &ChanRef) -> u32 {
        match c {
            ChanRef::Name(_) => 1,
            ChanRef::Index(_, idx) => self.subscript_depth(idx),
        }
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
