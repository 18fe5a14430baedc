//! Process and construct code generation.

use std::rc::Rc;

use super::measure::FrameMeasure;
use super::{Binding, Cg, Context, ProcInfo, Slot, TEMP_SLOTS};
use crate::ast::{AltKind, Alternative, Decl, Expr, Param, ParamMode, Process, Replicator};
use crate::emit::Label;
use crate::error::CompileError;
use transputer::instr::{Direct, Op};

impl<'a> Cg<'a> {
    /// Generate code for a process.
    pub(crate) fn gen_process(&mut self, p: &'a Process<'a>) -> Result<(), CompileError> {
        match p {
            Process::Skip => Ok(()),
            Process::Stop => {
                // STOP never proceeds: deschedule without requeueing.
                self.emit.op(Op::StopProcess);
                Ok(())
            }
            Process::Assign(lv, e, pos) => {
                self.gen_expr(e, pos.line)?;
                self.gen_store(lv, pos.line)
            }
            Process::Output(c, e, pos) => {
                // `c ! e` — evaluate, then `outword` (A = channel,
                // B = value), using workspace 0 as the buffer. A deep
                // channel-vector subscript is computed first, parked in
                // a temporary, so the value is not pushed off the stack.
                if self.chan_depth(c) >= 3 {
                    self.gen_chan_addr(c.parts(), pos.line)?;
                    let t = self.park_a(pos.line)?;
                    self.gen_expr(e, pos.line)?;
                    self.emit.insn(Direct::LoadLocal, t);
                    self.temp_done();
                } else {
                    self.gen_expr(e, pos.line)?;
                    self.gen_chan_addr(c.parts(), pos.line)?;
                }
                self.emit.op(Op::OutputWord);
                Ok(())
            }
            Process::Input(c, lv, pos) => {
                // `c ? v` — destination pointer, channel, count, `in`.
                if self.chan_depth(c) >= 3 {
                    self.gen_chan_addr(c.parts(), pos.line)?;
                    let t = self.park_a(pos.line)?;
                    self.gen_lvalue_addr(lv, pos.line)?;
                    self.emit.insn(Direct::LoadLocal, t);
                    self.temp_done();
                } else {
                    self.gen_lvalue_addr(lv, pos.line)?;
                    self.gen_chan_addr(c.parts(), pos.line)?;
                }
                self.gen_word_count();
                self.emit.op(Op::InputMessage);
                Ok(())
            }
            Process::ReadTime(lv, pos) => {
                self.emit.op(Op::LoadTimer);
                self.gen_store(lv, pos.line)
            }
            Process::Delay(e, pos) => {
                self.gen_expr(e, pos.line)?;
                self.emit.op(Op::TimerInput);
                Ok(())
            }
            Process::Seq(None, ps, _) => {
                for child in ps {
                    self.gen_process(child)?;
                }
                Ok(())
            }
            Process::Seq(Some(r), ps, pos) => self.gen_replicated_seq(r, ps, pos.line),
            Process::Par(repl, branches, pos) => self.gen_par(repl.as_ref(), branches, pos.line),
            Process::PriPar(branches, pos) => self.gen_pri_par(branches, pos.line),
            Process::Alt(None, alts, pos) | Process::PriAlt(None, alts, pos) => {
                self.gen_alt(alts, pos.line)
            }
            Process::Alt(Some(r), alts, pos) | Process::PriAlt(Some(r), alts, pos) => {
                self.gen_replicated_alt(r, &alts[0], pos.line)
            }
            Process::If(conds, pos) => {
                let end = self.emit.new_label();
                for c in conds {
                    // Constant-true guard: emit body, no test; anything
                    // after it is unreachable.
                    if self.const_eval(&c.cond) == Some(1) {
                        self.gen_process(&c.body)?;
                        self.emit.insn_rel(Direct::Jump, end);
                        self.emit.place(end);
                        return Ok(());
                    }
                    let next = self.emit.new_label();
                    self.gen_expr(&c.cond, c.pos.line)?;
                    self.emit.insn_rel(Direct::ConditionalJump, next);
                    self.gen_process(&c.body)?;
                    self.emit.insn_rel(Direct::Jump, end);
                    self.emit.place(next);
                }
                // No condition true: IF behaves like STOP.
                self.emit.op(Op::StopProcess);
                self.emit.place(end);
                let _ = pos;
                Ok(())
            }
            Process::While(cond, body, pos) => {
                let top = self.emit.new_label();
                let end = self.emit.new_label();
                self.emit.place(top);
                match self.const_eval(cond) {
                    Some(0) => return Ok(()),
                    Some(_) => {
                        // WHILE TRUE: no test.
                        self.gen_process(body)?;
                        self.emit.insn_rel(Direct::Jump, top);
                    }
                    None => {
                        self.gen_expr(cond, pos.line)?;
                        self.emit.insn_rel(Direct::ConditionalJump, end);
                        self.gen_process(body)?;
                        self.emit.insn_rel(Direct::Jump, top);
                    }
                }
                self.emit.place(end);
                Ok(())
            }
            Process::Declared(decls, body, pos) => {
                let save_alloc = self.ctx_ref().alloc;
                let save_vec = self.ctx_ref().vec_alloc;
                self.open_scope();
                for d in decls {
                    self.gen_decl(d, pos.line)?;
                }
                self.gen_process(body)?;
                self.close_scope();
                self.ctx().alloc = save_alloc;
                self.ctx().vec_alloc = save_vec;
                Ok(())
            }
            Process::Call(name, actuals, pos) => self.gen_call(name, actuals, pos.line),
        }
    }

    // ---- declarations ----

    fn gen_decl(&mut self, d: &'a Decl<'a>, line: u32) -> Result<(), CompileError> {
        match d {
            Decl::Var(items) | Decl::Chan(items) => {
                let is_chan = matches!(d, Decl::Chan(_));
                for (name, size) in items {
                    let level = self.level();
                    let adjust = self.ctx_ref().adjust;
                    match size {
                        None => {
                            let off = self.ctx().alloc_words(1);
                            let slot = Slot {
                                level,
                                offset: off,
                                adjust,
                            };
                            if is_chan {
                                // Channel words start empty (NotProcess).
                                self.emit.op(Op::MinimumInteger);
                                self.emit.insn(Direct::StoreLocal, off);
                                self.bind(name, Binding::Chan(slot));
                            } else {
                                self.bind(name, Binding::Var(slot));
                            }
                        }
                        Some(e) => {
                            let n = self.require_const(e, line, "vector size")?;
                            let off = self.ctx().alloc_vector(n);
                            let slot = Slot {
                                level,
                                offset: off,
                                adjust,
                            };
                            if is_chan {
                                for k in 0..n {
                                    self.emit.op(Op::MinimumInteger);
                                    self.emit.insn(Direct::StoreLocal, off + k);
                                }
                                self.bind(name, Binding::ChanVec(slot, n));
                            } else {
                                self.bind(name, Binding::Vec(slot, n));
                            }
                        }
                    }
                }
                Ok(())
            }
            Decl::Def(name, e) => {
                let v = self.require_const(e, line, "DEF value")?;
                self.bind(name, Binding::Const(v));
                Ok(())
            }
            Decl::Place(name, e) => {
                let word = self.require_const(e, line, "PLACE address")?;
                if !(0..=8).contains(&word) {
                    return Err(CompileError::codegen(
                        line,
                        format!(
                            "PLACE offset {word} is not a link channel word (0..=3 output, \
                             4..=7 input, 8 event)"
                        ),
                    ));
                }
                match self.lookup(name) {
                    Some(Binding::Chan(_)) | Some(Binding::PlacedChan(_)) => {}
                    _ => {
                        return Err(CompileError::check(
                            line,
                            format!("PLACE names an undeclared channel `{name}`"),
                        ))
                    }
                }
                self.bind(name, Binding::PlacedChan(word));
                Ok(())
            }
            Decl::Proc(name, params, body) => self.gen_proc_decl(name, params, body, line),
        }
    }

    fn gen_proc_decl(
        &mut self,
        name: &'a str,
        params: &[Param<'a>],
        body: &'a Process<'a>,
        line: u32,
    ) -> Result<(), CompileError> {
        if !self.ctx_ref().is_frame_root {
            return Err(CompileError::codegen(
                line,
                "PROC declarations are not supported inside PAR components; \
                 declare the PROC outside the PAR",
            ));
        }
        let level = self.level() + 1;
        let static_link = true;
        // Measure the body as its own frame. Parameters contribute no
        // frame words (they live in the caller-provided linkage).
        self.open_scope();
        // Parameter *kinds* must be visible during measurement (a call
        // can appear in the body); offsets are patched after measuring.
        for p in params {
            let dummy = Slot {
                level,
                offset: 0,
                adjust: 0,
            };
            self.bind(p.name, super::measure::param_binding(p, dummy));
        }
        // Measurement needs the body's own context for `level()`.
        self.contexts.push(Context {
            level,
            is_frame_root: true,
            adjust: 0,
            alloc: 0,
            high: 0,
            vec_alloc: 0,
            vec_high: 0,
            temps_base: 0,
            temps_used: 0,
            static_link_offset: None,
        });
        let fm = self.measure_frame(body, false)?;
        self.contexts.pop();
        self.close_scope();

        let info = Rc::new(ProcInfo {
            label: self.emit.new_label(),
            params: params
                .iter()
                .map(|p| super::Formal {
                    mode: p.mode,
                    is_vector: p.is_vector,
                })
                .collect(),
            frame_locals: fm.locals_total(),
            down: fm.down,
            level,
            static_link,
        });

        // Emit the body out of line.
        let after = self.emit.new_label();
        self.emit.insn_rel(Direct::Jump, after);
        self.emit.place(info.label);

        self.open_scope();
        for (i, p) in params.iter().enumerate() {
            let slot = Slot {
                level,
                offset: info.param_offset(i),
                adjust: 0,
            };
            self.bind(p.name, super::measure::param_binding(p, slot));
        }
        let sl_offset = info.param_offset(params.len());
        let scalar_base = fm.reserved_args + i64::from(TEMP_SLOTS as u32);
        self.contexts.push(Context {
            level,
            is_frame_root: true,
            adjust: 0,
            alloc: scalar_base,
            high: scalar_base,
            vec_alloc: fm.vector_base(),
            vec_high: fm.vector_base(),
            temps_base: fm.reserved_args,
            temps_used: 0,
            static_link_offset: Some(sl_offset),
        });
        // Prologue: make room for the frame below the linkage words.
        self.emit.insn(Direct::AdjustWorkspace, -fm.locals_total());
        self.gen_process(body)?;
        self.emit.insn(Direct::AdjustWorkspace, fm.locals_total());
        self.emit.op(Op::Return);
        debug_assert!(
            self.ctx_ref().high <= fm.vector_base() && self.ctx_ref().vec_high <= fm.locals_total(),
            "PROC {name}: allocation exceeded measurement"
        );
        self.contexts.pop();
        self.close_scope();
        self.emit.place(after);

        self.bind(name, Binding::Proc(info));
        Ok(())
    }

    // ---- calls ----

    fn gen_call(&mut self, name: &str, actuals: &[Expr], line: u32) -> Result<(), CompileError> {
        let info = match self.lookup(name) {
            Some(Binding::Proc(info)) => info.clone(),
            Some(_) => return Err(CompileError::check(line, format!("`{name}` is not a PROC"))),
            None => {
                return Err(CompileError::check(
                    line,
                    format!(
                        "call of undefined PROC `{name}` (note: occam forbids recursion — \
                         workspace is allocated statically)"
                    ),
                ))
            }
        };
        if actuals.len() != info.params.len() {
            return Err(CompileError::check(
                line,
                format!(
                    "`{name}` takes {} arguments, {} given",
                    info.params.len(),
                    actuals.len()
                ),
            ));
        }
        let total = info.total_args();
        // Arguments beyond three go to the reserved slots at the bottom
        // of the current workspace (callee sees them above its linkage).
        for i in 3..total {
            self.gen_actual(&info, actuals, i, line)?;
            self.emit.insn(Direct::StoreLocal, i as i64 - 3);
        }
        // Register arguments: loaded so that argument 0 ends in A.
        let in_regs = total.min(3);
        // Pre-evaluate any register argument too deep for its position.
        let mut temp_ops: Vec<Option<i64>> = vec![None; in_regs];
        for i in (0..in_regs).rev() {
            // Argument i is loaded (in_regs - 1 - i) loads before the
            // call... it is loaded after (in_regs-1-i) others are already
            // on the stack: allowed depth = 3 - (in_regs - 1 - i).
            let position_from_first = in_regs - 1 - i;
            let allowed = 3 - position_from_first as u32;
            if self.actual_depth(&info, actuals, i) > allowed {
                self.gen_actual(&info, actuals, i, line)?;
                let ctx = self.ctx();
                if ctx.temps_used >= i64::from(TEMP_SLOTS as u32) {
                    return Err(CompileError::codegen(
                        line,
                        "call arguments too complex: spill temporaries exhausted",
                    ));
                }
                let t = ctx.temps_base + ctx.temps_used;
                ctx.temps_used += 1;
                self.emit.insn(Direct::StoreLocal, t);
                temp_ops[i] = Some(t);
            }
        }
        for i in (0..in_regs).rev() {
            match temp_ops[i] {
                Some(t) => self.emit.insn(Direct::LoadLocal, t),
                None => self.gen_actual(&info, actuals, i, line)?,
            }
        }
        self.ctx().temps_used -= temp_ops.iter().flatten().count() as i64;
        self.emit.insn_rel(Direct::Call, info.label);
        Ok(())
    }

    /// Depth needed to evaluate actual `i` (static link counts as a
    /// one-deep pointer load).
    fn actual_depth(&self, info: &ProcInfo, actuals: &[Expr], i: usize) -> u32 {
        if i >= info.params.len() {
            return 1; // static link
        }
        let formal = info.params[i];
        if formal.is_vector {
            return 1; // a base address
        }
        match (formal.mode, &actuals[i]) {
            (ParamMode::Value, e) => self.depth(e),
            (_, Expr::Index(_, idx)) => (self.depth(idx) + 1).max(2),
            _ => 1,
        }
    }

    /// Evaluate actual `i` onto the stack (value, variable address, or
    /// channel address according to the formal's mode); `i == params.len()`
    /// is the implicit static link.
    fn gen_actual(
        &mut self,
        info: &ProcInfo,
        actuals: &[Expr],
        i: usize,
        line: u32,
    ) -> Result<(), CompileError> {
        if i >= info.params.len() {
            // Static link: base of the frame the callee was declared in
            // (level info.level - 1).
            let target = info.level - 1;
            if target == self.level() {
                self.emit
                    .insn(Direct::LoadLocalPointer, self.ctx_ref().adjust);
            } else {
                self.emit_chain_to(target, line)?;
            }
            return Ok(());
        }
        let formal = info.params[i];
        if formal.is_vector {
            // A whole vector (or channel vector): pass the base address.
            let Expr::Name(name) = actuals[i] else {
                return Err(CompileError::check(
                    line,
                    "a vector parameter needs a whole vector as its argument",
                ));
            };
            return match (formal.mode, self.lookup(name).cloned()) {
                (ParamMode::Chan, Some(Binding::ChanVec(slot, _))) => {
                    self.gen_chanvec_base(slot, line)
                }
                (ParamMode::Chan, Some(Binding::ChanVecParam(slot))) => {
                    self.gen_param_word(slot, line)
                }
                (ParamMode::Chan, _) => Err(CompileError::check(
                    line,
                    format!("`{name}` is not a channel vector"),
                )),
                (_, Some(Binding::Vec(..))) | (_, Some(Binding::VecParam(..))) => {
                    self.gen_vector_base_addr(name, line)
                }
                _ => Err(CompileError::check(
                    line,
                    format!("`{name}` is not a vector"),
                )),
            };
        }
        let actual = &actuals[i];
        match formal.mode {
            ParamMode::Value => self.gen_expr(actual, line),
            ParamMode::Var => {
                let (name, idx) = actual.as_place().ok_or_else(|| {
                    CompileError::check(line, "a VAR parameter needs a variable argument")
                })?;
                self.gen_var_addr(name, idx, line)
            }
            ParamMode::Chan => {
                let place = actual.as_place().ok_or_else(|| {
                    CompileError::check(line, "a CHAN parameter needs a channel argument")
                })?;
                self.gen_chan_addr(place, line)
            }
        }
    }

    /// Base address of a declared channel vector.
    fn gen_chanvec_base(&mut self, slot: Slot, line: u32) -> Result<(), CompileError> {
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

    /// Value of a parameter word (an address being forwarded).
    fn gen_param_word(&mut self, slot: Slot, line: u32) -> Result<(), CompileError> {
        if slot.level == self.level() {
            self.emit.insn(Direct::LoadLocal, self.slot_operand(slot));
        } else {
            self.emit_chain_to(slot.level, line)?;
            self.emit
                .insn(Direct::LoadNonLocal, slot.offset - slot.adjust);
        }
        Ok(())
    }

    // ---- replication ----

    fn gen_replicated_seq(
        &mut self,
        r: &'a Replicator<'a>,
        body: &'a [Process<'a>],
        line: u32,
    ) -> Result<(), CompileError> {
        let save_alloc = self.ctx_ref().alloc;
        let ctrl = self.ctx().alloc_words(2);
        let level = self.level();
        let adjust = self.ctx_ref().adjust;
        self.open_scope();
        // The replicator variable *is* the control block's index word,
        // maintained by `loop end`.
        self.bind(
            r.var,
            Binding::Var(Slot {
                level,
                offset: ctrl,
                adjust,
            }),
        );
        self.gen_expr(&r.base, line)?;
        self.emit.insn(Direct::StoreLocal, ctrl);
        self.gen_expr(&r.count, line)?;
        self.emit.insn(Direct::StoreLocal, ctrl + 1);
        let end = self.emit.new_label();
        let top = self.emit.new_label();
        // A compile-time-constant count makes the loop statically
        // boundable; record it for the cycle-cost model.
        if let Some(n) = self.const_eval(&r.count) {
            let count = u32::try_from(n.max(0)).unwrap_or(u32::MAX);
            self.counted_loops.push((top, end, count));
        }
        // A replication count of zero (or less) runs the body no times.
        self.emit.insn(Direct::LoadLocal, ctrl + 1);
        self.emit.insn(Direct::LoadConstant, 0);
        self.emit.op(Op::GreaterThan);
        self.emit.insn_rel(Direct::ConditionalJump, end);
        self.emit.place(top);
        for p in body {
            self.gen_process(p)?;
        }
        self.emit.insn(Direct::LoadLocalPointer, ctrl);
        // `loop end` takes the positive distance back to the loop head.
        let a = self.emit.ldc_rel_back(top);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoopEnd);
        self.emit.place(end);
        self.close_scope();
        self.ctx().alloc = save_alloc;
        Ok(())
    }

    // ---- PAR ----

    fn gen_par(
        &mut self,
        repl: Option<&'a Replicator<'a>>,
        branches: &'a [Process<'a>],
        line: u32,
    ) -> Result<(), CompileError> {
        // Expand replication into per-copy branch descriptors.
        struct BranchPlan<'a> {
            process: &'a Process<'a>,
            fm: FrameMeasure,
            /// Workspace offset (from the lowered pointer) of the branch
            /// workspace pointer.
            wptr_off: i64,
            /// Replicator value, if replicated.
            repl_value: Option<i64>,
        }

        match repl {
            None => {
                let refs: Vec<&Process> = branches.iter().collect();
                self.par_usage_check(&refs, false, line)?;
            }
            Some(_) => {
                let refs: Vec<&Process> = branches.iter().collect();
                self.par_usage_check(&refs, true, line)?;
            }
        }
        let mut plans: Vec<BranchPlan<'_>> = Vec::new();
        let mut region = 2i64;
        match repl {
            None => {
                if branches.is_empty() {
                    return Ok(()); // PAR with no components is SKIP
                }
                for b in branches {
                    let fm = self.measure_frame(b, false)?;
                    let wptr_off = region + fm.down;
                    region += fm.chunk();
                    plans.push(BranchPlan {
                        process: b,
                        fm,
                        wptr_off,
                        repl_value: None,
                    });
                }
            }
            Some(r) => {
                let count = self.require_const(&r.count, line, "PAR replication count")?;
                let base = self.require_const(&r.base, line, "PAR replication base")?;
                if self.word(base + count - 1).is_none() {
                    return Err(CompileError::codegen(
                        line,
                        format!("PAR replicator values {base} FOR {count} leave the word"),
                    ));
                }
                let fm = self.measure_frame(&branches[0], true)?;
                for i in 0..count {
                    let wptr_off = region + fm.down;
                    region += fm.chunk();
                    plans.push(BranchPlan {
                        process: &branches[0],
                        fm,
                        wptr_off,
                        repl_value: Some(base + i),
                    });
                }
            }
        }
        let n = region;
        let k = plans.len() as i64;

        // Lower the workspace over the PAR region.
        self.emit.insn(Direct::AdjustWorkspace, -n);
        self.ctx().adjust += n;

        // Control block: join address and count.
        let join = self.emit.new_label();
        let a = self.emit.ldc_rel(join);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoadPointerToInstruction);
        self.emit.insn(Direct::StoreLocal, 0);
        self.emit.insn(Direct::LoadConstant, k);
        self.emit.insn(Direct::StoreLocal, 1);

        // Start every branch but the last as a new process (§3.2.4).
        let labels: Vec<Label> = plans.iter().map(|_| self.emit.new_label()).collect();
        for (i, plan) in plans.iter().enumerate().take(plans.len() - 1) {
            if let Some(v) = plan.repl_value {
                // Initialise the copy's replicator variable (its first
                // frame word after args and temps).
                let var_off = plan.fm.reserved_args + i64::from(TEMP_SLOTS as u32);
                self.emit.insn(Direct::LoadConstant, v);
                self.emit.insn(Direct::StoreLocal, plan.wptr_off + var_off);
            }
            let a = self.emit.ldc_rel(labels[i]);
            self.emit.insn(Direct::LoadLocalPointer, plan.wptr_off);
            self.emit.bind_anchor(a);
            self.emit.op(Op::StartProcess);
        }

        // The constructing process executes the last branch itself.
        let last = plans.last().expect("at least one branch");
        self.emit.insn(Direct::AdjustWorkspace, last.wptr_off);
        self.ctx().adjust -= last.wptr_off;
        let parent_repl = repl.map(|r| (r.var, last.repl_value));
        self.gen_branch_body(last.process, last.fm, parent_repl, line)?;
        self.emit.insn(Direct::LoadLocalPointer, -last.wptr_off);
        self.emit.op(Op::EndProcess);
        self.ctx().adjust += last.wptr_off;

        // Children bodies, each ending in `end process`. Replicated
        // children had their replicator word initialised by the parent
        // before `start process`; here it is only bound, not written.
        for (i, plan) in plans.iter().enumerate().take(plans.len() - 1) {
            self.emit.place(labels[i]);
            let saved_adjust = self.ctx_ref().adjust;
            self.ctx().adjust -= plan.wptr_off;
            let child_repl = repl.map(|r| (r.var, None));
            self.gen_branch_body(plan.process, plan.fm, child_repl, line)?;
            self.emit.insn(Direct::LoadLocalPointer, -plan.wptr_off);
            self.emit.op(Op::EndProcess);
            self.ctx().adjust = saved_adjust;
        }

        // Join: the last terminating component resumes here with the
        // workspace pointer at the control block; restore it.
        self.emit.place(join);
        self.emit.insn(Direct::AdjustWorkspace, n);
        self.ctx().adjust -= n;
        Ok(())
    }

    /// Generate a branch's body inside its own allocation context.
    /// `repl` carries the replicator variable name and, for the
    /// parent-run copy only, the value to initialise it with.
    fn gen_branch_body(
        &mut self,
        p: &'a Process<'a>,
        fm: FrameMeasure,
        repl: Option<(&'a str, Option<i64>)>,
        line: u32,
    ) -> Result<(), CompileError> {
        let level = self.level();
        let adjust = self.ctx_ref().adjust;
        let base = fm.reserved_args + i64::from(TEMP_SLOTS as u32);
        self.contexts.push(Context {
            level,
            is_frame_root: false,
            adjust,
            alloc: base,
            high: base,
            vec_alloc: fm.vector_base(),
            vec_high: fm.vector_base(),
            temps_base: fm.reserved_args,
            temps_used: 0,
            static_link_offset: None,
        });
        self.open_scope();
        if let Some((var, value)) = repl {
            // The replicator variable is the branch frame's first word.
            let off = self.ctx().alloc_words(1);
            debug_assert_eq!(off, base);
            self.bind(
                var,
                Binding::Var(Slot {
                    level,
                    offset: off,
                    adjust,
                }),
            );
            if let Some(v) = value {
                self.emit.insn(Direct::LoadConstant, v);
                self.emit.insn(Direct::StoreLocal, off);
            }
        }
        self.gen_process(p)?;
        debug_assert!(
            self.ctx_ref().high <= fm.vector_base() && self.ctx_ref().vec_high <= fm.locals_total(),
            "PAR branch allocation exceeded measurement (line {line})"
        );
        self.close_scope();
        self.contexts.pop();
        Ok(())
    }

    // ---- PRI PAR ----

    fn gen_pri_par(&mut self, branches: &'a [Process<'a>], line: u32) -> Result<(), CompileError> {
        if branches.len() != 2 {
            return Err(CompileError::codegen(
                line,
                "PRI PAR takes exactly two components (high then low)",
            ));
        }
        let refs: Vec<&Process> = branches.iter().collect();
        self.pri_par_usage_check(&refs, line);
        let fm_hi = self.measure_frame(&branches[0], false)?;
        let fm_lo = self.measure_frame(&branches[1], false)?;
        let hi_off = 3 + fm_hi.down;
        let lo_off = 3 + fm_hi.chunk() + fm_lo.down;
        let n = 3 + fm_hi.chunk() + fm_lo.chunk();

        self.emit.insn(Direct::AdjustWorkspace, -n);
        self.ctx().adjust += n;

        let join = self.emit.new_label();
        let a = self.emit.ldc_rel(join);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoadPointerToInstruction);
        self.emit.insn(Direct::StoreLocal, 0);
        self.emit.insn(Direct::LoadConstant, 2);
        self.emit.insn(Direct::StoreLocal, 1);
        // Remember the construct's own priority for the join.
        self.emit.op(Op::LoadPriority);
        self.emit.insn(Direct::StoreLocal, 2);

        // High branch: seed its saved Iptr and run it at priority 0.
        let hi_label = self.emit.new_label();
        let a = self.emit.ldc_rel(hi_label);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoadPointerToInstruction);
        self.emit.insn(Direct::StoreLocal, hi_off - 1); // child w[-1] := entry
        self.emit.insn(Direct::LoadLocalPointer, hi_off); // descriptor: bit 0 = 0 = high
        self.emit.op(Op::RunProcess);

        // Low branch runs in the constructing process.
        self.emit.insn(Direct::AdjustWorkspace, lo_off);
        self.ctx().adjust -= lo_off;
        self.gen_branch_body(&branches[1], fm_lo, None, line)?;
        self.emit.insn(Direct::LoadLocalPointer, -lo_off);
        self.emit.op(Op::EndProcess);
        self.ctx().adjust += lo_off;

        // High branch body.
        self.emit.place(hi_label);
        let saved = self.ctx_ref().adjust;
        self.ctx().adjust -= hi_off;
        self.gen_branch_body(&branches[0], fm_hi, None, line)?;
        self.emit.insn(Direct::LoadLocalPointer, -hi_off);
        self.emit.op(Op::EndProcess);
        self.ctx().adjust = saved;

        // Join: restore the construct's original priority if the last
        // finisher left us high while the construct began low.
        self.emit.place(join);
        let same = self.emit.new_label();
        self.emit.op(Op::LoadPriority);
        self.emit.insn(Direct::LoadLocal, 2);
        self.emit.op(Op::Difference);
        self.emit.insn_rel(Direct::ConditionalJump, same);
        // Demote: requeue ourselves at low priority and stop; the queued
        // descriptor resumes at the instruction after `stopp`.
        self.emit.insn(Direct::LoadLocalPointer, 0);
        self.emit.insn(Direct::AddConstant, 1);
        self.emit.op(Op::RunProcess);
        self.emit.op(Op::StopProcess);
        self.emit.place(same);
        self.emit.insn(Direct::AdjustWorkspace, n);
        self.ctx().adjust -= n;
        Ok(())
    }

    // ---- ALT ----

    fn gen_alt(&mut self, alts: &'a [Alternative<'a>], line: u32) -> Result<(), CompileError> {
        let has_timer = alts.iter().any(|a| matches!(a.kind, AltKind::Timeout(_)));
        self.emit.op(if has_timer { Op::TimerAlt } else { Op::Alt });

        // Enable every guard (§3.2.10: "instructions for enabling and
        // disabling channels provide support for an implementation of
        // alternative input without the use of polling").
        for alt in alts {
            match &alt.kind {
                AltKind::Input(c, _) => {
                    let pre = self.pre_guard(alt)?;
                    self.gen_chan_addr(c.parts(), alt.pos.line)?;
                    self.load_guard(alt, pre)?;
                    self.emit.op(Op::EnableChannel);
                }
                AltKind::Timeout(t) => {
                    let pre = self.pre_guard(alt)?;
                    self.gen_expr(t, alt.pos.line)?;
                    self.load_guard(alt, pre)?;
                    self.emit.op(Op::EnableTimer);
                }
                AltKind::Skip => {
                    self.gen_guard(alt)?;
                    self.emit.op(Op::EnableSkip);
                }
            }
        }
        self.emit.op(if has_timer {
            Op::TimerAltWait
        } else {
            Op::AltWait
        });

        // Disable in the same (priority) order; the first ready guard
        // records its branch offset in workspace 0.
        let branch_labels: Vec<Label> = alts.iter().map(|_| self.emit.new_label()).collect();
        let mut anchors = Vec::new();
        for (alt, label) in alts.iter().zip(&branch_labels) {
            match &alt.kind {
                AltKind::Input(c, _) => {
                    let pre = self.pre_guard(alt)?;
                    self.gen_chan_addr(c.parts(), alt.pos.line)?;
                    self.load_guard(alt, pre)?;
                    anchors.push(self.emit.ldc_rel(*label));
                    self.emit.op(Op::DisableChannel);
                }
                AltKind::Timeout(t) => {
                    let pre = self.pre_guard(alt)?;
                    self.gen_expr(t, alt.pos.line)?;
                    self.load_guard(alt, pre)?;
                    anchors.push(self.emit.ldc_rel(*label));
                    self.emit.op(Op::DisableTimer);
                }
                AltKind::Skip => {
                    self.gen_guard(alt)?;
                    anchors.push(self.emit.ldc_rel(*label));
                    self.emit.op(Op::DisableSkip);
                }
            }
        }
        // All branch offsets are measured from the end of `alt end`.
        for a in anchors {
            self.emit.bind_anchor(a);
        }
        self.emit.op(Op::AltEnd);

        let end = self.emit.new_label();
        for (alt, label) in alts.iter().zip(&branch_labels) {
            self.emit.place(*label);
            if let AltKind::Input(c, lv) = &alt.kind {
                // The selected input now transfers the message from the
                // outputter parked in the channel.
                if self.chan_depth(c) >= 3 {
                    self.gen_chan_addr(c.parts(), alt.pos.line)?;
                    let t = self.park_a(alt.pos.line)?;
                    self.gen_lvalue_addr(lv, alt.pos.line)?;
                    self.emit.insn(Direct::LoadLocal, t);
                    self.temp_done();
                } else {
                    self.gen_lvalue_addr(lv, alt.pos.line)?;
                    self.gen_chan_addr(c.parts(), alt.pos.line)?;
                }
                self.gen_word_count();
                self.emit.op(Op::InputMessage);
            }
            self.gen_process(&alt.body)?;
            self.emit.insn_rel(Direct::Jump, end);
        }
        self.emit.place(end);
        let _ = line;
        Ok(())
    }

    /// Replicated ALT: `ALT i = [base FOR count]` with one alternative.
    /// The enable and disable sequences loop over the replication at run
    /// time; the disable records which index was selected, and the body
    /// runs with the replicator bound to that index.
    fn gen_replicated_alt(
        &mut self,
        r: &'a Replicator<'a>,
        alt: &'a Alternative<'a>,
        line: u32,
    ) -> Result<(), CompileError> {
        let has_timer = matches!(alt.kind, AltKind::Timeout(_));
        let save_alloc = self.ctx_ref().alloc;
        let ctrl = self.ctx().alloc_words(2);
        let sel = self.ctx().alloc_words(1);
        let level = self.level();
        let adjust = self.ctx_ref().adjust;
        self.open_scope();
        self.bind(
            r.var,
            Binding::Var(Slot {
                level,
                offset: ctrl,
                adjust,
            }),
        );

        self.emit.op(if has_timer { Op::TimerAlt } else { Op::Alt });

        // A loop of enables over the replication range.
        let init = |cg: &mut Cg, r: &Replicator, line: u32| -> Result<(), CompileError> {
            cg.gen_expr(&r.base, line)?;
            cg.emit.insn(Direct::StoreLocal, ctrl);
            cg.gen_expr(&r.count, line)?;
            cg.emit.insn(Direct::StoreLocal, ctrl + 1);
            Ok(())
        };
        init(self, r, line)?;
        let enable_end = self.emit.new_label();
        let enable_top = self.emit.new_label();
        self.emit.insn(Direct::LoadLocal, ctrl + 1);
        self.emit.insn(Direct::LoadConstant, 0);
        self.emit.op(Op::GreaterThan);
        self.emit.insn_rel(Direct::ConditionalJump, enable_end);
        self.emit.place(enable_top);
        match &alt.kind {
            AltKind::Input(c, _) => {
                let pre = self.pre_guard(alt)?;
                self.gen_chan_addr(c.parts(), alt.pos.line)?;
                self.load_guard(alt, pre)?;
                self.emit.op(Op::EnableChannel);
            }
            AltKind::Timeout(t) => {
                let pre = self.pre_guard(alt)?;
                self.gen_expr(t, alt.pos.line)?;
                self.load_guard(alt, pre)?;
                self.emit.op(Op::EnableTimer);
            }
            AltKind::Skip => {
                self.gen_guard(alt)?;
                self.emit.op(Op::EnableSkip);
            }
        }
        self.emit.insn(Direct::LoadLocalPointer, ctrl);
        let a = self.emit.ldc_rel_back(enable_top);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoopEnd);
        self.emit.place(enable_end);

        self.emit.op(if has_timer {
            Op::TimerAltWait
        } else {
            Op::AltWait
        });

        // A loop of disables; the iteration whose guard fired first
        // records its index in `sel`.
        init(self, r, line)?;
        let disable_end = self.emit.new_label();
        let disable_top = self.emit.new_label();
        let branch = self.emit.new_label();
        self.emit.insn(Direct::LoadLocal, ctrl + 1);
        self.emit.insn(Direct::LoadConstant, 0);
        self.emit.op(Op::GreaterThan);
        self.emit.insn_rel(Direct::ConditionalJump, disable_end);
        self.emit.place(disable_top);
        let mut anchors = Vec::new();
        match &alt.kind {
            AltKind::Input(c, _) => {
                let pre = self.pre_guard(alt)?;
                self.gen_chan_addr(c.parts(), alt.pos.line)?;
                self.load_guard(alt, pre)?;
                anchors.push(self.emit.ldc_rel(branch));
                self.emit.op(Op::DisableChannel);
            }
            AltKind::Timeout(t) => {
                let pre = self.pre_guard(alt)?;
                self.gen_expr(t, alt.pos.line)?;
                self.load_guard(alt, pre)?;
                anchors.push(self.emit.ldc_rel(branch));
                self.emit.op(Op::DisableTimer);
            }
            AltKind::Skip => {
                self.gen_guard(alt)?;
                anchors.push(self.emit.ldc_rel(branch));
                self.emit.op(Op::DisableSkip);
            }
        }
        // disc/dist/diss left TRUE if this iteration made the selection.
        let not_selected = self.emit.new_label();
        self.emit.insn_rel(Direct::ConditionalJump, not_selected);
        self.emit.insn(Direct::LoadLocal, ctrl);
        self.emit.insn(Direct::StoreLocal, sel);
        self.emit.place(not_selected);
        self.emit.insn(Direct::LoadLocalPointer, ctrl);
        let a = self.emit.ldc_rel_back(disable_top);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoopEnd);
        self.emit.place(disable_end);
        for a in anchors {
            self.emit.bind_anchor(a);
        }
        self.emit.op(Op::AltEnd);

        // The single branch: rebind the replicator to the selected index.
        self.emit.place(branch);
        self.close_scope();
        self.open_scope();
        self.bind(
            r.var,
            Binding::Var(Slot {
                level,
                offset: sel,
                adjust,
            }),
        );
        if let AltKind::Input(c, lv) = &alt.kind {
            if self.chan_depth(c) >= 3 {
                self.gen_chan_addr(c.parts(), alt.pos.line)?;
                let t = self.park_a(alt.pos.line)?;
                self.gen_lvalue_addr(lv, alt.pos.line)?;
                self.emit.insn(Direct::LoadLocal, t);
                self.temp_done();
            } else {
                self.gen_lvalue_addr(lv, alt.pos.line)?;
                self.gen_chan_addr(c.parts(), alt.pos.line)?;
            }
            self.gen_word_count();
            self.emit.op(Op::InputMessage);
        }
        self.gen_process(&alt.body)?;
        self.close_scope();
        self.ctx().alloc = save_alloc;
        Ok(())
    }

    fn gen_guard(&mut self, alt: &Alternative) -> Result<(), CompileError> {
        match &alt.guard {
            None => self.emit.insn(Direct::LoadConstant, 1),
            Some(g) => self.gen_expr(g, alt.pos.line)?,
        }
        Ok(())
    }

    /// Pre-evaluate a deep guard into a temporary before the channel or
    /// time goes on the stack (the stack is only three deep, §3.2.9).
    fn pre_guard(&mut self, alt: &Alternative) -> Result<Option<i64>, CompileError> {
        match &alt.guard {
            Some(g) if self.depth(g) >= 3 => {
                self.gen_expr(g, alt.pos.line)?;
                Ok(Some(self.park_a(alt.pos.line)?))
            }
            _ => Ok(None),
        }
    }

    /// Put the guard value in A: reload a pre-evaluated one or evaluate
    /// in place.
    fn load_guard(&mut self, alt: &Alternative, pre: Option<i64>) -> Result<(), CompileError> {
        match pre {
            Some(t) => {
                self.emit.insn(Direct::LoadLocal, t);
                self.temp_done();
                Ok(())
            }
            None => self.gen_guard(alt),
        }
    }
}
