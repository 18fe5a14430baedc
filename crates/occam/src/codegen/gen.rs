//! Process and construct code generation.

use super::measure::{decl_binding, param_binding, pri_par_pair, FrameMeasure};
use super::{Binding, Cg, Context, ProcInfo, Slot};
use super::{PAR_BLOCK, PRI_PAR_BLOCK, REPL_ALT_BLOCK, REPL_SEQ_BLOCK};
use crate::ast::{AltKind, Alternative, ChanRef, Decl, Expr, Lvalue, Param, ParamMode};
use crate::ast::{Process, Replicator};
use crate::emit::{Anchor, Label};
use crate::error::CompileError;
use transputer::instr::{Direct, Op};

/// One component of a `PAR` as laid out in its region.
struct Component<'a> {
    process: &'a Process<'a>,
    fm: FrameMeasure,
    /// Offset of the component's workspace pointer from the region's
    /// base.
    wptr_off: i64,
    /// The replicator value, for a copy of a replicated `PAR`.
    repl_value: Option<i64>,
}

/// The operations that open an `ALT` and wait for it: the timer forms
/// when a guard waits on the clock.
fn alt_ops(timed: bool) -> (Op, Op) {
    if timed {
        (Op::TimerAlt, Op::TimerAltWait)
    } else {
        (Op::Alt, Op::AltWait)
    }
}

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
                // `c ! e` — `outword` (A = channel, B = value), using
                // workspace 0 as the buffer.
                self.gen_under_chan(c, pos.line, |cg| cg.gen_expr(e, pos.line))?;
                self.emit.op(Op::OutputWord);
                Ok(())
            }
            Process::Input(c, lv, pos) => self.gen_input(c, lv, pos.line),
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
            Process::Alt(None, alts, _) => self.gen_alt(alts),
            Process::Alt(Some(r), alts, pos) => self.gen_replicated_alt(r, &alts[0], pos.line),
            Process::If(conds, _) => {
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

    // ---- channels ----

    /// Leave `below`'s value in B and the address of channel `c` in A.
    /// A channel subscript deep enough to need the whole stack is
    /// computed first and parked in a temporary.
    fn gen_under_chan(
        &mut self,
        c: &ChanRef,
        line: u32,
        below: impl FnOnce(&mut Self) -> Result<(), CompileError>,
    ) -> Result<(), CompileError> {
        let deep = self.chan_depth(c) >= 3;
        self.gen_pair(deep, line, below, |cg| cg.gen_chan_addr(c.parts(), line))
    }

    /// `c ? v` — destination pointer, channel, count, `in`.
    fn gen_input(&mut self, c: &ChanRef, lv: &Lvalue, line: u32) -> Result<(), CompileError> {
        self.gen_under_chan(c, line, |cg| cg.gen_lvalue_addr(lv, line))?;
        self.gen_word_count();
        self.emit.op(Op::InputMessage);
        Ok(())
    }

    // ---- declarations ----

    fn gen_decl(&mut self, d: &'a Decl<'a>, line: u32) -> Result<(), CompileError> {
        match d {
            Decl::Var(items) | Decl::Chan(items) => {
                let is_chan = matches!(d, Decl::Chan(_));
                for (name, size) in items {
                    let size = match size {
                        Some(e) => Some(self.vector_size(name, e, is_chan, line)?),
                        None => None,
                    };
                    let off = match size {
                        Some(n) => self.ctx().alloc_vector(n),
                        None => self.ctx().alloc_words(1),
                    };
                    if is_chan {
                        // Channel words start empty (NotProcess).
                        for k in 0..size.unwrap_or(1) {
                            self.emit.op(Op::MinimumInteger);
                            self.emit.insn(Direct::StoreLocal, off + k);
                        }
                    }
                    self.bind(name, decl_binding(is_chan, size, self.local_slot(off)));
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
        params: &'a [Param<'a>],
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
        let info = self.describe_proc(params, body, level)?;
        let fm = info.frame;

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
            self.bind(p.name, param_binding(p, slot));
        }
        let static_link = info.param_offset(params.len());
        self.contexts
            .push(Context::frame(&fm, level, Some(static_link)));
        // Prologue: make room for the frame below the linkage words.
        self.emit.insn(Direct::AdjustWorkspace, -fm.locals_total());
        self.gen_process(body)?;
        self.emit.insn(Direct::AdjustWorkspace, fm.locals_total());
        self.emit.op(Op::Return);
        self.close_context(&fm, line)?;
        self.close_scope();
        self.emit.place(after);

        self.bind(name, Binding::Proc(info));
        Ok(())
    }

    // ---- calls ----

    fn gen_call(&mut self, name: &str, actuals: &[Expr], line: u32) -> Result<(), CompileError> {
        let info = self.resolve_call(name, actuals.len(), line)?;
        let total = info.total_args();
        // Arguments beyond three go to the reserved slots at the bottom
        // of the current workspace (callee sees them above its linkage).
        for i in 3..total {
            self.gen_actual(&info, actuals, i, line)?;
            self.emit.insn(Direct::StoreLocal, i as i64 - 3);
        }
        // Register arguments: loaded so that argument 0 ends in A.
        let in_regs = total.min(3);
        // Pre-evaluate any register argument too deep for its position:
        // argument i is loaded after (in_regs - 1 - i) others are already
        // on the stack, so it may use the rest.
        let mut temp_ops: Vec<Option<i64>> = vec![None; in_regs];
        for i in (0..in_regs).rev() {
            let allowed = 3 - (in_regs - 1 - i) as u32;
            if self.actual_depth(&info, actuals, i) > allowed {
                self.gen_actual(&info, actuals, i, line)?;
                let t = self.take_temp(line, "call arguments")?;
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
            (_, Expr::Index(_, idx)) => self.subscript_depth(idx),
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
            let (vector, what) = match formal.mode {
                ParamMode::Chan => (
                    self.lookup(name).and_then(Binding::chan_vector),
                    "channel vector",
                ),
                _ => (self.lookup(name).and_then(Binding::word_vector), "vector"),
            };
            let v = vector
                .ok_or_else(|| CompileError::check(line, format!("`{name}` is not a {what}")))?;
            return self.emit_vec_base(v.base, line);
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

    // ---- replication ----

    /// Emit a counted loop over the control block at `ctrl` (the index
    /// word, then the count left): initialise the block from `r`, skip
    /// the loop when the count is not positive, run `body`, and close
    /// with `lend`. Returns `body`'s result and the loop's head and end.
    fn gen_counted_loop<T>(
        &mut self,
        r: &Replicator,
        ctrl: i64,
        line: u32,
        body: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<(T, Label, Label), CompileError> {
        self.gen_expr(&r.base, line)?;
        self.emit.insn(Direct::StoreLocal, ctrl);
        self.gen_expr(&r.count, line)?;
        self.emit.insn(Direct::StoreLocal, ctrl + 1);
        let end = self.emit.new_label();
        let top = self.emit.new_label();
        self.emit.insn(Direct::LoadLocal, ctrl + 1);
        self.emit.insn(Direct::LoadConstant, 0);
        self.emit.op(Op::GreaterThan);
        self.emit.insn_rel(Direct::ConditionalJump, end);
        self.emit.place(top);
        let result = body(self)?;
        self.emit.insn(Direct::LoadLocalPointer, ctrl);
        // `loop end` takes the positive distance back to the loop head.
        let a = self.emit.ldc_rel_back(top);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoopEnd);
        self.emit.place(end);
        Ok((result, top, end))
    }

    fn gen_replicated_seq(
        &mut self,
        r: &'a Replicator<'a>,
        body: &'a [Process<'a>],
        line: u32,
    ) -> Result<(), CompileError> {
        let save_alloc = self.ctx_ref().alloc;
        let ctrl = self.ctx().alloc_words(REPL_SEQ_BLOCK);
        self.open_scope();
        // The replicator variable *is* the control block's index word,
        // maintained by `loop end`.
        self.bind(r.var, Binding::Var(self.local_slot(ctrl)));
        let ((), top, end) = self.gen_counted_loop(r, ctrl, line, |cg| {
            body.iter().try_for_each(|p| cg.gen_process(p))
        })?;
        // A compile-time-constant count makes the loop statically
        // boundable; record it for the cycle-cost model.
        if let Some(n) = self.const_eval(&r.count) {
            let count = u32::try_from(n.max(0)).unwrap_or(u32::MAX);
            self.counted_loops.push((top, end, count));
        }
        self.close_scope();
        self.ctx().alloc = save_alloc;
        Ok(())
    }

    // ---- PAR ----

    /// Lower the workspace over a `PAR` region of `n` words and write the
    /// start of its control block: the join address, then the `count`
    /// of components still running. Returns the join label.
    fn open_par_region(&mut self, n: i64, count: i64) -> Label {
        self.emit.insn(Direct::AdjustWorkspace, -n);
        self.ctx().adjust += n;
        let join = self.emit.new_label();
        self.gen_code_address(join);
        self.emit.insn(Direct::StoreLocal, 0);
        self.emit.insn(Direct::LoadConstant, count);
        self.emit.insn(Direct::StoreLocal, 1);
        join
    }

    /// Raise the workspace back over a `PAR` region of `n` words.
    fn close_par_region(&mut self, n: i64) {
        self.emit.insn(Direct::AdjustWorkspace, n);
        self.ctx().adjust -= n;
    }

    /// Leave the address of `label` in A.
    fn gen_code_address(&mut self, label: Label) {
        let a = self.emit.ldc_rel(label);
        self.emit.bind_anchor(a);
        self.emit.op(Op::LoadPointerToInstruction);
    }

    fn gen_par(
        &mut self,
        repl: Option<&'a Replicator<'a>>,
        branches: &'a [Process<'a>],
        line: u32,
    ) -> Result<(), CompileError> {
        let refs: Vec<&Process> = branches.iter().collect();
        self.par_usage_check(&refs, repl.is_some(), line)?;
        if branches.is_empty() {
            return Ok(()); // PAR with no components is SKIP
        }
        // Expand replication into one component per copy.
        let members: Vec<(&'a Process<'a>, FrameMeasure, Option<i64>)> = match repl {
            None => branches
                .iter()
                .map(|b| Ok((b, self.measure_frame(b, None)?, None)))
                .collect::<Result<_, CompileError>>()?,
            Some(r) => {
                let count = self.par_replication_count(r, line)?;
                let base = self.require_const(&r.base, line, "PAR replication base")?;
                if self.word(base + count - 1).is_none() {
                    return Err(CompileError::codegen(
                        line,
                        format!("PAR replicator values {base} FOR {count} leave the word"),
                    ));
                }
                let fm = self.measure_frame(&branches[0], Some(r.var))?;
                (0..count)
                    .map(|i| (&branches[0], fm, Some(base + i)))
                    .collect()
            }
        };
        let mut region = PAR_BLOCK;
        let mut plans = Vec::new();
        for (process, fm, repl_value) in members {
            plans.push(Component {
                process,
                fm,
                wptr_off: region + fm.down,
                repl_value,
            });
            region += fm.chunk();
        }
        let join = self.open_par_region(region, plans.len() as i64);

        // Start every component but the last as a new process (§3.2.4).
        let (last, children) = plans.split_last().expect("at least one component");
        let labels: Vec<Label> = children.iter().map(|_| self.emit.new_label()).collect();
        for (plan, &label) in children.iter().zip(&labels) {
            if let Some(v) = plan.repl_value {
                // Initialise the copy's replicator variable (its first
                // scalar word).
                self.emit.insn(Direct::LoadConstant, v);
                self.emit
                    .insn(Direct::StoreLocal, plan.wptr_off + plan.fm.scalar_base());
            }
            let a = self.emit.ldc_rel(label);
            self.emit.insn(Direct::LoadLocalPointer, plan.wptr_off);
            self.emit.bind_anchor(a);
            self.emit.op(Op::StartProcess);
        }

        // The constructing process executes the last component itself.
        self.emit.insn(Direct::AdjustWorkspace, last.wptr_off);
        let last_repl = repl.map(|r| (r.var, last.repl_value));
        self.gen_component(last, last_repl, line)?;

        // Children bodies, each ending in `end process`. Replicated
        // children had their replicator word initialised by the parent
        // before `start process`; here it is only bound, not written.
        for (plan, &label) in children.iter().zip(&labels) {
            self.emit.place(label);
            self.gen_component(plan, repl.map(|r| (r.var, None)), line)?;
        }

        // Join: the last terminating component resumes here with the
        // workspace pointer at the control block; restore it.
        self.emit.place(join);
        self.close_par_region(region);
        Ok(())
    }

    /// Generate a component whose workspace pointer sits `wptr_off`
    /// words above the region's base, in its own allocation context,
    /// ending in `end process` on the region's control block. `repl`
    /// carries the replicator variable name and, for the parent-run copy
    /// only, the value to initialise it with.
    fn gen_component(
        &mut self,
        c: &Component<'a>,
        repl: Option<(&'a str, Option<i64>)>,
        line: u32,
    ) -> Result<(), CompileError> {
        self.ctx().adjust -= c.wptr_off;
        let branch = Context {
            is_frame_root: false,
            adjust: self.ctx_ref().adjust,
            ..Context::frame(&c.fm, self.level(), None)
        };
        self.contexts.push(branch);
        self.open_scope();
        if let Some((var, value)) = repl {
            // The replicator variable is the branch frame's first word.
            let off = self.ctx().alloc_words(1);
            self.bind(var, Binding::Var(self.local_slot(off)));
            if let Some(v) = value {
                self.emit.insn(Direct::LoadConstant, v);
                self.emit.insn(Direct::StoreLocal, off);
            }
        }
        self.gen_process(c.process)?;
        self.close_scope();
        self.close_context(&c.fm, line)?;
        self.emit.insn(Direct::LoadLocalPointer, -c.wptr_off);
        self.emit.op(Op::EndProcess);
        self.ctx().adjust += c.wptr_off;
        Ok(())
    }

    // ---- PRI PAR ----

    fn gen_pri_par(&mut self, branches: &'a [Process<'a>], line: u32) -> Result<(), CompileError> {
        let (high, low) = pri_par_pair(branches, line)?;
        self.pri_par_usage_check(&[high, low], line);
        let fm_hi = self.measure_frame(high, None)?;
        let fm_lo = self.measure_frame(low, None)?;
        let hi = Component {
            process: high,
            fm: fm_hi,
            wptr_off: PRI_PAR_BLOCK + fm_hi.down,
            repl_value: None,
        };
        let lo = Component {
            process: low,
            fm: fm_lo,
            wptr_off: PRI_PAR_BLOCK + fm_hi.chunk() + fm_lo.down,
            repl_value: None,
        };
        let n = PRI_PAR_BLOCK + fm_hi.chunk() + fm_lo.chunk();

        let join = self.open_par_region(n, 2);
        // Remember the construct's own priority for the join.
        self.emit.op(Op::LoadPriority);
        self.emit.insn(Direct::StoreLocal, 2);

        // High component: seed its saved Iptr and run it at priority 0.
        let hi_label = self.emit.new_label();
        self.gen_code_address(hi_label);
        self.emit.insn(Direct::StoreLocal, hi.wptr_off - 1); // child w[-1] := entry
        self.emit.insn(Direct::LoadLocalPointer, hi.wptr_off); // descriptor: bit 0 = 0 = high
        self.emit.op(Op::RunProcess);

        // Low component runs in the constructing process.
        self.emit.insn(Direct::AdjustWorkspace, lo.wptr_off);
        self.gen_component(&lo, None, line)?;
        self.emit.place(hi_label);
        self.gen_component(&hi, None, line)?;

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
        self.close_par_region(n);
        Ok(())
    }

    // ---- ALT ----

    fn gen_alt(&mut self, alts: &'a [Alternative<'a>]) -> Result<(), CompileError> {
        let timed = alts.iter().any(|a| matches!(a.kind, AltKind::Timeout(_)));
        let (start, wait) = alt_ops(timed);
        self.emit.op(start);
        // Enable every guard (§3.2.10: "instructions for enabling and
        // disabling channels provide support for an implementation of
        // alternative input without the use of polling").
        for alt in alts {
            self.gen_guard(alt, None)?;
        }
        self.emit.op(wait);

        // Disable in the same (priority) order; the first ready guard
        // records its branch offset in workspace 0.
        let branch_labels: Vec<Label> = alts.iter().map(|_| self.emit.new_label()).collect();
        let mut anchors = Vec::new();
        for (alt, &label) in alts.iter().zip(&branch_labels) {
            anchors.extend(self.gen_guard(alt, Some(label))?);
        }
        // All branch offsets are measured from the end of `alt end`.
        for a in anchors {
            self.emit.bind_anchor(a);
        }
        self.emit.op(Op::AltEnd);

        let end = self.emit.new_label();
        for (alt, &label) in alts.iter().zip(&branch_labels) {
            self.emit.place(label);
            self.gen_selected(alt)?;
            self.emit.insn_rel(Direct::Jump, end);
        }
        self.emit.place(end);
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
        let (start, wait) = alt_ops(matches!(alt.kind, AltKind::Timeout(_)));
        let save_alloc = self.ctx_ref().alloc;
        let ctrl = self.ctx().alloc_words(REPL_ALT_BLOCK);
        let sel = ctrl + 2;
        self.open_scope();
        self.bind(r.var, Binding::Var(self.local_slot(ctrl)));

        self.emit.op(start);
        self.gen_counted_loop(r, ctrl, line, |cg| cg.gen_guard(alt, None))?;
        self.emit.op(wait);

        // A loop of disables; the iteration whose guard fired first
        // records its index in `sel`.
        let branch = self.emit.new_label();
        let (anchor, _, _) = self.gen_counted_loop(r, ctrl, line, |cg| {
            let anchor = cg.gen_guard(alt, Some(branch))?;
            // disc/dist/diss left TRUE if this iteration made the selection.
            let not_selected = cg.emit.new_label();
            cg.emit.insn_rel(Direct::ConditionalJump, not_selected);
            cg.emit.insn(Direct::LoadLocal, ctrl);
            cg.emit.insn(Direct::StoreLocal, sel);
            cg.emit.place(not_selected);
            Ok(anchor)
        })?;
        if let Some(a) = anchor {
            self.emit.bind_anchor(a);
        }
        self.emit.op(Op::AltEnd);

        // The single branch: rebind the replicator to the selected index.
        self.emit.place(branch);
        self.close_scope();
        self.open_scope();
        self.bind(r.var, Binding::Var(self.local_slot(sel)));
        self.gen_selected(alt)?;
        self.close_scope();
        self.ctx().alloc = save_alloc;
        Ok(())
    }

    /// Enable one guard or, given the label of its branch, disable it:
    /// the guard's boolean in A above its channel address or time (a
    /// boolean that needs the whole stack is evaluated first and
    /// parked), then for a disable the branch offset, then the
    /// operation. Returns the disable's branch-offset anchor.
    fn gen_guard(
        &mut self,
        alt: &Alternative,
        branch: Option<Label>,
    ) -> Result<Option<Anchor>, CompileError> {
        let line = alt.pos.line;
        let deep = match (&alt.kind, &alt.guard) {
            (AltKind::Skip, _) | (_, None) => false,
            (_, Some(g)) => self.depth(g) >= 3,
        };
        let below = |cg: &mut Self| match &alt.kind {
            AltKind::Input(c, _) => cg.gen_chan_addr(c.parts(), line),
            AltKind::Timeout(t) => cg.gen_expr(t, line),
            AltKind::Skip => Ok(()),
        };
        let guard = |cg: &mut Self| match &alt.guard {
            None => {
                cg.emit.insn(Direct::LoadConstant, 1);
                Ok(())
            }
            Some(g) => cg.gen_expr(g, line),
        };
        self.gen_pair(deep, line, below, guard)?;
        let anchor = branch.map(|label| self.emit.ldc_rel(label));
        self.emit.op(match (&alt.kind, anchor.is_some()) {
            (AltKind::Input(..), false) => Op::EnableChannel,
            (AltKind::Input(..), true) => Op::DisableChannel,
            (AltKind::Timeout(_), false) => Op::EnableTimer,
            (AltKind::Timeout(_), true) => Op::DisableTimer,
            (AltKind::Skip, false) => Op::EnableSkip,
            (AltKind::Skip, true) => Op::DisableSkip,
        });
        Ok(anchor)
    }

    /// The branch an `ALT` selected: a selected input now takes its
    /// message from the outputter waiting in the channel; then the body.
    fn gen_selected(&mut self, alt: &'a Alternative<'a>) -> Result<(), CompileError> {
        if let AltKind::Input(c, lv) = &alt.kind {
            self.gen_input(c, lv, alt.pos.line)?;
        }
        self.gen_process(&alt.body)
    }
}
