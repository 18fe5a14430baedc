//! Static workspace measurement.
//!
//! This pass computes, for any process, how much workspace it needs
//! above its workspace pointer (`locals`) and below it (`down`). The
//! results drive `PAR` branch layout and `PROC` frame sizes — "the occam
//! compiler is able to perform the allocation of space to concurrent
//! processes. ... There is also no need for the hardware to perform
//! access checking on every memory reference" (§3.2.4).
//!
//! Measurement runs against the live binding environment (for constant
//! evaluation and `PROC` sizes) but never emits code. It binds every
//! name the code generator binds, replicator variables included, so a
//! condition folds the same way in both passes; and it gives no space
//! to the code the generator folds away (the branches after an `IF`
//! guard that folds to `TRUE`, the body of a `WHILE FALSE`), though it
//! still checks that code. Each frame's code must allocate exactly the
//! words measured: [`Cg::close_context`] checks it in every build and
//! reports a difference as an internal compile error.

use std::rc::Rc;

use super::{
    Binding, Cg, Formal, ProcInfo, Slot, PAR_BLOCK, PRI_PAR_BLOCK, REPLICATION_LIMIT,
    REPL_ALT_BLOCK, REPL_SEQ_BLOCK, SCHED_SLOTS, TEMP_SLOTS,
};
use crate::ast::{BinOp, Decl, Expr, Param, ParamMode, Process, Replicator, UnOp};
use crate::error::CompileError;

/// The binding a formal parameter introduces at `slot`.
pub(crate) fn param_binding(p: &Param<'_>, slot: Slot) -> Binding {
    match (p.mode, p.is_vector) {
        (ParamMode::Value, false) => Binding::ValueParam(slot),
        (ParamMode::Var, false) => Binding::VarParam(slot),
        (ParamMode::Chan, false) => Binding::ChanParam(slot),
        (ParamMode::Value, true) => Binding::VecParam(slot, false),
        (ParamMode::Var, true) => Binding::VecParam(slot, true),
        (ParamMode::Chan, true) => Binding::ChanVecParam(slot),
    }
}

/// The binding a `VAR` or `CHAN` declaration of `size` words (`None`
/// for a scalar) introduces at `slot`.
pub(crate) fn decl_binding(is_chan: bool, size: Option<i64>, slot: Slot) -> Binding {
    match (is_chan, size) {
        (false, None) => Binding::Var(slot),
        (false, Some(n)) => Binding::Vec(slot, n),
        (true, None) => Binding::Chan(slot),
        (true, Some(n)) => Binding::ChanVec(slot, n),
    }
}

/// The two components of a `PRI PAR`, high priority first.
pub(crate) fn pri_par_pair<'p, 'a>(
    branches: &'p [Process<'a>],
    line: u32,
) -> Result<(&'p Process<'a>, &'p Process<'a>), CompileError> {
    match branches {
        [high, low] => Ok((high, low)),
        _ => Err(CompileError::codegen(
            line,
            "PRI PAR takes exactly two components (high then low)",
        )),
    }
}

/// Measurement of a process *within* a frame context. Scalars and
/// vectors are tracked separately: scalars (and replication control
/// blocks) are packed at low offsets so the hottest accesses use
/// single-byte instructions (§3.2.6: "the first 16 locations can be
/// accessed using a single byte instruction"); vectors sit above them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Measure {
    /// Scalar words (variables, control blocks).
    pub scalars: i64,
    /// Vector words.
    pub vectors: i64,
    /// Words needed below the pointer (≥ the scheduling slots).
    pub down: i64,
    /// Outgoing call arguments beyond the three register-passed ones.
    pub extra_args: i64,
}

impl Measure {
    /// A process that needs `down` words below its pointer (at least
    /// the scheduling slots) and none above.
    fn below(down: i64) -> Measure {
        Measure {
            down: down.max(SCHED_SLOTS),
            ..Measure::default()
        }
    }

    fn leaf() -> Measure {
        Measure::below(SCHED_SLOTS)
    }

    fn join(self, other: Measure) -> Measure {
        Measure {
            scalars: self.scalars.max(other.scalars),
            vectors: self.vectors.max(other.vectors),
            down: self.down.max(other.down),
            extra_args: self.extra_args.max(other.extra_args),
        }
    }
}

/// Measurement of a complete frame (a `PROC` body, the main program, or
/// a `PAR` branch).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameMeasure {
    /// Reserved outgoing-argument words (≥ 1: offset 0 is scratch).
    pub reserved_args: i64,
    /// Scalar words above the reserved area and temps.
    pub scalars: i64,
    /// Vector words, placed above the scalar zone.
    pub vectors: i64,
    /// Downward requirement.
    pub down: i64,
}

impl FrameMeasure {
    /// Total words at and above the frame's workspace pointer.
    pub fn locals_total(&self) -> i64 {
        self.vector_base() + self.vectors
    }

    /// Frame offset where the scalar zone begins, above the reserved
    /// argument words and the temporaries.
    pub fn scalar_base(&self) -> i64 {
        self.reserved_args + TEMP_SLOTS
    }

    /// Frame offset where the vector zone begins.
    pub fn vector_base(&self) -> i64 {
        self.scalar_base() + self.scalars
    }

    /// Words a `PAR` branch chunk occupies: its frame plus its downward
    /// requirement (which includes the scheduling slots).
    pub fn chunk(&self) -> i64 {
        self.locals_total() + self.down
    }
}

impl<'a> Cg<'a> {
    /// Measure a process as a standalone frame. A replicated `PAR`
    /// branch names its replicator variable, which is bound in the
    /// branch and takes the frame's first scalar word.
    ///
    /// # Errors
    ///
    /// Besides the measurement's own, a frame the target's byte address
    /// space cannot hold, before any code for it is generated.
    pub(crate) fn measure_frame(
        &mut self,
        p: &'a Process<'a>,
        repl_var: Option<&'a str>,
    ) -> Result<FrameMeasure, CompileError> {
        let m = self.measure_scoped(repl_var, |cg| cg.measure(p))?;
        let fm = FrameMeasure {
            reserved_args: m.extra_args.max(1),
            scalars: m.scalars + i64::from(repl_var.is_some()),
            vectors: m.vectors,
            down: m.down,
        };
        let word = self.options.word_length;
        let room = (1i64 << word.bits()) / i64::from(word.bytes_per_word());
        match fm.locals_total().checked_add(fm.down) {
            Some(words) if words <= room => Ok(fm),
            _ => Err(CompileError::codegen(
                p.pos().map_or(1, |pos| pos.line),
                format!(
                    "workspace too large: a frame of {} + {} words does not fit the \
                     {}-bit address space",
                    fm.locals_total(),
                    fm.down,
                    word.bits()
                ),
            )),
        }
    }

    /// Run `f` in a scope of its own, with the replicator variable
    /// `var`, if any, bound as the code generator binds it.
    fn measure_scoped(
        &mut self,
        var: Option<&'a str>,
        f: impl FnOnce(&mut Self) -> Result<Measure, CompileError>,
    ) -> Result<Measure, CompileError> {
        self.open_scope();
        if let Some(var) = var {
            self.bind(var, Binding::Var(Slot::UNPLACED));
        }
        let m = f(self);
        self.close_scope();
        m
    }

    /// The processes of a `SEQ`, or the bodies of an `ALT`, one after
    /// another. A replicated construct binds its replicator variable
    /// over them and keeps a control block of `block` words live across
    /// them.
    fn measure_each(
        &mut self,
        repl: &Option<Replicator<'a>>,
        block: i64,
        ps: impl IntoIterator<Item = &'a Process<'a>>,
    ) -> Result<Measure, CompileError> {
        let body = self.measure_scoped(repl.as_ref().map(|r| r.var), |cg| {
            ps.into_iter()
                .try_fold(Measure::leaf(), |m, p| Ok(m.join(cg.measure(p)?)))
        })?;
        let block = if repl.is_some() { block } else { 0 };
        Ok(Measure {
            scalars: block + body.scalars,
            ..body
        })
    }

    /// Measure a process within the current frame.
    pub(crate) fn measure(&mut self, p: &'a Process<'a>) -> Result<Measure, CompileError> {
        Ok(match p {
            Process::Skip
            | Process::Stop
            | Process::Assign(..)
            | Process::Output(..)
            | Process::Input(..)
            | Process::ReadTime(..)
            | Process::Delay(..) => Measure::leaf(),

            Process::Seq(repl, ps, _) => self.measure_each(repl, REPL_SEQ_BLOCK, ps)?,
            Process::Alt(repl, alts, _) => {
                self.measure_each(repl, REPL_ALT_BLOCK, alts.iter().map(|a| &a.body))?
            }

            Process::Par(None, branches, _) => {
                let mut region = PAR_BLOCK;
                for b in branches {
                    region += self.measure_frame(b, None)?.chunk();
                }
                Measure::below(region)
            }
            Process::Par(Some(r), branches, pos) => {
                let [branch] = &branches[..] else {
                    return Err(CompileError::codegen(
                        pos.line,
                        "a replicated PAR has exactly one component",
                    ));
                };
                let count = self.par_replication_count(r, pos.line)?;
                let chunk = self.measure_frame(branch, Some(r.var))?.chunk();
                Measure::below(PAR_BLOCK + count * chunk)
            }

            Process::PriPar(branches, pos) => {
                let (high, low) = pri_par_pair(branches, pos.line)?;
                let high = self.measure_frame(high, None)?.chunk();
                let low = self.measure_frame(low, None)?.chunk();
                Measure::below(PRI_PAR_BLOCK + high + low)
            }

            Process::If(conds, _) => {
                // The branches after a guard that folds to TRUE are dead.
                let mut m = Measure::leaf();
                let mut live = true;
                for c in conds {
                    let body = self.measure(&c.body)?;
                    if live {
                        m = m.join(body);
                    }
                    live &= self.const_eval(&c.cond) != Some(1);
                }
                m
            }
            Process::While(cond, body, _) => {
                let body = self.measure(body)?;
                match self.const_eval(cond) {
                    Some(0) => Measure::leaf(),
                    _ => Measure::leaf().join(body),
                }
            }

            Process::Declared(decls, body, pos) => {
                // Bindings matter during measurement too: DEF constants
                // size vectors, and PROC sizes feed call-site depths.
                self.measure_scoped(None, |cg| {
                    let mut scalars = 0i64;
                    let mut vectors = 0i64;
                    for d in decls {
                        let (s, v) = cg.measure_decl(d, pos.line)?;
                        scalars += s;
                        vectors += v;
                    }
                    let m = cg.measure(body)?;
                    Ok(Measure {
                        scalars: scalars + m.scalars,
                        vectors: vectors + m.vectors,
                        ..m
                    })
                })?
            }

            Process::Call(name, actuals, pos) => {
                let info = self.resolve_call(name, actuals.len(), pos.line)?;
                Measure {
                    extra_args: (info.total_args() as i64 - 3).max(0),
                    ..Measure::below(info.call_depth())
                }
            }
        })
    }

    /// (scalar, vector) words of a declaration, binding what later
    /// measurement needs (constants, vector shapes, PROC sizes).
    fn measure_decl(&mut self, d: &'a Decl<'a>, line: u32) -> Result<(i64, i64), CompileError> {
        Ok(match d {
            Decl::Var(items) | Decl::Chan(items) => {
                let is_chan = matches!(d, Decl::Chan(_));
                let (mut scalars, mut vectors) = (0, 0);
                for (name, size) in items {
                    let size = match size {
                        Some(e) => Some(self.vector_size(name, e, is_chan, line)?),
                        None => None,
                    };
                    self.bind(name, decl_binding(is_chan, size, Slot::UNPLACED));
                    match size {
                        Some(n) => vectors += n,
                        None => scalars += 1,
                    }
                }
                (scalars, vectors)
            }
            Decl::Def(name, e) => {
                let v = self.require_const(e, line, "DEF value")?;
                self.bind(name, Binding::Const(v));
                (0, 0)
            }
            Decl::Place(..) => (0, 0),
            Decl::Proc(name, params, body) => {
                // Measurement never calls the PROC, so its level is a
                // placeholder.
                let info = self.describe_proc(params, body, usize::MAX)?;
                self.bind(name, Binding::Proc(info));
                (0, 0)
            }
        })
    }

    /// Measure a `PROC` body at lexical `level` as its own frame, with
    /// its formals bound (their offsets are not needed to size it), and
    /// describe the `PROC` to its callers.
    pub(crate) fn describe_proc(
        &mut self,
        params: &'a [Param<'a>],
        body: &'a Process<'a>,
        level: usize,
    ) -> Result<Rc<ProcInfo>, CompileError> {
        self.open_scope();
        for p in params {
            let slot = Slot {
                level,
                ..Slot::UNPLACED
            };
            self.bind(p.name, param_binding(p, slot));
        }
        let frame = self.measure_frame(body, None);
        self.close_scope();
        Ok(Rc::new(ProcInfo {
            label: self.emit.new_label(),
            params: params
                .iter()
                .map(|p| Formal {
                    mode: p.mode,
                    is_vector: p.is_vector,
                })
                .collect(),
            frame: frame?,
            level,
        }))
    }

    /// The `PROC` a call names, given `given` arguments.
    pub(crate) fn resolve_call(
        &self,
        name: &str,
        given: usize,
        line: u32,
    ) -> Result<Rc<ProcInfo>, CompileError> {
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
        if given != info.params.len() {
            return Err(CompileError::check(
                line,
                format!(
                    "`{name}` takes {} arguments, {given} given",
                    info.params.len()
                ),
            ));
        }
        Ok(info)
    }

    /// The words of vector `name` declared with size `e`.
    pub(crate) fn vector_size(
        &self,
        name: &str,
        e: &Expr,
        is_chan: bool,
        line: u32,
    ) -> Result<i64, CompileError> {
        let n = self.require_const(e, line, "vector size")?;
        if n <= 0 {
            return Err(CompileError::codegen(
                line,
                format!("vector `{name}` must have positive size, got {n}"),
            ));
        }
        // A channel vector's words are initialised one at a time.
        if is_chan && n > REPLICATION_LIMIT {
            return Err(CompileError::codegen(
                line,
                format!("channel vector `{name}` has {n} channels; at most {REPLICATION_LIMIT}"),
            ));
        }
        Ok(n)
    }

    /// The number of copies a replicated `PAR` makes.
    pub(crate) fn par_replication_count(
        &self,
        r: &Replicator,
        line: u32,
    ) -> Result<i64, CompileError> {
        let count = self.require_const(&r.count, line, "PAR replication count")?;
        if !(1..=REPLICATION_LIMIT).contains(&count) {
            return Err(CompileError::codegen(
                line,
                format!("PAR replication count must be 1..={REPLICATION_LIMIT}, got {count}"),
            ));
        }
        Ok(count)
    }

    /// Evaluate a compile-time constant expression, as a signed target
    /// word: a value the word cannot hold is not a constant, and its
    /// operation is left to the machine's checked arithmetic.
    pub(crate) fn const_eval(&self, e: &Expr) -> Option<i64> {
        let v = match e {
            Expr::Literal(n) => self.literal(*n)?,
            Expr::True => 1,
            Expr::False => 0,
            Expr::Name(n) => match self.lookup(n)? {
                Binding::Const(v) => *v,
                _ => return None,
            },
            Expr::Index(..) | Expr::ByteIndex(..) => return None,
            Expr::Un(op, e) => {
                let v = self.const_eval(e)?;
                match op {
                    UnOp::Neg => v.checked_neg()?,
                    UnOp::Not => i64::from(v == 0),
                    UnOp::BitNot => !v,
                }
            }
            Expr::Bin(op, l, r) => {
                let a = self.const_eval(l)?;
                let b = self.const_eval(r)?;
                match op {
                    BinOp::Add => a.checked_add(b)?,
                    BinOp::Sub => a.checked_sub(b)?,
                    BinOp::Mul => a.checked_mul(b)?,
                    BinOp::Div => a.checked_div(b)?,
                    BinOp::Rem => a.checked_rem(b)?,
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Le => i64::from(a <= b),
                    BinOp::Ge => i64::from(a >= b),
                    BinOp::And => i64::from(a != 0 && b != 0),
                    BinOp::Or => i64::from(a != 0 || b != 0),
                    BinOp::BitAnd => a & b,
                    BinOp::BitOr => a | b,
                    BinOp::BitXor => a ^ b,
                    // Shifts are logical and unchecked: they fold on the
                    // word's bit pattern as `shl`/`shr` compute it, and a
                    // count of the word length or more gives 0. A count
                    // outside 0..64 is not folded.
                    BinOp::Shl | BinOp::Shr => {
                        if !(0..64).contains(&b) {
                            return None;
                        }
                        let word = self.options.word_length;
                        let (pattern, count) = (word.from_signed(a), b as u32);
                        let shifted = match op {
                            _ if count >= word.bits() => 0,
                            BinOp::Shl => word.mask(pattern << count),
                            _ => pattern >> count,
                        };
                        word.to_signed(shifted)
                    }
                    BinOp::After => return None,
                }
            }
        };
        self.word(v)
    }

    /// `v` if it fits the signed target word.
    pub(crate) fn word(&self, v: i64) -> Option<i64> {
        let half = 1i64 << (self.options.word_length.bits() - 1);
        (-half..half).contains(&v).then_some(v)
    }

    /// A literal as the target word holds it: one in the unsigned upper
    /// half (`#FFFFFFFF`) is the bit pattern it spells, read as a signed
    /// word; `None` when the word cannot hold it at all.
    fn literal(&self, n: i64) -> Option<i64> {
        let word = self.options.word_length;
        let bits = word.bits();
        (-(1i64 << (bits - 1))..1i64 << bits)
            .contains(&n)
            .then(|| word.to_signed(n as u32))
    }

    /// A constant expression or an error naming what needed one.
    pub(crate) fn require_const(
        &self,
        e: &Expr,
        line: u32,
        what: &str,
    ) -> Result<i64, CompileError> {
        self.const_eval(e).ok_or_else(|| {
            let bits = self.options.word_length.bits();
            let message = format!("{what} must be a compile-time constant a {bits}-bit word holds");
            CompileError::codegen(line, message)
        })
    }
}
