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
//! evaluation and `PROC` sizes) but never emits code. The code generator
//! performs the identical allocations, so the two stay in lock step; a
//! debug assertion in `compile_process` guards the invariant.

use super::{Binding, Cg, REPLICATION_LIMIT, SCHED_SLOTS, TEMP_SLOTS};

/// The binding a formal parameter introduces at `slot`.
pub(crate) fn param_binding(p: &crate::ast::Param<'_>, slot: super::Slot) -> Binding {
    use crate::ast::ParamMode;
    match (p.mode, p.is_vector) {
        (ParamMode::Value, false) => Binding::ValueParam(slot),
        (ParamMode::Var, false) => Binding::VarParam(slot),
        (ParamMode::Chan, false) => Binding::ChanParam(slot),
        (ParamMode::Value, true) => Binding::VecParam(slot, false),
        (ParamMode::Var, true) => Binding::VecParam(slot, true),
        (ParamMode::Chan, true) => Binding::ChanVecParam(slot),
    }
}
use crate::ast::{AltKind, BinOp, Decl, Expr, Process, UnOp};
use crate::error::CompileError;

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
    fn leaf() -> Measure {
        Measure {
            scalars: 0,
            vectors: 0,
            down: SCHED_SLOTS,
            extra_args: 0,
        }
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
        self.reserved_args + i64::from(TEMP_SLOTS as u32) + self.scalars + self.vectors
    }

    /// Frame offset where the vector zone begins.
    pub fn vector_base(&self) -> i64 {
        self.reserved_args + i64::from(TEMP_SLOTS as u32) + self.scalars
    }

    /// Words a `PAR` branch chunk occupies: its frame plus its downward
    /// requirement (which includes the scheduling slots).
    pub fn chunk(&self) -> i64 {
        self.locals_total() + self.down
    }
}

impl<'a> Cg<'a> {
    /// Measure a process as a standalone frame. `extra_local` reserves
    /// one extra declared word (the replicator variable of a replicated
    /// `PAR` branch).
    ///
    /// # Errors
    ///
    /// Besides the measurement's own, a frame the target's byte address
    /// space cannot hold, before any code for it is generated.
    pub(crate) fn measure_frame(
        &mut self,
        p: &'a Process<'a>,
        extra_local: bool,
    ) -> Result<FrameMeasure, CompileError> {
        let m = self.measure(p)?;
        let fm = FrameMeasure {
            reserved_args: m.extra_args.max(1),
            scalars: m.scalars + i64::from(extra_local),
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

            Process::Seq(None, ps, _) => {
                let mut m = Measure::leaf();
                for child in ps {
                    m = m.join(self.measure(child)?);
                }
                m
            }
            Process::Seq(Some(_), ps, _) => {
                let mut body = Measure::leaf();
                for child in ps {
                    body = body.join(self.measure(child)?);
                }
                // Two words for the replication control block, live
                // across the body.
                Measure {
                    scalars: 2 + body.scalars,
                    ..body
                }
            }

            Process::Par(repl, branches, pos) => {
                let mut region = 2i64; // control block: join Iptr, count
                match repl {
                    None => {
                        for b in branches {
                            region += self.measure_frame(b, false)?.chunk();
                        }
                    }
                    Some(r) => {
                        if branches.len() != 1 {
                            return Err(CompileError::codegen(
                                pos.line,
                                "a replicated PAR has exactly one component",
                            ));
                        }
                        let count =
                            self.require_const(&r.count, pos.line, "PAR replication count")?;
                        if !(1..=REPLICATION_LIMIT).contains(&count) {
                            return Err(CompileError::codegen(
                                pos.line,
                                format!(
                                    "PAR replication count must be 1..={REPLICATION_LIMIT}, \
                                     got {count}"
                                ),
                            ));
                        }
                        let chunk = self.measure_frame(&branches[0], true)?.chunk();
                        region += count * chunk;
                    }
                }
                Measure {
                    scalars: 0,
                    vectors: 0,
                    down: region.max(SCHED_SLOTS),
                    extra_args: 0,
                }
            }

            Process::PriPar(branches, pos) => {
                if branches.len() != 2 {
                    return Err(CompileError::codegen(
                        pos.line,
                        "PRI PAR takes exactly two components (high then low)",
                    ));
                }
                let mut region = 3i64; // join, count, original priority
                for b in branches {
                    region += self.measure_frame(b, false)?.chunk();
                }
                Measure {
                    scalars: 0,
                    vectors: 0,
                    down: region.max(SCHED_SLOTS),
                    extra_args: 0,
                }
            }

            Process::Alt(repl, alts, _) | Process::PriAlt(repl, alts, _) => {
                let mut m = Measure::leaf();
                for a in alts {
                    m = m.join(self.measure(&a.body)?);
                    if let AltKind::Input(..) | AltKind::Timeout(_) = a.kind {
                        // waiting uses the five scheduling slots only
                    }
                }
                if repl.is_some() {
                    // Replication control block (2 words), the selected
                    // index, and the loop-scoped replicator live across
                    // the body.
                    m.scalars += 3;
                }
                m
            }

            Process::If(conds, _) => {
                let mut m = Measure::leaf();
                for c in conds {
                    m = m.join(self.measure(&c.body)?);
                }
                m
            }
            Process::While(_, body, _) => Measure::leaf().join(self.measure(body)?),

            Process::Declared(decls, body, pos) => {
                // Bindings matter during measurement too: DEF constants
                // size vectors, and PROC sizes feed call-site depths.
                self.open_scope();
                let result = (|| -> Result<Measure, CompileError> {
                    let mut scalars = 0i64;
                    let mut vectors = 0i64;
                    for d in decls {
                        let (s, v) = self.measure_decl(d, pos.line)?;
                        scalars += s;
                        vectors += v;
                    }
                    let m = self.measure(body)?;
                    Ok(Measure {
                        scalars: scalars + m.scalars,
                        vectors: vectors + m.vectors,
                        ..m
                    })
                })();
                self.close_scope();
                result?
            }

            Process::Call(name, actuals, pos) => {
                let info = match self.lookup(name) {
                    Some(Binding::Proc(info)) => info.clone(),
                    Some(_) => {
                        return Err(CompileError::check(
                            pos.line,
                            format!("`{name}` is not a PROC"),
                        ))
                    }
                    None => {
                        return Err(CompileError::check(
                            pos.line,
                            format!(
                                "call of undefined PROC `{name}` (note: occam forbids recursion — \
                                 workspace is allocated statically)"
                            ),
                        ))
                    }
                };
                if actuals.len() != info.params.len() {
                    return Err(CompileError::check(
                        pos.line,
                        format!(
                            "`{name}` takes {} arguments, {} given",
                            info.params.len(),
                            actuals.len()
                        ),
                    ));
                }
                Measure {
                    scalars: 0,
                    vectors: 0,
                    down: info.call_depth().max(SCHED_SLOTS),
                    extra_args: (info.total_args() as i64 - 3).max(0),
                }
            }
        })
    }

    /// (scalar, vector) words of a declaration, binding what later
    /// measurement needs (constants, vector shapes, PROC sizes).
    fn measure_decl(&mut self, d: &'a Decl<'a>, line: u32) -> Result<(i64, i64), CompileError> {
        use super::{Binding, Slot};
        let dummy = Slot {
            level: usize::MAX,
            offset: 0,
            adjust: 0,
        };
        Ok(match d {
            Decl::Var(items) | Decl::Chan(items) => {
                let is_chan = matches!(d, Decl::Chan(_));
                let mut scalars = 0i64;
                let mut vectors = 0i64;
                for (name, size) in items {
                    match size {
                        None => {
                            self.bind(
                                name,
                                if is_chan {
                                    Binding::Chan(dummy)
                                } else {
                                    Binding::Var(dummy)
                                },
                            );
                            scalars += 1;
                        }
                        Some(e) => {
                            let n = self.require_const(e, line, "vector size")?;
                            if n <= 0 {
                                return Err(CompileError::codegen(
                                    line,
                                    format!("vector `{name}` must have positive size, got {n}"),
                                ));
                            }
                            // Its words are initialised one at a time.
                            if is_chan && n > REPLICATION_LIMIT {
                                return Err(CompileError::codegen(
                                    line,
                                    format!("channel vector `{name}` has {n} channels; at most {REPLICATION_LIMIT}"),
                                ));
                            }
                            self.bind(
                                name,
                                if is_chan {
                                    Binding::ChanVec(dummy, n)
                                } else {
                                    Binding::Vec(dummy, n)
                                },
                            );
                            vectors += n;
                        }
                    };
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
                // Size the PROC's frame so calls in the scoped body can
                // be measured; the real (labelled, offset-bearing) info
                // is rebuilt identically during code generation.
                self.open_scope();
                for p in params {
                    let b = param_binding(p, dummy);
                    self.bind(p.name, b);
                }
                let fm = self.measure_frame(body, false);
                self.close_scope();
                let fm = fm?;
                let info = std::rc::Rc::new(super::ProcInfo {
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
                    level: usize::MAX, // placeholder: measurement only
                    static_link: true,
                });
                self.bind(name, Binding::Proc(info));
                (0, 0)
            }
        })
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
