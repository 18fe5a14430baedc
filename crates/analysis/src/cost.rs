//! Static cycle-cost model over a recovered CFG.
//!
//! Predicts the exact cycle count, instruction-byte count and logical
//! operation count of a single-process I1 image from the ISA timing
//! tables (`transputer::timing`, the table in `docs/ISA.md`) and the
//! compiler's counted-loop metadata ([`occam::LoopInfo`]). The emulator
//! charges a fixed, data-independent cost for every instruction a
//! compute-class program can contain (the T424 multiplier and divider
//! always run the full word length), so on an analyzable image the
//! model is *exact*, not an estimate — the bench harness validates it
//! against measured [`transputer::Stats`] and CI gates the error.
//!
//! The model refuses ([`Unpredictable`]) anything it cannot bound
//! statically: data-dependent branches, unstructured jumps, subroutine
//! calls, scheduling and communication operations, shifts by
//! non-constant amounts, loops whose trip count the compiler could not
//! evaluate, and any image the CFG recovery marks unanalyzable
//! (computed control, self-modifying stores).

use std::fmt;

use crate::cfg::Cfg;
use crate::diag::Severity;
use crate::verifier::Insn;
use transputer::instr::{Direct, Op};
use transputer::{timing, WordLength};

/// A loop whose trip count is known at compile time.
///
/// `head` is the back-edge target (first body instruction), `end` is
/// the offset just past the `lend`, `count` the number of iterations.
/// The compiler records these as [`occam::LoopInfo`]; hand-written
/// images can supply their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedLoop {
    /// Offset of the first body instruction (the `lend` back-edge target).
    pub head: u32,
    /// Offset just past the `lend`.
    pub end: u32,
    /// Compile-time iteration count (0 means the body never runs).
    pub count: u32,
}

impl From<&occam::LoopInfo> for CountedLoop {
    fn from(l: &occam::LoopInfo) -> Self {
        CountedLoop {
            head: l.head,
            end: l.end,
            count: l.count,
        }
    }
}

/// Predicted cost of one basic block.
#[derive(Debug, Clone)]
pub struct BlockCost {
    /// Block index into [`Cfg::blocks`].
    pub block: usize,
    /// Byte offset of the block's first instruction.
    pub start: usize,
    /// Byte offset just past the block's last instruction.
    pub end: usize,
    /// Execution frequency of the block entry (product of enclosing
    /// loop counts).
    pub freq: u64,
    /// Total cycles spent in this block across the whole run.
    pub cycles: u64,
    /// Instruction bytes fetched in this block (prefix bytes included,
    /// matching [`transputer::Stats::instructions`]).
    pub bytes: u64,
    /// Logical operations executed (prefix chains folded, matching
    /// [`transputer::Stats::operations`]).
    pub ops: u64,
}

/// Whole-program static cost prediction.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Predicted total cycles.
    pub cycles: u64,
    /// Predicted instruction bytes executed ([`transputer::Stats::instructions`]).
    pub instruction_bytes: u64,
    /// Predicted logical operations executed ([`transputer::Stats::operations`]).
    pub operations: u64,
    /// Per-block breakdown, in address order.
    pub blocks: Vec<BlockCost>,
}

impl CostReport {
    /// Cycles per logical operation.
    pub fn cpi(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.cycles as f64 / self.operations as f64
        }
    }
}

/// Why the model refused an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unpredictable {
    /// Code offset of the offending instruction, when there is one.
    pub offset: Option<usize>,
    /// Human-readable reason.
    pub reason: String,
}

impl Unpredictable {
    fn at(insn: &Insn, reason: impl Into<String>) -> Self {
        Unpredictable {
            offset: Some(insn.offset),
            reason: reason.into(),
        }
    }

    fn whole(reason: impl Into<String>) -> Self {
        Unpredictable {
            offset: None,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Unpredictable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(o) => write!(f, "offset {o:#06x}: {}", self.reason),
            None => write!(f, "{}", self.reason),
        }
    }
}

impl std::error::Error for Unpredictable {}

/// Predict the cost of a compiled occam program, using the compiler's
/// counted-loop metadata.
///
/// # Errors
///
/// Returns [`Unpredictable`] when any instruction's timing or
/// frequency cannot be bounded statically.
pub fn analyze_program(
    program: &occam::Program,
    word: WordLength,
) -> Result<CostReport, Unpredictable> {
    let cfg = Cfg::recover_program(program);
    let loops: Vec<CountedLoop> = program.loops.iter().map(CountedLoop::from).collect();
    analyze_cost(&cfg, &loops, word)
}

/// Predict the cost of an image from its recovered CFG and loop table.
///
/// # Errors
///
/// Returns [`Unpredictable`] when any instruction's timing or
/// frequency cannot be bounded statically, when the CFG recovery
/// marked a region unanalyzable, or when the verifier found errors.
pub fn analyze_cost(
    cfg: &Cfg,
    loops: &[CountedLoop],
    word: WordLength,
) -> Result<CostReport, Unpredictable> {
    if let Some(u) = cfg.unanalyzable.first() {
        return Err(Unpredictable {
            offset: Some(u.offset),
            reason: u.reason.clone(),
        });
    }
    if let Some(d) = cfg
        .diags
        .iter()
        .find(|d| matches!(d.severity, Severity::Error))
    {
        return Err(Unpredictable::whole(format!(
            "image fails verification: {} ({})",
            d.message, d.code
        )));
    }
    if cfg.insns.is_empty() {
        return Err(Unpredictable::whole("empty image"));
    }

    let overflow = |insn: &Insn| Unpredictable::at(insn, "loop trip-count product overflows");

    let mut report = CostReport {
        cycles: 0,
        instruction_bytes: 0,
        operations: 0,
        blocks: Vec::with_capacity(cfg.blocks.len()),
    };

    for (bi, blk) in cfg.blocks.iter().enumerate() {
        let mut bc = BlockCost {
            block: bi,
            start: blk.start,
            end: blk.end,
            freq: freq(loops, blk.start as u32, None)
                .ok_or_else(|| overflow(&cfg.insns[blk.first]))?,
            cycles: 0,
            bytes: 0,
            ops: 0,
        };
        for i in blk.first..=blk.last {
            let insn = &cfg.insns[i];
            let f = freq(loops, insn.offset as u32, None).ok_or_else(|| overflow(insn))?;
            if f == 0 {
                continue;
            }
            let prefix = (insn.len - 1) as u64;
            let len = insn.len as u64;
            let (cycles, bytes, ops) = match insn.fun {
                Direct::Jump => {
                    return Err(Unpredictable::at(
                        insn,
                        "unstructured `j`: execution frequency is not loop-bounded",
                    ))
                }
                Direct::Call => {
                    return Err(Unpredictable::at(
                        insn,
                        "`call`: the model does not follow subroutines",
                    ))
                }
                Direct::ConditionalJump => {
                    // The only branch the model accepts is the guard a
                    // replicated SEQ places before a counted loop: it
                    // falls through into the head when the count is
                    // positive and jumps to the end when it is zero.
                    let guard = loops.iter().find(|l| {
                        insn.end() as u32 == l.head
                            && insn.end() as i64 + insn.operand == l.end as i64
                    });
                    match guard {
                        Some(l) => {
                            let c = match l.count {
                                0 => timing::CONDITIONAL_JUMP_TAKEN,
                                _ => Direct::ConditionalJump.cycles(),
                            };
                            (f * (prefix + c as u64), f * len, f)
                        }
                        None => {
                            return Err(Unpredictable::at(
                                insn,
                                "data-dependent branch: `cj` is not a counted-loop guard",
                            ))
                        }
                    }
                }
                Direct::Operate => {
                    let op = insn
                        .op
                        .ok_or_else(|| Unpredictable::at(insn, "invalid operation code"))?;
                    match op {
                        Op::LoopEnd => {
                            let (k, l) = loops
                                .iter()
                                .enumerate()
                                .find(|(_, l)| l.end as usize == insn.end())
                                .ok_or_else(|| {
                                    Unpredictable::at(
                                        insn,
                                        "`lend` trip count is not a compile-time constant",
                                    )
                                })?;
                            // f includes this loop's own count; the lend
                            // takes its back edge count-1 times and its
                            // exit once per *outer* entry.
                            let outer = freq(loops, insn.offset as u32, Some(k))
                                .ok_or_else(|| overflow(insn))?;
                            let count = l.count as u64;
                            debug_assert_eq!(f, outer * count);
                            let cycles = outer
                                * (count * prefix
                                    + (count - 1) * timing::LOOP_END_TAKEN as u64
                                    + timing::LOOP_END_EXIT as u64);
                            (cycles, f * len, f)
                        }
                        Op::HaltSimulation => {
                            if i + 1 != cfg.insns.len() {
                                return Err(Unpredictable::at(
                                    insn,
                                    "`haltsim` before the end of the image",
                                ));
                            }
                            if f != 1 {
                                return Err(Unpredictable::at(insn, "`haltsim` inside a loop"));
                            }
                            (prefix + 1, len, 1)
                        }
                        Op::StartProcess
                        | Op::EndProcess
                        | Op::StopProcess
                        | Op::RunProcess
                        | Op::Return
                        | Op::GeneralCall
                        | Op::AltEnd => {
                            return Err(Unpredictable::at(
                                insn,
                                format!(
                                    "`{}` schedules processes: timing depends on the run queue",
                                    insn.mnemonic()
                                ),
                            ))
                        }
                        Op::Multiply => {
                            let c = timing::multiply_cycles(word) as u64;
                            (f * (prefix + c), f * len, f)
                        }
                        Op::Divide => {
                            let c = timing::divide_cycles(word) as u64;
                            (f * (prefix + c), f * len, f)
                        }
                        Op::Remainder => {
                            let c = timing::remainder_cycles(word) as u64;
                            (f * (prefix + c), f * len, f)
                        }
                        Op::ShiftLeft | Op::ShiftRight => {
                            let a = const_areg(cfg, i, insn, word)?;
                            let c = timing::shift_cycles(a.min(word.bits())) as u64;
                            (f * (prefix + c), f * len, f)
                        }
                        Op::LongShiftLeft | Op::LongShiftRight => {
                            let a = const_areg(cfg, i, insn, word)?;
                            let c = timing::shift_cycles(a.min(2 * word.bits())) as u64;
                            (f * (prefix + c), f * len, f)
                        }
                        Op::Product => {
                            let a = const_areg(cfg, i, insn, word)?;
                            let c = timing::product_cycles(a) as u64;
                            (f * (prefix + c), f * len, f)
                        }
                        op => match op.fixed_cycles() {
                            Some(c) => (f * (prefix + c as u64), f * len, f),
                            None => {
                                return Err(Unpredictable::at(
                                    insn,
                                    format!("`{}` has data-dependent timing", insn.mnemonic()),
                                ))
                            }
                        },
                    }
                }
                fun => {
                    let c = fun.cycles() as u64;
                    (f * (prefix + c), f * len, f)
                }
            };
            bc.cycles += cycles;
            bc.bytes += bytes;
            bc.ops += ops;
        }
        report.cycles += bc.cycles;
        report.instruction_bytes += bc.bytes;
        report.operations += bc.ops;
        report.blocks.push(bc);
    }
    Ok(report)
}

/// Execution frequency of the instruction at `offset`: the product of
/// the counts of every counted loop whose body contains it, optionally
/// excluding one loop (for `lend`'s own accounting). `None` on
/// overflow.
fn freq(loops: &[CountedLoop], offset: u32, skip: Option<usize>) -> Option<u64> {
    let mut f: u64 = 1;
    for (k, l) in loops.iter().enumerate() {
        if Some(k) == skip {
            continue;
        }
        if l.head <= offset && offset < l.end {
            f = f.checked_mul(l.count as u64)?;
        }
    }
    Some(f)
}

/// The machine value of the A register at entry to instruction `i`,
/// required to be a dataflow constant (shift counts, `prod` operands).
fn const_areg(cfg: &Cfg, i: usize, insn: &Insn, word: WordLength) -> Result<u32, Unpredictable> {
    match cfg.states[i].reg(0) {
        Some(v) => Ok(word.mask(v as u32)),
        None => Err(Unpredictable::at(
            insn,
            format!(
                "`{}` by a non-constant amount: timing depends on the operand",
                insn.mnemonic()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer::instr::{encode_into, encode_op};
    use transputer::{Cpu, CpuConfig};

    /// Run a raw image on a default T424 and return (cycles, bytes, ops).
    fn measure_raw(code: &[u8]) -> (u64, u64, u64) {
        let mut cpu = Cpu::new(CpuConfig::default());
        cpu.load_boot_program(code).expect("image fits");
        cpu.run(1_000_000).expect("program halts");
        (
            cpu.cycles(),
            cpu.stats().instructions,
            cpu.stats().operations,
        )
    }

    fn predict_raw(code: &[u8], loops: &[CountedLoop]) -> CostReport {
        let cfg = Cfg::recover(code);
        analyze_cost(&cfg, loops, WordLength::Bits32).expect("analyzable")
    }

    #[test]
    fn straight_line_is_exact() {
        // ldc 6; ldc 7; mul; stl 0; haltsim
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 6, &mut code);
        encode_into(Direct::LoadConstant, 7, &mut code);
        code.extend(encode_op(Op::Multiply));
        encode_into(Direct::StoreLocal, 0, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let report = predict_raw(&code, &[]);
        let (cycles, bytes, ops) = measure_raw(&code);
        assert_eq!(report.cycles, cycles);
        assert_eq!(report.instruction_bytes, bytes);
        assert_eq!(report.operations, ops);
    }

    #[test]
    fn constant_shift_is_exact() {
        // ldc 5; ldc 3; shl; stl 0; haltsim
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 5, &mut code);
        encode_into(Direct::LoadConstant, 3, &mut code);
        code.extend(encode_op(Op::ShiftLeft));
        encode_into(Direct::StoreLocal, 0, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let report = predict_raw(&code, &[]);
        let (cycles, bytes, ops) = measure_raw(&code);
        assert_eq!(report.cycles, cycles);
        assert_eq!(report.instruction_bytes, bytes);
        assert_eq!(report.operations, ops);
    }

    #[test]
    fn non_constant_shift_is_refused() {
        // ldl 1; ldl 0; shl — shift count comes from memory.
        let mut code = Vec::new();
        encode_into(Direct::LoadLocal, 1, &mut code);
        encode_into(Direct::LoadLocal, 0, &mut code);
        code.extend(encode_op(Op::ShiftLeft));
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        let err = analyze_cost(&cfg, &[], WordLength::Bits32).unwrap_err();
        assert!(err.reason.contains("non-constant"), "{err}");
    }

    #[test]
    fn communication_is_refused() {
        let mut code = Vec::new();
        encode_into(Direct::LoadLocalPointer, 0, &mut code);
        encode_into(Direct::LoadLocalPointer, 1, &mut code);
        encode_into(Direct::LoadConstant, 4, &mut code);
        code.extend(encode_op(Op::InputMessage));
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        let err = analyze_cost(&cfg, &[], WordLength::Bits32).unwrap_err();
        assert!(err.reason.contains("data-dependent timing"), "{err}");
    }

    #[test]
    fn self_modifying_is_refused() {
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 0x41, &mut code);
        encode_into(Direct::LoadConstant, 0, &mut code);
        code.extend(encode_op(Op::LoadPointerToInstruction));
        code.extend(encode_op(Op::StoreByte));
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        let err = analyze_cost(&cfg, &[], WordLength::Bits32).unwrap_err();
        assert!(err.reason.contains("self-modifying"), "{err}");
    }

    /// Compile occam, predict, then run and compare exactly.
    fn assert_occam_exact(source: &str) {
        let program = occam::compile(source).expect("compiles");
        let report = analyze_program(&program, WordLength::Bits32).expect("analyzable");
        let mut cpu = Cpu::new(CpuConfig::default());
        program.load(&mut cpu).expect("loads");
        cpu.run(10_000_000).expect("halts");
        assert_eq!(report.cycles, cpu.cycles(), "cycles");
        assert_eq!(
            report.instruction_bytes,
            cpu.stats().instructions,
            "instruction bytes"
        );
        assert_eq!(report.operations, cpu.stats().operations, "operations");
    }

    #[test]
    fn counted_loop_is_exact() {
        assert_occam_exact(
            "VAR a, b, t:\n\
             SEQ\n\
             \x20 a := 0\n\
             \x20 b := 1\n\
             \x20 SEQ i = [0 FOR 10]\n\
             \x20   SEQ\n\
             \x20     t := a + b\n\
             \x20     a := b\n\
             \x20     b := t",
        );
    }

    #[test]
    fn nested_counted_loops_are_exact() {
        assert_occam_exact(
            "VAR s:\n\
             SEQ\n\
             \x20 s := 0\n\
             \x20 SEQ i = [0 FOR 4]\n\
             \x20   SEQ j = [0 FOR 5]\n\
             \x20     s := s + (i * j)",
        );
    }

    #[test]
    fn zero_trip_loop_is_exact() {
        assert_occam_exact(
            "VAR s:\n\
             SEQ\n\
             \x20 s := 1\n\
             \x20 SEQ i = [0 FOR 0]\n\
             \x20   s := s + 1",
        );
    }

    #[test]
    fn while_loop_is_refused() {
        let program = occam::compile(
            "VAR x:\n\
             SEQ\n\
             \x20 x := 10\n\
             \x20 WHILE x > 0\n\
             \x20   x := x - 1",
        )
        .expect("compiles");
        let err = analyze_program(&program, WordLength::Bits32).unwrap_err();
        assert!(
            err.reason.contains("data-dependent branch") || err.reason.contains("unstructured"),
            "{err}"
        );
    }

    #[test]
    fn block_costs_sum_to_total() {
        let program = occam::compile(
            "VAR s:\n\
             SEQ\n\
             \x20 s := 0\n\
             \x20 SEQ i = [0 FOR 7]\n\
             \x20   s := s + i",
        )
        .expect("compiles");
        let report = analyze_program(&program, WordLength::Bits32).expect("analyzable");
        let cycles: u64 = report.blocks.iter().map(|b| b.cycles).sum();
        let bytes: u64 = report.blocks.iter().map(|b| b.bytes).sum();
        let ops: u64 = report.blocks.iter().map(|b| b.ops).sum();
        assert_eq!(cycles, report.cycles);
        assert_eq!(bytes, report.instruction_bytes);
        assert_eq!(ops, report.operations);
        assert!(report.cpi() > 0.0);
    }
}
