//! Layer 2: abstract interpretation of assembled I1 bytecode.
//!
//! The verifier decodes a code image into logical instructions (prefix
//! chains folded, §3.2.7), then runs a worklist dataflow over them
//! tracking:
//!
//! * **evaluation-stack depth** as an interval `[lo, hi]` over the
//!   three-register A/B/C stack, using the per-instruction effects from
//!   [`transputer::instr::StackEffect`] — definite underflow (an
//!   instruction needs more operands than any path provides) and
//!   definite overflow (a push that must discard a live `Creg`) are
//!   errors;
//! * **workspace displacement** relative to the entry workspace
//!   pointer (`ajw` shifts it, `call`/`ret` balance, `gajw` loses it),
//!   so `ldl`/`stl`/`ldlp` offsets can be bounds-checked against the
//!   codegen-allocated frame ([`CodeShape`]);
//! * **constant stack slots**, enough to discover `startp` child entry
//!   points and `lend` back edges, which are Iptr-relative operands on
//!   the stack rather than in the instruction.
//!
//! Reporting is *definite-error only*: a check fires when every path
//! reaching the instruction exhibits the defect. That is a property of
//! the *final* states, so nothing is reported while the worklist is
//! still widening them: `analyze` runs the dataflow to its fixpoint
//! and then reports in one sweep over what it settled on (as it reads
//! `startp`/`lend` targets: a constant that later merges to unknown
//! names no edge). Code the dataflow
//! never reaches from the entry (e.g. `ALT` branches entered through
//! `altend`'s computed jump) is re-seeded with an unknown state so its
//! encodings and jump targets are still validated; its depth checks
//! are then vacuous by construction rather than wrong.
//!
//! Deliberate model deviations from `cpu/exec.rs`:
//!
//! * `call` saves A/B/C whether or not they are live, so its pops are
//!   non-strict (no underflow check) and the target starts at depth 1
//!   (the return address).
//! * After an instruction that can deschedule mid-stack (`in`, `out`),
//!   register constants are dropped; the depth interval is kept, since
//!   resumption restores control just after the instruction.

use std::collections::VecDeque;

use crate::diag::{Diagnostic, Span};
use transputer::instr::{self, encoded_len, Direct, Op, StackEffect};

/// One decoded logical instruction (prefix chain folded in).
pub use transputer::instr::Insn;

/// The workspace frame shape a code image was compiled for: how many
/// words sit at/above the entry workspace pointer (`locals`) and how
/// many below it (`depth`), mirroring `occam::Program`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeShape {
    /// Words at and above the initial workspace pointer.
    pub locals: u32,
    /// Words below the initial workspace pointer.
    pub depth: u32,
}

impl CodeShape {
    /// Shape of a compiled occam program.
    pub fn of(program: &occam::Program) -> CodeShape {
        CodeShape {
            locals: program.locals,
            depth: program.depth,
        }
    }
}

/// Abstract machine state at an instruction boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct State {
    /// Evaluation-stack depth interval, 0..=3.
    pub lo: u8,
    pub hi: u8,
    /// Known workspace displacement (words) from the entry Wptr.
    pub wadj: Option<i64>,
    /// Known constants in A, B, C.
    pub regs: [Option<i64>; 3],
}

impl State {
    pub fn entry() -> State {
        State {
            lo: 0,
            hi: 0,
            wadj: Some(0),
            regs: [None; 3],
        }
    }

    pub fn unknown() -> State {
        State {
            lo: 0,
            hi: 3,
            wadj: None,
            regs: [None; 3],
        }
    }

    /// Lattice join; returns whether `self` widened.
    pub fn merge(&mut self, other: &State) -> bool {
        let before = *self;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        if self.wadj != other.wadj {
            self.wadj = None;
        }
        for i in 0..3 {
            if self.regs[i] != other.regs[i] {
                self.regs[i] = None;
            }
        }
        *self != before
    }

    /// Apply `pops` then `pushes` unknown results.
    fn apply(&mut self, e: StackEffect) {
        for _ in 0..e.pops {
            self.pop();
        }
        for _ in 0..e.pushes {
            self.push(None);
        }
    }

    fn pop(&mut self) {
        self.lo = self.lo.saturating_sub(1);
        self.hi = self.hi.saturating_sub(1);
        // B moves into A, C into B; C keeps its (now duplicate) value,
        // but for constant tracking we forget it.
        self.regs = [self.regs[1], self.regs[2], None];
    }

    fn push(&mut self, v: Option<i64>) {
        self.lo = (self.lo + 1).min(3);
        self.hi = (self.hi + 1).min(3);
        self.regs = [v, self.regs[0], self.regs[1]];
    }
}

/// Everything the instruction-level dataflow learns about a code image,
/// for reuse by the CFG layer (`crate::cfg`).
#[derive(Debug)]
pub(crate) struct Analysis {
    /// Decoded instructions, in address order.
    pub insns: Vec<Insn>,
    /// Byte offset → instruction index.
    pub index: Boundaries,
    /// Final entry state per instruction.
    pub states: Vec<State>,
    /// Per instruction, the `startp` child entry or `lend` loop start
    /// (an unvalidated byte address) when its operand is a constant in
    /// the final state.
    pub discovered: Vec<Option<i64>>,
    /// All findings, unsorted.
    pub diags: Vec<Diagnostic>,
}

/// Verify a code image. `shape` enables the workspace-bounds check;
/// pass `None` for raw images of unknown frame layout.
pub fn verify_bytecode(code: &[u8], shape: Option<&CodeShape>) -> Vec<Diagnostic> {
    let mut diags = analyze(code, shape).diags;
    crate::diag::sort(&mut diags);
    diags
}

/// Run decode, static target checks and the worklist dataflow to its
/// fixpoint, then report from the final states, keeping them and the
/// discovered targets.
pub(crate) fn analyze(code: &[u8], shape: Option<&CodeShape>) -> Analysis {
    let mut diags = Vec::new();
    let insns = decode(code, &mut diags);
    let index = Boundaries::new(&insns, code.len());

    // Static jump-target validation (j / cj / call operands).
    for insn in &insns {
        if matches!(
            insn.fun,
            Direct::Jump | Direct::ConditionalJump | Direct::Call
        ) {
            let target = insn.end() as i64 + insn.operand;
            check_target(insn, "target", target, &index, &mut diags);
        }
    }

    // Dataflow: from the entry, then — until every instruction has been
    // visited — from each one only reachable through a computed control
    // transfer (altend), seeded with an unknown state.
    let mut reached: Vec<Option<State>> = vec![None; insns.len()];
    let mut work = Worklist {
        queue: VecDeque::new(),
        queued: vec![false; insns.len()],
    };
    let (mut seed, mut from) = (State::entry(), 0);
    while let Some(i) = reached[from..].iter().position(Option::is_none) {
        from += i;
        work.merge(from, &seed, &mut reached);
        while let Some(i) = work.pop() {
            let state = reached[i].expect("queued with a state");
            // Findings of a state that may yet widen are not findings.
            let out = step(&insns[i], &state, shape, &mut Vec::new());
            for (t, incoming) in out.edges(i, insns.len(), &index) {
                work.merge(t, incoming, &mut reached);
            }
        }
        seed = State::unknown();
    }
    let states: Vec<State> = reached.into_iter().flatten().collect();

    // Report, and read the `startp`/`lend` targets, from the final
    // states: one `step` an instruction.
    let mut discovered = Vec::with_capacity(insns.len());
    for (insn, state) in insns.iter().zip(&states) {
        let found = step(insn, state, shape, &mut diags).discovered;
        if let Some((target, what)) = found {
            check_target(insn, what, target, &index, &mut diags);
        }
        discovered.push(found.map(|(target, _)| target));
    }

    Analysis {
        insns,
        index,
        states,
        discovered,
        diags,
    }
}

/// Verify a compiled occam program against its own frame shape.
pub fn verify_program(program: &occam::Program) -> Vec<Diagnostic> {
    verify_bytecode(&program.code, Some(&CodeShape::of(program)))
}

/// Byte offset → index of the instruction that starts there: one entry
/// a code byte, so resolving an edge is one load.
#[derive(Debug)]
pub(crate) struct Boundaries(Vec<usize>);

impl Boundaries {
    fn new(insns: &[Insn], code_len: usize) -> Boundaries {
        let mut at = vec![usize::MAX; code_len];
        for (i, insn) in insns.iter().enumerate() {
            at[insn.offset] = i;
        }
        Boundaries(at)
    }

    /// The instruction starting at byte `target`, if it is inside the
    /// code and on a boundary.
    pub(crate) fn at(&self, target: i64) -> Option<usize> {
        let i = *self.0.get(usize::try_from(target).ok()?)?;
        (i != usize::MAX).then_some(i)
    }
}

/// Report a control-transfer target (`what` names it: a `j`/`cj`/`call`
/// "target", a `startp` "child entry", a `lend` "loop start") that is
/// outside the code or off the instruction boundaries.
fn check_target(
    insn: &Insn,
    what: &str,
    target: i64,
    index: &Boundaries,
    diags: &mut Vec<Diagnostic>,
) {
    let code_len = index.0.len();
    if !(0..code_len as i64).contains(&target) {
        diags.push(Diagnostic::error(
            "jump-out-of-range",
            Span::insn(insn),
            format!(
                "{} {what} {target:#x} is outside the code (0..{:#x})",
                insn.mnemonic(),
                code_len
            ),
        ));
    } else if index.at(target).is_none() {
        diags.push(Diagnostic::error(
            "jump-mid-instruction",
            Span::insn(insn),
            format!(
                "{} {what} {target:#x} lands inside an instruction, not on a boundary",
                insn.mnemonic()
            ),
        ));
    }
}

/// Decode the image into logical instructions ([`instr::decode`]),
/// reporting encoding-level findings (truncated chains, non-minimal
/// prefixes, undefined operations).
pub fn decode(code: &[u8], diags: &mut Vec<Diagnostic>) -> Vec<Insn> {
    // An instruction is at least a byte: one allocation holds them all.
    let mut insns = Vec::with_capacity(code.len());
    insns.extend(instr::decode(code));
    for insn in &insns {
        let (fun, operand, len) = (insn.fun, insn.operand, insn.len);
        if len > encoded_len(operand) {
            diags.push(Diagnostic::warning(
                "canonical-prefix",
                Span::insn(insn),
                format!(
                    "{} {operand} uses a {len}-byte prefix chain; the minimal encoding is {} byte(s)",
                    fun.mnemonic(),
                    encoded_len(operand)
                ),
            ));
        }
        if fun == Direct::Operate && insn.op.is_none() {
            diags.push(Diagnostic::error(
                "undefined-operation",
                Span::insn(insn),
                format!("operate with undefined operation code {operand:#x}"),
            ));
        }
    }
    let end = insns.last().map_or(0, Insn::end);
    if end != code.len() {
        diags.push(Diagnostic::error(
            "truncated-instruction",
            Span::code(end as u32, (code.len() - end) as u32),
            "code ends inside a prefix chain (no final instruction byte)",
        ));
    }
    insns
}

/// Control-flow classification of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Continue to the next instruction.
    Next,
    /// Jump to a fixed target only.
    Jump(i64),
    /// Fall through or jump (cj).
    Branch(i64),
    /// No static successor ([`is_stop`], or an undefined operation).
    Stop,
}

/// Operations after which control does not continue statically.
pub(crate) fn is_stop(op: Op) -> bool {
    matches!(
        op,
        Op::EndProcess
            | Op::Return
            | Op::GeneralCall
            | Op::AltEnd
            | Op::StopProcess
            | Op::HaltSimulation
    )
}

/// Result of abstractly executing one instruction.
struct StepOut {
    /// State on the outgoing edge(s).
    next: State,
    /// Static successor classification.
    succ: Flow,
    /// The extra entry point this instruction creates: (unvalidated
    /// byte address, entry state) for a `call` target, a `startp` child
    /// or a `lend` back edge.
    seed: Option<(i64, State)>,
    /// The `startp` child entry or `lend` loop start, when its operand
    /// is a constant in `state`: (unvalidated byte address, what it is).
    discovered: Option<(i64, &'static str)>,
}

impl StepOut {
    /// Where control can go from instruction `i` (of `count`) with this
    /// outcome, and the state it arrives with: the seed, the jump
    /// target, the fall-through. A byte address is an edge only if it
    /// is on an instruction boundary; bad targets are diagnosed
    /// separately.
    fn edges<'a>(
        &'a self,
        i: usize,
        count: usize,
        index: &'a Boundaries,
    ) -> impl Iterator<Item = (usize, &'a State)> + 'a {
        let (jump, falls) = match self.succ {
            Flow::Next => (None, true),
            Flow::Jump(target) => (Some(target), false),
            Flow::Branch(target) => (Some(target), true),
            Flow::Stop => (None, false),
        };
        let seed = self.seed.as_ref().map(|(target, entry)| (*target, entry));
        let jump = jump.map(|target| (target, &self.next));
        let fall = (falls && i + 1 < count).then_some((i + 1, &self.next));
        let landed = seed
            .into_iter()
            .chain(jump)
            .filter_map(|(t, s)| Some((index.at(t)?, s)));
        landed.chain(fall)
    }
}

/// Abstractly execute `insn` in `state`, reporting the stack and
/// workspace findings `state` implies — findings that hold only if
/// `state` is final, so the worklist discards them and [`analyze`]
/// keeps those of its last sweep.
fn step(
    insn: &Insn,
    state: &State,
    shape: Option<&CodeShape>,
    diags: &mut Vec<Diagnostic>,
) -> StepOut {
    let mut next = *state;
    let mut succ = Flow::Next;
    let mut seed = None;
    let mut discovered = None;

    let effect = match insn.fun {
        Direct::Operate => insn.op.map(Op::stack_effect),
        fun => fun.stack_effect(),
    };

    // Strict-pop underflow: fires only when even the deepest path
    // cannot supply the operands. call is non-strict (see module
    // docs); undefined operations have no effect to apply.
    let strict = !matches!(insn.fun, Direct::Call);
    if let Some(e) = effect {
        if strict && e.pops > state.hi {
            diags.push(Diagnostic::error(
                "stack-underflow",
                Span::insn(insn),
                format!(
                    "{} needs {} stack operand(s) but at most {} can be on the stack here",
                    insn.mnemonic(),
                    e.pops,
                    state.hi
                ),
            ));
        }
        let after_lo = state.lo.saturating_sub(e.pops);
        if strict && after_lo + e.pushes > 3 {
            diags.push(Diagnostic::error(
                "stack-overflow",
                Span::insn(insn),
                format!(
                    "{} pushes {} result(s) onto a stack already holding {}: Creg is lost",
                    insn.mnemonic(),
                    e.pushes,
                    after_lo
                ),
            ));
        }
    }

    match insn.fun {
        Direct::Jump => succ = Flow::Jump(insn.end() as i64 + insn.operand),
        Direct::ConditionalJump => {
            // Fall-through pops the condition; the taken edge keeps
            // A (known zero). Both are folded into one successor
            // state: depth interval spans both outcomes.
            let mut taken = *state;
            taken.regs[0] = Some(0);
            next.apply(StackEffect::new(1, 0));
            next.merge(&taken);
            succ = Flow::Branch(insn.end() as i64 + insn.operand);
        }
        Direct::Call => {
            // Fall-through resumes after the callee returns: the
            // wptr balance is restored, but the callee chooses what
            // the stack holds.
            next.lo = 0;
            next.hi = 3;
            next.regs = [None; 3];
            // The target runs with the return address in A and the
            // wptr four words lower — but reached from potentially
            // many sites, so its wadj is tracked only through the
            // merge. The return-address copy is dead on arrival
            // (`ret` reloads it from w[0]), so model it as
            // possibly-absent: a callee that loads its arguments
            // three-deep pushes it off the stack by design, and that
            // must not count as losing a live Creg.
            let callee = State {
                lo: 0,
                hi: 1,
                wadj: state.wadj.map(|w| w - 4),
                regs: [None; 3],
            };
            seed = Some((insn.end() as i64 + insn.operand, callee));
        }
        Direct::AdjustWorkspace => {
            next.wadj = state.wadj.map(|w| w + insn.operand);
        }
        Direct::LoadLocal | Direct::StoreLocal | Direct::LoadLocalPointer => {
            if let Some(e) = effect {
                next.apply(e);
            }
            if let (Some(shape), Some(w)) = (shape, state.wadj) {
                let slot = w + insn.operand;
                if slot < -i64::from(shape.depth) || slot >= i64::from(shape.locals) {
                    diags.push(Diagnostic::error(
                        "workspace-oob",
                        Span::insn(insn),
                        format!(
                            "{} {} addresses workspace word {slot}, outside the allocated frame ({}..{})",
                            insn.mnemonic(),
                            insn.operand,
                            -i64::from(shape.depth),
                            shape.locals
                        ),
                    ));
                }
            }
        }
        Direct::LoadConstant => {
            next.push(Some(insn.operand));
        }
        Direct::Operate => match insn.op {
            None => succ = Flow::Stop,
            Some(op) => {
                match op {
                    Op::StartProcess => {
                        // B = child code offset from the end of this
                        // instruction; the child starts with an empty
                        // stack and its own workspace.
                        if let Some(b) = state.regs[1] {
                            let target = insn.end() as i64 + b;
                            discovered = Some((target, "child entry"));
                            let child = State {
                                lo: 0,
                                hi: 0,
                                wadj: None,
                                regs: [None; 3],
                            };
                            seed = Some((target, child));
                        }
                        next.apply(op.stack_effect());
                    }
                    Op::LoopEnd => {
                        // A = bytes back to the loop start.
                        next.apply(op.stack_effect());
                        if let Some(a) = state.regs[0] {
                            let target = insn.end() as i64 - a;
                            discovered = Some((target, "loop start"));
                            seed = Some((target, next));
                        }
                    }
                    Op::GeneralAdjustWorkspace => {
                        next.apply(op.stack_effect());
                        next.wadj = None;
                    }
                    op if is_stop(op) => {
                        next.apply(op.stack_effect());
                        succ = Flow::Stop;
                    }
                    Op::InputMessage | Op::OutputMessage => {
                        // Deschedule points: depth is restored on
                        // resumption but register contents are not
                        // worth trusting.
                        next.apply(op.stack_effect());
                        next.regs = [None; 3];
                    }
                    other => next.apply(other.stack_effect()),
                }
            }
        },
        _ => {
            if let Some(e) = effect {
                next.apply(e);
            }
        }
    }

    StepOut {
        next,
        succ,
        seed,
        discovered,
    }
}

/// Instructions whose entry state widened since they were last
/// stepped, in order, each queued once.
struct Worklist {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl Worklist {
    /// Join `incoming` into instruction `target`'s state, queueing it if
    /// that widened the state.
    fn merge(&mut self, target: usize, incoming: &State, states: &mut [Option<State>]) {
        let widened = match &mut states[target] {
            Some(s) => s.merge(incoming),
            slot @ None => {
                *slot = Some(*incoming);
                true
            }
        };
        if widened && !self.queued[target] {
            self.queued[target] = true;
            self.queue.push_back(target);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let i = self.queue.pop_front()?;
        self.queued[i] = false;
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer::instr::{encode, encode_into, encode_op};

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    fn errors(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags
            .iter()
            .filter(|d| d.is_error())
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_straight_line_program_passes() {
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 7, &mut code);
        encode_into(Direct::StoreLocal, 0, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let shape = CodeShape {
            locals: 1,
            depth: 0,
        };
        assert!(verify_bytecode(&code, Some(&shape)).is_empty());
    }

    #[test]
    fn underflow_is_definite_only() {
        // add with an empty stack: definite underflow.
        let code = encode_op(Op::Add);
        assert_eq!(errors(&verify_bytecode(&code, None)), ["stack-underflow"]);
        // One operand is still one short.
        let mut code = encode(Direct::LoadConstant, 1);
        code.extend(encode_op(Op::Add));
        assert_eq!(errors(&verify_bytecode(&code, None)), ["stack-underflow"]);
        // Two operands: fine.
        let mut code = encode(Direct::LoadConstant, 1);
        code.extend(encode(Direct::LoadConstant, 2));
        code.extend(encode_op(Op::Add));
        code.extend(encode_op(Op::HaltSimulation));
        assert!(verify_bytecode(&code, None).is_empty());
    }

    #[test]
    fn overflow_detects_creg_loss() {
        let mut code = Vec::new();
        for v in 0..4 {
            encode_into(Direct::LoadConstant, v, &mut code);
        }
        code.extend(encode_op(Op::HaltSimulation));
        assert_eq!(errors(&verify_bytecode(&code, None)), ["stack-overflow"]);
    }

    #[test]
    fn jump_into_prefix_chain_is_flagged() {
        // j 1 lands between the pfix bytes of the following ldc #754.
        let mut code = encode(Direct::Jump, 1);
        code.extend(encode(Direct::LoadConstant, 0x754));
        assert_eq!(
            errors(&verify_bytecode(&code, None)),
            ["jump-mid-instruction"]
        );
    }

    #[test]
    fn jump_out_of_code_is_flagged() {
        let code = encode(Direct::Jump, 15);
        assert_eq!(errors(&verify_bytecode(&code, None)), ["jump-out-of-range"]);
    }

    #[test]
    fn workspace_bounds_respect_shape() {
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 1, &mut code);
        encode_into(Direct::StoreLocal, 9, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let shape = CodeShape {
            locals: 2,
            depth: 0,
        };
        assert_eq!(
            errors(&verify_bytecode(&code, Some(&shape))),
            ["workspace-oob"]
        );
        // Without a shape the check is silent.
        assert!(verify_bytecode(&code, None).is_empty());
    }

    #[test]
    fn ajw_moves_the_checked_window() {
        // ajw -2 then stl 1 addresses word -1: fine with depth 2.
        let mut code = Vec::new();
        encode_into(Direct::AdjustWorkspace, -2, &mut code);
        encode_into(Direct::LoadConstant, 1, &mut code);
        encode_into(Direct::StoreLocal, 1, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let ok = CodeShape {
            locals: 1,
            depth: 2,
        };
        assert!(verify_bytecode(&code, Some(&ok)).is_empty());
        let too_small = CodeShape {
            locals: 1,
            depth: 0,
        };
        assert_eq!(
            errors(&verify_bytecode(&code, Some(&too_small))),
            ["workspace-oob"]
        );
    }

    #[test]
    fn non_minimal_prefix_chain_warns() {
        // pfix 0; ldc 5 encodes operand 5 in two bytes where one is enough.
        let code = vec![0x20, 0x45];
        let diags = verify_bytecode(&code, None);
        assert_eq!(codes(&diags), ["canonical-prefix"]);
        assert!(!diags[0].is_error());
    }

    #[test]
    fn prefix_chains_fold_into_a_32_bit_oreg() {
        // ldc 2; ldc 3; pfix 1 and seven pfix 0 shift the 1 out of the
        // T424's Oreg, so `opr 5` is `add`, redundantly encoded; haltsim.
        let code = [
            0x42, 0x43, 0x21, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0xF5, 0x21, 0x27, 0xFF,
        ];
        assert_eq!(codes(&verify_bytecode(&code, None)), ["canonical-prefix"]);
    }

    #[test]
    fn truncated_prefix_chain_is_an_error() {
        let code = vec![0x21];
        assert_eq!(
            errors(&verify_bytecode(&code, None)),
            ["truncated-instruction"]
        );
    }

    #[test]
    fn undefined_operation_is_an_error() {
        // opr 0x11 has no defined operation.
        let code = encode(Direct::Operate, 0x11);
        assert_eq!(
            errors(&verify_bytecode(&code, None)),
            ["undefined-operation"]
        );
    }

    #[test]
    fn startp_child_entry_is_validated() {
        // ldc offset; ldlp 0; startp with an offset landing mid-chain.
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 1, &mut code);
        encode_into(Direct::LoadLocalPointer, 0, &mut code);
        code.extend(encode_op(Op::StartProcess));
        code.extend(encode(Direct::LoadConstant, 0x754)); // 3-byte target zone
        code.extend(encode_op(Op::HaltSimulation));
        let diags = verify_bytecode(&code, None);
        assert!(
            errors(&diags).contains(&"jump-mid-instruction"),
            "got {diags:?}"
        );
    }

    #[test]
    fn conditional_jump_keeps_both_edges_sound() {
        // ldc 1; cj over; ldc 2; stl 0; over: haltsim
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 1, &mut code);
        let body_len = {
            let mut b = Vec::new();
            encode_into(Direct::LoadConstant, 2, &mut b);
            encode_into(Direct::StoreLocal, 0, &mut b);
            b.len()
        };
        encode_into(Direct::ConditionalJump, body_len as i64, &mut code);
        encode_into(Direct::LoadConstant, 2, &mut code);
        encode_into(Direct::StoreLocal, 0, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let shape = CodeShape {
            locals: 1,
            depth: 0,
        };
        assert!(verify_bytecode(&code, Some(&shape)).is_empty());
    }

    #[test]
    fn empty_code_is_clean() {
        assert!(verify_bytecode(&[], None).is_empty());
    }

    /// Characterisation, not specification: this pins an imprecision
    /// so that a change to the dataflow's visit order shows up here.
    /// `ldc 0; ldl 4; cj 1; startp; ldc 5; startp; lb; ldl 9`: both
    /// edges out of `cj` carry A = 0. The FIFO worklist steps `ldc 5`
    /// before the first `startp`, so the second `startp` first sees
    /// B = 0, a constant, and seeds a child entry at `lb` with an unknown
    /// workspace. The first `startp` then falls into `ldc 5` and B
    /// merges to unknown. The final state names no child (no edge in
    /// the CFG), but the phantom seed has already widened `lb`'s
    /// `wadj`, so `ldl 9` goes unchecked. Visit the first `startp`
    /// first and no seed is made.
    #[test]
    fn a_transient_startp_constant_leaves_a_phantom_child_seed() {
        let shape = CodeShape {
            locals: 5,
            depth: 0,
        };
        let image = [0x40, 0x74, 0xA1, 0xFD, 0x45, 0xFD, 0xF1, 0x79];
        assert!(verify_bytecode(&image, Some(&shape)).is_empty());
        assert!(crate::cfg::verify_bytecode_cfg(&image, Some(&shape)).is_empty());
        let a = analyze(&image, Some(&shape));
        assert_eq!((a.discovered[5], a.states[6].wadj), (None, None));
        // Without the first `startp`, `ldl 9` is out of the frame.
        let without = [0x40, 0x74, 0xA1, 0x45, 0xFD, 0xF1, 0x79];
        assert_eq!(
            codes(&verify_bytecode(&without, Some(&shape))),
            ["workspace-oob"]
        );
        assert_eq!(
            codes(&crate::cfg::verify_bytecode_cfg(&without, Some(&shape))),
            ["workspace-oob"]
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]
        /// Over random images: the states `analyze` reports from are
        /// final (no edge out of one widens another), a `step` over
        /// each reproduces exactly the dataflow findings it reported —
        /// none is a leftover of a state that later widened — and the
        /// CFG pass adds nothing to them but the taint scan's.
        #[test]
        fn reports_come_from_final_states(
            code in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..48)
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let shape = CodeShape { locals: 4, depth: 4 };
            let a = analyze(&code, Some(&shape));
            let mut again = Vec::new();
            for (i, (insn, state)) in a.insns.iter().zip(&a.states).enumerate() {
                let out = step(insn, state, Some(&shape), &mut again);
                for (t, incoming) in out.edges(i, a.insns.len(), &a.index) {
                    let mut settled = a.states[t];
                    prop_assert!(!settled.merge(incoming), "{i} widens {t}");
                }
            }
            let dataflow = ["stack-underflow", "stack-overflow", "workspace-oob"];
            let reported = a.diags.iter().filter(|d| dataflow.contains(&d.code));
            prop_assert_eq!(reported.collect::<Vec<_>>(), again.iter().collect::<Vec<_>>());

            let mut cfg = crate::cfg::verify_bytecode_cfg(&code, Some(&shape));
            cfg.retain(|d| d.code != "self-modifying");
            prop_assert_eq!(cfg, verify_bytecode(&code, Some(&shape)));
        }
    }
}
