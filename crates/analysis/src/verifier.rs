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
//! the *final* states. Each worklist step of an instruction overwrites
//! what the instruction found and which `startp`/`lend` target it read,
//! and the last step of every instruction runs on its final state, so
//! what is left at the fixpoint is what the final states imply (a
//! constant that later merges to unknown names no edge). No instruction
//! is stepped again to report. Code the dataflow
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

/// `State::known` bit of `wadj`; bits 0–2 are A, B and C.
const WADJ: u8 = 1 << 3;

/// `State::lo` of an instruction no path has reached yet.
const UNREACHED: u8 = u8::MAX;

/// Abstract machine state at an instruction boundary, packed: a value
/// is a known constant when its bit in `known` is set, and an unknown
/// one is held as 0, so the derived `Eq` is lattice equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct State {
    /// Evaluation-stack depth interval, 0..=3.
    lo: u8,
    hi: u8,
    /// Which of A, B, C (bits 0–2) and `wadj` ([`WADJ`]) are known.
    known: u8,
    /// Workspace displacement (words) from the entry Wptr.
    wadj: i64,
    /// Constants in A, B, C.
    regs: [i64; 3],
}

impl State {
    const fn new(lo: u8, hi: u8) -> State {
        State {
            lo,
            hi,
            known: 0,
            wadj: 0,
            regs: [0; 3],
        }
    }

    pub fn entry() -> State {
        State {
            known: WADJ,
            ..State::new(0, 0)
        }
    }

    pub fn unknown() -> State {
        State::new(0, 3)
    }

    /// Known workspace displacement.
    pub fn wadj(&self) -> Option<i64> {
        (self.known & WADJ != 0).then_some(self.wadj)
    }

    /// Known constant in A (0), B (1) or C (2).
    pub fn reg(&self, i: usize) -> Option<i64> {
        (self.known & 1 << i != 0).then_some(self.regs[i])
    }

    fn set_wadj(&mut self, wadj: Option<i64>) {
        self.wadj = wadj.unwrap_or(0);
        self.known = self.known & !WADJ | if wadj.is_some() { WADJ } else { 0 };
    }

    fn forget_regs(&mut self) {
        self.regs = [0; 3];
        self.known &= WADJ;
    }

    /// Lattice join; returns whether `self` widened.
    pub fn merge(&mut self, other: &State) -> bool {
        let before = *self;
        self.lo = self.lo.min(other.lo);
        self.hi = self.hi.max(other.hi);
        let mut known = self.known & other.known;
        if self.wadj != other.wadj {
            known &= !WADJ;
        }
        for i in 0..3 {
            if self.regs[i] != other.regs[i] {
                known &= !(1 << i);
            }
        }
        self.known = known;
        if known & WADJ == 0 {
            self.wadj = 0;
        }
        for i in 0..3 {
            if known & 1 << i == 0 {
                self.regs[i] = 0;
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
        self.regs = [self.regs[1], self.regs[2], 0];
        self.known = self.known & WADJ | self.known >> 1 & 0b011;
    }

    fn push(&mut self, v: Option<i64>) {
        self.lo = (self.lo + 1).min(3);
        self.hi = (self.hi + 1).min(3);
        self.regs = [v.unwrap_or(0), self.regs[0], self.regs[1]];
        self.known = self.known & WADJ | self.known << 1 & 0b110 | u8::from(v.is_some());
    }
}

/// The one table a code image's analyses read: what the instruction-
/// level dataflow learns, kept for CFG recovery (`crate::cfg`) and the
/// cost model (`crate::cost`).
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
    /// Worklist steps taken: at least one an instruction, more where a
    /// state widened after its instruction was stepped.
    #[cfg_attr(not(test), allow(dead_code))]
    pub steps: usize,
    /// Worklist rounds: one from the entry, then one for each unreached
    /// instruction seeded with an unknown state.
    #[cfg_attr(not(test), allow(dead_code))]
    pub rounds: usize,
}

/// Verify a code image. `shape` enables the workspace-bounds check;
/// pass `None` for raw images of unknown frame layout.
pub fn verify_bytecode(code: &[u8], shape: Option<&CodeShape>) -> Vec<Diagnostic> {
    let mut diags = analyze(code, shape).diags;
    crate::diag::sort(&mut diags);
    diags
}

/// Run decode and the worklist dataflow to its fixpoint, keeping each
/// instruction's findings and discovered target from its last step,
/// then report them with the static target checks.
pub(crate) fn analyze(code: &[u8], shape: Option<&CodeShape>) -> Analysis {
    let mut diags = Vec::new();
    let insns = decode(code, &mut diags);
    let index = Boundaries::new(&insns, code.len());
    let count = insns.len();

    // Dataflow: from the entry, then — until every instruction has been
    // visited — from each one only reachable through a computed control
    // transfer (altend), seeded with an unknown state.
    let mut states = vec![State::new(UNREACHED, 0); count];
    let mut found = vec![false; count];
    let mut discovered = vec![None; count];
    let mut work = Worklist {
        queue: VecDeque::with_capacity(count),
        queued: vec![false; count],
    };
    let (mut steps, mut rounds) = (0, 0);
    let (mut seed, mut from) = (State::entry(), 0);
    while let Some(i) = states[from..].iter().position(|s| s.lo == UNREACHED) {
        from += i;
        work.merge(from, &seed, &mut states);
        while let Some(i) = work.pop() {
            let mut state = states[i];
            let out = step(&insns[i], &mut state, shape);
            steps += 1;
            found[i] = out.found;
            discovered[i] = out.discovered;
            out.for_each_edge(i, count, &state, &index, |t, incoming| {
                work.merge(t, incoming, &mut states)
            });
        }
        seed = State::unknown();
        rounds += 1;
    }

    // Report what the last steps found — each ran on its instruction's
    // final state — and check the static jump targets.
    for (i, insn) in insns.iter().enumerate() {
        if found[i] {
            check(insn, &states[i], shape, Some(&mut diags));
        }
        let target = match (insn.fun, insn.op) {
            (Direct::Jump | Direct::ConditionalJump | Direct::Call, _) => {
                Some((insn.end() as i64 + insn.operand, "target"))
            }
            (_, Some(Op::StartProcess)) => discovered[i].map(|t| (t, "child entry")),
            (_, Some(Op::LoopEnd)) => discovered[i].map(|t| (t, "loop start")),
            _ => None,
        };
        if let Some((target, what)) = target {
            check_target(insn, what, target, &index, &mut diags);
        }
    }

    Analysis {
        insns,
        index,
        states,
        discovered,
        diags,
        steps,
        rounds,
    }
}

/// Verify a compiled occam program against its own frame shape.
pub fn verify_program(program: &occam::Program) -> Vec<Diagnostic> {
    verify_bytecode(&program.code, Some(&CodeShape::of(program)))
}

/// Byte offset → index of the instruction that starts there: one entry
/// a code byte, so resolving an edge is one load.
#[derive(Debug)]
pub(crate) struct Boundaries(Vec<u32>);

impl Boundaries {
    fn new(insns: &[Insn], code_len: usize) -> Boundaries {
        let mut at = vec![u32::MAX; code_len];
        for (i, insn) in insns.iter().enumerate() {
            at[insn.offset] = i as u32;
        }
        Boundaries(at)
    }

    /// The instruction starting at byte `target`, if it is inside the
    /// code and on a boundary.
    pub(crate) fn at(&self, target: i64) -> Option<usize> {
        let i = *self.0.get(usize::try_from(target).ok()?)?;
        (i != u32::MAX).then_some(i as usize)
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

/// What one step learned besides the outgoing state.
struct Stepped {
    /// Static successor classification.
    flow: Flow,
    /// The extra entry point this instruction creates: (unvalidated
    /// byte address, entry state) for a `call` target, a `startp` child
    /// or a `lend` back edge.
    seed: Option<(i64, State)>,
    /// The `startp` child entry or `lend` loop start, when its operand
    /// is a constant in the incoming state (an unvalidated byte address).
    discovered: Option<i64>,
    /// Whether [`check`] finds a defect in the incoming state.
    found: bool,
}

impl Stepped {
    /// Visit where control can go from instruction `i` (of `count`),
    /// whose outgoing state is `next`, with the state it arrives with,
    /// in worklist order: the seed, the jump target, the fall-through.
    /// A byte address is an edge only if it is on an instruction
    /// boundary; bad targets are diagnosed separately.
    fn for_each_edge(
        &self,
        i: usize,
        count: usize,
        next: &State,
        index: &Boundaries,
        mut visit: impl FnMut(usize, &State),
    ) {
        if let Some((target, entry)) = &self.seed {
            if let Some(t) = index.at(*target) {
                visit(t, entry);
            }
        }
        let (jump, falls) = match self.flow {
            Flow::Next => (None, true),
            Flow::Jump(target) => (Some(target), false),
            Flow::Branch(target) => (Some(target), true),
            Flow::Stop => (None, false),
        };
        if let Some(t) = jump.and_then(|target| index.at(target)) {
            visit(t, next);
        }
        if falls && i + 1 < count {
            visit(i + 1, next);
        }
    }
}

/// The stack effect `insn` applies, if its operation is defined.
fn effect(insn: &Insn) -> Option<StackEffect> {
    match insn.fun {
        Direct::Operate => insn.op.map(Op::stack_effect),
        fun => fun.stack_effect(),
    }
}

/// Whether entering `insn` in `state` has a definite stack or workspace
/// defect; with `diags`, each one is also reported there.
fn check(
    insn: &Insn,
    state: &State,
    shape: Option<&CodeShape>,
    mut diags: Option<&mut Vec<Diagnostic>>,
) -> bool {
    let mut found = false;
    // Strict-pop underflow: fires only when even the deepest path
    // cannot supply the operands. call is non-strict (see module
    // docs); undefined operations have no effect to apply.
    if let Some(e) = effect(insn).filter(|_| insn.fun != Direct::Call) {
        if e.pops > state.hi {
            found = true;
            if let Some(diags) = diags.as_deref_mut() {
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
        }
        let after_lo = state.lo.saturating_sub(e.pops);
        if after_lo + e.pushes > 3 {
            found = true;
            if let Some(diags) = diags.as_deref_mut() {
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
    }
    let local = matches!(
        insn.fun,
        Direct::LoadLocal | Direct::StoreLocal | Direct::LoadLocalPointer
    );
    if let (true, Some(shape), Some(w)) = (local, shape, state.wadj()) {
        let slot = w + insn.operand;
        if slot < -i64::from(shape.depth) || slot >= i64::from(shape.locals) {
            found = true;
            if let Some(diags) = diags {
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
    found
}

/// Abstractly execute `insn`, turning its entry `state` into the state
/// on its outgoing edge(s). What it finds holds only if `state` is
/// final, so [`analyze`] keeps what each instruction's last step found.
fn step(insn: &Insn, state: &mut State, shape: Option<&CodeShape>) -> Stepped {
    let found = check(insn, state, shape, None);
    let mut flow = Flow::Next;
    let mut seed = None;
    let mut discovered = None;
    let end = insn.end() as i64;

    match insn.fun {
        Direct::Jump => flow = Flow::Jump(end + insn.operand),
        Direct::ConditionalJump => {
            // Fall-through pops the condition; the taken edge keeps
            // A (known zero). Both are folded into one successor
            // state: depth interval spans both outcomes.
            let mut taken = *state;
            taken.regs[0] = 0;
            taken.known |= 1;
            state.pop();
            state.merge(&taken);
            flow = Flow::Branch(end + insn.operand);
        }
        Direct::Call => {
            // Fall-through resumes after the callee returns: the
            // wptr balance is restored, but the callee chooses what
            // the stack holds.
            state.lo = 0;
            state.hi = 3;
            state.forget_regs();
            // The target runs with the return address in A and the
            // wptr four words lower — but reached from potentially
            // many sites, so its wadj is tracked only through the
            // merge. The return-address copy is dead on arrival
            // (`ret` reloads it from w[0]), so model it as
            // possibly-absent: a callee that loads its arguments
            // three-deep pushes it off the stack by design, and that
            // must not count as losing a live Creg.
            let mut callee = State::new(0, 1);
            callee.set_wadj(state.wadj().map(|w| w - 4));
            seed = Some((end + insn.operand, callee));
        }
        Direct::AdjustWorkspace => state.set_wadj(state.wadj().map(|w| w + insn.operand)),
        Direct::LoadConstant => state.push(Some(insn.operand)),
        Direct::Operate => match insn.op {
            None => flow = Flow::Stop,
            Some(op) => {
                let (a, b) = (state.reg(0), state.reg(1));
                state.apply(op.stack_effect());
                match op {
                    // B = child code offset from the end of this
                    // instruction; the child starts with an empty
                    // stack and its own workspace.
                    Op::StartProcess => {
                        discovered = b.map(|b| end + b);
                        seed = discovered.map(|t| (t, State::new(0, 0)));
                    }
                    // A = bytes back to the loop start.
                    Op::LoopEnd => {
                        discovered = a.map(|a| end - a);
                        seed = discovered.map(|t| (t, *state));
                    }
                    Op::GeneralAdjustWorkspace => state.set_wadj(None),
                    op if is_stop(op) => flow = Flow::Stop,
                    // Deschedule points: depth is restored on
                    // resumption but register contents are not worth
                    // trusting.
                    Op::InputMessage | Op::OutputMessage => state.forget_regs(),
                    _ => {}
                }
            }
        },
        fun => {
            if let Some(e) = fun.stack_effect() {
                state.apply(e);
            }
        }
    }

    Stepped {
        flow,
        seed,
        discovered,
        found,
    }
}

/// Instructions whose entry state widened since they were last
/// stepped, in order, each queued once.
struct Worklist {
    queue: VecDeque<u32>,
    queued: Vec<bool>,
}

impl Worklist {
    /// Join `incoming` into instruction `target`'s state, queueing it if
    /// that widened the state.
    fn merge(&mut self, target: usize, incoming: &State, states: &mut [State]) {
        let state = &mut states[target];
        let widened = if state.lo == UNREACHED {
            *state = *incoming;
            true
        } else {
            state.merge(incoming)
        };
        if widened && !self.queued[target] {
            self.queued[target] = true;
            self.queue.push_back(target as u32);
        }
    }

    fn pop(&mut self) -> Option<usize> {
        let i = self.queue.pop_front()? as usize;
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
        assert_eq!((a.discovered[5], a.states[6].wadj()), (None, None));
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

    /// The `Option`-based lattice the packed [`State`] replaced, kept as
    /// its model.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Model {
        lo: u8,
        hi: u8,
        wadj: Option<i64>,
        regs: [Option<i64>; 3],
    }

    impl Model {
        fn merge(&mut self, other: &Model) -> bool {
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

        fn pop(&mut self) {
            self.lo = self.lo.saturating_sub(1);
            self.hi = self.hi.saturating_sub(1);
            self.regs = [self.regs[1], self.regs[2], None];
        }

        fn push(&mut self, v: Option<i64>) {
            self.lo = (self.lo + 1).min(3);
            self.hi = (self.hi + 1).min(3);
            self.regs = [v, self.regs[0], self.regs[1]];
        }

        fn packed(&self) -> State {
            let mut s = State::new(self.lo, self.hi);
            s.set_wadj(self.wadj);
            for (i, v) in self.regs.iter().enumerate() {
                if let Some(v) = *v {
                    s.regs[i] = v;
                    s.known |= 1 << i;
                }
            }
            s
        }
    }

    /// A model state drawn from few values, so that joins of equal
    /// constants are common. `-1` stands for unknown.
    fn model() -> impl proptest::strategy::Strategy<Value = Model> {
        use proptest::strategy::Strategy;
        let value = || (-1i64..3).prop_map(|v| (v >= 0).then_some(v));
        (0u8..4, 0u8..4, value(), (value(), value(), value())).prop_map(
            |(a, b, wadj, (r0, r1, r2))| Model {
                lo: a.min(b),
                hi: a.max(b),
                wadj,
                regs: [r0, r1, r2],
            },
        )
    }

    /// How often [`reports_come_from_final_states`]' images met each of
    /// the cases that tell a one-sweep dataflow from a re-stepping one.
    #[derive(Debug, Default)]
    struct Coverage {
        /// An instruction stepped again after its state widened.
        restepped: u32,
        /// A `call`, `startp` or `lend` seeding an entry on a boundary.
        seeded: u32,
        /// Unreached code seeded with an unknown state.
        reseeded: u32,
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]
        /// The packed state's join, push and pop are the `Option`
        /// lattice's, and its equality is the lattice's equality.
        #[test]
        fn packed_states_agree_with_the_option_lattice(
            x in model(),
            y in model(),
            v in -1i64..3,
        ) {
            use proptest::prop_assert_eq;
            prop_assert_eq!(x.packed() == y.packed(), x == y);
            let (mut m, mut p) = (x, x.packed());
            prop_assert_eq!(p.merge(&y.packed()), m.merge(&y));
            prop_assert_eq!(p, m.packed());
            let (mut m, mut p) = (x, x.packed());
            m.pop();
            p.pop();
            prop_assert_eq!(p, m.packed());
            let (mut m, mut p) = (x, x.packed());
            m.push((v >= 0).then_some(v));
            p.push((v >= 0).then_some(v));
            prop_assert_eq!(p, m.packed());
            prop_assert_eq!((p.wadj(), p.reg(0), p.reg(1), p.reg(2)), (m.wadj, m.regs[0], m.regs[1], m.regs[2]));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]
        /// Over batches of random images of up to 128 bytes, with and
        /// without a frame shape: the states `analyze` keeps are final
        /// (no edge out of one widens another); a re-step of each
        /// reproduces the `startp`/`lend` target it kept and exactly the
        /// dataflow findings it reported — none is a leftover of a state
        /// that later widened — and the CFG pass adds nothing to them but
        /// the taint scan's. Every batch must meet each [`Coverage`] case.
        #[test]
        fn reports_come_from_final_states(
            images in proptest::collection::vec(
                proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..129),
                32..33,
            )
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let mut cov = Coverage::default();
            for code in &images {
                for shape in [None, Some(&CodeShape { locals: 4, depth: 4 })] {
                    let a = analyze(code, shape);
                    let count = a.insns.len();
                    let mut again = Vec::new();
                    let mut seeded = false;
                    for (i, (insn, state)) in a.insns.iter().zip(&a.states).enumerate() {
                        let mut next = *state;
                        let out = step(insn, &mut next, shape);
                        prop_assert_eq!(out.discovered, a.discovered[i], "target of {}", i);
                        prop_assert_eq!(check(insn, state, shape, Some(&mut again)), out.found);
                        out.for_each_edge(i, count, &next, &a.index, |t, incoming| {
                            let mut settled = a.states[t];
                            assert!(!settled.merge(incoming), "{i} widens {t}");
                        });
                        seeded |= out.seed.is_some_and(|(t, _)| a.index.at(t).is_some());
                    }
                    let dataflow = ["stack-underflow", "stack-overflow", "workspace-oob"];
                    let reported = a.diags.iter().filter(|d| dataflow.contains(&d.code));
                    prop_assert_eq!(reported.collect::<Vec<_>>(), again.iter().collect::<Vec<_>>());
                    cov.restepped += u32::from(a.steps > count);
                    cov.seeded += u32::from(seeded);
                    cov.reseeded += u32::from(a.rounds > 1);

                    let mut cfg = crate::cfg::verify_bytecode_cfg(code, shape);
                    cfg.retain(|d| d.code != "self-modifying");
                    prop_assert_eq!(cfg, verify_bytecode(code, shape));
                }
            }
            prop_assert!(
                cov.restepped > 0 && cov.seeded > 0 && cov.reseeded > 0,
                "generator lost a case: {:?}",
                cov
            );
        }
    }
}
