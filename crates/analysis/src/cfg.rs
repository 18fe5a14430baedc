//! Basic-block control-flow graph recovery over assembled I1 bytecode.
//!
//! Built on the verifier's fused-prefix decoder ([`crate::verifier::decode`]):
//! a *leader* is the entry point, any valid target of a `j`/`cj`/`call`
//! operand or of a constant-operand `startp`/`lend` discovered by the
//! dataflow, and the instruction following any control transfer. Blocks
//! are the maximal runs between leaders; every decoded instruction
//! belongs to exactly one block, reachable or not, so the partition
//! covers the whole image.
//!
//! On top of the recovered graph this module:
//!
//! * carries the verifier's findings over — there is one bytecode
//!   dataflow, [`crate::verifier`]'s, and the graph is built from its
//!   final states — so the diagnostics here are a superset of
//!   [`crate::verify_bytecode`]'s by construction;
//! * runs a **code-pointer taint scan** that flags stores through
//!   `ldpi`-derived addresses (`self-modifying` — such an image can
//!   rewrite its own instructions, so no static model of it is sound);
//! * records the places where static control-flow recovery gives up
//!   ([`Cfg::unanalyzable`]): computed transfers (`altend`, `gcall`),
//!   `startp`/`lend` whose target never becomes a dataflow constant,
//!   and self-modifying stores. The cycle-cost model
//!   ([`crate::cost`]) refuses exactly these images rather than
//!   mis-predicting them.

use std::collections::{BTreeSet, VecDeque};

use crate::diag::{self, Diagnostic, Span};
use crate::verifier::{analyze, is_stop, CodeShape, Insn};
use transputer::instr::{Direct, Op, StackEffect};

/// Why an edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Sequential successor (including the loop-exit side of `lend` and
    /// the return continuation of `call`).
    FallThrough,
    /// Unconditional `j`.
    Jump,
    /// The taken side of a `cj`.
    Taken,
    /// Subroutine entry of a `call`.
    Call,
    /// The back edge of a `lend` with a constant displacement.
    Back,
    /// A `startp` child entry with a constant offset.
    Spawn,
}

impl EdgeKind {
    /// DOT edge label.
    fn label(self) -> &'static str {
        match self {
            EdgeKind::FallThrough => "",
            EdgeKind::Jump => "",
            EdgeKind::Taken => "taken",
            EdgeKind::Call => "call",
            EdgeKind::Back => "back",
            EdgeKind::Spawn => "spawn",
        }
    }
}

/// A directed edge to another block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the successor block.
    pub to: usize,
    /// Why control can take this edge.
    pub kind: EdgeKind,
}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct Block {
    /// Index of the first instruction (into [`Cfg::insns`]).
    pub first: usize,
    /// Index of the last instruction, inclusive.
    pub last: usize,
    /// Byte offset of the first instruction.
    pub start: usize,
    /// Byte offset just past the last instruction.
    pub end: usize,
    /// Outgoing edges.
    pub succs: Vec<Edge>,
}

/// A place where static control-flow recovery gives up.
#[derive(Debug, Clone)]
pub struct Unanalyzable {
    /// Code offset of the offending instruction.
    pub offset: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for Unanalyzable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unanalyzable at {:#06x}: {}", self.offset, self.reason)
    }
}

/// A recovered control-flow graph plus everything the analyses learned.
#[derive(Debug)]
pub struct Cfg {
    /// Decoded instructions, in address order.
    pub insns: Vec<Insn>,
    /// Basic blocks, in address order; they partition `insns`.
    pub blocks: Vec<Block>,
    /// All findings: [`crate::verify_bytecode`]'s plus the taint scan's.
    pub diags: Vec<Diagnostic>,
    /// Regions no static model should trust.
    pub unanalyzable: Vec<Unanalyzable>,
    /// Entry register constants per instruction, from the dataflow
    /// (consumed by the cost model for shift operands).
    pub(crate) reg_consts: Vec<[Option<i64>; 3]>,
}

impl Cfg {
    /// Recover the CFG of a raw image (no workspace shape).
    pub fn recover(code: &[u8]) -> Cfg {
        Cfg::recover_with_shape(code, None)
    }

    /// Recover the CFG of a compiled occam program, with its frame shape
    /// enabling workspace bounds checks.
    pub fn recover_program(program: &occam::Program) -> Cfg {
        Cfg::recover_with_shape(&program.code, Some(&CodeShape::of(program)))
    }

    /// Run the verifier, recover the CFG from what it learned, and run
    /// the taint scan over it.
    pub fn recover_with_shape(code: &[u8], shape: Option<&CodeShape>) -> Cfg {
        let analysis = analyze(code, shape);
        let insns = analysis.insns;
        // Valid static targets of an instruction: in range and on a
        // decoded boundary. Anything else was already diagnosed.
        let valid = |target: i64| analysis.index.at(target);
        // Each instruction's valid discovered startp/lend target.
        let dynamic: Vec<Option<usize>> = analysis
            .discovered
            .iter()
            .map(|target| target.and_then(valid))
            .collect();

        // Leaders.
        let mut leader = vec![false; insns.len()];
        if !insns.is_empty() {
            leader[0] = true;
        }
        for (i, insn) in insns.iter().enumerate() {
            if is_terminator(insn) {
                if i + 1 < insns.len() {
                    leader[i + 1] = true;
                }
                if matches!(
                    insn.fun,
                    Direct::Jump | Direct::ConditionalJump | Direct::Call
                ) {
                    if let Some(t) = valid(insn.end() as i64 + insn.operand) {
                        leader[t] = true;
                    }
                }
                if let Some(t) = dynamic[i] {
                    leader[t] = true;
                }
            }
        }

        // Blocks: maximal leader-to-leader runs.
        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of = vec![0usize; insns.len()];
        for (i, insn) in insns.iter().enumerate() {
            if leader[i] {
                blocks.push(Block {
                    first: i,
                    last: i,
                    start: insn.offset,
                    end: insn.end(),
                    succs: Vec::new(),
                });
            }
            let b = blocks.len() - 1;
            let blk = &mut blocks[b];
            blk.last = i;
            blk.end = insn.end();
            block_of[i] = b;
        }

        // Successor edges from each block's final instruction; targets
        // are collected as instruction indices and mapped to blocks.
        #[allow(clippy::needless_range_loop)] // `blocks[b]` is mutated at the end
        for b in 0..blocks.len() {
            let i = blocks[b].last;
            let insn = insns[i];
            let target = || valid(insn.end() as i64 + insn.operand);
            // The transfer's own edge, and whether control falls through.
            let (to, kind, falls) = match (insn.fun, insn.op) {
                (Direct::Jump, _) => (target(), EdgeKind::Jump, false),
                (Direct::ConditionalJump, _) => (target(), EdgeKind::Taken, true),
                (Direct::Call, _) => (target(), EdgeKind::Call, true),
                (Direct::Operate, Some(Op::LoopEnd)) => (dynamic[i], EdgeKind::Back, true),
                (Direct::Operate, Some(Op::StartProcess)) => (dynamic[i], EdgeKind::Spawn, true),
                (Direct::Operate, None) => (None, EdgeKind::Jump, false),
                (Direct::Operate, Some(op)) => (None, EdgeKind::Jump, !is_stop(op)),
                _ => (None, EdgeKind::Jump, true),
            };
            let fall = (falls && i + 1 < insns.len()).then_some(i + 1);
            let mut succs: Vec<Edge> = Vec::new();
            for (target, kind) in [(to, kind), (fall, EdgeKind::FallThrough)] {
                if let Some(t) = target {
                    let e = Edge {
                        to: block_of[t],
                        kind,
                    };
                    if !succs.contains(&e) {
                        succs.push(e);
                    }
                }
            }
            blocks[b].succs = succs;
        }

        // Give-up markers: computed control transfers and loops/spawns
        // whose target never became a dataflow constant.
        let mut unanalyzable: Vec<Unanalyzable> = Vec::new();
        for (i, insn) in insns.iter().enumerate() {
            match insn.op {
                Some(Op::AltEnd) | Some(Op::GeneralCall) => unanalyzable.push(Unanalyzable {
                    offset: insn.offset,
                    reason: format!(
                        "`{}` transfers control through a computed address",
                        insn.mnemonic()
                    ),
                }),
                Some(Op::LoopEnd) if dynamic[i].is_none() => {
                    unanalyzable.push(Unanalyzable {
                        offset: insn.offset,
                        reason: "`lend` back-edge displacement is not a dataflow constant".into(),
                    });
                }
                Some(Op::StartProcess) if dynamic[i].is_none() => {
                    unanalyzable.push(Unanalyzable {
                        offset: insn.offset,
                        reason: "`startp` child entry offset is not a dataflow constant".into(),
                    });
                }
                _ => {}
            }
        }

        // Code-pointer taint scan for self-modifying stores.
        let mut diags = analysis.diags;
        diags.extend(taint_scan(&insns, &blocks, &mut unanalyzable));
        diag::sort(&mut diags);

        let reg_consts = analysis.states.iter().map(|s| s.regs).collect();

        Cfg {
            insns,
            blocks,
            diags,
            unanalyzable,
            reg_consts,
        }
    }

    /// Whether the whole image is statically analyzable (no computed
    /// control, no self-modifying stores, every loop target resolved).
    pub fn is_analyzable(&self) -> bool {
        self.unanalyzable.is_empty()
    }

    /// Render the graph in Graphviz DOT form.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{name}\" {{");
        let _ = writeln!(s, "  node [shape=box fontname=\"monospace\"];");
        for (bi, b) in self.blocks.iter().enumerate() {
            let mut label = format!("B{bi}  {:#06x}..{:#06x}\\l", b.start, b.end);
            for i in b.first..=b.last {
                let insn = self.insns[i];
                match insn.fun {
                    Direct::Operate => {
                        let _ = write!(label, "{}\\l", insn.mnemonic());
                    }
                    _ => {
                        let _ = write!(label, "{} {}\\l", insn.mnemonic(), insn.operand);
                    }
                }
            }
            let tainted = self
                .unanalyzable
                .iter()
                .any(|u| b.start <= u.offset && u.offset < b.end);
            let style = if tainted { " color=red" } else { "" };
            let _ = writeln!(s, "  b{bi} [label=\"{label}\"{style}];");
        }
        for (bi, b) in self.blocks.iter().enumerate() {
            for e in &b.succs {
                let label = e.kind.label();
                if label.is_empty() {
                    let _ = writeln!(s, "  b{bi} -> b{};", e.to);
                } else {
                    let _ = writeln!(s, "  b{bi} -> b{} [label=\"{label}\"];", e.to);
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Does this instruction end a basic block?
fn is_terminator(insn: &Insn) -> bool {
    match insn.fun {
        Direct::Jump | Direct::ConditionalJump | Direct::Call => true,
        Direct::Operate => match insn.op {
            None => true,
            Some(Op::LoopEnd) | Some(Op::StartProcess) => true,
            Some(op) => is_stop(op),
        },
        _ => false,
    }
}

/// Code-pointer taint per evaluation-stack register.
type Taint = [bool; 3];

/// Propagate "derived from `ldpi`" through the block graph and flag
/// stores whose address operand carries the taint.
fn taint_scan(
    insns: &[Insn],
    blocks: &[Block],
    unanalyzable: &mut Vec<Unanalyzable>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if blocks.is_empty() {
        return diags;
    }
    let mut entries: Vec<Option<Taint>> = vec![None; blocks.len()];
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut work: VecDeque<usize> = VecDeque::new();
    entries[0] = Some([false; 3]);
    work.push_back(0);

    while let Some(b) = work.pop_front() {
        let mut taint = entries[b].expect("queued with a taint state");
        let blk = &blocks[b];
        for insn in &insns[blk.first..=blk.last] {
            taint = taint_step(insn, taint, &mut flagged);
        }
        for e in &blk.succs {
            // Spawned children and callees start with a fresh stack;
            // everything else inherits the block's exit taint.
            let incoming = match e.kind {
                EdgeKind::Spawn | EdgeKind::Call => [false; 3],
                _ => taint,
            };
            let widened = match &mut entries[e.to] {
                Some(t) => {
                    let mut changed = false;
                    for (slot, inc) in t.iter_mut().zip(incoming) {
                        if inc && !*slot {
                            *slot = true;
                            changed = true;
                        }
                    }
                    changed
                }
                slot @ None => {
                    *slot = Some(incoming);
                    true
                }
            };
            if widened && !work.contains(&e.to) {
                work.push_back(e.to);
            }
        }
    }

    for offset in flagged {
        let insn = *insns
            .iter()
            .find(|x| x.offset == offset)
            .expect("flagged offset decodes");
        diags.push(Diagnostic::warning(
            "self-modifying",
            Span::insn(&insn),
            format!(
                "{} stores through a code-derived (ldpi) pointer: the image may \
                 rewrite its own instructions",
                insn.mnemonic()
            ),
        ));
        unanalyzable.push(Unanalyzable {
            offset: insn.offset,
            reason: "store through a code-derived pointer (self-modifying)".into(),
        });
    }
    unanalyzable.sort_by_key(|u| u.offset);
    diags
}

/// Taint transfer for one instruction. Pushed results are tainted when
/// they are `ldpi` itself or pointer arithmetic over a tainted operand;
/// loads from memory are assumed clean (the scan is a definite-ish
/// detector for the canonical `ldc d; ldpi; ...; sb` patch idiom, not a
/// sound escape analysis).
fn taint_step(insn: &Insn, mut t: Taint, flagged: &mut BTreeSet<usize>) -> Taint {
    fn pop(t: &mut Taint) -> bool {
        let a = t[0];
        *t = [t[1], t[2], false];
        a
    }
    fn push(t: &mut Taint, v: bool) {
        *t = [v, t[0], t[1]];
    }
    fn apply(t: &mut Taint, e: StackEffect) {
        for _ in 0..e.pops {
            pop(t);
        }
        for _ in 0..e.pushes {
            push(t, false);
        }
    }

    match insn.fun {
        Direct::AddConstant | Direct::AdjustWorkspace => {} // A keeps its taint / no stack
        Direct::LoadNonLocalPointer => {}                   // pointer + offset: A keeps its taint
        Direct::StoreNonLocal => {
            let addr = pop(&mut t);
            pop(&mut t);
            if addr {
                flagged.insert(insn.offset);
            }
        }
        Direct::Operate => match insn.op {
            Some(Op::LoadPointerToInstruction) => {
                pop(&mut t);
                push(&mut t, true);
            }
            Some(Op::StoreByte) => {
                let addr = pop(&mut t);
                pop(&mut t);
                if addr {
                    flagged.insert(insn.offset);
                }
            }
            Some(
                Op::Add
                | Op::Subtract
                | Op::Sum
                | Op::Difference
                | Op::ByteSubscript
                | Op::WordSubscript,
            ) => {
                let a = pop(&mut t);
                let b = pop(&mut t);
                push(&mut t, a || b);
            }
            Some(Op::Reverse) => {
                t.swap(0, 1);
            }
            Some(op) => apply(&mut t, op.stack_effect()),
            None => {}
        },
        fun => {
            if let Some(e) = fun.stack_effect() {
                apply(&mut t, e);
            }
        }
    }
    t
}

/// Run CFG recovery and return its diagnostics: those of
/// [`crate::verify_bytecode`] on the same image plus the taint scan's.
pub fn verify_bytecode_cfg(code: &[u8], shape: Option<&CodeShape>) -> Vec<Diagnostic> {
    Cfg::recover_with_shape(code, shape).diags
}

/// [`verify_bytecode_cfg`] for a compiled occam program.
pub fn verify_program_cfg(program: &occam::Program) -> Vec<Diagnostic> {
    Cfg::recover_program(program).diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use transputer::instr::{encode, encode_into, encode_op};

    #[test]
    fn straight_line_is_one_block() {
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 7, &mut code);
        encode_into(Direct::StoreLocal, 0, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        assert_eq!(cfg.blocks.len(), 1);
        assert!(cfg.blocks[0].succs.is_empty());
        assert!(cfg.is_analyzable());
        assert!(cfg.diags.is_empty());
    }

    #[test]
    fn conditional_jump_splits_blocks() {
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
        let cfg = Cfg::recover(&code);
        // entry+cj | body | halt
        assert_eq!(cfg.blocks.len(), 3);
        let kinds: Vec<EdgeKind> = cfg.blocks[0].succs.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Taken));
        assert!(kinds.contains(&EdgeKind::FallThrough));
        assert_eq!(cfg.blocks[1].succs.len(), 1);
        assert!(cfg.blocks[2].succs.is_empty());
    }

    #[test]
    fn blocks_partition_every_instruction() {
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 1, &mut code);
        encode_into(Direct::ConditionalJump, 1, &mut code);
        encode_into(Direct::LoadConstant, 0, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        let mut covered = vec![false; cfg.insns.len()];
        for b in &cfg.blocks {
            for seen in &mut covered[b.first..=b.last] {
                assert!(!*seen, "block {}..={} overlaps another", b.first, b.last);
                *seen = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn self_modifying_store_is_flagged() {
        // ldc 0x41; ldc d; ldpi; sb — the patch idiom of `decode_cache.rs`.
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 0x41, &mut code);
        encode_into(Direct::LoadConstant, 0, &mut code);
        code.extend(encode_op(Op::LoadPointerToInstruction));
        code.extend(encode_op(Op::StoreByte));
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        assert!(!cfg.is_analyzable());
        assert!(cfg
            .unanalyzable
            .iter()
            .any(|u| u.reason.contains("self-modifying")));
        assert!(cfg.diags.iter().any(|d| d.code == "self-modifying"));
    }

    #[test]
    fn cfg_diags_superset_of_linear() {
        // An image with several defects: underflow + bad jump.
        let mut code = encode(Direct::Jump, 100);
        code.extend(encode_op(Op::Add));
        let linear = crate::verify_bytecode(&code, None);
        let cfg = Cfg::recover(&code);
        for d in &linear {
            assert!(
                cfg.diags
                    .iter()
                    .any(|c| c.code == d.code && c.span == d.span),
                "linear finding {d:?} missing from CFG pass"
            );
        }
    }

    #[test]
    fn dot_output_mentions_every_block() {
        let mut code = Vec::new();
        encode_into(Direct::LoadConstant, 1, &mut code);
        encode_into(Direct::ConditionalJump, 1, &mut code);
        encode_into(Direct::LoadConstant, 0, &mut code);
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        let dot = cfg.to_dot("t");
        for bi in 0..cfg.blocks.len() {
            assert!(dot.contains(&format!("b{bi} ")));
        }
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn altend_is_unanalyzable_but_diagnosed_cleanly() {
        let mut code = Vec::new();
        code.extend(encode_op(Op::AltEnd));
        code.extend(encode_op(Op::HaltSimulation));
        let cfg = Cfg::recover(&code);
        assert!(!cfg.is_analyzable());
        // Computed control is a model limitation, not a lint finding.
        assert!(cfg.diags.iter().all(|d| d.code != "indirect-control"));
    }
}
