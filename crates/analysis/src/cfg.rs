//! Basic-block control-flow graph recovery over assembled I1 bytecode.
//!
//! Built on the table the verifier's dataflow fills — the instructions
//! from its fused-prefix decoder ([`crate::verifier::decode`]), the
//! byte-to-instruction boundary index, the final states and the
//! discovered `startp`/`lend` targets — which this module and the cost
//! model read instead of decoding again. A *leader* is the entry point,
//! any valid target of a `j`/`cj`/`call` operand or of a
//! constant-operand `startp`/`lend` discovered by the dataflow, and the
//! instruction following any control transfer. Blocks are the maximal
//! runs between leaders; every decoded instruction belongs to exactly
//! one block, reachable or not, so the partition covers the whole
//! image. Their successor edges sit in one flat list, each block's
//! addressed by a range ([`Cfg::succs`]).
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

use std::collections::VecDeque;
use std::ops::Range;

use crate::diag::{self, Diagnostic, Span};
use crate::verifier::{analyze, is_stop, Analysis, CodeShape, Insn, State};
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
    /// Where the outgoing edges sit in [`Cfg::edges`] ([`Cfg::succs`]).
    pub succs: Range<usize>,
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
    /// Every block's outgoing edges, block after block.
    pub edges: Vec<Edge>,
    /// All findings: [`crate::verify_bytecode`]'s plus the taint scan's.
    pub diags: Vec<Diagnostic>,
    /// Regions no static model should trust.
    pub unanalyzable: Vec<Unanalyzable>,
    /// The dataflow's final entry state per instruction (the cost model
    /// reads shift operands from it).
    pub(crate) states: Vec<State>,
}

/// `block_at` entry of an instruction that leads no block.
const NO_BLOCK: u32 = u32::MAX;

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

    /// Run the verifier, recover the CFG from the table it fills, and
    /// run the taint scan over it.
    pub fn recover_with_shape(code: &[u8], shape: Option<&CodeShape>) -> Cfg {
        let Analysis {
            insns,
            index,
            states,
            discovered,
            mut diags,
            ..
        } = analyze(code, shape);
        let count = insns.len();
        // The instruction a transfer's own edge lands on: a `j`/`cj`/
        // `call` operand or a discovered `startp`/`lend` target, when it
        // is in range and on a boundary. Anything else was already
        // diagnosed.
        let target = |i: usize| {
            let insn = &insns[i];
            match (insn.fun, insn.op) {
                (Direct::Jump | Direct::ConditionalJump | Direct::Call, _) => {
                    index.at(insn.end() as i64 + insn.operand)
                }
                (_, Some(Op::LoopEnd | Op::StartProcess)) => {
                    discovered[i].and_then(|t| index.at(t))
                }
                _ => None,
            }
        };

        // Leaders, marked 0, then numbered: `block_at[i]` is the block
        // instruction `i` starts, or `NO_BLOCK`.
        let mut block_at = vec![NO_BLOCK; count];
        if count > 0 {
            block_at[0] = 0;
        }
        for (i, insn) in insns.iter().enumerate() {
            if is_terminator(insn) {
                if i + 1 < count {
                    block_at[i + 1] = 0;
                }
                if let Some(t) = target(i) {
                    block_at[t] = 0;
                }
            }
        }

        // Blocks: maximal leader-to-leader runs.
        let leaders = block_at.iter().filter(|&&b| b != NO_BLOCK).count();
        let mut blocks: Vec<Block> = Vec::with_capacity(leaders);
        for (i, insn) in insns.iter().enumerate() {
            if block_at[i] != NO_BLOCK {
                block_at[i] = blocks.len() as u32;
                blocks.push(Block {
                    first: i,
                    last: i,
                    start: insn.offset,
                    end: insn.end(),
                    succs: 0..0,
                });
            }
            let blk = blocks.last_mut().expect("instruction 0 leads a block");
            blk.last = i;
            blk.end = insn.end();
        }

        // Successor edges from each block's final instruction, and the
        // give-up markers, which only a block's final instruction can
        // carry: computed control transfers and loops/spawns whose
        // target never became a dataflow constant.
        let mut edges = Vec::with_capacity(2 * blocks.len());
        let mut unanalyzable: Vec<Unanalyzable> = Vec::new();
        for blk in &mut blocks {
            let i = blk.last;
            let insn = &insns[i];
            // The transfer's own edge kind, and whether control falls
            // through.
            let (kind, falls) = match (insn.fun, insn.op) {
                (Direct::Jump, _) => (EdgeKind::Jump, false),
                (Direct::ConditionalJump, _) => (EdgeKind::Taken, true),
                (Direct::Call, _) => (EdgeKind::Call, true),
                (Direct::Operate, Some(Op::LoopEnd)) => (EdgeKind::Back, true),
                (Direct::Operate, Some(Op::StartProcess)) => (EdgeKind::Spawn, true),
                (Direct::Operate, None) => (EdgeKind::Jump, false),
                (Direct::Operate, Some(op)) => (EdgeKind::Jump, !is_stop(op)),
                _ => (EdgeKind::Jump, true),
            };
            let from = edges.len();
            if let Some(t) = target(i) {
                edges.push(Edge {
                    to: block_at[t] as usize,
                    kind,
                });
            }
            if falls && i + 1 < count {
                edges.push(Edge {
                    to: block_at[i + 1] as usize,
                    kind: EdgeKind::FallThrough,
                });
            }
            blk.succs = from..edges.len();

            let reason = match insn.op {
                Some(Op::AltEnd | Op::GeneralCall) => format!(
                    "`{}` transfers control through a computed address",
                    insn.mnemonic()
                ),
                Some(Op::LoopEnd) if target(i).is_none() => {
                    "`lend` back-edge displacement is not a dataflow constant".into()
                }
                Some(Op::StartProcess) if target(i).is_none() => {
                    "`startp` child entry offset is not a dataflow constant".into()
                }
                _ => continue,
            };
            unanalyzable.push(Unanalyzable {
                offset: insn.offset,
                reason,
            });
        }

        // Code-pointer taint scan for self-modifying stores.
        diags.extend(taint_scan(&insns, &blocks, &edges, &mut unanalyzable));
        diag::sort(&mut diags);

        Cfg {
            insns,
            blocks,
            edges,
            diags,
            unanalyzable,
            states,
        }
    }

    /// The outgoing edges of `block`.
    pub fn succs(&self, block: &Block) -> &[Edge] {
        &self.edges[block.succs.clone()]
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
            for e in self.succs(b) {
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

/// Code-pointer taint of A, B and C: bits 0–2, a stack that pops by
/// shifting right.
type Taint = u8;

/// A block entry's [`Taint`] once some path has reached it.
const REACHED: u8 = 1 << 3;

/// Propagate "derived from `ldpi`" through the block graph and flag
/// stores whose address operand carries the taint. Only `ldpi` makes
/// taint, so an image without one has nothing to scan.
fn taint_scan(
    insns: &[Insn],
    blocks: &[Block],
    edges: &[Edge],
    unanalyzable: &mut Vec<Unanalyzable>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !insns
        .iter()
        .any(|insn| insn.op == Some(Op::LoadPointerToInstruction))
    {
        return diags;
    }
    // Entry taint per block, and whether it is queued.
    let mut entries = vec![0u8; blocks.len()];
    let mut queued = vec![false; blocks.len()];
    let mut flagged: Vec<usize> = Vec::new();
    let mut work: VecDeque<usize> = VecDeque::from([0]);
    (entries[0], queued[0]) = (REACHED, true);

    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let mut taint = entries[b] & !REACHED;
        let blk = &blocks[b];
        for (i, insn) in (blk.first..).zip(&insns[blk.first..=blk.last]) {
            let stored;
            (taint, stored) = taint_step(insn, taint);
            if stored {
                flagged.push(i);
            }
        }
        for e in &edges[blk.succs.clone()] {
            // Spawned children and callees start with a fresh stack;
            // everything else inherits the block's exit taint.
            let incoming = match e.kind {
                EdgeKind::Spawn | EdgeKind::Call => 0,
                _ => taint,
            };
            let before = entries[e.to];
            entries[e.to] |= incoming | REACHED;
            if entries[e.to] != before && !queued[e.to] {
                queued[e.to] = true;
                work.push_back(e.to);
            }
        }
    }

    flagged.sort_unstable();
    flagged.dedup();
    for i in flagged {
        let insn = &insns[i];
        diags.push(Diagnostic::warning(
            "self-modifying",
            Span::insn(insn),
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

/// Taint transfer for one instruction, and whether it stores through a
/// tainted address. Pushed results are tainted when they are `ldpi`
/// itself or pointer arithmetic over a tainted operand; loads from
/// memory are assumed clean (the scan is a definite-ish detector for the
/// canonical `ldc d; ldpi; ...; sb` patch idiom, not a sound escape
/// analysis).
fn taint_step(insn: &Insn, t: Taint) -> (Taint, bool) {
    // Pop `e.pops`, then push `e.pushes` clean results.
    let apply = |e: StackEffect| (t >> e.pops) << e.pushes & 0b111;
    let a = t & 1 != 0;
    match (insn.fun, insn.op) {
        // A keeps its taint (pointer + offset) / no stack.
        (Direct::AddConstant | Direct::AdjustWorkspace | Direct::LoadNonLocalPointer, _) => {
            (t, false)
        }
        (Direct::StoreNonLocal, _) | (Direct::Operate, Some(Op::StoreByte)) => (t >> 2, a),
        (Direct::Operate, Some(Op::LoadPointerToInstruction)) => (t | 1, false),
        (
            Direct::Operate,
            Some(
                Op::Add
                | Op::Subtract
                | Op::Sum
                | Op::Difference
                | Op::ByteSubscript
                | Op::WordSubscript,
            ),
        ) => ((t >> 2) << 1 & 0b110 | u8::from(t & 0b11 != 0), false),
        (Direct::Operate, Some(Op::Reverse)) => (t & 0b100 | (t & 1) << 1 | t >> 1 & 1, false),
        (Direct::Operate, Some(op)) => (apply(op.stack_effect()), false),
        (Direct::Operate, None) => (t, false),
        (fun, _) => (fun.stack_effect().map_or(t, apply), false),
    }
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
        assert!(cfg.succs(&cfg.blocks[0]).is_empty());
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
        let kinds: Vec<EdgeKind> = cfg.succs(&cfg.blocks[0]).iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&EdgeKind::Taken));
        assert!(kinds.contains(&EdgeKind::FallThrough));
        assert_eq!(cfg.succs(&cfg.blocks[1]).len(), 1);
        assert!(cfg.succs(&cfg.blocks[2]).is_empty());
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
