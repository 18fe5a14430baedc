//! Property tests for CFG recovery: the block partition must cover
//! every reachable code byte exactly once, and block successor edges
//! must agree with the verifier's own jump-target computation.
//!
//! The same instruction generator also feeds the translation-tier
//! differential battery: every generated program must behave
//! bit-identically with the threaded-code tier on and off.

use proptest::prelude::*;

use transputer::instr::{encode_into, encode_op, Direct, Op};
use transputer::{Cpu, CpuConfig};
use transputer_analysis::cfg::{Cfg, EdgeKind};

/// One generated instruction for a random-but-decodable image.
#[derive(Debug, Clone)]
enum GenInsn {
    Direct(Direct, i64),
    Op(Op),
}

fn gen_insn() -> impl Strategy<Value = GenInsn> {
    prop_oneof![
        3 => (0i64..16).prop_map(|n| GenInsn::Direct(Direct::LoadConstant, n)),
        2 => (0i64..4).prop_map(|n| GenInsn::Direct(Direct::LoadLocal, n)),
        2 => (0i64..4).prop_map(|n| GenInsn::Direct(Direct::StoreLocal, n)),
        1 => (0i64..4).prop_map(|n| GenInsn::Direct(Direct::LoadLocalPointer, n)),
        1 => (0i64..4).prop_map(|n| GenInsn::Direct(Direct::LoadNonLocal, n)),
        1 => (0i64..4).prop_map(|n| GenInsn::Direct(Direct::StoreNonLocal, n)),
        1 => (0i64..4).prop_map(|n| GenInsn::Direct(Direct::LoadNonLocalPointer, n)),
        1 => (-2i64..4).prop_map(|n| GenInsn::Direct(Direct::AdjustWorkspace, n)),
        1 => (-300i64..300).prop_map(|n| GenInsn::Direct(Direct::AddConstant, n)),
        1 => (0i64..8).prop_map(|n| GenInsn::Direct(Direct::EqualsConstant, n)),
        // Jump displacements both in and out of range, forward and
        // backward, landing on and off instruction boundaries.
        2 => (-40i64..40).prop_map(|d| GenInsn::Direct(Direct::Jump, d)),
        2 => (-40i64..40).prop_map(|d| GenInsn::Direct(Direct::ConditionalJump, d)),
        1 => (-40i64..40).prop_map(|d| GenInsn::Direct(Direct::Call, d)),
        1 => Just(GenInsn::Op(Op::Add)),
        1 => Just(GenInsn::Op(Op::GreaterThan)),
        1 => Just(GenInsn::Op(Op::Return)),
        1 => Just(GenInsn::Op(Op::HaltSimulation)),
    ]
}

fn assemble(insns: &[GenInsn]) -> Vec<u8> {
    let mut code = Vec::new();
    for g in insns {
        match *g {
            GenInsn::Direct(fun, n) => {
                encode_into(fun, n, &mut code);
            }
            GenInsn::Op(op) => code.extend(encode_op(op)),
        }
    }
    code
}

proptest! {
    /// Every decoded instruction (and therefore every decodable byte)
    /// belongs to exactly one block, and together the instruction
    /// spans cover the image without gaps or overlaps.
    #[test]
    fn blocks_cover_every_byte_exactly_once(
        insns in proptest::collection::vec(gen_insn(), 1..40)
    ) {
        let code = assemble(&insns);
        let cfg = Cfg::recover(&code);

        // Instruction spans tile the image.
        let mut offset = 0usize;
        for insn in &cfg.insns {
            prop_assert_eq!(insn.offset, offset, "gap or overlap before {:#x}", insn.offset);
            offset = insn.end();
        }
        prop_assert_eq!(offset, code.len(), "decode stopped short");

        // Blocks tile the instruction list.
        let mut seen = vec![0u32; cfg.insns.len()];
        for b in &cfg.blocks {
            prop_assert!(b.first <= b.last);
            for s in &mut seen[b.first..=b.last] {
                *s += 1;
            }
        }
        prop_assert!(
            seen.iter().all(|&s| s == 1),
            "membership counts {:?} not all 1",
            seen
        );
    }

    /// For every block ending in a static control transfer whose
    /// target is a valid instruction boundary, the CFG has an edge of
    /// the right kind to the block starting at that target — the same
    /// target arithmetic the verifier uses (`end + operand`).
    #[test]
    fn successors_agree_with_verifier_targets(
        insns in proptest::collection::vec(gen_insn(), 1..40)
    ) {
        let code = assemble(&insns);
        let cfg = Cfg::recover(&code);
        for b in &cfg.blocks {
            let insn = cfg.insns[b.last];
            let kind = match insn.fun {
                Direct::Jump => EdgeKind::Jump,
                Direct::ConditionalJump => EdgeKind::Taken,
                Direct::Call => EdgeKind::Call,
                _ => continue,
            };
            let target = insn.end() as i64 + insn.operand;
            let boundary = cfg.insns.iter().position(|x| x.offset as i64 == target);
            match boundary {
                Some(t) => {
                    let edge = cfg.succs(b).iter().find(|e| e.kind == kind);
                    prop_assert!(edge.is_some(), "missing {:?} edge at {:#x}", kind, insn.offset);
                    let to = &cfg.blocks[edge.unwrap().to];
                    prop_assert_eq!(
                        to.first, t,
                        "edge at {:#x} lands at insn {} not {}",
                        insn.offset, to.first, t
                    );
                }
                None => {
                    // Invalid target: no such edge, and the linear
                    // verifier must have diagnosed it.
                    prop_assert!(
                        cfg.succs(b).iter().all(|e| e.kind != kind),
                        "edge for invalid target at {:#x}",
                        insn.offset
                    );
                    prop_assert!(
                        !cfg.diags.is_empty(),
                        "invalid target at {:#x} undiagnosed",
                        insn.offset
                    );
                }
            }
        }
    }

    /// The threaded-code translation tier is bit-invisible on random
    /// programs: whatever a generated instruction stream does — halt,
    /// fault on a wild address, spin until the budget expires — the
    /// run outcome, cycle count, simulated statistics, and the entire
    /// final memory image are identical with translation on
    /// (threshold 1, so every block leader translates immediately)
    /// and off, on the 32-bit T424 and on the 16-bit T222 (the
    /// executor is compiled once per word length).
    #[test]
    fn translation_is_bit_identical_on_random_programs(
        insns in proptest::collection::vec(gen_insn(), 1..60)
    ) {
        let code = assemble(&insns);
        for part in [CpuConfig::t424(), CpuConfig::t222()] {
            let word = part.word;
            let run = |translate: bool| {
                let mut cpu = Cpu::new(
                    part.clone()
                        .with_translate(translate)
                        .with_translate_threshold(1),
                );
                cpu.load_boot_program(&code).expect("program fits");
                let outcome = format!("{:?}", cpu.run_batched(200_000));
                (cpu, outcome)
            };
            let (on, out_on) = run(true);
            let (off, out_off) = run(false);
            prop_assert_eq!(out_on, out_off, "{}: run outcomes diverged", word);
            prop_assert_eq!(on.cycles(), off.cycles(), "{}: cycle counts diverged", word);
            prop_assert_eq!(
                on.stats().simulated(),
                off.stats().simulated(),
                "{}: simulated statistics diverged",
                word
            );
            let base = on.memory().base();
            let size = on.memory().size() as usize;
            prop_assert_eq!(
                on.memory().dump(base, size).unwrap(),
                off.memory().dump(base, size).unwrap(),
                "{}: memory images diverged",
                word
            );
            prop_assert_eq!(
                off.stats().trans_enters + off.stats().trans_blocks,
                0,
                "{}: disabled translation still ran",
                word
            );
        }
    }
}
