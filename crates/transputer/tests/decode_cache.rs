//! Fused decoding must be invisible: any program must produce
//! bit-identical results, cycle counts, and memory images through the
//! translation tier — its translated blocks, with every operation
//! outside a block on the byte path — and through the byte path alone,
//! including programs that rewrite their own code. Plus the
//! `advance_idle_to` widening regression. (The file is named for the
//! memo that once sat in front of the decoder; nothing is cached now,
//! which is why the cold rows below need no invalidation to pass.)

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::{Cpu, CpuConfig, HaltReason, Priority, RunOutcome};

/// Encode a jump-family instruction at code offset `at` whose
/// displacement reaches `target`, resolving the length/operand
/// fixpoint (the operand is relative to the *end* of the instruction,
/// whose length depends on the operand).
fn jump_to(fun: Direct, at: usize, target: usize) -> Vec<u8> {
    for len in 1..=4 {
        let operand = target as i64 - (at + len) as i64;
        let e = encode(fun, operand);
        if e.len() == len {
            return e;
        }
    }
    panic!("no encoding fixpoint for jump from {at} to {target}");
}

/// Append `ldc d; ldpi` so that A becomes the address of code offset
/// `target`, resolving the same length fixpoint.
fn push_code_address(c: &mut Vec<u8>, target: usize) {
    let ldpi = encode_op(Op::LoadPointerToInstruction);
    for len in 1..=4 {
        let after = c.len() + len + ldpi.len();
        let d = target as i64 - after as i64;
        let e = encode(Direct::LoadConstant, d);
        if e.len() == len {
            c.extend(e);
            c.extend(&ldpi);
            return;
        }
    }
    panic!("no encoding fixpoint for code address of {target}");
}

/// The tier with no block against the byte path: with the threshold at
/// the heat counter's ceiling no leader here gets hot enough to be
/// translated, so the tier hands every operation of the tier-on run to
/// the byte path. The `run_translated` rows below pin the blocks.
fn run_with(code: &[u8], tier: bool) -> Cpu {
    let config = CpuConfig::t424()
        .with_translate(tier)
        .with_translate_threshold(255);
    let mut cpu = Cpu::new(config);
    cpu.load_boot_program(code).expect("program fits");
    match cpu.run_batched(10_000_000).expect("no budget overrun") {
        RunOutcome::Halted(HaltReason::Stopped) => {}
        other => panic!("program did not halt cleanly: {other:?}"),
    }
    cpu
}

/// Run a program both ways and assert every observable — the answer
/// word, cycle count, simulated statistics, and the full memory image —
/// is identical. Returns the tier-on run for extra assertions.
fn assert_transparent(code: &[u8]) -> Cpu {
    let on = run_with(code, true);
    let off = run_with(code, false);
    assert_eq!(on.cycles(), off.cycles(), "cycle counts diverged");
    assert_eq!(
        on.stats().simulated(),
        off.stats().simulated(),
        "simulated statistics diverged"
    );
    let base = on.memory().base();
    let size = on.memory().size() as usize;
    assert_eq!(
        on.memory().dump(base, size).unwrap(),
        off.memory().dump(base, size).unwrap(),
        "memory images diverged"
    );
    assert!(on.stats().decode_misses > 0, "the tier never engaged");
    assert_eq!(on.stats().trans_blocks, 0, "a leader got hot");
    assert_byte_path_alone(&off);
    on
}

/// Nothing but the byte path ran: no operation was decoded whole, no
/// block was entered.
fn assert_byte_path_alone(cpu: &Cpu) {
    let s = cpu.stats();
    assert_eq!(
        (
            s.decode_misses,
            s.decode_hits,
            s.trans_enters,
            s.trans_blocks
        ),
        (0, 0, 0, 0),
        "the translation tier ran"
    );
}

fn local_word(cpu: &mut Cpu, index: u32) -> u32 {
    let addr = cpu.default_boot_workspace() + 4 * index;
    cpu.peek_word(addr).expect("workspace in range")
}

#[test]
fn advance_idle_to_is_not_truncated_to_u32() {
    // The gap far exceeds u32::MAX cycles; the pre-widening code
    // advanced only `gap as u32` and landed short.
    let target = 5 * (u64::from(u32::MAX) + 1) + 12_345;
    let mut one = Cpu::new(CpuConfig::t424());
    one.advance_idle_to(target);
    assert_eq!(one.cycles(), target, "idle gap was truncated");

    // The same distance in small hops must land on identical clocks:
    // the closed-form (lazy) tick reconstruction equals ticking through.
    let mut many = Cpu::new(CpuConfig::t424());
    let mut at = 0u64;
    while at < target {
        at = (at + 999_983).min(target);
        many.advance_idle_to(at);
    }
    assert_eq!(many.cycles(), target);
    for pri in [Priority::High, Priority::Low] {
        assert_eq!(
            one.clock_value(pri),
            many.clock_value(pri),
            "{pri:?} clock diverged between one jump and many hops"
        );
    }
}

/// `ldc 0` at offset 0 is executed, then rewritten to `ldc 1` by a
/// store the program itself performs, then re-executed. A stale
/// decoding would replay `ldc 0` and loop forever.
fn self_modifying_program() -> Vec<u8> {
    let mut c: Vec<u8> = Vec::new();
    // T (offset 0): patched from `ldc 0` (0x40) to `ldc 1` (0x41).
    c.extend(encode(Direct::LoadConstant, 0));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 1));
    let halt = encode_op(Op::HaltSimulation);
    // First pass: A == 0, so cj skips the halt into the patch code.
    c.extend(encode(Direct::ConditionalJump, halt.len() as i64));
    c.extend(&halt);
    // Patch: mem[T] := 0x41, then loop back to T.
    c.extend(encode(Direct::LoadConstant, 0x41));
    push_code_address(&mut c, 0);
    c.extend(encode_op(Op::StoreByte));
    let at = c.len();
    c.extend(jump_to(Direct::Jump, at, 0));
    c
}

#[test]
fn a_rewritten_instruction_is_re_read() {
    let mut on = assert_transparent(&self_modifying_program());
    assert_eq!(local_word(&mut on, 1), 1, "second pass ran stale code");
}

/// A `pfix`/`ldc` chain straddling the 64-byte block boundary: the
/// first byte sits at code offset 55, the terminal at 56 — memory
/// offsets 127 and 128, since code loads 72 bytes above the base. The
/// program rewrites the byte in the *next* block; the second pass must
/// fuse the chain from the bytes as they then stand.
fn spanning_chain_program() -> Vec<u8> {
    let mut c: Vec<u8> = Vec::new();
    // Padding so the two-byte `pfix 1; ldc 0` starts on the last byte
    // of a 64-byte block.
    while c.len() < 55 {
        c.extend(encode(Direct::LoadConstant, 0));
    }
    // T (offsets 55..=56): `ldc 0x10`; the byte at offset 56 is
    // patched from 0x40 (`ldc 0` terminal) to 0x41, making `ldc 0x11`.
    let t = c.len();
    c.extend(encode(Direct::LoadConstant, 0x10));
    assert_eq!(c.len(), 57, "chain must straddle the block boundary");
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode(Direct::EqualsConstant, 0x10));
    // First pass: A == 1 (w1 == 0x10), falls through into the patch.
    // Second pass: A == 0, jumps over it to the halt.
    let mut patch: Vec<u8> = Vec::new();
    patch.extend(encode(Direct::LoadConstant, 0x41));
    // The patch target is the terminal byte in the next block.
    let cj = encode(Direct::ConditionalJump, 0); // length probe only
    let patch_base = c.len() + cj.len();
    {
        let ldpi = encode_op(Op::LoadPointerToInstruction);
        let target = 56usize;
        let mut found = false;
        for len in 1..=4 {
            let after = patch_base + patch.len() + len + ldpi.len();
            let d = target as i64 - after as i64;
            let e = encode(Direct::LoadConstant, d);
            if e.len() == len {
                patch.extend(e);
                patch.extend(&ldpi);
                found = true;
                break;
            }
        }
        assert!(found, "no encoding fixpoint for patch address");
    }
    patch.extend(encode_op(Op::StoreByte));
    let at = patch_base + patch.len();
    patch.extend(jump_to(Direct::Jump, at, t));
    let cj = encode(Direct::ConditionalJump, patch.len() as i64);
    assert_eq!(cj.len(), 1, "cj displacement must stay single-byte");
    c.extend(cj);
    c.extend(patch);
    c.extend(encode_op(Op::HaltSimulation));
    c
}

#[test]
fn a_chain_spanning_two_code_blocks_is_re_fused() {
    let mut on = assert_transparent(&spanning_chain_program());
    assert_eq!(
        local_word(&mut on, 1),
        0x11,
        "second pass fused a stale spanning chain"
    );
}

/// Like [`run_with`]/[`assert_transparent`], but toggling the
/// tier at threshold 1: every leader translates on first arrival.
/// Self-modifying programs must see identical results whether their
/// code runs threaded or a byte at a time.
fn run_translated(code: &[u8], translate: bool) -> Cpu {
    let mut cpu = Cpu::new(
        CpuConfig::t424()
            .with_translate(translate)
            .with_translate_threshold(1),
    );
    cpu.load_boot_program(code).expect("program fits");
    match cpu.run_batched(10_000_000).expect("no budget overrun") {
        RunOutcome::Halted(HaltReason::Stopped) => {}
        other => panic!("program did not halt cleanly: {other:?}"),
    }
    cpu
}

fn assert_translation_transparent(code: &[u8]) -> Cpu {
    let on = run_translated(code, true);
    let off = run_translated(code, false);
    assert_eq!(on.cycles(), off.cycles(), "cycle counts diverged");
    assert_eq!(
        on.stats().simulated(),
        off.stats().simulated(),
        "simulated statistics diverged"
    );
    let base = on.memory().base();
    let size = on.memory().size() as usize;
    assert_eq!(
        on.memory().dump(base, size).unwrap(),
        off.memory().dump(base, size).unwrap(),
        "memory images diverged"
    );
    assert!(on.stats().trans_enters > 0, "translation never engaged");
    assert_eq!(
        off.stats().trans_enters + off.stats().trans_blocks,
        0,
        "disabled translation still ran"
    );
    on
}

/// The store lands inside the 64-byte code block of the *currently
/// executing* translated block (the patch code and its target share
/// block 0): the code-epoch check must deoptimise the block mid-run,
/// and the next lookup must drop the stale block, which retranslates
/// on re-entry.
#[test]
fn storing_into_an_executing_translated_block_deopts_and_invalidates() {
    let mut on = assert_translation_transparent(&self_modifying_program());
    assert_eq!(local_word(&mut on, 1), 1, "second pass ran stale code");
    assert!(
        on.stats().trans_invalidations > 0,
        "the rewrite must invalidate the translated leader"
    );
    assert!(
        on.stats().trans_deopts > 0,
        "the store inside the executing block must deoptimise it"
    );
}

/// A translated block whose leader instruction spans the 64-byte
/// boundary (first byte at code offset 55, terminal at 56): a store into
/// the *adjacent* block — not the leader's own — must still invalidate
/// it: the block arms the write gate of both. The loop rewrites the terminal byte on
/// every iteration (same value, but a write is a write), so the block
/// is invalidated and retranslated each time around.
fn spanning_translated_program() -> Vec<u8> {
    let mut c: Vec<u8> = Vec::new();
    c.extend(encode(Direct::LoadConstant, 5)); // loop counter in w[2]
    c.extend(encode(Direct::StoreLocal, 2));
    // Padding so the two-byte `pfix 1; ldc 0` starts on the last byte
    // of a 64-byte block.
    while c.len() < 55 {
        c.extend(encode(Direct::LoadConstant, 0));
    }
    let t = c.len();
    c.extend(encode(Direct::LoadConstant, 0x10)); // patched to ldc 0x11
    assert_eq!(c.len(), 57, "chain must straddle the block boundary");
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 2));
    c.extend(encode(Direct::AddConstant, -1));
    c.extend(encode(Direct::StoreLocal, 2));
    c.extend(encode(Direct::LoadLocal, 2));
    // Counter exhausted: skip the patch-and-loop tail to the halt.
    let mut patch: Vec<u8> = Vec::new();
    patch.extend(encode(Direct::LoadConstant, 0x41));
    let cj = encode(Direct::ConditionalJump, 0); // length probe only
    let patch_base = c.len() + cj.len();
    {
        let ldpi = encode_op(Op::LoadPointerToInstruction);
        let target = 56usize;
        let mut found = false;
        for len in 1..=4 {
            let after = patch_base + patch.len() + len + ldpi.len();
            let d = target as i64 - after as i64;
            let e = encode(Direct::LoadConstant, d);
            if e.len() == len {
                patch.extend(e);
                patch.extend(&ldpi);
                found = true;
                break;
            }
        }
        assert!(found, "no encoding fixpoint for patch address");
    }
    patch.extend(encode_op(Op::StoreByte));
    let at = patch_base + patch.len();
    patch.extend(jump_to(Direct::Jump, at, t));
    let cj = encode(Direct::ConditionalJump, patch.len() as i64);
    assert_eq!(cj.len(), 1, "cj displacement must stay single-byte");
    c.extend(cj);
    c.extend(patch);
    c.extend(encode_op(Op::HaltSimulation));
    c
}

#[test]
fn storing_into_the_adjacent_code_block_invalidates_translated_spans() {
    let mut on = assert_translation_transparent(&spanning_translated_program());
    assert_eq!(
        local_word(&mut on, 1),
        0x11,
        "later passes fused a stale spanning chain"
    );
    assert!(
        on.stats().trans_invalidations >= 3,
        "every loop iteration's rewrite must invalidate the spanning \
         leader (got {})",
        on.stats().trans_invalidations
    );
}

/// A dense 200-trip loop of fused multi-byte operations — ldc/adc/stl
/// with operands needing prefixes, plus a backward jump — that leaves
/// `200 * 0x1234` in local 1.
fn adding_loop_program() -> Vec<u8> {
    let mut c: Vec<u8> = Vec::new();
    c.extend(encode(Direct::LoadConstant, 0));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadConstant, 200)); // loop counter
    c.extend(encode(Direct::StoreLocal, 2));
    let top = c.len();
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode(Direct::AddConstant, 0x1234));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 2));
    c.extend(encode(Direct::AddConstant, -1));
    c.extend(encode(Direct::StoreLocal, 2));
    c.extend(encode(Direct::LoadLocal, 2));
    // `cj` jumps when A == 0: out of the loop, over the jump back.
    let back = jump_to(Direct::Jump, c.len() + 1, top);
    let exit_cj = encode(Direct::ConditionalJump, back.len() as i64);
    assert_eq!(exit_cj.len(), 1);
    c.extend(exit_cj);
    c.extend(back);
    c.extend(encode_op(Op::HaltSimulation));
    c
}

const ADDING_LOOP_RESULT: u32 = 0x1234 * 200;

#[test]
fn straight_line_arithmetic_is_transparent() {
    let mut on = assert_transparent(&adding_loop_program());
    assert_eq!(local_word(&mut on, 1), ADDING_LOOP_RESULT);
}

/// There are two tiers and nothing between them: with the translation
/// tier off — under either flag — or a trace ring on, the byte path
/// runs alone, and lands where the stock run does.
#[test]
fn the_byte_path_runs_alone_when_the_tier_is_off_or_traced() {
    let code = adding_loop_program();
    let stock = CpuConfig::t424().with_translate(true);
    let run = |config: &CpuConfig, traced: bool| {
        let mut cpu = Cpu::new(config.clone());
        if traced {
            cpu.enable_trace(16);
        }
        cpu.load_boot_program(&code).expect("program fits");
        cpu.run_batched(10_000_000).expect("no budget overrun");
        cpu
    };
    let base = run(&stock, false);
    assert!(base.stats().trans_enters > 0, "the stock run translates");
    for (config, traced) in [
        (stock.clone().with_translate(false), false),
        (stock.clone().with_decode_cache(false), false),
        (stock.clone(), true),
    ] {
        let mut cpu = run(&config, traced);
        assert_byte_path_alone(&cpu);
        assert_eq!(cpu.cycles(), base.cycles());
        assert_eq!(cpu.stats().simulated(), base.stats().simulated());
        assert_eq!(local_word(&mut cpu, 1), ADDING_LOOP_RESULT);
        if traced {
            let ring = cpu.trace().expect("the ring stays enabled");
            assert_eq!(ring.len(), 16, "every operation reached the ring");
        }
    }
}

/// `T; stl 1; ldl 1; cj <halt>; haltsim; <patch T to ldc 1>; j back`:
/// the first pass stores 0, skips the halt and rewrites `T` from
/// `ldc 0` to `ldc 1`; the second must run the new `T` and halt. `T`
/// goes at `t_at`, padded with never-executed bytes (`head` is already
/// in place, and jumps over them); the patch jumps back to `back`.
fn patch_once_program(head: Vec<u8>, t_at: usize, back: usize) -> Vec<u8> {
    let mut c = head;
    assert!(c.len() <= t_at);
    c.resize(t_at, encode(Direct::LoadConstant, 0)[0]);
    c.extend(encode(Direct::LoadConstant, 0)); // T
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 1));
    let halt = encode_op(Op::HaltSimulation);
    c.extend(encode(Direct::ConditionalJump, halt.len() as i64));
    c.extend(&halt);
    c.extend(encode(Direct::LoadConstant, 0x41));
    push_code_address(&mut c, t_at);
    c.extend(encode_op(Op::StoreByte));
    let at = c.len();
    c.extend(jump_to(Direct::Jump, at, back));
    c
}

fn assert_patched_once(code: &[u8]) -> Cpu {
    let mut on = assert_translation_transparent(code);
    assert_eq!(local_word(&mut on, 1), 1, "second pass ran stale code");
    assert!(
        on.stats().trans_invalidations > 0,
        "the rewrite must invalidate the translated block"
    );
    on
}

/// The rewritten block is never the target of a control transfer: it
/// is entered by falling out of the block before it (`ldc 1; cj 0`
/// always falls through), so the chained entry is what must notice the
/// moved epoch and drop the cache.
#[test]
fn storing_into_a_block_entered_by_chaining_invalidates_it() {
    let mut head = encode(Direct::LoadConstant, 1);
    head.extend(encode(Direct::ConditionalJump, 0));
    let t_at = head.len();
    assert_patched_once(&patch_once_program(head, t_at, 0));
}

/// `j 0` is straight-line code, so the block led by it holds the
/// operations after it — here in the *next* 64-byte code block (code
/// is loaded 72 bytes above the memory base, so code byte 55 is the
/// last of a block). The store lands only there: the block must arm
/// the write gate past the `j 0`.
#[test]
fn storing_into_the_bytes_after_a_j0_invalidates_its_block() {
    let j0_at = 55;
    let mut head = jump_to(Direct::Jump, 0, j0_at);
    head.resize(j0_at, encode(Direct::LoadConstant, 0)[0]);
    head.extend(encode(Direct::Jump, 0));
    let code = patch_once_program(head, j0_at + 1, j0_at);
    let cpu = Cpu::new(CpuConfig::t424());
    assert_eq!(
        (cpu.memory().mem_start() - cpu.memory().base()) as usize + j0_at,
        127,
        "`j 0` must be the last byte of a 64-byte code block"
    );
    assert_patched_once(&code);
}

/// A five-trip countdown loop whose body block starts with `T` runs to
/// completion five times — five complete runs whose statistics are
/// still pending in the block, all inside one slice — before the
/// rewrite of `T` invalidates it. The pending runs must be folded into
/// `Stats` before the block is dropped, or their operations go missing
/// (the comparison with translation off catches exactly that).
#[test]
fn storing_into_a_block_with_unfolded_runs_keeps_stats_exact() {
    let mut c: Vec<u8> = Vec::new();
    c.extend(encode(Direct::LoadConstant, 5));
    c.extend(encode(Direct::StoreLocal, 2));
    let top = c.len();
    c.extend(encode(Direct::LoadConstant, 0)); // T
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 2));
    c.extend(encode(Direct::AddConstant, -1));
    c.extend(encode(Direct::StoreLocal, 2));
    c.extend(encode(Direct::LoadLocal, 2));
    let back = jump_to(Direct::Jump, c.len() + 1, top);
    let cj = encode(Direct::ConditionalJump, back.len() as i64);
    assert_eq!(cj.len(), 1, "cj displacement must stay single-byte");
    c.extend(cj); // countdown done: leave the loop
    c.extend(back);
    c.extend(encode(Direct::LoadLocal, 1));
    let halt = encode_op(Op::HaltSimulation);
    c.extend(encode(Direct::ConditionalJump, halt.len() as i64));
    c.extend(&halt);
    c.extend(encode(Direct::LoadConstant, 0x41));
    push_code_address(&mut c, top);
    c.extend(encode_op(Op::StoreByte));
    let at = c.len();
    c.extend(jump_to(Direct::Jump, at, 0));
    let on = assert_patched_once(&c);
    assert_eq!(
        on.stats().direct_count(Direct::StoreLocal),
        2 + 2 * 5 * 2,
        "two passes of five trips, two stores a trip"
    );
}

/// `R: ldc 7; stl 3; j T` runs once, first, so its 64-byte code block
/// is translated; then `T` (at code offset 120, two code blocks up) is
/// patched as in [`patch_once_program`], which empties the cache, and
/// the second pass stores `0x55` into code offset `target` four times.
/// Code offsets 4..120 are never executed.
fn data_stores_after_a_flush_program(target: usize) -> Vec<u8> {
    const T_AT: usize = 120;
    let mut c = encode(Direct::LoadConstant, 7);
    c.extend(encode(Direct::StoreLocal, 3));
    let at = c.len();
    c.extend(jump_to(Direct::Jump, at, T_AT));
    c.resize(T_AT, encode(Direct::LoadConstant, 0)[0]);
    c.extend(encode(Direct::LoadConstant, 0)); // T, patched to ldc 1
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode(Direct::EqualsConstant, 0));
    // First pass (w1 == 0): fall into the patch. Second: jump over it.
    let mut patch = c.clone();
    patch.push(0); // the one-byte `cj` below
    let from = patch.len();
    patch.extend(encode(Direct::LoadConstant, 0x41));
    push_code_address(&mut patch, T_AT);
    patch.extend(encode_op(Op::StoreByte));
    let at = patch.len();
    patch.extend(jump_to(Direct::Jump, at, T_AT));
    let cj = encode(Direct::ConditionalJump, (patch.len() - from) as i64);
    assert_eq!(cj.len(), 1, "cj displacement must stay single-byte");
    c.extend(cj);
    c.extend(&patch[from..]);
    c.extend(encode(Direct::LoadConstant, 4));
    c.extend(encode(Direct::StoreLocal, 2));
    let top = c.len();
    c.extend(encode(Direct::LoadConstant, 0x55));
    push_code_address(&mut c, target);
    c.extend(encode_op(Op::StoreByte));
    c.extend(encode(Direct::LoadLocal, 2));
    c.extend(encode(Direct::AddConstant, -1));
    c.extend(encode(Direct::StoreLocal, 2));
    c.extend(encode(Direct::LoadLocal, 2));
    let back = jump_to(Direct::Jump, c.len() + 1, top);
    c.extend(encode(Direct::ConditionalJump, back.len() as i64));
    c.extend(back);
    c.extend(encode_op(Op::HaltSimulation));
    c
}

/// A flush disarms every write gate. After the patch of `T` has
/// emptied the cache, `R`'s 64-byte block is covered by no live block,
/// so storing into it is a data store: it must not empty the cache a
/// second time. Checked against the same stores into a 64-byte block
/// that nothing ever translated: the same blocks are built and dropped.
#[test]
fn a_data_store_after_a_flush_does_not_flush_again() {
    let base = Cpu::new(CpuConfig::t424()).memory().mem_start();
    let run = |target: usize| {
        let on = assert_patched_once(&data_stores_after_a_flush_program(target));
        let byte = on.memory().dump(base + target as u32, 1).unwrap()[0];
        assert_eq!(byte, 0x55, "the store into code offset {target} landed");
        on
    };
    // Code offset 2 is `R`'s `j T`; 64 is in the never-executed gap.
    let (r, gap) = (run(2), run(64));
    assert_eq!(
        (r.stats().trans_blocks, r.stats().trans_invalidations),
        (gap.stats().trans_blocks, gap.stats().trans_invalidations),
        "storing into `R` after the flush emptied the cache again"
    );
}
