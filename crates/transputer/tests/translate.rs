//! The threaded-code translation tier must be invisible: any program
//! must produce bit-identical cycle counts, simulated statistics, and
//! memory images with translation enabled or disabled — including
//! programs that deoptimise mid-block at every kind of interaction
//! point. Each test here provokes one deopt cause from the contract in
//! `cpu/translate.rs`: channel rendezvous (input and output) in the
//! middle of a translated block, a timer wait inside a translated
//! region, and high-priority preemption of a translated low-priority
//! loop.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::{Cpu, CpuConfig, HaltReason, Priority, RunOutcome};

/// Encode a jump-family instruction at code offset `at` whose
/// displacement reaches `target`, resolving the length/operand
/// fixpoint.
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

/// A config with translation forced on or off. The threshold of 1
/// translates every block leader on first arrival, so even short test
/// programs execute translated from the start.
fn config(translate: bool) -> CpuConfig {
    CpuConfig::t424()
        .with_translate(translate)
        .with_translate_threshold(1)
}

fn run_with(code: &[u8], translate: bool) -> Cpu {
    let mut cpu = Cpu::new(config(translate));
    cpu.load_boot_program(code).expect("program fits");
    match cpu.run_batched(100_000_000).expect("no budget overrun") {
        RunOutcome::Halted(HaltReason::Stopped) => {}
        other => panic!("program did not halt cleanly: {other:?}"),
    }
    cpu
}

/// Run a program with translation on and off and assert every
/// simulated observable — cycle count, statistics, the full memory
/// image — is identical. Returns the translated run for extra
/// assertions.
fn assert_transparent_with(build: impl Fn(bool) -> Cpu) -> Cpu {
    let on = build(true);
    let off = build(false);
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

fn assert_transparent(code: &[u8]) -> Cpu {
    let code = code.to_vec();
    assert_transparent_with(move |translate| run_with(&code, translate))
}

fn local_word(cpu: &mut Cpu, index: u32) -> u32 {
    let addr = cpu.default_boot_workspace() + 4 * index;
    cpu.inspect_word(addr).expect("workspace in range")
}

/// Resolve the `ldc`-operand fixpoint for a `startp` child whose entry
/// is at code offset `child_entry`: the operand counts from the byte
/// after `startp`, but its own encoding length shifts everything after
/// it. Returns the final image. `tail_after_ldc` is the byte length of
/// the instructions between the `ldc` and the end of `startp`.
fn patch_startp(code: &[u8], ldc_pos: usize, tail_after_ldc: usize, child_entry: usize) -> Vec<u8> {
    let mut delta = 0i64;
    loop {
        let mut out = Vec::new();
        out.extend_from_slice(&code[..ldc_pos]);
        let before = out.len();
        out.extend(encode(Direct::LoadConstant, delta));
        let enc_len = out.len() - before;
        out.extend_from_slice(&code[ldc_pos + 1..]);
        let startp_end = ldc_pos + enc_len + tail_after_ldc;
        let entry = child_entry + enc_len - 1;
        let need = (entry - startp_end) as i64;
        if need == delta {
            return out;
        }
        delta = need;
    }
}

/// A producer/consumer pair over an internal channel, both hot loops.
/// The consumer's `in` and the producer's `outword` sit in the middle
/// of their blocks (followed by further sequential operations), so
/// every rendezvous that blocks forces a mid-block deoptimisation and
/// a later resumption at an interpreter-visible operation boundary.
///
/// The producer sends N, N-1, .., 1, then a terminating 0; the
/// consumer accumulates the sum in w[11] and halts when it sees 0.
fn channel_rendezvous_program(n: i64) -> Vec<u8> {
    let mut c: Vec<u8> = Vec::new();
    // Parent (consumer). Channel word at w[10], sum at w[11], receive
    // buffer at w[13]; child workspace 40 words below (channel is its
    // w[50]).
    c.extend(encode_op(Op::MinimumInteger));
    c.extend(encode(Direct::StoreLocal, 10));
    c.extend(encode(Direct::LoadConstant, 0));
    c.extend(encode(Direct::StoreLocal, 11));
    let ldc_pos = c.len();
    c.extend(encode(Direct::LoadConstant, 0)); // patched: child entry
    let tail_start = c.len();
    c.extend(encode(Direct::LoadLocalPointer, -40));
    c.extend(encode_op(Op::StartProcess));
    let tail_after_ldc = c.len() - tail_start;
    let ploop = c.len();
    c.extend(encode(Direct::LoadLocalPointer, 13));
    c.extend(encode(Direct::LoadLocalPointer, 10));
    c.extend(encode(Direct::LoadConstant, 4));
    c.extend(encode_op(Op::InputMessage)); // mid-block: ops follow
    c.extend(encode(Direct::LoadLocal, 11));
    c.extend(encode(Direct::LoadLocal, 13));
    c.extend(encode_op(Op::Add));
    c.extend(encode(Direct::StoreLocal, 11));
    c.extend(encode(Direct::LoadLocal, 13));
    let back = jump_to(Direct::Jump, c.len() + 1, ploop);
    let cj = encode(Direct::ConditionalJump, back.len() as i64);
    assert_eq!(cj.len(), 1, "cj displacement must stay single-byte");
    c.extend(cj); // received 0: exit the loop
    c.extend(back);
    c.extend(encode_op(Op::HaltSimulation));

    // Child (producer): count in its w[1], channel at its w[50].
    let child_entry = c.len();
    c.extend(encode(Direct::LoadConstant, n));
    c.extend(encode(Direct::StoreLocal, 1));
    let cloop = c.len();
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode(Direct::LoadLocalPointer, 50));
    c.extend(encode_op(Op::OutputWord)); // mid-block: ops follow
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode(Direct::AddConstant, -1));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 1));
    let back = jump_to(Direct::Jump, c.len() + 1, cloop);
    let cj = encode(Direct::ConditionalJump, back.len() as i64);
    assert_eq!(cj.len(), 1, "cj displacement must stay single-byte");
    c.extend(cj); // counter hit 0: send the terminator
    c.extend(back);
    c.extend(encode(Direct::LoadConstant, 0));
    c.extend(encode(Direct::LoadLocalPointer, 50));
    c.extend(encode_op(Op::OutputWord));
    c.extend(encode_op(Op::StopProcess));

    patch_startp(&c, ldc_pos, tail_after_ldc, child_entry)
}

#[test]
fn channel_rendezvous_mid_block_deopts_and_resumes_exactly() {
    let n = 50i64;
    let mut on = assert_transparent(&channel_rendezvous_program(n));
    let expected = (n * (n + 1) / 2) as u32;
    assert_eq!(local_word(&mut on, 11), expected, "sum of sent words");
    assert!(
        on.stats().trans_deopts > 0,
        "a blocking rendezvous inside a block must deoptimise"
    );
    assert!(on.stats().messages >= n as u64, "every word was a message");
}

/// A hot loop whose body *starts* with a timer wait: `ldtimer; adc;
/// tin` followed by arithmetic in the same translated block. Every
/// iteration the `tin` blocks on a future time, descheduling the
/// process mid-block; the timer wake must resume it at exactly the
/// interpreter's operation boundary and cycle.
#[test]
fn timer_wakeup_inside_translated_region() {
    let mut c: Vec<u8> = Vec::new();
    c.extend(encode(Direct::LoadConstant, 0));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadConstant, 12));
    c.extend(encode(Direct::StoreLocal, 2));
    let top = c.len();
    c.extend(encode_op(Op::LoadTimer));
    c.extend(encode(Direct::AddConstant, 3));
    c.extend(encode_op(Op::TimerInput)); // mid-block: ops follow
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode(Direct::AddConstant, 7));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 2));
    c.extend(encode(Direct::AddConstant, -1));
    c.extend(encode(Direct::StoreLocal, 2));
    c.extend(encode(Direct::LoadLocal, 2));
    let back = jump_to(Direct::Jump, c.len() + 1, top);
    let cj = encode(Direct::ConditionalJump, back.len() as i64);
    assert_eq!(cj.len(), 1);
    c.extend(cj);
    c.extend(back);
    c.extend(encode_op(Op::HaltSimulation));

    let mut on = assert_transparent(&c);
    assert_eq!(local_word(&mut on, 1), 12 * 7);
    assert!(
        on.stats().trans_deopts >= 12,
        "every iteration's blocking tin must deoptimise mid-block"
    );
}

/// A low-priority translated arithmetic loop preempted by a
/// high-priority process waking from a timer wait: the preemption is a
/// descheduling point, and the low process must be suspended and
/// resumed at exactly the boundary the interpreter would pick.
#[test]
fn preemption_of_a_translated_low_priority_loop() {
    let mut code: Vec<u8> = Vec::new();
    // Low priority: a long countdown loop of translatable operations.
    code.extend(encode(Direct::LoadConstant, 0));
    code.extend(encode(Direct::StoreLocal, 1));
    code.extend(encode(Direct::LoadConstant, 2000));
    code.extend(encode(Direct::StoreLocal, 2));
    let top = code.len();
    code.extend(encode(Direct::LoadLocal, 1));
    code.extend(encode(Direct::AddConstant, 0x1234));
    code.extend(encode(Direct::StoreLocal, 1));
    code.extend(encode(Direct::LoadLocal, 2));
    code.extend(encode(Direct::AddConstant, -1));
    code.extend(encode(Direct::StoreLocal, 2));
    code.extend(encode(Direct::LoadLocal, 2));
    let back = jump_to(Direct::Jump, code.len() + 1, top);
    let cj = encode(Direct::ConditionalJump, back.len() as i64);
    assert_eq!(cj.len(), 1);
    code.extend(cj);
    code.extend(back);
    code.extend(encode_op(Op::HaltSimulation));
    // High priority: one timer wait, a marker store, then stop.
    let hi = code.len();
    code.extend(encode_op(Op::LoadTimer));
    code.extend(encode(Direct::AddConstant, 2));
    code.extend(encode_op(Op::TimerInput));
    code.extend(encode(Direct::LoadConstant, 99));
    code.extend(encode(Direct::StoreLocal, 3));
    code.extend(encode_op(Op::StopProcess));

    let build = |translate: bool| {
        let mut cpu = Cpu::new(config(translate));
        let entry = cpu.memory().mem_start();
        cpu.load(entry, &code).expect("fits");
        let w = cpu.default_boot_workspace();
        cpu.spawn(w, entry, Priority::Low);
        cpu.spawn(w.wrapping_sub(256), entry + hi as u32, Priority::High);
        match cpu.run_batched(100_000_000).expect("no budget overrun") {
            RunOutcome::Halted(HaltReason::Stopped) => {}
            other => panic!("program did not halt cleanly: {other:?}"),
        }
        cpu
    };
    let mut on = assert_transparent_with(build);
    assert_eq!(local_word(&mut on, 1), 0x1234u32.wrapping_mul(2000));
    assert!(
        on.stats().preemptions >= 1,
        "the timer wake must preempt the low-priority loop"
    );
    assert!(
        on.stats().trans_enters > 1,
        "the loop must re-enter its block after resumption"
    );
}

/// The plain hot-loop case: no interactions at all, the whole program
/// executes translated after warmup, and everything still matches.
#[test]
fn hot_arithmetic_loop_is_transparent() {
    let mut c: Vec<u8> = Vec::new();
    c.extend(encode(Direct::LoadConstant, 0));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadConstant, 300));
    c.extend(encode(Direct::StoreLocal, 2));
    let top = c.len();
    // One iteration exercises every specialised arm: ldl/adc/stl, then
    // a non-local round trip (stnl to w[6] via ldlp/ldnlp, ldnl back),
    // an eqc, and the countdown.
    c.extend(encode(Direct::LoadLocal, 1));
    c.extend(encode(Direct::AddConstant, 0x4321));
    c.extend(encode(Direct::StoreLocal, 1));
    c.extend(encode(Direct::LoadLocal, 1)); // value
    c.extend(encode(Direct::LoadLocalPointer, 0));
    c.extend(encode(Direct::LoadNonLocalPointer, 6)); // address &w[6]
    c.extend(encode(Direct::StoreNonLocal, 0)); // w[6] := sum
    c.extend(encode(Direct::LoadLocalPointer, 0));
    c.extend(encode(Direct::LoadNonLocal, 6)); // reload the sum
    c.extend(encode(Direct::EqualsConstant, 0));
    c.extend(encode(Direct::StoreLocal, 5));
    c.extend(encode(Direct::LoadLocal, 2));
    c.extend(encode(Direct::AddConstant, -1));
    c.extend(encode(Direct::StoreLocal, 2));
    c.extend(encode(Direct::LoadLocal, 2));
    let back = jump_to(Direct::Jump, c.len() + 1, top);
    let cj = encode(Direct::ConditionalJump, back.len() as i64);
    assert_eq!(cj.len(), 1);
    c.extend(cj);
    c.extend(back);
    c.extend(encode_op(Op::HaltSimulation));

    let mut on = assert_transparent(&c);
    assert_eq!(local_word(&mut on, 1), 0x4321u32.wrapping_mul(300));
    assert!(on.stats().trans_blocks > 0, "the loop must be translated");
    assert!(
        on.stats().trans_enters as usize > 100,
        "the loop body must run translated, not interpreted"
    );
}

/// The database search loop's shape (§3.2, §4.2): a replicated `SEQ`
/// around an `IF` whose last branch is `TRUE SKIP`, compiled from
/// occam so the code is what the compiler really emits — `cj` over the
/// guarded body, `j 0` closing the `SKIP` branch, `ldlp; ldc; lend`
/// closing the loop.
fn search_loop(n: u32, guard: &str) -> occam::Program {
    let source = format!(
        "VAR hits:\nSEQ\n  hits := 0\n  SEQ i = [0 FOR {n}]\n    IF\n      {guard}\n        \
         hits := hits + 1\n      TRUE\n        SKIP\n"
    );
    occam::compile(&source).expect("search loop compiles")
}

fn run_program(program: &occam::Program, translate: bool) -> Cpu {
    let mut cpu = Cpu::new(config(translate));
    program.load(&mut cpu).expect("program fits");
    match cpu.run_batched(100_000_000).expect("no budget overrun") {
        RunOutcome::Halted(HaltReason::Stopped) => {}
        other => panic!("program did not halt cleanly: {other:?}"),
    }
    cpu
}

/// Once warm, the loop never leaves its translated blocks: no operation
/// of iterations 4..=200 runs outside a block, and an
/// iteration is two block entries when its guard is false (`… cj`,
/// then `j 0; ldlp; ldc; lend` as one block) and three when it is true
/// (`… cj`, the body to its `j`, the loop end). The 3-iteration twin
/// runs the same cold code once — entry, both branches of neither or
/// one guard, the loop exit — so any difference is the warm iterations'.
#[test]
fn warm_loop_stays_in_the_tier() {
    // Guards the compiler cannot fold, and the most entries a warm
    // iteration may cost under each.
    for (guard, per_iteration) in [("i < 0", 2), ("i >= 0", 3)] {
        // `j 1` over the `SKIP` branch's `j 0`, which lands on the
        // loop end's `ldlp`.
        let code = search_loop(200, guard).code;
        let ldlp = Direct::LoadLocalPointer.nibble();
        assert!(
            code.windows(3)
                .any(|w| w[0] == 0x01 && w[1] == 0x00 && w[2] >> 4 == ldlp),
            "`{guard}`: the compiler no longer emits `j 0` before the loop end"
        );
        let warm = run_program(&search_loop(3, guard), true);
        let full = assert_transparent_with(|t| run_program(&search_loop(200, guard), t));
        assert_eq!(
            full.stats().decode_misses,
            warm.stats().decode_misses,
            "`{guard}`: warm iterations ran operations outside a block"
        );
        let enters = full.stats().trans_enters - warm.stats().trans_enters;
        assert!(
            enters <= 197 * per_iteration,
            "`{guard}`: {enters} block entries in 197 warm iterations"
        );
    }
}

/// The leader rule from the side of too many leaders. A position is
/// looked up, and its heat counted, at slice entry, after a block, and
/// after an operation that moved `Iptr` off its sequential successor or
/// that blocks end at — never after one that fell through. This `WHILE`
/// runs its body once, so its head (`ldc 1`, after `stl i`) is reached
/// once by falling into it and once by the back edge: one arrival at a
/// leader, one short of the default threshold of two, so no block is
/// built. A tier that looked up every position outside a block would
/// count both arrivals and translate the head.
#[test]
fn a_loop_head_reached_by_falling_into_it_is_one_arrival_short() {
    let program = occam::compile(
        "VAR i, x:\nSEQ\n  x := 0\n  i := 0\n  WHILE i < 1\n    SEQ\n      \
         x := x + i\n      i := i + 1\n",
    )
    .expect("loop compiles");
    let mut cpu = Cpu::new(
        CpuConfig::t424()
            .with_translate(true)
            .with_translate_threshold(2),
    );
    program.load(&mut cpu).expect("program fits");
    let outcome = cpu.run_batched(100_000).expect("no budget overrun");
    assert_eq!(outcome, RunOutcome::Halted(HaltReason::Stopped));
    assert_eq!(
        cpu.stats().trans_blocks,
        0,
        "the fall-through arrival at the loop head was counted"
    );
}

/// Leader heat saturates at 255, so a larger threshold means 255: the
/// tier still engages rather than silently never translating.
#[test]
fn a_threshold_beyond_the_heat_counter_still_translates() {
    let program = search_loop(1000, "i >= 0");
    let mut cpu = Cpu::new(
        CpuConfig::t424()
            .with_translate(true)
            .with_translate_threshold(1 << 20),
    );
    program.load(&mut cpu).expect("program fits");
    cpu.run_batched(100_000_000).expect("no budget overrun");
    assert!(cpu.stats().trans_enters > 700, "{:?}", cpu.stats());
}
