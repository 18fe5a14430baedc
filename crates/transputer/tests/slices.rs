//! One test per [`SliceOutcome`] variant, plus batched-vs-stepped
//! equivalence checks for `run_slice` / `run_batched`, and the link
//! fence of `run_slice_fenced` over every operation that can act on a
//! link, in every execution tier.
//!
//! The slice engine must stop at exactly the interaction points the
//! per-instruction engine would observe, so each variant is provoked
//! with the smallest program that reaches it.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::memory::{MemoryConfig, LINK_IN_BASE, LINK_OUT_BASE, T424_ON_CHIP_BYTES};
use transputer::{Cpu, CpuConfig, HaltReason, Priority, SliceOutcome, StepEvent};

/// Outword 0xBEEF on the link-0 output channel, then halt.
fn sender_code() -> Vec<u8> {
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadConstant, 0xBEEF));
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
    code.extend(encode_op(Op::OutputWord));
    code.extend(encode_op(Op::HaltSimulation));
    code
}

/// Input 4 bytes from the link-0 input channel into w[1], then halt.
fn receiver_code() -> Vec<u8> {
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadLocalPointer, 1));
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::LoadNonLocalPointer, LINK_IN_BASE as i64));
    code.extend(encode(Direct::LoadConstant, 4));
    code.extend(encode_op(Op::InputMessage));
    code.extend(encode(Direct::LoadLocal, 1));
    code.extend(encode_op(Op::HaltSimulation));
    code
}

#[test]
fn slice_exits_at_tx_ready() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&sender_code()).unwrap();
    let out = cpu.run_slice(1 << 20);
    assert_eq!(out, SliceOutcome::TxReady);
    assert!(
        cpu.take_links_dirty(),
        "tx start changes wire-visible state"
    );
    // The interacting instruction began no later than the current cycle.
    assert!(cpu.slice_interaction_cycle() <= cpu.cycles());
    // The wire can now collect the first byte of the word.
    assert!(cpu.link_tx_poll(0).is_some());
}

#[test]
fn slice_exits_at_rx_wait() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&receiver_code()).unwrap();
    let out = cpu.run_slice(1 << 20);
    assert_eq!(out, SliceOutcome::RxWait);
    // Nothing is runnable while the input blocks, and the receiver now
    // accepts an early acknowledge for the first incoming byte.
    assert!(cpu.is_idle());
    assert!(cpu.link_rx_early_ack(0));
}

#[test]
fn slice_exits_at_ack_raised() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&receiver_code()).unwrap();
    // A byte arrives before any process waits: it buffers, and the
    // acknowledge is deferred until a process takes it.
    let ack_now = cpu.link_rx_deliver(0, 0x11);
    assert!(!ack_now, "no process waiting: byte buffers, ack deferred");
    let out = cpu.run_slice(1 << 20);
    assert_eq!(out, SliceOutcome::AckRaised);
    assert!(
        cpu.link_take_deferred_ack(0),
        "the deferred acknowledge is owed to the wire"
    );
}

#[test]
fn slice_exits_idle_with_timer_wake() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    code.extend(encode_op(Op::LoadTimer));
    code.extend(encode(Direct::AddConstant, 2));
    code.extend(encode_op(Op::TimerInput));
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).unwrap();
    let out = cpu.run_slice(1 << 20);
    assert_eq!(out, SliceOutcome::Idle);
    let wake = cpu.next_timer_wake_cycle().expect("timer wait is armed");
    cpu.advance_idle_to(wake.max(cpu.cycles() + 1));
    assert_eq!(
        cpu.run_slice(1 << 20),
        SliceOutcome::Halted(HaltReason::Stopped)
    );
}

#[test]
fn slice_exits_halted_and_stays_halted() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadConstant, 1));
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).unwrap();
    assert_eq!(
        cpu.run_slice(1 << 20),
        SliceOutcome::Halted(HaltReason::Stopped)
    );
    // Idempotent: further slices report the same halt without running.
    let cycles = cpu.cycles();
    assert_eq!(
        cpu.run_slice(1 << 20),
        SliceOutcome::Halted(HaltReason::Stopped)
    );
    assert_eq!(cpu.cycles(), cycles);
}

#[test]
fn slice_exits_preempted_by_high_priority() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    // Low: endless multiply loop; High: one timer wait, then halt.
    let lo = code.len();
    code.extend(encode(Direct::LoadConstant, 3));
    code.extend(encode(Direct::LoadConstant, 3));
    code.extend(encode_op(Op::Multiply));
    code.extend(encode(Direct::StoreLocal, 1));
    let dist = lo as i64 - (code.len() as i64 + 2);
    code.extend(encode(Direct::Jump, dist));
    let hi = code.len();
    code.extend(encode_op(Op::LoadTimer));
    code.extend(encode(Direct::AddConstant, 2));
    code.extend(encode_op(Op::TimerInput));
    code.extend(encode_op(Op::HaltSimulation));
    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).expect("fits");
    let w = cpu.default_boot_workspace();
    cpu.spawn(w, entry, Priority::Low);
    cpu.spawn(w.wrapping_sub(256), entry + hi as u32, Priority::High);

    let mut outcomes = Vec::new();
    for _ in 0..10_000 {
        let out = cpu.run_slice(1 << 16);
        outcomes.push(out);
        match out {
            SliceOutcome::Halted(_) => break,
            SliceOutcome::Idle => {
                let wake = cpu.next_timer_wake_cycle().expect("timer armed");
                cpu.advance_idle_to(wake.max(cpu.cycles() + 1));
            }
            _ => {}
        }
    }
    assert!(
        outcomes.contains(&SliceOutcome::Preempted),
        "the timer wake must preempt the low-priority loop: {outcomes:?}"
    );
    assert_eq!(
        *outcomes.last().unwrap(),
        SliceOutcome::Halted(HaltReason::Stopped)
    );
    assert!(cpu.stats().preemptions >= 1);
}

#[test]
fn slice_exits_budget_expired_at_instruction_boundary() {
    let mut batched = Cpu::new(CpuConfig::t424());
    let mut stepped = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    let lo = code.len();
    code.extend(encode(Direct::LoadConstant, 3));
    code.extend(encode(Direct::LoadConstant, 3));
    code.extend(encode_op(Op::Multiply));
    code.extend(encode(Direct::StoreLocal, 1));
    let dist = lo as i64 - (code.len() as i64 + 2);
    code.extend(encode(Direct::Jump, dist));
    batched.load_boot_program(&code).unwrap();
    stepped.load_boot_program(&code).unwrap();

    let out = batched.run_slice(1_000);
    assert_eq!(out, SliceOutcome::BudgetExpired);
    // Every instruction *starting* inside the budget ran; the last may
    // finish past it, but only by one instruction's worth of cycles.
    assert!(batched.cycles() >= 1_000);

    // The stepped twin reaches the identical state at the same cycle.
    while stepped.cycles() < batched.cycles() {
        stepped.step();
    }
    assert_eq!(stepped.cycles(), batched.cycles());
    assert_eq!(stepped.iptr(), batched.iptr());
    assert_eq!(stepped.areg(), batched.areg());
    assert_eq!(
        stepped.stats().instructions,
        batched.stats().instructions,
        "stats audit: instruction counters agree between engines"
    );
}

#[test]
fn run_batched_matches_run_on_a_standalone_program() {
    // A compute-plus-timer program: run() and run_batched() must agree
    // on cycles, instruction counts, and the final memory image.
    let mut code = Vec::new();
    let lo = code.len();
    code.extend(encode(Direct::LoadConstant, 7));
    code.extend(encode(Direct::LoadConstant, 9));
    code.extend(encode_op(Op::Multiply));
    code.extend(encode(Direct::StoreLocal, 1));
    let dist = lo as i64 - (code.len() as i64 + 2);
    code.extend(encode(Direct::Jump, dist));
    let hi = code.len();
    code.extend(encode_op(Op::LoadTimer));
    code.extend(encode(Direct::AddConstant, 3));
    code.extend(encode_op(Op::TimerInput));
    code.extend(encode_op(Op::HaltSimulation));

    let build = |code: &[u8]| {
        let mut cpu = Cpu::new(CpuConfig::t424());
        let entry = cpu.memory().mem_start();
        cpu.load(entry, code).expect("fits");
        let w = cpu.default_boot_workspace();
        cpu.spawn(w, entry, Priority::Low);
        cpu.spawn(w.wrapping_sub(256), entry + hi as u32, Priority::High);
        cpu
    };
    let mut a = build(&code);
    let mut b = build(&code);
    let ra = a.run(1_000_000).expect("halts");
    let rb = b.run_batched(1_000_000).expect("halts");
    assert_eq!(ra, rb);
    assert_eq!(a.cycles(), b.cycles());
    assert_eq!(a.stats().instructions, b.stats().instructions);
    assert_eq!(a.stats().preemptions, b.stats().preemptions);
    let start = a.memory().mem_start();
    let len = 4096usize;
    assert_eq!(
        a.memory().dump(start, len).unwrap(),
        b.memory().dump(start, len).unwrap(),
        "final memory images agree"
    );
}

// ---- SliceOutcome::Fenced -------------------------------------------

/// Where a fence row's channel lives.
#[derive(Clone, Copy)]
enum Chan {
    /// The link-0 channel of the direction the operation uses.
    Link,
    /// A workspace word holding NotProcess.
    Internal,
}

/// Workspace slot of the internal channel (and of nothing else).
const CHAN_SLOT: i64 = 5;

/// The seven operations that can act on a link, each with the shortest
/// program that reaches it with a valid stack: `(op, setup, is_output)`.
/// `setup` runs after the channel address is in A.
fn link_ops() -> Vec<(Op, Vec<u8>, bool)> {
    let ldc = |v| encode(Direct::LoadConstant, v);
    vec![
        // in: A = count, B = channel, C = destination.
        (Op::InputMessage, ldc(4), false),
        (Op::OutputMessage, ldc(4), true),
        // outbyte / outword: A = channel, B = value (loaded first).
        (Op::OutputByte, Vec::new(), true),
        (Op::OutputWord, Vec::new(), true),
        // enbc: A = guard, B = channel.
        (Op::EnableChannel, ldc(1), false),
        // disc: A = branch offset, B = guard, C = channel.
        (Op::DisableChannel, [ldc(1), ldc(0)].concat(), false),
        (Op::ResetChannel, Vec::new(), false),
    ]
}

/// `(code, offset of the operation's first byte, of its terminal byte)`.
fn fence_program(op: Op, setup: &[u8], is_output: bool, chan: Chan) -> (Vec<u8>, usize, usize) {
    let mut code = Vec::new();
    // The internal channel starts empty; harmless on the link rows.
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::StoreLocal, CHAN_SLOT));
    code.extend(encode_op(Op::Alt));
    // C for `in`/`out` (a buffer), B for `outbyte`/`outword` (a value).
    code.extend(encode(Direct::LoadLocalPointer, 1));
    match chan {
        Chan::Link => {
            let base = if is_output {
                LINK_OUT_BASE
            } else {
                LINK_IN_BASE
            };
            code.extend(encode_op(Op::MinimumInteger));
            code.extend(encode(Direct::LoadNonLocalPointer, i64::from(base)));
        }
        Chan::Internal => code.extend(encode(Direct::LoadLocalPointer, CHAN_SLOT)),
    }
    code.extend(setup);
    let first = code.len();
    code.extend(encode_op(op));
    let terminal = code.len() - 1;
    code.extend(encode_op(Op::HaltSimulation));
    (code, first, terminal)
}

/// The two execution tiers — the translation tier twice, once with
/// every leader too cold to translate (every operation runs on the byte
/// path, which checks the fence) and once with every leader translated
/// on arrival (a block checks it before a link operation) — and the
/// byte path once more with the code in penalised off-chip memory
/// (where every fetch costs extra cycles: a fence check that fetched
/// would charge the operation twice).
fn tiers() -> Vec<(&'static str, CpuConfig, bool)> {
    let off_chip = MemoryConfig::t424().with_external(60 * 1024, 3);
    let tier = |threshold| {
        CpuConfig::t424()
            .with_translate(true)
            .with_translate_threshold(threshold)
    };
    vec![
        ("byte", CpuConfig::t424().with_translate(false), false),
        ("cold", tier(255), false),
        ("translated", tier(1), false),
        ("off-chip", CpuConfig::t424().with_memory(off_chip), true),
    ]
}

/// A processor about to run `code`, and the address it was loaded at:
/// the first user address, or a penalised one beyond the on-chip block.
fn boot_at(config: &CpuConfig, code: &[u8], off_chip: bool) -> (Cpu, u32) {
    let mut cpu = Cpu::new(config.clone());
    let mut entry = cpu.memory().mem_start();
    if off_chip {
        entry = cpu.memory().base() + T424_ON_CHIP_BYTES + 64;
    }
    cpu.load(entry, code).expect("fits");
    let w = cpu.default_boot_workspace();
    cpu.spawn(w, entry, Priority::Low);
    (cpu, entry)
}

/// Everything of a processor a program can observe.
fn observable(cpu: &Cpu) -> impl PartialEq + std::fmt::Debug {
    let base = cpu.memory().base();
    let image = cpu.memory().dump(base, cpu.memory().size() as usize);
    (
        (cpu.iptr(), cpu.areg(), cpu.breg(), cpu.creg(), cpu.oreg()),
        cpu.cycles(),
        cpu.stats().simulated(),
        image.expect("whole memory dumps"),
    )
}

#[test]
fn link_instruction_at_or_past_the_fence_is_not_executed() {
    for (op, setup, is_output) in link_ops() {
        for (tier, config, off_chip) in tiers() {
            let row = format!("{op:?} / {tier}");
            let (code, first, terminal) = fence_program(op, &setup, is_output, Chan::Link);

            // The oracle: a twin stepped byte by byte to the operation's
            // terminal byte. `at_op` is the cycle it would start at.
            let (mut twin, entry) = boot_at(&config, &code, off_chip);
            while twin.iptr() != entry + terminal as u32 {
                assert!(matches!(twin.step(), StepEvent::Ran { .. }), "{row}");
            }
            let at_op = twin.cycles();
            assert!(
                at_op > 0,
                "{row}: the operation is not the first micro-step"
            );

            // A fence at exactly that cycle, and one far before it.
            for fence in [at_op, 1] {
                let (mut cpu, _) = boot_at(&config, &code, off_chip);
                assert_eq!(
                    cpu.run_slice_fenced(fence, 1 << 20),
                    SliceOutcome::Fenced,
                    "{row} fence {fence}"
                );
                // Nothing of the operation happened — and a prefixed form
                // (`enbc`, `disc`, `resetch`) stopped at its terminal
                // byte, prefix consumed into Oreg like the twin's.
                assert_eq!(observable(&cpu), observable(&twin), "{row} fence {fence}");
                assert_eq!(cpu.slice_interaction_cycle(), at_op, "{row}");
                assert_eq!(cpu.oreg() != 0, terminal != first, "{row}");
                assert!(!cpu.take_links_dirty(), "{row}");
                if tier == "translated" {
                    assert!(cpu.stats().trans_enters > 0, "{row}: ran translated");
                }

                // Re-entry executes it as the first micro-step, whatever
                // the fence, exactly as one more step of the twin does.
                let mut stepped = twin.clone();
                stepped.step();
                let out = cpu.run_slice_fenced(0, 1 << 20);
                assert_ne!(out, SliceOutcome::Fenced, "{row}");
                assert_eq!(observable(&cpu), observable(&stepped), "{row} re-entry");
                assert_eq!(
                    cpu.stats().op_count(op),
                    1,
                    "{row}: executed once, length histogram and all"
                );
            }

            // One cycle more of fence and it starts before it: it runs.
            let (mut cpu, _) = boot_at(&config, &code, off_chip);
            let out = cpu.run_slice_fenced(at_op + 1, 1 << 20);
            assert_ne!(out, SliceOutcome::Fenced, "{row} before the fence");
            assert_eq!(cpu.stats().op_count(op), 1, "{row} before the fence");
        }
    }
}

#[test]
fn the_fence_ignores_internal_channels() {
    for (op, setup, is_output) in link_ops() {
        for (tier, config, off_chip) in tiers() {
            let (code, ..) = fence_program(op, &setup, is_output, Chan::Internal);
            let (mut cpu, _) = boot_at(&config, &code, off_chip);
            let mut outcomes = Vec::new();
            loop {
                let out = cpu.run_slice_fenced(1, 1 << 20);
                outcomes.push(out);
                if matches!(out, SliceOutcome::Halted(_) | SliceOutcome::Idle) {
                    break;
                }
            }
            assert!(
                !outcomes.contains(&SliceOutcome::Fenced),
                "{op:?} / {tier}: {outcomes:?}"
            );
            assert_eq!(cpu.stats().op_count(op), 1, "{op:?} / {tier}");
        }
    }
}

/// `enbc` and `disc` on a link change what a wire event can do to the
/// processor without touching the wire: they end the slice, so a caller
/// holding a fence re-reads [`Cpu::link_sensitive`].
#[test]
fn alt_guards_on_a_link_end_the_slice_and_set_sensitivity() {
    let mut code = Vec::new();
    code.extend(encode_op(Op::Alt));
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::LoadNonLocalPointer, i64::from(LINK_IN_BASE)));
    code.extend(encode(Direct::LoadConstant, 1));
    code.extend(encode_op(Op::EnableChannel));
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::LoadNonLocalPointer, i64::from(LINK_IN_BASE)));
    code.extend(encode(Direct::LoadConstant, 1));
    code.extend(encode(Direct::LoadConstant, 0));
    code.extend(encode_op(Op::DisableChannel));
    code.extend(encode_op(Op::HaltSimulation));
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&code).unwrap();
    assert!(!cpu.link_sensitive());
    assert_eq!(cpu.run_slice(1 << 20), SliceOutcome::RxWait);
    assert_eq!(cpu.stats().op_count(Op::EnableChannel), 1);
    assert!(cpu.link_sensitive(), "a guard watches link 0");
    assert!(!cpu.take_links_dirty(), "nothing for the wire to see");
    assert_eq!(cpu.run_slice(1 << 20), SliceOutcome::RxWait);
    assert_eq!(cpu.stats().op_count(Op::DisableChannel), 1);
    assert!(!cpu.link_sensitive());
    assert_eq!(
        cpu.run_slice(1 << 20),
        SliceOutcome::Halted(HaltReason::Stopped)
    );
}

#[test]
fn link_sensitivity_follows_transfers_and_boot() {
    let mut rx = Cpu::new(CpuConfig::t424());
    rx.load_boot_program(&receiver_code()).unwrap();
    assert!(!rx.link_sensitive());
    assert_eq!(rx.run_slice(1 << 20), SliceOutcome::RxWait);
    assert!(rx.link_sensitive(), "an input transfer waits on link 0");
    for byte in 0..4 {
        rx.link_rx_deliver(0, byte);
    }
    assert!(!rx.link_sensitive(), "the message completed");

    let mut tx = Cpu::new(CpuConfig::t424());
    tx.load_boot_program(&sender_code()).unwrap();
    assert_eq!(tx.run_slice(1 << 20), SliceOutcome::TxReady);
    assert!(tx.link_sensitive(), "an output transfer is active");

    let mut blank = Cpu::new(CpuConfig::t424());
    blank.await_boot_from_link();
    assert!(blank.link_sensitive(), "the boot logic listens");
}
