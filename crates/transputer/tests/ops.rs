//! Coverage tests for the long tail of the instruction set: register
//! manipulation, long arithmetic, checks, scheduler-register access, and
//! channel byte/word output forms.

use transputer::instr::{encode, encode_op, Direct, Op};
use transputer::{Cpu, CpuConfig, HaltReason, Priority, RunOutcome};

enum I {
    D(Direct, i64),
    O(Op),
}
use I::{D, O};

fn build(items: &[I]) -> Vec<u8> {
    let mut code = Vec::new();
    for item in items {
        match item {
            D(fun, operand) => code.extend(encode(*fun, *operand)),
            O(op) => code.extend(encode_op(*op)),
        }
    }
    code
}

fn run(items: &[I]) -> Cpu {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = build(items);
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).expect("fits");
    match cpu.run(1_000_000).expect("in budget") {
        RunOutcome::Halted(HaltReason::Stopped) => {}
        other => panic!("did not halt cleanly: {other:?}"),
    }
    cpu
}

#[test]
fn general_call_swaps_iptr_and_a() {
    // gcall to a computed address: compute the address of the target
    // with ldpi, gcall there; the target halts. A holds the old Iptr.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    // ldc (target - after_ldpi); ldpi; gcall; <skipped: seterr>; target: haltsim
    code.extend(encode(Direct::LoadConstant, 3)); // skip gcall(1) + seterr(2)
    code.extend(encode_op(Op::LoadPointerToInstruction));
    code.extend(encode_op(Op::GeneralCall));
    code.extend(encode_op(Op::SetError));
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).expect("fits");
    cpu.run(1_000).expect("halts");
    assert!(!cpu.error_flag(), "seterr was skipped by the computed call");
}

#[test]
fn general_adjust_workspace_swaps_wptr_and_a() {
    let cpu = run(&[
        D(Direct::LoadLocalPointer, 16),
        O(Op::GeneralAdjustWorkspace),
        D(Direct::StoreLocal, 0), // store old wptr at NEW w0
        D(Direct::LoadLocalPointer, 0),
    ]);
    // New Wptr = old + 16 words; A now points at it.
    assert_eq!(cpu.areg(), cpu.wptr());
}

#[test]
fn word_count_splits_pointer() {
    let cpu = run(&[
        D(Direct::LoadConstant, 0x107), // byte 3 of word 0x41
        O(Op::WordCount),
    ]);
    assert_eq!(cpu.areg(), 0x41, "word part");
    assert_eq!(cpu.breg(), 3, "byte selector");
}

#[test]
fn byte_and_word_counts_are_inverse() {
    let cpu = run(&[D(Direct::LoadConstant, 9), O(Op::ByteCount)]);
    assert_eq!(cpu.areg(), 36);
    let cpu = run(&[D(Direct::LoadConstant, 36), O(Op::WordCount)]);
    assert_eq!(cpu.areg(), 9);
}

#[test]
fn extend_to_double_and_check_single() {
    // xdble on a negative single gives an all-ones high word; csngl
    // accepts it back without error.
    let cpu = run(&[
        D(Direct::LoadConstant, -5),
        O(Op::ExtendToDouble),
        O(Op::CheckSingle),
    ]);
    assert_eq!(cpu.areg() as i32, -5);
    assert!(!cpu.error_flag());
    // csngl on a non-canonical pair sets the error flag.
    let cpu = run(&[
        D(Direct::LoadConstant, 1), // high (B after next load)
        D(Direct::LoadConstant, 5), // low (A)
        O(Op::CheckSingle),
    ]);
    assert!(cpu.error_flag());
}

#[test]
fn long_add_and_subtract_carry_chain() {
    // ladd: B + A + (C & 1), checked.
    let cpu = run(&[
        D(Direct::LoadConstant, 1), // carry in
        D(Direct::LoadConstant, 10),
        D(Direct::LoadConstant, 20),
        O(Op::LongAdd),
    ]);
    assert_eq!(cpu.areg(), 31);
    assert!(!cpu.error_flag());
    // lsub with borrow.
    let cpu = run(&[
        D(Direct::LoadConstant, 1),
        D(Direct::LoadConstant, 10),
        D(Direct::LoadConstant, 3),
        O(Op::LongSubtract),
    ]);
    assert_eq!(cpu.areg(), 6, "10 - 3 - 1");
    // ldiff produces a borrow bit.
    let cpu = run(&[
        D(Direct::LoadConstant, 0),
        D(Direct::LoadConstant, 3),  // B
        D(Direct::LoadConstant, 10), // A
        O(Op::LongDiff),
    ]);
    assert_eq!(cpu.breg(), 1, "3 - 10 borrows");
}

#[test]
fn long_shifts_move_across_words() {
    // lshl: count=A, low=B, high=C.
    let cpu = run(&[
        D(Direct::LoadConstant, 0),  // high
        D(Direct::LoadConstant, 1),  // low
        D(Direct::LoadConstant, 33), // count
        O(Op::LongShiftLeft),
    ]);
    assert_eq!(cpu.areg(), 0, "low word after shifting out");
    assert_eq!(cpu.breg(), 2, "bit 33 = bit 1 of the high word");
    let cpu = run(&[
        D(Direct::LoadConstant, 2), // high
        D(Direct::LoadConstant, 0), // low
        D(Direct::LoadConstant, 33),
        O(Op::LongShiftRight),
    ]);
    assert_eq!(cpu.areg(), 1);
    assert_eq!(cpu.breg(), 0);
}

#[test]
fn check_word_and_counts() {
    // cword: value fits a byte.
    let cpu = run(&[
        D(Direct::LoadConstant, 100),
        D(Direct::LoadConstant, 0x80),
        O(Op::CheckWord),
    ]);
    assert!(!cpu.error_flag());
    let cpu = run(&[
        D(Direct::LoadConstant, 200),
        D(Direct::LoadConstant, 0x80),
        O(Op::CheckWord),
    ]);
    assert!(cpu.error_flag());
    // csub0: 0 <= B < A.
    let cpu = run(&[
        D(Direct::LoadConstant, 3),
        D(Direct::LoadConstant, 4),
        O(Op::CheckSubscriptFromZero),
    ]);
    assert!(!cpu.error_flag());
    let cpu = run(&[
        D(Direct::LoadConstant, 4),
        D(Direct::LoadConstant, 4),
        O(Op::CheckSubscriptFromZero),
    ]);
    assert!(cpu.error_flag());
    // ccnt1: 1 <= B <= A.
    let cpu = run(&[
        D(Direct::LoadConstant, 0),
        D(Direct::LoadConstant, 4),
        O(Op::CheckCountFromOne),
    ]);
    assert!(cpu.error_flag());
}

#[test]
fn scheduler_register_access() {
    // sthf/stlf set the queue front pointers; savel/saveh dump them.
    let cpu = run(&[
        O(Op::MinimumInteger),
        O(Op::StoreHighFront), // empty the high queue pointer explicitly
        O(Op::MinimumInteger),
        O(Op::StoreHighBack),
        D(Direct::LoadLocalPointer, 4),
        O(Op::SaveHigh), // mem[w4..w5] := high fptr/bptr
        D(Direct::LoadLocal, 4),
    ]);
    assert_eq!(cpu.areg(), 0x8000_0000, "NotProcess in the saved slot");
}

#[test]
fn reset_channel_clears_state() {
    let cpu = run(&[
        // Make the channel word at w2 non-empty, then reset it.
        D(Direct::LoadLocalPointer, 9),
        D(Direct::StoreLocal, 2),
        D(Direct::LoadLocalPointer, 2),
        O(Op::ResetChannel),
        D(Direct::LoadLocal, 2),
    ]);
    assert_eq!(cpu.areg(), 0x8000_0000, "channel word reset to NotProcess");
}

#[test]
fn outbyte_transfers_one_byte() {
    // Two processes: B outbytes 0xAB; A inputs 1 byte.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::StoreLocal, 1)); // channel at receiver w1
    code.extend(encode(Direct::LoadLocalPointer, 8));
    code.extend(encode(Direct::LoadLocalPointer, 1));
    code.extend(encode(Direct::LoadConstant, 1));
    code.extend(encode_op(Op::InputMessage));
    code.extend(encode(Direct::LoadLocalPointer, 8));
    code.extend(encode_op(Op::LoadByte));
    code.extend(encode_op(Op::HaltSimulation));
    let sender = code.len();
    code.extend(encode(Direct::LoadConstant, 0xAB));
    code.extend(encode(Direct::LoadLocalPointer, 65)); // receiver w1 from 64 words below
    code.extend(encode_op(Op::OutputByte));
    code.extend(encode_op(Op::StopProcess));
    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).expect("fits");
    let top = cpu.default_boot_workspace();
    cpu.spawn(top, entry, Priority::Low);
    cpu.spawn(
        top.wrapping_sub(64 * 4),
        entry + sender as u32,
        Priority::Low,
    );
    cpu.run(100_000).expect("halts");
    assert_eq!(cpu.areg(), 0xAB);
}

#[test]
fn stop_on_error_blocks_only_when_error_set() {
    // Without error: stoperr is a no-op.
    let cpu = run(&[O(Op::StopOnError), D(Direct::LoadConstant, 5)]);
    assert_eq!(cpu.areg(), 5);
    // With error: the process stops -> deadlock.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = build(&[O(Op::SetError), O(Op::StopOnError)]);
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).expect("fits");
    assert_eq!(cpu.run(100_000).expect("in budget"), RunOutcome::Deadlock);
}

#[test]
fn test_processor_analysing_is_false() {
    let cpu = run(&[O(Op::TestProcessorAnalysing)]);
    assert_eq!(cpu.areg(), 0);
}

#[test]
fn halt_on_error_ops() {
    let cpu = run(&[O(Op::SetHaltOnError), O(Op::TestHaltOnError)]);
    assert_eq!(cpu.areg(), 1);
    let cpu = run(&[
        O(Op::SetHaltOnError),
        O(Op::ClearHaltOnError),
        O(Op::TestHaltOnError),
    ]);
    assert_eq!(cpu.areg(), 0);
}

#[test]
fn move_copies_blocks() {
    // Fill w8..w11 with a pattern, move 16 bytes to w16..w19.
    let mut items = Vec::new();
    for k in 0..4 {
        items.push(D(Direct::LoadConstant, 0x11 * (k + 1)));
        items.push(D(Direct::StoreLocal, 8 + k));
    }
    items.push(D(Direct::LoadLocalPointer, 16)); // dst -> C eventually
    items.push(D(Direct::LoadLocalPointer, 8)); // src
    items.push(D(Direct::LoadConstant, 16)); // count
    items.push(O(Op::Move));
    items.push(D(Direct::LoadLocal, 19));
    let cpu = run(&items);
    assert_eq!(cpu.areg(), 0x44);
}

#[test]
fn move_of_large_block_is_interruptible_but_correct() {
    // 256-byte move split across micro-steps still copies faithfully.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadLocalPointer, 100)); // dst
    code.extend(encode(Direct::LoadLocalPointer, 8)); // src
    code.extend(encode(Direct::LoadConstant, 256));
    code.extend(encode_op(Op::Move));
    code.extend(encode_op(Op::HaltSimulation));
    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).expect("fits");
    // A workspace low enough that w[100..164] stays in memory.
    let w = cpu
        .word_length()
        .align_word(cpu.memory().limit().wrapping_sub(1024));
    cpu.spawn(w, entry, Priority::Low);
    let block: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
    cpu.load(w.wrapping_add(8 * 4), &block).expect("in range");
    cpu.run(100_000).expect("halts");
    let copied = cpu
        .memory()
        .dump(w.wrapping_add(100 * 4), 256)
        .expect("in range");
    for (i, b) in copied.iter().enumerate() {
        assert_eq!(*b, (i % 251) as u8, "byte {i}");
    }
}

#[test]
fn timeslicing_shares_the_processor() {
    // Two low-priority spinners with jump loops; both accumulate after
    // the timeslice period forces sharing.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    // Each process: loop { w1 += 1; j loop } — runs forever; the test
    // stops on a cycle budget and checks both progressed.
    let top = code.len();
    code.extend(encode(Direct::LoadLocal, 1));
    code.extend(encode(Direct::AddConstant, 1));
    code.extend(encode(Direct::StoreLocal, 1));
    let dist = top as i64 - (code.len() as i64 + 2);
    code.extend(encode(Direct::Jump, dist));
    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).expect("fits");
    let w = cpu.default_boot_workspace();
    let w2 = w.wrapping_sub(64 * 4);
    cpu.spawn(w, entry, Priority::Low);
    cpu.spawn(w2, entry, Priority::Low);
    let _ = cpu.run(2_000_000);
    let c1 = cpu.inspect_word(w.wrapping_add(4)).unwrap();
    let c2 = cpu.inspect_word(w2.wrapping_add(4)).unwrap();
    assert!(c1 > 100, "first spinner ran: {c1}");
    assert!(c2 > 100, "second spinner ran (timeslicing works): {c2}");
    assert!(cpu.stats().deschedules > 2);
}

#[test]
fn division_edge_cases_set_error() {
    let cpu = run(&[
        D(Direct::LoadConstant, 5),
        D(Direct::LoadConstant, 0),
        O(Op::Divide),
    ]);
    assert!(cpu.error_flag(), "divide by zero");
    let cpu = run(&[
        O(Op::MinimumInteger),
        D(Direct::LoadConstant, -1),
        O(Op::Divide),
    ]);
    assert!(cpu.error_flag(), "MostNeg / -1 overflows");
    let cpu = run(&[
        D(Direct::LoadConstant, 5),
        D(Direct::LoadConstant, 0),
        O(Op::Remainder),
    ]);
    assert!(cpu.error_flag(), "remainder by zero");
}

#[test]
fn ldiv_overflow_sets_error() {
    let cpu = run(&[
        D(Direct::LoadConstant, 0), // low
        D(Direct::LoadConstant, 5), // high
        D(Direct::LoadConstant, 5), // divisor == high -> quotient overflow
        O(Op::LongDivide),
    ]);
    assert!(cpu.error_flag());
}

#[test]
fn product_with_zero_and_negative() {
    let cpu = run(&[
        D(Direct::LoadConstant, 1000),
        D(Direct::LoadConstant, 0),
        O(Op::Product),
    ]);
    assert_eq!(cpu.areg(), 0);
    let cpu = run(&[
        D(Direct::LoadConstant, -3),
        D(Direct::LoadConstant, 4),
        O(Op::Product),
    ]);
    assert_eq!(cpu.areg() as i32, -12, "product is modulo arithmetic");
}

#[test]
fn trace_survives_preemption() {
    // Tracing stays coherent across a low->high switch.
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.enable_trace(64);
    let mut code = Vec::new();
    // Low: multiply loop (preemptible); High: one timer wait then halt.
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
    cpu.run(1_000_000).expect("halts");
    let trace = cpu.trace().expect("enabled");
    assert!(trace.len() > 4);
    // Both processes appear in the trace (different wdescs).
    let mut descs: Vec<u32> = trace.entries().map(|e| e.wdesc).collect();
    descs.dedup();
    assert!(descs.len() >= 2, "trace shows the switch");
}
