//! Unit tests for the processor: instruction semantics, scheduler,
//! channels, timers and alternatives.

use super::*;
use crate::instr::{encode, encode_op, Direct, Op};
use crate::process::Priority;

/// Build a code vector from (direct, operand) pairs and operation codes.
pub(crate) fn asm(items: &[AsmItem]) -> Vec<u8> {
    let mut code = Vec::new();
    for item in items {
        match item {
            AsmItem::D(fun, operand) => {
                code.extend(encode(*fun, *operand));
            }
            AsmItem::O(op) => code.extend(encode_op(*op)),
        }
    }
    code
}

pub(crate) enum AsmItem {
    D(Direct, i64),
    O(Op),
}

use AsmItem::{D, O};

fn run_program(items: &[AsmItem]) -> Cpu {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = asm(items);
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).expect("program fits");
    cpu.run_to_halt(1_000_000).expect("halts");
    cpu
}

#[test]
fn load_constant_and_add() {
    let cpu = run_program(&[D(Direct::LoadConstant, 5), D(Direct::AddConstant, 7)]);
    assert_eq!(cpu.areg(), 12);
}

#[test]
fn prefix_builds_754() {
    // Figure 5 of the paper: prefix #7, prefix #5, load constant #4.
    let cpu = run_program(&[D(Direct::LoadConstant, 0x754)]);
    assert_eq!(cpu.areg(), 0x754);
    assert_eq!(cpu.oreg(), 0, "operand register clears after use");
}

#[test]
fn negative_prefix() {
    let cpu = run_program(&[D(Direct::LoadConstant, -1)]);
    assert_eq!(cpu.areg(), 0xFFFF_FFFF);
    let cpu = run_program(&[D(Direct::LoadConstant, -256)]);
    assert_eq!(cpu.areg() as i32, -256);
}

#[test]
fn store_and_load_local() {
    // x := 0; x := x + 2 via locals (offset 1).
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0),
        D(Direct::StoreLocal, 1),
        D(Direct::LoadLocal, 1),
        D(Direct::AddConstant, 2),
        D(Direct::StoreLocal, 1),
        D(Direct::LoadLocal, 1),
    ]);
    assert_eq!(cpu.areg(), 2);
}

#[test]
fn evaluation_stack_pushes_and_pops() {
    // (v + w) * (y + z) with constants: (3+4)*(5+6) = 77 (§3.2.9).
    let cpu = run_program(&[
        D(Direct::LoadConstant, 3),
        D(Direct::LoadConstant, 4),
        O(Op::Add),
        D(Direct::LoadConstant, 5),
        D(Direct::LoadConstant, 6),
        O(Op::Add),
        O(Op::Multiply),
    ]);
    assert_eq!(cpu.areg(), 77);
}

#[test]
fn multiply_cycle_count_matches_paper() {
    // §3.2.9: multiply takes 7 + wordlength cycles and 2 bytes.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = asm(&[D(Direct::LoadConstant, 3), D(Direct::LoadConstant, 4)]);
    let pre = code.len();
    code.extend(encode_op(Op::Multiply));
    assert_eq!(code.len() - pre, 2, "multiply encodes in 2 bytes");
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).unwrap();
    // Step until the two loads complete (1 cycle each).
    cpu.run_to_halt(1_000).unwrap();
    // ldc+ldc = 2 cycles; mul = 39; halt op (3 bytes = 2 prefixes + opr) = 3.
    assert_eq!(cpu.cycles(), 2 + 39 + 3);
}

#[test]
fn arithmetic_ops() {
    let cpu = run_program(&[
        D(Direct::LoadConstant, 10),
        D(Direct::LoadConstant, 3),
        O(Op::Subtract),
    ]);
    assert_eq!(cpu.areg(), 7);
    let cpu = run_program(&[
        D(Direct::LoadConstant, 10),
        D(Direct::LoadConstant, 3),
        O(Op::Divide),
    ]);
    assert_eq!(cpu.areg(), 3);
    let cpu = run_program(&[
        D(Direct::LoadConstant, 10),
        D(Direct::LoadConstant, 3),
        O(Op::Remainder),
    ]);
    assert_eq!(cpu.areg(), 1);
    let cpu = run_program(&[
        D(Direct::LoadConstant, -10),
        D(Direct::LoadConstant, 3),
        O(Op::Divide),
    ]);
    assert_eq!(cpu.areg() as i32, -3, "division truncates toward zero");
    let cpu = run_program(&[
        D(Direct::LoadConstant, 6),
        D(Direct::LoadConstant, 7),
        O(Op::Product),
    ]);
    assert_eq!(cpu.areg(), 42);
}

#[test]
fn logical_ops() {
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0b1100),
        D(Direct::LoadConstant, 0b1010),
        O(Op::And),
    ]);
    assert_eq!(cpu.areg(), 0b1000);
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0b1100),
        D(Direct::LoadConstant, 0b1010),
        O(Op::Or),
    ]);
    assert_eq!(cpu.areg(), 0b1110);
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0b1100),
        D(Direct::LoadConstant, 0b1010),
        O(Op::ExclusiveOr),
    ]);
    assert_eq!(cpu.areg(), 0b0110);
    let cpu = run_program(&[D(Direct::LoadConstant, 0), O(Op::Not)]);
    assert_eq!(cpu.areg(), 0xFFFF_FFFF);
}

#[test]
fn shifts() {
    let cpu = run_program(&[
        D(Direct::LoadConstant, 1),
        D(Direct::LoadConstant, 4),
        O(Op::ShiftLeft),
    ]);
    assert_eq!(cpu.areg(), 16);
    let cpu = run_program(&[
        D(Direct::LoadConstant, 16),
        D(Direct::LoadConstant, 4),
        O(Op::ShiftRight),
    ]);
    assert_eq!(cpu.areg(), 1);
    // Shifting by >= wordlength yields zero.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 1),
        D(Direct::LoadConstant, 40),
        O(Op::ShiftLeft),
    ]);
    assert_eq!(cpu.areg(), 0);
}

#[test]
fn comparisons() {
    let cpu = run_program(&[
        D(Direct::LoadConstant, 3),
        D(Direct::LoadConstant, 2),
        O(Op::GreaterThan),
    ]);
    assert_eq!(cpu.areg(), 1, "3 > 2");
    let cpu = run_program(&[
        D(Direct::LoadConstant, 2),
        D(Direct::LoadConstant, 3),
        O(Op::GreaterThan),
    ]);
    assert_eq!(cpu.areg(), 0);
    let cpu = run_program(&[D(Direct::LoadConstant, 7), D(Direct::EqualsConstant, 7)]);
    assert_eq!(cpu.areg(), 1);
    let cpu = run_program(&[D(Direct::LoadConstant, 7), D(Direct::EqualsConstant, 8)]);
    assert_eq!(cpu.areg(), 0);
}

#[test]
fn jump_and_conditional_jump() {
    // j over an instruction that would clobber A.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 9),
        D(Direct::Jump, 1), // skip the ldc 0 (1 byte)
        D(Direct::LoadConstant, 0),
    ]);
    assert_eq!(cpu.areg(), 9);
    // cj taken when A == 0; stack preserved.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0),
        D(Direct::ConditionalJump, 1),
        D(Direct::LoadConstant, 5),
    ]);
    assert_eq!(cpu.areg(), 0, "taken jump leaves the stack unchanged");
    // cj not taken pops A.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 3),
        D(Direct::LoadConstant, 1),
        D(Direct::ConditionalJump, 1),
        D(Direct::LoadConstant, 5),
    ]);
    assert_eq!(cpu.areg(), 5);
    assert_eq!(cpu.breg(), 3, "not-taken cj popped the condition");
}

#[test]
fn call_and_return() {
    // call +1 skips a 1-byte instruction; callee returns; caller loads 4.
    // Layout: ldc 1; call L; ldc 4; halt; L: ret
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadConstant, 1));
    // call over `ldc 4; opr halt` = 1 + 3 bytes = 4.
    code.extend(encode(Direct::Call, 4));
    code.extend(encode(Direct::LoadConstant, 4));
    code.extend(encode_op(Op::HaltSimulation));
    code.extend(encode_op(Op::Return));
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&code).unwrap();
    cpu.run_to_halt(10_000).unwrap();
    assert_eq!(cpu.areg(), 4);
}

#[test]
fn call_saves_abc_in_frame() {
    // Callee reads its parameters from w[1..3] (call saved A, B, C).
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadConstant, 11)); // -> C
    code.extend(encode(Direct::LoadConstant, 22)); // -> B
    code.extend(encode(Direct::LoadConstant, 33)); // -> A
    code.extend(encode(Direct::Call, 4));
    code.extend(encode(Direct::LoadConstant, 0)); // skipped by callee halt path
    code.extend(encode_op(Op::HaltSimulation));
    // Callee: A := w[1] + w[2] + w[3]; halt.
    code.extend(encode(Direct::LoadLocal, 1)); // 33
    code.extend(encode(Direct::LoadLocal, 2)); // 22
    code.extend(encode_op(Op::Add));
    code.extend(encode(Direct::LoadLocal, 3)); // 11
    code.extend(encode_op(Op::Add));
    code.extend(encode_op(Op::HaltSimulation));
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&code).unwrap();
    cpu.run_to_halt(10_000).unwrap();
    assert_eq!(cpu.areg(), 66);
}

#[test]
fn workspace_pointer_ops() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let code = asm(&[
        D(Direct::AdjustWorkspace, -4),
        D(Direct::LoadLocalPointer, 0),
        AsmItem::O(Op::HaltSimulation),
    ]);
    cpu.load_boot_program(&code).unwrap();
    let w0 = cpu.default_boot_workspace();
    cpu.run_to_halt(10_000).unwrap();
    assert_eq!(cpu.areg(), w0.wrapping_sub(16));
}

#[test]
fn non_local_access() {
    // Store 99 through a pointer: ldlp 8 (addr); ldc 99 under it via rev.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 99),
        D(Direct::LoadLocalPointer, 8),
        O(Op::Reverse),
        O(Op::Reverse),
        D(Direct::StoreNonLocal, 0), // mem[w8] := 99
        D(Direct::LoadLocal, 8),
    ]);
    assert_eq!(cpu.areg(), 99);
}

#[test]
fn byte_access() {
    let cpu = run_program(&[
        D(Direct::LoadLocalPointer, 2),
        D(Direct::LoadConstant, 0xAB),
        O(Op::Reverse),
        O(Op::StoreByte), // mem byte[w2] := 0xAB
        D(Direct::LoadLocalPointer, 2),
        O(Op::LoadByte),
    ]);
    assert_eq!(cpu.areg(), 0xAB);
}

#[test]
fn subscript_ops() {
    let cpu = run_program(&[
        D(Direct::LoadLocalPointer, 0),
        D(Direct::LoadConstant, 3),
        O(Op::WordSubscript),
        D(Direct::LoadLocalPointer, 3),
        O(Op::GreaterThan),
    ]);
    // wsub gave w0 + 3 words == ldlp 3.
    assert_eq!(cpu.areg(), 0, "equal pointers: not greater");
    let cpu = run_program(&[D(Direct::LoadConstant, 5), O(Op::ByteCount)]);
    assert_eq!(cpu.areg(), 20);
    let cpu = run_program(&[
        D(Direct::LoadConstant, 100),
        D(Direct::LoadConstant, 7),
        O(Op::ByteSubscript),
    ]);
    assert_eq!(cpu.areg(), 107);
}

#[test]
fn mint_pushes_most_neg() {
    let cpu = run_program(&[O(Op::MinimumInteger)]);
    assert_eq!(cpu.areg(), 0x8000_0000);
}

#[test]
fn error_flag_on_overflow() {
    let cpu = run_program(&[
        O(Op::MinimumInteger),
        D(Direct::AddConstant, -1), // MostNeg - 1 overflows
    ]);
    assert!(cpu.error_flag());
    // Modulo arithmetic does not set the flag.
    let cpu = run_program(&[
        O(Op::MinimumInteger),
        D(Direct::LoadConstant, -1),
        O(Op::Sum),
    ]);
    assert!(!cpu.error_flag());
}

#[test]
fn halt_on_error_mode() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = asm(&[O(Op::SetHaltOnError), O(Op::SetError)]);
    code.extend(encode_op(Op::HaltSimulation));
    cpu.load_boot_program(&code).unwrap();
    match cpu.run(10_000).unwrap() {
        RunOutcome::Halted(HaltReason::ErrorFlag) => {}
        other => panic!("expected error halt, got {other:?}"),
    }
}

#[test]
fn testerr_reads_and_clears() {
    let cpu = run_program(&[O(Op::SetError), O(Op::TestError)]);
    assert_eq!(cpu.areg(), 0, "error was set: testerr pushes false");
    assert!(!cpu.error_flag(), "testerr clears the flag");
}

#[test]
fn internal_channel_communication() {
    // Two processes: producer outputs a word to an internal channel,
    // consumer inputs it, stores it, halts.
    //
    // Memory plan (word offsets from the boot workspace):
    //   channel word at w[10], result at w[11], child workspace below.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let w = cpu.default_boot_workspace();
    let chan = w.wrapping_add(10 * 4);
    let bpw = 4u32;

    // Parent (consumer): init channel, start child, input, store, halt.
    let mut code = Vec::new();
    code.extend(encode_op(Op::MinimumInteger));
    code.extend(encode(Direct::StoreLocal, 10)); // chan := NotProcess
                                                 // start child: code offset (B), workspace 32 words below (A).
    let startp_operand_pos = code.len();
    code.extend(encode(Direct::LoadConstant, 0)); // patched below
    code.extend(encode(Direct::LoadLocalPointer, -32));
    code.extend(encode_op(Op::StartProcess));
    // input: ldlp 11 (dest); ldlp 10 (chan addr); ldc 4; in
    code.extend(encode(Direct::LoadLocalPointer, 11));
    code.extend(encode(Direct::LoadLocalPointer, 10));
    code.extend(encode(Direct::LoadConstant, 4));
    code.extend(encode_op(Op::InputMessage));
    code.extend(encode(Direct::LoadLocal, 11));
    code.extend(encode_op(Op::HaltSimulation));
    let child_entry = code.len();
    // Child (producer): outword 1234 on the channel.
    // Child workspace is 32 words below parent: channel is at its w[42].
    code.extend(encode(Direct::LoadConstant, 1234));
    code.extend(encode(Direct::LoadLocalPointer, 42));
    code.extend(encode_op(Op::OutputWord));
    code.extend(encode_op(Op::StopProcess));

    // Patch the child code offset: distance from after startp to entry.
    // Re-assemble with the correct constant (encoding width can change).
    let mut final_code = Vec::new();
    let mut delta = 0i64;
    loop {
        final_code.clear();
        final_code.extend_from_slice(&code[..startp_operand_pos]);
        let before = final_code.len();
        final_code.extend(encode(Direct::LoadConstant, delta));
        let enc_len = final_code.len() - before;
        final_code.extend_from_slice(&code[startp_operand_pos + 1..]);
        // startp offset counts from the instruction after startp:
        // ldc (enc_len) + ldlp -32 (2 bytes) + startp (1 byte).
        let startp_end = startp_operand_pos + enc_len + 2 + 1;
        let entry = child_entry + enc_len - 1;
        let need = (entry - startp_end) as i64;
        if need == delta {
            break;
        }
        delta = need;
    }

    cpu.load_boot_program(&final_code).unwrap();
    let _ = chan;
    let _ = bpw;
    cpu.run_to_halt(100_000).unwrap();
    assert_eq!(cpu.areg(), 1234);
    assert_eq!(cpu.stats().messages, 1);
    assert_eq!(cpu.stats().message_bytes, 4);
}

#[test]
fn timer_input_waits() {
    // Read the clock, wait 5 ticks, read again.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let code = asm(&[
        O(Op::LoadTimer),
        D(Direct::StoreLocal, 1),
        D(Direct::LoadLocal, 1),
        D(Direct::AddConstant, 5),
        O(Op::TimerInput),
        O(Op::LoadTimer),
        D(Direct::StoreLocal, 2),
        D(Direct::LoadLocal, 2),
        D(Direct::LoadLocal, 1),
        O(Op::Difference),
        AsmItem::O(Op::HaltSimulation),
    ]);
    cpu.load_boot_program(&code).unwrap();
    cpu.run_to_halt(10_000_000).unwrap();
    let elapsed = cpu.areg();
    assert!(elapsed >= 5, "waited at least 5 ticks, got {elapsed}");
    assert!(elapsed <= 7, "woke promptly, got {elapsed}");
}

#[test]
fn sttimer_sets_clock() {
    let cpu = run_program(&[
        D(Direct::LoadConstant, 100),
        O(Op::StoreTimer),
        O(Op::LoadTimer),
    ]);
    assert!(cpu.areg() >= 100 && cpu.areg() < 110);
}

#[test]
fn start_process_runs_concurrently() {
    // Parent spawns child; child stores 7 into parent's w[5]; parent
    // busy-waits on w[5] then halts. Exercises the scheduler round-robin.
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadConstant, 0));
    code.extend(encode(Direct::StoreLocal, 5));
    // Child code offset (B) loaded first, then the workspace (A).
    let pos = code.len();
    code.extend(encode(Direct::LoadConstant, 0));
    code.extend(encode(Direct::LoadLocalPointer, -32));
    code.extend(encode_op(Op::StartProcess));
    let loop_start = code.len();
    // loop: ldl 5; if zero jump (over the halt) to the backwards j, which
    // is a timeslice point and lets the child run; nonzero falls to halt.
    code.extend(encode(Direct::LoadLocal, 5));
    code.extend(encode(Direct::ConditionalJump, 3)); // skip 3-byte halt
    code.extend(encode_op(Op::HaltSimulation));
    let back = loop_start as i64 - (code.len() as i64 + 2);
    code.extend(encode(Direct::Jump, back));
    assert_eq!(code.len() - loop_start, 7, "layout assumption");
    let child_entry = code.len();
    // Child: parent w[5] is child w[37] (child 32 words below).
    code.extend(encode(Direct::LoadConstant, 7));
    code.extend(encode(Direct::StoreLocal, 37));
    code.extend(encode_op(Op::StopProcess));
    // Patch child offset.
    let after_startp = pos + 1 + 2 + 1; // ldc + ldlp -32 + startp
    let delta = (child_entry - after_startp) as i64;
    assert!(delta < 16, "offset must fit a single nibble for this test");
    code[pos] = 0x40 | (delta as u8);

    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&code).unwrap();
    cpu.run_to_halt(1_000_000).unwrap();
    assert!(cpu.stats().dispatches >= 2);
}

#[test]
fn deadlock_detected() {
    // A single process inputting from an empty internal channel with no
    // partner deadlocks.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let code = asm(&[
        O(Op::MinimumInteger),
        D(Direct::StoreLocal, 3),
        D(Direct::LoadLocalPointer, 4),
        D(Direct::LoadLocalPointer, 3),
        D(Direct::LoadConstant, 4),
        O(Op::InputMessage),
    ]);
    cpu.load_boot_program(&code).unwrap();
    assert_eq!(cpu.run(100_000).unwrap(), RunOutcome::Deadlock);
}

#[test]
fn illegal_opcode_halts() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    // opr 0x11 is undefined in the first-generation set.
    let code = vec![0x21, 0xF1];
    cpu.load_boot_program(&code).unwrap();
    match cpu.run(1_000).unwrap() {
        RunOutcome::Halted(HaltReason::IllegalInstruction { opcode: 0x11 }) => {}
        other => panic!("expected illegal instruction, got {other:?}"),
    }
}

#[test]
fn memory_fault_halts() {
    let mut cpu = Cpu::new(CpuConfig::t424());
    // Load from address 0 (the middle of the signed space, far outside
    // a 4K+60K part).
    let code = asm(&[D(Direct::LoadConstant, 0), D(Direct::LoadNonLocal, 0)]);
    cpu.load_boot_program(&code).unwrap();
    match cpu.run(1_000).unwrap() {
        RunOutcome::Halted(HaltReason::MemoryFault { .. }) => {}
        other => panic!("expected memory fault, got {other:?}"),
    }
}

#[test]
fn long_arithmetic() {
    // lmul: 0xFFFF_FFFF * 2 = 0x1_FFFF_FFFE.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0),  // carry in -> C after loads? order: c,b,a
        D(Direct::LoadConstant, -1), // b
        D(Direct::LoadConstant, 2),  // a
        O(Op::LongMultiply),
    ]);
    assert_eq!(cpu.areg(), 0xFFFF_FFFE, "low word");
    assert_eq!(cpu.breg(), 1, "high word");

    // lsum with carry out.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 1),  // carry in (C)
        D(Direct::LoadConstant, -1), // B
        D(Direct::LoadConstant, 0),  // A
        O(Op::LongSum),
    ]);
    assert_eq!(cpu.areg(), 0, "low");
    assert_eq!(cpu.breg(), 1, "carry out");

    // ldiv: (1:0) / 2 = 0x8000_0000 rem 0.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0), // low (C)
        D(Direct::LoadConstant, 1), // high (B)
        D(Direct::LoadConstant, 2), // divisor (A)
        O(Op::LongDivide),
    ]);
    assert_eq!(cpu.areg(), 0x8000_0000);
    assert_eq!(cpu.breg(), 0);
}

#[test]
fn normalise() {
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0), // high = 0 (ends in B)
        D(Direct::LoadConstant, 1), // low = 1 (ends in A)
        O(Op::Normalise),
    ]);
    // (0:1) normalised: 63 places, high = 0x8000_0000.
    assert_eq!(cpu.creg(), 63);
    assert_eq!(cpu.breg(), 0x8000_0000);
    assert_eq!(cpu.areg(), 0);
}

#[test]
fn extend_word_sign() {
    // xword with sign bit 0x80: 0xFF -> -1.
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0xFF),
        D(Direct::LoadConstant, 0x80),
        O(Op::ExtendWord),
    ]);
    assert_eq!(cpu.areg() as i32, -1);
    let cpu = run_program(&[
        D(Direct::LoadConstant, 0x7F),
        D(Direct::LoadConstant, 0x80),
        O(Op::ExtendWord),
    ]);
    assert_eq!(cpu.areg(), 0x7F);
}

#[test]
fn loop_end_counts() {
    // REPL control block at w[1],w[2]: index := 0, count := 5; loop body
    // increments w[3]; lend jumps back.
    let mut code = Vec::new();
    code.extend(encode(Direct::LoadConstant, 0));
    code.extend(encode(Direct::StoreLocal, 1)); // index
    code.extend(encode(Direct::LoadConstant, 5));
    code.extend(encode(Direct::StoreLocal, 2)); // count
    code.extend(encode(Direct::LoadConstant, 0));
    code.extend(encode(Direct::StoreLocal, 3)); // accumulator
    let body = code.len();
    code.extend(encode(Direct::LoadLocal, 3));
    code.extend(encode(Direct::AddConstant, 1));
    code.extend(encode(Direct::StoreLocal, 3));
    code.extend(encode(Direct::LoadLocalPointer, 1)); // control block
                                                      // distance back: from after lend to body. lend is 2 bytes (pfix+opr).
                                                      // ldc distance encodes in 1 byte if < 16.
    let distance = (code.len() + 1 + 2) - body;
    code.extend(encode(Direct::LoadConstant, distance as i64));
    code.extend(encode_op(Op::LoopEnd));
    assert!(distance < 16);
    code.extend(encode(Direct::LoadLocal, 3));
    code.extend(encode_op(Op::HaltSimulation));
    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&code).unwrap();
    cpu.run_to_halt(100_000).unwrap();
    assert_eq!(cpu.areg(), 5, "loop body ran 5 times");
    // Index word advanced to 4 (0-based, incremented 4 times).
    let w = cpu.default_boot_workspace();
    let idx = cpu.inspect_word(w.wrapping_add(4)).unwrap();
    assert_eq!(idx, 4);
}

#[test]
fn stats_count_operations_and_lengths() {
    let cpu = run_program(&[D(Direct::LoadConstant, 5), D(Direct::LoadConstant, 0x754)]);
    let s = cpu.stats();
    // ldc 5 (1 byte), ldc #754 (3 bytes), halt (3 bytes).
    assert_eq!(s.operations, 3);
    assert_eq!(s.instructions, 7);
    assert_eq!(s.length_histogram[1], 1);
    assert_eq!(s.length_histogram[3], 2);
}

#[test]
fn spawn_at_both_priorities() {
    // A high-priority process runs before a low-priority one.
    let mut cpu = Cpu::new(CpuConfig::t424());
    // Code: store marker then halt (for hi); lo: store other marker, halt.
    let mut code = Vec::new();
    // hi at entry: ldc 1; stl 1; stopp
    code.extend(encode(Direct::LoadConstant, 1));
    code.extend(encode(Direct::StoreLocal, 1));
    code.extend(encode_op(Op::StopProcess));
    let lo_entry = code.len();
    code.extend(encode(Direct::LoadConstant, 2));
    code.extend(encode(Direct::StoreLocal, 1));
    code.extend(encode_op(Op::HaltSimulation));
    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).unwrap();
    let wtop = cpu.default_boot_workspace();
    let w_hi = wtop;
    let w_lo = wtop.wrapping_sub(64);
    cpu.spawn(w_lo, entry + lo_entry as u32, Priority::Low);
    cpu.spawn(w_hi, entry, Priority::High);
    cpu.run_to_halt(100_000).unwrap();
    // Low priority halted last; its marker is in ITS workspace.
    let hi_marker = cpu.inspect_word(w_hi.wrapping_add(4)).unwrap();
    let lo_marker = cpu.inspect_word(w_lo.wrapping_add(4)).unwrap();
    assert_eq!(hi_marker, 1);
    assert_eq!(lo_marker, 2);
    assert!(cpu.stats().dispatches >= 2);
}

fn on_chip_only(bytes: u32) -> MemoryConfig {
    MemoryConfig {
        on_chip_bytes: bytes,
        off_chip_bytes: 0,
        off_chip_penalty: 0,
    }
}

/// The smallest memory a processor takes is its reserved words, each
/// set up empty: 72 bytes on the T424, 36 on the T222.
#[test]
fn the_reserved_words_are_the_smallest_memory() {
    for config in [
        CpuConfig::t424().with_memory(on_chip_only(72)),
        CpuConfig::t222().with_memory(on_chip_only(36)),
    ] {
        let cpu = Cpu::new(config);
        let last = cpu
            .memory()
            .reserved_addr(crate::memory::RESERVED_WORDS - 1);
        assert_eq!(cpu.memory().limit(), cpu.memory().mem_start());
        assert_eq!(cpu.inspect_word(last), Ok(cpu.magic.not_process));
    }
}

#[test]
#[should_panic(
    expected = "a 64-byte memory cannot hold the reserved words: the minimum is 72 bytes"
)]
fn a_t424_memory_below_its_reserved_words_is_refused() {
    Cpu::new(CpuConfig::t424().with_memory(on_chip_only(64)));
}

#[test]
#[should_panic(
    expected = "a 34-byte memory cannot hold the reserved words: the minimum is 36 bytes"
)]
fn a_t222_memory_below_its_reserved_words_is_refused() {
    Cpu::new(CpuConfig::t222().with_memory(on_chip_only(34)));
}

/// A boot program may fill memory up to the boot workspace's scheduling
/// words, `w[-1]` to `w[-5]`, and no further: on the default 64 KB map
/// that is 65 188 bytes on the T424 (18 reserved words below, 64 words
/// of workspace above) and 65 362 on the T222. At the bound the program
/// loads whole and `spawn`'s `Iptr` lands above it; a byte more is
/// refused as too large, naming the room, and no process starts. A
/// memory too small for the boot workspace has no room at all.
#[test]
fn a_boot_program_stops_short_of_the_boot_workspace() {
    for bytes in [256, 300] {
        let mut cpu = Cpu::new(CpuConfig::t424().with_memory(on_chip_only(bytes)));
        assert_eq!(
            cpu.load_boot_program(&[]),
            Err(CpuError::ProgramTooLarge {
                program: 0,
                memory: 0,
            }),
            "{bytes} bytes"
        );
    }
    for (config, room) in [(CpuConfig::t424(), 65_188), (CpuConfig::t222(), 65_362)] {
        let code: Vec<u8> = (0..room).map(|i| (i % 251) as u8).collect();
        let mut cpu = Cpu::new(config.clone());
        cpu.load_boot_program(&code).expect("fits");
        let entry = cpu.memory().mem_start();
        assert_eq!(cpu.memory().dump(entry, room).unwrap(), code);
        let wptr = cpu.default_boot_workspace();
        let iptr_loc = workspace_word(cpu.word_length(), wptr, PW_IPTR);
        assert_eq!(cpu.inspect_word(iptr_loc).unwrap(), entry);

        let mut cpu = Cpu::new(config);
        assert_eq!(
            cpu.load_boot_program(&vec![0; room + 1]),
            Err(CpuError::ProgramTooLarge {
                program: room + 1,
                memory: room,
            })
        );
        assert!(cpu.is_idle(), "no process started");
    }
}

#[test]
fn preemption_latency_is_bounded() {
    // Low-priority process spins on multiplies (the longest instruction);
    // a high-priority process waits on a timer; every wake must be
    // dispatched within the paper's 58-cycle bound.
    let mut cpu = Cpu::new(CpuConfig::t424());
    let mut code = Vec::new();
    // Low priority at entry: endless multiply loop.
    let lo_entry = 0usize;
    code.extend(encode(Direct::LoadConstant, 3));
    code.extend(encode(Direct::LoadConstant, 3));
    code.extend(encode_op(Op::Multiply));
    code.extend(encode(Direct::StoreLocal, 1));
    // jump back: distance from after j to loop start. j is 2 bytes here.
    let dist = -((code.len() as i64) + 2 - lo_entry as i64);
    code.extend(encode(Direct::Jump, dist));
    let hi_entry = code.len();
    // High priority: 50 timer waits of 2 ticks each, then halt.
    code.extend(encode(Direct::LoadConstant, 50));
    code.extend(encode(Direct::StoreLocal, 2));
    let loop_top = code.len();
    code.extend(encode_op(Op::LoadTimer));
    code.extend(encode(Direct::AddConstant, 2));
    code.extend(encode_op(Op::TimerInput));
    code.extend(encode(Direct::LoadLocal, 2));
    code.extend(encode(Direct::AddConstant, -1));
    code.extend(encode(Direct::StoreLocal, 2));
    code.extend(encode(Direct::LoadLocal, 2));
    // cj to halt if zero: forward over the backwards jump (2 bytes).
    code.extend(encode(Direct::ConditionalJump, 2));
    let dist2 = -((code.len() as i64) + 2 - loop_top as i64);
    code.extend(encode(Direct::Jump, dist2));
    code.extend(encode_op(Op::HaltSimulation));

    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).unwrap();
    let wtop = cpu.default_boot_workspace();
    cpu.spawn(wtop, entry + lo_entry as u32, Priority::Low);
    cpu.spawn(
        wtop.wrapping_sub(128),
        entry + hi_entry as u32,
        Priority::High,
    );
    cpu.run_to_halt(10_000_000).unwrap();
    let s = cpu.stats();
    assert!(
        s.preemptions >= 40,
        "expected many preemptions, got {}",
        s.preemptions
    );
    assert!(
        s.max_preempt_latency <= u64::from(crate::timing::PRIORITY_RAISE_MAX),
        "latency {} exceeds the paper's 58-cycle bound",
        s.max_preempt_latency
    );
    assert!(s.priority_lowerings >= 40);
}

#[test]
fn word16_behaves_identically_for_word_independent_code() {
    // §3.3: word-length independence.
    let prog = |cpu: &mut Cpu| {
        let code = asm(&[
            D(Direct::LoadConstant, 100),
            D(Direct::LoadConstant, 17),
            O(Op::Add),
            D(Direct::LoadConstant, 3),
            O(Op::Multiply),
            AsmItem::O(Op::HaltSimulation),
        ]);
        cpu.load_boot_program(&code).unwrap();
        cpu.run_to_halt(100_000).unwrap();
        cpu.areg()
    };
    let mut c32 = Cpu::new(CpuConfig::t424());
    let mut c16 = Cpu::new(CpuConfig::t222());
    assert_eq!(prog(&mut c32), prog(&mut c16));
    assert_eq!(prog(&mut c32), 351);
}
