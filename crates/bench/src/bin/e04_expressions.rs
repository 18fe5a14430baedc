//! E4 — §3.2.9 table: expression evaluation on the three-register stack.
//! `x + 2` (2 bytes, 3 cycles) and `(v + w) * (y + z)` (8 bytes,
//! 11 + multiply = 11 + (7 + wordlength) cycles with the final multiply
//! sequence taking 2 bytes and 7+wordlength cycles).

use transputer::{timing, CpuConfig, WordLength};
use transputer_asm::disassemble;
use transputer_bench::expimages::{ADD_CONSTANT, ADD_CONSTANT_SOURCE, EXPRESSION};
use transputer_bench::{asm, cells, measure_sequence, table};

fn main() {
    table::heading("E4", "expression evaluation", "§3.2.9 table");
    table::header(&[
        "occam",
        "sequence",
        "bytes (paper)",
        "bytes",
        "cycles (paper)",
        "cycles",
    ]);

    // x + 2: load local x (1 byte, 2 cycles); add constant 2 (1, 1).
    let m = measure_sequence(CpuConfig::t424(), &asm(ADD_CONSTANT));
    table::row(cells!["x + 2", "ldl x; adc 2", 2, m.bytes, 3, m.cycles]);
    let ok1 = m.bytes == 2 && m.cycles == 3;

    // (v + w) * (y + z): four loads (2 cycles each), two adds (1 each),
    // multiply (2 bytes, 7 + wordlength cycles).
    let m32 = measure_sequence(CpuConfig::t424(), &asm(EXPRESSION));
    let paper32 = 4 * 2 + 2 + u64::from(timing::multiply_sequence_cycles(WordLength::Bits32));
    table::row(cells![
        "(v+w)*(y+z) [32-bit]",
        "4×ldl, 2×add, mul",
        8,
        m32.bytes,
        paper32,
        m32.cycles
    ]);
    let ok2 = m32.bytes == 8 && m32.cycles == paper32;

    let m16 = measure_sequence(CpuConfig::t222(), &asm(EXPRESSION));
    let paper16 = 4 * 2 + 2 + u64::from(timing::multiply_sequence_cycles(WordLength::Bits16));
    table::row(cells![
        "(v+w)*(y+z) [16-bit]",
        "4×ldl, 2×add, mul",
        8,
        m16.bytes,
        paper16,
        m16.cycles
    ]);
    let ok3 = m16.cycles == paper16;

    // Multiply alone: 2 bytes, 7 + wordlength cycles.
    println!();
    println!(
        "multiply sequence: 2 bytes, 7 + wordlength = {} cycles (32-bit), {} cycles (16-bit)",
        timing::multiply_sequence_cycles(WordLength::Bits32),
        timing::multiply_sequence_cycles(WordLength::Bits16),
    );

    // The occam compiler's output for x + 2 is the paper's sequence.
    let program = occam::compile(ADD_CONSTANT_SOURCE).expect("compiles");
    let has_adc = disassemble(&program.code)
        .windows(2)
        .any(|w| w[0].to_string().starts_with("ldl") && w[1].to_string() == "adc 2");
    println!(
        "compiler emits ldl x; adc 2 for `x + 2`: {}",
        if has_adc { "yes" } else { "NO" }
    );

    table::verdict(
        ok1 && ok2 && ok3 && has_adc,
        "expression byte/cycle counts match §3.2.9, including multiply = 7 + wordlength",
    );
}
