//! E1 — §3.2.6 table 1: code bytes and cycles for the assignment
//! fragments `x := 0` and `x := y`, both as the paper's hand-written
//! sequences and as emitted by the occam compiler.

use transputer::CpuConfig;
use transputer_asm::disassemble;
use transputer_bench::expimages::{ASSIGN_CONSTANT, ASSIGN_SOURCE, ASSIGN_VARIABLE};
use transputer_bench::{asm, cells, measure_sequence, table};

fn main() {
    table::heading("E1", "assignment sequences", "§3.2.6 table 1");
    table::header(&[
        "occam",
        "sequence",
        "bytes (paper)",
        "bytes",
        "cycles (paper)",
        "cycles",
    ]);

    // x := 0 — "load constant 0 (1 byte, 1 cycle); store local x (1, 1)".
    let m = measure_sequence(CpuConfig::t424(), &asm(ASSIGN_CONSTANT));
    table::row(cells!["x := 0", "ldc 0; stl x", 2, m.bytes, 2, m.cycles]);
    let ok1 = m.bytes == 2 && m.cycles == 2;

    // x := y — "load local y (1, 2); store local x (1, 1)".
    let m = measure_sequence(CpuConfig::t424(), &asm(ASSIGN_VARIABLE));
    table::row(cells!["x := y", "ldl y; stl x", 2, m.bytes, 3, m.cycles]);
    let ok2 = m.bytes == 2 && m.cycles == 3;

    // The compiler must emit the same sequences. `x := 0` body ends with
    // ldc 0; stl <x>.
    let program = occam::compile(ASSIGN_SOURCE).expect("compiles");
    let listing = disassemble(&program.code);
    let has_pair = listing
        .windows(2)
        .any(|w| w[0].to_string().starts_with("ldl") && w[1].to_string().starts_with("stl"));
    println!();
    println!(
        "compiler output contains the paper's ldl/stl pair: {}",
        if has_pair { "yes" } else { "NO" }
    );

    table::verdict(
        ok1 && ok2 && has_pair,
        "assignment byte and cycle counts match §3.2.6 exactly",
    );
}
