//! E13 — §3.2.1: "Many of the instructions execute in a single cycle,
//! and typical sequences of commonly used instructions can deliver a
//! 15 MIPS execution rate" (at the expected 20 MHz internal clock).
//!
//! Measures instructions per cycle over the occam corpus; MIPS at 20 MHz
//! = instructions × 20e6 / cycles.

use transputer::CpuConfig;
use transputer_bench::expimages::typical_sequence;
use transputer_bench::{asm, cells, corpus, measure_sequence, run_occam, table};

fn main() {
    table::heading(
        "E13",
        "execution rate",
        "§3.2.1: \"a 15 MIPS execution rate\" at 20 MHz",
    );

    // "Typical sequences of commonly used instructions": the
    // load/modify/store pattern of sequential code. ldl (2 cycles) +
    // adc (1) + stl (1) = 3 instructions in 4 cycles = exactly 15 MIPS
    // at 20 MHz.
    let m = measure_sequence(CpuConfig::t424(), &asm(&typical_sequence()));
    let typical_mips = 300.0 * 20.0 / m.cycles as f64;
    println!(
        "typical sequence (ldl; adc; stl ×100): {} instructions in {} cycles = {:.1} MIPS at 20 MHz\n",
        300, m.cycles, typical_mips
    );

    table::header(&[
        "program",
        "instructions",
        "cycles",
        "cycles/instr",
        "MIPS @ 20 MHz",
    ]);
    let mut ti = 0u64;
    let mut tc = 0u64;
    for item in corpus::CORPUS {
        let (_, cpu, _) = run_occam(item.source, CpuConfig::t424());
        let s = cpu.stats();
        let cycles = cpu.cycles();
        table::row(cells![
            item.name,
            s.instructions,
            cycles,
            format!("{:.2}", s.cycles_per_instruction(cycles)),
            format!("{:.1}", s.mips(cycles, 20.0))
        ]);
        ti += s.instructions;
        tc += cycles;
    }
    let mips = ti as f64 * 20.0 / tc as f64;
    table::row(cells![
        "ALL",
        ti,
        tc,
        format!("{:.2}", tc as f64 / ti as f64),
        format!("{mips:.1}")
    ]);
    println!();
    println!(
        "the paper's \"typical sequences of commonly used instructions\" — \
         load/modify/store — deliver {typical_mips:.1} MIPS; whole programs \
         average {mips:.1} MIPS, pulled below the mark by 38-cycle multiplies \
         and above it by single-cycle constant/jump code."
    );

    table::verdict(
        (14.5..=15.5).contains(&typical_mips) && (6.0..=20.0).contains(&mips),
        "typical load/modify/store sequences deliver the paper's 15 MIPS at 20 MHz",
    );
}
