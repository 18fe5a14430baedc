//! # transputer-bench
//!
//! The experiment harness: one binary per table/figure of the ISCA 1985
//! paper (see DESIGN.md's experiment index), the design-choice
//! ablations, and `hostperf`, which writes the exact ledger
//! `BENCH_host.json`. Every number this crate produces is a simulated
//! quantity or a count; nothing in it reads a clock (host cost is
//! measured by `benchmark/`). Shared here: exact sequence measurement,
//! the occam workload corpus, table printing and the JSON writer.

#![forbid(unsafe_code)]

use transputer::{Cpu, CpuConfig, StepEvent};

pub mod ablations;
pub mod corpus;
pub mod expimages;
pub mod hostperf;
pub mod json;
pub mod table;

/// Measure an exact instruction sequence: load `code` at the first user
/// address, run a single process over it, and count the cycles consumed
/// before the instruction pointer passes the end of the sequence.
///
/// # Panics
///
/// Panics if the program halts or idles before completing the sequence —
/// sequences measured this way must be straight-line.
pub fn measure_sequence(config: CpuConfig, code: &[u8]) -> SequenceMeasure {
    measure_sequence_with_setup(config, &[], code)
}

/// As [`measure_sequence`], with uncounted setup instructions executed
/// first (initialising workspace words the sequence depends on).
///
/// # Panics
///
/// Panics if setup or sequence halt or idle before completing.
pub fn measure_sequence_with_setup(
    config: CpuConfig,
    setup: &[u8],
    code: &[u8],
) -> SequenceMeasure {
    let mut full = setup.to_vec();
    full.extend_from_slice(code);
    // Terminator so the run is bounded even if stepped past.
    full.extend(transputer::instr::encode_op(
        transputer::instr::Op::HaltSimulation,
    ));
    let mut cpu = Cpu::new(config);
    cpu.load_boot_program(&full)
        .expect("sequence fits in memory");
    let entry = cpu.memory().mem_start();
    let start = entry + setup.len() as u32;
    let end = start + code.len() as u32;
    while cpu.iptr() < start {
        match cpu.step() {
            StepEvent::Ran { .. } => {}
            other => panic!("setup did not run to completion: {other:?}"),
        }
    }
    let mut cycles = 0u64;
    while cpu.iptr() < end {
        match cpu.step() {
            StepEvent::Ran { cycles: c } => cycles += u64::from(c),
            other => panic!("sequence did not run to completion: {other:?}"),
        }
    }
    SequenceMeasure {
        bytes: code.len(),
        cycles,
        areg: cpu.areg(),
    }
}

/// Result of [`measure_sequence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequenceMeasure {
    /// Code bytes in the sequence.
    pub bytes: usize,
    /// Processor cycles consumed.
    pub cycles: u64,
    /// Final A register (sanity checks).
    pub areg: u32,
}

/// Assemble with the `transputer-asm` crate, panicking on error (bench
/// sources are fixed strings).
///
/// # Panics
///
/// Panics on assembly errors.
pub fn asm(source: &str) -> Vec<u8> {
    transputer_asm::assemble(source).expect("bench assembly source is valid")
}

/// Compile occam, run to a clean halt on the given part, and return the
/// CPU for inspection.
///
/// # Panics
///
/// Panics if the program does not compile, load and halt cleanly.
pub fn run_occam(source: &str, config: CpuConfig) -> (occam::Program, Cpu, u32) {
    let program = occam::compile(source).expect("corpus program compiles");
    let mut cpu = Cpu::new(config);
    let wptr = program.load(&mut cpu).expect("corpus program loads");
    match cpu.run(500_000_000).expect("corpus program within budget") {
        transputer::RunOutcome::Halted(transputer::HaltReason::Stopped) => {}
        other => panic!("corpus program did not halt cleanly: {other:?}"),
    }
    (program, cpu, wptr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_counts_paper_assignment() {
        // x := 0 → ldc 0; stl 1: 2 bytes, 2 cycles (§3.2.6).
        let m = measure_sequence(CpuConfig::t424(), &asm("ldc 0\nstl 1"));
        assert_eq!(m.bytes, 2);
        assert_eq!(m.cycles, 2);
    }

    #[test]
    fn measure_counts_expression() {
        // x + 2 → ldl x; adc 2: 2 bytes, 3 cycles (§3.2.9).
        let m = measure_sequence(CpuConfig::t424(), &asm("ldl 1\nadc 2"));
        assert_eq!(m.bytes, 2);
        assert_eq!(m.cycles, 3);
    }

    #[test]
    fn corpus_runs_everywhere() {
        for item in corpus::CORPUS {
            let (p, mut cpu, wptr) = run_occam(item.source, CpuConfig::t424());
            let got = p.read_global(&mut cpu, wptr, item.check_global).unwrap();
            assert_eq!(
                cpu.word_length().to_signed(got),
                item.expected,
                "corpus `{}`",
                item.name
            );
        }
    }
}
