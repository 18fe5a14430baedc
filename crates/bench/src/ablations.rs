//! The design choices the paper argues for, each against its
//! alternative (DESIGN.md §12). Every number is a simulated quantity —
//! code bytes, processor cycles, nanoseconds of simulated time — so the
//! rows are exact and live in `BENCH_host.json`'s `ablations` section.

use transputer::{Cpu, CpuConfig, HaltReason, MemoryConfig, RunOutcome};
use transputer_apps::{DbSearch, DbSearchConfig};
use transputer_asm::disassemble;
use transputer_link::AckPolicy;
use transputer_net::NetworkConfig;

use crate::corpus;

/// One quantity under the paper's choice and under the alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ablation {
    /// The design choice.
    pub choice: &'static str,
    /// What is counted, and on which workload.
    pub quantity: &'static str,
    /// The count with the paper's choice.
    pub paper: u64,
    /// The count with the alternative the paper rejects.
    pub alternative: u64,
}

/// Cycles `program` takes to halt on a T424 configured by `config`.
fn cycles(program: &occam::Program, config: CpuConfig) -> u64 {
    let mut cpu = Cpu::new(config);
    program.load(&mut cpu).expect("ablation program loads");
    let outcome = cpu.run(100_000_000).expect("ablation program runs");
    assert_eq!(outcome, RunOutcome::Halted(HaltReason::Stopped));
    cpu.cycles()
}

/// `source` compiled with the default options as `set` changed them.
fn compile(source: &str, set: impl FnOnce(&mut occam::Options)) -> occam::Program {
    let mut options = occam::Options::default();
    set(&mut options);
    occam::compile_with(source, options).expect("ablation program compiles")
}

/// First answer of a 3×3 database search under `ack_policy`, in ns.
fn search_first_answer_ns(ack_policy: AckPolicy) -> u64 {
    let mut sim = DbSearch::build(DbSearchConfig {
        width: 3,
        height: 3,
        records_per_node: 30,
        requests: 3,
        seed: 5,
        key_space: 60,
        net: NetworkConfig {
            ack_policy,
            ..NetworkConfig::default()
        },
    })
    .expect("ablation network builds");
    let report = sim.run(1_000_000_000_000).expect("ablation network runs");
    assert!(report.all_correct(), "ablation search answers wrongly");
    report.first_answer_ns
}

/// The five pairs, word independence as two rows.
///
/// # Panics
///
/// Panics if an ablation program fails to compile, load or halt, or the
/// search answers wrongly — a broken run must never become a row.
pub fn ablations() -> Vec<Ablation> {
    let t424 = CpuConfig::t424;

    // Static corpus code size with the real prefix encoding against a
    // fixed-operand encoding (the "simple" alternative §3.2.7 rejects):
    // 2 bytes per operation, opcode and operand byte, 3 when the operand
    // exceeds 8 bits.
    let (mut prefixed, mut fixed) = (0, 0);
    for item in corpus::CORPUS {
        let code = compile(item.source, |_| {}).code;
        prefixed += code.len() as u64;
        fixed += disassemble(&code)
            .iter()
            .map(|d| 2 + u64::from(!(-128..256).contains(&d.operand)))
            .sum::<u64>();
    }

    // Word-independent code (`ldc 1; bcnt`, §3.3) against constants
    // targeted at the 32-bit part.
    let independent = compile(corpus::PIPELINE.source, |_| {});
    let targeted = compile(corpus::PIPELINE.source, |o| o.word_independent = false);

    // Compiler-proved safety against a `csub0` check on every subscript
    // (§3.2.4: "no need for the hardware to perform access checking").
    let sieve = compile(corpus::SIEVE.source, |_| {});
    let checked = compile(corpus::SIEVE.source, |o| o.bounds_checks = true);

    // Program and data on chip against a 2-cycle penalty on every access
    // (§3.3's argument for spending area on RAM rather than cache). Both
    // runs use the same all-external map; only the penalty differs.
    let external = |off_chip_penalty| {
        t424().with_memory(MemoryConfig {
            on_chip_bytes: 0,
            off_chip_bytes: 64 * 1024,
            off_chip_penalty,
        })
    };

    let row = |choice, quantity, paper, alternative| Ablation {
        choice,
        quantity,
        paper,
        alternative,
    };
    vec![
        row("prefix_encoding", "corpus_code_bytes", prefixed, fixed),
        row(
            "word_independent_code",
            "pipeline_code_bytes",
            independent.code.len() as u64,
            targeted.code.len() as u64,
        ),
        row(
            "word_independent_code",
            "pipeline_cycles",
            cycles(&independent, t424()),
            cycles(&targeted, t424()),
        ),
        row(
            "compiler_proved_bounds",
            "sieve_cycles",
            cycles(&sieve, t424()),
            cycles(&checked, t424()),
        ),
        row(
            "on_chip_memory",
            "sieve_cycles",
            cycles(&sieve, external(0)),
            cycles(&sieve, external(2)),
        ),
        // The acknowledge sent as reception starts against one sent after
        // the stop bit (§2.3: "transmission may be continuous"), at system
        // level.
        row(
            "early_acknowledge",
            "search3x3_first_answer_ns",
            search_first_answer_ns(AckPolicy::Early),
            search_first_answer_ns(AckPolicy::AfterStop),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering::{self, Greater, Less};

    /// Each pair moves the way DESIGN.md §12 says it does.
    #[test]
    fn every_pair_has_the_direction_the_paper_argues() {
        let expected: [(&str, &str, &[Ordering]); 6] = [
            ("prefix_encoding", "corpus_code_bytes", &[Greater]),
            // Portability is not free: `ldc 1; bcnt` is longer and slower
            // than the constant it computes.
            ("word_independent_code", "pipeline_code_bytes", &[Less]),
            ("word_independent_code", "pipeline_cycles", &[Less]),
            ("compiler_proved_bounds", "sieve_cycles", &[Greater]),
            ("on_chip_memory", "sieve_cycles", &[Greater]),
            (
                "early_acknowledge",
                "search3x3_first_answer_ns",
                &[Greater, Ordering::Equal],
            ),
        ];
        let rows = ablations();
        assert_eq!(rows.len(), expected.len());
        for (row, (choice, quantity, alternative_is)) in rows.iter().zip(expected) {
            assert_eq!((row.choice, row.quantity), (choice, quantity));
            assert!(
                alternative_is.contains(&row.alternative.cmp(&row.paper)),
                "{choice} {quantity}: paper {} alternative {}",
                row.paper,
                row.alternative
            );
        }
    }
}
