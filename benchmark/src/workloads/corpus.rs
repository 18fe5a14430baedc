//! `cpu_corpus`: eight occam programs on one standalone processor.
//!
//! The sources live in `benchmark/workloads/corpus/` (copies of the
//! repository's occam corpus, so a later edit of that corpus cannot move
//! this workload) with a hand-written `expected.txt`. One iteration is
//! one sweep over the eight programs, each on a fresh `Cpu` at the stock
//! `CpuConfig::t424()`, through `Cpu::run_batched` — about 0.2 ms of
//! run after 0.4 ms of compiling and loading. Short on purpose: the
//! harness reports the quietest iteration, a short one is far likelier
//! to fall between two disturbances of the host than a long one, and
//! eight processors' memories stay in cache where a hundred and sixty
//! made set-up a test of the host's memory bandwidth. Nothing here
//! touches a link, a wire, the router or an engine: a change to the CPU
//! tiers must show on this workload in full and a change anywhere else
//! must not show at all.

use std::time::{Duration, Instant};

use crate::metrics::{minimum, ratio};
use crate::surface::{compile, lex, parse, Cpu, CpuConfig, HaltReason, Program, RunOutcome, Stats};
use crate::trace::Tracer;
use crate::workloads::{fnv1a, Checked, LayerCtx, Sim, Workload, FNV_BASIS};

/// `(file stem, source)` of every corpus program, in sweep order.
pub const SOURCES: [(&str, &str); 8] = [
    ("sieve", include_str!("../../workloads/corpus/sieve.occ")),
    ("sort", include_str!("../../workloads/corpus/sort.occ")),
    ("fib", include_str!("../../workloads/corpus/fib.occ")),
    ("gcd", include_str!("../../workloads/corpus/gcd.occ")),
    (
        "pipeline",
        include_str!("../../workloads/corpus/pipeline.occ"),
    ),
    ("matmul", include_str!("../../workloads/corpus/matmul.occ")),
    ("farm", include_str!("../../workloads/corpus/farm.occ")),
    (
        "bytesum",
        include_str!("../../workloads/corpus/bytesum.occ"),
    ),
];

const EXPECTED: &str = include_str!("../../workloads/corpus/expected.txt");

/// Cycle budget of one program run; the longest needs about 25 000.
const CYCLE_BUDGET: u64 = 500_000_000;

/// `(result variable, expected value)` for corpus program `stem`.
///
/// # Panics
///
/// Panics if `expected.txt` has no well-formed line for `stem`.
pub fn expected(stem: &str) -> (&'static str, i64) {
    EXPECTED
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some(stem)).then(|| {
                let global = words.next().expect("expected.txt: variable name");
                let value = words
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("expected.txt: integer value");
                (global, value)
            })
        })
        .unwrap_or_else(|| panic!("expected.txt has no line for `{stem}`"))
}

/// One loaded program waiting to run, or having run.
struct Loaded {
    cpu: Cpu,
    wptr: u32,
    outcome: Option<RunOutcome>,
}

/// The workload.
pub struct CpuCorpus {
    config: CpuConfig,
    programs: Vec<Program>,
    loaded: Vec<Loaded>,
}

impl CpuCorpus {
    /// The corpus at the stock T424 configuration.
    pub fn new() -> CpuCorpus {
        CpuCorpus::with_config(CpuConfig::t424())
    }

    fn with_config(config: CpuConfig) -> CpuCorpus {
        CpuCorpus {
            config,
            programs: Vec::new(),
            loaded: Vec::new(),
        }
    }
}

impl Default for CpuCorpus {
    fn default() -> Self {
        CpuCorpus::new()
    }
}

impl Workload for CpuCorpus {
    fn reset(&mut self) {
        self.loaded.clear();
    }

    fn setup(&mut self, tracer: &mut Tracer) {
        self.programs = tracer
            .timed("occam.compile", |_| {
                SOURCES
                    .iter()
                    .map(|(stem, source)| {
                        compile(source).unwrap_or_else(|e| panic!("corpus `{stem}`: {e}"))
                    })
                    .collect()
            })
            .0;
        self.loaded = tracer
            .timed("transputer.load", |_| {
                self.programs
                    .iter()
                    .map(|program| {
                        let mut cpu = Cpu::new(self.config.clone());
                        let wptr = program
                            .load(&mut cpu)
                            .expect("corpus program fits in memory");
                        Loaded {
                            cpu,
                            wptr,
                            outcome: None,
                        }
                    })
                    .collect()
            })
            .0;
    }

    fn run(&mut self, tracer: &mut Tracer) {
        tracer.timed("transputer.run_batched", |_| {
            for l in &mut self.loaded {
                l.outcome = l.cpu.run_batched(CYCLE_BUDGET).ok();
            }
        });
    }

    fn check(&mut self) -> Checked {
        let mut checked = Checked {
            sim: Sim {
                fingerprint: FNV_BASIS,
                ..Sim::default()
            },
            ..Checked::default()
        };
        for (l, (program, (stem, _))) in self
            .loaded
            .iter_mut()
            .zip(self.programs.iter().zip(&SOURCES))
        {
            let (global, want) = expected(stem);
            let halted = l.outcome == Some(RunOutcome::Halted(HaltReason::Stopped));
            let got = program
                .read_global(&mut l.cpu, l.wptr, global)
                .map(|v| l.cpu.word_length().to_signed(v));
            checked.attempted += 1;
            if !halted || got != Ok(want) {
                checked.failed += 1;
                eprintln!(
                    "CHECK FAILED: corpus `{stem}`: outcome {:?}, {global} = {got:?}, expected {want}",
                    l.outcome
                );
            }
            let sim = &mut checked.sim;
            sim.cycles += l.cpu.cycles();
            sim.instructions += l.cpu.stats().instructions;
            sim.sim_ns += l.cpu.time_ns();
            fnv1a(&mut sim.fingerprint, got.unwrap_or(-1) as u64);
            fnv1a(&mut sim.fingerprint, l.cpu.cycles());
            fnv1a(&mut sim.fingerprint, l.cpu.stats().instructions);
        }
        checked
    }

    fn code_bytes(&self) -> u64 {
        SOURCES
            .iter()
            .map(|(_, source)| compile(source).map_or(0, |p| p.code.len() as u64))
            .sum()
    }

    fn layers(&mut self, ctx: &mut LayerCtx<'_>) {
        // The lower tiers on the same programs (the iterations ran the
        // stock configuration: decode cache and translation on).
        let stock = self.check().sim.fingerprint;
        ctx.metrics
            .set("transputer.tier.translate_ref_ratio", ctx.run_ref_ratio);
        let mut equal = true;
        for (name, decode) in [
            ("transputer.tier.byte_ref_ratio", false),
            ("transputer.tier.decode_ref_ratio", true),
        ] {
            let config = CpuConfig::t424()
                .with_decode_cache(decode)
                .with_translate(false);
            let (ratio, sim) = tier_ref_ratio(ctx, config);
            ctx.metrics.set(name, ratio);
            equal &= sim.fingerprint == stock;
        }
        ctx.expect(equal, "corpus fingerprints differ between CPU tiers");
        ctx.metrics
            .set("net.engine.fingerprints_equal", f64::from(u8::from(equal)));

        // Counters at the stock configuration (`self` has just run its
        // last iteration).
        let stats: Vec<&Stats> = self.loaded.iter().map(|l| l.cpu.stats()).collect();
        let cycles: u64 = self.loaded.iter().map(|l| l.cpu.cycles()).sum();
        cpu_counters(ctx, &stats, cycles);

        // The compiler on the eight sources.
        let sources: Vec<&str> = SOURCES.iter().map(|(_, s)| *s).collect();
        let programs = frontend_layers(ctx, &sources);
        ctx.metrics
            .set_count("apps.programs", programs.len() as u64);
    }
}

/// Host seconds `tier_ref_ratio` keeps sampling for: long enough to
/// outlast a disturbance of the host that a few milliseconds would sit
/// wholly inside.
const TIER_SAMPLE_SECONDS: f64 = 0.3;

/// Cost, in reference units, of the quietest of many corpus iterations'
/// runs under `config`, with the simulated quantities it produced.
fn tier_ref_ratio(ctx: &mut LayerCtx<'_>, config: CpuConfig) -> (f64, Sim) {
    let mut corpus = CpuCorpus::with_config(config);
    let mut ratios = Vec::new();
    let mut sim = Sim::default();
    let start = Instant::now();
    while ratios.is_empty() || start.elapsed().as_secs_f64() < TIER_SAMPLE_SECONDS {
        corpus.reset();
        corpus.setup(&mut Tracer::new(false));
        let ((), r) = ctx.ref_ratio("transputer.tier", |t| corpus.run(t));
        ratios.push(r);
        let checked = corpus.check();
        ctx.expect(
            checked.failed == 0,
            "corpus result wrong under a tier configuration",
        );
        sim = checked.sim;
    }
    (minimum(&ratios), sim)
}

/// Instruction bytes the stock configuration executes per reference
/// unit on the corpus — the speed of the CPU tiers with nothing else in
/// the way, which network workloads use to estimate their CPU share.
pub fn instructions_per_ref(ctx: &mut LayerCtx<'_>) -> f64 {
    let (ratio, sim) = tier_ref_ratio(ctx, CpuConfig::t424());
    sim.instructions as f64 / ratio
}

/// Set the `transputer.*` counters from per-processor statistics.
pub fn cpu_counters(ctx: &mut LayerCtx<'_>, stats: &[&Stats], cycles: u64) {
    let sum = |f: fn(&Stats) -> u64| -> u64 { stats.iter().map(|s| f(s)).sum() };
    let instructions = sum(|s| s.instructions);
    let hits = sum(|s| s.decode_hits);
    let misses = sum(|s| s.decode_misses);
    let enters = sum(|s| s.trans_enters);
    let deopts = sum(|s| s.trans_deopts);
    let m = &mut *ctx.metrics;
    m.set_count("transputer.instructions", instructions);
    m.set_count("transputer.cycles", cycles);
    m.set("transputer.cpi", ratio(cycles as f64, instructions as f64));
    m.set_count("transputer.decode.hits", hits);
    m.set_count("transputer.decode.misses", misses);
    m.set(
        "transputer.decode.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    m.set_count("transputer.trans.blocks", sum(|s| s.trans_blocks));
    m.set_count("transputer.trans.enters", enters);
    m.set_count("transputer.trans.deopts", deopts);
    m.set(
        "transputer.trans.deopt_ratio",
        ratio(deopts as f64, enters as f64),
    );
    m.set_count("transputer.deschedules", sum(|s| s.deschedules));
    m.set_count("transputer.messages", sum(|s| s.messages));
}

/// Lex, parse and compile `sources` stage by stage under spans, set the
/// `occam.*` metrics, and return the compiled programs.
pub fn frontend_layers(ctx: &mut LayerCtx<'_>, sources: &[&str]) -> Vec<Program> {
    let t = &mut *ctx.tracer;
    let (lexed, lex_wall) = t.timed("occam.lex", |_| {
        sources.iter().filter(|s| lex(s).is_ok()).count()
    });
    let (parsed, parse_wall) = t.timed("occam.parse", |_| {
        sources.iter().filter(|s| parse(s).is_ok()).count()
    });
    let (programs, compile_wall): (Vec<Program>, Duration) = t.timed("occam.compile", |_| {
        sources.iter().filter_map(|s| compile(s).ok()).collect()
    });
    for (stage, ok) in [
        ("lex", lexed),
        ("parse", parsed),
        ("compile", programs.len()),
    ] {
        ctx.expect(ok == sources.len(), &format!("a source failed to {stage}"));
    }
    let lines: usize = sources.iter().map(|s| s.lines().count()).sum();
    let m = &mut *ctx.metrics;
    m.set("occam.lex_s", lex_wall.as_secs_f64());
    m.set("occam.parse_s", parse_wall.as_secs_f64());
    m.set("occam.compile_s", compile_wall.as_secs_f64());
    m.set_count("occam.sources", sources.len() as u64);
    m.set_count("occam.source_lines", lines as u64);
    m.set(
        "occam.lines_per_s",
        ratio(lines as f64, compile_wall.as_secs_f64()),
    );
    m.set_count(
        "occam.code_bytes",
        programs.iter().map(|p| p.code.len() as u64).sum(),
    );
    programs
}
