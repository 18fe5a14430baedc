//! The six workloads.
//!
//! A workload is built from the seed alone, then iterated: `setup` and
//! `run` are the two timed halves of an iteration, `check` (untimed)
//! compares the outputs against references computed outside the
//! simulator and hands back the simulated quantities, which must be the
//! same on every iteration. `layers` is the traced pass's extra work:
//! the runs under other engines and tiers, and the counters read back
//! through public getters.

pub mod corpus;
pub mod network;
pub mod toolchain;

use crate::metrics::MetricSet;
use crate::trace::Tracer;

/// Name and reason of every workload, in report order. The names are
/// fixed: later issues cite them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cpu_corpus",
        "8 occam programs on one standalone Cpu: the CPU tiers do all the work, link/net/router none",
    ),
    (
        "toolchain_sources",
        "lex-parse-compile-lint-verify-disassemble over 223 sources (8 corpus + 215 generated): only occam/analysis/asm work, no simulation",
    ),
    (
        "tree_board128",
        "the paper's 128-transputer search board, classic links, planned trees: CPU + link + engine, router idle",
    ),
    (
        "tree_board128_faulted",
        "the same board under a 1e-4 fault plan: every wire on the robust protocol with timeout and retry",
    ),
    (
        "routed_cube256",
        "256-node hypercube searched over virtual channels, store-and-forward: router and multi-hop traffic dominate",
    ),
    (
        "routed_grid1024_worm",
        "1024 mostly-idle nodes, wormhole cut-through: scheduler and heap cost dominate, CPU tiers under 2 % - the bypass case",
    ),
];

/// The simulated quantities of one iteration. Deterministic: every
/// iteration of a run, and every run on the same seed, must produce the
/// same value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Sim {
    /// Simulated ns until the first answer left the machine (network
    /// workloads; 0 elsewhere).
    pub first_answer_ns: u64,
    /// Mean simulated ns between answers once the pipeline is full
    /// (network workloads; 0 elsewhere).
    pub answer_interval_ns: u64,
    /// Processor cycles, summed over all nodes / the corpus's programs.
    pub cycles: u64,
    /// Instruction bytes executed by the whole run (all nodes).
    pub instructions: u64,
    /// Simulated ns the whole run covered.
    pub sim_ns: u64,
    /// FNV-1a over every outcome an engine, tier or refactor must leave
    /// alone: answers, arrival times, per-node cycles and instructions,
    /// per-wire delivered bytes (results, cycles and instructions per
    /// program for the corpus; code bytes and diagnostics for the
    /// toolchain).
    pub fingerprint: u64,
}

/// What `check` found.
#[derive(Debug, Clone, Default)]
pub struct Checked {
    /// Operations whose output was compared with a reference.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// The iteration's simulated quantities.
    pub sim: Sim,
}

/// What the traced pass hands a workload's `layers`.
pub struct LayerCtx<'a> {
    /// Span recorder (recording).
    pub tracer: &'a mut Tracer,
    /// Quietest reference-kernel call of the pass, seconds: the unit of
    /// every `*_ref_ratio`.
    pub kernel_min_s: f64,
    /// Where the per-layer values go.
    pub metrics: &'a mut MetricSet,
    /// `run_ref_ratio` of the pass's own untraced iterations.
    pub run_ref_ratio: f64,
    /// Quietest wall time of their runs, seconds.
    pub run_wall_s: f64,
    /// Comparisons made (fingerprint equalities) and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
}

impl LayerCtx<'_> {
    /// Count one comparison; `ok` is whether it held.
    pub fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Time `f` under a span and return its result with its cost in
    /// reference units. A caller that samples the same work several
    /// times keeps the smallest.
    pub fn ref_ratio<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let (value, wall) = self.tracer.timed(name, f);
        (value, wall.as_secs_f64() / self.kernel_min_s)
    }
}

/// One workload.
pub trait Workload {
    /// Untimed, before `setup`: free what the previous iteration left, so
    /// that two iterations' state is never resident at once and
    /// `peak_rss_mb` is the footprint of one.
    fn reset(&mut self);
    /// Timed: build everything a run needs from the generated inputs.
    fn setup(&mut self, tracer: &mut Tracer);
    /// Timed: the work itself. Consumes what `setup` built.
    fn run(&mut self, tracer: &mut Tracer);
    /// Untimed: compare outputs with their references.
    fn check(&mut self) -> Checked;
    /// Bytes of I1 code the compiler emits for this workload's programs.
    fn code_bytes(&self) -> u64;
    /// Traced pass: fill in this workload's per-layer metrics.
    fn layers(&mut self, ctx: &mut LayerCtx<'_>);
}

/// Build the workload called `name` from `seed`. `smoke` trims every
/// configuration so the whole set runs in seconds (same code paths,
/// different — unpinned — numbers).
pub fn make(name: &str, seed: u64, smoke: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cpu_corpus" => Box::new(corpus::CpuCorpus::new()),
        "toolchain_sources" => Box::new(toolchain::Toolchain::new(smoke)),
        "tree_board128" => Box::new(network::Search::tree_board128(seed, false, smoke)),
        "tree_board128_faulted" => Box::new(network::Search::tree_board128(seed, true, smoke)),
        "routed_cube256" => Box::new(network::Search::routed_cube256(seed, smoke)),
        "routed_grid1024_worm" => Box::new(network::Search::routed_grid1024_worm(seed, smoke)),
        _ => return None,
    })
}

/// FNV-1a, one 64-bit value at a time (the same fold `hostperf` uses).
pub fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
