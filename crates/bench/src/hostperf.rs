//! Host-side performance measurement of the simulator itself.
//!
//! Everything else in this crate measures *simulated* quantities —
//! cycle counts, link utilisation, paper tables. This module measures
//! the *host*: how fast the emulator executes, and what the
//! lookahead-batched engine buys over the per-instruction event engine.
//! Results are written to `BENCH_host.json`.
//!
//! Wall-clock numbers vary between machines; outcome fingerprints must
//! not. The smoke mode (`hostperf --smoke`) therefore gates only on
//! panics and regressed simulated outcomes, never on wall time.

use std::time::Instant;

use transputer::{Cpu, CpuConfig, HaltReason, RunOutcome};
use transputer_apps::dbsearch::{DbSearch, DbSearchConfig, DbSearchReport, HypercubeConfig};
use transputer_link::FaultPlan;
use transputer_net::{Engine, Network, NetworkConfig, PopCounts, RouterConfig, Switching};

use crate::corpus;

/// Every experiment binary, in report order (shared with `run_all`).
pub const EXPERIMENTS: &[&str] = &[
    "e01_assignment",
    "e02_staticlink",
    "e03_prefix",
    "e04_expressions",
    "e05_comm_cost",
    "e06_priority_latency",
    "e07_link_protocol",
    "e08_message_latency",
    "e09_dbsearch16",
    "e10_board128",
    "e11_workstation",
    "e12_encoding_density",
    "e13_mips",
    "e14_context_switch",
    "e15_wordlength",
    "e16_hypercube256",
    "e17_routed",
];

/// One timed network simulation.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// Which benchmark network ran.
    pub bench: &'static str,
    /// Engine used.
    pub engine: Engine,
    /// Host wall-clock time, milliseconds.
    pub wall_ms: f64,
    /// Simulated nanoseconds elapsed.
    pub sim_ns: u64,
    /// Processor cycles summed over all nodes.
    pub cycles: u64,
    /// Instructions executed summed over all nodes.
    pub instructions: u64,
    /// Whether every search answer matched the reference.
    pub answers_ok: bool,
    /// FNV-1a hash over answers, answer times, per-node halt cycles and
    /// instruction counters, and per-wire delivered-byte counters. Equal
    /// fingerprints mean bit-identical simulated outcomes.
    pub fingerprint: u64,
    /// Aggregate decode-cache counters over all nodes:
    /// `(hits, misses, invalidations, bypasses)`. Host-side only,
    /// excluded from the fingerprint.
    pub decode: (u64, u64, u64, u64),
    /// Aggregate translation-tier counters over all nodes:
    /// `(blocks, enters, deopts, invalidations)`. Host-side only,
    /// excluded from the fingerprint.
    pub trans: (u64, u64, u64, u64),
    /// Share of operations executed in translated blocks: 1 − (decode
    /// hits + misses) / operations, 0 when no block was ever entered.
    /// Host-side only, excluded from the fingerprint.
    pub tier_share: f64,
    /// Logical cores of the host that produced this row. Host-side
    /// only, excluded from the fingerprint.
    pub host_cores: usize,
    /// Heap pops of the run: node entries (slices under Sliced), wire
    /// entries, and the wire entries skipped as stale. Host-side only,
    /// excluded from the fingerprint — node pops are what the engine's
    /// lookahead decides, so they are the deterministic measure of it.
    pub pops: PopCounts,
    /// Aggregate virtual-channel router counters, `None` on unrouted
    /// networks. Excluded from the fingerprint: trailing queue-pop acks
    /// race the all-halted detection, whose time is engine-dependent,
    /// so the hop counters may legitimately differ by a packet between
    /// engines (the wire delivered-byte counters, which *are*
    /// fingerprinted, do not).
    pub router: Option<transputer_net::RouterStats>,
    /// Whether wormhole cut-through was active when the run ended,
    /// `None` on unrouted networks. `Some(false)` on a run configured
    /// for wormhole means the router proved the topology's
    /// channel-dependency graph cyclic and degraded to
    /// store-and-forward (the cluster hypercube's e-cube tables do
    /// this). Host-side only, excluded from the fingerprint.
    pub cut_through: Option<bool>,
}

impl NetRun {
    /// Simulated processor cycles executed per host second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / (self.wall_ms / 1e3)
    }

    /// Emulated millions of instructions per host second.
    pub fn emulated_mips(&self) -> f64 {
        self.instructions as f64 / (self.wall_ms / 1e3) / 1e6
    }
}

/// The share of a run's operations executed in translated blocks: all
/// of them bar the decode loop's (every one of which is a decode-cache
/// hit or miss; the few the byte path runs at a budget or fence count as
/// translated). 0 when no block was ever entered — the Event engine
/// steps, and a tier that is off translates nothing. Warm code that
/// falls out of the tier shows here before it shows on a stopwatch.
fn tier_share(decode: (u64, u64, u64, u64), trans: (u64, u64, u64, u64), operations: u64) -> f64 {
    if trans.1 == 0 || operations == 0 {
        return 0.0;
    }
    1.0 - (decode.0 + decode.1) as f64 / operations as f64
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Logical cores of this host (1 when the count is unavailable).
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A search machine: planned spanning trees or the virtual-channel
/// router, over a grid or a hypercube of clusters.
#[derive(Debug, Clone)]
pub enum Machine {
    /// Planned trees on a grid (e09, e10).
    Tree(DbSearchConfig),
    /// The same grid searched over virtual channels: every message is
    /// packetized and hops through per-node routing tables.
    Routed(DbSearchConfig),
    /// Planned trees on a hypercube of clusters (e16).
    TreeCube(HypercubeConfig),
    /// The hypercube searched over virtual channels (e17).
    RoutedCube(HypercubeConfig),
}

impl Machine {
    fn net(&mut self) -> &mut NetworkConfig {
        match self {
            Machine::Tree(c) | Machine::Routed(c) => &mut c.net,
            Machine::TreeCube(c) | Machine::RoutedCube(c) => &mut c.net,
        }
    }

    /// This machine with a deterministic fault plan injected: every
    /// link switches to the robust sequenced protocol and suffers the
    /// plan's drops, corruption, jitter and dead wires.
    pub fn faulted(mut self, plan: FaultPlan) -> Machine {
        self.net().fault = Some(plan);
        self
    }

    /// This machine switched to wormhole (cut-through) forwarding:
    /// transit nodes start retransmitting a packet at header decode
    /// instead of after full reassembly, streaming the payload hop by
    /// hop under flit-level withheld-ack credits. The cluster
    /// hypercube's e-cube tables carry a cyclic channel-dependency
    /// graph, so on [`Machine::RoutedCube`] the router degrades this
    /// request to store-and-forward at build time — the run must be
    /// byte-identical to the plain machine's, which is exactly what
    /// benchmarking it demonstrates.
    pub fn wormhole(mut self) -> Machine {
        self.net().router.switching = Switching::Wormhole;
        self
    }

    /// Build this machine under `engine`.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to build: its programs are generated
    /// by the repository itself, so that is a bug, not an outcome.
    pub fn build(mut self, engine: Engine) -> DbSearch {
        self.net().engine = engine;
        match self {
            Machine::Tree(c) => DbSearch::build(c),
            Machine::Routed(c) => DbSearch::build_routed(c),
            Machine::TreeCube(c) => DbSearch::build_hypercube(c),
            Machine::RoutedCube(c) => DbSearch::build_routed_hypercube(c),
        }
        .expect("benchmark network builds")
    }

    /// Build this machine under `engine` and run its search, timing the
    /// run and fingerprinting every engine-visible outcome.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to build or faults while running — a
    /// panic here is exactly what the smoke gate exists to catch.
    pub fn run(self, bench: &'static str, engine: Engine) -> NetRun {
        let mut sim = self.build(engine);
        let start = Instant::now();
        let report = sim
            .run(100_000_000_000_000)
            .expect("benchmark network runs");
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut hash = FNV_BASIS;
        for &a in &report.answers {
            fnv1a(&mut hash, u64::from(a));
        }
        for &t in &report.answer_times_ns {
            fnv1a(&mut hash, t);
        }
        net_run(
            bench,
            engine,
            wall_ms,
            report.total_ns,
            report.all_correct(),
            hash,
            sim.network(),
        )
    }
}

/// Fold a finished network's per-node halt cycles and instruction
/// counters and per-wire delivered-byte counters into `hash`, and
/// assemble the row with the host-side counters beside it.
fn net_run(
    bench: &'static str,
    engine: Engine,
    wall_ms: f64,
    sim_ns: u64,
    answers_ok: bool,
    mut hash: u64,
    net: &Network,
) -> NetRun {
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    let mut operations = 0u64;
    for id in 0..net.len() {
        let node = net.node(id);
        cycles += node.cycles();
        instructions += node.stats().instructions;
        operations += node.stats().operations;
        fnv1a(&mut hash, node.cycles());
        fnv1a(&mut hash, node.stats().instructions);
    }
    for w in 0..net.wire_count() {
        let (a, b) = net.wire_delivered(w);
        fnv1a(&mut hash, a);
        fnv1a(&mut hash, b);
    }
    let (decode, trans) = (net.decode_stats(), net.trans_stats());
    NetRun {
        bench,
        engine,
        wall_ms,
        sim_ns,
        cycles,
        instructions,
        answers_ok,
        fingerprint: hash,
        decode,
        trans,
        tier_share: tier_share(decode, trans, operations),
        host_cores: host_cores(),
        pops: net.pop_counts(),
        router: net.router_stats(),
        cut_through: net.router_cut_through(),
    }
}

/// One timed run of the occam corpus on a standalone processor: the
/// pure-CPU emulation throughput the decode cache targets, without any
/// network scheduling in the way (the e13 "emulated MIPS" measurement).
#[derive(Debug, Clone)]
pub struct CpuRun {
    /// Whether the predecoded instruction cache was enabled.
    pub decode_cache: bool,
    /// Whether the threaded-code translation tier was enabled.
    pub translate: bool,
    /// Host wall-clock time over all programs and repeats, milliseconds.
    pub wall_ms: f64,
    /// Simulated cycles summed over all runs.
    pub cycles: u64,
    /// Instruction bytes executed summed over all runs.
    pub instructions: u64,
    /// Decode-cache counters summed over all runs:
    /// `(hits, misses, invalidations, bypasses)`.
    pub decode: (u64, u64, u64, u64),
    /// Translation-tier counters summed over all runs:
    /// `(blocks, enters, deopts, invalidations)`.
    pub trans: (u64, u64, u64, u64),
    /// Share of operations executed in translated blocks, as in
    /// [`NetRun::tier_share`].
    pub tier_share: f64,
    /// FNV-1a hash over each program's result word, halt cycle count and
    /// instruction count. Every tier combination must produce equal
    /// fingerprints.
    pub fingerprint: u64,
}

impl CpuRun {
    /// Emulated millions of instructions per host second.
    pub fn emulated_mips(&self) -> f64 {
        self.instructions as f64 / (self.wall_ms / 1e3) / 1e6
    }

    /// Cache hit rate over all lookups (hits + misses), in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.decode.0 + self.decode.1;
        if lookups == 0 {
            return 0.0;
        }
        self.decode.0 as f64 / lookups as f64
    }
}

/// Run every corpus program `repeats` times on a fresh T424 through the
/// batched engine, timing the whole sweep. Compilation happens outside
/// the timed region; execution, including boot-program loading, is
/// timed.
///
/// # Panics
///
/// Panics if a corpus program fails to compile, halt cleanly, or
/// produce its expected answer — wrong results must never become a
/// performance number.
pub fn cpu_corpus_bench(decode_cache: bool, translate: bool, repeats: u32) -> CpuRun {
    let programs: Vec<(&corpus::CorpusItem, occam::Program)> = corpus::CORPUS
        .iter()
        .map(|item| {
            (
                item,
                occam::compile(item.source).expect("corpus program compiles"),
            )
        })
        .collect();
    let config = CpuConfig::t424()
        .with_decode_cache(decode_cache)
        .with_translate(translate);
    // One untimed warm-up sweep: the first execution pays one-off host
    // costs (page faults, frequency ramp-up, cold caches) that are not
    // emulation throughput and would otherwise swamp short runs.
    for (_, program) in &programs {
        let mut cpu = Cpu::new(config.clone());
        program.load(&mut cpu).expect("corpus program loads");
        cpu.run_batched(500_000_000).expect("corpus program runs");
    }
    let mut cycles = 0u64;
    let mut instructions = 0u64;
    let mut operations = 0u64;
    let mut decode = (0u64, 0u64, 0u64, 0u64);
    let mut trans = (0u64, 0u64, 0u64, 0u64);
    let mut hash = FNV_BASIS;
    // Only execution is timed: processor construction and program
    // loading are setup, not emulation throughput.
    let mut wall = std::time::Duration::ZERO;
    for rep in 0..repeats {
        for (item, program) in &programs {
            let mut cpu = Cpu::new(config.clone());
            let wptr = program.load(&mut cpu).expect("corpus program loads");
            let start = Instant::now();
            let outcome = cpu.run_batched(500_000_000);
            wall += start.elapsed();
            match outcome {
                Ok(RunOutcome::Halted(HaltReason::Stopped)) => {}
                other => panic!(
                    "corpus program {} did not halt cleanly: {other:?}",
                    item.name
                ),
            }
            let value = program
                .read_global(&mut cpu, wptr, item.check_global)
                .expect("check global exists");
            assert_eq!(
                cpu.word_length().to_signed(value),
                item.expected,
                "corpus program {} produced a wrong answer",
                item.name
            );
            let s = cpu.stats();
            cycles += cpu.cycles();
            instructions += s.instructions;
            operations += s.operations;
            decode.0 += s.decode_hits;
            decode.1 += s.decode_misses;
            decode.2 += s.decode_invalidations;
            decode.3 += s.decode_bypasses;
            trans.0 += s.trans_blocks;
            trans.1 += s.trans_enters;
            trans.2 += s.trans_deopts;
            trans.3 += s.trans_invalidations;
            if rep == 0 {
                fnv1a(&mut hash, u64::from(value));
                fnv1a(&mut hash, cpu.cycles());
                fnv1a(&mut hash, s.instructions);
            }
        }
    }
    CpuRun {
        decode_cache,
        translate,
        wall_ms: wall.as_secs_f64() * 1e3,
        cycles,
        instructions,
        decode,
        trans,
        tier_share: tier_share(decode, trans, operations),
        fingerprint: hash,
    }
}

/// The e09 topology with a trimmed database: seconds, not minutes,
/// under the per-instruction engine in debug builds.
pub fn figure8_smoke() -> DbSearchConfig {
    DbSearchConfig {
        records_per_node: 40,
        requests: 3,
        ..DbSearchConfig::figure8()
    }
}

/// The e10 topology with a trimmed database, for debug-mode
/// determinism sweeps.
pub fn board128_smoke() -> DbSearchConfig {
    DbSearchConfig {
        records_per_node: 12,
        requests: 3,
        ..DbSearchConfig::board128()
    }
}

/// An e16-shaped machine trimmed for debug-mode determinism sweeps:
/// the full dimension count (all four anchor kinds exercised) over the
/// smallest clusters.
pub fn hypercube_smoke() -> HypercubeConfig {
    HypercubeConfig {
        side: 2,
        records_per_node: 12,
        requests: 3,
        ..HypercubeConfig::hypercube256()
    }
}

/// A routed grid trimmed for smoke runs and determinism sweeps: large
/// enough that packets genuinely queue behind each other on interior
/// wires, small enough for debug builds.
pub fn routed_smoke() -> DbSearchConfig {
    DbSearchConfig {
        width: 3,
        height: 3,
        records_per_node: 12,
        requests: 3,
        ..DbSearchConfig::figure8()
    }
}

/// The ≥512-node routed stress shape: a 32×32 grid (1024 transputers
/// plus host nodes) with a thin database, so the run is dominated by
/// router forwarding rather than record scanning.
pub fn grid32x32_stress() -> DbSearchConfig {
    DbSearchConfig {
        width: 32,
        height: 32,
        records_per_node: 20,
        requests: 2,
        ..DbSearchConfig::figure8()
    }
}

/// One-packet corner-to-corner probe over the e17 stress grid's
/// wiring: a single word crosses the 62-hop diagonal of an otherwise
/// idle 32×32 routed grid (1024 transputers), so every recorded hop is
/// a pure, uncontended header-forwarding latency on the machine's
/// longest path. The congested `e17_grid1024` rows measure queueing —
/// wormhole cannot remove a wait behind another packet — while this
/// row isolates what switching itself buys: store-and-forward pays a
/// full packet reassembly per hop, cut-through pays a few byte times.
///
/// # Panics
///
/// Panics if the probe network fails to build, run, or deliver its
/// word — the smoke gate exists to catch exactly that.
pub fn run_long_path(bench: &'static str, switching: Switching, engine: Engine) -> NetRun {
    use transputer::instr::{encode, encode_op, Direct, Op};
    use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
    const SIDE: usize = 32;
    let n = SIDE * SIDE;
    let word: i64 = 0x0BEE_F123;
    let mut b = transputer_net::NetworkBuilder::new(transputer_net::NetworkConfig {
        engine,
        router: RouterConfig {
            switching,
            ..RouterConfig::default()
        },
        ..transputer_net::NetworkConfig::default()
    });
    for _ in 0..n {
        b.add_node();
    }
    b.connect_all(&transputer_net::grid_wires(SIDE, SIDE, 0))
        .enable_router();
    // Corner CPUs talk over their unwired ports: north of (0,0),
    // south of (31,31) — the receiver reads the channel word of link
    // port 2 to match.
    b.add_vc((0, 0), (n - 1, 2));
    let mut net = b.build();

    let mut sender = Vec::new();
    sender.extend(encode(Direct::LoadConstant, word));
    sender.extend(encode(Direct::StoreLocal, 1));
    sender.extend(encode(Direct::LoadLocalPointer, 1));
    sender.extend(encode_op(Op::MinimumInteger));
    sender.extend(encode(Direct::LoadNonLocalPointer, LINK_OUT_BASE as i64));
    sender.extend(encode(Direct::LoadConstant, 4));
    sender.extend(encode_op(Op::OutputMessage));
    sender.extend(encode(Direct::LoadConstant, 1));
    sender.extend(encode_op(Op::HaltSimulation));
    let mut receiver = Vec::new();
    receiver.extend(encode(Direct::LoadLocalPointer, 1));
    receiver.extend(encode_op(Op::MinimumInteger));
    receiver.extend(encode(
        Direct::LoadNonLocalPointer,
        i64::from(LINK_IN_BASE) + 2,
    ));
    receiver.extend(encode(Direct::LoadConstant, 4));
    receiver.extend(encode_op(Op::InputMessage));
    receiver.extend(encode(Direct::LoadConstant, 1));
    receiver.extend(encode_op(Op::HaltSimulation));
    let mut halting = Vec::new();
    halting.extend(encode(Direct::LoadConstant, 1));
    halting.extend(encode_op(Op::HaltSimulation));

    net.node_mut(0)
        .load_boot_program(&sender)
        .expect("probe sender loads");
    for id in 1..n - 1 {
        net.node_mut(id)
            .load_boot_program(&halting)
            .expect("probe transit node loads");
    }
    net.node_mut(n - 1)
        .load_boot_program(&receiver)
        .expect("probe receiver loads");

    let start = Instant::now();
    let out = net
        .run_until_all_halted(1_000_000_000_000)
        .expect("probe runs");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(out, transputer_net::SimOutcome::AllHalted, "probe halts");
    let addr = net.node(n - 1).default_boot_workspace() + 4;
    let got = net
        .node_mut(n - 1)
        .peek_word(addr)
        .expect("probe word peeks");

    net_run(
        bench,
        engine,
        wall_ms,
        net.time_ns(),
        i64::from(got) == word,
        FNV_BASIS,
        &net,
    )
}

/// The switching-ablation pairs in a run set: rows named `<base>_worm`
/// matched with their `<base>` store-and-forward counterparts (the
/// Sliced row of each is quoted, falling back to whichever engine ran).
/// Returns `(base, store_and_forward_row, wormhole_row)` triples.
pub fn switching_pairs(networks: &[NetRun]) -> Vec<(&str, &NetRun, &NetRun)> {
    let quoted = |bench: &str| {
        networks
            .iter()
            .filter(|r| r.bench == bench && r.router.is_some())
            .find(|r| r.engine == Engine::Sliced)
            .or_else(|| {
                networks
                    .iter()
                    .find(|r| r.bench == bench && r.router.is_some())
            })
    };
    let mut benches: Vec<&str> = networks.iter().map(|r| r.bench).collect();
    benches.dedup();
    let mut pairs = Vec::new();
    for bench in benches {
        let Some(base) = bench.strip_suffix("_worm") else {
            continue;
        };
        if let (Some(sf), Some(worm)) = (quoted(base), quoted(bench)) {
            pairs.push((base, sf, worm));
        }
    }
    pairs
}

/// Default per-packet fault rate for the faulted benchmark variants:
/// drop, corruption, and jitter each at one packet in ten thousand.
pub const FAULT_RATE_DEFAULT: f64 = 1e-4;

/// Default fault seed (the paper's year, matching the workload seed).
pub const FAULT_SEED_DEFAULT: u64 = 1985;

/// Fault plan selected by the `FAULT_RATE` / `FAULT_SEED` environment
/// variables; `None` when `FAULT_RATE` is unset, unparsable, or zero.
/// The experiment binaries (e09, e10) consult this so the whole report
/// can be regenerated under injected link faults.
pub fn fault_plan_from_env() -> Option<FaultPlan> {
    let rate: f64 = std::env::var("FAULT_RATE").ok()?.parse().ok()?;
    if rate <= 0.0 {
        return None;
    }
    let seed = std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(FAULT_SEED_DEFAULT);
    Some(FaultPlan::uniform(seed, rate))
}

/// Outcome checks over a set of runs of the *same* benchmark: all
/// answers correct and every fingerprint identical. Returns error lines,
/// empty when healthy.
pub fn cross_check(runs: &[NetRun]) -> Vec<String> {
    let mut problems = Vec::new();
    for r in runs {
        if !r.answers_ok {
            problems.push(format!("{} [{:?}]: wrong answers", r.bench, r.engine));
        }
    }
    if let Some(first) = runs.first() {
        for r in &runs[1..] {
            if r.fingerprint != first.fingerprint {
                problems.push(format!(
                    "{}: {:?} fingerprint {:016x} != {:?} fingerprint {:016x}",
                    r.bench, r.engine, r.fingerprint, first.engine, first.fingerprint
                ));
            }
        }
    }
    problems
}

/// A processor's complete memory image.
///
/// # Panics
///
/// Panics if the memory refuses to dump its own extent.
pub fn full_image(cpu: &Cpu) -> Vec<u8> {
    let base = cpu.memory().base();
    let len = cpu.memory().size() as usize;
    cpu.memory().dump(base, len).expect("whole memory dumps")
}

/// The exhaustive form of [`cross_check`]: one run must match the
/// reference run on every observable — answers, arrival times, the
/// stats audit, per-node halt cycles, instruction counters, link fault
/// counters, memory images, and per-wire delivered-byte counters.
///
/// # Panics
///
/// Panics naming the first observable that differs.
pub fn assert_run_matches(
    label: &str,
    sim: &DbSearch,
    report: &DbSearchReport,
    base_sim: &DbSearch,
    base_report: &DbSearchReport,
) {
    let net = sim.network();
    let base_net = base_sim.network();
    assert_eq!(report.answers, base_report.answers, "{label}: answers");
    assert_eq!(
        report.answer_times_ns, base_report.answer_times_ns,
        "{label}: answer arrival times"
    );
    assert_eq!(
        report.total_instructions, base_report.total_instructions,
        "{label}: stats audit (instruction totals)"
    );
    assert_eq!(net.len(), base_net.len());
    for id in 0..net.len() {
        assert_eq!(
            net.node(id).cycles(),
            base_net.node(id).cycles(),
            "{label}: node {id} halt cycle count"
        );
        assert_eq!(
            net.node(id).stats().instructions,
            base_net.node(id).stats().instructions,
            "{label}: node {id} instruction counter"
        );
        assert_eq!(
            net.node(id).stats().link_retries,
            base_net.node(id).stats().link_retries,
            "{label}: node {id} retry counter"
        );
        assert_eq!(
            net.node(id).stats().link_rx_errors,
            base_net.node(id).stats().link_rx_errors,
            "{label}: node {id} rx-error counter"
        );
        assert_eq!(
            full_image(net.node(id)),
            full_image(base_net.node(id)),
            "{label}: node {id} memory image"
        );
    }
    assert_eq!(net.wire_count(), base_net.wire_count());
    for w in 0..net.wire_count() {
        assert_eq!(
            net.wire_delivered(w),
            base_net.wire_delivered(w),
            "{label}: wire {w} delivered-byte counters"
        );
    }
}

/// Build a search machine under each engine (usually
/// [`Machine::build`]), run it, and hold Sliced to
/// the Event oracle on every observable of [`assert_run_matches`].
/// `check` asserts whatever else the row promises of *each* run (that
/// faults fired, that the wire died).
///
/// # Panics
///
/// Panics if a run fails, answers wrongly, fails `check`, or the two
/// engines differ on any observable.
pub fn sweep_engines(
    label: &str,
    build: impl Fn(Engine) -> DbSearch,
    check: impl Fn(&DbSearch, &DbSearchReport),
) {
    let run = |engine| {
        let mut sim = build(engine);
        let report = sim.run(1_000_000_000_000).expect("runs");
        assert!(
            report.all_correct(),
            "{label} {engine:?}: answers {:?} != expected {:?}",
            report.answers,
            report.expected
        );
        check(&sim, &report);
        (sim, report)
    };
    let (event, event_report) = run(Engine::Event);
    let (sliced, sliced_report) = run(Engine::Sliced);
    assert_run_matches(label, &sliced, &sliced_report, &event, &event_report);
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The static cost model checked against the emulator on one program.
#[derive(Debug, Clone)]
pub struct StaticModelRun {
    /// Validation-corpus program name.
    pub name: &'static str,
    /// Cycles the model predicts, `None` when it refuses the program.
    pub predicted: Option<u64>,
    /// Cycles the emulator measured.
    pub measured: u64,
}

impl StaticModelRun {
    /// |predicted − measured| / measured, in percent; `None` when the
    /// model refused.
    pub fn error_pct(&self) -> Option<f64> {
        self.predicted
            .map(|p| 100.0 * (p as f64 - self.measured as f64).abs() / self.measured as f64)
    }
}

/// Largest model-vs-measured cycle error tolerated, in percent.
pub const STATIC_MODEL_ERROR_LIMIT: f64 = 5.0;

/// Run the static cycle-cost model against the emulator over the
/// compute-class validation corpus ([`corpus::STATIC_MODEL_CORPUS`]).
/// Returns one row per program; `problems` gains a line for every
/// refusal or error beyond [`STATIC_MODEL_ERROR_LIMIT`].
pub fn static_model_runs(problems: &mut Vec<String>) -> Vec<StaticModelRun> {
    let mut runs = Vec::new();
    for item in corpus::STATIC_MODEL_CORPUS {
        let program = occam::compile(item.source).expect("validation program compiles");
        let mut cpu = Cpu::new(CpuConfig::t424());
        program.load(&mut cpu).expect("validation program loads");
        match cpu.run(500_000_000).expect("validation program runs") {
            RunOutcome::Halted(HaltReason::Stopped) => {}
            other => panic!("validation program did not halt cleanly: {other:?}"),
        }
        let measured = cpu.cycles();
        let predicted = match transputer_analysis::cost::analyze_program(
            &program,
            transputer::WordLength::Bits32,
        ) {
            Ok(report) => Some(report.cycles),
            Err(e) => {
                problems.push(format!("static_model: {} refused: {e}", item.name));
                None
            }
        };
        let run = StaticModelRun {
            name: item.name,
            predicted,
            measured,
        };
        if let Some(err) = run.error_pct() {
            if err > STATIC_MODEL_ERROR_LIMIT {
                problems.push(format!(
                    "static_model: {} off by {err:.3}% (limit {STATIC_MODEL_ERROR_LIMIT}%)",
                    item.name
                ));
            }
        }
        runs.push(run);
    }
    runs
}

/// Outcome checks over CPU-corpus runs: every tier combination
/// (translated, decode-cache only, neither) must fingerprint
/// identically. Returns error lines, empty when healthy.
pub fn cpu_cross_check(runs: &[CpuRun]) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(first) = runs.first() {
        for r in &runs[1..] {
            if r.fingerprint != first.fingerprint {
                problems.push(format!(
                    "cpu_corpus: decode_cache={}/translate={} fingerprint {:016x} != \
                     decode_cache={}/translate={} fingerprint {:016x}",
                    r.decode_cache,
                    r.translate,
                    r.fingerprint,
                    first.decode_cache,
                    first.translate,
                    first.fingerprint
                ));
            }
        }
    }
    problems
}

/// Pull the committed cache-on, translation-off CPU-corpus emulated
/// MIPS out of a `BENCH_host.json` rendered by [`to_json`] (hand-rolled
/// companion to the hand-rolled renderer). Files from before the
/// translation tier carry no `"translate"` key and read as
/// translation-off. `None` when the file predates the `cpu` section or
/// the number fails to parse.
pub fn baseline_cpu_mips(json: &str) -> Option<f64> {
    let entry = json.lines().find(|l| {
        l.contains("\"decode_cache\": true")
            && l.contains("\"emulated_mips\"")
            && !l.contains("\"translate\": true")
    })?;
    parse_field(entry, "emulated_mips")
}

/// Pull the committed translated-tier emulated MIPS out of the
/// `"translated"` section of a `BENCH_host.json`. `None` when the file
/// predates the translation tier.
pub fn baseline_translated_mips(json: &str) -> Option<f64> {
    let entry = json
        .lines()
        .find(|l| l.contains("\"translated\":") && l.contains("\"emulated_mips\""))?;
    parse_field(entry, "emulated_mips")
}

/// The CPU-corpus MIPS baseline the history ratchet may compare this
/// run against: the last history entry's `cpu_mips`, but only when that
/// entry was produced on a host with the same logical core count.
/// Emulated MIPS is a property of the machine as much as of the code,
/// so comparing across runners with different core counts (CI regularly
/// mixes them) manufactures phantom regressions. Entries that predate
/// the `host_cores` field are compared as before — they cannot be told
/// apart, and silently skipping them would disable the ratchet on old
/// histories.
pub fn history_ratchet_mips(jsonl: &str, current_cores: usize) -> Option<f64> {
    let line = jsonl.lines().rev().find(|l| !l.trim().is_empty())?;
    if let Some(last_cores) = parse_field(line, "host_cores") {
        if last_cores as usize != current_cores {
            return None;
        }
    }
    parse_field(line, "cpu_mips")
}

fn parse_field(line: &str, field: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{field}\": ")).nth(1)?;
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Non-test source lines per crate: over every `crates/<name>/src/**/*.rs`
/// below the current directory, the lines above the file's first
/// `#[cfg(test)]`. The trend the ROADMAP's shrink item is tracked by;
/// it feeds no fingerprint.
pub fn source_lines() -> Vec<(String, usize)> {
    fn count(dir: &std::path::Path) -> usize {
        let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
        let above_tests = |text: String| {
            let code = |l: &&str| !l.trim_start().starts_with("#[cfg(test)]");
            text.lines().take_while(code).count()
        };
        entries
            .map(|e| e.path())
            .map(|p| match p.extension() {
                _ if p.is_dir() => count(&p),
                Some(x) if x == "rs" => std::fs::read_to_string(&p).map_or(0, above_tests),
                _ => 0,
            })
            .sum()
    }
    let crates = std::fs::read_dir("crates").into_iter().flatten().flatten();
    let mut rows: Vec<(String, usize)> = crates
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .map(|(name, path)| (name, count(&path.join("src"))))
        .collect();
    rows.sort();
    rows
}

/// Render the report as JSON (hand-rolled: no serialisation deps).
pub fn to_json(
    smoke: bool,
    experiments: &[(String, f64)],
    cpu_runs: &[CpuRun],
    static_model: &[StaticModelRun],
    networks: &[NetRun],
    source_lines: &[(String, usize)],
    problems: &[String],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str("  \"experiments\": [\n");
    for (i, (name, wall_ms)) in experiments.iter().enumerate() {
        let comma = if i + 1 < experiments.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_ms\": {wall_ms:.1}}}{comma}\n",
            json_escape(name)
        ));
    }
    out.push_str("  ],\n  \"cpu\": [\n");
    for (i, r) in cpu_runs.iter().enumerate() {
        let comma = if i + 1 < cpu_runs.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"decode_cache\": {}, \"translate\": {}, \"wall_ms\": {:.1}, \
             \"cycles\": {}, \
             \"instructions\": {}, \"emulated_mips\": {:.2}, \"decode_hits\": {}, \
             \"decode_misses\": {}, \"decode_invalidations\": {}, \
             \"decode_bypasses\": {}, \"trans_blocks\": {}, \"trans_enters\": {}, \
             \"trans_deopts\": {}, \"trans_invalidations\": {}, \
             \"tier_share\": {:.3}, \"fingerprint\": \"{:016x}\"}}{comma}\n",
            r.decode_cache,
            r.translate,
            r.wall_ms,
            r.cycles,
            r.instructions,
            r.emulated_mips(),
            r.decode.0,
            r.decode.1,
            r.decode.2,
            r.decode.3,
            r.trans.0,
            r.trans.1,
            r.trans.2,
            r.trans.3,
            r.tier_share,
            r.fingerprint,
        ));
    }
    // Single-line summary of the translated tier against the
    // decode-cache-only baseline from the same sweep, so line-scraping
    // baseline parsers keep working. `null` when the sweep skipped the
    // translated tier.
    let translated = cpu_runs.iter().find(|r| r.translate);
    let decode_only = cpu_runs.iter().find(|r| r.decode_cache && !r.translate);
    match (translated, decode_only) {
        (Some(t), Some(d)) => out.push_str(&format!(
            "  ],\n  \"translated\": {{\"emulated_mips\": {:.2}, \
             \"baseline_decode_mips\": {:.2}, \"speedup\": {:.2}, \
             \"trans_blocks\": {}, \"trans_enters\": {}, \"trans_deopts\": {}, \
             \"trans_invalidations\": {}, \"fingerprint\": \"{:016x}\"}},\n",
            t.emulated_mips(),
            d.emulated_mips(),
            t.emulated_mips() / d.emulated_mips(),
            t.trans.0,
            t.trans.1,
            t.trans.2,
            t.trans.3,
            t.fingerprint,
        )),
        _ => out.push_str("  ],\n  \"translated\": null,\n"),
    }
    out.push_str("  \"static_model\": [\n");
    for (i, r) in static_model.iter().enumerate() {
        let comma = if i + 1 < static_model.len() { "," } else { "" };
        let predicted = r.predicted.map_or("null".to_string(), |p| p.to_string());
        let error = r
            .error_pct()
            .map_or("null".to_string(), |e| format!("{e:.3}"));
        out.push_str(&format!(
            "    {{\"program\": \"{}\", \"predicted_cycles\": {predicted}, \
             \"measured_cycles\": {}, \"error_pct\": {error}}}{comma}\n",
            json_escape(r.name),
            r.measured,
        ));
    }
    out.push_str("  ],\n  \"networks\": [\n");
    for (i, r) in networks.iter().enumerate() {
        let comma = if i + 1 < networks.len() { "," } else { "" };
        let cut_through = r.cut_through.map_or("null".to_string(), |c| c.to_string());
        let router = r.router.map_or("null".to_string(), |s| {
            format!(
                "{{\"packets_sent\": {}, \"packets_forwarded\": {}, \
                 \"packets_delivered\": {}, \"packets_dropped\": {}, \
                 \"hops\": {}, \"mean_hop_ns\": {}, \"p50_hop_ns\": {}, \
                 \"p99_hop_ns\": {}, \"max_hop_ns\": {}, \
                 \"cut_through\": {cut_through}}}",
                s.packets_sent,
                s.packets_forwarded,
                s.packets_delivered,
                s.packets_dropped,
                s.hops,
                s.mean_hop_ns(),
                s.p50_hop_ns(),
                s.p99_hop_ns(),
                s.max_hop_ns,
            )
        });
        out.push_str(&format!(
            "    {{\"bench\": \"{}\", \"engine\": \"{:?}\", \"wall_ms\": {:.1}, \
             \"sim_ns\": {}, \"cycles\": {}, \"instructions\": {}, \
             \"sim_cycles_per_sec\": {:.0}, \"emulated_mips\": {:.2}, \
             \"decode_hits\": {}, \"decode_misses\": {}, \"decode_invalidations\": {}, \
             \"decode_bypasses\": {}, \"trans_blocks\": {}, \"trans_enters\": {}, \
             \"trans_deopts\": {}, \"trans_invalidations\": {}, \
             \"host_cores\": {}, \"node_pops\": {}, \"wire_pops\": {}, \
             \"stale_wire_pops\": {}, \"ns_per_pop\": {:.1}, \"instr_per_pop\": {:.1}, \
             \"tier_share\": {:.3}, \"router\": {router}, \
             \"answers_ok\": {}, \"fingerprint\": \"{:016x}\"}}{comma}\n",
            r.bench,
            r.engine,
            r.wall_ms,
            r.sim_ns,
            r.cycles,
            r.instructions,
            r.cycles_per_sec(),
            r.emulated_mips(),
            r.decode.0,
            r.decode.1,
            r.decode.2,
            r.decode.3,
            r.trans.0,
            r.trans.1,
            r.trans.2,
            r.trans.3,
            r.host_cores,
            r.pops.node,
            r.pops.wire,
            r.pops.stale_wire,
            // What one heap event cost this host: wall time over every
            // entry popped, stale ones included.
            r.wall_ms * 1e6 / (r.pops.node + r.pops.wire) as f64,
            // How long a node runs between heap entries.
            r.instructions as f64 / r.pops.node as f64,
            r.tier_share,
            r.answers_ok,
            r.fingerprint,
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    let mut lines = Vec::new();
    let benches: Vec<&str> = {
        let mut b: Vec<&str> = networks.iter().map(|r| r.bench).collect();
        b.dedup();
        b
    };
    for bench in benches {
        let event = networks
            .iter()
            .find(|r| r.bench == bench && r.engine == Engine::Event);
        let sliced = networks
            .iter()
            .find(|r| r.bench == bench && r.engine == Engine::Sliced);
        let Some(s) = sliced else { continue };
        let mut entry = format!(
            "    {{\"bench\": \"{bench}\", \"sliced_wall_ms\": {:.1}",
            s.wall_ms
        );
        if let Some(e) = event {
            entry.push_str(&format!(
                ", \"event_wall_ms\": {:.1}, \"speedup\": {:.2}, \"identical\": {}",
                e.wall_ms,
                e.wall_ms / s.wall_ms,
                e.fingerprint == s.fingerprint,
            ));
        }
        entry.push('}');
        lines.push(entry);
    }
    out.push_str(&lines.join(",\n"));
    if !lines.is_empty() {
        out.push('\n');
    }
    out.push_str("  ],\n  \"switching\": [\n");
    let mut lines = Vec::new();
    for (base, sf, worm) in switching_pairs(networks) {
        let (s, w) = (sf.router.unwrap(), worm.router.unwrap());
        let ratio = |a: u64, b: u64| {
            if b == 0 {
                "null".to_string()
            } else {
                format!("{:.2}", a as f64 / b as f64)
            }
        };
        lines.push(format!(
            "    {{\"bench\": \"{base}\", \"sf_mean_hop_ns\": {}, \
             \"sf_p50_hop_ns\": {}, \"sf_p99_hop_ns\": {}, \"sf_max_hop_ns\": {}, \
             \"worm_mean_hop_ns\": {}, \"worm_p50_hop_ns\": {}, \
             \"worm_p99_hop_ns\": {}, \"worm_max_hop_ns\": {}, \
             \"mean_reduction\": {}, \"p99_reduction\": {}, \
             \"worm_cut_through\": {}}}",
            s.mean_hop_ns(),
            s.p50_hop_ns(),
            s.p99_hop_ns(),
            s.max_hop_ns,
            w.mean_hop_ns(),
            w.p50_hop_ns(),
            w.p99_hop_ns(),
            w.max_hop_ns,
            ratio(s.mean_hop_ns(), w.mean_hop_ns()),
            ratio(s.p99_hop_ns(), w.p99_hop_ns()),
            worm.cut_through
                .map_or("null".to_string(), |c| c.to_string()),
        ));
    }
    out.push_str(&lines.join(",\n"));
    if !lines.is_empty() {
        out.push('\n');
    }
    let rows: Vec<String> = source_lines
        .iter()
        .map(|(name, lines)| format!("\"{}\": {lines}", json_escape(name)))
        .collect();
    out.push_str(&format!(
        "  ],\n  \"source_lines\": {{{}}},\n  \"problems\": [\n",
        rows.join(", ")
    ));
    for (i, p) in problems.iter().enumerate() {
        let comma = if i + 1 < problems.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\"{comma}\n", json_escape(p)));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_engines_agree_and_json_renders() {
        let runs: Vec<NetRun> = [Engine::Event, Engine::Sliced]
            .into_iter()
            .map(|e| Machine::Tree(figure8_smoke()).run("e09_figure8_smoke", e))
            .collect();
        let problems = cross_check(&runs);
        assert!(problems.is_empty(), "{problems:?}");
        let json = to_json(true, &[], &[], &[], &runs, &[], &problems);
        assert!(json.contains("\"speedup\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"node_pops\""));
        assert!(json.contains("\"ns_per_pop\""));
        assert!(json.contains("\"instr_per_pop\""));
        assert!(json.contains("\"tier_share\""));
    }

    #[test]
    fn routed_smoke_engines_agree_and_json_carries_router_stats() {
        let runs: Vec<NetRun> = [Engine::Event, Engine::Sliced]
            .into_iter()
            .map(|e| Machine::Routed(routed_smoke()).run("e17_routed_smoke", e))
            .collect();
        let problems = cross_check(&runs);
        assert!(problems.is_empty(), "{problems:?}");
        for r in &runs {
            let stats = r.router.expect("routed run must carry router stats");
            assert!(stats.packets_delivered > 0, "{:?}", r.engine);
            assert_eq!(stats.packets_dropped, 0, "{:?}", r.engine);
        }
        let json = to_json(true, &[], &[], &[], &runs, &[], &problems);
        assert!(json.contains("\"router\": {\"packets_sent\""));
        assert!(json.contains("\"mean_hop_ns\""));
    }

    /// Slice length pinned as a count, not a stopwatch. A node that is
    /// only computing runs past its wires to its own next link
    /// instruction, so on the trimmed machines — about 70 instructions
    /// between link instructions — Sliced pops 4.2 node entries per 100
    /// instructions (routed cube 2 579 for 61 884, board 4 512 for
    /// 106 133; bounded by every wire they took 19.6 and 11.1). A node
    /// cut at its wires again trips the ceiling of 5 per 100 on any host.
    fn assert_slices_stay_long(r: &NetRun) {
        assert!(r.answers_ok);
        assert!(
            r.pops.node * 100 <= r.instructions * 5,
            "{} node pops for {} instructions",
            r.pops.node,
            r.instructions
        );
    }

    #[test]
    fn routed_cube_slices_stay_long() {
        let r = Machine::RoutedCube(hypercube_smoke()).run("routed_cube_smoke", Engine::Sliced);
        assert_eq!(r.pops.wire, 42_016, "wire pops are simulated events");
        assert_slices_stay_long(&r);
    }

    #[test]
    fn board_slices_stay_long() {
        let r = Machine::Tree(board128_smoke()).run("board128_smoke", Engine::Sliced);
        assert_eq!(
            r.pops.wire - r.pops.stale_wire,
            8_602,
            "drained wire pops are simulated events"
        );
        assert_slices_stay_long(&r);
    }

    /// The translation tier pinned by its cause, as a count: warm code
    /// stays in translated blocks. `decode_hits` are re-executions
    /// through the decode loop (`decode_misses` are cold first visits
    /// and dominate a run this short: 9 150, before and after); the
    /// trimmed board read 23 416 of them when the operations after a
    /// `cj` not taken, a `j 0` or a `lend` falling through were not
    /// block leaders, and reads 653 now — the ceiling is under a tenth
    /// of the first figure.
    #[test]
    fn board_warm_code_stays_translated() {
        let mut board = board128_smoke();
        // Whatever the `TRANSLATE` hook says.
        board.net.cpu = board.net.cpu.with_translate(true);
        let r = Machine::Tree(board).run("board128_smoke", Engine::Sliced);
        assert!(r.answers_ok);
        assert!(r.decode.0 <= 2_000, "decode hits {:?}", r.decode);
        assert!(r.tier_share > 0.8, "tier share {}", r.tier_share);
    }

    #[test]
    fn long_path_probe_shows_the_cut_through_win() {
        // The tentpole pair: on the idle 62-hop diagonal, wormhole must
        // at least halve the mean header-forwarding hop latency, and
        // the pair must surface in the switching section of the JSON.
        let sf = run_long_path(
            "e17_longpath1024",
            Switching::StoreAndForward,
            Engine::Sliced,
        );
        let worm = run_long_path("e17_longpath1024_worm", Switching::Wormhole, Engine::Sliced);
        assert!(sf.answers_ok && worm.answers_ok, "probe word must arrive");
        assert_eq!(worm.cut_through, Some(true), "grid CDG must prove acyclic");
        let (s, w) = (sf.router.unwrap(), worm.router.unwrap());
        assert_eq!(s.packets_delivered, 1);
        assert_eq!(w.packets_delivered, 1);
        assert!(
            s.mean_hop_ns() >= 2 * w.mean_hop_ns(),
            "long-path hop latency must at least halve: sf {} vs wormhole {}",
            s.mean_hop_ns(),
            w.mean_hop_ns()
        );
        let runs = vec![sf, worm];
        let pairs = switching_pairs(&runs);
        assert_eq!(pairs.len(), 1, "probe rows must pair for the SWITCH table");
        assert_eq!(pairs[0].0, "e17_longpath1024");
        let json = to_json(true, &[], &[], &[], &runs, &[], &[]);
        assert!(json.contains("\"switching\""));
        assert!(json.contains("\"p99_hop_ns\""));
        assert!(json.contains("\"cut_through\": true"));
    }

    #[test]
    fn unrouted_rows_render_null_router() {
        let run = Machine::Tree(figure8_smoke()).run("e09_figure8_smoke", Engine::Sliced);
        assert!(run.router.is_none());
        let json = to_json(true, &[], &[], &[], &[run], &[], &[]);
        assert!(json.contains("\"router\": null"));
    }

    #[test]
    fn history_ratchet_skips_mismatched_host_cores() {
        let same = "{\"cpu_mips\": 4.00, \"host_cores\": 8}\n";
        assert_eq!(history_ratchet_mips(same, 8), Some(4.0));
        let different = "{\"cpu_mips\": 4.00, \"host_cores\": 2}\n";
        assert_eq!(history_ratchet_mips(different, 8), None);
        // Pre-host_cores history lines keep ratcheting as before.
        let legacy = "{\"cpu_mips\": 4.00}\n";
        assert_eq!(history_ratchet_mips(legacy, 8), Some(4.0));
        // Only the *last* line counts — older mismatches are irrelevant.
        let mixed = "{\"cpu_mips\": 9.00, \"host_cores\": 2}\n\
                     {\"cpu_mips\": 4.00, \"host_cores\": 8}\n";
        assert_eq!(history_ratchet_mips(mixed, 8), Some(4.0));
        assert_eq!(history_ratchet_mips("", 8), None);
    }

    #[test]
    fn cpu_corpus_cache_is_transparent_and_effective() {
        let trans = cpu_corpus_bench(true, true, 1);
        let on = cpu_corpus_bench(true, false, 1);
        let off = cpu_corpus_bench(false, false, 1);
        let problems = cpu_cross_check(&[trans.clone(), on.clone(), off.clone()]);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(on.cycles, off.cycles);
        assert_eq!(on.instructions, off.instructions);
        assert_eq!(trans.cycles, off.cycles);
        assert!(on.decode.0 > 0, "cache-on run recorded no hits");
        assert_eq!(off.decode, (0, 0, 0, 0), "cache-off run touched the cache");
        assert!(trans.trans.1 > 0, "translated run never entered a block");
        assert_eq!(on.trans, (0, 0, 0, 0), "translation-off run built blocks");
        let json = to_json(
            true,
            &[],
            &[trans.clone(), on.clone(), off],
            &[],
            &[],
            &[("net".to_string(), 7)],
            &problems,
        );
        assert!(json.contains("\"source_lines\": {\"net\": 7},"));
        assert!(json.contains("\"decode_cache\": true"));
        let baseline = baseline_cpu_mips(&json).expect("cpu section parses back");
        assert!((baseline - (on.emulated_mips() * 100.0).round() / 100.0).abs() < 0.01);
        let tmips = baseline_translated_mips(&json).expect("translated section parses back");
        assert!((tmips - (trans.emulated_mips() * 100.0).round() / 100.0).abs() < 0.01);
    }

    #[test]
    fn translated_section_is_null_without_a_translated_run() {
        let json = to_json(true, &[], &[], &[], &[], &[], &[]);
        assert!(json.contains("\"translated\": null"));
        assert!(baseline_translated_mips(&json).is_none());
    }

    #[test]
    fn static_model_is_exact_and_renders() {
        let mut problems = Vec::new();
        let runs = static_model_runs(&mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(runs.len(), corpus::STATIC_MODEL_CORPUS.len());
        for r in &runs {
            assert_eq!(
                r.predicted,
                Some(r.measured),
                "static model drifted on `{}`",
                r.name
            );
        }
        let json = to_json(true, &[], &[], &runs, &[], &[], &problems);
        assert!(json.contains("\"static_model\""));
        assert!(json.contains("\"error_pct\": 0.000"));
    }
}
