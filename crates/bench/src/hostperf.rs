//! The exact ledger: everything the repository records about itself
//! that is a count and not a time, written to `BENCH_host.json`.
//!
//! The names `hostperf` and `BENCH_host.json` are historical. This
//! module once timed the simulator; host wall time is now taken in one
//! place only — `benchmark/`, the system benchmark `BENCHMARK.json`
//! declares — and nothing under `crates/` reads a clock. What is left is
//! the same on every host: outcome fingerprints under both engines
//! (clean, faulted, routed), simulated cycles and nanoseconds, heap-pop
//! counts, slice length (`instr_per_pop`), the share of operations run
//! in translated blocks (`tier_share`), translation-tier counters,
//! router hop latencies, the static cost model against the
//! emulator, the paper's design-choice ablations and non-test source
//! lines per crate. The file is therefore reproducible to the byte: CI
//! regenerates it and fails on `git diff`, and `git log -p
//! BENCH_host.json` is its history.

use transputer::{Cpu, CpuConfig, HaltReason, RunOutcome, WordLength};
use transputer_apps::dbsearch::{DbSearch, DbSearchConfig, DbSearchReport, HypercubeConfig};
use transputer_link::FaultPlan;
use transputer_net::{Engine, Network, NetworkConfig, PopCounts, RouterConfig, Switching};

use crate::ablations::{ablations, Ablation};
use crate::corpus;
use crate::json::Json;

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

/// What a run's processors did, summed over them. The tier counters —
/// what the translation tier did — are host-side: deterministic, but
/// outside the simulated machine, so excluded from every fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated processor cycles.
    pub cycles: u64,
    /// Instruction bytes executed.
    pub instructions: u64,
    /// Logical operations executed.
    pub operations: u64,
    /// Operations run outside translated blocks while the tier was on:
    /// the ones it found in no block and left to the byte path.
    pub decode_misses: u64,
    /// Hot basic blocks compiled to threaded code.
    pub trans_blocks: u64,
    /// Entries into a translated block.
    pub trans_enters: u64,
    /// Translated blocks left before their last operation.
    pub trans_deopts: u64,
    /// Translated blocks discarded because their code moved.
    pub trans_invalidations: u64,
}

impl Counters {
    fn add(&mut self, cpu: &Cpu) {
        let s = cpu.stats();
        self.cycles += cpu.cycles();
        self.instructions += s.instructions;
        self.operations += s.operations;
        self.decode_misses += s.decode_misses;
        self.trans_blocks += s.trans_blocks;
        self.trans_enters += s.trans_enters;
        self.trans_deopts += s.trans_deopts;
        self.trans_invalidations += s.trans_invalidations;
    }

    /// The share of operations executed in translated blocks: all bar
    /// those run outside them (the byte path's few at a budget, a fence,
    /// a busy timer queue or off-chip code count as translated). 0 when
    /// no block was ever entered — the Event
    /// engine steps, and a tier that is off translates nothing. Warm code
    /// that falls out of the tier shows here before it shows on a
    /// stopwatch.
    pub fn tier_share(&self) -> f64 {
        if self.trans_enters == 0 || self.operations == 0 {
            return 0.0;
        }
        1.0 - self.decode_misses as f64 / self.operations as f64
    }

    fn json(&self) -> [(&'static str, Json); 7] {
        [
            ("cycles", self.cycles.into()),
            ("instructions", self.instructions.into()),
            ("decode_misses", self.decode_misses.into()),
            ("trans_blocks", self.trans_blocks.into()),
            ("trans_enters", self.trans_enters.into()),
            ("trans_deopts", self.trans_deopts.into()),
            ("trans_invalidations", self.trans_invalidations.into()),
        ]
    }
}

/// One network simulation.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// Which benchmark network ran.
    pub bench: &'static str,
    /// Engine used.
    pub engine: Engine,
    /// Simulated nanoseconds elapsed.
    pub sim_ns: u64,
    /// Whether every search answer matched the reference.
    pub answers_ok: bool,
    /// FNV-1a hash over answers, answer times, per-node halt cycles and
    /// instruction counters, and per-wire delivered-byte counters. Equal
    /// fingerprints mean bit-identical simulated outcomes.
    pub fingerprint: u64,
    /// Cycles, instructions and tier counters over all nodes.
    pub counters: Counters,
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
    /// Whether wormhole cut-through was armed (it is fixed at build),
    /// `None` on unrouted networks. `Some(false)` on a run configured
    /// for wormhole means the router forwarded store-and-forward: the
    /// network has a fault plan, or the router proved the topology's
    /// channel-dependency graph cyclic (the cluster hypercube's e-cube
    /// tables do this). Host-side only, excluded from the fingerprint.
    pub cut_through: Option<bool>,
    /// Processors in the network.
    pub nodes: usize,
    /// Bytes of memory image the processors had materialised when the
    /// run ended ([`transputer::Memory::resident_bytes`]), summed: what
    /// the network's memory costs the host. Host-side only, excluded
    /// from the fingerprint.
    pub mem_bytes: u64,
}

impl NetRun {
    /// How long a node runs between heap entries: instruction bytes per
    /// node pop (1 under Event; slice length under Sliced).
    pub fn instr_per_pop(&self) -> f64 {
        self.counters.instructions as f64 / self.pops.node as f64
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
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
    /// hop under flit-level withheld-ack credits.
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

    /// Build this machine under `engine`, run its search, and
    /// fingerprint every engine-visible outcome.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to build or faults while running — a
    /// panic here is exactly what the gate exists to catch.
    pub fn run(self, bench: &'static str, engine: Engine) -> NetRun {
        let mut sim = self.build(engine);
        let report = sim
            .run(100_000_000_000_000)
            .expect("benchmark network runs");

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
    sim_ns: u64,
    answers_ok: bool,
    mut hash: u64,
    net: &Network,
) -> NetRun {
    let mut counters = Counters::default();
    let mut mem_bytes = 0;
    for id in 0..net.len() {
        let node = net.node(id);
        counters.add(node);
        mem_bytes += node.memory().resident_bytes() as u64;
        fnv1a(&mut hash, node.cycles());
        fnv1a(&mut hash, node.stats().instructions);
    }
    for w in 0..net.wire_count() {
        let (a, b) = net.wire_delivered(w);
        fnv1a(&mut hash, a);
        fnv1a(&mut hash, b);
    }
    NetRun {
        bench,
        engine,
        sim_ns,
        answers_ok,
        fingerprint: hash,
        counters,
        pops: net.pop_counts(),
        router: net.router_stats(),
        cut_through: net.router_cut_through(),
        nodes: net.len(),
        mem_bytes,
    }
}

/// One sweep of the occam corpus on a standalone processor: the CPU
/// tiers alone, without any network scheduling in the way.
#[derive(Debug, Clone)]
pub struct CpuRun {
    /// The part's word length: the T424's 32 bits or the T222's 16.
    pub word: WordLength,
    /// Whether the threaded-code translation tier was enabled.
    pub translate: bool,
    /// Cycles, instructions and tier counters over all programs.
    pub counters: Counters,
    /// FNV-1a hash over each program's result word, halt cycle count and
    /// instruction count. Every tier combination must produce equal
    /// fingerprints.
    pub fingerprint: u64,
}

/// Run every corpus program once on a fresh processor of `config`
/// through the batched engine. A 16-bit part runs the programs E15 holds
/// to the same answer on both parts (`word16_safe`): the others' answers
/// depend on overflow, and byte-checksum's overruns its vector, wraps
/// past the top of memory and writes over its own code.
///
/// # Panics
///
/// Panics if a corpus program fails to compile, halt cleanly, or
/// produce its expected answer — wrong results must never become a row.
pub fn cpu_corpus_bench(config: &CpuConfig) -> CpuRun {
    let mut counters = Counters::default();
    let mut hash = FNV_BASIS;
    let word16 = config.word == WordLength::Bits16;
    for item in corpus::CORPUS
        .iter()
        .filter(|item| !word16 || item.word16_safe)
    {
        let program = occam::compile(item.source).expect("corpus program compiles");
        let mut cpu = Cpu::new(config.clone());
        let wptr = program.load(&mut cpu).expect("corpus program loads");
        match cpu.run_batched(500_000_000) {
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
            "corpus program {} produced a wrong answer on the {} part",
            item.name,
            config.word
        );
        counters.add(&cpu);
        fnv1a(&mut hash, u64::from(value));
        fnv1a(&mut hash, cpu.cycles());
        fnv1a(&mut hash, cpu.stats().instructions);
    }
    CpuRun {
        word: config.word,
        translate: config.translate,
        counters,
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

/// A routed grid for the trimmed rows and determinism sweeps: large
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
/// word — the gate exists to catch exactly that.
pub fn run_long_path(bench: &'static str, switching: Switching, engine: Engine) -> NetRun {
    use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
    const SIDE: usize = 32;
    let n = SIDE * SIDE;
    let word: i64 = 0x0BEE_F123;
    let mut b = transputer_net::NetworkBuilder::new(NetworkConfig {
        engine,
        router: RouterConfig { switching },
        ..NetworkConfig::default()
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

    let sender = crate::asm(&format!(
        "ldc {word}\nstl 1\nldlp 1\nmint\nldnlp {LINK_OUT_BASE}\nldc 4\nout\nldc 1\nhaltsim"
    ));
    let receiver = crate::asm(&format!(
        "ldlp 1\nmint\nldnlp {}\nldc 4\nin\nldc 1\nhaltsim",
        LINK_IN_BASE + 2
    ));
    let halting = crate::asm("ldc 1\nhaltsim");

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

    let out = net
        .run_until_all_halted(1_000_000_000_000)
        .expect("probe runs");
    assert_eq!(out, transputer_net::SimOutcome::AllHalted, "probe halts");
    let addr = net.node(n - 1).default_boot_workspace() + 4;
    let got = net
        .node(n - 1)
        .inspect_word(addr)
        .expect("probe word peeks");

    net_run(
        bench,
        engine,
        net.time_ns(),
        i64::from(got) == word,
        FNV_BASIS,
        &net,
    )
}

/// The switching-ablation pairs in a run set: rows named `<base>_worm`
/// matched with their `<base>` store-and-forward counterparts (the
/// Sliced row of each is quoted: every row has one).
/// Returns `(base, store_and_forward_row, wormhole_row)` triples.
pub fn switching_pairs(networks: &[NetRun]) -> Vec<(&str, &NetRun, &NetRun)> {
    let quoted = |r: &&NetRun| r.engine == Engine::Sliced && r.router.is_some();
    let mut pairs = Vec::new();
    for worm in networks.iter().filter(quoted) {
        let base = worm.bench.strip_suffix("_worm");
        let sf = base.and_then(|b| networks.iter().filter(quoted).find(|r| r.bench == b));
        pairs.extend(base.zip(sf).map(|(base, sf)| (base, sf, worm)));
    }
    pairs
}

/// Outcome checks over a set of runs of the *same* benchmark: all
/// answers correct and every fingerprint identical. Returns error lines,
/// empty when healthy.
pub fn cross_check(runs: &[NetRun]) -> Vec<String> {
    let wrong = runs.iter().filter(|r| !r.answers_ok);
    let wrong = wrong.map(|r| format!("{} [{:?}]: wrong answers", r.bench, r.engine));
    let differ = runs.iter().filter(|r| r.fingerprint != runs[0].fingerprint);
    let differ = differ.map(|r| {
        format!(
            "{}: {:?} fingerprint {:016x} != {:?} fingerprint {:016x}",
            r.bench, r.engine, r.fingerprint, runs[0].engine, runs[0].fingerprint
        )
    });
    wrong.chain(differ).collect()
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
        let counters = |cpu: &Cpu| {
            let s = cpu.stats();
            [
                cpu.cycles(),
                s.instructions,
                s.link_retries,
                s.link_rx_errors,
            ]
        };
        assert_eq!(
            counters(net.node(id)),
            counters(base_net.node(id)),
            "{label}: node {id} (halt cycles, instructions, link retries, rx errors)"
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
        let (program, cpu, _) = crate::run_occam(item.source, CpuConfig::t424());
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
        if let Some(err) = run.error_pct().filter(|e| *e > STATIC_MODEL_ERROR_LIMIT) {
            problems.push(format!(
                "static_model: {} off by {err:.3}% (limit {STATIC_MODEL_ERROR_LIMIT}%)",
                item.name
            ));
        }
        runs.push(run);
    }
    runs
}

/// Lines of `text` that are not test code (see [`source_lines`]), and
/// the out-of-line test modules it declares.
fn non_test_lines(text: &str) -> (usize, Vec<&str>) {
    let mut count = 0;
    let mut test_mods = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        if !line.trim_start().starts_with("#[cfg(test)]") {
            count += 1;
            continue;
        }
        let gated = lines.next().unwrap_or("").trim();
        match gated.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            Some(name) => test_mods.push(name),
            None => break,
        }
    }
    (count, test_mods)
}

/// Non-test source lines per crate, over every `crates/<name>/src/**/*.rs`
/// below the current directory: the lines of each file above its first
/// `#[cfg(test)]`, where one that gates a `mod name;` declaration skips
/// that line pair and the file it names instead of ending the count.
/// The trend the ROADMAP's shrink item is tracked by; it feeds no
/// fingerprint.
pub fn source_lines() -> Vec<(String, usize)> {
    use std::path::{Path, PathBuf};
    /// Over `dir` and below, bar the test modules found on the way.
    fn count(dir: &Path, test_mods: &mut Vec<PathBuf>) -> usize {
        let entries = std::fs::read_dir(dir).into_iter().flatten().flatten();
        let (dirs, files): (Vec<_>, Vec<_>) = entries.map(|e| e.path()).partition(|p| p.is_dir());
        let mut counts = Vec::new();
        for path in files
            .iter()
            .filter(|p| p.extension() == Some("rs".as_ref()))
        {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            let (lines, mods) = non_test_lines(&text);
            // `mod name;` in `a/mod.rs` (or a crate root) is `a/name`,
            // in `a/b.rs` it is `a/b/name`.
            let module = path.with_extension("");
            let home = match module.file_name().and_then(|n| n.to_str()) {
                Some("mod" | "lib" | "main") => dir,
                _ => &module,
            };
            test_mods.extend(mods.into_iter().map(|m| home.join(m)));
            counts.push((module, lines));
        }
        let here = counts.iter().filter(|(m, _)| !test_mods.contains(m));
        let mut total: usize = here.map(|(_, lines)| lines).sum();
        for below in dirs {
            if !test_mods.contains(&below) {
                total += count(&below, test_mods);
            }
        }
        total
    }
    let crates = std::fs::read_dir("crates").into_iter().flatten().flatten();
    let mut rows: Vec<(String, usize)> = crates
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .map(|(name, path)| (name, count(&path.join("src"), &mut Vec::new())))
        .collect();
    rows.sort();
    rows
}

use Machine::{Routed, RoutedCube, Tree, TreeCube};

/// One network benchmark: its name and the run of it under one engine.
pub type Row = (&'static str, fn(&'static str, Engine) -> NetRun);

/// `machine` under a uniform fault plan seeded with the paper's year:
/// drop, corruption and jitter each at `scale` packets in ten thousand.
fn faulted(machine: Machine, scale: f64) -> Machine {
    machine.faulted(FaultPlan::uniform(1985, 1e-4 * scale))
}

/// The trimmed machines see few packets, so their faulted rows scale the
/// rate up to make faults certain to fire.
const TRIMMED: f64 = 20.0;

/// Every network benchmark. Each row runs under Event, the oracle, and
/// under Sliced, and the two runs must fingerprint identically
/// ([`cross_check`]) — clean, under injected faults (the retry machinery
/// must hide every fault, bit-identically), and over the router in both
/// switching modes.
pub const ROWS: &[Row] = &[
    // The trimmed machines ([`TRIMMED_ROWS`]): e09's topology and a
    // routed 3x3 grid — the only routed row that runs faulted. The
    // `_worm` rows pair with their store-and-forward counterparts in
    // the `switching` section; a faulted wormhole run is its
    // store-and-forward run (cut-through needs lossless wires), so it
    // has no row.
    ("e09_figure8_smoke", |b, e| Tree(figure8_smoke()).run(b, e)),
    ("e09_smoke_faulted", |b, e| {
        faulted(Tree(figure8_smoke()), TRIMMED).run(b, e)
    }),
    ("e17_routed_smoke", |b, e| Routed(routed_smoke()).run(b, e)),
    ("e17_routed_smoke_faulted", |b, e| {
        faulted(Routed(routed_smoke()), TRIMMED).run(b, e)
    }),
    ("e17_routed_smoke_worm", |b, e| {
        Routed(routed_smoke()).wormhole().run(b, e)
    }),
    // The paper's machines, full size.
    ("e09_figure8", |b, e| {
        Tree(DbSearchConfig::figure8()).run(b, e)
    }),
    ("e10_board128", |b, e| {
        Tree(DbSearchConfig::board128()).run(b, e)
    }),
    ("e16_hypercube256", |b, e| {
        TreeCube(HypercubeConfig::hypercube256()).run(b, e)
    }),
    // Faulted variants: the search must complete correct (possibly
    // degraded-flagged) while each link suffers deterministic drops,
    // corruption, and jitter.
    ("e09_faulted", |b, e| {
        faulted(Tree(DbSearchConfig::figure8()), 1.0).run(b, e)
    }),
    ("e10_faulted", |b, e| {
        faulted(Tree(DbSearchConfig::board128()), 1.0).run(b, e)
    }),
    ("e16_faulted", |b, e| {
        faulted(TreeCube(HypercubeConfig::hypercube256()), 1.0).run(b, e)
    }),
    // The e17 acceptance shape: the e16 machine searched over virtual
    // channels, no per-topology tree planning.
    ("e17_routed256", |b, e| {
        RoutedCube(HypercubeConfig::hypercube256()).run(b, e)
    }),
    // The 1024-node routed stress grid: the router completes at 4x the
    // acceptance node count. Its dimension-order tables keep the
    // channel-dependency graph acyclic, so cut-through stays armed; the
    // pair is reported in the `switching` section but not gated — its
    // hop latencies are queue-wait dominated, so the reduction it shows
    // is congestion relief, not the switching cost itself.
    ("e17_grid1024", |b, e| Routed(grid32x32_stress()).run(b, e)),
    ("e17_grid1024_worm", |b, e| {
        Routed(grid32x32_stress()).wormhole().run(b, e)
    }),
    // One packet over the 62-hop diagonal of the same grid, otherwise
    // idle: the pair the >= 2x gate judges (store-and-forward pays a
    // full packet reassembly per hop; cut-through pays three header
    // byte-times — congestion-free, so the reduction is a property of
    // the switching mode).
    ("e17_longpath1024", |b, e| {
        run_long_path(b, Switching::StoreAndForward, e)
    }),
    ("e17_longpath1024_worm", |b, e| {
        run_long_path(b, Switching::Wormhole, e)
    }),
];

/// The rows of [`ROWS`] that run in seconds in a debug build.
pub const TRIMMED_ROWS: &[Row] = ROWS.split_at(5).0;

/// Everything `BENCH_host.json` holds.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The occam corpus under each CPU tier, on the T424 and the T222.
    pub cpu: Vec<CpuRun>,
    /// The static cost model against the emulator.
    pub static_model: Vec<StaticModelRun>,
    /// The paper's design choices against their alternatives.
    pub ablations: Vec<Ablation>,
    /// Every run of every network row.
    pub networks: Vec<NetRun>,
    /// Non-test source lines per crate.
    pub source_lines: Vec<(String, usize)>,
    /// Failed checks; empty when healthy.
    pub problems: Vec<String>,
}

impl Report {
    /// Run the corpus under both CPU tiers, the static model,
    /// the ablations and `rows`, collecting every failed check —
    /// fingerprints that differ between tiers or engines, wrong answers,
    /// a static-model miss, a long-path hop reduction below 2x — in
    /// `problems`.
    ///
    /// # Panics
    ///
    /// Panics if a program or network fails to build or run.
    pub fn measure(rows: &[Row]) -> Report {
        let mut report = Report {
            // The translation tier and the byte path, on each part.
            cpu: [CpuConfig::t424(), CpuConfig::t222()]
                .iter()
                .flat_map(|part| [true, false].map(|on| part.clone().with_translate(on)))
                .map(|config| cpu_corpus_bench(&config))
                .collect(),
            ablations: ablations(),
            source_lines: source_lines(),
            ..Report::default()
        };
        for tiers in report.cpu.chunks(2) {
            let fingerprints = tiers.iter().map(|r| r.fingerprint);
            let fingerprints: Vec<u64> = fingerprints.collect();
            if fingerprints[0] != fingerprints[1] {
                let word = tiers[0].word;
                let problem = format!("cpu_corpus {word}: tiers disagree: {fingerprints:016x?}");
                report.problems.push(problem);
            }
        }
        report.static_model = static_model_runs(&mut report.problems);
        for &(bench, run) in rows {
            let runs = [Engine::Event, Engine::Sliced].map(|e| run(bench, e));
            report.problems.extend(cross_check(&runs));
            report.networks.extend(runs);
        }
        // On the grid's longest path, uncontended, wormhole must at least
        // halve the mean header-forwarding hop latency. Simulated
        // nanoseconds, so the bar is the same on every host. (The
        // congested pairs are reported, not gated: cut-through cannot
        // shorten a wait behind another packet.)
        for (base, sf, worm) in switching_pairs(&report.networks) {
            let (s, w) = (sf.router.unwrap(), worm.router.unwrap());
            let (s, w) = (s.mean_hop_ns(), w.mean_hop_ns());
            if base == "e17_longpath1024" && (w == 0 || s < 2 * w) {
                let problem = format!("{base}: mean hop {s} ns -> {w} ns under wormhole, not 2x");
                report.problems.push(problem);
            }
        }
        report
    }

    /// Render the report as JSON.
    pub fn to_json(&self) -> String {
        let cpu = self.cpu.iter().map(|r| {
            // A T222 row names its word; a row that does not is the
            // T424's. `decode_cache` is the shim that turns the tier off,
            // so it reads as `translate` does.
            let word = (r.word == WordLength::Bits16)
                .then(|| ("word", r.word.to_string().as_str().into()));
            let tiers = [
                ("decode_cache", r.translate.into()),
                ("translate", r.translate.into()),
            ];
            let tail = [
                ("tier_share", Json::Fixed(r.counters.tier_share(), 3)),
                ("fingerprint", Json::hex(r.fingerprint)),
            ];
            let head = word.into_iter().chain(tiers);
            Json::obj(head.chain(r.counters.json()).chain(tail))
        });
        let static_model = self.static_model.iter().map(|r| {
            Json::obj([
                ("program", r.name.into()),
                ("predicted_cycles", r.predicted.into()),
                ("measured_cycles", r.measured.into()),
                ("error_pct", r.error_pct().map(|e| Json::Fixed(e, 3)).into()),
            ])
        });
        let ablations = self.ablations.iter().map(|a| {
            Json::obj([
                ("choice", a.choice.into()),
                ("quantity", a.quantity.into()),
                ("paper", a.paper.into()),
                ("alternative", a.alternative.into()),
            ])
        });
        let networks = self.networks.iter().map(|r| {
            let router = r.router.map(|s| {
                Json::obj([
                    ("packets_sent", s.packets_sent.into()),
                    ("packets_forwarded", s.packets_forwarded.into()),
                    ("packets_delivered", s.packets_delivered.into()),
                    ("packets_dropped", s.packets_dropped.into()),
                    ("hops", s.hops.into()),
                    ("mean_hop_ns", s.mean_hop_ns().into()),
                    ("p50_hop_ns", s.p50_hop_ns().into()),
                    ("p99_hop_ns", s.p99_hop_ns().into()),
                    ("max_hop_ns", s.max_hop_ns.into()),
                    ("cut_through", r.cut_through.into()),
                ])
            });
            let head = [
                ("bench", r.bench.into()),
                ("engine", format!("{:?}", r.engine).as_str().into()),
                ("sim_ns", r.sim_ns.into()),
            ];
            let tail = [
                ("node_pops", r.pops.node.into()),
                ("wire_pops", r.pops.wire.into()),
                ("stale_wire_pops", r.pops.stale_wire.into()),
                ("instr_per_pop", Json::Fixed(r.instr_per_pop(), 1)),
                ("tier_share", Json::Fixed(r.counters.tier_share(), 3)),
                ("mem_bytes", r.mem_bytes.into()),
                ("router", router.into()),
                ("answers_ok", r.answers_ok.into()),
                ("fingerprint", Json::hex(r.fingerprint)),
            ];
            Json::obj(head.into_iter().chain(r.counters.json()).chain(tail))
        });
        let switching = switching_pairs(&self.networks)
            .into_iter()
            .map(|(base, sf, worm)| {
                let (s, w) = (sf.router.unwrap(), worm.router.unwrap());
                Json::obj([
                    ("bench", base.into()),
                    ("sf_mean_hop_ns", s.mean_hop_ns().into()),
                    ("sf_p50_hop_ns", s.p50_hop_ns().into()),
                    ("sf_p99_hop_ns", s.p99_hop_ns().into()),
                    ("sf_max_hop_ns", s.max_hop_ns.into()),
                    ("worm_mean_hop_ns", w.mean_hop_ns().into()),
                    ("worm_p50_hop_ns", w.p50_hop_ns().into()),
                    ("worm_p99_hop_ns", w.p99_hop_ns().into()),
                    ("worm_max_hop_ns", w.max_hop_ns.into()),
                    (
                        "mean_reduction",
                        Json::ratio(s.mean_hop_ns(), w.mean_hop_ns()),
                    ),
                    ("p99_reduction", Json::ratio(s.p99_hop_ns(), w.p99_hop_ns())),
                    ("worm_cut_through", worm.cut_through.into()),
                ])
            });
        let source_lines = self
            .source_lines
            .iter()
            .map(|(name, lines)| (name.as_str(), Json::Int(*lines as u64)));
        let problems = self.problems.iter().map(|p| p.as_str().into());
        Json::obj([
            ("cpu", Json::Arr(cpu.collect())),
            ("static_model", Json::Arr(static_model.collect())),
            ("ablations", Json::Arr(ablations.collect())),
            ("networks", Json::Arr(networks.collect())),
            ("switching", Json::Arr(switching.collect())),
            ("source_lines", Json::obj(source_lines)),
            ("problems", Json::Arr(problems.collect())),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn networks_json(networks: Vec<NetRun>) -> String {
        let report = Report {
            networks,
            ..Report::default()
        };
        report.to_json()
    }

    #[test]
    fn smoke_engines_agree_and_json_renders() {
        let runs: Vec<NetRun> = [Engine::Event, Engine::Sliced]
            .into_iter()
            .map(|e| Machine::Tree(figure8_smoke()).run("e09_figure8_smoke", e))
            .collect();
        let problems = cross_check(&runs);
        assert!(problems.is_empty(), "{problems:?}");
        let json = networks_json(runs);
        assert!(json.contains("\"node_pops\""));
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
        let json = networks_json(runs);
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
            r.pops.node * 100 <= r.counters.instructions * 5,
            "{} node pops for {} instructions",
            r.pops.node,
            r.counters.instructions
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
    /// stays in translated blocks. `decode_misses` are the operations
    /// run outside blocks while the tier is on: cold first visits (9 150 on
    /// the trimmed board, which dominate a run this short) plus
    /// re-executions outside any block — 653 today, 23 416 (32 566 in
    /// all) when the operations after a `cj` not taken, a `j 0` or a
    /// `lend` falling through were not block leaders.
    #[test]
    fn board_warm_code_stays_translated() {
        let r = Machine::Tree(board128_smoke()).run("board128_smoke", Engine::Sliced);
        assert!(r.answers_ok);
        assert!(r.counters.decode_misses <= 11_000, "{:?}", r.counters);
        assert!(r.counters.tier_share() > 0.8, "{:?}", r.counters);
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
        let json = networks_json(runs);
        assert!(json.contains("\"switching\""));
        assert!(json.contains("\"p99_hop_ns\""));
        assert!(json.contains("\"cut_through\": true"));
    }

    #[test]
    fn unrouted_rows_render_null_router() {
        let run = Machine::Tree(figure8_smoke()).run("e09_figure8_smoke", Engine::Sliced);
        assert!(run.router.is_none());
        assert!(networks_json(vec![run]).contains("\"router\": null"));
    }

    #[test]
    fn cpu_corpus_tier_is_transparent_and_effective() {
        for part in [CpuConfig::t424(), CpuConfig::t222()] {
            let on = cpu_corpus_bench(&part);
            let off = cpu_corpus_bench(&part.with_translate(false));
            assert_eq!(on.fingerprint, off.fingerprint);
            let (on, off) = (on.counters, off.counters);
            assert!(on.trans_enters > 0, "tier-on run never entered a block");
            assert!(on.tier_share() > 0.9, "{on:?}");
            let simulated = Counters {
                cycles: on.cycles,
                instructions: on.instructions,
                operations: on.operations,
                ..Counters::default()
            };
            assert_eq!(off, simulated, "the byte-path run touched the tier");
        }
    }

    #[test]
    fn source_lines_skip_test_code_wherever_it_lives() {
        let inline = "fn a() {}\n\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(inline), (2, vec![]));
        let out_of_line = "mod exec;\n#[cfg(test)]\nmod tests;\nmod translate;\n\nfn a() {}\n";
        assert_eq!(non_test_lines(out_of_line), (4, vec!["tests"]));
        let none = "//! Doc.\n\nfn a() {}\n";
        assert_eq!(non_test_lines(none), (3, vec![]));
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
        let report = Report {
            static_model: runs,
            ..Report::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"static_model\""));
        assert!(json.contains("\"error_pct\": 0.000"));
    }
}
