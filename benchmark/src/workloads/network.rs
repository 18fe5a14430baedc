//! The four network workloads: the paper's database search on four
//! machines that load the layers differently.
//!
//! * `tree_board128` — §4.2's board, classic link protocol, planned
//!   spanning trees. CPU tiers + classic link + engine scheduling; the
//!   router is not even constructed. The baseline the others are read
//!   against.
//! * `tree_board128_faulted` — the same board under
//!   `FaultPlan::uniform(seed, 1e-4)`: every wire switches to the robust
//!   protocol with timeout and retry. Same layers, used differently.
//! * `routed_cube256` — the 256-node hypercube searched over virtual
//!   channels, default (store-and-forward) router: multi-hop packet
//!   traffic dominates.
//! * `routed_grid1024_worm` — 1024 thin nodes, wormhole switching: the
//!   only configuration where cut-through runs, and so little CPU work
//!   that scheduling cost is nearly all there is.
//!
//! Every iteration builds its machine from scratch — a run consumes it —
//! through `DbSearch::build*`, runs it on the Sliced engine through
//! `DbSearch::run`, and checks the answers against the host-side
//! reference counts in the report. The other engines and tiers appear
//! only in the traced pass.

use crate::metrics::{median, minimum, ratio};
use crate::surface::{
    array_sources, compile, hypercube_sources, routed_sources, CpuConfig, DbSearch, DbSearchConfig,
    DbSearchReport, Engine, FaultPlan, HypercubeConfig, Network, NetworkConfig, RouterConfig,
    Switching,
};
use crate::trace::Tracer;
use crate::workloads::corpus::{cpu_counters, frontend_layers, instructions_per_ref};
use crate::workloads::{fnv1a, Checked, LayerCtx, Sim, Workload, FNV_BASIS};

/// Per-packet drop, corruption and jitter rate of the faulted workload.
const FAULT_RATE: f64 = 1e-4;

/// Simulated-time budget of a run: far beyond any of these searches
/// (tens of simulated ms), so exhausting it means the machine hung.
const BUDGET_NS: u64 = 100_000_000_000_000;

/// Host seconds the traced pass gives each extra engine or tier: runs
/// shorter than a fifth of this are sampled five times.
const EXTRA_RUN_SECONDS: f64 = 0.6;

/// Worker threads of the Parallel engine in the traced pass.
const PAR_WORKERS: usize = 2;

/// Key space of the trimmed machines: small enough that a dozen records
/// a node still match every request a few times, so two seeds give two
/// sets of answers.
const SMOKE_KEY_SPACE: u32 = 50;

/// §4.2's 128-transputer board (trimmed database under `smoke`).
pub fn board128(seed: u64, smoke: bool) -> DbSearchConfig {
    let full = DbSearchConfig {
        seed,
        ..DbSearchConfig::board128()
    };
    if smoke {
        DbSearchConfig {
            records_per_node: 12,
            requests: 3,
            key_space: SMOKE_KEY_SPACE,
            ..full
        }
    } else {
        full
    }
}

/// The 256-node hypercube of 4×4 clusters (64 nodes of 2×2 clusters and
/// a trimmed database under `smoke`).
pub fn cube256(seed: u64, smoke: bool) -> HypercubeConfig {
    let full = HypercubeConfig {
        seed,
        ..HypercubeConfig::hypercube256()
    };
    if smoke {
        HypercubeConfig {
            side: 2,
            records_per_node: 12,
            requests: 3,
            key_space: SMOKE_KEY_SPACE,
            ..full
        }
    } else {
        full
    }
}

/// The 32×32 stress grid with a thin database (8×8 under `smoke`).
pub fn grid1024(seed: u64, smoke: bool) -> DbSearchConfig {
    let side = if smoke { 8 } else { 32 };
    DbSearchConfig {
        width: side,
        height: side,
        records_per_node: 20,
        requests: 2,
        seed,
        ..DbSearchConfig::figure8()
    }
}

/// A search machine: which build function, with which configuration.
#[derive(Debug, Clone)]
enum Machine {
    Tree(DbSearchConfig),
    TreeCube(HypercubeConfig),
    RoutedGrid(DbSearchConfig),
    RoutedCube(HypercubeConfig),
}

impl Machine {
    fn net(&mut self) -> &mut NetworkConfig {
        match self {
            Machine::Tree(c) | Machine::RoutedGrid(c) => &mut c.net,
            Machine::TreeCube(c) | Machine::RoutedCube(c) => &mut c.net,
        }
    }

    fn with_engine(mut self, engine: Engine) -> Machine {
        self.net().engine = engine;
        self
    }

    fn with_cpu(mut self, cpu: CpuConfig) -> Machine {
        self.net().cpu = cpu;
        self
    }

    fn requests(&self) -> usize {
        match self {
            Machine::Tree(c) | Machine::RoutedGrid(c) => c.requests,
            Machine::TreeCube(c) | Machine::RoutedCube(c) => c.requests,
        }
    }

    /// # Panics
    ///
    /// Panics if the machine does not build: its programs are generated
    /// by the repository itself, so that is a bug, not an outcome.
    fn build(&self) -> DbSearch {
        match self.clone() {
            Machine::Tree(c) => DbSearch::build(c),
            Machine::TreeCube(c) => DbSearch::build_hypercube(c),
            Machine::RoutedGrid(c) => DbSearch::build_routed(c),
            Machine::RoutedCube(c) => DbSearch::build_routed_hypercube(c),
        }
        .unwrap_or_else(|e| panic!("search machine failed to build: {e}"))
    }

    /// The occam texts this machine's nodes run.
    fn sources(&self) -> Vec<(String, String)> {
        match self {
            Machine::Tree(c) => array_sources(c),
            Machine::TreeCube(c) | Machine::RoutedCube(c) => hypercube_sources(c),
            Machine::RoutedGrid(c) => routed_sources(c),
        }
    }

    /// The planned-tree machine on the same hardware, for a routed one.
    fn planned(&self) -> Option<Machine> {
        match self {
            Machine::RoutedGrid(c) => Some(Machine::Tree(c.clone())),
            Machine::RoutedCube(c) => Some(Machine::TreeCube(c.clone())),
            Machine::Tree(_) | Machine::TreeCube(_) => None,
        }
    }
}

/// What a finished run left behind.
struct Finished {
    sim: DbSearch,
    report: Result<DbSearchReport, String>,
}

/// A network workload.
pub struct Search {
    machine: Machine,
    /// The Event engine is skipped in the traced pass (the 1024-node
    /// grid would spend the whole pass in it).
    skip_event: bool,
    built: Option<DbSearch>,
    finished: Option<Finished>,
    /// Traced iterations' attribution of `setup`: source generation,
    /// compiling those sources, and the build itself, in seconds.
    attributed: Vec<[f64; 3]>,
}

impl Search {
    fn new(machine: Machine, skip_event: bool) -> Search {
        Search {
            machine,
            skip_event,
            built: None,
            finished: None,
            attributed: Vec::new(),
        }
    }

    /// `tree_board128` and, with `faulted`, `tree_board128_faulted`.
    pub fn tree_board128(seed: u64, faulted: bool, smoke: bool) -> Search {
        let mut config = board128(seed, smoke);
        if faulted {
            config.net.fault = Some(FaultPlan::uniform(seed, FAULT_RATE));
        }
        Search::new(Machine::Tree(config), false)
    }

    /// `routed_cube256`.
    pub fn routed_cube256(seed: u64, smoke: bool) -> Search {
        Search::new(Machine::RoutedCube(cube256(seed, smoke)), false)
    }

    /// `routed_grid1024_worm`.
    pub fn routed_grid1024_worm(seed: u64, smoke: bool) -> Search {
        let mut config = grid1024(seed, smoke);
        config.net.router = RouterConfig {
            switching: Switching::Wormhole,
            ..config.net.router
        };
        Search::new(Machine::RoutedGrid(config), !smoke)
    }
}

/// Run a built machine to completion.
fn run_search(mut sim: DbSearch) -> Finished {
    let report = sim.run(BUDGET_NS).map_err(|e| format!("{e:?}"));
    Finished { sim, report }
}

/// Compare a finished run's answers with the report's reference counts
/// and fold every outcome that must not move into a fingerprint.
fn observe(finished: &Finished, requests: usize) -> Checked {
    let net = finished.sim.network();
    let mut sim = Sim {
        fingerprint: FNV_BASIS,
        ..Sim::default()
    };
    let mut failed = 0u64;
    match &finished.report {
        Ok(report) => {
            for i in 0..requests {
                let ok = !report.degraded
                    && report.answers.get(i).is_some()
                    && report.answers.get(i) == report.expected.get(i);
                failed += u64::from(!ok);
            }
            if failed > 0 {
                eprintln!(
                    "CHECK FAILED: answers {:?}, expected {:?}, degraded {}",
                    report.answers, report.expected, report.degraded
                );
            }
            sim.first_answer_ns = report.first_answer_ns;
            sim.answer_interval_ns = report.pipeline_interval_ns;
            sim.sim_ns = report.total_ns;
            for &answer in &report.answers {
                fnv1a(&mut sim.fingerprint, u64::from(answer));
            }
            for &at in &report.answer_times_ns {
                fnv1a(&mut sim.fingerprint, at);
            }
        }
        Err(e) => {
            eprintln!("CHECK FAILED: run ended with {e}");
            failed = requests as u64;
        }
    }
    for id in 0..net.len() {
        let node = net.node(id);
        sim.cycles += node.cycles();
        sim.instructions += node.stats().instructions;
        fnv1a(&mut sim.fingerprint, node.cycles());
        fnv1a(&mut sim.fingerprint, node.stats().instructions);
    }
    for wire in 0..net.wire_count() {
        let (a, b) = net.wire_delivered(wire);
        fnv1a(&mut sim.fingerprint, a);
        fnv1a(&mut sim.fingerprint, b);
    }
    Checked {
        attempted: requests as u64,
        failed,
        sim,
    }
}

impl Workload for Search {
    fn reset(&mut self) {
        self.finished = None;
    }

    fn setup(&mut self, tracer: &mut Tracer) {
        // A traced iteration also generates and compiles the sources on
        // their own, to split the build's time from outside.
        let mut parts = [0.0; 3];
        if tracer.is_recording() {
            let (sources, wall) = tracer.timed("apps.sources", |_| self.machine.sources());
            parts[0] = wall.as_secs_f64();
            let ((), wall) = tracer.timed("occam.compile", |_| {
                for (_, source) in &sources {
                    let _ = std::hint::black_box(compile(source));
                }
            });
            parts[1] = wall.as_secs_f64();
        }
        let (sim, wall) = tracer.timed("apps.build", |_| self.machine.build());
        parts[2] = wall.as_secs_f64();
        if tracer.is_recording() {
            self.attributed.push(parts);
        }
        self.built = Some(sim);
    }

    fn run(&mut self, tracer: &mut Tracer) {
        let sim = self.built.take().expect("setup before run");
        self.finished = Some(tracer.timed("net.run", |_| run_search(sim)).0);
    }

    fn check(&mut self) -> Checked {
        observe(
            self.finished.as_ref().expect("run before check"),
            self.machine.requests(),
        )
    }

    fn code_bytes(&self) -> u64 {
        self.machine
            .sources()
            .iter()
            .map(|(_, source)| compile(source).map_or(0, |p| p.code.len() as u64))
            .sum()
    }

    fn layers(&mut self, ctx: &mut LayerCtx<'_>) {
        let sliced = self.check();
        let requests = self.machine.requests();
        let stock = self.finished.as_ref().expect("run before layers");
        network_counters(ctx, stock.sim.network());

        // setup, split from outside.
        let column = |i: usize| -> Vec<f64> { self.attributed.iter().map(|p| p[i]).collect() };
        let (sources_s, compile_s, build_s) =
            (median(&column(0)), median(&column(1)), median(&column(2)));
        ctx.metrics.set("apps.sources_s", sources_s);
        ctx.metrics.set("apps.build_s", build_s);
        ctx.metrics
            .set("apps.build_other_s", build_s - sources_s - compile_s);
        let sources = self.machine.sources();
        let texts: Vec<&str> = sources.iter().map(|(_, s)| s.as_str()).collect();
        frontend_layers(ctx, &texts);
        ctx.metrics.set_count("apps.programs", texts.len() as u64);

        // Every other way of running the same machine must leave the
        // same outcome. A short run is sampled a few times (the quietest
        // counts), a long one once: about EXTRA_RUN_SECONDS each either
        // way.
        let samples = ((EXTRA_RUN_SECONDS / ctx.run_wall_s) as usize).clamp(1, 5);
        let mut all_equal = true;
        let mut variant = |ctx: &mut LayerCtx<'_>,
                           span: &'static str,
                           machine: &Machine,
                           prepare: fn(&mut Network),
                           what: &str|
         -> (Finished, f64) {
            let mut ratios = Vec::new();
            let mut last = None;
            for _ in 0..samples {
                let mut built = machine.build();
                prepare(built.network_mut());
                let (finished, r) = ctx.ref_ratio(span, |_| run_search(built));
                let other = observe(&finished, requests);
                // Not `sim_ns`: when an engine notices that every node
                // has halted is its own business; what the nodes did is
                // not.
                let equal = other.failed == 0 && other.sim.fingerprint == sliced.sim.fingerprint;
                ctx.expect(equal, what);
                all_equal &= equal;
                ratios.push(r);
                last = Some(finished);
            }
            (last.expect("at least one sample"), minimum(&ratios))
        };

        // The other engines.
        ctx.metrics
            .set("net.engine.sliced_ref_ratio", ctx.run_ref_ratio);
        if !self.skip_event {
            let machine = self.machine.clone().with_engine(Engine::Event);
            let (_, event_ratio) = variant(
                ctx,
                "net.run.event",
                &machine,
                |_| {},
                "Event engine outcome differs from Sliced",
            );
            ctx.metrics.set("net.engine.event_ref_ratio", event_ratio);
            ctx.metrics.set(
                "net.engine.sliced_vs_event",
                event_ratio / ctx.run_ref_ratio,
            );
            // And once more one `step_event` at a time, to count them.
            let mut built = machine.build();
            let (steps, wall) = ctx
                .tracer
                .timed("net.step_event", |_| count_event_steps(built.network_mut()));
            ctx.metrics.set_count("net.event.steps", steps);
            ctx.metrics.set(
                "net.event.ns_per_step",
                ratio(wall.as_nanos() as f64, steps as f64),
            );
        }
        let (finished, par_ratio) = variant(
            ctx,
            "net.run.par2",
            &self.machine.clone().with_engine(Engine::Parallel),
            |net| net.set_par_workers(PAR_WORKERS),
            "Parallel engine outcome differs from Sliced",
        );
        ctx.metrics.set("net.engine.par2_ref_ratio", par_ratio);
        ctx.metrics
            .set("net.engine.par2_vs_sliced", ctx.run_ref_ratio / par_ratio);
        ctx.metrics.set_count(
            "net.par.spawned_threads",
            finished.sim.network().pool_spawned_threads(),
        );

        // The lower CPU tiers (the iterations ran the stock
        // configuration: decode cache and translation on).
        ctx.metrics
            .set("transputer.tier.translate_ref_ratio", ctx.run_ref_ratio);
        for (name, span, decode) in [
            ("transputer.tier.byte_ref_ratio", "net.run.tier_byte", false),
            (
                "transputer.tier.decode_ref_ratio",
                "net.run.tier_decode",
                true,
            ),
        ] {
            let cpu = CpuConfig::t424()
                .with_decode_cache(decode)
                .with_translate(false);
            let (_, tier_ratio) = variant(
                ctx,
                span,
                &self.machine.clone().with_cpu(cpu),
                |_| {},
                "outcome differs between CPU tiers",
            );
            ctx.metrics.set(name, tier_ratio);
        }
        ctx.metrics.set(
            "net.engine.fingerprints_equal",
            f64::from(u8::from(all_equal)),
        );

        // How much of the run the CPU tiers could account for, had they
        // run these instructions at the speed they reach on the corpus.
        let per_ref = instructions_per_ref(ctx);
        ctx.metrics.set(
            "net.cpu_share_est",
            sliced.sim.instructions as f64 / per_ref / ctx.run_ref_ratio,
        );

        // A routed machine against planned trees on the same hardware:
        // a different program, so only the answers must agree.
        if let Some(planned) = self.machine.planned() {
            let built = planned.build();
            let (tree, tree_ratio) = ctx.ref_ratio("net.run.tree", |_| run_search(built));
            let answers = |f: &Finished| f.report.as_ref().ok().map(|r| r.answers.clone());
            ctx.expect(
                observe(&tree, requests).failed == 0 && answers(&tree) == answers(stock),
                "routed answers differ from the planned-tree machine's",
            );
            ctx.metrics.set(
                "net.router.ref_ratio_over_tree",
                ctx.run_ref_ratio / tree_ratio,
            );
        }
    }
}

/// Drive an Event-engine network to completion one event at a time and
/// return how many events that took.
fn count_event_steps(net: &mut Network) -> u64 {
    let mut steps = 0u64;
    while !net.all_halted() {
        match net.step_event() {
            Ok(true) => steps += 1,
            Ok(false) | Err(_) => break,
        }
    }
    steps
}

/// Set the `net.*`, `link.*` and `transputer.*` counters from a network
/// that has run, through its public getters.
fn network_counters(ctx: &mut LayerCtx<'_>, net: &Network) {
    let stats: Vec<_> = (0..net.len()).map(|id| net.node(id).stats()).collect();
    let cycles: u64 = (0..net.len()).map(|id| net.node(id).cycles()).sum();
    cpu_counters(ctx, &stats, cycles);

    let m = &mut *ctx.metrics;
    m.set_count("net.nodes", net.len() as u64);
    m.set_count("net.wires", net.wire_count() as u64);

    let mut wire_bytes = 0u64;
    let mut utils = Vec::new();
    for wire in 0..net.wire_count() {
        let (a, b) = net.wire_delivered(wire);
        wire_bytes += a + b;
        let (ua, ub) = net.wire_utilization(wire);
        utils.extend([ua, ub]);
    }
    let retries: u64 = stats.iter().map(|s| s.link_retries).sum();
    m.set_count("link.wire_bytes", wire_bytes);
    m.set_count("link.retries", retries);
    m.set_count(
        "link.rx_errors",
        stats.iter().map(|s| s.link_rx_errors).sum(),
    );
    m.set_count("link.dup_data", stats.iter().map(|s| s.link_dup_data).sum());
    m.set_count("link.failures", stats.iter().map(|s| s.link_failures).sum());
    m.set("link.retry_ratio", ratio(retries as f64, wire_bytes as f64));
    m.set(
        "link.wire_util_max",
        utils.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "link.wire_util_mean",
        ratio(utils.iter().sum::<f64>(), utils.len() as f64),
    );

    if let Some(r) = net.router_stats() {
        m.set_count("net.router.packets_sent", r.packets_sent);
        m.set_count("net.router.packets_forwarded", r.packets_forwarded);
        m.set_count("net.router.packets_delivered", r.packets_delivered);
        m.set_count("net.router.packets_dropped", r.packets_dropped);
        m.set_count("net.router.hops", r.hops);
        m.set_count("net.router.mean_hop_ns", r.mean_hop_ns());
        m.set_count("net.router.p50_hop_ns", r.p50_hop_ns());
        m.set_count("net.router.p99_hop_ns", r.p99_hop_ns());
        m.set_count("net.router.max_hop_ns", r.max_hop_ns);
        m.set_count(
            "net.router.cut_through",
            u64::from(net.router_cut_through() == Some(true)),
        );
    }
}
