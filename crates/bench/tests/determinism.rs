//! Engine determinism: the lookahead-batched sliced engine must be
//! bit-identical to the per-instruction event engine.
//!
//! Two layers of evidence:
//!
//! * every corpus program, standalone: [`Cpu::run`] vs
//!   [`Cpu::run_batched`] agree on halt cycle, instruction counters,
//!   the checked global, and the complete final memory image;
//! * the `sweeps!` table ([`sweep_engines`] per row): trimmed e09
//!   (16-node), e10 (128-node board) and e16 (64-node hypercube)
//!   search machines, planned and routed,
//!   clean, faulted and with a wire dying mid-run, each under the Event
//!   oracle and under Sliced: identical answers and answer times,
//!   per-node halt cycle counts, per-wire delivered-byte counters,
//!   per-node instruction counters (the stats audit), link fault
//!   counters, and final memory images.

use std::cell::Cell;

use transputer::{Cpu, CpuConfig, HaltReason, RunOutcome};
use transputer_apps::dbsearch::{DbSearch, DbSearchConfig};
use transputer_apps::DbSearchReport;
use transputer_bench::corpus::CORPUS;
use transputer_bench::hostperf::{
    assert_run_matches, board128_smoke, figure8_smoke, full_image, hypercube_smoke, routed_smoke,
    sweep_engines,
    Machine::{self, Routed, RoutedCube, Tree, TreeCube},
};
use transputer_link::FaultPlan;
use transputer_net::topology::grid_edge_wire;
use transputer_net::{Engine, PopCounts, RouterStats};

#[test]
fn corpus_programs_agree_between_engines() {
    for item in CORPUS {
        let program = occam::compile(item.source).expect("corpus program compiles");
        let run_one = |batched: bool| {
            let mut cpu = Cpu::new(CpuConfig::t424());
            let wptr = program.load(&mut cpu).expect("loads");
            let out = if batched {
                cpu.run_batched(500_000_000)
            } else {
                cpu.run(500_000_000)
            };
            assert_eq!(
                out.expect("halts"),
                RunOutcome::Halted(HaltReason::Stopped),
                "corpus `{}`",
                item.name
            );
            (cpu, wptr)
        };
        let (mut event, we) = run_one(false);
        let (mut sliced, ws) = run_one(true);
        assert_eq!(we, ws);
        assert_eq!(event.cycles(), sliced.cycles(), "corpus `{}`", item.name);
        assert_eq!(
            event.stats().instructions,
            sliced.stats().instructions,
            "corpus `{}`",
            item.name
        );
        let got_e = program
            .read_global(&mut event, we, item.check_global)
            .unwrap();
        let got_s = program
            .read_global(&mut sliced, ws, item.check_global)
            .unwrap();
        assert_eq!(
            event.word_length().to_signed(got_e),
            item.expected,
            "corpus `{}`",
            item.name
        );
        assert_eq!(got_e, got_s, "corpus `{}`", item.name);
        assert_eq!(
            full_image(&event),
            full_image(&sliced),
            "corpus `{}` memory image",
            item.name
        );
    }
}

/// `run_slice` is `run_slice_fenced` with no fence: a standalone
/// processor pays nothing for the link fence a network hands its nodes.
/// Slice by slice over the whole corpus, at budgets that end every
/// slice mid-block (1), cut operations and blocks everywhere (7), and
/// let blocks run to their ends (997) — and after **every** slice the
/// statistics are the byte decoder's, host counters aside: whatever a
/// fast tier batches, it has folded in by the time a caller can look.
#[test]
fn corpus_slices_are_identical_without_a_fence() {
    use transputer::SliceOutcome;
    for (item, budget) in CORPUS.iter().flat_map(|i| [1, 7, 997].map(|b| (i, b))) {
        let row = format!("corpus `{}` budget {budget}", item.name);
        let program = occam::compile(item.source).expect("corpus program compiles");
        let mut plain = Cpu::new(CpuConfig::t424());
        let mut fenced = plain.clone();
        let mut bytes = Cpu::new(CpuConfig::t424().with_translate(false));
        for cpu in [&mut plain, &mut fenced, &mut bytes] {
            program.load(cpu).expect("loads");
        }
        loop {
            let out = plain.run_slice(budget);
            assert_eq!(fenced.run_slice_fenced(u64::MAX, budget), out, "{row}");
            assert_eq!(bytes.run_slice(budget), out, "{row}");
            assert_eq!(plain.cycles(), fenced.cycles(), "{row}");
            assert_eq!(plain.cycles(), bytes.cycles(), "{row}");
            assert_eq!(plain.stats(), fenced.stats(), "{row}");
            assert_eq!(
                plain.stats().simulated(),
                bytes.stats().simulated(),
                "{row} at cycle {}",
                plain.cycles()
            );
            match out {
                SliceOutcome::Halted(reason) => {
                    assert_eq!(reason, HaltReason::Stopped, "{row}");
                    break;
                }
                SliceOutcome::Idle => {
                    for cpu in [&mut plain, &mut fenced, &mut bytes] {
                        let wake = cpu.next_timer_wake_cycle().expect("a timer is armed");
                        cpu.advance_idle_to(wake.max(cpu.cycles() + 1));
                    }
                }
                _ => {}
            }
        }
        assert_eq!(
            full_image(&plain),
            full_image(&fenced),
            "{row} memory image"
        );
        assert_eq!(full_image(&plain), full_image(&bytes), "{row} memory image");
    }
}

/// The translation tier is a host-side instrument, and there is nothing
/// between it and the byte path: every corpus program lands on
/// identical answers, cycle counts, simulated statistics and memory
/// images with the tier at its stock threshold, with every leader
/// translated on first arrival, and on the byte path — which runs alone
/// whenever the tier is off, the `decode_cache` shim is off, or a trace
/// ring is on.
#[test]
fn corpus_is_identical_with_the_translation_tier_off() {
    let stock = CpuConfig::t424().with_translate(true);
    // (label, configuration, traced, whether the tier runs)
    let rows = [
        (
            "threshold 1",
            stock.clone().with_translate_threshold(1),
            false,
            true,
        ),
        (
            "translate off",
            stock.clone().with_translate(false),
            false,
            false,
        ),
        (
            "decode_cache off",
            stock.clone().with_decode_cache(false),
            false,
            false,
        ),
        ("traced", stock.clone(), true, false),
    ];
    for item in CORPUS {
        let program = occam::compile(item.source).expect("corpus program compiles");
        let run_one = |config: &CpuConfig, traced: bool| {
            let mut cpu = Cpu::new(config.clone());
            if traced {
                cpu.enable_trace(8);
            }
            let wptr = program.load(&mut cpu).expect("loads");
            assert_eq!(
                cpu.run_batched(500_000_000).expect("halts"),
                RunOutcome::Halted(HaltReason::Stopped),
                "corpus `{}`",
                item.name
            );
            let value = program.read_global(&mut cpu, wptr, item.check_global);
            (cpu, value.expect("check global exists"))
        };
        let (base, value) = run_one(&stock, false);
        assert_eq!(base.word_length().to_signed(value), item.expected);
        assert!(
            base.stats().decode_misses > 0,
            "the stock run uses the tier"
        );
        for (label, config, traced, tier_runs) in &rows {
            let row = format!("corpus `{}`, {label}", item.name);
            let (cpu, got) = run_one(config, *traced);
            assert_eq!(got, value, "{row}");
            assert_eq!(cpu.cycles(), base.cycles(), "{row} cycles");
            assert_eq!(
                cpu.stats().simulated(),
                base.stats().simulated(),
                "{row} simulated statistics"
            );
            assert_eq!(full_image(&cpu), full_image(&base), "{row} memory image");
            let s = cpu.stats();
            if *tier_runs {
                assert!(s.trans_enters > 0, "{row} never entered a block");
            } else {
                let tier = [
                    s.decode_misses,
                    s.decode_hits,
                    s.trans_enters,
                    s.trans_blocks,
                ];
                assert_eq!(tier, [0; 4], "{row} ran the tier");
            }
        }
    }
}

/// Every specialised dispatch code in `translate.rs` — each fused pair
/// and each single operation with a code of its own — is stamped by
/// `build_block` somewhere in code the repository really runs: the
/// corpus and the search machines' node, sender and collector programs,
/// planned and routed. A code nothing stamps is dead weight in the
/// dispatch `match` and fails here.
#[test]
fn every_superinstruction_is_stamped_somewhere() {
    // Threshold 1: every leader reached is translated.
    let config = CpuConfig::t424()
        .with_translate(true)
        .with_translate_threshold(1);
    let mut stamped = Cpu::new(config.clone()).specialised_code_counts();
    let mut add = |cpu: &Cpu| {
        for (total, n) in stamped.iter_mut().zip(cpu.specialised_code_counts()) {
            *total += n;
        }
    };
    for item in CORPUS {
        let program = occam::compile(item.source).expect("corpus program compiles");
        let mut cpu = Cpu::new(config.clone());
        program.load(&mut cpu).expect("loads");
        cpu.run_batched(500_000_000).expect("halts");
        add(&cpu);
    }
    let with_cpu = |mut c: DbSearchConfig| {
        c.net.cpu = config.clone();
        c
    };
    for machine in [
        Tree(with_cpu(figure8_smoke())),
        Routed(with_cpu(routed_smoke())),
    ] {
        let mut sim = machine.build(Engine::Sliced);
        assert!(sim.run(1_000_000_000_000).expect("runs").all_correct());
        let net = sim.network();
        (0..net.len()).for_each(|id| add(net.node(id)));
    }
    let dead: Vec<usize> = (0..stamped.len()).filter(|&i| stamped[i] == 0).collect();
    assert!(
        dead.is_empty(),
        "specialised codes never stamped (by index): {dead:?}"
    );
}

/// A fault rate high enough that the retry machinery demonstrably
/// fires on the trimmed machines (asserted by [`faults_hidden`]).
fn faults() -> FaultPlan {
    FaultPlan::uniform(1985, 2e-3)
}

fn clean(_: &DbSearch, report: &DbSearchReport) {
    assert!(!report.degraded);
}

/// Packets were dropped, corrupted and jittered, the robust protocol
/// retried them, and the search never noticed.
fn faults_hidden(sim: &DbSearch, report: &DbSearchReport) {
    assert!(!report.degraded, "retries must hide the faults");
    let net = sim.network();
    let retries: u64 = (0..net.len())
        .map(|id| net.node(id).stats().link_retries)
        .sum();
    assert!(
        retries > 0,
        "the fault rate must be high enough to force retransmissions"
    );
}

/// `routed_smoke` is the 3x3 grid with the collector on node 8's south
/// port; the east edge (1,2)-(2,2) carries answer traffic into the exit
/// corner, and killing it forces the reroute through node 5 while
/// answers are in flight. 180 us lands inside the answer burst: the
/// run discovers the death mid-packet (retry exhaustion, partial bytes
/// already across).
///
/// The router rebuilds its tables and re-sends whatever the break cut
/// off (a parked or a queued packet), so delivery on the rerouted path
/// is at-least-once — DESIGN.md §11's documented duplicate-delivery
/// window. The collector's merge folds answer words in arrival order
/// with an order-independent sum, so what the rows pin is that both
/// engines land on the identical merged state, duplicates included.
fn wire_death() -> FaultPlan {
    wire_death_at(180_000)
}

fn wire_death_at(kill_ns: u64) -> FaultPlan {
    let dying = grid_edge_wire(3, 3, 1, 2, true);
    FaultPlan::uniform(77, 0.0).with_dead_link(dying, kill_ns)
}

fn wire_died(sim: &DbSearch, _: &DbSearchReport) {
    assert!(
        sim.network().any_link_failed(),
        "the wire must actually die"
    );
}

/// The sweep table: one test per row, `name: build, check`. The router
/// replaces the planned trees with packetized, multiplexed, hop-by-hop
/// forwarding whose state advances only at wire events and stamped CPU
/// service points, so the engine must remain unobservable there too —
/// in both switching modes (wormhole forwards at header decode, so its
/// wire schedule differs from store-and-forward), clean, under the
/// robust protocol's retries, and across a mid-run table rebuild (a
/// faulted network forwards store-and-forward whatever its mode; see
/// [`routed_grid_wormhole_under_faults_is_store_and_forward`]). The
/// routed hypercube keeps transit queues at several nodes live at once;
/// its `Wormhole` row runs the degraded mode pinned further down.
macro_rules! sweeps {
    ($($name:ident: $build:expr, $check:expr;)*) => {$(
        #[test]
        fn $name() {
            sweep_engines(stringify!($name), $build, $check);
        }
    )*};
}

sweeps! {
    e09_network_agrees_across_engines:
        |e| Tree(figure8_smoke()).build(e), clean;
    e09_network_agrees_across_engines_under_faults:
        |e| Tree(figure8_smoke()).faulted(faults()).build(e), faults_hidden;
    e10_board_agrees_across_engines:
        |e| Tree(board128_smoke()).build(e), clean;
    e16_hypercube_agrees_across_engines:
        |e| TreeCube(hypercube_smoke()).build(e), clean;
    routed_grid_agrees_across_engines:
        |e| Routed(routed_smoke()).build(e), clean;
    routed_grid_wormhole_agrees_across_engines:
        |e| Routed(routed_smoke()).wormhole().build(e), clean;
    routed_grid_agrees_across_engines_under_faults:
        |e| Routed(routed_smoke()).faulted(faults()).build(e), faults_hidden;
    routed_hypercube_agrees_across_engines:
        |e| RoutedCube(hypercube_smoke()).build(e), clean;
    routed_hypercube_wormhole_agrees_across_engines:
        |e| RoutedCube(hypercube_smoke()).wormhole().build(e), clean;
    routed_wire_death_merges_identically_across_engines:
        |e| Routed(routed_smoke()).faulted(wire_death()).build(e), wire_died;
}

/// One wire-death row at each of 36 kill instants, two bit times apart,
/// spanning the 7.1 us (176.3 to 183.4 us) of the answer burst around
/// the pinned 180 us row — so the break lands on every byte of the
/// packets crossing it and on both their data frames and their
/// acknowledges.
///
/// Event ≡ Sliced cannot see a rerouting defect the two engines share
/// (they run the same router handlers), so each engine's runs are also
/// hashed over all 36 instants — answers, arrival times, per-node halt
/// cycles and instructions, per-wire delivered bytes, [`RouterStats`]
/// and [`PopCounts`] — and held to `pinned` (`[Event, Sliced]`), taken
/// from the earlier router in which a transit packet had a buffer and
/// a transmit path of its own.
fn sweep_kill_instants(
    label: &str,
    machine: fn() -> Machine,
    check: fn(&DbSearch, &DbSearchReport),
    pinned: [u64; 2],
) {
    let hashes = Cell::new([FNV_BASIS; 2]);
    for kill_ns in (0..36).map(|k| 176_300 + k * 200) {
        sweep_hashed(
            &format!("{label} at {kill_ns} ns"),
            |e| machine().faulted(wire_death_at(kill_ns)).build(e),
            check,
            &hashes,
        );
    }
    assert_eq!(
        hashes.get(),
        pinned,
        "{label}: [Event, Sliced] outcome hashes"
    );
}

/// [`sweep_engines`], also folding each engine's outcome
/// ([`outcome_hash`]) into its slot of `hashes` (`[Event, Sliced]`).
fn sweep_hashed(
    label: &str,
    build: impl Fn(Engine) -> DbSearch,
    check: fn(&DbSearch, &DbSearchReport),
    hashes: &Cell<[u64; 2]>,
) {
    sweep_engines(label, build, |sim, report| {
        check(sim, report);
        let mut all = hashes.get();
        let slot = usize::from(sim.network().engine() != Engine::Event);
        outcome_hash(&mut all[slot], sim, report);
        hashes.set(all);
    });
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Fold one routed run's outcome into `hash`: answers and their arrival
/// times, per-node halt cycles and instructions, per-wire delivered
/// bytes, every [`RouterStats`] field and the [`PopCounts`].
fn outcome_hash(hash: &mut u64, sim: &DbSearch, report: &DbSearchReport) {
    let net = sim.network();
    let node = |id| [net.node(id).cycles(), net.node(id).stats().instructions];
    let wire = |w| <[u64; 2]>::from(net.wire_delivered(w));
    let r: RouterStats = net.router_stats().expect("routed build");
    let pops: PopCounts = net.pop_counts();
    let router = [
        r.packets_sent,
        r.packets_forwarded,
        r.packets_delivered,
        r.packets_dropped,
        r.hops,
        r.hop_ns_total,
        r.max_hop_ns,
    ];
    (report.answers.iter().map(|&a| u64::from(a)))
        .chain(report.answer_times_ns.iter().copied())
        .chain((0..net.len()).flat_map(node))
        .chain((0..net.wire_count()).flat_map(wire))
        .chain(router.into_iter().chain(r.hop_hist))
        .chain([pops.node, pops.wire, pops.stale_wire])
        .for_each(|v| fnv1a(hash, v));
}

/// Store-and-forward: the retry budget discovers the death mid-packet
/// and both end routers requeue what was stranded, at every instant.
#[test]
fn routed_wire_death_sweep_agrees_across_engines() {
    sweep_kill_instants(
        "routed wire death",
        || Routed(routed_smoke()),
        wire_died,
        [0x45db_7f02_9229_b325, 0x4d89_788b_744a_78b5],
    );
}

/// Cut-through needs lossless wires: under a fault plan a wormhole
/// router forwards store-and-forward from the build on, so a dying wire
/// never cuts a live stream. Per plan and engine the wormhole run is the
/// store-and-forward run on every observable of [`assert_run_matches`],
/// and Event ≡ Sliced. The plans: [`faults`]' hidden retries, the
/// [`wire_death`] reroute, and five lossy plans whose wires die of retry
/// exhaustion and cut participants off. Seeds 11 and 35 at 0.15 answered
/// wrongly while a dying wire could cut a stream (`[0, 0]` against
/// `[0, 1, 0]`); [`sweep_engines`] holds every run to its expected
/// answers.
#[test]
fn routed_grid_wormhole_under_faults_is_store_and_forward() {
    let lossy = [(2, 0.2), (18, 0.2), (5, 0.25), (11, 0.15), (35, 0.15)];
    let lossy = lossy.map(|(seed, rate)| {
        (
            format!("seed {seed} at {rate}"),
            FaultPlan::uniform(seed, rate),
        )
    });
    let plans = [
        ("retries".to_string(), faults()),
        ("wire death".to_string(), wire_death()),
    ];
    for (name, plan) in plans.into_iter().chain(lossy) {
        let label = format!("routed grid wormhole, {name}");
        let machine = || Routed(routed_smoke()).faulted(plan.clone());
        sweep_engines(
            &label,
            |e| machine().wormhole().build(e),
            |worm, worm_report| {
                let net = worm.network();
                assert_eq!(net.router_cut_through(), Some(false), "{label}");
                let mut sf = machine().build(net.engine());
                let sf_report = sf.run(1_000_000_000_000).expect("runs");
                assert_run_matches(&label, worm, worm_report, &sf, &sf_report);
            },
        );
    }
}

/// On the cluster hypercube the e-cube tables have a cyclic
/// channel-dependency graph, so `Wormhole` provably degrades to
/// store-and-forward at build time — and the degrade is total: not
/// merely deterministic but the same simulation as store-and-forward.
#[test]
fn routed_hypercube_wormhole_degrades_to_store_and_forward() {
    let run = |machine: Machine| {
        let mut sim = machine.build(Engine::Sliced);
        let report = sim.run(1_000_000_000_000).expect("runs");
        (sim, report)
    };
    let (sf, sf_report) = run(RoutedCube(hypercube_smoke()));
    let (worm, worm_report) = run(RoutedCube(hypercube_smoke()).wormhole());
    assert_eq!(worm.network().router_cut_through(), Some(false));
    assert_run_matches(
        "hypercube wormhole==sf",
        &worm,
        &worm_report,
        &sf,
        &sf_report,
    );
}

/// `Engine::Parallel`, `set_par_workers` and `pool_spawned_threads` are
/// shims kept for the system benchmark: the engine is Sliced, the worker
/// count is ignored, and nothing spawns a thread.
#[test]
fn parallel_shim_is_sliced() {
    let run = |engine| {
        let mut sim = Tree(figure8_smoke()).build(engine);
        sim.network_mut().set_par_workers(7);
        let report = sim.run(1_000_000_000_000).expect("runs");
        (sim, report)
    };
    let (sliced, sliced_report) = run(Engine::Sliced);
    let (shim, shim_report) = run(Engine::Parallel);
    assert!(shim_report.all_correct());
    assert_run_matches(
        "parallel shim",
        &shim,
        &shim_report,
        &sliced,
        &sliced_report,
    );
    assert_eq!(shim.network().pool_spawned_threads(), 0);
}

/// Same events, same order: [`PopCounts`] is a pure function of the
/// order entries leave the event queue (a wire entry is stale or live
/// only relative to the pops before it), so literal counts pin that
/// order for both engines. Event's are from the commit before the queue
/// became `transputer_net`'s `EventQueue`, except its wire pops on the
/// clean board: they are from the commit that sent the oracle's classic
/// wires through the shared drain, where a data start became a wire entry
/// of its own, as under Sliced (7 168 wire pops, none stale, before it).
/// Sliced's are from the commit that let a computing node run past its
/// wires (before it: 11 747 / 13 179 / 12 142 node pops). A slice is
/// not a simulated event but a drained
/// wire entry is, so each row also pins Sliced's live wire pops
/// (`wire - stale_wire`) to the count from before that commit. A change
/// of queue, of key or of tie rule that moves a literal has reordered
/// events, whatever the fingerprints say.
#[test]
fn pop_counts_are_pinned() {
    type Check = fn(&DbSearch, &DbSearchReport);
    type Row = (&'static str, fn() -> Machine, Check, [PopCounts; 2], u64);
    let pops = |node, wire, stale_wire| PopCounts {
        node,
        wire,
        stale_wire,
    };
    // Per row: the Event oracle's counts, Sliced's, Sliced's live wire pops.
    let table: [Row; 3] = [
        (
            "e10 board",
            || Tree(board128_smoke()),
            clean,
            [pops(106_133, 8_613, 11), pops(4_512, 8_936, 334)],
            8_602,
        ),
        (
            "e10 board under faults",
            || Tree(board128_smoke()).faulted(faults()),
            faults_hidden,
            [pops(106_133, 7_993, 414), pops(5_015, 7_893, 314)],
            7_579,
        ),
        (
            "routed cube",
            || RoutedCube(hypercube_smoke()),
            clean,
            [pops(62_580, 42_016, 0), pops(2_579, 42_016, 0)],
            42_016,
        ),
    ];
    for (label, machine, check, [event, sliced], sliced_live_wire) in table {
        assert_eq!(sliced.wire - sliced.stale_wire, sliced_live_wire, "{label}");
        sweep_engines(
            label,
            |e| machine().build(e),
            |sim, report| {
                check(sim, report);
                let net = sim.network();
                let want = match net.engine() {
                    Engine::Event => event,
                    _ => sliced,
                };
                assert_eq!(net.pop_counts(), want, "{label} {:?}", net.engine());
            },
        );
    }
}
