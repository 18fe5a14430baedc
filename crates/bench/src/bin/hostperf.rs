//! Host-performance harness: times the experiment suite and the network
//! benchmarks of the [`ROWS`] table under the per-instruction event
//! engine and the lookahead-batched sliced engine, writing
//! `BENCH_host.json`.
//!
//! Usage:
//!   `cargo run --release -p transputer-bench --bin hostperf`
//!   `hostperf --smoke`   — fast outcome-only gate for the tier-1 flow:
//!                          fails on panics or regressed simulated
//!                          outcomes, never on wall time.
//!
//! Output path: `BENCH_host.json` in the current directory, or the path
//! named by the `BENCH_HOST_OUT` environment variable. Every run also
//! appends a one-line JSONL record of the CPU-corpus throughput
//! (decode-cache and translated tiers) to `BENCH_history.jsonl`
//! (override with `BENCH_HISTORY_OUT`). A >20% emulated-MIPS regression
//! against the committed baseline — on either tier — prints a WARN;
//! with `PERF_GATE=hard` (set by CI) a collapse below 50% of the
//! baseline fails the run.

use std::process::Command;
use std::time::Instant;

use transputer_apps::dbsearch::{DbSearchConfig, HypercubeConfig};
use transputer_bench::hostperf::{
    baseline_cpu_mips, baseline_translated_mips, cpu_corpus_bench, cpu_cross_check, cross_check,
    figure8_smoke, grid32x32_stress, history_ratchet_mips, host_cores, routed_smoke, run_long_path,
    source_lines, static_model_runs, switching_pairs, to_json, CpuRun, Machine, NetRun,
    EXPERIMENTS, FAULT_RATE_DEFAULT, FAULT_SEED_DEFAULT,
};
use transputer_link::FaultPlan;
use transputer_net::{Engine, Switching};

/// What a [`ROWS`] entry runs.
#[derive(Clone, Copy)]
enum Job {
    /// A database search on the machine this constructor returns; the
    /// argument is the mode's per-packet fault rate, for faulted rows.
    Search(fn(f64) -> Machine),
    /// The one-packet corner-to-corner probe of the idle 1024-node grid.
    LongPath(Switching),
}

/// Which hostperf modes include a row.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Smoke,
    Full,
    Both,
}

/// Event is the oracle every row that can afford it is checked against.
const BOTH: &[Engine] = &[Engine::Event, Engine::Sliced];
/// Rows where the per-instruction engine would add wall time, not
/// signal: Event-vs-Sliced identity on that machine class is already
/// pinned by a smaller row.
const FAST: &[Engine] = &[Engine::Sliced];

fn faulted(machine: Machine, rate: f64) -> Machine {
    machine.faulted(FaultPlan::uniform(FAULT_SEED_DEFAULT, rate))
}

/// Every network benchmark: `(name, job, engines, mode)`. Each row runs
/// under each of its engines, and the runs must fingerprint identically
/// ([`cross_check`]) — clean, under injected faults (the retry machinery
/// must hide every fault, bit-identically), and over the router in both
/// switching modes.
const ROWS: &[(&str, Job, &[Engine], Mode)] = &[
    // The smoke machines: e09's topology and a routed 3x3 grid, both
    // trimmed to run in milliseconds.
    (
        "e09_figure8_smoke",
        Job::Search(|_| Machine::Tree(figure8_smoke())),
        BOTH,
        Mode::Smoke,
    ),
    (
        "e09_smoke_faulted",
        Job::Search(|r| faulted(Machine::Tree(figure8_smoke()), r)),
        BOTH,
        Mode::Smoke,
    ),
    (
        "e17_routed_smoke",
        Job::Search(|_| Machine::Routed(routed_smoke())),
        BOTH,
        Mode::Smoke,
    ),
    (
        "e17_routed_smoke_faulted",
        Job::Search(|r| faulted(Machine::Routed(routed_smoke()), r)),
        BOTH,
        Mode::Smoke,
    ),
    // The `_worm` rows pair with their store-and-forward counterparts
    // in the SWITCH ablation table and the history's hop-reduction field.
    (
        "e17_routed_smoke_worm",
        Job::Search(|_| Machine::Routed(routed_smoke()).wormhole()),
        BOTH,
        Mode::Smoke,
    ),
    (
        "e17_routed_smoke_worm_faulted",
        Job::Search(|r| faulted(Machine::Routed(routed_smoke()).wormhole(), r)),
        BOTH,
        Mode::Smoke,
    ),
    // The paper's machines, full size.
    (
        "e09_figure8",
        Job::Search(|_| Machine::Tree(DbSearchConfig::figure8())),
        BOTH,
        Mode::Full,
    ),
    (
        "e10_board128",
        Job::Search(|_| Machine::Tree(DbSearchConfig::board128())),
        BOTH,
        Mode::Full,
    ),
    (
        "e16_hypercube256",
        Job::Search(|_| Machine::TreeCube(HypercubeConfig::hypercube256())),
        BOTH,
        Mode::Full,
    ),
    // Faulted variants: the search must complete correct (possibly
    // degraded-flagged) while each link suffers deterministic drops,
    // corruption, and jitter.
    (
        "e09_faulted",
        Job::Search(|r| faulted(Machine::Tree(DbSearchConfig::figure8()), r)),
        BOTH,
        Mode::Full,
    ),
    (
        "e10_faulted",
        Job::Search(|r| faulted(Machine::Tree(DbSearchConfig::board128()), r)),
        BOTH,
        Mode::Full,
    ),
    (
        "e16_faulted",
        Job::Search(|r| faulted(Machine::TreeCube(HypercubeConfig::hypercube256()), r)),
        FAST,
        Mode::Full,
    ),
    // The e17 acceptance shape: the e16 machine searched over virtual
    // channels, no per-topology tree planning.
    (
        "e17_routed256",
        Job::Search(|_| Machine::RoutedCube(HypercubeConfig::hypercube256())),
        BOTH,
        Mode::Full,
    ),
    // Wormhole degrades to store-and-forward on the cluster hypercube
    // (see [`Machine::wormhole`]); `main` checks this row fingerprints
    // identically to the plain e17 row.
    (
        "e17_routed256_worm",
        Job::Search(|_| Machine::RoutedCube(HypercubeConfig::hypercube256()).wormhole()),
        FAST,
        Mode::Full,
    ),
    // The 1024-node routed stress grid: the router completes at 4x the
    // acceptance node count. Its dimension-order tables keep the
    // channel-dependency graph acyclic, so cut-through stays armed; the
    // pair is reported in the SWITCH table but not gated — its hop
    // latencies are queue-wait dominated, so the reduction it shows is
    // congestion relief, not the switching cost itself.
    (
        "e17_grid1024",
        Job::Search(|_| Machine::Routed(grid32x32_stress())),
        FAST,
        Mode::Full,
    ),
    (
        "e17_grid1024_worm",
        Job::Search(|_| Machine::Routed(grid32x32_stress()).wormhole()),
        FAST,
        Mode::Full,
    ),
    // One packet over the 62-hop diagonal of the same grid, otherwise
    // idle, so it costs milliseconds even in the smoke run: the pair
    // the >= 2x gate judges (store-and-forward pays a full packet
    // reassembly per hop; cut-through pays three header byte-times —
    // congestion-free, so the reduction is a deterministic property of
    // the switching mode, safe under PERF_GATE=hard).
    (
        "e17_longpath1024",
        Job::LongPath(Switching::StoreAndForward),
        BOTH,
        Mode::Both,
    ),
    (
        "e17_longpath1024_worm",
        Job::LongPath(Switching::Wormhole),
        BOTH,
        Mode::Both,
    ),
];

/// Per-packet fault rate for the faulted variants: `FAULT_RATE` when
/// set, otherwise the default. The smoke variant scales the rate up so
/// faults actually fire on its much shorter run.
fn fault_rate() -> f64 {
    std::env::var("FAULT_RATE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|r| *r > 0.0)
        .unwrap_or(FAULT_RATE_DEFAULT)
}

fn time_experiments() -> (Vec<(String, f64)>, Vec<String>) {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin directory");
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    for name in EXPERIMENTS {
        let path = dir.join(name);
        let start = Instant::now();
        match Command::new(&path).output() {
            Ok(out) => {
                let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let text = String::from_utf8_lossy(&out.stdout).to_string();
                if !out.status.success() || text.contains("FAIL:") {
                    problems.push(format!("{name}: failed"));
                }
                println!("  {name:<24} {wall_ms:>9.1} ms");
                rows.push((name.to_string(), wall_ms));
            }
            Err(e) => problems.push(format!("{name}: failed to launch: {e}")),
        }
    }
    (rows, problems)
}

/// What one heap event cost the host: wall time over every entry the
/// run popped, stale wire entries included.
fn ns_per_pop(r: &NetRun) -> f64 {
    r.wall_ms * 1e6 / (r.pops.node + r.pops.wire) as f64
}

/// How long a node runs between heap entries: instruction bytes per
/// node pop (1 under Event; slice length under Sliced).
fn instr_per_pop(r: &NetRun) -> f64 {
    r.instructions as f64 / r.pops.node as f64
}

fn print_net(r: &NetRun) {
    println!(
        "  {:<20} {:<9} {:>9.1} ms   {:>12.0} cyc/s   {:>7.2} MIPS   ok={}   \
         dcache {}h/{}m/{}i/{}b   pops {}n/{}w ({} stale)   {:.1} ns/pop   {:.1} instr/pop   \
         tier {:.3}",
        r.bench,
        format!("{:?}", r.engine),
        r.wall_ms,
        r.cycles_per_sec(),
        r.emulated_mips(),
        r.answers_ok,
        r.decode.0,
        r.decode.1,
        r.decode.2,
        r.decode.3,
        r.pops.node,
        r.pops.wire,
        r.pops.stale_wire,
        ns_per_pop(r),
        instr_per_pop(r),
        r.tier_share,
    );
}

fn print_cpu(r: &CpuRun) {
    println!(
        "  cpu_corpus decode_cache={:<5} translate={:<5} {:>9.1} ms   {:>7.2} MIPS   \
         dcache {}h/{}m/{}i/{}b (hit rate {:.1}%)   trans {}blk/{}ent/{}deopt/{}inv   tier {:.3}",
        r.decode_cache,
        r.translate,
        r.wall_ms,
        r.emulated_mips(),
        r.decode.0,
        r.decode.1,
        r.decode.2,
        r.decode.3,
        r.hit_rate() * 100.0,
        r.trans.0,
        r.trans.1,
        r.trans.2,
        r.trans.3,
        r.tier_share,
    );
}

fn history_path() -> String {
    std::env::var("BENCH_HISTORY_OUT").unwrap_or_else(|_| "BENCH_history.jsonl".to_string())
}

fn perf_gate_hard() -> bool {
    std::env::var("PERF_GATE").is_ok_and(|v| v == "hard")
}

/// Append one JSONL record of this run's CPU-corpus throughput and
/// switching-ablation hop latencies to the append-only history
/// (`BENCH_history.jsonl`, or the path named by `BENCH_HISTORY_OUT`).
/// The history makes a slow drift visible that any single
/// committed-baseline comparison would miss, and is what the smoke
/// ratchet compares the next run against.
fn append_history(
    smoke: bool,
    current: &CpuRun,
    translated: &CpuRun,
    baseline: Option<f64>,
    trans_baseline: Option<f64>,
    networks: &[NetRun],
) {
    let path = history_path();
    let unix_s = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let ratio_pair = |now: f64, baseline: Option<f64>| match baseline {
        Some(b) if b > 0.0 => (format!("{b:.2}"), format!("{:.3}", now / b)),
        _ => ("null".to_string(), "null".to_string()),
    };
    let now = current.emulated_mips();
    let tnow = translated.emulated_mips();
    let (baseline_s, ratio_s) = ratio_pair(now, baseline);
    let (tbaseline_s, tratio_s) = ratio_pair(tnow, trans_baseline);
    // Both switching modes land in the history: the store-and-forward
    // and wormhole mean hop latencies of the corner-to-corner long-path
    // probe (the pair the >= 2x tentpole gate judges; both smoke and
    // full runs produce it), falling back to whichever congested grid
    // pair the mode ran, so a hop-latency drift in either mode is
    // visible run over run.
    let grid_pair = ["e17_longpath1024", "e17_grid1024", "e17_routed_smoke"]
        .into_iter()
        .find_map(|want| {
            switching_pairs(networks)
                .into_iter()
                .find(|(base, _, _)| *base == want)
        });
    let (sf_hop, worm_hop, hop_reduction) = grid_pair.map_or(
        ("null".to_string(), "null".to_string(), "null".to_string()),
        |(_, sf, worm)| {
            let (s, w) = (sf.router.unwrap(), worm.router.unwrap());
            let reduction = if w.mean_hop_ns() == 0 {
                "null".to_string()
            } else {
                format!("{:.2}", s.mean_hop_ns() as f64 / w.mean_hop_ns() as f64)
            };
            (
                s.mean_hop_ns().to_string(),
                w.mean_hop_ns().to_string(),
                reduction,
            )
        },
    );
    // What one heap event costs, how long a slice is and how much of
    // the work ran translated, per network row: the trends the event
    // queue, the wire path, the slice bounds and the translation tier
    // are judged by.
    let per_row = |f: fn(&NetRun) -> f64, decimals: usize| {
        let rows: Vec<String> = networks
            .iter()
            .map(|r| format!("\"{}/{:?}\": {:.decimals$}", r.bench, r.engine, f(r)))
            .collect();
        rows.join(", ")
    };
    let line = format!(
        "{{\"unix_s\": {unix_s}, \"smoke\": {smoke}, \"cpu_mips\": {now:.2}, \
         \"baseline_mips\": {baseline_s}, \"ratio\": {ratio_s}, \
         \"translated_mips\": {tnow:.2}, \"translated_baseline_mips\": {tbaseline_s}, \
         \"translated_ratio\": {tratio_s}, \"host_cores\": {}, \
         \"e17_sf_mean_hop_ns\": {sf_hop}, \"e17_worm_mean_hop_ns\": {worm_hop}, \
         \"e17_hop_reduction\": {hop_reduction}, \"ns_per_pop\": {{{}}}, \
         \"instr_per_pop\": {{{}}}, \"tier_share\": {{\"cpu_corpus\": {:.3}, {}}}}}\n",
        host_cores(),
        per_row(ns_per_pop, 1),
        per_row(instr_per_pop, 1),
        translated.tier_share,
        per_row(|r| r.tier_share, 3),
    );
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(line.as_bytes());
            println!("  perf history: appended to {path}");
        }
        Err(e) => println!("  perf history: cannot append to {path}: {e}"),
    }
}

/// Print the router hop-latency table: one `ROUTER` line per routed
/// benchmark (CI lifts these into the step summary). Stats come from
/// the Sliced row when present —
/// hop counters may trail by a packet between engines because closing
/// acks race the all-halted detection, so one engine's row is quoted
/// rather than a cross-engine mix.
fn router_table(networks: &[NetRun]) {
    let mut benches: Vec<&str> = networks
        .iter()
        .filter(|r| r.router.is_some())
        .map(|r| r.bench)
        .collect();
    benches.dedup();
    if benches.is_empty() {
        return;
    }
    println!("hostperf: router hop-latency table");
    for bench in benches {
        let row = networks
            .iter()
            .filter(|r| r.bench == bench)
            .find(|r| r.engine == Engine::Sliced)
            .or_else(|| networks.iter().find(|r| r.bench == bench));
        let Some(r) = row else { continue };
        let Some(s) = r.router else { continue };
        println!(
            "ROUTER {bench}: {} sent / {} forwarded / {} delivered / {} dropped, \
             {} hops, hop ns mean {} / p50 {} / p99 {} / max {}, cut-through {}",
            s.packets_sent,
            s.packets_forwarded,
            s.packets_delivered,
            s.packets_dropped,
            s.hops,
            s.mean_hop_ns(),
            s.p50_hop_ns(),
            s.p99_hop_ns(),
            s.max_hop_ns,
            r.cut_through.map_or("n/a".to_string(), |c| c.to_string()),
        );
    }
}

/// Print the switching-ablation table: one `SWITCH` line per
/// store-and-forward/wormhole benchmark pair (CI lifts these into the
/// step summary), and gate the tentpole claim — on the 1024-node
/// grid's longest path (the uncontended corner-to-corner probe),
/// wormhole must at least halve the mean header-forwarding hop
/// latency. The congested stress pair is reported but not gated: its
/// hop latencies are queue-wait dominated, and cut-through cannot
/// shorten a wait behind another packet. Hop latencies are simulated
/// nanoseconds, so the gate is deterministic and machine-independent;
/// a miss is a WARN normally and a hard failure under
/// `PERF_GATE=hard`.
fn switching_table_and_gate(networks: &[NetRun], problems: &mut Vec<String>) {
    let pairs = switching_pairs(networks);
    if pairs.is_empty() {
        return;
    }
    println!("hostperf: switching ablation (store-and-forward vs wormhole)");
    for (base, sf, worm) in pairs {
        let (s, w) = (sf.router.unwrap(), worm.router.unwrap());
        let reduction = if w.mean_hop_ns() == 0 {
            f64::NAN
        } else {
            s.mean_hop_ns() as f64 / w.mean_hop_ns() as f64
        };
        println!(
            "SWITCH {base}: sf hop ns mean {} / p50 {} / p99 {} / max {} -> \
             wormhole mean {} / p50 {} / p99 {} / max {} = {reduction:.2}x mean reduction \
             (cut-through {})",
            s.mean_hop_ns(),
            s.p50_hop_ns(),
            s.p99_hop_ns(),
            s.max_hop_ns,
            w.mean_hop_ns(),
            w.p50_hop_ns(),
            w.p99_hop_ns(),
            w.max_hop_ns,
            worm.cut_through
                .map_or("n/a".to_string(), |c| c.to_string()),
        );
        // A NaN reduction (no wormhole hops recorded) misses the bar too.
        if base == "e17_longpath1024" && (reduction.is_nan() || reduction < 2.0) {
            let msg = format!(
                "wormhole ablation: e17_longpath1024 mean hop reduction {reduction:.2}x \
                 below the 2x bar"
            );
            if perf_gate_hard() {
                problems.push(format!("{msg} (PERF_GATE=hard)"));
            } else {
                println!("WARN: {msg}");
            }
        }
    }
}

/// Perf check for one throughput row: a >20% regression against the
/// committed baseline prints a WARN, and with `PERF_GATE=hard` (set by
/// CI) a collapse below half the committed baseline becomes a hard
/// failure. Wall-clock numbers vary between machines, so the
/// committed-baseline hard gate only catches order-of-magnitude
/// breakage.
fn check_mips_row(label: &str, now: f64, baseline: Option<f64>, problems: &mut Vec<String>) {
    let Some(baseline) = baseline else {
        println!("  perf check: no committed {label} baseline here; skipping");
        return;
    };
    let ratio = now / baseline;
    if perf_gate_hard() && ratio < 0.5 {
        problems.push(format!(
            "emulated MIPS collapse: {label} {now:.2} MIPS vs committed {baseline:.2} MIPS \
             ({:.0}% of baseline, PERF_GATE=hard)",
            ratio * 100.0
        ));
    } else if ratio < 0.8 {
        println!(
            "WARN: emulated MIPS regression: {label} {now:.2} MIPS vs committed \
             {baseline:.2} MIPS ({:.0}% of baseline)",
            ratio * 100.0
        );
    } else {
        println!(
            "  perf check: {label} {now:.2} MIPS vs committed {baseline:.2} MIPS \
             ({:.0}% of baseline) — ok",
            ratio * 100.0
        );
    }
}

/// The history ratchet: compare this run's CPU-corpus throughput to the
/// *last* `BENCH_history.jsonl` entry — same machine, recent run, so a
/// drop of more than 20% is a real regression, not machine variance.
/// The comparison is skipped when the last entry came from a host with
/// a different logical core count (CI mixes runner sizes; MIPS across
/// them is not a regression signal). A WARN normally; a hard failure
/// under `PERF_GATE=hard`.
fn check_history_ratchet(now: f64, last: Option<f64>, problems: &mut Vec<String>) {
    let Some(last) = last.filter(|l| *l > 0.0) else {
        println!("  perf ratchet: no comparable prior history entry (missing, or a host with a different core count); skipping");
        return;
    };
    let ratio = now / last;
    if ratio < 0.8 {
        let msg = format!(
            "cpu corpus throughput ratchet: {now:.2} MIPS vs last recorded {last:.2} MIPS \
             ({:.0}% of previous run)",
            ratio * 100.0
        );
        if perf_gate_hard() {
            problems.push(format!("{msg} (PERF_GATE=hard)"));
        } else {
            println!("WARN: {msg}");
        }
    } else {
        println!(
            "  perf ratchet: {now:.2} MIPS vs last recorded {last:.2} MIPS \
             ({:.0}% of previous run) — ok",
            ratio * 100.0
        );
    }
}

/// Perf checks: read the committed `BENCH_host.json` baseline and the
/// last history entry, append this run to the history, then gate — the
/// soft committed-baseline check on both CPU-corpus tiers, plus the
/// hard history ratchet.
fn check_mips_regression(
    smoke: bool,
    current: &CpuRun,
    translated: &CpuRun,
    networks: &[NetRun],
    problems: &mut Vec<String>,
) {
    let committed = std::fs::read_to_string("BENCH_host.json").ok();
    let baseline = committed
        .as_deref()
        .and_then(baseline_cpu_mips)
        .filter(|b| *b > 0.0);
    let trans_baseline = committed
        .as_deref()
        .and_then(baseline_translated_mips)
        .filter(|b| *b > 0.0);
    // The last history line must be read before this run appends its
    // own, and only counts when it was produced on a host with the same
    // core count as this one.
    let last_mips = std::fs::read_to_string(history_path())
        .ok()
        .and_then(|h| history_ratchet_mips(&h, host_cores()));
    append_history(
        smoke,
        current,
        translated,
        baseline,
        trans_baseline,
        networks,
    );
    check_mips_row("cpu corpus", current.emulated_mips(), baseline, problems);
    check_mips_row(
        "translated tier",
        translated.emulated_mips(),
        trans_baseline,
        problems,
    );
    check_history_ratchet(current.emulated_mips(), last_mips, problems);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut networks: Vec<NetRun> = Vec::new();
    let mut cpu_runs: Vec<CpuRun> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    let mut experiments: Vec<(String, f64)> = Vec::new();

    if smoke {
        println!("hostperf --smoke: outcome gate (wall times informational)");
        println!("hostperf --smoke: cpu corpus (translated/decode-cache/plain must agree)");
        let trans = cpu_corpus_bench(true, true, 1);
        let on = cpu_corpus_bench(true, false, 1);
        let off = cpu_corpus_bench(false, false, 1);
        print_cpu(&trans);
        print_cpu(&on);
        print_cpu(&off);
        problems.extend(cpu_cross_check(&[trans.clone(), on.clone(), off.clone()]));
        cpu_runs.push(trans);
        cpu_runs.push(on);
        cpu_runs.push(off);
    } else {
        println!("hostperf: timing experiment binaries");
        let (rows, probs) = time_experiments();
        experiments = rows;
        problems.extend(probs);

        println!("hostperf: cpu corpus (pure-CPU emulation throughput)");
        let trans = cpu_corpus_bench(true, true, 20);
        let on = cpu_corpus_bench(true, false, 20);
        let off = cpu_corpus_bench(false, false, 20);
        print_cpu(&trans);
        print_cpu(&on);
        print_cpu(&off);
        println!(
            "  cpu corpus decode-cache speedup: {:.2}x (off {:.2} MIPS -> on {:.2} MIPS)",
            on.emulated_mips() / off.emulated_mips(),
            off.emulated_mips(),
            on.emulated_mips()
        );
        println!(
            "  cpu corpus translated speedup: {:.2}x (decode {:.2} MIPS -> translated {:.2} MIPS)",
            trans.emulated_mips() / on.emulated_mips(),
            on.emulated_mips(),
            trans.emulated_mips()
        );
        problems.extend(cpu_cross_check(&[trans.clone(), on.clone(), off.clone()]));
        cpu_runs.push(trans);
        cpu_runs.push(on);
        cpu_runs.push(off);
    }

    // Faulted rows: `FAULT_RATE` as given, except that the short smoke
    // run sees few packets, so its rate is scaled up to make faults
    // certain to fire.
    let rate = if smoke {
        (fault_rate() * 20.0).min(0.01)
    } else {
        fault_rate()
    };
    let mode = if smoke { Mode::Smoke } else { Mode::Full };
    println!("hostperf: network benchmarks (fault rate {rate} on faulted rows)");
    for &(bench, job, engines, when) in ROWS {
        if when != mode && when != Mode::Both {
            continue;
        }
        let runs: Vec<NetRun> = engines
            .iter()
            .map(|&engine| match job {
                Job::Search(machine) => machine(rate).run(bench, engine),
                Job::LongPath(switching) => run_long_path(bench, switching, engine),
            })
            .collect();
        for r in &runs {
            print_net(r);
        }
        if let [event, sliced] = &runs[..] {
            println!(
                "  {bench} speedup: {:.2}x (event {:.1} ms -> sliced {:.1} ms)",
                event.wall_ms / sliced.wall_ms,
                event.wall_ms,
                sliced.wall_ms
            );
        }
        problems.extend(cross_check(&runs));
        networks.extend(runs);
    }
    let sliced_fingerprint = |bench: &str| {
        networks
            .iter()
            .find(|r| r.bench == bench && r.engine == Engine::Sliced)
            .map(|r| r.fingerprint)
    };
    if sliced_fingerprint("e17_routed256") != sliced_fingerprint("e17_routed256_worm") {
        problems.push(
            "e17_routed256_worm: degraded wormhole run diverged from store-and-forward".to_string(),
        );
    }

    // The tables and the throughput regression checks run over
    // whichever rows the mode produced.
    router_table(&networks);
    switching_table_and_gate(&networks, &mut problems);
    if let (Some(on), Some(trans)) = (
        cpu_runs.iter().find(|r| r.decode_cache && !r.translate),
        cpu_runs.iter().find(|r| r.translate),
    ) {
        check_mips_regression(smoke, on, trans, &networks, &mut problems);
    }

    println!("hostperf: static cost model vs emulator");
    let static_model = static_model_runs(&mut problems);
    for r in &static_model {
        println!(
            "  static_model {:<14} predicted {:>8}  measured {:>8}  error {}",
            r.name,
            r.predicted.map_or("refused".to_string(), |p| p.to_string()),
            r.measured,
            r.error_pct()
                .map_or("—".to_string(), |e| format!("{e:.3}%")),
        );
    }

    let json = to_json(
        smoke,
        &experiments,
        &cpu_runs,
        &static_model,
        &networks,
        &source_lines(),
        &problems,
    );
    let out_path =
        std::env::var("BENCH_HOST_OUT").unwrap_or_else(|_| "BENCH_host.json".to_string());
    std::fs::write(&out_path, &json).expect("write BENCH_host.json");
    println!("wrote {out_path}");

    if problems.is_empty() {
        println!("hostperf PASS");
    } else {
        for p in &problems {
            println!("FAIL: {p}");
        }
        std::process::exit(1);
    }
}
