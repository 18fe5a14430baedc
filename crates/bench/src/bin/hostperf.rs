//! Regenerate `BENCH_host.json`, the repository's exact ledger (see
//! [`transputer_bench::hostperf`]): the occam corpus under every CPU
//! tier, the static cost model, the design-choice ablations and every
//! network row of [`ROWS`] under the per-instruction Event engine and
//! the lookahead-batched Sliced engine. Nothing here is timed — host
//! cost is the system benchmark's business (`benchmark/`).
//!
//! Usage, from the repository root (`source_lines` counts `./crates`):
//!   `cargo run --release -p transputer-bench --bin hostperf`
//!
//! Writes `BENCH_host.json` in the current directory — byte-identical
//! to the committed file unless the change under test moved a count —
//! and exits non-zero if any check failed.

use transputer_bench::hostperf::{switching_pairs, NetRun, Report, ROWS};
use transputer_net::Engine;

/// Print the router hop-latency table: one `ROUTER` line per routed
/// benchmark (CI lifts these into the step summary). Every row runs
/// under Sliced, and its stats are the ones quoted: hop counters may
/// trail by a packet between engines because closing acks race the
/// all-halted detection, so one engine's row is quoted rather than a
/// cross-engine mix.
fn router_table(networks: &[NetRun]) {
    println!("hostperf: router hop-latency table");
    for r in networks.iter().filter(|r| r.engine == Engine::Sliced) {
        let Some(s) = r.router else { continue };
        println!(
            "ROUTER {}: {} sent / {} forwarded / {} delivered / {} dropped, \
             {} hops, hop ns mean {} / p50 {} / p99 {} / max {}, cut-through {}",
            r.bench,
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
/// step summary). [`Report::measure`] holds the long-path pair to its
/// 2x bar.
fn switching_table(networks: &[NetRun]) {
    println!("hostperf: switching ablation (store-and-forward vs wormhole)");
    for (base, sf, worm) in switching_pairs(networks) {
        let (s, w) = (sf.router.unwrap(), worm.router.unwrap());
        println!(
            "SWITCH {base}: hop ns mean {} -> {} = {:.2}x reduction, p99 {} -> {}, max {} -> {} \
             (cut-through {})",
            s.mean_hop_ns(),
            w.mean_hop_ns(),
            s.mean_hop_ns() as f64 / w.mean_hop_ns() as f64,
            s.p99_hop_ns(),
            w.p99_hop_ns(),
            s.max_hop_ns,
            w.max_hop_ns,
            worm.cut_through
                .map_or("n/a".to_string(), |c| c.to_string()),
        );
    }
}

fn main() {
    let report = Report::measure(ROWS);

    println!("hostperf: cpu corpus (the translation tier and the byte path must agree)");
    for r in &report.cpu {
        println!(
            "  cpu_corpus {} translate={:<5} tier {:.3}   {:?}",
            r.word,
            r.translate,
            r.counters.tier_share(),
            r.counters,
        );
    }
    println!("hostperf: network rows (every engine of a row must fingerprint identically)");
    for r in &report.networks {
        println!(
            "  {:<29} {:<7} {:016x}   {:>9} sim ns   ok={}   \
             pops {}n/{}w ({} stale)   {:.1} instr/pop   tier {:.3}   {} mem bytes",
            r.bench,
            format!("{:?}", r.engine),
            r.fingerprint,
            r.sim_ns,
            r.answers_ok,
            r.pops.node,
            r.pops.wire,
            r.pops.stale_wire,
            r.instr_per_pop(),
            r.counters.tier_share(),
            r.mem_bytes,
        );
    }
    router_table(&report.networks);
    switching_table(&report.networks);
    println!("hostperf: design-choice ablations (the paper's choice -> the alternative)");
    for a in &report.ablations {
        println!("  {a:?}");
    }
    println!("source_lines (non-test): {:?}", report.source_lines);

    std::fs::write("BENCH_host.json", report.to_json()).expect("write BENCH_host.json");
    println!("wrote BENCH_host.json");
    if report.problems.is_empty() {
        println!("hostperf PASS");
    } else {
        for p in &report.problems {
            println!("FAIL: {p}");
        }
        std::process::exit(1);
    }
}
