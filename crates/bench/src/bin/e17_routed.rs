//! E17 — the virtual-channel packet router.
//!
//! The planned spanning trees of e09–e16 are a compile-time answer to
//! §4.2's wiring freedom: every topology needs its own tree layout.
//! The T9000 generation answered at run time instead — a virtual
//! channel processor that packetizes messages and routes them hop by
//! hop, so an occam channel connects *any* two processes regardless of
//! the wiring between them. This experiment runs the same 256-node
//! hypercube database search as e16 over virtual channels — no
//! per-topology planning, one uniform node program — and checks the
//! answers against the planned build over the identical workload. A
//! 1024-node grid then shows the router completing at four times the
//! acceptance node count.

use transputer_apps::dbsearch::{DbSearch, HypercubeConfig};
use transputer_bench::hostperf::{grid32x32_stress, run_long_path};
use transputer_bench::{cells, table};
use transputer_net::{Engine, RouterStats, Switching};

fn router_rows(prefix: &str, stats: Option<RouterStats>) {
    let Some(s) = stats else { return };
    table::row(cells![
        format!("{prefix}packets"),
        format!(
            "{} sent, {} forwarded, {} delivered, {} dropped",
            s.packets_sent, s.packets_forwarded, s.packets_delivered, s.packets_dropped
        ),
        "—"
    ]);
    table::row(cells![
        format!("{prefix}hop latency (header forwarding)"),
        format!(
            "mean {} ns, p50 {} ns, p99 {} ns, max {} ns",
            s.mean_hop_ns(),
            s.p50_hop_ns(),
            s.p99_hop_ns(),
            s.max_hop_ns
        ),
        "—"
    ]);
}

fn main() {
    table::heading(
        "E17",
        "the virtual-channel packet router",
        "run-time routing instead of planned trees",
    );

    let config = HypercubeConfig::hypercube256();
    println!(
        "\nrouted hypercube(4,4): 2^{} clusters of {}×{} = {} transputers, \
         {} records ({} requests pipelined)",
        config.dim,
        config.side,
        config.side,
        config.node_count(),
        config.total_records(),
        config.requests
    );

    // The acceptance cross-check: the routed machine and the planned
    // machine search the same records for the same keys, so their
    // answer vectors must be equal element for element.
    let mut planned = DbSearch::build_hypercube(config.clone()).expect("planned builds");
    let planned_report = planned.run(10_000_000_000_000).expect("planned runs");
    let mut routed = DbSearch::build_routed_hypercube(config).expect("routed builds");
    let report = routed.run(10_000_000_000_000).expect("routed runs");
    let stats = routed.network().router_stats();

    table::header(&["metric", "measured", "paper"]);
    table::row(cells!["answers correct", report.all_correct(), "—"]);
    table::row(cells![
        "answers match planned trees",
        report.answers == planned_report.answers,
        "same search, different routing"
    ]);
    table::search_rows(&report, &["less than 1.3 ms at 25k records", "—"]);
    router_rows("", stats);
    let cube_ok = report.all_correct()
        && !report.degraded
        && report.answers == planned_report.answers
        && stats.is_some_and(|s| s.packets_dropped == 0);

    // The stress shape: 1024 transputers on a 32×32 grid, every answer
    // crossing the router to the collector's host node — run in both
    // switching modes as the ablation. Store-and-forward reassembles
    // each packet at every hop; wormhole forwards the header as soon
    // as it decodes, so on the grid's long paths the per-hop
    // header-forwarding latency collapses from a full packet time to a
    // few byte times.
    let stress = grid32x32_stress();
    println!(
        "\nrouted grid(32,32): {} transputers, {} records ({} requests pipelined)",
        stress.width * stress.height,
        stress.width * stress.height * stress.records_per_node,
        stress.requests
    );
    let mut big = DbSearch::build_routed(stress.clone()).expect("stress builds");
    let big_report = big.run(10_000_000_000_000).expect("stress runs");
    let big_stats = big.network().router_stats();
    table::header(&["metric", "measured", "paper"]);
    table::row(cells!["answers correct", big_report.all_correct(), "—"]);
    table::search_rows(&big_report, &["—"]);
    router_rows("", big_stats);
    let stress_ok = big_report.all_correct()
        && !big_report.degraded
        && big_stats.is_some_and(|s| s.packets_dropped == 0);

    println!("\nrouted grid(32,32), wormhole switching: the ablation");
    let mut worm_stress = stress;
    worm_stress.net.router.switching = Switching::Wormhole;
    let mut worm = DbSearch::build_routed(worm_stress).expect("wormhole stress builds");
    let worm_report = worm.run(10_000_000_000_000).expect("wormhole stress runs");
    let worm_stats = worm.network().router_stats();
    table::header(&["metric", "measured", "paper"]);
    table::row(cells!["answers correct", worm_report.all_correct(), "—"]);
    table::row(cells![
        "answers match store-and-forward",
        worm_report.answers == big_report.answers,
        "same search, different switching"
    ]);
    table::row(cells![
        "cut-through active",
        worm.network().router_cut_through() == Some(true),
        "grid tables: acyclic channel dependencies"
    ]);
    table::search_rows(&worm_report, &["—"]);
    router_rows("", worm_stats);
    let hop_reduction = match (big_stats, worm_stats) {
        (Some(s), Some(w)) if w.mean_hop_ns() > 0 => {
            s.mean_hop_ns() as f64 / w.mean_hop_ns() as f64
        }
        _ => 0.0,
    };
    table::row(cells![
        "mean hop-latency reduction",
        format!("{hop_reduction:.2}x"),
        "congestion-bound: hops wait in queues, not in switches"
    ]);
    let worm_ok = worm_report.all_correct()
        && !worm_report.degraded
        && worm_report.answers == big_report.answers
        && worm.network().router_cut_through() == Some(true);

    // The tentpole measurement: one packet over the 62-hop diagonal of
    // the same 1024-node grid with nothing else in flight, so every
    // hop shows the switching cost itself — a full packet reassembly
    // under store-and-forward, a few header byte-times under
    // cut-through. The congested stress rows above cannot show this:
    // wormhole does not shorten a wait behind another packet.
    println!("\nlong-path probe: one packet, corner to corner (62 hops), idle grid");
    let lp_sf = run_long_path(
        "e17_longpath1024",
        Switching::StoreAndForward,
        Engine::Sliced,
    );
    let lp_worm = run_long_path("e17_longpath1024_worm", Switching::Wormhole, Engine::Sliced);
    table::header(&["metric", "measured", "paper"]);
    table::row(cells![
        "word delivered",
        lp_sf.answers_ok && lp_worm.answers_ok,
        "—"
    ]);
    table::row(cells![
        "cut-through active",
        lp_worm.cut_through == Some(true),
        "grid tables: acyclic channel dependencies"
    ]);
    router_rows("store-and-forward ", lp_sf.router);
    router_rows("wormhole ", lp_worm.router);
    let lp_reduction = match (lp_sf.router, lp_worm.router) {
        (Some(s), Some(w)) if w.mean_hop_ns() > 0 => {
            s.mean_hop_ns() as f64 / w.mean_hop_ns() as f64
        }
        _ => 0.0,
    };
    table::row(cells![
        "mean hop-latency reduction",
        format!("{lp_reduction:.2}x"),
        "at least 2x on the grid's long paths"
    ]);
    let longpath_ok = lp_sf.answers_ok
        && lp_worm.answers_ok
        && lp_worm.cut_through == Some(true)
        && lp_reduction >= 2.0;

    table::verdict(
        cube_ok && stress_ok && worm_ok && longpath_ok,
        "virtual-channel routing reproduces the planned-tree answers on the hypercube, scales to a 1024-node grid, and wormhole switching at least halves the hop latency on the grid's long paths",
    );
}
