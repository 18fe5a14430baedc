//! E16 — the 256-transputer hypercube machine.
//!
//! "The system illustrated is ... one of many identical transputers,
//! each connected to its four nearest neighbours" (§4.2) — but four
//! links do not confine a system to a mesh. Joining sixteen 4×4 arrays
//! through their spare corner ports into a dimension-4 hypercube (the
//! RTNN-style 256-node machine) doubles the paper's two-board database
//! to 51,200 records while the longest request path grows only
//! modestly: hypercube hops replace long Manhattan walks. The same
//! per-node occam runs unchanged — only the spanning trees are planned
//! over the new wiring, which is §2.1's claim that system structure is
//! a wiring choice.

use transputer_apps::dbsearch::{DbSearch, HypercubeConfig};
use transputer_bench::{cells, table};

fn run_one(label: &str, mut config: HypercubeConfig) -> transputer_apps::DbSearchReport {
    table::inject_faults(&mut config.net);
    println!(
        "\n{label}: 2^{} clusters of {}×{} = {} transputers, {} records \
         ({} requests pipelined)",
        config.dim,
        config.side,
        config.side,
        config.node_count(),
        config.total_records(),
        config.requests
    );
    let longest = config.longest_path_links();
    let mut sim = DbSearch::build_hypercube(config).expect("builds");
    let report = sim.run(10_000_000_000_000).expect("runs");
    table::header(&["metric", "measured", "paper"]);
    table::row(cells!["answers correct", report.all_correct(), "—"]);
    table::row(cells![
        "longest path",
        format!("{} links", report.longest_path_links),
        "grows as log2 of cluster count"
    ]);
    assert_eq!(report.longest_path_links, longest);
    let prop_us = report.longest_path_links as f64 * 6.0;
    table::row(cells![
        "request propagation (path × 6 µs)",
        format!("~{prop_us:.0} µs"),
        "about 150 µs at 128 nodes"
    ]);
    table::search_rows(
        &report,
        &[
            "less than 1.3 ms at 25k records",
            "—",
            "not adversely affected by scale",
        ],
    );
    table::degraded_row(&report);
    report
}

fn main() {
    table::heading(
        "E16",
        "the 256-transputer hypercube",
        "§4.2 scaled past the mesh",
    );

    let cube = run_one("hypercube(4,4)", HypercubeConfig::hypercube256());

    // The flat 16x16 board of e10's scaling run holds the same 256
    // nodes with a longest path of 30 links; the hypercube's is shorter.
    println!();
    println!(
        "path contraction: 256 nodes flat = 30 links; hypercube(4,4) = {} links",
        cube.longest_path_links
    );
    table::verdict(
        cube.all_correct() && !cube.degraded && cube.longest_path_links < 30,
        "the 51,200-record hypercube search completes correctly with a shorter longest path than a flat board",
    );
}
