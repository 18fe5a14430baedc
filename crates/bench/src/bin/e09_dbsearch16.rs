//! E9 — Figure 8: "16 transputers are connected into a square array with
//! search requests input at one corner ... and answers being output from
//! the other corner. Each transputer keeps a small part of the database
//! in its local memory."
//!
//! Runs the full stack: per-node occam programs compiled to I1 code,
//! executed on 16 emulated T424s (plus host injector/collector nodes)
//! wired with bit-level links; 200 records per node, pipelined requests.

use transputer_apps::{DbSearch, DbSearchConfig};
use transputer_bench::{cells, table};

fn main() {
    table::heading(
        "E9",
        "concurrent database search, 4×4 array",
        "Figure 8, §4.2",
    );

    let config = DbSearchConfig::figure8();
    println!(
        "{} transputers, {} records each ({} total), {} pipelined requests\n",
        config.width * config.height,
        config.records_per_node,
        config.total_records(),
        config.requests
    );
    let mut sim = DbSearch::build(config).expect("builds");
    let report = sim.run(1_000_000_000_000).expect("runs");

    table::header(&["metric", "measured", "paper"]);
    table::row(cells![
        "answers correct",
        format!("{:?} = {:?}", report.answers, report.expected),
        "—"
    ]);
    table::row(cells![
        "longest request path",
        format!("{} links", report.longest_path_links),
        "path-proportional propagation"
    ]);
    table::search_rows(
        &report,
        &[
            "\"less than a millisecond\" per node search",
            "\"requests can be pipelined\"",
            "—",
        ],
    );
    table::row(cells![
        "total instructions (array)",
        report.total_instructions,
        "—"
    ]);

    let per_node_search_ms = report.pipeline_interval_ns as f64 / 1e6;
    println!();
    println!(
        "the local search of 200 records dominates each stage at ~{per_node_search_ms:.2} ms \
         (paper: \"for each transputer to search its own records ... will take less \
         than a millisecond\")"
    );
    table::verdict(
        report.all_correct()
            && report.pipeline_interval_ns < report.first_answer_ns
            && per_node_search_ms < 1.0,
        "answers correct; per-stage search below 1 ms; pipelining beats single-request latency",
    );
}
