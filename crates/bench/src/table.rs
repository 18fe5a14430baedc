//! Report formatting: every experiment binary prints a heading, the
//! paper's claim, and a table of paper-vs-measured rows so EXPERIMENTS.md
//! can be regenerated by piping the binaries' output.

use transputer_apps::DbSearchReport;

/// Print an experiment heading.
pub fn heading(id: &str, title: &str, paper_ref: &str) {
    println!("\n## {id}: {title}");
    println!("(paper: {paper_ref})\n");
}

/// Print a table header.
pub fn header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!(
        "|{}|",
        cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Print a table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Convenience: string-ify mixed cells.
#[macro_export]
macro_rules! cells {
    ($($x:expr),* $(,)?) => {
        &[$(format!("{}", $x)),*]
    };
}

/// Print a pass/fail verdict line.
pub fn verdict(ok: bool, what: &str) {
    println!("\n{} {what}", if ok { "PASS:" } else { "FAIL:" });
}

/// A search's timing rows, one per paper claim given: first-answer
/// latency, then the pipelined answer interval, then throughput.
pub fn search_rows(report: &DbSearchReport, paper: &[&str]) {
    let measured = [
        ("first-answer latency", ms(report.first_answer_ns)),
        ("pipelined answer interval", ms(report.pipeline_interval_ns)),
        (
            "throughput",
            format!("{:.0} searches/s", report.throughput_per_sec()),
        ),
    ];
    for ((metric, value), paper) in measured.into_iter().zip(paper) {
        row(cells![metric, value, paper]);
    }
}

/// Format nanoseconds as microseconds with two decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2} µs", ns as f64 / 1000.0)
}

/// Format nanoseconds as milliseconds with three decimals.
pub fn ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting() {
        assert_eq!(super::us(1500), "1.50 µs");
        assert_eq!(super::ms(1_300_000), "1.300 ms");
    }
}
