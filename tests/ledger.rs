//! `BENCH_host.json` is exact, in tier-1: the artifact `hostperf`
//! writes is rendered here for the trimmed rows (the corpus under both
//! CPU tiers on the T424 and the T222, the static model, the
//! ablations, `source_lines`, and the five trimmed network rows under
//! both engines) twice in one process,
//! byte for byte the same, no key of it is a time taken on the host,
//! no row of it dropped a translated block, no network row of it holds
//! every node's whole logical memory, and every row of it is a row of
//! the committed file. CI holds the full file to the same
//! standard with `git diff`.

use transputer::MemoryConfig;
use transputer_bench::hostperf::{Report, TRIMMED_ROWS};

#[test]
fn trimmed_artifact_is_reproducible_and_holds_no_host_time() {
    let report = Report::measure(TRIMMED_ROWS);
    assert!(report.problems.is_empty(), "{:?}", report.problems);
    // Translated code lives until a store hits it, and then every block
    // goes (`cpu/translate.rs`); that is cheap only because no program
    // the ledger runs ever stores into its own code.
    let counters = report.cpu.iter().map(|r| (&r.counters, "cpu"));
    let counters = counters.chain(report.networks.iter().map(|r| (&r.counters, r.bench)));
    let mut translated = 0;
    for (c, row) in counters {
        assert_eq!(
            c.trans_invalidations, 0,
            "`{row}` overwrote translated code"
        );
        translated += c.trans_blocks;
    }
    assert!(translated > 0, "no row translated anything");
    // A node's memory costs what its program touches, not the logical
    // 64 KB (`transputer::memory`).
    let logical = MemoryConfig::default();
    let logical = u64::from(logical.on_chip_bytes + logical.off_chip_bytes);
    for r in &report.networks {
        let bound = r.nodes as u64 * logical;
        assert!(
            0 < r.mem_bytes && r.mem_bytes < bound,
            "`{}` holds {} bytes of memory for {} nodes",
            r.bench,
            r.mem_bytes,
            r.nodes
        );
    }
    let json = report.to_json();
    assert_eq!(json, Report::measure(TRIMMED_ROWS).to_json());

    // No string in the file holds a quote, so every odd piece is a
    // string, and a string followed by a colon is a key.
    let pieces: Vec<&str> = json.split('"').collect();
    let strings = pieces.windows(2).skip(1).step_by(2);
    let keys: Vec<&str> = strings
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect();
    assert!(keys.len() > 366, "{} keys", keys.len());
    for key in &keys {
        for host_time in ["wall", "mips", "per_sec", "ns_per", "cores", "unix"] {
            assert!(!key.contains(host_time), "key `{key}` names a host time");
        }
    }
    for section in [
        "cpu",
        "static_model",
        "ablations",
        "networks",
        "switching",
        "source_lines",
        "problems",
        "fingerprint",
        "node_pops",
        "instr_per_pop",
        "tier_share",
        "mean_hop_ns",
    ] {
        assert!(keys.contains(&section), "no `{section}` key");
    }
    assert!(json.contains("\"decode_cache\": false, \"translate\": false"));
    assert!(json.contains("\"router\": null"), "unrouted rows");
    assert!(
        json.contains("\"router\": {\"packets_sent\""),
        "routed rows"
    );
    assert!(json.contains("\"bench\": \"e17_routed_smoke\", \"sf_mean_hop_ns\""));
    assert!(json.ends_with("\"problems\": []\n}\n"));

    // Tests of the root package run in the repository root.
    let committed = std::fs::read_to_string("BENCH_host.json").expect("committed ledger");
    for row in json.lines().filter(|l| l.starts_with("    {")) {
        let row = row.trim_end_matches(',');
        assert!(
            committed.contains(row),
            "BENCH_host.json is stale (regenerate it with `hostperf`); no row\n{row}"
        );
    }
}
