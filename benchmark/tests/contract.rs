//! The benchmark's own contract: what `BENCHMARK.json` declares is what
//! the program emits, simulated quantities repeat exactly, a second seed
//! changes the inputs and still passes, and (release builds only, for
//! time) the full-size seed-1985 values are the ones the tree produced
//! when the benchmark was defined.

use std::collections::BTreeSet;
use std::path::Path;

use transputer_benchmark::harness::{self, Outcome, Request};
use transputer_benchmark::json::Json;
use transputer_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use transputer_benchmark::workloads::WORKLOADS;

fn pass(workload: &str, seed: u64, trace: bool, smoke: bool) -> Outcome {
    harness::run(&Request {
        workload: workload.to_string(),
        seed,
        // The harness runs its minimum number of iterations however
        // short this is; the tests need outputs, not steady timings.
        seconds: 0.01,
        trace,
        smoke,
    })
    .expect("a declared workload runs")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`: {entry:?}"))
}

#[test]
fn benchmark_json_declares_exactly_what_the_tables_hold() {
    let declared = benchmark_json();
    let keys: Vec<&str> = declared
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        declared.get("paths"),
        Some(&Json::Arr(vec![Json::str("benchmark")]))
    );

    let workloads = declared.get("workloads").and_then(Json::as_arr).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(field(entry, "name"), *name);
        assert_eq!(field(entry, "why"), *why);
        assert!(well_formed(name) && why.len() <= 200 && !why.contains('\n'));
    }

    let check = |key: &str, table: &[MetricDef], with_bound: bool| {
        let entries = declared.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), table.len(), "{key}");
        for (entry, def) in entries.iter().zip(table) {
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(entry, "better"), def.better.word(), "{}", def.name);
            let bound = entry.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, with_bound.then_some(def.bound), "{}", def.name);
        }
    };
    check("end_to_end", END_TO_END, true);
    check("per_layer", PER_LAYER, false);
}

#[test]
fn every_declared_metric_is_emitted_and_nothing_else() {
    for (workload, _) in WORKLOADS {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let outcome = pass(workload, 1985, trace, true);
            assert!(outcome.correct, "{workload} trace={trace}");
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            let line = Json::parse(&outcome.result_line()).expect("the result line is JSON");
            let keys: Vec<&str> = line
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let emitted: BTreeSet<&str> = line
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            let declared: BTreeSet<&str> = table.iter().map(|def| def.name).collect();
            assert_eq!(emitted, declared, "{workload} trace={trace}");
            assert!(emitted.iter().all(|name| well_formed(name)));
            if !trace {
                // Compared as ratios to a parent's median: never 0.
                for (def, value) in outcome.metrics.entries() {
                    assert!(value > 0.0, "{workload}: {} = {value}", def.name);
                }
            }
            assert_eq!(outcome.trace.is_some(), trace);
        }
    }
}

#[test]
fn simulated_metrics_repeat_exactly() {
    for (workload, _) in WORKLOADS {
        let (a, b) = (
            pass(workload, 1985, false, true),
            pass(workload, 1985, false, true),
        );
        assert_eq!(a.sim, b.sim, "{workload}");
        for def in END_TO_END.iter().filter(|def| def.exact) {
            assert_eq!(
                a.metrics.get(def.name),
                b.metrics.get(def.name),
                "{workload}: {}",
                def.name
            );
        }
    }
}

#[test]
fn a_second_seed_changes_the_inputs_and_still_passes() {
    for (workload, _) in WORKLOADS {
        let (a, b) = (
            pass(workload, 1985, false, true),
            pass(workload, 7, false, true),
        );
        assert!(a.correct && b.correct, "{workload}");
        // The seed fills databases and fault schedules; the two
        // program-only workloads do not depend on it.
        let seeded = !matches!(*workload, "cpu_corpus" | "toolchain_sources");
        assert_eq!(a.sim.fingerprint != b.sim.fingerprint, seeded, "{workload}");
    }
}

#[test]
fn traced_pass_shows_which_layers_a_workload_bypasses() {
    let layer = |workload: &str, name: &str| {
        let outcome = pass(workload, 1985, true, true);
        assert!(outcome.correct, "{workload}");
        assert_eq!(
            outcome.metrics.get("net.engine.fingerprints_equal"),
            Some(1.0)
        );
        outcome.metrics.get(name).unwrap()
    };
    assert_eq!(layer("cpu_corpus", "net.nodes"), 0.0);
    assert_eq!(layer("toolchain_sources", "transputer.instructions"), 0.0);
    assert_eq!(layer("tree_board128", "net.router.hops"), 0.0);
    assert_eq!(layer("tree_board128", "link.retries"), 0.0);
    assert!(layer("routed_cube256", "net.router.hops") > 0.0);
    assert_eq!(layer("routed_cube256", "net.router.cut_through"), 0.0);
    assert_eq!(layer("routed_grid1024_worm", "net.router.cut_through"), 1.0);
}

#[test]
fn no_file_but_surface_rs_names_a_measured_crate() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let crates = [
        "occam::",
        "transputer::",
        "transputer_link::",
        "transputer_net::",
        "transputer_asm::",
        "transputer_apps::",
        "transputer_analysis::",
    ];
    let mut stack = vec![src];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().unwrap() != "surface.rs" {
                let text = std::fs::read_to_string(&path).unwrap();
                for name in crates {
                    assert!(
                        !text.contains(name),
                        "{} reaches into `{name}` directly; import it through surface.rs",
                        path.display()
                    );
                }
            }
        }
    }
}

/// The values the tree produced at seed 1985 when the benchmark was
/// defined. A later change that moves one of them has changed what the
/// modelled machine does, and must say so. Full-size machines: release
/// builds only (`cargo test --release`).
#[test]
#[cfg_attr(debug_assertions, ignore = "full-size machines; run with --release")]
fn seed_1985_simulated_values_are_pinned() {
    // (workload, first answer ns, answer interval ns, cycles, code bytes)
    let pinned: [(&str, u64, u64, u64, f64); 6] = [
        ("cpu_corpus", 0, 0, 63_144, 799.0),
        ("toolchain_sources", 0, 0, 0, 21_431.0),
        ("tree_board128", 894_200, 751_400, 7_971_810, 12_375.0),
        (
            "tree_board128_faulted",
            982_800,
            765_883,
            8_211_025,
            12_375.0,
        ),
        ("routed_cube256", 3_791_550, 2_666_850, 52_738_466, 8_051.0),
        (
            "routed_grid1024_worm",
            11_413_450,
            10_649_600,
            334_870_492,
            206.0,
        ),
    ];
    for (workload, first, interval, cycles, code_bytes) in pinned {
        let outcome = pass(workload, 1985, false, false);
        assert!(outcome.correct, "{workload}");
        assert_eq!(outcome.sim.first_answer_ns, first, "{workload}");
        assert_eq!(outcome.sim.answer_interval_ns, interval, "{workload}");
        assert_eq!(outcome.sim.cycles, cycles, "{workload}");
        assert_eq!(
            outcome.metrics.get("code_bytes"),
            Some(code_bytes),
            "{workload}"
        );
    }
    // 20 632 bytes for the 215 generated sources, 799 for the corpus.
    assert_eq!(20_632.0 + 799.0, 21_431.0);

    let faulted = pass("tree_board128_faulted", 1985, true, false);
    assert!(faulted.correct);
    assert_eq!(faulted.metrics.get("link.retries"), Some(19.0));
    assert_eq!(faulted.metrics.get("link.failures"), Some(0.0));
    assert_eq!(faulted.metrics.get("net.router.hops"), Some(0.0));
    assert_eq!(
        faulted.metrics.get("net.engine.fingerprints_equal"),
        Some(1.0)
    );
}
