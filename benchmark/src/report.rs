//! The whole set in one command: every workload in a child process of
//! its own (so `peak_rss_mb` is that workload's and nobody else's), an
//! untraced pass then a traced one, every metric printed by name with
//! its unit, and the files under `out/`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::metrics::{self, Better, END_TO_END};
use crate::workloads::WORKLOADS;

/// Where the result files go: `out/` beside the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Options of a whole-set run.
#[derive(Debug, Clone)]
pub struct SetOptions {
    /// Input seed.
    pub seed: u64,
    /// Seconds each pass measures.
    pub seconds: f64,
    /// Trimmed configurations.
    pub smoke: bool,
    /// How many times to run the set.
    pub repeat: usize,
    /// Only this workload, if given.
    pub only: Option<String>,
}

/// One workload's two result lines, parsed.
struct WorkloadResult {
    name: &'static str,
    end_to_end: Json,
    per_layer: Json,
}

/// Run this executable again on one workload and parse its result line.
fn child(options: &SetOptions, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if options.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child and collects its stdout; its stderr
    // (failed checks) goes straight to ours.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child for `{workload}`: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("`{workload}` printed no result ({})", output.status))?;
    Json::parse(line).map_err(|e| format!("`{workload}` result line: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn print_metrics(result: &Json) {
    for (name, metric) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<38} {value:>18.6} {unit}");
    }
}

/// `failed / attempted` of a result line.
fn failed_share(result: &Json) -> f64 {
    let count = |key| result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    count("failed") / count("attempted")
}

fn run_set(options: &SetOptions) -> Result<(Vec<WorkloadResult>, bool), String> {
    let mut results = Vec::new();
    let mut ok = true;
    for (name, why) in WORKLOADS {
        if options.only.as_deref().is_some_and(|only| only != *name) {
            continue;
        }
        println!("\n== {name} (seed {}) ==\n   {why}", options.seed);
        let end_to_end = child(options, name, false)?;
        print_metrics(&end_to_end);
        println!(
            "  {:<38} {:>18.6} ratio",
            "failed_share",
            failed_share(&end_to_end)
        );
        let per_layer = child(options, name, true)?;
        println!(
            "  -- per layer (traced pass; failed_share {}) --",
            failed_share(&per_layer)
        );
        print_metrics(&per_layer);
        for result in [&end_to_end, &per_layer] {
            ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
        }
        results.push(WorkloadResult {
            name,
            end_to_end,
            per_layer,
        });
    }
    Ok((results, ok))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Join the per-workload trace files the children wrote into one
/// `trace.json`, keyed by workload.
fn merge_traces(results: &[WorkloadResult]) -> Result<(), String> {
    let mut merged = String::from("{\n");
    for (i, result) in results.iter().enumerate() {
        let path = out_dir().join(format!("trace.{}.json", result.name));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let comma = if i + 1 < results.len() { "," } else { "" };
        merged.push_str(&format!(
            "\"{}\": {}{comma}\n",
            result.name,
            text.trim_end()
        ));
    }
    merged.push_str("}\n");
    write(&out_dir().join("trace.json"), &merged)
}

/// How far `later` is worse than `first`, as a share of `first`.
fn worsening(def: &metrics::MetricDef, first: f64, later: f64) -> f64 {
    match def.better {
        Better::Lower => (later - first) / first,
        Better::Higher => (first - later) / first,
    }
}

/// Run the whole set `options.repeat` times. Returns whether every check
/// passed and, for `repeat > 1`, every end-to-end metric of every later
/// set stayed within its bound of the first set's.
///
/// # Errors
///
/// Returns a message if a child cannot be started or prints no result,
/// or a file under `out/` cannot be written.
pub fn run(options: &SetOptions) -> Result<bool, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("cannot create out/: {e}"))?;
    let mut sets = Vec::new();
    let mut ok = true;
    for set in 0..options.repeat {
        if options.repeat > 1 {
            println!("\n######## set {} of {} ########", set + 1, options.repeat);
        }
        let (results, set_ok) = run_set(options)?;
        ok &= set_ok;
        sets.push(results);
    }

    let last = sets.last().expect("repeat is at least 1");
    let results_json = Json::obj([
        ("seed", Json::from(options.seed)),
        ("seconds", Json::from(options.seconds)),
        ("smoke", Json::from(options.smoke)),
        (
            "workloads",
            Json::Obj(
                last.iter()
                    .map(|r| {
                        (
                            r.name.to_string(),
                            Json::obj([
                                ("end_to_end", r.end_to_end.clone()),
                                ("per_layer", r.per_layer.clone()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    write(&out_dir().join("results.json"), &results_json.pretty())?;
    merge_traces(last)?;

    if options.repeat > 1 {
        println!("\n== repeat: worst later set against the first, per workload x metric ==");
        println!(
            "  {:<24} {:<24} {:>12} {:>8}  verdict",
            "workload", "metric", "worsening", "bound"
        );
        let mut rows = Vec::new();
        for (w, first) in sets[0].iter().enumerate() {
            for def in END_TO_END {
                let base = metric_value(&first.end_to_end, def.name).unwrap_or(f64::NAN);
                let values: Vec<f64> = sets
                    .iter()
                    .map(|set| metric_value(&set[w].end_to_end, def.name).unwrap_or(f64::NAN))
                    .collect();
                let worst = values[1..]
                    .iter()
                    .map(|&v| worsening(def, base, v))
                    .fold(f64::NEG_INFINITY, f64::max);
                // A simulated or counted quantity must not move at all
                // between two runs of one program on one seed.
                let within = if def.exact {
                    values.iter().all(|v| *v == base)
                } else {
                    worst <= def.bound
                };
                ok &= within;
                println!(
                    "  {:<24} {:<24} {:>+12.4} {:>8} {}",
                    first.name,
                    def.name,
                    worst,
                    if def.exact {
                        "exact".to_string()
                    } else {
                        def.bound.to_string()
                    },
                    if within { " ok" } else { " EXCEEDED" }
                );
                rows.push(Json::obj([
                    ("workload", Json::str(first.name)),
                    ("metric", Json::str(def.name)),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::from).collect()),
                    ),
                    ("worsening", Json::from(worst)),
                    ("bound", Json::from(def.bound)),
                    ("exact", Json::from(def.exact)),
                    ("within", Json::from(within)),
                ]));
            }
        }
        write(&out_dir().join("repeat.json"), &Json::Arr(rows).pretty())?;
    }
    println!(
        "\nresults: {}\ntrace:   {}",
        out_dir().join("results.json").display(),
        out_dir().join("trace.json").display()
    );
    Ok(ok)
}
