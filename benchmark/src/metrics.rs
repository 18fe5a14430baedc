//! The metric tables — every name the benchmark prints, with its unit and
//! direction — and the small statistics the harness needs.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a
//! test keeps the two in step. A value is set through [`MetricSet`],
//! which refuses an undeclared name and a missing one, so a workload
//! cannot silently drop or invent a metric.

use crate::json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// End-to-end only: a simulated or counted quantity that must repeat
    /// exactly between two runs of the same code on the same seed
    /// (`--repeat` and the tests hold it to zero difference, whatever
    /// `bound` allows between different seeds).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

/// What a metric reads on a workload it does not apply to (no network in
/// `cpu_corpus`, no simulation in `toolchain_sources`). End-to-end
/// metrics are compared as ratios to a parent's median, so they may
/// never read 0; 1 is the smallest count of any of the units concerned
/// and far from every real value.
pub const NOT_APPLICABLE: f64 = 1.0;

/// The end-to-end metrics, printed by an untraced run. Lower is better
/// for all of them.
///
/// A bound has to hold between any two sets of runs of unchanged code,
/// each run on a seed of its own, on a host that is never quiet. Two
/// sets of ten such runs per workload put the quartiles of
/// `run_ref_ratio` 2-12 % apart and those of `setup_s` 3-13 %, and the
/// two sets' medians within 6 % and 12 %; both get the widest bound the
/// benchmark's contract allows. The simulated quantities repeat exactly
/// on one seed (`exact`); from seed to seed the fault plan moves the
/// first answer by up to 2.4 % and the cycle count by 0.5 %, and each
/// bound is three times that or more.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25, false),
    e2e("run_ref_ratio", "ref", 0.25, false),
    e2e("sim_first_answer_ns", "sim_ns", 0.10, true),
    e2e("sim_answer_interval_ns", "sim_ns", 0.10, true),
    e2e("sim_cycles", "cycles", 0.02, true),
    e2e("code_bytes", "bytes", 0.02, true),
    e2e("peak_rss_mb", "MB", 0.10, false),
];

use Better::{Higher, Lower};

/// The per-layer metrics, printed by a traced run. Layer = crate name.
/// A count reads 0 on a workload where the layer does no work — which
/// is the evidence that the workload bypasses it.
pub const PER_LAYER: &[MetricDef] = &[
    // host: the benchmark itself. Explain, never judge.
    layer("host.cores", "count", Higher),
    layer("host.ref_kernel_min_s", "s", Lower),
    layer("host.ref_kernel_med_s", "s", Lower),
    layer("host.noise_index", "ratio", Lower),
    layer("host.run_wall_min_s", "s", Lower),
    layer("host.run_wall_med_s", "s", Lower),
    layer("host.sim_mips", "MIPS", Higher),
    layer("host.ns_per_sim_ns", "ratio", Lower),
    layer("host.iterations", "count", Higher),
    layer("trace.spans", "count", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    // occam
    layer("occam.lex_s", "s", Lower),
    layer("occam.parse_s", "s", Lower),
    layer("occam.compile_s", "s", Lower),
    layer("occam.sources", "count", Lower),
    layer("occam.source_lines", "count", Lower),
    layer("occam.lines_per_s", "1/s", Higher),
    layer("occam.code_bytes", "bytes", Lower),
    // analysis
    layer("analysis.lint_source_s", "s", Lower),
    layer("analysis.verify_cfg_s", "s", Lower),
    layer("analysis.verify_linear_s", "s", Lower),
    layer("analysis.diagnostics", "count", Lower),
    // asm
    layer("asm.disassemble_s", "s", Lower),
    layer("asm.instructions", "count", Lower),
    // apps
    layer("apps.sources_s", "s", Lower),
    layer("apps.build_s", "s", Lower),
    layer("apps.build_other_s", "s", Lower),
    layer("apps.programs", "count", Lower),
    // transputer
    layer("transputer.tier.byte_ref_ratio", "ref", Lower),
    layer("transputer.tier.decode_ref_ratio", "ref", Lower),
    layer("transputer.tier.translate_ref_ratio", "ref", Lower),
    layer("transputer.instructions", "count", Lower),
    layer("transputer.cycles", "cycles", Lower),
    layer("transputer.cpi", "ratio", Lower),
    layer("transputer.decode.hits", "count", Higher),
    layer("transputer.decode.misses", "count", Lower),
    layer("transputer.decode.hit_ratio", "ratio", Higher),
    layer("transputer.trans.blocks", "count", Lower),
    layer("transputer.trans.enters", "count", Higher),
    layer("transputer.trans.deopts", "count", Lower),
    layer("transputer.trans.deopt_ratio", "ratio", Lower),
    layer("transputer.deschedules", "count", Lower),
    layer("transputer.messages", "count", Lower),
    // link
    layer("link.duplex.basic_ns_per_byte", "ns", Lower),
    layer("link.duplex.robust_ns_per_byte", "ns", Lower),
    layer("link.wire_bytes", "bytes", Lower),
    layer("link.retries", "count", Lower),
    layer("link.rx_errors", "count", Lower),
    layer("link.dup_data", "count", Lower),
    layer("link.failures", "count", Lower),
    layer("link.retry_ratio", "ratio", Lower),
    layer("link.wire_util_max", "ratio", Lower),
    layer("link.wire_util_mean", "ratio", Lower),
    // net
    layer("net.nodes", "count", Lower),
    layer("net.wires", "count", Lower),
    layer("net.engine.sliced_ref_ratio", "ref", Lower),
    layer("net.engine.event_ref_ratio", "ref", Lower),
    layer("net.engine.par2_ref_ratio", "ref", Lower),
    layer("net.engine.sliced_vs_event", "ratio", Higher),
    layer("net.engine.par2_vs_sliced", "ratio", Higher),
    layer("net.engine.fingerprints_equal", "count", Higher),
    layer("net.event.steps", "count", Lower),
    layer("net.event.ns_per_step", "ns", Lower),
    layer("net.par.spawned_threads", "count", Lower),
    layer("net.cpu_share_est", "ratio", Higher),
    // net::router
    layer("net.router.packets_sent", "count", Lower),
    layer("net.router.packets_forwarded", "count", Lower),
    layer("net.router.packets_delivered", "count", Higher),
    layer("net.router.packets_dropped", "count", Lower),
    layer("net.router.hops", "count", Lower),
    layer("net.router.mean_hop_ns", "sim_ns", Lower),
    layer("net.router.p50_hop_ns", "sim_ns", Lower),
    layer("net.router.p99_hop_ns", "sim_ns", Lower),
    layer("net.router.max_hop_ns", "sim_ns", Lower),
    layer("net.router.cut_through", "count", Higher),
    layer("net.router.ref_ratio_over_tree", "ratio", Lower),
];

/// Look a declared metric up by name, in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// The values of one table, filled in by a run.
#[derive(Debug, Clone)]
pub struct MetricSet {
    table: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl MetricSet {
    /// An empty set over `table`.
    pub fn new(table: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Record `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the table does not declare `name`, if it was already
    /// set, or if the value is not a finite number: each is a bug in the
    /// benchmark, not a measurement.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(self.values[i].is_none(), "metric `{name}` set twice");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values[i] = Some(value);
    }

    /// Record a count.
    pub fn set_count(&mut self, name: &str, value: u64) {
        self.set(name, value as f64);
    }

    /// Give every metric not yet set the value `fill`.
    pub fn fill_rest(&mut self, fill: f64) {
        for value in &mut self.values {
            value.get_or_insert(fill);
        }
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.table.iter().position(|def| def.name == name)?;
        self.values[i]
    }

    /// `(definition, value)` in table order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never set.
    pub fn entries(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.table.iter().zip(&self.values).map(|(def, value)| {
            (
                def,
                value.unwrap_or_else(|| panic!("metric `{}` was never set", def.name)),
            )
        })
    }

    /// The `metrics` member of a result line.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries()
                .map(|(def, value)| {
                    (
                        def.name.to_string(),
                        Json::obj([("value", Json::from(value)), ("unit", Json::str(def.unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Smallest of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("minimum of no samples")
}

/// `a / b`, or 0 when `b` is 0 (ratios of counts on idle layers).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def.unit.len() <= 16);
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn median_and_minimum() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        MetricSet::new(END_TO_END).set("nope", 1.0);
    }
}
