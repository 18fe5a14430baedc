//! One workload, measured: the untraced pass that produces the
//! end-to-end metrics, and the traced pass that produces the per-layer
//! ones.
//!
//! Closed loop, one process, one thread: the next iteration starts when
//! the previous one has been checked. Each iteration is
//! `setup · kernel · run · kernel · check`, so reference-kernel calls are
//! spread through the pass between the regions they are compared with.
//!
//! What disturbs this host only ever adds time, and it comes and goes
//! within milliseconds as well as within minutes. So a pass reports the
//! *quietest* sample of each region — the one a disturbance touched
//! least — and a region's cost in reference units is its quietest wall
//! time over the quietest kernel call of the same pass. Ten processes on
//! each workload put that ratio's quartiles 4–6 % apart; the median of
//! per-iteration ratios spread 4–21 % on the same samples (`README.md`
//! has the table).

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{median, minimum, ratio, MetricSet, END_TO_END, NOT_APPLICABLE, PER_LAYER};
use crate::refkernel::RefKernel;
use crate::surface::{DuplexLink, End, LinkEvent, LinkSpeed};
use crate::trace::Tracer;
use crate::workloads::{self, Checked, LayerCtx, Sim, Workload};

/// Fewest iterations a pass reports on, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// Share of a traced run's `--seconds` spent on its own iterations; the
/// rest is left for the extra engine, tier and reference runs.
const TRACED_ITERATION_SHARE: f64 = 0.4;

/// What to run.
#[derive(Debug, Clone)]
pub struct Request {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Trimmed configurations.
    pub smoke: bool,
}

/// What a pass found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// The pass's metrics: end-to-end if untraced, per-layer if traced.
    pub metrics: MetricSet,
    /// The simulated quantities every iteration produced.
    pub sim: Sim,
    /// The recorded spans, for a traced pass.
    pub trace: Option<Json>,
}

impl Outcome {
    /// The result line the contract asks for.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics.to_json()),
        ])
        .line()
    }
}

/// One iteration's timings, seconds.
#[derive(Debug, Clone, Copy)]
struct Sample {
    setup: f64,
    run: f64,
    /// The kernel calls after `setup` and after `run`.
    kernels: [f64; 2],
    traced: bool,
}

/// Iterations of one workload, with what they found so far.
struct Loop {
    workload: Box<dyn Workload>,
    kernel: RefKernel,
    tracer: Tracer,
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    sim: Option<Sim>,
}

impl Loop {
    fn new(workload: Box<dyn Workload>) -> Loop {
        Loop {
            workload,
            kernel: RefKernel::new(),
            tracer: Tracer::new(false),
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            sim: None,
        }
    }

    /// One iteration; `keep` is false for the warm-up, whose timings are
    /// dropped but whose outputs are still checked.
    fn iterate(&mut self, keep: bool) {
        self.tracer.next_iteration();
        self.workload.reset();
        let traced = self.tracer.is_recording();
        let workload = &mut self.workload;
        let kernel = &self.kernel;
        let ((setup, run, kernels, checked), _) = self.tracer.timed("iteration", |t| {
            let ((), setup) = t.timed("setup", |t| workload.setup(t));
            let between = t.timed("host.ref_kernel", |_| kernel.time()).0;
            let ((), run) = t.timed("run", |t| workload.run(t));
            let after = t.timed("host.ref_kernel", |_| kernel.time()).0;
            let checked = t.timed("check", |_| workload.check()).0;
            (setup, run, [between, after], checked)
        });
        self.absorb(checked);
        if keep {
            self.samples.push(Sample {
                setup: setup.as_secs_f64(),
                run: run.as_secs_f64(),
                kernels: kernels.map(|wall| wall.as_secs_f64()),
                traced,
            });
        }
    }

    /// Add an iteration's checks to the totals; simulated quantities
    /// that differ from the first iteration's are a failure of their own.
    fn absorb(&mut self, checked: Checked) {
        self.attempted += checked.attempted + 1;
        self.failed += checked.failed;
        match &self.sim {
            None => self.sim = Some(checked.sim),
            Some(first) if *first != checked.sim => {
                self.failed += 1;
                eprintln!(
                    "CHECK FAILED: simulated quantities changed between iterations: {first:?} then {:?}",
                    checked.sim
                );
            }
            Some(_) => {}
        }
    }

    fn kernel_walls(&self) -> Vec<f64> {
        self.samples.iter().flat_map(|s| s.kernels).collect()
    }
}

/// Run one pass of one workload.
///
/// # Errors
///
/// Returns a message if the workload name is unknown.
pub fn run(request: &Request) -> Result<Outcome, String> {
    let workload = workloads::make(&request.workload, request.seed, request.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", request.workload))?;
    let mut l = Loop::new(workload);
    // Warm-up: first-touch page faults, lazy statics, the allocator's
    // first growth. Users do not pay these per run; a benchmark that
    // times them measures the process's start.
    l.iterate(false);
    if request.trace {
        traced_pass(request, l)
    } else {
        Ok(untraced_pass(request, l))
    }
}

fn untraced_pass(request: &Request, mut l: Loop) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(request.seconds);
    while l.samples.len() < MIN_ITERATIONS || Instant::now() < deadline {
        l.iterate(true);
    }
    let sim = l.sim.clone().expect("at least one iteration ran");
    let runs: Vec<f64> = l.samples.iter().map(|s| s.run).collect();
    let setups: Vec<f64> = l.samples.iter().map(|s| s.setup).collect();
    let or_na = |v: u64| if v == 0 { NOT_APPLICABLE } else { v as f64 };
    let mut metrics = MetricSet::new(END_TO_END);
    metrics.set("setup_s", minimum(&setups));
    metrics.set("run_ref_ratio", minimum(&runs) / minimum(&l.kernel_walls()));
    metrics.set("sim_first_answer_ns", or_na(sim.first_answer_ns));
    metrics.set("sim_answer_interval_ns", or_na(sim.answer_interval_ns));
    metrics.set("sim_cycles", or_na(sim.cycles));
    metrics.set("code_bytes", or_na(l.workload.code_bytes()));
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        correct: l.failed == 0,
        attempted: l.attempted,
        failed: l.failed,
        metrics,
        sim,
        trace: None,
    }
}

fn traced_pass(request: &Request, mut l: Loop) -> Result<Outcome, String> {
    // Iterations with recording on and off by turns: the same work, so
    // the ratio of their costs is what recording costs
    // (an even count, so the last one recorded and the workload's state
    // is that of a traced iteration).
    let deadline =
        Instant::now() + Duration::from_secs_f64(request.seconds * TRACED_ITERATION_SHARE);
    while l.samples.len() < 2 * MIN_ITERATIONS
        || l.samples.len() % 2 == 1
        || Instant::now() < deadline
    {
        l.tracer.set_enabled(l.samples.len() % 2 == 1);
        l.iterate(true);
    }
    l.tracer.set_enabled(true);

    let quietest_run = |traced: bool| -> f64 {
        l.samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.run)
            .min_by(f64::total_cmp)
            .expect("both kinds of iteration ran")
    };
    let run_walls: Vec<f64> = l.samples.iter().map(|s| s.run).collect();
    let kernel_walls = l.kernel_walls();
    let kernel_min_s = minimum(&kernel_walls);
    let run_ref_ratio = quietest_run(false) / kernel_min_s;
    let overhead = quietest_run(true) / quietest_run(false);
    let sim = l.sim.clone().expect("at least one iteration ran");

    let mut metrics = MetricSet::new(PER_LAYER);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    metrics.set_count("host.cores", cores as u64);
    metrics.set("host.ref_kernel_min_s", kernel_min_s);
    metrics.set("host.ref_kernel_med_s", median(&kernel_walls));
    metrics.set("host.noise_index", median(&kernel_walls) / kernel_min_s);
    metrics.set("host.run_wall_min_s", minimum(&run_walls));
    metrics.set("host.run_wall_med_s", median(&run_walls));
    metrics.set(
        "host.sim_mips",
        sim.instructions as f64 / minimum(&run_walls) / 1e6,
    );
    metrics.set(
        "host.ns_per_sim_ns",
        ratio(minimum(&run_walls) * 1e9, sim.sim_ns as f64),
    );
    metrics.set_count("host.iterations", l.samples.len() as u64);
    metrics.set("trace.overhead_ratio", overhead);

    let mut ctx = LayerCtx {
        tracer: &mut l.tracer,
        kernel_min_s,
        metrics: &mut metrics,
        run_ref_ratio,
        run_wall_s: minimum(&run_walls),
        attempted: 0,
        failed: 0,
    };
    duplex_layers(&mut ctx);
    l.workload.layers(&mut ctx);
    let (attempted, failed) = (l.attempted + ctx.attempted, l.failed + ctx.failed);

    metrics.set_count("trace.spans", l.tracer.len() as u64);
    // A layer that did no work on this workload reads 0.
    metrics.fill_rest(0.0);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        sim,
        trace: Some(l.tracer.to_json(&request.workload, request.seed)),
    })
}

/// Bytes streamed through the standalone link below.
const DUPLEX_BYTES: u64 = 20_000;

/// Host cost of the wire model on its own: stream bytes end to end
/// through one `DuplexLink`, classic protocol then robust, and report
/// host ns per byte. The same on every workload — it is the link
/// layer's own speed, to set beside what a network run spends.
fn duplex_layers(ctx: &mut LayerCtx<'_>) {
    for (name, span, robust) in [
        ("link.duplex.basic_ns_per_byte", "link.duplex.basic", false),
        ("link.duplex.robust_ns_per_byte", "link.duplex.robust", true),
    ] {
        let (delivered, wall) = ctx
            .tracer
            .timed(span, |_| stream_bytes(DUPLEX_BYTES, robust));
        ctx.expect(
            delivered == DUPLEX_BYTES,
            "standalone link lost or duplicated a byte",
        );
        ctx.metrics
            .set(name, wall.as_nanos() as f64 / DUPLEX_BYTES as f64);
    }
}

/// Send `n` bytes from end A to end B, one outstanding byte at a time,
/// acknowledging each on delivery; return how many arrived intact and in
/// order.
fn stream_bytes(n: u64, robust: bool) -> u64 {
    let speed = LinkSpeed::standard();
    let mut link = if robust {
        DuplexLink::new_robust(speed, [None, None], None)
    } else {
        DuplexLink::new(speed)
    };
    let byte_of = |i: u64| (i.wrapping_mul(37) & 0xff) as u8;
    let seq_of = |i: u64| robust && i % 2 == 1;
    let (mut now, mut sent, mut acked, mut delivered) = (0u64, 1u64, 0u64, 0u64);
    link.send_data_seq(End::A, byte_of(0), seq_of(0), now);
    while acked < n {
        let events = link.advance(now);
        if events.is_empty() {
            match link.next_deadline() {
                Some(at) => now = at,
                None => break,
            }
            continue;
        }
        for event in events {
            match event {
                LinkEvent::DataDelivered {
                    to: End::B,
                    byte,
                    seq,
                } => {
                    if byte == byte_of(delivered) && seq == seq_of(delivered) {
                        delivered += 1;
                    }
                    link.send_ack_seq(End::B, seq, now);
                }
                LinkEvent::AckDelivered { to: End::A, .. } => {
                    acked += 1;
                    if sent < n {
                        link.send_data_seq(End::A, byte_of(sent), seq_of(sent), now);
                        sent += 1;
                    }
                }
                _ => {}
            }
        }
    }
    delivered
}

/// Peak resident set of this process, MiB (`VmHWM` of
/// `/proc/self/status`); 0 where the file is missing.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
