//! `toolchain_sources`: the compiler, the analyses and the disassembler
//! over every occam source the repository generates, and nothing else.
//!
//! The sources are the eight corpus programs plus the per-node programs
//! of the 128-transputer board, the 256-node hypercube (deduplicated by
//! text) and the routed 32×32 grid. One iteration is one pass of lex →
//! parse → compile → source lints → CFG verifier → linear verifier →
//! disassemble over all of them (≈25 ms: the harness reports the
//! quietest iteration, and a short one is far likelier to fall between
//! two disturbances of the host than ten in a row). No processor is ever
//! created: this is the only workload on which `occam`, `analysis` and
//! `asm` do the work, and the only one a change to them should move.
//! Seed-independent: the seed fills databases, not programs.

use crate::surface::{
    array_sources, compile, disassemble, hypercube_sources, lex, lint_source, parse,
    routed_sources, verify_program, verify_program_cfg, DbSearchConfig, HypercubeConfig,
};
use crate::trace::Tracer;
use crate::workloads::corpus::{frontend_layers, SOURCES};
use crate::workloads::network::{board128, cube256, grid1024};
use crate::workloads::{fnv1a, Checked, LayerCtx, Sim, Workload, FNV_BASIS};

/// What one pass over the sources produced.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct PassOutput {
    /// Sources that went through every stage with no error diagnostic.
    clean: u64,
    /// Sources that failed a stage or drew an error diagnostic.
    broken: u64,
    code_bytes: u64,
    diagnostics: u64,
    instructions: u64,
    fingerprint: u64,
}

/// The workload.
pub struct Toolchain {
    board: DbSearchConfig,
    cube: HypercubeConfig,
    grid: DbSearchConfig,
    sources: Vec<String>,
    output: PassOutput,
}

impl Toolchain {
    /// The source set of the full-size (or trimmed) machines.
    pub fn new(smoke: bool) -> Toolchain {
        Toolchain {
            // The seed does not reach a source text; any value will do.
            board: board128(0, smoke),
            cube: cube256(0, smoke),
            grid: grid1024(0, smoke),
            sources: Vec::new(),
            output: PassOutput::default(),
        }
    }

    fn generate(&self) -> Vec<String> {
        SOURCES
            .iter()
            .map(|(_, source)| source.to_string())
            .chain(
                array_sources(&self.board)
                    .into_iter()
                    .chain(hypercube_sources(&self.cube))
                    .chain(routed_sources(&self.grid))
                    .map(|(_, source)| source),
            )
            .collect()
    }
}

/// Every stage over one source, in pipeline order.
fn one_source(source: &str, out: &mut PassOutput) {
    let mut broken = lex(source).is_err() | parse(source).is_err();
    let mut diagnostics = lint_source(source);
    match compile(source) {
        Ok(program) => {
            diagnostics.extend(verify_program_cfg(&program));
            diagnostics.extend(verify_program(&program));
            let decoded = disassemble(&program.code);
            out.code_bytes += program.code.len() as u64;
            out.instructions += decoded.len() as u64;
            out.diagnostics += program.warnings.len() as u64;
            for byte in &program.code {
                fnv1a(&mut out.fingerprint, u64::from(*byte));
            }
        }
        Err(_) => broken = true,
    }
    broken |= diagnostics.iter().any(|d| d.is_error());
    out.diagnostics += diagnostics.len() as u64;
    fnv1a(&mut out.fingerprint, diagnostics.len() as u64);
    if broken {
        out.broken += 1;
    } else {
        out.clean += 1;
    }
}

impl Workload for Toolchain {
    fn reset(&mut self) {
        self.sources.clear();
    }

    fn setup(&mut self, tracer: &mut Tracer) {
        self.sources = tracer.timed("apps.sources", |_| self.generate()).0;
    }

    fn run(&mut self, tracer: &mut Tracer) {
        self.output = tracer
            .timed("toolchain.pass", |_| {
                let mut out = PassOutput {
                    fingerprint: FNV_BASIS,
                    ..PassOutput::default()
                };
                for source in &self.sources {
                    one_source(source, &mut out);
                }
                out
            })
            .0;
    }

    fn check(&mut self) -> Checked {
        // The toolchain is a pure function of its input: the harness
        // fails any iteration whose fingerprint differs from the first's.
        Checked {
            attempted: self.output.clean + self.output.broken,
            failed: self.output.broken,
            sim: Sim {
                fingerprint: self.output.fingerprint,
                ..Sim::default()
            },
        }
    }

    fn code_bytes(&self) -> u64 {
        self.generate()
            .iter()
            .map(|source| compile(source).map_or(0, |p| p.code.len() as u64))
            .sum()
    }

    fn layers(&mut self, ctx: &mut LayerCtx<'_>) {
        let sources = self.generate();
        let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
        let programs = frontend_layers(ctx, &sources);
        let t = &mut *ctx.tracer;
        let (lints, lint_wall) = t.timed("analysis.lint_source", |_| {
            sources.iter().map(|s| lint_source(s).len()).sum::<usize>()
        });
        let (cfg, cfg_wall) = t.timed("analysis.verify_cfg", |_| {
            programs
                .iter()
                .map(|p| verify_program_cfg(p).len())
                .sum::<usize>()
        });
        let (linear, linear_wall) = t.timed("analysis.verify_linear", |_| {
            programs
                .iter()
                .map(|p| verify_program(p).len())
                .sum::<usize>()
        });
        let (instructions, dis_wall) = t.timed("asm.disassemble", |_| {
            programs
                .iter()
                .map(|p| disassemble(&p.code).len())
                .sum::<usize>()
        });
        let m = &mut *ctx.metrics;
        m.set("analysis.lint_source_s", lint_wall.as_secs_f64());
        m.set("analysis.verify_cfg_s", cfg_wall.as_secs_f64());
        m.set("analysis.verify_linear_s", linear_wall.as_secs_f64());
        m.set_count("analysis.diagnostics", (lints + cfg + linear) as u64);
        m.set("asm.disassemble_s", dis_wall.as_secs_f64());
        m.set_count("asm.instructions", instructions as u64);
        m.set_count("apps.programs", programs.len() as u64);
        // One way of running it only: nothing to disagree with (the
        // harness has already compared every iteration with the first).
        m.set("net.engine.fingerprints_equal", 1.0);
    }
}
