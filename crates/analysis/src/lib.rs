//! Static analysis for the transputer toolchain (`txlint`).
//!
//! Four layers, from source text down to cycle counts:
//!
//! * [`channels`] — source-level occam analysis: PAR channel-usage
//!   rules (one inputting branch, one outputting branch per channel),
//!   direction conflicts through `PROC` channel parameters, a
//!   process/channel graph pass that reports unconnected channel
//!   ends and self-communication, and an N-process deadlock detector
//!   that reduces statically extractable PAR branches to a wait-for
//!   graph and reports any cyclic wait with its full chain.
//! * [`verifier`] — bytecode-level verification of assembled I1 code:
//!   evaluation-stack depth tracking over `Areg`/`Breg`/`Creg`, jump
//!   targets landing on instruction boundaries, workspace offsets
//!   within the codegen-allocated frame, and canonical (minimal)
//!   prefix chains.
//! * [`mod@cfg`] — basic-block control-flow graph recovery over the fused
//!   instruction stream, read from the table the verifier's one
//!   dataflow fills (so [`verify_bytecode_cfg`] reports the linear
//!   pass's findings and only adds to them), a code/store taint scan
//!   that flags self-modifying images, and Graphviz output
//!   ([`cfg::Cfg::to_dot`]).
//! * [`cost`] — a static cycle-cost model over the CFG: per-block and
//!   loop-bounded whole-program cycle/byte/operation predictions from
//!   the `transputer::timing` tables (the same tables the emulator
//!   charges from), exact on the programs it accepts and explicit
//!   about why it refuses the ones it does not.
//!
//! All layers report [`diag::Diagnostic`]s with source or code-offset
//! spans; callers decide whether warnings are fatal.

#![forbid(unsafe_code)]

pub mod diag;

pub mod cfg;
pub mod channels;
pub mod cost;
pub mod verifier;

pub use cfg::{verify_bytecode_cfg, verify_program_cfg, Cfg};
pub use cost::CostReport;
pub use diag::{Diagnostic, Severity, Span};
pub use verifier::{verify_bytecode, CodeShape};

/// Compile-free entry point: parse occam source and run the
/// source-level lints (layer 1). Returns diagnostics sorted by
/// source position; parse failures surface as a single error
/// diagnostic rather than an `Err`, so the caller has one stream.
pub fn lint_source(source: &str) -> Vec<Diagnostic> {
    match occam::parse(source) {
        Ok(program) => channels::check(&program),
        Err(e) => vec![parse_failure(&e)],
    }
}

/// The diagnostic [`lint_source`] and [`lint_occam`] report for source
/// that does not parse.
fn parse_failure(e: &occam::CompileError) -> Diagnostic {
    Diagnostic::error("parse", Span::line(e.line), e.to_string())
}

/// The whole occam lint pipeline, behind `txlint --occam` and the
/// benchmark workloads' lint gate: one parse, the source lints over the
/// tree, the compile, its PAR-usage warnings as `par-usage`, and CFG
/// verification of the emitted code. Returns the diagnostics in that
/// order, unsorted, and the compiled program when there is one. Source
/// that does not parse yields its one `parse` error; a program the
/// compiler refuses adds a `compile` error at the refused line.
pub fn lint_occam(source: &str) -> (Vec<Diagnostic>, Option<occam::Program>) {
    let tree = match occam::parse(source) {
        Ok(tree) => tree,
        Err(e) => return (vec![parse_failure(&e)], None),
    };
    let mut diags = channels::check(&tree);
    let program = match occam::compile_process(&tree, occam::Options::default()) {
        Ok(program) => program,
        Err(e) => {
            let refused = Diagnostic::error("compile", Span::line(e.line), e.to_string());
            diags.push(refused);
            return (diags, None);
        }
    };
    for w in &program.warnings {
        let par_usage = Diagnostic::warning("par-usage", Span::line(w.line), w.message.clone());
        diags.push(par_usage);
    }
    diags.extend(verify_program_cfg(&program));
    (diags, Some(program))
}
