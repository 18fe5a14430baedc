//! # occam
//!
//! A compiler for (a substantial subset of) occam, the language the
//! transputer architecture is standardised against: "The INMOS transputer
//! architecture is standardized at the level of the definition of occam
//! (rather than at the level of the definition of an instruction set)"
//! (ISCA 1985, abstract).
//!
//! The compiler targets the I1 instruction set of the `transputer` crate
//! and follows the paper's implementation scheme: static workspace
//! allocation for all concurrency, single-byte instructions with prefix
//! chains, `start process`/`end process` for `PAR`, the enable/disable
//! sequences for `ALT`, and the `staticlink` convention for free
//! variables (§3.2.6).
//!
//! ## Supported language
//!
//! `SEQ`, `PAR` (incl. replicated with constant count), `PRI PAR`, `ALT`,
//! `PRI ALT` (with boolean guards, timer guards, `SKIP` guards), `IF`,
//! `WHILE`, `VAR`/`CHAN` declarations (scalars and vectors), `DEF`
//! constants, `PROC` with `VALUE`/`VAR`/`CHAN` parameters and lexical
//! scoping, replicated `SEQ`, channel input/output, `TIME ? v`,
//! `TIME ? AFTER t`, and `PLACE c AT n:` to map a channel onto a link
//! interface word.
//!
//! ## Quick start
//!
//! ```
//! use occam::compile;
//! use transputer::{Cpu, CpuConfig};
//!
//! let program = compile(
//!     "VAR x:\n\
//!      SEQ\n\
//!      \x20 x := 3\n\
//!      \x20 x := x * (x + 1)",
//! )?;
//! let mut cpu = Cpu::new(CpuConfig::t424());
//! let wptr = program.load(&mut cpu)?;
//! cpu.run(100_000)?;
//! assert_eq!(program.read_global(&mut cpu, wptr, "x")?, 12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod codegen;
pub mod emit;
pub mod error;
pub mod lexer;
pub mod parser;

pub use codegen::{compile_process, LoopInfo, Options, Program};
pub use error::CompileError;
pub use parser::parse;

/// Reserved-word offsets for `PLACE c AT n:` — the link channel words of
/// §2.3 / §3.2.10. Output channels of links 0–3 are words 0–3; input
/// channels are words 4–7; the event channel is word 8.
pub mod places {
    /// Output channel of link `n` (0..4).
    pub const fn link_out(n: u32) -> i64 {
        n as i64
    }
    /// Input channel of link `n` (0..4).
    pub const fn link_in(n: u32) -> i64 {
        4 + n as i64
    }
    /// The event channel.
    pub const EVENT: i64 = 8;
}

/// Compile occam source with default options.
///
/// # Errors
///
/// Returns the first lexing, parsing, checking or codegen error.
pub fn compile(source: &str) -> Result<Program, CompileError> {
    compile_with(source, Options::default())
}

/// Compile occam source with explicit options.
///
/// # Errors
///
/// Returns the first lexing, parsing, checking or codegen error.
pub fn compile_with(source: &str, options: Options) -> Result<Program, CompileError> {
    let ast = parser::parse(source)?;
    codegen::compile_process(&ast, options)
}
