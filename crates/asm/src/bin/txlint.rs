//! `txlint` — standalone front end for the `transputer-analysis`
//! checks.
//!
//! ```text
//! txlint [options] <file>
//!   <file>            raw I1 bytecode image (the default),
//!                     assembler source with --asm,
//!                     or occam source with --occam
//!   --asm             assemble <file> first, then verify the bytes
//!   --occam           parse and compile <file> as occam: run the
//!                     channel-usage lints and verify the emitted code
//!   --locals <n>      workspace words at/above the entry Wptr
//!   --depth <n>       workspace words below the entry Wptr
//!   --deny-warnings   treat warnings as errors (exit 2)
//!   --strict          synonym for --deny-warnings
//!   --cfg-dot         print the recovered control-flow graph as
//!                     Graphviz DOT instead of lint output
//!   --cost            print the static cycle-cost prediction (or why
//!                     the image is unpredictable)
//!   --deadlock        report only `par-deadlock` findings (occam)
//! ```
//!
//! Diagnostics are printed one per line as
//! `severity: message [code] at span`. Exit codes are stable so
//! scripts and CI can gate on them:
//!
//! * `0` — clean: no findings,
//! * `1` — warnings only (becomes `2` under `--deny-warnings`),
//! * `2` — errors, bad usage, or unreadable input.
//!
//! The bytecode pass is the CFG-based verifier
//! ([`transputer_analysis::verify_bytecode_cfg`]), whose findings are
//! a superset of the linear pass. The workspace-bounds check needs a
//! frame shape: for occam input it comes from the compiler, for raw
//! or assembled images pass `--locals`/`--depth` (otherwise that
//! check is skipped).

use std::process::ExitCode;

use transputer::WordLength;
use transputer_analysis::cfg::Cfg;
use transputer_analysis::{cost, verify_bytecode_cfg, CodeShape, Diagnostic};

const EXIT_CLEAN: u8 = 0;
const EXIT_WARNINGS: u8 = 1;
const EXIT_ERRORS: u8 = 2;

#[derive(PartialEq)]
enum Input {
    Raw,
    Asm,
    Occam,
}

struct Args {
    file: Option<String>,
    input: Input,
    locals: Option<u32>,
    depth: Option<u32>,
    deny_warnings: bool,
    cfg_dot: bool,
    cost: bool,
    deadlock_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: None,
        input: Input::Raw,
        locals: None,
        depth: None,
        deny_warnings: false,
        cfg_dot: false,
        cost: false,
        deadlock_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--asm" => args.input = Input::Asm,
            "--occam" => args.input = Input::Occam,
            "--strict" | "--deny-warnings" => args.deny_warnings = true,
            "--cfg-dot" => args.cfg_dot = true,
            "--cost" => args.cost = true,
            "--deadlock" => args.deadlock_only = true,
            "--locals" => {
                let n = it.next().ok_or("--locals needs a count")?;
                args.locals = Some(n.parse().map_err(|_| "--locals needs a number")?);
            }
            "--depth" => {
                let n = it.next().ok_or("--depth needs a count")?;
                args.depth = Some(n.parse().map_err(|_| "--depth needs a number")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: txlint [--asm|--occam] [--locals N] [--depth N] [--deny-warnings] \
                     [--cfg-dot] [--cost] [--deadlock] <file>"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (try --help)"))
            }
            file => {
                if args.file.replace(file.to_string()).is_some() {
                    return Err("exactly one input file expected".to_string());
                }
            }
        }
    }
    if args.file.is_none() {
        return Err("no input file given (try --help)".to_string());
    }
    Ok(args)
}

/// What the front end produced for the back half of the run.
struct Analyzed {
    diags: Vec<Diagnostic>,
    /// The compiled/assembled/raw image, when there is one.
    code: Option<Vec<u8>>,
    /// Frame shape for the image, when known.
    shape: Option<CodeShape>,
    /// Counted-loop metadata (occam input only).
    loops: Vec<cost::CountedLoop>,
}

fn print_cost(path: &str, cfg: &Cfg, loops: &[cost::CountedLoop]) {
    match cost::analyze_cost(cfg, loops, WordLength::Bits32) {
        Ok(report) => {
            println!(
                "{path}: predicted {} cycles, {} instruction bytes, {} operations \
                 (CPI {:.3})",
                report.cycles,
                report.instruction_bytes,
                report.operations,
                report.cpi()
            );
            for b in &report.blocks {
                println!(
                    "{path}:   block {:>3}  {:#06x}..{:#06x}  freq {:>8}  {:>10} cycles",
                    b.block, b.start, b.end, b.freq, b.cycles
                );
            }
        }
        Err(e) => println!("{path}: cost model refused: {e}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_ERRORS);
        }
    };
    let path = args.file.as_deref().expect("checked");

    let arg_shape = match (args.locals, args.depth) {
        (None, None) => None,
        (locals, depth) => Some(CodeShape {
            locals: locals.unwrap_or(0),
            depth: depth.unwrap_or(0),
        }),
    };

    let analyzed: Analyzed = match args.input {
        Input::Raw => {
            let code = match std::fs::read(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("txlint: cannot read {path}: {e}");
                    return ExitCode::from(EXIT_ERRORS);
                }
            };
            Analyzed {
                diags: verify_bytecode_cfg(&code, arg_shape.as_ref()),
                code: Some(code),
                shape: arg_shape,
                loops: Vec::new(),
            }
        }
        Input::Asm => {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("txlint: cannot read {path}: {e}");
                    return ExitCode::from(EXIT_ERRORS);
                }
            };
            let code = match transputer_asm::assemble(&source) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::from(EXIT_ERRORS);
                }
            };
            Analyzed {
                diags: verify_bytecode_cfg(&code, arg_shape.as_ref()),
                code: Some(code),
                shape: arg_shape,
                loops: Vec::new(),
            }
        }
        Input::Occam => {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("txlint: cannot read {path}: {e}");
                    return ExitCode::from(EXIT_ERRORS);
                }
            };
            let (diags, program) = transputer_analysis::lint_occam(&source);
            Analyzed {
                diags,
                shape: program.as_ref().map(CodeShape::of),
                loops: program.as_ref().map_or(Vec::new(), |p| {
                    p.loops.iter().map(cost::CountedLoop::from).collect()
                }),
                code: program.map(|p| p.code),
            }
        }
    };

    let mut diags = analyzed.diags;
    if let Some(code) = &analyzed.code {
        if args.cfg_dot || args.cost {
            let cfg = Cfg::recover_with_shape(code, analyzed.shape.as_ref());
            if args.cfg_dot {
                print!("{}", cfg.to_dot(path));
                return ExitCode::from(EXIT_CLEAN);
            }
            print_cost(path, &cfg, &analyzed.loops);
        }
        transputer_analysis::diag::sort(&mut diags);
    } else if args.cfg_dot || args.cost {
        eprintln!("txlint: {path} did not compile; no code to analyze");
        return ExitCode::from(EXIT_ERRORS);
    }

    if args.deadlock_only {
        diags.retain(|d| d.code == "par-deadlock");
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for d in &diags {
        println!("{path}: {d}");
        if d.is_error() {
            errors += 1;
        } else {
            warnings += 1;
        }
    }
    if errors + warnings > 0 {
        println!("{path}: {errors} error(s), {warnings} warning(s)");
    } else {
        println!("{path}: ok");
    }
    if errors > 0 || (args.deny_warnings && warnings > 0) {
        ExitCode::from(EXIT_ERRORS)
    } else if warnings > 0 {
        ExitCode::from(EXIT_WARNINGS)
    } else {
        ExitCode::from(EXIT_CLEAN)
    }
}
