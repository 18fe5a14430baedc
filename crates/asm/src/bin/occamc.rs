//! `occamc` — compile (and optionally run) occam programs from the
//! command line.
//!
//! ```text
//! occamc [options] <file.occ>
//!   --run              execute on an emulated T424 and print globals
//!   --t222             target/execute the 16-bit part
//!   --listing          print the disassembly
//!   --bounds-checks    emit csub0 subscript checks
//!   --out <file>       write the raw code bytes
//!   --trace <n>        (with --run) print the last n executed operations
//!   --no-lint          skip the channel-usage lints and bytecode
//!                      verifier
//! ```
//!
//! With linting enabled (the default), occamc runs the
//! `transputer-analysis` checks after compilation: the occam
//! channel-usage rules over the source, and the I1 bytecode verifier
//! over the emitted code. Lint *errors* fail the build; warnings are
//! printed but do not.

use std::process::ExitCode;

use transputer::{Cpu, CpuConfig, HaltReason, RunOutcome};

struct Args {
    file: Option<String>,
    run: bool,
    t222: bool,
    listing: bool,
    bounds_checks: bool,
    lint: bool,
    out: Option<String>,
    trace: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: None,
        run: false,
        t222: false,
        listing: false,
        bounds_checks: false,
        lint: true,
        out: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--run" => args.run = true,
            "--t222" => args.t222 = true,
            "--listing" => args.listing = true,
            "--bounds-checks" => args.bounds_checks = true,
            "--no-lint" => args.lint = false,
            "--out" => args.out = Some(it.next().ok_or("--out needs a file name")?),
            "--trace" => {
                let n = it.next().ok_or("--trace needs a count")?;
                args.trace = Some(n.parse().map_err(|_| "--trace needs a number")?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: occamc [--run] [--t222] [--listing] [--bounds-checks] \
                            [--no-lint] [--out FILE] [--trace N] <file.occ>"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (try --help)"))
            }
            file => {
                if args.file.replace(file.to_string()).is_some() {
                    return Err("exactly one source file expected".to_string());
                }
            }
        }
    }
    if args.file.is_none() {
        return Err("no source file given (try --help)".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let path = args.file.as_deref().expect("checked");
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("occamc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let options = occam::Options {
        bounds_checks: args.bounds_checks,
        word_length: if args.t222 {
            transputer::WordLength::Bits16
        } else {
            transputer::WordLength::Bits32
        },
        ..occam::Options::default()
    };
    // One parse: the tree is compiled, then linted.
    let compiled =
        occam::parse(&source).and_then(|tree| Ok((occam::compile_process(&tree, options)?, tree)));
    let (program, tree) = match compiled {
        Ok(compiled) => compiled,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.lint {
        for w in &program.warnings {
            eprintln!("{path}: {w}");
        }
        let mut diags = transputer_analysis::channels::check(&tree);
        diags.extend(transputer_analysis::verify_program_cfg(&program));
        let mut failed = false;
        for d in &diags {
            eprintln!("{path}: {d}");
            failed |= d.is_error();
        }
        if failed {
            eprintln!("{path}: lint errors (use --no-lint to bypass)");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{path}: {} bytes of code, {} words of frame, {} words below",
        program.code.len(),
        program.locals,
        program.depth
    );
    if args.listing {
        print!("{}", transputer_asm::dis::listing(&program.code));
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, &program.code) {
            eprintln!("occamc: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {out}");
    }
    if args.run {
        let config = if args.t222 {
            CpuConfig::t222()
        } else {
            CpuConfig::t424()
        };
        let mut cpu = Cpu::new(config);
        if let Some(n) = args.trace {
            cpu.enable_trace(n);
        }
        let wptr = match program.load(&mut cpu) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("occamc: load failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        match cpu.run(2_000_000_000) {
            Ok(RunOutcome::Halted(HaltReason::Stopped)) => {
                println!(
                    "halted after {} cycles ({} µs at 50 ns/cycle), {} instructions",
                    cpu.cycles(),
                    cpu.time_ns() / 1000,
                    cpu.stats().instructions
                );
            }
            Ok(other) => {
                eprintln!("occamc: program ended abnormally: {other:?}");
                if let Some(trace) = cpu.trace() {
                    eprint!("{}", trace.render());
                }
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("occamc: {e}");
                return ExitCode::FAILURE;
            }
        }
        let mut names: Vec<&String> = program.globals.keys().collect();
        names.sort();
        for name in names {
            if let Ok(v) = program.read_global(&mut cpu, wptr, name) {
                println!("  {name} = {}", cpu.word_length().to_signed(v));
            }
        }
        if let Some(trace) = cpu.trace() {
            println!("--- trace (most recent last) ---");
            print!("{}", trace.render());
        }
    }
    ExitCode::SUCCESS
}
