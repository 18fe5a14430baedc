//! `txdis` — disassemble a raw transputer code image.
//!
//! ```text
//! txdis [--full-names] <file>
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut full_names = false;
    let mut file = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--full-names" => full_names = true,
            "--help" | "-h" => {
                eprintln!("usage: txdis [--full-names] <file>");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                return ExitCode::FAILURE;
            }
            f => file = Some(f.to_string()),
        }
    }
    let Some(path) = file else {
        eprintln!("txdis: no input file");
        return ExitCode::FAILURE;
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("txdis: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for d in transputer_asm::disassemble(&bytes) {
        println!(
            "{}",
            transputer_asm::dis::listing_line(&bytes, &d, full_names)
        );
    }
    ExitCode::SUCCESS
}
