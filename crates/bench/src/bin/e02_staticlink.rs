//! E2 — §3.2.6 table 2: the non-local store through the static link,
//! `z := 1` inside a PROC where `z` is declared outside it:
//! "load constant 1 (1 byte, 1 cycle); load local staticlink (1, 2);
//! store non local z (1, 2)".

use transputer::CpuConfig;
use transputer_asm::disassemble;
use transputer_bench::expimages::{STATIC_LINK_SETUP, STATIC_LINK_SOURCE, STATIC_LINK_STORE};
use transputer_bench::{asm, cells, measure_sequence_with_setup, run_program, table};

fn main() {
    table::heading("E2", "non-local store via static link", "§3.2.6 table 2");
    table::header(&[
        "occam",
        "sequence",
        "bytes (paper)",
        "bytes",
        "cycles (paper)",
        "cycles",
    ]);

    let setup = asm(STATIC_LINK_SETUP);
    let m = measure_sequence_with_setup(CpuConfig::t424(), &setup, &asm(STATIC_LINK_STORE));
    table::row(cells![
        "z := 1",
        "ldc 1; ldl staticlink; stnl z",
        3,
        m.bytes,
        5,
        m.cycles
    ]);
    let counts_ok = m.bytes == 3 && m.cycles == 5;

    // The compiler emits exactly this shape for a free-variable store.
    let program = occam::compile(STATIC_LINK_SOURCE).expect("compiles");
    let listing = disassemble(&program.code);
    let mut found = false;
    for w in listing.windows(3) {
        if w[0].to_string() == "ldc 1"
            && w[1].to_string().starts_with("ldl")
            && w[2].to_string().starts_with("stnl")
        {
            found = true;
            println!(
                "\ncompiler emits: {} ; {} ; {}  — the paper's sequence",
                w[0], w[1], w[2]
            );
        }
    }

    // And run it, proving the store lands.
    let (mut cpu, wptr) = run_program(&program, CpuConfig::t424());
    let z = program.read_global(&mut cpu, wptr, "z").expect("readable");
    println!("executed: z = {z}");

    table::verdict(
        counts_ok && found && z == 1,
        "static-link store matches §3.2.6 table 2 (3 bytes, 5 cycles) and the compiler emits it",
    );
}
