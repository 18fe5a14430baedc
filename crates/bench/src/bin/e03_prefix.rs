//! E3 — Figure 5 / §3.2.7: the operand register during prefixing.
//! "The following example shows the instruction sequence for loading the
//! hexadecimal constant #754 into the A register, and gives the contents
//! of the O register and the A register after executing each
//! instruction."

use transputer::{Cpu, CpuConfig, StepEvent};
use transputer_bench::expimages::PREFIXED_CONSTANT;
use transputer_bench::{asm, cells, sequence_image, table};

fn main() {
    table::heading(
        "E3",
        "operand register trace while loading #754",
        "§3.2.7 Figure 5",
    );

    let code = asm(PREFIXED_CONSTANT);
    assert_eq!(code, vec![0x27, 0x25, 0x44], "pfix 7; pfix 5; ldc 4");

    let mut cpu = Cpu::new(CpuConfig::t424());
    cpu.load_boot_program(&sequence_image(&[], &code))
        .expect("loads");

    table::header(&[
        "instruction",
        "O register (paper)",
        "O register",
        "A register (paper)",
        "A register",
    ]);
    let names = ["prefix #7", "prefix #5", "load constant #4"];
    let paper_o = ["#7 << 4 pending", "#75 << 4 pending", "0"];
    let paper_a = ["?", "?", "#754"];
    // The paper prints the O register *after* loading the data bits but
    // conceptually the shifted value is what carries; we show the live
    // register, which holds the shifted accumulation.
    let mut ok = true;
    for i in 0..3 {
        match cpu.step() {
            StepEvent::Ran { .. } => {}
            other => panic!("trace step failed: {other:?}"),
        }
        let o = cpu.oreg();
        let a = cpu.areg();
        table::row(cells![
            names[i],
            paper_o[i],
            format!("#{o:X}"),
            paper_a[i],
            format!("#{a:X}")
        ]);
        match i {
            0 => ok &= o == 0x70,
            1 => ok &= o == 0x750,
            _ => ok &= o == 0 && a == 0x754,
        }
    }
    println!();
    println!(
        "each prefix: 1 byte, 1 cycle (§3.2.7); total sequence 3 bytes, {} cycles",
        cpu.cycles()
    );
    table::verdict(
        ok && cpu.cycles() == 3,
        "operand register builds #754 exactly as Figure 5 shows, then clears",
    );
}
