//! E5 — §3.2.10: "A communication primitive communicating a block of
//! size n bytes requires only one byte of program, and on average the
//! maximum of (24, 21+(8*n/wordlength)) cycles (including the scheduling
//! overhead)."
//!
//! Two processes rendezvous on an internal channel for a sweep of
//! message sizes; the cycles attributable to the communication are the
//! total minus the (exactly known) cost of the surrounding instructions.

use transputer::instr::{encode, Direct};
use transputer::{timing, Cpu, CpuConfig, Priority, WordLength};
use transputer_bench::expimages::rendezvous_image;
use transputer_bench::{cells, table};

/// Run one rendezvous of `n` bytes; return the communication cycles.
fn comm_cycles(config: CpuConfig, n: u32) -> u64 {
    let mut cpu = Cpu::new(config);
    let word = cpu.word_length();
    let bpw = word.bytes_per_word() as i64;

    // Receiver workspace near the top; sender 64 words below.
    let (code, sender_entry) = rendezvous_image(n);

    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).expect("loads");
    let top = cpu.default_boot_workspace();
    let recv_w = top;
    let send_w = word.mask(top.wrapping_sub((64 * bpw) as u32));
    cpu.spawn(recv_w, entry, Priority::Low);
    cpu.spawn(send_w, entry + sender_entry as u32, Priority::Low);
    cpu.run(1_000_000).expect("completes");

    // Known non-communication instruction cost (prefix bytes cost one
    // cycle each, §3.2.7):
    //   receiver: mint (2 bytes = 2 cycles) + stl (1) + ldlp (1) +
    //   ldlp (1) + ldc (1 cycle/byte) + haltsim (3);
    //   sender: ldlp (1) + ldlp 65 (1 cycle/byte) + ldc + stopp
    //   (prefix 1 + operation 11).
    let ldc_cost = |v: i64| encode(Direct::LoadConstant, v).len() as u64;
    let receiver_setup = 2 + 1 + 1 + 1 + ldc_cost(i64::from(n)) + 3;
    let sender_setup =
        1 + encode(Direct::LoadLocalPointer, 65).len() as u64 + ldc_cost(i64::from(n));
    let stopp = 1 + 11;
    cpu.cycles() - receiver_setup - sender_setup - stopp
}

fn main() {
    table::heading(
        "E5",
        "internal channel communication cost",
        "§3.2.10: max(24, 21 + 8n/wordlength) cycles",
    );

    let mut all_ok = true;
    for (label, config, word) in [
        ("T424 (32-bit)", CpuConfig::t424(), WordLength::Bits32),
        ("T222 (16-bit)", CpuConfig::t222(), WordLength::Bits16),
    ] {
        println!("\n{label}:");
        table::header(&["message bytes", "formula cycles", "measured cycles"]);
        for n in [1u32, 2, 4, 8, 12, 16, 24, 32, 48, 64, 128] {
            let formula = u64::from(timing::comm_total_cycles(n, word));
            let measured = comm_cycles(config.clone(), n);
            table::row(cells![n, formula, measured]);
            all_ok &= formula == measured;
        }
    }
    println!();
    println!("crossover: the 24-cycle floor binds until 8n/wordlength > 3,");
    println!("i.e. beyond 12 bytes on a 32-bit part and 6 bytes on a 16-bit part.");
    table::verdict(
        all_ok,
        "measured communication cycles equal the paper's formula at every size",
    );
}
