//! E6 — §3.2.4: "the maximum time taken to switch from priority 1 to
//! priority 0 is 58 cycles (less than three microseconds with a 50ns
//! processor cycle time). ... The time taken for the [0→1] switch is 17
//! cycles."
//!
//! A high-priority process wakes on its timer every few ticks while a
//! low-priority process executes adversarial instruction mixes (the
//! longest instructions in the set); the worst observed wake-to-dispatch
//! latency must stay within the bound.

use transputer::{timing, Cpu, CpuConfig, Priority};
use transputer_bench::expimages::{priority_image, priority_mixes};
use transputer_bench::{cells, table};

/// Build a low-priority busy loop from an instruction mix, run the
/// high-priority timer waker over it, and return the worst latency.
fn worst_latency(mix: &str, body: &[u8]) -> (String, u64) {
    let mut cpu = Cpu::new(CpuConfig::t424());
    // The low-priority loop sits at offset 0.
    let (code, hi_entry) = priority_image(body);

    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).expect("loads");
    let top = cpu.default_boot_workspace();
    cpu.spawn(top, entry, Priority::Low);
    cpu.spawn(
        top.wrapping_sub(256),
        entry + hi_entry as u32,
        Priority::High,
    );
    cpu.run(50_000_000).expect("completes");
    let s = cpu.stats();
    assert!(
        s.preemptions >= 100,
        "mix `{mix}`: too few preemptions ({})",
        s.preemptions
    );
    (mix.to_string(), s.max_preempt_latency)
}

fn main() {
    table::heading(
        "E6",
        "priority switch latency",
        "§3.2.4: ≤ 58 cycles low→high, 17 cycles high→low",
    );

    table::header(&[
        "low-priority mix",
        "worst latency (cycles)",
        "bound (paper)",
        "within",
    ]);
    let mut worst = 0u64;
    for (_, mix, body) in priority_mixes() {
        let (name, latency) = worst_latency(mix, &body);
        worst = worst.max(latency);
        table::row(cells![
            name,
            latency,
            timing::PRIORITY_RAISE_MAX,
            if latency <= u64::from(timing::PRIORITY_RAISE_MAX) {
                "yes"
            } else {
                "NO"
            }
        ]);
    }
    println!();
    println!(
        "worst observed: {} cycles = {:.2} µs at 50 ns/cycle (paper: < 3 µs)",
        worst,
        worst as f64 * 0.05
    );
    println!(
        "high→low switch (shadow restore): {} cycles by construction (paper: 17)",
        timing::PRIORITY_LOWER_SWITCH
    );
    table::verdict(
        worst <= u64::from(timing::PRIORITY_RAISE_MAX),
        "priority-1 → priority-0 latency stays within the paper's 58-cycle bound",
    );
}
