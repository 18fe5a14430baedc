//! E8 — §4.2: "It takes about 6 microseconds to send a 4 byte message
//! from one transputer to another."
//!
//! Two transputers, one wire: the sender outputs an n-byte message, the
//! receiver inputs it; the simulated time from start to both processes
//! proceeding is the end-to-end message latency, including instruction
//! and scheduling overhead on both ends.

use transputer::instr::Op;
use transputer::memory::{LINK_IN_BASE, LINK_OUT_BASE};
use transputer_bench::expimages::link_image;
use transputer_bench::{cells, table};
use transputer_net::{NetworkBuilder, NetworkConfig};

fn message_latency_ns(n: u32) -> u64 {
    let mut b = NetworkBuilder::new(NetworkConfig::default());
    let tx = b.add_node();
    let rx = b.add_node();
    b.connect((tx, 0), (rx, 0));
    let mut net = b.build();

    let sender = link_image(LINK_OUT_BASE, Op::OutputMessage, n);
    let receiver = link_image(LINK_IN_BASE, Op::InputMessage, n);
    net.node_mut(tx).load_boot_program(&sender).expect("loads");
    net.node_mut(rx)
        .load_boot_program(&receiver)
        .expect("loads");
    net.run_until_all_halted(1_000_000_000).expect("completes");
    net.time_ns()
}

fn main() {
    table::heading(
        "E8",
        "inter-transputer message latency",
        "§4.2: ~6 µs for a 4-byte message",
    );

    table::header(&["message bytes", "latency", "per-byte wire time", "note"]);
    let mut four_byte_us = 0.0;
    for n in [1u32, 2, 4, 8, 16, 32, 64] {
        let t = message_latency_ns(n);
        let note = if n == 4 {
            four_byte_us = t as f64 / 1000.0;
            "paper: about 6 µs"
        } else {
            ""
        };
        table::row(cells![
            n,
            table::us(t),
            format!("{} ns", u64::from(n) * 1100),
            note
        ]);
    }
    println!();
    println!(
        "a data byte occupies 11 bit-times = 1.1 µs at 10 MHz; the 4-byte \
         message costs 4.4 µs of wire time plus instruction, scheduling and \
         acknowledge overhead at both ends."
    );
    table::verdict(
        (4.0..8.0).contains(&four_byte_us),
        "the 4-byte message lands in the paper's ~6 µs band",
    );
}
