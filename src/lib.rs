//! # transputer-system
//!
//! Umbrella crate for the ISCA 1985 transputer reproduction: re-exports
//! every subsystem and hosts the runnable examples and cross-crate
//! integration tests.
//!
//! * [`transputer`] — the cycle-counted emulator (processor, scheduler,
//!   channels, timers, link interfaces).
//! * [`link`] — the bit-level link protocol (Figure 1).
//! * [`net`] — multi-transputer discrete-event co-simulation.
//! * [`occam`] — the occam compiler the architecture is defined by.
//! * [`asm`] — assembler/disassembler for the I1 instruction set.
//! * [`apps`] — the paper's §4 applications (database search,
//!   workstation).
//!
//! See README.md for a tour and DESIGN.md for the experiment index.

#![forbid(unsafe_code)]

pub use occam;
pub use transputer;
pub use transputer_apps as apps;
pub use transputer_asm as asm;
pub use transputer_link as link;
pub use transputer_net as net;
