//! # transputer
//!
//! A cycle-counted emulator of the INMOS transputer as described in
//! Colin Whitby-Strevens, *The Transputer*, ISCA 1985.
//!
//! The transputer is "a programmable VLSI component with communication
//! links for point-to-point connection to other transputers". This crate
//! models one such component: the I1 instruction set of the first parts
//! (the 32-bit T424 and 16-bit T222), the six-register processor with its
//! three-deep evaluation stack, the hardware scheduler with two priority
//! levels, internal channels (single words in memory), external channels
//! (link interfaces), the per-priority timers, and the ALT
//! enable/disable machinery.
//!
//! Timing follows the paper: instruction cycle counts for the published
//! figures (§3.2.6, §3.2.9), the communication formula
//! `max(24, 21 + 8n/wordlength)` (§3.2.10), and the priority-switch
//! bounds (58 cycles worst case low→high, 17 cycles high→low, §3.2.4).
//!
//! ## Quick start
//!
//! ```
//! use transputer::{Cpu, CpuConfig};
//! use transputer::instr::{encode, encode_op, Direct, Op};
//!
//! // (3 + 4) * 5, hand-assembled.
//! let mut code = Vec::new();
//! code.extend(encode(Direct::LoadConstant, 3));
//! code.extend(encode(Direct::AddConstant, 4));
//! code.extend(encode(Direct::LoadConstant, 5));
//! code.extend(encode_op(Op::Multiply));
//! code.extend(encode_op(Op::HaltSimulation));
//!
//! let mut cpu = Cpu::new(CpuConfig::t424());
//! cpu.load_boot_program(&code)?;
//! cpu.run(100_000)?;
//! assert_eq!(cpu.areg(), 35);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Multi-transputer systems — wiring links between processors — live in
//! the companion `transputer-net` crate; the occam compiler that targets
//! this emulator lives in the `occam` crate.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod error;
pub mod instr;
pub mod linkif;
pub mod memory;
pub mod process;
pub mod stats;
pub mod timing;
pub mod trace;
pub mod word;

pub use cpu::{Cpu, CpuConfig, RunOutcome, SliceOutcome, StepEvent};
pub use error::{CpuError, HaltReason};
pub use memory::{Memory, MemoryConfig};
pub use process::{Priority, ProcDesc};
pub use stats::Stats;
pub use word::WordLength;
