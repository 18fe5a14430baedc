//! The reference kernel: the benchmark's unit of host time.
//!
//! The host this benchmark runs on is shared, and what slows it is not a
//! clock that moves but a neighbour on the same core taking issue slots
//! and cache: code that keeps the core busy — the emulator — runs up to
//! twice as slow for seconds at a time, while a loop that mostly waits on
//! its own dependency chain barely notices (measured here: corpus runs
//! swinging 3.9 ↔ 7.7 ms beside a dependent-chain kernel that moved
//! 6.6 ↔ 7.4 ms). Raw wall time therefore does not repeat, and neither
//! does a ratio to a kernel that is less sensitive than the work it is
//! compared with. A timed region is bracketed by two calls of this kernel
//! and its cost reported as `wall / mean(kernel_before, kernel_after)` —
//! "reference units" — and the kernel is built to suffer from a busy
//! neighbour the way the emulator does. It has two halves of about equal
//! length, because the emulator loses both ways:
//!
//! * a small interpreter running a fixed, periodic program on eight
//!   independent accumulators over a 256 KiB table — predictable
//!   dispatch and plenty of independent integer work, so it lives off
//!   issue slots, like the CPU tiers' inner loops;
//! * independent loads at pseudo-random places in a 2 MiB table — no
//!   dependency between them, so it lives off cache capacity and the
//!   number of misses in flight, like a simulation stepping through the
//!   memories of many nodes.
//!
//! Its result is asserted on every call, so it cannot be optimised away,
//! and cannot be changed without the constant below changing too.
//!
//! **This file is frozen.** Every number the benchmark has ever reported
//! is a multiple of this kernel's run time; editing it silently rescales
//! all of them. A later change that needs a different unit adds a second
//! kernel beside this one and reports both.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Words in the table: 512 Ki words of 4 bytes = 2 MiB.
const WORDS: usize = 512 * 1024;

/// Words of it the interpreter half addresses: 256 KiB.
const VM_WORDS: usize = 64 * 1024;

/// Instructions in the interpreter's program. A prime, so the program
/// does not fall into step with anything else that is periodic.
const PROGRAM: usize = 97;

/// Accumulators the interpreter advances per instruction.
const LANES: usize = 8;

/// Instructions the interpreter half executes per call.
const VM_STEPS: u32 = 900_000;

/// Loads the gather half issues per call.
const GATHERS: u32 = 2_500_000;

/// The value every call must produce.
pub const CHECKSUM: u32 = 0xf8e8_7502;

/// The kernel's table and program, generated once; a call only reads
/// them.
#[derive(Debug)]
pub struct RefKernel {
    table: Vec<u32>,
    program: Vec<u32>,
}

impl Default for RefKernel {
    fn default() -> Self {
        RefKernel::new()
    }
}

/// `n` words of a fixed xorshift sequence.
fn sequence(seed: u32, n: usize) -> Vec<u32> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect()
}

impl RefKernel {
    /// Generate the table and the program.
    pub fn new() -> RefKernel {
        RefKernel {
            table: sequence(0x9e37_79b9, WORDS),
            program: sequence(0x2545_f491, PROGRAM),
        }
    }

    /// The interpreter half.
    fn interpret(&self) -> u32 {
        let mem = &self.table[..VM_WORDS];
        let mask = (VM_WORDS - 1) as u32;
        let mut acc = [0u32; LANES];
        for (lane, a) in acc.iter_mut().enumerate() {
            *a = black_box(0x0123_4567u32).wrapping_mul(2 * lane as u32 + 1);
        }
        let mut pc = 0;
        for _ in 0..VM_STEPS {
            let insn = self.program[pc];
            pc += 1;
            if pc == PROGRAM {
                pc = 0;
            }
            let operand = insn >> 3;
            match insn & 7 {
                0 => acc.iter_mut().for_each(|a| *a = a.wrapping_add(operand)),
                1 => acc.iter_mut().for_each(|a| *a ^= mem[(*a & mask) as usize]),
                2 => acc
                    .iter_mut()
                    .for_each(|a| *a = a.rotate_left(operand & 31).wrapping_mul(operand | 1)),
                3 => acc
                    .iter_mut()
                    .for_each(|a| *a = a.wrapping_add(mem[((*a >> 7) & mask) as usize])),
                4 => acc
                    .iter_mut()
                    .for_each(|a| *a = a.wrapping_sub(mem[((*a ^ operand) & mask) as usize])),
                5 => acc.iter_mut().for_each(|a| *a = (*a >> 1) ^ operand),
                6 => acc.iter_mut().for_each(|a| {
                    *a = if *a & 1 == 0 {
                        a.wrapping_add(operand)
                    } else {
                        !*a
                    }
                }),
                _ => acc.iter_mut().for_each(|a| {
                    *a = a
                        .wrapping_mul(0x9e37_79b1)
                        .wrapping_add(mem[(operand & mask) as usize]);
                }),
            }
        }
        acc.iter().fold(0, |x, a| x ^ a)
    }

    /// The gather half.
    fn gather(&self) -> u32 {
        let mem = &self.table[..WORDS];
        let mask = (WORDS - 1) as u32;
        let mut index = black_box(12_345u32);
        let mut sum = 0u32;
        for _ in 0..GATHERS {
            index = index.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            sum = sum.wrapping_add(mem[((index >> 8) & mask) as usize]);
        }
        sum
    }

    /// Run the kernel once and return its result, untimed.
    pub fn run(&self) -> u32 {
        black_box(self.interpret() ^ self.gather())
    }

    /// Run the kernel once, check its result, and return how long it took.
    ///
    /// # Panics
    ///
    /// Panics if the result differs from [`CHECKSUM`]: the kernel was
    /// edited or miscompiled, and no number measured against it means
    /// anything.
    pub fn time(&self) -> Duration {
        let start = Instant::now();
        let got = self.run();
        let wall = start.elapsed();
        assert_eq!(
            got, CHECKSUM,
            "reference kernel produced {got:#010x}, expected {CHECKSUM:#010x}"
        );
        wall
    }
}
