//! Execution instrumentation.
//!
//! The paper makes several *measurable* claims about the dynamic
//! behaviour of programs: "most of the executed operations (typically
//! 80%) are encoded in a single byte" (§3.2.3), "typical sequences of
//! commonly used instructions can deliver a 15 MIPS execution rate"
//! (§3.2.1), and the priority-switch bounds of §3.2.4. These counters
//! support reproducing those claims (experiments E12, E13, E6, E14).

use crate::instr::{Direct, Op};

/// Counters accumulated while a [`crate::Cpu`] executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Instruction bytes executed, including prefixing instructions
    /// (each prefix is itself a one-byte, one-cycle instruction, §3.2.7).
    pub instructions: u64,
    /// Logical operations executed (a prefix chain folds into the
    /// instruction it extends).
    pub operations: u64,
    /// Operations by encoded length in bytes; index 1 = single byte.
    pub length_histogram: [u64; 9],
    /// Executions of each direct function, indexed by nibble.
    pub direct_counts: [u64; 16],
    /// Executions of each indirect function, indexed by operation code
    /// (the out-of-band halt extension is counted in `halt_ops`).
    pub op_counts: [u64; 0x60],
    /// Executions of the simulation-halt extension operation.
    pub halt_ops: u64,
    /// Processes descheduled (blocked or time-sliced away).
    pub deschedules: u64,
    /// Dispatches of a new process (context switches).
    pub dispatches: u64,
    /// Low→high priority preemptions taken.
    pub preemptions: u64,
    /// Worst observed low→high switch latency, in cycles, measured from
    /// the instant the high-priority process became ready to its first
    /// instruction issuing (§3.2.4 bounds this at 58).
    pub max_preempt_latency: u64,
    /// High→low switches (resuming an interrupted low-priority process).
    pub priority_lowerings: u64,
    /// Completed channel communications (message level, counted once per
    /// message on the completing side).
    pub messages: u64,
    /// Bytes moved through channels (internal and external).
    pub message_bytes: u64,
    /// Link bytes retransmitted after an acknowledge timeout (robust
    /// protocol, counted at the sending node).
    pub link_retries: u64,
    /// Corrupt link frames detected and discarded at this node's inputs.
    pub link_rx_errors: u64,
    /// Duplicate data bytes identified by sequence bit and suppressed.
    pub link_dup_data: u64,
    /// Link directions declared failed after the retry budget ran out.
    pub link_failures: u64,
    /// A shim, always 0: there is no decode cache to hit. Kept because
    /// the system benchmark's pinned surface names it; it goes with the
    /// benchmark's next revision (ROADMAP 3(b)).
    pub decode_hits: u64,
    /// Operations run outside translated blocks while the translation
    /// tier was on: the ones it found in no block and left to the byte
    /// path. Host-side instrumentation only:
    /// the tier never changes simulated timing, so this and the
    /// counters below are excluded from outcome fingerprints and
    /// differential comparisons. 0 whenever the byte path ran alone.
    pub decode_misses: u64,
    /// Hot basic blocks compiled into threaded-code form (see
    /// `cpu/translate.rs`).
    pub trans_blocks: u64,
    /// Entries into a translated block.
    pub trans_enters: u64,
    /// Deoptimisations: a translated block handed control back to the
    /// interpreter before running all its operations (interaction
    /// point, control transfer, preemption, timer work, budget, link
    /// fence, or a write into translated code).
    pub trans_deopts: u64,
    /// Translated blocks dropped because some translated code was
    /// overwritten (self-modifying code or reloading): such a store
    /// drops every block the processor holds.
    pub trans_invalidations: u64,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            instructions: 0,
            operations: 0,
            length_histogram: [0; 9],
            direct_counts: [0; 16],
            op_counts: [0; 0x60],
            halt_ops: 0,
            deschedules: 0,
            dispatches: 0,
            preemptions: 0,
            max_preempt_latency: 0,
            priority_lowerings: 0,
            messages: 0,
            message_bytes: 0,
            link_retries: 0,
            link_rx_errors: 0,
            link_dup_data: 0,
            link_failures: 0,
            decode_hits: 0,
            decode_misses: 0,
            trans_blocks: 0,
            trans_enters: 0,
            trans_deopts: 0,
            trans_invalidations: 0,
        }
    }
}

impl Stats {
    /// Record a decoded operation of `len` bytes ending in `fun`.
    pub(crate) fn record_operation(&mut self, fun: Direct, len: usize) {
        self.operations += 1;
        let idx = len.min(self.length_histogram.len() - 1);
        self.length_histogram[idx] += 1;
        self.direct_counts[fun.nibble() as usize] += 1;
    }

    /// Record an indirect function execution.
    pub(crate) fn record_op(&mut self, op: Op) {
        let code = op.code();
        if (code as usize) < self.op_counts.len() {
            self.op_counts[code as usize] += 1;
        } else {
            self.halt_ops += 1;
        }
    }

    /// Fraction of operations encoded in a single byte (the paper's
    /// "typically 80%" claim, §3.2.3).
    pub fn single_byte_fraction(&self) -> f64 {
        if self.operations == 0 {
            return 0.0;
        }
        self.length_histogram[1] as f64 / self.operations as f64
    }

    /// Mean cycles per instruction byte given a cycle total.
    pub fn cycles_per_instruction(&self, cycles: u64) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        cycles as f64 / self.instructions as f64
    }

    /// Instruction rate in MIPS for a processor frequency in MHz
    /// (instructions per second = instructions / (cycles / f)).
    pub fn mips(&self, cycles: u64, clock_mhz: f64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 * clock_mhz / cycles as f64
    }

    /// Executions of one indirect function.
    pub fn op_count(&self, op: Op) -> u64 {
        let code = op.code() as usize;
        if code < self.op_counts.len() {
            self.op_counts[code]
        } else {
            self.halt_ops
        }
    }

    /// Executions of one direct function.
    pub fn direct_count(&self, fun: Direct) -> u64 {
        self.direct_counts[fun.nibble() as usize]
    }

    /// These stats with the host-side translation-tier counters
    /// zeroed: every *simulated* quantity, suitable for asserting that
    /// the tier changes nothing the program can observe.
    pub fn simulated(&self) -> Stats {
        Stats {
            decode_hits: 0,
            decode_misses: 0,
            trans_blocks: 0,
            trans_enters: 0,
            trans_deopts: 0,
            trans_invalidations: 0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_fraction_counts_lengths() {
        let mut s = Stats::default();
        s.record_operation(Direct::LoadConstant, 1);
        s.record_operation(Direct::LoadConstant, 1);
        s.record_operation(Direct::LoadConstant, 2);
        s.record_operation(Direct::LoadConstant, 3);
        assert!((s.single_byte_fraction() - 0.5).abs() < 1e-9);
        assert_eq!(s.direct_count(Direct::LoadConstant), 4);
    }

    #[test]
    fn mips_at_one_cycle_per_instruction() {
        let s = Stats {
            instructions: 1000,
            ..Stats::default()
        };
        // 1000 instructions in 1000 cycles at 20 MHz = 20 MIPS.
        assert!((s.mips(1000, 20.0) - 20.0).abs() < 1e-9);
        assert!((s.cycles_per_instruction(1500) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn op_counting() {
        let mut s = Stats::default();
        s.record_op(Op::Add);
        s.record_op(Op::Add);
        s.record_op(Op::HaltSimulation);
        assert_eq!(s.op_count(Op::Add), 2);
        assert_eq!(s.op_count(Op::HaltSimulation), 1);
        assert_eq!(s.op_count(Op::Multiply), 0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = Stats::default();
        assert_eq!(s.single_byte_fraction(), 0.0);
        assert_eq!(s.mips(0, 20.0), 0.0);
        assert_eq!(s.cycles_per_instruction(0), 0.0);
    }
}
