//! Threaded-code translation of hot I1 basic blocks: the second of the
//! two CPU tiers (the first is the byte path, `Cpu::exec_one`, the
//! reference).
//!
//! The byte path pays a fetch, a nibble split and a 16-way dispatch per
//! *byte*. This tier ([`Cpu::run_predecoded`]) counts arrivals at block
//! leaders and, once a leader has been reached often enough, decodes the
//! straight-line run of operations it begins (`cpu/decode.rs`) into a
//! [`TransBlock`] — an array of pre-resolved dispatch codes with fused
//! operands — thereafter executed back to back with no decode work at
//! all. It runs only blocks: every operation outside one, cold code
//! included, runs on the byte path. Every handler reaches its
//! operation through the shared executor — [`Cpu::exec_direct`] with a
//! constant function, or [`Cpu::exec_alu`] with a constant ALU
//! operation — so translated execution is the *same code* the byte
//! path runs, minus the work of deciding which code to run. No
//! operation is written here a second time: what a handler adds is only
//! the checks its class of operation can need (see
//! [`Cpu::exec_block`]).
//!
//! The tier is an instrument of the host, invisible to the simulation;
//! the differential test battery (`tests/translate.rs`,
//! `tests/decode_cache.rs`, the proptest fuzzer in
//! `crates/analysis/tests/cfg_props.rs`, and the corpus differential
//! in `crates/bench/tests/determinism.rs`) proves cycles, statistics,
//! memory images and network fingerprints bit-identical with the tier
//! on or off.
//!
//! # Deoptimisation contract
//!
//! A translated block replays exactly what the byte path does over the
//! same operations, in the byte path's order; at every point where the
//! slice loop of [`Cpu::run_slice_fenced`] would act between two
//! operations, the block *deoptimises* — it stops executing translated
//! operations and hands back with the machine at an ordinary operation
//! boundary. Deopt points are:
//!
//! * **Channel and scheduling interactions**: an operation raised a
//!   slice exit (link I/O, acknowledge), descheduled the process, or
//!   left a [`super::Resume`] continuation.
//! * **Timer work**: a timer queue became non-empty (a `tin`/ALT
//!   enqueued, or a store hit the reserved words), so clock ticks can
//!   wake processes again and must be stepped exactly.
//! * **Preemption**: a high-priority process became ready while a
//!   low-priority block was running.
//! * **Control transfer**: the executed operation moved `Iptr`
//!   somewhere other than the next sequential operation (taken branch,
//!   call, context switch). Blocks are keyed by code position, so
//!   execution re-enters a block (or the byte path) at the new position.
//! * **Writes into translated code**: the memory side's
//!   [`code epoch`](crate::memory) moved, meaning a store landed in a
//!   64-byte block that *some* translated code covers. The block
//!   deopts, and the next block lookup drops every translated block
//!   (occam never stores into its code, so this is the self-modifying
//!   test programs' path only); hot leaders retranslate on their next
//!   arrival, from the bytes as they then stand.
//! * **Budget**: the next operation would start at or past the slice
//!   limit (the byte path owns partial-operation accounting).
//! * **Link fence**: the next operation acts on a link channel and
//!   would start at or past the fence of [`Cpu::run_slice_fenced`] (the
//!   byte path decides, and leaves it unexecuted).
//!
//! Because every handler is the shared executor and every deopt lands
//! on an operation boundary with the same registers, clocks and queues
//! the byte path would have, resumption state is identical by
//! construction — the tests assert it anyway.

use super::decode::decode_entry;
use super::{Cpu, SliceOutcome};
use crate::error::HaltReason;
use crate::instr::{Direct, Op};
use crate::memory::CODE_BLOCK_SHIFT;
use crate::process::Priority;
use crate::stats::Stats;
use crate::word::Width;

/// Most operations a block may hold. Long enough for the unrolled
/// arithmetic loops the corpus is made of; short enough that a deopt
/// near the end wastes little translation.
const MAX_BLOCK_OPS: usize = 32;

/// A translated operation: the decoded function nibble, its fused
/// operand, the encoded length (for stats, cycle counting and `Iptr`
/// advance), and the dispatch code `xfun` — equal to `fun` for a
/// plain operation, or a specialised code: an `XF_*` pair when this
/// operation and its successor were fused into one dispatch, or an
/// `XO_*` single operation.
#[derive(Clone, Copy)]
struct TransOp {
    operand: u32,
    fun: u8,
    len: u8,
    xfun: u8,
}

/// First dispatch code above the sixteen plain function nibbles.
/// Codes in `XF_BASE..XO_BASE` are fused *pairs* (they consume two
/// operations per dispatch); codes from [`XO_BASE`] up are specialised
/// single operations.
const XF_BASE: u8 = 16;
// The fused pairs, named by the operations they join. Each stays
// because a dispatch census pays for it: at least 1 % of block
// dispatches on one of the five simulating benchmark workloads (the
// table is in DESIGN §9). The search board's inner loop is ten
// dispatches a record at about 9.9 % each — `j`, `ldl`, `cj`, `eqc`,
// `opr`, `ldlp+ldl`, `ldc+opr`, `ldlp+ldc`, `wsub+ldnl` and `diff`.
// Fusion only elides the dispatch between the two operations — each
// half keeps its own cycle charge, statistics and checks, so it cannot
// change behaviour.
const XF_LDLP_LDL: u8 = 16;
const XF_LDC_OPR: u8 = 17;
const XF_LDL_ADC: u8 = 18;
const XF_LDLP_LDC: u8 = 19;
const XF_STL_LDLP: u8 = 20;
const XF_LDL_ADD: u8 = 21;
const XF_LDL_GT: u8 = 22;
const XF_WSUB_LDNL: u8 = 23;
const XF_WSUB_STNL: u8 = 24;
const XF_GT_CJ: u8 = 25;
const XO_BASE: u8 = 26;
/// `diff` alone, a tenth of the search board's dispatches; any other
/// `opr` outside a pair runs the general arm.
const XO_DIFF: u8 = 26;
/// An `opr` that can act on a link channel (a decode entry with `link`
/// set): the general operation behind a link-fence check. Never
/// fused, so the check always sits at a dispatch boundary.
const XO_LINK: u8 = 27;
/// How many specialised codes there are.
const SPECIALISED: usize = (XO_LINK + 1 - XF_BASE) as usize;

/// The single-operation dispatch code of a decoded operation.
fn single_code(fun: u8, operand: u32, link: bool) -> u8 {
    if link {
        XO_LINK
    } else if fun == Direct::Operate.nibble() && Op::from_code(operand) == Some(Op::Difference) {
        XO_DIFF
    } else {
        fun
    }
}

/// The fused-pair code for two adjacent operations carrying their
/// single-operation codes, if they are one of the pairs above.
fn fuse_code(a: &TransOp, b: &TransOp) -> Option<u8> {
    use Op::{Add, GreaterThan, WordSubscript};
    // The operation of an `opr` with no code of its own.
    let op = |t: &TransOp| (t.xfun == 0xF).then(|| Op::from_code(t.operand)).flatten();
    // Function nibbles: 0x1 ldlp, 0x3 ldnl, 0x4 ldc, 0x7 ldl,
    // 0x8 adc, 0xA cj, 0xD stl, 0xE stnl, 0xF opr.
    match ((a.xfun, op(a)), (b.xfun, op(b))) {
        ((0x1, _), (0x7, _)) => Some(XF_LDLP_LDL),
        ((0x1, _), (0x4, _)) => Some(XF_LDLP_LDC),
        ((0x7, _), (0x8, _)) => Some(XF_LDL_ADC),
        ((0xD, _), (0x1, _)) => Some(XF_STL_LDLP),
        ((0x7, _), (_, Some(Add))) => Some(XF_LDL_ADD),
        ((0x7, _), (_, Some(GreaterThan))) => Some(XF_LDL_GT),
        ((_, Some(WordSubscript)), (0x3, _)) => Some(XF_WSUB_LDNL),
        ((_, Some(WordSubscript)), (0xE, _)) => Some(XF_WSUB_STNL),
        ((_, Some(GreaterThan)), (0xA, _)) => Some(XF_GT_CJ),
        // `gt` and `wsub` are left to pair with what follows them.
        ((0x4, _), (0xF, Some(op))) if !matches!(op, GreaterThan | WordSubscript) => {
            Some(XF_LDC_OPR)
        }
        _ => None,
    }
}

impl TransOp {
    /// Count `times` executions of this operation — what the byte
    /// path's byte count and `record_operation` do once per execution.
    /// These counters feed reporting, never control flow, so blocks
    /// apply them in batches (see [`Cpu::flush_block_stats`]). Cycle and
    /// time accounting is NOT batched — it drives budgets and timers
    /// and stays exact per operation.
    fn record(&self, stats: &mut Stats, times: u64) {
        let len = usize::from(self.len);
        stats.operations += times;
        stats.instructions += times * len as u64;
        stats.length_histogram[len.min(stats.length_histogram.len() - 1)] += times;
        stats.direct_counts[usize::from(self.fun)] += times;
    }
}

/// A compiled basic block, its operations stored inline so a block
/// entry touches exactly one allocation. The whole cache is
/// *moved* out of the `Cpu` while [`Cpu::run_predecoded`] runs, so a
/// block can be borrowed from it while handlers borrow the whole `Cpu`,
/// with no per-entry reference counting or slot shuffling.
struct TransBlock {
    ops: [TransOp; MAX_BLOCK_OPS],
    nops: u8,
    /// Runs to completion whose statistics are not yet in `Stats`:
    /// folded in, `ops` × `runs`, before anything can read them.
    runs: u64,
}

impl TransBlock {
    /// The live operations.
    #[inline]
    fn ops(&self) -> &[TransOp] {
        &self.ops[..usize::from(self.nops)]
    }

    /// Move the pending complete runs into `stats`.
    fn fold_runs(&mut self, stats: &mut Stats) {
        let runs = std::mem::take(&mut self.runs);
        if runs != 0 {
            for op in self.ops() {
                op.record(stats, runs);
            }
        }
    }
}

impl std::fmt::Debug for TransBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransBlock")
            .field("ops", &self.nops)
            .finish()
    }
}

/// Per-processor translation cache: a direct-mapped leader index (the
/// code byte offset *is* the key), per-leader heat counters, and slot
/// storage for the blocks. Grows geometrically with the highest code
/// offset entered, so short-lived processors never pay for the full
/// address range.
#[derive(Debug, Default)]
pub(crate) struct TransCache {
    /// `off -> slot + 1`; `0` means no block at this leader.
    index: Vec<u32>,
    /// Leader arrival counts; a leader is translated when its heat
    /// reaches the configured threshold.
    heat: Vec<u8>,
    /// Block storage. Boxed so the cache grows a block at a time: a
    /// `Vec` doubling blocks inline cost the 1 024-node grid 2.4 MB of
    /// peak memory when they were 336 bytes.
    #[allow(clippy::vec_box)]
    slots: Vec<Box<TransBlock>>,
    /// Slots whose block has pending `runs`; drained by
    /// [`Cpu::run_predecoded`] and by a flush.
    dirty: Vec<u32>,
    /// [`crate::memory::Memory::code_epoch`] when the blocks were
    /// built: every block is valid while the memory still reads it.
    epoch: u64,
}

// A cloned Cpu starts with an empty translation cache; it re-warms on
// its own.
impl Clone for TransCache {
    fn clone(&self) -> TransCache {
        TransCache::default()
    }
}

impl TransCache {
    #[cold]
    fn grow(&mut self, off: usize) {
        let target = (off + 1).next_power_of_two().max(self.index.len() * 2);
        self.index.resize(target, 0);
        self.heat.resize(target, 0);
    }

    /// Store a block at leader `off`; returns its slot index. The
    /// leader's heat stays, so it rebuilds on its next arrival after a
    /// flush.
    fn insert(&mut self, off: usize, block: Box<TransBlock>) -> u32 {
        self.slots.push(block);
        let slot = (self.slots.len() - 1) as u32;
        self.index[off] = slot + 1;
        slot
    }
}

/// What [`Cpu::run_predecoded`] and [`Cpu::exec_block`] hand back to
/// the slice loop.
pub(crate) enum TierExit {
    /// The slice is over; propagate the outcome.
    Outcome(SliceOutcome),
    /// A block ended at an operation boundary: re-check the scheduler
    /// before going on.
    Recheck,
    /// The byte path runs the next operation here: it is in no block, or
    /// abuts the budget or the link fence (the byte path owns partial
    /// operations and the fence).
    BytePath,
}

impl Cpu {
    /// The translation tier's part of [`Cpu::run_slice_fenced`], entered
    /// only with the tier on and tracing off: at a block leader, run
    /// translated blocks back to back for as long as each ends at another
    /// leader that has one. A position is a leader at slice entry, after
    /// a block, after a continuation, and after an operation of the byte
    /// path that moved `Iptr` off its sequential successor (a taken
    /// branch, a call, a context switch) or that blocks end at (a `cj`
    /// not taken, a `lend` leaving its loop — `build_block` stopped there,
    /// so what follows is in no block). After an operation that fell
    /// through, the byte path runs on without a lookup, so heat is
    /// counted at leaders only. The record of that operation is the one
    /// the byte path leaves in `last_op`; nothing is decoded here.
    ///
    /// Entry preconditions (established by `run_slice_fenced`): not
    /// halted, a process is current, no pending preemption, `resume` is
    /// `None` and `op_len == 0` (an operation boundary).
    pub(crate) fn run_predecoded<W: Width>(&mut self, limit: u64, fence: u64) -> TierExit {
        let leader = self
            .last_op
            .take()
            .is_none_or(|(fun, operand, next)| self.iptr != next || ends_block(fun, operand));
        if !leader {
            self.stats.decode_misses += 1;
            return TierExit::BytePath;
        }
        // The due ticks are re-latched once here and thereafter by
        // the `advance_time` of every operation that can write memory.
        self.refresh_timer_heads::<W>();
        let mut off = match self.block_entry::<W>() {
            Ok(off) => off,
            Err(exit) => return exit,
        };
        // Blocks are borrowed from here while they run (nothing they
        // call touches the cache).
        let mut tcache = std::mem::take(&mut self.tcache);
        let exit = loop {
            let Some(slot) = self.lookup_block::<W>(&mut tcache, off) else {
                self.stats.decode_misses += 1;
                break TierExit::BytePath;
            };
            self.stats.trans_enters += 1;
            let block = &mut *tcache.slots[slot as usize];
            let pending = block.runs;
            let exit = self.exec_block::<W>(block, limit, fence);
            if pending == 0 && block.runs != 0 {
                tcache.dirty.push(slot);
            }
            match exit {
                // Still in the same process at an operation boundary:
                // the next position is a fresh leader.
                TierExit::Recheck
                    if self.has_current_process() && self.resume.is_none() && self.op_len == 0 => {}
                exit => break exit,
            }
            off = match self.block_entry::<W>() {
                Ok(off) => off,
                Err(exit) => break exit,
            };
        };
        // Nothing reads `Stats` while blocks run; everything that can
        // runs after this.
        while let Some(slot) = tcache.dirty.pop() {
            tcache.slots[slot as usize].fold_runs(&mut self.stats);
        }
        self.tcache = tcache;
        exit
    }

    /// The code offset of `Iptr` if a block may be entered there, or who
    /// runs next: the slice loop, to preempt for a waiting high-priority
    /// process, or the byte path — while a timer queue is non-empty
    /// (clock ticks can wake processes, so every operation's time must go
    /// through `advance_time`) and for out-of-range code (the byte path
    /// owns faulting). No block runs on a penalised map (`translate_ok`).
    fn block_entry<W: Width>(&self) -> Result<usize, TierExit> {
        debug_assert!(self.resume.is_none() && self.op_len == 0 && self.oreg == 0);
        if self.priority() == Priority::Low && self.fptr[0] != self.magic.not_process {
            return Err(TierExit::Recheck);
        }
        if self.wake_at != [u64::MAX; 2] {
            return Err(TierExit::BytePath);
        }
        let off = W::WORD.mask(self.iptr.wrapping_sub(W::WORD.most_neg())) as usize;
        if off >= self.mem.size() as usize {
            return Err(TierExit::BytePath);
        }
        Ok(off)
    }

    /// Execute a translated block's operations back to back. Entered
    /// at the epoch it was built under; every operation replays the byte
    /// path's sequence, and any reason to stop is a [`TierExit`].
    ///
    /// One flat dispatch per operation — the same branch shape as the
    /// interpreter, so the host branch predictor sees one data-dependent
    /// jump per op, not a class check feeding a second dispatch. Every
    /// arm runs its operation through the shared executor with a
    /// constant argument — [`Cpu::exec_direct`] with the arm's function,
    /// or [`Cpu::exec_alu`] with its operation — so inlining reduces it
    /// to that operation's body. What differs between arms is the tail
    /// after it: each class keeps only the checks it can need, and the
    /// rest fold away at compile time on the constant.
    ///
    /// * **Pure**: `ldlp`, `ldc`, `ldnlp`, `ldl`, `ldnl`, `adc`, `ajw`,
    ///   `eqc` and the ALU `opr`s read registers, workspace and memory
    ///   only. They may fault (the `Err` path), and `adc`/`add` overflow
    ///   may raise the error flag (under halt-on-error that sets
    ///   `halted`), but they cannot set `slice_exit`, cannot deschedule,
    ///   cannot move `Iptr` off the sequential path, and cannot write
    ///   memory — so neither the code epoch nor the timer heads nor a
    ///   run-queue pointer can change, and with empty timer queues (a
    ///   block entry invariant re-checked after every operation that can
    ///   disturb them) adding cycles directly is exactly what
    ///   `advance_time` would do. `op_start`/`slice_mark` stay
    ///   unwritten: only tracing (never active here) and interaction
    ///   exits (impossible here) read them, and the fault path restores
    ///   both. `cj` takes this tail too: `ends_block` makes it
    ///   block-final, so a taken jump is the block's natural end.
    /// * **Store**: `stl`/`stnl` additionally write memory, so they
    ///   advance time through `advance_time` (the reserved-word timer
    ///   refresh), then run the epoch check and re-check the scheduler
    ///   gates.
    /// * **General**: `j`, `call` and every other `opr` get the full
    ///   post-operation battery of the byte path's slice loop.
    ///
    /// Per-op statistics are batched: every exit path accounts for the
    /// executed prefix through [`Cpu::flush_block_stats`] before
    /// returning, and complete runs counted there are folded in before
    /// [`Cpu::run_predecoded`] returns or the cache is flushed, so
    /// the [`crate::stats::Stats`] image is identical to the
    /// byte path's at every point a caller can observe it.
    fn exec_block<W: Width>(&mut self, block: &mut TransBlock, limit: u64, fence: u64) -> TierExit {
        let epoch = self.mem.code_epoch();
        let ops = block.ops();
        let last = ops.len() - 1;
        let mut i = 0usize;
        loop {
            let op = ops[i];
            // Hand operation `$n` (and the rest of the block) to the
            // byte path unexecuted: it abuts the budget or the fence.
            macro_rules! abut_ret {
                ($n:expr) => {{
                    self.flush_block_stats(block, $n);
                    self.stats.trans_deopts += 1;
                    return TierExit::BytePath;
                }};
            }
            if self.cycles + (u64::from(op.len) - 1) >= limit {
                abut_ret!(i);
            }
            // Shared exit/check fragments for the tails below,
            // parameterised by `$n`, the count of operations that have
            // fully executed when the fragment runs — `i + 1` for the
            // current operation, `i + 2` for the second half of a
            // fused pair. `flush_ret` ends the block; `halt_ret` ends it
            // if the operation halted the machine; `budget_tail` is the
            // post-operation budget check every tail needs; `deopt_ret`
            // is a mid-block deoptimisation.
            macro_rules! flush_ret {
                ($n:expr, $exit:expr) => {{
                    self.flush_block_stats(block, $n);
                    return $exit;
                }};
            }
            macro_rules! halt_ret {
                ($n:expr) => {
                    if let Some(r) = self.halted {
                        flush_ret!($n, TierExit::Outcome(SliceOutcome::Halted(r)));
                    }
                };
            }
            macro_rules! deopt_ret {
                ($n:expr) => {{
                    self.stats.trans_deopts += 1;
                    flush_ret!($n, TierExit::Recheck);
                }};
            }
            macro_rules! budget_tail {
                ($n:expr) => {
                    if self.cycles >= limit {
                        flush_ret!($n, TierExit::Outcome(SliceOutcome::BudgetExpired));
                    }
                };
            }
            // Advance `Iptr` over a sequential operation.
            macro_rules! advance {
                ($op:expr) => {{
                    let prev = self.iptr;
                    self.iptr = W::WORD.mask(prev.wrapping_add(u32::from($op.len)));
                    prev
                }};
            }
            // A pure or store direct function `$fun` (see the doc
            // above): `len - 1` encoding cycles, the executor, then the
            // tail of its class.
            macro_rules! direct {
                ($fun:expr, $op:expr, $n:expr) => {{
                    let store = matches!($fun, Direct::StoreLocal | Direct::StoreNonLocal);
                    let prev = advance!($op);
                    self.cycles += u64::from($op.len) - 1;
                    let c = match self.exec_direct::<W>($fun, $op.operand) {
                        Ok(c) => c,
                        Err(r) => return self.block_fault(block, $n - 1, prev, r),
                    };
                    if store {
                        self.advance_time::<W>(c);
                    } else {
                        self.cycles += u64::from(c);
                    }
                    if matches!($fun, Direct::AddConstant) {
                        halt_ret!($n);
                    }
                    budget_tail!($n);
                    if store {
                        if self.mem.code_epoch() != epoch {
                            deopt_ret!($n);
                        }
                        if $n - 1 != last && self.gates_tripped() {
                            deopt_ret!($n);
                        }
                    }
                }};
            }
            // A pure ALU `opr`, resolved to `$alu` at build time: the
            // operation count the `operate` dispatch keeps, then the
            // pure tail.
            macro_rules! alu {
                ($alu:expr, $op:expr, $n:expr) => {{
                    advance!($op);
                    self.stats.record_op($alu);
                    self.cycles += u64::from($op.len) - 1 + u64::from(self.exec_alu::<W>($alu));
                    if matches!($alu, Op::Add) {
                        halt_ret!($n);
                    }
                    budget_tail!($n);
                }};
            }
            // An operation with the full byte-path semantics and the
            // full post-operation battery, in the byte path's order
            // so coincident conditions resolve to the same outcome.
            macro_rules! general {
                ($fun:expr, $op:expr, $n:expr) => {{
                    self.op_start = self.iptr;
                    let next = W::WORD.mask(self.iptr.wrapping_add(u32::from($op.len)));
                    self.iptr = next;
                    self.cycles += u64::from($op.len) - 1;
                    self.slice_mark = self.cycles;
                    match self.exec_direct::<W>($fun, $op.operand) {
                        Ok(c) => self.advance_time::<W>(c),
                        Err(reason) => {
                            self.halted = Some(reason);
                            flush_ret!($n, TierExit::Outcome(SliceOutcome::Halted(reason)));
                        }
                    }
                    halt_ret!($n);
                    if let Some(exit) = self.slice_exit.take() {
                        self.stats.trans_deopts += 1;
                        flush_ret!($n, TierExit::Outcome(exit));
                    }
                    budget_tail!($n);
                    if !self.has_current_process() || self.resume.is_some() || self.op_len != 0 {
                        deopt_ret!($n);
                    }
                    if self.iptr != next {
                        // Control transferred. At the block's final
                        // operation this is natural completion (blocks
                        // end on branches); earlier it is a deopt.
                        if $n - 1 != last {
                            self.stats.trans_deopts += 1;
                        }
                        flush_ret!($n, TierExit::Recheck);
                    }
                    if self.mem.code_epoch() != epoch {
                        deopt_ret!($n);
                    }
                    if $n - 1 != last && self.gates_tripped() {
                        deopt_ret!($n);
                    }
                }};
            }
            // The second half of a fused pair: the budget pre-check the
            // loop top made for the first, then the named tail with the
            // executed count bumped to i + 2.
            macro_rules! fused {
                ($tail:ident, $what:expr) => {{
                    let op2 = ops[i + 1];
                    if self.cycles + (u64::from(op2.len) - 1) >= limit {
                        abut_ret!(i + 1);
                    }
                    $tail!($what, op2, i + 2);
                }};
            }
            // One flat dispatch per (possibly fused) operation: codes
            // 0..=15 are the plain function nibbles, then the
            // specialised codes `build_block` stamps.
            match op.xfun {
                0x0 => general!(Direct::Jump, op, i + 1),
                0x1 => direct!(Direct::LoadLocalPointer, op, i + 1),
                0x2 | 0x6 => unreachable!("decode fuses prefixes into the operand"),
                0x3 => direct!(Direct::LoadNonLocal, op, i + 1),
                0x4 => direct!(Direct::LoadConstant, op, i + 1),
                0x5 => direct!(Direct::LoadNonLocalPointer, op, i + 1),
                0x7 => direct!(Direct::LoadLocal, op, i + 1),
                0x8 => direct!(Direct::AddConstant, op, i + 1),
                0x9 => general!(Direct::Call, op, i + 1),
                0xA => direct!(Direct::ConditionalJump, op, i + 1),
                0xB => direct!(Direct::AdjustWorkspace, op, i + 1),
                0xC => direct!(Direct::EqualsConstant, op, i + 1),
                0xD => direct!(Direct::StoreLocal, op, i + 1),
                0xE => direct!(Direct::StoreNonLocal, op, i + 1),
                0xF => general!(Direct::Operate, op, i + 1),
                XF_LDLP_LDL => {
                    direct!(Direct::LoadLocalPointer, op, i + 1);
                    fused!(direct, Direct::LoadLocal);
                }
                XF_LDC_OPR => {
                    direct!(Direct::LoadConstant, op, i + 1);
                    fused!(general, Direct::Operate);
                }
                XF_LDL_ADC => {
                    direct!(Direct::LoadLocal, op, i + 1);
                    fused!(direct, Direct::AddConstant);
                }
                XF_LDLP_LDC => {
                    direct!(Direct::LoadLocalPointer, op, i + 1);
                    fused!(direct, Direct::LoadConstant);
                }
                XF_STL_LDLP => {
                    direct!(Direct::StoreLocal, op, i + 1);
                    fused!(direct, Direct::LoadLocalPointer);
                }
                XF_LDL_ADD => {
                    direct!(Direct::LoadLocal, op, i + 1);
                    fused!(alu, Op::Add);
                }
                XF_LDL_GT => {
                    direct!(Direct::LoadLocal, op, i + 1);
                    fused!(alu, Op::GreaterThan);
                }
                XF_WSUB_LDNL => {
                    alu!(Op::WordSubscript, op, i + 1);
                    fused!(direct, Direct::LoadNonLocal);
                }
                XF_WSUB_STNL => {
                    alu!(Op::WordSubscript, op, i + 1);
                    fused!(direct, Direct::StoreNonLocal);
                }
                XF_GT_CJ => {
                    alu!(Op::GreaterThan, op, i + 1);
                    fused!(direct, Direct::ConditionalJump);
                }
                XO_DIFF => alu!(Op::Difference, op, i + 1),
                XO_LINK => {
                    if self.cycles + (u64::from(op.len) - 1) >= fence
                        && self.touches_link::<W>(op.operand)
                    {
                        abut_ret!(i);
                    }
                    general!(Direct::Operate, op, i + 1)
                }
                _ => unreachable!("unknown dispatch code"),
            }
            let n = i + 1 + usize::from((XF_BASE..XO_BASE).contains(&op.xfun));
            if n > last {
                // Completion: a block-final `cj` (taken or not) or a
                // length-capped block.
                self.flush_block_stats(block, n);
                return TierExit::Recheck;
            }
            i = n;
        }
    }

    /// How many operations in the blocks this processor has translated
    /// carry each specialised dispatch code, indexed from the first
    /// (`XF_LDLP_LDL`). For the test that holds every code to being
    /// stamped by code the repository really runs
    /// (`determinism.rs::every_superinstruction_is_stamped_somewhere`).
    #[doc(hidden)]
    pub fn specialised_code_counts(&self) -> [usize; SPECIALISED] {
        let mut counts = [0; SPECIALISED];
        let ops = self.tcache.slots.iter().flat_map(|block| block.ops());
        for op in ops.filter(|op| op.xfun >= XF_BASE) {
            counts[usize::from(op.xfun - XF_BASE)] += 1;
        }
        counts
    }

    /// Whether the scheduler gates would stop fused execution: a timer
    /// queue became non-empty, or a high-priority process is waiting
    /// while a low-priority block runs. Mirrors the first two checks of
    /// [`Cpu::block_entry`].
    #[inline]
    fn gates_tripped(&self) -> bool {
        self.wake_at != [u64::MAX; 2]
            || (self.priority() == Priority::Low && self.fptr[0] != self.magic.not_process)
    }

    /// Cold path for a memory fault raised by a pure or store arm of
    /// [`Cpu::exec_block`]: restore the bookkeeping the fast
    /// path skipped (`op_start`, `slice_mark`) so the halted machine
    /// state is field-for-field what the byte path leaves behind.
    #[cold]
    fn block_fault(
        &mut self,
        block: &mut TransBlock,
        idx: usize,
        prev_iptr: u32,
        reason: HaltReason,
    ) -> TierExit {
        self.op_start = prev_iptr;
        self.slice_mark = self.cycles;
        self.flush_block_stats(block, idx + 1);
        self.halted = Some(reason);
        TierExit::Outcome(SliceOutcome::Halted(reason))
    }

    /// Account for the first `executed` operations of a block. A run to
    /// completion — the common case — only bumps the block's counter,
    /// which [`Cpu::run_predecoded`] folds in before it returns; a
    /// partial run replays its prefix now.
    fn flush_block_stats(&mut self, block: &mut TransBlock, executed: usize) {
        if executed == usize::from(block.nops) {
            block.runs += 1;
        } else {
            for op in &block.ops[..executed] {
                op.record(&mut self.stats, 1);
            }
        }
    }

    /// The slot of the translated block for leader `off`, if one exists
    /// or the leader just became hot enough to build one. If the code
    /// epoch has moved since the blocks were built, some translated
    /// code was overwritten: every block goes first.
    fn lookup_block<W: Width>(&mut self, tcache: &mut TransCache, off: usize) -> Option<u32> {
        if tcache.epoch != self.mem.code_epoch() {
            self.flush_blocks(tcache);
        }
        if off >= tcache.index.len() {
            tcache.grow(off);
        }
        let slot = tcache.index[off];
        if slot != 0 {
            return Some(slot - 1);
        }
        let heat = &mut tcache.heat[off];
        *heat = heat.saturating_add(1);
        if u32::from(*heat) >= self.translate_threshold {
            return self.build_block::<W>(tcache, off);
        }
        None
    }

    /// Drop every translated block: fold the runs they completed (of the
    /// code they were built from), count them in `trans_invalidations`,
    /// disarm every write gate, and take the current epoch.
    #[cold]
    fn flush_blocks(&mut self, tcache: &mut TransCache) {
        while let Some(slot) = tcache.dirty.pop() {
            tcache.slots[slot as usize].fold_runs(&mut self.stats);
        }
        self.stats.trans_invalidations += tcache.slots.len() as u64;
        tcache.slots.clear();
        tcache.index.fill(0);
        self.mem.disarm_code();
        tcache.epoch = self.mem.code_epoch();
    }

    /// Compile the basic block whose leader is at code offset `off`
    /// (`== mask(iptr - base)`, inside the fast region), arm the write
    /// gate of every 64-byte block it covers, and store it.
    /// Returns its slot — or `None`, storing nothing, when not even the
    /// leader can be translated (an unknown operation, a chain running
    /// past the end of memory: the byte path's business).
    #[cold]
    fn build_block<W: Width>(&mut self, tcache: &mut TransCache, off: usize) -> Option<u32> {
        let base = W::WORD.most_neg();
        let mut iptr = W::WORD.mask(base.wrapping_add(off as u32));
        let mut ops = [TransOp {
            operand: 0,
            fun: 0,
            len: 0,
            xfun: 0,
        }; MAX_BLOCK_OPS];
        let mut nops = 0usize;
        // One past the last byte the block's operations occupy.
        let mut end_off = off;
        while nops < MAX_BLOCK_OPS {
            let Some(e) = decode_entry::<W>(&self.mem, iptr) else {
                break;
            };
            ops[nops] = TransOp {
                operand: e.operand,
                fun: e.fun,
                len: e.len,
                xfun: single_code(e.fun, e.operand, e.link),
            };
            nops += 1;
            end_off += usize::from(e.len);
            iptr = W::WORD.mask(iptr.wrapping_add(u32::from(e.len)));
            if ends_block(Direct::from_nibble(e.fun), e.operand) {
                break;
            }
        }
        // Greedy left-to-right pairing over the single-operation codes:
        // stamp the first operation of each hot adjacent pair with its
        // superinstruction code.
        // The second operation keeps its own code, which is what the
        // partial-replay stats path and any restart after a mid-pair
        // deopt rely on — a deopt always flushes the true count of
        // executed operations, never "half a superinstruction".
        let mut k = 0;
        while k + 1 < nops {
            match fuse_code(&ops[k], &ops[k + 1]) {
                Some(xf) => {
                    ops[k].xfun = xf;
                    k += 2;
                }
                None => k += 1,
            }
        }
        if nops == 0 {
            return None;
        }
        let last_block = ((end_off - 1) >> CODE_BLOCK_SHIFT).min(self.mem.code_blocks() - 1);
        for b in (off >> CODE_BLOCK_SHIFT)..=last_block {
            self.mem.note_code_cached(b);
        }
        let block = Box::new(TransBlock {
            ops,
            nops: nops as u8,
            runs: 0,
        });
        self.stats.trans_blocks += 1;
        Some(tcache.insert(off, block))
    }
}

/// Whether an operation terminates block construction. Purely a
/// translation-quality heuristic — correctness never depends on it,
/// because the per-operation post-checks in [`Cpu::exec_block`] catch
/// every control transfer, deschedule and resumption — but operations
/// that *always* divert (returns, loop ends, process ends) would make
/// everything after them dead weight, so blocks end there. Branches
/// and calls end blocks because their targets are new leaders; `cj`
/// ends them too, because a loop's taken back-edge would otherwise
/// deopt mid-block on every iteration (the fall-through case chains
/// into the next block's leader at no cost). Communication operations
/// do *not* end blocks: a `tin` whose time has passed or an `out`
/// meeting a ready partner continues sequentially, and the mid-block
/// deopt machinery handles the descheduling case — that is the
/// machinery the deopt tests exercise.
fn ends_block(fun: Direct, operand: u32) -> bool {
    match fun {
        // `j 0` goes nowhere: it is the timeslice point the compiler
        // leaves at the end of a branch, and straight-line code here
        // (a timeslice that is taken deopts like any deschedule).
        Direct::Jump => operand != 0,
        Direct::Call | Direct::ConditionalJump => true,
        Direct::Operate => match Op::from_code(operand) {
            Some(op) => matches!(
                op,
                Op::Return
                    | Op::LoopEnd
                    | Op::EndProcess
                    | Op::StopProcess
                    | Op::GeneralCall
                    | Op::AltEnd
                    | Op::Move
                    | Op::HaltSimulation
            ),
            // Unknown operations do not decode; unreachable here.
            None => true,
        },
        _ => false,
    }
}
