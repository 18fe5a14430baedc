//! The transputer processor.
//!
//! Six registers are used in the execution of a sequential process
//! (§3.2.3, Figure 2): the workspace pointer, the instruction pointer,
//! the operand register, and the A, B and C registers forming the
//! evaluation stack. Concurrency is provided by a hardware scheduler
//! (§3.2.4) with two priority levels, each a linked list of process
//! workspaces threaded through memory.
//!
//! A part's word length is fixed when it is made, so the executor — the
//! byte path, the translation tier, the scheduler and channel I/O — is
//! one source, generic over a crate-private `Width` and compiled twice:
//! for the T222 (`W16`) and for the T424 (`W32`). Every word rule in it
//! folds to its part's constant. `Cpu` keeps its [`WordLength`] and
//! matches it once at each public entry that runs the executor
//! (`at_width!`), never per instruction. Both tiers run the same
//! instantiation, so they agree at either width by construction.

/// Call the width-generic method `$method` of `$cpu` (a [`Cpu`]) at
/// its part's word length: its `W16` or its `W32` instantiation. The
/// executor's one dispatch on the word length, made once at each entry
/// that runs it.
macro_rules! at_width {
    ($cpu:ident.$method:ident($($arg:expr),*)) => {
        match $cpu.word {
            crate::word::WordLength::Bits16 => $cpu.$method::<crate::word::W16>($($arg),*),
            crate::word::WordLength::Bits32 => $cpu.$method::<crate::word::W32>($($arg),*),
        }
    };
}

mod boot;
mod decode;
mod exec;
mod io;
mod sched;
#[cfg(test)]
mod tests;
mod translate;

use crate::error::{CpuError, HaltReason};
use crate::linkif::{LinkIn, LinkOut, LINK_COUNT};
use crate::memory::{Memory, MemoryConfig};
use crate::process::{workspace_word, Magic, Priority, ProcDesc, PW_IPTR, PW_SLOTS};
use crate::stats::Stats;
use crate::timing;
use crate::word::{Width, WordLength};
use translate::TierExit;

/// Configuration of one emulated transputer.
///
/// There are two execution tiers: the byte path (one instruction byte
/// per micro-step, the reference) and the translation tier
/// (`cpu/translate.rs`). [`CpuConfig::translate`] selects between them.
#[derive(Debug, Clone)]
pub struct CpuConfig {
    /// Machine word length: the T424 is 32-bit, the T222 16-bit (§3.1).
    pub word: WordLength,
    /// Memory sizing and off-chip penalty.
    pub memory: MemoryConfig,
    /// Run through the translation tier: hot basic blocks as threaded
    /// code, everything else on the byte path (see
    /// `cpu/translate.rs`). A pure host optimisation: simulated timing,
    /// results and statistics are bit-identical either way (only the
    /// `decode_*` and `trans_*` host counters in [`Stats`] differ). On
    /// by default. Off — or with a trace ring enabled — every
    /// instruction runs through the byte path.
    pub translate: bool,
    /// Leader arrivals before a basic block is translated.
    pub translate_threshold: u32,
}

impl CpuConfig {
    /// The T424: 32-bit, 4K bytes on chip (§3.1), extended here with
    /// external RAM for program development.
    pub fn t424() -> CpuConfig {
        CpuConfig {
            word: WordLength::Bits32,
            memory: MemoryConfig::default(),
            translate: true,
            translate_threshold: 2,
        }
    }

    /// The T222: the 16-bit part "providing similar facilities" (§3.1).
    pub fn t222() -> CpuConfig {
        CpuConfig {
            word: WordLength::Bits16,
            ..CpuConfig::t424()
        }
    }

    /// Replace the memory configuration.
    pub fn with_memory(mut self, memory: MemoryConfig) -> CpuConfig {
        self.memory = memory;
        self
    }

    /// A shim: there is no decode cache. `false` turns the translation
    /// tier off, exactly as `with_translate(false)` does; `true` does
    /// nothing. Kept because the system benchmark's pinned surface
    /// names it; it goes with the benchmark's next revision
    /// (ROADMAP item 1(b)).
    pub fn with_decode_cache(mut self, on: bool) -> CpuConfig {
        self.translate &= on;
        self
    }

    /// Enable or disable the threaded-code translation tier.
    pub fn with_translate(mut self, on: bool) -> CpuConfig {
        self.translate = on;
        self
    }

    /// Leader arrivals before a block is translated (tests use `1` to
    /// translate immediately).
    pub fn with_translate_threshold(mut self, threshold: u32) -> CpuConfig {
        self.translate_threshold = threshold;
        self
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::t424()
    }
}

/// Saved context of a low-priority process interrupted by a high-priority
/// one. On the hardware these live in shadow registers; keeping them off
/// the ordinary save path is what makes the ordinary context switch touch
/// "only the instruction pointer and the workspace pointer" (§3.2.4).
#[derive(Debug, Clone)]
pub(crate) struct Shadow {
    pub wdesc: u32,
    pub iptr: u32,
    pub op_start: u32,
    pub areg: u32,
    pub breg: u32,
    pub creg: u32,
    pub oreg: u32,
    pub op_len: u32,
    pub resume: Option<Resume>,
}

/// Mid-instruction state of an interruptible long instruction. The paper:
/// "the instructions which may take a long time to execute have been
/// implemented to allow a switch during execution" (§3.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// A block copy in progress (message transfer or `move`).
    BlockCopy {
        src: u32,
        dst: u32,
        remaining: u32,
        /// Process to wake when the copy completes (the other party of a
        /// communication), if any.
        wake: Option<ProcDesc>,
    },
    /// Remaining stall cycles of a long pure operation whose result has
    /// already been committed (normalise, long shifts).
    Stall { remaining: u32 },
}

/// Result of a single emulation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Executed work costing this many processor cycles.
    Ran { cycles: u32 },
    /// No process is runnable; the processor is waiting for a timer,
    /// a link, or an event.
    Idle,
    /// The processor has halted.
    Halted(HaltReason),
}

/// Why [`Cpu::run_slice`] stopped executing. Every variant except
/// [`SliceOutcome::BudgetExpired`] and [`SliceOutcome::Fenced`] is an
/// *interaction point*: a state change the outside world (the wires of
/// a network simulation) must observe before the processor may continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceOutcome {
    /// A link output channel has a byte ready for the wire to take.
    TxReady,
    /// A process began waiting for external input on a link.
    RxWait,
    /// A deferred link acknowledge was raised and must reach the wire.
    AckRaised,
    /// Nothing is runnable; the processor is waiting for a timer, a
    /// link, or an event.
    Idle,
    /// The processor halted.
    Halted(HaltReason),
    /// A high-priority process preempted the running low-priority one.
    Preempted,
    /// The cycle budget expired without reaching an interaction point.
    BudgetExpired,
    /// The next instruction acts on a link channel and would start at or
    /// past the link fence of [`Cpu::run_slice_fenced`]. It has *not*
    /// executed: the processor stands at its first byte (its terminal
    /// byte, if prefixed) with no side effect of it applied, and
    /// `cycles()` is the cycle at which it would start.
    Fenced,
}

/// Outcome of [`Cpu::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program executed the halt extension.
    Halted(HaltReason),
    /// No process is runnable and no timer can ever wake one: with no
    /// external links attached this is a deadlock.
    Deadlock,
}

/// One emulated transputer.
///
/// # Examples
///
/// Running a tiny hand-assembled program that adds two constants:
///
/// ```
/// use transputer::{Cpu, CpuConfig};
/// use transputer::instr::{encode, encode_op, Direct, Op};
///
/// let mut code = Vec::new();
/// code.extend(encode(Direct::LoadConstant, 5));
/// code.extend(encode(Direct::AddConstant, 7));
/// code.extend(encode_op(Op::HaltSimulation));
///
/// let mut cpu = Cpu::new(CpuConfig::t424());
/// cpu.load_boot_program(&code)?;
/// cpu.run(10_000)?;
/// assert_eq!(cpu.areg(), 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    pub(crate) word: WordLength,
    pub(crate) magic: Magic,
    pub(crate) mem: Memory,

    // Current process registers (Figure 2).
    pub(crate) wdesc: u32,
    pub(crate) iptr: u32,
    pub(crate) areg: u32,
    pub(crate) breg: u32,
    pub(crate) creg: u32,
    pub(crate) oreg: u32,
    /// Bytes of the operation decoded so far (prefix chain length).
    pub(crate) op_len: u32,

    // Scheduler queue registers, per priority (Figure 3).
    pub(crate) fptr: [u32; 2],
    pub(crate) bptr: [u32; 2],

    pub(crate) shadow: Option<Shadow>,
    /// Cycle at which the earliest still-pending high-priority wake
    /// occurred (for the §3.2.4 latency measurement).
    pub(crate) hi_ready_at: Option<u64>,
    pub(crate) resume: Option<Resume>,

    // Timers (§2.2.2): one clock per priority, each counting its own
    // ticks from the cycle both were last set (reset or `sttimer`).
    pub(crate) clock_set_at: u64,
    pub(crate) clock_set_to: u32,

    // Links.
    pub(crate) link_out: [LinkOut; LINK_COUNT],
    pub(crate) link_in: [LinkIn; LINK_COUNT],
    pub(crate) event_waiting: Option<ProcDesc>,
    pub(crate) event_pending: bool,

    pub(crate) error: bool,
    pub(crate) halt_on_error: bool,
    pub(crate) halted: Option<HaltReason>,
    pub(crate) boot: boot::BootState,
    pub(crate) trace: Option<crate::trace::TraceRing>,
    /// First byte address of the operation being decoded.
    pub(crate) op_start: u32,
    /// A completed operation awaiting trace recording.
    pub(crate) pending_trace: Option<(crate::instr::Direct, u32)>,
    /// The operation the byte path last finished: its function, operand
    /// and sequential successor, from which the translation tier tells
    /// whether `Iptr` stands at a block leader. `None` at slice entry,
    /// after a block and after a continuation, where every position is
    /// a leader.
    pub(crate) last_op: Option<(crate::instr::Direct, u32, u32)>,

    pub(crate) cycles: u64,
    pub(crate) last_dispatch: u64,
    pub(crate) stats: Stats,

    /// The threaded-code translation cache (see `cpu/translate.rs`).
    pub(crate) tcache: translate::TransCache,
    /// Whether `run_slice` may enter the translation tier at all: the
    /// tier is enabled, and no access pays an off-chip penalty (a block
    /// charges none).
    pub(crate) translate_ok: bool,
    /// Leader arrivals before a block is translated.
    pub(crate) translate_threshold: u32,
    /// Per priority, the cycle of the tick on which the timer queue
    /// head comes due, or `u64::MAX` while the queue is empty. Latched
    /// from the head and its wake time whenever a write lands in the
    /// reserved words, after each wake and after `sttimer` (see
    /// [`Cpu::latch_due_tick`]); no earlier tick touches memory.
    pub(crate) wake_at: [u64; 2],

    /// Interaction point reached by the instruction just executed; taken
    /// by [`Cpu::run_slice`] to end the slice.
    pub(crate) slice_exit: Option<SliceOutcome>,
    /// Wire-visible link state has changed since the flag was last taken.
    pub(crate) links_dirty: bool,
    /// Cycle at which the instruction that ended the last slice began.
    pub(crate) slice_mark: u64,
}

impl Cpu {
    /// Create a transputer in the reset state: no process running, error
    /// flag clear, clocks at zero and running, all channels empty.
    ///
    /// # Panics
    ///
    /// Panics if the memory map is smaller than the 18 reserved words
    /// (link and event channels, timer queue heads): 72 bytes on the
    /// T424, 36 on the T222.
    pub fn new(config: CpuConfig) -> Cpu {
        let word = config.word;
        let size = u64::from(config.memory.on_chip_bytes) + u64::from(config.memory.off_chip_bytes);
        let reserved = crate::memory::RESERVED_WORDS * word.bytes_per_word();
        assert!(
            size >= u64::from(reserved),
            "a {size}-byte memory cannot hold the reserved words: the minimum is {reserved} bytes"
        );
        let magic = Magic::new(word);
        let mut mem = Memory::new(word, config.memory);
        // Reserved channel words and timer queue heads start empty, untimed.
        for w in 0..crate::memory::RESERVED_WORDS {
            let addr = mem.reserved_addr(w);
            mem.poke_word(addr, magic.not_process)
                .expect("reserved words in range");
        }
        Cpu {
            word,
            magic,
            mem,
            wdesc: magic.not_process,
            iptr: 0,
            areg: 0,
            breg: 0,
            creg: 0,
            oreg: 0,
            op_len: 0,
            fptr: [magic.not_process; 2],
            bptr: [magic.not_process; 2],
            shadow: None,
            hi_ready_at: None,
            resume: None,
            clock_set_at: 0,
            clock_set_to: 0,
            link_out: Default::default(),
            link_in: Default::default(),
            event_waiting: None,
            event_pending: false,
            error: false,
            halt_on_error: false,
            halted: None,
            boot: boot::BootState::Done,
            trace: None,
            op_start: 0,
            pending_trace: None,
            last_op: None,
            cycles: 0,
            last_dispatch: 0,
            stats: Stats::default(),
            tcache: translate::TransCache::default(),
            translate_ok: config.translate && config.memory.off_chip_penalty == 0,
            // Leader heat is a saturating `u8`.
            translate_threshold: config.translate_threshold.clamp(1, 255),
            wake_at: [u64::MAX; 2],
            slice_exit: None,
            links_dirty: false,
            slice_mark: 0,
        }
    }

    /// The word length of this part.
    pub fn word_length(&self) -> WordLength {
        self.word
    }

    /// The memory (for loading programs and inspecting results).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// A register (top of the evaluation stack).
    pub fn areg(&self) -> u32 {
        self.areg
    }

    /// B register.
    pub fn breg(&self) -> u32 {
        self.breg
    }

    /// C register.
    pub fn creg(&self) -> u32 {
        self.creg
    }

    /// Operand register.
    pub fn oreg(&self) -> u32 {
        self.oreg
    }

    /// Instruction pointer of the current process.
    pub fn iptr(&self) -> u32 {
        self.iptr
    }

    /// Workspace pointer of the current process.
    pub fn wptr(&self) -> u32 {
        ProcDesc(self.wdesc).wptr()
    }

    /// Priority of the current process.
    pub fn priority(&self) -> Priority {
        ProcDesc(self.wdesc).priority()
    }

    /// Whether any process is currently executing.
    pub fn has_current_process(&self) -> bool {
        self.wdesc != self.magic.not_process
    }

    /// The error flag.
    pub fn error_flag(&self) -> bool {
        self.error
    }

    /// Elapsed processor cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Elapsed simulated time in nanoseconds.
    pub fn time_ns(&self) -> u64 {
        self.cycles * timing::CYCLE_NS
    }

    /// The clock of a priority (§2.2.2: "each timer being implemented as
    /// an incrementing clock").
    pub fn clock_value(&self, pri: Priority) -> u32 {
        at_width!(self.clock_now(pri))
    }

    /// Execution statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Why the processor halted, if it has.
    pub fn halt_reason(&self) -> Option<HaltReason> {
        self.halted
    }

    /// Record the most recent `capacity` operations for debugging.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(crate::trace::TraceRing::new(capacity));
    }

    /// The trace ring, if tracing is enabled.
    pub fn trace(&self) -> Option<&crate::trace::TraceRing> {
        self.trace.as_ref()
    }

    /// Load raw bytes into memory (no timing effects).
    ///
    /// # Errors
    ///
    /// Fails if the bytes do not fit in memory.
    pub fn load(&mut self, addr: u32, bytes: &[u8]) -> Result<(), CpuError> {
        self.mem
            .load(addr, bytes)
            .map_err(|_| CpuError::AddressOutOfRange { address: addr })
    }

    /// Load a program at the first user address and start a single
    /// low-priority process with its workspace at the top of memory.
    ///
    /// # Errors
    ///
    /// Fails if the program would reach the boot workspace's scheduling
    /// words (`w[-1]` to `w[-5]`), naming the room below them.
    pub fn load_boot_program(&mut self, code: &[u8]) -> Result<(), CpuError> {
        let entry = self.mem.mem_start();
        let wptr = self.default_boot_workspace();
        let offset = |addr: u32| self.word.mask(addr.wrapping_sub(self.mem.base())) as usize;
        let below = offset(workspace_word(self.word, wptr, -(PW_SLOTS as i32)));
        // None on a memory too small for the boot workspace, where the
        // scheduling words wrap past the end or sit below `entry`.
        let room = below
            .checked_sub(offset(entry))
            .filter(|_| below < self.mem.size() as usize);
        if room.is_none_or(|room| code.len() > room) {
            return Err(CpuError::ProgramTooLarge {
                program: code.len(),
                memory: room.unwrap_or(0),
            });
        }
        self.load(entry, code)?;
        self.spawn(wptr, entry, Priority::Low);
        Ok(())
    }

    /// The workspace address `load_boot_program` uses: 64 words below the
    /// top of memory, leaving headroom for locals above and call frames
    /// below.
    pub fn default_boot_workspace(&self) -> u32 {
        let top = self.mem.limit();
        self.word
            .align_word(top.wrapping_sub(64 * self.word.bytes_per_word()))
    }

    /// Create a process: store its instruction pointer in its workspace
    /// and put it on the scheduling list, untimed.
    pub fn spawn(&mut self, wptr: u32, iptr: u32, pri: Priority) {
        let w = workspace_word(self.word, wptr, PW_IPTR);
        self.mem.poke_word(w, iptr).expect("workspace in range");
        let now = self.cycles;
        at_width!(self.schedule(ProcDesc::new(wptr, pri), now));
    }

    /// Pulse the external event pin: completes a waiting `in` on the
    /// event channel, or latches for the next one.
    pub fn raise_event(&mut self) {
        if let Some(p) = self.event_waiting.take() {
            let now = self.cycles;
            at_width!(self.schedule(p, now));
        } else {
            self.event_pending = true;
        }
    }

    /// Read a word of memory without timing effects or mutation —
    /// usable from `&self` observers such as simulation predicates.
    ///
    /// # Errors
    ///
    /// Fails if the address is outside memory.
    pub fn inspect_word(&self, addr: u32) -> Result<u32, CpuError> {
        self.mem
            .peek_word(addr)
            .map_err(|_| CpuError::AddressOutOfRange { address: addr })
    }

    /// Write a word of memory without timing effects.
    ///
    /// # Errors
    ///
    /// Fails if the address is outside memory.
    pub fn poke_word(&mut self, addr: u32, value: u32) -> Result<(), CpuError> {
        self.mem
            .poke_word(addr, value)
            .map_err(|_| CpuError::AddressOutOfRange { address: addr })
    }

    /// Whether the processor has nothing to run right now.
    pub fn is_idle(&self) -> bool {
        self.halted.is_none()
            && !self.has_current_process()
            && self.fptr[0] == self.magic.not_process
            && self.fptr[1] == self.magic.not_process
            && self.shadow.is_none()
    }

    /// The absolute cycle at which the earliest timer-queue entry is due,
    /// if any. Used to fast-forward an idle processor.
    pub fn next_timer_wake_cycle(&mut self) -> Option<u64> {
        // Latch a timer head poked into place since the last advance.
        at_width!(self.refresh_timer_heads());
        let wake = self.wake_at[0].min(self.wake_at[1]);
        (wake != u64::MAX).then_some(wake)
    }

    /// Advance an idle processor's clock to an absolute cycle, waking any
    /// timer waits that come due. The gap may exceed `u32::MAX` cycles
    /// (e.g. a lone process sleeping for minutes of simulated time).
    pub fn advance_idle_to(&mut self, cycle: u64) {
        if cycle > self.cycles {
            at_width!(self.advance_time64(cycle - self.cycles));
        }
    }

    /// Execute one micro-step: a preemption, an instruction, or a chunk
    /// of an interruptible long instruction.
    pub fn step(&mut self) -> StepEvent {
        at_width!(self.step_at())
    }

    /// [`Cpu::step`] at word length `W`.
    fn step_at<W: Width>(&mut self) -> StepEvent {
        if let Some(r) = self.halted {
            return StepEvent::Halted(r);
        }
        self.slice_exit = None;
        let before = self.cycles;
        if !self.has_current_process() && !self.dispatch_next::<W>() {
            return StepEvent::Idle;
        }
        if self.has_current_process() {
            if self.priority() == Priority::Low && self.fptr[0] != self.magic.not_process {
                // Low→high preemption at a micro-step boundary (§3.2.4).
                self.preempt_to_high::<W>();
            } else if let Err(reason) = self.micro_step::<W>() {
                return StepEvent::Halted(reason);
            }
        }
        StepEvent::Ran {
            cycles: (self.cycles - before) as u32,
        }
    }

    /// One byte-path micro-step of the current process: a chunk of an
    /// interrupted long instruction, or one instruction byte, with its
    /// off-chip penalty, time advance and trace record. `Err` when the
    /// processor halted; the one place an accrued penalty is charged.
    fn micro_step<W: Width>(&mut self) -> Result<(), HaltReason> {
        let cycles = match self.resume {
            // An operation that went on as a continuation did not fall
            // through: what follows it is a block leader.
            Some(_) => {
                self.last_op = None;
                self.continue_resume::<W>()
            }
            None => self.exec_one::<W>(),
        };
        let c = cycles.inspect_err(|&reason| self.halted = Some(reason))?;
        let c = c + self.mem.take_penalty_cycles();
        self.advance_time::<W>(c);
        self.record_pending_trace();
        self.halted.map_or(Ok(()), Err)
    }

    /// Execute instructions inline until an interaction point is reached
    /// or `cycle_budget` cycles have elapsed. Instructions execute in the
    /// exact micro-step sequence [`Cpu::step`] would produce: an
    /// instruction runs iff it *starts* strictly before
    /// `cycles() + cycle_budget`, and at least one micro-step executes
    /// even with a zero budget (matching the event-driven engine's
    /// behaviour for nodes scheduled at identical times).
    ///
    /// On an interaction exit, [`Cpu::slice_interaction_cycle`] reports
    /// the cycle at which the interacting instruction *began* — the time
    /// the per-instruction engine would have observed the interaction.
    pub fn run_slice(&mut self, cycle_budget: u64) -> SliceOutcome {
        self.run_slice_fenced(u64::MAX, cycle_budget)
    }

    /// [`Cpu::run_slice`] with a second, nearer horizon for the
    /// instructions that act on a link: `in`, `out`, `outbyte`,
    /// `outword`, `enbc`, `disc` and `resetch` whose channel operand is
    /// one of the four link channels. Such an instruction executes only
    /// if its terminal byte starts strictly before
    /// `cycles() + fence_budget`, or is the first micro-step of the
    /// slice (the zero-budget tie rule of `run_slice`); otherwise the
    /// slice ends [`SliceOutcome::Fenced`] with the instruction not
    /// executed. Everything else runs to `cycle_budget` as in
    /// `run_slice`, which is this with no fence.
    ///
    /// A network simulation uses the fence for "no wire event can reach
    /// this node before here" and the budget for how far a processor
    /// that no wire event can disturb ([`Cpu::link_sensitive`] is false)
    /// may compute ahead of its wires.
    pub fn run_slice_fenced(&mut self, fence_budget: u64, cycle_budget: u64) -> SliceOutcome {
        at_width!(self.run_slice_at(fence_budget, cycle_budget))
    }

    /// [`Cpu::run_slice_fenced`] at word length `W`.
    fn run_slice_at<W: Width>(&mut self, fence_budget: u64, cycle_budget: u64) -> SliceOutcome {
        if let Some(r) = self.halted {
            return SliceOutcome::Halted(r);
        }
        let limit = self.cycles.saturating_add(cycle_budget);
        // Every micro-step costs at least one cycle, so "starts at the
        // entry cycle" is "is the first micro-step": folding the
        // exemption into the fence keeps the checks to one comparison.
        let fence = self.cycles.saturating_add(fence_budget.max(1));
        // The slice entry position is a block leader.
        self.last_op = None;
        loop {
            self.slice_mark = self.cycles;
            if !self.has_current_process() && !self.dispatch_next::<W>() {
                return SliceOutcome::Idle;
            }
            if self.priority() == Priority::Low && self.fptr[0] != self.magic.not_process {
                self.preempt_to_high::<W>();
                return SliceOutcome::Preempted;
            }
            // With the translation tier on and tracing off, run hot
            // translated blocks (`cpu/translate.rs`) at an operation
            // boundary; every operation outside a block runs on the byte
            // path below.
            if self.translate_ok
                && self.trace.is_none()
                && self.resume.is_none()
                && self.op_len == 0
            {
                match self.run_predecoded::<W>(limit, fence) {
                    TierExit::Outcome(outcome) => return outcome,
                    TierExit::Recheck => continue,
                    // Blocks may have run: the micro-step starts now.
                    TierExit::BytePath => self.slice_mark = self.cycles,
                }
            }
            // The byte path owns the fence: a block hands a link
            // instruction at or past it back here unexecuted.
            if self.cycles >= fence && self.resume.is_none() && self.at_link_instruction::<W>() {
                return SliceOutcome::Fenced;
            }
            if let Err(reason) = self.micro_step::<W>() {
                return SliceOutcome::Halted(reason);
            }
            if let Some(exit) = self.slice_exit.take() {
                return exit;
            }
            if self.cycles >= limit {
                return SliceOutcome::BudgetExpired;
            }
        }
    }

    /// Whether a wire event — or, on a routed network, a router call —
    /// arriving now could do more than lodge a byte in a link's one-byte
    /// buffer: an input transfer is waiting (the byte is stored and may
    /// complete the message), an ALT guard is enabled (the byte readies
    /// and may wake the alternative), an output transfer is active (an
    /// acknowledge advances it, the router drains it), or the boot logic
    /// is listening. While false, nothing outside can schedule a process
    /// or write state an instruction can read, until the processor's own
    /// next link instruction.
    pub fn link_sensitive(&self) -> bool {
        self.is_booting()
            || self.link_in.iter().any(|l| l.is_busy() || l.alt_enabled())
            || self.link_out.iter().any(LinkOut::is_busy)
    }

    /// The cycle at which the instruction that ended the last slice began
    /// executing. Only meaningful directly after [`Cpu::run_slice`]
    /// returned an interaction outcome.
    pub fn slice_interaction_cycle(&self) -> u64 {
        self.slice_mark
    }

    /// Take the dirty-link flag: whether any wire-visible link state
    /// (output transfer, deferred acknowledge, ALT guard on a link)
    /// changed since the flag was last taken. When false, a caller
    /// driving the links can skip scanning the four ports entirely.
    pub fn take_links_dirty(&mut self) -> bool {
        std::mem::take(&mut self.links_dirty)
    }

    /// Processor cycle time in nanoseconds: every part runs at the
    /// T424's nominal 20 MHz ([`timing::CYCLE_NS`]).
    pub fn cycle_time_ns(&self) -> u64 {
        timing::CYCLE_NS
    }

    fn record_pending_trace(&mut self) {
        if let Some((fun, operand)) = self.pending_trace.take() {
            if let Some(ring) = self.trace.as_mut() {
                let op = if fun == crate::instr::Direct::Operate {
                    crate::instr::Op::from_code(operand)
                } else {
                    None
                };
                ring.push(crate::trace::TraceEntry {
                    cycle: self.cycles,
                    iptr: self.op_start,
                    wdesc: self.wdesc,
                    fun,
                    operand,
                    op,
                    areg: self.areg,
                });
            }
        }
    }

    /// Run until the program halts, a deadlock is reached, or the cycle
    /// budget expires. Idle periods fast-forward to the next timer wake.
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::CycleBudgetExhausted`] if the budget runs out.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunOutcome, CpuError> {
        let limit = self.cycles.saturating_add(max_cycles);
        loop {
            if self.cycles >= limit {
                return Err(CpuError::CycleBudgetExhausted { budget: max_cycles });
            }
            match self.step() {
                StepEvent::Ran { .. } => {}
                StepEvent::Halted(r) => return Ok(RunOutcome::Halted(r)),
                StepEvent::Idle => match self.next_timer_wake_cycle() {
                    Some(c) => self.advance_idle_to(c.max(self.cycles + 1)),
                    None => return Ok(RunOutcome::Deadlock),
                },
            }
        }
    }

    /// [`Cpu::run`], but batched: executes via [`Cpu::run_slice`] instead
    /// of one [`Cpu::step`] per micro-step. For a standalone processor
    /// (no wires attached) link interaction points simply continue, and
    /// the instruction sequence — hence every cycle count and result —
    /// is identical to [`Cpu::run`].
    ///
    /// # Errors
    ///
    /// Returns [`CpuError::CycleBudgetExhausted`] if the budget runs out.
    pub fn run_batched(&mut self, max_cycles: u64) -> Result<RunOutcome, CpuError> {
        let limit = self.cycles.saturating_add(max_cycles);
        loop {
            if self.cycles >= limit {
                return Err(CpuError::CycleBudgetExhausted { budget: max_cycles });
            }
            match self.run_slice(limit - self.cycles) {
                SliceOutcome::Halted(r) => return Ok(RunOutcome::Halted(r)),
                SliceOutcome::Idle => match self.next_timer_wake_cycle() {
                    Some(c) => self.advance_idle_to(c.max(self.cycles + 1)),
                    None => return Ok(RunOutcome::Deadlock),
                },
                _ => {}
            }
        }
    }

    /// Run, treating anything other than a clean [`HaltReason::Stopped`]
    /// as a test failure. Convenience for tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics on deadlock or an error halt, which in tests indicates a
    /// codegen or emulator bug.
    pub fn run_to_halt(&mut self, max_cycles: u64) -> Result<(), CpuError> {
        match self.run(max_cycles)? {
            RunOutcome::Halted(HaltReason::Stopped) => Ok(()),
            other => panic!("program did not halt cleanly: {other:?}"),
        }
    }
}
