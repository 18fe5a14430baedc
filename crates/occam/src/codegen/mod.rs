//! Code generation: occam processes to I1 instruction sequences.
//!
//! The paper's design goals drive this module: "the occam compiler is
//! able to perform the allocation of space to concurrent processes"
//! (§3.2.4) — all workspace is laid out statically (no dynamic
//! allocation); code is position independent (§3.1); and the emitted
//! sequences for the paper's example fragments match the printed tables
//! (experiments E1–E4).
//!
//! ## Workspace discipline
//!
//! Every `PROC` body (and the main program) is a *frame*. Within a frame,
//! workspace offsets are assigned statically:
//!
//! ```text
//!   0 .. ra      outgoing-argument area; offset 0 doubles as the
//!                scratch word used by ALT selection and `outword`
//!   ra .. ra+4   expression spill temporaries
//!   ra+4 ..      declared variables, channels, replicator blocks
//! ```
//!
//! Call frames grow *downwards*: a call to `f` occupies
//! `4 + L(f) + D(f)` words below the caller's workspace pointer, where
//! `L` is `f`'s frame size and `D` its own downward requirement. `PAR`
//! lowers the workspace pointer by the statically computed size of its
//! branch workspaces (each branch gets scheduling slots, its own frame
//! area, and its own downward space).

mod expr;
mod gen;
mod measure;
mod usage;

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{ParamMode, Process};
use crate::emit::{Emitter, Label};
use crate::error::CompileError;
use transputer::word::WordLength;
use transputer::{Cpu, CpuError, Priority};

/// Compiler options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Emit word-length independent code (§3.3): byte counts for word
    /// transfers computed with `ldc 1; bcnt` instead of a constant. The
    /// same binary then runs identically on 16- and 32-bit parts.
    pub word_independent: bool,
    /// When not word-independent, the target word length.
    pub word_length: WordLength,
    /// Emit `csub0` range checks on vector subscripts.
    pub bounds_checks: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            word_independent: true,
            word_length: WordLength::Bits32,
            bounds_checks: false,
        }
    }
}

/// Number of expression spill temporaries reserved in every frame.
pub(crate) const TEMP_SLOTS: i32 = 4;

/// Scheduling slots every concurrent process needs below its workspace.
pub(crate) const SCHED_SLOTS: i64 = 5;

/// The most copies a replicated `PAR` makes, and the most channels a
/// channel vector declares: the code for each is written out one at a
/// time. No committed program declares more than 9 channels in one
/// vector.
pub(crate) const REPLICATION_LIMIT: i64 = 256;

/// A non-fatal finding produced during compilation (e.g. a `PRI PAR`
/// sharing a scalar between its components, which the historical
/// compilers permitted but which defeats the usage rule's guarantee).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warning {
    /// Source line (1-based).
    pub line: u32,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for Warning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "warning: line {}: {}", self.line, self.message)
    }
}

/// Compiler-recorded shape of one counted loop: a replicated `SEQ`
/// whose replication count is a compile-time constant. The static
/// cycle-cost model (`transputer-analysis`) consumes these to bound
/// block execution frequencies without running the dataflow through
/// the `lend` back edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopInfo {
    /// Byte offset of the first body instruction (the `lend` back-edge
    /// target).
    pub head: u32,
    /// Byte offset just past the `lend` — where the zero-trip guard
    /// jumps and where the final iteration falls out.
    pub end: u32,
    /// Compile-time replication count; the body runs exactly this many
    /// times per entry (0 when the count is not positive).
    pub count: u32,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Position-independent code. Load anywhere; enter at byte 0.
    pub code: Vec<u8>,
    /// Frame words needed at and above the initial workspace pointer.
    pub locals: u32,
    /// Words needed below the initial workspace pointer (call frames,
    /// `PAR` regions, scheduling slots).
    pub depth: u32,
    /// Offsets (in words, relative to the initial workspace pointer) of
    /// the top-level variables, for result inspection by harnesses.
    pub globals: HashMap<String, i32>,
    /// Non-fatal findings collected during compilation.
    pub warnings: Vec<Warning>,
    /// Counted loops (replicated `SEQ`s with constant counts), sorted by
    /// head offset, for the static cycle-cost model.
    pub loops: Vec<LoopInfo>,
}

impl Program {
    /// Word offset of a top-level variable.
    pub fn global_offset(&self, name: &str) -> Option<i32> {
        self.globals.get(name).copied()
    }

    /// Load the program into a CPU at its first user address, place the
    /// workspace below the top of memory, and schedule it at low
    /// priority. Returns the initial workspace pointer.
    ///
    /// # Errors
    ///
    /// Fails if the code plus workspace does not fit in memory.
    pub fn load(&self, cpu: &mut Cpu) -> Result<u32, CpuError> {
        self.load_at_priority(cpu, Priority::Low)
    }

    /// As [`Program::load`] with an explicit priority.
    ///
    /// # Errors
    ///
    /// Fails if the code plus workspace does not fit in memory.
    pub fn load_at_priority(&self, cpu: &mut Cpu, pri: Priority) -> Result<u32, CpuError> {
        let entry = cpu.memory().mem_start();
        let bpw = cpu.word_length().bytes_per_word();
        // Sized in `u64` before any address is formed: 32-bit address
        // arithmetic would wrap a frame larger than memory back into
        // range. Code at `entry`, the frame (with its two words of
        // headroom) at the top, and at least a byte between them.
        let frame = (u64::from(self.locals) + 2 + u64::from(self.depth)) * u64::from(bpw);
        let program = self.code.len() as u64 + frame;
        let reserved = entry.wrapping_sub(cpu.memory().base());
        let room = (cpu.memory().size() & !(bpw - 1)).saturating_sub(reserved);
        if program >= u64::from(room) {
            return Err(CpuError::ProgramTooLarge {
                program: usize::try_from(program).unwrap_or(usize::MAX),
                memory: cpu.memory().size() as usize,
            });
        }
        let limit = cpu.memory().limit();
        let wptr = cpu
            .word_length()
            .align_word(limit.wrapping_sub((self.locals + 2) * bpw));
        cpu.load(entry, &self.code)?;
        cpu.spawn(wptr, entry, pri);
        Ok(wptr)
    }

    /// Read a top-level variable after a run.
    ///
    /// # Errors
    ///
    /// Fails if the name is unknown or the address is out of range.
    pub fn read_global(&self, cpu: &mut Cpu, wptr: u32, name: &str) -> Result<u32, CpuError> {
        let off = self
            .global_offset(name)
            .ok_or(CpuError::AddressOutOfRange { address: 0 })?;
        let bpw = cpu.word_length().bytes_per_word();
        cpu.peek_word(wptr.wrapping_add((off as u32).wrapping_mul(bpw)))
    }

    /// Absolute address of a top-level variable (element 0 for vectors).
    pub fn global_addr(&self, word: WordLength, wptr: u32, name: &str) -> Option<u32> {
        let off = self.global_offset(name)?;
        Some(word.index_word(wptr, off as u32))
    }
}

/// A formal parameter's shape, as calls need it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Formal {
    pub mode: ParamMode,
    pub is_vector: bool,
}

/// Information about a compiled `PROC`.
#[derive(Debug)]
pub(crate) struct ProcInfo {
    pub label: Label,
    pub params: Vec<Formal>,
    /// Frame size (words at and above its adjusted workspace pointer).
    pub frame_locals: i64,
    /// Downward requirement of the body.
    pub down: i64,
    /// Lexical level of the body (declaring frame's level + 1).
    pub level: usize,
    /// Whether an implicit static-link argument is appended (all
    /// non-top-level procs, supporting the paper's `staticlink` scheme).
    pub static_link: bool,
}

impl ProcInfo {
    /// Total number of actuals at a call site.
    pub fn total_args(&self) -> usize {
        self.params.len() + usize::from(self.static_link)
    }

    /// Words a call occupies below the caller's workspace pointer.
    pub fn call_depth(&self) -> i64 {
        4 + self.frame_locals + self.down
    }

    /// Frame-base-relative offset of parameter `i`.
    pub fn param_offset(&self, i: usize) -> i64 {
        if i < 3 {
            self.frame_locals + 1 + i as i64
        } else {
            self.frame_locals + 4 + (i as i64 - 3)
        }
    }
}

/// What a name denotes.
#[derive(Debug, Clone)]
pub(crate) enum Binding {
    /// A scalar variable in some frame.
    Var(Slot),
    /// A vector of `len` words.
    Vec(Slot, i64),
    /// A channel word.
    Chan(Slot),
    /// A vector of channel words.
    ChanVec(Slot, i64),
    /// A channel placed on a reserved word (link interface).
    PlacedChan(i64),
    /// A compile-time constant.
    Const(i64),
    /// A `VALUE` parameter (a word in the parameter area).
    ValueParam(Slot),
    /// A `VAR` parameter (the word holds the variable's address).
    VarParam(Slot),
    /// A vector parameter (the word holds the vector's base address);
    /// the flag records whether it may be written (`VAR v[]`).
    VecParam(Slot, bool),
    /// A `CHAN` parameter (the word holds the channel's address).
    ChanParam(Slot),
    /// A channel-vector parameter (the word holds the base address of
    /// the channel words).
    ChanVecParam(Slot),
    /// A named process.
    Proc(Rc<ProcInfo>),
}

/// A storage slot: frame level, context-relative offset, and the
/// workspace adjustment in force where it was bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    pub level: usize,
    /// Offset relative to the workspace pointer of the binding context.
    pub offset: i64,
    /// Workspace displacement (below frame base) of the binding context.
    pub adjust: i64,
}

/// An allocation context: a `PROC` frame or a `PAR` branch frame.
#[derive(Debug)]
pub(crate) struct Context {
    /// Lexical level (shared by branch contexts of the same frame).
    pub level: usize,
    /// True for `PROC`/main frames; false for `PAR` branch contexts.
    pub is_frame_root: bool,
    /// Current workspace displacement below the frame base.
    pub adjust: i64,
    /// Next free scalar word (starts above args + temps).
    pub alloc: i64,
    /// High-water mark of `alloc`.
    pub high: i64,
    /// Next free vector word (the vector zone sits above the scalar
    /// zone so scalars keep single-byte offsets, §3.2.6).
    pub vec_alloc: i64,
    /// High-water mark of `vec_alloc`.
    pub vec_high: i64,
    /// Start of the temp region (= reserved argument words).
    pub temps_base: i64,
    /// Temps currently in use.
    pub temps_used: i64,
    /// Static link parameter offset (frame-base relative), if any.
    pub static_link_offset: Option<i64>,
}

impl Context {
    /// Allocate `n` contiguous scalar words; returns the first offset.
    pub fn alloc_words(&mut self, n: i64) -> i64 {
        let at = self.alloc;
        self.alloc += n;
        self.high = self.high.max(self.alloc);
        at
    }

    /// Allocate `n` contiguous vector words; returns the first offset.
    pub fn alloc_vector(&mut self, n: i64) -> i64 {
        let at = self.vec_alloc;
        self.vec_alloc += n;
        self.vec_high = self.vec_high.max(self.vec_alloc);
        at
    }
}

/// The code generator.
pub(crate) struct Cg<'a> {
    pub emit: Emitter,
    /// Every name in scope, innermost last: a lookup searches from the
    /// top, so a binding shadows any earlier one of the same name.
    bindings: Vec<(&'a str, Binding)>,
    /// Where each open scope's bindings begin.
    scopes: Vec<usize>,
    pub contexts: Vec<Context>,
    pub options: Options,
    pub globals: HashMap<String, i32>,
    pub warnings: Vec<Warning>,
    /// Counted loops awaiting label resolution: (head, end, count).
    pub counted_loops: Vec<(Label, Label, u32)>,
}

impl<'a> Cg<'a> {
    pub fn new(options: Options) -> Cg<'a> {
        Cg {
            emit: Emitter::new(),
            bindings: Vec::new(),
            scopes: Vec::new(),
            contexts: Vec::new(),
            options,
            globals: HashMap::new(),
            warnings: Vec::new(),
            counted_loops: Vec::new(),
        }
    }

    pub fn lookup(&self, name: &str) -> Option<&Binding> {
        let found = self.bindings.iter().rev().find(|(n, _)| *n == name);
        found.map(|(_, b)| b)
    }

    /// Bind `name` in the innermost open scope.
    pub fn bind(&mut self, name: &'a str, b: Binding) {
        // Record top-level variables for harness inspection.
        if let Binding::Var(slot) | Binding::Vec(slot, _) = &b {
            if slot.level == 0 && slot.adjust == 0 && !self.globals.contains_key(name) {
                self.globals.insert(name.to_string(), slot.offset as i32);
            }
        }
        self.bindings.push((name, b));
    }

    /// Open a scope: what is bound until the matching
    /// [`Cg::close_scope`] is visible only inside it.
    pub fn open_scope(&mut self) {
        self.scopes.push(self.bindings.len());
    }

    pub fn close_scope(&mut self) {
        let start = self.scopes.pop().expect("a scope is open");
        self.bindings.truncate(start);
    }

    pub fn ctx(&mut self) -> &mut Context {
        self.contexts.last_mut().expect("inside a context")
    }

    pub fn ctx_ref(&self) -> &Context {
        self.contexts.last().expect("inside a context")
    }

    /// The current lexical level.
    pub fn level(&self) -> usize {
        self.ctx_ref().level
    }

    /// Bytes per word for emitted counts (`in`/`out` lengths).
    pub fn bytes_per_word(&self) -> i64 {
        i64::from(self.options.word_length.bytes_per_word())
    }
}

/// Compile a parsed process into a program.
///
/// # Errors
///
/// Returns the first semantic or code-generation error.
pub fn compile_process(program: &Process, options: Options) -> Result<Program, CompileError> {
    let mut cg = Cg::new(options);
    // Measure the main frame.
    let fm = cg.measure_frame(program, false)?;
    let scalar_base = fm.reserved_args + TEMP_SLOTS as i64;
    cg.contexts.push(Context {
        level: 0,
        is_frame_root: true,
        adjust: 0,
        alloc: scalar_base,
        high: scalar_base,
        vec_alloc: fm.vector_base(),
        vec_high: fm.vector_base(),
        temps_base: fm.reserved_args,
        temps_used: 0,
        static_link_offset: None,
    });
    cg.gen_process(program)?;
    cg.emit.op(transputer::instr::Op::HaltSimulation);
    debug_assert!(
        cg.ctx_ref().high <= fm.vector_base() && cg.ctx_ref().vec_high <= fm.locals_total(),
        "codegen allocation exceeded measurement"
    );
    let counted_loops = std::mem::take(&mut cg.counted_loops);
    let (code, labels) = cg.emit.assemble_with_labels();
    let mut loops: Vec<LoopInfo> = counted_loops
        .into_iter()
        .map(|(head, end, count)| LoopInfo {
            head: labels[head.index()] as u32,
            end: labels[end.index()] as u32,
            count,
        })
        .collect();
    loops.sort_by_key(|l| (l.head, l.end));
    // `measure_frame` refused a frame beyond the address space.
    let words = |n: i64| u32::try_from(n).expect("a measured frame fits the address space");
    Ok(Program {
        code,
        locals: words(fm.locals_total()),
        depth: words(fm.down),
        globals: cg.globals,
        warnings: cg.warnings,
        loops,
    })
}
