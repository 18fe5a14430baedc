//! The I1 instruction set (§3.2.5–§3.2.9), written down once.
//!
//! Every instruction is a single byte: a 4-bit *function* code and a 4-bit
//! *data* value (Figure 4 of the paper). Thirteen function codes encode
//! the *direct functions*; `prefix` and `negative prefix` extend operands
//! to any length; `operate` treats its operand as an *indirect function*
//! applied to the evaluation stack (§3.2.8).
//!
//! Each direct function and each operation is one row of the two tables
//! below: its code, conventional mnemonic, full published name, stack
//! effect and fixed cycle cost. The paper notes that "it is not common
//! practice to abbreviate the names of the instructions"; the rows
//! therefore carry both the full names ("load constant") and the short
//! mnemonics ("ldc") used by later INMOS tooling. [`Direct`], [`Op`],
//! their `ALL` lists and every lookup — `from_code`, `mnemonic`,
//! `full_name`, `stack_effect` and the cycle costs — are `match`es
//! generated from the rows, so a fact stated once cannot disagree with
//! itself. A cost the paper gives as a formula (multiply, shifts,
//! communication, `lend`, ...) is `*` in its row and lives in
//! [`crate::timing`].

use std::fmt;

/// Expands one instruction table into its enum and lookups. A row is
/// `Variant = code, "mnemonic", "full name", (pops, pushes), cycles;`.
/// The stack effect is `-` for the prefixes and `operate`, which are not
/// complete instructions; the cycles are `*` where the cost is a formula
/// of [`crate::timing`]. The kind (`direct` or `operation`) picks the
/// lookups that differ between the two tables.
macro_rules! isa_table {
    (
        $(#[$meta:meta])*
        pub enum $Enum:ident: $repr:ident as $kind:ident;
        $(
            $(#[$row_meta:meta])*
            $Variant:ident = $code:literal, $mn:literal, $full:literal, $effect:tt, $cycles:tt;
        )*
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr($repr)]
        pub enum $Enum {
            $(
                #[doc = concat!("`", $mn, "` — ", $full, ".")]
                $(#[$row_meta])*
                $Variant = $code,
            )*
        }

        impl $Enum {
            /// Every row, in encoding order.
            pub const ALL: [$Enum; [$($code),*].len()] = [$($Enum::$Variant),*];

            /// Conventional short mnemonic.
            pub fn mnemonic(self) -> &'static str {
                match self { $($Enum::$Variant => $mn,)* }
            }

            /// The full published name, as the paper writes instruction
            /// sequences.
            pub fn full_name(self) -> &'static str {
                match self { $($Enum::$Variant => $full,)* }
            }
        }

        impl fmt::Display for $Enum {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.mnemonic())
            }
        }

        isa_table!(@$kind $($Variant = $code, $effect, $cycles;)*);
    };

    (@direct $($Variant:ident = $code:literal, $effect:tt, $cycles:literal;)*) => {
        impl Direct {
            /// Decode the high nibble of an instruction byte.
            #[inline]
            pub fn from_nibble(n: u8) -> Direct {
                Direct::ALL[(n & 0xF) as usize]
            }

            /// The encoding nibble.
            #[inline]
            pub fn nibble(self) -> u8 {
                self as u8
            }

            /// Stack effect of a direct function, or `None` for the
            /// prefixes (`pfix`/`nfix` build operands, they are not
            /// complete instructions) and for `operate` (whose effect is
            /// the selected operation's, see [`Op::stack_effect`]).
            ///
            /// Two entries need care when consumed by a verifier:
            ///
            /// * `call` saves A, B and C into the new frame whether or not
            ///   they hold live values — its three pops are *non-strict*
            ///   (the occam compiler calls with 0–3 loaded arguments).
            /// * `cj` pops the condition only on the fall-through path; on
            ///   the taken path A (known zero) is preserved.
            pub fn stack_effect(self) -> Option<StackEffect> {
                match self { $(Direct::$Variant => isa_table!(@effect $effect),)* }
            }

            /// Cycles (§3.2.6 table). `cj` costs this when it falls
            /// through and [`crate::timing::CONDITIONAL_JUMP_TAKEN`] when
            /// it jumps; `operate` costs nothing of its own, its
            /// operation's cost is [`Op::fixed_cycles`] or a formula.
            pub fn cycles(self) -> u32 {
                match self { $(Direct::$Variant => $cycles,)* }
            }
        }
    };

    (@operation
        $($Variant:ident = $code:literal, ($pops:literal, $pushes:literal), $cycles:tt;)*
    ) => {
        impl Op {
            /// Decode an operation code, if defined.
            #[inline]
            pub fn from_code(code: u32) -> Option<Op> {
                match code {
                    $($code => Some(Op::$Variant),)*
                    _ => None,
                }
            }

            /// The operation code used as the operand of `operate`.
            #[inline]
            pub fn code(self) -> u32 {
                self as u32
            }

            /// Stack effect of an indirect function, mirroring the
            /// execution semantics in `cpu/exec.rs` and `cpu/io.rs`.
            ///
            /// Operations with data-dependent result counts are tabulated
            /// with their normal-path effect (`ldiv` pushes quotient and
            /// remainder; its error path pushes a single zero).
            pub fn stack_effect(self) -> StackEffect {
                match self { $(Op::$Variant => StackEffect::new($pops, $pushes),)* }
            }

            /// Cycles of an operation with a fixed cost; `None` for the
            /// variable-cost ones (multiply, shifts, communication, block
            /// moves, timer waits), which [`crate::timing`]'s formulas
            /// price at execution.
            pub fn fixed_cycles(self) -> Option<u32> {
                match self { $(Op::$Variant => isa_table!(@cycles $cycles),)* }
            }
        }
    };

    (@effect -) => { None };
    (@effect ($pops:literal, $pushes:literal)) => { Some(StackEffect::new($pops, $pushes)) };
    (@cycles *) => { None };
    (@cycles $cycles:literal) => { Some($cycles) };
}

isa_table! {
    /// The sixteen primary function codes (§3.2.5, Figure 4).
    pub enum Direct: u8 as direct;
    // variant            code mnemonic full name                 effect  cycles
    /// A descheduling (timeslice) point.
    Jump                = 0x0, "j",     "jump",                   (0, 0), 3;
    LoadLocalPointer    = 0x1, "ldlp",  "load local pointer",     (0, 1), 1;
    /// Shifts Oreg up a nibble (§3.2.7): one byte, one cycle.
    Prefix              = 0x2, "pfix",  "prefix",                 -,      1;
    LoadNonLocal        = 0x3, "ldnl",  "load non local",         (1, 1), 2;
    LoadConstant        = 0x4, "ldc",   "load constant",          (0, 1), 1;
    LoadNonLocalPointer = 0x5, "ldnlp", "load non local pointer", (1, 1), 1;
    /// Complements Oreg, then shifts it up a nibble (§3.2.7).
    NegativePrefix      = 0x6, "nfix",  "negative prefix",        -,      1;
    LoadLocal           = 0x7, "ldl",   "load local",             (0, 1), 2;
    /// Checked: sets the error flag on overflow.
    AddConstant         = 0x8, "adc",   "add constant",           (1, 1), 1;
    /// Saves Iptr, A, B and C in a new four-word frame.
    Call                = 0x9, "call",  "call",                   (3, 1), 7;
    /// Jumps when A is zero.
    ConditionalJump     = 0xA, "cj",    "conditional jump",       (1, 0), 2;
    AdjustWorkspace     = 0xB, "ajw",   "adjust workspace",       (0, 0), 1;
    EqualsConstant      = 0xC, "eqc",   "equals constant",        (1, 1), 2;
    StoreLocal          = 0xD, "stl",   "store local",            (1, 0), 1;
    StoreNonLocal       = 0xE, "stnl",  "store non local",        (2, 0), 2;
    /// The operand selects an indirect function, an [`Op`].
    Operate             = 0xF, "opr",   "operate",                -,      0;
}

isa_table! {
    /// The indirect functions reached through `operate` (§3.2.8).
    ///
    /// The encoding follows the first-generation (T414-era) operation
    /// codes. Operations with codes 0x0–0xF are reached with a single
    /// `opr` byte; higher codes require one prefix byte, exactly as the
    /// paper describes ("the most frequently occurring operations are
    /// represented without the use of a prefixing instruction").
    pub enum Op: u16 as operation;
    // variant                 code  mnemonic      full name                             effect  cycles
    Reverse                  = 0x00, "rev",        "reverse",                            (2, 2), 1;
    LoadByte                 = 0x01, "lb",         "load byte",                          (1, 1), 5;
    ByteSubscript            = 0x02, "bsub",       "byte subscript",                     (2, 1), 1;
    EndProcess               = 0x03, "endp",       "end process",                        (1, 0), 13;
    Difference               = 0x04, "diff",       "difference",                         (2, 1), 1;
    Add                      = 0x05, "add",        "add",                                (2, 1), 1;
    GeneralCall              = 0x06, "gcall",      "general call",                       (1, 1), 4;
    InputMessage             = 0x07, "in",         "input message",                      (3, 0), *;
    /// Quick unchecked multiply; time proportional to the logarithm of
    /// the second operand (§3.2.9).
    Product                  = 0x08, "prod",       "product",                            (2, 1), *;
    GreaterThan              = 0x09, "gt",         "greater than",                       (2, 1), 2;
    WordSubscript            = 0x0A, "wsub",       "word subscript",                     (2, 1), 2;
    OutputMessage            = 0x0B, "out",        "output message",                     (3, 0), *;
    Subtract                 = 0x0C, "sub",        "subtract",                           (2, 1), 1;
    StartProcess             = 0x0D, "startp",     "start process",                      (2, 0), 12;
    // outbyte/outword pop channel and value, spill the value to w[0] and
    // run the general output on a rebuilt stack: two operands consumed.
    OutputByte               = 0x0E, "outbyte",    "output byte",                        (2, 0), *;
    OutputWord               = 0x0F, "outword",    "output word",                        (2, 0), *;
    SetError                 = 0x10, "seterr",     "set error",                          (0, 0), 1;
    ResetChannel             = 0x12, "resetch",    "reset channel",                      (1, 1), 3;
    CheckSubscriptFromZero   = 0x13, "csub0",      "check subscript from 0",             (2, 1), 2;
    StopProcess              = 0x15, "stopp",      "stop process",                       (0, 0), 11;
    LongAdd                  = 0x16, "ladd",       "long add",                           (3, 1), 2;
    StoreLowBack             = 0x17, "stlb",       "store low priority back pointer",    (1, 0), 1;
    StoreHighFront           = 0x18, "sthf",       "store high priority front pointer",  (1, 0), 1;
    Normalise                = 0x19, "norm",       "normalise",                          (2, 3), *;
    LongDivide               = 0x1A, "ldiv",       "long divide",                        (3, 2), *;
    LoadPointerToInstruction = 0x1B, "ldpi",       "load pointer to instruction",        (1, 1), 2;
    StoreLowFront            = 0x1C, "stlf",       "store low priority front pointer",   (1, 0), 1;
    ExtendToDouble           = 0x1D, "xdble",      "extend to double",                   (1, 2), 2;
    LoadPriority             = 0x1E, "ldpri",      "load current priority",              (0, 1), 1;
    Remainder                = 0x1F, "rem",        "remainder",                          (2, 1), *;
    Return                   = 0x20, "ret",        "return",                             (0, 0), 5;
    LoopEnd                  = 0x21, "lend",       "loop end",                           (2, 0), *;
    LoadTimer                = 0x22, "ldtimer",    "load timer",                         (0, 1), 2;
    TestError                = 0x29, "testerr",    "test error false and clear",         (0, 1), 2;
    /// Modelled as pushing false: the processor is never analysed.
    TestProcessorAnalysing   = 0x2A, "testpranal", "test processor analysing",           (0, 1), 2;
    TimerInput               = 0x2B, "tin",        "timer input",                        (1, 0), *;
    Divide                   = 0x2C, "div",        "divide",                             (2, 1), *;
    DisableTimer             = 0x2E, "dist",       "disable timer",                      (3, 1), 8;
    DisableChannel           = 0x2F, "disc",       "disable channel",                    (3, 1), 8;
    DisableSkip              = 0x30, "diss",       "disable skip",                       (2, 1), 4;
    LongMultiply             = 0x31, "lmul",       "long multiply",                      (3, 2), *;
    Not                      = 0x32, "not",        "bitwise not",                        (1, 1), 1;
    ExclusiveOr              = 0x33, "xor",        "exclusive or",                       (2, 1), 1;
    ByteCount                = 0x34, "bcnt",       "byte count",                         (1, 1), 2;
    LongShiftRight           = 0x35, "lshr",       "long shift right",                   (3, 2), *;
    LongShiftLeft            = 0x36, "lshl",       "long shift left",                    (3, 2), *;
    LongSum                  = 0x37, "lsum",       "long sum",                           (3, 2), 3;
    LongSubtract             = 0x38, "lsub",       "long subtract",                      (3, 1), 2;
    RunProcess               = 0x39, "runp",       "run process",                        (1, 0), 10;
    ExtendWord               = 0x3A, "xword",      "extend to word",                     (2, 1), 4;
    StoreByte                = 0x3B, "sb",         "store byte",                         (2, 0), 4;
    GeneralAdjustWorkspace   = 0x3C, "gajw",       "general adjust workspace",           (1, 1), 2;
    SaveLow                  = 0x3D, "savel",      "save low priority queue registers",  (1, 0), 4;
    SaveHigh                 = 0x3E, "saveh",      "save high priority queue registers", (1, 0), 4;
    WordCount                = 0x3F, "wcnt",       "word count",                         (1, 2), 5;
    ShiftRight               = 0x40, "shr",        "shift right",                        (2, 1), *;
    ShiftLeft                = 0x41, "shl",        "shift left",                         (2, 1), *;
    MinimumInteger           = 0x42, "mint",       "minimum integer",                    (0, 1), 1;
    Alt                      = 0x43, "alt",        "alt start",                          (0, 0), 2;
    AltWait                  = 0x44, "altwt",      "alt wait",                           (0, 0), *;
    AltEnd                   = 0x45, "altend",     "alt end",                            (0, 0), 4;
    And                      = 0x46, "and",        "and",                                (2, 1), 1;
    EnableTimer              = 0x47, "enbt",       "enable timer",                       (2, 1), 8;
    EnableChannel            = 0x48, "enbc",       "enable channel",                     (2, 1), 7;
    // enbs tests the guard in A without popping it.
    EnableSkip               = 0x49, "enbs",       "enable skip",                        (1, 1), 3;
    Move                     = 0x4A, "move",       "move message",                       (3, 0), *;
    Or                       = 0x4B, "or",         "or",                                 (2, 1), 1;
    CheckSingle              = 0x4C, "csngl",      "check single",                       (2, 1), 3;
    CheckCountFromOne        = 0x4D, "ccnt1",      "check count from 1",                 (2, 1), 3;
    TimerAlt                 = 0x4E, "talt",       "timer alt start",                    (0, 0), 4;
    LongDiff                 = 0x4F, "ldiff",      "long diff",                          (3, 2), 3;
    StoreHighBack            = 0x50, "sthb",       "store high priority back pointer",   (1, 0), 1;
    TimerAltWait             = 0x51, "taltwt",     "timer alt wait",                     (0, 0), *;
    Sum                      = 0x52, "sum",        "sum",                                (2, 1), 1;
    /// Checked; 7 + wordlength cycles with its prefix (§3.2.9 table).
    Multiply                 = 0x53, "mul",        "multiply",                           (2, 1), *;
    StoreTimer               = 0x54, "sttimer",    "store timer",                        (1, 0), 1;
    StopOnError              = 0x55, "stoperr",    "stop on error",                      (0, 0), 2;
    CheckWord                = 0x56, "cword",      "check word",                         (2, 1), 5;
    ClearHaltOnError         = 0x57, "clrhalterr", "clear halt-on-error",                (0, 0), 1;
    SetHaltOnError           = 0x58, "sethalterr", "set halt-on-error",                  (0, 0), 1;
    TestHaltOnError          = 0x59, "testhalterr", "test halt-on-error",                 (0, 1), 2;
    /// Emulator extension: cleanly stop the simulation run. Encoded far
    /// outside the architectural operation space; hosted test programs
    /// use it the way boot ROMs used an external reset.
    HaltSimulation           = 0x17F, "haltsim",    "halt simulation",                    (0, 0), 1;
}

/// Net evaluation-stack effect of one instruction (§3.2.9).
///
/// The transputer's evaluation stack is the three registers A, B, C:
/// pushing at depth three silently discards C, popping at depth zero
/// reads junk. The effect table makes that discipline checkable by
/// tools (the `transputer-analysis` bytecode verifier): `pops` operands
/// are consumed from the top of the stack, then `pushes` results are
/// left on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackEffect {
    /// Operands taken from the A/B/C stack.
    pub pops: u8,
    /// Results left on the stack.
    pub pushes: u8,
}

impl StackEffect {
    /// An effect consuming `pops` operands and producing `pushes`.
    pub const fn new(pops: u8, pushes: u8) -> StackEffect {
        StackEffect { pops, pushes }
    }
}

/// Encode an instruction (direct function plus arbitrary-width operand)
/// into the byte sequence the paper's prefixing scheme produces (§3.2.7).
///
/// Operands in [0, 16) take one byte; wider or negative operands are built
/// with `prefix` / `negative prefix` bytes.
///
/// # Examples
///
/// ```
/// use transputer::instr::{encode, Direct};
///
/// // The paper's example: loading #754 takes prefix #7, prefix #5,
/// // load constant #4.
/// assert_eq!(encode(Direct::LoadConstant, 0x754), vec![0x27, 0x25, 0x44]);
/// assert_eq!(encode(Direct::LoadConstant, 0), vec![0x40]);
/// ```
pub fn encode(fun: Direct, operand: i64) -> Vec<u8> {
    let mut out = Vec::with_capacity(2);
    encode_into(fun, operand, &mut out);
    out
}

/// Append the encoding of one instruction to `out`; returns byte count.
pub fn encode_into(fun: Direct, operand: i64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    // The standard recursive prefixing scheme (§3.2.7): values outside
    // [0, 16) first emit a prefix (or negative prefix) instruction whose
    // own operand is encoded the same way.
    fn emit(nibble: u8, operand: i64, out: &mut Vec<u8>) {
        if (0..16).contains(&operand) {
            out.push((nibble << 4) | (operand as u8));
        } else if operand >= 16 {
            emit(Direct::Prefix.nibble(), operand >> 4, out);
            out.push((nibble << 4) | ((operand & 0xF) as u8));
        } else {
            emit(Direct::NegativePrefix.nibble(), (!operand) >> 4, out);
            out.push((nibble << 4) | ((operand & 0xF) as u8));
        }
    }
    emit(fun.nibble(), operand, out);
    out.len() - start
}

/// The number of bytes `encode` produces for this operand: one nibble a
/// byte, counted the way [`encode_into`] recurses.
pub fn encoded_len(operand: i64) -> usize {
    let mut rest = operand;
    let mut len = 1;
    while !(0..16).contains(&rest) {
        rest = if rest >= 16 { rest >> 4 } else { !rest >> 4 };
        len += 1;
    }
    len
}

/// Encode an indirect function: zero or more prefixes then `operate`.
pub fn encode_op(op: Op) -> Vec<u8> {
    encode(Direct::Operate, op.code() as i64)
}

/// One instruction of a code image with its `pfix`/`nfix` chain folded
/// into the function it extends, as the static tools read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Byte offset of the first (prefix) byte.
    pub offset: usize,
    /// Total encoded length, prefix chain included.
    pub len: usize,
    /// The final function.
    pub fun: Direct,
    /// The operand a 32-bit Oreg assembles, sign-extended.
    pub operand: i64,
    /// For `operate`: the operation, if its code is defined.
    pub op: Option<Op>,
}

impl Insn {
    /// Offset just past the last byte (the base of relative operands).
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// Display name (`ldc`, `lend`, ...; `opr` for an undefined
    /// operation).
    pub fn mnemonic(&self) -> &'static str {
        match (self.fun, self.op) {
            (Direct::Operate, Some(op)) => op.mnemonic(),
            (fun, _) => fun.mnemonic(),
        }
    }

    /// The instruction with its full published name (`load constant 5`,
    /// `multiply`, `operate #11`); `Display` writes it with mnemonics.
    pub fn full_name(&self) -> String {
        let mut text = String::new();
        self.write(&mut text, true)
            .expect("a String takes any text");
        text
    }

    /// Name and operand, the operand decimal within a byte's reach and
    /// hex beyond it (addresses and magic values read better so).
    fn write(&self, f: &mut impl fmt::Write, full: bool) -> fmt::Result {
        let (fun, opr) = if full {
            (self.fun.full_name(), "operate")
        } else {
            (self.fun.mnemonic(), "opr")
        };
        match (self.op, self.operand) {
            (Some(op), _) if full => f.write_str(op.full_name()),
            (Some(op), _) => f.write_str(op.mnemonic()),
            (None, v) if self.fun == Direct::Operate => write!(f, "{opr} #{:X}", v as u32),
            (None, v) if (-255..=255).contains(&v) => write!(f, "{fun} {v}"),
            (None, v) if v < 0 => write!(f, "{fun} -#{:X}", v.unsigned_abs()),
            (None, v) => write!(f, "{fun} #{v:X}"),
        }
    }
}

/// `ldc 5`, `j -3`, `ldc #754`, `mul`; `opr #11` for an undefined
/// operation — the listing form the assembler reads back.
impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, false)
    }
}

/// Split a code image into instructions, folding each prefix chain into
/// a 32-bit Oreg as the T424 does (§3.2.7): bits shifted past the top
/// are lost, so a redundant chain decodes to the operation the
/// processor executes. Stops before a chain the image ends inside.
pub fn decode(code: &[u8]) -> impl Iterator<Item = Insn> + '_ {
    let mut offset = 0;
    std::iter::from_fn(move || {
        let mut oreg: u32 = 0;
        for (i, &byte) in code.get(offset..)?.iter().enumerate() {
            let data = u32::from(byte & 0xF);
            match Direct::from_nibble(byte >> 4) {
                Direct::Prefix => oreg = (oreg | data) << 4,
                Direct::NegativePrefix => oreg = !(oreg | data) << 4,
                fun => {
                    let operand = oreg | data;
                    let insn = Insn {
                        offset,
                        len: i + 1,
                        fun,
                        operand: i64::from(operand as i32),
                        op: match fun {
                            Direct::Operate => Op::from_code(operand),
                            _ => None,
                        },
                    };
                    offset = insn.end();
                    return Some(insn);
                }
            }
        }
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_prefix_example() {
        // Figure 5: prefix #7, prefix #5, load constant #4 builds #754.
        assert_eq!(encode(Direct::LoadConstant, 0x754), vec![0x27, 0x25, 0x44]);
    }

    #[test]
    fn single_byte_range() {
        // Values 0..=15 load with a single byte instruction (§3.2.6).
        for v in 0..16 {
            assert_eq!(encode(Direct::LoadConstant, v).len(), 1);
        }
        assert_eq!(encode(Direct::LoadConstant, 16).len(), 2);
    }

    #[test]
    fn one_prefix_covers_minus256_to_255() {
        // "operands in the range -256 to 255 can be represented using one
        // prefixing instruction" (§3.2.7).
        for v in -256..=255i64 {
            assert!(encode(Direct::LoadConstant, v).len() <= 2, "operand {v}");
        }
        assert_eq!(encode(Direct::LoadConstant, 256).len(), 3);
        assert_eq!(encode(Direct::LoadConstant, -257).len(), 3);
    }

    #[test]
    fn negative_prefix_encoding() {
        // ldc -1: nfix 0, ldc 15 => 0x60, 0x4F
        assert_eq!(encode(Direct::LoadConstant, -1), vec![0x60, 0x4F]);
    }

    #[test]
    fn direct_roundtrip() {
        for d in Direct::ALL {
            assert_eq!(Direct::from_nibble(d.nibble()), d);
            assert!(!d.mnemonic().is_empty());
            assert!(!d.full_name().is_empty());
        }
    }

    #[test]
    fn op_roundtrip() {
        for op in Op::ALL {
            assert_eq!(Op::from_code(op.code()), Some(op));
            assert!(!op.mnemonic().is_empty());
            assert!(!op.full_name().is_empty());
        }
        assert_eq!(Op::from_code(0x11), None);
        assert_eq!(Op::from_code(0x17F), Some(Op::HaltSimulation));
    }

    #[test]
    fn stack_effects_stay_within_the_three_registers() {
        for d in Direct::ALL {
            if let Some(e) = d.stack_effect() {
                assert!(e.pops <= 3 && e.pushes <= 3, "{d}");
            }
        }
        for op in Op::ALL {
            let e = op.stack_effect();
            assert!(e.pops <= 3 && e.pushes <= 3, "{op}");
        }
        // Prefixes and operate have no effect of their own.
        assert_eq!(Direct::Prefix.stack_effect(), None);
        assert_eq!(Direct::NegativePrefix.stack_effect(), None);
        assert_eq!(Direct::Operate.stack_effect(), None);
    }

    #[test]
    fn stack_effects_match_execution_semantics() {
        // Spot checks against cpu/exec.rs / cpu/io.rs.
        assert_eq!(Op::Add.stack_effect(), StackEffect::new(2, 1));
        assert_eq!(Op::InputMessage.stack_effect(), StackEffect::new(3, 0));
        assert_eq!(Op::OutputMessage.stack_effect(), StackEffect::new(3, 0));
        assert_eq!(Op::StartProcess.stack_effect(), StackEffect::new(2, 0));
        assert_eq!(Op::EndProcess.stack_effect(), StackEffect::new(1, 0));
        assert_eq!(Op::Normalise.stack_effect(), StackEffect::new(2, 3));
        assert_eq!(Op::EnableChannel.stack_effect(), StackEffect::new(2, 1));
        assert_eq!(Op::DisableChannel.stack_effect(), StackEffect::new(3, 1));
        assert_eq!(
            Direct::LoadConstant.stack_effect(),
            Some(StackEffect::new(0, 1))
        );
        assert_eq!(
            Direct::StoreNonLocal.stack_effect(),
            Some(StackEffect::new(2, 0))
        );
    }

    #[test]
    fn frequent_ops_are_single_byte() {
        // §3.2.8: the most frequently used operations fit in one byte.
        for op in [
            Op::Add,
            Op::Subtract,
            Op::GreaterThan,
            Op::InputMessage,
            Op::OutputMessage,
        ] {
            assert_eq!(encode_op(op).len(), 1, "{op}");
        }
        // Less frequent ones need exactly one prefix.
        for op in [Op::Multiply, Op::ShiftLeft, Op::And, Op::Or] {
            assert_eq!(encode_op(op).len(), 2, "{op}");
        }
    }

    #[test]
    fn decode_folds_into_a_32_bit_oreg() {
        // ldc 2; ldc 3; pfix 1 then seven pfix 0 (the 1 is shifted out
        // of the 32-bit Oreg); opr 5 = add; haltsim.
        let image = [
            0x42, 0x43, 0x21, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0x20, 0xF5, 0x21, 0x27, 0xFF,
        ];
        let insns: Vec<Insn> = decode(&image).collect();
        let names: Vec<&str> = insns.iter().map(Insn::mnemonic).collect();
        assert_eq!(names, ["ldc", "ldc", "add", "haltsim"]);
        assert_eq!((insns[2].offset, insns[2].len, insns[2].operand), (2, 9, 5));
        // nfix chains sign-extend; a trailing chain is not an instruction.
        assert_eq!(decode(&[0x60, 0x4F]).next().map(|i| i.operand), Some(-1));
        assert_eq!(decode(&[0x45, 0x21]).count(), 1);
    }
}
