//! Abstract syntax of the occam subset.
//!
//! Occam programs are built from three primitive processes — assignment,
//! input and output — combined by SEQ, PAR and ALT constructs (§2.2 of
//! the paper), plus IF and WHILE. Declarations (`VAR`, `CHAN`, `DEF`,
//! `PROC`) prefix a process and scope over it.
//!
//! A tree borrows its names from the source text it was parsed from
//! (`'src`); only the `TIME` name is a `'static` literal.

/// Source position for diagnostics (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// Line number, 1-based.
    pub line: u32,
    /// Column, 1-based; 0 when only the line is known.
    pub col: u32,
}

impl Pos {
    /// A position on `line` with no column information.
    pub fn new(line: u32) -> Pos {
        Pos { line, col: 0 }
    }

    /// A position at `line`:`col`.
    pub fn at(line: u32, col: u32) -> Pos {
        Pos { line, col }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` checked addition.
    Add,
    /// `-` checked subtraction.
    Sub,
    /// `*` checked multiplication.
    Mul,
    /// `/` checked division.
    Div,
    /// `\` remainder.
    Rem,
    /// `=` equality.
    Eq,
    /// `<>` inequality.
    Ne,
    /// `<` less-than.
    Lt,
    /// `>` greater-than.
    Gt,
    /// `<=` at-most.
    Le,
    /// `>=` at-least.
    Ge,
    /// `AND` boolean conjunction.
    And,
    /// `OR` boolean disjunction.
    Or,
    /// `/\` bitwise and.
    BitAnd,
    /// `\/` bitwise or.
    BitOr,
    /// `><` bitwise exclusive or.
    BitXor,
    /// `<<` left shift.
    Shl,
    /// `>>` right shift.
    Shr,
    /// `AFTER` modulo time comparison (§2.2.2).
    After,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-` checked negation.
    Neg,
    /// `NOT` boolean negation.
    Not,
    /// `~` bitwise complement.
    BitNot,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr<'src> {
    /// Integer literal.
    Literal(i64),
    /// `TRUE`.
    True,
    /// `FALSE`.
    False,
    /// A named variable or constant.
    Name(&'src str),
    /// Vector element: `v[e]`.
    Index(&'src str, Box<Expr<'src>>),
    /// Byte of a vector viewed as a byte array: `v[BYTE e]`.
    ByteIndex(&'src str, Box<Expr<'src>>),
    /// Binary operation.
    Bin(BinOp, Box<Expr<'src>>, Box<Expr<'src>>),
    /// Unary operation.
    Un(UnOp, Box<Expr<'src>>),
}

/// An assignable (or inputtable) place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lvalue<'src> {
    /// A scalar variable.
    Name(&'src str),
    /// A vector element.
    Index(&'src str, Box<Expr<'src>>),
    /// A byte of a vector: `v[BYTE e]`.
    ByteIndex(&'src str, Box<Expr<'src>>),
}

/// A channel reference: a channel name or element of a channel vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChanRef<'src> {
    /// A scalar channel.
    Name(&'src str),
    /// An element of a channel vector.
    Index(&'src str, Box<Expr<'src>>),
}

/// Formal parameter modes of a `PROC` (§2.2's named processes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamMode {
    /// `VALUE`: passed by value.
    Value,
    /// `VAR`: passed by reference.
    Var,
    /// `CHAN`: a channel.
    Chan,
}

/// A formal parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Param<'src> {
    /// Passing mode.
    pub mode: ParamMode,
    /// Name.
    pub name: &'src str,
    /// Whether the formal is a vector (`v[]`): the word passed is the
    /// vector's base address. Lengths are the caller's contract (occam 1
    /// vector parameters carried no bounds).
    pub is_vector: bool,
}

/// A declaration prefixing a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decl<'src> {
    /// `VAR x, y:` — scalars; `VAR v[n]:` — vectors (constant size).
    Var(Vec<(&'src str, Option<Expr<'src>>)>),
    /// `CHAN c, d:` / `CHAN c[n]:`.
    Chan(Vec<(&'src str, Option<Expr<'src>>)>),
    /// `DEF name = constant-expression:`.
    Def(&'src str, Expr<'src>),
    /// `PROC name(params) = process:`.
    Proc(&'src str, Vec<Param<'src>>, Box<Process<'src>>),
    /// `PLACE chan AT reserved-word-offset:` — maps a channel onto a link
    /// channel word, connecting the program to the outside world (§3.2.10:
    /// external channels are link interfaces).
    Place(&'src str, Expr<'src>),
}

/// A guarded alternative branch (§2.2: "an alternative process may be
/// ready for input from any one of a number of channels").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alternative<'src> {
    /// Optional boolean guard (`guard & input`).
    pub guard: Option<Expr<'src>>,
    /// What the branch waits for.
    pub kind: AltKind<'src>,
    /// The body, run when selected.
    pub body: Process<'src>,
    /// Source position.
    pub pos: Pos,
}

/// The waitable part of an alternative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AltKind<'src> {
    /// Channel input: `c ? v`.
    Input(ChanRef<'src>, Lvalue<'src>),
    /// Timer deadline: `TIME ? AFTER e`.
    Timeout(Expr<'src>),
    /// `SKIP`: immediately ready.
    Skip,
}

/// One arm of an `IF`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conditional<'src> {
    /// Condition.
    pub cond: Expr<'src>,
    /// Body when the condition is the first true one.
    pub body: Process<'src>,
    /// Source position.
    pub pos: Pos,
}

/// A replicator: `i = [base FOR count]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replicator<'src> {
    /// Index variable name.
    pub var: &'src str,
    /// First value.
    pub base: Expr<'src>,
    /// Number of iterations.
    pub count: Expr<'src>,
}

/// Processes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Process<'src> {
    /// `SKIP`: terminate immediately.
    Skip,
    /// `STOP`: never proceed.
    Stop,
    /// `v := e`.
    Assign(Lvalue<'src>, Expr<'src>, Pos),
    /// `c ! e`: output (§2.2).
    Output(ChanRef<'src>, Expr<'src>, Pos),
    /// `c ? v`: input.
    Input(ChanRef<'src>, Lvalue<'src>, Pos),
    /// `TIME ? v`: read the clock (§2.2.2).
    ReadTime(Lvalue<'src>, Pos),
    /// `TIME ? AFTER e`: delayed input.
    Delay(Expr<'src>, Pos),
    /// `SEQ` construct, optionally replicated.
    Seq(Option<Replicator<'src>>, Vec<Process<'src>>, Pos),
    /// `PAR` construct, optionally replicated (constant count).
    Par(Option<Replicator<'src>>, Vec<Process<'src>>, Pos),
    /// `PRI PAR`: first component runs at high priority (§2.2.2).
    PriPar(Vec<Process<'src>>, Pos),
    /// `ALT` or `PRI ALT` construct, optionally replicated (`ALT i =
    /// [base FOR n]` with a single component alternative). Textual order
    /// gives priority to both: the transputer's disabling sequence is
    /// ordered.
    Alt(Option<Replicator<'src>>, Vec<Alternative<'src>>, Pos),
    /// `IF` construct.
    If(Vec<Conditional<'src>>, Pos),
    /// `WHILE e` with a body.
    While(Expr<'src>, Box<Process<'src>>, Pos),
    /// Declarations scoping over a process.
    Declared(Vec<Decl<'src>>, Box<Process<'src>>, Pos),
    /// Call of a named process. What an argument means (a value, a
    /// variable or a channel) is its formal's mode.
    Call(&'src str, Vec<Expr<'src>>, Pos),
}

impl Process<'_> {
    /// Source position of this process, if it carries one.
    pub fn pos(&self) -> Option<Pos> {
        match self {
            Process::Skip | Process::Stop => None,
            Process::Assign(_, _, p)
            | Process::Output(_, _, p)
            | Process::Input(_, _, p)
            | Process::ReadTime(_, p)
            | Process::Delay(_, p)
            | Process::Seq(_, _, p)
            | Process::Par(_, _, p)
            | Process::PriPar(_, p)
            | Process::Alt(_, _, p)
            | Process::If(_, p)
            | Process::While(_, _, p)
            | Process::Declared(_, _, p)
            | Process::Call(_, _, p) => Some(*p),
        }
    }
}

impl<'src> Expr<'src> {
    /// The name and word subscript, if any, of a variable or channel
    /// this expression names: how a call's `VAR` or `CHAN` argument is
    /// read.
    pub fn as_place(&self) -> Option<(&'src str, Option<&Expr<'src>>)> {
        match self {
            Expr::Name(name) => Some((name, None)),
            Expr::Index(name, index) => Some((name, Some(index))),
            _ => None,
        }
    }
}

impl<'src> ChanRef<'src> {
    /// The channel's name, and its subscript if it has one.
    pub fn parts(&self) -> (&'src str, Option<&Expr<'src>>) {
        match self {
            ChanRef::Name(name) => (name, None),
            ChanRef::Index(name, index) => (name, Some(index)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_accessor() {
        let p = Process::Assign(Lvalue::Name("x"), Expr::Literal(0), Pos::new(3));
        assert_eq!(p.pos(), Some(Pos::new(3)));
        assert_eq!(Process::Skip.pos(), None);
    }

    #[test]
    fn ast_equality() {
        let a = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Name("x")),
            Box::new(Expr::Literal(2)),
        );
        let b = a.clone();
        assert_eq!(a, b);
    }
}
