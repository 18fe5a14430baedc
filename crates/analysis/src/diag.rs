//! Structured diagnostics shared by both analysis layers.

use std::fmt;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly intended; never fails a build.
    Warning,
    /// Definitely wrong: the program violates a usage rule or the
    /// bytecode cannot execute as encoded.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Where a finding is anchored: occam source for layer 1, code offsets
/// for layer 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// A source position (1-based line; 0 column = whole line).
    Source {
        /// Line number, 1-based.
        line: u32,
        /// Column, 1-based; 0 when only the line is known.
        col: u32,
    },
    /// A byte range in assembled code.
    Code {
        /// Offset of the first byte of the instruction.
        offset: u32,
        /// Instruction length in bytes (prefix chain included).
        len: u32,
    },
    /// No position applies (e.g. whole-program findings).
    None,
}

impl Span {
    /// A whole-line source span.
    pub fn line(line: u32) -> Span {
        Span::Source { line, col: 0 }
    }

    /// A source span with a column.
    pub fn at(line: u32, col: u32) -> Span {
        Span::Source { line, col }
    }

    /// A code span of `len` bytes at `offset`.
    pub fn code(offset: u32, len: u32) -> Span {
        Span::Code { offset, len }
    }

    /// The code span of one instruction, prefix chain included.
    pub fn insn(insn: &transputer::instr::Insn) -> Span {
        Span::code(insn.offset as u32, insn.len as u32)
    }

    /// The source line, when this is a source span.
    pub fn source_line(&self) -> Option<u32> {
        match self {
            Span::Source { line, .. } => Some(*line),
            _ => None,
        }
    }

    /// The code offset, when this is a code span.
    pub fn code_offset(&self) -> Option<u32> {
        match self {
            Span::Code { offset, .. } => Some(*offset),
            _ => None,
        }
    }

    /// Ordering key so diagnostics sort by position.
    fn key(&self) -> (u8, u32, u32) {
        match self {
            Span::Source { line, col } => (0, *line, *col),
            Span::Code { offset, len } => (1, *offset, *len),
            Span::None => (2, 0, 0),
        }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Source { line, col: 0 } => write!(f, "line {line}"),
            Span::Source { line, col } => write!(f, "line {line}:{col}"),
            Span::Code { offset, .. } => write!(f, "offset {offset:#06x}"),
            Span::None => f.write_str("<program>"),
        }
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `par-chan-input` or
    /// `stack-underflow`.
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Anchor.
    pub span: Span,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Build an error.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            span,
            message: message.into(),
        }
    }

    /// Build a warning.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            span,
            message: message.into(),
        }
    }

    /// Whether this finding should fail a strict run.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}] at {}",
            self.severity, self.message, self.code, self.span
        )
    }
}

/// Sort by position, errors before warnings at the same spot.
pub fn sort(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        a.span
            .key()
            .cmp(&b.span.key())
            .then(b.severity.cmp(&a.severity))
            .then(a.code.cmp(b.code))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let d = Diagnostic::error(
            "stack-underflow",
            Span::code(0x12, 2),
            "pop from empty stack",
        );
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("stack-underflow"));
        assert!(s.contains("0x0012"));
        let w = Diagnostic::warning("x", Span::at(3, 7), "m");
        assert!(w.to_string().contains("line 3:7"));
        assert!(Diagnostic::warning("x", Span::line(4), "m")
            .to_string()
            .contains("line 4"));
    }

    #[test]
    fn sorting_orders_by_position_then_severity() {
        let mut v = vec![
            Diagnostic::warning("b", Span::line(5), "w"),
            Diagnostic::error("a", Span::line(5), "e"),
            Diagnostic::error("c", Span::line(1), "first"),
        ];
        sort(&mut v);
        assert_eq!(v[0].code, "c");
        assert_eq!(v[1].code, "a");
        assert_eq!(v[2].code, "b");
    }
}
