//! Tokenizer with occam's indentation-based block structure.
//!
//! Occam expresses structure by indentation: each construct keyword is
//! followed by component processes indented two further spaces. The lexer
//! converts each line's leading spaces into `Indent`/`Dedent` tokens so
//! the parser sees explicit blocks, in the same walk over the source that
//! reads the line's tokens. Comments run from `--` to end of line.

use crate::error::CompileError;
use std::fmt;

/// Tokens. An identifier borrows its text from the source, and the
/// syntax tree keeps that borrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token<'src> {
    /// Keyword (uppercase reserved word).
    Key(Keyword),
    /// Identifier.
    Ident(&'src str),
    /// Integer literal (decimal or `#hex`), or character literal value.
    Number(i64),
    /// `:=`
    Assign,
    /// `!`
    Bang,
    /// `?`
    Query,
    /// `&`
    Amp,
    /// `:`
    Colon,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `(` / `)`
    LParen,
    /// Closing parenthesis.
    RParen,
    /// `[` / `]`
    LBracket,
    /// Closing bracket.
    RBracket,
    /// `=`
    Equals,
    /// `<>`
    NotEquals,
    /// `<`
    Less,
    /// `>`
    Greater,
    /// `<=`
    LessEq,
    /// `>=`
    GreaterEq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `\`
    Backslash,
    /// `/\`
    BitAnd,
    /// `\/`
    BitOr,
    /// `><`
    BitXor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `~`
    Tilde,
    /// End of a logical line.
    Newline,
    /// Indentation increased.
    Indent,
    /// Indentation decreased.
    Dedent,
    /// End of input.
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Key(k) => write!(f, "{k}"),
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Number(n) => write!(f, "number {n}"),
            Token::Assign => f.write_str("`:=`"),
            Token::Bang => f.write_str("`!`"),
            Token::Query => f.write_str("`?`"),
            Token::Amp => f.write_str("`&`"),
            Token::Colon => f.write_str("`:`"),
            Token::Semi => f.write_str("`;`"),
            Token::Comma => f.write_str("`,`"),
            Token::LParen => f.write_str("`(`"),
            Token::RParen => f.write_str("`)`"),
            Token::LBracket => f.write_str("`[`"),
            Token::RBracket => f.write_str("`]`"),
            Token::Equals => f.write_str("`=`"),
            Token::NotEquals => f.write_str("`<>`"),
            Token::Less => f.write_str("`<`"),
            Token::Greater => f.write_str("`>`"),
            Token::LessEq => f.write_str("`<=`"),
            Token::GreaterEq => f.write_str("`>=`"),
            Token::Plus => f.write_str("`+`"),
            Token::Minus => f.write_str("`-`"),
            Token::Star => f.write_str("`*`"),
            Token::Slash => f.write_str("`/`"),
            Token::Backslash => f.write_str("`\\`"),
            Token::BitAnd => f.write_str("`/\\`"),
            Token::BitOr => f.write_str("`\\/`"),
            Token::BitXor => f.write_str("`><`"),
            Token::Shl => f.write_str("`<<`"),
            Token::Shr => f.write_str("`>>`"),
            Token::Tilde => f.write_str("`~`"),
            Token::Newline => f.write_str("end of line"),
            Token::Indent => f.write_str("indent"),
            Token::Dedent => f.write_str("dedent"),
            Token::Eof => f.write_str("end of input"),
        }
    }
}

/// Reserved words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    /// `SEQ`
    Seq,
    /// `PAR`
    Par,
    /// `ALT`
    Alt,
    /// `PRI`
    Pri,
    /// `IF`
    If,
    /// `WHILE`
    While,
    /// `VAR`
    Var,
    /// `CHAN`
    Chan,
    /// `DEF`
    Def,
    /// `PROC`
    Proc,
    /// `VALUE`
    Value,
    /// `SKIP`
    Skip,
    /// `STOP`
    Stop,
    /// `TRUE`
    True,
    /// `FALSE`
    False,
    /// `FOR`
    For,
    /// `AFTER`
    After,
    /// `TIME`
    Time,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `NOT`
    Not,
    /// `PLACE`
    Place,
    /// `AT`
    At,
    /// `BYTE`
    Byte,
    /// `VALOF`
    Valof,
    /// `RESULT`
    Result,
}

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Keyword::Seq => "SEQ",
            Keyword::Par => "PAR",
            Keyword::Alt => "ALT",
            Keyword::Pri => "PRI",
            Keyword::If => "IF",
            Keyword::While => "WHILE",
            Keyword::Var => "VAR",
            Keyword::Chan => "CHAN",
            Keyword::Def => "DEF",
            Keyword::Proc => "PROC",
            Keyword::Value => "VALUE",
            Keyword::Skip => "SKIP",
            Keyword::Stop => "STOP",
            Keyword::True => "TRUE",
            Keyword::False => "FALSE",
            Keyword::For => "FOR",
            Keyword::After => "AFTER",
            Keyword::Time => "TIME",
            Keyword::And => "AND",
            Keyword::Or => "OR",
            Keyword::Not => "NOT",
            Keyword::Place => "PLACE",
            Keyword::At => "AT",
            Keyword::Byte => "BYTE",
            Keyword::Valof => "VALOF",
            Keyword::Result => "RESULT",
        };
        f.write_str(s)
    }
}

fn keyword(word: &str) -> Option<Keyword> {
    Some(match word {
        "SEQ" => Keyword::Seq,
        "PAR" => Keyword::Par,
        "ALT" => Keyword::Alt,
        "PRI" => Keyword::Pri,
        "IF" => Keyword::If,
        "WHILE" => Keyword::While,
        "VAR" => Keyword::Var,
        "CHAN" => Keyword::Chan,
        "DEF" => Keyword::Def,
        "PROC" => Keyword::Proc,
        "VALUE" => Keyword::Value,
        "SKIP" => Keyword::Skip,
        "STOP" => Keyword::Stop,
        "TRUE" => Keyword::True,
        "FALSE" => Keyword::False,
        "FOR" => Keyword::For,
        "AFTER" => Keyword::After,
        "TIME" => Keyword::Time,
        "AND" => Keyword::And,
        "OR" => Keyword::Or,
        "NOT" => Keyword::Not,
        "PLACE" => Keyword::Place,
        "AT" => Keyword::At,
        "BYTE" => Keyword::Byte,
        "VALOF" => Keyword::Valof,
        "RESULT" => Keyword::Result,
        _ => return None,
    })
}

/// A token with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lexeme<'src> {
    /// The token.
    pub token: Token<'src>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column of the token's first character; 0 for
    /// structural tokens (indent, dedent, newline, end of file).
    pub col: u32,
}

/// Tokenize a complete source text in one walk over its bytes.
///
/// Each line's indentation is measured and turned into `Indent` and
/// `Dedent` tokens, and its tokens follow in the same walk; a blank or
/// comment-only line carries no structure and is stepped over. Lines end
/// where [`str::lines`] ends them: at `\n`, with one `\r` before it
/// dropped (a lone `\r` stays in its line). A comment starts at a line's
/// first `--`, wherever it falls, so `'--'` is a quote and a comment.
///
/// # Errors
///
/// Returns [`CompileError`] for malformed numbers, bad characters, or
/// inconsistent indentation (indentation is spaces, stepping by two). A
/// tab before a line's comment is reported before any other error on
/// that line, and an indentation error before the line's first bad token.
pub fn lex(source: &str) -> Result<Vec<Lexeme<'_>>, CompileError> {
    let mut lexer = Lexer {
        src: source,
        pos: 0,
        line_start: 0,
        line: 0,
        // About one token per four bytes of occam; reserving one per
        // three means the vector is allocated once.
        out: Vec::with_capacity(source.len() / 3 + 1),
    };
    // Indents deepen two spaces at a time, so the open levels are
    // always 0, 2, ..., `current`, and any even dedent lands on one.
    let mut current = 0;
    while lexer.pos < source.len() {
        lexer.line += 1;
        lexer.line_start = lexer.pos;
        let Some(indent) = lexer.indentation()? else {
            continue; // blank lines carry no structure
        };
        if indent % 2 != 0 {
            return Err(lexer.error("indentation must be a multiple of two spaces"));
        }
        if indent > current + 2 {
            return Err(lexer.error("indentation may only deepen by one level (two spaces)"));
        }
        let token = if indent > current {
            Token::Indent
        } else {
            Token::Dedent
        };
        for _ in 0..indent.abs_diff(current) / 2 {
            lexer.structural(token);
        }
        current = indent;
        lexer.tokens()?;
        lexer.structural(Token::Newline);
    }
    lexer.line += 1;
    for _ in 0..current / 2 {
        lexer.structural(Token::Dedent);
    }
    lexer.structural(Token::Eof);
    Ok(lexer.out)
}

/// A tab among a line's leading blanks.
const TAB_IN_INDENT: &str = "tab characters are not allowed; indent with spaces";
/// A tab after a line's first token.
const TAB_AFTER_TOKEN: &str = "tab characters are not allowed; use spaces";

/// The walk over one source text.
struct Lexer<'src> {
    src: &'src str,
    /// Byte offset of the next byte to read.
    pos: usize,
    /// Byte offset of the current line's first byte.
    line_start: usize,
    /// 1-based number of the current line.
    line: u32,
    out: Vec<Lexeme<'src>>,
}

impl<'src> Lexer<'src> {
    /// The byte at `at`, or `\n` from the end of the source on, so that
    /// the last line ends like every other.
    fn byte(&self, at: usize) -> u8 {
        self.src.as_bytes().get(at).copied().unwrap_or(b'\n')
    }

    /// The byte at `at` while it lies before the end of its line and
    /// before the line's comment.
    fn visible(&self, at: usize) -> Option<u8> {
        match self.byte(at) {
            b'\n' => None,
            b'\r' if self.src.as_bytes().get(at + 1) == Some(&b'\n') => None,
            b'-' if self.byte(at + 1) == b'-' => None,
            b => Some(b),
        }
    }

    /// The first offset from `at` on whose byte fails `part`.
    fn run(&self, at: usize, part: impl Fn(u8) -> bool) -> usize {
        let rest = &self.src.as_bytes()[at..];
        at + rest.iter().position(|&b| !part(b)).unwrap_or(rest.len())
    }

    /// Steps past the end of the current line.
    fn next_line(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |n| n + 1);
    }

    fn structural(&mut self, token: Token<'src>) {
        self.out.push(Lexeme {
            token,
            line: self.line,
            col: 0,
        });
    }

    /// An error on the current line, unless the line holds a tab before
    /// its comment: that is reported first, whatever else is wrong, and
    /// as indentation only when nothing but blanks precedes it.
    fn error(&self, message: &str) -> CompileError {
        let mut at = self.line_start;
        while let Some(b) = self.visible(at) {
            if b == b'\t' {
                let leading = self.src[self.line_start..at].trim_start().is_empty();
                let message = if leading {
                    TAB_IN_INDENT
                } else {
                    TAB_AFTER_TOKEN
                };
                return CompileError::lex(self.line, message);
            }
            at += 1;
        }
        CompileError::lex(self.line, message)
    }

    /// The current line's indentation in spaces, leaving `pos` at its
    /// first token; `None` for a blank or comment-only line, leaving
    /// `pos` at the next line.
    fn indentation(&mut self) -> Result<Option<usize>, CompileError> {
        let first = self.run(self.pos, |b| b == b' ');
        let indent = first - self.pos;
        self.pos = first;
        match self.visible(first) {
            Some(b) if b.is_ascii_graphic() => return Ok(Some(indent)),
            None => {}
            Some(_) => {
                // A control byte, or a character beyond ASCII: it is the
                // first token unless it is a blank. Spaces alone indent,
                // so after any other blank the line must hold nothing
                // more.
                let rest = &self.src[first..];
                if rest.chars().next().is_some_and(|c| !c.is_whitespace()) {
                    return Ok(Some(indent));
                }
                for (i, c) in rest.char_indices() {
                    if self.visible(first + i).is_none() {
                        break;
                    }
                    if !c.is_whitespace() {
                        return Err(
                            self.error("indentation may hold only spaces; indent with spaces")
                        );
                    }
                }
            }
        }
        self.next_line();
        Ok(None)
    }

    /// Lexes the current line's tokens from `pos` and steps past its
    /// end.
    fn tokens(&mut self) -> Result<(), CompileError> {
        let src = self.src;
        let mut start = self.pos;
        loop {
            let next = self.byte(start + 1);
            let (token, end) = match self.byte(start) {
                b' ' => {
                    start += 1;
                    continue;
                }
                // The line's end or its comment (what `visible` tells).
                b'\n' => break,
                b'\r' if next == b'\n' && start + 1 < src.len() => break,
                b'-' if next == b'-' => break,
                b'0'..=b'9' => {
                    let end = self.run(start, |b| b.is_ascii_digit());
                    let value = src[start..end]
                        .parse()
                        .map_err(|_| self.error("number too large"))?;
                    (Token::Number(value), end)
                }
                b'#' => {
                    let end = self.run(start + 1, |b| b.is_ascii_hexdigit());
                    if end == start + 1 {
                        return Err(self.error("`#` must be followed by hex digits"));
                    }
                    let value = i64::from_str_radix(&src[start + 1..end], 16)
                        .map_err(|_| self.error("hex number too large"))?;
                    (Token::Number(value), end)
                }
                b'\'' => self.char_literal(start)?,
                b @ (b'A'..=b'Z' | b'a'..=b'z') => {
                    let end = self.run(start, |b| {
                        b.is_ascii_alphanumeric() || b == b'.' || b == b'_'
                    });
                    let word = &src[start..end];
                    // Every keyword starts with a capital.
                    let key = if b.is_ascii_uppercase() {
                        keyword(word)
                    } else {
                        None
                    };
                    (key.map_or(Token::Ident(word), Token::Key), end)
                }
                b':' if next == b'=' => (Token::Assign, start + 2),
                b':' => (Token::Colon, start + 1),
                b'!' => (Token::Bang, start + 1),
                b'?' => (Token::Query, start + 1),
                b'&' => (Token::Amp, start + 1),
                b';' => (Token::Semi, start + 1),
                b',' => (Token::Comma, start + 1),
                b'(' => (Token::LParen, start + 1),
                b')' => (Token::RParen, start + 1),
                b'[' => (Token::LBracket, start + 1),
                b']' => (Token::RBracket, start + 1),
                b'=' => (Token::Equals, start + 1),
                b'<' => match next {
                    b'>' => (Token::NotEquals, start + 2),
                    b'=' => (Token::LessEq, start + 2),
                    b'<' => (Token::Shl, start + 2),
                    _ => (Token::Less, start + 1),
                },
                b'>' => match next {
                    b'=' => (Token::GreaterEq, start + 2),
                    b'>' => (Token::Shr, start + 2),
                    b'<' => (Token::BitXor, start + 2),
                    _ => (Token::Greater, start + 1),
                },
                b'+' => (Token::Plus, start + 1),
                b'-' => (Token::Minus, start + 1),
                b'*' => (Token::Star, start + 1),
                b'/' if next == b'\\' => (Token::BitAnd, start + 2),
                b'/' => (Token::Slash, start + 1),
                b'\\' if next == b'/' => (Token::BitOr, start + 2),
                b'\\' => (Token::Backslash, start + 1),
                b'~' => (Token::Tilde, start + 1),
                b => {
                    // `b` is one byte; name the whole character it starts.
                    let ch = src[start..].chars().next().unwrap_or(char::from(b));
                    return Err(self.error(&format!("unexpected character `{ch}`")));
                }
            };
            self.out.push(Lexeme {
                token,
                line: self.line,
                col: (start - self.line_start + 1) as u32,
            });
            start = end;
        }
        self.pos = start;
        self.next_line();
        Ok(())
    }

    /// A character literal at `start`: `'a'`, or an escape after occam's
    /// escape character `*` (`'*n'`). Returns its value and where it ends.
    fn char_literal(&self, start: usize) -> Result<(Token<'src>, usize), CompileError> {
        let (value, close) = match self.visible(start + 1) {
            Some(b'*') => {
                let escape = self
                    .visible(start + 2)
                    .ok_or_else(|| self.error("unterminated character literal"))?;
                let value = match escape {
                    b'n' | b'N' => b'\n',
                    b'c' | b'C' => b'\r',
                    b't' | b'T' => b'\t',
                    b's' | b'S' => b' ',
                    b'*' => b'*',
                    b'\'' => b'\'',
                    _ => return Err(self.error("unknown escape in character literal")),
                };
                (value, start + 3)
            }
            // A tab is refused like any other on the line.
            Some(b) if b.is_ascii() && b != b'\'' && b != b'\t' => (b, start + 2),
            _ => return Err(self.error("malformed character literal")),
        };
        if self.visible(close) != Some(b'\'') {
            return Err(self.error("unterminated character literal"));
        }
        Ok((Token::Number(i64::from(value)), close + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|l| l.token).collect()
    }

    #[test]
    fn simple_line() {
        assert_eq!(
            toks("x := 42"),
            vec![
                Token::Ident("x"),
                Token::Assign,
                Token::Number(42),
                Token::Newline,
                Token::Eof
            ]
        );
    }

    #[test]
    fn hex_and_char_literals() {
        assert_eq!(toks("#7FF")[0], Token::Number(0x7FF));
        assert_eq!(toks("'a'")[0], Token::Number(97));
        assert_eq!(toks("'*n'")[0], Token::Number(10));
    }

    #[test]
    fn indentation_blocks() {
        let src = "SEQ\n  x := 1\n  y := 2\nz := 3";
        let t = toks(src);
        assert_eq!(t[0], Token::Key(Keyword::Seq));
        assert_eq!(t[1], Token::Newline);
        assert_eq!(t[2], Token::Indent);
        // ... x := 1 NL y := 2 NL ...
        let dedent_pos = t.iter().position(|x| *x == Token::Dedent).unwrap();
        assert!(dedent_pos > 2);
        assert_eq!(t.last(), Some(&Token::Eof));
    }

    #[test]
    fn comments_are_stripped() {
        let t = toks("x := 1 -- set x\n-- whole-line comment\ny := 2");
        assert!(t.iter().all(|x| !matches!(x, Token::Ident("set"))));
        assert_eq!(t.iter().filter(|x| **x == Token::Assign).count(), 2);
    }

    #[test]
    fn operators() {
        assert_eq!(toks("a /\\ b")[1], Token::BitAnd);
        assert_eq!(toks("a \\/ b")[1], Token::BitOr);
        assert_eq!(toks("a >< b")[1], Token::BitXor);
        assert_eq!(toks("a << b")[1], Token::Shl);
        assert_eq!(toks("a >> b")[1], Token::Shr);
        assert_eq!(toks("a <> b")[1], Token::NotEquals);
        assert_eq!(toks("a <= b")[1], Token::LessEq);
        assert_eq!(toks("a \\ b")[1], Token::Backslash);
    }

    #[test]
    fn bad_indent_rejected() {
        assert!(lex("SEQ\n   x := 1").is_err(), "three spaces");
        assert!(lex("SEQ\n    x := 1").is_err(), "jumping two levels");
        assert!(lex("\tx := 1").is_err(), "tabs");
    }

    #[test]
    fn multi_level_dedent() {
        // Even indents that deepen one level at a time leave every even
        // level open, so any dedent lands on one.
        let src = "SEQ\n  SEQ\n    x := 1\ny := 2";
        let t = toks(src);
        assert_eq!(t.iter().filter(|x| **x == Token::Dedent).count(), 2);
    }

    #[test]
    fn keywords_vs_identifiers() {
        let t = toks("VAR sequence:");
        assert_eq!(t[0], Token::Key(Keyword::Var));
        assert_eq!(t[1], Token::Ident("sequence"));
    }

    #[test]
    fn dotted_names() {
        assert_eq!(toks("my.var")[0], Token::Ident("my.var"));
    }

    #[test]
    fn only_spaces_indent() {
        // NBSP is two bytes of UTF-8 and `\r\r` two blanks: both once
        // measured as one level of indentation.
        for src in [
            "SEQ\n\u{a0}x := 1",
            "SEQ\n\r\rx := 1",
            "SEQ\n\u{2003}x := 1",
            "SEQ\n \u{a0} x := 1",
        ] {
            let e = lex(src).unwrap_err();
            assert_eq!(
                (e.line, e.message.as_str()),
                (2, BLANK_IN_INDENT),
                "{src:?}"
            );
        }
        // A blank or comment-only line may hold any blanks, and a tab
        // anywhere before the comment still names itself.
        assert!(lex("SEQ\n\u{a0}\t\r\n \u{2003} -- \u{a0}\n  x := 1").is_ok());
        assert_eq!(
            lex("SEQ\n\u{a0}x := 1 \t-- c").unwrap_err().message,
            TAB_AFTER_TOKEN
        );
    }

    #[test]
    fn a_tab_is_named_where_it_stands() {
        for (src, message) in [
            ("VAR x:\nSEQ\n  x :=\t1\n", TAB_AFTER_TOKEN),
            ("VAR x:\nSEQ\n  x\t:= 1\n", TAB_AFTER_TOKEN),
            ("VAR x:\nSEQ\n\tx := 1\n", TAB_IN_INDENT),
            ("VAR x:\nSEQ\n  \u{a0}\t x := 1\n", TAB_IN_INDENT),
            // The first tab on the line decides.
            ("VAR x:\nSEQ\n \tx :=\t1\n", TAB_IN_INDENT),
        ] {
            let e = lex(src).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (3, message), "{src:?}");
        }
    }

    #[test]
    fn line_ends_and_comments() {
        assert_eq!(toks("x\r\ny"), toks("x\ny"));
        let e = lex("x\r").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (1, "unexpected character `\r`")
        );
        assert_eq!(toks("c := '-'-- c")[2], Token::Number(45));
        let e = lex("c := '--'").unwrap_err();
        assert_eq!(e.message, "malformed character literal");
        let t = lex("x -- \t \u{e9}\n").unwrap();
        assert_eq!((t[1].token, t[2].line), (Token::Newline, 2));
    }

    /// The lexer this one replaced, verbatim: `str::lines`, then a scan
    /// of each line for its comment, tab and indentation, then a walk
    /// over its tokens. It measured any Unicode blank as indentation.
    mod reference {
        use super::super::{keyword, CompileError, Lexeme, Token};

        /// Tokenize a complete source text.
        ///
        /// # Errors
        ///
        /// Returns [`CompileError`] for malformed numbers, bad characters, or
        /// inconsistent indentation (indentation must step by two spaces).
        pub fn lex(source: &str) -> Result<Vec<Lexeme<'_>>, CompileError> {
            // About one token per four bytes of occam; reserving one per three
            // means the vector is allocated once.
            let mut out = Vec::with_capacity(source.len() / 3 + 1);
            // Indents deepen two spaces at a time, so the open levels are
            // always 0, 2, ..., `current`, and any even dedent lands on one.
            let mut current = 0;
            let mut line_no = 0;
            for raw_line in source.lines() {
                line_no += 1;
                let (text, indent, tab) = scan_line(raw_line);
                let Some(indent) = indent else {
                    continue; // blank lines carry no structure
                };
                if tab {
                    return Err(CompileError::lex(
                        line_no,
                        "tab characters are not allowed; indent with spaces",
                    ));
                }
                if indent % 2 != 0 {
                    return Err(CompileError::lex(
                        line_no,
                        "indentation must be a multiple of two spaces",
                    ));
                }
                if indent > current + 2 {
                    return Err(CompileError::lex(
                        line_no,
                        "indentation may only deepen by one level (two spaces)",
                    ));
                }
                let token = if indent > current {
                    Token::Indent
                } else {
                    Token::Dedent
                };
                for _ in 0..indent.abs_diff(current) / 2 {
                    out.push(Lexeme {
                        token,
                        line: line_no,
                        col: 0,
                    });
                }
                current = indent;
                lex_line(&text[indent..], line_no, indent, &mut out)?;
                out.push(Lexeme {
                    token: Token::Newline,
                    line: line_no,
                    col: 0,
                });
            }
            let final_line = line_no + 1;
            for _ in 0..current / 2 {
                out.push(Lexeme {
                    token: Token::Dedent,
                    line: final_line,
                    col: 0,
                });
            }
            out.push(Lexeme {
                token: Token::Eof,
                line: final_line,
                col: 0,
            });
            Ok(out)
        }

        /// One pass over a line: the text before any `--` comment, the byte
        /// length of that text's leading blanks (`None` when it is all blank;
        /// any Unicode blank counts towards the indent, and so unbalances it),
        /// and whether it holds a tab.
        fn scan_line(line: &str) -> (&str, Option<usize>, bool) {
            let (mut indent, mut tab) = (None, false);
            for (i, c) in line.char_indices() {
                if c == '-' && line[i + 1..].starts_with('-') {
                    return (&line[..i], indent, tab);
                }
                tab |= c == '\t';
                if indent.is_none() && !c.is_whitespace() {
                    indent = Some(i);
                }
            }
            (line, indent, tab)
        }

        fn lex_line<'src>(
            text: &'src str,
            line: u32,
            indent: usize,
            out: &mut Vec<Lexeme<'src>>,
        ) -> Result<(), CompileError> {
            let bytes = text.as_bytes();
            let mut i = 0;
            while i < bytes.len() {
                let c = bytes[i] as char;
                if c == ' ' {
                    i += 1;
                    continue;
                }
                // Token-start column in the original line (1-based).
                let col = (indent + i + 1) as u32;
                let push =
                    move |out: &mut Vec<Lexeme<'src>>, token| out.push(Lexeme { token, line, col });
                match c {
                    '0'..='9' => {
                        let start = i;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                        let value: i64 = text[start..i]
                            .parse()
                            .map_err(|_| CompileError::lex(line, "number too large"))?;
                        push(out, Token::Number(value));
                    }
                    '#' => {
                        i += 1;
                        let start = i;
                        while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                            i += 1;
                        }
                        if start == i {
                            return Err(CompileError::lex(
                                line,
                                "`#` must be followed by hex digits",
                            ));
                        }
                        let value = i64::from_str_radix(&text[start..i], 16)
                            .map_err(|_| CompileError::lex(line, "hex number too large"))?;
                        push(out, Token::Number(value));
                    }
                    '\'' => {
                        // Character literal: 'a' or '*n' style escapes (occam
                        // uses `*` as the escape character).
                        i += 1;
                        let (value, consumed) = match bytes.get(i).map(|b| *b as char) {
                            Some('*') => {
                                let esc =
                                    bytes.get(i + 1).map(|b| *b as char).ok_or_else(|| {
                                        CompileError::lex(line, "unterminated character literal")
                                    })?;
                                let v = match esc {
                                    'n' | 'N' => b'\n',
                                    'c' | 'C' => b'\r',
                                    't' | 'T' => b'\t',
                                    's' | 'S' => b' ',
                                    '*' => b'*',
                                    '\'' => b'\'',
                                    _ => {
                                        return Err(CompileError::lex(
                                            line,
                                            "unknown escape in character literal",
                                        ))
                                    }
                                };
                                (v, 2)
                            }
                            Some(ch) if ch.is_ascii() && ch != '\'' => (ch as u8, 1),
                            _ => {
                                return Err(CompileError::lex(line, "malformed character literal"))
                            }
                        };
                        i += consumed;
                        if bytes.get(i) != Some(&b'\'') {
                            return Err(CompileError::lex(line, "unterminated character literal"));
                        }
                        i += 1;
                        push(out, Token::Number(i64::from(value)));
                    }
                    'A'..='Z' | 'a'..='z' => {
                        let start = i;
                        while i < bytes.len()
                            && (bytes[i].is_ascii_alphanumeric()
                                || bytes[i] == b'.'
                                || bytes[i] == b'_')
                        {
                            i += 1;
                        }
                        let word = &text[start..i];
                        match keyword(word) {
                            Some(k) => push(out, Token::Key(k)),
                            None => push(out, Token::Ident(word)),
                        }
                    }
                    ':' => {
                        if bytes.get(i + 1) == Some(&b'=') {
                            push(out, Token::Assign);
                            i += 2;
                        } else {
                            push(out, Token::Colon);
                            i += 1;
                        }
                    }
                    '!' => {
                        push(out, Token::Bang);
                        i += 1;
                    }
                    '?' => {
                        push(out, Token::Query);
                        i += 1;
                    }
                    '&' => {
                        push(out, Token::Amp);
                        i += 1;
                    }
                    ';' => {
                        push(out, Token::Semi);
                        i += 1;
                    }
                    ',' => {
                        push(out, Token::Comma);
                        i += 1;
                    }
                    '(' => {
                        push(out, Token::LParen);
                        i += 1;
                    }
                    ')' => {
                        push(out, Token::RParen);
                        i += 1;
                    }
                    '[' => {
                        push(out, Token::LBracket);
                        i += 1;
                    }
                    ']' => {
                        push(out, Token::RBracket);
                        i += 1;
                    }
                    '=' => {
                        push(out, Token::Equals);
                        i += 1;
                    }
                    '<' => {
                        if bytes.get(i + 1) == Some(&b'>') {
                            push(out, Token::NotEquals);
                            i += 2;
                        } else if bytes.get(i + 1) == Some(&b'=') {
                            push(out, Token::LessEq);
                            i += 2;
                        } else if bytes.get(i + 1) == Some(&b'<') {
                            push(out, Token::Shl);
                            i += 2;
                        } else {
                            push(out, Token::Less);
                            i += 1;
                        }
                    }
                    '>' => {
                        if bytes.get(i + 1) == Some(&b'=') {
                            push(out, Token::GreaterEq);
                            i += 2;
                        } else if bytes.get(i + 1) == Some(&b'>') {
                            push(out, Token::Shr);
                            i += 2;
                        } else if bytes.get(i + 1) == Some(&b'<') {
                            push(out, Token::BitXor);
                            i += 2;
                        } else {
                            push(out, Token::Greater);
                            i += 1;
                        }
                    }
                    '+' => {
                        push(out, Token::Plus);
                        i += 1;
                    }
                    '-' => {
                        push(out, Token::Minus);
                        i += 1;
                    }
                    '*' => {
                        push(out, Token::Star);
                        i += 1;
                    }
                    '/' => {
                        if bytes.get(i + 1) == Some(&b'\\') {
                            push(out, Token::BitAnd);
                            i += 2;
                        } else {
                            push(out, Token::Slash);
                            i += 1;
                        }
                    }
                    '\\' => {
                        if bytes.get(i + 1) == Some(&b'/') {
                            push(out, Token::BitOr);
                            i += 2;
                        } else {
                            push(out, Token::Backslash);
                            i += 1;
                        }
                    }
                    '~' => {
                        push(out, Token::Tilde);
                        i += 1;
                    }
                    other => {
                        // `c` is one byte; name the whole character it starts.
                        let ch = text[i..].chars().next().unwrap_or(other);
                        return Err(CompileError::lex(
                            line,
                            format!("unexpected character `{ch}`"),
                        ));
                    }
                }
            }
            Ok(())
        }
    }

    /// A small xorshift, so the generated texts repeat run to run.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// Token text, well- and ill-formed, joined with and without spaces
    /// so `-` meets `-` and quotes meet dashes.
    const FRAGMENTS: &[&str] = &[
        "SEQ",
        "WHILE",
        "x",
        "a.b",
        "y_1",
        "sequence",
        "42",
        "0",
        "#7F",
        "#",
        "#g",
        "99999999999999999999",
        "#FFFFFFFFFFFFFFFFFF",
        "'a'",
        "'-'",
        "'*-'",
        "'*n'",
        "'*'",
        "'''",
        "'*''",
        "'",
        "'\u{e9}'",
        "'\t'",
        "'*\t'",
        "'\r'",
        ":=",
        ":",
        "!",
        "?",
        "<>",
        "<=",
        "<<",
        "<",
        ">=",
        ">>",
        "><",
        ">",
        "/\\",
        "\\/",
        "/",
        "\\",
        "+",
        "-",
        "-",
        "-",
        "*",
        "~",
        "(",
        ")",
        "[",
        "]",
        ",",
        ";",
        "&",
        "=",
        "\u{e9}",
        "\u{a0}",
        "\t",
        "\r",
        "$",
        "\0",
        "'*",
        "--",
    ];
    /// Indentation other than an even number of spaces.
    const LEADS: &[&str] = &[
        " ",
        "   ",
        "\t",
        "  \t",
        "\u{a0}",
        " \u{a0}",
        "\u{2003}",
        "\r",
        "\r\r",
        "\x0b",
        "\x0c",
        "  \u{a0} ",
        "\u{85}",
    ];
    const COMMENTS: &[&str] = &[
        "--",
        "-- note",
        "--\t tab",
        "-- \u{e9}\u{fc}",
        "---",
        "--'",
        "-- \r",
    ];
    const BLANKS: &[&str] = &["", "  ", "\t", " \t ", "\u{a0}", "\r", "   "];

    fn document(rng: &mut Rng) -> String {
        let mut text = String::new();
        let mut level = 0;
        for line in 0..rng.below(9) {
            if line > 0 {
                text += rng.pick(&["\n", "\n", "\n", "\r\n", "\r\r\n"]);
            }
            if rng.below(6) == 0 {
                text += rng.pick(BLANKS);
            } else {
                // Mostly a level the lexer accepts, so lines after the
                // first are reached.
                if rng.below(5) == 0 {
                    text += rng.pick(LEADS);
                } else {
                    level = rng.below(level + 2);
                    text.extend(std::iter::repeat_n("  ", level));
                }
                for _ in 0..rng.below(7) {
                    if rng.below(3) == 0 {
                        text.push(' ');
                    }
                    text += rng.pick(FRAGMENTS);
                }
            }
            if rng.below(3) == 0 {
                if rng.below(2) == 0 {
                    text.push(' ');
                }
                text += rng.pick(COMMENTS);
            }
        }
        text += rng.pick(&["", "", "\n", "\r\n", "\r"]);
        text
    }

    /// How often the generated texts met each case the two lexers could
    /// disagree on.
    #[derive(Debug, Default)]
    struct Coverage {
        empty: u32,
        crlf: u32,
        lone_cr_mid: u32,
        lone_cr_end: u32,
        no_final_newline: u32,
        tab_before_comment: u32,
        tab_after_comment: u32,
        /// Bit `k`: a line whose first `--` is at byte `k`.
        comment_offsets: u32,
        comment_by_quoted_minus: u32,
        comment_by_escaped_minus: u32,
        non_ascii_in_comment: u32,
        non_ascii_at_token: u32,
        odd_indent: u32,
        too_deep: u32,
        blank_with_tab: u32,
        comment_only_with_tab: u32,
        blank_in_indent: u32,
        tab_after_token: u32,
        same_tokens: u32,
        same_error: u32,
    }

    impl Coverage {
        /// Counts the cases `text` holds, line by line as `str::lines`
        /// splits it.
        fn note(&mut self, text: &str) {
            let bytes = text.as_bytes();
            self.empty += u32::from(text.is_empty());
            self.crlf += u32::from(text.contains("\r\n"));
            self.lone_cr_mid += u32::from(bytes.windows(2).any(|w| w[0] == b'\r' && w[1] != b'\n'));
            self.lone_cr_end += u32::from(text.ends_with('\r'));
            self.no_final_newline += u32::from(!text.is_empty() && !text.ends_with('\n'));
            for line in text.lines() {
                let dashes = line.find("--");
                let (code, comment) = line.split_at(dashes.unwrap_or(line.len()));
                if let Some(k) = dashes.filter(|&k| k < 32) {
                    self.comment_offsets |= 1 << k;
                }
                let beside = |quoted: &str| {
                    line.contains(&format!("{quoted}--")) || line.contains(&format!("--{quoted}"))
                };
                self.comment_by_quoted_minus += u32::from(beside("'-'") || line.contains("'--"));
                self.comment_by_escaped_minus += u32::from(beside("'*-'") || line.contains("'*--"));
                self.tab_before_comment += u32::from(code.contains('\t'));
                self.tab_after_comment += u32::from(comment.contains('\t'));
                self.non_ascii_in_comment += u32::from(!comment.is_ascii());
                self.non_ascii_at_token += u32::from(
                    code.trim_start().starts_with(|c: char| !c.is_ascii())
                        || code.contains(" \u{e9}"),
                );
                let blank = code.trim().is_empty();
                self.blank_with_tab +=
                    u32::from(blank && comment.is_empty() && code.contains('\t'));
                self.comment_only_with_tab +=
                    u32::from(blank && !comment.is_empty() && line.contains('\t'));
            }
        }
    }

    const BLANK_IN_INDENT: &str = "indentation may hold only spaces; indent with spaces";

    /// Same tokens, lines and columns as the lexer this one replaced, or
    /// the same error, except where a line is indented by a blank other
    /// than a space, which that lexer measured as indentation, and where
    /// a tab follows the line's first token, which that lexer named as
    /// indentation too.
    #[test]
    fn lexes_as_the_lexer_it_replaced() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let mut cov = Coverage::default();
        for _ in 0..40_000 {
            let text = document(&mut rng);
            cov.note(&text);
            let (got, want) = (lex(&text), reference::lex(&text));
            if let Err(w) = &want {
                cov.odd_indent +=
                    u32::from(w.message == "indentation must be a multiple of two spaces");
                cov.too_deep += u32::from(w.message.starts_with("indentation may only deepen"));
            }
            match (&got, &want) {
                (Err(e), _) if e.message == BLANK_IN_INDENT => {
                    // That lexer agreed up to this line, and saw no tab
                    // on it.
                    cov.blank_in_indent += 1;
                    let line = text.lines().nth(e.line as usize - 1).unwrap();
                    let lead = &line[..line.len() - line.trim_start().len()];
                    assert!(lead.contains(|c| c != ' ' && c != '\t'), "{text:?}");
                    if let Err(w) = &want {
                        assert!(w.line >= e.line, "{text:?}: {w}");
                        let tab = w.message.starts_with("tab");
                        assert!(w.line > e.line || !tab, "{text:?}: {w}");
                    }
                }
                (Err(e), Err(w)) if e.message == TAB_AFTER_TOKEN => {
                    cov.tab_after_token += 1;
                    assert_eq!((w.line, w.message.as_str()), (e.line, TAB_IN_INDENT));
                    let line = text.lines().nth(e.line as usize - 1).unwrap();
                    let tab = line.find('\t').unwrap();
                    assert!(!line[..tab].trim_start().is_empty(), "{text:?}");
                }
                _ => {
                    assert_eq!(got, want, "{text:?}");
                    cov.same_tokens += u32::from(got.is_ok());
                    cov.same_error += u32::from(got.is_err());
                }
            }
        }
        let drawn = [
            cov.empty,
            cov.crlf,
            cov.lone_cr_mid,
            cov.lone_cr_end,
            cov.no_final_newline,
            cov.tab_before_comment,
            cov.tab_after_comment,
            cov.comment_by_quoted_minus,
            cov.comment_by_escaped_minus,
            cov.non_ascii_in_comment,
            cov.non_ascii_at_token,
            cov.odd_indent,
            cov.too_deep,
            cov.blank_with_tab,
            cov.comment_only_with_tab,
            cov.blank_in_indent,
            cov.tab_after_token,
            cov.same_tokens,
            cov.same_error,
        ];
        assert!(
            drawn.iter().all(|&n| n >= 20) && cov.comment_offsets & 0xffff == 0xffff,
            "generator lost a case: {cov:?}"
        );
    }
}
