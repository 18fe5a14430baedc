//! Tokenizer with occam's indentation-based block structure.
//!
//! Occam expresses structure by indentation: each construct keyword is
//! followed by component processes indented two further spaces. The lexer
//! converts leading whitespace into `Indent`/`Dedent` tokens so the
//! parser sees explicit blocks. Comments run from `--` to end of line.

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
        let push = move |out: &mut Vec<Lexeme<'src>>, token| out.push(Lexeme { token, line, col });
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
                        let esc = bytes.get(i + 1).map(|b| *b as char).ok_or_else(|| {
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
                    _ => return Err(CompileError::lex(line, "malformed character literal")),
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
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'.' || bytes[i] == b'_')
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
}
