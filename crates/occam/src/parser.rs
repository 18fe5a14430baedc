//! Recursive-descent parser for processes, precedence climbing for
//! expressions.
//!
//! One deviation from historical occam is documented here: occam 1
//! required full parenthesisation of mixed-operator expressions; this
//! parser accepts them with conventional precedence (tightest first:
//! unary; `* / \`; `+ -`; `<< >>`; `/\`; `>< \/`; comparisons and
//! `AFTER`; `NOT`; `AND`; `OR`), which never changes the meaning of a
//! fully parenthesised program. Every binary level is left-associative
//! except the comparisons, which do not chain (`a = b = c` is an error),
//! and `NOT` applies only at its own level or looser (`a = NOT b` needs
//! parentheses).

use crate::ast::*;
use crate::error::CompileError;
use crate::lexer::{lex, Keyword, Lexeme, Token};

/// Sequence `tail` after `body`, inside any declarations that scope over
/// `body` (so a `VALOF`'s RESULT sees the body's outer declarations).
fn attach_tail<'src>(body: Process<'src>, tail: Process<'src>) -> Process<'src> {
    match body {
        Process::Declared(decls, inner, pos) => {
            Process::Declared(decls, Box::new(attach_tail(*inner, tail)), pos)
        }
        Process::Seq(None, mut items, pos) => {
            items.push(tail);
            Process::Seq(None, items, pos)
        }
        other => {
            let pos = other.pos().unwrap_or(Pos::new(0));
            Process::Seq(None, vec![other, tail], pos)
        }
    }
}

/// How deeply a program may nest. A level is a process inside a
/// process, a parenthesised or subscript expression, a unary operator's
/// operand, or one more operator in a chain (`a + b + c` is two deep):
/// the parser, the lints and the code generator each recurse once per
/// level, so a deeper program would overflow the stack. At this limit
/// every construct still parses, lints, compiles and verifies on a
/// 2 MiB thread in a debug build, with room to spare: nested `ALT`s,
/// whose frames are the largest, overflow such a thread at about 97.
/// The corpus and the experiments' generated sources nest at most 12.
pub const MAX_NESTING: usize = 64;

/// Parse a complete program.
///
/// # Errors
///
/// Returns the first lexing or parsing error encountered, including a
/// program nested more than [`MAX_NESTING`] levels deep.
pub fn parse(source: &str) -> Result<Process<'_>, CompileError> {
    let tokens = lex(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
        height: 0,
    };
    let proc = p.parse_process()?;
    p.expect(Token::Eof)?;
    Ok(proc)
}

struct Parser<'src> {
    tokens: Vec<Lexeme<'src>>,
    pos: usize,
    /// Levels the parser has recursed through to reach this point.
    depth: usize,
    /// Levels below the expression last parsed (`0` for a name or a
    /// literal); its parent's is one more than its deepest operand's.
    height: usize,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Token<'src> {
        self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn peek2(&self) -> Token<'src> {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].token
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn here(&self) -> Pos {
        let lexeme = &self.tokens[self.pos.min(self.tokens.len() - 1)];
        Pos::at(lexeme.line, lexeme.col)
    }

    /// The current token, stepping past it (but never past `Eof`).
    fn bump(&mut self) -> Token<'src> {
        let t = self.peek();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Token<'_>) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token<'_>) -> Result<(), CompileError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(CompileError::parse(
                self.line(),
                format!("expected {t}, found {}", self.peek()),
            ))
        }
    }

    /// A node `height` levels above its deepest leaf, `depth` levels
    /// below the root: refuse it if the path through it is too long.
    fn within(&self, height: usize) -> Result<usize, CompileError> {
        if self.depth + height > MAX_NESTING {
            return Err(CompileError::parse(
                self.line(),
                format!("nested more than {MAX_NESTING} levels deep"),
            ));
        }
        Ok(height)
    }

    /// Recurse one level deeper; the caller steps back out with
    /// `self.depth -= 1` once the nested parse has returned.
    fn enter(&mut self) -> Result<(), CompileError> {
        self.depth += 1;
        self.within(0).map(drop)
    }

    fn expect_ident(&mut self) -> Result<&'src str, CompileError> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(CompileError::parse(
                self.line(),
                format!("expected an identifier, found {other}"),
            )),
        }
    }

    // ---- processes ----

    fn parse_process(&mut self) -> Result<Process<'src>, CompileError> {
        self.enter()?;
        let pos = self.here();
        let mut decls = Vec::new();
        loop {
            match self.peek() {
                Token::Key(Keyword::Var) => decls.push(self.parse_var_decl(false)?),
                Token::Key(Keyword::Chan) => decls.push(self.parse_var_decl(true)?),
                Token::Key(Keyword::Def) => decls.push(self.parse_def_decl()?),
                Token::Key(Keyword::Proc) => decls.push(self.parse_proc_decl()?),
                Token::Key(Keyword::Place) => decls.push(self.parse_place_decl()?),
                _ => break,
            }
        }
        let body = self.parse_operative()?;
        self.depth -= 1;
        if decls.is_empty() {
            Ok(body)
        } else {
            Ok(Process::Declared(decls, Box::new(body), pos))
        }
    }

    fn parse_operative(&mut self) -> Result<Process<'src>, CompileError> {
        let pos = self.here();
        match self.peek() {
            Token::Key(Keyword::Skip) => {
                self.bump();
                self.expect(Token::Newline)?;
                Ok(Process::Skip)
            }
            Token::Key(Keyword::Stop) => {
                self.bump();
                self.expect(Token::Newline)?;
                Ok(Process::Stop)
            }
            Token::Key(Keyword::Seq) => {
                self.bump();
                let repl = self.parse_optional_replicator()?;
                self.expect(Token::Newline)?;
                let body = self.parse_block_processes()?;
                Ok(Process::Seq(repl, body, pos))
            }
            Token::Key(Keyword::Par) => {
                self.bump();
                let repl = self.parse_optional_replicator()?;
                self.expect(Token::Newline)?;
                let body = self.parse_block_processes()?;
                Ok(Process::Par(repl, body, pos))
            }
            Token::Key(Keyword::Pri) => {
                self.bump();
                match self.bump() {
                    Token::Key(Keyword::Par) => {
                        self.expect(Token::Newline)?;
                        let body = self.parse_block_processes()?;
                        Ok(Process::PriPar(body, pos))
                    }
                    Token::Key(Keyword::Alt) => {
                        let repl = self.parse_optional_replicator()?;
                        self.expect(Token::Newline)?;
                        let alts = self.parse_block_alternatives()?;
                        if repl.is_some() && alts.len() != 1 {
                            return Err(CompileError::parse(
                                pos.line,
                                "a replicated ALT has exactly one alternative",
                            ));
                        }
                        Ok(Process::PriAlt(repl, alts, pos))
                    }
                    other => Err(CompileError::parse(
                        pos.line,
                        format!("expected PAR or ALT after PRI, found {other}"),
                    )),
                }
            }
            Token::Key(Keyword::Alt) => {
                self.bump();
                let repl = self.parse_optional_replicator()?;
                self.expect(Token::Newline)?;
                let alts = self.parse_block_alternatives()?;
                if repl.is_some() && alts.len() != 1 {
                    return Err(CompileError::parse(
                        pos.line,
                        "a replicated ALT has exactly one alternative",
                    ));
                }
                Ok(Process::Alt(repl, alts, pos))
            }
            Token::Key(Keyword::If) => {
                self.bump();
                self.expect(Token::Newline)?;
                let conds = self.parse_block_conditionals()?;
                Ok(Process::If(conds, pos))
            }
            Token::Key(Keyword::While) => {
                self.bump();
                let cond = self.parse_expr()?;
                self.expect(Token::Newline)?;
                self.expect(Token::Indent)?;
                let body = self.parse_process()?;
                self.expect(Token::Dedent)?;
                Ok(Process::While(cond, Box::new(body), pos))
            }
            Token::Key(Keyword::Time) => {
                self.bump();
                self.expect(Token::Query)?;
                if self.eat(Token::Key(Keyword::After)) {
                    let e = self.parse_expr()?;
                    self.expect(Token::Newline)?;
                    Ok(Process::Delay(e, pos))
                } else {
                    let lv = self.parse_lvalue()?;
                    self.expect(Token::Newline)?;
                    Ok(Process::ReadTime(lv, pos))
                }
            }
            Token::Ident(name) => {
                self.bump();
                match self.peek() {
                    Token::LParen => {
                        // Process call.
                        self.bump();
                        let mut actuals = Vec::new();
                        if !self.eat(Token::RParen) {
                            loop {
                                actuals.push(self.parse_expr()?);
                                if !self.eat(Token::Comma) {
                                    break;
                                }
                            }
                            self.expect(Token::RParen)?;
                        }
                        self.expect(Token::Newline)?;
                        Ok(Process::Call(name, actuals, pos))
                    }
                    Token::Newline => {
                        // Zero-argument call written bare.
                        self.bump();
                        Ok(Process::Call(name, Vec::new(), pos))
                    }
                    Token::Bang => {
                        self.bump();
                        self.parse_output_items(ChanRef::Name(name), pos)
                    }
                    Token::Query => {
                        self.bump();
                        self.parse_input_items(ChanRef::Name(name), pos)
                    }
                    Token::Assign => {
                        self.bump();
                        self.parse_assign_rhs(Lvalue::Name(name), pos)
                    }
                    Token::LBracket => {
                        self.bump();
                        let byte = self.eat(Token::Key(Keyword::Byte));
                        let idx = self.parse_expr()?;
                        self.expect(Token::RBracket)?;
                        match self.bump() {
                            Token::Assign => {
                                let lv = if byte {
                                    Lvalue::ByteIndex(name, Box::new(idx))
                                } else {
                                    Lvalue::Index(name, Box::new(idx))
                                };
                                self.parse_assign_rhs(lv, pos)
                            }
                            Token::Bang => {
                                if byte {
                                    return Err(CompileError::parse(
                                        pos.line,
                                        "BYTE subscripts apply to variables, not channels",
                                    ));
                                }
                                self.parse_output_items(ChanRef::Index(name, Box::new(idx)), pos)
                            }
                            Token::Query => {
                                if byte {
                                    return Err(CompileError::parse(
                                        pos.line,
                                        "BYTE subscripts apply to variables, not channels",
                                    ));
                                }
                                self.parse_input_items(ChanRef::Index(name, Box::new(idx)), pos)
                            }
                            other => Err(CompileError::parse(
                                pos.line,
                                format!("expected `:=`, `!` or `?` after subscript, found {other}"),
                            )),
                        }
                    }
                    other => Err(CompileError::parse(
                        pos.line,
                        format!("unexpected {other} after `{name}`"),
                    )),
                }
            }
            other => Err(CompileError::parse(
                pos.line,
                format!("expected a process, found {other}"),
            )),
        }
    }

    /// The right-hand side of `:=`: an expression, or a `VALOF` value
    /// process —
    ///
    /// ```text
    /// x := VALOF
    ///   <process>
    ///   RESULT e
    /// ```
    ///
    /// which desugars to running the process and then assigning the
    /// result expression, with the process's declarations scoping over
    /// the expression (occam 1's value processes).
    fn parse_assign_rhs(
        &mut self,
        lv: Lvalue<'src>,
        pos: Pos,
    ) -> Result<Process<'src>, CompileError> {
        if !self.eat(Token::Key(Keyword::Valof)) {
            let e = self.parse_expr()?;
            self.expect(Token::Newline)?;
            return Ok(Process::Assign(lv, e, pos));
        }
        self.expect(Token::Newline)?;
        self.expect(Token::Indent)?;
        let body = self.parse_process()?;
        self.expect(Token::Key(Keyword::Result))?;
        let result = self.parse_expr()?;
        self.expect(Token::Newline)?;
        self.expect(Token::Dedent)?;
        Ok(attach_tail(body, Process::Assign(lv, result, pos)))
    }

    /// `c ! e1; e2; ...` — a multi-item message is a sequence of
    /// communications on the channel (occam's `;`-separated items).
    fn parse_output_items(
        &mut self,
        chan: ChanRef<'src>,
        pos: Pos,
    ) -> Result<Process<'src>, CompileError> {
        let mut items = vec![self.parse_expr()?];
        while self.eat(Token::Semi) {
            items.push(self.parse_expr()?);
        }
        self.expect(Token::Newline)?;
        if items.len() == 1 {
            Ok(Process::Output(chan, items.pop().expect("one item"), pos))
        } else {
            Ok(Process::Seq(
                None,
                items
                    .into_iter()
                    .map(|e| Process::Output(chan.clone(), e, pos))
                    .collect(),
                pos,
            ))
        }
    }

    /// `c ? v1; v2; ...`.
    fn parse_input_items(
        &mut self,
        chan: ChanRef<'src>,
        pos: Pos,
    ) -> Result<Process<'src>, CompileError> {
        let mut items = vec![self.parse_lvalue()?];
        while self.eat(Token::Semi) {
            items.push(self.parse_lvalue()?);
        }
        self.expect(Token::Newline)?;
        if items.len() == 1 {
            Ok(Process::Input(chan, items.pop().expect("one item"), pos))
        } else {
            Ok(Process::Seq(
                None,
                items
                    .into_iter()
                    .map(|lv| Process::Input(chan.clone(), lv, pos))
                    .collect(),
                pos,
            ))
        }
    }

    fn parse_block_processes(&mut self) -> Result<Vec<Process<'src>>, CompileError> {
        self.expect(Token::Indent)?;
        let mut body = Vec::new();
        while self.peek() != Token::Dedent {
            body.push(self.parse_process()?);
        }
        self.expect(Token::Dedent)?;
        Ok(body)
    }

    fn parse_block_alternatives(&mut self) -> Result<Vec<Alternative<'src>>, CompileError> {
        self.expect(Token::Indent)?;
        let mut alts = Vec::new();
        while self.peek() != Token::Dedent {
            alts.push(self.parse_alternative()?);
        }
        self.expect(Token::Dedent)?;
        if alts.is_empty() {
            return Err(CompileError::parse(
                self.line(),
                "ALT needs at least one alternative",
            ));
        }
        Ok(alts)
    }

    fn parse_alternative(&mut self) -> Result<Alternative<'src>, CompileError> {
        let pos = self.here();
        // Distinguish `guard & input` from a bare input: parse a guard
        // expression when the line cannot start an input directly.
        let (guard, kind) = match self.peek() {
            Token::Key(Keyword::Time) => {
                self.bump();
                self.expect(Token::Query)?;
                self.expect(Token::Key(Keyword::After))?;
                let e = self.parse_expr()?;
                (None, AltKind::Timeout(e))
            }
            Token::Key(Keyword::Skip) => {
                self.bump();
                (None, AltKind::Skip)
            }
            Token::Ident(name) if matches!(self.peek2(), Token::Query | Token::LBracket) => {
                // Could be `c ? v`, `c[i] ? v`, or an expression starting
                // with a subscripted name. Try the input reading first.
                let save = (self.pos, self.depth);
                match self.try_parse_input(name) {
                    Ok(Some(kind)) => (None, kind),
                    Ok(None) | Err(_) => {
                        (self.pos, self.depth) = save;
                        let g = self.parse_expr()?;
                        self.expect(Token::Amp)?;
                        let kind = self.parse_guarded_wait()?;
                        (Some(g), kind)
                    }
                }
            }
            _ => {
                let g = self.parse_expr()?;
                self.expect(Token::Amp)?;
                let kind = self.parse_guarded_wait()?;
                (Some(g), kind)
            }
        };
        self.expect(Token::Newline)?;
        self.expect(Token::Indent)?;
        let body = self.parse_process()?;
        self.expect(Token::Dedent)?;
        Ok(Alternative {
            guard,
            kind,
            body,
            pos,
        })
    }

    /// After `guard &`: an input, timeout, or SKIP.
    fn parse_guarded_wait(&mut self) -> Result<AltKind<'src>, CompileError> {
        match self.peek() {
            Token::Key(Keyword::Skip) => {
                self.bump();
                Ok(AltKind::Skip)
            }
            Token::Key(Keyword::Time) => {
                self.bump();
                self.expect(Token::Query)?;
                self.expect(Token::Key(Keyword::After))?;
                Ok(AltKind::Timeout(self.parse_expr()?))
            }
            Token::Ident(name) => {
                self.bump();
                match self.try_parse_input(name)? {
                    Some(kind) => Ok(kind),
                    None => Err(CompileError::parse(
                        self.line(),
                        "expected a channel input after the guard",
                    )),
                }
            }
            other => Err(CompileError::parse(
                self.line(),
                format!("expected an input, timeout or SKIP after the guard, found {other}"),
            )),
        }
    }

    /// With `name` already consumed: try to read `? v` or `[i] ? v`.
    fn try_parse_input(&mut self, name: &'src str) -> Result<Option<AltKind<'src>>, CompileError> {
        // NOTE: on the `Ident` path of `parse_alternative` the name has
        // NOT been consumed yet; consume it there first.
        if self.peek() == Token::Ident(name) {
            self.bump();
        }
        let chan = if self.eat(Token::LBracket) {
            let idx = self.parse_expr()?;
            self.expect(Token::RBracket)?;
            ChanRef::Index(name, Box::new(idx))
        } else {
            ChanRef::Name(name)
        };
        if !self.eat(Token::Query) {
            return Ok(None);
        }
        let lv = self.parse_lvalue()?;
        Ok(Some(AltKind::Input(chan, lv)))
    }

    fn parse_block_conditionals(&mut self) -> Result<Vec<Conditional<'src>>, CompileError> {
        self.expect(Token::Indent)?;
        let mut conds = Vec::new();
        while self.peek() != Token::Dedent {
            let pos = self.here();
            let cond = self.parse_expr()?;
            self.expect(Token::Newline)?;
            self.expect(Token::Indent)?;
            let body = self.parse_process()?;
            self.expect(Token::Dedent)?;
            conds.push(Conditional { cond, body, pos });
        }
        self.expect(Token::Dedent)?;
        if conds.is_empty() {
            return Err(CompileError::parse(
                self.line(),
                "IF needs at least one choice",
            ));
        }
        Ok(conds)
    }

    fn parse_optional_replicator(&mut self) -> Result<Option<Replicator<'src>>, CompileError> {
        if let Token::Ident(var) = self.peek() {
            self.bump();
            self.expect(Token::Equals)?;
            self.expect(Token::LBracket)?;
            let base = self.parse_expr()?;
            self.expect(Token::Key(Keyword::For))?;
            let count = self.parse_expr()?;
            self.expect(Token::RBracket)?;
            Ok(Some(Replicator { var, base, count }))
        } else {
            Ok(None)
        }
    }

    fn parse_lvalue(&mut self) -> Result<Lvalue<'src>, CompileError> {
        let name = self.expect_ident()?;
        if self.eat(Token::LBracket) {
            let byte = self.eat(Token::Key(Keyword::Byte));
            let idx = self.parse_expr()?;
            self.expect(Token::RBracket)?;
            Ok(if byte {
                Lvalue::ByteIndex(name, Box::new(idx))
            } else {
                Lvalue::Index(name, Box::new(idx))
            })
        } else {
            Ok(Lvalue::Name(name))
        }
    }

    // ---- declarations ----

    fn parse_var_decl(&mut self, is_chan: bool) -> Result<Decl<'src>, CompileError> {
        self.bump(); // VAR / CHAN
        let mut names = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let size = if self.eat(Token::LBracket) {
                let e = self.parse_expr()?;
                self.expect(Token::RBracket)?;
                Some(e)
            } else {
                None
            };
            names.push((name, size));
            if !self.eat(Token::Comma) {
                break;
            }
        }
        self.expect(Token::Colon)?;
        self.expect(Token::Newline)?;
        Ok(if is_chan {
            Decl::Chan(names)
        } else {
            Decl::Var(names)
        })
    }

    fn parse_def_decl(&mut self) -> Result<Decl<'src>, CompileError> {
        self.bump(); // DEF
        let name = self.expect_ident()?;
        self.expect(Token::Equals)?;
        let e = self.parse_expr()?;
        self.expect(Token::Colon)?;
        self.expect(Token::Newline)?;
        Ok(Decl::Def(name, e))
    }

    fn parse_place_decl(&mut self) -> Result<Decl<'src>, CompileError> {
        self.bump(); // PLACE
        let name = self.expect_ident()?;
        self.expect(Token::Key(Keyword::At))?;
        let e = self.parse_expr()?;
        self.expect(Token::Colon)?;
        self.expect(Token::Newline)?;
        Ok(Decl::Place(name, e))
    }

    fn parse_proc_decl(&mut self) -> Result<Decl<'src>, CompileError> {
        let line = self.line();
        self.bump(); // PROC
        let name = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat(Token::LParen) && !self.eat(Token::RParen) {
            let mut mode = ParamMode::Value;
            loop {
                match self.peek() {
                    Token::Key(Keyword::Value) => {
                        self.bump();
                        mode = ParamMode::Value;
                    }
                    Token::Key(Keyword::Var) => {
                        self.bump();
                        mode = ParamMode::Var;
                    }
                    Token::Key(Keyword::Chan) => {
                        self.bump();
                        mode = ParamMode::Chan;
                    }
                    _ => {}
                }
                let pname = self.expect_ident()?;
                let is_vector = if self.eat(Token::LBracket) {
                    self.expect(Token::RBracket)?;
                    true
                } else {
                    false
                };
                params.push(Param {
                    mode,
                    name: pname,
                    is_vector,
                });
                if !self.eat(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
        }
        self.expect(Token::Equals)?;
        self.expect(Token::Newline)?;
        self.expect(Token::Indent)?;
        let body = self.parse_process()?;
        self.expect(Token::Dedent)?;
        // The terminating `:` on its own line at the PROC's level.
        if !self.eat(Token::Colon) {
            return Err(CompileError::parse(
                line,
                format!("PROC {name} must be terminated by `:` at its own indentation"),
            ));
        }
        self.expect(Token::Newline)?;
        Ok(Decl::Proc(name, params, Box::new(body)))
    }

    // ---- expressions ----

    fn parse_expr(&mut self) -> Result<Expr<'src>, CompileError> {
        self.enter()?;
        let e = self.climb(0)?;
        self.depth -= 1;
        Ok(e)
    }

    /// An expression of operators binding at least as tightly as `min`,
    /// left to right: one loop for every level of [`binary`]'s table,
    /// recursing only for an operator's right operand.
    fn climb(&mut self, min: u8) -> Result<Expr<'src>, CompileError> {
        // The tightest operator that may still extend the expression. An
        // operand parsed at a tighter level stopped only at an operator it
        // could not take, and that one ends this chain too: after `NOT a`
        // only `AND` and `OR` may follow, after `a = b` no comparison.
        let mut ceiling = if min <= NOT && self.peek() == Token::Key(Keyword::Not) {
            NOT - 1
        } else {
            u8::MAX
        };
        let mut e = self.prefix(min)?;
        let mut height = self.height;
        while let Some((level, op)) = binary(self.peek()) {
            if level < min || level > ceiling {
                break;
            }
            self.bump();
            let rhs = self.climb(level + 1)?;
            height = self.within(height.max(self.height) + 1)?;
            e = Expr::Bin(op, Box::new(e), Box::new(rhs));
            ceiling = if level == COMPARISON {
                level - 1
            } else {
                level
            };
        }
        self.height = height;
        Ok(e)
    }

    /// A prefix operator and its operand, one level down, or a primary.
    /// `NOT` takes a comparison and binds only where `min` allows its
    /// level; `-` and `~` take a primary or another prefix operator.
    fn prefix(&mut self, min: u8) -> Result<Expr<'src>, CompileError> {
        let (op, operand) = match self.peek() {
            Token::Key(Keyword::Not) if min <= NOT => (UnOp::Not, NOT),
            Token::Minus => (UnOp::Neg, UNARY),
            Token::Tilde => (UnOp::BitNot, UNARY),
            _ => return self.parse_primary(),
        };
        self.bump();
        self.enter()?;
        let e = self.climb(operand)?;
        self.depth -= 1;
        self.height = self.within(self.height + 1)?;
        Ok(Expr::Un(op, Box::new(e)))
    }

    fn parse_primary(&mut self) -> Result<Expr<'src>, CompileError> {
        self.height = 0;
        match self.bump() {
            Token::Number(n) => Ok(Expr::Literal(n)),
            Token::Key(Keyword::True) => Ok(Expr::True),
            Token::Key(Keyword::False) => Ok(Expr::False),
            Token::Key(Keyword::Time) => {
                // TIME in an expression: the current clock value; only
                // meaningful in `AFTER` comparisons and delays.
                Ok(Expr::Name("TIME"))
            }
            Token::Ident(name) => {
                if self.eat(Token::LBracket) {
                    let byte = self.eat(Token::Key(Keyword::Byte));
                    let idx = self.parse_expr()?;
                    self.expect(Token::RBracket)?;
                    self.height = self.within(self.height + 1)?;
                    Ok(if byte {
                        Expr::ByteIndex(name, Box::new(idx))
                    } else {
                        Expr::Index(name, Box::new(idx))
                    })
                } else {
                    Ok(Expr::Name(name))
                }
            }
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            other => Err(CompileError::parse(
                self.line(),
                format!("expected an expression, found {other}"),
            )),
        }
    }
}

/// Precedence levels of [`binary`]'s table that the parser names: `NOT`
/// sits between `AND` and the comparisons, and the unary operators bind
/// tighter than any binary one.
const NOT: u8 = 3;
const COMPARISON: u8 = 4;
const UNARY: u8 = 10;

/// The binary operator a token spells, with its precedence level (the
/// module documentation's table; higher binds tighter).
fn binary(t: Token<'_>) -> Option<(u8, BinOp)> {
    Some(match t {
        Token::Key(Keyword::Or) => (1, BinOp::Or),
        Token::Key(Keyword::And) => (2, BinOp::And),
        Token::Equals => (COMPARISON, BinOp::Eq),
        Token::NotEquals => (COMPARISON, BinOp::Ne),
        Token::Less => (COMPARISON, BinOp::Lt),
        Token::Greater => (COMPARISON, BinOp::Gt),
        Token::LessEq => (COMPARISON, BinOp::Le),
        Token::GreaterEq => (COMPARISON, BinOp::Ge),
        Token::Key(Keyword::After) => (COMPARISON, BinOp::After),
        Token::BitOr => (5, BinOp::BitOr),
        Token::BitXor => (5, BinOp::BitXor),
        Token::BitAnd => (6, BinOp::BitAnd),
        Token::Shl => (7, BinOp::Shl),
        Token::Shr => (7, BinOp::Shr),
        Token::Plus => (8, BinOp::Add),
        Token::Minus => (8, BinOp::Sub),
        Token::Star => (9, BinOp::Mul),
        Token::Slash => (9, BinOp::Div),
        Token::Backslash => (9, BinOp::Rem),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment() {
        let p = parse("x := 1 + (2 * 3)").unwrap();
        match p {
            Process::Assign(Lvalue::Name(n), e, _) => {
                assert_eq!(n, "x");
                assert_eq!(
                    e,
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Literal(1)),
                        Box::new(Expr::Bin(
                            BinOp::Mul,
                            Box::new(Expr::Literal(2)),
                            Box::new(Expr::Literal(3))
                        ))
                    )
                );
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn seq_block() {
        let p = parse("SEQ\n  x := 1\n  y := 2").unwrap();
        match p {
            Process::Seq(None, body, _) => assert_eq!(body.len(), 2),
            other => panic!("expected SEQ, got {other:?}"),
        }
    }

    #[test]
    fn var_declaration_scopes() {
        let p = parse("VAR x, y:\nSEQ\n  x := 1\n  y := x").unwrap();
        match p {
            Process::Declared(decls, body, _) => {
                assert_eq!(decls.len(), 1);
                assert!(matches!(*body, Process::Seq(..)));
            }
            other => panic!("expected declaration, got {other:?}"),
        }
    }

    #[test]
    fn channel_io() {
        let p = parse("SEQ\n  c ! x + 1\n  c ? y").unwrap();
        match p {
            Process::Seq(None, body, _) => {
                assert!(matches!(
                    &body[0],
                    Process::Output(ChanRef::Name("c"), _, _)
                ));
                assert!(matches!(
                    &body[1],
                    Process::Input(ChanRef::Name("c"), Lvalue::Name("y"), _)
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn alt_with_guards() {
        let src = "\
ALT
  c ? x
    y := 1
  going & d ? x
    y := 2
  TIME ? AFTER t
    y := 3
  TRUE & SKIP
    y := 4";
        let p = parse(src).unwrap();
        match p {
            Process::Alt(None, alts, _) => {
                assert_eq!(alts.len(), 4);
                assert!(alts[0].guard.is_none());
                assert!(matches!(alts[0].kind, AltKind::Input(..)));
                assert!(alts[1].guard.is_some());
                assert!(matches!(alts[2].kind, AltKind::Timeout(_)));
                assert!(matches!(alts[3].kind, AltKind::Skip));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn if_and_while() {
        let src = "\
WHILE going
  IF
    x > 0
      x := x - 1
    TRUE
      going := FALSE";
        let p = parse(src).unwrap();
        match p {
            Process::While(_, body, _) => match *body {
                Process::If(ref conds, _) => assert_eq!(conds.len(), 2),
                ref other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn proc_declaration_and_call() {
        let src = "\
PROC add (VALUE a, b, VAR result) =
  result := a + b
:
VAR r:
SEQ
  add (1, 2, r)
  r := r";
        let p = parse(src).unwrap();
        match p {
            Process::Declared(decls, _, _) => match &decls[0] {
                Decl::Proc(name, params, _) => {
                    assert_eq!(*name, "add");
                    assert_eq!(params.len(), 3);
                    assert_eq!(params[0].mode, ParamMode::Value);
                    assert_eq!(params[1].mode, ParamMode::Value);
                    assert_eq!(params[2].mode, ParamMode::Var);
                    assert!(!params[0].is_vector);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replicated_seq() {
        let p = parse("SEQ i = [0 FOR 10]\n  total := total + i").unwrap();
        match p {
            Process::Seq(Some(r), body, _) => {
                assert_eq!(r.var, "i");
                assert_eq!(r.base, Expr::Literal(0));
                assert_eq!(r.count, Expr::Literal(10));
                assert_eq!(body.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pri_par() {
        let p = parse("PRI PAR\n  x := 1\n  y := 2").unwrap();
        assert!(matches!(p, Process::PriPar(ref b, _) if b.len() == 2));
    }

    #[test]
    fn place_at() {
        let p = parse("CHAN out:\nPLACE out AT 0:\nout ! 5").unwrap();
        match p {
            Process::Declared(decls, _, _) => {
                assert!(matches!(&decls[1], Decl::Place("out", _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn vector_declarations_and_subscripts() {
        let src = "VAR v[8]:\nSEQ\n  v[0] := 1\n  v[v[0]] := 2";
        let p = parse(src).unwrap();
        assert!(matches!(p, Process::Declared(..)));
    }

    #[test]
    fn parse_errors_have_lines() {
        let err = parse("SEQ\n  x := := 1").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("IF\n").is_err(), "empty IF");
    }

    #[test]
    fn channel_vector_io() {
        let p = parse("c[2] ! 7").unwrap();
        assert!(matches!(p, Process::Output(ChanRef::Index(..), _, _)));
    }
}
