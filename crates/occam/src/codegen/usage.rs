//! PAR usage checking.
//!
//! Occam's rules make concurrent programs checkable (§2.2.1: "the
//! designer [can] increase his confidence that his design is correct"):
//! a variable assigned in one component of a `PAR` may not be used in
//! any other component. This pass enforces the scalar-variable part of
//! that rule conservatively at compile time:
//!
//! * a free scalar variable written by one branch must not be read or
//!   written by another;
//! * a replicated `PAR` must not write any free scalar at all (every
//!   copy would);
//! * vector elements are exempt (checking subscript disjointness needs
//!   value analysis; historical compilers checked what they could and
//!   trusted `[i]` partitioning — so do we);
//! * `PRI PAR` keeps the historical permissiveness — a violation is
//!   reported as a *warning*, not an error: prioritised components were
//!   commonly used for exactly the device-handler patterns that share a
//!   word with the low-priority process, but the sharing still defeats
//!   the usage rule's non-interference guarantee.
//!
//! The check is syntactic but scope-aware: names declared inside a
//! branch shadow outer bindings, and `PROC` calls contribute the reads
//! and writes implied by their parameter modes.

use super::{Binding, Cg, Warning};
use crate::ast::{AltKind, Decl, Expr, Lvalue, ParamMode, Process};
use crate::error::CompileError;

/// Free-variable usage of one `PAR` branch: the names it reads and the
/// names it writes, each once.
#[derive(Debug, Default)]
struct Usage<'a> {
    reads: Vec<&'a str>,
    writes: Vec<&'a str>,
}

/// Record `name` in `names` unless it is there already.
fn note<'a>(names: &mut Vec<&'a str>, name: &'a str) {
    if !names.contains(&name) {
        names.push(name);
    }
}

/// Names declared locally within the branch: one stack, with the start
/// of each open scope marked.
#[derive(Debug, Default)]
struct Locals<'a> {
    names: Vec<&'a str>,
    marks: Vec<usize>,
}

impl<'a> Locals<'a> {
    fn push(&mut self) {
        self.marks.push(self.names.len());
    }

    fn pop(&mut self) {
        let mark = self.marks.pop().expect("a scope is open");
        self.names.truncate(mark);
    }

    fn declare(&mut self, name: &'a str) {
        self.names.push(name);
    }

    fn contains(&self, name: &str) -> bool {
        self.names.contains(&name)
    }
}

impl Cg<'_> {
    /// Check a `PAR`'s components for scalar write conflicts.
    pub(crate) fn par_usage_check(
        &self,
        branches: &[&Process],
        replicated: bool,
        line: u32,
    ) -> Result<(), CompileError> {
        match self.par_usage_conflict(branches, replicated) {
            Some(message) => Err(CompileError::check(line, message)),
            None => Ok(()),
        }
    }

    /// Check a `PRI PAR`'s components for the same conflicts, but report
    /// a violation as a warning: the prioritised form stays compilable,
    /// as in the historical compilers.
    pub(crate) fn pri_par_usage_check(&mut self, branches: &[&Process], line: u32) {
        if let Some(message) = self.par_usage_conflict(branches, false) {
            self.warnings.push(Warning {
                line,
                message: format!("PRI PAR: {message}"),
            });
        }
    }

    /// The scalar-sharing violation among `branches`, if any, naming the
    /// alphabetically first variable involved, so the message is the
    /// same on every run.
    fn par_usage_conflict(&self, branches: &[&Process], replicated: bool) -> Option<String> {
        let usages: Vec<Usage> = branches
            .iter()
            .map(|b| {
                let mut u = Usage::default();
                let mut locals = Locals::default();
                self.collect(b, &mut locals, &mut u);
                u
            })
            .collect();
        if replicated {
            let name = usages.iter().flat_map(|u| &u.writes).min()?;
            return Some(format!(
                "replicated PAR: every copy would assign `{name}`; occam \
                 forbids shared writable variables between parallel \
                 processes (use a vector element per copy, or channels)"
            ));
        }
        let shared = |i: usize, name: &&str| {
            let other = |(j, u): (usize, &Usage)| {
                j != i && (u.writes.contains(name) || u.reads.contains(name))
            };
            usages.iter().enumerate().any(other)
        };
        let name = (0..usages.len())
            .flat_map(|i| usages[i].writes.iter().filter(move |name| shared(i, name)))
            .min()?;
        Some(format!(
            "`{name}` is assigned in one component of this PAR and \
             used in another; occam forbids shared variables \
             between parallel processes (communicate over a \
             channel instead)"
        ))
    }

    /// Whether `name` is a free scalar variable (the kind the rule
    /// covers) in the current compile-time scope.
    fn is_checked_scalar(&self, name: &str) -> bool {
        matches!(
            self.lookup(name),
            Some(Binding::Var(_)) | Some(Binding::VarParam(_)) | Some(Binding::ValueParam(_))
        )
    }

    fn read_expr<'a>(&self, e: &Expr<'a>, locals: &Locals<'a>, u: &mut Usage<'a>) {
        match e {
            Expr::Literal(_) | Expr::True | Expr::False => {}
            Expr::Name(n) => {
                if !locals.contains(n) && self.is_checked_scalar(n) {
                    note(&mut u.reads, n);
                }
            }
            Expr::Index(_, idx) | Expr::ByteIndex(_, idx) => self.read_expr(idx, locals, u),
            Expr::Bin(_, a, b) => {
                self.read_expr(a, locals, u);
                self.read_expr(b, locals, u);
            }
            Expr::Un(_, a) => self.read_expr(a, locals, u),
        }
    }

    fn write_lvalue<'a>(&self, lv: &Lvalue<'a>, locals: &Locals<'a>, u: &mut Usage<'a>) {
        match lv {
            Lvalue::Name(n) => {
                if !locals.contains(n) && self.is_checked_scalar(n) {
                    note(&mut u.writes, n);
                }
            }
            Lvalue::Index(_, idx) | Lvalue::ByteIndex(_, idx) => {
                // Vector elements are exempt; the subscript is read.
                self.read_expr(idx, locals, u);
            }
        }
    }

    fn collect<'a>(&self, p: &Process<'a>, locals: &mut Locals<'a>, u: &mut Usage<'a>) {
        match p {
            Process::Skip | Process::Stop => {}
            Process::Assign(lv, e, _) => {
                self.read_expr(e, locals, u);
                self.write_lvalue(lv, locals, u);
            }
            Process::Output(c, e, _) => {
                if let crate::ast::ChanRef::Index(_, idx) = c {
                    self.read_expr(idx, locals, u);
                }
                self.read_expr(e, locals, u);
            }
            Process::Input(c, lv, _) => {
                if let crate::ast::ChanRef::Index(_, idx) = c {
                    self.read_expr(idx, locals, u);
                }
                self.write_lvalue(lv, locals, u);
            }
            Process::ReadTime(lv, _) => self.write_lvalue(lv, locals, u),
            Process::Delay(e, _) => self.read_expr(e, locals, u),
            Process::Seq(repl, ps, _) | Process::Par(repl, ps, _) => {
                locals.push();
                if let Some(r) = repl {
                    self.read_expr(&r.base, locals, u);
                    self.read_expr(&r.count, locals, u);
                    locals.declare(r.var);
                }
                for child in ps {
                    self.collect(child, locals, u);
                }
                locals.pop();
            }
            Process::PriPar(ps, _) => {
                for child in ps {
                    self.collect(child, locals, u);
                }
            }
            Process::Alt(repl, alts, _) => {
                locals.push();
                if let Some(r) = repl {
                    self.read_expr(&r.base, locals, u);
                    self.read_expr(&r.count, locals, u);
                    locals.declare(r.var);
                }
                for alt in alts {
                    if let Some(g) = &alt.guard {
                        self.read_expr(g, locals, u);
                    }
                    match &alt.kind {
                        AltKind::Input(c, lv) => {
                            if let crate::ast::ChanRef::Index(_, idx) = c {
                                self.read_expr(idx, locals, u);
                            }
                            self.write_lvalue(lv, locals, u);
                        }
                        AltKind::Timeout(e) => self.read_expr(e, locals, u),
                        AltKind::Skip => {}
                    }
                    self.collect(&alt.body, locals, u);
                }
                locals.pop();
            }
            Process::If(conds, _) => {
                for c in conds {
                    self.read_expr(&c.cond, locals, u);
                    self.collect(&c.body, locals, u);
                }
            }
            Process::While(cond, body, _) => {
                self.read_expr(cond, locals, u);
                self.collect(body, locals, u);
            }
            Process::Declared(decls, body, _) => {
                locals.push();
                for d in decls {
                    match d {
                        Decl::Var(items) | Decl::Chan(items) => {
                            for (name, size) in items {
                                if let Some(e) = size {
                                    self.read_expr(e, locals, u);
                                }
                                locals.declare(name);
                            }
                        }
                        Decl::Def(name, e) => {
                            self.read_expr(e, locals, u);
                            locals.declare(name);
                        }
                        Decl::Place(..) => {}
                        Decl::Proc(name, _, _) => {
                            // A nested PROC's body runs only when called;
                            // calls inside this branch are analysed at
                            // their call sites via parameter modes, and
                            // free-variable effects inside nested PROCs
                            // are beyond this conservative check.
                            locals.declare(name);
                        }
                    }
                }
                self.collect(body, locals, u);
                locals.pop();
            }
            Process::Call(name, actuals, _) => {
                let formals: &[super::Formal] = match self.lookup(name) {
                    Some(Binding::Proc(info)) => &info.params,
                    _ => &[],
                };
                for (i, actual) in actuals.iter().enumerate() {
                    let formal = formals.get(i).copied().unwrap_or(super::Formal {
                        mode: ParamMode::Value,
                        is_vector: false,
                    });
                    if formal.is_vector {
                        // Whole-vector arguments: exempt like vectors.
                        continue;
                    }
                    let mode = formal.mode;
                    match (mode, actual) {
                        (ParamMode::Value, e) => self.read_expr(e, locals, u),
                        (ParamMode::Var, Expr::Name(n))
                            if !locals.contains(n) && self.is_checked_scalar(n) =>
                        {
                            note(&mut u.writes, n);
                        }
                        (ParamMode::Var, Expr::Index(_, idx)) => self.read_expr(idx, locals, u),
                        _ => {}
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::compile;

    #[test]
    fn par_scalar_conflict_is_an_error() {
        let err = compile(
            "VAR x:\n\
             PAR\n\
             \x20 x := 1\n\
             \x20 x := 2",
        )
        .unwrap_err();
        assert!(err.to_string().contains("shared variables"), "{err}");
    }

    #[test]
    fn pri_par_scalar_conflict_is_a_warning() {
        let program = compile(
            "VAR x:\n\
             PRI PAR\n\
             \x20 x := 1\n\
             \x20 x := 2",
        )
        .expect("PRI PAR violation still compiles");
        assert_eq!(program.warnings.len(), 1, "{:?}", program.warnings);
        let w = &program.warnings[0];
        assert_eq!(w.line, 2);
        assert!(w.message.starts_with("PRI PAR:"), "{w}");
        assert!(w.message.contains("`x`"), "{w}");
    }

    /// Two components that both assign `a` … `f`: every compile names
    /// `a`, the alphabetically first, not whichever name a hash set
    /// happened to yield first on this run.
    #[test]
    fn a_conflict_names_the_first_variable_on_every_compile() {
        let source = |par: &str| {
            let assign = |indent: &str| {
                let names = ["f", "c", "a", "e", "b", "d"];
                names.map(|n| format!("{indent}{n} := 1\n")).concat()
            };
            format!(
                "VAR a, b, c, d, e, f:\n{par}\n  SEQ\n{}  SEQ\n{}",
                assign("    "),
                assign("    ")
            )
        };
        for _ in 0..20 {
            let err = compile(&source("PAR")).unwrap_err().to_string();
            assert!(err.contains("`a` is assigned"), "{err}");
            let program = compile(&source("PRI PAR")).expect("PRI PAR compiles");
            let warning = &program.warnings[0].message;
            assert!(warning.contains("`a` is assigned"), "{warning}");
        }
    }

    #[test]
    fn clean_pri_par_has_no_warnings() {
        let program = compile(
            "VAR x, y:\n\
             PRI PAR\n\
             \x20 x := 1\n\
             \x20 y := 2",
        )
        .expect("compiles");
        assert!(program.warnings.is_empty(), "{:?}", program.warnings);
    }
}
