//! Layer 1: source-level channel-usage analysis.
//!
//! occam's usage rules make channels point-to-point: in any `PAR`, a
//! channel may be used for input by at most one branch and for output
//! by at most one branch. This pass enforces that rule (including
//! through `PROC` channel parameters, whose directions are inferred
//! from the `PROC` body), and layers a small process/channel-graph
//! analysis on top:
//!
//! * **unconnected ends** — a declared channel that is only ever read,
//!   only ever written, or never used (warnings; `PLACE`d channels are
//!   exempt, their far end is a link);
//! * **self-communication** — one sequential flow both inputs and
//!   outputs on the same channel, which can never rendezvous with
//!   itself (warning);
//! * **trivial cyclic wait** — a two-branch `PAR` of straight-line
//!   processes in which each branch's first communication waits for
//!   one the other branch only performs later (error: a definite
//!   deadlock).
//!
//! The analysis is *definite-only* where the language rule permits:
//! channel-vector elements conflict across branches only when their
//! subscripts are provably equal (constants or plain names), and a
//! replicated `PAR` only flags uses whose subscript cannot vary with
//! the replicator index.

use std::collections::{HashMap, HashSet};

use crate::diag::{Diagnostic, Span};
use occam::ast::{
    AltKind, Alternative, ChanRef, Decl, Expr, Param, ParamMode, Pos, Process, Replicator, UnOp,
};

/// Diagnostic span for a source position: line-and-column when the
/// parser recorded a column, whole-line otherwise.
fn sp(pos: Pos) -> Span {
    if pos.col > 0 {
        Span::at(pos.line, pos.col)
    } else {
        Span::line(pos.line)
    }
}

/// Run the channel lints over a parsed program.
pub fn check(program: &Process) -> Vec<Diagnostic> {
    let mut ck = Checker::default();
    let mut usage = Usage::default();
    ck.visit(program, &mut usage);
    crate::diag::sort(&mut ck.diags);
    ck.diags
}

/// Identity of a tracked channel: a declared channel or a `PROC`
/// channel formal (whose actual varies per call site).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Key {
    Chan(u32),
    Formal(u32),
}

/// How a channel-vector use is subscripted.
#[derive(Debug, Clone, PartialEq)]
enum Index<'src> {
    /// A scalar channel (no subscript).
    Scalar,
    /// A compile-time constant subscript.
    Const(i64),
    /// A subscript depending on the named variables.
    Dynamic(Vec<&'src str>),
}

impl Index<'_> {
    /// Two uses that provably address the same channel word.
    fn definitely_same(&self, other: &Index) -> bool {
        match (self, other) {
            (Index::Scalar, Index::Scalar) => true,
            (Index::Const(a), Index::Const(b)) => a == b,
            _ => false,
        }
    }

    /// Whether the subscript can take a different value for each value
    /// of the replicator variable `var`.
    fn varies_with(&self, var: &str) -> bool {
        match self {
            Index::Dynamic(vars) => vars.contains(&var),
            _ => false,
        }
    }
}

/// One use of a channel end.
#[derive(Debug, Clone)]
struct Site<'src> {
    pos: Pos,
    index: Index<'src>,
}

impl Site<'_> {
    fn line(&self) -> u32 {
        self.pos.line
    }
}

/// All uses of one channel, split by direction.
#[derive(Debug, Clone, Default)]
struct ChanUse<'src> {
    inputs: Vec<Site<'src>>,
    outputs: Vec<Site<'src>>,
}

const SITE_CAP: usize = 16;

fn push_site<'src>(sites: &mut Vec<Site<'src>>, site: Site<'src>) {
    if sites.len() < SITE_CAP {
        sites.push(site);
    }
}

type Map<'src> = HashMap<Key, ChanUse<'src>>;

fn merge_map<'src>(dst: &mut Map<'src>, src: &Map<'src>) {
    for (key, cu) in src {
        let entry = dst.entry(*key).or_default();
        for s in &cu.inputs {
            push_site(&mut entry.inputs, s.clone());
        }
        for s in &cu.outputs {
            push_site(&mut entry.outputs, s.clone());
        }
    }
}

/// Channel usage of a process subtree. `serial` holds only uses on the
/// current sequential flow (a `PAR` contributes nothing serial to its
/// parent); `total` holds every use in the subtree.
#[derive(Debug, Clone, Default)]
struct Usage<'src> {
    serial: Map<'src>,
    total: Map<'src>,
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Chan(u32),
    Formal(u32),
    Proc(usize),
    Const(i64),
    Other,
}

#[derive(Debug, Clone, Copy)]
struct ChanInfo {
    line: u32,
    placed: bool,
}

/// Inferred channel behaviour of a `PROC`: which formals are channels,
/// and the body's usage summary over formals and free channels.
#[derive(Debug)]
struct ProcSig<'src> {
    chan_formals: Vec<Option<u32>>,
    serial: Map<'src>,
    total: Map<'src>,
}

#[derive(Debug, Clone, Copy)]
enum Dir {
    Input,
    Output,
}

/// One step of a straight-line branch, for the cyclic-wait check.
#[derive(Debug, Clone)]
struct Ev<'src> {
    key: Key,
    index: Index<'src>,
    dir: Dir,
    pos: Pos,
    name: &'src str,
}

impl Ev<'_> {
    fn rendezvous_with(&self, other: &Ev) -> bool {
        self.key == other.key
            && self.index.definitely_same(&other.index)
            && !matches!(
                (self.dir, other.dir),
                (Dir::Input, Dir::Input) | (Dir::Output, Dir::Output)
            )
    }
}

/// The lint pass. Every name in scope is on one stack, innermost last:
/// a lookup searches from the top, so a binding shadows any earlier one
/// of the same name, and closing a scope truncates to its mark.
#[derive(Default)]
struct Checker<'src> {
    bindings: Vec<(&'src str, Binding)>,
    marks: Vec<usize>,
    chans: HashMap<u32, ChanInfo>,
    names: HashMap<Key, &'src str>,
    sigs: Vec<ProcSig<'src>>,
    next_id: u32,
    warned: HashSet<(Key, &'static str)>,
    diags: Vec<Diagnostic>,
}

impl<'src> Checker<'src> {
    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        let found = self.bindings.iter().rev().find(|(n, _)| *n == name);
        found.map(|(_, b)| b)
    }

    fn bind(&mut self, name: &'src str, binding: Binding) {
        self.bindings.push((name, binding));
    }

    fn open_scope(&mut self) {
        self.marks.push(self.bindings.len());
    }

    fn close_scope(&mut self) {
        let mark = self.marks.pop().expect("a scope is open");
        self.bindings.truncate(mark);
    }

    fn display_name(&self, key: Key) -> &'src str {
        self.names.get(&key).copied().unwrap_or("<channel>")
    }

    fn is_placed(&self, key: Key) -> bool {
        match key {
            Key::Chan(id) => self.chans.get(&id).is_some_and(|c| c.placed),
            Key::Formal(_) => false,
        }
    }

    /// The channel `name` names, and how `index` subscripts it.
    fn resolve(&self, name: &str, index: Option<&Expr<'src>>) -> Option<(Key, Index<'src>)> {
        let index = index.map_or(Index::Scalar, |e| classify_index(e, self));
        match self.lookup(name)? {
            Binding::Chan(id) => Some((Key::Chan(*id), index)),
            Binding::Formal(fid) => Some((Key::Formal(*fid), index)),
            _ => None,
        }
    }

    fn record(&mut self, usage: &mut Usage<'src>, cref: &ChanRef<'src>, dir: Dir, pos: Pos) {
        let (name, index) = cref.parts();
        if let Some((key, index)) = self.resolve(name, index) {
            let site = Site { pos, index };
            for map in [&mut usage.serial, &mut usage.total] {
                let entry = map.entry(key).or_default();
                match dir {
                    Dir::Input => push_site(&mut entry.inputs, site.clone()),
                    Dir::Output => push_site(&mut entry.outputs, site.clone()),
                }
            }
        }
    }

    fn visit(&mut self, p: &Process<'src>, usage: &mut Usage<'src>) {
        match p {
            Process::Skip
            | Process::Stop
            | Process::Assign(..)
            | Process::ReadTime(..)
            | Process::Delay(..) => {}
            Process::Output(c, _, pos) => self.record(usage, c, Dir::Output, *pos),
            Process::Input(c, _, pos) => self.record(usage, c, Dir::Input, *pos),
            Process::Seq(rep, ps, _) => {
                self.with_replicator(rep.as_ref(), |ck| {
                    for p in ps {
                        ck.visit(p, usage);
                    }
                });
            }
            Process::If(arms, _) => {
                for arm in arms {
                    self.visit(&arm.body, usage);
                }
            }
            Process::While(_, body, _) => self.visit(body, usage),
            Process::Alt(rep, alts, _) | Process::PriAlt(rep, alts, _) => {
                self.with_replicator(rep.as_ref(), |ck| {
                    for alt in alts {
                        ck.visit_alt(alt, usage);
                    }
                });
            }
            Process::Par(rep, branches, _) => match rep {
                Some(rep) => self.visit_replicated_par(rep, branches, usage),
                None => self.visit_par(branches, usage),
            },
            Process::PriPar(branches, _) => self.visit_par(branches, usage),
            Process::Declared(decls, body, pos) => {
                self.visit_declared(decls, body, pos.line, usage)
            }
            Process::Call(name, actuals, pos) => self.visit_call(name, actuals, *pos, usage),
        }
    }

    fn visit_alt(&mut self, alt: &Alternative<'src>, usage: &mut Usage<'src>) {
        if let AltKind::Input(c, _) = &alt.kind {
            self.record(usage, c, Dir::Input, alt.pos);
        }
        self.visit(&alt.body, usage);
    }

    fn with_replicator(&mut self, rep: Option<&Replicator<'src>>, f: impl FnOnce(&mut Self)) {
        match rep {
            Some(rep) => {
                self.open_scope();
                self.bind(rep.var, Binding::Other);
                f(self);
                self.close_scope();
            }
            None => f(self),
        }
    }

    fn visit_declared(
        &mut self,
        decls: &[Decl<'src>],
        body: &Process<'src>,
        line: u32,
        usage: &mut Usage<'src>,
    ) {
        self.open_scope();
        let mut declared: Vec<u32> = Vec::new();
        for decl in decls {
            match decl {
                Decl::Var(names) => {
                    for &(name, _) in names {
                        self.bind(name, Binding::Other);
                    }
                }
                &Decl::Def(name, ref expr) => {
                    let binding = match const_value(expr, self) {
                        Some(v) => Binding::Const(v),
                        None => Binding::Other,
                    };
                    self.bind(name, binding);
                }
                Decl::Chan(names) => {
                    for &(name, _) in names {
                        let id = self.fresh_id();
                        self.bind(name, Binding::Chan(id));
                        self.chans.insert(
                            id,
                            ChanInfo {
                                line,
                                placed: false,
                            },
                        );
                        self.names.insert(Key::Chan(id), name);
                        declared.push(id);
                    }
                }
                Decl::Place(name, _) => {
                    if let Some(&Binding::Chan(id)) = self.lookup(name) {
                        if let Some(info) = self.chans.get_mut(&id) {
                            info.placed = true;
                        }
                    }
                }
                &Decl::Proc(name, ref params, ref body) => {
                    let sig = self.analyze_proc(params, body);
                    self.sigs.push(sig);
                    self.bind(name, Binding::Proc(self.sigs.len() - 1));
                }
            }
        }
        self.visit(body, usage);
        for id in declared {
            self.finish_channel(id, usage);
        }
        self.close_scope();
    }

    /// End-of-scope checks for one declared channel, after which its
    /// usage is dropped: it cannot appear again, and `PROC` summaries
    /// must not carry body-local channels to call sites.
    fn finish_channel(&mut self, id: u32, usage: &mut Usage<'src>) {
        let key = Key::Chan(id);
        let (name, ChanInfo { line, placed }) = (self.display_name(key), self.chans[&id]);
        if let Some(cu) = usage.serial.get(&key) {
            self.check_self_comm(key, cu);
        }
        if !placed {
            match usage.total.get(&key) {
                None => self.warn(
                    key,
                    "chan-unused",
                    Span::line(line),
                    format!("channel `{name}` is declared but never used"),
                ),
                Some(cu) if cu.inputs.is_empty() && !cu.outputs.is_empty() => self.warn(
                    key,
                    "chan-no-reader",
                    Span::line(line),
                    format!(
                        "channel `{name}` is written (line {}) but never read: the writer will block forever",
                        cu.outputs[0].line()
                    ),
                ),
                Some(cu) if cu.outputs.is_empty() && !cu.inputs.is_empty() => self.warn(
                    key,
                    "chan-no-writer",
                    Span::line(line),
                    format!(
                        "channel `{name}` is read (line {}) but never written: the reader will block forever",
                        cu.inputs[0].line()
                    ),
                ),
                Some(_) => {}
            }
        }
        usage.serial.remove(&key);
        usage.total.remove(&key);
    }

    fn check_self_comm(&mut self, key: Key, cu: &ChanUse) {
        if self.is_placed(key) {
            return;
        }
        let pair = cu.inputs.iter().find_map(|i| {
            cu.outputs
                .iter()
                .find(|o| i.index.definitely_same(&o.index))
                .map(|o| (i, o))
        });
        if let Some((i, o)) = pair {
            let name = self.display_name(key);
            let (first, second) = if i.line() <= o.line() {
                (i.pos, o.pos)
            } else {
                (o.pos, i.pos)
            };
            let (line, other) = (first.line, second.line);
            self.warn(
                key,
                "chan-self-communication",
                sp(first),
                format!(
                    "the same sequential process both inputs and outputs on channel `{name}` \
                     (lines {line} and {other}): it can never rendezvous with itself"
                ),
            );
        }
    }

    fn visit_par(&mut self, branches: &[Process<'src>], usage: &mut Usage<'src>) {
        let mut branch_usages = Vec::with_capacity(branches.len());
        for branch in branches {
            let mut bu = Usage::default();
            self.visit(branch, &mut bu);
            let keys: Vec<Key> = bu.serial.keys().copied().collect();
            for key in keys {
                let cu = bu.serial[&key].clone();
                self.check_self_comm(key, &cu);
            }
            branch_usages.push(bu);
        }

        // One inputting branch and one outputting branch per channel
        // (per provably-identical vector element).
        let mut keys: Vec<Key> = branch_usages
            .iter()
            .flat_map(|u| u.total.keys().copied())
            .collect();
        keys.sort();
        keys.dedup();
        for key in keys {
            for (dir, code) in [
                (Dir::Input, "par-chan-input"),
                (Dir::Output, "par-chan-output"),
            ] {
                let per_branch: Vec<&[Site]> = branch_usages
                    .iter()
                    .map(|bu| {
                        bu.total.get(&key).map_or(&[] as &[Site], |cu| match dir {
                            Dir::Input => &cu.inputs,
                            Dir::Output => &cu.outputs,
                        })
                    })
                    .collect();
                let conflict = per_branch
                    .iter()
                    .enumerate()
                    .flat_map(|(bi, sites)| sites.iter().map(move |s| (bi, s)))
                    .find_map(|(bi, s)| {
                        per_branch[bi + 1..]
                            .iter()
                            .flat_map(|sites| sites.iter())
                            .find(|t| s.index.definitely_same(&t.index))
                            .map(|t| (s.clone(), t.clone()))
                    });
                if let Some((a, b)) = conflict {
                    let name = self.display_name(key);
                    let what = match dir {
                        Dir::Input => "input",
                        Dir::Output => "output",
                    };
                    let (early, late) = if a.line() <= b.line() {
                        (&a, &b)
                    } else {
                        (&b, &a)
                    };
                    let (first, second) = (early.line(), late.line());
                    let late_pos = late.pos;
                    self.error(
                        key,
                        code,
                        sp(late_pos),
                        format!(
                            "channel `{name}` is used for {what} in more than one branch of \
                             a PAR (lines {first} and {second}); a channel connects exactly \
                             two processes"
                        ),
                    );
                }
            }
        }

        self.check_cyclic_wait(branches);

        for bu in &branch_usages {
            merge_map(&mut usage.total, &bu.total);
        }
    }

    fn visit_replicated_par(
        &mut self,
        rep: &Replicator<'src>,
        branches: &[Process<'src>],
        usage: &mut Usage<'src>,
    ) {
        let mut bu = Usage::default();
        self.with_replicator(Some(rep), |ck| {
            for branch in branches {
                ck.visit(branch, &mut bu);
            }
        });

        let keys: Vec<Key> = bu.serial.keys().copied().collect();
        for key in keys {
            let cu = bu.serial[&key].clone();
            self.check_self_comm(key, &cu);
        }

        // Every iteration is a branch: any use whose subscript cannot
        // vary with the replicator index is shared by all of them.
        let multi = match const_value(&rep.count, self) {
            Some(n) => n > 1,
            None => true,
        };
        if multi {
            let mut keys: Vec<Key> = bu.total.keys().copied().collect();
            keys.sort();
            for key in keys {
                let cu = bu.total[&key].clone();
                for (sites, code, what) in [
                    (&cu.inputs, "par-chan-input", "input"),
                    (&cu.outputs, "par-chan-output", "output"),
                ] {
                    if let Some(site) = sites.iter().find(|s| !s.index.varies_with(rep.var)) {
                        let name = self.display_name(key);
                        let line = site.line();
                        let pos = site.pos;
                        self.error(
                            key,
                            code,
                            sp(pos),
                            format!(
                                "channel `{name}` is used for {what} (line {line}) by every \
                                 iteration of a replicated PAR: the subscript does not vary \
                                 with `{}`",
                                rep.var
                            ),
                        );
                    }
                }
            }
        }
        merge_map(&mut usage.total, &bu.total);
    }

    fn visit_call(&self, name: &str, actuals: &[Expr<'src>], pos: Pos, usage: &mut Usage<'src>) {
        let Some(&Binding::Proc(idx)) = self.lookup(name) else {
            return;
        };
        let sig = &self.sigs[idx];
        // Map the callee's channel formals to this call's actuals.
        let mut remap: HashMap<u32, Option<(Key, Index)>> = HashMap::new();
        for (i, formal) in sig.chan_formals.iter().enumerate() {
            if let Some(fid) = formal {
                let place = actuals.get(i).and_then(Expr::as_place);
                remap.insert(
                    *fid,
                    place.and_then(|(name, index)| self.resolve(name, index)),
                );
            }
        }
        // A formal's uses happen here, on the actual it names; an actual
        // that names no channel drops them.
        let rewrite = |map: &Map<'src>| -> Map<'src> {
            let mut out = Map::new();
            for (key, cu) in map {
                let actual = match key {
                    Key::Formal(fid) => remap.get(fid),
                    Key::Chan(_) => None,
                };
                let (key, index) = match actual {
                    Some(Some((key, index))) => (*key, Some(index)),
                    Some(None) => continue,
                    None => (*key, None),
                };
                let site_of = |s: &Site<'src>| match index {
                    Some(index) => Site {
                        pos,
                        index: index.clone(),
                    },
                    None => s.clone(),
                };
                let entry = out.entry(key).or_default();
                for s in &cu.inputs {
                    push_site(&mut entry.inputs, site_of(s));
                }
                for s in &cu.outputs {
                    push_site(&mut entry.outputs, site_of(s));
                }
            }
            out
        };
        let (serial, total) = (rewrite(&sig.serial), rewrite(&sig.total));
        merge_map(&mut usage.serial, &serial);
        merge_map(&mut usage.total, &serial);
        merge_map(&mut usage.total, &total);
    }

    fn analyze_proc(&mut self, params: &[Param<'src>], body: &Process<'src>) -> ProcSig<'src> {
        self.open_scope();
        let mut chan_formals = Vec::with_capacity(params.len());
        for param in params {
            match param.mode {
                ParamMode::Chan => {
                    let fid = self.fresh_id();
                    self.bind(param.name, Binding::Formal(fid));
                    self.names.insert(Key::Formal(fid), param.name);
                    chan_formals.push(Some(fid));
                }
                ParamMode::Value | ParamMode::Var => {
                    self.bind(param.name, Binding::Other);
                    chan_formals.push(None);
                }
            }
        }
        let mut body_usage = Usage::default();
        self.visit(body, &mut body_usage);
        self.close_scope();
        ProcSig {
            chan_formals,
            serial: body_usage.serial,
            total: body_usage.total,
        }
    }

    /// Definite-deadlock check for an N-branch `PAR` of straight-line
    /// processes. Simulate the rendezvous interleaving to a fixpoint
    /// (any pair of branch heads that can communicate does); at the
    /// fixpoint, build the wait-for graph over the stuck branches —
    /// an edge `i -> j` when the head of branch `i` can only
    /// rendezvous with an event branch `j` has not reached yet. Since
    /// each branch is straight-line, a branch advances only by
    /// completing its head, so any cycle in this graph is a definite
    /// deadlock; the full cycle is reported with every blocked
    /// communication's channel and line.
    fn check_cyclic_wait(&mut self, branches: &[Process<'src>]) {
        if branches.len() < 2 {
            return;
        }
        // Every branch must have a trivially-ordered communication
        // sequence, or the simulation is unsound (a branch we cannot
        // model might supply any rendezvous).
        let mut seqs = Vec::with_capacity(branches.len());
        for b in branches {
            let Some(e) = self.extract(b) else { return };
            seqs.push(e);
        }
        let n = seqs.len();
        let mut heads = vec![0usize; n];
        loop {
            let mut advanced = false;
            'scan: for i in 0..n {
                let Some(x) = seqs[i].get(heads[i]) else {
                    continue;
                };
                for j in i + 1..n {
                    let Some(y) = seqs[j].get(heads[j]) else {
                        continue;
                    };
                    if x.rendezvous_with(y) {
                        heads[i] += 1;
                        heads[j] += 1;
                        advanced = true;
                        break 'scan;
                    }
                }
            }
            if !advanced {
                break;
            }
        }
        // Wait-for edges. A stuck head whose partner never occurs is
        // an unconnected end (covered by the graph lints), not a wait.
        // At the fixpoint no two current heads rendezvous, so scanning
        // from `heads[j]` only finds strictly-later partners.
        let mut edge: Vec<Option<usize>> = vec![None; n];
        for i in 0..n {
            let Some(x) = seqs[i].get(heads[i]) else {
                continue;
            };
            edge[i] = (0..n)
                .find(|&j| j != i && seqs[j][heads[j]..].iter().any(|e| x.rendezvous_with(e)));
        }
        // Each node has at most one successor: walk every chain once
        // and report the cycle it runs into, if any.
        let mut color = vec![0u8; n]; // 0 = new, 1 = on current chain, 2 = done
        for s in 0..n {
            if color[s] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut u = s;
            while color[u] == 0 {
                color[u] = 1;
                path.push(u);
                match edge[u] {
                    Some(v) => u = v,
                    None => break,
                }
            }
            if color[u] == 1 && edge[u].is_some() {
                let start = path.iter().position(|&p| p == u).expect("on chain");
                self.report_cycle(&seqs, &heads, &path[start..]);
            }
            for &p in &path {
                color[p] = 2;
            }
        }
    }

    /// Report one wait-for cycle, naming every blocked communication.
    fn report_cycle(&mut self, seqs: &[Vec<Ev<'src>>], heads: &[usize], cycle: &[usize]) {
        let evs: Vec<&Ev> = cycle.iter().map(|&i| &seqs[i][heads[i]]).collect();
        let chain = evs
            .iter()
            .map(|e| format!("`{}` (line {})", e.name, e.pos.line))
            .collect::<Vec<_>>()
            .join(", ");
        let anchor = evs
            .iter()
            .min_by_key(|e| (e.pos.line, e.pos.col))
            .expect("cycle is nonempty");
        let (key, pos, n) = (anchor.key, anchor.pos, cycle.len());
        self.error(
            key,
            "par-deadlock",
            sp(pos),
            format!(
                "PAR branches deadlock: the communications on {chain} form a cyclic wait \
                 among {n} branches; each waits for a rendezvous another blocked branch \
                 only reaches later"
            ),
        );
    }

    /// The straight-line communication sequence of a branch, or `None`
    /// if the branch contains anything (choice, loops, calls, placed
    /// or dynamically-subscripted channels) that makes the order
    /// non-trivial.
    fn extract(&self, p: &Process<'src>) -> Option<Vec<Ev<'src>>> {
        match p {
            Process::Skip | Process::Assign(..) | Process::ReadTime(..) | Process::Delay(..) => {
                Some(Vec::new())
            }
            Process::Seq(None, ps, _) => {
                let mut out = Vec::new();
                for p in ps {
                    out.extend(self.extract(p)?);
                }
                Some(out)
            }
            Process::Output(c, _, pos) => self.extract_comm(c, Dir::Output, *pos),
            Process::Input(c, _, pos) => self.extract_comm(c, Dir::Input, *pos),
            _ => None,
        }
    }

    fn extract_comm(&self, c: &ChanRef<'src>, dir: Dir, pos: Pos) -> Option<Vec<Ev<'src>>> {
        let (name, index) = c.parts();
        let (key, index) = self.resolve(name, index)?;
        if self.is_placed(key) || matches!(index, Index::Dynamic(_)) {
            return None;
        }
        Some(vec![Ev {
            name: self.display_name(key),
            key,
            index,
            dir,
            pos,
        }])
    }

    fn warn(&mut self, key: Key, code: &'static str, span: Span, message: String) {
        if self.warned.insert((key, code)) {
            self.diags.push(Diagnostic::warning(code, span, message));
        }
    }

    fn error(&mut self, key: Key, code: &'static str, span: Span, message: String) {
        if self.warned.insert((key, code)) {
            self.diags.push(Diagnostic::error(code, span, message));
        }
    }
}

/// Classify a channel-vector subscript.
fn classify_index<'src>(e: &Expr<'src>, ck: &Checker) -> Index<'src> {
    match const_value(e, ck) {
        Some(v) => Index::Const(v),
        None => {
            let mut vars = Vec::new();
            expr_vars(e, &mut vars);
            Index::Dynamic(vars)
        }
    }
}

/// Evaluate compile-time constants: literals, `DEF` names, negation.
fn const_value(e: &Expr, ck: &Checker) -> Option<i64> {
    match e {
        Expr::Literal(v) => Some(*v),
        Expr::True => Some(1),
        Expr::False => Some(0),
        Expr::Name(n) => match ck.lookup(n) {
            Some(Binding::Const(v)) => Some(*v),
            _ => None,
        },
        Expr::Un(UnOp::Neg, inner) => const_value(inner, ck).map(|v| -v),
        _ => None,
    }
}

/// Collect the variable names an expression depends on.
fn expr_vars<'src>(e: &Expr<'src>, out: &mut Vec<&'src str>) {
    match e {
        Expr::Literal(_) | Expr::True | Expr::False => {}
        Expr::Name(n) => out.push(n),
        Expr::Index(n, inner) | Expr::ByteIndex(n, inner) => {
            out.push(n);
            expr_vars(inner, out);
        }
        Expr::Bin(_, a, b) => {
            expr_vars(a, out);
            expr_vars(b, out);
        }
        Expr::Un(_, inner) => expr_vars(inner, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let ast = occam::parse(src).expect("fixture parses");
        check(&ast)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_producer_consumer_passes() {
        let diags = lint(
            "CHAN c:\n\
             PAR\n\
             \x20 c ! 1\n\
             \x20 VAR x:\n\
             \x20 c ? x",
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn two_writers_in_par_is_an_error() {
        let diags = lint(
            "CHAN c:\n\
             PAR\n\
             \x20 c ! 1\n\
             \x20 c ! 2\n\
             \x20 VAR x:\n\
             \x20 c ? x",
        );
        assert_eq!(codes(&diags), ["par-chan-output"]);
        assert!(diags[0].is_error());
        assert_eq!(diags[0].span.source_line(), Some(4));
        // The span carries a column: the second `c ! 2` starts at col 3.
        assert_eq!(diags[0].span, Span::at(4, 3));
    }

    #[test]
    fn two_readers_in_par_is_an_error() {
        let diags = lint(
            "CHAN c:\n\
             VAR x, y:\n\
             PAR\n\
             \x20 c ? x\n\
             \x20 c ? y\n\
             \x20 c ! 7",
        );
        assert_eq!(codes(&diags), ["par-chan-input"]);
    }

    #[test]
    fn conflict_through_proc_parameter_direction() {
        // sink inputs on its formal, so both branches input on c.
        let diags = lint(
            "CHAN c:\n\
             PROC sink(CHAN in) =\n\
             \x20 VAR x:\n\
             \x20 in ? x\n\
             :\n\
             VAR y:\n\
             PAR\n\
             \x20 sink(c)\n\
             \x20 c ? y\n\
             \x20 c ! 1",
        );
        assert_eq!(codes(&diags), ["par-chan-input"]);
    }

    #[test]
    fn vector_elements_do_not_conflict() {
        let diags = lint(
            "CHAN c[2]:\n\
             VAR x, y:\n\
             PAR\n\
             \x20 c[0] ! 1\n\
             \x20 c[1] ! 2\n\
             \x20 SEQ\n\
             \x20   c[0] ? x\n\
             \x20   c[1] ? y",
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn replicated_par_needs_varying_subscript() {
        let diags = lint(
            "CHAN c[4]:\n\
             CHAN out:\n\
             PAR i = [0 FOR 4]\n\
             \x20 out ! 1",
        );
        assert!(codes(&diags).contains(&"par-chan-output"), "got {diags:?}");
    }

    #[test]
    fn replicated_par_with_indexed_channels_passes() {
        let diags = lint(
            "CHAN c[4]:\n\
             PAR i = [0 FOR 4]\n\
             \x20 c[i] ! i",
        );
        assert!(!codes(&diags).contains(&"par-chan-output"), "got {diags:?}");
    }

    #[test]
    fn unconnected_ends_warn() {
        let diags = lint(
            "CHAN c:\n\
             c ! 1",
        );
        assert_eq!(codes(&diags), ["chan-no-reader"]);
        assert!(!diags[0].is_error());
        let diags = lint(
            "CHAN c:\n\
             VAR x:\n\
             c ? x",
        );
        assert_eq!(codes(&diags), ["chan-no-writer"]);
        let diags = lint(
            "CHAN c:\n\
             SKIP",
        );
        assert_eq!(codes(&diags), ["chan-unused"]);
    }

    #[test]
    fn placed_channels_are_exempt_from_connection_checks() {
        let diags = lint(
            "CHAN c:\n\
             PLACE c AT 0:\n\
             c ! 1",
        );
        assert!(diags.is_empty(), "got {diags:?}");
    }

    #[test]
    fn self_communication_warns() {
        let diags = lint(
            "CHAN c:\n\
             VAR x:\n\
             SEQ\n\
             \x20 c ! 1\n\
             \x20 c ? x",
        );
        assert!(
            codes(&diags).contains(&"chan-self-communication"),
            "got {diags:?}"
        );
    }

    #[test]
    fn cyclic_two_process_wait_is_an_error() {
        // Each branch inputs first and outputs second: classic deadlock.
        let diags = lint(
            "CHAN a, b:\n\
             VAR x, y:\n\
             PAR\n\
             \x20 SEQ\n\
             \x20   a ? x\n\
             \x20   b ! 1\n\
             \x20 SEQ\n\
             \x20   b ? y\n\
             \x20   a ! 2",
        );
        assert!(codes(&diags).contains(&"par-deadlock"), "got {diags:?}");
    }

    #[test]
    fn matching_order_does_not_deadlock() {
        let diags = lint(
            "CHAN a, b:\n\
             VAR x, y:\n\
             PAR\n\
             \x20 SEQ\n\
             \x20   a ! 1\n\
             \x20   b ? y\n\
             \x20 SEQ\n\
             \x20   a ? x\n\
             \x20   b ! 2",
        );
        assert!(!codes(&diags).contains(&"par-deadlock"), "got {diags:?}");
    }

    #[test]
    fn three_process_cyclic_wait_is_an_error() {
        // a waits on b, b waits on c, c waits on a: a three-party
        // cycle no pairwise check can see.
        let diags = lint(
            "CHAN a, b, c:\n\
             VAR x, y, z:\n\
             PAR\n\
             \x20 SEQ\n\
             \x20   a ? x\n\
             \x20   b ! 1\n\
             \x20 SEQ\n\
             \x20   b ? y\n\
             \x20   c ! 1\n\
             \x20 SEQ\n\
             \x20   c ? z\n\
             \x20   a ! 1",
        );
        let d = diags
            .iter()
            .find(|d| d.code == "par-deadlock")
            .unwrap_or_else(|| panic!("no par-deadlock in {diags:?}"));
        assert!(d.message.contains("3 branches"), "got {}", d.message);
        for name in ["`a`", "`b`", "`c`"] {
            assert!(d.message.contains(name), "missing {name} in {}", d.message);
        }
    }

    #[test]
    fn three_process_pipeline_does_not_deadlock() {
        let diags = lint(
            "CHAN a, b:\n\
             VAR x, y:\n\
             PAR\n\
             \x20 a ! 1\n\
             \x20 SEQ\n\
             \x20   a ? x\n\
             \x20   b ! 2\n\
             \x20 b ? y",
        );
        assert!(!codes(&diags).contains(&"par-deadlock"), "got {diags:?}");
    }

    #[test]
    fn unmodelled_branch_suppresses_deadlock_check() {
        // The WHILE branch could supply either rendezvous first, so
        // the simulation must not claim a definite deadlock.
        let diags = lint(
            "CHAN a, b:\n\
             VAR x, y, going:\n\
             PAR\n\
             \x20 SEQ\n\
             \x20   a ? x\n\
             \x20   b ! 1\n\
             \x20 SEQ\n\
             \x20   going := 1\n\
             \x20   WHILE going > 0\n\
             \x20     SEQ\n\
             \x20       b ? y\n\
             \x20       a ! 2\n\
             \x20       going := 0",
        );
        assert!(!codes(&diags).contains(&"par-deadlock"), "got {diags:?}");
    }
}
