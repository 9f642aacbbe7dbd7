//! Lock-order analysis: the acquired-while-held graph.
//!
//! The engine's deadlock freedom rests on a total acquisition order
//! (declared in `lint.toml` under `[lock-order]`): the txn commit lock is
//! outermost, then the published-version `RwLock`, then page/pool/I/O
//! internals. This pass checks that order *mechanically*:
//!
//! 1. **Locks** are declared as `(file, field, methods)` triples — an
//!    acquisition site is a call of `field.lock()` / `field.read()` /
//!    `field.write()` on a declared field in its declaring file. Only
//!    declared fields count, so ordinary `io.read(path)` file I/O never
//!    aliases a lock.
//! 2. **Functions** of the crates owning those files are extracted
//!    lexically (body token ranges, return types). A per-function
//!    *during* set — every lock the function may acquire, transitively
//!    through calls — is computed to a fixpoint over the call graph
//!    (callees resolved by name, same-file first).
//! 3. Each function body is **simulated**: guards bound with
//!    `let g = …` are held until `drop(g)` or their block ends;
//!    temporary guards (`*x.write() = v;`) die at the statement's `;`.
//!    Helpers whose return type contains `Guard` (e.g.
//!    `SharedCatalog::lock`) transfer their acquisitions to the caller's
//!    binding. Every acquisition — direct or via a callee's during set —
//!    while another lock is held adds an edge *held → acquired*.
//! 4. The edge set must be consistent with the declared order and
//!    acyclic; re-acquiring a held lock is reported as a self-deadlock.
//! 5. The model only sees what is declared, so it must be **complete**:
//!    in the analysed files, a struct field whose type is `Mutex<…>` or
//!    `RwLock<…>` and that no `[[lock]]` entry names is a finding.
//!
//! The analysis is lexical and over-approximate in the safe direction for
//! a total order: a spurious *forward* edge is harmless, and the files it
//! covers bind guards with `let` (no `match x.lock() { … }` holds), which
//! keeps the release model accurate. Limitations are documented in
//! `docs/static-analysis.md`.

use crate::config::{Config, LockSpec};
use crate::lexer::{ident_at, is_ident, is_punct, Lexed, Tok, Token};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

/// The pass name findings are reported under.
pub const PASS: &str = "lock-order";

struct FnInfo {
    name: String,
    file: usize,
    body: (usize, usize),
    returns_guard: bool,
    /// Whether the first parameter is a `self` receiver.
    takes_self: bool,
    /// Direct acquisition sites: (lock index, token index).
    direct: Vec<(usize, usize)>,
    /// Call sites: (callee name, token index, resolution strictness).
    calls: Vec<(String, usize, CallKind)>,
}

/// How a call site may be resolved to definitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallKind {
    /// `self.name(…)`, `Self::name(…)`, or a bare `name(…)` — resolve
    /// normally (same-file definitions first, else global).
    Direct,
    /// A `Type::name(…)` path — the type is not resolved, so resolve only
    /// when exactly one function of that name exists in scope.
    UniqueOnly,
    /// A method call on some other receiver (`self.pool.get_or_load(…)`,
    /// `io.write(…)`) — the receiver's type is unknown, so resolve only
    /// when exactly one function of that name takes a `self` receiver (a
    /// free `fn collect` is never the target of `.collect()`). Generic
    /// collision-prone names (`clone`, `get`, `write`) stay opaque;
    /// distinctive helpers still connect the cross-object chains.
    Method,
}

/// One acquired-while-held edge with its witness site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Held lock (index into the config's lock list).
    pub held: usize,
    /// Acquired lock.
    pub acquired: usize,
    /// Held lock's declared name (`txn.commit`).
    pub held_name: String,
    /// Acquired lock's declared name.
    pub acquired_name: String,
    /// Witness file path.
    pub file: String,
    /// Witness line.
    pub line: u32,
    /// Function the acquisition happens in.
    pub function: String,
}

/// Resolves a callee name from `caller_file`. `Direct` calls prefer
/// same-file definitions and fall back to every definition in scope;
/// `UniqueOnly` calls resolve solely when the name is unambiguous, and
/// `Method` calls when it is among the functions taking `self`.
fn resolve(
    by_name: &BTreeMap<String, Vec<usize>>,
    fns: &[FnInfo],
    caller_file: usize,
    name: &str,
    kind: CallKind,
) -> Vec<usize> {
    let Some(candidates) = by_name.get(name) else {
        return Vec::new();
    };
    let only = |picked: Vec<usize>| {
        if picked.len() == 1 {
            picked
        } else {
            Vec::new()
        }
    };
    let methods = || candidates.iter().copied().filter(|&i| fns[i].takes_self);
    match kind {
        CallKind::UniqueOnly => return only(candidates.clone()),
        CallKind::Method => return only(methods().collect()),
        CallKind::Direct => {}
    }
    let same_file: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&i| fns[i].file == caller_file)
        .collect();
    if same_file.is_empty() {
        candidates.clone()
    } else {
        same_file
    }
}

/// Runs the pass over the lexed files (the caller passes the lib files of
/// every crate that owns a declared lock).
pub fn run(files: &[&Lexed], config: &Config) -> (Vec<Finding>, Vec<Edge>) {
    let mut findings = Vec::new();
    if config.locks.is_empty() {
        return (findings, Vec::new());
    }
    let mut fns: Vec<FnInfo> = Vec::new();
    for (file_idx, lexed) in files.iter().enumerate() {
        extract_fns(lexed, file_idx, config, &mut fns);
        findings.extend(undeclared_lock_fields(lexed, config));
    }
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_name.entry(f.name.clone()).or_default().push(i);
    }
    // Fixpoint: during[f] = direct locks ∪ during of every callee.
    let mut during: Vec<BTreeSet<usize>> = fns
        .iter()
        .map(|f| f.direct.iter().map(|&(l, _)| l).collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..fns.len() {
            let mut merged = during[i].clone();
            for (callee, _, kind) in &fns[i].calls {
                for t in resolve(&by_name, &fns, fns[i].file, callee, *kind) {
                    merged.extend(during[t].iter().copied());
                }
            }
            if merged.len() != during[i].len() {
                during[i] = merged;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Simulate every function, collecting edges.
    let mut edges: Vec<Edge> = Vec::new();
    for f in &fns {
        simulate(f, files[f.file], &fns, &by_name, &during, &mut edges);
    }
    edges.sort_by(|a, b| {
        (a.held, a.acquired, &a.file, a.line).cmp(&(b.held, b.acquired, &b.file, b.line))
    });
    edges.dedup_by(|a, b| a.held == b.held && a.acquired == b.acquired);
    for edge in &mut edges {
        edge.held_name = config.locks[edge.held].name.clone();
        edge.acquired_name = config.locks[edge.acquired].name.clone();
    }
    // Check edges against the declared order.
    let order_pos: BTreeMap<&str, usize> = config
        .lock_order
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let declared = config.lock_order.join(" → ");
    for edge in &edges {
        let held = &config.locks[edge.held].name;
        let acquired = &config.locks[edge.acquired].name;
        if edge.held == edge.acquired {
            findings.push(Finding {
                pass: PASS,
                file: edge.file.clone(),
                line: edge.line,
                message: format!(
                    "`{held}` re-acquired in `{}` while already held (self-deadlock)",
                    edge.function
                ),
            });
            continue;
        }
        let (Some(&ph), Some(&pa)) = (
            order_pos.get(held.as_str()),
            order_pos.get(acquired.as_str()),
        ) else {
            continue; // config validation guarantees both are declared
        };
        if ph > pa {
            findings.push(Finding {
                pass: PASS,
                file: edge.file.clone(),
                line: edge.line,
                message: format!(
                    "`{acquired}` acquired in `{}` while `{held}` is held — violates the \
                     declared order {declared}",
                    edge.function
                ),
            });
        }
    }
    // Belt-and-braces: an explicit cycle check over the edge graph (the
    // total-order check subsumes it when every lock is declared, but the
    // graph is tiny and the invariant is load-bearing).
    for cycle in find_cycles(config.locks.len(), &edges) {
        let names: Vec<&str> = cycle
            .iter()
            .map(|&i| config.locks[i].name.as_str())
            .collect();
        findings.push(Finding {
            pass: PASS,
            file: "lint.toml".to_string(),
            line: 0,
            message: format!("lock acquisition cycle: {}", names.join(" → ")),
        });
    }
    (findings, edges)
}

/// Lock-typed struct fields of `lexed` that `lint.toml` does not declare: a
/// lock outside the model is a lock whose order nothing checks. A field is
/// an identifier directly inside a `struct … { }` body followed by a single
/// `:`; its type counts when the path before the first `<` ends in `Mutex`
/// or `RwLock` (`parking_lot::RwLock<…>` included).
fn undeclared_lock_fields(lexed: &Lexed, config: &Config) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let mut findings = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(toks, i, "struct") || lexed.is_test_line(toks[i].line) {
            i += 1;
            continue;
        }
        // The body `{` — or no body at all (`struct A;`, `struct A(T);`).
        let mut k = i + 1;
        while k < toks.len() && !matches!(toks[k].tok, Tok::Punct('{' | ';' | '(')) {
            k += 1;
        }
        if !is_punct(toks, k, '{') {
            i = k.max(i + 1);
            continue;
        }
        let mut depth = 0i32;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct('{' | '(' | '[' | '<') => depth += 1,
                // `->` in a `fn(..) -> T` field type closes nothing.
                Tok::Punct('>') if is_punct(toks, k - 1, '-') => {}
                Tok::Punct('}' | ')' | ']' | '>') => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                break;
            }
            let field = ident_at(toks, k).filter(|_| {
                depth == 1 && is_punct(toks, k + 1, ':') && !is_punct(toks, k + 2, ':')
            });
            if let Some(field) = field {
                let mut t = k + 2;
                while ident_at(toks, t).is_some() && is_punct(toks, t + 1, ':') {
                    t += 3; // `path::`
                }
                let lock_typed = matches!(ident_at(toks, t), Some("Mutex" | "RwLock"))
                    && is_punct(toks, t + 1, '<');
                let declared = config
                    .locks
                    .iter()
                    .any(|s| s.file == lexed.path && s.field == field);
                if lock_typed && !declared {
                    findings.push(Finding {
                        pass: PASS,
                        file: lexed.path.clone(),
                        line: toks[k].line,
                        message: format!(
                            "field `{field}` is a lock that no [[lock]] entry in lint.toml \
                             declares — name it and give it a place in [lock-order]"
                        ),
                    });
                }
            }
            k += 1;
        }
        i = k + 1;
    }
    findings
}

/// Extracts function bodies, direct acquisition sites, and call sites.
fn extract_fns(lexed: &Lexed, file_idx: usize, config: &Config, out: &mut Vec<FnInfo>) {
    let toks = &lexed.tokens;
    let specs: Vec<(usize, &LockSpec)> = config
        .locks
        .iter()
        .enumerate()
        .filter(|(_, s)| s.file == lexed.path)
        .collect();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(toks, i, "fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(toks, i + 1) else {
            i += 1;
            continue;
        };
        if lexed.is_test_line(toks[i].line) {
            i += 2;
            continue;
        }
        // Find the body `{` (or a `;` for body-less trait declarations)
        // outside the signature's parens/brackets.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut arrow_at: Option<usize> = None;
        let body_start = loop {
            match toks.get(j).map(|t| &t.tok) {
                None => break None,
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => depth += 1,
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => depth -= 1,
                Some(Tok::Punct('{')) if depth == 0 => break Some(j),
                Some(Tok::Punct(';')) if depth == 0 => break None,
                Some(Tok::Punct('-')) if depth == 0 && is_punct(toks, j + 1, '>') => {
                    arrow_at = Some(j);
                }
                _ => {}
            }
            j += 1;
        };
        let Some(start) = body_start else {
            i = j + 1;
            continue;
        };
        let returns_guard = arrow_at.is_some_and(|a| {
            toks[a..start]
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s.contains("Guard")))
        });
        // Match the body braces.
        let mut brace = 0i32;
        let mut end = start;
        while end < toks.len() {
            match toks[end].tok {
                Tok::Punct('{') => brace += 1,
                Tok::Punct('}') => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let mut info = FnInfo {
            name: name.to_string(),
            file: file_idx,
            body: (start, end),
            returns_guard,
            takes_self: takes_self(toks, i + 1),
            direct: Vec::new(),
            calls: Vec::new(),
        };
        let mut k = start;
        while k < end {
            if let Some(lock) = acquisition_at(toks, k, &specs) {
                info.direct.push((lock, k));
                k += 4; // skip `field . method (`
                continue;
            }
            if let (Some(callee), true) = (ident_at(toks, k), is_punct(toks, k + 1, '(')) {
                // A declared acquisition method name (`lock`/`read`/
                // `write`) on an arbitrary receiver is a synchronization
                // primitive, not a helper — `failure.lock()` on a local
                // mutex must not resolve by name to a `fn lock` helper.
                let primitive = config
                    .locks
                    .iter()
                    .any(|s| s.methods.iter().any(|m| m == callee));
                match call_kind(toks, k) {
                    Some(CallKind::UniqueOnly | CallKind::Method) if primitive => {}
                    // A bare `drop(g)` is the prelude's release, which the
                    // simulation models — never a call of some `fn drop`
                    // (an `impl Drop`) that happens to be in scope.
                    Some(CallKind::Direct) if callee == "drop" && bare_call(toks, k) => {}
                    Some(kind) => info.calls.push((callee.to_string(), k, kind)),
                    None => {}
                }
            }
            k += 1;
        }
        out.push(info);
        i = end.max(i + 1);
    }
}

/// Classifies the call whose name sits at `k`, or `None` for a function
/// definition. `self.name(…)`, `Self::name(…)`, and bare `name(…)` calls
/// resolve normally; `Type::name(…)` paths resolve only if the name is
/// unique in scope, and method calls on any other receiver only if it is
/// unique among methods — by-name resolution of generic method names
/// (`clone`, `get`, `write`) would merge unrelated during-sets into
/// phantom held locks.
fn call_kind(toks: &[Token], k: usize) -> Option<CallKind> {
    if k == 0 {
        return Some(CallKind::Direct);
    }
    if is_ident(toks, k - 1, "fn") {
        return None; // the definition itself
    }
    if is_punct(toks, k - 1, '.') {
        return if k >= 2 && is_ident(toks, k - 2, "self") {
            Some(CallKind::Direct)
        } else {
            Some(CallKind::Method)
        };
    }
    if is_punct(toks, k - 1, ':') {
        return if k >= 3 && is_punct(toks, k - 2, ':') && is_ident(toks, k - 3, "Self") {
            Some(CallKind::Direct)
        } else {
            Some(CallKind::UniqueOnly)
        };
    }
    Some(CallKind::Direct)
}

/// Whether the call whose name sits at `k` is a bare `name(…)`: no
/// receiver and no path before it.
fn bare_call(toks: &[Token], k: usize) -> bool {
    k == 0 || !(is_punct(toks, k - 1, '.') || is_punct(toks, k - 1, ':'))
}

/// Whether the function whose name sits at `name_at` takes a `self`
/// receiver: its first parameter, after any generic list, names `self`.
fn takes_self(toks: &[Token], name_at: usize) -> bool {
    let mut j = name_at + 1;
    if is_punct(toks, j, '<') {
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].tok {
                Tok::Punct('<') => depth += 1,
                // `->` inside a bound (`F: Fn() -> T`) closes nothing.
                Tok::Punct('>') if !is_punct(toks, j - 1, '-') => depth -= 1,
                _ => {}
            }
            j += 1;
            if depth == 0 {
                break;
            }
        }
    }
    is_punct(toks, j, '(')
        && toks[j + 1..]
            .iter()
            .take_while(|t| !matches!(t.tok, Tok::Punct(',' | ')' | ':')))
            .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "self"))
}

/// Whether tokens at `k` form `field.method(` for a declared lock of this
/// file; returns the lock index.
fn acquisition_at(toks: &[Token], k: usize, specs: &[(usize, &LockSpec)]) -> Option<usize> {
    let field = ident_at(toks, k)?;
    if !is_punct(toks, k + 1, '.') {
        return None;
    }
    let method = ident_at(toks, k + 2)?;
    if !is_punct(toks, k + 3, '(') {
        return None;
    }
    specs
        .iter()
        .find(|(_, s)| s.field == field && s.methods.iter().any(|m| m == method))
        .map(|(idx, _)| *idx)
}

struct Held {
    lock: usize,
    binder: Option<String>,
    depth: i32,
    temp: bool,
}

/// Lexically simulates one function body, appending held→acquired edges.
fn simulate(
    f: &FnInfo,
    lexed: &Lexed,
    fns: &[FnInfo],
    by_name: &BTreeMap<String, Vec<usize>>,
    during: &[BTreeSet<usize>],
    edges: &mut Vec<Edge>,
) {
    let toks = &lexed.tokens;
    let (start, end) = f.body;
    let mut held: Vec<Held> = Vec::new();
    let mut depth = 0i32;
    let direct: BTreeMap<usize, usize> = f.direct.iter().map(|&(l, k)| (k, l)).collect();
    let calls: BTreeMap<usize, (&str, CallKind)> = f
        .calls
        .iter()
        .map(|(n, k, kind)| (*k, (n.as_str(), *kind)))
        .collect();
    let mut push_edges = |held: &[Held], acquired: &BTreeSet<usize>, line: u32| {
        for h in held {
            for &l in acquired {
                edges.push(Edge {
                    held: h.lock,
                    acquired: l,
                    // Names are filled in by `run` once edges are final.
                    held_name: String::new(),
                    acquired_name: String::new(),
                    file: lexed.path.clone(),
                    line,
                    function: f.name.clone(),
                });
            }
        }
    };
    let mut k = start;
    while k < end {
        match &toks[k].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                held.retain(|h| !h.temp && h.depth <= depth);
            }
            Tok::Punct(';') => held.retain(|h| !h.temp),
            Tok::Ident(name) if name == "drop" && is_punct(toks, k + 1, '(') => {
                if let (Some(victim), true) = (ident_at(toks, k + 2), is_punct(toks, k + 3, ')')) {
                    held.retain(|h| h.binder.as_deref() != Some(victim));
                    k += 4;
                    continue;
                }
            }
            _ => {}
        }
        if let Some(&lock) = direct.get(&k) {
            push_edges(&held, &BTreeSet::from([lock]), toks[k].line);
            let binder = binder_of(toks, start, k);
            held.push(Held {
                lock,
                temp: binder.is_none(),
                binder,
                depth,
            });
            k += 4;
            continue;
        }
        if let Some(&(callee, kind)) = calls.get(&k) {
            let targets = resolve(by_name, fns, f.file, callee, kind);
            let mut acquired: BTreeSet<usize> = BTreeSet::new();
            let mut guard_ret = false;
            for &t in &targets {
                acquired.extend(during[t].iter().copied());
                guard_ret |= fns[t].returns_guard;
            }
            if !acquired.is_empty() {
                push_edges(&held, &acquired, toks[k].line);
                if guard_ret {
                    // The helper hands its guard(s) to this statement's
                    // binding (e.g. `let st = self.lock();`).
                    let binder = binder_of(toks, start, k);
                    for &l in &acquired {
                        held.push(Held {
                            lock: l,
                            temp: binder.is_none(),
                            binder: binder.clone(),
                            depth,
                        });
                    }
                }
            }
        }
        k += 1;
    }
}

/// Finds the `let`-binding (or plain reassignment) target of the statement
/// containing token `k`, scanning back to the statement boundary.
fn binder_of(toks: &[Token], body_start: usize, k: usize) -> Option<String> {
    let mut j = k;
    let mut eq_at: Option<usize> = None;
    while j > body_start && k - j <= 48 {
        j -= 1;
        match &toks[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            Tok::Punct('=') => {
                // Skip `==`, `<=`, `>=`, `!=` and compound assignments.
                let prev_op = matches!(
                    toks.get(j.wrapping_sub(1)).map(|t| &t.tok),
                    Some(Tok::Punct('='))
                        | Some(Tok::Punct('<'))
                        | Some(Tok::Punct('>'))
                        | Some(Tok::Punct('!'))
                        | Some(Tok::Punct('+'))
                        | Some(Tok::Punct('-'))
                        | Some(Tok::Punct('*'))
                        | Some(Tok::Punct('/'))
                );
                let next_eq = matches!(toks.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('=')));
                if !prev_op && !next_eq {
                    eq_at = Some(j);
                }
            }
            _ => {}
        }
    }
    let eq = eq_at?;
    ident_at(toks, eq - 1).map(|s| s.to_string())
}

/// Simple DFS cycle finder over the lock graph; returns each cycle once.
fn find_cycles(n: usize, edges: &[Edge]) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        if e.held != e.acquired {
            adj[e.held].push(e.acquired);
        }
    }
    fn dfs(
        v: usize,
        adj: &[Vec<usize>],
        color: &mut [u8],
        stack: &mut Vec<usize>,
        cycles: &mut Vec<Vec<usize>>,
    ) {
        color[v] = 1;
        stack.push(v);
        for &w in &adj[v] {
            if color[w] == 1 {
                let pos = stack.iter().position(|&x| x == w).unwrap_or(0);
                let mut cycle = stack[pos..].to_vec();
                cycle.push(w);
                cycles.push(cycle);
            } else if color[w] == 0 {
                dfs(w, adj, color, stack, cycles);
            }
        }
        stack.pop();
        color[v] = 2;
    }
    let mut cycles = Vec::new();
    let mut color = vec![0u8; n];
    let mut stack: Vec<usize> = Vec::new();
    for v in 0..n {
        if color[v] == 0 {
            dfs(v, &adj, &mut color, &mut stack, &mut cycles);
        }
    }
    cycles
}
