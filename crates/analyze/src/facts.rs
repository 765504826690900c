//! Structural facts per file and the cross-file lock-discipline pass.
//!
//! [`extract`] walks a [`FileModel`] and records *facts*: the functions a
//! file defines (with whether each directly performs I/O or `bestk_exec`
//! dispatch, and what it calls), the guard-producing helpers it declares
//! (functions returning `MutexGuard`/`RwLock*Guard`), and every lock
//! acquisition together with the live range of its guard.
//!
//! [`aggregate`] then fuses facts workspace-wide: a call-graph fixpoint
//! propagates "does I/O" / "does dispatch" from callees to callers (by
//! unqualified name — a deliberate over-approximation), guard live ranges
//! are checked against that closure (`lock-held-io`,
//! `lock-held-dispatch`), directly nested acquisitions become
//! `lock-nested` findings and edges in the workspace lock graph, and any
//! cycle in that graph is reported as `lock-order` on every edge that
//! closes it.
//!
//! Guard liveness is lexical: a `let g = ...` guard lives to the end of
//! its enclosing block or an explicit `drop(g)`; `let _ = ...` dies
//! immediately; an unbound acquisition is a temporary that lives to the
//! end of its statement.

use std::collections::{BTreeMap, BTreeSet};

use crate::model::{AllowTable, FileModel};
use crate::report::Diagnostic;

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "move", "in", "as", "impl",
];

/// Method names that constitute file/network I/O when invoked.
const IO_METHODS: &[&str] = &[
    "write_all",
    "write_fmt",
    "flush",
    "read_exact",
    "read_to_string",
    "read_to_end",
    "read_line",
    "fill_buf",
    "sync_all",
    "sync_data",
    "accept",
    "incoming",
    "set_read_timeout",
    "set_write_timeout",
];

/// `ExecPolicy` entry points: a guard held across one of these is held
/// across the worker fan-out.
const DISPATCH_METHODS: &[&str] = &[
    "map_chunks",
    "map_reduce",
    "for_each_disjoint",
    "map_disjoint_beside",
];

/// One call site observed inside a function body or guard range.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Unqualified callee name (`read_to_string`, `load_snapshot`, ...),
    /// with a leading `.` for method calls.
    pub name: String,
    /// 1-based line of the call.
    pub line: u32,
}

/// A direct lock acquisition nested inside another guard's live range.
#[derive(Debug, Clone)]
pub struct NestedAcq {
    /// Identity of the inner lock.
    pub lock: String,
    /// 1-based line of the inner acquisition.
    pub line: u32,
}

/// One lock acquisition and what happens while its guard is live.
#[derive(Debug, Clone)]
pub struct GuardRange {
    /// Identity of the lock (receiver chain or guard-helper argument).
    pub lock: String,
    /// 1-based line of the acquisition.
    pub line: u32,
    /// Calls made while the guard is live.
    pub calls: Vec<CallSite>,
    /// Direct I/O operations while the guard is live: (what, line).
    pub io: Vec<(String, u32)>,
    /// Direct dispatch operations while the guard is live: (what, line).
    pub dispatch: Vec<(String, u32)>,
    /// Other locks acquired while the guard is live.
    pub acquires: Vec<NestedAcq>,
}

/// What one function does, as far as the token scan can tell.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// Unqualified function name.
    pub name: String,
    /// First parameter is `self` (`&self`, `&mut self`, ...): a method a
    /// `.name(` call can reach.
    pub takes_self: bool,
    /// Body directly performs file/network I/O.
    pub does_io: bool,
    /// Body directly enters an `ExecPolicy` fan-out.
    pub does_dispatch: bool,
    /// Unqualified names this body calls (method calls with a leading
    /// `.`).
    pub calls: BTreeSet<String>,
}

/// Everything [`extract`] learned about one file.
pub struct FileFacts {
    /// Repo-relative path.
    pub path: String,
    /// Crate the file belongs to (`graph`, `engine`, ... or `root`).
    pub crate_name: String,
    /// Functions defined here (non-test).
    pub fns: Vec<FnFact>,
    /// Functions defined *in this file* that return lock guards.
    pub guard_fns: BTreeSet<String>,
    /// Lock acquisitions and their guard live ranges.
    pub guards: Vec<GuardRange>,
    /// The file's suppression tables, for aggregate-time checks.
    pub allows: AllowTable,
}

/// The crate a repo-relative path belongs to.
pub fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
        .to_string()
}

/// Extracts structural facts from one parsed file.
pub fn extract(path: &str, m: &FileModel<'_>) -> FileFacts {
    let fn_spans = find_fns(m);
    let guard_fns: BTreeSet<String> = fn_spans
        .iter()
        .filter(|f| f.returns_guard)
        .map(|f| f.name.clone())
        .collect();

    let mut fns = Vec::new();
    for f in &fn_spans {
        let mut fact = FnFact {
            name: f.name.clone(),
            takes_self: f.takes_self,
            does_io: false,
            does_dispatch: false,
            calls: BTreeSet::new(),
        };
        let mut j = f.body.0;
        while j <= f.body.1 {
            if let Some((what, _)) = io_op_at(m, j) {
                fact.does_io = true;
                let _ = what;
            }
            if dispatch_op_at(m, j).is_some() {
                fact.does_dispatch = true;
            }
            if let Some(name) = call_at(m, j) {
                fact.calls.insert(call_key(m, j, name));
            }
            j += 1;
        }
        fns.push(fact);
    }

    let guards = find_guards(m, &guard_fns);

    FileFacts {
        path: path.to_string(),
        crate_name: crate_of(path),
        fns,
        guard_fns,
        guards,
        allows: m.allows.clone(),
    }
}

/// A function span: name, body range in significant-token indices,
/// whether it takes `self`, and whether its return type is a lock guard.
struct FnSpan {
    name: String,
    body: (usize, usize),
    takes_self: bool,
    returns_guard: bool,
}

/// Finds every non-test `fn` with a body.
fn find_fns(m: &FileModel<'_>) -> Vec<FnSpan> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < m.len() {
        if m.is_ident(i, "fn") && !m.sig_in_test(i) {
            if let Some(name) = m.ident(i + 1) {
                if let Some(span) = fn_span_from(m, i, name) {
                    out.push(span);
                }
            }
        }
        i += 1;
    }
    out
}

/// Parses one fn header starting at the `fn` keyword; returns its span if
/// it has a body.
fn fn_span_from(m: &FileModel<'_>, fn_idx: usize, name: &str) -> Option<FnSpan> {
    // Skip to the argument list's opening paren (over generics).
    let mut j = fn_idx + 2;
    let mut angle = 0i32;
    while j < m.len() {
        if m.is_punct(j, b'<') {
            angle += 1;
        } else if m.is_punct(j, b'>') {
            angle -= 1;
        } else if m.is_punct(j, b'(') && angle <= 0 {
            break;
        } else if m.is_punct(j, b'{') || m.is_punct(j, b';') {
            return None; // malformed or not a real fn header
        }
        j += 1;
    }
    // Skip the argument list, noting a `self` in the first parameter.
    let mut paren = 0i32;
    let mut first_param = true;
    let mut takes_self = false;
    while j < m.len() {
        if m.is_punct(j, b'(') {
            paren += 1;
        } else if m.is_punct(j, b')') {
            paren -= 1;
            if paren == 0 {
                j += 1;
                break;
            }
        } else if paren == 1 && m.is_punct(j, b',') {
            first_param = false;
        } else if paren == 1 && first_param && m.is_ident(j, "self") {
            takes_self = true;
        }
        j += 1;
    }
    // Return type / where clause up to the body `{` or a bodyless `;`.
    let mut returns_guard = false;
    while j < m.len() {
        if m.is_punct(j, b'{') {
            break;
        }
        if m.is_punct(j, b';') {
            return None;
        }
        if let Some(t) = m.ident(j) {
            if matches!(t, "MutexGuard" | "RwLockReadGuard" | "RwLockWriteGuard") {
                returns_guard = true;
            }
        }
        j += 1;
    }
    if j >= m.len() {
        return None;
    }
    let open = j;
    let close = matching_brace(m, open)?;
    Some(FnSpan {
        name: name.to_string(),
        body: (open + 1, close.saturating_sub(1)),
        takes_self,
        returns_guard,
    })
}

/// Index of the `}` matching the `{` at significant index `open`.
fn matching_brace(m: &FileModel<'_>, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < m.len() {
        if m.is_punct(j, b'{') {
            depth += 1;
        } else if m.is_punct(j, b'}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Recognizes a direct I/O operation at significant index `j`.
fn io_op_at(m: &FileModel<'_>, j: usize) -> Option<(String, u32)> {
    // `fs::<anything>(` — the std::fs free functions.
    if m.is_ident(j, "fs") && m.is_punct(j + 1, b':') && m.is_punct(j + 2, b':') {
        if let Some(name) = m.ident(j + 3) {
            if m.is_punct(j + 4, b'(') || m.is_punct(j + 4, b':') {
                return Some((format!("fs::{name}"), m.line(j)));
            }
        }
    }
    // `File::open(` / `File::create(` / `File::options(`.
    if m.is_ident(j, "File") && m.is_punct(j + 1, b':') && m.is_punct(j + 2, b':') {
        if let Some(name @ ("open" | "create" | "options")) = m.ident(j + 3) {
            return Some((format!("File::{name}"), m.line(j)));
        }
    }
    // `TcpListener::bind(` / `TcpStream::connect(`.
    if (m.is_ident(j, "TcpListener") || m.is_ident(j, "TcpStream"))
        && m.is_punct(j + 1, b':')
        && m.is_punct(j + 2, b':')
    {
        if let Some(name @ ("bind" | "connect")) = m.ident(j + 3) {
            return Some((format!("{}::{name}", m.text(j)), m.line(j)));
        }
    }
    // Reader/writer/socket methods.
    if m.is_punct(j, b'.') && m.is_punct(j + 2, b'(') {
        if let Some(name) = m.ident(j + 1) {
            if IO_METHODS.contains(&name) {
                return Some((format!(".{name}()"), m.line(j + 1)));
            }
        }
    }
    None
}

/// Recognizes an `ExecPolicy` dispatch at significant index `j`.
fn dispatch_op_at(m: &FileModel<'_>, j: usize) -> Option<(String, u32)> {
    if m.is_punct(j, b'.') && m.is_punct(j + 2, b'(') {
        if let Some(name) = m.ident(j + 1) {
            if DISPATCH_METHODS.contains(&name) {
                return Some((format!(".{name}()"), m.line(j + 1)));
            }
        }
    }
    None
}

/// Recognizes a call at significant index `j` (free `f(`, path `a::f(`, or
/// method `.f(`), returning the unqualified callee name.
fn call_at<'a>(m: &'a FileModel<'_>, j: usize) -> Option<&'a str> {
    let name = m.ident(j)?;
    if !m.is_punct(j + 1, b'(') || CALL_KEYWORDS.contains(&name) {
        return None;
    }
    // `fn name(` is a definition, not a call.
    if j > 0 && m.is_ident(j - 1, "fn") {
        return None;
    }
    Some(name)
}

/// The call-graph key of the call to `name` at `j`: a method call
/// (`.name(`) carries a leading `.`, because its receiver's type — and so
/// the crate defining the method — is unknown at token level.
fn call_key(m: &FileModel<'_>, j: usize, name: &str) -> String {
    if j > 0 && m.is_punct(j - 1, b'.') {
        format!(".{name}")
    } else {
        name.to_string()
    }
}

/// Walks back from the `.` of a method call, collecting the receiver
/// chain (`self.inner`, `PLAN`, `state().cell`, ...).
fn receiver_chain(m: &FileModel<'_>, dot: usize) -> String {
    let mut start = dot;
    // Accept ident(.ident)* and ident::ident segments; stop at anything else.
    let mut k = dot;
    loop {
        if k == 0 {
            break;
        }
        let prev = k - 1;
        if m.ident(prev).is_some() {
            start = prev;
            k = prev;
            // A `.` or `::` may continue the chain leftward.
            if k == 0 {
                break;
            }
            if m.is_punct(k - 1, b'.') {
                k -= 1;
                continue;
            }
            if k >= 2 && m.is_punct(k - 1, b':') && m.is_punct(k - 2, b':') {
                k -= 2;
                continue;
            }
            break;
        }
        break;
    }
    (start..dot).map(|i| m.text(i)).collect::<Vec<_>>().join("")
}

/// First-argument chain of a call whose `(` sits at significant index
/// `open`; `&`/`mut` stripped. Empty when the call has no arguments.
fn first_arg_chain(m: &FileModel<'_>, open: usize) -> String {
    let mut j = open + 1;
    while m.is_punct(j, b'&') || m.is_ident(j, "mut") {
        j += 1;
    }
    let mut parts = Vec::new();
    while j < m.len() {
        if let Some(t) = m.ident(j) {
            parts.push(t);
            j += 1;
            if m.is_punct(j, b'.') {
                parts.push(".");
                j += 1;
                continue;
            }
            if m.is_punct(j, b':') && m.is_punct(j + 1, b':') {
                parts.push("::");
                j += 2;
                continue;
            }
        }
        break;
    }
    parts.concat()
}

/// One detected acquisition before liveness resolution.
struct AcqSite {
    /// Significant-token index of the acquisition pattern start.
    site: usize,
    /// First significant token *after* the acquisition expression.
    after: usize,
    lock: String,
    line: u32,
}

/// Finds every lock acquisition and resolves each guard's live range.
fn find_guards(m: &FileModel<'_>, guard_fns: &BTreeSet<String>) -> Vec<GuardRange> {
    let mut sites: Vec<AcqSite> = Vec::new();
    for j in 0..m.len() {
        if m.sig_in_test(j) {
            continue;
        }
        // `recv.lock()` — the std::sync::Mutex entry point.
        if m.is_punct(j, b'.')
            && m.is_ident(j + 1, "lock")
            && m.is_punct(j + 2, b'(')
            && m.is_punct(j + 3, b')')
        {
            let lock = receiver_chain(m, j);
            if !lock.is_empty() {
                sites.push(AcqSite {
                    site: j,
                    after: j + 4,
                    lock,
                    line: m.line(j + 1),
                });
            }
            continue;
        }
        // A call to a guard-returning helper defined in this file.
        if let Some(name) = m.ident(j) {
            if guard_fns.contains(name)
                && m.is_punct(j + 1, b'(')
                && !(j > 0 && m.is_ident(j - 1, "fn"))
            {
                let close = matching_paren(m, j + 1).unwrap_or(j + 1);
                let arg = first_arg_chain(m, j + 1);
                let lock = if m.is_punct(j.wrapping_sub(1), b'.') {
                    // Method form: `self.guard()` — identify by receiver+fn.
                    format!("{}.{name}", receiver_chain(m, j - 1))
                } else if arg.is_empty() {
                    name.to_string()
                } else {
                    arg
                };
                sites.push(AcqSite {
                    site: j,
                    after: close + 1,
                    lock,
                    line: m.line(j),
                });
            }
        }
    }

    let mut guards = Vec::new();
    for s in &sites {
        let Some((range_start, range_end)) = live_range(m, s) else {
            continue;
        };
        let mut g = GuardRange {
            lock: s.lock.clone(),
            line: s.line,
            calls: Vec::new(),
            io: Vec::new(),
            dispatch: Vec::new(),
            acquires: Vec::new(),
        };
        let mut j = range_start;
        while j <= range_end && j < m.len() {
            if let Some((what, line)) = io_op_at(m, j) {
                g.io.push((what, line));
            }
            if let Some((what, line)) = dispatch_op_at(m, j) {
                g.dispatch.push((what, line));
            }
            if let Some(name) = call_at(m, j) {
                g.calls.push(CallSite {
                    name: call_key(m, j, name),
                    line: m.line(j),
                });
            }
            j += 1;
        }
        for other in &sites {
            if other.site > s.site && other.site >= range_start && other.site <= range_end {
                g.acquires.push(NestedAcq {
                    lock: other.lock.clone(),
                    line: other.line,
                });
            }
        }
        guards.push(g);
    }
    guards
}

/// Index of the `)` matching the `(` at significant index `open`.
fn matching_paren(m: &FileModel<'_>, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = open;
    while j < m.len() {
        if m.is_punct(j, b'(') {
            depth += 1;
        } else if m.is_punct(j, b')') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Whether the tokens at `after` chain a further method call onto the
/// acquisition expression. `guard().method(...)` consumes the guard inside
/// the statement, so a surrounding `let x =` binds the method's *result*,
/// not the guard — except `.unwrap()` / `.expect(...)`, which return the
/// guard itself and are skipped over.
fn chain_consumes_guard(m: &FileModel<'_>, mut after: usize) -> bool {
    loop {
        if m.is_punct(after, b'?') {
            after += 1;
            continue;
        }
        if !m.is_punct(after, b'.') {
            return false;
        }
        match m.ident(after + 1) {
            Some("unwrap") | Some("expect") => {
                // The guard passes through; look past the call.
                let Some(close) = matching_paren(m, after + 2) else {
                    return false;
                };
                after = close + 1;
            }
            Some(_) => return true,
            None => return false,
        }
    }
}

/// Resolves the live range (in significant-token indices) of the guard
/// produced at `s`. `None` when the guard dies immediately (`let _ =`).
fn live_range(m: &FileModel<'_>, s: &AcqSite) -> Option<(usize, usize)> {
    // Is the acquisition bound by `let [mut] name =`? A trailing method
    // chain consumes the guard first, so the binding then captures the
    // chained result and the guard itself is a statement-scoped temporary.
    let expr_start = expr_start_of(m, s);
    let binding = if chain_consumes_guard(m, s.after) {
        None
    } else {
        let_binding_before(m, expr_start)
    };
    match binding {
        Some("_") => None, // `let _ = ...` drops the guard on the spot
        Some(name) => {
            // Named guard: lives to the end of the enclosing block or an
            // explicit `drop(name)`.
            let mut depth = 0i32;
            let mut j = s.after;
            while j < m.len() {
                if m.is_punct(j, b'{') {
                    depth += 1;
                } else if m.is_punct(j, b'}') {
                    if depth == 0 {
                        return Some((s.after, j));
                    }
                    depth -= 1;
                } else if m.is_ident(j, "drop")
                    && m.is_punct(j + 1, b'(')
                    && m.is_ident(j + 2, name)
                    && m.is_punct(j + 3, b')')
                {
                    return Some((s.after, j));
                }
                j += 1;
            }
            Some((s.after, m.len().saturating_sub(1)))
        }
        None => {
            // Temporary: lives to the end of the statement.
            let mut depth = 0i32;
            let mut j = s.after;
            while j < m.len() {
                if m.is_punct(j, b'(') || m.is_punct(j, b'[') || m.is_punct(j, b'{') {
                    depth += 1;
                } else if m.is_punct(j, b')') || m.is_punct(j, b']') || m.is_punct(j, b'}') {
                    if depth == 0 {
                        return Some((s.after, j));
                    }
                    depth -= 1;
                } else if m.is_punct(j, b';') && depth <= 0 {
                    return Some((s.after, j));
                }
                j += 1;
            }
            Some((s.after, m.len().saturating_sub(1)))
        }
    }
}

/// Significant-token index where the acquisition expression begins (the
/// start of the receiver chain for method forms, the callee otherwise).
fn expr_start_of(m: &FileModel<'_>, s: &AcqSite) -> usize {
    if m.is_punct(s.site, b'.') {
        // Walk the receiver chain leftward the same way receiver_chain does.
        let chain = receiver_chain(m, s.site);
        let mut k = s.site;
        let mut remaining = chain.len();
        while k > 0 && remaining > 0 {
            k -= 1;
            remaining = remaining.saturating_sub(m.text(k).len());
        }
        k
    } else if s.site > 0 && m.is_punct(s.site - 1, b'.') {
        let mut k = s.site - 1;
        let chain = receiver_chain(m, k);
        let mut remaining = chain.len();
        while k > 0 && remaining > 0 {
            k -= 1;
            remaining = remaining.saturating_sub(m.text(k).len());
        }
        k
    } else {
        s.site
    }
}

/// If the tokens immediately before `expr_start` are `let [mut] name =`,
/// returns the bound name.
fn let_binding_before<'a>(m: &'a FileModel<'_>, expr_start: usize) -> Option<&'a str> {
    if expr_start < 3 || !m.is_punct(expr_start - 1, b'=') {
        return None;
    }
    let name_idx = expr_start - 2;
    let name = m.ident(name_idx)?;
    if m.is_ident(name_idx.wrapping_sub(1), "let")
        || (m.is_ident(name_idx.wrapping_sub(1), "mut")
            && m.is_ident(name_idx.wrapping_sub(2), "let"))
    {
        return Some(name);
    }
    None
}

/// Workspace-wide lock-discipline pass over per-file facts.
pub fn aggregate(files: &[FileFacts]) -> Vec<Diagnostic> {
    // 1. Call-graph fixpoint over (crate, fn-name) nodes. A call resolves
    //    to the caller's own crate when it defines the name; otherwise to
    //    the single crate defining it workspace-wide — for a method call
    //    (`.name(`), the single crate defining a `self`-taking `name`, so
    //    `.load(` on an atomic never binds to a free `fn load`. Ambiguous
    //    names (`new`, `get`, ...) do not propagate across crates —
    //    precision over recall, the per-crate union still catches the
    //    seam-crossing helpers that matter.
    type Node<'a> = (&'a str, &'a str);
    let mut io_fns: BTreeSet<Node> = BTreeSet::new();
    let mut dispatch_fns: BTreeSet<Node> = BTreeSet::new();
    let mut calls: BTreeMap<Node, BTreeSet<&str>> = BTreeMap::new();
    let mut name_crates: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut methods: BTreeSet<Node> = BTreeSet::new();
    for f in files {
        for fact in &f.fns {
            let node: Node = (&f.crate_name, &fact.name);
            if fact.does_io {
                io_fns.insert(node);
            }
            if fact.does_dispatch {
                dispatch_fns.insert(node);
            }
            name_crates
                .entry(&fact.name)
                .or_default()
                .insert(&f.crate_name);
            if fact.takes_self {
                methods.insert(node);
            }
            let entry = calls.entry(node).or_default();
            for c in &fact.calls {
                entry.insert(c);
            }
        }
    }
    let resolve = |caller_crate: &str, callee: &str| -> Option<(String, String)> {
        let (callee, method) = match callee.strip_prefix('.') {
            Some(name) => (name, true),
            None => (callee, false),
        };
        let crates = name_crates.get(callee)?;
        if crates.contains(caller_crate) {
            return Some((caller_crate.to_string(), callee.to_string()));
        }
        let only = *crates.iter().next().filter(|_| crates.len() == 1)?;
        if method && !methods.contains(&(only, callee)) {
            return None;
        }
        Some((only.to_string(), callee.to_string()))
    };
    loop {
        let mut changed = false;
        for (&(krate, name), callees) in &calls {
            let hits = |set: &BTreeSet<Node>| {
                callees.iter().any(|c| {
                    resolve(krate, c)
                        .is_some_and(|(ck, cn)| set.contains(&(ck.as_str(), cn.as_str())))
                })
            };
            if !io_fns.contains(&(krate, name)) && hits(&io_fns) {
                io_fns.insert((krate, name));
                changed = true;
            }
            if !dispatch_fns.contains(&(krate, name)) && hits(&dispatch_fns) {
                dispatch_fns.insert((krate, name));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 2. Walk guard ranges: I/O, dispatch, and nesting under a live guard.
    let mut diags = Vec::new();
    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    let mut edges: BTreeMap<(String, String), Vec<(String, u32)>> = BTreeMap::new();
    for f in files {
        let qual = |lock: &str| format!("{}::{}", f.crate_name, lock);
        for g in &f.guards {
            for (what, line) in &g.io {
                if !f.allows.allowed("lock-held-io", *line)
                    && seen.insert((f.path.clone(), *line, "lock-held-io"))
                {
                    diags.push(Diagnostic::new(
                        &f.path,
                        *line as usize,
                        "lock-held-io",
                        format!("guard on `{}` held across {what}", g.lock),
                    ));
                }
            }
            for (what, line) in &g.dispatch {
                if !f.allows.allowed("lock-held-dispatch", *line)
                    && seen.insert((f.path.clone(), *line, "lock-held-dispatch"))
                {
                    diags.push(Diagnostic::new(
                        &f.path,
                        *line as usize,
                        "lock-held-dispatch",
                        format!("guard on `{}` held across {what}", g.lock),
                    ));
                }
            }
            for c in &g.calls {
                let resolved = resolve(&f.crate_name, &c.name);
                let in_set = |set: &BTreeSet<(&str, &str)>| {
                    resolved
                        .as_ref()
                        .is_some_and(|(ck, cn)| set.contains(&(ck.as_str(), cn.as_str())))
                };
                if in_set(&io_fns)
                    && !f.allows.allowed("lock-held-io", c.line)
                    && seen.insert((f.path.clone(), c.line, "lock-held-io"))
                {
                    diags.push(Diagnostic::new(
                        &f.path,
                        c.line as usize,
                        "lock-held-io",
                        format!(
                            "guard on `{}` held across call to `{}`, which performs I/O",
                            g.lock,
                            c.name.trim_start_matches('.')
                        ),
                    ));
                }
                if in_set(&dispatch_fns)
                    && !f.allows.allowed("lock-held-dispatch", c.line)
                    && seen.insert((f.path.clone(), c.line, "lock-held-dispatch"))
                {
                    diags.push(Diagnostic::new(
                        &f.path,
                        c.line as usize,
                        "lock-held-dispatch",
                        format!(
                            "guard on `{}` held across call to `{}`, which dispatches work",
                            g.lock,
                            c.name.trim_start_matches('.')
                        ),
                    ));
                }
            }
            for a in &g.acquires {
                if a.lock == g.lock {
                    continue; // re-entrant self-acquisition is a different bug
                }
                edges
                    .entry((qual(&g.lock), qual(&a.lock)))
                    .or_default()
                    .push((f.path.clone(), a.line));
                if !f.allows.allowed("lock-nested", a.line)
                    && seen.insert((f.path.clone(), a.line, "lock-nested"))
                {
                    diags.push(Diagnostic::new(
                        &f.path,
                        a.line as usize,
                        "lock-nested",
                        format!(
                            "acquiring `{}` while the guard on `{}` is live",
                            a.lock, g.lock
                        ),
                    ));
                }
            }
        }
    }

    // 3. Lock-order cycles: an edge A -> B plus a path B -> ... -> A.
    let allow_of: BTreeMap<&str, &AllowTable> =
        files.iter().map(|f| (f.path.as_str(), &f.allows)).collect();
    let adj: BTreeMap<&str, BTreeSet<&str>> = {
        let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            adj.entry(a).or_default().insert(b);
        }
        adj
    };
    for ((a, b), sites) in &edges {
        if reachable(&adj, b, a) {
            for (path, line) in sites {
                let allowed = allow_of
                    .get(path.as_str())
                    .is_some_and(|t| t.allowed("lock-order", *line));
                if !allowed && seen.insert((path.clone(), *line, "lock-order")) {
                    diags.push(Diagnostic::new(
                        path,
                        *line as usize,
                        "lock-order",
                        format!("lock-order cycle: `{a}` is held while acquiring `{b}`, and `{b}` can be held while acquiring `{a}`"),
                    ));
                }
            }
        }
    }
    diags
}

/// Depth-first reachability in the lock graph.
fn reachable(adj: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut stack = vec![from.to_string()];
    let mut seen = BTreeSet::new();
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n.clone()) {
            continue;
        }
        if let Some(next) = adj.get(n.as_str()) {
            for c in next {
                stack.push(c.to_string());
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(path: &str, src: &str) -> FileFacts {
        extract(path, &FileModel::parse(src))
    }

    #[test]
    fn fn_facts_record_io_and_calls() {
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nfn save(p: &Path) -> io::Result<()> { fs::write(p, b\"x\")?; helper(); Ok(()) }\nfn pure() -> u32 { 1 }\n",
        );
        let save = f.fns.iter().find(|f| f.name == "save").unwrap();
        assert!(save.does_io);
        assert!(save.calls.contains("helper"));
        let pure = f.fns.iter().find(|f| f.name == "pure").unwrap();
        assert!(!pure.does_io);
    }

    #[test]
    fn guard_fn_detected_by_return_type() {
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nfn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap_or_else(|p| p.into_inner()) }\n",
        );
        assert!(f.guard_fns.contains("lock"));
    }

    #[test]
    fn named_guard_lives_to_block_end() {
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nfn f() {\n    let g = STATE.lock();\n    fs::write(\"p\", b\"x\");\n}\n",
        );
        assert_eq!(f.guards.len(), 1);
        assert_eq!(f.guards[0].lock, "STATE");
        assert_eq!(f.guards[0].io.len(), 1);
    }

    #[test]
    fn dropped_guard_frees_the_range() {
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nfn f() {\n    let g = STATE.lock();\n    drop(g);\n    fs::write(\"p\", b\"x\");\n}\n",
        );
        assert!(f.guards[0].io.is_empty(), "{:?}", f.guards[0].io);
    }

    #[test]
    fn let_underscore_dies_immediately() {
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nfn f() {\n    let _ = STATE.lock();\n    fs::write(\"p\", b\"x\");\n}\n",
        );
        assert!(f.guards.is_empty());
    }

    #[test]
    fn temporary_guard_lives_to_statement_end() {
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nfn f() {\n    *STATE.lock().unwrap_or_else(|p| p.into_inner()) = 1;\n    fs::write(\"p\", b\"x\");\n}\n",
        );
        assert_eq!(f.guards.len(), 1);
        assert!(f.guards[0].io.is_empty(), "{:?}", f.guards[0].io);
    }

    #[test]
    fn chained_call_consumes_the_guard_before_the_binding() {
        // `let d = self.guard().checkout(n)?` binds checkout's result, not
        // the guard — the guard dies at the semicolon, so later I/O in the
        // block is lock-free.
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nimpl S {\nfn guard(&self) -> MutexGuard<'_, E> { self.inner.lock().unwrap_or_else(|p| p.into_inner()) }\nfn f(&self) {\n    let d = self.guard().checkout(0);\n    fs::write(\"p\", b\"x\");\n}\n}\n",
        );
        let g = f.guards.iter().find(|g| g.lock == "self.guard").unwrap();
        assert!(g.io.is_empty(), "{:?}", g.io);
    }

    #[test]
    fn unwrap_chain_still_binds_the_guard() {
        // `.unwrap()` returns the guard itself, so the binding holds it to
        // block end and the I/O below is under the lock.
        let f = facts(
            "crates/x/src/a.rs",
            "//! d\nfn f() {\n    let g = STATE.lock().unwrap();\n    fs::write(\"p\", b\"x\");\n}\n",
        );
        assert_eq!(f.guards.len(), 1);
        assert_eq!(f.guards[0].io.len(), 1, "{:?}", f.guards[0].io);
    }

    #[test]
    fn nested_acquisition_and_cycle() {
        let a = facts(
            "crates/x/src/a.rs",
            "//! d\nfn f() {\n    let g = A.lock();\n    let h = B.lock();\n    let _ = (g, h);\n}\n",
        );
        assert_eq!(a.guards[0].acquires.len(), 1);
        let b = facts(
            "crates/x/src/b.rs",
            "//! d\nfn g() {\n    let g = B.lock();\n    let h = A.lock();\n    let _ = (g, h);\n}\n",
        );
        let diags = aggregate(&[a, b]);
        let lints: Vec<&str> = diags.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&"lock-nested"), "{lints:?}");
        assert!(lints.contains(&"lock-order"), "{lints:?}");
    }

    #[test]
    fn transitive_io_via_call_graph() {
        let a = facts(
            "crates/x/src/a.rs",
            "//! d\nfn read_all(p: &Path) -> String { fs::read_to_string(p).unwrap_or_default() }\n",
        );
        let b = facts(
            "crates/x/src/b.rs",
            "//! d\nfn f() {\n    let g = STATE.lock();\n    let s = read_all(\"p\");\n    let _ = (g, s);\n}\n",
        );
        let diags = aggregate(&[a, b]);
        assert!(
            diags
                .iter()
                .any(|d| d.lint == "lock-held-io" && d.message.contains("read_all")),
            "{diags:?}"
        );
    }

    /// The `lock-held-io` findings' paths for a two-file workspace.
    fn io_paths(files: [FileFacts; 2]) -> Vec<String> {
        aggregate(&files)
            .into_iter()
            .filter(|d| d.lint == "lock-held-io")
            .map(|d| d.path)
            .collect()
    }

    #[test]
    fn method_calls_resolve_across_crates_to_methods() {
        // `commit` is a method doing I/O in crate `x`; calling it under a
        // guard in crate `y` fires.
        let lib = facts(
            "crates/x/src/wal.rs",
            "//! d\nimpl Log {\n    fn commit(&mut self) -> io::Result<()> { fs::write(&self.path, b\"c\") }\n}\n",
        );
        let user = facts(
            "crates/y/src/b.rs",
            "//! d\nfn f() {\n    let g = STATE.lock();\n    let r = LOG.commit();\n    let _ = (g, r);\n}\n",
        );
        assert_eq!(io_paths([lib, user]), ["crates/y/src/b.rs"]);
    }

    #[test]
    fn method_calls_skip_free_fns_in_other_crates() {
        // `load` is a free fn doing I/O in crate `x`: a free call to it
        // under a guard in crate `y` fires, but `.load(` on an atomic does
        // not bind to it.
        let lib = || {
            facts(
                "crates/x/src/a.rs",
                "//! d\npub fn load(p: &Path) -> String { fs::read_to_string(p).unwrap_or_default() }\n",
            )
        };
        let free = facts(
            "crates/y/src/b.rs",
            "//! d\nfn f() {\n    let g = STATE.lock();\n    let s = x::load(\"p\");\n    let _ = (g, s);\n}\n",
        );
        let method = facts(
            "crates/y/src/c.rs",
            "//! d\nfn f() {\n    let g = STATE.lock();\n    let n = COUNT.load(Ordering::Relaxed);\n    let _ = (g, n);\n}\n",
        );
        assert_eq!(io_paths([lib(), free]), ["crates/y/src/b.rs"]);
        assert!(io_paths([lib(), method]).is_empty());
    }

    #[test]
    fn dispatch_under_guard_fires() {
        let a = facts(
            "crates/x/src/a.rs",
            "//! d\nfn f(policy: &ExecPolicy) {\n    let g = STATE.lock();\n    let out = policy.map_chunks(&plan, |c| c.len());\n    let _ = (g, out);\n}\n",
        );
        let diags = aggregate(&[a]);
        assert!(
            diags.iter().any(|d| d.lint == "lock-held-dispatch"),
            "{diags:?}"
        );
    }

    #[test]
    fn guard_helper_call_is_an_acquisition() {
        let a = facts(
            "crates/x/src/a.rs",
            "//! d\nfn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> { m.lock().unwrap_or_else(|p| p.into_inner()) }\nfn f() {\n    let g = lock(&PLAN);\n    fs::write(\"p\", b\"x\");\n    let _ = g;\n}\n",
        );
        let hits: Vec<_> = a.guards.iter().filter(|g| g.lock == "PLAN").collect();
        assert_eq!(
            hits.len(),
            1,
            "{:?}",
            a.guards.iter().map(|g| &g.lock).collect::<Vec<_>>()
        );
        assert_eq!(hits[0].io.len(), 1);
    }

    #[test]
    fn crate_of_paths() {
        assert_eq!(crate_of("crates/engine/src/serve.rs"), "engine");
        assert_eq!(crate_of("src/main.rs"), "root");
    }
}
