//! Function-level event extraction for the concurrency analyzer.
//!
//! A light block parser on top of [`crate::lexer`]: it finds function
//! definitions (tracking the enclosing `impl` type), and inside each body
//! records three kinds of events in source order — lock **acquisitions**
//! (`.lock()` / `.read()` / `.write()` with empty argument lists, plus
//! calls to workspace helpers whose return type is a guard), intra-
//! workspace **calls**, and **blocking operations** (condvar waits, channel
//! receives, joins, pool dispatch, file/socket I/O). Every event carries
//! the set of lock guards live at that point, derived from `let` bindings
//! and block scopes:
//!
//! * a guard is **bound** (lives until its block closes, an explicit
//!   `drop(name)`, or end of function) only when the `let` right-hand side
//!   is purely the acquisition plus poison-recovery chaining
//!   (`.unwrap_or_else(…)`, `.expect(…)`, `.unwrap()`, `?`);
//! * any other acquisition is a **statement temporary**, live only for the
//!   remainder of its own line;
//! * closure literals are opaque: their bodies run on another thread or at
//!   another time, so events inside them neither see nor extend the outer
//!   function's guards (the cost is missed findings inside closures, never
//!   false positives about them).
//!
//! The parser is textual and line-oriented by design — the same trade the
//! source linter makes: no dependencies, no macro expansion (macro bodies
//! are opaque), and precision tuned so the real workspace analyses clean
//! without drowning in suppressions.

use std::collections::BTreeMap;

use crate::lexer::{allowed_rules_in_comment, lex, BlockTracker, LexedLine};

/// What a lock acquisition refers to.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockRef {
    /// A field, static, or local named lock (`inner`, `SINK`, `spawned`).
    Named(String),
    /// The `i`-th parameter of the enclosing function (`fn lock<T>(m: &Mutex<T>)`).
    Param(usize),
}

impl LockRef {
    /// Display name without crate qualification.
    pub fn short(&self) -> String {
        match self {
            LockRef::Named(n) => n.clone(),
            LockRef::Param(i) => format!("<param {i}>"),
        }
    }
}

/// A guard live at some event.
#[derive(Debug, Clone)]
pub struct HeldGuard {
    /// The lock the guard protects.
    pub lock: LockRef,
    /// 1-based line the guard was acquired on.
    pub line: usize,
}

/// The event kinds recorded per function body.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A lock acquisition (direct, or via a guard-returning helper).
    Acquire {
        /// The lock being acquired.
        lock: LockRef,
    },
    /// A call to a (potentially) workspace-local function. Method calls on
    /// receivers other than a literal `self` are *not* recorded: a textual
    /// analyzer cannot type the receiver, and resolving them by bare name
    /// produces false call edges (`inner.queue.len()` is `VecDeque::len`,
    /// not the workspace's `Bounded::len`).
    Call {
        /// Callee name (last path segment).
        callee: String,
        /// Whether the receiver is literally `self`.
        self_recv: bool,
        /// For path-qualified calls (`span::reset()`,
        /// `dance_backend::run(…)`): the qualifying segment, used to pick
        /// among same-named candidates by file stem / crate.
        qual: Option<String>,
        /// Last identifier of each top-level argument (for parameter-lock
        /// substitution).
        args: Vec<String>,
    },
    /// A blocking boundary (condvar wait, channel recv, join, pool
    /// dispatch, file/socket I/O).
    Block {
        /// The textual pattern that matched.
        what: String,
    },
}

/// One recorded event with its context.
#[derive(Debug, Clone)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// 1-based line number.
    pub line: usize,
    /// Guards live at this point (for acquisitions: *before* the new one).
    pub held: Vec<HeldGuard>,
    /// Rules suppressed via `allow(...)` on this or the preceding line.
    pub allowed: Vec<String>,
}

/// A parsed function with its ordered events.
#[derive(Debug, Clone)]
pub struct ParsedFn {
    /// Function name.
    pub name: String,
    /// Enclosing `impl` type, if any.
    pub impl_type: Option<String>,
    /// Display path of the file.
    pub file: String,
    /// Crate the file belongs to (for lock qualification).
    pub crate_name: String,
    /// 1-based line of the signature.
    pub sig_line: usize,
    /// Parameter names (excluding `self`).
    pub params: Vec<String>,
    /// Whether the return type mentions a guard (`MutexGuard`, …) — such
    /// helpers count as acquisitions at their call sites.
    pub returns_guard: bool,
    /// Body events in source order.
    pub events: Vec<Event>,
}

/// A guard-returning helper: calling it acquires `lock`.
#[derive(Debug, Clone)]
pub struct HelperSig {
    /// Enclosing `impl` type of the helper, if any.
    pub impl_type: Option<String>,
    /// File the helper is defined in.
    pub file: String,
    /// The lock the helper acquires (first acquisition in its body).
    pub lock: LockRef,
}

/// Helper name → every definition with that name in the workspace.
pub type HelperMap = BTreeMap<String, Vec<HelperSig>>;

/// The crate a display path belongs to, used to qualify lock names so
/// same-named fields in different crates stay distinct.
pub fn crate_of(path: &str) -> String {
    let normalized = path.replace('\\', "/");
    if let Some(rest) = normalized.split("crates/").nth(1) {
        if let Some(name) = rest.split('/').next() {
            if !name.is_empty() && rest.contains('/') {
                return name.to_string();
            }
        }
    }
    if normalized.starts_with("src/") {
        return "bin".to_string();
    }
    let stem = normalized
        .rsplit('/')
        .next()
        .unwrap_or(&normalized)
        .trim_end_matches(".rs");
    stem.to_string()
}

/// Blocking-boundary patterns: an occurrence in executable code marks the
/// statement as a dispatch/IO point that a lock guard must not be held
/// across. Condvar waits (`.wait(` / `.wait_timeout(`) are handled
/// separately because they atomically release the guard passed as their
/// first argument.
pub const BLOCKING_PATTERNS: &[&str] = &[
    ".recv()",
    ".recv_timeout(",
    ".join()",
    "spawn_service(",
    "dance_backend::run(",
    "thread::sleep(",
    "fs::write(",
    "fs::read_to_string(",
    "fs::read(",
    "fs::create_dir_all(",
    "fs::rename(",
    "fs::remove_file(",
    "fs::remove_dir_all(",
    "File::create(",
    "File::open(",
    "TcpListener::bind(",
    "TcpStream::connect(",
    ".accept()",
    ".flush()",
    ".write_all(",
    ".read_line(",
    ".read_exact(",
    ".read_to_string(",
    ".sync_all()",
];

const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "let", "loop", "move", "in", "as", "else",
    "impl", "pub", "use", "mod", "struct", "enum", "const", "static", "type", "where", "dyn",
    "ref", "mut", "break", "continue",
];

/// Is `c` part of an identifier?
fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Backward scan from `pos` (exclusive) over a receiver path expression:
/// identifiers, `.`/`::` separators, and balanced `(…)`/`[…]` groups.
/// Returns the byte range of the path.
fn receiver_range(code: &str, pos: usize) -> (usize, usize) {
    let bytes = code.as_bytes();
    let mut i = pos;
    while i > 0 {
        let c = bytes[i - 1] as char;
        if is_ident_char(c) || c == '.' || c == ':' {
            i -= 1;
        } else if c == ')' || c == ']' {
            // Skip the balanced group.
            let close = c;
            let open = if close == ')' { b'(' } else { b'[' };
            let mut depth = 0i32;
            let mut j = i;
            while j > 0 {
                let b = bytes[j - 1];
                if b == close as u8 {
                    depth += 1;
                } else if b == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            if j == 0 {
                break;
            }
            i = j - 1;
        } else {
            break;
        }
    }
    (i, pos)
}

/// Last identifier segment of a path expression: `self.shared.guard_total`
/// → `guard_total`; `TABLE` → `TABLE`; `self.shard(key)` → `shard`.
fn last_segment(path: &str) -> String {
    let trimmed = path.trim_end_matches(|c: char| c == '.' || c == ':');
    // Strip a trailing balanced call/index group.
    let mut cut = trimmed.len();
    let bytes = trimmed.as_bytes();
    if cut > 0 && (bytes[cut - 1] == b')' || bytes[cut - 1] == b']') {
        let close = bytes[cut - 1];
        let open = if close == b')' { b'(' } else { b'[' };
        let mut depth = 0i32;
        let mut j = cut;
        while j > 0 {
            let b = bytes[j - 1];
            if b == close {
                depth += 1;
            } else if b == open {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j -= 1;
        }
        cut = j.saturating_sub(1);
    }
    let head = &trimmed[..cut];
    let start = head.rfind(|c: char| !is_ident_char(c)).map_or(0, |p| p + 1);
    head[start..].to_string()
}

/// Last identifier in an argument expression, used for parameter-lock
/// substitution: `&p.spawned` → `spawned`, `&self.table` → `table`.
fn arg_ident(arg: &str) -> String {
    let head = arg.split('(').next().unwrap_or(arg);
    let mut last = String::new();
    let mut cur = String::new();
    for c in head.chars() {
        if is_ident_char(c) {
            cur.push(c);
        } else if !cur.is_empty() {
            last = std::mem::take(&mut cur);
        }
    }
    if !cur.is_empty() {
        last = cur;
    }
    last
}

/// Splits the argument list starting at the `(` at `open` into top-level
/// argument strings (line-local; arguments on continuation lines are not
/// seen, which only costs substitution precision, not soundness).
fn split_args(code: &str, open: usize) -> Vec<String> {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut args = Vec::new();
    let mut cur = String::new();
    let mut i = open;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '(' | '[' => {
                depth += 1;
                if depth > 1 {
                    cur.push(c);
                }
            }
            ')' | ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
                cur.push(c);
            }
            ',' if depth == 1 => {
                args.push(std::mem::take(&mut cur));
            }
            _ => {
                if depth >= 1 {
                    cur.push(c);
                }
            }
        }
        i += 1;
    }
    if !cur.trim().is_empty() {
        args.push(cur);
    }
    args
}

/// Whether the chain after an acquisition expression consists solely of
/// poison-recovery / propagation, i.e. the `let` binding really binds the
/// guard itself (and not some value extracted from it).
fn is_pure_guard_suffix(mut s: &str) -> bool {
    loop {
        s = s.trim_start();
        if s.is_empty() || s.starts_with(';') {
            return true;
        }
        if let Some(rest) = s.strip_prefix('?') {
            s = rest;
            continue;
        }
        let mut matched = false;
        for prefix in [".unwrap_or_else(", ".expect(", ".unwrap("] {
            if let Some(rest) = s.strip_prefix(prefix) {
                // Skip to the matching close paren.
                let mut depth = 1i32;
                let mut end = None;
                for (i, c) in rest.char_indices() {
                    match c {
                        '(' => depth += 1,
                        ')' => {
                            depth -= 1;
                            if depth == 0 {
                                end = Some(i + 1);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                match end {
                    Some(e) => {
                        s = &rest[e..];
                        matched = true;
                    }
                    None => return false,
                }
                break;
            }
        }
        if !matched {
            return false;
        }
    }
}

/// Position of the first closure literal marker in `code`, if any: a `|`
/// introducing a parameter list (preceded by `(`, `,`, `=`, or the `move`
/// keyword), as opposed to a logical/bitwise or.
fn closure_start(code: &str) -> Option<usize> {
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'|' {
            continue;
        }
        // `||` logical-or: the *second* bar never starts a closure; the
        // first is judged by its own left context.
        if i > 0 && bytes[i - 1] == b'|' {
            continue;
        }
        let head = code[..i].trim_end();
        let prev = head.chars().last();
        let after_move = head.ends_with("move");
        if after_move
            || head.is_empty()
            || matches!(prev, Some('(') | Some(',') | Some('=') | Some('{'))
        {
            return Some(i);
        }
    }
    None
}

/// A joined function signature.
struct Signature {
    name: String,
    params: Vec<String>,
    returns_guard: bool,
    has_body: bool,
    /// Index of the last line of the signature (the one with `{` or `;`).
    end_idx: usize,
}

/// Detects a function definition starting at `idx`, joining continuation
/// lines up to the body brace or a trait-declaration semicolon.
fn try_signature(lines: &[LexedLine], idx: usize) -> Option<Signature> {
    let trimmed = lines[idx].code.trim_start();
    let mut rest = trimmed;
    for prefix in ["pub(crate) ", "pub(super) ", "pub "] {
        rest = rest.strip_prefix(prefix).unwrap_or(rest);
    }
    rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("fn ")?;
    // Join the signature until `{` or `;`.
    let mut sig = lines[idx].code.trim().to_string();
    let mut end_idx = idx;
    while !sig.contains('{')
        && !sig.contains(';')
        && end_idx + 1 < lines.len()
        && end_idx < idx + 12
    {
        end_idx += 1;
        sig.push(' ');
        sig.push_str(lines[end_idx].code.trim());
    }
    let has_body = match (sig.find('{'), sig.find(';')) {
        (Some(b), Some(s)) => b < s,
        (Some(_), None) => true,
        _ => false,
    };
    let name: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
    if name.is_empty() {
        return None;
    }
    // Parameter names from the first balanced paren group.
    let params = sig
        .find('(')
        .map(|open| split_args(&sig, open))
        .unwrap_or_default()
        .into_iter()
        .filter_map(|p| {
            let p = p.trim();
            if p.is_empty() || p.ends_with("self") {
                return None;
            }
            let name = p.split(':').next().unwrap_or("").trim();
            let name = name.strip_prefix("mut ").unwrap_or(name).trim();
            name.chars()
                .all(is_ident_char)
                .then(|| name.to_string())
                .filter(|n| !n.is_empty())
        })
        .collect();
    let returns_guard = sig
        .split("->")
        .nth(1)
        .map(|ret| {
            let ret = ret.split('{').next().unwrap_or(ret);
            ret.contains("Guard")
        })
        .unwrap_or(false);
    Some(Signature {
        name,
        params,
        returns_guard,
        has_body,
        end_idx,
    })
}

/// Extracts the `impl` type name from an `impl …` header line.
fn impl_type_of(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("impl")?;
    if !rest.starts_with(['<', ' ']) {
        return None;
    }
    // `impl<T> Trait for Type` names `Type`; otherwise the first type token.
    let mut rest = rest.trim_start();
    if rest.starts_with('<') {
        // Skip the balanced generic parameter list.
        let mut depth = 0i32;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = rest[cut..].trim_start();
    }
    let subject = match rest.find(" for ") {
        Some(p) => rest[p + 5..].trim_start(),
        None => rest,
    };
    let name: String = subject.chars().take_while(|&c| is_ident_char(c)).collect();
    (!name.is_empty()).then_some(name)
}

/// Rules suppressed on line `idx` (same or preceding line comments).
fn allowed_at(lines: &[LexedLine], idx: usize) -> Vec<String> {
    let mut out = allowed_rules_in_comment(&lines[idx].comment);
    if idx > 0 {
        out.extend(allowed_rules_in_comment(&lines[idx - 1].comment));
    }
    out.sort();
    out.dedup();
    out
}

/// A live bound guard during body parsing.
#[derive(Debug, Clone)]
struct LiveGuard {
    name: String,
    lock: LockRef,
    line: usize,
    /// Depth the binding lives at; the guard dies when depth drops below it.
    scope_depth: i64,
}

/// In-progress function context.
struct FnCtx {
    f: ParsedFn,
    body_open_depth: i64,
    guards: Vec<LiveGuard>,
    /// Depth a multi-line closure opened at; events are skipped until the
    /// depth returns to it.
    closure_until: Option<i64>,
}

/// One candidate occurrence found while scanning a line, ordered by column.
struct Occurrence {
    pos: usize,
    end: usize,
    kind: EventKind,
    /// For condvar waits: the name of the guard atomically released.
    released: Option<String>,
}

/// First pass: collect every guard-returning helper in the file set.
pub fn collect_helpers(files: &[(String, String)]) -> HelperMap {
    let empty = HelperMap::new();
    let mut helpers = HelperMap::new();
    for (path, content) in files {
        for f in parse_file(path, content, &empty) {
            if !f.returns_guard {
                continue;
            }
            let Some(lock) = f.events.iter().find_map(|e| match &e.kind {
                EventKind::Acquire { lock } => Some(lock.clone()),
                _ => None,
            }) else {
                continue;
            };
            helpers.entry(f.name.clone()).or_default().push(HelperSig {
                impl_type: f.impl_type.clone(),
                file: f.file.clone(),
                lock,
            });
        }
    }
    helpers
}

/// Resolves a guard-helper occurrence to its lock, given the receiver.
fn resolve_helper(
    helpers: &HelperMap,
    name: &str,
    receiver_is_self: bool,
    impl_type: Option<&str>,
    file: &str,
    method_style: bool,
) -> Option<LockRef> {
    let candidates = helpers.get(name)?;
    if method_style {
        if receiver_is_self {
            if let Some(ty) = impl_type {
                let hits: Vec<_> = candidates
                    .iter()
                    .filter(|h| h.impl_type.as_deref() == Some(ty))
                    .collect();
                if hits.len() == 1 {
                    return Some(hits[0].lock.clone());
                }
            }
        }
        let methods: Vec<_> = candidates
            .iter()
            .filter(|h| h.impl_type.is_some())
            .collect();
        if methods.len() == 1 {
            return Some(methods[0].lock.clone());
        }
    } else {
        let free: Vec<_> = candidates
            .iter()
            .filter(|h| h.impl_type.is_none())
            .collect();
        let same_file: Vec<_> = free.iter().filter(|h| h.file == file).collect();
        if same_file.len() == 1 {
            return Some(same_file[0].lock.clone());
        }
        if free.len() == 1 {
            return Some(free[0].lock.clone());
        }
    }
    None
}

/// Scans one body line for occurrences (acquisitions, blocking ops, calls),
/// in column order, without applying guard-liveness yet.
fn scan_line(code: &str, ctx: &FnCtx, helpers: &HelperMap) -> Vec<Occurrence> {
    let mut occ: Vec<Occurrence> = Vec::new();
    let mut consumed: Vec<(usize, usize)> = Vec::new();

    let push = |occ: &mut Vec<Occurrence>, consumed: &mut Vec<(usize, usize)>, o: Occurrence| {
        if consumed.iter().any(|&(s, e)| o.pos < e && s < o.end) {
            return;
        }
        consumed.push((o.pos, o.end));
        occ.push(o);
    };

    // Direct acquisitions: `.lock()` / `.read()` / `.write()` with empty
    // parens, named by the receiver's last field segment. A `self` receiver
    // means the method is (possibly) a guard helper on the impl type.
    for pat in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(pat) {
            let pos = from + rel;
            from = pos + pat.len();
            let (start, end) = receiver_range(code, pos);
            let recv = &code[start..end];
            if recv.is_empty() {
                continue;
            }
            let lock = if recv == "self" || recv.ends_with(".self") {
                resolve_helper(
                    helpers,
                    &pat[1..pat.len() - 2],
                    true,
                    ctx.f.impl_type.as_deref(),
                    &ctx.f.file,
                    true,
                )
            } else {
                let seg = last_segment(recv);
                if seg.is_empty() {
                    None
                } else if let Some(i) = ctx.f.params.iter().position(|p| *p == seg) {
                    Some(LockRef::Param(i))
                } else {
                    Some(LockRef::Named(seg))
                }
            };
            if let Some(lock) = lock {
                push(
                    &mut occ,
                    &mut consumed,
                    Occurrence {
                        pos: start,
                        end: pos + pat.len(),
                        kind: EventKind::Acquire { lock },
                        released: None,
                    },
                );
            }
        }
    }

    // Guard-returning helper calls, method style (`self.shared.states()`)
    // and free style (`lock(&p.slot)`, `lock_sink()`).
    for (name, _) in helpers.iter() {
        let needle = format!("{name}(");
        let mut from = 0;
        while let Some(rel) = code[from..].find(&needle) {
            let pos = from + rel;
            from = pos + name.len();
            // Word boundary on the left.
            if pos > 0 && is_ident_char(code.as_bytes()[pos - 1] as char) {
                continue;
            }
            let head = code[..pos].trim_end();
            if head.ends_with("fn") || head.ends_with("::") {
                continue; // the definition itself, or a std path like Mutex::
            }
            let method_style = pos > 0 && code.as_bytes()[pos - 1] == b'.';
            let (recv_is_self, receiver) = if method_style {
                let (s, e) = receiver_range(code, pos - 1);
                let r = &code[s..e];
                (r == "self", r.to_string())
            } else {
                (false, String::new())
            };
            let _ = receiver;
            let resolved = resolve_helper(
                helpers,
                name,
                recv_is_self,
                ctx.f.impl_type.as_deref(),
                &ctx.f.file,
                method_style,
            );
            let Some(lock) = resolved else { continue };
            // Substitute a parameter lock with the call-site argument.
            let lock = match lock {
                LockRef::Param(i) => {
                    let args = split_args(code, pos + name.len());
                    let ident = args.get(i).map(|a| arg_ident(a)).unwrap_or_default();
                    if ident.is_empty() {
                        continue;
                    }
                    match ctx.f.params.iter().position(|p| *p == ident) {
                        Some(j) => LockRef::Param(j),
                        None => LockRef::Named(ident),
                    }
                }
                named => named,
            };
            let start = if method_style {
                receiver_range(code, pos - 1).0
            } else {
                pos
            };
            // Consume through the call's closing paren so a `let` binding of
            // `helper()` sees only the suffix after the full call.
            let open = pos + name.len();
            let mut depth = 0i32;
            let mut end = pos + needle.len();
            for (off, c) in code[open..].char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = open + off + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            push(
                &mut occ,
                &mut consumed,
                Occurrence {
                    pos: start,
                    end,
                    kind: EventKind::Acquire { lock },
                    released: None,
                },
            );
        }
    }

    // Condvar waits: blocking, but the guard passed first is atomically
    // released for the duration, so only *other* held guards are at risk.
    for pat in [".wait(", ".wait_timeout("] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(pat) {
            let pos = from + rel;
            from = pos + pat.len();
            let args = split_args(code, pos + pat.len() - 1);
            let released = args.first().map(|a| arg_ident(a));
            push(
                &mut occ,
                &mut consumed,
                Occurrence {
                    pos,
                    end: pos + pat.len(),
                    kind: EventKind::Block {
                        what: format!("Condvar::{}", &pat[1..pat.len() - 1]),
                    },
                    released,
                },
            );
        }
    }

    // Other blocking boundaries.
    for pat in BLOCKING_PATTERNS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(pat) {
            let pos = from + rel;
            from = pos + pat.len();
            push(
                &mut occ,
                &mut consumed,
                Occurrence {
                    pos,
                    end: pos + pat.len(),
                    kind: EventKind::Block {
                        what: pat
                            .trim_start_matches('.')
                            .trim_end_matches('(')
                            .to_string(),
                    },
                    released: None,
                },
            );
        }
    }

    // Remaining call sites: `ident(` not already consumed, not a macro, not
    // a keyword.
    let bytes = code.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'(' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if !is_ident_char(prev) {
            continue;
        }
        let (start, _) = receiver_range(code, i);
        let path = &code[start..i];
        if path.is_empty() {
            continue;
        }
        if start > 0 && bytes[start - 1] == b'!' {
            continue; // inside macro arguments is still scanned; names aren't
        }
        // Macro invocation: `name!(`.
        let seg_start = path.rfind(|c: char| !is_ident_char(c)).map_or(0, |p| p + 1);
        let callee = &path[seg_start..];
        if callee.is_empty()
            || callee
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            || KEYWORDS.contains(&callee)
        {
            continue; // type constructors (`Mutex::new`) and keywords
        }
        if i > callee.len() && bytes[i - callee.len() - 1] == b'!' {
            continue;
        }
        let head = code[..start].trim_end();
        if head.ends_with("fn") {
            continue; // the definition line itself
        }
        let prefix = &path[..seg_start];
        let self_recv = prefix == "self." || prefix == "Self::";
        if prefix.contains('.') && !self_recv {
            // Method call on an untypeable receiver — unresolvable, skip.
            continue;
        }
        let qual = if !self_recv && prefix.ends_with("::") {
            let q = prefix.trim_end_matches(':');
            let q_start = q.rfind(|c: char| !is_ident_char(c)).map_or(0, |p| p + 1);
            Some(q[q_start..].to_string()).filter(|q| !q.is_empty())
        } else {
            None
        };
        let args = split_args(code, i)
            .into_iter()
            .map(|a| arg_ident(&a))
            .collect();
        push(
            &mut occ,
            &mut consumed,
            Occurrence {
                pos: start,
                end: i + 1,
                kind: EventKind::Call {
                    callee: callee.to_string(),
                    self_recv,
                    qual,
                    args,
                },
                released: None,
            },
        );
    }

    occ.sort_by_key(|o| o.pos);
    occ
}

/// Parses one file into its functions and events. `helpers` makes calls to
/// guard-returning helpers count as acquisitions; pass an empty map for the
/// bootstrap pass that *discovers* the helpers.
pub fn parse_file(path: &str, content: &str, helpers: &HelperMap) -> Vec<ParsedFn> {
    let lines = lex(content);
    let crate_name = crate_of(path);
    let mut tracker = BlockTracker::new();
    let mut out: Vec<ParsedFn> = Vec::new();

    let mut impls: Vec<(String, i64)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut cur: Option<FnCtx> = None;
    // Lines already consumed as part of a multi-line signature.
    let mut skip_until: Option<usize> = None;

    for idx in 0..lines.len() {
        let code = lines[idx].code.clone();
        let scope = tracker.step(&code);
        if scope.in_test {
            continue;
        }

        // Close finished impl blocks.
        while let Some((_, open)) = impls.last() {
            if scope.depth_after <= *open && code.contains('}') {
                impls.pop();
            } else {
                break;
            }
        }

        if let Some(until) = skip_until {
            if idx < until {
                continue;
            }
            skip_until = None;
        }

        if cur.is_none() {
            if let Some(ty) = pending_impl.take() {
                if code.contains('{') {
                    impls.push((ty, scope.depth_before));
                } else {
                    pending_impl = Some(ty);
                }
            } else if let Some(ty) = impl_type_of(&code) {
                if code.contains('{') {
                    impls.push((ty, scope.depth_before));
                } else {
                    pending_impl = Some(ty);
                }
            }
            if let Some(sig) = try_signature(&lines, idx) {
                if sig.has_body {
                    cur = Some(FnCtx {
                        f: ParsedFn {
                            name: sig.name,
                            impl_type: impls.last().map(|(t, _)| t.clone()),
                            file: path.to_string(),
                            crate_name: crate_name.clone(),
                            sig_line: idx + 1,
                            params: sig.params,
                            returns_guard: sig.returns_guard,
                            events: Vec::new(),
                        },
                        body_open_depth: 0,
                        guards: Vec::new(),
                        closure_until: None,
                    });
                    // Find the body-opening line: the first line in
                    // idx..=end_idx whose depth increases.
                    let mut inner = tracker_probe(&lines, idx, sig.end_idx);
                    if let (Some(ctx), Some((open_line, open_depth))) = (cur.as_mut(), inner.take())
                    {
                        ctx.body_open_depth = open_depth;
                        // Process the remainder of the opening line's body.
                        process_body_line(
                            ctx,
                            &lines,
                            open_line,
                            body_tail_depths(&lines, open_line, open_depth),
                            helpers,
                        );
                        if open_line == idx && scope.depth_after <= open_depth {
                            // Single-line function: `fn f() { … }`.
                            out.push(cur.take().expect("current function context exists").f);
                        } else {
                            skip_until = Some(open_line + 1);
                        }
                    } else {
                        cur = None; // body brace not found — skip defensively
                    }
                    continue;
                }
                skip_until = Some(sig.end_idx + 1);
                continue;
            }
            continue;
        }

        // Inside a function body.
        let Some(ctx) = cur.as_mut() else { continue };

        // Multi-line closure skipping: events inside are opaque.
        if let Some(limit) = ctx.closure_until {
            if scope.depth_after <= limit {
                ctx.closure_until = None;
            }
            if scope.depth_after <= ctx.body_open_depth {
                out.push(cur.take().expect("current function context exists").f);
            }
            continue;
        }

        process_body_line(
            ctx,
            &lines,
            idx,
            (scope.depth_before, scope.depth_after),
            helpers,
        );

        if scope.depth_after <= ctx.body_open_depth {
            out.push(cur.take().expect("current function context exists").f);
        }
    }
    if let Some(ctx) = cur {
        out.push(ctx.f);
    }
    out
}

/// Depth bookkeeping for the body text that shares the signature's last
/// line: the depth before the body brace is `open_depth`, after the line it
/// is whatever the braces say.
fn body_tail_depths(lines: &[LexedLine], idx: usize, open_depth: i64) -> (i64, i64) {
    let mut depth = open_depth;
    let mut seen_open = false;
    for c in lines[idx].code.chars() {
        match c {
            '{' => {
                if seen_open {
                    depth += 1;
                } else {
                    seen_open = true;
                    depth += 1;
                }
            }
            '}' => depth -= 1,
            _ => {}
        }
    }
    (open_depth + 1, depth)
}

/// Finds the line within `start..=end` where the body brace opens, and the
/// depth *before* that brace. Returns `None` when no brace opens (a
/// declaration).
fn tracker_probe(lines: &[LexedLine], start: usize, end: usize) -> Option<(usize, i64)> {
    // Depth deltas are relative; the caller only needs the opening line and
    // a depth baseline consistent with `BlockTracker`'s absolute depths.
    // Recompute absolute depth by replaying from the file start — cheap
    // because signatures are short and files are small.
    let mut tracker = BlockTracker::new();
    let mut scopes = Vec::with_capacity(end + 1);
    for line in lines.iter().take(end + 1) {
        scopes.push(tracker.step(&line.code));
    }
    (start..=end.min(lines.len() - 1))
        .find(|&i| lines[i].code.contains('{'))
        .map(|i| (i, scopes[i].depth_before))
}

/// Processes one body line: guard scope maintenance + event recording.
fn process_body_line(
    ctx: &mut FnCtx,
    lines: &[LexedLine],
    idx: usize,
    (depth_before, depth_after): (i64, i64),
    helpers: &HelperMap,
) {
    let full = &lines[idx].code;

    // Closure masking: scan only the text before the first closure literal.
    let mask = closure_start(full);
    let scan_text: String = match mask {
        Some(p) => full[..p].to_string(),
        None => full.clone(),
    };
    if let Some(p) = mask {
        // If the closure opens a brace that this line does not close, skip
        // lines until the depth returns.
        let before_closure: i64 = full[..p]
            .chars()
            .map(|c| match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            })
            .sum();
        let closure_entry = depth_before + before_closure;
        if depth_after > closure_entry {
            ctx.closure_until = Some(closure_entry);
        }
    }

    // Explicit guard drops.
    {
        let mut from = 0;
        while let Some(rel) = scan_text[from..].find("drop(") {
            let pos = from + rel;
            from = pos + 5;
            if pos > 0 && is_ident_char(scan_text.as_bytes()[pos - 1] as char) {
                continue;
            }
            let args = split_args(&scan_text, pos + 4);
            if let Some(name) = args.first().map(|a| a.trim().to_string()) {
                ctx.guards.retain(|g| g.name != name);
            }
        }
    }

    let allowed = allowed_at(lines, idx);
    let occurrences = scan_line(&scan_text, ctx, helpers);

    // Statement-binding analysis: does a `let` bind the first acquisition
    // as a scoped guard?
    let trimmed = scan_text.trim_start();
    let let_binding: Option<String> = trimmed.strip_prefix("let ").map(|rest| {
        let rest = rest.strip_prefix("mut ").unwrap_or(rest);
        rest.chars().take_while(|&c| is_ident_char(c)).collect()
    });

    let mut line_temps: Vec<HeldGuard> = Vec::new();
    for o in occurrences {
        let mut held: Vec<HeldGuard> = ctx
            .guards
            .iter()
            .map(|g| HeldGuard {
                lock: g.lock.clone(),
                line: g.line,
            })
            .collect();
        held.extend(line_temps.iter().cloned());
        // Condvar waits release the guard passed as their first argument.
        if let Some(released) = &o.released {
            if let Some(g) = ctx.guards.iter().find(|g| &g.name == released) {
                let lock = g.lock.clone();
                held.retain(|h| h.lock != lock);
            }
        }
        let is_acquire = matches!(o.kind, EventKind::Acquire { .. });
        ctx.f.events.push(Event {
            kind: o.kind.clone(),
            line: idx + 1,
            held,
            allowed: allowed.clone(),
        });
        if is_acquire {
            let EventKind::Acquire { lock } = o.kind else {
                continue;
            };
            // Bound guard: `let name = <acquisition><pure suffix>;`
            let bound = let_binding.as_ref().and_then(|name| {
                if name.is_empty() || name == "_" {
                    return None;
                }
                let eq = scan_text.find('=')?;
                let rhs = scan_text[eq + 1..].trim_start();
                let rhs_off = scan_text.len() - rhs.len();
                // The acquisition must begin exactly at the RHS start…
                if o.pos != rhs_off {
                    return None;
                }
                // …and everything after it must be pure recovery chaining,
                // joined across continuation lines up to the `;`.
                let mut suffix = scan_text[o.end..].to_string();
                let mut look = idx;
                while !suffix.contains(';') && look + 1 < lines.len() && look < idx + 8 {
                    look += 1;
                    suffix.push(' ');
                    suffix.push_str(lines[look].code.trim());
                }
                is_pure_guard_suffix(&suffix).then(|| name.clone())
            });
            match bound {
                Some(name) => ctx.guards.push(LiveGuard {
                    name,
                    lock,
                    line: idx + 1,
                    scope_depth: depth_before,
                }),
                None => line_temps.push(HeldGuard {
                    lock,
                    line: idx + 1,
                }),
            }
        }
    }

    // Block-scope exits kill guards bound deeper than the new depth.
    if depth_after < depth_before {
        ctx.guards.retain(|g| g.scope_depth <= depth_after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(src: &str) -> Vec<ParsedFn> {
        let files = vec![("crates/x/src/lib.rs".to_string(), src.to_string())];
        let helpers = collect_helpers(&files);
        parse_file("crates/x/src/lib.rs", src, &helpers)
    }

    #[test]
    fn direct_acquisition_is_named_by_receiver_field() {
        let src = "impl T {\n    fn f(&self) {\n        let g = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        g.touch();\n    }\n}\n";
        let fns = parse_one(src);
        assert_eq!(fns.len(), 1);
        let acquires: Vec<_> = fns[0]
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { lock } => Some(lock.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(acquires, vec![LockRef::Named("inner".to_string())]);
    }

    #[test]
    fn chained_value_extraction_is_a_statement_temporary() {
        // `.len()` after the guard chain means the guard dies at `;`.
        let src = "impl T {\n    fn f(&self) -> usize {\n        let n = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner).queue.len();\n        self.other.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(n);\n        n\n    }\n}\n";
        let fns = parse_one(src);
        let second_acquire = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .nth(1)
            .expect("two acquisitions parsed");
        assert!(
            second_acquire.held.is_empty(),
            "temporary from line 1 must not be live on line 2: {:?}",
            second_acquire.held
        );
    }

    #[test]
    fn bound_guard_is_held_for_later_acquisitions() {
        let src = "impl T {\n    fn f(&self) {\n        let a = self.alpha.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        let b = self.beta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        a.use_with(b);\n    }\n}\n";
        let fns = parse_one(src);
        let second = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .nth(1)
            .expect("two acquisitions");
        assert_eq!(second.held.len(), 1);
        assert_eq!(second.held[0].lock, LockRef::Named("alpha".to_string()));
    }

    #[test]
    fn drop_and_block_scope_end_guard_lifetimes() {
        let src = "impl T {\n    fn f(&self) {\n        {\n            let a = self.alpha.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n            a.touch();\n        }\n        let b = self.beta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        drop(b);\n        let c = self.gamma.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        c.touch();\n    }\n}\n";
        let fns = parse_one(src);
        for e in fns[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Acquire { .. }))
        {
            assert!(e.held.is_empty(), "unexpected held guards: {e:?}");
        }
    }

    #[test]
    fn closure_bodies_are_opaque() {
        let src = "impl T {\n    fn f(&self) {\n        let g = self.spawned.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        helper(move || {\n            other.beta.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        });\n        g.touch();\n    }\n}\n";
        let fns = parse_one(src);
        let acquires: Vec<_> = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Acquire { .. }))
            .collect();
        assert_eq!(
            acquires.len(),
            1,
            "closure-body acquisition must be skipped"
        );
    }

    #[test]
    fn condvar_wait_releases_its_own_guard() {
        let src = "impl T {\n    fn f(&self) {\n        let mut inner = self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        inner = self.cv.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);\n        inner.touch();\n    }\n}\n";
        let fns = parse_one(src);
        let block = fns[0]
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Block { .. }))
            .expect("wait recorded as blocking");
        assert!(
            block.held.is_empty(),
            "the waited-on guard is atomically released: {:?}",
            block.held
        );
    }

    #[test]
    fn guard_helper_with_param_lock_substitutes_call_site_argument() {
        let src = "fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {\n    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n\nfn user(p: &Pool) {\n    let mut spawned = lock(&p.spawned);\n    spawned.touch();\n}\n";
        let fns = parse_one(src);
        let user = fns.iter().find(|f| f.name == "user").expect("user parsed");
        let acquires: Vec<_> = user
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { lock } => Some(lock.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(acquires, vec![LockRef::Named("spawned".to_string())]);
    }

    #[test]
    fn crate_names_qualify_paths() {
        assert_eq!(crate_of("crates/serve/src/queue.rs"), "serve");
        assert_eq!(crate_of("src/bin/dance_serve.rs"), "bin");
        assert_eq!(crate_of("cycle.rs"), "cycle");
    }
}
