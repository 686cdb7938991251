//! Pass 2: the source linter.
//!
//! Walks the workspace's `.rs` files and enforces the conventions the DANCE
//! crates follow, on top of the shared [`crate::lexer`]: per line, the lexer
//! blanks out comments and string-literal contents (so patterns inside
//! strings or docs never match), tracks `#[cfg(test)]` blocks by brace depth
//! (test code is exempt from every rule), and keeps the comment text so
//! `// lint: allow(<rule>)` suppressions on the same or the preceding line
//! work.
//!
//! | rule          | applies to                   | meaning                                       |
//! |---------------|------------------------------|-----------------------------------------------|
//! | `no-unwrap`   | all library code             | `.unwrap()` forbidden; use `expect`/`Result`  |
//! | `expect-message` | all library code          | `.expect("…")` needs a ≥ 5-char reason        |
//! | `float-eq`    | all library code             | `==`/`!=` against a float literal             |
//! | `panic-doc`   | `crates/cost`, `crates/autograd` | `panic!` needs `# Panics` on the enclosing fn |
//! | `span-guard`  | all library code             | `let _ = span!(…)` drops the guard instantly  |
//! | `checkpoint-io` | all library code (minus the atomic helpers) | direct `File::create`/`fs::write` of a `.json`/`.bin`/`.ckpt` artifact |
//! | `lock-unwrap` | all library code             | `.lock().unwrap()` panics on poison; recover or document |
//! | `raw-spawn`   | all but `crates/backend` (the pool itself) | ad-hoc `thread::spawn`/`.spawn(` bypasses the shared worker pool |
//! | `retry-backoff` | all library code           | reconnect/retry loop sleeping a fixed literal delay, no backoff/jitter |
//! | `hot-alloc`   | `// analyze:hot` … `// analyze:hot-end` regions | per-call heap allocation (`Vec::new`, `vec!`, `.to_vec()`, `.clone()`) on an allocation-free path |
//! | `arena-escape` | `// analyze:hot` … `// analyze:hot-end` regions | tensor construction that bypasses the recycling arena (`Tensor::from_vec`, `Storage::zeroed`) on a hot path |
//!
//! Diagnostics print as `file:line rule message` — one per line, greppable,
//! and the CLI exits non-zero when any are present.

use std::fmt;
use std::io;
use std::path::Path;

use crate::lexer::{is_allowed, lex, token_after, token_before, BlockTracker, LexedLine};

/// One finding of the source linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDiagnostic {
    /// File the finding is in (as given to [`lint_file`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Machine-readable rule name.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for SourceDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Whether `tok` looks like a floating-point literal (`0.0`, `1e-6`,
/// `2.5f32`, `1_000.0`).
fn is_float_literal(tok: &str) -> bool {
    let t = tok
        .trim_end_matches("f32")
        .trim_end_matches("f64")
        .trim_end_matches('_');
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let mantissa_dot = t.contains('.');
    let exponent = t.contains('e') || t.contains('E');
    (mantissa_dot || exponent || tok.ends_with("f32") || tok.ends_with("f64"))
        && t.chars()
            .all(|c| c.is_ascii_digit() || "._eE+-".contains(c))
}

/// Whether the doc comment block attached to the `fn` enclosing line `idx`
/// contains a `# Panics` section.
fn enclosing_fn_documents_panics(lines: &[LexedLine], idx: usize) -> bool {
    // Find the nearest preceding fn definition line.
    let mut fn_line = None;
    for i in (0..=idx).rev() {
        let code = lines[i].code.trim_start();
        let is_fn = code.starts_with("fn ")
            || code.starts_with("pub fn ")
            || code.starts_with("pub(crate) fn ")
            || code.starts_with("pub(super) fn ")
            || code.starts_with("const fn ")
            || code.starts_with("pub const fn ");
        if is_fn {
            fn_line = Some(i);
            break;
        }
    }
    let Some(fn_line) = fn_line else { return false };
    // Scan upward over the contiguous doc/attribute block.
    let mut i = fn_line;
    while i > 0 {
        i -= 1;
        let line = &lines[i];
        let code = line.code.trim();
        if line.is_doc {
            if line.doc_text.contains("# Panics") {
                return true;
            }
            continue;
        }
        if code.starts_with("#[") || (code.is_empty() && !line.comment.is_empty()) {
            continue;
        }
        break;
    }
    false
}

/// The nearest enclosing loop header above `idx`, if any: walking upward,
/// each line whose braces leave it net-open encloses `idx`; the first such
/// opener that is a `loop`/`while`/`for` is the loop we are inside.
fn loop_header_above(lines: &[LexedLine], idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    for i in (0..idx).rev() {
        let code = &lines[i].code;
        depth += code.matches('{').count() as i32 - code.matches('}').count() as i32;
        if depth > 0 {
            let t = code.trim_start();
            if t.starts_with("loop") || t.starts_with("while ") || t.starts_with("for ") {
                return Some(i);
            }
            // Some other enclosing opener (if/match/fn); consume it and
            // keep walking — the loop may sit further out.
            depth -= 1;
        }
    }
    None
}

/// Joins the code of the loop body starting at `header` until its braces
/// close (bounded, so a pathological file cannot make this quadratic).
fn loop_body_code(lines: &[LexedLine], header: usize) -> String {
    let mut body = String::new();
    let mut depth = 0i32;
    let mut opened = false;
    for line in lines.iter().skip(header).take(200) {
        depth += line.code.matches('{').count() as i32 - line.code.matches('}').count() as i32;
        opened |= line.code.contains('{');
        body.push_str(&line.code);
        body.push('\n');
        if opened && depth <= 0 {
            break;
        }
    }
    body
}

/// Whether a `thread::sleep(…)` call on this line sleeps a fixed literal
/// `Duration` (as opposed to a computed delay variable).
fn sleeps_fixed_literal(code: &str) -> bool {
    let Some(pos) = code.find("thread::sleep(") else {
        return false;
    };
    let arg = &code[pos + "thread::sleep(".len()..];
    if let Some(from) = arg.find("Duration::from_") {
        let rest = &arg[from..];
        if let Some(open) = rest.find('(') {
            return rest[open + 1..]
                .trim_start()
                .starts_with(|c: char| c.is_ascii_digit());
        }
    }
    false
}

/// Markers that a loop talks to a peer it may need to re-reach.
const CONNECT_MARKERS: &[&str] = &[
    ".connect(",
    "::connect(",
    "connect_with(",
    ".reconnect(",
    "retry",
];

/// Markers that the delay is actually adaptive: growth, jitter, or an
/// explicit backoff computation.
const BACKOFF_MARKERS: &[&str] = &[
    "backoff",
    "jitter",
    "* 2",
    "*= 2",
    "<< 1",
    "saturating_mul",
    "checked_mul",
    "saturating_pow",
    "powi",
    "powf",
];

/// Options controlling which rules apply to a file.
#[derive(Debug, Clone, Copy, Default)]
struct FileRules {
    /// `panic-doc` only guards the numeric hot paths.
    panic_doc: bool,
    /// `checkpoint-io` applies everywhere except the atomic-save helpers
    /// themselves (which necessarily perform the raw write).
    checkpoint_io: bool,
    /// `raw-spawn` applies everywhere except `crates/backend` — the worker
    /// pool is the one place allowed to create threads. (The serve accept
    /// loop carries an explicit `// lint: allow(raw-spawn)` instead of a
    /// path exemption, so linting `crates/serve` as its own root — where
    /// the path prefix is stripped — still works.)
    raw_spawn: bool,
}

fn rules_for(path: &str) -> FileRules {
    let normalized = path.replace('\\', "/");
    let atomic_helper = normalized.ends_with("crates/autograd/src/serialize.rs")
        || normalized.ends_with("crates/guard/src/checkpoint.rs");
    FileRules {
        panic_doc: normalized.contains("crates/cost/") || normalized.contains("crates/autograd/"),
        checkpoint_io: !atomic_helper,
        raw_spawn: !normalized.contains("crates/backend/"),
    }
}

/// The artifact extension a (raw) statement mentions, if any. `.jsonl`
/// deliberately does not count: run logs are append-only streams, not
/// atomically replaced artifacts.
fn artifact_extension(stmt: &str) -> Option<&'static str> {
    for ext in [".json", ".bin", ".ckpt"] {
        let mut from = 0;
        while let Some(rel) = stmt[from..].find(ext) {
            let pos = from + rel + ext.len();
            from = pos;
            let next = stmt[pos..].chars().next();
            if !matches!(next, Some(c) if c.is_ascii_alphanumeric()) {
                return Some(ext);
            }
        }
    }
    None
}

/// Lints one file's contents. `path` is used for diagnostics and to decide
/// path-scoped rules (`panic-doc`).
#[must_use]
pub fn lint_file(path: &str, content: &str) -> Vec<SourceDiagnostic> {
    let rules = rules_for(path);
    let lines = lex(content);
    let mut diags = Vec::new();

    // Test-block tracking: `#[cfg(test)]` exempts its whole brace block.
    let mut tracker = BlockTracker::new();

    // Hot-region tracking: `// analyze:hot` opens an allocation-free
    // region, `// analyze:hot-end` closes it.
    let mut in_hot = false;

    let mut emit = |line: usize, rule: &'static str, message: String| {
        diags.push(SourceDiagnostic {
            file: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    for idx in 0..lines.len() {
        let code = lines[idx].code.clone();
        if tracker.step(&code).in_test {
            continue;
        }

        // --- hot-alloc ----------------------------------------------------
        // Markers live in comments, so `analyze:allow(hot-alloc)` (which
        // also contains "analyze:") never toggles a region. The end marker
        // is matched first because it contains the start marker as a
        // substring.
        let comment = &lines[idx].comment;
        if comment.contains("analyze:hot-end") {
            in_hot = false;
        } else if comment.contains("analyze:hot") {
            in_hot = true;
        }
        // Inside a hot region — the plan execute path, the serve predict
        // collector — every per-call heap allocation defeats the
        // preallocated-buffer design the region exists to protect.
        if in_hot && !is_allowed(&lines, idx, "hot-alloc") {
            for pat in ["Vec::new", "vec!", ".to_vec()", ".clone()"] {
                if code.contains(pat) {
                    emit(
                        idx,
                        "hot-alloc",
                        format!(
                            "`{pat}` allocates inside an `analyze:hot` region; reuse a \
                             preallocated buffer, hoist the allocation out of the region, \
                             or add `// analyze:allow(hot-alloc)` with a rationale"
                        ),
                    );
                }
            }
        }

        // --- arena-escape -------------------------------------------------
        // `Tensor::from_vec` adopts a plain `Vec` that was heap-allocated
        // outside the storage arena, and `Storage::zeroed` pays a fill pass
        // the caller usually overwrites; in a hot region both defeat the
        // buffer-recycling design. Use `Storage::uninit` +
        // `Tensor::from_storage` instead.
        if in_hot && !is_allowed(&lines, idx, "arena-escape") {
            for pat in ["Tensor::from_vec", "Storage::zeroed"] {
                if code.contains(pat) {
                    emit(
                        idx,
                        "arena-escape",
                        format!(
                            "`{pat}` bypasses the storage arena inside an `analyze:hot` \
                             region; build the value with `Storage::uninit` + \
                             `Tensor::from_storage` (arena-recycled, alignment-preserving) \
                             or add `// analyze:allow(arena-escape)` with a rationale"
                        ),
                    );
                }
            }
        }

        // --- lock-unwrap / no-unwrap --------------------------------------
        // `.lock().unwrap()` gets its own, more specific rule: the panic it
        // hides is lock *poisoning*, and the fix is different (recover with
        // `unwrap_or_else(PoisonError::into_inner)` or document why
        // propagating the poison panic is intended). Such occurrences are
        // carved out of `no-unwrap` so one site never reports twice.
        let lock_unwraps = code.matches(".lock().unwrap()").count();
        if lock_unwraps > 0 && !is_allowed(&lines, idx, "lock-unwrap") {
            emit(
                idx,
                "lock-unwrap",
                "`.lock().unwrap()` panics if the mutex is poisoned; recover with \
                 `.lock().unwrap_or_else(PoisonError::into_inner)` or add \
                 `// lint: allow(lock-unwrap)` explaining why propagating the \
                 poison panic is intended"
                    .to_string(),
            );
        }
        if code.matches(".unwrap()").count() > lock_unwraps && !is_allowed(&lines, idx, "unwrap") {
            emit(
                idx,
                "no-unwrap",
                "`.unwrap()` in library code; use `.expect(\"reason\")`, return a \
                 Result, or add `// lint: allow(unwrap)` with a rationale"
                    .to_string(),
            );
        }

        // --- expect-message -----------------------------------------------
        // The lexed code keeps quotes but blanks contents, so measure the
        // message length as the distance between the quotes.
        let mut search = 0;
        while let Some(rel) = code[search..].find(".expect(") {
            let open = search + rel + ".expect(".len();
            search = open;
            let rest = &code[open..];
            let Some(q1) = rest.find('"') else { continue };
            let Some(q2) = rest[q1 + 1..].find('"') else {
                continue;
            };
            if q2 < 5 && !is_allowed(&lines, idx, "expect") {
                emit(
                    idx,
                    "expect-message",
                    format!("`.expect` message is only {q2} chars; explain what invariant failed"),
                );
            }
        }

        // --- float-eq -----------------------------------------------------
        for pat in ["==", "!="] {
            let mut from = 0;
            while let Some(rel) = code[from..].find(pat) {
                let pos = from + rel;
                from = pos + 2;
                // Skip `<=`, `>=`, `!==`-like contexts and pattern arms.
                let lhs = token_before(&code, pos);
                let rhs = token_after(&code, pos + 2);
                if (is_float_literal(lhs) || is_float_literal(rhs))
                    && !is_allowed(&lines, idx, "float-eq")
                {
                    emit(
                        idx,
                        "float-eq",
                        format!(
                            "exact float comparison `{lhs} {pat} {rhs}`; compare against an \
                             epsilon or add `// lint: allow(float-eq)` with a rationale"
                        ),
                    );
                }
            }
        }

        // --- panic-doc ----------------------------------------------------
        if rules.panic_doc
            && code.contains("panic!(")
            && !is_allowed(&lines, idx, "panic-doc")
            && !enclosing_fn_documents_panics(&lines, idx)
        {
            emit(
                idx,
                "panic-doc",
                "`panic!` in a hot-path crate requires a `# Panics` section on the \
                 enclosing function's doc comment"
                    .to_string(),
            );
        }

        // --- span-guard ---------------------------------------------------
        // `let _ = span!(…)` (or `hot_span!`) drops the RAII guard on the
        // same statement, so the span records ~0 ns and silently lies.
        if let Some(pos) = code.find("let _") {
            let rest = code[pos + "let _".len()..].trim_start();
            if let Some(rhs) = rest.strip_prefix('=') {
                if rhs.contains("span!(") && !is_allowed(&lines, idx, "span-guard") {
                    emit(
                        idx,
                        "span-guard",
                        "`let _ = span!(…)` drops the span guard immediately and times \
                         nothing; bind it to a named variable (`let _span = span!(…)`)"
                            .to_string(),
                    );
                }
            }
        }

        // --- raw-spawn ----------------------------------------------------
        // An ad-hoc thread bypasses the shared `dance-backend` pool: it
        // ignores `DANCE_THREADS`, is invisible to the `backend.threads`
        // gauge, and sidesteps the fixed chunk decomposition that keeps
        // results bit-identical across thread counts. Chunked work belongs
        // on `dance_backend::run`; long-lived service threads go through
        // `dance_backend::spawn_service` (which at least names them).
        if rules.raw_spawn
            && (code.contains("thread::spawn(") || code.contains(".spawn("))
            && !is_allowed(&lines, idx, "raw-spawn")
        {
            emit(
                idx,
                "raw-spawn",
                "raw thread spawn outside `crates/backend`; run chunked work via \
                 `dance_backend::run`, name service threads via \
                 `dance_backend::spawn_service`, or add `// lint: allow(raw-spawn)` \
                 with a rationale"
                    .to_string(),
            );
        }

        // --- retry-backoff ------------------------------------------------
        // A reconnect/retry loop that sleeps a fixed literal delay hammers
        // a recovering peer at a constant rate, and a fleet of such clients
        // does so in lockstep. Retry loops must grow their delay (and
        // ideally jitter it); see `dance_serve::client::RetryPolicy`.
        if sleeps_fixed_literal(&code) && !is_allowed(&lines, idx, "retry-backoff") {
            if let Some(header) = loop_header_above(&lines, idx) {
                let body = loop_body_code(&lines, header);
                let connects = CONNECT_MARKERS.iter().any(|m| body.contains(m));
                let backs_off = BACKOFF_MARKERS.iter().any(|m| body.contains(m));
                if connects && !backs_off {
                    emit(
                        idx,
                        "retry-backoff",
                        "retry/reconnect loop sleeps a fixed delay; use jittered \
                         exponential backoff (e.g. `dance_serve::client::RetryPolicy`) \
                         or add `// lint: allow(retry-backoff)` with a rationale"
                            .to_string(),
                    );
                }
            }
        }

        // --- checkpoint-io ------------------------------------------------
        // A plain `File::create`/`fs::write` of a result artifact is torn
        // by a crash mid-write; such files must go through an atomic
        // temp+rename helper (`serialize::save_tensors`,
        // `checkpoint::atomic_write_text`).
        if rules.checkpoint_io
            && (code.contains("File::create(") || code.contains("fs::write("))
            && !is_allowed(&lines, idx, "checkpoint-io")
        {
            // Join the raw statement (string contents intact) so path
            // literals on continuation lines are visible too.
            let mut stmt = lines[idx].raw.clone();
            let mut look = idx;
            while !stmt.contains(';') && look + 1 < lines.len() && look < idx + 5 {
                look += 1;
                stmt.push(' ');
                stmt.push_str(&lines[look].raw);
            }
            if let Some(ext) = artifact_extension(&stmt) {
                emit(
                    idx,
                    "checkpoint-io",
                    format!(
                        "direct write of a `{ext}` artifact; route it through an atomic \
                         temp+rename helper (e.g. `dance_guard::checkpoint::atomic_write_text`) \
                         so a crash mid-write cannot leave a torn file"
                    ),
                );
            }
        }
    }

    diags
}

/// Lints every non-test `.rs` file under `root`, returning diagnostics with
/// paths relative to `root`.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files.
pub fn lint_tree(root: &Path) -> io::Result<Vec<SourceDiagnostic>> {
    let mut diags = Vec::new();
    for (display, content) in crate::lexer::read_tree(root)? {
        diags.extend(lint_file(&display, &content));
    }
    Ok(diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        lint_file(path, src).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let src = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let d = lint_file("crates/x/src/lib.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-unwrap");
        assert_eq!(d[0].line, 2);
        assert_eq!(format!("{}", d[0]).split(' ').nth(1), Some("no-unwrap"));
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_allow_comment_suppresses() {
        let same = "fn f() { Some(1).unwrap(); } // lint: allow(unwrap) infallible here\n";
        let before = "// lint: allow(unwrap) checked two lines up\nfn f() { Some(1).unwrap(); }\n";
        assert!(rules_hit("a.rs", same).is_empty());
        assert!(rules_hit("a.rs", before).is_empty());
    }

    #[test]
    fn unwrap_inside_string_or_comment_is_ignored() {
        let src = "fn f() {\n    // explains .unwrap() usage\n    let s = \".unwrap()\";\n    let _ = s;\n}\n";
        assert!(rules_hit("a.rs", src).is_empty());
    }

    #[test]
    fn lock_unwrap_is_flagged_once_not_twice() {
        let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap()\n}\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", src), vec!["lock-unwrap"]);
    }

    #[test]
    fn lock_unwrap_recovery_pattern_passes() {
        let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    *m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lock_unwrap_allow_comment_suppresses() {
        let src = "fn f(m: &std::sync::Mutex<u32>) -> u32 {\n    // lint: allow(lock-unwrap) poison is fatal here by design\n    *m.lock().unwrap()\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn mixed_lock_and_plain_unwrap_reports_both_rules() {
        let src =
            "fn f(m: &std::sync::Mutex<Option<u32>>) -> u32 {\n    m.lock().unwrap().unwrap()\n}\n";
        let mut hit = rules_hit("crates/x/src/lib.rs", src);
        hit.sort_unstable();
        assert_eq!(hit, vec!["lock-unwrap", "no-unwrap"]);
    }

    #[test]
    fn short_expect_message_is_flagged() {
        let bad = "fn f() { Some(1).expect(\"no\"); }\n";
        let good = "fn f() { Some(1).expect(\"slot index is bounds-checked above\"); }\n";
        assert_eq!(rules_hit("a.rs", bad), vec!["expect-message"]);
        assert!(rules_hit("a.rs", good).is_empty());
    }

    #[test]
    fn float_equality_is_flagged() {
        let bad = "fn f(x: f32) -> bool { x == 0.0 }\n";
        let bad2 = "fn f(x: f64) -> bool { 1e-6 != x }\n";
        let good = "fn f(x: f32) -> bool { (x - 0.0).abs() < 1e-6 }\n";
        let int = "fn f(x: usize) -> bool { x == 0 }\n";
        assert_eq!(rules_hit("a.rs", bad), vec!["float-eq"]);
        assert_eq!(rules_hit("a.rs", bad2), vec!["float-eq"]);
        assert!(rules_hit("a.rs", good).is_empty());
        assert!(rules_hit("a.rs", int).is_empty());
    }

    #[test]
    fn float_eq_allow_comment_suppresses() {
        let src = "fn f(w: f32) -> bool {\n    // lint: allow(float-eq) exact sparsity check\n    w == 0.0\n}\n";
        assert!(rules_hit("a.rs", src).is_empty());
    }

    #[test]
    fn panic_without_doc_in_hot_path_is_flagged() {
        let src = "pub fn f(x: usize) {\n    if x > 3 { panic!(\"x too large\"); }\n}\n";
        assert_eq!(
            rules_hit("crates/cost/src/model.rs", src),
            vec!["panic-doc"]
        );
        // Outside the hot-path crates, the rule does not apply.
        assert!(rules_hit("crates/data/src/loader.rs", src).is_empty());
    }

    #[test]
    fn panic_with_doc_section_passes() {
        let src = "/// Does things.\n///\n/// # Panics\n///\n/// Panics if `x > 3`.\npub fn f(x: usize) {\n    if x > 3 { panic!(\"x too large\"); }\n}\n";
        assert!(rules_hit("crates/autograd/src/ops.rs", src).is_empty());
    }

    #[test]
    fn span_bound_to_underscore_is_flagged() {
        let bad = "fn f() { let _ = dance_telemetry::span!(\"phase\"); }\n";
        let bad_hot = "fn f() { let _ = dance_telemetry::hot_span!(\"step\"); }\n";
        let good = "fn f() { let _span = dance_telemetry::span!(\"phase\"); }\n";
        let unrelated = "fn f() { let _ = std::fs::remove_file(\"x\"); }\n";
        assert_eq!(rules_hit("a.rs", bad), vec!["span-guard"]);
        assert_eq!(rules_hit("a.rs", bad_hot), vec!["span-guard"]);
        assert!(rules_hit("a.rs", good).is_empty());
        assert!(rules_hit("a.rs", unrelated).is_empty());
    }

    #[test]
    fn span_guard_allow_comment_suppresses() {
        let src = "fn f() {\n    // lint: allow(span-guard) intentionally instantaneous\n    let _ = dance_telemetry::span!(\"noop\");\n}\n";
        assert!(rules_hit("a.rs", src).is_empty());
    }

    #[test]
    fn direct_artifact_write_is_flagged() {
        let bad = "fn f() { std::fs::write(\"results/out.json\", \"{}\").ok(); }\n";
        let bad_create = "fn f() { let _f = std::fs::File::create(\"dump.bin\"); }\n";
        let multi = "fn f() {\n    std::fs::write(\n        \"results/table.json\",\n        body,\n    ).ok();\n}\n";
        assert_eq!(rules_hit("crates/x/src/lib.rs", bad), vec!["checkpoint-io"]);
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", bad_create),
            vec!["checkpoint-io"]
        );
        assert_eq!(
            rules_hit("crates/x/src/lib.rs", multi),
            vec!["checkpoint-io"]
        );
    }

    #[test]
    fn non_artifact_and_jsonl_writes_pass() {
        let jsonl = "fn f() { let _f = std::fs::File::create(\"run.jsonl\"); }\n";
        let csv = "fn f() { std::fs::write(path, doc).ok(); }\n";
        assert!(rules_hit("crates/x/src/lib.rs", jsonl).is_empty());
        assert!(rules_hit("crates/x/src/lib.rs", csv).is_empty());
    }

    #[test]
    fn atomic_helpers_and_allow_comment_are_exempt() {
        let src = "fn save() { std::fs::write(\"weights.bin\", out).ok(); }\n";
        assert!(rules_hit("crates/autograd/src/serialize.rs", src).is_empty());
        assert!(rules_hit("crates/guard/src/checkpoint.rs", src).is_empty());
        let allowed = "fn f() {\n    // lint: allow(checkpoint-io) scratch file, never reloaded\n    std::fs::write(\"scratch.json\", \"{}\").ok();\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", allowed).is_empty());
    }

    #[test]
    fn raw_spawn_is_flagged_outside_backend() {
        let plain = "fn f() { std::thread::spawn(|| {}); }\n";
        let builder =
            "fn f() { std::thread::Builder::new().name(\"w\".into()).spawn(|| {}).ok(); }\n";
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert_eq!(
            rules_hit("crates/serve/src/jobs.rs", plain),
            vec!["raw-spawn"]
        );
        assert_eq!(
            rules_hit("src/bin/serve_load.rs", builder),
            vec!["raw-spawn"]
        );
        assert_eq!(
            rules_hit("crates/hwgen/src/dataset.rs", scoped),
            vec!["raw-spawn"]
        );
    }

    #[test]
    fn raw_spawn_in_backend_pool_is_exempt() {
        let src = "fn f() { std::thread::Builder::new().spawn(|| {}).ok(); }\n";
        assert!(rules_hit("crates/backend/src/pool.rs", src).is_empty());
        assert!(rules_hit("crates/backend/src/lib.rs", src).is_empty());
    }

    #[test]
    fn raw_spawn_allow_comment_and_test_module_are_exempt() {
        let allowed = "fn f() {\n    // lint: allow(raw-spawn) accept loop: one thread per connection\n    std::thread::spawn(|| {});\n}\n";
        assert!(rules_hit("crates/serve/src/server.rs", allowed).is_empty());
        let in_test = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { std::thread::spawn(|| {}).join().ok(); }\n}\n";
        assert!(rules_hit("crates/serve/src/queue.rs", in_test).is_empty());
    }

    #[test]
    fn pool_dispatch_and_spawn_service_pass() {
        let run = "fn f() { let _v = dance_backend::run(4, move |i| i * 2); }\n";
        let svc = "fn f() { dance_backend::spawn_service(\"collector\", move || {}).ok(); }\n";
        assert!(rules_hit("crates/serve/src/batch.rs", run).is_empty());
        assert!(rules_hit("crates/serve/src/batch.rs", svc).is_empty());
    }

    #[test]
    fn fixed_sleep_retry_loop_is_flagged() {
        let bad = "fn f(addr: &str) {\n    loop {\n        if std::net::TcpStream::connect(addr).is_ok() { break; }\n        std::thread::sleep(std::time::Duration::from_millis(100));\n    }\n}\n";
        let d = lint_file("crates/x/src/lib.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "retry-backoff");
        assert_eq!(d[0].line, 4);
    }

    #[test]
    fn backoff_or_jitter_in_the_loop_passes() {
        // Growing delay: the sleep is a computed variable, not a literal.
        let grown = "fn f(addr: &str) {\n    let mut delay = std::time::Duration::from_millis(50);\n    loop {\n        if std::net::TcpStream::connect(addr).is_ok() { break; }\n        std::thread::sleep(delay);\n        delay *= 2;\n    }\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", grown).is_empty());
        // Fixed literal sleep but an explicit backoff computation in body.
        let backoff = "fn f(addr: &str, n: u32) {\n    for retry in 0..n {\n        if std::net::TcpStream::connect(addr).is_ok() { break; }\n        let backoff = 50u64.saturating_mul(1 << retry);\n        std::thread::sleep(std::time::Duration::from_millis(backoff));\n    }\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", backoff).is_empty());
    }

    #[test]
    fn fixed_sleep_without_reconnect_is_not_a_retry_loop() {
        // Poll loops (no peer to re-reach) legitimately sleep a fixed tick.
        let poll = "fn f(flag: &std::sync::atomic::AtomicBool) {\n    while !flag.load(std::sync::atomic::Ordering::SeqCst) {\n        std::thread::sleep(std::time::Duration::from_millis(25));\n    }\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", poll).is_empty());
        // A sleep outside any loop is fine too.
        let once = "fn f() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n";
        assert!(rules_hit("crates/x/src/lib.rs", once).is_empty());
    }

    #[test]
    fn retry_backoff_allow_comment_and_test_code_are_exempt() {
        let allowed = "fn f(addr: &str) {\n    loop {\n        if std::net::TcpStream::connect(addr).is_ok() { break; }\n        // lint: allow(retry-backoff) probe loop in a bounded harness\n        std::thread::sleep(std::time::Duration::from_millis(100));\n    }\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", allowed).is_empty());
        let in_test = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t(addr: &str) {\n        loop {\n            if std::net::TcpStream::connect(addr).is_ok() { break; }\n            std::thread::sleep(std::time::Duration::from_millis(10));\n        }\n    }\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", in_test).is_empty());
    }

    #[test]
    fn alloc_in_hot_region_is_flagged() {
        for pat in ["Vec::new()", "vec![0.0; n]", "xs.to_vec()", "xs.clone()"] {
            let src = format!(
                "fn f(xs: &[f32], n: usize) {{\n    // analyze:hot\n    let _v = {pat};\n    // analyze:hot-end\n}}\n"
            );
            let d = lint_file("crates/x/src/lib.rs", &src);
            assert_eq!(d.len(), 1, "{pat}: {d:?}");
            assert_eq!(d[0].rule, "hot-alloc");
            assert_eq!(d[0].line, 3);
        }
    }

    #[test]
    fn alloc_outside_hot_region_passes() {
        let before = "fn f(xs: &[f32]) -> Vec<f32> {\n    xs.to_vec()\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", before).is_empty());
        let after = "fn f(xs: &[f32]) -> Vec<f32> {\n    // analyze:hot\n    let n = xs.len();\n    // analyze:hot-end\n    vec![0.0; n]\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", after).is_empty());
    }

    #[test]
    fn hot_alloc_allow_comment_suppresses() {
        let same = "fn f(xs: &[f32]) {\n    // analyze:hot\n    let _v = xs.to_vec(); // analyze:allow(hot-alloc) cold error path\n    // analyze:hot-end\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", same).is_empty());
        let before = "fn f(xs: &[f32]) {\n    // analyze:hot\n    // lint: allow(hot-alloc) cold error path\n    let _v = xs.to_vec();\n    // analyze:hot-end\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", before).is_empty());
    }

    #[test]
    fn arena_escape_in_hot_region_is_flagged() {
        for pat in ["Tensor::from_vec(data, &shape)", "Storage::zeroed(n)"] {
            let src = format!(
                "fn f(data: Vec<f32>, shape: &[usize], n: usize) {{\n    // analyze:hot\n    let _t = {pat};\n    // analyze:hot-end\n}}\n"
            );
            let d = lint_file("crates/x/src/lib.rs", &src);
            assert!(
                d.iter().any(|d| d.rule == "arena-escape" && d.line == 3),
                "{pat}: {d:?}"
            );
        }
    }

    #[test]
    fn arena_escape_outside_hot_region_passes() {
        let src = "fn f(data: Vec<f32>, shape: &[usize]) {\n    let _t = Tensor::from_vec(data, shape);\n}\n";
        assert!(rules_hit("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn arena_escape_allow_comment_suppresses() {
        let src = "fn f(n: usize) {\n    // analyze:hot\n    // analyze:allow(arena-escape) gradient seed must be dense zeros\n    let _s = Storage::zeroed(n);\n    // analyze:hot-end\n}\n";
        assert!(
            rules_hit("crates/x/src/lib.rs", src).is_empty(),
            "{:?}",
            lint_file("crates/x/src/lib.rs", src)
        );
    }

    #[test]
    fn hot_alloc_in_string_or_comment_is_ignored() {
        let src = "fn f() {\n    // analyze:hot\n    // a comment naming .clone() is fine\n    let s = \".to_vec()\";\n    let _ = s;\n    // analyze:hot-end\n}\n";
        assert!(
            rules_hit("crates/x/src/lib.rs", src).is_empty(),
            "{:?}",
            lint_file("crates/x/src/lib.rs", src)
        );
    }

    #[test]
    fn lexer_handles_block_comments_and_char_literals() {
        let src = "fn f() {\n    /* .unwrap() in a block\n       comment */\n    let c = 'x';\n    let q = '\"';\n    let s = \"quote \\\" inside\";\n    let _ = (c, q, s);\n}\n";
        assert!(
            rules_hit("a.rs", src).is_empty(),
            "{:?}",
            lint_file("a.rs", src)
        );
    }

    #[test]
    fn diagnostics_format_is_machine_readable() {
        let d = SourceDiagnostic {
            file: "crates/x/src/lib.rs".to_string(),
            line: 7,
            rule: "no-unwrap",
            message: "m".to_string(),
        };
        assert_eq!(format!("{d}"), "crates/x/src/lib.rs:7 no-unwrap m");
    }
}
