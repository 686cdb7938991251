//! Concurrency-aware static analysis: lock-order graph, guard-across-
//! dispatch detection, and determinism linting.
//!
//! The pass shares the [`crate::lexer`] machinery with the source linter
//! and stays dependency-free. Three rules, same diagnostic format
//! (`file:line rule message`), same inline suppression mechanism
//! (`// analyze:allow(<rule>) <reason>`):
//!
//! * `lock-cycle` — the inter-procedural lock-order graph contains a cycle
//!   (or a lock is re-acquired while already held); the report carries both
//!   acquisition chains as `file:line -> file:line` hops.
//! * `lock-across-dispatch` — a guard is live across a blocking boundary:
//!   pool dispatch (`dance_backend::run`/`spawn_service`),
//!   `Condvar::wait` (other guards than the waited-on one), channel
//!   `recv`, thread `join`, or file/socket I/O.
//! * `determinism` — result-affecting iteration over `HashMap`/`HashSet`,
//!   or ambient entropy (clocks, thread/process ids, OS randomness) inside
//!   the numeric crates. Protects the bit-identical-at-any-`DANCE_THREADS`
//!   invariant that guard resume digests and serve cache replay verify.
//!
//! Entry points: [`analyze_sources`] over in-memory `(path, content)`
//! pairs (used by tests and fixtures) and [`analyze_tree`] over a
//! directory.

pub mod determinism;
pub mod graph;
pub mod parse;

use std::io;
use std::path::Path;

use crate::source::SourceDiagnostic;

/// The result of the concurrency pass over a file set.
#[derive(Debug, Default)]
pub struct ConcurrencyReport {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<SourceDiagnostic>,
    /// Deterministic rendering of the lock-order graph (inventory + edges).
    pub graph_text: String,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl ConcurrencyReport {
    /// Whether the pass found no violations.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Runs the full concurrency pass over `(display_path, content)` pairs.
#[must_use]
pub fn analyze_sources(files: &[(String, String)]) -> ConcurrencyReport {
    let helpers = parse::collect_helpers(files);
    let mut fns = Vec::new();
    for (path, content) in files {
        fns.extend(parse::parse_file(path, content, &helpers));
    }
    let lock_graph = graph::build(&fns);
    let mut diagnostics = lock_graph.diagnostics.clone();
    for (path, content) in files {
        diagnostics.extend(determinism::lint_determinism(path, content));
    }
    diagnostics.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    ConcurrencyReport {
        graph_text: graph::render(&lock_graph),
        diagnostics,
        files_scanned: files.len(),
    }
}

/// Runs the concurrency pass over every lintable `.rs` file under `root`.
///
/// # Errors
///
/// Returns any I/O error encountered while walking or reading files.
pub fn analyze_tree(root: &Path) -> io::Result<ConcurrencyReport> {
    let files = crate::lexer::read_tree(root)?;
    Ok(analyze_sources(&files))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_combines_graph_and_determinism_findings() {
        let files = vec![(
            "crates/nas/src/x.rs".to_string(),
            "struct S { m: std::collections::HashMap<u32, f32>, l: std::sync::Mutex<u32> }\nimpl S {\n    fn f(&self, rx: &std::sync::mpsc::Receiver<u32>) -> f32 {\n        let g = self.l.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n        let v = rx.recv();\n        drop(g);\n        let mut s = 0.0;\n        for (_k, x) in self.m.iter() {\n            s += x;\n        }\n        let _ = v;\n        s\n    }\n}\n"
                .to_string(),
        )];
        let report = analyze_sources(&files);
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"lock-across-dispatch"), "{rules:?}");
        assert!(rules.contains(&"determinism"), "{rules:?}");
        assert!(
            report.graph_text.contains("nas::l"),
            "{}",
            report.graph_text
        );
        assert_eq!(report.files_scanned, 1);
    }
}
