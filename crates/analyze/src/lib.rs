#![warn(missing_docs)]

//! # dance-analyze
//!
//! Static analysis for the DANCE reproduction, in two passes:
//!
//! 1. **Graph linting** ([`graph`]): walks a built autodiff tape — supernet
//!    mixture forward, evaluator cost network, hardware loss — and re-checks
//!    every node against the [`dance_autograd::opspec`] registry *before*
//!    training starts. Shape-rule violations, wrong arities, trainable
//!    parameters with no gradient path to the loss, constant-folded dead
//!    subgraphs, and NaN-prone patterns (a `ln` fed by an unguarded
//!    `softmax`/`div`) are reported statically instead of panicking (or
//!    silently mis-training) mid-epoch. `dance::search::dance_search` runs
//!    this pass on a probe batch and refuses to train on errors.
//!
//! 2. **Source linting** ([`source`]): a hand-rolled, dependency-free line
//!    lexer over `crates/` enforcing workspace conventions — no `unwrap()`
//!    in non-test library code, no float `==` comparisons, and `panic!` in
//!    the `dance-cost`/`dance-autograd` hot paths requires a `# Panics` doc
//!    section.
//!    Diagnostics are machine-readable (`file:line rule message`) and the
//!    CLI exits non-zero for CI.
//!
//! 3. **Concurrency analysis** ([`concurrency`]): a lock-order / guard-
//!    lifetime pass over the same lexed sources. It extracts every
//!    `.lock()`/`.read()`/`.write()` acquisition (plus guard-returning
//!    helpers), tracks guard scopes, resolves intra-workspace calls made
//!    while a guard is live into an inter-procedural lock-order graph, and
//!    reports order cycles (`lock-cycle`), guards held across blocking
//!    boundaries (`lock-across-dispatch`), and nondeterminism hazards
//!    (`determinism`) that would break the bit-identical-results invariant.
//!    Inline `// analyze:allow(<rule>)` comments suppress single findings.
//!
//! Run all passes over the repository with:
//!
//! ```text
//! cargo run -p dance-analyze -- --all
//! ```

pub mod concurrency;
pub mod graph;
pub mod lexer;
pub mod source;

pub use concurrency::{analyze_sources, analyze_tree, ConcurrencyReport};
pub use graph::{lint_graph, GraphDiagnostic, GraphReport, Severity};
pub use source::{lint_file, lint_tree, SourceDiagnostic};
