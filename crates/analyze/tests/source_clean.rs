//! End-to-end source-linter checks: the workspace's own library code must be
//! clean, and the seeded-violation fixture must trip every rule.

use std::collections::BTreeSet;
use std::path::PathBuf;

use dance_analyze::source::lint_tree;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves")
}

/// The repo must pass its own linter — this is what keeps
/// `dance-analyze --all` exiting 0 in CI.
#[test]
fn workspace_sources_are_lint_clean() {
    let diags = lint_tree(&workspace_root()).expect("workspace walk succeeds");
    assert!(
        diags.is_empty(),
        "workspace has source-lint violations:\n{}",
        diags.iter().map(|d| format!("{d}\n")).collect::<String>()
    );
}

/// The fixture tree seeds exactly one violation per rule; every rule
/// must fire, each with a populated `file:line rule message` diagnostic.
#[test]
fn fixture_trips_every_rule() {
    let fixtures = workspace_root().join("crates/analyze/fixtures");
    let diags = lint_tree(&fixtures).expect("fixture walk succeeds");
    let rules: BTreeSet<&str> = diags.iter().map(|d| d.rule).collect();
    let expected: BTreeSet<&str> = [
        "no-unwrap",
        "expect-message",
        "float-eq",
        "panic-doc",
        "span-guard",
        "checkpoint-io",
        "lock-unwrap",
        "raw-spawn",
        "retry-backoff",
        "hot-alloc",
        "arena-escape",
    ]
    .into_iter()
    .collect();
    assert_eq!(rules, expected, "diagnostics: {diags:?}");
    for d in &diags {
        assert!(d.line > 0);
        assert!(!d.message.is_empty());
        let rendered = d.to_string();
        assert!(
            rendered.contains(&format!(":{} {}", d.line, d.rule)),
            "unexpected diagnostic format: {rendered}"
        );
    }
}
