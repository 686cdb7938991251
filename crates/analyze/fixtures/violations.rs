//! Seeded source-lint violations. This tree is excluded from the repo-wide
//! walk (the walker skips directories named `fixtures`) and exists so tests
//! and CI can point `dance-analyze --source` at it and assert a non-zero
//! exit with one diagnostic per rule.
//!
//! Expected findings in this file: `no-unwrap`, `expect-message`,
//! `float-eq`, `span-guard`, `checkpoint-io`, `lock-unwrap`, `raw-spawn`.

/// Violates `no-unwrap`: library code must propagate or justify the error.
pub fn seeded_unwrap(values: &[f32]) -> f32 {
    *values.first().unwrap()
}

/// Violates `expect-message`: the message is too short to explain anything.
pub fn seeded_short_expect(values: &[f32]) -> f32 {
    *values.last().expect("no")
}

/// Violates `float-eq`: exact equality against a float literal.
pub fn seeded_float_eq(x: f32) -> bool {
    x == 0.5
}

/// Violates `span-guard`: binding a span guard to `_` drops it instantly.
pub fn seeded_dropped_span_guard() {
    let _ = span!("seeded.phase");
}

/// Violates `checkpoint-io`: result artifacts must be written through an
/// atomic temp+rename helper, not a bare `fs::write`.
pub fn seeded_direct_artifact_write() {
    std::fs::write("results/summary.json", "{}").ok();
}

/// Violates `lock-unwrap`: a poisoned mutex panics here instead of being
/// recovered with `unwrap_or_else(PoisonError::into_inner)`.
pub fn seeded_lock_unwrap(counter: &std::sync::Mutex<u64>) -> u64 {
    *counter.lock().unwrap()
}

/// Violates `raw-spawn`: an ad-hoc thread bypasses the shared backend pool
/// (it ignores `DANCE_THREADS` and the deterministic chunk decomposition).
pub fn seeded_raw_spawn() {
    std::thread::spawn(|| {}).join().ok();
}

/// Stand-in span macro so the fixture parses without `dance-telemetry`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $name
    };
}
