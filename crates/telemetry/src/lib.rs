//! # dance-telemetry
//!
//! Zero-dependency tracing, metrics and run-log subsystem for the DANCE
//! workspace. The north-star claim of the paper — and of this repo — is
//! *wall-clock*: replacing the hardware toolchain with differentiable
//! surrogates makes co-exploration orders of magnitude cheaper per step.
//! This crate is how that claim gets measured instead of asserted: every
//! later performance PR cites before/after numbers from the same artifact.
//!
//! Three layers, all behind one `DANCE_TELEMETRY=off` kill switch whose
//! disabled-mode overhead is a single branch on a cached atomic:
//!
//! 1. **Spans** ([`span!`] / [`hot_span!`]): RAII guards with thread-local
//!    nesting stacks, monotonic timing and per-name aggregation (count,
//!    total/mean/p50/p95 wall time). `span!` additionally streams one JSONL
//!    event per close when a run log is active; `hot_span!` only aggregates,
//!    so per-step and per-op instrumentation stays cheap.
//! 2. **Metrics** ([`counter!`], [`gauge!`], [`histogram!`]): monotonic
//!    counters, last-value gauges, and fixed-bucket histograms (log-spaced
//!    1–2–5 buckets by default).
//!
//! Span, counter and histogram records land in the recording thread's own
//! [`shard`], so threads never contend while recording; reports and resets
//! walk every shard.
//! 3. **Run logs** ([`runlog::RunGuard`]): one JSONL file per run under
//!    `results/runs/<run-id>.jsonl` streaming span/gauge events while the
//!    run is active, then dumping every aggregate (span stats, counters,
//!    gauges, histogram snapshots) plus a human-readable summary table on
//!    drop. `cargo run -p dance-telemetry -- summarize <run.jsonl>` re-reads
//!    any such artifact.
//!
//! ```
//! let _run = dance_telemetry::runlog::RunGuard::start("doc-example");
//! {
//!     let _span = dance_telemetry::span!("doc.phase");
//!     dance_telemetry::counter!("doc.items", 3);
//!     dance_telemetry::histogram!("doc.loss", 0.25);
//! }
//! // aggregates are dumped to the run file when `_run` drops.
//! ```

pub mod json;
pub mod metrics;
pub mod runlog;
pub mod shard;
pub mod span;
pub mod summarize;

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state cache for the `DANCE_TELEMETRY` environment check:
/// 0 = not yet read, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry is collected at all.
///
/// Reads the `DANCE_TELEMETRY` environment variable once and caches the
/// answer, so every later call — and therefore every disabled macro site —
/// costs one atomic load and a branch. Telemetry is on by default; the
/// values `off`, `0` and `false` disable it.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("DANCE_TELEMETRY").as_deref(),
                Ok("off") | Ok("0") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Times a closure under a span name (aggregation only, never streamed).
///
/// Shorthand for wrapping a value computation in a [`hot_span!`] without
/// restructuring the expression; when telemetry is disabled the closure runs
/// with no timing at all.
#[inline]
pub fn time<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = std::time::Instant::now();
    let out = f();
    span::record_duration(name, start.elapsed().as_nanos() as u64);
    out
}

/// Opens an RAII span: aggregated under its name *and* streamed as one JSONL
/// event (when a run log is active) on drop. Bind the guard to a named
/// variable — `let _guard = span!("search.epoch");` — so it lives to the end
/// of the scope; `let _ = span!(…)` drops it immediately and records nothing
/// useful (the `span-guard` source lint flags exactly that).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, true)
    };
}

/// Opens an aggregation-only RAII span for hot paths (per step, per op, per
/// cost-model call): never streamed, so the only cost per close is one
/// clock read and one update of the thread's own shard. Aggregates still
/// land in the run file as `span_agg` events when the run ends.
#[macro_export]
macro_rules! hot_span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, false)
    };
}

/// Increments a monotonic counter (by 1, or by an explicit amount).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::metrics::inc_counter($name, 1)
    };
    ($name:expr, $n:expr) => {
        $crate::metrics::inc_counter($name, $n)
    };
}

/// Sets a gauge to its latest value; streamed as a JSONL event when a run
/// log is active (gauges are the per-epoch time series of a run).
#[macro_export]
macro_rules! gauge {
    ($name:expr, $value:expr) => {
        $crate::metrics::set_gauge($name, $value)
    };
}

/// Records one observation into a fixed-bucket histogram.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $value:expr) => {
        $crate::metrics::observe($name, $value)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_is_cached_and_stable() {
        // Whatever the environment says, two reads agree (the first read
        // latches the value).
        assert_eq!(super::enabled(), super::enabled());
    }

    #[test]
    fn time_returns_closure_value() {
        assert_eq!(super::time("test.time", || 41 + 1), 42);
    }
}
