//! RAII spans with thread-local nesting and per-name aggregation.
//!
//! A [`SpanGuard`] measures the wall time between its creation and drop on a
//! monotonic clock. Every close folds the duration into a [`SpanStats`]
//! aggregate (count, total, min, max, and a log₂ duration histogram for
//! p50/p95 estimates) in the recording thread's own shard, keyed by the
//! address of the span's `&'static str` name, so a close hashes no name
//! bytes and never waits on another thread. [`span_report`] merges the
//! shards by name. Nesting depth is tracked per thread, so concurrent
//! threads never corrupt each other's stacks.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use crate::{runlog, shard};

/// Number of log₂ duration buckets (covers 1 ns … ~584 years).
const NUM_BUCKETS: usize = 64;

/// Aggregated timing statistics for one span name.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Number of closed spans.
    pub count: u64,
    /// Total wall time in nanoseconds.
    pub total_ns: u64,
    /// Shortest observed span in nanoseconds.
    pub min_ns: u64,
    /// Longest observed span in nanoseconds.
    pub max_ns: u64,
    /// `buckets[i]` counts spans with `floor(log2(ns)) == i`.
    buckets: [u64; NUM_BUCKETS],
}

impl Default for SpanStats {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl SpanStats {
    /// Folds one duration into the aggregate.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let idx = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[idx.min(NUM_BUCKETS - 1)] += 1;
    }

    /// Folds another aggregate of the same name into this one.
    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Mean duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.total_ns / self.count
        }
    }

    /// Approximate q-quantile (`0.0 ..= 1.0`) in nanoseconds, estimated as
    /// the geometric midpoint of the log₂ bucket containing the quantile,
    /// clamped into the observed `[min, max]` range.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Geometric midpoint of [2^idx, 2^(idx+1)): 2^idx * sqrt(2).
                let mid = (2f64.powi(idx as i32) * std::f64::consts::SQRT_2) as u64;
                return mid.clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }
}

/// One row of a span report: a name with its aggregate statistics.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span name (as given to [`crate::span!`] / [`crate::hot_span!`]).
    pub name: String,
    /// The aggregated statistics.
    pub stats: SpanStats,
}

/// Folds a measured duration into the calling thread's aggregate for
/// `name`.
#[inline]
pub fn record_duration(name: &'static str, ns: u64) {
    if !crate::enabled() {
        return;
    }
    shard::with_local(|s| s.span(name).record(ns));
}

/// Interned `prefix + key` span names, so callsites with dynamic name parts
/// (e.g. per-op backward timing keyed by the op registry) can record without
/// allocating per call. Each distinct pair leaks one string; the pair space
/// is bounded by the op registry, so the leak is a few hundred bytes total.
static INTERNED: Mutex<Option<HashMap<(&'static str, &'static str), &'static str>>> =
    Mutex::new(None);

fn intern(prefix: &'static str, key: &'static str) -> &'static str {
    let mut guard = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry((prefix, key))
        .or_insert_with(|| Box::leak(format!("{prefix}{key}").into_boxed_str()))
}

/// Folds a duration into the aggregate named `prefix` + `key`. The shard
/// finds the pair by address; the name is composed and interned only on
/// its first appearance in a shard.
pub fn record_duration_prefixed(prefix: &'static str, key: &'static str, ns: u64) {
    if !crate::enabled() {
        return;
    }
    let seen = shard::with_local(|s| s.prefixed_span(prefix, key).map(|st| st.record(ns)));
    if seen.is_none() {
        let name = intern(prefix, key);
        shard::with_local(|s| s.insert_prefixed_span(prefix, key, name).record(ns));
    }
}

/// Snapshot of every span aggregate, merged across threads by name and
/// sorted by total time (descending).
pub fn span_report() -> Vec<SpanAgg> {
    let mut merged: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    shard::for_each(|s| {
        for (name, stats) in &s.spans {
            merged.entry(name).or_default().merge(stats);
        }
    });
    let mut out: Vec<SpanAgg> = merged
        .into_iter()
        .map(|(name, stats)| SpanAgg {
            name: name.to_string(),
            stats,
        })
        .collect();
    // Ties on total_ns (e.g. two zero-length spans) sort by name.
    out.sort_by(|a, b| {
        b.stats
            .total_ns
            .cmp(&a.stats.total_ns)
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// Clears every span aggregate in every shard (called when a new run log
/// starts so each run file is self-contained).
pub fn reset() {
    shard::for_each(shard::Shard::clear_spans);
}

thread_local! {
    /// Per-thread nesting depth; spans on different threads never see each
    /// other.
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// An RAII span: created by [`crate::span!`] / [`crate::hot_span!`], records
/// its wall time on drop.
#[must_use = "bind the span guard to a named variable (`let _guard = span!(…)`); \
              dropping it immediately measures nothing"]
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// `None` when telemetry is off: an inert guard reads no clock.
    start: Option<Instant>,
    streamed: bool,
    depth: u32,
}

impl SpanGuard {
    /// Opens a span. `streamed` spans additionally emit one JSONL event on
    /// close when a run log is active; non-streamed (hot) spans only
    /// aggregate. Returns an inert guard when telemetry is disabled.
    pub fn enter(name: &'static str, streamed: bool) -> Self {
        if !crate::enabled() {
            return Self {
                name,
                start: None,
                streamed: false,
                depth: 0,
            };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Self {
            name,
            start: Some(Instant::now()),
            streamed,
            depth,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        record_duration(self.name, ns);
        if self.streamed {
            runlog::emit_span(self.name, ns, self.depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_aggregate_count_total_min_max() {
        let mut s = SpanStats::default();
        for ns in [100, 200, 300] {
            s.record(ns);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.total_ns, 600);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 300);
        assert_eq!(s.mean_ns(), 200);
    }

    #[test]
    fn quantiles_are_within_observed_range() {
        let mut s = SpanStats::default();
        for ns in [10, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120] {
            s.record(ns);
        }
        let p50 = s.quantile_ns(0.5);
        let p95 = s.quantile_ns(0.95);
        assert!((10..=5120).contains(&p50), "p50 {p50} out of range");
        assert!((10..=5120).contains(&p95), "p95 {p95} out of range");
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
    }

    #[test]
    fn quantile_of_uniform_durations_is_that_duration() {
        let mut s = SpanStats::default();
        for _ in 0..100 {
            s.record(1000);
        }
        // All observations share one bucket; clamping pins the estimate.
        assert_eq!(s.quantile_ns(0.5), 1000);
        assert_eq!(s.quantile_ns(0.95), 1000);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = SpanStats::default();
        assert_eq!(s.mean_ns(), 0);
        assert_eq!(s.quantile_ns(0.5), 0);
    }

    #[test]
    fn zero_duration_lands_in_first_bucket() {
        let mut s = SpanStats::default();
        s.record(0);
        assert_eq!(s.count, 1);
        assert_eq!(s.quantile_ns(0.5), 0); // clamped into [min, max] = [0, 0]
    }

    #[test]
    fn prefixed_names_are_interned_and_aggregated() {
        if !crate::enabled() {
            return;
        }
        record_duration_prefixed("test.span.bwd.", "matmul", 500);
        record_duration_prefixed("test.span.bwd.", "matmul", 700);
        let report = span_report();
        let row = report
            .iter()
            .find(|a| a.name == "test.span.bwd.matmul")
            .expect("interned span name missing from the report");
        assert!(row.stats.count >= 2);
        assert!(row.stats.total_ns >= 1200);
    }

    #[test]
    fn guard_records_into_global_aggregator() {
        if !crate::enabled() {
            return; // nothing to assert when the env disables telemetry
        }
        {
            let _g = SpanGuard::enter("test.span.guard_records", false);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let report = span_report();
        let row = report
            .iter()
            .find(|a| a.name == "test.span.guard_records")
            .expect("span name missing from the report");
        assert!(row.stats.count >= 1);
        assert!(row.stats.total_ns >= 1_000_000, "slept ≥ 1 ms");
    }
}
