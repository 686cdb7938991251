//! The metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Counters and histograms are aggregated in the recording thread's own
//! shard, keyed by name, so hot counters (`tape.nodes`, one per tape node)
//! never wait on another thread; [`snapshot`] merges the shards. Gauges
//! hold a last value and stream every update to the run log, so they stay
//! in one global map. Names are free-form dotted strings (`"tape.nodes"`,
//! `"epoch.loss"`) stored as owned strings, so dynamically composed names
//! (e.g. per-chosen-op counters) work too.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{runlog, shard};

/// A fixed-bucket histogram over `f64` observations.
///
/// Buckets are defined by an ascending boundary list `b_0 < b_1 < …`:
/// observation `v` lands in the first bucket whose boundary satisfies
/// `v <= b_i`, or in the overflow bucket past the last boundary. The default
/// boundary ladder is log-spaced 1–2–5 across twelve decades (`1e-6` to
/// `1e6`), which covers loss values, millisecond timings and node counts
/// alike without per-site configuration.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A histogram with the default 1–2–5 log-spaced boundary ladder.
    pub fn new() -> Self {
        let mut bounds = Vec::with_capacity(37);
        for exp in -6..=5i32 {
            let decade = 10f64.powi(exp);
            for mult in [1.0, 2.0, 5.0] {
                bounds.push(mult * decade);
            }
        }
        bounds.push(1e6);
        Self::with_bounds(bounds)
    }

    /// A histogram with explicit ascending boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one boundary");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly ascending"
        );
        let n = bounds.len() + 1;
        Self {
            bounds,
            counts: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Index of the bucket an observation falls into.
    fn bucket_of(&self, v: f64) -> usize {
        self.bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len())
    }

    /// Records one observation. Non-finite values count toward `count` but
    /// are excluded from the buckets and extrema, so a stray NaN cannot
    /// poison the whole distribution.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if !v.is_finite() {
            return;
        }
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let idx = self.bucket_of(v);
        self.counts[idx] += 1;
    }

    /// Folds another histogram with the same boundaries into this one.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.bounds, other.bounds, "merged histograms share bounds");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The boundary list.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (`bounds.len() + 1` entries; the last is overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Mean of the finite observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let finite: u64 = self.counts.iter().sum();
        if finite == 0 {
            0.0
        } else {
            self.sum / finite as f64
        }
    }

    /// Approximate q-quantile (`0.0 ..= 1.0`): the upper boundary of the
    /// bucket containing the quantile, clamped into the observed range.
    pub fn quantile(&self, q: f64) -> f64 {
        let finite: u64 = self.counts.iter().sum();
        if finite == 0 {
            return 0.0;
        }
        let rank = ((q * finite as f64).ceil() as u64).clamp(1, finite);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = self.bounds.get(idx).copied().unwrap_or(self.max);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Last value of every gauge.
static GAUGES: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());

fn lock_gauges() -> MutexGuard<'static, BTreeMap<String, f64>> {
    GAUGES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `n` to the counter `name` (creating it at zero).
pub fn inc_counter(name: &str, n: u64) {
    if !crate::enabled() {
        return;
    }
    shard::with_local(|s| match s.counters.get_mut(name) {
        Some(c) => *c += n,
        None => {
            s.counters.insert(name.to_string(), n);
        }
    });
}

/// Sets the gauge `name` to `value` and streams a JSONL event when a run
/// log is active (gauges form the per-epoch time series of a run).
pub fn set_gauge(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    lock_gauges().insert(name.to_string(), value);
    runlog::emit_gauge(name, value);
}

/// Records one observation into the histogram `name` (default buckets).
pub fn observe(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    shard::with_local(|s| match s.histograms.get_mut(name) {
        Some(h) => h.observe(value),
        None => {
            let mut h = Histogram::new();
            h.observe(value);
            s.histograms.insert(name.to_string(), h);
        }
    });
}

/// A point-in-time copy of the whole metrics registry.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Copies the current registry contents, merging every thread's counters
/// and histograms by name.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot {
        gauges: lock_gauges().clone(),
        ..MetricsSnapshot::default()
    };
    shard::for_each(|s| {
        for (name, n) in &s.counters {
            *snap.counters.entry(name.clone()).or_default() += n;
        }
        for (name, h) in &s.histograms {
            match snap.histograms.get_mut(name) {
                Some(merged) => merged.merge(h),
                None => {
                    snap.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    });
    snap
}

/// Clears every counter, gauge and histogram (new run starting).
pub fn reset() {
    lock_gauges().clear();
    shard::for_each(|s| {
        s.counters.clear();
        s.histograms.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_respects_boundaries() {
        let mut h = Histogram::with_bounds(vec![1.0, 2.0, 5.0]);
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 100.0] {
            h.observe(v);
        }
        // v <= 1.0 → bucket 0; 1.0 < v <= 2.0 → bucket 1; ≤ 5.0 → 2; else 3.
        assert_eq!(h.counts(), &[2, 2, 2, 1]);
        assert_eq!(h.count, 7);
        assert!((h.min - 0.5).abs() < 1e-12);
        assert!((h.max - 100.0).abs() < 1e-12);
    }

    #[test]
    fn default_buckets_cover_many_decades() {
        let mut h = Histogram::new();
        for v in [1e-7, 1e-3, 0.5, 3.0, 40.0, 1e5, 1e7] {
            h.observe(v);
        }
        assert_eq!(h.count, 7);
        let total: u64 = h.counts().iter().sum();
        assert_eq!(total, 7, "every finite observation lands in some bucket");
        // The extremes go to the first and overflow buckets.
        assert_eq!(h.counts()[0], 1);
        assert_eq!(*h.counts().last().expect("histogram has buckets"), 1);
    }

    #[test]
    fn non_finite_observations_do_not_poison() {
        let mut h = Histogram::new();
        h.observe(1.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count, 3);
        assert!((h.mean() - 1.0).abs() < 1e-12);
        assert!((h.max - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_monotone_and_in_range() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        assert!((1.0..=100.0).contains(&p50));
        assert!((1.0..=100.0).contains(&p95));
        assert!(p95 >= 50.0, "p95 {p95} implausibly low");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::with_bounds(vec![2.0, 1.0]);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        if !crate::enabled() {
            return;
        }
        inc_counter("test.metrics.counter", 2);
        inc_counter("test.metrics.counter", 3);
        set_gauge("test.metrics.gauge", 1.5);
        set_gauge("test.metrics.gauge", 2.5);
        observe("test.metrics.hist", 0.1);
        let snap = snapshot();
        assert!(snap.counters["test.metrics.counter"] >= 5);
        assert!((snap.gauges["test.metrics.gauge"] - 2.5).abs() < 1e-12);
        assert!(snap.histograms["test.metrics.hist"].count >= 1);
    }
}
