//! Pareto-front utilities for accuracy-vs-cost design points.
//!
//! Figure 5's argument is a dominance argument: DANCE's designs are not
//! merely different trade-offs, they *dominate* the baseline's (lower error
//! at lower EDAP). These helpers make that check precise.
//!
//! Two layers live here:
//!
//! * the original batch helpers ([`pareto_front`], [`front_dominates`],
//!   [`hypervolume`]) used by the figure pipelines, and
//! * the incremental [`Frontier`] engine used by `dance-campaign`: design
//!   points arrive one at a time from dozens of concurrent searches, are
//!   deduplicated by a caller-chosen digest key, and fold into a
//!   non-dominated front with insert/dominate/evict outcomes and telemetry
//!   counters. The fold is **order-independent** — any interleaving of the
//!   same multiset of points produces the same front and the same
//!   [`Frontier::digest`] — which is what makes killed-and-resumed
//!   campaigns bit-for-bit reproducible.

use std::collections::{BTreeMap, BTreeSet};

/// A design point in (error, cost) space — lower is better on both axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Classification error (e.g. percent).
    pub error: f64,
    /// Hardware cost (e.g. EDAP).
    pub cost: f64,
}

impl ParetoPoint {
    /// Creates a point.
    pub fn new(error: f64, cost: f64) -> Self {
        Self { error, cost }
    }

    /// Whether `self` dominates `other` (no worse on both axes, strictly
    /// better on at least one).
    pub fn dominates(&self, other: &ParetoPoint) -> bool {
        self.error <= other.error
            && self.cost <= other.cost
            && (self.error < other.error || self.cost < other.cost)
    }
}

/// Indices of the non-dominated points, sorted by ascending error.
pub fn pareto_front(points: &[ParetoPoint]) -> Vec<usize> {
    let mut front: Vec<usize> = (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, p)| j != i && p.dominates(&points[i]))
        })
        .collect();
    front.sort_by(|&a, &b| {
        points[a]
            .error
            .partial_cmp(&points[b].error)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    front
}

/// Whether every point of `challengers` is dominated by *some* point of
/// `champions` — the "DANCE dominates the baseline" test of Figure 5.
pub fn front_dominates(champions: &[ParetoPoint], challengers: &[ParetoPoint]) -> bool {
    challengers
        .iter()
        .all(|c| champions.iter().any(|d| d.dominates(c)))
}

/// Hypervolume indicator with respect to a reference (worst-case) corner:
/// the area of (error, cost) space dominated by the front. Larger is
/// better; a scalar summary for comparing two sweeps.
pub fn hypervolume(points: &[ParetoPoint], reference: ParetoPoint) -> f64 {
    let front = pareto_front(points);
    let mut volume = 0.0;
    let mut prev_cost = reference.cost;
    for &i in &front {
        let p = points[i];
        if p.error >= reference.error || p.cost >= prev_cost {
            continue;
        }
        volume += (reference.error - p.error) * (prev_cost - p.cost);
        prev_cost = p.cost;
    }
    volume
}

/// One deduplicated design point held by a [`Frontier`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry {
    /// Dedup key — e.g. an FNV digest over (derived choices, dataset,
    /// envelope). Two samples with the same key describe the same design.
    pub key: u64,
    /// The (error, cost) sample. For equal keys the frontier keeps the
    /// lexicographically smallest sample, so the retained value is a
    /// commutative/associative/idempotent merge over everything inserted.
    pub point: ParetoPoint,
    /// Where the sample came from (e.g. `cell-0003`), for display only.
    pub origin: String,
    /// Producer-side sequence number (e.g. the search epoch), display only.
    pub epoch: u64,
}

/// What [`Frontier::insert`] did with a sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The point joined the front, evicting the listed member keys.
    Inserted {
        /// Keys of front members the new point dominates.
        evicted: Vec<u64>,
    },
    /// The point is dominated by the current front; archived, not shown.
    Dominated,
    /// The key was seen before with an at-least-as-good sample: a dedup hit.
    Duplicate,
}

/// Lifetime counters of a [`Frontier`] — the campaign telemetry surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierCounters {
    /// Total samples offered to [`Frontier::insert`].
    pub offered: u64,
    /// Samples that entered the front.
    pub inserts: u64,
    /// Samples archived because an existing member dominates them.
    pub dominated: u64,
    /// Front members displaced by a later dominating insert.
    pub evicted: u64,
    /// Samples whose key was already present (duplicate arch-digests).
    pub dedup_hits: u64,
    /// Duplicate-key samples that improved on the retained value.
    pub improved: u64,
}

impl FrontierCounters {
    /// Fraction of offered samples that were duplicate keys.
    pub fn dedup_hit_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.offered as f64
        }
    }
}

/// Lexicographic `(error, cost)` total order — the per-key merge rule.
fn point_le(a: &ParetoPoint, b: &ParetoPoint) -> bool {
    match a.error.total_cmp(&b.error) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.cost.total_cmp(&b.cost).is_le(),
    }
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one `u64` into an FNV-1a digest (byte-wise, little-endian).
pub fn fnv_fold(digest: u64, word: u64) -> u64 {
    let mut d = digest;
    for b in word.to_le_bytes() {
        d ^= u64::from(b);
        d = d.wrapping_mul(FNV_PRIME);
    }
    d
}

/// An incremental Pareto frontier with per-key deduplication.
///
/// The **archive** keeps the best sample ever seen for every key; the
/// **front** is the non-dominated subset of the archive. Both are functions
/// of the *set* of samples inserted, never of their order, so two campaigns
/// folding the same points in different interleavings agree bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    entries: BTreeMap<u64, FrontierEntry>,
    front: BTreeSet<u64>,
    counters: FrontierCounters,
}

impl Frontier {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one sample in and reports what happened.
    ///
    /// Non-finite coordinates are rejected as [`InsertOutcome::Dominated`]
    /// without touching the archive: a NaN point can neither dominate nor
    /// be ordered, and a degraded search must not poison the front.
    pub fn insert(&mut self, entry: FrontierEntry) -> InsertOutcome {
        self.counters.offered += 1;
        if !entry.point.error.is_finite() || !entry.point.cost.is_finite() {
            self.counters.dominated += 1;
            dance_telemetry::counter!("frontier.dominated");
            return InsertOutcome::Dominated;
        }
        let key = entry.key;
        if let Some(existing) = self.entries.get(&key) {
            self.counters.dedup_hits += 1;
            dance_telemetry::counter!("frontier.dedup_hit");
            if point_le(&existing.point, &entry.point) {
                return InsertOutcome::Duplicate;
            }
            self.counters.improved += 1;
        }
        self.entries.insert(key, entry);
        // Recompute the non-dominated subset from the archive. The archive
        // is order-independent, so the front and digest are too. Sizes are
        // campaign-scale (distinct designs), not sample-scale.
        let old_front = std::mem::take(&mut self.front);
        self.front = self.recompute_front();
        if self.front.contains(&key) {
            let evicted: Vec<u64> = old_front
                .iter()
                .filter(|k| **k != key && !self.front.contains(*k))
                .copied()
                .collect();
            self.counters.evicted += evicted.len() as u64;
            self.counters.inserts += 1;
            dance_telemetry::counter!("frontier.insert");
            if !evicted.is_empty() {
                dance_telemetry::metrics::inc_counter("frontier.evicted", evicted.len() as u64);
            }
            InsertOutcome::Inserted { evicted }
        } else {
            self.counters.dominated += 1;
            dance_telemetry::counter!("frontier.dominated");
            InsertOutcome::Dominated
        }
    }

    fn recompute_front(&self) -> BTreeSet<u64> {
        self.entries
            .iter()
            .filter(|(_, e)| {
                !self
                    .entries
                    .values()
                    .any(|other| other.point.dominates(&e.point))
            })
            .map(|(k, _)| *k)
            .collect()
    }

    /// Current front members, ascending by error (ties broken by key).
    pub fn front(&self) -> Vec<&FrontierEntry> {
        let mut members: Vec<&FrontierEntry> = self
            .front
            .iter()
            .filter_map(|k| self.entries.get(k))
            .collect();
        members.sort_by(|a, b| {
            a.point
                .error
                .total_cmp(&b.point.error)
                .then(a.key.cmp(&b.key))
        });
        members
    }

    /// Number of front members.
    pub fn front_len(&self) -> usize {
        self.front.len()
    }

    /// Number of distinct keys ever archived.
    pub fn archive_len(&self) -> usize {
        self.entries.len()
    }

    /// Every archived entry (front and dominated), in key order: the
    /// frontier's whole state, which any refold of the same samples
    /// reproduces.
    pub fn archive(&self) -> impl Iterator<Item = &FrontierEntry> {
        self.entries.values()
    }

    /// Whether `key` is currently on the front.
    pub fn on_front(&self, key: u64) -> bool {
        self.front.contains(&key)
    }

    /// Lifetime counters.
    pub fn counters(&self) -> FrontierCounters {
        self.counters
    }

    /// Order-independent FNV-1a digest of the front: folds each member's
    /// `(key, error bits, cost bits)` in ascending key order. Equal fronts
    /// produce equal digests regardless of insertion interleaving.
    pub fn digest(&self) -> u64 {
        let mut d = FNV_BASIS;
        for key in &self.front {
            if let Some(e) = self.entries.get(key) {
                d = fnv_fold(d, *key);
                d = fnv_fold(d, e.point.error.to_bits());
                d = fnv_fold(d, e.point.cost.to_bits());
            }
        }
        d
    }

    /// Hypervolume of the current front w.r.t. a reference corner.
    pub fn hypervolume(&self, reference: ParetoPoint) -> f64 {
        let points: Vec<ParetoPoint> = self.front().iter().map(|e| e.point).collect();
        hypervolume(&points, reference)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_is_strict_somewhere() {
        let a = ParetoPoint::new(1.0, 1.0);
        let b = ParetoPoint::new(2.0, 2.0);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(!a.dominates(&a), "a point never dominates itself");
    }

    #[test]
    fn front_excludes_dominated_points() {
        let pts = vec![
            ParetoPoint::new(1.0, 10.0),
            ParetoPoint::new(2.0, 5.0),
            ParetoPoint::new(3.0, 8.0), // dominated by (2, 5)
            ParetoPoint::new(4.0, 1.0),
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 3]);
    }

    #[test]
    fn front_sorted_by_error() {
        let pts = vec![ParetoPoint::new(5.0, 1.0), ParetoPoint::new(1.0, 5.0)];
        let f = pareto_front(&pts);
        assert_eq!(f, vec![1, 0]);
    }

    #[test]
    fn front_dominates_detects_full_domination() {
        let dance = vec![ParetoPoint::new(1.0, 2.0), ParetoPoint::new(2.0, 1.0)];
        let baseline = vec![ParetoPoint::new(2.0, 3.0), ParetoPoint::new(3.0, 2.0)];
        assert!(front_dominates(&dance, &baseline));
        assert!(!front_dominates(&baseline, &dance));
    }

    #[test]
    fn hypervolume_grows_with_better_points() {
        let reference = ParetoPoint::new(10.0, 10.0);
        let weak = vec![ParetoPoint::new(8.0, 8.0)];
        let strong = vec![ParetoPoint::new(2.0, 2.0)];
        assert!(hypervolume(&strong, reference) > hypervolume(&weak, reference));
    }

    #[test]
    fn hypervolume_of_empty_front_is_zero() {
        assert_eq!(hypervolume(&[], ParetoPoint::new(1.0, 1.0)), 0.0);
    }

    #[test]
    fn points_outside_reference_contribute_nothing() {
        let reference = ParetoPoint::new(5.0, 5.0);
        let pts = vec![ParetoPoint::new(6.0, 1.0)];
        assert_eq!(hypervolume(&pts, reference), 0.0);
    }

    fn entry(key: u64, error: f64, cost: f64) -> FrontierEntry {
        FrontierEntry {
            key,
            point: ParetoPoint::new(error, cost),
            origin: format!("cell-{key:04}"),
            epoch: 0,
        }
    }

    #[test]
    fn frontier_insert_dominate_evict_lifecycle() {
        let mut f = Frontier::new();
        assert!(matches!(
            f.insert(entry(1, 5.0, 5.0)),
            InsertOutcome::Inserted { ref evicted } if evicted.is_empty()
        ));
        // Worse on both axes: archived but dominated.
        assert_eq!(f.insert(entry(2, 6.0, 6.0)), InsertOutcome::Dominated);
        // A trade-off point joins without evicting.
        assert!(matches!(
            f.insert(entry(3, 6.5, 1.0)),
            InsertOutcome::Inserted { ref evicted } if evicted.is_empty()
        ));
        // Dominates key 1: insert + evict.
        assert_eq!(
            f.insert(entry(4, 4.0, 4.0)),
            InsertOutcome::Inserted { evicted: vec![1] }
        );
        assert_eq!(f.front_len(), 2);
        assert_eq!(f.archive_len(), 4);
        let c = f.counters();
        assert_eq!((c.inserts, c.dominated, c.evicted), (3, 1, 1));
    }

    #[test]
    fn frontier_duplicates_fold_by_key_keeping_the_best() {
        let mut f = Frontier::new();
        assert!(matches!(
            f.insert(entry(9, 5.0, 2.0)),
            InsertOutcome::Inserted { .. }
        ));
        // Same key, worse error: a pure dedup hit.
        assert_eq!(f.insert(entry(9, 6.0, 2.0)), InsertOutcome::Duplicate);
        // Same key, identical sample: still a duplicate.
        assert_eq!(f.insert(entry(9, 5.0, 2.0)), InsertOutcome::Duplicate);
        // Same key, better error: retained value improves in place.
        assert!(matches!(
            f.insert(entry(9, 4.0, 2.0)),
            InsertOutcome::Inserted { .. }
        ));
        assert_eq!(f.archive_len(), 1);
        let c = f.counters();
        assert_eq!(c.dedup_hits, 3);
        assert_eq!(c.improved, 1);
        assert!((c.dedup_hit_rate() - 0.75).abs() < 1e-12, "{c:?}");
        assert_eq!(f.front()[0].point, ParetoPoint::new(4.0, 2.0));
    }

    #[test]
    fn frontier_digest_is_insertion_order_independent() {
        let samples = [
            entry(1, 5.0, 5.0),
            entry(2, 6.0, 6.0),
            entry(3, 6.5, 1.0),
            entry(1, 4.5, 5.0),
            entry(4, 4.0, 4.0),
            entry(2, 3.0, 9.0),
        ];
        let mut forward = Frontier::new();
        let mut reverse = Frontier::new();
        for s in &samples {
            forward.insert(s.clone());
        }
        for s in samples.iter().rev() {
            reverse.insert(s.clone());
        }
        assert_eq!(forward.digest(), reverse.digest());
        assert_eq!(forward.front_len(), reverse.front_len());
        let fw: Vec<(u64, ParetoPoint)> =
            forward.front().iter().map(|e| (e.key, e.point)).collect();
        let rv: Vec<(u64, ParetoPoint)> =
            reverse.front().iter().map(|e| (e.key, e.point)).collect();
        assert_eq!(fw, rv);
    }

    #[test]
    fn frontier_rejects_non_finite_points() {
        let mut f = Frontier::new();
        assert_eq!(
            f.insert(entry(1, f64::NAN, 1.0)),
            InsertOutcome::Dominated,
            "NaN error must not enter the archive"
        );
        assert_eq!(
            f.insert(entry(2, 1.0, f64::INFINITY)),
            InsertOutcome::Dominated
        );
        assert_eq!(f.archive_len(), 0);
        assert_eq!(f.digest(), Frontier::new().digest());
    }

    #[test]
    fn frontier_members_never_dominate_each_other() {
        let mut f = Frontier::new();
        for (i, (e, c)) in [(5.0, 5.0), (4.0, 6.0), (6.0, 4.0), (3.0, 3.0), (2.0, 8.0)]
            .iter()
            .enumerate()
        {
            f.insert(entry(i as u64, *e, *c));
        }
        let front = f.front();
        for a in &front {
            for b in &front {
                assert!(
                    !a.point.dominates(&b.point),
                    "{:?} dominates {:?}",
                    a.point,
                    b.point
                );
            }
        }
    }
}
