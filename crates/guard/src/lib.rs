//! # dance-guard
//!
//! Fault tolerance for the DANCE search stack. The co-exploration loop is
//! ordinary backpropagation on `Loss = CE + λ1‖w‖ + λ2·CostHW`, and that
//! loop is numerically fragile: Gumbel-softmax sampling at low temperature,
//! a learned cost estimator that can emit garbage off-distribution, and
//! multi-hour searches that a single NaN or process death would otherwise
//! lose entirely. This crate supplies four defenses, threaded through
//! `dance::dance_search_guarded`:
//!
//! 1. **Numeric-health watchdog** ([`watchdog`]): cheap non-finite scans
//!    over loss, gradients and arch params each step, plus a rolling
//!    EWMA + z-score loss-spike detector.
//! 2. **Checkpoint / rollback / resume** ([`checkpoint`]): periodic atomic
//!    snapshots of supernet weights, arch params, optimizer state, RNG
//!    state and epoch cursor; automatic rollback-to-last-good on a watchdog
//!    trip; bit-for-bit resume of a killed run.
//! 3. **Graceful cost-model degradation** ([`degrade`]): when the learned
//!    cost net emits non-finite or out-of-envelope values, the search
//!    swaps in a differentiable analytical surrogate instead of aborting.
//! 4. **Fault injection** ([`fault`]): a deterministic
//!    [`fault::FaultPlan`] that exercises every recovery path above in
//!    tests rather than trusting them.
//!
//! Every guard site in the hot path is gated on [`enabled()`], so
//! `DANCE_GUARD=off` reduces the whole subsystem to one branch on a cached
//! atomic — the same contract `dance-telemetry` makes.

pub mod checkpoint;
pub mod degrade;
pub mod fault;
pub mod watchdog;

use std::sync::atomic::{AtomicU8, Ordering};

use crate::checkpoint::CheckpointConfig;
use crate::degrade::AnalyticCostModel;
use crate::watchdog::WatchdogConfig;

/// Tri-state cache for the `DANCE_GUARD` environment check:
/// 0 = not yet read, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether guard instrumentation runs at all.
///
/// Reads the `DANCE_GUARD` environment variable once and caches the answer,
/// so every later call — and therefore every disabled guard site in the
/// search loop — costs one atomic load and a branch. The guard is on by
/// default; the values `off`, `0` and `false` disable it.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("DANCE_GUARD").as_deref(),
                Ok("off") | Ok("0") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// How many rollbacks a guarded run attempts before giving up on recovery
/// and returning the last-good state as the outcome.
pub const MAX_ROLLBACKS: u32 = 3;

/// Multiplier applied to the arch (Adam) learning rate after each
/// rollback, damping the oscillation that caused the trip.
pub const ROLLBACK_ARCH_LR_DECAY: f32 = 0.5;

/// Configuration for a guarded search run.
///
/// The default value is the "observe only" guard: watchdog on, no disk
/// checkpoints, no resume, no cost-model fallback. `dance_search` uses it
/// verbatim, which keeps the unguarded entry point bit-identical to the
/// pre-guard behavior (the watchdog reads values but consumes no RNG).
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Loss-spike and non-finite detection thresholds.
    pub watchdog: WatchdogConfig,
    /// The checkpoint directory, written every epoch, and whether to
    /// resume from it; `None` keeps checkpointing off.
    pub checkpoint: Option<CheckpointConfig>,
    /// Ratio beyond which a learned cost prediction counts as
    /// out-of-envelope versus the analytical model (checked both ways:
    /// `pred/analytic > envelope` or `< 1/envelope`). Only enforced when
    /// [`GuardConfig::cost_fallback`] is present.
    pub cost_envelope: f32,
    /// Analytical surrogate to degrade to when the learned cost net
    /// misbehaves. Without it, degradation drops the HW term instead.
    pub cost_fallback: Option<AnalyticCostModel>,
    /// Deterministic faults to inject, for exercising the recovery paths.
    pub fault_plan: Option<fault::FaultPlan>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self {
            watchdog: WatchdogConfig::default(),
            checkpoint: None,
            cost_envelope: 100.0,
            cost_fallback: None,
            fault_plan: None,
        }
    }
}

/// What the guard did during a search run, attached to `SearchOutcome`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GuardReport {
    /// Watchdog trips observed (non-finite values or loss spikes).
    pub watchdog_trips: u32,
    /// Rollbacks to the last-good snapshot actually performed.
    pub rollbacks: u32,
    /// Whether the HW-cost term was degraded away from the learned net.
    pub cost_model_degraded: bool,
    /// The epoch cursor restored from disk, when the run resumed.
    pub resumed_from_epoch: Option<usize>,
    /// On-disk checkpoints written by this run.
    pub checkpoints_written: u32,
    /// Set only by the fault-injection harness's simulated crash.
    pub aborted_by_fault: bool,
}

impl GuardReport {
    /// Folds another run's report into this one — counters add, flags OR,
    /// and the earliest resume epoch wins. Long-lived processes that host
    /// many guarded runs (the `dance-fleet` supervisor behind `dance-serve`)
    /// aggregate per-job reports this way for their `health` endpoint.
    pub fn absorb(&mut self, other: &GuardReport) {
        self.watchdog_trips += other.watchdog_trips;
        self.rollbacks += other.rollbacks;
        self.cost_model_degraded |= other.cost_model_degraded;
        self.resumed_from_epoch = match (self.resumed_from_epoch, other.resumed_from_epoch) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.checkpoints_written += other.checkpoints_written;
        self.aborted_by_fault |= other.aborted_by_fault;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_observe_only() {
        let cfg = GuardConfig::default();
        assert!(cfg.checkpoint.is_none());
        assert!(cfg.cost_fallback.is_none());
        assert!(cfg.cost_envelope > 1.0);
    }

    #[test]
    fn absorb_sums_counters_and_ors_flags() {
        let mut total = GuardReport {
            watchdog_trips: 1,
            checkpoints_written: 2,
            resumed_from_epoch: Some(5),
            ..GuardReport::default()
        };
        total.absorb(&GuardReport {
            watchdog_trips: 2,
            rollbacks: 1,
            cost_model_degraded: true,
            resumed_from_epoch: Some(3),
            checkpoints_written: 4,
            aborted_by_fault: false,
        });
        assert_eq!(total.watchdog_trips, 3);
        assert_eq!(total.rollbacks, 1);
        assert!(total.cost_model_degraded);
        assert_eq!(total.resumed_from_epoch, Some(3));
        assert_eq!(total.checkpoints_written, 6);
        assert!(!total.aborted_by_fault);
    }

    #[test]
    fn default_report_is_clean() {
        let report = GuardReport::default();
        assert_eq!(report.watchdog_trips, 0);
        assert_eq!(report.rollbacks, 0);
        assert!(!report.cost_model_degraded);
        assert!(report.resumed_from_epoch.is_none());
        assert!(!report.aborted_by_fault);
    }
}
