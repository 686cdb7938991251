//! Deterministic fault injection for exercising the recovery paths.
//!
//! Every defense in this crate exists because something can go wrong in a
//! long search — and a recovery path that has never fired is a recovery
//! path that does not work. A [`FaultPlan`] scripts failures at exact
//! steps/epochs so tests drive the *same* rollback, skip-corrupt-checkpoint
//! and degrade-to-analytical machinery that production trips would.
//!
//! A plan is runtime data that
//! [`GuardConfig::fault_plan`](crate::GuardConfig::fault_plan) carries into
//! a search. It is `None` unless a test sets it, so a run without a plan
//! pays one `Option` check per hook. Per-attempt process faults (kill a
//! worker, or stall its heartbeat) are scripted by `dance-fleet`'s
//! `AttemptChaos`, not here.

use std::fs;
use std::io;
use std::path::Path;

/// One scripted failure.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Replace the observed training loss with NaN at global step `step`.
    NanLoss {
        /// Global weight-step index (monotone across rollback replays).
        step: u64,
    },
    /// Poison one value of the named parameter tensor at global step `step`.
    NanTensor {
        /// Parameter name as the search loop labels it (e.g. `supernet.3`).
        name: String,
        /// Global weight-step index.
        step: u64,
    },
    /// Make the learned cost net return `value` for every metric from
    /// global arch-step `from_step` on.
    CostGarbage {
        /// First arch-step the garbage applies to.
        from_step: u64,
        /// The value returned for all three metrics (NaN works too).
        value: f32,
    },
    /// Truncate the checkpoint file written for `epoch` right after the
    /// save, as a crash mid-write would.
    CorruptCheckpoint {
        /// Epoch whose checkpoint gets destroyed.
        epoch: usize,
    },
    /// Abort the search loop after `epoch` completes (and after its
    /// checkpoint is written), simulating a process kill.
    CrashAfterEpoch {
        /// Last epoch allowed to finish.
        epoch: usize,
    },
}

/// A scripted, deterministic set of faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault to the script.
    #[must_use]
    pub fn with(mut self, fault: Fault) -> Self {
        self.faults.push(fault);
        self
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Whether the loss at global weight-step `step` should become NaN.
    pub fn nan_loss_at(&self, step: u64) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::NanLoss { step: s } if *s == step))
    }

    /// The parameter to poison at global weight-step `step`, if any.
    pub fn nan_tensor_at(&self, step: u64) -> Option<&str> {
        self.faults.iter().find_map(|f| match f {
            Fault::NanTensor { name, step: s } if *s == step => Some(name.as_str()),
            _ => None,
        })
    }

    /// The garbage value the cost net should emit at arch-step `step`.
    pub fn cost_garbage_at(&self, step: u64) -> Option<f32> {
        self.faults.iter().find_map(|f| match f {
            Fault::CostGarbage { from_step, value } if step >= *from_step => Some(*value),
            _ => None,
        })
    }

    /// Whether the checkpoint written for `epoch` should be destroyed.
    pub fn corrupt_checkpoint_at(&self, epoch: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::CorruptCheckpoint { epoch: e } if *e == epoch))
    }

    /// Whether the run should die after `epoch` completes.
    pub fn crash_after(&self, epoch: usize) -> bool {
        self.faults
            .iter()
            .any(|f| matches!(f, Fault::CrashAfterEpoch { epoch: e } if *e == epoch))
    }

    /// Destroys a checkpoint file the way a crash mid-write would: the
    /// header survives, the payload is truncated garbage.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from rewriting the file.
    pub fn apply_corruption(path: &Path) -> io::Result<()> {
        fs::write(path, "dance-tensors v1\ntruncated-by-fault-injection")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_match_only_their_step() {
        let plan = FaultPlan::new()
            .with(Fault::NanLoss { step: 7 })
            .with(Fault::NanTensor {
                name: "alpha.2".to_string(),
                step: 9,
            })
            .with(Fault::CostGarbage {
                from_step: 4,
                value: f32::NAN,
            })
            .with(Fault::CorruptCheckpoint { epoch: 1 })
            .with(Fault::CrashAfterEpoch { epoch: 2 });
        assert!(plan.nan_loss_at(7));
        assert!(!plan.nan_loss_at(6));
        assert_eq!(plan.nan_tensor_at(9), Some("alpha.2"));
        assert_eq!(plan.nan_tensor_at(7), None);
        assert!(plan.cost_garbage_at(3).is_none());
        assert!(plan
            .cost_garbage_at(4)
            .expect("garbage from step 4")
            .is_nan());
        assert!(plan.cost_garbage_at(400).is_some(), "garbage is sticky");
        assert!(plan.corrupt_checkpoint_at(1));
        assert!(!plan.corrupt_checkpoint_at(0));
        assert!(plan.crash_after(2));
        assert!(!plan.crash_after(3));
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        for step in 0..64 {
            assert!(!plan.nan_loss_at(step));
            assert!(plan.nan_tensor_at(step).is_none());
            assert!(plan.cost_garbage_at(step).is_none());
        }
        assert!(!plan.crash_after(0));
    }

    #[test]
    fn corruption_leaves_an_unloadable_file() {
        let path =
            std::env::temp_dir().join(format!("dance_guard_corrupt_{}.ckpt", std::process::id()));
        FaultPlan::apply_corruption(&path).expect("write corruption");
        let err = dance_autograd::serialize::load_tensors(&path)
            .expect_err("corrupt checkpoint must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _cleanup = fs::remove_file(&path);
    }
}
