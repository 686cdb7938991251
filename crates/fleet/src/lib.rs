#![warn(missing_docs)]

//! # dance-fleet
//!
//! A supervised multi-worker search fleet with lease-based job ownership
//! and bit-exact checkpoint handoff — the robustness half of the
//! distributed-serve story.
//!
//! A long co-exploration run is hours of accumulated optimizer state; a
//! worker dying mid-search must cost seconds, not the run. The fleet gets
//! there with three cooperating pieces:
//!
//! * [`ledger`] — the durable source of truth. Every job (spec, lifecycle
//!   state, attempt count, and once done its [`ledger::JobResult`]) lives
//!   in an atomically-rewritten generation file; recovery walks back over
//!   torn generations exactly like checkpoint recovery does.
//! * [`lease`] — in-memory, time-bounded ownership with attempt-number
//!   fencing. Workers heartbeat to renew; the supervisor reclaims expired
//!   leases; stale attempts that wake up later are fenced off so they can
//!   never clobber a re-dispatched run.
//! * [`worker`] — the single job-execution path. Checkpoints land every
//!   epoch *before* the heartbeat fires, so a re-dispatched attempt
//!   resumes from the last heartbeat's state and reproduces the
//!   uninterrupted run's `arch-digest` bit-for-bit.
//!
//! One supervisor drives those pieces: [`supervisor::Fleet`] claims jobs on
//! worker threads and runs each attempt over one of two transports — on
//! the worker thread itself (what `dance-serve` mounts behind both its
//! `search/*` and `fleet/*` endpoints, as its only search executor), or as
//! a `--worker` child process spawned through [`process`] (what the
//! `dance_fleet` binary and the SIGKILL chaos drills use). Claim, renewal,
//! fenced completion and reclaim are written once, so the transports
//! differ only in how an attempt runs and how its death is seen.
//! Submission is idempotent (the job id is the spec digest) and bounded by
//! [`supervisor::FleetOpts::max_pending`].
//!
//! Chaos drills are first-class: `dance-guard`'s `FaultPlan` gains
//! process-level faults (`KillWorker`, `StallHeartbeat`, `TornLedgerWrite`,
//! `SlowPeer`), carried here as [`worker::AttemptChaos`] knobs, and a fleet
//! of child workers can deliver a real `SIGKILL` mid-search.

pub mod lease;
pub mod ledger;
pub mod process;
pub mod supervisor;
pub mod worker;

/// Convenient glob-import of the fleet's most used items.
pub mod prelude {
    pub use crate::lease::{Lease, LeaseTable};
    pub use crate::ledger::{JobRecord, JobResult, JobSpec, JobStatus, Ledger, LedgerStore};
    pub use crate::process::run_fleet;
    pub use crate::supervisor::{
        Fleet, FleetCounts, FleetOpts, JobView, SubmitError, WorkerHealth,
    };
    pub use crate::worker::{run_job, worker_main, AttemptChaos, WorkerArgs};
}
