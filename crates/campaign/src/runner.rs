//! The campaign orchestrator: runs every cell of the grid as a
//! `dance-fleet` job and folds each finished cell's per-epoch design
//! points into one incremental Pareto frontier.
//!
//! ## Shape
//!
//! The caller's thread is the **orchestrator**. It starts a [`Fleet`] under
//! the campaign root (ledger in `ledger/`, checkpoints in `ckpt/<job-id>/`)
//! with one worker per concurrent cell, submits one job per cell
//! ([`CampaignSpec::cell_job`]; cells with identical coordinates are one
//! job), and waits on [`Fleet::wait_for`]. Whenever a job finishes it
//! prices the job's trajectory (each epoch's derived architecture and
//! held-out accuracy) with the one shared exact [`CostTable`] and folds the
//! points of every cell that ran it into the frontier and the event log.
//! The orchestrator is the only writer of both, so no fold races; the
//! fleet is the only executor, and its ledger the only durable record.
//!
//! ## Why a killed campaign resumes bit-for-bit
//!
//! A fleet job records each epoch's point after that epoch's checkpoint,
//! and a resumed job first prunes checkpoints past its last recorded point,
//! so a re-dispatched job returns the uninterrupted trajectory bit for bit.
//! On `--resume`, [`Fleet::start`] recovers the ledger: finished jobs are
//! refolded from the trajectories it stores, and the rest are re-dispatched
//! from their checkpoints. Cell seeds are pure functions of grid
//! coordinates, the cost table is deterministic, and the frontier fold is
//! order-independent — so the resumed run's frontier digest equals the
//! uninterrupted run's, bit for bit.
//!
//! ## Cancel and failure
//!
//! The orchestrator checks its [`CancelToken`] at every fleet event (a
//! claim, a heartbeat per epoch, a result), so a cancel is seen within one
//! epoch without polling. It then shuts the fleet down: cells in flight
//! finish and are folded, and queued cells stay pending in the ledger for
//! `--resume`. A failed cell is final, as a failed fleet job is.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dance::prelude::{Frontier, FrontierEntry, InsertOutcome, ParetoPoint};
use dance_accel::space::HardwareSpace;
use dance_accel::workload::{NetworkTemplate, SlotChoice};
use dance_cost::metrics::CostFunction;
use dance_cost::model::CostModel;
use dance_fleet::prelude::{EpochPoint, Fleet, FleetOpts, JobResult, JobStatus, LedgerStore};
use dance_hwgen::table::CostTable;
use dance_telemetry::metrics::inc_counter;

use crate::events::{render_campaign_end, render_frontier_update, EventLog};
use crate::grid::{dedup_key, CampaignSpec, Cell};

/// A shared cancellation flag: flipping it shuts the campaign's fleet down
/// at its next event, letting cells in flight finish.
#[derive(Debug, Default)]
pub struct CancelToken {
    flag: AtomicBool,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// What a finished (or cancelled) campaign run produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The folded frontier (archive + non-dominated front + counters).
    pub frontier: Frontier,
    /// Cells that ran to completion this run or were already done on resume.
    pub cells_done: usize,
    /// Cells whose fleet job failed; final, so a resume counts them again.
    pub cells_failed: usize,
    /// Whether the run was cut short by cancellation.
    pub cancelled: bool,
}

impl CampaignOutcome {
    /// The frontier digest — the bit-for-bit resume invariant.
    pub fn digest(&self) -> u64 {
        self.frontier.digest()
    }
}

/// The one exact cost table every cell is priced with, and the canonical
/// configuration indices each envelope admits.
struct Pricing {
    table: CostTable,
    admitted: Vec<Vec<usize>>,
}

impl Pricing {
    /// A finished cell's design points, one per epoch: the held-out error
    /// of the epoch's derived architecture and its cheapest EDAP over the
    /// configurations the cell's envelope admits.
    fn entries(&self, spec: &CampaignSpec, cell: &Cell, result: &JobResult) -> Vec<FrontierEntry> {
        let env = &spec.envelopes[cell.envelope];
        let entry = |(epoch, point): (usize, &EpochPoint)| {
            let choices: Vec<SlotChoice> = point
                .choices
                .iter()
                .map(|&c| SlotChoice::from_index(usize::from(c)))
                .collect();
            let cost = self.admitted[cell.envelope]
                .iter()
                .map(|&i| CostFunction::Edap.apply(&self.table.cost(&choices, i)))
                .fold(f64::INFINITY, f64::min);
            FrontierEntry {
                key: dedup_key(&choices, cell.dataset_seed, env),
                point: ParetoPoint::new(f64::from(1.0 - point.accuracy()), cost),
                origin: format!("cell-{:04}", cell.id),
                epoch: epoch as u64,
            }
        };
        result.trajectory.iter().enumerate().map(entry).collect()
    }
}

/// Runs (or resumes) a campaign to completion, folding every design point
/// into the frontier and streaming `frontier_update` events into `log`.
///
/// Blocks the calling thread until the campaign's fleet settles or, after
/// a cancel, has shut down; the caller is the orchestrator. The log is
/// always finished on return, even on error.
///
/// # Errors
///
/// Returns a description of an invalid spec, an envelope that admits no
/// configuration, a resume whose root holds no ledger or whose ledger
/// holds a job that is not a cell of the grid, or a filesystem failure.
/// A failed cell is *not* an error: it is counted, and the campaign
/// continues.
pub fn run_campaign(
    spec: &CampaignSpec,
    resume: bool,
    log: &Arc<EventLog>,
    cancel: &Arc<CancelToken>,
) -> Result<CampaignOutcome, String> {
    let out = run_campaign_inner(spec, resume, log, cancel);
    log.finish();
    out
}

fn run_campaign_inner(
    spec: &CampaignSpec,
    resume: bool,
    log: &EventLog,
    cancel: &CancelToken,
) -> Result<CampaignOutcome, String> {
    spec.validate()?;
    let _run = dance_telemetry::runlog::RunGuard::start("campaign");
    let table = CostTable::new(
        &NetworkTemplate::cifar10(),
        &CostModel::new(),
        &HardwareSpace::new(),
    );
    let admitted: Vec<Vec<usize>> = spec
        .envelopes
        .iter()
        .map(|e| e.indices(table.space()))
        .collect();
    if let Some(i) = admitted.iter().position(Vec::is_empty) {
        return Err(format!(
            "envelope {:?} admits no hardware configuration",
            spec.envelopes[i].name
        ));
    }
    let pricing = Pricing { table, admitted };

    let cells = spec.cells();
    let jobs: Vec<String> = cells.iter().map(|c| spec.cell_job(c).job_id()).collect();
    let settled = if resume {
        settled_jobs(spec, &jobs)?
    } else {
        // A fresh run owns the campaign directory: a previous run's ledger
        // and checkpoints under the same root are removed.
        for dir in ["ledger", "ckpt"].map(|d| spec.root.join(d)) {
            if dir.exists() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
            }
        }
        BTreeSet::new()
    };
    let pending = jobs.iter().filter(|id| !settled.contains(*id)).count();
    let cap = if spec.max_concurrency > 0 {
        spec.max_concurrency
    } else {
        dance_backend::threads()
    };
    let workers = cap.min(pending).max(1);
    let fleet = Fleet::start(FleetOpts::new(spec.root.clone()).with_workers(workers))
        .map_err(|e| format!("cannot start a fleet under {}: {e}", spec.root.display()))?;
    log.push(format!(
        "{{\"v\":1,\"event\":\"campaign_start\",\"seq\":{},\"cells\":{},\"pending\":{},\"workers\":{}}}",
        log.len(),
        cells.len(),
        pending,
        workers
    ));
    for cell in &cells {
        if let Err(e) = fleet.submit(spec.cell_job(cell)) {
            fleet.shutdown();
            return Err(format!("cannot submit cell-{:04}: {e}", cell.id));
        }
    }

    // `done[i]`: `Some(true)` once cell `i` is folded, `Some(false)` once
    // its job failed.
    let mut done: Vec<Option<bool>> = vec![None; cells.len()];
    let mut frontier = Frontier::new();
    let mut collect = |fleet: &Fleet| {
        for (cell, job) in cells.iter().zip(&jobs) {
            if done[cell.id].is_some() {
                continue;
            }
            let Some(view) = fleet.status(job) else {
                continue;
            };
            if let Some(result) = &view.result {
                inc_counter("campaign.cells_done", 1);
                done[cell.id] = Some(true);
                for entry in pricing.entries(spec, cell, result) {
                    inc_counter("campaign.points", 1);
                    let outcome = frontier.insert(entry.clone());
                    if matches!(outcome, InsertOutcome::Inserted { .. }) {
                        let line = render_frontier_update(
                            log.len(),
                            &entry,
                            &outcome,
                            frontier.front_len(),
                            frontier.digest(),
                        );
                        log.push(line);
                    }
                }
            } else if view.error.is_some() {
                inc_counter("campaign.cells_failed", 1);
                done[cell.id] = Some(false);
            }
        }
    };
    loop {
        // Everything settled by this snapshot is folded below, so the wait
        // after it misses no result.
        let seen = fleet.counts();
        collect(&fleet);
        if seen.pending + seen.leased == 0 || cancel.is_cancelled() {
            break;
        }
        let _woke = fleet.wait_for(Duration::MAX, |c| {
            c.done + c.failed > seen.done + seen.failed
                || c.pending + c.leased == 0
                || cancel.is_cancelled()
        });
    }
    // After a cancel, shutdown lets the cells in flight finish: fold them.
    fleet.shutdown();
    collect(&fleet);

    let cells_done = done.iter().filter(|d| **d == Some(true)).count();
    let cells_failed = done.iter().filter(|d| **d == Some(false)).count();
    let line = render_campaign_end(
        log.len(),
        cells_done,
        cells_failed,
        frontier.front_len(),
        frontier.digest(),
    );
    log.push(line);
    Ok(CampaignOutcome {
        frontier,
        cells_done,
        cells_failed,
        cancelled: cancel.is_cancelled(),
    })
}

/// Reads the ledger a resume continues, before any fleet dispatches from
/// it, and returns the ids of the jobs it already settled.
///
/// # Errors
///
/// Refuses a root without a ledger, and a ledger holding a job that is not
/// a cell of `spec`'s grid (`jobs`, in cell order): resuming a different
/// campaign would mix incompatible design points.
fn settled_jobs(spec: &CampaignSpec, jobs: &[String]) -> Result<BTreeSet<String>, String> {
    let dir = spec.root.join("ledger");
    if !dir.is_dir() {
        return Err(format!(
            "cannot resume: {} holds no campaign ledger",
            spec.root.display()
        ));
    }
    let (_, ledger, _) =
        LedgerStore::open(&dir).map_err(|e| format!("cannot resume: {}: {e}", dir.display()))?;
    let mut settled = BTreeSet::new();
    for (id, rec) in &ledger.jobs {
        if !jobs.contains(id) {
            return Err(format!(
                "cannot resume: ledger job {id} is not a cell of this grid"
            ));
        }
        if matches!(rec.status, JobStatus::Done(_) | JobStatus::Failed { .. }) {
            settled.insert(id.clone());
        }
    }
    Ok(settled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Envelope;
    use dance_fleet::prelude::{JobSpec, Ledger};

    fn spec(root: std::path::PathBuf) -> CampaignSpec {
        CampaignSpec {
            name: "refused".into(),
            lambda2: vec![0.1],
            dataset_seeds: vec![0],
            envelopes: vec![Envelope::edge()],
            epochs: 1,
            batch_size: 16,
            seed: 0,
            root,
            max_concurrency: 1,
        }
    }

    fn run(spec: &CampaignSpec, resume: bool) -> Result<CampaignOutcome, String> {
        let log = Arc::new(EventLog::new());
        run_campaign(spec, resume, &log, &Arc::new(CancelToken::new()))
    }

    #[test]
    fn a_resume_needs_this_grids_ledger() {
        let root = std::env::temp_dir().join(format!("dance_camp_refused_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spec = spec(root.clone());
        let err = run(&spec, true).expect_err("no ledger, no resume");
        assert!(err.contains(&root.display().to_string()), "{err}");

        // A ledger holding another grid's job is refused before any fleet
        // runs it, naming the job.
        let foreign = JobSpec::new(1, 16, 5, 0.1);
        let mut ledger = Ledger::new();
        ledger.submit(foreign);
        let (mut store, ..) = LedgerStore::open(&root.join("ledger")).expect("open");
        store.save(&ledger).expect("save");
        let err = run(&spec, true).expect_err("a foreign job, no resume");
        assert!(err.contains(&foreign.job_id()), "{err}");
        assert!(!root.join("ckpt").exists(), "nothing was dispatched");
        let _cleanup = std::fs::remove_dir_all(&root);
    }
}
