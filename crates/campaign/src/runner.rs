//! The campaign orchestrator: fans seeded guarded searches over the grid on
//! the shared backend pool and folds every per-epoch design point into one
//! incremental Pareto frontier.
//!
//! ## Shape
//!
//! The caller's thread is the **orchestrator**: it owns the [`Frontier`],
//! the [`Manifest`], and the [`EventLog`]. Worker threads (spawned via
//! `dance_backend::spawn_service`, bounded by the pool width) pop cells
//! from a shared queue and run one guarded search each — the autograd graph
//! is `Rc`-based, so a search lives entirely on its worker. Workers report
//! back over an mpsc channel; the orchestrator is the only writer of the
//! frontier, the manifest, and the event log, so no fold ever races.
//!
//! ## Why a killed campaign resumes bit-for-bit
//!
//! Every per-epoch observation a worker sends was emitted strictly after
//! that epoch's checkpoint reached disk, and the manifest is rewritten
//! atomically after every fold. On `--resume`, checkpoints *newer* than a
//! cell's last manifest-recorded epoch are deleted (their points never made
//! it into the archive), so the re-attached search replays exactly the
//! suffix whose points are missing. Cell seeds are pure functions of grid
//! coordinates, the cost table is deterministic, and the frontier fold is
//! order-independent — so the resumed run's frontier digest equals the
//! uninterrupted run's, bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dance::prelude::{
    dance_search_traced, evaluate_fixed, Frontier, FrontierEntry, InsertOutcome, ParetoPoint,
    Penalty,
};
use dance_accel::space::HardwareSpace;
use dance_accel::workload::NetworkTemplate;
use dance_cost::metrics::CostFunction;
use dance_cost::model::CostModel;
use dance_data::tasks::synth_tiny;
use dance_guard::checkpoint::CheckpointConfig;
use dance_guard::GuardConfig;
use dance_hwgen::table::CostTable;
use dance_nas::arch::ArchParams;
use dance_nas::supernet::{Supernet, SupernetConfig};
use dance_telemetry::metrics::inc_counter;

use crate::events::{render_campaign_end, render_frontier_update, EventLog};
use crate::grid::{dedup_key, CampaignSpec, Cell};
use crate::manifest::{CellStatus, Manifest};

/// Panic payload the cell observer throws to unwind out of a search when
/// the campaign is cancelled; the worker maps it to an orderly abort.
const CANCEL_SENTINEL: &str = "dance-campaign: cancelled";

/// A shared cancellation flag: flipping it stops workers from taking new
/// cells and unwinds in-flight searches at their next epoch boundary.
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
    /// Cells whose search panicked (retriable on resume).
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

/// One worker-to-orchestrator report.
enum CellMsg {
    /// The worker picked up a cell.
    Started { cell: usize },
    /// One per-epoch design point (already priced and keyed).
    Point {
        cell: usize,
        epoch: u64,
        key: u64,
        error: f64,
        cost: f64,
    },
    /// The cell's search ran to completion.
    Done { cell: usize },
    /// The cell's search panicked for a non-cancellation reason.
    Failed { cell: usize },
    /// The cell was unwound by cancellation; it stays resumable.
    Aborted { cell: usize },
}

/// Shared read-only pricing context, built once per campaign.
struct CampaignCtx {
    spec: CampaignSpec,
    table: CostTable,
    /// `admitted[envelope]`: canonical config indices the envelope allows.
    admitted: Vec<Vec<usize>>,
    cancel: Arc<CancelToken>,
}

/// Runs (or resumes) a campaign to completion, folding every design point
/// into the frontier and streaming `frontier_update` events into `log`.
///
/// Blocks the calling thread until all workers drain; the caller is the
/// orchestrator. The log is always finished on return, even on error.
///
/// # Errors
///
/// Returns a description of an invalid spec, an unreadable or mismatched
/// manifest on resume, or a filesystem failure. In-cell search panics are
/// *not* errors: the cell is marked failed and the campaign continues.
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

#[allow(clippy::too_many_lines)]
fn run_campaign_inner(
    spec: &CampaignSpec,
    resume: bool,
    log: &Arc<EventLog>,
    cancel: &Arc<CancelToken>,
) -> Result<CampaignOutcome, String> {
    spec.validate()?;
    let _run = dance_telemetry::runlog::RunGuard::start("campaign");

    // --- Load or initialize durable state --------------------------------
    let manifest_path = spec.manifest_path();
    let mut manifest = if resume {
        let m = Manifest::load(&manifest_path)
            .map_err(|e| format!("cannot resume: {}: {e}", manifest_path.display()))?;
        m.matches_spec(spec)
            .map_err(|e| format!("cannot resume: manifest disagrees with spec: {e}"))?;
        m
    } else {
        // A fresh run owns the campaign directory: stale cells and manifest
        // from a previous run under the same root are removed.
        if spec.root.join("cells").exists() {
            std::fs::remove_dir_all(spec.root.join("cells"))
                .map_err(|e| format!("cannot clear cells dir: {e}"))?;
        }
        if manifest_path.exists() {
            std::fs::remove_file(&manifest_path)
                .map_err(|e| format!("cannot clear stale manifest: {e}"))?;
        }
        Manifest::from_spec(spec)
    };
    std::fs::create_dir_all(spec.root.join("cells"))
        .map_err(|e| format!("cannot create campaign root: {e}"))?;

    let mut frontier = manifest.refold();
    let all_cells = spec.cells();
    let mut pending: Vec<Cell> = Vec::new();
    for cell in &all_cells {
        let rec = manifest.cells[cell.id];
        if rec.status == CellStatus::Done {
            continue;
        }
        if resume {
            prune_checkpoints_past(&spec.cell_dir(cell.id), rec.last_epoch)?;
        }
        pending.push(cell.clone());
    }
    manifest
        .save(&manifest_path)
        .map_err(|e| format!("cannot write manifest: {e}"))?;

    if pending.is_empty() {
        let done = manifest
            .cells
            .iter()
            .filter(|c| c.status == CellStatus::Done)
            .count();
        let line = render_campaign_end(log.len(), done, 0, frontier.front_len(), frontier.digest());
        log.push(line);
        return Ok(CampaignOutcome {
            frontier,
            cells_done: done,
            cells_failed: 0,
            cancelled: cancel.is_cancelled(),
        });
    }

    // --- Shared pricing context ------------------------------------------
    // One cost table serves every cell: the table is the deterministic
    // ground-truth oracle, so a design point's cost is a pure function of
    // (choices, envelope) no matter which worker prices it.
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
    let ctx = Arc::new(CampaignCtx {
        spec: spec.clone(),
        table,
        admitted,
        cancel: Arc::clone(cancel),
    });

    // --- Fan out ----------------------------------------------------------
    let workers = worker_count(spec, pending.len());
    log.push(format!(
        "{{\"v\":1,\"event\":\"campaign_start\",\"seq\":{},\"cells\":{},\"pending\":{},\"workers\":{}}}",
        log.len(),
        all_cells.len(),
        pending.len(),
        workers
    ));
    let queue = Arc::new(Mutex::new(pending));
    let (tx, rx) = channel::<CellMsg>();
    let resume_flags: Arc<Vec<bool>> = Arc::new(
        manifest
            .cells
            .iter()
            .map(|c| resume && c.last_epoch.is_some())
            .collect(),
    );
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let ctx = Arc::clone(&ctx);
        let queue = Arc::clone(&queue);
        let resume_flags = Arc::clone(&resume_flags);
        let tx = tx.clone();
        let handle = dance_backend::spawn_service(&format!("campaign-worker-{w}"), move || {
            worker_loop(&ctx, &queue, &resume_flags, &tx);
        })
        .map_err(|e| format!("cannot spawn campaign worker: {e}"))?;
        handles.push(handle);
    }
    drop(tx); // the loop below ends when the last worker hangs up

    // --- Fold -------------------------------------------------------------
    let mut cells_failed = 0usize;
    for msg in rx {
        match msg {
            CellMsg::Started { cell } => {
                manifest.cells[cell].status = CellStatus::Running;
            }
            CellMsg::Point {
                cell,
                epoch,
                key,
                error,
                cost,
            } => {
                inc_counter("campaign.points", 1);
                let entry = FrontierEntry {
                    key,
                    point: ParetoPoint::new(error, cost),
                    origin: format!("cell-{cell:04}"),
                    epoch,
                };
                let outcome = frontier.insert(entry.clone());
                let rec = &mut manifest.cells[cell];
                rec.last_epoch = Some(rec.last_epoch.map_or(epoch, |e| e.max(epoch)));
                manifest.record_archive(&frontier);
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
            CellMsg::Done { cell } => {
                inc_counter("campaign.cells_done", 1);
                manifest.cells[cell].status = CellStatus::Done;
            }
            CellMsg::Failed { cell } => {
                inc_counter("campaign.cells_failed", 1);
                cells_failed += 1;
                manifest.cells[cell].status = CellStatus::Failed;
            }
            CellMsg::Aborted { cell } => {
                // Stays `Running` in the manifest: a resume re-attaches it
                // from its last durable checkpoint.
                inc_counter("campaign.cells_aborted", 1);
                manifest.cells[cell].status = CellStatus::Running;
            }
        }
        // Durability point: every state change reaches disk before the next
        // fold, so a kill between folds loses at most in-flight messages —
        // whose epochs will be re-emitted by the resumed searches.
        manifest
            .save(&manifest_path)
            .map_err(|e| format!("cannot write manifest: {e}"))?;
    }
    for h in handles {
        let _joined = h.join();
    }

    let cells_done = manifest
        .cells
        .iter()
        .filter(|c| c.status == CellStatus::Done)
        .count();
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

/// How many workers to fan out for `pending` cells under `spec`.
fn worker_count(spec: &CampaignSpec, pending: usize) -> usize {
    let cap = if spec.max_concurrency > 0 {
        spec.max_concurrency
    } else {
        dance_backend::threads()
    };
    cap.min(pending).max(1)
}

/// Deletes checkpoints newer than `last_epoch` under `dir` (all of them
/// when no epoch is recorded): their design points never reached the
/// manifest, so the resumed search must replay them.
fn prune_checkpoints_past(dir: &std::path::Path, last_epoch: Option<u64>) -> Result<(), String> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return Ok(()), // no directory yet — nothing to prune
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(epoch) = name
            .to_str()
            .and_then(|n| n.strip_prefix("epoch-"))
            .and_then(|n| n.strip_suffix(".ckpt"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if last_epoch.is_none_or(|last| epoch > last) {
            std::fs::remove_file(entry.path())
                .map_err(|e| format!("cannot prune {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// One worker: pop cells until the queue drains or the campaign cancels.
fn worker_loop(
    ctx: &CampaignCtx,
    queue: &Mutex<Vec<Cell>>,
    resume_flags: &[bool],
    tx: &Sender<CellMsg>,
) {
    loop {
        if ctx.cancel.is_cancelled() {
            return;
        }
        let Some(cell) = queue.lock().unwrap_or_else(PoisonError::into_inner).pop() else {
            return;
        };
        let id = cell.id;
        if tx.send(CellMsg::Started { cell: id }).is_err() {
            return;
        }
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            run_cell(ctx, &cell, resume_flags[id], tx);
        }));
        let msg = match attempt {
            Ok(()) => CellMsg::Done { cell: id },
            Err(payload) => {
                let cancelled = payload
                    .downcast_ref::<&str>()
                    .is_some_and(|s| *s == CANCEL_SENTINEL);
                if cancelled {
                    CellMsg::Aborted { cell: id }
                } else {
                    CellMsg::Failed { cell: id }
                }
            }
        };
        if tx.send(msg).is_err() {
            return;
        }
    }
}

/// Runs one cell's guarded search, pricing and reporting each epoch's
/// derived architecture. Panics with [`CANCEL_SENTINEL`] at the first epoch
/// boundary after cancellation.
fn run_cell(ctx: &CampaignCtx, cell: &Cell, resume: bool, tx: &Sender<CellMsg>) {
    let spec = &ctx.spec;
    let env = &spec.envelopes[cell.envelope];
    let cell_dir = spec.cell_dir(cell.id);
    let data = synth_tiny(cell.dataset_seed);
    let mut rng = StdRng::seed_from_u64(cell.seed);
    let net = Supernet::new(SupernetConfig::tiny(), &mut rng);
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let template = NetworkTemplate::cifar10();
    let cfg = spec
        .cell_config(cell)
        .expect("campaign cell config validated by CampaignSpec::validate");
    let guard_cfg = GuardConfig {
        checkpoint: Some(CheckpointConfig::every_epoch(cell_dir.clone())),
        resume_from: resume.then(|| cell_dir.clone()),
        ..GuardConfig::default()
    };
    let admitted = &ctx.admitted[cell.envelope];
    let _outcome = dance_search_traced(
        &net,
        &arch,
        &data,
        &Penalty::Flops(&template),
        &cfg,
        &guard_cfg,
        &mut |stats| {
            let choices = arch.derive();
            // Observer-time eval reads no RNG and no running stats, so the
            // reported error is a pure function of (weights, choices, data)
            // — identical across fresh runs and resumes.
            let error = f64::from(1.0 - evaluate_fixed(&net, &choices, &data));
            let cost = admitted
                .iter()
                .map(|&i| CostFunction::Edap.apply(&ctx.table.cost(&choices, i)))
                .fold(f64::INFINITY, f64::min);
            let key = dedup_key(&choices, cell.dataset_seed, env);
            let _sent = tx.send(CellMsg::Point {
                cell: cell.id,
                epoch: stats.epoch as u64,
                key,
                error,
                cost,
            });
            if ctx.cancel.is_cancelled() {
                // lint: allow(panic-doc)
                std::panic::panic_any(CANCEL_SENTINEL);
            }
        },
    );
}
