//! The durable job ledger: one atomic, versioned JSON document per
//! generation, recording every job's spec, lifecycle state and attempt
//! count.
//!
//! The ledger is the fleet's durability story, and a campaign's: each
//! campaign cell runs as a fleet job, so the ledger is the campaign's only
//! durable record of which cells finished and what they found. Every save
//! writes a **new generation file** (`ledger-NNNNNN.json`) with
//! `dance-guard`'s `atomic_write_text` (temp + rename), then prunes all but
//! the last few generations. Recovery walks generations newest-first and
//! skips any that fail to parse — the same walk-back-over-torn-files
//! discipline `CheckpointStore::latest_good` uses — so a crash at any
//! instant costs at most one generation of progress, never the ledger.
//!
//! All 64-bit values (seeds, digests, f32 bit patterns) are stored as
//! fixed-width hex strings: JSON numbers are f64 on the wire and would
//! silently round anything past 2⁵³, which would break the bit-for-bit
//! handoff guarantee. A `Leased` record loads back as `Pending` — a lease
//! is an in-memory claim on a live worker, and no worker from a previous
//! incarnation is still alive. Fields added after version 1 shipped
//! (`penalty`, `data_seed`, `warmup`, and every [`JobResult`] field but
//! `digest` and `ran`) are optional on parse, so a ledger written before
//! them still loads, and a spec or result that leaves them at their
//! defaults renders without them, byte for byte as before.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use dance::prelude::{LambdaWarmup, SearchConfig, SlotChoice};
use dance_guard::checkpoint::atomic_write_text;
use dance_guard::GuardReport;
use dance_telemetry::json::{self, push_escaped, push_num, Json};

/// Ledger schema version accepted and emitted by this build.
pub const LEDGER_VERSION: u64 = 1;

/// How many ledger generations `save` keeps on disk.
pub const KEEP_GENERATIONS: usize = 3;

/// What one search job should run. The spec fully determines the search
/// (the worker derives benchmark, supernet and RNG from it), so its digest
/// doubles as the idempotency key for submission. The ledger and a worker
/// child's `--spec` both carry it, written by [`JobSpec::render_fields`]
/// and read back by [`JobSpec::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Search epochs, `1..=64`.
    pub epochs: u64,
    /// Mini-batch size, `2..=256`.
    pub batch: u64,
    /// Seed for the supernet init and search RNG.
    pub seed: u64,
    /// `f32::to_bits` of the λ₂ hardware-penalty weight.
    pub lambda2_bits: u32,
    /// Whether the loss carries the FLOPs penalty; `false` searches for
    /// accuracy alone.
    pub flops_penalty: bool,
    /// Seed of the SynthTiny dataset the search trains on; `seed` by
    /// default. A campaign cell sets its grid's dataset seed here.
    pub data_seed: u64,
    /// Epochs over which λ₂ ramps in, `1..=epochs`; 1 by default. A
    /// campaign cell ramps over half its epochs.
    pub warmup: u64,
}

/// The word [`JobSpec::digest`] folds in for a spec without the FLOPs
/// penalty.
const NO_PENALTY_WORD: u64 = 0x6e6f_2d70_656e_616c;
/// The word [`JobSpec::digest`] folds in ahead of a `data_seed` other than
/// `seed`.
const DATA_SEED_WORD: u64 = 0x6461_7461_2d73_6564;
/// The word [`JobSpec::digest`] folds in ahead of a `warmup` other than 1.
const WARMUP_WORD: u64 = 0x7761_726d_2d75_7073;

impl JobSpec {
    /// Builds a spec from plain values, with the FLOPs penalty on, the
    /// dataset seeded by `seed` and a one-epoch λ₂ ramp.
    #[must_use]
    pub fn new(epochs: u64, batch: u64, seed: u64, lambda2: f32) -> Self {
        Self {
            epochs,
            batch,
            seed,
            lambda2_bits: lambda2.to_bits(),
            flops_penalty: true,
            data_seed: seed,
            warmup: 1,
        }
    }

    /// The λ₂ weight as a float.
    #[must_use]
    pub fn lambda2(&self) -> f32 {
        f32::from_bits(self.lambda2_bits)
    }

    /// FNV-1a digest over the spec fields — the idempotency key: two
    /// submissions with the same spec are the same job. The penalty, the
    /// dataset seed and the warm-up are folded in only when they differ
    /// from their defaults, so a spec that leaves them there keeps the id
    /// it had before those fields existed.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let fold = |d: u64, word: u64| (d ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        let mut d = [
            self.epochs,
            self.batch,
            self.seed,
            u64::from(self.lambda2_bits),
        ]
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, fold);
        if !self.flops_penalty {
            d = fold(d, NO_PENALTY_WORD);
        }
        if self.data_seed != self.seed {
            d = fold(fold(d, DATA_SEED_WORD), self.data_seed);
        }
        if self.warmup != 1 {
            d = fold(fold(d, WARMUP_WORD), self.warmup);
        }
        d
    }

    /// The search this spec runs, with λ₂ ramped in over `warmup` epochs.
    ///
    /// # Errors
    ///
    /// Names the field when epochs exceed the fleet's cap of 64, the batch
    /// its cap of 256, or the warm-up lies outside `1..=epochs`, and
    /// otherwise passes on what [`SearchConfig`]'s own validation refuses
    /// (zero epochs, a batch below 2, a non-finite λ₂).
    pub fn search_config(&self) -> Result<SearchConfig, String> {
        let capped = |value: u64, cap: usize, field: &str| {
            usize::try_from(value)
                .ok()
                .filter(|v| *v <= cap)
                .ok_or_else(|| format!("{field} must be at most {cap}, got {value}"))
        };
        let epochs = capped(self.epochs, 64, "epochs")?;
        // Zero epochs is `SearchConfig`'s to name, so the warm-up's upper
        // bound never drops below 1.
        let warmup = usize::try_from(self.warmup)
            .ok()
            .filter(|w| (1..=epochs.max(1)).contains(w))
            .ok_or_else(|| {
                format!(
                    "warmup must lie in 1..=epochs ({epochs}), got {}",
                    self.warmup
                )
            })?;
        SearchConfig::builder()
            .epochs(epochs)
            .batch_size(capped(self.batch, 256, "batch")?)
            .lambda2(LambdaWarmup::ramp(self.lambda2(), warmup))
            .seed(self.seed)
            .build()
            .map_err(|e| e.to_string())
    }

    /// The job id derived from the spec digest (`fjob-<hex16>`).
    #[must_use]
    pub fn job_id(&self) -> String {
        format!("fjob-{:016x}", self.digest())
    }

    /// Appends the spec as `,"key":value` pairs: `epochs`, `batch`, `seed`
    /// and `lambda2` (the last two as hex, so they are exact),
    /// `"penalty":"none"` when the FLOPs penalty is off, and `data_seed`
    /// (hex) and `warmup` when they differ from their defaults.
    pub fn render_fields(&self, out: &mut String) {
        out.push_str(",\"epochs\":");
        push_num(out, self.epochs as f64);
        out.push_str(",\"batch\":");
        push_num(out, self.batch as f64);
        out.push_str(",\"seed\":");
        push_hex(out, self.seed);
        out.push_str(",\"lambda2\":");
        push_hex(out, u64::from(self.lambda2_bits));
        if !self.flops_penalty {
            out.push_str(",\"penalty\":\"none\"");
        }
        if self.data_seed != self.seed {
            out.push_str(",\"data_seed\":");
            push_hex(out, self.data_seed);
        }
        if self.warmup != 1 {
            out.push_str(",\"warmup\":");
            push_num(out, self.warmup as f64);
        }
    }

    /// Reads back what [`JobSpec::render_fields`] wrote into `j`. A record
    /// without `penalty` carries the FLOPs penalty, one without
    /// `data_seed` trains on the dataset of its `seed`, and one without
    /// `warmup` ramps λ₂ in over one epoch.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn parse(j: &Json) -> Result<Self, String> {
        let seed = get_hex(j, "seed")?;
        let optional = |key: &str, get: fn(&Json, &str) -> Result<u64, String>, default| {
            j.get(key).map_or(Ok(default), |_| get(j, key))
        };
        Ok(Self {
            epochs: get_num(j, "epochs")?,
            batch: get_num(j, "batch")?,
            seed,
            lambda2_bits: get_hex32(j, "lambda2")?,
            flops_penalty: j.get("penalty").and_then(Json::as_str) != Some("none"),
            data_seed: optional("data_seed", get_hex, seed)?,
            warmup: optional("warmup", get_num, 1)?,
        })
    }
}

/// One epoch of a job's search: the architecture derived at the epoch's
/// end and its held-out accuracy, what a campaign prices and folds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochPoint {
    /// The derived architecture: one candidate index per slot.
    pub choices: Vec<u8>,
    /// `f32::to_bits` of the architecture's held-out accuracy.
    pub accuracy_bits: u32,
}

impl EpochPoint {
    /// The held-out accuracy as a float.
    #[must_use]
    pub fn accuracy(&self) -> f32 {
        f32::from_bits(self.accuracy_bits)
    }
}

/// Appends `points` as a JSON array of `{"choices":[…],"accuracy":hex}`
/// objects, epoch 0 first.
pub(crate) fn render_trajectory(points: &[EpochPoint], out: &mut String) {
    out.push('[');
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"choices\":");
        push_choices(out, &p.choices);
        out.push_str(",\"accuracy\":");
        push_hex(out, u64::from(p.accuracy_bits));
        out.push('}');
    }
    out.push(']');
}

/// Reads back what [`render_trajectory`] wrote.
///
/// # Errors
///
/// Names the first malformed point.
pub(crate) fn parse_trajectory(j: &Json) -> Result<Vec<EpochPoint>, String> {
    j.as_arr()
        .ok_or("trajectory is not an array")?
        .iter()
        .map(|p| {
            Ok(EpochPoint {
                choices: parse_choices(p)?,
                accuracy_bits: get_hex32(p, "accuracy")?,
            })
        })
        .collect()
}

/// What a finished job produced: the one record
/// [`crate::worker::run_job`] returns, a worker child's `done` line
/// carries and the ledger stores, written by [`JobResult::render_fields`]
/// and read back by [`JobResult::parse`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobResult {
    /// `arch-digest` of the final architecture probabilities.
    pub digest: u64,
    /// Epochs recorded in the search history.
    pub epochs: u64,
    /// The derived architecture: one candidate index per slot.
    pub choices: Vec<u8>,
    /// `f32::to_bits` of the last epoch's architecture entropy.
    pub final_entropy_bits: Option<u32>,
    /// Guard report of the attempt that finished the job.
    pub guard: GuardReport,
    /// Every epoch's derived architecture and held-out accuracy, epoch 0
    /// first, across all attempts.
    pub trajectory: Vec<EpochPoint>,
}

impl JobResult {
    /// Appends the result as `,"key":value` pairs: `digest`, `ran`,
    /// `choices`, `entropy` (when an epoch ran), `guard` and `trajectory`
    /// (when it holds a point).
    pub fn render_fields(&self, out: &mut String) {
        out.push_str(",\"digest\":");
        push_hex(out, self.digest);
        out.push_str(",\"ran\":");
        push_num(out, self.epochs as f64);
        out.push_str(",\"choices\":");
        push_choices(out, &self.choices);
        if let Some(bits) = self.final_entropy_bits {
            out.push_str(",\"entropy\":");
            push_hex(out, u64::from(bits));
        }
        let g = &self.guard;
        out.push_str(&format!(
            ",\"guard\":{{\"watchdog_trips\":{},\"rollbacks\":{},\"cost_model_degraded\":{},\
             \"checkpoints_written\":{}",
            g.watchdog_trips, g.rollbacks, g.cost_model_degraded, g.checkpoints_written
        ));
        if let Some(e) = g.resumed_from_epoch {
            out.push_str(&format!(",\"resumed_from_epoch\":{e}"));
        }
        out.push('}');
        if !self.trajectory.is_empty() {
            out.push_str(",\"trajectory\":");
            render_trajectory(&self.trajectory, out);
        }
    }

    /// Reads back what [`JobResult::render_fields`] wrote into `j`. Only
    /// `digest` and `ran` are required: a record written before the other
    /// fields existed loads with no choices, no entropy, an empty guard
    /// report and no trajectory.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn parse(j: &Json) -> Result<Self, String> {
        let choices = parse_choices(j)?;
        let trajectory = j
            .get("trajectory")
            .map_or(Ok(Vec::new()), parse_trajectory)?;
        let final_entropy_bits = j
            .get("entropy")
            .map(|_| get_hex32(j, "entropy"))
            .transpose()?;
        let guard = match j.get("guard") {
            None => GuardReport::default(),
            Some(g) => GuardReport {
                watchdog_trips: get_num32(g, "watchdog_trips")?,
                rollbacks: get_num32(g, "rollbacks")?,
                cost_model_degraded: g.get("cost_model_degraded") == Some(&Json::Bool(true)),
                resumed_from_epoch: g
                    .get("resumed_from_epoch")
                    .map(|_| get_num(g, "resumed_from_epoch"))
                    .transpose()?
                    .map(|e| e as usize),
                checkpoints_written: get_num32(g, "checkpoints_written")?,
                aborted_by_fault: false,
            },
        };
        Ok(Self {
            digest: get_hex(j, "digest")?,
            epochs: get_num(j, "ran")?,
            choices,
            final_entropy_bits,
            guard,
            trajectory,
        })
    }
}

/// Lifecycle of one job as recorded on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Pending,
    /// Claimed by a live worker under a lease. Never survives a reload.
    Leased {
        /// The worker currently holding the lease.
        worker: String,
    },
    /// Ran to completion; the result is final.
    Done(JobResult),
    /// Exhausted its attempts or hit a non-recoverable error.
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

impl JobStatus {
    /// Short lifecycle label (`pending` / `leased` / `done` / `failed`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Pending => "pending",
            JobStatus::Leased { .. } => "leased",
            JobStatus::Done(_) => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }
}

/// One job's full ledger record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// What to run.
    pub spec: JobSpec,
    /// Where the job is in its lifecycle.
    pub status: JobStatus,
    /// Dispatch attempts so far. Doubles as the lease fencing token: only
    /// results carrying the *current* attempt number are accepted.
    pub attempt: u64,
}

impl JobRecord {
    /// A fresh, never-dispatched record.
    #[must_use]
    pub fn new(spec: JobSpec) -> Self {
        Self {
            spec,
            status: JobStatus::Pending,
            attempt: 0,
        }
    }
}

/// The in-memory ledger document: every job keyed by id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// All jobs, keyed by `fjob-<hex16>` id (sorted — render is
    /// deterministic).
    pub jobs: BTreeMap<String, JobRecord>,
}

impl Ledger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the job for `spec` if absent. Returns `(job_id, deduped)` —
    /// `deduped` is true when the id already existed (idempotent
    /// re-submission).
    pub fn submit(&mut self, spec: JobSpec) -> (String, bool) {
        let id = spec.job_id();
        let deduped = self.jobs.contains_key(&id);
        if !deduped {
            self.jobs.insert(id.clone(), JobRecord::new(spec));
        }
        (id, deduped)
    }

    /// Count of jobs in each lifecycle state:
    /// `(pending, leased, done, failed)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for r in self.jobs.values() {
            match r.status {
                JobStatus::Pending => c.0 += 1,
                JobStatus::Leased { .. } => c.1 += 1,
                JobStatus::Done(_) => c.2 += 1,
                JobStatus::Failed { .. } => c.3 += 1,
            }
        }
        c
    }

    /// Whether every job reached a terminal state.
    #[must_use]
    pub fn all_settled(&self) -> bool {
        let (pending, leased, _, _) = self.counts();
        pending == 0 && leased == 0
    }

    /// Renders the ledger as one deterministic JSON document.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256 + self.jobs.len() * 160);
        out.push_str("{\"v\":");
        push_num(&mut out, LEDGER_VERSION as f64);
        out.push_str(",\"jobs\":[");
        for (i, (id, r)) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"id\":");
            push_escaped(&mut out, id);
            r.spec.render_fields(&mut out);
            out.push_str(",\"attempt\":");
            push_num(&mut out, r.attempt as f64);
            out.push_str(",\"status\":");
            push_escaped(&mut out, r.status.label());
            match &r.status {
                JobStatus::Leased { worker } => {
                    out.push_str(",\"worker\":");
                    push_escaped(&mut out, worker);
                }
                JobStatus::Done(result) => result.render_fields(&mut out),
                JobStatus::Failed { error } => {
                    out.push_str(",\"error\":");
                    push_escaped(&mut out, error);
                }
                JobStatus::Pending => {}
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parses a rendered ledger. `Leased` records come back as `Pending`
    /// (their worker died with the previous incarnation); the attempt
    /// count survives so fencing stays monotone across restarts.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let version = doc
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("missing/bad version")?;
        if version != LEDGER_VERSION {
            return Err(format!("unsupported ledger version {version}"));
        }
        let mut jobs = BTreeMap::new();
        for j in doc
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or("missing jobs")?
        {
            let id = j
                .get("id")
                .and_then(Json::as_str)
                .ok_or("job missing id")?
                .to_string();
            let spec = JobSpec::parse(j)?;
            let attempt = get_num(j, "attempt")?;
            let status = match j.get("status").and_then(Json::as_str) {
                // A lease is an in-memory claim; reloads revert it.
                Some("pending") | Some("leased") => JobStatus::Pending,
                Some("done") => JobStatus::Done(JobResult::parse(j)?),
                Some("failed") => JobStatus::Failed {
                    error: j
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                },
                _ => return Err(format!("job {id}: bad status")),
            };
            if id != spec.job_id() {
                return Err(format!("job {id}: id does not match spec digest"));
            }
            jobs.insert(
                id,
                JobRecord {
                    spec,
                    status,
                    attempt,
                },
            );
        }
        Ok(Self { jobs })
    }
}

fn push_hex(out: &mut String, v: u64) {
    push_escaped(out, &format!("{v:016x}"));
}

fn push_choices(out: &mut String, choices: &[u8]) {
    out.push('[');
    for (i, c) in choices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_num(out, f64::from(*c));
    }
    out.push(']');
}

/// Reads `j`'s `choices` array, each entry a candidate index; a record
/// without one has none.
fn parse_choices(j: &Json) -> Result<Vec<u8>, String> {
    let Some(choices) = j.get("choices") else {
        return Ok(Vec::new());
    };
    let candidates = SlotChoice::CANDIDATES.len();
    choices
        .as_arr()
        .ok_or("choices is not an array")?
        .iter()
        .map(|c| {
            c.as_u64()
                .filter(|&c| c < candidates as u64)
                .map(|c| c as u8)
                .ok_or_else(|| format!("choices entries must be integers in 0..{candidates}"))
        })
        .collect()
}

fn get_hex(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("missing/bad hex field {key}"))
}

fn get_hex32(j: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_hex(j, key)?).map_err(|_| format!("{key} out of range"))
}

/// Reads `j`'s field `key` as an integer in `0..=2^53`.
fn get_num(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing/bad integer field {key}"))
}

fn get_num32(j: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_num(j, key)?).map_err(|_| format!("{key} out of range"))
}

/// The on-disk generation store for a [`Ledger`].
///
/// Each save writes `ledger-NNNNNN.json` atomically and prunes old
/// generations; [`LedgerStore::open`] walks generations newest-first,
/// skipping torn files. The store owns the generation counter so saves are
/// strictly ordered even when the caller alternates threads.
#[derive(Debug)]
pub struct LedgerStore {
    dir: PathBuf,
    next_gen: u64,
}

impl LedgerStore {
    /// Opens `dir`, loading the newest parseable generation. Returns the
    /// store, the recovered ledger (empty if no generation survives) and
    /// how many torn/unreadable generations were skipped on the way back.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and listing failures. Torn or
    /// unparseable generation files are *not* errors — they are skipped.
    pub fn open(dir: &Path) -> io::Result<(Self, Ledger, usize)> {
        std::fs::create_dir_all(dir)?;
        let mut gens: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(g) = name
                .strip_prefix("ledger-")
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                gens.push((g, entry.path()));
            }
        }
        gens.sort_unstable_by_key(|(g, _)| *g);
        let next_gen = gens.last().map_or(0, |(g, _)| g + 1);
        let mut skipped = 0usize;
        let mut ledger = Ledger::new();
        for (_, path) in gens.iter().rev() {
            match std::fs::read_to_string(path).map_err(|e| e.to_string()) {
                Ok(text) => match Ledger::parse(&text) {
                    Ok(l) => {
                        ledger = l;
                        break;
                    }
                    Err(_) => skipped += 1,
                },
                Err(_) => skipped += 1,
            }
        }
        if skipped > 0 {
            dance_telemetry::counter!("fleet.ledger.torn_skipped", skipped as u64);
        }
        Ok((
            Self {
                dir: dir.to_path_buf(),
                next_gen,
            },
            ledger,
            skipped,
        ))
    }

    /// Atomically writes the next ledger generation and prunes old ones.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write; pruning failures are
    /// ignored (stale generations are harmless).
    pub fn save(&mut self, ledger: &Ledger) -> io::Result<()> {
        let generation = self.next_gen;
        let path = self.dir.join(format!("ledger-{generation:06}.json"));
        atomic_write_text(&path, &ledger.render())?;
        self.next_gen += 1;
        dance_telemetry::counter!("fleet.ledger.saves");
        // Prune: keep the newest KEEP_GENERATIONS generations.
        if self.next_gen > KEEP_GENERATIONS as u64 {
            let cutoff = self.next_gen - KEEP_GENERATIONS as u64;
            for g in cutoff.saturating_sub(4)..cutoff {
                let _unused = std::fs::remove_file(self.dir.join(format!("ledger-{g:06}.json")));
            }
        }
        Ok(())
    }

    /// Path of the most recently written generation, if any.
    #[must_use]
    pub fn newest_path(&self) -> Option<PathBuf> {
        let newest = self.next_gen.checked_sub(1)?;
        Some(self.dir.join(format!("ledger-{newest:06}.json")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir;

    fn sample_ledger() -> Ledger {
        let mut l = Ledger::new();
        let (id, deduped) = l.submit(JobSpec::new(4, 32, 7, 0.1));
        assert!(!deduped);
        let (_, deduped2) = l.submit(JobSpec::new(4, 32, 7, 0.1));
        assert!(deduped2, "same spec dedups");
        let (id2, _) = l.submit(JobSpec::new(4, 32, 8, 0.1));
        assert_ne!(id, id2);
        l.jobs.get_mut(&id).expect("job").status = JobStatus::Done(JobResult {
            digest: 0xdead_beef_0102_0304,
            epochs: 4,
            ..JobResult::default()
        });
        l.jobs.get_mut(&id).expect("job").attempt = 2;
        l
    }

    #[test]
    fn ledger_round_trips_bit_for_bit() {
        let l = sample_ledger();
        let text = l.render();
        let back = Ledger::parse(&text).expect("rendered ledger parses");
        assert_eq!(back, l);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn full_results_and_specs_off_their_defaults_round_trip() {
        let mut l = Ledger::new();
        let penalised = JobSpec::new(2, 32, 7, 0.1);
        let plain = JobSpec {
            flops_penalty: false,
            ..penalised
        };
        let cell = JobSpec {
            data_seed: 1 << 60,
            warmup: 2,
            ..penalised
        };
        let (id, _) = l.submit(penalised);
        let (plain_id, deduped) = l.submit(plain);
        assert!(!deduped, "the penalty is part of the job's identity");
        assert_ne!(id, plain_id);
        let (cell_id, deduped) = l.submit(cell);
        assert!(!deduped, "the dataset seed and warm-up are too");
        l.jobs.get_mut(&id).expect("job").status = JobStatus::Done(JobResult {
            digest: 0x68ad_2158_7d07_401d,
            epochs: 2,
            choices: vec![5, 6, 4, 2, 6, 6, 2, 1, 2],
            final_entropy_bits: Some(1.944_864_f32.to_bits()),
            guard: GuardReport {
                rollbacks: 1,
                resumed_from_epoch: Some(1),
                checkpoints_written: 2,
                ..GuardReport::default()
            },
            trajectory: vec![
                EpochPoint {
                    choices: vec![5, 6, 4, 2, 6, 6, 2, 1, 1],
                    accuracy_bits: 0.3125_f32.to_bits(),
                },
                EpochPoint {
                    choices: vec![5, 6, 4, 2, 6, 6, 2, 1, 2],
                    accuracy_bits: 0.343_75_f32.to_bits(),
                },
            ],
        });
        let text = l.render();
        assert!(text.contains(r#","data_seed":"1000000000000000","warmup":2,"#));
        let back = Ledger::parse(&text).expect("rendered ledger parses");
        assert_eq!(back, l);
        assert_eq!(back.jobs[&cell_id].spec, cell);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn a_ledger_rendered_before_penalties_and_full_results_still_loads() {
        // Written by the build before `penalty` and the result fields beyond
        // `digest` and `ran` existed: one done, one failed, one pending job.
        let text = concat!(
            r#"{"v":1,"jobs":[{"id":"fjob-0f6aed756971ac7f","epochs":4,"batch":16,"#,
            r#""seed":"0000000000000001","lambda2":"000000003e4ccccd","attempt":3,"#,
            r#""status":"failed","error":"worker panicked"},"#,
            r#"{"id":"fjob-5df6a14915339fff","epochs":2,"batch":32,"#,
            r#""seed":"0000000000000007","lambda2":"000000003dcccccd","attempt":2,"#,
            r#""status":"done","digest":"68ad21587d07401d","ran":2},"#,
            r#"{"id":"fjob-7906a24f94a2d4d5","epochs":3,"batch":32,"#,
            r#""seed":"0000000000000009","lambda2":"000000003e99999a","attempt":1,"#,
            r#""status":"pending"}]}"#,
        );
        let l = Ledger::parse(text).expect("a version-1 ledger parses");
        let attempts: Vec<(&str, u64)> = l
            .jobs
            .iter()
            .map(|(id, r)| (id.as_str(), r.attempt))
            .collect();
        assert_eq!(
            attempts,
            [
                ("fjob-0f6aed756971ac7f", 3),
                ("fjob-5df6a14915339fff", 2),
                ("fjob-7906a24f94a2d4d5", 1)
            ]
        );
        assert!(l.jobs.values().all(|r| r.spec.flops_penalty));
        let done = &l.jobs["fjob-5df6a14915339fff"];
        assert_eq!(done.spec, JobSpec::new(2, 32, 7, 0.1));
        assert_eq!(
            done.status,
            JobStatus::Done(JobResult {
                digest: 0x68ad_2158_7d07_401d,
                epochs: 2,
                ..JobResult::default()
            })
        );
        assert_eq!(l.jobs["fjob-7906a24f94a2d4d5"].status, JobStatus::Pending);
    }

    #[test]
    fn a_generation_rendered_before_the_spec_codec_reads_back_byte_for_byte() {
        // Written by the build whose ledger rendered spec fields inline: a
        // plain and a penalised done job, a failed job at the largest seed
        // and a pending job at seed 2^60.
        let text = concat!(
            r#"{"v":1,"jobs":[{"id":"fjob-0be7d899efb793c9","epochs":2,"batch":32,"#,
            r#""seed":"0000000000000007","lambda2":"000000003dcccccd","penalty":"none","#,
            r#""attempt":1,"status":"done","digest":"ba5a53b3294e819f","ran":2,"#,
            r#""choices":[0,0,0,0,0,0,0,0,0],"guard":{"watchdog_trips":1,"rollbacks":0,"#,
            r#""cost_model_degraded":true,"checkpoints_written":2}},"#,
            r#"{"id":"fjob-5df6a14915339fff","epochs":2,"batch":32,"#,
            r#""seed":"0000000000000007","lambda2":"000000003dcccccd","#,
            r#""attempt":2,"status":"done","digest":"68ad21587d07401d","ran":2,"#,
            r#""choices":[5,6,4,2,6,6,2,1,2],"entropy":"000000003ff8f14e","#,
            r#""guard":{"watchdog_trips":0,"rollbacks":1,"cost_model_degraded":false,"#,
            r#""checkpoints_written":2,"resumed_from_epoch":1}},"#,
            r#"{"id":"fjob-695cb664dddcede7","epochs":3,"batch":64,"#,
            r#""seed":"ffffffffffffffff","lambda2":"0000000000000000","penalty":"none","#,
            r#""attempt":3,"status":"failed","error":"worker panicked: \"boom\""},"#,
            r#"{"id":"fjob-6a3c7c76c210df53","epochs":4,"batch":16,"#,
            r#""seed":"1000000000000000","lambda2":"000000003e99999a","#,
            r#""attempt":1,"status":"pending"}]}"#,
        );
        let l = Ledger::parse(text).expect("the generation parses");
        assert_eq!(l.render(), text, "re-rendered byte for byte");
        let plain = JobSpec {
            flops_penalty: false,
            ..JobSpec::new(2, 32, 7, 0.1)
        };
        assert_eq!(l.jobs["fjob-0be7d899efb793c9"].spec, plain);
        assert_eq!(
            l.jobs["fjob-6a3c7c76c210df53"].spec,
            JobSpec::new(4, 16, 1 << 60, 0.3)
        );
        assert_eq!(l.jobs["fjob-695cb664dddcede7"].spec.seed, u64::MAX);
    }

    #[test]
    fn fractional_negative_or_out_of_range_values_fail_naming_the_field() {
        let text = concat!(
            r#"{"v":1,"jobs":[{"id":"fjob-5df6a14915339fff","epochs":2,"batch":32,"#,
            r#""seed":"0000000000000007","lambda2":"000000003dcccccd","#,
            r#""attempt":2,"status":"done","digest":"68ad21587d07401d","ran":2,"#,
            r#""choices":[5,6,4,2,6,6,2,1,2],"guard":{"watchdog_trips":0,"rollbacks":1,"#,
            r#""cost_model_degraded":false,"checkpoints_written":2,"resumed_from_epoch":1}}]}"#,
        );
        assert!(
            Ledger::parse(text).is_ok(),
            "the unaltered generation parses"
        );
        for (from, to, field) in [
            (r#""epochs":2,"#, r#""epochs":2.5,"#, "epochs"),
            (r#""epochs":2,"#, r#""epochs":-1,"#, "epochs"),
            (
                r#""resumed_from_epoch":1"#,
                r#""resumed_from_epoch":"1""#,
                "resumed_from_epoch",
            ),
            (r#"2,1,2],"#, r#"2,1,7],"#, "choices"),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text);
            let err = Ledger::parse(&bad).expect_err(to);
            assert!(err.contains(field), "{to}: {err}");
        }
    }

    #[test]
    fn leased_records_reload_as_pending() {
        let mut l = sample_ledger();
        let (id, _) = l.submit(JobSpec::new(2, 16, 9, 0.2));
        l.jobs.get_mut(&id).expect("job").status = JobStatus::Leased {
            worker: "w0".into(),
        };
        l.jobs.get_mut(&id).expect("job").attempt = 1;
        let back = Ledger::parse(&l.render()).expect("parses");
        let r = back.jobs.get(&id).expect("record");
        assert_eq!(r.status, JobStatus::Pending);
        assert_eq!(r.attempt, 1, "fencing token survives the reload");
    }

    #[test]
    fn store_walks_back_over_torn_generations() {
        let dir = tmp_dir("torn_gen");
        let (mut store, ..) = LedgerStore::open(&dir).expect("open");
        let good = sample_ledger();
        store.save(&good).expect("gen 0");
        let mut newer = good.clone();
        newer.submit(JobSpec::new(6, 32, 11, 0.3));
        store.save(&newer).expect("gen 1");
        // Tear the newest generation the way a crash mid-write would.
        let newest = store.newest_path().expect("newest");
        let bytes = std::fs::read(&newest).expect("read");
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("tear");

        let (reopened, recovered, skipped) = LedgerStore::open(&dir).expect("open");
        assert_eq!(skipped, 1, "one torn generation skipped");
        assert_eq!(recovered, good, "fell back to the previous generation");
        // New saves continue past the torn generation, never reusing it.
        assert!(reopened.next_gen >= 2);
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_prunes_old_generations() {
        let dir = tmp_dir("prune");
        let (mut store, ..) = LedgerStore::open(&dir).expect("open");
        let l = sample_ledger();
        for _ in 0..8 {
            store.save(&l).expect("save");
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("ledger-"))
            .collect();
        assert!(
            files.len() <= KEEP_GENERATIONS,
            "pruned to {KEEP_GENERATIONS}, found {files:?}"
        );
        assert!(files.contains(&"ledger-000007.json".to_string()));
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_opens_empty() {
        let dir = tmp_dir("empty_open");
        let (store, ledger, skipped) = LedgerStore::open(&dir).expect("open");
        assert_eq!(ledger, Ledger::new());
        assert_eq!(skipped, 0);
        assert!(store.newest_path().is_none());
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_digest_is_field_sensitive() {
        let base = JobSpec::new(4, 32, 7, 0.1);
        assert_eq!(base.digest(), JobSpec::new(4, 32, 7, 0.1).digest());
        assert_ne!(base.digest(), JobSpec::new(5, 32, 7, 0.1).digest());
        assert_ne!(base.digest(), JobSpec::new(4, 33, 7, 0.1).digest());
        assert_ne!(base.digest(), JobSpec::new(4, 32, 8, 0.1).digest());
        assert_ne!(base.digest(), JobSpec::new(4, 32, 7, 0.2).digest());
        let data = JobSpec {
            data_seed: 8,
            ..base
        };
        let warm = JobSpec { warmup: 2, ..base };
        let both = JobSpec { warmup: 2, ..data };
        let digests = [base, data, warm, both].map(|s| s.digest());
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b, "{digests:x?}");
            }
        }
        // The dataset seed is folded as its own field, not as the seed: a
        // spec seeded 8 with data seed 7 is not one seeded 7 with data 8.
        let swapped = JobSpec {
            data_seed: 7,
            ..JobSpec::new(4, 32, 8, 0.1)
        };
        assert_ne!(data.digest(), swapped.digest());
        assert!(base.job_id().starts_with("fjob-"));
    }
}
