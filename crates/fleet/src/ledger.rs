//! The durable job ledger: one atomic, versioned JSON document per
//! generation, recording every job's spec, lifecycle state and attempt
//! count.
//!
//! The ledger is the fleet's durability story, playing the role the
//! campaign manifest plays for a grid run. Every save writes a **new
//! generation file** (`ledger-NNNNNN.json`) with `dance-guard`'s
//! `atomic_write_text` (temp + rename), then prunes all but the last few
//! generations. Recovery walks generations newest-first and skips any that
//! fail to parse — the same walk-back-over-torn-files discipline
//! `CheckpointStore::latest_good` uses — so a crash at any instant costs at
//! most one generation of progress, never the ledger.
//!
//! All 64-bit values (seeds, digests, f32 bit patterns) are stored as
//! fixed-width hex strings: JSON numbers are f64 on the wire and would
//! silently round anything past 2⁵³, which would break the bit-for-bit
//! handoff guarantee. A `Leased` record loads back as `Pending` — a lease
//! is an in-memory claim on a live worker, and no worker from a previous
//! incarnation is still alive. Fields added after version 1 shipped
//! (`penalty`, and every [`JobResult`] field but `digest` and `ran`) are
//! optional on parse, so a ledger written before them still loads.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use dance_guard::checkpoint::atomic_write_text;
use dance_guard::GuardReport;
use dance_telemetry::json::{self, push_escaped, push_num, Json};

/// Ledger schema version accepted and emitted by this build.
pub const LEDGER_VERSION: u64 = 1;

/// How many ledger generations `save` keeps on disk.
pub const KEEP_GENERATIONS: usize = 3;

/// What one search job should run. The spec fully determines the search
/// (the worker derives benchmark, supernet and RNG from it), so its digest
/// doubles as the idempotency key for submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Search epochs (clamped to `1..=64` by the worker).
    pub epochs: u64,
    /// Mini-batch size.
    pub batch: u64,
    /// Seed for the benchmark, supernet init and search RNG.
    pub seed: u64,
    /// `f32::to_bits` of the λ₂ hardware-penalty weight.
    pub lambda2_bits: u32,
    /// Whether the loss carries the FLOPs penalty; `false` searches for
    /// accuracy alone.
    pub flops_penalty: bool,
}

/// The word [`JobSpec::digest`] folds in for a spec without the FLOPs
/// penalty.
const NO_PENALTY_WORD: u64 = 0x6e6f_2d70_656e_616c;

impl JobSpec {
    /// Builds a spec from plain values, with the FLOPs penalty on.
    #[must_use]
    pub fn new(epochs: u64, batch: u64, seed: u64, lambda2: f32) -> Self {
        Self {
            epochs,
            batch,
            seed,
            lambda2_bits: lambda2.to_bits(),
            flops_penalty: true,
        }
    }

    /// The λ₂ weight as a float.
    #[must_use]
    pub fn lambda2(&self) -> f32 {
        f32::from_bits(self.lambda2_bits)
    }

    /// FNV-1a digest over the spec fields — the idempotency key: two
    /// submissions with the same spec are the same job. The penalty is
    /// folded in only when it is off, so a penalised spec keeps the id it
    /// had before the field existed.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let fold = |d: u64, word: u64| (d ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        let d = [
            self.epochs,
            self.batch,
            self.seed,
            u64::from(self.lambda2_bits),
        ]
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, fold);
        if self.flops_penalty {
            d
        } else {
            fold(d, NO_PENALTY_WORD)
        }
    }

    /// The job id derived from the spec digest (`fjob-<hex16>`).
    #[must_use]
    pub fn job_id(&self) -> String {
        format!("fjob-{:016x}", self.digest())
    }
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
}

impl JobResult {
    /// Appends the result as `,"key":value` pairs: `digest`, `ran`,
    /// `choices`, `entropy` (when an epoch ran) and `guard`.
    pub fn render_fields(&self, out: &mut String) {
        out.push_str(",\"digest\":");
        push_hex(out, self.digest);
        out.push_str(",\"ran\":");
        push_num(out, self.epochs as f64);
        out.push_str(",\"choices\":[");
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_num(out, f64::from(*c));
        }
        out.push(']');
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
    }

    /// Reads back what [`JobResult::render_fields`] wrote into `j`. Only
    /// `digest` and `ran` are required: a record written before the other
    /// fields existed loads with no choices, no entropy and an empty guard
    /// report.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn parse(j: &Json) -> Result<Self, String> {
        let mut choices = Vec::new();
        for c in j.get("choices").and_then(Json::as_arr).unwrap_or(&[]) {
            let c = c.as_f64().filter(|c| (0.0..256.0).contains(c));
            choices.push(c.ok_or("bad choices entry")? as u8);
        }
        let final_entropy_bits = j
            .get("entropy")
            .map(|_| get_hex32(j, "entropy"))
            .transpose()?;
        let guard = match j.get("guard") {
            None => GuardReport::default(),
            Some(g) => GuardReport {
                watchdog_trips: get_num(g, "watchdog_trips")? as u32,
                rollbacks: get_num(g, "rollbacks")? as u32,
                cost_model_degraded: g.get("cost_model_degraded") == Some(&Json::Bool(true)),
                resumed_from_epoch: get_num(g, "resumed_from_epoch").ok().map(|e| e as usize),
                checkpoints_written: get_num(g, "checkpoints_written")? as u32,
                aborted_by_fault: false,
            },
        };
        Ok(Self {
            digest: get_hex(j, "digest")?,
            epochs: get_num(j, "ran")?,
            choices,
            final_entropy_bits,
            guard,
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
            out.push_str(",\"epochs\":");
            push_num(&mut out, r.spec.epochs as f64);
            out.push_str(",\"batch\":");
            push_num(&mut out, r.spec.batch as f64);
            out.push_str(",\"seed\":");
            push_hex(&mut out, r.spec.seed);
            out.push_str(",\"lambda2\":");
            push_hex(&mut out, u64::from(r.spec.lambda2_bits));
            if !r.spec.flops_penalty {
                out.push_str(",\"penalty\":\"none\"");
            }
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
            .and_then(Json::as_f64)
            .ok_or("missing version")? as u64;
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
            let spec = JobSpec {
                epochs: get_num(j, "epochs")?,
                batch: get_num(j, "batch")?,
                seed: get_hex(j, "seed")?,
                lambda2_bits: get_hex32(j, "lambda2")?,
                flops_penalty: j.get("penalty").and_then(Json::as_str) != Some("none"),
            };
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

fn get_hex(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or_else(|| format!("missing/bad hex field {key}"))
}

fn get_hex32(j: &Json, key: &str) -> Result<u32, String> {
    u32::try_from(get_hex(j, key)?).map_err(|_| format!("{key} out of range"))
}

fn get_num(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .map(|f| f as u64)
        .ok_or_else(|| format!("missing/bad numeric field {key}"))
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
    rewrites: u64,
    #[cfg(feature = "fault-injection")]
    fault: Option<dance_guard::fault::FaultPlan>,
}

impl LedgerStore {
    /// Creates a store over `dir` (created if missing) with no generations
    /// yet.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn create(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            next_gen: 0,
            rewrites: 0,
            #[cfg(feature = "fault-injection")]
            fault: None,
        })
    }

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
                rewrites: 0,
                #[cfg(feature = "fault-injection")]
                fault: None,
            },
            ledger,
            skipped,
        ))
    }

    /// Scripts process-level faults (torn ledger writes) into this store.
    #[cfg(feature = "fault-injection")]
    pub fn set_fault_plan(&mut self, plan: dance_guard::fault::FaultPlan) {
        self.fault = Some(plan);
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
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault {
            if plan.torn_ledger_write_at(self.rewrites) {
                dance_guard::fault::FaultPlan::apply_torn_write(&path)?;
            }
        }
        self.rewrites += 1;
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
        if self.next_gen == 0 {
            None
        } else {
            Some(
                self.dir
                    .join(format!("ledger-{:06}.json", self.next_gen - 1)),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dance_fleet_{name}_{}", std::process::id()));
        let _unused = std::fs::remove_dir_all(&dir);
        dir
    }

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
    fn full_results_and_specs_without_the_penalty_round_trip() {
        let mut l = Ledger::new();
        let penalised = JobSpec::new(2, 32, 7, 0.1);
        let plain = JobSpec {
            flops_penalty: false,
            ..penalised
        };
        let (id, _) = l.submit(penalised);
        let (plain_id, deduped) = l.submit(plain);
        assert!(!deduped, "the penalty is part of the job's identity");
        assert_ne!(id, plain_id);
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
        });
        let text = l.render();
        let back = Ledger::parse(&text).expect("rendered ledger parses");
        assert_eq!(back, l);
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
        let mut store = LedgerStore::create(&dir).expect("create");
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
        let mut store = LedgerStore::create(&dir).expect("create");
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
        assert!(base.job_id().starts_with("fjob-"));
    }
}
