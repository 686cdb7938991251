//! The fleet supervisor: worker threads, a lease sweep and the durable
//! ledger behind one handle, with two transports for an attempt.
//!
//! Each attempt runs on the worker thread that claimed it. Without
//! [`FleetOpts::worker_exe`] (what `dance-serve` mounts behind its
//! `fleet/*` endpoints and what the recovery tests drill)
//! the thread calls [`crate::worker::run_job`] itself, and a "killed"
//! worker is a thread that abandons its attempt without releasing the
//! lease, so the sweep reclaims it on expiry. With `worker_exe` set (the
//! `dance_fleet` binary and the SIGKILL drills) the thread spawns
//! `<exe> --worker …` through [`crate::process`] and reads the child's
//! lines instead: `hb` takes the same renewal step and `done`/`failed` the
//! same fencing-checked completion as a thread attempt, pipe EOF without a
//! result reclaims the lease at once, and the sweep SIGKILLs the child of
//! any expired lease. Either way the next dispatch resumes from the last
//! durable checkpoint.
//!
//! Submission is idempotent and bounded: a known spec always gets its job
//! back, and a new one is refused with [`SubmitError::Full`] while
//! [`FleetOpts::max_pending`] jobs wait.
//!
//! Locking follows the workspace single-lock rule: all mutable state,
//! running children included, lives in one `Mutex<Core>` taken as a
//! statement temporary, never across I/O, a wait or a join (a `SIGKILL`
//! sent under it does not block). Ledger writes
//! happen outside that lock under a dedicated leaf mutex, ordered by a save
//! sequence so a stale render can never clobber a newer generation.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dance_guard::GuardReport;

use crate::lease::LeaseTable;
use crate::ledger::{JobRecord, JobResult, JobSpec, JobStatus, Ledger, LedgerStore};
use crate::process::{parse_event, spawn_worker, WorkerEvent};
use crate::worker::{panic_message, run_job, AttemptChaos, WorkerArgs};

/// Sentinel panic a chaos-killed in-process attempt dies with.
const FLEET_KILL: &str = "FLEET_KILL";
/// Sentinel panic an attempt raises when its lease renewal is fenced off.
const FLEET_FENCED: &str = "FLEET_FENCED";

/// Configuration for [`Fleet::start`].
#[derive(Debug, Clone)]
pub struct FleetOpts {
    /// Root directory: the ledger lives in `<dir>/ledger`, per-job
    /// checkpoints under `<dir>/ckpt/<job-id>`.
    pub dir: PathBuf,
    /// Worker threads (at least 1), each running one attempt at a time.
    pub workers: usize,
    /// Lease TTL in milliseconds. Heartbeats are per-epoch, so this must
    /// comfortably exceed one epoch's wall time.
    pub lease_ttl_ms: u64,
    /// New specs are refused while this many jobs wait for a worker.
    /// `usize::MAX` (the default) never refuses.
    pub max_pending: usize,
    /// Scripted misbehavior, applied to each job's *first* attempt only —
    /// re-dispatched attempts run clean, which is what lets a drill assert
    /// recovery instead of looping forever.
    pub chaos: AttemptChaos,
    /// Worker binary. When set, every attempt runs as an `<exe> --worker …`
    /// child process instead of on its worker thread.
    pub worker_exe: Option<PathBuf>,
    /// Chaos drill for child workers: `SIGKILL` one running child once,
    /// this many ms after start. `None` runs clean.
    pub chaos_kill_after_ms: Option<u64>,
}

impl FleetOpts {
    /// Defaults: 2 worker threads, 3 s leases, no pending bound, no chaos.
    #[must_use]
    pub fn new(dir: PathBuf) -> Self {
        Self {
            dir,
            workers: 2,
            lease_ttl_ms: 3_000,
            max_pending: usize::MAX,
            chaos: AttemptChaos::default(),
            worker_exe: None,
            chaos_kill_after_ms: None,
        }
    }

    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the lease TTL.
    #[must_use]
    pub fn with_lease_ttl_ms(mut self, ttl: u64) -> Self {
        self.lease_ttl_ms = ttl.max(1);
        self
    }

    /// Bounds the jobs waiting for a worker.
    #[must_use]
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending;
        self
    }

    /// Scripts first-attempt chaos.
    #[must_use]
    pub fn with_chaos(mut self, chaos: AttemptChaos) -> Self {
        self.chaos = chaos;
        self
    }
}

/// Why [`Fleet::submit`] refused a new spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The spec fails search-config validation.
    Invalid(String),
    /// The fleet stopped accepting new jobs.
    Draining,
    /// [`FleetOpts::max_pending`] jobs already wait for a worker.
    Full,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(msg) => write!(f, "invalid job spec: {msg}"),
            SubmitError::Draining => f.write_str("fleet is draining"),
            SubmitError::Full => f.write_str("fleet job queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// One worker's health as the supervisor sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerHealth {
    /// `idle` / `busy` / `suspect` (lease expired while it held a job).
    pub state: String,
    /// The job currently held, if busy.
    pub job: Option<String>,
    /// Jobs completed by this worker.
    pub done: u64,
    /// Last heartbeat, fleet-clock milliseconds.
    pub last_beat_ms: u64,
}

impl WorkerHealth {
    fn idle() -> Self {
        Self {
            state: "idle".to_string(),
            job: None,
            done: 0,
            last_beat_ms: 0,
        }
    }
}

/// Read-only view of one job's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobView {
    /// Job id (`fjob-<hex16>`).
    pub id: String,
    /// Lifecycle label (`pending` / `leased` / `done` / `failed`).
    pub state: String,
    /// Dispatch attempts so far.
    pub attempt: u64,
    /// Current lease holder, while leased.
    pub worker: Option<String>,
    /// What the search produced, once done.
    pub result: Option<JobResult>,
    /// Failure cause, if failed.
    pub error: Option<String>,
}

impl JobView {
    /// Final `arch-digest`, once done.
    #[must_use]
    pub fn digest(&self) -> Option<u64> {
        self.result.as_ref().map(|r| r.digest)
    }
}

/// Snapshot of the whole fleet for health endpoints and drills.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCounts {
    /// Jobs waiting for a worker.
    pub pending: usize,
    /// Jobs under a live lease.
    pub leased: usize,
    /// Jobs finished.
    pub done: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Leases reclaimed: expired, or lost with their child worker.
    pub reclaims: u64,
    /// Chaos `SIGKILL`s delivered to child workers.
    pub kills: u64,
    /// Results discarded by fencing (stale attempt finished late).
    pub fenced: u64,
    /// Recovery latencies, fleet-clock milliseconds: from a job's reclaim
    /// to the next attempt's first renewed heartbeat, or to its result if
    /// that comes first.
    pub recoveries_ms: Vec<u64>,
    /// Whether the fleet stopped accepting new jobs.
    pub draining: bool,
    /// Per-worker health, keyed by worker name.
    pub workers: BTreeMap<String, WorkerHealth>,
    /// The guard reports of every result this fleet committed, absorbed.
    pub guard: GuardReport,
}

impl FleetCounts {
    /// The nearest-rank p95 recovery latency, if any recovery finished.
    #[must_use]
    pub fn recovery_p95_ms(&self) -> Option<u64> {
        percentile(&self.recoveries_ms, 0.95)
    }
}

/// Nearest-rank percentile over raw samples.
fn percentile(samples: &[u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

struct Core {
    ledger: Ledger,
    leases: LeaseTable,
    health: BTreeMap<String, WorkerHealth>,
    /// Running worker children by worker name: `(job, attempt, child)`.
    children: BTreeMap<String, (String, u64, Child)>,
    /// Reclaim stamps of jobs whose next attempt has not yet renewed or
    /// reported, for the recovery histogram.
    reclaimed_at: BTreeMap<String, u64>,
    recoveries_ms: Vec<u64>,
    reclaims: u64,
    kills: u64,
    fenced: u64,
    guard: GuardReport,
    draining: bool,
    dirty: bool,
    save_seq: u64,
}

struct Saver {
    store: LedgerStore,
    last_seq: u64,
}

struct Shared {
    core: Mutex<Core>,
    saver: Mutex<Saver>,
    start: Instant,
    shutdown: AtomicBool,
    ckpt_root: PathBuf,
    max_pending: usize,
    chaos: AttemptChaos,
    worker_exe: Option<PathBuf>,
    chaos_kill_after_ms: Option<u64>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn core(&self) -> std::sync::MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Persists the ledger if dirty. Renders under the core lock, writes
    /// under the saver lock; the save sequence keeps generations ordered
    /// even when saves race.
    fn persist(&self) {
        let job = {
            let mut core = self.core();
            if !core.dirty {
                None
            } else {
                core.dirty = false;
                core.save_seq += 1;
                Some((core.ledger.clone(), core.save_seq))
            }
        };
        if let Some((ledger, seq)) = job {
            let mut saver = self.saver.lock().unwrap_or_else(PoisonError::into_inner);
            if seq > saver.last_seq {
                saver.last_seq = seq;
                if let Err(e) = saver.store.save(&ledger) {
                    eprintln!("fleet: ledger save failed: {e}");
                }
            }
        }
    }
}

/// Handle to a running in-process fleet.
pub struct Fleet {
    shared: Arc<Shared>,
    // Taken out whole by `shutdown`, so the joins hold no lock.
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Fleet {
    /// Opens (or creates) the ledger under `opts.dir` and starts the
    /// worker and supervisor threads. Jobs recovered from a previous
    /// incarnation come back `pending` and are re-dispatched immediately,
    /// resuming from their checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates ledger/checkpoint directory creation failures.
    pub fn start(opts: FleetOpts) -> io::Result<Self> {
        let (store, ledger, skipped) = LedgerStore::open(&opts.dir.join("ledger"))?;
        if skipped > 0 {
            eprintln!("fleet: skipped {skipped} torn ledger generation(s) on recovery");
        }
        let ckpt_root = opts.dir.join("ckpt");
        std::fs::create_dir_all(&ckpt_root)?;
        let workers = opts.workers.max(1);
        let mut health = BTreeMap::new();
        for w in 0..workers {
            health.insert(format!("fleet-w{w}"), WorkerHealth::idle());
        }
        let shared = Arc::new(Shared {
            core: Mutex::new(Core {
                ledger,
                leases: LeaseTable::new(opts.lease_ttl_ms),
                health,
                children: BTreeMap::new(),
                reclaimed_at: BTreeMap::new(),
                recoveries_ms: Vec::new(),
                reclaims: 0,
                kills: 0,
                fenced: 0,
                guard: GuardReport::default(),
                draining: false,
                dirty: false,
                save_seq: 0,
            }),
            saver: Mutex::new(Saver { store, last_seq: 0 }),
            start: Instant::now(),
            shutdown: AtomicBool::new(false),
            ckpt_root,
            max_pending: opts.max_pending,
            chaos: opts.chaos,
            worker_exe: opts.worker_exe,
            chaos_kill_after_ms: opts.chaos_kill_after_ms,
        });
        let mut threads = Vec::with_capacity(workers + 1);
        for w in 0..workers {
            let s = Arc::clone(&shared);
            let name = format!("fleet-w{w}");
            threads.push(dance_backend::spawn_service(&name.clone(), move || {
                worker_loop(&s, &name);
            })?);
        }
        let s = Arc::clone(&shared);
        threads.push(dance_backend::spawn_service(
            "fleet-supervisor",
            move || {
                supervisor_loop(&s);
            },
        )?);
        Ok(Self {
            shared,
            threads: Mutex::new(threads),
        })
    }

    /// Validates and submits a job. Submission is idempotent: the id is
    /// the spec digest, so re-submitting the same spec returns the
    /// existing job with `deduped = true`, even while draining or full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Invalid`] when the spec fails search-config
    /// validation; for a new spec, [`SubmitError::Draining`] once the fleet
    /// drains and [`SubmitError::Full`] while `max_pending` jobs wait.
    pub fn submit(&self, spec: JobSpec) -> Result<(String, bool), SubmitError> {
        // Validate the whole search configuration up front so a bad spec
        // fails at submission, not inside a worker thread.
        spec.search_config().map_err(SubmitError::Invalid)?;
        let out = {
            let mut core = self.shared.core();
            if !core.ledger.jobs.contains_key(&spec.job_id()) {
                if core.draining {
                    return Err(SubmitError::Draining);
                }
                let (pending, ..) = core.ledger.counts();
                if pending >= self.shared.max_pending {
                    dance_telemetry::counter!("fleet.jobs.refused_full");
                    return Err(SubmitError::Full);
                }
            }
            let (id, deduped) = core.ledger.submit(spec);
            if !deduped {
                core.dirty = true;
                dance_telemetry::counter!("fleet.jobs.submitted");
            }
            (id, deduped)
        };
        self.shared.persist();
        Ok(out)
    }

    /// One job's current state.
    #[must_use]
    pub fn status(&self, job: &str) -> Option<JobView> {
        let core = self.shared.core();
        core.ledger.jobs.get(job).map(|r| job_view(job, r))
    }

    /// Stops accepting new jobs; queued and leased work still completes.
    pub fn drain(&self) {
        let mut core = self.shared.core();
        core.draining = true;
    }

    /// Whether every submitted job reached a terminal state.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.shared.core().ledger.all_settled()
    }

    /// Polls until every job settles or `timeout` passes. Returns whether
    /// the fleet settled.
    #[must_use]
    pub fn wait_settled(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.is_settled() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        self.is_settled()
    }

    /// Snapshot of counts, per-worker health and recovery latencies.
    #[must_use]
    pub fn counts(&self) -> FleetCounts {
        let core = self.shared.core();
        let (pending, leased, done, failed) = core.ledger.counts();
        FleetCounts {
            pending,
            leased,
            done,
            failed,
            reclaims: core.reclaims,
            kills: core.kills,
            fenced: core.fenced,
            recoveries_ms: core.recoveries_ms.clone(),
            draining: core.draining,
            workers: core.health.clone(),
            guard: core.guard.clone(),
        }
    }

    /// All jobs, sorted by id.
    #[must_use]
    pub fn jobs(&self) -> Vec<JobView> {
        let core = self.shared.core();
        core.ledger
            .jobs
            .iter()
            .map(|(id, r)| job_view(id, r))
            .collect()
    }

    /// Stops the fleet: signals shutdown, lets each running attempt
    /// finish, joins every thread and persists the final ledger state.
    /// Jobs still pending stay in the ledger for the next incarnation.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        // Joins happen with no lock held; worker threads only ever take
        // the core lock as a statement temporary.
        for t in threads {
            let _unused = t.join();
        }
        {
            let mut core = self.shared.core();
            core.dirty = true;
        }
        self.shared.persist();
    }
}

fn job_view(id: &str, r: &JobRecord) -> JobView {
    let mut v = JobView {
        id: id.to_string(),
        state: r.status.label().to_string(),
        attempt: r.attempt,
        worker: None,
        result: None,
        error: None,
    };
    match &r.status {
        JobStatus::Leased { worker } => v.worker = Some(worker.clone()),
        JobStatus::Done(result) => v.result = Some(result.clone()),
        JobStatus::Failed { error } => v.error = Some(error.clone()),
        JobStatus::Pending => {}
    }
    v
}

/// Claims the first pending job for `worker`, bumping its attempt (the
/// fencing token) and granting the lease.
fn claim_next(shared: &Shared, worker: &str) -> Option<(String, JobSpec, u64)> {
    let now = shared.now_ms();
    let mut core = shared.core();
    let id = core
        .ledger
        .jobs
        .iter()
        .find(|(_, r)| r.status == JobStatus::Pending)
        .map(|(id, _)| id.clone())?;
    let (spec, attempt) = {
        let rec = core.ledger.jobs.get_mut(&id).expect("job just found");
        rec.attempt += 1;
        rec.status = JobStatus::Leased {
            worker: worker.to_string(),
        };
        (rec.spec, rec.attempt)
    };
    core.leases.grant(&id, worker, attempt, now);
    if let Some(h) = core.health.get_mut(worker) {
        h.state = "busy".to_string();
        h.job = Some(id.clone());
        h.last_beat_ms = now;
    }
    core.dirty = true;
    Some((id, spec, attempt))
}

fn worker_loop(shared: &Shared, worker: &str) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match claim_next(shared, worker) {
            Some((id, spec, attempt)) => {
                shared.persist();
                execute_attempt(shared, worker, &id, spec, attempt);
                shared.persist();
            }
            None => {
                let settled = {
                    let core = shared.core();
                    core.draining && core.ledger.all_settled()
                };
                if settled {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// How an attempt ended, as far as the supervisor can tell.
enum Ending {
    /// The search finished.
    Done(JobResult),
    /// The attempt reported a failure.
    Failed(String),
    /// The child worker went away without a result: reclaim now.
    Died,
    /// The attempt was killed in-process or gave up after a refused
    /// renewal: its lease, if still live, is left to expire.
    Vanished,
}

/// Runs one attempt on the configured transport, then settles it.
fn execute_attempt(shared: &Shared, worker: &str, id: &str, spec: JobSpec, attempt: u64) {
    let args = WorkerArgs {
        spec,
        ckpt: shared.ckpt_root.join(id),
        resume: attempt > 1,
        chaos: if attempt == 1 {
            shared.chaos
        } else {
            AttemptChaos::default()
        },
    };
    let ending = match &shared.worker_exe {
        Some(exe) => run_child(shared, exe, worker, id, attempt, &args),
        None => run_in_thread(shared, worker, id, attempt, &args),
    };
    finish(shared, worker, id, attempt, ending);
}

/// Runs the attempt on this thread, applying its chaos script here.
fn run_in_thread(
    shared: &Shared,
    worker: &str,
    id: &str,
    attempt: u64,
    args: &WorkerArgs,
) -> Ending {
    let chaos = args.chaos;
    let mut stalled = false;
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_job(&args.spec, &args.ckpt, args.resume, &mut |epoch| {
            if let Some(ms) = chaos.slow_ms {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if chaos.stall_from.is_some_and(|s| epoch >= s) {
                stalled = true;
            }
            if !stalled && !renew(shared, worker, id, attempt) {
                // Fenced off: the lease expired and the job belongs to
                // someone else now. Abandon the attempt.
                panic!("{FLEET_FENCED}");
            }
            if chaos.kill_after == Some(epoch) {
                // The in-process stand-in for SIGKILL: vanish without
                // releasing the lease; the supervisor reclaims it.
                panic!("{FLEET_KILL}");
            }
        })
    }));
    match result {
        Ok(result) => Ending::Done(result),
        Err(panic) => {
            let msg = panic_message(panic.as_ref());
            if msg == FLEET_KILL || msg == FLEET_FENCED {
                Ending::Vanished
            } else {
                Ending::Failed(msg)
            }
        }
    }
}

/// Runs the attempt as an `<exe> --worker …` child and feeds its lines to
/// the same renewal step a thread attempt takes. The child applies its own
/// chaos script, passed on its command line.
fn run_child(
    shared: &Shared,
    exe: &Path,
    worker: &str,
    id: &str,
    attempt: u64,
    args: &WorkerArgs,
) -> Ending {
    let mut child = match spawn_worker(exe, args) {
        Ok(child) => child,
        Err(e) => return Ending::Failed(format!("cannot spawn {}: {e}", exe.display())),
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    shared
        .core()
        .children
        .insert(worker.to_string(), (id.to_string(), attempt, child));
    let mut lines = BufReader::new(stdout).lines();
    let ending = loop {
        let Some(Ok(line)) = lines.next() else {
            break Ending::Died;
        };
        match parse_event(&line, id) {
            // Fenced off: stop listening; the child is killed below.
            Some(WorkerEvent::Beat) if !renew(shared, worker, id, attempt) => break Ending::Died,
            Some(WorkerEvent::Done(result)) => break Ending::Done(result),
            Some(WorkerEvent::Failed(error)) => break Ending::Failed(error),
            Some(WorkerEvent::Beat) | None => {}
        }
    };
    // Take the child out of its slot as soon as it has a result, so a
    // chaos kill cannot land on a finished attempt, and before reaping it,
    // so the wait holds no lock. The kill stops a fenced child; after a
    // result it only cuts short an exit already under way.
    let child = shared.core().children.remove(worker);
    if let Some((_, _, mut child)) = child {
        let _unused = child.kill();
        let _unused = child.wait();
    }
    ending
}

/// Renews `worker`'s lease on `id` for `attempt`; `false` means the
/// attempt is fenced off. The first renewal after a reclaim stops the
/// job's recovery timer.
fn renew(shared: &Shared, worker: &str, id: &str, attempt: u64) -> bool {
    let now = shared.now_ms();
    let mut core = shared.core();
    if !core.leases.renew(id, worker, attempt, now) {
        return false;
    }
    if let Some(h) = core.health.get_mut(worker) {
        h.last_beat_ms = now;
    }
    core.recovered(id, now);
    true
}

/// Settles one attempt. A result commits only while the attempt still
/// holds its lease; otherwise it is stale and fenced off.
fn finish(shared: &Shared, worker: &str, id: &str, attempt: u64, ending: Ending) {
    let now = shared.now_ms();
    let mut core = shared.core();
    if let Some(h) = core.health.get_mut(worker) {
        h.state = "idle".to_string();
        h.job = None;
    }
    let status = match ending {
        Ending::Done(result) => JobStatus::Done(result),
        Ending::Failed(error) => JobStatus::Failed { error },
        Ending::Died => {
            if core.leases.release(id, worker, attempt) {
                core.reclaim(id, now);
            }
            return;
        }
        Ending::Vanished => return,
    };
    if !core.leases.release(id, worker, attempt) {
        core.fenced += 1;
        dance_telemetry::counter!("fleet.result.fenced");
        return;
    }
    if let JobStatus::Done(result) = &status {
        if let Some(h) = core.health.get_mut(worker) {
            h.done += 1;
        }
        core.guard.absorb(&result.guard);
        dance_telemetry::counter!("fleet.jobs.done");
    } else {
        dance_telemetry::counter!("fleet.jobs.failed");
    }
    core.recovered(id, now);
    if let Some(rec) = core.ledger.jobs.get_mut(id) {
        rec.status = status;
    }
    core.dirty = true;
}

impl Core {
    /// Reverts a job whose lease is gone to pending and starts its
    /// recovery timer, unless one is already running.
    fn reclaim(&mut self, job: &str, now: u64) {
        self.reclaims += 1;
        dance_telemetry::counter!("fleet.lease.reclaimed");
        if let Some(rec) = self.ledger.jobs.get_mut(job) {
            if matches!(rec.status, JobStatus::Leased { .. }) {
                rec.status = JobStatus::Pending;
            }
        }
        self.reclaimed_at.entry(job.to_string()).or_insert(now);
        self.dirty = true;
    }

    /// Stops `job`'s recovery timer, if one is running.
    fn recovered(&mut self, job: &str, now: u64) {
        if let Some(t0) = self.reclaimed_at.remove(job) {
            let latency = now.saturating_sub(t0);
            self.recoveries_ms.push(latency);
            dance_telemetry::histogram!("fleet.recovery_ms", latency as f64);
        }
    }
}

/// The lease sweep: reclaims expired leases, SIGKILLs the child of each
/// (a child that stopped heartbeating may still be computing) and delivers
/// the one-shot chaos kill.
fn supervisor_loop(shared: &Shared) {
    let mut chaos_kill_at = shared.chaos_kill_after_ms;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
        let now = shared.now_ms();
        {
            let mut guard = shared.core();
            let core = &mut *guard;
            let expired = core.leases.expire(now);
            for (job, lease) in expired {
                if let Some((held, attempt, child)) = core.children.get_mut(&lease.worker) {
                    if *held == job && *attempt == lease.attempt {
                        let _unused = child.kill();
                    }
                }
                core.reclaim(&job, now);
                if let Some(h) = core.health.get_mut(&lease.worker) {
                    h.state = "suspect".to_string();
                    h.job = None;
                }
            }
            if chaos_kill_at.is_some_and(|at| now >= at) {
                if let Some((_, _, child)) = core.children.values_mut().next() {
                    let _unused = child.kill();
                    core.kills += 1;
                    dance_telemetry::counter!("fleet.chaos.kills");
                    chaos_kill_at = None;
                }
            }
        }
        shared.persist();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.95), None);
        assert_eq!(percentile(&[7], 0.95), Some(7));
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 0.95), Some(95));
        assert_eq!(percentile(&samples, 0.5), Some(50));
        let unsorted = [30u64, 10, 20];
        assert_eq!(percentile(&unsorted, 1.0), Some(30));
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dance_fleet_{name}_{}", std::process::id()));
        let _unused = std::fs::remove_dir_all(&dir);
        dir
    }

    const DEADLINE: Duration = Duration::from_secs(120);

    #[test]
    fn clean_fleet_settles_and_matches_direct_digests() {
        let dir = tmp_dir("sup_clean");
        let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(2)).expect("start");
        let specs = [JobSpec::new(3, 16, 41, 0.1), JobSpec::new(3, 16, 42, 0.1)];
        let mut ids = Vec::new();
        for spec in specs {
            let (id, deduped) = fleet.submit(spec).expect("submit");
            assert!(!deduped);
            ids.push((id, spec));
        }
        // Idempotent: the same spec resolves to the same job.
        let (again, deduped) = fleet.submit(specs[0]).expect("resubmit");
        assert!(deduped);
        assert_eq!(again, ids[0].0);

        assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
        for (id, spec) in &ids {
            let view = fleet.status(id).expect("status");
            assert_eq!(view.state, "done", "job {id}: {:?}", view.error);
            let reference = run_job(&spec.clone(), &tmp_dir("sup_clean_ref"), false, &mut |_| {});
            assert_eq!(view.digest(), Some(reference.digest));
        }
        let counts = fleet.counts();
        assert_eq!(counts.done, 2);
        assert_eq!(counts.reclaims, 0);
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_fleet_rejects_new_jobs() {
        let dir = tmp_dir("sup_drain");
        let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("start");
        fleet.drain();
        let err = fleet
            .submit(JobSpec::new(2, 16, 1, 0.1))
            .expect_err("draining fleet must reject");
        assert_eq!(err, SubmitError::Draining);
        assert!(fleet.counts().draining);
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_attempt_is_reclaimed_and_resumes_bit_exact() {
        let dir = tmp_dir("sup_kill");
        let ref_dir = tmp_dir("sup_kill_ref");
        let spec = JobSpec::new(4, 16, 51, 0.1);
        let straight = run_job(&spec, &ref_dir, false, &mut |_| {});

        let chaos = AttemptChaos {
            kill_after: Some(1),
            stall_from: None,
            slow_ms: None,
        };
        // Short TTL so the reclaim happens fast.
        let fleet = Fleet::start(
            FleetOpts::new(dir.clone())
                .with_workers(2)
                .with_lease_ttl_ms(300)
                .with_chaos(chaos),
        )
        .expect("start");
        let (id, _) = fleet.submit(spec).expect("submit");
        assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
        let view = fleet.status(&id).expect("status");
        assert_eq!(view.state, "done", "job: {:?}", view.error);
        assert_eq!(view.digest(), Some(straight.digest), "handoff is bit-exact");
        assert!(view.attempt >= 2, "job was re-dispatched");
        let counts = fleet.counts();
        assert!(counts.reclaims >= 1, "lease was reclaimed");
        assert!(
            !counts.recoveries_ms.is_empty(),
            "recovery latency recorded"
        );
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
        let _cleanup2 = std::fs::remove_dir_all(&ref_dir);
    }

    #[test]
    fn fleet_restart_recovers_done_jobs_from_the_ledger() {
        let dir = tmp_dir("sup_restart");
        let spec = JobSpec::new(3, 16, 61, 0.1);
        let (id, digest) = {
            let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("start");
            let (id, _) = fleet.submit(spec).expect("submit");
            assert!(fleet.wait_settled(DEADLINE));
            let digest = fleet.status(&id).expect("status").digest().expect("digest");
            fleet.shutdown();
            (id, digest)
        };
        // A new incarnation over the same dir sees the finished job.
        let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("restart");
        let view = fleet.status(&id).expect("recovered job");
        assert_eq!(view.state, "done");
        assert_eq!(view.digest(), Some(digest));
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unspawnable_worker_fails_its_job_not_the_fleet() {
        let dir = tmp_dir("sup_spawn");
        let mut opts = FleetOpts::new(dir.clone()).with_workers(1);
        opts.worker_exe = Some(dir.join("no-such-worker"));
        let fleet = Fleet::start(opts).expect("start");
        let (id, _) = fleet.submit(JobSpec::new(2, 16, 1, 0.1)).expect("submit");
        assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
        let view = fleet.status(&id).expect("status");
        assert_eq!(view.state, "failed");
        let error = view.error.expect("failed job has a cause");
        assert!(error.contains("cannot spawn"), "{error}");
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let dir = tmp_dir("sup_invalid");
        let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("start");
        let err = fleet
            .submit(JobSpec::new(2, 16, 1, f32::NAN))
            .expect_err("NaN lambda2 must be rejected");
        assert!(matches!(err, SubmitError::Invalid(_)), "{err:?}");
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_epochs_and_batches_are_refused_not_clamped() {
        let dir = tmp_dir("sup_range");
        let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("start");
        // Validation runs before the drain check, so a drained fleet
        // answers `Draining` for exactly the specs it would accept.
        fleet.drain();
        // The caps are the fleet's; the lower bounds are `SearchConfig`'s.
        for (epochs, batch, field) in [
            (0, 16, "epochs"),
            (65, 16, "epochs"),
            (2, 1, "batch"),
            (2, 257, "batch"),
        ] {
            let err = fleet
                .submit(JobSpec::new(epochs, batch, 1, 0.1))
                .expect_err("out-of-range spec must be refused");
            assert!(
                matches!(&err, SubmitError::Invalid(msg) if msg.contains(field)),
                "{epochs}/{batch}: {err:?}"
            );
        }
        for (epochs, batch) in [(1, 2), (64, 256)] {
            let spec = JobSpec::new(epochs, batch, 1, 0.1);
            assert_eq!(fleet.submit(spec), Err(SubmitError::Draining));
        }
        // A worker refuses what submission refuses, so an older ledger's
        // out-of-range spec fails its job instead of running clamped.
        let panic =
            catch_unwind(|| run_job(&JobSpec::new(0, 16, 1, 0.1), &dir, false, &mut |_| {}))
                .expect_err("run_job must refuse epochs 0");
        let msg = panic_message(panic.as_ref());
        assert!(
            msg.contains("invalid `epochs`: must be at least 1"),
            "{msg}"
        );
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_fleet_refuses_new_specs_but_answers_known_ones() {
        let dir = tmp_dir("sup_full");
        let fleet = Fleet::start(
            FleetOpts::new(dir.clone())
                .with_workers(1)
                .with_max_pending(1),
        )
        .expect("start");
        let leased = JobSpec::new(8, 16, 1, 0.1);
        let waiting = JobSpec::new(2, 16, 2, 0.1);
        let (leased_id, _) = fleet.submit(leased).expect("first job");
        let deadline = Instant::now() + DEADLINE;
        while fleet.status(&leased_id).expect("status").state != "leased" {
            assert!(Instant::now() < deadline, "first job never leased");
            std::thread::sleep(Duration::from_millis(5));
        }
        let (waiting_id, _) = fleet.submit(waiting).expect("second job waits");
        assert_eq!(
            fleet.submit(JobSpec::new(2, 16, 3, 0.1)),
            Err(SubmitError::Full)
        );
        assert_eq!(fleet.submit(leased), Ok((leased_id, true)));
        assert_eq!(fleet.submit(waiting), Ok((waiting_id, true)));
        fleet.shutdown();
        let _cleanup = std::fs::remove_dir_all(&dir);
    }
}
