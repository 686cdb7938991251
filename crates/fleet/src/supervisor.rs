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
//! Nothing polls. Every wait — an idle worker, [`Fleet::wait_for`], a
//! stalled attempt holding its lease, and the sweep until the earliest
//! lease deadline or the chaos-kill time — is a wait on one `Condvar`
//! paired with the core lock, and every change to the core notifies it.
//! Time is one clock: monotonic, or a [`ManualClock`] that a drill
//! advances (an advance wakes the sweep).
//!
//! Locking follows the workspace single-lock rule: all mutable state,
//! running children included, lives in one `Mutex<Core>`, never held
//! across I/O or a join (a `SIGKILL` sent or a pipe closed under it does
//! not block) and released by every condvar wait. Ledger writes
//! happen outside that lock under a dedicated leaf mutex, ordered by a save
//! sequence so a stale render can never clobber a newer generation.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};
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
    /// this many fleet-clock ms after start. `None` runs clean.
    pub chaos_kill_after_ms: Option<u64>,
    /// Test seam: the clock leases, heartbeats and the chaos kill run on.
    /// `None`, the default and what every binary runs, is monotonic time
    /// since [`Fleet::start`]; a drill sets a [`ManualClock`] it advances.
    pub clock: Option<ManualClock>,
}

impl FleetOpts {
    /// Defaults: 2 worker threads, 3 s leases, no pending bound, no chaos,
    /// the monotonic clock.
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
            clock: None,
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

/// A fleet clock that moves only when [`ManualClock::advance`] moves it, so
/// a drill expires a lease at the event it means instead of racing the
/// host's speed. It starts at 0, clones share it, and it drives one fleet.
#[derive(Clone, Default)]
pub struct ManualClock {
    now_ms: Arc<AtomicU64>,
    /// The fleet on this clock, woken by every advance.
    fleet: Arc<OnceLock<Weak<Shared>>>,
}

impl ManualClock {
    /// A clock at 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current time, milliseconds.
    #[must_use]
    pub fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::SeqCst)
    }

    /// Moves time forward by `ms` and wakes the fleet on this clock, so its
    /// sweep reclaims whatever the new time expired.
    pub fn advance(&self, ms: u64) {
        self.now_ms.fetch_add(ms, Ordering::SeqCst);
        if let Some(shared) = self.fleet.get().and_then(Weak::upgrade) {
            // Taking the core lock orders this advance after any sweep that
            // read the old time and is about to wait, so the wake-up lands.
            drop(shared.core());
            shared.cv.notify_all();
        }
    }
}

impl std::fmt::Debug for ManualClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ManualClock({} ms)", self.now_ms())
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
    /// Fleet-clock time of the latest renewed heartbeat of this worker's
    /// current (or last) attempt; `None` until that attempt's first one.
    pub last_beat_ms: Option<u64>,
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
    shutdown: bool,
    dirty: bool,
    save_seq: u64,
}

struct Saver {
    store: LedgerStore,
    last_seq: u64,
}

struct Shared {
    core: Mutex<Core>,
    /// Paired with `core`: notified after every change to it.
    cv: Condvar,
    saver: Mutex<Saver>,
    start: Instant,
    clock: Option<ManualClock>,
    ckpt_root: PathBuf,
    max_pending: usize,
    chaos: AttemptChaos,
    worker_exe: Option<PathBuf>,
    chaos_kill_after_ms: Option<u64>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        match &self.clock {
            Some(clock) => clock.now_ms(),
            None => u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX),
        }
    }

    fn core(&self) -> MutexGuard<'_, Core> {
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
    ///
    /// # Panics
    ///
    /// Panics when `opts.clock` already drives another fleet.
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
            let idle = WorkerHealth {
                state: "idle".to_string(),
                job: None,
                done: 0,
                last_beat_ms: None,
            };
            health.insert(format!("fleet-w{w}"), idle);
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
                shutdown: false,
                dirty: false,
                save_seq: 0,
            }),
            cv: Condvar::new(),
            saver: Mutex::new(Saver { store, last_seq: 0 }),
            start: Instant::now(),
            clock: opts.clock,
            ckpt_root,
            max_pending: opts.max_pending,
            chaos: opts.chaos,
            worker_exe: opts.worker_exe,
            chaos_kill_after_ms: opts.chaos_kill_after_ms,
        });
        if let Some(clock) = &shared.clock {
            let first = clock.fleet.set(Arc::downgrade(&shared)).is_ok();
            assert!(first, "a manual clock drives one fleet");
        }
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
                sweep_loop(&s);
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
        self.shared.cv.notify_all();
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
        self.shared.core().draining = true;
        self.shared.cv.notify_all();
    }

    /// Blocks until `done` holds for the fleet's [`FleetCounts`] or
    /// `timeout` of wall time passes, checking again at every change the
    /// fleet makes: a submit, claim, renewed heartbeat, result, reclaim,
    /// drain or shutdown. Returns whether `done` held. `Duration::MAX`
    /// waits as long as it takes. `done` runs under the fleet's lock, so
    /// it must not call back into the fleet.
    #[must_use]
    pub fn wait_for(&self, timeout: Duration, done: impl Fn(&FleetCounts) -> bool) -> bool {
        let deadline = Instant::now().checked_add(timeout);
        let mut core = self.shared.core();
        while !done(&core.counts()) {
            let left = deadline.map_or(Duration::MAX, |d| {
                d.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                return false;
            }
            core = self
                .shared
                .cv
                .wait_timeout(core, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }

    /// Waits until every job settles or `timeout` passes, as
    /// [`Fleet::wait_for`] does. Returns whether the fleet settled.
    #[must_use]
    pub fn wait_settled(&self, timeout: Duration) -> bool {
        self.wait_for(timeout, |c| c.pending + c.leased == 0)
    }

    /// Snapshot of counts, per-worker health and recovery latencies.
    #[must_use]
    pub fn counts(&self) -> FleetCounts {
        self.shared.core().counts()
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
    /// Jobs still pending stay in the ledger for the next incarnation. A
    /// stalled attempt holding its lease is released: a thread attempt
    /// runs on, and a child, whose stdin closes here, ends.
    pub fn shutdown(&self) {
        {
            let mut core = self.shared.core();
            core.shutdown = true;
            for (_, _, child) in core.children.values_mut() {
                child.stdin = None;
            }
        }
        self.shared.cv.notify_all();
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        // Joins happen with no lock held; every fleet thread releases the
        // core lock while it waits or runs an attempt.
        for t in threads {
            let _unused = t.join();
        }
        self.shared.core().dirty = true;
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

/// An idle worker waits until a job is pending (and claims it), the fleet
/// has drained and settled, or it shuts down.
fn worker_loop(shared: &Shared, worker: &str) {
    loop {
        let (id, spec, attempt) = {
            let mut core = shared.core();
            loop {
                if core.shutdown || (core.draining && core.ledger.all_settled()) {
                    return;
                }
                if let Some(claim) = core.claim(worker, shared.now_ms()) {
                    break claim;
                }
                core = shared.cv.wait(core).unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.cv.notify_all();
        shared.persist();
        execute_attempt(shared, worker, &id, spec, attempt);
        shared.persist();
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
    shared.cv.notify_all();
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
            if !stalled && chaos.stall_from.is_some_and(|s| epoch >= s) {
                // No more heartbeats: hold until the lease is gone or the
                // fleet shuts down, then run on to a result that fencing
                // discards (or, at shutdown, commits).
                stalled = true;
                let mut core = shared.core();
                while !core.shutdown && core.leases.holds(id, worker, attempt) {
                    core = shared.cv.wait(core).unwrap_or_else(PoisonError::into_inner);
                }
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
    {
        let mut core = shared.core();
        if core.shutdown {
            // Shutdown already closed the other children's stdin.
            child.stdin = None;
        }
        core.children
            .insert(worker.to_string(), (id.to_string(), attempt, child));
    }
    shared.cv.notify_all();
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
    {
        let mut core = shared.core();
        if !core.leases.renew(id, worker, attempt, now) {
            return false;
        }
        if let Some(h) = core.health.get_mut(worker) {
            h.last_beat_ms = Some(now);
        }
        core.recovered(id, now);
    }
    shared.cv.notify_all();
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
    /// Claims the first pending job for `worker`, bumping its attempt (the
    /// fencing token) and granting the lease.
    fn claim(&mut self, worker: &str, now: u64) -> Option<(String, JobSpec, u64)> {
        let (id, rec) = self
            .ledger
            .jobs
            .iter_mut()
            .find(|(_, r)| r.status == JobStatus::Pending)?;
        rec.attempt += 1;
        rec.status = JobStatus::Leased {
            worker: worker.to_string(),
        };
        let (id, spec, attempt) = (id.clone(), rec.spec, rec.attempt);
        self.leases.grant(&id, worker, attempt, now);
        if let Some(h) = self.health.get_mut(worker) {
            h.state = "busy".to_string();
            h.job = Some(id.clone());
            h.last_beat_ms = None;
        }
        self.dirty = true;
        Some((id, spec, attempt))
    }

    /// Reclaims every lease expired at `now`, SIGKILLing the child that
    /// held it (a child that stopped heartbeating may still be computing).
    /// Returns whether anything was reclaimed.
    fn expire(&mut self, now: u64) -> bool {
        let expired = self.leases.expire(now);
        for (job, lease) in &expired {
            if let Some((held, attempt, child)) = self.children.get_mut(&lease.worker) {
                if held == job && *attempt == lease.attempt {
                    let _unused = child.kill();
                }
            }
            self.reclaim(job, now);
            if let Some(h) = self.health.get_mut(&lease.worker) {
                h.state = "suspect".to_string();
                h.job = None;
            }
        }
        !expired.is_empty()
    }

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

    fn counts(&self) -> FleetCounts {
        let (pending, leased, done, failed) = self.ledger.counts();
        FleetCounts {
            pending,
            leased,
            done,
            failed,
            reclaims: self.reclaims,
            kills: self.kills,
            fenced: self.fenced,
            recoveries_ms: self.recoveries_ms.clone(),
            draining: self.draining,
            workers: self.health.clone(),
            guard: self.guard.clone(),
        }
    }
}

/// The lease sweep: waits until the earliest lease deadline or the
/// pending chaos-kill time, or until notified, then reclaims expired
/// leases and delivers the one-shot chaos kill to a running child. After
/// either it notifies and persists the ledger with the lock released.
fn sweep_loop(shared: &Shared) {
    let mut chaos_kill_at = shared.chaos_kill_after_ms;
    loop {
        {
            let mut core = shared.core();
            loop {
                if core.shutdown {
                    return;
                }
                let now = shared.now_ms();
                let mut changed = core.expire(now);
                if chaos_kill_at.is_some_and(|at| now >= at) {
                    if let Some((_, _, child)) = core.children.values_mut().next() {
                        let _unused = child.kill();
                        core.kills += 1;
                        dance_telemetry::counter!("fleet.chaos.kills");
                        chaos_kill_at = None;
                        changed = true;
                    }
                }
                if changed {
                    break;
                }
                // A kill already due waits for a child's spawn, which
                // notifies. A manual clock moves only by an advance, which
                // notifies too, so it needs no timeout.
                let kill_at = chaos_kill_at.filter(|at| *at > now);
                let wake_at = core.leases.next_deadline().into_iter().chain(kill_at).min();
                let timeout = match wake_at {
                    Some(at) if shared.clock.is_none() => {
                        Duration::from_millis(at.saturating_sub(now))
                    }
                    _ => Duration::MAX,
                };
                core = shared
                    .cv
                    .wait_timeout(core, timeout)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
        shared.cv.notify_all();
        shared.persist();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tmp_dir;

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

    const DEADLINE: Duration = Duration::from_secs(120);

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
    fn out_of_range_specs_are_refused_not_clamped() {
        let dir = tmp_dir("sup_range");
        let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("start");
        // Validation runs before the drain check, so a drained fleet
        // answers `Draining` for exactly the specs it would accept.
        fleet.drain();
        assert!(fleet.counts().draining);
        // The caps are the fleet's; the lower bounds are `SearchConfig`'s.
        for (epochs, batch, lambda2, field) in [
            (0, 16, 0.1, "epochs"),
            (65, 16, 0.1, "epochs"),
            (2, 1, 0.1, "batch"),
            (2, 257, 0.1, "batch"),
            (2, 16, f32::NAN, "lambda2"),
        ] {
            let err = fleet
                .submit(JobSpec::new(epochs, batch, 1, lambda2))
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
        // The first job stalls at once and, on a clock that never moves,
        // holds its lease until shutdown lets it go.
        let chaos = AttemptChaos {
            kill_after: None,
            stall_from: Some(0),
        };
        let mut opts = FleetOpts::new(dir.clone())
            .with_workers(1)
            .with_max_pending(1)
            .with_chaos(chaos);
        opts.clock = Some(ManualClock::new());
        let fleet = Fleet::start(opts).expect("start");
        let leased = JobSpec::new(2, 16, 1, 0.1);
        let waiting = JobSpec::new(2, 16, 2, 0.1);
        let (leased_id, _) = fleet.submit(leased).expect("first job");
        assert!(fleet.wait_for(DEADLINE, |c| c.leased == 1), "never leased");
        let (waiting_id, _) = fleet.submit(waiting).expect("second job waits");
        let refused = fleet.submit(JobSpec::new(2, 16, 3, 0.1));
        assert_eq!(refused, Err(SubmitError::Full));
        assert_eq!(fleet.submit(leased), Ok((leased_id.clone(), true)));
        assert_eq!(fleet.submit(waiting), Ok((waiting_id.clone(), true)));
        // Shutdown lets the holding attempt run on to its result and leaves
        // the waiting job in the ledger.
        fleet.shutdown();
        let state = |id: &str| fleet.status(id).expect("status").state;
        assert_eq!(state(&leased_id), "done");
        assert_eq!(state(&waiting_id), "pending");
        let _cleanup = std::fs::remove_dir_all(&dir);
    }
}
