//! The child-process transport and the run-to-completion helper behind the
//! `dance_fleet` and `fleet_bench` binaries.
//!
//! With [`FleetOpts::worker_exe`] set, each attempt runs in its own child
//! process (`<exe> --worker ...`, see [`crate::worker::worker_main`]) that
//! reports v1 NDJSON on stdout: one `hb` line per durable epoch, then a
//! final `done` or `failed` line. This module spawns that child and parses
//! its lines; the supervisor ([`crate::supervisor`]) owns everything the
//! lines drive — lease renewal, fencing-checked completion, reclaim on pipe
//! EOF and the `SIGKILL` of a child whose lease expired — and holds the
//! child's stdin, the pipe a stalled child blocks on. Because workers
//! are real processes, the kill drill is a real `SIGKILL` — no unwinding,
//! no destructors — and recovery is the real path: the next dispatch passes
//! `--resume` and the child picks up from the last durable checkpoint.

use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dance_telemetry::json::{self, Json};

use crate::ledger::{JobResult, JobSpec};
use crate::supervisor::{Fleet, FleetCounts, FleetOpts, JobView};
use crate::worker::WorkerArgs;

/// One parsed line of a worker child's stdout.
#[derive(Debug)]
pub(crate) enum WorkerEvent {
    /// Heartbeat: another epoch's checkpoint is durable.
    Beat,
    /// The search finished.
    Done(JobResult),
    /// The attempt failed with this cause.
    Failed(String),
}

/// Spawns `<exe> --worker ...` for one attempt with its stdin and stdout
/// piped. Nothing is written to stdin: it closes when the supervisor drops
/// the child's handle or exits, which is what ends a stalled child.
pub(crate) fn spawn_worker(exe: &Path, args: &WorkerArgs) -> io::Result<Child> {
    Command::new(exe)
        .arg("--worker")
        .args(args.to_argv())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        // lint: allow(raw-spawn) OS process, not a thread; fleet workers are child processes by design
        .spawn()
}

/// Parses one line from the child running `job`. Lines that are not JSON,
/// name another job or carry an incomplete result yield `None`.
pub(crate) fn parse_event(line: &str, job: &str) -> Option<WorkerEvent> {
    let doc = json::parse(line).ok()?;
    if doc.get("job").and_then(Json::as_str) != Some(job) {
        return None;
    }
    match doc.get("event").and_then(Json::as_str)? {
        "hb" => Some(WorkerEvent::Beat),
        "done" => JobResult::parse(&doc).ok().map(WorkerEvent::Done),
        "failed" => Some(WorkerEvent::Failed(
            doc.get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string(),
        )),
        _ => None,
    }
}

/// Starts a fleet from `opts`, submits `specs`, waits until every job in
/// its ledger settles and shuts it down, returning the final counts and
/// jobs. Resumable: an existing ledger under `opts.dir` is recovered first,
/// finished jobs are not re-run, and interrupted ones resume from their
/// checkpoints. Every spec is submitted before any job runs, so `opts`
/// should leave [`FleetOpts::max_pending`] unbounded, as
/// [`FleetOpts::new`] does.
///
/// # Errors
///
/// Propagates ledger I/O failures, and rejects a spec that fails
/// search-config validation. Individual job failures, including a worker
/// that cannot be spawned, land in the returned jobs, not here.
pub fn run_fleet(opts: FleetOpts, specs: &[JobSpec]) -> io::Result<(FleetCounts, Vec<JobView>)> {
    let fleet = Fleet::start(opts)?;
    if let Err(e) = specs
        .iter()
        .try_for_each(|spec| fleet.submit(*spec).map(drop))
    {
        fleet.shutdown();
        return Err(io::Error::new(io::ErrorKind::InvalidInput, e));
    }
    // Unbounded, so the wait returns only once every job has settled.
    let _settled = fleet.wait_settled(Duration::MAX);
    let out = (fleet.counts(), fleet.jobs());
    fleet.shutdown();
    Ok(out)
}
