//! The child-process transport and the run-to-completion helper behind the
//! `dance_fleet` and `fleet_bench` binaries.
//!
//! With [`FleetOpts::worker_exe`] set, each attempt runs in its own child
//! process (`<exe> --worker ...`, see [`crate::worker::worker_main`]) that
//! reports v1 NDJSON on stdout: one `hb` line per durable epoch, then a
//! final `done` or `failed` line. This module spawns that child and parses
//! its lines; the supervisor ([`crate::supervisor`]) owns everything the
//! lines drive — lease renewal, fencing-checked completion, reclaim on pipe
//! EOF and the `SIGKILL` of a child whose lease expired. Because workers
//! are real processes, the kill drill is a real `SIGKILL` — no unwinding,
//! no destructors — and recovery is the real path: the next dispatch passes
//! `--resume` and the child picks up from the last durable checkpoint.

use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dance_telemetry::json::{self, Json};

use crate::ledger::JobSpec;
use crate::supervisor::{Fleet, FleetCounts, FleetOpts, JobView};
use crate::worker::WorkerArgs;

/// One parsed line of a worker child's stdout.
#[derive(Debug)]
pub(crate) enum WorkerEvent {
    /// Heartbeat: another epoch's checkpoint is durable.
    Beat,
    /// The search finished.
    Done {
        /// `arch-digest` of the final architecture probabilities.
        digest: u64,
        /// Epochs the search ran.
        epochs: u64,
    },
    /// The attempt failed with this cause.
    Failed(String),
}

/// Spawns `<exe> --worker ...` for one attempt with its stdout piped.
pub(crate) fn spawn_worker(exe: &Path, args: &WorkerArgs) -> io::Result<Child> {
    Command::new(exe)
        .arg("--worker")
        .args(args.to_argv())
        .stdin(Stdio::null())
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
        "done" => Some(WorkerEvent::Done {
            digest: doc
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())?,
            epochs: doc.get("epochs").and_then(Json::as_f64)? as u64,
        }),
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
/// checkpoints.
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
    while !fleet.wait_settled(Duration::from_secs(60)) {}
    let out = (fleet.counts(), fleet.jobs());
    fleet.shutdown();
    Ok(out)
}
