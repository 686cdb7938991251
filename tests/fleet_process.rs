//! Fleet drills over the child-process transport: every attempt runs as a
//! real `dance_fleet --worker` child, so a scripted kill is a real process
//! exit seen as pipe EOF and a stalled child, blocked on its stdin, is
//! SIGKILLed by the lease sweep at the manual-clock time the drill sets.
//! Jobs must still land on the straight run's `arch-digest` bit-for-bit,
//! and no heartbeat may write a ledger generation.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dance_fleet::prelude::*;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dance_fleet_proc_{name}_{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    dir
}

const DEADLINE: Duration = Duration::from_secs(120);

/// The uninterrupted result of a spec, computed outside any fleet.
fn straight(spec: &JobSpec, name: &str) -> JobResult {
    let dir = tmp_dir(name);
    let outcome = run_job(spec, &dir, false, &mut |_| {});
    let _cleanup = std::fs::remove_dir_all(&dir);
    outcome
}

/// The uninterrupted digest for a spec, computed outside any fleet.
fn straight_digest(spec: &JobSpec, name: &str) -> u64 {
    straight(spec, name).digest
}

/// Options for a fleet whose attempts run as `dance_fleet --worker` children.
fn child_opts(dir: &Path, workers: usize, chaos: AttemptChaos) -> FleetOpts {
    let mut opts = FleetOpts::new(dir.to_path_buf())
        .with_workers(workers)
        .with_chaos(chaos);
    opts.worker_exe = Some(PathBuf::from(env!("CARGO_BIN_EXE_dance_fleet")));
    opts
}

/// Ledger generations written so far: one past the newest generation number.
fn generations(ledger_dir: &Path) -> u64 {
    let (store, ..) = LedgerStore::open(ledger_dir).expect("ledger opens");
    let newest = store.newest_path().expect("the fleet wrote generations");
    let name = newest.to_string_lossy();
    let generation = name.trim_end_matches(".json").rsplit('-').next();
    generation.map_or(0, |g| g.parse::<u64>().expect("a number") + 1)
}

#[test]
fn killed_children_are_reclaimed_at_eof_without_heartbeat_writes() {
    let dir = tmp_dir("kill");
    // The third job is shaped like a campaign cell, so its two extra spec
    // fields must survive `--spec` for its result to match.
    let cell = JobSpec {
        data_seed: 3,
        warmup: 2,
        ..JobSpec::new(4, 16, 143, 0.3)
    };
    let specs = [
        JobSpec::new(4, 16, 141, 0.1),
        JobSpec::new(4, 16, 142, 0.1),
        cell,
    ];
    let want: Vec<JobResult> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| straight(s, &format!("kill_ref{i}")))
        .collect();

    // Each first attempt exits right after epoch 1's heartbeat. The default
    // lease TTL is far longer than an epoch, so only pipe EOF can reclaim.
    let chaos = AttemptChaos {
        kill_after: Some(1),
        stall_from: None,
    };
    let fleet = Fleet::start(child_opts(&dir, 2, chaos)).expect("fleet starts");
    let ids: Vec<String> = specs
        .iter()
        .map(|s| fleet.submit(*s).expect("submit").0)
        .collect();
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    for (id, want) in ids.iter().zip(&want) {
        let view = fleet.status(id).expect("status");
        assert_eq!(view.state, "done", "job {id}: {:?}", view.error);
        assert_eq!(view.digest(), Some(want.digest), "job {id} digest diverged");
    }
    let result = fleet.status(&ids[2]).expect("status").result.expect("done");
    assert_eq!(result.choices, want[2].choices);
    assert_eq!(result.trajectory, want[2].trajectory);
    let counts = fleet.counts();
    fleet.shutdown();
    assert_eq!(
        counts.reclaims, 3,
        "one EOF reclaim per killed child: {counts:?}"
    );
    assert_eq!(counts.fenced, 0);

    // Submit, claim and result per job, a reclaim and a re-claim per
    // reclaim, one final save: heartbeats add nothing.
    let bound = 3 * specs.len() as u64 + 2 * counts.reclaims + 1;
    let written = generations(&dir.join("ledger"));
    assert!(
        written <= bound,
        "{written} ledger generations, at most {bound} allowed"
    );
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_child_is_killed_at_lease_expiry_and_never_fenced() {
    let dir = tmp_dir("stall");
    let spec = JobSpec::new(4, 16, 151, 0.1);
    let want = straight_digest(&spec, "stall_ref");

    // The child heartbeats epoch 0, then stalls: it sends nothing more and
    // blocks on its stdin. The manual clock passes the TTL only after that
    // heartbeat renewed the lease, so the sweep must SIGKILL a child whose
    // lease was live, and the next attempt resumes from its checkpoint.
    let ttl = 1_000;
    let clock = ManualClock::new();
    let chaos = AttemptChaos {
        kill_after: None,
        stall_from: Some(1),
    };
    let mut opts = child_opts(&dir, 1, chaos).with_lease_ttl_ms(ttl);
    opts.clock = Some(clock.clone());
    let fleet = Fleet::start(opts).expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    let renewed = |c: &FleetCounts| c.workers["fleet-w0"].last_beat_ms.is_some();
    assert!(fleet.wait_for(DEADLINE, renewed), "no renewal");
    clock.advance(ttl);
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    let view = fleet.status(&id).expect("status");
    fleet.shutdown();
    let counts = fleet.counts();
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want), "recovered digest diverged");
    assert_eq!(view.attempt, 2, "one re-dispatch");
    assert_eq!(counts.reclaims, 1, "the stalled lease: {counts:?}");
    assert_eq!(counts.fenced, 0, "the stalled child outlived its lease");
    let resumed = view
        .result
        .as_ref()
        .and_then(|r| r.guard.resumed_from_epoch);
    assert!(resumed.is_some(), "the next attempt did not resume");
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_ends_a_stalled_child_and_keeps_its_job() {
    let dir = tmp_dir("hold");
    // The child stalls at its first epoch and blocks on its stdin, with
    // its lease held on a clock that never moves: only shutdown, which
    // closes that stdin, ends it. Its job goes back to pending.
    let chaos = AttemptChaos {
        kill_after: None,
        stall_from: Some(0),
    };
    let mut opts = child_opts(&dir, 1, chaos);
    opts.clock = Some(ManualClock::new());
    let fleet = Fleet::start(opts).expect("fleet starts");
    let (id, _) = fleet.submit(JobSpec::new(2, 16, 161, 0.1)).expect("submit");
    assert!(fleet.wait_for(DEADLINE, |c| c.leased == 1), "never leased");
    fleet.shutdown();
    assert_eq!(fleet.status(&id).expect("status").state, "pending");
    assert_eq!(fleet.counts().reclaims, 1, "the child's pipe closed");
    let _cleanup = std::fs::remove_dir_all(&dir);
}
