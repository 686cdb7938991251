//! Fleet drills over the child-process transport: every attempt runs as a
//! real `dance_fleet --worker` child, so a scripted kill is a real process
//! exit seen as pipe EOF and a wedged child is SIGKILLed by the lease sweep.
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

/// The uninterrupted digest for a spec, computed outside any fleet.
fn straight_digest(spec: &JobSpec, name: &str) -> u64 {
    let dir = tmp_dir(name);
    let outcome = run_job(spec, &dir, false, &mut |_| {});
    let _cleanup = std::fs::remove_dir_all(&dir);
    outcome.digest
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
    std::fs::read_dir(ledger_dir)
        .expect("ledger dir lists")
        .filter_map(Result::ok)
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix("ledger-")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(0, |g| g + 1)
}

#[test]
fn killed_children_are_reclaimed_at_eof_without_heartbeat_writes() {
    let dir = tmp_dir("kill");
    let specs = [JobSpec::new(4, 16, 141, 0.1), JobSpec::new(4, 16, 142, 0.1)];
    let want: Vec<u64> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| straight_digest(s, &format!("kill_ref{i}")))
        .collect();

    // Each first attempt exits right after epoch 1's heartbeat. The default
    // lease TTL is far longer than an epoch, so only pipe EOF can reclaim.
    let chaos = AttemptChaos {
        kill_after: Some(1),
        stall_from: None,
        slow_ms: None,
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
        assert_eq!(view.digest(), Some(*want), "job {id} digest diverged");
    }
    let counts = fleet.counts();
    fleet.shutdown();
    assert_eq!(
        counts.reclaims, 2,
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

    // The child heartbeats epoch 0, then stops heartbeating but keeps
    // computing, and its three remaining epochs, slowed 600 ms each,
    // outlast the 1,500 ms lease. The TTL leaves the child's start-up and
    // epoch 0 (plus one slow sleep) room to land that first heartbeat, the
    // values `fleet_recovery`'s stall drill uses. The sweep must SIGKILL
    // the child when the lease expires: a child left alive would finish and
    // report a stale result that fencing discards.
    let chaos = AttemptChaos {
        kill_after: None,
        stall_from: Some(1),
        slow_ms: Some(600),
    };
    let fleet =
        Fleet::start(child_opts(&dir, 1, chaos).with_lease_ttl_ms(1_500)).expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    let view = fleet.status(&id).expect("status");
    let counts = fleet.counts();
    fleet.shutdown();
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want), "recovered digest diverged");
    assert!(
        counts.reclaims >= 1,
        "stalled lease was reclaimed: {counts:?}"
    );
    assert_eq!(counts.fenced, 0, "the stalled child outlived its lease");
    // Attempt 1 checkpoints epoch 1 only after its epoch-0 heartbeat, so a
    // resume from epoch 1 or later shows the stall came after a live
    // heartbeat. A lease that expired before that heartbeat renewed it
    // would have killed the child before epoch 1 ended.
    let resumed = view
        .result
        .as_ref()
        .and_then(|r| r.guard.resumed_from_epoch);
    assert!(
        resumed.is_some_and(|e| e >= 1),
        "the next attempt resumed from epoch {resumed:?}, not from 1 or later"
    );
    let _cleanup = std::fs::remove_dir_all(&dir);
}
