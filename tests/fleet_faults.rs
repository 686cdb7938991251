//! Fleet ledger faults: a ledger generation torn on disk, as a crash
//! mid-write or a partial copy leaves it, costs a restarted fleet exactly
//! that one generation, and every finished job keeps the uninterrupted
//! run's `arch-digest` bit-for-bit.
//!
//! Kill, stall and slow-peer drills live in `tests/fleet_recovery.rs` and
//! `tests/fleet_process.rs`; this drill needs no chaos and no clock.

use std::path::PathBuf;
use std::time::Duration;

use dance_fleet::prelude::*;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dance_fleet_ft_{name}_{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    dir
}

const DEADLINE: Duration = Duration::from_secs(120);

fn straight_digest(spec: &JobSpec, name: &str) -> u64 {
    let dir = tmp_dir(name);
    let outcome = run_job(spec, &dir, false, &mut |_| {});
    let _cleanup = std::fs::remove_dir_all(&dir);
    outcome.digest
}

#[test]
fn torn_ledger_writes_cost_at_most_one_generation() {
    let dir = tmp_dir("torn");
    let specs = [JobSpec::new(3, 16, 121, 0.1), JobSpec::new(3, 16, 122, 0.1)];
    let want: Vec<u64> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| straight_digest(s, &format!("torn_ref{i}")))
        .collect();

    let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(2)).expect("fleet starts");
    let ids: Vec<String> = specs
        .iter()
        .map(|s| fleet.submit(*s).expect("submit").0)
        .collect();
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    assert_eq!(fleet.counts().reclaims, 0, "a clean run reclaims nothing");
    fleet.shutdown();

    // Tear the newest generation (the one shutdown wrote) to half its
    // bytes: the file still exists but no longer parses.
    let ledger_dir = dir.join("ledger");
    let (store, before, skipped) = LedgerStore::open(&ledger_dir).expect("open clean ledger");
    assert_eq!(skipped, 0, "a clean shutdown leaves no torn generation");
    let newest = store.newest_path().expect("the fleet wrote generations");
    let bytes = std::fs::read(&newest).expect("read newest generation");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("tear newest generation");

    // The walk-back skips exactly the torn file, and the generation under
    // it already held every result.
    let (_, recovered, skipped) = LedgerStore::open(&ledger_dir).expect("open torn ledger");
    assert_eq!(skipped, 1, "exactly the torn generation is skipped");
    assert_eq!(recovered, before, "the walk-back lost a job's state");

    // A fleet restarted over the torn directory serves every finished
    // result and dedupes a resubmission instead of running it again.
    let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("restart");
    for ((id, spec), want) in ids.iter().zip(&specs).zip(&want) {
        let view = fleet.status(id).expect("recovered job is known");
        assert_eq!(view.state, "done", "job {id}: {:?}", view.error);
        assert_eq!(view.digest(), Some(*want), "recovered digest diverged");
        assert_eq!(fleet.submit(*spec), Ok((id.clone(), true)));
    }
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}
