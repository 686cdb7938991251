//! Fleet fault-injection suite: drives the supervisor with the process-level
//! faults of `dance-guard`'s `FaultPlan` — worker kills, heartbeat stalls,
//! slow peers and torn ledger generation writes — and asserts every drill
//! still lands the uninterrupted run's `arch-digest` bit-for-bit.
//!
//! Build with `cargo test --features fault-injection --test fleet_faults`.
#![cfg(feature = "fault-injection")]

use std::path::PathBuf;
use std::time::Duration;

use dance::guard::fault::{Fault, FaultPlan};
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
fn attempt_chaos_mirrors_the_fault_plan() {
    let plan = FaultPlan::new()
        .with(Fault::KillWorker { epoch: 2 })
        .with(Fault::StallHeartbeat { epoch: 3 })
        .with(Fault::SlowPeer { delay_ms: 40 });
    let chaos = AttemptChaos::from_plan(&plan);
    assert_eq!(chaos.kill_after, Some(2));
    assert_eq!(chaos.stall_from, Some(3));
    assert_eq!(chaos.slow_ms, Some(40));
    assert!(AttemptChaos::from_plan(&FaultPlan::new()).is_clean());
}

#[test]
fn fault_plan_kill_drill_recovers_bit_exact() {
    let dir = tmp_dir("plan_kill");
    let spec = JobSpec::new(4, 16, 111, 0.1);
    let want = straight_digest(&spec, "plan_kill_ref");

    let plan = FaultPlan::new().with(Fault::KillWorker { epoch: 1 });
    let fleet = Fleet::start(
        FleetOpts::new(dir.clone())
            .with_workers(2)
            .with_lease_ttl_ms(300)
            .with_chaos(AttemptChaos::from_plan(&plan)),
    )
    .expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    let view = fleet.status(&id).expect("status");
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want), "plan-driven kill diverged");
    assert!(fleet.counts().reclaims >= 1);
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_ledger_writes_cost_at_most_one_generation() {
    let dir = tmp_dir("plan_torn");
    let specs = [JobSpec::new(3, 16, 121, 0.1), JobSpec::new(3, 16, 122, 0.1)];
    let want: Vec<u64> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| straight_digest(s, &format!("plan_torn_ref{i}")))
        .collect();

    // Tear a couple of ledger generation rewrites mid-run: the store keeps
    // serving, and recovery walks back over the torn files.
    let plan = FaultPlan::new()
        .with(Fault::TornLedgerWrite { rewrite: 2 })
        .with(Fault::TornLedgerWrite { rewrite: 4 });
    let (ids, digests) = {
        let fleet = Fleet::start(
            FleetOpts::new(dir.clone())
                .with_workers(2)
                .with_fault_plan(plan),
        )
        .expect("fleet starts");
        let ids: Vec<String> = specs
            .iter()
            .map(|s| fleet.submit(*s).expect("submit").0)
            .collect();
        assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
        let digests: Vec<u64> = ids
            .iter()
            .map(|id| {
                let view = fleet.status(id).expect("status");
                assert_eq!(view.state, "done", "job {id}: {:?}", view.error);
                view.digest().expect("done job has a digest")
            })
            .collect();
        fleet.shutdown();
        (ids, digests)
    };
    assert_eq!(digests, want, "torn ledger writes changed a digest");

    // Restart over the directory the torn writes hit: the walk-back loses
    // at most one generation of bookkeeping, never a finished result that
    // a durable generation recorded.
    let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("restart");
    for (id, want) in ids.iter().zip(&want) {
        if let Some(view) = fleet.status(id) {
            assert_eq!(view.state, "done", "recovered job {id} regressed");
            assert_eq!(view.digest(), Some(*want));
        }
    }
    // Either way, resubmitting runs (or dedupes) back to the same digests.
    let resubmitted: Vec<String> = specs
        .iter()
        .map(|s| fleet.submit(*s).expect("resubmit").0)
        .collect();
    assert!(fleet.wait_settled(DEADLINE), "resubmitted fleet settles");
    for (id, want) in resubmitted.iter().zip(&want) {
        let view = fleet.status(id).expect("status");
        assert_eq!(view.state, "done", "job {id}: {:?}", view.error);
        assert_eq!(view.digest(), Some(*want), "post-recovery digest diverged");
    }
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn stall_and_slow_composed_drill_lands_clean() {
    let dir = tmp_dir("plan_stall_slow");
    let spec = JobSpec::new(4, 16, 131, 0.1);
    let want = straight_digest(&spec, "plan_stall_slow_ref");

    let plan = FaultPlan::new()
        .with(Fault::StallHeartbeat { epoch: 1 })
        .with(Fault::SlowPeer { delay_ms: 150 });
    let fleet = Fleet::start(
        FleetOpts::new(dir.clone())
            .with_workers(2)
            .with_lease_ttl_ms(300)
            .with_chaos(AttemptChaos::from_plan(&plan)),
    )
    .expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    let view = fleet.status(&id).expect("status");
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want), "stall+slow drill diverged");
    assert!(fleet.counts().reclaims >= 1, "stalled lease reclaimed");
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}
