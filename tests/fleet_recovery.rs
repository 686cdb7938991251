//! Fleet chaos drills over the thread transport, no special features:
//! killed, stalled and slow attempts must all land on the straight run's
//! `arch-digest` bit-for-bit, with leases reclaimed (or deliberately NOT
//! reclaimed) exactly as the lease state machine promises.
//!
//! Here each attempt runs on its worker thread and chaos is scripted per
//! attempt. `tests/fleet_process.rs` drives the same supervisor over the
//! child-process transport, where a kill is a real process exit and the
//! sweep SIGKILLs a wedged child; `scripts/check.sh` adds the SIGKILL drill
//! through the `dance_fleet` binary.

use std::path::PathBuf;
use std::time::Duration;

use dance_fleet::prelude::*;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dance_fleet_it_{name}_{}", std::process::id()));
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

#[test]
fn killing_every_first_attempt_still_lands_every_digest() {
    let dir = tmp_dir("kill_all");
    let specs = [
        JobSpec::new(4, 16, 71, 0.1),
        JobSpec::new(3, 16, 72, 0.05),
        JobSpec::new(4, 16, 73, 0.2),
    ];
    let want: Vec<u64> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| straight_digest(s, &format!("kill_all_ref{i}")))
        .collect();

    let chaos = AttemptChaos {
        kill_after: Some(1),
        stall_from: None,
        slow_ms: None,
    };
    let fleet = Fleet::start(
        FleetOpts::new(dir.clone())
            .with_workers(2)
            .with_lease_ttl_ms(300)
            .with_chaos(chaos),
    )
    .expect("fleet starts");
    let ids: Vec<String> = specs
        .iter()
        .map(|s| fleet.submit(*s).expect("submit").0)
        .collect();
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");

    for (i, id) in ids.iter().enumerate() {
        let view = fleet.status(id).expect("status");
        assert_eq!(view.state, "done", "job {id}: {:?}", view.error);
        assert_eq!(view.digest(), Some(want[i]), "job {id} digest diverged");
        assert!(view.attempt >= 2, "job {id} was never re-dispatched");
    }
    let counts = fleet.counts();
    assert!(
        counts.reclaims >= specs.len() as u64,
        "every killed attempt reclaims: {counts:?}"
    );
    assert!(
        counts.recoveries_ms.len() >= specs.len(),
        "every reclaim lands in the recovery histogram"
    );
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_heartbeat_is_fenced_and_the_job_still_lands() {
    let dir = tmp_dir("stall");
    let spec = JobSpec::new(4, 16, 81, 0.1);
    let want = straight_digest(&spec, "stall_ref");

    // Stop heartbeating after epoch 1 while slowing each epoch enough that
    // the remaining work outlives the lease — the supervisor must reclaim,
    // re-dispatch, and fence off whatever the zombie attempt reports. The
    // zombie is only fenced if its epoch-0 renewal (epoch 0 plus one slow
    // sleep) lands inside the TTL, so the TTL leaves epoch 0 a 900 ms
    // budget, while the three stalled slow epochs still outlast it.
    let chaos = AttemptChaos {
        kill_after: None,
        stall_from: Some(1),
        slow_ms: Some(600),
    };
    let fleet = Fleet::start(
        FleetOpts::new(dir.clone())
            .with_workers(2)
            .with_lease_ttl_ms(1_500)
            .with_chaos(chaos),
    )
    .expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");

    let view = fleet.status(&id).expect("status");
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want), "recovered digest diverged");
    assert!(fleet.counts().reclaims >= 1, "stalled lease was reclaimed");
    // The fleet settles on the clean re-dispatch while the zombie attempt
    // is still grinding through its slowed epochs; its doomed result is
    // fenced only when it finally finishes, so poll for the count.
    let fenced_deadline = std::time::Instant::now() + Duration::from_secs(30);
    while fleet.counts().fenced == 0 {
        assert!(
            std::time::Instant::now() < fenced_deadline,
            "zombie attempt was never fenced off: {:?}",
            fleet.counts()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_peer_with_live_heartbeats_keeps_its_lease() {
    let dir = tmp_dir("slow");
    let spec = JobSpec::new(3, 16, 91, 0.1);
    let want = straight_digest(&spec, "slow_ref");

    // Slow but honest: heartbeats keep flowing, so the lease must NOT be
    // reclaimed no matter how long the epochs take relative to the TTL's
    // margin over a healthy epoch.
    let chaos = AttemptChaos {
        kill_after: None,
        stall_from: None,
        slow_ms: Some(100),
    };
    let fleet = Fleet::start(
        FleetOpts::new(dir.clone())
            .with_workers(1)
            .with_lease_ttl_ms(1_500)
            .with_chaos(chaos),
    )
    .expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");

    let view = fleet.status(&id).expect("status");
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want));
    assert_eq!(view.attempt, 1, "slow peer kept its first attempt");
    let counts = fleet.counts();
    assert_eq!(counts.reclaims, 0, "live heartbeats held the lease");
    assert_eq!(counts.fenced, 0);
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_after_chaos_recovers_the_finished_fleet_from_the_ledger() {
    let dir = tmp_dir("restart");
    let spec = JobSpec::new(4, 16, 101, 0.1);
    let chaos = AttemptChaos {
        kill_after: Some(1),
        stall_from: None,
        slow_ms: None,
    };
    let (id, digest) = {
        let fleet = Fleet::start(
            FleetOpts::new(dir.clone())
                .with_workers(2)
                .with_lease_ttl_ms(300)
                .with_chaos(chaos),
        )
        .expect("fleet starts");
        let (id, _) = fleet.submit(spec).expect("submit");
        assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
        let digest = fleet
            .status(&id)
            .expect("status")
            .digest()
            .expect("done job has a digest");
        fleet.shutdown();
        (id, digest)
    };

    // A fresh incarnation over the same directory replays the ledger: the
    // chaos-recovered job is still done, same digest, and resubmitting its
    // spec dedupes instead of re-running.
    let fleet = Fleet::start(FleetOpts::new(dir.clone()).with_workers(1)).expect("restart");
    let view = fleet.status(&id).expect("job survived the restart");
    assert_eq!(view.state, "done");
    assert_eq!(view.digest(), Some(digest));
    let (again, deduped) = fleet.submit(spec).expect("resubmit");
    assert!(deduped, "finished job must dedupe across restarts");
    assert_eq!(again, id);
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}
