//! Fleet chaos drills over the thread transport, no special features:
//! killed, stalled and slow attempts must all land on the straight run's
//! `arch-digest` bit-for-bit, with leases reclaimed (or deliberately NOT
//! reclaimed) exactly as the lease state machine promises.
//!
//! Here each attempt runs on its worker thread and chaos is scripted per
//! attempt. Every drill runs on a manual clock that it moves at the event
//! it means, so its counts are exact on any host.
//! `tests/fleet_process.rs` drives the same supervisor over the
//! child-process transport, where a kill is a real process exit and the
//! sweep SIGKILLs a wedged child; `scripts/check.sh` adds the SIGKILL drill
//! through the `dance_fleet` binary.

use std::path::{Path, PathBuf};
use std::time::Duration;

use dance_fleet::prelude::*;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dance_fleet_it_{name}_{}", std::process::id()));
    let _fresh = std::fs::remove_dir_all(&dir);
    dir
}

const DEADLINE: Duration = Duration::from_secs(120);
/// Lease TTL of the manual-clock drills, in manual milliseconds.
const TTL: u64 = 1_000;

/// Options for a fleet on `clock`, which only the drill moves.
fn manual_opts(dir: &Path, workers: usize, chaos: AttemptChaos, clock: &ManualClock) -> FleetOpts {
    let mut opts = FleetOpts::new(dir.to_path_buf())
        .with_workers(workers)
        .with_lease_ttl_ms(TTL)
        .with_chaos(chaos);
    opts.clock = Some(clock.clone());
    opts
}

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

/// A job shaped like a campaign cell: its own dataset seed and a λ₂ ramp
/// over half its epochs.
fn cell_spec(seed: u64) -> JobSpec {
    JobSpec {
        data_seed: 3,
        warmup: 2,
        ..JobSpec::new(4, 16, seed, 0.3)
    }
}

/// Kills each job's first attempt after epoch 1 on a fleet whose clock
/// never moves, waits until every first attempt has vanished holding its
/// lease, then moves the clock past the TTL once, so each lease is
/// reclaimed exactly once.
fn kill_every_first_attempt(dir: &Path, specs: &[JobSpec]) -> (Fleet, Vec<String>) {
    let clock = ManualClock::new();
    let chaos = AttemptChaos {
        kill_after: Some(1),
        stall_from: None,
    };
    let fleet = Fleet::start(manual_opts(dir, 2, chaos, &clock)).expect("fleet starts");
    let ids: Vec<String> = specs
        .iter()
        .map(|s| fleet.submit(*s).expect("submit").0)
        .collect();
    let vanished = |c: &FleetCounts| {
        c.pending == 0 && c.leased == specs.len() && c.workers.values().all(|w| w.state == "idle")
    };
    assert!(fleet.wait_for(DEADLINE, vanished), "{:?}", fleet.counts());
    clock.advance(TTL);
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    let counts = fleet.counts();
    assert_eq!(counts.reclaims, specs.len() as u64, "{counts:?}");
    assert_eq!(counts.recoveries_ms.len(), specs.len(), "{counts:?}");
    assert_eq!(counts.fenced, 0, "{counts:?}");
    for id in &ids {
        assert_eq!(fleet.status(id).expect("status").attempt, 2, "job {id}");
    }
    (fleet, ids)
}

#[test]
fn killing_every_first_attempt_still_lands_every_digest() {
    let dir = tmp_dir("kill_all");
    let specs = [
        JobSpec::new(4, 16, 71, 0.1),
        JobSpec::new(3, 16, 72, 0.05),
        JobSpec::new(4, 16, 73, 0.2),
        cell_spec(74),
    ];
    let want: Vec<JobResult> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| straight(s, &format!("kill_all_ref{i}")))
        .collect();

    let (fleet, ids) = kill_every_first_attempt(&dir, &specs);
    for (id, want) in ids.iter().zip(&want) {
        let view = fleet.status(id).expect("status");
        assert_eq!(view.state, "done", "job {id}: {:?}", view.error);
        assert_eq!(view.digest(), Some(want.digest), "job {id} digest diverged");
    }
    // The cell-shaped job's whole result survives the handoff: digest,
    // derived architecture and every epoch's recorded point.
    let cell = fleet.status(&ids[3]).expect("status").result.expect("done");
    assert_eq!(cell.choices, want[3].choices);
    assert_eq!(cell.trajectory, want[3].trajectory);
    assert_eq!(cell.trajectory.len(), 4);
    fleet.shutdown();
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn stalled_heartbeat_is_fenced_and_the_job_still_lands() {
    let dir = tmp_dir("stall");
    let spec = JobSpec::new(4, 16, 81, 0.1);
    let want = straight_digest(&spec, "stall_ref");

    // The first attempt heartbeats epoch 0, then stalls and holds its
    // lease. The clock passes the TTL only after that heartbeat renewed
    // it: the sweep reclaims, a clean attempt lands the job, and the
    // zombie, let go by the reclaim, runs on to a result that fencing
    // discards.
    let clock = ManualClock::new();
    let chaos = AttemptChaos {
        kill_after: None,
        stall_from: Some(1),
    };
    let fleet = Fleet::start(manual_opts(&dir, 2, chaos, &clock)).expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    let renewed = |c: &FleetCounts| c.workers.values().any(|w| w.last_beat_ms.is_some());
    assert!(fleet.wait_for(DEADLINE, renewed), "no renewal");
    clock.advance(TTL);
    assert!(fleet.wait_settled(DEADLINE), "fleet must settle");
    let view = fleet.status(&id).expect("status");
    // Shutdown joins the zombie, so its fenced result is counted by now.
    fleet.shutdown();
    let counts = fleet.counts();
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want), "recovered digest diverged");
    assert_eq!(view.attempt, 2, "one re-dispatch");
    assert_eq!(counts.reclaims, 1, "the stalled lease: {counts:?}");
    assert_eq!(counts.fenced, 1, "the zombie's result: {counts:?}");
    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_peer_with_live_heartbeats_keeps_its_lease() {
    let dir = tmp_dir("slow");
    let spec = JobSpec::new(6, 16, 91, 0.1);
    let want = straight_digest(&spec, "slow_ref");

    // Slow but honest: after each renewal the clock moves to 1 ms short of
    // the lease deadline, so every epoch takes TTL - 1 of fleet time, and
    // the heartbeats must hold the lease however far the clock goes.
    let clock = ManualClock::new();
    let fleet =
        Fleet::start(manual_opts(&dir, 1, AttemptChaos::default(), &clock)).expect("fleet starts");
    let (id, _) = fleet.submit(spec).expect("submit");
    let settled = |c: &FleetCounts| c.pending + c.leased == 0;
    let mut moved = 0;
    loop {
        let now = clock.now_ms();
        let woke = fleet.wait_for(DEADLINE, |c| {
            settled(c) || c.workers["fleet-w0"].last_beat_ms == Some(now)
        });
        assert!(woke, "no renewal at {now} ms: {:?}", fleet.counts());
        if settled(&fleet.counts()) {
            break;
        }
        clock.advance(TTL - 1);
        moved += TTL - 1;
    }

    let view = fleet.status(&id).expect("status");
    assert_eq!(view.state, "done", "job: {:?}", view.error);
    assert_eq!(view.digest(), Some(want));
    assert_eq!(view.attempt, 1, "slow peer kept its first attempt");
    assert!(moved >= 2 * TTL, "the clock moved only {moved} ms");
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
    let (id, digest) = {
        let (fleet, ids) = kill_every_first_attempt(&dir, &[spec]);
        let digest = fleet
            .status(&ids[0])
            .expect("status")
            .digest()
            .expect("done job has a digest");
        fleet.shutdown();
        (ids[0].clone(), digest)
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
