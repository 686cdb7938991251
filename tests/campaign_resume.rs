//! Campaign resume contract: a campaign cancelled mid-flight and resumed
//! with `--resume` must reproduce the uninterrupted run's frontier digest
//! bit for bit, and that digest is pinned.
//!
//! A cancel shuts the campaign's fleet down: the cell in flight finishes
//! and the queued ones stay pending in the ledger, so the resume refolds
//! finished cells from the ledger and runs the rest. Resuming a cell from
//! the middle of its search is drilled by the SIGKILL campaign drill in
//! `scripts/check.sh` and by the fleet's kill drills.

use std::sync::Arc;
use std::time::Duration;

use dance_campaign::prelude::*;

/// Three cells on one worker, so a cancel at the first frontier update,
/// which arrives when the first cell finishes, leaves a cell unfinished.
fn spec(root: std::path::PathBuf) -> CampaignSpec {
    CampaignSpec {
        name: "resume".into(),
        lambda2: vec![0.1, 0.3, 0.5],
        dataset_seeds: vec![0],
        envelopes: vec![Envelope::edge()],
        epochs: 3,
        batch_size: 16,
        seed: 7,
        root,
        max_concurrency: 1,
    }
}

const PINNED: &str = "fe702fa95faa0346";

#[test]
fn cancelled_campaign_resumes_to_the_straight_run_digest() {
    let root_a = std::env::temp_dir().join(format!("dance_camp_straight_{}", std::process::id()));
    let root_b = std::env::temp_dir().join(format!("dance_camp_killed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);

    // Uninterrupted reference run.
    let log = Arc::new(EventLog::new());
    let cancel = Arc::new(CancelToken::new());
    let straight = run_campaign(&spec(root_a.clone()), false, &log, &cancel).expect("straight run");
    assert_eq!(straight.cells_failed, 0);
    let want = straight.digest();
    assert_eq!(format!("{want:016x}"), PINNED);

    // Same campaign, cancelled as soon as the frontier first changes: the
    // cell in flight finishes and the last one never starts.
    let log = Arc::new(EventLog::new());
    let cancel = Arc::new(CancelToken::new());
    let partial = std::thread::scope(|s| {
        s.spawn(|| {
            while log.wait_next(1, Duration::from_millis(100)) == Waited::TimedOut {}
            cancel.cancel();
        });
        run_campaign(&spec(root_b.clone()), false, &log, &cancel).expect("partial run")
    });
    assert!(partial.cancelled);
    assert!(
        partial.cells_done < 3,
        "cancellation should leave unfinished cells, finished {}",
        partial.cells_done
    );

    // Resume reproduces the reference frontier bit for bit.
    let log = Arc::new(EventLog::new());
    let cancel = Arc::new(CancelToken::new());
    let resumed = run_campaign(&spec(root_b.clone()), true, &log, &cancel).expect("resumed run");
    assert_eq!(resumed.cells_done, 3);
    assert_eq!(
        format!("{:016x}", resumed.digest()),
        PINNED,
        "resumed frontier digest must equal the straight run's"
    );
    assert_eq!(resumed.frontier.front_len(), straight.frontier.front_len());
    assert_eq!(
        resumed.frontier.archive_len(),
        straight.frontier.archive_len()
    );

    // Resuming an already-complete campaign is a no-op with the same digest.
    let log = Arc::new(EventLog::new());
    let cancel = Arc::new(CancelToken::new());
    let again = run_campaign(&spec(root_b.clone()), true, &log, &cancel).expect("idempotent");
    assert_eq!(again.digest(), want);
    assert!(log.is_done());

    let _cleanup = std::fs::remove_dir_all(&root_a);
    let _cleanup = std::fs::remove_dir_all(&root_b);
}
