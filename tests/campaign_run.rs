//! End-to-end campaign smoke: a mini-grid of real guarded searches must
//! fold into a dominance-consistent frontier, deduplicate repeated
//! arch-digests, stream a coherent event log, and land on the pinned
//! frontier digest.

use std::sync::Arc;

use dance_campaign::prelude::*;
use dance_fleet::prelude::{JobStatus, LedgerStore};
use dance_telemetry::json::{self, Json};

fn scratch(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dance_{tag}_{}", std::process::id()))
}

#[test]
fn mini_campaign_produces_a_consistent_streamed_frontier() {
    let root = scratch("campaign_run");
    let _ = std::fs::remove_dir_all(&root);
    // Two cells share coordinates (λ₂ appears twice): their seeds — and
    // therefore their whole trajectories — are identical, so the second
    // cell's every design point must fold as a pure dedup hit.
    let spec = CampaignSpec {
        name: "mini".into(),
        lambda2: vec![0.1, 0.1, 0.4],
        dataset_seeds: vec![0],
        envelopes: vec![Envelope::edge()],
        epochs: 2,
        batch_size: 16,
        seed: 0,
        root: root.clone(),
        max_concurrency: 2,
    };
    let log = Arc::new(EventLog::new());
    let cancel = Arc::new(CancelToken::new());
    let out = run_campaign(&spec, false, &log, &cancel).expect("campaign runs");

    assert_eq!(out.cells_done, 3);
    assert_eq!(out.cells_failed, 0);
    assert!(!out.cancelled);
    // A change that moves every run alike (a cell built differently from
    // the search it used to run, say) only shows against a pin.
    assert_eq!(format!("{:016x}", out.digest()), "5797c154b376cf99");

    // Duplicate coordinates fold by key: at least one whole cell's worth
    // of points were duplicates of another cell's.
    let counters = out.frontier.counters();
    assert!(
        counters.dedup_hits >= spec.epochs as u64,
        "expected >= {} dedup hits, saw {counters:?}",
        spec.epochs
    );
    assert!(counters.offered >= (spec.epochs * spec.len()) as u64);

    // Dominance consistency: no front member strictly dominates another.
    let front = out.frontier.front();
    assert!(!front.is_empty());
    for a in &front {
        for b in &front {
            if a.key != b.key {
                assert!(
                    !a.point.dominates(&b.point),
                    "front member {:?} dominates {:?}",
                    a.point,
                    b.point
                );
            }
        }
    }

    // The stream: finished, at least one frontier_update, and the final
    // campaign_end agrees with the returned outcome.
    assert!(log.is_done());
    let mut updates = 0usize;
    let mut end_digest = None;
    for seq in 0..log.len() {
        let line = log.get(seq).expect("log line exists");
        let v = json::parse(&line).expect("every event line is valid JSON");
        match v.get("event").and_then(Json::as_str) {
            Some("frontier_update") => {
                updates += 1;
                assert_eq!(v.get("seq").and_then(Json::as_f64), Some(seq as f64));
            }
            Some("campaign_end") => {
                end_digest = v.get("digest").and_then(Json::as_str).map(str::to_string);
            }
            _ => {}
        }
    }
    assert!(updates >= 1, "no frontier_update events streamed");
    assert_eq!(
        end_digest.as_deref(),
        Some(format!("{:016x}", out.digest()).as_str()),
        "campaign_end digest must match the outcome"
    );

    // The fleet ledger is the durable record: the two duplicate cells are
    // one job, and every job finished with one point per epoch.
    let (_, ledger, torn) = LedgerStore::open(&root.join("ledger")).expect("ledger readable");
    assert_eq!(torn, 0);
    assert_eq!(ledger.jobs.len(), 2, "{:?}", ledger.jobs.keys());
    for (id, rec) in &ledger.jobs {
        match &rec.status {
            JobStatus::Done(result) => assert_eq!(result.trajectory.len(), spec.epochs, "{id}"),
            other => panic!("job {id} is {other:?}"),
        }
    }

    let _cleanup = std::fs::remove_dir_all(&root);
}
