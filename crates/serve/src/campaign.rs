//! Campaign orchestration behind the `campaign/*` endpoint family.
//!
//! A submitted campaign runs on its own orchestrator thread, and its cells
//! as jobs of its own `dance-fleet` fleet under `<campaign_root>/camp-N/`
//! (`dance_campaign::run_campaign`, with as many workers as the requested
//! concurrency or the shared backend pool width). A new campaign gets the
//! first `camp-N` whose directory does not exist yet, so a restarted server
//! never reuses, and wipes, an earlier campaign's directory. Its event log
//! is kept in the table so any number of `campaign/stream` connections can
//! replay the NDJSON `frontier_update` sequence from any offset and then
//! follow live. `campaign/cancel` flips the campaign's [`CancelToken`]:
//! the campaign sees it at its fleet's next event (within one epoch) and
//! shuts its fleet down, so cells in flight finish, queued cells stay
//! pending in the ledger, and the campaign directory stays resumable
//! offline via `dance_campaign --resume`.
//!
//! # Lock discipline
//!
//! Single-lock rule, as everywhere in the serve tier: the table mutex is
//! taken as a statement temporary to clone `Arc`s out, never held across
//! spawn, join, log waits, or I/O. Campaign state is a `BTreeMap` keyed by
//! id (`determinism` lint: health folds iterate it).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use dance_campaign::prelude::{run_campaign, CampaignSpec, CancelToken, EventLog};
use dance_telemetry::json::{push_escaped, push_num};

use crate::proto::ProtoError;

/// Lifecycle of one campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignState {
    /// The orchestrator thread is running (or about to).
    Running,
    /// Finished; the rendered summary payload is replayed by status calls.
    Done(String),
    /// The orchestrator returned an error (bad spec, unwritable root, …).
    Failed(String),
}

/// One tracked campaign.
#[derive(Debug)]
struct CampaignHandle {
    log: Arc<EventLog>,
    cancel: Arc<CancelToken>,
    state: Arc<Mutex<CampaignState>>,
    thread: Option<JoinHandle<()>>,
}

/// Per-state campaign counts, for `health`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignCounts {
    /// Campaigns currently orchestrating.
    pub running: usize,
    /// Campaigns finished successfully (including cancelled ones).
    pub done: usize,
    /// Campaigns whose orchestrator reported an error.
    pub failed: usize,
}

/// The campaign table: id allocation, spawn, status, stream, cancel.
#[derive(Debug, Default)]
pub struct CampaignTable {
    items: Mutex<BTreeMap<String, CampaignHandle>>,
    next_id: AtomicU64,
    root: std::path::PathBuf,
}

impl CampaignTable {
    /// A table placing campaign directories under `root/<campaign-id>/`.
    pub fn new(root: std::path::PathBuf) -> Self {
        Self {
            items: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(0),
            root,
        }
    }

    // Handles are plain data; poisoning is survivable.
    fn items(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, CampaignHandle>> {
        self.items.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Accepts a campaign spec and spawns its orchestrator thread, under
    /// the first `camp-N` whose directory under the root does not exist.
    ///
    /// # Errors
    ///
    /// `400` for a spec that fails validation, `500` if the thread cannot
    /// be spawned.
    pub fn submit(&self, mut spec: CampaignSpec) -> Result<String, ProtoError> {
        spec.validate().map_err(ProtoError::bad_request)?;
        let id = loop {
            let id = format!("camp-{}", self.next_id.fetch_add(1, Ordering::Relaxed));
            if !self.root.join(&id).exists() {
                break id;
            }
        };
        spec.name = id.clone();
        spec.root = self.root.join(&id);
        let log = Arc::new(EventLog::new());
        let cancel = Arc::new(CancelToken::new());
        let state = Arc::new(Mutex::new(CampaignState::Running));
        let (t_log, t_cancel, t_state) =
            (Arc::clone(&log), Arc::clone(&cancel), Arc::clone(&state));
        let thread = dance_backend::spawn_service(&format!("campaign-{id}"), move || {
            dance_telemetry::counter!("serve.campaign.started");
            let result = run_campaign(&spec, false, &t_log, &t_cancel);
            let next = match result {
                Ok(out) => CampaignState::Done(summary_payload(&out)),
                Err(e) => {
                    dance_telemetry::counter!("serve.campaign.failed");
                    CampaignState::Failed(e)
                }
            };
            *t_state.lock().unwrap_or_else(PoisonError::into_inner) = next;
        })
        .map_err(|e| ProtoError::internal(format!("cannot spawn campaign thread: {e}")))?;
        self.items().insert(
            id.clone(),
            CampaignHandle {
                log,
                cancel,
                state,
                thread: Some(thread),
            },
        );
        Ok(id)
    }

    /// A campaign's state label plus, when finished, its summary payload.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn status(&self, id: &str) -> Result<String, ProtoError> {
        // Clone the state handle out of the table lock first: the single-
        // lock rule forbids nesting the state mutex under the table mutex.
        let state_handle = {
            let items = self.items();
            items
                .get(id)
                .map(|h| Arc::clone(&h.state))
                .ok_or_else(|| ProtoError::not_found(format!("unknown campaign {id:?}")))?
        };
        let state = state_handle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut p = String::with_capacity(96);
        p.push_str("\"state\":");
        match state {
            CampaignState::Running => push_escaped(&mut p, "running"),
            CampaignState::Done(summary) => {
                push_escaped(&mut p, "done");
                p.push(',');
                p.push_str(&summary);
            }
            CampaignState::Failed(e) => {
                push_escaped(&mut p, "failed");
                p.push_str(",\"err\":");
                push_escaped(&mut p, &e);
            }
        }
        Ok(p)
    }

    /// The campaign's event log, for streaming from an offset.
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn log(&self, id: &str) -> Result<Arc<EventLog>, ProtoError> {
        let items = self.items();
        items
            .get(id)
            .map(|h| Arc::clone(&h.log))
            .ok_or_else(|| ProtoError::not_found(format!("unknown campaign {id:?}")))
    }

    /// Requests cancellation (idempotent; finished campaigns unaffected).
    ///
    /// # Errors
    ///
    /// `404` for an unknown id.
    pub fn cancel(&self, id: &str) -> Result<(), ProtoError> {
        let cancel = {
            let items = self.items();
            items
                .get(id)
                .map(|h| Arc::clone(&h.cancel))
                .ok_or_else(|| ProtoError::not_found(format!("unknown campaign {id:?}")))?
        };
        dance_telemetry::counter!("serve.campaign.cancelled");
        cancel.cancel();
        Ok(())
    }

    /// Per-state counts for `health`.
    pub fn counts(&self) -> CampaignCounts {
        let snapshot: Vec<Arc<Mutex<CampaignState>>> = self
            .items()
            .values()
            .map(|h| Arc::clone(&h.state))
            .collect();
        let mut c = CampaignCounts::default();
        for state in snapshot {
            match &*state.lock().unwrap_or_else(PoisonError::into_inner) {
                CampaignState::Running => c.running += 1,
                CampaignState::Done(_) => c.done += 1,
                CampaignState::Failed(_) => c.failed += 1,
            }
        }
        c
    }

    /// Cancels every campaign and joins the orchestrator threads — part of
    /// the server drain sequence.
    pub fn shutdown(&self) {
        let mut joinable = Vec::new();
        {
            let mut items = self.items();
            for h in items.values_mut() {
                h.cancel.cancel();
                if let Some(t) = h.thread.take() {
                    joinable.push(t);
                }
            }
        }
        for t in joinable {
            let _joined = t.join();
        }
    }
}

/// Renders the finished-campaign summary payload fragment.
fn summary_payload(out: &dance_campaign::prelude::CampaignOutcome) -> String {
    let c = out.frontier.counters();
    let mut p = String::with_capacity(160);
    p.push_str("\"digest\":");
    push_escaped(&mut p, &format!("{:016x}", out.digest()));
    p.push_str(",\"front_size\":");
    push_num(&mut p, out.frontier.front_len() as f64);
    p.push_str(",\"archive_size\":");
    push_num(&mut p, out.frontier.archive_len() as f64);
    p.push_str(",\"cells_done\":");
    push_num(&mut p, out.cells_done as f64);
    p.push_str(",\"cells_failed\":");
    push_num(&mut p, out.cells_failed as f64);
    p.push_str(",\"dedup_hit_rate\":");
    push_num(&mut p, c.dedup_hit_rate());
    p.push_str(",\"cancelled\":");
    p.push_str(if out.cancelled { "true" } else { "false" });
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_campaign::prelude::{Envelope, Waited};
    use dance_telemetry::json::{self, Json};
    use std::time::Duration;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "t".into(),
            lambda2: vec![0.1],
            dataset_seeds: vec![0],
            envelopes: vec![Envelope::edge()],
            epochs: 1,
            batch_size: 16,
            seed: 0,
            root: std::path::PathBuf::new(), // overwritten by submit
            max_concurrency: 1,
        }
    }

    #[test]
    fn submit_status_cancel_lifecycle() {
        let root =
            std::env::temp_dir().join(format!("dance_serve_camp_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let table = CampaignTable::new(root.clone());
        let id = table.submit(tiny_spec()).expect("submit accepted");
        assert!(id.starts_with("camp-"));
        assert!(table.status("nope").is_err());
        assert!(table.cancel("nope").is_err());
        // Follow the log to completion.
        let log = table.log(&id).expect("log exists");
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        while !log.is_done() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(log.is_done(), "campaign did not finish in time");
        table.shutdown();
        let status = table.status(&id).expect("status");
        assert!(status.contains("\"state\":\"done\""), "{status}");
        assert!(status.contains("\"digest\":"), "{status}");
        assert_eq!(table.counts().done, 1);
        let _cleanup = std::fs::remove_dir_all(&root);
    }

    /// Blocks until campaign `id` of `table` finishes, and returns its
    /// frontier digest.
    fn finished_digest(table: &CampaignTable, id: &str) -> String {
        let log = table.log(id).expect("log exists");
        let mut seq = 0;
        loop {
            match log.wait_next(seq, Duration::from_secs(120)) {
                Waited::Line(_) => seq += 1,
                Waited::Done => break,
                Waited::TimedOut => panic!("campaign {id} did not finish in time"),
            }
        }
        table.shutdown();
        let status = table.status(id).expect("status");
        let doc = json::parse(&format!("{{{status}}}")).expect("status parses");
        assert_eq!(doc.get("state").and_then(Json::as_str), Some("done"));
        let digest = doc.get("digest").and_then(Json::as_str);
        digest
            .expect("a finished campaign has a digest")
            .to_string()
    }

    #[test]
    fn a_restarted_table_never_reuses_a_campaign_directory() {
        let root =
            std::env::temp_dir().join(format!("dance_serve_camp_restart_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let first = CampaignTable::new(root.clone());
        let id = first.submit(tiny_spec()).expect("first submit");
        let digest = finished_digest(&first, &id);
        drop(first);

        // A server restarted over the same root starts counting at 0 again;
        // its first campaign must not take over, and wipe, the earlier one.
        let second = CampaignTable::new(root.clone());
        let mut other = tiny_spec();
        other.lambda2 = vec![0.4];
        let other_id = second.submit(other).expect("second submit");
        assert_ne!(other_id, id, "a restarted table reused {id}");
        let _other_digest = finished_digest(&second, &other_id);

        // The first campaign's directory still resumes to its digest.
        let mut spec = tiny_spec();
        spec.root = root.join(&id);
        let log = Arc::new(EventLog::new());
        let cancel = Arc::new(CancelToken::new());
        let resumed = run_campaign(&spec, true, &log, &cancel).expect("resume");
        assert_eq!(format!("{:016x}", resumed.digest()), digest);
        let _cleanup = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let table = CampaignTable::new(std::env::temp_dir().join("dance_serve_camp_rej"));
        let mut spec = tiny_spec();
        spec.lambda2.clear();
        let err = table.submit(spec).expect_err("must reject");
        assert_eq!(err.code, 400);
        // A batch of 1 would fail every cell's search; it fails the submit.
        let mut spec = tiny_spec();
        spec.batch_size = 1;
        let err = table.submit(spec).expect_err("batch 1 must be rejected");
        assert_eq!(err.code, 400);
        assert!(err.msg.contains("batch_size"), "{}", err.msg);
        assert_eq!(table.counts(), CampaignCounts::default());
    }
}
