//! The campaign event log: an append-only sequence of rendered NDJSON
//! lines that any number of subscribers replay from any sequence number
//! and then follow live.
//!
//! The orchestrator is the only writer; subscribers (the `campaign/stream`
//! endpoint, the CLI `--stream` printer) poll [`EventLog::wait_next`] with
//! a timeout so drain/disconnect flags are observed promptly — the same
//! 100 ms-poll discipline the serve tier uses everywhere. Lock use follows
//! the workspace single-lock rule: one mutex, taken as a statement
//! temporary or released by the `Condvar` wait, never held across I/O.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dance::prelude::{FrontierEntry, InsertOutcome};
use dance_telemetry::json::{push_escaped, push_num};

#[derive(Debug, Default)]
struct LogState {
    lines: Vec<String>,
    done: bool,
}

/// One observation from [`EventLog::wait_next`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Waited {
    /// The line at the requested sequence number.
    Line(String),
    /// No such line will ever exist: the log is finished.
    Done,
    /// Nothing new within the timeout; poll again.
    TimedOut,
}

/// An append-only, replayable log of rendered event lines.
#[derive(Debug, Default)]
pub struct EventLog {
    state: Mutex<LogState>,
    grown: Condvar,
}

impl EventLog {
    /// An empty, open log.
    pub fn new() -> Self {
        Self::default()
    }

    // Event lines are plain data; a panicking writer cannot leave the
    // vector structurally broken, so poisoning is survivable.
    fn lock(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one line and wakes every waiter. Returns its sequence
    /// number. Ignored after [`EventLog::finish`].
    pub fn push(&self, line: String) -> usize {
        let seq = {
            let mut s = self.lock();
            if s.done {
                return s.lines.len();
            }
            s.lines.push(line);
            s.lines.len() - 1
        };
        self.grown.notify_all();
        seq
    }

    /// Marks the log complete: subscribers that caught up see [`Waited::Done`].
    pub fn finish(&self) {
        self.lock().done = true;
        self.grown.notify_all();
    }

    /// Number of lines appended so far.
    pub fn len(&self) -> usize {
        self.lock().lines.len()
    }

    /// Whether no lines have been appended yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the log is finished.
    pub fn is_done(&self) -> bool {
        self.lock().done
    }

    /// The line at `seq`, if it exists already.
    pub fn get(&self, seq: usize) -> Option<String> {
        self.lock().lines.get(seq).cloned()
    }

    /// Blocks up to `timeout` for the line at `seq`.
    pub fn wait_next(&self, seq: usize, timeout: Duration) -> Waited {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if let Some(line) = s.lines.get(seq) {
                return Waited::Line(line.clone());
            }
            if s.done {
                return Waited::Done;
            }
            let now = Instant::now();
            if now >= deadline {
                return Waited::TimedOut;
            }
            let (guard, _timed_out) = self
                .grown
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            s = guard;
        }
    }
}

/// Renders one `frontier_update` NDJSON line (no trailing newline).
///
/// `seq` is assigned by the caller (the orchestrator) so the rendered line
/// and its position in the log always agree.
pub fn render_frontier_update(
    seq: usize,
    entry: &FrontierEntry,
    outcome: &InsertOutcome,
    front_len: usize,
    digest: u64,
) -> String {
    let mut out = String::with_capacity(192);
    out.push_str("{\"v\":1,\"event\":\"frontier_update\",\"seq\":");
    push_num(&mut out, seq as f64);
    out.push_str(",\"origin\":");
    push_escaped(&mut out, &entry.origin);
    out.push_str(",\"epoch\":");
    push_num(&mut out, entry.epoch as f64);
    out.push_str(",\"key\":");
    push_escaped(&mut out, &format!("{:016x}", entry.key));
    out.push_str(",\"error\":");
    push_num(&mut out, entry.point.error);
    out.push_str(",\"cost\":");
    push_num(&mut out, entry.point.cost);
    out.push_str(",\"evicted\":[");
    if let InsertOutcome::Inserted { evicted } = outcome {
        for (i, k) in evicted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_escaped(&mut out, &format!("{k:016x}"));
        }
    }
    out.push_str("],\"front_size\":");
    push_num(&mut out, front_len as f64);
    out.push_str(",\"digest\":");
    push_escaped(&mut out, &format!("{digest:016x}"));
    out.push('}');
    out
}

/// Renders the terminal `campaign_end` NDJSON line.
pub fn render_campaign_end(
    seq: usize,
    cells_done: usize,
    cells_failed: usize,
    front_len: usize,
    digest: u64,
) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"v\":1,\"event\":\"campaign_end\",\"seq\":");
    push_num(&mut out, seq as f64);
    out.push_str(",\"cells_done\":");
    push_num(&mut out, cells_done as f64);
    out.push_str(",\"cells_failed\":");
    push_num(&mut out, cells_failed as f64);
    out.push_str(",\"front_size\":");
    push_num(&mut out, front_len as f64);
    out.push_str(",\"digest\":");
    push_escaped(&mut out, &format!("{digest:016x}"));
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance::prelude::ParetoPoint;
    use dance_telemetry::json::{self, Json};

    #[test]
    fn push_replay_and_follow() {
        let log = EventLog::new();
        assert_eq!(log.push("a".into()), 0);
        assert_eq!(log.push("b".into()), 1);
        assert_eq!(log.get(0).as_deref(), Some("a"));
        assert_eq!(
            log.wait_next(1, Duration::from_millis(1)),
            Waited::Line("b".into())
        );
        assert_eq!(log.wait_next(2, Duration::from_millis(1)), Waited::TimedOut);
        log.finish();
        assert_eq!(log.wait_next(2, Duration::from_millis(1)), Waited::Done);
        // Pushes after finish are ignored.
        log.push("c".into());
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn waiters_wake_on_push_across_threads() {
        let log = std::sync::Arc::new(EventLog::new());
        let log2 = log.clone();
        let waiter = std::thread::spawn(move || {
            assert_eq!(
                log2.wait_next(0, Duration::from_secs(10)),
                Waited::Line("x".into())
            );
        });
        std::thread::sleep(Duration::from_millis(20));
        log.push("x".into());
        waiter.join().expect("waiter saw the line");
    }

    #[test]
    fn rendered_events_are_valid_json() {
        let e = FrontierEntry {
            key: 0xabcd,
            point: ParetoPoint::new(12.5, 3.75),
            origin: "cell-0002".into(),
            epoch: 1,
        };
        let line = render_frontier_update(
            4,
            &e,
            &InsertOutcome::Inserted {
                evicted: vec![1, 2],
            },
            3,
            0xdead_beef,
        );
        let v = json::parse(&line).expect("frontier_update parses");
        assert_eq!(
            v.get("event").and_then(Json::as_str),
            Some("frontier_update")
        );
        assert_eq!(v.get("seq").and_then(Json::as_f64), Some(4.0));
        assert_eq!(v.get("error").and_then(Json::as_f64), Some(12.5));
        assert_eq!(
            v.get("evicted").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        let end = render_campaign_end(9, 12, 0, 3, 0x1);
        let v = json::parse(&end).expect("campaign_end parses");
        assert_eq!(v.get("event").and_then(Json::as_str), Some("campaign_end"));
        assert_eq!(
            v.get("digest").and_then(Json::as_str),
            Some("0000000000000001")
        );
    }
}
