//! Per-thread shards: records from many threads, live or exited, merge into
//! exact totals; exited threads' shards are adopted by later threads; reset
//! clears live and recycled shards alike. One test per file — telemetry
//! state is process-global, so this binary owns its process.

use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};

use dance_telemetry::{metrics, shard, span};

/// Threads per wave; the first half exit after recording, the rest park.
const K: usize = 8;
/// Records of each kind per thread.
const M: u64 = 500;
const OWN_SPANS: [&str; K] = [
    "test.shard.own.0",
    "test.shard.own.1",
    "test.shard.own.2",
    "test.shard.own.3",
    "test.shard.own.4",
    "test.shard.own.5",
    "test.shard.own.6",
    "test.shard.own.7",
];

fn record(t: usize, m: u64) {
    let own_counter = format!("test.shard.counter.{t}");
    for i in 0..m {
        {
            let _shared = dance_telemetry::hot_span!("test.shard.span");
            let _own = dance_telemetry::hot_span!(OWN_SPANS[t]);
        }
        span::record_duration_prefixed("test.shard.op.", "matmul", i + 1);
        dance_telemetry::counter!("test.shard.counter");
        dance_telemetry::counter!(&own_counter);
        dance_telemetry::histogram!("test.shard.hist", i as f64);
    }
}

/// K threads released together by a barrier, each recording `m` of every
/// kind. All K have recorded (so all hold a shard at once) when `start`
/// returns; the first half then exit, the second half park until
/// [`Wave::finish`] and record `after_release` more before exiting.
struct Wave {
    exiting: Vec<JoinHandle<()>>,
    parked: Vec<JoinHandle<()>>,
    release: Arc<Barrier>,
}

impl Wave {
    fn start(m: u64, after_release: u64) -> Wave {
        let go = Arc::new(Barrier::new(K));
        let recorded = Arc::new(Barrier::new(K + 1));
        let release = Arc::new(Barrier::new(K / 2 + 1));
        let (mut exiting, mut parked) = (Vec::new(), Vec::new());
        for t in 0..K {
            let (go, recorded, release) = (go.clone(), recorded.clone(), release.clone());
            let handle = thread::spawn(move || {
                go.wait();
                record(t, m);
                recorded.wait();
                if t >= K / 2 {
                    release.wait();
                    record(t, after_release);
                }
            });
            if t < K / 2 {
                exiting.push(handle);
            } else {
                parked.push(handle);
            }
        }
        recorded.wait();
        Wave {
            exiting,
            parked,
            release,
        }
    }

    fn join_exiting(&mut self) {
        for h in self.exiting.drain(..) {
            h.join().expect("exiting worker panicked");
        }
    }

    fn finish(self) {
        self.release.wait();
        for h in self.parked {
            h.join().expect("parked worker panicked");
        }
    }
}

fn span_count(report: &[span::SpanAgg], name: &str) -> Option<u64> {
    let rows: Vec<_> = report.iter().filter(|a| a.name == name).collect();
    assert!(rows.len() <= 1, "span {name} reported {} times", rows.len());
    rows.first().map(|a| a.stats.count)
}

fn assert_totals(per_thread: u64) {
    let total = K as u64 * per_thread;
    let report = span::span_report();
    assert_eq!(
        span_count(&report, "test.shard.span"),
        Some(total),
        "shared span"
    );
    assert_eq!(
        span_count(&report, "test.shard.op.matmul"),
        Some(total),
        "prefixed span"
    );
    for name in OWN_SPANS {
        assert_eq!(span_count(&report, name), Some(per_thread), "span {name}");
    }
    let snap = metrics::snapshot();
    assert_eq!(
        snap.counters.get("test.shard.counter"),
        Some(&total),
        "shared counter"
    );
    for t in 0..K {
        let name = format!("test.shard.counter.{t}");
        assert_eq!(
            snap.counters.get(&name),
            Some(&per_thread),
            "counter {name}"
        );
    }
    let hist = &snap.histograms["test.shard.hist"];
    assert_eq!(hist.count, total);
    assert_eq!(hist.counts().iter().sum::<u64>(), total);
}

fn assert_no_test_records() {
    let leftover: Vec<String> = span::span_report()
        .into_iter()
        .map(|a| a.name)
        .filter(|n| n.starts_with("test.shard."))
        .collect();
    assert!(leftover.is_empty(), "spans survived reset: {leftover:?}");
    let snap = metrics::snapshot();
    let leftover: Vec<&String> = snap
        .counters
        .keys()
        .chain(snap.histograms.keys())
        .filter(|n| n.starts_with("test.shard."))
        .collect();
    assert!(leftover.is_empty(), "metrics survived reset: {leftover:?}");
}

#[test]
fn shards_merge_recycle_and_reset_exactly() {
    // Edition 2021: set_var is safe; set before the first telemetry call.
    std::env::set_var("DANCE_TELEMETRY", "on");
    assert!(dance_telemetry::enabled(), "env override failed");
    let base = shard::count();

    // Wave 1: half the threads have exited when the report is taken.
    let mut wave = Wave::start(M, 0);
    wave.join_exiting();
    assert_totals(M);
    let after_first = shard::count();
    assert_eq!(
        after_first,
        base + K,
        "one shard per concurrently live thread"
    );
    wave.finish();
    assert_totals(M);

    // Wave 2 starts after every wave-1 thread exited: it adopts their
    // shards instead of creating new ones, and adds to their records.
    let mut wave = Wave::start(M, 1);
    assert_eq!(shard::count(), after_first, "exited shards were not reused");
    assert_totals(2 * M);

    // Reset with half the shards recycled and half live: both are zeroed,
    // and the live threads' next records start from nothing.
    wave.join_exiting();
    span::reset();
    metrics::reset();
    assert_no_test_records();
    wave.finish();
    let report = span::span_report();
    let live = (K / 2) as u64;
    assert_eq!(span_count(&report, "test.shard.span"), Some(live));
    assert_eq!(span_count(&report, "test.shard.op.matmul"), Some(live));
    let snap = metrics::snapshot();
    assert_eq!(snap.counters.get("test.shard.counter"), Some(&live));
    assert_eq!(snap.histograms["test.shard.hist"].count, live);
    assert_eq!(shard::count(), after_first);
}
