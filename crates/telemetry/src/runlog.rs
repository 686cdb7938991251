//! The run-log sink: one JSONL artifact per run.
//!
//! A [`RunGuard`] opens `results/runs/<run-id>.jsonl` (override the
//! directory with `DANCE_RUN_DIR`), resets the global aggregates so the file
//! is self-contained, and streams events while alive:
//!
//! | event      | when                                   | payload |
//! |------------|----------------------------------------|---------|
//! | `meta`     | first line of the file                 | run id, kind, schema version, unix start time |
//! | `span`     | a streamed [`crate::span!`] closes     | name, duration ms, nesting depth, thread, time offset |
//! | `gauge`    | [`crate::gauge!`] fires                | name, value, time offset |
//! | `guard`    | a `dance-guard` recovery action fires  | event name, detail, time offset |
//! | `span_agg` | run end, one per span name             | count, total/mean/p50/p95/min/max ms |
//! | `counter`  | run end, one per counter               | name, final value |
//! | `hist`     | run end, one per histogram             | count, mean/min/max/p50/p95, non-empty buckets |
//! | `run_end`  | last line of the file                  | total wall ms, event count |
//!
//! Hot spans ([`crate::hot_span!`]) and counters never stream per event —
//! their aggregate lines at run end carry the same information at a
//! fraction of the volume. Only one run can be active per process; nested
//! [`RunGuard::start`] calls return `None` and the inner scope's events
//! flow into the outer run's file, which is exactly what a pipeline calling
//! into the search loop wants.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::{push_escaped, push_num};
use crate::{metrics, span};

/// Schema version stamped into every `meta` event.
pub const SCHEMA_VERSION: u64 = 1;

struct Sink {
    writer: BufWriter<fs::File>,
    path: PathBuf,
    start: Instant,
    seq: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn lock_sink() -> MutexGuard<'static, Option<Sink>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The directory run logs are written to: `DANCE_RUN_DIR` when set,
/// otherwise `results/runs` under the current directory.
pub fn run_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("DANCE_RUN_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    PathBuf::from("results/runs")
}

/// Path of the currently active run log, if a run is open.
pub fn active_run_path() -> Option<PathBuf> {
    lock_sink().as_ref().map(|s| s.path.clone())
}

fn write_line(sink: &mut Sink, line: &str) {
    // Run logging is best effort: a full disk must not abort a search.
    // Callers hold the SINK guard by design — it *is* the serialization
    // point for the single shared artifact, and these writes land in a
    // BufWriter (the flush is a small append, not bulk I/O).
    // analyze:allow(lock-across-dispatch) SINK guard is the sink's write serializer
    if sink.writer.write_all(line.as_bytes()).is_err() {
        return;
    }
    // analyze:allow(lock-across-dispatch) serialized sink write, see above
    let _ignored_result = sink.writer.write_all(b"\n");
    // analyze:allow(lock-across-dispatch) serialized sink write, see above
    let _ignored_result = sink.writer.flush();
}

/// Streams a `span` event (called from [`crate::span::SpanGuard`] on drop).
pub(crate) fn emit_span(name: &str, ns: u64, depth: u32) {
    let mut guard = lock_sink();
    let Some(sink) = guard.as_mut() else { return };
    sink.seq += 1;
    let mut line = String::with_capacity(128);
    line.push_str("{\"t\":\"span\",\"name\":");
    push_escaped(&mut line, name);
    line.push_str(",\"ms\":");
    push_num(&mut line, ns as f64 / 1e6);
    line.push_str(",\"depth\":");
    push_num(&mut line, f64::from(depth));
    line.push_str(",\"thread\":");
    push_escaped(&mut line, std::thread::current().name().unwrap_or("?"));
    line.push_str(",\"at_ms\":");
    push_num(&mut line, sink.start.elapsed().as_secs_f64() * 1e3);
    line.push_str(",\"seq\":");
    push_num(&mut line, sink.seq as f64);
    line.push('}');
    write_line(sink, &line);
}

/// Streams a `guard` event: a fault-tolerance action (watchdog trip,
/// rollback, checkpoint skip, cost-model degradation) with a free-form
/// detail string. No-op when no run log is active; `summarize` readers that
/// predate the event kind skip it (unknown `t` values are tolerated by
/// contract).
pub fn emit_guard(event: &str, detail: &str) {
    let mut guard = lock_sink();
    let Some(sink) = guard.as_mut() else { return };
    sink.seq += 1;
    let mut line = String::with_capacity(96);
    line.push_str("{\"t\":\"guard\",\"event\":");
    push_escaped(&mut line, event);
    line.push_str(",\"detail\":");
    push_escaped(&mut line, detail);
    line.push_str(",\"at_ms\":");
    push_num(&mut line, sink.start.elapsed().as_secs_f64() * 1e3);
    line.push_str(",\"seq\":");
    push_num(&mut line, sink.seq as f64);
    line.push('}');
    write_line(sink, &line);
}

/// Streams a `gauge` event (called from [`crate::metrics::set_gauge`]).
pub(crate) fn emit_gauge(name: &str, value: f64) {
    let mut guard = lock_sink();
    let Some(sink) = guard.as_mut() else { return };
    sink.seq += 1;
    let mut line = String::with_capacity(96);
    line.push_str("{\"t\":\"gauge\",\"name\":");
    push_escaped(&mut line, name);
    line.push_str(",\"value\":");
    push_num(&mut line, value);
    line.push_str(",\"at_ms\":");
    push_num(&mut line, sink.start.elapsed().as_secs_f64() * 1e3);
    line.push_str(",\"seq\":");
    push_num(&mut line, sink.seq as f64);
    line.push('}');
    write_line(sink, &line);
}

fn span_agg_line(name: &str, stats: &span::SpanStats) -> String {
    let mut line = String::with_capacity(160);
    line.push_str("{\"t\":\"span_agg\",\"name\":");
    push_escaped(&mut line, name);
    line.push_str(",\"count\":");
    push_num(&mut line, stats.count as f64);
    for (key, ns) in [
        ("total_ms", stats.total_ns),
        ("mean_ms", stats.mean_ns()),
        ("p50_ms", stats.quantile_ns(0.5)),
        ("p95_ms", stats.quantile_ns(0.95)),
        ("min_ms", if stats.count == 0 { 0 } else { stats.min_ns }),
        ("max_ms", stats.max_ns),
    ] {
        line.push_str(",\"");
        line.push_str(key);
        line.push_str("\":");
        push_num(&mut line, ns as f64 / 1e6);
    }
    line.push('}');
    line
}

fn hist_line(name: &str, h: &metrics::Histogram) -> String {
    let mut line = String::with_capacity(192);
    line.push_str("{\"t\":\"hist\",\"name\":");
    push_escaped(&mut line, name);
    line.push_str(",\"count\":");
    push_num(&mut line, h.count as f64);
    for (key, v) in [
        ("mean", h.mean()),
        ("min", if h.count == 0 { 0.0 } else { h.min }),
        ("max", if h.count == 0 { 0.0 } else { h.max }),
        ("p50", h.quantile(0.5)),
        ("p95", h.quantile(0.95)),
    ] {
        line.push_str(",\"");
        line.push_str(key);
        line.push_str("\":");
        push_num(&mut line, v);
    }
    // Non-empty buckets as [upper_bound, count] pairs; the overflow bucket
    // has no upper bound and is written as null.
    line.push_str(",\"buckets\":[");
    let mut first = true;
    for (idx, &c) in h.counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            line.push(',');
        }
        first = false;
        line.push('[');
        match h.bounds().get(idx) {
            Some(&b) => push_num(&mut line, b),
            None => line.push_str("null"),
        }
        line.push(',');
        push_num(&mut line, c as f64);
        line.push(']');
    }
    line.push_str("]}");
    line
}

/// Renders the human-readable summary table of the current aggregates.
///
/// Shared by the run-end banner and the `summarize` CLI so both views of a
/// run agree.
pub fn summary_table(spans: &[span::SpanAgg], metrics_snap: &metrics::MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<38} {:>9} {:>12} {:>10} {:>10} {:>10}\n",
        "span", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms"
    ));
    for agg in spans {
        let s = &agg.stats;
        out.push_str(&format!(
            "{:<38} {:>9} {:>12.3} {:>10.4} {:>10.4} {:>10.4}\n",
            agg.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.mean_ns() as f64 / 1e6,
            s.quantile_ns(0.5) as f64 / 1e6,
            s.quantile_ns(0.95) as f64 / 1e6,
        ));
    }
    if !metrics_snap.counters.is_empty() {
        out.push_str("\ncounters:\n");
        for (name, value) in &metrics_snap.counters {
            out.push_str(&format!("  {name:<40} {value}\n"));
        }
    }
    if !metrics_snap.gauges.is_empty() {
        out.push_str("\ngauges (last value):\n");
        for (name, value) in &metrics_snap.gauges {
            out.push_str(&format!("  {name:<40} {value:.6}\n"));
        }
    }
    if !metrics_snap.histograms.is_empty() {
        out.push_str("\nhistograms:\n");
        for (name, h) in &metrics_snap.histograms {
            out.push_str(&format!(
                "  {name:<40} n={} mean={:.4} p50={:.4} p95={:.4}\n",
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
            ));
        }
    }
    out
}

/// Serializes the current aggregates as one standalone JSON document — the
/// payload of the `BENCH_<name>.json` artifacts the bench binaries emit.
pub fn snapshot_json(label: &str, total_wall_s: f64) -> String {
    let spans = span::span_report();
    let snap = metrics::snapshot();
    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"bench\": ");
    push_escaped(&mut out, label);
    out.push_str(",\n  \"schema\": ");
    push_num(&mut out, SCHEMA_VERSION as f64);
    out.push_str(",\n  \"total_wall_s\": ");
    push_num(&mut out, total_wall_s);
    out.push_str(",\n  \"spans\": [");
    for (i, agg) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        out.push_str(&span_agg_line(&agg.name, &agg.stats));
    }
    out.push_str("\n  ],\n  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_escaped(&mut out, name);
        out.push_str(": ");
        push_num(&mut out, *value as f64);
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_escaped(&mut out, name);
        out.push_str(": ");
        push_num(&mut out, *value);
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Claims a collision-free run id by creating its artifact with
/// `create_new`: the timestamp/pid/counter id scheme alone is not unique
/// when several sinks share one run dir — a server plus the search jobs it
/// embeds, concurrent bench processes after pid reuse — so the filesystem
/// is the arbiter. `AlreadyExists` bumps the process-wide counter and
/// retries; any other error aborts (telemetry stays best-effort).
fn create_unique_run_file(
    dir: &Path,
    kind: &str,
    unix_ms: u128,
) -> std::io::Result<(String, PathBuf, fs::File)> {
    loop {
        let id = format!(
            "{kind}-{}-{}-{}",
            unix_ms / 1000,
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed),
        );
        let path = dir.join(format!("{id}.jsonl"));
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => return Ok((id, path, file)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

/// An open run log. Dropping the guard dumps every aggregate into the file,
/// appends the `run_end` event and prints the summary table to stderr.
#[must_use = "bind the run guard to a named variable; dropping it immediately closes the run"]
#[derive(Debug)]
pub struct RunGuard {
    id: String,
    path: PathBuf,
}

impl RunGuard {
    /// Starts a run log of the given kind, unless telemetry is disabled or
    /// another run is already active (both return `None`; events then flow
    /// into the active run, if any). Resets all span/metric aggregates on an
    /// actual start so the artifact is self-contained. I/O failures are
    /// reported to stderr and degrade to `None` — telemetry never takes the
    /// workload down.
    pub fn start(kind: &str) -> Option<RunGuard> {
        if !crate::enabled() {
            return None;
        }
        // Fast check, then drop the guard: directory creation and file I/O
        // below must not run under SINK (lock-across-dispatch); the publish
        // step re-checks for a racing start.
        if lock_sink().is_some() {
            return None;
        }
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let dir = run_dir();
        if let Err(e) = fs::create_dir_all(&dir) {
            eprintln!(
                "dance-telemetry: cannot create run dir {}: {e}",
                dir.display()
            );
            return None;
        }
        let (id, path, file) = match create_unique_run_file(&dir, kind, unix_ms) {
            Ok(claimed) => claimed,
            Err(e) => {
                eprintln!(
                    "dance-telemetry: cannot create run log in {}: {e}",
                    dir.display()
                );
                return None;
            }
        };
        span::reset();
        metrics::reset();
        let mut sink = Sink {
            writer: BufWriter::new(file),
            path: path.clone(),
            start: Instant::now(),
            seq: 0,
        };
        let mut meta = String::with_capacity(96);
        meta.push_str("{\"t\":\"meta\",\"v\":");
        push_num(&mut meta, SCHEMA_VERSION as f64);
        meta.push_str(",\"run\":");
        push_escaped(&mut meta, &id);
        meta.push_str(",\"kind\":");
        push_escaped(&mut meta, kind);
        meta.push_str(",\"unix_ms\":");
        push_num(&mut meta, unix_ms as f64);
        meta.push('}');
        write_line(&mut sink, &meta);
        // Publish. A racing start() may have won between the fast check and
        // here; this one then withdraws and removes its unused artifact.
        let mut guard = lock_sink();
        if guard.is_some() {
            drop(guard);
            let _ignored_result = fs::remove_file(&path);
            return None;
        }
        *guard = Some(sink);
        Some(RunGuard { id, path })
    }

    /// The run id (also the file stem of the artifact).
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The path of the JSONL artifact.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        let Some(mut sink) = lock_sink().take() else {
            return;
        };
        let spans = span::span_report();
        let snap = metrics::snapshot();
        for agg in &spans {
            let line = span_agg_line(&agg.name, &agg.stats);
            write_line(&mut sink, &line);
        }
        for (name, value) in &snap.counters {
            let mut line = String::with_capacity(80);
            line.push_str("{\"t\":\"counter\",\"name\":");
            push_escaped(&mut line, name);
            line.push_str(",\"value\":");
            push_num(&mut line, *value as f64);
            line.push('}');
            write_line(&mut sink, &line);
        }
        for (name, h) in &snap.histograms {
            let line = hist_line(name, h);
            write_line(&mut sink, &line);
        }
        let total_ms = sink.start.elapsed().as_secs_f64() * 1e3;
        let mut end = String::with_capacity(64);
        end.push_str("{\"t\":\"run_end\",\"total_ms\":");
        push_num(&mut end, total_ms);
        end.push_str(",\"events\":");
        push_num(&mut end, sink.seq as f64);
        end.push('}');
        write_line(&mut sink, &end);
        eprintln!(
            "\n== dance-telemetry run {} ({:.1} ms) → {} ==\n{}",
            self.id,
            total_ms,
            sink.path.display(),
            summary_table(&spans, &snap),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_run_ids_skip_to_the_next_counter() {
        let dir = std::env::temp_dir().join(format!("dance_runid_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        // Pre-claim the ids the next two counter values would produce, as a
        // colliding process (same second, reused pid) would have.
        let next = RUN_COUNTER.load(Ordering::Relaxed);
        let stamp: u128 = 1_700_000_000_000;
        for n in [next, next + 1] {
            let clash = dir.join(format!(
                "clash-{}-{}-{n}.jsonl",
                stamp / 1000,
                std::process::id()
            ));
            fs::write(&clash, "taken").expect("pre-create clash file");
        }
        let (id, path, _file) =
            create_unique_run_file(&dir, "clash", stamp).expect("must find a free id");
        // The global counter may be bumped concurrently by other tests, so
        // assert the invariants rather than the exact skip count: a fresh
        // file was claimed, and the taken ids were not truncated (the old
        // `File::create` path silently overwrote them).
        let counter: u64 = id
            .rsplit('-')
            .next()
            .and_then(|n| n.parse().ok())
            .expect("id ends in a counter");
        assert!(counter >= next + 2, "id {id} must skip the taken counters");
        assert!(path.exists());
        assert_eq!(fs::read_to_string(&path).expect("exists"), "");
        for n in [next, next + 1] {
            let clash = dir.join(format!(
                "clash-{}-{}-{n}.jsonl",
                stamp / 1000,
                std::process::id()
            ));
            assert_eq!(
                fs::read_to_string(&clash).expect("clash file still present"),
                "taken",
                "pre-existing artifact must not be truncated"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequential_runs_in_one_process_get_distinct_artifacts() {
        let dir = std::env::temp_dir().join(format!("dance_runseq_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        let stamp: u128 = 1_700_000_000_000;
        let (id_a, path_a, _fa) = create_unique_run_file(&dir, "seq", stamp).expect("first");
        // Same kind, same timestamp — previously only the counter separated
        // them; now the filesystem claim guarantees it.
        let (id_b, path_b, _fb) = create_unique_run_file(&dir, "seq", stamp).expect("second");
        assert_ne!(id_a, id_b);
        assert_ne!(path_a, path_b);
        assert!(path_a.exists() && path_b.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_dir_defaults_under_results() {
        if std::env::var("DANCE_RUN_DIR").is_err() {
            assert!(run_dir().ends_with("results/runs"));
        }
    }

    #[test]
    fn snapshot_json_is_parseable() {
        let doc = snapshot_json("unit", 1.25);
        let v = crate::json::parse(&doc).expect("snapshot json parses");
        assert_eq!(
            v.get("bench").and_then(crate::json::Json::as_str),
            Some("unit")
        );
        assert_eq!(
            v.get("total_wall_s").and_then(crate::json::Json::as_f64),
            Some(1.25)
        );
    }

    #[test]
    fn emit_guard_without_a_run_is_a_noop() {
        // No sink is open in this process at unit-test time; the emitter
        // must simply return (events only flow while a run log is active).
        emit_guard("watchdog.trip", "non-finite loss");
    }

    #[test]
    fn span_agg_and_hist_lines_parse() {
        let mut stats = span::SpanStats::default();
        stats.record(1_500_000);
        stats.record(2_500_000);
        let line = span_agg_line("x.y", &stats);
        let v = crate::json::parse(&line).expect("span_agg parses");
        assert_eq!(
            v.get("count").and_then(crate::json::Json::as_f64),
            Some(2.0)
        );

        let mut h = metrics::Histogram::new();
        h.observe(0.5);
        h.observe(2e7); // overflow bucket → null upper bound
        let line = hist_line("h", &h);
        let v = crate::json::parse(&line).expect("hist parses");
        assert_eq!(
            v.get("count").and_then(crate::json::Json::as_f64),
            Some(2.0)
        );
    }
}
