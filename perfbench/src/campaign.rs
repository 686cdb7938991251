//! `campaign_grid`: `run_campaign` over a smoke-style grid.
//!
//! The grid is `CampaignSpec::smoke`'s 3 λ₂ × 2 dataset seeds × 2
//! envelopes with two epochs per cell, dataset seeds and the campaign seed
//! taken from the workload seed, and `max_concurrency` = the number of
//! cores. Each cell is a tiny FLOPs-penalty search with per-epoch
//! checkpoints; every design point is folded into the Pareto frontier and
//! the manifest is rewritten. The timed unit is one cell; the timed call
//! is one whole campaign in a fresh directory.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dance_campaign::prelude::{run_campaign, CampaignOutcome, CampaignSpec, CancelToken, EventLog};

use crate::util::{ensure, scratch_dir, Checks, Metrics};
use crate::E2e;

fn grid(root: PathBuf, seed: u64) -> CampaignSpec {
    // Seeds travel through JSON manifests as numbers; keep them exact.
    let s = seed & 0xFFFF_FFFF;
    let mut spec = CampaignSpec::smoke(root, 2);
    spec.dataset_seeds = vec![s, s + 1];
    spec.seed = s;
    spec.max_concurrency = crate::nproc();
    spec
}

/// The set-up: a one-cell, one-epoch campaign that builds the cost table
/// and touches every layer once before anything is timed.
fn warm_up(seed: u64) -> Result<(), String> {
    let mut spec = grid(scratch_dir().join("campaign-warm"), seed);
    spec.lambda2.truncate(1);
    spec.dataset_seeds.truncate(1);
    spec.envelopes.truncate(1);
    spec.epochs = 1;
    let out = run_once(&spec).map(|_| ());
    let _cleaned = std::fs::remove_dir_all(&spec.root);
    out
}

/// One campaign in a fresh directory: `(outcome, seconds)`.
fn run_once(spec: &CampaignSpec) -> Result<(CampaignOutcome, f64), String> {
    let _stale = std::fs::remove_dir_all(&spec.root);
    let log = Arc::new(EventLog::new());
    let cancel = Arc::new(CancelToken::new());
    let t0 = Instant::now();
    let out = run_campaign(spec, false, &log, &cancel)?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

fn check_outcome(spec: &CampaignSpec, out: &CampaignOutcome, want: u64) -> Result<(), String> {
    ensure(
        out.cells_done == spec.len() && out.cells_failed == 0 && !out.cancelled,
        || {
            format!(
                "campaign finished {} of {} cells ({} failed)",
                out.cells_done,
                spec.len(),
                out.cells_failed
            )
        },
    )?;
    ensure(out.digest() == want, || {
        format!(
            "frontier digest {:016x} differs from the first run's {want:016x}",
            out.digest()
        )
    })
}

/// End-to-end: repeated campaigns for `seconds`.
pub fn e2e(seed: u64, seconds: f64, setup_reps: usize) -> E2e {
    let mut e = E2e::default();
    for _ in 0..setup_reps.max(1) {
        let t0 = Instant::now();
        let warm = warm_up(seed);
        e.setup_s.push(t0.elapsed().as_secs_f64());
        if warm.is_err() {
            e.checks.record(warm);
            return e;
        }
    }
    let spec = grid(scratch_dir().join("campaign"), seed);
    let cells = spec.len() as f64;
    let mut rates = Vec::new();
    let mut first = None;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        match run_once(&spec) {
            Ok((out, secs)) => {
                rates.push(cells / secs);
                let want = *first.get_or_insert(out.digest());
                e.checks.record(check_outcome(&spec, &out, want));
            }
            Err(msg) => {
                e.checks.record(Err(msg));
                break;
            }
        }
    }
    let _cleaned = std::fs::remove_dir_all(&spec.root);
    if rates.is_empty() {
        return e;
    }
    println!(
        "campaign_grid: {} campaigns x {cells} cells, frontier-digest {:016x}",
        rates.len(),
        first.unwrap_or_default()
    );
    e.rates = rates;
    e
}

/// Traced run: one campaign with the telemetry snapshot read back.
pub fn traced(seed: u64) -> (Metrics, Checks) {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    checks.record(warm_up(seed));
    let spec = grid(scratch_dir().join("campaign-traced"), seed);
    dance_telemetry::span::reset();
    dance_telemetry::metrics::reset();
    let run = run_once(&spec);
    let _cleaned = std::fs::remove_dir_all(&spec.root);
    let (out, secs) = match run {
        Ok(r) => r,
        Err(msg) => {
            checks.record(Err(msg));
            return (m, checks);
        }
    };
    checks.record(check_outcome(&spec, &out, out.digest()));
    let cells = out.cells_done.max(1) as f64;
    let counters = dance_telemetry::metrics::snapshot().counters;
    // Missing telemetry reads NaN (a failed check), never a quiet 0.
    let counter = |name: &str| counters.get(name).map_or(f64::NAN, |&n| n as f64);
    let search_ms = dance_telemetry::span::span_report()
        .iter()
        .find(|a| a.name == "search.epoch")
        .map_or(f64::NAN, |a| a.stats.total_ns as f64 / 1e6);
    let f = out.frontier.counters();
    println!(
        "campaign traced: {cells} cells in {secs:.3}s, frontier-digest {:016x}",
        out.digest()
    );
    m.push("core.search_ms_per_cell", search_ms / cells, "ms");
    m.push("campaign.points", counter("campaign.points"), "count");
    m.push("campaign.frontier_inserts", f.inserts as f64, "count");
    m.push("campaign.dedup_hits", f.dedup_hits as f64, "count");
    m.push(
        "guard.checkpoints",
        counter("guard.checkpoint.saved"),
        "count",
    );
    (m, checks)
}
