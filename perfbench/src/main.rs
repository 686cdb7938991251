//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--setup-reps N]
//! ```
//!
//! Four workloads, each driving one part of the system through its public
//! API with inputs generated from `--seed`:
//!
//! | workload        | unit of work (`ops_per_s`)              | timed block       |
//! |-----------------|-----------------------------------------|-------------------|
//! | `dance_step`    | one search step (evaluator penalty)     | one search epoch  |
//! | `hw_exact`      | one architecture, exact hardware generation | seven architectures |
//! | `serve_mixed`   | one request answered by `dance-serve`   | half a second     |
//! | `campaign_grid` | one campaign cell                       | one 12-cell grid  |
//!
//! With `--trace 0` a run sets up `--setup-reps` times (the median is
//! `setup_s`), measures for `--seconds`, checks every output and prints the
//! end-to-end metrics: `ops_per_s` is the median over timed blocks, and
//! `peak_rss_mb` the process's peak resident set. With `--trace 1` it
//! instead times every layer from
//! outside — a bench-owned replica of the search step, the per-slot ×
//! per-candidate supernet table, the cost/hwgen/plan calls, per-op serve
//! latencies and a campaign — reads the telemetry snapshot the program
//! emits, and measures the telemetry overhead of the chosen workload from
//! three alternating pairs of child runs, with and without
//! `DANCE_TELEMETRY=off`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod campaign;
mod hw;
mod serve;
mod step;
mod util;

use std::process::{Command, ExitCode, Stdio};

use util::{median, Checks, Metrics};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's search loop with the evaluator in the arch step.
    DanceStep,
    /// §4.2, exact side: exhaustive hardware generation with the cost model.
    HwExact,
    /// Closed-loop mixed traffic against `dance-serve`.
    ServeMixed,
    /// A campaign grid of tiny searches folded into a Pareto frontier.
    CampaignGrid,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DanceStep,
        Workload::HwExact,
        Workload::ServeMixed,
        Workload::CampaignGrid,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DanceStep => "dance_step",
            Workload::HwExact => "hw_exact",
            Workload::ServeMixed => "serve_mixed",
            Workload::CampaignGrid => "campaign_grid",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one end-to-end measurement produced.
#[derive(Debug, Default)]
pub struct E2e {
    /// Wall time of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Units of work completed per second, one sample per timed block.
    pub rates: Vec<f64>,
    /// Correctness tally of every checked output.
    pub checks: Checks,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_reps: usize,
}

const USAGE: &str = "usage: perfbench --workload dance_step|hw_exact|serve_mixed|campaign_grid \
                     --seed N --seconds S --trace 0|1 [--setup-reps N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_reps = 5usize;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--setup-reps" => {
                setup_reps = value.parse::<usize>().map_err(|_| bad())?.clamp(1, 9);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_reps,
    })
}

fn run_e2e(w: Workload, seed: u64, seconds: f64, setup_reps: usize) -> E2e {
    match w {
        Workload::DanceStep => step::e2e(seed, seconds, setup_reps),
        Workload::HwExact => hw::exact_e2e(seed, seconds, setup_reps),
        Workload::ServeMixed => serve::e2e(seed, seconds, setup_reps),
        Workload::CampaignGrid => campaign::e2e(seed, seconds, setup_reps),
    }
}

fn end_to_end(args: &Args) -> (Metrics, Checks) {
    let mut e = run_e2e(args.workload, args.seed, args.seconds, args.setup_reps);
    let mut m = Metrics::default();
    let summary = |v: &[f64]| -> f64 {
        if v.is_empty() {
            return f64::NAN;
        }
        println!(
            "  {} samples, quartiles {:.6} / {:.6} / {:.6}",
            v.len(),
            util::quantile(v, 0.25),
            median(v),
            util::quantile(v, 0.75)
        );
        if v.len() <= 64 {
            let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("  [{}]", all.join(", "));
        }
        median(v)
    };
    println!("setup_s:");
    m.push("setup_s", summary(&e.setup_s), "s");
    m.push("peak_rss_mb", util::peak_rss_mb(), "MB");
    println!("ops_per_s:");
    m.push("ops_per_s", summary(&e.rates), "1/s");
    if e.rates.is_empty() {
        e.checks.record(Err("no unit of work completed".into()));
    }
    (m, e.checks)
}

fn traced(args: &Args) -> (Metrics, Checks) {
    // One run log for the whole traced run: the library's own run guards
    // (search, campaign) then nest into it instead of resetting the
    // aggregates this run reads back.
    let _run = dance_telemetry::runlog::RunGuard::start("perfbench");
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    m.push("env.nproc", nproc() as f64, "count");
    m.push(
        "env.dance_threads",
        dance_backend::threads() as f64,
        "count",
    );
    for (metrics, c) in [
        step::traced(args.seed),
        hw::traced(args.seed),
        serve::traced(args.seed, (args.seconds / 4.0).clamp(1.0, 3.0)),
        campaign::traced(args.seed),
    ] {
        m.extend(metrics);
        checks.absorb(c);
    }
    let (overhead, c) = telemetry_overhead(args);
    m.push("telemetry.overhead_pct", overhead, "%");
    checks.absorb(c);
    (m, checks)
}

/// Child runs per telemetry setting in [`telemetry_overhead`].
const OVERHEAD_PAIRS: usize = 3;

/// Runs the workload's end-to-end section in child processes, alternately
/// with telemetry on (the shipped default) and with `DANCE_TELEMETRY=off`
/// in the order on, off, off, on, on, off, so a host that drifts over the
/// run slows both settings alike. Each pair gives how much faster the off
/// run was, in percent of the on run; the result is the median pair.
fn telemetry_overhead(args: &Args) -> (f64, Checks) {
    let seconds = (args.seconds / 4.0).max(2.0);
    let mut checks = Checks::default();
    let mut rate = |telemetry_off: bool| -> f64 {
        let out = child_ops_per_s(args, seconds, telemetry_off);
        checks.record(out.as_ref().map(|_| ()).map_err(Clone::clone));
        out.unwrap_or(f64::NAN)
    };
    let mut pct = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let (on, off) = if pair % 2 == 0 {
            let on = rate(false);
            (on, rate(true))
        } else {
            let off = rate(true);
            (rate(false), off)
        };
        println!(
            "telemetry overhead ({}), pair {pair}: {on:.4} ops/s with telemetry, {off:.4} without",
            args.workload.name()
        );
        pct.push((off / on - 1.0) * 100.0);
    }
    if pct.iter().any(|p| !p.is_finite()) {
        return (f64::NAN, checks);
    }
    (median(&pct), checks)
}

fn child_ops_per_s(args: &Args, seconds: f64, telemetry_off: bool) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        "0",
        "--setup-reps",
        "1",
    ])
    .stdin(Stdio::null())
    .stderr(Stdio::null());
    if telemetry_off {
        cmd.env("DANCE_TELEMETRY", "off");
    } else {
        cmd.env_remove("DANCE_TELEMETRY");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run the telemetry comparison child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.starts_with("{\"correct\": true") {
        return Err(format!(
            "telemetry comparison child failed ({}): {last}",
            out.status
        ));
    }
    let key = "\"ops_per_s\": {\"value\": ";
    let start = last
        .find(key)
        .ok_or_else(|| format!("child result lacks ops_per_s: {last}"))?
        + key.len();
    let end = last[start..]
        .find(',')
        .ok_or_else(|| format!("malformed child result: {last}"))?;
    last[start..start + end]
        .parse::<f64>()
        .map_err(|e| format!("malformed child ops_per_s: {e}"))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} nproc={} DANCE_THREADS={} \
         rustc={:?} revision={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        dance_backend::threads(),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into()),
    );
    let (metrics, checks) = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    for line in metrics.lines() {
        println!("{line}");
    }
    for msg in checks.messages() {
        println!("check failed: {msg}");
    }
    let non_finite = metrics.non_finite();
    if !non_finite.is_empty() {
        println!("check failed: non-finite metrics {non_finite:?}");
    }
    let correct = checks.failed == 0 && checks.attempted > 0 && non_finite.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted.max(1),
        checks.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}
