//! `fleet_bench` — chaos-drill benchmark for a fleet of worker processes; writes
//! `BENCH_fleet.json`.
//!
//! ```text
//! fleet_bench [--jobs N] [--epochs N] [--batch N] [--workers N] [--dir DIR]
//! fleet_bench --worker <worker flags>     # internal: one job attempt
//! ```
//!
//! Three phases over the same job set:
//!
//! 1. **clean** — the fleet runs undisturbed; jobs/hour baseline.
//! 2. **drill** — the same jobs in a fresh ledger, with one worker
//!    SIGKILLed mid-run; jobs/hour under failure plus the recovery p95
//!    (reclaim → the next attempt's first heartbeat or result; `null`
//!    when nothing was reclaimed).
//! 3. **reference** — every job re-run single-worker, no chaos; the drill
//!    digests must match these bit-for-bit (`fleet.digest_match` gauge).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dance_bench::bench_run;
use dance_fleet::prelude::{run_fleet, FleetCounts, FleetOpts, JobSpec};

struct BenchArgs {
    jobs: usize,
    epochs: u64,
    batch: u64,
    workers: usize,
    dir: PathBuf,
}

fn usage() -> ! {
    eprintln!("usage: fleet_bench [--jobs N] [--epochs N] [--batch N] [--workers N] [--dir DIR]");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?} for {flag}");
        usage();
    })
}

fn parse_args(argv: &[String]) -> BenchArgs {
    let mut args = BenchArgs {
        jobs: 4,
        epochs: 3,
        batch: 32,
        workers: 2,
        dir: std::env::temp_dir().join("dance_fleet_bench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--jobs" => args.jobs = parse_num(&value("--jobs"), "--jobs"),
            "--epochs" => args.epochs = parse_num(&value("--epochs"), "--epochs"),
            "--batch" => args.batch = parse_num(&value("--batch"), "--batch"),
            "--workers" => args.workers = parse_num(&value("--workers"), "--workers"),
            "--dir" => args.dir = PathBuf::from(value("--dir")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    args.jobs = args.jobs.clamp(2, 64);
    args.workers = args.workers.clamp(1, 16);
    args
}

fn specs(args: &BenchArgs) -> Vec<JobSpec> {
    (0..args.jobs as u64)
        .map(|seed| JobSpec::new(args.epochs, args.batch, seed, 0.1))
        .collect()
}

/// One finished phase: final counts, each job's digest (`None` unless
/// done) in job-id order, and wall time.
struct Phase {
    counts: FleetCounts,
    digests: Vec<(String, Option<u64>)>,
    wall_ms: u64,
}

fn run_phase(
    exe: &Path,
    args: &BenchArgs,
    phase: &str,
    workers: usize,
    chaos_kill_after_ms: Option<u64>,
) -> Option<Phase> {
    // Short leases so a killed worker's job is reclaimed quickly; epochs
    // (and therefore heartbeats) on the tiny benchmark run well under this.
    let mut opts = FleetOpts::new(args.dir.join(phase))
        .with_workers(workers)
        .with_lease_ttl_ms(2500);
    opts.worker_exe = Some(exe.to_path_buf());
    opts.chaos_kill_after_ms = chaos_kill_after_ms;
    let started = Instant::now();
    match run_fleet(opts, &specs(args)) {
        Ok((counts, jobs)) => {
            let wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
            eprintln!(
                "{phase}: {} done, {} failed, {} reclaims in {:.2}s",
                counts.done,
                counts.failed,
                counts.reclaims,
                wall_ms as f64 / 1000.0
            );
            let digests = jobs.iter().map(|j| (j.id.clone(), j.digest())).collect();
            Some(Phase {
                counts,
                digests,
                wall_ms,
            })
        }
        Err(e) => {
            eprintln!("{phase} phase failed: {e}");
            None
        }
    }
}

fn jobs_per_hour(phase: &Phase) -> f64 {
    phase.counts.done as f64 * 3_600_000.0 / (phase.wall_ms.max(1) as f64)
}

fn run_bench(exe: &Path, args: &BenchArgs) {
    // Fresh ledgers per phase — this benchmark measures runs, not resumes.
    let _cleanup = std::fs::remove_dir_all(&args.dir);
    let Some(clean) = run_phase(exe, args, "clean", args.workers, None) else {
        return;
    };
    // Kill one worker roughly one third into the clean-run wall time: late
    // enough that checkpoints exist, early enough that recovery matters.
    let kill_at = (clean.wall_ms / 3).max(200);
    let Some(drill) = run_phase(exe, args, "drill", args.workers, Some(kill_at)) else {
        return;
    };
    let Some(reference) = run_phase(exe, args, "reference", 1, None) else {
        return;
    };
    let digests_match = drill.digests == reference.digests && drill.counts.failed == 0;
    let recovery_p95 = drill.counts.recovery_p95_ms();
    dance_telemetry::gauge!("fleet.jobs", args.jobs as f64);
    dance_telemetry::gauge!("fleet.workers", args.workers as f64);
    dance_telemetry::gauge!("fleet.jobs_per_hour_clean", jobs_per_hour(&clean));
    dance_telemetry::gauge!("fleet.jobs_per_hour_drill", jobs_per_hour(&drill));
    dance_telemetry::gauge!("fleet.kills", drill.counts.kills as f64);
    dance_telemetry::gauge!("fleet.reclaims", drill.counts.reclaims as f64);
    // No samples is written as NaN, which the BENCH file renders as null.
    dance_telemetry::gauge!(
        "fleet.recovery_p95_ms",
        recovery_p95.map_or(f64::NAN, |ms| ms as f64)
    );
    dance_telemetry::gauge!("fleet.digest_match", if digests_match { 1.0 } else { 0.0 });
    println!(
        "fleet_bench: clean {:.0} jobs/h, drill {:.0} jobs/h ({} kill(s), {} reclaim(s), \
         recovery p95 {}), digests {} the single-worker reference",
        jobs_per_hour(&clean),
        jobs_per_hour(&drill),
        drill.counts.kills,
        drill.counts.reclaims,
        recovery_p95.map_or("none".to_string(), |ms| format!("{ms}ms")),
        if digests_match {
            "match"
        } else {
            "DIVERGE from"
        },
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker") {
        return ExitCode::from(dance_fleet::prelude::worker_main(&argv[1..]) as u8);
    }
    let args = parse_args(&argv);
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    bench_run("fleet", || run_bench(&exe, &args));
    ExitCode::SUCCESS
}
