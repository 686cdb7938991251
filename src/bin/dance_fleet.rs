//! `dance_fleet` — run a lease-supervised fleet of search worker
//! processes against a durable job ledger.
//!
//! ```text
//! dance_fleet [--seeds N,N,..] [--jobs N] [--epochs N] [--batch N]
//!             [--lambda2 F] [--workers N] [--dir DIR] [--lease-ttl-ms N]
//!             [--chaos-kill-ms N]
//! dance_fleet --worker <worker flags>      # internal: one job attempt
//! ```
//!
//! The supervisor submits one job per seed (idempotent — the job id is the
//! spec digest, so rerunning over the same `--dir` resumes the ledger
//! instead of duplicating jobs), runs each attempt as a child process on
//! one of `--workers` worker threads, and reclaims the lease of a child
//! that dies or stops heartbeating. A reclaimed job's next attempt
//! resumes from the last durable checkpoint and reproduces the
//! uninterrupted run's digest bit-for-bit.
//!
//! `--chaos-kill-ms N` arms a one-shot chaos drill: `N` ms into the run
//! the supervisor SIGKILLs one busy worker. The run must still complete
//! every job with unchanged digests — that is the recovery contract, and
//! `scripts/check.sh` gates on it.
//!
//! Every finished job prints one greppable line, sorted by job id:
//!
//! ```text
//! job fjob-<id> arch-digest: <16 hex digits>
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dance_fleet::prelude::{run_fleet, FleetOpts, JobSpec};

struct Args {
    opts: FleetOpts,
    specs: Vec<JobSpec>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dance_fleet [--seeds N,N,..] [--jobs N] [--epochs N] [--batch N]\n\
         \x20                  [--lambda2 F] [--workers N] [--dir DIR] [--lease-ttl-ms N]\n\
         \x20                  [--chaos-kill-ms N]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?} for {flag}");
        usage();
    })
}

fn parse_args(argv: &[String]) -> Args {
    let mut seeds: Vec<u64> = Vec::new();
    let mut jobs = 0usize;
    let mut epochs = 3u64;
    let mut batch = 32u64;
    let mut lambda2 = 0.1f32;
    let mut dir = PathBuf::from("results/fleet/cli");
    let mut workers = 2usize;
    let mut lease_ttl_ms = 5000u64;
    let mut chaos_kill_ms = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--seeds" => {
                seeds = value("--seeds")
                    .split(',')
                    .map(|s| parse_num(s.trim(), "--seeds"))
                    .collect();
            }
            "--jobs" => jobs = parse_num(&value("--jobs"), "--jobs"),
            "--epochs" => epochs = parse_num(&value("--epochs"), "--epochs"),
            "--batch" => batch = parse_num(&value("--batch"), "--batch"),
            "--lambda2" => lambda2 = parse_num(&value("--lambda2"), "--lambda2"),
            "--workers" => workers = parse_num(&value("--workers"), "--workers"),
            "--dir" => dir = PathBuf::from(value("--dir")),
            "--lease-ttl-ms" => {
                lease_ttl_ms = parse_num(&value("--lease-ttl-ms"), "--lease-ttl-ms")
            }
            "--chaos-kill-ms" => {
                chaos_kill_ms = Some(parse_num(&value("--chaos-kill-ms"), "--chaos-kill-ms"));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if seeds.is_empty() {
        let n = jobs.max(2);
        seeds = (0..n as u64).collect();
    }
    let specs: Vec<JobSpec> = seeds
        .iter()
        .map(|seed| JobSpec::new(epochs, batch, *seed, lambda2))
        .collect();
    let mut opts = FleetOpts::new(dir)
        .with_workers(workers.clamp(1, 16))
        .with_lease_ttl_ms(lease_ttl_ms);
    opts.chaos_kill_after_ms = chaos_kill_ms;
    Args { opts, specs }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Child-process entry: `dance_fleet --worker <flags>` runs exactly one
    // job attempt and reports over stdout NDJSON.
    if argv.first().map(String::as_str) == Some("--worker") {
        return ExitCode::from(dance_fleet::prelude::worker_main(&argv[1..]) as u8);
    }
    let mut args = parse_args(&argv);
    match std::env::current_exe() {
        Ok(exe) => args.opts.worker_exe = Some(exe),
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    }
    let workers = args.opts.workers;
    let started = Instant::now();
    let (counts, jobs) = match run_fleet(args.opts, &args.specs) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("fleet failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Sorted, greppable digest lines — the chaos-drill gate compares these
    // between a clean run and a kill-one-worker run.
    for job in &jobs {
        if let Some(digest) = job.digest() {
            println!("job {} arch-digest: {digest:016x}", job.id);
        }
    }
    for job in &jobs {
        if let Some(error) = &job.error {
            println!("job {} failed: {error}", job.id);
        }
    }
    println!(
        "fleet: {} done, {} failed over {:.2}s ({} workers, {} reclaims, {} kills, {} fenced)",
        counts.done,
        counts.failed,
        started.elapsed().as_secs_f64(),
        workers,
        counts.reclaims,
        counts.kills,
        counts.fenced,
    );
    if let Some(p95) = counts.recovery_p95_ms() {
        println!(
            "recovery: {} sample(s), p95 {p95}ms from reclaim to the next attempt's first \
             heartbeat or result",
            counts.recoveries_ms.len()
        );
    }
    if counts.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
