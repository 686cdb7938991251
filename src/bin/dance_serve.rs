//! `dance_serve` — the protocol-v1 cost-query & search-job server.
//!
//! ```text
//! dance_serve [--addr HOST:PORT] [--workers N] [--cache-cap N]
//!             [--deadline-ms N] [--job-queue N]
//! ```
//!
//! `--workers N` sets both the analytic concurrency and the fleet's search
//! workers (at most 4); `--job-queue N` is how many search jobs may wait
//! for one. Binds, prints `listening on <addr>` (scripts and `serve_load`
//! parse this line), then serves until an `admin/shutdown` request drains
//! it.
//! The whole lifetime runs under one telemetry run log, so a clean drain
//! ends with a `run_end` record — the property the CI smoke asserts.

use dance_serve::{ServeConfig, Server};

fn usage() -> ! {
    eprintln!(
        "usage: dance_serve [--addr HOST:PORT] [--workers N] [--cache-cap N] \
         [--deadline-ms N] [--job-queue N]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(v) = args.next() else { usage() };
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {v}");
        usage()
    })
}

fn main() {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7421".into(),
        ..ServeConfig::default()
    };
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = args.next().unwrap_or_else(|| usage()),
            "--workers" => {
                let n: usize = parse_num(&mut args, "--workers");
                // One knob for both execution pools: inline analytic
                // concurrency and the fleet's search-job worker count.
                cfg.max_inflight = n.max(1);
                cfg.fleet_workers = n.clamp(1, 4);
            }
            "--cache-cap" => cfg.cache_capacity = parse_num(&mut args, "--cache-cap"),
            "--deadline-ms" => cfg.default_deadline_ms = parse_num(&mut args, "--deadline-ms"),
            "--job-queue" => cfg.job_queue = parse_num(&mut args, "--job-queue"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    let run = dance_telemetry::runlog::RunGuard::start("serve");
    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {} failed: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    if let Err(e) = server.run() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    println!("drained cleanly");
    drop(run);
}
