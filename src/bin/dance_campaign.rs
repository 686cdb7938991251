//! `dance_campaign` — run (or resume) a co-search campaign from the
//! command line.
//!
//! A campaign runs one seeded guarded search per cell of a λ₂ × dataset ×
//! hardware-envelope grid, each as a `dance-fleet` job under `--dir` (the
//! fleet's ledger in `ledger/`, checkpoints in `ckpt/<job-id>/`), and
//! folds every cell's per-epoch samples into one incremental Pareto
//! frontier. The ledger is the campaign's durable record, so a killed run
//! restarted with `--resume` (and otherwise identical flags) refolds the
//! finished cells, resumes the unfinished ones from their checkpoints and
//! reproduces the uninterrupted run's `frontier-digest` line bit-for-bit.
//! `--max-concurrency` sets the fleet's worker count.
//!
//! ```text
//! dance_campaign [--lambda2 F,F,..] [--seeds N,N,..] [--envelopes full,edge]
//!                [--epochs N] [--batch N] [--seed N] [--dir DIR]
//!                [--max-concurrency N] [--resume] [--stream]
//!                [--emit-plan DIR] [--plan-batch N]
//!                [--attach HOST:PORT] [--connect-timeout-ms N] [--io-timeout-ms N]
//! ```
//!
//! With `--emit-plan DIR`, the campaign's winning design — the frontier
//! entry with the lexicographically smallest `(error, cost)` — is
//! reconstructed from the final checkpoint of its cell's job
//! (`ckpt/<job-id>/`), its argmax architecture is frozen into an
//! allocation-free inference plan, and the artifact is written to
//! `DIR/plan.dplan`. Local runs only: the cell checkpoints are not
//! available over `--attach`.
//!
//! With `--stream`, every `frontier_update` / `campaign_end` event is
//! printed to stdout as NDJSON while the campaign runs — the same lines
//! the `campaign/stream` serve endpoint delivers.
//!
//! With `--attach HOST:PORT`, the campaign is submitted to a running
//! `dance_serve` instead of executing locally, and its event stream is
//! followed over the wire with automatic re-attach: if the connection
//! drops or times out mid-stream, the client reconnects (bounded by the
//! connect/io timeout knobs) and replays from the last seen event offset,
//! so a server restart or network blip loses no events.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dance_campaign::prelude::{
    run_campaign, CampaignSpec, CancelToken, Envelope, EventLog, Waited,
};
use dance_serve::client::{ClientConfig, RetryPolicy, StreamFollower};
use dance_serve::proto::{ReqBody, Request};
use dance_serve::Client;
use dance_telemetry::json::Json;

struct Args {
    spec: CampaignSpec,
    envelope_names: Vec<String>,
    resume: bool,
    stream: bool,
    emit_plan: Option<PathBuf>,
    plan_batch: usize,
    attach: Option<String>,
    connect_timeout_ms: u64,
    io_timeout_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: dance_campaign [--lambda2 F,F,..] [--seeds N,N,..] [--envelopes full,edge]\n\
         \x20                     [--epochs N] [--batch N] [--seed N] [--dir DIR]\n\
         \x20                     [--max-concurrency N] [--resume] [--stream]\n\
         \x20                     [--emit-plan DIR] [--plan-batch N]\n\
         \x20                     [--attach HOST:PORT] [--connect-timeout-ms N] [--io-timeout-ms N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut spec = CampaignSpec {
        name: "cli".into(),
        lambda2: vec![0.1, 0.3],
        dataset_seeds: vec![0],
        envelopes: vec![Envelope::full(), Envelope::edge()],
        epochs: 2,
        batch_size: 32,
        seed: 0,
        root: PathBuf::from("results/campaigns/cli"),
        max_concurrency: 0,
    };
    let mut envelope_names = vec!["full".to_string(), "edge".to_string()];
    let mut resume = false;
    let mut stream = false;
    let mut emit_plan = None;
    let mut plan_batch = 64usize;
    let mut attach = None;
    let mut connect_timeout_ms = 5000u64;
    let mut io_timeout_ms = 10_000u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--lambda2" => spec.lambda2 = parse_list(&value("--lambda2"), "--lambda2"),
            "--seeds" => spec.dataset_seeds = parse_list(&value("--seeds"), "--seeds"),
            "--envelopes" => {
                envelope_names = value("--envelopes")
                    .split(',')
                    .map(str::to_string)
                    .collect();
                spec.envelopes = envelope_names
                    .iter()
                    .map(|name| {
                        Envelope::by_name(name).unwrap_or_else(|| {
                            eprintln!("unknown envelope {name:?} (expected full|edge)");
                            usage();
                        })
                    })
                    .collect();
            }
            "--epochs" => spec.epochs = parse_num(&value("--epochs"), "--epochs"),
            "--batch" => spec.batch_size = parse_num(&value("--batch"), "--batch"),
            "--seed" => spec.seed = parse_num(&value("--seed"), "--seed"),
            "--dir" => spec.root = PathBuf::from(value("--dir")),
            "--max-concurrency" => {
                spec.max_concurrency = parse_num(&value("--max-concurrency"), "--max-concurrency");
            }
            "--resume" => resume = true,
            "--stream" => stream = true,
            "--emit-plan" => emit_plan = Some(PathBuf::from(value("--emit-plan"))),
            "--plan-batch" => plan_batch = parse_num(&value("--plan-batch"), "--plan-batch"),
            "--attach" => attach = Some(value("--attach")),
            "--connect-timeout-ms" => {
                connect_timeout_ms =
                    parse_num(&value("--connect-timeout-ms"), "--connect-timeout-ms");
            }
            "--io-timeout-ms" => {
                io_timeout_ms = parse_num(&value("--io-timeout-ms"), "--io-timeout-ms");
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    Args {
        spec,
        envelope_names,
        resume,
        stream,
        emit_plan,
        plan_batch,
        attach,
        connect_timeout_ms,
        io_timeout_ms,
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?} for {flag}");
        usage();
    })
}

fn parse_list<T: std::str::FromStr>(s: &str, flag: &str) -> Vec<T> {
    s.split(',')
        .map(|part| parse_num(part.trim(), flag))
        .collect()
}

/// Submits the campaign to a running `dance_serve` and follows its event
/// stream with automatic re-attach from the last seen offset.
fn run_attached(args: &Args, addr: &str) -> ExitCode {
    let cfg = ClientConfig::from_ms(args.connect_timeout_ms, args.io_timeout_ms);
    let mut client = match Client::connect_with(addr, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Submission is NOT retried: campaign/submit is not idempotent, and a
    // blind retry after an ambiguous transport failure could start the
    // campaign twice.
    let submit = Request {
        id: "cli-submit".into(),
        deadline_ms: None,
        body: ReqBody::CampaignSubmit {
            lambda2: args.spec.lambda2.clone(),
            dataset_seeds: args.spec.dataset_seeds.clone(),
            envelopes: args.envelope_names.clone(),
            epochs: args.spec.epochs,
            batch: args.spec.batch_size,
            seed: args.spec.seed,
            max_concurrency: args.spec.max_concurrency,
        },
    };
    let campaign = match client.call(&submit) {
        Ok(resp) => match resp.get("campaign").and_then(Json::as_str) {
            Some(id) => id.to_string(),
            None => {
                let err = resp.get("err").and_then(Json::as_str).unwrap_or("rejected");
                eprintln!("campaign/submit failed: {err}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("campaign/submit failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("campaign {campaign} submitted to {addr}; streaming events");
    let policy = RetryPolicy::default();
    let mut follower = match StreamFollower::attach(client, &campaign, policy) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("campaign/stream failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    loop {
        match follower.next_event() {
            Ok(Some(line)) => println!("{line}"),
            Ok(None) => break,
            Err(e) => {
                eprintln!("stream lost beyond the re-attach budget: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Err(e) = args.spec.validate() {
        eprintln!("{e}");
        usage();
    }
    if let Some(addr) = &args.attach {
        if args.emit_plan.is_some() {
            eprintln!("--emit-plan requires a local run: cell checkpoints are not available over --attach");
            return ExitCode::FAILURE;
        }
        return run_attached(&args, addr);
    }

    let log = Arc::new(EventLog::new());
    let cancel = Arc::new(CancelToken::new());
    let follower = if args.stream {
        let f_log = Arc::clone(&log);
        let handle = dance_backend::spawn_service("campaign-cli-stream", move || {
            let mut seq = 0usize;
            loop {
                match f_log.wait_next(seq, Duration::from_millis(100)) {
                    Waited::Line(line) => {
                        println!("{line}");
                        seq += 1;
                    }
                    Waited::Done => break,
                    Waited::TimedOut => {}
                }
            }
        });
        match handle {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("cannot start stream follower: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let outcome = run_campaign(&args.spec, args.resume, &log, &cancel);
    if let Some(h) = follower {
        let _joined = h.join();
    }
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let c = out.frontier.counters();
    println!(
        "cells: {} done, {} failed ({})",
        out.cells_done,
        out.cells_failed,
        if out.cancelled {
            "cancelled; rerun with --resume to finish"
        } else {
            "complete"
        }
    );
    println!(
        "frontier: {} on front, {} archived, dedup hit-rate {:.3}",
        out.frontier.front_len(),
        out.frontier.archive_len(),
        c.dedup_hit_rate()
    );
    // Bit-exact fingerprint of the frontier archive, for comparing a
    // resumed campaign against an uninterrupted one.
    println!("frontier-digest: {:016x}", out.digest());
    if let Some(dir) = &args.emit_plan {
        if let Err(e) = emit_winner_plan(&args.spec, &out.frontier, args.plan_batch, dir) {
            eprintln!("cannot emit plan: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Freezes the campaign winner — the front entry with the smallest
/// `(error, cost)` — into `DIR/plan.dplan`, reconstructing the producing
/// cell's model from its job's final checkpoint.
fn emit_winner_plan(
    spec: &CampaignSpec,
    frontier: &dance::prelude::Frontier,
    max_batch: usize,
    dir: &std::path::Path,
) -> Result<(), String> {
    use dance::prelude::{ArchParams, Supernet, SupernetConfig};
    use dance_guard::checkpoint::{CheckpointConfig, CheckpointStore};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let winner = frontier
        .front()
        .into_iter()
        .min_by(|a, b| {
            a.point
                .error
                .total_cmp(&b.point.error)
                .then(a.point.cost.total_cmp(&b.point.cost))
        })
        .ok_or_else(|| "frontier is empty; nothing to freeze".to_string())?;
    let id: usize = winner
        .origin
        .strip_prefix("cell-")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("unrecognized front origin {:?}", winner.origin))?;
    let cell = spec
        .cells()
        .into_iter()
        .find(|c| c.id == id)
        .ok_or_else(|| {
            format!(
                "front origin {:?} is not a cell of this grid",
                winner.origin
            )
        })?;
    // Rebuild the cell's model exactly as its fleet job did (shapes only),
    // then overwrite every parameter from the final checkpoint.
    let ckpt = spec.root.join("ckpt").join(spec.cell_job(&cell).job_id());
    let mut rng = StdRng::seed_from_u64(cell.seed);
    let net = Supernet::new(SupernetConfig::tiny(), &mut rng);
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let store = CheckpointStore::new(CheckpointConfig::every_epoch(ckpt.clone()));
    let (epoch, snap) = store
        .latest_good()
        .ok_or_else(|| format!("no readable checkpoint under {}", ckpt.display()))?;
    snap.restore_params("supernet", &net.parameters())
        .map_err(|e| format!("checkpoint restore: {e}"))?;
    snap.restore_params("alpha", &arch.parameters())
        .map_err(|e| format!("checkpoint restore: {e}"))?;
    let plan = net
        .freeze_plan(&arch.derive(), max_batch)
        .map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("plan.dplan");
    plan.save(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "plan: {} (epoch {epoch}, {} steps, {} buffers, max-batch {}) -> {}",
        winner.origin,
        plan.steps.len(),
        plan.buffers.len(),
        plan.max_batch,
        path.display()
    );
    Ok(())
}
