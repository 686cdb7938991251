//! `dance_search` — run (or resume) a guarded differentiable architecture
//! search from the command line.
//!
//! The binary runs the FLOPs-penalty search on the CIFAR-scale benchmark —
//! no evaluator training required, so it starts in seconds — with the full
//! dance-guard stack attached: numeric-health watchdog, periodic atomic
//! checkpoints and bit-for-bit resume.
//!
//! ```text
//! dance_search [--epochs N] [--batch-size N] [--seed N] [--lambda2 F]
//!              [--penalty none|flops] [--checkpoint-dir DIR [--resume]]
//!              [--emit-plan DIR] [--plan-batch N]
//! ```
//!
//! With `--checkpoint-dir DIR`, every epoch ends with an atomic snapshot
//! under `DIR/epoch-NNNN.ckpt`. A killed run restarted with `--resume`
//! (and otherwise identical flags) continues from the latest readable
//! checkpoint in `DIR` and reproduces the uninterrupted run's final
//! architecture parameters exactly; the `arch-digest` line makes that easy
//! to diff.
//!
//! With `--emit-plan DIR`, the finished search's argmax architecture is
//! frozen into an allocation-free inference plan and written to
//! `DIR/plan.dplan` — the searched network as a deployable artifact that
//! `dance_plan` (or any `dance-plan` consumer) can load and run without
//! the training stack.

use std::path::PathBuf;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dance::prelude::*;

struct Args {
    epochs: usize,
    batch_size: usize,
    seed: u64,
    lambda2: f32,
    flops_penalty: bool,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    emit_plan: Option<PathBuf>,
    plan_batch: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: dance_search [--epochs N] [--batch-size N] [--seed N] [--lambda2 F]\n\
         \x20                   [--penalty none|flops] [--checkpoint-dir DIR [--resume]]\n\
         \x20                   [--emit-plan DIR] [--plan-batch N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        epochs: 6,
        batch_size: 64,
        seed: 0,
        lambda2: 0.1,
        flops_penalty: true,
        checkpoint_dir: None,
        resume: false,
        emit_plan: None,
        plan_batch: 64,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--epochs" => args.epochs = parse_num(&value("--epochs"), "--epochs"),
            "--batch-size" => args.batch_size = parse_num(&value("--batch-size"), "--batch-size"),
            "--seed" => args.seed = parse_num(&value("--seed"), "--seed"),
            "--lambda2" => args.lambda2 = parse_num(&value("--lambda2"), "--lambda2"),
            "--penalty" => match value("--penalty").as_str() {
                "none" => args.flops_penalty = false,
                "flops" => args.flops_penalty = true,
                other => {
                    eprintln!("unknown penalty {other:?} (expected none|flops)");
                    usage();
                }
            },
            "--checkpoint-dir" => {
                args.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")));
            }
            "--resume" => args.resume = true,
            "--emit-plan" => args.emit_plan = Some(PathBuf::from(value("--emit-plan"))),
            "--plan-batch" => args.plan_batch = parse_num(&value("--plan-batch"), "--plan-batch"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.resume && args.checkpoint_dir.is_none() {
        eprintln!(
            "--resume needs --checkpoint-dir: a run resumes from the directory it checkpoints into"
        );
        usage();
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?} for {flag}");
        usage();
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let benchmark = Benchmark::cifar(args.seed);

    let cfg = SearchConfig::builder()
        .epochs(args.epochs)
        .batch_size(args.batch_size)
        .seed(args.seed)
        .lambda2(LambdaWarmup::constant(args.lambda2))
        .build()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        });

    let guard = GuardConfig {
        checkpoint: args.checkpoint_dir.map(|dir| CheckpointConfig {
            dir,
            resume: args.resume,
        }),
        ..GuardConfig::default()
    };

    // The model is built from the seed-derived RNG exactly like the
    // pipeline does; on resume, every parameter is then overwritten from
    // the checkpoint, so only the shapes must match.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let supernet = Supernet::new(benchmark.supernet, &mut rng);
    let arch = ArchParams::new(supernet.num_slots(), &mut rng);
    let penalty = if args.flops_penalty {
        Penalty::Flops(&benchmark.template)
    } else {
        Penalty::None
    };
    let outcome = dance_search_guarded(&supernet, &arch, &benchmark.data, &penalty, &cfg, &guard);

    for stats in &outcome.history {
        println!(
            "epoch {:3}  ce {:.4}  entropy {:.4}  lambda2 {:.3}",
            stats.epoch, stats.train_ce, stats.arch_entropy, stats.lambda2
        );
    }
    let choices: Vec<String> = outcome.choices.iter().map(ToString::to_string).collect();
    println!("choices: {}", choices.join(" "));
    // Bit-exact fingerprint of the final architecture parameters, for
    // comparing a resumed run against an uninterrupted one.
    println!("arch-digest: {:016x}", outcome.digest());
    let g = &outcome.guard;
    println!(
        "guard: trips {} rollbacks {} degraded {} resumed {:?} checkpoints {}",
        g.watchdog_trips,
        g.rollbacks,
        g.cost_model_degraded,
        g.resumed_from_epoch,
        g.checkpoints_written
    );
    if let Some(dir) = &args.emit_plan {
        if let Err(e) = emit_plan(&supernet, &outcome.choices, args.plan_batch, dir) {
            eprintln!("cannot emit plan: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Freezes the searched argmax architecture into `DIR/plan.dplan`.
fn emit_plan(
    net: &Supernet,
    choices: &[SlotChoice],
    max_batch: usize,
    dir: &std::path::Path,
) -> Result<(), String> {
    let plan = net
        .freeze_plan(choices, max_batch)
        .map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join("plan.dplan");
    plan.save(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "plan: {} steps, {} buffers, max-batch {} -> {}",
        plan.steps.len(),
        plan.buffers.len(),
        plan.max_batch,
        path.display()
    );
    // A tape-side fingerprint on a fixed all-0.5 probe, folded exactly like
    // `dance_plan --digest` folds the plan's outputs: feeding the same probe
    // row into the emitted artifact must print this same hex.
    let cfg = net.config();
    let probe = net.input_from(&vec![0.5; cfg.input_channels * cfg.length], 1);
    let logits = net.forward(&probe, ForwardMode::Fixed(choices));
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for v in logits.value().data() {
        digest = fnv_fold(digest, u64::from(v.to_bits()));
    }
    println!("tape-digest: {digest:016x}");
    Ok(())
}
