//! The fleet worker: runs one leased search job with checkpoint handoff.
//!
//! [`run_job`] is the single execution path every worker flavor shares —
//! in-process threads (the supervisor's own pool, used by `dance-serve`)
//! and child processes (`dance_fleet --worker`) both call it. The job spec
//! fully determines the search (benchmark, supernet init and RNG all derive
//! from the seed), checkpoints land under a per-job directory, and a
//! re-dispatched attempt resumes from the last durable checkpoint — so a
//! recovered run reproduces the uninterrupted run's `arch-digest`
//! bit-for-bit. The per-epoch observer fires only *after* that epoch's
//! checkpoint is durable, which is what makes a heartbeat an honest claim:
//! "everything up to here survives my death."
//!
//! The process entry point ([`worker_main`]) speaks v1 NDJSON on stdout —
//! `hb` / `done` / `failed` events — and exits nonzero on failure. Chaos
//! knobs ([`AttemptChaos`]) script the drills: die after an epoch, stop
//! heartbeating, or run slow while staying alive.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use dance::prelude::{
    dance_search_traced, ArchParams, Benchmark, CheckpointConfig, GuardConfig, LambdaWarmup,
    Penalty, SearchConfig, Supernet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ledger::{JobResult, JobSpec};

/// Scripted misbehavior for one attempt — the process-level half of
/// `dance-guard`'s `FaultPlan`, carried as plain knobs so the worker binary
/// and the in-process pool can drill recovery without compile-time feature
/// gymnastics at every call site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptChaos {
    /// Die (no unwind, exit code 9) right after this epoch's heartbeat.
    pub kill_after: Option<usize>,
    /// Stop heartbeating from this epoch on, while continuing to compute.
    pub stall_from: Option<usize>,
    /// Extra sleep per epoch, heartbeats still flowing.
    pub slow_ms: Option<u64>,
}

impl AttemptChaos {
    /// Whether nothing is scripted.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }

    /// Extracts the process-level faults from a guard [`FaultPlan`].
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn from_plan(plan: &dance_guard::fault::FaultPlan) -> Self {
        Self {
            kill_after: plan.kill_worker_after(),
            stall_from: plan.stall_heartbeat_from(),
            slow_ms: plan.slow_peer_ms(),
        }
    }
}

/// Runs one attempt of `spec`, checkpointing every epoch under
/// `ckpt_dir` and (when `resume` is set) resuming from the latest good
/// checkpoint there. `on_epoch` fires after each epoch's checkpoint is
/// durable — the heartbeat hook.
///
/// # Panics
///
/// Panics if the spec fails [`SearchConfig`] validation (the supervisor
/// validates at submission time, so this indicates a caller bug) and under
/// the same conditions as `dance_search_guarded`.
pub fn run_job(
    spec: &JobSpec,
    ckpt_dir: &Path,
    resume: bool,
    on_epoch: &mut dyn FnMut(usize),
) -> JobResult {
    let cfg = SearchConfig::builder()
        .epochs(usize::try_from(spec.epochs).unwrap_or(64).clamp(1, 64))
        .batch_size(usize::try_from(spec.batch).unwrap_or(32).clamp(2, 256))
        .lambda2(LambdaWarmup::ramp(spec.lambda2(), 1))
        .seed(spec.seed)
        .build()
        .expect("fleet job spec failed validation after submission");
    let bench = Benchmark::tiny(cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = Supernet::new(bench.supernet, &mut rng);
    let arch = ArchParams::new(bench.template.num_slots(), &mut rng);
    let penalty = if spec.flops_penalty {
        Penalty::Flops(&bench.template)
    } else {
        Penalty::None
    };
    let guard_cfg = GuardConfig {
        checkpoint: Some(CheckpointConfig::every_epoch(ckpt_dir.to_path_buf())),
        resume_from: resume.then(|| ckpt_dir.to_path_buf()),
        ..GuardConfig::default()
    };
    let out = dance_search_traced(
        &net,
        &arch,
        &bench.data,
        &penalty,
        &cfg,
        &guard_cfg,
        &mut |s| {
            on_epoch(s.epoch);
        },
    );
    JobResult {
        digest: out.digest(),
        epochs: out.history.len() as u64,
        choices: out.choices.iter().map(|c| c.index() as u8).collect(),
        final_entropy_bits: out.history.last().map(|s| s.arch_entropy.to_bits()),
        guard: out.guard,
    }
}

/// Parsed `dance_fleet --worker` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerArgs {
    /// The job to run.
    pub spec: JobSpec,
    /// Per-job checkpoint directory.
    pub ckpt: PathBuf,
    /// Resume from the latest good checkpoint under `ckpt`.
    pub resume: bool,
    /// Scripted misbehavior for this attempt.
    pub chaos: AttemptChaos,
}

impl WorkerArgs {
    /// Parses the flags that follow `--worker`.
    ///
    /// # Errors
    ///
    /// Returns a usage-style message naming the first bad or missing flag.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut epochs = 4u64;
        let mut batch = 32u64;
        let mut seed = 0u64;
        let mut lambda2_bits = 0.1f32.to_bits();
        let mut flops_penalty = true;
        let mut ckpt: Option<PathBuf> = None;
        let mut resume = false;
        let mut chaos = AttemptChaos::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |flag: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--epochs" => epochs = parse_num(value("--epochs")?, "--epochs")?,
                "--batch" => batch = parse_num(value("--batch")?, "--batch")?,
                "--seed" => seed = parse_num(value("--seed")?, "--seed")?,
                "--lambda2-bits" => {
                    let s = value("--lambda2-bits")?;
                    lambda2_bits = u32::from_str_radix(s, 16)
                        .map_err(|_| format!("bad hex value {s:?} for --lambda2-bits"))?;
                }
                "--no-penalty" => flops_penalty = false,
                "--ckpt" => ckpt = Some(PathBuf::from(value("--ckpt")?)),
                "--resume" => resume = true,
                "--kill-after" => {
                    chaos.kill_after = Some(parse_num(value("--kill-after")?, "--kill-after")?);
                }
                "--stall-from" => {
                    chaos.stall_from = Some(parse_num(value("--stall-from")?, "--stall-from")?);
                }
                "--slow-ms" => chaos.slow_ms = Some(parse_num(value("--slow-ms")?, "--slow-ms")?),
                other => return Err(format!("unknown worker flag {other:?}")),
            }
        }
        Ok(Self {
            spec: JobSpec {
                epochs,
                batch,
                seed,
                lambda2_bits,
                flops_penalty,
            },
            ckpt: ckpt.ok_or("--ckpt is required")?,
            resume,
            chaos,
        })
    }

    /// Renders this invocation back into child-process arguments —
    /// the inverse of [`WorkerArgs::parse`], used to spawn a worker child.
    #[must_use]
    pub fn to_argv(&self) -> Vec<String> {
        let mut argv = vec![
            "--epochs".to_string(),
            self.spec.epochs.to_string(),
            "--batch".to_string(),
            self.spec.batch.to_string(),
            "--seed".to_string(),
            self.spec.seed.to_string(),
            "--lambda2-bits".to_string(),
            format!("{:08x}", self.spec.lambda2_bits),
            "--ckpt".to_string(),
            self.ckpt.to_string_lossy().into_owned(),
        ];
        if !self.spec.flops_penalty {
            argv.push("--no-penalty".to_string());
        }
        if self.resume {
            argv.push("--resume".to_string());
        }
        if let Some(e) = self.chaos.kill_after {
            argv.push("--kill-after".to_string());
            argv.push(e.to_string());
        }
        if let Some(e) = self.chaos.stall_from {
            argv.push("--stall-from".to_string());
            argv.push(e.to_string());
        }
        if let Some(ms) = self.chaos.slow_ms {
            argv.push("--slow-ms".to_string());
            argv.push(ms.to_string());
        }
        argv
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {flag}"))
}

/// Exit code a chaos-killed worker dies with.
pub const KILLED_EXIT: i32 = 9;

/// The `dance_fleet --worker` process body: runs one attempt, heartbeating
/// v1 NDJSON on stdout. Returns the process exit code (0 done, 1 failed,
/// 2 usage). A scripted kill does not return — it exits the process dead.
pub fn worker_main(argv: &[String]) -> i32 {
    let args = match WorkerArgs::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dance_fleet --worker: {e}");
            return 2;
        }
    };
    let id = args.spec.job_id();
    let chaos = args.chaos;
    let mut stalled = false;
    let hb_id = id.clone();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_job(&args.spec, &args.ckpt, args.resume, &mut |epoch| {
            if let Some(ms) = chaos.slow_ms {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            if chaos.stall_from.is_some_and(|s| epoch >= s) {
                stalled = true;
            }
            if !stalled {
                emit_line(&format!(
                    "{{\"v\":1,\"event\":\"hb\",\"job\":\"{hb_id}\",\"epoch\":{epoch}}}"
                ));
            }
            // The scripted death happens *after* the heartbeat: the epoch
            // is durable and claimed, then the process vanishes — exactly
            // the window a SIGKILL drill has to get right.
            if chaos.kill_after == Some(epoch) {
                std::process::exit(KILLED_EXIT);
            }
        })
    }));
    match result {
        Ok(result) => {
            let mut line = format!("{{\"v\":1,\"event\":\"done\",\"job\":\"{id}\"");
            result.render_fields(&mut line);
            line.push('}');
            emit_line(&line);
            0
        }
        Err(panic) => {
            let msg = panic_message(panic.as_ref());
            let mut line = format!("{{\"v\":1,\"event\":\"failed\",\"job\":\"{id}\",\"error\":");
            dance_telemetry::json::push_escaped(&mut line, &msg);
            line.push('}');
            emit_line(&line);
            1
        }
    }
}

/// Writes one NDJSON line to stdout and flushes — the pipe to the
/// supervisor is block-buffered, and a buffered heartbeat is no heartbeat.
fn emit_line(line: &str) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let _unused = writeln!(out, "{line}");
    // analyze:allow(lock-across-dispatch) stdout lock IS the line serialization point; flush under it keeps each NDJSON line atomic
    let _unused = out.flush();
}

/// Best-effort panic payload extraction.
#[must_use]
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dance_fleet_{name}_{}", std::process::id()));
        let _unused = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn worker_args_round_trip_through_argv() {
        let args = WorkerArgs {
            spec: JobSpec::new(6, 32, 11, 0.25),
            ckpt: PathBuf::from("/tmp/ckpt/fjob-x"),
            resume: true,
            chaos: AttemptChaos {
                kill_after: Some(2),
                stall_from: None,
                slow_ms: Some(5),
            },
        };
        let back = WorkerArgs::parse(&args.to_argv()).expect("argv parses");
        assert_eq!(back, args);
    }

    #[test]
    fn worker_args_carry_a_spec_without_the_penalty() {
        let args = WorkerArgs {
            spec: JobSpec {
                flops_penalty: false,
                ..JobSpec::new(2, 32, 7, 0.1)
            },
            ckpt: PathBuf::from("/tmp/ckpt/fjob-y"),
            resume: false,
            chaos: AttemptChaos::default(),
        };
        let argv = args.to_argv();
        assert!(argv.contains(&"--no-penalty".to_string()));
        assert_eq!(WorkerArgs::parse(&argv).expect("argv parses"), args);
    }

    #[test]
    fn worker_args_reject_garbage() {
        let bad = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
            WorkerArgs::parse(&argv).expect_err("must reject")
        };
        assert!(bad(&["--epochs"]).contains("missing value"));
        assert!(bad(&["--epochs", "x", "--ckpt", "/tmp/c"]).contains("bad value"));
        assert!(bad(&["--wat"]).contains("unknown worker flag"));
        assert!(bad(&["--epochs", "2"]).contains("--ckpt is required"));
        assert!(bad(&["--lambda2-bits", "zz", "--ckpt", "/tmp/c"]).contains("bad hex"));
    }

    #[test]
    fn interrupted_attempt_resumes_to_the_same_digest() {
        let straight_dir = tmp_dir("worker_straight");
        let handoff_dir = tmp_dir("worker_handoff");
        let spec = JobSpec::new(4, 16, 13, 0.1);

        let straight = run_job(&spec, &straight_dir, false, &mut |_| {});

        // First attempt "dies" after epoch 1: stop the search by panicking
        // from the observer once epoch 1's checkpoint is durable.
        let first = catch_unwind(AssertUnwindSafe(|| {
            run_job(&spec, &handoff_dir, false, &mut |epoch| {
                assert!(epoch <= 1, "must die after epoch 1");
                if epoch == 1 {
                    panic!("FLEET_TEST_KILL");
                }
            })
        }));
        assert!(first.is_err(), "first attempt must die");

        // Second attempt resumes from the durable checkpoint and lands on
        // the exact digest of the uninterrupted run.
        let resumed = run_job(&spec, &handoff_dir, true, &mut |_| {});
        assert_eq!(resumed.digest, straight.digest, "handoff must be bit-exact");
        assert_eq!(resumed.epochs, straight.epochs);
        assert_eq!(resumed.guard.resumed_from_epoch, Some(1));

        let _cleanup = std::fs::remove_dir_all(&straight_dir);
        let _cleanup2 = std::fs::remove_dir_all(&handoff_dir);
    }
}
