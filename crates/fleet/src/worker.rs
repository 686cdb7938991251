//! The fleet worker: runs one leased search job with checkpoint handoff.
//!
//! [`run_job`] is the single execution path every worker flavor shares —
//! in-process threads (the supervisor's own pool, used by `dance-serve`
//! and by every campaign) and child processes (`dance_fleet --worker`)
//! both call it. The job spec fully determines the search (dataset,
//! supernet init and RNG all derive from its seeds), checkpoints land
//! under a per-job directory, and a re-dispatched attempt resumes from the
//! last durable checkpoint — so a recovered run reproduces the
//! uninterrupted run's `arch-digest` bit-for-bit. Each epoch ends in the
//! same order: the checkpoint lands, the epoch's derived architecture and
//! held-out accuracy are recorded in the trajectory file beside it, and
//! only then does the heartbeat fire, which is what makes a heartbeat an
//! honest claim: "everything up to here survives my death." A resumed
//! attempt first deletes any checkpoint newer than its last recorded
//! point, so an epoch whose record a kill lost is run again rather than
//! resumed past, and the finished job's trajectory equals the
//! uninterrupted run's.
//!
//! The process entry point ([`worker_main`]) takes its job as
//! `--spec '<JSON>'`, the spec fields the ledger stores, written and read
//! by the same [`JobSpec`] codec, plus `--ckpt`, `--resume` and the chaos
//! flags ([`WorkerArgs`]). It speaks v1 NDJSON on stdout — `hb` / `done` /
//! `failed` events — and exits nonzero on failure. Chaos knobs
//! ([`AttemptChaos`]) script the drills: die after an epoch, or stall — stop
//! heartbeating and hold until the lease is gone. A stalled child blocks on
//! its stdin, which the supervisor holds open, so it ends at the sweep's
//! `SIGKILL` or when its supervisor exits, and never outlives it.

use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use dance::prelude::{
    dance_search_traced, evaluate_fixed, ArchParams, Benchmark, CheckpointConfig, GuardConfig,
    Penalty, Supernet,
};
use dance_guard::checkpoint::{atomic_write_text, CheckpointStore};
use dance_telemetry::json;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ledger::{parse_trajectory, render_trajectory, EpochPoint, JobResult, JobSpec};

/// Scripted misbehavior for one attempt: the fleet's one per-attempt fault
/// script. A thread attempt applies it in its heartbeat hook, and a child
/// gets it as `--kill-after` and `--stall-from`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttemptChaos {
    /// Die (no unwind, exit code 9) right after this epoch's heartbeat.
    pub kill_after: Option<usize>,
    /// Stop heartbeating from this epoch on and hold until the lease is
    /// gone or the fleet shuts down. A thread attempt then runs on to a
    /// result that fencing discards; a child ends.
    pub stall_from: Option<usize>,
}

/// The file beside a job's checkpoints that records its trajectory.
const TRAJECTORY_FILE: &str = "trajectory.json";

/// Runs one attempt of `spec`, checkpointing every epoch under
/// `ckpt_dir` and (when `resume` is set) resuming from the latest good
/// checkpoint there that is not newer than the last recorded point. After
/// each epoch's checkpoint is durable, the epoch's derived architecture
/// and held-out accuracy are recorded beside it, and then `on_epoch` fires
/// — the heartbeat hook.
///
/// # Panics
///
/// Panics with the [`JobSpec::search_config`] error when the spec is out of
/// range, which fails the job on either transport (the supervisor refuses
/// such specs at submission, so only an older ledger's can get here), when
/// a checkpoint past the last recorded point cannot be deleted, and under
/// the same conditions as `dance_search_guarded`.
pub fn run_job(
    spec: &JobSpec,
    ckpt_dir: &Path,
    resume: bool,
    on_epoch: &mut dyn FnMut(usize),
) -> JobResult {
    let cfg = spec
        .search_config()
        .unwrap_or_else(|e| panic!("invalid job spec: {e}"));
    let bench = Benchmark::tiny(spec.data_seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = Supernet::new(bench.supernet, &mut rng);
    let arch = ArchParams::new(bench.template.num_slots(), &mut rng);
    let penalty = if spec.flops_penalty {
        Penalty::Flops(&bench.template)
    } else {
        Penalty::None
    };
    let guard_cfg = GuardConfig {
        checkpoint: Some(CheckpointConfig {
            dir: ckpt_dir.to_path_buf(),
            resume,
        }),
        ..GuardConfig::default()
    };
    let mut trajectory = if resume {
        resume_trajectory(ckpt_dir)
    } else {
        Vec::new()
    };
    let out = dance_search_traced(
        &net,
        &arch,
        &bench.data,
        &penalty,
        &cfg,
        &guard_cfg,
        &mut |s| {
            let choices = arch.derive();
            // Reads no RNG and no running statistics, so the search goes
            // on exactly as it would without the record.
            let accuracy = evaluate_fixed(&net, &choices, &bench.data);
            // A re-run epoch replaces its recorded point.
            trajectory.truncate(s.epoch);
            trajectory.push(EpochPoint {
                choices: choices.iter().map(|c| c.index() as u8).collect(),
                accuracy_bits: accuracy.to_bits(),
            });
            // Like a checkpoint's, a failed record never aborts the search:
            // the result still carries the point, and a resume re-runs the
            // epoch.
            if let Err(e) = save_trajectory(ckpt_dir, &trajectory) {
                eprintln!("dance-fleet: cannot record epoch {}: {e}", s.epoch);
            }
            on_epoch(s.epoch);
        },
    );
    JobResult {
        digest: out.digest(),
        epochs: out.history.len() as u64,
        choices: out.choices.iter().map(|c| c.index() as u8).collect(),
        final_entropy_bits: out.history.last().map(|s| s.arch_entropy.to_bits()),
        guard: out.guard,
        trajectory,
    }
}

/// The points an earlier attempt recorded under `dir`, after deleting
/// every checkpoint newer than the last of them (all of them when none was
/// recorded): a kill between an epoch's checkpoint and its record leaves a
/// checkpoint whose point is missing, and resuming past it would lose the
/// point.
fn resume_trajectory(dir: &Path) -> Vec<EpochPoint> {
    let points = load_trajectory(dir);
    let store = CheckpointStore::new(dir);
    for (epoch, path) in store.list() {
        if epoch >= points.len() {
            std::fs::remove_file(&path)
                .unwrap_or_else(|e| panic!("cannot prune {}: {e}", path.display()));
        }
    }
    points
}

/// The trajectory recorded under `dir`; empty when there is none or it
/// does not parse, which makes a resume start over.
fn load_trajectory(dir: &Path) -> Vec<EpochPoint> {
    std::fs::read_to_string(dir.join(TRAJECTORY_FILE))
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
        .and_then(|doc| parse_trajectory(doc.get("trajectory").ok_or("no trajectory")?))
        .unwrap_or_default()
}

/// Atomically rewrites the trajectory file under `dir`.
fn save_trajectory(dir: &Path, points: &[EpochPoint]) -> std::io::Result<()> {
    let mut text = String::from("{\"trajectory\":");
    render_trajectory(points, &mut text);
    text.push('}');
    atomic_write_text(dir.join(TRAJECTORY_FILE), &text)
}

/// Parsed `dance_fleet --worker` command line: `--spec`, `--ckpt`,
/// `--resume`, `--kill-after` and `--stall-from`.
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
        let mut spec: Option<JobSpec> = None;
        let mut ckpt: Option<PathBuf> = None;
        let mut resume = false;
        let mut chaos = AttemptChaos::default();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = |flag: &str| -> Result<&String, String> {
                it.next().ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--spec" => {
                    let s = value("--spec")?;
                    let parsed = json::parse(s).and_then(|doc| JobSpec::parse(&doc));
                    spec = Some(parsed.map_err(|e| format!("bad --spec {s:?}: {e}"))?);
                }
                "--ckpt" => ckpt = Some(PathBuf::from(value("--ckpt")?)),
                "--resume" => resume = true,
                "--kill-after" => {
                    chaos.kill_after = Some(parse_num(value("--kill-after")?, "--kill-after")?);
                }
                "--stall-from" => {
                    chaos.stall_from = Some(parse_num(value("--stall-from")?, "--stall-from")?);
                }
                other => return Err(format!("unknown worker flag {other:?}")),
            }
        }
        Ok(Self {
            spec: spec.ok_or("--spec is required")?,
            ckpt: ckpt.ok_or("--ckpt is required")?,
            resume,
            chaos,
        })
    }

    /// Renders this invocation back into child-process arguments —
    /// the inverse of [`WorkerArgs::parse`], used to spawn a worker child.
    /// The spec travels as one JSON object of [`JobSpec::render_fields`].
    #[must_use]
    pub fn to_argv(&self) -> Vec<String> {
        let mut spec = String::new();
        self.spec.render_fields(&mut spec);
        let mut argv = vec![
            "--spec".to_string(),
            format!("{{{}}}", spec.trim_start_matches(',')),
            "--ckpt".to_string(),
            self.ckpt.to_string_lossy().into_owned(),
        ];
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
        argv
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad value {s:?} for {flag}"))
}

/// Exit code a chaos-killed worker dies with, and a stalled one once its
/// stdin closes.
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
    let hb_id = id.clone();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_job(&args.spec, &args.ckpt, args.resume, &mut |epoch| {
            if chaos.stall_from.is_some_and(|s| epoch >= s) {
                // Stalled: no more heartbeats. Block on stdin, open while
                // the supervisor holds it: this ends at the sweep's SIGKILL,
                // or at EOF once the supervisor closes it or exits.
                let _eof = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
                std::process::exit(KILLED_EXIT);
            }
            emit_line(&format!(
                "{{\"v\":1,\"event\":\"hb\",\"job\":\"{hb_id}\",\"epoch\":{epoch}}}"
            ));
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
            json::push_escaped(&mut line, &msg);
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
    use crate::tmp_dir;

    #[test]
    fn worker_args_round_trip_through_argv() {
        // Shaped like a campaign cell, so both spec fields that leave their
        // defaults ride `--spec` too.
        let spec = JobSpec {
            data_seed: 1 << 60,
            warmup: 3,
            ..JobSpec::new(6, 32, 11, 0.25)
        };
        let args = WorkerArgs {
            spec,
            ckpt: PathBuf::from("/tmp/ckpt/fjob-x"),
            resume: true,
            chaos: AttemptChaos {
                kill_after: Some(2),
                stall_from: Some(1),
            },
        };
        let back = WorkerArgs::parse(&args.to_argv()).expect("argv parses");
        assert_eq!(back, args);
    }

    #[test]
    fn worker_args_carry_a_spec_exactly() {
        // Unlike a JSON number on the wire, the hex seed survives past 2^53.
        let args = WorkerArgs {
            spec: JobSpec {
                flops_penalty: false,
                ..JobSpec::new(2, 32, 1 << 60, 0.1)
            },
            ckpt: PathBuf::from("/tmp/ckpt/fjob-y"),
            resume: false,
            chaos: AttemptChaos::default(),
        };
        let argv = args.to_argv();
        assert_eq!(
            argv[..2],
            [
                "--spec",
                r#"{"epochs":2,"batch":32,"seed":"1000000000000000","lambda2":"000000003dcccccd","penalty":"none"}"#
            ]
        );
        assert_eq!(WorkerArgs::parse(&argv).expect("argv parses"), args);
    }

    #[test]
    fn worker_args_reject_garbage() {
        let bad = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(ToString::to_string).collect();
            WorkerArgs::parse(&argv).expect_err("must reject")
        };
        let spec =
            r#"{"epochs":2,"batch":32,"seed":"0000000000000007","lambda2":"000000003dcccccd"}"#;
        assert!(bad(&["--spec"]).contains("missing value"));
        assert!(bad(&["--spec", "x", "--ckpt", "/tmp/c"]).contains("bad --spec"));
        assert!(bad(&["--spec", r#"{"epochs":2}"#, "--ckpt", "/tmp/c"]).contains("bad --spec"));
        let fractional = spec.replace(r#""epochs":2"#, r#""epochs":2.5"#);
        assert!(bad(&["--spec", &fractional, "--ckpt", "/tmp/c"]).contains("epochs"));
        assert!(bad(&["--wat"]).contains("unknown worker flag"));
        assert!(bad(&["--epochs", "2"]).contains("unknown worker flag"));
        assert!(bad(&["--ckpt", "/tmp/c"]).contains("--spec is required"));
        assert!(bad(&["--spec", spec]).contains("--ckpt is required"));
        assert!(
            bad(&["--spec", spec, "--ckpt", "/tmp/c", "--stall-from", "x"]).contains("bad value")
        );
    }

    #[test]
    fn interrupted_attempt_resumes_to_the_same_digest() {
        let straight_dir = tmp_dir("worker_straight");
        let handoff_dir = tmp_dir("worker_handoff");
        let spec = JobSpec::new(4, 16, 13, 0.1);

        let straight = run_job(&spec, &straight_dir, false, &mut |_| {});
        assert_eq!(straight.trajectory.len(), 4, "one point per epoch");
        let last = straight.trajectory.last().expect("a last point");
        assert_eq!(
            last.choices, straight.choices,
            "the last point is the result"
        );

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
        // Make it a death between epoch 1's checkpoint and its record.
        let mut recorded = load_trajectory(&handoff_dir);
        assert_eq!(
            recorded,
            straight.trajectory[..2],
            "epochs 0 and 1 recorded"
        );
        recorded.pop();
        save_trajectory(&handoff_dir, &recorded).expect("rewrite the record");

        // Second attempt prunes epoch 1's checkpoint, resumes from epoch 0,
        // runs epoch 1 again and lands on the uninterrupted run exactly.
        let resumed = run_job(&spec, &handoff_dir, true, &mut |_| {});
        assert_eq!(resumed.digest, straight.digest, "handoff must be bit-exact");
        assert_eq!(resumed.epochs, straight.epochs);
        assert_eq!(resumed.trajectory, straight.trajectory);
        assert_eq!(resumed.guard.resumed_from_epoch, Some(0));

        let _cleanup = std::fs::remove_dir_all(&straight_dir);
        let _cleanup2 = std::fs::remove_dir_all(&handoff_dir);
    }
}
