//! Crash/resume determinism: a search resumed from a checkpoint must
//! reproduce the uninterrupted run bit for bit — same final architecture
//! parameters, same loss trajectory.
//!
//! No fault plan needed: the "crash" is simulated by deleting the
//! checkpoints written after the cut point and resuming from what's left,
//! exactly what a killed process leaves on disk.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dance::data::synth::{SynthSpec, SynthTask};
use dance::data::tasks::TaskData;
use dance::prelude::*;

fn tiny_task() -> TaskData {
    let task = SynthTask::new(SynthSpec {
        num_classes: 3,
        channels: 2,
        length: 8,
        noise: 0.2,
        distractor: 0.1,
        seed: 0,
    });
    let train = task.generate(90, 1);
    let val = task.generate(45, 2);
    let test = task.generate(45, 3);
    TaskData {
        task,
        train,
        val,
        test,
    }
}

fn tiny_config() -> SupernetConfig {
    SupernetConfig {
        input_channels: 2,
        length: 8,
        num_classes: 3,
        stem_width: 4,
        stage_widths: [4, 6, 8],
        head_width: 12,
    }
}

fn search_cfg(epochs: usize) -> SearchConfig {
    SearchConfig {
        epochs,
        batch_size: 32,
        lambda2: LambdaWarmup::constant(0.0),
        seed: 7,
        ..SearchConfig::default()
    }
}

/// Runs a guarded search on a freshly built (seed-deterministic) model.
fn run(epochs: usize, guard: &GuardConfig) -> SearchOutcome {
    let cfg = search_cfg(epochs);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = Supernet::new(tiny_config(), &mut rng);
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let data = tiny_task();
    dance_search_guarded(&net, &arch, &data, &Penalty::None, &cfg, guard)
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dance_guard_resume_{name}_{}", std::process::id()))
}

fn prob_bits(out: &SearchOutcome) -> Vec<Vec<u32>> {
    out.probs
        .iter()
        .map(|row| row.iter().map(|p| p.to_bits()).collect())
        .collect()
}

#[test]
fn crash_and_resume_reproduces_the_straight_run_exactly() {
    const EPOCHS: usize = 4;
    let dir_a = temp_dir("straight");
    let dir_b = temp_dir("killed");

    let straight = run(
        EPOCHS,
        &GuardConfig {
            checkpoint: Some(CheckpointConfig {
                dir: dir_a.clone(),
                resume: false,
            }),
            ..GuardConfig::default()
        },
    );
    assert_eq!(straight.guard.checkpoints_written, EPOCHS as u32);
    assert!(straight.guard.resumed_from_epoch.is_none());

    // Same run into a second directory, then "crash" it: delete everything
    // written after epoch 1, the state a kill mid-epoch-2 leaves behind.
    let killed = run(
        EPOCHS,
        &GuardConfig {
            checkpoint: Some(CheckpointConfig {
                dir: dir_b.clone(),
                resume: false,
            }),
            ..GuardConfig::default()
        },
    );
    assert_eq!(prob_bits(&straight), prob_bits(&killed), "seed determinism");
    for late in 2..EPOCHS {
        std::fs::remove_file(dir_b.join(format!("epoch-{late:04}.ckpt")))
            .expect("checkpoint written by the killed run exists");
    }

    let resumed = run(
        EPOCHS,
        &GuardConfig {
            checkpoint: Some(CheckpointConfig {
                dir: dir_b.clone(),
                resume: true,
            }),
            ..GuardConfig::default()
        },
    );
    assert_eq!(resumed.guard.resumed_from_epoch, Some(1));
    // Only the re-run epochs write checkpoints again.
    assert_eq!(resumed.guard.checkpoints_written, (EPOCHS - 2) as u32);

    // Bit-for-bit: final architecture parameters and the whole trajectory.
    assert_eq!(
        prob_bits(&straight),
        prob_bits(&resumed),
        "resumed run diverged from the uninterrupted one"
    );
    assert_eq!(straight.choices, resumed.choices);
    assert_eq!(
        straight.history, resumed.history,
        "loss trajectory must match across the resume (restored prefix + recomputed tail)"
    );

    let _cleanup = std::fs::remove_dir_all(&dir_a);
    let _cleanup = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn resuming_from_an_empty_dir_starts_fresh() {
    let dir = temp_dir("empty");
    std::fs::create_dir_all(&dir).expect("create empty checkpoint dir");
    let plain = run(2, &GuardConfig::default());
    let resumed = run(
        2,
        &GuardConfig {
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                resume: true,
            }),
            ..GuardConfig::default()
        },
    );
    assert!(resumed.guard.resumed_from_epoch.is_none());
    assert_eq!(prob_bits(&plain), prob_bits(&resumed));
    let _cleanup = std::fs::remove_dir_all(&dir);
}
