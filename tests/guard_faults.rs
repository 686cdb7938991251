//! Fault-injection suite: drives every dance-guard recovery path with
//! scripted faults and asserts the search survives them, and pins that a
//! plan which never fires leaves the search, and its checkpoints,
//! bit-identical at every hook.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dance::data::synth::{SynthSpec, SynthTask};
use dance::data::tasks::TaskData;
use dance::evaluator::cost_net::CostNet;
use dance::evaluator::hwgen_net::HwGenNet;
use dance::guard::fault::{Fault, FaultPlan};
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
        seed: 11,
        ..SearchConfig::default()
    }
}

fn run(epochs: usize, guard: &GuardConfig) -> SearchOutcome {
    run_with_penalty(epochs, guard, &Penalty::None)
}

fn run_with_penalty(epochs: usize, guard: &GuardConfig, penalty: &Penalty<'_>) -> SearchOutcome {
    let cfg = search_cfg(epochs);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = Supernet::new(tiny_config(), &mut rng);
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let data = tiny_task();
    dance_search_guarded(&net, &arch, &data, penalty, &cfg, guard)
}

/// An untrained evaluator: enough to drive the evaluator penalty's arch
/// step, whose cost output these tests override or only compare.
fn untrained_evaluator() -> Evaluator {
    let mut eval_rng = StdRng::seed_from_u64(99);
    let arch_width = 9 * 7;
    let hwgen = HwGenNet::new(arch_width, 16, &mut eval_rng);
    let cost_net = CostNet::new(arch_width, 16, &mut eval_rng);
    Evaluator::without_feature_forwarding(hwgen, cost_net, arch_width)
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dance_guard_fault_{name}_{}", std::process::id()))
}

fn prob_bits(out: &SearchOutcome) -> Vec<Vec<u32>> {
    out.probs
        .iter()
        .map(|row| row.iter().map(|p| p.to_bits()).collect())
        .collect()
}

fn counter(name: &str) -> u64 {
    dance_telemetry::metrics::snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

#[test]
fn nan_loss_trips_the_watchdog_and_rolls_back() {
    let out = run(
        3,
        &GuardConfig {
            fault_plan: Some(FaultPlan::new().with(Fault::NanLoss { step: 5 })),
            ..GuardConfig::default()
        },
    );
    assert!(out.guard.watchdog_trips >= 1, "NaN loss must trip");
    assert!(out.guard.rollbacks >= 1, "trip must roll back");
    // Monotone step counters: the fault does not re-fire on the retried
    // epoch, so the search completes all epochs with a healthy model.
    assert_eq!(out.history.len(), 3);
    assert_eq!(out.choices.len(), 9);
    for row in &out.probs {
        assert!(
            row.iter().all(|p| p.is_finite()),
            "non-finite probs: {row:?}"
        );
    }
    for stats in &out.history {
        assert!(stats.train_ce.is_finite());
    }
}

#[test]
fn poisoned_parameter_is_caught_by_the_scan() {
    let out = run(
        2,
        &GuardConfig {
            fault_plan: Some(FaultPlan::new().with(Fault::NanTensor {
                name: "supernet.0".to_string(),
                step: 4,
            })),
            ..GuardConfig::default()
        },
    );
    assert!(
        out.guard.watchdog_trips >= 1,
        "poisoned weight must be found"
    );
    assert_eq!(out.history.len(), 2);
    for row in &out.probs {
        assert!(row.iter().all(|p| p.is_finite()));
    }
}

#[test]
fn truncated_checkpoint_is_skipped_and_resume_still_matches() {
    const EPOCHS: usize = 4;
    let dir = temp_dir("truncated");

    // Reference: the same run, uninterrupted and unfaulted.
    let straight = run(EPOCHS, &GuardConfig::default());

    // Crash after epoch 2, with epoch 2's checkpoint destroyed mid-write.
    let crashed = run(
        EPOCHS,
        &GuardConfig {
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                resume: false,
            }),
            fault_plan: Some(
                FaultPlan::new()
                    .with(Fault::CorruptCheckpoint { epoch: 2 })
                    .with(Fault::CrashAfterEpoch { epoch: 2 }),
            ),
            ..GuardConfig::default()
        },
    );
    assert!(crashed.guard.aborted_by_fault);
    assert_eq!(crashed.guard.checkpoints_written, 3);

    let before = counter("guard.checkpoint.skipped");
    let resumed = run(
        EPOCHS,
        &GuardConfig {
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                resume: true,
            }),
            ..GuardConfig::default()
        },
    );
    // The torn epoch-2 file must be skipped for the good epoch-1 one...
    assert_eq!(resumed.guard.resumed_from_epoch, Some(1));
    assert!(
        counter("guard.checkpoint.skipped") > before,
        "skipping a corrupt checkpoint must be counted"
    );
    // ...and the recomputed tail still lands exactly on the straight run.
    assert_eq!(prob_bits(&straight), prob_bits(&resumed));
    assert_eq!(straight.history, resumed.history);

    let _cleanup = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_cost_net_output_degrades_to_the_analytic_fallback() {
    // An untrained evaluator is fine here: the fault overrides its output.
    let cfg = search_cfg(2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let net = Supernet::new(tiny_config(), &mut rng);
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let data = tiny_task();
    let evaluator = untrained_evaluator();
    let penalty = Penalty::Evaluator {
        evaluator: &evaluator,
        cost_fn: CostFunction::Edap,
        reference: 1.0,
    };
    let fallback = AnalyticCostModel::from_parts([1.0, 1.0, 1.0], &vec![vec![[0.1, 0.1]; 7]; 9]);
    let guard = GuardConfig {
        cost_fallback: Some(fallback),
        fault_plan: Some(FaultPlan::new().with(Fault::CostGarbage {
            from_step: 0,
            value: f32::NAN,
        })),
        ..GuardConfig::default()
    };

    let before = counter("guard.degrade.cost_model");
    let out = dance_search_guarded(&net, &arch, &data, &penalty, &cfg, &guard);
    assert!(
        out.guard.cost_model_degraded,
        "NaN cost output must degrade"
    );
    assert!(
        counter("guard.degrade.cost_model") > before,
        "guard.degrade.cost_model must be counted"
    );
    // The fallback keeps the HW term alive and finite.
    assert_eq!(out.history.len(), 2);
    for stats in &out.history {
        assert!(stats.hw_cost.is_finite());
        assert!(stats.hw_cost > 0.0, "fallback HW term should contribute");
    }
}

#[test]
fn a_plan_that_never_fires_leaves_the_search_bit_identical() {
    let with_plan = |fault_plan| {
        run(
            3,
            &GuardConfig {
                fault_plan,
                ..GuardConfig::default()
            },
        )
    };
    let bare = with_plan(None);
    let empty = with_plan(Some(FaultPlan::new()));
    let late = with_plan(Some(
        FaultPlan::new()
            .with(Fault::NanLoss { step: 10_000 })
            .with(Fault::CrashAfterEpoch { epoch: 99 }),
    ));
    for out in [&empty, &late] {
        assert_eq!(prob_bits(out), prob_bits(&bare));
        assert_eq!(out.history, bare.history);
        assert_eq!(out.guard, bare.guard);
    }

    // The cost-garbage hook sits in the evaluator penalty's arch step and
    // the corruption hook in checkpoint save, so this case reaches both,
    // again with a plan scripted past the run's end.
    let evaluator = untrained_evaluator();
    let penalty = Penalty::Evaluator {
        evaluator: &evaluator,
        cost_fn: CostFunction::Edap,
        reference: 1.0,
    };
    let checkpointed = |name: &str, fault_plan| {
        let dir = temp_dir(name);
        let _fresh = std::fs::remove_dir_all(&dir);
        let guard = GuardConfig {
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                resume: false,
            }),
            fault_plan,
            ..GuardConfig::default()
        };
        (run_with_penalty(3, &guard, &penalty), dir)
    };
    let (bare, bare_dir) = checkpointed("inert_bare", None);
    let (late, late_dir) = checkpointed(
        "inert_late",
        Some(
            FaultPlan::new()
                .with(Fault::CostGarbage {
                    from_step: 10_000,
                    value: f32::NAN,
                })
                .with(Fault::CorruptCheckpoint { epoch: 99 }),
        ),
    );
    assert!(
        !bare.guard.cost_model_degraded,
        "the evaluator must stay live, so every arch step asks the plan"
    );
    assert_eq!(bare.guard.checkpoints_written, 3);
    assert_eq!(prob_bits(&late), prob_bits(&bare));
    assert_eq!(late.history, bare.history);
    assert_eq!(late.guard, bare.guard);
    for epoch in 0..3 {
        let name = format!("epoch-{epoch:04}.ckpt");
        let read = |dir: &PathBuf| std::fs::read(dir.join(&name)).expect("checkpoint written");
        assert_eq!(read(&late_dir), read(&bare_dir), "{name} differs");
    }
    let _cleanup = std::fs::remove_dir_all(&bare_dir);
    let _cleanup = std::fs::remove_dir_all(&late_dir);
}
