//! Behavioural integration tests of the search machinery: warm-up collapse,
//! persistence through a full pipeline, and the cost table as a drop-in for
//! the full model.

use dance::prelude::*;
use rand::SeedableRng;

fn tiny_task() -> TaskData {
    let task = SynthTask::new(SynthSpec {
        num_classes: 3,
        channels: 2,
        length: 8,
        noise: 0.25,
        distractor: 0.15,
        seed: 0,
    });
    TaskData {
        train: task.generate(120, 1),
        val: task.generate(60, 2),
        test: task.generate(60, 3),
        task,
    }
}

fn tiny_supernet_config() -> SupernetConfig {
    SupernetConfig {
        input_channels: 2,
        length: 8,
        num_classes: 3,
        stem_width: 4,
        stage_widths: [4, 6, 8],
        head_width: 12,
    }
}

#[test]
fn no_warmup_with_huge_lambda_collapses_toward_zero_ops() {
    // The §3.4 failure mode: constant large λ₂ from epoch 0 selects Zero
    // everywhere (cheap beats accurate before the weights learn anything).
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let net = Supernet::new(tiny_supernet_config(), &mut rng);
    let arch = ArchParams::new(9, &mut rng);
    let data = tiny_task();
    let template = NetworkTemplate::cifar10();
    let cfg = SearchConfig {
        epochs: 12,
        batch_size: 32,
        lr_arch: 0.05,
        lambda2: LambdaWarmup::constant(8.0),
        ..SearchConfig::default()
    };
    let out = dance_search(&net, &arch, &data, &Penalty::Flops(&template), &cfg);
    let zeros = out
        .choices
        .iter()
        .filter(|c| **c == SlotChoice::Zero)
        .count();
    assert!(
        zeros >= 6,
        "expected collapse toward Zero ops, got {:?}",
        out.choices
    );
}

#[test]
fn warmup_prevents_the_collapse() {
    // Same λ₂ but ramped after a warm-up: the architecture keeps real ops.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let net = Supernet::new(tiny_supernet_config(), &mut rng);
    let arch = ArchParams::new(9, &mut rng);
    let data = tiny_task();
    let template = NetworkTemplate::cifar10();
    let cfg = SearchConfig {
        epochs: 12,
        batch_size: 32,
        lr_arch: 0.05,
        lambda2: LambdaWarmup::ramp(8.0, 10),
        ..SearchConfig::default()
    };
    let out = dance_search(&net, &arch, &data, &Penalty::Flops(&template), &cfg);
    let zeros = out
        .choices
        .iter()
        .filter(|c| **c == SlotChoice::Zero)
        .count();
    assert!(
        zeros < 9,
        "warm-up failed to preserve any non-Zero op: {:?}",
        out.choices
    );
}

#[test]
fn evaluator_survives_save_load_inside_a_search() {
    // Persist a trained evaluator, restore it into a fresh shell, and verify
    // the restored one drives a search to the same derived architecture.
    let pipeline = Pipeline::new(Benchmark::cifar(3), CostFunction::Edap);
    let sizes = EvaluatorSizes {
        hwgen_samples: 800,
        hwgen_epochs: 6,
        hwgen_width: 32,
        cost_samples: 1_500,
        cost_epochs: 6,
        cost_width: 32,
        seed: 0,
    };
    let (evaluator, _) = pipeline.train_evaluator(&sizes, true);
    let path = std::env::temp_dir().join(format!("dance_e2e_eval_{}.txt", std::process::id()));
    evaluator.save(&path).expect("save evaluator");

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let hwgen = HwGenNet::new(63, sizes.hwgen_width, &mut rng);
    let cost = CostNet::new(63 + ENCODED_WIDTH, sizes.cost_width, &mut rng);
    let mut restored =
        Evaluator::with_feature_forwarding(hwgen, cost, 63, HeadSampling::Gumbel { tau: 1.0 });
    restored.load(&path).expect("load evaluator");
    let _ = std::fs::remove_file(&path);

    let search = SearchConfig {
        epochs: 4,
        batch_size: 64,
        lambda2: LambdaWarmup::ramp(0.3, 2),
        seed: 5,
        ..SearchConfig::default()
    };
    let retrain = RetrainConfig {
        epochs: 2,
        batch_size: 64,
        lr: 0.02,
    };
    let a = pipeline.run_dance(&evaluator, &search, &retrain, "original");
    let b = pipeline.run_dance(&restored, &search, &retrain, "restored");
    assert_eq!(
        a.choices, b.choices,
        "restored evaluator changed the search result"
    );
    assert_eq!(a.config, b.config);
}

#[test]
fn soft_cost_interpolates_between_hard_costs() {
    // The table's expected-cost of a mixed architecture lies between the
    // extremes it mixes — the property differentiable relaxation relies on.
    let template = NetworkTemplate::cifar10();
    let table = CostTable::new(&template, &CostModel::new(), &HardwareSpace::new());
    let light = vec![SlotChoice::Zero; 9];
    let heavy = vec![
        SlotChoice::MbConv {
            kernel: 7,
            expand: 6
        };
        9
    ];
    let cfg_idx = 1234;
    let c_light = table.cost(&light, cfg_idx).latency_ms;
    let c_heavy = table.cost(&heavy, cfg_idx).latency_ms;
    for frac in [0.25f32, 0.5, 0.75] {
        let probs: Vec<Vec<f32>> = (0..9)
            .map(|_| {
                let mut row = vec![0.0f32; 7];
                row[SlotChoice::Zero.index()] = 1.0 - frac;
                row[heavy[0].index()] = frac;
                row
            })
            .collect();
        let mixed = table.soft_cost(&probs, cfg_idx).latency_ms;
        assert!(
            mixed > c_light && mixed < c_heavy,
            "soft cost {mixed} outside [{c_light}, {c_heavy}] at frac {frac}"
        );
    }
}
