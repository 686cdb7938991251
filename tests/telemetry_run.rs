//! Integration test for the telemetry subsystem: a miniature co-exploration
//! run must leave behind a parseable JSONL run log whose events cover every
//! instrumented subsystem (autograd, cost, evaluator, search).
//!
//! Telemetry state (run sink, aggregates) is process-global, so this file
//! holds exactly one test — cargo gives each integration-test file its own
//! process, which is the isolation the global state needs.

use dance::prelude::*;
use rand::SeedableRng;

#[test]
fn search_run_log_covers_all_instrumented_subsystems() {
    let dir = std::env::temp_dir().join(format!("dance_telemetry_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("DANCE_RUN_DIR", &dir);
    std::env::set_var("DANCE_TELEMETRY", "on");

    // One run guard over the whole flow: the pipeline's own RunGuard::start
    // calls nest inside it, so every event lands in a single file.
    let run = dance_telemetry::runlog::RunGuard::start("integration")
        .expect("no run should be active at test start");
    let path = run.path().to_path_buf();

    let pipeline = Pipeline::new(Benchmark::cifar(5), CostFunction::Edap);
    let sizes = EvaluatorSizes {
        hwgen_samples: 300,
        hwgen_epochs: 2,
        hwgen_width: 16,
        cost_samples: 400,
        cost_epochs: 2,
        cost_width: 16,
        seed: 0,
    };
    let (evaluator, _) = pipeline.train_evaluator(&sizes, true);
    let reference = pipeline.reference_cost();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let supernet = Supernet::new(pipeline.benchmark.supernet, &mut rng);
    let arch = ArchParams::new(supernet.num_slots(), &mut rng);
    let cfg = SearchConfig::builder()
        .epochs(2)
        .batch_size(32)
        .lambda2(LambdaWarmup::ramp(0.3, 1))
        .build()
        .expect("valid test config");
    let _out = dance_search(
        &supernet,
        &arch,
        &pipeline.benchmark.data,
        &Penalty::Evaluator {
            evaluator: &evaluator,
            cost_fn: CostFunction::Edap,
            reference,
        },
        &cfg,
    );
    drop(run);

    // Every line must parse; the summary must cover all four subsystems.
    let summary = dance_telemetry::summarize::summarize_file(&path)
        .expect("run log must be valid JSONL end to end");
    for kind in [
        "meta", "span", "gauge", "span_agg", "counter", "hist", "run_end",
    ] {
        assert!(
            summary.event_kinds.contains(kind),
            "missing event kind {kind}; got {:?}",
            summary.event_kinds
        );
    }
    let span_names: Vec<&str> = summary.span_aggs.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "autograd.backward",
        "evaluator.hwgen.epoch",
        "evaluator.cost.epoch",
        "evaluator.predict_metrics",
        "search.epoch",
        "search.weight_step",
        "search.arch_step",
        "cost_table.build",
    ] {
        assert!(
            span_names.contains(&required),
            "missing span {required}; got {span_names:?}"
        );
    }
    assert!(
        span_names.iter().any(|n| n.starts_with("autograd.bwd.")),
        "no per-op backward spans in {span_names:?}"
    );
    // `Pipeline::new` builds one cost table: every configuration of the
    // paper space prices the 167 layers of the CIFAR-10 template (165
    // slot-choice layers plus stem and head), counted once per chunk.
    assert_eq!(
        summary.counters.get("cost_table.layers"),
        Some(&(4335 * 167)),
        "cost_table.layers must count every layer the table priced"
    );
    assert!(
        summary.counters.contains_key("tape.nodes"),
        "tape.nodes counter missing: {:?}",
        summary.counters.keys().collect::<Vec<_>>()
    );
    assert!(
        summary.hists.contains_key("epoch.loss"),
        "epoch.loss histogram missing"
    );
    assert!(
        summary.gauges.contains_key("search.lambda2"),
        "search.lambda2 gauge missing"
    );

    // The rendered table must mention the heaviest phases by name.
    let rendered = dance_telemetry::summarize::render(&summary, 5);
    assert!(rendered.contains("search.epoch"));
    assert!(rendered.contains("tape.nodes"));

    std::env::remove_var("DANCE_RUN_DIR");
    std::env::remove_var("DANCE_TELEMETRY");
    let _ = std::fs::remove_dir_all(dir);
}
