//! `plan_bench` — tape-vs-plan inference latency for the serve predict
//! path; writes `BENCH_plan.json`.
//!
//! ```text
//! plan_bench [--iters N] [--batch N] [--width N]
//! ```
//!
//! Measures what a cache **miss** costs on `dance-serve`'s predict
//! endpoint, four ways:
//!
//! 1. **tape single** — one arch row through `predict_metrics` +
//!    `predict_configs` on the autograd tape (the pre-plan serve path:
//!    graph nodes, `Arc` clones and boxed backward closures per op, and
//!    the hwgen trunk run twice).
//! 2. **plan single** — the same row through the frozen [`Executor`]:
//!    stage, one `run`, read metrics + head argmaxes from the arena.
//! 3/4. **tape / plan micro-batched** — the same, amortized over a full
//!    collector batch; reported per row.
//!
//! Before timing anything it asserts the plan's metric outputs are
//! bit-identical to the tape's (`plan.bit_match` gauge) — a fast wrong
//! path would be worthless. The headline gauges are
//! `plan.speedup_single` and `plan.speedup_batch`; the roadmap target is
//! ≥ 5× on the single-row miss.

use std::process::ExitCode;
use std::time::Instant;

use dance_accel::space::HardwareSpace;
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;
use dance_bench::bench_run;
use dance_evaluator::cost_net::CostNet;
use dance_evaluator::evaluator::Evaluator;
use dance_evaluator::hwgen_net::{HeadSampling, HwGenNet, HEAD_WIDTHS};
use dance_plan::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct BenchArgs {
    iters: usize,
    batch: usize,
    width: usize,
}

fn usage() -> ! {
    eprintln!("usage: plan_bench [--iters N] [--batch N] [--width N]");
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value {s:?} for {flag}");
        usage();
    })
}

fn parse_args(argv: &[String]) -> BenchArgs {
    let mut args = BenchArgs {
        iters: 300,
        batch: 8,
        width: 16,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                usage();
            })
        };
        match flag.as_str() {
            "--iters" => args.iters = parse_num(&value("--iters"), "--iters"),
            "--batch" => args.batch = parse_num(&value("--batch"), "--batch"),
            "--width" => args.width = parse_num(&value("--width"), "--width"),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    args.iters = args.iters.clamp(10, 100_000);
    args.batch = args.batch.clamp(2, 64);
    args.width = args.width.clamp(4, 256);
    args
}

/// The serve-default evaluator: 63-wide arch encoding, feature
/// forwarding, deterministic softmax heads — exactly what `dance_serve`
/// constructs at startup (untrained weights; latency is weight-agnostic).
fn serve_evaluator(width: usize) -> Evaluator {
    const ARCH_WIDTH: usize = 63;
    let mut rng = StdRng::seed_from_u64(0);
    let hwgen = HwGenNet::new(ARCH_WIDTH, width, &mut rng);
    let cost = CostNet::new(
        ARCH_WIDTH + dance_accel::space::ENCODED_WIDTH,
        width,
        &mut rng,
    );
    Evaluator::with_feature_forwarding(hwgen, cost, ARCH_WIDTH, HeadSampling::Softmax { tau: 1.0 })
}

fn arch_rows(n: usize, width: usize) -> Vec<f32> {
    (0..n * width).map(|i| ((i % 97) as f32) / 97.0).collect()
}

/// One full tape-path miss for `b` rows: metrics + discrete configs, the
/// two forwards the serve collector would issue without its frozen plan.
fn tape_miss(evaluator: &Evaluator, space: &HardwareSpace, rows: &[f32], b: usize) -> f32 {
    let x = Var::constant(Tensor::from_vec(
        rows.to_vec(),
        &[b, evaluator.arch_width()],
    ));
    let mut rng = StdRng::seed_from_u64(0);
    let metrics = evaluator.predict_metrics(&x, &mut rng);
    let configs = evaluator.predict_configs(&x, space);
    metrics.value().data()[0] + configs.len() as f32
}

/// One plan-path miss for `b` rows: stage, run, decode metrics and head
/// argmaxes from the output arena — mirrors `serve::batch::run_batch`.
fn plan_miss(exec: &mut Executor, rows: &[f32], b: usize) -> f32 {
    exec.input_mut(b).copy_from_slice(rows);
    exec.run(b);
    let mut acc = exec.output(0, b)[0];
    for (h, &w) in HEAD_WIDTHS.iter().enumerate() {
        for i in 0..b {
            let logits = &exec.output(1 + h, b)[i * w..(i + 1) * w];
            let mut best = 0;
            for j in 1..w {
                if logits[j] >= logits[best] {
                    best = j;
                }
            }
            acc += best as f32;
        }
    }
    acc
}

/// Mean wall time per call in microseconds, with a warm-up quarter.
fn time_us(iters: usize, mut f: impl FnMut() -> f32) -> f64 {
    let mut sink = 0.0;
    for _ in 0..iters / 4 {
        sink += f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        sink += f();
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / iters as f64;
    // Keep the accumulator observable so the calls cannot be elided.
    if sink.is_nan() {
        eprintln!("unreachable: benchmark produced NaN");
    }
    us
}

fn run_bench(args: &BenchArgs) {
    let evaluator = serve_evaluator(args.width);
    evaluator.freeze();
    let space = HardwareSpace::new();
    let plan = match evaluator.freeze_plan(args.batch) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot freeze the serve evaluator: {e}");
            return;
        }
    };
    println!(
        "plan: {} steps, {} buffers, {} consts, max-batch {}",
        plan.steps.len(),
        plan.buffers.len(),
        plan.consts.len(),
        plan.max_batch
    );
    let mut exec = Executor::new(plan);

    // Correctness first: the plan's metrics must match the tape bit-for-bit.
    let row = arch_rows(1, evaluator.arch_width());
    let x = Var::constant(Tensor::from_vec(row.clone(), &[1, evaluator.arch_width()]));
    let mut rng = StdRng::seed_from_u64(0);
    let want: Vec<u32> = evaluator
        .predict_metrics(&x, &mut rng)
        .value()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    exec.input_mut(1).copy_from_slice(&row);
    exec.run(1);
    let got: Vec<u32> = exec.output(0, 1).iter().map(|v| v.to_bits()).collect();
    let bit_match = got == want;
    dance_telemetry::gauge!("plan.bit_match", if bit_match { 1.0 } else { 0.0 });
    if !bit_match {
        eprintln!("plan metrics DIVERGE from the tape; refusing to benchmark a wrong path");
        return;
    }

    let single = arch_rows(1, evaluator.arch_width());
    let batch = arch_rows(args.batch, evaluator.arch_width());
    let tape_single_us = time_us(args.iters, || tape_miss(&evaluator, &space, &single, 1));
    let plan_single_us = time_us(args.iters, || plan_miss(&mut exec, &single, 1));
    let tape_batch_us = time_us(args.iters, || {
        tape_miss(&evaluator, &space, &batch, args.batch)
    }) / args.batch as f64;
    let plan_batch_us =
        time_us(args.iters, || plan_miss(&mut exec, &batch, args.batch)) / args.batch as f64;

    let speedup_single = tape_single_us / plan_single_us.max(1e-9);
    let speedup_batch = tape_batch_us / plan_batch_us.max(1e-9);
    dance_telemetry::gauge!("plan.eval_width", args.width as f64);
    dance_telemetry::gauge!("plan.batch", args.batch as f64);
    dance_telemetry::gauge!("plan.tape_single_us", tape_single_us);
    dance_telemetry::gauge!("plan.plan_single_us", plan_single_us);
    dance_telemetry::gauge!("plan.speedup_single", speedup_single);
    dance_telemetry::gauge!("plan.tape_batch_us_per_row", tape_batch_us);
    dance_telemetry::gauge!("plan.plan_batch_us_per_row", plan_batch_us);
    dance_telemetry::gauge!("plan.speedup_batch", speedup_batch);
    println!(
        "plan_bench: single-row miss {tape_single_us:.1}us tape vs {plan_single_us:.1}us plan \
         ({speedup_single:.1}x); batch-{b} {tape_batch_us:.1}us/row tape vs \
         {plan_batch_us:.1}us/row plan ({speedup_batch:.1}x); outputs bit-identical",
        b = args.batch,
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    bench_run("plan", || run_bench(&args));
    ExitCode::SUCCESS
}
