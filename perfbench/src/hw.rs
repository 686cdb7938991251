//! The paper's §4.2 comparison, both sides.
//!
//! * The `hw_exact` workload prices each architecture on all 4335
//!   accelerator configurations with the full [`CostModel`]
//!   (`exhaustive_search`), the exact hardware-generation tool the
//!   evaluator replaces. The timed unit is one architecture.
//! * The traced run also times the learned side: the evaluator (hidden
//!   width 128, the paper's width) through a frozen `dance-plan` at batch
//!   64, each call staging the rows, executing the plan and decoding the
//!   metrics and the four hardware heads. (As an end-to-end workload its
//!   set-up, about 12 ms, moved by 30% between two ten-seed series on a
//!   shared 2-vCPU host, so it is measured per layer only.)
//!
//! Architectures come in balanced blocks of seven: within a block every
//! slot takes each of the seven candidates exactly once, in a seeded order.
//! The work of a block is therefore the same for every seed.

use std::time::Instant;

use dance::autograd::tensor::Tensor;
use dance::autograd::var::Var;
use dance::cost::model::Detail;
use dance::evaluator::hwgen_net::HEAD_WIDTHS;
use dance::hwgen::exhaustive::exhaustive_search;
use dance::prelude::*;
use dance_plan::{Executor, Plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::{ensure, median, scratch_dir, timed_setups, Checks, Metrics};
use crate::E2e;

const CANDIDATES: usize = 7;
/// Rows per plan call (the paper-scale micro-batch).
const PREDICT_BATCH: usize = 64;
/// Hidden width of the evaluator networks (the paper's 128).
const EVAL_WIDTH: usize = 128;

/// `blocks` balanced blocks of seven architectures each.
fn balanced_archs(seed: u64, blocks: usize, slots: usize) -> Vec<Vec<SlotChoice>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA4C5);
    let mut out = Vec::with_capacity(blocks * CANDIDATES);
    for _ in 0..blocks {
        let perms: Vec<Vec<usize>> = (0..slots)
            .map(|_| {
                let mut p: Vec<usize> = (0..CANDIDATES).collect();
                for i in (1..CANDIDATES).rev() {
                    p.swap(i, rng.gen_range(0..=i));
                }
                p
            })
            .collect();
        for j in 0..CANDIDATES {
            out.push(perms.iter().map(|p| SlotChoice::from_index(p[j])).collect());
        }
    }
    out
}

/// Exact-side fixtures: the template, model, space and the cost table the
/// optimum is cross-checked against.
struct ExactSetup {
    template: NetworkTemplate,
    model: CostModel,
    space: HardwareSpace,
    table: CostTable,
}

impl ExactSetup {
    fn new() -> Self {
        let template = NetworkTemplate::cifar10();
        let model = CostModel::new();
        let space = HardwareSpace::new();
        let table = CostTable::new(&template, &model, &space);
        Self {
            template,
            model,
            space,
            table,
        }
    }

    /// Exact hardware generation for one architecture, checked against the
    /// cost table's optimum. Returns `(seconds, check)`.
    fn generate(&self, choices: &[SlotChoice]) -> (f64, Result<(), String>) {
        let cost_fn = CostFunction::Edap;
        let t0 = Instant::now();
        let net = self.template.instantiate(choices);
        let exact = exhaustive_search(&net, &self.space, &self.model, &cost_fn);
        let secs = t0.elapsed().as_secs_f64();
        let (table_idx, _) = self.table.optimal(choices, &cost_fn);
        let check = ensure(
            exact.config_index == table_idx && exact.evaluated == self.space.len(),
            || {
                format!(
                    "exact optimum {} != cost-table optimum {table_idx} for {choices:?}",
                    exact.config_index
                )
            },
        );
        (secs, check)
    }
}

/// End-to-end exact hardware generation over balanced blocks.
pub fn exact_e2e(seed: u64, seconds: f64, setup_reps: usize) -> E2e {
    let mut e = E2e::default();
    let s = timed_setups(setup_reps, &mut e.setup_s, ExactSetup::new);
    let slots = s.template.num_slots();
    let mut block_rates = Vec::new();
    let t0 = Instant::now();
    let mut block_seed = seed;
    while t0.elapsed().as_secs_f64() < seconds {
        let mut block_s = 0.0;
        for choices in balanced_archs(block_seed, 1, slots) {
            let (secs, check) = s.generate(&choices);
            block_s += secs;
            e.checks.record(check);
        }
        block_rates.push(CANDIDATES as f64 / block_s);
        block_seed = block_seed.wrapping_add(1);
    }
    println!(
        "hw_exact: {} blocks of {CANDIDATES} architectures x {} configurations",
        block_rates.len(),
        s.space.len()
    );
    e.rates = block_rates;
    e
}

/// The evaluator the learned side serves: feature forwarding with
/// deterministic softmax heads, weights from a fixed seed (inference cost
/// does not depend on the weight values).
fn predict_evaluator() -> Evaluator {
    let arch_width = NetworkTemplate::cifar10().num_slots() * CANDIDATES;
    let mut rng = StdRng::seed_from_u64(0);
    let hwgen = dance::evaluator::hwgen_net::HwGenNet::new(arch_width, EVAL_WIDTH, &mut rng);
    let cost = dance::evaluator::cost_net::CostNet::new(
        arch_width + dance::accel::space::ENCODED_WIDTH,
        EVAL_WIDTH,
        &mut rng,
    );
    Evaluator::with_feature_forwarding(
        hwgen,
        cost,
        arch_width,
        dance::evaluator::hwgen_net::HeadSampling::Softmax { tau: 1.0 },
    )
}

/// `batches` batches of valid architecture encodings (per-slot softmax
/// rows of seeded logits), flattened row-major.
fn encoding_batches(seed: u64, batches: usize, width: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E3D);
    (0..batches)
        .map(|_| {
            let mut rows = Vec::with_capacity(PREDICT_BATCH * width);
            for _ in 0..PREDICT_BATCH * width / CANDIDATES {
                let logits: Vec<f32> = (0..CANDIDATES)
                    .map(|_| rng.gen_range(-2.0f32..2.0))
                    .collect();
                let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let exps: Vec<f32> = logits.iter().map(|l| (l - max).exp()).collect();
                let sum: f32 = exps.iter().sum();
                rows.extend(exps.iter().map(|e| e / sum));
            }
            rows
        })
        .collect()
}

/// Learned-side fixtures: the evaluator, its frozen plan and executor.
struct PredictSetup {
    evaluator: Evaluator,
    exec: Executor,
    freeze_s: f64,
}

impl PredictSetup {
    /// Builds the evaluator, freezes it, and deploys the plan the way a
    /// server does: saved as an artifact and loaded back.
    fn new() -> Result<Self, String> {
        let evaluator = predict_evaluator();
        let t0 = Instant::now();
        let plan = evaluator
            .freeze_plan(PREDICT_BATCH)
            .map_err(|e| format!("cannot freeze the evaluator: {e}"))?;
        let freeze_s = t0.elapsed().as_secs_f64();
        let path = scratch_dir().join("evaluator.plan");
        plan.save(&path)
            .and_then(|()| Plan::load(&path))
            .map(|plan| Self {
                evaluator,
                exec: Executor::new(plan),
                freeze_s,
            })
            .map_err(|e| format!("plan artifact round trip failed: {e}"))
    }

    /// One plan call over `rows` (`b` rows): stage, run, decode the metrics
    /// and the argmax of every hardware head, as serve's predict path does.
    fn run(&mut self, rows: &[f32], b: usize) -> f32 {
        self.exec.input_mut(b).copy_from_slice(rows);
        self.exec.run(b);
        let mut acc: f32 = self.exec.output(0, b).iter().sum();
        for (h, &w) in HEAD_WIDTHS.iter().enumerate() {
            let logits = self.exec.output(1 + h, b);
            for row in logits.chunks_exact(w) {
                let mut best = 0;
                for j in 1..w {
                    if row[j] >= row[best] {
                        best = j;
                    }
                }
                acc += best as f32;
            }
        }
        acc
    }

    /// The tape forward of the same rows.
    fn tape(&self, rows: &[f32], b: usize) -> Var {
        let x = Var::constant(Tensor::from_vec(
            rows.to_vec(),
            &[b, self.evaluator.arch_width()],
        ));
        let mut rng = StdRng::seed_from_u64(0);
        self.evaluator.predict_metrics(&x, &mut rng)
    }

    /// The plan's metric outputs must equal the tape's bit for bit.
    fn check_against_tape(&mut self, rows: &[f32]) -> Result<(), String> {
        let b = rows.len() / self.evaluator.arch_width();
        self.run(rows, b);
        let plan: Vec<u32> = self.exec.output(0, b).iter().map(|v| v.to_bits()).collect();
        let tape: Vec<u32> = self
            .tape(rows, b)
            .value()
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        ensure(plan == tape, || {
            format!("plan metrics differ from the tape at batch {b}")
        })
    }
}

fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Traced run: every cost / hwgen / plan entry point timed on its own.
pub fn traced(seed: u64) -> (Metrics, Checks) {
    let mut m = Metrics::default();
    let mut checks = Checks::default();

    let t0 = Instant::now();
    let s = ExactSetup::new();
    m.push("hwgen.table_build_s", t0.elapsed().as_secs_f64(), "s");

    let slots = s.template.num_slots();
    let archs = balanced_archs(seed, 1, slots);
    let configs: Vec<AcceleratorConfig> = {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0);
        (0..64)
            .map(|_| s.space.config_at(rng.gen_range(0..s.space.len())))
            .collect()
    };
    let nets: Vec<_> = archs.iter().map(|a| s.template.instantiate(a)).collect();
    let mut k = 0usize;
    let evaluate_us = median_us(2_000, || {
        let net = &nets[k % nets.len()];
        let cfg = &configs[k % configs.len()];
        std::hint::black_box(s.model.evaluate(net, cfg, Detail::Totals));
        k += 1;
    });
    m.push("cost.evaluate_us", evaluate_us, "us");

    dance_telemetry::metrics::reset();
    let mut exhaustive_ms = Vec::new();
    for choices in &archs {
        let (secs, check) = s.generate(choices);
        exhaustive_ms.push(secs * 1e3);
        checks.record(check);
    }
    let evaluations = dance_telemetry::metrics::snapshot()
        .counters
        .get("cost_model.evaluations")
        .map_or(f64::NAN, |&n| n as f64);
    m.push("hwgen.exhaustive_ms", median(&exhaustive_ms), "ms");
    m.push(
        "cost.evaluations",
        evaluations / archs.len() as f64,
        "count",
    );
    let mut k = 0usize;
    let table_us = median_us(200, || {
        std::hint::black_box(
            s.table
                .optimal(&archs[k % archs.len()], &CostFunction::Edap),
        );
        k += 1;
    });
    m.push("hwgen.table_search_us", table_us, "us");

    let setups: Result<Vec<PredictSetup>, String> = (0..5).map(|_| PredictSetup::new()).collect();
    let mut p = match setups {
        Ok(mut v) => {
            let freeze_ms: Vec<f64> = v.iter().map(|p| p.freeze_s * 1e3).collect();
            m.push("plan.freeze_ms", median(&freeze_ms), "ms");
            v.pop().expect("five set-ups were built")
        }
        Err(msg) => {
            checks.record(Err(msg));
            return (m, checks);
        }
    };
    m.push("plan.steps", p.exec.plan().steps.len() as f64, "count");
    m.push("plan.buffers", p.exec.plan().buffers.len() as f64, "count");
    let width = p.evaluator.arch_width();
    let batch = encoding_batches(seed, 1, width).remove(0);
    checks.record(p.check_against_tape(&batch));
    let row = batch[..width].to_vec();
    let b1 = median_us(2_000, || {
        std::hint::black_box(p.run(&row, 1));
    });
    m.push("plan.exec_b1_us", b1, "us");
    let b64 = median_us(400, || {
        std::hint::black_box(p.run(&batch, PREDICT_BATCH));
    });
    m.push("plan.exec_b64_us_per_row", b64 / PREDICT_BATCH as f64, "us");
    let tape = median_us(100, || {
        std::hint::black_box(p.tape(&batch, PREDICT_BATCH).value());
    });
    m.push(
        "evaluator.tape_us_per_row",
        tape / PREDICT_BATCH as f64,
        "us",
    );
    println!(
        "hw traced: exact {:.2} ms/arch vs plan {:.2} us/row (batch {PREDICT_BATCH})",
        median(&exhaustive_ms),
        b64 / PREDICT_BATCH as f64
    );
    (m, checks)
}
