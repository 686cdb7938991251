//! `dance_step`: the paper's co-exploration loop with the evaluator in the
//! arch step, end to end and as a traced replica.
//!
//! Set-up builds the CIFAR-scale [`Pipeline`] (its cost table), trains a
//! small evaluator from a fixed seed and derives the analytic cost fallback
//! exactly as `Pipeline::run_dance` does. The splits keep the CIFAR shapes
//! but are cut to [`TRAIN`] / [`VAL`] samples, so an epoch is short and a
//! run times many of them. A search step is one weight step together with
//! its share of the arch steps; the timed unit is one epoch, timed from the
//! per-epoch observer of `dance_search_traced` (the loop behind
//! `dance_search_guarded`), so the per-call probe lint is not counted.

use std::time::Instant;

use dance::autograd::loss::cross_entropy;
use dance::autograd::optim::{clip_grad_norm, Adam, CosineLr, Optimizer, Sgd};
use dance::autograd::tensor::Tensor;
use dance::autograd::var::Var;
use dance::data::loader::Batcher;
use dance::guard::degrade::check_metrics;
use dance::guard::watchdog::Watchdog;
use dance::nas::block::SearchBlock;
use dance::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::util::{ensure, median, timed_setups, Checks, Metrics, Phases};
use crate::E2e;

/// Epochs per search call; every epoch after the first is one timed unit.
const EPOCHS: usize = 5;
/// Training samples (eight weight steps per epoch).
const TRAIN: usize = 512;
/// Validation samples (four arch steps per epoch).
const VAL: usize = 256;
/// Mini-batch size (the paper's CIFAR search batch).
const BATCH: usize = 64;
/// Seed of the evaluator trained at set-up: fixed, so every workload seed
/// searches against the same frozen evaluator.
const EVALUATOR_SEED: u64 = 7;

/// Everything a search call needs, built once per set-up.
pub struct StepSetup {
    pipeline: Pipeline,
    evaluator: Evaluator,
    reference: f64,
    guard: GuardConfig,
    cfg: SearchConfig,
}

impl StepSetup {
    /// Builds the pipeline, trains the evaluator and derives the fallback.
    pub fn new(seed: u64) -> Self {
        let mut benchmark = Benchmark::cifar(seed);
        benchmark.data.train = benchmark.data.task.generate(TRAIN, seed.wrapping_add(1));
        benchmark.data.val = benchmark.data.task.generate(VAL, seed.wrapping_add(2));
        let pipeline = Pipeline::new(benchmark, CostFunction::Edap);
        let sizes = EvaluatorSizes {
            hwgen_samples: 600,
            hwgen_epochs: 3,
            hwgen_width: 32,
            cost_samples: 1_200,
            cost_epochs: 3,
            cost_width: 32,
            seed: EVALUATOR_SEED,
        };
        let (evaluator, _report) = pipeline.train_evaluator(&sizes, true);
        let reference = pipeline.reference_cost();
        let guard = GuardConfig {
            cost_fallback: Some(pipeline.analytic_fallback()),
            ..GuardConfig::default()
        };
        let cfg = SearchConfig::builder()
            .epochs(EPOCHS)
            .batch_size(BATCH)
            .lambda2(LambdaWarmup::constant(0.5))
            .seed(seed)
            .build()
            .expect("dance_step search config is statically valid");
        Self {
            pipeline,
            evaluator,
            reference,
            guard,
            cfg,
        }
    }

    fn data(&self) -> &TaskData {
        &self.pipeline.benchmark.data
    }

    fn penalty(&self) -> Penalty<'_> {
        Penalty::Evaluator {
            evaluator: &self.evaluator,
            cost_fn: self.pipeline.cost_fn,
            reference: self.reference,
        }
    }

    /// Weight steps per epoch.
    fn steps_per_epoch(&self) -> usize {
        Batcher::new(&self.data().train, self.cfg.batch_size).batches_per_epoch()
    }

    /// The supernet and architecture parameters a search starts from, drawn
    /// the way `Pipeline::run_dance` draws them.
    fn fresh_model(&self) -> (Supernet, ArchParams) {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let supernet = Supernet::new(self.pipeline.benchmark.supernet, &mut rng);
        let arch = ArchParams::new(supernet.num_slots(), &mut rng);
        (supernet, arch)
    }

    /// One untraced search call: the outcome and the wall time of every
    /// epoch after the first, in seconds.
    fn search(&self) -> (SearchOutcome, Vec<f64>) {
        let (supernet, arch) = self.fresh_model();
        let penalty = self.penalty();
        let mut ends = Vec::with_capacity(self.cfg.epochs);
        let out = dance_search_traced(
            &supernet,
            &arch,
            self.data(),
            &penalty,
            &self.cfg,
            &self.guard,
            &mut |_| ends.push(Instant::now()),
        );
        let epoch_s = ends
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        (out, epoch_s)
    }
}

/// The per-search checks: the evaluator was in the loop, the cost model
/// stayed healthy and the watchdog never rolled the run back.
fn check_outcome(out: &SearchOutcome) -> Result<(), String> {
    ensure(
        !out.history.is_empty() && out.history.iter().all(|h| h.hw_cost > 0.0),
        || format!("hw_cost not positive in every epoch: {:?}", out.history),
    )?;
    ensure(!out.guard.cost_model_degraded, || {
        "the cost model degraded to the analytic fallback".into()
    })?;
    ensure(out.guard.watchdog_trips == 0, || {
        format!("watchdog tripped {} time(s)", out.guard.watchdog_trips)
    })
}

/// End-to-end: repeated untraced searches for `seconds`.
pub fn e2e(seed: u64, seconds: f64, setup_reps: usize) -> E2e {
    let mut e = E2e::default();
    let s = timed_setups(setup_reps, &mut e.setup_s, || StepSetup::new(seed));
    let steps = s.steps_per_epoch() as f64;
    let mut first_digest = None;
    let mut calls = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let (out, epoch_s) = s.search();
        calls += 1;
        e.rates.extend(epoch_s.iter().map(|secs| steps / secs));
        let digest = out.digest();
        let expected = *first_digest.get_or_insert(digest);
        e.checks.record(check_outcome(&out).and_then(|()| {
            ensure(digest == expected, || {
                format!("arch digest {digest:016x} differs from the first run's {expected:016x}")
            })
        }));
    }
    println!(
        "dance_step: {calls} searches x {EPOCHS} epochs x {steps} steps, arch-digest {:016x}",
        first_digest.unwrap_or_default()
    );
    e
}

// Replica phase indices (into `PHASES`).
const DATA: usize = 0;
const FWD_W: usize = 1;
const CE: usize = 2;
const BWD_W: usize = 3;
const SGD: usize = 4;
const FWD_A: usize = 5;
const PREDICT: usize = 6;
const COST_HW: usize = 7;
const BWD_A: usize = 8;
const ADAM: usize = 9;
const GUARD: usize = 10;
const PHASES: &[&str] = &[
    "data.batch_ms",
    "nas.fwd_w_ms",
    "autograd.ce_ms",
    "autograd.bwd_w_ms",
    "autograd.sgd_ms",
    "nas.fwd_a_ms",
    "evaluator.predict_ms",
    "core.cost_hw_ms",
    "autograd.bwd_a_ms",
    "autograd.adam_ms",
    "guard.checks_ms",
];

/// What the traced replica produced besides its phase times.
struct ReplicaRun {
    digest: u64,
    weight_steps: usize,
    hw_cost_sum: f32,
    problem: Option<String>,
    wall_s: f64,
}

/// A bench-owned copy of `dance_search_traced`'s epoch loop (no resume, no
/// checkpoints — the observe-only defaults) that times each public call.
/// It draws from the RNG in the same order as the library loop, so its
/// final architecture digest must equal the untraced run's.
#[allow(clippy::too_many_lines)]
fn replica(s: &StepSetup, ph: &mut Phases) -> ReplicaRun {
    let cfg = &s.cfg;
    let data = s.data();
    let (supernet, arch) = s.fresh_model();
    s.evaluator.freeze();
    let fallback = s
        .guard
        .cost_fallback
        .as_ref()
        .expect("set-up always installs the analytic fallback");
    let guard_on = dance::guard::enabled();
    let t_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let train_batcher = Batcher::new(&data.train, cfg.batch_size);
    let val_batcher = Batcher::new(&data.val, cfg.batch_size);
    let schedule = CosineLr::new(cfg.lr_weights, cfg.epochs.max(1));
    let mut w_opt = Sgd::new(supernet.parameters(), cfg.lr_weights)
        .with_momentum(0.9)
        .with_nesterov()
        .with_weight_decay(cfg.weight_decay);
    let mut a_opt = Adam::new(arch.parameters(), cfg.lr_arch);
    let mut watchdog = Watchdog::new(s.guard.watchdog);
    let named = |params: Vec<Var>, prefix: &str| -> Vec<(String, Var)> {
        params
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("{prefix}.{i}"), p))
            .collect()
    };
    let supernet_named = named(supernet.parameters(), "supernet");
    let alpha_named = named(arch.parameters(), "alpha");
    let mut run = ReplicaRun {
        digest: 0,
        weight_steps: 0,
        hw_cost_sum: 0.0,
        problem: None,
        wall_s: 0.0,
    };

    'epochs: for epoch in 0..cfg.epochs {
        w_opt.set_lr(schedule.lr_at(epoch));
        let lambda2 = cfg.lambda2.lambda_at(epoch);
        let train_batches = ph.time(DATA, || train_batcher.epoch(&mut rng));
        let mut val_batches = ph.time(DATA, || val_batcher.epoch(&mut rng)).into_iter();
        for (step, tb) in train_batches.iter().enumerate() {
            // --- Weight step ---------------------------------------------
            let x = ph.time(DATA, || supernet.input_from(&tb.x, tb.batch));
            let logits = ph.time(FWD_W, || supernet.forward(&x, ForwardMode::Mixture(&arch)));
            let (loss, loss_val) = ph.time(CE, || {
                let loss = cross_entropy(&logits, &tb.y, cfg.label_smoothing);
                let v = loss.item();
                (loss, v)
            });
            if guard_on && ph.time(GUARD, || watchdog.observe_loss(loss_val)).is_some() {
                run.problem = Some(format!("watchdog tripped at weight step {step}"));
                break 'epochs;
            }
            ph.time(BWD_W, || {
                w_opt.zero_grad();
                a_opt.zero_grad();
                loss.backward();
                a_opt.zero_grad();
            });
            ph.time(SGD, || {
                clip_grad_norm(&supernet.parameters(), 5.0);
                w_opt.step();
            });
            run.weight_steps += 1;

            // --- Arch step, one per two weight steps ----------------------
            if step % 2 != 0 {
                continue;
            }
            let Some(vb) = val_batches.next() else {
                continue;
            };
            let x = ph.time(DATA, || supernet.input_from(&vb.x, vb.batch));
            let logits = ph.time(FWD_A, || supernet.forward(&x, ForwardMode::Mixture(&arch)));
            let ce = ph.time(CE, || cross_entropy(&logits, &vb.y, cfg.label_smoothing));
            let metrics = ph.time(PREDICT, || {
                s.evaluator.predict_metrics(&arch.encode(), &mut rng)
            });
            if guard_on {
                let verdict = ph.time(GUARD, || {
                    let analytic = fallback.metrics_value(&arch.probs_matrix());
                    check_metrics(&metrics.value(), Some(&analytic), s.guard.cost_envelope)
                });
                if let Some(reason) = verdict {
                    run.problem = Some(format!("cost model would degrade: {reason}"));
                    break 'epochs;
                }
            }
            let loss = ph.time(COST_HW, || {
                let hw = cost_hw_var(&metrics, &s.pipeline.cost_fn, s.reference);
                run.hw_cost_sum += hw.item();
                ce.add(&hw.scale(lambda2).sum())
            });
            ph.time(BWD_A, || {
                a_opt.zero_grad();
                w_opt.zero_grad();
                loss.backward();
                w_opt.zero_grad();
            });
            ph.time(ADAM, || {
                clip_grad_norm(&arch.parameters(), 5.0);
                a_opt.step();
            });
            if guard_on
                && ph
                    .time(GUARD, || {
                        watchdog.scan_params(alpha_named.iter().map(|(n, v)| (n.as_str(), v)))
                    })
                    .is_some()
            {
                run.problem = Some(format!("watchdog tripped after arch step {step}"));
                break 'epochs;
            }
        }
        if guard_on
            && ph
                .time(GUARD, || {
                    watchdog.scan_params(supernet_named.iter().map(|(n, v)| (n.as_str(), v)))
                })
                .is_some()
        {
            run.problem = Some(format!("watchdog tripped at the end of epoch {epoch}"));
            break;
        }
    }
    run.wall_s = t_start.elapsed().as_secs_f64();
    run.digest = arch_digest(&arch.probs_matrix());
    run
}

/// Per-slot × per-candidate forward/backward times at batch [`BATCH`]:
/// `(mixture (fwd, bwd), per-candidate (fwd, bwd))` in seconds, medians of
/// [`TABLE_REPS`] repetitions after one warm-up.
struct SlotTimes {
    label: String,
    mixture: (f64, f64),
    candidates: Vec<(f64, f64)>,
}

const TABLE_REPS: usize = 5;

fn time_fwd_bwd(params: &[Var], mut forward: impl FnMut() -> Var) -> (f64, f64) {
    let mut fwd = Vec::with_capacity(TABLE_REPS);
    let mut bwd = Vec::with_capacity(TABLE_REPS);
    for rep in 0..=TABLE_REPS {
        let t0 = Instant::now();
        let out = forward();
        let t1 = Instant::now();
        out.backward();
        let t2 = Instant::now();
        for p in params {
            p.zero_grad();
        }
        if rep > 0 {
            fwd.push((t1 - t0).as_secs_f64());
            bwd.push((t2 - t1).as_secs_f64());
        }
    }
    (median(&fwd), median(&bwd))
}

fn slot_table(seed: u64) -> Vec<SlotTimes> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51_07);
    SupernetConfig::cifar()
        .slots()
        .into_iter()
        .map(|slot| {
            let block = SearchBlock::new(slot, &mut rng);
            let n = BATCH * slot.c_in * slot.h;
            let x = Var::constant(Tensor::from_vec(
                (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                &[BATCH, slot.c_in, slot.h],
            ));
            let arch = ArchParams::new(1, &mut rng);
            let weights = arch.mixture_weights().remove(0);
            let mut params = block.parameters();
            params.extend(arch.parameters());
            let mixture = time_fwd_bwd(&params, || block.forward_mixture(&x, &weights));
            let candidates = SlotChoice::CANDIDATES
                .iter()
                .map(|&choice| time_fwd_bwd(&params, || block.forward_fixed(&x, choice)))
                .collect();
            SlotTimes {
                label: format!("{}x{}->{} s{}", slot.c_in, slot.h, slot.c_out, slot.stride),
                mixture,
                candidates,
            }
        })
        .collect()
}

fn print_slot_table(table: &[SlotTimes]) {
    println!("supernet slot x candidate table, batch {BATCH}, fwd/bwd in microseconds:");
    let mut header = format!(
        "  {:<4} {:<14} {:>15}",
        "slot", "c_in x L->c_out", "mixture"
    );
    for c in SlotChoice::CANDIDATES {
        header.push_str(&format!(" {:>15}", c.to_string()));
    }
    println!("{header}");
    let us = |(f, b): (f64, f64)| format!("{:.0}/{:.0}", f * 1e6, b * 1e6);
    for (i, row) in table.iter().enumerate() {
        let mut line = format!("  {i:<4} {:<14} {:>15}", row.label, us(row.mixture));
        for &cell in &row.candidates {
            line.push_str(&format!(" {:>15}", us(cell)));
        }
        println!("{line}");
    }
}

/// Op names whose per-op telemetry spans become named metrics. Backward is
/// timed for every op; forward only where the library records it.
const OPS_BWD: &[&str] = &[
    "linear",
    "linear_relu",
    "dw_conv1d_relu",
    "weighted_sum",
    "downsample1d",
    "to_channels_last",
    "from_channels_last",
    "add",
    "matmul",
];
const OPS_FWD: &[&str] = &["linear", "dw_conv1d_relu", "matmul", "dw_conv1d"];
/// Backend kernels whose telemetry spans become named metrics.
const KERNELS: &[&str] = &[
    "linear",
    "matmul_at",
    "matmul_bt",
    "dw_conv1d_relu_fwd",
    "dw_conv1d_bwd",
    "to_channels_last",
    "from_channels_last",
    "binary",
];

/// Traced run: untraced reference search, traced replica (digest must
/// match), telemetry counters per step, per-op spans and the slot table.
pub fn traced(seed: u64) -> (Metrics, Checks) {
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let s = StepSetup::new(seed);
    let (reference, ref_epoch_s) = s.search();
    checks.record(check_outcome(&reference));

    dance_backend::storage::flush_metrics();
    dance_telemetry::span::reset();
    dance_telemetry::metrics::reset();
    let mut ph = Phases::new(PHASES);
    let run = replica(&s, &mut ph);
    dance_backend::storage::flush_metrics();
    let spans = dance_telemetry::span::span_report();
    let counters = dance_telemetry::metrics::snapshot().counters;

    let want = reference.digest();
    checks.record(run.problem.clone().map_or(Ok(()), Err).and_then(|()| {
        ensure(run.digest == want, || {
            format!(
                "traced replica arch digest {:016x} != untraced {want:016x}",
                run.digest
            )
        })
    }));
    checks.record(ensure(run.hw_cost_sum > 0.0, || {
        "replica hw cost is not positive".into()
    }));
    println!(
        "dance_step traced: replica digest {:016x}, untraced {want:016x}; replica {:.3}s, untraced epochs {ref_epoch_s:.3?}s",
        run.digest, run.wall_s
    );

    let steps = run.weight_steps.max(1) as f64;
    let per_step_ms = |secs: f64| secs * 1e3 / steps;
    for (name, secs) in ph.totals() {
        m.push(name, per_step_ms(secs), "ms");
    }
    m.push(
        "core.unattributed_ms",
        per_step_ms(run.wall_s - ph.attributed_s()),
        "ms",
    );
    // A counter or span the program no longer emits reads NaN, which fails
    // the run's checks, rather than a quiet 0.
    let count = |name: &str| counters.get(name).map_or(f64::NAN, |&c| c as f64 / steps);
    m.push("autograd.tape_nodes", count("tape.nodes"), "count");
    m.push("backend.arena_fresh", count("arena.fresh"), "count");
    m.push("backend.arena_reuse", count("arena.reuse"), "count");
    let span_ms = |name: String| {
        spans
            .iter()
            .find(|a| a.name == name)
            .map_or(f64::NAN, |a| a.stats.total_ns as f64 / 1e6 / steps)
    };
    for op in OPS_FWD {
        m.push(
            format!("autograd.op.{op}.fwd_ms"),
            span_ms(format!("autograd.fwd.{op}")),
            "ms",
        );
    }
    for op in OPS_BWD {
        m.push(
            format!("autograd.op.{op}.bwd_ms"),
            span_ms(format!("autograd.bwd.{op}")),
            "ms",
        );
    }
    for kernel in KERNELS {
        m.push(
            format!("backend.{kernel}_ms"),
            span_ms(format!("backend.{kernel}")),
            "ms",
        );
    }
    println!("dance_step traced: top telemetry spans (ms per weight step):");
    for agg in spans.iter().take(16) {
        println!(
            "  {:<40} {:>10.4} ({} calls)",
            agg.name,
            agg.stats.total_ns as f64 / 1e6 / steps,
            agg.stats.count
        );
    }

    let table = slot_table(seed);
    print_slot_table(&table);
    for (i, row) in table.iter().enumerate() {
        m.push(format!("nas.slot{i}.fwd_ms"), row.mixture.0 * 1e3, "ms");
        m.push(format!("nas.slot{i}.bwd_ms"), row.mixture.1 * 1e3, "ms");
    }
    for (j, choice) in SlotChoice::CANDIDATES.iter().enumerate() {
        let (f, b) = table.iter().fold((0.0, 0.0), |(f, b), row| {
            (f + row.candidates[j].0, b + row.candidates[j].1)
        });
        m.push(format!("nas.cand.{choice}.fwd_ms"), f * 1e3, "ms");
        m.push(format!("nas.cand.{choice}.bwd_ms"), b * 1e3, "ms");
    }
    (m, checks)
}
