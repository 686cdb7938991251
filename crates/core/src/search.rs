//! The DANCE differentiable co-exploration loop (paper §3.2, Figure 3).
//!
//! Two-timescale optimization over one supernet: weight steps minimize
//! cross-entropy on the training split (SGD, Nesterov momentum, cosine
//! schedule, label smoothing — the ProxylessNAS recipe), and architecture
//! steps on the validation split minimize
//! `Loss = CE + λ₁‖w‖ + λ₂·CostHW(evaluator(α))` (Eq. 1), with the hardware
//! cost flowing through the *frozen* evaluator network. After the search, a
//! one-time exact hardware generation recovers the accelerator and the
//! derived network is retrained from scratch.

use std::io;

use rand::rngs::StdRng;
use rand::SeedableRng;

use dance_accel::workload::SlotChoice;
use dance_analyze::graph::lint_graph;
use dance_autograd::loss::{accuracy, cross_entropy};
use dance_autograd::optim::{clip_grad_norm, Adam, CosineLr, Optimizer, Sgd};
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;
use dance_cost::metrics::CostFunction;
use dance_data::loader::{Batch, Batcher};
use dance_data::tasks::TaskData;
use dance_evaluator::evaluator::Evaluator;
use dance_guard::checkpoint::{CheckpointStore, Snapshot};
use dance_guard::degrade::check_metrics;
use dance_guard::fault::FaultPlan;
use dance_guard::watchdog::Watchdog;
use dance_guard::{GuardConfig, GuardReport, MAX_ROLLBACKS, ROLLBACK_ARCH_LR_DECAY};
use dance_nas::arch::ArchParams;
use dance_nas::supernet::{ForwardMode, Supernet, SupernetConfig};

use crate::hw_loss::{cost_hw_var, LambdaWarmup};

/// Hyper-parameters of a search run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// Search epochs (the paper uses 120; scaled down for CPU budgets).
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Peak weight learning rate (cosine annealed).
    pub lr_weights: f32,
    /// Architecture (α) learning rate (Adam).
    pub lr_arch: f32,
    /// λ₁ weight decay on supernet weights.
    pub weight_decay: f32,
    /// Label smoothing for the cross-entropy.
    pub label_smoothing: f32,
    /// λ₂ hardware-cost weight with warm-up (paper §3.4).
    pub lambda2: LambdaWarmup,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            epochs: 16,
            batch_size: 64,
            lr_weights: 0.02,
            lr_arch: 0.02,
            weight_decay: 4e-5,
            label_smoothing: 0.1,
            lambda2: LambdaWarmup::ramp(1.0, 4),
            seed: 0,
        }
    }
}

impl SearchConfig {
    /// Starts a validating builder seeded with the default configuration.
    ///
    /// This is the shared construction path for the `dance_search` CLI,
    /// `dance-serve` job submission, and tests: set only the knobs that
    /// differ from the defaults, then [`SearchConfigBuilder::build`] checks
    /// the whole configuration at once.
    #[must_use]
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// A rejected [`SearchConfigBuilder::build`] call: which knob and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchConfigError {
    field: &'static str,
    message: &'static str,
}

impl SearchConfigError {
    /// The offending knob, e.g. `"epochs"`.
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl std::fmt::Display for SearchConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid `{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for SearchConfigError {}

/// Validating builder for [`SearchConfig`]; see [`SearchConfig::builder`].
#[derive(Debug, Clone)]
#[must_use]
pub struct SearchConfigBuilder {
    cfg: SearchConfig,
}

impl SearchConfigBuilder {
    /// Sets the number of search epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.cfg.epochs = epochs;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.cfg.batch_size = batch_size;
        self
    }

    /// Sets the peak weight learning rate.
    pub fn lr_weights(mut self, lr: f32) -> Self {
        self.cfg.lr_weights = lr;
        self
    }

    /// Sets the architecture learning rate.
    pub fn lr_arch(mut self, lr: f32) -> Self {
        self.cfg.lr_arch = lr;
        self
    }

    /// Sets the λ₁ weight decay.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.cfg.weight_decay = wd;
        self
    }

    /// Sets the cross-entropy label smoothing.
    pub fn label_smoothing(mut self, ls: f32) -> Self {
        self.cfg.label_smoothing = ls;
        self
    }

    /// Sets the λ₂ hardware-cost schedule.
    pub fn lambda2(mut self, schedule: LambdaWarmup) -> Self {
        self.cfg.lambda2 = schedule;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates the whole configuration and returns it.
    ///
    /// # Errors
    ///
    /// Returns a [`SearchConfigError`] naming the first offending knob:
    /// zero epochs, a batch too small for batch norm, non-positive or
    /// non-finite learning rates, a negative or non-finite weight decay,
    /// label smoothing outside `[0, 1)`, or a negative/non-finite λ₂
    /// schedule.
    pub fn build(self) -> Result<SearchConfig, SearchConfigError> {
        let err = |field, message| Err(SearchConfigError { field, message });
        let c = self.cfg;
        if c.epochs == 0 {
            return err("epochs", "must be at least 1");
        }
        if c.batch_size < 2 {
            return err("batch_size", "must be at least 2 (batch norm)");
        }
        if !(c.lr_weights.is_finite() && c.lr_weights > 0.0) {
            return err("lr_weights", "must be positive and finite");
        }
        if !(c.lr_arch.is_finite() && c.lr_arch > 0.0) {
            return err("lr_arch", "must be positive and finite");
        }
        if !(c.weight_decay.is_finite() && c.weight_decay >= 0.0) {
            return err("weight_decay", "must be non-negative and finite");
        }
        if !(c.label_smoothing.is_finite() && (0.0..1.0).contains(&c.label_smoothing)) {
            return err("label_smoothing", "must lie in [0, 1)");
        }
        let l2 = c.lambda2;
        if !(l2.initial.is_finite()
            && l2.initial >= 0.0
            && l2.target.is_finite()
            && l2.target >= 0.0)
        {
            return err(
                "lambda2",
                "warm-up and target must be non-negative and finite",
            );
        }
        Ok(c)
    }
}

/// Per-epoch diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index.
    pub epoch: usize,
    /// Mean training cross-entropy of the weight steps.
    pub train_ce: f32,
    /// Mean normalized hardware-cost term of the architecture steps.
    pub hw_cost: f32,
    /// Mean architecture entropy (nats) at epoch end.
    pub arch_entropy: f32,
    /// λ₂ used this epoch.
    pub lambda2: f32,
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The derived (argmax) architecture.
    pub choices: Vec<SlotChoice>,
    /// Final soft architecture probabilities per slot.
    pub probs: Vec<Vec<f32>>,
    /// Per-epoch diagnostics.
    pub history: Vec<EpochStats>,
    /// What the fault-tolerance layer did (all zeros when `DANCE_GUARD=off`
    /// or nothing went wrong).
    pub guard: GuardReport,
}

impl SearchOutcome {
    /// The FNV-1a fingerprint of this outcome's final architecture
    /// probabilities ([`arch_digest`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        arch_digest(&self.probs)
    }
}

/// FNV-1a digest over final architecture probabilities — the cheap,
/// deterministic fingerprint every resume/handoff gate in the workspace
/// compares (`dance_search --resume`, serve job results, fleet handoff).
///
/// Folds each probability's `f32` bit pattern as one word (not byte-wise),
/// matching the historical `arch-digest` lines the CI smokes grep for.
#[must_use]
pub fn arch_digest(probs: &[Vec<f32>]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for row in probs {
        for p in row {
            digest ^= u64::from(p.to_bits());
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

fn batch_input(net: &Supernet, batch: &Batch) -> Var {
    net.input_from(&batch.x, batch.batch)
}

/// Builds the full search loss once on a tiny probe batch and runs the
/// static graph linter over it — every check the training loop relies on
/// (op shapes, arities, parameter reachability) is verified before the
/// first weight update instead of failing steps into a run.
///
/// Uses its own RNG stream (`seed ^ 0x9e37_79b9`) so the probe never
/// perturbs the sequence of batches and Gumbel draws the search itself sees.
fn lint_search_loss(
    supernet: &Supernet,
    arch: &ArchParams,
    data: &TaskData,
    penalty: &Penalty<'_>,
    cfg: &SearchConfig,
) -> Result<(), String> {
    let mut probe_rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9);
    let batcher = Batcher::new(&data.train, cfg.batch_size);
    let probe_n = batcher.full().batch.min(4).max(2); // ≥2: batch norm needs variance
    let pb = batcher.gather(&(0..probe_n).collect::<Vec<usize>>());
    let x = batch_input(supernet, &pb);
    let logits = supernet.forward(&x, ForwardMode::Mixture(arch));
    let mut loss = cross_entropy(&logits, &pb.y, cfg.label_smoothing);
    match penalty {
        Penalty::None => {}
        Penalty::Flops(template) => {
            let p = dance_nas::flops::expected_flops_penalty(arch, template);
            loss = loss.add(&p.scale(1.0).sum());
        }
        Penalty::Evaluator {
            evaluator,
            cost_fn,
            reference,
        } => {
            let metrics = evaluator.predict_metrics(&arch.encode(), &mut probe_rng);
            let hw = cost_hw_var(&metrics, cost_fn, *reference);
            loss = loss.add(&hw.scale(1.0).sum());
        }
    }

    let mut named: Vec<(String, Var)> = Vec::new();
    for (i, p) in supernet.parameters().into_iter().enumerate() {
        named.push((format!("supernet[{i}]"), p));
    }
    for (i, p) in arch.parameters().into_iter().enumerate() {
        named.push((format!("alpha[{i}]"), p));
    }
    lint_graph(&loss, &named).enforce(false)
}

/// The hardware-cost penalty of the search: what the architecture step adds
/// beyond cross-entropy.
pub enum Penalty<'a> {
    /// No penalty (accuracy-only baseline).
    None,
    /// Expected-FLOPs penalty (ProxylessNAS baseline) over the given 2-D
    /// template.
    Flops(&'a dance_accel::workload::NetworkTemplate),
    /// DANCE: `CostHW` through a frozen evaluator, under a cost function,
    /// normalized by a reference cost value.
    Evaluator {
        /// The frozen evaluator.
        evaluator: &'a Evaluator,
        /// The cost function applied to its three outputs.
        cost_fn: CostFunction,
        /// Normalization constant (cost at the uniform architecture).
        reference: f64,
    },
}

/// Runs the differentiable co-exploration (or a baseline, depending on
/// `penalty`), mutating `arch` in place.
///
/// Equivalent to [`dance_search_guarded`] with the default (observe-only)
/// [`GuardConfig`]; as long as the watchdog stays quiet the RNG stream and
/// therefore the whole trajectory are bit-identical to a run with
/// `DANCE_GUARD=off`.
///
/// # Panics
///
/// Panics if the supernet/arch slot counts disagree, the data does not
/// match the supernet input shape, or the static graph linter reports any
/// finding on the probe loss graph.
pub fn dance_search(
    supernet: &Supernet,
    arch: &ArchParams,
    data: &TaskData,
    penalty: &Penalty<'_>,
    cfg: &SearchConfig,
) -> SearchOutcome {
    dance_search_guarded(supernet, arch, data, penalty, cfg, &GuardConfig::default())
}

/// Builds the full training-state snapshot at an epoch boundary.
///
/// `next_epoch` is the epoch the run would execute next — the resume cursor.
#[allow(clippy::too_many_arguments)] // lint: allow(panic-doc)
fn capture_snapshot(
    next_epoch: usize,
    global_step: u64,
    arch_steps: u64,
    rng: &StdRng,
    watchdog: &Watchdog,
    degraded: bool,
    supernet: &Supernet,
    arch: &ArchParams,
    w_opt: &Sgd,
    a_opt: &Adam,
    history: &[EpochStats],
) -> Snapshot {
    let mut s = Snapshot::new();
    s.put_u64("meta.next_epoch", next_epoch as u64);
    s.put_u64("meta.steps", global_step);
    s.put_u64("meta.arch_steps", arch_steps);
    s.put_rng("meta.rng", rng);
    s.put_f64s("meta.watchdog", &watchdog.state());
    s.put_u64("meta.degraded", u64::from(degraded));
    s.put_params("supernet", &supernet.parameters());
    s.put_params("alpha", &arch.parameters());
    s.put_tensor_list("opt.w.vel", w_opt.velocity());
    let (m, v) = a_opt.moments();
    s.put_tensor_list("opt.a.m", m);
    s.put_tensor_list("opt.a.v", v);
    s.put_u64("opt.a.t", u64::from(a_opt.step_count()));
    let flat: Vec<f32> = history
        .iter()
        .flat_map(|h| {
            [
                h.epoch as f32,
                h.train_ce,
                h.hw_cost,
                h.arch_entropy,
                h.lambda2,
            ]
        })
        .collect();
    s.put_tensor("history", Tensor::from_vec(flat, &[history.len(), 5]));
    s
}

/// Restores parameters, optimizer state and watchdog statistics from a
/// snapshot — the shared core of rollback (in-memory) and resume (disk).
fn restore_training_state(
    snap: &Snapshot,
    supernet: &Supernet,
    arch: &ArchParams,
    w_opt: &mut Sgd,
    a_opt: &mut Adam,
    watchdog: &mut Watchdog,
) -> io::Result<()> {
    let invalid = |e: String| io::Error::new(io::ErrorKind::InvalidData, e);
    snap.restore_params("supernet", &supernet.parameters())?;
    snap.restore_params("alpha", &arch.parameters())?;
    let n_w = supernet.parameters().len();
    let n_a = arch.parameters().len();
    w_opt
        .set_velocity(snap.tensor_list("opt.w.vel", n_w)?)
        .map_err(invalid)?;
    a_opt
        .set_moments(
            snap.tensor_list("opt.a.m", n_a)?,
            snap.tensor_list("opt.a.v", n_a)?,
        )
        .map_err(invalid)?;
    a_opt.set_step_count(snap.u64_at("opt.a.t")? as u32);
    let wd = snap.f64s_at("meta.watchdog")?;
    if wd.len() != 3 {
        return Err(invalid("malformed meta.watchdog state".to_string()));
    }
    watchdog.restore([wd[0], wd[1], wd[2]]);
    Ok(())
}

/// Decodes the per-epoch history rows stored by [`capture_snapshot`].
fn history_from_snapshot(snap: &Snapshot) -> io::Result<Vec<EpochStats>> {
    let t = snap.tensor("history")?;
    Ok(t.data()
        .chunks_exact(5)
        .map(|row| EpochStats {
            epoch: row[0] as usize,
            train_ce: row[1],
            hw_cost: row[2],
            arch_entropy: row[3],
            lambda2: row[4],
        })
        .collect())
}

/// Writes a NaN into the first element of the named parameter (fault
/// injection target; names follow the checkpoint keys `supernet.N` /
/// `alpha.N`).
fn poison_named(named: &[(String, Var)], target: &str) {
    if let Some((_, var)) = named.iter().find(|(n, _)| n == target) {
        let mut data = var.value().to_vec();
        if let Some(first) = data.first_mut() {
            *first = f32::NAN;
        }
        let shape = var.shape();
        var.set_value(Tensor::from_vec(data, &shape));
    } else {
        eprintln!("dance-guard: fault injection target {target:?} does not exist; ignored");
    }
}

/// [`dance_search`] with an explicit fault-tolerance configuration: a
/// numeric-health watchdog with rollback-to-last-good, periodic atomic
/// checkpoints, bit-for-bit resume, and graceful degradation of the learned
/// cost model to an analytical surrogate.
///
/// All guard work is gated on [`dance_guard::enabled()`], so
/// `DANCE_GUARD=off` reduces every guard site to a single branch and the
/// behavior (including the RNG stream) is exactly the pre-guard search.
///
/// # Panics
///
/// Panics under the same conditions as [`dance_search`], and additionally
/// when a checkpoint selected for resume restores tensors whose shapes
/// disagree with the live supernet/arch (resuming a different workload). A
/// missing resume directory or an all-corrupt one falls back to a fresh
/// start with a warning instead.
pub fn dance_search_guarded(
    supernet: &Supernet,
    arch: &ArchParams,
    data: &TaskData,
    penalty: &Penalty<'_>,
    cfg: &SearchConfig,
    guard_cfg: &GuardConfig,
) -> SearchOutcome {
    dance_search_traced(supernet, arch, data, penalty, cfg, guard_cfg, &mut |_| {})
}

/// [`dance_search_guarded`] with a per-epoch observer — the hook behind
/// `dance-fleet`'s per-epoch trajectory, which campaigns fold into their
/// frontiers.
///
/// `on_epoch` fires once per *healthy* epoch end (never for an epoch that
/// tripped the watchdog and rolled back), strictly **after** that epoch's
/// checkpoint has been durably written when checkpointing is on. So any
/// design point an observer records is backed by an on-disk checkpoint at
/// least as recent, which is what lets a killed fleet job prune checkpoints
/// past its last recorded point and resume bit-for-bit. Observers run on
/// the search thread and may borrow `supernet`/`arch` (shared borrows) to
/// derive the current architecture; the search does not hold any exclusive
/// borrow across the call.
///
/// # Panics
///
/// Panics under the same conditions as [`dance_search_guarded`].
#[allow(clippy::too_many_lines)] // lint: allow(panic-doc)
pub fn dance_search_traced(
    supernet: &Supernet,
    arch: &ArchParams,
    data: &TaskData,
    penalty: &Penalty<'_>,
    cfg: &SearchConfig,
    guard_cfg: &GuardConfig,
    on_epoch: &mut dyn FnMut(&EpochStats),
) -> SearchOutcome {
    assert_eq!(
        supernet.num_slots(),
        arch.num_slots(),
        "slot count mismatch"
    );
    // Auto-start a run log so a bare `dance_search` call writes an artifact;
    // inside a pipeline the outer run is already open and this is a no-op.
    let _run = dance_telemetry::runlog::RunGuard::start("search");
    if let Penalty::Evaluator { evaluator, .. } = penalty {
        evaluator.freeze();
    }
    if let Err(report) = lint_search_loss(supernet, arch, data, penalty, cfg) {
        panic!("refusing to train: {report}");
    }
    let guard_on = dance_guard::enabled();
    let faults = guard_cfg.fault_plan.as_ref().filter(|_| guard_on);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let train_batcher = Batcher::new(&data.train, cfg.batch_size);
    let val_batcher = Batcher::new(&data.val, cfg.batch_size);
    let schedule = CosineLr::new(cfg.lr_weights, cfg.epochs.max(1));
    let mut w_opt = Sgd::new(supernet.parameters(), cfg.lr_weights)
        .with_momentum(0.9)
        .with_nesterov()
        .with_weight_decay(cfg.weight_decay);
    let mut a_opt = Adam::new(arch.parameters(), cfg.lr_arch);
    let mut watchdog = Watchdog::new(guard_cfg.watchdog);
    let mut report = GuardReport::default();
    let mut history: Vec<EpochStats> = Vec::with_capacity(cfg.epochs);
    let mut global_step: u64 = 0; // weight steps, monotone across rollbacks
    let mut arch_steps: u64 = 0; // arch steps, monotone across rollbacks
    let mut cost_degraded = false; // sticky: learned cost net abandoned
    let mut start_epoch = 0usize;

    // Checkpoint-key names for the watchdog scans and fault targeting.
    let supernet_named: Vec<(String, Var)> = supernet
        .parameters()
        .into_iter()
        .enumerate()
        .map(|(i, p)| (format!("supernet.{i}"), p))
        .collect();
    let alpha_named: Vec<(String, Var)> = arch
        .parameters()
        .into_iter()
        .enumerate()
        .map(|(i, p)| (format!("alpha.{i}"), p))
        .collect();

    // --- Resume -----------------------------------------------------------
    let checkpoint = guard_cfg.checkpoint.as_ref().filter(|_| guard_on);
    let store = checkpoint.map(|c| CheckpointStore::new(&c.dir));
    if checkpoint.is_some_and(|c| c.resume) {
        if let Some(store) = &store {
            let dir = store.dir();
            if let Some((ckpt_epoch, snap)) = store.latest_good() {
                let restore = restore_training_state(
                    &snap,
                    supernet,
                    arch,
                    &mut w_opt,
                    &mut a_opt,
                    &mut watchdog,
                )
                .and_then(|()| {
                    rng = snap.rng_at("meta.rng")?;
                    global_step = snap.u64_at("meta.steps")?;
                    arch_steps = snap.u64_at("meta.arch_steps")?;
                    cost_degraded = snap.u64_at("meta.degraded")? != 0;
                    history = history_from_snapshot(&snap)?;
                    start_epoch = snap.u64_at("meta.next_epoch")? as usize;
                    Ok(())
                });
                if let Err(e) = restore {
                    panic!(
                        "resume from {} failed (checkpoint does not match this workload): {e}",
                        dir.display()
                    );
                }
                report.resumed_from_epoch = Some(ckpt_epoch);
                report.cost_model_degraded = cost_degraded;
                dance_telemetry::counter!("guard.resume");
                dance_telemetry::runlog::emit_guard(
                    "resume",
                    &format!("epoch {ckpt_epoch} from {}", dir.display()),
                );
                eprintln!(
                    "dance-guard: resumed from {} (epoch {ckpt_epoch}, continuing at {start_epoch})",
                    dir.display()
                );
            } else {
                eprintln!(
                    "dance-guard: no usable checkpoint under {}; starting fresh",
                    dir.display()
                );
            }
        }
    }

    // In-memory last-good snapshot: the rollback target. Captured at every
    // healthy epoch boundary whether or not disk checkpointing is on.
    let mut last_good: Option<Snapshot> = guard_on.then(|| {
        capture_snapshot(
            start_epoch,
            global_step,
            arch_steps,
            &rng,
            &watchdog,
            cost_degraded,
            supernet,
            arch,
            &w_opt,
            &a_opt,
            &history,
        )
    });

    let mut epoch = start_epoch;
    while epoch < cfg.epochs {
        let _epoch_span = dance_telemetry::span!("search.epoch");
        w_opt.set_lr(schedule.lr_at(epoch));
        let lambda2 = cfg.lambda2.lambda_at(epoch);
        let train_batches = train_batcher.epoch(&mut rng);
        let mut val_batches = val_batcher.epoch(&mut rng).into_iter();
        let mut ce_sum = 0.0;
        let mut hw_sum = 0.0;
        let mut hw_count = 0usize;
        let mut trip: Option<dance_guard::watchdog::TripReason> = None;

        for (step, tb) in train_batches.iter().enumerate() {
            // --- Weight step on the training split --------------------
            if let Some(target) = faults.and_then(|f| f.nan_tensor_at(global_step)) {
                poison_named(&supernet_named, target);
                poison_named(&alpha_named, target);
            }
            let loss_val = {
                let _step_span = dance_telemetry::hot_span!("search.weight_step");
                let x = batch_input(supernet, tb);
                let logits = supernet.forward(&x, ForwardMode::Mixture(arch));
                let loss = cross_entropy(&logits, &tb.y, cfg.label_smoothing);
                let mut loss_val = loss.item();
                if faults.is_some_and(|f| f.nan_loss_at(global_step)) {
                    loss_val = f32::NAN;
                }
                ce_sum += loss_val;
                if guard_on {
                    trip = watchdog.observe_loss(loss_val);
                }
                if trip.is_none() {
                    w_opt.zero_grad();
                    a_opt.zero_grad(); // mixture grads leak into α; discard them here
                    loss.backward();
                    a_opt.zero_grad();
                    clip_grad_norm(&supernet.parameters(), 5.0);
                    w_opt.step();
                }
                loss_val
            };
            global_step += 1;
            if trip.is_some() {
                break;
            }
            dance_telemetry::histogram!("epoch.loss", f64::from(loss_val));

            // --- Architecture step on the validation split ------------
            // Alternate: one α step per two weight steps keeps the search
            // stable on small validation splits.
            if step % 2 == 0 {
                let Some(vb) = val_batches.next() else {
                    continue;
                };
                let _step_span = dance_telemetry::hot_span!("search.arch_step");
                let x = batch_input(supernet, &vb);
                let logits = supernet.forward(&x, ForwardMode::Mixture(arch));
                let mut loss = cross_entropy(&logits, &vb.y, cfg.label_smoothing);
                match penalty {
                    Penalty::None => {}
                    Penalty::Flops(template) => {
                        let p = dance_nas::flops::expected_flops_penalty(arch, template);
                        loss = loss.add(&p.scale(lambda2).sum());
                    }
                    Penalty::Evaluator {
                        evaluator,
                        cost_fn,
                        reference,
                    } => {
                        let metrics = if cost_degraded {
                            // Already degraded: the analytical surrogate (or
                            // nothing, when no fallback was provided).
                            guard_cfg
                                .cost_fallback
                                .as_ref()
                                .map(|f| f.metrics_var(&arch.mixture_weights()))
                        } else {
                            let mut m = evaluator.predict_metrics(&arch.encode(), &mut rng);
                            if let Some(garbage) =
                                faults.and_then(|f| f.cost_garbage_at(arch_steps))
                            {
                                m = Var::constant(Tensor::from_vec(vec![garbage; 3], &[1, 3]));
                            }
                            if guard_on {
                                let analytic = guard_cfg
                                    .cost_fallback
                                    .as_ref()
                                    .map(|f| f.metrics_value(&arch.probs_matrix()));
                                match check_metrics(
                                    &m.value(),
                                    analytic.as_ref(),
                                    guard_cfg.cost_envelope,
                                ) {
                                    Some(reason) => {
                                        cost_degraded = true;
                                        report.cost_model_degraded = true;
                                        dance_telemetry::counter!("guard.degrade.cost_model");
                                        dance_telemetry::runlog::emit_guard(
                                            "degrade.cost_model",
                                            &reason,
                                        );
                                        eprintln!(
                                            "dance-guard: degrading to the analytical cost \
                                             model: {reason}"
                                        );
                                        guard_cfg
                                            .cost_fallback
                                            .as_ref()
                                            .map(|f| f.metrics_var(&arch.mixture_weights()))
                                    }
                                    None => Some(m),
                                }
                            } else {
                                Some(m)
                            }
                        };
                        if let Some(metrics) = metrics {
                            let hw = cost_hw_var(&metrics, cost_fn, *reference);
                            hw_sum += hw.item();
                            hw_count += 1;
                            loss = loss.add(&hw.scale(lambda2).sum());
                        }
                    }
                }
                a_opt.zero_grad();
                w_opt.zero_grad(); // discard weight grads from the α step
                loss.backward();
                w_opt.zero_grad();
                clip_grad_norm(&arch.parameters(), 5.0);
                a_opt.step();
                arch_steps += 1;
                if guard_on {
                    trip = watchdog.scan_params(alpha_named.iter().map(|(n, v)| (n.as_str(), v)));
                    if trip.is_some() {
                        break;
                    }
                }
            }
        }

        // Per-epoch full parameter sweep: cheap relative to an epoch of
        // training, and catches weight corruption the loss has not yet
        // surfaced.
        if guard_on && trip.is_none() {
            trip = watchdog.scan_params(supernet_named.iter().map(|(n, v)| (n.as_str(), v)));
        }

        // --- Trip handling: roll back to last-good and retry ----------
        if let Some(reason) = trip {
            report.watchdog_trips += 1;
            dance_telemetry::counter!("guard.watchdog.trip");
            dance_telemetry::runlog::emit_guard("watchdog.trip", &reason.to_string());
            eprintln!("dance-guard: watchdog tripped in epoch {epoch}: {reason}");
            let snap = last_good
                .as_ref()
                .expect("guard enabled implies a last-good snapshot");
            restore_training_state(snap, supernet, arch, &mut w_opt, &mut a_opt, &mut watchdog)
                .expect("in-memory snapshot always matches the live model");
            if report.rollbacks >= MAX_ROLLBACKS {
                dance_telemetry::runlog::emit_guard(
                    "giveup",
                    &format!("epoch {epoch} after {} rollbacks", report.rollbacks),
                );
                eprintln!(
                    "dance-guard: giving up after {} rollbacks; returning last-good state",
                    report.rollbacks
                );
                break;
            }
            report.rollbacks += 1;
            // Fresh Gumbel noise and batch order for the retry, still fully
            // deterministic in (seed, rollback count).
            rng = StdRng::seed_from_u64(
                cfg.seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(report.rollbacks)),
            );
            let decayed_lr = a_opt.lr() * ROLLBACK_ARCH_LR_DECAY;
            a_opt.set_lr(decayed_lr);
            dance_telemetry::counter!("guard.rollback");
            dance_telemetry::runlog::emit_guard(
                "rollback",
                &format!(
                    "epoch {epoch} retry {}, arch lr {decayed_lr}",
                    report.rollbacks
                ),
            );
            continue; // retry the same epoch
        }

        // --- Healthy epoch end ----------------------------------------
        let stats = EpochStats {
            epoch,
            train_ce: ce_sum / train_batches.len().max(1) as f32,
            hw_cost: if hw_count > 0 {
                hw_sum / hw_count as f32
            } else {
                0.0
            },
            arch_entropy: arch.mean_entropy(),
            lambda2,
        };
        dance_telemetry::gauge!("search.train_ce", f64::from(stats.train_ce));
        dance_telemetry::gauge!("search.hw_cost", f64::from(stats.hw_cost));
        dance_telemetry::gauge!("search.arch_entropy", f64::from(stats.arch_entropy));
        dance_telemetry::gauge!("search.lambda2", f64::from(stats.lambda2));
        history.push(stats);

        if guard_on {
            let snap = capture_snapshot(
                epoch + 1,
                global_step,
                arch_steps,
                &rng,
                &watchdog,
                cost_degraded,
                supernet,
                arch,
                &w_opt,
                &a_opt,
                &history,
            );
            if let Some(store) = &store {
                match store.save(epoch, &snap) {
                    Ok(path) => {
                        report.checkpoints_written += 1;
                        dance_telemetry::counter!("guard.checkpoint.saved");
                        if faults.is_some_and(|f| f.corrupt_checkpoint_at(epoch)) {
                            if let Err(e) = FaultPlan::apply_corruption(&path) {
                                eprintln!(
                                    "dance-guard: fault injection could not corrupt {}: {e}",
                                    path.display()
                                );
                            }
                        }
                    }
                    // Checkpoint I/O failure must never abort a search.
                    Err(e) => eprintln!("dance-guard: checkpoint save failed: {e}"),
                }
            }
            last_good = Some(snap);
        }
        // Observer fires only after the epoch's checkpoint (if any) is on
        // disk — see `dance_search_traced`.
        on_epoch(history.last().expect("epoch stats pushed above"));
        let crashed = faults.is_some_and(|f| f.crash_after(epoch));
        epoch += 1;
        if crashed {
            report.aborted_by_fault = true;
            dance_telemetry::runlog::emit_guard(
                "fault.crash",
                &format!("simulated crash after epoch {}", epoch - 1),
            );
            break;
        }
    }

    let choices = arch.derive();
    if dance_telemetry::enabled() {
        for c in &choices {
            dance_telemetry::metrics::inc_counter(&format!("search.chosen.{c}"), 1);
        }
    }
    SearchOutcome {
        choices,
        probs: arch.probs_matrix(),
        history,
        guard: report,
    }
}

/// Trains a *derived* (fixed-path) network from scratch and returns its test
/// accuracy — the paper's "the final network was trained from scratch"
/// protocol.
pub fn train_derived(
    config: SupernetConfig,
    choices: &[SlotChoice],
    data: &TaskData,
    epochs: usize,
    batch_size: usize,
    lr: f32,
    seed: u64,
) -> f32 {
    let _span = dance_telemetry::span!("search.train_derived");
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Supernet::new(config, &mut rng);
    let schedule = CosineLr::new(lr, epochs.max(1));
    let mut opt = Sgd::new(net.parameters(), lr)
        .with_momentum(0.9)
        .with_nesterov()
        .with_weight_decay(1e-4);
    let batcher = Batcher::new(&data.train, batch_size);
    for epoch in 0..epochs {
        opt.set_lr(schedule.lr_at(epoch));
        for b in batcher.epoch(&mut rng) {
            let x = net.input_from(&b.x, b.batch);
            let logits = net.forward(&x, ForwardMode::Fixed(choices));
            let loss = cross_entropy(&logits, &b.y, 0.1);
            opt.zero_grad();
            loss.backward();
            clip_grad_norm(&net.parameters(), 5.0);
            opt.step();
        }
    }
    evaluate_fixed(&net, choices, data)
}

/// Test accuracy of a fixed-path network.
pub fn evaluate_fixed(net: &Supernet, choices: &[SlotChoice], data: &TaskData) -> f32 {
    let _span = dance_telemetry::hot_span!("search.evaluate_fixed");
    let batcher = Batcher::new(&data.test, 256);
    let mut correct = 0.0;
    let mut total = 0usize;
    let full = batcher.full();
    for start in (0..full.batch).step_by(256) {
        let end = (start + 256).min(full.batch);
        let idxs: Vec<usize> = (start..end).collect();
        let b = batcher.gather(&idxs);
        let x = net.input_from(&b.x, b.batch);
        let logits = net.forward(&x, ForwardMode::Fixed(choices));
        correct += accuracy(&logits.value(), &b.y) * b.batch as f32;
        total += b.batch;
    }
    correct / total.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_data::synth::{SynthSpec, SynthTask};

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

    #[test]
    fn search_without_penalty_improves_ce() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Supernet::new(tiny_config(), &mut rng);
        let arch = ArchParams::new(9, &mut rng);
        let data = tiny_task();
        let cfg = SearchConfig {
            epochs: 6,
            batch_size: 32,
            lambda2: LambdaWarmup::constant(0.0),
            ..SearchConfig::default()
        };
        let out = dance_search(&net, &arch, &data, &Penalty::None, &cfg);
        assert_eq!(out.choices.len(), 9);
        let first = out.history.first().unwrap().train_ce;
        let last = out.history.last().unwrap().train_ce;
        assert!(last < first, "CE did not improve: {first} -> {last}");
    }

    #[test]
    fn flops_penalty_pushes_toward_lighter_ops() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Supernet::new(tiny_config(), &mut rng);
        let template = dance_accel::workload::NetworkTemplate::cifar10();
        let data = tiny_task();
        // Huge penalty: architecture should collapse toward Zero / light ops.
        let arch = ArchParams::new(9, &mut rng);
        let cfg = SearchConfig {
            epochs: 20,
            batch_size: 32,
            lr_arch: 0.1,
            lambda2: LambdaWarmup::constant(50.0),
            ..SearchConfig::default()
        };
        let out = dance_search(&net, &arch, &data, &Penalty::Flops(&template), &cfg);
        let flops = dance_nas::flops::expected_flops_penalty(&arch, &template).item();
        assert!(flops < 0.25, "expected light architecture, penalty {flops}");
        let _ = out;
    }

    #[test]
    fn derived_training_beats_chance() {
        let data = tiny_task();
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 3,
                expand: 3
            };
            9
        ];
        let acc = train_derived(tiny_config(), &choices, &data, 25, 32, 0.02, 7);
        assert!(
            acc > 0.5,
            "derived accuracy {acc} at or below chance (0.33)"
        );
    }

    #[test]
    fn history_records_lambda_schedule() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Supernet::new(tiny_config(), &mut rng);
        let arch = ArchParams::new(9, &mut rng);
        let data = tiny_task();
        let cfg = SearchConfig {
            epochs: 4,
            batch_size: 32,
            lambda2: LambdaWarmup::ramp(2.0, 2),
            ..SearchConfig::default()
        };
        let out = dance_search(&net, &arch, &data, &Penalty::None, &cfg);
        assert!(out.history[0].lambda2 < out.history[3].lambda2);
        assert_eq!(out.history.len(), 4);
    }

    #[test]
    fn builder_defaults_match_default_config() {
        let built = SearchConfig::builder().build().expect("defaults are valid");
        assert_eq!(built, SearchConfig::default());
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = SearchConfig::builder()
            .epochs(3)
            .batch_size(16)
            .lr_weights(0.1)
            .lr_arch(0.05)
            .weight_decay(1e-4)
            .label_smoothing(0.2)
            .lambda2(LambdaWarmup::constant(0.5))
            .seed(9)
            .build()
            .expect("valid config");
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.batch_size, 16);
        assert_eq!(cfg.lr_weights, 0.1); // lint: allow(float-eq) exact round-trip
        assert_eq!(cfg.lr_arch, 0.05); // lint: allow(float-eq) exact round-trip
        assert_eq!(cfg.lambda2, LambdaWarmup::constant(0.5));
        assert_eq!(cfg.seed, 9);
    }

    #[test]
    fn builder_rejects_invalid_knobs() {
        let cases = [
            (SearchConfig::builder().epochs(0).build(), "epochs"),
            (SearchConfig::builder().batch_size(1).build(), "batch_size"),
            (
                SearchConfig::builder().lr_weights(0.0).build(),
                "lr_weights",
            ),
            (SearchConfig::builder().lr_arch(f32::NAN).build(), "lr_arch"),
            (
                SearchConfig::builder().weight_decay(-1.0).build(),
                "weight_decay",
            ),
            (
                SearchConfig::builder().label_smoothing(1.0).build(),
                "label_smoothing",
            ),
            (
                SearchConfig::builder()
                    .lambda2(LambdaWarmup::constant(-0.1))
                    .build(),
                "lambda2",
            ),
        ];
        for (result, field) in cases {
            let err = result.expect_err(field);
            assert_eq!(err.field(), field);
            assert!(err.to_string().contains(field), "{err}");
        }
    }
}
