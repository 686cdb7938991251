//! Graceful cost-model degradation.
//!
//! The learned cost net is a regression model: off its training
//! distribution it can emit garbage (non-finite values, or predictions
//! orders of magnitude away from physics). Aborting a multi-hour search
//! over that would be absurd when an exact analytical model of the same
//! quantity exists — the precomputed cost table is *linear* in the
//! per-slot choice probabilities at a fixed accelerator configuration, so
//! `fixed + Σ_s p_s · w_s` is both exact and differentiable. This module
//! holds that surrogate ([`AnalyticCostModel`]) and the validity check
//! ([`check_metrics`]) that decides when to switch to it.

use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;

/// Metric labels, in the `[1, 3]` prediction order used everywhere in the
/// stack.
pub const METRIC_NAMES: [&str; 3] = ["latency_ms", "energy_mj", "area_mm2"];

/// A differentiable linear surrogate of the hardware cost at one fixed
/// accelerator configuration.
///
/// Built from `CostTable::linear_surrogate` (the guard crate stays below
/// `dance-hwgen` in the dependency graph, so the table hands the raw
/// coefficients across). `fixed` is `[latency_ms, energy_mj, area_mm2]` of
/// the stem/head plus the configuration's constant area; `per_slot[s][c]`
/// is the `[latency_ms, energy_mj]` contribution of choice `c` in slot `s`.
#[derive(Debug, Clone)]
pub struct AnalyticCostModel {
    fixed: [f32; 3],
    per_slot: Vec<Vec<[f32; 2]>>,
}

impl AnalyticCostModel {
    /// Wraps surrogate coefficients (e.g. from
    /// `CostTable::linear_surrogate`, narrowed to `f32`).
    pub fn from_parts(fixed: [f64; 3], per_slot: &[Vec<[f64; 2]>]) -> Self {
        Self {
            fixed: [fixed[0] as f32, fixed[1] as f32, fixed[2] as f32],
            per_slot: per_slot
                .iter()
                .map(|row| row.iter().map(|w| [w[0] as f32, w[1] as f32]).collect())
                .collect(),
        }
    }

    /// Number of slots the surrogate covers.
    pub fn num_slots(&self) -> usize {
        self.per_slot.len()
    }

    /// The `[1, 3]` metrics prediction as a differentiable function of the
    /// per-slot mixture weights (each a `[n_choices]` probability vector on
    /// the tape) — gradients flow back into the arch parameters exactly
    /// like the learned net's prediction would.
    ///
    /// # Panics
    ///
    /// Panics if `mixture` disagrees with the surrogate in slot count or
    /// choice count.
    pub fn metrics_var(&self, mixture: &[Var]) -> Var {
        assert_eq!(
            mixture.len(),
            self.per_slot.len(),
            "surrogate slot count mismatch"
        );
        let mut lat: Option<Var> = None;
        let mut energy: Option<Var> = None;
        for (weights, probs) in self.per_slot.iter().zip(mixture) {
            assert_eq!(
                probs.shape().iter().product::<usize>(),
                weights.len(),
                "surrogate choice count mismatch"
            );
            let shape = probs.shape();
            let w_lat = Tensor::from_vec(weights.iter().map(|w| w[0]).collect(), &shape);
            let w_energy = Tensor::from_vec(weights.iter().map(|w| w[1]).collect(), &shape);
            let l = probs.mul(&Var::constant(w_lat)).sum();
            let e = probs.mul(&Var::constant(w_energy)).sum();
            lat = Some(match lat {
                Some(acc) => acc.add(&l),
                None => l,
            });
            energy = Some(match energy {
                Some(acc) => acc.add(&e),
                None => e,
            });
        }
        let lat = lat
            .map(|v| v.add_scalar(self.fixed[0]))
            .unwrap_or_else(|| Var::constant(Tensor::scalar(self.fixed[0])));
        let energy = energy
            .map(|v| v.add_scalar(self.fixed[1]))
            .unwrap_or_else(|| Var::constant(Tensor::scalar(self.fixed[1])));
        let area = Var::constant(Tensor::scalar(self.fixed[2]));
        Var::concat_cols(&[
            &lat.reshape(&[1, 1]),
            &energy.reshape(&[1, 1]),
            &area.reshape(&[1, 1]),
        ])
    }

    /// The plain-number counterpart of [`AnalyticCostModel::metrics_var`].
    ///
    /// # Panics
    ///
    /// Panics if `probs` disagrees with the surrogate in slot or choice
    /// count.
    pub fn metrics_value(&self, probs: &[Vec<f32>]) -> [f32; 3] {
        assert_eq!(
            probs.len(),
            self.per_slot.len(),
            "surrogate slot count mismatch"
        );
        let mut out = self.fixed;
        for (row, weights) in probs.iter().zip(&self.per_slot) {
            assert_eq!(row.len(), weights.len(), "surrogate choice count mismatch");
            for (&p, w) in row.iter().zip(weights) {
                out[0] += p * w[0];
                out[1] += p * w[1];
            }
        }
        out
    }
}

/// Validates a learned `[1, 3]` metrics prediction.
///
/// Non-finite values always fail. When `analytic` is given, each metric
/// must also land within a factor of `envelope` of the analytical value
/// (both ways), because a cost signal that is wrong by orders of magnitude
/// steers the search as badly as a NaN poisons it. Returns a description
/// of the first violation, or `None` when the prediction is usable.
pub fn check_metrics(pred: &Tensor, analytic: Option<&[f32; 3]>, envelope: f32) -> Option<String> {
    let data = pred.data();
    for (i, &v) in data.iter().enumerate() {
        if !v.is_finite() {
            let name = METRIC_NAMES.get(i).unwrap_or(&"metric");
            return Some(format!("cost net predicted non-finite {name} ({v})"));
        }
    }
    if let Some(expected) = analytic {
        for ((&v, &truth), name) in data.iter().zip(expected).zip(METRIC_NAMES) {
            if truth <= 0.0 {
                continue;
            }
            let ratio = v / truth;
            if !(1.0 / envelope..=envelope).contains(&ratio) {
                return Some(format!(
                    "cost net {name} = {v:.4e} is {ratio:.2e}× the analytical {truth:.4e} \
                     (envelope ±{envelope}×)"
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalyticCostModel {
        AnalyticCostModel::from_parts(
            [1.0, 2.0, 3.0],
            &[
                vec![[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                vec![[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            ],
        )
    }

    #[test]
    fn metrics_var_matches_metrics_value() {
        let m = model();
        let probs = vec![vec![0.2f32, 0.3, 0.5], vec![0.6, 0.1, 0.3]];
        let mixture: Vec<Var> = probs
            .iter()
            .map(|row| Var::constant(Tensor::from_vec(row.clone(), &[row.len()])))
            .collect();
        let var = m.metrics_var(&mixture);
        assert_eq!(var.shape(), vec![1, 3]);
        let expected = m.metrics_value(&probs);
        for (a, b) in var.value().data().iter().zip(expected) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn metrics_var_is_differentiable_in_the_mixture() {
        let m = model();
        let p = Var::parameter(Tensor::from_vec(vec![0.2, 0.3, 0.5], &[3]));
        let q = Var::parameter(Tensor::from_vec(vec![0.6, 0.1, 0.3], &[3]));
        m.metrics_var(&[p.clone(), q.clone()]).sum().backward();
        // d(lat + energy + area)/dp_c = w_lat[c] + w_energy[c].
        let g = p.grad().expect("gradient reaches the mixture");
        assert!((g.data()[0] - 0.3).abs() < 1e-6);
        assert!((g.data()[2] - 1.1).abs() < 1e-6);
        let g = q.grad().expect("gradient reaches the second slot");
        assert!((g.data()[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn check_rejects_non_finite_predictions() {
        let bad = Tensor::from_vec(vec![1.0, f32::NAN, 3.0], &[1, 3]);
        let reason = check_metrics(&bad, None, 100.0).expect("NaN must be rejected");
        assert!(reason.contains("energy_mj"), "{reason}");
        let inf = Tensor::from_vec(vec![f32::INFINITY, 1.0, 3.0], &[1, 3]);
        assert!(check_metrics(&inf, None, 100.0).is_some());
    }

    #[test]
    fn envelope_check_needs_the_analytic_reference() {
        let wild = Tensor::from_vec(vec![1e9, 1.0, 1.0], &[1, 3]);
        // Without a reference only finiteness is checked.
        assert!(check_metrics(&wild, None, 100.0).is_none());
        let analytic = [1.0f32, 1.0, 1.0];
        let reason = check_metrics(&wild, Some(&analytic), 100.0).expect("way out of envelope");
        assert!(reason.contains("latency_ms"), "{reason}");
        // Both directions trip.
        let tiny = Tensor::from_vec(vec![1.0, 1e-9, 1.0], &[1, 3]);
        assert!(check_metrics(&tiny, Some(&analytic), 100.0).is_some());
        // In-envelope passes.
        let fine = Tensor::from_vec(vec![2.0, 0.5, 1.0], &[1, 3]);
        assert!(check_metrics(&fine, Some(&analytic), 100.0).is_none());
    }
}
