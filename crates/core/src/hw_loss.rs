//! Differentiable `CostHW` terms (paper §3.5, Eqs. 3–4) over evaluator
//! outputs.

use dance_autograd::var::Var;
use dance_cost::metrics::CostFunction;

/// Builds the scalar `CostHW` variable from a `[1, 3]` metrics prediction
/// (`[latency_ms, energy_mj, area_mm2]`), normalized by `reference` so that
/// λ₂ has a workload-independent scale (the reference is typically the cost
/// of the uniform-architecture starting point).
///
/// # Panics
///
/// Panics if `metrics` is not `[1, 3]` or `reference` is not positive.
pub fn cost_hw_var(metrics: &Var, cost_fn: &CostFunction, reference: f64) -> Var {
    assert_eq!(metrics.shape(), vec![1, 3], "metrics must be [1, 3]");
    assert!(reference > 0.0, "reference cost must be positive");
    let lat = metrics.slice_cols(0, 1);
    let energy = metrics.slice_cols(1, 1);
    let area = metrics.slice_cols(2, 1);
    let raw = match cost_fn {
        CostFunction::Linear(w) => lat
            .scale(w.lambda_l as f32)
            .add(&energy.scale(w.lambda_e as f32))
            .add(&area.scale(w.lambda_a as f32)),
        CostFunction::Edap => lat.mul(&energy).mul(&area),
    };
    raw.scale(1.0 / reference as f32).reshape(&[1])
}

/// The non-differentiable counterpart, for references and reporting.
pub fn cost_hw_value(metrics: [f64; 3], cost_fn: &CostFunction) -> f64 {
    cost_fn.apply_array(metrics)
}

/// Hardware-cost schedule warm-up (paper §3.4): small λ₂ for the first few
/// epochs so the architecture first climbs toward high accuracy, then the
/// full λ₂ — without this the search collapses onto all-Zero architectures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaWarmup {
    /// λ₂ during warm-up.
    pub initial: f32,
    /// λ₂ after warm-up.
    pub target: f32,
    /// Number of warm-up epochs.
    pub warmup_epochs: usize,
}

impl LambdaWarmup {
    /// Constant schedule (no warm-up) — the ablation.
    pub fn constant(value: f32) -> Self {
        Self {
            initial: value,
            target: value,
            warmup_epochs: 0,
        }
    }

    /// The paper's schedule: near-zero λ₂ for `warmup_epochs`, then `target`.
    pub fn ramp(target: f32, warmup_epochs: usize) -> Self {
        Self {
            initial: 0.0,
            target,
            warmup_epochs,
        }
    }

    /// λ₂ at `epoch`.
    pub fn lambda_at(&self, epoch: usize) -> f32 {
        if epoch < self.warmup_epochs {
            // Linear ramp within the warm-up window.
            let t = epoch as f32 / self.warmup_epochs.max(1) as f32;
            self.initial + t * (self.target - self.initial) * 0.25
        } else {
            self.target
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_autograd::tensor::Tensor;
    use dance_cost::metrics::CostWeights;

    #[test]
    fn linear_cost_matches_eq3() {
        let m = Var::constant(Tensor::from_vec(vec![2.0, 1.0, 3.0], &[1, 3]));
        let f = CostFunction::Linear(CostWeights {
            lambda_l: 4.1,
            lambda_e: 4.8,
            lambda_a: 1.0,
        });
        let v = cost_hw_var(&m, &f, 1.0);
        assert!((v.item() - (4.1 * 2.0 + 4.8 + 3.0) as f32).abs() < 1e-4);
    }

    #[test]
    fn edap_cost_matches_eq4() {
        let m = Var::constant(Tensor::from_vec(vec![2.0, 5.0, 3.0], &[1, 3]));
        let v = cost_hw_var(&m, &CostFunction::Edap, 10.0);
        assert!((v.item() - 3.0).abs() < 1e-5);
    }

    #[test]
    fn cost_is_differentiable() {
        let m = Var::parameter(Tensor::from_vec(vec![2.0, 5.0, 3.0], &[1, 3]));
        cost_hw_var(&m, &CostFunction::Edap, 1.0).backward();
        let g = m.grad().unwrap();
        // d(L·E·A)/dL = E·A = 15, etc.
        assert!((g.data()[0] - 15.0).abs() < 1e-4);
        assert!((g.data()[1] - 6.0).abs() < 1e-4);
        assert!((g.data()[2] - 10.0).abs() < 1e-4);
    }

    #[test]
    fn warmup_ramps_then_holds() {
        let w = LambdaWarmup::ramp(1.0, 4);
        assert!(w.lambda_at(0) < 0.1);
        assert!(w.lambda_at(3) < w.lambda_at(4));
        assert_eq!(w.lambda_at(4), 1.0);
        assert_eq!(w.lambda_at(100), 1.0);
    }

    #[test]
    fn constant_schedule_is_flat() {
        let w = LambdaWarmup::constant(0.5);
        assert_eq!(w.lambda_at(0), 0.5);
        assert_eq!(w.lambda_at(10), 0.5);
    }
}
