//! The cost estimation network (paper §3.3).
//!
//! "We model the network as a five-layer regression network with residual
//! connections. It has ReLU as activation functions, and applies batch
//! normalization every layer. It outputs the three cost metrics of our
//! interest (latency, area, and energy consumption)." Trained with the MSRE
//! loss of Eq. 2. With *feature forwarding*, the input is the architecture
//! encoding concatenated with the (soft one-hot) hardware design; without
//! it, the network sees only the architecture and must internally model the
//! hardware generation step as well.

use rand::rngs::StdRng;

use dance_autograd::nn::{BatchNorm1d, Linear, Module};
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;

/// Five-layer residual regression network with batch norm, three outputs.
#[derive(Debug)]
pub struct CostNet {
    input: Linear,
    input_bn: BatchNorm1d,
    hidden: Vec<(Linear, BatchNorm1d)>,
    out: Linear,
    /// Per-metric normalization constants (targets are divided by these
    /// during training; predictions are multiplied back).
    normalizer: [f32; 3],
    in_width: usize,
}

impl CostNet {
    /// Builds the network for `in_width`-wide inputs with hidden `width`
    /// (the paper uses 256).
    pub fn new(in_width: usize, width: usize, rng: &mut StdRng) -> Self {
        let out = Linear::new(width, 3, rng);
        // The head predicts in log space; start it near zero so initial
        // predictions sit at the normalizer scale instead of e^±4 away.
        out.weight().update_value(|w| *w = w.scale(0.05));
        Self {
            input: Linear::new(in_width, width, rng),
            input_bn: BatchNorm1d::new(width),
            hidden: (0..3)
                .map(|_| (Linear::new(width, width, rng), BatchNorm1d::new(width)))
                .collect(),
            out,
            normalizer: [1.0; 3],
            in_width,
        }
    }

    /// Input width this network expects.
    pub fn in_width(&self) -> usize {
        self.in_width
    }

    /// Sets the per-metric normalization constants (typically the training
    /// set means).
    ///
    /// # Panics
    ///
    /// Panics if any constant is not positive.
    pub fn set_normalizer(&mut self, normalizer: [f32; 3]) {
        assert!(
            normalizer.iter().all(|&x| x > 0.0),
            "normalizer must be positive, got {normalizer:?}"
        );
        self.normalizer = normalizer;
    }

    /// The normalization constants.
    pub fn normalizer(&self) -> [f32; 3] {
        self.normalizer
    }

    /// Normalized predictions `[batch, 3]` (divide targets by
    /// [`Self::normalizer`] to compare).
    ///
    /// The head predicts in log space and is exponentiated, so outputs are
    /// always positive and the multi-decade dynamic range of latency/energy
    /// (tiny all-Zero networks vs. heavy MB7x7_e6 ones) stays learnable.
    pub fn forward_normalized(&self, input: &Var) -> Var {
        let mut h = self.input_bn.forward(&self.input.forward(input)).relu();
        for (lin, bn) in &self.hidden {
            h = bn.forward(&lin.forward(&h)).relu().add(&h);
        }
        self.out.forward(&h).exp()
    }

    /// Raw metric predictions `[batch, 3]` = `[latency_ms, energy_mj,
    /// area_mm2]`, de-normalized and differentiable.
    pub fn forward(&self, input: &Var) -> Var {
        let scale = Var::constant(Tensor::from_vec(self.normalizer.to_vec(), &[3]));
        dance_autograd::nn::mul_row_broadcast(&self.forward_normalized(input), &scale)
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.input.parameters();
        p.extend(self.input_bn.parameters());
        for (lin, bn) in &self.hidden {
            p.extend(lin.parameters());
            p.extend(bn.parameters());
        }
        p.extend(self.out.parameters());
        p
    }

    /// Switches batch-norm between training and inference statistics. The
    /// evaluator must be in inference mode when frozen inside the search.
    pub fn set_training(&self, training: bool) {
        self.input_bn.set_training(training);
        for (_, bn) in &self.hidden {
            bn.set_training(training);
        }
    }

    /// Running (mean, variance) of every batch-norm layer, input layer
    /// first — used for persistence.
    pub fn running_stats(&self) -> Vec<(Tensor, Tensor)> {
        let mut stats = vec![(self.input_bn.running_mean(), self.input_bn.running_var())];
        for (_, bn) in &self.hidden {
            stats.push((bn.running_mean(), bn.running_var()));
        }
        stats
    }

    /// Overwrites every batch-norm layer's running statistics, in the order
    /// of [`Self::running_stats`].
    ///
    /// # Panics
    ///
    /// Panics if the layer count or any tensor length mismatches.
    pub fn set_running_stats(&self, stats: Vec<(Tensor, Tensor)>) {
        assert_eq!(stats.len(), self.hidden.len() + 1, "batch-norm layer count");
        let mut it = stats.into_iter();
        let (m, v) = it.next().expect("validated length");
        self.input_bn.set_running_stats(m, v);
        for (_, bn) in &self.hidden {
            let (m, v) = it.next().expect("validated length");
            bn.set_running_stats(m, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn output_is_three_metrics() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = CostNet::new(105, 32, &mut rng);
        let x = Var::constant(Tensor::rand_normal(&[4, 105], 0.0, 1.0, &mut rng));
        assert_eq!(net.forward(&x).shape(), vec![4, 3]);
    }

    #[test]
    fn normalizer_scales_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = CostNet::new(10, 16, &mut rng);
        net.set_training(false);
        let x = Var::constant(Tensor::rand_normal(&[2, 10], 0.0, 1.0, &mut rng));
        let base = net.forward(&x).value();
        net.set_normalizer([2.0, 3.0, 4.0]);
        let scaled = net.forward(&x).value();
        for i in 0..2 {
            assert!((scaled.at2(i, 0) - 2.0 * base.at2(i, 0)).abs() < 1e-5);
            assert!((scaled.at2(i, 1) - 3.0 * base.at2(i, 1)).abs() < 1e-5);
            assert!((scaled.at2(i, 2) - 4.0 * base.at2(i, 2)).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "normalizer must be positive")]
    fn zero_normalizer_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = CostNet::new(10, 16, &mut rng);
        net.set_normalizer([0.0, 1.0, 1.0]);
    }

    #[test]
    fn gradient_flows_to_input_in_eval_mode() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = CostNet::new(8, 16, &mut rng);
        net.set_training(false);
        let x = Var::parameter(Tensor::zeros(&[1, 8]));
        net.forward(&x).sqr().sum().backward();
        assert!(x.grad().is_some());
    }

    #[test]
    fn parameter_count_matches_structure() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = CostNet::new(8, 16, &mut rng);
        // (input linear 2 + bn 2) + 3×(linear 2 + bn 2) + out linear 2 = 18.
        assert_eq!(net.parameters().len(), 18);
    }

    #[test]
    fn can_overfit_a_tiny_regression() {
        use dance_autograd::loss::msre;
        use dance_autograd::optim::{Adam, Optimizer};
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = CostNet::new(4, 32, &mut rng);
        net.set_normalizer([5.0, 5.0, 5.0]);
        let x = Var::constant(Tensor::rand_uniform(&[16, 4], -1.0, 1.0, &mut rng));
        // Target: simple positive function of the inputs.
        let xt = x.value();
        let mut target = Tensor::zeros(&[16, 3]);
        for i in 0..16 {
            let s: f32 = (0..4).map(|j| xt.at2(i, j)).sum();
            for m in 0..3 {
                target.data_mut()[i * 3 + m] = 3.0 + s.abs() + m as f32;
            }
        }
        let mut opt = Adam::new(net.parameters(), 3e-3);
        for _ in 0..300 {
            opt.zero_grad();
            let loss = msre(&net.forward(&x), &target);
            loss.backward();
            opt.step();
        }
        net.set_training(false);
        let final_loss = msre(&net.forward(&x), &target).item();
        assert!(final_loss < 0.01, "MSRE stayed at {final_loss}");
    }
}
