//! The composed differentiable evaluator (paper Figure 4).
//!
//! Architecture parameters flow into the hardware generation network, whose
//! Gumbel-softmaxed heads produce a near-one-hot accelerator design; with
//! *feature forwarding* that design is concatenated to the architecture
//! encoding and fed to the cost estimation network, which outputs the three
//! hardware metrics. The whole pipeline is a frozen, differentiable stand-in
//! for the hardware generation + cost estimation toolchain, giving the NAS
//! loss a gradient path from `CostHW` back to the architecture parameters.

use rand::rngs::StdRng;

use dance_accel::config::AcceleratorConfig;
use dance_accel::space::HardwareSpace;
use dance_autograd::var::Var;
use dance_hwgen::dataset::CostSample;

use crate::cost_net::CostNet;
use crate::hwgen_net::{HeadSampling, HwGenNet};
use crate::metrics::relative_accuracy;

/// The frozen, differentiable accelerator evaluator.
#[derive(Debug)]
pub struct Evaluator {
    hwgen: HwGenNet,
    cost: CostNet,
    feature_forwarding: bool,
    sampling: HeadSampling,
    arch_width: usize,
}

impl Evaluator {
    /// Composes an evaluator *with* feature forwarding: the cost network
    /// must accept `arch_width + 42` inputs.
    ///
    /// # Panics
    ///
    /// Panics if the cost network's input width doesn't match.
    pub fn with_feature_forwarding(
        hwgen: HwGenNet,
        cost: CostNet,
        arch_width: usize,
        sampling: HeadSampling,
    ) -> Self {
        assert_eq!(
            cost.in_width(),
            arch_width + dance_accel::space::ENCODED_WIDTH,
            "cost net width must be arch + hw for feature forwarding"
        );
        Self {
            hwgen,
            cost,
            feature_forwarding: true,
            sampling,
            arch_width,
        }
    }

    /// Composes an evaluator *without* feature forwarding: the cost network
    /// sees only the architecture (and internally models the hardware
    /// generation step). The hardware generation network is still carried
    /// for discrete design read-out.
    ///
    /// # Panics
    ///
    /// Panics if the cost network's input width doesn't match.
    pub fn without_feature_forwarding(hwgen: HwGenNet, cost: CostNet, arch_width: usize) -> Self {
        assert_eq!(
            cost.in_width(),
            arch_width,
            "cost net width must equal arch width without feature forwarding"
        );
        Self {
            hwgen,
            cost,
            feature_forwarding: false,
            sampling: HeadSampling::Softmax { tau: 1.0 },
            arch_width,
        }
    }

    /// Whether feature forwarding is enabled.
    pub fn feature_forwarding(&self) -> bool {
        self.feature_forwarding
    }

    /// Width of the architecture encoding this evaluator accepts (the
    /// second dimension [`Evaluator::predict_metrics`] asserts on).
    pub fn arch_width(&self) -> usize {
        self.arch_width
    }

    /// The hardware generation component.
    pub fn hwgen(&self) -> &HwGenNet {
        &self.hwgen
    }

    /// The cost estimation component.
    pub fn cost_net(&self) -> &CostNet {
        &self.cost
    }

    /// Mutable access to the cost estimation component (for training).
    pub fn cost_net_mut(&mut self) -> &mut CostNet {
        &mut self.cost
    }

    /// Puts the evaluator in frozen (inference) mode — batch norms use
    /// running statistics. Must be called before using it inside a search.
    pub fn freeze(&self) {
        self.cost.set_training(false);
    }

    /// Differentiable metric prediction `[batch, 3]` =
    /// `[latency_ms, energy_mj, area_mm2]` from an architecture encoding
    /// `[batch, arch_width]`.
    ///
    /// # Panics
    ///
    /// Panics if the encoding width is wrong.
    pub fn predict_metrics(&self, arch: &Var, rng: &mut StdRng) -> Var {
        let _span = dance_telemetry::hot_span!("evaluator.predict_metrics");
        assert_eq!(
            arch.shape()[1],
            self.arch_width,
            "architecture encoding width"
        );
        if self.feature_forwarding {
            let hw = self.hwgen.forward_encoded(arch, self.sampling, rng);
            self.cost.forward(&Var::concat_cols(&[arch, &hw]))
        } else {
            self.cost.forward(arch)
        }
    }

    /// Discrete accelerator designs predicted for a batch of architectures.
    pub fn predict_configs(&self, arch: &Var, space: &HardwareSpace) -> Vec<AcceleratorConfig> {
        self.hwgen.predict(arch, space)
    }

    /// Freezes the full predict path into a static inference plan with
    /// five outputs: `[metrics [b,3], head logits 0..4]`.
    ///
    /// The plan computes the hwgen trunk **once** and shares it between
    /// the metric head and the discrete read-out heads — the tape path
    /// runs it twice (once inside [`Evaluator::predict_metrics`], once in
    /// [`Evaluator::predict_configs`]). Outputs are bit-identical to both
    /// tape calls because the frozen graph is traced through the same
    /// forward methods.
    ///
    /// Puts the evaluator in frozen (inference) mode as a side effect.
    ///
    /// # Errors
    ///
    /// Fails when head sampling is stochastic ([`HeadSampling::Gumbel`]) —
    /// a plan must be deterministic — or when the graph contains an op the
    /// freezer does not support.
    pub fn freeze_plan(
        &self,
        max_batch: usize,
    ) -> Result<dance_plan::Plan, dance_plan::FreezeError> {
        use dance_autograd::gumbel::softmax_with_temperature;
        use dance_autograd::tensor::Tensor;
        let tau = match self.sampling {
            HeadSampling::Softmax { tau } => tau,
            other => {
                return Err(dance_plan::FreezeError::unsupported(format!(
                    "head sampling {other:?} is stochastic; freezing requires \
                     deterministic Softmax heads"
                )))
            }
        };
        self.freeze();
        let probe = Var::constant(Tensor::zeros(&[1, self.arch_width]));
        let logits = self.hwgen.head_logits(&probe);
        let metrics = if self.feature_forwarding {
            // Same chain as forward_encoded with Softmax sampling.
            let parts: Vec<Var> = logits
                .iter()
                .map(|l| softmax_with_temperature(l, tau))
                .collect();
            let refs: Vec<&Var> = parts.iter().collect();
            let hw = Var::concat_cols(&refs);
            self.cost.forward(&Var::concat_cols(&[&probe, &hw]))
        } else {
            self.cost.forward(&probe)
        };
        let mut outputs = vec![metrics];
        outputs.extend(logits);
        dance_plan::freeze(&probe, &outputs, max_batch)
    }

    /// End-to-end evaluator accuracy (paper Table 1, "Overall Evaluator"):
    /// relative accuracy of the predicted metrics against ground truth, with
    /// the hardware side produced by the evaluator's own hwgen network.
    pub fn end_to_end_accuracy(&self, data: &[CostSample], seed: u64) -> [f32; 3] {
        use dance_autograd::tensor::Tensor;
        use rand::SeedableRng;
        assert!(!data.is_empty(), "empty evaluation set");
        self.freeze();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut preds = Vec::with_capacity(data.len() * 3);
        for chunk in data.chunks(1024) {
            let mut rows = Vec::with_capacity(chunk.len() * self.arch_width);
            for s in chunk {
                rows.extend_from_slice(&s.arch);
            }
            let x = Var::constant(Tensor::from_vec(rows, &[chunk.len(), self.arch_width]));
            preds.extend_from_slice(self.predict_metrics(&x, &mut rng).value().data());
        }
        let pred = Tensor::from_vec(preds, &[data.len(), 3]);
        let mut target = Tensor::zeros(&[data.len(), 3]);
        for (i, s) in data.iter().enumerate() {
            for m in 0..3 {
                target.data_mut()[i * 3 + m] = s.metrics[m];
            }
        }
        relative_accuracy(&pred, &target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_autograd::tensor::Tensor;
    use rand::SeedableRng;

    fn make(ff: bool) -> Evaluator {
        let mut rng = StdRng::seed_from_u64(0);
        let hwgen = HwGenNet::new(63, 32, &mut rng);
        if ff {
            let cost = CostNet::new(63 + 42, 32, &mut rng);
            Evaluator::with_feature_forwarding(hwgen, cost, 63, HeadSampling::Gumbel { tau: 1.0 })
        } else {
            let cost = CostNet::new(63, 32, &mut rng);
            Evaluator::without_feature_forwarding(hwgen, cost, 63)
        }
    }

    #[test]
    fn predicts_three_metrics_both_variants() {
        for ff in [true, false] {
            let e = make(ff);
            e.freeze();
            let mut rng = StdRng::seed_from_u64(1);
            let x = Var::constant(Tensor::rand_uniform(&[2, 63], 0.0, 1.0, &mut rng));
            assert_eq!(e.predict_metrics(&x, &mut rng).shape(), vec![2, 3]);
        }
    }

    #[test]
    fn gradient_reaches_architecture_encoding() {
        for ff in [true, false] {
            let e = make(ff);
            e.freeze();
            let mut rng = StdRng::seed_from_u64(2);
            let x = Var::parameter(Tensor::full(&[1, 63], 1.0 / 7.0));
            e.predict_metrics(&x, &mut rng).sqr().sum().backward();
            assert!(x.grad().is_some(), "ff={ff}: no gradient to architecture");
        }
    }

    #[test]
    #[should_panic(expected = "cost net width")]
    fn mismatched_widths_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let hwgen = HwGenNet::new(63, 16, &mut rng);
        let cost = CostNet::new(63, 16, &mut rng); // missing +42
        let _ =
            Evaluator::with_feature_forwarding(hwgen, cost, 63, HeadSampling::Gumbel { tau: 1.0 });
    }

    #[test]
    fn predict_configs_are_valid() {
        let e = make(true);
        let mut rng = StdRng::seed_from_u64(4);
        let x = Var::constant(Tensor::rand_uniform(&[3, 63], 0.0, 1.0, &mut rng));
        let configs = e.predict_configs(&x, &HardwareSpace::new());
        assert_eq!(configs.len(), 3);
    }

    fn make_softmax(ff: bool) -> Evaluator {
        let mut rng = StdRng::seed_from_u64(0);
        let hwgen = HwGenNet::new(63, 32, &mut rng);
        if ff {
            let cost = CostNet::new(63 + 42, 32, &mut rng);
            Evaluator::with_feature_forwarding(hwgen, cost, 63, HeadSampling::Softmax { tau: 1.0 })
        } else {
            let cost = CostNet::new(63, 32, &mut rng);
            Evaluator::without_feature_forwarding(hwgen, cost, 63)
        }
    }

    #[test]
    fn frozen_plan_matches_tape_bitwise() {
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for ff in [true, false] {
            let e = make_softmax(ff);
            let plan = e.freeze_plan(4).expect("softmax evaluator freezes");
            let mut exec = dance_plan::Executor::new(plan);
            let mut rng = StdRng::seed_from_u64(9);
            let x = Tensor::rand_uniform(&[3, 63], 0.0, 1.0, &mut rng);
            let xv = Var::constant(x.clone());
            let tape_metrics = e.predict_metrics(&xv, &mut rng).value();
            let tape_logits = e.hwgen().head_logits(&xv);
            exec.input_mut(3).copy_from_slice(x.data());
            exec.run(3);
            assert_eq!(
                bits(exec.output(0, 3)),
                bits(tape_metrics.data()),
                "ff={ff}: metrics drift"
            );
            for (h, l) in tape_logits.iter().enumerate() {
                assert_eq!(
                    bits(exec.output(1 + h, 3)),
                    bits(l.value().data()),
                    "ff={ff}: head {h} logits drift"
                );
            }
        }
    }

    #[test]
    fn stochastic_sampling_refuses_to_freeze() {
        let e = make(true); // Gumbel sampling
        assert!(e.freeze_plan(4).is_err());
    }
}
