//! The hardware generation network (paper §3.3).
//!
//! "The hardware generation network models the exhaustive search algorithm
//! as a classification problem. We model it with a five-layer perceptron,
//! which uses ReLU as activation functions … we adopt residual connections
//! between the layers." Its four classification heads (PE_X, PE_Y, RF size,
//! dataflow) pass through a Gumbel softmax so the values fed onward stay
//! close to the one-hot vectors the cost estimation network was trained on.

use rand::rngs::StdRng;

use dance_accel::config::AcceleratorConfig;
use dance_accel::space::{HardwareSpace, DATAFLOW_CARDINALITY, PE_CARDINALITY, RF_CARDINALITY};
use dance_autograd::gumbel::{gumbel_softmax, softmax_with_temperature};
use dance_autograd::nn::{Linear, Module};
use dance_autograd::var::Var;

/// Head cardinalities in output order (PE_X, PE_Y, RF, dataflow).
pub const HEAD_WIDTHS: [usize; 4] = [
    PE_CARDINALITY,
    PE_CARDINALITY,
    RF_CARDINALITY,
    DATAFLOW_CARDINALITY,
];

/// How the heads are discretized on the forward path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeadSampling {
    /// Gumbel softmax with temperature (training-time stochastic
    /// relaxation; the paper's choice).
    Gumbel {
        /// Softmax temperature.
        tau: f32,
    },
    /// Deterministic temperature softmax (no noise) — ablation.
    Softmax {
        /// Softmax temperature.
        tau: f32,
    },
}

/// The five-layer residual MLP with four classification heads.
#[derive(Debug)]
pub struct HwGenNet {
    input: Linear,
    hidden: Vec<Linear>,
    heads: Vec<Linear>,
    width: usize,
}

impl HwGenNet {
    /// Builds the network for `arch_width`-wide architecture encodings with
    /// the given hidden `width` (the paper uses 128).
    pub fn new(arch_width: usize, width: usize, rng: &mut StdRng) -> Self {
        let input = Linear::new(arch_width, width, rng);
        let hidden = (0..3).map(|_| Linear::new(width, width, rng)).collect();
        let heads = HEAD_WIDTHS
            .iter()
            .map(|&h| Linear::new(width, h, rng))
            .collect();
        Self {
            input,
            hidden,
            heads,
            width,
        }
    }

    /// Hidden width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Shared trunk: input layer + 3 residual hidden layers.
    fn trunk(&self, arch: &Var) -> Var {
        let mut h = self.input.forward(arch).relu();
        for layer in &self.hidden {
            h = layer.forward(&h).relu().add(&h);
        }
        h
    }

    /// Raw logits per head, each `[batch, head_width]`.
    pub fn head_logits(&self, arch: &Var) -> Vec<Var> {
        let h = self.trunk(arch);
        self.heads.iter().map(|head| head.forward(&h)).collect()
    }

    /// Forward pass producing the soft one-hot hardware encoding
    /// `[batch, 42]` (PE_X | PE_Y | RF | dataflow segments).
    pub fn forward_encoded(&self, arch: &Var, sampling: HeadSampling, rng: &mut StdRng) -> Var {
        let logits = self.head_logits(arch);
        let parts: Vec<Var> = logits
            .iter()
            .map(|l| match sampling {
                HeadSampling::Gumbel { tau } => gumbel_softmax(l, tau, rng),
                HeadSampling::Softmax { tau } => softmax_with_temperature(l, tau),
            })
            .collect();
        let refs: Vec<&Var> = parts.iter().collect();
        Var::concat_cols(&refs)
    }

    /// Deterministic prediction: argmax per head, decoded to a config.
    pub fn predict(&self, arch: &Var, space: &HardwareSpace) -> Vec<AcceleratorConfig> {
        let logits = self.head_logits(arch);
        let batch = arch.shape()[0];
        let maxes: Vec<Vec<usize>> = logits.iter().map(|l| l.value().argmax_rows()).collect();
        (0..batch)
            .map(|i| space.from_head_indices(maxes[0][i], maxes[1][i], maxes[2][i], maxes[3][i]))
            .collect()
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = self.input.parameters();
        for l in &self.hidden {
            p.extend(l.parameters());
        }
        for h in &self.heads {
            p.extend(h.parameters());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_autograd::tensor::Tensor;
    use rand::SeedableRng;

    fn net() -> (HwGenNet, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let n = HwGenNet::new(63, 32, &mut rng);
        (n, rng)
    }

    #[test]
    fn head_logit_shapes() {
        let (n, mut rng) = net();
        let x = Var::constant(Tensor::rand_normal(&[5, 63], 0.0, 1.0, &mut rng));
        let logits = n.head_logits(&x);
        assert_eq!(logits.len(), 4);
        assert_eq!(logits[0].shape(), vec![5, 17]);
        assert_eq!(logits[2].shape(), vec![5, 5]);
        assert_eq!(logits[3].shape(), vec![5, 3]);
    }

    #[test]
    fn encoded_output_is_42_wide_with_unit_segments() {
        let (n, mut rng) = net();
        let x = Var::constant(Tensor::rand_normal(&[2, 63], 0.0, 1.0, &mut rng));
        for sampling in [
            HeadSampling::Gumbel { tau: 1.0 },
            HeadSampling::Softmax { tau: 1.0 },
        ] {
            let mut r2 = StdRng::seed_from_u64(9);
            let enc = n.forward_encoded(&x, sampling, &mut r2).value();
            assert_eq!(enc.shape(), &[2, 42]);
            // Each of the 4 segments of each row sums to 1.
            for row in 0..2 {
                let mut offset = 0;
                for w in HEAD_WIDTHS {
                    let s: f32 = (0..w).map(|j| enc.at2(row, offset + j)).sum();
                    assert!((s - 1.0).abs() < 1e-4, "segment sum {s}");
                    offset += w;
                }
            }
        }
    }

    #[test]
    fn predict_yields_valid_configs() {
        let (n, mut rng) = net();
        let space = HardwareSpace::new();
        let x = Var::constant(Tensor::rand_normal(&[3, 63], 0.0, 1.0, &mut rng));
        let configs = n.predict(&x, &space);
        assert_eq!(configs.len(), 3);
        for c in configs {
            assert!((8..=24).contains(&c.pe_x()));
        }
    }

    #[test]
    fn gradient_flows_from_encoding_to_input() {
        let (n, _) = net();
        let x = Var::parameter(Tensor::zeros(&[1, 63]));
        let mut r = StdRng::seed_from_u64(1);
        let enc = n.forward_encoded(&x, HeadSampling::Gumbel { tau: 1.0 }, &mut r);
        enc.sqr().sum().backward();
        assert!(x.grad().is_some(), "no gradient path through hwgen net");
    }

    #[test]
    fn parameters_count_matches_structure() {
        let (n, _) = net();
        // input(2) + 3 hidden(2 each) + 4 heads(2 each) = 16 tensors.
        assert_eq!(n.parameters().len(), 16);
    }
}
