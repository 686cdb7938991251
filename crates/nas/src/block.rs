//! Candidate operations and searchable blocks for the MBConv-1D supernet.

use std::fmt;

use rand::rngs::StdRng;

use dance_accel::workload::{Slot, SlotChoice};
use dance_autograd::init::kaiming_uniform;
use dance_autograd::nn::Module;
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;

/// A 1-D inverted-bottleneck block: pointwise expand → ReLU → depthwise conv
/// (kernel `k`, stride `s`) → ReLU → pointwise project, mirroring the
/// MBConv candidates of the paper's ProxylessNAS backbone.
#[derive(Debug)]
pub struct MbConv1d {
    /// `[c_in, mid]` expand weights (channels-last matmul layout).
    w_expand: Var,
    b_expand: Var,
    /// `[mid, kernel]` depthwise weights.
    w_dw: Var,
    /// `[mid, c_out]` project weights.
    w_project: Var,
    b_project: Var,
    c_in: usize,
    c_out: usize,
    kernel: usize,
    expand: usize,
    stride: usize,
}

impl MbConv1d {
    /// Creates a block with Kaiming-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even or any dimension is zero.
    pub fn new(
        c_in: usize,
        c_out: usize,
        kernel: usize,
        expand: usize,
        stride: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(kernel % 2 == 1, "depthwise kernel {kernel} must be odd");
        assert!(c_in > 0 && c_out > 0 && expand > 0 && stride > 0);
        let mid = c_in * expand;
        Self {
            w_expand: Var::parameter(kaiming_uniform(&[c_in, mid], c_in, rng)),
            b_expand: Var::parameter(Tensor::zeros(&[mid])),
            w_dw: Var::parameter(kaiming_uniform(&[mid, kernel], kernel, rng)),
            w_project: Var::parameter(kaiming_uniform(&[mid, c_out], mid, rng)),
            b_project: Var::parameter(Tensor::zeros(&[c_out])),
            c_in,
            c_out,
            kernel,
            expand,
            stride,
        }
    }

    /// Depthwise kernel size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Input channels.
    pub fn channels_in(&self) -> usize {
        self.c_in
    }

    /// Output channels.
    pub fn channels_out(&self) -> usize {
        self.c_out
    }

    /// Expansion ratio.
    pub fn expand(&self) -> usize {
        self.expand
    }

    /// Runs the block on a `[B, c_in, L]` activation.
    ///
    /// # Panics
    ///
    /// Panics on channel mismatches.
    pub fn forward(&self, x: &Var) -> Var {
        let shape = x.shape();
        assert_eq!(shape.len(), 3, "MbConv1d input shape {shape:?}");
        assert_eq!(
            shape[1], self.c_in,
            "MbConv1d expected {} channels",
            self.c_in
        );
        let (b, l) = (shape[0], shape[2]);
        // ReLU commutes bit-exactly with the channels-last permutation and
        // with stride selection, so both activations fuse into their
        // producers: `relu(x·W + b)` as one linear_relu node and the
        // depthwise ReLU inside the conv accumulator, ahead of the
        // downsample. Each fused node records one tape entry (and one
        // backward closure) where the unfused chain recorded three.
        let expanded = x
            .to_channels_last()
            .linear(&self.w_expand, &self.b_expand, true)
            .from_channels_last(b, l);
        let conv = expanded
            .dw_conv1d_relu(&self.w_dw)
            .downsample1d(self.stride);
        let lo = l.div_ceil(self.stride);
        conv.to_channels_last()
            .linear(&self.w_project, &self.b_project, false)
            .from_channels_last(b, lo)
    }

    /// Trainable parameters.
    pub fn parameters(&self) -> Vec<Var> {
        vec![
            self.w_expand.clone(),
            self.b_expand.clone(),
            self.w_dw.clone(),
            self.w_project.clone(),
            self.b_project.clone(),
        ]
    }
}

impl fmt::Display for MbConv1d {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MB{0}x{0}_e{1}(1d)", self.kernel, self.expand)
    }
}

/// The skip path of a searchable block: identity on shape-preserving slots,
/// a strided pointwise adapter otherwise (mirroring
/// [`Slot::layers`] for `SlotChoice::Zero`).
#[derive(Debug)]
pub enum SkipPath {
    /// Same-shape residual.
    Identity,
    /// Channel/stride adapter (trainable pointwise conv).
    Adapter {
        /// `[c_in, c_out]` weights.
        weight: Var,
        /// Spatial stride of the adapter.
        stride: usize,
    },
}

impl SkipPath {
    /// Builds the skip path appropriate for a slot.
    pub fn for_slot(slot: &Slot, rng: &mut StdRng) -> Self {
        if slot.is_identity_compatible() {
            SkipPath::Identity
        } else {
            SkipPath::Adapter {
                weight: Var::parameter(kaiming_uniform(&[slot.c_in, slot.c_out], slot.c_in, rng)),
                stride: slot.stride,
            }
        }
    }

    /// Applies the skip path.
    pub fn forward(&self, x: &Var) -> Var {
        match self {
            SkipPath::Identity => x.clone(),
            SkipPath::Adapter { weight, stride } => {
                let shape = x.shape();
                let (b, l) = (shape[0], shape[2]);
                let down = x.downsample1d(*stride);
                let lo = l.div_ceil(*stride);
                down.to_channels_last()
                    .matmul(weight)
                    .from_channels_last(b, lo)
            }
        }
    }

    /// Trainable parameters (empty for identity).
    pub fn parameters(&self) -> Vec<Var> {
        match self {
            SkipPath::Identity => Vec::new(),
            SkipPath::Adapter { weight, .. } => vec![weight.clone()],
        }
    }
}

/// One searchable layer of the supernet: six MBConv candidates plus Zero,
/// combined by architecture weights, always summed with the skip path.
#[derive(Debug)]
pub struct SearchBlock {
    slot: Slot,
    /// The six MBConv candidates, in [`SlotChoice::CANDIDATES`] order
    /// (indices 0–5; index 6 is Zero and has no parameters).
    ops: Vec<MbConv1d>,
    skip: SkipPath,
}

impl SearchBlock {
    /// Builds all candidate ops for a slot.
    pub fn new(slot: Slot, rng: &mut StdRng) -> Self {
        let ops = SlotChoice::CANDIDATES
            .iter()
            .filter_map(|choice| match choice {
                SlotChoice::MbConv { kernel, expand } => Some(MbConv1d::new(
                    slot.c_in,
                    slot.c_out,
                    *kernel,
                    *expand,
                    slot.stride,
                    rng,
                )),
                SlotChoice::Zero => None,
            })
            .collect();
        let skip = SkipPath::for_slot(&slot, rng);
        Self { slot, ops, skip }
    }

    /// The slot this block fills.
    pub fn slot(&self) -> &Slot {
        &self.slot
    }

    /// Mixture forward: `skip(x) + Σᵢ wᵢ · opᵢ(x)` with `weights` a length-7
    /// variable ([`SlotChoice::CANDIDATES`] order; the Zero entry contributes
    /// nothing but still receives gradient via the mixture).
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not have 7 entries.
    pub fn forward_mixture(&self, x: &Var, weights: &Var) -> Var {
        assert_eq!(
            weights.shape().iter().product::<usize>(),
            SlotChoice::CANDIDATES.len(),
            "mixture weights must have 7 entries"
        );
        let outputs: Vec<Var> = self.ops.iter().map(|op| op.forward(x)).collect();
        let zero = Var::constant(Tensor::zeros(&outputs[0].shape()));
        let mut refs: Vec<&Var> = outputs.iter().collect();
        refs.push(&zero);
        let mixed = Var::weighted_sum(&refs, weights);
        self.skip.forward(x).add(&mixed)
    }

    /// Single-path forward for a fixed choice (derived-network training).
    pub fn forward_fixed(&self, x: &Var, choice: SlotChoice) -> Var {
        let skip = self.skip.forward(x);
        match choice {
            SlotChoice::Zero => skip,
            SlotChoice::MbConv { .. } => skip.add(&self.ops[choice.index()].forward(x)),
        }
    }

    /// All trainable weight parameters (not architecture parameters).
    pub fn parameters(&self) -> Vec<Var> {
        let mut p: Vec<Var> = self.ops.iter().flat_map(MbConv1d::parameters).collect();
        p.extend(self.skip.parameters());
        p
    }
}

/// Marker trait impl so blocks compose with generic training loops.
impl Module for MbConv1d {
    fn forward(&self, input: &Var) -> Var {
        MbConv1d::forward(self, input)
    }

    fn parameters(&self) -> Vec<Var> {
        MbConv1d::parameters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0)
    }

    #[test]
    fn mbconv_output_shape_with_stride() {
        let mut r = rng();
        let block = MbConv1d::new(4, 8, 3, 3, 2, &mut r);
        let x = Var::constant(Tensor::ones(&[2, 4, 16]));
        assert_eq!(block.forward(&x).shape(), vec![2, 8, 8]);
    }

    #[test]
    fn mbconv_gradients_reach_all_params() {
        let mut r = rng();
        let block = MbConv1d::new(3, 3, 5, 6, 1, &mut r);
        let x = Var::constant(Tensor::rand_normal(&[2, 3, 8], 0.0, 1.0, &mut r));
        block.forward(&x).sqr().sum().backward();
        for (i, p) in block.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing gradient");
        }
    }

    #[test]
    fn identity_skip_passes_through() {
        let slot = Slot {
            h: 8,
            w: 8,
            c_in: 4,
            c_out: 4,
            stride: 1,
        };
        let mut r = rng();
        let skip = SkipPath::for_slot(&slot, &mut r);
        assert!(matches!(skip, SkipPath::Identity));
        let x = Var::constant(Tensor::rand_normal(&[1, 4, 8], 0.0, 1.0, &mut r));
        assert_eq!(skip.forward(&x).value(), x.value());
    }

    #[test]
    fn adapter_skip_changes_shape() {
        let slot = Slot {
            h: 8,
            w: 8,
            c_in: 4,
            c_out: 8,
            stride: 2,
        };
        let mut r = rng();
        let skip = SkipPath::for_slot(&slot, &mut r);
        let x = Var::constant(Tensor::ones(&[2, 4, 8]));
        assert_eq!(skip.forward(&x).shape(), vec![2, 8, 4]);
        assert_eq!(skip.parameters().len(), 1);
    }

    #[test]
    fn search_block_has_six_ops() {
        let slot = Slot {
            h: 8,
            w: 8,
            c_in: 4,
            c_out: 4,
            stride: 1,
        };
        let block = SearchBlock::new(slot, &mut rng());
        assert_eq!(block.ops.len(), 6);
    }

    #[test]
    fn mixture_with_zero_weight_equals_skip() {
        let slot = Slot {
            h: 8,
            w: 8,
            c_in: 4,
            c_out: 4,
            stride: 1,
        };
        let mut r = rng();
        let block = SearchBlock::new(slot, &mut r);
        let x = Var::constant(Tensor::rand_normal(&[1, 4, 8], 0.0, 1.0, &mut r));
        // All weight on the Zero op (index 6).
        let w = Var::constant(Tensor::one_hot(6, 7));
        let y = block.forward_mixture(&x, &w);
        assert!(y.value().approx_eq(&x.value(), 1e-6));
    }

    #[test]
    fn mixture_one_hot_matches_fixed_path() {
        let slot = Slot {
            h: 8,
            w: 8,
            c_in: 4,
            c_out: 4,
            stride: 1,
        };
        let mut r = rng();
        let block = SearchBlock::new(slot, &mut r);
        let x = Var::constant(Tensor::rand_normal(&[2, 4, 8], 0.0, 1.0, &mut r));
        for idx in [0, 3, 5] {
            let w = Var::constant(Tensor::one_hot(idx, 7));
            let mixed = block.forward_mixture(&x, &w);
            let fixed = block.forward_fixed(&x, SlotChoice::from_index(idx));
            assert!(
                mixed.value().approx_eq(&fixed.value(), 1e-5),
                "candidate {idx} mixture != fixed"
            );
        }
    }

    #[test]
    fn mixture_gradient_reaches_weights() {
        let slot = Slot {
            h: 8,
            w: 8,
            c_in: 4,
            c_out: 4,
            stride: 1,
        };
        let mut r = rng();
        let block = SearchBlock::new(slot, &mut r);
        let x = Var::constant(Tensor::rand_normal(&[1, 4, 8], 0.0, 1.0, &mut r));
        let w = Var::parameter(Tensor::full(&[7], 1.0 / 7.0));
        block.forward_mixture(&x, &w).sqr().sum().backward();
        let g = w.grad().expect("no gradient into mixture weights");
        assert!(g.data().iter().any(|&v| v.abs() > 1e-8));
    }
}
