//! The ProxylessNAS-style supernet (1-D proxy of the paper's backbone).
//!
//! Thirteen stages: a fixed stem, nine searchable [`SearchBlock`]s whose
//! stride/width pattern mirrors the 2-D backbone templates (channels grow
//! every three slots), and a fixed head (pointwise → global average pooling →
//! classifier). The searchable slots line up one-to-one with
//! [`dance_accel::workload::NetworkTemplate`] slots, which is how an
//! architecture found here is priced on the accelerator.

use rand::rngs::StdRng;

use dance_accel::workload::{Slot, SlotChoice};
use dance_autograd::init::kaiming_uniform;
use dance_autograd::nn::{Linear, Module};
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;

use crate::arch::ArchParams;
use crate::block::SearchBlock;

/// Hyper-parameters of a supernet instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupernetConfig {
    /// Input signal channels.
    pub input_channels: usize,
    /// Input signal length.
    pub length: usize,
    /// Output classes.
    pub num_classes: usize,
    /// Stem output channels.
    pub stem_width: usize,
    /// Widths of the three searchable stages.
    pub stage_widths: [usize; 3],
    /// Head (pre-classifier) width.
    pub head_width: usize,
}

impl SupernetConfig {
    /// The SynthCifar-scale supernet.
    pub fn cifar() -> Self {
        Self {
            input_channels: 4,
            length: 16,
            num_classes: 10,
            stem_width: 6,
            stage_widths: [8, 16, 32],
            head_width: 64,
        }
    }

    /// The SynthTiny-scale supernet — seconds-scale smoke searches (CI and
    /// `dance-serve` jobs).
    pub fn tiny() -> Self {
        Self {
            input_channels: 2,
            length: 8,
            num_classes: 3,
            stem_width: 4,
            stage_widths: [4, 6, 8],
            head_width: 12,
        }
    }

    /// The SynthImageNet-scale supernet (longer signals, more classes).
    pub fn imagenet() -> Self {
        Self {
            input_channels: 4,
            length: 32,
            num_classes: 100,
            stem_width: 8,
            stage_widths: [12, 24, 48],
            head_width: 96,
        }
    }

    /// The nine searchable slots implied by this configuration (stride 2 at
    /// each stage entry, mirroring the 2-D templates).
    pub fn slots(&self) -> Vec<Slot> {
        let mut slots = Vec::with_capacity(9);
        let mut c_in = self.stem_width;
        let mut l = self.length;
        for &width in &self.stage_widths {
            for i in 0..3 {
                let stride = if i == 0 { 2 } else { 1 };
                slots.push(Slot {
                    h: l,
                    w: l,
                    c_in,
                    c_out: width,
                    stride,
                });
                if stride == 2 {
                    l = l.div_ceil(2);
                }
                c_in = width;
            }
        }
        slots
    }
}

/// How the supernet combines its candidate operations.
#[derive(Debug, Clone, Copy)]
pub enum ForwardMode<'a> {
    /// Differentiable softmax mixture over all candidates (DARTS-style,
    /// what DANCE's search uses).
    Mixture(&'a ArchParams),
    /// A single fixed path (derived-network training / evaluation).
    Fixed(&'a [SlotChoice]),
}

/// What each slot runs: its mixture weights (one length-7 variable per
/// slot) or a fixed candidate.
enum Paths<'a> {
    Mixture(Vec<Var>),
    Fixed(&'a [SlotChoice]),
}

/// The searchable network.
#[derive(Debug)]
pub struct Supernet {
    config: SupernetConfig,
    /// Stem: pointwise `[c_in, stem]` + bias + depthwise k3.
    stem_pw: Var,
    stem_b: Var,
    stem_dw: Var,
    blocks: Vec<SearchBlock>,
    head_pw: Var,
    head_b: Var,
    classifier: Linear,
}

impl Supernet {
    /// Builds a supernet with fresh weights.
    pub fn new(config: SupernetConfig, rng: &mut StdRng) -> Self {
        let stem_pw = Var::parameter(kaiming_uniform(
            &[config.input_channels, config.stem_width],
            config.input_channels,
            rng,
        ));
        let stem_b = Var::parameter(Tensor::zeros(&[config.stem_width]));
        let stem_dw = Var::parameter(kaiming_uniform(&[config.stem_width, 3], 3, rng));
        let blocks = config
            .slots()
            .into_iter()
            .map(|slot| SearchBlock::new(slot, rng))
            .collect();
        let last_width = config.stage_widths[2];
        let head_pw = Var::parameter(kaiming_uniform(
            &[last_width, config.head_width],
            last_width,
            rng,
        ));
        let head_b = Var::parameter(Tensor::zeros(&[config.head_width]));
        let classifier = Linear::new(config.head_width, config.num_classes, rng);
        Self {
            config,
            stem_pw,
            stem_b,
            stem_dw,
            blocks,
            head_pw,
            head_b,
            classifier,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SupernetConfig {
        &self.config
    }

    /// Number of searchable slots (always 9).
    pub fn num_slots(&self) -> usize {
        self.blocks.len()
    }

    /// Wraps a flat channel-major batch (`batch × channels × length`) as the
    /// input variable.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch · channels · length` for this config.
    pub fn input_from(&self, x: &[f32], batch: usize) -> Var {
        let (c, l) = (self.config.input_channels, self.config.length);
        assert_eq!(x.len(), batch * c * l, "batch data length mismatch");
        Var::constant(Tensor::from_vec(x.to_vec(), &[batch, c, l]))
    }

    /// Runs the network, returning classification logits `[batch, classes]`.
    ///
    /// # Panics
    ///
    /// Panics if the mode's slot count differs from the supernet's.
    pub fn forward(&self, x: &Var, mode: ForwardMode<'_>) -> Var {
        // The mixture weights are built before the stem, so they precede
        // the network on the tape.
        let paths = match mode {
            ForwardMode::Mixture(arch) => {
                assert_eq!(arch.num_slots(), self.blocks.len(), "arch slot count");
                Paths::Mixture(arch.mixture_weights())
            }
            ForwardMode::Fixed(choices) => {
                assert_eq!(choices.len(), self.blocks.len(), "choice slot count");
                Paths::Fixed(choices)
            }
        };
        self.forward_paths(x, &paths)
    }

    /// Stem, one path per searchable slot, then the head.
    fn forward_paths(&self, x: &Var, paths: &Paths<'_>) -> Var {
        let shape = x.shape();
        let (b, l) = (shape[0], shape[2]);
        let mut h = x
            .to_channels_last()
            .matmul(&self.stem_pw)
            .add_row_broadcast(&self.stem_b)
            .from_channels_last(b, l)
            .relu()
            .dw_conv1d(&self.stem_dw)
            .relu();
        for (i, block) in self.blocks.iter().enumerate() {
            h = match paths {
                Paths::Mixture(weights) => block.forward_mixture(&h, &weights[i]),
                Paths::Fixed(choices) => block.forward_fixed(&h, choices[i]),
            };
        }
        let hl = h.shape()[2];
        let features = h
            .to_channels_last()
            .matmul(&self.head_pw)
            .add_row_broadcast(&self.head_b)
            .from_channels_last(b, hl)
            .relu()
            .global_avg_pool1d();
        self.classifier.forward(&features)
    }

    /// Freezes the fixed-path network (one [`SlotChoice`] per slot — the
    /// argmax architecture a finished search derives) into an
    /// allocation-free [`dance_plan::Plan`] with a single
    /// `[batch, num_classes]` logits output.
    ///
    /// The plan is traced through [`Supernet::forward`] with
    /// [`ForwardMode::Fixed`], so its outputs are bit-identical to the tape
    /// forward at any batch size up to `max_batch` and any thread count.
    ///
    /// # Errors
    ///
    /// Fails when the traced graph contains an op the freezer does not
    /// support.
    ///
    /// # Panics
    ///
    /// Panics if `choices` has the wrong slot count or `max_batch` is zero.
    pub fn freeze_plan(
        &self,
        choices: &[SlotChoice],
        max_batch: usize,
    ) -> Result<dance_plan::Plan, dance_plan::FreezeError> {
        let (c, l) = (self.config.input_channels, self.config.length);
        let probe = self.input_from(&vec![0.0; c * l], 1);
        let logits = self.forward(&probe, ForwardMode::Fixed(choices));
        dance_plan::freeze(&probe, &[logits], max_batch)
    }

    /// All trainable *weight* parameters (architecture parameters live in
    /// [`ArchParams`] and are optimized separately).
    pub fn parameters(&self) -> Vec<Var> {
        let mut p = vec![
            self.stem_pw.clone(),
            self.stem_b.clone(),
            self.stem_dw.clone(),
        ];
        for b in &self.blocks {
            p.extend(b.parameters());
        }
        p.push(self.head_pw.clone());
        p.push(self.head_b.clone());
        p.extend(self.classifier.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
    fn slots_mirror_template_structure() {
        let slots = SupernetConfig::cifar().slots();
        assert_eq!(slots.len(), 9);
        let strides: Vec<usize> = slots.iter().map(|s| s.stride).collect();
        assert_eq!(strides, vec![2, 1, 1, 2, 1, 1, 2, 1, 1]);
        let outs: Vec<usize> = slots.iter().map(|s| s.c_out).collect();
        assert_eq!(outs, vec![8, 8, 8, 16, 16, 16, 32, 32, 32]);
    }

    #[test]
    fn forward_shapes_mixture_and_fixed() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = Supernet::new(tiny_config(), &mut rng);
        let arch = ArchParams::new(9, &mut rng);
        let x = net.input_from(&vec![0.5; 4 * 2 * 8], 4);
        assert_eq!(
            net.forward(&x, ForwardMode::Mixture(&arch)).shape(),
            vec![4, 3]
        );
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 3,
                expand: 3
            };
            9
        ];
        assert_eq!(
            net.forward(&x, ForwardMode::Fixed(&choices)).shape(),
            vec![4, 3]
        );
    }

    #[test]
    fn frozen_fixed_plan_matches_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = Supernet::new(tiny_config(), &mut rng);
        // Mix all seven candidate ops across the nine slots so the frozen
        // graph exercises every block shape (skip, zero, MbConv variants).
        let choices: Vec<SlotChoice> = (0..9).map(|i| SlotChoice::from_index(i % 7)).collect();
        let plan = net.freeze_plan(&choices, 4).expect("fixed path freezes");
        let mut exec = dance_plan::Executor::new(plan);
        let data = Tensor::rand_uniform(&[3 * 2 * 8], 0.0, 1.0, &mut rng).to_vec();
        let tape = net
            .forward(&net.input_from(&data, 3), ForwardMode::Fixed(&choices))
            .value();
        exec.input_mut(3).copy_from_slice(&data);
        exec.run(3);
        let bits = |xs: &[f32]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(exec.output(0, 3)), bits(tape.data()));
    }

    #[test]
    fn gradients_flow_to_weights_and_alphas() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Supernet::new(tiny_config(), &mut rng);
        let arch = ArchParams::new(9, &mut rng);
        let x = net.input_from(
            &Tensor::rand_normal(&[2 * 2 * 8], 0.0, 1.0, &mut rng).to_vec(),
            2,
        );
        let loss = net.forward(&x, ForwardMode::Mixture(&arch)).sqr().mean();
        loss.backward();
        assert!(
            net.parameters()
                .iter()
                .filter(|p| p.grad().is_some())
                .count()
                > 10
        );
        for a in arch.parameters() {
            assert!(a.grad().is_some(), "alpha missing gradient");
        }
    }

    #[test]
    fn fixed_all_zero_network_still_classifies() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = Supernet::new(tiny_config(), &mut rng);
        let x = net.input_from(&vec![1.0; 2 * 2 * 8], 2);
        let y = net.forward(&x, ForwardMode::Fixed(&[SlotChoice::Zero; 9]));
        assert_eq!(y.shape(), vec![2, 3]);
        assert!(y.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sharp_arch_matches_fixed_forward() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Supernet::new(tiny_config(), &mut rng);
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 5,
                expand: 3
            };
            9
        ];
        let arch = ArchParams::from_choices(&choices, 60.0);
        let x = net.input_from(
            &Tensor::rand_normal(&[2 * 2 * 8], 0.0, 1.0, &mut rng).to_vec(),
            2,
        );
        let soft = net.forward(&x, ForwardMode::Mixture(&arch));
        let hard = net.forward(&x, ForwardMode::Fixed(&choices));
        assert!(
            soft.value().approx_eq(&hard.value(), 1e-2),
            "sharp mixture diverges from fixed path"
        );
    }

    #[test]
    fn forward_with_one_hot_weights_matches_fixed() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = Supernet::new(tiny_config(), &mut rng);
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 3,
                expand: 6
            };
            9
        ];
        let weights: Vec<Var> = choices
            .iter()
            .map(|c| Var::constant(Tensor::one_hot(c.index(), 7)))
            .collect();
        let x = net.input_from(
            &Tensor::rand_normal(&[2 * 2 * 8], 0.0, 1.0, &mut rng).to_vec(),
            2,
        );
        let via_weights = net.forward_paths(&x, &Paths::Mixture(weights));
        let via_fixed = net.forward(&x, ForwardMode::Fixed(&choices));
        assert!(via_weights.value().approx_eq(&via_fixed.value(), 1e-4));
    }

    #[test]
    fn cifar_and_imagenet_configs_build() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = Supernet::new(SupernetConfig::cifar(), &mut rng);
        assert_eq!(c.num_slots(), 9);
        let i = Supernet::new(SupernetConfig::imagenet(), &mut rng);
        assert_eq!(i.config().num_classes, 100);
    }
}
