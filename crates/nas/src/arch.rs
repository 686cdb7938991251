//! Architecture parameters (the `α` of differentiable NAS).
//!
//! One logit vector per searchable slot, relaxed to probabilities by softmax
//! (optionally with temperature). The encoding produced by
//! [`ArchParams::encode`] follows the slot-major layout contract shared with
//! `dance_hwgen::dataset::encode_choices`, so the frozen evaluator network
//! consumes it directly.

use rand::rngs::StdRng;

use dance_accel::workload::SlotChoice;
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;

/// Trainable architecture parameters for a supernet.
#[derive(Debug)]
pub struct ArchParams {
    /// One `[1, 7]` logit row per slot.
    alphas: Vec<Var>,
}

impl ArchParams {
    /// Initializes all logits to zero (uniform mixture) plus tiny noise to
    /// break ties.
    pub fn new(num_slots: usize, rng: &mut StdRng) -> Self {
        let n = SlotChoice::CANDIDATES.len();
        let alphas = (0..num_slots)
            .map(|_| Var::parameter(Tensor::rand_normal(&[1, n], 0.0, 1e-3, rng)))
            .collect();
        Self { alphas }
    }

    /// Builds parameters that put (almost) all probability on given choices —
    /// useful for tests and for seeding searches.
    pub fn from_choices(choices: &[SlotChoice], sharpness: f32) -> Self {
        let n = SlotChoice::CANDIDATES.len();
        let alphas = choices
            .iter()
            .map(|c| {
                let mut t = Tensor::zeros(&[1, n]);
                t.data_mut()[c.index()] = sharpness;
                Var::parameter(t)
            })
            .collect();
        Self { alphas }
    }

    /// Number of searchable slots.
    pub fn num_slots(&self) -> usize {
        self.alphas.len()
    }

    /// The raw logit variables (for the architecture optimizer).
    pub fn parameters(&self) -> Vec<Var> {
        self.alphas.clone()
    }

    /// Per-slot probability rows `softmax(αᵢ)`, each `[1, 7]`.
    pub fn probs(&self) -> Vec<Var> {
        self.alphas.iter().map(Var::softmax_rows).collect()
    }

    /// Per-slot probability rows flattened to `[7]` (mixture weights).
    pub fn mixture_weights(&self) -> Vec<Var> {
        self.probs()
            .into_iter()
            .map(|p| p.reshape(&[SlotChoice::CANDIDATES.len()]))
            .collect()
    }

    /// The differentiable architecture encoding `[1, slots·7]` consumed by
    /// the evaluator network (slot-major softmax probabilities).
    pub fn encode(&self) -> Var {
        let probs = self.probs();
        let refs: Vec<&Var> = probs.iter().collect();
        Var::concat_cols(&refs)
    }

    /// Plain (non-differentiable) probability matrix, one row per slot.
    pub fn probs_matrix(&self) -> Vec<Vec<f32>> {
        self.probs().iter().map(|p| p.value().to_vec()).collect()
    }

    /// Derives the discrete architecture by per-slot argmax.
    pub fn derive(&self) -> Vec<SlotChoice> {
        self.alphas
            .iter()
            .map(|a| SlotChoice::from_index(a.value().argmax()))
            .collect()
    }

    /// Entropy of the slot distributions (nats, averaged over slots) — a
    /// convergence diagnostic: near zero once the search has committed.
    pub fn mean_entropy(&self) -> f32 {
        let rows = self.probs_matrix();
        let mut total = 0.0;
        for row in &rows {
            for &p in row {
                if p > 1e-12 {
                    total -= p * p.ln();
                }
            }
        }
        total / rows.len().max(1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn encode_width_is_63_for_nine_slots() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = ArchParams::new(9, &mut rng);
        assert_eq!(a.encode().shape(), vec![1, 63]);
    }

    #[test]
    fn fresh_params_are_near_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ArchParams::new(4, &mut rng);
        for row in a.probs_matrix() {
            for p in row {
                assert!((p - 1.0 / 7.0).abs() < 1e-2);
            }
        }
        // Uniform entropy over 7 choices is ln 7 ≈ 1.9459.
        assert!((a.mean_entropy() - 7f32.ln()).abs() < 1e-2);
    }

    #[test]
    fn from_choices_derives_back() {
        let choices = vec![
            SlotChoice::Zero,
            SlotChoice::MbConv {
                kernel: 5,
                expand: 6,
            },
            SlotChoice::MbConv {
                kernel: 3,
                expand: 3,
            },
        ];
        let a = ArchParams::from_choices(&choices, 10.0);
        assert_eq!(a.derive(), choices);
        assert!(a.mean_entropy() < 0.1);
    }

    #[test]
    fn encode_is_differentiable_to_alphas() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = ArchParams::new(3, &mut rng);
        a.encode().sqr().sum().backward();
        for p in a.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn encode_matches_hwgen_layout() {
        // The contract: slot-major, CANDIDATES order — identical layout to
        // dance_hwgen::dataset::encode_choices for sharp parameters.
        let choices = vec![
            SlotChoice::MbConv {
                kernel: 7,
                expand: 6
            };
            2
        ];
        let a = ArchParams::from_choices(&choices, 50.0);
        let enc = a.encode().value();
        for (slot, c) in choices.iter().enumerate() {
            for i in 0..7 {
                let expected = if i == c.index() { 1.0 } else { 0.0 };
                assert!((enc.data()[slot * 7 + i] - expected).abs() < 1e-3);
            }
        }
    }
}
