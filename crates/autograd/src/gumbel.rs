//! Gumbel-softmax sampling (Jang, Gu & Poole 2017).
//!
//! DANCE uses a Gumbel softmax as the last layer of the hardware generation
//! network so that its (continuous) output stays as close as possible to the
//! one-hot vectors the cost estimation network was trained on, while keeping
//! a gradient path to the architecture parameters.

use rand::rngs::StdRng;
use rand::Rng;

use crate::tensor::Tensor;
use crate::var::Var;

/// Draws i.i.d. standard Gumbel noise `g = −ln(−ln(u))`.
pub fn gumbel_noise(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let numel: usize = shape.iter().product();
    let data = (0..numel)
        .map(|_| {
            let u: f32 = rng.gen_range(f32::EPSILON..1.0);
            -(-u.ln()).ln()
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Row-wise Gumbel-softmax relaxation of a categorical distribution.
///
/// `logits` must be 2-D `[rows, classes]`. Returns
/// `softmax((logits + g) / tau)` where `g` is fresh Gumbel noise. Lower `tau`
/// pushes the output toward a one-hot sample while remaining differentiable.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or `tau` is not positive.
pub fn gumbel_softmax(logits: &Var, tau: f32, rng: &mut StdRng) -> Var {
    assert!(
        tau > 0.0,
        "gumbel_softmax temperature must be positive, got {tau}"
    );
    let shape = logits.shape();
    assert_eq!(shape.len(), 2, "gumbel_softmax logits shape {shape:?}");
    let noise = Var::constant(gumbel_noise(&shape, rng));
    logits.add(&noise).scale(1.0 / tau).softmax_rows()
}

/// Deterministic softmax with temperature (Gumbel-softmax without noise);
/// useful at evaluation time and for the no-Gumbel ablation.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or `tau` is not positive.
pub fn softmax_with_temperature(logits: &Var, tau: f32) -> Var {
    assert!(tau > 0.0, "temperature must be positive, got {tau}");
    logits.scale(1.0 / tau).softmax_rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn noise_has_gumbel_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gumbel_noise(&[50_000], &mut rng);
        // Standard Gumbel mean is the Euler–Mascheroni constant ≈ 0.5772.
        assert!((g.mean() - 0.5772).abs() < 0.02, "mean {}", g.mean());
    }

    #[test]
    fn gumbel_softmax_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(6);
        let logits = Var::constant(Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 0.0, 0.0, 0.0],
            &[2, 3],
        ));
        let y = gumbel_softmax(&logits, 1.0, &mut rng).value();
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| y.at2(i, j)).sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn low_temperature_approaches_one_hot() {
        let mut rng = StdRng::seed_from_u64(7);
        let logits = Var::constant(Tensor::from_vec(vec![5.0, 0.0, -5.0], &[1, 3]));
        let y = gumbel_softmax(&logits, 0.05, &mut rng).value();
        assert!(y.max() > 0.99, "max prob {}", y.max());
    }

    #[test]
    fn gumbel_samples_follow_logits_distribution() {
        let mut rng = StdRng::seed_from_u64(8);
        let logits = Var::constant(Tensor::from_vec(vec![2.0, 0.0, 0.0], &[1, 3]));
        let mut counts = [0usize; 3];
        for _ in 0..2_000 {
            let y = gumbel_softmax(&logits, 0.5, &mut rng).value();
            counts[y.argmax()] += 1;
        }
        // P(class 0) = e²/(e²+2) ≈ 0.787
        assert!(counts[0] > 1_400, "counts {counts:?}");
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_panics() {
        let mut rng = StdRng::seed_from_u64(9);
        let logits = Var::constant(Tensor::zeros(&[1, 2]));
        let _ = gumbel_softmax(&logits, 0.0, &mut rng);
    }
}
