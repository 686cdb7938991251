//! Loss functions.
//!
//! Cross-entropy (with the label smoothing the paper uses for supernet
//! training), mean-squared error, and the MSRE loss of DANCE Eq. 2 — the
//! *mean squared relative error* that keeps small-latency accelerator
//! configurations from being drowned out by large-latency ones when training
//! the cost estimation network.

use crate::tensor::Tensor;
use crate::var::Var;

/// Softmax cross-entropy against integer class targets, with optional label
/// smoothing, averaged over the batch.
///
/// `logits` must be `[batch, classes]` and `targets.len() == batch`.
///
/// # Panics
///
/// Panics on shape mismatches or a target index out of range.
pub fn cross_entropy(logits: &Var, targets: &[usize], label_smoothing: f32) -> Var {
    let logit_val = logits.value();
    assert_eq!(
        logit_val.ndim(),
        2,
        "cross_entropy logits shape {:?}",
        logit_val.shape()
    );
    let (b, c) = (logit_val.shape()[0], logit_val.shape()[1]);
    assert_eq!(
        targets.len(),
        b,
        "cross_entropy batch {} vs targets {}",
        b,
        targets.len()
    );
    for &t in targets {
        assert!(
            t < c,
            "cross_entropy target {t} out of range for {c} classes"
        );
    }
    // Smoothed target distribution: (1-ε) on the label + ε/C everywhere.
    let off = label_smoothing / c as f32;
    let on = 1.0 - label_smoothing + off;

    let soft = logit_val.softmax_rows();
    let mut loss = 0.0f32;
    for (i, &t) in targets.iter().enumerate() {
        for j in 0..c {
            let q = if j == t { on } else { off };
            if q > 0.0 {
                loss -= q * soft.at2(i, j).max(1e-20).ln();
            }
        }
    }
    loss /= b as f32;

    let targets: Vec<usize> = targets.to_vec();
    Var::from_op(
        "cross_entropy",
        Tensor::scalar(loss),
        vec![logits.clone()],
        Box::new(move |g, parents| {
            // dL/dz = (softmax − q) / B, scaled by upstream scalar gradient.
            let scale = g.item() / b as f32;
            let mut dz = soft.clone();
            for (i, &t) in targets.iter().enumerate() {
                for j in 0..c {
                    let q = if j == t { on } else { off };
                    dz.data_mut()[i * c + j] = (dz.data()[i * c + j] - q) * scale;
                }
            }
            parents[0].accumulate_grad(&dz);
        }),
    )
}

/// Mean squared error between `pred` and a constant `target`, averaged over
/// all elements.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse(pred: &Var, target: &Tensor) -> Var {
    let t = Var::constant(target.clone());
    pred.sub(&t).sqr().mean()
}

/// Mean squared *relative* error (DANCE Eq. 2): `mean((1 − ŷ/y)²)`.
///
/// `target` entries must be nonzero; they are clamped away from zero at
/// `1e-9` for numerical safety.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn msre(pred: &Var, target: &Tensor) -> Var {
    let inv = Var::constant(target.unary_op(dance_backend::UnaryOp::RecipSignedClamped(1e-9)));
    let ones = Var::constant(Tensor::ones(target.shape()));
    ones.sub(&pred.mul(&inv)).sqr().mean()
}

/// Fraction of rows whose argmax equals the target class.
///
/// # Panics
///
/// Panics if `logits` is not 2-D or lengths mismatch.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    let preds = logits.argmax_rows();
    assert_eq!(preds.len(), targets.len(), "accuracy length mismatch");
    if targets.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(targets).filter(|(p, t)| p == t).count();
    correct as f32 / targets.len() as f32
}

/// Sum of squared parameter norms — the `‖w‖` weight-decay term of Eq. 1.
pub fn l2_penalty(params: &[Var]) -> Var {
    let mut acc: Option<Var> = None;
    for p in params {
        let term = p.sqr().sum();
        acc = Some(match acc {
            Some(a) => a.add(&term),
            None => term,
        });
    }
    acc.unwrap_or_else(|| Var::constant(Tensor::scalar(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::numeric_grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Var::constant(Tensor::from_vec(
            vec![20.0, 0.0, 0.0, 0.0, 20.0, 0.0],
            &[2, 3],
        ));
        let loss = cross_entropy(&logits, &[0, 1], 0.0);
        assert!(loss.item() < 1e-3, "loss {}", loss.item());
    }

    #[test]
    fn cross_entropy_uniform_is_log_c() {
        let logits = Var::constant(Tensor::zeros(&[1, 4]));
        let loss = cross_entropy(&logits, &[2], 0.0);
        assert!((loss.item() - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_check() {
        let mut rng = StdRng::seed_from_u64(31);
        let logits = Var::parameter(Tensor::rand_normal(&[3, 5], 0.0, 1.0, &mut rng));
        numeric_grad(
            &[&logits],
            || cross_entropy(&logits, &[0, 3, 4], 0.0),
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn cross_entropy_label_smoothing_grad_check() {
        let mut rng = StdRng::seed_from_u64(32);
        let logits = Var::parameter(Tensor::rand_normal(&[2, 4], 0.0, 1.0, &mut rng));
        numeric_grad(
            &[&logits],
            || cross_entropy(&logits, &[1, 2], 0.1),
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn label_smoothing_raises_floor() {
        let logits = Var::constant(Tensor::from_vec(vec![50.0, 0.0, 0.0], &[1, 3]));
        let hard = cross_entropy(&logits, &[0], 0.0).item();
        let smooth = cross_entropy(&logits, &[0], 0.1).item();
        assert!(smooth > hard);
    }

    #[test]
    fn mse_zero_for_exact_match() {
        let t = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let p = Var::constant(t.clone());
        assert_eq!(mse(&p, &t).item(), 0.0);
    }

    #[test]
    fn msre_is_relative_not_absolute() {
        // Same absolute error (1.0), very different relative error.
        let small = msre(
            &Var::constant(Tensor::from_vec(vec![9.0], &[1])),
            &Tensor::from_vec(vec![8.0], &[1]),
        )
        .item();
        let large = msre(
            &Var::constant(Tensor::from_vec(vec![101.0], &[1])),
            &Tensor::from_vec(vec![100.0], &[1]),
        )
        .item();
        assert!(small > large * 50.0, "small {small} vs large {large}");
    }

    #[test]
    fn msre_grad_check() {
        let mut rng = StdRng::seed_from_u64(33);
        let p = Var::parameter(Tensor::rand_uniform(&[6], 0.5, 2.0, &mut rng));
        let t = Tensor::rand_uniform(&[6], 0.5, 2.0, &mut rng);
        numeric_grad(&[&p], || msre(&p, &t), 1e-3, 3e-2);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn l2_penalty_sums_squares() {
        let a = Var::parameter(Tensor::from_vec(vec![3.0], &[1]));
        let b = Var::parameter(Tensor::from_vec(vec![4.0], &[1]));
        let p = l2_penalty(&[a.clone(), b.clone()]);
        assert_eq!(p.item(), 25.0);
        p.backward();
        assert_eq!(a.grad().unwrap().item(), 6.0);
    }
}
