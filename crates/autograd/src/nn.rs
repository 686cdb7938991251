//! Neural network layers built on the autodiff tape.
//!
//! The [`Module`] trait exposes forward evaluation and the trainable
//! parameter list. Batch normalization keeps running statistics behind
//! interior mutability so frozen (inference-mode) evaluator networks stay
//! usable through shared references, as the DANCE search loop requires.

use std::cell::{Cell, RefCell};

use rand::rngs::StdRng;

use crate::init::kaiming_uniform;
use crate::tensor::Tensor;
use crate::var::Var;

/// A trainable computation unit.
pub trait Module {
    /// Runs the module on a batch.
    fn forward(&self, input: &Var) -> Var;
    /// All trainable parameters, in a stable order.
    fn parameters(&self) -> Vec<Var>;
    /// Switches between training and inference behaviour (e.g. batch-norm).
    fn set_training(&self, training: bool) {
        let _ = training;
    }
}

/// A fully connected layer `y = xW + b`.
#[derive(Debug)]
pub struct Linear {
    weight: Var,
    bias: Var,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Creates a layer with Kaiming-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let weight = Var::parameter(kaiming_uniform(
            &[in_features, out_features],
            in_features,
            rng,
        ));
        let bias = Var::parameter(Tensor::zeros(&[out_features]));
        Self {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix variable.
    pub fn weight(&self) -> &Var {
        &self.weight
    }

    /// The bias vector variable.
    pub fn bias(&self) -> &Var {
        &self.bias
    }
}

impl Module for Linear {
    fn forward(&self, input: &Var) -> Var {
        input.linear(&self.weight, &self.bias, false)
    }

    fn parameters(&self) -> Vec<Var> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Batch normalization over the feature axis of `[batch, features]` inputs.
///
/// Running statistics are updated in training mode and used verbatim in
/// inference mode, matching the paper's cost-estimation network which applies
/// batch normalization at every layer.
#[derive(Debug)]
pub struct BatchNorm1d {
    gamma: Var,
    beta: Var,
    running_mean: RefCell<Tensor>,
    running_var: RefCell<Tensor>,
    momentum: f32,
    eps: f32,
    training: Cell<bool>,
    features: usize,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer for `features`-wide activations.
    pub fn new(features: usize) -> Self {
        Self {
            gamma: Var::parameter(Tensor::ones(&[features])),
            beta: Var::parameter(Tensor::zeros(&[features])),
            running_mean: RefCell::new(Tensor::zeros(&[features])),
            running_var: RefCell::new(Tensor::ones(&[features])),
            momentum: 0.1,
            eps: 1e-5,
            training: Cell::new(true),
            features,
        }
    }

    /// Current running mean (for inspection/tests).
    pub fn running_mean(&self) -> Tensor {
        self.running_mean.borrow().clone()
    }

    /// Current running variance (for inspection/tests).
    pub fn running_var(&self) -> Tensor {
        self.running_var.borrow().clone()
    }

    /// Overwrites the running statistics (used when loading a saved model).
    ///
    /// # Panics
    ///
    /// Panics if either tensor's length differs from the feature count.
    pub fn set_running_stats(&self, mean: Tensor, var: Tensor) {
        assert_eq!(mean.numel(), self.features, "running mean length");
        assert_eq!(var.numel(), self.features, "running var length");
        *self.running_mean.borrow_mut() = mean;
        *self.running_var.borrow_mut() = var;
    }

    fn forward_train(&self, input: &Var) -> Var {
        let x_val = input.value();
        let (b, n) = (x_val.shape()[0], x_val.shape()[1]);
        assert!(b > 0, "batch norm on empty batch");

        // Batch statistics per feature.
        let mut mean = vec![0.0f32; n];
        for i in 0..b {
            for j in 0..n {
                mean[j] += x_val.data()[i * n + j];
            }
        }
        mean.iter_mut().for_each(|m| *m /= b as f32);
        let mut var = vec![0.0f32; n];
        for i in 0..b {
            for j in 0..n {
                let d = x_val.data()[i * n + j] - mean[j];
                var[j] += d * d;
            }
        }
        var.iter_mut().for_each(|v| *v /= b as f32);

        {
            let mut rm = self.running_mean.borrow_mut();
            let mut rv = self.running_var.borrow_mut();
            for j in 0..n {
                rm.data_mut()[j] = (1.0 - self.momentum) * rm.data()[j] + self.momentum * mean[j];
                rv.data_mut()[j] = (1.0 - self.momentum) * rv.data()[j] + self.momentum * var[j];
            }
        }

        let eps = self.eps;
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + eps).sqrt()).collect();
        let mut x_hat = Tensor::zeros(&[b, n]);
        for i in 0..b {
            for j in 0..n {
                x_hat.data_mut()[i * n + j] = (x_val.data()[i * n + j] - mean[j]) * inv_std[j];
            }
        }

        let gamma_val = self.gamma.value();
        let beta_val = self.beta.value();
        let mut out = Tensor::zeros(&[b, n]);
        for i in 0..b {
            for j in 0..n {
                out.data_mut()[i * n + j] =
                    gamma_val.data()[j] * x_hat.data()[i * n + j] + beta_val.data()[j];
            }
        }

        let x_hat_saved = x_hat;
        let inv_std_saved = inv_std;
        Var::from_op(
            "batch_norm",
            out,
            vec![input.clone(), self.gamma.clone(), self.beta.clone()],
            Box::new(move |g, parents| {
                let bsz = b as f32;
                let mut dgamma = Tensor::zeros(&[n]);
                let mut dbeta = Tensor::zeros(&[n]);
                let mut sum_g = vec![0.0f32; n];
                let mut sum_gx = vec![0.0f32; n];
                for i in 0..b {
                    for j in 0..n {
                        let gv = g.data()[i * n + j];
                        let xh = x_hat_saved.data()[i * n + j];
                        dgamma.data_mut()[j] += gv * xh;
                        dbeta.data_mut()[j] += gv;
                        sum_g[j] += gv;
                        sum_gx[j] += gv * xh;
                    }
                }
                let mut dx = Tensor::zeros(&[b, n]);
                for i in 0..b {
                    for j in 0..n {
                        let gv = g.data()[i * n + j];
                        let xh = x_hat_saved.data()[i * n + j];
                        dx.data_mut()[i * n + j] = gamma_val.data()[j]
                            * inv_std_saved[j]
                            * (gv - sum_g[j] / bsz - xh * sum_gx[j] / bsz);
                    }
                }
                parents[0].accumulate_grad(&dx);
                parents[1].accumulate_grad(&dgamma);
                parents[2].accumulate_grad(&dbeta);
            }),
        )
    }

    fn forward_eval(&self, input: &Var) -> Var {
        let rm = self.running_mean.borrow().clone();
        let rv = self.running_var.borrow().clone();
        let eps = self.eps;
        let n = self.features;
        let scale: Vec<f32> = (0..n).map(|j| 1.0 / (rv.data()[j] + eps).sqrt()).collect();
        // y = gamma * (x − rm) * inv_std + beta, expressed with broadcast ops
        // so gradients still flow into gamma/beta (and x) if required.
        let neg_mean = Var::constant(rm.scale(-1.0));
        let inv_std = Var::constant(Tensor::from_vec(scale, &[n]));
        let centered = input.add_row_broadcast(&neg_mean);
        let x_hat = mul_row_broadcast(&centered, &inv_std);
        mul_row_broadcast(&x_hat, &self.gamma).add_row_broadcast(&self.beta)
    }
}

/// Broadcast-multiplies each row of a `[m, n]` variable by a `[n]` vector.
///
/// # Panics
///
/// Panics if `x` is not 2-D or `row` length differs from the columns.
pub fn mul_row_broadcast(x: &Var, row: &Var) -> Var {
    let x_val = x.value();
    let r_val = row.value();
    assert_eq!(
        x_val.ndim(),
        2,
        "mul_row_broadcast lhs shape {:?}",
        x_val.shape()
    );
    let (m, n) = (x_val.shape()[0], x_val.shape()[1]);
    assert_eq!(
        r_val.numel(),
        n,
        "row length {} vs columns {}",
        r_val.numel(),
        n
    );
    let out = Tensor::from_storage(
        dance_backend::kernels::mul_row_broadcast(x_val.storage(), r_val.storage(), m, n),
        &[m, n],
    );
    Var::from_op(
        "mul_row_broadcast",
        out,
        vec![x.clone(), row.clone()],
        Box::new(move |g, parents| {
            let dx = Tensor::from_storage(
                dance_backend::kernels::mul_row_broadcast(g.storage(), r_val.storage(), m, n),
                &[m, n],
            );
            // dr[j] = Σᵢ g[i,j]·x[i,j]: element-wise product then column sum,
            // in the same row-ascending accumulation order as before.
            let dr = g.mul(&x_val).sum_rows();
            parents[0].accumulate_grad(&dx);
            parents[1].accumulate_grad(&dr);
        }),
    )
}

impl Module for BatchNorm1d {
    fn forward(&self, input: &Var) -> Var {
        assert_eq!(input.shape().len(), 2, "BatchNorm1d input must be 2-D");
        assert_eq!(
            input.shape()[1],
            self.features,
            "BatchNorm1d features {} vs input {:?}",
            self.features,
            input.shape()
        );
        if self.training.get() {
            self.forward_train(input)
        } else {
            self.forward_eval(input)
        }
    }

    fn parameters(&self) -> Vec<Var> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn set_training(&self, training: bool) {
        self.training.set(training);
    }
}

/// A plain multilayer perceptron: `Linear → ReLU → … → Linear`.
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[in, hidden, out]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], rng: &mut StdRng) -> Self {
        assert!(
            widths.len() >= 2,
            "Mlp needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

impl Module for Mlp {
    fn forward(&self, input: &Var) -> Var {
        let mut x = input.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            // Hidden layers fuse the ReLU into the linear op so the tape
            // records one node (and one backward pass) instead of three.
            let relu = i + 1 < self.layers.len();
            x = x.linear(&layer.weight, &layer.bias, relu);
        }
        x
    }

    fn parameters(&self) -> Vec<Var> {
        self.layers.iter().flat_map(Linear::parameters).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::numeric_grad;
    use rand::SeedableRng;

    #[test]
    fn linear_output_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(4, 7, &mut rng);
        let x = Var::constant(Tensor::zeros(&[3, 4]));
        assert_eq!(l.forward(&x).shape(), vec![3, 7]);
        assert_eq!(l.parameters().len(), 2);
    }

    #[test]
    fn linear_grad_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(3, 2, &mut rng);
        let x = Var::parameter(Tensor::rand_normal(&[4, 3], 0.0, 1.0, &mut rng));
        let params = l.parameters();
        numeric_grad(
            &[&x, &params[0], &params[1]],
            || l.forward(&x).sqr().sum(),
            1e-2,
            5e-2,
        );
    }

    #[test]
    fn batchnorm_normalizes_in_training() {
        let mut rng = StdRng::seed_from_u64(3);
        let bn = BatchNorm1d::new(5);
        let x = Var::constant(Tensor::rand_normal(&[64, 5], 3.0, 2.0, &mut rng));
        let y = bn.forward(&x).value();
        // Per-feature output mean ≈ 0 and variance ≈ 1.
        for j in 0..5 {
            let col: Vec<f32> = (0..64).map(|i| y.at2(i, j)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 64.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_grad_check_training() {
        let mut rng = StdRng::seed_from_u64(4);
        let bn = BatchNorm1d::new(3);
        let x = Var::parameter(Tensor::rand_normal(&[6, 3], 1.0, 2.0, &mut rng));
        let params = bn.parameters();
        numeric_grad(
            &[&x, &params[0], &params[1]],
            || bn.forward(&x).sqr().sum(),
            1e-2,
            8e-2,
        );
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(5);
        let bn = BatchNorm1d::new(2);
        // Feed many training batches so running stats converge.
        for _ in 0..200 {
            let x = Var::constant(Tensor::rand_normal(&[32, 2], 4.0, 1.0, &mut rng));
            let _ = bn.forward(&x);
        }
        bn.set_training(false);
        // A single point at the running mean should map to ≈ beta (0).
        let x = Var::constant(Tensor::from_vec(vec![4.0, 4.0], &[1, 2]));
        let y = bn.forward(&x).value();
        assert!(y.data().iter().all(|v| v.abs() < 0.2), "{:?}", y.data());
    }

    #[test]
    fn batchnorm_eval_grad_flows_to_gamma_beta() {
        let bn = BatchNorm1d::new(2);
        bn.set_training(false);
        let x = Var::constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        bn.forward(&x).sum().backward();
        let params = bn.parameters();
        assert!(params[0].grad().is_some());
        assert!(params[1].grad().is_some());
    }

    #[test]
    fn mlp_can_fit_xor() {
        let mut rng = StdRng::seed_from_u64(6);
        let mlp = Mlp::new(&[2, 16, 1], &mut rng);
        let x = Var::constant(Tensor::from_vec(
            vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0],
            &[4, 2],
        ));
        let t = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[4, 1]);
        let params = mlp.parameters();
        for _ in 0..4_000 {
            for p in &params {
                p.zero_grad();
            }
            let loss = crate::loss::mse(&mlp.forward(&x), &t);
            loss.backward();
            for p in &params {
                if let Some(g) = p.grad() {
                    p.update_value(|v| *v = v.sub(&g.scale(0.2)));
                }
            }
        }
        let final_loss = crate::loss::mse(&mlp.forward(&x), &t).item();
        assert!(final_loss < 0.01, "XOR loss {final_loss}");
    }

    #[test]
    fn mul_row_broadcast_grad_check() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = Var::parameter(Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng));
        let r = Var::parameter(Tensor::rand_normal(&[4], 0.0, 1.0, &mut rng));
        numeric_grad(
            &[&x, &r],
            || mul_row_broadcast(&x, &r).sqr().sum(),
            1e-2,
            5e-2,
        );
    }
}
