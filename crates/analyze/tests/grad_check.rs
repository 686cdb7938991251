//! Registry-driven gradient verification: every op the opspec registry
//! declares differentiable must come with a concrete probe graph whose
//! analytic gradients match central finite differences. Adding an op to the
//! registry without extending `probe` fails the coverage test, so the
//! registry can never claim differentiability the tape does not deliver.

use dance_autograd::loss::cross_entropy;
use dance_autograd::nn::{mul_row_broadcast, BatchNorm1d, Module};
use dance_autograd::opspec::REGISTRY;
use dance_autograd::tensor::Tensor;
use dance_autograd::testing::numeric_grad;
use dance_autograd::var::Var;

fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
    Tensor::from_vec(data, shape)
}

fn p(data: Vec<f32>, shape: &[usize]) -> Var {
    Var::parameter(t(data, shape))
}

type Probe = (Vec<Var>, Box<dyn Fn() -> Var>);

/// A probe graph exercising `op`: trainable inputs plus a closure that
/// rebuilds a scalar loss containing that op from the current values.
#[allow(clippy::too_many_lines)]
fn probe(op: &str) -> Option<Probe> {
    let mixed = vec![-0.9, -0.4, 0.6, 1.1, -1.3, 0.8];
    let positive = vec![0.5, 1.2, 2.0, 0.8, 1.5, 0.7];
    Some(match op {
        "add" | "sub" | "mul" | "div" => {
            let a = p(mixed.clone(), &[2, 3]);
            let b = p(vec![1.6, 1.2, 2.1, 1.4, 1.9, 1.3], &[2, 3]);
            let (ac, bc) = (a.clone(), b.clone());
            let name = op.to_string();
            (
                vec![a, b],
                Box::new(move || {
                    match name.as_str() {
                        "add" => ac.add(&bc),
                        "sub" => ac.sub(&bc),
                        "mul" => ac.mul(&bc),
                        _ => ac.div(&bc),
                    }
                    .sum()
                }),
            )
        }
        "scale" => unary(mixed, |x| x.scale(1.7)),
        "add_scalar" => unary(mixed, |x| x.add_scalar(0.3)),
        "relu" => unary(mixed, Var::relu),
        "sigmoid" => unary(mixed, Var::sigmoid),
        "tanh" => unary(mixed, Var::tanh),
        "exp" => unary(mixed, Var::exp),
        "ln" => unary(positive, Var::ln),
        "sum" => unary(mixed, |x| x.scale(1.0)),
        "matmul" => {
            let a = p(mixed.clone(), &[2, 3]);
            let b = p(positive.clone(), &[3, 2]);
            let (ac, bc) = (a.clone(), b.clone());
            (vec![a, b], Box::new(move || ac.matmul(&bc).sum()))
        }
        "linear" | "linear_relu" => {
            // Mixed-sign pre-activations kept away from zero so the fused
            // ReLU's kink does not sit inside the finite-difference stencil.
            let x = p(mixed.clone(), &[2, 3]);
            let w = p(positive.clone(), &[3, 2]);
            let b = p(vec![0.27, -0.45], &[2]);
            let relu = op == "linear_relu";
            let (xc, wc, bc) = (x.clone(), w.clone(), b.clone());
            (
                vec![x, w, b],
                Box::new(move || xc.linear(&wc, &bc, relu).sum()),
            )
        }
        "add_row_broadcast" => {
            let x = p(mixed.clone(), &[2, 3]);
            let bias = p(vec![0.4, -0.2, 0.9], &[3]);
            let (xc, bc) = (x.clone(), bias.clone());
            (
                vec![x, bias],
                Box::new(move || xc.add_row_broadcast(&bc).sum()),
            )
        }
        "mul_row_broadcast" => {
            let x = p(mixed.clone(), &[2, 3]);
            let row = p(vec![0.7, -1.1, 1.4], &[3]);
            let (xc, rc) = (x.clone(), row.clone());
            (
                vec![x, row],
                Box::new(move || mul_row_broadcast(&xc, &rc).sum()),
            )
        }
        "softmax" => weighted_unary(mixed, |x| x.softmax_rows(), &[2, 3]),
        "log_softmax" => weighted_unary(mixed, |x| x.log_softmax_rows(), &[2, 3]),
        "concat_cols" => {
            let a = p(vec![0.2, -0.4, 0.8, 1.1], &[2, 2]);
            let b = p(mixed.clone(), &[2, 3]);
            let w = Var::constant(t((0..10).map(|i| 0.2 + 0.13 * i as f32).collect(), &[2, 5]));
            let (ac, bc) = (a.clone(), b.clone());
            (
                vec![a, b],
                Box::new(move || Var::concat_cols(&[&ac, &bc]).mul(&w).sum()),
            )
        }
        "slice_cols" => {
            let a = p(vec![0.3; 8], &[2, 4]);
            let ac = a.clone();
            (vec![a], Box::new(move || ac.slice_cols(1, 2).sum()))
        }
        "weighted_sum" => {
            let a = p(mixed.clone(), &[2, 3]);
            let b = p(positive.clone(), &[2, 3]);
            let w = p(vec![0.6, -0.3], &[2]);
            let (ac, bc, wc) = (a.clone(), b.clone(), w.clone());
            (
                vec![a, b, w],
                Box::new(move || Var::weighted_sum(&[&ac, &bc], &wc).sum()),
            )
        }
        "dw_conv1d" => {
            let x = p(vec![0.4, -0.7, 1.1, 0.2, -0.3, 0.9, 1.4, -1.2], &[1, 2, 4]);
            let w = p(mixed.clone(), &[2, 3]);
            let (xc, wc) = (x.clone(), w.clone());
            (vec![x, w], Box::new(move || xc.dw_conv1d(&wc).sum()))
        }
        "dw_conv1d_relu" => {
            let x = p(vec![0.4, -0.7, 1.1, 0.2, -0.3, 0.9, 1.4, -1.2], &[1, 2, 4]);
            let w = p(mixed.clone(), &[2, 3]);
            let (xc, wc) = (x.clone(), w.clone());
            (vec![x, w], Box::new(move || xc.dw_conv1d_relu(&wc).sum()))
        }
        "global_avg_pool1d" => {
            let x = p(mixed.clone(), &[1, 2, 3]);
            let xc = x.clone();
            (vec![x], Box::new(move || xc.global_avg_pool1d().sum()))
        }
        "to_channels_last" => {
            let x = p(mixed.clone(), &[1, 2, 3]);
            let w = Var::constant(t((0..6).map(|i| 0.3 + 0.2 * i as f32).collect(), &[3, 2]));
            let xc = x.clone();
            (
                vec![x],
                Box::new(move || xc.to_channels_last().mul(&w).sum()),
            )
        }
        "from_channels_last" => {
            let x = p(mixed.clone(), &[3, 2]);
            let xc = x.clone();
            (
                vec![x],
                Box::new(move || xc.from_channels_last(1, 3).sqr().sum()),
            )
        }
        "downsample1d" => {
            let x = p(vec![0.4, -0.7, 1.1, 0.2, -0.3, 0.9, 1.4, -1.2], &[1, 2, 4]);
            let xc = x.clone();
            (vec![x], Box::new(move || xc.downsample1d(2).sqr().sum()))
        }
        "reshape" => {
            let x = p(mixed.clone(), &[2, 3]);
            let w = Var::constant(t((0..6).map(|i| 0.1 * i as f32 - 0.2).collect(), &[3, 2]));
            let xc = x.clone();
            (vec![x], Box::new(move || xc.reshape(&[3, 2]).mul(&w).sum()))
        }
        "batch_norm" => {
            let bn = BatchNorm1d::new(3);
            let x = p(
                vec![
                    0.4, -0.7, 1.1, 0.2, -0.3, 0.9, 1.4, -1.2, 0.6, -0.5, 0.8, 0.3,
                ],
                &[4, 3],
            );
            let w = Var::constant(t((0..12).map(|i| 0.15 * i as f32 - 0.4).collect(), &[4, 3]));
            let mut params = vec![x.clone()];
            params.extend(bn.parameters());
            let xc = x.clone();
            (params, Box::new(move || bn.forward(&xc).mul(&w).sum()))
        }
        "cross_entropy" => {
            let logits = p(
                vec![
                    1.2, -0.5, 0.3, 0.8, -1.1, 0.6, 1.4, -0.2, 0.1, 0.9, -0.7, 0.5,
                ],
                &[3, 4],
            );
            let lc = logits.clone();
            (
                vec![logits],
                Box::new(move || cross_entropy(&lc, &[0, 1, 2], 0.1)),
            )
        }
        _ => return None,
    })
}

fn unary(values: Vec<f32>, f: impl Fn(&Var) -> Var + 'static) -> Probe {
    let x = p(values, &[2, 3]);
    let xc = x.clone();
    (vec![x], Box::new(move || f(&xc).sum()))
}

fn weighted_unary(values: Vec<f32>, f: impl Fn(&Var) -> Var + 'static, shape: &[usize]) -> Probe {
    let x = p(values, shape);
    let n: usize = shape.iter().product();
    let w = Var::constant(t((0..n).map(|i| 0.25 + 0.17 * i as f32).collect(), shape));
    let xc = x.clone();
    (vec![x], Box::new(move || f(&xc).mul(&w).sum()))
}

/// Every differentiable registry entry has a finite-difference probe that
/// passes.
#[test]
fn registry_gradients_match_finite_differences() {
    let mut checked = 0usize;
    for spec in REGISTRY {
        if !spec.differentiable {
            continue;
        }
        let (params, build) = probe(spec.name)
            .unwrap_or_else(|| panic!("no gradient probe for registered op `{}`", spec.name));
        let refs: Vec<&Var> = params.iter().collect();
        numeric_grad(&refs, &*build, 1e-3, 2e-2);
        checked += 1;
    }
    assert!(checked >= 25, "only {checked} ops were gradient-checked");
}
