#![warn(missing_docs)]

//! # dance-autograd
//!
//! A tape-based reverse-mode automatic differentiation engine — the DNN
//! training substrate of the DANCE reproduction (Choi et al., DAC 2021).
//!
//! The paper implements its co-exploration in PyTorch; this crate provides
//! the minimal but complete equivalent in pure Rust: dense [`tensor::Tensor`]
//! values, a define-by-run graph of [`var::Var`] nodes, neural-network layers
//! ([`nn`]), losses including the paper's MSRE ([`loss`]), Gumbel-softmax
//! sampling ([`gumbel`]), and optimizers with the paper's schedules
//! ([`optim`]).
//!
//! ```
//! use dance_autograd::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let layer = Linear::new(4, 2, &mut rng);
//! let x = Var::constant(Tensor::ones(&[8, 4]));
//! let loss = layer.forward(&x).sqr().mean();
//! loss.backward();
//! assert!(layer.weight().grad().is_some());
//! ```

pub mod freeze;
pub mod gumbel;
pub mod init;
pub mod loss;
pub mod nn;
pub mod ops;
pub mod opspec;
pub mod optim;
pub mod serialize;
pub mod tensor;
pub mod testing;
pub mod var;

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::gumbel::{gumbel_softmax, softmax_with_temperature};
    pub use crate::loss::{accuracy, cross_entropy, l2_penalty, mse, msre};
    pub use crate::nn::{BatchNorm1d, Linear, Mlp, Module};
    pub use crate::optim::{clip_grad_norm, Adam, CosineLr, Optimizer, Sgd, StepLr};
    pub use crate::serialize::{load_tensors, save_tensors};
    pub use crate::tensor::Tensor;
    pub use crate::var::{OpAttrs, Var};
}
