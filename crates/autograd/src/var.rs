//! The reverse-mode autodiff tape.
//!
//! A [`Var`] wraps a [`Tensor`] value together with an optional backward
//! closure and the list of parent variables it was computed from. Calling
//! [`Var::backward`] on a scalar result walks the graph in reverse
//! topological order, accumulating gradients into every variable that
//! requires them — exactly the define-by-run model DANCE's search loop needs,
//! where one loss mixes cross-entropy through the supernet with hardware cost
//! through the frozen evaluator network.
//!
//! ```
//! use dance_autograd::var::Var;
//! use dance_autograd::tensor::Tensor;
//!
//! let x = Var::parameter(Tensor::from_vec(vec![3.0], &[1]));
//! let y = x.mul(&x).scale(2.0); // y = 2x²
//! y.backward();
//! assert_eq!(x.grad().unwrap().data(), &[12.0]); // dy/dx = 4x
//! ```

use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::opspec::{LEAF_CONSTANT, LEAF_PARAMETER};
use crate::tensor::Tensor;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Backward closure: receives the upstream gradient of this node and the
/// parent variables, and accumulates gradients into the parents.
pub(crate) type BackwardFn = Box<dyn Fn(&Tensor, &[Var])>;

/// Scalar / shape attributes an op needs beyond its parents' values.
///
/// Most ops are fully determined by their parents, but a handful bake a
/// scalar or an index range into their forward closure. Recording those
/// attributes on the node is what lets a graph freezer (`dance-plan`)
/// replay the exact same computation without the tape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OpAttrs {
    /// The op takes no extra attributes.
    None,
    /// One scalar attribute (`scale`, `add_scalar`).
    Scalar(f32),
    /// A column window (`slice_cols`): start and length.
    ColRange {
        /// First column of the window.
        start: usize,
        /// Number of columns in the window.
        len: usize,
    },
    /// A temporal stride (`downsample1d`).
    Stride(usize),
    /// The `[batch, channels, length]` restoration of `from_channels_last`.
    BatchLength {
        /// Leading batch dimension of the restored tensor.
        batch: usize,
        /// Trailing length dimension of the restored tensor.
        length: usize,
    },
}

pub(crate) struct Node {
    id: u64,
    op: &'static str,
    value: Tensor,
    grad: Option<Tensor>,
    requires_grad: bool,
    parents: Vec<Var>,
    attrs: OpAttrs,
    backward: Option<BackwardFn>,
}

/// A node in the autodiff graph.
///
/// `Var` is a cheaply clonable handle (`Rc` internally); cloning shares the
/// underlying node, which is how parameters participate in many graphs.
///
/// The type is `#[must_use]`, and the workspace denies `unused_must_use`,
/// so a graph node that is built and then dropped fails to compile through
/// every function that returns one, trait methods included:
///
/// ```compile_fail
/// #![deny(unused_must_use)]
/// use dance_autograd::prelude::*;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let x = Var::constant(Tensor::ones(&[8, 4]));
/// layer.forward(&x);
/// ```
///
/// Binding the result builds:
///
/// ```
/// #![deny(unused_must_use)]
/// use dance_autograd::prelude::*;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let x = Var::constant(Tensor::ones(&[8, 4]));
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), vec![8, 2]);
/// ```
#[derive(Clone)]
#[must_use]
pub struct Var {
    inner: Rc<RefCell<Node>>,
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.inner.borrow();
        write!(
            f,
            "Var(id={}, shape={:?}, requires_grad={})",
            n.id,
            n.value.shape(),
            n.requires_grad
        )
    }
}

impl Var {
    fn from_node(node: Node) -> Self {
        Self {
            inner: Rc::new(RefCell::new(node)),
        }
    }

    /// A trainable leaf variable (gradient will be accumulated).
    pub fn parameter(value: Tensor) -> Self {
        Self::from_node(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            op: LEAF_PARAMETER,
            value,
            grad: None,
            requires_grad: true,
            parents: Vec::new(),
            attrs: OpAttrs::None,
            backward: None,
        })
    }

    /// A constant leaf variable (no gradient flows into it).
    pub fn constant(value: Tensor) -> Self {
        Self::from_node(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            op: LEAF_CONSTANT,
            value,
            grad: None,
            requires_grad: false,
            parents: Vec::new(),
            attrs: OpAttrs::None,
            backward: None,
        })
    }

    /// Builds an interior graph node from parents and a backward closure.
    ///
    /// `op` names the operation for graph introspection (static analysis
    /// re-checks it against the [`crate::opspec`] registry). Parents are kept
    /// even on gradient-free nodes so linters can walk the full graph; the
    /// backward closure of a gradient-free subgraph is still dropped, and
    /// [`Var::backward`] never descends into `!requires_grad` nodes, so the
    /// tape continues to skip them entirely.
    pub(crate) fn from_op(
        op: &'static str,
        value: Tensor,
        parents: Vec<Var>,
        backward: BackwardFn,
    ) -> Self {
        Self::from_op_attrs(op, value, parents, OpAttrs::None, backward)
    }

    /// Like [`Var::from_op`], but records the op's scalar/shape attributes so
    /// a graph freezer can replay the computation exactly.
    pub(crate) fn from_op_attrs(
        op: &'static str,
        value: Tensor,
        parents: Vec<Var>,
        attrs: OpAttrs,
        backward: BackwardFn,
    ) -> Self {
        dance_telemetry::counter!("tape.nodes");
        let requires_grad = parents.iter().any(Var::requires_grad);
        Self::from_node(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            op,
            value,
            grad: None,
            requires_grad,
            parents,
            attrs,
            backward: if requires_grad { Some(backward) } else { None },
        })
    }

    /// Builds a node with an arbitrary op name, value, and parents but no
    /// backward closure. Only for tests that need deliberately malformed
    /// graphs (wrong arity, impossible shapes, unknown ops) to exercise the
    /// static graph linter; never use it to build real computations.
    #[doc(hidden)]
    pub fn raw_for_testing(op: &'static str, value: Tensor, parents: Vec<Var>) -> Self {
        let requires_grad = parents.iter().any(Var::requires_grad);
        Self::from_node(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            op,
            value,
            grad: None,
            requires_grad,
            parents,
            attrs: OpAttrs::None,
            backward: None,
        })
    }

    /// Unique node id (useful for debugging graph shapes).
    pub fn id(&self) -> u64 {
        self.inner.borrow().id
    }

    /// The name of the op that produced this node (`"parameter"` /
    /// `"constant"` for leaves).
    #[must_use]
    pub fn op(&self) -> &'static str {
        self.inner.borrow().op
    }

    /// The scalar/shape attributes recorded when this node was built.
    ///
    /// [`OpAttrs::None`] for leaves and for ops fully determined by their
    /// parents' values.
    #[must_use]
    pub fn attrs(&self) -> OpAttrs {
        self.inner.borrow().attrs
    }

    /// Clones of the parent handles this node was computed from.
    ///
    /// Empty for leaves. Cheap: each clone is an `Rc` bump.
    #[must_use]
    pub fn parents(&self) -> Vec<Var> {
        self.inner.borrow().parents.clone()
    }

    /// Whether this node is a leaf (a parameter or constant with no parents).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        self.inner.borrow().parents.is_empty()
    }

    /// Whether gradients flow into this variable.
    pub fn requires_grad(&self) -> bool {
        self.inner.borrow().requires_grad
    }

    /// A clone of the tensor value.
    pub fn value(&self) -> Tensor {
        self.inner.borrow().value.clone()
    }

    /// Runs `f` on the value without cloning it.
    pub fn with_value<R>(&self, f: impl FnOnce(&Tensor) -> R) -> R {
        f(&self.inner.borrow().value)
    }

    /// The shape of the value.
    pub fn shape(&self) -> Vec<usize> {
        self.inner.borrow().value.shape().to_vec()
    }

    /// The scalar value of a one-element variable.
    ///
    /// # Panics
    ///
    /// Panics if the value has more than one element.
    pub fn item(&self) -> f32 {
        self.inner.borrow().value.item()
    }

    /// A clone of the accumulated gradient, if any has been accumulated.
    pub fn grad(&self) -> Option<Tensor> {
        self.inner.borrow().grad.clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.inner.borrow_mut().grad = None;
    }

    /// Replaces the value in place (used by optimizers; shape must match).
    ///
    /// # Panics
    ///
    /// Panics if the new value has a different shape.
    pub fn set_value(&self, value: Tensor) {
        let mut n = self.inner.borrow_mut();
        assert_eq!(
            n.value.shape(),
            value.shape(),
            "set_value shape mismatch on Var {}",
            n.id
        );
        n.value = value;
    }

    /// Applies `f` to the value in place (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.inner.borrow_mut().value);
    }

    /// Adds `delta` into the accumulated gradient.
    pub fn accumulate_grad(&self, delta: &Tensor) {
        let mut n = self.inner.borrow_mut();
        if !n.requires_grad {
            return;
        }
        match &mut n.grad {
            Some(g) => g.add_assign(delta),
            None => n.grad = Some(delta.clone()),
        }
    }

    /// Returns a constant copy of this variable, cutting the gradient path.
    pub fn detach(&self) -> Var {
        Var::constant(self.value())
    }

    /// Runs reverse-mode differentiation from this variable.
    ///
    /// The seed gradient is a tensor of ones with this variable's shape, so
    /// calling `backward` on a scalar loss computes ordinary gradients.
    /// Gradients accumulate across calls until [`Var::zero_grad`].
    pub fn backward(&self) {
        let _span = dance_telemetry::hot_span!("autograd.backward");
        // Post-order DFS (iterative, to survive deep graphs).
        let mut topo: Vec<Var> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Var, bool)> = vec![(self.clone(), false)];
        while let Some((v, children_done)) = stack.pop() {
            let id = v.id();
            if children_done {
                topo.push(v);
                continue;
            }
            if !visited.insert(id) {
                continue;
            }
            if !v.requires_grad() {
                continue;
            }
            stack.push((v.clone(), true));
            let parents = v.inner.borrow().parents.clone();
            for p in parents {
                if !visited.contains(&p.id()) {
                    stack.push((p, false));
                }
            }
        }

        let ones = Tensor::ones(&self.shape());
        self.accumulate_grad(&ones);

        for v in topo.iter().rev() {
            let (grad, parents, has_backward) = {
                let n = v.inner.borrow();
                match (&n.grad, &n.backward) {
                    (Some(g), Some(_)) => (g.clone(), n.parents.clone(), true),
                    _ => (Tensor::default(), Vec::new(), false),
                }
            };
            if has_backward {
                let n = v.inner.borrow();
                if let Some(bw) = &n.backward {
                    if dance_telemetry::enabled() {
                        // analyze:allow(determinism) span timing only; never feeds values
                        let start = std::time::Instant::now();
                        bw(&grad, &parents);
                        dance_telemetry::span::record_duration_prefixed(
                            "autograd.bwd.",
                            n.op,
                            start.elapsed().as_nanos() as u64,
                        );
                    } else {
                        bw(&grad, &parents);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_requires_grad_constant_does_not() {
        let p = Var::parameter(Tensor::scalar(1.0));
        let c = Var::constant(Tensor::scalar(1.0));
        assert!(p.requires_grad());
        assert!(!c.requires_grad());
    }

    #[test]
    fn backward_on_identity_gives_ones() {
        let p = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]));
        p.backward();
        assert_eq!(p.grad().unwrap().data(), &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn grad_accumulates_until_zeroed() {
        let p = Var::parameter(Tensor::scalar(5.0));
        p.backward();
        p.backward();
        assert_eq!(p.grad().unwrap().item(), 2.0);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn constant_subgraph_is_pruned() {
        let a = Var::constant(Tensor::scalar(2.0));
        let b = a.mul(&a);
        assert!(!b.requires_grad());
        b.backward();
        assert!(a.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_both_paths() {
        // y = x*x + x*x = 2x² ⇒ dy/dx = 4x
        let x = Var::parameter(Tensor::scalar(3.0));
        let a = x.mul(&x);
        let b = x.mul(&x);
        let y = a.add(&b);
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 12.0);
    }

    #[test]
    fn shared_parameter_across_two_graphs() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let y1 = x.scale(3.0);
        y1.backward();
        assert_eq!(x.grad().unwrap().item(), 3.0);
        x.zero_grad();
        let y2 = x.mul(&x);
        y2.backward();
        assert_eq!(x.grad().unwrap().item(), 4.0);
    }

    #[test]
    fn detach_blocks_gradient() {
        let x = Var::parameter(Tensor::scalar(2.0));
        let y = x.detach().mul(&x); // only the non-detached path contributes
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 2.0);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        let x = Var::parameter(Tensor::scalar(1.0));
        let mut y = x.clone();
        for _ in 0..5_000 {
            y = y.add_scalar(0.0);
        }
        y.backward();
        assert_eq!(x.grad().unwrap().item(), 1.0);
    }
}
