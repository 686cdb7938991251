//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is the value type that flows through the autodiff tape in
//! [`crate::var`]. It is deliberately simple: contiguous storage plus a
//! shape. The storage is an `Arc<Storage>` — an opaque, 32-byte-aligned,
//! arena-recycled buffer owned by `dance-backend` — so clones are O(1) and
//! the compute kernels can share it with pool workers without copying;
//! mutation goes through copy-on-write ([`Tensor::data_mut`]). The hot
//! operations (matmul, transpose, element-wise maps, reductions, softmax)
//! dispatch through [`dance_backend::kernels`], whose results are
//! bit-identical at any `DANCE_THREADS` setting. All operations are
//! implemented for the ranks the DANCE stack actually needs (scalars,
//! vectors, matrices and `[batch, channel, length]` activations), with
//! shape checks that panic loudly on misuse.
//!
//! ```
//! use dance_autograd::tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! assert_eq!(a.matmul(&b), a);
//! ```

use std::fmt;
use std::sync::Arc;

use dance_backend::{kernels, BinaryOp, Storage, UnaryOp};
use rand::rngs::StdRng;
use rand::Rng;

/// A dense row-major tensor of `f32` values with shared, copy-on-write,
/// arena-recycled storage.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Storage>,
    shape: Vec<usize>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data.as_slice())
        } else {
            write!(
                f,
                " [{:?}, ... {} values]",
                &self.data[..8],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// The `Vec` is adopted as-is (no copy), so the buffer is *not*
    /// arena-aligned; prefer [`Tensor::from_storage`] with
    /// [`Storage::uninit`] in hot paths (the `arena-escape` lint enforces
    /// this inside marked hot regions).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Self {
            data: Arc::new(Storage::from_vec(data)),
            shape: shape.to_vec(),
        }
    }

    /// Wraps an owned [`Storage`] buffer in a tensor.
    ///
    /// This is the allocation-aware constructor: pair it with
    /// [`Storage::uninit`] (buffer fully overwritten) or
    /// [`Storage::zeroed`] so the arena can recycle the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `storage.len()` does not equal the product of `shape`.
    pub fn from_storage(storage: Storage, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            storage.len(),
            numel,
            "storage length {} does not match shape {:?}",
            storage.len(),
            shape
        );
        Self {
            data: Arc::new(storage),
            shape: shape.to_vec(),
        }
    }

    /// Wraps an already-shared [`Storage`] handle (no copy).
    ///
    /// # Panics
    ///
    /// Panics if `storage.len()` does not equal the product of `shape`.
    pub fn from_shared(storage: Arc<Storage>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            storage.len(),
            numel,
            "storage length {} does not match shape {:?}",
            storage.len(),
            shape
        );
        Self {
            data: storage,
            shape: shape.to_vec(),
        }
    }

    /// A tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: Arc::new(Storage::zeroed(shape.iter().product())),
            shape: shape.to_vec(),
        }
    }

    /// A tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: Arc::new(Storage::full(shape.iter().product(), value)),
            shape: shape.to_vec(),
        }
    }

    /// A rank-0-like scalar stored as shape `[1]`.
    pub fn scalar(value: f32) -> Self {
        Self {
            data: Arc::new(Storage::full(1, value)),
            shape: vec![1],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = Storage::zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self {
            data: Arc::new(data),
            shape: vec![n, n],
        }
    }

    /// Uniform random values in `[lo, hi)`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, rng: &mut StdRng) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = Storage::uninit(numel);
        for v in data.iter_mut() {
            *v = rng.gen_range(lo..hi);
        }
        Self {
            data: Arc::new(data),
            shape: shape.to_vec(),
        }
    }

    /// Normally distributed random values (Box–Muller transform).
    pub fn rand_normal(shape: &[usize], mean: f32, std: f32, rng: &mut StdRng) -> Self {
        let numel: usize = shape.iter().product();
        let mut data = Storage::uninit(numel);
        let mut i = 0;
        while i < numel {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data[i] = mean + std * r * theta.cos();
            i += 1;
            if i < numel {
                data[i] = mean + std * r * theta.sin();
                i += 1;
            }
        }
        Self {
            data: Arc::new(data),
            shape: shape.to_vec(),
        }
    }

    /// A one-hot row vector of length `n` with a one at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn one_hot(index: usize, n: usize) -> Self {
        assert!(
            index < n,
            "one-hot index {index} out of range for length {n}"
        );
        let mut data = Storage::zeroed(n);
        data[index] = 1.0;
        Self {
            data: Arc::new(data),
            shape: vec![n],
        }
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The shared, opaque storage handle, for handing to backend kernels
    /// (or caching alongside other tensors) without a copy.
    pub fn storage(&self) -> &Arc<Storage> {
        &self.data
    }

    /// Mutable view of the underlying data (copy-on-write: clones the
    /// storage first if it is shared with another tensor or a kernel job).
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Copies the elements out into a plain `Vec`.
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.as_slice().to_vec()
    }

    /// The single value of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with shape {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Returns a reshaped copy (O(1): the storage is shared).
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            numel,
            "data length {} does not match shape {:?}",
            self.data.len(),
            shape
        );
        Self {
            data: self.data.clone(),
            shape: shape.to_vec(),
        }
    }

    /// Element at 2-D index `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the index is out of bounds.
    pub fn at2(&self, row: usize, col: usize) -> f32 {
        assert_eq!(self.ndim(), 2, "at2 on tensor with shape {:?}", self.shape);
        assert!(row < self.shape[0] && col < self.shape[1]);
        self.data[row * self.shape[1] + col]
    }

    /// Applies `f` element-wise, returning a new tensor.
    ///
    /// Test-only: production element-wise work goes through
    /// [`Tensor::unary_op`] so it hits the arena and the parallel pool.
    #[cfg(test)]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut out = Storage::uninit(self.data.len());
        for (o, &x) in out.iter_mut().zip(self.data.iter()) {
            *o = f(x);
        }
        Self {
            data: Arc::new(out),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors element-wise.
    ///
    /// Test-only: production element-wise work goes through
    /// [`Tensor::binary_op`] so it hits the arena and the parallel pool.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[cfg(test)]
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        let mut out = Storage::uninit(self.data.len());
        for ((o, &a), &b) in out.iter_mut().zip(self.data.iter()).zip(other.data.iter()) {
            *o = f(a, b);
        }
        Self {
            data: Arc::new(out),
            shape: self.shape.clone(),
        }
    }

    /// Applies a backend element-wise unary kernel.
    pub fn unary_op(&self, op: UnaryOp) -> Self {
        Self {
            data: Arc::new(kernels::unary(&self.data, op)),
            shape: self.shape.clone(),
        }
    }

    /// Applies a backend element-wise binary kernel.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn binary_op(&self, other: &Self, op: BinaryOp) -> Self {
        assert_eq!(
            self.shape, other.shape,
            "binary op shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        Self {
            data: Arc::new(kernels::binary(&self.data, &other.data, op)),
            shape: self.shape.clone(),
        }
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Self) -> Self {
        self.binary_op(other, BinaryOp::Add)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Self) -> Self {
        self.binary_op(other, BinaryOp::Sub)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Self) -> Self {
        self.binary_op(other, BinaryOp::Mul)
    }

    /// Element-wise quotient.
    pub fn div(&self, other: &Self) -> Self {
        self.binary_op(other, BinaryOp::Div)
    }

    /// Multiplies every element by `c`.
    pub fn scale(&self, c: f32) -> Self {
        self.unary_op(UnaryOp::Scale(c))
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Self) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        for (a, b) in self.data_mut().iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Fills the tensor with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data_mut().iter_mut().for_each(|x| *x = 0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        kernels::sum(&self.data)
    }

    /// Inner product with `other` (same fixed-block association as
    /// [`Tensor::sum`] of the element-wise product).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn dot(&self, other: &Self) -> f32 {
        assert_eq!(
            self.shape, other.shape,
            "dot shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
        kernels::dot(&self.data, &other.data)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element (`-inf` when empty).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// The squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Matrix product of two 2-D tensors: `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(
            self.ndim(),
            2,
            "matmul lhs must be 2-D, got {:?}",
            self.shape
        );
        assert_eq!(
            other.ndim(),
            2,
            "matmul rhs must be 2-D, got {:?}",
            other.shape
        );
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dims: {:?} × {:?}",
            self.shape, other.shape
        );
        Self {
            data: Arc::new(kernels::matmul(&self.data, &other.data, m, k, n)),
            shape: vec![m, n],
        }
    }

    /// `self × otherᵀ` without materializing the transpose:
    /// `[m, n] × [k, n]ᵀ → [m, k]`, bit-identical to
    /// `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the column counts disagree.
    pub fn matmul_bt(&self, other: &Self) -> Self {
        assert_eq!(self.ndim(), 2, "matmul_bt lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_bt rhs must be 2-D");
        let (m, n) = (self.shape[0], self.shape[1]);
        let (kdim, n2) = (other.shape[0], other.shape[1]);
        assert_eq!(
            n, n2,
            "matmul_bt column dims: {:?} × {:?}ᵀ",
            self.shape, other.shape
        );
        Self {
            data: Arc::new(kernels::matmul_bt(&self.data, &other.data, m, n, kdim)),
            shape: vec![m, kdim],
        }
    }

    /// `selfᵀ × other` without materializing the transpose:
    /// `[m, k]ᵀ × [m, n] → [k, n]`, bit-identical to
    /// `self.transpose().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics if either tensor is not 2-D or the row counts disagree.
    pub fn matmul_at(&self, other: &Self) -> Self {
        assert_eq!(self.ndim(), 2, "matmul_at lhs must be 2-D");
        assert_eq!(other.ndim(), 2, "matmul_at rhs must be 2-D");
        let (m, kdim) = (self.shape[0], self.shape[1]);
        let (m2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(
            m, m2,
            "matmul_at row dims: {:?}ᵀ × {:?}",
            self.shape, other.shape
        );
        Self {
            data: Arc::new(kernels::matmul_at(&self.data, &other.data, m, kdim, n)),
            shape: vec![kdim, n],
        }
    }

    /// Fused `self × w + bias` (and ReLU when `relu`) — one kernel pass,
    /// bit-identical to matmul → add_row_broadcast (→ relu).
    ///
    /// # Panics
    ///
    /// Panics on non-2-D inputs or mismatched dimensions.
    pub fn linear(&self, w: &Self, bias: &Self, relu: bool) -> Self {
        assert_eq!(self.ndim(), 2, "linear input must be 2-D");
        assert_eq!(w.ndim(), 2, "linear weight must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (w.shape[0], w.shape[1]);
        assert_eq!(k, k2, "linear inner dims: {:?} × {:?}", self.shape, w.shape);
        assert_eq!(
            bias.numel(),
            n,
            "linear bias length {} != {n}",
            bias.numel()
        );
        Self {
            data: Arc::new(kernels::linear(
                &self.data, &w.data, &bias.data, m, k, n, relu,
            )),
            shape: vec![m, n],
        }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose(&self) -> Self {
        assert_eq!(
            self.ndim(),
            2,
            "transpose on tensor with shape {:?}",
            self.shape
        );
        let (m, n) = (self.shape[0], self.shape[1]);
        Self {
            data: Arc::new(kernels::transpose(&self.data, m, n)),
            shape: vec![n, m],
        }
    }

    /// Sums a `[rows, cols]` tensor over its rows, producing `[cols]`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_rows(&self) -> Self {
        assert_eq!(
            self.ndim(),
            2,
            "sum_rows on tensor with shape {:?}",
            self.shape
        );
        let (m, n) = (self.shape[0], self.shape[1]);
        Self {
            data: Arc::new(kernels::sum_rows(&self.data, m, n)),
            shape: vec![n],
        }
    }

    /// Index of the maximum element in each row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(
            self.ndim(),
            2,
            "argmax_rows on tensor with shape {:?}",
            self.shape
        );
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(n > 0, "argmax_rows on tensor with zero columns");
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Index of the maximum element of a 1-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax on empty tensor");
        self.data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Concatenates 2-D tensors along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not 2-D, or row counts differ.
    pub fn concat_cols(parts: &[&Tensor]) -> Self {
        assert!(!parts.is_empty(), "concat_cols of zero tensors");
        let rows = parts[0].shape[0];
        for p in parts {
            assert_eq!(p.ndim(), 2, "concat_cols part with shape {:?}", p.shape);
            assert_eq!(p.shape[0], rows, "concat_cols row mismatch");
        }
        let total_cols: usize = parts.iter().map(|p| p.shape[1]).sum();
        let mut out = Storage::uninit(rows * total_cols);
        for i in 0..rows {
            let mut offset = 0;
            for p in parts {
                let c = p.shape[1];
                out[i * total_cols + offset..i * total_cols + offset + c]
                    .copy_from_slice(&p.data[i * c..(i + 1) * c]);
                offset += c;
            }
        }
        Self {
            data: Arc::new(out),
            shape: vec![rows, total_cols],
        }
    }

    /// Extracts columns `[start, start + len)` from a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the range exceeds the column count.
    pub fn slice_cols(&self, start: usize, len: usize) -> Self {
        assert_eq!(
            self.ndim(),
            2,
            "slice_cols on tensor with shape {:?}",
            self.shape
        );
        let (m, n) = (self.shape[0], self.shape[1]);
        assert!(
            start + len <= n,
            "slice_cols [{start}, {}) out of {n}",
            start + len
        );
        let mut out = Storage::uninit(m * len);
        for i in 0..m {
            out[i * len..(i + 1) * len]
                .copy_from_slice(&self.data[i * n + start..i * n + start + len]);
        }
        Self {
            data: Arc::new(out),
            shape: vec![m, len],
        }
    }

    /// Row-wise numerically stable softmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Self {
        assert_eq!(
            self.ndim(),
            2,
            "softmax_rows on tensor with shape {:?}",
            self.shape
        );
        let (m, n) = (self.shape[0], self.shape[1]);
        Self {
            data: Arc::new(kernels::softmax_rows(&self.data, m, n)),
            shape: vec![m, n],
        }
    }

    /// Returns `true` when every element differs from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at2(1, 2), 6.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn from_storage_roundtrip_and_shared_handle() {
        let mut s = Storage::uninit(4);
        s.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let t = Tensor::from_storage(s, &[2, 2]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
        let u = Tensor::from_shared(t.storage().clone(), &[4]);
        assert!(Arc::ptr_eq(t.storage(), u.storage()));
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Tensor::rand_uniform(&[4, 7], -1.0, 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_free_matmuls_match_composed() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Tensor::rand_uniform(&[6, 9], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[4, 9], -1.0, 1.0, &mut rng);
        let x = Tensor::rand_uniform(&[6, 4], -1.0, 1.0, &mut rng);
        assert_eq!(g.matmul_bt(&w), g.matmul(&w.transpose()));
        assert_eq!(x.matmul_at(&g), x.transpose().matmul(&g));
    }

    #[test]
    fn linear_fusion_matches_composed() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = Tensor::rand_uniform(&[5, 7], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[7, 3], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[3], -1.0, 1.0, &mut rng);
        let composed = x.matmul(&w);
        let composed = Tensor::from_storage(
            dance_backend::kernels::add_row_broadcast(composed.storage(), b.storage(), 5, 3),
            &[5, 3],
        );
        assert_eq!(x.linear(&w, &b, false), composed);
        assert_eq!(x.linear(&w, &b, true), composed.unary_op(UnaryOp::Relu));
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]);
        let s = t.softmax_rows();
        for i in 0..2 {
            let sum: f32 = (0..3).map(|j| s.at2(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.data().iter().all(|&x| x > 0.0));
    }

    #[test]
    fn softmax_rows_is_shift_invariant() {
        let t = Tensor::from_vec(vec![100.0, 101.0, 102.0], &[1, 3]);
        let u = Tensor::from_vec(vec![0.0, 1.0, 2.0], &[1, 3]);
        assert!(t.softmax_rows().approx_eq(&u.softmax_rows(), 1e-6));
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0], &[2, 3]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), &[2, 5]);
        assert_eq!(c.slice_cols(0, 2), a);
        assert_eq!(c.slice_cols(2, 3), b);
    }

    #[test]
    fn sum_rows_matches_manual() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.sum_rows().data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn dot_matches_mul_sum() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]);
        let b = Tensor::from_vec(vec![2.0, 0.25, -1.0, 4.0], &[4]);
        assert_eq!(a.dot(&b).to_bits(), a.mul(&b).sum().to_bits());
    }

    #[test]
    fn argmax_rows_picks_max() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(t.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn one_hot_has_single_one() {
        let t = Tensor::one_hot(2, 5);
        assert_eq!(t.sum(), 1.0);
        assert_eq!(t.data()[2], 1.0);
    }

    #[test]
    fn rand_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::rand_normal(&[10_000], 1.0, 2.0, &mut rng);
        assert!((t.mean() - 1.0).abs() < 0.1);
        let var = t.map(|x| (x - t.mean()).powi(2)).mean();
        assert!((var - 4.0).abs() < 0.3);
    }

    #[test]
    fn eye_is_identity_for_matmul() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::rand_uniform(&[5, 5], -2.0, 2.0, &mut rng);
        assert!(a.matmul(&Tensor::eye(5)).approx_eq(&a, 1e-6));
    }

    #[test]
    fn clone_shares_storage_and_mutation_is_cow() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(a.storage(), b.storage()), "clone must be O(1)");
        b.data_mut()[0] = 9.0;
        assert_eq!(
            a.data(),
            &[1.0, 2.0, 3.0],
            "CoW must not touch the original"
        );
        assert_eq!(b.data(), &[9.0, 2.0, 3.0]);
    }
}
