//! The compute kernels the tensor ops dispatch through.
//!
//! Each op has exactly one loop nest: an `*_into` body that computes a
//! contiguous range of output rows (or columns, elements or batches — the
//! op's partition axis) into a buffer holding exactly those rows. The
//! allocating functions ([`matmul`], [`linear`], …) hand that body to one
//! private `dispatch`:
//!
//! * below a fixed work threshold, or on a one-thread pool, the body runs
//!   inline over the full range into one arena-recycled [`Storage`] (see
//!   [`crate::storage`]);
//! * otherwise the rows split into chunks sized by the problem alone,
//!   the chunks run on the [`crate::pool`] under the op's `backend.<op>`
//!   telemetry span, and their buffers are spliced in chunk order.
//!
//! Frozen inference plans (`dance-plan`) call the public `*_into` bodies
//! directly over the full range, writing into preallocated buffers. The
//! shared handle type the tensor layer passes in is [`Data`]
//! (`Arc<Storage>`).
//!
//! **Determinism contract.** Chunk boundaries depend on the problem size
//! alone (never on the thread count), and every chunk runs the same body,
//! so each output element sees the same floating-point operations in the
//! same order as the inline run. Results are therefore *bit-identical* at
//! any `DANCE_THREADS` value — checkpoint digests, serve cache byte-replay
//! and seed-tuned test expectations are all preserved. The one
//! deliberately re-associated op is the full reduction [`sum`] (and its
//! inner-product sibling [`dot`]), which always folds fixed
//! [`SUM_CHUNK`]-sized blocks (so it too is identical across thread
//! counts, and coincides with the strict left-to-right sum below
//! [`SUM_CHUNK`] elements).
//!
//! **Fused kernels.** [`linear`] (matmul + row-broadcast bias + optional
//! ReLU), [`dw_conv1d_fwd`] with `relu`, and the transpose-free backward
//! products [`matmul_bt`] / [`matmul_at`] fold what used to be separate
//! tape nodes into one kernel pass. Each fused loop nest preserves the
//! exact per-element operation sequence of the ops it replaces (same
//! accumulation order, multiply-form ReLU masking), so fusion is
//! bit-invisible to digests and checkpoints.

use std::ops::Range;
use std::sync::Arc;

use crate::pool;
use crate::storage::Storage;

/// Shared tensor storage: kernels borrow it and clone the `Arc` (not the
/// data) into pool jobs.
pub type Data = Arc<Storage>;

/// Fixed block size for the chunked full reduction.
pub const SUM_CHUNK: usize = 65_536;

/// Minimum per-kernel work (output elements × inner length) before a
/// parallel dispatch pays for itself; below it the body runs inline.
const PAR_MIN_WORK: usize = 32_768;

/// Target work units per chunk. Chunk counts derive from this and the
/// problem size only — never from the thread count.
const GRAIN: usize = 16_384;

/// Element-wise unary operations (enumerated so jobs stay `'static`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `max(x, 0)`.
    Relu,
    /// `1` where `x > 0`, else `0` (the ReLU gradient mask).
    ReluMask,
    /// Logistic sigmoid.
    Sigmoid,
    /// `y·(1−y)` applied to a sigmoid *output*.
    SigmoidGrad,
    /// Hyperbolic tangent.
    Tanh,
    /// `1−y²` applied to a tanh *output*.
    TanhGrad,
    /// `exp(x)`.
    Exp,
    /// `ln(max(x, 1e-12))` — the clamped log the autograd ops use.
    LnClamped,
    /// `1 / max(x, 1e-12)` — the clamped-log gradient.
    LnGradClamped,
    /// `ln(max(x, c))` — floored log with a caller-chosen floor (the
    /// `log_softmax` path floors at `1e-20`, distinct from [`UnaryOp::LnClamped`]).
    LnFloor(f32),
    /// `1 / x` — exact reciprocal (the `div` gradient).
    Recip,
    /// `−1 / x²` — the div-backward denominator factor.
    NegRecipSq,
    /// `sqrt(x) + c` — the Adam denominator.
    SqrtAdd(f32),
    /// `1 / max(|x|, c) · sign(x)` — the signed clamped reciprocal the MSRE
    /// loss uses.
    RecipSignedClamped(f32),
    /// `x·c`.
    Scale(f32),
    /// `x + c`.
    AddScalar(f32),
}

impl UnaryOp {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::ReluMask => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::SigmoidGrad => x * (1.0 - x),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::TanhGrad => 1.0 - x * x,
            UnaryOp::Exp => x.exp(),
            UnaryOp::LnClamped => x.max(1e-12).ln(),
            UnaryOp::LnGradClamped => 1.0 / x.max(1e-12),
            UnaryOp::LnFloor(c) => x.max(c).ln(),
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::NegRecipSq => -1.0 / (x * x),
            UnaryOp::SqrtAdd(c) => x.sqrt() + c,
            UnaryOp::RecipSignedClamped(c) => 1.0 / x.abs().max(c) * x.signum(),
            UnaryOp::Scale(c) => x * c,
            UnaryOp::AddScalar(c) => x + c,
        }
    }
}

/// Element-wise binary operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinaryOp {
    /// `a + b`.
    Add,
    /// `a − b`.
    Sub,
    /// `a · b`.
    Mul,
    /// `a / b`.
    Div,
    /// `a + b·c` (fused accumulate used by mixture ops).
    AddScaled(f32),
    /// `a · (b > 0 ? 1 : 0)` — the fused ReLU backward mask-multiply.
    /// Kept in multiply form (never a branch select on `a`) so NaN/inf and
    /// signed-zero bits match the historical mask-then-multiply sequence.
    MaskMul,
}

impl BinaryOp {
    #[inline]
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::AddScaled(c) => a + b * c,
            BinaryOp::MaskMul => a * if b > 0.0 { 1.0 } else { 0.0 },
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

/// Splits `rows` output rows of `row_work` work units each into chunk
/// ranges of roughly [`GRAIN`] work, independent of the thread count.
fn row_chunks(rows: usize, row_work: usize) -> (usize, usize) {
    let per_chunk = (GRAIN / row_work.max(1)).max(1);
    (rows.div_ceil(per_chunk), per_chunk)
}

/// Whether a kernel of `total_work` units should dispatch in parallel.
fn parallel_worthwhile(total_work: usize) -> bool {
    total_work >= PAR_MIN_WORK && pool::threads() > 1
}

/// Runs an op's loop nest over `rows` output rows of `row_len` elements
/// and `row_work` work units each. `body(range, out)` writes rows `range`
/// into `out`, a buffer of exactly those rows.
///
/// Small problems (or a one-thread pool) run the body inline over the full
/// range into one arena buffer. Larger ones run [`row_chunks`] on the pool,
/// each chunk into its own buffer, spliced in chunk order; `span` names the
/// op's `backend.<op>` span around that pooled run. An op built from two
/// dispatches passes `None` and opens its one span itself.
fn dispatch<F>(
    span: Option<&'static str>,
    rows: usize,
    row_work: usize,
    row_len: usize,
    body: F,
) -> Storage
where
    F: Fn(Range<usize>, &mut [f32]) + Send + Sync + 'static,
{
    if !parallel_worthwhile(rows * row_work) {
        let mut out = Storage::uninit(rows * row_len);
        body(0..rows, &mut out);
        return out;
    }
    let _span = span.map(|name| dance_telemetry::hot_span!(name));
    let (n_chunks, per_chunk) = row_chunks(rows, row_work);
    let parts = pool::run(n_chunks, move |i| {
        let range = i * per_chunk..((i + 1) * per_chunk).min(rows);
        let mut part = vec![0.0f32; range.len() * row_len];
        body(range, &mut part);
        part
    });
    let mut out = Storage::uninit(rows * row_len);
    let mut off = 0;
    for p in parts {
        out[off..off + p.len()].copy_from_slice(&p);
        off += p.len();
    }
    debug_assert_eq!(off, rows * row_len, "kernel chunks must cover the output");
    out
}

// ---------------------------------------------------------------------------
// Ops. Each allocating function hands its op's one `*_into` body to
// `dispatch`; every body computes the stated range of the output with
// per-element accumulation order identical to the original code.
// ---------------------------------------------------------------------------

/// `[m, k] × [k, n] → [m, n]` matrix product.
pub fn matmul(a: &Data, b: &Data, m: usize, k: usize, n: usize) -> Storage {
    let (a, b) = (a.clone(), b.clone());
    dispatch(Some("backend.matmul"), m, k * n, n, move |rows, out| {
        matmul_into(&a, &b, k, n, rows, out);
    })
}

/// Rows `rows` of `a × b` (`a` is `[·, k]`, `b` is `[k, n]`) into `out`.
pub fn matmul_into(a: &[f32], b: &[f32], k: usize, n: usize, rows: Range<usize>, out: &mut [f32]) {
    out.fill(0.0);
    for (local, i) in rows.enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut out[local * n..(local + 1) * n];
        // Register-block four `p` steps per pass over `c_row`: each output
        // element still accumulates its terms in ascending-`p` order
        // (`(((c+t₀)+t₁)+t₂)+t₃` is the same chain the scalar loop builds),
        // but the row is loaded/stored once per four terms instead of once
        // per term, and the branch-free body vectorizes. The historical
        // exact-zero skip on `a[i, p]` is gone: with finite operands,
        // adding `0·b` terms is a bit-level no-op (`±0.0` cannot move a
        // partial sum, which is never `-0.0` mid-chain under
        // round-to-nearest), and the dense unrolled loop beats the skip
        // even on the ~50%-sparse ReLU-masked gradients it was built for.
        let mut p = 0;
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            let b0 = &b[p * n..][..n];
            let b1 = &b[(p + 1) * n..][..n];
            let b2 = &b[(p + 2) * n..][..n];
            let b3 = &b[(p + 3) * n..][..n];
            for j in 0..n {
                c_row[j] = (((c_row[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
            }
            p += 4;
        }
        for (q, &av) in a_row[p..].iter().enumerate() {
            let b_row = &b[(p + q) * n..][..n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += av * bv;
            }
        }
    }
}

/// Fused `x × w + bias` (and `max(·, 0)` when `relu`) over
/// `[m, k] × [k, n]`: one pass instead of two or three tape nodes.
/// Bit-identical to `matmul` → `add_row_broadcast` (→ `relu`).
#[allow(clippy::too_many_arguments)]
pub fn linear(
    x: &Data,
    w: &Data,
    bias: &Data,
    m: usize,
    k: usize,
    n: usize,
    relu: bool,
) -> Storage {
    let (x, w, bias) = (x.clone(), w.clone(), bias.clone());
    dispatch(Some("backend.linear"), m, k * n, n, move |rows, out| {
        linear_into(&x, &w, &bias, k, n, relu, rows, out);
    })
}

/// Rows `rows` of [`linear`] into `out`: the bias/activation pass runs per
/// row right after that row's accumulation, element order identical to
/// the historical matmul → add_row_broadcast → relu sequence.
#[allow(clippy::too_many_arguments)]
pub fn linear_into(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    k: usize,
    n: usize,
    relu: bool,
    rows: Range<usize>,
    out: &mut [f32],
) {
    matmul_into(x, w, k, n, rows.clone(), out);
    for local in 0..rows.len() {
        let o_row = &mut out[local * n..(local + 1) * n];
        if relu {
            for (o, &bv) in o_row.iter_mut().zip(bias.iter()) {
                *o = (*o + bv).max(0.0);
            }
        } else {
            for (o, &bv) in o_row.iter_mut().zip(bias.iter()) {
                *o += bv;
            }
        }
    }
}

/// `g × wᵀ` without materializing the transpose:
/// `[m, n] × [kdim, n]ᵀ → [m, kdim]`. Bit-identical to
/// `matmul(g, transpose(w))` (same accumulation order).
pub fn matmul_bt(g: &Data, w: &Data, m: usize, n: usize, kdim: usize) -> Storage {
    let (g, w) = (g.clone(), w.clone());
    dispatch(
        Some("backend.matmul_bt"),
        m,
        n * kdim,
        kdim,
        move |rows, out| {
            matmul_bt_into(&g, &w, n, kdim, rows, out);
        },
    )
}

/// Rows `rows` of `g × wᵀ`: per output row `i`, terms arrive in ascending
/// `j` — the same order the historical `matmul(g, transpose(w))` produced.
fn matmul_bt_into(
    g: &[f32],
    w: &[f32],
    n: usize,
    kdim: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    // Materializing `wᵀ` (tiny: k×n weights) turns the stride-`n` column
    // gather into contiguous row reads, after which this *is*
    // `matmul(g, wᵀ)` — the very identity this kernel's bit-exactness
    // contract is stated against.
    let mut wt = Storage::uninit(n * kdim);
    transpose_into(w, kdim, n, 0..n, &mut wt);
    matmul_into(g, &wt, n, kdim, rows, out);
}

/// `xᵀ × g` without materializing the transpose:
/// `[m, kdim]ᵀ × [m, n] → [kdim, n]`. Bit-identical to
/// `matmul(transpose(x), g)`.
pub fn matmul_at(x: &Data, g: &Data, m: usize, kdim: usize, n: usize) -> Storage {
    let (x, g) = (x.clone(), g.clone());
    dispatch(
        Some("backend.matmul_at"),
        kdim,
        m * n,
        n,
        move |rows, out| {
            matmul_at_into(&x, &g, m, kdim, n, rows, out);
        },
    )
}

/// Rows `rows` of `xᵀ × g` (each a column of `x`), iterating `p`
/// ascending — the same term order the historical
/// `matmul(transpose(x), g)` produced, with contiguous reads of `g` and
/// writes of `out`.
fn matmul_at_into(
    x: &[f32],
    g: &[f32],
    m: usize,
    kdim: usize,
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    // Gathering the requested columns of `x` into contiguous rows turns
    // the stride-`kdim` walk into sequential reads, after which this *is*
    // `matmul(xᵀ, g)` restricted to those rows — same ascending-`p` term
    // order, so bit-identical. Only the chunk's own rows are transposed,
    // so parallel callers do no duplicate work.
    let mut xt = Storage::uninit(rows.len() * m);
    transpose_into(x, m, kdim, rows.clone(), &mut xt);
    matmul_into(&xt, g, m, n, 0..rows.len(), out);
}

/// Transpose of an `[m, n]` matrix.
pub fn transpose(a: &Data, m: usize, n: usize) -> Storage {
    let a = a.clone();
    dispatch(Some("backend.transpose"), n, m, m, move |cols, out| {
        transpose_into(&a, m, n, cols, out);
    })
}

/// Columns `cols` of an `[m, n]` matrix, each written as one output row.
fn transpose_into(a: &[f32], m: usize, n: usize, cols: Range<usize>, out: &mut [f32]) {
    for (local, j) in cols.enumerate() {
        for i in 0..m {
            out[local * m + i] = a[i * n + j];
        }
    }
}

/// Element-wise unary map.
pub fn unary(a: &Data, op: UnaryOp) -> Storage {
    let (len, a) = (a.len(), a.clone());
    dispatch(Some("backend.unary"), len, 1, 1, move |range, out| {
        unary_into(&a, op, range, out);
    })
}

/// Elements `range` of the unary map into `out`.
pub fn unary_into(a: &[f32], op: UnaryOp, range: Range<usize>, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(a[range].iter()) {
        *o = op.apply(x);
    }
}

/// Element-wise binary combination of equal-length data.
pub fn binary(a: &Data, b: &Data, op: BinaryOp) -> Storage {
    let (len, a, b) = (a.len(), a.clone(), b.clone());
    dispatch(Some("backend.binary"), len, 1, 1, move |range, out| {
        binary_into(&a, &b, op, range, out);
    })
}

/// Elements `range` of the binary combination into `out`.
pub fn binary_into(a: &[f32], b: &[f32], op: BinaryOp, range: Range<usize>, out: &mut [f32]) {
    for ((o, &x), &y) in out
        .iter_mut()
        .zip(a[range.clone()].iter())
        .zip(b[range].iter())
    {
        *o = op.apply(x, y);
    }
}

/// Full reduction: strict left-to-right inside each [`SUM_CHUNK`] block,
/// blocks combined in order — equal to the plain sequential sum whenever
/// `a.len() <= SUM_CHUNK`, and identical at any thread count.
pub fn sum(a: &Data) -> f32 {
    let len = a.len();
    if len <= SUM_CHUNK {
        return a.iter().sum();
    }
    if !parallel_worthwhile(len) {
        return a.chunks(SUM_CHUNK).map(|c| c.iter().sum::<f32>()).sum();
    }
    let _span = dance_telemetry::hot_span!("backend.sum");
    let a = a.clone();
    let partials = pool::run(len.div_ceil(SUM_CHUNK), move |i| {
        a[i * SUM_CHUNK..((i + 1) * SUM_CHUNK).min(len)]
            .iter()
            .sum::<f32>()
    });
    partials.iter().sum()
}

/// Inner product with the same fixed-block association as [`sum`] over the
/// element-wise products — bit-identical to `sum(binary(a, b, Mul))`
/// without the intermediate buffer.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() <= SUM_CHUNK {
        return a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
    }
    a.chunks(SUM_CHUNK)
        .zip(b.chunks(SUM_CHUNK))
        .map(|(ca, cb)| ca.iter().zip(cb.iter()).map(|(&x, &y)| x * y).sum::<f32>())
        .sum()
}

/// Column sums of an `[m, n]` matrix → `[n]`.
pub fn sum_rows(a: &Data, m: usize, n: usize) -> Storage {
    let a = a.clone();
    dispatch(Some("backend.sum_rows"), n, m, 1, move |cols, out| {
        sum_rows_into(&a, m, n, cols, out);
    })
}

/// Sums of columns `cols`, accumulated in ascending row order.
fn sum_rows_into(a: &[f32], m: usize, n: usize, cols: Range<usize>, out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..m {
        for (local, j) in cols.clone().enumerate() {
            out[local] += a[i * n + j];
        }
    }
}

/// Row-wise numerically stable softmax of an `[m, n]` matrix.
pub fn softmax_rows(a: &Data, m: usize, n: usize) -> Storage {
    let a = a.clone();
    dispatch(Some("backend.softmax_rows"), m, n, n, move |rows, out| {
        softmax_rows_into(&a, n, rows, out);
    })
}

/// Rows `rows` of the row-wise softmax (`n` columns) into `out`.
pub fn softmax_rows_into(a: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let row = &a[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for j in 0..n {
            let e = (row[j] - max).exp();
            out[local * n + j] = e;
            denom += e;
        }
        for v in &mut out[local * n..(local + 1) * n] {
            *v /= denom;
        }
    }
}

/// `out[i, j] = x[i, j] + bias[j]` over an `[m, n]` matrix.
pub fn add_row_broadcast(x: &Data, bias: &Data, m: usize, n: usize) -> Storage {
    let (x, bias) = (x.clone(), bias.clone());
    dispatch(
        Some("backend.add_row_broadcast"),
        m,
        n,
        n,
        move |rows, out| {
            add_row_broadcast_into(&x, &bias, n, rows, out);
        },
    )
}

/// Rows `rows` of [`add_row_broadcast`] into `out`.
pub fn add_row_broadcast_into(
    x: &[f32],
    bias: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    for (local, i) in rows.enumerate() {
        for j in 0..n {
            out[local * n + j] = x[i * n + j] + bias[j];
        }
    }
}

/// `out[i, j] = x[i, j] · scale[j]` over an `[m, n]` matrix.
pub fn mul_row_broadcast(x: &Data, scale: &Data, m: usize, n: usize) -> Storage {
    let (x, scale) = (x.clone(), scale.clone());
    dispatch(
        Some("backend.mul_row_broadcast"),
        m,
        n,
        n,
        move |rows, out| {
            mul_row_broadcast_into(&x, &scale, n, rows, out);
        },
    )
}

/// Rows `rows` of [`mul_row_broadcast`] into `out`.
pub fn mul_row_broadcast_into(
    x: &[f32],
    scale: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    for (local, i) in rows.enumerate() {
        for j in 0..n {
            out[local * n + j] = x[i * n + j] * scale[j];
        }
    }
}

/// Depthwise conv forward ("same" padding, odd `kw`):
/// `[B, C, L] × [C, Kw] → [B, C, L]`, with `max(·, 0)` fused in when
/// `relu` — bit-identical to the conv followed by a separate ReLU.
#[allow(clippy::too_many_arguments)]
pub fn dw_conv1d_fwd(
    x: &Data,
    w: &Data,
    bsz: usize,
    c: usize,
    l: usize,
    kw: usize,
    relu: bool,
) -> Storage {
    let span = if relu {
        "backend.dw_conv1d_relu_fwd"
    } else {
        "backend.dw_conv1d_fwd"
    };
    let (x, w) = (x.clone(), w.clone());
    dispatch(Some(span), bsz * c, l * kw, l, move |rows, out| {
        dw_conv1d_fwd_into(&x, &w, c, l, kw, relu, rows, out);
    })
}

/// Depthwise forward over flattened rows `r = b·C + ci` (contiguous
/// output); `relu` folds the `max(·, 0)` into the store, matching a
/// separate ReLU pass bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn dw_conv1d_fwd_into(
    x: &[f32],
    w: &[f32],
    c: usize,
    l: usize,
    kw: usize,
    relu: bool,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let pad = kw / 2;
    for (local, r) in rows.enumerate() {
        let ci = r % c;
        let x_row = &x[r * l..(r + 1) * l];
        let w_row = &w[ci * kw..(ci + 1) * kw];
        let o_row = &mut out[local * l..(local + 1) * l];
        // Tap-outer form: each kernel tap is one contiguous shifted SAXPY
        // over the row instead of a per-element boundary branch. Every
        // output element still sums its valid taps in ascending-`j` order
        // (taps out of range simply never touch that element), and folding
        // the ReLU into a trailing pass applies `max(·, 0)` to the same
        // accumulated value the per-element form produced.
        o_row.fill(0.0);
        for (j, &wv) in w_row.iter().enumerate() {
            if j >= pad {
                let off = j - pad; // reads x_row[li + off]
                if off >= l {
                    continue; // tap falls wholly outside a very short row
                }
                for (o, &xv) in o_row[..l - off].iter_mut().zip(x_row[off..].iter()) {
                    *o += wv * xv;
                }
            } else {
                let off = pad - j; // reads x_row[li - off], li >= off
                if off >= l {
                    continue;
                }
                for (o, &xv) in o_row[off..].iter_mut().zip(x_row[..l - off].iter()) {
                    *o += wv * xv;
                }
            }
        }
        if relu {
            for o in o_row.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
}

/// Depthwise conv backward: returns `(dx, dw)`.
#[allow(clippy::too_many_arguments)]
pub fn dw_conv1d_bwd(
    x: &Data,
    w: &Data,
    g: &Data,
    bsz: usize,
    c: usize,
    l: usize,
    kw: usize,
) -> (Storage, Storage) {
    // Both halves do the same total work, so they take the same inline or
    // pooled path; one span times the pair.
    let _span = parallel_worthwhile(bsz * c * l * kw)
        .then(|| dance_telemetry::hot_span!("backend.dw_conv1d_bwd"));
    let (wd, gd) = (w.clone(), g.clone());
    let dx = dispatch(None, bsz * c, l * kw, l, move |rows, dx| {
        dw_bwd_dx_into(&wd, &gd, c, l, kw, rows, dx);
    });
    let (x, g) = (x.clone(), g.clone());
    let dw = dispatch(None, c, bsz * l * kw, kw, move |cis, dw| {
        dw_bwd_dw_into(&x, &g, bsz, c, l, kw, cis, dw);
    });
    (dx, dw)
}

/// Depthwise backward, input half: `dx` rows `r = b·C + ci` (contiguous).
/// A depthwise `dx[b, ci]` row only receives contributions from the matching
/// `g[b, ci]` row, in the original `(li, j)` order.
fn dw_bwd_dx_into(
    w: &[f32],
    g: &[f32],
    c: usize,
    l: usize,
    kw: usize,
    rows: Range<usize>,
    dx: &mut [f32],
) {
    let pad = kw / 2;
    dx.fill(0.0);
    for (local, r) in rows.enumerate() {
        let ci = r % c;
        let g_row = &g[r * l..(r + 1) * l];
        let w_row = &w[ci * kw..(ci + 1) * kw];
        let d_row = &mut dx[local * l..(local + 1) * l];
        // Tap-outer form of the scatter: `dx[li + j - pad] += g[li]·w[j]`
        // becomes one shifted SAXPY per tap. Each `dx` element's terms come
        // from ascending `li`, which is *descending* `j` — so the taps run
        // in reverse to keep the accumulation chain identical to the
        // per-element original. The historical `g[li] == 0` skip is gone:
        // with finite weights, adding `0·w` to a running sum is a bit-level
        // no-op (a partial sum can never be `-0.0` mid-chain), and the
        // branch-free loop vectorizes where the skip could not.
        for j in (0..kw).rev() {
            let wv = w_row[j];
            if j >= pad {
                let off = j - pad; // writes d_row[li + off], reads g_row[li]
                if off >= l {
                    continue;
                }
                for (o, &gv) in d_row[off..].iter_mut().zip(g_row[..l - off].iter()) {
                    *o += gv * wv;
                }
            } else {
                let off = pad - j;
                if off >= l {
                    continue;
                }
                for (o, &gv) in d_row[..l - off].iter_mut().zip(g_row[off..].iter()) {
                    *o += gv * wv;
                }
            }
        }
    }
}

/// Depthwise backward, weight half: `dw[ci, :]` for channels in the range,
/// accumulated in the original `(b, li, j)` order restricted to each `ci`.
#[allow(clippy::too_many_arguments)]
fn dw_bwd_dw_into(
    x: &[f32],
    g: &[f32],
    bsz: usize,
    c: usize,
    l: usize,
    kw: usize,
    cis: Range<usize>,
    dw: &mut [f32],
) {
    let pad = kw / 2;
    dw.fill(0.0);
    for (local, ci) in cis.enumerate() {
        for b in 0..bsz {
            let base = (b * c + ci) * l;
            let g_row = &g[base..base + l];
            let x_row = &x[base..base + l];
            // Tap-outer form: `dw[j]` is the dot of `g` with `x` shifted by
            // `j - pad`. Each tap's terms run over ascending `li` — exactly
            // the order the per-element original fed `dw[j]` — and the
            // `(b, li)` outer order is preserved by accumulating per batch.
            // The historical `g[li] == 0` skip is dropped on the same
            // finite-weight grounds as `dw_bwd_dx_into`: `0·x` terms
            // cannot move a running sum at the bit level.
            for (j, dwj) in dw[local * kw..(local + 1) * kw].iter_mut().enumerate() {
                let (gs, xs) = if j >= pad {
                    let off = j - pad; // pairs g_row[li] with x_row[li + off]
                    if off >= l {
                        continue;
                    }
                    (&g_row[..l - off], &x_row[off..])
                } else {
                    let off = pad - j;
                    if off >= l {
                        continue;
                    }
                    (&g_row[off..], &x_row[..l - off])
                };
                let mut acc = *dwj;
                for (&gv, &xv) in gs.iter().zip(xs.iter()) {
                    acc += gv * xv;
                }
                *dwj = acc;
            }
        }
    }
}

/// `[B, C, L] → [B·L, C]` permutation.
pub fn to_channels_last(x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
    let x = x.clone();
    dispatch(
        Some("backend.to_channels_last"),
        bsz,
        c * l,
        c * l,
        move |bs, out| {
            to_channels_last_into(&x, c, l, bs, out);
        },
    )
}

/// Batches `batches` of the `[B, C, L] → [B·L, C]` permutation into `out`.
pub fn to_channels_last_into(
    x: &[f32],
    c: usize,
    l: usize,
    batches: Range<usize>,
    out: &mut [f32],
) {
    for (local, b) in batches.enumerate() {
        for ci in 0..c {
            for li in 0..l {
                out[(local * l + li) * c + ci] = x[(b * c + ci) * l + li];
            }
        }
    }
}

/// `[B·L, C] → [B, C, L]` permutation.
pub fn from_channels_last(x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
    let x = x.clone();
    dispatch(
        Some("backend.from_channels_last"),
        bsz,
        c * l,
        c * l,
        move |bs, out| {
            from_channels_last_into(&x, c, l, bs, out);
        },
    )
}

/// Batches `batches` of the `[B·L, C] → [B, C, L]` permutation into `out`.
pub fn from_channels_last_into(
    x: &[f32],
    c: usize,
    l: usize,
    batches: Range<usize>,
    out: &mut [f32],
) {
    for (local, b) in batches.enumerate() {
        for ci in 0..c {
            for li in 0..l {
                out[(local * c + ci) * l + li] = x[(b * l + li) * c + ci];
            }
        }
    }
}
