//! Property tests pinning the backend determinism contract: every kernel
//! gives **exactly** (bit-for-bit) the same result with the pool one
//! thread wide — the op's body run inline over the full range, the
//! reference — and eight threads wide, where any problem past the
//! parallel threshold splits into chunks on the pool.
//!
//! Sizes are drawn to straddle the dispatch threshold so both the inline
//! and the pooled paths are exercised; values include exact zeros, and
//! results are compared as bit patterns so NaN, infinities and signed
//! zeros count too.

use std::sync::{Arc, Mutex, PoisonError};

use dance_backend::kernels::{self, BinaryOp, Data, UnaryOp};
use dance_backend::Storage;
use proptest::prelude::*;

/// Serializes every pool-width flip in this file (the width is
/// process-global and the proptests run on parallel test threads).
static WIDTH: Mutex<()> = Mutex::new(());

/// Runs `f` with the pool `n` threads wide, holding [`WIDTH`] from the
/// flip through the run so no other test can change the width in between.
fn with_width<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let _guard = WIDTH.lock().unwrap_or_else(PoisonError::into_inner);
    dance_backend::set_threads(n);
    f()
}

/// `f` at width 1 (the inline reference) and at width 8 (pooled chunks).
fn at_widths<T>(f: impl Fn() -> T) -> (T, T) {
    (with_width(1, &f), with_width(8, &f))
}

/// Bit patterns of a result, so the comparison is exact *and* total.
fn bits(s: &[f32]) -> Vec<u32> {
    s.iter().map(|v| v.to_bits()).collect()
}

/// Bit patterns of a kernel result at width 1 and at width 8.
fn bits_at_widths(f: impl Fn() -> Storage) -> (Vec<u32>, Vec<u32>) {
    let (reference, pooled) = at_widths(f);
    (bits(&reference), bits(&pooled))
}

/// Values in ±2 with a fat spike of exact zeros.
fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, len).prop_map(|v| {
        v.into_iter()
            .map(|x| if x.abs() < 0.25 { 0.0 } else { x })
            .collect()
    })
}

/// Adopts a plain `Vec` — deliberately the *unaligned, non-arena* layout, so
/// every proptest also exercises legacy-vec inputs against aligned outputs.
fn data(v: Vec<f32>) -> Data {
    Arc::new(Storage::from_vec(v))
}

/// Copies into an aligned, arena-backed buffer.
fn aligned(v: &[f32]) -> Data {
    Arc::new(Storage::from_slice(v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_matmul_parallel_equals_scalar(
        m in 16usize..64,
        k in 8usize..40,
        n in 8usize..40,
        seed in 0u64..1000,
    ) {
        let a = data(values(m * k).sample_value(&mut proptest::test_rng(&format!("mm-a-{seed}"))));
        let b = data(values(k * n).sample_value(&mut proptest::test_rng(&format!("mm-b-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::matmul(&a, &b, m, k, n));
        prop_assert_eq!(s, p);
    }

    #[test]
    fn prop_transpose_parallel_equals_scalar(
        m in 1usize..300,
        n in 1usize..300,
        seed in 0u64..1000,
    ) {
        let a = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("tr-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::transpose(&a, m, n));
        prop_assert_eq!(s, p);
    }

    #[test]
    fn prop_unary_parallel_equals_scalar(
        len in 1usize..120_000,
        which in 0usize..16,
        seed in 0u64..1000,
    ) {
        let ops = [
            UnaryOp::Relu,
            UnaryOp::ReluMask,
            UnaryOp::Sigmoid,
            UnaryOp::SigmoidGrad,
            UnaryOp::Tanh,
            UnaryOp::TanhGrad,
            UnaryOp::Exp,
            UnaryOp::LnClamped,
            UnaryOp::LnGradClamped,
            UnaryOp::Scale(-1.75),
            UnaryOp::AddScalar(0.5),
            UnaryOp::LnFloor(1e-20),
            UnaryOp::Recip,
            UnaryOp::SqrtAdd(1e-8),
            UnaryOp::RecipSignedClamped(1e-9),
            UnaryOp::NegRecipSq,
        ];
        let op = ops[which];
        // Recip of exact zeros produces inf/NaN bits.
        let a = data(values(len).sample_value(&mut proptest::test_rng(&format!("un-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::unary(&a, op));
        prop_assert_eq!(&s, &p);
        // Aligned, arena-backed inputs produce the same bits as the
        // adopted-Vec legacy layout.
        let al = aligned(&a);
        prop_assert_eq!(s, bits(&with_width(1, || kernels::unary(&al, op))));
    }

    #[test]
    fn prop_binary_parallel_equals_scalar(
        len in 1usize..120_000,
        which in 0usize..6,
        seed in 0u64..1000,
    ) {
        let ops = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::AddScaled(0.37),
            BinaryOp::MaskMul,
        ];
        let op = ops[which];
        // Div of exact zeros produces NaN bits.
        let a = data(values(len).sample_value(&mut proptest::test_rng(&format!("bi-a-{seed}"))));
        let b = data(values(len).sample_value(&mut proptest::test_rng(&format!("bi-b-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::binary(&a, &b, op));
        prop_assert_eq!(&s, &p);
        let (al, bl) = (aligned(&a), aligned(&b));
        prop_assert_eq!(s, bits(&with_width(1, || kernels::binary(&al, &bl, op))));
    }

    #[test]
    fn prop_sum_parallel_equals_scalar(
        len in 1usize..200_000,
        seed in 0u64..1000,
    ) {
        let a = data(values(len).sample_value(&mut proptest::test_rng(&format!("sum-{seed}"))));
        let (s, p) = at_widths(|| kernels::sum(&a));
        prop_assert_eq!(s.to_bits(), p.to_bits());
    }

    #[test]
    fn prop_sum_rows_parallel_equals_scalar(
        m in 1usize..200,
        n in 1usize..400,
        seed in 0u64..1000,
    ) {
        let a = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("sr-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::sum_rows(&a, m, n));
        prop_assert_eq!(s, p);
    }

    #[test]
    fn prop_softmax_rows_parallel_equals_scalar(
        m in 1usize..600,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        let a = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("sm-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::softmax_rows(&a, m, n));
        prop_assert_eq!(s, p);
    }

    #[test]
    fn prop_row_broadcasts_parallel_equal_scalar(
        m in 1usize..500,
        n in 1usize..120,
        seed in 0u64..1000,
    ) {
        let x = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("rb-x-{seed}"))));
        let r = data(values(n).sample_value(&mut proptest::test_rng(&format!("rb-r-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::add_row_broadcast(&x, &r, m, n));
        prop_assert_eq!(s, p);
        let (s, p) = bits_at_widths(|| kernels::mul_row_broadcast(&x, &r, m, n));
        prop_assert_eq!(s, p);
    }

    #[test]
    fn prop_dw_conv1d_parallel_equals_scalar(
        bsz in 1usize..6,
        c in 4usize..32,
        l in 16usize..128,
        kw_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let kw = [3, 5, 7][kw_idx];
        let x = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("dw-x-{seed}"))));
        let w = data(values(c * kw).sample_value(&mut proptest::test_rng(&format!("dw-w-{seed}"))));
        let g = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("dw-g-{seed}"))));
        let (s, p) = bits_at_widths(|| kernels::dw_conv1d_fwd(&x, &w, bsz, c, l, kw, false));
        prop_assert_eq!(s, p);
        let ((sdx, sdw), (pdx, pdw)) = at_widths(|| kernels::dw_conv1d_bwd(&x, &w, &g, bsz, c, l, kw));
        prop_assert_eq!(bits(&sdx), bits(&pdx));
        prop_assert_eq!(bits(&sdw), bits(&pdw));
    }

    #[test]
    fn prop_channel_permutes_parallel_equal_scalar_and_invert(
        bsz in 1usize..8,
        c in 1usize..32,
        l in 1usize..256,
        seed in 0u64..1000,
    ) {
        let x = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("cl-{seed}"))));
        let (s_cl, p_cl) = at_widths(|| kernels::to_channels_last(&x, bsz, c, l));
        prop_assert_eq!(bits(&s_cl), bits(&p_cl));
        let p_cl = Arc::new(p_cl);
        let back = with_width(8, || kernels::from_channels_last(&p_cl, bsz, c, l));
        prop_assert_eq!(bits(&back), bits(&x));
        let (s, p) = bits_at_widths(|| kernels::from_channels_last(&x, bsz, l, c));
        prop_assert_eq!(s, p);
    }

    /// `matmul_bt`/`matmul_at` are bit-identical to materializing the
    /// transpose and calling plain `matmul` — the contract that lets the
    /// backward pass drop its transpose allocations.
    #[test]
    fn prop_transpose_free_matmuls_equal_composed(
        m in 4usize..48,
        k in 4usize..40,
        n in 4usize..40,
        seed in 0u64..1000,
    ) {
        let g = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("tf-g-{seed}"))));
        let w = data(values(k * n).sample_value(&mut proptest::test_rng(&format!("tf-w-{seed}"))));
        let x = data(values(m * k).sample_value(&mut proptest::test_rng(&format!("tf-x-{seed}"))));
        let (bt, at) = with_width(1, || {
            let wt = Arc::new(kernels::transpose(&w, k, n));
            let xt = Arc::new(kernels::transpose(&x, m, k));
            (
                bits(&kernels::matmul(&g, &wt, m, n, k)),
                bits(&kernels::matmul(&xt, &g, k, m, n)),
            )
        });
        let (s, p) = bits_at_widths(|| kernels::matmul_bt(&g, &w, m, n, k));
        prop_assert_eq!(&s, &bt);
        prop_assert_eq!(&p, &bt);
        let (s, p) = bits_at_widths(|| kernels::matmul_at(&x, &g, m, k, n));
        prop_assert_eq!(&s, &at);
        prop_assert_eq!(&p, &at);
    }

    /// Fused `linear` is bit-identical to matmul → add_row_broadcast → relu.
    #[test]
    fn prop_linear_fusion_equals_composed(
        m in 4usize..48,
        k in 4usize..40,
        n in 4usize..40,
        relu_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        let relu = relu_sel == 1;
        let x = data(values(m * k).sample_value(&mut proptest::test_rng(&format!("ln-x-{seed}"))));
        let w = data(values(k * n).sample_value(&mut proptest::test_rng(&format!("ln-w-{seed}"))));
        let bias = data(values(n).sample_value(&mut proptest::test_rng(&format!("ln-b-{seed}"))));
        let expect = with_width(1, || {
            let mm = Arc::new(kernels::matmul(&x, &w, m, k, n));
            let biased = Arc::new(kernels::add_row_broadcast(&mm, &bias, m, n));
            if relu {
                bits(&kernels::unary(&biased, UnaryOp::Relu))
            } else {
                bits(&biased)
            }
        });
        let (s, p) = bits_at_widths(|| kernels::linear(&x, &w, &bias, m, k, n, relu));
        prop_assert_eq!(&s, &expect);
        prop_assert_eq!(&p, &expect);
    }

    /// Fused depthwise-conv + ReLU is bit-identical to conv → relu, and
    /// `dot` is bit-identical to summing the element-wise products.
    #[test]
    fn prop_dw_relu_and_dot_fusions_equal_composed(
        bsz in 1usize..5,
        c in 4usize..24,
        l in 16usize..96,
        kw_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let kw = [3, 5, 7][kw_idx];
        let x = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("dr-x-{seed}"))));
        let w = data(values(c * kw).sample_value(&mut proptest::test_rng(&format!("dr-w-{seed}"))));
        let expect = with_width(1, || {
            let conv = Arc::new(kernels::dw_conv1d_fwd(&x, &w, bsz, c, l, kw, false));
            bits(&kernels::unary(&conv, UnaryOp::Relu))
        });
        let (s, p) = bits_at_widths(|| kernels::dw_conv1d_fwd(&x, &w, bsz, c, l, kw, true));
        prop_assert_eq!(&s, &expect);
        prop_assert_eq!(&p, &expect);

        let a = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("dot-a-{seed}"))));
        let b = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("dot-b-{seed}"))));
        let expect = with_width(1, || {
            kernels::sum(&Arc::new(kernels::binary(&a, &b, BinaryOp::Mul))).to_bits()
        });
        let (s, p) = at_widths(|| kernels::dot(&a, &b).to_bits());
        prop_assert_eq!(s, expect);
        prop_assert_eq!(p, expect);
    }
}
