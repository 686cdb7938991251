//! Every allocating kernel times its pooled run under exactly one
//! `backend.<op>` telemetry span per call. The traced `dance_step`
//! benchmark reads these names, so a kernel that stops opening its span,
//! or opens it twice, fails here first.

use std::sync::Arc;

use dance_backend::kernels::{self, BinaryOp, Data, UnaryOp};
use dance_backend::Storage;

fn data(len: usize) -> Data {
    Arc::new(Storage::from_vec(
        (0..len).map(|i| (i as f32 * 0.37).sin()).collect(),
    ))
}

fn span_count(name: &str) -> u64 {
    dance_telemetry::span::span_report()
        .into_iter()
        .find(|agg| agg.name == name)
        .map_or(0, |agg| agg.stats.count)
}

/// Runs `call` and asserts it recorded the span `name` exactly once.
fn one_span(name: &str, call: impl FnOnce()) {
    let before = span_count(name);
    call();
    assert_eq!(span_count(name), before + 1, "{name} spans per call");
}

#[test]
fn each_pooled_kernel_call_records_its_span_once() {
    assert!(
        dance_telemetry::enabled(),
        "run with telemetry on (DANCE_TELEMETRY unset)"
    );
    dance_backend::set_threads(8);
    // Every call below does at least 32,768 work units, the parallel
    // threshold; `sum` needs more than one 65,536-element block.
    let (m, k, n) = (64, 32, 32);
    let (a, w, g, bias) = (data(m * k), data(k * n), data(m * n), data(n));
    let (rows, cols) = (256, 160);
    let (mat, row) = (data(rows * cols), data(cols));
    let long = data(70_000);
    let (bsz, c, l, kw) = (4, 32, 256, 3);
    let (act, dw_w) = (data(bsz * c * l), data(c * kw));

    one_span("backend.matmul", || drop(kernels::matmul(&a, &w, m, k, n)));
    one_span("backend.linear", || {
        drop(kernels::linear(&a, &w, &bias, m, k, n, true));
    });
    one_span("backend.matmul_bt", || {
        drop(kernels::matmul_bt(&g, &w, m, n, k));
    });
    one_span("backend.matmul_at", || {
        drop(kernels::matmul_at(&a, &g, m, k, n));
    });
    one_span("backend.transpose", || {
        drop(kernels::transpose(&mat, rows, cols));
    });
    one_span("backend.unary", || {
        drop(kernels::unary(&mat, UnaryOp::Relu));
    });
    one_span("backend.binary", || {
        drop(kernels::binary(&mat, &mat, BinaryOp::Add));
    });
    one_span("backend.sum", || {
        kernels::sum(&long);
    });
    one_span("backend.sum_rows", || {
        drop(kernels::sum_rows(&mat, rows, cols));
    });
    one_span("backend.softmax_rows", || {
        drop(kernels::softmax_rows(&mat, rows, cols));
    });
    one_span("backend.add_row_broadcast", || {
        drop(kernels::add_row_broadcast(&mat, &row, rows, cols));
    });
    one_span("backend.mul_row_broadcast", || {
        drop(kernels::mul_row_broadcast(&mat, &row, rows, cols));
    });
    one_span("backend.dw_conv1d_fwd", || {
        drop(kernels::dw_conv1d_fwd(&act, &dw_w, bsz, c, l, kw, false));
    });
    one_span("backend.dw_conv1d_relu_fwd", || {
        drop(kernels::dw_conv1d_fwd(&act, &dw_w, bsz, c, l, kw, true));
    });
    one_span("backend.dw_conv1d_bwd", || {
        drop(kernels::dw_conv1d_bwd(&act, &dw_w, &act, bsz, c, l, kw));
    });
    one_span("backend.to_channels_last", || {
        drop(kernels::to_channels_last(&act, bsz, c, l));
    });
    one_span("backend.from_channels_last", || {
        drop(kernels::from_channels_last(&act, bsz, c, l));
    });
}
