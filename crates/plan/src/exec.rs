//! Allocation-free plan execution.
//!
//! An [`Executor`] owns one preallocated arena: one `Vec<f32>` per plan
//! buffer, each sized for [`Plan::max_batch`]. `run` replays the plan's
//! steps through the [`dance_backend::kernels`] `*_into` bodies plus
//! a handful of pure-copy loops, writing every activation into its assigned
//! buffer — no tape, no per-call allocation, no `Arc` traffic.
//!
//! Smaller batches execute on the same arena by slicing each buffer to its
//! active element count; the loop nests are identical to the tape's forward
//! value computation, so outputs are bit-identical to the tape at any
//! `DANCE_THREADS` setting.

use dance_backend::kernels;

use crate::ir::{Plan, PlanOp, Ref, Step};

/// Runs a [`Plan`] on preallocated buffers.
#[derive(Debug)]
pub struct Executor {
    plan: Plan,
    bufs: Vec<Vec<f32>>,
}

impl Executor {
    /// Preallocates the buffer arena for `plan` at its maximum batch.
    #[must_use]
    pub fn new(plan: Plan) -> Self {
        let bufs = plan
            .buffers
            .iter()
            .map(|s| vec![0.0f32; s.numel(plan.max_batch)])
            .collect();
        Self { plan, bufs }
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Number of plan outputs.
    pub fn num_outputs(&self) -> usize {
        self.plan.outputs.len()
    }

    /// The input staging area for a `batch`-sample run: write
    /// `buffers[0].numel(batch)` values here before calling [`Executor::run`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or exceeds the plan's maximum.
    // analyze:hot
    pub fn input_mut(&mut self, batch: usize) -> &mut [f32] {
        assert!(
            batch >= 1 && batch <= self.plan.max_batch,
            "batch {batch} outside 1..={}",
            self.plan.max_batch
        );
        let n = self.plan.buffers[0].numel(batch);
        &mut self.bufs[0][..n]
    }
    // analyze:hot-end

    /// Executes every step for a `batch`-sample input staged via
    /// [`Executor::input_mut`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or exceeds the plan's maximum.
    pub fn run(&mut self, batch: usize) {
        assert!(
            batch >= 1 && batch <= self.plan.max_batch,
            "batch {batch} outside 1..={}",
            self.plan.max_batch
        );
        dance_telemetry::time("plan.exec.run", || {
            // analyze:hot
            for step in &self.plan.steps {
                run_step(&self.plan, &mut self.bufs, step, batch);
            }
            // analyze:hot-end
        });
    }

    /// Output `i` of the last `batch`-sample run.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `batch` exceeds the plan's maximum.
    // analyze:hot
    pub fn output(&self, i: usize, batch: usize) -> &[f32] {
        match self.plan.outputs[i] {
            Ref::Buf(b) => &self.bufs[b][..self.plan.buffers[b].numel(batch)],
            Ref::Const(c) => &self.plan.consts[c].data,
        }
    }
    // analyze:hot-end
}

/// Active slice of an operand at the current batch.
fn view<'a>(plan: &'a Plan, bufs: &'a [Vec<f32>], r: Ref, batch: usize) -> &'a [f32] {
    match r {
        Ref::Buf(i) => &bufs[i][..plan.buffers[i].numel(batch)],
        Ref::Const(c) => &plan.consts[c].data,
    }
}

/// `(leading dim, trailing dims)` of an operand at the current batch.
fn dims<'a>(plan: &'a Plan, r: Ref, batch: usize) -> (usize, &'a [usize]) {
    match r {
        Ref::Buf(i) => (plan.buffers[i].dim0(batch), &plan.buffers[i].rest[..]),
        Ref::Const(c) => (plan.consts[c].shape[0], &plan.consts[c].shape[1..]),
    }
}

// analyze:hot
#[allow(clippy::too_many_lines)]
fn run_step(plan: &Plan, bufs: &mut [Vec<f32>], step: &Step, batch: usize) {
    let mut out_buf = std::mem::take(&mut bufs[step.out]);
    let out_n = plan.buffers[step.out].numel(batch);
    {
        let bufs_r: &[Vec<f32>] = bufs;
        let out = &mut out_buf[..out_n];
        match &step.op {
            PlanOp::Unary(u) => {
                let x = view(plan, bufs_r, step.ins[0], batch);
                kernels::unary_into(x, *u, 0..x.len(), out);
            }
            PlanOp::Binary(b) => {
                let x = view(plan, bufs_r, step.ins[0], batch);
                let y = view(plan, bufs_r, step.ins[1], batch);
                kernels::binary_into(x, y, *b, 0..x.len(), out);
            }
            PlanOp::Matmul => {
                let (m, a_rest) = dims(plan, step.ins[0], batch);
                let (kk, w_rest) = dims(plan, step.ins[1], batch);
                kernels::matmul_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    view(plan, bufs_r, step.ins[1], batch),
                    kk,
                    w_rest[0],
                    0..m,
                    out,
                );
                debug_assert_eq!(a_rest[0], kk);
            }
            PlanOp::Linear | PlanOp::LinearRelu => {
                let (m, _) = dims(plan, step.ins[0], batch);
                let (kk, w_rest) = dims(plan, step.ins[1], batch);
                kernels::linear_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    view(plan, bufs_r, step.ins[1], batch),
                    view(plan, bufs_r, step.ins[2], batch),
                    kk,
                    w_rest[0],
                    matches!(step.op, PlanOp::LinearRelu),
                    0..m,
                    out,
                );
            }
            PlanOp::Softmax => {
                let (m, rest) = dims(plan, step.ins[0], batch);
                kernels::softmax_rows_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    rest[0],
                    0..m,
                    out,
                );
            }
            PlanOp::LogSoftmax => {
                let (m, rest) = dims(plan, step.ins[0], batch);
                kernels::softmax_rows_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    rest[0],
                    0..m,
                    out,
                );
                // Same element-wise pass the tape applies to the softmax.
                for v in out.iter_mut() {
                    *v = v.max(1e-20).ln();
                }
            }
            PlanOp::AddRowBroadcast => {
                let (m, rest) = dims(plan, step.ins[0], batch);
                kernels::add_row_broadcast_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    view(plan, bufs_r, step.ins[1], batch),
                    rest[0],
                    0..m,
                    out,
                );
            }
            PlanOp::MulRowBroadcast => {
                let (m, rest) = dims(plan, step.ins[0], batch);
                kernels::mul_row_broadcast_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    view(plan, bufs_r, step.ins[1], batch),
                    rest[0],
                    0..m,
                    out,
                );
            }
            PlanOp::ConcatCols => {
                let spec = &plan.buffers[step.out];
                let (m, total) = (spec.dim0(batch), spec.rest[0]);
                let mut off = 0;
                for r in &step.ins {
                    let (_, rest) = dims(plan, *r, batch);
                    let w = rest[0];
                    let x = view(plan, bufs_r, *r, batch);
                    for i in 0..m {
                        out[i * total + off..i * total + off + w]
                            .copy_from_slice(&x[i * w..(i + 1) * w]);
                    }
                    off += w;
                }
            }
            PlanOp::SliceCols { start, len } => {
                let (m, rest) = dims(plan, step.ins[0], batch);
                let n = rest[0];
                let x = view(plan, bufs_r, step.ins[0], batch);
                for i in 0..m {
                    out[i * len..(i + 1) * len]
                        .copy_from_slice(&x[i * n + start..i * n + start + len]);
                }
            }
            PlanOp::WeightedSum { weights } => {
                out.fill(0.0);
                // One axpy pass per operand, in operand order — the tape's
                // chained AddScaled accumulation.
                for (r, &w) in step.ins.iter().zip(weights) {
                    let x = view(plan, bufs_r, *r, batch);
                    for (o, &xv) in out.iter_mut().zip(x) {
                        *o += xv * w;
                    }
                }
            }
            PlanOp::DwConv1d | PlanOp::DwConv1dRelu => {
                let (bsz, rest) = dims(plan, step.ins[0], batch);
                let (_, w_rest) = dims(plan, step.ins[1], batch);
                kernels::dw_conv1d_fwd_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    view(plan, bufs_r, step.ins[1], batch),
                    rest[0],
                    rest[1],
                    w_rest[0],
                    matches!(step.op, PlanOp::DwConv1dRelu),
                    0..bsz * rest[0],
                    out,
                );
            }
            PlanOp::GlobalAvgPool1d => {
                let (bsz, rest) = dims(plan, step.ins[0], batch);
                let (c, l) = (rest[0], rest[1]);
                let x = view(plan, bufs_r, step.ins[0], batch);
                for b in 0..bsz {
                    for ci in 0..c {
                        let base = (b * c + ci) * l;
                        // Plain sequential sum — the tape's iter().sum().
                        let mut s = 0.0f32;
                        for &xv in &x[base..base + l] {
                            s += xv;
                        }
                        out[b * c + ci] = s / l as f32;
                    }
                }
            }
            PlanOp::ToChannelsLast => {
                let (bsz, rest) = dims(plan, step.ins[0], batch);
                kernels::to_channels_last_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    rest[0],
                    rest[1],
                    0..bsz,
                    out,
                );
            }
            PlanOp::FromChannelsLast => {
                let spec = &plan.buffers[step.out];
                kernels::from_channels_last_into(
                    view(plan, bufs_r, step.ins[0], batch),
                    spec.rest[0],
                    spec.rest[1],
                    0..spec.dim0(batch),
                    out,
                );
            }
            PlanOp::Downsample1d { stride } => {
                let (bsz, rest) = dims(plan, step.ins[0], batch);
                let (c, l) = (rest[0], rest[1]);
                let lo = plan.buffers[step.out].rest[1];
                let x = view(plan, bufs_r, step.ins[0], batch);
                for b in 0..bsz {
                    for ci in 0..c {
                        let ib = (b * c + ci) * l;
                        let ob = (b * c + ci) * lo;
                        for (o, li) in (0..l).step_by(*stride).enumerate() {
                            out[ob + o] = x[ib + li];
                        }
                    }
                }
            }
            PlanOp::Copy => {
                out.copy_from_slice(view(plan, bufs_r, step.ins[0], batch));
            }
        }
    }
    bufs[step.out] = out_buf;
}
// analyze:hot-end
