//! The plan intermediate representation.
//!
//! A [`Plan`] is a frozen forward pass: a topologically ordered sequence of
//! [`Step`]s over a fixed set of activation buffers and constant-folded
//! weights. Buffers are *batch-elastic*: every buffer records its probe
//! shape as `rows_per_batch` leading rows per batch sample plus fixed
//! trailing dimensions, so one compiled plan executes any batch size up to
//! [`Plan::max_batch`] without reshaping or reallocation.

use dance_backend::{BinaryOp, UnaryOp};

/// One frozen operation. Variants mirror the forward ops of the autograd
/// tape exactly (same kernels, same accumulation orders), which is what
/// makes plan outputs bit-identical to tape outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Element-wise unary kernel (relu, sigmoid, tanh, exp, clamped ln,
    /// scale, add-scalar).
    Unary(UnaryOp),
    /// Element-wise binary kernel (add, sub, mul, div).
    Binary(BinaryOp),
    /// Dense `[m,k]·[k,n]` product against a folded weight.
    Matmul,
    /// Fused `x·W + b` against a folded weight and bias (the tape's
    /// `linear` op).
    Linear,
    /// Fused `relu(x·W + b)` against a folded weight and bias (the tape's
    /// `linear_relu` op).
    LinearRelu,
    /// Row-wise softmax of a 2-D activation.
    Softmax,
    /// Row-wise log-softmax (softmax then clamped ln, as the tape computes
    /// it).
    LogSoftmax,
    /// `x + bias` with a folded `[n]` bias broadcast across rows.
    AddRowBroadcast,
    /// `x ⊙ scale` with a folded `[n]` row broadcast across rows.
    MulRowBroadcast,
    /// Column-wise concatenation of 2-D activations.
    ConcatCols,
    /// Column slice `[start, start+len)` of a 2-D activation.
    SliceCols {
        /// First column.
        start: usize,
        /// Number of columns.
        len: usize,
    },
    /// `Σᵢ wᵢ·xᵢ` with constant-folded mixture weights, accumulated in
    /// operand order exactly like the tape's chained axpy passes.
    WeightedSum {
        /// One folded weight per operand, in operand order.
        weights: Vec<f32>,
    },
    /// Depthwise 1-D convolution `[B,C,L]×[C,kw] → [B,C,L]` with a folded
    /// kernel.
    DwConv1d,
    /// Depthwise 1-D convolution with a fused ReLU on the accumulator (the
    /// tape's `dw_conv1d_relu` op).
    DwConv1dRelu,
    /// `[B,C,L] → [B,C]` mean over the length axis.
    GlobalAvgPool1d,
    /// `[B,C,L] → [B·L,C]` permutation.
    ToChannelsLast,
    /// `[B·L,C] → [B,C,L]` permutation (dims from the output buffer spec).
    FromChannelsLast,
    /// Keeps every `stride`-th length position of a `[B,C,L]` activation.
    Downsample1d {
        /// Sampling stride (≥ 2; stride 1 never reaches the tape).
        stride: usize,
    },
    /// Element copy (frozen `reshape`; the buffer spec carries the new
    /// shape).
    Copy,
}

/// An operand or result location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ref {
    /// Activation buffer index (buffer 0 is the plan input).
    Buf(usize),
    /// Constant-folded tensor index.
    Const(usize),
}

/// One executed operation: `op(ins…) → buffers[out]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The operation.
    pub op: PlanOp,
    /// Operands, in the tape's parent order.
    pub ins: Vec<Ref>,
    /// Destination buffer (never aliases any of `ins`).
    pub out: usize,
}

/// Shape of a batch-elastic activation buffer: at runtime batch `b` the
/// buffer holds `[rows_per_batch·b, rest…]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufSpec {
    /// Leading rows contributed by each batch sample.
    pub rows_per_batch: usize,
    /// Fixed trailing dimensions (at least one).
    pub rest: Vec<usize>,
}

impl BufSpec {
    /// Leading dimension at batch `b`.
    #[must_use]
    pub fn dim0(&self, batch: usize) -> usize {
        self.rows_per_batch * batch
    }

    /// Total element count at batch `b`.
    #[must_use]
    pub fn numel(&self, batch: usize) -> usize {
        self.dim0(batch) * self.rest.iter().product::<usize>()
    }
}

/// A constant-folded tensor (weights, biases, precomputed subgraphs).
#[derive(Debug, Clone, PartialEq)]
pub struct ConstSpec {
    /// Fixed shape.
    pub shape: Vec<usize>,
    /// Row-major values.
    pub data: Vec<f32>,
}

/// A compiled inference plan. Built by [`crate::freeze`], executed by
/// [`crate::Executor`], persisted by [`Plan::serialize`]/[`Plan::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Largest batch the executor preallocates for.
    pub max_batch: usize,
    /// Activation buffers; index 0 is the input.
    pub buffers: Vec<BufSpec>,
    /// Constant-folded tensors.
    pub consts: Vec<ConstSpec>,
    /// Operations in execution order.
    pub steps: Vec<Step>,
    /// Plan outputs, in the order requested at freeze time.
    pub outputs: Vec<Ref>,
}

impl Plan {
    /// Element count of output `i` at batch `b`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn output_numel(&self, i: usize, batch: usize) -> usize {
        match self.outputs[i] {
            Ref::Buf(b) => self.buffers[b].numel(batch),
            Ref::Const(c) => self.consts[c].data.len(),
        }
    }

    /// Checks internal consistency (index bounds and operand arity); used
    /// after parsing an artifact so a corrupted-but-well-folded file can
    /// never panic the executor.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch is zero".into());
        }
        if self.buffers.is_empty() {
            return Err("plan has no input buffer".into());
        }
        for (i, spec) in self.buffers.iter().enumerate() {
            if spec.rows_per_batch == 0 || spec.rest.is_empty() {
                return Err(format!("buffer {i} has a degenerate shape"));
            }
        }
        let check = |r: &Ref| -> Result<(), String> {
            match *r {
                Ref::Buf(b) if b >= self.buffers.len() => {
                    Err(format!("buffer ref {b} out of range"))
                }
                Ref::Const(c) if c >= self.consts.len() => {
                    Err(format!("const ref {c} out of range"))
                }
                _ => Ok(()),
            }
        };
        for (i, step) in self.steps.iter().enumerate() {
            if step.out >= self.buffers.len() {
                return Err(format!("step {i} writes out-of-range buffer {}", step.out));
            }
            for r in &step.ins {
                check(r).map_err(|e| format!("step {i}: {e}"))?;
                if *r == Ref::Buf(step.out) {
                    return Err(format!("step {i} aliases its output buffer"));
                }
            }
            let arity = match &step.op {
                PlanOp::Binary(_) => Some(2),
                PlanOp::Matmul => Some(2),
                PlanOp::Linear | PlanOp::LinearRelu => Some(3),
                PlanOp::AddRowBroadcast | PlanOp::MulRowBroadcast => Some(2),
                PlanOp::DwConv1d | PlanOp::DwConv1dRelu => Some(2),
                PlanOp::WeightedSum { weights } => Some(weights.len()),
                PlanOp::ConcatCols => None, // ≥ 1, checked below
                _ => Some(1),
            };
            if let Some(n) = arity {
                if step.ins.len() != n {
                    return Err(format!(
                        "step {i} has {} operands, expected {n}",
                        step.ins.len()
                    ));
                }
            } else if step.ins.is_empty() {
                return Err(format!("step {i} (concat) has no operands"));
            }
        }
        for r in &self.outputs {
            check(r).map_err(|e| format!("output: {e}"))?;
        }
        if self.outputs.is_empty() {
            return Err("plan has no outputs".into());
        }
        Ok(())
    }
}
