//! Differentiable operations on [`Var`].
//!
//! Every method builds a new graph node whose backward closure accumulates
//! gradients into its parents. Activations are 2-D `[batch, features]` unless
//! noted; the 1-D convolution ops operate on `[batch, channels, length]`
//! tensors used by the MBConv-1D supernet blocks.

use dance_backend::{kernels, BinaryOp, Storage, UnaryOp};

use crate::tensor::Tensor;
use crate::var::{OpAttrs, Var};

impl Var {
    /// Element-wise sum. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add(&self, other: &Var) -> Var {
        let value = self.with_value(|a| other.with_value(|b| a.add(b)));
        Var::from_op(
            "add",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(g);
            }),
        )
    }

    /// Element-wise difference. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub(&self, other: &Var) -> Var {
        let value = self.with_value(|a| other.with_value(|b| a.sub(b)));
        Var::from_op(
            "sub",
            value,
            vec![self.clone(), other.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(&g.scale(-1.0));
            }),
        )
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mul(&self, other: &Var) -> Var {
        let a_val = self.value();
        let b_val = other.value();
        let value = a_val.mul(&b_val);
        Var::from_op(
            "mul",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(&g.mul(&b_val));
                parents[1].accumulate_grad(&g.mul(&a_val));
            }),
        )
    }

    /// Element-wise quotient. Shapes must match.
    ///
    /// No zero guard is applied: dividing by a value that can reach zero
    /// produces `inf`/NaN, which is exactly what the graph linter's
    /// NaN-propagation rule flags when a `ln` consumes this node.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn div(&self, other: &Var) -> Var {
        let a_val = self.value();
        let b_val = other.value();
        assert_eq!(a_val.shape(), b_val.shape(), "div shape mismatch");
        let value = a_val.binary_op(&b_val, BinaryOp::Div);
        Var::from_op(
            "div",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                let da = g.mul(&b_val.unary_op(UnaryOp::Recip));
                let db = g.mul(&a_val).mul(&b_val.unary_op(UnaryOp::NegRecipSq));
                parents[0].accumulate_grad(&da);
                parents[1].accumulate_grad(&db);
            }),
        )
    }

    /// Multiplies every element by the scalar `c`.
    pub fn scale(&self, c: f32) -> Var {
        let value = self.with_value(|a| a.scale(c));
        Var::from_op_attrs(
            "scale",
            value,
            vec![self.clone()],
            OpAttrs::Scalar(c),
            Box::new(move |g, parents| parents[0].accumulate_grad(&g.scale(c))),
        )
    }

    /// Adds the scalar `c` to every element.
    pub fn add_scalar(&self, c: f32) -> Var {
        let value = self.with_value(|a| a.unary_op(UnaryOp::AddScalar(c)));
        Var::from_op_attrs(
            "add_scalar",
            value,
            vec![self.clone()],
            OpAttrs::Scalar(c),
            Box::new(|g, parents| parents[0].accumulate_grad(g)),
        )
    }

    /// Negation.
    pub fn neg(&self) -> Var {
        self.scale(-1.0)
    }

    /// Broadcast-adds a `[n]` bias row to a `[m, n]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `bias` length differs from the columns.
    pub fn add_row_broadcast(&self, bias: &Var) -> Var {
        let value = self.with_value(|x| {
            bias.with_value(|b| {
                assert_eq!(x.ndim(), 2, "add_row_broadcast lhs shape {:?}", x.shape());
                assert_eq!(
                    b.numel(),
                    x.shape()[1],
                    "bias length {} vs columns {}",
                    b.numel(),
                    x.shape()[1]
                );
                let (m, n) = (x.shape()[0], x.shape()[1]);
                Tensor::from_storage(
                    kernels::add_row_broadcast(x.storage(), b.storage(), m, n),
                    &[m, n],
                )
            })
        });
        Var::from_op(
            "add_row_broadcast",
            value,
            vec![self.clone(), bias.clone()],
            Box::new(|g, parents| {
                parents[0].accumulate_grad(g);
                parents[1].accumulate_grad(&g.sum_rows());
            }),
        )
    }

    /// Matrix product `[m, k] × [k, n] → [m, n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or inner dimensions disagree.
    pub fn matmul(&self, other: &Var) -> Var {
        let a_val = self.value();
        let b_val = other.value();
        let value = dance_telemetry::time("autograd.fwd.matmul", || a_val.matmul(&b_val));
        Var::from_op(
            "matmul",
            value,
            vec![self.clone(), other.clone()],
            Box::new(move |g, parents| {
                // Transpose-free products: bit-identical to materializing
                // b_val.transpose() / a_val.transpose() and multiplying.
                parents[0].accumulate_grad(&g.matmul_bt(&b_val));
                parents[1].accumulate_grad(&a_val.matmul_at(g));
            }),
        )
    }

    /// Rectified linear unit, `max(x, 0)`.
    pub fn relu(&self) -> Var {
        let x_val = self.value();
        let value = x_val.unary_op(UnaryOp::Relu);
        Var::from_op(
            "relu",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // One fused pass; MaskMul keeps the multiply-form masking so
                // NaN/inf/−0 bits match the historical mask-then-mul exactly.
                parents[0].accumulate_grad(&g.binary_op(&x_val, BinaryOp::MaskMul));
            }),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Var {
        let value = self.with_value(|a| a.unary_op(UnaryOp::Sigmoid));
        let y_val = value.clone();
        Var::from_op(
            "sigmoid",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let d = y_val.unary_op(UnaryOp::SigmoidGrad);
                parents[0].accumulate_grad(&g.mul(&d));
            }),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Var {
        let value = self.with_value(|a| a.unary_op(UnaryOp::Tanh));
        let y_val = value.clone();
        Var::from_op(
            "tanh",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let d = y_val.unary_op(UnaryOp::TanhGrad);
                parents[0].accumulate_grad(&g.mul(&d));
            }),
        )
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Var {
        let value = self.with_value(|a| a.unary_op(UnaryOp::Exp));
        let y_val = value.clone();
        Var::from_op(
            "exp",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| parents[0].accumulate_grad(&g.mul(&y_val))),
        )
    }

    /// Element-wise natural logarithm (inputs clamped to `1e-12` for safety).
    pub fn ln(&self) -> Var {
        let x_val = self.value();
        let value = x_val.unary_op(UnaryOp::LnClamped);
        Var::from_op(
            "ln",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let d = x_val.unary_op(UnaryOp::LnGradClamped);
                parents[0].accumulate_grad(&g.mul(&d));
            }),
        )
    }

    /// Element-wise square.
    pub fn sqr(&self) -> Var {
        self.mul(self)
    }

    /// Sum of all elements, as a `[1]` scalar.
    pub fn sum(&self) -> Var {
        let shape = self.shape();
        let value = Tensor::scalar(self.with_value(Tensor::sum));
        Var::from_op(
            "sum",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(&Tensor::full(&shape, g.item()));
            }),
        )
    }

    /// Mean of all elements, as a `[1]` scalar.
    pub fn mean(&self) -> Var {
        let n = self.with_value(Tensor::numel).max(1);
        self.sum().scale(1.0 / n as f32)
    }

    /// Row-wise softmax of a 2-D variable.
    ///
    /// # Panics
    ///
    /// Panics if the value is not 2-D.
    pub fn softmax_rows(&self) -> Var {
        let value = self.with_value(Tensor::softmax_rows);
        let y_val = value.clone();
        Var::from_op(
            "softmax",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx = y ⊙ (g − ⟨g, y⟩ per row)
                let (m, n) = (y_val.shape()[0], y_val.shape()[1]);
                let mut dx = Storage::uninit(m * n);
                for i in 0..m {
                    let y_row = &y_val.data()[i * n..(i + 1) * n];
                    let g_row = &g.data()[i * n..(i + 1) * n];
                    let dot: f32 = y_row.iter().zip(g_row).map(|(&y, &gg)| y * gg).sum();
                    for j in 0..n {
                        dx[i * n + j] = y_row[j] * (g_row[j] - dot);
                    }
                }
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[m, n]));
            }),
        )
    }

    /// Row-wise log-softmax of a 2-D variable.
    ///
    /// # Panics
    ///
    /// Panics if the value is not 2-D.
    pub fn log_softmax_rows(&self) -> Var {
        let soft = self.with_value(Tensor::softmax_rows);
        let value = soft.unary_op(UnaryOp::LnFloor(1e-20));
        Var::from_op(
            "log_softmax",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // dx = g − softmax ⊙ (row-sum of g)
                let (m, n) = (soft.shape()[0], soft.shape()[1]);
                let mut dx = Storage::uninit(m * n);
                for i in 0..m {
                    let g_row = &g.data()[i * n..(i + 1) * n];
                    let s: f32 = g_row.iter().sum();
                    for j in 0..n {
                        dx[i * n + j] = g_row[j] - soft.data()[i * n + j] * s;
                    }
                }
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[m, n]));
            }),
        )
    }

    /// Concatenates 2-D variables along the column axis.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(parts: &[&Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of zero variables");
        let values: Vec<Tensor> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Tensor> = values.iter().collect();
        let value = Tensor::concat_cols(&refs);
        let widths: Vec<usize> = values.iter().map(|v| v.shape()[1]).collect();
        let parents: Vec<Var> = parts.iter().map(|p| (*p).clone()).collect();
        Var::from_op(
            "concat_cols",
            value,
            parents,
            Box::new(move |g, parents| {
                let mut offset = 0;
                for (p, &w) in parents.iter().zip(widths.iter()) {
                    p.accumulate_grad(&g.slice_cols(offset, w));
                    offset += w;
                }
            }),
        )
    }

    /// Extracts columns `[start, start + len)` from a 2-D variable.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&self, start: usize, len: usize) -> Var {
        let full_shape = self.shape();
        let value = self.with_value(|v| v.slice_cols(start, len));
        Var::from_op_attrs(
            "slice_cols",
            value,
            vec![self.clone()],
            OpAttrs::ColRange { start, len },
            Box::new(move |g, parents| {
                let (m, n) = (full_shape[0], full_shape[1]);
                let mut dx = Storage::zeroed(m * n);
                for i in 0..m {
                    dx[i * n + start..i * n + start + len]
                        .copy_from_slice(&g.data()[i * len..(i + 1) * len]);
                }
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[m, n]));
            }),
        )
    }

    /// Weighted sum of same-shaped variables: `Σᵢ wᵢ·xᵢ`, with `weights`
    /// a 1-D variable of length `ops.len()`.
    ///
    /// This is the differentiable mixture used by NAS supernets: gradients
    /// flow both into every candidate op output and into the (softmaxed)
    /// architecture weights.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty, shapes differ, or `weights` has the wrong
    /// length.
    pub fn weighted_sum(ops: &[&Var], weights: &Var) -> Var {
        assert!(!ops.is_empty(), "weighted_sum of zero operands");
        let w_val = weights.value();
        assert_eq!(
            w_val.numel(),
            ops.len(),
            "weights length {} vs {} operands",
            w_val.numel(),
            ops.len()
        );
        let op_vals: Vec<Tensor> = ops.iter().map(|o| o.value()).collect();
        let shape = op_vals[0].shape().to_vec();
        let mut value = Tensor::zeros(&shape);
        for (v, &w) in op_vals.iter().zip(w_val.data()) {
            assert_eq!(v.shape(), &shape[..], "weighted_sum operand shape mismatch");
            // axpy-style fused accumulate: value[i] += v[i]·w, one kernel pass.
            value = value.binary_op(v, BinaryOp::AddScaled(w));
        }
        let mut parents: Vec<Var> = ops.iter().map(|o| (*o).clone()).collect();
        parents.push(weights.clone());
        let k = ops.len();
        Var::from_op(
            "weighted_sum",
            value,
            parents,
            Box::new(move |g, parents| {
                for i in 0..k {
                    parents[i].accumulate_grad(&g.scale(w_val.data()[i]));
                }
                let mut dw = Storage::uninit(k);
                for (i, v) in op_vals.iter().enumerate() {
                    // Fused inner product — bit-identical to g.mul(v).sum().
                    dw[i] = g.dot(v);
                }
                parents[k].accumulate_grad(&Tensor::from_storage(dw, &[k]));
            }),
        )
    }

    /// Depthwise 1-D convolution with "same" zero padding:
    /// `[B, C, L] × [C, Kw] → [B, C, L]`.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatches, or even kernel widths.
    pub fn dw_conv1d(&self, weight: &Var) -> Var {
        let x_val = self.value();
        let w_val = weight.value();
        assert_eq!(x_val.ndim(), 3, "dw_conv1d input shape {:?}", x_val.shape());
        let (bsz, c, l) = (x_val.shape()[0], x_val.shape()[1], x_val.shape()[2]);
        assert_eq!(
            w_val.ndim(),
            2,
            "dw_conv1d weight shape {:?}",
            w_val.shape()
        );
        assert_eq!(w_val.shape()[0], c, "dw_conv1d channel mismatch");
        let kw = w_val.shape()[1];
        assert!(kw % 2 == 1, "dw_conv1d kernel width {kw} must be odd");

        let out = dance_telemetry::time("autograd.fwd.dw_conv1d", || {
            Tensor::from_storage(
                kernels::dw_conv1d_fwd(x_val.storage(), w_val.storage(), bsz, c, l, kw, false),
                &[bsz, c, l],
            )
        });
        Var::from_op(
            "dw_conv1d",
            out,
            vec![self.clone(), weight.clone()],
            Box::new(move |g, parents| {
                let (dx, dw) = kernels::dw_conv1d_bwd(
                    x_val.storage(),
                    w_val.storage(),
                    g.storage(),
                    bsz,
                    c,
                    l,
                    kw,
                );
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[bsz, c, l]));
                parents[1].accumulate_grad(&Tensor::from_storage(dw, &[c, kw]));
            }),
        )
    }

    /// Fused depthwise 1-D convolution + ReLU — one tape node and one
    /// kernel pass, bit-identical to `dw_conv1d` followed by `relu`.
    ///
    /// The backward masks the incoming gradient from the fused op's own
    /// output (`out > 0 ⟺ pre-activation > 0`), then runs the plain
    /// depthwise backward — the same value sequence as the unfused pair.
    ///
    /// # Panics
    ///
    /// Panics on rank or channel mismatches, or even kernel widths.
    pub fn dw_conv1d_relu(&self, weight: &Var) -> Var {
        let x_val = self.value();
        let w_val = weight.value();
        assert_eq!(
            x_val.ndim(),
            3,
            "dw_conv1d_relu input shape {:?}",
            x_val.shape()
        );
        let (bsz, c, l) = (x_val.shape()[0], x_val.shape()[1], x_val.shape()[2]);
        assert_eq!(
            w_val.ndim(),
            2,
            "dw_conv1d_relu weight shape {:?}",
            w_val.shape()
        );
        assert_eq!(w_val.shape()[0], c, "dw_conv1d_relu channel mismatch");
        let kw = w_val.shape()[1];
        assert!(kw % 2 == 1, "dw_conv1d_relu kernel width {kw} must be odd");

        let out = dance_telemetry::time("autograd.fwd.dw_conv1d_relu", || {
            Tensor::from_storage(
                kernels::dw_conv1d_fwd(x_val.storage(), w_val.storage(), bsz, c, l, kw, true),
                &[bsz, c, l],
            )
        });
        let y_val = out.clone();
        Var::from_op(
            "dw_conv1d_relu",
            out,
            vec![self.clone(), weight.clone()],
            Box::new(move |g, parents| {
                let gm = g.binary_op(&y_val, BinaryOp::MaskMul);
                let (dx, dw) = kernels::dw_conv1d_bwd(
                    x_val.storage(),
                    w_val.storage(),
                    gm.storage(),
                    bsz,
                    c,
                    l,
                    kw,
                );
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[bsz, c, l]));
                parents[1].accumulate_grad(&Tensor::from_storage(dw, &[c, kw]));
            }),
        )
    }

    /// Fused affine map `self × w + bias` with an optional ReLU: one tape
    /// node replacing the matmul → add_row_broadcast (→ relu) chain, with
    /// bit-identical values and gradients.
    ///
    /// # Panics
    ///
    /// Panics on non-2-D inputs or mismatched dimensions.
    pub fn linear(&self, weight: &Var, bias: &Var, relu: bool) -> Var {
        let x_val = self.value();
        let w_val = weight.value();
        let b_val = bias.value();
        let out =
            dance_telemetry::time("autograd.fwd.linear", || x_val.linear(&w_val, &b_val, relu));
        let y_val = relu.then(|| out.clone());
        Var::from_op(
            if relu { "linear_relu" } else { "linear" },
            out,
            vec![self.clone(), weight.clone(), bias.clone()],
            Box::new(move |g, parents| {
                // With ReLU fused, mask from the fused output: out > 0 iff
                // the pre-activation was > 0, so the masked gradient is
                // bit-identical to the unfused relu backward.
                let gm = match &y_val {
                    Some(y) => g.binary_op(y, BinaryOp::MaskMul),
                    None => g.clone(),
                };
                parents[0].accumulate_grad(&gm.matmul_bt(&w_val));
                parents[1].accumulate_grad(&x_val.matmul_at(&gm));
                parents[2].accumulate_grad(&gm.sum_rows());
            }),
        )
    }

    /// Global average pooling over the length axis: `[B, C, L] → [B, C]`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not 3-D.
    pub fn global_avg_pool1d(&self) -> Var {
        let x_shape = self.shape();
        assert_eq!(
            x_shape.len(),
            3,
            "global_avg_pool1d input shape {x_shape:?}"
        );
        let (bsz, c, l) = (x_shape[0], x_shape[1], x_shape[2]);
        let value = self.with_value(|x| {
            let mut out = Storage::uninit(bsz * c);
            for b in 0..bsz {
                for ci in 0..c {
                    let base = (b * c + ci) * l;
                    out[b * c + ci] = x.data()[base..base + l].iter().sum::<f32>() / l as f32;
                }
            }
            Tensor::from_storage(out, &[bsz, c])
        });
        Var::from_op(
            "global_avg_pool1d",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                let mut dx = Storage::uninit(bsz * c * l);
                for b in 0..bsz {
                    for ci in 0..c {
                        let gv = g.data()[b * c + ci] / l as f32;
                        let base = (b * c + ci) * l;
                        dx[base..base + l].fill(gv);
                    }
                }
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[bsz, c, l]));
            }),
        )
    }

    /// Permutes `[B, C, L]` activations to channels-last `[B·L, C]` so
    /// pointwise (1×1) convolutions can run through the fast matmul path.
    ///
    /// # Panics
    ///
    /// Panics if the value is not 3-D.
    pub fn to_channels_last(&self) -> Var {
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "to_channels_last input shape {shape:?}");
        let (bsz, c, l) = (shape[0], shape[1], shape[2]);
        let value = self.with_value(|x| {
            Tensor::from_storage(
                kernels::to_channels_last(x.storage(), bsz, c, l),
                &[bsz * l, c],
            )
        });
        Var::from_op(
            "to_channels_last",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                // The inverse permutation is exactly `from_channels_last`.
                let dx = kernels::from_channels_last(g.storage(), bsz, c, l);
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[bsz, c, l]));
            }),
        )
    }

    /// Inverse of [`Var::to_channels_last`]: `[B·L, C] → [B, C, L]`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not 2-D or rows don't factor as `batch · length`.
    pub fn from_channels_last(&self, batch: usize, length: usize) -> Var {
        let shape = self.shape();
        assert_eq!(shape.len(), 2, "from_channels_last input shape {shape:?}");
        assert_eq!(
            shape[0],
            batch * length,
            "rows {} != {batch}·{length}",
            shape[0]
        );
        let c = shape[1];
        let value = self.with_value(|x| {
            Tensor::from_storage(
                kernels::from_channels_last(x.storage(), batch, c, length),
                &[batch, c, length],
            )
        });
        Var::from_op_attrs(
            "from_channels_last",
            value,
            vec![self.clone()],
            OpAttrs::BatchLength { batch, length },
            Box::new(move |g, parents| {
                // The inverse permutation is exactly `to_channels_last`.
                let dx = kernels::to_channels_last(g.storage(), batch, c, length);
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[batch * length, c]));
            }),
        )
    }

    /// Keeps every `stride`-th position along the length axis of a
    /// `[B, C, L]` activation (stride-`s` downsampling with "same" padding
    /// semantics: output length `ceil(L / stride)`).
    ///
    /// # Panics
    ///
    /// Panics if the value is not 3-D or `stride` is zero.
    pub fn downsample1d(&self, stride: usize) -> Var {
        assert!(stride > 0, "downsample1d stride must be positive");
        if stride == 1 {
            return self.clone();
        }
        let shape = self.shape();
        assert_eq!(shape.len(), 3, "downsample1d input shape {shape:?}");
        let (bsz, c, l) = (shape[0], shape[1], shape[2]);
        let lo = l.div_ceil(stride);
        let value = self.with_value(|x| {
            let mut out = Storage::uninit(bsz * c * lo);
            for r in 0..bsz * c {
                for (o, li) in (0..l).step_by(stride).enumerate() {
                    out[r * lo + o] = x.data()[r * l + li];
                }
            }
            Tensor::from_storage(out, &[bsz, c, lo])
        });
        Var::from_op_attrs(
            "downsample1d",
            value,
            vec![self.clone()],
            OpAttrs::Stride(stride),
            Box::new(move |g, parents| {
                let mut dx = Storage::zeroed(bsz * c * l);
                for r in 0..bsz * c {
                    for (o, li) in (0..l).step_by(stride).enumerate() {
                        dx[r * l + li] = g.data()[r * lo + o];
                    }
                }
                parents[0].accumulate_grad(&Tensor::from_storage(dx, &[bsz, c, l]));
            }),
        )
    }

    /// Reshape (element count must match).
    ///
    /// # Panics
    ///
    /// Panics if the element count differs.
    pub fn reshape(&self, shape: &[usize]) -> Var {
        let old_shape = self.shape();
        let value = self.with_value(|v| v.reshape(shape));
        Var::from_op(
            "reshape",
            value,
            vec![self.clone()],
            Box::new(move |g, parents| {
                parents[0].accumulate_grad(&g.reshape(&old_shape));
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::numeric_grad;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randn(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_normal(shape, 0.0, 1.0, &mut rng)
    }

    #[test]
    fn add_grad_check() {
        let a = Var::parameter(randn(&[3, 4], 1));
        let b = Var::parameter(randn(&[3, 4], 2));
        numeric_grad(&[&a, &b], || a.add(&b).sqr().sum(), 1e-2, 2e-2);
    }

    #[test]
    fn mul_grad_check() {
        let a = Var::parameter(randn(&[2, 3], 3));
        let b = Var::parameter(randn(&[2, 3], 4));
        numeric_grad(&[&a, &b], || a.mul(&b).sum(), 1e-2, 2e-2);
    }

    #[test]
    fn div_grad_check_and_value() {
        let a = Var::parameter(Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]));
        let b = Var::parameter(Tensor::from_vec(vec![2.0, 4.0, -1.5], &[3]));
        assert_eq!(a.div(&b).value().data(), &[0.5, -0.5, -2.0]);
        numeric_grad(&[&a, &b], || a.div(&b).sqr().sum(), 1e-3, 5e-2);
    }

    #[test]
    fn ops_record_their_names_and_parents() {
        let a = Var::parameter(randn(&[2, 3], 40));
        let b = Var::parameter(randn(&[3, 2], 41));
        let y = a.matmul(&b);
        assert_eq!(y.op(), "matmul");
        assert!(!y.is_leaf());
        let parent_ids: Vec<u64> = y.parents().iter().map(Var::id).collect();
        assert_eq!(parent_ids, vec![a.id(), b.id()]);
        assert_eq!(a.op(), "parameter");
        assert!(a.is_leaf());
        assert_eq!(Var::constant(Tensor::scalar(1.0)).op(), "constant");
    }

    #[test]
    fn constant_graphs_stay_walkable_without_gradients() {
        // Parents are kept even on gradient-free nodes (for graph linting),
        // but backward still never descends into them.
        let a = Var::constant(Tensor::scalar(2.0));
        let y = a.mul(&a);
        assert_eq!(y.parents().len(), 2);
        y.backward();
        assert!(a.grad().is_none());
    }

    #[test]
    fn matmul_grad_check() {
        let a = Var::parameter(randn(&[3, 4], 5));
        let b = Var::parameter(randn(&[4, 2], 6));
        numeric_grad(&[&a, &b], || a.matmul(&b).sqr().sum(), 1e-2, 5e-2);
    }

    #[test]
    fn relu_forward_and_grad() {
        let x = Var::parameter(Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[4]));
        let y = x.relu();
        assert_eq!(y.value().data(), &[0.0, 2.0, 0.0, 4.0]);
        y.sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_grad_check() {
        let x = Var::parameter(randn(&[5], 7));
        numeric_grad(&[&x], || x.sigmoid().sum(), 1e-2, 2e-2);
    }

    #[test]
    fn tanh_grad_check() {
        let x = Var::parameter(randn(&[5], 8));
        numeric_grad(&[&x], || x.tanh().sum(), 1e-2, 2e-2);
    }

    #[test]
    fn exp_ln_grad_check() {
        let x = Var::parameter(Tensor::from_vec(vec![0.5, 1.0, 2.0], &[3]));
        numeric_grad(&[&x], || x.exp().sum(), 1e-3, 2e-2);
        numeric_grad(&[&x], || x.ln().sum(), 1e-3, 2e-2);
    }

    #[test]
    fn softmax_rows_grad_check() {
        let x = Var::parameter(randn(&[2, 5], 9));
        numeric_grad(&[&x], || x.softmax_rows().sqr().sum(), 1e-2, 2e-2);
    }

    #[test]
    fn log_softmax_grad_check() {
        let x = Var::parameter(randn(&[2, 4], 10));
        numeric_grad(&[&x], || x.log_softmax_rows().sqr().sum(), 1e-2, 5e-2);
    }

    #[test]
    fn add_row_broadcast_grad_check() {
        let x = Var::parameter(randn(&[3, 4], 11));
        let b = Var::parameter(randn(&[4], 12));
        numeric_grad(
            &[&x, &b],
            || x.add_row_broadcast(&b).sqr().sum(),
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn concat_slice_grad_check() {
        let a = Var::parameter(randn(&[2, 3], 13));
        let b = Var::parameter(randn(&[2, 2], 14));
        numeric_grad(
            &[&a, &b],
            || Var::concat_cols(&[&a, &b]).slice_cols(1, 3).sqr().sum(),
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn weighted_sum_grad_check() {
        let a = Var::parameter(randn(&[2, 3], 15));
        let b = Var::parameter(randn(&[2, 3], 16));
        let w = Var::parameter(Tensor::from_vec(vec![0.3, 0.7], &[2]));
        numeric_grad(
            &[&a, &b, &w],
            || Var::weighted_sum(&[&a, &b], &w).sqr().sum(),
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn dw_conv1d_grad_check() {
        let x = Var::parameter(randn(&[2, 3, 6], 20));
        let w = Var::parameter(randn(&[3, 3], 21).scale(0.5));
        numeric_grad(&[&x, &w], || x.dw_conv1d(&w).sqr().sum(), 1e-2, 8e-2);
    }

    #[test]
    fn dw_conv1d_identity_kernel_is_identity() {
        let x = Var::constant(randn(&[1, 2, 5], 22));
        // kernel [0, 1, 0] per channel ⇒ output equals input
        let w = Var::constant(Tensor::from_vec(
            vec![0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            &[2, 3],
        ));
        let y = x.dw_conv1d(&w);
        assert!(y.value().approx_eq(&x.value(), 1e-6));
    }

    #[test]
    fn global_avg_pool_grad_check() {
        let x = Var::parameter(randn(&[2, 3, 4], 23));
        numeric_grad(&[&x], || x.global_avg_pool1d().sqr().sum(), 1e-2, 3e-2);
    }

    #[test]
    fn reshape_grad_passthrough() {
        let x = Var::parameter(randn(&[2, 6], 24));
        numeric_grad(&[&x], || x.reshape(&[3, 4]).sqr().sum(), 1e-2, 3e-2);
    }

    #[test]
    fn channels_last_roundtrip_is_identity() {
        let x = Var::parameter(randn(&[2, 3, 4], 25));
        let y = x.to_channels_last().from_channels_last(2, 4);
        assert!(y.value().approx_eq(&x.value(), 1e-6));
        numeric_grad(&[&x], || x.to_channels_last().sqr().sum(), 1e-2, 3e-2);
    }

    #[test]
    fn channels_last_matmul_matches_pw_conv() {
        // The supernet's pointwise conv: out[b, k, l] = Σ_c w[k, c]·x[b, c, l].
        let (x, w) = (randn(&[2, 3, 5], 26), randn(&[4, 3], 27));
        let via_matmul = Var::constant(x.clone())
            .to_channels_last()
            .matmul(&Var::constant(w.transpose()))
            .from_channels_last(2, 5);
        let mut direct = vec![0.0; 2 * 4 * 5];
        for b in 0..2 {
            for k in 0..4 {
                for l in 0..5 {
                    for c in 0..3 {
                        direct[(b * 4 + k) * 5 + l] +=
                            w.data()[k * 3 + c] * x.data()[(b * 3 + c) * 5 + l];
                    }
                }
            }
        }
        let direct = Tensor::from_vec(direct, &[2, 4, 5]);
        assert!(via_matmul.value().approx_eq(&direct, 1e-4));
    }

    #[test]
    fn downsample_picks_strided_positions() {
        let x = Var::parameter(Tensor::from_vec(
            (0..10).map(|i| i as f32).collect(),
            &[1, 2, 5],
        ));
        let y = x.downsample1d(2);
        assert_eq!(y.shape(), vec![1, 2, 3]);
        assert_eq!(y.value().data(), &[0.0, 2.0, 4.0, 5.0, 7.0, 9.0]);
        numeric_grad(&[&x], || x.downsample1d(2).sqr().sum(), 1e-2, 3e-2);
    }

    #[test]
    fn downsample_stride_one_is_identity() {
        let x = Var::parameter(randn(&[1, 2, 4], 28));
        assert_eq!(x.downsample1d(1).value(), x.value());
    }

    #[test]
    fn mean_is_sum_over_n() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0, 2.0, 3.0, 6.0], &[4]));
        assert_eq!(x.mean().item(), 3.0);
        x.mean().backward();
        assert_eq!(x.grad().unwrap().data(), &[0.25; 4]);
    }
}
