//! Declarative op metadata: the registry `dance-analyze`'s graph lints use to
//! verify a built tape *before* training starts.
//!
//! Every interior node created through `Var::from_op` records
//! the `&'static str` name of the op that produced it. This module maps each
//! name to an [`OpSpec`]: its arity, whether gradients flow through it, and a
//! symbolic *shape rule* that re-derives the legal output shape from the
//! parent shapes. A static analysis pass can therefore walk a finished graph
//! and re-check every node without re-executing any numeric code — the
//! difference between a shape bug panicking mid-epoch and being reported
//! before the first step.
//!
//! Adding an op is three steps: give the `Var::from_op` call a new name, add
//! an `OpSpec` row to [`REGISTRY`], and (if differentiable) add a probe to
//! the registry-driven gradient check in `crates/analyze/tests/`.

/// How many parents an op accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// Exactly `n` parents.
    Exact(usize),
    /// `n` or more parents (variadic ops such as `concat_cols`).
    AtLeast(usize),
}

impl Arity {
    /// Whether `n` parents satisfies this arity.
    #[must_use]
    pub fn accepts(&self, n: usize) -> bool {
        match *self {
            Arity::Exact(k) => n == k,
            Arity::AtLeast(k) => n >= k,
        }
    }
}

/// Outcome of a shape rule: `Ok(())` if `out` is a legal output shape for
/// the given parent shapes, `Err(reason)` otherwise.
pub type ShapeCheck = Result<(), String>;

/// A symbolic shape rule: `(parent_shapes, output_shape) -> ShapeCheck`.
///
/// Rules validate relationships rather than recompute attributes: an op with
/// non-tensor attributes (`reshape`, `slice_cols`, …) checks the invariants
/// that hold for every legal attribute value (element count preserved, row
/// count unchanged, …).
pub type ShapeRule = fn(&[Vec<usize>], &[usize]) -> ShapeCheck;

/// Static metadata describing one differentiable (or gradient-blocking) op.
#[derive(Debug, Clone, Copy)]
pub struct OpSpec {
    /// The name recorded on tape nodes.
    pub name: &'static str,
    /// Number of parents the op accepts.
    pub arity: Arity,
    /// Whether gradients flow through this op into its parents.
    pub differentiable: bool,
    /// Symbolic output-shape validation.
    pub shape_rule: ShapeRule,
}

fn fmt_shapes(shapes: &[Vec<usize>]) -> String {
    let parts: Vec<String> = shapes.iter().map(|s| format!("{s:?}")).collect();
    parts.join(", ")
}

fn same_as_first(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    if parents[0] == out {
        Ok(())
    } else {
        Err(format!("output {out:?} must match input {:?}", parents[0]))
    }
}

fn elementwise(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    if parents.iter().any(|p| p != &parents[0]) {
        return Err(format!("operand shapes differ: {}", fmt_shapes(parents)));
    }
    same_as_first(parents, out)
}

fn scalar_out(_parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    if out.iter().product::<usize>() == 1 {
        Ok(())
    } else {
        Err(format!("output {out:?} must be a one-element scalar"))
    }
}

fn matmul_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let (a, b) = (&parents[0], &parents[1]);
    if a.len() != 2 || b.len() != 2 {
        return Err(format!(
            "matmul needs 2-D operands, got {}",
            fmt_shapes(parents)
        ));
    }
    if a[1] != b[0] {
        return Err(format!("inner dimensions disagree: {a:?} × {b:?}"));
    }
    if out == [a[0], b[1]] {
        Ok(())
    } else {
        Err(format!("output {out:?} must be [{}, {}]", a[0], b[1]))
    }
}

fn linear_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    // Fused `x·W + b` (optionally ReLU'd): matmul shapes plus a bias whose
    // element count matches the weight columns.
    matmul_rule(&parents[..2], out)?;
    let (w, b) = (&parents[1], &parents[2]);
    if b.iter().product::<usize>() == w[1] {
        Ok(())
    } else {
        Err(format!("bias {b:?} must have {} elements", w[1]))
    }
}

fn row_broadcast_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let (x, row) = (&parents[0], &parents[1]);
    if x.len() != 2 {
        return Err(format!("lhs must be 2-D, got {x:?}"));
    }
    if row.iter().product::<usize>() != x[1] {
        return Err(format!("row operand {row:?} must have {} elements", x[1]));
    }
    same_as_first(parents, out)
}

fn softmax_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    if parents[0].len() != 2 {
        return Err(format!("input must be 2-D, got {:?}", parents[0]));
    }
    same_as_first(parents, out)
}

fn concat_cols_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let rows = parents[0].first().copied().unwrap_or(0);
    let mut cols = 0;
    for p in parents {
        if p.len() != 2 {
            return Err(format!("concat_cols operand must be 2-D, got {p:?}"));
        }
        if p[0] != rows {
            return Err(format!("row counts differ: {}", fmt_shapes(parents)));
        }
        cols += p[1];
    }
    if out == [rows, cols] {
        Ok(())
    } else {
        Err(format!("output {out:?} must be [{rows}, {cols}]"))
    }
}

fn slice_cols_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let x = &parents[0];
    if x.len() != 2 {
        return Err(format!("input must be 2-D, got {x:?}"));
    }
    if out.len() != 2 || out[0] != x[0] {
        return Err(format!("output {out:?} must keep {} rows", x[0]));
    }
    if out[1] <= x[1] {
        Ok(())
    } else {
        Err(format!("cannot slice {} columns out of {}", out[1], x[1]))
    }
}

fn weighted_sum_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    // Parents are k same-shaped operands followed by a k-element weight
    // vector.
    let k = parents.len() - 1;
    let weights = &parents[k];
    if weights.iter().product::<usize>() != k {
        return Err(format!("weights {weights:?} must have {k} elements"));
    }
    if parents[..k].iter().any(|p| p != &parents[0]) {
        return Err(format!(
            "operand shapes differ: {}",
            fmt_shapes(&parents[..k])
        ));
    }
    same_as_first(parents, out)
}

fn dw_conv1d_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let (x, w) = (&parents[0], &parents[1]);
    if x.len() != 3 || w.len() != 2 {
        return Err(format!(
            "dw_conv1d needs [B,C,L] input and [C,Kw] weight, got {}",
            fmt_shapes(parents)
        ));
    }
    if w[0] != x[1] {
        return Err(format!(
            "weight channels {} vs input channels {}",
            w[0], x[1]
        ));
    }
    if w[1] % 2 == 0 {
        return Err(format!("kernel width {} must be odd", w[1]));
    }
    if out == x.as_slice() {
        Ok(())
    } else {
        Err(format!("output {out:?} must match input {x:?}"))
    }
}

fn gap1d_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let x = &parents[0];
    if x.len() != 3 {
        return Err(format!("input must be [B,C,L], got {x:?}"));
    }
    if out == [x[0], x[1]] {
        Ok(())
    } else {
        Err(format!("output {out:?} must be [{}, {}]", x[0], x[1]))
    }
}

fn to_channels_last_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let x = &parents[0];
    if x.len() != 3 {
        return Err(format!("input must be [B,C,L], got {x:?}"));
    }
    if out == [x[0] * x[2], x[1]] {
        Ok(())
    } else {
        Err(format!(
            "output {out:?} must be [{}, {}]",
            x[0] * x[2],
            x[1]
        ))
    }
}

fn from_channels_last_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let x = &parents[0];
    if x.len() != 2 {
        return Err(format!("input must be [B·L, C], got {x:?}"));
    }
    if out.len() != 3 || out[1] != x[1] || out[0] * out[2] != x[0] {
        return Err(format!(
            "output {out:?} must factor the {} rows of {x:?}",
            x[0]
        ));
    }
    Ok(())
}

fn downsample1d_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let x = &parents[0];
    if x.len() != 3 {
        return Err(format!("input must be [B,C,L], got {x:?}"));
    }
    if out.len() != 3 || out[0] != x[0] || out[1] != x[1] {
        return Err(format!("output {out:?} must keep batch/channels of {x:?}"));
    }
    if out[2] >= 1 && out[2] <= x[2] {
        Ok(())
    } else {
        Err(format!("output length {} must be in [1, {}]", out[2], x[2]))
    }
}

fn reshape_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let (a, b) = (
        parents[0].iter().product::<usize>(),
        out.iter().product::<usize>(),
    );
    if a == b {
        Ok(())
    } else {
        Err(format!("reshape changes element count: {a} -> {b}"))
    }
}

fn batch_norm_rule(parents: &[Vec<usize>], out: &[usize]) -> ShapeCheck {
    let (x, gamma, beta) = (&parents[0], &parents[1], &parents[2]);
    if x.len() != 2 {
        return Err(format!("input must be 2-D, got {x:?}"));
    }
    let n = x[1];
    if gamma.iter().product::<usize>() != n || beta.iter().product::<usize>() != n {
        return Err(format!(
            "gamma {gamma:?} / beta {beta:?} must have {n} elements"
        ));
    }
    same_as_first(parents, out)
}

/// The full op registry. Order is irrelevant; names must be unique.
pub const REGISTRY: &[OpSpec] = &[
    OpSpec {
        name: "add",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: elementwise,
    },
    OpSpec {
        name: "sub",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: elementwise,
    },
    OpSpec {
        name: "mul",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: elementwise,
    },
    OpSpec {
        name: "div",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: elementwise,
    },
    OpSpec {
        name: "scale",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: same_as_first,
    },
    OpSpec {
        name: "add_scalar",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: same_as_first,
    },
    OpSpec {
        name: "relu",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: same_as_first,
    },
    OpSpec {
        name: "sigmoid",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: same_as_first,
    },
    OpSpec {
        name: "tanh",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: same_as_first,
    },
    OpSpec {
        name: "exp",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: same_as_first,
    },
    OpSpec {
        name: "ln",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: same_as_first,
    },
    OpSpec {
        name: "sum",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: scalar_out,
    },
    OpSpec {
        name: "matmul",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: matmul_rule,
    },
    OpSpec {
        name: "linear",
        arity: Arity::Exact(3),
        differentiable: true,
        shape_rule: linear_rule,
    },
    OpSpec {
        name: "linear_relu",
        arity: Arity::Exact(3),
        differentiable: true,
        shape_rule: linear_rule,
    },
    OpSpec {
        name: "add_row_broadcast",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: row_broadcast_rule,
    },
    OpSpec {
        name: "mul_row_broadcast",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: row_broadcast_rule,
    },
    OpSpec {
        name: "softmax",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: softmax_rule,
    },
    OpSpec {
        name: "log_softmax",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: softmax_rule,
    },
    OpSpec {
        name: "concat_cols",
        arity: Arity::AtLeast(1),
        differentiable: true,
        shape_rule: concat_cols_rule,
    },
    OpSpec {
        name: "slice_cols",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: slice_cols_rule,
    },
    OpSpec {
        name: "weighted_sum",
        arity: Arity::AtLeast(2),
        differentiable: true,
        shape_rule: weighted_sum_rule,
    },
    OpSpec {
        name: "dw_conv1d",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: dw_conv1d_rule,
    },
    OpSpec {
        name: "dw_conv1d_relu",
        arity: Arity::Exact(2),
        differentiable: true,
        shape_rule: dw_conv1d_rule,
    },
    OpSpec {
        name: "global_avg_pool1d",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: gap1d_rule,
    },
    OpSpec {
        name: "to_channels_last",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: to_channels_last_rule,
    },
    OpSpec {
        name: "from_channels_last",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: from_channels_last_rule,
    },
    OpSpec {
        name: "downsample1d",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: downsample1d_rule,
    },
    OpSpec {
        name: "reshape",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: reshape_rule,
    },
    OpSpec {
        name: "batch_norm",
        arity: Arity::Exact(3),
        differentiable: true,
        shape_rule: batch_norm_rule,
    },
    OpSpec {
        name: "cross_entropy",
        arity: Arity::Exact(1),
        differentiable: true,
        shape_rule: scalar_out,
    },
];

/// Looks up the spec for an op name; `None` for unregistered ops (the graph
/// linter reports those).
#[must_use]
pub fn op_spec(name: &str) -> Option<&'static OpSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// Op names reserved for leaf nodes; they have no spec on purpose.
pub const LEAF_PARAMETER: &str = "parameter";
/// Leaf op name for constants.
pub const LEAF_CONSTANT: &str = "constant";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate op spec");
            }
        }
    }

    #[test]
    fn lookup_finds_registered_and_rejects_leaves() {
        assert!(op_spec("matmul").is_some());
        assert!(op_spec("parameter").is_none());
        assert!(op_spec("no_such_op").is_none());
    }

    #[test]
    fn matmul_rule_accepts_and_rejects() {
        let parents = vec![vec![3, 4], vec![4, 2]];
        assert!(matmul_rule(&parents, &[3, 2]).is_ok());
        assert!(matmul_rule(&parents, &[3, 3]).is_err());
        assert!(matmul_rule(&[vec![3, 4], vec![5, 2]], &[3, 2]).is_err());
    }

    #[test]
    fn elementwise_rule_rejects_mismatched_operands() {
        assert!(elementwise(&[vec![2, 3], vec![2, 3]], &[2, 3]).is_ok());
        assert!(elementwise(&[vec![2, 3], vec![3, 2]], &[2, 3]).is_err());
        assert!(elementwise(&[vec![2, 3], vec![2, 3]], &[3, 2]).is_err());
    }

    #[test]
    fn structural_rules_hold_for_representative_shapes() {
        assert!(concat_cols_rule(&[vec![1, 7], vec![1, 7]], &[1, 14]).is_ok());
        assert!(concat_cols_rule(&[vec![1, 7], vec![2, 7]], &[3, 7]).is_err());
        assert!(weighted_sum_rule(&[vec![2, 3], vec![2, 3], vec![2]], &[2, 3]).is_ok());
        assert!(weighted_sum_rule(&[vec![2, 3], vec![2, 3], vec![3]], &[2, 3]).is_err());
        assert!(dw_conv1d_rule(&[vec![2, 3, 4], vec![3, 5]], &[2, 3, 4]).is_ok());
        assert!(dw_conv1d_rule(&[vec![2, 3, 4], vec![4, 5]], &[2, 3, 4]).is_err());
        assert!(reshape_rule(&[vec![2, 6]], &[3, 4]).is_ok());
        assert!(reshape_rule(&[vec![2, 6]], &[3, 5]).is_err());
        assert!(from_channels_last_rule(&[vec![8, 3]], &[2, 3, 4]).is_ok());
        assert!(from_channels_last_rule(&[vec![8, 3]], &[2, 3, 5]).is_err());
    }
}
