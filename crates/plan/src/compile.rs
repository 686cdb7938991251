//! Freezing: tape graph → static plan.
//!
//! [`freeze`] walks a probe forward pass (an ordinary [`Var`] graph) in the
//! deterministic order of [`dance_autograd::freeze::topo_order`], constant-
//! folds every node that does not depend on the input, translates the rest
//! into [`PlanOp`]s over batch-elastic buffers, and assigns buffers with a
//! liveness scan so activations are reused as soon as their last consumer
//! has run.
//!
//! The contract is *bit-identical replay*: each translated op reruns the
//! same kernel loop nest with the same accumulation order as the tape's
//! forward value computation, so a plan's outputs match the tape's
//! `to_bits`-exactly at any thread count.

use std::collections::{HashMap, HashSet};
use std::fmt;

use dance_autograd::freeze::{dynamic_ids, topo_order};
use dance_autograd::var::{OpAttrs, Var};
use dance_backend::{BinaryOp, UnaryOp};

use crate::ir::{BufSpec, ConstSpec, Plan, PlanOp, Ref, Step};

/// Why a graph cannot be frozen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FreezeError(String);

impl FreezeError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }

    /// An error raised by a caller whose network cannot be frozen for
    /// reasons the compiler cannot see (e.g. stochastic head sampling
    /// chosen at a higher layer).
    pub fn unsupported(msg: impl Into<String>) -> Self {
        Self::new(msg)
    }
}

impl fmt::Display for FreezeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "freeze: {}", self.0)
    }
}

impl std::error::Error for FreezeError {}

/// A step whose operands still name tape nodes (buffer indices are
/// assigned in the later liveness pass).
struct ProtoStep {
    out_id: u64,
    op: PlanOp,
    ins: Vec<ProtoRef>,
}

enum ProtoRef {
    Node(u64),
    Const(usize),
}

struct Folder {
    consts: Vec<ConstSpec>,
    by_node: HashMap<u64, usize>,
}

impl Folder {
    fn intern(&mut self, v: &Var) -> usize {
        if let Some(&idx) = self.by_node.get(&v.id()) {
            return idx;
        }
        let t = v.value();
        let idx = self.consts.len();
        self.consts.push(ConstSpec {
            shape: t.shape().to_vec(),
            data: t.data().to_vec(),
        });
        self.by_node.insert(v.id(), idx);
        idx
    }
}

fn spec_for(v: &Var, b0: usize) -> Result<BufSpec, FreezeError> {
    let shape = v.shape();
    if shape.len() < 2 {
        return Err(FreezeError::new(format!(
            "input-dependent '{}' value has shape {shape:?}; only ≥2-D activations batch-scale",
            v.op()
        )));
    }
    if shape[0] % b0 != 0 {
        return Err(FreezeError::new(format!(
            "input-dependent '{}' has leading dim {} not divisible by probe batch {b0}",
            v.op(),
            shape[0]
        )));
    }
    Ok(BufSpec {
        rows_per_batch: shape[0] / b0,
        rest: shape[1..].to_vec(),
    })
}

/// Resolves a parent that must be input-dependent (an activation).
fn dynamic_parent(
    node: &Var,
    parent: &Var,
    dynamic: &HashSet<u64>,
) -> Result<ProtoRef, FreezeError> {
    if dynamic.contains(&parent.id()) {
        Ok(ProtoRef::Node(parent.id()))
    } else {
        Err(FreezeError::new(format!(
            "op '{}' mixes a batch-shaped constant operand; constants may only enter \
             via matmul weights, row broadcasts, and convolution kernels",
            node.op()
        )))
    }
}

/// Resolves a parent that must be constant-foldable (a weight).
fn folded_parent(
    node: &Var,
    parent: &Var,
    role: &str,
    dynamic: &HashSet<u64>,
    folder: &mut Folder,
) -> Result<ProtoRef, FreezeError> {
    if dynamic.contains(&parent.id()) {
        Err(FreezeError::new(format!(
            "op '{}' has an input-dependent {role}; plans require constant-folded weights",
            node.op()
        )))
    } else {
        Ok(ProtoRef::Const(folder.intern(parent)))
    }
}

#[allow(clippy::too_many_lines)]
fn translate(
    v: &Var,
    dynamic: &HashSet<u64>,
    folder: &mut Folder,
) -> Result<(PlanOp, Vec<ProtoRef>), FreezeError> {
    let parents = v.parents();
    let op =
        match v.op() {
            "add" => PlanOp::Binary(BinaryOp::Add),
            "sub" => PlanOp::Binary(BinaryOp::Sub),
            "mul" => PlanOp::Binary(BinaryOp::Mul),
            "div" => PlanOp::Binary(BinaryOp::Div),
            "relu" => PlanOp::Unary(UnaryOp::Relu),
            "sigmoid" => PlanOp::Unary(UnaryOp::Sigmoid),
            "tanh" => PlanOp::Unary(UnaryOp::Tanh),
            "exp" => PlanOp::Unary(UnaryOp::Exp),
            "ln" => PlanOp::Unary(UnaryOp::LnClamped),
            "scale" => match v.attrs() {
                OpAttrs::Scalar(c) => PlanOp::Unary(UnaryOp::Scale(c)),
                a => return Err(FreezeError::new(format!("scale node missing attrs: {a:?}"))),
            },
            "add_scalar" => match v.attrs() {
                OpAttrs::Scalar(c) => PlanOp::Unary(UnaryOp::AddScalar(c)),
                a => {
                    return Err(FreezeError::new(format!(
                        "add_scalar node missing attrs: {a:?}"
                    )))
                }
            },
            "matmul" => PlanOp::Matmul,
            "linear" => PlanOp::Linear,
            "linear_relu" => PlanOp::LinearRelu,
            "softmax" => PlanOp::Softmax,
            "log_softmax" => PlanOp::LogSoftmax,
            "add_row_broadcast" => PlanOp::AddRowBroadcast,
            "mul_row_broadcast" => PlanOp::MulRowBroadcast,
            "concat_cols" => PlanOp::ConcatCols,
            "slice_cols" => match v.attrs() {
                OpAttrs::ColRange { start, len } => PlanOp::SliceCols { start, len },
                a => {
                    return Err(FreezeError::new(format!(
                        "slice_cols node missing attrs: {a:?}"
                    )))
                }
            },
            "weighted_sum" => {
                let weights_var = parents
                    .last()
                    .ok_or_else(|| FreezeError::new("weighted_sum without weights parent"))?;
                if dynamic.contains(&weights_var.id()) {
                    return Err(FreezeError::new(
                        "weighted_sum with input-dependent mixture weights cannot be frozen \
                     (derive a fixed architecture first)",
                    ));
                }
                PlanOp::WeightedSum {
                    weights: weights_var.value().data().to_vec(),
                }
            }
            "dw_conv1d" => PlanOp::DwConv1d,
            "dw_conv1d_relu" => PlanOp::DwConv1dRelu,
            "global_avg_pool1d" => PlanOp::GlobalAvgPool1d,
            "to_channels_last" => PlanOp::ToChannelsLast,
            "from_channels_last" => PlanOp::FromChannelsLast,
            "downsample1d" => match v.attrs() {
                OpAttrs::Stride(stride) => PlanOp::Downsample1d { stride },
                a => {
                    return Err(FreezeError::new(format!(
                        "downsample1d node missing attrs: {a:?}"
                    )))
                }
            },
            "reshape" => PlanOp::Copy,
            "sum" | "mean" => {
                return Err(FreezeError::new(format!(
                    "'{}' collapses the batch axis and cannot batch-scale in a plan",
                    v.op()
                )))
            }
            "batch_norm" => return Err(FreezeError::new(
                "training-mode batch_norm in the graph; call set_training(false) before freezing",
            )),
            other => {
                return Err(FreezeError::new(format!(
                    "unsupported op '{other}' on the frozen path"
                )))
            }
        };

    // Resolve operands with per-op constness rules.
    let ins = match &op {
        PlanOp::Matmul => {
            vec![
                dynamic_parent(v, &parents[0], dynamic)?,
                folded_parent(v, &parents[1], "matmul weight", dynamic, folder)?,
            ]
        }
        PlanOp::Linear | PlanOp::LinearRelu => {
            vec![
                dynamic_parent(v, &parents[0], dynamic)?,
                folded_parent(v, &parents[1], "linear weight", dynamic, folder)?,
                folded_parent(v, &parents[2], "linear bias", dynamic, folder)?,
            ]
        }
        PlanOp::AddRowBroadcast | PlanOp::MulRowBroadcast => {
            vec![
                dynamic_parent(v, &parents[0], dynamic)?,
                folded_parent(v, &parents[1], "broadcast row", dynamic, folder)?,
            ]
        }
        PlanOp::DwConv1d | PlanOp::DwConv1dRelu => {
            vec![
                dynamic_parent(v, &parents[0], dynamic)?,
                folded_parent(v, &parents[1], "conv kernel", dynamic, folder)?,
            ]
        }
        PlanOp::WeightedSum { .. } => {
            let k = parents.len() - 1; // last parent is the weights vector
            parents[..k]
                .iter()
                .map(|p| dynamic_parent(v, p, dynamic))
                .collect::<Result<Vec<_>, _>>()?
        }
        _ => parents
            .iter()
            .map(|p| dynamic_parent(v, p, dynamic))
            .collect::<Result<Vec<_>, _>>()?,
    };
    Ok((op, ins))
}

/// Shape/arity checks that need both operand and result specs.
fn check_step(
    op: &PlanOp,
    ins: &[ProtoRef],
    out: &BufSpec,
    spec_of: &HashMap<u64, BufSpec>,
    consts: &[ConstSpec],
) -> Result<(), FreezeError> {
    let in_spec = |r: &ProtoRef| -> (usize, Vec<usize>) {
        match r {
            ProtoRef::Node(id) => {
                let s = &spec_of[id];
                (s.rows_per_batch, s.rest.clone())
            }
            ProtoRef::Const(c) => {
                let s = &consts[*c].shape;
                (s[0], s[1..].to_vec())
            }
        }
    };
    match op {
        PlanOp::Matmul | PlanOp::Linear | PlanOp::LinearRelu => {
            let (_, a_rest) = in_spec(&ins[0]);
            if a_rest.len() != 1 {
                return Err(FreezeError::new("matmul lhs is not 2-D"));
            }
            let w = &consts[match ins[1] {
                ProtoRef::Const(c) => c,
                ProtoRef::Node(_) => unreachable!("matmul rhs folded above"),
            }];
            if w.shape.len() != 2 || w.shape[0] != a_rest[0] {
                return Err(FreezeError::new(format!(
                    "matmul weight shape {:?} does not match lhs inner dim {}",
                    w.shape, a_rest[0]
                )));
            }
            if matches!(op, PlanOp::Linear | PlanOp::LinearRelu) {
                let bias = &consts[match ins[2] {
                    ProtoRef::Const(c) => c,
                    ProtoRef::Node(_) => unreachable!("linear bias folded above"),
                }];
                if bias.data.len() != w.shape[1] {
                    return Err(FreezeError::new(format!(
                        "linear bias length {} does not match weight columns {}",
                        bias.data.len(),
                        w.shape[1]
                    )));
                }
            }
        }
        PlanOp::AddRowBroadcast | PlanOp::MulRowBroadcast => {
            let (_, x_rest) = in_spec(&ins[0]);
            let row = &consts[match ins[1] {
                ProtoRef::Const(c) => c,
                ProtoRef::Node(_) => unreachable!("broadcast row folded above"),
            }];
            if x_rest.len() != 1 || row.data.len() != x_rest[0] {
                return Err(FreezeError::new("row broadcast width mismatch"));
            }
        }
        PlanOp::ConcatCols => {
            for r in ins {
                let (rpb, rest) = in_spec(r);
                if rest.len() != 1 || rpb != out.rows_per_batch {
                    return Err(FreezeError::new("concat_cols operand shape mismatch"));
                }
            }
        }
        PlanOp::Copy => {
            let (rpb, rest) = in_spec(&ins[0]);
            let in_pb = rpb * rest.iter().product::<usize>();
            if in_pb != out.numel(1) {
                return Err(FreezeError::new(
                    "reshape changes per-batch element count across the batch axis",
                ));
            }
        }
        PlanOp::Softmax | PlanOp::LogSoftmax | PlanOp::SliceCols { .. } => {
            let (_, rest) = in_spec(&ins[0]);
            if rest.len() != 1 {
                return Err(FreezeError::new("row-wise op on a non-2-D activation"));
            }
        }
        PlanOp::DwConv1d
        | PlanOp::DwConv1dRelu
        | PlanOp::GlobalAvgPool1d
        | PlanOp::ToChannelsLast
        | PlanOp::Downsample1d { .. } => {
            let (_, rest) = in_spec(&ins[0]);
            if rest.len() != 2 {
                return Err(FreezeError::new(
                    "1-D conv family op on a non-3-D activation",
                ));
            }
        }
        PlanOp::FromChannelsLast => {
            if out.rest.len() != 2 {
                return Err(FreezeError::new("from_channels_last output is not 3-D"));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Compiles the graph reachable from `outputs` into a [`Plan`].
///
/// `input` is the single batch-elastic entry point (buffer 0); its probe
/// leading dimension defines one "batch unit", and the compiled plan
/// executes any batch in `1..=max_batch` of such units. Everything not
/// reachable from `input` is constant-folded from the probe values.
///
/// # Errors
///
/// Returns [`FreezeError`] when the graph contains stochastic sampling,
/// batch-collapsing reductions, training-mode batch norm, input-dependent
/// weights, or values that cannot batch-scale.
///
/// # Panics
///
/// Panics if `max_batch` is zero or `input` is not at least 2-D with a
/// non-zero leading dimension.
pub fn freeze(input: &Var, outputs: &[Var], max_batch: usize) -> Result<Plan, FreezeError> {
    assert!(max_batch > 0, "max_batch must be positive");
    let in_shape = input.shape();
    assert!(
        in_shape.len() >= 2 && in_shape[0] > 0,
        "plan input must be ≥2-D with a non-empty batch axis, got {in_shape:?}"
    );
    if outputs.is_empty() {
        return Err(FreezeError::new("no outputs to freeze"));
    }
    let b0 = in_shape[0];
    let topo = topo_order(outputs);
    let dynamic = dynamic_ids(input, &topo);

    let mut folder = Folder {
        consts: Vec::new(),
        by_node: HashMap::new(),
    };
    let mut spec_of: HashMap<u64, BufSpec> = HashMap::new();
    spec_of.insert(input.id(), spec_for(input, b0)?);
    let mut proto: Vec<ProtoStep> = Vec::new();

    for v in &topo {
        let id = v.id();
        if !dynamic.contains(&id) || id == input.id() {
            continue; // folded lazily when referenced, or the input itself
        }
        let (op, ins) = translate(v, &dynamic, &mut folder)?;
        let out_spec = spec_for(v, b0)?;
        check_step(&op, &ins, &out_spec, &spec_of, &folder.consts)?;
        spec_of.insert(id, out_spec);
        proto.push(ProtoStep {
            out_id: id,
            op,
            ins,
        });
    }

    // Liveness: the last proto step that reads each node. Outputs (and the
    // input) are pinned alive for the whole run.
    let mut last_use: HashMap<u64, usize> = HashMap::new();
    for (i, p) in proto.iter().enumerate() {
        for r in &p.ins {
            if let ProtoRef::Node(id) = r {
                last_use.insert(*id, i);
            }
        }
    }
    last_use.insert(input.id(), usize::MAX);
    for out in outputs {
        last_use.insert(out.id(), usize::MAX);
    }

    // Buffer assignment with same-shape reuse.
    let mut buffers: Vec<BufSpec> = vec![spec_of[&input.id()].clone()];
    let mut buffer_of: HashMap<u64, usize> = HashMap::new();
    buffer_of.insert(input.id(), 0);
    let mut free: HashMap<BufSpec, Vec<usize>> = HashMap::new();
    let mut steps: Vec<Step> = Vec::new();

    for (i, p) in proto.iter().enumerate() {
        let spec = spec_of[&p.out_id].clone();
        let out = match free.get_mut(&spec).and_then(Vec::pop) {
            Some(idx) => idx,
            None => {
                buffers.push(spec);
                buffers.len() - 1
            }
        };
        buffer_of.insert(p.out_id, out);
        let ins: Vec<Ref> = p
            .ins
            .iter()
            .map(|r| match r {
                ProtoRef::Node(id) => Ref::Buf(buffer_of[id]),
                ProtoRef::Const(c) => Ref::Const(*c),
            })
            .collect();
        steps.push(Step {
            op: p.op.clone(),
            ins,
            out,
        });
        // Release operands whose last consumer just ran (after allocating
        // `out`, so an output buffer never aliases this step's inputs).
        let mut released: HashSet<u64> = HashSet::new();
        for r in &p.ins {
            if let ProtoRef::Node(id) = r {
                if last_use.get(id) == Some(&i) && released.insert(*id) {
                    free.entry(spec_of[id].clone())
                        .or_default()
                        .push(buffer_of[id]);
                }
            }
        }
    }

    let out_refs: Vec<Ref> = outputs
        .iter()
        .map(|v| {
            if dynamic.contains(&v.id()) {
                Ref::Buf(buffer_of[&v.id()])
            } else {
                Ref::Const(folder.intern(v))
            }
        })
        .collect();

    let plan = Plan {
        max_batch,
        buffers,
        consts: folder.consts,
        steps,
        outputs: out_refs,
    };
    plan.validate()
        .map_err(|e| FreezeError::new(format!("internal plan inconsistency: {e}")))?;
    Ok(plan)
}
