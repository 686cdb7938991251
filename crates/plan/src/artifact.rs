//! The versioned `dance-plan v1` artifact.
//!
//! Plans persist as line-oriented text, mirroring the guard checkpoint
//! format: every `f32` is written as its exact `to_bits` hex so a reloaded
//! plan is bit-for-bit the plan that was saved, the file ends with an
//! FNV-1a integrity fold over everything before it, and writes go through
//! [`dance_guard::checkpoint::atomic_write_text`] (temp file + rename). Truncation at
//! any byte is rejected — the only admissible prefix is the one that lost
//! no data at all, the cut that dropped just the trailing newline.

use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use dance_backend::{BinaryOp, UnaryOp};

use crate::ir::{BufSpec, ConstSpec, Plan, PlanOp, Ref, Step};

/// The artifact header line.
pub const PLAN_MAGIC: &str = "dance-plan v1";

/// Why an artifact failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl PlanError {
    fn new(msg: impl Into<String>) -> Self {
        Self(msg.into())
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan artifact: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// FNV-1a fold over raw bytes — the same constants the guard checkpoint
/// integrity footer uses.
fn fold_bytes(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes
        .iter()
        .fold(BASIS, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

fn push_f32s(line: &mut String, data: &[f32]) {
    for v in data {
        let _ = write!(line, " {:08x}", v.to_bits());
    }
}

fn op_token(op: &PlanOp) -> String {
    match op {
        PlanOp::Unary(u) => {
            let name = match u {
                UnaryOp::Relu => "relu".to_string(),
                UnaryOp::ReluMask => "relu_mask".to_string(),
                UnaryOp::Sigmoid => "sigmoid".to_string(),
                UnaryOp::SigmoidGrad => "sigmoid_grad".to_string(),
                UnaryOp::Tanh => "tanh".to_string(),
                UnaryOp::TanhGrad => "tanh_grad".to_string(),
                UnaryOp::Exp => "exp".to_string(),
                UnaryOp::LnClamped => "ln".to_string(),
                UnaryOp::LnGradClamped => "ln_grad".to_string(),
                UnaryOp::LnFloor(c) => format!("ln_floor:{:08x}", c.to_bits()),
                UnaryOp::Recip => "recip".to_string(),
                UnaryOp::NegRecipSq => "neg_recip_sq".to_string(),
                UnaryOp::SqrtAdd(c) => format!("sqrt_add:{:08x}", c.to_bits()),
                UnaryOp::RecipSignedClamped(c) => {
                    format!("recip_signed_clamped:{:08x}", c.to_bits())
                }
                UnaryOp::Scale(c) => format!("scale:{:08x}", c.to_bits()),
                UnaryOp::AddScalar(c) => format!("add_scalar:{:08x}", c.to_bits()),
            };
            format!("unary:{name}")
        }
        PlanOp::Binary(b) => {
            let name = match b {
                BinaryOp::Add => "add".to_string(),
                BinaryOp::Sub => "sub".to_string(),
                BinaryOp::Mul => "mul".to_string(),
                BinaryOp::Div => "div".to_string(),
                BinaryOp::MaskMul => "mask_mul".to_string(),
                BinaryOp::AddScaled(c) => format!("add_scaled:{:08x}", c.to_bits()),
            };
            format!("binary:{name}")
        }
        PlanOp::Matmul => "matmul".to_string(),
        PlanOp::Linear => "linear".to_string(),
        PlanOp::LinearRelu => "linear_relu".to_string(),
        PlanOp::Softmax => "softmax".to_string(),
        PlanOp::LogSoftmax => "log_softmax".to_string(),
        PlanOp::AddRowBroadcast => "add_row_broadcast".to_string(),
        PlanOp::MulRowBroadcast => "mul_row_broadcast".to_string(),
        PlanOp::ConcatCols => "concat_cols".to_string(),
        PlanOp::SliceCols { start, len } => format!("slice_cols:{start}:{len}"),
        PlanOp::WeightedSum { weights } => {
            let hex: Vec<String> = weights
                .iter()
                .map(|w| format!("{:08x}", w.to_bits()))
                .collect();
            format!("weighted_sum:{}", hex.join(","))
        }
        PlanOp::DwConv1d => "dw_conv1d".to_string(),
        PlanOp::DwConv1dRelu => "dw_conv1d_relu".to_string(),
        PlanOp::GlobalAvgPool1d => "global_avg_pool1d".to_string(),
        PlanOp::ToChannelsLast => "to_channels_last".to_string(),
        PlanOp::FromChannelsLast => "from_channels_last".to_string(),
        PlanOp::Downsample1d { stride } => format!("downsample1d:{stride}"),
        PlanOp::Copy => "copy".to_string(),
    }
}

fn parse_f32_bits(tok: &str) -> Result<f32, PlanError> {
    u32::from_str_radix(tok, 16)
        .map(f32::from_bits)
        .map_err(|_| PlanError::new(format!("bad f32 bits '{tok}'")))
}

fn parse_usize(tok: &str) -> Result<usize, PlanError> {
    tok.parse()
        .map_err(|_| PlanError::new(format!("bad integer '{tok}'")))
}

fn parse_op(tok: &str) -> Result<PlanOp, PlanError> {
    let mut parts = tok.split(':');
    let head = parts.next().unwrap_or_default();
    let op = match head {
        "unary" => {
            let name = parts
                .next()
                .ok_or_else(|| PlanError::new("unary op missing name"))?;
            let u = match name {
                "relu" => UnaryOp::Relu,
                "relu_mask" => UnaryOp::ReluMask,
                "sigmoid" => UnaryOp::Sigmoid,
                "sigmoid_grad" => UnaryOp::SigmoidGrad,
                "tanh" => UnaryOp::Tanh,
                "tanh_grad" => UnaryOp::TanhGrad,
                "exp" => UnaryOp::Exp,
                "ln" => UnaryOp::LnClamped,
                "ln_grad" => UnaryOp::LnGradClamped,
                "ln_floor" => UnaryOp::LnFloor(parse_f32_bits(
                    parts
                        .next()
                        .ok_or_else(|| PlanError::new("ln_floor missing constant"))?,
                )?),
                "recip" => UnaryOp::Recip,
                "neg_recip_sq" => UnaryOp::NegRecipSq,
                "sqrt_add" => UnaryOp::SqrtAdd(parse_f32_bits(
                    parts
                        .next()
                        .ok_or_else(|| PlanError::new("sqrt_add missing constant"))?,
                )?),
                "recip_signed_clamped" => UnaryOp::RecipSignedClamped(parse_f32_bits(
                    parts
                        .next()
                        .ok_or_else(|| PlanError::new("recip_signed_clamped missing constant"))?,
                )?),
                "scale" => UnaryOp::Scale(parse_f32_bits(
                    parts
                        .next()
                        .ok_or_else(|| PlanError::new("scale missing constant"))?,
                )?),
                "add_scalar" => UnaryOp::AddScalar(parse_f32_bits(
                    parts
                        .next()
                        .ok_or_else(|| PlanError::new("add_scalar missing constant"))?,
                )?),
                other => return Err(PlanError::new(format!("unknown unary op '{other}'"))),
            };
            PlanOp::Unary(u)
        }
        "binary" => {
            let name = parts
                .next()
                .ok_or_else(|| PlanError::new("binary op missing name"))?;
            let b = match name {
                "add" => BinaryOp::Add,
                "sub" => BinaryOp::Sub,
                "mul" => BinaryOp::Mul,
                "div" => BinaryOp::Div,
                "mask_mul" => BinaryOp::MaskMul,
                "add_scaled" => BinaryOp::AddScaled(parse_f32_bits(
                    parts
                        .next()
                        .ok_or_else(|| PlanError::new("add_scaled missing constant"))?,
                )?),
                other => return Err(PlanError::new(format!("unknown binary op '{other}'"))),
            };
            PlanOp::Binary(b)
        }
        "matmul" => PlanOp::Matmul,
        "linear" => PlanOp::Linear,
        "linear_relu" => PlanOp::LinearRelu,
        "softmax" => PlanOp::Softmax,
        "log_softmax" => PlanOp::LogSoftmax,
        "add_row_broadcast" => PlanOp::AddRowBroadcast,
        "mul_row_broadcast" => PlanOp::MulRowBroadcast,
        "concat_cols" => PlanOp::ConcatCols,
        "slice_cols" => {
            let start = parse_usize(
                parts
                    .next()
                    .ok_or_else(|| PlanError::new("slice_cols missing start"))?,
            )?;
            let len = parse_usize(
                parts
                    .next()
                    .ok_or_else(|| PlanError::new("slice_cols missing len"))?,
            )?;
            PlanOp::SliceCols { start, len }
        }
        "weighted_sum" => {
            let list = parts
                .next()
                .ok_or_else(|| PlanError::new("weighted_sum missing weights"))?;
            let weights = list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(parse_f32_bits)
                .collect::<Result<Vec<_>, _>>()?;
            PlanOp::WeightedSum { weights }
        }
        "dw_conv1d" => PlanOp::DwConv1d,
        "dw_conv1d_relu" => PlanOp::DwConv1dRelu,
        "global_avg_pool1d" => PlanOp::GlobalAvgPool1d,
        "to_channels_last" => PlanOp::ToChannelsLast,
        "from_channels_last" => PlanOp::FromChannelsLast,
        "downsample1d" => {
            let stride = parse_usize(
                parts
                    .next()
                    .ok_or_else(|| PlanError::new("downsample1d missing stride"))?,
            )?;
            PlanOp::Downsample1d { stride }
        }
        "copy" => PlanOp::Copy,
        other => return Err(PlanError::new(format!("unknown op '{other}'"))),
    };
    Ok(op)
}

fn parse_ref(tok: &str) -> Result<Ref, PlanError> {
    match tok.split_at_checked(1) {
        Some(("b", rest)) => Ok(Ref::Buf(parse_usize(rest)?)),
        Some(("c", rest)) => Ok(Ref::Const(parse_usize(rest)?)),
        _ => Err(PlanError::new(format!("bad ref '{tok}'"))),
    }
}

fn ref_token(r: Ref) -> String {
    match r {
        Ref::Buf(i) => format!("b{i}"),
        Ref::Const(i) => format!("c{i}"),
    }
}

impl Plan {
    /// Serializes to the `dance-plan v1` text artifact, integrity footer
    /// included.
    #[must_use]
    pub fn serialize(&self) -> String {
        let mut body = String::new();
        let _ = writeln!(body, "{PLAN_MAGIC}");
        let _ = writeln!(body, "max-batch {}", self.max_batch);
        let _ = writeln!(body, "buffers {}", self.buffers.len());
        for b in &self.buffers {
            let mut line = format!("buf {}", b.rows_per_batch);
            for d in &b.rest {
                let _ = write!(line, " {d}");
            }
            let _ = writeln!(body, "{line}");
        }
        let _ = writeln!(body, "consts {}", self.consts.len());
        for c in &self.consts {
            let mut line = format!("const {}", c.shape.len());
            for d in &c.shape {
                let _ = write!(line, " {d}");
            }
            push_f32s(&mut line, &c.data);
            let _ = writeln!(body, "{line}");
        }
        let _ = writeln!(body, "steps {}", self.steps.len());
        for s in &self.steps {
            let mut line = format!("step {} out {} ins", op_token(&s.op), s.out);
            for r in &s.ins {
                let _ = write!(line, " {}", ref_token(*r));
            }
            let _ = writeln!(body, "{line}");
        }
        let mut line = "outputs".to_string();
        for r in &self.outputs {
            let _ = write!(line, " {}", ref_token(*r));
        }
        let _ = writeln!(body, "{line}");
        let fold = fold_bytes(body.as_bytes());
        let _ = writeln!(body, "fold {fold:016x}");
        body
    }

    /// Parses a `dance-plan v1` artifact, rejecting any truncation or
    /// corruption via the integrity footer.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] on format, integrity, or consistency failures.
    pub fn parse(text: &str) -> Result<Plan, PlanError> {
        let trimmed = text.strip_suffix('\n').unwrap_or(text);
        let cut = trimmed
            .rfind('\n')
            .ok_or_else(|| PlanError::new("missing integrity footer"))?;
        let body = &text[..=cut];
        let fold_line = &trimmed[cut + 1..];
        let hex = fold_line
            .strip_prefix("fold ")
            .ok_or_else(|| PlanError::new("missing integrity footer"))?;
        if hex.len() != 16 {
            return Err(PlanError::new("truncated integrity footer"));
        }
        let expect =
            u64::from_str_radix(hex, 16).map_err(|_| PlanError::new("bad integrity footer"))?;
        let got = fold_bytes(body.as_bytes());
        if got != expect {
            return Err(PlanError::new(format!(
                "integrity fold mismatch: stored {expect:016x}, computed {got:016x}"
            )));
        }

        let mut lines = body.lines();
        let mut next = |what: &str| -> Result<&str, PlanError> {
            lines
                .next()
                .ok_or_else(|| PlanError::new(format!("missing {what}")))
        };
        if next("header")? != PLAN_MAGIC {
            return Err(PlanError::new("bad header (not a dance-plan v1 artifact)"));
        }
        let max_batch = {
            let line = next("max-batch")?;
            parse_usize(
                line.strip_prefix("max-batch ")
                    .ok_or_else(|| PlanError::new("bad max-batch line"))?,
            )?
        };
        let n_buffers = parse_usize(
            next("buffers")?
                .strip_prefix("buffers ")
                .ok_or_else(|| PlanError::new("bad buffers line"))?,
        )?;
        let mut buffers = Vec::with_capacity(n_buffers);
        for _ in 0..n_buffers {
            let line = next("buf")?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some("buf") {
                return Err(PlanError::new("bad buf line"));
            }
            let rows_per_batch = parse_usize(
                toks.next()
                    .ok_or_else(|| PlanError::new("buf missing rows"))?,
            )?;
            let rest = toks.map(parse_usize).collect::<Result<Vec<_>, _>>()?;
            buffers.push(BufSpec {
                rows_per_batch,
                rest,
            });
        }
        let n_consts = parse_usize(
            next("consts")?
                .strip_prefix("consts ")
                .ok_or_else(|| PlanError::new("bad consts line"))?,
        )?;
        let mut consts = Vec::with_capacity(n_consts);
        for _ in 0..n_consts {
            let line = next("const")?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some("const") {
                return Err(PlanError::new("bad const line"));
            }
            let ndim = parse_usize(
                toks.next()
                    .ok_or_else(|| PlanError::new("const missing rank"))?,
            )?;
            let mut shape = Vec::with_capacity(ndim);
            for _ in 0..ndim {
                shape.push(parse_usize(
                    toks.next()
                        .ok_or_else(|| PlanError::new("const missing dim"))?,
                )?);
            }
            let numel: usize = shape.iter().product();
            let mut data = Vec::with_capacity(numel);
            for _ in 0..numel {
                data.push(parse_f32_bits(
                    toks.next()
                        .ok_or_else(|| PlanError::new("const missing values"))?,
                )?);
            }
            if toks.next().is_some() {
                return Err(PlanError::new("const has trailing values"));
            }
            consts.push(ConstSpec { shape, data });
        }
        let n_steps = parse_usize(
            next("steps")?
                .strip_prefix("steps ")
                .ok_or_else(|| PlanError::new("bad steps line"))?,
        )?;
        let mut steps = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            let line = next("step")?;
            let mut toks = line.split_whitespace();
            if toks.next() != Some("step") {
                return Err(PlanError::new("bad step line"));
            }
            let op = parse_op(
                toks.next()
                    .ok_or_else(|| PlanError::new("step missing op"))?,
            )?;
            if toks.next() != Some("out") {
                return Err(PlanError::new("step missing 'out'"));
            }
            let out = parse_usize(
                toks.next()
                    .ok_or_else(|| PlanError::new("step missing out index"))?,
            )?;
            if toks.next() != Some("ins") {
                return Err(PlanError::new("step missing 'ins'"));
            }
            let ins = toks.map(parse_ref).collect::<Result<Vec<_>, _>>()?;
            steps.push(Step { op, ins, out });
        }
        let outputs = {
            let line = next("outputs")?;
            let rest = line
                .strip_prefix("outputs")
                .ok_or_else(|| PlanError::new("bad outputs line"))?;
            rest.split_whitespace()
                .map(parse_ref)
                .collect::<Result<Vec<_>, _>>()?
        };
        if lines.next().is_some() {
            return Err(PlanError::new("trailing lines after outputs"));
        }
        let plan = Plan {
            max_batch,
            buffers,
            consts,
            steps,
            outputs,
        };
        plan.validate().map_err(PlanError::new)?;
        Ok(plan)
    }

    /// Atomically writes the artifact to `path` (temp file + rename, parent
    /// directories created).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        dance_guard::checkpoint::atomic_write_text(path, &self.serialize())
    }

    /// Loads and verifies an artifact written by [`Plan::save`].
    ///
    /// # Errors
    ///
    /// I/O failures pass through; parse/integrity failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<Path>) -> io::Result<Plan> {
        let text = std::fs::read_to_string(path)?;
        Plan::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}
