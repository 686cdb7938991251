//! Protocol schema v1: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, always in order per
//! connection. Every request carries `"v": 1`, a client-chosen `"id"`
//! (echoed verbatim in the response) and an `"op"`; an optional
//! `"deadline_ms"` bounds how long the request may wait in a server queue
//! before it is shed with `503`. An optional field that is absent takes its
//! default; one that is present but invalid is a `400` that names it.
//!
//! | op               | request fields                                              |
//! |------------------|-------------------------------------------------------------|
//! | `cost/analytic`  | `choices` (9 × 0‥6), `cfg` (0‥4334), optional `detail`      |
//! | `cost/predict`   | `arch` (finite floats, evaluator encoding width)            |
//! | `campaign/submit`| `lambda2[]`, `dataset_seeds[]`, `envelopes[]`, `epochs`, `batch`, `seed`, `max_concurrency` (all optional) |
//! | `campaign/status`| `campaign`                                                  |
//! | `campaign/stream`| `campaign`, optional `from` (replay offset)                 |
//! | `campaign/cancel`| `campaign`                                                  |
//! | `fleet/submit`   | `epochs`, `batch`, `seed`, `lambda2`, `penalty` (`flops`\|`none`) (all optional; job id is the spec digest, so resubmission dedupes) |
//! | `fleet/status`   | `job` (a finished job also reports its `choices`, `final_entropy` and guard counters) |
//! | `fleet/drain`    | —                                                           |
//! | `health`         | —                                                           |
//! | `admin/shutdown` | —                                                           |
//!
//! Success responses are `{"v":1,"id":…,"ok":true,…}`; failures are
//! `{"v":1,"id":…,"ok":false,"code":N,"err":"…"}` with HTTP-flavored codes
//! (`400` malformed, `404` unknown job, `503` overloaded/draining, `500`
//! internal). Responses for cacheable ops are rendered once and replayed
//! byte-identically on cache hits.

use dance_fleet::prelude::JobSpec;
use dance_telemetry::json::{self, push_escaped, push_num, Json};

/// Protocol schema version accepted and emitted by this build.
pub const PROTOCOL_VERSION: u64 = 1;

/// Number of slot choices per architecture in the served template.
pub const NUM_SLOTS: usize = 9;

/// Cardinality of each slot choice.
pub const NUM_CHOICES: usize = 7;

/// The operation (and payload) of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum ReqBody {
    /// Exact analytical cost of a discrete (architecture, config) pair.
    CostAnalytic {
        /// Per-slot candidate indices (`NUM_SLOTS` values in `0..NUM_CHOICES`).
        choices: Vec<u8>,
        /// Canonical hardware-space index.
        cfg: usize,
        /// Include the per-layer mapping/cost breakdown in the response.
        detail: bool,
    },
    /// Learned-evaluator metric prediction for one architecture encoding.
    CostPredict {
        /// Architecture encoding row (finite floats).
        arch: Vec<f32>,
    },
    /// Submit a co-search campaign over a λ₂ × dataset × envelope grid.
    CampaignSubmit {
        /// λ₂ axis (finite, non-negative).
        lambda2: Vec<f32>,
        /// Dataset-seed axis.
        dataset_seeds: Vec<u64>,
        /// Envelope names (resolved server-side; unknown names are `400`).
        envelopes: Vec<String>,
        /// Search epochs per cell.
        epochs: usize,
        /// Search batch size per cell.
        batch: usize,
        /// Campaign master seed.
        seed: u64,
        /// Concurrent cell searches (`0` → backend pool width).
        max_concurrency: usize,
    },
    /// Poll a campaign's state (and summary once finished).
    CampaignStatus {
        /// Campaign id returned by `campaign/submit`.
        campaign: String,
    },
    /// Follow a campaign's `frontier_update` stream from an offset.
    CampaignStream {
        /// Campaign id returned by `campaign/submit`.
        campaign: String,
        /// First event sequence number to replay (0 = from the start).
        from: usize,
    },
    /// Cancel a running campaign (its directory stays resumable offline).
    CampaignCancel {
        /// Campaign id returned by `campaign/submit`.
        campaign: String,
    },
    /// Submit a guarded search job to the fleet. Idempotent: the job id is
    /// the digest of the spec, so resubmitting the same spec (e.g. a client
    /// retry after a transport failure) returns the existing job.
    FleetSubmit {
        /// The job, submitted unchanged. Its seed is a JSON number (f64) on
        /// the wire, so seeds above 2^53 are refused.
        spec: JobSpec,
    },
    /// Poll a fleet job's state (attempt count, worker, and its result
    /// once done).
    FleetStatus {
        /// Job id returned by `fleet/submit`.
        job: String,
    },
    /// Stop the fleet accepting new jobs; in-flight jobs run to completion.
    FleetDrain,
    /// Liveness + guard/cache/queue introspection.
    Health,
    /// Begin a graceful drain; the server exits once in-flight work is done.
    Shutdown,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: String,
    /// Queue-wait budget in milliseconds (`None` → server default).
    pub deadline_ms: Option<u64>,
    /// The operation payload.
    pub body: ReqBody,
}

/// A protocol error: the numeric code and human-readable message of an
/// `ok:false` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// HTTP-flavored status code.
    pub code: u16,
    /// Human-readable explanation.
    pub msg: String,
}

impl ProtoError {
    /// A `400 Bad Request` error.
    pub fn bad_request(msg: impl Into<String>) -> Self {
        Self {
            code: 400,
            msg: msg.into(),
        }
    }

    /// A `404 Not Found` error (unknown job id).
    pub fn not_found(msg: impl Into<String>) -> Self {
        Self {
            code: 404,
            msg: msg.into(),
        }
    }

    /// A `503 Overloaded` error — bounded queue full, deadline exceeded
    /// while queued, or the server is draining.
    pub fn overloaded(msg: impl Into<String>) -> Self {
        Self {
            code: 503,
            msg: msg.into(),
        }
    }

    /// A `500 Internal` error.
    pub fn internal(msg: impl Into<String>) -> Self {
        Self {
            code: 500,
            msg: msg.into(),
        }
    }
}

/// A finite, non-negative JSON number.
fn as_weight(n: &Json) -> Option<f32> {
    n.as_f64()
        .filter(|n| n.is_finite() && *n >= 0.0)
        .map(|n| n as f32)
}

fn as_bool(b: &Json) -> Option<bool> {
    match b {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Reads the optional field `key` with `read`: `None` when it is absent,
/// a `400` naming it and what it `must` be when it is present but invalid.
fn optional<'a, T>(
    v: &'a Json,
    key: &str,
    must: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, ProtoError> {
    v.get(key)
        .map(|x| read(x).ok_or_else(|| ProtoError::bad_request(format!("`{key}` must be {must}"))))
        .transpose()
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, ProtoError> {
    optional(v, key, "an integer in 0..=2^53", Json::as_u64)
}

/// Reads the optional array field `key`, each entry with `read`; an absent
/// or empty array takes `default`.
fn opt_list<T>(
    v: &Json,
    key: &str,
    must: &str,
    read: impl Fn(&Json) -> Option<T>,
    default: Vec<T>,
) -> Result<Vec<T>, ProtoError> {
    let Some(arr) = optional(v, key, "an array", Json::as_arr)? else {
        return Ok(default);
    };
    let mut out = Vec::with_capacity(arr.len());
    for (i, item) in arr.iter().enumerate() {
        out.push(
            read(item)
                .ok_or_else(|| ProtoError::bad_request(format!("`{key}[{i}]` must be {must}")))?,
        );
    }
    Ok(if out.is_empty() { default } else { out })
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`ProtoError`] with code 400 describing the first problem:
/// malformed JSON, wrong/missing schema version, missing id/op, or an
/// op-specific field that is missing or invalid.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let v = json::parse(line).map_err(|e| ProtoError::bad_request(format!("bad json: {e}")))?;
    match v.get("v").and_then(Json::as_u64) {
        Some(PROTOCOL_VERSION) => {}
        Some(other) => {
            return Err(ProtoError::bad_request(format!(
                "unsupported schema version {other} (this server speaks v{PROTOCOL_VERSION})"
            )))
        }
        None => return Err(ProtoError::bad_request("missing schema version field `v`")),
    }
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad_request("missing string field `id`"))?
        .to_string();
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::bad_request("missing string field `op`"))?;
    let deadline_ms = opt_u64(&v, "deadline_ms")?;
    let body = match op {
        "cost/analytic" => {
            let arr = v
                .get("choices")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::bad_request("cost/analytic needs `choices` array"))?;
            if arr.len() != NUM_SLOTS {
                return Err(ProtoError::bad_request(format!(
                    "`choices` must have {NUM_SLOTS} entries, got {}",
                    arr.len()
                )));
            }
            let mut choices = Vec::with_capacity(NUM_SLOTS);
            for (i, item) in arr.iter().enumerate() {
                let n = item.as_f64().unwrap_or(-1.0);
                // lint: allow(float-eq) fract()==0.0 is the integrality test
                if !(n.is_finite() && n.fract() == 0.0 && (0.0..NUM_CHOICES as f64).contains(&n)) {
                    return Err(ProtoError::bad_request(format!(
                        "`choices[{i}]` must be an integer in 0..{NUM_CHOICES}"
                    )));
                }
                choices.push(n as u8);
            }
            let cfg = v
                .get("cfg")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError::bad_request("cost/analytic needs integer `cfg`"))?
                as usize;
            ReqBody::CostAnalytic {
                choices,
                cfg,
                detail: optional(&v, "detail", "a boolean", as_bool)?.unwrap_or(false),
            }
        }
        "cost/predict" => {
            let arr = v
                .get("arch")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProtoError::bad_request("cost/predict needs `arch` array"))?;
            let mut arch = Vec::with_capacity(arr.len());
            for (i, item) in arr.iter().enumerate() {
                let n = item.as_f64().filter(|n| n.is_finite()).ok_or_else(|| {
                    ProtoError::bad_request(format!("`arch[{i}]` must be a finite number"))
                })?;
                arch.push(n as f32);
            }
            ReqBody::CostPredict { arch }
        }
        "campaign/submit" => ReqBody::CampaignSubmit {
            lambda2: opt_list(
                &v,
                "lambda2",
                "a finite number >= 0",
                as_weight,
                vec![0.1, 0.3],
            )?,
            dataset_seeds: opt_list(
                &v,
                "dataset_seeds",
                "an integer in 0..=2^53",
                Json::as_u64,
                vec![0],
            )?,
            envelopes: opt_list(
                &v,
                "envelopes",
                "a string",
                |e| e.as_str().map(str::to_string),
                vec!["full".into()],
            )?,
            epochs: opt_u64(&v, "epochs")?.unwrap_or(2) as usize,
            batch: opt_u64(&v, "batch")?.unwrap_or(16) as usize,
            seed: opt_u64(&v, "seed")?.unwrap_or(0),
            max_concurrency: opt_u64(&v, "max_concurrency")?.unwrap_or(0) as usize,
        },
        "campaign/status" | "campaign/stream" | "campaign/cancel" => {
            let campaign = v
                .get("campaign")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::bad_request(format!("{op} needs string `campaign`")))?
                .to_string();
            match op {
                "campaign/status" => ReqBody::CampaignStatus { campaign },
                "campaign/stream" => ReqBody::CampaignStream {
                    campaign,
                    from: opt_u64(&v, "from")?.unwrap_or(0) as usize,
                },
                _ => ReqBody::CampaignCancel { campaign },
            }
        }
        "fleet/submit" => {
            let spec = JobSpec::new(
                opt_u64(&v, "epochs")?.unwrap_or(4),
                opt_u64(&v, "batch")?.unwrap_or(32),
                opt_u64(&v, "seed")?.unwrap_or(0),
                optional(&v, "lambda2", "a finite number >= 0", as_weight)?.unwrap_or(0.1),
            );
            let penalty = |p: &Json| match p.as_str()? {
                "flops" => Some(true),
                "none" => Some(false),
                _ => None,
            };
            let flops_penalty =
                optional(&v, "penalty", "`flops` or `none`", penalty)?.unwrap_or(true);
            ReqBody::FleetSubmit {
                spec: JobSpec {
                    flops_penalty,
                    ..spec
                },
            }
        }
        "fleet/status" => ReqBody::FleetStatus {
            job: v
                .get("job")
                .and_then(Json::as_str)
                .ok_or_else(|| ProtoError::bad_request("fleet/status needs string `job`"))?
                .to_string(),
        },
        "fleet/drain" => ReqBody::FleetDrain,
        "health" => ReqBody::Health,
        "admin/shutdown" => ReqBody::Shutdown,
        other => return Err(ProtoError::bad_request(format!("unknown op {other:?}"))),
    };
    Ok(Request {
        id,
        deadline_ms,
        body,
    })
}

/// Renders a request as one protocol line (no trailing newline) — the
/// client-side inverse of [`parse_request`].
pub fn render_request(req: &Request) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"v\":1,\"id\":");
    push_escaped(&mut out, &req.id);
    if let Some(d) = req.deadline_ms {
        out.push_str(",\"deadline_ms\":");
        push_num(&mut out, d as f64);
    }
    out.push_str(",\"op\":");
    match &req.body {
        ReqBody::CostAnalytic {
            choices,
            cfg,
            detail,
        } => {
            out.push_str("\"cost/analytic\",\"choices\":[");
            for (i, c) in choices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_num(&mut out, f64::from(*c));
            }
            out.push_str("],\"cfg\":");
            push_num(&mut out, *cfg as f64);
            if *detail {
                out.push_str(",\"detail\":true");
            }
        }
        ReqBody::CostPredict { arch } => {
            out.push_str("\"cost/predict\",\"arch\":[");
            for (i, x) in arch.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_num(&mut out, f64::from(*x));
            }
            out.push(']');
        }
        ReqBody::CampaignSubmit {
            lambda2,
            dataset_seeds,
            envelopes,
            epochs,
            batch,
            seed,
            max_concurrency,
        } => {
            out.push_str("\"campaign/submit\",\"lambda2\":[");
            for (i, l) in lambda2.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_num(&mut out, f64::from(*l));
            }
            out.push_str("],\"dataset_seeds\":[");
            for (i, s) in dataset_seeds.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_num(&mut out, *s as f64);
            }
            out.push_str("],\"envelopes\":[");
            for (i, e) in envelopes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_escaped(&mut out, e);
            }
            out.push_str("],\"epochs\":");
            push_num(&mut out, *epochs as f64);
            out.push_str(",\"batch\":");
            push_num(&mut out, *batch as f64);
            out.push_str(",\"seed\":");
            push_num(&mut out, *seed as f64);
            out.push_str(",\"max_concurrency\":");
            push_num(&mut out, *max_concurrency as f64);
        }
        ReqBody::CampaignStatus { campaign } => {
            out.push_str("\"campaign/status\",\"campaign\":");
            push_escaped(&mut out, campaign);
        }
        ReqBody::CampaignStream { campaign, from } => {
            out.push_str("\"campaign/stream\",\"campaign\":");
            push_escaped(&mut out, campaign);
            out.push_str(",\"from\":");
            push_num(&mut out, *from as f64);
        }
        ReqBody::CampaignCancel { campaign } => {
            out.push_str("\"campaign/cancel\",\"campaign\":");
            push_escaped(&mut out, campaign);
        }
        ReqBody::FleetSubmit { spec } => {
            out.push_str("\"fleet/submit\",\"epochs\":");
            push_num(&mut out, spec.epochs as f64);
            out.push_str(",\"batch\":");
            push_num(&mut out, spec.batch as f64);
            out.push_str(",\"seed\":");
            push_num(&mut out, spec.seed as f64);
            out.push_str(",\"lambda2\":");
            push_num(&mut out, f64::from(spec.lambda2()));
            out.push_str(",\"penalty\":");
            push_escaped(&mut out, if spec.flops_penalty { "flops" } else { "none" });
        }
        ReqBody::FleetStatus { job } => {
            out.push_str("\"fleet/status\",\"job\":");
            push_escaped(&mut out, job);
        }
        ReqBody::FleetDrain => out.push_str("\"fleet/drain\""),
        ReqBody::Health => out.push_str("\"health\""),
        ReqBody::Shutdown => out.push_str("\"admin/shutdown\""),
    }
    out.push('}');
    out
}

/// Renders a success response line: `{"v":1,"id":…,"ok":true,<payload>}`.
///
/// `payload` is a comma-led-less fragment of `"key":value` pairs (no braces)
/// rendered by the endpoint handlers; an empty payload is allowed. Cache-hit
/// replays reuse the stored payload so the bytes match the cold response.
pub fn render_ok(id: &str, payload: &str) -> String {
    let mut out = String::with_capacity(32 + payload.len());
    out.push_str("{\"v\":1,\"id\":");
    push_escaped(&mut out, id);
    out.push_str(",\"ok\":true");
    if !payload.is_empty() {
        out.push(',');
        out.push_str(payload);
    }
    out.push('}');
    out
}

/// Renders a failure response line.
pub fn render_err(id: &str, err: &ProtoError) -> String {
    let mut out = String::with_capacity(64);
    out.push_str("{\"v\":1,\"id\":");
    push_escaped(&mut out, id);
    out.push_str(",\"ok\":false,\"code\":");
    push_num(&mut out, f64::from(err.code));
    out.push_str(",\"err\":");
    push_escaped(&mut out, &err.msg);
    out.push('}');
    out
}

/// The cache key of a request, when its op is cacheable.
///
/// Float payloads are quantized to 1e-6 so that requests within the same
/// quantization bucket share an entry (and therefore a byte-identical
/// response). Fleet, campaign and admin ops are never cached.
pub fn cache_key(body: &ReqBody) -> Option<String> {
    match body {
        ReqBody::CostAnalytic {
            choices,
            cfg,
            detail,
        } => {
            let mut key = String::with_capacity(32);
            key.push_str("a|");
            for c in choices {
                key.push((b'0' + *c) as char);
            }
            key.push('|');
            key.push_str(&cfg.to_string());
            if *detail {
                key.push_str("|d");
            }
            Some(key)
        }
        ReqBody::CostPredict { arch } => {
            let mut key = String::with_capacity(8 + arch.len() * 8);
            key.push_str("p|");
            for x in arch {
                // 1e-6 quantization; inputs are validated finite.
                let q = (f64::from(*x) * 1e6).round() as i64;
                key.push_str(&q.to_string());
                key.push(',');
            }
            Some(key)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(req: &Request) {
        let line = render_request(req);
        let back = parse_request(&line).expect("rendered request parses");
        assert_eq!(&back, req, "line: {line}");
    }

    #[test]
    fn analytic_roundtrips() {
        roundtrip(&Request {
            id: "c-1".into(),
            deadline_ms: Some(25),
            body: ReqBody::CostAnalytic {
                choices: vec![0, 1, 2, 3, 4, 5, 6, 0, 1],
                cfg: 4334,
                detail: true,
            },
        });
    }

    #[test]
    fn predict_roundtrips_including_awkward_floats() {
        roundtrip(&Request {
            id: "p/α".into(),
            deadline_ms: None,
            body: ReqBody::CostPredict {
                arch: vec![0.0, 1.0, 0.142_857_15, 1e-30, -3.5],
            },
        });
    }

    #[test]
    fn campaign_ops_roundtrip() {
        for body in [
            ReqBody::CampaignSubmit {
                lambda2: vec![0.1, 0.25, 0.5],
                dataset_seeds: vec![0, 7],
                envelopes: vec!["full".into(), "edge".into()],
                epochs: 3,
                batch: 16,
                seed: 9,
                max_concurrency: 2,
            },
            ReqBody::CampaignStatus {
                campaign: "camp-0".into(),
            },
            ReqBody::CampaignStream {
                campaign: "camp-1".into(),
                from: 12,
            },
            ReqBody::CampaignCancel {
                campaign: "camp-2".into(),
            },
        ] {
            roundtrip(&Request {
                id: "camp".into(),
                deadline_ms: None,
                body,
            });
        }
    }

    #[test]
    fn fleet_and_admin_ops_roundtrip() {
        for body in [
            ReqBody::FleetSubmit {
                spec: JobSpec::new(6, 32, 11, 0.25),
            },
            ReqBody::FleetSubmit {
                spec: JobSpec {
                    flops_penalty: false,
                    ..JobSpec::new(3, 16, 42, 0.1)
                },
            },
            ReqBody::FleetStatus {
                job: "fjob-00ff".into(),
            },
            ReqBody::FleetDrain,
            ReqBody::Health,
            ReqBody::Shutdown,
        ] {
            roundtrip(&Request {
                id: "fleet".into(),
                deadline_ms: None,
                body,
            });
        }
    }

    #[test]
    fn fleet_submit_defaults_and_rejections() {
        let req = parse_request(r#"{"v":1,"id":"a","op":"fleet/submit"}"#).expect("parses");
        assert_eq!(
            req.body,
            ReqBody::FleetSubmit {
                spec: JobSpec::new(4, 32, 0, 0.1),
            }
        );
        let err = parse_request(r#"{"v":1,"id":"a","op":"fleet/status"}"#).expect_err("no job");
        assert_eq!(err.code, 400);
    }

    #[test]
    fn present_but_invalid_fields_are_refused_by_name() {
        // Each of these once parsed to the field's default: seeds above
        // 2^53 became seed 0, so distinct seeds deduped onto one job.
        for (op, fields, field) in [
            ("fleet/submit", r#""seed":1152921504606846976"#, "seed"),
            ("fleet/submit", r#""seed":9007199254740994"#, "seed"),
            ("fleet/submit", r#""lambda2":-1"#, "lambda2"),
            ("fleet/submit", r#""epochs":2.5"#, "epochs"),
            ("fleet/submit", r#""epochs":"9""#, "epochs"),
            ("fleet/submit", r#""batch":-32"#, "batch"),
            ("fleet/submit", r#""penalty":0"#, "penalty"),
            ("fleet/submit", r#""penalty":"both""#, "penalty"),
            ("health", r#""deadline_ms":"soon""#, "deadline_ms"),
            (
                "cost/analytic",
                r#""choices":[0,0,0,0,0,0,0,0,0],"cfg":0,"detail":"yes""#,
                "detail",
            ),
            ("campaign/submit", r#""epochs":1.5"#, "epochs"),
            ("campaign/submit", r#""batch":"16""#, "batch"),
            ("campaign/submit", r#""seed":1152921504606846976"#, "seed"),
            (
                "campaign/submit",
                r#""max_concurrency":-1"#,
                "max_concurrency",
            ),
            ("campaign/submit", r#""lambda2":0.1"#, "lambda2"),
            (
                "campaign/stream",
                r#""campaign":"camp-0","from":"end""#,
                "from",
            ),
        ] {
            let line = format!(r#"{{"v":1,"id":"a","op":"{op}",{fields}}}"#);
            let err = parse_request(&line).expect_err("must refuse");
            assert_eq!(err.code, 400, "line: {line}");
            let named = err.msg.contains(&format!("`{field}`"));
            assert!(named, "line: {line}, error: {}", err.msg);
        }
        // 2^53 itself is exact, and is kept.
        let req = parse_request(r#"{"v":1,"id":"a","op":"fleet/submit","seed":9007199254740992}"#)
            .expect("parses");
        assert_eq!(
            req.body,
            ReqBody::FleetSubmit {
                spec: JobSpec::new(4, 32, 1 << 53, 0.1),
            }
        );
    }

    #[test]
    fn fleet_requests_are_never_cached() {
        assert!(cache_key(&ReqBody::FleetSubmit {
            spec: JobSpec::new(4, 32, 0, 0.1),
        })
        .is_none());
        assert!(cache_key(&ReqBody::FleetStatus {
            job: "fjob-0".into()
        })
        .is_none());
        assert!(cache_key(&ReqBody::FleetDrain).is_none());
    }

    #[test]
    fn campaign_submit_defaults_every_axis() {
        let req = parse_request(r#"{"v":1,"id":"a","op":"campaign/submit"}"#).expect("parses");
        assert_eq!(
            req.body,
            ReqBody::CampaignSubmit {
                lambda2: vec![0.1, 0.3],
                dataset_seeds: vec![0],
                envelopes: vec!["full".into()],
                epochs: 2,
                batch: 16,
                seed: 0,
                max_concurrency: 0,
            }
        );
    }

    #[test]
    fn campaign_requests_are_never_cached() {
        assert!(cache_key(&ReqBody::CampaignStatus {
            campaign: "camp-0".into()
        })
        .is_none());
        assert!(cache_key(&ReqBody::CampaignStream {
            campaign: "camp-0".into(),
            from: 0
        })
        .is_none());
    }

    #[test]
    fn malformed_requests_are_rejected_with_400() {
        for line in [
            "not json",
            "{}",
            r#"{"v":2,"id":"a","op":"health"}"#,
            r#"{"v":1,"op":"health"}"#,
            r#"{"v":1,"id":"a","op":"bogus"}"#,
            r#"{"v":1,"id":"a","op":"cost/analytic","choices":[1,2],"cfg":0}"#,
            r#"{"v":1,"id":"a","op":"cost/analytic","choices":[0,0,0,0,0,0,0,0,9],"cfg":0}"#,
            r#"{"v":1,"id":"a","op":"cost/predict","arch":[1,null]}"#,
            r#"{"v":1,"id":"a","op":"campaign/status"}"#,
            r#"{"v":1,"id":"a","op":"campaign/stream"}"#,
            r#"{"v":1,"id":"a","op":"campaign/cancel"}"#,
            r#"{"v":1,"id":"a","op":"campaign/submit","lambda2":[-1]}"#,
            r#"{"v":1,"id":"a","op":"campaign/submit","dataset_seeds":[1.5]}"#,
            r#"{"v":1,"id":"a","op":"campaign/submit","envelopes":[3]}"#,
        ] {
            let err = parse_request(line).expect_err("must reject");
            assert_eq!(err.code, 400, "line: {line}");
        }
    }

    #[test]
    fn responses_render_as_valid_json() {
        let ok = render_ok("id-1", "\"x\":1.5");
        let v = dance_telemetry::json::parse(&ok).expect("ok line parses");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.5));
        let err = render_err("id-2", &ProtoError::overloaded("queue full"));
        let v = dance_telemetry::json::parse(&err).expect("err line parses");
        assert_eq!(v.get("code").and_then(Json::as_f64), Some(503.0));
        assert_eq!(v.get("err").and_then(Json::as_str), Some("queue full"));
    }

    #[test]
    fn cache_keys_quantize_and_scope() {
        let a = ReqBody::CostPredict {
            arch: vec![0.5, 0.25],
        };
        let b = ReqBody::CostPredict {
            arch: vec![0.500_000_4, 0.25],
        };
        let c = ReqBody::CostPredict {
            arch: vec![0.51, 0.25],
        };
        assert_eq!(cache_key(&a), cache_key(&b), "within one 1e-6 bucket");
        assert_ne!(cache_key(&a), cache_key(&c));
        assert!(cache_key(&ReqBody::Health).is_none());
        let analytic = ReqBody::CostAnalytic {
            choices: vec![0; 9],
            cfg: 3,
            detail: false,
        };
        let detailed = ReqBody::CostAnalytic {
            choices: vec![0; 9],
            cfg: 3,
            detail: true,
        };
        assert_ne!(cache_key(&analytic), cache_key(&detailed));
    }
}
