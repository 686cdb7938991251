//! Property tests for protocol schema v1: any well-formed request survives
//! `render_request` → `parse_request` with exact field equality (including
//! float payloads and ids that need JSON escaping), response envelopes parse
//! back as v1 documents, and cache keys are deterministic functions of the
//! request body.

use dance_serve::proto::{
    cache_key, parse_request, render_err, render_ok, render_request, ProtoError, ReqBody, Request,
    NUM_CHOICES, NUM_SLOTS,
};
use dance_telemetry::json::{parse, Json};
use proptest::prelude::*;

/// Characters stressing the JSON string escaper: quotes, backslashes,
/// control characters, and multi-byte UTF-8 alongside plain ASCII.
const ID_CHARS: &[char] = &[
    'a', 'Z', '0', '9', '-', '_', '.', ' ', '/', '"', '\\', '\n', '\t', '\u{1}', 'é', '≈',
];

fn id_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(ID_CHARS.to_vec()), 12)
        .prop_map(|chars| chars.into_iter().collect())
}

fn deadline_strategy() -> impl Strategy<Value = Option<u64>> {
    (prop::sample::select(vec![true, false]), 1u64..10_000).prop_map(|(some, ms)| {
        if some {
            Some(ms)
        } else {
            None
        }
    })
}

fn roundtrip(req: &Request) {
    let line = render_request(req);
    assert!(
        !line.contains('\n'),
        "rendered request must be one NDJSON line: {line:?}"
    );
    let back = parse_request(&line).expect("rendered request must parse");
    assert_eq!(&back, req, "round-trip changed the request: {line}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_analytic_request_roundtrips(
        id in id_strategy(),
        deadline_ms in deadline_strategy(),
        choices in prop::collection::vec(0u8..NUM_CHOICES as u8, NUM_SLOTS),
        cfg in 0usize..4335,
        detail in prop::sample::select(vec![true, false]),
    ) {
        roundtrip(&Request {
            id,
            deadline_ms,
            body: ReqBody::CostAnalytic { choices, cfg, detail },
        });
    }

    #[test]
    fn prop_predict_request_roundtrips_floats_exactly(
        id in id_strategy(),
        arch in prop::collection::vec(-4.0f32..4.0, NUM_SLOTS * NUM_CHOICES),
    ) {
        // f32 → shortest-f64 text → f64 → f32 is lossless for finite values,
        // so equality here is exact, not approximate.
        roundtrip(&Request {
            id,
            deadline_ms: None,
            body: ReqBody::CostPredict { arch },
        });
    }

    #[test]
    fn prop_submit_request_roundtrips(
        id in id_strategy(),
        deadline_ms in deadline_strategy(),
        epochs in 1usize..64,
        // JSON numbers are f64 end to end, so seeds are exact only up to
        // 2^53 — the documented protocol limit.
        seed in 0u64..(1u64 << 53),
        lambda2 in 0.0f32..8.0,
        flops_penalty in prop::sample::select(vec![true, false]),
    ) {
        roundtrip(&Request {
            id,
            deadline_ms,
            body: ReqBody::SearchSubmit {
                epochs,
                seed,
                lambda2,
                flops_penalty,
            },
        });
    }

    #[test]
    fn prop_job_and_admin_requests_roundtrip(
        id in id_strategy(),
        job in id_strategy(),
        pick in 0usize..4,
    ) {
        let body = match pick {
            0 => ReqBody::SearchStatus { job },
            1 => ReqBody::SearchResult { job },
            2 => ReqBody::Health,
            _ => ReqBody::Shutdown,
        };
        roundtrip(&Request { id, deadline_ms: None, body });
    }

    #[test]
    fn prop_ok_envelope_parses_as_v1(id in id_strategy(), value in 0u64..1_000_000) {
        let line = render_ok(&id, &format!("\"value\":{value}"));
        let doc = parse(line.trim_end()).expect("ok envelope must parse");
        assert_eq!(doc.get("v").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("id").and_then(Json::as_str), Some(id.as_str()));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("value").and_then(Json::as_f64), Some(value as f64));
    }

    #[test]
    fn prop_err_envelope_parses_with_code(id in id_strategy(), pick in 0usize..4) {
        let err = match pick {
            0 => ProtoError::bad_request("bad"),
            1 => ProtoError::not_found("missing"),
            2 => ProtoError::overloaded("busy"),
            _ => ProtoError::internal("boom"),
        };
        let line = render_err(&id, &err);
        let doc = parse(line.trim_end()).expect("err envelope must parse");
        assert_eq!(doc.get("v").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("id").and_then(Json::as_str), Some(id.as_str()));
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let code = doc.get("code").and_then(Json::as_f64);
        assert!(
            matches!(code, Some(c) if [400.0, 404.0, 500.0, 503.0].contains(&c)),
            "unexpected error code {code:?} in {line}"
        );
    }

    #[test]
    fn prop_cache_key_is_deterministic_and_discriminating(
        choices in prop::collection::vec(0u8..NUM_CHOICES as u8, NUM_SLOTS),
        cfg in 0usize..4334,
    ) {
        let body = ReqBody::CostAnalytic { choices: choices.clone(), cfg, detail: false };
        let key = cache_key(&body).expect("analytic requests are cacheable");
        // Deterministic: same body, same key.
        assert_eq!(cache_key(&body.clone()).as_ref(), Some(&key));
        // Discriminating: a different config index yields a different key,
        // and the detail flag is part of the key.
        let other = ReqBody::CostAnalytic { choices: choices.clone(), cfg: cfg + 1, detail: false };
        assert_ne!(cache_key(&other), Some(key.clone()));
        let detailed = ReqBody::CostAnalytic { choices, cfg, detail: true };
        assert_ne!(cache_key(&detailed), Some(key));
        // Admin/job requests must never be cached.
        assert_eq!(cache_key(&ReqBody::Health), None);
        assert_eq!(cache_key(&ReqBody::Shutdown), None);
    }
}
