//! The JSON-lines request/response protocol.
//!
//! One request per line, one response per line, in either direction of
//! a TCP connection (or stdin/stdout with `--stdio`). Requests carry an
//! optional client-chosen `id` that is echoed verbatim in the response,
//! so a client may pipeline requests and match answers out of order —
//! workers answer in completion order, not submission order.
//!
//! ## Verbs
//!
//! ```json
//! {"id":1,"verb":"verify","source":"<litmus>","model":"ptx-v7.5","bound":2,"timeout_ms":5000}
//! {"id":2,"verb":"ping"}
//! {"id":3,"verb":"metrics"}
//! {"id":4,"verb":"shutdown"}
//! ```
//!
//! `verify` fields other than `source` are optional: `model` defaults
//! to the test dialect's default model, `bound` to 2, `engine` to
//! `sat` (also: `enumerate`, `alloy`, `dpor`), `timeout_ms` to the
//! server's `--default-timeout-ms`, `budget` (SAT conflicts) and
//! `mem_budget_mb` (solver memory) to unlimited. `faults` arms a
//! per-job fault-injection plan and requires `--enable-faults`.
//! `cache` (default `true`) lets a request opt out of the
//! content-addressed result cache with `"cache": false`. `simplify`
//! is accepted for compatibility and ignored: no CNF simplification
//! runs, and `done` responses always carry `"simplify":null`.
//! `portfolio` (`off`, `auto`, or a worker count) is likewise accepted
//! and ignored: every SAT query runs one sequential CDCL search, DPOR
//! runs one sequential search that stops at the first witness, and
//! `done` responses always carry `"portfolio":null`. A DPOR `done`
//! response's `dpor.explored` therefore counts the candidates up to the
//! first witness (all of them when the property holds).
//!
//! A present field of the wrong JSON type is an error that names the
//! field, never a silent default: `timeout_ms`, `budget` and
//! `mem_budget_mb` must be non-negative integers, `cache` and
//! `simplify` booleans, `model` and `faults` strings. JSON `null`
//! means absent.
//!
//! ## Hygiene
//!
//! Every request may carry `proto`, the protocol version number; a
//! request for a version this server does not speak is answered
//! `status:"error"` rather than half-interpreted, and every response
//! states its `proto`. Unknown top-level request fields are a
//! structured error, not silently ignored — a misspelled `"timeot_ms"`
//! must not silently verify with the default deadline.
//!
//! ## Responses
//!
//! Every response carries `id` (null if the request had none) and a
//! `status`: `done` (verdict reached), `unknown` (budget/deadline/
//! cancellation/memory — retrying with more budget is sound), `error`
//! (the request itself was bad), `rejected` (backpressure or shutdown —
//! resubmit later; the `error` field distinguishes the two), `failed`
//! (the job crashed and exhausted its retries; the `class` field is one
//! of `panic`/`oom`/`timeout`), plus `ok` for ping/metrics/shutdown.
//! `rejected` is the server's one answer to overload (DESIGN.md §18):
//! the job never ran, so resubmitting it is always safe. See DESIGN.md
//! §13 for the complete failure taxonomy.

use gpumc::FullOutcome;
use gpumc_fleet::cache::CachedVerdict;

use crate::json::Json;

pub use gpumc_fleet::PROTOCOL_VERSION;

/// A parsed request envelope: the echoed id plus the verb payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// The verb payload.
    pub request: Request,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Verify a litmus test (all three properties, incremental).
    Verify(VerifyRequest),
    /// Liveness probe.
    Ping,
    /// Snapshot the metrics registry.
    Metrics,
    /// Stop accepting work, drain, and exit.
    Shutdown,
}

/// The payload of a `verify` request.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRequest {
    /// The litmus test source, either dialect.
    pub source: String,
    /// Model name (`ptx-v6.0`, `ptx-v7.5`, `vulkan`); `None` infers
    /// from the test dialect.
    pub model: Option<String>,
    /// Loop unrolling bound.
    pub bound: u32,
    /// Per-request deadline in milliseconds, measured from acceptance
    /// (queue wait counts). `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// SAT conflict budget per query.
    pub budget: Option<u64>,
    /// SAT memory budget in MiB; exceeding it answers `unknown` instead
    /// of letting one query OOM the process.
    pub mem_budget_mb: Option<u64>,
    /// A `gpumc-fault` plan spec armed for this job only. Refused with
    /// `status:"error"` unless the server runs with `--enable-faults`.
    pub faults: Option<String>,
    /// Verification engine (`sat`, `enumerate`, `alloy`, `dpor`);
    /// defaults to `sat` when absent.
    pub engine: gpumc::EngineKind,
    /// Whether the content-addressed result cache may serve (and
    /// record) this request. Default `true`; `"cache": false` forces a
    /// fresh verification.
    pub cache: bool,
}

/// Top-level fields every verb accepts.
const COMMON_FIELDS: &[&str] = &["id", "verb", "proto"];

/// Additional top-level fields the `verify` verb accepts.
const VERIFY_FIELDS: &[&str] = &[
    "source",
    "model",
    "bound",
    "timeout_ms",
    "budget",
    "simplify",
    "mem_budget_mb",
    "faults",
    "portfolio",
    "engine",
    "cache",
];

/// An optional field: `None` when absent or JSON `null`, the value
/// when `get` accepts it, and an error naming the field and the
/// expected `kind` otherwise.
fn optional<'a, T>(
    v: &'a Json,
    key: &str,
    kind: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => get(x)
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be {kind}")),
    }
}

/// Checks the no-op `portfolio` field. It is ignored, but only a worker
/// count (a `u32`), `"auto"` or `"off"` is accepted: exactly the values
/// that parsed when the field still selected workers.
fn check_portfolio(v: &Json) -> Result<(), String> {
    const KIND: &str = "`portfolio` must be a worker count, \"auto\", or \"off\"";
    match v.get("portfolio") {
        None | Some(Json::Null) => Ok(()),
        Some(n @ Json::Num(_)) => {
            let n = n.as_u64().ok_or(KIND)?;
            u32::try_from(n).map_err(|_| "`portfolio` out of range")?;
            Ok(())
        }
        Some(Json::Str(s)) if s == "off" || s == "auto" || s.parse::<u32>().is_ok() => Ok(()),
        Some(Json::Str(s)) => Err(format!(
            "invalid portfolio value `{s}` (want off, auto, or N)"
        )),
        Some(_) => Err(KIND.into()),
    }
}

/// Rejects unknown top-level fields with a structured, named error.
fn check_fields(v: &Json, verb: &str, extra: &[&str]) -> Result<(), String> {
    let Json::Obj(pairs) = v else {
        return Err("request must be a JSON object".into());
    };
    for (key, _) in pairs {
        if !COMMON_FIELDS.contains(&key.as_str()) && !extra.contains(&key.as_str()) {
            return Err(format!("unknown field `{key}` for verb `{verb}`"));
        }
    }
    Ok(())
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable message for malformed JSON, a missing/unknown verb,
/// an unsupported `proto`, unknown top-level fields, or missing
/// `verify` fields.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let v = Json::parse(line)?;
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let id = v.get("id").and_then(Json::as_u64);
    match v.get("proto") {
        None | Some(Json::Null) => {}
        Some(p) => {
            let p = p.as_u64().ok_or("`proto` must be an integer")?;
            if p != u64::from(PROTOCOL_VERSION) {
                return Err(format!(
                    "unsupported protocol version {p} (this server speaks {PROTOCOL_VERSION})"
                ));
            }
        }
    }
    let verb = v
        .get("verb")
        .and_then(Json::as_str)
        .ok_or("missing `verb`")?;
    let request = match verb {
        "ping" | "metrics" | "shutdown" => {
            check_fields(&v, verb, &[])?;
            match verb {
                "ping" => Request::Ping,
                "metrics" => Request::Metrics,
                _ => Request::Shutdown,
            }
        }
        "verify" => {
            check_fields(&v, verb, VERIFY_FIELDS)?;
            let source = v
                .get("source")
                .and_then(Json::as_str)
                .ok_or("verify needs a `source` string")?
                .to_string();
            let bound = match v.get("bound") {
                None | Some(Json::Null) => 2,
                Some(b) => {
                    let b = b.as_u64().ok_or("`bound` must be a positive integer")?;
                    u32::try_from(b).map_err(|_| "`bound` out of range")?
                }
            };
            if bound == 0 {
                return Err("`bound` must be at least 1".into());
            }
            check_portfolio(&v)?;
            let engine = match v.get("engine") {
                None | Some(Json::Null) => gpumc::EngineKind::Sat,
                Some(Json::Str(s)) => s.parse::<gpumc::EngineKind>()?,
                Some(_) => return Err("`engine` must be a string".into()),
            };
            let count = |key| optional(&v, key, "a non-negative integer", Json::as_u64);
            let string = |key| optional(&v, key, "a string", |x| x.as_str().map(str::to_string));
            let flag = |key| optional(&v, key, "a boolean", Json::as_bool);
            // The no-op `simplify` field is still type-checked.
            flag("simplify")?;
            Request::Verify(VerifyRequest {
                source,
                model: string("model")?,
                bound,
                timeout_ms: count("timeout_ms")?,
                budget: count("budget")?,
                mem_budget_mb: count("mem_budget_mb")?,
                faults: string("faults")?,
                engine,
                cache: flag("cache")?.unwrap_or(true),
            })
        }
        other => return Err(format!("unknown verb `{other}`")),
    };
    Ok(Envelope { id, request })
}

fn id_json(id: Option<u64>) -> Json {
    id.map_or(Json::Null, Json::count)
}

/// The canonical wire name of an engine — the vocabulary the request
/// digest is built from (`gpumc_fleet::digest::canonical_engine`
/// accepts exactly these, so the server's digest and `gpumc cache
/// digest` agree).
pub fn engine_name(e: gpumc::EngineKind) -> &'static str {
    match e {
        gpumc::EngineKind::Sat => "sat",
        gpumc::EngineKind::Enumerate {
            straight_line_only: true,
        } => "alloy",
        gpumc::EngineKind::Enumerate {
            straight_line_only: false,
        } => "enumerate",
        gpumc::EngineKind::Dpor => "dpor",
    }
}

fn proto_json() -> Json {
    Json::count(u64::from(PROTOCOL_VERSION))
}

/// The one place the verdict object's shape is defined. Fresh
/// verifications come through [`verdict_json`] and cache hits through
/// [`cached_verdict_json`]; both funnel here, so a cached answer is
/// byte-identical to the verification that populated it.
fn verdict_fields(
    test_name: &str,
    reachable: bool,
    expectation: &str,
    liveness: &str,
    datarace: &str,
) -> Json {
    Json::Obj(vec![
        ("test".into(), Json::str(test_name)),
        ("reachable".into(), Json::Bool(reachable)),
        ("expectation".into(), Json::str(expectation)),
        ("liveness".into(), Json::str(liveness)),
        ("datarace".into(), Json::str(datarace)),
    ])
}

/// Reduces a completed verification to the cacheable verdict facts, in
/// protocol vocabulary.
pub fn cached_verdict(test_name: &str, o: &FullOutcome) -> CachedVerdict {
    CachedVerdict {
        test: test_name.to_string(),
        reachable: o.assertion.reachable,
        expectation: match o.assertion.satisfied_expectation {
            Some(true) => "holds",
            Some(false) => "fails",
            None => "none",
        }
        .to_string(),
        liveness: if o.liveness.violated {
            "violation"
        } else {
            "ok"
        }
        .to_string(),
        datarace: match &o.data_races {
            Some(d) if d.violated => "found",
            Some(_) => "none",
            None => "n/a",
        }
        .to_string(),
    }
}

/// The verdict object of a completed verification — the same facts the
/// batch CLI (`gpumc verify --all`) prints, as structured fields, so
/// server and CLI answers can be compared for byte-identity.
pub fn verdict_json(test_name: &str, o: &FullOutcome) -> Json {
    let v = cached_verdict(test_name, o);
    verdict_fields(
        &v.test,
        v.reachable,
        &v.expectation,
        &v.liveness,
        &v.datarace,
    )
}

/// The verdict object reconstructed from a cache entry.
pub fn cached_verdict_json(v: &CachedVerdict) -> Json {
    verdict_fields(
        &v.test,
        v.reachable,
        &v.expectation,
        &v.liveness,
        &v.datarace,
    )
}

/// A `status: done` response served from the result cache. Carries the
/// same verdict object a fresh verification would, plus `"cached":true`
/// in place of the per-run phase/solver detail (which the cache
/// deliberately does not store — timings of a run that didn't happen
/// would be fiction).
pub fn cached_response(id: Option<u64>, v: &CachedVerdict, wall_us: u64) -> Json {
    Json::Obj(vec![
        ("id".into(), id_json(id)),
        ("proto".into(), proto_json()),
        ("status".into(), Json::str("done")),
        ("verdict".into(), cached_verdict_json(v)),
        ("cached".into(), Json::Bool(true)),
        ("time_us".into(), Json::count(wall_us)),
    ])
}

/// A successful (`status: done`) verify response.
pub fn verify_response(id: Option<u64>, test_name: &str, o: &FullOutcome, wall_us: u64) -> Json {
    let (conflicts, propagations) = o.queries.iter().fold((0u64, 0u64), |(c, p), q| {
        (c + q.stats.conflicts, p + q.stats.propagations)
    });
    Json::Obj(vec![
        ("id".into(), id_json(id)),
        ("proto".into(), proto_json()),
        ("status".into(), Json::str("done")),
        ("verdict".into(), verdict_json(test_name, o)),
        (
            "phases".into(),
            Json::Obj(vec![
                ("compile_us".into(), Json::count(o.phases.compile_us)),
                ("bounds_us".into(), Json::count(o.phases.bounds_us)),
                ("encode_us".into(), Json::count(o.phases.encode_us)),
                ("solve_us".into(), Json::count(o.phases.solve_us)),
            ]),
        ),
        (
            "solver".into(),
            Json::Obj(vec![
                (
                    "vars".into(),
                    Json::count(o.assertion.stats.sat_vars as u64),
                ),
                (
                    "clauses".into(),
                    Json::count(o.assertion.stats.sat_clauses as u64),
                ),
                ("conflicts".into(), Json::count(conflicts)),
                ("propagations".into(), Json::count(propagations)),
            ]),
        ),
        ("simplify".into(), Json::Null),
        ("portfolio".into(), Json::Null),
        (
            "dpor".into(),
            match &o.assertion.stats.dpor {
                None => Json::Null,
                Some(d) => Json::Obj(vec![
                    ("explored".into(), Json::count(d.explored)),
                    ("consistent".into(), Json::count(d.consistent)),
                    ("pruned".into(), Json::count(d.pruned_total())),
                ]),
            },
        ),
        ("time_us".into(), Json::count(wall_us)),
    ])
}

/// A `status: unknown` response (deadline, cancellation, budget).
pub fn unknown_response(id: Option<u64>, reason: &str, wall_us: u64) -> Json {
    Json::Obj(vec![
        ("id".into(), id_json(id)),
        ("proto".into(), proto_json()),
        ("status".into(), Json::str("unknown")),
        ("reason".into(), Json::str(reason)),
        ("time_us".into(), Json::count(wall_us)),
    ])
}

/// A `status: error` response (the request was unprocessable).
pub fn error_response(id: Option<u64>, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id_json(id)),
        ("proto".into(), proto_json()),
        ("status".into(), Json::str("error")),
        ("error".into(), Json::str(message)),
    ])
}

/// A `status: rejected` response: the job was not (or will not be)
/// started — `reason` is `"queue full"` for backpressure or
/// `"shutting down"` when the server is draining. Resubmitting later is
/// always safe.
pub fn rejected_response(id: Option<u64>, reason: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id_json(id)),
        ("proto".into(), proto_json()),
        ("status".into(), Json::str("rejected")),
        ("error".into(), Json::str(reason)),
    ])
}

/// A `status: failed` response: the job was accepted but its run
/// panicked. `class` categorizes the crash (`panic`, `oom`, `timeout`).
/// A job runs once, so `attempts` is always 1; the key stays so the
/// proto-1 response shape does not change.
pub fn failed_response(id: Option<u64>, class: &str, message: &str) -> Json {
    Json::Obj(vec![
        ("id".into(), id_json(id)),
        ("proto".into(), proto_json()),
        ("status".into(), Json::str("failed")),
        ("class".into(), Json::str(class)),
        ("error".into(), Json::str(message)),
        ("attempts".into(), Json::count(1)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_four_verbs() {
        let e = parse_request(r#"{"id":7,"verb":"ping"}"#).unwrap();
        assert_eq!(e.id, Some(7));
        assert_eq!(e.request, Request::Ping);
        assert_eq!(
            parse_request(r#"{"verb":"metrics"}"#).unwrap().request,
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"verb":"shutdown"}"#).unwrap().request,
            Request::Shutdown
        );
        let e = parse_request(
            r#"{"id":1,"verb":"verify","source":"PTX T\n...","model":"ptx-v6.0","bound":3,"timeout_ms":250,"budget":1000}"#,
        )
        .unwrap();
        match e.request {
            Request::Verify(v) => {
                assert_eq!(v.model.as_deref(), Some("ptx-v6.0"));
                assert_eq!(v.bound, 3);
                assert_eq!(v.timeout_ms, Some(250));
                assert_eq!(v.budget, Some(1000));
                assert!(v.source.starts_with("PTX T\n"));
            }
            other => panic!("expected verify, got {other:?}"),
        }
    }

    #[test]
    fn verify_defaults_apply() {
        let e = parse_request(r#"{"verb":"verify","source":"x"}"#).unwrap();
        match e.request {
            Request::Verify(v) => {
                assert_eq!(v.bound, 2);
                assert_eq!(v.model, None);
                assert_eq!(v.timeout_ms, None);
                assert_eq!(v.budget, None);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(e.id, None);
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"id":1}"#).is_err());
        assert!(parse_request(r#"{"verb":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"verb":"verify"}"#).is_err());
        assert!(parse_request(r#"{"verb":"verify","source":"x","bound":0}"#).is_err());
    }

    #[test]
    fn responses_echo_the_id() {
        let r = error_response(Some(42), "nope");
        assert_eq!(r.get("id").unwrap().as_u64(), Some(42));
        assert_eq!(r.get("status").unwrap().as_str(), Some("error"));
        let r = rejected_response(None, "queue full");
        assert_eq!(r.get("id"), Some(&Json::Null));
        assert_eq!(r.get("error").unwrap().as_str(), Some("queue full"));
        let r = failed_response(Some(9), "panic", "injected fault");
        assert_eq!(r.get("status").unwrap().as_str(), Some("failed"));
        assert_eq!(r.get("class").unwrap().as_str(), Some("panic"));
        assert_eq!(r.get("attempts").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn verify_accepts_portfolio_field() {
        let plain = verify(r#"{"verb":"verify","source":"x"}"#);
        for ok in [
            "null",
            "0",
            "1",
            "4",
            "4294967295",
            r#""off""#,
            r#""auto""#,
            r#""1""#,
            r#""4""#,
        ] {
            let line = format!(r#"{{"verb":"verify","source":"x","portfolio":{ok}}}"#);
            assert_eq!(verify(&line), plain, "accepted and ignored: {line}");
        }
        for bad in [
            r#""many""#,
            r#""""#,
            r#""-1""#,
            "true",
            "-1",
            "2.5",
            "4294967296",
            "[2]",
        ] {
            let line = format!(r#"{{"verb":"verify","source":"x","portfolio":{bad}}}"#);
            assert!(parse_request(&line).is_err(), "rejected: {line}");
        }
    }

    #[test]
    fn verify_accepts_engine_field() {
        use gpumc::EngineKind;
        let engine = |line: &str| match parse_request(line).unwrap().request {
            Request::Verify(v) => v.engine,
            other => panic!("{other:?}"),
        };
        assert_eq!(engine(r#"{"verb":"verify","source":"x"}"#), EngineKind::Sat);
        assert_eq!(
            engine(r#"{"verb":"verify","source":"x","engine":"dpor"}"#),
            EngineKind::Dpor
        );
        assert_eq!(
            engine(r#"{"verb":"verify","source":"x","engine":"alloy"}"#),
            EngineKind::Enumerate {
                straight_line_only: true
            }
        );
        let err = parse_request(r#"{"verb":"verify","source":"x","engine":"z3"}"#).unwrap_err();
        assert!(err.contains("unknown engine `z3`"), "err: {err}");
        assert!(parse_request(r#"{"verb":"verify","source":"x","engine":7}"#).is_err());
    }

    #[test]
    fn unknown_fields_are_structured_errors() {
        let err = parse_request(r#"{"verb":"verify","source":"x","timeot_ms":250}"#).unwrap_err();
        assert!(
            err.contains("unknown field `timeot_ms`"),
            "must name the field: {err}"
        );
        let err = parse_request(r#"{"verb":"ping","bound":2}"#).unwrap_err();
        assert!(err.contains("unknown field `bound`"), "err: {err}");
        assert!(parse_request(r#"{"verb":"metrics","source":"x"}"#).is_err());
        // Non-object requests are named as such, not "missing verb".
        let err = parse_request("[1,2]").unwrap_err();
        assert!(err.contains("JSON object"), "err: {err}");
    }

    #[test]
    fn proto_is_validated_when_present() {
        assert!(parse_request(r#"{"verb":"ping","proto":1}"#).is_ok());
        assert!(
            parse_request(r#"{"verb":"ping"}"#).is_ok(),
            "proto is optional"
        );
        let err = parse_request(r#"{"verb":"ping","proto":2}"#).unwrap_err();
        assert!(err.contains("unsupported protocol version 2"), "err: {err}");
        assert!(parse_request(r#"{"verb":"ping","proto":"one"}"#).is_err());
    }

    #[test]
    fn responses_state_their_proto() {
        for r in [
            error_response(None, "x"),
            rejected_response(None, "x"),
            failed_response(None, "panic", "x"),
            unknown_response(None, "x", 5),
        ] {
            assert_eq!(r.get("proto").unwrap().as_u64(), Some(1));
        }
    }

    #[test]
    fn cache_field_parses_and_defaults_on() {
        let cached = |line: &str| match parse_request(line).unwrap().request {
            Request::Verify(v) => v.cache,
            other => panic!("{other:?}"),
        };
        assert!(cached(r#"{"verb":"verify","source":"x"}"#));
        assert!(!cached(r#"{"verb":"verify","source":"x","cache":false}"#));
        assert!(cached(r#"{"verb":"verify","source":"x","cache":true}"#));
    }

    #[test]
    fn engine_names_are_canonical_digest_vocabulary() {
        use gpumc::EngineKind;
        for e in [
            EngineKind::Sat,
            EngineKind::Dpor,
            EngineKind::Enumerate {
                straight_line_only: true,
            },
            EngineKind::Enumerate {
                straight_line_only: false,
            },
        ] {
            let name = engine_name(e);
            // The digest layer accepts the name as already-canonical...
            assert_eq!(
                gpumc_fleet::digest::canonical_engine(name),
                Ok(name),
                "engine {e:?}"
            );
            // ...and parsing it back yields the same engine.
            assert_eq!(name.parse::<EngineKind>(), Ok(e), "engine {e:?}");
        }
    }

    #[test]
    fn cached_response_reuses_the_verdict_shape() {
        let v = CachedVerdict {
            test: "MP".into(),
            reachable: true,
            expectation: "fails".into(),
            liveness: "ok".into(),
            datarace: "n/a".into(),
        };
        let r = cached_response(Some(3), &v, 12);
        assert_eq!(r.get("status").unwrap().as_str(), Some("done"));
        assert_eq!(r.get("cached").unwrap().as_bool(), Some(true));
        let verdict = r.get("verdict").unwrap();
        assert_eq!(
            verdict.to_string(),
            r#"{"test":"MP","reachable":true,"expectation":"fails","liveness":"ok","datarace":"n/a"}"#,
        );
    }

    /// The verify payload of a line that must parse.
    fn verify(line: &str) -> VerifyRequest {
        match parse_request(line).unwrap().request {
            Request::Verify(v) => v,
            other => panic!("{other:?}"),
        }
    }

    /// The error for `"<field>":<value>`, which must name the field and
    /// the `kind` it expects.
    fn type_error(field: &str, value: &str, kind: &str) {
        let line = format!(r#"{{"verb":"verify","source":"x","{field}":{value}}}"#);
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err, format!("`{field}` must be {kind}"), "{line}");
    }

    const COUNT: &str = "a non-negative integer";

    #[test]
    fn timeout_ms_must_be_a_non_negative_integer() {
        type_error("timeout_ms", r#""500""#, COUNT);
        type_error("timeout_ms", "-1", COUNT);
        type_error("timeout_ms", "2.5", COUNT);
        let line = r#"{"verb":"verify","source":"x","timeout_ms":null}"#;
        assert_eq!(verify(line).timeout_ms, None, "null means absent");
    }

    #[test]
    fn budget_must_be_a_non_negative_integer() {
        type_error("budget", r#""1000""#, COUNT);
        type_error("budget", "true", COUNT);
        let line = r#"{"verb":"verify","source":"x","budget":0}"#;
        assert_eq!(verify(line).budget, Some(0));
    }

    #[test]
    fn mem_budget_mb_must_be_a_non_negative_integer() {
        type_error("mem_budget_mb", "-1", COUNT);
        type_error("mem_budget_mb", r#""64""#, COUNT);
    }

    #[test]
    fn cache_must_be_a_boolean() {
        type_error("cache", r#""false""#, "a boolean");
        type_error("cache", "0", "a boolean");
        let line = r#"{"verb":"verify","source":"x","cache":null}"#;
        assert!(verify(line).cache, "null means the default");
    }

    #[test]
    fn simplify_must_be_a_boolean_and_changes_nothing() {
        type_error("simplify", r#""false""#, "a boolean");
        let plain = verify(r#"{"verb":"verify","source":"x"}"#);
        for flag in ["true", "false", "null"] {
            let line = format!(r#"{{"verb":"verify","source":"x","simplify":{flag}}}"#);
            assert_eq!(verify(&line), plain, "{line}");
        }
    }

    #[test]
    fn model_must_be_a_string() {
        type_error("model", "75", "a string");
        type_error("model", r#"["ptx-v7.5"]"#, "a string");
        let line = r#"{"verb":"verify","source":"x","model":null}"#;
        assert_eq!(verify(line).model, None, "null still infers the model");
    }

    #[test]
    fn faults_must_be_a_string() {
        type_error("faults", "true", "a string");
        type_error("faults", r#"{"serve.worker":"panic"}"#, "a string");
    }

    #[test]
    fn verify_accepts_resilience_fields() {
        let e = parse_request(
            r#"{"verb":"verify","source":"x","mem_budget_mb":256,"faults":"serve.worker:panic:once"}"#,
        )
        .unwrap();
        match e.request {
            Request::Verify(v) => {
                assert_eq!(v.mem_budget_mb, Some(256));
                assert_eq!(v.faults.as_deref(), Some("serve.worker:panic:once"));
            }
            other => panic!("{other:?}"),
        }
    }
}
