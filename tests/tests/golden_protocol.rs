//! Golden-corpus conformance suite for the serve wire protocol.
//!
//! `tests/golden/serve_protocol.jsonl` records a canonical sequence of
//! request lines and the exact response bytes the server must produce
//! for them (after zeroing wall-clock fields, which are the only
//! nondeterministic part of the protocol). The corpus is replayed over
//! a real TCP connection against a freshly bound server and compared
//! byte-for-byte, so every future protocol change must either preserve
//! the bytes or regenerate the corpus with an explicit diff in the PR:
//!
//! ```text
//! GPUMC_REGEN_GOLDEN=1 cargo test -p integration-tests --test golden_protocol
//! git diff tests/golden/serve_protocol.jsonl   # review, then commit
//! ```
//!
//! Corpus format: one JSON object per line,
//! `{"name": <case>, "request": <raw request line>, "response": <normalized response line>}`.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;

use gpumc_serve::json::{self, Json};
use gpumc_serve::{DegradeLevel, Server, ServerConfig};

const MP: &str = "PTX MP\\n{ x = 0; flag = 0; }\\nP0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\\nst.weak x, 1 | ld.weak r0, flag ;\\nst.weak flag, 1 | ld.weak r1, x ;\\nexists (P1:r0 == 1 /\\\\ P1:r1 == 0)";

/// The canonical request sequence. Order matters: the second MP verify
/// must be a cache hit, the `cache:false` ones deliberate misses.
fn corpus_requests() -> Vec<(&'static str, String)> {
    vec![
        ("ping", r#"{"id":1,"verb":"ping"}"#.into()),
        (
            "verify-mp-fresh",
            format!(r#"{{"id":2,"verb":"verify","source":"{MP}","bound":1}}"#),
        ),
        (
            "verify-mp-cached",
            format!(r#"{{"id":3,"verb":"verify","source":"{MP}","bound":1}}"#),
        ),
        (
            "verify-mp-cache-off",
            format!(r#"{{"id":4,"verb":"verify","source":"{MP}","bound":1,"cache":false}}"#),
        ),
        (
            "verify-explicit-proto",
            format!(r#"{{"id":5,"verb":"verify","proto":1,"source":"{MP}","bound":1}}"#),
        ),
        (
            "unknown-top-level-field",
            format!(r#"{{"id":6,"verb":"verify","source":"{MP}","bound":1,"shard":3}}"#),
        ),
        (
            "unsupported-proto",
            r#"{"id":7,"verb":"ping","proto":99}"#.into(),
        ),
        ("not-json", r#"{"id":8,"verb":"#.into()),
        ("not-an-object", r#"[1,2,3]"#.into()),
        ("unknown-verb", r#"{"id":9,"verb":"teleport"}"#.into()),
        ("missing-source", r#"{"id":10,"verb":"verify"}"#.into()),
        (
            "unparsable-litmus",
            r#"{"id":11,"verb":"verify","source":"this is not a litmus test"}"#.into(),
        ),
        (
            "bad-engine",
            format!(r#"{{"id":12,"verb":"verify","source":"{MP}","engine":"quantum"}}"#),
        ),
        (
            "faults-disabled",
            format!(r#"{{"id":13,"verb":"verify","source":"{MP}","faults":"encode.pre:panic"}}"#),
        ),
        (
            "verify-simplify-field-ignored",
            format!(
                r#"{{"id":18,"verb":"verify","source":"{MP}","bound":1,"simplify":false,"cache":false}}"#
            ),
        ),
        (
            "timeout-not-an-integer",
            format!(r#"{{"id":19,"verb":"verify","source":"{MP}","timeout_ms":"500"}}"#),
        ),
        ("shutdown", r#"{"id":14,"verb":"shutdown"}"#.into()),
    ]
}

/// One corpus phase: the pinned degradation level and its cases.
type Phase = (Option<DegradeLevel>, Vec<(&'static str, String)>);

/// Brownout cases (DESIGN.md §18), replayed against servers pinned to
/// a degradation level: `status:"shed"` refusals and the `degraded`
/// response block are wire protocol too, so their bytes are golden.
fn degraded_phases() -> Vec<Phase> {
    vec![
        (
            Some(DegradeLevel::Sequential),
            vec![(
                "degraded-sequential",
                format!(r#"{{"id":15,"verb":"verify","source":"{MP}","bound":1,"portfolio":2}}"#),
            )],
        ),
        (
            Some(DegradeLevel::CacheOnly),
            vec![(
                "degraded-cache-only",
                format!(r#"{{"id":16,"verb":"verify","source":"{MP}","bound":1}}"#),
            )],
        ),
        (
            Some(DegradeLevel::Shed),
            vec![(
                "shed-overloaded",
                format!(r#"{{"id":17,"verb":"verify","source":"{MP}","bound":1}}"#),
            )],
        ),
    ]
}

/// Zeroes every `*_us` wall-clock field, recursively. Everything else
/// in a response — verdicts, solver statistics, error strings — is
/// deterministic and stays byte-comparable.
fn normalize(v: Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k.ends_with("_us") && matches!(v, Json::Num(_)) {
                        (k, Json::count(0))
                    } else {
                        (k, normalize(v))
                    }
                })
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(normalize).collect()),
        other => other,
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("serve_protocol.jsonl")
}

/// Replays one phase — a request sequence against a freshly bound
/// server pinned at `force` — and appends `(name, request, normalized
/// response)` per case. The server is shut down out-of-band so pinned
/// phases don't need a recorded shutdown case of their own.
fn replay_phase(
    force: Option<DegradeLevel>,
    cases: Vec<(&'static str, String)>,
    out: &mut Vec<(String, String, String)>,
) {
    let recorded_shutdown = cases.iter().any(|(name, _)| *name == "shutdown");
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        metrics_every_secs: None,
        force_degrade: force,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    for (name, request) in cases {
        json::write_line(&mut writer, &request).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        let response = Json::parse(line.trim_end()).expect("response parses");
        out.push((name.to_string(), request, normalize(response).to_string()));
    }
    if !recorded_shutdown {
        json::write_line(&mut writer, &r#"{"id":0,"verb":"shutdown"}"#).expect("send shutdown");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv shutdown");
    }
    handle.join().expect("server thread");
}

/// Replays the full corpus (default phase, then the pinned brownout
/// phases) and returns `(name, request, normalized response)` per case.
fn replay() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    replay_phase(None, corpus_requests(), &mut out);
    for (force, cases) in degraded_phases() {
        replay_phase(force, cases, &mut out);
    }
    out
}

#[test]
fn serve_protocol_matches_the_golden_corpus() {
    let path = golden_path();
    let actual = replay();

    if std::env::var_os("GPUMC_REGEN_GOLDEN").is_some() {
        let mut file = String::new();
        for (name, request, response) in &actual {
            let record = Json::Obj(vec![
                ("name".into(), Json::str(name)),
                ("request".into(), Json::str(request)),
                ("response".into(), Json::str(response)),
            ]);
            file.push_str(&record.to_string());
            file.push('\n');
        }
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden");
        std::fs::write(&path, file).expect("write golden corpus");
        eprintln!("regenerated {} ({} cases)", path.display(), actual.len());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with GPUMC_REGEN_GOLDEN=1 to record the corpus",
            path.display()
        )
    });
    let golden: Vec<(String, String, String)> = text
        .lines()
        .map(|l| {
            let v = Json::parse(l).expect("golden line parses");
            (
                v.get("name").and_then(Json::as_str).unwrap().to_string(),
                v.get("request").and_then(Json::as_str).unwrap().to_string(),
                v.get("response")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect();

    // The corpus drives the replay comparison case-by-case so a
    // mismatch names the case, the request, and both byte strings.
    assert_eq!(
        golden.len(),
        actual.len(),
        "corpus has {} cases but the replay produced {} — \
         regenerate with GPUMC_REGEN_GOLDEN=1 and review the diff",
        golden.len(),
        actual.len()
    );
    for ((g_name, g_req, g_resp), (a_name, a_req, a_resp)) in golden.iter().zip(&actual) {
        assert_eq!(g_name, a_name, "corpus case order changed");
        assert_eq!(g_req, a_req, "[{g_name}] request line changed");
        assert_eq!(
            g_resp, a_resp,
            "[{g_name}] response bytes diverged from the golden corpus\n\
             request:  {g_req}\n\
             golden:   {g_resp}\n\
             actual:   {a_resp}\n\
             If the change is intentional, regenerate with \
             GPUMC_REGEN_GOLDEN=1 and commit the diff."
        );
    }
}

/// The cache-hit case in the corpus must actually be a cache hit —
/// guards against the corpus silently degrading into three fresh runs.
#[test]
fn corpus_cached_case_is_marked_cached() {
    let actual = replay();
    let by_name = |n: &str| {
        actual
            .iter()
            .find(|(name, ..)| name == n)
            .map(|(_, _, r)| Json::parse(r).unwrap())
            .unwrap()
    };
    let fresh = by_name("verify-mp-fresh");
    let hit = by_name("verify-mp-cached");
    let off = by_name("verify-mp-cache-off");
    assert_eq!(fresh.get("cached"), None);
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(off.get("cached"), None, "cache:false must bypass the cache");
    // All three answer the same verdict object.
    assert_eq!(fresh.get("verdict"), hit.get("verdict"));
    assert_eq!(fresh.get("verdict"), off.get("verdict"));
}

/// `simplify` is a no-op field: apart from its `id`, the answer is the
/// byte-identical fresh verification `verify-mp-cache-off` got. This
/// also pins that two fresh encodings of one test in one process solve
/// with identical counters.
#[test]
fn corpus_simplify_field_is_ignored() {
    let actual = replay();
    let without_id = |n: &str| {
        let (_, _, r) = actual.iter().find(|(name, ..)| name == n).unwrap();
        let Json::Obj(fields) = Json::parse(r).unwrap() else {
            panic!("{n}: response is not an object");
        };
        Json::Obj(fields.into_iter().filter(|(k, _)| k != "id").collect()).to_string()
    };
    assert_eq!(
        without_id("verify-simplify-field-ignored"),
        without_id("verify-mp-cache-off")
    );
}

/// The brownout cases must actually exercise the ladder: verdicts
/// stamped with the right `degraded` level, shed refusals classified.
#[test]
fn corpus_brownout_cases_are_classified_and_stamped() {
    let actual = replay();
    let by_name = |n: &str| {
        actual
            .iter()
            .find(|(name, ..)| name == n)
            .map(|(_, _, r)| Json::parse(r).unwrap())
            .unwrap()
    };
    let level = |v: &Json| {
        v.get("degraded")
            .and_then(|d| d.get("level"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };

    let seq = by_name("degraded-sequential");
    assert_eq!(seq.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(level(&seq).as_deref(), Some("sequential"));
    assert_eq!(
        seq.get("portfolio"),
        Some(&Json::Null),
        "the requested portfolio must be downgraded away"
    );

    let cache_only = by_name("degraded-cache-only");
    assert_eq!(
        cache_only.get("status").and_then(Json::as_str),
        Some("done")
    );
    assert_eq!(level(&cache_only).as_deref(), Some("cache-only"));

    let shed = by_name("shed-overloaded");
    assert_eq!(shed.get("status").and_then(Json::as_str), Some("shed"));
    assert_eq!(shed.get("error").and_then(Json::as_str), Some("overloaded"));
    assert_eq!(level(&shed).as_deref(), Some("shed"));

    // The default-phase cases never degrade: no block anywhere.
    assert_eq!(by_name("verify-mp-fresh").get("degraded"), None);
}
