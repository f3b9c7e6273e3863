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
use gpumc_serve::{Server, ServerConfig};

const MP: &str = "PTX MP\\n{ x = 0; flag = 0; }\\nP0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\\nst.weak x, 1 | ld.weak r0, flag ;\\nst.weak flag, 1 | ld.weak r1, x ;\\nexists (P1:r0 == 1 /\\\\ P1:r1 == 0)";

/// The catalog's Figure 13 ticket mutex as a JSON string literal.
fn ticket_mutex_source() -> String {
    let test = gpumc_catalog::figure_tests()
        .into_iter()
        .find(|t| t.name == "fig13-ticket-mutex")
        .expect("catalog has the ticket mutex");
    Json::str(test.source).to_string()
}

/// The canonical request sequence. Order matters: the second MP verify
/// must be a cache hit, the `cache:false` ones deliberate misses.
fn corpus_requests() -> Vec<(&'static str, String)> {
    let ticket = ticket_mutex_source();
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
        (
            "verify-portfolio-field-ignored",
            format!(
                r#"{{"id":20,"verb":"verify","source":"{MP}","bound":1,"portfolio":2,"cache":false}}"#
            ),
        ),
        // The explicit engines: DPOR on a kernel whose search prunes,
        // so the `dpor` block pins every counter, and enumeration on MP.
        (
            "verify-dpor-ticket-mutex",
            format!(
                r#"{{"id":21,"verb":"verify","source":{ticket},"engine":"dpor","bound":1,"cache":false}}"#
            ),
        ),
        (
            "verify-mp-enumerate",
            format!(
                r#"{{"id":22,"verb":"verify","source":"{MP}","engine":"enumerate","bound":1,"cache":false}}"#
            ),
        ),
        ("shutdown", r#"{"id":14,"verb":"shutdown"}"#.into()),
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

/// Replays the corpus against a freshly bound server and returns
/// `(name, request, normalized response)` per case. The corpus ends
/// with the `shutdown` case, which stops the server.
fn replay() -> Vec<(String, String, String)> {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut out = Vec::new();
    for (name, request) in corpus_requests() {
        json::write_line(&mut writer, &request).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        let response = Json::parse(line.trim_end()).expect("response parses");
        out.push((name.to_string(), request, normalize(response).to_string()));
    }
    handle.join().expect("server thread");
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

/// `simplify` and `portfolio` are no-op fields: apart from its `id`,
/// each answer is the byte-identical fresh verification
/// `verify-mp-cache-off` got. This also pins that fresh encodings of one
/// test in one process solve with identical counters.
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
    assert_eq!(
        without_id("verify-portfolio-field-ignored"),
        without_id("verify-mp-cache-off")
    );
}
