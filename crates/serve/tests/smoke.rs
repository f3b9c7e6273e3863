//! End-to-end smoke tests: a real server on an ephemeral port, real
//! TCP clients, catalog litmus tests.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpumc::Verifier;
use gpumc_fleet::digest::default_model;
use gpumc_serve::json::{self, Json};
use gpumc_serve::protocol::verdict_json;
use gpumc_serve::{Client, Server, ServerConfig};

/// A spin-heavy three-thread test that takes long enough at high bounds
/// to keep a worker busy while other requests pile up behind it.
const SLOW_SPIN: &str = "PTX SLOWSPIN\n\
{ x = 0; y = 0; f = 0; g = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 | P2@cta 2,gpu 0 ;\n\
st.relaxed.gpu x, 1 | LC00: | LC01: ;\n\
st.release.gpu f, 1 | ld.relaxed.gpu r0, f | ld.relaxed.gpu r0, g ;\n\
st.relaxed.gpu y, 1 | bne r0, 1, LC00 | bne r0, 1, LC01 ;\n\
st.release.gpu g, 1 | ld.acquire.gpu r1, x | ld.acquire.gpu r1, y ;\n\
exists (P1:r1 == 0 /\\ P2:r1 == 0)";

fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

#[test]
fn concurrent_requests_match_batch_verdicts_and_metrics_add_up() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 4,
        max_queue: 256,
        default_timeout_ms: None,
        ..ServerConfig::default()
    });

    // The workload: every figure test, cycled up to 50 requests.
    let tests = gpumc_catalog::figure_tests();
    assert!(!tests.is_empty());
    let total = 50usize;
    let workload: Vec<_> = (0..total).map(|i| tests[i % tests.len()].clone()).collect();

    // Batch ground truth, computed through the same public Verifier API
    // the `gpumc verify --all` CLI uses.
    let expected: Vec<String> = workload
        .iter()
        .map(|t| {
            let program = gpumc::parse_litmus(&t.source).unwrap();
            let v = Verifier::new(gpumc_models::load_shared(default_model(program.arch)))
                .with_bound(t.bound);
            let o = v.check_all(&program).unwrap();
            verdict_json(&program.name, &o).to_string()
        })
        .collect();

    // 10 client connections, 5 requests each, all in flight together.
    let workload = Arc::new(workload);
    let addr = Arc::new(addr);
    let mut got: Vec<Option<String>> = vec![None; total];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..10)
            .map(|c| {
                let workload = Arc::clone(&workload);
                let addr = Arc::clone(&addr);
                s.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let mut out = Vec::new();
                    for i in (0..workload.len()).skip(c).step_by(10) {
                        let t = &workload[i];
                        let resp = client
                            .verify(&t.source, None, Some(t.bound), None)
                            .expect("verify request");
                        assert_eq!(
                            resp.get("status").and_then(Json::as_str),
                            Some("done"),
                            "unexpected response: {resp}"
                        );
                        out.push((i, resp.get("verdict").unwrap().to_string()));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, verdict) in h.join().unwrap() {
                got[i] = Some(verdict);
            }
        }
    });
    for (i, verdict) in got.iter().enumerate() {
        assert_eq!(
            verdict.as_deref(),
            Some(expected[i].as_str()),
            "request {i} verdict must be byte-identical to the batch CLI"
        );
    }

    // Metrics must account for exactly this workload.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(
        client.ping().unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );
    let resp = client.metrics().unwrap();
    let m = resp.get("metrics").unwrap();
    let counters = m.get("counters").unwrap();
    let count = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(count("requests_verify"), total as u64);
    assert_eq!(count("verdict_pass") + count("verdict_fail"), total as u64);
    assert_eq!(count("verdict_unknown") + count("verdict_error"), 0);
    assert_eq!(count("queue_rejected_total"), 0);
    let latency = m
        .get("histograms")
        .unwrap()
        .get("verify_latency_us")
        .unwrap();
    assert_eq!(latency.get("count").unwrap().as_u64(), Some(total as u64));

    // Graceful shutdown: ack now, run() returns after the drain.
    assert_eq!(
        client
            .shutdown()
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );
    handle.join().unwrap();
}

#[test]
fn one_ms_deadline_returns_unknown_and_the_worker_survives() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 16,
        default_timeout_ms: None,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();

    // A 1 ms deadline on a heavy request: the solver must abandon the
    // search cooperatively and answer `unknown`.
    let resp = client
        .verify(SLOW_SPIN, Some("ptx-v6.0"), Some(16), Some(1))
        .unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("unknown"),
        "got: {resp}"
    );
    let reason = resp.get("reason").and_then(Json::as_str).unwrap();
    assert!(
        reason.contains("deadline") || reason.contains("cancel"),
        "reason: {reason}"
    );

    // Same (sole) worker answers the next request correctly: the
    // timeout neither killed nor poisoned it.
    let tests = gpumc_catalog::figure_tests();
    let t = &tests[0];
    let resp = client.verify(&t.source, None, Some(t.bound), None).unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("done"),
        "got: {resp}"
    );

    let m = client.metrics().unwrap();
    let counters = m.get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(
        counters.get("verdict_unknown").and_then(Json::as_u64),
        Some(1)
    );

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn unmeetable_deadline_is_accepted_and_answers_unknown() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    // A warm-up job first, so the server has completed real work.
    let t = &gpumc_catalog::figure_tests()[0];
    let resp = client.verify(&t.source, None, Some(t.bound), None).unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("done"),
        "got: {resp}"
    );
    // A heavy job with a 1 ms deadline is accepted like any other and
    // answers `unknown` through its cancel token; nothing is refused on
    // a prediction.
    let resp = client
        .verify(SLOW_SPIN, Some("ptx-v6.0"), Some(16), Some(1))
        .unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("unknown"),
        "got: {resp}"
    );
    let m = client.metrics().unwrap();
    let counters = m.get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(
        counters.get("verdict_unknown").and_then(Json::as_u64),
        Some(1)
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn full_queue_rejects_with_backpressure() {
    // One worker, one queue slot: the third-and-later of a burst of
    // slow requests cannot all be accepted. A release build answers
    // this input in under a millisecond, after which its duplicates
    // would be cache hits that never queue, so a delay fault makes each
    // job slow; a fault-armed job also bypasses the cache.
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 1,
        default_timeout_ms: Some(10_000),
        allow_faults: true,
        ..ServerConfig::default()
    });

    // Pipeline a burst on a raw socket (the Client type is strictly
    // request/response; rejections arrive out of order).
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let burst = 6usize;
    for id in 0..burst {
        let req = Json::Obj(vec![
            ("id".into(), Json::count(id as u64)),
            ("verb".into(), Json::str("verify")),
            ("source".into(), Json::str(SLOW_SPIN)),
            ("model".into(), Json::str("ptx-v6.0")),
            ("bound".into(), Json::count(14)),
            ("faults".into(), Json::str("serve.worker:delay_ms:100")),
        ]);
        json::write_line(&mut writer, &req).unwrap();
    }

    let mut statuses = Vec::new();
    for _ in 0..burst {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim_end()).unwrap();
        statuses.push(
            resp.get("status")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    }
    // A full queue is the one refusal: `rejected` means "never
    // accepted; resubmit later". Every accepted job runs to a verdict
    // or to its deadline.
    for s in &statuses {
        assert!(
            ["done", "unknown", "rejected"].contains(&s.as_str()),
            "unexpected status {s}; all: {statuses:?}"
        );
    }
    let refused = statuses.iter().filter(|s| *s == "rejected").count();
    assert!(
        refused >= 1,
        "a burst of {burst} slow jobs into jobs=1/queue=1 must overflow; statuses: {statuses:?}"
    );

    let mut client = Client::connect(&addr).unwrap();
    let m = client.metrics().unwrap();
    let counters = m.get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(
        counters.get("queue_rejected_total").and_then(Json::as_u64),
        Some(refused as u64)
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn bad_requests_get_error_responses_not_disconnects() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 4,
        default_timeout_ms: None,
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for bad in [
        "this is not json",
        r#"{"verb":"frobnicate"}"#,
        r#"{"id":9,"verb":"verify","source":"garbage litmus"}"#,
        r#"{"id":10,"verb":"verify","source":"PTX X\n{ }\nP0@cta 0,gpu 0 ;\nld.weak r0, x ;\nexists (P0:r0 == 0)","model":"no-such-model"}"#,
    ] {
        json::write_line(&mut writer, &bad).unwrap();
    }
    for _ in 0..4 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim_end()).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    }
    // The connection is still healthy afterwards.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(
        client.ping().unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The `portfolio` field is accepted and ignored: every query runs one
/// sequential search whatever it says, so no value of it can size an
/// allocation. A four-billion-worker request answers like the batch
/// CLI and leaves the server answering.
#[test]
fn huge_portfolio_on_a_sat_request_answers_and_the_server_survives() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 4,
        default_timeout_ms: None,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let t = &gpumc_catalog::figure_tests()[0];
    let resp = client
        .request(Json::Obj(vec![
            ("verb".into(), Json::str("verify")),
            ("source".into(), Json::str(&t.source)),
            ("bound".into(), Json::count(u64::from(t.bound))),
            ("portfolio".into(), Json::count(4_000_000_000)),
        ]))
        .unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("done"),
        "got: {resp}"
    );
    let expected = {
        let program = gpumc::parse_litmus(&t.source).unwrap();
        let v = Verifier::new(gpumc_models::load(default_model(program.arch))).with_bound(t.bound);
        verdict_json(&program.name, &v.check_all(&program).unwrap()).to_string()
    };
    assert_eq!(resp.get("verdict").unwrap().to_string(), expected);
    assert_eq!(resp.get("portfolio"), Some(&Json::Null));
    assert_eq!(
        client.ping().unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// One long-lived connection, strictly request/response: every round
/// trip must be answered as soon as the server has it. A response
/// written in pieces on a Nagle socket waits ~40 ms for the client's
/// delayed ACK per round trip, so 200 of them would take ~8 s.
#[test]
fn sequential_round_trips_pay_no_per_response_stall() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 16,
        default_timeout_ms: None,
        ..ServerConfig::default()
    });
    // The test side sends each request in one write with Nagle off, so
    // only the server's writes are under test.
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut roundtrip = |req: &Json| -> Json {
        json::write_line(&mut writer, req).unwrap();
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed"
        );
        Json::parse(line.trim_end()).unwrap()
    };
    let t = &gpumc_catalog::figure_tests()[0];
    let verify = |id: u64| {
        Json::Obj(vec![
            ("id".into(), Json::count(id)),
            ("verb".into(), Json::str("verify")),
            ("source".into(), Json::str(&t.source)),
            ("bound".into(), Json::count(u64::from(t.bound))),
        ])
    };

    // Untimed warm-up: the first verify computes and caches the verdict.
    let first = roundtrip(&verify(0));
    assert_eq!(
        first.get("status").and_then(Json::as_str),
        Some("done"),
        "got: {first}"
    );
    let verdict = first.get("verdict").unwrap().clone();

    let start = Instant::now();
    for id in 1..=100 {
        let resp = roundtrip(&Json::Obj(vec![
            ("id".into(), Json::count(id)),
            ("verb".into(), Json::str("ping")),
        ]));
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(id));
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    }
    for id in 101..=200 {
        let resp = roundtrip(&verify(id));
        assert_eq!(resp.get("id").and_then(Json::as_u64), Some(id));
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("done"),
            "got: {resp}"
        );
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("verdict"), Some(&verdict));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "200 sequential round trips took {elapsed:?}: a per-response stall is back"
    );

    let resp = roundtrip(&Json::Obj(vec![
        ("id".into(), Json::count(201)),
        ("verb".into(), Json::str("shutdown")),
    ]));
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    handle.join().unwrap();
}
