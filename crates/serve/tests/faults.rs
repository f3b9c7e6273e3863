//! Crash and fault-injection tests for the daemon: an injected worker
//! panic must never lose a request, change a verdict or kill a worker —
//! every job is answered, a panicking job is answered a classified
//! `status:"failed"` after its one run, and jobs that do not panic
//! answer byte-identically to a no-fault run.
//!
//! Servers here run with `allow_faults: true` (the `--enable-faults`
//! flag); the plans arrive per-request through the `faults` field, so
//! nothing in these tests leaks process-global state into the other
//! test binaries.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use gpumc_serve::json::{self, Json};
use gpumc_serve::{Client, Server, ServerConfig};

fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

/// Pipelines `requests` on one socket and returns the responses keyed
/// by id. Every request must carry a distinct numeric id.
fn roundtrip(addr: &str, requests: &[Json]) -> HashMap<u64, Json> {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for req in requests {
        json::write_line(&mut writer, req).unwrap();
    }
    let mut responses = HashMap::new();
    for _ in 0..requests.len() {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).unwrap() > 0,
            "connection closed with responses outstanding"
        );
        let resp = Json::parse(line.trim_end()).unwrap();
        let id = resp.get("id").and_then(Json::as_u64).expect("response id");
        assert!(
            responses.insert(id, resp).is_none(),
            "duplicate response for id {id}"
        );
    }
    responses
}

fn verify_request(id: u64, source: &str, bound: u32, faults: Option<&str>) -> Json {
    let mut fields = vec![
        ("id".into(), Json::count(id)),
        ("verb".into(), Json::str("verify")),
        ("source".into(), Json::str(source)),
        ("bound".into(), Json::count(u64::from(bound))),
    ];
    if let Some(spec) = faults {
        fields.push(("faults".into(), Json::str(spec)));
    }
    Json::Obj(fields)
}

fn counters(addr: &str) -> Json {
    let mut client = Client::connect(addr).unwrap();
    let m = client.metrics().unwrap();
    m.get("metrics").unwrap().get("counters").unwrap().clone()
}

fn count(counters: &Json, name: &str) -> u64 {
    counters.get(name).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn fifty_concurrent_with_ten_percent_panics_all_answered_identically() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 4,
        max_queue: 256,
        allow_faults: true,
        ..ServerConfig::default()
    });
    let tests = gpumc_catalog::figure_tests();
    let total = 50u64;
    let workload: Vec<_> = (0..total)
        .map(|i| tests[i as usize % tests.len()].clone())
        .collect();

    // Pass 1: no faults — the ground truth.
    let baseline_reqs: Vec<Json> = workload
        .iter()
        .enumerate()
        .map(|(i, t)| verify_request(i as u64, &t.source, t.bound, None))
        .collect();
    let baseline = roundtrip(&addr, &baseline_reqs);
    for (id, resp) in &baseline {
        assert_eq!(
            resp.get("status").and_then(Json::as_str),
            Some("done"),
            "baseline request {id}: {resp}"
        );
    }

    // Pass 2: every job carries a 10% per-hit panic plan with its own
    // seed. A job whose one run panics answers `failed`; every other
    // job answers the baseline verdict.
    let fault_reqs: Vec<Json> = workload
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let spec = format!("serve.worker:panic:p=0.1:seed={i}");
            verify_request(1000 + i as u64, &t.source, t.bound, Some(&spec))
        })
        .collect();
    let faulted = roundtrip(&addr, &fault_reqs);
    assert_eq!(faulted.len(), total as usize, "every job is answered");

    let mut failed = 0u64;
    for i in 0..total {
        let resp = &faulted[&(1000 + i)];
        match resp.get("status").and_then(Json::as_str) {
            Some("done") => assert_eq!(
                resp.get("verdict").unwrap().to_string(),
                baseline[&i].get("verdict").unwrap().to_string(),
                "request {i}: fault-run verdict differs from the no-fault run"
            ),
            Some("failed") => {
                assert_eq!(resp.get("class").and_then(Json::as_str), Some("panic"));
                assert_eq!(resp.get("attempts").and_then(Json::as_u64), Some(1));
                failed += 1;
            }
            other => panic!("request {i}: unexpected status {other:?}: {resp}"),
        }
    }

    let c = counters(&addr);
    assert!(
        failed >= 1,
        "deterministic seeds 0..50 at p=0.1 must fire at least once: {c}"
    );
    assert_eq!(
        count(&c, "jobs_failed"),
        failed,
        "every panic is one failed response, counted once: {c}"
    );

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn a_panicking_job_answers_failed_once_and_the_worker_lives_on() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 16,
        allow_faults: true,
        ..ServerConfig::default()
    });
    let t = &gpumc_catalog::figure_tests()[0];

    // The sole worker's job panics on its one run: the client gets
    // `failed`/`panic` at once, with no retry.
    let resps = roundtrip(
        &addr,
        &[verify_request(
            7,
            &t.source,
            t.bound,
            Some("serve.worker:panic"),
        )],
    );
    let resp = &resps[&7];
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("failed"));
    assert_eq!(resp.get("class").and_then(Json::as_str), Some("panic"));
    assert_eq!(resp.get("attempts").and_then(Json::as_u64), Some(1));
    let error = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("injected fault"), "error: {error}");

    let c = counters(&addr);
    assert_eq!(count(&c, "jobs_failed"), 1, "counters: {c}");
    // `jobs_failed` is the only job counter: nothing was retried.
    let Json::Obj(fields) = &c else {
        panic!("counters are an object: {c}")
    };
    let job_counters: Vec<&str> = fields
        .iter()
        .map(|(name, _)| name.as_str())
        .filter(|name| name.starts_with("jobs_"))
        .collect();
    assert_eq!(job_counters, ["jobs_failed"], "counters: {c}");

    // The daemon survived: the same worker answers a clean request.
    let resps = roundtrip(&addr, &[verify_request(8, &t.source, t.bound, None)]);
    assert_eq!(resps[&8].get("status").and_then(Json::as_str), Some("done"));

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn fault_field_is_refused_unless_enabled() {
    // Default config: allow_faults is off, as in production.
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 4,
        ..ServerConfig::default()
    });
    let t = &gpumc_catalog::figure_tests()[0];
    let resps = roundtrip(
        &addr,
        &[verify_request(
            3,
            &t.source,
            t.bound,
            Some("serve.worker:panic"),
        )],
    );
    let resp = &resps[&3];
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    let error = resp.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("disabled"), "error: {error}");

    // A malformed spec on a fault-enabled server is an error too, and
    // so is a spec naming a point that nothing probes.
    let (addr2, handle2) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 4,
        allow_faults: true,
        ..ServerConfig::default()
    });
    let resps = roundtrip(
        &addr2,
        &[
            verify_request(4, &t.source, t.bound, Some("serve.worker:frobnicate")),
            verify_request(5, &t.source, t.bound, Some("serve.wokrer:panic")),
        ],
    );
    for (id, named) in [(4, "frobnicate"), (5, "serve.wokrer")] {
        let resp = &resps[&id];
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(
            error.contains("bad fault spec") && error.contains(named),
            "error: {error}"
        );
    }

    for (addr, handle) in [(addr, handle), (addr2, handle2)] {
        let mut client = Client::connect(&addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}
