//! Cluster chaos matrix: the failover contract of the fleet layer
//! under dead, wedged and refusing shards and injected transport
//! failures (DESIGN.md §16).
//!
//! The invariants every scenario checks:
//!
//! * every *answered* verdict is byte-identical to a single-node
//!   baseline run — failover may change *who* answers, never *what*;
//! * every *unanswered* request is answered `failed`, never silently
//!   dropped.
//!
//! Scenarios serialize on a shared mutex: `route.transport` is probed
//! by every router in this test binary, so a test that installs a
//! process-global fault plan would bleed injections into the others.

use std::io::{BufRead, BufReader, Read};
use std::sync::{Mutex, MutexGuard};

use gpumc_fleet::router::{route, RoutePolicy, RouteRequest};
use gpumc_serve::json::{self, Json};
use gpumc_serve::{Server, ServerConfig};

/// Serializes every test in this file: global fault plans and real
/// socket servers do not share a process gracefully.
static CHAOS: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(|e| e.into_inner())
}

fn spawn_shard() -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shutdown(addr: &str) {
    let mut client = gpumc_serve::Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
}

/// An address that refuses connections: a shard that died before the
/// run.
fn dead_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

/// A shard that accepts, swallows the request, and goes silent — a
/// wedged node, distinguishable from a dead one only by timeout.
fn stalled_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { continue };
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_secs(600));
                }
            });
        }
    });
    addr
}

/// A shard whose queue is always full: it answers every request line
/// `{"id":<its id>,"status":"rejected","error":"queue full"}`.
fn refusing_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(stream) = conn else { continue };
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().unwrap();
                for line in BufReader::new(stream).lines() {
                    let Ok(line) = line else { break };
                    let id = Json::parse(&line).ok().and_then(|r| r.get("id")?.as_u64());
                    let resp = Json::Obj(vec![
                        ("id".into(), id.map_or(Json::Null, Json::count)),
                        ("status".into(), Json::str("rejected")),
                        ("error".into(), Json::str("queue full")),
                    ]);
                    if json::write_line(&mut writer, &resp).is_err() {
                        break;
                    }
                }
            });
        }
    });
    addr
}

fn suite() -> Vec<RouteRequest> {
    gpumc_catalog::figure_tests()
        .into_iter()
        .map(|t| RouteRequest {
            name: t.name,
            source: t.source,
            model: None,
            bound: t.bound,
            engine: "sat".into(),
            timeout_ms: None,
            faults: None,
        })
        .collect()
}

/// Single-node ground truth (run with no faults installed).
fn baseline(requests: &[RouteRequest]) -> String {
    let (addr, handle) = spawn_shard();
    let report = route(
        requests,
        std::slice::from_ref(&addr),
        &RoutePolicy::default(),
    );
    assert!(report.all_done(), "baseline must answer everything");
    shutdown(&addr);
    handle.join().unwrap();
    report.merged()
}

#[test]
fn dead_and_stalled_shards_fail_over_byte_identically() {
    let _g = lock();
    let requests = suite();
    let expected = baseline(&requests);

    // Ring of three: one healthy shard, one dead, one wedged. The
    // wedged one is only survivable because the per-attempt read
    // timeout turns its silence into a transport failure.
    let (healthy, handle) = spawn_shard();
    let shards = [healthy.clone(), dead_addr(), stalled_addr()];
    let policy = RoutePolicy {
        read_timeout_ms: Some(500),
        ..RoutePolicy::default()
    };
    let report = route(&requests, &shards, &policy);
    assert!(report.all_done(), "failover must answer everything");
    assert_eq!(
        report.merged(),
        expected,
        "merged results with dead+stalled shards diverged from single-node"
    );
    assert!(report.shards[1].died, "the dead shard must be marked dead");
    assert_eq!(report.shards[1].answered, 0);
    assert_eq!(
        report.shards[2].answered, 0,
        "a wedged shard answers nothing"
    );

    shutdown(&healthy);
    handle.join().unwrap();
}

#[test]
fn shedding_shard_fails_over_byte_identically() {
    let _g = lock();
    let requests = suite();
    let expected = baseline(&requests);

    // One shard's queue is always full: it answers instantly with
    // `status:"rejected"`, which the router treats as "alive but
    // refusing" — failover without marking the shard dead.
    let (healthy, handle) = spawn_shard();
    let shards = [healthy.clone(), refusing_addr()];
    let report = route(&requests, &shards, &RoutePolicy::default());
    assert!(report.all_done(), "failover must answer everything");
    assert_eq!(
        report.merged(),
        expected,
        "merged results with a refusing shard diverged from single-node"
    );
    assert!(
        !report.shards.iter().any(|s| s.died),
        "a refusing shard is not dead"
    );
    assert_eq!(report.shards[1].answered, 0, "a full queue answers nothing");

    shutdown(&healthy);
    handle.join().unwrap();
}

#[test]
fn cluster_wide_outage_classifies_every_request() {
    let _g = lock();
    let requests = suite();

    // One shard refusing everything, one dead: no request can be
    // answered, and every single one must still come back `failed`.
    let shards = [refusing_addr(), dead_addr()];
    let policy = RoutePolicy {
        max_attempts: 2,
        backoff_ms: 1,
        ..RoutePolicy::default()
    };
    let report = route(&requests, &shards, &policy);
    assert!(!report.all_done());
    assert_eq!(report.results.len(), requests.len(), "nothing dropped");
    for r in report.results.iter() {
        assert_eq!(
            r.status, "failed",
            "{}: unclassified terminal status `{}`",
            r.name, r.status
        );
        assert!(r.attempts >= 1, "{}: no attempts recorded", r.name);
    }
}

#[test]
fn transport_blip_is_retried_byte_identically() {
    let _g = lock();
    let requests = suite();
    let expected = baseline(&requests);

    // A single shard behind an injected one-shot transport failure: the
    // blipped attempt fails over to the next ring successor, which in a
    // one-shard ring is the same shard, and the retry answers.
    let (addr, handle) = spawn_shard();
    gpumc::fault::install_global(std::sync::Arc::new(
        gpumc::fault::FaultPlan::parse("route.transport:spurious_unknown:once").unwrap(),
    ));
    let report = route(
        &requests,
        std::slice::from_ref(&addr),
        &RoutePolicy::default(),
    );
    gpumc::fault::clear_global();
    assert!(
        report.all_done(),
        "the retry must answer the blipped request"
    );
    assert_eq!(
        report.merged(),
        expected,
        "a retried blip changed the merged bytes"
    );
    assert!(report.shards[0].died, "the blip marks the shard dead");
    let attempts: Vec<u32> = report.results.iter().map(|r| r.attempts).collect();
    assert_eq!(
        attempts.iter().filter(|&&a| a == 2).count(),
        1,
        "exactly one request was blipped and retried once: {attempts:?}"
    );
    assert!(
        attempts.iter().all(|&a| a <= 2),
        "no request needed more than one retry: {attempts:?}"
    );

    shutdown(&addr);
    handle.join().unwrap();
}
