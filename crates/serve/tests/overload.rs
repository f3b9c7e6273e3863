//! End-to-end tests of the degradation ladder (DESIGN.md §18): pinned
//! ladder levels, a deadline that cannot be met, and the
//! `serve.overload` fault point.

use std::sync::mpsc;

use gpumc_serve::json::Json;
use gpumc_serve::{Client, DegradeLevel, Server, ServerConfig};

/// A spin-heavy three-thread test: slow enough at bound 16 that a 1 ms
/// deadline always expires mid-verification.
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

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gpumc-serve-overload-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn status(resp: &Json) -> &str {
    resp.get("status").and_then(Json::as_str).unwrap()
}

fn degraded_level(resp: &Json) -> Option<&str> {
    resp.get("degraded")?.get("level")?.as_str()
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("metrics")
        .unwrap()
        .get("counters")
        .unwrap()
        .get(name)
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn pinned_shed_refuses_fresh_work_but_serves_cache_hits() {
    let dir = tmpdir("shed");
    let tests = gpumc_catalog::figure_tests();
    let warm = &tests[0];
    // Phase 1: a healthy server warms the persistent cache.
    {
        let (addr, handle) = spawn_server(ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let mut client = Client::connect(&addr).unwrap();
        let resp = client
            .verify(&warm.source, None, Some(warm.bound), None)
            .unwrap();
        assert_eq!(status(&resp), "done", "got: {resp}");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }
    // Phase 2: the same store behind a server pinned at `shed`.
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(dir.clone()),
        force_degrade: Some(DegradeLevel::Shed),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    // The warm digest still answers — from the cache, flagged degraded.
    let resp = client
        .verify(&warm.source, None, Some(warm.bound), None)
        .unwrap();
    assert_eq!(status(&resp), "done", "got: {resp}");
    assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(degraded_level(&resp), Some("shed"));
    // Anything not in the cache is refused before acceptance.
    let cold = &tests[1];
    let resp = client
        .verify(&cold.source, None, Some(cold.bound), None)
        .unwrap();
    assert_eq!(status(&resp), "shed", "got: {resp}");
    assert_eq!(resp.get("error").and_then(Json::as_str), Some("overloaded"));
    assert_eq!(degraded_level(&resp), Some("shed"));
    let m = client.metrics().unwrap();
    assert_eq!(counter(&m, "jobs_shed_total"), 1);
    assert_eq!(counter(&m, "cache_hits"), 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pinned_cache_only_overrides_the_cache_opt_out() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        force_degrade: Some(DegradeLevel::CacheOnly),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let t = &gpumc_catalog::figure_tests()[0];
    // First sight: a miss, verified fresh, stamped degraded.
    let resp = client.verify(&t.source, None, Some(t.bound), None).unwrap();
    assert_eq!(status(&resp), "done", "got: {resp}");
    assert_eq!(degraded_level(&resp), Some("cache-only"));
    assert_eq!(resp.get("cached"), None);
    // A `"cache":false` request would normally force a fresh run; at
    // cache-only the lookup opt-out is overridden and the cache answers.
    let resp = client
        .request(Json::Obj(vec![
            ("verb".into(), Json::str("verify")),
            ("source".into(), Json::str(&t.source)),
            ("bound".into(), Json::count(u64::from(t.bound))),
            ("cache".into(), Json::Bool(false)),
        ]))
        .unwrap();
    assert_eq!(status(&resp), "done", "got: {resp}");
    assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(degraded_level(&resp), Some("cache-only"));
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
    assert_eq!(status(&resp), "done", "got: {resp}");
    // A heavy job with a 1 ms deadline is accepted like any other and
    // answers `unknown` through its cancel token; nothing is shed on a
    // prediction.
    let resp = client
        .verify(SLOW_SPIN, Some("ptx-v6.0"), Some(16), Some(1))
        .unwrap();
    assert_eq!(status(&resp), "unknown", "got: {resp}");
    let m = client.metrics().unwrap();
    assert_eq!(counter(&m, "jobs_shed_total"), 0);
    assert_eq!(counter(&m, "verdict_unknown"), 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn overload_fault_point_sheds_one_request() {
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        allow_faults: true,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let t = &gpumc_catalog::figure_tests()[0];
    // The armed request is refused as if the shard were flooded...
    let resp = client
        .request(Json::Obj(vec![
            ("verb".into(), Json::str("verify")),
            ("source".into(), Json::str(&t.source)),
            ("bound".into(), Json::count(u64::from(t.bound))),
            (
                "faults".into(),
                Json::str("serve.overload:spurious_unknown"),
            ),
        ]))
        .unwrap();
    assert_eq!(status(&resp), "shed", "got: {resp}");
    assert_eq!(degraded_level(&resp), Some("shed"));
    // ...while the next clean request sails through: the injection was
    // per-request, not server state.
    let resp = client.verify(&t.source, None, Some(t.bound), None).unwrap();
    assert_eq!(status(&resp), "done", "got: {resp}");
    let m = client.metrics().unwrap();
    assert_eq!(counter(&m, "overload_injected_total"), 1);
    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn ladder_engages_and_recovers_under_a_real_burst() {
    // A tiny queue under a burst of slow jobs drives pressure across
    // the shed threshold; once the burst drains, a fresh request is
    // admitted again (the ladder recovered on its own).
    let (addr, handle) = spawn_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_queue: 2,
        default_timeout_ms: Some(10_000),
        ..ServerConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let addr2 = addr.clone();
    let burst = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        let mut clients = Vec::new();
        for _ in 0..6 {
            clients.push(Client::connect(&addr2).unwrap());
        }
        tx.send(()).unwrap();
        // One in-flight request per connection, all racing the queue.
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut c| {
                std::thread::spawn(move || {
                    let r = c
                        .verify(SLOW_SPIN, Some("ptx-v6.0"), Some(12), None)
                        .unwrap();
                    status(&r).to_string()
                })
            })
            .collect();
        for h in handles {
            statuses.push(h.join().unwrap());
        }
        statuses
    });
    rx.recv().unwrap();
    let statuses = burst.join().unwrap();
    // Every request was answered and classified; none vanished.
    assert_eq!(statuses.len(), 6);
    for s in &statuses {
        assert!(
            ["done", "shed", "rejected", "unknown"].contains(&s.as_str()),
            "unclassified status {s}; all: {statuses:?}"
        );
    }
    // After the burst, the ladder has fallen back and admits new work.
    let mut client = Client::connect(&addr).unwrap();
    let t = &gpumc_catalog::figure_tests()[0];
    let resp = client.verify(&t.source, None, Some(t.bound), None).unwrap();
    assert_eq!(status(&resp), "done", "got: {resp}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}
