//! The content-addressed result cache, observed end-to-end through the
//! wire protocol: duplicate requests must be answered without invoking
//! the encoder or solver, the persistent store must survive a restart,
//! a stale verifier fingerprint must invalidate it, and `cache:false`,
//! fault-armed, and non-definitive answers must all bypass it.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use gpumc_serve::json::{self, Json};
use gpumc_serve::{Server, ServerConfig};

const MP: &str = "PTX MP\n{ x = 0; flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | ld.weak r0, flag ;\n\
st.weak flag, 1 | ld.weak r1, x ;\n\
exists (P1:r0 == 1 /\\ P1:r1 == 0)";

const SB: &str = "PTX SB\n{ x = 0; y = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | st.weak y, 1 ;\n\
ld.weak r0, y | ld.weak r1, x ;\n\
exists (P0:r0 == 0 /\\ P1:r1 == 0)";

fn spawn(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(&config).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        json::write_line(&mut self.writer, &line).expect("send");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("recv");
        Json::parse(response.trim_end()).expect("response parses")
    }

    fn verify(&mut self, id: u64, source: &str, extra: &str) -> Json {
        let source = Json::str(source);
        self.roundtrip(&format!(
            r#"{{"id":{id},"verb":"verify","source":{source},"bound":1{extra}}}"#
        ))
    }

    fn metrics(&mut self) -> Json {
        let v = self.roundtrip(r#"{"verb":"metrics"}"#);
        v.get("metrics").expect("metrics payload").clone()
    }

    fn shutdown(&mut self) {
        let v = self.roundtrip(r#"{"verb":"shutdown"}"#);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    }
}

fn counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn hist_count(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn quiet_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        ..ServerConfig::default()
    }
}

/// The headline acceptance test: a duplicate request is served from the
/// cache without the encoder or solver running again — the `encode_us`
/// and `solve_us` histograms and the solver work counters stay flat
/// between the first and second answer.
#[test]
fn duplicate_request_never_reaches_the_encoder_or_solver() {
    let (addr, handle) = spawn(quiet_config());
    let mut conn = Conn::connect(&addr);

    let fresh = conn.verify(1, MP, "");
    assert_eq!(fresh.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(fresh.get("cached"), None);
    let before = conn.metrics();
    assert_eq!(hist_count(&before, "encode_us"), 1);
    assert_eq!(hist_count(&before, "solve_us"), 1);
    assert_eq!(counter(&before, "cache_misses"), 1);
    assert_eq!(counter(&before, "cache_inserts"), 1);

    let hit = conn.verify(2, MP, "");
    assert_eq!(hit.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(hit.get("verdict"), fresh.get("verdict"));
    let after = conn.metrics();
    // Flat: no second encode, no second solve, no new solver work.
    assert_eq!(hist_count(&after, "encode_us"), 1);
    assert_eq!(hist_count(&after, "solve_us"), 1);
    assert_eq!(
        counter(&after, "solver_conflicts_total"),
        counter(&before, "solver_conflicts_total")
    );
    assert_eq!(
        counter(&after, "solver_propagations_total"),
        counter(&before, "solver_propagations_total")
    );
    assert_eq!(counter(&after, "cache_hits"), 1);
    // A cache hit is still a served verdict: pass/fail counters and the
    // latency histogram keep adding up.
    assert_eq!(
        counter(&after, "verdict_pass") + counter(&after, "verdict_fail"),
        2
    );
    assert_eq!(hist_count(&after, "verify_latency_us"), 2);

    conn.shutdown();
    handle.join().unwrap();
}

/// Equivalent requests with different wire spellings (shuffled keys,
/// elided defaults) hit the same cache entry.
#[test]
fn wire_spelling_does_not_fragment_the_cache() {
    let (addr, handle) = spawn(quiet_config());
    let mut conn = Conn::connect(&addr);
    let source = Json::str(MP);

    let fresh = conn.roundtrip(&format!(
        r#"{{"id":1,"verb":"verify","source":{source},"bound":1,"engine":"sat","cache":true}}"#
    ));
    assert_eq!(fresh.get("status").and_then(Json::as_str), Some("done"));
    let hit = conn.roundtrip(&format!(
        r#"{{"bound":1,"source":{source},"verb":"verify","id":2,"proto":1}}"#
    ));
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(hit.get("verdict"), fresh.get("verdict"));

    conn.shutdown();
    handle.join().unwrap();
}

/// `cache:false` bypasses the cache in both directions: the request is
/// neither answered from it nor recorded into it.
#[test]
fn cache_false_bypasses_lookup_and_insert() {
    let (addr, handle) = spawn(quiet_config());
    let mut conn = Conn::connect(&addr);

    let first = conn.verify(1, SB, r#","cache":false"#);
    assert_eq!(first.get("status").and_then(Json::as_str), Some("done"));
    let second = conn.verify(2, SB, r#","cache":false"#);
    assert_eq!(second.get("cached"), None);
    let m = conn.metrics();
    assert_eq!(counter(&m, "cache_hits"), 0);
    assert_eq!(counter(&m, "cache_misses"), 0);
    assert_eq!(counter(&m, "cache_inserts"), 0);
    assert_eq!(hist_count(&m, "encode_us"), 2);

    // The bypassed runs also never populated the cache: a cacheable
    // request still encodes fresh, then the next one hits.
    let third = conn.verify(3, SB, "");
    assert_eq!(third.get("cached"), None);
    let fourth = conn.verify(4, SB, "");
    assert_eq!(fourth.get("cached").and_then(Json::as_bool), Some(true));

    conn.shutdown();
    handle.join().unwrap();
}

/// `status:"unknown"` answers (deadline expiry here) are never cached:
/// the same request asked again with a sane deadline gets a real,
/// freshly computed verdict.
#[test]
fn unknown_answers_are_not_cached() {
    let (addr, handle) = spawn(quiet_config());
    let mut conn = Conn::connect(&addr);

    // A zero deadline expires before the solver starts.
    let unknown = conn.verify(1, MP, r#","timeout_ms":0"#);
    assert_eq!(
        unknown.get("status").and_then(Json::as_str),
        Some("unknown")
    );
    let m = conn.metrics();
    assert_eq!(counter(&m, "cache_inserts"), 0);

    // Same digest (the deadline is not part of request identity), but
    // the unknown above must not satisfy it.
    let fresh = conn.verify(2, MP, "");
    assert_eq!(fresh.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(fresh.get("cached"), None);

    conn.shutdown();
    handle.join().unwrap();
}

/// The persistent store answers across a server restart: a second
/// server process pointed at the same directory serves the first
/// process's verdict as a cache hit without re-verifying.
#[test]
fn persistent_cache_survives_a_restart() {
    let dir = std::env::temp_dir().join(format!("gpumc-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir cache dir");

    let config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..quiet_config()
    };

    let (addr, handle) = spawn(config());
    let mut conn = Conn::connect(&addr);
    let fresh = conn.verify(1, MP, "");
    assert_eq!(fresh.get("status").and_then(Json::as_str), Some("done"));
    let verdict = fresh.get("verdict").cloned();
    conn.shutdown();
    handle.join().unwrap();

    let (addr, handle) = spawn(config());
    let mut conn = Conn::connect(&addr);
    let hit = conn.verify(2, MP, "");
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(hit.get("verdict").cloned(), verdict);
    let m = conn.metrics();
    assert_eq!(hist_count(&m, "encode_us"), 0, "warm restart re-encoded");
    assert!(
        m.get("gauges")
            .and_then(|g| g.get("result_cache_loaded"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    conn.shutdown();
    handle.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

/// A store written by a different verifier fingerprint is invalidated
/// wholesale on open — stale verdicts are truncated, not served.
#[test]
fn stale_fingerprint_invalidates_the_persistent_store() {
    let dir = std::env::temp_dir().join(format!("gpumc-serve-cache-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir cache dir");

    // Populate the directory as an older verifier build would have.
    {
        let stale =
            gpumc_fleet::cache::ResultCache::persistent(64, &dir, "gpumc=0.0.0;rev=0;scheme=0")
                .expect("open stale store");
        let d = gpumc_fleet::digest::source_digest(MP, None, 1, "all", "sat", 1).unwrap();
        stale.insert(
            d,
            gpumc_fleet::cache::CachedVerdict {
                test: "MP".into(),
                reachable: false,
                expectation: "poisoned".into(),
                liveness: "poisoned".into(),
                datarace: "poisoned".into(),
            },
        );
    }

    let (addr, handle) = spawn(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..quiet_config()
    });
    let mut conn = Conn::connect(&addr);
    let fresh = conn.verify(1, MP, "");
    // Fresh verdict, not the poisoned stale entry.
    assert_eq!(fresh.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(fresh.get("cached"), None);
    assert_ne!(
        fresh
            .get("verdict")
            .and_then(|v| v.get("expectation"))
            .and_then(Json::as_str),
        Some("poisoned")
    );
    let m = conn.metrics();
    assert_eq!(
        m.get("gauges")
            .and_then(|g| g.get("result_cache_invalidated"))
            .and_then(Json::as_f64),
        Some(1.0)
    );
    conn.shutdown();
    handle.join().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}
