//! Sharded routing: fan a suite over N serve instances, merge
//! deterministically, survive dead, wedged and refusing shards.
//!
//! Requests are assigned to shards by content digest over a
//! consistent-hash ring ([`crate::ring`]), so identical queries always
//! land on the same node and its result cache, and a topology change
//! moves as few digests as possible. Each request is driven
//! end-to-end by one driver thread from a bounded pool, which walks the
//! ring's successor order one attempt at a time: attempt *k* goes to
//! the *k*-th successor (mod the shard count), after a backoff.
//!
//! Failure semantics (DESIGN.md §16):
//!
//! * `done` / `unknown` / `error` responses are *answers* — final.
//! * `rejected` (a full queue or a draining node) and `failed` (the
//!   node's retry policy gave up) responses are *node-level* trouble:
//!   the request fails over to the next ring successor.
//! * a transport failure (connect refused or timed out, connection
//!   died, read timed out, a reply for another request id) marks the
//!   shard `died` and fails over the same way. A failing shard is not
//!   quarantined: every request that reaches it tries it again.
//! * each attempt has one timeout, [`RoutePolicy::read_timeout_ms`] cut
//!   to the time left before [`RoutePolicy::deadline_ms`]; it bounds
//!   the connect, the write and the read, so no attempt outlives its
//!   request.
//! * when the attempt budget or the per-request deadline is exhausted,
//!   the request answers a *classified* line: `status:"failed"` (class
//!   `cluster`, with the attempt count and the last error). Nothing is
//!   ever silently dropped.
//!
//! A per-request fault plan (the `faults` field) is a *node-local*
//! injection: it rides the first attempt only and is stripped on
//! failover, so an injected node death cannot chase the request across
//! the fleet it was meant to test.
//!
//! The merged output is one line per request, *in input order*, each
//! carrying only order-independent fields (no ids, no timings) — so a
//! 2-shard run with a mid-run node death is byte-identical to a
//! single-node run of the same suite.

use std::io::{self, BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::digest::{source_digest, PROTOCOL_VERSION};
use crate::json::{self, Json};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Requests driven concurrently, one driver thread each.
const MAX_DRIVERS: usize = 16;

/// Why a lock shared by the drivers can be poisoned.
const DRIVER_PANICKED: &str = "a route driver panicked";

/// One request of a routed suite.
#[derive(Debug, Clone)]
pub struct RouteRequest {
    /// Display name (the catalog test name), used in failure lines.
    pub name: String,
    /// Litmus source.
    pub source: String,
    /// Model name; `None` uses the dialect default.
    pub model: Option<String>,
    pub bound: u32,
    /// Engine spelling (`sat`, `enumerate`, `alloy`, `dpor`).
    pub engine: String,
    pub timeout_ms: Option<u64>,
    /// Node-local fault injection; not propagated on failover.
    pub faults: Option<String>,
}

/// Cluster-wide retry and deadline policy.
#[derive(Debug, Clone, Copy)]
pub struct RoutePolicy {
    /// Total attempts per request across all shards; `0` means
    /// `2 × shards`.
    pub max_attempts: u32,
    /// Sleep before each retry attempt.
    pub backoff_ms: u64,
    /// Per-request deadline; past it the request answers
    /// `failed(timeout)` with its attempt count. `None` waits forever
    /// (the node-side timeout still applies).
    pub deadline_ms: Option<u64>,
    /// Per-attempt timeout on the connect, the write and the read;
    /// `None` leaves them unbounded (a stalled shard then only
    /// resolves via `deadline_ms`).
    pub read_timeout_ms: Option<u64>,
}

impl Default for RoutePolicy {
    fn default() -> RoutePolicy {
        RoutePolicy {
            max_attempts: 0,
            backoff_ms: 25,
            deadline_ms: None,
            read_timeout_ms: None,
        }
    }
}

/// Per-shard accounting.
#[derive(Debug, Clone)]
pub struct ShardStats {
    pub addr: String,
    /// Requests sent (attempts, not unique requests).
    pub sent: u64,
    /// Final answers produced.
    pub answered: u64,
    /// Whether the shard ever failed at the transport level.
    pub died: bool,
}

/// The final state of one routed request.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    pub name: String,
    /// `done`, `unknown`, `error`, or `failed`.
    pub status: String,
    /// The merged output line (order-independent fields only).
    pub line: String,
    /// Shard index that produced the final answer, if any.
    pub shard: Option<usize>,
    pub attempts: u32,
}

/// Everything [`route`] produces.
#[derive(Debug)]
pub struct RouteReport {
    /// One outcome per request, in input order.
    pub results: Vec<RouteOutcome>,
    pub shards: Vec<ShardStats>,
}

impl RouteReport {
    /// The deterministic merge: one line per request in input order,
    /// with a trailing newline.
    pub fn merged(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&r.line);
            out.push('\n');
        }
        out
    }

    /// Whether every request reached a verdict (`done`).
    pub fn all_done(&self) -> bool {
        self.results.iter().all(|r| r.status == "done")
    }
}

/// The shard a digest homes on in an `n`-shard fleet: the owner on the
/// canonical ring (`s0..s{n-1}` ids), which is exactly how [`route`]
/// assigns. Exported so tests and operators can predict placement.
pub fn home_shard(digest: u128, shards: usize) -> usize {
    HashRing::with_shards(shards, DEFAULT_VNODES)
        .owner(digest)
        .unwrap_or(0)
}

/// Routing digest for a request: the canonical content digest where the
/// request parses, an FNV fallback over the raw source where it does
/// not (the server will answer `error`; the request still needs *a*
/// home).
pub fn routing_digest(req: &RouteRequest) -> u128 {
    source_digest(
        &req.source,
        req.model.as_deref(),
        req.bound,
        "all",
        &req.engine,
        PROTOCOL_VERSION,
    )
    .unwrap_or_else(|_| {
        let mut h: u128 = 0xcbf2_9ce4_8422_2325;
        for b in req.source.bytes() {
            h ^= u128::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    })
}

/// What one attempt on one shard produced.
enum Attempt {
    /// A final answer (`done`/`unknown`/`error`).
    Final(Json),
    /// A retryable answer (`rejected`/`failed`), with its error text.
    Retry(String),
    /// The connection failed, died, or answered another request.
    Transport(String),
}

/// Connects to `addr`, within `timeout` per resolved address when one
/// is given.
fn connect(addr: &str, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let Some(timeout) = timeout else {
        return TcpStream::connect(addr);
    };
    let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing");
    for a in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&a, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// Sends one request on a fresh connection and reads its one reply. A
/// connection carries one request, so a reply with another id is a
/// transport failure.
fn roundtrip(addr: &str, req: &Json, id: u64, timeout: Option<Duration>) -> Result<Json, String> {
    let stream = connect(addr, timeout).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_write_timeout(timeout))
        .and_then(|()| stream.set_read_timeout(timeout))
        .map_err(|e| format!("connect: {e}"))?;
    json::write_line(&mut &stream, req).map_err(|e| format!("write: {e}"))?;
    let mut line = String::new();
    let n = BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| format!("read: {e}"))?;
    if n == 0 {
        return Err("connection closed mid-request".to_string());
    }
    let resp = Json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
    match resp.get("id").and_then(Json::as_u64) {
        Some(got) if got == id => Ok(resp),
        got => Err(format!("reply for id {got:?}, expected {id}")),
    }
}

fn run_attempt(addr: &str, req_json: &Json, id: u64, timeout: Option<Duration>) -> Attempt {
    if gpumc_fault::hit(gpumc_fault::points::ROUTE_TRANSPORT).is_some() {
        return Attempt::Transport("injected transport fault".to_string());
    }
    match roundtrip(addr, req_json, id, timeout) {
        Ok(resp) => match resp.get("status").and_then(Json::as_str) {
            Some(status @ ("rejected" | "failed")) => Attempt::Retry(
                resp.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or(status)
                    .to_string(),
            ),
            _ => Attempt::Final(resp),
        },
        Err(e) => Attempt::Transport(e),
    }
}

fn request_json(req: &RouteRequest, id: u64, with_faults: bool) -> Json {
    let mut fields = vec![
        ("id".into(), Json::count(id)),
        ("verb".into(), Json::str("verify")),
        ("proto".into(), Json::count(u64::from(PROTOCOL_VERSION))),
        ("source".into(), Json::str(&req.source)),
        ("bound".into(), Json::count(u64::from(req.bound))),
        ("engine".into(), Json::str(&req.engine)),
    ];
    if let Some(m) = &req.model {
        fields.push(("model".into(), Json::str(m)));
    }
    if let Some(t) = req.timeout_ms {
        fields.push(("timeout_ms".into(), Json::count(t)));
    }
    if with_faults {
        if let Some(f) = &req.faults {
            fields.push(("faults".into(), Json::str(f)));
        }
    }
    Json::Obj(fields)
}

/// Reduces a response to the order-independent merged line.
fn merged_line(name: &str, resp: &Json) -> (String, String) {
    match resp.get("status").and_then(Json::as_str) {
        Some("done") => {
            let verdict = resp.get("verdict").cloned().unwrap_or(Json::Null);
            ("done".to_string(), verdict.to_string())
        }
        Some("unknown") => {
            let reason = resp.get("reason").and_then(Json::as_str).unwrap_or("");
            let line = Json::Obj(vec![
                ("test".into(), Json::str(name)),
                ("status".into(), Json::str("unknown")),
                ("reason".into(), Json::str(reason)),
            ]);
            ("unknown".to_string(), line.to_string())
        }
        _ => {
            let error = resp.get("error").and_then(Json::as_str).unwrap_or("");
            let line = Json::Obj(vec![
                ("test".into(), Json::str(name)),
                ("status".into(), Json::str("error")),
                ("error".into(), Json::str(error)),
            ]);
            ("error".to_string(), line.to_string())
        }
    }
}

/// The outcome of an unanswered request: `failed` (class `cluster`),
/// with the error and the attempt count.
fn failed_outcome(req: &RouteRequest, error: &str, attempts: u32) -> RouteOutcome {
    let line = Json::Obj(vec![
        ("test".into(), Json::str(&req.name)),
        ("status".into(), Json::str("failed")),
        ("class".into(), Json::str("cluster")),
        ("error".into(), Json::str(error)),
        ("attempts".into(), Json::count(u64::from(attempts))),
    ]);
    RouteOutcome {
        name: req.name.clone(),
        status: "failed".to_string(),
        line: line.to_string(),
        shard: None,
        attempts,
    }
}

/// State shared by every driver of one [`route`].
struct ClusterState {
    addrs: Vec<String>,
    ring: HashRing,
    stats: Mutex<Vec<ShardStats>>,
    policy: RoutePolicy,
    max_attempts: u32,
}

/// Fans `requests` over `shards` (serve addresses) and merges. See the
/// module docs for the failure semantics. Panics on an empty shard
/// list.
pub fn route(requests: &[RouteRequest], shards: &[String], policy: &RoutePolicy) -> RouteReport {
    assert!(!shards.is_empty(), "route needs at least one shard");
    let max_attempts = if policy.max_attempts == 0 {
        (shards.len() as u32) * 2
    } else {
        policy.max_attempts
    };
    let cl = ClusterState {
        addrs: shards.to_vec(),
        ring: HashRing::with_shards(shards.len(), DEFAULT_VNODES),
        stats: Mutex::new(
            shards
                .iter()
                .map(|addr| ShardStats {
                    addr: addr.clone(),
                    sent: 0,
                    answered: 0,
                    died: false,
                })
                .collect(),
        ),
        policy: *policy,
        max_attempts,
    };
    let results: Mutex<Vec<Option<RouteOutcome>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..requests.len().min(MAX_DRIVERS) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                if i >= requests.len() {
                    break;
                }
                let outcome = drive(&cl, &requests[i], i as u64);
                results.lock().expect(DRIVER_PANICKED)[i] = Some(outcome);
            });
        }
    });
    RouteReport {
        results: results
            .into_inner()
            .expect(DRIVER_PANICKED)
            .into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect(),
        shards: cl.stats.into_inner().expect(DRIVER_PANICKED),
    }
}

/// Drives one request to a final, always-classified outcome: attempt
/// *k* goes to the *k*-th ring successor, until an answer, the attempt
/// budget, or the deadline.
fn drive(cl: &ClusterState, req: &RouteRequest, id: u64) -> RouteOutcome {
    let succ = cl.ring.successors(routing_digest(req));
    let started = Instant::now();
    let deadline = cl.policy.deadline_ms.map(Duration::from_millis);
    let read_timeout = cl.policy.read_timeout_ms.map(Duration::from_millis);
    let time_left = || deadline.map(|d| d.saturating_sub(started.elapsed()));
    let timed_out = |attempts: u32, last_error: &str| {
        let mut error = format!(
            "timeout: deadline {}ms exceeded",
            cl.policy.deadline_ms.unwrap_or_default()
        );
        if !last_error.is_empty() {
            error.push_str(&format!("; last error: {last_error}"));
        }
        failed_outcome(req, &error, attempts)
    };
    let mut last_error = String::new();
    for attempt in 0..cl.max_attempts {
        if attempt > 0 {
            let pause = Duration::from_millis(cl.policy.backoff_ms);
            std::thread::sleep(time_left().map_or(pause, |left| pause.min(left)));
        }
        let left = time_left();
        if left.is_some_and(|l| l.is_zero()) {
            return timed_out(attempt, &last_error);
        }
        // The policy's timeout, cut to the time left before the deadline.
        let timeout = match (read_timeout, left) {
            (Some(t), Some(l)) => Some(t.min(l)),
            (t, l) => t.or(l),
        };
        let shard = succ[attempt as usize % succ.len()];
        cl.stats.lock().expect(DRIVER_PANICKED)[shard].sent += 1;
        let req_json = request_json(req, id, attempt == 0);
        match run_attempt(&cl.addrs[shard], &req_json, id, timeout) {
            Attempt::Final(resp) => {
                cl.stats.lock().expect(DRIVER_PANICKED)[shard].answered += 1;
                let (status, line) = merged_line(&req.name, &resp);
                return RouteOutcome {
                    name: req.name.clone(),
                    status,
                    line,
                    shard: Some(shard),
                    attempts: attempt + 1,
                };
            }
            Attempt::Retry(why) => last_error = format!("{}: {why}", cl.addrs[shard]),
            Attempt::Transport(why) => {
                cl.stats.lock().expect(DRIVER_PANICKED)[shard].died = true;
                last_error = format!("{}: {why}", cl.addrs[shard]);
            }
        }
    }
    if time_left().is_some_and(|left| left.is_zero()) {
        return timed_out(cl.max_attempts, &last_error);
    }
    failed_outcome(
        req,
        &format!("retries exhausted; last error: {last_error}"),
        cl.max_attempts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

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

    fn req(name: &str, source: &str) -> RouteRequest {
        RouteRequest {
            name: name.to_string(),
            source: source.to_string(),
            model: None,
            bound: 2,
            engine: "sat".to_string(),
            timeout_ms: None,
            faults: None,
        }
    }

    /// A fake shard: answers every verify with a canned `done` verdict
    /// whose `test` field is the request id, counting requests served.
    /// Its replies carry the request id plus `id_skew`, so a non-zero
    /// skew answers some other request.
    fn fake_shard_skewed(served: Arc<AtomicU64>, id_skew: u64) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let served = Arc::clone(&served);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    loop {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                        let Ok(req) = Json::parse(line.trim_end()) else {
                            break;
                        };
                        let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
                        served.fetch_add(1, Ordering::Relaxed);
                        let resp = Json::Obj(vec![
                            ("id".into(), Json::count(id + id_skew)),
                            ("status".into(), Json::str("done")),
                            (
                                "verdict".into(),
                                Json::Obj(vec![("test".into(), Json::count(id))]),
                            ),
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

    fn fake_shard(served: Arc<AtomicU64>) -> String {
        fake_shard_skewed(served, 0)
    }

    /// A shard that accepts connections and immediately closes them.
    fn dead_shard() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                drop(conn);
            }
        });
        addr
    }

    /// A shard that reads the request and never answers.
    fn stalled_shard() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                held.push(stream); // keep the socket open, say nothing
            }
        });
        addr
    }

    /// A shard whose queue is always full: it answers every request
    /// `status:"rejected"`.
    fn refusing_shard() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    loop {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break,
                            Ok(_) => {}
                        }
                        let Ok(req) = Json::parse(line.trim_end()) else {
                            break;
                        };
                        let id = req.get("id").and_then(Json::as_u64).unwrap_or(0);
                        let resp = Json::Obj(vec![
                            ("id".into(), Json::count(id)),
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

    #[test]
    fn merges_in_input_order_regardless_of_shard() {
        let served = Arc::new(AtomicU64::new(0));
        let addr = fake_shard(Arc::clone(&served));
        let reqs = vec![req("mp", MP), req("sb", SB), req("mp2", MP)];
        let report = route(&reqs, &[addr], &RoutePolicy::default());
        assert!(report.all_done());
        // The fake answers with the request index as the verdict test
        // field, so input order is directly observable.
        assert_eq!(
            report.merged(),
            "{\"test\":0}\n{\"test\":1}\n{\"test\":2}\n"
        );
        assert_eq!(served.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn identical_requests_share_a_shard_and_distinct_spread() {
        let d_mp = routing_digest(&req("a", MP));
        let d_mp2 = routing_digest(&req("b", MP));
        let d_sb = routing_digest(&req("c", SB));
        assert_eq!(d_mp, d_mp2, "same content, same digest, same shard");
        assert_ne!(d_mp, d_sb);
        assert_eq!(home_shard(d_mp, 4), home_shard(d_mp2, 4));
    }

    /// Picks `per_home` requests homed on each of the two shards by
    /// varying the bound (the digest moves with it).
    fn requests_covering_two_shards(per_home: usize) -> Vec<RouteRequest> {
        let mut reqs: Vec<RouteRequest> = Vec::new();
        let mut homes = [0usize; 2];
        for b in 1u32..64 {
            let mut r = req(&format!("t{b}"), MP);
            r.bound = b;
            let home = home_shard(routing_digest(&r), 2);
            if homes[home] < per_home {
                homes[home] += 1;
                reqs.push(r);
            }
            if reqs.len() == per_home * 2 {
                break;
            }
        }
        assert_eq!(
            homes,
            [per_home, per_home],
            "both shards must receive home traffic"
        );
        reqs
    }

    #[test]
    fn dead_shard_fails_over_to_the_ring_successor() {
        let served = Arc::new(AtomicU64::new(0));
        let alive = fake_shard(Arc::clone(&served));
        let dead = dead_shard();
        let reqs = requests_covering_two_shards(3);
        let report = route(&reqs, &[dead, alive], &RoutePolicy::default());
        assert!(report.all_done(), "all answered by the survivor");
        assert_eq!(served.load(Ordering::Relaxed), 6);
        assert!(report.shards[0].died);
        assert!(!report.shards[1].died);
    }

    #[test]
    fn all_shards_dead_answers_classified_failed() {
        let reqs = vec![req("mp", MP)];
        let report = route(
            &reqs,
            &[dead_shard(), dead_shard()],
            &RoutePolicy {
                backoff_ms: 1,
                ..RoutePolicy::default()
            },
        );
        assert_eq!(report.results.len(), 1);
        let r = &report.results[0];
        assert_eq!(r.status, "failed");
        assert!(r.attempts >= 1);
        let line = Json::parse(&r.line).unwrap();
        assert_eq!(line.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(line.get("class").and_then(Json::as_str), Some("cluster"));
        assert_eq!(line.get("test").and_then(Json::as_str), Some("mp"));
    }

    #[test]
    fn unreachable_address_counts_as_dead() {
        // Nothing listens on this port (bind-then-drop frees it).
        let free = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let served = Arc::new(AtomicU64::new(0));
        let alive = fake_shard(Arc::clone(&served));
        let reqs: Vec<RouteRequest> = (0..4).map(|i| req(&format!("t{i}"), SB)).collect();
        let report = route(&reqs, &[free, alive], &RoutePolicy::default());
        assert!(report.all_done());
        assert_eq!(served.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn deadline_classifies_a_stalled_shard_as_failed_timeout() {
        let stalled = stalled_shard();
        let reqs = vec![req("mp", MP)];
        let report = route(
            &reqs,
            &[stalled],
            &RoutePolicy {
                deadline_ms: Some(250),
                backoff_ms: 1,
                max_attempts: 5,
                ..RoutePolicy::default()
            },
        );
        let r = &report.results[0];
        assert_eq!(r.status, "failed");
        assert!(r.attempts >= 1, "the stalled attempt is recorded");
        let line = Json::parse(&r.line).unwrap();
        assert_eq!(line.get("status").and_then(Json::as_str), Some("failed"));
        assert!(
            line.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .starts_with("timeout: deadline"),
            "line: {}",
            r.line
        );
        assert_eq!(
            line.get("attempts").and_then(Json::as_u64),
            Some(u64::from(r.attempts))
        );
    }

    #[test]
    fn every_shard_refusing_classifies_failed() {
        let reqs = vec![req("mp", MP)];
        let report = route(
            &reqs,
            &[refusing_shard()],
            &RoutePolicy {
                backoff_ms: 1,
                max_attempts: 2,
                ..RoutePolicy::default()
            },
        );
        let r = &report.results[0];
        assert_eq!(r.status, "failed");
        assert_eq!(r.attempts, 2);
        let line = Json::parse(&r.line).unwrap();
        assert_eq!(line.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(line.get("class").and_then(Json::as_str), Some("cluster"));
        assert!(
            line.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .ends_with(": queue full"),
            "line: {}",
            r.line
        );
        // A refusing shard is alive: it is never marked dead.
        assert!(!report.shards[0].died);
    }

    #[test]
    fn a_reply_for_another_id_fails_over_to_the_ring_successor() {
        let skewed_served = Arc::new(AtomicU64::new(0));
        let served = Arc::new(AtomicU64::new(0));
        let skewed = fake_shard_skewed(Arc::clone(&skewed_served), 1);
        let alive = fake_shard(Arc::clone(&served));
        // Only requests homed on the skewed shard (index 0).
        let reqs: Vec<RouteRequest> = requests_covering_two_shards(2)
            .into_iter()
            .filter(|r| home_shard(routing_digest(r), 2) == 0)
            .collect();
        assert_eq!(reqs.len(), 2);
        let report = route(&reqs, &[skewed, alive], &RoutePolicy::default());
        assert!(report.all_done(), "answered by the successor");
        assert_eq!(report.merged(), "{\"test\":0}\n{\"test\":1}\n");
        for r in &report.results {
            assert_eq!(r.shard, Some(1), "{}: answered by the successor", r.name);
            assert_eq!(r.attempts, 2, "{}: one failover", r.name);
        }
        assert_eq!(skewed_served.load(Ordering::Relaxed), 2);
        assert_eq!(served.load(Ordering::Relaxed), 2);
        assert!(
            report.shards[0].died,
            "a mismatched reply is a transport failure"
        );
        assert_eq!(report.shards[0].answered, 0);
    }
}
