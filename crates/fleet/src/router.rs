//! Sharded routing: fan a suite over N serve instances, merge
//! deterministically, survive node death, stalls, and full queues.
//!
//! Requests are assigned to shards by content digest over a
//! consistent-hash ring ([`crate::ring`]), so identical queries always
//! land on the same node and its result cache, and a topology change
//! moves as few digests as possible. Each request is driven
//! end-to-end by its own driver (a bounded pool), which walks the
//! ring's successor order under per-shard circuit breakers
//! ([`crate::health`]): a shard that keeps failing at the transport
//! level is quarantined and probed again only after a cooldown,
//! instead of burning a connect timeout per request.
//!
//! Failure semantics (DESIGN.md §16):
//!
//! * `done` / `unknown` / `error` responses are *answers* — final.
//! * `rejected` (a full queue or a draining node) and `failed` (the
//!   node's retry policy gave up) responses are *node-level* trouble:
//!   the request fails over to the next ring successor after a
//!   backoff. Any response proves the transport is healthy, so these
//!   reset the shard's failure streak.
//! * a transport failure (connect refused, connection died, read timed
//!   out) counts against the shard's breaker; enough consecutive
//!   failures trip it open and quarantine the shard until a half-open
//!   probe readmits it.
//! * when the attempt budget or the per-request deadline
//!   ([`RoutePolicy::deadline_ms`]) is exhausted, the request answers
//!   a *classified* line: `status:"failed"` (class `cluster`, with the
//!   attempt count and the last error). Nothing is ever silently
//!   dropped.
//!
//! With [`RoutePolicy::hedge_ms`] set, a request that a shard has held
//! that long is *hedged*: the same digest is fired at the next ring
//! successor and the first definitive answer wins. Both answers reduce
//! to the same order-independent merged line; the router
//! `debug_assert!`s that and counts duplicates and mismatches in
//! [`HedgeStats`].
//!
//! A per-request fault plan (the `faults` field) is a *node-local*
//! injection: it rides the first attempt only and is stripped on
//! failover and hedging, so an injected node death cannot chase the
//! request across the fleet it was meant to test.
//!
//! The merged output is one line per request, *in input order*, each
//! carrying only order-independent fields (no ids, no timings) — so a
//! 2-shard run with a mid-run node death is byte-identical to a
//! single-node run of the same suite.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::digest::source_digest;
use crate::health::{Admission, BreakerConfig, CircuitBreaker};
use crate::json::{self, Json};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// Concurrent in-flight requests (each may add one hedge attempt).
const MAX_DRIVERS: usize = 16;

/// How long a driver waits for a hedge loser's answer (for the
/// duplicate check) when no deadline or read timeout bounds it.
const LOSER_WAIT_MS: u64 = 2_000;

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

/// Cluster-wide retry, deadline, hedging, and health policy.
#[derive(Debug, Clone, Copy)]
pub struct RoutePolicy {
    /// Total attempts per request across all shards (hedges included);
    /// `0` means `2 × shards`.
    pub max_attempts: u32,
    /// Sleep before each retry attempt.
    pub backoff_ms: u64,
    /// Protocol version stamped on every request.
    pub proto: u32,
    /// Per-request deadline; past it the request answers
    /// `failed(timeout)` with its attempt count. `None` waits forever
    /// (the node-side timeout still applies).
    pub deadline_ms: Option<u64>,
    /// Hedge threshold: an attempt outstanding this long fires a
    /// duplicate at the next ring successor. `None` disables hedging.
    pub hedge_ms: Option<u64>,
    /// Per-attempt socket read timeout; `None` leaves reads unbounded
    /// (a stalled shard then only resolves via `deadline_ms`).
    pub read_timeout_ms: Option<u64>,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
}

impl Default for RoutePolicy {
    fn default() -> RoutePolicy {
        RoutePolicy {
            max_attempts: 0,
            backoff_ms: 25,
            proto: 1,
            deadline_ms: None,
            hedge_ms: None,
            read_timeout_ms: None,
            breaker: BreakerConfig::default(),
            vnodes: DEFAULT_VNODES,
        }
    }
}

/// Per-shard accounting.
#[derive(Debug, Clone)]
pub struct ShardStats {
    pub addr: String,
    /// Requests sent (attempts, not unique requests).
    pub sent: u64,
    /// Final answers produced (hedge losers included).
    pub answered: u64,
    /// Whether the shard ever failed at the transport level.
    pub died: bool,
    /// Times the shard's breaker tripped open (quarantines).
    pub trips: u64,
    /// Times a half-open probe readmitted the shard.
    pub readmitted: u64,
}

/// Fleet-wide hedging counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HedgeStats {
    /// Hedge attempts fired.
    pub fired: u64,
    /// Hedge attempts that produced the winning answer.
    pub wins: u64,
    /// Requests where both the primary and the hedge answered.
    pub duplicates: u64,
    /// Duplicate answers whose merged lines differed (must be 0; also
    /// a `debug_assert!`).
    pub mismatches: u64,
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
    pub hedge: HedgeStats,
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
pub fn home_shard(digest: u128, shards: usize, vnodes: usize) -> usize {
    HashRing::with_shards(shards, vnodes.max(1))
        .owner(digest)
        .unwrap_or(0)
}

/// Routing digest for a request: the canonical content digest where the
/// request parses, an FNV fallback over the raw source where it does
/// not (the server will answer `error`; the request still needs *a*
/// home).
pub fn routing_digest(req: &RouteRequest, proto: u32) -> u128 {
    source_digest(
        &req.source,
        req.model.as_deref(),
        req.bound,
        "all",
        &req.engine,
        proto,
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
    /// The connection failed or died: counts against the breaker.
    Transport(String),
}

/// One shard's connection for one attempt.
struct ShardConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ShardConn {
    fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<ShardConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        Ok(ShardConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request, awaits its response (matched by id).
    fn roundtrip(&mut self, id: u64, req: &Json) -> Result<Json, String> {
        json::write_line(&mut self.writer, req).map_err(|e| format!("write: {e}"))?;
        loop {
            let mut line = String::new();
            let n = self
                .reader
                .read_line(&mut line)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-request".to_string());
            }
            let resp = Json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}"))?;
            if resp.get("id").and_then(Json::as_u64) == Some(id) {
                return Ok(resp);
            }
            // Not ours (a stale pipelined answer): keep reading.
        }
    }
}

fn request_json(req: &RouteRequest, id: u64, proto: u32, with_faults: bool) -> Json {
    let mut fields = vec![
        ("id".into(), Json::count(id)),
        ("verb".into(), Json::str("verify")),
        ("proto".into(), Json::count(u64::from(proto))),
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

/// The line of an unanswered request: `failed` (class `cluster`), with
/// the error and the attempt count.
fn classified_line(name: &str, error: &str, attempts: u32) -> String {
    Json::Obj(vec![
        ("test".into(), Json::str(name)),
        ("status".into(), Json::str("failed")),
        ("class".into(), Json::str("cluster")),
        ("error".into(), Json::str(error)),
        ("attempts".into(), Json::count(u64::from(attempts))),
    ])
    .to_string()
}

/// State shared by every driver and attempt thread of one [`route`].
struct ClusterState {
    addrs: Vec<String>,
    ring: HashRing,
    breakers: Vec<Mutex<CircuitBreaker>>,
    stats: Mutex<Vec<ShardStats>>,
    hedge_fired: AtomicU64,
    hedge_wins: AtomicU64,
    hedge_duplicates: AtomicU64,
    hedge_mismatches: AtomicU64,
    start: Instant,
    policy: RoutePolicy,
    max_attempts: u32,
}

impl ClusterState {
    /// The run-scoped millisecond clock the breakers run on.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
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
    let cl = Arc::new(ClusterState {
        addrs: shards.to_vec(),
        ring: HashRing::with_shards(shards.len(), policy.vnodes.max(1)),
        breakers: shards
            .iter()
            .map(|_| Mutex::new(CircuitBreaker::new(policy.breaker)))
            .collect(),
        stats: Mutex::new(
            shards
                .iter()
                .map(|addr| ShardStats {
                    addr: addr.clone(),
                    sent: 0,
                    answered: 0,
                    died: false,
                    trips: 0,
                    readmitted: 0,
                })
                .collect(),
        ),
        hedge_fired: AtomicU64::new(0),
        hedge_wins: AtomicU64::new(0),
        hedge_duplicates: AtomicU64::new(0),
        hedge_mismatches: AtomicU64::new(0),
        start: Instant::now(),
        policy: *policy,
        max_attempts,
    });
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
                let outcome = drive(&cl, &requests[i], i);
                results.lock().unwrap()[i] = Some(outcome);
            });
        }
    });
    let shards = cl.stats.lock().unwrap().clone();
    RouteReport {
        results: results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("every request resolved"))
            .collect(),
        shards,
        hedge: HedgeStats {
            fired: cl.hedge_fired.load(Ordering::Relaxed),
            wins: cl.hedge_wins.load(Ordering::Relaxed),
            duplicates: cl.hedge_duplicates.load(Ordering::Relaxed),
            mismatches: cl.hedge_mismatches.load(Ordering::Relaxed),
        },
    }
}

/// The first breaker-admitted shard in `succ` order, starting at
/// `offset` (so retries advance around the ring), skipping `exclude`.
fn pick_shard(
    cl: &ClusterState,
    succ: &[usize],
    offset: usize,
    exclude: &[usize],
    now_ms: u64,
) -> Option<usize> {
    for i in 0..succ.len() {
        let s = succ[(offset + i) % succ.len()];
        if exclude.contains(&s) {
            continue;
        }
        match cl.breakers[s].lock().unwrap().admit(now_ms) {
            Admission::Admit | Admission::Probe => return Some(s),
            Admission::Quarantined => {}
        }
    }
    None
}

/// Runs one attempt against one shard and reports its breaker/stat
/// effects. Runs on a detached thread so a stalled read never wedges a
/// driver past its deadline.
fn attempt_thread(
    cl: Arc<ClusterState>,
    shard: usize,
    req_json: Json,
    id: u64,
    read_timeout: Option<Duration>,
    slot: usize,
    tx: mpsc::Sender<(usize, usize, Attempt)>,
) {
    std::thread::spawn(move || {
        cl.stats.lock().unwrap()[shard].sent += 1;
        let result = run_attempt(&cl.addrs[shard], &req_json, id, read_timeout);
        match &result {
            Attempt::Final(_) | Attempt::Retry(_) => {
                let readmitted = cl.breakers[shard].lock().unwrap().on_success();
                let mut stats = cl.stats.lock().unwrap();
                if readmitted {
                    stats[shard].readmitted += 1;
                }
                if matches!(result, Attempt::Final(_)) {
                    stats[shard].answered += 1;
                }
            }
            Attempt::Transport(_) => {
                let tripped = cl.breakers[shard].lock().unwrap().on_failure(cl.now_ms());
                let mut stats = cl.stats.lock().unwrap();
                stats[shard].died = true;
                if tripped {
                    stats[shard].trips += 1;
                }
            }
        }
        let _ = tx.send((slot, shard, result));
    });
}

fn run_attempt(addr: &str, req_json: &Json, id: u64, read_timeout: Option<Duration>) -> Attempt {
    if gpumc_fault::hit(gpumc_fault::points::ROUTE_TRANSPORT).is_some() {
        return Attempt::Transport("injected transport fault".to_string());
    }
    let mut conn = match ShardConn::connect(addr, read_timeout) {
        Ok(c) => c,
        Err(e) => return Attempt::Transport(format!("connect: {e}")),
    };
    // An armed `route.stall_ms:delay_ms` sleeps here: a stalled link.
    let _ = gpumc_fault::hit(gpumc_fault::points::ROUTE_STALL);
    match conn.roundtrip(id, req_json) {
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

/// Drives one request to a final, always-classified outcome.
fn drive(cl: &Arc<ClusterState>, req: &RouteRequest, idx: usize) -> RouteOutcome {
    let digest = routing_digest(req, cl.policy.proto);
    let succ = cl.ring.successors(digest);
    let started = Instant::now();
    let deadline = cl.policy.deadline_ms.map(Duration::from_millis);
    let hedge_after = cl.policy.hedge_ms.map(Duration::from_millis);
    let remaining = |started: Instant| deadline.map(|d| d.saturating_sub(started.elapsed()));
    let expired = |started: Instant| remaining(started).is_some_and(|r| r.is_zero());
    let mut attempts: u32 = 0;
    let mut last_error = String::new();
    let mut stalls: u32 = 0;
    loop {
        if expired(started) {
            return timeout_outcome(req, attempts, &last_error, cl.policy.deadline_ms);
        }
        if attempts >= cl.max_attempts {
            return exhausted_outcome(req, attempts, &last_error);
        }
        let Some(primary) = pick_shard(cl, &succ, attempts as usize, &[], cl.now_ms()) else {
            // Everyone quarantined: wait for the earliest half-open
            // probe window (bounded, so a wedged probe cannot spin us
            // forever without a deadline).
            stalls += 1;
            if stalls > cl.max_attempts.saturating_mul(8).max(16) {
                let err = format!("all shards quarantined; last error: {last_error}");
                return exhausted_outcome(req, attempts, &err);
            }
            let now = cl.now_ms();
            let mut wait = cl.policy.backoff_ms.max(1);
            for b in &cl.breakers {
                if let Some(at) = b.lock().unwrap().next_probe_at() {
                    wait = wait.min(at.saturating_sub(now)).max(1);
                }
            }
            let mut wait = Duration::from_millis(wait.min(100));
            if let Some(r) = remaining(started) {
                wait = wait.min(r);
            }
            std::thread::sleep(wait);
            continue;
        };
        stalls = 0;
        if attempts > 0 && cl.policy.backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(cl.policy.backoff_ms));
        }
        // Per-attempt read timeout: the policy cap, tightened by the
        // remaining deadline.
        let read_timeout = match (cl.policy.read_timeout_ms, remaining(started)) {
            (Some(ms), Some(r)) => Some(Duration::from_millis(ms).min(r)),
            (Some(ms), None) => Some(Duration::from_millis(ms)),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        };
        let (tx, rx) = mpsc::channel();
        let with_faults = attempts == 0;
        attempt_thread(
            Arc::clone(cl),
            primary,
            request_json(req, idx as u64, cl.policy.proto, with_faults),
            idx as u64,
            read_timeout,
            0,
            tx.clone(),
        );
        let mut fired = vec![primary];
        attempts += 1;
        // Collect results from this wave (primary, plus at most one
        // hedge) until a final answer wins or every attempt reported.
        let mut winner: Option<(usize, usize, Json)> = None;
        let mut outstanding = 1usize;
        let mut hedged = false;
        while outstanding > 0 {
            let wait = if winner.is_some() {
                // Only the duplicate check rides on the loser: bounded.
                let cap = cl.policy.read_timeout_ms.unwrap_or(LOSER_WAIT_MS);
                Some(match remaining(started) {
                    Some(r) => Duration::from_millis(cap).min(r),
                    None => Duration::from_millis(cap),
                })
            } else if !hedged && hedge_after.is_some() {
                let h = hedge_after.unwrap();
                Some(match remaining(started) {
                    Some(r) => h.min(r),
                    None => h,
                })
            } else {
                remaining(started)
            };
            let received = match wait {
                Some(w) => rx.recv_timeout(w),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match received {
                Ok((slot, shard, attempt)) => {
                    outstanding -= 1;
                    match attempt {
                        Attempt::Final(resp) => {
                            if let Some((_, _, first)) = &winner {
                                // The hedge loser also answered: both
                                // merged lines must agree bytewise.
                                cl.hedge_duplicates.fetch_add(1, Ordering::Relaxed);
                                let a = merged_line(&req.name, first).1;
                                let b = merged_line(&req.name, &resp).1;
                                if a != b {
                                    cl.hedge_mismatches.fetch_add(1, Ordering::Relaxed);
                                    debug_assert_eq!(
                                        a, b,
                                        "hedged duplicates diverged for `{}`",
                                        req.name
                                    );
                                }
                            } else {
                                if slot == 1 {
                                    cl.hedge_wins.fetch_add(1, Ordering::Relaxed);
                                }
                                winner = Some((slot, shard, resp));
                            }
                        }
                        Attempt::Retry(why) | Attempt::Transport(why) => {
                            last_error = format!("{}: {why}", cl.addrs[shard]);
                        }
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if winner.is_some() {
                        break; // give up waiting on the loser
                    }
                    if expired(started) {
                        return timeout_outcome(req, attempts, &last_error, cl.policy.deadline_ms);
                    }
                    if !hedged && hedge_after.is_some() && attempts < cl.max_attempts {
                        hedged = true;
                        if let Some(second) =
                            pick_shard(cl, &succ, attempts as usize, &fired, cl.now_ms())
                        {
                            cl.hedge_fired.fetch_add(1, Ordering::Relaxed);
                            attempt_thread(
                                Arc::clone(cl),
                                second,
                                request_json(req, idx as u64, cl.policy.proto, false),
                                idx as u64,
                                read_timeout,
                                1,
                                tx.clone(),
                            );
                            fired.push(second);
                            attempts += 1;
                            outstanding += 1;
                        }
                    } else {
                        hedged = true; // nothing else to do but wait
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if let Some((_, shard, resp)) = winner {
            let (status, line) = merged_line(&req.name, &resp);
            return RouteOutcome {
                name: req.name.clone(),
                status,
                line,
                shard: Some(shard),
                attempts,
            };
        }
    }
}

fn timeout_outcome(
    req: &RouteRequest,
    attempts: u32,
    last_error: &str,
    deadline_ms: Option<u64>,
) -> RouteOutcome {
    let mut error = format!(
        "timeout: deadline {}ms exceeded",
        deadline_ms.unwrap_or_default()
    );
    if !last_error.is_empty() {
        error.push_str(&format!("; last error: {last_error}"));
    }
    RouteOutcome {
        name: req.name.clone(),
        status: "failed".to_string(),
        line: classified_line(&req.name, &error, attempts),
        shard: None,
        attempts,
    }
}

fn exhausted_outcome(req: &RouteRequest, attempts: u32, last_error: &str) -> RouteOutcome {
    let error = if attempts == 0 {
        "no live shards".to_string()
    } else if last_error.starts_with("all shards quarantined") {
        last_error.to_string()
    } else {
        format!("retries exhausted; last error: {last_error}")
    };
    RouteOutcome {
        name: req.name.clone(),
        status: "failed".to_string(),
        line: classified_line(&req.name, &error, attempts),
        shard: None,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
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
    /// whose `test` field is the request id, counting requests served,
    /// after an optional per-response delay.
    fn fake_shard_delayed(
        served: Arc<AtomicU64>,
        delay_ms: u64,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
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
                        if delay_ms > 0 {
                            std::thread::sleep(Duration::from_millis(delay_ms));
                        }
                        served.fetch_add(1, Ordering::Relaxed);
                        let resp = Json::Obj(vec![
                            ("id".into(), Json::count(id)),
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
        (addr, handle)
    }

    fn fake_shard(served: Arc<AtomicU64>) -> (String, std::thread::JoinHandle<()>) {
        fake_shard_delayed(served, 0)
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

    /// A shard that kills its first `kill_first` connections, then
    /// serves like [`fake_shard`] — the half-open readmission target.
    fn flaky_shard(kill_first: u64, served: Arc<AtomicU64>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut seen = 0u64;
            for conn in listener.incoming() {
                let Ok(stream) = conn else { break };
                seen += 1;
                if seen <= kill_first {
                    drop(stream);
                    continue;
                }
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
                            ("id".into(), Json::count(id)),
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

    #[test]
    fn merges_in_input_order_regardless_of_shard() {
        let served = Arc::new(AtomicU64::new(0));
        let (addr, _h) = fake_shard(Arc::clone(&served));
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
        assert_eq!(report.hedge, HedgeStats::default());
    }

    #[test]
    fn identical_requests_share_a_shard_and_distinct_spread() {
        let d_mp = routing_digest(&req("a", MP), 1);
        let d_mp2 = routing_digest(&req("b", MP), 1);
        let d_sb = routing_digest(&req("c", SB), 1);
        assert_eq!(d_mp, d_mp2, "same content, same digest, same shard");
        assert_ne!(d_mp, d_sb);
        assert_eq!(
            home_shard(d_mp, 4, DEFAULT_VNODES),
            home_shard(d_mp2, 4, DEFAULT_VNODES)
        );
    }

    /// Picks `per_home` requests homed on each of the two shards by
    /// varying the bound (the digest moves with it).
    fn requests_covering_two_shards(per_home: usize) -> Vec<RouteRequest> {
        let mut reqs: Vec<RouteRequest> = Vec::new();
        let mut homes = [0usize; 2];
        for b in 1u32..64 {
            let mut r = req(&format!("t{b}"), MP);
            r.bound = b;
            let home = home_shard(routing_digest(&r, 1), 2, DEFAULT_VNODES);
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
        let (alive, _h) = fake_shard(Arc::clone(&served));
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
        let (alive, _h) = fake_shard(Arc::clone(&served));
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
        // A refusing shard is alive: its breaker must never have
        // tripped.
        assert!(!report.shards[0].died);
        assert_eq!(report.shards[0].trips, 0);
    }

    #[test]
    fn hedge_fires_wins_and_duplicates_agree() {
        let slow_served = Arc::new(AtomicU64::new(0));
        let fast_served = Arc::new(AtomicU64::new(0));
        let (slow, _h1) = fake_shard_delayed(Arc::clone(&slow_served), 400);
        let (fast, _h2) = fake_shard(Arc::clone(&fast_served));
        // Only requests homed on the slow shard (index 0) are hedged.
        let reqs: Vec<RouteRequest> = requests_covering_two_shards(3)
            .into_iter()
            .filter(|r| home_shard(routing_digest(r, 1), 2, DEFAULT_VNODES) == 0)
            .collect();
        assert_eq!(reqs.len(), 3);
        let report = route(
            &reqs,
            &[slow, fast],
            &RoutePolicy {
                hedge_ms: Some(40),
                ..RoutePolicy::default()
            },
        );
        assert!(report.all_done());
        assert_eq!(report.hedge.fired, 3, "every slow-homed request hedged");
        assert_eq!(report.hedge.wins, 3, "the fast successor always won");
        assert_eq!(
            report.hedge.duplicates, 3,
            "the slow losers still answered within the wait window"
        );
        assert_eq!(report.hedge.mismatches, 0);
        assert_eq!(fast_served.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn breaker_quarantines_then_half_open_probe_readmits() {
        let served = Arc::new(AtomicU64::new(0));
        let addr = flaky_shard(2, Arc::clone(&served));
        let reqs = vec![req("mp", MP)];
        let report = route(
            &reqs,
            &[addr],
            &RoutePolicy {
                max_attempts: 10,
                backoff_ms: 5,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown_ms: 60,
                },
                ..RoutePolicy::default()
            },
        );
        assert!(report.all_done(), "answered after readmission");
        assert_eq!(report.results[0].attempts, 3);
        let s = &report.shards[0];
        assert!(s.died);
        assert_eq!(s.trips, 1, "two kills tripped the breaker once");
        assert_eq!(s.readmitted, 1, "the half-open probe readmitted it");
        assert_eq!(served.load(Ordering::Relaxed), 1);
    }
}
