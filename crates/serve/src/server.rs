//! The verification daemon: accept loop, worker pool, graceful drain.
//!
//! Architecture (all std, one thread per blocking concern):
//!
//! ```text
//!  TCP accept loop ──► per-connection reader threads
//!                         │  ping/metrics/shutdown answered inline
//!                         ▼  verify → CancelToken(deadline) + job
//!                  bounded JobQueue (try_push; full ⇒ `rejected`)
//!                         │
//!                  worker pool (effective_jobs), shared warm state:
//!                    · gpumc_models::load_shared (one parse per model)
//!                    · Arc<BoundsMemo> (relation bounds across requests)
//!                         │
//!                  responses written through the connection's shared
//!                  writer (one line per response, ids match requests,
//!                  each line one `write_all` on a TCP_NODELAY socket)
//! ```
//!
//! The deadline clock starts when the request is *accepted*, so time
//! spent queued counts against it; an expired job fails fast inside
//! `Verifier::check_all` before paying for compilation. Workers never
//! die from a timeout: interruption surfaces as `VerifyError::Unknown`
//! (see the cancellation layer in `gpumc-sat`), the worker answers
//! `status: unknown` and takes the next job.
//!
//! ## Panic isolation and supervision
//!
//! Each job runs under `catch_unwind`: a panic anywhere in the
//! verification stack is logged, counted (`worker_panics`), and turned
//! into a retry (`jobs_retried`, exponential backoff with deterministic
//! jitter per [`RetryPolicy`]) or, once attempts are exhausted, a
//! `status:"failed"` response (`jobs_failed`) with an error class —
//! the connection never just goes silent. As defense in depth a
//! supervisor thread owns the worker pool: each worker parks a copy of
//! its in-flight job in a shared slot, so if a worker thread dies
//! *outside* the catch (however unlikely), the supervisor recovers the
//! parked job — retrying or failing it like any other panic — and
//! respawns the worker (`workers_respawned`). The daemon survives; only
//! the job's attempt is lost.
//!
//! Shutdown (`shutdown` verb or [`Server::shutdown_handle`]) stops the
//! accept loop, closes the queue, and drains: every accepted job still
//! gets its response before [`Server::run`] returns. If the entire pool
//! died at shutdown, leftover jobs are answered `rejected` rather than
//! dropped.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gpumc::fault::FaultPlan;
use gpumc::{effective_jobs, Verifier, VerifyError};
use gpumc_encode::BoundsMemo;
use gpumc_fleet::cache::ResultCache;
use gpumc_fleet::digest::{request_digest, resolve_model, RequestKey};
use gpumc_fleet::sched::{CostScheduler, PushError};
use gpumc_models::ModelKind;
use gpumc_sat::CancelToken;

use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::overload::{DegradeLevel, Overload, OverloadPolicy};
use crate::protocol::{
    cached_response, cached_verdict, engine_name, error_response, failed_response, parse_request,
    rejected_response, shed_response, unknown_response, verify_response, Envelope, Request,
    VerifyRequest, PROTOCOL_VERSION,
};

/// The injection point a worker probes when it picks up a job but
/// before the `catch_unwind` guard is in place — arming `panic` here
/// kills the worker *thread* itself, exercising supervisor recovery
/// (respawn + parked-job handover) rather than in-place retry.
pub const WORKER_HARD_KILL_POINT: &str = "serve.worker.hard";

/// Server configuration; see `gpumc serve --help` for the CLI mapping.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:7878`; port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads; 0 means all available cores.
    pub jobs: usize,
    /// Maximum queued (accepted, unstarted) verify jobs.
    pub max_queue: usize,
    /// Deadline applied to requests that carry no `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Dump a one-line metrics summary to stderr every this many
    /// seconds.
    pub metrics_every_secs: Option<u64>,
    /// How crashed jobs are retried before a `status:"failed"` answer.
    pub retry: RetryPolicy,
    /// Honor the per-request `"faults"` field (`--enable-faults`). Off
    /// by default: production servers must not let clients arm faults.
    pub allow_faults: bool,
    /// Content-addressed result cache (`--no-cache` clears this). When
    /// on, a duplicate definitive request is answered without invoking
    /// the encoder or a solver.
    pub cache_enabled: bool,
    /// Resident verdicts in the result cache's LRU (`--cache-cap`).
    pub cache_capacity: usize,
    /// Directory for the persistent result store (`--cache-dir`); in
    /// memory only when `None`. Invalidated when the verifier
    /// fingerprint changes.
    pub cache_dir: Option<PathBuf>,
    /// Predicted-cost threshold at or below which a job takes the
    /// scheduler's shared fast lane (`--fast-lane-cost`); costlier jobs
    /// go to per-worker heavy lanes with work stealing.
    pub fast_lane_max_cost: u64,
    /// Queue-pressure thresholds driving the degradation ladder
    /// (DESIGN.md §18).
    pub overload: OverloadPolicy,
    /// Pin the ladder at a fixed level (`--degrade-level`); `None`
    /// tracks queue pressure. Pinning exists for operators staging a
    /// brownout drill and for deterministic tests.
    pub force_degrade: Option<DegradeLevel>,
}

/// Default [`ServerConfig::fast_lane_max_cost`]: comfortably above any
/// bound-2 litmus test (≈20 events² × 2 × sat weight) and far below an
/// unrolled kernel's cost.
pub const DEFAULT_FAST_LANE_MAX_COST: u64 = 8192;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            jobs: 0,
            max_queue: 64,
            default_timeout_ms: None,
            metrics_every_secs: None,
            retry: RetryPolicy::default(),
            allow_faults: false,
            cache_enabled: true,
            cache_capacity: 4096,
            cache_dir: None,
            fast_lane_max_cost: DEFAULT_FAST_LANE_MAX_COST,
            overload: OverloadPolicy::default(),
            force_degrade: None,
        }
    }
}

/// Retry schedule for jobs whose attempt panicked.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts a job may consume, the first included. `1`
    /// disables retries.
    pub max_attempts: u32,
    /// Base backoff; attempt `n`'s retry waits `base * 2^(n-2)` plus a
    /// deterministic jitter in `[0, base)` derived from the job.
    pub base_backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// Backoff before re-queuing attempt `attempt` (2-based: the first
    /// retry is attempt 2). Deterministic in `(seq, attempt)`, so a
    /// replayed workload schedules identically.
    fn backoff(&self, seq: u64, attempt: u32) -> Duration {
        let exp = self.base_backoff_ms << attempt.saturating_sub(2).min(10);
        let jitter = if self.base_backoff_ms == 0 {
            0
        } else {
            splitmix64(seq ^ u64::from(attempt)) % self.base_backoff_ms
        };
        Duration::from_millis(exp + jitter)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A write end shared between the connection reader and the workers
/// answering its jobs; each response line is one `write_all` under the
/// lock.
type Out = Arc<Mutex<Box<dyn Write + Send>>>;

#[derive(Clone)]
struct Job {
    id: Option<u64>,
    req: VerifyRequest,
    token: CancelToken,
    out: Out,
    accepted: Instant,
    /// 1-based attempt counter; bumped on each panic-triggered retry.
    attempt: u32,
    /// Server-assigned sequence number — the deterministic jitter seed.
    seq: u64,
    /// Per-job fault plan (`--enable-faults` only). The *same* plan
    /// object rides through retries, so its hit counters persist and a
    /// `panic:once` rule panics attempt 1 and lets the retry through.
    faults: Option<Arc<FaultPlan>>,
    /// Content digest of the request, when it is cacheable: parsable,
    /// cache not opted out, and *no fault plan armed* — a verdict
    /// computed under injected faults must never leak into steady
    /// state. `None` disables both lookup (already missed at dispatch)
    /// and insert.
    digest: Option<u128>,
    /// Predicted relative cost ([`gpumc_encode::estimate_cost`]); the
    /// scheduler's lane key. Re-pushes after a panic reuse it.
    cost: u64,
    /// The ladder level active when the job was admitted; stamped into
    /// the response's `degraded` block (omitted at `Full`).
    degraded: DegradeLevel,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    metrics: Metrics,
    memo: Arc<BoundsMemo>,
    queue: CostScheduler<Job>,
    /// The content-addressed result cache; `None` with `--no-cache`.
    cache: Option<ResultCache>,
    shutdown: AtomicBool,
    default_timeout_ms: Option<u64>,
    retry: RetryPolicy,
    allow_faults: bool,
    /// Monotone job sequence for retry jitter.
    seq: AtomicU64,
    /// Degradation ladder + deadline-admission service model.
    overload: Overload,
    /// Effective worker count, for spreading predicted queue cost.
    workers: usize,
}

impl Shared {
    /// `jobs` is the *effective* worker count — the scheduler sizes its
    /// heavy lanes to it.
    ///
    /// # Errors
    ///
    /// Filesystem errors opening the persistent cache store.
    fn new(config: &ServerConfig, jobs: usize) -> std::io::Result<Arc<Shared>> {
        let cache = if config.cache_enabled {
            Some(match &config.cache_dir {
                None => ResultCache::in_memory(config.cache_capacity),
                Some(dir) => {
                    let fingerprint =
                        format!("{};proto={PROTOCOL_VERSION}", gpumc::verifier_fingerprint());
                    ResultCache::persistent(config.cache_capacity, dir, &fingerprint)?
                }
            })
        } else {
            None
        };
        Ok(Arc::new(Shared {
            metrics: Metrics::new(),
            memo: Arc::new(BoundsMemo::new()),
            queue: CostScheduler::new(config.max_queue, jobs, config.fast_lane_max_cost),
            cache,
            shutdown: AtomicBool::new(false),
            default_timeout_ms: config.default_timeout_ms,
            retry: config.retry,
            allow_faults: config.allow_faults,
            seq: AtomicU64::new(0),
            overload: Overload::new(config.overload, config.force_degrade),
            workers: jobs,
        }))
    }
}

/// A bound, not-yet-running server. [`Server::bind`] then
/// [`Server::run`]; binding separately lets callers learn the ephemeral
/// port before the accept loop starts.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: usize,
    metrics_every: Option<Duration>,
}

impl Server {
    /// Binds the listen socket and prepares shared state.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the address.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let jobs = effective_jobs(config.jobs);
        let shared = Shared::new(config, jobs)?;
        shared.metrics.set_gauge("workers", jobs as i64);
        Ok(Server {
            listener,
            shared,
            jobs,
            metrics_every: config.metrics_every_secs.map(Duration::from_secs),
        })
    }

    /// The actually bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// I/O errors from the socket.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that makes the running server shut down gracefully, as
    /// if a client had sent the `shutdown` verb.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
            addr: self.listener.local_addr().ok(),
        }
    }

    /// Runs accept loop + workers until shutdown, then drains.
    ///
    /// # Errors
    ///
    /// I/O errors from the accept loop (per-connection errors are
    /// contained, not fatal).
    pub fn run(self) -> std::io::Result<()> {
        let supervisor = spawn_supervised_pool(Arc::clone(&self.shared), self.jobs);
        if let Some(every) = self.metrics_every {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || loop {
                std::thread::sleep(every);
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                eprintln!("[gpumc-serve] {}", shared.metrics.render_line());
            });
        }
        let local = self.listener.local_addr()?;
        for conn in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared, local));
        }
        // Drain: no new jobs; the supervisor joins the workers (which
        // finish everything accepted) and answers any leftovers.
        self.shared.queue.close();
        let _ = supervisor.join();
        Ok(())
    }

    /// Serves a single session over stdin/stdout (testing transport:
    /// same protocol, same worker pool, no sockets).
    ///
    /// # Errors
    ///
    /// I/O errors reading stdin.
    pub fn run_stdio(config: &ServerConfig) -> std::io::Result<()> {
        let jobs = effective_jobs(config.jobs);
        let shared = Shared::new(config, jobs)?;
        shared.metrics.set_gauge("workers", jobs as i64);
        let supervisor = spawn_supervised_pool(Arc::clone(&shared), jobs);
        let out: Out = Arc::new(Mutex::new(Box::new(std::io::stdout())));
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line?;
            if dispatch_line(&line, &out, &shared).is_break() {
                break;
            }
        }
        shared.queue.close();
        let _ = supervisor.join();
        Ok(())
    }
}

/// See [`Server::shutdown_handle`].
pub struct ShutdownHandle {
    shared: Arc<Shared>,
    addr: Option<SocketAddr>,
}

impl ShutdownHandle {
    /// Initiates graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        if let Some(addr) = self.addr {
            let _ = TcpStream::connect(addr);
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, local: SocketAddr) {
    // Responses are whole lines sent in one write each: nothing is
    // gained by Nagle holding a line back for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out: Out = Arc::new(Mutex::new(Box::new(stream)));
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        if dispatch_line(&line, &out, shared).is_break() {
            // Shutdown verb: wake the accept loop, stop reading.
            let _ = TcpStream::connect(local);
            break;
        }
    }
}

/// Handles one request line: answers control verbs inline, enqueues
/// verify jobs. `Break` means shutdown was requested.
fn dispatch_line(line: &str, out: &Out, shared: &Arc<Shared>) -> std::ops::ControlFlow<()> {
    use std::ops::ControlFlow;
    let envelope = match parse_request(line) {
        Ok(e) => e,
        Err(msg) => {
            shared.metrics.inc("requests_invalid");
            write_line(out, &error_response(None, &msg));
            return ControlFlow::Continue(());
        }
    };
    let Envelope { id, request } = envelope;
    match request {
        Request::Ping => {
            shared.metrics.inc("requests_ping");
            write_line(
                out,
                &Json::Obj(vec![
                    ("id".into(), id.map_or(Json::Null, Json::count)),
                    ("proto".into(), Json::count(u64::from(PROTOCOL_VERSION))),
                    ("status".into(), Json::str("ok")),
                ]),
            );
            ControlFlow::Continue(())
        }
        Request::Metrics => {
            shared.metrics.inc("requests_metrics");
            // Cache-effectiveness gauges are sampled at snapshot time.
            shared
                .metrics
                .set_gauge("model_parse_count", gpumc_models::parse_count() as i64);
            shared
                .metrics
                .set_gauge("bounds_memo_hits", shared.memo.hits() as i64);
            shared
                .metrics
                .set_gauge("bounds_memo_misses", shared.memo.misses() as i64);
            shared
                .metrics
                .set_gauge("queue_depth", shared.queue.len() as i64);
            let sched = shared.queue.stats();
            shared
                .metrics
                .set_gauge("sched_fast_total", sched.fast as i64);
            shared
                .metrics
                .set_gauge("sched_heavy_total", sched.heavy as i64);
            shared
                .metrics
                .set_gauge("sched_steals_total", sched.steals as i64);
            shared
                .metrics
                .set_gauge("degraded_level", shared.overload.level() as i64);
            shared
                .metrics
                .set_gauge("overload_ns_per_cost", shared.overload.ns_per_cost() as i64);
            shared
                .metrics
                .set_gauge("queue_cost", shared.queue.total_cost() as i64);
            if let Some(cache) = &shared.cache {
                let s = cache.stats();
                shared
                    .metrics
                    .set_gauge("result_cache_len", cache.len() as i64);
                shared
                    .metrics
                    .set_gauge("result_cache_loaded", s.loaded as i64);
                shared
                    .metrics
                    .set_gauge("result_cache_invalidated", i64::from(s.invalidated));
                shared.metrics.set_gauge(
                    "result_cache_recovered_tail_bytes",
                    s.recovered_tail_bytes as i64,
                );
            }
            let snapshot = shared.metrics.snapshot();
            write_line(
                out,
                &Json::Obj(vec![
                    ("id".into(), id.map_or(Json::Null, Json::count)),
                    ("proto".into(), Json::count(u64::from(PROTOCOL_VERSION))),
                    ("status".into(), Json::str("ok")),
                    ("metrics".into(), snapshot),
                ]),
            );
            ControlFlow::Continue(())
        }
        Request::Shutdown => {
            shared.metrics.inc("requests_shutdown");
            shared.shutdown.store(true, Ordering::SeqCst);
            write_line(
                out,
                &Json::Obj(vec![
                    ("id".into(), id.map_or(Json::Null, Json::count)),
                    ("proto".into(), Json::count(u64::from(PROTOCOL_VERSION))),
                    ("status".into(), Json::str("ok")),
                ]),
            );
            ControlFlow::Break(())
        }
        Request::Verify(mut req) => {
            shared.metrics.inc("requests_verify");
            let accepted = Instant::now();
            let faults = match &req.faults {
                None => None,
                Some(_) if !shared.allow_faults => {
                    shared.metrics.inc("requests_invalid");
                    write_line(
                        out,
                        &error_response(
                            id,
                            "fault injection is disabled (start the server with --enable-faults)",
                        ),
                    );
                    return ControlFlow::Continue(());
                }
                Some(spec) => match FaultPlan::parse(spec) {
                    Ok(plan) => Some(Arc::new(plan)),
                    Err(msg) => {
                        shared.metrics.inc("requests_invalid");
                        write_line(out, &error_response(id, &format!("bad fault spec: {msg}")));
                        return ControlFlow::Continue(());
                    }
                },
            };
            // Re-evaluate the degradation ladder against queue
            // occupancy; `serve.overload` (global or the request's own
            // plan) forces this one request to the shed rung, which is
            // how the chaos harness floods a shard deterministically.
            let mut level = shared
                .overload
                .update(shared.queue.len(), shared.queue.capacity());
            {
                let _guard = faults.clone().map(gpumc::fault::scoped);
                if gpumc::fault::hit(gpumc::fault::points::SERVE_OVERLOAD).is_some() {
                    shared.metrics.inc("overload_injected_total");
                    level = DegradeLevel::Shed;
                }
            }
            shared.metrics.set_gauge("degraded_level", level as i64);
            // Content digest + predicted cost, both derived from the
            // parsed request at dispatch time (microseconds against
            // solve times in milliseconds-to-minutes). An unparsable
            // request keeps digest `None` and flows to a worker, which
            // answers `error` exactly as before the cache existed.
            let (raw_digest, cost) = digest_and_cost(&req);
            // Fault-armed jobs bypass the cache in *both* directions:
            // a verdict computed under injection must not be served to
            // clean requests, and a clean cached verdict must not mask
            // the injection the client asked to exercise.
            let digest = if faults.is_none() && req.cache {
                raw_digest
            } else {
                None
            };
            // At cache-only and below, a `"cache":false` opt-out is
            // overridden for *lookup* (a stale-tolerant answer beats no
            // answer; the `degraded` block says it happened). The job's
            // own digest stays gated by the opt-out, so a forced-fresh
            // verdict is still never *recorded* against the client's
            // wishes.
            let lookup = if faults.is_none() && level >= DegradeLevel::CacheOnly {
                raw_digest
            } else {
                digest
            };
            if let (Some(cache), Some(d)) = (&shared.cache, lookup) {
                if let Some(v) = cache.lookup(d) {
                    shared.metrics.inc("cache_hits");
                    // A cache hit is still a served verdict: the
                    // verdict counters and the latency histogram must
                    // add up across cached and fresh answers alike.
                    let pass = v.expectation != "fails";
                    shared
                        .metrics
                        .inc(if pass { "verdict_pass" } else { "verdict_fail" });
                    let wall_us = accepted.elapsed().as_micros() as u64;
                    shared.metrics.observe_us("verify_latency_us", wall_us);
                    write_line(out, &cached_response(id, &v, wall_us, Some(level)));
                    return ControlFlow::Continue(());
                }
                shared.metrics.inc("cache_misses");
            }
            // The load-shed gate: at the shed rung only cache hits
            // (above) are answered; everything else is refused *before*
            // acceptance, so it can be resubmitted elsewhere.
            if level == DegradeLevel::Shed {
                shared.metrics.inc("jobs_shed_total");
                write_line(out, &shed_response(id, "overloaded", Some(level)));
                return ControlFlow::Continue(());
            }
            let timeout_ms = req.timeout_ms.or(shared.default_timeout_ms);
            // Deadline admission: when the service model has seen real
            // work, a job predicted to blow its deadline while still
            // queued is shed at the door instead of accepted, timed
            // out, and answered `unknown` after burning a worker.
            if let Some(deadline) = timeout_ms {
                let predicted = shared.overload.predicted_completion_ms(
                    shared.queue.total_cost(),
                    cost,
                    shared.workers,
                );
                if let Some(p) = predicted {
                    if p > deadline {
                        shared.metrics.inc("jobs_shed_total");
                        shared.metrics.inc("jobs_shed_deadline_total");
                        write_line(
                            out,
                            &shed_response(
                                id,
                                &format!(
                                    "deadline unmeetable: predicted {p}ms exceeds timeout {deadline}ms"
                                ),
                                Some(level),
                            ),
                        );
                        return ControlFlow::Continue(());
                    }
                }
            }
            // At the sequential rung, per-job CPU fan-out is the first
            // luxury to go: portfolio solving degrades to one solver.
            if level >= DegradeLevel::Sequential
                && req.portfolio != gpumc::gpumc_sat::ParallelPolicy::Off
            {
                shared.metrics.inc("portfolio_downgraded_total");
                req.portfolio = gpumc::gpumc_sat::ParallelPolicy::Off;
            }
            let token = match timeout_ms {
                Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            let job = Job {
                id,
                req,
                token,
                out: Arc::clone(out),
                accepted,
                attempt: 1,
                seq: shared.seq.fetch_add(1, Ordering::Relaxed),
                faults,
                digest,
                cost,
                degraded: level,
            };
            match shared.queue.try_push(job, cost) {
                Ok(()) => {
                    shared.metrics.move_gauge("queue_depth", 1);
                }
                Err(PushError::Full(job)) => {
                    shared.metrics.inc("queue_rejected_total");
                    write_line(&job.out, &rejected_response(job.id, "queue full"));
                }
                Err(PushError::Closed(job)) => {
                    shared.metrics.inc("queue_rejected_total");
                    write_line(&job.out, &rejected_response(job.id, "shutting down"));
                }
            }
            ControlFlow::Continue(())
        }
    }
}

/// Computes the request's content digest and predicted cost at
/// dispatch. Unparsable source or unknown model → `(None, 0)`: the
/// request is uncacheable and trivially cheap (the worker answers
/// `error` without encoding anything).
fn digest_and_cost(req: &VerifyRequest) -> (Option<u128>, u64) {
    let Ok(program) = gpumc::parse_litmus(&req.source) else {
        return (None, 0);
    };
    let engine = engine_name(req.engine);
    let digest = resolve_model(req.model.as_deref(), program.arch).map(|kind| {
        request_digest(&RequestKey {
            program: &program,
            model_source: kind.source(),
            bound: req.bound,
            property: "all",
            engine,
            proto: PROTOCOL_VERSION,
        })
    });
    let cost = match gpumc_ir::unroll(&program, req.bound) {
        Ok(u) => gpumc_encode::estimate_cost(
            gpumc_ir::compile(&u).n_events(),
            req.bound,
            gpumc_encode::engine_weight(engine),
        ),
        // Unrolling failures reach the worker as errors; schedule them
        // on the fast lane so they answer quickly.
        Err(_) => 0,
    };
    (digest, cost)
}

/// Where a worker parks a copy of its in-flight job so the supervisor
/// can recover it if the worker thread dies.
type WorkerSlot = Arc<Mutex<Option<Job>>>;

fn worker_loop(shared: &Arc<Shared>, slot: &WorkerSlot, worker: usize) {
    while let Some(job) = shared.queue.pop(worker) {
        shared.metrics.move_gauge("queue_depth", -1);
        *lock_unpoisoned(slot) = Some(job.clone());
        shared.metrics.move_gauge("in_flight", 1);
        // The job's fault plan is armed *outside* the catch so that the
        // hard-kill hook below escapes the per-job catch and kills the
        // worker thread itself — exactly what the supervisor-recovery
        // path is for. (The guard still unwinds cleanly with the
        // thread.)
        let guard = job.faults.clone().map(gpumc::fault::scoped);
        let _ = gpumc::fault::hit(WORKER_HARD_KILL_POINT);
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run_verify_job(&job, shared)));
        drop(guard);
        shared.metrics.move_gauge("in_flight", -1);
        *lock_unpoisoned(slot) = None;
        match outcome {
            Ok(response) => {
                // Completed attempts (whatever the verdict) feed the
                // deadline-admission service model; predicted-cost-0
                // jobs (parse errors) would only pollute it.
                if job.cost > 0 {
                    shared
                        .overload
                        .observe_service(job.cost, started.elapsed().as_nanos() as u64);
                }
                write_line(&job.out, &response);
            }
            Err(payload) => handle_job_panic(job, &panic_message(&*payload), shared),
        }
    }
}

fn lock_unpoisoned(slot: &WorkerSlot) -> std::sync::MutexGuard<'_, Option<Job>> {
    slot.lock().unwrap_or_else(|e| e.into_inner())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Maps a panic message to the protocol's failure classes.
fn classify_panic(message: &str) -> &'static str {
    let m = message.to_ascii_lowercase();
    if m.contains("alloc") || m.contains("memory") || m.contains("oom") {
        "oom"
    } else {
        "panic"
    }
}

/// A job's attempt panicked (caught in the worker, or recovered from a
/// dead worker by the supervisor): log, count, and either retry with
/// backoff or answer `status:"failed"`.
fn handle_job_panic(mut job: Job, message: &str, shared: &Arc<Shared>) {
    shared.metrics.inc("worker_panics");
    eprintln!(
        "[gpumc-serve] job {:?} attempt {} panicked: {message}",
        job.id, job.attempt
    );
    let retryable = job.attempt < shared.retry.max_attempts && job.token.check().is_none();
    if retryable {
        job.attempt += 1;
        std::thread::sleep(shared.retry.backoff(job.seq, job.attempt));
        shared.metrics.inc("jobs_retried");
        let cost = job.cost;
        match shared.queue.try_push(job, cost) {
            Ok(()) => {
                shared.metrics.move_gauge("queue_depth", 1);
                return;
            }
            Err(PushError::Full(j) | PushError::Closed(j)) => job = j,
        }
    }
    shared.metrics.inc("jobs_failed");
    let class = if job.token.check().is_some() {
        "timeout"
    } else {
        classify_panic(message)
    };
    write_line(
        &job.out,
        &failed_response(job.id, class, message, job.attempt),
    );
}

/// Spawns `jobs` workers under a supervisor thread. The supervisor
/// recovers parked jobs from workers that died outside the per-job
/// catch, respawns replacements while the queue is open, and — once the
/// queue is closed and every worker has exited — answers any leftover
/// queued jobs with `rejected` so nothing is silently dropped.
fn spawn_supervised_pool(shared: Arc<Shared>, jobs: usize) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let spawn_worker = |shared: &Arc<Shared>, worker: usize| -> (WorkerSlot, JoinHandle<()>) {
            let slot: WorkerSlot = Arc::new(Mutex::new(None));
            let shared = Arc::clone(shared);
            let slot2 = Arc::clone(&slot);
            let handle = std::thread::spawn(move || worker_loop(&shared, &slot2, worker));
            (slot, handle)
        };
        let mut pool: Vec<(WorkerSlot, Option<JoinHandle<()>>)> = (0..jobs.max(1))
            .map(|worker| {
                let (slot, h) = spawn_worker(&shared, worker);
                (slot, Some(h))
            })
            .collect();
        loop {
            let mut alive = 0;
            for (worker, entry) in pool.iter_mut().enumerate() {
                match &entry.1 {
                    None => {}
                    Some(h) if h.is_finished() => {
                        let died = entry.1.take().expect("checked Some").join().is_err();
                        if let Some(job) = lock_unpoisoned(&entry.0).take() {
                            // The worker died with a job in flight; the
                            // gauge decrement it never reached happens
                            // here.
                            shared.metrics.move_gauge("in_flight", -1);
                            handle_job_panic(job, "worker thread died mid-job", &shared);
                        }
                        if died && !shared.queue.is_closed() {
                            shared.metrics.inc("workers_respawned");
                            // The replacement inherits the dead
                            // worker's index (and so its heavy lane).
                            let (slot, h) = spawn_worker(&shared, worker);
                            *entry = (slot, Some(h));
                            alive += 1;
                        }
                    }
                    Some(_) => alive += 1,
                }
            }
            if shared.queue.is_closed() && alive == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // All workers have exited and the queue is closed. Anything
        // still queued (possible only if the pool died during drain)
        // gets a `rejected` answer instead of silence.
        for job in shared.queue.drain_now() {
            shared.metrics.inc("queue_rejected_total");
            write_line(&job.out, &rejected_response(job.id, "shutting down"));
        }
    })
}

/// Runs one verify job to a response. Never panics on budget/deadline/
/// cancellation: those surface as `status: unknown`.
fn run_verify_job(job: &Job, shared: &Arc<Shared>) -> Json {
    let req = &job.req;
    match gpumc::fault::hit(gpumc::fault::points::SERVE_WORKER) {
        Some(gpumc::fault::FaultSignal::SpuriousUnknown) => {
            shared.metrics.inc("verdict_unknown");
            let wall_us = job.accepted.elapsed().as_micros() as u64;
            return unknown_response(job.id, "injected fault", wall_us);
        }
        Some(gpumc::fault::FaultSignal::AllocSpike(bytes)) => {
            let _ = gpumc::fault::materialize_spike(bytes);
        }
        None => {}
    }
    let program = match gpumc::parse_litmus(&req.source) {
        Ok(p) => p,
        Err(e) => {
            shared.metrics.inc("verdict_error");
            return error_response(job.id, &e.to_string());
        }
    };
    let kind = match &req.model {
        Some(name) => match ModelKind::from_name(name) {
            Some(k) => k,
            None => {
                shared.metrics.inc("verdict_error");
                return error_response(job.id, &format!("unknown model `{name}`"));
            }
        },
        None => match program.arch {
            gpumc_ir::Arch::Ptx => ModelKind::Ptx75,
            gpumc_ir::Arch::Vulkan => ModelKind::Vulkan,
        },
    };
    let mut verifier = Verifier::new(gpumc_models::load_shared(kind))
        .with_engine(req.engine)
        .with_bound(req.bound)
        .with_bounds_memo(Arc::clone(&shared.memo))
        .with_cancel_token(job.token.clone())
        .with_parallel(req.portfolio);
    if let Some(budget) = req.budget {
        verifier = verifier.with_conflict_budget(budget);
    }
    if let Some(mb) = req.mem_budget_mb {
        verifier = verifier.with_mem_budget_mb(mb);
    }
    let outcome = verifier.check_all(&program);
    let wall_us = job.accepted.elapsed().as_micros() as u64;
    shared.metrics.observe_us("verify_latency_us", wall_us);
    match outcome {
        Ok(o) => {
            let pass = o.assertion.satisfied_expectation.unwrap_or(true);
            shared
                .metrics
                .inc(if pass { "verdict_pass" } else { "verdict_fail" });
            let (conflicts, propagations) = o.queries.iter().fold((0u64, 0u64), |(c, p), q| {
                (c + q.stats.conflicts, p + q.stats.propagations)
            });
            shared.metrics.add("solver_conflicts_total", conflicts);
            shared
                .metrics
                .add("solver_propagations_total", propagations);
            shared.metrics.observe_us("solve_us", o.phases.solve_us);
            shared.metrics.observe_us("encode_us", o.phases.encode_us);
            if let Some(p) = &o.portfolio {
                shared.metrics.inc("portfolio_requests_total");
                shared
                    .metrics
                    .add("portfolio_clauses_exported_total", p.exported);
                shared
                    .metrics
                    .add("portfolio_clauses_imported_total", p.imported);
                if let Some(w) = p.winner {
                    shared.metrics.inc(&format!("portfolio_winner_{w}_total"));
                }
                if p.cube_fallback {
                    shared.metrics.inc("portfolio_cube_fallbacks_total");
                }
            }
            if let Some(p) = &o.assertion.stats.dpor_parallel {
                shared.metrics.inc("dpor_parallel_requests_total");
                shared
                    .metrics
                    .add("dpor_parallel_tasks_total", p.tasks as u64);
                shared.metrics.add("dpor_parallel_steals_total", p.steals);
                if p.stopped_early {
                    shared.metrics.inc("dpor_parallel_early_stops_total");
                }
            }
            // Only definitive verdicts are cached — the `unknown` and
            // error arms below never reach this insert — and only for
            // jobs whose digest survived the dispatch-time gating
            // (cacheable request, no fault plan).
            if let (Some(cache), Some(d)) = (&shared.cache, job.digest) {
                cache.insert(d, cached_verdict(&program.name, &o));
                shared.metrics.inc("cache_inserts");
            }
            verify_response(job.id, &program.name, &o, wall_us, Some(job.degraded))
        }
        Err(VerifyError::Unknown(reason)) => {
            shared.metrics.inc("verdict_unknown");
            unknown_response(job.id, &reason, wall_us)
        }
        Err(e) => {
            shared.metrics.inc("verdict_error");
            error_response(job.id, &e.to_string())
        }
    }
}

fn write_line(out: &Out, response: &Json) {
    // Render before taking the lock, so the lock covers one write.
    let line = json::frame(response);
    let mut w = out.lock().unwrap();
    // A dead client (write error) is the client's problem, not the
    // server's: the worker moves on either way.
    let _ = w.write_all(line.as_bytes());
    let _ = w.flush();
}
