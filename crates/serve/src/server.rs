//! The verification daemon: accept loop, worker pool, graceful drain.
//!
//! Architecture (all std, one thread per blocking concern):
//!
//! ```text
//!  TCP accept loop ──► per-connection reader threads
//!                         │  ping/metrics/shutdown answered inline
//!                         │  verify → parse + resolve the model (the
//!                         │  request's one parse; `error` answered
//!                         │  here), result-cache lookup
//!                         ▼  miss → CancelToken(deadline) + job
//!                  bounded FIFO JobQueue (try_push; full ⇒ `rejected`)
//!                         │
//!                  fixed pool of `--jobs` workers, shared warm state:
//!                    · gpumc_models::load_shared (one parse per model)
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
//! ## One job path
//!
//! Each job runs once, under one `catch_unwind` inside which the job's
//! fault plan is armed. A panic anywhere in the verification stack is
//! logged, counted (`jobs_failed`) and answered at once
//! with `status:"failed"` and an error class; `attempts` is always 1.
//! Serve's panic hook keeps that log to one stderr line: it is silent on
//! a thread running a job and defers to the previous hook elsewhere.
//! The checker is deterministic, so a job that panicked would panic
//! again on the same input: the server does not retry it (DESIGN.md
//! §20).
//!
//! **Pool invariant:** nothing a worker runs outside that catch can
//! panic, so no worker thread dies and the pool needs no supervisor.
//! Outside the catch a worker pops the queue, moves the `in_flight`
//! gauge, logs to stderr without unwrapping, and writes the response
//! line. No code panics while holding the queue's lock, so it is never
//! poisoned (`sched`); the connection writer's lock covers only one
//! `write_all` and one `flush`, whose errors are ignored.
//!
//! Shutdown (`shutdown` verb or [`Server::shutdown_handle`]) stops the
//! accept loop, closes the queue and joins the pool. The workers return
//! only once the queue is closed and empty, so every accepted job gets
//! its response before [`Server::run`] returns.

use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gpumc::fault::FaultPlan;
use gpumc::gpumc_ir::Program;
use gpumc::{effective_jobs, Verifier, VerifyError};
use gpumc_fleet::cache::ResultCache;
use gpumc_fleet::digest::{request_digest, resolve_model, RequestKey};
use gpumc_models::ModelKind;
use gpumc_sat::CancelToken;

use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::protocol::{
    cached_response, engine_name, error_response, failed_response, parse_request,
    rejected_response, unknown_response, verdict_json, verify_response, Envelope, Request,
    VerifyRequest, PROTOCOL_VERSION,
};
use crate::sched::{JobQueue, PushError};

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
    /// Honor the per-request `"faults"` field (`--enable-faults`). Off
    /// by default: production servers must not let clients arm faults.
    pub allow_faults: bool,
    /// Content-addressed result cache (`--no-cache` clears this). When
    /// on, a duplicate definitive request is answered without invoking
    /// the encoder or a solver.
    pub cache_enabled: bool,
    /// Resident verdicts in the result cache's LRU (`--cache-cap`).
    /// The cache lives in memory only: no verdict outlives the server
    /// process.
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            jobs: 0,
            max_queue: 64,
            default_timeout_ms: None,
            allow_faults: false,
            cache_enabled: true,
            cache_capacity: 4096,
        }
    }
}

/// A write end shared between the connection reader and the workers
/// answering its jobs; each response line is one `write_all` under the
/// lock.
type Out = Arc<Mutex<Box<dyn Write + Send>>>;

/// One accepted verify request, parsed at dispatch and run once by a
/// worker.
struct Job {
    id: Option<u64>,
    req: VerifyRequest,
    /// The litmus test, parsed at dispatch: the request's one parse.
    program: Program,
    /// The model the request resolved to at dispatch.
    kind: ModelKind,
    token: CancelToken,
    out: Out,
    accepted: Instant,
    /// Per-job fault plan (`--enable-faults` only), armed inside the
    /// job's `catch_unwind`.
    faults: Option<Arc<FaultPlan>>,
    /// Content digest of the request, when the server has a cache and
    /// the request is cacheable: cache not opted out, and *no fault
    /// plan armed* — a verdict computed under injected faults must
    /// never leak into steady state. `None` disables both lookup
    /// (already missed at dispatch) and insert.
    digest: Option<u128>,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    metrics: Metrics,
    queue: JobQueue<Job>,
    /// The content-addressed result cache; `None` with `--no-cache`.
    cache: Option<ResultCache>,
    shutdown: AtomicBool,
    default_timeout_ms: Option<u64>,
    allow_faults: bool,
}

impl Shared {
    fn new(config: &ServerConfig) -> Arc<Shared> {
        Arc::new(Shared {
            metrics: Metrics::new(),
            queue: JobQueue::new(config.max_queue),
            cache: config
                .cache_enabled
                .then(|| ResultCache::new(config.cache_capacity)),
            shutdown: AtomicBool::new(false),
            default_timeout_ms: config.default_timeout_ms,
            allow_faults: config.allow_faults,
        })
    }
}

/// A bound, not-yet-running server. [`Server::bind`] then
/// [`Server::run`]; binding separately lets callers learn the ephemeral
/// port before the accept loop starts.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: usize,
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
        let shared = Shared::new(config);
        shared.metrics.set_gauge("workers", jobs as i64);
        Ok(Server {
            listener,
            shared,
            jobs,
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
        let local = self.listener.local_addr()?;
        let shared = &self.shared;
        std::thread::scope(|pool| {
            for _ in 0..self.jobs {
                pool.spawn(|| worker_loop(shared));
            }
            for conn in self.listener.incoming() {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let shared = Arc::clone(shared);
                std::thread::spawn(move || handle_connection(stream, &shared, local));
            }
            // Drain: no new jobs; the scope joins the workers once they
            // have answered everything accepted.
            shared.queue.close();
        });
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
        let shared = Shared::new(config);
        shared.metrics.set_gauge("workers", jobs as i64);
        let out: Out = Arc::new(Mutex::new(Box::new(std::io::stdout())));
        std::thread::scope(|pool| {
            for _ in 0..jobs {
                pool.spawn(|| worker_loop(&shared));
            }
            let read = serve_lines(std::io::stdin().lock(), &out, &shared);
            // A read error still drains: the workers answer everything
            // accepted before the scope joins them.
            shared.queue.close();
            read.map(drop)
        })
    }
}

/// The one line loop of both transports: dispatches the request lines
/// of `input`, skipping blank ones, until EOF, a read error or the
/// `shutdown` verb. Returns whether `shutdown` ended it.
fn serve_lines(input: impl BufRead, out: &Out, shared: &Shared) -> std::io::Result<bool> {
    for line in input.lines() {
        let line = line?;
        if !line.trim().is_empty() && dispatch_line(&line, out, shared).is_break() {
            return Ok(true);
        }
    }
    Ok(false)
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

fn handle_connection(stream: TcpStream, shared: &Shared, local: SocketAddr) {
    // Responses are whole lines sent in one write each: nothing is
    // gained by Nagle holding a line back for the client's delayed ACK.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let out: Out = Arc::new(Mutex::new(Box::new(stream)));
    if let Ok(true) = serve_lines(BufReader::new(read_half), &out, shared) {
        // Shutdown verb: wake the accept loop.
        let _ = TcpStream::connect(local);
    }
}

/// Handles one request line: answers control verbs inline, enqueues
/// verify jobs. `Break` means shutdown was requested.
fn dispatch_line(line: &str, out: &Out, shared: &Shared) -> std::ops::ControlFlow<()> {
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
                .set_gauge("queue_depth", shared.queue.len() as i64);
            if let Some(cache) = &shared.cache {
                shared
                    .metrics
                    .set_gauge("result_cache_len", cache.len() as i64);
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
        Request::Verify(req) => {
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
            // Dispatch is the request's one parse: the job carries the
            // parsed program and model to its worker.
            let (program, kind) = match parse_job(&req) {
                Ok(parsed) => parsed,
                Err(msg) => {
                    shared.metrics.inc("verdict_error");
                    write_line(out, &error_response(id, &msg));
                    return ControlFlow::Continue(());
                }
            };
            // Fault-armed jobs bypass the cache in *both* directions: a
            // verdict computed under injection must not be served to
            // clean requests, and a clean cached verdict must not mask
            // the injection the client asked to exercise. A
            // `"cache":false` request is neither answered from nor
            // recorded into the cache. Without a cache there is nothing
            // to key, so no digest.
            let digest = (shared.cache.is_some() && faults.is_none() && req.cache).then(|| {
                request_digest(&RequestKey {
                    program: &program,
                    model_source: kind.source(),
                    bound: req.bound,
                    property: "all",
                    engine: engine_name(req.engine),
                    proto: PROTOCOL_VERSION,
                })
            });
            if let (Some(cache), Some(d)) = (&shared.cache, digest) {
                if let Some(v) = cache.lookup(d) {
                    shared.metrics.inc("cache_hits");
                    // A cache hit is still a served verdict: the
                    // verdict counters and the latency histogram must
                    // add up across cached and fresh answers alike.
                    let pass = v.get("expectation").and_then(Json::as_str) != Some("fails");
                    shared
                        .metrics
                        .inc(if pass { "verdict_pass" } else { "verdict_fail" });
                    let wall_us = accepted.elapsed().as_micros() as u64;
                    shared.metrics.observe_us("verify_latency_us", wall_us);
                    write_line(out, &cached_response(id, v, wall_us));
                    return ControlFlow::Continue(());
                }
                shared.metrics.inc("cache_misses");
            }
            let token = match req.timeout_ms.or(shared.default_timeout_ms) {
                Some(ms) => CancelToken::with_timeout(Duration::from_millis(ms)),
                None => CancelToken::new(),
            };
            let job = Job {
                id,
                req,
                program,
                kind,
                token,
                out: Arc::clone(out),
                accepted,
                faults,
                digest,
            };
            if let Err(refused) = shared.queue.try_push(job) {
                let (job, reason) = match refused {
                    PushError::Full(job) => (job, "queue full"),
                    PushError::Closed(job) => (job, "shutting down"),
                };
                shared.metrics.inc("queue_rejected_total");
                write_line(&job.out, &rejected_response(job.id, reason));
            }
            ControlFlow::Continue(())
        }
    }
}

/// Parses the request's litmus source and resolves its model. The
/// error is the `error` answer's message.
fn parse_job(req: &VerifyRequest) -> Result<(Program, ModelKind), String> {
    let program = gpumc::parse_litmus(&req.source).map_err(|e| e.to_string())?;
    let kind = resolve_model(req.model.as_deref(), program.arch)
        .ok_or_else(|| format!("unknown model `{}`", req.model.as_deref().unwrap_or("")))?;
    Ok((program, kind))
}

thread_local! {
    /// Whether this thread is running a job inside `worker_loop`'s catch.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per process, a panic hook that stays silent on a
/// thread running a job, whose panic `failed_answer` reports in one
/// line, and defers to the previous hook everywhere else.
fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_JOB.try_with(Cell::get).unwrap_or(false) {
                previous(info);
            }
        }));
    });
}

/// One pool worker: pops jobs until the queue is closed and empty, and
/// runs each once. See the module docs for why it cannot die.
fn worker_loop(shared: &Shared) {
    install_panic_hook();
    while let Some(job) = shared.queue.pop() {
        shared.metrics.move_gauge("in_flight", 1);
        IN_JOB.with(|j| j.set(true));
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _faults = job.faults.clone().map(gpumc::fault::scoped);
            run_verify_job(&job, shared)
        }));
        IN_JOB.with(|j| j.set(false));
        shared.metrics.move_gauge("in_flight", -1);
        let response = outcome
            .unwrap_or_else(|payload| failed_answer(&job, &panic_message(&*payload), shared));
        write_line(&job.out, &response);
    }
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

/// The answer to a job whose run panicked: logged, counted, and
/// answered `status:"failed"` with its class.
fn failed_answer(job: &Job, message: &str, shared: &Shared) -> Json {
    shared.metrics.inc("jobs_failed");
    // Unlike `eprintln!`, a failed stderr write cannot panic here,
    // outside the job's catch.
    let _ = writeln!(
        std::io::stderr(),
        "[gpumc-serve] job {:?} panicked: {message}",
        job.id
    );
    let class = if job.token.check().is_some() {
        "timeout"
    } else {
        classify_panic(message)
    };
    failed_response(job.id, class, message)
}

/// Runs one verify job to a response. Never panics on budget/deadline/
/// cancellation: those surface as `status: unknown`.
fn run_verify_job(job: &Job, shared: &Shared) -> Json {
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
    let mut verifier = Verifier::new(gpumc_models::load_shared(job.kind))
        .with_engine(req.engine)
        .with_bound(req.bound)
        .with_cancel_token(job.token.clone());
    if let Some(budget) = req.budget {
        verifier = verifier.with_conflict_budget(budget);
    }
    if let Some(mb) = req.mem_budget_mb {
        verifier = verifier.with_mem_budget_mb(mb);
    }
    let outcome = verifier.check_all(&job.program);
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
            // Only definitive verdicts are cached — the `unknown` and
            // error arms below never reach this insert — and only for
            // jobs whose digest survived the dispatch-time gating
            // (cacheable request, no fault plan).
            if let (Some(cache), Some(d)) = (&shared.cache, job.digest) {
                cache.insert(d, &verdict_json(&job.program.name, &o));
                shared.metrics.inc("cache_inserts");
            }
            verify_response(job.id, &job.program.name, &o, wall_us)
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
