//! serve-mix: a `gpumc serve --jobs 2` child process driven by this
//! process over two long-lived connections, each a closed loop with four
//! requests in flight (callers wait for their replies).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use gpumc::fleet::json::Json;

use crate::inputs::{self, Input, Rng};
use crate::layers::Layers;
use crate::oracle::{self, Verdict};

pub const CONNECTIONS: usize = 2;
pub const IN_FLIGHT: usize = 4;
/// Requests per nominal second: `--seconds` times this is the fixed
/// request count, sized to the reference host's rate.
const RATE: f64 = 180.0;
/// Answered requests repeated during the run; far below the server's
/// default 4096-entry result cache, so repeats always hit.
pub const HOT: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fresh,
    Repeat,
    Heavy,
}

/// The seeded request stream of one run.
#[derive(Debug)]
pub struct Stream {
    /// Litmus pool followed by the heavy requests.
    pub requests: Vec<Input>,
    /// Answers every cold start's first verify.
    pub setup: usize,
    /// Sent during warm-up, so that every repeat is a cache hit.
    pub hot: Vec<usize>,
    pub items: Vec<(Kind, usize)>,
}

impl Stream {
    /// One third repeats cycling through the hot set, every heavy request
    /// once, and distinct fresh litmus requests for the rest. Which
    /// requests are sent does not depend on the seed; their order does.
    pub fn build(seed: u64, seconds: u64, recorded: &oracle::Recorded) -> Result<Stream, String> {
        let litmus = inputs::pool(inputs::Workload::ServeMix, recorded);
        let n_litmus = litmus.len();
        let mut requests = litmus;
        requests.extend(inputs::heavy_candidates().into_iter().map(|mut i| {
            i.reference.recorded = recorded.get(&i.key());
            i
        }));
        let heavy = n_litmus..requests.len();
        let total = ((seconds as f64 * RATE).round() as usize).max(3 * heavy.len());
        let n_repeat = total / 3;
        let n_fresh = total - n_repeat - heavy.len();
        // Index 0 answers the set-up verify; the hot set is spread evenly
        // over the rest of the pool.
        let stride = (n_litmus - 1) / HOT;
        let hot: Vec<usize> = (0..HOT).map(|k| 1 + k * stride).collect();
        let fresh: Vec<usize> = (1..n_litmus)
            .filter(|i| !hot.contains(i))
            .take(n_fresh)
            .collect();
        if fresh.len() < n_fresh {
            return Err(format!(
                "serve-mix needs {n_fresh} fresh litmus requests, the pool has {}",
                fresh.len()
            ));
        }
        let mut items: Vec<(Kind, usize)> = fresh.into_iter().map(|i| (Kind::Fresh, i)).collect();
        items.extend(
            hot.iter()
                .cycle()
                .take(n_repeat)
                .map(|&i| (Kind::Repeat, i)),
        );
        items.extend(heavy.map(|i| (Kind::Heavy, i)));
        Rng::new(seed).shuffle(&mut items);
        Ok(Stream {
            requests,
            setup: 0,
            hot,
            items,
        })
    }
}

/// A verify request line: the whole line is written with one call.
pub fn verify_line(id: u64, input: &Input) -> String {
    let req = Json::Obj(vec![
        ("id".into(), Json::count(id)),
        ("verb".into(), Json::str("verify")),
        ("source".into(), Json::str(input.litmus())),
        ("model".into(), Json::str(input.model.to_string())),
        ("bound".into(), Json::count(u64::from(input.bound))),
    ]);
    format!("{req}\n")
}

/// A running server child; killed and reaped on drop unless it exited.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    pub fn spawn(gpumc: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(gpumc)
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gpumc.display()))?;
        let stderr = child.stderr.take().expect("piped");
        let mut lines = BufReader::new(stderr);
        let addr = match read_listen_line(&mut lines) {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        // Keep draining the server's log so it can never block on it.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while lines.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                eprint!("[server] {sink}");
                sink.clear();
            }
        });
        Ok(ServerProc {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown` and waits for a clean exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        let reply = conn.call(r#"{"verb":"shutdown"}"#)?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("shutdown answered {reply}"));
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

fn read_listen_line(lines: &mut BufReader<ChildStderr>) -> Result<String, String> {
    let mut line = String::new();
    loop {
        line.clear();
        if lines.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("server exited before listening".into());
        }
        if let Some(addr) = line.trim().strip_prefix("gpumc-serve listening on ") {
            return Ok(addr.to_string());
        }
    }
}

/// `(id, round trip ms, reply)` of every answered request.
type Replies = Vec<(u64, f64, Json)>;

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request, one reply.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        let line = if line.ends_with('\n') {
            line.to_string()
        } else {
            format!("{line}\n")
        };
        self.send(&line)?;
        Json::parse(self.recv()?.trim_end())
    }

    /// Closed loop: keeps `IN_FLIGHT` requests outstanding until every
    /// line is answered. Returns `(id, round trip ms, reply)`.
    fn drive(&mut self, lines: &[(u64, String)]) -> Result<Replies, String> {
        let mut sent: HashMap<u64, Instant> = HashMap::new();
        let mut out = Vec::with_capacity(lines.len());
        let mut next = lines.iter();
        for (id, line) in next.by_ref().take(IN_FLIGHT) {
            sent.insert(*id, Instant::now());
            self.send(line)?;
        }
        while !sent.is_empty() {
            let raw = self.recv()?;
            let at = Instant::now();
            let reply = Json::parse(raw.trim_end())?;
            let id = reply
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("reply without id: {reply}"))?;
            let t0 = sent
                .remove(&id)
                .ok_or_else(|| format!("unexpected reply id {id}"))?;
            out.push((id, (at - t0).as_secs_f64() * 1000.0, reply));
            if let Some((id, line)) = next.next() {
                sent.insert(*id, Instant::now());
                self.send(line)?;
            }
        }
        Ok(out)
    }
}

/// Sends `items` (indices into `requests`) over the connections, item `k`
/// on connection `k % CONNECTIONS` with id `first_id + k`. Returns the
/// replies in item order with their round trips, and the wall time.
pub fn exchange(
    conns: &mut [Conn],
    requests: &[Input],
    items: &[usize],
    first_id: u64,
) -> Result<(Vec<(f64, Json)>, f64), String> {
    let per_conn: Vec<Vec<(u64, String)>> = (0..conns.len())
        .map(|c| {
            items
                .iter()
                .enumerate()
                .filter(|(k, _)| k % conns.len() == c)
                .map(|(k, &i)| {
                    let id = first_id + k as u64;
                    (id, verify_line(id, &requests[i]))
                })
                .collect()
        })
        .collect();
    let start = Instant::now();
    let results: Vec<Result<Replies, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&per_conn)
            .map(|(conn, lines)| s.spawn(move || conn.drive(lines)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut by_id: HashMap<u64, (f64, Json)> = HashMap::new();
    for r in results {
        for (id, rtt, reply) in r? {
            by_id.insert(id, (rtt, reply));
        }
    }
    let replies = (0..items.len())
        .map(|k| {
            by_id
                .remove(&(first_id + k as u64))
                .ok_or_else(|| format!("no reply for id {}", first_id + k as u64))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((replies, wall))
}

/// The client's own tally of replies, compared against the server's
/// `metrics` counters at the end of a run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub verify: u64,
    pub cache_hits: u64,
    pub fresh_done: u64,
    pub verdict_pass: u64,
    pub verdict_fail: u64,
    pub verdict_unknown: u64,
    pub verdict_error: u64,
    pub rejected: u64,
    pub shed: u64,
}

impl Tally {
    pub fn add(&mut self, reply: &Json) {
        self.verify += 1;
        match reply.get("status").and_then(Json::as_str) {
            Some("done") => {
                if reply.get("cached").and_then(Json::as_bool) == Some(true) {
                    self.cache_hits += 1;
                } else {
                    self.fresh_done += 1;
                }
                let fails = reply
                    .get("verdict")
                    .and_then(|v| v.get("expectation"))
                    .and_then(Json::as_str)
                    == Some("fails");
                if fails {
                    self.verdict_fail += 1;
                } else {
                    self.verdict_pass += 1;
                }
            }
            Some("unknown") => self.verdict_unknown += 1,
            Some("error") => self.verdict_error += 1,
            Some("rejected") => self.rejected += 1,
            Some("shed") => self.shed += 1,
            _ => {}
        }
    }

    /// Compares against a `metrics` reply; the error lists every counter
    /// that disagrees.
    pub fn reconcile(&self, metrics: &Json) -> Result<(), String> {
        let counters = metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .ok_or("metrics reply without counters")?;
        let got = |name: &str| counters.get(name).and_then(Json::as_u64).unwrap_or(0);
        let expect = [
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.verify - self.cache_hits),
            ("cache_inserts", self.fresh_done),
            ("verdict_pass", self.verdict_pass),
            ("verdict_fail", self.verdict_fail),
            ("verdict_unknown", self.verdict_unknown),
            ("verdict_error", self.verdict_error),
            ("queue_rejected_total", self.rejected),
            ("jobs_shed_total", self.shed),
        ];
        let bad: Vec<String> = expect
            .iter()
            .filter(|(name, want)| got(name) != *want)
            .map(|(name, want)| format!("{name}: server {} client {want}", got(name)))
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "metrics disagree with the client: {}",
                bad.join(", ")
            ))
        }
    }
}

/// The verdict a `done` reply carries.
pub fn reply_verdict(reply: &Json) -> Result<Verdict, String> {
    match reply.get("status").and_then(Json::as_str) {
        Some("done") => {}
        other => return Err(format!("status {other:?}: {reply}")),
    }
    let v = reply.get("verdict").ok_or("done reply without verdict")?;
    let field = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("");
    Ok(Verdict {
        reachable: v.get("reachable").and_then(Json::as_bool),
        liveness: match field("liveness") {
            "violation" => Some(true),
            "ok" => Some(false),
            _ => None,
        },
        datarace: match field("datarace") {
            "found" => Some(true),
            "none" => Some(false),
            _ => None,
        },
    })
}

/// Per-layer split of one reply: the hop is the round trip minus the
/// server's `time_us`; for fresh answers the queue wait is `time_us`
/// minus the reported phases.
pub fn trace_reply(l: &mut Layers, rtt_ms: f64, reply: &Json) {
    let num = |j: Option<&Json>, k: &str| {
        j.and_then(|j| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let server_ms = num(Some(reply), "time_us") / 1000.0;
    l.time("serve.hop", rtt_ms - server_ms);
    l.time("serve.server", server_ms);
    l.verdict(rtt_ms);
    if reply.get("cached").and_then(Json::as_bool) == Some(true) {
        l.time("fleet.hit_server", server_ms);
        return;
    }
    let phases = reply.get("phases");
    let simplify = reply.get("simplify").filter(|s| !matches!(s, Json::Null));
    let solver = reply.get("solver");
    let compile = num(phases, "compile_us") / 1000.0;
    let bounds = num(phases, "bounds_us") / 1000.0;
    let encode = num(phases, "encode_us") / 1000.0;
    let solve = num(phases, "solve_us") / 1000.0;
    let simplify_ms = num(simplify, "time_us") / 1000.0;
    l.time("ir.compile", compile);
    l.time("encode.bounds", bounds);
    l.time("sat.simplify", simplify_ms);
    l.time("encode.build", encode - simplify_ms);
    l.time("encode.query", solve);
    l.time(
        "serve.queue_wait",
        server_ms - compile - bounds - encode - solve,
    );
    l.count("encode.clauses", num(solver, "clauses"));
    l.count("sat.conflicts", num(solver, "conflicts"));
    l.count("sat.propagations", num(solver, "propagations"));
    if simplify.is_some() {
        l.count(
            "sat.simplify.clauses_removed",
            num(simplify, "clauses_before") - num(simplify, "clauses_after"),
        );
    }
}

/// One cold start: spawn the server and time until it answers its first
/// verify on a fresh connection. Returns the server, that connection,
/// the elapsed seconds and the reply.
pub fn cold_start(gpumc: &Path, first: &Input) -> Result<(ServerProc, Conn, f64, Json), String> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(gpumc)?;
    let mut conn = Conn::open(&server.addr)?;
    let reply = conn.call(&verify_line(0, first))?;
    Ok((server, conn, t0.elapsed().as_secs_f64(), reply))
}
