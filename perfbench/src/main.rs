//! gpumc end-to-end and per-layer benchmark. See README.md.
//!
//! ```text
//! gpumc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --gpumc <path>
//! gpumc-perfbench --setup-probe --workload <name> --seed <n> --seconds <s>
//! gpumc-perfbench --write-verdicts <file>
//! ```
//!
//! The last line of a run is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced,
//! the per-layer metrics with `--trace 1`. The lines before it are the
//! human-readable report.

mod batch;
mod host;
mod inputs;
mod layers;
mod oracle;
mod serve;
mod stats;
mod verdicts;

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use gpumc::gpumc_models::{load_shared, ModelKind};

use inputs::{Input, Workload};
use layers::Layers;
use oracle::Recorded;

/// Cold starts per run; `setup_s` is their median.
const COLD_STARTS: usize = 41;

/// The end-to-end metrics and their units, in print order.
const E2E: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    gpumc: Option<PathBuf>,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |flag: &str| value(args, flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: need("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: need("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match value(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        gpumc: value(args, "--gpumc").map(PathBuf::from),
    })
}

/// Set-up work of a batch workload: model load, then input building.
/// Returns (models ms, inputs ms, pool, sequence).
fn set_up(a: &Args) -> Result<(f64, f64, Vec<Input>, Vec<usize>), String> {
    let t0 = Instant::now();
    for m in ModelKind::ALL {
        load_shared(m);
    }
    let models_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let t1 = Instant::now();
    let recorded = Recorded::embedded();
    let (pool, seq) = if a.workload == Workload::ServeMix {
        let s = serve::Stream::build(a.seed, a.seconds, &recorded)?;
        let seq = s.items.iter().map(|&(_, i)| i).collect();
        (s.requests, seq)
    } else {
        let pool = inputs::pool(a.workload, &recorded);
        let seq = inputs::batch_sequence(pool.len(), a.seed, a.workload.passes(a.seconds));
        (pool, seq)
    };
    let inputs_ms = t1.elapsed().as_secs_f64() * 1000.0;
    Ok((models_ms, inputs_ms, pool, seq))
}

fn digest(pool: &[Input], seq: &[usize]) -> u64 {
    inputs::sequence_digest(seq.iter().map(|&i| pool[i].label.as_str()))
}

/// `--setup-probe`: one cold start of a batch workload, run as a child.
fn setup_probe(a: &Args) -> Result<(), String> {
    let (models_ms, inputs_ms, pool, seq) = set_up(a)?;
    println!(
        "setup models_ms={models_ms} inputs_ms={inputs_ms} inputs={} digest={:016x}",
        seq.len(),
        digest(&pool, &seq)
    );
    Ok(())
}

/// Spawns `COLD_STARTS` set-up probes; returns the seconds from each
/// spawn until the probe reports ready, and its model-load milliseconds.
fn cold_starts(a: &Args) -> Result<(Vec<f64>, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut walls, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..COLD_STARTS {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                a.workload.name(),
                "--seed",
                &a.seed.to_string(),
                "--seconds",
                &a.seconds.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped")).read_line(&mut line);
        walls.push(t0.elapsed().as_secs_f64());
        let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
        if read.is_err() || !status.success() {
            return Err(format!("set-up probe failed ({status}): {line}"));
        }
        let load = line
            .split_whitespace()
            .find_map(|f| f.strip_prefix("models_ms="))
            .and_then(|v| v.parse().ok())
            .ok_or(format!("set-up probe printed `{line}`"))?;
        loads.push(load);
    }
    Ok((walls, loads))
}

/// What a run measured, before it is printed.
struct Outcome {
    setup_s: f64,
    attempted: usize,
    /// Verdict times, ms: one per answer (batch) or per request's client
    /// round trip (serve-mix).
    times: Vec<f64>,
    /// What one sample of `times` is.
    times_are: &'static str,
    verdicts_per_s: f64,
    /// How `verdicts_per_s` was taken.
    rate_is: String,
    failures: Vec<String>,
    /// Reasons the run is wrong besides failed operations.
    problems: Vec<String>,
    peak_rss_mb: f64,
    layers: Layers,
    notes: Vec<String>,
}

/// A batch run answers every input once per pass. `verdicts_per_s` is
/// every verdict of the timed phase over its whole wall time; the per-pass
/// rates are printed beside it to show how the host's speed moved.
fn run_batch(a: &Args) -> Result<Outcome, String> {
    let (walls, loads) = cold_starts(a)?;
    let (_, _, pool, seq) = set_up(a)?;
    let warm = inputs::warmup_sequence(pool.len());
    let warm_pass = batch::run(&pool, &warm, None);
    let mut layers = Layers::default();
    let (mut times, mut failures, mut rates, mut wall_s) =
        (Vec::new(), Vec::new(), Vec::new(), 0.0);
    for pass in seq.chunks(pool.len()) {
        let p = batch::run(&pool, pass, a.trace.then_some(&mut layers));
        rates.push(pass.len() as f64 / p.wall_s);
        wall_s += p.wall_s;
        times.extend(p.times);
        failures.extend(p.failures);
    }
    let peak_rss_mb = host::vm_mb(None, "VmHWM").ok_or("cannot read VmHWM")?;
    let mut notes = vec![format!(
        "pool {} inputs, {} passes, sequence digest {:016x}",
        pool.len(),
        rates.len(),
        digest(&pool, &seq)
    )];
    if a.trace {
        layers.set("models.load_ms", stats::median_of(loads), COLD_STARTS);
        let overhead = layers.overhead_pct();
        layers.set("trace.overhead_pct", overhead, seq.len());
        notes.push(format!(
            "tracing overhead {overhead:.4}% of verdict time: the traced run makes the untraced \
             run's calls and only adds this recording"
        ));
        let checks = layers.counted("exec.dpor.explored") + layers.counted("exec.dpor.pruned_co");
        if checks > 0.0 {
            let us = 1000.0 * layers.sum("exec.dpor") / checks;
            layers.set("exec.dpor.us_per_check", us, checks as usize);
        }
    }
    let mut problems = Vec::new();
    if !warm_pass.failures.is_empty() {
        problems.push(format!(
            "warm-up failures: {}",
            warm_pass.failures.join("; ")
        ));
    }
    Ok(Outcome {
        setup_s: stats::median_of(walls),
        attempted: seq.len(),
        times,
        times_are: "answer",
        verdicts_per_s: seq.len() as f64 / wall_s,
        rate_is: format!(
            "{} verdicts in {wall_s:.3} s; per pass {rates:.3?}",
            seq.len()
        ),
        failures,
        problems,
        peak_rss_mb,
        layers,
        notes,
    })
}

fn run_serve(a: &Args) -> Result<Outcome, String> {
    let gpumc = a.gpumc.clone().ok_or("serve-mix needs --gpumc <path>")?;
    let stream = serve::Stream::build(a.seed, a.seconds, &Recorded::embedded())?;
    let reqs = &stream.requests;
    let first = &reqs[stream.setup];
    let mut problems = Vec::new();
    let check = |input: &Input, reply: &gpumc::fleet::json::Json| -> Result<(), String> {
        serve::reply_verdict(reply)
            .and_then(|v| oracle::check(&input.reference, &v))
            .map_err(|e| format!("{}: {e}", input.label))
    };
    // Cold starts: every server but the last is shut down again.
    let mut walls = Vec::new();
    let mut live = None;
    for k in 0..COLD_STARTS {
        let (server, mut conn, secs, reply) = serve::cold_start(&gpumc, first)?;
        walls.push(secs);
        if let Err(e) = check(first, &reply) {
            problems.push(format!("set-up verify: {e}"));
        }
        if k + 1 < COLD_STARTS {
            server.shutdown(&mut conn)?;
        } else {
            live = Some((server, reply));
        }
    }
    let (server, setup_reply) = live.expect("at least one cold start");
    let mut tally = serve::Tally::default();
    tally.add(&setup_reply);
    let rss_start = host::vm_mb(Some(server.pid()), "VmRSS").unwrap_or(0.0);
    let mut conns = (0..serve::CONNECTIONS)
        .map(|_| serve::Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    // Warm-up: answer the hot set, so that every repeat is a cache hit.
    let (warm, _) = serve::exchange(&mut conns, reqs, &stream.hot, 1)?;
    for (&i, (_, reply)) in stream.hot.iter().zip(&warm) {
        tally.add(reply);
        if let Err(e) = check(&reqs[i], reply) {
            problems.push(format!("warm-up: {e}"));
        }
    }
    let items: Vec<usize> = stream.items.iter().map(|&(_, i)| i).collect();
    let (replies, wall_s) = serve::exchange(&mut conns, reqs, &items, 1 + stream.hot.len() as u64)?;
    let mut layers = Layers::default();
    let mut failures = Vec::new();
    let mut times = Vec::with_capacity(replies.len());
    for (&i, (rtt, reply)) in items.iter().zip(&replies) {
        tally.add(reply);
        times.push(*rtt);
        if let Err(e) = check(&reqs[i], reply) {
            failures.push(e);
        }
        if a.trace {
            serve::trace_reply(&mut layers, *rtt, reply);
        }
    }
    drop(conns);
    let mut control = serve::Conn::open(&server.addr)?;
    let metrics = control.call(r#"{"verb":"metrics"}"#)?;
    let reconciled = tally.reconcile(&metrics);
    let peak_rss_mb = host::vm_mb(Some(server.pid()), "VmHWM").ok_or("cannot read server VmHWM")?;
    let rss_end = host::vm_mb(Some(server.pid()), "VmRSS").unwrap_or(0.0);
    if let Err(e) = server.shutdown(&mut control) {
        problems.push(e);
    }
    problems.extend(reconciled.clone().err());
    let kinds = |k: serve::Kind| stream.items.iter().filter(|(x, _)| *x == k).count();
    let mut notes = vec![
        format!(
            "{} requests: {} fresh, {} repeats of a {}-request hot set, {} heavy; {} connections x {} in flight",
            items.len(),
            kinds(serve::Kind::Fresh),
            kinds(serve::Kind::Repeat),
            stream.hot.len(),
            kinds(serve::Kind::Heavy),
            serve::CONNECTIONS,
            serve::IN_FLIGHT
        ),
        format!(
            "client tally {tally:?}; server counters {}",
            if reconciled.is_ok() { "agree" } else { "disagree" }
        ),
        format!("request digest {:016x}", digest(reqs, &items)),
    ];
    if a.trace {
        let (_, loads) = cold_starts(a)?;
        layers.set("models.load_ms", stats::median_of(loads), COLD_STARTS);
        let hits = tally.cache_hits as f64;
        layers.set(
            "fleet.cache_hit_ratio",
            hits / tally.verify as f64,
            tally.verify as usize,
        );
        layers.set("serve.rss_growth_mb", rss_end - rss_start, 2);
        layers.set("trace.overhead_pct", 0.0, 0);
        notes.push(
            "tracing overhead 0: the untraced run reads the same replies; they are split \
             into layers after the timed phase"
                .into(),
        );
    }
    Ok(Outcome {
        setup_s: stats::median_of(walls),
        attempted: times.len(),
        verdicts_per_s: times.len() as f64 / wall_s,
        rate_is: format!("{} verdicts in {wall_s:.3} s", times.len()),
        times,
        times_are: "request's client round trip",
        failures,
        problems,
        peak_rss_mb,
        layers,
        notes,
    })
}

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn run(a: &Args) -> Result<bool, String> {
    let probe_before = host::probe();
    let mut o = match a.workload {
        Workload::ServeMix => run_serve(a)?,
        Workload::LitmusSat => run_batch(a)?,
    };
    let probe_after = host::probe();
    let tail = stats::tail(&o.times).ok_or("too few verdicts for the tail rule")?;
    let n = o.attempted;
    let values = [
        o.setup_s,
        o.verdicts_per_s,
        stats::p50(&o.times),
        tail.value,
        o.peak_rss_mb,
    ];
    println!(
        "workload {} seed {} seconds {} trace {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for note in &o.notes {
        println!("  {note}");
    }
    println!(
        "  setup_s          {:>12.6} s    (median of {COLD_STARTS} cold starts)",
        o.setup_s
    );
    println!(
        "  verdicts_per_s   {:>12.3} 1/s  ({})",
        values[1], o.rate_is
    );
    println!(
        "  verdict_p50_ms   {:>12.3} ms   (n={}, one sample per {})",
        values[2],
        o.times.len(),
        o.times_are
    );
    println!(
        "  verdict_tail_ms  {:>12.3} ms   (p{:.2}, n={}, {} beyond)",
        tail.value, tail.percentile, tail.n, tail.beyond
    );
    println!("  peak_rss_mb      {:>12.3} MB", o.peak_rss_mb);
    println!("  host.probe_ms    before {probe_before:.3} after {probe_after:.3}");
    o.layers
        .set("host.probe_ms", (probe_before + probe_after) / 2.0, 6);
    for f in o.failures.iter().chain(&o.problems) {
        println!("  FAILED {f}");
    }
    println!("  attempted {n} failed {}", o.failures.len());
    let metrics: Vec<String> = if a.trace {
        let all = o.layers.metrics();
        for m in &all {
            println!("  {:<34} {:>14.4} {:<5} n={}", m.name, m.value, m.unit, m.n);
        }
        all.iter()
            .map(|m| json_metric(&m.name, m.value, m.unit))
            .collect()
    } else {
        E2E.iter()
            .zip(values)
            .map(|((k, u), v)| json_metric(k, v, u))
            .collect()
    };
    let correct = o.failures.is_empty() && o.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {n}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.len(),
        metrics.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if let Some(path) = value(&args, "--write-verdicts") {
        verdicts::write(path)
    } else {
        parse_args(&args).and_then(|a| {
            if args.iter().any(|x| x == "--setup-probe") {
                setup_probe(&a)
            } else {
                run(&a).map(|_| ())
            }
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gpumc-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumc::fleet::json::Json;

    fn args(workload: Workload, seed: u64, trace: bool) -> Args {
        Args {
            workload,
            seed,
            seconds: 20,
            trace,
            gpumc: None,
        }
    }

    fn render(pool: &[Input], seq: &[usize]) -> String {
        seq.iter()
            .map(|&i| format!("{}|{}|{:?}", pool[i].model, pool[i].bound, pool[i].text))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for w in Workload::ALL {
            let (_, _, p1, s1) = set_up(&args(w, 7, false)).unwrap();
            let (_, _, p2, s2) = set_up(&args(w, 7, false)).unwrap();
            assert_eq!(render(&p1, &s1), render(&p2, &s2), "{}", w.name());
            let (_, _, p3, s3) = set_up(&args(w, 8, false)).unwrap();
            assert_ne!(render(&p1, &s1), render(&p3, &s3), "{}", w.name());
            assert_eq!(s1.len(), s3.len(), "counts do not depend on the seed");
            let (mut a, mut b) = (s1.clone(), s3.clone());
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "every seed draws the same multiset");
        }
    }

    #[test]
    fn traced_and_untraced_runs_process_identical_inputs() {
        for w in Workload::ALL {
            let (_, _, _, plain) = set_up(&args(w, 3, false)).unwrap();
            let (_, _, _, traced) = set_up(&args(w, 3, true)).unwrap();
            assert_eq!(plain, traced, "{}", w.name());
        }
        // Six litmus tests and six kernels, answered both ways.
        let (_, _, pool, seq) = set_up(&args(Workload::LitmusSat, 3, false)).unwrap();
        let is_kernel = |i: &usize| matches!(pool[*i].text, inputs::Text::Spirv { .. });
        let mut probe: Vec<usize> = seq
            .iter()
            .copied()
            .filter(|i| !is_kernel(i))
            .take(6)
            .collect();
        probe.extend(seq.iter().copied().filter(is_kernel).take(6));
        let mut layers = Layers::default();
        let a = batch::run(&pool, &probe, None);
        let b = batch::run(&pool, &probe, Some(&mut layers));
        assert_eq!(a.times.len(), b.times.len());
        assert_eq!(a.failures, b.failures);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        let n = |name: &str| {
            layers
                .metrics()
                .into_iter()
                .find(|m| m.name == name)
                .unwrap()
                .n
        };
        assert_eq!(
            n("litmus.parse_ms"),
            6,
            "every traced verdict records its front end"
        );
        assert_eq!(
            n("spirv.lower_ms"),
            6,
            "every traced verdict records its front end"
        );
        assert_eq!(n("exec.dpor_ms"), 6);
    }

    #[test]
    fn every_pool_input_has_an_independent_reference() {
        for w in Workload::ALL {
            let (_, _, pool, _) = set_up(&args(w, 1, false)).unwrap();
            assert!(!pool.is_empty());
            for i in &pool {
                assert!(i.reference.any(), "{} has no reference", i.label);
            }
        }
    }

    #[test]
    fn every_recorded_verdict_belongs_to_a_candidate() {
        let keys: std::collections::BTreeSet<String> = inputs::recordable_candidates()
            .iter()
            .map(Input::key)
            .collect();
        let recorded = Recorded::embedded();
        let stale: Vec<&str> = recorded.keys().filter(|k| !keys.contains(*k)).collect();
        assert!(stale.is_empty(), "regenerate verdicts.tsv: {stale:?}");
        assert!(recorded.keys().count() * 100 >= keys.len() * 95);
    }

    #[test]
    fn serve_stream_repeats_only_the_answered_hot_set() {
        let s = serve::Stream::build(5, 20, &Recorded::embedded()).unwrap();
        let of = |k: serve::Kind| -> Vec<usize> {
            s.items
                .iter()
                .filter(|(x, _)| *x == k)
                .map(|&(_, i)| i)
                .collect()
        };
        let fresh = of(serve::Kind::Fresh);
        let mut distinct = fresh.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), fresh.len(), "fresh requests are distinct");
        assert!(fresh.iter().all(|i| !s.hot.contains(i) && *i != s.setup));
        assert!(of(serve::Kind::Repeat).iter().all(|i| s.hot.contains(i)));
        assert_eq!(of(serve::Kind::Repeat).len(), s.items.len() / 3);
        assert_eq!(
            of(serve::Kind::Heavy).len(),
            inputs::heavy_candidates().len()
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let f = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (f("name"), f("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = E2E
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = Layers::default()
            .metrics()
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
