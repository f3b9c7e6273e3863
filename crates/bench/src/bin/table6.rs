//! Regenerates Table 6: tool validation against the GPUVerify-style
//! baseline on the synthesized kernel corpus (DESIGN.md substitution #3).
//!
//! Run with: `cargo run --release -p gpumc-bench --bin table6 [-- --jobs N]`
//!
//! `--bound N` sets the unrolling bound (default 2). `--tier
//! <dev|validation|scale>` selects the catalog tier whose wall clock is
//! checked against its budget (default `dev`). `--json` additionally
//! writes the whole comparison — per-kernel verdicts and solver sizes,
//! per-tool aggregates, the agreement matrix, the `check_all` timing
//! against three single-property checks, the DPOR-engine
//! explored/pruned counters with wall-clock vs the SAT engine, and the
//! tier wall-clock-vs-budget record — to `BENCH_table6.json` in the
//! current directory, for machine consumption.

use std::time::Instant;

use gpumc::gpumc_ir::Program;
use gpumc::{EngineKind, Verifier, VerifyError};
use gpumc_models::ModelKind;
use gpumc_serve::json::Json;
use gpumc_spirv::{emit_spirv, gpuverify_corpus, lower, parse_spirv, Bucket};

/// The `--bound` (default 2, at least 1) and `--tier` (default `dev`)
/// arguments, or the message that refuses them.
fn bound_and_tier() -> Result<(u32, gpumc_catalog::Tier), String> {
    let bound = match gpumc_bench::value_from_args::<u32>("--bound")? {
        Some(0) => return Err("--bound must be at least 1".into()),
        b => b.unwrap_or(2),
    };
    let tier = match gpumc_bench::value_from_args::<String>("--tier")? {
        None => gpumc_catalog::Tier::Dev,
        Some(s) => gpumc_catalog::Tier::parse(&s)
            .ok_or_else(|| format!("unknown tier `{s}` (expected dev, validation, or scale)"))?,
    };
    Ok((bound, tier))
}

fn main() {
    // Refuse bad arguments before verifying anything.
    let (bound, tier) = bound_and_tier().unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    let jobs = gpumc_bench::jobs_from_args();
    let json_out = gpumc_bench::flag_from_args("--json");
    let batch = Instant::now();
    let corpus = gpuverify_corpus();
    let compile_fail = corpus
        .iter()
        .filter(|c| c.bucket == Bucket::CompileFails)
        .count();
    let trivial = corpus
        .iter()
        .filter(|c| c.bucket == Bucket::TriviallyRaceFree)
        .count();

    // --- the Dartagnan-style verifier on the verifiable kernels, fanned
    //     out over the worker pool (each kernel is independent).
    let verifiable: Vec<_> = corpus
        .iter()
        .filter(|c| c.bucket == Bucket::Verifiable)
        .collect();
    let verdicts = gpumc::parallel_map_ordered(&verifiable, jobs, |_, case| {
        let kernel = case.kernel.as_ref().expect("verifiable kernels exist");
        let text = emit_spirv(kernel);
        let module = parse_spirv(&text).expect("parses");
        let program = lower(&module, case.grid).expect("lowers");
        let v = Verifier::new(gpumc_models::load_shared(ModelKind::Vulkan)).with_bound(bound);
        let t0 = Instant::now();
        let outcome = v.check_data_races(&program);
        (outcome, t0.elapsed().as_micros())
    });
    let mut gpumc_time = 0u128;
    let mut gpumc_count = 0usize;
    let mut gpumc_racy: Vec<(String, bool)> = Vec::new();
    let mut kernel_rows: Vec<Json> = Vec::new();
    for (case, (outcome, us)) in verifiable.iter().zip(verdicts) {
        match outcome {
            Ok(o) => {
                gpumc_time += us;
                gpumc_count += 1;
                gpumc_racy.push((case.name.clone(), o.violated));
                kernel_rows.push(Json::Obj(vec![
                    ("name".into(), Json::str(case.name.as_str())),
                    ("racy".into(), Json::Bool(o.violated)),
                    ("time_us".into(), Json::count(us as u64)),
                    ("events".into(), Json::count(o.stats.events as u64)),
                    ("sat_vars".into(), Json::count(o.stats.sat_vars as u64)),
                    (
                        "sat_clauses".into(),
                        Json::count(o.stats.sat_clauses as u64),
                    ),
                ]));
                if let Some(expected) = case.expected_racy {
                    if o.violated != expected {
                        eprintln!(
                            "!! gpumc ground-truth mismatch on {}: got {} expected {expected}",
                            case.name, o.violated
                        );
                    }
                }
            }
            Err(e) => eprintln!("gpumc failed on {}: {e}", case.name),
        }
    }

    // --- the GPUVerify-style baseline on everything it supports
    //     (verifiable + verifier-unsupported kernels). One `analyze`
    //     call runs in nanoseconds, far below the µs clock granularity a
    //     per-call `elapsed().as_micros()` would truncate to zero (the
    //     old "177 tests in 4 µs" artifact) — so time a repeat loop per
    //     kernel and keep nanosecond totals.
    const GV_REPEAT: u32 = 256;
    let mut gv_time_ns = 0u128;
    let mut gv_count = 0usize;
    let mut gv_verdicts: Vec<(String, bool)> = Vec::new();
    for case in corpus
        .iter()
        .filter(|c| matches!(c.bucket, Bucket::Verifiable | Bucket::UnsupportedByVerifier))
    {
        let kernel = case.kernel.as_ref().expect("kernels exist");
        let t0 = Instant::now();
        for _ in 0..GV_REPEAT {
            std::hint::black_box(gpumc_gpuverify::analyze(
                std::hint::black_box(kernel),
                case.grid,
            ));
        }
        gv_time_ns += t0.elapsed().as_nanos() / u128::from(GV_REPEAT);
        gv_count += 1;
        let verdict = gpumc_gpuverify::analyze(kernel, case.grid);
        gv_verdicts.push((case.name.clone(), verdict.is_failure()));
    }

    // --- agreement on the commonly-supported kernels, gated against the
    //     catalogued expected-divergence table: every disagreement must
    //     be a documented baseline weakness (with the documented
    //     direction), and every documented weakness must still
    //     reproduce. A loose "N/M agree" count would let a new
    //     regression hide behind a fixed false positive.
    let mut agree = 0usize;
    let mut disagreements = Vec::new();
    for (name, ours) in &gpumc_racy {
        if let Some((_, theirs)) = gv_verdicts.iter().find(|(n, _)| n == name) {
            if ours == theirs {
                agree += 1;
            } else {
                disagreements.push((name.clone(), *ours, *theirs));
            }
        }
    }
    let unexpected: Vec<String> = disagreements
        .iter()
        .filter(|(name, ours, theirs)| {
            !matches!(gpumc_gpuverify::expected_divergence(name),
                Some(d) if d.gpumc_racy == *ours && d.gpuverify_racy == *theirs)
        })
        .map(|(name, _, _)| name.clone())
        .collect();
    let missing: Vec<&str> = gpumc_gpuverify::expected_divergences()
        .iter()
        .filter(|d| !disagreements.iter().any(|(n, _, _)| n == d.name))
        .map(|d| d.name)
        .collect();

    println!("Table 6: comparing gpumc and the GPUVerify-style baseline for DRF");
    println!("pipeline: {} kernels total", corpus.len());
    println!("  compilation fails:        {compile_fail}");
    println!("  trivially race-free:      {trivial}");
    println!();
    println!("  {:12} {:>7} {:>15}", "Tool", "#Tests", "Time/Test (ms)");
    println!(
        "  {:12} {:>7} {:>15.1}",
        "gpumc",
        gpumc_count,
        gpumc_time as f64 / 1000.0 / gpumc_count.max(1) as f64
    );
    println!(
        "  {:12} {:>7} {:>15.4}",
        "gpuverify",
        gv_count,
        gv_time_ns as f64 / 1e6 / gv_count.max(1) as f64
    );
    println!();
    println!(
        "agreement on commonly-supported kernels: {agree}/{}",
        gpumc_racy.len()
    );
    for (name, ours, theirs) in &disagreements {
        let annotation = match gpumc_gpuverify::expected_divergence(name) {
            Some(d) if d.gpumc_racy == *ours && d.gpuverify_racy == *theirs => "expected",
            _ => "UNEXPECTED",
        };
        println!(
            "  disagreement: {name}: gpumc={} gpuverify={}  [{annotation}]",
            if *ours { "race" } else { "race-free" },
            if *theirs { "race" } else { "race-free" },
        );
    }
    if unexpected.is_empty() && missing.is_empty() {
        println!(
            "agreement gate: exact expected-divergence set matched ({} kernels)",
            gpumc_gpuverify::expected_divergences().len()
        );
    } else {
        for name in &unexpected {
            println!("!! unexpected disagreement: {name}");
        }
        for name in &missing {
            println!("!! catalogued disagreement no longer reproduces: {name}");
        }
    }

    // --- the shared-encoding win: all three properties (assertion,
    //     liveness, data races) of every verifiable kernel, answered once
    //     by `check_all` from one encoding and once by the three
    //     single-property checks, each with its own encoding. Verdicts
    //     must agree; per-query solver deltas go to stderr.
    let mut inc_us = 0u128;
    let mut fresh_us = 0u128;
    for case in &verifiable {
        let kernel = case.kernel.as_ref().expect("verifiable kernels exist");
        let text = emit_spirv(kernel);
        let module = parse_spirv(&text).expect("parses");
        let program = lower(&module, case.grid).expect("lowers");
        let v = Verifier::new(gpumc_models::load_shared(ModelKind::Vulkan)).with_bound(bound);
        let t0 = Instant::now();
        let inc = v.check_all(&program);
        let inc_elapsed = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let fresh = three_checks(&v, &program);
        let fresh_elapsed = t0.elapsed().as_micros();
        match (inc, fresh) {
            (Ok(i), Ok(f)) => {
                inc_us += inc_elapsed;
                fresh_us += fresh_elapsed;
                eprintln!(
                    "  {} check_all {:.1} ms vs three checks {:.1} ms",
                    case.name,
                    inc_elapsed as f64 / 1000.0,
                    fresh_elapsed as f64 / 1000.0
                );
                eprint!("{}", i.render_query_stats());
                let shared = (
                    i.assertion.reachable,
                    i.liveness.violated,
                    i.data_races.as_ref().map(|d| d.violated),
                );
                if shared != f {
                    eprintln!(
                        "!! check_all/single-check verdict mismatch on {}",
                        case.name
                    );
                }
            }
            (i, f) => {
                if let Err(e) = i {
                    eprintln!("check_all failed on {}: {e}", case.name);
                }
                if let Err(e) = f {
                    eprintln!("single-property check failed on {}: {e}", case.name);
                }
            }
        }
    }
    println!();
    println!("three-property verification (assertion + liveness + drf) per kernel:");
    println!(
        "  check_all, one encoding: {:>8.1} ms   three single checks: {:>8.1} ms   speedup {:.2}x",
        inc_us as f64 / 1000.0,
        fresh_us as f64 / 1000.0,
        if inc_us > 0 {
            fresh_us as f64 / inc_us as f64
        } else {
            1.0
        }
    );

    // --- the DPOR-engine comparison: the same DRF check of every
    //     verifiable kernel under the pruned stateless exploration
    //     engine, step-capped so a high-interference kernel answers
    //     Unknown instead of stalling the batch. Each check stops at
    //     its first race. Records the explored/pruned counters and the
    //     wall-clock against the SAT total measured above.
    const DPOR_CAP: u64 = 2_000_000;
    let dpor_runs = gpumc::parallel_map_ordered(&verifiable, jobs, |_, case| {
        let kernel = case.kernel.as_ref().expect("verifiable kernels exist");
        let text = emit_spirv(kernel);
        let module = parse_spirv(&text).expect("parses");
        let program = lower(&module, case.grid).expect("lowers");
        let v = Verifier::new(gpumc_models::load_shared(ModelKind::Vulkan))
            .with_bound(bound)
            .with_engine(EngineKind::Dpor)
            .with_enumeration_cap(DPOR_CAP);
        let t0 = Instant::now();
        let outcome = v.check_data_races(&program);
        (outcome, t0.elapsed().as_micros())
    });
    let mut dpor_time = 0u128;
    let mut dpor_answered = 0usize;
    let mut dpor_capped = 0usize;
    let mut dpor_explored = 0u64;
    let mut dpor_consistent = 0u64;
    let mut dpor_pruned = 0u64;
    let mut dpor_mismatches: Vec<String> = Vec::new();
    for (case, (outcome, us)) in verifiable.iter().zip(dpor_runs) {
        match outcome {
            Ok(o) => {
                dpor_time += us;
                dpor_answered += 1;
                if let Some(st) = o.stats.dpor {
                    dpor_explored += st.explored;
                    dpor_consistent += st.consistent;
                    dpor_pruned += st.pruned_total();
                }
                if let Some((_, sat_racy)) = gpumc_racy.iter().find(|(n, _)| n == &case.name) {
                    if o.violated != *sat_racy {
                        eprintln!("!! dpor/sat DRF verdict mismatch on {}", case.name);
                        dpor_mismatches.push(case.name.clone());
                    }
                }
            }
            Err(gpumc::VerifyError::Unknown(_) | gpumc::VerifyError::TooComplex(_)) => {
                dpor_capped += 1;
            }
            Err(e) => eprintln!("dpor check failed on {}: {e}", case.name),
        }
    }
    println!();
    println!("DPOR engine vs SAT on the verifiable kernels (step cap {DPOR_CAP}):");
    println!(
        "  answered {dpor_answered}/{} (capped: {dpor_capped})   explored {dpor_explored} \
         candidates ({dpor_consistent} consistent, {dpor_pruned} pruned)",
        verifiable.len()
    );
    println!(
        "  wall: dpor {:>8.1} ms   sat {:>8.1} ms   verdict mismatches: {}",
        dpor_time as f64 / 1000.0,
        gpumc_time as f64 / 1000.0,
        dpor_mismatches.len()
    );

    // --- the tier budget: verify one whole catalog tier (default `dev`;
    //     `--tier validation|scale` for the bigger corpora) and record
    //     the wall clock against the tier's catalogued budget. The
    //     budget catches order-of-magnitude regressions; CI enforces it
    //     on multi-core hosts and only annotates on 1-core runners.
    let tier_corpus = gpumc_catalog::tier_tests(tier);
    let tier_start = Instant::now();
    let tier_runs = gpumc::parallel_map_ordered(&tier_corpus, jobs, |_, t| {
        let program = match gpumc::parse_litmus(&t.source) {
            Ok(p) => p,
            Err(e) => return Err(format!("parse: {e}")),
        };
        let kind = gpumc_fleet::digest::default_model(program.arch);
        let v = Verifier::new(gpumc_models::load_shared(kind)).with_bound(t.bound);
        match v.check_all(&program) {
            Ok(_) => Ok(true),
            Err(gpumc::VerifyError::Unknown(_) | gpumc::VerifyError::TooComplex(_)) => Ok(false),
            Err(e) => Err(format!("{e}")),
        }
    });
    let tier_wall_ms = tier_start.elapsed().as_millis() as u64;
    let mut tier_answered = 0usize;
    let mut tier_unknown = 0usize;
    let mut tier_failed = 0usize;
    for (t, r) in tier_corpus.iter().zip(&tier_runs) {
        match r {
            Ok(true) => tier_answered += 1,
            Ok(false) => tier_unknown += 1,
            Err(e) => {
                tier_failed += 1;
                eprintln!("tier test {} failed: {e}", t.name);
            }
        }
    }
    let tier_budget_ms = tier.budget_ms();
    let within_budget = tier_wall_ms <= tier_budget_ms;
    println!();
    println!(
        "tier `{tier}`: {} tests, {tier_answered} answered, {tier_unknown} unknown, \
         {tier_failed} failed",
        tier_corpus.len()
    );
    println!(
        "  wall {tier_wall_ms} ms vs budget {tier_budget_ms} ms — {}",
        if within_budget {
            "within budget"
        } else {
            "OVER BUDGET"
        }
    );

    let wall = batch.elapsed();
    eprintln!(
        "{}",
        gpumc_bench::timing_footer(
            "table6",
            jobs,
            wall,
            std::time::Duration::from_micros((gpumc_time + gv_time_ns / 1000) as u64),
        )
    );

    if json_out {
        let disagreement_rows: Vec<Json> = disagreements
            .iter()
            .map(|(name, ours, theirs)| {
                let expected = gpumc_gpuverify::expected_divergence(name);
                Json::Obj(vec![
                    ("name".into(), Json::str(name.as_str())),
                    ("gpumc_racy".into(), Json::Bool(*ours)),
                    ("gpuverify_racy".into(), Json::Bool(*theirs)),
                    (
                        "expected".into(),
                        Json::Bool(matches!(expected,
                            Some(d) if d.gpumc_racy == *ours && d.gpuverify_racy == *theirs)),
                    ),
                    (
                        "reason".into(),
                        expected.map_or(Json::Null, |d| Json::str(d.reason)),
                    ),
                ])
            })
            .collect();
        let tool_row = |tool: &str, tests: usize, total_ns: u128| {
            Json::Obj(vec![
                ("tool".into(), Json::str(tool)),
                ("tests".into(), Json::count(tests as u64)),
                ("total_ns".into(), Json::count(total_ns as u64)),
                (
                    "per_test_ms".into(),
                    Json::num(total_ns as f64 / 1e6 / tests.max(1) as f64),
                ),
            ])
        };
        let report = Json::Obj(vec![
            ("bench".into(), Json::str("table6")),
            ("bound".into(), Json::count(u64::from(bound))),
            (
                "jobs".into(),
                Json::count(gpumc::effective_jobs(jobs) as u64),
            ),
            (
                "corpus".into(),
                Json::Obj(vec![
                    ("total".into(), Json::count(corpus.len() as u64)),
                    ("compile_fails".into(), Json::count(compile_fail as u64)),
                    ("trivially_race_free".into(), Json::count(trivial as u64)),
                    ("verifiable".into(), Json::count(verifiable.len() as u64)),
                ]),
            ),
            (
                "tools".into(),
                Json::Arr(vec![
                    tool_row("gpumc", gpumc_count, gpumc_time * 1000),
                    tool_row("gpuverify", gv_count, gv_time_ns),
                ]),
            ),
            (
                "agreement".into(),
                Json::Obj(vec![
                    ("agree".into(), Json::count(agree as u64)),
                    ("common".into(), Json::count(gpumc_racy.len() as u64)),
                    (
                        "expected_divergences".into(),
                        Json::count(gpumc_gpuverify::expected_divergences().len() as u64),
                    ),
                    (
                        "unexpected".into(),
                        Json::Arr(unexpected.iter().map(Json::str).collect()),
                    ),
                    (
                        "missing".into(),
                        Json::Arr(missing.iter().map(|n| Json::str(*n)).collect()),
                    ),
                    ("disagreements".into(), Json::Arr(disagreement_rows)),
                ]),
            ),
            (
                "three_property".into(),
                Json::Obj(vec![
                    ("incremental_us".into(), Json::count(inc_us as u64)),
                    ("fresh_us".into(), Json::count(fresh_us as u64)),
                    (
                        "speedup".into(),
                        Json::num(if inc_us > 0 {
                            fresh_us as f64 / inc_us as f64
                        } else {
                            1.0
                        }),
                    ),
                ]),
            ),
            (
                "dpor".into(),
                Json::Obj(vec![
                    ("step_cap".into(), Json::count(DPOR_CAP)),
                    ("tests".into(), Json::count(verifiable.len() as u64)),
                    ("answered".into(), Json::count(dpor_answered as u64)),
                    ("capped".into(), Json::count(dpor_capped as u64)),
                    ("explored".into(), Json::count(dpor_explored)),
                    ("consistent".into(), Json::count(dpor_consistent)),
                    ("pruned".into(), Json::count(dpor_pruned)),
                    ("dpor_us".into(), Json::count(dpor_time as u64)),
                    ("sat_us".into(), Json::count(gpumc_time as u64)),
                    (
                        "mismatches".into(),
                        Json::Arr(
                            dpor_mismatches
                                .iter()
                                .map(|n| Json::str(n.as_str()))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "tier".into(),
                Json::Obj(vec![
                    ("tier".into(), Json::str(tier.name())),
                    ("tests".into(), Json::count(tier_corpus.len() as u64)),
                    ("answered".into(), Json::count(tier_answered as u64)),
                    ("unknown".into(), Json::count(tier_unknown as u64)),
                    ("failed".into(), Json::count(tier_failed as u64)),
                    ("wall_ms".into(), Json::count(tier_wall_ms)),
                    ("budget_ms".into(), Json::count(tier_budget_ms)),
                    ("within_budget".into(), Json::Bool(within_budget)),
                ]),
            ),
            ("kernels".into(), Json::Arr(kernel_rows)),
            ("wall_us".into(), Json::count(wall.as_micros() as u64)),
        ]);
        let path = "BENCH_table6.json";
        match std::fs::write(path, format!("{report}\n")) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// The `three_property` baseline: the three single-property checks that
/// `check_all` answers from one encoding, each compiling and encoding the
/// kernel on its own.
fn three_checks(v: &Verifier, p: &Program) -> Result<(bool, bool, Option<bool>), VerifyError> {
    Ok((
        v.check_assertion(p)?.reachable,
        v.check_liveness(p)?.violated,
        Some(v.check_data_races(p)?.violated),
    ))
}
