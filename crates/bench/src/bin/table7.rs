//! Regenerates Table 7: verification of synchronization primitives
//! (caslock / ticketlock / ttaslock / xf-barrier and their weakenings).
//!
//! Run with: `cargo run --release -p gpumc-bench --bin table7 [-- --jobs N]`
//!
//! With `--all`, each primitive's mutual-exclusion assertion *and* its
//! liveness (can a spinloop get stuck?) are answered from one encoding;
//! the extra `Live` column reports the latter and the per-query solver
//! deltas go to stderr.
//!
//! Exits 1 when a verdict differs from Table 7's or a row fails.

use std::time::Instant;

use gpumc::Verifier;
use gpumc_models::ModelKind;

fn main() {
    let jobs = gpumc_bench::jobs_from_args();
    let all = gpumc_bench::flag_from_args("--all");
    // `FAST=1` skips the slowest correct-case row (ttaslock base: ~0.9 s
    // of the whole table's ~1.8 s at `--jobs 1` on a 2-vCPU Xeon host)
    // for quick harness runs.
    let fast = std::env::var("FAST").is_ok();
    let batch = Instant::now();
    let benches: Vec<_> = gpumc_catalog::primitive_benchmarks()
        .into_iter()
        .filter(|b| {
            if fast && b.name == "ttaslock" {
                println!("{:26} (skipped under FAST=1)", b.name);
                false
            } else {
                true
            }
        })
        .collect();

    // Each primitive is independent; fan out, then print in input order.
    let results = gpumc::parallel_map_ordered(&benches, jobs, |_, b| {
        let program = match gpumc::parse_litmus(&b.test.source) {
            Ok(p) => p,
            Err(e) => return Err(format!("parse failed: {e}")),
        };
        let v =
            Verifier::new(gpumc_models::load_shared(ModelKind::Vulkan)).with_bound(b.test.bound);
        let t0 = Instant::now();
        if all {
            // One encoding answers mutual exclusion + liveness.
            v.check_all(&program)
                .map(|o| {
                    (
                        o.assertion.clone(),
                        Some(o.liveness.violated),
                        o.render_query_stats(),
                        t0.elapsed().as_millis(),
                    )
                })
                .map_err(|e| e.to_string())
        } else {
            v.check_assertion(&program)
                .map(|o| (o, None, String::new(), t0.elapsed().as_millis()))
                .map_err(|e| e.to_string())
        }
    });

    println!(
        "{:26} {:>5} {:>4} {:>5} {:>8}{} {:>10}",
        "Benchmark",
        "Grid",
        "|T|",
        "|E|",
        "Correct",
        if all { "     Live" } else { "" },
        "Time (ms)"
    );
    let mut aggregate_ms = 0u128;
    let mut failed = false;
    for (b, result) in benches.iter().zip(results) {
        match result {
            Ok((o, live, query_stats, ms)) => {
                aggregate_ms += ms;
                let correct = !o.reachable;
                failed |= correct != b.expect_correct;
                let live_col = match live {
                    Some(violated) => format!("{:>9}", if violated { "stuck" } else { "yes" }),
                    None => String::new(),
                };
                println!(
                    "{:26} {:>5} {:>4} {:>5} {:>8}{} {:>10}{}",
                    b.name,
                    b.grid.to_string(),
                    b.grid.threads(),
                    o.stats.events,
                    if correct { "yes" } else { "no" },
                    live_col,
                    ms,
                    if correct == b.expect_correct {
                        ""
                    } else {
                        "   !! expectation mismatch"
                    }
                );
                if !query_stats.is_empty() {
                    eprintln!("{}:", b.name);
                    eprint!("{query_stats}");
                }
            }
            Err(e) => {
                eprintln!("{}: {e}", b.name);
                failed = true;
            }
        }
    }
    eprintln!(
        "{}",
        gpumc_bench::timing_footer(
            "table7",
            jobs,
            batch.elapsed(),
            std::time::Duration::from_millis(aggregate_ms as u64),
        )
    );
    if failed {
        std::process::exit(1);
    }
}
