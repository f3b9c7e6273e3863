//! Regenerates Figure 15: scalability of the Dartagnan-style SAT engine
//! vs the Alloy-style enumeration on MP/SB/LB/IRIW with growing thread
//! counts. Prints one table per pattern (threads, events, and the two
//! engines' milliseconds) on stdout and writes no file.
//!
//! Run with: `cargo run --release -p gpumc-bench --bin fig15 [-- --jobs N]`

use std::io::Write as _;
use std::time::Instant;

use gpumc::{EngineKind, Verifier, VerifyError};
use gpumc_catalog::{scaling_test, ScalePattern};
use gpumc_models::ModelKind;

/// Enumeration blow-up cap: beyond this many candidate behaviours the
/// baseline is declared out-of-memory, like the Alloy tools in the paper.
const ENUM_CANDIDATE_CAP: u64 = 20_000;

fn thread_counts(pattern: ScalePattern) -> Vec<usize> {
    [2usize, 4, 6, 8, 10, 12, 16, 20]
        .into_iter()
        .filter(|&n| !(pattern == ScalePattern::Iriw && n < 4))
        .collect()
}

fn main() {
    let jobs = gpumc_bench::jobs_from_args();
    let batch = Instant::now();
    let patterns = [
        ScalePattern::Mp,
        ScalePattern::Sb,
        ScalePattern::Lb,
        ScalePattern::Iriw,
    ];

    // The SAT engine dominates the runtime and every (pattern, threads)
    // point is independent — fan the whole grid out at once.
    let grid: Vec<(ScalePattern, usize)> = patterns
        .iter()
        .flat_map(|&p| thread_counts(p).into_iter().map(move |n| (p, n)))
        .collect();
    let sat_points = gpumc::parallel_map_ordered(&grid, jobs, |_, &(pattern, threads)| {
        let t = scaling_test(pattern, threads);
        let program = gpumc::parse_litmus(&t.source).expect("generated test parses");
        let sat = Verifier::new(gpumc_models::load_shared(ModelKind::Ptx60)).with_bound(1);
        let t0 = Instant::now();
        let outcome = sat.check_assertion(&program).expect("sat engine");
        (outcome.stats.events, t0.elapsed().as_secs_f64() * 1000.0)
    });
    let mut aggregate_ms: f64 = sat_points.iter().map(|&(_, ms)| ms).sum();

    for pattern in patterns {
        println!("== {pattern} ==");
        println!(
            "{:>8} {:>7} {:>14} {:>12}",
            "threads", "events", "dartagnan(ms)", "alloy(ms)"
        );
        // The enumeration baseline stays sequential per pattern: once a
        // size blows the candidate cap, every larger size would too, so
        // the early exit saves the most expensive runs.
        let mut enum_dead = false;
        for threads in thread_counts(pattern) {
            let (events, sat_ms) = sat_points[grid
                .iter()
                .position(|&g| g == (pattern, threads))
                .expect("grid covers the loop")];

            let alloy_ms: Option<f64> = if enum_dead {
                None
            } else {
                let t = scaling_test(pattern, threads);
                let program = gpumc::parse_litmus(&t.source).expect("generated test parses");
                let enumerator = Verifier::new(gpumc_models::load_shared(ModelKind::Ptx60))
                    .with_bound(1)
                    .with_engine(EngineKind::Enumerate {
                        straight_line_only: true,
                    })
                    .with_enumeration_cap(ENUM_CANDIDATE_CAP);
                let t0 = Instant::now();
                match enumerator.check_assertion(&program) {
                    Ok(_) => {
                        let ms = t0.elapsed().as_secs_f64() * 1000.0;
                        aggregate_ms += ms;
                        Some(ms)
                    }
                    Err(VerifyError::TooComplex(_)) => {
                        enum_dead = true;
                        None
                    }
                    Err(e) => {
                        eprintln!("enumeration failed: {e}");
                        None
                    }
                }
            };
            println!(
                "{:>8} {:>7} {:>14.1} {:>12}",
                threads,
                events,
                sat_ms,
                alloy_ms.map_or("OOM".to_string(), |m| format!("{m:.1}"))
            );
            std::io::stdout().flush().ok();
        }
    }
    eprintln!(
        "{}",
        gpumc_bench::timing_footer(
            "fig15",
            jobs,
            batch.elapsed(),
            std::time::Duration::from_secs_f64(aggregate_ms / 1000.0),
        )
    );
}
