//! Shared plumbing for the experiment binaries (see `src/bin/`):
//! `--jobs` parsing and the wall-clock vs aggregate-time report line.
//!
//! Every table/figure binary fans its independent verification work out
//! through [`gpumc::parallel_map_ordered`]; the helpers here keep their
//! command lines and timing output consistent.

use std::time::Duration;

/// Parses `--jobs N` / `-j N` from the process arguments, falling back
/// to the `GPUMC_JOBS` environment variable, then to `0` (= all cores).
///
/// Unknown arguments are ignored — each binary owns its own interface and
/// most predate flags entirely.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--jobs" || a == "-j" {
            if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                return n;
            }
            eprintln!("warning: bad --jobs value, using all cores");
            return 0;
        }
    }
    std::env::var("GPUMC_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Whether boolean flag `name` (e.g. `--all`) is present in the process
/// arguments. Unknown arguments are ignored, as in [`jobs_from_args`].
pub fn flag_from_args(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Parses a valued argument `name N` (e.g. `--bound 1`) from the process
/// arguments: `Ok(None)` when absent, and an error naming the flag when
/// its value is missing or unparsable. Unknown arguments are ignored, as
/// in [`jobs_from_args`].
pub fn value_from_args<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            return match value.parse() {
                Ok(v) => Ok(Some(v)),
                Err(_) => Err(format!("bad {name} value `{value}`")),
            };
        }
    }
    Ok(None)
}

/// The standard batch timing footer: end-to-end wall clock versus the
/// sum of per-item worker times, and the achieved overlap.
pub fn timing_footer(label: &str, jobs: usize, wall: Duration, aggregate: Duration) -> String {
    let concurrency = if wall.is_zero() {
        1.0
    } else {
        aggregate.as_secs_f64() / wall.as_secs_f64()
    };
    format!(
        "{label}: jobs {} | wall {:.1} ms | aggregate {:.1} ms | concurrency {concurrency:.2}x",
        gpumc::effective_jobs(jobs),
        wall.as_secs_f64() * 1e3,
        aggregate.as_secs_f64() * 1e3,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footer_reports_overlap() {
        let f = timing_footer(
            "suite",
            1,
            Duration::from_millis(100),
            Duration::from_millis(250),
        );
        assert!(f.contains("wall 100.0 ms"));
        assert!(f.contains("aggregate 250.0 ms"));
        assert!(f.contains("concurrency 2.50x"));
    }
}
