//! Batch verification: a fixed-pool parallel suite runner.
//!
//! [`SuiteRunner`] fans a slice of catalogued tests out over `--jobs N`
//! worker threads (plain `std::thread::scope`, no extra dependencies) and
//! collects per-test outcomes **in input order**, so a suite's report is
//! byte-identical no matter how many workers ran it. Workers share the
//! process-wide compiled models ([`gpumc_models::load_shared`]) and
//! check each test's catalogued property only.
//!
//! Timing is reported as *wall-clock* (the batch, end to end) versus
//! *aggregate CPU* (the sum of per-test times) — the ratio is the
//! parallel speedup actually achieved.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gpumc_catalog::{Property, Test};
use gpumc_models::ModelKind;

use crate::{EngineKind, Stats, Verifier, VerifyError};

/// Maps each item of `items` through `f` on a fixed pool of `jobs`
/// worker threads, returning results **in input order**.
///
/// `jobs == 0` selects [`std::thread::available_parallelism`]. Workers
/// claim items through a shared atomic cursor, so an expensive item never
/// stalls the queue behind it. `f` receives `(index, &item)`.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope unwinds once all workers stop).
pub fn parallel_map_ordered<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// Resolves a `--jobs` request: `0` means "all available cores".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Configuration for a suite run.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Worker threads; `0` = all available cores.
    pub jobs: usize,
    /// Engine used for every test.
    pub engine: EngineKind,
    /// Model override; `None` infers per test from its dialect
    /// (PTX → v7.5, Vulkan → vulkan), like `gpumc verify`.
    pub model: Option<ModelKind>,
}

impl Default for SuiteConfig {
    fn default() -> SuiteConfig {
        SuiteConfig {
            jobs: 0,
            engine: EngineKind::Sat,
            model: None,
        }
    }
}

/// Outcome of one test inside a suite run.
#[derive(Debug, Clone)]
pub struct TestResult {
    /// Test name (unique within the suite).
    pub name: String,
    /// The catalogued property that produced [`TestResult::verdict`].
    pub property: Property,
    /// The catalogued expectation, if the literature fixes one.
    pub expected: Option<bool>,
    /// For safety: was the quantified witness found; for liveness/DRF:
    /// was the property violated. `Err` when the engine rejected the
    /// test.
    pub verdict: Result<bool, VerifyError>,
    /// Statistics of the check.
    pub stats: Stats,
    /// Total worker time spent on this test (parse + compile + check).
    pub time: Duration,
}

impl TestResult {
    /// Whether the verdict agrees with the catalogued expectation
    /// (`None` when the test has no fixed expectation or errored).
    pub fn matches_expected(&self) -> Option<bool> {
        match (&self.verdict, self.expected) {
            (Ok(v), Some(e)) => Some(*v == e),
            _ => None,
        }
    }

    /// A test passes unless it errored or contradicted its expectation.
    pub fn passed(&self) -> bool {
        match &self.verdict {
            Ok(v) => self.expected.is_none_or(|e| e == *v),
            Err(_) => false,
        }
    }
}

/// The collected outcome of a suite run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-test results, in the order the tests were supplied.
    pub results: Vec<TestResult>,
    /// Worker threads actually used.
    pub jobs: usize,
    /// End-to-end batch time.
    pub wall: Duration,
    /// Sum of per-test worker times.
    pub cpu: Duration,
}

impl SuiteReport {
    /// Number of passing tests (see [`TestResult::passed`]).
    pub fn passed(&self) -> usize {
        self.results.iter().filter(|r| r.passed()).count()
    }

    /// The failing results (errors or expectation mismatches).
    pub fn failures(&self) -> impl Iterator<Item = &TestResult> {
        self.results.iter().filter(|r| !r.passed())
    }

    /// Average worker concurrency: aggregate worker time over wall time.
    /// On an idle multi-core machine this equals the achieved parallel
    /// speedup; under core contention it reports overlap, not speedup.
    pub fn concurrency(&self) -> f64 {
        if self.wall.is_zero() {
            1.0
        } else {
            self.cpu.as_secs_f64() / self.wall.as_secs_f64()
        }
    }

    /// Renders the per-test result table.
    ///
    /// The table is **deterministic**: it contains verdicts and static
    /// sizes only — never timings, worker counts, or solver statistics —
    /// so running the same suite with any `--jobs` value yields a
    /// byte-identical rendering.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "{:30} {:9} {:18} {:8} {:>6} {:>7}",
            "TEST", "PROPERTY", "VERDICT", "EXPECTED", "EVENTS", "THREADS"
        )
        .unwrap();
        for r in &self.results {
            let verdict = match &r.verdict {
                Ok(v) => match r.property {
                    Property::Safety => {
                        if *v {
                            "witness".to_string()
                        } else {
                            "unreachable".to_string()
                        }
                    }
                    Property::Liveness | Property::DataRaceFreedom => {
                        if *v {
                            "violation".to_string()
                        } else {
                            "ok".to_string()
                        }
                    }
                },
                Err(e) => format!("error: {}", error_class(e)),
            };
            let expected = match r.matches_expected() {
                Some(true) => "match",
                Some(false) => "MISMATCH",
                None => "-",
            };
            writeln!(
                out,
                "{:30} {:9} {:18} {:8} {:>6} {:>7}",
                r.name,
                property_name(r.property),
                verdict,
                expected,
                r.stats.events,
                r.stats.threads
            )
            .unwrap();
        }
        out
    }

    /// Renders the timing summary (wall vs aggregate CPU). This part is
    /// *not* deterministic — keep it out of golden comparisons.
    pub fn render_summary(&self) -> String {
        format!(
            "{} tests, {} passed, {} failed | jobs {} | wall {:.1} ms, aggregate {:.1} ms, concurrency {:.2}x",
            self.results.len(),
            self.passed(),
            self.results.len() - self.passed(),
            self.jobs,
            self.wall.as_secs_f64() * 1e3,
            self.cpu.as_secs_f64() * 1e3,
            self.concurrency()
        )
    }
}

fn property_name(p: Property) -> &'static str {
    match p {
        Property::Safety => "safety",
        Property::Liveness => "liveness",
        Property::DataRaceFreedom => "drf",
    }
}

/// A stable one-word class for an error (full messages can embed
/// machine-dependent detail; the deterministic table wants neither).
fn error_class(e: &VerifyError) -> &'static str {
    match e {
        VerifyError::Parse(_) => "parse",
        VerifyError::Ir(_) => "ir",
        VerifyError::Unsupported(_) => "unsupported",
        VerifyError::TooComplex(_) => "too-complex",
        VerifyError::Unknown(_) => "unknown",
        VerifyError::Internal(_) => "internal",
    }
}

/// Runs test suites over a fixed worker pool. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct SuiteRunner {
    config: SuiteConfig,
}

impl SuiteRunner {
    /// A runner with the given configuration.
    pub fn new(config: SuiteConfig) -> SuiteRunner {
        SuiteRunner { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SuiteConfig {
        &self.config
    }

    /// Verifies every test, fanning out over the configured worker pool;
    /// results come back in input order regardless of completion order.
    pub fn run(&self, tests: &[Test]) -> SuiteReport {
        let start = Instant::now();
        let results = parallel_map_ordered(tests, self.config.jobs, |_, t| self.run_test(t));
        let wall = start.elapsed();
        let cpu = results.iter().map(|r| r.time).sum();
        SuiteReport {
            results,
            jobs: effective_jobs(self.config.jobs).min(tests.len().max(1)),
            wall,
            cpu,
        }
    }

    /// Verifies one test (the worker body). Public so custom drivers can
    /// combine it with [`parallel_map_ordered`] directly.
    pub fn run_test(&self, t: &Test) -> TestResult {
        let start = Instant::now();
        let mut result = TestResult {
            name: t.name.clone(),
            property: t.property,
            expected: t.expected,
            verdict: Err(VerifyError::Internal("not run".into())),
            stats: Stats::default(),
            time: Duration::ZERO,
        };
        let program = match crate::parse_litmus(&t.source) {
            Ok(p) => p,
            Err(e) => {
                result.verdict = Err(e);
                result.time = start.elapsed();
                return result;
            }
        };
        let kind = self
            .config
            .model
            .unwrap_or_else(|| gpumc_fleet::digest::default_model(program.arch));
        let v = Verifier::new(gpumc_models::load_shared(kind))
            .with_bound(t.bound)
            .with_engine(self.config.engine);
        result.verdict = match t.property {
            Property::Safety => v.check_assertion(&program).map(|o| {
                result.stats = o.stats;
                o.reachable
            }),
            Property::Liveness => v.check_liveness(&program).map(|o| {
                result.stats = o.stats;
                o.violated
            }),
            Property::DataRaceFreedom => v.check_data_races(&program).map(|o| {
                result.stats = o.stats;
                o.violated
            }),
        };
        result.time = start.elapsed();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_suite() -> Vec<Test> {
        // Small, fast tests with known verdicts: pull the first few
        // figure tests (they carry expectations from the paper).
        gpumc_catalog::figure_tests().into_iter().take(4).collect()
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_ordered(&items, 8, |i, &x| {
            assert_eq!(i, x);
            // Stagger completion so late items finish first.
            if x % 7 == 0 {
                std::thread::yield_now();
            }
            x * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn effective_jobs_normalizes_zero_to_all_cores() {
        assert_eq!(effective_jobs(1), 1);
        assert_eq!(effective_jobs(7), 7);
        let all = effective_jobs(0);
        assert!(all >= 1, "zero means every available core");
        assert_eq!(
            all,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_ordered(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map_ordered(&[7u32], 0, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn suite_results_follow_input_order() {
        let tests = tiny_suite();
        let report = SuiteRunner::new(SuiteConfig {
            jobs: 4,
            ..SuiteConfig::default()
        })
        .run(&tests);
        let names: Vec<_> = report.results.iter().map(|r| r.name.as_str()).collect();
        let expect: Vec<_> = tests.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, expect);
    }

    #[test]
    fn suite_table_is_identical_across_job_counts() {
        // The determinism contract: only verdicts and static sizes are
        // rendered, so -j1 and -j8 agree byte for byte.
        let tests = tiny_suite();
        let run = |jobs| {
            SuiteRunner::new(SuiteConfig {
                jobs,
                ..SuiteConfig::default()
            })
            .run(&tests)
            .render_table()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn expectations_from_the_catalog_hold() {
        let tests = tiny_suite();
        let report = SuiteRunner::new(SuiteConfig::default()).run(&tests);
        if let Some(r) = report.failures().next() {
            panic!("{} failed: {:?}", r.name, r.verdict);
        }
        assert_eq!(report.passed(), tests.len());
    }
}
