//! Differential conformance suite for the conflict budget
//! (`Verifier::with_conflict_budget`): for every catalog test, under
//! every applicable model and under bounds 1 and 2, `check_all` under a
//! strangled budget must return the unbudgeted verdicts or a classified
//! `Unknown`, never another verdict and never another error class.
//!
//! Every SAT query runs one sequential CDCL search (DESIGN.md §14), and
//! the budget is the one way to cut that search short. An interrupted
//! query must withhold its verdict; it may not turn into a wrong one.
//! This suite checks that claim on the whole catalog rather than on one
//! hand-picked test. (The file keeps its name from the SAT portfolio it
//! used to gate; the suites kept theirs.)
//!
//! A budget that never fires changes nothing at all: the search is
//! deterministic, so a budgeted run that answers must have spent exactly
//! the unbudgeted per-query conflicts, decisions and propagations.

use gpumc::{FullOutcome, Verifier, VerifyError};
use gpumc_catalog::Test;
use gpumc_models::ModelKind;

/// Conflict budgets per query: zero interrupts at the first conflict,
/// sixteen lets the easy queries of a session through.
const BUDGETS: [u64; 2] = [0, 16];

/// Coarse error class: two runs "agree" on failure when they fail the
/// same way, not necessarily with byte-identical messages.
fn err_class(e: &VerifyError) -> std::mem::Discriminant<VerifyError> {
    std::mem::discriminant(e)
}

/// Per-query search counters, in query order.
fn search(o: &FullOutcome) -> Vec<(String, u64, u64, u64)> {
    o.queries
        .iter()
        .map(|q| {
            (
                q.label.clone(),
                q.stats.conflicts,
                q.stats.decisions,
                q.stats.propagations,
            )
        })
        .collect()
}

/// Asserts that `check_all` under conflict budget `budget` gives the
/// unbudgeted verdicts, or `Unknown`, for one (test, model, bound)
/// configuration. Returns whether the budget interrupted the check.
fn assert_agreement(t: &Test, model: ModelKind, bound: u32, budget: u64) -> bool {
    let program = match gpumc::parse_litmus(&t.source) {
        Ok(p) => p,
        Err(e) => panic!("{} does not parse: {e}", t.name),
    };
    let v = Verifier::new(gpumc_models::load_shared(model)).with_bound(bound);
    let full = v.clone().check_all(&program);
    let budgeted = v.with_conflict_budget(budget).check_all(&program);
    let ctx = format!(
        "{} under {model:?} at bound {bound} budget {budget}",
        t.name
    );
    match (full, budgeted) {
        (Ok(s), Ok(p)) => {
            assert_eq!(
                s.assertion.reachable, p.assertion.reachable,
                "assertion reachability differs on {ctx}"
            );
            assert_eq!(
                s.assertion.satisfied_expectation, p.assertion.satisfied_expectation,
                "assertion expectation verdict differs on {ctx}"
            );
            assert_eq!(
                s.assertion.witness.is_some(),
                p.assertion.witness.is_some(),
                "assertion witness presence differs on {ctx}"
            );
            assert_eq!(
                s.liveness.violated, p.liveness.violated,
                "liveness verdict differs on {ctx}"
            );
            assert_eq!(
                s.liveness.witness.is_some(),
                p.liveness.witness.is_some(),
                "liveness witness presence differs on {ctx}"
            );
            assert_eq!(
                s.data_races.as_ref().map(|d| d.violated),
                p.data_races.as_ref().map(|d| d.violated),
                "data-race verdict differs on {ctx}"
            );
            assert_eq!(
                search(&s),
                search(&p),
                "a budget that never fired changed the search on {ctx}"
            );
            false
        }
        (Ok(_), Err(VerifyError::Unknown(_))) => true,
        (Ok(_), Err(e)) => panic!("only the budgeted path fails on {ctx}: {e}"),
        (Err(_), Err(VerifyError::Unknown(_))) => true,
        (Err(a), Err(b)) => {
            assert_eq!(
                err_class(&a),
                err_class(&b),
                "error classes differ on {ctx}: unbudgeted={a} budgeted={b}"
            );
            false
        }
        (Err(e), Ok(_)) => panic!("only the unbudgeted path fails on {ctx}: {e}"),
    }
}

/// Runs the agreement check over a suite for the given models × bounds
/// × budgets. Returns how many checks the budget interrupted.
fn sweep(tests: &[Test], models: &[ModelKind]) -> usize {
    let mut interrupted = 0;
    for t in tests {
        for &model in models {
            for bound in [1, 2] {
                for budget in BUDGETS {
                    interrupted += usize::from(assert_agreement(t, model, bound, budget));
                }
            }
        }
    }
    interrupted
}

/// The budget must actually bind somewhere in every suite, or the sweep
/// would pass without exercising an interrupted search.
fn assert_binds(interrupted: usize, suite: &str) {
    assert!(
        interrupted > 0,
        "no budget in {BUDGETS:?} interrupted any check of the {suite} suite"
    );
}

const PTX_MODELS: &[ModelKind] = &[ModelKind::Ptx60, ModelKind::Ptx75];
const VULKAN_MODELS: &[ModelKind] = &[ModelKind::Vulkan];

/// Splits an arch-mixed suite by litmus dialect.
fn by_arch(tests: Vec<Test>) -> (Vec<Test>, Vec<Test>) {
    tests
        .into_iter()
        .partition(|t| t.source.trim_start().starts_with("PTX"))
}

#[test]
fn ptx_safety_suite_agrees() {
    let n = sweep(&gpumc_catalog::ptx_safety_suite(), PTX_MODELS);
    assert_binds(n, "PTX safety");
}

#[test]
fn ptx_proxy_suite_agrees() {
    let n = sweep(&gpumc_catalog::ptx_proxy_suite(), PTX_MODELS);
    assert_binds(n, "PTX proxy");
}

#[test]
fn vulkan_safety_suite_agrees() {
    let n = sweep(&gpumc_catalog::vulkan_safety_suite(), VULKAN_MODELS);
    assert_binds(n, "Vulkan safety");
}

#[test]
fn vulkan_drf_suite_agrees() {
    let n = sweep(&gpumc_catalog::vulkan_drf_suite(), VULKAN_MODELS);
    assert_binds(n, "Vulkan DRF");
}

#[test]
fn liveness_suite_agrees() {
    let (ptx, vulkan) = by_arch(gpumc_catalog::liveness_suite());
    let n = sweep(&ptx, PTX_MODELS) + sweep(&vulkan, VULKAN_MODELS);
    assert_binds(n, "liveness");
}

#[test]
fn figure_tests_agree() {
    let (ptx, vulkan) = by_arch(gpumc_catalog::figure_tests());
    let n = sweep(&ptx, PTX_MODELS) + sweep(&vulkan, VULKAN_MODELS);
    assert_binds(n, "figure");
}
