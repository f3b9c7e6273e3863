//! Differential conformance suite for encoding simplification by
//! relation analysis (`Verifier::with_relation_analysis`): for every
//! catalog test, under every applicable model and under bounds 1 and 2,
//! the three verdicts of the pruned encoding (the default) must be
//! identical to the verdicts of the unpruned encoding, including which
//! error class a failing configuration produces.
//!
//! The solver gets the encoding as built, with no CNF preprocessing
//! (DESIGN.md §12). The one simplification left between the model and
//! the solver is relation-analysis pruning: every relation pair the
//! Table 3 bounds rule out is never encoded. Dropping those pairs is only
//! admissible because it can never change an answer, and this suite
//! checks that claim on the whole catalog rather than trusting the
//! bounds computation.
//!
//! Witness comparison is by presence, not exact assignment: both
//! pipelines interpreter-revalidate every witness they return
//! (`EncodeError::WitnessMismatch` otherwise), and two different
//! formulas may legitimately yield different satisfying executions. What
//! must never differ is whether one exists.

use gpumc::{Verifier, VerifyError};
use gpumc_catalog::Test;
use gpumc_models::ModelKind;

/// Coarse error class: two runs "agree" on failure when they fail the
/// same way, not necessarily with byte-identical messages.
fn err_class(e: &VerifyError) -> std::mem::Discriminant<VerifyError> {
    std::mem::discriminant(e)
}

/// Asserts that `check_all` with relation-analysis pruning on and off
/// gives identical verdicts for one (test, model, bound) configuration.
fn assert_agreement(t: &Test, model: ModelKind, bound: u32) {
    let program = match gpumc::parse_litmus(&t.source) {
        Ok(p) => p,
        Err(e) => panic!("{} does not parse: {e}", t.name),
    };
    let v = Verifier::new(gpumc_models::load_shared(model)).with_bound(bound);
    let pruned = v.check_all(&program);
    let full = v.with_relation_analysis(false).check_all(&program);
    let ctx = format!("{} under {model:?} at bound {bound}", t.name);
    match (pruned, full) {
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
            // No CNF preprocessing runs on either path.
            assert!(s.simplify.is_none() && p.simplify.is_none());
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                err_class(&a),
                err_class(&b),
                "error classes differ on {ctx}: pruned={a} unpruned={b}"
            );
        }
        (Ok(_), Err(e)) => panic!("only the unpruned path fails on {ctx}: {e}"),
        (Err(e), Ok(_)) => panic!("only the pruned path fails on {ctx}: {e}"),
    }
}

/// Runs the agreement check over a suite for the given models × bounds.
fn sweep(tests: &[Test], models: &[ModelKind]) {
    for t in tests {
        for &model in models {
            for bound in [1, 2] {
                assert_agreement(t, model, bound);
            }
        }
    }
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
    sweep(&gpumc_catalog::ptx_safety_suite(), PTX_MODELS);
}

#[test]
fn ptx_proxy_suite_agrees() {
    sweep(&gpumc_catalog::ptx_proxy_suite(), PTX_MODELS);
}

#[test]
fn vulkan_safety_suite_agrees() {
    sweep(&gpumc_catalog::vulkan_safety_suite(), VULKAN_MODELS);
}

#[test]
fn vulkan_drf_suite_agrees() {
    sweep(&gpumc_catalog::vulkan_drf_suite(), VULKAN_MODELS);
}

#[test]
fn liveness_suite_agrees() {
    let (ptx, vulkan) = by_arch(gpumc_catalog::liveness_suite());
    sweep(&ptx, PTX_MODELS);
    sweep(&vulkan, VULKAN_MODELS);
}

#[test]
fn figure_tests_agree() {
    let (ptx, vulkan) = by_arch(gpumc_catalog::figure_tests());
    sweep(&ptx, PTX_MODELS);
    sweep(&vulkan, VULKAN_MODELS);
}
