//! Differential conformance suite for the shared encoding
//! (`Verifier::check_all`): for every catalog test, under every
//! applicable model and under bounds 1 and 2, the three verdicts that
//! `check_all` answers from one encoding must be identical to those of
//! the three single-property checks (`check_assertion`,
//! `check_liveness`, `check_data_races`), each with its own encoding,
//! including which error class a failing configuration produces.
//!
//! This is the CI gate behind the shared encoding: learnt-clause
//! carry-over across the assertion/liveness/data-race queries of a test
//! is only admissible because it can never change an answer, and this
//! suite checks that claim on the whole catalog rather than trusting
//! the soundness argument in DESIGN.md.

use gpumc::{Verifier, VerifyError};
use gpumc_catalog::Test;
use gpumc_ir::Program;
use gpumc_models::ModelKind;

/// Coarse error class: two runs "agree" on failure when they fail the
/// same way, not necessarily with byte-identical messages.
fn err_class(e: &VerifyError) -> std::mem::Discriminant<VerifyError> {
    std::mem::discriminant(e)
}

/// The verdicts of one program: assertion reachability and expectation,
/// liveness violation, and the data-race verdict (`None` when the model
/// flags no `dr`).
type Verdicts = (bool, Option<bool>, bool, Option<bool>);

/// The three single-property checks, each with its own encoding.
fn single_checks(v: &Verifier, program: &Program) -> Result<Verdicts, VerifyError> {
    let a = v.check_assertion(program)?;
    let l = v.check_liveness(program)?;
    let d = match v.check_data_races(program) {
        Ok(d) => Some(d.violated),
        Err(VerifyError::Unsupported(_)) => None,
        Err(e) => return Err(e),
    };
    Ok((a.reachable, a.satisfied_expectation, l.violated, d))
}

/// Asserts that `check_all` and the three single-property checks give
/// identical verdicts for one (test, model, bound) configuration.
fn assert_agreement(t: &Test, model: ModelKind, bound: u32) {
    let program = match gpumc::parse_litmus(&t.source) {
        Ok(p) => p,
        Err(e) => panic!("{} does not parse: {e}", t.name),
    };
    let v = Verifier::new(gpumc_models::load_shared(model)).with_bound(bound);
    let shared = v.check_all(&program);
    let single = single_checks(&v, &program);
    let ctx = format!("{} under {model:?} at bound {bound}", t.name);
    match (shared, single) {
        (Ok(o), Ok(single)) => {
            let verdicts = (
                o.assertion.reachable,
                o.assertion.satisfied_expectation,
                o.liveness.violated,
                o.data_races.as_ref().map(|d| d.violated),
            );
            assert_eq!(
                verdicts, single,
                "check_all and single checks differ on {ctx} \
                 (reachable, expectation, liveness, data races)"
            );
            // check_all answers everything from one encoding; its
            // per-query ledger must cover every answered property.
            assert!(
                o.queries.len() >= 2,
                "check_all recorded too few queries on {ctx}"
            );
        }
        (Err(a), Err(b)) => {
            assert_eq!(
                err_class(&a),
                err_class(&b),
                "error classes differ on {ctx}: check_all={a} single={b}"
            );
        }
        (Ok(_), Err(e)) => panic!("only the single checks fail on {ctx}: {e}"),
        (Err(e), Ok(_)) => panic!("only check_all fails on {ctx}: {e}"),
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
