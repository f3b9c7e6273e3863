//! Differential fault-injection gate: for every figure test and every
//! (injection point × fault kind) combination on the path a run takes,
//! verification under an armed fault must end in one of exactly three
//! ways:
//!
//! 1. the baseline verdict, byte-for-byte (the fault did not fire at
//!    that point, or its kind — delay, alloc spike without a budget —
//!    cannot change verdicts);
//! 2. a *classified* failure: `VerifyError::Unknown` naming the
//!    injected fault or an exhausted budget;
//! 3. for the `panic` kind only, a panic (which the serve layer
//!    isolates; here the test harness plays supervisor).
//!
//! What must never happen is the fourth outcome: a run that completes
//! "successfully" with a *different* verdict. A fault that flips
//! `violated` into `verified` is a silent soundness hole, and this
//! matrix is the CI tripwire for it.
//!
//! Each matrix also checks that its points fired at all: a probe moved
//! off the path would otherwise leave every cell equal to the baseline
//! and the matrix green.
//!
//! Triggers are deterministic (seeded splitmix64 per rule), so a red
//! matrix entry replays exactly under `GPUMC_FAULTS` with the same
//! spec.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use gpumc::fault::{points, FaultKind, FaultPlan};
use gpumc::{EngineKind, Verifier, VerifyError};
use gpumc_catalog::Test;
use gpumc_fleet::digest::default_model;

/// The verdict triple that must survive any non-failing fault run.
#[derive(Debug, PartialEq, Eq, Clone)]
struct Verdict {
    reachable: bool,
    expectation: Option<bool>,
    liveness_violated: bool,
    data_race: Option<bool>,
}

fn check_with(t: &Test, bound: u32, engine: EngineKind) -> Result<Verdict, VerifyError> {
    let program = gpumc::parse_litmus(&t.source).expect("catalog test parses");
    let v = Verifier::new(gpumc_models::load_shared(default_model(program.arch)))
        .with_bound(bound)
        .with_engine(engine);
    v.check_all(&program).map(|o| Verdict {
        reachable: o.assertion.reachable,
        expectation: o.assertion.satisfied_expectation,
        liveness_violated: o.liveness.violated,
        data_race: o.data_races.map(|d| d.violated),
    })
}

fn check(t: &Test, bound: u32) -> Result<Verdict, VerifyError> {
    check_with(t, bound, EngineKind::Sat)
}

/// One matrix cell: run `t` under `engine` with `kind` armed at `point`
/// and classify the outcome against `baseline`. Returns how often the
/// point was hit and how often it fired.
fn run_cell_with(
    t: &Test,
    bound: u32,
    engine: EngineKind,
    point: &str,
    kind: FaultKind,
    baseline: &Verdict,
) -> (u64, u64) {
    // `once` keeps delay faults from sleeping on every conflict; the
    // other kinds either end the run on first fire (panic, spurious
    // unknown) or are verdict-neutral (alloc spike with no budget).
    let plan = Arc::new(FaultPlan::single(point, kind).with_seed(7).once());
    let ctx = format!("{} with {kind:?} at `{point}`", t.name);
    let outcome = {
        let _g = gpumc::fault::scoped(plan.clone());
        std::panic::catch_unwind(AssertUnwindSafe(|| check_with(t, bound, engine)))
    };
    match outcome {
        Ok(Ok(v)) => assert_eq!(
            &v, baseline,
            "fault run completed but flipped the verdict on {ctx}"
        ),
        Ok(Err(VerifyError::Unknown(reason))) => assert!(
            reason.contains("injected") || reason.contains("budget"),
            "unclassified unknown on {ctx}: {reason}"
        ),
        Ok(Err(e)) => panic!("hard error (not a classified unknown) on {ctx}: {e}"),
        Err(payload) => {
            assert_eq!(
                kind,
                FaultKind::Panic,
                "non-panic fault kind panicked on {ctx}"
            );
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("injected fault"),
                "foreign panic on {ctx}: {msg}"
            );
        }
    }
    let (_, hits, fired) = plan.counters().remove(0);
    (hits, fired)
}

/// Asserts that `point` was hit and fired somewhere in its matrix.
fn assert_fired(point: &str, (hits, fired): (u64, u64)) {
    assert!(
        fired > 0,
        "`{point}` was hit {hits} times and fired {fired} times over the figure tests"
    );
}

const KINDS: &[FaultKind] = &[
    FaultKind::Panic,
    FaultKind::DelayMs(1),
    FaultKind::AllocSpike(1 << 20),
    FaultKind::SpuriousUnknown,
];

/// The points SAT's `check_all` probes. `serve.worker` is gated by
/// `crates/serve/tests/faults.rs` and `dpor.explore` by
/// `dpor_engine_survives_explore_faults`.
const SAT_POINTS: [&str; 2] = [points::SAT_CONFLICT, points::ENCODE_BUILD];

#[test]
fn figure_tests_survive_the_fault_matrix() {
    let tests = gpumc_catalog::figure_tests();
    assert!(!tests.is_empty());
    let mut counts = [(0, 0); SAT_POINTS.len()];
    for t in &tests {
        let bound = t.bound.min(2);
        let baseline = check(t, bound).expect("baseline must verify cleanly");
        for (point, count) in SAT_POINTS.iter().zip(&mut counts) {
            for &kind in KINDS {
                let (hits, fired) =
                    run_cell_with(t, bound, EngineKind::Sat, point, kind, &baseline);
                count.0 += hits;
                count.1 += fired;
            }
        }
    }
    for (point, count) in SAT_POINTS.iter().zip(counts) {
        assert_fired(point, count);
    }
}

#[test]
fn dpor_engine_survives_explore_faults() {
    // The `dpor.explore` point is probed once per complete candidate
    // execution, so under the DPOR engine every fault kind actually
    // fires mid-exploration. A fired fault may only surface as the
    // classified unknown, a supervised panic, or — if the trigger
    // landed after the deciding candidate — the baseline verdict.
    let tests = gpumc_catalog::figure_tests();
    assert!(!tests.is_empty());
    let mut count = (0, 0);
    for t in &tests {
        let bound = t.bound.min(2);
        let baseline =
            check_with(t, bound, EngineKind::Dpor).expect("dpor baseline must verify cleanly");
        assert_eq!(
            baseline,
            check(t, bound).expect("sat baseline"),
            "{}: dpor and sat baselines disagree",
            t.name
        );
        for &kind in KINDS {
            let (hits, fired) = run_cell_with(
                t,
                bound,
                EngineKind::Dpor,
                points::DPOR_EXPLORE,
                kind,
                &baseline,
            );
            count.0 += hits;
            count.1 += fired;
        }
    }
    assert_fired(points::DPOR_EXPLORE, count);
}

#[test]
fn dpor_budget_exhaustion_is_a_classified_unknown_not_a_verdict() {
    // A three-step budget cannot cover any figure exploration: the
    // engine must withhold its verdict as `Unknown`, never guess.
    for t in &gpumc_catalog::figure_tests() {
        let program = gpumc::parse_litmus(&t.source).unwrap();
        let v = Verifier::new(gpumc_models::load_shared(default_model(program.arch)))
            .with_bound(t.bound.min(2))
            .with_engine(EngineKind::Dpor)
            .with_enumeration_cap(3);
        match v.check_all(&program) {
            Err(VerifyError::Unknown(reason)) => assert!(
                reason.contains("budget") || reason.contains("step"),
                "{}: unknown without the budget class: {reason}",
                t.name
            ),
            Ok(_) => panic!("{}: a 3-step exploration cannot conclude", t.name),
            Err(e) => panic!("{}: hard error {e}", t.name),
        }
    }
}

#[test]
fn sustained_spurious_unknowns_never_flip_a_verdict() {
    // Not-once, probability 1: the solver answers `unknown` on the very
    // first conflict of every query. Conflict-free queries may still
    // complete — and when they do, the verdict must match baseline.
    let tests = gpumc_catalog::figure_tests();
    for t in &tests {
        let bound = t.bound.min(2);
        let baseline = check(t, bound).expect("baseline");
        let plan = FaultPlan::single(points::SAT_CONFLICT, FaultKind::SpuriousUnknown);
        let _g = gpumc::fault::scoped(Arc::new(plan));
        match check(t, bound) {
            Ok(v) => assert_eq!(v, baseline, "{}: flipped verdict", t.name),
            Err(VerifyError::Unknown(reason)) => {
                assert!(reason.contains("injected"), "{}: {reason}", t.name);
            }
            Err(e) => panic!("{}: hard error {e}", t.name),
        }
    }
}

#[test]
fn tiny_memory_budget_answers_unknown_not_wrong() {
    // A 1 MiB budget is below any real encoding; the verifier must
    // answer a classified unknown (or, for a trivial test that fits,
    // the baseline verdict) — never a flipped verdict, never a panic.
    let tests = gpumc_catalog::figure_tests();
    for t in &tests {
        let bound = t.bound.min(2);
        let baseline = check(t, bound).expect("baseline");
        let program = gpumc::parse_litmus(&t.source).unwrap();
        let v = Verifier::new(gpumc_models::load_shared(default_model(program.arch)))
            .with_bound(bound)
            .with_mem_budget_mb(1);
        match v.check_all(&program) {
            Ok(o) => {
                let got = Verdict {
                    reachable: o.assertion.reachable,
                    expectation: o.assertion.satisfied_expectation,
                    liveness_violated: o.liveness.violated,
                    data_race: o.data_races.map(|d| d.violated),
                };
                assert_eq!(got, baseline, "{}: flipped verdict under budget", t.name);
            }
            Err(VerifyError::Unknown(reason)) => assert!(
                reason.contains("memory budget"),
                "{}: unknown without the memory-budget class: {reason}",
                t.name
            ),
            Err(e) => panic!("{}: hard error {e}", t.name),
        }
    }
}

#[test]
fn generous_memory_budget_is_verdict_neutral() {
    // 1 GiB comfortably holds every figure encoding: the budgeted run
    // must agree with baseline on every verdict.
    for t in &gpumc_catalog::figure_tests() {
        let bound = t.bound.min(2);
        let baseline = check(t, bound).expect("baseline");
        let program = gpumc::parse_litmus(&t.source).unwrap();
        let v = Verifier::new(gpumc_models::load_shared(default_model(program.arch)))
            .with_bound(bound)
            .with_mem_budget_mb(1024);
        let o = v.check_all(&program).expect("generous budget must verify");
        let got = Verdict {
            reachable: o.assertion.reachable,
            expectation: o.assertion.satisfied_expectation,
            liveness_violated: o.liveness.violated,
            data_race: o.data_races.map(|d| d.violated),
        };
        assert_eq!(got, baseline, "{}: budget changed a verdict", t.name);
    }
}
