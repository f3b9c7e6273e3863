//! Gate for every Table 7 verdict: each synchronization primitive of
//! `gpumc_catalog::primitive_benchmarks()`, checked under the Vulkan
//! model at its row's bound, must be correct exactly when the paper's
//! Table 7 says so.
//!
//! Release builds check all 20 rows (~3.6 s on one thread). Debug builds
//! check only the rows that answer in under 100 ms in release, as
//! `engine_agreement` subsamples its sweeps.

use gpumc::Verifier;
use gpumc_models::ModelKind;

/// The rows (`name-grid`) a debug build checks: each answers in under
/// 70 ms in a release build on a 2-vCPU Xeon host. Both verdicts and all
/// four primitives are among them.
const FAST_ROWS: &[&str] = &[
    "caslock-dv2wg-4.1",
    "ticketlock-acq2rx-4.2",
    "ticketlock-dv2wg-4.1",
    "ttaslock-dv2wg-2.1",
    "xf-barrier-3.3",
    "xf-barrier-acq2rx-1-2.2",
    "xf-barrier-acq2rx-2-2.2",
    "xf-barrier-rel2rx-1-2.2",
    "xf-barrier-rel2rx-2-2.2",
];

#[test]
fn every_table7_verdict_matches_the_paper() {
    let rows = gpumc_catalog::primitive_benchmarks();
    assert_eq!(rows.len(), 20, "Table 7 has 20 rows");
    let model = gpumc_models::load_shared(ModelKind::Vulkan);
    let mut checked = 0;
    let mut wrong = Vec::new();
    for b in &rows {
        let id = format!("{}-{}", b.name, b.grid);
        if cfg!(debug_assertions) && !FAST_ROWS.contains(&id.as_str()) {
            continue;
        }
        let program = gpumc::parse_litmus(&b.test.source).expect("the row parses");
        let outcome = Verifier::new(model.clone())
            .with_bound(b.test.bound)
            .check_assertion(&program)
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let correct = !outcome.reachable;
        if correct != b.expect_correct {
            wrong.push(format!(
                "{id}: correct = {correct}, Table 7 says {}",
                b.expect_correct
            ));
        }
        checked += 1;
    }
    assert!(
        wrong.is_empty(),
        "Table 7 verdict mismatches:\n{}",
        wrong.join("\n")
    );
    let expected = if cfg!(debug_assertions) {
        FAST_ROWS.len()
    } else {
        rows.len()
    };
    assert_eq!(checked, expected, "rows checked");
}
