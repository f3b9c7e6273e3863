//! Encoding determinism: the same input must give the same CNF and the
//! same solver search, every time.
//!
//! The golden protocol corpus pins solver counters (`vars`, `clauses`,
//! `conflicts`, `propagations`), and the benchmark's per-layer counters
//! compare two program versions by them. Both rely on the encoder
//! emitting gates and clauses in an order that is a function of the
//! input alone (DESIGN.md §12). This suite runs `check_all` twice in one
//! process for every validation-tier test, under its dialect's model at
//! `min(bound, 2)`, and requires identical CNF sizes and per-query
//! `(conflicts, decisions, propagations)`. A second process with the same
//! input is covered by replaying the golden corpus in fresh processes.

use gpumc::{FullOutcome, Verifier};
use gpumc_models::ModelKind;

/// Everything of one `check_all` answer that must repeat exactly: the
/// CNF size seen by each property and each query's search counters.
fn counters(o: &FullOutcome) -> Vec<(String, u64, u64, u64)> {
    let mut out = Vec::new();
    let stats = [Some(&o.assertion.stats), Some(&o.liveness.stats)]
        .into_iter()
        .chain([o.data_races.as_ref().map(|d| &d.stats)]);
    for (label, s) in ["assertion", "liveness", "dr"].into_iter().zip(stats) {
        if let Some(s) = s {
            out.push((
                format!("{label} size"),
                s.sat_vars as u64,
                s.sat_clauses as u64,
                0,
            ));
        }
    }
    for q in &o.queries {
        out.push((
            q.label.clone(),
            q.stats.conflicts,
            q.stats.decisions,
            q.stats.propagations,
        ));
    }
    out
}

#[test]
fn check_all_repeats_exactly_on_the_validation_tier() {
    let tests = gpumc_catalog::tier_tests(gpumc_catalog::Tier::Validation);
    let mut differing = Vec::new();
    for t in &tests {
        let model = if t.source.trim_start().starts_with("PTX") {
            ModelKind::Ptx75
        } else {
            ModelKind::Vulkan
        };
        let program = gpumc::parse_litmus(&t.source).expect("catalog test parses");
        let v = Verifier::new(gpumc_models::load_shared(model)).with_bound(t.bound.min(2));
        let run = || match v.check_all(&program) {
            Ok(o) => Ok(counters(&o)),
            Err(e) => Err(e.to_string()),
        };
        let (first, second) = (run(), run());
        if first != second {
            differing.push(format!("{}: {first:?} then {second:?}", t.name));
        }
    }
    assert!(
        differing.is_empty(),
        "{} of {} validation-tier tests changed their CNF or search counters \
         between two runs in one process:\n{}",
        differing.len(),
        tests.len(),
        differing.join("\n")
    );
}
