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
//! input is covered by replaying the golden corpus in fresh processes, and
//! a change of program version by a table of exact values for three
//! inputs ([`PINNED`]).

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

/// One pinned input and the exact [`counters`] its `check_all` gives.
struct Pinned {
    /// A figure test, a Table 7 row (`name-grid`), or `MP`.
    name: &'static str,
    model: ModelKind,
    bound: u32,
    /// Events of the unrolled graph.
    events: usize,
    counters: &'static [(&'static str, u64, u64, u64)],
}

/// Exact CNF sizes and per-query `(conflicts, decisions, propagations)`
/// of three inputs, recorded while the encoder still kept its relations
/// in ordered maps. The encoder must emit the same gates and clauses in
/// the same order whatever its internal layout, so these values move
/// only with a deliberate change to the encoding or the solver. MP stays
/// within one word per row; `fig13-ticket-mutex` under PTX 7.5 is the
/// input that sets litmus-sat's tail; the Table 7 row's 82 events put
/// every relation row across a word boundary.
const PINNED: &[Pinned] = &[
    Pinned {
        name: "MP",
        model: ModelKind::Ptx60,
        bound: 1,
        events: 6,
        counters: &[
            ("assertion size", 31, 66, 0),
            ("liveness size", 32, 66, 0),
            ("assertion", 0, 0, 28),
            ("liveness", 0, 0, 1),
        ],
    },
    Pinned {
        name: "fig13-ticket-mutex",
        model: ModelKind::Ptx75,
        bound: 2,
        events: 27,
        counters: &[
            ("assertion size", 2289, 6053, 0),
            ("liveness size", 2312, 6130, 0),
            ("assertion", 16, 137, 5669),
            ("liveness", 8, 8, 2699),
        ],
    },
    Pinned {
        name: "caslock-acq2rx-4.2",
        model: ModelKind::Vulkan,
        bound: 2,
        events: 82,
        counters: &[
            ("assertion size", 14741, 192782, 0),
            ("liveness size", 14742, 192798, 0),
            ("dr size", 14743, 192807, 0),
            ("assertion", 94, 10072, 93536),
            ("liveness", 0, 0, 1),
            ("flag:dr", 0, 3347, 13765),
        ],
    },
];

const MP: &str = "PTX MP\n{ x = 0; flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | ld.weak r0, flag ;\n\
st.weak flag, 1 | ld.weak r1, x ;\n\
exists (P1:r0 == 1 /\\ P1:r1 == 0)";

/// The source of a pinned input.
fn pinned_source(name: &str) -> String {
    if name == "MP" {
        return MP.to_string();
    }
    if let Some(t) = gpumc_catalog::figure_tests()
        .into_iter()
        .find(|t| t.name == name)
    {
        return t.source;
    }
    gpumc_catalog::primitive_benchmarks()
        .into_iter()
        .find(|b| format!("{}-{}", b.name, b.grid) == name)
        .map(|b| b.test.source)
        .unwrap_or_else(|| panic!("no catalog input `{name}`"))
}

#[test]
fn check_all_counters_match_the_pinned_table() {
    let mut differing = Vec::new();
    for p in PINNED {
        let program = gpumc::parse_litmus(&pinned_source(p.name)).expect("pinned input parses");
        let graph = gpumc_ir::compile(&gpumc_ir::unroll(&program, p.bound).expect("unrolls"));
        assert_eq!(graph.n_events(), p.events, "{}: events", p.name);
        let v = Verifier::new(gpumc_models::load_shared(p.model)).with_bound(p.bound);
        let got = counters(&v.check_all(&program).expect("check_all answers"));
        let want: Vec<(String, u64, u64, u64)> = p
            .counters
            .iter()
            .map(|&(label, a, b, c)| (label.to_string(), a, b, c))
            .collect();
        if got != want {
            differing.push(format!("{}: pinned {want:?}\n  got {got:?}", p.name));
        }
    }
    assert!(
        differing.is_empty(),
        "CNF sizes or search counters moved:\n{}",
        differing.join("\n")
    );
}
