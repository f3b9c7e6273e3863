//! Cross-engine validation: the SAT engine (Dartagnan-style), the
//! explicit-state engine (Alloy-style), and the stateless DPOR engine
//! must produce identical verdicts — a three-arm differential gate.
//! This is the paper's Table 5 validation methodology, run continuously.

use gpumc::{EngineKind, Verifier, VerifyError};
use gpumc_catalog::Test;
use gpumc_encode::{encode, EncodeOptions};
use gpumc_exec::{dpor_explore, enumerate, DporOptions, EnumerateOptions};
use gpumc_ir::{compile, unroll, Assertion, EventGraph};
use gpumc_models::{load, ModelKind};

struct Verdicts {
    condition: bool,
    liveness: bool,
    race: Option<bool>,
}

fn graph(src: &str, bound: u32) -> EventGraph {
    let p = gpumc_litmus::parse(src).expect("litmus parses");
    compile(&unroll(&p, bound).expect("unrolls"))
}

fn enumerate_verdicts(g: &EventGraph, model: ModelKind) -> Verdicts {
    let m = load(model);
    let cond = g.assertion.clone();
    let mut v = Verdicts {
        condition: false,
        liveness: false,
        race: if model == ModelKind::Vulkan {
            Some(false)
        } else {
            None
        },
    };
    enumerate(g, &m, &EnumerateOptions::default(), |b| {
        if b.execution.is_liveness_violation() {
            v.liveness = true;
        }
        if b.execution.all_completed() {
            if b.verdict.has_flag("dr") {
                if let Some(r) = &mut v.race {
                    *r = true;
                }
            }
            if let Some(a) = &cond {
                let c = match a {
                    Assertion::Exists(c) | Assertion::NotExists(c) | Assertion::Forall(c) => c,
                };
                let holds = b.execution.eval_condition(c) == Some(true);
                let target = !matches!(a, Assertion::Forall(_));
                if holds == target {
                    v.condition = true;
                }
            }
        }
    })
    .expect("enumeration succeeds");
    v
}

fn dpor_verdicts(g: &EventGraph, model: ModelKind) -> Verdicts {
    let m = load(model);
    let cond = g.assertion.clone();
    let mut v = Verdicts {
        condition: false,
        liveness: false,
        race: if model == ModelKind::Vulkan {
            Some(false)
        } else {
            None
        },
    };
    dpor_explore(g, &m, &DporOptions::default(), |b| {
        if b.execution.is_liveness_violation() {
            v.liveness = true;
        }
        if b.execution.all_completed() {
            if b.verdict.has_flag("dr") {
                if let Some(r) = &mut v.race {
                    *r = true;
                }
            }
            if let Some(a) = &cond {
                let c = match a {
                    Assertion::Exists(c) | Assertion::NotExists(c) | Assertion::Forall(c) => c,
                };
                let holds = b.execution.eval_condition(c) == Some(true);
                let target = !matches!(a, Assertion::Forall(_));
                if holds == target {
                    v.condition = true;
                }
            }
        }
    })
    .expect("dpor exploration succeeds");
    v
}

fn sat_verdicts(g: &EventGraph, model: ModelKind) -> Verdicts {
    let m = load(model);
    let mut enc = encode(g, &m, &EncodeOptions::default()).expect("encodes");
    let condition = enc.find_assertion_witness().expect("query").found;
    let liveness = enc.find_liveness_violation().expect("query").found;
    let race = if model == ModelKind::Vulkan {
        Some(enc.find_flag("dr").expect("query").found)
    } else {
        None
    };
    Verdicts {
        condition,
        liveness,
        race,
    }
}

fn assert_agreement(name: &str, src: &str, model: ModelKind, bound: u32) {
    let g = graph(src, bound);
    let e = enumerate_verdicts(&g, model);
    let s = sat_verdicts(&g, model);
    let d = dpor_verdicts(&g, model);
    assert_eq!(
        e.condition, s.condition,
        "{name} [{model}]: condition verdict disagrees (enum={}, sat={})",
        e.condition, s.condition
    );
    assert_eq!(
        e.liveness, s.liveness,
        "{name} [{model}]: liveness verdict disagrees"
    );
    assert_eq!(e.race, s.race, "{name} [{model}]: race verdict disagrees");
    assert_eq!(
        d.condition, s.condition,
        "{name} [{model}]: condition verdict disagrees (dpor={}, sat={})",
        d.condition, s.condition
    );
    assert_eq!(
        d.liveness, s.liveness,
        "{name} [{model}]: liveness verdict disagrees (dpor vs sat)"
    );
    assert_eq!(
        d.race, s.race,
        "{name} [{model}]: race verdict disagrees (dpor vs sat)"
    );
}

// A corpus of litmus tests spanning the GPU features: both engines must
// agree on every single one.

const CORPUS_PTX: &[(&str, &str, u32)] = &[
    (
        "MP-weak",
        r#"
PTX MP-weak
{ x = 0; flag = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
st.weak x, 1 | ld.weak r0, flag ;
st.weak flag, 1 | ld.weak r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "MP-relacq",
        r#"
PTX MP-relacq
{ x = 0; flag = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
st.relaxed.gpu x, 1 | ld.acquire.gpu r0, flag ;
st.release.gpu flag, 1 | ld.relaxed.gpu r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "SB-weak",
        r#"
PTX SB
{ x = 0; y = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
st.weak x, 1 | st.weak y, 1 ;
ld.weak r0, y | ld.weak r1, x ;
exists (P0:r0 == 0 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "SB-fence-sc",
        r#"
PTX SB-fence
{ x = 0; y = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
st.relaxed.gpu x, 1 | st.relaxed.gpu y, 1 ;
fence.sc.gpu | fence.sc.gpu ;
ld.relaxed.gpu r0, y | ld.relaxed.gpu r1, x ;
exists (P0:r0 == 0 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "LB-weak",
        r#"
PTX LB
{ x = 0; y = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
ld.weak r0, x | ld.weak r1, y ;
st.weak y, 1 | st.weak x, 1 ;
exists (P0:r0 == 1 /\ P1:r1 == 1)
"#,
        1,
    ),
    (
        "LB-data-dep",
        r#"
PTX LB-dep
{ x = 0; y = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
ld.weak r0, x | ld.weak r1, y ;
st.weak y, r0 | st.weak x, r1 ;
exists (P0:r0 == 1 /\ P1:r1 == 1)
"#,
        1,
    ),
    (
        "IRIW-acquire",
        r#"
PTX IRIW
{ x = 0; y = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 | P2@cta 2,gpu 0 | P3@cta 3,gpu 0 ;
st.relaxed.gpu x, 1 | st.relaxed.gpu y, 1 | ld.acquire.gpu r0, x | ld.acquire.gpu r2, y ;
 | | ld.acquire.gpu r1, y | ld.acquire.gpu r3, x ;
exists (P2:r0 == 1 /\ P2:r1 == 0 /\ P3:r2 == 1 /\ P3:r3 == 0)
"#,
        1,
    ),
    (
        "CoRR-atomic",
        r#"
PTX CoRR
{ x = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
st.relaxed.gpu x, 1 | ld.relaxed.gpu r0, x ;
st.relaxed.gpu x, 2 | ld.relaxed.gpu r1, x ;
exists (P1:r0 == 2 /\ P1:r1 == 1)
"#,
        1,
    ),
    (
        "fig6-weak-partial-co",
        r#"
PTX fig6
{ x = 0; }
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0 | P3@cta 0,gpu 0 ;
st.weak x, 1 | st.weak x, 2 | ld.acquire.sys r0, x | ld.acquire.sys r2, x ;
 | | ld.acquire.sys r1, x | ld.acquire.sys r3, x ;
exists (P2:r0 == 1 /\ P2:r1 == 2 /\ P3:r2 == 2 /\ P3:r3 == 1)
"#,
        1,
    ),
    (
        "rmw-add-contention",
        r#"
PTX rmw
{ c = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
atom.relaxed.gpu.add r0, c, 1 | atom.relaxed.gpu.add r0, c, 1 ;
exists (P0:r0 == 0 /\ P1:r0 == 0)
"#,
        1,
    ),
    (
        "cas-lock-handoff",
        r#"
PTX cas
{ lock = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
atom.acquire.gpu.cas r0, lock, 0, 1 | atom.acquire.gpu.cas r0, lock, 0, 2 ;
exists (P0:r0 == 0 /\ P1:r0 == 0)
"#,
        1,
    ),
    (
        "spin-unset-flag",
        r#"
PTX spin
{ flag = 0; done = 0; }
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
LC00: | st.weak done, 1 ;
ld.relaxed.gpu r0, flag | ;
bne r0, 1, LC00 | ;
exists (P0:r0 == 1)
"#,
        2,
    ),
    (
        "spin-with-writer",
        r#"
PTX spin2
{ flag = 0; }
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
LC00: | st.relaxed.gpu flag, 1 ;
ld.relaxed.gpu r0, flag | ;
bne r0, 1, LC00 | ;
exists (P0:r0 == 1)
"#,
        2,
    ),
    (
        "barrier-sb",
        r#"
PTX fig7
{ x = 0; y = 0; z = 0; }
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 | P2@cta 0,gpu 0 ;
st.weak x, 1 | st.weak y, 1 | st.weak z, 1 ;
ld.weak r2, z | bar.cta.sync 1 | ;
bar.cta.sync r2 | ld.weak r1, x | ;
ld.weak r0, y | | ;
forall (P0:r0 == 1 \/ P1:r1 == 1)
"#,
        1,
    ),
    (
        "mp-proxy-fenced",
        r#"
PTX mp-proxy
{ x = 0; flag = 0; s -> x @ surface; }
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
sust s, 1 | ld.acquire.cta r0, flag ;
fence.proxy.surface.cta | fence.proxy.alias.cta ;
st.release.cta flag, 1 | ld.weak r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "mp-proxy-unfenced",
        r#"
PTX mp-proxy-weak
{ x = 0; flag = 0; s -> x @ surface; }
P0@cta 0,gpu 0 | P1@cta 0,gpu 0 ;
sust s, 1 | ld.acquire.cta r0, flag ;
st.release.cta flag, 1 | ld.weak r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "branchy-control-dep",
        r#"
PTX ctrl
{ x = 0; y = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
ld.weak r0, x | ld.weak r1, y ;
beq r0, 0, LC00 | st.weak x, 1 ;
st.weak y, 1 | ;
LC00: | ;
exists (P0:r0 == 1 /\ P1:r1 == 1)
"#,
        1,
    ),
];

const CORPUS_VULKAN: &[(&str, &str, u32)] = &[
    (
        "vk-mp-atomics",
        r#"
VULKAN vk-mp
{ x = 0; flag = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.atom.dv.sc0 x, 1 | ld.atom.acq.dv.sc0 r0, flag ;
st.atom.rel.dv.sc0 flag, 1 | ld.atom.dv.sc0 r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "vk-mp-fences",
        r#"
VULKAN vk-mp-fence
{ x = 0; flag = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1 | ld.atom.dv.sc0 r0, flag ;
membar.rel.dv.semsc0 | membar.acq.dv.semsc0 ;
st.atom.dv.sc0 flag, 1 | ld.sc0 r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "vk-racy-plain",
        r#"
VULKAN vk-race
{ x = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1 | ld.sc0 r0, x ;
exists (P1:r0 == 1)
"#,
        1,
    ),
    (
        "vk-scope-too-narrow",
        r#"
VULKAN vk-scope
{ x = 0; flag = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.atom.wg.sc0 x, 1 | ld.atom.acq.wg.sc0 r0, flag ;
st.atom.rel.wg.sc0 flag, 1 | ld.atom.wg.sc0 r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
    (
        "vk-fig16-rmw",
        r#"
VULKAN fig16
{ x = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 0,qf 0 | P2@sg 0,wg 0,qf 0 ;
st.sc0 x, 1 | cbar.acqrel.semsc0 0 | cbar.acqrel.semsc0 0 ;
cbar.acqrel.semsc0 0 | atom.add.dv.sc0 r0, x, 1 | atom.add.dv.sc0 r0, x, 1 ;
exists (P1:r0 == 1 /\ P2:r0 == 1)
"#,
        1,
    ),
    (
        "vk-storage-classes",
        r#"
VULKAN vk-sc1
{ x = 0; y = 0 @ sc1; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.atom.dv.sc0 x, 1 | ld.atom.acq.dv.sc1 r0, y ;
membar.rel.dv.semsc1 | membar.acq.dv.semsc0 ;
st.atom.dv.sc1 y, 1 | ld.atom.dv.sc0 r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#,
        1,
    ),
];

// ---------------------------------------------------------------------
// Whole-catalog three-arm sweep: for every catalog test × applicable
// model × bounds 1–2, the DPOR verdicts must equal the SAT verdicts,
// and the unrestricted enumerator must agree wherever it completes
// within its cap. Branching/barrier tests the straight-line baseline
// rejects are covered by the DPOR arm alone (DPOR == SAT there).
// ---------------------------------------------------------------------

/// Exploration cap for the exhaustive arms: big enough for every
/// catalog test at bounds 1–2, small enough to cut a pathological
/// blow-up early instead of hanging CI.
const EXPLORE_CAP: u64 = 2_000_000;

struct CheckAllVerdicts {
    reachable: bool,
    expectation: Option<bool>,
    liveness: bool,
    race: Option<bool>,
}

fn check_all_verdicts(
    v: &Verifier,
    program: &gpumc::gpumc_ir::Program,
) -> Result<CheckAllVerdicts, VerifyError> {
    v.check_all(program).map(|o| CheckAllVerdicts {
        reachable: o.assertion.reachable,
        expectation: o.assertion.satisfied_expectation,
        liveness: o.liveness.violated,
        race: o.data_races.map(|d| d.violated),
    })
}

/// One (test, model, bound) cell of the sweep. Returns whether the
/// DPOR arm reached a verdict (capped exploration may withhold one).
fn assert_dpor_sat_agreement(t: &Test, model: ModelKind, bound: u32) -> bool {
    let program = match gpumc::parse_litmus(&t.source) {
        Ok(p) => p,
        Err(e) => panic!("{} does not parse: {e}", t.name),
    };
    let sat = Verifier::new(gpumc_models::load_shared(model)).with_bound(bound);
    let dpor = sat
        .clone()
        .with_engine(EngineKind::Dpor)
        .with_enumeration_cap(EXPLORE_CAP);
    let ctx = format!("{} under {model:?} at bound {bound}", t.name);
    let s = check_all_verdicts(&sat, &program);
    let d = check_all_verdicts(&dpor, &program);
    match (s, d) {
        (Ok(s), Ok(d)) => {
            assert_eq!(
                d.reachable, s.reachable,
                "assertion reachability differs on {ctx} (dpor vs sat)"
            );
            assert_eq!(
                d.expectation, s.expectation,
                "assertion expectation differs on {ctx} (dpor vs sat)"
            );
            assert_eq!(
                d.liveness, s.liveness,
                "liveness verdict differs on {ctx} (dpor vs sat)"
            );
            assert_eq!(
                d.race, s.race,
                "data-race verdict differs on {ctx} (dpor vs sat)"
            );
            // The unrestricted enumerator is the third arm wherever it
            // completes within the cap; straight-line-only rejections
            // and cap blow-ups are expected and skipped.
            let enumerate = sat
                .clone()
                .with_engine(EngineKind::Enumerate {
                    straight_line_only: false,
                })
                .with_enumeration_cap(EXPLORE_CAP);
            match check_all_verdicts(&enumerate, &program) {
                Ok(e) => {
                    assert_eq!(
                        e.reachable, s.reachable,
                        "assertion reachability differs on {ctx} (enum vs sat)"
                    );
                    assert_eq!(
                        e.liveness, s.liveness,
                        "liveness verdict differs on {ctx} (enum vs sat)"
                    );
                    assert_eq!(
                        e.race, s.race,
                        "data-race verdict differs on {ctx} (enum vs sat)"
                    );
                }
                Err(VerifyError::TooComplex(_) | VerifyError::Unsupported(_)) => {}
                Err(e) => panic!("unexpected enumerate failure on {ctx}: {e}"),
            }
            true
        }
        // A capped DPOR exploration withholds its verdict; never wrong.
        (_, Err(VerifyError::Unknown(_) | VerifyError::TooComplex(_))) => false,
        (Err(a), Err(b)) => {
            assert_eq!(
                std::mem::discriminant(&a),
                std::mem::discriminant(&b),
                "error classes differ on {ctx}: sat={a} dpor={b}"
            );
            false
        }
        (Ok(_), Err(e)) => panic!("only the dpor arm fails on {ctx}: {e}"),
        (Err(e), Ok(_)) => panic!("only the sat arm fails on {ctx}: {e}"),
    }
}

/// Sweeps a suite under the given models at bounds 1 and 2, requiring
/// that the DPOR arm reaches a verdict on nearly every configuration —
/// the cap may cut a few pathological cells, but wholesale withholding
/// would make the gate vacuous.
fn sweep_dpor(tests: &[Test], models: &[ModelKind]) {
    // Debug builds take a deterministic subsample to keep `cargo test`
    // fast; the release-mode `dpor-agreement` CI job sweeps everything.
    let stride = if cfg!(debug_assertions) { 4 } else { 1 };
    let mut cells = 0u32;
    let mut answered = 0u32;
    for t in tests.iter().step_by(stride) {
        for &model in models {
            for bound in [1, 2] {
                cells += 1;
                if assert_dpor_sat_agreement(t, model, bound) {
                    answered += 1;
                }
            }
        }
    }
    assert!(
        answered * 10 >= cells * 9,
        "dpor answered only {answered}/{cells} configurations"
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
fn dpor_agrees_with_sat_on_ptx_safety_suite() {
    sweep_dpor(&gpumc_catalog::ptx_safety_suite(), PTX_MODELS);
}

#[test]
fn dpor_agrees_with_sat_on_ptx_proxy_suite() {
    sweep_dpor(&gpumc_catalog::ptx_proxy_suite(), PTX_MODELS);
}

#[test]
fn dpor_agrees_with_sat_on_vulkan_safety_suite() {
    sweep_dpor(&gpumc_catalog::vulkan_safety_suite(), VULKAN_MODELS);
}

#[test]
fn dpor_agrees_with_sat_on_vulkan_drf_suite() {
    sweep_dpor(&gpumc_catalog::vulkan_drf_suite(), VULKAN_MODELS);
}

#[test]
fn dpor_agrees_with_sat_on_liveness_suite() {
    let (ptx, vulkan) = by_arch(gpumc_catalog::liveness_suite());
    sweep_dpor(&ptx, PTX_MODELS);
    sweep_dpor(&vulkan, VULKAN_MODELS);
}

#[test]
fn dpor_agrees_with_sat_on_figure_tests() {
    let (ptx, vulkan) = by_arch(gpumc_catalog::figure_tests());
    sweep_dpor(&ptx, PTX_MODELS);
    sweep_dpor(&vulkan, VULKAN_MODELS);
}

/// The tentpole claim in one test: the straight-line enumeration
/// baseline rejects every branching catalog test, and the DPOR engine
/// handles each of them with SAT-identical verdicts.
#[test]
fn dpor_covers_branching_tests_the_baseline_rejects() {
    let branching: Vec<Test> = gpumc_catalog::figure_tests()
        .into_iter()
        .chain(gpumc_catalog::liveness_suite())
        .filter(|t| t.uses_control_flow)
        .collect();
    assert!(
        !branching.is_empty(),
        "the catalog must contain branching tests"
    );
    let mut covered = 0;
    for t in &branching {
        let model = if t.source.trim_start().starts_with("PTX") {
            ModelKind::Ptx60
        } else {
            ModelKind::Vulkan
        };
        let program = gpumc::parse_litmus(&t.source).unwrap();
        let baseline = Verifier::new(gpumc_models::load_shared(model))
            .with_bound(t.bound.min(2))
            .with_engine(EngineKind::Enumerate {
                straight_line_only: true,
            });
        assert!(
            matches!(
                baseline.check_assertion(&program),
                Err(VerifyError::Unsupported(_))
            ),
            "{}: the straight-line baseline must reject control flow",
            t.name
        );
        if assert_dpor_sat_agreement(t, model, t.bound.min(2)) {
            covered += 1;
        }
    }
    assert!(covered > 0, "dpor must answer at least one branching test");
}

#[test]
fn engines_agree_on_ptx_corpus_v60() {
    for (name, src, bound) in CORPUS_PTX {
        assert_agreement(name, src, ModelKind::Ptx60, *bound);
    }
}

#[test]
fn engines_agree_on_ptx_corpus_v75() {
    for (name, src, bound) in CORPUS_PTX {
        assert_agreement(name, src, ModelKind::Ptx75, *bound);
    }
}

#[test]
fn engines_agree_on_vulkan_corpus() {
    for (name, src, bound) in CORPUS_VULKAN {
        assert_agreement(name, src, ModelKind::Vulkan, *bound);
    }
}
