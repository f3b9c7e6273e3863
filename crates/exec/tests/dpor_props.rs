//! DPOR engine tests: footprint equivalence against the enumeration
//! engine, prune soundness, and deterministic exploration counts.
//!
//! The key invariant is *exactness*: over the set of consistent
//! behaviours — identified by their footprint `(X, rf, co, sync_fence)`
//! — the pruned DPOR engine and the enumeration engine, its unpruned
//! reference, must agree, and DPOR must check no more candidates.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

use gpumc_cat::CatModel;
use gpumc_exec::{
    dpor_explore, dpor_explore_interruptible, enumerate, BaseInterpretation, DporOptions,
    DporStats, EnumerateOptions, Execution, ExploreError,
};
use gpumc_ir::*;
use proptest::prelude::*;

const SC_PER_LOC: &str = r#"
"sc-per-location"
let fr = (rf^-1; co) \ id
acyclic (po & loc) | rf | fr | co as coherence
empty rmw & (fr; co) as atomicity
acyclic rf | addr | data | ctrl as no-thin-air
"#;

const SC_FULL: &str = r#"
"sc"
let fr = (rf^-1; co) \ id
empty (((W * W) & loc) \ (co | co^-1 | id)) as co-total
acyclic po | rf | fr | co as sc
empty rmw & (fr; co) as atomicity
"#;

/// A model that constrains the runtime `sync_fence` order: the chosen
/// total order over SC fences must embed into program order. Exercises
/// the sleep-set linearizer and the monotone-axiom co/fence pruning.
const SC_FENCED: &str = r#"
"sc-fenced"
let fr = (rf^-1; co) \ id
acyclic (po & loc) | rf | fr | co as coherence
acyclic po | sync_fence as fence-po
acyclic rf | fr | co | sync_fence | (po; sync_fence; po) as fenced-sc
"#;

fn weak(order: MemOrder) -> AccessAttrs {
    AccessAttrs {
        order,
        ..AccessAttrs::weak()
    }
}

fn graph_of(p: &Program, bound: u32) -> EventGraph {
    compile(&unroll(p, bound).unwrap())
}

/// The identity of a behaviour: executed events, reads-from (restricted
/// to executed reads), coherence edges, and the runtime SC-fence order
/// as seen by the model (`sync_fence`, empty on Vulkan).
type Footprint = (Vec<u32>, Vec<(u32, u32)>, Vec<(u32, u32)>, Vec<(u32, u32)>);

fn footprint(x: &Execution<'_>) -> Footprint {
    let executed: Vec<u32> = x.executed.iter().map(|e| e.0).collect();
    let mut rf: Vec<(u32, u32)> =
        x.rf.iter()
            .enumerate()
            .filter_map(|(r, w)| w.map(|w| (w.0, r as u32)))
            .filter(|&(_, r)| x.executed.contains(EventId(r)))
            .collect();
    rf.sort_unstable();
    let mut co: Vec<(u32, u32)> = x.co.iter().map(|(a, b)| (a.0, b.0)).collect();
    co.sort_unstable();
    let base = BaseInterpretation::compute(x);
    let mut sf: Vec<(u32, u32)> = base
        .rel("sync_fence")
        .map(|r| r.iter().map(|(a, b)| (a.0, b.0)).collect())
        .unwrap_or_default();
    sf.sort_unstable();
    (executed, rf, co, sf)
}

fn dpor_footprints(g: &EventGraph, model: &CatModel) -> (BTreeSet<Footprint>, DporStats) {
    let mut out = BTreeSet::new();
    let stats = dpor_explore(g, model, &DporOptions::default(), |b| {
        out.insert(footprint(&b.execution));
    })
    .expect("dpor within caps");
    (out, stats)
}

/// The enumerator's consistent footprints and its candidate count.
fn enum_footprints(g: &EventGraph, model: &CatModel) -> (BTreeSet<Footprint>, u64) {
    let mut out = BTreeSet::new();
    let stats = enumerate(g, model, &EnumerateOptions::default(), |b| {
        out.insert(footprint(&b.execution));
    })
    .expect("enumerate within caps");
    (out, stats.candidates)
}

/// Asserts that DPOR visits the enumerator's footprints in no more
/// candidates, and returns the DPOR stats.
fn assert_equivalent(g: &EventGraph, cat: &str) -> DporStats {
    let model = gpumc_cat::parse(cat).unwrap();
    let (reference, candidates) = enum_footprints(g, &model);
    let (pruned, stats) = dpor_footprints(g, &model);
    assert_eq!(pruned, reference, "pruned dpor != enumerate");
    assert!(
        stats.explored <= candidates,
        "pruning must not explore more candidates: {stats:?} vs {candidates}"
    );
    stats
}

// ---------------------------------------------------------------------
// Hand-built programs.
// ---------------------------------------------------------------------

fn mp_program() -> Program {
    let mut p = Program::new(Arch::Ptx);
    p.name = "MP".into();
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let y = p.declare_memory(MemoryDecl::scalar("y"));
    let mut t0 = Thread::new("P0", ThreadPos::ptx(0, 0));
    t0.push(Instruction::store(
        MemRef::scalar(x),
        1u64.into(),
        weak(MemOrder::Weak),
    ));
    t0.push(Instruction::store(
        MemRef::scalar(y),
        1u64.into(),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t0);
    let mut t1 = Thread::new("P1", ThreadPos::ptx(1, 0));
    t1.push(Instruction::load(
        Reg(0),
        MemRef::scalar(y),
        weak(MemOrder::Weak),
    ));
    t1.push(Instruction::load(
        Reg(1),
        MemRef::scalar(x),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t1);
    p
}

/// Store buffering with an SC fence between the store and the load on
/// each thread — two SC fences on distinct threads, so the fence order
/// is a genuine runtime choice.
fn sb_fenced_program(scope: Scope) -> Program {
    let mut p = Program::new(Arch::Ptx);
    p.name = "SB+fences".into();
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let y = p.declare_memory(MemoryDecl::scalar("y"));
    for (i, (w, r)) in [(x, y), (y, x)].into_iter().enumerate() {
        let mut t = Thread::new(format!("P{i}"), ThreadPos::ptx(i as u32, 0));
        t.push(Instruction::store(
            MemRef::scalar(w),
            1u64.into(),
            weak(MemOrder::Weak),
        ));
        t.push(Instruction::fence(FenceAttrs::new(MemOrder::Sc, scope)));
        t.push(Instruction::load(
            Reg(0),
            MemRef::scalar(r),
            weak(MemOrder::Weak),
        ));
        p.add_thread(t);
    }
    p
}

/// A branching program the straight-line enumeration baseline rejects:
/// P0 spins on `flag`; P1 sets it.
fn spin_program() -> Program {
    let mut p = Program::new(Arch::Ptx);
    p.name = "spin".into();
    let flag = p.declare_memory(MemoryDecl::scalar("flag"));
    let mut t0 = Thread::new("P0", ThreadPos::ptx(0, 0));
    t0.push(Instruction::Label(0));
    t0.push(Instruction::load(
        Reg(0),
        MemRef::scalar(flag),
        weak(MemOrder::Weak),
    ));
    t0.push(Instruction::Branch {
        cmp: CmpOp::Ne,
        a: Operand::Reg(Reg(0)),
        b: Operand::Const(1),
        target: 0,
    });
    p.add_thread(t0);
    let mut t1 = Thread::new("P1", ThreadPos::ptx(1, 0));
    t1.push(Instruction::store(
        MemRef::scalar(flag),
        1u64.into(),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t1);
    p
}

#[test]
fn dpor_matches_enumerate_on_mp() {
    let p = mp_program();
    for cat in [SC_PER_LOC, SC_FULL] {
        let g = graph_of(&p, 1);
        let stats = assert_equivalent(&g, cat);
        assert!(stats.consistent > 0, "MP must have consistent behaviours");
    }
}

#[test]
fn dpor_matches_enumerate_on_coherence_and_rmw() {
    // CoRR (two same-location writes against two reads) plus an
    // atomic fetch-add on a third thread: exercises partial-co
    // enumeration, co pruning, and failed/successful RMW writes.
    let mut p = Program::new(Arch::Ptx);
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let mut t0 = Thread::new("P0", ThreadPos::ptx(0, 0));
    t0.push(Instruction::store(
        MemRef::scalar(x),
        1u64.into(),
        weak(MemOrder::Weak),
    ));
    t0.push(Instruction::store(
        MemRef::scalar(x),
        2u64.into(),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t0);
    let mut t1 = Thread::new("P1", ThreadPos::ptx(1, 0));
    t1.push(Instruction::load(
        Reg(0),
        MemRef::scalar(x),
        weak(MemOrder::Weak),
    ));
    t1.push(Instruction::Rmw {
        dst: Reg(1),
        addr: MemRef::scalar(x),
        op: RmwOp::Cas {
            expected: 1u64.into(),
        },
        operand: 9u64.into(),
        attrs: AccessAttrs::atomic(MemOrder::Relaxed, Scope::Gpu),
    });
    p.add_thread(t1);
    for cat in [SC_PER_LOC, SC_FULL] {
        let g = graph_of(&p, 1);
        assert_equivalent(&g, cat);
    }
}

#[test]
fn dpor_matches_enumerate_on_fenced_sb() {
    for scope in [Scope::Gpu, Scope::Cta] {
        let p = sb_fenced_program(scope);
        let g = graph_of(&p, 1);
        let stats = assert_equivalent(&g, SC_FENCED);
        assert!(stats.consistent > 0);
    }
}

#[test]
fn sleep_sets_prune_commuting_fences() {
    // CTA-scoped fences on different CTAs are not sr-related: the two
    // linearizations induce the same (empty) sync_fence, and the sleep
    // set must visit only one of them.
    let p = sb_fenced_program(Scope::Cta);
    let g = graph_of(&p, 1);
    let model = gpumc_cat::parse(SC_FENCED).unwrap();
    let (_, stats) = dpor_footprints(&g, &model);
    assert!(
        stats.pruned_fence > 0,
        "commuting SC fences must be sleep-set pruned, stats: {stats:?}"
    );
}

#[test]
fn dpor_accepts_branching_program_enumerate_rejects() {
    let p = spin_program();
    let g = graph_of(&p, 2);
    // The straight-line baseline rejects the loop outright...
    let opts = EnumerateOptions {
        straight_line_only: true,
        ..EnumerateOptions::default()
    };
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let err = enumerate(&g, &model, &opts, |_| {}).unwrap_err();
    assert!(matches!(err, ExploreError::Unsupported(_)));
    // ...while DPOR explores it and agrees with the unrestricted
    // enumerator, including the path-pruned descent.
    let stats = assert_equivalent(&g, SC_PER_LOC);
    assert!(stats.consistent > 0);
    assert!(
        stats.pruned_rf + stats.pruned_paths > 0,
        "branchy spin program should trigger rf or path pruning: {stats:?}"
    );
}

#[test]
fn dpor_stats_are_deterministic() {
    let p = spin_program();
    let g = graph_of(&p, 2);
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let (f1, s1) = dpor_footprints(&g, &model);
    let (f2, s2) = dpor_footprints(&g, &model);
    assert_eq!(s1, s2, "same input must explore identically");
    assert_eq!(f1, f2);
}

#[test]
fn dpor_budget_exhaustion_is_interrupted() {
    let p = mp_program();
    let g = graph_of(&p, 1);
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let opts = DporOptions { max_steps: 3 };
    let err = dpor_explore(&g, &model, &opts, |_| {}).unwrap_err();
    assert!(matches!(err, ExploreError::Interrupted(_)));
}

// ---------------------------------------------------------------------
// Early exit: a visitor's `Break` ends the search at that behaviour.
// ---------------------------------------------------------------------

#[test]
fn break_on_the_first_behaviour_ends_the_search() {
    let programs = [
        (mp_program(), 1, SC_PER_LOC),
        (mp_program(), 1, SC_FULL),
        (sb_fenced_program(Scope::Gpu), 1, SC_FENCED),
        (spin_program(), 2, SC_PER_LOC),
    ];
    for (p, bound, cat) in programs {
        let g = graph_of(&p, bound);
        let model = gpumc_cat::parse(cat).unwrap();
        let mut first: Option<Footprint> = None;
        let exhaustive = dpor_explore(&g, &model, &DporOptions::default(), |b| {
            first.get_or_insert_with(|| footprint(&b.execution));
        })
        .expect("dpor within caps");
        let mut seen = Vec::new();
        let stopped = dpor_explore_interruptible(&g, &model, &DporOptions::default(), None, |b| {
            seen.push(footprint(&b.execution));
            ControlFlow::Break(())
        })
        .expect("an early stop is not an error");
        assert_eq!(seen.len(), 1, "{}: Break must end the search", p.name);
        assert_eq!(
            seen.first(),
            first.as_ref(),
            "{}: the stopped run must end at the exhaustive run's first behaviour",
            p.name
        );
        assert_eq!(stopped.consistent, 1, "{}", p.name);
        assert!(
            stopped.explored <= exhaustive.explored,
            "{}: stopped {stopped:?} vs exhaustive {exhaustive:?}",
            p.name
        );
    }
}

// ---------------------------------------------------------------------
// Randomized prune-soundness.
// ---------------------------------------------------------------------

/// A tiny instruction descriptor for random programs (modeled on the
/// cross-crate differential generator, kept local to the exec crate).
#[derive(Debug, Clone)]
enum I {
    Load { loc: u8 },
    Store { loc: u8, val: u8 },
    Cas { loc: u8, expected: u8, new: u8 },
    FenceSc,
    SkipNext { eq: u8 },
}

fn instr_strategy() -> impl Strategy<Value = I> {
    prop_oneof![
        (0u8..2).prop_map(|loc| I::Load { loc }),
        (0u8..2, 1u8..3).prop_map(|(loc, val)| I::Store { loc, val }),
        (0u8..2, 0u8..2, 1u8..3).prop_map(|(loc, expected, new)| I::Cas { loc, expected, new }),
        Just(I::FenceSc),
        (0u8..2).prop_map(|eq| I::SkipNext { eq }),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<I>>> {
    proptest::collection::vec(proptest::collection::vec(instr_strategy(), 1..=3), 2..=2)
}

fn build(threads: &[Vec<I>]) -> Program {
    let mut p = Program::new(Arch::Ptx);
    p.name = "random".into();
    let locs = [
        p.declare_memory(MemoryDecl::scalar("x")),
        p.declare_memory(MemoryDecl::scalar("y")),
    ];
    for (ti, instrs) in threads.iter().enumerate() {
        let mut t = Thread::new(format!("P{ti}"), ThreadPos::ptx(ti as u32, 0));
        let mut reg = 0u32;
        let mut next_label = ti as u32 * 100;
        let mut skip_open: Option<u32> = None;
        for i in instrs {
            match i {
                I::Load { loc } => {
                    t.push(Instruction::load(
                        Reg(reg),
                        MemRef::scalar(locs[*loc as usize]),
                        weak(MemOrder::Weak),
                    ));
                    reg += 1;
                }
                I::Store { loc, val } => {
                    // Data-dependent value when a register is live: feeds
                    // the thin-air value-cycle prune.
                    let v: Operand = if reg > 0 && *val == 2 {
                        Operand::Reg(Reg(reg - 1))
                    } else {
                        u64::from(*val).into()
                    };
                    t.push(Instruction::store(
                        MemRef::scalar(locs[*loc as usize]),
                        v,
                        weak(MemOrder::Weak),
                    ));
                }
                I::Cas { loc, expected, new } => {
                    t.push(Instruction::Rmw {
                        dst: Reg(reg),
                        addr: MemRef::scalar(locs[*loc as usize]),
                        op: RmwOp::Cas {
                            expected: u64::from(*expected).into(),
                        },
                        operand: u64::from(*new).into(),
                        attrs: AccessAttrs::atomic(MemOrder::Relaxed, Scope::Gpu),
                    });
                    reg += 1;
                }
                I::FenceSc => {
                    t.push(Instruction::fence(FenceAttrs::new(
                        MemOrder::Sc,
                        Scope::Gpu,
                    )));
                }
                I::SkipNext { eq } => {
                    if reg == 0 || skip_open.is_some() {
                        continue;
                    }
                    // Forward branch over the next instruction, guarded on
                    // the last loaded value: a genuinely branching program.
                    t.push(Instruction::Branch {
                        cmp: CmpOp::Eq,
                        a: Operand::Reg(Reg(reg - 1)),
                        b: Operand::Const(u64::from(*eq)),
                        target: next_label,
                    });
                    skip_open = Some(next_label);
                    next_label += 1;
                    continue;
                }
            }
            if let Some(label) = skip_open.take() {
                t.push(Instruction::Label(label));
            }
        }
        if let Some(label) = skip_open.take() {
            t.push(Instruction::Label(label));
        }
        p.add_thread(t);
    }
    p
}

/// Whether the program gives each prune something to cut, in
/// [`DporStats`] field order: a read for `pruned_rf`, a branch for
/// `pruned_paths`, a location written twice for `pruned_co`, and two SC
/// fences for `pruned_fence`.
fn prune_sites(p: &Program) -> [(&'static str, bool); 4] {
    let mut reads = false;
    let mut branches = false;
    let mut writes: BTreeMap<LocId, u32> = BTreeMap::new();
    let mut sc_fences = 0;
    for i in p.threads.iter().flat_map(|t| &t.instructions) {
        match i {
            Instruction::Load { .. } => reads = true,
            Instruction::Store { addr, .. } => *writes.entry(addr.loc).or_default() += 1,
            Instruction::Rmw { addr, .. } => {
                reads = true;
                *writes.entry(addr.loc).or_default() += 1;
            }
            Instruction::Fence { attrs } if attrs.order == MemOrder::Sc => sc_fences += 1,
            Instruction::Branch { .. } => branches = true,
            _ => {}
        }
    }
    [
        ("rf", reads),
        ("paths", branches),
        ("co", writes.values().any(|&n| n >= 2)),
        ("fence", sc_fences >= 2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Prune soundness: over random small programs, branching ones
    /// included, DPOR visits the enumerator's consistent footprints in
    /// no more candidates, and a second run explores identically.
    #[test]
    fn prune_soundness_random_programs(threads in program_strategy()) {
        let p = build(&threads);
        for cat in [SC_PER_LOC, SC_FENCED] {
            let model = gpumc_cat::parse(cat).unwrap();
            let g = graph_of(&p, 2);
            let (pruned, s1) = dpor_footprints(&g, &model);
            let (reference, candidates) = enum_footprints(&g, &model);
            prop_assert_eq!(&pruned, &reference, "dpor != enumerate under {}", cat);
            prop_assert!(s1.explored <= candidates, "{:?} vs {} under {}", s1, candidates, cat);
            let (again, s2) = dpor_footprints(&g, &model);
            prop_assert_eq!(&again, &pruned);
            prop_assert_eq!(s1, s2);
        }
    }

    /// Each prune on its own counter: it cuts only where the program
    /// gives it a choice, it cuts as much on a repeated run, and the
    /// behaviours DPOR keeps are the enumerator's.
    #[test]
    fn individual_prunes_sound_and_deterministic(threads in program_strategy()) {
        let p = build(&threads);
        let model = gpumc_cat::parse(SC_FENCED).unwrap();
        let g = graph_of(&p, 1);
        let (reference, _) = enum_footprints(&g, &model);
        let (got, s1) = dpor_footprints(&g, &model);
        let (_, s2) = dpor_footprints(&g, &model);
        let cuts = [
            (s1.pruned_rf, s2.pruned_rf),
            (s1.pruned_paths, s2.pruned_paths),
            (s1.pruned_co, s2.pruned_co),
            (s1.pruned_fence, s2.pruned_fence),
        ];
        for ((name, site), (first, again)) in prune_sites(&p).into_iter().zip(cuts) {
            prop_assert_eq!(first, again, "prune {} cut differently on a repeated run", name);
            prop_assert!(site || first == 0, "prune {} cut {} with nothing to choose", name, first);
        }
        prop_assert_eq!(&got, &reference, "prunes changed behaviours, stats {:?}", s1);
    }
}
