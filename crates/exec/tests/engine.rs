//! Engine-level tests: enumeration + interpretation on hand-built
//! programs against small inline `.cat` models.

use gpumc_exec::{enumerate, enumerate_consistent, Behavior, EnumerateOptions};
use gpumc_ir::*;

/// A minimal "sequential consistency per location" model with atomicity —
/// weak enough to allow classic weak behaviours, strong enough to be a
/// meaningful coherence baseline.
const SC_PER_LOC: &str = r#"
"sc-per-location"
let fr = (rf^-1; co) \ id
acyclic (po & loc) | rf | fr | co as coherence
empty rmw & (fr; co) as atomicity
acyclic rf | addr | data | ctrl as no-thin-air
"#;

/// A fully sequentially consistent model (total order over everything).
/// The `co-total` axiom matters on PTX, where the engine enumerates
/// *partial* coherence orders (§4.1): without it, unordered writes evade
/// the acyclicity and atomicity axioms exactly as in the paper's Fig. 6.
const SC_FULL: &str = r#"
"sc"
let fr = (rf^-1; co) \ id
empty (((W * W) & loc) \ (co | co^-1 | id)) as co-total
acyclic po | rf | fr | co as sc
empty rmw & (fr; co) as atomicity
"#;

fn weak(order: MemOrder) -> AccessAttrs {
    AccessAttrs {
        order,
        ..AccessAttrs::weak()
    }
}

/// Builds the classic message-passing test with plain accesses:
/// P0: x=1; y=1   P1: r0=y; r1=x   exists (r0==1 && r1==0).
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
    p.assertion = Some(Assertion::Exists(Condition::and(
        Condition::reg_eq(1, Reg(0), 1),
        Condition::reg_eq(1, Reg(1), 0),
    )));
    p
}

fn graph_of(p: &Program, bound: u32) -> EventGraph {
    compile(&unroll(p, bound).unwrap())
}

fn behaviors(p: &Program, cat: &str, bound: u32) -> Vec<(bool, bool)> {
    // Returns (all_completed, condition_holds) per consistent behaviour.
    let model = gpumc_cat::parse(cat).unwrap();
    let graph = graph_of(p, bound);
    let cond = p.assertion.as_ref().map(|a| a.condition().clone());
    let mut out = Vec::new();
    enumerate(
        &graph,
        &model,
        &EnumerateOptions::default(),
        |b: &Behavior| {
            let holds = cond
                .as_ref()
                .and_then(|c| b.execution.eval_condition(c))
                .unwrap_or(false);
            out.push((b.execution.all_completed(), holds));
        },
    )
    .unwrap();
    out
}

#[test]
fn mp_weak_allows_stale_read_under_sc_per_location() {
    let p = mp_program();
    let bs = behaviors(&p, SC_PER_LOC, 1);
    assert!(!bs.is_empty());
    // The weak MP behaviour (r0=1, r1=0) must be reachable.
    assert!(bs.iter().any(|&(done, holds)| done && holds));
}

#[test]
fn mp_forbidden_under_full_sc() {
    let p = mp_program();
    let bs = behaviors(&p, SC_FULL, 1);
    assert!(!bs.is_empty());
    assert!(
        bs.iter().all(|&(_, holds)| !holds),
        "SC forbids stale MP read"
    );
}

#[test]
fn sb_allows_both_zero_only_under_weak_model() {
    // Store buffering: P0: x=1; r0=y  P1: y=1; r1=x; exists r0==0 && r1==0.
    let mut p = Program::new(Arch::Ptx);
    p.name = "SB".into();
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let y = p.declare_memory(MemoryDecl::scalar("y"));
    let mut t0 = Thread::new("P0", ThreadPos::ptx(0, 0));
    t0.push(Instruction::store(
        MemRef::scalar(x),
        1u64.into(),
        weak(MemOrder::Weak),
    ));
    t0.push(Instruction::load(
        Reg(0),
        MemRef::scalar(y),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t0);
    let mut t1 = Thread::new("P1", ThreadPos::ptx(1, 0));
    t1.push(Instruction::store(
        MemRef::scalar(y),
        1u64.into(),
        weak(MemOrder::Weak),
    ));
    t1.push(Instruction::load(
        Reg(1),
        MemRef::scalar(x),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t1);
    p.assertion = Some(Assertion::Exists(Condition::and(
        Condition::reg_eq(0, Reg(0), 0),
        Condition::reg_eq(1, Reg(1), 0),
    )));
    let weak_bs = behaviors(&p, SC_PER_LOC, 1);
    assert!(weak_bs.iter().any(|&(_, h)| h), "weak model allows SB");
    let sc_bs = behaviors(&p, SC_FULL, 1);
    assert!(sc_bs.iter().all(|&(_, h)| !h), "SC forbids SB");
}

#[test]
fn coherence_forbids_corr_inversion() {
    // CoRR: P0: x=1; x=2  P1: r0=x; r1=x; exists r0==2 && r1==1.
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
    t1.push(Instruction::load(
        Reg(1),
        MemRef::scalar(x),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t1);
    p.assertion = Some(Assertion::Exists(Condition::and(
        Condition::reg_eq(1, Reg(0), 2),
        Condition::reg_eq(1, Reg(1), 1),
    )));
    let bs = behaviors(&p, SC_PER_LOC, 1);
    // Under sc-per-location with *total* co... co is enumerated partially
    // for PTX, but the coherence axiom with fr still forbids the
    // new-then-old read pair when the writes are co-ordered. The pair can
    // appear when the writes stay unordered (PTX's partial co).
    // Under full SC it is always forbidden.
    let sc = behaviors(&p, SC_FULL, 1);
    assert!(sc.iter().all(|&(_, h)| !h));
    assert!(!bs.is_empty());
}

#[test]
fn atomicity_axiom_enforces_mutex_increment() {
    // Two atomic fetch-and-adds on x must not read the same value.
    let mut p = Program::new(Arch::Ptx);
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    for i in 0..2 {
        let mut t = Thread::new(format!("P{i}"), ThreadPos::ptx(i, 0));
        t.push(Instruction::Rmw {
            dst: Reg(0),
            addr: MemRef::scalar(x),
            op: RmwOp::Add,
            operand: 1u64.into(),
            attrs: AccessAttrs::atomic(MemOrder::Relaxed, Scope::Gpu),
        });
        p.add_thread(t);
    }
    p.assertion = Some(Assertion::Exists(Condition::and(
        Condition::reg_eq(0, Reg(0), 0),
        Condition::reg_eq(1, Reg(0), 0),
    )));
    let model = gpumc_cat::parse(SC_FULL).unwrap();
    let graph = graph_of(&p, 1);
    let cond = p.assertion.as_ref().unwrap().condition().clone();
    let mut both_zero = false;
    let mut any = false;
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        any = true;
        if b.execution.eval_condition(&cond) == Some(true) {
            both_zero = true;
        }
    })
    .unwrap();
    assert!(any);
    assert!(!both_zero, "atomicity forbids both RMWs reading 0");
}

#[test]
fn cas_failure_produces_no_write() {
    // P0: cas x 5 -> 7 (fails: x==0). Final x must be 0 in all behaviours.
    let mut p = Program::new(Arch::Ptx);
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
    t.push(Instruction::Rmw {
        dst: Reg(0),
        addr: MemRef::scalar(x),
        op: RmwOp::Cas {
            expected: 5u64.into(),
        },
        operand: 7u64.into(),
        attrs: AccessAttrs::atomic(MemOrder::Relaxed, Scope::Gpu),
    });
    p.add_thread(t);
    let model = gpumc_cat::parse(SC_FULL).unwrap();
    let graph = graph_of(&p, 1);
    let mut finals = Vec::new();
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        finals.push(b.execution.final_mem(x, 0));
    })
    .unwrap();
    assert!(!finals.is_empty());
    assert!(finals.iter().all(|&v| v == Some(0)));
}

#[test]
fn cas_success_writes() {
    let mut p = Program::new(Arch::Ptx);
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
    t.push(Instruction::Rmw {
        dst: Reg(0),
        addr: MemRef::scalar(x),
        op: RmwOp::Cas {
            expected: 0u64.into(),
        },
        operand: 7u64.into(),
        attrs: AccessAttrs::atomic(MemOrder::Relaxed, Scope::Gpu),
    });
    p.add_thread(t);
    let model = gpumc_cat::parse(SC_FULL).unwrap();
    let graph = graph_of(&p, 1);
    let mut finals = Vec::new();
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        finals.push(b.execution.final_mem(x, 0));
    })
    .unwrap();
    assert_eq!(finals, vec![Some(7)]);
}

#[test]
fn spinloop_liveness_violation_detected() {
    // P0: spins on flag; P1: never sets it => stuck state exists.
    let mut p = Program::new(Arch::Ptx);
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
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let graph = graph_of(&p, 2);
    let mut violation = false;
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        if b.execution.is_liveness_violation() {
            violation = true;
        }
    })
    .unwrap();
    assert!(
        violation,
        "spinning on a never-set flag must be a liveness bug"
    );
}

#[test]
fn spinloop_with_writer_has_no_liveness_violation() {
    // P1 sets the flag; the co-maximal write is 1, so the spin exits.
    let mut p = Program::new(Arch::Ptx);
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
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let graph = graph_of(&p, 2);
    let mut violation = false;
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        if b.execution.is_liveness_violation() {
            violation = true;
        }
    })
    .unwrap();
    assert!(
        !violation,
        "the stuck read cannot be co-maximal once the writer runs"
    );
}

#[test]
fn straight_line_restriction_rejects_loops() {
    let mut p = Program::new(Arch::Ptx);
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let mut t = Thread::new("P0", ThreadPos::ptx(0, 0));
    t.push(Instruction::Label(0));
    t.push(Instruction::load(
        Reg(0),
        MemRef::scalar(x),
        weak(MemOrder::Weak),
    ));
    t.push(Instruction::Branch {
        cmp: CmpOp::Ne,
        a: Operand::Reg(Reg(0)),
        b: Operand::Const(1),
        target: 0,
    });
    p.add_thread(t);
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let graph = graph_of(&p, 2);
    let opts = EnumerateOptions {
        straight_line_only: true,
        ..EnumerateOptions::default()
    };
    let err = enumerate(&graph, &model, &opts, |_| {}).unwrap_err();
    assert!(matches!(err, gpumc_exec::ExploreError::Unsupported(_)));
}

#[test]
fn filter_restricts_behaviours() {
    // MP with filter r0==1: only behaviours where the flag was observed.
    let mut p = mp_program();
    p.filter = Some(Condition::reg_eq(1, Reg(0), 1));
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let graph = graph_of(&p, 1);
    let mut n = 0;
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        assert_eq!(b.execution.final_reg(1, Reg(0)), Some(1));
        n += 1;
    })
    .unwrap();
    assert!(n > 0);
}

#[test]
fn enumerate_consistent_collects() {
    let p = mp_program();
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let graph = graph_of(&p, 1);
    let bs = enumerate_consistent(&graph, &model, &EnumerateOptions::default()).unwrap();
    // 2 reads × 2 writes each = 4 rf combinations, all consistent under
    // sc-per-location for distinct locations; co fixed by single writes.
    assert_eq!(bs.len(), 4);
}

#[test]
fn dependency_cycle_rejected() {
    // LB+data: P0: r0=x; y=r0  P1: r1=y; x=r1. Values out of thin air
    // (r0=r1=1) are unconstructible and must not appear.
    let mut p = Program::new(Arch::Ptx);
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let y = p.declare_memory(MemoryDecl::scalar("y"));
    let mut t0 = Thread::new("P0", ThreadPos::ptx(0, 0));
    t0.push(Instruction::load(
        Reg(0),
        MemRef::scalar(x),
        weak(MemOrder::Weak),
    ));
    t0.push(Instruction::store(
        MemRef::scalar(y),
        Operand::Reg(Reg(0)),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t0);
    let mut t1 = Thread::new("P1", ThreadPos::ptx(1, 0));
    t1.push(Instruction::load(
        Reg(1),
        MemRef::scalar(y),
        weak(MemOrder::Weak),
    ));
    t1.push(Instruction::store(
        MemRef::scalar(x),
        Operand::Reg(Reg(1)),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t1);
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let graph = graph_of(&p, 1);
    let mut nonzero = false;
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        if b.execution.final_reg(0, Reg(0)) != Some(0)
            || b.execution.final_reg(1, Reg(1)) != Some(0)
        {
            nonzero = true;
        }
    })
    .unwrap();
    assert!(!nonzero, "thin-air values must be rejected");
}

#[test]
fn flagged_axiom_reports_race() {
    const RACY: &str = r#"
"race-detector"
let fr = (rf^-1; co) \ id
acyclic (po & loc) | rf | fr | co
let wm = ((W * W) | (W * R) | (R * W)) \ ((IW * _) | (_ * IW))
let dr = (loc & wm & ext) \ (A * A) \ id
flag ~empty dr as race
"#;
    let p = mp_program(); // plain accesses: racy
    let model = gpumc_cat::parse(RACY).unwrap();
    let graph = graph_of(&p, 1);
    let mut raced = false;
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        if b.verdict.has_flag("race") {
            raced = true;
        }
    })
    .unwrap();
    assert!(raced, "plain MP must be flagged racy");
}

#[test]
fn dynamic_array_index_addresses() {
    // P0 writes a[1]; P1 reads a[r], r loaded from idx (=1).
    let mut p = Program::new(Arch::Ptx);
    let a = p.declare_memory(MemoryDecl::array("a", 2));
    let idx = p.declare_memory(MemoryDecl::scalar("idx").with_init(1));
    let mut t0 = Thread::new("P0", ThreadPos::ptx(0, 0));
    t0.push(Instruction::store(
        MemRef::indexed(a, 1u64),
        9u64.into(),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t0);
    let mut t1 = Thread::new("P1", ThreadPos::ptx(1, 0));
    t1.push(Instruction::load(
        Reg(0),
        MemRef::scalar(idx),
        weak(MemOrder::Weak),
    ));
    t1.push(Instruction::load(
        Reg(1),
        MemRef::indexed(a, Reg(0)),
        weak(MemOrder::Weak),
    ));
    p.add_thread(t1);
    p.assertion = Some(Assertion::Exists(Condition::reg_eq(1, Reg(1), 9)));
    let model = gpumc_cat::parse(SC_PER_LOC).unwrap();
    let graph = graph_of(&p, 1);
    let mut seen9 = false;
    enumerate(&graph, &model, &EnumerateOptions::default(), |b| {
        if b.execution.final_reg(1, Reg(1)) == Some(9) {
            seen9 = true;
        }
    })
    .unwrap();
    assert!(seen9, "dynamic index must resolve to a[1]");
}
