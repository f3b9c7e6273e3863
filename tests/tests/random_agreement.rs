//! Differential fuzzing of the engines: on random small programs —
//! including control barriers (`bar`/`cbar`) and conditional branches —
//! three independent implementations must agree on the reachability of
//! every final register value, under every model:
//!
//! 1. the SAT engine answering every property from one encoding
//!    (`Verifier::check_all`, learnt clauses shared across queries),
//! 2. the SAT engine with an encoding of its own per property,
//! 3. the explicit-state enumeration oracle, and
//! 4. the pruned DPOR exploration engine.

use gpumc::{EngineKind, Verifier};
use gpumc_ir::{
    AccessAttrs, Arch, Assertion, CmpOp, Condition, Instruction, LabelId, MemOrder, MemRef,
    MemoryDecl, Operand, Program, Reg, RmwOp, Scope, Thread, ThreadPos,
};
use gpumc_models::ModelKind;
use proptest::prelude::*;

/// A compact instruction descriptor the strategy generates.
#[derive(Debug, Clone)]
enum I {
    Load {
        order: u8,
        loc: u8,
    },
    Store {
        order: u8,
        loc: u8,
        val: u8,
    },
    Add {
        loc: u8,
    },
    Cas {
        loc: u8,
        expected: u8,
        new: u8,
    },
    Fence {
        order: u8,
    },
    /// A control barrier (`bar.sync` / `cbar`), optionally carrying
    /// acquire-release memory semantics.
    Bar {
        with_fence: bool,
    },
    /// A forward conditional branch over the next instruction: compares
    /// the thread's most recent read register against 1.
    SkipNext {
        eq: bool,
    },
}

fn order_of(o: u8, write: bool) -> MemOrder {
    match o % 4 {
        0 => MemOrder::Weak,
        1 => MemOrder::Relaxed,
        2 if write => MemOrder::Release,
        2 => MemOrder::Acquire,
        _ => MemOrder::AcqRel,
    }
}

fn instr_strategy() -> impl Strategy<Value = I> {
    prop_oneof![
        (0u8..4, 0u8..2).prop_map(|(order, loc)| I::Load { order, loc }),
        (0u8..4, 0u8..2, 1u8..3).prop_map(|(order, loc, val)| I::Store { order, loc, val }),
        (0u8..2).prop_map(|loc| I::Add { loc }),
        (0u8..2, 0u8..2, 1u8..3).prop_map(|(loc, expected, new)| I::Cas { loc, expected, new }),
        (1u8..4).prop_map(|order| I::Fence { order }),
        any::<bool>().prop_map(|with_fence| I::Bar { with_fence }),
        any::<bool>().prop_map(|eq| I::SkipNext { eq }),
    ]
}

fn program_strategy() -> impl Strategy<Value = Vec<Vec<I>>> {
    proptest::collection::vec(proptest::collection::vec(instr_strategy(), 1..=3), 2..=2)
}

fn build(arch: Arch, threads: &[Vec<I>]) -> (Program, Vec<(usize, Reg)>) {
    let mut p = Program::new(arch);
    let locs = [
        p.declare_memory(MemoryDecl::scalar("x")),
        p.declare_memory(MemoryDecl::scalar("y")),
    ];
    let mut reads = Vec::new();
    for (ti, instrs) in threads.iter().enumerate() {
        let pos = match arch {
            Arch::Ptx => ThreadPos::ptx(ti as u32, 0),
            Arch::Vulkan => ThreadPos::vulkan(0, ti as u32, 0),
        };
        let scope = Scope::widest(arch);
        let mut th = Thread::new(format!("P{ti}"), pos);
        let mut next_reg = 0u32;
        let mut next_label: LabelId = 0;
        // Labels opened by `SkipNext` branches. Each closes immediately
        // after the following instruction, so every generated branch is
        // strictly forward — no back-edges, and the unrolling bound
        // never truncates these programs.
        let mut open_labels: Vec<LabelId> = Vec::new();
        for i in instrs {
            if let I::SkipNext { eq } = i {
                let l = next_label;
                next_label += 1;
                let a = reads
                    .iter()
                    .rev()
                    .find(|&&(t, _)| t == ti)
                    .map(|&(_, r)| Operand::Reg(r))
                    .unwrap_or(Operand::Const(0));
                th.push(Instruction::Branch {
                    cmp: if *eq { CmpOp::Eq } else { CmpOp::Ne },
                    a,
                    b: Operand::Const(1),
                    target: l,
                });
                open_labels.push(l);
                continue;
            }
            match i {
                I::Load { order, loc } => {
                    let r = Reg(next_reg);
                    next_reg += 1;
                    let order = order_of(*order, false);
                    let attrs = if order.is_atomic() {
                        AccessAttrs::atomic(order, scope)
                    } else {
                        AccessAttrs {
                            nonpriv: arch == Arch::Vulkan,
                            scope,
                            ..AccessAttrs::weak()
                        }
                    };
                    th.push(Instruction::load(
                        r,
                        MemRef::scalar(locs[*loc as usize]),
                        attrs,
                    ));
                    reads.push((ti, r));
                }
                I::Store { order, loc, val } => {
                    let order = order_of(*order, true);
                    let attrs = if order.is_atomic() {
                        AccessAttrs::atomic(order, scope)
                    } else {
                        AccessAttrs {
                            nonpriv: arch == Arch::Vulkan,
                            scope,
                            ..AccessAttrs::weak()
                        }
                    };
                    th.push(Instruction::store(
                        MemRef::scalar(locs[*loc as usize]),
                        Operand::Const(u64::from(*val)),
                        attrs,
                    ));
                }
                I::Add { loc } => {
                    let r = Reg(next_reg);
                    next_reg += 1;
                    th.push(Instruction::Rmw {
                        dst: r,
                        addr: MemRef::scalar(locs[*loc as usize]),
                        op: RmwOp::Add,
                        operand: Operand::Const(1),
                        attrs: AccessAttrs::atomic(MemOrder::AcqRel, scope),
                    });
                    reads.push((ti, r));
                }
                I::Cas { loc, expected, new } => {
                    let r = Reg(next_reg);
                    next_reg += 1;
                    th.push(Instruction::Rmw {
                        dst: r,
                        addr: MemRef::scalar(locs[*loc as usize]),
                        op: RmwOp::Cas {
                            expected: Operand::Const(u64::from(*expected)),
                        },
                        operand: Operand::Const(u64::from(*new)),
                        attrs: AccessAttrs::atomic(MemOrder::Acquire, scope),
                    });
                    reads.push((ti, r));
                }
                I::Fence { order } => {
                    th.push(Instruction::fence(gpumc_ir::FenceAttrs {
                        sem_sc: if arch == Arch::Vulkan { 0b01 } else { 0 },
                        ..gpumc_ir::FenceAttrs::new(order_of(*order, true), scope)
                    }));
                }
                I::Bar { with_fence } => {
                    // `bar.sync 0` (PTX) / `cbar[.acqrel.semsc0] 0` (Vulkan).
                    let bscope = match arch {
                        Arch::Ptx => Scope::Cta,
                        Arch::Vulkan => Scope::Wg,
                    };
                    let fence = with_fence.then(|| {
                        let f = gpumc_ir::FenceAttrs::new(MemOrder::AcqRel, bscope);
                        if arch == Arch::Vulkan {
                            f.with_sem_sc(0b01)
                        } else {
                            f
                        }
                    });
                    th.push(Instruction::Barrier {
                        attrs: gpumc_ir::BarrierAttrs {
                            id: Operand::Const(0),
                            scope: bscope,
                            fence,
                        },
                    });
                }
                I::SkipNext { .. } => unreachable!("handled before the match"),
            }
            for l in open_labels.drain(..) {
                th.push(Instruction::Label(l));
            }
        }
        // A trailing `SkipNext` has nothing left to skip; close its label
        // at the end of the thread so the branch is a no-op.
        for l in open_labels.drain(..) {
            th.push(Instruction::Label(l));
        }
        p.add_thread(th);
    }
    (p, reads)
}

fn check_agreement(arch: Arch, model: ModelKind, threads: &[Vec<I>]) -> Result<(), TestCaseError> {
    let (template, reads) = build(arch, threads);
    // Probe reachability of a few (register, value) outcomes with four
    // independent implementations: `check_all`'s shared encoding, a
    // single-property SAT check, the explicit-state oracle, and the
    // pruned DPOR exploration engine.
    for &(ti, reg) in reads.iter().take(2) {
        for value in [0u64, 1] {
            let mut p = template.clone();
            p.assertion = Some(Assertion::Exists(Condition::reg_eq(ti, reg, value)));
            let sat = Verifier::new(gpumc_models::load(model))
                .with_bound(1)
                .check_assertion(&p)
                .expect("sat engine");
            let incr = Verifier::new(gpumc_models::load(model))
                .with_bound(1)
                .check_all(&p)
                .expect("sat engine, check_all");
            let enumr = match Verifier::new(gpumc_models::load(model))
                .with_bound(1)
                .with_engine(EngineKind::Enumerate {
                    straight_line_only: false,
                })
                .with_enumeration_cap(500_000)
                .check_assertion(&p)
            {
                Ok(o) => o,
                // Too many candidate behaviours for the oracle: skip.
                Err(gpumc::VerifyError::TooComplex(_)) => continue,
                Err(e) => panic!("enumeration engine: {e}"),
            };
            let dpor = match Verifier::new(gpumc_models::load(model))
                .with_bound(1)
                .with_engine(EngineKind::Dpor)
                .with_enumeration_cap(500_000)
                .check_assertion(&p)
            {
                Ok(o) => o,
                // Step budget exhausted: the engine withholds a verdict.
                Err(gpumc::VerifyError::TooComplex(_) | gpumc::VerifyError::Unknown(_)) => continue,
                Err(e) => panic!("dpor engine: {e}"),
            };
            prop_assert_eq!(
                dpor.reachable,
                sat.reachable,
                "SAT and dpor disagree on P{}:r{} == {} under {:?}\nprogram: {:?}",
                ti,
                reg.0,
                value,
                model,
                threads
            );
            prop_assert_eq!(
                sat.reachable,
                enumr.reachable,
                "SAT and enumeration disagree on P{}:r{} == {} under {:?}\nprogram: {:?}",
                ti,
                reg.0,
                value,
                model,
                threads
            );
            prop_assert_eq!(
                incr.assertion.reachable,
                sat.reachable,
                "check_all and check_assertion disagree on P{}:r{} == {} under {:?}\nprogram: {:?}",
                ti,
                reg.0,
                value,
                model,
                threads
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_agree_on_random_ptx_programs(threads in program_strategy()) {
        check_agreement(Arch::Ptx, ModelKind::Ptx60, &threads)?;
    }

    #[test]
    fn engines_agree_on_random_vulkan_programs(threads in program_strategy()) {
        check_agreement(Arch::Vulkan, ModelKind::Vulkan, &threads)?;
    }
}
