//! Allocation micro-benchmark for the DPOR hot path.
//!
//! The candidate-validation stage used to defensively clone every `Val`
//! expression before evaluating it (`ctx.eval(&v.clone())`) and cloned
//! each block terminator on every tree visit; this bench counts heap
//! allocations per explored candidate with a counting global allocator
//! so the fix is measurable independent of wall-clock noise and of the
//! parallel-exploration work built on top of it.
//!
//! Run with: `cargo bench -p gpumc-exec --bench dpor_alloc`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, Criterion};
use gpumc_exec::{dpor_explore, DporOptions, DporStats};
use gpumc_ir::{
    compile, unroll, AccessAttrs, AluOp, Arch, CmpOp, EventGraph, Instruction, MemOrder, MemRef,
    MemoryDecl, Operand, Program, Reg, Thread, ThreadPos,
};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SC_PER_LOC: &str = r#"
"sc-per-location"
let fr = (rf^-1; co) \ id
acyclic (po & loc) | rf | fr | co as coherence
empty rmw & (fr; co) as atomicity
acyclic rf | addr | data | ctrl as no-thin-air
"#;

fn weak() -> AccessAttrs {
    AccessAttrs {
        order: MemOrder::Weak,
        ..AccessAttrs::weak()
    }
}

/// A guarded message-passing shape whose stored values and branch
/// guards are compound (`Val::Bin`) expressions — exactly the values
/// the old code cloned (boxed nodes, so every clone allocated) before
/// each evaluation.
fn guarded_mp() -> Program {
    let mut p = Program::new(Arch::Ptx);
    p.name = "guarded-mp".into();
    let x = p.declare_memory(MemoryDecl::scalar("x"));
    let y = p.declare_memory(MemoryDecl::scalar("y"));
    let mut t0 = Thread::new("P0", ThreadPos::ptx(0, 0));
    t0.push(Instruction::store(MemRef::scalar(x), 1u64.into(), weak()));
    t0.push(Instruction::load(Reg(0), MemRef::scalar(x), weak()));
    // A deep ALU chain: the stored value becomes a `Val::Bin` tree with
    // one boxed node per link, so one defensive clone of it costs many
    // heap allocations.
    t0.push(Instruction::Alu {
        dst: Reg(1),
        op: AluOp::Add,
        a: Operand::Reg(Reg(0)),
        b: Operand::Const(1),
    });
    for _ in 0..7 {
        t0.push(Instruction::Alu {
            dst: Reg(1),
            op: AluOp::Add,
            a: Operand::Reg(Reg(1)),
            b: Operand::Const(0),
        });
    }
    t0.push(Instruction::store(
        MemRef::scalar(y),
        Operand::Reg(Reg(1)),
        weak(),
    ));
    p.add_thread(t0);
    let mut t1 = Thread::new("P1", ThreadPos::ptx(1, 0));
    t1.push(Instruction::Label(0));
    t1.push(Instruction::load(Reg(0), MemRef::scalar(y), weak()));
    t1.push(Instruction::Alu {
        dst: Reg(1),
        op: AluOp::Add,
        a: Operand::Reg(Reg(0)),
        b: Operand::Const(1),
    });
    for _ in 0..7 {
        t1.push(Instruction::Alu {
            dst: Reg(1),
            op: AluOp::Add,
            a: Operand::Reg(Reg(1)),
            b: Operand::Const(0),
        });
    }
    t1.push(Instruction::Branch {
        cmp: CmpOp::Ne,
        a: Operand::Reg(Reg(1)),
        b: Operand::Const(3),
        target: 0,
    });
    // A computed element index (`r0 & 0`): the address expression is
    // compound too, which the old code cloned once per event per
    // candidate while resolving addresses.
    t1.push(Instruction::Alu {
        dst: Reg(2),
        op: AluOp::And,
        a: Operand::Reg(Reg(0)),
        b: Operand::Const(0),
    });
    t1.push(Instruction::load(
        Reg(3),
        MemRef::indexed(x, Reg(2)),
        weak(),
    ));
    p.add_thread(t1);
    p
}

fn bench_graph() -> EventGraph {
    compile(&unroll(&guarded_mp(), 2).expect("unrolls"))
}

fn explore_counting(g: &EventGraph) -> (u64, DporStats) {
    let model = gpumc_cat::parse(SC_PER_LOC).expect("model parses");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = dpor_explore(g, &model, &DporOptions::default(), |b| {
        black_box(b.execution.leaf.len());
    })
    .expect("exploration within caps");
    (ALLOCATIONS.load(Ordering::Relaxed) - before, stats)
}

fn bench_dpor_explore(c: &mut Criterion) {
    let g = bench_graph();
    let model = gpumc_cat::parse(SC_PER_LOC).expect("model parses");
    c.bench_function("dpor/guarded-mp-bound-2", |b| {
        b.iter(|| {
            dpor_explore(&g, &model, &DporOptions::default(), |bh| {
                black_box(bh.execution.leaf.len());
            })
            .expect("exploration within caps")
        })
    });
}

criterion_group!(benches, bench_dpor_explore);

fn main() {
    benches();

    // Allocation count per explored candidate. This program reads 266
    // allocations for its 9 candidates, 29.6 per candidate: the
    // candidate stage completes and checks each one in reused buffers.
    // Defensive `Val` clones once cost ten times that. The ceiling of 45
    // is about one and a half times today's reading.
    let g = bench_graph();
    let (allocs, stats) = explore_counting(&g);
    assert!(stats.explored > 0, "bench program explored no candidates");
    let per_candidate = allocs as f64 / stats.explored as f64;
    println!(
        "dpor/guarded-mp-bound-2: {allocs} allocations / {} candidates = {per_candidate:.1} per candidate",
        stats.explored
    );
    const PER_CANDIDATE_CEILING: f64 = 45.0;
    assert!(
        per_candidate < PER_CANDIDATE_CEILING,
        "allocation regression: {per_candidate:.1} allocations per explored candidate \
         (ceiling {PER_CANDIDATE_CEILING})"
    );
}
