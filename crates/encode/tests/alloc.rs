//! Allocation gate for the encoder's relation store: building a model
//! node must not allocate per node or per pair.
//!
//! A counting global allocator counts the allocations (and
//! reallocations) of the thread that runs each measurement. The model
//! chains `K` unions `a{k+1} = a{k} | a{k}`, each of which folds to its
//! operand's literal, so the variables and clauses do not depend on `K`;
//! only the number of model nodes does. An encoder that keeps a map per
//! node, or copies one per alias, allocates once or more per link.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpumc_encode::{encode, EncodeOptions};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread shuts down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made on this thread while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const MP: &str = "PTX MP\n{ x = 0; flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | ld.weak r0, flag ;\n\
st.weak flag, 1 | ld.weak r1, x ;\n\
exists (P1:r0 == 1 /\\ P1:r1 == 0)";

/// `a1 = po | rf | co`, then `k - 1` self-unions, flagged when non-empty.
fn chain(k: usize) -> String {
    let mut src = String::from("let a1 = po | rf | co\n");
    for i in 1..k {
        src += &format!("let a{} = a{i} | a{i}\n", i + 1);
    }
    src += &format!("flag ~empty a{k} as f\n");
    src
}

/// Allocations, variables and clauses of encoding MP under [`chain`].
fn encode_chain(k: usize) -> (u64, usize, usize) {
    let p = gpumc_litmus::parse(MP).unwrap();
    let g = gpumc_ir::compile(&gpumc_ir::unroll(&p, 1).unwrap());
    let model = gpumc_cat::parse(&chain(k)).unwrap();
    let opts = EncodeOptions::default();
    let (allocs, enc) = allocations(|| encode(&g, &model, &opts).unwrap());
    (allocs, enc.num_vars(), enc.num_clauses())
}

#[test]
fn model_nodes_do_not_allocate_each() {
    let (short, vars, clauses) = encode_chain(1);
    let (long, long_vars, long_clauses) = encode_chain(64);
    println!(
        "MP under a chain of 1 and 64 unions: {short} and {long} allocations, \
         {vars} variables and {clauses} clauses"
    );
    assert_eq!(
        (vars, clauses),
        (long_vars, long_clauses),
        "the unions fold"
    );
    // A map per node read 175 allocations at K = 1 and 238 at K = 64. The
    // store is sized once per encoding; the margin covers the growth of
    // vectors sized by the node count.
    assert!(
        long <= short + 4,
        "{} more allocations for 63 more model nodes (ceiling 4)",
        long - short
    );
}
