//! Allocation gate for the clause path: adding clauses, building gates
//! and learning clauses must not allocate per clause, per gate or per
//! conflict.
//!
//! A counting global allocator counts the allocations (and reallocations)
//! of the thread that runs each measurement. Variables are created first,
//! so what remains is the amortized growth of the clause arena, the watch
//! lists and the per-variable arrays: with many clauses over few
//! variables, each watch list grows logarithmically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpumc_sat::bv::BitVec;
use gpumc_sat::{Dirs, Formula, Lit, Solver};

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

/// A xorshift generator, so every run adds the same clauses.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn lit(&mut self, vars: &[Lit]) -> Lit {
        let l = vars[self.below(vars.len())];
        if self.below(2) == 0 {
            l
        } else {
            !l
        }
    }
}

const VARS: usize = 48;
const ROUNDS: usize = 2_000;

#[test]
fn clauses_and_gates_do_not_allocate_each() {
    let mut f = Formula::new();
    let vars: Vec<Lit> = (0..VARS).map(|_| f.new_lit()).collect();
    let _ = f.lit_true();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut clause = Vec::with_capacity(4);
    let mut inputs = Vec::with_capacity(4);
    // Each round adds one 2–4-literal clause and one gate: an n-ary
    // `and` or `or` (a fresh output every time), a hash-consed `iff`, an
    // `ite` over the first variables, or a directional gate: one
    // direction of an n-ary `or`, a lower `or_of_ands_lower`,
    // or a lower `and2` asked again for both directions, which adds the
    // upper clauses to the same literal.
    let (allocs, ()) = allocations(|| {
        for round in 0..ROUNDS {
            clause.clear();
            for _ in 0..2 + rng.below(3) {
                clause.push(rng.lit(&vars));
            }
            f.add_clause(clause.iter().copied());
            inputs.clear();
            for _ in 0..2 + rng.below(3) {
                inputs.push(rng.lit(&vars));
            }
            let _ = match round % 8 {
                0 => f.and(&inputs),
                1 => f.or(&inputs),
                2 => f.iff(inputs[0], inputs[1]),
                3 => f.ite(inputs[0], inputs[1], rng.lit(&vars)),
                4 => f.or_dirs(&inputs, Dirs::LOWER),
                5 => f.or_dirs(&inputs, Dirs::UPPER),
                6 => f.or_of_ands_lower(&[(inputs[0], inputs[1]), (inputs[1], rng.lit(&vars))]),
                _ => {
                    let _ = f.and2_dirs(inputs[0], inputs[1], Dirs::LOWER);
                    f.and2(inputs[0], inputs[1])
                }
            };
        }
    });
    let clauses = f.solver().num_clauses();
    let per_round = allocs as f64 / ROUNDS as f64;
    println!(
        "{ROUNDS} clauses and gates ({clauses} clauses in all): {allocs} allocations, \
         {per_round:.2} per round"
    );
    // Each round adds about 2.7 clauses. Keeping every clause in its own
    // vector, with two more vectors per `and`/`or` gate, read 8,112
    // allocations (4.06 per round) over full gates only; the clause arena
    // reads 1,395 (0.70) with the directional gates in the mix: the watch
    // lists of the gates' fresh outputs, and amortized growth.
    assert!(
        per_round < 1.2,
        "{per_round:.2} allocations per clause-and-gate round (ceiling 1.2)"
    );
}

#[test]
fn bit_vector_compares_do_not_allocate_each() {
    let mut f = Formula::new();
    let x = BitVec::fresh(&mut f, 8);
    let c = BitVec::constant(&mut f, 8, 42);
    // Compares that fold to a constant make no gate, so what is left is
    // the per-bit buffer. The first round fills the `iff` cache.
    let _ = (x.eq(&mut f, &x), c.eq_const(&mut f, 42));
    let (allocs, ()) = allocations(|| {
        for round in 0..ROUNDS {
            let _ = x.eq(&mut f, &x);
            let _ = c.eq_const(&mut f, round as u64);
        }
    });
    println!("{ROUNDS} rounds of two folded bit-vector compares: {allocs} allocations");
    // A fresh vector of per-bit literals per compare read one allocation
    // each, 2 per round.
    assert_eq!(allocs, 0, "folded bit-vector compares allocated");
}

/// `n` pigeons into `n - 1` holes: unsatisfiable, and hard enough for
/// thousands of conflicts.
fn pigeonhole(n: usize) -> Solver {
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> = (0..n)
        .map(|_| (0..n - 1).map(|_| s.new_lit()).collect())
        .collect();
    for row in &p {
        s.add_clause(row.iter().copied());
    }
    for (i, row) in p.iter().enumerate() {
        for other in &p[i + 1..] {
            for (&a, &b) in row.iter().zip(other) {
                s.add_clause([!a, !b]);
            }
        }
    }
    s
}

#[test]
fn conflicts_do_not_allocate_each() {
    let mut s = pigeonhole(7);
    let (allocs, unsat) = allocations(|| s.solve().is_unsat());
    assert!(unsat, "pigeonhole is unsatisfiable");
    let conflicts = s.stats().conflicts;
    let per_conflict = allocs as f64 / conflicts as f64;
    println!(
        "pigeonhole 7 into 6: {allocs} allocations over {conflicts} conflicts, \
         {per_conflict:.3} per conflict"
    );
    // A learnt clause in its own vector, with fresh analysis and glue
    // buffers, read 10,074 allocations (9.37 per conflict); reused
    // buffers and the clause arena read 347 (0.32), the amortized growth
    // of the watch lists and the arena.
    assert!(
        per_conflict < 1.0,
        "{per_conflict:.3} allocations per conflict (ceiling 1.0)"
    );
}
