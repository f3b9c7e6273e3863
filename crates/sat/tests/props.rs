//! Property-based tests: the CDCL solver against a brute-force oracle,
//! and the bit-vector layer against `u64` arithmetic.

use gpumc_sat::bv::BitVec;
use gpumc_sat::{Formula, Lit, Solver};
use proptest::prelude::*;

/// A random CNF over `nvars` variables: clauses of 1..=3 literals.
fn cnf_strategy(nvars: usize) -> impl Strategy<Value = Vec<Vec<(usize, bool)>>> {
    let clause = proptest::collection::vec((0..nvars, any::<bool>()), 1..=3);
    proptest::collection::vec(clause, 1..40)
}

fn brute_force_sat(nvars: usize, cnf: &[Vec<(usize, bool)>]) -> bool {
    (0u32..1 << nvars).any(|assign| {
        cnf.iter()
            .all(|clause| clause.iter().any(|&(v, pos)| (assign >> v & 1 == 1) == pos))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The solver agrees with exhaustive enumeration on small CNFs, and
    /// returned models satisfy every clause.
    #[test]
    fn solver_matches_brute_force(cnf in cnf_strategy(8)) {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..8).map(|_| s.new_lit()).collect();
        for clause in &cnf {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| if pos { vars[v] } else { !vars[v] })
                .collect();
            s.add_clause(lits);
        }
        let expected = brute_force_sat(8, &cnf);
        let got = s.solve().is_sat();
        prop_assert_eq!(got, expected);
        if got {
            for clause in &cnf {
                let satisfied = clause
                    .iter()
                    .any(|&(v, pos)| s.value_or_false(vars[v]) == pos);
                prop_assert!(satisfied);
            }
        }
    }

    /// Assumptions never change the underlying clause database.
    #[test]
    fn assumptions_are_temporary(cnf in cnf_strategy(6), assume in 0usize..6, pol in any::<bool>()) {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..6).map(|_| s.new_lit()).collect();
        for clause in &cnf {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| if pos { vars[v] } else { !vars[v] })
                .collect();
            s.add_clause(lits);
        }
        let base = s.solve().is_sat();
        s.clear_model();
        let a = if pol { vars[assume] } else { !vars[assume] };
        let _ = s.solve_with_assumptions(&[a]);
        s.clear_model();
        prop_assert_eq!(s.solve().is_sat(), base, "assumptions leaked");
    }

    /// An assumption-level Unsat answer must not poison the solver: with
    /// the assumption dropped, the very next query answers Sat iff the
    /// base formula is satisfiable — checked against the brute-force
    /// oracle, and *without* an intervening `clear_model`.
    #[test]
    fn assumption_unsat_recovers_base_verdict(
        cnf in cnf_strategy(6),
        assume in 0usize..6,
        pol in any::<bool>(),
    ) {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..6).map(|_| s.new_lit()).collect();
        for clause in &cnf {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| if pos { vars[v] } else { !vars[v] })
                .collect();
            s.add_clause(lits);
        }
        let base = brute_force_sat(6, &cnf);
        let a = if pol { vars[assume] } else { !vars[assume] };
        if s.solve_with_assumptions(&[a]).is_unsat() {
            prop_assert_eq!(
                s.solve().is_sat(),
                base,
                "base verdict changed after an assumption-level Unsat"
            );
        } else {
            // Sat under the assumption implies the base formula is Sat,
            // and the model must actually honour the assumption.
            prop_assert!(base);
            prop_assert!(s.value_or_false(a), "model violates the assumption");
        }
    }

    /// Learnt clauses and the cumulative counters survive query
    /// boundaries: across a sequence of assumption-guarded queries on one
    /// solver, `conflicts`/`decisions`/`propagations` are monotone and the
    /// live learnt-clause count never decreases (small formulas never
    /// trigger database reduction). This guards the activation-literal
    /// plumbing in the incremental encode layer.
    #[test]
    fn learnt_clauses_accumulate_across_queries(cnf in cnf_strategy(8)) {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..8).map(|_| s.new_lit()).collect();
        // Gate every clause behind one of two activation literals so the
        // queries below exercise the same shape the encoder uses.
        let acts = [s.new_lit(), s.new_lit()];
        for (i, clause) in cnf.iter().enumerate() {
            let mut lits: Vec<Lit> = vec![!acts[i % 2]];
            lits.extend(
                clause
                    .iter()
                    .map(|&(v, pos)| if pos { vars[v] } else { !vars[v] }),
            );
            s.add_clause(lits);
        }
        let mut prev = s.stats();
        for round in 0..3 {
            let act = acts[round % 2];
            let _ = s.solve_with_assumptions(&[act]);
            let now = s.stats();
            prop_assert!(now.learnt >= prev.learnt, "learnt clauses dropped");
            prop_assert!(now.conflicts >= prev.conflicts);
            prop_assert!(now.decisions >= prev.decisions);
            prop_assert!(now.propagations >= prev.propagations);
            prev = now;
        }
        // Both gates at once must agree with the ungated brute force.
        let both = s.solve_with_assumptions(&[acts[0], acts[1]]);
        prop_assert_eq!(both.is_sat(), brute_force_sat(8, &cnf));
    }

    /// Clause-sharing soundness: every learnt clause a portfolio racer
    /// publishes to the exchange ring is implied by the original CNF —
    /// checked by refutation (CNF ∧ ¬C must be unsatisfiable). This is
    /// the load-bearing claim behind importing foreign clauses: a racer
    /// that absorbs them solves an equisatisfiable formula.
    #[test]
    fn shared_clauses_are_implied_by_the_cnf(cnf in cnf_strategy(8)) {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..8).map(|_| s.new_lit()).collect();
        for clause in &cnf {
            let lits: Vec<Lit> = clause
                .iter()
                .map(|&(v, pos)| if pos { vars[v] } else { !vars[v] })
                .collect();
            s.add_clause(lits);
        }
        // A small ring keeps the snapshot cheap; glue limit at the
        // ceiling exports aggressively so the trace is non-trivial on
        // conflict-heavy instances.
        let config = gpumc_sat::PortfolioConfig {
            workers: 3,
            share_glue_init: 6,
            ..gpumc_sat::PortfolioConfig::default()
        };
        let (result, _, shared) =
            gpumc_sat::portfolio::solve_portfolio_traced(&mut s, &[], &config);
        prop_assert_eq!(result.is_sat(), brute_force_sat(8, &cnf));
        for learnt in &shared {
            // Refutation check in a fresh solver over the same variable
            // numbering: original CNF plus the negation of the shared
            // clause (every literal flipped, asserted as units).
            let mut r = Solver::new();
            let rvars: Vec<Lit> = (0..8).map(|_| r.new_lit()).collect();
            for clause in &cnf {
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, pos)| if pos { rvars[v] } else { !rvars[v] })
                    .collect();
                r.add_clause(lits);
            }
            for &lit in learnt {
                r.add_clause(vec![!lit]);
            }
            prop_assert!(
                r.solve().is_unsat(),
                "shared clause {:?} is not implied by the CNF",
                learnt
            );
        }
    }

    /// Portfolio determinism: the verdict (though not necessarily the
    /// model) is a property of the formula, so it must be stable across
    /// repeated runs and across worker counts — and equal to the
    /// sequential verdict.
    #[test]
    fn portfolio_verdicts_are_stable_across_runs_and_widths(cnf in cnf_strategy(8)) {
        let build = || {
            let mut s = Solver::new();
            let vars: Vec<Lit> = (0..8).map(|_| s.new_lit()).collect();
            for clause in &cnf {
                let lits: Vec<Lit> = clause
                    .iter()
                    .map(|&(v, pos)| if pos { vars[v] } else { !vars[v] })
                    .collect();
                s.add_clause(lits);
            }
            s
        };
        let expected = build().solve().is_sat();
        for workers in [1u32, 2, 3, 4] {
            for run in 0..2 {
                let mut s = build();
                let config = gpumc_sat::PortfolioConfig::with_workers(workers);
                let (result, stats) =
                    gpumc_sat::portfolio::solve_portfolio(&mut s, &[], &config);
                prop_assert_eq!(
                    result.is_sat(),
                    expected,
                    "verdict unstable at {} workers, run {}",
                    workers,
                    run
                );
                prop_assert_eq!(stats.workers, workers.max(1));
            }
        }
    }

    /// Bit-vector addition/subtraction/comparison match u64 semantics.
    #[test]
    fn bitvec_matches_u64(x in 0u64..256, y in 0u64..256) {
        let mut f = Formula::new();
        let a = BitVec::constant(&mut f, 8, x);
        let b = BitVec::constant(&mut f, 8, y);
        let sum = a.add(&mut f, &b);
        let diff = a.sub(&mut f, &b);
        let lt = a.ult(&mut f, &b);
        let eq = a.eq(&mut f, &b);
        prop_assert!(f.solve().is_sat());
        prop_assert_eq!(sum.value_in(&f), x.wrapping_add(y) & 0xff);
        prop_assert_eq!(diff.value_in(&f), x.wrapping_sub(y) & 0xff);
        prop_assert_eq!(f.value_or_false(lt), (x & 0xff) < (y & 0xff));
        prop_assert_eq!(f.value_or_false(eq), (x & 0xff) == (y & 0xff));
    }

    /// Solving for `x` in `x + k = target` recovers the unique solution.
    #[test]
    fn bitvec_equation_solving(k in 0u64..256, target in 0u64..256) {
        let mut f = Formula::new();
        let x = BitVec::fresh(&mut f, 8);
        let kk = BitVec::constant(&mut f, 8, k);
        let sum = x.add(&mut f, &kk);
        sum.assert_const(&mut f, target & 0xff);
        prop_assert!(f.solve().is_sat());
        prop_assert_eq!(x.value_in(&f).wrapping_add(k) & 0xff, target & 0xff);
    }

    /// Gate circuits evaluate like the boolean functions they encode.
    #[test]
    fn gate_semantics(a in any::<bool>(), b in any::<bool>(), c in any::<bool>()) {
        let mut f = Formula::new();
        let (la, lb, lc) = (f.new_lit(), f.new_lit(), f.new_lit());
        let and = f.and2(la, lb);
        let or = f.or2(lb, lc);
        let ite = f.ite(la, lb, lc);
        let xor = f.xor(la, lc);
        f.assert_lit(if a { la } else { !la });
        f.assert_lit(if b { lb } else { !lb });
        f.assert_lit(if c { lc } else { !lc });
        prop_assert!(f.solve().is_sat());
        prop_assert_eq!(f.value_or_false(and), a && b);
        prop_assert_eq!(f.value_or_false(or), b || c);
        prop_assert_eq!(f.value_or_false(ite), if a { b } else { c });
        prop_assert_eq!(f.value_or_false(xor), a ^ c);
    }
}
