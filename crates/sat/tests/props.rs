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

    /// Learnt-clause soundness across incremental queries: after several
    /// assumption-guarded queries on one solver, every live learnt clause
    /// C is implied by the clause database — checked by brute-force
    /// refutation (no assignment satisfies the database and falsifies C).
    /// This is the load-bearing claim behind carrying learnt clauses from
    /// one property query to the next over one encoding.
    #[test]
    fn shared_clauses_are_implied_by_the_cnf(cnf in cnf_strategy(8)) {
        let mut s = Solver::new();
        let vars: Vec<Lit> = (0..8).map(|_| s.new_lit()).collect();
        // Two activation literals gate the clauses, as in the encoder's
        // assumption-guarded queries; variables 8 and 9 are the gates.
        let acts = [s.new_lit(), s.new_lit()];
        let mut db: Vec<Vec<(usize, bool)>> = Vec::new();
        for (i, clause) in cnf.iter().enumerate() {
            let mut gated = vec![(8 + i % 2, false)];
            gated.extend(clause.iter().copied());
            s.add_clause(
                gated
                    .iter()
                    .map(|&(v, pos)| {
                        let l = if v < 8 { vars[v] } else { acts[v - 8] };
                        if pos { l } else { !l }
                    })
                    .collect::<Vec<Lit>>(),
            );
            db.push(gated);
        }
        let queries = [
            vec![acts[0]],
            vec![acts[1]],
            vec![acts[0], acts[1]],
            vec![acts[1], !vars[0]],
        ];
        for query in &queries {
            let _ = s.solve_with_assumptions(query);
        }
        prop_assert_eq!(
            s.solve_with_assumptions(&[acts[0], acts[1]]).is_sat(),
            brute_force_sat(8, &cnf)
        );
        for learnt in s.learnt_clauses() {
            // CNF ∧ ¬C: the database plus each literal of C negated as a
            // unit (variables are numbered in creation order).
            let mut refutation = db.clone();
            refutation.extend(
                learnt
                    .iter()
                    .map(|&l| vec![(l.var().0 as usize, !l.is_positive())]),
            );
            prop_assert!(
                !brute_force_sat(10, &refutation),
                "learnt clause {:?} is not implied by the clause database",
                learnt
            );
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
