//! Circuit-building (Tseitin transformation) helpers on top of [`Solver`].

use crate::{Lit, SolveResult, Solver};

/// A formula builder that owns a [`Solver`] and offers gate-level helpers.
///
/// Every helper returns a literal that is *equivalent* to the described
/// gate (full Tseitin encoding in both directions), so the returned
/// literals can be used in both positive and negative positions — which the
/// gpumc relation encoding relies on (derived relations appear under
/// negation in axioms like `empty (r1 \ r2)`).
///
/// # Example
///
/// ```
/// use gpumc_sat::Formula;
///
/// let mut f = Formula::new();
/// let a = f.new_lit();
/// let b = f.new_lit();
/// let both = f.and2(a, b);
/// f.assert_lit(both);
/// assert!(f.solve().is_sat());
/// assert_eq!(f.value(a), Some(true));
/// assert_eq!(f.value(b), Some(true));
/// ```
#[derive(Debug, Default)]
pub struct Formula {
    solver: Solver,
    true_lit: Option<Lit>,
    /// Hash-consing caches: structurally identical binary gates share
    /// one output literal, which substantially shrinks the relational
    /// encodings built by gpumc-encode.
    and_cache: std::collections::HashMap<(Lit, Lit), Lit>,
    or_cache: std::collections::HashMap<(Lit, Lit), Lit>,
    iff_cache: std::collections::HashMap<(Lit, Lit), Lit>,
    /// Reused buffer for the inputs of an `and`/`or` gate.
    inputs: Vec<Lit>,
}

impl Formula {
    /// Creates an empty formula.
    pub fn new() -> Formula {
        Formula::default()
    }

    /// Access to the underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Mutable access to the underlying solver.
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// A literal constrained to be true (created lazily, shared).
    pub fn lit_true(&mut self) -> Lit {
        if let Some(t) = self.true_lit {
            return t;
        }
        let t = self.solver.new_lit();
        self.solver.add_clause([t]);
        self.true_lit = Some(t);
        t
    }

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
    }

    /// A literal for a boolean constant.
    pub fn constant(&mut self, value: bool) -> Lit {
        if value {
            self.lit_true()
        } else {
            self.lit_false()
        }
    }

    /// Creates a fresh unconstrained literal.
    pub fn new_lit(&mut self) -> Lit {
        self.solver.new_lit()
    }

    /// Asserts a literal at the top level.
    pub fn assert_lit(&mut self, l: Lit) {
        self.solver.add_clause([l]);
    }

    /// Adds a raw clause.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.solver.add_clause(lits);
    }

    /// The constant value of a literal, when it is the shared
    /// true/false literal.
    fn const_of(&self, l: Lit) -> Option<bool> {
        let t = self.true_lit?;
        if l == t {
            Some(true)
        } else if l == !t {
            Some(false)
        } else {
            None
        }
    }

    /// Returns a literal equivalent to the conjunction of `lits`.
    ///
    /// Constant inputs are folded away, so building circuits over
    /// already-decided literals costs nothing.
    pub fn and(&mut self, lits: &[Lit]) -> Lit {
        self.gate(lits, true)
    }

    /// An `and` gate (`conj`) or an `or` gate over `lits`. They are duals:
    /// the `or` swaps which constant decides the gate and the polarities
    /// its clauses give the inputs and the output.
    fn gate(&mut self, lits: &[Lit], conj: bool) -> Lit {
        // The input value that decides the gate: false for `and`, true
        // for `or`.
        let absorbing = !conj;
        let mut inputs = std::mem::take(&mut self.inputs);
        inputs.clear();
        let mut decided = false;
        for &l in lits {
            match self.const_of(l) {
                Some(v) => decided = v == absorbing,
                None => {
                    decided = inputs.contains(&!l);
                    if !decided && !inputs.contains(&l) {
                        inputs.push(l);
                    }
                }
            }
            if decided {
                break;
            }
        }
        let out = if decided {
            self.constant(absorbing)
        } else {
            match inputs.as_slice() {
                [] => self.constant(conj),
                [l] => *l,
                _ => {
                    // `out → l` (and) or `l → out` (or) per input, then
                    // the long clause `∧ inputs → out` or `out → ∨ inputs`.
                    let out = self.solver.new_lit();
                    let o = if conj { !out } else { out };
                    for &l in &inputs {
                        self.solver.add_clause([o, if conj { l } else { !l }]);
                    }
                    self.solver.add_clause(
                        inputs
                            .iter()
                            .map(|&l| if conj { !l } else { l })
                            .chain([!o]),
                    );
                    out
                }
            }
        };
        self.inputs = inputs;
        out
    }

    /// Binary conjunction (hash-consed).
    pub fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.and_cache.get(&key) {
            return l;
        }
        let out = self.and(&[a, b]);
        self.and_cache.insert(key, out);
        out
    }

    /// Returns a literal equivalent to the disjunction of `lits`
    /// (constant-folding, like [`Formula::and`]).
    pub fn or(&mut self, lits: &[Lit]) -> Lit {
        self.gate(lits, false)
    }

    /// Binary disjunction (hash-consed).
    pub fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        if a == b {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.or_cache.get(&key) {
            return l;
        }
        let out = self.or(&[a, b]);
        self.or_cache.insert(key, out);
        out
    }

    /// Returns a literal equivalent to `a ↔ b` (hash-consed).
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&l) = self.iff_cache.get(&key) {
            return l;
        }
        let out = self.iff_uncached(a, b);
        self.iff_cache.insert(key, out);
        out
    }

    fn iff_uncached(&mut self, a: Lit, b: Lit) -> Lit {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) => return b,
            (Some(false), _) => return !b,
            (_, Some(true)) => return a,
            (_, Some(false)) => return !a,
            _ if a == b => return self.lit_true(),
            _ if a == !b => return self.lit_false(),
            _ => {}
        }
        let out = self.solver.new_lit();
        self.solver.add_clause([!out, !a, b]);
        self.solver.add_clause([!out, a, !b]);
        self.solver.add_clause([out, a, b]);
        self.solver.add_clause([out, !a, !b]);
        out
    }

    /// Returns a literal equivalent to `a ⊕ b`.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        self.iff(a, !b)
    }

    /// Returns a literal equivalent to `if c then t else e`.
    pub fn ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        match self.const_of(c) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        if t == e {
            return t;
        }
        match (self.const_of(t), self.const_of(e)) {
            (Some(true), _) => return self.or2(c, e),
            (Some(false), _) => return self.and2(!c, e),
            (_, Some(true)) => return self.or2(!c, t),
            (_, Some(false)) => return self.and2(c, t),
            _ => {}
        }
        let out = self.solver.new_lit();
        self.solver.add_clause([!out, !c, t]);
        self.solver.add_clause([!out, c, e]);
        self.solver.add_clause([out, !c, !t]);
        self.solver.add_clause([out, c, !e]);
        out
    }

    /// Asserts `a → b`.
    pub fn assert_implies(&mut self, a: Lit, b: Lit) {
        self.solver.add_clause([!a, b]);
    }

    /// Asserts `a ↔ b`.
    pub fn assert_iff(&mut self, a: Lit, b: Lit) {
        self.solver.add_clause([!a, b]);
        self.solver.add_clause([a, !b]);
    }

    /// Asserts that at most one of `lits` is true (pairwise encoding).
    pub fn assert_at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.solver.add_clause([!lits[i], !lits[j]]);
            }
        }
    }

    /// Asserts that exactly one of `lits` is true.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (there is no way to make zero literals
    /// contain a true one).
    pub fn assert_exactly_one(&mut self, lits: &[Lit]) {
        assert!(!lits.is_empty(), "exactly-one over empty set");
        self.solver.add_clause(lits.iter().copied());
        self.assert_at_most_one(lits);
    }

    /// Solves the accumulated formula.
    pub fn solve(&mut self) -> SolveResult {
        self.solver.clear_model();
        self.solver.solve()
    }

    /// Solves under assumptions.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solver.clear_model();
        self.solver.solve_with_assumptions(assumptions)
    }

    /// Model value of a literal after a `Sat` result.
    pub fn value(&self, l: Lit) -> Option<bool> {
        self.solver.value(l)
    }

    /// Model value, defaulting unconstrained variables to `false`.
    pub fn value_or_false(&self, l: Lit) -> bool {
        self.solver.value_or_false(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_gate_truth_table() {
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut f = Formula::new();
            let a = f.new_lit();
            let b = f.new_lit();
            let g = f.and2(a, b);
            f.assert_lit(if va { a } else { !a });
            f.assert_lit(if vb { b } else { !b });
            assert!(f.solve().is_sat());
            assert_eq!(f.value(g), Some(va && vb));
        }
    }

    #[test]
    fn or_gate_truth_table() {
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let mut f = Formula::new();
            let a = f.new_lit();
            let b = f.new_lit();
            let g = f.or2(a, b);
            f.assert_lit(if va { a } else { !a });
            f.assert_lit(if vb { b } else { !b });
            assert!(f.solve().is_sat());
            assert_eq!(f.value(g), Some(va || vb));
        }
    }

    #[test]
    fn ite_gate_truth_table() {
        for c in [false, true] {
            for t in [false, true] {
                for e in [false, true] {
                    let mut f = Formula::new();
                    let lc = f.new_lit();
                    let lt = f.new_lit();
                    let le = f.new_lit();
                    let g = f.ite(lc, lt, le);
                    f.assert_lit(if c { lc } else { !lc });
                    f.assert_lit(if t { lt } else { !lt });
                    f.assert_lit(if e { le } else { !le });
                    assert!(f.solve().is_sat());
                    assert_eq!(f.value(g), Some(if c { t } else { e }));
                }
            }
        }
    }

    #[test]
    fn gates_usable_under_negation() {
        // Assert NOT(and(a,b)) and a: forces b false.
        let mut f = Formula::new();
        let a = f.new_lit();
        let b = f.new_lit();
        let g = f.and2(a, b);
        f.assert_lit(!g);
        f.assert_lit(a);
        assert!(f.solve().is_sat());
        assert_eq!(f.value(b), Some(false));
    }

    #[test]
    fn exactly_one() {
        let mut f = Formula::new();
        let ls: Vec<Lit> = (0..5).map(|_| f.new_lit()).collect();
        f.assert_exactly_one(&ls);
        assert!(f.solve().is_sat());
        let count = ls.iter().filter(|&&l| f.value_or_false(l)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn empty_and_is_true_empty_or_is_false() {
        let mut f = Formula::new();
        let t = f.and(&[]);
        let e = f.or(&[]);
        assert!(f.solve().is_sat());
        assert_eq!(f.value(t), Some(true));
        assert_eq!(f.value(e), Some(false));
    }

    #[test]
    fn xor_and_iff() {
        let mut f = Formula::new();
        let a = f.new_lit();
        let b = f.new_lit();
        let x = f.xor(a, b);
        let i = f.iff(a, b);
        f.assert_lit(a);
        f.assert_lit(!b);
        assert!(f.solve().is_sat());
        assert_eq!(f.value(x), Some(true));
        assert_eq!(f.value(i), Some(false));
    }
}
