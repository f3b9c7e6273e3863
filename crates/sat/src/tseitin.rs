//! Circuit-building (Tseitin transformation) helpers on top of [`Solver`].

use crate::{Lit, SolveResult, Solver};

/// The implications a gate's clauses give between its output literal
/// `out` and the expression `e` it stands for: [`Dirs::LOWER`] is
/// `e ⇒ out` (`out` is at least `e`), [`Dirs::UPPER`] is `out ⇒ e` (`out`
/// is at most `e`), and [`Dirs::BOTH`] is the full Tseitin equivalence.
///
/// A literal that a formula only ever asserts false, or only under
/// negation, needs the lower direction alone; one it only asserts true
/// needs the upper one (Plaisted and Greenbaum, J. Symbolic Computation,
/// 1986).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dirs(u8);

impl Dirs {
    /// `e ⇒ out`.
    pub const LOWER: Dirs = Dirs(1);
    /// `out ⇒ e`.
    pub const UPPER: Dirs = Dirs(2);
    /// `out ⇔ e`.
    pub const BOTH: Dirs = Dirs(3);

    /// Whether every direction of `other` is in `self`.
    fn contains(self, other: Dirs) -> bool {
        self.0 & other.0 == other.0
    }

    /// The other single direction (`BOTH` stays `BOTH`).
    fn flip(self) -> Dirs {
        Dirs((self.0 & 1) << 1 | self.0 >> 1)
    }
}

/// A formula builder that owns a [`Solver`] and offers gate-level helpers.
///
/// A gate emits the clauses of the [`Dirs`] it is asked for. The plain
/// helpers ([`Formula::and`], [`Formula::or2`], [`Formula::iff`], ...)
/// return a literal *equivalent* to the gate (both directions), usable in
/// positive and negative positions. The `_dirs` variants and
/// [`Formula::or_of_ands_lower`] emit only the implications their
/// caller's readers need, which is how gpumc-encode builds a model's
/// relations (a relation under `empty` needs only `e ⇒ out`).
///
/// # Example
///
/// ```
/// use gpumc_sat::{Dirs, Formula};
///
/// let mut f = Formula::new();
/// let a = f.new_lit();
/// let b = f.new_lit();
/// let both = f.and2(a, b);
/// f.assert_lit(both);
/// assert!(f.solve().is_sat());
/// assert_eq!(f.value(a), Some(true));
/// assert_eq!(f.value(b), Some(true));
///
/// // Only `a ∧ b ⇒ lower`: asserting `¬lower` forbids `a ∧ b`.
/// let lower = f.and2_dirs(a, b, Dirs::LOWER);
/// f.assert_lit(!lower);
/// assert!(f.solve().is_unsat());
/// ```
#[derive(Debug, Default)]
pub struct Formula {
    solver: Solver,
    true_lit: Option<Lit>,
    /// Hash-consing caches: structurally identical binary gates share
    /// one output literal, which substantially shrinks the relational
    /// encodings built by gpumc-encode. Each entry records the
    /// directions the output already has; a gate folded to a constant
    /// or an input is exact, so it has both.
    and_cache: std::collections::HashMap<(Lit, Lit), (Lit, Dirs)>,
    or_cache: std::collections::HashMap<(Lit, Lit), (Lit, Dirs)>,
    iff_cache: std::collections::HashMap<(Lit, Lit), Lit>,
    /// Reused buffer for the inputs of an `and`/`or` gate.
    inputs: Vec<Lit>,
    /// Reused buffer for the per-bit literals of a bit-vector compare.
    pub(crate) bits: Vec<Lit>,
    /// Reused buffer for the terms of [`Formula::or_of_ands_lower`].
    terms: Vec<(Lit, Lit)>,
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
        self.gate(lits, true, Dirs::BOTH)
    }

    /// An `and` gate (`conj`) or an `or` gate over `lits`, with the
    /// clauses of `dirs`.
    fn gate(&mut self, lits: &[Lit], conj: bool, dirs: Dirs) -> Lit {
        let mut inputs = std::mem::take(&mut self.inputs);
        let out = match self.fold(lits, conj, &mut inputs) {
            Some(l) => l,
            None => {
                let out = self.solver.new_lit();
                self.gate_clauses(out, &inputs, conj, dirs);
                out
            }
        };
        self.inputs = inputs;
        out
    }

    /// The value of an `and` (`conj`) or `or` gate over `lits` when its
    /// constant, repeated and complementary inputs decide it or leave at
    /// most one input; otherwise `None`, with the remaining inputs in
    /// `inputs`. The `or` is the dual: it swaps which constant decides
    /// the gate.
    fn fold(&mut self, lits: &[Lit], conj: bool, inputs: &mut Vec<Lit>) -> Option<Lit> {
        // The input value that decides the gate: false for `and`, true
        // for `or`.
        let absorbing = !conj;
        inputs.clear();
        for &l in lits {
            match self.const_of(l) {
                Some(v) if v != absorbing => {}
                None if !inputs.contains(&!l) => {
                    if !inputs.contains(&l) {
                        inputs.push(l);
                    }
                }
                _ => return Some(self.constant(absorbing)),
            }
        }
        match inputs.as_slice() {
            [] => Some(self.constant(conj)),
            [l] => Some(*l),
            _ => None,
        }
    }

    /// The clauses of `dirs` for gate output `out` over `inputs`: first
    /// one binary clause per input (`out → l` of an `and`, the upper
    /// direction; `l → out` of an `or`, the lower one), then the long
    /// clause (`∧ inputs → out` or `out → ∨ inputs`).
    fn gate_clauses(&mut self, out: Lit, inputs: &[Lit], conj: bool, dirs: Dirs) {
        let o = if conj { !out } else { out };
        let binary = if conj { Dirs::UPPER } else { Dirs::LOWER };
        if dirs.contains(binary) {
            for &l in inputs {
                self.solver.add_clause([o, if conj { l } else { !l }]);
            }
        }
        if dirs.contains(binary.flip()) {
            self.solver.add_clause(
                inputs
                    .iter()
                    .map(|&l| if conj { !l } else { l })
                    .chain([!o]),
            );
        }
    }

    /// A hash-consed binary gate. A cached output asked for a direction
    /// it lacks gets that direction's clauses on the same literal.
    fn gate2(&mut self, a: Lit, b: Lit, conj: bool, dirs: Dirs) -> Lit {
        if a == b {
            return a;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        let cache = if conj {
            &self.and_cache
        } else {
            &self.or_cache
        };
        let (out, has) = match cache.get(&key).copied() {
            Some((out, has)) if has.contains(dirs) => return out,
            Some((out, has)) => {
                // A cached fresh output has two inputs, neither constant.
                self.gate_clauses(out, &[key.0, key.1], conj, Dirs(dirs.0 & !has.0));
                (out, Dirs(has.0 | dirs.0))
            }
            None => {
                let mut inputs = std::mem::take(&mut self.inputs);
                let folded = self.fold(&[a, b], conj, &mut inputs);
                self.inputs = inputs;
                match folded {
                    Some(l) => (l, Dirs::BOTH),
                    None => {
                        let out = self.solver.new_lit();
                        self.gate_clauses(out, &[a, b], conj, dirs);
                        (out, dirs)
                    }
                }
            }
        };
        let cache = if conj {
            &mut self.and_cache
        } else {
            &mut self.or_cache
        };
        cache.insert(key, (out, has));
        out
    }

    /// Binary conjunction (hash-consed).
    pub fn and2(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate2(a, b, true, Dirs::BOTH)
    }

    /// Binary conjunction in the directions `dirs` (hash-consed with
    /// [`Formula::and2`]: a cached output asked for a missing direction
    /// gets its clauses).
    pub fn and2_dirs(&mut self, a: Lit, b: Lit, dirs: Dirs) -> Lit {
        self.gate2(a, b, true, dirs)
    }

    /// Returns a literal equivalent to the disjunction of `lits`
    /// (constant-folding, like [`Formula::and`]).
    pub fn or(&mut self, lits: &[Lit]) -> Lit {
        self.gate(lits, false, Dirs::BOTH)
    }

    /// The disjunction of `lits` in the directions `dirs` (constant-folding,
    /// like [`Formula::or`]; a folded gate is exact).
    pub fn or_dirs(&mut self, lits: &[Lit], dirs: Dirs) -> Lit {
        self.gate(lits, false, dirs)
    }

    /// Binary disjunction (hash-consed).
    pub fn or2(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate2(a, b, false, Dirs::BOTH)
    }

    /// Binary disjunction in the directions `dirs` (hash-consed, like
    /// [`Formula::and2_dirs`]).
    pub fn or2_dirs(&mut self, a: Lit, b: Lit, dirs: Dirs) -> Lit {
        self.gate2(a, b, false, dirs)
    }

    /// A literal `out` with `a ∧ b ⇒ out` for every `(a, b)` of `terms`:
    /// the lower direction of `⋁ (a ∧ b)` with one clause per term and no
    /// literal per conjunction. Constants, repeated terms and a lone term
    /// fold as in [`Formula::or`] over [`Formula::and2`] gates: a true
    /// term gives the true literal, a lone term its literal or a lower
    /// [`Formula::and2_dirs`] gate.
    pub fn or_of_ands_lower(&mut self, terms: &[(Lit, Lit)]) -> Lit {
        let mut kept = std::mem::take(&mut self.terms);
        kept.clear();
        let mut any_true = false;
        for &(a, b) in terms {
            // A term with one constant-true side is its other side,
            // written `(l, l)`.
            let term = match (self.const_of(a), self.const_of(b)) {
                (Some(false), _) | (_, Some(false)) => continue,
                _ if a == !b => continue,
                (Some(true), Some(true)) => {
                    any_true = true;
                    break;
                }
                (Some(true), None) => (b, b),
                (None, Some(true)) => (a, a),
                (None, None) if a <= b => (a, b),
                (None, None) => (b, a),
            };
            if !kept.contains(&term) {
                kept.push(term);
            }
        }
        let out = match kept.as_slice() {
            _ if any_true => self.lit_true(),
            [] => self.lit_false(),
            &[(a, b)] => self.and2_dirs(a, b, Dirs::LOWER),
            _ => {
                let out = self.solver.new_lit();
                for &(a, b) in &kept {
                    self.solver.add_clause([!a, !b, out]);
                }
                out
            }
        };
        self.terms = kept;
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

    /// Which values gate output `g` can take with its inputs fixed: the
    /// exact value `e` always, and `!e` where `dirs` leaves it free.
    fn free_values(f: &mut Formula, g: Lit) -> (bool, bool) {
        (
            f.solve_with_assumptions(&[g]).is_sat(),
            f.solve_with_assumptions(&[!g]).is_sat(),
        )
    }

    #[test]
    fn directional_gates_truth_tables() {
        for dirs in [Dirs::LOWER, Dirs::UPPER, Dirs::BOTH] {
            for conj in [true, false] {
                for bits in 0..8u8 {
                    let vals = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
                    for n in [2, 3] {
                        let mut f = Formula::new();
                        let ins: Vec<Lit> = (0..n).map(|_| f.new_lit()).collect();
                        let g = match (conj, n) {
                            (true, 2) => f.and2_dirs(ins[0], ins[1], dirs),
                            (false, 2) => f.or2_dirs(ins[0], ins[1], dirs),
                            (true, _) => f.gate(&ins, true, dirs),
                            (false, _) => f.or_dirs(&ins, dirs),
                        };
                        for (&l, &v) in ins.iter().zip(&vals) {
                            f.assert_lit(if v { l } else { !l });
                        }
                        let e = if conj {
                            vals[..n].iter().all(|&v| v)
                        } else {
                            vals[..n].iter().any(|&v| v)
                        };
                        // Lower: `e ⇒ g` forces a true `e`; upper: `g ⇒ e`
                        // forces a false one.
                        let forced = if e {
                            dirs.contains(Dirs::LOWER)
                        } else {
                            dirs.contains(Dirs::UPPER)
                        };
                        let (can_true, can_false) = free_values(&mut f, g);
                        let expect = if e { (true, !forced) } else { (!forced, true) };
                        assert_eq!(
                            (can_true, can_false),
                            expect,
                            "{} of {n} inputs {vals:?}, {dirs:?}",
                            if conj { "and" } else { "or" }
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn directional_gates_fold_constants() {
        for dirs in [Dirs::LOWER, Dirs::UPPER, Dirs::BOTH] {
            let mut f = Formula::new();
            let a = f.new_lit();
            let (t, e) = (f.lit_true(), f.lit_false());
            let vars = f.solver().num_vars();
            assert_eq!(f.and2_dirs(a, t, dirs), a);
            assert_eq!(f.and2_dirs(a, e, dirs), e);
            assert_eq!(f.and2_dirs(a, !a, dirs), e);
            assert_eq!(f.or2_dirs(a, e, dirs), a);
            assert_eq!(f.or2_dirs(a, t, dirs), t);
            assert_eq!(f.or2_dirs(a, !a, dirs), t);
            assert_eq!(f.gate(&[t, a, a], true, dirs), a);
            assert_eq!(f.or_dirs(&[e, e], dirs), e);
            assert_eq!(f.or_dirs(&[], dirs), e);
            // A folded gate is exact: asked again in any direction, it
            // stays folded.
            assert_eq!(f.and2(a, t), a);
            assert_eq!(f.solver().num_vars(), vars, "{dirs:?}: no gate literal");
        }
    }

    #[test]
    fn a_cached_gate_gains_missing_directions_on_the_same_literal() {
        for conj in [true, false] {
            let mut f = Formula::new();
            let a = f.new_lit();
            let b = f.new_lit();
            let gate = |f: &mut Formula, x, y, dirs| {
                if conj {
                    f.and2_dirs(x, y, dirs)
                } else {
                    f.or2_dirs(x, y, dirs)
                }
            };
            let g = gate(&mut f, a, b, Dirs::LOWER);
            let (vars, clauses) = (f.solver().num_vars(), f.solver().num_clauses());
            // Lower again, either operand order: the same gate, no clause.
            assert_eq!(gate(&mut f, b, a, Dirs::LOWER), g);
            assert_eq!(f.solver().num_clauses(), clauses);
            // Both directions: the same literal, with the upper clauses.
            assert_eq!(gate(&mut f, a, b, Dirs::BOTH), g);
            assert_eq!(f.solver().num_vars(), vars);
            let added = f.solver().num_clauses() - clauses;
            // An `and`'s upper direction is one clause per input; an
            // `or`'s is the one long clause.
            assert_eq!(added, if conj { 2 } else { 1 });
            assert_eq!(gate(&mut f, a, b, Dirs::UPPER), g);
            assert_eq!(f.solver().num_clauses(), clauses + added);
            // Now exact: every input assignment fixes `g`.
            for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
                let v = if conj { va && vb } else { va || vb };
                let fix = [if va { a } else { !a }, if vb { b } else { !b }];
                assert!(f
                    .solve_with_assumptions(&[fix[0], fix[1], if v { g } else { !g }])
                    .is_sat());
                assert!(f
                    .solve_with_assumptions(&[fix[0], fix[1], if v { !g } else { g }])
                    .is_unsat());
            }
        }
    }

    #[test]
    fn or_of_ands_lower_is_one_clause_per_term() {
        let mut f = Formula::new();
        let l: Vec<Lit> = (0..4).map(|_| f.new_lit()).collect();
        let (t, e) = (f.lit_true(), f.lit_false());
        let clauses = f.solver().num_clauses();
        let out = f.or_of_ands_lower(&[(l[0], l[1]), (l[2], l[3]), (l[1], l[0])]);
        // One fresh literal and two clauses: the repeated term folds.
        assert_eq!(f.solver().num_vars(), 6);
        assert_eq!(f.solver().num_clauses(), clauses + 2);
        // Any true term forces `out`; nothing else constrains it.
        for (a, b) in [(0, 1), (2, 3)] {
            assert!(f.solve_with_assumptions(&[l[a], l[b], !out]).is_unsat());
        }
        assert!(f
            .solve_with_assumptions(&[l[0], !l[1], l[2], !l[3], !out])
            .is_sat());
        assert!(f.solve_with_assumptions(&[!l[0], !l[2], out]).is_sat());
        // Folding: a true term, false terms, a lone term.
        assert_eq!(f.or_of_ands_lower(&[(l[0], e), (t, t)]), t);
        assert_eq!(f.or_of_ands_lower(&[(l[0], e), (l[1], !l[1])]), e);
        assert_eq!(f.or_of_ands_lower(&[]), e);
        assert_eq!(f.or_of_ands_lower(&[(t, l[2]), (l[0], e)]), l[2]);
        let lone = f.or_of_ands_lower(&[(l[1], l[3])]);
        assert_eq!(lone, f.and2_dirs(l[3], l[1], Dirs::LOWER));
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
