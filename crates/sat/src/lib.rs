//! A from-scratch CDCL SAT solver with a small bit-vector layer.
//!
//! This crate is the "SMT substrate" of the gpumc workspace. The paper's
//! tool (Dartagnan) encodes program semantics modulo a `.cat` consistency
//! model as an SMT formula and hands it to an off-the-shelf solver. The
//! sanctioned offline dependency set contains no solver, so we build one:
//!
//! * [`Solver`] — a MiniSat-style conflict-driven clause-learning solver
//!   with two-watched-literal propagation, first-UIP learning, VSIDS
//!   branching, phase saving, and Luby restarts.
//! * [`Formula`] — a Tseitin-transformation layer for building circuits
//!   (AND/OR/ITE/IFF gates, cardinality helpers) on top of raw clauses.
//! * [`bv`] — fixed-width bit-vector terms (constants, variables, adders,
//!   equality, multiplexers) bit-blasted onto the solver, replacing the
//!   integer reasoning an SMT solver would provide.
//!
//! # Example
//!
//! ```
//! use gpumc_sat::Solver;
//!
//! let mut s = Solver::new();
//! let a = s.new_lit();
//! let b = s.new_lit();
//! s.add_clause([a, b]);
//! s.add_clause([!a, b]);
//! assert!(s.solve().is_sat());
//! assert_eq!(s.value(b), Some(true));
//! ```

pub mod bv;
mod cancel;
mod heap;
pub mod portfolio;
mod solver;
mod tseitin;

pub use cancel::{CancelToken, Interrupt};
pub use portfolio::{ParallelPolicy, PortfolioConfig, PortfolioStats};
pub use solver::{SearchParams, SolveResult, Solver, Stats};
pub use tseitin::Formula;

/// Sizes and wall time of a CNF simplification pass.
///
/// No pass produces one: gpumc solves every encoding as built
/// (DESIGN.md §12). The type remains for the always-`None`
/// `gpumc::FullOutcome::simplify` field, which the per-layer benchmark
/// (`perfbench`) reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Live clauses before the pass.
    pub clauses_before: usize,
    /// Live clauses after the pass.
    pub clauses_after: usize,
    /// Wall time of the pass, in microseconds.
    pub time_us: u64,
}

/// A propositional variable, numbered from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The positive literal of this variable.
    #[inline]
    pub fn pos(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    ///
    /// Not `std::ops::Neg`: this maps a `Var` to a `Lit`, it does not negate
    /// a value of the same type.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Lit {
        Lit::new(self, false)
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `var * 2 + sign` where `sign == 0` means positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal from a variable and a polarity (`true` = positive).
    #[inline]
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    pub(crate) fn from_index(idx: usize) -> Lit {
        Lit(idx as u32)
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_positive() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "~x{}", self.var().0)
        }
    }
}

/// Ternary truth value used for partial assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LBool {
    True,
    False,
    Undef,
}

impl LBool {
    #[inline]
    pub(crate) fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Truth value of a literal given the truth value of its variable.
    #[inline]
    pub(crate) fn under(self, positive: bool) -> LBool {
        match (self, positive) {
            (LBool::Undef, _) => LBool::Undef,
            (LBool::True, true) | (LBool::False, false) => LBool::True,
            _ => LBool::False,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_roundtrip() {
        let v = Var(7);
        assert_eq!(v.pos().var(), v);
        assert_eq!(v.neg().var(), v);
        assert!(v.pos().is_positive());
        assert!(!v.neg().is_positive());
        assert_eq!(!v.pos(), v.neg());
        assert_eq!(!!v.pos(), v.pos());
    }

    #[test]
    fn lbool_under_polarity() {
        assert_eq!(LBool::True.under(true), LBool::True);
        assert_eq!(LBool::True.under(false), LBool::False);
        assert_eq!(LBool::False.under(true), LBool::False);
        assert_eq!(LBool::False.under(false), LBool::True);
        assert_eq!(LBool::Undef.under(true), LBool::Undef);
    }

    #[test]
    fn display_literal() {
        assert_eq!(Var(3).pos().to_string(), "x3");
        assert_eq!(Var(3).neg().to_string(), "~x3");
    }
}
