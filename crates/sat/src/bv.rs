//! Fixed-width bit-vector terms bit-blasted onto the SAT solver.
//!
//! Litmus tests manipulate small integer values (stored data, addresses,
//! ticket counters). An SMT solver would handle these with the bit-vector
//! theory; we bit-blast instead. A [`BitVec`] is a little-endian vector of
//! literals; all operations allocate Tseitin gates in a [`Formula`].

use crate::tseitin::Formula;
use crate::Lit;

/// A fixed-width bit-vector of SAT literals (bit 0 = least significant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    bits: Vec<Lit>,
}

impl BitVec {
    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The literal for bit `i` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: usize) -> Lit {
        self.bits[i]
    }

    /// All bits, least significant first.
    pub fn bits(&self) -> &[Lit] {
        &self.bits
    }

    /// Creates a fresh unconstrained bit-vector of the given width.
    pub fn fresh(f: &mut Formula, width: usize) -> BitVec {
        BitVec {
            bits: (0..width).map(|_| f.new_lit()).collect(),
        }
    }

    /// Creates a constant bit-vector (value truncated to `width` bits).
    pub fn constant(f: &mut Formula, width: usize, value: u64) -> BitVec {
        BitVec {
            bits: (0..width)
                .map(|i| f.constant(value >> i & 1 == 1))
                .collect(),
        }
    }

    /// Reads the concrete value from the solver model after a SAT answer.
    ///
    /// Unconstrained bits read as zero.
    pub fn value_in(&self, f: &Formula) -> u64 {
        self.bits.iter().enumerate().fold(0u64, |acc, (i, &l)| {
            acc | (u64::from(f.value_or_false(l)) << i)
        })
    }

    /// Returns a literal equivalent to `self == other`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn eq(&self, f: &mut Formula, other: &BitVec) -> Lit {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        let mut per_bit = std::mem::take(&mut f.bits);
        per_bit.clear();
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            per_bit.push(f.iff(a, b));
        }
        let out = f.and(&per_bit);
        f.bits = per_bit;
        out
    }

    /// Returns a literal equivalent to `self == value` (constant compare).
    pub fn eq_const(&self, f: &mut Formula, value: u64) -> Lit {
        let mut per_bit = std::mem::take(&mut f.bits);
        per_bit.clear();
        per_bit.extend(
            self.bits
                .iter()
                .enumerate()
                .map(|(i, &b)| if value >> i & 1 == 1 { b } else { !b }),
        );
        let out = f.and(&per_bit);
        f.bits = per_bit;
        out
    }

    /// Returns a literal equivalent to `self != other`.
    pub fn ne(&self, f: &mut Formula, other: &BitVec) -> Lit {
        !self.eq(f, other)
    }

    /// Unsigned less-than comparison `self < other`.
    pub fn ult(&self, f: &mut Formula, other: &BitVec) -> Lit {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        // Ripple from LSB: lt_i = (~a_i & b_i) | (a_i<=>b_i) & lt_{i-1}
        let mut lt = f.lit_false();
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let strictly = f.and2(!a, b);
            let equal = f.iff(a, b);
            let carry = f.and2(equal, lt);
            lt = f.or2(strictly, carry);
        }
        lt
    }

    /// Unsigned less-or-equal `self <= other`.
    pub fn ule(&self, f: &mut Formula, other: &BitVec) -> Lit {
        !other.ult(f, self)
    }

    /// Wrapping addition.
    pub fn add(&self, f: &mut Formula, other: &BitVec) -> BitVec {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        let mut carry = f.lit_false();
        let mut bits = Vec::with_capacity(self.width());
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let axb = f.xor(a, b);
            let sum = f.xor(axb, carry);
            let c1 = f.and2(a, b);
            let c2 = f.and2(axb, carry);
            carry = f.or2(c1, c2);
            bits.push(sum);
        }
        BitVec { bits }
    }

    /// Wrapping subtraction (`self - other`, two's complement).
    pub fn sub(&self, f: &mut Formula, other: &BitVec) -> BitVec {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        // a - b = a + ~b + 1
        let mut carry = f.lit_true();
        let mut bits = Vec::with_capacity(self.width());
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            let nb = !b;
            let axb = f.xor(a, nb);
            let sum = f.xor(axb, carry);
            let c1 = f.and2(a, nb);
            let c2 = f.and2(axb, carry);
            carry = f.or2(c1, c2);
            bits.push(sum);
        }
        BitVec { bits }
    }

    /// Bitwise AND.
    pub fn bitand(&self, f: &mut Formula, other: &BitVec) -> BitVec {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        BitVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| f.and2(a, b))
                .collect(),
        }
    }

    /// Bitwise OR.
    pub fn bitor(&self, f: &mut Formula, other: &BitVec) -> BitVec {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        BitVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| f.or2(a, b))
                .collect(),
        }
    }

    /// Bitwise XOR.
    pub fn bitxor(&self, f: &mut Formula, other: &BitVec) -> BitVec {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        BitVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| f.xor(a, b))
                .collect(),
        }
    }

    /// Bit-wise multiplexer: `if cond then self else other`.
    pub fn select(&self, f: &mut Formula, cond: Lit, other: &BitVec) -> BitVec {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        BitVec {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&t, &e)| f.ite(cond, t, e))
                .collect(),
        }
    }

    /// Asserts `self == other` at the top level.
    pub fn assert_eq(&self, f: &mut Formula, other: &BitVec) {
        assert_eq!(self.width(), other.width(), "bit-vector width mismatch");
        for (&a, &b) in self.bits.iter().zip(&other.bits) {
            f.assert_iff(a, b);
        }
    }

    /// Asserts `self == value` at the top level.
    pub fn assert_const(&self, f: &mut Formula, value: u64) {
        for (i, &b) in self.bits.iter().enumerate() {
            f.assert_lit(if value >> i & 1 == 1 { b } else { !b });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 8;

    fn check_binop(
        op: impl Fn(&BitVec, &mut Formula, &BitVec) -> BitVec,
        model: impl Fn(u64, u64) -> u64,
        samples: &[(u64, u64)],
    ) {
        for &(x, y) in samples {
            let mut f = Formula::new();
            let a = BitVec::constant(&mut f, W, x);
            let b = BitVec::constant(&mut f, W, y);
            let r = op(&a, &mut f, &b);
            assert!(f.solve().is_sat());
            assert_eq!(r.value_in(&f), model(x, y) & 0xff, "op({x},{y})");
        }
    }

    const SAMPLES: &[(u64, u64)] = &[
        (0, 0),
        (1, 1),
        (3, 5),
        (255, 1),
        (128, 128),
        (17, 42),
        (200, 100),
    ];

    #[test]
    fn addition_matches_wrapping_add() {
        check_binop(BitVec::add, |x, y| x.wrapping_add(y), SAMPLES);
    }

    #[test]
    fn subtraction_matches_wrapping_sub() {
        check_binop(BitVec::sub, |x, y| x.wrapping_sub(y), SAMPLES);
    }

    #[test]
    fn bitwise_ops() {
        check_binop(BitVec::bitand, |x, y| x & y, SAMPLES);
        check_binop(BitVec::bitor, |x, y| x | y, SAMPLES);
        check_binop(BitVec::bitxor, |x, y| x ^ y, SAMPLES);
    }

    #[test]
    fn equality_and_comparison() {
        for &(x, y) in SAMPLES {
            let mut f = Formula::new();
            let a = BitVec::constant(&mut f, W, x);
            let b = BitVec::constant(&mut f, W, y);
            let eq = a.eq(&mut f, &b);
            let lt = a.ult(&mut f, &b);
            let le = a.ule(&mut f, &b);
            assert!(f.solve().is_sat());
            assert_eq!(f.value_or_false(eq), x == y);
            assert_eq!(f.value_or_false(lt), x < y);
            assert_eq!(f.value_or_false(le), x <= y);
        }
    }

    #[test]
    fn fresh_vector_constrained_by_equation() {
        // Solve x + 3 = 10 over 8 bits.
        let mut f = Formula::new();
        let x = BitVec::fresh(&mut f, W);
        let three = BitVec::constant(&mut f, W, 3);
        let sum = x.add(&mut f, &three);
        sum.assert_const(&mut f, 10);
        assert!(f.solve().is_sat());
        assert_eq!(x.value_in(&f), 7);
    }

    #[test]
    fn select_multiplexer() {
        for c in [false, true] {
            let mut f = Formula::new();
            let cond = f.new_lit();
            f.assert_lit(if c { cond } else { !cond });
            let t = BitVec::constant(&mut f, W, 11);
            let e = BitVec::constant(&mut f, W, 22);
            let r = t.select(&mut f, cond, &e);
            assert!(f.solve().is_sat());
            assert_eq!(r.value_in(&f), if c { 11 } else { 22 });
        }
    }

    #[test]
    fn eq_const_gate() {
        let mut f = Formula::new();
        let x = BitVec::fresh(&mut f, W);
        let is42 = x.eq_const(&mut f, 42);
        f.assert_lit(is42);
        assert!(f.solve().is_sat());
        assert_eq!(x.value_in(&f), 42);
    }

    #[test]
    fn unsat_equation() {
        // x != x has no solution.
        let mut f = Formula::new();
        let x = BitVec::fresh(&mut f, W);
        let ne = x.ne(&mut f, &x.clone());
        f.assert_lit(ne);
        assert!(f.solve().is_unsat());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut f = Formula::new();
        let a = BitVec::fresh(&mut f, 4);
        let b = BitVec::fresh(&mut f, 8);
        let _ = a.add(&mut f, &b);
    }
}
