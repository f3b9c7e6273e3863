//! Dense bit-set sets of events and binary relations over them.
//!
//! The owned counterparts of the arena slots of [`crate::arena`]: every
//! operator here runs the same word-parallel kernel as the evaluators.

use gpumc_ir::EventId;

use crate::arena::{self, set_bits, CycleScratch, Dims, RelView, SetView};

const WORD: usize = 64;

fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD)
}

/// A set of events over a fixed universe of `n` events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSet {
    n: usize,
    words: Vec<u64>,
}

impl EventSet {
    /// The empty set over a universe of `n` events.
    pub fn empty(n: usize) -> EventSet {
        EventSet {
            n,
            words: vec![0; words_for(n)],
        }
    }

    /// The full set over a universe of `n` events.
    pub fn full(n: usize) -> EventSet {
        let mut s = EventSet::empty(n);
        arena::full_set(Dims::new(n), &mut s.words);
        s
    }

    pub(crate) fn from_words(n: usize, words: Vec<u64>) -> EventSet {
        debug_assert_eq!(words.len(), words_for(n));
        EventSet { n, words }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The words of the set, one bit per event.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A borrowed view of the set.
    pub fn view(&self) -> SetView<'_> {
        SetView::new(Dims::new(self.n), &self.words)
    }

    /// Inserts an event.
    ///
    /// # Panics
    ///
    /// Panics if the event id is outside the universe.
    pub fn insert(&mut self, e: EventId) {
        assert!(e.index() < self.n, "event outside universe");
        self.words[e.index() / WORD] |= 1 << (e.index() % WORD);
    }

    /// Removes every event.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Removes an event.
    pub fn remove(&mut self, e: EventId) {
        if e.index() < self.n {
            self.words[e.index() / WORD] &= !(1 << (e.index() % WORD));
        }
    }

    /// Tests membership.
    pub fn contains(&self, e: EventId) -> bool {
        self.view().contains(e)
    }

    /// Number of events in the set.
    pub fn len(&self) -> usize {
        arena::count(&self.words)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        arena::is_empty(&self.words)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        set_bits(&self.words).map(|i| EventId(i as u32))
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &EventSet) {
        arena::union_with(&mut self.words, &other.words);
    }

    /// Set union.
    pub fn union(&self, other: &EventSet) -> EventSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place intersection.
    pub fn inter_with(&mut self, other: &EventSet) {
        arena::inter_with(&mut self.words, &other.words);
    }

    /// Set intersection.
    pub fn inter(&self, other: &EventSet) -> EventSet {
        let mut out = self.clone();
        out.inter_with(other);
        out
    }

    /// In-place difference.
    pub fn diff_with(&mut self, other: &EventSet) {
        arena::diff_with(&mut self.words, &other.words);
    }

    /// Set difference.
    pub fn diff(&self, other: &EventSet) -> EventSet {
        let mut out = self.clone();
        out.diff_with(other);
        out
    }
}

/// A binary relation over a fixed universe of `n` events, stored as a
/// dense `n × n` bit matrix.
#[derive(Debug, PartialEq, Eq)]
pub struct Relation {
    n: usize,
    row_words: usize,
    words: Vec<u64>,
}

impl Clone for Relation {
    fn clone(&self) -> Relation {
        Relation {
            n: self.n,
            row_words: self.row_words,
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &Relation) {
        self.n = source.n;
        self.row_words = source.row_words;
        self.words.clone_from(&source.words);
    }
}

impl Relation {
    /// The empty relation over `n` events.
    pub fn empty(n: usize) -> Relation {
        let row_words = words_for(n);
        Relation {
            n,
            row_words,
            words: vec![0; row_words * n],
        }
    }

    pub(crate) fn from_words(n: usize, words: Vec<u64>) -> Relation {
        debug_assert_eq!(words.len(), words_for(n) * n);
        Relation {
            n,
            row_words: words_for(n),
            words,
        }
    }

    fn dims(&self) -> Dims {
        Dims::new(self.n)
    }

    /// The identity relation over `n` events.
    pub fn identity(n: usize) -> Relation {
        let mut r = Relation::empty(n);
        arena::identity(r.dims(), &mut r.words);
        r
    }

    /// The identity restricted to a set.
    pub fn identity_on(s: &EventSet) -> Relation {
        let mut r = Relation::empty(s.universe());
        arena::identity_on(r.dims(), &mut r.words, &s.words);
        r
    }

    /// The cartesian product of two sets.
    ///
    /// # Panics
    ///
    /// Panics if the sets have different universes.
    pub fn cross(a: &EventSet, b: &EventSet) -> Relation {
        assert_eq!(a.universe(), b.universe(), "universe mismatch");
        let mut r = Relation::empty(a.universe());
        arena::cross(r.dims(), &mut r.words, &a.words, &b.words);
        r
    }

    /// Builds a relation from explicit pairs.
    pub fn from_pairs(n: usize, pairs: impl IntoIterator<Item = (EventId, EventId)>) -> Relation {
        let mut r = Relation::empty(n);
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The words of the matrix, row by row.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// A borrowed view of the relation.
    pub fn view(&self) -> RelView<'_> {
        RelView::new(self.dims(), &self.words)
    }

    /// Clears to the empty relation over `n` events, reusing the word
    /// buffer when it is already large enough.
    pub fn clear_resize(&mut self, n: usize) {
        self.n = n;
        self.row_words = words_for(n);
        self.words.clear();
        self.words.resize(self.row_words * n, 0);
    }

    /// Adds a pair.
    ///
    /// # Panics
    ///
    /// Panics if either id is outside the universe.
    pub fn insert(&mut self, a: EventId, b: EventId) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "event outside universe"
        );
        self.words[a.index() * self.row_words + b.index() / WORD] |= 1 << (b.index() % WORD);
    }

    /// Tests membership.
    pub fn contains(&self, a: EventId, b: EventId) -> bool {
        self.view().contains(a, b)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        arena::count(&self.words)
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        arena::is_empty(&self.words)
    }

    /// Iterates over all pairs, row by row, each row in increasing
    /// order of the second event.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.view().iter()
    }

    /// The events `b` with `(a, b)` in the relation, in increasing order.
    pub fn successors(&self, a: EventId) -> impl Iterator<Item = EventId> + '_ {
        self.view().successors(a)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Relation) {
        arena::union_with(&mut self.words, &other.words);
    }

    /// Relation union.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// In-place intersection.
    pub fn inter_with(&mut self, other: &Relation) {
        arena::inter_with(&mut self.words, &other.words);
    }

    /// Relation intersection.
    pub fn inter(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.inter_with(other);
        out
    }

    /// In-place difference.
    pub fn diff_with(&mut self, other: &Relation) {
        arena::diff_with(&mut self.words, &other.words);
    }

    /// Relation difference.
    pub fn diff(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.diff_with(other);
        out
    }

    /// Relation composition `self ; other`.
    pub fn compose(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "universe mismatch");
        let mut out = Relation::empty(self.n);
        arena::compose(self.dims(), &mut out.words, &self.words, &other.words);
        out
    }

    /// Relation inverse.
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        arena::inverse(self.dims(), &mut out.words, &self.words);
        out
    }

    /// Transitive closure (`r+`).
    pub fn transitive_closure(&self) -> Relation {
        let mut tc = self.clone();
        tc.transitive_close();
        tc
    }

    /// Closes the relation transitively in place (word-level Warshall).
    pub fn transitive_close(&mut self) {
        arena::close(self.dims(), &mut self.words);
    }

    /// Reflexive-transitive closure (`r*`) over the full universe.
    pub fn refl_transitive_closure(&self) -> Relation {
        let mut out = self.transitive_closure();
        arena::reflexive(self.dims(), &mut out.words);
        out
    }

    /// Reflexive closure (`r?`).
    pub fn refl_closure(&self) -> Relation {
        let mut out = self.clone();
        arena::reflexive(self.dims(), &mut out.words);
        out
    }

    /// Whether the relation contains a pair `(e, e)`.
    pub fn has_reflexive_pair(&self) -> bool {
        arena::has_diagonal(self.dims(), &self.words)
    }

    /// Whether the relation contains a cycle (see [`arena::is_cyclic`]).
    pub fn is_cyclic(&self) -> bool {
        arena::is_cyclic(self.dims(), &self.words, &mut CycleScratch::default())
    }

    /// The domain of the relation.
    pub fn domain(&self) -> EventSet {
        let mut s = EventSet::empty(self.n);
        arena::domain(self.dims(), &mut s.words, &self.words);
        s
    }

    /// The range of the relation: the OR of every row.
    pub fn range(&self) -> EventSet {
        let mut s = EventSet::empty(self.n);
        arena::range(self.dims(), &mut s.words, &self.words);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EventId {
        EventId(i)
    }

    #[test]
    fn set_basics() {
        let mut s = EventSet::empty(100);
        assert!(s.is_empty());
        s.insert(e(3));
        s.insert(e(77));
        assert!(s.contains(e(3)) && s.contains(e(77)));
        assert!(!s.contains(e(4)));
        assert_eq!(s.len(), 2);
        s.remove(e(3));
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![e(77)]);
    }

    #[test]
    fn set_algebra() {
        let mut a = EventSet::empty(10);
        let mut b = EventSet::empty(10);
        a.insert(e(1));
        a.insert(e(2));
        b.insert(e(2));
        b.insert(e(3));
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.inter(&b).iter().collect::<Vec<_>>(), vec![e(2)]);
        assert_eq!(a.diff(&b).iter().collect::<Vec<_>>(), vec![e(1)]);
        assert_eq!(EventSet::full(10).len(), 10);
    }

    #[test]
    fn relation_insert_iter() {
        let r = Relation::from_pairs(5, [(e(0), e(1)), (e(1), e(2))]);
        assert!(r.contains(e(0), e(1)));
        assert!(!r.contains(e(1), e(0)));
        assert_eq!(r.len(), 2);
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn iteration_is_row_major_across_word_boundaries() {
        let n = 130;
        let pairs = [(0, 129), (0, 1), (64, 63), (64, 64), (129, 0), (1, 128)];
        let r = Relation::from_pairs(n, pairs.map(|(a, b)| (e(a), e(b))));
        let reference: Vec<(EventId, EventId)> = (0..n as u32)
            .flat_map(|a| (0..n as u32).map(move |b| (e(a), e(b))))
            .filter(|&(a, b)| r.contains(a, b))
            .collect();
        assert_eq!(r.iter().collect::<Vec<_>>(), reference);
        assert_eq!(r.successors(e(0)).collect::<Vec<_>>(), vec![e(1), e(129)]);
        assert_eq!(r.successors(e(2)).count(), 0);
        assert_eq!(r.successors(e(500)).count(), 0);
        let s = r.domain();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![e(0), e(1), e(64), e(129)]
        );
    }

    #[test]
    fn composition() {
        let r = Relation::from_pairs(5, [(e(0), e(1)), (e(3), e(4))]);
        let s = Relation::from_pairs(5, [(e(1), e(2)), (e(4), e(0))]);
        let c = r.compose(&s);
        assert!(c.contains(e(0), e(2)));
        assert!(c.contains(e(3), e(0)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn composition_spanning_word_boundaries() {
        let n = 130;
        let r = Relation::from_pairs(n, [(e(0), e(65)), (e(0), e(129))]);
        let s = Relation::from_pairs(n, [(e(65), e(128)), (e(129), e(1))]);
        let c = r.compose(&s);
        assert!(c.contains(e(0), e(128)));
        assert!(c.contains(e(0), e(1)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn inverse_roundtrip() {
        let r = Relation::from_pairs(6, [(e(0), e(5)), (e(2), e(3))]);
        let inv = r.inverse();
        assert!(inv.contains(e(5), e(0)));
        assert!(inv.contains(e(3), e(2)));
        assert_eq!(inv.inverse(), r);
    }

    #[test]
    fn transitive_closure_chain() {
        let r = Relation::from_pairs(5, [(e(0), e(1)), (e(1), e(2)), (e(2), e(3))]);
        let tc = r.transitive_closure();
        assert!(tc.contains(e(0), e(3)));
        assert!(tc.contains(e(1), e(3)));
        assert!(!tc.contains(e(3), e(0)));
        assert_eq!(tc.len(), 6);
        assert!(!tc.has_reflexive_pair());
        assert!(!r.is_cyclic());
    }

    #[test]
    fn cycle_detection() {
        let r = Relation::from_pairs(4, [(e(0), e(1)), (e(1), e(2)), (e(2), e(0))]);
        assert!(r.is_cyclic());
        assert!(r.transitive_closure().contains(e(0), e(0)));
    }

    #[test]
    fn closures() {
        let r = Relation::from_pairs(3, [(e(0), e(1))]);
        assert!(r.refl_closure().contains(e(2), e(2)));
        assert!(r.refl_transitive_closure().contains(e(0), e(0)));
        assert!(r.refl_transitive_closure().contains(e(0), e(1)));
    }

    #[test]
    fn cross_and_identity_on() {
        let mut a = EventSet::empty(4);
        a.insert(e(0));
        a.insert(e(1));
        let mut b = EventSet::empty(4);
        b.insert(e(2));
        let cr = Relation::cross(&a, &b);
        assert_eq!(cr.len(), 2);
        assert!(cr.contains(e(0), e(2)) && cr.contains(e(1), e(2)));
        let idr = Relation::identity_on(&a);
        assert!(idr.contains(e(0), e(0)));
        assert!(!idr.contains(e(2), e(2)));
        assert_eq!(idr.len(), 2);
    }

    #[test]
    fn domain_range() {
        let r = Relation::from_pairs(6, [(e(0), e(5)), (e(2), e(3))]);
        assert_eq!(r.domain().iter().collect::<Vec<_>>(), vec![e(0), e(2)]);
        assert_eq!(r.range().iter().collect::<Vec<_>>(), vec![e(3), e(5)]);
    }

    #[test]
    fn closure_and_cycle_match_reference_on_samples() {
        // Warshall closure and the DFS cycle check agree with the
        // naive repeated-squaring reference on pseudo-random digraphs,
        // including universes spanning multiple words.
        let squaring = |r: &Relation| {
            let mut tc = r.clone();
            loop {
                let next = tc.union(&tc.compose(&tc));
                if next == tc {
                    return tc;
                }
                tc = next;
            }
        };
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u32
        };
        for n in [1usize, 7, 20, 70, 130] {
            for density in [1usize, 3] {
                let mut r = Relation::empty(n);
                for _ in 0..(n * density / 2 + 1) {
                    r.insert(e(next() % n as u32), e(next() % n as u32));
                }
                let tc = squaring(&r);
                assert_eq!(r.transitive_closure(), tc, "n={n} density={density}");
                assert_eq!(
                    r.is_cyclic(),
                    tc.has_reflexive_pair(),
                    "n={n} density={density}"
                );
            }
        }
        assert!(!Relation::empty(0).is_cyclic());
        assert_eq!(Relation::empty(0).transitive_closure(), Relation::empty(0));
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let r = Relation::from_pairs(70, [(e(0), e(65)), (e(3), e(4)), (e(65), e(3))]);
        let s = Relation::from_pairs(70, [(e(0), e(65)), (e(65), e(3)), (e(5), e(6))]);
        let mut ri = r.clone();
        ri.inter_with(&s);
        assert_eq!(ri, r.inter(&s));
        let mut rd = r.clone();
        rd.diff_with(&s);
        assert_eq!(rd, r.diff(&s));
        let mut scratch = Relation::empty(3);
        scratch.clone_from(&r);
        assert_eq!(scratch, r);

        let a = EventSet::full(70).diff(&{
            let mut d = EventSet::empty(70);
            d.insert(e(65));
            d
        });
        let mut b = EventSet::empty(70);
        b.insert(e(1));
        b.insert(e(65));
        let mut ai = a.clone();
        ai.inter_with(&b);
        assert_eq!(ai, a.inter(&b));
        let mut ad = a.clone();
        ad.diff_with(&b);
        assert_eq!(ad, a.diff(&b));
    }

    #[test]
    fn range_is_row_or() {
        // Word-level range agrees with a per-pair reference.
        let r = Relation::from_pairs(
            130,
            [(e(0), e(129)), (e(1), e(64)), (e(2), e(64)), (e(99), e(0))],
        );
        let mut expect = EventSet::empty(130);
        for (_, b) in r.iter() {
            expect.insert(b);
        }
        assert_eq!(r.range(), expect);
    }

    #[test]
    fn algebra_laws_on_samples() {
        // (r ; s)^-1 == s^-1 ; r^-1 on a pseudo-random sample.
        let mut seed = 42u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u32
        };
        for _ in 0..10 {
            let n = 20;
            let mut r = Relation::empty(n);
            let mut s = Relation::empty(n);
            for _ in 0..30 {
                r.insert(e(next() % n as u32), e(next() % n as u32));
                s.insert(e(next() % n as u32), e(next() % n as u32));
            }
            assert_eq!(r.compose(&s).inverse(), s.inverse().compose(&r.inverse()));
            // De Morgan-ish: (r | s) & t == (r & t) | (s & t)
            let mut t = Relation::empty(n);
            for _ in 0..40 {
                t.insert(e(next() % n as u32), e(next() % n as u32));
            }
            assert_eq!(r.union(&s).inter(&t), r.inter(&t).union(&s.inter(&t)));
        }
    }
}
