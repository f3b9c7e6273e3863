//! The encoder's literal store: the literals of a relation (a set) sit
//! in one flat array, one per pair (member) of a bit-row relation,
//! ranked by those rows.
//!
//! A relation's rows are `n` rows of `w = ⌈n/64⌉` words, as in
//! [`gpumc_exec::arena`]. The literal of pair `(a, b)` is at `prefix[a]`,
//! the number of pairs in the rows before `a`, plus the rank of `b`
//! within row `a`. Row-major order over the rows is therefore the order
//! of the literals, and iterating a relation is one pass over both. A
//! pair in the rows whose slot holds [`Lit::UNDEF`] has no literal, and
//! reads as absent (false), like a pair outside the rows.
//!
//! The model nodes' rows are the relation analysis' active sets, read in
//! place from its arena; their literals are slots of one [`Store`] sized
//! once per encoding. `rf`, `co` and `sync_fence`, which the queries read
//! after the analysis is gone, copy their upper-bound rows into an
//! [`OwnedRel`].

use gpumc_exec::arena::{count, rank, set_bits, Dims, RelView, SetView};
use gpumc_sat::Lit;

/// The literal of a pair (member) that has none.
pub(crate) const ABSENT: Lit = Lit::UNDEF;

/// The literals of one relation, one per pair of its rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RelLits<'a> {
    /// Words per row.
    w: usize,
    rows: &'a [u64],
    /// Per row: the pairs of the rows before it. Its length is the
    /// universe size, zero for the empty relation.
    prefix: &'a [u32],
    lits: &'a [Lit],
}

impl<'a> RelLits<'a> {
    /// A relation with no pairs.
    pub(crate) const EMPTY: RelLits<'static> = RelLits {
        w: 0,
        rows: &[],
        prefix: &[],
        lits: &[],
    };

    /// The literals `lits` of the pairs of `rows`, whose per-row counts
    /// are `prefix` (see [`prefix_counts`]).
    pub(crate) fn new(rows: RelView<'a>, prefix: &'a [u32], lits: &'a [Lit]) -> RelLits<'a> {
        let n = rows.universe();
        debug_assert_eq!(prefix.len(), n);
        debug_assert_eq!(lits.len(), rows.len());
        RelLits {
            w: n.div_ceil(64),
            rows: rows.words(),
            prefix,
            lits,
        }
    }

    /// Universe size.
    fn n(&self) -> usize {
        self.prefix.len()
    }

    /// The literal of `(a, b)`; `None` when the pair has none.
    pub(crate) fn get(&self, a: u32, b: u32) -> Option<Lit> {
        let (a, b) = (a as usize, b as usize);
        if a >= self.n() {
            return None;
        }
        let row = &self.rows[a * self.w..(a + 1) * self.w];
        if row[b / 64] >> (b % 64) & 1 == 0 {
            return None;
        }
        let l = self.lits[self.prefix[a] as usize + rank(row, b)];
        (l != ABSENT).then_some(l)
    }

    /// The pairs `(a, _)` with a literal, in increasing order of the
    /// second event.
    pub(crate) fn row(&self, a: u32) -> impl Iterator<Item = (u32, Lit)> + 'a {
        let a = a as usize;
        let (row, lits): (&'a [u64], &'a [Lit]) = if a < self.n() {
            (
                &self.rows[a * self.w..(a + 1) * self.w],
                &self.lits[self.prefix[a] as usize..],
            )
        } else {
            (&[], &[])
        };
        set_bits(row)
            .zip(lits)
            .filter(|&(_, &l)| l != ABSENT)
            .map(|(b, &l)| (b as u32, l))
    }

    /// Every pair with a literal, row by row, each row in increasing
    /// order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, u32, Lit)> + 'a {
        let bits = 64 * self.w.max(1);
        set_bits(self.rows)
            .zip(self.lits)
            .filter(|&(_, &l)| l != ABSENT)
            .map(move |(p, &l)| ((p / bits) as u32, (p % bits) as u32, l))
    }
}

/// The literals of one set, one per member of its row.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SetLits<'a> {
    row: &'a [u64],
    lits: &'a [Lit],
}

impl<'a> SetLits<'a> {
    /// A set with no members.
    pub(crate) const EMPTY: SetLits<'static> = SetLits {
        row: &[],
        lits: &[],
    };

    /// The literals `lits` of the members of `row`.
    pub(crate) fn new(row: SetView<'a>, lits: &'a [Lit]) -> SetLits<'a> {
        debug_assert_eq!(lits.len(), row.len());
        SetLits {
            row: row.words(),
            lits,
        }
    }

    /// The literal of member `e`; `None` when it has none.
    pub(crate) fn get(&self, e: u32) -> Option<Lit> {
        let e = e as usize;
        if self.row.get(e / 64).is_none_or(|&x| x >> (e % 64) & 1 == 0) {
            return None;
        }
        let l = self.lits[rank(self.row, e)];
        (l != ABSENT).then_some(l)
    }
}

/// Appends to `out` the per-row pair counts of `rows`: entry `a` is the
/// number of pairs in rows `0..a`.
pub(crate) fn prefix_counts(rows: RelView<'_>, out: &mut Vec<u32>) {
    let mut seen = 0u32;
    for a in 0..rows.universe() {
        out.push(seen);
        seen += count(rows.row(a)) as u32;
    }
}

/// The index of pair `(a, b)` of `rows` among their pairs: its literal's
/// position in a slot whose per-row counts are `prefix`. The pair must
/// lie in `rows`.
pub(crate) fn index(rows: RelView<'_>, prefix: &[u32], a: u32, b: u32) -> usize {
    let row = rows.row(a as usize);
    debug_assert!(row[b as usize / 64] >> (b % 64) & 1 == 1);
    prefix[a as usize] as usize + rank(row, b as usize)
}

/// A relation that owns its rows and literals: `rf`, `co` and
/// `sync_fence`, which outlive the relation analysis.
#[derive(Debug, Clone, Default)]
pub(crate) struct OwnedRel {
    n: usize,
    rows: Vec<u64>,
    prefix: Vec<u32>,
    lits: Vec<Lit>,
}

impl OwnedRel {
    /// A copy of `rows` whose pairs have no literal yet.
    pub(crate) fn new(rows: RelView<'_>) -> OwnedRel {
        let mut prefix = Vec::with_capacity(rows.universe());
        prefix_counts(rows, &mut prefix);
        OwnedRel {
            n: rows.universe(),
            rows: rows.words().to_vec(),
            prefix,
            lits: vec![ABSENT; rows.len()],
        }
    }

    fn rows(&self) -> RelView<'_> {
        RelView::new(Dims::new(self.n), &self.rows)
    }

    /// Number of pairs.
    pub(crate) fn len(&self) -> usize {
        self.lits.len()
    }

    /// Gives pair `(a, b)`, which must lie in the rows, the literal `l`.
    pub(crate) fn set(&mut self, a: u32, b: u32, l: Lit) {
        let i = index(self.rows(), &self.prefix, a, b);
        self.lits[i] = l;
    }

    /// Gives the `i`-th pair in row-major order the literal `l`.
    pub(crate) fn set_nth(&mut self, i: usize, l: Lit) {
        self.lits[i] = l;
    }

    /// The literals, for reading.
    pub(crate) fn view(&self) -> RelLits<'_> {
        if self.n == 0 {
            return RelLits::EMPTY;
        }
        RelLits::new(self.rows(), &self.prefix, &self.lits)
    }
}

/// One literal per unordered pair of events, made on first use: a dense
/// triangle of cells, [`ABSENT`] until set.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairCache {
    cells: Vec<Lit>,
}

impl PairCache {
    /// A cache over `n` events.
    pub(crate) fn new(n: usize) -> PairCache {
        PairCache {
            cells: vec![ABSENT; n * (n + 1) / 2],
        }
    }

    fn cell(a: u32, b: u32) -> usize {
        let (i, j) = if a <= b { (a, b) } else { (b, a) };
        let j = j as usize;
        j * (j + 1) / 2 + i as usize
    }

    /// The literal of `{a, b}`, when made.
    pub(crate) fn get(&self, a: u32, b: u32) -> Option<Lit> {
        let l = self.cells[PairCache::cell(a, b)];
        (l != ABSENT).then_some(l)
    }

    pub(crate) fn insert(&mut self, a: u32, b: u32, l: Lit) {
        self.cells[PairCache::cell(a, b)] = l;
    }
}

/// Where a model node's literals sit in the [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    /// First literal.
    pub(crate) at: usize,
    /// Number of pairs (members) of the node's active set.
    pub(crate) len: usize,
    /// First per-row count; `usize::MAX` for a set, which has one row.
    pub(crate) prefix: usize,
}

/// The literal arena of one encoding's model nodes.
#[derive(Debug)]
pub(crate) struct Store {
    /// Universe size: the per-row counts each relation slot has.
    n: usize,
    /// Per-row counts of every relation slot, `n` per slot.
    prefix: Vec<u32>,
    pub(crate) lits: Vec<Lit>,
    /// Per node: its slot, or `None` when it has no literals of its own.
    pub(crate) slots: Vec<Option<Slot>>,
}

impl Store {
    /// A store over `n` events with one slot per node for which `size`
    /// answers: the node's active relation or set and how many copies of
    /// it the node needs (a `let rec` root keeps its variables and its
    /// body). The arena is sized once, from the popcounts of those active
    /// sets, and every literal starts [`ABSENT`].
    pub(crate) fn new<'a>(
        n: usize,
        nodes: usize,
        size: impl Fn(usize) -> Option<(Active<'a>, usize)>,
    ) -> Store {
        let mut slots = Vec::with_capacity(nodes);
        let (mut at, mut rel_slots) = (0, 0);
        for id in 0..nodes {
            slots.push(size(id).map(|(active, copies)| {
                let (len, prefix) = match active {
                    Active::Rel(r) => {
                        rel_slots += 1;
                        (r.len(), (rel_slots - 1) * n)
                    }
                    Active::Set(s) => (s.len(), usize::MAX),
                };
                let slot = Slot { at, len, prefix };
                at += len * copies;
                slot
            }));
        }
        let mut prefix = Vec::with_capacity(rel_slots * n);
        for (id, slot) in slots.iter().enumerate() {
            if let (Some(_), Some((Active::Rel(r), _))) = (slot, size(id)) {
                prefix_counts(r, &mut prefix);
            }
        }
        Store {
            n,
            prefix,
            lits: vec![ABSENT; at],
            slots,
        }
    }

    /// The literals of slot `at`, writable, its per-row counts (empty
    /// for a set), and a reader of every other slot.
    pub(crate) fn split(&mut self, at: Slot) -> (&mut [Lit], &[u32], Reader<'_>) {
        let (left, rest) = self.lits.split_at_mut(at.at);
        let (out, right) = rest.split_at_mut(at.len);
        let prefix = match at.prefix {
            usize::MAX => &[][..],
            p => &self.prefix[p..p + self.n],
        };
        let reader = Reader {
            prefix: &self.prefix,
            slots: &self.slots,
            left,
            right,
            right_start: at.at + at.len,
        };
        (out, prefix, reader)
    }

    /// A reader of every slot.
    pub(crate) fn reader(&self) -> Reader<'_> {
        Reader {
            prefix: &self.prefix,
            slots: &self.slots,
            left: &self.lits,
            right: &[],
            right_start: self.lits.len(),
        }
    }
}

/// A node's active set.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Active<'a> {
    Rel(RelView<'a>),
    Set(SetView<'a>),
}

/// Reads the slots of a [`Store`] other than the one being written.
pub(crate) struct Reader<'s> {
    prefix: &'s [u32],
    slots: &'s [Option<Slot>],
    /// The literals before and after the written slot.
    left: &'s [Lit],
    right: &'s [Lit],
    right_start: usize,
}

impl<'s> Reader<'s> {
    /// The literals of slot `s`, which must not overlap the written one.
    fn lits(&self, s: Slot) -> &'s [Lit] {
        if s.at + s.len <= self.left.len() {
            &self.left[s.at..s.at + s.len]
        } else {
            let at = s.at - self.right_start;
            &self.right[at..at + s.len]
        }
    }

    /// The literals of relation node `id`, whose active set is `rows`
    /// (empty when it has no slot).
    pub(crate) fn rel(&self, id: usize, rows: Option<RelView<'s>>) -> RelLits<'s> {
        match (self.slots[id], rows) {
            (Some(s), Some(rows)) => RelLits::new(
                rows,
                &self.prefix[s.prefix..s.prefix + rows.universe()],
                self.lits(s),
            ),
            _ => RelLits::EMPTY,
        }
    }

    /// The literals of set node `id`, whose active set is `row`.
    pub(crate) fn set(&self, id: usize, row: Option<SetView<'s>>) -> SetLits<'s> {
        match (self.slots[id], row) {
            (Some(s), Some(row)) => SetLits::new(row, self.lits(s)),
            _ => SetLits::EMPTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use gpumc_exec::arena::Dims;
    use gpumc_sat::Var;

    use super::*;

    const SIZES: [usize; 6] = [1, 63, 64, 65, 128, 130];

    /// SplitMix64.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> u32 {
            (self.next() % n as u64) as u32
        }
    }

    /// Rows with about `3n` random pairs, the full last row and the
    /// pairs `(0, 63)`, `(0, 64)` where the universe has them, so that
    /// rows span words.
    fn random_rows(rng: &mut Rng, n: usize) -> Vec<u64> {
        let d = Dims::new(n);
        let mut words = vec![0u64; d.rel_len()];
        let mut put = |a: usize, b: usize| words[a * d.w + b / 64] |= 1 << (b % 64);
        for _ in 0..3 * n {
            put(rng.below(n) as usize, rng.below(n) as usize);
        }
        for b in 0..n {
            put(n - 1, b);
        }
        for b in [63, 64] {
            if b < n {
                put(0, b);
            }
        }
        words
    }

    #[test]
    fn owned_relations_match_a_map_reference() {
        let mut rng = Rng(0x11ce);
        for n in SIZES {
            let d = Dims::new(n);
            let words = random_rows(&mut rng, n);
            let rows = RelView::new(d, &words);
            let mut rel = OwnedRel::new(rows);
            assert_eq!(rel.len(), rows.len());
            // Every third pair keeps no literal; the rest get distinct ones,
            // set in a shuffled order.
            let mut pairs: Vec<(u32, u32)> = rows.iter().map(|(a, b)| (a.0, b.0)).collect();
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.below(i + 1) as usize);
            }
            let mut reference = BTreeMap::new();
            for (k, &(a, b)) in pairs.iter().enumerate() {
                if k % 3 == 2 {
                    continue;
                }
                let l = Var(k as u32).pos();
                rel.set(a, b, l);
                reference.insert((a, b), l);
            }
            let view = rel.view();
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    assert_eq!(
                        view.get(a, b),
                        reference.get(&(a, b)).copied(),
                        "n={n} ({a}, {b})"
                    );
                }
                let row: Vec<(u32, Lit)> = view.row(a).collect();
                let want: Vec<(u32, Lit)> = reference
                    .range((a, 0)..=(a, u32::MAX))
                    .map(|(&(_, b), &l)| (b, l))
                    .collect();
                assert_eq!(row, want, "n={n}, row {a}");
            }
            // Past the universe, nothing.
            assert_eq!(view.get(n as u32, 0), None);
            assert_eq!(view.row(n as u32).count(), 0);
            let all: Vec<(u32, u32, Lit)> = view.iter().collect();
            let want: Vec<(u32, u32, Lit)> =
                reference.iter().map(|(&(a, b), &l)| (a, b, l)).collect();
            assert_eq!(all, want, "n={n}: whole-relation order");
        }
    }

    #[test]
    fn store_slots_match_a_map_reference() {
        let mut rng = Rng(0x5107);
        for n in SIZES {
            let d = Dims::new(n);
            // Node 0 a relation, node 1 none, node 2 a set, node 3 a
            // relation with two copies.
            let (r0, r3) = (random_rows(&mut rng, n), random_rows(&mut rng, n));
            let mut s2 = vec![0u64; d.set_len()];
            for _ in 0..n {
                let e = rng.below(n) as usize;
                s2[e / 64] |= 1 << (e % 64);
            }
            let (v0, v3) = (RelView::new(d, &r0), RelView::new(d, &r3));
            let v2 = SetView::new(d, &s2);
            let active = |id: usize| match id {
                0 => Some((Active::Rel(v0), 1)),
                2 => Some((Active::Set(v2), 1)),
                3 => Some((Active::Rel(v3), 2)),
                _ => None,
            };
            let mut store = Store::new(n, 4, active);
            assert_eq!(store.lits.len(), v0.len() + v2.len() + 2 * v3.len());
            assert_eq!(store.prefix.len(), 2 * n);
            assert_eq!(store.slots[1], None);
            assert!(store.lits.iter().all(|&l| l == ABSENT));
            // Node 3's first copy: every other pair, in row-major order.
            let s3 = store.slots[3].unwrap();
            let mut reference = BTreeMap::new();
            let (out, prefix, _) = store.split(s3);
            assert_eq!(prefix.len(), n);
            for (k, (a, b)) in v3.iter().enumerate() {
                if k % 2 == 0 {
                    out[k] = Var(k as u32).pos();
                    reference.insert((a.0, b.0), out[k]);
                }
            }
            // Node 2: each member its own literal.
            let s2slot = store.slots[2].unwrap();
            let (out, prefix, _) = store.split(s2slot);
            assert!(prefix.is_empty());
            for (k, o) in out.iter_mut().enumerate() {
                *o = Var(1_000_000 + k as u32).neg();
            }
            // Node 0 is written by pair index while the others are read.
            let s0 = store.slots[0].unwrap();
            let (out0, prefix0, reader) = store.split(s0);
            let rel3 = reader.rel(3, Some(v3));
            let set2 = reader.set(2, Some(v2));
            assert_eq!(reader.rel(1, Some(v0)).iter().count(), 0, "no slot");
            assert_eq!(reader.rel(3, None).iter().count(), 0, "no rows");
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    assert_eq!(rel3.get(a, b), reference.get(&(a, b)).copied());
                }
                let want: Vec<(u32, Lit)> = reference
                    .range((a, 0)..=(a, u32::MAX))
                    .map(|(&(_, b), &l)| (b, l))
                    .collect();
                assert_eq!(rel3.row(a).collect::<Vec<_>>(), want, "n={n}, row {a}");
                let member = v2.iter().position(|e| e.0 == a);
                assert_eq!(
                    set2.get(a),
                    member.map(|k| Var(1_000_000 + k as u32).neg()),
                    "n={n}, member {a}"
                );
            }
            assert_eq!(set2.get(n as u32 + 64), None, "past the row");
            let all: Vec<(u32, u32, Lit)> = rel3.iter().collect();
            let want: Vec<(u32, u32, Lit)> =
                reference.iter().map(|(&(a, b), &l)| (a, b, l)).collect();
            assert_eq!(all, want, "n={n}: whole-relation order");
            for (k, (a, b)) in v0.iter().enumerate() {
                assert_eq!(index(v0, prefix0, a.0, b.0), k, "n={n}: ({}, {})", a.0, b.0);
                out0[k] = Var(k as u32).pos();
            }
            let rel0 = store.reader().rel(0, Some(v0));
            for (k, (a, b)) in v0.iter().enumerate() {
                assert_eq!(rel0.get(a.0, b.0), Some(Var(k as u32).pos()));
            }
        }
    }

    #[test]
    fn an_empty_slot_next_to_the_written_one_reads_empty() {
        let d = Dims::new(3);
        let (none, one) = (vec![0u64; d.rel_len()], vec![0b10u64, 0, 0]);
        let (v0, v1) = (RelView::new(d, &none), RelView::new(d, &one));
        // Node 0's slot is empty and starts where node 1's does.
        let mut store = Store::new(3, 2, |id| Some((Active::Rel([v0, v1][id]), 1)));
        assert_eq!(store.slots[0].unwrap().at, store.slots[1].unwrap().at);
        let (out, _, reader) = store.split(store.slots[1].unwrap());
        out[0] = Var(0).pos();
        assert_eq!(reader.rel(0, Some(v0)).iter().count(), 0);
        assert_eq!(reader.rel(0, Some(v0)).get(0, 1), None);
    }

    #[test]
    fn pair_caches_key_unordered_pairs() {
        let mut rng = Rng(0xca5e);
        for n in SIZES {
            let mut cache = PairCache::new(n);
            let mut reference = BTreeMap::new();
            for k in 0..4 * n as u32 {
                let (a, b) = (rng.below(n), rng.below(n));
                cache.insert(a, b, Var(k).pos());
                reference.insert((a.min(b), a.max(b)), Var(k).pos());
            }
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    let want = reference.get(&(a.min(b), a.max(b))).copied();
                    assert_eq!(cache.get(a, b), want, "n={n} ({a}, {b})");
                }
            }
        }
    }
}
