//! Flat bit arenas and the word-parallel kernels over them.
//!
//! A relation over `n` events is `n` rows of `w = ⌈n/64⌉` words (row
//! `a` holds the successors of event `a`); a set is one such row. An
//! evaluator keeps every value it needs as a *slot* of one `Vec<u64>`,
//! sized once per event graph, and runs the kernels below on slices of
//! it, so evaluating a model allocates nothing per expression. The
//! relation analysis and the interpreter share these kernels, and so do
//! [`Relation`](crate::Relation) and [`EventSet`](crate::EventSet).

use gpumc_ir::EventId;

const WORD: usize = 64;

/// The shape of one arena: `n` events, `w` words per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims {
    /// Universe size.
    pub n: usize,
    /// Words per row, `⌈n/64⌉`.
    pub w: usize,
}

impl Dims {
    /// The shape for a universe of `n` events.
    pub fn new(n: usize) -> Dims {
        Dims {
            n,
            w: n.div_ceil(WORD),
        }
    }

    /// Words of a relation slot.
    pub fn rel_len(self) -> usize {
        self.n * self.w
    }

    /// Words of a set slot.
    pub fn set_len(self) -> usize {
        self.w
    }
}

/// Positions of the set bits of `words`, in increasing order.
pub fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wi * WORD + b
            })
        })
    })
}

/// Number of set bits of `words` before position `i`, which must lie
/// within `words`: the index of bit `i` among the set bits, when set.
pub fn rank(words: &[u64], i: usize) -> usize {
    let (wi, b) = (i / WORD, i % WORD);
    count(&words[..wi]) + (words[wi] & ((1 << b) - 1)).count_ones() as usize
}

fn bit(words: &[u64], i: usize) -> bool {
    words[i / WORD] >> (i % WORD) & 1 == 1
}

fn set_bit(words: &mut [u64], i: usize) {
    words[i / WORD] |= 1 << (i % WORD);
}

/// A borrowed relation slot.
#[derive(Debug, Clone, Copy)]
pub struct RelView<'a> {
    d: Dims,
    words: &'a [u64],
}

impl<'a> RelView<'a> {
    /// Views `words` (`d.rel_len()` of them) as a relation.
    pub fn new(d: Dims, words: &'a [u64]) -> RelView<'a> {
        debug_assert_eq!(words.len(), d.rel_len());
        RelView { d, words }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.d.n
    }

    /// The slot's words, row by row.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// The row of event `a`: its successors.
    pub fn row(&self, a: usize) -> &'a [u64] {
        &self.words[a * self.d.w..(a + 1) * self.d.w]
    }

    /// Tests membership.
    pub fn contains(&self, a: EventId, b: EventId) -> bool {
        a.index() < self.d.n && b.index() < self.d.n && bit(self.row(a.index()), b.index())
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        count(self.words)
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        is_empty(self.words)
    }

    /// All pairs, row by row, each row in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, EventId)> + 'a {
        let view = *self;
        (0..view.d.n).flat_map(move |i| {
            set_bits(view.row(i)).map(move |j| (EventId(i as u32), EventId(j as u32)))
        })
    }

    /// The successors of `a`, in increasing order.
    pub fn successors(&self, a: EventId) -> impl Iterator<Item = EventId> + 'a {
        let row: &'a [u64] = if a.index() < self.d.n {
            self.row(a.index())
        } else {
            &[]
        };
        set_bits(row).map(|j| EventId(j as u32))
    }

    /// An owned copy.
    pub fn to_relation(&self) -> crate::Relation {
        crate::Relation::from_words(self.d.n, self.words.to_vec())
    }
}

impl PartialEq for RelView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.d == other.d && self.words == other.words
    }
}

impl Eq for RelView<'_> {}

/// A borrowed set slot.
#[derive(Debug, Clone, Copy)]
pub struct SetView<'a> {
    d: Dims,
    words: &'a [u64],
}

impl<'a> SetView<'a> {
    /// Views `words` (`d.set_len()` of them) as a set.
    pub fn new(d: Dims, words: &'a [u64]) -> SetView<'a> {
        debug_assert_eq!(words.len(), d.set_len());
        SetView { d, words }
    }

    /// The slot's words.
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Tests membership.
    pub fn contains(&self, e: EventId) -> bool {
        e.index() < self.d.n && bit(self.words, e.index())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        count(self.words)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        is_empty(self.words)
    }

    /// Members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + 'a {
        set_bits(self.words).map(|i| EventId(i as u32))
    }

    /// An owned copy.
    pub fn to_set(&self) -> crate::EventSet {
        crate::EventSet::from_words(self.d.n, self.words.to_vec())
    }
}

impl PartialEq for SetView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.d == other.d && self.words == other.words
    }
}

impl Eq for SetView<'_> {}

/// The read side of an arena while one slot of it is written: every
/// word before and after the written slot.
pub struct Src<'a> {
    left: &'a [u64],
    right: &'a [u64],
    /// First word after the written slot.
    right_start: usize,
}

impl<'a> Src<'a> {
    /// The `len` words at `at`, which must not overlap the written slot.
    pub fn get(&self, at: usize, len: usize) -> &'a [u64] {
        if at < self.left.len() {
            &self.left[at..at + len]
        } else {
            let at = at - self.right_start;
            &self.right[at..at + len]
        }
    }
}

/// Splits `words` into the `len` words at `out`, writable, and the rest.
pub fn split(words: &mut [u64], out: usize, len: usize) -> (&mut [u64], Src<'_>) {
    let (left, rest) = words.split_at_mut(out);
    let (slot, right) = rest.split_at_mut(len);
    (
        slot,
        Src {
            left,
            right,
            right_start: out + len,
        },
    )
}

// -- kernels ---------------------------------------------------------------

/// Number of set bits.
pub fn count(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Whether no bit is set.
pub fn is_empty(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// `out |= a`.
pub fn union_with(out: &mut [u64], a: &[u64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o |= x;
    }
}

/// `out &= a`.
pub fn inter_with(out: &mut [u64], a: &[u64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o &= x;
    }
}

/// `out &= !a`.
pub fn diff_with(out: &mut [u64], a: &[u64]) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o &= !x;
    }
}

/// `out = a | b`.
pub fn union(out: &mut [u64], a: &[u64], b: &[u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x | y;
    }
}

/// `out = a & b`.
pub fn inter(out: &mut [u64], a: &[u64], b: &[u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & y;
    }
}

/// `out = a & !b`.
pub fn diff(out: &mut [u64], a: &[u64], b: &[u64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x & !y;
    }
}

/// The set of all `n` events.
pub fn full_set(d: Dims, out: &mut [u64]) {
    out.fill(!0);
    if !d.n.is_multiple_of(WORD) {
        out[d.w - 1] = (1 << (d.n % WORD)) - 1;
    }
}

/// The identity relation.
pub fn identity(d: Dims, out: &mut [u64]) {
    out.fill(0);
    for i in 0..d.n {
        set_bit(&mut out[i * d.w..(i + 1) * d.w], i);
    }
}

/// The identity restricted to set `s`.
pub fn identity_on(d: Dims, out: &mut [u64], s: &[u64]) {
    out.fill(0);
    for i in set_bits(s) {
        set_bit(&mut out[i * d.w..(i + 1) * d.w], i);
    }
}

/// Adds the diagonal: `out |= id`.
pub fn reflexive(d: Dims, out: &mut [u64]) {
    for i in 0..d.n {
        set_bit(&mut out[i * d.w..(i + 1) * d.w], i);
    }
}

/// The members `a` with `(a, a)` in `r`.
pub fn diagonal(d: Dims, out: &mut [u64], r: &[u64]) {
    out.fill(0);
    for i in 0..d.n {
        if bit(&r[i * d.w..(i + 1) * d.w], i) {
            set_bit(out, i);
        }
    }
}

/// Whether `r` holds some `(a, a)`.
pub fn has_diagonal(d: Dims, r: &[u64]) -> bool {
    (0..d.n).any(|i| bit(&r[i * d.w..(i + 1) * d.w], i))
}

/// `out = a × b`: the rows of `a`'s members are `b`.
pub fn cross(d: Dims, out: &mut [u64], a: &[u64], b: &[u64]) {
    for (i, row) in out.chunks_exact_mut(d.w.max(1)).take(d.n).enumerate() {
        if bit(a, i) {
            row.copy_from_slice(b);
        } else {
            row.fill(0);
        }
    }
}

/// `out = a ; b`: row `x` of the result ORs the rows of `b` named by
/// row `x` of `a`.
pub fn compose(d: Dims, out: &mut [u64], a: &[u64], b: &[u64]) {
    out.fill(0);
    let w = d.w;
    for i in 0..d.n {
        let out_row = &mut out[i * w..(i + 1) * w];
        for j in set_bits(&a[i * w..(i + 1) * w]) {
            union_with(out_row, &b[j * w..(j + 1) * w]);
        }
    }
}

/// `out = a^-1`.
pub fn inverse(d: Dims, out: &mut [u64], a: &[u64]) {
    out.fill(0);
    let w = d.w;
    for i in 0..d.n {
        for j in set_bits(&a[i * w..(i + 1) * w]) {
            set_bit(&mut out[j * w..(j + 1) * w], i);
        }
    }
}

/// Closes `r` transitively in place (Warshall, word-parallel): for each
/// midpoint `k`, every row reaching `k` absorbs row `k`.
pub fn close(d: Dims, r: &mut [u64]) {
    let w = d.w;
    for k in 0..d.n {
        let (kw, kb) = (k / WORD, k % WORD);
        for i in 0..d.n {
            if i == k || r[i * w + kw] >> kb & 1 == 0 {
                continue;
            }
            let (row_i, row_k) = if i < k {
                let (lo, hi) = r.split_at_mut(k * w);
                (&mut lo[i * w..(i + 1) * w], &hi[..w])
            } else {
                let (lo, hi) = r.split_at_mut(i * w);
                (&mut hi[..w], &lo[k * w..(k + 1) * w])
            };
            union_with(row_i, row_k);
        }
    }
}

/// The members `a` with a non-empty row.
pub fn domain(d: Dims, out: &mut [u64], r: &[u64]) {
    out.fill(0);
    for i in 0..d.n {
        if !is_empty(&r[i * d.w..(i + 1) * d.w]) {
            set_bit(out, i);
        }
    }
}

/// The OR of every row.
pub fn range(d: Dims, out: &mut [u64], r: &[u64]) {
    out.fill(0);
    for i in 0..d.n {
        union_with(out, &r[i * d.w..(i + 1) * d.w]);
    }
}

/// Scratch of [`is_cyclic`], reusable across calls.
#[derive(Debug, Default, Clone)]
pub struct CycleScratch {
    white: Vec<u64>,
    grey: Vec<u64>,
    stack: Vec<u32>,
}

/// Whether `r` has a cycle. Depth-first search over word masks: the
/// top of the stack closes a cycle when its row meets the grey set (the
/// current path), and otherwise descends into the first white
/// successor, so each step costs one pass over a row's words.
pub fn is_cyclic(d: Dims, r: &[u64], s: &mut CycleScratch) -> bool {
    let w = d.w;
    s.white.clear();
    s.white.resize(w, 0);
    full_set(d, &mut s.white);
    s.grey.clear();
    s.grey.resize(w, 0);
    s.stack.clear();
    for start in 0..d.n {
        if !bit(&s.white, start) {
            continue;
        }
        s.white[start / WORD] &= !(1 << (start % WORD));
        set_bit(&mut s.grey, start);
        s.stack.push(start as u32);
        while let Some(&u) = s.stack.last() {
            let row = &r[u as usize * w..(u as usize + 1) * w];
            let mut next = None;
            for (k, &x) in row.iter().enumerate() {
                if x & s.grey[k] != 0 {
                    return true;
                }
                if next.is_none() && x & s.white[k] != 0 {
                    next = Some(k * WORD + (x & s.white[k]).trailing_zeros() as usize);
                }
            }
            match next {
                Some(v) => {
                    s.white[v / WORD] &= !(1 << (v % WORD));
                    set_bit(&mut s.grey, v);
                    s.stack.push(v as u32);
                }
                None => {
                    s.grey[u as usize / WORD] &= !(1 << (u % WORD as u32));
                    s.stack.pop();
                }
            }
        }
    }
    false
}
