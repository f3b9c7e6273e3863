//! The arena kernels against a naive evaluation over pair sets.
//!
//! Every evaluator (the relation analysis, the interpreter, and the
//! owned `Relation`/`EventSet` values) runs these kernels, so each one is
//! compared with a textbook `BTreeSet<(u32, u32)>` evaluation on random
//! relations. The universes straddle word boundaries: litmus tests stay
//! within one word per row, so only this test and the kernel-scale gates
//! exercise the multi-word paths.

use std::collections::BTreeSet;

use gpumc_exec::arena::{self, CycleScratch, Dims};

type Pairs = BTreeSet<(u32, u32)>;
type Members = BTreeSet<u32>;

const SIZES: [usize; 6] = [1, 7, 63, 64, 65, 130];

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

    /// About `n * density` random pairs.
    fn pairs(&mut self, n: usize, density: f64) -> Pairs {
        let count = ((n as f64) * density).ceil() as usize;
        (0..count).map(|_| (self.below(n), self.below(n))).collect()
    }

    fn members(&mut self, n: usize) -> Members {
        (0..n as u32)
            .filter(|_| self.next().is_multiple_of(3))
            .collect()
    }
}

fn rel_words(d: Dims, r: &Pairs) -> Vec<u64> {
    let mut w = vec![0; d.rel_len()];
    for &(a, b) in r {
        w[a as usize * d.w + b as usize / 64] |= 1 << (b % 64);
    }
    w
}

fn set_words(d: Dims, s: &Members) -> Vec<u64> {
    let mut w = vec![0; d.set_len()];
    for &e in s {
        w[e as usize / 64] |= 1 << (e % 64);
    }
    w
}

fn pairs_of(d: Dims, w: &[u64]) -> Pairs {
    let mut out = Pairs::new();
    for a in 0..d.n {
        for b in 0..d.n {
            if w[a * d.w + b / 64] >> (b % 64) & 1 == 1 {
                out.insert((a as u32, b as u32));
            }
        }
    }
    // Bits past `n` in a row must stay clear.
    assert_eq!(
        w.iter().map(|x| x.count_ones() as usize).sum::<usize>(),
        out.len()
    );
    out
}

fn members_of(d: Dims, w: &[u64]) -> Members {
    let out: Members = (0..d.n as u32)
        .filter(|&e| w[e as usize / 64] >> (e % 64) & 1 == 1)
        .collect();
    assert_eq!(
        w.iter().map(|x| x.count_ones() as usize).sum::<usize>(),
        out.len()
    );
    out
}

fn compose(r: &Pairs, s: &Pairs) -> Pairs {
    let mut out = Pairs::new();
    for &(a, b) in r {
        for &(b2, c) in s {
            if b == b2 {
                out.insert((a, c));
            }
        }
    }
    out
}

/// `r+`: every `(a, c)` with a non-empty `r`-path from `a` to `c`.
fn closure(r: &Pairs) -> Pairs {
    let mut out = Pairs::new();
    for &(a, _) in r {
        let mut todo: Vec<u32> = vec![a];
        while let Some(x) = todo.pop() {
            for &(_, y) in r.range((x, 0)..=(x, u32::MAX)) {
                if out.insert((a, y)) {
                    todo.push(y);
                }
            }
        }
    }
    out
}

fn identity(n: usize) -> Pairs {
    (0..n as u32).map(|i| (i, i)).collect()
}

/// Runs `f` on fresh output words and returns them.
fn out_rel(d: Dims, f: impl FnOnce(&mut [u64])) -> Pairs {
    // Garbage in the output must not leak into the result.
    let mut w = vec![!0u64; d.rel_len()];
    f(&mut w);
    pairs_of(d, &w)
}

fn out_set(d: Dims, f: impl FnOnce(&mut [u64])) -> Members {
    let mut w = vec![!0u64; d.set_len()];
    f(&mut w);
    members_of(d, &w)
}

#[test]
fn kernels_match_the_pair_set_reference() {
    let mut rng = Rng(0x5eed);
    let mut scratch = CycleScratch::default();
    for n in SIZES {
        let d = Dims::new(n);
        for density in [0.5, 1.0, 3.0] {
            for _ in 0..4 {
                let (r, s) = (rng.pairs(n, density), rng.pairs(n, density));
                let (a, b) = (rng.members(n), rng.members(n));
                let (rw, sw) = (rel_words(d, &r), rel_words(d, &s));
                let (aw, bw) = (set_words(d, &a), set_words(d, &b));
                let at = format!("n={n} density={density}");

                let union: Pairs = r.union(&s).copied().collect();
                let inter: Pairs = r.intersection(&s).copied().collect();
                let diff: Pairs = r.difference(&s).copied().collect();
                assert_eq!(out_rel(d, |o| arena::union(o, &rw, &sw)), union, "{at}");
                assert_eq!(out_rel(d, |o| arena::inter(o, &rw, &sw)), inter, "{at}");
                assert_eq!(out_rel(d, |o| arena::diff(o, &rw, &sw)), diff, "{at}");
                let mut w = rw.clone();
                arena::union_with(&mut w, &sw);
                assert_eq!(pairs_of(d, &w), union, "{at}");
                let mut w = rw.clone();
                arena::inter_with(&mut w, &sw);
                assert_eq!(pairs_of(d, &w), inter, "{at}");
                let mut w = rw.clone();
                arena::diff_with(&mut w, &sw);
                assert_eq!(pairs_of(d, &w), diff, "{at}");

                assert_eq!(
                    out_rel(d, |o| arena::compose(d, o, &rw, &sw)),
                    compose(&r, &s),
                    "{at}"
                );
                let inverse: Pairs = r.iter().map(|&(x, y)| (y, x)).collect();
                assert_eq!(out_rel(d, |o| arena::inverse(d, o, &rw)), inverse, "{at}");

                let plus = closure(&r);
                let mut w = rw.clone();
                arena::close(d, &mut w);
                assert_eq!(pairs_of(d, &w), plus, "{at}: r+");
                arena::reflexive(d, &mut w);
                let star: Pairs = plus.union(&identity(n)).copied().collect();
                assert_eq!(pairs_of(d, &w), star, "{at}: r*");
                let mut w = rw.clone();
                arena::reflexive(d, &mut w);
                let opt: Pairs = r.union(&identity(n)).copied().collect();
                assert_eq!(pairs_of(d, &w), opt, "{at}: r?");

                let cross: Pairs = a
                    .iter()
                    .flat_map(|&x| b.iter().map(move |&y| (x, y)))
                    .collect();
                assert_eq!(out_rel(d, |o| arena::cross(d, o, &aw, &bw)), cross, "{at}");
                let id_on: Pairs = a.iter().map(|&x| (x, x)).collect();
                assert_eq!(out_rel(d, |o| arena::identity_on(d, o, &aw)), id_on, "{at}");
                assert_eq!(out_rel(d, |o| arena::identity(d, o)), identity(n), "{at}");

                let domain: Members = r.iter().map(|&(x, _)| x).collect();
                let range: Members = r.iter().map(|&(_, y)| y).collect();
                let diagonal: Members = r.iter().filter(|(x, y)| x == y).map(|&(x, _)| x).collect();
                assert_eq!(out_set(d, |o| arena::domain(d, o, &rw)), domain, "{at}");
                assert_eq!(out_set(d, |o| arena::range(d, o, &rw)), range, "{at}");
                assert_eq!(out_set(d, |o| arena::diagonal(d, o, &rw)), diagonal, "{at}");
                assert_eq!(
                    out_set(d, |o| arena::full_set(d, o)),
                    (0..n as u32).collect::<Members>(),
                    "{at}"
                );
                assert_eq!(arena::has_diagonal(d, &rw), !diagonal.is_empty(), "{at}");
                assert_eq!(arena::is_empty(&rw), r.is_empty(), "{at}");
                assert_eq!(arena::count(&rw), r.len(), "{at}");

                let cyclic = plus.iter().any(|(x, y)| x == y);
                assert_eq!(
                    arena::is_cyclic(d, &rw, &mut scratch),
                    cyclic,
                    "{at}: cycle"
                );
            }
        }
    }
}

#[test]
fn cycle_check_on_chains_and_rings() {
    // Long paths in both directions stay acyclic; closing them makes a
    // cycle, wherever the closing edge sits relative to word boundaries.
    let mut scratch = CycleScratch::default();
    for n in SIZES {
        let d = Dims::new(n);
        let up: Pairs = (1..n as u32).map(|i| (i - 1, i)).collect();
        let down: Pairs = (1..n as u32).map(|i| (i, i - 1)).collect();
        for chain in [&up, &down] {
            assert!(
                !arena::is_cyclic(d, &rel_words(d, chain), &mut scratch),
                "n={n}"
            );
        }
        let mut ring = up.clone();
        ring.insert((n as u32 - 1, 0));
        assert!(
            arena::is_cyclic(d, &rel_words(d, &ring), &mut scratch),
            "n={n}"
        );
        assert!(!arena::is_cyclic(d, &vec![0; d.rel_len()], &mut scratch));
    }
    assert!(!arena::is_cyclic(Dims::new(0), &[], &mut scratch));
}

#[test]
fn rank_counts_the_members_before_a_position() {
    let mut rng = Rng(0x7a4e);
    for n in SIZES {
        let d = Dims::new(n);
        for _ in 0..4 {
            let s = rng.members(n);
            let w = set_words(d, &s);
            for i in 0..n {
                let want = s.range(..i as u32).count();
                assert_eq!(arena::rank(&w, i), want, "n={n}, i={i}");
            }
        }
    }
}
