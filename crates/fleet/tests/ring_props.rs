//! Properties of the consistent-hash ring: the two guarantees the
//! router's placement and failover rest on.
//!
//! * **Load balance**: with the default 128 virtual nodes, no shard
//!   owns more than 2× its ideal share of ≥1000 uniformly-hashed
//!   digests (documented bound — vnode placement is pseudo-random, so
//!   perfect balance is not expected, but a 2× skew cap keeps the
//!   worst shard's queue within one doubling of the mean).
//! * **Minimal movement**: removing a shard re-homes only the digests
//!   it owned; adding a shard steals digests only *for* the new shard.
//!   Every other digest keeps its home — and therefore its warm
//!   result cache.

use gpumc_fleet::{HashRing, DEFAULT_VNODES};
use proptest::prelude::*;

/// splitmix64-expanded digests: uniform over the ring keyspace.
fn digests(seed: u32, n: usize) -> Vec<u128> {
    let mut x = u64::from(seed) ^ 0x5851_f42d_4c95_7f2d;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let lo = z ^ (z >> 31);
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let hi = z ^ (z >> 31);
        out.push((u128::from(hi) << 64) | u128::from(lo));
    }
    out
}

proptest! {
    /// Documented bound: max/ideal ≤ 2.0 across ≥1000 digests with the
    /// default vnode count, for fleets of 2..=8 shards.
    #[test]
    fn load_balance_within_2x_of_ideal(
        shards in 2usize..=8,
        seed in any::<u32>(),
    ) {
        let ring = HashRing::with_shards(shards, DEFAULT_VNODES);
        let sample = digests(seed, 1000);
        let mut owned = vec![0usize; shards];
        for &d in &sample {
            owned[ring.owner(d).expect("non-empty ring")] += 1;
        }
        let ideal = sample.len() as f64 / shards as f64;
        for (s, &n) in owned.iter().enumerate() {
            prop_assert!(
                (n as f64) <= 2.0 * ideal,
                "shard {s} owns {n} of {} digests (ideal {ideal:.0}, bound 2x)",
                sample.len()
            );
        }
    }

    /// Removing a shard moves exactly the digests it owned.
    #[test]
    fn removal_moves_only_the_removed_shards_digests(
        shards in 2usize..=8,
        victim in 0usize..8,
        seed in any::<u32>(),
    ) {
        let victim = victim % shards;
        let mut ring = HashRing::with_shards(shards, DEFAULT_VNODES);
        let sample = digests(seed, 1000);
        let before: Vec<usize> =
            sample.iter().map(|&d| ring.owner(d).unwrap()).collect();
        prop_assert!(ring.remove(&format!("s{victim}")));
        for (&d, &was) in sample.iter().zip(&before) {
            let now = ring.owner(d).unwrap();
            if was == victim {
                prop_assert!(now != victim, "digest {d:x} still on the removed shard");
            } else {
                prop_assert_eq!(
                    now, was,
                    "digest {:x} moved although its owner survived", d
                );
            }
        }
    }

    /// Adding a shard steals digests only for the new shard.
    #[test]
    fn addition_steals_only_for_the_new_shard(
        shards in 1usize..=7,
        seed in any::<u32>(),
    ) {
        let mut ring = HashRing::with_shards(shards, DEFAULT_VNODES);
        let sample = digests(seed, 1000);
        let before: Vec<usize> =
            sample.iter().map(|&d| ring.owner(d).unwrap()).collect();
        let new = ring.add(&format!("s{shards}"));
        let mut stolen = 0usize;
        for (&d, &was) in sample.iter().zip(&before) {
            let now = ring.owner(d).unwrap();
            prop_assert!(
                now == was || now == new,
                "digest {d:x} moved to pre-existing shard {now} (was {was})"
            );
            if now == new {
                stolen += 1;
            }
        }
        // The new shard takes a real share (at least a quarter of its
        // ideal 1/(n+1) cut) — guards against a ring that "moves
        // nothing" by never assigning to the new shard at all.
        prop_assert!(
            stolen * (shards + 1) * 4 >= sample.len(),
            "new shard took {stolen} of {} digests", sample.len()
        );
    }

    /// The successor walk is a permutation of all live shards starting
    /// at the owner — the failover order never skips or repeats.
    #[test]
    fn successors_are_a_permutation_starting_at_the_owner(
        shards in 1usize..=8,
        seed in any::<u32>(),
    ) {
        let ring = HashRing::with_shards(shards, DEFAULT_VNODES);
        for &d in &digests(seed, 50) {
            let succ = ring.successors(d);
            prop_assert_eq!(succ[0], ring.owner(d).unwrap());
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..shards).collect::<Vec<_>>());
        }
    }
}
