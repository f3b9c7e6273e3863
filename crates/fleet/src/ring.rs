//! Consistent-hash ring with virtual nodes: the router's shard map.
//!
//! The old assignment (`digest % shards`) reshuffles almost every
//! digest when the fleet grows or shrinks by one node, which defeats
//! the per-shard result caches exactly when the fleet is unhealthy.
//! The ring fixes that: each shard owns `vnodes` pseudo-random points
//! on a `u64` circle (FNV-1a over `"{id}#{v}"`), a digest belongs to
//! the first point at or clockwise-after its own position, and adding
//! or removing a shard moves only the digests whose owning point
//! belonged to that shard — everything else keeps its home and its
//! warm cache (`tests/ring_props.rs` checks both properties).
//!
//! Shards are identified by a caller-chosen string id and addressed by
//! a dense index that stays stable across removals, so the router can
//! keep per-shard state (its stats) in flat vectors.

/// Virtual nodes per shard. 128 points keeps the max/ideal load ratio
/// under ~2× for small fleets (the bound `tests/ring_props.rs` locks).
pub const DEFAULT_VNODES: usize = 128;

/// A consistent-hash ring. See the module docs.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Ring points sorted by position: `(position, shard index)`.
    points: Vec<(u64, usize)>,
    /// Shard ids by index; `None` marks a removed shard (indices of the
    /// survivors never shift).
    ids: Vec<Option<String>>,
    vnodes: usize,
}

impl HashRing {
    /// An empty ring placing `vnodes` points per shard (0 is clamped
    /// to 1).
    pub fn new(vnodes: usize) -> HashRing {
        HashRing {
            points: Vec::new(),
            ids: Vec::new(),
            vnodes: vnodes.max(1),
        }
    }

    /// The canonical fleet ring: shards named `s0..s{n-1}`, so a digest
    /// homes identically in the router and in any test predicting it.
    pub fn with_shards(n: usize, vnodes: usize) -> HashRing {
        let mut ring = HashRing::new(vnodes);
        for i in 0..n {
            ring.add(&format!("s{i}"));
        }
        ring
    }

    /// Adds a shard, returning its index. Re-adding a removed id
    /// revives it under a fresh index; adding a live id panics (two
    /// shards may not share points).
    pub fn add(&mut self, id: &str) -> usize {
        assert!(
            !self.ids.iter().any(|i| i.as_deref() == Some(id)),
            "shard id `{id}` already on the ring"
        );
        let idx = self.ids.len();
        self.ids.push(Some(id.to_string()));
        for v in 0..self.vnodes {
            self.points.push((vnode_position(id, v), idx));
        }
        self.points.sort_unstable();
        idx
    }

    /// Removes a shard by id; only digests it owned change hands.
    /// Returns `false` for an unknown id.
    pub fn remove(&mut self, id: &str) -> bool {
        let Some(idx) = self.ids.iter().position(|i| i.as_deref() == Some(id)) else {
            return false;
        };
        self.ids[idx] = None;
        self.points.retain(|&(_, s)| s != idx);
        true
    }

    /// Live shards on the ring.
    pub fn len(&self) -> usize {
        self.ids.iter().filter(|i| i.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The id of shard `idx`, if it is still live.
    pub fn id(&self, idx: usize) -> Option<&str> {
        self.ids.get(idx).and_then(|i| i.as_deref())
    }

    /// The shard owning `digest`: the first point clockwise from the
    /// digest's ring position. `None` on an empty ring.
    pub fn owner(&self, digest: u128) -> Option<usize> {
        let key = digest_position(digest);
        let at = self.points.partition_point(|&(pos, _)| pos < key);
        self.points
            .get(at)
            .or_else(|| self.points.first())
            .map(|&(_, shard)| shard)
    }

    /// Every live shard in clockwise preference order for `digest`:
    /// the owner first, then each distinct shard as its first point is
    /// passed. This is the failover order.
    pub fn successors(&self, digest: u128) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        if self.points.is_empty() {
            return order;
        }
        let key = digest_position(digest);
        let start = self.points.partition_point(|&(pos, _)| pos < key);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !order.contains(&shard) {
                order.push(shard);
                if order.len() == self.len() {
                    break;
                }
            }
        }
        order
    }
}

/// Ring position of one virtual node: FNV-1a over `"{id}#{v}"`.
fn vnode_position(id: &str, vnode: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(id.as_bytes());
    eat(b"#");
    eat(vnode.to_string().as_bytes());
    // Finalize (splitmix64) so ids differing in one byte still spread.
    let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Ring position of a request digest (folds the 128-bit content digest
/// onto the 64-bit circle).
fn digest_position(digest: u128) -> u64 {
    ((digest >> 64) as u64) ^ (digest as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_stable_and_total() {
        let ring = HashRing::with_shards(3, 64);
        for d in 0..100u128 {
            let a = ring.owner(d * 0x9e37_79b9).unwrap();
            let b = ring.owner(d * 0x9e37_79b9).unwrap();
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn successors_cover_every_shard_once() {
        let ring = HashRing::with_shards(4, 32);
        for d in 0..50u128 {
            let succ = ring.successors(d << 64 | d);
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            assert_eq!(succ[0], ring.owner(d << 64 | d).unwrap());
        }
    }

    #[test]
    fn removal_moves_only_the_removed_shards_digests() {
        let mut ring = HashRing::with_shards(4, 64);
        let digests: Vec<u128> = (0..500u128)
            .map(|i| i.wrapping_mul(0x1234_5678_9abc))
            .collect();
        let before: Vec<usize> = digests.iter().map(|&d| ring.owner(d).unwrap()).collect();
        assert!(ring.remove("s2"));
        assert_eq!(ring.len(), 3);
        for (&d, &was) in digests.iter().zip(&before) {
            let now = ring.owner(d).unwrap();
            if was != 2 {
                assert_eq!(now, was, "digest {d:x} moved although its owner survived");
            } else {
                assert_ne!(now, 2);
            }
        }
    }

    #[test]
    fn addition_only_steals_for_the_new_shard() {
        let mut ring = HashRing::with_shards(3, 64);
        let digests: Vec<u128> = (0..500u128)
            .map(|i| i.wrapping_mul(0x0fed_cba9_8765))
            .collect();
        let before: Vec<usize> = digests.iter().map(|&d| ring.owner(d).unwrap()).collect();
        let idx = ring.add("s3");
        for (&d, &was) in digests.iter().zip(&before) {
            let now = ring.owner(d).unwrap();
            assert!(
                now == was || now == idx,
                "digest {d:x} moved to a pre-existing shard"
            );
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(42), None);
        assert!(ring.successors(42).is_empty());
    }

    #[test]
    fn duplicate_id_panics() {
        let mut ring = HashRing::with_shards(2, 8);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ring.add("s1"))).is_err());
    }
}
