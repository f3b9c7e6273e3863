//! The content-addressed result cache.
//!
//! Keyed by the canonical request digest ([`crate::digest`]); holds the
//! *verdict facts* of a completed verification — exactly the fields of
//! the protocol's `verdict` object, as protocol vocabulary strings, so
//! a cache hit reproduces the response byte-identically. Two layers:
//!
//! * a bounded in-memory [`LruMap`](crate::lru::LruMap), always on;
//! * an optional persistent [`Store`](crate::store::Store) with
//!   versioned invalidation (see the store docs).
//!
//! What is *never* cached: `unknown` (budget/deadline — retrying is
//! the point), `error`, `failed`, and anything computed under an armed
//! fault plan (injected faults must not leak verdicts into steady
//! state). Callers enforce the first three by only constructing
//! [`CachedVerdict`] from a definitive outcome; the server enforces the
//! fault rule by bypassing the cache entirely for fault-armed jobs.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Mutex;

use crate::lru::LruMap;
use crate::store::{LoadReport, Store, STORE_FILE};

/// The verdict facts of one definitive verification, in protocol
/// vocabulary (`expectation`: `holds`/`fails`/`none`; `liveness`:
/// `ok`/`violation`; `datarace`: `found`/`none`/`n/a`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    pub test: String,
    pub reachable: bool,
    pub expectation: String,
    pub liveness: String,
    pub datarace: String,
}

/// What opening the cache found, sampled for the `metrics` verb.
/// Hits, misses and inserts are the server's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct digests loaded from the persistent store at open.
    pub loaded: u64,
    /// Whether the persistent store was truncated at open because its
    /// fingerprint mismatched.
    pub invalidated: bool,
    /// Torn-tail bytes truncated from the persistent store at open (a
    /// crash mid-append; the prefix survived).
    pub recovered_tail_bytes: u64,
}

/// The persistent layer: the store and the digests it already holds,
/// so that each digest is written once.
#[derive(Debug)]
struct Persisted {
    store: Store,
    on_disk: HashSet<u128>,
}

/// The cache. Thread-safe; shared across the server behind an `Arc`.
#[derive(Debug)]
pub struct ResultCache {
    lru: Mutex<LruMap<u128, CachedVerdict>>,
    store: Option<Mutex<Persisted>>,
    loaded: u64,
    invalidated: bool,
    recovered_tail_bytes: u64,
}

impl ResultCache {
    /// A purely in-memory cache of at most `capacity` verdicts.
    pub fn in_memory(capacity: usize) -> ResultCache {
        ResultCache {
            lru: Mutex::new(LruMap::new(capacity)),
            store: None,
            loaded: 0,
            invalidated: false,
            recovered_tail_bytes: 0,
        }
    }

    /// A cache backed by `dir/results.jsonl`, invalidated when
    /// `fingerprint` (the verifier build + digest scheme) changes.
    /// Entries on disk beyond `capacity` stay on disk and re-enter the
    /// LRU only on re-verification.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating `dir` or opening the store.
    pub fn persistent(
        capacity: usize,
        dir: &Path,
        fingerprint: &str,
    ) -> std::io::Result<ResultCache> {
        std::fs::create_dir_all(dir)?;
        let (store, report) = Store::open(&dir.join(STORE_FILE), fingerprint)?;
        let LoadReport {
            entries,
            invalidated,
            recovered_tail_bytes,
            ..
        } = report;
        let mut lru = LruMap::new(capacity);
        let mut on_disk = HashSet::with_capacity(entries.len());
        // File order is oldest-first; inserting in order leaves the
        // newest entries resident when the store exceeds capacity, and
        // the last line of a digest wins.
        for (digest, verdict) in entries {
            on_disk.insert(digest);
            lru.insert(digest, verdict);
        }
        let loaded = on_disk.len() as u64;
        Ok(ResultCache {
            lru: Mutex::new(lru),
            store: Some(Mutex::new(Persisted { store, on_disk })),
            loaded,
            invalidated,
            recovered_tail_bytes,
        })
    }

    /// Looks up a digest.
    pub fn lookup(&self, digest: u128) -> Option<CachedVerdict> {
        self.lru.lock().unwrap().get(&digest).cloned()
    }

    /// Records a definitive verdict, appending it to the persistent
    /// store when there is one and the digest is not on disk yet (a
    /// digest's verdict never changes under one fingerprint). Store
    /// write errors are swallowed (the disk layer is an optimization;
    /// the in-memory layer stays correct), and a failed write is retried
    /// by the next insert of the digest.
    pub fn insert(&self, digest: u128, verdict: CachedVerdict) {
        if let Some(persisted) = &self.store {
            let mut p = persisted.lock().unwrap();
            if p.on_disk.insert(digest) && p.store.append(digest, &verdict).is_err() {
                p.on_disk.remove(&digest);
            }
        }
        self.lru.lock().unwrap().insert(digest, verdict);
    }

    /// Resident (in-memory) entry count.
    pub fn len(&self) -> usize {
        self.lru.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> CacheStats {
        CacheStats {
            loaded: self.loaded,
            invalidated: self.invalidated,
            recovered_tail_bytes: self.recovered_tail_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(test: &str) -> CachedVerdict {
        CachedVerdict {
            test: test.to_string(),
            reachable: false,
            expectation: "holds".to_string(),
            liveness: "ok".to_string(),
            datarace: "none".to_string(),
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = ResultCache::in_memory(16);
        assert_eq!(c.lookup(1), None);
        c.insert(1, verdict("t"));
        assert_eq!(c.lookup(1).unwrap().test, "t");
        assert_eq!(c.lookup(2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_bound_holds() {
        let c = ResultCache::in_memory(2);
        for d in 0..10u128 {
            c.insert(d, verdict("t"));
        }
        assert_eq!(c.len(), 2);
        assert!(c.lookup(9).is_some());
        assert!(c.lookup(0).is_none());
    }

    #[test]
    fn persistent_roundtrip_and_invalidation() {
        let dir = std::env::temp_dir().join(format!("gpumc-fleet-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c = ResultCache::persistent(16, &dir, "fp-a").unwrap();
            c.insert(42, verdict("warm"));
        }
        // Same fingerprint: warm start.
        {
            let c = ResultCache::persistent(16, &dir, "fp-a").unwrap();
            assert_eq!(c.stats().loaded, 1);
            assert!(!c.stats().invalidated);
            assert_eq!(c.lookup(42).unwrap().test, "warm");
        }
        // New fingerprint: cold start, file truncated.
        {
            let c = ResultCache::persistent(16, &dir, "fp-b").unwrap();
            assert_eq!(c.stats().loaded, 0);
            assert!(c.stats().invalidated);
            assert_eq!(c.lookup(42), None);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_digest_is_written_once() {
        let dir = std::env::temp_dir().join(format!("gpumc-fleet-once-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c = ResultCache::persistent(16, &dir, "fp").unwrap();
            c.insert(7, verdict("first"));
            c.insert(7, verdict("first"));
            assert_eq!(c.len(), 1);
        }
        let text = std::fs::read_to_string(dir.join(STORE_FILE)).unwrap();
        // The header line plus one entry line.
        assert_eq!(text.lines().count(), 2, "{text}");
        {
            let c = ResultCache::persistent(16, &dir, "fp").unwrap();
            assert_eq!(c.stats().loaded, 1);
            // A digest already on disk is not appended again.
            c.insert(7, verdict("first"));
        }
        let text = std::fs::read_to_string(dir.join(STORE_FILE)).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_use_is_safe() {
        /// Four threads insert 50 distinct digests each and look every
        /// one up right after inserting it.
        fn hammer(capacity: usize, must_hit: bool) -> ResultCache {
            let c = std::sync::Arc::new(ResultCache::in_memory(capacity));
            std::thread::scope(|s| {
                for t in 0..4u128 {
                    let c = std::sync::Arc::clone(&c);
                    s.spawn(move || {
                        for i in 0..50u128 {
                            let d = t * 1000 + i;
                            c.insert(d, verdict(&d.to_string()));
                            match c.lookup(d) {
                                Some(v) => assert_eq!(v.test, d.to_string(), "digest {d}"),
                                None => assert!(!must_hit, "digest {d} missed"),
                            }
                        }
                    });
                }
            });
            std::sync::Arc::into_inner(c).unwrap()
        }
        // Capacity 64 < 200: other threads may evict a digest between
        // its insert and its lookup, so only a hit's contents are
        // checked.
        let c = hammer(64, false);
        assert!(c.len() <= 64);
        // Room for all 200: nothing is evicted, every lookup hits, and
        // every digest is still there afterwards.
        let c = hammer(256, true);
        assert_eq!(c.len(), 200);
        for t in 0..4u128 {
            for i in 0..50u128 {
                let d = t * 1000 + i;
                assert_eq!(c.lookup(d).map(|v| v.test), Some(d.to_string()));
            }
        }
    }
}
