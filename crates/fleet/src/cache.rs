//! The content-addressed result cache.
//!
//! Keyed by the canonical request digest ([`crate::digest`]); holds the
//! wire `verdict` object of a completed verification, exactly as the
//! fresh answer carried it, so a cache hit reproduces that object
//! byte-identically. The cache is a bounded in-memory
//! [`LruMap`](crate::lru::LruMap): no verdict outlives the process that
//! computed it.
//!
//! Each object is held as its rendered wire text and parsed back on a
//! hit. The text takes about a fifth of the memory of the [`Json`] tree,
//! which repeats the five key strings and a pair vector per verdict: at
//! the default 4,096 entries, trees would raise a server's peak RSS by
//! ~1.2 MB (perfbench serve-mix on a 2-vCPU host: 8.7 against 7.5 MB).
//!
//! What is *never* cached: `unknown` (budget/deadline — retrying is
//! the point), `error`, `failed`, and anything computed under an armed
//! fault plan (injected faults must not leak verdicts into steady
//! state). Callers enforce the first three by inserting only the
//! verdict of a definitive outcome; the server enforces the fault rule
//! by bypassing the cache entirely for fault-armed jobs.

use std::sync::{Mutex, MutexGuard};

use crate::json::Json;
use crate::lru::LruMap;

/// The cache. Thread-safe; shared across the server behind an `Arc`.
#[derive(Debug)]
pub struct ResultCache {
    lru: Mutex<LruMap<u128, Box<str>>>,
}

impl ResultCache {
    /// A cache of at most `capacity` verdicts.
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            lru: Mutex::new(LruMap::new(capacity)),
        }
    }

    fn lru(&self) -> MutexGuard<'_, LruMap<u128, Box<str>>> {
        self.lru
            .lock()
            .expect("nothing panics while holding the cache lock")
    }

    /// Looks up a digest. Text that does not parse back, which only a
    /// printer/parser disagreement could leave, is a miss.
    pub fn lookup(&self, digest: u128) -> Option<Json> {
        Json::parse(self.lru().get(&digest)?).ok()
    }

    /// Records the verdict object of a definitive verification.
    pub fn insert(&self, digest: u128, verdict: &Json) {
        let text = verdict.to_string().into_boxed_str();
        self.lru().insert(digest, text);
    }

    /// Resident entry count.
    pub fn len(&self) -> usize {
        self.lru().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(test: &str) -> Json {
        Json::Obj(vec![
            ("test".into(), Json::str(test)),
            ("reachable".into(), Json::Bool(true)),
        ])
    }

    fn test_name(v: &Json) -> Option<String> {
        v.get("test").and_then(Json::as_str).map(str::to_string)
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = ResultCache::new(16);
        assert_eq!(c.lookup(1), None);
        // The object comes back as it went in, escapes included.
        let v = verdict("t \"2+2W\" \\ é");
        c.insert(1, &v);
        assert_eq!(c.lookup(1), Some(v));
        assert_eq!(c.lookup(2), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_bound_holds() {
        let c = ResultCache::new(2);
        for d in 0..10u128 {
            c.insert(d, &verdict("t"));
        }
        assert_eq!(c.len(), 2);
        assert!(c.lookup(9).is_some());
        assert!(c.lookup(0).is_none());
    }

    #[test]
    fn concurrent_use_is_safe() {
        /// Four threads insert 50 distinct digests each and look every
        /// one up right after inserting it.
        fn hammer(capacity: usize, must_hit: bool) -> ResultCache {
            let c = std::sync::Arc::new(ResultCache::new(capacity));
            std::thread::scope(|s| {
                for t in 0..4u128 {
                    let c = std::sync::Arc::clone(&c);
                    s.spawn(move || {
                        for i in 0..50u128 {
                            let d = t * 1000 + i;
                            c.insert(d, &verdict(&d.to_string()));
                            match c.lookup(d) {
                                Some(v) => {
                                    assert_eq!(test_name(&v), Some(d.to_string()), "digest {d}")
                                }
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
                assert_eq!(
                    c.lookup(d).as_ref().and_then(test_name),
                    Some(d.to_string())
                );
            }
        }
    }
}
