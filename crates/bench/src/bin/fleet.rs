//! Benchmarks the fleet layer's content-addressed cache: digest cost,
//! cold/warm hit rates, and persistent reload.
//!
//! Run with: `cargo run --release -p gpumc-bench --bin fleet [-- --json]`
//!
//! `--json` additionally writes `BENCH_fleet.json` in the current
//! directory.

use std::time::Instant;

use gpumc_fleet::cache::{CachedVerdict, ResultCache};
use gpumc_fleet::digest::{source_digest, PROTOCOL_VERSION};
use gpumc_serve::json::Json;

/// The digests of the catalog's safety, liveness and figure tests at
/// bounds 1 and 2: one simulated request each.
fn workload() -> Vec<u128> {
    let mut tests = gpumc_catalog::ptx_safety_suite();
    tests.extend(gpumc_catalog::vulkan_safety_suite());
    tests.extend(gpumc_catalog::liveness_suite());
    tests.extend(gpumc_catalog::figure_tests());
    let mut digests = Vec::new();
    for t in &tests {
        for bound in 1u32..=2 {
            digests.push(
                source_digest(&t.source, None, bound, "all", "sat", PROTOCOL_VERSION)
                    .expect("catalog test digests"),
            );
        }
    }
    digests
}

fn main() {
    let json_out = gpumc_bench::flag_from_args("--json");
    let digests = workload();

    // --- digest cost: how long canonicalization takes per request
    //     (the real pipeline — parse + canonical hash — not the
    //     precomputed field).
    let tests = gpumc_catalog::figure_tests();
    let t0_digest = Instant::now();
    let mut derived = 0u64;
    for t in &tests {
        for bound in 1u32..=4 {
            std::hint::black_box(
                source_digest(&t.source, None, bound, "all", "sat", PROTOCOL_VERSION)
                    .expect("digests"),
            );
            derived += 1;
        }
    }
    let digest_us = t0_digest.elapsed().as_micros() as u64;

    // --- cache: a cold pass (every lookup misses, every verdict is
    //     inserted) followed by a warm pass (every lookup must hit).
    let cache = ResultCache::in_memory(4096);
    let mut cold_hits = 0u64;
    for &digest in &digests {
        if cache.lookup(digest).is_some() {
            cold_hits += 1;
        } else {
            cache.insert(
                digest,
                CachedVerdict {
                    test: "bench".into(),
                    reachable: false,
                    expectation: "holds".into(),
                    liveness: "ok".into(),
                    datarace: "n/a".into(),
                },
            );
        }
    }
    let t0_warm = Instant::now();
    let warm_hits = digests
        .iter()
        .filter(|&&digest| cache.lookup(digest).is_some())
        .count() as u64;
    let warm_ns = t0_warm.elapsed().as_nanos() as u64;
    // Duplicate digests in the workload (same test at the same bound
    // never repeats here, so cold hits count true duplicates).
    let unique = cache.len() as u64;

    // --- persistent store: write-through, then reopen and count reloads.
    let dir = std::env::temp_dir().join(format!("gpumc-fleet-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir bench store");
    let fingerprint = gpumc::verifier_fingerprint();
    let persistent =
        ResultCache::persistent(4096, &dir, &fingerprint).expect("open persistent cache");
    for &digest in &digests {
        persistent.insert(
            digest,
            CachedVerdict {
                test: "bench".into(),
                reachable: false,
                expectation: "holds".into(),
                liveness: "ok".into(),
                datarace: "n/a".into(),
            },
        );
    }
    drop(persistent);
    let t0_reload = Instant::now();
    let reopened = ResultCache::persistent(4096, &dir, &fingerprint).expect("reopen");
    let reload_us = t0_reload.elapsed().as_micros() as u64;
    let reloaded = reopened.stats().loaded;
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "fleet layer benchmark ({} simulated requests)",
        digests.len()
    );
    println!(
        "  digest: {derived} canonicalizations in {digest_us} us \
         ({:.1} us each)",
        digest_us as f64 / derived.max(1) as f64
    );
    println!(
        "  cache: {unique} unique digests, cold hits {cold_hits}, \
         warm hits {warm_hits}/{} ({} ns/lookup warm)",
        digests.len(),
        warm_ns / (warm_hits.max(1))
    );
    println!("  store: {reloaded} verdicts reloaded in {reload_us} us");

    assert_eq!(reloaded, unique, "the store must hold each digest once");
    assert_eq!(
        warm_hits,
        digests.len() as u64,
        "warm pass must hit every lookup"
    );

    if json_out {
        let doc = Json::Obj(vec![
            ("requests".into(), Json::count(digests.len() as u64)),
            (
                "digest".into(),
                Json::Obj(vec![
                    ("canonicalizations".into(), Json::count(derived)),
                    ("total_us".into(), Json::count(digest_us)),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("unique".into(), Json::count(unique)),
                    ("cold_hits".into(), Json::count(cold_hits)),
                    ("warm_hits".into(), Json::count(warm_hits)),
                    (
                        "warm_lookup_ns".into(),
                        Json::count(warm_ns / warm_hits.max(1)),
                    ),
                ]),
            ),
            (
                "store".into(),
                Json::Obj(vec![
                    ("reloaded".into(), Json::count(reloaded)),
                    ("reload_us".into(), Json::count(reload_us)),
                ]),
            ),
        ]);
        let path = "BENCH_fleet.json";
        std::fs::write(path, format!("{doc}\n")).expect("write BENCH_fleet.json");
        eprintln!("wrote {path}");
    }
}
