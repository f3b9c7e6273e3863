//! A lightweight in-process metrics registry.
//!
//! The service records three shapes of measurement, all named by plain
//! strings so call sites stay declarative:
//!
//! * **counters** — monotone totals (`requests_verify`, `verdict_pass`);
//! * **gauges** — instantaneous levels (`queue_depth`, `in_flight`);
//! * **histograms** — latency distributions in microseconds, as
//!   power-of-two buckets with count/sum/max, cheap enough to record on
//!   every request.
//!
//! One [`Metrics`] instance is shared across all workers and connection
//! threads behind `Arc`; the maps are `Mutex`-guarded `BTreeMap`s, so a
//! [`Metrics::snapshot`] is deterministic in key order. Contention is
//! negligible next to a SAT solve.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::Json;

/// Power-of-two latency buckets: bucket `i` counts observations with
/// `us < 2^i`, the last bucket is unbounded.
const BUCKETS: usize = 32;

#[derive(Debug, Clone)]
struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }

    fn observe(&mut self, us: u64) {
        let idx = (64 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    fn to_json(&self) -> Json {
        // Only emit the populated prefix of the bucket array.
        let top = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1);
        Json::Obj(vec![
            ("count".into(), Json::count(self.count)),
            ("sum_us".into(), Json::count(self.sum_us)),
            ("max_us".into(), Json::count(self.max_us)),
            (
                "mean_us".into(),
                Json::count(self.sum_us.checked_div(self.count).unwrap_or(0)),
            ),
            (
                "buckets_pow2".into(),
                Json::Arr(
                    self.buckets[..top]
                        .iter()
                        .map(|&c| Json::count(c))
                        .collect(),
                ),
            ),
        ])
    }
}

/// The shared registry. See the module docs.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, i64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds one to a counter, creating it at zero first if needed.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to a counter.
    pub fn add(&self, name: &str, n: u64) {
        let mut c = self.counters.lock().unwrap();
        *c.entry(name.to_string()).or_insert(0) += n;
    }

    /// Reads a counter (zero when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap()
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Sets a gauge to an absolute level.
    pub fn set_gauge(&self, name: &str, value: i64) {
        self.gauges.lock().unwrap().insert(name.to_string(), value);
    }

    /// Moves a gauge by a (possibly negative) delta.
    pub fn move_gauge(&self, name: &str, delta: i64) {
        let mut g = self.gauges.lock().unwrap();
        *g.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Reads a gauge (zero when never written).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.lock().unwrap().get(name).copied().unwrap_or(0)
    }

    /// Records one latency observation, in microseconds.
    pub fn observe_us(&self, name: &str, us: u64) {
        let mut h = self.histograms.lock().unwrap();
        h.entry(name.to_string())
            .or_insert_with(Histogram::new)
            .observe(us);
    }

    /// A deterministic (sorted-key) JSON snapshot of every metric, the
    /// payload of the `metrics` protocol verb.
    pub fn snapshot(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, &v)| (k.clone(), Json::count(v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .lock()
                .unwrap()
                .iter()
                .map(|(k, &v)| (k.clone(), Json::num(v as f64)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let m = Metrics::new();
        m.inc("requests_verify");
        m.inc("requests_verify");
        m.add("solver_conflicts_total", 41);
        assert_eq!(m.counter("requests_verify"), 2);
        assert_eq!(m.counter("solver_conflicts_total"), 41);
        assert_eq!(m.counter("never_touched"), 0);
        m.set_gauge("queue_depth", 3);
        m.move_gauge("queue_depth", -1);
        assert_eq!(m.gauge("queue_depth"), 2);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let m = Metrics::new();
        for us in [1u64, 100, 10_000, 10_000] {
            m.observe_us("verify_latency_us", us);
        }
        let snap = m.snapshot();
        let h = snap
            .get("histograms")
            .unwrap()
            .get("verify_latency_us")
            .unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(h.get("sum_us").unwrap().as_u64(), Some(20_101));
        assert_eq!(h.get("max_us").unwrap().as_u64(), Some(10_000));
    }

    #[test]
    fn snapshot_is_deterministic() {
        let m = Metrics::new();
        m.inc("b");
        m.inc("a");
        m.set_gauge("z", 1);
        assert_eq!(m.snapshot().to_string(), m.snapshot().to_string());
        // BTreeMap ordering: "a" serializes before "b".
        let text = m.snapshot().to_string();
        assert!(text.find("\"a\"").unwrap() < text.find("\"b\"").unwrap());
    }

    #[test]
    fn shared_across_threads() {
        let m = std::sync::Arc::new(Metrics::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..100 {
                        m.inc("hits");
                    }
                });
            }
        });
        assert_eq!(m.counter("hits"), 800);
    }
}
