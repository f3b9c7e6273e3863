//! Per-layer accumulation for the traced run: per-verdict times of each
//! layer and counters, turned into the `per_layer` metrics.
//!
//! Spans are taken by the benchmark around its own calls into a layer
//! (`parse_litmus`, `parse_spirv` + `lower`, `check_all`, the client
//! round trip); the split inside `check_all` comes from the program's
//! public outputs (`FullOutcome::phases`, `SimplifyStats`, the solver
//! query records, `Stats::time_us` and `DporStats`, and a serve
//! response's `phases` and `time_us`).

use std::collections::BTreeMap;

use crate::stats;

/// Every time layer, as `<layer>_ms` (p50 per verdict that ran it) and
/// `<layer>.share` (its sum over the sum of verdict times, percent).
pub const TIME_LAYERS: [&str; 13] = [
    "litmus.parse",
    "spirv.lower",
    "ir.compile",
    "encode.bounds",
    "encode.build",
    "sat.simplify",
    "encode.query",
    "exec.dpor",
    "core.other",
    "serve.hop",
    "serve.server",
    "serve.queue_wait",
    "fleet.hit_server",
];

/// Counters, summed over the timed sequence.
pub const COUNTS: [&str; 6] = [
    "encode.clauses",
    "sat.simplify.clauses_removed",
    "sat.conflicts",
    "sat.propagations",
    "exec.dpor.explored",
    "exec.dpor.pruned_co",
];

/// Single-valued per-layer metrics, with their units.
pub const EXTRAS: [(&str, &str); 6] = [
    ("exec.dpor.us_per_check", "us"),
    ("fleet.cache_hit_ratio", "ratio"),
    ("serve.rss_growth_mb", "MB"),
    ("models.load_ms", "ms"),
    ("host.probe_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One per-layer metric as printed.
#[derive(Debug, Clone)]
pub struct LayerMetric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

#[derive(Debug, Default, Clone)]
pub struct Layers {
    times: BTreeMap<&'static str, Vec<f64>>,
    /// Sum and number of observations.
    counts: BTreeMap<&'static str, (f64, usize)>,
    /// Sum of the verdict times the shares are taken against, ms.
    verdict_ms: f64,
    /// Value and n of each `EXTRAS` entry that was measured.
    extras: BTreeMap<&'static str, (f64, usize)>,
    /// Time spent recording all of the above, ms: what a traced run does
    /// on top of the untraced one.
    tracing_ms: f64,
}

impl Layers {
    pub fn time(&mut self, layer: &'static str, ms: f64) {
        debug_assert!(TIME_LAYERS.contains(&layer), "{layer}");
        self.times.entry(layer).or_default().push(ms.max(0.0));
    }

    pub fn count(&mut self, counter: &'static str, n: f64) {
        debug_assert!(COUNTS.contains(&counter), "{counter}");
        let c = self.counts.entry(counter).or_default();
        c.0 += n;
        c.1 += 1;
    }

    pub fn verdict(&mut self, ms: f64) {
        self.verdict_ms += ms;
    }

    pub fn tracing(&mut self, ms: f64) {
        self.tracing_ms += ms;
    }

    /// Tracing overhead: recording time as a percentage of verdict time.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * self.tracing_ms / self.verdict_ms
    }

    pub fn sum(&self, layer: &str) -> f64 {
        self.times.get(layer).map_or(0.0, |v| v.iter().sum())
    }

    pub fn counted(&self, counter: &str) -> f64 {
        self.counts.get(counter).map_or(0.0, |c| c.0)
    }

    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        debug_assert!(EXTRAS.iter().any(|(e, _)| *e == name), "{name}");
        self.extras.insert(name, (value, n));
    }

    /// Times every SAT layer of one `check_all` answer from its public
    /// outputs; `verdict_ms` and `parse_ms` are the benchmark's own spans.
    pub fn sat_outcome(&mut self, o: &gpumc::FullOutcome, verdict_ms: f64, parse_ms: f64) {
        let us = |x: u64| x as f64 / 1000.0;
        let simplify = o.simplify.map_or(0, |s| s.time_us);
        let compile = us(o.phases.compile_us);
        let bounds = us(o.phases.bounds_us);
        let encode = us(o.phases.encode_us);
        let solve = us(o.phases.solve_us);
        self.time("litmus.parse", parse_ms);
        self.time("ir.compile", compile);
        self.time("encode.bounds", bounds);
        self.time("sat.simplify", us(simplify));
        self.time("encode.build", encode - us(simplify));
        self.time("encode.query", solve);
        self.time(
            "core.other",
            verdict_ms - parse_ms - compile - bounds - encode - solve,
        );
        self.count("encode.clauses", o.assertion.stats.sat_clauses as f64);
        if let Some(s) = o.simplify {
            self.count(
                "sat.simplify.clauses_removed",
                s.clauses_before.saturating_sub(s.clauses_after) as f64,
            );
        }
        for q in &o.queries {
            self.count("sat.conflicts", q.stats.conflicts as f64);
            self.count("sat.propagations", q.stats.propagations as f64);
        }
        self.verdict(verdict_ms);
    }

    /// The `per_layer` metrics, in a fixed order: every time layer, every
    /// counter, then the single-valued extras. Layers a workload does
    /// not exercise read 0 with n = 0.
    pub fn metrics(&self) -> Vec<LayerMetric> {
        let mut out = Vec::new();
        for layer in TIME_LAYERS {
            let v = self.times.get(layer).map_or(&[][..], Vec::as_slice);
            out.push(LayerMetric {
                name: format!("{layer}_ms"),
                value: stats::p50(v),
                unit: "ms",
                n: v.len(),
            });
            let share = if v.is_empty() {
                0.0
            } else {
                100.0 * v.iter().sum::<f64>() / self.verdict_ms
            };
            out.push(LayerMetric {
                name: format!("{layer}.share"),
                value: share,
                unit: "%",
                n: v.len(),
            });
        }
        for counter in COUNTS {
            let (value, n) = self.counts.get(counter).copied().unwrap_or_default();
            out.push(LayerMetric {
                name: counter.to_string(),
                value,
                unit: "count",
                n,
            });
        }
        for (name, unit) in EXTRAS {
            let (value, n) = self.extras.get(name).copied().unwrap_or_default();
            out.push(LayerMetric {
                name: name.to_string(),
                value,
                unit,
                n,
            });
        }
        out
    }
}
