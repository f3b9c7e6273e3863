//! The batch workload, litmus-sat, on one thread with the verifier's
//! default options: SAT for litmus tests, DPOR for SPIR-V kernels.

use std::time::Instant;

use gpumc::gpumc_models::{load_shared, ModelKind};
use gpumc::gpumc_spirv as spirv;
use gpumc::{EngineKind, Verifier};

use crate::inputs::{Input, Text};
use crate::layers::Layers;
use crate::oracle::{self, Verdict};

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// Answers one input from its source text. With `layers`, also records
/// the per-layer split; the calls made are the same either way.
pub fn verify(input: &Input, layers: Option<&mut Layers>) -> (f64, Result<Verdict, String>) {
    match input.text {
        Text::Spirv { .. } => verify_kernel(input, layers),
        Text::Litmus(_) => verify_litmus(input, layers),
    }
}

fn verify_litmus(input: &Input, layers: Option<&mut Layers>) -> (f64, Result<Verdict, String>) {
    let t0 = Instant::now();
    let program = match gpumc::parse_litmus(input.litmus()) {
        Ok(p) => p,
        Err(e) => return (ms(t0), Err(e.to_string())),
    };
    let parse_ms = layers.is_some().then(|| ms(t0));
    let outcome = Verifier::new(load_shared(input.model))
        .with_bound(input.bound)
        .check_all(&program);
    let total = ms(t0);
    match outcome {
        Ok(o) => {
            if let (Some(l), Some(parse_ms)) = (layers, parse_ms) {
                let t = Instant::now();
                l.sat_outcome(&o, total, parse_ms);
                l.tracing(ms(t));
            }
            (total, Ok(Verdict::of_full(&o)))
        }
        Err(e) => (total, Err(e.to_string())),
    }
}

fn verify_kernel(input: &Input, layers: Option<&mut Layers>) -> (f64, Result<Verdict, String>) {
    let Text::Spirv { text, grid } = &input.text else {
        panic!("{} is not a kernel", input.label);
    };
    let t0 = Instant::now();
    let program = match spirv::parse_spirv(text)
        .map_err(|e| e.to_string())
        .and_then(|m| spirv::lower(&m, *grid).map_err(|e| e.to_string()))
    {
        Ok(p) => p,
        Err(e) => return (ms(t0), Err(e)),
    };
    let lower_ms = layers.is_some().then(|| ms(t0));
    let checked = Instant::now();
    let outcome = Verifier::new(load_shared(ModelKind::Vulkan))
        .with_bound(input.bound)
        .with_engine(EngineKind::Dpor)
        .check_data_races(&program);
    let check_ms = ms(checked);
    let total = ms(t0);
    match outcome {
        Ok(o) => {
            if let (Some(l), Some(lower_ms)) = (layers, lower_ms) {
                let t = Instant::now();
                // `Stats::time_us` covers the exploration after
                // compilation; the rest of the call is unroll + compile.
                let dpor = o.stats.time_us as f64 / 1000.0;
                l.time("spirv.lower", lower_ms);
                l.time("exec.dpor", dpor);
                l.time("ir.compile", check_ms - dpor);
                l.time("core.other", total - lower_ms - check_ms);
                if let Some(d) = o.stats.dpor {
                    l.count("exec.dpor.explored", d.explored as f64);
                    l.count("exec.dpor.pruned_co", d.pruned_co as f64);
                }
                l.verdict(total);
                l.tracing(ms(t));
            }
            let v = Verdict {
                datarace: Some(o.violated),
                ..Verdict::default()
            };
            (total, Ok(v))
        }
        Err(e) => (total, Err(e.to_string())),
    }
}

/// The outcome of processing one sequence.
#[derive(Debug, Default)]
pub struct Pass {
    /// Per-verdict times, ms, in sequence order.
    pub times: Vec<f64>,
    pub wall_s: f64,
    /// `label: reason` of every failed operation.
    pub failures: Vec<String>,
}

/// Processes `seq` (indices into `pool`), checking every verdict.
pub fn run(pool: &[Input], seq: &[usize], mut layers: Option<&mut Layers>) -> Pass {
    let mut pass = Pass {
        times: Vec::with_capacity(seq.len()),
        ..Pass::default()
    };
    let start = Instant::now();
    for &i in seq {
        let input = &pool[i];
        let (t, verdict) = verify(input, layers.as_deref_mut());
        pass.times.push(t);
        if let Err(e) = verdict.and_then(|v| oracle::check(&input.reference, &v)) {
            pass.failures.push(format!("{}: {e}", input.label));
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}
