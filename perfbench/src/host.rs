//! Host-side measurements: the CPU-speed probe and process memory.

use std::time::Instant;

/// One run of a fixed, benchmark-owned CPU loop, ms. Timed before and
/// after every run as `host.probe_ms`: a diagnostic of host speed drift,
/// never folded into any metric.
fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut acc = 0u64;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1000.0
}

/// Median of three probes.
pub fn probe() -> f64 {
    crate::stats::median_of((0..3).map(|_| probe_ms()).collect())
}

/// A `Vm*` field of `/proc/<pid>/status`, in MB.
pub fn vm_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
