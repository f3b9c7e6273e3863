//! Admission control and graceful degradation (brownout) for the
//! verification daemon.
//!
//! Under overload the server walks a *degradation ladder* instead of
//! falling over (DESIGN.md §18):
//!
//! ```text
//!   full ──► cache-only ──► shed
//! ```
//!
//! * **full** — normal operation.
//! * **cache-only** — the content-addressed result cache answers
//!   wherever it can, *including* requests that opted out with
//!   `"cache": false` (a stale-tolerant answer beats no answer; the
//!   response carries a `degraded` block saying so).
//! * **shed** — new verify work is refused with `status:"shed"`; only
//!   cache hits are still answered. A shed request was never accepted,
//!   so resubmitting later is always safe.
//!
//! The ladder is driven by *queue pressure* (occupancy over capacity)
//! with hysteresis: rising pressure engages a level immediately, but a
//! level disengages only when pressure falls a margin *below* its
//! engage threshold, so the server cannot flap across a threshold at
//! queue-noise frequency.
//!
//! Orthogonally, a *deadline admission gate* predicts each job's
//! completion time from the scheduler's queued cost and an EWMA of
//! observed service time per unit cost; a job whose deadline would
//! already be blown in the queue is shed at the door rather than
//! accepted, timed out, and answered `unknown` after burning a worker.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// The degradation ladder, least to most degraded. Ordering is
/// meaningful: `level >= CacheOnly` means "cache-only measures are
/// active". The discriminants are the `degraded_level` gauge values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DegradeLevel {
    /// Normal operation.
    Full = 0,
    /// Serve from cache wherever possible, even past `"cache":false`.
    CacheOnly = 1,
    /// Refuse new verify work (`status:"shed"`); cache hits still serve.
    Shed = 3,
}

impl DegradeLevel {
    /// The wire name used in `degraded` blocks, metrics, and the CLI.
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Full => "full",
            DegradeLevel::CacheOnly => "cache-only",
            DegradeLevel::Shed => "shed",
        }
    }

    /// Parses a wire name (the CLI's `--degrade-level` values).
    ///
    /// # Errors
    ///
    /// A message listing the valid names.
    pub fn parse(s: &str) -> Result<DegradeLevel, String> {
        match s {
            "full" => Ok(DegradeLevel::Full),
            "cache-only" => Ok(DegradeLevel::CacheOnly),
            "shed" => Ok(DegradeLevel::Shed),
            other => Err(format!(
                "unknown degrade level `{other}` (expected full, cache-only, or shed)"
            )),
        }
    }

    fn from_u8(v: u8) -> DegradeLevel {
        match v {
            0 => DegradeLevel::Full,
            1 => DegradeLevel::CacheOnly,
            _ => DegradeLevel::Shed,
        }
    }
}

/// Queue-pressure thresholds (fractions of queue capacity) at which
/// each ladder level engages, plus the hysteresis margin for falling
/// back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPolicy {
    /// Pressure at which `cache-only` engages.
    pub cache_only_at: f64,
    /// Pressure at which `shed` engages (the high-water mark).
    pub shed_at: f64,
    /// A level disengages only when pressure drops below its engage
    /// threshold minus this margin.
    pub hysteresis: f64,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        OverloadPolicy {
            cache_only_at: 0.60,
            shed_at: 0.90,
            hysteresis: 0.10,
        }
    }
}

impl OverloadPolicy {
    fn engage_threshold(&self, level: DegradeLevel) -> f64 {
        match level {
            DegradeLevel::Full => 0.0,
            DegradeLevel::CacheOnly => self.cache_only_at,
            DegradeLevel::Shed => self.shed_at,
        }
    }

    /// The level raw `pressure` maps to, ignoring hysteresis.
    fn target(&self, pressure: f64) -> DegradeLevel {
        if pressure >= self.shed_at {
            DegradeLevel::Shed
        } else if pressure >= self.cache_only_at {
            DegradeLevel::CacheOnly
        } else {
            DegradeLevel::Full
        }
    }
}

/// One hysteresis step: where the ladder moves from `current` under
/// `pressure`. Rising is immediate; falling requires pressure below the
/// current level's engage threshold minus the hysteresis margin.
pub fn next_level(current: DegradeLevel, pressure: f64, policy: &OverloadPolicy) -> DegradeLevel {
    let target = policy.target(pressure);
    if target >= current || pressure < policy.engage_threshold(current) - policy.hysteresis {
        target
    } else {
        current
    }
}

/// Shared overload state: the active ladder level plus the service-time
/// model feeding the deadline admission gate. Lock-free; sampled on
/// every dispatch.
#[derive(Debug)]
pub struct Overload {
    policy: OverloadPolicy,
    /// Pinned level (`--degrade-level`); `u8::MAX` means unpinned.
    force: Option<DegradeLevel>,
    level: AtomicU8,
    /// EWMA of observed service nanoseconds per unit predicted cost;
    /// `0` means "no observation yet" and disables deadline admission
    /// (an unseeded model must not shed real work on a guess).
    ns_per_cost: AtomicU64,
}

impl Overload {
    pub fn new(policy: OverloadPolicy, force: Option<DegradeLevel>) -> Overload {
        Overload {
            policy,
            force,
            level: AtomicU8::new(force.unwrap_or(DegradeLevel::Full) as u8),
            ns_per_cost: AtomicU64::new(0),
        }
    }

    /// The active ladder level.
    pub fn level(&self) -> DegradeLevel {
        DegradeLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Re-evaluates the ladder against current queue occupancy and
    /// returns the (possibly new) level. A pinned level never moves.
    pub fn update(&self, queue_len: usize, queue_capacity: usize) -> DegradeLevel {
        if let Some(pinned) = self.force {
            return pinned;
        }
        let pressure = queue_len as f64 / queue_capacity.max(1) as f64;
        loop {
            let current = self.level.load(Ordering::Relaxed);
            let next = next_level(DegradeLevel::from_u8(current), pressure, &self.policy);
            if next as u8 == current {
                return next;
            }
            if self
                .level
                .compare_exchange(current, next as u8, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return next;
            }
        }
    }

    /// Feeds one completed job's service time into the EWMA
    /// (`new = (7·old + observed) / 8`; the first observation seeds it).
    pub fn observe_service(&self, cost: u64, service_ns: u64) {
        let obs = (service_ns / cost.max(1)).max(1);
        loop {
            let old = self.ns_per_cost.load(Ordering::Relaxed);
            let new = if old == 0 { obs } else { (7 * old + obs) / 8 };
            if self
                .ns_per_cost
                .compare_exchange(old, new, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// The model's current estimate, for metrics. `0` = unseeded.
    pub fn ns_per_cost(&self) -> u64 {
        self.ns_per_cost.load(Ordering::Relaxed)
    }

    /// Predicted wall milliseconds until a job of `job_cost` completes,
    /// given `queued_cost` already ahead of it spread over `workers`.
    /// `None` until the model has seen at least one real job.
    pub fn predicted_completion_ms(
        &self,
        queued_cost: u64,
        job_cost: u64,
        workers: usize,
    ) -> Option<u64> {
        let npc = self.ns_per_cost.load(Ordering::Relaxed);
        if npc == 0 {
            return None;
        }
        let total = queued_cost.saturating_add(job_cost);
        let ns = total
            .saturating_mul(npc)
            .checked_div(workers.max(1) as u64)
            .unwrap_or(u64::MAX);
        Some(ns / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rises_immediately_with_pressure() {
        let p = OverloadPolicy::default();
        assert_eq!(next_level(DegradeLevel::Full, 0.2, &p), DegradeLevel::Full);
        assert_eq!(
            next_level(DegradeLevel::Full, 0.60, &p),
            DegradeLevel::CacheOnly
        );
        assert_eq!(
            next_level(DegradeLevel::Full, 0.80, &p),
            DegradeLevel::CacheOnly
        );
        assert_eq!(
            next_level(DegradeLevel::Full, 0.95, &p),
            DegradeLevel::Shed,
            "rising skips intermediate rungs"
        );
    }

    #[test]
    fn ladder_falls_only_past_the_hysteresis_margin() {
        let p = OverloadPolicy::default();
        // Shed engaged at 0.90: pressure just below the threshold is not
        // enough to disengage...
        assert_eq!(next_level(DegradeLevel::Shed, 0.85, &p), DegradeLevel::Shed);
        // ...but below 0.90 − 0.10 it falls to wherever pressure maps.
        assert_eq!(
            next_level(DegradeLevel::Shed, 0.79, &p),
            DegradeLevel::CacheOnly
        );
        assert_eq!(next_level(DegradeLevel::Shed, 0.10, &p), DegradeLevel::Full);
        assert_eq!(
            next_level(DegradeLevel::CacheOnly, 0.55, &p),
            DegradeLevel::CacheOnly,
            "inside the margin: hold"
        );
        assert_eq!(
            next_level(DegradeLevel::CacheOnly, 0.49, &p),
            DegradeLevel::Full
        );
    }

    #[test]
    fn pinned_level_never_moves() {
        let o = Overload::new(OverloadPolicy::default(), Some(DegradeLevel::Shed));
        assert_eq!(o.update(0, 64), DegradeLevel::Shed);
        assert_eq!(o.level(), DegradeLevel::Shed);
    }

    #[test]
    fn update_tracks_queue_occupancy() {
        let o = Overload::new(OverloadPolicy::default(), None);
        assert_eq!(o.update(10, 64), DegradeLevel::Full);
        assert_eq!(o.update(62, 64), DegradeLevel::Shed);
        // Hysteresis: holding at 55/64 ≈ 0.86 keeps shed engaged.
        assert_eq!(o.update(55, 64), DegradeLevel::Shed);
        assert_eq!(o.update(0, 64), DegradeLevel::Full);
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let o = Overload::new(OverloadPolicy::default(), None);
        assert_eq!(o.predicted_completion_ms(100, 10, 2), None, "unseeded");
        o.observe_service(10, 8_000); // 800 ns/cost seeds the model
        assert_eq!(o.ns_per_cost(), 800);
        o.observe_service(10, 80_000); // 8000 ns/cost observation
        assert_eq!(o.ns_per_cost(), (7 * 800 + 8000) / 8);
    }

    #[test]
    fn predicted_completion_spreads_over_workers() {
        let o = Overload::new(OverloadPolicy::default(), None);
        o.observe_service(1, 1_000_000); // 1 ms per unit cost
        assert_eq!(o.predicted_completion_ms(90, 10, 1), Some(100));
        assert_eq!(o.predicted_completion_ms(90, 10, 4), Some(25));
    }

    #[test]
    fn level_names_roundtrip() {
        for l in [
            DegradeLevel::Full,
            DegradeLevel::CacheOnly,
            DegradeLevel::Shed,
        ] {
            assert_eq!(DegradeLevel::parse(l.name()), Ok(l));
        }
        assert!(DegradeLevel::parse("browned-out").is_err());
    }
}
