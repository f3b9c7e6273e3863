//! Graceful degradation (brownout) for the verification daemon.
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

use std::sync::atomic::{AtomicU8, Ordering};

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

/// Queue pressure (a fraction of queue capacity) at which `cache-only`
/// engages.
const CACHE_ONLY_AT: f64 = 0.60;
/// Queue pressure at which `shed` engages (the high-water mark).
const SHED_AT: f64 = 0.90;
/// A level disengages only when pressure drops below its engage
/// threshold minus this margin.
const HYSTERESIS: f64 = 0.10;

fn engage_threshold(level: DegradeLevel) -> f64 {
    match level {
        DegradeLevel::Full => 0.0,
        DegradeLevel::CacheOnly => CACHE_ONLY_AT,
        DegradeLevel::Shed => SHED_AT,
    }
}

/// The level raw `pressure` maps to, ignoring hysteresis.
fn target(pressure: f64) -> DegradeLevel {
    if pressure >= SHED_AT {
        DegradeLevel::Shed
    } else if pressure >= CACHE_ONLY_AT {
        DegradeLevel::CacheOnly
    } else {
        DegradeLevel::Full
    }
}

/// One hysteresis step: where the ladder moves from `current` under
/// `pressure`. Rising is immediate; falling requires pressure below the
/// current level's engage threshold minus the hysteresis margin.
pub fn next_level(current: DegradeLevel, pressure: f64) -> DegradeLevel {
    let target = target(pressure);
    if target >= current || pressure < engage_threshold(current) - HYSTERESIS {
        target
    } else {
        current
    }
}

/// Shared overload state: the active ladder level. Lock-free; sampled
/// on every dispatch.
#[derive(Debug)]
pub struct Overload {
    /// Pinned level (`--degrade-level`); `None` tracks queue pressure.
    force: Option<DegradeLevel>,
    level: AtomicU8,
}

impl Overload {
    pub fn new(force: Option<DegradeLevel>) -> Overload {
        Overload {
            force,
            level: AtomicU8::new(force.unwrap_or(DegradeLevel::Full) as u8),
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
            let next = next_level(DegradeLevel::from_u8(current), pressure);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_rises_immediately_with_pressure() {
        assert_eq!(next_level(DegradeLevel::Full, 0.2), DegradeLevel::Full);
        assert_eq!(
            next_level(DegradeLevel::Full, 0.60),
            DegradeLevel::CacheOnly
        );
        assert_eq!(
            next_level(DegradeLevel::Full, 0.80),
            DegradeLevel::CacheOnly
        );
        assert_eq!(
            next_level(DegradeLevel::Full, 0.95),
            DegradeLevel::Shed,
            "rising skips intermediate rungs"
        );
    }

    #[test]
    fn ladder_falls_only_past_the_hysteresis_margin() {
        // Shed engaged at 0.90: pressure just below the threshold is not
        // enough to disengage...
        assert_eq!(next_level(DegradeLevel::Shed, 0.85), DegradeLevel::Shed);
        // ...but below 0.90 − 0.10 it falls to wherever pressure maps.
        assert_eq!(
            next_level(DegradeLevel::Shed, 0.79),
            DegradeLevel::CacheOnly
        );
        assert_eq!(next_level(DegradeLevel::Shed, 0.10), DegradeLevel::Full);
        assert_eq!(
            next_level(DegradeLevel::CacheOnly, 0.55),
            DegradeLevel::CacheOnly,
            "inside the margin: hold"
        );
        assert_eq!(
            next_level(DegradeLevel::CacheOnly, 0.49),
            DegradeLevel::Full
        );
    }

    #[test]
    fn pinned_level_never_moves() {
        let o = Overload::new(Some(DegradeLevel::Shed));
        assert_eq!(o.update(0, 64), DegradeLevel::Shed);
        assert_eq!(o.level(), DegradeLevel::Shed);
    }

    #[test]
    fn update_tracks_queue_occupancy() {
        let o = Overload::new(None);
        assert_eq!(o.update(10, 64), DegradeLevel::Full);
        assert_eq!(o.update(62, 64), DegradeLevel::Shed);
        // Hysteresis: holding at 55/64 ≈ 0.86 keeps shed engaged.
        assert_eq!(o.update(55, 64), DegradeLevel::Shed);
        assert_eq!(o.update(0, 64), DegradeLevel::Full);
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
