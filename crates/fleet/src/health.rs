//! Per-shard health: a three-state circuit breaker.
//!
//! The router's old failure handling probed a dead shard on every
//! round: each request burned a connect timeout rediscovering the same
//! corpse. The breaker quarantines instead — `Closed` (healthy) trips
//! to `Open` after `failure_threshold` *consecutive* transport
//! failures, `Open` refuses all traffic for `cooldown_ms`, then admits
//! exactly one probe (`HalfOpen`); the probe's outcome either
//! re-closes the breaker (the shard rejoined) or re-opens it for
//! another cooldown. Only transport-level trouble counts as failure:
//! a `rejected`/`failed` answer proves the shard is alive, so it resets
//! the failure streak even though the request must fail over.
//!
//! Time is a caller-supplied millisecond counter (the router derives
//! it from one run-scoped [`std::time::Instant`]), which keeps every
//! transition unit-testable without sleeping.

/// Breaker tuning; [`BreakerConfig::default`] matches the CLI defaults.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive transport failures that trip `Closed` → `Open`.
    pub failure_threshold: u32,
    /// How long an `Open` breaker refuses traffic before admitting a
    /// half-open probe.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 500,
        }
    }
}

/// The classic three states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// What [`CircuitBreaker::admit`] decided for one prospective attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Healthy: send the request.
    Admit,
    /// The cooldown elapsed and this caller won the single probe slot;
    /// send the request, and report the outcome like any other.
    Probe,
    /// Quarantined: pick another shard.
    Quarantined,
}

/// One shard's breaker. Not internally synchronized — the router wraps
/// each in a mutex.
#[derive(Debug)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    /// Consecutive transport failures since the last success.
    streak: u32,
    /// When the breaker last tripped (caller clock).
    opened_at_ms: u64,
    /// A half-open probe is in flight; further admits are refused.
    probing: bool,
    /// Times the breaker tripped `Closed`/`HalfOpen` → `Open`.
    pub trips: u64,
    /// Times a half-open probe succeeded and re-closed the breaker.
    pub readmissions: u64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            streak: 0,
            opened_at_ms: 0,
            probing: false,
            trips: 0,
            readmissions: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Decides whether an attempt may target this shard at `now_ms`.
    pub fn admit(&mut self, now_ms: u64) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Admit,
            BreakerState::Open => {
                if now_ms.saturating_sub(self.opened_at_ms) >= self.cfg.cooldown_ms {
                    self.state = BreakerState::HalfOpen;
                    self.probing = true;
                    Admission::Probe
                } else {
                    Admission::Quarantined
                }
            }
            BreakerState::HalfOpen => {
                if self.probing {
                    Admission::Quarantined
                } else {
                    self.probing = true;
                    Admission::Probe
                }
            }
        }
    }

    /// When an `Open` breaker will next admit a probe, if ever.
    pub fn next_probe_at(&self) -> Option<u64> {
        match self.state {
            BreakerState::Open => Some(self.opened_at_ms + self.cfg.cooldown_ms),
            _ => None,
        }
    }

    /// The shard produced *any* response (even `rejected`/`failed`): the
    /// transport is healthy. Returns `true` when this was the half-open
    /// probe re-closing the breaker.
    pub fn on_success(&mut self) -> bool {
        let readmitted = self.state == BreakerState::HalfOpen;
        if readmitted {
            self.readmissions += 1;
        }
        self.state = BreakerState::Closed;
        self.streak = 0;
        self.probing = false;
        readmitted
    }

    /// A transport failure (connect refused, connection died, read
    /// timed out). Returns `true` when this tripped the breaker open.
    pub fn on_failure(&mut self, now_ms: u64) -> bool {
        self.streak = self.streak.saturating_add(1);
        let trip = match self.state {
            // A failed probe goes straight back to quarantine.
            BreakerState::HalfOpen => true,
            BreakerState::Closed => self.streak >= self.cfg.failure_threshold,
            BreakerState::Open => false,
        };
        if trip {
            self.state = BreakerState::Open;
            self.opened_at_ms = now_ms;
            self.probing = false;
            self.trips += 1;
        }
        trip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(threshold: u32, cooldown: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            failure_threshold: threshold,
            cooldown_ms: cooldown,
        })
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = breaker(3, 100);
        assert!(!b.on_failure(0));
        assert!(!b.on_failure(1));
        b.on_success(); // streak broken: shard answered
        assert!(!b.on_failure(2));
        assert!(!b.on_failure(3));
        assert!(b.on_failure(4), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
    }

    #[test]
    fn open_refuses_until_cooldown_then_admits_one_probe() {
        let mut b = breaker(1, 100);
        b.on_failure(10);
        assert_eq!(b.admit(50), Admission::Quarantined);
        assert_eq!(b.next_probe_at(), Some(110));
        assert_eq!(b.admit(110), Admission::Probe);
        // The probe is in flight: everyone else stays out.
        assert_eq!(b.admit(111), Admission::Quarantined);
        assert!(b.on_success(), "probe success is a readmission");
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.readmissions, 1);
        assert_eq!(b.admit(112), Admission::Admit);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let mut b = breaker(1, 100);
        b.on_failure(0);
        assert_eq!(b.admit(100), Admission::Probe);
        assert!(b.on_failure(105), "failed probe re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(150), Admission::Quarantined);
        assert_eq!(b.admit(205), Admission::Probe);
        assert!(b.on_success());
        assert_eq!(b.trips, 2);
        assert_eq!(b.readmissions, 1);
    }

    #[test]
    fn shed_style_success_resets_the_streak() {
        // rejected/failed answers prove liveness: two failures, an
        // answer, two more failures must NOT trip a threshold of 3.
        let mut b = breaker(3, 100);
        b.on_failure(0);
        b.on_failure(1);
        b.on_success();
        b.on_failure(2);
        assert!(!b.on_failure(3));
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
