//! Deterministic fault injection for the verification stack.
//!
//! The stack (SAT solver, encoder, serve workers) declares
//! named *injection points*; a [`FaultPlan`] arms a subset of them with
//! a [`FaultKind`] each. Probe a point with [`hit`] — it returns `None`
//! when the point is unarmed, executes `panic` / `delay_ms` in place,
//! and hands `spurious_unknown` / `alloc_spike` back to the call site
//! as a [`FaultSignal`] for layer-appropriate interpretation (a solver
//! answers `Unknown`, an encoder aborts with a classified error, and so
//! on).
//!
//! Triggers are **deterministic**: each rule carries a seed and a
//! per-rule hit counter, and whether the n-th hit fires is a pure
//! function of `(seed, n, probability)`. Re-running a test with the
//! same plan replays the same faults, which is what makes differential
//! gates (`tests/fault_matrix.rs`) possible.
//!
//! Everything is inert by default: with no plan installed, [`hit`] is a
//! single relaxed atomic load. Plans come from the `GPUMC_FAULTS`
//! environment variable (opt-in at process start, intended for tests,
//! benches, and chaos drills), from [`install_global`], or from a
//! thread-scoped [`scoped`] guard (how a serve worker arms a plan for
//! exactly one job).
//!
//! ## Spec grammar
//!
//! ```text
//! spec  := rule (',' rule)*
//! rule  := point ':' kind (':' integer)? (':' option)*
//! kind  := panic | delay_ms | alloc_spike | spurious_unknown
//! option:= p=<float in (0,1]> | seed=<u64> | once
//! ```
//!
//! The integer argument is milliseconds for `delay_ms` and MiB for
//! `alloc_spike`. Examples:
//!
//! ```text
//! GPUMC_FAULTS='sat.conflict:spurious_unknown:once'
//! GPUMC_FAULTS='serve.worker:panic:p=0.1:seed=42,encode.build:delay_ms:5'
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The catalog of injection points wired into the stack.
pub mod points {
    /// The CDCL search loop, probed on each conflict.
    pub const SAT_CONFLICT: &str = "sat.conflict";
    /// The encoder, probed between build stages.
    pub const ENCODE_BUILD: &str = "encode.build";
    /// A serve worker, probed at job start.
    pub const SERVE_WORKER: &str = "serve.worker";
    /// The DPOR engine, probed per complete candidate execution.
    pub const DPOR_EXPLORE: &str = "dpor.explore";
    /// The fleet router, probed before each shard connection; a firing
    /// rule simulates a transport failure (node death).
    pub const ROUTE_TRANSPORT: &str = "route.transport";
    /// The fleet router, probed after connecting; arm with `delay_ms`
    /// to simulate a stalled link (exercises hedging and deadlines).
    pub const ROUTE_STALL: &str = "route.stall_ms";
    /// The serve dispatch gate, probed per verify request; a firing
    /// rule forces admission control to shed the request.
    pub const SERVE_OVERLOAD: &str = "serve.overload";
    /// Every wired point, for matrix-style tests.
    pub const ALL: &[&str] = &[
        SAT_CONFLICT,
        ENCODE_BUILD,
        SERVE_WORKER,
        DPOR_EXPLORE,
        ROUTE_TRANSPORT,
        ROUTE_STALL,
        SERVE_OVERLOAD,
    ];
}

/// What an armed injection point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the injection point (exercises isolation/retry).
    Panic,
    /// Sleep this many milliseconds (exercises deadlines).
    DelayMs(u64),
    /// Pretend this many bytes were allocated (exercises mem budgets).
    AllocSpike(usize),
    /// Report an injected inconclusive result (exercises the `unknown`
    /// path without burning budget).
    SpuriousUnknown,
}

/// A fault the call site must interpret itself; `panic` and `delay_ms`
/// never reach the caller — [`hit`] executes them in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSignal {
    /// Abandon the current phase and report an injected `unknown`.
    SpuriousUnknown,
    /// Account this many bytes against the caller's memory budget.
    AllocSpike(usize),
}

/// One armed injection point with its deterministic trigger state.
#[derive(Debug)]
pub struct FaultRule {
    /// Which injection point this rule arms.
    pub point: String,
    /// What happens when the rule fires.
    pub kind: FaultKind,
    /// Firing probability in (0, 1]; 1.0 fires on every hit.
    pub prob: f64,
    /// Seed for the deterministic per-hit trigger.
    pub seed: u64,
    /// Fire at most once, then disarm.
    pub once: bool,
    hits: AtomicU64,
    fired: AtomicU64,
}

impl FaultRule {
    fn new(point: String, kind: FaultKind) -> Self {
        FaultRule {
            point,
            kind,
            prob: 1.0,
            seed: 0,
            once: false,
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Decides whether the next hit of this rule fires, advancing the
    /// hit counter. Pure in `(seed, hit index, prob)` aside from the
    /// counters themselves.
    fn fires(&self) -> bool {
        let n = self.hits.fetch_add(1, Ordering::Relaxed);
        if self.once && self.fired.load(Ordering::Relaxed) > 0 {
            return false;
        }
        let fire = if self.prob >= 1.0 {
            true
        } else {
            // Map a splitmix64 draw to [0,1) and compare.
            let draw = splitmix64(self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.prob
        };
        if fire {
            // `once` tolerates the benign race: two threads hitting the
            // first trigger simultaneously is still "at most a couple",
            // and all in-tree uses probe from a single thread.
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
        fire
    }
}

/// Counter snapshot for one rule: `(point, hits, fired)`.
pub type RuleCount = (String, u64, u64);

/// A set of armed injection points, shareable across threads.
///
/// Counters live in the plan, so re-arming the *same* `Arc<FaultPlan>`
/// (as a retried serve job does) continues the hit sequence instead of
/// restarting it — a `panic:once` rule panics the first attempt and
/// lets the retry through.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses a comma-separated fault spec (see the module docs for the
    /// grammar).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed rule.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            rules.push(parse_rule(raw)?);
        }
        if rules.is_empty() {
            return Err("empty fault spec".into());
        }
        Ok(FaultPlan { rules })
    }

    /// Builds a single-rule plan programmatically (tests mostly).
    #[must_use]
    pub fn single(point: &str, kind: FaultKind) -> FaultPlan {
        FaultPlan {
            rules: vec![FaultRule::new(point.to_string(), kind)],
        }
    }

    /// Sets the probability of every rule (builder-style, for tests).
    #[must_use]
    pub fn with_prob(mut self, prob: f64) -> FaultPlan {
        for r in &mut self.rules {
            r.prob = prob;
        }
        self
    }

    /// Sets the seed of every rule (builder-style, for tests).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        for r in &mut self.rules {
            r.seed = seed;
        }
        self
    }

    /// Marks every rule fire-at-most-once (builder-style, for tests).
    #[must_use]
    pub fn once(mut self) -> FaultPlan {
        for r in &mut self.rules {
            r.once = true;
        }
        self
    }

    /// The first armed kind at `point` that decides to fire, if any.
    fn decide(&self, point: &str) -> Option<FaultKind> {
        self.rules
            .iter()
            .filter(|r| r.point == point)
            .find(|r| r.fires())
            .map(|r| r.kind)
    }

    /// Per-rule `(point, hits, fired)` counters.
    pub fn counters(&self) -> Vec<RuleCount> {
        self.rules
            .iter()
            .map(|r| {
                (
                    r.point.clone(),
                    r.hits.load(Ordering::Relaxed),
                    r.fired.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Total number of fires across all rules.
    pub fn total_fired(&self) -> u64 {
        self.rules
            .iter()
            .map(|r| r.fired.load(Ordering::Relaxed))
            .sum()
    }
}

fn parse_rule(raw: &str) -> Result<FaultRule, String> {
    let mut parts = raw.split(':');
    let point = parts
        .next()
        .filter(|p| !p.is_empty())
        .ok_or_else(|| format!("fault rule `{raw}`: missing injection point"))?;
    let kind_name = parts
        .next()
        .ok_or_else(|| format!("fault rule `{raw}`: missing kind"))?;
    let mut rest: Vec<&str> = parts.collect();

    // `delay_ms` and `alloc_spike` take a leading integer argument.
    let mut take_arg = |default: u64| -> Result<u64, String> {
        if let Some(first) = rest.first() {
            if let Ok(n) = first.parse::<u64>() {
                rest.remove(0);
                return Ok(n);
            }
        }
        Ok(default)
    };
    let kind = match kind_name {
        "panic" => FaultKind::Panic,
        "delay_ms" => FaultKind::DelayMs(take_arg(10)?),
        "alloc_spike" => {
            let mib = take_arg(64)?;
            let bytes = usize::try_from(mib.saturating_mul(1 << 20))
                .map_err(|_| format!("fault rule `{raw}`: alloc_spike size out of range"))?;
            FaultKind::AllocSpike(bytes)
        }
        "spurious_unknown" => FaultKind::SpuriousUnknown,
        other => return Err(format!("fault rule `{raw}`: unknown kind `{other}`")),
    };

    let mut rule = FaultRule::new(point.to_string(), kind);
    for opt in rest {
        if let Some(p) = opt.strip_prefix("p=") {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("fault rule `{raw}`: bad probability `{opt}`"))?;
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("fault rule `{raw}`: probability must be in (0,1]"));
            }
            rule.prob = p;
        } else if let Some(s) = opt.strip_prefix("seed=") {
            rule.seed = s
                .parse()
                .map_err(|_| format!("fault rule `{raw}`: bad seed `{opt}`"))?;
        } else if opt == "once" {
            rule.once = true;
        } else {
            return Err(format!("fault rule `{raw}`: unknown option `{opt}`"));
        }
    }
    Ok(rule)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Count of installed plans anywhere in the process; the [`hit`] fast
/// path is one relaxed load of this.
static ACTIVE_PLANS: AtomicUsize = AtomicUsize::new(0);

fn global_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

thread_local! {
    /// Stack of thread-scoped plans; the innermost shadows the global.
    static SCOPED: RefCell<Vec<Arc<FaultPlan>>> = const { RefCell::new(Vec::new()) };
}

/// Installs a process-wide plan, replacing any previous one.
pub fn install_global(plan: Arc<FaultPlan>) {
    let mut slot = global_slot().lock().unwrap_or_else(|e| e.into_inner());
    if slot.replace(plan).is_none() {
        ACTIVE_PLANS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Removes the process-wide plan, returning it if one was installed.
pub fn clear_global() -> Option<Arc<FaultPlan>> {
    let mut slot = global_slot().lock().unwrap_or_else(|e| e.into_inner());
    let prev = slot.take();
    if prev.is_some() {
        ACTIVE_PLANS.fetch_sub(1, Ordering::Relaxed);
    }
    prev
}

/// Installs a global plan from the `GPUMC_FAULTS` environment variable.
/// Returns `Ok(false)` when the variable is unset (the production
/// default: injection stays fully inert).
///
/// # Errors
///
/// The parse error for a malformed spec.
pub fn install_global_from_env() -> Result<bool, String> {
    match std::env::var("GPUMC_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install_global(Arc::new(FaultPlan::parse(&spec)?));
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// RAII guard for a thread-scoped plan; dropping it disarms the plan.
#[derive(Debug)]
pub struct ScopedPlan {
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Arms `plan` for the current thread until the returned guard drops.
/// Scoped plans shadow the global plan and nest (innermost wins).
#[must_use = "the plan disarms when the guard drops"]
pub fn scoped(plan: Arc<FaultPlan>) -> ScopedPlan {
    SCOPED.with(|s| s.borrow_mut().push(plan));
    ACTIVE_PLANS.fetch_add(1, Ordering::Relaxed);
    ScopedPlan {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for ScopedPlan {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
        ACTIVE_PLANS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Returns the plan the *current thread* would consult on the next
/// [`hit`]: the innermost scoped plan if one is armed, else the global
/// plan. Scoped plans live in a thread-local, so worker threads spawned
/// by a parallel solve do not inherit them automatically; the spawner
/// captures `current_plan()` before forking and re-arms it with
/// [`scoped`] inside each worker so injected faults reach every racer.
pub fn current_plan() -> Option<Arc<FaultPlan>> {
    if ACTIVE_PLANS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    SCOPED.with(|s| s.borrow().last().cloned()).or_else(|| {
        global_slot()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    })
}

/// Probes an injection point.
///
/// With no plan installed this is a single relaxed atomic load. With a
/// plan armed at `point`, `panic` panics here (unwind-safely caught by
/// the serve supervisor), `delay_ms` sleeps here, and the remaining
/// kinds are returned for the caller to interpret.
#[inline]
pub fn hit(point: &str) -> Option<FaultSignal> {
    if ACTIVE_PLANS.load(Ordering::Relaxed) == 0 {
        return None;
    }
    hit_slow(point)
}

#[cold]
fn hit_slow(point: &str) -> Option<FaultSignal> {
    let plan = SCOPED.with(|s| s.borrow().last().cloned()).or_else(|| {
        global_slot()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    })?;
    match plan.decide(point)? {
        FaultKind::Panic => panic!("injected fault: panic at `{point}`"),
        FaultKind::DelayMs(ms) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            None
        }
        FaultKind::SpuriousUnknown => Some(FaultSignal::SpuriousUnknown),
        FaultKind::AllocSpike(bytes) => Some(FaultSignal::AllocSpike(bytes)),
    }
}

/// Briefly allocates (and touches) `bytes` of heap so an `alloc_spike`
/// is visible to real allocators too, then frees it. Returns `bytes`
/// for the caller's budget accounting. Capped at 256 MiB so a typo in a
/// spec cannot OOM the host.
pub fn materialize_spike(bytes: usize) -> usize {
    let cap = bytes.min(256 << 20);
    let mut v = vec![0u8; cap];
    // Touch one byte per page so the allocation is not elided.
    for i in (0..v.len()).step_by(4096) {
        v[i] = 1;
    }
    std::hint::black_box(&v);
    drop(v);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        let p = FaultPlan::parse("sat.conflict:spurious_unknown:once").unwrap();
        assert_eq!(p.rules.len(), 1);
        assert_eq!(p.rules[0].kind, FaultKind::SpuriousUnknown);
        assert!(p.rules[0].once);

        let p =
            FaultPlan::parse("serve.worker:panic:p=0.1:seed=42,encode.build:delay_ms:5").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(p.rules[0].kind, FaultKind::Panic);
        assert!((p.rules[0].prob - 0.1).abs() < 1e-12);
        assert_eq!(p.rules[0].seed, 42);
        assert_eq!(p.rules[1].kind, FaultKind::DelayMs(5));

        let p = FaultPlan::parse("x:alloc_spike:2").unwrap();
        assert_eq!(p.rules[0].kind, FaultKind::AllocSpike(2 << 20));
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("sat.conflict").is_err());
        assert!(FaultPlan::parse("sat.conflict:frobnicate").is_err());
        assert!(FaultPlan::parse("x:panic:p=2.0").is_err());
        assert!(FaultPlan::parse("x:panic:p=0").is_err());
        assert!(FaultPlan::parse("x:panic:seed=abc").is_err());
        assert!(FaultPlan::parse("x:panic:wat").is_err());
    }

    #[test]
    fn unarmed_points_are_silent() {
        assert_eq!(hit("sat.conflict"), None);
        let _g = scoped(Arc::new(FaultPlan::single(
            "encode.build",
            FaultKind::SpuriousUnknown,
        )));
        assert_eq!(hit("sat.conflict"), None);
        assert_eq!(hit("encode.build"), Some(FaultSignal::SpuriousUnknown));
    }

    #[test]
    fn once_fires_exactly_once() {
        let plan = Arc::new(FaultPlan::single("p", FaultKind::SpuriousUnknown).once());
        let _g = scoped(plan.clone());
        assert_eq!(hit("p"), Some(FaultSignal::SpuriousUnknown));
        assert_eq!(hit("p"), None);
        assert_eq!(hit("p"), None);
        let counters = plan.counters();
        assert_eq!(counters[0].1, 3); // hits
        assert_eq!(counters[0].2, 1); // fired
    }

    #[test]
    fn probabilistic_triggers_are_deterministic() {
        let draws = |seed: u64| -> Vec<bool> {
            let plan = Arc::new(
                FaultPlan::single("p", FaultKind::SpuriousUnknown)
                    .with_prob(0.3)
                    .with_seed(seed),
            );
            let _g = scoped(plan);
            (0..64).map(|_| hit("p").is_some()).collect()
        };
        let a = draws(7);
        assert_eq!(a, draws(7), "same seed must replay the same faults");
        assert_ne!(a, draws(8), "different seeds should diverge");
        let fired = a.iter().filter(|&&b| b).count();
        assert!(fired > 4 && fired < 40, "~30% of 64 expected, got {fired}");
    }

    #[test]
    fn scoped_plans_nest_and_unwind() {
        let outer = Arc::new(FaultPlan::single("p", FaultKind::SpuriousUnknown));
        let g1 = scoped(outer);
        // Inner shadows outer entirely: an unarmed inner plan silences "p".
        {
            let _g2 = scoped(Arc::new(FaultPlan::single("q", FaultKind::SpuriousUnknown)));
            assert_eq!(hit("p"), None);
            assert_eq!(hit("q"), Some(FaultSignal::SpuriousUnknown));
        }
        assert_eq!(hit("p"), Some(FaultSignal::SpuriousUnknown));
        drop(g1);
        assert_eq!(hit("p"), None);
    }

    #[test]
    fn panic_kind_panics_at_the_point() {
        let _g = scoped(Arc::new(FaultPlan::single("p", FaultKind::Panic)));
        let err = std::panic::catch_unwind(|| hit("p")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected fault"), "got: {msg}");
    }

    #[test]
    fn retried_plans_continue_the_hit_sequence() {
        // A `panic:once` plan panics on the first attempt and lets the
        // retry through — the serve retry loop depends on this.
        let plan = Arc::new(FaultPlan::single("p", FaultKind::Panic).once());
        let attempt = |plan: &Arc<FaultPlan>| {
            let _g = scoped(plan.clone());
            std::panic::catch_unwind(|| {
                hit("p");
            })
            .is_err()
        };
        assert!(attempt(&plan), "first attempt should panic");
        assert!(!attempt(&plan), "retry should pass");
    }

    #[test]
    fn spike_materializes_and_reports() {
        assert_eq!(materialize_spike(1 << 20), 1 << 20);
    }
}
