//! Work-stealing parallel driver for the stateless DPOR engine.
//!
//! The decision tree of [`crate::dpor_explore`] — rf-source choices,
//! unresolved branches, and coherence refinements — is split into
//! independent subtree tasks, each identified by a *plan*: the forced
//! eligible-choice indices at the decision nodes on its prefix path.
//! Tasks own their `(X, rf, co)` prefix privately (each replays it from
//! scratch), so workers share nothing mutable except a relaxed step
//! counter, a stop flag, and the caller's `Sync` visitor.
//!
//! Splitting happens up front: a breadth-first probe pass walks plans
//! from the root, and each probe either explores a decision-free
//! subtree to completion (its stats are final) or aborts at its first
//! frontier decision node, forking one child plan per eligible choice.
//! Probing stops once the frontier holds about four tasks per worker;
//! the remaining plans are distributed round-robin over per-worker
//! deques and balanced by stealing from the back of the most-loaded
//! deque (the same LIFO-victim idiom as the fleet scheduler).
//!
//! Exactness: stats fired on a shared prefix are kept only by the
//! prefix's canonical owner (see [`crate::dpor::explore_plan`]), so the
//! merged [`DporStats`] equal the sequential engine's counters exactly
//! on any run that completes without an early stop — the determinism
//! gate in `tests/dpor_props.rs` asserts this per worker count.
//!
//! Divergences from the sequential engine, both sound and documented:
//!
//! * a visitor may stop the run early ([`std::ops::ControlFlow::Break`],
//!   "first violation wins"); the sequential engine always explores
//!   exhaustively, so on budget-capped violating programs the parallel
//!   engine can answer *violated* where sequential runs out of budget
//!   first and answers *unknown*;
//! * which consistent behaviour is visited first is racy (the verdict
//!   *whether* one exists is not);
//! * when several tasks fail, the error of the lexicographically
//!   smallest plan is reported — plans order like the sequential DFS,
//!   so this is the sequential first-error whenever both fail.

use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpumc_cat::CatModel;
use gpumc_ir::EventGraph;

use crate::dpor::{explore_plan, SharedProgress};
use crate::enumerate::Behavior;
use crate::{DporError, DporOptions, DporStats};

/// How many workers a DPOR run uses. Plumbed from the CLI's
/// `--portfolio` option and serve's `portfolio` request field (the names
/// predate the DPOR driver) down to [`dpor_explore_parallel`]; the SAT
/// engine ignores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelPolicy {
    /// The sequential engine (the default).
    #[default]
    Off,
    /// Split the exploration over this many work-stealing workers.
    Workers(u32),
    /// One worker per available core (sequential on a 1-core host).
    Auto,
}

impl ParallelPolicy {
    /// Parses a CLI/request value: `off`, `auto`, or a worker count.
    pub fn parse(s: &str) -> Result<ParallelPolicy, String> {
        match s {
            "off" | "0" | "1" => Ok(ParallelPolicy::Off),
            "auto" => Ok(ParallelPolicy::Auto),
            _ => s
                .parse::<u32>()
                .map(ParallelPolicy::Workers)
                .map_err(|_| format!("invalid portfolio value `{s}` (want off, auto, or N)")),
        }
    }
}

impl std::fmt::Display for ParallelPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelPolicy::Off => write!(f, "off"),
            ParallelPolicy::Workers(n) => write!(f, "workers({n})"),
            ParallelPolicy::Auto => write!(f, "auto"),
        }
    }
}

/// Result of one parallel DPOR run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DporParReport {
    /// Merged exploration statistics; identical to the sequential
    /// engine's on runs that complete without an early stop.
    pub stats: DporStats,
    /// Worker threads the run was configured with.
    pub workers: usize,
    /// Subtree tasks explored (probe-completed plus worker-executed).
    pub tasks: usize,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// A visitor `Break` (or a stop during probing) cancelled the rest.
    pub stopped_early: bool,
}

/// How many frontier tasks the splitter aims for per worker. More
/// over-decomposition smooths out skewed subtree sizes; each extra task
/// only costs one prefix replay.
const TASKS_PER_WORKER: usize = 4;

/// Explores all consistent behaviours with DPOR across `workers`
/// threads, invoking `visit` for each (concurrently; it must be `Sync`).
/// Returning [`ControlFlow::Break`] cancels the remaining tasks — first
/// violation wins.
///
/// # Errors
///
/// Fails when a structural cap is exceeded, the shared step budget runs
/// out, `poll` fires, or a worker panics without a prior stop — the
/// panic is contained and surfaces as [`DporError::Interrupted`], so an
/// injected worker fault can never flip a verdict.
pub fn dpor_explore_parallel<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &DporOptions,
    workers: usize,
    poll: Option<&(dyn Fn() -> Option<String> + Sync)>,
    visit: &(dyn Fn(&Behavior<'g>) -> ControlFlow<()> + Sync),
) -> Result<DporParReport, DporError> {
    let workers = workers.max(1);
    let shared = SharedProgress::new();
    let target = workers * TASKS_PER_WORKER;

    // --- Phase 1: breadth-first splitting by probes.
    let mut pending: VecDeque<Vec<u32>> = VecDeque::from([Vec::new()]);
    let mut stats = DporStats::default();
    let mut tasks_run = 0usize;
    let mut stopped = false;
    while !stopped && !pending.is_empty() && pending.len() < target {
        let plan = pending.pop_front().expect("non-empty");
        let seq_poll = poll.map(|p| p as &dyn Fn() -> Option<String>);
        let mut probe_visit = |b: &Behavior<'g>| {
            if visit(b).is_break() {
                shared.stop.store(true, Ordering::Relaxed);
            }
        };
        let out = match catch_unwind(AssertUnwindSafe(|| {
            explore_plan(
                graph,
                model,
                opts,
                &plan,
                true,
                Some(&shared),
                seq_poll,
                &mut probe_visit,
            )
        })) {
            Ok(r) => r?,
            Err(payload) => return Err(DporError::Interrupted(panic_message(payload.as_ref()))),
        };
        if out.stopped {
            stats.absorb(&out.stats);
            tasks_run += 1;
            stopped = true;
        } else if let Some(arity) = out.split {
            // The probe's stats are discarded: the path to the first
            // frontier decision node is linear, so nothing was visited,
            // and each child task re-books its share of the prefix.
            for c in 0..arity {
                let mut child = plan.clone();
                child.push(c);
                pending.push_back(child);
            }
        } else {
            // Decision-free subtree, fully explored by the probe.
            stats.absorb(&out.stats);
            tasks_run += 1;
        }
    }

    // --- Phase 2: execute the remaining frontier on a stealing pool.
    let mut stopped_early = stopped || shared.stop.load(Ordering::Relaxed);
    let mut steals_total = 0u64;
    if !stopped_early && !pending.is_empty() {
        let tasks: Vec<Vec<u32>> = pending.into_iter().collect();
        let mut lanes: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
        for i in 0..tasks.len() {
            lanes[i % workers].push_back(i);
        }
        let queues = Mutex::new(lanes);
        let steals = AtomicU64::new(0);
        let results: Mutex<Vec<(usize, Result<DporStats, DporError>)>> =
            Mutex::new(Vec::with_capacity(tasks.len()));
        let fault_plan = gpumc_fault::current_plan();
        std::thread::scope(|scope| {
            for w in 0..workers.min(tasks.len()) {
                let tasks = &tasks;
                let shared = &shared;
                let queues = &queues;
                let steals = &steals;
                let results = &results;
                let fault_plan = fault_plan.clone();
                scope.spawn(move || {
                    // Re-arm the caller's fault plan: injection points
                    // must keep firing inside workers so the fault
                    // matrix exercises the parallel engine too.
                    let _guard = fault_plan.map(gpumc_fault::scoped);
                    let worker_poll = poll.map(|p| p as &dyn Fn() -> Option<String>);
                    let mut worker_visit = |b: &Behavior<'g>| {
                        if visit(b).is_break() {
                            shared.stop.store(true, Ordering::Relaxed);
                        }
                    };
                    while !shared.stop.load(Ordering::Relaxed) {
                        let Some(ti) = next_job(queues, w, steals) else {
                            break;
                        };
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            explore_plan(
                                graph,
                                model,
                                opts,
                                &tasks[ti],
                                false,
                                Some(shared),
                                worker_poll,
                                &mut worker_visit,
                            )
                        }));
                        let entry = match outcome {
                            Ok(Ok(out)) => {
                                debug_assert!(out.split.is_none(), "non-probe task split");
                                Ok(out.stats)
                            }
                            Ok(Err(e)) => Err(e),
                            Err(payload) => {
                                Err(DporError::Interrupted(panic_message(payload.as_ref())))
                            }
                        };
                        results.lock().expect("results poisoned").push((ti, entry));
                    }
                });
            }
        });
        let results = results.into_inner().expect("results poisoned");
        tasks_run += results.len();
        steals_total = steals.load(Ordering::Relaxed);
        stopped_early = shared.stop.load(Ordering::Relaxed);
        if !stopped_early {
            // No early stop: any task failure fails the run, like the
            // sequential engine. Report the error of the
            // lexicographically smallest plan for determinism.
            let first_err = results
                .iter()
                .filter(|(_, r)| r.is_err())
                .min_by(|(a, _), (b, _)| tasks[*a].cmp(&tasks[*b]));
            if let Some((_, Err(e))) = first_err {
                return Err(e.clone());
            }
        }
        for (_, r) in results {
            if let Ok(st) = r {
                stats.absorb(&st);
            }
        }
    }
    Ok(DporParReport {
        stats,
        workers,
        tasks: tasks_run,
        steals: steals_total,
        stopped_early,
    })
}

/// Pops the next task for worker `w`: own deque first (FIFO — earlier
/// plans sit higher in the tree), else steal from the back of the
/// most-loaded deque.
fn next_job(queues: &Mutex<Vec<VecDeque<usize>>>, w: usize, steals: &AtomicU64) -> Option<usize> {
    let mut q = queues.lock().expect("queues poisoned");
    if let Some(t) = q[w].pop_front() {
        return Some(t);
    }
    let victim = (0..q.len())
        .filter(|&v| v != w)
        .max_by_key(|&v| q[v].len())?;
    let t = q[victim].pop_back()?;
    steals.fetch_add(1, Ordering::Relaxed);
    Some(t)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into());
    format!("worker panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_policy_parses() {
        assert_eq!(ParallelPolicy::parse("off"), Ok(ParallelPolicy::Off));
        assert_eq!(ParallelPolicy::parse("1"), Ok(ParallelPolicy::Off));
        assert_eq!(ParallelPolicy::parse("auto"), Ok(ParallelPolicy::Auto));
        assert_eq!(ParallelPolicy::parse("4"), Ok(ParallelPolicy::Workers(4)));
        assert!(ParallelPolicy::parse("lots").is_err());
        assert_eq!(ParallelPolicy::Workers(2).to_string(), "workers(2)");
    }
}
