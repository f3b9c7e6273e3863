//! gpumc — unified analysis of GPU consistency models.
//!
//! A Rust reproduction of the verification pipeline of *"Towards Unified
//! Analysis of GPU Consistency"* (ASPLOS 2024): a bounded model checker
//! for GPU programs under the NVIDIA PTX (v6.0 / v7.5) and Khronos
//! Vulkan memory consistency models, with litmus-test and SPIR-V
//! front-ends.
//!
//! The central type is [`Verifier`]: configure a `.cat` consistency
//! model, an engine, and an unrolling bound, then check safety
//! (reachability of the test's `exists`/`forall` condition), liveness
//! (stuck spinloops, §6.4 of the paper), and data-race freedom (the
//! Vulkan model's flagged `dr` relation).
//!
//! Three engines implement every query and cross-validate each other:
//!
//! * [`EngineKind::Sat`] — the Dartagnan-style SAT encoding
//!   (`gpumc-encode`), scaling to hundreds of events;
//! * [`EngineKind::Enumerate`] — the Alloy-style explicit enumeration
//!   (`gpumc-exec`), exact but exponential, and additionally restricted
//!   to straight-line programs when mimicking the paper's baseline;
//! * [`EngineKind::Dpor`] — stateless DPOR exploration, exact like the
//!   enumerator but pruning redundant interleavings, so it handles
//!   branching programs and larger traces.
//!
//! # Quickstart
//!
//! ```
//! use gpumc::{Verifier, EngineKind};
//!
//! let src = r#"
//! PTX MP
//! { x = 0; flag = 0; }
//! P0@cta 0,gpu 0          | P1@cta 1,gpu 0 ;
//! st.relaxed.gpu x, 1     | ld.acquire.gpu r0, flag ;
//! st.release.gpu flag, 1  | ld.relaxed.gpu r1, x ;
//! exists (P1:r0 == 1 /\ P1:r1 == 0)
//! "#;
//! let program = gpumc::parse_litmus(src)?;
//! let verifier = Verifier::new(gpumc_models::ptx75());
//! let outcome = verifier.check_assertion(&program)?;
//! assert!(!outcome.reachable, "release/acquire forbids the stale read");
//! assert!(outcome.satisfied_expectation == Some(false),
//!         "the exists-condition is unsatisfiable");
//! # Ok::<(), gpumc::VerifyError>(())
//! ```

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Instant;

use gpumc_cat::CatModel;
use gpumc_encode::{encode, EncodeOptions};
use gpumc_exec::{enumerate, EnumerateOptions, Execution};
use gpumc_ir::{compile, unroll, Assertion, Condition, EventGraph, Program};

pub mod suite;

pub use suite::{
    effective_jobs, parallel_map_ordered, SuiteConfig, SuiteReport, SuiteRunner, TestResult,
};

pub use gpumc_cat;
pub use gpumc_catalog;
pub use gpumc_encode;
pub use gpumc_exec;
/// The fault-injection registry (`gpumc-fault`), re-exported as
/// `gpumc::fault`. Inert unless a plan is installed — see
/// [`fault::install_global_from_env`] and the `GPUMC_FAULTS` variable.
pub use gpumc_fault as fault;
/// The fleet layer (`gpumc-fleet`), re-exported as `gpumc::fleet`:
/// content-addressed result digests and cache, the cost-aware
/// scheduler, and the shard router behind `gpumc route` (DESIGN.md
/// §16).
pub use gpumc_fleet as fleet;
pub use gpumc_ir;
pub use gpumc_litmus;
pub use gpumc_models;
pub use gpumc_sat;
pub use gpumc_spirv;

/// Parses a litmus test in either dialect (see `gpumc-litmus`).
///
/// # Errors
///
/// Returns a [`VerifyError::Parse`] describing the problem.
pub fn parse_litmus(source: &str) -> Result<Program, VerifyError> {
    gpumc_litmus::parse(source).map_err(|e| VerifyError::Parse(e.to_string()))
}

/// Revision counter for verdict-affecting verifier behavior. Bump this
/// whenever the encoder, a solver, an engine, or a model changes in a
/// way that could alter *any* verdict — it invalidates every persistent
/// result cache (see `gpumc::fleet::store`), which is the sound
/// default: a stale cached verdict is a wrong answer served fast.
pub const VERIFIER_REVISION: u32 = 1;

/// The fingerprint persistent result caches are keyed on: crate
/// version, [`VERIFIER_REVISION`], and the digest scheme version. Two
/// builds with equal fingerprints must produce identical verdicts for
/// identical digests.
pub fn verifier_fingerprint() -> String {
    format!(
        "gpumc={};rev={};scheme={}",
        env!("CARGO_PKG_VERSION"),
        VERIFIER_REVISION,
        fleet::digest::DIGEST_SCHEME_VERSION,
    )
}

/// Which verification engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// SAT-based bounded model checking (the Dartagnan pipeline).
    Sat,
    /// Explicit-state enumeration (the Alloy-style baseline). With
    /// `straight_line_only`, programs with control flow are rejected,
    /// mirroring the published prototypes' limitation.
    Enumerate {
        /// Reject programs with control flow, like the Alloy tools.
        straight_line_only: bool,
    },
    /// Stateless DPOR: incremental exploration with rf/co-aware pruning
    /// and sleep sets over SC fences (`gpumc_exec::dpor_explore`).
    /// Exact like [`EngineKind::Enumerate`], but scales further and
    /// accepts branching programs.
    Dpor,
}

impl std::str::FromStr for EngineKind {
    type Err = String;

    /// Parses the engine names accepted by the CLI and the server:
    /// `sat`, `enumerate` (or `enum`), `alloy`, `dpor`.
    fn from_str(s: &str) -> Result<EngineKind, String> {
        match s {
            "sat" => Ok(EngineKind::Sat),
            "enumerate" | "enum" => Ok(EngineKind::Enumerate {
                straight_line_only: false,
            }),
            "alloy" => Ok(EngineKind::Enumerate {
                straight_line_only: true,
            }),
            "dpor" => Ok(EngineKind::Dpor),
            other => Err(format!(
                "unknown engine `{other}` (expected sat, enumerate, alloy, or dpor)"
            )),
        }
    }
}

/// An error produced by the verifier.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// Front-end failure.
    Parse(String),
    /// IR-level failure (unrolling, validation).
    Ir(String),
    /// The engine rejected the program or model.
    Unsupported(String),
    /// Resource exhaustion in the enumeration engine.
    TooComplex(String),
    /// The check was interrupted — conflict budget, cancellation, or a
    /// deadline — before reaching a verdict. Never a wrong answer, only
    /// a withheld one; retrying with more budget is sound.
    Unknown(String),
    /// Internal cross-validation failure (should never happen).
    Internal(String),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Parse(m) => write!(f, "parse error: {m}"),
            VerifyError::Ir(m) => write!(f, "ir error: {m}"),
            VerifyError::Unsupported(m) => write!(f, "unsupported: {m}"),
            VerifyError::TooComplex(m) => write!(f, "too complex: {m}"),
            VerifyError::Unknown(m) => write!(f, "unknown: {m}"),
            VerifyError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<gpumc_exec::EnumerateError> for VerifyError {
    fn from(e: gpumc_exec::EnumerateError) -> Self {
        match e {
            gpumc_exec::EnumerateError::Unsupported(m) => VerifyError::Unsupported(m),
            gpumc_exec::EnumerateError::TooComplex(m) => VerifyError::TooComplex(m),
        }
    }
}

impl From<gpumc_exec::DporError> for VerifyError {
    fn from(e: gpumc_exec::DporError) -> Self {
        match e {
            gpumc_exec::DporError::Unsupported(m) => VerifyError::Unsupported(m),
            gpumc_exec::DporError::TooComplex(m) => VerifyError::TooComplex(m),
            // Budget exhaustion / cancellation: a withheld verdict.
            gpumc_exec::DporError::Interrupted(m) => VerifyError::Unknown(m),
        }
    }
}

impl From<gpumc_encode::EncodeError> for VerifyError {
    fn from(e: gpumc_encode::EncodeError) -> Self {
        match e {
            gpumc_encode::EncodeError::Unsupported(m) => VerifyError::Unsupported(m),
            gpumc_encode::EncodeError::WitnessMismatch(m) => VerifyError::Internal(m),
            gpumc_encode::EncodeError::Unknown(m) => VerifyError::Unknown(m),
        }
    }
}

/// A found witness, rendered for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Human-readable execution graph.
    pub rendering: String,
}

impl Witness {
    fn from_execution(e: &Execution<'_>) -> Witness {
        Witness {
            rendering: e.render(),
        }
    }
}

/// Outcome of an assertion (safety) check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionOutcome {
    /// Whether the quantified condition's *witness* was found: for
    /// `exists`/`~exists`, a behaviour satisfying the condition; for
    /// `forall`, a behaviour violating it.
    pub reachable: bool,
    /// Whether the test's expectation holds: `exists` expects reachable,
    /// `~exists` expects unreachable, `forall` expects no violation.
    /// `None` when the program has no assertion.
    pub satisfied_expectation: Option<bool>,
    /// Witness execution, when one was found.
    pub witness: Option<Witness>,
    /// Measurement statistics.
    pub stats: Stats,
}

/// Outcome of a liveness or data-race-freedom check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyOutcome {
    /// Whether a violation (stuck state / race) was found.
    pub violated: bool,
    /// Witness execution, when violated.
    pub witness: Option<Witness>,
    /// Measurement statistics.
    pub stats: Stats,
}

/// Measurement data attached to every outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Number of events in the compiled graph.
    pub events: usize,
    /// Number of threads.
    pub threads: usize,
    /// SAT variables (0 for the enumeration engine).
    pub sat_vars: usize,
    /// SAT clauses (0 for the enumeration engine).
    pub sat_clauses: usize,
    /// Candidate behaviours explored (enumeration and DPOR engines).
    /// DPOR stops at the first witness, so its count covers the
    /// candidates up to that witness, or all of them when none exists.
    pub candidates: u64,
    /// Exploration/pruning counters of the DPOR engine, `None` for the
    /// other engines. Like [`Stats::candidates`], they end at the first
    /// witness.
    pub dpor: Option<gpumc_exec::DporStats>,
    /// Wall-clock time in microseconds.
    pub time_us: u128,
}

/// Where the time of one [`Verifier::check_all`] went, microseconds per
/// pipeline phase. Populated on the incremental SAT path; all-zero on
/// the fresh baseline and the enumeration engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Unrolling + compiling the program to its event graph.
    pub compile_us: u64,
    /// The relation analysis: bounds and active sets.
    pub bounds_us: u64,
    /// Building the SAT encoding.
    pub encode_us: u64,
    /// Total solver time across all queries.
    pub solve_us: u64,
}

/// All three property verdicts of one program, as returned by
/// [`Verifier::check_all`].
#[derive(Debug, Clone)]
pub struct FullOutcome {
    /// The safety (assertion) verdict.
    pub assertion: AssertionOutcome,
    /// The liveness verdict.
    pub liveness: PropertyOutcome,
    /// The data-race verdict, or `None` when the model defines no
    /// flagged `dr` relation (the PTX models, §3.5).
    pub data_races: Option<PropertyOutcome>,
    /// Per-query solver-counter deltas, in query order. Empty on the
    /// fresh (non-incremental) path and for the enumeration engine.
    pub queries: Vec<gpumc_encode::QueryRecord>,
    /// Always `None`: the encoding is solved as built, with no CNF
    /// simplification pass (DESIGN.md §12).
    pub simplify: Option<gpumc_sat::SimplifyStats>,
    /// Per-phase wall-clock breakdown.
    pub phases: PhaseTimings,
    /// Wall-clock time of the whole `check_all`, including compilation
    /// and encoding, in microseconds.
    pub total_time_us: u128,
}

impl FullOutcome {
    /// Renders the per-query solver statistics (one line per query) for
    /// diagnostics output; empty string when no deltas were recorded.
    pub fn render_query_stats(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for q in &self.queries {
            let _ = writeln!(
                out,
                "  query {:<12} {:>8} conflicts {:>9} decisions {:>10} propagations \
                 {:>6} learnt-in {:>6} learnt-out {:>8} us",
                q.label,
                q.stats.conflicts,
                q.stats.decisions,
                q.stats.propagations,
                q.stats.learnt_before,
                q.stats.learnt_after,
                q.stats.time_us,
            );
        }
        out
    }
}

/// The verification façade: a consistency model, an engine, and a bound.
///
/// The model is held behind an [`Arc`] so a compiled (parsed + resolved)
/// `.cat` model can be shared immutably across worker threads — cloning a
/// `Verifier` never re-parses or deep-copies the model. Construct from
/// either an owned [`CatModel`] or a shared handle such as
/// [`gpumc_models::load_shared`].
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct Verifier {
    model: Arc<CatModel>,
    engine: EngineKind,
    bound: u32,
    bv_width: usize,
    use_bounds: bool,
    enum_cap: Option<u64>,
    incremental: bool,
    cancel: Option<gpumc_sat::CancelToken>,
    conflict_budget: Option<u64>,
    mem_budget_mb: Option<u64>,
}

impl Verifier {
    /// Creates a SAT-engine verifier with unrolling bound 2.
    ///
    /// Accepts an owned [`CatModel`] or an `Arc<CatModel>` (e.g. from
    /// [`gpumc_models::load_shared`]); the latter avoids any copy.
    pub fn new(model: impl Into<Arc<CatModel>>) -> Verifier {
        Verifier {
            model: model.into(),
            engine: EngineKind::Sat,
            bound: 2,
            bv_width: 8,
            use_bounds: true,
            enum_cap: None,
            incremental: true,
            cancel: None,
            conflict_budget: None,
            mem_budget_mb: None,
        }
    }

    /// Caps the enumeration engine's candidate count (builder style);
    /// exceeding it returns [`VerifyError::TooComplex`], standing in for
    /// the Alloy tools' out-of-memory failures in Figure 15. The DPOR
    /// engine interprets the same cap as its exploration-step budget,
    /// whose exhaustion surfaces as [`VerifyError::Unknown`].
    pub fn with_enumeration_cap(mut self, cap: u64) -> Verifier {
        self.enum_cap = Some(cap);
        self
    }

    /// Selects the engine (builder style).
    pub fn with_engine(mut self, engine: EngineKind) -> Verifier {
        self.engine = engine;
        self
    }

    /// Sets the loop-unrolling bound (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn with_bound(mut self, bound: u32) -> Verifier {
        assert!(bound >= 1, "bound must be at least 1");
        self.bound = bound;
        self
    }

    /// Sets the bit-vector width of the SAT engine (builder style).
    pub fn with_bv_width(mut self, width: usize) -> Verifier {
        self.bv_width = width;
        self
    }

    /// Enables or disables relation-analysis pruning (ablation switch).
    pub fn with_relation_analysis(mut self, enabled: bool) -> Verifier {
        self.use_bounds = enabled;
        self
    }

    /// Installs a cooperative cancellation token (builder style): every
    /// SAT query polls it, and cancellation or deadline expiry surfaces
    /// as [`VerifyError::Unknown`] — the check is abandoned cleanly, not
    /// panicked. Soundness: an interrupted check can only *withhold* a
    /// verdict, never report a wrong one.
    pub fn with_cancel_token(mut self, token: gpumc_sat::CancelToken) -> Verifier {
        self.cancel = Some(token);
        self
    }

    /// Caps SAT conflicts per query (builder style); exhaustion surfaces
    /// as [`VerifyError::Unknown`].
    pub fn with_conflict_budget(mut self, budget: u64) -> Verifier {
        self.conflict_budget = Some(budget);
        self
    }

    /// Caps the SAT solver's estimated memory footprint, in MiB
    /// (builder style). Exceeding it surfaces as
    /// [`VerifyError::Unknown`] — a per-query `unknown` instead of an
    /// OOM-killed process. Both the encode phase and the solve loop
    /// observe the budget.
    pub fn with_mem_budget_mb(mut self, mb: u64) -> Verifier {
        self.mem_budget_mb = Some(mb);
        self
    }

    /// Selects whether [`Verifier::check_all`] answers all properties
    /// from one incremental [`gpumc_encode::SolverSession`] (the
    /// default) or from three independent fresh encodings (builder
    /// style). The fresh path exists as the differential baseline; the
    /// two must be verdict-identical.
    pub fn with_incremental(mut self, incremental: bool) -> Verifier {
        self.incremental = incremental;
        self
    }

    /// The configured model.
    pub fn model(&self) -> &CatModel {
        &self.model
    }

    /// A shared handle to the configured model (no deep copy).
    pub fn shared_model(&self) -> Arc<CatModel> {
        Arc::clone(&self.model)
    }

    /// Compiles a program to its event graph with this verifier's bound.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::Ir`] when validation or unrolling fails.
    pub fn compile(&self, program: &Program) -> Result<EventGraph, VerifyError> {
        let unrolled = unroll(program, self.bound).map_err(|e| VerifyError::Ir(e.message))?;
        Ok(compile(&unrolled))
    }

    /// Checks the program's `exists`/`~exists`/`forall` condition.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn check_assertion(&self, program: &Program) -> Result<AssertionOutcome, VerifyError> {
        self.check_interrupt()?;
        let graph = self.compile(program)?;
        let start = Instant::now();
        let (reachable, witness, mut stats) = match &self.engine {
            EngineKind::Sat => {
                let mut enc = self.encode(&graph)?;
                let r = enc.find_assertion_witness()?;
                let stats = self.sat_stats(&graph, &enc);
                (
                    r.found,
                    r.witness.as_ref().map(Witness::from_execution),
                    stats,
                )
            }
            EngineKind::Enumerate { straight_line_only } => {
                let mut opts = EnumerateOptions {
                    straight_line_only: *straight_line_only,
                    ..EnumerateOptions::default()
                };
                if let Some(cap) = self.enum_cap {
                    opts.max_candidates = cap;
                }
                // An assertion-less (filter-only) test asks whether any
                // consistent complete behaviour survives, matching the
                // SAT encoder's `Exists(True)` default.
                let cond = graph
                    .assertion
                    .clone()
                    .unwrap_or(Assertion::Exists(Condition::True));
                let mut found: Option<Witness> = None;
                let st = enumerate(&graph, &self.model, &opts, |b| {
                    if found.is_some() || !b.execution.all_completed() {
                        return;
                    }
                    let (c, negate) = assertion_query(&cond);
                    let holds = b.execution.eval_condition(c) == Some(true);
                    if holds != negate {
                        found = Some(Witness::from_execution(&b.execution));
                    }
                })?;
                let stats = Stats {
                    events: graph.n_events(),
                    threads: graph.threads().len(),
                    candidates: st.candidates,
                    ..Stats::default()
                };
                (found.is_some(), found, stats)
            }
            EngineKind::Dpor => {
                let cond = graph
                    .assertion
                    .clone()
                    .unwrap_or(Assertion::Exists(Condition::True));
                let mut found: Option<Witness> = None;
                let st = self.dpor_run(&graph, |b| {
                    if !b.execution.all_completed() {
                        return ControlFlow::Continue(());
                    }
                    let (c, negate) = assertion_query(&cond);
                    let holds = b.execution.eval_condition(c) == Some(true);
                    if holds != negate {
                        found = Some(Witness::from_execution(&b.execution));
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                })?;
                (found.is_some(), found, self.dpor_stats(&graph, st))
            }
        };
        stats.time_us = start.elapsed().as_micros();
        let satisfied_expectation = program.assertion.as_ref().map(|a| match a {
            Assertion::Exists(_) => reachable,
            Assertion::NotExists(_) => !reachable,
            Assertion::Forall(_) => !reachable,
        });
        Ok(AssertionOutcome {
            reachable,
            satisfied_expectation,
            witness,
            stats,
        })
    }

    /// Checks liveness (§6.4): searches for a consistent stuck state.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn check_liveness(&self, program: &Program) -> Result<PropertyOutcome, VerifyError> {
        self.check_interrupt()?;
        let graph = self.compile(program)?;
        let start = Instant::now();
        let (violated, witness, mut stats) = match &self.engine {
            EngineKind::Sat => {
                let mut enc = self.encode(&graph)?;
                let r = enc.find_liveness_violation()?;
                let stats = self.sat_stats(&graph, &enc);
                (
                    r.found,
                    r.witness.as_ref().map(Witness::from_execution),
                    stats,
                )
            }
            EngineKind::Enumerate { straight_line_only } => {
                if *straight_line_only {
                    return Err(VerifyError::Unsupported(
                        "the Alloy-style baseline cannot check liveness".into(),
                    ));
                }
                let mut found: Option<Witness> = None;
                let st = enumerate(&graph, &self.model, &EnumerateOptions::default(), |b| {
                    if found.is_none() && b.execution.is_liveness_violation() {
                        found = Some(Witness::from_execution(&b.execution));
                    }
                })?;
                let stats = Stats {
                    events: graph.n_events(),
                    threads: graph.threads().len(),
                    candidates: st.candidates,
                    ..Stats::default()
                };
                (found.is_some(), found, stats)
            }
            EngineKind::Dpor => {
                let mut found: Option<Witness> = None;
                let st = self.dpor_run(&graph, |b| {
                    if b.execution.is_liveness_violation() {
                        found = Some(Witness::from_execution(&b.execution));
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                })?;
                (found.is_some(), found, self.dpor_stats(&graph, st))
            }
        };
        stats.time_us = start.elapsed().as_micros();
        Ok(PropertyOutcome {
            violated,
            witness,
            stats,
        })
    }

    /// Checks data-race freedom through the model's flagged `dr` axiom.
    ///
    /// # Errors
    ///
    /// Fails with [`VerifyError::Unsupported`] when the model has no
    /// `dr` flag (the PTX models define races differently and do not
    /// treat them as undefined behaviour, §3.5).
    pub fn check_data_races(&self, program: &Program) -> Result<PropertyOutcome, VerifyError> {
        self.check_interrupt()?;
        let graph = self.compile(program)?;
        let start = Instant::now();
        let (violated, witness, mut stats) = match &self.engine {
            EngineKind::Sat => {
                let mut enc = self.encode(&graph)?;
                let r = enc.find_flag("dr")?;
                let stats = self.sat_stats(&graph, &enc);
                (
                    r.found,
                    r.witness.as_ref().map(Witness::from_execution),
                    stats,
                )
            }
            EngineKind::Enumerate { straight_line_only } => {
                if self.model.flagged_axioms().count() == 0 {
                    return Err(VerifyError::Unsupported(
                        "model defines no flagged data-race relation".into(),
                    ));
                }
                let opts = EnumerateOptions {
                    straight_line_only: *straight_line_only,
                    ..EnumerateOptions::default()
                };
                let mut found: Option<Witness> = None;
                let st = enumerate(&graph, &self.model, &opts, |b| {
                    if found.is_none() && b.execution.all_completed() && b.verdict.has_flag("dr") {
                        found = Some(Witness::from_execution(&b.execution));
                    }
                })?;
                let stats = Stats {
                    events: graph.n_events(),
                    threads: graph.threads().len(),
                    candidates: st.candidates,
                    ..Stats::default()
                };
                (found.is_some(), found, stats)
            }
            EngineKind::Dpor => {
                if self.model.flagged_axioms().count() == 0 {
                    return Err(VerifyError::Unsupported(
                        "model defines no flagged data-race relation".into(),
                    ));
                }
                let mut found: Option<Witness> = None;
                let st = self.dpor_run(&graph, |b| {
                    if b.execution.all_completed() && b.verdict.has_flag("dr") {
                        found = Some(Witness::from_execution(&b.execution));
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                })?;
                (found.is_some(), found, self.dpor_stats(&graph, st))
            }
        };
        stats.time_us = start.elapsed().as_micros();
        Ok(PropertyOutcome {
            violated,
            witness,
            stats,
        })
    }

    /// Checks all three properties — assertion, liveness, data races —
    /// of one program.
    ///
    /// With the SAT engine on the (default) incremental path, the
    /// program semantics and the `.cat` model are encoded **once** into
    /// a [`gpumc_encode::SolverSession`] and the three properties are
    /// posed as assumption-guarded queries against the single shared
    /// solver, so learnt clauses carry over between queries; the
    /// returned [`FullOutcome::queries`] records the per-query solver
    /// deltas. With [`Verifier::with_incremental`]`(false)` or the
    /// enumeration engine, each property gets its own fresh check.
    ///
    /// Both paths are verdict-identical by construction and by the
    /// differential conformance suite (`incremental_agreement.rs`). The
    /// data-race verdict is `None` when the model defines no flagged
    /// `dr` relation — where [`Verifier::check_data_races`] would
    /// return [`VerifyError::Unsupported`].
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn check_all(&self, program: &Program) -> Result<FullOutcome, VerifyError> {
        if !self.incremental || self.engine != EngineKind::Sat {
            return self.check_all_fresh(program);
        }
        self.check_interrupt()?;
        let total = Instant::now();
        let graph = self.compile(program)?;
        let compile_us = total.elapsed().as_micros() as u64;
        let mut session = self.session(&graph)?;

        let r = session.find_assertion_witness()?;
        let reachable = r.found;
        let assertion_witness = r.witness.as_ref().map(Witness::from_execution);
        let assertion_stats = self.session_stats(&graph, &session);
        let satisfied_expectation = program.assertion.as_ref().map(|a| match a {
            Assertion::Exists(_) => reachable,
            Assertion::NotExists(_) => !reachable,
            Assertion::Forall(_) => !reachable,
        });

        let r = session.find_liveness_violation()?;
        let liveness = PropertyOutcome {
            violated: r.found,
            witness: r.witness.as_ref().map(Witness::from_execution),
            stats: self.session_stats(&graph, &session),
        };

        let data_races = if session.has_flag("dr") {
            let r = session.find_flag("dr")?;
            Some(PropertyOutcome {
                violated: r.found,
                witness: r.witness.as_ref().map(Witness::from_execution),
                stats: self.session_stats(&graph, &session),
            })
        } else {
            None
        };

        let phases = PhaseTimings {
            compile_us,
            bounds_us: session.bounds_time_us(),
            encode_us: session.encode_time_us(),
            solve_us: session
                .queries()
                .iter()
                .map(|q| q.stats.time_us as u64)
                .sum(),
        };
        Ok(FullOutcome {
            assertion: AssertionOutcome {
                reachable,
                satisfied_expectation,
                witness: assertion_witness,
                stats: assertion_stats,
            },
            liveness,
            data_races,
            queries: session.queries().to_vec(),
            simplify: None,
            phases,
            total_time_us: total.elapsed().as_micros(),
        })
    }

    /// The non-incremental [`Verifier::check_all`] baseline: three
    /// independent checks, each with its own encoding (or enumeration).
    fn check_all_fresh(&self, program: &Program) -> Result<FullOutcome, VerifyError> {
        self.check_interrupt()?;
        let total = Instant::now();
        let assertion = self.check_assertion(program)?;
        let liveness = self.check_liveness(program)?;
        let data_races = match self.check_data_races(program) {
            Ok(o) => Some(o),
            Err(VerifyError::Unsupported(_)) => None,
            Err(e) => return Err(e),
        };
        Ok(FullOutcome {
            assertion,
            liveness,
            data_races,
            queries: Vec::new(),
            simplify: None,
            phases: PhaseTimings::default(),
            total_time_us: total.elapsed().as_micros(),
        })
    }

    /// Early cancellation check, so a request whose deadline expired on
    /// the queue fails before paying for compilation or encoding.
    fn check_interrupt(&self) -> Result<(), VerifyError> {
        if let Some(i) = self.cancel.as_ref().and_then(|c| c.check()) {
            return Err(VerifyError::Unknown(i.to_string()));
        }
        Ok(())
    }

    /// The encode options this verifier implies. The cancel token rides
    /// inside so the *encode* phase observes deadlines too, not only the
    /// solve loop; likewise the memory budget.
    fn encode_options(&self) -> EncodeOptions {
        EncodeOptions {
            bv_width: self.bv_width,
            use_bounds: self.use_bounds,
            cancel: self.cancel.clone(),
            mem_budget_bytes: self.mem_budget_mb.map(|mb| {
                usize::try_from(mb)
                    .unwrap_or(usize::MAX)
                    .saturating_mul(1 << 20)
            }),
        }
    }

    fn session<'g>(
        &'g self,
        graph: &'g EventGraph,
    ) -> Result<gpumc_encode::SolverSession<'g>, VerifyError> {
        let opts = self.encode_options();
        let mut session = gpumc_encode::SolverSession::build(graph, &self.model, &opts)?;
        session.set_cancel_token(self.cancel.clone());
        session.set_conflict_budget(self.conflict_budget);
        Ok(session)
    }

    fn session_stats(
        &self,
        graph: &EventGraph,
        session: &gpumc_encode::SolverSession<'_>,
    ) -> Stats {
        Stats {
            events: graph.n_events(),
            threads: graph.threads().len(),
            sat_vars: session.num_vars(),
            sat_clauses: session.num_clauses(),
            time_us: session.last_query().map_or(0, |q| q.stats.time_us),
            ..Stats::default()
        }
    }

    fn encode<'g>(
        &'g self,
        graph: &'g EventGraph,
    ) -> Result<gpumc_encode::Encoding<'g>, VerifyError> {
        let opts = self.encode_options();
        let mut enc = encode(graph, &self.model, &opts)?;
        enc.set_cancel_token(self.cancel.clone());
        enc.set_conflict_budget(self.conflict_budget);
        Ok(enc)
    }

    /// Runs the DPOR engine over a compiled graph, threading the
    /// verifier's cancellation token and exploration budget through.
    /// The search stops at the first behaviour for which `visit`
    /// returns [`ControlFlow::Break`], so the returned counters cover
    /// the candidates up to the first witness.
    fn dpor_run<'g>(
        &self,
        graph: &'g EventGraph,
        visit: impl FnMut(&gpumc_exec::Behavior<'g>) -> ControlFlow<()>,
    ) -> Result<gpumc_exec::DporStats, VerifyError> {
        let mut opts = gpumc_exec::DporOptions::default();
        if let Some(cap) = self.enum_cap {
            opts.max_steps = cap;
        }
        let poll = self
            .cancel
            .as_ref()
            .map(|c| move || c.check().map(|i| i.to_string()));
        let poll_dyn = poll.as_ref().map(|f| f as &dyn Fn() -> Option<String>);
        gpumc_exec::dpor_explore_interruptible(graph, &self.model, &opts, poll_dyn, visit)
            .map_err(VerifyError::from)
    }

    fn dpor_stats(&self, graph: &EventGraph, st: gpumc_exec::DporStats) -> Stats {
        Stats {
            events: graph.n_events(),
            threads: graph.threads().len(),
            candidates: st.explored,
            dpor: Some(st),
            ..Stats::default()
        }
    }

    fn sat_stats(&self, graph: &EventGraph, enc: &gpumc_encode::Encoding<'_>) -> Stats {
        Stats {
            events: graph.n_events(),
            threads: graph.threads().len(),
            sat_vars: enc.num_vars(),
            sat_clauses: enc.num_clauses(),
            ..Stats::default()
        }
    }
}

fn assertion_query(a: &Assertion) -> (&Condition, bool) {
    match a {
        Assertion::Exists(c) | Assertion::NotExists(c) => (c, false),
        Assertion::Forall(c) => (c, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP_WEAK: &str = r#"
PTX MP
{ x = 0; flag = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
st.weak x, 1 | ld.weak r0, flag ;
st.weak flag, 1 | ld.weak r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#;

    #[test]
    fn sat_and_enumerate_agree_on_weak_mp() {
        let p = parse_litmus(MP_WEAK).unwrap();
        for engine in [
            EngineKind::Sat,
            EngineKind::Enumerate {
                straight_line_only: false,
            },
            EngineKind::Dpor,
        ] {
            let v = Verifier::new(gpumc_models::ptx60()).with_engine(engine);
            let o = v.check_assertion(&p).unwrap();
            assert!(o.reachable);
            assert_eq!(o.satisfied_expectation, Some(true));
            assert!(o.witness.is_some());
            assert!(o.stats.events > 0);
        }
    }

    #[test]
    fn straight_line_baseline_rejects_loops() {
        let src = r#"
PTX spin
{ flag = 0; }
P0@cta 0,gpu 0 ;
LC00: ;
ld.relaxed.gpu r0, flag ;
bne r0, 1, LC00 ;
exists (P0:r0 == 1)
"#;
        let p = parse_litmus(src).unwrap();
        let v = Verifier::new(gpumc_models::ptx60()).with_engine(EngineKind::Enumerate {
            straight_line_only: true,
        });
        assert!(matches!(
            v.check_assertion(&p),
            Err(VerifyError::Unsupported(_))
        ));
        // The SAT engine handles it.
        let v = Verifier::new(gpumc_models::ptx60());
        let o = v.check_liveness(&p).unwrap();
        assert!(o.violated);
    }

    #[test]
    fn drf_requires_a_flagged_model() {
        let p = parse_litmus(MP_WEAK).unwrap();
        let v = Verifier::new(gpumc_models::ptx60());
        assert!(matches!(
            v.check_data_races(&p),
            Err(VerifyError::Unsupported(_))
        ));
    }

    #[test]
    fn vulkan_drf_query_finds_races() {
        let src = r#"
VULKAN race
{ x = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1       | ld.sc0 r0, x ;
exists (P1:r0 == 1)
"#;
        let p = parse_litmus(src).unwrap();
        let v = Verifier::new(gpumc_models::vulkan());
        let o = v.check_data_races(&p).unwrap();
        assert!(o.violated);
        assert!(o.witness.is_some());
    }

    #[test]
    fn witness_rendering_mentions_events() {
        let p = parse_litmus(MP_WEAK).unwrap();
        let v = Verifier::new(gpumc_models::ptx60());
        let o = v.check_assertion(&p).unwrap();
        let w = o.witness.unwrap();
        assert!(w.rendering.contains("rf:"));
        assert!(w.rendering.contains("P0:1"));
    }

    #[test]
    #[should_panic(expected = "bound must be at least 1")]
    fn zero_bound_panics() {
        let _ = Verifier::new(gpumc_models::ptx60()).with_bound(0);
    }

    #[test]
    fn cancelled_verifier_reports_unknown() {
        let p = parse_litmus(MP_WEAK).unwrap();
        let token = gpumc_sat::CancelToken::new();
        token.cancel();
        let v = Verifier::new(gpumc_models::ptx60()).with_cancel_token(token);
        assert!(matches!(v.check_all(&p), Err(VerifyError::Unknown(_))));
        assert!(matches!(
            v.check_assertion(&p),
            Err(VerifyError::Unknown(_))
        ));
        // A fresh verifier over the same (shared) model still answers.
        let v = Verifier::new(gpumc_models::ptx60());
        assert!(v.check_all(&p).unwrap().assertion.reachable);
    }

    #[test]
    fn tiny_conflict_budget_is_unknown_not_panic() {
        // IRIW under scoped PTX is hard enough to need more than one
        // conflict; the budget must surface as Unknown, never a panic.
        let src = r#"
PTX IRIW
{ x = 0; y = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 | P2@cta 2,gpu 0 | P3@cta 3,gpu 0 ;
st.weak x, 1 | ld.weak r0, x | ld.weak r0, y | st.weak y, 1 ;
 | ld.weak r1, y | ld.weak r1, x | ;
exists (P1:r0 == 1 /\ P1:r1 == 0 /\ P2:r0 == 1 /\ P2:r1 == 0)
"#;
        let p = parse_litmus(src).unwrap();
        let v = Verifier::new(gpumc_models::ptx60()).with_conflict_budget(1);
        match v.check_all(&p) {
            Err(VerifyError::Unknown(reason)) => {
                assert!(reason.contains("budget"), "reason: {reason}")
            }
            Ok(_) => {} // solved within one conflict: also fine
            Err(e) => panic!("expected Unknown, got {e:?}"),
        }
    }

    #[test]
    fn incremental_check_all_reports_phase_timings() {
        let p = parse_litmus(MP_WEAK).unwrap();
        let v = Verifier::new(gpumc_models::ptx60());
        let o = v.check_all(&p).unwrap();
        assert!(o.phases.encode_us > 0, "encoding must take measurable time");
        assert!(
            u128::from(o.phases.encode_us) <= o.total_time_us,
            "phase time cannot exceed the total"
        );
    }

    #[test]
    fn engine_names_parse() {
        assert_eq!("sat".parse::<EngineKind>(), Ok(EngineKind::Sat));
        assert_eq!(
            "enumerate".parse::<EngineKind>(),
            Ok(EngineKind::Enumerate {
                straight_line_only: false
            })
        );
        assert_eq!(
            "alloy".parse::<EngineKind>(),
            Ok(EngineKind::Enumerate {
                straight_line_only: true
            })
        );
        assert_eq!("dpor".parse::<EngineKind>(), Ok(EngineKind::Dpor));
        let err = "smt".parse::<EngineKind>().unwrap_err();
        assert!(err.contains("unknown engine `smt`"), "err: {err}");
        assert!(err.contains("dpor"), "error must list valid names: {err}");
    }

    #[test]
    fn dpor_engine_handles_branching_and_cancellation() {
        let src = r#"
PTX spin
{ flag = 0; }
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;
LC00: | st.relaxed.gpu flag, 1 ;
ld.relaxed.gpu r0, flag | ;
bne r0, 1, LC00 | ;
exists (P0:r0 == 1)
"#;
        let p = parse_litmus(src).unwrap();
        let v = Verifier::new(gpumc_models::ptx60()).with_engine(EngineKind::Dpor);
        let o = v.check_assertion(&p).unwrap();
        assert!(o.reachable, "the spin loop exits once the flag is set");
        assert!(o.stats.dpor.is_some(), "dpor stats must be recorded");
        let live = v.check_liveness(&p).unwrap();
        assert!(
            !live.violated,
            "the stuck read cannot be co-maximal once the writer runs"
        );
        // A cancelled run withholds the verdict.
        let token = gpumc_sat::CancelToken::new();
        token.cancel();
        let v = v.with_cancel_token(token);
        assert!(matches!(
            v.check_assertion(&p),
            Err(VerifyError::Unknown(_))
        ));
        // So does a starved step budget.
        let v = Verifier::new(gpumc_models::ptx60())
            .with_engine(EngineKind::Dpor)
            .with_enumeration_cap(2);
        assert!(matches!(
            v.check_assertion(&p),
            Err(VerifyError::Unknown(_))
        ));
    }

    /// Two racy reads after two racy writes: four candidates, the first
    /// one already racy.
    const VULKAN_RACE2: &str = r#"
VULKAN race2
{ x = 0; y = 0; }
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;
st.sc0 x, 1       | ld.sc0 r0, x ;
st.sc0 y, 1       | ld.sc0 r1, y ;
exists (P1:r0 == 1)
"#;

    /// Runs DPOR exhaustively over `p` and returns the rendering of the
    /// first behaviour `accept` takes as a witness, plus the run's
    /// explored count.
    fn first_dpor_witness(
        v: &Verifier,
        p: &Program,
        accept: impl Fn(&gpumc_exec::Behavior<'_>) -> bool,
    ) -> (String, u64) {
        let g = v.compile(p).unwrap();
        let opts = gpumc_exec::DporOptions::default();
        let mut first = None;
        let st = gpumc_exec::dpor_explore(&g, v.model(), &opts, |b| {
            if first.is_none() && accept(b) {
                first = Some(b.execution.render());
            }
        })
        .unwrap();
        (first.expect("the program has a witness"), st.explored)
    }

    #[test]
    fn dpor_data_race_check_stops_at_the_first_witness() {
        let p = parse_litmus(VULKAN_RACE2).unwrap();
        let v = Verifier::new(gpumc_models::vulkan()).with_engine(EngineKind::Dpor);
        let (first, exhaustive) = first_dpor_witness(&v, &p, |b| {
            b.execution.all_completed() && b.verdict.has_flag("dr")
        });
        let o = v.check_data_races(&p).unwrap();
        assert!(o.violated);
        assert_eq!(o.witness.unwrap().rendering, first);
        let explored = o.stats.dpor.unwrap().explored;
        assert!(
            explored < exhaustive,
            "the search must end at the first race: {explored} of {exhaustive} candidates"
        );
        assert_eq!(o.stats.candidates, explored);
    }

    #[test]
    fn dpor_assertion_check_stops_at_the_first_witness() {
        let p = parse_litmus(MP_WEAK).unwrap();
        let Some(Assertion::Exists(cond)) = p.assertion.clone() else {
            panic!("MP has an exists condition");
        };
        let v = Verifier::new(gpumc_models::ptx60()).with_engine(EngineKind::Dpor);
        let (first, exhaustive) = first_dpor_witness(&v, &p, |b| {
            b.execution.all_completed() && b.execution.eval_condition(&cond) == Some(true)
        });
        let o = v.check_assertion(&p).unwrap();
        assert!(o.reachable);
        assert_eq!(o.witness.unwrap().rendering, first);
        let explored = o.stats.dpor.unwrap().explored;
        assert!(
            explored < exhaustive,
            "the search must end at the first witness: {explored} of {exhaustive} candidates"
        );
    }

    #[test]
    fn dpor_step_cap_past_the_first_race_answers_violated() {
        // The first race takes 6 exploration steps, the whole tree 17.
        const CAP: u64 = 10;
        let p = parse_litmus(VULKAN_RACE2).unwrap();
        let v = Verifier::new(gpumc_models::vulkan()).with_engine(EngineKind::Dpor);
        // The exhaustive search needs more than CAP steps...
        let g = v.compile(&p).unwrap();
        let opts = gpumc_exec::DporOptions {
            max_steps: CAP,
            ..gpumc_exec::DporOptions::default()
        };
        assert!(matches!(
            gpumc_exec::dpor_explore(&g, v.model(), &opts, |_| {}),
            Err(gpumc_exec::DporError::Interrupted(_))
        ));
        // ...but the first race lies within them.
        let o = v.with_enumeration_cap(CAP).check_data_races(&p).unwrap();
        assert!(o.violated);
    }

    #[test]
    fn parse_error_surfaces() {
        assert!(matches!(
            parse_litmus("garbage"),
            Err(VerifyError::Parse(_))
        ));
    }
}
