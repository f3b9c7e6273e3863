//! Execution graphs, relation algebra, and the explicit-state engine.
//!
//! This crate gives concrete semantics to programs and `.cat` models:
//!
//! * [`EventSet`] / [`Relation`] — dense bit-set sets of events and
//!   binary relations over them, with the full `.cat` operator algebra
//!   (union, intersection, difference, composition, inverse, closures);
//! * [`Execution`] — a candidate behaviour `(X, rf, co)` of §2.2: the
//!   executed events, the read-from relation, the coherence order, plus
//!   the runtime-chosen `sync_fence` order of PTX;
//! * [`Interpreter`] — evaluates a resolved [`gpumc_cat::CatModel`] over
//!   an execution, checking consistency axioms and flagged detectors
//!   (data races);
//! * [`enumerate`] — the explicit-state engine: enumerates all
//!   well-defined executions of an event graph and filters them through
//!   the interpreter. This is our stand-in for the Alloy-based tools the
//!   paper compares against (and deliberately shares their exponential
//!   scaling, reproduced in Figure 15);
//! * [`dpor_explore`] — the stateless DPOR engine: explores behaviours
//!   incrementally and prunes redundant interleavings with rf/co-aware
//!   partial-order reduction plus sleep sets over SC fences, accepting
//!   the same behaviour set as [`enumerate`] while scaling past its toy
//!   bounds and handling branching programs.
//!
//! The SAT engine in `gpumc-encode` must agree with these engines on
//! every behaviour — that cross-validation mirrors the paper's Table 5.

mod base;
mod bitrel;
mod dpor;
mod enumerate;
mod execution;
mod interp;

pub use base::BaseInterpretation;
pub use bitrel::{EventSet, Relation};
pub use dpor::{dpor_explore, dpor_explore_interruptible, DporError, DporOptions, DporStats};
pub use enumerate::{enumerate, enumerate_consistent, Behavior, EnumerateError, EnumerateOptions};
pub use execution::{Execution, ThreadOutcome};
pub use interp::{ConsistencyVerdict, DefValue, FlagHit, Interpreter};
