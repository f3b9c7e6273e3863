//! Execution graphs, relation algebra, and the explicit-state engine.
//!
//! This crate gives concrete semantics to programs and `.cat` models:
//!
//! * [`arena`] — the word-parallel kernels of the `.cat` operator
//!   algebra (union, intersection, difference, composition, inverse,
//!   closures, the cycle check) over flat bit arenas, shared by every
//!   evaluator; [`EventSet`] / [`Relation`] are their owned values;
//! * [`GraphFacts`] — the per-event attributes and fixed base relations
//!   of one event graph, taken once;
//! * [`Execution`] — a candidate behaviour `(X, rf, co)` of §2.2: the
//!   executed events, the read-from relation, the coherence order, plus
//!   the runtime-chosen `sync_fence` order of PTX;
//! * [`Interpreter`] — evaluates a resolved [`gpumc_cat::CatModel`]'s
//!   node table over an execution, checking consistency axioms and
//!   flagged detectors (data races);
//! * [`enumerate`] — the explicit-state engine: enumerates all
//!   well-defined executions of an event graph and filters them through
//!   the interpreter. This is our stand-in for the Alloy-based tools the
//!   paper compares against (and deliberately shares their exponential
//!   scaling, reproduced in Figure 15);
//! * [`dpor_explore`] — the stateless DPOR engine: explores behaviours
//!   incrementally and prunes redundant interleavings with rf/co-aware
//!   partial-order reduction plus sleep sets over SC fences, scaling
//!   past the enumerator's toy bounds. Both engines complete and check
//!   each candidate in one shared stage, so they accept the same
//!   behaviour set; both handle branching programs, and only the
//!   straight-line (`alloy`) configuration of [`enumerate`] rejects
//!   them.
//!
//! The SAT engine in `gpumc-encode` must agree with these engines on
//! every behaviour — that cross-validation mirrors the paper's Table 5.

pub mod arena;
mod base;
mod bitrel;
mod candidate;
mod dpor;
mod enumerate;
mod execution;
mod facts;
mod interp;

pub use base::BaseInterpretation;
pub use bitrel::{EventSet, Relation};
pub use candidate::{Behavior, ExploreError};
pub use dpor::{dpor_explore, dpor_explore_interruptible, monotone_axioms, DporOptions, DporStats};
pub use enumerate::{enumerate, enumerate_consistent, EnumerateOptions};
pub use execution::{Execution, ThreadOutcome};
pub use facts::{GraphFacts, FIXED_RELS};
pub use interp::{ConsistencyVerdict, DefValue, FlagHit, Interpreter};
