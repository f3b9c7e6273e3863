//! The Dartagnan-style SAT engine: relation analysis and CNF encoding.
//!
//! The paper's tool encodes a program's semantics modulo a `.cat` model
//! as an SMT formula (§2.3, §6.3). This crate reproduces that pipeline on
//! top of the `gpumc-sat` solver:
//!
//! * [`RelationAnalysis`] — static lower/upper bounds for all base and
//!   derived relations (Table 3), and *active sets*: the pairs of each
//!   model expression that can change whether an axiom holds, derived
//!   top-down from the axioms. Every expression is encoded on its active
//!   pairs only, which lie within its upper bound; static relations are
//!   plain conjunctions of execution literals (Table 4's first row).
//! * [`Encoding`] — the CNF encoding: guarded control flow, bit-blasted
//!   data flow, decision variables for `rf`, the (partial for PTX, total
//!   for Vulkan) coherence order `co`, the runtime `sync_fence` order,
//!   gates for every derived relation of the model, and the axioms.
//!   Recursive definitions and closures use cyclic iff-gates; every model
//!   then satisfies `var ⊇ least fixpoint`, which is sound and complete
//!   here because all cat axioms (`empty`/`irreflexive`/`acyclic`) are
//!   anti-monotone in their relations and flags are asserted through
//!   negations (see DESIGN.md §"closure encoding").
//! * Queries — safety (`exists`/`forall` conditions), liveness (§6.4
//!   co-maximal stuck spinloops), and flagged detectors (data races).
//!   Every query is assumption-guarded (gated behind a fresh activation
//!   literal), so all of a test's properties are posed against one
//!   encoding and its single solver, whose learnt clauses carry over.
//!   The encoding keeps a ledger of one [`QueryRecord`] per answered
//!   query: its label and the solver's [`QueryStats`] counter deltas.
//!
//! Every satisfying assignment is decoded into a concrete
//! [`gpumc_exec::Execution`] and *re-validated* with the explicit
//! interpreter before being reported, so the two engines cross-check each
//! other on every witness (the paper's Table 5 validation, continuously).

mod bounds;
mod encode;

pub use bounds::RelationAnalysis;
pub use encode::{
    encode, EncodeError, EncodeOptions, Encoding, QueryRecord, QueryResult, QueryStats,
};
