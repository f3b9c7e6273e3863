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
//!   gates for every derived relation of the model, and the axioms. Each
//!   model node is encoded only in the directions its readers need, its
//!   [`gpumc_cat::Polarity`]: `value ⇒ literal` for what the axioms read
//!   (they only forbid true pairs), `literal ⇒ value` for what a flag or
//!   the right side of a `\` reads, and an equivalence only for a node
//!   read both ways. For every accepted execution the exact values still
//!   satisfy the CNF, so a "no witness" answer stays sound; in every SAT
//!   model a lower literal is at least its relation's value and an upper
//!   literal at most, which is all an axiom or a flag needs. Closures and
//!   recursive definitions read lower are Horn rules whose models contain
//!   the least fixpoint; read upper, they are exact only over a body that
//!   is acyclic in every model (DESIGN.md §8). The literals of every
//!   model node are slots of one flat store per encoding, ranked by the
//!   analysis' active sets (`lits.rs`), so building a node allocates
//!   nothing and iterates in the arena's row order.
//! * Queries — safety (`exists`/`forall` conditions), liveness (§6.4
//!   co-maximal stuck spinloops), and flagged detectors of the form
//!   `flag ~empty r` (data races).
//!   Every query is assumption-guarded (gated behind a fresh activation
//!   literal), so all of a test's properties are posed against one
//!   encoding and its single solver, whose learnt clauses carry over.
//!   The encoding keeps a ledger of one [`QueryRecord`] per answered
//!   query: its label and the solver's [`QueryStats`] counter deltas.
//!
//! Every satisfying assignment is decoded into a concrete
//! [`gpumc_exec::Execution`] and *re-validated* with the explicit
//! interpreter before being reported: it must be consistent and show its
//! query's goal (every thread completed, a liveness violation, or the
//! flag raised). So the two engines cross-check each other on every
//! witness (the paper's Table 5 validation, continuously).

mod bounds;
mod encode;
mod lits;

pub use bounds::RelationAnalysis;
pub use encode::{
    encode, EncodeError, EncodeOptions, Encoding, QueryRecord, QueryResult, QueryStats,
};
