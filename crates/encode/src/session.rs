//! An incremental query session: one encoding, many property queries.
//!
//! Verifying one litmus test asks up to three questions of the *same*
//! bounded event graph — is the assertion reachable, can a thread get
//! stuck (liveness), and does a flagged axiom such as the Vulkan `dr`
//! data-race detector fire. Encoding the program semantics and the
//! `.cat` model once and re-solving per property is sound because every
//! query in [`Encoding`] is *assumption-guarded*: its clauses are gated
//! behind a fresh activation literal and posed via
//! `Solver::solve_with_assumptions`, so a later query sees earlier
//! query clauses only as satisfiable-by-deactivation noise while the
//! solver's learnt clauses (implied by the shared database) carry over.
//!
//! [`SolverSession`] packages that reuse: it owns the encoding, exposes
//! the property queries, and records a per-query [`QueryStats`] delta of
//! the shared solver's cumulative counters so callers can measure what
//! incrementality saves (e.g. a liveness query that starts with a
//! non-zero `learnt_before` is reusing the assertion query's learning).

use std::time::Instant;

use gpumc_cat::CatModel;
use gpumc_ir::{Condition, EventGraph};

use crate::encode::{encode, encode_memoized, EncodeError, EncodeOptions, Encoding, QueryResult};
use crate::memo::BoundsMemo;

/// Deltas of the shared solver's cumulative statistics over one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Conflicts spent answering this query.
    pub conflicts: u64,
    /// Decisions spent answering this query.
    pub decisions: u64,
    /// Unit propagations spent answering this query.
    pub propagations: u64,
    /// Live learnt clauses when the query started. Non-zero on a second
    /// or later query means earlier learning is being reused.
    pub learnt_before: usize,
    /// Live learnt clauses when the query finished.
    pub learnt_after: usize,
    /// Wall-clock time of the query (encode time excluded).
    pub time_us: u128,
}

impl QueryStats {
    /// Learnt clauses added by this query (saturating: database
    /// reduction on huge instances can shrink the live count).
    pub fn learnt_delta(&self) -> usize {
        self.learnt_after.saturating_sub(self.learnt_before)
    }
}

/// A labelled, per-query statistics record of a session.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// What was asked: `"assertion"`, `"liveness"`, `"flag:dr"`, ...
    pub label: String,
    /// The solver-counter deltas for that query.
    pub stats: QueryStats,
}

/// One encoding of a (graph, model) pair, ready to answer several
/// assumption-guarded property queries against a single solver.
///
/// # Example
///
/// ```
/// let src = "PTX MP\n{ x = 0; flag = 0; }\n\
/// P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
/// st.weak x, 1 | ld.weak r0, flag ;\n\
/// st.weak flag, 1 | ld.weak r1, x ;\n\
/// exists (P1:r0 == 1 /\\ P1:r1 == 0)";
/// let p = gpumc_litmus::parse(src).unwrap();
/// let g = gpumc_ir::compile(&gpumc_ir::unroll(&p, 1).unwrap());
/// let model = gpumc_models::ptx60();
/// let mut session = gpumc_encode::SolverSession::build(&g, &model, &Default::default()).unwrap();
/// assert!(session.find_assertion_witness().unwrap().found);
/// assert!(!session.find_liveness_violation().unwrap().found);
/// assert_eq!(session.queries().len(), 2);
/// ```
pub struct SolverSession<'g> {
    enc: Encoding<'g>,
    queries: Vec<QueryRecord>,
}

impl<'g> SolverSession<'g> {
    /// Encodes `graph` under `model` into a fresh session.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`encode`].
    pub fn build(
        graph: &'g EventGraph,
        model: &CatModel,
        opts: &EncodeOptions,
    ) -> Result<SolverSession<'g>, EncodeError> {
        Ok(SolverSession::from_encoding(encode(graph, model, opts)?))
    }

    /// Like [`SolverSession::build`] but sources relation-analysis
    /// bounds from `memo` (see [`encode_memoized`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`encode`].
    pub fn build_memoized(
        graph: &'g EventGraph,
        model: &CatModel,
        opts: &EncodeOptions,
        memo: &BoundsMemo,
    ) -> Result<SolverSession<'g>, EncodeError> {
        Ok(SolverSession::from_encoding(encode_memoized(
            graph, model, opts, memo,
        )?))
    }

    /// Wraps an already-built encoding.
    pub fn from_encoding(enc: Encoding<'g>) -> SolverSession<'g> {
        SolverSession {
            enc,
            queries: Vec::new(),
        }
    }

    /// Searches for a behaviour satisfying the test's assertion (or
    /// violating it, for `forall` tests). See
    /// [`Encoding::find_assertion_witness`].
    ///
    /// # Errors
    ///
    /// See [`Encoding::find_assertion_witness`].
    pub fn find_assertion_witness(&mut self) -> Result<QueryResult<'g>, EncodeError> {
        self.run("assertion", Encoding::find_assertion_witness)
    }

    /// Searches for a behaviour where `cond` (negated with `negate`)
    /// holds. See [`Encoding::find_condition`].
    ///
    /// # Errors
    ///
    /// See [`Encoding::find_assertion_witness`].
    pub fn find_condition(
        &mut self,
        cond: &Condition,
        negate: bool,
    ) -> Result<QueryResult<'g>, EncodeError> {
        self.run("condition", |enc| enc.find_condition(cond, negate))
    }

    /// Searches for a liveness violation. See
    /// [`Encoding::find_liveness_violation`].
    ///
    /// # Errors
    ///
    /// See [`Encoding::find_assertion_witness`].
    pub fn find_liveness_violation(&mut self) -> Result<QueryResult<'g>, EncodeError> {
        self.run("liveness", Encoding::find_liveness_violation)
    }

    /// Searches for a behaviour raising the model flag `name`. See
    /// [`Encoding::find_flag`].
    ///
    /// # Errors
    ///
    /// See [`Encoding::find_flag`].
    pub fn find_flag(&mut self, name: &str) -> Result<QueryResult<'g>, EncodeError> {
        self.run(&format!("flag:{name}"), |enc| enc.find_flag(name))
    }

    /// Whether the model defines the flagged relation `name` (a
    /// [`SolverSession::find_flag`] query on it can succeed).
    pub fn has_flag(&self, name: &str) -> bool {
        self.enc.has_flag(name)
    }

    /// Per-query solver-counter deltas, in query order.
    pub fn queries(&self) -> &[QueryRecord] {
        &self.queries
    }

    /// The record of the most recent query.
    pub fn last_query(&self) -> Option<&QueryRecord> {
        self.queries.last()
    }

    /// Variables in the shared formula (grows as queries add gates).
    pub fn num_vars(&self) -> usize {
        self.enc.num_vars()
    }

    /// Clauses in the shared formula (grows as queries add gates).
    pub fn num_clauses(&self) -> usize {
        self.enc.num_clauses()
    }

    /// The underlying encoding (diagnostics).
    pub fn encoding(&self) -> &Encoding<'g> {
        &self.enc
    }

    /// Installs (or clears) a cancellation token polled during every
    /// query of this session (see [`Encoding::set_cancel_token`]).
    pub fn set_cancel_token(&mut self, token: Option<gpumc_sat::CancelToken>) {
        self.enc.set_cancel_token(token);
    }

    /// Limits SAT conflicts per query (see
    /// [`Encoding::set_conflict_budget`]).
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.enc.set_conflict_budget(budget);
    }

    /// Microseconds spent on relation-analysis bounds during build.
    pub fn bounds_time_us(&self) -> u64 {
        self.enc.bounds_time_us()
    }

    /// Microseconds spent building the SAT encoding during build.
    pub fn encode_time_us(&self) -> u64 {
        self.enc.encode_time_us()
    }

    fn run<F>(&mut self, label: &str, query: F) -> Result<QueryResult<'g>, EncodeError>
    where
        F: FnOnce(&mut Encoding<'g>) -> Result<QueryResult<'g>, EncodeError>,
    {
        let before = self.enc.solver_stats();
        let start = Instant::now();
        let result = query(&mut self.enc);
        let after = self.enc.solver_stats();
        // Failed queries (e.g. a flag the model does not define) touch
        // nothing in the solver: keep the ledger to answered queries.
        if result.is_ok() {
            self.queries.push(QueryRecord {
                label: label.to_string(),
                stats: QueryStats {
                    conflicts: after.conflicts - before.conflicts,
                    decisions: after.decisions - before.decisions,
                    propagations: after.propagations - before.propagations,
                    learnt_before: before.learnt,
                    learnt_after: after.learnt,
                    time_us: start.elapsed().as_micros(),
                },
            });
        }
        result
    }
}

impl std::fmt::Debug for SolverSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverSession")
            .field("vars", &self.num_vars())
            .field("clauses", &self.num_clauses())
            .field("queries", &self.queries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = "PTX MP\n{ x = 0; flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | ld.weak r0, flag ;\n\
st.weak flag, 1 | ld.weak r1, x ;\n\
exists (P1:r0 == 1 /\\ P1:r1 == 0)";

    fn graph(src: &str, bound: u32) -> EventGraph {
        let p = gpumc_litmus::parse(src).unwrap();
        gpumc_ir::compile(&gpumc_ir::unroll(&p, bound).unwrap())
    }

    #[test]
    fn session_answers_all_three_properties_from_one_encoding() {
        let g = graph(MP, 1);
        let model = gpumc_models::ptx60();
        let mut s = SolverSession::build(&g, &model, &Default::default()).unwrap();
        let vars_after_encode = s.num_vars();
        assert!(s.find_assertion_witness().unwrap().found);
        assert!(!s.find_liveness_violation().unwrap().found);
        assert!(!s.has_flag("dr"), "PTX models define no dr flag");
        assert!(s.find_flag("dr").is_err());
        // All queries shared one formula: later queries only appended
        // gated clauses, they never rebuilt the base encoding.
        assert!(s.num_vars() >= vars_after_encode);
        assert_eq!(s.queries().len(), 2, "failed flag query records nothing");
        assert_eq!(s.queries()[0].label, "assertion");
        assert_eq!(s.queries()[1].label, "liveness");
    }

    #[test]
    fn later_queries_start_with_earlier_learning() {
        // Use a bound-2 spinloop test so the assertion query actually
        // learns something before liveness runs.
        let spin: &str = "PTX spin\n{ flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.relaxed.gpu flag, 1 | LC00: ;\n\
 | ld.relaxed.gpu r0, flag ;\n\
 | bne r0, 1, LC00 ;\n\
exists (P1:r0 == 1)";
        let g = graph(spin, 2);
        let model = gpumc_models::ptx60();
        let mut s = SolverSession::build(&g, &model, &Default::default()).unwrap();
        let _ = s.find_assertion_witness().unwrap();
        let _ = s.find_liveness_violation().unwrap();
        let q = s.queries();
        assert_eq!(q.len(), 2);
        assert_eq!(
            q[1].stats.learnt_before, q[0].stats.learnt_after,
            "liveness query must inherit the assertion query's learnt clauses"
        );
    }

    #[test]
    fn interrupted_query_reports_unknown_and_session_survives() {
        let g = graph(MP, 1);
        let model = gpumc_models::ptx60();
        let mut s = SolverSession::build(&g, &model, &Default::default()).unwrap();
        let token = gpumc_sat::CancelToken::new();
        token.cancel();
        s.set_cancel_token(Some(token));
        match s.find_assertion_witness() {
            Err(EncodeError::Unknown(reason)) => assert_eq!(reason, "cancelled"),
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert_eq!(s.queries().len(), 0, "interrupted query records nothing");
        // The session answers correctly once the token is cleared.
        s.set_cancel_token(None);
        assert!(s.find_assertion_witness().unwrap().found);
        assert!(!s.find_liveness_violation().unwrap().found);
    }

    #[test]
    fn session_verdicts_match_fresh_encodings() {
        let g = graph(MP, 1);
        let model = gpumc_models::ptx60();
        let opts = EncodeOptions::default();
        let mut s = SolverSession::build(&g, &model, &opts).unwrap();
        let a = s.find_assertion_witness().unwrap().found;
        let l = s.find_liveness_violation().unwrap().found;
        let mut fresh_a = encode(&g, &model, &opts).unwrap();
        let mut fresh_l = encode(&g, &model, &opts).unwrap();
        assert_eq!(a, fresh_a.find_assertion_witness().unwrap().found);
        assert_eq!(l, fresh_l.find_liveness_violation().unwrap().found);
    }
}
