//! The explicit-state enumeration engine.
//!
//! Enumerates every well-defined behaviour `(X, rf, co)` of an event
//! graph (§2.2) and checks each against a `.cat` model. This is the
//! workspace's stand-in for the Alloy-based prototype tools: it is exact
//! on small programs and exponential in the number of events, which is
//! precisely the scaling contrast Figure 15 of the paper demonstrates.
//! It takes the whole leaf × rf × co × fence product; completion and
//! check are the [`crate::candidate`] stage it shares with DPOR.

use gpumc_cat::CatModel;
use gpumc_ir::{BlockId, EventGraph, EventId, Tag, UTerm};

use crate::candidate::{executed_events, permute, Behavior, ExploreError, Stage};

/// SC fences beyond which the enumerator does not order them.
const MAX_SC_FENCES: usize = 6;

/// Options controlling enumeration.
#[derive(Debug, Clone)]
pub struct EnumerateOptions {
    /// Hard cap on candidate behaviours (guards against blow-up).
    pub max_candidates: u64,
    /// Restricts the engine to straight-line programs, like the Alloy
    /// prototypes (no control flow, no loops).
    pub straight_line_only: bool,
}

impl Default for EnumerateOptions {
    fn default() -> EnumerateOptions {
        EnumerateOptions {
            max_candidates: 50_000_000,
            straight_line_only: false,
        }
    }
}

/// Aggregate statistics of one enumeration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Candidate behaviours constructed (before consistency checking).
    pub candidates: u64,
    /// Candidates that satisfied all consistency axioms.
    pub consistent: u64,
}

/// Enumerates all consistent behaviours, invoking `visit` for each.
///
/// # Errors
///
/// Fails when the program exceeds the configured caps, or (with
/// `straight_line_only`) uses control flow.
pub fn enumerate<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &EnumerateOptions,
    mut visit: impl FnMut(&Behavior<'g>),
) -> Result<EnumStats, ExploreError> {
    let mut e = Enumerator {
        graph,
        stage: Stage::new(graph, model),
        opts,
        stats: EnumStats::default(),
        visit: &mut visit,
    };
    e.run()?;
    Ok(e.stats)
}

/// Convenience wrapper collecting all consistent behaviours.
///
/// # Errors
///
/// See [`enumerate`].
pub fn enumerate_consistent<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &EnumerateOptions,
) -> Result<Vec<Behavior<'g>>, ExploreError> {
    let mut out = Vec::new();
    enumerate(graph, model, opts, |b| out.push(b.clone()))?;
    Ok(out)
}

struct Enumerator<'g, 'a, F: FnMut(&Behavior<'g>)> {
    graph: &'g EventGraph,
    stage: Stage<'g, 'a>,
    opts: &'a EnumerateOptions,
    stats: EnumStats,
    visit: &'a mut F,
}

/// Advances an odometer whose digit `k` counts up to `len(k)`; `false`
/// once it wraps around to all zeros.
fn next_combo(digits: &mut [usize], len: impl Fn(usize) -> usize) -> bool {
    for (k, d) in digits.iter_mut().enumerate() {
        *d += 1;
        if *d < len(k) {
            return true;
        }
        *d = 0;
    }
    false
}

impl<'g, F: FnMut(&Behavior<'g>)> Enumerator<'g, '_, F> {
    fn run(&mut self) -> Result<(), ExploreError> {
        let g = self.graph;
        if self.opts.straight_line_only
            && g.blocks()
                .iter()
                .any(|b| matches!(b.term, UTerm::Branch { .. } | UTerm::Bound { .. }))
        {
            return Err(ExploreError::Unsupported(
                "control-flow instructions (straight-line engine)".into(),
            ));
        }
        // Per-thread leaves.
        let leaves: Vec<Vec<BlockId>> = (0..g.threads().len())
            .map(|t| g.thread_leaves(t).into_iter().map(|(b, _)| b).collect())
            .collect();
        let mut combo = vec![0usize; leaves.len()];
        loop {
            let chosen: Vec<BlockId> = combo.iter().zip(&leaves).map(|(&i, l)| l[i]).collect();
            let mut events = Vec::new();
            executed_events(g, &chosen, &mut events);
            let of = |tag| -> Vec<EventId> {
                events
                    .iter()
                    .copied()
                    .filter(|&e| g.event(e).tags.contains(tag))
                    .collect()
            };
            let (reads, writes) = (of(Tag::R), of(Tag::W));
            let mut rf = vec![None; g.n_events()];
            self.assign_rf(&chosen, &reads, &writes, &mut rf)?;
            if !next_combo(&mut combo, |k| leaves[k].len()) {
                return Ok(());
            }
        }
    }

    /// Every rf assignment of `reads` to aliasing `writes`, each
    /// completed and, if it survives, refined by co and fence orders.
    fn assign_rf(
        &mut self,
        leaves: &[BlockId],
        reads: &[EventId],
        writes: &[EventId],
        rf: &mut Vec<Option<EventId>>,
    ) -> Result<(), ExploreError> {
        let Some((&r, rest)) = reads.split_first() else {
            return self.finish_rf(leaves, rf);
        };
        for &w in writes {
            if self.graph.may_alias(r, w) {
                rf[r.index()] = Some(w);
                self.assign_rf(leaves, rest, writes, rf)?;
            }
        }
        rf[r.index()] = None;
        Ok(())
    }

    /// Completes the candidate, then checks it under every product of
    /// per-location coherence orders and every SC-fence order.
    fn finish_rf(
        &mut self,
        leaves: &[BlockId],
        rf: &[Option<EventId>],
    ) -> Result<(), ExploreError> {
        if !self.stage.complete(leaves, rf)? {
            return Ok(());
        }
        let mut fences = self.stage.sc_fences().to_vec();
        if fences.len() > MAX_SC_FENCES {
            return Err(ExploreError::TooComplex(format!(
                "{} SC fences to order",
                fences.len()
            )));
        }
        let mut co_choice = vec![0usize; self.stage.per_loc().len()];
        loop {
            self.stage.choose_co(&co_choice);
            // A full pass of `permute` leaves `fences` in its order.
            permute(&mut fences, 0, &mut |order| self.check(order))?;
            if !next_combo(&mut co_choice, |k| self.stage.per_loc()[k].len()) {
                return Ok(());
            }
        }
    }

    fn check(&mut self, fence_order: &[EventId]) -> Result<(), ExploreError> {
        self.stats.candidates += 1;
        if self.stats.candidates > self.opts.max_candidates {
            return Err(ExploreError::TooComplex(format!(
                "more than {} candidate behaviours",
                self.opts.max_candidates
            )));
        }
        if let Some(b) = self.stage.check(fence_order) {
            self.stats.consistent += 1;
            (self.visit)(b);
        }
        Ok(())
    }
}
