//! The stateless DPOR engine (third engine).
//!
//! Explores behaviours `(X, rf, co)` incrementally instead of
//! enumerating them wholesale: threads are decided one at a time by
//! walking their guarded block tree, reads-from choices are extended
//! event by event, and coherence / SC-fence orders are refined only for
//! candidates that survive the partial checks. Each complete candidate
//! goes through the [`crate::candidate`] stage the enumeration engine
//! uses too, so the two engines accept *identical* behaviour sets — the
//! three-way differential gates in `tests/` rely on that.
//!
//! Unlike the Alloy-style enumeration baseline, this engine prunes:
//!
//! * **rf-aware pruning** — a reads-from source whose block already
//!   diverged from a committed path can never execute, and an rf choice
//!   closing a definite value cycle (thin air) is rejected by the value
//!   semantics in every extension; both are cut immediately.
//! * **guard-driven path pruning** — when a branch guard is already
//!   determined by the assigned rf prefix (the stage's value semantics,
//!   evaluated on that prefix), only the consistent successor block is
//!   explored (the full guard chain is still re-checked on every
//!   complete candidate).
//! * **co-aware pruning** — axioms that are monotone in the
//!   still-growing inputs (`co`, `sync_fence`) and already fail on a
//!   partial coherence order fail on every refinement; the subtree is
//!   cut ([`Interpreter::check_axioms`](crate::Interpreter::check_axioms)).
//! * **sleep sets over SC fences** — PTX `sync_fence` only relates
//!   `sr`-scoped fences, so fence linearizations that differ by swapping
//!   non-`sr` (independent) fences induce the same execution; sleep sets
//!   visit one representative per Mazurkiewicz trace.
//!
//! Every prune is *exactness-preserving*, and they always run. The
//! enumeration engine is the unpruned reference: the property tests in
//! `crates/exec/tests/dpor_props.rs` check that DPOR visits exactly its
//! consistent behaviour footprints, in no more candidates.
//!
//! A query needs only one witness, so the search can end early: a
//! visitor of [`dpor_explore_interruptible`] that returns
//! [`ControlFlow::Break`] stops it at that behaviour. The exploration
//! order is a fixed depth-first order, so a run stopped at the first
//! witness returns the witness an exhaustive run would visit first.

use std::ops::ControlFlow;

use gpumc_cat::{BaseRel, CatModel, Node, NodeId, Op};
use gpumc_ir::{BlockId, EventGraph, EventId, EventKind, Tag, UTerm, Val};

use crate::candidate::{Behavior, ExploreError, Stage};

/// SC fences beyond which DPOR does not order them.
const MAX_SC_FENCES: usize = 8;

/// Options controlling DPOR exploration.
#[derive(Debug, Clone)]
pub struct DporOptions {
    /// Budget on exploration steps (decision nodes + complete candidates);
    /// exceeding it aborts with [`ExploreError::Interrupted`].
    pub max_steps: u64,
}

impl Default for DporOptions {
    fn default() -> DporOptions {
        DporOptions {
            max_steps: 50_000_000,
        }
    }
}

/// Aggregate statistics of one DPOR run: executions explored vs pruned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DporStats {
    /// Complete candidate executions checked against the model.
    pub explored: u64,
    /// Candidates that satisfied all consistency axioms.
    pub consistent: u64,
    /// Reads-from choices cut (impossible source or definite value cycle).
    pub pruned_rf: u64,
    /// Branch successors cut by resolved guards.
    pub pruned_paths: u64,
    /// Partial coherence subtrees cut by monotone axioms.
    pub pruned_co: u64,
    /// SC-fence linearizations cut by sleep sets.
    pub pruned_fence: u64,
}

impl DporStats {
    /// Total pruned choice points across all pruning dimensions.
    pub fn pruned_total(&self) -> u64 {
        self.pruned_rf + self.pruned_paths + self.pruned_co + self.pruned_fence
    }
}

/// Explores all consistent behaviours with DPOR, invoking `visit` for
/// each.
///
/// # Errors
///
/// Fails when a structural cap is exceeded or the step budget runs out.
pub fn dpor_explore<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &DporOptions,
    mut visit: impl FnMut(&Behavior<'g>),
) -> Result<DporStats, ExploreError> {
    dpor_explore_interruptible(graph, model, opts, None, |b| {
        visit(b);
        ControlFlow::Continue(())
    })
}

/// [`dpor_explore`] that can stop early: `visit` returning
/// [`ControlFlow::Break`] ends the search at that behaviour, and the
/// run returns the counters gathered so far. `poll` is a cooperative
/// cancellation hook, called on every exploration step; it aborts the
/// run with [`ExploreError::Interrupted`] when it returns a reason.
///
/// # Errors
///
/// See [`dpor_explore`]; additionally fails when `poll` fires.
pub fn dpor_explore_interruptible<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &DporOptions,
    poll: Option<&dyn Fn() -> Option<String>>,
    mut visit: impl FnMut(&Behavior<'g>) -> ControlFlow<()>,
) -> Result<DporStats, ExploreError> {
    let n_threads = graph.threads().len();
    let mut roots: Vec<Option<BlockId>> = vec![None; n_threads];
    for (i, b) in graph.blocks().iter().enumerate() {
        if let (Some(t), None) = (b.thread, b.parent) {
            roots[t] = Some(i as BlockId);
        }
    }
    let roots: Vec<BlockId> = roots
        .into_iter()
        .map(|r| r.expect("every thread has a root block"))
        .collect();
    let write_cands: Vec<EventId> = (0..graph.n_events())
        .map(|i| EventId(i as u32))
        .filter(|&e| graph.event(e).tags.contains(Tag::W))
        .collect();
    let mut explorer = Explorer {
        graph,
        stage: Stage::new(graph, model),
        prunable_axioms: monotone_axioms(model),
        opts,
        poll,
        stats: DporStats::default(),
        steps: 0,
        roots,
        write_cands,
        leaf: Vec::with_capacity(n_threads),
        rf: vec![None; graph.n_events()],
        visit: &mut visit,
    };
    match explorer.explore_thread(0) {
        Ok(()) | Err(Ctl::Stop) => Ok(explorer.stats),
        Err(Ctl::Err(e)) => Err(e),
    }
}

/// Internal flow control of one exploration. `Stop` is a visitor's
/// [`ControlFlow::Break`] unwinding the search, not a failure.
enum Ctl {
    Stop,
    Err(ExploreError),
}

impl From<ExploreError> for Ctl {
    fn from(e: ExploreError) -> Ctl {
        Ctl::Err(e)
    }
}

struct Explorer<'g, 'a> {
    graph: &'g EventGraph,
    stage: Stage<'g, 'a>,
    prunable_axioms: Vec<usize>,
    opts: &'a DporOptions,
    poll: Option<&'a dyn Fn() -> Option<String>>,
    stats: DporStats,
    steps: u64,
    roots: Vec<BlockId>,
    write_cands: Vec<EventId>,
    /// Chosen leaf per already-decided thread (threads decide in order).
    leaf: Vec<BlockId>,
    /// Partial reads-from assignment (only for reads on committed paths).
    rf: Vec<Option<EventId>>,
    visit: &'a mut dyn FnMut(&Behavior<'g>) -> ControlFlow<()>,
}

impl Explorer<'_, '_> {
    /// One exploration step: budget and cancellation check.
    fn tick(&mut self) -> Result<(), Ctl> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            return Err(Ctl::Err(ExploreError::Interrupted(format!(
                "more than {} exploration steps",
                self.opts.max_steps
            ))));
        }
        if let Some(poll) = self.poll {
            if let Some(reason) = poll() {
                return Err(Ctl::Err(ExploreError::Interrupted(reason)));
            }
        }
        Ok(())
    }

    fn explore_thread(&mut self, t: usize) -> Result<(), Ctl> {
        if t == self.roots.len() {
            return self.complete();
        }
        self.descend(t, self.roots[t])
    }

    fn descend(&mut self, t: usize, blk: BlockId) -> Result<(), Ctl> {
        self.tick()?;
        let reads: Vec<EventId> = self
            .graph
            .block(blk)
            .events
            .iter()
            .copied()
            .filter(|&e| self.graph.event(e).tags.contains(Tag::R))
            .collect();
        self.assign_block_reads(t, blk, &reads, 0)
    }

    fn assign_block_reads(
        &mut self,
        t: usize,
        blk: BlockId,
        reads: &[EventId],
        idx: usize,
    ) -> Result<(), Ctl> {
        if idx == reads.len() {
            return self.block_done(t, blk);
        }
        let r = reads[idx];
        let mut i = 0;
        while i < self.write_cands.len() {
            let w = self.write_cands[i];
            i += 1;
            if !self.graph.may_alias(r, w) {
                continue;
            }
            if self.source_cannot_execute(t, blk, w) {
                self.stats.pruned_rf += 1;
                continue;
            }
            self.rf[r.index()] = Some(w);
            if self.definite_value_cycle(r) {
                self.stats.pruned_rf += 1;
                self.rf[r.index()] = None;
                continue;
            }
            self.assign_block_reads(t, blk, reads, idx + 1)?;
            self.rf[r.index()] = None;
        }
        Ok(())
    }

    fn block_done(&mut self, t: usize, blk: BlockId) -> Result<(), Ctl> {
        // `g` is a plain `&'g EventGraph` copied out of `self`, so the
        // terminator borrow does not pin `self` and needs no clone.
        let g = self.graph;
        match &g.block(blk).term {
            UTerm::End { .. } | UTerm::Bound { .. } => {
                self.leaf.push(blk);
                let result = self.explore_thread(t + 1);
                self.leaf.pop();
                result
            }
            UTerm::Branch {
                guard,
                then_blk,
                else_blk,
            } => match self.stage.guard(guard, &self.rf) {
                Some(v) => {
                    self.stats.pruned_paths += 1;
                    self.descend(t, if v { *then_blk } else { *else_blk })
                }
                None => {
                    self.descend(t, *then_blk)?;
                    self.descend(t, *else_blk)
                }
            },
        }
    }

    /// Whether write `w` is already known not to execute in any extension
    /// of the current prefix: its block diverges from a committed path.
    fn source_cannot_execute(&self, t: usize, cur: BlockId, w: EventId) -> bool {
        let g = self.graph;
        let wb = g.event(w).block;
        let Some(wt) = g.block(wb).thread else {
            return false; // init block: always executed
        };
        if wt > t {
            return false; // thread not yet decided: anything is possible
        }
        if wt == t {
            // Same thread: possible iff on the committed prefix or still
            // reachable below the current block.
            return !(g.is_ancestor(wb, cur) || g.is_ancestor(cur, wb));
        }
        !g.is_ancestor(wb, self.leaf[wt])
    }

    /// Whether read `r` now sits on a value cycle through *assigned* rf
    /// edges. Such a cycle persists in every extension (assignments are
    /// never retracted within the subtree), and the shared value
    /// semantics resolves every event on it to `None` (thin air), so all
    /// completions are rejected — cutting here is exact.
    fn definite_value_cycle(&self, r: EventId) -> bool {
        let mut state = vec![0u8; self.graph.n_events()];
        self.dvc_event(r, &mut state)
    }

    fn dvc_event(&self, e: EventId, state: &mut [u8]) -> bool {
        match state[e.index()] {
            1 => return true, // grey: cycle closed
            2 => return false,
            _ => {}
        }
        state[e.index()] = 1;
        let cyclic = match &self.graph.event(e).kind {
            EventKind::Init { .. } | EventKind::Fence(_) => false,
            EventKind::Load { .. } | EventKind::RmwLoad { .. } => {
                self.rf[e.index()].is_some_and(|w| self.dvc_event(w, state))
            }
            EventKind::Store { value, .. } | EventKind::RmwStore { value, .. } => {
                self.dvc_val(value, state)
            }
            EventKind::Barrier { id, .. } => self.dvc_val(id, state),
        };
        state[e.index()] = 2;
        cyclic
    }

    fn dvc_val(&self, v: &Val, state: &mut [u8]) -> bool {
        match v {
            Val::Const(_) => false,
            Val::Read(e) => self.dvc_event(*e, state),
            Val::Bin(_, a, b) => self.dvc_val(a, state) || self.dvc_val(b, state),
        }
    }

    /// All threads decided: complete the candidate, then refine
    /// coherence and fence orders.
    fn complete(&mut self) -> Result<(), Ctl> {
        self.tick()?;
        match gpumc_fault::hit(gpumc_fault::points::DPOR_EXPLORE) {
            Some(gpumc_fault::FaultSignal::SpuriousUnknown) => {
                return Err(Ctl::Err(ExploreError::Interrupted(
                    "injected fault: dpor.explore spurious unknown".into(),
                )));
            }
            Some(gpumc_fault::FaultSignal::AllocSpike(b)) => {
                gpumc_fault::materialize_spike(b);
            }
            None => {}
        }
        if !self.stage.complete(&self.leaf, &self.rf)? {
            return Ok(());
        }
        self.co_dfs(&mut Vec::new())
    }

    fn co_dfs(&mut self, chosen: &mut Vec<usize>) -> Result<(), Ctl> {
        let k = chosen.len();
        let Some(choices) = self.stage.per_loc().get(k).map(Vec::len) else {
            self.stage.choose_co(chosen);
            return self.with_fence_orders();
        };
        let do_check = !self.prunable_axioms.is_empty() && choices > 1;
        for c in 0..choices {
            self.tick()?;
            chosen.push(c);
            if do_check {
                // Partial co: refinements chosen so far plus the base
                // edges of the still-undecided locations — a subset of
                // every completion, so a failing monotone axiom rules
                // out the whole subtree.
                self.stage.choose_co(chosen);
                if !self.stage.holds(&self.prunable_axioms) {
                    self.stats.pruned_co += 1;
                    chosen.pop();
                    continue;
                }
            }
            self.co_dfs(chosen)?;
            chosen.pop();
        }
        Ok(())
    }

    fn with_fence_orders(&mut self) -> Result<(), Ctl> {
        let sc_fences = self.stage.sc_fences().to_vec();
        if sc_fences.len() > MAX_SC_FENCES {
            return Err(Ctl::Err(ExploreError::TooComplex(format!(
                "{} SC fences to order",
                sc_fences.len()
            ))));
        }
        // Two fences are dependent iff `sr` relates them (either way):
        // only then does their relative order show up in `sync_fence`.
        // Independent fences commute, so sleep sets keep exactly one
        // linearization per trace — every distinct `sync_fence` is still
        // produced once. The fences all executed, so the graph's `sr`
        // decides.
        let sr = self.stage.interp.fixed(BaseRel::Sr);
        let m = sc_fences.len();
        let mut dep = vec![0u16; m];
        for i in 0..m {
            for j in 0..m {
                if i != j
                    && (sr.contains(sc_fences[i], sc_fences[j])
                        || sr.contains(sc_fences[j], sc_fences[i]))
                {
                    dep[i] |= 1 << j;
                }
            }
        }
        let mut order = Vec::with_capacity(m);
        self.fence_rec(&sc_fences, &dep, 0, 0, &mut order)
    }

    fn fence_rec(
        &mut self,
        fences: &[EventId],
        dep: &[u16],
        used: u16,
        mut sleep: u16,
        order: &mut Vec<EventId>,
    ) -> Result<(), Ctl> {
        if order.len() == fences.len() {
            return self.check(order);
        }
        for i in 0..fences.len() {
            let bit = 1u16 << i;
            if used & bit != 0 {
                continue;
            }
            if sleep & bit != 0 {
                self.stats.pruned_fence += 1;
                continue;
            }
            order.push(fences[i]);
            // A sleeping fence stays asleep only while the chosen fence
            // is independent of it.
            self.fence_rec(fences, dep, used | bit, sleep & !dep[i], order)?;
            order.pop();
            sleep |= bit;
        }
        Ok(())
    }

    fn check(&mut self, fence_order: &[EventId]) -> Result<(), Ctl> {
        self.tick()?;
        self.stats.explored += 1;
        if let Some(b) = self.stage.check(fence_order) {
            self.stats.consistent += 1;
            if (self.visit)(b).is_break() {
                return Err(Ctl::Stop);
            }
        }
        Ok(())
    }
}

/// Indices of axioms usable for partial-coherence pruning: non-flagged,
/// non-negated, and *monotone* in the still-growing inputs `co` and
/// `sync_fence` (no negative occurrence through `\`). Every other base
/// relation is fixed once the candidate's events and rf are, so a
/// monotone `empty`/`irreflexive`/`acyclic` axiom failing on a partial
/// order fails on all of its refinements.
pub fn monotone_axioms(model: &CatModel) -> Vec<usize> {
    let t = model.nodes();
    let nodes = t.nodes();
    // Per node: does its value mention an unknown (`co` or
    // `sync_fence`) in positive / negative position?
    let mut pol = vec![(false, false); nodes.len()];
    let unknowns = |op: Op, pol: &[(bool, bool)]| match op {
        Op::Base(r) => (matches!(r, Some(BaseRel::Co | BaseRel::SyncFence)), false),
        Op::Ref(d) | Op::SetRef(d) => pol[t.def_root(d)],
        _ => (false, false),
    };
    // Per node of a `let rec` group: does it name a member of its own
    // group in positive / negative position?
    let mut own = vec![(false, false); nodes.len()];
    let mut next = 0;
    for &(first, last) in t.groups() {
        polarity(nodes, next..first, &mut pol, unknowns);
        let members = first..last + 1;
        polarity(nodes, members.clone(), &mut own, |op, _| match op {
            Op::Ref(d) => (members.contains(&t.def_root(d)), false),
            _ => (false, false),
        });
        // Non-monotone recursion (a member named in negative position)
        // poisons the whole group: its fixpoint need not be monotone in
        // the unknowns.
        if members.clone().any(|id| t.is_rec_root(id) && own[id].1) {
            pol[members].fill((true, true));
        } else {
            while polarity(nodes, members.clone(), &mut pol, unknowns) {}
        }
        next = last + 1;
    }
    polarity(nodes, next..nodes.len(), &mut pol, unknowns);
    model
        .axioms()
        .iter()
        .enumerate()
        .filter(|&(i, ax)| !ax.flagged && !ax.negated && !pol[t.axiom_root(i)].1)
        .map(|(i, _)| i)
        .collect()
}

/// Joins into `pol` the polarity of every node in `range`, in post-order:
/// `\` flips its right operand, and `leaf` gives the polarity of a leaf
/// (a base relation, tag, reference, `id` or `_`). Returns whether any
/// node changed.
fn polarity(
    nodes: &[Node],
    range: std::ops::Range<NodeId>,
    pol: &mut [(bool, bool)],
    leaf: impl Fn(Op, &[(bool, bool)]) -> (bool, bool),
) -> bool {
    let join = |a: (bool, bool), b: (bool, bool)| (a.0 || b.0, a.1 || b.1);
    let mut changed = false;
    for id in range {
        let Node { op, kids: [a, b] } = nodes[id];
        let p = match op {
            Op::Diff | Op::SetDiff => join(pol[a], (pol[b].1, pol[b].0)),
            Op::Cross | Op::Union | Op::Inter | Op::Seq | Op::SetUnion | Op::SetInter => {
                join(pol[a], pol[b])
            }
            Op::IdSet | Op::Inverse | Op::Plus | Op::Star | Op::Opt | Op::Domain | Op::Range => {
                pol[a]
            }
            Op::Base(_) | Op::Ref(_) | Op::SetRef(_) | Op::Id | Op::Tag(_) | Op::Universe => {
                leaf(op, pol)
            }
        };
        let p = join(pol[id], p);
        changed |= p != pol[id];
        pol[id] = p;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_axioms_of_the_shipped_models() {
        // PTX: atomicity, no-thin-air and causality. Vulkan: atomicity.
        // Every other axiom reaches `co` or `sync_fence` under `\`, or
        // is a flag.
        assert_eq!(monotone_axioms(&gpumc_models::ptx60()), [3, 4, 5]);
        assert_eq!(monotone_axioms(&gpumc_models::ptx75()), [3, 4, 5]);
        assert_eq!(monotone_axioms(&gpumc_models::vulkan()), [3]);
    }

    #[test]
    fn co_under_a_difference_is_not_monotone() {
        let model = gpumc_cat::parse(
            "acyclic po \\ co as negative\n\
             acyclic co as positive\n\
             empty rf \\ (po \\ co) as double-negative\n\
             irreflexive [W \\ domain(co)] as set-negative\n\
             irreflexive sync_fence as fence\n\
             flag ~empty co as flagged",
        )
        .unwrap();
        assert_eq!(monotone_axioms(&model), [1, 2, 4]);
    }

    #[test]
    fn recursive_groups_are_poisoned_or_iterated() {
        let model = gpumc_cat::parse(
            "let rec a = rf | (po \\ a) and b = a\n\
             let rec c = rf | (c ; d) and d = po \\ co\n\
             let rec e = rf | (e ; f) and f = co\n\
             acyclic b as poisoned\n\
             acyclic c as late-negative\n\
             acyclic e as positive",
        )
        .unwrap();
        // `b`'s group names `a` under `\`: poisoned although it never
        // mentions `co`. `c` learns `d`'s negative `co` only on the
        // second round of its group's fixpoint.
        assert_eq!(monotone_axioms(&model), [2]);
    }
}
