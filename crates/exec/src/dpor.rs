//! The stateless DPOR engine (third engine).
//!
//! Explores behaviours `(X, rf, co)` incrementally instead of
//! enumerating them wholesale: threads are decided one at a time by
//! walking their guarded block tree, reads-from choices are extended
//! event by event, and coherence / SC-fence orders are refined only for
//! candidates that survive the partial checks. Each surviving complete
//! candidate is validated with exactly the same machinery as the
//! enumeration engine (shared [`ValCtx`], [`location_orders`], and the
//! cat [`Interpreter`]), so the two engines accept *identical* behaviour
//! sets — the three-way differential gates in `tests/` rely on that.
//!
//! Unlike the Alloy-style enumeration baseline, this engine prunes:
//!
//! * **rf-aware pruning** — a reads-from source whose block already
//!   diverged from a committed path can never execute, and an rf choice
//!   closing a definite value cycle (thin air) is rejected by the value
//!   semantics in every extension; both are cut immediately.
//! * **guard-driven path pruning** — when a branch guard is already
//!   determined by the assigned rf prefix, only the consistent successor
//!   block is explored (the full guard chain is still re-checked on
//!   every complete candidate).
//! * **co-aware pruning** — axioms that are monotone in the
//!   still-growing inputs (`co`, `sync_fence`) and already fail on a
//!   partial coherence order fail on every refinement; the subtree is
//!   cut ([`Interpreter::check_axioms`]).
//! * **sleep sets over SC fences** — PTX `sync_fence` only relates
//!   `sr`-scoped fences, so fence linearizations that differ by swapping
//!   non-`sr` (independent) fences induce the same execution; sleep sets
//!   visit one representative per Mazurkiewicz trace.
//!
//! Every prune is *exactness-preserving*: with all pruning disabled the
//! engine degenerates to a plain incremental enumerator, and the
//! property tests in `crates/exec/tests/dpor_props.rs` check that the
//! consistent behaviour footprints are identical either way.
//!
//! A query needs only one witness, so the search can end early: a
//! visitor of [`dpor_explore_interruptible`] that returns
//! [`ControlFlow::Break`] stops it at that behaviour. The exploration
//! order is a fixed depth-first order, so a run stopped at the first
//! witness returns the witness an exhaustive run would visit first.

use std::ops::ControlFlow;

use gpumc_cat::{BaseRel, CatModel, Node, NodeId, Op};
use gpumc_ir::{Arch, BlockId, EventGraph, EventId, EventKind, Guard, LocId, Tag, UTerm, Val};

use crate::base::outcome_of;
use crate::enumerate::{location_orders, permute, Behavior, ValCtx};
use crate::execution::Execution;
use crate::interp::Interpreter;
use crate::Relation;

/// Options controlling DPOR exploration.
#[derive(Debug, Clone)]
pub struct DporOptions {
    /// Budget on exploration steps (decision nodes + complete candidates);
    /// exceeding it aborts with [`DporError::Interrupted`].
    pub max_steps: u64,
    /// Maximal number of non-initial writes per location for which
    /// coherence orders are enumerated (as in the enumeration engine).
    pub max_writes_per_loc: usize,
    /// Prune impossible / thin-air reads-from sources.
    pub prune_rf: bool,
    /// Descend only guard-consistent successors of resolved branches.
    pub prune_guards: bool,
    /// Cut partial coherence orders violating monotone axioms.
    pub prune_co: bool,
    /// Explore one SC-fence linearization per Mazurkiewicz trace.
    pub sleep_fences: bool,
}

impl Default for DporOptions {
    fn default() -> DporOptions {
        DporOptions {
            max_steps: 50_000_000,
            max_writes_per_loc: 5,
            prune_rf: true,
            prune_guards: true,
            prune_co: true,
            sleep_fences: true,
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

/// DPOR exploration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DporError {
    /// The program uses a feature this engine rejects.
    Unsupported(String),
    /// A structural cap was exceeded (e.g. writes per location).
    TooComplex(String),
    /// The step budget ran out or cancellation was requested; the
    /// verifier reports this as an inconclusive (`Unknown`) verdict.
    Interrupted(String),
}

impl std::fmt::Display for DporError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DporError::Unsupported(m) => write!(f, "unsupported: {m}"),
            DporError::TooComplex(m) => write!(f, "too complex: {m}"),
            DporError::Interrupted(m) => write!(f, "interrupted: {m}"),
        }
    }
}

impl std::error::Error for DporError {}

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
) -> Result<DporStats, DporError> {
    dpor_explore_interruptible(graph, model, opts, None, |b| {
        visit(b);
        ControlFlow::Continue(())
    })
}

/// [`dpor_explore`] that can stop early: `visit` returning
/// [`ControlFlow::Break`] ends the search at that behaviour, and the
/// run returns the counters gathered so far. `poll` is a cooperative
/// cancellation hook, called on every exploration step; it aborts the
/// run with [`DporError::Interrupted`] when it returns a reason.
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
) -> Result<DporStats, DporError> {
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
        interp: Interpreter::new(model, graph),
        needs_fence_order: graph.arch == Arch::Ptx
            && model
                .referenced_base_rels()
                .iter()
                .any(|r| r == "sync_fence"),
        prunable_axioms: if opts.prune_co {
            monotone_axioms(model)
        } else {
            Vec::new()
        },
        opts,
        poll,
        stats: DporStats::default(),
        steps: 0,
        roots,
        write_cands,
        leaf: vec![None; n_threads],
        rf: vec![None; graph.n_events()],
        scratch: Some(Scratch::new(graph)),
        probe: Execution::new(graph),
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
    Err(DporError),
}

impl From<DporError> for Ctl {
    fn from(e: DporError) -> Ctl {
        Ctl::Err(e)
    }
}

/// Immutable parts of one complete candidate, shared across the
/// coherence and fence-order refinement stages.
struct Candidate<'c> {
    leaves: &'c [BlockId],
    final_events: &'c [EventId],
    rf: &'c [Option<EventId>],
    values: &'c [Option<u64>],
    addrs: &'c [Option<(LocId, u64)>],
    vaddrs: &'c [Option<(LocId, u64)>],
}

/// Scratch buffers reused across candidate validations, so the hot
/// path of [`Explorer::complete`] allocates nothing per candidate.
struct Scratch<'g> {
    ctx: ValCtx<'g>,
    leaves: Vec<BlockId>,
    exec_blocks: Vec<u32>,
    events: Vec<EventId>,
    final_events: Vec<EventId>,
    addrs: Vec<Option<(LocId, u64)>>,
    vaddrs: Vec<Option<(LocId, u64)>>,
    base_co: Relation,
    co_partial: Relation,
    chosen: Vec<usize>,
}

impl<'g> Scratch<'g> {
    fn new(g: &'g EventGraph) -> Scratch<'g> {
        let n = g.n_events();
        Scratch {
            ctx: ValCtx::new(g, vec![None; n]),
            leaves: Vec::new(),
            exec_blocks: Vec::new(),
            events: Vec::new(),
            final_events: Vec::new(),
            addrs: Vec::new(),
            vaddrs: Vec::new(),
            base_co: Relation::empty(n),
            co_partial: Relation::empty(n),
            chosen: Vec::new(),
        }
    }
}

struct Explorer<'g, 'a> {
    graph: &'g EventGraph,
    interp: Interpreter<'a>,
    needs_fence_order: bool,
    prunable_axioms: Vec<usize>,
    opts: &'a DporOptions,
    poll: Option<&'a dyn Fn() -> Option<String>>,
    stats: DporStats,
    steps: u64,
    roots: Vec<BlockId>,
    write_cands: Vec<EventId>,
    /// Chosen leaf per already-decided thread.
    leaf: Vec<Option<BlockId>>,
    /// Partial reads-from assignment (only for reads on committed paths).
    rf: Vec<Option<EventId>>,
    /// `Some` except while [`Explorer::complete`] is on the stack.
    scratch: Option<Scratch<'g>>,
    /// The partial execution of a co-prune check, refilled each time.
    probe: Execution<'g>,
    visit: &'a mut dyn FnMut(&Behavior<'g>) -> ControlFlow<()>,
}

impl<'g> Explorer<'g, '_> {
    /// One exploration step: budget and cancellation check.
    fn tick(&mut self) -> Result<(), Ctl> {
        self.steps += 1;
        if self.steps > self.opts.max_steps {
            return Err(Ctl::Err(DporError::Interrupted(format!(
                "more than {} exploration steps",
                self.opts.max_steps
            ))));
        }
        if let Some(poll) = self.poll {
            if let Some(reason) = poll() {
                return Err(Ctl::Err(DporError::Interrupted(reason)));
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
            if self.opts.prune_rf && self.source_cannot_execute(t, blk, w) {
                self.stats.pruned_rf += 1;
                continue;
            }
            self.rf[r.index()] = Some(w);
            if self.opts.prune_rf && self.definite_value_cycle(r) {
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
                self.leaf[t] = Some(blk);
                let result = self.explore_thread(t + 1);
                self.leaf[t] = None;
                result
            }
            UTerm::Branch {
                guard,
                then_blk,
                else_blk,
            } => {
                let (then_blk, else_blk) = (*then_blk, *else_blk);
                let resolved = if self.opts.prune_guards {
                    self.eval_guard_partial(guard)
                } else {
                    None
                };
                match resolved {
                    Some(v) => {
                        self.stats.pruned_paths += 1;
                        self.descend(t, if v { then_blk } else { else_blk })
                    }
                    None => {
                        self.descend(t, then_blk)?;
                        self.descend(t, else_blk)
                    }
                }
            }
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
        match self.leaf[wt] {
            Some(leaf) => !g.is_ancestor(wb, leaf),
            None => false,
        }
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

    /// Tri-state guard evaluation over the assigned rf prefix: `Some(v)`
    /// only when every read the guard depends on has an assigned source
    /// (so every completion computes the same value); `None` otherwise.
    fn eval_guard_partial(&self, guard: &Guard) -> Option<bool> {
        let mut grey = vec![false; self.graph.n_events()];
        let a = self.partial_val(&guard.a, &mut grey)?;
        let b = self.partial_val(&guard.b, &mut grey)?;
        Some(guard.eval(a, b))
    }

    fn partial_val(&self, v: &Val, grey: &mut [bool]) -> Option<u64> {
        match v {
            Val::Const(c) => Some(*c),
            Val::Read(e) => self.partial_value_of(*e, grey),
            Val::Bin(op, a, b) => {
                let (x, y) = (self.partial_val(a, grey)?, self.partial_val(b, grey)?);
                Some(Val::apply(*op, x, y))
            }
        }
    }

    fn partial_value_of(&self, e: EventId, grey: &mut [bool]) -> Option<u64> {
        if grey[e.index()] {
            return None; // cycle: undetermined here, rejected at completion
        }
        grey[e.index()] = true;
        let v = match &self.graph.event(e).kind {
            EventKind::Init { value, .. } => Some(*value),
            EventKind::Load { .. } | EventKind::RmwLoad { .. } => {
                self.rf[e.index()].and_then(|w| self.partial_value_of(w, grey))
            }
            EventKind::Store { value, .. } | EventKind::RmwStore { value, .. } => {
                self.partial_val(value, grey)
            }
            EventKind::Barrier { id, .. } => self.partial_val(id, grey),
            EventKind::Fence(_) => Some(0),
        };
        grey[e.index()] = false;
        v
    }

    /// All threads decided: validate the candidate exactly like the
    /// enumeration engine, then refine coherence and fence orders.
    fn complete(&mut self) -> Result<(), Ctl> {
        self.tick()?;
        match gpumc_fault::hit(gpumc_fault::points::DPOR_EXPLORE) {
            Some(gpumc_fault::FaultSignal::SpuriousUnknown) => {
                return Err(Ctl::Err(DporError::Interrupted(
                    "injected fault: dpor.explore spurious unknown".into(),
                )));
            }
            Some(gpumc_fault::FaultSignal::AllocSpike(b)) => {
                gpumc_fault::materialize_spike(b);
            }
            None => {}
        }
        let mut s = self.scratch.take().expect("complete() is not reentrant");
        let result = self.complete_with(&mut s);
        self.scratch = Some(s);
        result
    }

    fn complete_with(&mut self, s: &mut Scratch<'g>) -> Result<(), Ctl> {
        let g = self.graph;
        let n = g.n_events();
        let Scratch {
            ctx,
            leaves,
            exec_blocks,
            events,
            final_events,
            addrs,
            vaddrs,
            base_co,
            co_partial,
            chosen,
        } = s;
        leaves.clear();
        leaves.extend(self.leaf.iter().map(|l| l.expect("all threads decided")));
        // Executed blocks: init block plus all ancestors of each leaf.
        exec_blocks.clear();
        exec_blocks.push(0u32);
        for &leaf in leaves.iter() {
            let mut cur = leaf;
            loop {
                exec_blocks.push(cur);
                match g.block(cur).parent {
                    Some((p, _)) => cur = p,
                    None => break,
                }
            }
        }
        events.clear();
        events.extend(
            exec_blocks
                .iter()
                .flat_map(|&b| g.block(b).events.iter().copied()),
        );
        events.sort_unstable();
        // --- Values (shared thin-air-rejecting semantics). The
        // explorer-owned context is reset onto this candidate's rf prefix
        // instead of being rebuilt, so validation reuses its buffers;
        // later stages borrow the snapshot back via `ctx.rf()`.
        ctx.reset(&self.rf);
        for &e in events.iter() {
            if ctx.value_of(e).is_none() && !matches!(g.event(e).kind, EventKind::Fence(_)) {
                return Ok(()); // unconstructible values: reject candidate
            }
        }
        // --- Addresses.
        addrs.clear();
        addrs.resize(n, None);
        vaddrs.clear();
        vaddrs.resize(n, None);
        for &e in events.iter() {
            let (vloc, idxv) = match &g.event(e).kind {
                EventKind::Init { loc, index, .. } => (*loc, Some(u64::from(*index))),
                k => match k.addr() {
                    Some(a) => (a.loc, ctx.eval(&a.index)),
                    None => continue,
                },
            };
            let Some(i) = idxv else { return Ok(()) };
            if i >= u64::from(g.memory[g.physical_root(vloc).index()].size) {
                return Ok(()); // out-of-bounds access: reject candidate
            }
            vaddrs[e.index()] = Some((vloc, i));
            addrs[e.index()] = Some((g.physical_root(vloc), i));
        }
        // --- CAS success: drop failed RMW writes from the executed set.
        final_events.clear();
        for &e in events.iter() {
            if let EventKind::RmwStore {
                read,
                cas_expected: Some(exp),
                ..
            } = &g.event(e).kind
            {
                let got = ctx.value_of(*read);
                let want = ctx.eval(exp);
                if got.is_none() || want.is_none() || got != want {
                    continue; // failed CAS: no write event
                }
            }
            final_events.push(e);
        }
        // --- rf validity: source executed, same physical address.
        for &e in final_events.iter() {
            if g.event(e).tags.contains(Tag::R) {
                let w = ctx.rf()[e.index()].expect("assigned");
                if !final_events.contains(&w) {
                    return Ok(());
                }
                if addrs[e.index()].is_none() || addrs[e.index()] != addrs[w.index()] {
                    return Ok(());
                }
            }
        }
        // --- Guard consistency: always re-checked, even with guard
        // pruning on (the pruning only skips provably-inconsistent
        // successors; this is the authoritative check).
        for &leaf in leaves.iter() {
            let mut cur = leaf;
            while let Some((p, polarity)) = g.block(cur).parent {
                if let UTerm::Branch { guard, .. } = &g.block(p).term {
                    let (Some(a), Some(b)) = (ctx.eval(&guard.a), ctx.eval(&guard.b)) else {
                        return Ok(());
                    };
                    if guard.eval(a, b) != polarity {
                        return Ok(());
                    }
                }
                cur = p;
            }
        }
        // --- Coherence refinement per location.
        let exec_writes: Vec<EventId> = events
            .iter()
            .copied()
            .filter(|&e| g.event(e).tags.contains(Tag::W) && final_events.contains(&e))
            .collect();
        let mut groups: Vec<(EventId, Vec<EventId>)> = Vec::new(); // (init, others)
        for &w in &exec_writes {
            if g.event(w).tags.contains(Tag::IW) {
                groups.push((w, Vec::new()));
            }
        }
        for &w in &exec_writes {
            if g.event(w).tags.contains(Tag::IW) {
                continue;
            }
            let a = addrs[w.index()].expect("write has address");
            let slot = groups
                .iter_mut()
                .find(|(iw, _)| addrs[iw.index()] == Some(a));
            match slot {
                Some((_, v)) => v.push(w),
                None => return Ok(()), // no init event: reject
            }
        }
        for (_, others) in &groups {
            if others.len() > self.opts.max_writes_per_loc {
                return Err(Ctl::Err(DporError::TooComplex(format!(
                    "{} writes to one location (cap {})",
                    others.len(),
                    self.opts.max_writes_per_loc
                ))));
            }
        }
        let per_loc: Vec<Vec<Relation>> = groups
            .iter()
            .map(|(iw, others)| location_orders(g, n, *iw, others))
            .collect();
        // Base edges (init before every write) of *all* locations: a
        // subset of every refinement, used for monotone-axiom pruning.
        base_co.clear_resize(n);
        for (iw, others) in &groups {
            for &w in others {
                base_co.insert(*iw, w);
            }
        }
        let cand = Candidate {
            leaves: leaves.as_slice(),
            final_events: final_events.as_slice(),
            rf: ctx.rf(),
            values: ctx.values(),
            addrs: addrs.as_slice(),
            vaddrs: vaddrs.as_slice(),
        };
        chosen.clear();
        self.co_dfs(&cand, &per_loc, base_co, chosen, co_partial)
    }

    fn co_dfs(
        &mut self,
        cand: &Candidate<'_>,
        per_loc: &[Vec<Relation>],
        base_co: &Relation,
        chosen: &mut Vec<usize>,
        partial: &mut Relation,
    ) -> Result<(), Ctl> {
        let k = chosen.len();
        if k == per_loc.len() {
            partial.clone_from(base_co);
            for (j, &c) in chosen.iter().enumerate() {
                partial.union_with(&per_loc[j][c]);
            }
            return self.with_fence_orders(cand, partial);
        }
        let do_check =
            self.opts.prune_co && !self.prunable_axioms.is_empty() && per_loc[k].len() > 1;
        for c in 0..per_loc[k].len() {
            self.tick()?;
            chosen.push(c);
            if do_check {
                // Partial co: refinements chosen so far plus the base
                // edges of the still-undecided locations — a subset of
                // every completion, so a failing monotone axiom rules
                // out the whole subtree.
                partial.clone_from(base_co);
                for (j, &cj) in chosen.iter().enumerate() {
                    partial.union_with(&per_loc[j][cj]);
                }
                fill_execution(self.graph, &mut self.probe, cand, partial, &[]);
                if !self.interp.check_axioms(&self.probe, &self.prunable_axioms) {
                    self.stats.pruned_co += 1;
                    chosen.pop();
                    continue;
                }
            }
            self.co_dfs(cand, per_loc, base_co, chosen, partial)?;
            chosen.pop();
        }
        Ok(())
    }

    fn with_fence_orders(&mut self, cand: &Candidate<'_>, co: &Relation) -> Result<(), Ctl> {
        let g = self.graph;
        let sc_fences: Vec<EventId> = if self.needs_fence_order {
            cand.final_events
                .iter()
                .copied()
                .filter(|&e| g.event(e).tags.contains(Tag::F) && g.event(e).tags.contains(Tag::SC))
                .collect()
        } else {
            Vec::new()
        };
        if sc_fences.len() > 8 {
            return Err(Ctl::Err(DporError::TooComplex(format!(
                "{} SC fences to order",
                sc_fences.len()
            ))));
        }
        if !self.opts.sleep_fences || sc_fences.len() < 2 {
            let mut perm = sc_fences.clone();
            return permute(&mut perm, 0, &mut |order| {
                self.check_candidate(cand, co, order)
            });
        }
        // Two fences are dependent iff `sr` relates them (either way):
        // only then does their relative order show up in `sync_fence`.
        // Independent fences commute, so sleep sets keep exactly one
        // linearization per trace — every distinct `sync_fence` is still
        // produced once. The fences all executed, so the graph's `sr`
        // decides.
        let sr = self.interp.fixed(BaseRel::Sr);
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
        self.fence_rec(cand, co, &sc_fences, &dep, 0, 0, &mut order)
    }

    #[allow(clippy::too_many_arguments)]
    fn fence_rec(
        &mut self,
        cand: &Candidate<'_>,
        co: &Relation,
        fences: &[EventId],
        dep: &[u16],
        used: u16,
        mut sleep: u16,
        order: &mut Vec<EventId>,
    ) -> Result<(), Ctl> {
        if order.len() == fences.len() {
            let full = order.clone();
            return self.check_candidate(cand, co, &full);
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
            self.fence_rec(cand, co, fences, dep, used | bit, sleep & !dep[i], order)?;
            order.pop();
            sleep |= bit;
        }
        Ok(())
    }

    fn check_candidate(
        &mut self,
        cand: &Candidate<'_>,
        co: &Relation,
        fence_order: &[EventId],
    ) -> Result<(), Ctl> {
        self.tick()?;
        self.stats.explored += 1;
        let execution = self.build_execution(cand, co, fence_order);
        // The program-level filter restricts considered behaviours.
        if let Some(filter) = &self.graph.filter {
            if execution.eval_condition(filter) != Some(true) {
                return Ok(());
            }
        }
        let verdict = self.interp.check(&execution);
        if verdict.consistent {
            self.stats.consistent += 1;
            if (self.visit)(&Behavior { execution, verdict }).is_break() {
                return Err(Ctl::Stop);
            }
        }
        Ok(())
    }

    fn build_execution(
        &self,
        cand: &Candidate<'_>,
        co: &Relation,
        fence_order: &[EventId],
    ) -> Execution<'g> {
        let mut execution = Execution::new(self.graph);
        fill_execution(self.graph, &mut execution, cand, co, fence_order);
        execution
    }
}

/// Writes a candidate into `execution`, reusing its buffers.
fn fill_execution<'g>(
    g: &'g EventGraph,
    execution: &mut Execution<'g>,
    cand: &Candidate<'_>,
    co: &Relation,
    fence_order: &[EventId],
) {
    fn copy<T: Clone>(to: &mut Vec<T>, from: &[T]) {
        to.clear();
        to.extend_from_slice(from);
    }
    copy(&mut execution.leaf, cand.leaves);
    execution.executed.clear();
    for &e in cand.final_events {
        execution.executed.insert(e);
    }
    copy(&mut execution.rf, cand.rf);
    execution.co.clone_from(co);
    copy(&mut execution.fence_order, fence_order);
    copy(&mut execution.values, cand.values);
    copy(&mut execution.addrs, cand.addrs);
    copy(&mut execution.vaddrs, cand.vaddrs);
    execution.outcomes.clear();
    execution
        .outcomes
        .extend(cand.leaves.iter().map(|&l| outcome_of(&g.block(l).term)));
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
