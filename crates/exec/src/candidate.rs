//! The candidate stage shared by the explicit-state engines.
//!
//! The enumeration engine and the DPOR engine both choose a leaf of
//! every thread's guarded block tree and a reads-from source for every
//! executed read. What follows those choices is one [`Stage`]:
//!
//! * the **completion** ([`Stage::complete`]) turns the chosen leaves and
//!   rf into a candidate — executed events, values, addresses, and the
//!   coherence orders each location allows — or rejects it: a thin-air
//!   value, an unresolved or out-of-bounds address, a read from a write
//!   that did not execute (a failed CAS writes nothing) or from another
//!   address, or a branch guard that contradicts the chosen path;
//! * the **check** ([`Stage::check`]) fills an [`Execution`] for one
//!   coherence order and SC-fence order, applies the program filter and
//!   runs the [`Interpreter`].
//!
//! Each engine keeps only its search: the enumerator takes the whole
//! leaf × rf × co × fence product, DPOR descends thread by thread and
//! prunes. Both accept exactly the behaviours this stage accepts. The
//! stage works in reused buffers, so a rejected candidate allocates
//! nothing.

use gpumc_cat::CatModel;
use gpumc_ir::{Arch, BlockId, EventGraph, EventId, EventKind, Guard, LocId, Tag, UTerm, Val};

use crate::base::outcome_of;
use crate::execution::Execution;
use crate::interp::{ConsistencyVerdict, Interpreter};
use crate::Relation;

/// Non-initial writes to one location beyond which neither engine
/// enumerates coherence orders.
pub(crate) const MAX_WRITES_PER_LOC: usize = 5;

/// A consistent behaviour together with its verdict (flags).
#[derive(Debug, Clone)]
pub struct Behavior<'g> {
    /// The concrete execution.
    pub execution: Execution<'g>,
    /// Interpreter verdict (always consistent; carries raised flags).
    pub verdict: ConsistencyVerdict,
}

/// Why an explicit-state engine gave no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The program uses a feature the engine (configuration) rejects.
    Unsupported(String),
    /// A cap was exceeded: writes per location, SC fences to order, or
    /// the enumerator's candidate cap.
    TooComplex(String),
    /// DPOR's step budget ran out or cancellation was requested; the
    /// verifier reports this as an inconclusive (`Unknown`) verdict.
    Interrupted(String),
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ExploreError::TooComplex(m) => write!(f, "too complex: {m}"),
            ExploreError::Interrupted(m) => write!(f, "interrupted: {m}"),
        }
    }
}

impl std::error::Error for ExploreError {}

#[derive(Clone, Copy, PartialEq)]
enum VState {
    White,
    Grey,
    Done,
}

/// Value computation over an rf assignment, with cycle (thin-air)
/// rejection. A read without a source, and every value on a cycle,
/// evaluates to `None`.
struct ValCtx<'g> {
    g: &'g EventGraph,
    rf: Vec<Option<EventId>>,
    values: Vec<Option<u64>>,
    state: Vec<VState>,
}

impl<'g> ValCtx<'g> {
    /// Rebinds the context to an rf assignment over the same graph,
    /// reusing all three buffers.
    fn reset(&mut self, rf: &[Option<EventId>]) {
        self.rf.clear();
        self.rf.extend_from_slice(rf);
        self.values.clear();
        self.values.resize(rf.len(), None);
        self.state.clear();
        self.state.resize(rf.len(), VState::White);
    }

    fn value_of(&mut self, e: EventId) -> Option<u64> {
        match self.state[e.index()] {
            VState::Done => return self.values[e.index()],
            VState::Grey => return None, // value cycle (thin air): reject
            VState::White => {}
        }
        self.state[e.index()] = VState::Grey;
        // `g` is a plain `&'g EventGraph` copied out of `self`, so the
        // event borrow below does not pin `self` and the recursive
        // `eval` calls need no defensive `Val` clones.
        let g = self.g;
        let v = match &g.event(e).kind {
            EventKind::Init { value, .. } => Some(*value),
            EventKind::Load { .. } | EventKind::RmwLoad { .. } => {
                let w = self.rf[e.index()]?;
                self.value_of(w)
            }
            EventKind::Store { value, .. } | EventKind::RmwStore { value, .. } => self.eval(value),
            EventKind::Barrier { id, .. } => self.eval(id),
            EventKind::Fence(_) => Some(0),
        };
        self.state[e.index()] = VState::Done;
        self.values[e.index()] = v;
        v
    }

    fn eval(&mut self, v: &Val) -> Option<u64> {
        match v {
            Val::Const(c) => Some(*c),
            Val::Read(e) => self.value_of(*e),
            Val::Bin(op, a, b) => {
                let (x, y) = (self.eval(a)?, self.eval(b)?);
                Some(Val::apply(*op, x, y))
            }
        }
    }
}

/// Collects into `out`, sorted, the events of the init block and of
/// every block on the paths to `leaves`.
pub(crate) fn executed_events(g: &EventGraph, leaves: &[BlockId], out: &mut Vec<EventId>) {
    out.clear();
    out.extend_from_slice(&g.block(0).events);
    for &leaf in leaves {
        let mut cur = Some(leaf);
        while let Some(b) = cur {
            out.extend_from_slice(&g.block(b).events);
            cur = g.block(b).parent.map(|(p, _)| p);
        }
    }
    out.sort_unstable();
}

/// The completion and the check of one engine run, with their buffers.
pub(crate) struct Stage<'g, 'a> {
    graph: &'g EventGraph,
    /// The model's interpreter over the run's graph.
    pub(crate) interp: Interpreter<'a>,
    /// Whether the SC-fence order is a runtime choice: PTX, under a
    /// model that references `sync_fence`.
    needs_fence_order: bool,
    ctx: ValCtx<'g>,
    leaves: Vec<BlockId>,
    events: Vec<EventId>,
    final_events: Vec<EventId>,
    addrs: Vec<Option<(LocId, u64)>>,
    vaddrs: Vec<Option<(LocId, u64)>>,
    /// Per location with writes: every coherence order it allows.
    per_loc: Vec<Vec<Relation>>,
    /// Init-before-write edges of every location: part of every order.
    base_co: Relation,
    /// The coherence order under check (see [`Stage::choose_co`]).
    co: Relation,
    /// The executed SC fences whose order is a runtime choice.
    sc_fences: Vec<EventId>,
    /// The execution the check fills, and its verdict.
    behavior: Behavior<'g>,
}

impl<'g, 'a> Stage<'g, 'a> {
    pub(crate) fn new(graph: &'g EventGraph, model: &'a CatModel) -> Stage<'g, 'a>
    where
        'g: 'a,
    {
        let n = graph.n_events();
        Stage {
            graph,
            interp: Interpreter::new(model, graph),
            needs_fence_order: graph.arch == Arch::Ptx
                && model
                    .referenced_base_rels()
                    .iter()
                    .any(|r| r == "sync_fence"),
            ctx: ValCtx {
                g: graph,
                rf: Vec::new(),
                values: Vec::new(),
                state: Vec::new(),
            },
            leaves: Vec::new(),
            events: Vec::new(),
            final_events: Vec::new(),
            addrs: Vec::new(),
            vaddrs: Vec::new(),
            per_loc: Vec::new(),
            base_co: Relation::empty(n),
            co: Relation::empty(n),
            sc_fences: Vec::new(),
            behavior: Behavior {
                execution: Execution::new(graph),
                verdict: ConsistencyVerdict {
                    consistent: false,
                    failed_axiom: None,
                    flags: Vec::new(),
                },
            },
        }
    }

    /// The completion: validates the chosen `leaves` (one per thread)
    /// and `rf` (a source for every executed read) and keeps the
    /// candidate. `Ok(false)` rejects it.
    ///
    /// # Errors
    ///
    /// [`ExploreError::TooComplex`] when a location has more than
    /// [`MAX_WRITES_PER_LOC`] non-initial writes.
    pub(crate) fn complete(
        &mut self,
        leaves: &[BlockId],
        rf: &[Option<EventId>],
    ) -> Result<bool, ExploreError> {
        let g = self.graph;
        let n = g.n_events();
        self.leaves.clear();
        self.leaves.extend_from_slice(leaves);
        executed_events(g, leaves, &mut self.events);
        // --- Values (shared thin-air-rejecting semantics).
        let ctx = &mut self.ctx;
        ctx.reset(rf);
        for &e in &self.events {
            if ctx.value_of(e).is_none() && !matches!(g.event(e).kind, EventKind::Fence(_)) {
                return Ok(false); // unconstructible values
            }
        }
        // --- Addresses.
        self.addrs.clear();
        self.addrs.resize(n, None);
        self.vaddrs.clear();
        self.vaddrs.resize(n, None);
        for &e in &self.events {
            let (vloc, index) = match &g.event(e).kind {
                EventKind::Init { loc, index, .. } => (*loc, Some(u64::from(*index))),
                k => match k.addr() {
                    Some(a) => (a.loc, ctx.eval(&a.index)),
                    None => continue,
                },
            };
            let root = g.physical_root(vloc);
            let Some(i) = index.filter(|&i| i < u64::from(g.memory[root.index()].size)) else {
                return Ok(false); // unresolved or out-of-bounds access
            };
            self.vaddrs[e.index()] = Some((vloc, i));
            self.addrs[e.index()] = Some((root, i));
        }
        // --- CAS success: a failed CAS has no write event.
        self.final_events.clear();
        for &e in &self.events {
            if let EventKind::RmwStore {
                read,
                cas_expected: Some(exp),
                ..
            } = &g.event(e).kind
            {
                let got = ctx.value_of(*read);
                if got.is_none() || got != ctx.eval(exp) {
                    continue;
                }
            }
            self.final_events.push(e);
        }
        // --- rf validity: source executed, same physical address.
        for &e in &self.final_events {
            if g.event(e).tags.contains(Tag::R) {
                let w = rf[e.index()].expect("assigned");
                let a = self.addrs[e.index()];
                if !self.final_events.contains(&w) || a.is_none() || a != self.addrs[w.index()] {
                    return Ok(false);
                }
            }
        }
        // --- Guard consistency along each chosen path.
        for &leaf in leaves {
            let mut cur = leaf;
            while let Some((p, polarity)) = g.block(cur).parent {
                if let UTerm::Branch { guard, .. } = &g.block(p).term {
                    let (Some(a), Some(b)) = (ctx.eval(&guard.a), ctx.eval(&guard.b)) else {
                        return Ok(false);
                    };
                    if guard.eval(a, b) != polarity {
                        return Ok(false);
                    }
                }
                cur = p;
            }
        }
        // --- Coherence groups: each location's init write and others.
        let mut groups: Vec<(EventId, Vec<EventId>)> = Vec::new();
        for &w in &self.final_events {
            if g.event(w).tags.contains(Tag::IW) {
                groups.push((w, Vec::new()));
            }
        }
        for &w in &self.final_events {
            let tags = &g.event(w).tags;
            if !tags.contains(Tag::W) || tags.contains(Tag::IW) {
                continue;
            }
            let a = self.addrs[w.index()];
            match groups
                .iter_mut()
                .find(|(iw, _)| self.addrs[iw.index()] == a)
            {
                Some((_, others)) => others.push(w),
                // Every physical element has an init write.
                None => return Ok(false),
            }
        }
        if let Some((_, others)) = groups.iter().find(|(_, o)| o.len() > MAX_WRITES_PER_LOC) {
            return Err(ExploreError::TooComplex(format!(
                "{} writes to one location (cap {MAX_WRITES_PER_LOC})",
                others.len()
            )));
        }
        self.per_loc.clear();
        self.base_co.clear_resize(n);
        for (iw, others) in &groups {
            self.per_loc.push(location_orders(g, n, *iw, others));
            for &w in others {
                self.base_co.insert(*iw, w);
            }
        }
        self.sc_fences.clear();
        if self.needs_fence_order {
            self.sc_fences
                .extend(self.final_events.iter().copied().filter(|&e| {
                    let tags = &g.event(e).tags;
                    tags.contains(Tag::F) && tags.contains(Tag::SC)
                }));
        }
        Ok(true)
    }

    /// The completed candidate's coherence choices, per location.
    pub(crate) fn per_loc(&self) -> &[Vec<Relation>] {
        &self.per_loc
    }

    /// The completed candidate's SC fences to order (empty unless the
    /// fence order is a runtime choice).
    pub(crate) fn sc_fences(&self) -> &[EventId] {
        &self.sc_fences
    }

    /// Sets the coherence order under check: choice `chosen[j]` for each
    /// of the first `chosen.len()` locations, plus the base edges of all
    /// of them. With fewer choices than locations this is a partial
    /// order, a subset of every completion.
    pub(crate) fn choose_co(&mut self, chosen: &[usize]) {
        self.co.clone_from(&self.base_co);
        for (orders, &c) in self.per_loc.iter().zip(chosen) {
            self.co.union_with(&orders[c]);
        }
    }

    /// Whether `axioms` hold on the chosen coherence order, with no
    /// SC-fence order yet.
    pub(crate) fn holds(&mut self, axioms: &[usize]) -> bool {
        self.fill(&[]);
        self.interp.check_axioms(&self.behavior.execution, axioms)
    }

    /// The check: the candidate under the chosen coherence order and
    /// `fence_order`, if it passes the program filter and the model.
    pub(crate) fn check(&mut self, fence_order: &[EventId]) -> Option<&Behavior<'g>> {
        self.fill(fence_order);
        let execution = &self.behavior.execution;
        // The program-level filter restricts considered behaviours.
        if let Some(filter) = &self.graph.filter {
            if execution.eval_condition(filter) != Some(true) {
                return None;
            }
        }
        self.behavior.verdict = self.interp.check(execution);
        self.behavior.verdict.consistent.then_some(&self.behavior)
    }

    /// A branch guard under a partial rf assignment: `Some` once every
    /// read it depends on has a source, so that every completion
    /// computes the same value.
    pub(crate) fn guard(&mut self, guard: &Guard, rf: &[Option<EventId>]) -> Option<bool> {
        self.ctx.reset(rf);
        let (a, b) = (self.ctx.eval(&guard.a)?, self.ctx.eval(&guard.b)?);
        Some(guard.eval(a, b))
    }

    /// Writes the candidate into the reused execution.
    fn fill(&mut self, fence_order: &[EventId]) {
        fn copy<T: Clone>(to: &mut Vec<T>, from: &[T]) {
            to.clear();
            to.extend_from_slice(from);
        }
        let x = &mut self.behavior.execution;
        copy(&mut x.leaf, &self.leaves);
        x.executed.clear();
        for &e in &self.final_events {
            x.executed.insert(e);
        }
        copy(&mut x.rf, &self.ctx.rf);
        x.co.clone_from(&self.co);
        copy(&mut x.fence_order, fence_order);
        copy(&mut x.values, &self.ctx.values);
        copy(&mut x.addrs, &self.addrs);
        copy(&mut x.vaddrs, &self.vaddrs);
        x.outcomes.clear();
        let g = self.graph;
        x.outcomes
            .extend(self.leaves.iter().map(|&l| outcome_of(&g.block(l).term)));
    }
}

/// All coherence orders for one location: `iw` first, then every strict
/// partial order (PTX) or total order (Vulkan) over the other writes,
/// transitively closed.
fn location_orders(g: &EventGraph, n: usize, iw: EventId, others: &[EventId]) -> Vec<Relation> {
    let mut base = Relation::empty(n);
    for &w in others {
        base.insert(iw, w);
    }
    let k = others.len();
    let mut out = Vec::new();
    match g.arch {
        Arch::Vulkan => {
            // Total orders: permutations.
            let mut perm = others.to_vec();
            let _ = permute(&mut perm, 0, &mut |order| {
                let mut r = base.clone();
                for i in 0..order.len() {
                    for j in (i + 1)..order.len() {
                        r.insert(order[i], order[j]);
                    }
                }
                out.push(r);
                Ok::<(), std::convert::Infallible>(())
            });
        }
        Arch::Ptx => {
            // Strict partial orders: for each unordered pair pick
            // <, >, or unrelated; keep the transitive ones.
            let pairs: Vec<(usize, usize)> = (0..k)
                .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
                .collect();
            let total = 3usize.pow(pairs.len() as u32);
            for mut code in 0..total {
                let mut r = base.clone();
                for &(i, j) in &pairs {
                    match code % 3 {
                        0 => {}
                        1 => r.insert(others[i], others[j]),
                        _ => r.insert(others[j], others[i]),
                    }
                    code /= 3;
                }
                // Transitivity check (antisymmetry holds by construction).
                if r.transitive_closure() == r {
                    out.push(r);
                }
            }
        }
    }
    if out.is_empty() {
        out.push(base);
    }
    out
}

/// Heap-style permutation enumeration with a fallible callback.
pub(crate) fn permute<E>(
    items: &mut [EventId],
    k: usize,
    f: &mut impl FnMut(&[EventId]) -> Result<(), E>,
) -> Result<(), E> {
    if k == items.len() {
        return f(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f)?;
        items.swap(k, i);
    }
    Ok(())
}
