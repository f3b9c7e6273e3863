//! The explicit-state enumeration engine.
//!
//! Enumerates every well-defined behaviour `(X, rf, co)` of an event
//! graph (§2.2) and checks each against a `.cat` model. This is the
//! workspace's stand-in for the Alloy-based prototype tools: it is exact
//! on small programs and exponential in the number of events, which is
//! precisely the scaling contrast Figure 15 of the paper demonstrates.

use gpumc_cat::CatModel;
use gpumc_ir::{Arch, BlockId, EventGraph, EventId, EventKind, Tag, UTerm, Val};

use crate::base::outcome_of;
use crate::execution::Execution;
use crate::interp::{ConsistencyVerdict, Interpreter};
use crate::Relation;

/// Options controlling enumeration.
#[derive(Debug, Clone)]
pub struct EnumerateOptions {
    /// Hard cap on candidate behaviours (guards against blow-up).
    pub max_candidates: u64,
    /// Restricts the engine to straight-line programs, like the Alloy
    /// prototypes (no control flow, no loops).
    pub straight_line_only: bool,
    /// Maximal number of non-initial writes per location for which
    /// coherence orders are enumerated.
    pub max_writes_per_loc: usize,
}

impl Default for EnumerateOptions {
    fn default() -> EnumerateOptions {
        EnumerateOptions {
            max_candidates: 50_000_000,
            straight_line_only: false,
            max_writes_per_loc: 5,
        }
    }
}

/// A consistent behaviour together with its verdict (flags).
#[derive(Debug, Clone)]
pub struct Behavior<'g> {
    /// The concrete execution.
    pub execution: Execution<'g>,
    /// Interpreter verdict (always consistent; carries raised flags).
    pub verdict: ConsistencyVerdict,
}

/// Enumeration failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumerateError {
    /// The program uses a feature this engine (configuration) rejects.
    Unsupported(String),
    /// An enumeration cap was exceeded.
    TooComplex(String),
}

impl std::fmt::Display for EnumerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumerateError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EnumerateError::TooComplex(m) => write!(f, "too complex: {m}"),
        }
    }
}

impl std::error::Error for EnumerateError {}

/// Aggregate statistics of one enumeration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Candidate behaviours constructed (before consistency checking).
    pub candidates: u64,
    /// Candidates that satisfied all consistency axioms.
    pub consistent: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum VState {
    White,
    Grey,
    Done,
}

/// Value computation over a fully-assigned `rf`, with cycle (thin-air)
/// rejection. Shared by the enumeration and DPOR engines so both reject
/// exactly the same unconstructible candidates.
pub(crate) struct ValCtx<'g> {
    g: &'g EventGraph,
    rf: Vec<Option<EventId>>,
    values: Vec<Option<u64>>,
    state: Vec<VState>,
}

impl<'g> ValCtx<'g> {
    pub(crate) fn new(g: &'g EventGraph, rf: Vec<Option<EventId>>) -> ValCtx<'g> {
        let n = g.n_events();
        ValCtx {
            g,
            rf,
            values: vec![None; n],
            state: vec![VState::White; n],
        }
    }

    /// Rebinds the context to a new rf assignment over the same graph,
    /// reusing all three buffers (no per-candidate allocation).
    pub(crate) fn reset(&mut self, rf: &[Option<EventId>]) {
        self.rf.clear();
        self.rf.extend_from_slice(rf);
        self.values.clear();
        self.values.resize(rf.len(), None);
        self.state.clear();
        self.state.resize(rf.len(), VState::White);
    }

    pub(crate) fn values(&self) -> &[Option<u64>] {
        &self.values
    }

    pub(crate) fn rf(&self) -> &[Option<EventId>] {
        &self.rf
    }

    pub(crate) fn value_of(&mut self, e: EventId) -> Option<u64> {
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

    pub(crate) fn eval(&mut self, v: &Val) -> Option<u64> {
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
) -> Result<EnumStats, EnumerateError> {
    let mut e = Enumerator {
        graph,
        interp: Interpreter::new(model, graph),
        needs_fence_order: graph.arch == Arch::Ptx
            && model
                .referenced_base_rels()
                .iter()
                .any(|r| r == "sync_fence"),
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
) -> Result<Vec<Behavior<'g>>, EnumerateError> {
    let mut out = Vec::new();
    enumerate(graph, model, opts, |b| out.push(b.clone()))?;
    Ok(out)
}

struct Enumerator<'g, 'a, F: FnMut(&Behavior<'g>)> {
    graph: &'g EventGraph,
    interp: Interpreter<'a>,
    needs_fence_order: bool,
    opts: &'a EnumerateOptions,
    stats: EnumStats,
    visit: &'a mut F,
}

impl<'g, 'a, F: FnMut(&Behavior<'g>)> Enumerator<'g, 'a, F> {
    fn run(&mut self) -> Result<(), EnumerateError> {
        let g = self.graph;
        if self.opts.straight_line_only {
            let has_cf = g
                .blocks()
                .iter()
                .any(|b| matches!(b.term, UTerm::Branch { .. } | UTerm::Bound { .. }));
            if has_cf {
                return Err(EnumerateError::Unsupported(
                    "control-flow instructions (straight-line engine)".into(),
                ));
            }
        }
        // Per-thread leaves.
        let leaves: Vec<Vec<BlockId>> = (0..g.threads().len())
            .map(|t| g.thread_leaves(t).into_iter().map(|(b, _)| b).collect())
            .collect();
        let mut combo = vec![0usize; leaves.len()];
        loop {
            let chosen: Vec<BlockId> = combo.iter().zip(&leaves).map(|(&i, l)| l[i]).collect();
            self.explore_leaf_combo(&chosen)?;
            // Odometer.
            let mut k = 0;
            loop {
                if k == combo.len() {
                    return Ok(());
                }
                combo[k] += 1;
                if combo[k] < leaves[k].len() {
                    break;
                }
                combo[k] = 0;
                k += 1;
            }
        }
    }

    fn explore_leaf_combo(&mut self, leaves: &[BlockId]) -> Result<(), EnumerateError> {
        let g = self.graph;
        // Executed blocks: init block plus all ancestors of each leaf.
        let mut exec_blocks = vec![0u32];
        for &leaf in leaves {
            let mut cur = leaf;
            loop {
                exec_blocks.push(cur);
                match g.block(cur).parent {
                    Some((p, _)) => cur = p,
                    None => break,
                }
            }
        }
        let mut events: Vec<EventId> = exec_blocks
            .iter()
            .flat_map(|&b| g.block(b).events.iter().copied())
            .collect();
        events.sort_unstable();
        let reads: Vec<EventId> = events
            .iter()
            .copied()
            .filter(|&e| g.event(e).tags.contains(Tag::R))
            .collect();
        let writes: Vec<EventId> = events
            .iter()
            .copied()
            .filter(|&e| g.event(e).tags.contains(Tag::W))
            .collect();
        let mut rf: Vec<Option<EventId>> = vec![None; g.n_events()];
        self.assign_rf(leaves, &events, &reads, &writes, 0, &mut rf)
    }

    fn assign_rf(
        &mut self,
        leaves: &[BlockId],
        events: &[EventId],
        reads: &[EventId],
        writes: &[EventId],
        idx: usize,
        rf: &mut Vec<Option<EventId>>,
    ) -> Result<(), EnumerateError> {
        if idx == reads.len() {
            return self.finish_rf(leaves, events, writes, rf);
        }
        let r = reads[idx];
        for &w in writes {
            if self.graph.may_alias(r, w) {
                rf[r.index()] = Some(w);
                self.assign_rf(leaves, events, reads, writes, idx + 1, rf)?;
            }
        }
        rf[r.index()] = None;
        Ok(())
    }

    /// Values, addresses, guard checks; then enumerate co / fence orders.
    fn finish_rf(
        &mut self,
        leaves: &[BlockId],
        events: &[EventId],
        writes: &[EventId],
        rf: &[Option<EventId>],
    ) -> Result<(), EnumerateError> {
        let g = self.graph;
        let n = g.n_events();
        // --- Value computation with cycle rejection.
        let mut ctx = ValCtx::new(g, rf.to_vec());
        for &e in events {
            if ctx.value_of(e).is_none() && !matches!(g.event(e).kind, EventKind::Fence(_)) {
                return Ok(()); // unconstructible values: reject candidate
            }
        }
        // --- Addresses.
        let mut addrs = vec![None; n];
        let mut vaddrs = vec![None; n];
        for &e in events {
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
        let mut final_events: Vec<EventId> = Vec::with_capacity(events.len());
        for &e in events {
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
        for &e in &final_events {
            if g.event(e).tags.contains(Tag::R) {
                let w = rf[e.index()].expect("assigned");
                if !final_events.contains(&w) {
                    return Ok(());
                }
                if addrs[e.index()].is_none() || addrs[e.index()] != addrs[w.index()] {
                    return Ok(());
                }
            }
        }
        // --- Guard consistency along each chosen path.
        for &leaf in leaves {
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
        // --- Coherence enumeration per location.
        let exec_writes: Vec<EventId> = writes
            .iter()
            .copied()
            .filter(|w| final_events.contains(w))
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
                None => {
                    // No init event for a dynamic location cannot happen:
                    // every physical element has an init write.
                    return Ok(());
                }
            }
        }
        for (_, others) in &groups {
            if others.len() > self.opts.max_writes_per_loc {
                return Err(EnumerateError::TooComplex(format!(
                    "{} writes to one location (cap {})",
                    others.len(),
                    self.opts.max_writes_per_loc
                )));
            }
        }
        // Enumerate per-location orders, then take the cartesian product.
        let per_loc: Vec<Vec<Relation>> = groups
            .iter()
            .map(|(iw, others)| location_orders(g, n, *iw, others))
            .collect();
        let mut co_choice = vec![0usize; per_loc.len()];
        loop {
            let mut co = Relation::empty(n);
            for (k, &c) in co_choice.iter().enumerate() {
                co.union_with(&per_loc[k][c]);
            }
            self.with_fence_orders(
                leaves,
                &final_events,
                rf,
                ctx.values(),
                &addrs,
                &vaddrs,
                &co,
            )?;
            let mut k = 0;
            loop {
                if k == co_choice.len() {
                    return Ok(());
                }
                co_choice[k] += 1;
                if co_choice[k] < per_loc[k].len() {
                    break;
                }
                co_choice[k] = 0;
                k += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn with_fence_orders(
        &mut self,
        leaves: &[BlockId],
        final_events: &[EventId],
        rf: &[Option<EventId>],
        values: &[Option<u64>],
        addrs: &[Option<(gpumc_ir::LocId, u64)>],
        vaddrs: &[Option<(gpumc_ir::LocId, u64)>],
        co: &Relation,
    ) -> Result<(), EnumerateError> {
        let g = self.graph;
        let sc_fences: Vec<EventId> = if self.needs_fence_order {
            final_events
                .iter()
                .copied()
                .filter(|&e| g.event(e).tags.contains(Tag::F) && g.event(e).tags.contains(Tag::SC))
                .collect()
        } else {
            Vec::new()
        };
        if sc_fences.len() > 6 {
            return Err(EnumerateError::TooComplex(format!(
                "{} SC fences to order",
                sc_fences.len()
            )));
        }
        let mut perm = sc_fences.clone();
        permute(&mut perm, 0, &mut |order| {
            self.check_candidate(leaves, final_events, rf, values, addrs, vaddrs, co, order)
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn check_candidate(
        &mut self,
        leaves: &[BlockId],
        final_events: &[EventId],
        rf: &[Option<EventId>],
        values: &[Option<u64>],
        addrs: &[Option<(gpumc_ir::LocId, u64)>],
        vaddrs: &[Option<(gpumc_ir::LocId, u64)>],
        co: &Relation,
        fence_order: &[EventId],
    ) -> Result<(), EnumerateError> {
        let g = self.graph;
        self.stats.candidates += 1;
        if self.stats.candidates > self.opts.max_candidates {
            return Err(EnumerateError::TooComplex(format!(
                "more than {} candidate behaviours",
                self.opts.max_candidates
            )));
        }
        let mut execution = Execution::new(g);
        execution.leaf = leaves.to_vec();
        for &e in final_events {
            execution.executed.insert(e);
        }
        execution.rf = rf.to_vec();
        execution.co = co.clone();
        execution.fence_order = fence_order.to_vec();
        execution.values = values.to_vec();
        execution.addrs = addrs.to_vec();
        execution.vaddrs = vaddrs.to_vec();
        execution.outcomes = leaves
            .iter()
            .map(|&l| outcome_of(&g.block(l).term))
            .collect();
        // The program-level filter restricts considered behaviours.
        if let Some(filter) = &g.filter {
            if execution.eval_condition(filter) != Some(true) {
                return Ok(());
            }
        }
        let verdict = self.interp.check(&execution);
        if verdict.consistent {
            self.stats.consistent += 1;
            (self.visit)(&Behavior { execution, verdict });
        }
        Ok(())
    }
}

/// All coherence orders for one location: `iw` first, then every strict
/// partial order (PTX) or total order (Vulkan) over the other writes,
/// transitively closed. Shared with the DPOR engine.
pub(crate) fn location_orders(
    g: &EventGraph,
    n: usize,
    iw: EventId,
    others: &[EventId],
) -> Vec<Relation> {
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
            'combo: for mut code in 0..total {
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
                let tc = r.transitive_closure();
                if tc != r {
                    continue 'combo;
                }
                out.push(r);
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
