//! Concrete interpretation of base sets and relations over an execution.

use gpumc_cat::{BaseRel, BUILTIN_SETS};
use gpumc_ir::{EventGraph, EventId, Tag, UTerm};

use crate::arena::{self, Dims, RelView, SetView};
use crate::execution::Execution;
use crate::facts::{GraphFacts, FIXED_RELS};

/// The concrete values of every base set and base relation of the `.cat`
/// environment over one execution, as arena slots: the relations in
/// [`BaseRel`] order, then the sets in [`BUILTIN_SETS`] order, then `_`,
/// the executed events.
///
/// The relations and tags the graph fixes are taken once, by
/// [`BaseInterpretation::new`]; [`BaseInterpretation::fill`] restricts
/// them to an execution's events and adds the ones it chooses (`rf`,
/// `co`, `loc`, `vloc`, the barrier relations and `sync_fence`), so one
/// value serves every execution of a graph without allocating.
#[derive(Debug, Clone)]
pub struct BaseInterpretation {
    facts: GraphFacts,
    words: Vec<u64>,
    /// [`BUILTIN_SETS`] position of `B`, the barriers.
    barriers: usize,
    /// Executed memory events with a resolved address (scratch).
    accesses: Vec<u32>,
}

/// Slot of `_` after the relations and the named sets.
const UNIVERSE: usize = BUILTIN_SETS.len();

impl BaseInterpretation {
    /// The fixed part of the base values of graph `g`; every value is
    /// empty until [`BaseInterpretation::fill`].
    pub fn new(g: &EventGraph) -> BaseInterpretation {
        let facts = GraphFacts::new(g);
        let d = facts.dims();
        BaseInterpretation {
            facts,
            words: vec![0; BaseRel::ALL.len() * d.rel_len() + (UNIVERSE + 1) * d.w],
            barriers: GraphFacts::set_index("B"),
            accesses: Vec::with_capacity(d.n),
        }
    }

    /// Computes all base sets and relations for an execution.
    pub fn compute(exec: &Execution<'_>) -> BaseInterpretation {
        let mut base = BaseInterpretation::new(exec.graph);
        base.fill(exec);
        base
    }

    /// The arena shape.
    pub fn dims(&self) -> Dims {
        self.facts.dims()
    }

    /// All slots, for evaluators that read them in place (see
    /// [`BaseInterpretation::rel_at`] and [`BaseInterpretation::set_at`]).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Fixed relation `r` of the graph, before any restriction to an
    /// execution (see [`GraphFacts::rel`]).
    pub(crate) fn fixed(&self, r: BaseRel) -> RelView<'_> {
        RelView::new(self.dims(), self.facts.rel(r))
    }

    /// Offset of the slot of base relation `r`.
    pub(crate) fn rel_at(&self, r: BaseRel) -> usize {
        r.index() * self.dims().rel_len()
    }

    /// Offset of the slot of the set at [`BUILTIN_SETS`] position `i`
    /// (`BUILTIN_SETS.len()` is `_`).
    pub(crate) fn set_at(&self, i: usize) -> usize {
        BaseRel::ALL.len() * self.dims().rel_len() + i * self.dims().w
    }

    /// Recomputes every value for `exec`, an execution of the graph this
    /// value was made for.
    ///
    /// # Panics
    ///
    /// Panics if `exec` has a different number of events.
    pub fn fill(&mut self, exec: &Execution<'_>) {
        let d = self.dims();
        assert_eq!(exec.graph.n_events(), d.n, "execution of another graph");
        let x = exec.executed.words();
        let (rels, sets) = self.words.split_at_mut(BaseRel::ALL.len() * d.rel_len());
        let slot = |r: BaseRel| r.index() * d.rel_len()..(r.index() + 1) * d.rel_len();

        // Sets: each tag restricted to the executed events; `_` is the
        // executed events.
        for i in 0..UNIVERSE {
            arena::inter(&mut sets[i * d.w..(i + 1) * d.w], self.facts.set(i), x);
        }
        sets[UNIVERSE * d.w..].copy_from_slice(x);

        // Fixed relations, restricted to executed pairs.
        for r in FIXED_RELS {
            let fixed = self.facts.rel(r);
            let out = &mut rels[slot(r)];
            for a in 0..d.n {
                let row = &mut out[a * d.w..(a + 1) * d.w];
                if x[a / 64] >> (a % 64) & 1 == 1 {
                    arena::inter(row, &fixed[a * d.w..(a + 1) * d.w], x);
                } else {
                    row.fill(0);
                }
            }
        }

        // rf / co.
        let range = slot(BaseRel::Rf);
        let rf = &mut rels[range];
        rf.fill(0);
        for (r, w) in exec.rf.iter().enumerate() {
            if let Some(w) = w {
                if exec.executed.contains(EventId(r as u32)) && exec.executed.contains(*w) {
                    rf[w.index() * d.w + r / 64] |= 1 << (r % 64);
                }
            }
        }
        let range = slot(BaseRel::Co);
        rels[range].copy_from_slice(exec.co.words());

        // loc / vloc over resolved addresses.
        self.accesses.clear();
        self.accesses.extend(
            exec.executed
                .iter()
                .filter(|e| exec.addrs[e.index()].is_some())
                .map(|e| e.0),
        );
        let (loc, vloc) = (slot(BaseRel::Loc), slot(BaseRel::Vloc));
        rels[loc.clone()].fill(0);
        rels[vloc.clone()].fill(0);
        for &a in &self.accesses {
            let a = a as usize;
            for &b in &self.accesses {
                let b = b as usize;
                if a == b || exec.addrs[a] != exec.addrs[b] {
                    continue;
                }
                let at = a * d.w + b / 64;
                rels[loc.start + at] |= 1 << (b % 64);
                let iw =
                    self.facts.tags[a].contains(Tag::IW) || self.facts.tags[b].contains(Tag::IW);
                if iw || exec.vaddrs[a] == exec.vaddrs[b] {
                    rels[vloc.start + at] |= 1 << (b % 64);
                }
            }
        }

        // Barriers with equal (runtime) ids; `sync_barrier` keeps the
        // pairs of one CTA.
        let (bar, sync_bar, scta) = (
            slot(BaseRel::Syncbar),
            slot(BaseRel::SyncBarrier),
            slot(BaseRel::Scta),
        );
        rels[bar.clone()].fill(0);
        let barriers = &sets[self.barriers * d.w..][..d.w];
        for a in arena::set_bits(barriers) {
            let Some(va) = exec.values[a] else { continue };
            for b in arena::set_bits(barriers) {
                if a != b && exec.values[b] == Some(va) {
                    rels[bar.start + a * d.w + b / 64] |= 1 << (b % 64);
                }
            }
        }
        for a in 0..d.n {
            for k in 0..d.w {
                let mut scta_row = rels[scta.start + a * d.w + k];
                if k == a / 64 {
                    scta_row |= 1 << (a % 64);
                }
                rels[sync_bar.start + a * d.w + k] = rels[bar.start + a * d.w + k] & scta_row;
            }
        }

        // sync_fence: the chosen order over SC fences, on `sr` pairs.
        let (fence, sr) = (slot(BaseRel::SyncFence), slot(BaseRel::Sr));
        rels[fence.clone()].fill(0);
        for (i, &a) in exec.fence_order.iter().enumerate() {
            for &b in &exec.fence_order[i + 1..] {
                let at = a.index() * d.w + b.index() / 64;
                if rels[sr.start + at] >> (b.index() % 64) & 1 == 1 {
                    rels[fence.start + at] |= 1 << (b.index() % 64);
                }
            }
        }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.dims().n
    }

    /// A base set by `.cat` name (`_` is the executed events).
    pub fn set(&self, name: &str) -> Option<SetView<'_>> {
        let i = match name {
            "_" => UNIVERSE,
            _ => BUILTIN_SETS.iter().position(|&s| s == name)?,
        };
        let at = self.set_at(i);
        Some(SetView::new(
            self.dims(),
            &self.words[at..at + self.dims().w],
        ))
    }

    /// A base relation by `.cat` name.
    pub fn rel(&self, name: &str) -> Option<RelView<'_>> {
        let at = self.rel_at(BaseRel::from_name(name)?);
        Some(RelView::new(
            self.dims(),
            &self.words[at..at + self.dims().rel_len()],
        ))
    }
}

/// Lists the thread leaves an execution committed to (utility shared with
/// the enumerator; re-exported for tests).
pub(crate) fn outcome_of(term: &UTerm) -> crate::execution::ThreadOutcome {
    match term {
        UTerm::End { .. } => crate::execution::ThreadOutcome::Completed,
        UTerm::Bound { spin: Some(s) } => {
            crate::execution::ThreadOutcome::Stuck { spin_read: s.read }
        }
        UTerm::Bound { spin: None } => crate::execution::ThreadOutcome::Incomplete,
        UTerm::Branch { .. } => unreachable!("leaf terminator expected"),
    }
}
