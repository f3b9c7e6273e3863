//! Relation analysis: static bounds (Table 3) and active sets.
//!
//! An *upper bound* contains every pair that may belong to a relation in
//! some execution; a *lower bound* contains the pairs guaranteed to
//! belong whenever both events execute. For static relations the two
//! coincide and the SAT encoding needs no decision variables at all.
//!
//! The analysis walks the model's compiled node table
//! ([`gpumc_cat::NodeTable`]: every sub-expression of every definition
//! and axiom, in post-order). A node's upper bound is computed once,
//! bottom-up. Its *active set* is computed top-down from the axioms: the
//! pairs (members, for a set node) whose value can change whether an
//! axiom holds (Gavrilenko, Ponce de León, Furbach, Heljanko, Meyer:
//! "BMC for Weak Memory Models: Relation Analysis for Compact SMT
//! Encodings", CAV 2019). The active set always lies within the upper
//! bound, and the encoder builds each node on its active set only.
//!
//! Every bound is a slot of one flat bit arena, sized once per graph
//! (see [`gpumc_exec::arena`]). Base relations, tags, references and `id`
//! name the slot of what they denote instead of copying it.

use gpumc_cat::{AxiomKind, BaseRel, CatModel, DefId, NodeId, NodeTable, Op, BUILTIN_SETS};
use gpumc_exec::arena::{self, split, Dims, RelView, SetView};
use gpumc_exec::{GraphFacts, FIXED_RELS};
use gpumc_ir::{EventGraph, EventId, EventKind, Tag};

/// A slot not allocated yet.
const NONE: usize = usize::MAX;

/// Relation slots of the base part: `empty`, `identity`, `coexist`,
/// `below`, the fixed relations, nine bounds of the aliasing and barrier
/// relations, `scta?`, two of `sync_barrier`, one of `sync_fence`, four
/// scratch.
const BASE_RELS: usize = 4 + FIXED_RELS.len() + 9 + 1 + 2 + 1 + 4;
/// Set slots of the base part: `empty`, `_`, the tags, two scratch.
const BASE_SETS: usize = 2 + BUILTIN_SETS.len() + 2;

/// Static bounds and active sets of every base relation, base set and
/// model node for one event graph.
#[derive(Debug)]
pub struct RelationAnalysis<'g> {
    graph: &'g EventGraph,
    table: &'g NodeTable,
    /// When false, alias-based pruning was disabled (ablation mode).
    precise: bool,
    d: Dims,
    words: Vec<u64>,
    /// Words handed out so far.
    used: usize,
    /// The nodes whose lower bound the upper bounds ask for (see
    /// [`lower_needs`]).
    needs_lower: Vec<bool>,
    /// Upper and lower bound slots of each base relation.
    base_upper: [usize; BaseRel::ALL.len()],
    base_lower: [usize; BaseRel::ALL.len()],
    /// The static members of each base set (upper = lower), in
    /// [`BUILTIN_SETS`] order.
    sets: Vec<usize>,
    /// Pairs of events that can execute in one behaviour: every
    /// non-reflexive pair of every relation lies in it.
    coexist: usize,
    identity: usize,
    empty_rel: usize,
    empty_set: usize,
    full: usize,
    /// Per event `m`: the events whose block lies below `m`'s, so that
    /// `m` executes whenever they do (filled on first use).
    below: usize,
    below_ok: bool,
    /// Scratch relations and sets.
    tmp: [usize; 4],
    tmp_set: [usize; 2],
    /// Room for a copy of one `let rec` group's active sets.
    snapshot: usize,
    upper: Vec<usize>,
    /// Computed on first use: only the right operand of a difference,
    /// and what it is built from, needs a lower bound.
    lower: Vec<usize>,
    lower_ok: Vec<bool>,
    active: Vec<usize>,
    /// Whether any pair (member) of each node is demanded.
    demanded: Vec<bool>,
}

/// Whether node `id` needs an upper-bound slot of its own; the others
/// name the slot of what they denote. A recursive definition's root
/// keeps its own even when it merely names another definition.
fn owns_upper(table: &NodeTable, id: NodeId) -> bool {
    match table.node(id).op {
        Op::Base(_) | Op::Tag(_) | Op::Id | Op::Universe => false,
        Op::Ref(_) | Op::SetRef(_) => table.is_rec_root(id),
        _ => true,
    }
}

/// Whether a lower bound of this operator needs a slot of its own.
fn owns_lower(op: Op) -> bool {
    !matches!(
        op,
        Op::Base(_)
            | Op::Tag(_)
            | Op::Ref(_)
            | Op::SetRef(_)
            | Op::Id
            | Op::Plus
            | Op::Domain
            | Op::Range
            | Op::Universe
    )
}

/// The nodes whose lower bound the upper bounds ask for: the right
/// operands of differences and what their lower bounds are built from.
fn lower_needs(table: &NodeTable) -> Vec<bool> {
    let mut need = vec![false; table.len()];
    let mut todo: Vec<NodeId> = table
        .nodes()
        .iter()
        .filter(|n| matches!(n.op, Op::Diff | Op::SetDiff))
        .map(|n| n.kids[1])
        .collect();
    while let Some(id) = todo.pop() {
        if std::mem::replace(&mut need[id], true) {
            continue;
        }
        let [a, b] = table.node(id).kids;
        match table.node(id).op {
            Op::Ref(d) | Op::SetRef(d) if !table.is_recursive(d) => todo.push(table.def_root(d)),
            Op::Plus | Op::Diff | Op::SetDiff | Op::IdSet | Op::Inverse | Op::Star | Op::Opt => {
                todo.push(a)
            }
            Op::Cross | Op::Union | Op::Inter | Op::Seq | Op::SetUnion | Op::SetInter => {
                todo.extend([a, b])
            }
            _ => {}
        }
    }
    need
}

impl<'g> RelationAnalysis<'g> {
    /// Computes bounds and active sets for a graph under a model.
    pub fn new(graph: &'g EventGraph, model: &'g CatModel) -> RelationAnalysis<'g> {
        RelationAnalysis::new_with(graph, model, true)
    }

    /// Like [`RelationAnalysis::new`]; `enabled = false` is the
    /// relation-analysis ablation: no alias-based pruning of Table 3, and
    /// every node's active set is its whole upper bound.
    pub fn new_with(
        graph: &'g EventGraph,
        model: &'g CatModel,
        enabled: bool,
    ) -> RelationAnalysis<'g> {
        let facts = GraphFacts::new(graph);
        let d = facts.dims();
        let table = model.nodes();
        let mut a = RelationAnalysis {
            graph,
            table,
            precise: enabled,
            d,
            words: Vec::new(),
            used: 0,
            needs_lower: lower_needs(table),
            base_upper: [NONE; BaseRel::ALL.len()],
            base_lower: [NONE; BaseRel::ALL.len()],
            sets: Vec::with_capacity(BUILTIN_SETS.len()),
            coexist: NONE,
            identity: NONE,
            empty_rel: NONE,
            empty_set: NONE,
            full: NONE,
            below: NONE,
            below_ok: false,
            tmp: [NONE; 4],
            tmp_set: [NONE; 2],
            snapshot: NONE,
            upper: vec![NONE; table.len()],
            lower: vec![NONE; table.len()],
            lower_ok: vec![false; table.len()],
            active: vec![NONE; table.len()],
            demanded: vec![false; table.len()],
        };
        a.words = vec![0; a.arena_words()];
        a.compute_base(&facts);
        a.assign_slots();
        a.compute_upper();
        if enabled {
            a.compute_active(model);
        } else {
            for id in 0..table.len() {
                let len = a.len_of(id);
                a.words
                    .copy_within(a.upper[id]..a.upper[id] + len, a.active[id]);
                a.demanded[id] = true;
            }
        }
        a
    }

    /// The words every slot of the graph takes, so that the arena is
    /// allocated once.
    fn arena_words(&self) -> usize {
        let (rel, set) = (self.d.rel_len(), self.d.set_len());
        let t = self.table;
        let slot = |id: NodeId| if t.node(id).op.is_set() { set } else { rel };
        let mut total = BASE_RELS * rel + BASE_SETS * set + self.snapshot_words();
        for (id, &need) in self.needs_lower.iter().enumerate() {
            total += slot(id);
            if owns_upper(t, id) {
                total += slot(id);
            }
            if need && owns_lower(t.node(id).op) {
                total += slot(id);
            }
        }
        total
    }

    /// Words of the largest `let rec` group's active sets.
    fn snapshot_words(&self) -> usize {
        self.table
            .groups()
            .iter()
            .map(|&(first, last)| (first..=last).map(|id| self.len_of(id)).sum::<usize>())
            .max()
            .unwrap_or(0)
    }

    /// The next `len` words of the arena. Only a lower bound asked for
    /// outside [`lower_needs`] (a diagnostic) grows it.
    fn alloc(&mut self, len: usize) -> usize {
        let at = self.used;
        self.used += len;
        if self.used > self.words.len() {
            self.words.resize(self.used, 0);
        }
        at
    }

    fn rel(&self, at: usize) -> RelView<'_> {
        RelView::new(self.d, &self.words[at..at + self.d.rel_len()])
    }

    fn set_view(&self, at: usize) -> SetView<'_> {
        SetView::new(self.d, &self.words[at..at + self.d.set_len()])
    }

    /// Words of node `id`'s slots.
    fn len_of(&self, id: NodeId) -> usize {
        if self.table.node(id).op.is_set() {
            self.d.set_len()
        } else {
            self.d.rel_len()
        }
    }

    /// `out = f(a, b)` over `len` words; `out` must differ from both.
    fn binary(
        &mut self,
        f: fn(&mut [u64], &[u64], &[u64]),
        out: usize,
        a: usize,
        b: usize,
        len: usize,
    ) {
        let (slot, src) = split(&mut self.words, out, len);
        f(slot, src.get(a, len), src.get(b, len));
    }

    /// `out = f(a)` over `len` words; `out` must differ from `a`.
    fn unary(&mut self, f: fn(&mut [u64], &[u64]), out: usize, a: usize, len: usize) {
        let (slot, src) = split(&mut self.words, out, len);
        f(slot, src.get(a, len));
    }

    /// A relation kernel `out = f(a)`; `out` must differ from `a`.
    fn rel_unary(&mut self, f: fn(Dims, &mut [u64], &[u64]), out: usize, a: usize) {
        let (d, len) = (self.d, self.d.rel_len());
        let (slot, src) = split(&mut self.words, out, len);
        f(d, slot, src.get(a, len));
    }

    /// A set of relation `a`'s events, `out = f(a)`.
    fn rel_to_set(&mut self, f: fn(Dims, &mut [u64], &[u64]), out: usize, a: usize) {
        let d = self.d;
        let (slot, src) = split(&mut self.words, out, d.set_len());
        f(d, slot, src.get(a, d.rel_len()));
    }

    fn copy(&mut self, from: usize, to: usize, len: usize) {
        self.words.copy_within(from..from + len, to);
    }

    /// Static members of a base set.
    pub fn set(&self, name: &str) -> Option<SetView<'_>> {
        let i = BUILTIN_SETS.iter().position(|&s| s == name)?;
        Some(self.set_view(self.sets[i]))
    }

    /// Upper bound of a base relation.
    pub fn base_upper(&self, name: &str) -> Option<RelView<'_>> {
        Some(self.upper_of(BaseRel::from_name(name)?))
    }

    /// Lower bound of a base relation.
    pub fn base_lower(&self, name: &str) -> Option<RelView<'_>> {
        Some(self.rel(self.base_lower[BaseRel::from_name(name)?.index()]))
    }

    /// Upper bound of base relation `r`.
    pub(crate) fn upper_of(&self, r: BaseRel) -> RelView<'_> {
        self.rel(self.base_upper[r.index()])
    }

    /// Upper bound of a relation-kinded definition.
    pub fn def_upper(&self, id: DefId) -> Option<RelView<'_>> {
        let root = self.table.def_root(id);
        (!self.is_set(root)).then(|| self.rel(self.upper[root]))
    }

    /// Lower bound of a relation-kinded definition (for a recursive one,
    /// that of its body with the group read as empty), computed on first
    /// request.
    pub fn def_lower(&mut self, id: DefId) -> Option<RelView<'_>> {
        let root = self.table.def_root(id);
        if self.is_set(root) {
            return None;
        }
        let at = self.lower_of(root);
        Some(self.rel(at))
    }

    /// Upper bound of a set-kinded definition.
    pub fn def_set(&self, id: DefId) -> Option<SetView<'_>> {
        let root = self.table.def_root(id);
        self.is_set(root).then(|| self.set_view(self.upper[root]))
    }

    /// Lower bound of a set-kinded definition, computed on first request.
    pub fn def_set_lower(&mut self, id: DefId) -> Option<SetView<'_>> {
        let root = self.table.def_root(id);
        if !self.is_set(root) {
            return None;
        }
        let at = self.lower_of(root);
        Some(self.set_view(at))
    }

    // -- the node table, for the encoder ----------------------------------

    /// Number of model nodes.
    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    pub(crate) fn op(&self, id: NodeId) -> Op {
        self.table.node(id).op
    }

    pub(crate) fn kids(&self, id: NodeId) -> [NodeId; 2] {
        self.table.node(id).kids
    }

    pub(crate) fn is_set(&self, id: NodeId) -> bool {
        self.op(id).is_set()
    }

    /// Whether node `id` is the root of a `let rec` definition.
    pub(crate) fn is_rec_root(&self, id: NodeId) -> bool {
        self.table.is_rec_root(id)
    }

    /// The pairs of relation node `id` to encode: its active set, which
    /// lies within its upper bound (`None` while nothing is demanded).
    pub(crate) fn active_rel(&self, id: NodeId) -> Option<RelView<'_>> {
        (self.demanded[id] && !self.is_set(id)).then(|| self.rel(self.active[id]))
    }

    /// The members of set node `id` to encode (`None` while nothing is
    /// demanded).
    pub(crate) fn active_set(&self, id: NodeId) -> Option<SetView<'_>> {
        (self.demanded[id] && self.is_set(id)).then(|| self.set_view(self.active[id]))
    }

    pub(crate) fn def_root(&self, id: DefId) -> NodeId {
        self.table.def_root(id)
    }

    pub(crate) fn axiom_root(&self, index: usize) -> NodeId {
        self.table.axiom_root(index)
    }

    /// The node whose encoding holds the value of node `id` (see
    /// [`NodeTable::value_node`]).
    pub(crate) fn value_node(&self, id: NodeId) -> NodeId {
        self.table.value_node(id)
    }

    /// Whether the model mentions base relation `r`.
    pub(crate) fn mentions(&self, r: BaseRel) -> bool {
        self.table.mentions(r)
    }

    /// The upper bound of relation node `id`.
    #[cfg(test)]
    fn upper_rel(&self, id: NodeId) -> RelView<'_> {
        self.rel(self.upper[id])
    }

    // -- base sets and relations ------------------------------------------

    fn compute_base(&mut self, facts: &GraphFacts) {
        let g = self.graph;
        let d = self.d;
        let (n, w, rel_len) = (d.n, d.w, d.rel_len());
        self.empty_rel = self.alloc(rel_len);
        self.identity = self.alloc(rel_len);
        arena::identity(d, &mut self.words[self.identity..][..rel_len]);
        self.coexist = self.alloc(rel_len);
        self.below = self.alloc(rel_len);
        self.tmp = [0; 4].map(|_| self.alloc(rel_len));
        self.empty_set = self.alloc(w);
        self.full = self.alloc(w);
        arena::full_set(d, &mut self.words[self.full..][..w]);
        self.tmp_set = [0; 2].map(|_| self.alloc(w));
        for i in 0..BUILTIN_SETS.len() {
            let at = self.alloc(w);
            self.words[at..at + w].copy_from_slice(facts.set(i));
            self.sets.push(at);
        }
        for a in 0..n {
            for b in 0..n {
                if g.can_coexist(EventId(a as u32), EventId(b as u32)) {
                    self.words[self.coexist + a * w + b / 64] |= 1 << (b % 64);
                }
            }
        }

        // Relations the graph fixes: upper = lower. Those defined on
        // pairs of events hold on distinct coexisting events; the
        // dependencies hold as the program states them.
        for r in FIXED_RELS {
            let at = self.alloc(rel_len);
            let (slot, src) = split(&mut self.words, at, rel_len);
            slot.copy_from_slice(facts.rel(r));
            if !matches!(r, BaseRel::Addr | BaseRel::Data | BaseRel::Ctrl) {
                arena::inter_with(slot, src.get(self.coexist, rel_len));
                arena::diff_with(slot, src.get(self.identity, rel_len));
            }
            self.base_upper[r.index()] = at;
            self.base_lower[r.index()] = at;
        }

        // The aliasing and barrier relations, from per-event attributes.
        let tags = &facts.tags;
        let has = |e: usize, t: Tag| tags[e].contains(t);
        let vloc: Vec<_> = (0..n).map(|e| g.virtual_loc(EventId(e as u32))).collect();
        let root: Vec<_> = vloc.iter().map(|l| l.map(|l| g.physical_root(l))).collect();
        let index: Vec<_> = (0..n)
            .map(|e| g.static_addr(EventId(e as u32)).map(|(_, i)| i))
            .collect();
        let bar_id: Vec<Option<u64>> = g
            .events()
            .iter()
            .map(|e| match &e.kind {
                EventKind::Barrier { id, .. } => id.as_const(),
                _ => None,
            })
            .collect();
        let may_alias = |a: usize, b: usize| {
            root[a].is_some()
                && root[a] == root[b]
                && match (index[a], index[b]) {
                    (Some(x), Some(y)) => x == y,
                    _ => true, // a dynamic index may equal anything
                }
        };
        let must_alias = |a: usize, b: usize| {
            root[a].is_some()
                && root[a] == root[b]
                && matches!((index[a], index[b]), (Some(x), Some(y)) if x == y)
        };
        // Same declared name and element; an init write belongs to every
        // virtual address of its storage.
        let same_virtual = |a: usize, b: usize| match (vloc[a], vloc[b]) {
            (Some(la), Some(lb)) if la == lb => {
                matches!((index[a], index[b]), (Some(x), Some(y)) if x == y)
            }
            (Some(_), Some(_)) => (has(a, Tag::IW) || has(b, Tag::IW)) && may_alias(a, b),
            _ => false,
        };
        // In ablation mode (`!precise`) the may-alias pruning is skipped:
        // every memory pair stays in the upper bounds, except that vloc
        // still requires the same declared name. That condition is what
        // sets vloc apart from loc (the encoder only adds address
        // equality), so it is semantics, not pruning.
        let precise = self.precise;
        let alias = |a: usize, b: usize| !precise || may_alias(a, b);
        let memory = |e: usize| has(e, Tag::R) || has(e, Tag::W);

        // Over distinct coexisting pairs. rf is a decision relation with
        // no lower bound; co's lower bound holds the init-first edges.
        let [loc_u, loc_l, vloc_u, vloc_l, rf_u, co_u, co_l, bar_u, bar_l] =
            [0; 9].map(|_| self.alloc(rel_len));
        let mut row = vec![0u64; w];
        for a in 0..n {
            row.copy_from_slice(&self.words[self.coexist + a * w..][..w]);
            for b in arena::set_bits(&row) {
                if a == b {
                    continue;
                }
                let words = &mut self.words;
                let mut put = |at: usize| words[at + a * w + b / 64] |= 1 << (b % 64);
                if memory(a) && memory(b) {
                    if alias(a, b) {
                        put(loc_u);
                    }
                    if must_alias(a, b) {
                        put(loc_l);
                    }
                    let iw = has(a, Tag::IW) || has(b, Tag::IW);
                    if alias(a, b) && (iw || vloc[a] == vloc[b]) {
                        put(vloc_u);
                    }
                }
                if same_virtual(a, b) {
                    put(vloc_l);
                }
                if has(a, Tag::W) && has(b, Tag::R) && alias(a, b) {
                    put(rf_u);
                }
                if has(a, Tag::W) && has(b, Tag::W) && !has(b, Tag::IW) {
                    if alias(a, b) {
                        put(co_u);
                    }
                    if has(a, Tag::IW) && must_alias(a, b) {
                        put(co_l);
                    }
                }
                // Barriers (Table 3 rows 3-4): ids may be dynamic, so the
                // bounds differ when a static comparison is impossible.
                if has(a, Tag::B) && has(b, Tag::B) {
                    match (bar_id[a], bar_id[b]) {
                        (Some(x), Some(y)) if x == y => {
                            put(bar_u);
                            put(bar_l);
                        }
                        (Some(_), Some(_)) => {}
                        _ => put(bar_u),
                    }
                }
            }
        }
        for (r, u, l) in [
            (BaseRel::Loc, loc_u, loc_l),
            (BaseRel::Vloc, vloc_u, vloc_l),
            (BaseRel::Rf, rf_u, self.empty_rel),
            (BaseRel::Co, co_u, co_l),
            (BaseRel::Syncbar, bar_u, bar_l),
        ] {
            self.base_upper[r.index()] = u;
            self.base_lower[r.index()] = l;
        }

        // sync_barrier: syncbar within one CTA.
        let [scta_refl, sb_u, sb_l, fence_u] = [0; 4].map(|_| self.alloc(rel_len));
        self.copy(self.base_upper[BaseRel::Scta.index()], scta_refl, rel_len);
        arena::reflexive(d, &mut self.words[scta_refl..][..rel_len]);
        self.binary(arena::inter, sb_u, bar_u, scta_refl, rel_len);
        self.binary(arena::inter, sb_l, bar_l, scta_refl, rel_len);
        self.base_upper[BaseRel::SyncBarrier.index()] = sb_u;
        self.base_lower[BaseRel::SyncBarrier.index()] = sb_l;

        // sync_fence (Table 3 row 5): no lower bound; the upper bound is
        // the sr-related SC fence pairs.
        let fences = self.tmp_set[0];
        let (f, sc) = (GraphFacts::set_index("F"), GraphFacts::set_index("SC"));
        self.binary(arena::inter, fences, self.sets[f], self.sets[sc], w);
        {
            let (slot, src) = split(&mut self.words, fence_u, rel_len);
            let fences = src.get(fences, w);
            arena::cross(d, slot, fences, fences);
            arena::inter_with(slot, src.get(self.base_upper[BaseRel::Sr.index()], rel_len));
        }
        self.base_upper[BaseRel::SyncFence.index()] = fence_u;
        self.base_lower[BaseRel::SyncFence.index()] = self.empty_rel;
    }

    // -- upper bounds of the model nodes ----------------------------------

    /// Gives each node its upper-bound and active-set slots, and the
    /// nodes that need one their lower-bound slot.
    fn assign_slots(&mut self) {
        let t = self.table;
        for id in 0..t.len() {
            if owns_upper(t, id) {
                self.upper[id] = self.alloc(self.len_of(id));
            }
        }
        for id in 0..t.len() {
            self.upper[id] = match t.node(id).op {
                _ if owns_upper(t, id) => self.upper[id],
                Op::Base(Some(r)) => self.base_upper[r.index()],
                Op::Base(None) => self.empty_rel,
                Op::Tag(Some(i)) => self.sets[usize::from(i)],
                Op::Tag(None) => self.empty_set,
                Op::Id => self.identity,
                Op::Universe => self.full,
                // Definitions precede their users, except inside a `let
                // rec` group, whose roots all own a slot.
                Op::Ref(d) | Op::SetRef(d) => self.upper[t.def_root(d)],
                _ => unreachable!("every other node owns its upper bound"),
            };
        }
        for id in 0..t.len() {
            self.active[id] = self.alloc(self.len_of(id));
        }
        for id in 0..t.len() {
            if self.needs_lower[id] && owns_lower(t.node(id).op) {
                self.lower[id] = self.alloc(self.len_of(id));
            }
        }
        self.snapshot = self.alloc(self.snapshot_words());
    }

    /// Upper bounds bottom-up. A `let rec` group is recorded once (a
    /// member not recorded yet reads as empty) and then iterated until
    /// no upper bound in it changes, before any later node reads it.
    /// Recursive definitions keep an empty lower bound.
    fn compute_upper(&mut self) {
        let t = self.table;
        let mut next = 0;
        for &(first, last) in t.groups() {
            for id in next..first {
                let out = self.upper[id];
                self.eval_upper(id, out);
            }
            // Round 0 records the group; later rounds look for a change.
            for round in 0.. {
                let mut changed = false;
                for id in first..=last {
                    self.lower_ok[id] = false;
                }
                for id in first..=last {
                    if !owns_upper(t, id) {
                        continue;
                    }
                    let (len, tmp) = (self.len_of(id), self.tmp[3]);
                    self.eval_upper(id, tmp);
                    let up = self.upper[id];
                    if self.words[tmp..tmp + len] != self.words[up..up + len] {
                        self.copy(tmp, up, len);
                        changed = true;
                    }
                }
                if round > 0 && !changed {
                    break;
                }
            }
            next = last + 1;
        }
        for id in next..t.len() {
            let out = self.upper[id];
            self.eval_upper(id, out);
        }
    }

    /// The upper bound of node `id` from its operands' bounds, into slot
    /// `out` (no-op for nodes that name another slot).
    fn eval_upper(&mut self, id: NodeId, out: usize) {
        let node = self.table.node(id);
        let [a, b] = node.kids;
        let d = self.d;
        let (rel, set) = (d.rel_len(), d.set_len());
        match node.op {
            Op::Base(_) | Op::Tag(_) | Op::Id | Op::Universe => {}
            Op::Ref(def) | Op::SetRef(def) => {
                if owns_upper(self.table, id) {
                    let from = self.upper[self.table.def_root(def)];
                    self.copy(from, out, self.len_of(id));
                }
            }
            // upper(a \ b) = upper(a) \ lower(b).
            Op::Diff | Op::SetDiff => {
                let lb = self.lower_of(b);
                self.binary(arena::diff, out, self.upper[a], lb, self.len_of(id));
            }
            Op::IdSet => {
                let (slot, src) = split(&mut self.words, out, rel);
                arena::identity_on(d, slot, src.get(self.upper[a], set));
            }
            Op::Cross => {
                let (slot, src) = split(&mut self.words, out, rel);
                arena::cross(
                    d,
                    slot,
                    src.get(self.upper[a], set),
                    src.get(self.upper[b], set),
                );
                arena::inter_with(slot, src.get(self.coexist, rel));
            }
            Op::Union | Op::SetUnion => self.binary(
                arena::union,
                out,
                self.upper[a],
                self.upper[b],
                self.len_of(id),
            ),
            Op::Inter | Op::SetInter => self.binary(
                arena::inter,
                out,
                self.upper[a],
                self.upper[b],
                self.len_of(id),
            ),
            Op::Seq => {
                let (slot, src) = split(&mut self.words, out, rel);
                arena::compose(
                    d,
                    slot,
                    src.get(self.upper[a], rel),
                    src.get(self.upper[b], rel),
                );
                arena::inter_with(slot, src.get(self.coexist, rel));
            }
            Op::Inverse => self.rel_unary(arena::inverse, out, self.upper[a]),
            Op::Plus | Op::Star | Op::Opt => {
                self.copy(self.upper[a], out, rel);
                let slot = &mut self.words[out..out + rel];
                if node.op != Op::Opt {
                    arena::close(d, slot);
                }
                if node.op != Op::Plus {
                    arena::reflexive(d, slot);
                }
            }
            Op::Domain => self.rel_to_set(arena::domain, out, self.upper[a]),
            Op::Range => self.rel_to_set(arena::range, out, self.upper[a]),
        }
    }

    /// The slot of node `id`'s lower bound, computed on first use.
    fn lower_of(&mut self, id: NodeId) -> usize {
        if self.lower_ok[id] {
            return self.lower[id];
        }
        let node = self.table.node(id);
        let [a, b] = node.kids;
        let d = self.d;
        let (rel, set) = (d.rel_len(), d.set_len());
        let at = match node.op {
            Op::Base(Some(r)) => self.base_lower[r.index()],
            Op::Base(None) => self.empty_rel,
            // A tag set is exact: an executed event is a member iff tagged.
            Op::Tag(_) => self.upper[id],
            Op::Ref(def) | Op::SetRef(def) if !self.table.is_recursive(def) => {
                self.lower_of(self.table.def_root(def))
            }
            Op::Ref(_) | Op::SetRef(_) => self.empty_rel,
            Op::Id => self.identity,
            // A closure holds at least its body (conservative).
            Op::Plus => self.lower_of(a),
            // Whether an event has a successor depends on other events
            // executing: no guarantee.
            Op::Domain | Op::Range => self.empty_set,
            Op::Universe => self.full,
            op => {
                if self.lower[id] == NONE {
                    self.lower[id] = self.alloc(self.len_of(id));
                }
                let out = self.lower[id];
                match op {
                    // lower(a \ b) = lower(a) \ upper(b).
                    Op::Diff | Op::SetDiff => {
                        let la = self.lower_of(a);
                        self.binary(arena::diff, out, la, self.upper[b], self.len_of(id));
                    }
                    Op::IdSet => {
                        let la = self.lower_of(a);
                        let (slot, src) = split(&mut self.words, out, rel);
                        arena::identity_on(d, slot, src.get(la, set));
                    }
                    Op::Inverse => {
                        let la = self.lower_of(a);
                        self.rel_unary(arena::inverse, out, la);
                    }
                    Op::Star | Op::Opt => {
                        let la = self.lower_of(a);
                        self.copy(la, out, rel);
                        arena::reflexive(d, &mut self.words[out..out + rel]);
                    }
                    _ => {
                        let (la, lb) = (self.lower_of(a), self.lower_of(b));
                        match op {
                            Op::Cross => {
                                let (slot, src) = split(&mut self.words, out, rel);
                                arena::cross(d, slot, src.get(la, set), src.get(lb, set));
                                arena::inter_with(slot, src.get(self.coexist, rel));
                            }
                            Op::Union | Op::SetUnion => {
                                self.binary(arena::union, out, la, lb, self.len_of(id))
                            }
                            Op::Inter | Op::SetInter => {
                                self.binary(arena::inter, out, la, lb, self.len_of(id))
                            }
                            Op::Seq => self.guaranteed_compose(out, la, lb),
                            _ => unreachable!("handled above"),
                        }
                    }
                }
                out
            }
        };
        self.lower[id] = at;
        self.lower_ok[id] = true;
        at
    }

    /// Lower-bound composition into `out`: the midpoint `m` of `a(x, m)`
    /// and `b(m, y)` must execute whenever both endpoints do (init block
    /// or an ancestor block of one endpoint).
    fn guaranteed_compose(&mut self, out: usize, a: usize, b: usize) {
        let g = self.graph;
        let d = self.d;
        let (n, w, rel) = (d.n, d.w, d.rel_len());
        if !self.below_ok {
            let block: Vec<_> = g.events().iter().map(|e| e.block).collect();
            for m in 0..n {
                for y in 0..n {
                    if g.is_ancestor(block[m], block[y]) {
                        self.words[self.below + m * w + y / 64] |= 1 << (y % 64);
                    }
                }
            }
            self.below_ok = true;
        }
        let (slot, src) = split(&mut self.words, out, rel);
        let (la, lb) = (src.get(a, rel), src.get(b, rel));
        let (coexist, below) = (src.get(self.coexist, rel), src.get(self.below, rel));
        slot.fill(0);
        for x in 0..n {
            let out_row = &mut slot[x * w..(x + 1) * w];
            for m in arena::set_bits(&la[x * w..(x + 1) * w]) {
                let below_m = &below[m * w..(m + 1) * w];
                // `m` executes with `x` (its block is 0 or above `x`'s):
                // every successor counts; otherwise only those below `m`.
                let all = g.events()[m].block == 0 || below_m[x / 64] >> (x % 64) & 1 == 1;
                for k in 0..w {
                    let mut y = lb[m * w + k] & coexist[x * w + k];
                    if !all {
                        y &= below_m[k];
                    }
                    out_row[k] |= y;
                }
            }
        }
    }

    // -- active sets -------------------------------------------------------

    /// Seeds every axiom with the pairs it can observe, then walks the
    /// nodes from the last to the first, each asking its operands only
    /// for the pairs that can change its own active pairs. All users of
    /// a node come after it, except inside a `let rec` group, which is
    /// iterated to a fixpoint.
    fn compute_active(&mut self, model: &CatModel) {
        let d = self.d;
        let rel = d.rel_len();
        let [t0, t1, _, _] = self.tmp;
        for (k, axiom) in model.axioms().iter().enumerate() {
            let root = self.table.axiom_root(k);
            let upper = self.upper[root];
            let seed = match axiom.kind {
                _ if axiom.flagged || axiom.negated => upper,
                AxiomKind::Empty => upper,
                AxiomKind::Irreflexive => {
                    self.binary(arena::inter, t0, upper, self.identity, rel);
                    t0
                }
                // A pair can close a cycle only if it lies on a cycle of
                // the upper bound: (a, b) with b reaching a.
                AxiomKind::Acyclic => {
                    self.copy(upper, t0, rel);
                    arena::close(d, &mut self.words[t0..t0 + rel]);
                    self.rel_unary(arena::inverse, t1, t0);
                    self.unary(arena::inter_with, t1, upper, rel);
                    t1
                }
            };
            self.demand(root, seed);
        }
        let groups = self.table.groups();
        let mut id = self.table.len();
        let mut demanded = Vec::new();
        while id > 0 {
            id -= 1;
            let Some(&(first, last)) = groups.iter().find(|g| g.1 == id) else {
                self.push_down(id);
                continue;
            };
            let region = self.active[first]..self.active[last] + self.len_of(last);
            loop {
                self.words.copy_within(region.clone(), self.snapshot);
                demanded.clear();
                demanded.extend_from_slice(&self.demanded[first..=last]);
                for k in (first..=last).rev() {
                    self.push_down(k);
                }
                let now = &self.words[region.clone()];
                let before = &self.words[self.snapshot..self.snapshot + now.len()];
                if now == before && demanded[..] == self.demanded[first..=last] {
                    break;
                }
            }
            id = first;
        }
    }

    /// Adds the pairs of slot `want` that lie in node `id`'s upper bound
    /// to its active set.
    fn demand(&mut self, id: NodeId, want: usize) {
        let len = self.len_of(id);
        let (slot, src) = split(&mut self.words, self.active[id], len);
        let (want, upper) = (src.get(want, len), src.get(self.upper[id], len));
        if want.iter().zip(upper).all(|(x, u)| x & u == 0) {
            return;
        }
        for ((o, x), u) in slot.iter_mut().zip(want).zip(upper) {
            *o |= x & u;
        }
        self.demanded[id] = true;
    }

    /// Propagates node `id`'s active set to its operands.
    fn push_down(&mut self, id: NodeId) {
        if !self.demanded[id] {
            return;
        }
        let d = self.d;
        let node = self.table.node(id);
        let [a, b] = node.kids;
        let act = self.active[id];
        let [t0, t1, _, _] = self.tmp;
        let [s0, s1] = self.tmp_set;
        match node.op {
            Op::Base(_) | Op::Id | Op::Tag(_) | Op::Universe => {}
            Op::Ref(def) | Op::SetRef(def) => self.demand(self.table.def_root(def), act),
            Op::IdSet => {
                self.rel_to_set(arena::diagonal, s0, act);
                self.demand(a, s0);
            }
            Op::Cross => {
                self.rel_to_set(arena::domain, s0, act);
                self.rel_to_set(arena::range, s1, act);
                self.demand(a, s0);
                self.demand(b, s1);
            }
            Op::Union | Op::Inter | Op::Diff | Op::SetUnion | Op::SetInter | Op::SetDiff => {
                self.demand(a, act);
                self.demand(b, act);
            }
            // (x, m) and (m, c) only matter when they meet in an active
            // (x, c).
            Op::Seq => {
                self.rel_unary(arena::inverse, t0, self.upper[b]);
                self.binary_rel(arena::compose, t1, act, t0);
                self.demand(a, t1);
                self.rel_unary(arena::inverse, t0, self.upper[a]);
                self.binary_rel(arena::compose, t1, t0, act);
                self.demand(b, t1);
            }
            Op::Inverse => {
                self.rel_unary(arena::inverse, t0, act);
                self.demand(a, t0);
            }
            // `r?` encodes its diagonal as true.
            Op::Opt => {
                self.binary(arena::diff, t0, act, self.identity, d.rel_len());
                self.demand(a, t0);
            }
            Op::Plus | Op::Star => self.closure_demand(id),
            Op::Domain => {
                self.cross_into(t0, act, self.full);
                self.demand(a, t0);
            }
            Op::Range => {
                self.cross_into(t0, self.full, act);
                self.demand(a, t0);
            }
        }
    }

    /// A relation kernel `out = f(a, b)`; `out` must differ from both.
    fn binary_rel(
        &mut self,
        f: fn(Dims, &mut [u64], &[u64], &[u64]),
        out: usize,
        a: usize,
        b: usize,
    ) {
        let (d, len) = (self.d, self.d.rel_len());
        let (slot, src) = split(&mut self.words, out, len);
        f(d, slot, src.get(a, len), src.get(b, len));
    }

    fn cross_into(&mut self, out: usize, a: usize, b: usize) {
        let (d, set) = (self.d, self.d.set_len());
        let (slot, src) = split(&mut self.words, out, d.rel_len());
        arena::cross(d, slot, src.get(a, set), src.get(b, set));
    }

    /// Sets the active set of closure node `id` and demands its body.
    ///
    /// `r+` is encoded right-linearly, `var(x, y)` standing for `r(x, y)
    /// ∨ ∃m ≠ x. var(x, m) ∧ r(m, y)` in the closure's polarity. An
    /// active `(x, y)` needs `var(x, m)` for every `m` on a path from `x`
    /// to `y`, and these variables are closed under their own supports.
    /// `r*` encodes its diagonal as true, so only its off-diagonal pairs
    /// need variables.
    fn closure_demand(&mut self, id: NodeId) {
        let d = self.d;
        let rel = d.rel_len();
        let (upper, act, id_rel) = (self.upper[id], self.active[id], self.identity);
        let star = self.table.node(id).op == Op::Star;
        let [want, t1, vars, body] = self.tmp;
        if star {
            self.binary(arena::diff, want, act, id_rel, rel);
        } else {
            self.copy(act, want, rel);
        }
        // (x, m) with m = y or m reaching y, for an active (x, y).
        self.rel_unary(arena::inverse, t1, upper);
        self.binary_rel(arena::compose, vars, want, t1);
        {
            let (slot, src) = split(&mut self.words, vars, rel);
            arena::union_with(slot, src.get(want, rel));
            arena::inter_with(slot, src.get(upper, rel));
            // A diagonal variable is never a support; keep it only when
            // active itself.
            arena::diff_with(slot, src.get(id_rel, rel));
            let (w, i) = (src.get(want, rel), src.get(id_rel, rel));
            for ((o, x), y) in slot.iter_mut().zip(w).zip(i) {
                *o |= x & y;
            }
        }
        // Body pairs (u, v) some var(x, v) uses: u = x, or var(x, u).
        self.rel_unary(arena::inverse, t1, vars);
        self.binary_rel(arena::compose, body, t1, vars);
        self.unary(arena::union_with, body, vars, rel);
        if star {
            let (slot, src) = split(&mut self.words, vars, rel);
            let (x, i) = (src.get(act, rel), src.get(id_rel, rel));
            for ((o, x), y) in slot.iter_mut().zip(x).zip(i) {
                *o |= x & y;
            }
        }
        self.copy(vars, act, rel);
        self.demanded[id] = true;
        self.demand(self.table.node(id).kids[0], body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumc_ir::{compile, unroll};

    /// The pairs of definition `id` some axiom can observe.
    fn def_active<'a>(a: &'a RelationAnalysis<'_>, id: DefId) -> Option<RelView<'a>> {
        a.active_rel(a.def_root(id))
    }

    fn mp_graph() -> EventGraph {
        let src = r#"
PTX MP
{ x = 0; flag = 0; }
P0@cta 0,gpu 0          | P1@cta 1,gpu 0 ;
st.relaxed.gpu x, 1     | ld.acquire.gpu r0, flag ;
st.release.gpu flag, 1  | ld.relaxed.gpu r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#;
        let p = gpumc_litmus::parse(src).unwrap();
        compile(&unroll(&p, 1).unwrap())
    }

    #[test]
    fn static_relations_have_equal_bounds() {
        let g = mp_graph();
        let model = gpumc_cat::parse("let x = po | sr | scta\nacyclic x").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        for name in [
            "po", "sr", "scta", "int", "ext", "rmw", "addr", "data", "ctrl",
        ] {
            assert_eq!(
                a.base_upper(name),
                a.base_lower(name),
                "{name} bounds must coincide"
            );
        }
    }

    #[test]
    fn rf_upper_respects_aliasing() {
        let g = mp_graph();
        let model = gpumc_cat::parse("acyclic rf").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let rf = a.base_upper("rf").unwrap();
        // Each read can read from exactly: the init write and the one
        // store to its location.
        for (w, r) in rf.iter() {
            assert!(g.may_alias(w, r));
            assert!(g.event(w).tags.contains(Tag::W));
            assert!(g.event(r).tags.contains(Tag::R));
        }
        assert_eq!(rf.len(), 4);
        assert!(a.base_lower("rf").unwrap().is_empty());
    }

    #[test]
    fn co_lower_contains_init_edges() {
        let g = mp_graph();
        let model = gpumc_cat::parse("acyclic co").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let lower = a.base_lower("co").unwrap();
        assert_eq!(lower.len(), 2, "IW -> store for each location");
        let upper = a.base_upper("co").unwrap();
        assert!(upper.len() >= lower.len());
        for (x, y) in upper.iter() {
            assert!(!g.event(y).tags.contains(Tag::IW), "nothing co-before init");
            let _ = x;
        }
    }

    #[test]
    fn sr_uses_instruction_scopes() {
        let g = mp_graph();
        let model = gpumc_cat::parse("acyclic sr").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let sr = a.base_upper("sr").unwrap();
        // Both threads use .gpu scope and share gpu 0: all cross/intra
        // pairs of scoped events are sr-related.
        assert!(!sr.is_empty());
        // scta only relates same-CTA events; threads are in different CTAs.
        let scta = a.base_upper("scta").unwrap();
        for (x, y) in scta.iter() {
            assert_eq!(g.event(x).thread, g.event(y).thread);
        }
    }

    #[test]
    fn derived_upper_bounds_propagate() {
        let g = mp_graph();
        let model =
            gpumc_cat::parse("let fr = rf^-1; co\nlet com = rf | co | fr\nacyclic com | po")
                .unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let com_id = model.def_id("com").unwrap();
        let com = a.def_upper(com_id).unwrap();
        let fr_id = model.def_id("fr").unwrap();
        let fr = a.def_upper(fr_id).unwrap();
        assert!(!fr.is_empty());
        for (x, y) in fr.iter() {
            assert!(com.contains(x, y), "fr ⊆ com");
        }
    }

    #[test]
    fn diff_uses_opposite_bound() {
        // co \ co over bounds: upper(a\b) = upper(a) \ lower(b) keeps the
        // unordered write pairs, while the exact value would be empty.
        let g = mp_graph();
        let model = gpumc_cat::parse("let x = co \\ co\nacyclic x").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let x = a.def_upper(model.def_id("x").unwrap()).unwrap();
        // IW→store edges are in the lower bound, so they disappear;
        // store-store pairs (same loc) remain possible... but MP has one
        // store per location, so x is empty here.
        assert!(x.len() <= a.base_upper("co").unwrap().len());
    }

    #[test]
    fn recursive_group_bounds_reach_fixpoint() {
        let g = mp_graph();
        let model = gpumc_cat::parse("let rec obs = rf | (obs; rmw; obs)\nacyclic obs").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let obs = a.def_upper(model.def_id("obs").unwrap()).unwrap();
        let rf = a.base_upper("rf").unwrap();
        for (x, y) in rf.iter() {
            assert!(obs.contains(x, y));
        }
    }

    #[test]
    fn definitions_after_a_recursive_group_see_its_fixpoint() {
        // In both PTX models `sync` reads `observation`, a `let rec`. Its
        // upper bound must be taken after the group's fixpoint: release/
        // acquire MP synchronizes through the flag.
        let g = mp_graph();
        let model = gpumc_models::ptx60();
        let a = RelationAnalysis::new(&g, &model);
        let sync = a.def_upper(model.def_id("sync").unwrap()).unwrap();
        let event = |kind: Tag, thread: usize| {
            g.events()
                .iter()
                .find(|e| e.thread == Some(thread) && e.tags.contains(kind))
                .map(|e| e.id)
        };
        let release = g
            .events()
            .iter()
            .find(|e| e.tags.contains(Tag::W) && e.tags.contains(Tag::REL))
            .map(|e| e.id)
            .expect("release write");
        let acquire = event(Tag::ACQ, 1).expect("acquire read");
        assert!(
            sync.contains(release, acquire),
            "sync upper bound misses (release write, acquire read)"
        );
    }

    #[test]
    fn a_definition_that_names_itself_is_empty() {
        let g = mp_graph();
        let model = gpumc_cat::parse("let rec a = a\nacyclic a | po\nempty a").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let id = model.def_id("a").unwrap();
        // The upper bound stays empty, so nothing of `a` is demanded and
        // the push-down never passes its self-naming root's active set on
        // to itself.
        assert!(a.def_upper(id).unwrap().is_empty());
        assert!(def_active(&a, id).is_none());
        // The witness is re-checked by the interpreter, which reads the
        // same self-naming root.
        let mut enc = crate::encode(&g, &model, &Default::default()).unwrap();
        assert!(enc.find_assertion_witness().unwrap().found);
    }

    #[test]
    fn a_leaf_can_be_the_first_node() {
        let g = mp_graph();
        let model = gpumc_cat::parse("let u = _\nirreflexive [u]; po").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        assert_eq!(
            a.def_set(model.def_id("u").unwrap()).unwrap().len(),
            g.n_events()
        );
    }

    #[test]
    fn active_sets_lie_within_upper_bounds() {
        let g = mp_graph();
        for model in [
            gpumc_models::ptx60(),
            gpumc_models::ptx75(),
            gpumc_models::vulkan(),
        ] {
            let a = RelationAnalysis::new(&g, &model);
            for id in 0..a.len() {
                let (active, upper) = match (a.active_rel(id), a.active_set(id)) {
                    (Some(r), _) => (r.to_relation(), a.upper_rel(id).to_relation()),
                    (_, Some(s)) => {
                        let upper = a.set_view(a.upper[id]);
                        assert!(s.iter().all(|e| upper.contains(e)), "{:?}", a.op(id));
                        continue;
                    }
                    _ => continue,
                };
                assert_eq!(active.inter(&upper), active, "{:?}", a.op(id));
            }
        }
    }

    #[test]
    fn unobserved_definitions_have_empty_active_sets() {
        let g = mp_graph();
        let model = gpumc_cat::parse("let unused = po; rf\nlet fr = rf^-1; co\nirreflexive fr; rf")
            .unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let unused = model.def_id("unused").unwrap();
        assert!(!a.def_upper(unused).unwrap().is_empty());
        assert!(def_active(&a, unused).is_none());
        // `irreflexive` observes the diagonal only: fr is asked for the
        // pairs an rf edge can lead back from.
        let fr = model.def_id("fr").unwrap();
        let active = def_active(&a, fr).unwrap();
        assert!(!active.is_empty());
        let rf = a.base_upper("rf").unwrap();
        for (x, y) in active.iter() {
            assert!(rf.contains(y, x), "({}, {}) cannot close a cycle", x.0, y.0);
        }
        // The ablation encodes every pair of the upper bound.
        let full = RelationAnalysis::new_with(&g, &model, false);
        assert_eq!(def_active(&full, fr), full.def_upper(fr));
        assert_eq!(def_active(&full, unused), full.def_upper(unused));
    }

    #[test]
    fn acyclic_observes_only_pairs_on_cycles() {
        let g = mp_graph();
        let model =
            gpumc_cat::parse("let fr = rf^-1; co\nlet x = po | rf | fr\nacyclic x").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let x = model.def_id("x").unwrap();
        let (upper, active) = (a.def_upper(x).unwrap(), def_active(&a, x).unwrap());
        // MP's cycle: ld x -fr-> st x -po-> st flag -rf-> ld flag -po-> ld x.
        let p0 = g.thread_events(0);
        assert!(active.contains(p0[0], p0[1]), "po edge on the MP cycle");
        // Nothing leads back to an init write, so its edges are never
        // on a cycle.
        let from_init = |r: RelView<'_>| {
            r.iter()
                .filter(|&(w, _)| g.event(w).tags.contains(Tag::IW))
                .count()
        };
        assert!(from_init(upper) > 0);
        assert_eq!(from_init(active), 0);
    }

    #[test]
    fn closure_variables_are_closed_under_their_supports() {
        let g = mp_graph();
        let model = gpumc_cat::parse("let hb = (po | rf)+\nirreflexive hb; rf^-1").unwrap();
        let a = RelationAnalysis::new(&g, &model);
        let root = a.def_root(model.def_id("hb").unwrap());
        let vars = a.active_rel(root).unwrap();
        let body = a.active_rel(a.kids(root)[0]).unwrap();
        let body_upper = a.upper_rel(a.kids(root)[0]);
        for (x, y) in vars.iter() {
            for (m, y2) in body_upper.iter() {
                if y2 != y || m == x || !a.upper_rel(root).contains(x, m) {
                    continue;
                }
                assert!(vars.contains(x, m), "support ({}, {}) missing", x.0, m.0);
                assert!(body.contains(m, y), "body pair ({}, {}) missing", m.0, y.0);
            }
        }
    }

    #[test]
    fn ablation_keeps_vloc_apart_from_loc() {
        // `s` is a surface alias of `x`: same physical location, two
        // virtual addresses.
        let src = r#"
PTX MP-surface
{ x = 0; flag = 0; s -> x @ surface; }
P0@cta 0,gpu 0          | P1@cta 0,gpu 0 ;
sust s, 1               | ld.acquire.cta r0, flag ;
st.release.cta flag, 1  | ld.weak r1, x ;
exists (P1:r0 == 1 /\ P1:r1 == 0)
"#;
        let p = gpumc_litmus::parse(src).unwrap();
        let g = compile(&unroll(&p, 1).unwrap());
        let model = gpumc_cat::parse("acyclic vloc | loc").unwrap();
        for precise in [true, false] {
            let a = RelationAnalysis::new_with(&g, &model, precise);
            let (loc, vloc) = (a.base_upper("loc").unwrap(), a.base_upper("vloc").unwrap());
            let mut cross_proxy = 0;
            for (x, y) in loc.iter() {
                let iw = g.event(x).tags.contains(Tag::IW) || g.event(y).tags.contains(Tag::IW);
                if !iw && g.virtual_loc(x) != g.virtual_loc(y) {
                    assert!(
                        !vloc.contains(x, y),
                        "precise={precise}: vloc spans two names"
                    );
                    cross_proxy += usize::from(g.may_alias(x, y));
                }
            }
            assert!(cross_proxy > 0, "the surface store aliases the load of x");
        }
    }
}
