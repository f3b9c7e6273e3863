//! Relation analysis: static bounds (Table 3) and active sets.
//!
//! An *upper bound* contains every pair that may belong to a relation in
//! some execution; a *lower bound* contains the pairs guaranteed to
//! belong whenever both events execute. For static relations the two
//! coincide and the SAT encoding needs no decision variables at all.
//!
//! Every expression of the model is a *node*: each sub-expression of each
//! definition body and axiom, numbered in post-order (children before
//! their parent, definitions in model order, then the axioms). A node's
//! upper bound is computed once, bottom-up. Its *active set* is computed
//! top-down from the axioms: the pairs (members, for a set node) whose
//! value can change whether an axiom holds (Gavrilenko, Ponce de León,
//! Furbach, Heljanko, Meyer: "BMC for Weak Memory Models: Relation
//! Analysis for Compact SMT Encodings", CAV 2019). The active set always
//! lies within the upper bound, and the encoder builds each node on its
//! active set only.

use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::rc::Rc;

use gpumc_cat::{AxiomKind, CatModel, DefBody, DefId, RelExpr, SetExpr};
use gpumc_exec::{EventSet, Relation};
use gpumc_ir::{Arch, EventGraph, EventId, EventKind, Scope, Tag};

/// Index of a model expression node (see the module docs).
pub(crate) type NodeId = usize;

/// The operator of a node. Operands are the node's `kids`; a reference
/// names the definition, whose root node holds its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op<'m> {
    /// A base relation.
    Base(&'m str),
    /// A relation-kinded definition.
    Ref(DefId),
    Id,
    IdSet,
    Cross,
    Union,
    Inter,
    Diff,
    Seq,
    Inverse,
    Plus,
    Star,
    Opt,
    /// A base set (event tag).
    Tag(&'m str),
    /// A set-kinded definition.
    SetRef(DefId),
    Universe,
    SetUnion,
    SetInter,
    SetDiff,
    Domain,
    Range,
}

impl Op<'_> {
    fn is_set(self) -> bool {
        matches!(
            self,
            Op::Tag(_)
                | Op::SetRef(_)
                | Op::Universe
                | Op::SetUnion
                | Op::SetInter
                | Op::SetDiff
                | Op::Domain
                | Op::Range
        )
    }
}

/// A bound of a relation node (pairs) or of a set node (members).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Bound {
    Rel(Relation),
    Set(EventSet),
}

impl Bound {
    /// The pairs of a relation node.
    pub(crate) fn rel(&self) -> &Relation {
        match self {
            Bound::Rel(r) => r,
            Bound::Set(_) => unreachable!("relation node expected"),
        }
    }

    /// The members of a set node.
    pub(crate) fn set(&self) -> &EventSet {
        match self {
            Bound::Set(s) => s,
            Bound::Rel(_) => unreachable!("set node expected"),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Bound::Rel(r) => r.is_empty(),
            Bound::Set(s) => s.is_empty(),
        }
    }

    fn union_with(&mut self, other: &Bound) {
        match (self, other) {
            (Bound::Rel(a), Bound::Rel(b)) => a.union_with(b),
            (Bound::Set(a), Bound::Set(b)) => a.union_with(b),
            _ => unreachable!("kind-checked"),
        }
    }

    fn inter_with(&mut self, other: &Bound) {
        match (self, other) {
            (Bound::Rel(a), Bound::Rel(b)) => a.inter_with(b),
            (Bound::Set(a), Bound::Set(b)) => a.inter_with(b),
            _ => unreachable!("kind-checked"),
        }
    }
}

/// One model expression node. Bounds are shared: a reference, a base
/// relation or a tag holds the very bound it names.
#[derive(Debug)]
struct Node<'m> {
    op: Op<'m>,
    /// Operands, in source order (unused slots are 0).
    kids: [NodeId; 2],
    upper: Rc<Bound>,
    /// Computed on first use: only the right operand of a difference,
    /// and what it is built from, needs a lower bound.
    lower: Option<Rc<Bound>>,
    /// `None` while no pair (member) is demanded.
    active: Option<Bound>,
}

/// Static bounds and active sets of every base relation, base set and
/// model node for one event graph.
#[derive(Debug)]
pub struct RelationAnalysis<'g> {
    graph: &'g EventGraph,
    /// When false, alias-based pruning was disabled (ablation mode).
    precise: bool,
    /// Base sets: the static members of each tag (upper = lower).
    sets: HashMap<&'static str, Rc<Bound>>,
    upper: HashMap<&'static str, Rc<Bound>>,
    lower: HashMap<&'static str, Rc<Bound>>,
    /// Pairs of events that can execute in one behaviour: every
    /// non-reflexive pair of every relation lies in it.
    coexist: Relation,
    identity: Rc<Bound>,
    empty_rel: Rc<Bound>,
    empty_set: Rc<Bound>,
    nodes: Vec<Node<'g>>,
    /// Root node of each definition (indexed by `DefId`).
    def_root: Vec<NodeId>,
    /// Whether each definition belongs to a `let rec` group.
    recursive: Vec<bool>,
    /// Root node of each axiom, in model order.
    axiom_root: Vec<NodeId>,
    /// The node range of each `let rec` group.
    groups: Vec<RangeInclusive<NodeId>>,
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
        let n = graph.n_events();
        let mut coexist = Relation::empty(n);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                if graph.can_coexist(EventId(a), EventId(b)) {
                    coexist.insert(EventId(a), EventId(b));
                }
            }
        }
        let mut a = RelationAnalysis {
            graph,
            precise: enabled,
            sets: HashMap::new(),
            upper: HashMap::new(),
            lower: HashMap::new(),
            coexist,
            identity: Rc::new(Bound::Rel(Relation::identity(n))),
            empty_rel: Rc::new(Bound::Rel(Relation::empty(n))),
            empty_set: Rc::new(Bound::Set(EventSet::empty(n))),
            nodes: Vec::new(),
            def_root: Vec::new(),
            recursive: model.defs().iter().map(|d| d.rec_group.is_some()).collect(),
            axiom_root: Vec::new(),
            groups: Vec::new(),
        };
        a.compute_sets();
        a.compute_base();
        a.compute_nodes(model);
        if enabled {
            a.compute_active(model);
        } else {
            for node in &mut a.nodes {
                node.active = Some((*node.upper).clone());
            }
        }
        a
    }

    /// Static members of a base set.
    pub fn set(&self, name: &str) -> Option<&EventSet> {
        self.sets.get(name).map(|s| s.set())
    }

    /// Upper bound of a base relation.
    pub fn base_upper(&self, name: &str) -> Option<&Relation> {
        self.upper.get(name).map(|r| r.rel())
    }

    /// Lower bound of a base relation.
    pub fn base_lower(&self, name: &str) -> Option<&Relation> {
        self.lower.get(name).map(|r| r.rel())
    }

    /// Upper bound of a relation-kinded definition.
    pub fn def_upper(&self, id: DefId) -> Option<&Relation> {
        match &*self.nodes[*self.def_root.get(id)?].upper {
            Bound::Rel(r) => Some(r),
            Bound::Set(_) => None,
        }
    }

    /// Lower bound of a relation-kinded definition (empty for a
    /// recursive one), computed on first request.
    pub fn def_lower(&mut self, id: DefId) -> Option<&Relation> {
        let root = *self.def_root.get(id)?;
        self.lower_of(root);
        match self.nodes[root].lower.as_deref()? {
            Bound::Rel(r) => Some(r),
            Bound::Set(_) => None,
        }
    }

    /// Upper bound of a set-kinded definition.
    pub fn def_set(&self, id: DefId) -> Option<&EventSet> {
        match &*self.nodes[*self.def_root.get(id)?].upper {
            Bound::Set(s) => Some(s),
            Bound::Rel(_) => None,
        }
    }

    /// Lower bound of a set-kinded definition, computed on first request.
    pub fn def_set_lower(&mut self, id: DefId) -> Option<&EventSet> {
        let root = *self.def_root.get(id)?;
        self.lower_of(root);
        match self.nodes[root].lower.as_deref()? {
            Bound::Set(s) => Some(s),
            Bound::Rel(_) => None,
        }
    }

    // -- the node table, for the encoder ----------------------------------

    /// Number of model nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn op(&self, id: NodeId) -> Op<'g> {
        self.nodes[id].op
    }

    pub(crate) fn kids(&self, id: NodeId) -> [NodeId; 2] {
        self.nodes[id].kids
    }

    pub(crate) fn is_set(&self, id: NodeId) -> bool {
        self.nodes[id].op.is_set()
    }

    /// The pairs of relation node `id` to encode: its active set, which
    /// lies within its upper bound (`None` while nothing is demanded).
    pub(crate) fn active_rel(&self, id: NodeId) -> Option<&Relation> {
        match self.nodes[id].active.as_ref()? {
            Bound::Rel(r) => Some(r),
            Bound::Set(_) => None,
        }
    }

    /// The members of set node `id` to encode (`None` while nothing is
    /// demanded).
    pub(crate) fn active_set(&self, id: NodeId) -> Option<&EventSet> {
        match self.nodes[id].active.as_ref()? {
            Bound::Set(s) => Some(s),
            Bound::Rel(_) => None,
        }
    }

    pub(crate) fn def_root(&self, id: DefId) -> NodeId {
        self.def_root[id]
    }

    pub(crate) fn axiom_root(&self, index: usize) -> NodeId {
        self.axiom_root[index]
    }

    /// The node whose encoding holds the value of node `id`: references
    /// lead to the root of the definition they name. A recursive
    /// definition's root holds the group's variables.
    pub(crate) fn value_node(&self, mut id: NodeId) -> NodeId {
        while let Op::Ref(d) | Op::SetRef(d) = self.nodes[id].op {
            id = self.def_root[d];
            if self.recursive[d] {
                break;
            }
        }
        id
    }

    /// Whether the model mentions base relation `name`.
    pub(crate) fn mentions(&self, name: &str) -> bool {
        self.nodes.iter().any(|n| n.op == Op::Base(name))
    }

    // -- base sets and relations ------------------------------------------

    fn compute_sets(&mut self) {
        let g = self.graph;
        let n = g.n_events();
        for tag in Tag::ALL {
            let mut s = EventSet::empty(n);
            for e in g.events() {
                if e.tags.contains(tag) {
                    s.insert(e.id);
                }
            }
            self.sets.insert(tag.name(), Rc::new(Bound::Set(s)));
        }
        let m = self.tag("R").union(self.tag("W"));
        self.sets.insert("M", Rc::new(Bound::Set(m)));
        self.sets.insert("CBAR", Rc::clone(&self.sets["B"]));
        self.sets.insert("I", Rc::clone(&self.sets["IW"]));
        self.sets
            .insert("_", Rc::new(Bound::Set(EventSet::full(n))));
    }

    fn tag(&self, name: &str) -> &EventSet {
        self.sets[name].set()
    }

    /// The coexisting pairs of distinct events satisfying `f`. Base
    /// relations never relate an event to itself.
    fn pairs(&self, mut f: impl FnMut(EventId, EventId) -> bool) -> Relation {
        let n = self.graph.n_events();
        let mut r = Relation::empty(n);
        for (a, b) in self.coexist.iter() {
            if a != b && f(a, b) {
                r.insert(a, b);
            }
        }
        r
    }

    fn event_scope(&self, e: EventId) -> Option<Scope> {
        let tags = self.graph.event(e).tags;
        let list: &[(Tag, Scope)] = match self.graph.arch {
            Arch::Ptx => &[
                (Tag::CTA, Scope::Cta),
                (Tag::GPU, Scope::Gpu),
                (Tag::SYS, Scope::Sys),
            ],
            Arch::Vulkan => &[
                (Tag::SG, Scope::Sg),
                (Tag::WG, Scope::Wg),
                (Tag::QF, Scope::Qf),
                (Tag::DV, Scope::Dv),
            ],
        };
        list.iter()
            .find(|(t, _)| tags.contains(*t))
            .map(|&(_, s)| s)
    }

    fn same_scope(&self, a: EventId, b: EventId, scope: Scope) -> bool {
        let g = self.graph;
        let (Some(ta), Some(tb)) = (g.event(a).thread, g.event(b).thread) else {
            return false;
        };
        if scope.arch() != g.arch {
            return false;
        }
        g.threads()[ta].pos.same_scope(&g.threads()[tb].pos, scope)
    }

    fn compute_base(&mut self) {
        let g = self.graph;
        let n = g.n_events();

        // po / int / ext — static.
        let po = self.pairs(|a, b| {
            matches!((g.event(a).thread, g.event(b).thread),
                (Some(ta), Some(tb)) if ta == tb)
                && g.event(a).po_index < g.event(b).po_index
        });
        let int = self.pairs(|a, b| {
            g.event(a).thread.is_some() && g.event(a).thread == g.event(b).thread
                || (g.event(a).thread.is_none() && g.event(b).thread.is_none())
        });
        let ext = self.pairs(|a, b| g.event(a).thread != g.event(b).thread);
        self.insert_static("po", po);
        self.insert_static("int", int);
        self.insert_static("ext", ext);

        // loc / vloc. In ablation mode (`!precise`) the may-alias pruning
        // is skipped: every memory pair stays in the upper bounds, except
        // that vloc still requires the same declared name. That condition
        // is what sets vloc apart from loc (the encoder only adds address
        // equality), so it is semantics, not pruning.
        let precise = self.precise;
        let alias = |a, b| !precise || g.may_alias(a, b);
        let loc_u =
            self.pairs(|a, b| g.event(a).is_memory() && g.event(b).is_memory() && alias(a, b));
        let loc_l = self
            .pairs(|a, b| g.event(a).is_memory() && g.event(b).is_memory() && g.must_alias(a, b));
        self.insert_bounds("loc", loc_u, loc_l);
        let vloc_u = self.pairs(|a, b| {
            if !(g.event(a).is_memory() && g.event(b).is_memory()) {
                return false;
            }
            let iw = g.event(a).tags.contains(Tag::IW) || g.event(b).tags.contains(Tag::IW);
            if iw {
                return alias(a, b);
            }
            g.virtual_loc(a) == g.virtual_loc(b) && alias(a, b)
        });
        let vloc_l = self.pairs(|a, b| g.same_virtual(a, b));
        self.insert_bounds("vloc", vloc_u, vloc_l);

        // rf / co — decision relations; lower bounds empty (except the
        // init-first co edges, which always hold).
        let (w, r, iw) = (self.tag("W"), self.tag("R"), self.tag("IW"));
        let rf_u = self.pairs(|a, b| w.contains(a) && r.contains(b) && alias(a, b));
        let co_u =
            self.pairs(|a, b| w.contains(a) && w.contains(b) && !iw.contains(b) && alias(a, b));
        let co_l = self
            .pairs(|a, b| iw.contains(a) && w.contains(b) && !iw.contains(b) && g.must_alias(a, b));
        self.insert_bounds("rf", rf_u, Relation::empty(n));
        self.insert_bounds("co", co_u, co_l);

        // rmw — static pairs.
        let rmw = self.pairs(|a, b| match &g.event(b).kind {
            EventKind::RmwStore { read, .. } => *read == a,
            _ => false,
        });
        self.insert_static("rmw", rmw);

        // Dependencies — static.
        let (addr, data, ctrl) = self.dependencies();
        self.insert_static("addr", addr);
        self.insert_static("data", data);
        self.insert_static("ctrl", ctrl);

        // Scope relations — static (Table 3 rows 1-2).
        let sr = if g.arch == Arch::Ptx {
            self.pairs(|a, b| {
                let (Some(sa), Some(sb)) = (self.event_scope(a), self.event_scope(b)) else {
                    return false;
                };
                self.same_scope(a, b, sa) && self.same_scope(a, b, sb)
            })
        } else {
            Relation::empty(n)
        };
        self.insert_static("sr", sr);
        for (name, scope) in [
            ("scta", Scope::Cta),
            ("ssg", Scope::Sg),
            ("swg", Scope::Wg),
            ("sqf", Scope::Qf),
        ] {
            let rel = self.pairs(|a, b| self.same_scope(a, b, scope));
            self.insert_static(name, rel);
        }
        let ssw = self.pairs(|a, b| {
            g.ssw_pairs
                .iter()
                .any(|&(t1, t2)| g.event(a).thread == Some(t1) && g.event(b).thread == Some(t2))
        });
        self.insert_static("ssw", ssw);

        // Barriers (Table 3 rows 3-4): ids may be dynamic, so the bounds
        // differ when a static comparison is impossible.
        let bar = self.tag("B");
        let static_id = |e: EventId| match &g.event(e).kind {
            EventKind::Barrier { id, .. } => id.as_const(),
            _ => None,
        };
        let syncbar_u = self.pairs(|a, b| {
            bar.contains(a)
                && bar.contains(b)
                && match (static_id(a), static_id(b)) {
                    (Some(x), Some(y)) => x == y,
                    _ => true,
                }
        });
        let syncbar_l = self.pairs(|a, b| {
            bar.contains(a)
                && bar.contains(b)
                && matches!((static_id(a), static_id(b)), (Some(x), Some(y)) if x == y)
        });
        let scta = self.upper["scta"].rel().refl_closure();
        let (bar_u, bar_l) = (syncbar_u.inter(&scta), syncbar_l.inter(&scta));
        self.insert_bounds("sync_barrier", bar_u, bar_l);
        self.insert_bounds("syncbar", syncbar_u, syncbar_l);

        // sync_fence (Table 3 row 5): no lower bound; the upper bound is
        // the sr-related SC fence pairs.
        let (f, sc, sr_u) = (self.tag("F"), self.tag("SC"), self.upper["sr"].rel());
        let sync_fence_u = self.pairs(|a, b| {
            f.contains(a)
                && sc.contains(a)
                && f.contains(b)
                && sc.contains(b)
                && sr_u.contains(a, b)
        });
        self.insert_bounds("sync_fence", sync_fence_u, Relation::empty(n));
    }

    fn insert_bounds(&mut self, name: &'static str, upper: Relation, lower: Relation) {
        self.upper.insert(name, Rc::new(Bound::Rel(upper)));
        self.lower.insert(name, Rc::new(Bound::Rel(lower)));
    }

    /// A static relation: its upper and lower bounds coincide.
    fn insert_static(&mut self, name: &'static str, r: Relation) {
        let r = Rc::new(Bound::Rel(r));
        self.upper.insert(name, Rc::clone(&r));
        self.lower.insert(name, r);
    }

    fn dependencies(&self) -> (Relation, Relation, Relation) {
        let g = self.graph;
        let n = g.n_events();
        let mut addr = Relation::empty(n);
        let mut data = Relation::empty(n);
        let mut ctrl = Relation::empty(n);
        for ev in g.events() {
            let e = ev.id;
            if let Some(a) = ev.kind.addr() {
                let mut rs = Vec::new();
                a.index.reads(&mut rs);
                for r in rs {
                    addr.insert(r, e);
                }
            }
            match &ev.kind {
                EventKind::Store { value, .. } => {
                    let mut rs = Vec::new();
                    value.reads(&mut rs);
                    for r in rs {
                        data.insert(r, e);
                    }
                }
                EventKind::RmwStore {
                    value,
                    cas_expected,
                    ..
                } => {
                    let mut rs = Vec::new();
                    value.reads(&mut rs);
                    if let Some(c) = cas_expected {
                        c.reads(&mut rs);
                    }
                    for r in rs {
                        data.insert(r, e);
                    }
                }
                _ => {}
            }
            for (guard, _) in g.guard_chain(ev.block) {
                let mut rs = Vec::new();
                guard.a.reads(&mut rs);
                guard.b.reads(&mut rs);
                for r in rs {
                    if r != e {
                        ctrl.insert(r, e);
                    }
                }
            }
        }
        (addr, data, ctrl)
    }

    // -- upper bounds of the model nodes ----------------------------------

    fn compute_nodes(&mut self, model: &'g CatModel) {
        let defs = model.defs();
        let mut i = 0;
        while i < defs.len() {
            let Some(group) = defs[i].rec_group else {
                let root = self.record_body(&defs[i].body);
                self.def_root.push(root);
                i += 1;
                continue;
            };
            // A `let rec` group: record the bodies (references to members
            // not recorded yet read as empty), then Kleene-iterate the
            // group's nodes until no upper bound changes, before any later
            // definition reads them. Recursive definitions keep an empty
            // lower bound.
            let first = self.nodes.len();
            while i < defs.len() && defs[i].rec_group == Some(group) {
                let root = self.record_body(&defs[i].body);
                self.def_root.push(root);
                i += 1;
            }
            let range = first..=self.nodes.len() - 1;
            loop {
                for id in range.clone() {
                    self.nodes[id].lower = None;
                }
                let mut changed = false;
                for id in range.clone() {
                    let Node { op, kids, .. } = self.nodes[id];
                    let upper = self.upper_of(op, kids);
                    if *self.nodes[id].upper != *upper {
                        self.nodes[id].upper = upper;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            self.groups.push(range);
        }
        for axiom in model.axioms() {
            let root = self.record_rel(&axiom.expr);
            self.axiom_root.push(root);
        }
    }

    fn record_body(&mut self, body: &'g DefBody) -> NodeId {
        match body {
            DefBody::Set(s) => self.record_set(s),
            DefBody::Rel(r) => self.record_rel(r),
        }
    }

    fn record_rel(&mut self, e: &'g RelExpr) -> NodeId {
        let (op, kids) = match e {
            RelExpr::Base(name) => (Op::Base(name), [0, 0]),
            RelExpr::Ref(d) => (Op::Ref(*d), [0, 0]),
            RelExpr::Id => (Op::Id, [0, 0]),
            RelExpr::IdSet(s) => (Op::IdSet, [self.record_set(s), 0]),
            RelExpr::Cross(a, b) => (Op::Cross, [self.record_set(a), self.record_set(b)]),
            RelExpr::Union(a, b) => (Op::Union, [self.record_rel(a), self.record_rel(b)]),
            RelExpr::Inter(a, b) => (Op::Inter, [self.record_rel(a), self.record_rel(b)]),
            RelExpr::Diff(a, b) => (Op::Diff, [self.record_rel(a), self.record_rel(b)]),
            RelExpr::Seq(a, b) => (Op::Seq, [self.record_rel(a), self.record_rel(b)]),
            RelExpr::Inverse(a) => (Op::Inverse, [self.record_rel(a), 0]),
            RelExpr::Plus(a) => (Op::Plus, [self.record_rel(a), 0]),
            RelExpr::Star(a) => (Op::Star, [self.record_rel(a), 0]),
            RelExpr::Opt(a) => (Op::Opt, [self.record_rel(a), 0]),
        };
        self.push(op, kids)
    }

    fn record_set(&mut self, e: &'g SetExpr) -> NodeId {
        let (op, kids) = match e {
            SetExpr::Base(name) => (Op::Tag(name), [0, 0]),
            SetExpr::Ref(d) => (Op::SetRef(*d), [0, 0]),
            SetExpr::Universe => (Op::Universe, [0, 0]),
            SetExpr::Union(a, b) => (Op::SetUnion, [self.record_set(a), self.record_set(b)]),
            SetExpr::Inter(a, b) => (Op::SetInter, [self.record_set(a), self.record_set(b)]),
            SetExpr::Diff(a, b) => (Op::SetDiff, [self.record_set(a), self.record_set(b)]),
            SetExpr::Domain(r) => (Op::Domain, [self.record_rel(r), 0]),
            SetExpr::Range(r) => (Op::Range, [self.record_rel(r), 0]),
        };
        self.push(op, kids)
    }

    fn push(&mut self, op: Op<'g>, kids: [NodeId; 2]) -> NodeId {
        let upper = self.upper_of(op, kids);
        self.nodes.push(Node {
            op,
            kids,
            upper,
            lower: None,
            active: None,
        });
        self.nodes.len() - 1
    }

    /// The upper bound of a node from its operands' bounds.
    fn upper_of(&mut self, op: Op<'g>, [a, b]: [NodeId; 2]) -> Rc<Bound> {
        let n = self.graph.n_events();
        let named = |map: &HashMap<&str, Rc<Bound>>, name: &str, empty: &Rc<Bound>| {
            Rc::clone(map.get(name).unwrap_or(empty))
        };
        let bound = match op {
            Op::Base(name) => return named(&self.upper, name, &self.empty_rel),
            Op::Tag(name) => return named(&self.sets, name, &self.empty_set),
            Op::Ref(d) | Op::SetRef(d) => {
                return match self.def_root.get(d) {
                    Some(&root) => Rc::clone(&self.nodes[root].upper),
                    None => Rc::clone(&self.empty_rel),
                };
            }
            Op::Id => return Rc::clone(&self.identity),
            Op::Universe => Bound::Set(EventSet::full(n)),
            // upper(a \ b) = upper(a) \ lower(b).
            Op::Diff | Op::SetDiff => {
                let lower = self.lower_of(b);
                match (&*self.nodes[a].upper, &*lower) {
                    (Bound::Rel(ua), Bound::Rel(lb)) => Bound::Rel(ua.diff(lb)),
                    (Bound::Set(ua), Bound::Set(lb)) => Bound::Set(ua.diff(lb)),
                    _ => unreachable!("kind-checked"),
                }
            }
            _ => {
                let (ua, ub) = (&*self.nodes[a].upper, &*self.nodes[b].upper);
                match op {
                    Op::IdSet => Bound::Rel(Relation::identity_on(ua.set())),
                    Op::Cross => {
                        Bound::Rel(Relation::cross(ua.set(), ub.set()).inter(&self.coexist))
                    }
                    Op::Union => Bound::Rel(ua.rel().union(ub.rel())),
                    Op::Inter => Bound::Rel(ua.rel().inter(ub.rel())),
                    Op::Seq => Bound::Rel(ua.rel().compose(ub.rel()).inter(&self.coexist)),
                    Op::Inverse => Bound::Rel(ua.rel().inverse()),
                    Op::Plus => Bound::Rel(ua.rel().transitive_closure()),
                    Op::Star => Bound::Rel(ua.rel().refl_transitive_closure()),
                    Op::Opt => Bound::Rel(ua.rel().refl_closure()),
                    Op::SetUnion => Bound::Set(ua.set().union(ub.set())),
                    Op::SetInter => Bound::Set(ua.set().inter(ub.set())),
                    Op::Domain => Bound::Set(ua.rel().domain()),
                    Op::Range => Bound::Set(ua.rel().range()),
                    _ => unreachable!("handled above"),
                }
            }
        };
        Rc::new(bound)
    }

    /// The lower bound of node `id`, computed on first use.
    fn lower_of(&mut self, id: NodeId) -> Rc<Bound> {
        if let Some(lower) = &self.nodes[id].lower {
            return Rc::clone(lower);
        }
        let lower = self.compute_lower(id);
        self.nodes[id].lower = Some(Rc::clone(&lower));
        lower
    }

    fn compute_lower(&mut self, id: NodeId) -> Rc<Bound> {
        let n = self.graph.n_events();
        let Node {
            op, kids: [a, b], ..
        } = self.nodes[id];
        let bound = match op {
            Op::Base(name) => {
                return Rc::clone(self.lower.get(name).unwrap_or(&self.empty_rel));
            }
            // A tag set is exact: an executed event is a member iff tagged.
            Op::Tag(_) => return Rc::clone(&self.nodes[id].upper),
            Op::Ref(d) | Op::SetRef(d) => {
                return match self.def_root.get(d) {
                    Some(&root) if !self.recursive[d] => self.lower_of(root),
                    _ => Rc::clone(&self.empty_rel),
                };
            }
            Op::Id => return Rc::clone(&self.identity),
            // A closure holds at least its body (conservative).
            Op::Plus => return self.lower_of(a),
            // Whether an event has a successor depends on other events
            // executing: no guarantee.
            Op::Domain | Op::Range => return Rc::clone(&self.empty_set),
            Op::Universe => Bound::Set(EventSet::full(n)),
            // lower(a \ b) = lower(a) \ upper(b).
            Op::Diff | Op::SetDiff => {
                let la = self.lower_of(a);
                match (&*la, &*self.nodes[b].upper) {
                    (Bound::Rel(la), Bound::Rel(ub)) => Bound::Rel(la.diff(ub)),
                    (Bound::Set(la), Bound::Set(ub)) => Bound::Set(la.diff(ub)),
                    _ => unreachable!("kind-checked"),
                }
            }
            Op::IdSet | Op::Inverse | Op::Star | Op::Opt => {
                let la = self.lower_of(a);
                match op {
                    Op::IdSet => Bound::Rel(Relation::identity_on(la.set())),
                    Op::Inverse => Bound::Rel(la.rel().inverse()),
                    _ => Bound::Rel(la.rel().refl_closure()),
                }
            }
            _ => {
                let (la, lb) = (self.lower_of(a), self.lower_of(b));
                match op {
                    Op::Cross => {
                        Bound::Rel(Relation::cross(la.set(), lb.set()).inter(&self.coexist))
                    }
                    Op::Union => Bound::Rel(la.rel().union(lb.rel())),
                    Op::Inter => Bound::Rel(la.rel().inter(lb.rel())),
                    Op::Seq => Bound::Rel(guaranteed_compose(self.graph, la.rel(), lb.rel())),
                    Op::SetUnion => Bound::Set(la.set().union(lb.set())),
                    Op::SetInter => Bound::Set(la.set().inter(lb.set())),
                    _ => unreachable!("handled above"),
                }
            }
        };
        Rc::new(bound)
    }

    // -- active sets -------------------------------------------------------

    /// Seeds every axiom with the pairs it can observe, then walks the
    /// nodes from the last to the first, each asking its operands only
    /// for the pairs that can change its own active pairs. All users of
    /// a node come after it, except inside a `let rec` group, which is
    /// iterated to a fixpoint.
    fn compute_active(&mut self, model: &CatModel) {
        for (k, axiom) in model.axioms().iter().enumerate() {
            let root = self.axiom_root[k];
            let upper = self.nodes[root].upper.rel();
            let seed = match axiom.kind {
                _ if axiom.flagged || axiom.negated => upper.clone(),
                AxiomKind::Empty => upper.clone(),
                AxiomKind::Irreflexive => upper.inter(self.identity.rel()),
                // A pair can close a cycle only if it lies on a cycle of
                // the upper bound: (a, b) with b reaching a.
                AxiomKind::Acyclic => upper.inter(&upper.transitive_closure().inverse()),
            };
            self.demand(root, Bound::Rel(seed));
        }
        let mut id = self.nodes.len();
        while id > 0 {
            id -= 1;
            let Some(group) = self.groups.iter().find(|g| *g.end() == id).cloned() else {
                self.push_down(id);
                continue;
            };
            loop {
                let before: Vec<Option<Bound>> = group
                    .clone()
                    .map(|k| self.nodes[k].active.clone())
                    .collect();
                for k in group.clone().rev() {
                    self.push_down(k);
                }
                if group
                    .clone()
                    .zip(&before)
                    .all(|(k, b)| self.nodes[k].active == *b)
                {
                    break;
                }
            }
            id = *group.start();
        }
    }

    /// Adds `want`, cut to its upper bound, to node `id`'s active set.
    fn demand(&mut self, id: NodeId, mut want: Bound) {
        let node = &mut self.nodes[id];
        want.inter_with(&node.upper);
        if want.is_empty() {
            return;
        }
        match &mut node.active {
            Some(active) => active.union_with(&want),
            None => node.active = Some(want),
        }
    }

    /// Propagates node `id`'s active set to its operands.
    fn push_down(&mut self, id: NodeId) {
        let n = self.graph.n_events();
        let Node {
            op, kids: [a, b], ..
        } = self.nodes[id];
        let Some(act) = &self.nodes[id].active else {
            return;
        };
        let identity = self.identity.rel();
        let (want_a, want_b) = match op {
            Op::Base(_) | Op::Id | Op::Tag(_) | Op::Universe => return,
            Op::Ref(d) | Op::SetRef(d) => {
                let want = act.clone();
                self.demand(self.def_root[d], want);
                return;
            }
            Op::IdSet => (Bound::Set(act.rel().inter(identity).domain()), None),
            Op::Cross => (
                Bound::Set(act.rel().domain()),
                Some(Bound::Set(act.rel().range())),
            ),
            Op::Union | Op::Inter | Op::Diff | Op::SetUnion | Op::SetInter | Op::SetDiff => {
                (act.clone(), Some(act.clone()))
            }
            // (x, m) and (m, c) only matter when they meet in an active
            // (x, c).
            Op::Seq => {
                let (ua, ub) = (self.nodes[a].upper.rel(), self.nodes[b].upper.rel());
                (
                    Bound::Rel(act.rel().compose(&ub.inverse())),
                    Some(Bound::Rel(ua.inverse().compose(act.rel()))),
                )
            }
            Op::Inverse => (Bound::Rel(act.rel().inverse()), None),
            // `r?` encodes its diagonal as true.
            Op::Opt => (Bound::Rel(act.rel().diff(identity)), None),
            Op::Plus | Op::Star => {
                let (vars, body) = self.closure_demand(id);
                self.nodes[id].active = Some(Bound::Rel(vars));
                self.demand(a, Bound::Rel(body));
                return;
            }
            Op::Domain => (
                Bound::Rel(Relation::cross(act.set(), &EventSet::full(n))),
                None,
            ),
            Op::Range => (
                Bound::Rel(Relation::cross(&EventSet::full(n), act.set())),
                None,
            ),
        };
        self.demand(a, want_a);
        if let Some(want_b) = want_b {
            self.demand(b, want_b);
        }
    }

    /// The active set of closure node `id` and the demand on its body.
    ///
    /// `r+` is encoded right-linearly, `var(x, y) ↔ r(x, y) ∨ ∃m ≠ x.
    /// var(x, m) ∧ r(m, y)`. An active `(x, y)` needs `var(x, m)` for
    /// every `m` on a path from `x` to `y`, and these variables are
    /// closed under their own supports. `r*` encodes its diagonal as
    /// true, so only its off-diagonal pairs need variables.
    fn closure_demand(&self, id: NodeId) -> (Relation, Relation) {
        let node = &self.nodes[id];
        let upper = node.upper.rel();
        let act = node.active.as_ref().expect("active closure").rel();
        let identity = self.identity.rel();
        let star = node.op == Op::Star;
        let want = if star {
            act.diff(identity)
        } else {
            act.clone()
        };
        // (x, m) with m = y or m reaching y, for an active (x, y).
        let mut vars = upper.inter(&want.union(&want.compose(&upper.inverse())));
        // A diagonal variable is never a support; keep it only when
        // active itself.
        vars.diff_with(identity);
        vars.union_with(&want.inter(identity));
        // Body pairs (u, v) some var(x, v) uses: u = x, or var(x, u).
        let body = vars.inverse().compose(&vars).union(&vars);
        if star {
            vars.union_with(&act.inter(identity));
        }
        (vars, body)
    }
}

/// Lower-bound composition: the midpoint must be guaranteed to execute
/// whenever both endpoints do (init block or an ancestor block of one
/// endpoint).
fn guaranteed_compose(g: &EventGraph, a: &Relation, b: &Relation) -> Relation {
    let mut out = Relation::empty(g.n_events());
    for (x, m) in a.iter() {
        let mb = g.event(m).block;
        for y in b.successors(m) {
            let guaranteed = mb == 0
                || g.is_ancestor(mb, g.event(x).block)
                || g.is_ancestor(mb, g.event(y).block);
            if guaranteed && g.can_coexist(x, y) {
                out.insert(x, y);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumc_ir::{compile, unroll};

    /// The pairs of definition `id` some axiom can observe.
    fn def_active<'a>(a: &'a RelationAnalysis<'_>, id: DefId) -> Option<&'a Relation> {
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
            for node in &a.nodes {
                let Some(active) = &node.active else { continue };
                let mut within = active.clone();
                within.inter_with(&node.upper);
                assert_eq!(&within, active, "{:?}", node.op);
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
        let from_init = |r: &Relation| {
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
        let body_upper = a.nodes[a.kids(root)[0]].upper.rel();
        for (x, y) in vars.iter() {
            for (m, y2) in body_upper.iter() {
                if y2 != y || m == x || !a.nodes[root].upper.rel().contains(x, m) {
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
