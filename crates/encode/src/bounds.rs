//! Relation analysis: static lower and upper bounds (Table 3).
//!
//! An *upper bound* contains every pair that may belong to the relation
//! in some execution; a *lower bound* contains the pairs guaranteed to
//! belong whenever both events execute. For static relations the two
//! coincide and the SAT encoding needs no decision variables at all.
//!
//! The computed bounds are split off into [`StaticBounds`] — an owned,
//! graph-independent value — so that repeated encodings of the same
//! (program, bound) pair (e.g. a safety check followed by a liveness
//! check of one litmus test) can share a single computation through
//! [`crate::BoundsMemo`] instead of redoing the Table 3 analysis.

use std::collections::HashMap;
use std::sync::Arc;

use gpumc_cat::{CatModel, DefBody, RelExpr, SetExpr};
use gpumc_exec::{EventSet, Relation};
use gpumc_ir::{Arch, EventGraph, EventId, EventKind, Scope, Tag};

/// The owned result of the relation analysis: static bounds for the base
/// sets and all relations of a model, detached from the graph borrow so
/// they can be cached and shared across threads.
#[derive(Debug)]
pub struct StaticBounds {
    /// When false, alias-based pruning was disabled (ablation mode).
    precise: bool,
    sets: HashMap<String, EventSet>,
    upper: HashMap<String, Relation>,
    lower: HashMap<String, Relation>,
    /// Bounds for each model definition (indexed by DefId).
    def_upper: Vec<Option<Relation>>,
    def_lower: Vec<Option<Relation>>,
    def_sets: Vec<Option<EventSet>>,
}

/// Static bounds paired with the graph they were computed for.
#[derive(Debug)]
pub struct RelationAnalysis<'g> {
    graph: &'g EventGraph,
    bounds: Arc<StaticBounds>,
}

impl StaticBounds {
    /// Computes bounds for a graph under a model. `precise = false`
    /// disables the alias-based pruning of Table 3 (ablation mode).
    pub fn compute(graph: &EventGraph, model: &CatModel, precise: bool) -> StaticBounds {
        let mut ctx = Ctx {
            graph,
            b: StaticBounds {
                precise,
                sets: HashMap::new(),
                upper: HashMap::new(),
                lower: HashMap::new(),
                def_upper: Vec::new(),
                def_lower: Vec::new(),
                def_sets: Vec::new(),
            },
        };
        ctx.compute_sets();
        ctx.compute_base();
        ctx.compute_defs(model);
        ctx.b
    }

    /// Whether alias-based pruning was enabled.
    pub fn precise(&self) -> bool {
        self.precise
    }

    /// Static members of a base set.
    pub fn set(&self, name: &str) -> Option<&EventSet> {
        self.sets.get(name)
    }

    /// Upper bound of a base relation.
    pub fn base_upper(&self, name: &str) -> Option<&Relation> {
        self.upper.get(name)
    }

    /// Lower bound of a base relation.
    pub fn base_lower(&self, name: &str) -> Option<&Relation> {
        self.lower.get(name)
    }

    /// Upper bound of a model definition (relations only).
    pub fn def_upper(&self, id: usize) -> Option<&Relation> {
        self.def_upper.get(id).and_then(|r| r.as_ref())
    }

    /// Static member set of a set-kinded definition.
    pub fn def_set(&self, id: usize) -> Option<&EventSet> {
        self.def_sets.get(id).and_then(|s| s.as_ref())
    }

    fn eval_set(&self, g: &EventGraph, e: &SetExpr) -> EventSet {
        let n = g.n_events();
        match e {
            SetExpr::Base(name) => self
                .sets
                .get(name)
                .cloned()
                .unwrap_or_else(|| EventSet::empty(n)),
            SetExpr::Ref(id) => self.def_sets[*id].clone().expect("set def"),
            SetExpr::Universe => EventSet::full(n),
            SetExpr::Union(a, b) => self.eval_set(g, a).union(&self.eval_set(g, b)),
            SetExpr::Inter(a, b) => self.eval_set(g, a).inter(&self.eval_set(g, b)),
            SetExpr::Diff(a, b) => self.eval_set(g, a).diff(&self.eval_set(g, b)),
            SetExpr::Domain(r) => self.eval_rel(g, r, true).domain(),
            SetExpr::Range(r) => self.eval_rel(g, r, true).range(),
        }
    }

    /// Evaluates a relation expression to its upper (`upper == true`) or
    /// lower bound.
    fn eval_rel(&self, g: &EventGraph, e: &RelExpr, upper: bool) -> Relation {
        let n = g.n_events();
        match e {
            RelExpr::Base(name) => {
                let map = if upper { &self.upper } else { &self.lower };
                map.get(name).cloned().unwrap_or_else(|| Relation::empty(n))
            }
            RelExpr::Ref(id) => if upper {
                self.def_upper[*id].clone()
            } else {
                self.def_lower[*id].clone()
            }
            .expect("relation def"),
            RelExpr::Id => Relation::identity(n),
            RelExpr::IdSet(s) => Relation::identity_on(&self.eval_set(g, s)),
            RelExpr::Cross(a, b) => {
                let r = Relation::cross(&self.eval_set(g, a), &self.eval_set(g, b));
                // Remove mutually exclusive pairs in both bounds.
                self.filter_coexist(g, r)
            }
            RelExpr::Union(a, b) => self
                .eval_rel(g, a, upper)
                .union(&self.eval_rel(g, b, upper)),
            RelExpr::Inter(a, b) => self
                .eval_rel(g, a, upper)
                .inter(&self.eval_rel(g, b, upper)),
            // diff mixes bounds: upper(a \ b) = upper(a) \ lower(b).
            RelExpr::Diff(a, b) => self
                .eval_rel(g, a, upper)
                .diff(&self.eval_rel(g, b, !upper)),
            RelExpr::Seq(a, b) => {
                let ra = self.eval_rel(g, a, upper);
                let rb = self.eval_rel(g, b, upper);
                if upper {
                    ra.compose(&rb)
                } else {
                    self.guaranteed_compose(g, &ra, &rb)
                }
            }
            RelExpr::Inverse(a) => self.eval_rel(g, a, upper).inverse(),
            RelExpr::Plus(a) => {
                let r = self.eval_rel(g, a, upper);
                if upper {
                    r.transitive_closure()
                } else {
                    r // conservative lower bound
                }
            }
            RelExpr::Star(a) => {
                let r = self.eval_rel(g, a, upper);
                if upper {
                    r.refl_transitive_closure()
                } else {
                    r.refl_closure()
                }
            }
            RelExpr::Opt(a) => self.eval_rel(g, a, upper).refl_closure(),
        }
    }

    fn filter_coexist(&self, g: &EventGraph, r: Relation) -> Relation {
        let n = g.n_events();
        let mut out = Relation::empty(n);
        for (a, b) in r.iter() {
            if g.can_coexist(a, b) {
                out.insert(a, b);
            }
        }
        out
    }

    /// Lower-bound composition: the midpoint must be guaranteed to
    /// execute whenever both endpoints do (init block or an ancestor
    /// block of one endpoint).
    fn guaranteed_compose(&self, g: &EventGraph, a: &Relation, b: &Relation) -> Relation {
        let n = g.n_events();
        let mut out = Relation::empty(n);
        for (x, m) in a.iter() {
            for (m2, y) in b.iter() {
                if m != m2 {
                    continue;
                }
                let mb = g.event(m).block;
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
}

/// The computation context: a graph borrow plus the bounds under
/// construction.
struct Ctx<'g> {
    graph: &'g EventGraph,
    b: StaticBounds,
}

impl Ctx<'_> {
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
            self.b.sets.insert(tag.name().to_string(), s);
        }
        let m = self.b.sets["R"].union(&self.b.sets["W"]);
        self.b.sets.insert("M".into(), m);
        self.b.sets.insert("CBAR".into(), self.b.sets["B"].clone());
        self.b.sets.insert("I".into(), self.b.sets["IW"].clone());
        self.b.sets.insert("_".into(), EventSet::full(n));
    }

    fn pairs(&self, mut f: impl FnMut(EventId, EventId) -> bool) -> Relation {
        let g = self.graph;
        let n = g.n_events();
        let mut r = Relation::empty(n);
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let (ea, eb) = (EventId(a), EventId(b));
                if a != b && g.can_coexist(ea, eb) && f(ea, eb) {
                    r.insert(ea, eb);
                }
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
        let precise = self.b.precise;
        let alias = |a, b| !precise || g.may_alias(a, b);
        let loc_u =
            self.pairs(|a, b| g.event(a).is_memory() && g.event(b).is_memory() && alias(a, b));
        let loc_l = self
            .pairs(|a, b| g.event(a).is_memory() && g.event(b).is_memory() && g.must_alias(a, b));
        self.b.upper.insert("loc".into(), loc_u);
        self.b.lower.insert("loc".into(), loc_l);
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
        self.b.upper.insert("vloc".into(), vloc_u);
        self.b.lower.insert("vloc".into(), vloc_l);

        // rf / co — decision relations; lower bounds empty (except the
        // init-first co edges, which always hold).
        let w = self.b.sets["W"].clone();
        let r = self.b.sets["R"].clone();
        let iw = self.b.sets["IW"].clone();
        let rf_u = self.pairs(|a, b| w.contains(a) && r.contains(b) && alias(a, b));
        self.b.upper.insert("rf".into(), rf_u);
        self.b.lower.insert("rf".into(), Relation::empty(n));
        let co_u =
            self.pairs(|a, b| w.contains(a) && w.contains(b) && !iw.contains(b) && alias(a, b));
        let co_l = self
            .pairs(|a, b| iw.contains(a) && w.contains(b) && !iw.contains(b) && g.must_alias(a, b));
        self.b.upper.insert("co".into(), co_u);
        self.b.lower.insert("co".into(), co_l);

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
        let bar = self.b.sets["B"].clone();
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
        let scta = self.b.upper["scta"].clone();
        self.b
            .upper
            .insert("sync_barrier".into(), syncbar_u.inter(&scta.refl_closure()));
        self.b
            .lower
            .insert("sync_barrier".into(), syncbar_l.inter(&scta.refl_closure()));
        self.b.upper.insert("syncbar".into(), syncbar_u);
        self.b.lower.insert("syncbar".into(), syncbar_l);

        // sync_fence (Table 3 row 5): no lower bound; the upper bound is
        // the sr-related SC fence pairs.
        let f = self.b.sets["F"].clone();
        let sc = self.b.sets["SC"].clone();
        let sr_u = self.b.upper["sr"].clone();
        let sync_fence_u = self.pairs(|a, b| {
            f.contains(a)
                && sc.contains(a)
                && f.contains(b)
                && sc.contains(b)
                && sr_u.contains(a, b)
        });
        self.b.upper.insert("sync_fence".into(), sync_fence_u);
        self.b.lower.insert("sync_fence".into(), Relation::empty(n));
    }

    fn insert_static(&mut self, name: &str, r: Relation) {
        self.b.upper.insert(name.to_string(), r.clone());
        self.b.lower.insert(name.to_string(), r);
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

    // -- derived bounds ---------------------------------------------------

    fn compute_defs(&mut self, model: &CatModel) {
        let n = self.graph.n_events();
        for (i, def) in model.defs().iter().enumerate() {
            debug_assert_eq!(i, self.b.def_upper.len());
            match &def.body {
                DefBody::Set(s) => {
                    let set = self.b.eval_set(self.graph, s);
                    self.b.def_sets.push(Some(set));
                    self.b.def_upper.push(None);
                    self.b.def_lower.push(None);
                }
                DefBody::Rel(r) => {
                    if def.rec_group.is_some() {
                        // Kleene-iterate the whole group on upper bounds.
                        self.b.def_sets.push(None);
                        self.b.def_upper.push(Some(Relation::empty(n)));
                        self.b.def_lower.push(Some(Relation::empty(n)));
                        // Iterate only once the group is fully registered:
                        // handled below by re-scanning groups.
                        let _ = r;
                    } else {
                        let u = self.b.eval_rel(self.graph, r, true);
                        let l = self.b.eval_rel(self.graph, r, false);
                        self.b.def_sets.push(None);
                        self.b.def_upper.push(Some(u));
                        self.b.def_lower.push(Some(l));
                    }
                }
            }
        }
        // Fixpoint for recursive groups (uppers only; lowers stay empty).
        let groups: Vec<usize> = model
            .defs()
            .iter()
            .filter_map(|d| d.rec_group)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for group in groups {
            loop {
                let mut changed = false;
                for (i, def) in model.defs().iter().enumerate() {
                    if def.rec_group != Some(group) {
                        continue;
                    }
                    let DefBody::Rel(body) = &def.body else {
                        continue;
                    };
                    let next = self.b.eval_rel(self.graph, body, true);
                    if self.b.def_upper[i].as_ref() != Some(&next) {
                        self.b.def_upper[i] = Some(next);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
    }
}

impl<'g> RelationAnalysis<'g> {
    /// Computes bounds for a graph under a model.
    pub fn new(graph: &'g EventGraph, model: &CatModel) -> RelationAnalysis<'g> {
        RelationAnalysis::new_with(graph, model, true)
    }

    /// Like [`RelationAnalysis::new`], optionally disabling the
    /// alias-based pruning of Table 3 (`precise = false`) for the
    /// relation-analysis ablation.
    pub fn new_with(
        graph: &'g EventGraph,
        model: &CatModel,
        precise: bool,
    ) -> RelationAnalysis<'g> {
        RelationAnalysis {
            graph,
            bounds: Arc::new(StaticBounds::compute(graph, model, precise)),
        }
    }

    /// Pairs previously computed bounds with a (structurally identical)
    /// graph — the sharing entry point used by [`crate::BoundsMemo`].
    ///
    /// The caller is responsible for `bounds` having been computed on a
    /// graph with the same structure (same events/blocks/threads), which
    /// the memo guarantees through its fingerprint key.
    pub fn from_shared(graph: &'g EventGraph, bounds: Arc<StaticBounds>) -> RelationAnalysis<'g> {
        RelationAnalysis { graph, bounds }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g EventGraph {
        self.graph
    }

    /// The shared bounds handle.
    pub fn bounds(&self) -> &Arc<StaticBounds> {
        &self.bounds
    }

    /// Static members of a base set.
    pub fn set(&self, name: &str) -> Option<&EventSet> {
        self.bounds.set(name)
    }

    /// Upper bound of a base relation.
    pub fn base_upper(&self, name: &str) -> Option<&Relation> {
        self.bounds.base_upper(name)
    }

    /// Lower bound of a base relation.
    pub fn base_lower(&self, name: &str) -> Option<&Relation> {
        self.bounds.base_lower(name)
    }

    /// Upper bound of a model definition (relations only).
    pub fn def_upper(&self, id: usize) -> Option<&Relation> {
        self.bounds.def_upper(id)
    }

    /// Static member set of a set-kinded definition.
    pub fn def_set(&self, id: usize) -> Option<&EventSet> {
        self.bounds.def_set(id)
    }

    /// Upper bound of an arbitrary relation expression.
    pub fn upper_of(&self, e: &RelExpr) -> Relation {
        self.bounds.eval_rel(self.graph, e, true)
    }

    /// Lower bound of an arbitrary relation expression.
    pub fn lower_of(&self, e: &RelExpr) -> Relation {
        self.bounds.eval_rel(self.graph, e, false)
    }

    /// Static members of an arbitrary set expression.
    pub fn set_of(&self, e: &SetExpr) -> EventSet {
        self.bounds.eval_set(self.graph, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpumc_ir::{compile, unroll};

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
    fn shared_bounds_answer_like_fresh_ones() {
        let g = mp_graph();
        let model = gpumc_cat::parse("let fr = rf^-1; co\nacyclic fr | po").unwrap();
        let fresh = RelationAnalysis::new(&g, &model);
        let shared = RelationAnalysis::from_shared(&g, Arc::clone(fresh.bounds()));
        for name in ["po", "rf", "co", "loc", "vloc"] {
            assert_eq!(fresh.base_upper(name), shared.base_upper(name));
            assert_eq!(fresh.base_lower(name), shared.base_lower(name));
        }
        let fr = model.def_id("fr").unwrap();
        assert_eq!(fresh.def_upper(fr), shared.def_upper(fr));
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
