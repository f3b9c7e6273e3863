//! What every evaluation over one event graph shares: the per-event
//! attributes, taken once, and the base relations and tags that the
//! graph alone fixes.

use gpumc_cat::{BaseRel, BUILTIN_SETS};
use gpumc_ir::{Arch, EventGraph, EventKind, Scope, Tag, TagSet};

use crate::arena::Dims;

/// The base relations an event graph fixes, before any execution or
/// aliasing choice: every other base relation depends on `rf`, `co`,
/// addresses or values.
pub const FIXED_RELS: [BaseRel; 13] = [
    BaseRel::Po,
    BaseRel::Int,
    BaseRel::Ext,
    BaseRel::Rmw,
    BaseRel::Addr,
    BaseRel::Data,
    BaseRel::Ctrl,
    BaseRel::Sr,
    BaseRel::Scta,
    BaseRel::Ssg,
    BaseRel::Swg,
    BaseRel::Sqf,
    BaseRel::Ssw,
];

/// The instruction scope tags of an architecture, narrowest first.
fn scope_tags(arch: Arch) -> &'static [(Tag, Scope)] {
    match arch {
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
    }
}

/// Per-event attributes and the fixed base relations and tag sets of one
/// event graph.
///
/// The fixed relations hold over *all* pairs of events: an evaluator
/// restricts them to the pairs it can see (the coexisting pairs for the
/// static bounds, the executed pairs for an execution).
#[derive(Debug, Clone)]
pub struct GraphFacts {
    d: Dims,
    /// Tags of each event.
    pub tags: Vec<TagSet>,
    /// Fixed relations in [`BaseRel`] order (the others stay empty),
    /// then one set slot per [`BUILTIN_SETS`] name.
    words: Vec<u64>,
}

impl GraphFacts {
    /// Takes the attributes of every event of `g` and builds its fixed
    /// relations and tag sets.
    pub fn new(g: &EventGraph) -> GraphFacts {
        let n = g.n_events();
        let d = Dims::new(n);
        let events = g.events();
        let thread: Vec<Option<usize>> = events.iter().map(|e| e.thread).collect();
        let tags: Vec<TagSet> = events.iter().map(|e| e.tags).collect();
        let po_index: Vec<usize> = events.iter().map(|e| e.po_index).collect();
        let mut f = GraphFacts {
            d,
            tags,
            words: vec![0; BaseRel::ALL.len() * d.rel_len() + BUILTIN_SETS.len() * d.w],
        };

        // The same-scope table: per (scope, thread), the events whose
        // thread shares that scope instance.
        let scopes = scope_tags(g.arch);
        let n_threads = g.threads().len();
        let mut thread_events = vec![0u64; n_threads * d.w];
        for (e, t) in thread.iter().enumerate() {
            if let Some(t) = t {
                thread_events[t * d.w + e / 64] |= 1 << (e % 64);
            }
        }
        let mut same = vec![0u64; scopes.len() * n_threads * d.w];
        for (k, &(_, scope)) in scopes.iter().enumerate() {
            for ta in 0..n_threads {
                let row = &mut same[(k * n_threads + ta) * d.w..][..d.w];
                for tb in 0..n_threads {
                    if g.threads()[ta].pos.same_scope(&g.threads()[tb].pos, scope) {
                        crate::arena::union_with(row, &thread_events[tb * d.w..][..d.w]);
                    }
                }
            }
        }
        let same_row = |k: usize, t: usize| &same[(k * n_threads + t) * d.w..][..d.w];
        // The scope level of each event's instruction scope tag.
        let level: Vec<Option<usize>> = f
            .tags
            .iter()
            .map(|tags| scopes.iter().position(|&(t, _)| tags.contains(t)))
            .collect();
        // The structural scope relations of the graph's architecture.
        let structural: Vec<(BaseRel, usize)> = [
            (BaseRel::Scta, Scope::Cta),
            (BaseRel::Ssg, Scope::Sg),
            (BaseRel::Swg, Scope::Wg),
            (BaseRel::Sqf, Scope::Qf),
        ]
        .into_iter()
        .filter_map(|(rel, scope)| Some((rel, scopes.iter().position(|&(_, s)| s == scope)?)))
        .collect();

        let mut deps = Vec::new();
        for a in 0..n {
            let ta = thread[a];
            for b in 0..n {
                if a == b {
                    continue;
                }
                let tb = thread[b];
                let same_thread = ta.is_some() && ta == tb;
                let bit = |f: &mut GraphFacts, r: BaseRel| f.set_pair(r, a, b);
                if same_thread && po_index[a] < po_index[b] {
                    bit(&mut f, BaseRel::Po);
                }
                if same_thread || (ta.is_none() && tb.is_none()) {
                    bit(&mut f, BaseRel::Int);
                } else {
                    bit(&mut f, BaseRel::Ext);
                }
                let (Some(ta), Some(_)) = (ta, tb) else {
                    continue;
                };
                let in_scope = |k: usize| same_row(k, ta)[b / 64] >> (b % 64) & 1 == 1;
                if g.arch == Arch::Ptx {
                    if let (Some(ka), Some(kb)) = (level[a], level[b]) {
                        if in_scope(ka) && in_scope(kb) {
                            bit(&mut f, BaseRel::Sr);
                        }
                    }
                }
                for &(rel, k) in &structural {
                    if in_scope(k) {
                        bit(&mut f, rel);
                    }
                }
            }
            // rmw, addr, data and ctrl: the reads feeding event `a`.
            let ev = &events[a];
            if let EventKind::RmwStore { read, .. } = &ev.kind {
                f.set_pair(BaseRel::Rmw, read.index(), a);
            }
            if let Some(addr) = ev.kind.addr() {
                deps.clear();
                addr.index.reads(&mut deps);
                for r in &deps {
                    f.set_pair(BaseRel::Addr, r.index(), a);
                }
            }
            deps.clear();
            match &ev.kind {
                EventKind::Store { value, .. } => value.reads(&mut deps),
                EventKind::RmwStore {
                    value,
                    cas_expected,
                    ..
                } => {
                    value.reads(&mut deps);
                    if let Some(c) = cas_expected {
                        c.reads(&mut deps);
                    }
                }
                _ => {}
            }
            for r in &deps {
                f.set_pair(BaseRel::Data, r.index(), a);
            }
            for (guard, _) in g.guard_chain(ev.block) {
                deps.clear();
                guard.a.reads(&mut deps);
                guard.b.reads(&mut deps);
                for r in &deps {
                    if r.index() != a {
                        f.set_pair(BaseRel::Ctrl, r.index(), a);
                    }
                }
            }
        }
        // ssw: every event of the first thread with every event of the
        // second.
        for &(t1, t2) in &g.ssw_pairs {
            if t1 >= n_threads || t2 >= n_threads {
                continue;
            }
            let to = &thread_events[t2 * d.w..][..d.w];
            for a in crate::arena::set_bits(&thread_events[t1 * d.w..][..d.w]) {
                crate::arena::union_with(f.row_mut(BaseRel::Ssw, a), to);
            }
        }

        // Tag sets, with `M`, `CBAR` and `I` spelled out.
        for (i, name) in BUILTIN_SETS.iter().enumerate() {
            let tag = Tag::from_name(name);
            let wanted: &[Tag] = match (*name, &tag) {
                ("M", _) => &[Tag::R, Tag::W],
                ("CBAR", _) => &[Tag::B],
                ("I", _) => &[Tag::IW],
                (_, Some(t)) => std::slice::from_ref(t),
                (_, None) => unreachable!("a builtin set is a tag"),
            };
            for e in 0..n {
                if wanted.iter().any(|&t| f.tags[e].contains(t)) {
                    let at = f.set_at(i) + e / 64;
                    f.words[at] |= 1 << (e % 64);
                }
            }
        }
        f
    }

    fn set_pair(&mut self, r: BaseRel, a: usize, b: usize) {
        self.row_mut(r, a)[b / 64] |= 1 << (b % 64);
    }

    fn row_mut(&mut self, r: BaseRel, a: usize) -> &mut [u64] {
        let at = r.index() * self.d.rel_len() + a * self.d.w;
        &mut self.words[at..at + self.d.w]
    }

    fn set_at(&self, i: usize) -> usize {
        BaseRel::ALL.len() * self.d.rel_len() + i * self.d.w
    }

    /// The arena shape of the graph.
    pub fn dims(&self) -> Dims {
        self.d
    }

    /// The words of fixed relation `r` (empty unless `r` is one of
    /// [`FIXED_RELS`]).
    pub fn rel(&self, r: BaseRel) -> &[u64] {
        &self.words[r.index() * self.d.rel_len()..][..self.d.rel_len()]
    }

    /// The words of the tag set at [`BUILTIN_SETS`] position `i`.
    pub fn set(&self, i: usize) -> &[u64] {
        &self.words[self.set_at(i)..][..self.d.w]
    }

    /// The [`BUILTIN_SETS`] position of a set name.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the builtin environment.
    pub fn set_index(name: &str) -> usize {
        BUILTIN_SETS
            .iter()
            .position(|&s| s == name)
            .expect("builtin set")
    }
}
