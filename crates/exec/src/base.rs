//! Concrete interpretation of base sets and relations over an execution.

use std::collections::HashMap;

use gpumc_ir::{Arch, EventId, EventKind, Scope, Tag, UTerm};

use crate::bitrel::{EventSet, Relation};
use crate::execution::Execution;

/// The concrete values of every base set and base relation of the `.cat`
/// environment, computed from one [`Execution`].
#[derive(Debug, Clone)]
pub struct BaseInterpretation {
    sets: HashMap<String, EventSet>,
    rels: HashMap<String, Relation>,
    n: usize,
}

impl BaseInterpretation {
    /// Computes all base sets and relations for an execution.
    pub fn compute(exec: &Execution<'_>) -> BaseInterpretation {
        let g = exec.graph;
        let n = g.n_events();
        let mut sets = HashMap::new();
        let mut rels = HashMap::new();

        // --- Sets: one per tag, restricted to executed events.
        for tag in Tag::ALL {
            let mut s = EventSet::empty(n);
            for e in exec.executed.iter() {
                if g.event(e).tags.contains(tag) {
                    s.insert(e);
                }
            }
            sets.insert(tag.name().to_string(), s);
        }
        // Aliases and derived basics.
        let m = sets["R"].union(&sets["W"]);
        sets.insert("M".into(), m);
        sets.insert("CBAR".into(), sets["B"].clone());
        sets.insert("I".into(), sets["IW"].clone());
        // The universe `_` is the set of *executed* events.
        sets.insert("_".into(), exec.executed.clone());

        // --- po: same real thread, increasing po index.
        let mut po = Relation::empty(n);
        let mut int = Relation::empty(n);
        let mut ext = Relation::empty(n);
        for a in exec.executed.iter() {
            for b in exec.executed.iter() {
                if a == b {
                    continue;
                }
                let (ea, eb) = (g.event(a), g.event(b));
                match (ea.thread, eb.thread) {
                    (Some(ta), Some(tb)) if ta == tb => {
                        int.insert(a, b);
                        if ea.po_index < eb.po_index {
                            po.insert(a, b);
                        }
                    }
                    (None, None) => {
                        int.insert(a, b);
                    }
                    _ => {
                        ext.insert(a, b);
                    }
                }
            }
        }
        rels.insert("po".into(), po);
        rels.insert("int".into(), int);
        rels.insert("ext".into(), ext);

        // --- rf / co.
        let mut rf = Relation::empty(n);
        for (ri, slot) in exec.rf.iter().enumerate() {
            if let Some(w) = slot {
                let r = EventId(ri as u32);
                if exec.executed.contains(r) && exec.executed.contains(*w) {
                    rf.insert(*w, r);
                }
            }
        }
        rels.insert("rf".into(), rf);
        rels.insert("co".into(), exec.co.clone());

        // --- loc / vloc over resolved addresses.
        let mut loc = Relation::empty(n);
        let mut vloc = Relation::empty(n);
        for a in exec.executed.iter() {
            for b in exec.executed.iter() {
                if a == b {
                    continue;
                }
                if let (Some(pa), Some(pb)) = (exec.addrs[a.index()], exec.addrs[b.index()]) {
                    if pa == pb {
                        loc.insert(a, b);
                        let iw =
                            g.event(a).tags.contains(Tag::IW) || g.event(b).tags.contains(Tag::IW);
                        let va = exec.vaddrs[a.index()];
                        let vb = exec.vaddrs[b.index()];
                        if iw || va == vb {
                            vloc.insert(a, b);
                        }
                    }
                }
            }
        }
        rels.insert("loc".into(), loc);
        rels.insert("vloc".into(), vloc);

        // --- rmw pairs.
        let mut rmw = Relation::empty(n);
        for e in exec.executed.iter() {
            if let EventKind::RmwStore { read, .. } = &g.event(e).kind {
                if exec.executed.contains(*read) {
                    rmw.insert(*read, e);
                }
            }
        }
        rels.insert("rmw".into(), rmw);

        // --- Dependencies.
        let (addr, data, ctrl) = dependencies(exec);
        rels.insert("addr".into(), addr);
        rels.insert("data".into(), data);
        rels.insert("ctrl".into(), ctrl);

        // --- Scope relations.
        rels.insert("sr".into(), scoped_sr(exec));
        rels.insert("scta".into(), structural_scope(exec, Scope::Cta));
        rels.insert("ssg".into(), structural_scope(exec, Scope::Sg));
        rels.insert("swg".into(), structural_scope(exec, Scope::Wg));
        rels.insert("sqf".into(), structural_scope(exec, Scope::Qf));
        rels.insert("ssw".into(), ssw(exec));

        // --- Barrier synchronization.
        let syncbar = syncbar(exec);
        let sync_barrier = syncbar.inter(&rels["scta"].refl_closure());
        rels.insert("syncbar".into(), syncbar);
        rels.insert("sync_barrier".into(), sync_barrier);
        rels.insert("sync_fence".into(), sync_fence(exec));

        BaseInterpretation { sets, rels, n }
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// A base set by `.cat` name.
    pub fn set(&self, name: &str) -> Option<&EventSet> {
        self.sets.get(name)
    }

    /// A base relation by `.cat` name.
    pub fn rel(&self, name: &str) -> Option<&Relation> {
        self.rels.get(name)
    }
}

/// addr/data/ctrl dependencies: reads feeding addresses, stored values,
/// and branch guards.
fn dependencies(exec: &Execution<'_>) -> (Relation, Relation, Relation) {
    let g = exec.graph;
    let n = g.n_events();
    let mut addr = Relation::empty(n);
    let mut data = Relation::empty(n);
    let mut ctrl = Relation::empty(n);
    for e in exec.executed.iter() {
        let ev = g.event(e);
        if let Some(a) = ev.kind.addr() {
            let mut rs = Vec::new();
            a.index.reads(&mut rs);
            for r in rs {
                if exec.executed.contains(r) {
                    addr.insert(r, e);
                }
            }
        }
        match &ev.kind {
            EventKind::Store { value, .. } | EventKind::RmwStore { value, .. } => {
                let mut rs = Vec::new();
                value.reads(&mut rs);
                if let EventKind::RmwStore {
                    cas_expected: Some(c),
                    ..
                } = &ev.kind
                {
                    c.reads(&mut rs);
                }
                for r in rs {
                    if exec.executed.contains(r) {
                        data.insert(r, e);
                    }
                }
            }
            _ => {}
        }
        // Control dependencies: reads in the guards dominating the block.
        for (guard, _) in g.guard_chain(ev.block) {
            let mut rs = Vec::new();
            guard.a.reads(&mut rs);
            guard.b.reads(&mut rs);
            for r in rs {
                if exec.executed.contains(r) && r != e {
                    ctrl.insert(r, e);
                }
            }
        }
    }
    (addr, data, ctrl)
}

/// The scope tag of an event, if it has one.
fn event_scope(tags: gpumc_ir::TagSet, arch: Arch) -> Option<Scope> {
    match arch {
        Arch::Ptx => [
            (Tag::CTA, Scope::Cta),
            (Tag::GPU, Scope::Gpu),
            (Tag::SYS, Scope::Sys),
        ]
        .into_iter()
        .find(|(t, _)| tags.contains(*t))
        .map(|(_, s)| s),
        Arch::Vulkan => [
            (Tag::SG, Scope::Sg),
            (Tag::WG, Scope::Wg),
            (Tag::QF, Scope::Qf),
            (Tag::DV, Scope::Dv),
        ]
        .into_iter()
        .find(|(t, _)| tags.contains(*t))
        .map(|(_, s)| s),
    }
}

/// PTX `sr`: each event's thread lies inside the other event's scope
/// instance (Table 3). Also used by the DPOR engine to decide which SC
/// fences commute (only `sr`-related fences contribute to `sync_fence`).
///
/// Like every base relation, `sr` relates distinct events only: its
/// diagonal is empty (DESIGN.md §4).
pub(crate) fn scoped_sr(exec: &Execution<'_>) -> Relation {
    let g = exec.graph;
    let n = g.n_events();
    let mut sr = Relation::empty(n);
    if g.arch != Arch::Ptx {
        return sr;
    }
    for a in exec.executed.iter() {
        for b in exec.executed.iter() {
            if a == b {
                continue;
            }
            let (ea, eb) = (g.event(a), g.event(b));
            let (Some(ta), Some(tb)) = (ea.thread, eb.thread) else {
                continue;
            };
            let (Some(sa), Some(sb)) = (event_scope(ea.tags, g.arch), event_scope(eb.tags, g.arch))
            else {
                continue;
            };
            let pa = &g.threads()[ta].pos;
            let pb = &g.threads()[tb].pos;
            // thread(b) within scope instance of a, and vice versa.
            if pa.same_scope(pb, sa) && pb.same_scope(pa, sb) {
                sr.insert(a, b);
            }
        }
    }
    sr
}

/// Structural same-scope relation over events of threads sharing a scope
/// instance (used for `scta`, `ssg`, `swg`, `sqf`).
fn structural_scope(exec: &Execution<'_>, scope: Scope) -> Relation {
    let g = exec.graph;
    let n = g.n_events();
    let mut rel = Relation::empty(n);
    if scope.arch() != g.arch {
        return rel;
    }
    for a in exec.executed.iter() {
        for b in exec.executed.iter() {
            if a == b {
                continue;
            }
            let (Some(ta), Some(tb)) = (g.event(a).thread, g.event(b).thread) else {
                continue;
            };
            if g.threads()[ta].pos.same_scope(&g.threads()[tb].pos, scope) {
                rel.insert(a, b);
            }
        }
    }
    rel
}

/// Vulkan `ssw`: events of thread pairs marked system-synchronizes-with.
fn ssw(exec: &Execution<'_>) -> Relation {
    let g = exec.graph;
    let mut rel = Relation::empty(g.n_events());
    for &(t1, t2) in &g.ssw_pairs {
        for a in exec.executed.iter() {
            for b in exec.executed.iter() {
                if g.event(a).thread == Some(t1) && g.event(b).thread == Some(t2) {
                    rel.insert(a, b);
                }
            }
        }
    }
    rel
}

/// Distinct barriers with equal (runtime) ids.
fn syncbar(exec: &Execution<'_>) -> Relation {
    let g = exec.graph;
    let mut rel = Relation::empty(g.n_events());
    let barriers: Vec<EventId> = exec
        .executed
        .iter()
        .filter(|&e| g.event(e).tags.contains(Tag::B))
        .collect();
    for &a in &barriers {
        for &b in &barriers {
            if a != b
                && exec.values[a.index()].is_some()
                && exec.values[a.index()] == exec.values[b.index()]
            {
                rel.insert(a, b);
            }
        }
    }
    rel
}

/// PTX `sync_fence`: the chosen total order over SC fences, restricted to
/// `sr`-related pairs (Table 4).
fn sync_fence(exec: &Execution<'_>) -> Relation {
    let g = exec.graph;
    let mut rel = Relation::empty(g.n_events());
    let sr = scoped_sr(exec);
    for (i, &a) in exec.fence_order.iter().enumerate() {
        for &b in exec.fence_order.iter().skip(i + 1) {
            if sr.contains(a, b) {
                rel.insert(a, b);
            }
        }
    }
    rel
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
