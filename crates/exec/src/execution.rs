//! Concrete candidate executions (behaviours).

use gpumc_ir::{CondAtom, Condition, EventGraph, EventId, LocId, Reg, UTerm, Val};

use crate::bitrel::{EventSet, Relation};

/// How a thread's chosen path ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadOutcome {
    /// The thread ran to completion.
    Completed,
    /// The thread is stuck in a spinloop; the recorded read is the final
    /// iteration's load (liveness checks its co-maximality).
    Stuck {
        /// The spin read.
        spin_read: EventId,
    },
    /// The path hit the unrolling bound in a non-spin loop; the
    /// behaviour is incomplete and only usable as a bound-coverage
    /// indicator.
    Incomplete,
}

/// A concrete behaviour `(X, rf, co)` of a program (§2.2), together with
/// the resolved values/addresses and the runtime-chosen `sync_fence`
/// order.
#[derive(Debug, Clone)]
pub struct Execution<'g> {
    /// The underlying event graph.
    pub graph: &'g EventGraph,
    /// Chosen leaf block per thread.
    pub leaf: Vec<gpumc_ir::BlockId>,
    /// Executed events.
    pub executed: EventSet,
    /// Read-from: for each read event, its source write.
    pub rf: Vec<Option<EventId>>,
    /// Coherence: a strict, transitive order over executed same-location
    /// writes (total per location for Vulkan, possibly partial for PTX).
    pub co: Relation,
    /// A total order over the executed SC fences, inducing `sync_fence`.
    pub fence_order: Vec<EventId>,
    /// Concrete value per event (loaded value for reads, stored value
    /// for writes, barrier id for barriers).
    pub values: Vec<Option<u64>>,
    /// Resolved physical address per memory event: (root location, index).
    pub addrs: Vec<Option<(LocId, u64)>>,
    /// Resolved virtual address per memory event: (declared name, index).
    pub vaddrs: Vec<Option<(LocId, u64)>>,
    /// Per-thread outcome.
    pub outcomes: Vec<ThreadOutcome>,
}

impl<'g> Execution<'g> {
    /// Creates an empty execution skeleton over a graph.
    pub fn new(graph: &'g EventGraph) -> Execution<'g> {
        let n = graph.n_events();
        Execution {
            graph,
            leaf: Vec::new(),
            executed: EventSet::empty(n),
            rf: vec![None; n],
            co: Relation::empty(n),
            fence_order: Vec::new(),
            values: vec![None; n],
            addrs: vec![None; n],
            vaddrs: vec![None; n],
            outcomes: Vec::new(),
        }
    }

    /// Evaluates a symbolic value under this execution.
    ///
    /// Returns `None` when the value depends on an unexecuted or
    /// unresolved read.
    pub fn eval(&self, v: &Val) -> Option<u64> {
        match v {
            Val::Const(c) => Some(*c),
            Val::Read(e) => self.values[e.index()],
            Val::Bin(op, a, b) => Some(Val::apply(*op, self.eval(a)?, self.eval(b)?)),
        }
    }

    /// The concrete value of an event (see [`Execution::values`]).
    pub fn value_of(&self, e: EventId) -> Option<u64> {
        self.values[e.index()]
    }

    /// Whether all threads completed (no stuck or incomplete paths).
    pub fn all_completed(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, ThreadOutcome::Completed))
    }

    /// Whether this execution witnesses a liveness violation (§6.4): at
    /// least one thread is stuck in a spinloop whose final read observes a
    /// co-maximal write, and every other thread is either similarly stuck
    /// or has terminated — so no future write can break any spin.
    pub fn is_liveness_violation(&self) -> bool {
        let mut any_stuck = false;
        for o in &self.outcomes {
            match o {
                ThreadOutcome::Completed => {}
                ThreadOutcome::Stuck { spin_read } => {
                    let Some(w) = self.rf[spin_read.index()] else {
                        return false;
                    };
                    if !self.co_maximal(w) {
                        return false;
                    }
                    any_stuck = true;
                }
                ThreadOutcome::Incomplete => return false,
            }
        }
        any_stuck
    }

    /// Whether `w` is a co-maximal executed write for its location.
    pub fn co_maximal(&self, w: EventId) -> bool {
        self.executed
            .iter()
            .all(|other| !self.co.contains(w, other))
    }

    /// The final value of a register of a thread (from the chosen leaf's
    /// register snapshot). `None` if the thread did not complete or never
    /// wrote the register (unwritten registers read as 0 at the IR level,
    /// so front-ends materialize them).
    pub fn final_reg(&self, thread: usize, reg: Reg) -> Option<u64> {
        let leaf = *self.leaf.get(thread)?;
        match &self.graph.block(leaf).term {
            UTerm::End { final_regs } => final_regs
                .iter()
                .find(|(r, _)| *r == reg)
                .map_or(Some(0), |(_, v)| self.eval(v)),
            _ => None,
        }
    }

    /// The final value of a memory element: the value of a co-maximal
    /// executed write to it. For PTX's partial `co` there may be several
    /// maximal writes; this returns `None` in that (racy) situation
    /// unless they agree.
    pub fn final_mem(&self, loc: LocId, index: u64) -> Option<u64> {
        let root = self.graph.physical_root(loc);
        let mut result: Option<u64> = None;
        for e in self.executed.iter() {
            if self.graph.event(e).tags.contains(gpumc_ir::Tag::W)
                && self.addrs[e.index()] == Some((root, index))
                && self.co_maximal(e)
            {
                let v = self.values[e.index()]?;
                match result {
                    None => result = Some(v),
                    Some(prev) if prev == v => {}
                    Some(_) => return None,
                }
            }
        }
        result
    }

    /// Evaluates a final-state condition. Returns `None` when some atom
    /// is undefined (e.g. a stuck thread's register).
    pub fn eval_condition(&self, c: &Condition) -> Option<bool> {
        match c {
            Condition::True => Some(true),
            Condition::Eq(a, b) => Some(self.eval_atom(a)? == self.eval_atom(b)?),
            Condition::Ne(a, b) => Some(self.eval_atom(a)? != self.eval_atom(b)?),
            Condition::And(a, b) => Some(self.eval_condition(a)? && self.eval_condition(b)?),
            Condition::Or(a, b) => Some(self.eval_condition(a)? || self.eval_condition(b)?),
            Condition::Not(a) => Some(!self.eval_condition(a)?),
        }
    }

    fn eval_atom(&self, a: &CondAtom) -> Option<u64> {
        match a {
            CondAtom::Const(v) => Some(*v),
            CondAtom::Register { thread, reg } => self.final_reg(*thread, *reg),
            CondAtom::Memory { loc, index } => self.final_mem(*loc, u64::from(*index)),
        }
    }

    /// Renders the execution graph in a compact textual form, listing
    /// executed events and the `rf`/`co` edges — the tool's witness
    /// output.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "execution of `{}`:", self.graph.name);
        for e in self.executed.iter() {
            let ev = self.graph.event(e);
            let val = self.values[e.index()].map_or(String::from("?"), |v| v.to_string());
            let addr = self.vaddrs[e.index()].map_or(String::new(), |(l, i)| {
                let name = &self.graph.memory[l.index()].name;
                if i == 0 {
                    format!(" {name}")
                } else {
                    format!(" {name}[{i}]")
                }
            });
            let _ = writeln!(out, "  e{}: {}{addr} = {val} {}", e.0, ev.label, ev.tags);
        }
        for (i, slot) in self.rf.iter().enumerate() {
            if let Some(w) = slot {
                if self.executed.contains(EventId(i as u32)) {
                    let _ = writeln!(out, "  rf: e{} -> e{}", w.0, i);
                }
            }
        }
        for (a, b) in self.co.iter() {
            let _ = writeln!(out, "  co: e{} -> e{}", a.0, b.0);
        }
        out
    }
}
