//! Evaluating `.cat` models over concrete executions.

use gpumc_cat::{AxiomKind, BaseRel, CatModel, DefId, NodeTable, Op, BUILTIN_SETS};
use gpumc_ir::{EventGraph, EventId};

use crate::arena::{self, split, CycleScratch, Dims, RelView};
use crate::base::BaseInterpretation;
use crate::bitrel::{EventSet, Relation};
use crate::execution::Execution;

/// The result of checking an execution against a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyVerdict {
    /// Whether all (non-flagged) axioms hold.
    pub consistent: bool,
    /// The label of the first failing axiom, when inconsistent.
    pub failed_axiom: Option<String>,
    /// Raised flags (e.g. data races), only meaningful when consistent.
    pub flags: Vec<FlagHit>,
}

impl ConsistencyVerdict {
    /// Whether a flag with the given label was raised.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f.name == name)
    }
}

/// A raised flag and its witnessing pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagHit {
    /// Flag label (e.g. `dr`).
    pub name: String,
    /// Pairs of the flagged relation (capped).
    pub pairs: Vec<(EventId, EventId)>,
}

/// The value of one definition over an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefValue {
    /// A set-kinded definition.
    Set(EventSet),
    /// A relation-kinded definition.
    Rel(Relation),
}

/// Where a node's value lives: a slot of the base values, or one of the
/// interpreter's own.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Base(usize),
    Own(usize),
}

/// A `let rec` group: its node range and its definitions.
#[derive(Debug)]
struct Group {
    first: usize,
    last: usize,
    defs: Vec<DefId>,
}

/// A `.cat` model evaluator over the executions of one event graph.
///
/// The model's [`NodeTable`] is evaluated into one arena of bit rows,
/// sized when the interpreter is made and reused by every check: base
/// relations, tags, references and `id` read the slot they name, every
/// other node writes its own. [`Interpreter::check`] and
/// [`Interpreter::check_axioms`] evaluate only the nodes the checked
/// axioms reach.
///
/// # Example
///
/// ```no_run
/// # fn graph() -> gpumc_ir::EventGraph { unimplemented!() }
/// let model = gpumc_cat::parse("let fr = rf^-1; co\nacyclic po | rf | fr | co").unwrap();
/// let graph = graph();
/// let exec = gpumc_exec::Execution::new(&graph);
/// let verdict = gpumc_exec::Interpreter::new(&model, &graph).check(&exec);
/// println!("consistent: {}", verdict.consistent);
/// ```
#[derive(Debug)]
pub struct Interpreter<'a> {
    model: &'a CatModel,
    graph: &'a EventGraph,
    base: BaseInterpretation,
    d: Dims,
    /// Where each node's value lives.
    loc: Vec<Loc>,
    /// The value slot of each recursive definition (`usize::MAX` for the
    /// others, whose value is their root's).
    def_val: Vec<usize>,
    /// `let rec` groups, and per node `1 +` the index of the group it
    /// lies in (0 for the others).
    groups: Vec<Group>,
    group_at: Vec<u32>,
    words: Vec<u64>,
    /// Nodes evaluated for the current execution.
    done: Vec<u64>,
    cycle: CycleScratch,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter for the executions of `graph` under `model`.
    pub fn new(model: &'a CatModel, graph: &'a EventGraph) -> Interpreter<'a> {
        let base = BaseInterpretation::new(graph);
        let d = base.dims();
        let table = model.nodes();
        let (rel_len, set_len) = (d.rel_len(), d.set_len());
        // Own slots: the empty relation and set, the identity, then one
        // per computing node and per recursive definition.
        let (empty_rel, empty_set, identity) = (0, rel_len, rel_len + set_len);
        let mut len = 2 * rel_len + set_len;
        let mut alloc = |is_set: bool| {
            let at = len;
            len += if is_set { set_len } else { rel_len };
            at
        };
        let mut def_val = vec![usize::MAX; model.defs().len()];
        for (d, slot) in def_val.iter_mut().enumerate() {
            if table.is_recursive(d) {
                *slot = alloc(false);
            }
        }
        let mut loc = Vec::with_capacity(table.len());
        for (id, node) in table.nodes().iter().enumerate() {
            let l = match node.op {
                Op::Base(Some(r)) => Loc::Base(base.rel_at(r)),
                Op::Base(None) => Loc::Own(empty_rel),
                Op::Tag(Some(i)) => Loc::Base(base.set_at(usize::from(i))),
                Op::Tag(None) => Loc::Own(empty_set),
                Op::Universe => Loc::Base(base.set_at(BUILTIN_SETS.len())),
                Op::Id => Loc::Own(identity),
                Op::Ref(d) | Op::SetRef(d) if table.is_recursive(d) => Loc::Own(def_val[d]),
                Op::Ref(d) | Op::SetRef(d) => {
                    let root = table.def_root(d);
                    debug_assert!(root < id, "a definition precedes its users");
                    loc[root]
                }
                op => Loc::Own(alloc(op.is_set())),
            };
            loc.push(l);
        }
        let mut group_at = vec![0u32; table.len()];
        let groups: Vec<Group> = table
            .groups()
            .iter()
            .enumerate()
            .map(|(k, &(first, last))| {
                group_at[first..=last].fill(k as u32 + 1);
                let defs = (0..model.defs().len())
                    .filter(|&d| (first..=last).contains(&table.def_root(d)))
                    .collect();
                Group { first, last, defs }
            })
            .collect();
        let mut words = vec![0u64; len];
        arena::identity(d, &mut words[identity..identity + rel_len]);
        Interpreter {
            model,
            graph,
            base,
            d,
            loc,
            def_val,
            groups,
            group_at,
            words,
            done: vec![0; table.len().div_ceil(64)],
            cycle: CycleScratch::default(),
        }
    }

    /// Checks an execution: evaluates the axioms in model order, and the
    /// nodes they reach. The first failing consistency axiom ends the
    /// check (flags are only reported for consistent executions).
    ///
    /// # Panics
    ///
    /// Panics if `exec` is not an execution of the interpreter's graph.
    pub fn check(&mut self, exec: &Execution<'_>) -> ConsistencyVerdict {
        self.start(exec);
        let mut verdict = ConsistencyVerdict {
            consistent: true,
            failed_axiom: None,
            flags: Vec::new(),
        };
        let model = self.model;
        for (i, axiom) in model.axioms().iter().enumerate() {
            let holds = self.axiom_holds(i);
            if axiom.flagged {
                if holds {
                    let pairs = self.axiom_value(i).iter().take(16).collect();
                    verdict.flags.push(FlagHit {
                        name: axiom.label(i),
                        pairs,
                    });
                }
            } else if !holds {
                verdict.consistent = false;
                verdict.failed_axiom = Some(axiom.label(i));
                verdict.flags.clear();
                break;
            }
        }
        verdict
    }

    /// Checks only the axioms at the given indices, returning whether all
    /// of them hold. The DPOR engine uses this to prune partially-built
    /// candidates: an axiom that is monotone in the still-growing inputs
    /// (`co`, `sync_fence`) and already fails on a partial execution fails
    /// on every completion of it.
    pub fn check_axioms(&mut self, exec: &Execution<'_>, indices: &[usize]) -> bool {
        self.start(exec);
        indices.iter().all(|&i| self.axiom_holds(i))
    }

    /// Evaluates every definition over an execution, indexed by
    /// [`gpumc_cat::DefId`].
    pub fn def_values(&mut self, exec: &Execution<'_>) -> Vec<DefValue> {
        self.start(exec);
        let table = self.model.nodes();
        let all = vec![!0u64; table.len().div_ceil(64)];
        self.eval(&all);
        (0..self.model.defs().len())
            .map(|d| {
                let root = table.def_root(d);
                let at = match self.def_val[d] {
                    usize::MAX => self.loc[root],
                    slot => Loc::Own(slot),
                };
                if table.node(root).op.is_set() {
                    let words = self.read(at, self.d.set_len()).to_vec();
                    DefValue::Set(EventSet::from_words(self.d.n, words))
                } else {
                    let words = self.read(at, self.d.rel_len()).to_vec();
                    DefValue::Rel(Relation::from_words(self.d.n, words))
                }
            })
            .collect()
    }

    /// Fixed base relation `r` of the interpreter's graph, before any
    /// restriction to an execution.
    pub(crate) fn fixed(&self, r: BaseRel) -> RelView<'_> {
        self.base.fixed(r)
    }

    fn start(&mut self, exec: &Execution<'_>) {
        assert!(
            std::ptr::eq(exec.graph, self.graph),
            "execution of another graph"
        );
        self.base.fill(exec);
        self.done.fill(0);
    }

    fn read(&self, at: Loc, len: usize) -> &[u64] {
        match at {
            Loc::Base(off) => &self.base.words()[off..off + len],
            Loc::Own(off) => &self.words[off..off + len],
        }
    }

    /// The value of axiom `i`'s relation, once evaluated.
    fn axiom_value(&self, i: usize) -> RelView<'_> {
        let root = self.model.nodes().axiom_root(i);
        RelView::new(self.d, self.read(self.loc[root], self.d.rel_len()))
    }

    /// Evaluates what axiom `i` reaches and whether the axiom holds.
    fn axiom_holds(&mut self, i: usize) -> bool {
        let model = self.model;
        self.eval(model.nodes().reach(i));
        let axiom = &model.axioms()[i];
        let d = self.d;
        let root = model.nodes().axiom_root(i);
        let at = self.loc[root];
        let raw = match axiom.kind {
            AxiomKind::Empty => arena::is_empty(self.read(at, d.rel_len())),
            AxiomKind::Irreflexive => !arena::has_diagonal(d, self.read(at, d.rel_len())),
            AxiomKind::Acyclic => {
                let words = match at {
                    Loc::Base(off) => &self.base.words()[off..off + d.rel_len()],
                    Loc::Own(off) => &self.words[off..off + d.rel_len()],
                };
                !arena::is_cyclic(d, words, &mut self.cycle)
            }
        };
        raw != axiom.negated
    }

    /// Evaluates the nodes of `mask` not evaluated yet, in node order; a
    /// `let rec` group is iterated to its fixpoint as one step.
    fn eval(&mut self, mask: &[u64]) {
        let table = self.model.nodes();
        for (k, &m) in mask.iter().enumerate() {
            let mut bits = m & !self.done[k];
            while bits != 0 {
                let id = k * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if id >= table.len() || self.done[id / 64] >> (id % 64) & 1 == 1 {
                    continue;
                }
                match self.group_at[id] {
                    0 => {
                        self.node(table, id);
                        self.done[k] |= 1 << (id % 64);
                    }
                    g => self.group(table, g as usize - 1),
                }
            }
        }
    }

    /// Iterates a `let rec` group from empty until no definition of it
    /// changes, re-evaluating each definition's body in model order.
    /// Every member is evaluated: an axiom's reach takes a group whole.
    fn group(&mut self, table: &NodeTable, g: usize) {
        let rel_len = self.d.rel_len();
        let (first, last) = (self.groups[g].first, self.groups[g].last);
        let defs = std::mem::take(&mut self.groups[g].defs);
        for &d in &defs {
            self.words[self.def_val[d]..][..rel_len].fill(0);
        }
        loop {
            let mut changed = false;
            for &d in &defs {
                let root = table.def_root(d);
                let start = if d == 0 { 0 } else { table.def_root(d - 1) + 1 };
                for id in start..=root {
                    self.node(table, id);
                }
                let val = self.def_val[d];
                let (slot, src) = split(&mut self.words, val, rel_len);
                let next = match self.loc[root] {
                    Loc::Base(off) => &self.base.words()[off..off + rel_len],
                    // `let rec a = a`: the root is the value's own slot,
                    // which stays empty.
                    Loc::Own(off) if off == val => continue,
                    Loc::Own(off) => src.get(off, rel_len),
                };
                if slot != next {
                    slot.copy_from_slice(next);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.groups[g].defs = defs;
        for id in first..=last {
            self.done[id / 64] |= 1 << (id % 64);
        }
    }

    /// Evaluates one node from its operands' slots.
    fn node(&mut self, table: &NodeTable, id: usize) {
        let node = table.node(id);
        let Loc::Own(out) = self.loc[id] else {
            return; // a base value
        };
        let d = self.d;
        let [a, b] = node.kids;
        let len = match node.op {
            Op::Ref(_) | Op::SetRef(_) | Op::Base(_) | Op::Tag(_) | Op::Universe | Op::Id => return,
            op if op.is_set() => d.set_len(),
            _ => d.rel_len(),
        };
        let (la, lb) = (self.loc[a], self.loc[b]);
        let (slot, src) = split(&mut self.words, out, len);
        let base = self.base.words();
        let get = |at: Loc, len: usize| match at {
            Loc::Base(off) => &base[off..off + len],
            Loc::Own(off) => src.get(off, len),
        };
        let (rel, set) = (d.rel_len(), d.set_len());
        match node.op {
            Op::IdSet => arena::identity_on(d, slot, get(la, set)),
            Op::Cross => arena::cross(d, slot, get(la, set), get(lb, set)),
            Op::Union => arena::union(slot, get(la, rel), get(lb, rel)),
            Op::Inter => arena::inter(slot, get(la, rel), get(lb, rel)),
            Op::Diff => arena::diff(slot, get(la, rel), get(lb, rel)),
            Op::Seq => arena::compose(d, slot, get(la, rel), get(lb, rel)),
            Op::Inverse => arena::inverse(d, slot, get(la, rel)),
            Op::Plus | Op::Star => {
                slot.copy_from_slice(get(la, rel));
                arena::close(d, slot);
                if node.op == Op::Star {
                    arena::reflexive(d, slot);
                }
            }
            Op::Opt => {
                slot.copy_from_slice(get(la, rel));
                arena::reflexive(d, slot);
            }
            Op::SetUnion => arena::union(slot, get(la, set), get(lb, set)),
            Op::SetInter => arena::inter(slot, get(la, set), get(lb, set)),
            Op::SetDiff => arena::diff(slot, get(la, set), get(lb, set)),
            Op::Domain => arena::domain(d, slot, get(la, rel)),
            Op::Range => arena::range(d, slot, get(la, rel)),
            Op::Ref(_) | Op::SetRef(_) | Op::Base(_) | Op::Tag(_) | Op::Universe | Op::Id => {
                unreachable!("aliases have no slot of their own")
            }
        }
    }
}
