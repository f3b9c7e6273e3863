//! Evaluating `.cat` models over concrete executions.

use gpumc_cat::{Axiom, AxiomKind, CatModel, DefBody, RelExpr, SetExpr};
use gpumc_ir::EventId;

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

/// A `.cat` model evaluator over concrete executions.
///
/// # Example
///
/// ```no_run
/// # fn graph() -> gpumc_ir::EventGraph { unimplemented!() }
/// let model = gpumc_cat::parse("let fr = rf^-1; co\nacyclic po | rf | fr | co").unwrap();
/// let graph = graph();
/// let exec = gpumc_exec::Execution::new(&graph);
/// let verdict = gpumc_exec::Interpreter::new(&model).check(&exec);
/// println!("consistent: {}", verdict.consistent);
/// ```
#[derive(Debug)]
pub struct Interpreter<'m> {
    model: &'m CatModel,
}

/// The value of one definition over an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefValue {
    /// A set-kinded definition.
    Set(EventSet),
    /// A relation-kinded definition.
    Rel(Relation),
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter for a model.
    pub fn new(model: &'m CatModel) -> Interpreter<'m> {
        Interpreter { model }
    }

    /// Checks an execution: evaluates all definitions and axioms.
    pub fn check(&self, exec: &Execution<'_>) -> ConsistencyVerdict {
        let base = BaseInterpretation::compute(exec);
        self.check_with_base(&base)
    }

    /// Checks using a precomputed base interpretation.
    pub fn check_with_base(&self, base: &BaseInterpretation) -> ConsistencyVerdict {
        let defs = self.eval_defs(base);
        let mut verdict = ConsistencyVerdict {
            consistent: true,
            failed_axiom: None,
            flags: Vec::new(),
        };
        for (i, axiom) in self.model.axioms().iter().enumerate() {
            let rel = eval_rel(&axiom.expr, base, &defs);
            let holds = axiom_holds(axiom, &rel);
            if axiom.flagged {
                if holds {
                    let pairs: Vec<(EventId, EventId)> = rel.iter().take(16).collect();
                    verdict.flags.push(FlagHit {
                        name: axiom.label(i),
                        pairs,
                    });
                }
            } else if !holds && verdict.consistent {
                verdict.consistent = false;
                verdict.failed_axiom = Some(axiom.label(i));
            }
        }
        if !verdict.consistent {
            verdict.flags.clear();
        }
        verdict
    }

    /// Checks only the axioms at the given indices, returning whether all
    /// of them hold. The DPOR engine uses this to prune partially-built
    /// candidates: an axiom that is monotone in the still-growing inputs
    /// (`co`, `sync_fence`) and already fails on a partial execution fails
    /// on every completion of it.
    pub fn check_axioms(&self, exec: &Execution<'_>, indices: &[usize]) -> bool {
        let base = BaseInterpretation::compute(exec);
        let defs = self.eval_defs(&base);
        let axioms = self.model.axioms();
        indices.iter().all(|&i| {
            let axiom = &axioms[i];
            axiom_holds(axiom, &eval_rel(&axiom.expr, &base, &defs))
        })
    }

    /// Evaluates a named definition (useful for tests and diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if the name is not defined or is set-kinded.
    pub fn eval_named_rel(&self, name: &str, exec: &Execution<'_>) -> Relation {
        let base = BaseInterpretation::compute(exec);
        let defs = self.eval_defs(&base);
        let id = self.model.def_id(name).expect("unknown definition");
        match &defs[id] {
            DefValue::Rel(r) => r.clone(),
            DefValue::Set(_) => panic!("`{name}` is a set"),
        }
    }

    /// Evaluates every definition over an execution, indexed by
    /// [`gpumc_cat::DefId`].
    pub fn def_values(&self, exec: &Execution<'_>) -> Vec<DefValue> {
        self.eval_defs(&BaseInterpretation::compute(exec))
    }

    fn eval_defs(&self, base: &BaseInterpretation) -> Vec<DefValue> {
        let n = base.universe();
        let model_defs = self.model.defs();
        let mut values: Vec<DefValue> = Vec::with_capacity(model_defs.len());
        let mut i = 0;
        while i < model_defs.len() {
            match model_defs[i].rec_group {
                None => {
                    let v = match &model_defs[i].body {
                        DefBody::Set(s) => DefValue::Set(eval_set(s, base, &values)),
                        DefBody::Rel(r) => DefValue::Rel(eval_rel(r, base, &values)),
                    };
                    values.push(v);
                    i += 1;
                }
                Some(group) => {
                    // Collect the whole group and iterate to a fixpoint.
                    let start = i;
                    let mut end = i;
                    while end < model_defs.len() && model_defs[end].rec_group == Some(group) {
                        end += 1;
                    }
                    for _ in start..end {
                        values.push(DefValue::Rel(Relation::empty(n)));
                    }
                    loop {
                        let mut changed = false;
                        for j in start..end {
                            let DefBody::Rel(body) = &model_defs[j].body else {
                                unreachable!("recursive defs are relations");
                            };
                            let next = eval_rel(body, base, &values);
                            let DefValue::Rel(cur) = &values[j] else {
                                unreachable!()
                            };
                            if &next != cur {
                                values[j] = DefValue::Rel(next);
                                changed = true;
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                    i = end;
                }
            }
        }
        values
    }
}

fn axiom_holds(axiom: &Axiom, rel: &Relation) -> bool {
    let raw = match axiom.kind {
        AxiomKind::Empty => rel.is_empty(),
        AxiomKind::Irreflexive => !rel.has_reflexive_pair(),
        AxiomKind::Acyclic => !rel.is_cyclic(),
    };
    raw != axiom.negated
}

fn eval_set(e: &SetExpr, base: &BaseInterpretation, defs: &[DefValue]) -> EventSet {
    let n = base.universe();
    match e {
        SetExpr::Base(name) => base
            .set(name)
            .cloned()
            .unwrap_or_else(|| EventSet::empty(n)),
        SetExpr::Ref(id) => match &defs[*id] {
            DefValue::Set(s) => s.clone(),
            DefValue::Rel(_) => unreachable!("kind-checked"),
        },
        // The universe restricted to executed events (consistent with the
        // SAT encoding, where every relation is execution-gated).
        SetExpr::Universe => base.set("_").cloned().unwrap_or_else(|| EventSet::full(n)),
        SetExpr::Union(a, b) => eval_set(a, base, defs).union(&eval_set(b, base, defs)),
        SetExpr::Inter(a, b) => eval_set(a, base, defs).inter(&eval_set(b, base, defs)),
        SetExpr::Diff(a, b) => eval_set(a, base, defs).diff(&eval_set(b, base, defs)),
        SetExpr::Domain(r) => eval_rel(r, base, defs).domain(),
        SetExpr::Range(r) => eval_rel(r, base, defs).range(),
    }
}

fn eval_rel(e: &RelExpr, base: &BaseInterpretation, defs: &[DefValue]) -> Relation {
    let n = base.universe();
    match e {
        RelExpr::Base(name) => base
            .rel(name)
            .cloned()
            .unwrap_or_else(|| Relation::empty(n)),
        RelExpr::Ref(id) => match &defs[*id] {
            DefValue::Rel(r) => r.clone(),
            DefValue::Set(_) => unreachable!("kind-checked"),
        },
        RelExpr::Id => Relation::identity(n),
        RelExpr::IdSet(s) => Relation::identity_on(&eval_set(s, base, defs)),
        RelExpr::Cross(a, b) => Relation::cross(&eval_set(a, base, defs), &eval_set(b, base, defs)),
        RelExpr::Union(a, b) => eval_rel(a, base, defs).union(&eval_rel(b, base, defs)),
        RelExpr::Inter(a, b) => eval_rel(a, base, defs).inter(&eval_rel(b, base, defs)),
        RelExpr::Diff(a, b) => eval_rel(a, base, defs).diff(&eval_rel(b, base, defs)),
        RelExpr::Seq(a, b) => eval_rel(a, base, defs).compose(&eval_rel(b, base, defs)),
        RelExpr::Inverse(a) => eval_rel(a, base, defs).inverse(),
        RelExpr::Plus(a) => eval_rel(a, base, defs).transitive_closure(),
        RelExpr::Star(a) => eval_rel(a, base, defs).refl_transitive_closure(),
        RelExpr::Opt(a) => eval_rel(a, base, defs).refl_closure(),
    }
}
