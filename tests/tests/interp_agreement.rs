//! The arena interpreter against the recursive reference evaluator.
//!
//! `Interpreter` evaluates a model's compiled node table over flat bit
//! arenas, evaluates only the nodes the checked axioms reach, and stops
//! at the first failing axiom. The reference below is the evaluator it
//! replaced: a recursive walk over `RelExpr`/`SetExpr` building one
//! `Relation` per expression, fed by `BaseInterpretation`'s values. For
//! every behaviour the enumeration engine visits on the validation tier,
//! under each model of the test's dialect, and for each of them again
//! with one `co` pair reversed (so that inconsistent executions are
//! covered too), both must give the same `ConsistencyVerdict`, and
//! `check_axioms` over the axioms DPOR prunes with must agree with the
//! reference on those axioms. The shipped models' `let rec` groups have
//! one definition each and rarely need a second round, so the same
//! executions are also checked under small models with the `let rec`
//! shapes they lack.

use gpumc_cat::{Axiom, AxiomKind, CatModel, DefBody, RelExpr, SetExpr};
use gpumc_exec::{
    enumerate, monotone_axioms, BaseInterpretation, ConsistencyVerdict, EnumerateOptions, EventSet,
    Execution, FlagHit, Interpreter, Relation,
};
use gpumc_ir::{compile, unroll, EventGraph};
use gpumc_models::ModelKind;

/// One definition's value in the reference.
enum Value {
    Set(EventSet),
    Rel(Relation),
}

/// The recursive evaluator over one execution's base values.
struct Reference<'m> {
    model: &'m CatModel,
    base: BaseInterpretation,
}

impl Reference<'_> {
    fn base_rel(&self, name: &str) -> Relation {
        self.base
            .rel(name)
            .map(|r| r.to_relation())
            .unwrap_or_else(|| Relation::empty(self.base.universe()))
    }

    fn base_set(&self, name: &str) -> EventSet {
        self.base
            .set(name)
            .map(|s| s.to_set())
            .unwrap_or_else(|| EventSet::empty(self.base.universe()))
    }

    fn set(&self, e: &SetExpr, defs: &[Value]) -> EventSet {
        match e {
            SetExpr::Base(name) => self.base_set(name),
            SetExpr::Ref(id) => match &defs[*id] {
                Value::Set(s) => s.clone(),
                Value::Rel(_) => unreachable!("kind-checked"),
            },
            SetExpr::Universe => self.base_set("_"),
            SetExpr::Union(a, b) => self.set(a, defs).union(&self.set(b, defs)),
            SetExpr::Inter(a, b) => self.set(a, defs).inter(&self.set(b, defs)),
            SetExpr::Diff(a, b) => self.set(a, defs).diff(&self.set(b, defs)),
            SetExpr::Domain(r) => self.rel(r, defs).domain(),
            SetExpr::Range(r) => self.rel(r, defs).range(),
        }
    }

    fn rel(&self, e: &RelExpr, defs: &[Value]) -> Relation {
        let n = self.base.universe();
        match e {
            RelExpr::Base(name) => self.base_rel(name),
            RelExpr::Ref(id) => match &defs[*id] {
                Value::Rel(r) => r.clone(),
                Value::Set(_) => unreachable!("kind-checked"),
            },
            RelExpr::Id => Relation::identity(n),
            RelExpr::IdSet(s) => Relation::identity_on(&self.set(s, defs)),
            RelExpr::Cross(a, b) => Relation::cross(&self.set(a, defs), &self.set(b, defs)),
            RelExpr::Union(a, b) => self.rel(a, defs).union(&self.rel(b, defs)),
            RelExpr::Inter(a, b) => self.rel(a, defs).inter(&self.rel(b, defs)),
            RelExpr::Diff(a, b) => self.rel(a, defs).diff(&self.rel(b, defs)),
            RelExpr::Seq(a, b) => self.rel(a, defs).compose(&self.rel(b, defs)),
            RelExpr::Inverse(a) => self.rel(a, defs).inverse(),
            RelExpr::Plus(a) => self.rel(a, defs).transitive_closure(),
            RelExpr::Star(a) => self.rel(a, defs).refl_transitive_closure(),
            RelExpr::Opt(a) => self.rel(a, defs).refl_closure(),
        }
    }

    /// Every definition in model order; a `let rec` group is iterated
    /// from empty until no member changes.
    fn defs(&self) -> Vec<Value> {
        let n = self.base.universe();
        let defs = self.model.defs();
        let mut values: Vec<Value> = Vec::with_capacity(defs.len());
        let mut i = 0;
        while i < defs.len() {
            let Some(group) = defs[i].rec_group else {
                values.push(match &defs[i].body {
                    DefBody::Set(s) => Value::Set(self.set(s, &values)),
                    DefBody::Rel(r) => Value::Rel(self.rel(r, &values)),
                });
                i += 1;
                continue;
            };
            let mut end = i;
            while end < defs.len() && defs[end].rec_group == Some(group) {
                values.push(Value::Rel(Relation::empty(n)));
                end += 1;
            }
            loop {
                let mut changed = false;
                for j in i..end {
                    let DefBody::Rel(body) = &defs[j].body else {
                        unreachable!("recursive definitions are relations");
                    };
                    let next = self.rel(body, &values);
                    let Value::Rel(cur) = &values[j] else {
                        unreachable!()
                    };
                    if &next != cur {
                        values[j] = Value::Rel(next);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            i = end;
        }
        values
    }

    fn holds(axiom: &Axiom, rel: &Relation) -> bool {
        let raw = match axiom.kind {
            AxiomKind::Empty => rel.is_empty(),
            AxiomKind::Irreflexive => !rel.has_reflexive_pair(),
            AxiomKind::Acyclic => !rel.transitive_closure().has_reflexive_pair(),
        };
        raw != axiom.negated
    }

    /// Whether each axiom holds, and its relation.
    fn axioms(&self) -> Vec<(bool, Relation)> {
        let defs = self.defs();
        self.model
            .axioms()
            .iter()
            .map(|a| {
                let rel = self.rel(&a.expr, &defs);
                (Reference::holds(a, &rel), rel)
            })
            .collect()
    }

    fn verdict(&self) -> ConsistencyVerdict {
        let mut verdict = ConsistencyVerdict {
            consistent: true,
            failed_axiom: None,
            flags: Vec::new(),
        };
        for (i, (axiom, (holds, rel))) in self.model.axioms().iter().zip(self.axioms()).enumerate()
        {
            if axiom.flagged {
                if holds {
                    verdict.flags.push(FlagHit {
                        name: axiom.label(i),
                        pairs: rel.iter().take(16).collect(),
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
}

/// `exec` with its last `co` pair reversed, if it has one.
fn with_co_reversed<'g>(exec: &Execution<'g>) -> Option<Execution<'g>> {
    let (a, b) = exec.co.iter().last()?;
    let mut flipped = exec.clone();
    flipped.co = Relation::from_pairs(
        exec.co.universe(),
        exec.co.iter().map(|p| if p == (a, b) { (b, a) } else { p }),
    );
    Some(flipped)
}

/// The behaviours enumeration visits under `model`, then each again
/// with its last `co` pair reversed; empty when the test is too large or
/// unsupported for the enumeration engine.
fn visited<'g>(g: &'g EventGraph, model: &CatModel) -> Vec<Execution<'g>> {
    let mut execs: Vec<Execution<'g>> = Vec::new();
    if enumerate(g, model, &EnumerateOptions::default(), |b| {
        execs.push(b.execution.clone())
    })
    .is_err()
    {
        return Vec::new();
    }
    let flipped: Vec<Execution<'g>> = execs.iter().filter_map(with_co_reversed).collect();
    execs.extend(flipped);
    execs
}

/// Executions compared and disagreements found, for one (test, model).
#[derive(Default)]
struct Sweep {
    executions: usize,
    inconsistent: usize,
    /// Executions the reference raises a flag on.
    flagged: usize,
    problems: Vec<String>,
}

fn sweep(g: &EventGraph, model: &CatModel, execs: &[Execution<'_>]) -> Sweep {
    let prunable = monotone_axioms(model);
    let mut interpreter = Interpreter::new(model, g);
    let mut out = Sweep::default();
    for exec in execs {
        out.executions += 1;
        let reference = Reference {
            model,
            base: BaseInterpretation::compute(exec),
        };
        let expected = reference.verdict();
        out.inconsistent += usize::from(!expected.consistent);
        out.flagged += usize::from(!expected.flags.is_empty());
        let got = interpreter.check(exec);
        if got != expected {
            out.problems.push(format!(
                "check: expected {expected:?}, got {got:?}\n{}",
                exec.render()
            ));
        }
        let axioms = reference.axioms();
        let expected = prunable.iter().all(|&i| axioms[i].0);
        if interpreter.check_axioms(exec, &prunable) != expected {
            out.problems.push(format!(
                "check_axioms over {prunable:?}: expected {expected}\n{}",
                exec.render()
            ));
        }
    }
    out
}

/// The validation tier's tests, compiled, with their dialect's models.
fn validation_graphs() -> Vec<(String, EventGraph, &'static [ModelKind])> {
    gpumc_catalog::tier_tests(gpumc_catalog::Tier::Validation)
        .iter()
        .map(|t| {
            let p = gpumc_litmus::parse(&t.source).expect("catalog test parses");
            let g = compile(&unroll(&p, t.bound.min(2)).expect("unrolls"));
            let models: &[ModelKind] = if t.source.trim_start().starts_with("PTX") {
                &[ModelKind::Ptx60, ModelKind::Ptx75]
            } else {
                &[ModelKind::Vulkan]
            };
            (t.name.clone(), g, models)
        })
        .collect()
}

#[test]
fn interpreter_agrees_with_the_reference_on_the_validation_tier() {
    let (mut executions, mut inconsistent) = (0, 0);
    let mut problems = Vec::new();
    for (name, g, models) in &validation_graphs() {
        for &kind in *models {
            let model = gpumc_models::load_shared(kind);
            let s = sweep(g, &model, &visited(g, &model));
            executions += s.executions;
            inconsistent += s.inconsistent;
            problems.extend(
                s.problems
                    .into_iter()
                    .take(3)
                    .map(|m| format!("{name} under {kind:?}: {m}")),
            );
        }
    }
    assert!(
        problems.is_empty(),
        "{} disagreements:\n{}",
        problems.len(),
        problems.join("\n")
    );
    assert!(
        executions >= 5000 && inconsistent >= 200,
        "only {executions} executions ({inconsistent} inconsistent) compared"
    );
}

/// Models with `let rec` shapes the shipped ones lack. Each one's flag
/// is raised on some execution of the validation tier, and only when
/// its group is evaluated whole and to its fixpoint.
const RECURSIVE_MODELS: &[&str] = &[
    // Axioms that reach different members of one group: checking `a`
    // must not leave `b` unevaluated for the axioms after it.
    "let rec a = po and b = a | co | co^-1\nacyclic a\nacyclic b\nflag ~empty b as b",
    "let fr = rf^-1; co\nlet rec a = po | fr and b = rf | (b; a)\nacyclic a\nflag ~empty b as b",
    // An `rf; rmw; rf` chain first appears in the second round.
    "let rec obs = rf | (obs; rmw; obs)\nacyclic po | obs | co\nflag ~empty obs \\ rf as chained",
    // A definition that names itself stays empty.
    "let rec a = a\nacyclic a | po\nflag ~empty po \\ a as po",
];

#[test]
fn interpreter_agrees_with_the_reference_on_recursive_groups() {
    let models: Vec<CatModel> = RECURSIVE_MODELS
        .iter()
        .map(|src| gpumc_cat::parse(src).expect("model parses"))
        .collect();
    let mut flagged = vec![0; models.len()];
    let mut problems = Vec::new();
    for (name, g, kinds) in &validation_graphs() {
        let execs = visited(g, &gpumc_models::load_shared(kinds[0]));
        for (k, model) in models.iter().enumerate() {
            let s = sweep(g, model, &execs);
            flagged[k] += s.flagged;
            problems.extend(
                s.problems
                    .into_iter()
                    .take(3)
                    .map(|m| format!("{name} under model {k}: {m}")),
            );
        }
    }
    assert!(
        problems.is_empty(),
        "{} disagreements:\n{}",
        problems.len(),
        problems.join("\n")
    );
    for (k, &n) in flagged.iter().enumerate() {
        assert!(n > 0, "model {k} raised its flag on no execution");
    }
}
