//! Soundness of the relation analysis against the interpreter.
//!
//! The encoder builds every model expression only on its active pairs,
//! which lie inside the expression's upper bound (DESIGN.md §4), so a
//! pair that the bounds wrongly exclude is silently encoded as false. No
//! other gate compares the bounds with concrete executions directly. For
//! every validation-tier test, under each model of its dialect at
//! `min(bound, 2)`, this suite enumerates the consistent executions and
//! checks, on each one:
//!
//! * every interpreted base set, base relation and definition lies
//!   within its upper bound;
//! * every lower-bound pair (member) whose events executed holds.

use gpumc_cat::{BaseEnv, CatModel, DefBody};
use gpumc_encode::RelationAnalysis;
use gpumc_exec::arena::{RelView, SetView};
use gpumc_exec::{
    enumerate, BaseInterpretation, DefValue, EnumerateOptions, EventSet, Interpreter, Relation,
};
use gpumc_ir::{compile, unroll, EventGraph};
use gpumc_models::ModelKind;

/// Problems reported per (test, model) before the rest are elided.
const MAX_REPORTED: usize = 5;

/// Bounds of one definition, taken from the analysis once per graph.
enum DefBounds {
    Rel { upper: Relation, lower: Relation },
    Set { upper: EventSet, lower: EventSet },
}

/// What one (test, model) sweep checked.
#[derive(Default)]
struct Sweep {
    executions: usize,
    problems: Vec<String>,
}

impl Sweep {
    fn report(&mut self, problem: String) {
        if self.problems.len() < MAX_REPORTED {
            self.problems.push(problem);
        }
    }

    /// `value ⊆ upper`, and `lower ⊆ value` on executed pairs.
    fn check_rel(
        &mut self,
        what: &str,
        value: RelView<'_>,
        upper: RelView<'_>,
        lower: RelView<'_>,
        executed: &EventSet,
    ) {
        for (a, b) in value.iter() {
            if !upper.contains(a, b) {
                self.report(format!(
                    "{what}: ({}, {}) outside the upper bound",
                    a.0, b.0
                ));
            }
        }
        for (a, b) in lower.iter() {
            if executed.contains(a) && executed.contains(b) && !value.contains(a, b) {
                self.report(format!(
                    "{what}: lower-bound pair ({}, {}) does not hold",
                    a.0, b.0
                ));
            }
        }
    }

    /// `value ⊆ upper`, and `lower ⊆ value` on executed members.
    fn check_set(
        &mut self,
        what: &str,
        value: SetView<'_>,
        upper: SetView<'_>,
        lower: SetView<'_>,
        executed: &EventSet,
    ) {
        for e in value.iter() {
            if !upper.contains(e) {
                self.report(format!("{what}: {} outside the upper bound", e.0));
            }
        }
        for e in lower.iter() {
            if executed.contains(e) && !value.contains(e) {
                self.report(format!("{what}: lower-bound member {} missing", e.0));
            }
        }
    }
}

fn sweep(g: &EventGraph, model: &CatModel) -> Sweep {
    let env = BaseEnv::builtin();
    let mut analysis = RelationAnalysis::new(g, model);
    let defs: Vec<DefBounds> = (0..model.defs().len())
        .map(|i| match model.def(i).body {
            DefBody::Rel(_) => DefBounds::Rel {
                upper: analysis.def_upper(i).expect("relation").to_relation(),
                lower: analysis.def_lower(i).expect("relation").to_relation(),
            },
            DefBody::Set(_) => DefBounds::Set {
                upper: analysis.def_set(i).expect("set").to_set(),
                lower: analysis.def_set_lower(i).expect("set").to_set(),
            },
        })
        .collect();
    let mut interpreter = Interpreter::new(model, g);
    let mut out = Sweep::default();
    let enumerated = enumerate(g, model, &EnumerateOptions::default(), |b| {
        out.executions += 1;
        let exec = &b.execution;
        let base = BaseInterpretation::compute(exec);
        for &name in env.rels() {
            let (Some(value), Some(upper), Some(lower)) = (
                base.rel(name),
                analysis.base_upper(name),
                analysis.base_lower(name),
            ) else {
                out.report(format!("base relation {name} has no bounds"));
                continue;
            };
            out.check_rel(name, value, upper, lower, &exec.executed);
        }
        for &name in env.sets() {
            let (Some(value), Some(members)) = (base.set(name), analysis.set(name)) else {
                out.report(format!("base set {name} has no bounds"));
                continue;
            };
            out.check_set(name, value, members, members, &exec.executed);
        }
        for (i, value) in interpreter.def_values(exec).iter().enumerate() {
            let what = format!("definition {}", model.def(i).name);
            match (value, &defs[i]) {
                (DefValue::Rel(r), DefBounds::Rel { upper, lower }) => {
                    out.check_rel(&what, r.view(), upper.view(), lower.view(), &exec.executed)
                }
                (DefValue::Set(s), DefBounds::Set { upper, lower }) => {
                    out.check_set(&what, s.view(), upper.view(), lower.view(), &exec.executed)
                }
                _ => out.report(format!("{what}: kind differs from its bounds")),
            }
        }
    });
    if enumerated.is_err() {
        // Too large or unsupported for the enumeration engine: nothing
        // to compare against.
        out.executions = 0;
    }
    out
}

#[test]
fn bounds_hold_on_every_consistent_execution_of_the_validation_tier() {
    let tests = gpumc_catalog::tier_tests(gpumc_catalog::Tier::Validation);
    let (mut pairs, mut executions) = (0, 0);
    let mut problems = Vec::new();
    for t in &tests {
        let p = gpumc_litmus::parse(&t.source).expect("catalog test parses");
        let g = compile(&unroll(&p, t.bound.min(2)).expect("unrolls"));
        let models: &[ModelKind] = if t.source.trim_start().starts_with("PTX") {
            &[ModelKind::Ptx60, ModelKind::Ptx75]
        } else {
            &[ModelKind::Vulkan]
        };
        for &kind in models {
            let model = gpumc_models::load_shared(kind);
            let s = sweep(&g, &model);
            pairs += 1;
            executions += s.executions;
            problems.extend(
                s.problems
                    .into_iter()
                    .map(|m| format!("{} under {kind:?}: {m}", t.name)),
            );
        }
    }
    assert!(
        problems.is_empty(),
        "{} bound violations over {pairs} test/model pairs:\n{}",
        problems.len(),
        problems.join("\n")
    );
    assert!(
        executions >= 1000,
        "only {executions} executions checked over {pairs} test/model pairs"
    );
}
