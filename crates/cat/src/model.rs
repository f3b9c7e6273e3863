//! Resolved (kind-checked) consistency models.

pub use crate::ast::AxiomKind;
use crate::table::NodeTable;

/// Index of a `let` definition within a [`CatModel`].
pub type DefId = usize;

/// A resolved set-valued expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetExpr {
    /// A base event tag, interpreted by the consumer (e.g. `W`, `SEMSC0`).
    Base(String),
    /// Reference to a set-kinded definition.
    Ref(DefId),
    /// The universe of events (`_`).
    Universe,
    /// Set union.
    Union(Box<SetExpr>, Box<SetExpr>),
    /// Set intersection.
    Inter(Box<SetExpr>, Box<SetExpr>),
    /// Set difference.
    Diff(Box<SetExpr>, Box<SetExpr>),
    /// The domain of a relation.
    Domain(Box<RelExpr>),
    /// The range of a relation.
    Range(Box<RelExpr>),
}

/// A resolved relation-valued expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelExpr {
    /// A base relation, interpreted by the consumer (e.g. `po`, `vloc`).
    Base(String),
    /// Reference to a relation-kinded definition.
    Ref(DefId),
    /// The full identity relation (`id`).
    Id,
    /// Identity restricted to a set (`[S]`).
    IdSet(SetExpr),
    /// Cartesian product of two sets (`S1 * S2`).
    Cross(SetExpr, SetExpr),
    /// Relation union.
    Union(Box<RelExpr>, Box<RelExpr>),
    /// Relation intersection.
    Inter(Box<RelExpr>, Box<RelExpr>),
    /// Relation difference.
    Diff(Box<RelExpr>, Box<RelExpr>),
    /// Relation composition (`r1; r2`).
    Seq(Box<RelExpr>, Box<RelExpr>),
    /// Relation inverse (`r^-1`).
    Inverse(Box<RelExpr>),
    /// Transitive closure (`r+`).
    Plus(Box<RelExpr>),
    /// Reflexive-transitive closure (`r*`).
    Star(Box<RelExpr>),
    /// Reflexive closure (`r?` = `r | id`).
    Opt(Box<RelExpr>),
}

/// The body of a definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefBody {
    /// A set-kinded definition.
    Set(SetExpr),
    /// A relation-kinded definition.
    Rel(RelExpr),
}

/// A resolved `let` definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// The bound name (for diagnostics; lookups use [`DefId`]s).
    pub name: String,
    /// The body.
    pub body: DefBody,
    /// Identifier of the `let rec` group this definition belongs to, if
    /// any. Definitions in the same group may reference each other (and
    /// themselves) and are evaluated as a least fixpoint.
    pub rec_group: Option<usize>,
}

/// A resolved axiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axiom {
    /// Constraint kind.
    pub kind: AxiomKind,
    /// `flag` axioms report detections (e.g. data races) instead of
    /// filtering behaviours.
    pub flagged: bool,
    /// `~` negates the condition (`flag ~empty dr` detects non-emptiness).
    pub negated: bool,
    /// The constrained relation.
    pub expr: RelExpr,
    /// Optional label from `as name`.
    pub name: Option<String>,
}

impl Axiom {
    /// A human-readable label for the axiom.
    pub fn label(&self, index: usize) -> String {
        self.display_label(index).to_string()
    }

    /// The label of [`Axiom::label`], formatted only when displayed.
    pub fn display_label(&self, index: usize) -> impl std::fmt::Display + '_ {
        Label { axiom: self, index }
    }
}

struct Label<'a> {
    axiom: &'a Axiom,
    index: usize,
}

impl std::fmt::Display for Label<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.axiom.name {
            Some(name) => f.write_str(name),
            None => write!(f, "axiom-{}-{}", self.index, self.axiom.kind),
        }
    }
}

/// A fully resolved consistency model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatModel {
    name: String,
    defs: Vec<Def>,
    axioms: Vec<Axiom>,
    /// The compiled node table, built once at resolve time.
    nodes: NodeTable,
}

impl CatModel {
    pub(crate) fn new(name: String, defs: Vec<Def>, axioms: Vec<Axiom>) -> CatModel {
        let nodes = NodeTable::compile(&defs, &axioms);
        CatModel {
            name,
            defs,
            axioms,
            nodes,
        }
    }

    /// The compiled node table every evaluator of the model walks.
    pub fn nodes(&self) -> &NodeTable {
        &self.nodes
    }

    /// The model title (empty string if the source had none).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All definitions, in dependency order (a definition only references
    /// earlier definitions, or same-group definitions when recursive).
    pub fn defs(&self) -> &[Def] {
        &self.defs
    }

    /// A definition by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn def(&self, id: DefId) -> &Def {
        &self.defs[id]
    }

    /// All axioms in source order.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// The flagged axioms (detectors such as data races).
    pub fn flagged_axioms(&self) -> impl Iterator<Item = &Axiom> {
        self.axioms.iter().filter(|a| a.flagged)
    }

    /// Looks up a definition id by name (the last binding wins, matching
    /// cat shadowing).
    pub fn def_id(&self, name: &str) -> Option<DefId> {
        self.defs.iter().rposition(|d| d.name == name)
    }

    /// Base relation names referenced anywhere in the model.
    pub fn referenced_base_rels(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in &self.defs {
            match &d.body {
                DefBody::Set(s) => collect_set(s, &mut out),
                DefBody::Rel(r) => collect_rel(r, &mut out),
            }
        }
        for a in &self.axioms {
            collect_rel(&a.expr, &mut out);
        }
        out.sort();
        out.dedup();
        out
    }
}

fn collect_set(s: &SetExpr, out: &mut Vec<String>) {
    match s {
        SetExpr::Base(_) | SetExpr::Ref(_) | SetExpr::Universe => {}
        SetExpr::Union(a, b) | SetExpr::Inter(a, b) | SetExpr::Diff(a, b) => {
            collect_set(a, out);
            collect_set(b, out);
        }
        SetExpr::Domain(r) | SetExpr::Range(r) => collect_rel(r, out),
    }
}

fn collect_rel(r: &RelExpr, out: &mut Vec<String>) {
    match r {
        RelExpr::Base(n) => out.push(n.clone()),
        RelExpr::Ref(_) | RelExpr::Id => {}
        RelExpr::IdSet(s) => collect_set(s, out),
        RelExpr::Cross(a, b) => {
            collect_set(a, out);
            collect_set(b, out);
        }
        RelExpr::Union(a, b) | RelExpr::Inter(a, b) | RelExpr::Diff(a, b) | RelExpr::Seq(a, b) => {
            collect_rel(a, out);
            collect_rel(b, out);
        }
        RelExpr::Inverse(a) | RelExpr::Plus(a) | RelExpr::Star(a) | RelExpr::Opt(a) => {
            collect_rel(a, out)
        }
    }
}
