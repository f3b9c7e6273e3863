//! The compiled node table of a model.
//!
//! Every expression of a model is a *node*: each sub-expression of each
//! definition body and axiom, numbered in post-order (children before
//! their parent, definitions in model order, then the axioms). Base
//! relations and tags resolve to fixed indices of [`BUILTIN_RELS`] and
//! [`BUILTIN_SETS`], so evaluators index their values instead of looking
//! names up. The table is built once, when the model is resolved; the
//! relation analysis and the interpreter both evaluate it, and the SAT
//! encoder reads each node's [`Polarity`] from it.

use crate::env::{BUILTIN_RELS, BUILTIN_SETS};
use crate::model::{Axiom, Def, DefBody, DefId, RelExpr, SetExpr};

/// Index of a node in a [`NodeTable`].
pub type NodeId = usize;

/// A builtin base relation, in [`BUILTIN_RELS`] order.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseRel {
    Po,
    Rf,
    Co,
    Loc,
    Ext,
    Int,
    Rmw,
    Addr,
    Data,
    Ctrl,
    Vloc,
    Sr,
    Scta,
    Ssg,
    Swg,
    Sqf,
    Ssw,
    Syncbar,
    SyncBarrier,
    SyncFence,
}

impl BaseRel {
    /// Every base relation, in [`BUILTIN_RELS`] order.
    pub const ALL: [BaseRel; 20] = [
        BaseRel::Po,
        BaseRel::Rf,
        BaseRel::Co,
        BaseRel::Loc,
        BaseRel::Ext,
        BaseRel::Int,
        BaseRel::Rmw,
        BaseRel::Addr,
        BaseRel::Data,
        BaseRel::Ctrl,
        BaseRel::Vloc,
        BaseRel::Sr,
        BaseRel::Scta,
        BaseRel::Ssg,
        BaseRel::Swg,
        BaseRel::Sqf,
        BaseRel::Ssw,
        BaseRel::Syncbar,
        BaseRel::SyncBarrier,
        BaseRel::SyncFence,
    ];

    /// Position in [`BUILTIN_RELS`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// The `.cat` name.
    pub fn name(self) -> &'static str {
        BUILTIN_RELS[self.index()]
    }

    /// Looks a base relation up by its `.cat` name.
    pub fn from_name(name: &str) -> Option<BaseRel> {
        BaseRel::ALL.into_iter().find(|r| r.name() == name)
    }
}

/// The operator of a node. Operands are the node's `kids`; a reference
/// names the definition, whose root node holds its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// A base relation (`None`: a name of a custom environment, which no
    /// evaluator interprets, so it is empty).
    Base(Option<BaseRel>),
    /// A relation-kinded definition.
    Ref(DefId),
    /// The identity relation.
    Id,
    /// `[S]`.
    IdSet,
    /// `S1 * S2`.
    Cross,
    /// `r1 | r2`.
    Union,
    /// `r1 & r2`.
    Inter,
    /// `r1 \ r2`.
    Diff,
    /// `r1 ; r2`.
    Seq,
    /// `r^-1`.
    Inverse,
    /// `r+`.
    Plus,
    /// `r*`.
    Star,
    /// `r?`.
    Opt,
    /// A base set: an index into [`BUILTIN_SETS`] (`None`: a name of a
    /// custom environment, empty).
    Tag(Option<u8>),
    /// A set-kinded definition.
    SetRef(DefId),
    /// `_`.
    Universe,
    /// `S1 | S2`.
    SetUnion,
    /// `S1 & S2`.
    SetInter,
    /// `S1 \ S2`.
    SetDiff,
    /// `domain(r)`.
    Domain,
    /// `range(r)`.
    Range,
}

impl Op {
    /// Whether the node is set-valued.
    pub fn is_set(self) -> bool {
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

/// The implications between a node's value and its encoding that the
/// node's readers need: the polarity of Plaisted and Greenbaum's
/// structure-preserving normal form (J. Symbolic Computation, 1986).
///
/// A reader that forbids true pairs, such as an `empty`, `irreflexive` or
/// `acyclic` axiom, needs only `value ⇒ literal` (the *lower* direction:
/// the literal is at least the value). A flag, which asks for one true
/// pair, needs only `literal ⇒ value` (the *upper* direction: the literal
/// is at most the value). The right operand of a difference is read the
/// other way round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Polarity(u8);

impl Polarity {
    /// Read by nothing.
    pub const NONE: Polarity = Polarity(0);
    /// Read through `value ⇒ literal` only.
    pub const LOWER: Polarity = Polarity(1);
    /// Read through `literal ⇒ value` only.
    pub const UPPER: Polarity = Polarity(2);
    /// Read both ways: the encoding is an equivalence.
    pub const BOTH: Polarity = Polarity(3);

    /// Whether some reader needs `value ⇒ literal`.
    pub fn lower(self) -> bool {
        self.0 & Polarity::LOWER.0 != 0
    }

    /// Whether some reader needs `literal ⇒ value`.
    pub fn upper(self) -> bool {
        self.0 & Polarity::UPPER.0 != 0
    }

    /// The polarity of the right operand of a difference read in `self`.
    fn flip(self) -> Polarity {
        Polarity((self.0 & 1) << 1 | self.0 >> 1)
    }
}

impl std::ops::BitOrAssign for Polarity {
    fn bitor_assign(&mut self, other: Polarity) {
        self.0 |= other.0;
    }
}

/// One node: its operator and operands (unused slots are 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The operator.
    pub op: Op,
    /// Operands, in source order.
    pub kids: [NodeId; 2],
}

/// The post-order node table of a model (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeTable {
    nodes: Vec<Node>,
    /// Root node of each definition (indexed by `DefId`).
    def_root: Vec<NodeId>,
    /// Whether each definition belongs to a `let rec` group.
    recursive: Vec<bool>,
    /// Whether each node is the root of a recursive definition.
    rec_root: Vec<bool>,
    /// Root node of each axiom, in model order.
    axiom_root: Vec<NodeId>,
    /// The node range of each `let rec` group, first and last node.
    groups: Vec<(NodeId, NodeId)>,
    /// Per axiom: the nodes its value depends on, one bit per node.
    reach: Vec<Vec<u64>>,
    /// The polarity each node is read in.
    polarity: Vec<Polarity>,
}

impl NodeTable {
    pub(crate) fn compile(defs: &[Def], axioms: &[Axiom]) -> NodeTable {
        let mut t = NodeTable {
            nodes: Vec::new(),
            def_root: Vec::with_capacity(defs.len()),
            recursive: defs.iter().map(|d| d.rec_group.is_some()).collect(),
            rec_root: Vec::new(),
            axiom_root: Vec::with_capacity(axioms.len()),
            groups: Vec::new(),
            reach: Vec::with_capacity(axioms.len()),
            polarity: Vec::new(),
        };
        let mut i = 0;
        while i < defs.len() {
            let first = t.nodes.len();
            let group = defs[i].rec_group;
            loop {
                let root = match &defs[i].body {
                    DefBody::Set(s) => t.set(s),
                    DefBody::Rel(r) => t.rel(r),
                };
                t.def_root.push(root);
                i += 1;
                if group.is_none() || i == defs.len() || defs[i].rec_group != group {
                    break;
                }
            }
            if group.is_some() {
                t.groups.push((first, t.nodes.len() - 1));
            }
        }
        let mut start = t.nodes.len();
        t.rec_root = vec![false; start];
        for (d, &root) in t.def_root.iter().enumerate() {
            t.rec_root[root] |= t.recursive[d];
        }
        for axiom in axioms {
            let root = t.rel(&axiom.expr);
            t.rec_root.resize(t.nodes.len(), false);
            t.axiom_root.push(root);
            let reach = t.reach_from(start..root + 1);
            t.reach.push(reach);
            start = root + 1;
        }
        t.polarity = t.polarities(axioms);
        t
    }

    /// Each node's polarity. A non-flagged axiom reads its root lower; a
    /// flag reads its root upper, since a flag query asks for one true
    /// pair. Every reader of a node comes after it, except inside a
    /// `let rec` group, which is iterated to a fixpoint; so one backward
    /// pass hands each node's final polarity to its operands.
    fn polarities(&self, axioms: &[Axiom]) -> Vec<Polarity> {
        let mut pol = vec![Polarity::NONE; self.nodes.len()];
        for (axiom, &root) in axioms.iter().zip(&self.axiom_root) {
            pol[root] |= if axiom.flagged {
                Polarity::UPPER
            } else {
                Polarity::LOWER
            };
        }
        let mut id = self.nodes.len();
        while id > 0 {
            id -= 1;
            let Some(&(first, last)) = self.groups.iter().find(|g| g.1 == id) else {
                self.pass_polarity(&mut pol, id);
                continue;
            };
            loop {
                let before = pol[first..=last].to_vec();
                for k in (first..=last).rev() {
                    self.pass_polarity(&mut pol, k);
                }
                if pol[first..=last] == before[..] {
                    break;
                }
            }
            id = first;
        }
        pol
    }

    /// Hands node `id`'s polarity to its operands: the right operand of
    /// a difference gets the opposite one, and a reference hands it to
    /// the root of the definition it names.
    fn pass_polarity(&self, pol: &mut [Polarity], id: NodeId) {
        let p = pol[id];
        let Node { op, kids: [a, b] } = self.nodes[id];
        match op {
            Op::Base(_) | Op::Id | Op::Tag(_) | Op::Universe => {}
            Op::Ref(d) | Op::SetRef(d) => pol[self.def_root[d]] |= p,
            Op::Diff | Op::SetDiff => {
                pol[a] |= p;
                pol[b] |= p.flip();
            }
            Op::Cross | Op::Union | Op::Inter | Op::Seq | Op::SetUnion | Op::SetInter => {
                pol[a] |= p;
                pol[b] |= p;
            }
            Op::IdSet | Op::Inverse | Op::Plus | Op::Star | Op::Opt | Op::Domain | Op::Range => {
                pol[a] |= p
            }
        }
    }

    fn rel(&mut self, e: &RelExpr) -> NodeId {
        let (op, kids) = match e {
            RelExpr::Base(name) => (Op::Base(BaseRel::from_name(name)), [0, 0]),
            RelExpr::Ref(d) => (Op::Ref(*d), [0, 0]),
            RelExpr::Id => (Op::Id, [0, 0]),
            RelExpr::IdSet(s) => (Op::IdSet, [self.set(s), 0]),
            RelExpr::Cross(a, b) => (Op::Cross, [self.set(a), self.set(b)]),
            RelExpr::Union(a, b) => (Op::Union, [self.rel(a), self.rel(b)]),
            RelExpr::Inter(a, b) => (Op::Inter, [self.rel(a), self.rel(b)]),
            RelExpr::Diff(a, b) => (Op::Diff, [self.rel(a), self.rel(b)]),
            RelExpr::Seq(a, b) => (Op::Seq, [self.rel(a), self.rel(b)]),
            RelExpr::Inverse(a) => (Op::Inverse, [self.rel(a), 0]),
            RelExpr::Plus(a) => (Op::Plus, [self.rel(a), 0]),
            RelExpr::Star(a) => (Op::Star, [self.rel(a), 0]),
            RelExpr::Opt(a) => (Op::Opt, [self.rel(a), 0]),
        };
        self.push(op, kids)
    }

    fn set(&mut self, e: &SetExpr) -> NodeId {
        let (op, kids) = match e {
            SetExpr::Base(name) => {
                let index = BUILTIN_SETS.iter().position(|s| s == name);
                (Op::Tag(index.map(|i| i as u8)), [0, 0])
            }
            SetExpr::Ref(d) => (Op::SetRef(*d), [0, 0]),
            SetExpr::Universe => (Op::Universe, [0, 0]),
            SetExpr::Union(a, b) => (Op::SetUnion, [self.set(a), self.set(b)]),
            SetExpr::Inter(a, b) => (Op::SetInter, [self.set(a), self.set(b)]),
            SetExpr::Diff(a, b) => (Op::SetDiff, [self.set(a), self.set(b)]),
            SetExpr::Domain(r) => (Op::Domain, [self.rel(r), 0]),
            SetExpr::Range(r) => (Op::Range, [self.rel(r), 0]),
        };
        self.push(op, kids)
    }

    fn push(&mut self, op: Op, kids: [NodeId; 2]) -> NodeId {
        self.nodes.push(Node { op, kids });
        self.nodes.len() - 1
    }

    /// The nodes of `own` plus the bodies of every definition they
    /// reference, transitively; a reference into a `let rec` group
    /// reaches the whole group, which evaluators iterate as one.
    fn reach_from(&self, own: std::ops::Range<NodeId>) -> Vec<u64> {
        let mut bits = vec![0u64; self.nodes.len().div_ceil(64)];
        let mut seen = vec![false; self.def_root.len()];
        let mut todo = vec![own];
        while let Some(range) = todo.pop() {
            for id in range {
                bits[id / 64] |= 1 << (id % 64);
                if let Op::Ref(d) | Op::SetRef(d) = self.nodes[id].op {
                    if !std::mem::replace(&mut seen[d], true) {
                        todo.push(self.def_range(d));
                    }
                }
            }
        }
        bits
    }

    /// The nodes of definition `d`'s body, or of its whole `let rec`
    /// group.
    fn def_range(&self, d: DefId) -> std::ops::Range<NodeId> {
        let root = self.def_root[d];
        if let Some(&(first, last)) = self.groups.iter().find(|g| (g.0..=g.1).contains(&root)) {
            return first..last + 1;
        }
        let first = if d == 0 { 0 } else { self.def_root[d - 1] + 1 };
        first..root + 1
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes, in post-order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> Node {
        self.nodes[id]
    }

    /// The root node of definition `d`.
    pub fn def_root(&self, d: DefId) -> NodeId {
        self.def_root[d]
    }

    /// Whether definition `d` belongs to a `let rec` group.
    pub fn is_recursive(&self, d: DefId) -> bool {
        self.recursive[d]
    }

    /// The root node of axiom `index`.
    pub fn axiom_root(&self, index: usize) -> NodeId {
        self.axiom_root[index]
    }

    /// The first and last node of each `let rec` group, in model order.
    pub fn groups(&self) -> &[(NodeId, NodeId)] {
        &self.groups
    }

    /// The nodes the value of axiom `index` depends on, one bit per node
    /// (bit `id % 64` of word `id / 64`): the axiom's own nodes and the
    /// bodies of every definition they reach through references, with
    /// every member of a `let rec` group they reach.
    pub fn reach(&self, index: usize) -> &[u64] {
        &self.reach[index]
    }

    /// The polarity node `id` is read in (see [`Polarity`]).
    pub fn polarity(&self, id: NodeId) -> Polarity {
        self.polarity[id]
    }

    /// Whether node `id` is the root of a recursive definition.
    pub fn is_rec_root(&self, id: NodeId) -> bool {
        self.rec_root[id]
    }

    /// The node whose value node `id` denotes: references lead to the
    /// root of the definition they name. A recursive definition's root
    /// holds the group's value and ends the chain.
    pub fn value_node(&self, mut id: NodeId) -> NodeId {
        while let Op::Ref(d) | Op::SetRef(d) = self.nodes[id].op {
            id = self.def_root[d];
            if self.recursive[d] {
                break;
            }
        }
        id
    }

    /// Whether the model mentions base relation `rel`.
    pub fn mentions(&self, rel: BaseRel) -> bool {
        self.nodes.iter().any(|n| n.op == Op::Base(Some(rel)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_relations_follow_the_builtin_order() {
        assert_eq!(BaseRel::ALL.len(), BUILTIN_RELS.len());
        for (i, r) in BaseRel::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(BaseRel::from_name(BUILTIN_RELS[i]), Some(r));
        }
        assert_eq!(BaseRel::from_name("nope"), None);
    }

    #[test]
    fn nodes_are_numbered_in_post_order() {
        let m = crate::parse("let fr = rf^-1; co\nacyclic po | fr").unwrap();
        let t = m.nodes();
        // fr: rf, ^-1, co, ; — then the axiom: po, Ref(fr), |.
        let ops: Vec<Op> = t.nodes().iter().map(|n| n.op).collect();
        assert_eq!(
            ops,
            [
                Op::Base(Some(BaseRel::Rf)),
                Op::Inverse,
                Op::Base(Some(BaseRel::Co)),
                Op::Seq,
                Op::Base(Some(BaseRel::Po)),
                Op::Ref(0),
                Op::Union,
            ]
        );
        assert_eq!(t.node(3).kids, [1, 2]);
        assert_eq!(t.def_root(0), 3);
        assert_eq!(t.axiom_root(0), 6);
        assert_eq!(t.value_node(5), 3);
        assert!(t.mentions(BaseRel::Co));
        assert!(!t.mentions(BaseRel::Sr));
    }

    #[test]
    fn reach_follows_references_only() {
        let m = crate::parse("let a = po\nlet b = rf\nlet c = a | a\nacyclic c\nempty b").unwrap();
        let t = m.nodes();
        let bits = |k: usize| -> Vec<NodeId> {
            (0..t.len())
                .filter(|&id| t.reach(k)[id / 64] >> (id % 64) & 1 == 1)
                .collect()
        };
        // a = node 0, b = node 1, c = nodes 2..=4, axiom 0 = node 5,
        // axiom 1 = node 6.
        assert_eq!(bits(0), vec![0, 2, 3, 4, 5]);
        assert_eq!(bits(1), vec![1, 6]);
    }

    #[test]
    fn recursive_groups_record_their_node_range() {
        let m = crate::parse("let x = po\nlet rec a = rf | (a; a) and b = a\nacyclic b").unwrap();
        let t = m.nodes();
        assert_eq!(t.groups(), &[(1, 6)]);
        assert!(t.is_recursive(1) && t.is_recursive(2) && !t.is_recursive(0));
        assert!(t.is_rec_root(t.def_root(2)));
        assert!(!t.is_rec_root(t.def_root(0)));
        // b's root names a, but as a recursive root it holds b's value.
        assert_eq!(t.value_node(t.axiom_root(0)), t.def_root(2));
        assert_eq!(t.value_node(t.def_root(2)), t.def_root(1));
    }

    #[test]
    fn reach_takes_a_recursive_group_whole() {
        let m = crate::parse("let x = rf\nlet rec a = po and b = a | x\nacyclic a").unwrap();
        let t = m.nodes();
        // x = node 0; a = node 1, b = nodes 2..=4; the axiom = node 5.
        assert_eq!(t.groups(), &[(1, 4)]);
        let reached: Vec<NodeId> = (0..t.len())
            .filter(|&id| t.reach(0)[id / 64] >> (id % 64) & 1 == 1)
            .collect();
        assert_eq!(reached, vec![0, 1, 2, 3, 4, 5]);
    }

    /// The polarity of every node, in node order.
    fn polarities(t: &NodeTable) -> Vec<Polarity> {
        (0..t.len()).map(|id| t.polarity(id)).collect()
    }

    #[test]
    fn difference_flips_its_right_operand() {
        use Polarity as P;
        // po, rf, \ — then [W], [R], \ on sets under [_], and ;.
        let m = crate::parse("empty po \\ rf\nempty [W \\ R]").unwrap();
        let t = m.nodes();
        assert_eq!(t.node(2).op, Op::Diff);
        assert_eq!(t.node(5).op, Op::SetDiff);
        assert_eq!(
            polarities(t),
            [
                P::LOWER,
                P::UPPER,
                P::LOWER,
                P::LOWER,
                P::UPPER,
                P::LOWER,
                P::LOWER
            ]
        );
        // Two differences flip back; a flag reads its root upper.
        let m = crate::parse("flag ~empty po \\ (rf \\ co) as f").unwrap();
        assert_eq!(
            polarities(m.nodes()),
            [P::UPPER, P::LOWER, P::UPPER, P::LOWER, P::UPPER]
        );
    }

    #[test]
    fn a_flagged_axiom_reads_upper_and_an_axiom_lower() {
        use Polarity as P;
        // po, rf, | — then rf for the flag.
        let m = crate::parse("acyclic po | rf\nflag ~empty rf as f").unwrap();
        assert_eq!(
            polarities(m.nodes()),
            [P::LOWER, P::LOWER, P::LOWER, P::UPPER]
        );
        let mut p = P::LOWER;
        p |= P::UPPER;
        assert_eq!(p, P::BOTH);
        assert_eq!(P::BOTH.flip(), P::BOTH);
        assert_eq!(P::NONE.flip(), P::NONE);
        assert!(P::BOTH.lower() && P::BOTH.upper() && !P::NONE.lower() && !P::NONE.upper());
    }

    #[test]
    fn a_reference_hands_its_polarity_to_the_definition_root() {
        use Polarity as P;
        // a = po; (rf; co), nodes 0..=4; b = a, node 5; unread = co, node 6;
        // axiom `acyclic b` = node 7; flag `po \ a` = nodes 8..=10.
        let m = crate::parse(
            "let a = po; (rf; co)\nlet b = a\nlet unread = co\nacyclic b\nflag ~empty po \\ a as f",
        )
        .unwrap();
        let t = m.nodes();
        assert_eq!(t.def_root(0), 4);
        assert_eq!(t.polarity(7), P::LOWER);
        // `b` is read lower by the axiom; the flag reads `a` lower too.
        assert_eq!(t.polarity(t.def_root(1)), P::LOWER);
        assert_eq!(t.polarity(10), P::UPPER);
        assert_eq!(t.polarity(9), P::LOWER);
        for id in 0..=4 {
            assert_eq!(t.polarity(id), P::LOWER, "node {id} of `a`");
        }
        assert_eq!(t.polarity(t.def_root(2)), P::NONE);
        // A second reader in the other direction makes `a` both.
        let m = crate::parse("let a = po; rf\nacyclic a\nflag ~empty a as f").unwrap();
        let t = m.nodes();
        assert_eq!(t.polarity(t.def_root(0)), P::BOTH);
        assert_eq!(t.polarity(0), P::BOTH);
    }

    #[test]
    fn let_rec_members_read_through_other_members_get_their_polarity() {
        use Polarity as P;
        // `a` is read only through the later member `b`.
        let m =
            crate::parse("let rec a = rf | (a; po) and b = a | co\nflag ~empty b as f").unwrap();
        let t = m.nodes();
        assert_eq!(t.polarity(t.def_root(1)), P::UPPER);
        assert_eq!(t.polarity(t.def_root(0)), P::UPPER);
        let (first, last) = t.groups()[0];
        for id in first..=last {
            assert_eq!(t.polarity(id), P::UPPER, "node {id}");
        }
        // `b` is read only through the earlier member `a`, which the
        // backward pass reaches after `b`: the group needs a second round.
        let m = crate::parse("let rec a = rf | (b \\ po) and b = a; co\nempty a").unwrap();
        let t = m.nodes();
        assert_eq!(t.polarity(t.def_root(0)), P::LOWER);
        assert_eq!(t.polarity(t.def_root(1)), P::LOWER);
        // b's operands: Ref(a) and co.
        let [ra, co] = t.node(t.def_root(1)).kids;
        assert_eq!((t.polarity(ra), t.polarity(co)), (P::LOWER, P::LOWER));
        // The `po` under `b \ po` is read upper.
        let diff = t.node(t.def_root(0)).kids[1];
        assert_eq!(t.polarity(t.node(diff).kids[1]), P::UPPER);
    }

    #[test]
    fn custom_environment_names_are_uninterpreted() {
        let mut env = crate::BaseEnv::builtin();
        env.add_rel("myrel").add_set("MYSET");
        let m = crate::parse_with_env("empty myrel & [MYSET] & [W]", &env).unwrap();
        let ops: Vec<Op> = m.nodes().nodes().iter().map(|n| n.op).collect();
        assert_eq!(ops[0], Op::Base(None));
        assert_eq!(ops[1], Op::Tag(None));
        let w = BUILTIN_SETS.iter().position(|&s| s == "W").unwrap() as u8;
        assert_eq!(ops[4], Op::Tag(Some(w)));
    }
}
