//! The CNF encoding of program semantics modulo a `.cat` model.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use gpumc_cat::{AxiomKind, BaseRel, CatModel, NodeId, Op, Polarity};
use gpumc_exec::arena::{self, RelView};
use gpumc_exec::{Execution, Interpreter, Relation, ThreadOutcome};
use gpumc_ir::{
    Arch, BlockId, CondAtom, Condition, EventGraph, EventId, EventKind, Tag, UTerm, Val,
};
use gpumc_sat::bv::BitVec;
use gpumc_sat::{Dirs, Formula, Lit};

use crate::bounds::RelationAnalysis;
use crate::lits::{
    self, Active, OwnedRel, PairCache, Reader, RelLits, SetLits, Slot, Store, ABSENT,
};

/// Bit-vector width for data values and array indices.
const BV_WIDTH: usize = 8;

/// Options controlling the encoding.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Whether to prune the encoding with the relation analysis: alias
    /// pruning of the Table 3 bounds and active sets (disable for the
    /// ablation benchmark).
    pub use_bounds: bool,
    /// Watchdog for the *encode* phase: polled between build stages and
    /// inside the axiom loop, so a deadline or cancellation fires during
    /// a pathological encoding too, not only once solving starts.
    pub cancel: Option<gpumc_sat::CancelToken>,
    /// Memory budget handed to the solver (see
    /// [`gpumc_sat::Solver::set_mem_budget_bytes`]); also checked between
    /// build stages so an encoding blow-up aborts with a classified
    /// [`EncodeError::Unknown`] instead of exhausting the host.
    pub mem_budget_bytes: Option<usize>,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            use_bounds: true,
            cancel: None,
            mem_budget_bytes: None,
        }
    }
}

/// Encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The program/model uses an unsupported feature.
    Unsupported(String),
    /// A SAT witness failed re-validation by the interpreter: it is
    /// inconsistent, or it does not show what its query asked for (a
    /// complete execution, a liveness violation, a raised flag). An
    /// internal bug, never expected.
    WitnessMismatch(String),
    /// The query was interrupted (budget, cancellation, or deadline)
    /// before the solver reached a verdict. Carries the reason; the
    /// encoding remains usable for further queries.
    Unknown(String),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EncodeError::WitnessMismatch(m) => write!(f, "witness mismatch: {m}"),
            EncodeError::Unknown(m) => write!(f, "unknown: {m}"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// The outcome of a query on an [`Encoding`].
#[derive(Debug)]
pub struct QueryResult<'g> {
    /// Whether a satisfying behaviour was found.
    pub found: bool,
    /// The decoded (and interpreter-validated) witness, when found.
    pub witness: Option<Execution<'g>>,
}

/// What a query's witness must show beyond consistency, checked on the
/// decoded execution.
#[derive(Debug, Clone, Copy)]
enum Goal<'a> {
    /// Every thread completed (the assertion query).
    Completed,
    /// A liveness violation (§6.4).
    Liveness,
    /// Completed, and the interpreter raises this flag.
    Flag(&'a str),
}

/// Deltas of the shared solver's cumulative statistics over one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Conflicts spent answering this query.
    pub conflicts: u64,
    /// Decisions spent answering this query.
    pub decisions: u64,
    /// Unit propagations spent answering this query.
    pub propagations: u64,
    /// Live learnt clauses when the query started. Non-zero on a second
    /// or later query means earlier learning is being reused.
    pub learnt_before: usize,
    /// Live learnt clauses when the query finished.
    pub learnt_after: usize,
    /// Wall-clock time of the query: gate clauses, solve, witness decode
    /// and re-validation (the encoding's build time excluded).
    pub time_us: u128,
}

/// A labelled, per-query statistics record of an [`Encoding`].
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// What was asked: `"assertion"`, `"condition"`, `"liveness"`,
    /// `"flag:dr"`, ...
    pub label: String,
    /// The solver-counter deltas for that query.
    pub stats: QueryStats,
}

/// A flagged axiom: what `find_flag` needs after the build.
#[derive(Debug)]
struct Flag {
    label: String,
    /// The axiom's form, `~empty` for the detectors the encoder answers.
    kind: AxiomKind,
    negated: bool,
    /// The literals of the root's active pairs, row by row (kept for
    /// `flag ~empty` only).
    lits: Vec<Lit>,
}

/// Transitivity of a decision order over its may-triples: `r(a, b) ∧
/// r(b, c) ⇒ r(a, c)` for `a ≠ c`, pairs `(a, b)` row by row and each
/// `c` in increasing order.
fn transitivity(f: &mut Formula, r: RelLits<'_>) {
    for (a, b, vab) in r.iter() {
        for (c, vbc) in r.row(b) {
            if a == c {
                continue;
            }
            if let Some(vac) = r.get(a, c) {
                f.add_clause([!vab, !vbc, vac]);
            }
        }
    }
}

/// Ties literal `var` to the literal `expr` of the expression it stands
/// for in the directions `dirs`: `expr ⇒ var` (lower), `var ⇒ expr`
/// (upper), or both.
fn tie(f: &mut Formula, var: Lit, expr: Lit, dirs: Dirs) {
    match dirs {
        Dirs::LOWER => f.assert_implies(expr, var),
        Dirs::UPPER => f.assert_implies(var, expr),
        _ => f.assert_iff(var, expr),
    }
}

/// The literals node `id` owns in the model's [`Store`]: one per pair
/// (member) of its active set, twice for a `let rec` root with a body of
/// its own (its variables, then its body). A reference reads the node it
/// names, and an undemanded node has none. `let rec` members are
/// relations: the resolver rejects a set among them.
fn slot_request<'a>(an: &'a RelationAnalysis<'_>, id: NodeId) -> Option<(Active<'a>, usize)> {
    let rec = an.is_rec_root(id);
    match an.op(id) {
        Op::Ref(_) | Op::SetRef(_) if !rec => None,
        _ if an.is_set(id) => Some((Active::Set(an.active_set(id)?), 1)),
        Op::Ref(_) => Some((Active::Rel(an.active_rel(id)?), 1)),
        _ => Some((Active::Rel(an.active_rel(id)?), if rec { 2 } else { 1 })),
    }
}

/// The literals of relation node `id` (empty when it has no slot).
fn node_rel_lits<'s>(reader: &Reader<'s>, an: &'s RelationAnalysis<'_>, id: NodeId) -> RelLits<'s> {
    reader.rel(id, an.active_rel(id))
}

/// The literals of set node `id` (empty when it has no slot).
fn node_set_lits<'s>(reader: &Reader<'s>, an: &'s RelationAnalysis<'_>, id: NodeId) -> SetLits<'s> {
    reader.set(id, an.active_set(id))
}

/// Buffers the model build reuses across nodes, so that building a node
/// allocates nothing.
#[derive(Debug, Default)]
struct Buffers {
    /// The inputs of one `or` gate.
    or: Vec<Lit>,
    /// One row of `;`: target, left and right literal per midpoint.
    row: Vec<(u32, Lit, Lit)>,
    terms: Vec<(Lit, Lit)>,
    /// The pairs of the axiom at hand that have a literal, row by row.
    pairs: Vec<(u32, u32, Lit)>,
}

/// Builds the encoding of a graph under a model.
///
/// # Errors
///
/// Fails when the model uses features the encoder rejects (negated
/// non-flagged axioms); the shipped models are fully supported.
pub fn encode<'g>(
    graph: &'g EventGraph,
    model: &'g CatModel,
    opts: &EncodeOptions,
) -> Result<Encoding<'g>, EncodeError> {
    let t0 = Instant::now();
    let analysis = RelationAnalysis::new_with(graph, model, opts.use_bounds);
    let bounds_us = t0.elapsed().as_micros() as u64;
    let mut enc = Encoding {
        graph,
        model,
        opts: opts.clone(),
        f: Formula::new(),
        exec_block: Vec::new(),
        exec_event: Vec::new(),
        values: Vec::new(),
        addr_bv: Vec::new(),
        rf: OwnedRel::default(),
        co: OwnedRel::default(),
        sync_fence: OwnedRel::default(),
        pair_exec_cache: PairCache::new(graph.n_events()),
        addr_eq_cache: PairCache::new(graph.n_events()),
        value_eq_cache: PairCache::new(graph.n_events()),
        final_reg_cache: BTreeMap::new(),
        completed: Vec::new(),
        flags: Vec::new(),
        buf: Vec::new(),
        bounds_us,
        encode_us: 0,
        queries: Vec::new(),
        interpreter: None,
    };
    let t0 = Instant::now();
    enc.build(&analysis)?;
    enc.encode_us = t0.elapsed().as_micros() as u64;
    Ok(enc)
}

/// A built encoding, ready for queries.
///
/// Every query is assumption-guarded: its clauses are gated behind a
/// fresh activation literal and posed via
/// `Solver::solve_with_assumptions`. A later query sees earlier query
/// clauses only as satisfiable-by-deactivation noise, while the solver's
/// learnt clauses (implied by the shared database) carry over, so one
/// encoding answers all of a test's properties. Each answered query
/// appends a [`QueryRecord`] to [`Encoding::queries`]: the shared
/// solver's counter deltas over it, so what the carry-over saves can be
/// measured (a liveness query that starts with a non-zero
/// `learnt_before` reuses the assertion query's learning).
///
/// # Example
///
/// ```
/// let src = "PTX MP\n{ x = 0; flag = 0; }\n\
/// P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
/// st.weak x, 1 | ld.weak r0, flag ;\n\
/// st.weak flag, 1 | ld.weak r1, x ;\n\
/// exists (P1:r0 == 1 /\\ P1:r1 == 0)";
/// let p = gpumc_litmus::parse(src).unwrap();
/// let g = gpumc_ir::compile(&gpumc_ir::unroll(&p, 1).unwrap());
/// let model = gpumc_models::ptx60();
/// let mut enc = gpumc_encode::encode(&g, &model, &Default::default()).unwrap();
/// let result = enc.find_assertion_witness().unwrap();
/// assert!(result.found, "weak MP allows the stale read");
/// ```
pub struct Encoding<'g> {
    graph: &'g EventGraph,
    model: &'g CatModel,
    opts: EncodeOptions,
    f: Formula,
    exec_block: Vec<Lit>,
    exec_event: Vec<Lit>,
    values: Vec<Option<BitVec>>,
    addr_bv: Vec<Option<BitVec>>,
    /// The decision relations, on their upper bounds. The model nodes'
    /// literals live in a [`Store`] during the build only.
    rf: OwnedRel,
    co: OwnedRel,
    sync_fence: OwnedRel,
    /// Per unordered pair: both execute, same address, same value.
    pair_exec_cache: PairCache,
    addr_eq_cache: PairCache,
    value_eq_cache: PairCache,
    final_reg_cache: BTreeMap<(usize, u32), BitVec>,
    /// Per-thread "reached an End leaf" literal.
    completed: Vec<Lit>,
    /// The flagged axioms, in model order.
    flags: Vec<Flag>,
    /// Reused buffer for the inputs of a gate or clause.
    buf: Vec<Lit>,
    /// Time spent on the relation analysis, microseconds.
    bounds_us: u64,
    /// Time spent building the SAT encoding, microseconds.
    encode_us: u64,
    /// One record per answered query, in query order.
    queries: Vec<QueryRecord>,
    /// Re-validates every witness, made at the first one.
    interpreter: Option<Interpreter<'g>>,
}

impl<'g> Encoding<'g> {
    /// Number of SAT variables in the encoding (for the scalability and
    /// ablation experiments).
    pub fn num_vars(&self) -> usize {
        self.f.solver().num_vars()
    }

    /// Number of problem clauses in the encoding.
    pub fn num_clauses(&self) -> usize {
        self.f.solver().num_clauses()
    }

    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    fn build(&mut self, an: &RelationAnalysis<'g>) -> Result<(), EncodeError> {
        if let Some(budget) = self.opts.mem_budget_bytes {
            self.f.solver_mut().set_mem_budget_bytes(Some(budget));
        }
        if let Some(token) = self.opts.cancel.clone() {
            self.f.solver_mut().set_cancel_token(Some(token));
        }
        self.encode_control_flow();
        self.watchdog("control")?;
        self.encode_data_flow();
        self.watchdog("data")?;
        self.encode_exec_events();
        self.encode_rf(an);
        self.watchdog("rf")?;
        self.encode_co(an);
        self.watchdog("co")?;
        self.encode_sync_fence(an);
        self.encode_model(an)?;
        self.watchdog("model")?;
        self.encode_completion();
        if let Some(filter) = &self.graph.filter.clone() {
            let lit = self.cond_lit(filter);
            self.f.assert_lit(lit);
        }
        Ok(())
    }

    /// Encode-phase watchdog, polled between build stages (and inside
    /// the axiom loop): surfaces cancellation/deadline expiry, a blown
    /// memory budget, and any armed `encode.build` fault as a classified
    /// [`EncodeError::Unknown`] — the encode phase can no longer hang
    /// past its deadline or grow without bound. `stage` is formatted
    /// only when the watchdog fires.
    pub(crate) fn watchdog(&mut self, stage: impl Display) -> Result<(), EncodeError> {
        match gpumc_fault::hit(gpumc_fault::points::ENCODE_BUILD) {
            Some(gpumc_fault::FaultSignal::SpuriousUnknown) => {
                return Err(EncodeError::Unknown(format!(
                    "injected fault (encode stage `{stage}`)"
                )));
            }
            Some(gpumc_fault::FaultSignal::AllocSpike(b)) => {
                let charged = gpumc_fault::materialize_spike(b);
                self.f.solver_mut().add_mem_ballast(charged);
            }
            None => {}
        }
        if let Some(i) = self.opts.cancel.as_ref().and_then(|c| c.check()) {
            return Err(EncodeError::Unknown(format!(
                "{i} (encode stage `{stage}`)"
            )));
        }
        if let Some(budget) = self.opts.mem_budget_bytes {
            if self.f.solver().bytes_in_use() > budget {
                return Err(EncodeError::Unknown(format!(
                    "memory budget exceeded (encode stage `{stage}`)"
                )));
            }
        }
        Ok(())
    }

    fn encode_control_flow(&mut self) {
        // The init block and thread roots always execute and get the
        // shared constant-true literal, letting gate-level constant
        // folding collapse most of the encoding of loop-free threads.
        let always: Vec<bool> = (0..self.graph.blocks().len() as BlockId)
            .map(|b| b == 0 || self.graph.threads().iter().any(|t| t.root == b))
            .collect();
        for is_root in always {
            // Non-root blocks get a placeholder overwritten by the
            // branch-guard pass (every non-root block is a branch child).
            let l = if is_root {
                self.f.lit_true()
            } else {
                self.f.lit_false()
            };
            self.exec_block.push(l);
        }
    }

    fn encode_data_flow(&mut self) {
        let w = BV_WIDTH;
        let n = self.graph.n_events();
        self.values = vec![None; n];
        self.addr_bv = vec![None; n];
        // Pass 1: reads get fresh vectors (their value is chosen by rf).
        let ids: Vec<EventId> = self.graph.events().iter().map(|e| e.id).collect();
        for &id in &ids {
            if matches!(
                self.graph.event(id).kind,
                EventKind::Load { .. } | EventKind::RmwLoad { .. }
            ) {
                self.values[id.index()] = Some(BitVec::fresh(&mut self.f, w));
            }
        }
        // Pass 2: writes/barriers evaluate their expressions; addresses.
        for &id in &ids {
            let kind = self.graph.event(id).kind.clone();
            match &kind {
                EventKind::Init { value, .. } => {
                    self.values[id.index()] = Some(BitVec::constant(&mut self.f, w, *value));
                }
                EventKind::Store { value, .. } | EventKind::RmwStore { value, .. } => {
                    let bv = self.val_bv(value);
                    self.values[id.index()] = Some(bv);
                }
                EventKind::Barrier { id: bid, .. } => {
                    let bv = self.val_bv(bid);
                    self.values[id.index()] = Some(bv);
                }
                _ => {}
            }
            let addr = match &kind {
                EventKind::Init { index, .. } => {
                    Some(BitVec::constant(&mut self.f, w, u64::from(*index)))
                }
                k => match k.addr() {
                    Some(a) => {
                        let idx = a.index.clone();
                        Some(self.val_bv(&idx))
                    }
                    None => None,
                },
            };
            self.addr_bv[id.index()] = addr;
        }
        // Pass 3: branch guards tie child blocks to parent blocks.
        for b in 0..self.graph.blocks().len() {
            let term = self.graph.block(b as BlockId).term.clone();
            if let UTerm::Branch {
                guard,
                then_blk,
                else_blk,
            } = term
            {
                let a = self.val_bv(&guard.a);
                let bb = self.val_bv(&guard.b);
                let eq = a.eq(&mut self.f, &bb);
                let g = match guard.cmp {
                    gpumc_ir::CmpOp::Eq => eq,
                    gpumc_ir::CmpOp::Ne => !eq,
                };
                // Parents precede children in the block arena, so the
                // parent's literal is final here; children take the gate
                // literal directly (no fresh variable).
                let parent = self.exec_block[b];
                let taken = self.f.and2(parent, g);
                let not_taken = self.f.and2(parent, !g);
                self.exec_block[then_blk as usize] = taken;
                self.exec_block[else_blk as usize] = not_taken;
            }
        }
    }

    fn encode_exec_events(&mut self) {
        let ids: Vec<EventId> = self.graph.events().iter().map(|e| e.id).collect();
        for &id in &ids {
            let block_lit = self.exec_block[self.graph.event(id).block as usize];
            let kind = self.graph.event(id).kind.clone();
            let lit = match &kind {
                EventKind::RmwStore {
                    read,
                    cas_expected: Some(exp),
                    ..
                } => {
                    let exp_bv = self.val_bv(exp);
                    let read_val = self.values[read.index()].as_ref().expect("read value");
                    let success = read_val.eq(&mut self.f, &exp_bv);
                    self.f.and2(block_lit, success)
                }
                _ => block_lit,
            };
            self.exec_event.push(lit);
            debug_assert_eq!(self.exec_event.len() - 1, id.index());
        }
    }

    fn val_bv(&mut self, v: &Val) -> BitVec {
        let w = BV_WIDTH;
        match v {
            Val::Const(c) => BitVec::constant(&mut self.f, w, *c),
            Val::Read(e) => self.values[e.index()].clone().expect("read value exists"),
            Val::Bin(op, a, b) => {
                let ba = self.val_bv(a);
                let bb = self.val_bv(b);
                match op {
                    gpumc_ir::AluOp::Mov => ba,
                    gpumc_ir::AluOp::Add => ba.add(&mut self.f, &bb),
                    gpumc_ir::AluOp::Sub => ba.sub(&mut self.f, &bb),
                    gpumc_ir::AluOp::And => ba.bitand(&mut self.f, &bb),
                    gpumc_ir::AluOp::Or => ba.bitor(&mut self.f, &bb),
                    gpumc_ir::AluOp::Xor => ba.bitxor(&mut self.f, &bb),
                }
            }
        }
    }

    /// Literal for "events a and b access the same physical address".
    fn addr_eq(&mut self, a: EventId, b: EventId) -> Lit {
        if let Some(l) = self.addr_eq_cache.get(a.0, b.0) {
            return l;
        }
        let g = self.graph;
        let lit = if !g.may_alias(a, b) {
            self.f.lit_false()
        } else if g.must_alias(a, b) {
            self.f.lit_true()
        } else {
            // Same physical root is implied by may_alias; compare indices.
            let ba = self.addr_bv[a.index()].as_ref().expect("memory event");
            let bb = self.addr_bv[b.index()].as_ref().expect("memory event");
            ba.eq(&mut self.f, bb)
        };
        self.addr_eq_cache.insert(a.0, b.0, lit);
        lit
    }

    fn pair_exec(&mut self, a: EventId, b: EventId) -> Lit {
        if let Some(l) = self.pair_exec_cache.get(a.0, b.0) {
            return l;
        }
        let lit = self
            .f
            .and2(self.exec_event[a.index()], self.exec_event[b.index()]);
        self.pair_exec_cache.insert(a.0, b.0, lit);
        lit
    }

    /// Literal for "events a and b carry equal values" (barrier ids).
    fn value_eq(&mut self, a: EventId, b: EventId) -> Lit {
        if let Some(l) = self.value_eq_cache.get(a.0, b.0) {
            return l;
        }
        let va = self.values[a.index()].as_ref().expect("barrier id");
        let vb = self.values[b.index()].as_ref().expect("barrier id");
        let lit = va.eq(&mut self.f, vb);
        self.value_eq_cache.insert(a.0, b.0, lit);
        lit
    }

    /// `rf` on its upper bound. The variables are made read by read
    /// (the bound's columns), each read's writers in increasing order.
    fn encode_rf(&mut self, an: &RelationAnalysis<'g>) {
        let upper = an.upper_of(BaseRel::Rf);
        let mut rf = OwnedRel::new(upper);
        let mut lits = std::mem::take(&mut self.buf);
        for r in (0..upper.universe() as u32).map(EventId) {
            lits.clear();
            for w in (0..upper.universe() as u32).map(EventId) {
                if !upper.contains(w, r) {
                    continue;
                }
                let v = self.f.new_lit();
                rf.set(w.0, r.0, v);
                // rf(w,r) → exec ∧ same address ∧ same value (Table 4).
                let ew = self.exec_event[w.index()];
                let er = self.exec_event[r.index()];
                self.f.assert_implies(v, ew);
                self.f.assert_implies(v, er);
                let ae = self.addr_eq(w, r);
                self.f.assert_implies(v, ae);
                let vw = self.values[w.index()].as_ref().expect("write value");
                let vr = self.values[r.index()].as_ref().expect("read value");
                let veq = vw.eq(&mut self.f, vr);
                self.f.assert_implies(v, veq);
                lits.push(v);
            }
            if lits.is_empty() {
                continue;
            }
            // Some source when executed; at most one source.
            let er = self.exec_event[r.index()];
            self.f
                .add_clause(std::iter::once(!er).chain(lits.iter().copied()));
            self.f.assert_at_most_one(&lits);
        }
        self.buf = lits;
        self.rf = rf;
    }

    /// A fresh variable for every pair of `upper`, row by row.
    fn decision_rel(&mut self, upper: RelView<'_>) -> OwnedRel {
        let mut rel = OwnedRel::new(upper);
        for i in 0..rel.len() {
            let v = self.f.new_lit();
            rel.set_nth(i, v);
        }
        rel
    }

    fn encode_co(&mut self, an: &RelationAnalysis<'g>) {
        let co = self.decision_rel(an.upper_of(BaseRel::Co));
        let view = co.view();
        let iw = an.set("IW").expect("IW set");
        for (a, b, v) in view.iter() {
            let (a, b) = (EventId(a), EventId(b));
            let ea = self.exec_event[a.index()];
            let eb = self.exec_event[b.index()];
            self.f.assert_implies(v, ea);
            self.f.assert_implies(v, eb);
            let ae = self.addr_eq(a, b);
            self.f.assert_implies(v, ae);
            // Antisymmetry.
            if let Some(v2) = view.get(b.0, a.0) {
                self.f.add_clause([!v, !v2]);
            }
            // Init writes come first (well-definedness (iv), §2.2).
            if iw.contains(a) {
                let both = self.pair_exec(a, b);
                let pre = self.f.and2(both, ae);
                self.f.assert_implies(pre, v);
            }
            // Totality per location for Vulkan; PTX's co stays partial
            // (§4.1, Figure 6).
            if self.graph.arch == Arch::Vulkan && a.0 < b.0 && !iw.contains(a) && !iw.contains(b) {
                if let Some(v2) = view.get(b.0, a.0) {
                    let both = self.pair_exec(a, b);
                    let pre = self.f.and2(both, ae);
                    self.f.add_clause([!pre, v, v2]);
                }
            }
        }
        transitivity(&mut self.f, view);
        self.co = co;
    }

    fn encode_sync_fence(&mut self, an: &RelationAnalysis<'g>) {
        if !an.mentions(BaseRel::SyncFence) {
            return;
        }
        let sf = self.decision_rel(an.upper_of(BaseRel::SyncFence));
        let view = sf.view();
        for (a, b, v) in view.iter() {
            let both = self.pair_exec(EventId(a), EventId(b));
            self.f.assert_implies(v, both);
            if a < b {
                if let Some(v2) = view.get(b, a) {
                    // Orientation: executed sr-related SC fences are
                    // ordered one way or the other (Table 4, clocks).
                    self.f.add_clause([!both, v, v2]);
                    self.f.add_clause([!v, !v2]);
                }
            }
        }
        transitivity(&mut self.f, view);
        self.sync_fence = sf;
    }

    // ------------------------------------------------------------------
    // the model: definitions and axioms
    // ------------------------------------------------------------------

    /// The gate directions model node `id` needs: those of its polarity.
    /// A node no axiom reads is built only in the relation-analysis
    /// ablation, and keeps the full gate.
    fn dirs(&self, id: NodeId) -> Dirs {
        match self.model.nodes().polarity(id) {
            Polarity::LOWER => Dirs::LOWER,
            Polarity::UPPER => Dirs::UPPER,
            _ => Dirs::BOTH,
        }
    }

    /// Literal of base relation `rel` at a pair of its upper bound
    /// (`None` when it is false).
    fn base_lit(&mut self, rel: BaseRel, a: EventId, b: EventId) -> Option<Lit> {
        match rel {
            BaseRel::Rf => self.rf.view().get(a.0, b.0),
            BaseRel::Co => self.co.view().get(a.0, b.0),
            BaseRel::SyncFence => self.sync_fence.view().get(a.0, b.0),
            BaseRel::Loc | BaseRel::Vloc => {
                let both = self.pair_exec(a, b);
                let ae = self.addr_eq(a, b);
                Some(self.f.and2(both, ae))
            }
            BaseRel::Syncbar | BaseRel::SyncBarrier => {
                let both = self.pair_exec(a, b);
                let ideq = self.value_eq(a, b);
                Some(self.f.and2(both, ideq))
            }
            // Static relations hold iff both events execute (Table 4).
            _ => Some(self.pair_exec(a, b)),
        }
    }

    /// Encodes the definitions and asserts the axioms. Every model node
    /// is built on its active set only, in node order, so a node's
    /// operands are built before it (see [`RelationAnalysis`]). The
    /// nodes' literals are slots of one [`Store`], sized here once.
    fn encode_model(&mut self, an: &RelationAnalysis<'g>) -> Result<(), EncodeError> {
        let model = self.model;
        let mut st = Store::new(self.graph.n_events(), an.len(), |id| slot_request(an, id));
        let mut bufs = Buffers::default();
        let defs = model.defs();
        let mut next: NodeId = 0;
        let mut i = 0;
        while i < defs.len() {
            self.watchdog(format_args!("def {}", defs[i].name))?;
            let mut end = i + 1;
            if let Some(group) = defs[i].rec_group {
                while end < defs.len() && defs[end].rec_group == Some(group) {
                    end += 1;
                }
                // Variables for the whole group first, so that members
                // can use each other; each is tied to its body below in
                // its polarity's directions (see the crate docs on
                // least-fixpoint soundness).
                for d in i..end {
                    if let Some(vars) = st.slots[an.def_root(d)] {
                        for l in &mut st.lits[vars.at..vars.at + vars.len] {
                            *l = self.f.new_lit();
                        }
                    }
                }
            }
            let last = an.def_root(end - 1);
            for id in next..=last {
                if defs[i].rec_group.is_some() && (i..end).any(|d| an.def_root(d) == id) {
                    self.tie_rec_root(an, &mut st, &mut bufs, id);
                } else {
                    self.encode_node(an, &mut st, &mut bufs, id);
                }
            }
            next = last + 1;
            i = end;
        }
        // Axioms. Each one can expand into a large relational encoding,
        // so the watchdog is polled per axiom, not only per stage.
        for (idx, axiom) in model.axioms().iter().enumerate() {
            self.watchdog(format_args!("axiom {}", axiom.display_label(idx)))?;
            let root = an.axiom_root(idx);
            for id in next..=root {
                self.encode_node(an, &mut st, &mut bufs, id);
            }
            next = root + 1;
            // The root's value slot, read over the root's active pairs.
            bufs.pairs.clear();
            if let Some(active) = an.active_rel(root) {
                let value = node_rel_lits(&st.reader(), an, an.value_node(root));
                bufs.pairs.extend(
                    active
                        .iter()
                        .filter_map(|(a, b)| Some((a.0, b.0, value.get(a.0, b.0)?))),
                );
            }
            if axiom.flagged {
                let faithful = axiom.negated && axiom.kind == AxiomKind::Empty;
                self.flags.push(Flag {
                    label: axiom.label(idx),
                    kind: axiom.kind,
                    negated: axiom.negated,
                    lits: if faithful {
                        bufs.pairs.iter().map(|&(_, _, l)| l).collect()
                    } else {
                        Vec::new()
                    },
                });
                continue;
            }
            if axiom.negated {
                return Err(EncodeError::Unsupported(
                    "negated non-flagged axioms".into(),
                ));
            }
            match axiom.kind {
                AxiomKind::Empty => {
                    for &(_, _, l) in &bufs.pairs {
                        self.f.assert_lit(!l);
                    }
                }
                AxiomKind::Irreflexive => {
                    for &(_, _, l) in bufs.pairs.iter().filter(|&&(a, b, _)| a == b) {
                        self.f.assert_lit(!l);
                    }
                }
                AxiomKind::Acyclic => self.assert_acyclic(&bufs.pairs),
            }
        }
        Ok(())
    }

    /// Acyclicity by reachability inside the strongly connected
    /// components of the encoded pairs, where every cycle lies. Each
    /// ordered pair of distinct members of a component gets a variable
    /// `t(x, z)`, and each pair `(a, b)` inside a component the clauses
    /// `r(a, b) → t(a, b)`, `r(a, b) ∧ t(b, z) → t(a, z)` for every other
    /// member `z`, and `¬(r(a, b) ∧ t(b, a))`. A cycle of true pairs
    /// forces `t` backwards along it and falsifies the last clause; when
    /// the true pairs are acyclic, their transitive closure satisfies
    /// every clause. Unit propagation closes a cycle as soon as its last
    /// pair is set (DESIGN.md §8).
    ///
    /// `pairs` are the encoded pairs, row by row. The variables `t` are
    /// ranked by the component pairs, like a node's literals.
    fn assert_acyclic(&mut self, pairs: &[(u32, u32, Lit)]) {
        let n = self.graph.n_events();
        let reach =
            Relation::from_pairs(n, pairs.iter().map(|&(a, b, _)| (EventId(a), EventId(b))))
                .transitive_closure();
        let same = reach.inter(&reach.inverse()).diff(&Relation::identity(n));
        let mut prefix = Vec::with_capacity(n);
        lits::prefix_counts(same.view(), &mut prefix);
        let vars: Vec<Lit> = (0..same.len()).map(|_| self.f.new_lit()).collect();
        let t = RelLits::new(same.view(), &prefix, &vars);
        for &(a, b, l) in pairs {
            if a == b {
                self.f.assert_lit(!l);
                continue;
            }
            // Off every cycle: `b` does not reach `a`.
            let Some(ab) = t.get(a, b) else { continue };
            let ba = t.get(b, a).expect("one component");
            self.f.assert_implies(l, ab);
            self.f.add_clause([!l, !ba]);
            for (z, bz) in t.row(b).filter(|&(z, _)| z != a) {
                let az = t.get(a, z).expect("one component");
                self.f.add_clause([!l, !bz, az]);
            }
        }
    }

    /// Builds node `id` from the encodings of its operands into its slot.
    fn encode_node(
        &mut self,
        an: &RelationAnalysis<'g>,
        st: &mut Store,
        bufs: &mut Buffers,
        id: NodeId,
    ) {
        // A reference has no encoding of its own: users read the
        // definition's root (`RelationAnalysis::value_node`). An
        // undemanded node has no slot.
        let Some(at) = st.slots[id] else { return };
        if an.is_set(id) {
            self.node_set(an, st, bufs, id, at);
        } else {
            self.node_rel(an, st, bufs, id, at);
        }
    }

    /// Ties the variables of `let rec` root `id` to its body, pair by
    /// pair in row order. A root that merely names another definition
    /// reads that definition's slot as its body; any other builds its
    /// body into the second half of its slot.
    fn tie_rec_root(
        &mut self,
        an: &RelationAnalysis<'g>,
        st: &mut Store,
        bufs: &mut Buffers,
        id: NodeId,
    ) {
        let Some(vars) = st.slots[id] else { return };
        let dirs = self.dirs(id);
        if let Op::Ref(_) = an.op(id) {
            let reader = st.reader();
            let body = node_rel_lits(&reader, an, an.value_node(id));
            for (a, b, v) in node_rel_lits(&reader, an, id).iter() {
                match body.get(a, b) {
                    Some(l) => tie(&mut self.f, v, l, dirs),
                    // The body is false here in every fixpoint.
                    None => self.f.assert_lit(!v),
                }
            }
            return;
        }
        let body = Slot {
            at: vars.at + vars.len,
            ..vars
        };
        self.node_rel(an, st, bufs, id, body);
        for k in 0..vars.len {
            let (v, l) = (st.lits[vars.at + k], st.lits[body.at + k]);
            if l == ABSENT {
                // The body is false here in every fixpoint.
                self.f.assert_lit(!v);
            } else {
                tie(&mut self.f, v, l, dirs);
            }
        }
    }

    /// Set node `id` on its active members, into slot `at`. An operand
    /// member without a literal is false.
    fn node_set(
        &mut self,
        an: &RelationAnalysis<'g>,
        st: &mut Store,
        bufs: &mut Buffers,
        id: NodeId,
        at: Slot,
    ) {
        let Some(active) = an.active_set(id) else {
            return;
        };
        let (op, dirs) = (an.op(id), self.dirs(id));
        let [a, b] = an.kids(id);
        let (out, _, reader) = st.split(at);
        match op {
            Op::Tag(_) | Op::Universe => {
                for (o, m) in out.iter_mut().zip(active.iter()) {
                    *o = self.exec_event[m.index()];
                }
            }
            Op::SetUnion | Op::SetInter | Op::SetDiff => {
                let sa = node_set_lits(&reader, an, an.value_node(a));
                let sb = node_set_lits(&reader, an, an.value_node(b));
                for (o, m) in out.iter_mut().zip(active.iter()) {
                    *o = match (op, sa.get(m.0), sb.get(m.0)) {
                        (Op::SetUnion, Some(la), Some(lb)) => self.f.or2_dirs(la, lb, dirs),
                        (Op::SetUnion, Some(l), None) | (Op::SetUnion, None, Some(l)) => l,
                        (Op::SetInter, Some(la), Some(lb)) => self.f.and2_dirs(la, lb, dirs),
                        (Op::SetDiff, Some(la), Some(lb)) => self.f.and2_dirs(la, !lb, dirs),
                        (Op::SetDiff, Some(la), None) => la,
                        _ => continue,
                    };
                }
            }
            // One `or` per member over its row, or its column for
            // `range`, each in increasing event order.
            Op::Domain | Op::Range => {
                let r = node_rel_lits(&reader, an, an.value_node(a));
                let n = self.graph.n_events() as u32;
                for (o, m) in out.iter_mut().zip(active.iter()) {
                    bufs.or.clear();
                    if op == Op::Domain {
                        bufs.or.extend(r.row(m.0).map(|(_, l)| l));
                    } else {
                        bufs.or.extend((0..n).filter_map(|x| r.get(x, m.0)));
                    }
                    if !bufs.or.is_empty() {
                        *o = self.f.or_dirs(&bufs.or, dirs);
                    }
                }
            }
            _ => unreachable!("relation operator on a set node"),
        }
    }

    /// Relation node `id` on its active pairs, into slot `at` (the
    /// node's own, or the body half of a `let rec` root's). An operand
    /// pair without a literal is false. The active pairs are visited row
    /// by row, so the `k`-th of them is the slot's `k`-th literal.
    fn node_rel(
        &mut self,
        an: &RelationAnalysis<'g>,
        st: &mut Store,
        bufs: &mut Buffers,
        id: NodeId,
        at: Slot,
    ) {
        let Some(active) = an.active_rel(id) else {
            return;
        };
        let (op, dirs) = (an.op(id), self.dirs(id));
        let [a, b] = an.kids(id);
        let (out, prefix, reader) = st.split(at);
        let pairs = out.iter_mut().zip(active.iter());
        match op {
            // A relation of a custom environment has an empty upper
            // bound, so it is never active.
            Op::Base(rel) => {
                let rel = rel.expect("builtin base relation");
                for (o, (x, y)) in pairs {
                    if let Some(l) = self.base_lit(rel, x, y) {
                        *o = l;
                    }
                }
            }
            Op::Id => out.fill(self.f.lit_true()),
            Op::IdSet => {
                let s = node_set_lits(&reader, an, an.value_node(a));
                for (o, (x, _)) in pairs {
                    if let Some(l) = s.get(x.0) {
                        *o = l;
                    }
                }
            }
            Op::Cross => {
                let sa = node_set_lits(&reader, an, an.value_node(a));
                let sb = node_set_lits(&reader, an, an.value_node(b));
                for (o, (x, y)) in pairs {
                    if let (Some(lx), Some(ly)) = (sa.get(x.0), sb.get(y.0)) {
                        *o = self.f.and2_dirs(lx, ly, dirs);
                    }
                }
            }
            Op::Union | Op::Inter | Op::Diff => {
                let ra = node_rel_lits(&reader, an, an.value_node(a));
                let rb = node_rel_lits(&reader, an, an.value_node(b));
                for (o, (x, y)) in pairs {
                    *o = match (op, ra.get(x.0, y.0), rb.get(x.0, y.0)) {
                        (Op::Union, Some(la), Some(lb)) => self.f.or2_dirs(la, lb, dirs),
                        (Op::Union, Some(l), None) | (Op::Union, None, Some(l)) => l,
                        (Op::Inter, Some(la), Some(lb)) => self.f.and2_dirs(la, lb, dirs),
                        // `lb` is read in the opposite polarity, so `!lb`
                        // gives the directions `dirs` of `¬b`.
                        (Op::Diff, Some(la), Some(lb)) => self.f.and2_dirs(la, !lb, dirs),
                        (Op::Diff, Some(la), None) => la,
                        _ => continue,
                    };
                }
            }
            Op::Seq => {
                let ra = node_rel_lits(&reader, an, an.value_node(a));
                let rb = node_rel_lits(&reader, an, an.value_node(b));
                self.encode_seq(active, prefix, ra, rb, dirs, out, bufs)
            }
            Op::Inverse => {
                let r = node_rel_lits(&reader, an, an.value_node(a));
                for (o, (x, y)) in pairs {
                    if let Some(l) = r.get(y.0, x.0) {
                        *o = l;
                    }
                }
            }
            Op::Opt => {
                let t = self.f.lit_true();
                let r = node_rel_lits(&reader, an, an.value_node(a));
                for (o, (x, y)) in pairs {
                    if let Some(l) = if x == y { Some(t) } else { r.get(x.0, y.0) } {
                        *o = l;
                    }
                }
            }
            Op::Plus | Op::Star => {
                let star = op == Op::Star;
                let body = node_rel_lits(&reader, an, an.value_node(a));
                self.encode_closure(active, prefix, body, star, dirs, out, bufs)
            }
            // Only the root of a `let rec` member that merely names
            // another definition is a reference with a slot, and
            // `tie_rec_root` reads its body in place.
            _ => unreachable!("set operator or reference on a relation node"),
        }
    }

    /// `a ; b` on the active pairs: per row `x` of `a`, one literal per
    /// target `c` over the midpoints `m` of `a(x, m) ∧ b(m, c)`. The lower
    /// direction is one clause `a(x, m) ∧ b(m, c) ⇒ out(x, c)` per
    /// midpoint, with no literal per midpoint; the others build an `and`
    /// gate per midpoint and an `or` gate over them.
    #[allow(clippy::too_many_arguments)]
    fn encode_seq(
        &mut self,
        active: RelView<'_>,
        prefix: &[u32],
        ra: RelLits<'_>,
        rb: RelLits<'_>,
        dirs: Dirs,
        out: &mut [Lit],
        bufs: &mut Buffers,
    ) {
        for x in 0..active.universe() as u32 {
            let row = active.row(x as usize);
            if arena::is_empty(row) {
                continue;
            }
            for (m, l1) in ra.row(x) {
                for (c, l2) in rb.row(m) {
                    if row[c as usize / 64] >> (c % 64) & 1 == 1 {
                        bufs.row.push((c, l1, l2));
                    }
                }
            }
            // The sort is stable, so each target's midpoints stay in
            // increasing order.
            bufs.row.sort_by_key(|&(c, _, _)| c);
            for group in bufs.row.chunk_by(|p, q| p.0 == q.0) {
                let l = if dirs == Dirs::LOWER {
                    bufs.terms.clear();
                    bufs.terms.extend(group.iter().map(|&(_, l1, l2)| (l1, l2)));
                    self.f.or_of_ands_lower(&bufs.terms)
                } else {
                    bufs.or.clear();
                    for &(_, l1, l2) in group {
                        bufs.or.push(self.f.and2_dirs(l1, l2, dirs));
                    }
                    self.f.or_dirs(&bufs.or, dirs)
                };
                out[lits::index(active, prefix, x, group[0].0)] = l;
            }
            bufs.row.clear();
        }
    }

    /// Transitive closure on the active pairs, which the analysis closes
    /// under their supports: `var(x, y)` stands for `body(x, y) ∨ ∃m ≠ x.
    /// var(x, m) ∧ body(m, y)`. The lower direction is Horn clauses with
    /// no gates, `body(x, y) ⇒ var(x, y)` and `var(x, m) ∧ body(m, y) ⇒
    /// var(x, y)`, whose models assign a superset of the least fixpoint.
    /// The upper direction, `var(x, y) ⇒ body(x, y) ∨ ⋁ₘ (var(x, m) ∧
    /// body(m, y))`, is exact only when `body` is acyclic in every model
    /// (DESIGN.md §8). Both directions are cyclic iff gates. `r*` encodes
    /// its diagonal as true.
    #[allow(clippy::too_many_arguments)]
    fn encode_closure(
        &mut self,
        active: RelView<'_>,
        prefix: &[u32],
        base: RelLits<'_>,
        reflexive: bool,
        dirs: Dirs,
        out: &mut [Lit],
        bufs: &mut Buffers,
    ) {
        let t = self.f.lit_true();
        for (o, (x, y)) in out.iter_mut().zip(active.iter()) {
            *o = if reflexive && x == y {
                t
            } else {
                self.f.new_lit()
            };
        }
        let vars = RelLits::new(active, prefix, out);
        for (x, y, v) in vars.iter() {
            if reflexive && x == y {
                continue;
            }
            let direct = base.get(x, y);
            // The midpoints `m ≠ x` (the direct pair covers `m = x`).
            let steps = vars
                .row(x)
                .filter(|&(m, _)| m != x)
                .filter_map(|(m, vm)| Some((vm, base.get(m, y)?)));
            if dirs == Dirs::LOWER {
                if let Some(bl) = direct {
                    self.f.assert_implies(bl, v);
                }
                for (vm, bl) in steps {
                    self.f.add_clause([!vm, !bl, v]);
                }
                continue;
            }
            bufs.or.clear();
            bufs.or.extend(direct);
            for (vm, bl) in steps {
                bufs.or.push(self.f.and2_dirs(vm, bl, dirs));
            }
            let rhs = self.f.or_dirs(&bufs.or, dirs);
            tie(&mut self.f, v, rhs, dirs);
        }
    }

    // ------------------------------------------------------------------
    // queries
    // ------------------------------------------------------------------

    fn encode_completion(&mut self) {
        for t in 0..self.graph.threads().len() {
            let mut ends = Vec::new();
            for (blk, term) in self.graph.thread_leaves(t) {
                if matches!(term, UTerm::End { .. }) {
                    ends.push(self.exec_block[blk as usize]);
                }
            }
            let lit = self.f.or(&ends);
            self.completed.push(lit);
        }
    }

    /// The final value of a thread register (ite-chain over End leaves).
    fn final_reg_bv(&mut self, thread: usize, reg: gpumc_ir::Reg) -> BitVec {
        if let Some(bv) = self.final_reg_cache.get(&(thread, reg.0)) {
            return bv.clone();
        }
        let w = BV_WIDTH;
        let mut acc = BitVec::constant(&mut self.f, w, 0);
        let leaves: Vec<(BlockId, Option<Val>)> = self
            .graph
            .thread_leaves(thread)
            .into_iter()
            .filter_map(|(blk, term)| match term {
                UTerm::End { final_regs } => Some((
                    blk,
                    final_regs
                        .iter()
                        .find(|(r, _)| *r == reg)
                        .map(|(_, v)| v.clone()),
                )),
                _ => None,
            })
            .collect();
        for (blk, val) in leaves {
            let bv = match val {
                Some(v) => self.val_bv(&v),
                None => BitVec::constant(&mut self.f, w, 0),
            };
            let cond = self.exec_block[blk as usize];
            acc = bv.select(&mut self.f, cond, &acc);
        }
        self.final_reg_cache.insert((thread, reg.0), acc.clone());
        acc
    }

    /// A literal saying write `w` is co-maximal.
    fn co_maximal(&mut self, w: EventId) -> Lit {
        let mut succs = std::mem::take(&mut self.buf);
        succs.clear();
        succs.extend(self.co.view().row(w.0).map(|(_, l)| l));
        let any = self.f.or(&succs);
        self.buf = succs;
        !any
    }

    /// The final value of a memory element: an ite-chain over candidate
    /// co-maximal writes.
    fn final_mem_bv(&mut self, loc: gpumc_ir::LocId, index: u32) -> BitVec {
        let root = self.graph.physical_root(loc);
        let w = BV_WIDTH;
        let mut acc = BitVec::constant(&mut self.f, w, 0);
        let idx_bv = BitVec::constant(&mut self.f, w, u64::from(index));
        let writes: Vec<EventId> = self
            .graph
            .events()
            .iter()
            .filter(|e| e.tags.contains(Tag::W))
            .filter(|e| {
                self.graph
                    .virtual_loc(e.id)
                    .is_some_and(|l| self.graph.physical_root(l) == root)
            })
            .map(|e| e.id)
            .collect();
        for wr in writes {
            let exec = self.exec_event[wr.index()];
            let comax = self.co_maximal(wr);
            let addr = self.addr_bv[wr.index()].as_ref().expect("write addr");
            let addr_ok = addr.eq(&mut self.f, &idx_bv);
            let sel = self.f.and(&[exec, comax, addr_ok]);
            let val = self.values[wr.index()].as_ref().expect("write value");
            acc = val.select(&mut self.f, sel, &acc);
        }
        acc
    }

    fn atom_bv(&mut self, a: &CondAtom) -> BitVec {
        let w = BV_WIDTH;
        match a {
            CondAtom::Const(c) => BitVec::constant(&mut self.f, w, *c),
            CondAtom::Register { thread, reg } => self.final_reg_bv(*thread, *reg),
            CondAtom::Memory { loc, index } => self.final_mem_bv(*loc, *index),
        }
    }

    fn cond_lit(&mut self, c: &Condition) -> Lit {
        match c {
            Condition::True => self.f.lit_true(),
            Condition::Eq(a, b) => {
                let (ba, bb) = (self.atom_bv(a), self.atom_bv(b));
                ba.eq(&mut self.f, &bb)
            }
            Condition::Ne(a, b) => {
                let (ba, bb) = (self.atom_bv(a), self.atom_bv(b));
                !ba.eq(&mut self.f, &bb)
            }
            Condition::And(a, b) => {
                let (la, lb) = (self.cond_lit(a), self.cond_lit(b));
                self.f.and2(la, lb)
            }
            Condition::Or(a, b) => {
                let (la, lb) = (self.cond_lit(a), self.cond_lit(b));
                self.f.or2(la, lb)
            }
            Condition::Not(a) => {
                let l = self.cond_lit(a);
                !l
            }
        }
    }

    /// Searches for a consistent, complete behaviour satisfying the
    /// test's condition — or violating it for `forall` tests. Recorded
    /// as `"assertion"`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::WitnessMismatch`] if a SAT witness fails
    /// interpreter re-validation (an internal bug), and
    /// [`EncodeError::Unknown`] when the query is interrupted. A failed
    /// query records nothing, and the encoding stays usable.
    pub fn find_assertion_witness(&mut self) -> Result<QueryResult<'g>, EncodeError> {
        let assertion = self
            .graph
            .assertion
            .clone()
            .unwrap_or(gpumc_ir::Assertion::Exists(Condition::True));
        let (cond, negate) = match &assertion {
            gpumc_ir::Assertion::Exists(c) | gpumc_ir::Assertion::NotExists(c) => (c, false),
            gpumc_ir::Assertion::Forall(c) => (c, true),
        };
        self.record("assertion", |enc| enc.condition_query(cond, negate))
    }

    fn condition_query(
        &mut self,
        cond: &Condition,
        negate: bool,
    ) -> Result<QueryResult<'g>, EncodeError> {
        let act = self.f.new_lit();
        let completed = self.completed.clone();
        for c in completed {
            self.f.add_clause([!act, c]);
        }
        let mut l = self.cond_lit(cond);
        if negate {
            l = !l;
        }
        self.f.add_clause([!act, l]);
        self.solve_and_decode(act, Goal::Completed)
    }

    /// Searches for a liveness violation (§6.4): every thread completed
    /// or stuck on a co-maximal spin read, at least one stuck. Recorded
    /// as `"liveness"`.
    ///
    /// # Errors
    ///
    /// See [`Encoding::find_assertion_witness`].
    pub fn find_liveness_violation(&mut self) -> Result<QueryResult<'g>, EncodeError> {
        self.record("liveness", Encoding::liveness_query)
    }

    fn liveness_query(&mut self) -> Result<QueryResult<'g>, EncodeError> {
        let act = self.f.new_lit();
        let mut any_stuck = Vec::new();
        for t in 0..self.graph.threads().len() {
            let mut stuck_lits = Vec::new();
            let leaves: Vec<(BlockId, Option<EventId>)> = self
                .graph
                .thread_leaves(t)
                .into_iter()
                .filter_map(|(blk, term)| match term {
                    UTerm::Bound { spin } => Some((blk, spin.as_ref().map(|s| s.read))),
                    _ => None,
                })
                .collect();
            for (blk, spin) in leaves {
                let exec = self.exec_block[blk as usize];
                match spin {
                    Some(read) => {
                        // Stuck: the spin read observes a co-maximal write.
                        let rf = self.rf.view();
                        let sources: Vec<(EventId, Lit)> = (0..self.graph.n_events() as u32)
                            .filter_map(|w| Some((EventId(w), rf.get(w, read.0)?)))
                            .collect();
                        let mut comax_src = Vec::new();
                        for (wr, rl) in sources {
                            let cm = self.co_maximal(wr);
                            let and = self.f.and2(rl, cm);
                            comax_src.push(and);
                        }
                        let src_ok = self.f.or(&comax_src);
                        let stuck = self.f.and2(exec, src_ok);
                        stuck_lits.push(stuck);
                    }
                    None => {
                        // Non-spin bound paths are not liveness witnesses.
                        self.f.add_clause([!act, !exec]);
                    }
                }
            }
            let stuck_t = self.f.or(&stuck_lits);
            let comp_t = self.completed[t];
            let ok = self.f.or2(stuck_t, comp_t);
            self.f.add_clause([!act, ok]);
            any_stuck.push(stuck_t);
        }
        let mut clause = vec![!act];
        clause.extend(any_stuck);
        self.f.add_clause(clause);
        self.solve_and_decode(act, Goal::Liveness)
    }

    /// Searches for a consistent, complete behaviour raising the given
    /// flag (e.g. `dr`, the Vulkan data-race detector). Recorded as
    /// `"flag:<name>"`.
    ///
    /// # Errors
    ///
    /// Fails with [`EncodeError::Unsupported`] when the model defines no
    /// such flag, or a flag of another form than `flag ~empty r`, the
    /// only one the query encodes (one true pair of `r`); the explicit
    /// engines answer the others. See also
    /// [`Encoding::find_assertion_witness`].
    pub fn find_flag(&mut self, name: &str) -> Result<QueryResult<'g>, EncodeError> {
        // A later flag of the same name shadows an earlier one.
        let Some(flag) = self.flags.iter().rposition(|f| f.label == name) else {
            return Err(EncodeError::Unsupported(format!(
                "model defines no flag `{name}`"
            )));
        };
        let Flag { kind, negated, .. } = self.flags[flag];
        if !(negated && kind == AxiomKind::Empty) {
            let tilde = if negated { "~" } else { "" };
            return Err(EncodeError::Unsupported(format!(
                "flag `{name}` has the form `flag {tilde}{kind}`; the SAT encoding \
                 answers only `flag ~empty`"
            )));
        }
        self.record(&format!("flag:{name}"), |enc| {
            let act = enc.f.new_lit();
            let completed = enc.completed.clone();
            for c in completed {
                enc.f.add_clause([!act, c]);
            }
            let lits = &enc.flags[flag].lits;
            enc.f
                .add_clause(std::iter::once(!act).chain(lits.iter().copied()));
            enc.solve_and_decode(act, Goal::Flag(name))
        })
    }

    /// Runs one query and, when it answers, appends its record to the
    /// ledger: the solver-counter deltas and the wall-clock time of the
    /// whole query.
    fn record(
        &mut self,
        label: &str,
        query: impl FnOnce(&mut Encoding<'g>) -> Result<QueryResult<'g>, EncodeError>,
    ) -> Result<QueryResult<'g>, EncodeError> {
        let before = self.f.solver().stats();
        let start = Instant::now();
        let result = query(self)?;
        let after = self.f.solver().stats();
        self.queries.push(QueryRecord {
            label: label.to_string(),
            stats: QueryStats {
                conflicts: after.conflicts - before.conflicts,
                decisions: after.decisions - before.decisions,
                propagations: after.propagations - before.propagations,
                learnt_before: before.learnt,
                learnt_after: after.learnt,
                time_us: start.elapsed().as_micros(),
            },
        });
        Ok(result)
    }

    fn solve_and_decode(
        &mut self,
        act: Lit,
        goal: Goal<'_>,
    ) -> Result<QueryResult<'g>, EncodeError> {
        let result = self.f.solve_with_assumptions(&[act]);
        if let Some(interrupt) = result.interrupt() {
            return Err(EncodeError::Unknown(interrupt.to_string()));
        }
        if result.is_unsat() {
            return Ok(QueryResult {
                found: false,
                witness: None,
            });
        }
        let exec = self.decode();
        // Defense in depth: the witness must satisfy the model according
        // to the explicit interpreter.
        let (model, graph) = (self.model, self.graph);
        let verdict = self
            .interpreter
            .get_or_insert_with(|| Interpreter::new(model, graph))
            .check(&exec);
        if !verdict.consistent {
            return Err(EncodeError::WitnessMismatch(format!(
                "SAT witness violates axiom {:?}\n{}",
                verdict.failed_axiom,
                exec.render()
            )));
        }
        // It must also witness its query: a wrong literal in a flagged
        // relation would otherwise report a race the interpreter does
        // not see.
        let witnessed = match goal {
            Goal::Completed => exec.all_completed(),
            Goal::Liveness => exec.is_liveness_violation(),
            Goal::Flag(name) => exec.all_completed() && verdict.has_flag(name),
        };
        if !witnessed {
            return Err(EncodeError::WitnessMismatch(format!(
                "SAT witness does not show its query's goal ({goal:?})\n{}",
                exec.render()
            )));
        }
        Ok(QueryResult {
            found: true,
            witness: Some(exec),
        })
    }

    /// Decodes the current SAT model into an execution.
    fn decode(&mut self) -> Execution<'g> {
        let g = self.graph;
        let n = g.n_events();
        let mut e = Execution::new(g);
        for i in 0..n {
            if self.f.value_or_false(self.exec_event[i]) {
                e.executed.insert(EventId(i as u32));
            }
        }
        for (w, r, l) in self.rf.view().iter() {
            if self.f.value_or_false(l) && e.executed.contains(EventId(r)) {
                e.rf[r as usize] = Some(EventId(w));
            }
        }
        for (a, b, l) in self.co.view().iter() {
            if self.f.value_or_false(l) {
                e.co.insert(EventId(a), EventId(b));
            }
        }
        for i in 0..n {
            let id = EventId(i as u32);
            if !e.executed.contains(id) {
                continue;
            }
            if let Some(bv) = &self.values[i] {
                e.values[i] = Some(bv.value_in(&self.f));
            }
            if let Some(bv) = &self.addr_bv[i] {
                let idx = bv.value_in(&self.f);
                if let Some(vl) = g.virtual_loc(id) {
                    e.vaddrs[i] = Some((vl, idx));
                    e.addrs[i] = Some((g.physical_root(vl), idx));
                }
            }
        }
        for t in 0..g.threads().len() {
            let mut chosen = None;
            for (blk, _) in g.thread_leaves(t) {
                if self.f.value_or_false(self.exec_block[blk as usize]) {
                    chosen = Some(blk);
                    break;
                }
            }
            let blk = chosen.expect("exactly one leaf executes");
            e.leaf.push(blk);
            e.outcomes.push(match &g.block(blk).term {
                UTerm::End { .. } => ThreadOutcome::Completed,
                UTerm::Bound { spin: Some(s) } => ThreadOutcome::Stuck { spin_read: s.read },
                UTerm::Bound { spin: None } => ThreadOutcome::Incomplete,
                UTerm::Branch { .. } => unreachable!("leaf"),
            });
        }
        // Fence order: topological sort of the chosen sync_fence edges.
        let mut fences: Vec<EventId> = e
            .executed
            .iter()
            .filter(|&x| g.event(x).tags.contains(Tag::F) && g.event(x).tags.contains(Tag::SC))
            .collect();
        let sf = self.sync_fence.view();
        let f = &self.f;
        fences.sort_by(|&a, &b| {
            if sf.get(a.0, b.0).is_some_and(|l| f.value_or_false(l)) {
                std::cmp::Ordering::Less
            } else if sf.get(b.0, a.0).is_some_and(|l| f.value_or_false(l)) {
                std::cmp::Ordering::Greater
            } else {
                a.cmp(&b)
            }
        });
        e.fence_order = fences;
        e
    }
}

impl<'g> Encoding<'g> {
    /// Limits SAT conflicts per query; an exhausted budget surfaces as
    /// [`EncodeError::Unknown`] and leaves the encoding usable.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.f.solver_mut().set_conflict_budget(budget);
    }

    /// Installs (or clears) a cooperative cancellation token polled by
    /// the solver during every query on this encoding. Cancellation or
    /// deadline expiry surfaces as [`EncodeError::Unknown`].
    pub fn set_cancel_token(&mut self, token: Option<gpumc_sat::CancelToken>) {
        self.f.solver_mut().set_cancel_token(token);
    }

    /// One record per answered query, in query order.
    ///
    /// # Example
    ///
    /// Two properties asked of one encoding leave two records:
    ///
    /// ```
    /// let src = "PTX MP\n{ x = 0; flag = 0; }\n\
    /// P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
    /// st.weak x, 1 | ld.weak r0, flag ;\n\
    /// st.weak flag, 1 | ld.weak r1, x ;\n\
    /// exists (P1:r0 == 1 /\\ P1:r1 == 0)";
    /// let p = gpumc_litmus::parse(src).unwrap();
    /// let g = gpumc_ir::compile(&gpumc_ir::unroll(&p, 1).unwrap());
    /// let model = gpumc_models::ptx60();
    /// let mut enc = gpumc_encode::encode(&g, &model, &Default::default()).unwrap();
    /// assert!(enc.find_assertion_witness().unwrap().found);
    /// assert!(!enc.find_liveness_violation().unwrap().found);
    /// assert_eq!(enc.queries().len(), 2);
    /// ```
    pub fn queries(&self) -> &[QueryRecord] {
        &self.queries
    }

    /// Microseconds spent on the relation analysis (bounds and active
    /// sets) for this encoding.
    pub fn bounds_time_us(&self) -> u64 {
        self.bounds_us
    }

    /// Microseconds spent building the SAT encoding (circuit
    /// construction, excluding bounds analysis and solving).
    pub fn encode_time_us(&self) -> u64 {
        self.encode_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = "PTX MP\n{ x = 0; flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.weak x, 1 | ld.weak r0, flag ;\n\
st.weak flag, 1 | ld.weak r1, x ;\n\
exists (P1:r0 == 1 /\\ P1:r1 == 0)";

    fn graph(src: &str, bound: u32) -> EventGraph {
        let p = gpumc_litmus::parse(src).unwrap();
        gpumc_ir::compile(&gpumc_ir::unroll(&p, bound).unwrap())
    }

    #[test]
    fn session_answers_all_three_properties_from_one_encoding() {
        let g = graph(MP, 1);
        let model = gpumc_models::ptx60();
        let mut enc = encode(&g, &model, &Default::default()).unwrap();
        let vars_after_encode = enc.num_vars();
        assert!(enc.find_assertion_witness().unwrap().found);
        assert!(!enc.find_liveness_violation().unwrap().found);
        assert!(enc.find_flag("dr").is_err(), "PTX models define no dr flag");
        // All queries shared one formula: later queries only appended
        // gated clauses, they never rebuilt the base encoding.
        assert!(enc.num_vars() >= vars_after_encode);
        assert_eq!(enc.queries().len(), 2, "failed flag query records nothing");
        assert_eq!(enc.queries()[0].label, "assertion");
        assert_eq!(enc.queries()[1].label, "liveness");
    }

    #[test]
    fn later_queries_start_with_earlier_learning() {
        // Use a bound-2 spinloop test so the assertion query actually
        // learns something before liveness runs.
        let spin: &str = "PTX spin\n{ flag = 0; }\n\
P0@cta 0,gpu 0 | P1@cta 1,gpu 0 ;\n\
st.relaxed.gpu flag, 1 | LC00: ;\n\
 | ld.relaxed.gpu r0, flag ;\n\
 | bne r0, 1, LC00 ;\n\
exists (P1:r0 == 1)";
        let g = graph(spin, 2);
        let model = gpumc_models::ptx60();
        let mut enc = encode(&g, &model, &Default::default()).unwrap();
        let _ = enc.find_assertion_witness().unwrap();
        let _ = enc.find_liveness_violation().unwrap();
        let q = enc.queries();
        assert_eq!(q.len(), 2);
        assert_eq!(
            q[1].stats.learnt_before, q[0].stats.learnt_after,
            "liveness query must inherit the assertion query's learnt clauses"
        );
    }

    #[test]
    fn interrupted_query_reports_unknown_and_session_survives() {
        let g = graph(MP, 1);
        let model = gpumc_models::ptx60();
        let mut enc = encode(&g, &model, &Default::default()).unwrap();
        let token = gpumc_sat::CancelToken::new();
        token.cancel();
        enc.set_cancel_token(Some(token));
        match enc.find_assertion_witness() {
            Err(EncodeError::Unknown(reason)) => assert_eq!(reason, "cancelled"),
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert_eq!(enc.queries().len(), 0, "interrupted query records nothing");
        // The encoding answers correctly once the token is cleared.
        enc.set_cancel_token(None);
        assert!(enc.find_assertion_witness().unwrap().found);
        assert!(!enc.find_liveness_violation().unwrap().found);
    }

    #[test]
    fn each_acyclic_axiom_is_checked_on_its_own() {
        // `co` and `co^-1` are each acyclic in every execution, but their
        // union has a cycle as soon as Vulkan's total `co` orders the two
        // writes. The final value is reachable only if each axiom gets its
        // own order.
        let src = "VULKAN 2W\n{ x = 0; }\n\
P0@sg 0,wg 0,qf 0 | P1@sg 0,wg 1,qf 0 ;\n\
st.atom.dv.sc0 x, 1 | st.atom.dv.sc0 x, 2 ;\n\
exists (x == 2)";
        let g = graph(src, 1);
        let model = gpumc_cat::parse("acyclic co as forward\nacyclic co^-1 as backward").unwrap();
        let mut enc = encode(&g, &model, &Default::default()).unwrap();
        assert!(enc.find_assertion_witness().unwrap().found);
    }

    #[test]
    fn a_flag_query_needs_the_form_it_encodes() {
        // `find_flag` asks for one true pair of the flagged relation,
        // which is what `flag ~empty r` raises on. `flag empty po` is
        // raised only when `po` is empty, so the query refuses it before
        // posing anything, and so it does every other form.
        let g = graph(MP, 1);
        for form in [
            "empty",
            "acyclic",
            "irreflexive",
            "~acyclic",
            "~irreflexive",
        ] {
            let model = gpumc_cat::parse(&format!("flag {form} po as f")).unwrap();
            let mut enc = encode(&g, &model, &Default::default()).unwrap();
            match enc.find_flag("f") {
                Err(EncodeError::Unsupported(m)) => {
                    assert!(m.contains(&format!("`flag {form}`")), "{m}")
                }
                other => panic!("flag {form}: expected Unsupported, got {other:?}"),
            }
            assert!(enc.queries().is_empty(), "a refused flag records nothing");
        }
        let model = gpumc_cat::parse("flag ~empty po as f").unwrap();
        let mut enc = encode(&g, &model, &Default::default()).unwrap();
        assert!(enc.find_flag("f").unwrap().found);
    }

    #[test]
    fn a_flag_witness_must_raise_its_flag() {
        // Pose a flag query whose witness cannot show the flag: the
        // assertion's completed-execution goal, under the name of a flag
        // the interpreter never raises. The witness check must fail it.
        let g = graph(MP, 1);
        let model = gpumc_models::ptx60();
        let mut enc = encode(&g, &model, &Default::default()).unwrap();
        let act = enc.f.new_lit();
        for c in enc.completed.clone() {
            enc.f.add_clause([!act, c]);
        }
        match enc.solve_and_decode(act, Goal::Flag("never-raised")) {
            Err(EncodeError::WitnessMismatch(m)) => assert!(m.contains("never-raised"), "{m}"),
            other => panic!("expected WitnessMismatch, got {other:?}"),
        }
        // The same query with its own goal stands.
        assert!(enc.solve_and_decode(act, Goal::Completed).unwrap().found);
    }

    #[test]
    fn session_verdicts_match_fresh_encodings() {
        let g = graph(MP, 1);
        let model = gpumc_models::ptx60();
        let opts = EncodeOptions::default();
        let mut shared = encode(&g, &model, &opts).unwrap();
        let a = shared.find_assertion_witness().unwrap().found;
        let l = shared.find_liveness_violation().unwrap().found;
        let mut fresh_a = encode(&g, &model, &opts).unwrap();
        let mut fresh_l = encode(&g, &model, &opts).unwrap();
        assert_eq!(a, fresh_a.find_assertion_witness().unwrap().found);
        assert_eq!(l, fresh_l.find_liveness_violation().unwrap().found);
    }
}
