//! The CNF encoding of program semantics modulo a `.cat` model.

use std::collections::BTreeMap;
use std::time::Instant;

use gpumc_cat::{AxiomKind, CatModel, DefBody, RelExpr, SetExpr};
use gpumc_exec::{Execution, Interpreter, Relation, ThreadOutcome};
use gpumc_ir::{
    Arch, BlockId, CondAtom, Condition, EventGraph, EventId, EventKind, Tag, UTerm, Val,
};
use gpumc_sat::bv::BitVec;
use gpumc_sat::{Formula, Lit};

use crate::bounds::RelationAnalysis;

/// Options controlling the encoding.
#[derive(Debug, Clone)]
pub struct EncodeOptions {
    /// Bit-vector width for data values and array indices.
    pub bv_width: usize,
    /// Whether to prune the encoding with relation-analysis bounds
    /// (disable for the ablation benchmark).
    pub use_bounds: bool,
    /// Print per-stage size diagnostics to stderr.
    pub trace: bool,
    /// Watchdog for the *encode* phase: polled between build stages and
    /// inside the axiom loop, so a deadline or cancellation fires during
    /// a pathological encoding too, not only once solving starts.
    pub cancel: Option<gpumc_sat::CancelToken>,
    /// Memory budget handed to the solver (see
    /// [`gpumc_sat::Solver::set_mem_budget_bytes`]); also checked between
    /// build stages so an encoding blow-up aborts with a classified
    /// [`EncodeError::Unknown`] instead of exhausting the host.
    pub mem_budget_bytes: Option<usize>,
    /// How queries on the encoding are solved: sequentially, with a
    /// diversified portfolio, or decided per query from the encoding's
    /// size (`Auto`). See [`gpumc_sat::ParallelPolicy`].
    pub parallel: gpumc_sat::ParallelPolicy,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions {
            bv_width: 8,
            use_bounds: true,
            trace: false,
            cancel: None,
            mem_budget_bytes: None,
            parallel: gpumc_sat::ParallelPolicy::Off,
        }
    }
}

/// Encoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The program/model uses an unsupported feature.
    Unsupported(String),
    /// A SAT witness failed re-validation by the interpreter — an
    /// internal consistency bug, never expected.
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

/// A relation encoded as literals per (may-)pair.
///
/// This and every other encoder map is a `BTreeMap`. Gates and clauses
/// are emitted while iterating these maps, and clause order steers the
/// solver's search, so the iteration order must be a function of the
/// input alone (DESIGN.md §12); a `HashMap` with the default
/// `RandomState` iterates differently in every map and every process.
/// The keys are event and definition indices the compiler assigns (plus
/// relation names from the model), never values a client chooses.
#[derive(Debug, Clone, Default)]
struct EncRel {
    pairs: BTreeMap<(u32, u32), Lit>,
}

impl EncRel {
    fn get(&self, a: EventId, b: EventId) -> Option<Lit> {
        self.pairs.get(&(a.0, b.0)).copied()
    }
}

/// A set encoded as literals per (may-)member.
#[derive(Debug, Clone, Default)]
struct EncSet {
    members: BTreeMap<u32, Lit>,
}

/// Like [`encode`] but prints per-stage variable counts to stderr
/// (diagnostics for the encoding-size experiments).
pub fn encode_traced<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &EncodeOptions,
) -> Result<Encoding<'g>, EncodeError> {
    let mut opts = opts.clone();
    opts.trace = true;
    encode(graph, model, &opts)
}

/// Builds the encoding of a graph under a model.
///
/// # Errors
///
/// Fails when the model uses features the encoder rejects (negated
/// non-flagged axioms); the shipped models are fully supported.
pub fn encode<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &EncodeOptions,
) -> Result<Encoding<'g>, EncodeError> {
    let t0 = Instant::now();
    let analysis = RelationAnalysis::new_with(graph, model, opts.use_bounds);
    let bounds_us = t0.elapsed().as_micros() as u64;
    let mut enc = build(graph, model, opts, analysis)?;
    enc.bounds_us = bounds_us;
    Ok(enc)
}

/// Like [`encode`], but sources the relation-analysis bounds from `memo`
/// so repeated encodings of the same (program, bound) graph — e.g. the
/// safety, liveness and DRF checks of one test — compute them only once.
///
/// # Errors
///
/// Same failure modes as [`encode`].
pub fn encode_memoized<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &EncodeOptions,
    memo: &crate::BoundsMemo,
) -> Result<Encoding<'g>, EncodeError> {
    let t0 = Instant::now();
    let bounds = memo.get_or_compute(graph, model, opts.use_bounds);
    let bounds_us = t0.elapsed().as_micros() as u64;
    let mut enc = build(
        graph,
        model,
        opts,
        RelationAnalysis::from_shared(graph, bounds),
    )?;
    enc.bounds_us = bounds_us;
    Ok(enc)
}

fn build<'g>(
    graph: &'g EventGraph,
    model: &CatModel,
    opts: &EncodeOptions,
    analysis: RelationAnalysis<'g>,
) -> Result<Encoding<'g>, EncodeError> {
    let mut enc = Encoding {
        graph,
        model: model.clone(),
        analysis,
        opts: opts.clone(),
        f: Formula::new(),
        exec_block: Vec::new(),
        exec_event: Vec::new(),
        values: Vec::new(),
        addr_bv: Vec::new(),
        rf: EncRel::default(),
        co: EncRel::default(),
        sync_fence: EncRel::default(),
        base_cache: BTreeMap::new(),
        pair_exec_cache: BTreeMap::new(),
        addr_eq_cache: BTreeMap::new(),
        def_rels: Vec::new(),
        def_sets: Vec::new(),
        final_reg_cache: BTreeMap::new(),
        completed: Vec::new(),
        flag_rels: BTreeMap::new(),
        positions: Vec::new(),
        bounds_us: 0,
        encode_us: 0,
        portfolio: None,
    };
    let t0 = Instant::now();
    enc.build()?;
    enc.encode_us = t0.elapsed().as_micros() as u64;
    Ok(enc)
}

/// A built encoding, ready for queries.
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
    model: CatModel,
    analysis: RelationAnalysis<'g>,
    opts: EncodeOptions,
    f: Formula,
    exec_block: Vec<Lit>,
    exec_event: Vec<Lit>,
    values: Vec<Option<BitVec>>,
    addr_bv: Vec<Option<BitVec>>,
    rf: EncRel,
    co: EncRel,
    sync_fence: EncRel,
    base_cache: BTreeMap<(String, u32, u32), Lit>,
    pair_exec_cache: BTreeMap<(u32, u32), Lit>,
    addr_eq_cache: BTreeMap<(u32, u32), Lit>,
    def_rels: Vec<Option<EncRel>>,
    def_sets: Vec<Option<EncSet>>,
    final_reg_cache: BTreeMap<(usize, u32), BitVec>,
    /// Per-thread "reached an End leaf" literal.
    completed: Vec<Lit>,
    /// Flagged-axiom label → encoded relation.
    flag_rels: BTreeMap<String, EncRel>,
    /// Lazily created acyclicity position vectors.
    positions: Vec<Option<BitVec>>,
    /// Time spent on relation-analysis bounds, microseconds.
    bounds_us: u64,
    /// Time spent building the SAT encoding, microseconds.
    encode_us: u64,
    /// Aggregate portfolio statistics across every parallel query run on
    /// this encoding (`None` until a portfolio solve happens).
    portfolio: Option<gpumc_sat::PortfolioStats>,
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

    fn trace(&self, stage: &str) {
        if self.opts.trace {
            eprintln!(
                "[encode] {stage}: vars={} clauses={}",
                self.num_vars(),
                self.num_clauses()
            );
        }
    }

    // ------------------------------------------------------------------
    // construction
    // ------------------------------------------------------------------

    fn build(&mut self) -> Result<(), EncodeError> {
        if let Some(budget) = self.opts.mem_budget_bytes {
            self.f.solver_mut().set_mem_budget_bytes(Some(budget));
        }
        if let Some(token) = self.opts.cancel.clone() {
            self.f.solver_mut().set_cancel_token(Some(token));
        }
        self.trace("start");
        self.encode_control_flow();
        self.watchdog("control")?;
        self.trace("control");
        self.encode_data_flow();
        self.watchdog("data")?;
        self.trace("data");
        self.encode_exec_events();
        self.encode_rf();
        self.watchdog("rf")?;
        self.trace("rf");
        self.encode_co();
        self.watchdog("co")?;
        self.trace("co");
        self.encode_sync_fence();
        self.encode_model()?;
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
    /// past its deadline or grow without bound.
    pub(crate) fn watchdog(&mut self, stage: &str) -> Result<(), EncodeError> {
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
        let w = self.opts.bv_width;
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
                    let read_val = self.values[read.index()].clone().expect("read value");
                    let exp_bv = self.val_bv(exp);
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
        let w = self.opts.bv_width;
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
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if let Some(&l) = self.addr_eq_cache.get(&key) {
            return l;
        }
        let g = self.graph;
        let lit = if !g.may_alias(a, b) {
            self.f.lit_false()
        } else if g.must_alias(a, b) {
            self.f.lit_true()
        } else {
            // Same physical root is implied by may_alias; compare indices.
            let ba = self.addr_bv[a.index()].clone().expect("memory event");
            let bb = self.addr_bv[b.index()].clone().expect("memory event");
            ba.eq(&mut self.f, &bb)
        };
        self.addr_eq_cache.insert(key, lit);
        lit
    }

    fn pair_exec(&mut self, a: EventId, b: EventId) -> Lit {
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if let Some(&l) = self.pair_exec_cache.get(&key) {
            return l;
        }
        let lit = self
            .f
            .and2(self.exec_event[a.index()], self.exec_event[b.index()]);
        self.pair_exec_cache.insert(key, lit);
        lit
    }

    fn encode_rf(&mut self) {
        let upper = self
            .analysis
            .base_upper("rf")
            .cloned()
            .unwrap_or_else(|| Relation::empty(self.graph.n_events()));
        let mut per_read: BTreeMap<u32, Vec<EventId>> = BTreeMap::new();
        for (w, r) in upper.iter() {
            per_read.entry(r.0).or_default().push(w);
        }
        for (r_idx, writers) in per_read {
            let r = EventId(r_idx);
            let mut lits = Vec::new();
            for w in writers {
                let v = self.f.new_lit();
                self.rf.pairs.insert((w.0, r.0), v);
                // rf(w,r) → exec ∧ same address ∧ same value (Table 4).
                let ew = self.exec_event[w.index()];
                let er = self.exec_event[r.index()];
                self.f.assert_implies(v, ew);
                self.f.assert_implies(v, er);
                let ae = self.addr_eq(w, r);
                self.f.assert_implies(v, ae);
                let vw = self.values[w.index()].clone().expect("write value");
                let vr = self.values[r.index()].clone().expect("read value");
                let veq = vw.eq(&mut self.f, &vr);
                self.f.assert_implies(v, veq);
                lits.push(v);
            }
            // Some source when executed; at most one source.
            let er = self.exec_event[r.index()];
            let mut clause = vec![!er];
            clause.extend(&lits);
            self.f.add_clause(clause);
            self.f.assert_at_most_one(&lits);
        }
    }

    fn encode_co(&mut self) {
        let n = self.graph.n_events();
        let upper = self
            .analysis
            .base_upper("co")
            .cloned()
            .unwrap_or_else(|| Relation::empty(n));
        for (a, b) in upper.iter() {
            let v = self.f.new_lit();
            self.co.pairs.insert((a.0, b.0), v);
        }
        let iw = self.analysis.set("IW").cloned().expect("IW set");
        let pairs: Vec<(EventId, EventId)> = upper.iter().collect();
        for &(a, b) in &pairs {
            let v = self.co.get(a, b).expect("just created");
            let ea = self.exec_event[a.index()];
            let eb = self.exec_event[b.index()];
            self.f.assert_implies(v, ea);
            self.f.assert_implies(v, eb);
            let ae = self.addr_eq(a, b);
            self.f.assert_implies(v, ae);
            // Antisymmetry.
            if let Some(v2) = self.co.get(b, a) {
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
                if let Some(v2) = self.co.get(b, a) {
                    let both = self.pair_exec(a, b);
                    let pre = self.f.and2(both, ae);
                    self.f.add_clause([!pre, v, v2]);
                }
            }
        }
        // Transitivity over may-triples.
        for &(a, b) in &pairs {
            for &(b2, c) in &pairs {
                if b != b2 || a == c {
                    continue;
                }
                let (Some(vab), Some(vbc), Some(vac)) =
                    (self.co.get(a, b), self.co.get(b, c), self.co.get(a, c))
                else {
                    continue;
                };
                self.f.add_clause([!vab, !vbc, vac]);
            }
        }
    }

    fn encode_sync_fence(&mut self) {
        if !self
            .model
            .referenced_base_rels()
            .iter()
            .any(|r| r == "sync_fence")
        {
            return;
        }
        let upper = self
            .analysis
            .base_upper("sync_fence")
            .cloned()
            .unwrap_or_else(|| Relation::empty(self.graph.n_events()));
        for (a, b) in upper.iter() {
            let v = self.f.new_lit();
            self.sync_fence.pairs.insert((a.0, b.0), v);
        }
        let pairs: Vec<(EventId, EventId)> = upper.iter().collect();
        for &(a, b) in &pairs {
            let v = self.sync_fence.get(a, b).expect("created");
            let both = self.pair_exec(a, b);
            self.f.assert_implies(v, both);
            if a.0 < b.0 {
                if let Some(v2) = self.sync_fence.get(b, a) {
                    // Orientation: executed sr-related SC fences are
                    // ordered one way or the other (Table 4, clocks).
                    self.f.add_clause([!both, v, v2]);
                    self.f.add_clause([!v, !v2]);
                }
            }
        }
        for &(a, b) in &pairs {
            for &(b2, c) in &pairs {
                if b != b2 || a == c {
                    continue;
                }
                let (Some(vab), Some(vbc), Some(vac)) = (
                    self.sync_fence.get(a, b),
                    self.sync_fence.get(b, c),
                    self.sync_fence.get(a, c),
                ) else {
                    continue;
                };
                self.f.add_clause([!vab, !vbc, vac]);
            }
        }
    }

    /// Literal of a base relation at a pair (false when impossible).
    fn base_lit(&mut self, name: &str, a: EventId, b: EventId) -> Lit {
        if let Some(&l) = self.base_cache.get(&(name.to_string(), a.0, b.0)) {
            return l;
        }
        let fls = self.f.lit_false();
        let in_upper = self
            .analysis
            .base_upper(name)
            .is_some_and(|u| u.contains(a, b));
        let lit = if !in_upper {
            fls
        } else {
            match name {
                "rf" => self.rf.get(a, b).unwrap_or(fls),
                "co" => self.co.get(a, b).unwrap_or(fls),
                "sync_fence" => self.sync_fence.get(a, b).unwrap_or(fls),
                "loc" | "vloc" => {
                    let both = self.pair_exec(a, b);
                    let ae = self.addr_eq(a, b);
                    self.f.and2(both, ae)
                }
                "syncbar" | "sync_barrier" => {
                    let both = self.pair_exec(a, b);
                    let ia = self.values[a.index()].clone().expect("barrier id");
                    let ib = self.values[b.index()].clone().expect("barrier id");
                    let ideq = ia.eq(&mut self.f, &ib);
                    self.f.and2(both, ideq)
                }
                // Static relations hold iff both events execute (Table 4).
                _ => self.pair_exec(a, b),
            }
        };
        self.base_cache.insert((name.to_string(), a.0, b.0), lit);
        lit
    }

    // ------------------------------------------------------------------
    // derived relations
    // ------------------------------------------------------------------

    fn encode_model(&mut self) -> Result<(), EncodeError> {
        let model = self.model.clone();
        let mut i = 0;
        let defs = model.defs();
        while i < defs.len() {
            self.watchdog(&format!("def {}", defs[i].name))?;
            match defs[i].rec_group {
                None => {
                    match &defs[i].body {
                        DefBody::Set(s) => {
                            let set = self.enc_set(s);
                            self.def_sets.push(Some(set));
                            self.def_rels.push(None);
                        }
                        DefBody::Rel(r) => {
                            let rel = self.enc_rel(r);
                            self.def_sets.push(None);
                            self.def_rels.push(Some(rel));
                        }
                    }
                    self.trace(&format!("def {}", defs[i].name));
                    i += 1;
                }
                Some(group) => {
                    // Pre-create variables for the whole group, then
                    // assert cyclic iff definitions (see crate docs on
                    // least-fixpoint soundness).
                    let start = i;
                    let mut end = i;
                    while end < defs.len() && defs[end].rec_group == Some(group) {
                        end += 1;
                    }
                    for j in start..end {
                        let upper = self
                            .analysis
                            .def_upper(j)
                            .cloned()
                            .unwrap_or_else(|| Relation::empty(self.graph.n_events()));
                        let mut rel = EncRel::default();
                        for (a, b) in upper.iter() {
                            rel.pairs.insert((a.0, b.0), self.f.new_lit());
                        }
                        self.def_rels.push(Some(rel));
                        self.def_sets.push(None);
                    }
                    // `j` walks `defs` and `def_rels` in lockstep.
                    #[allow(clippy::needless_range_loop)]
                    for j in start..end {
                        let DefBody::Rel(body) = &defs[j].body else {
                            unreachable!("recursive defs are relations");
                        };
                        let rhs = self.enc_rel(body);
                        let lhs = self.def_rels[j].clone().expect("created");
                        for (&(a, b), &v) in &lhs.pairs {
                            match rhs.pairs.get(&(a, b)).copied() {
                                Some(rl) => self.f.assert_iff(v, rl),
                                None => self.f.assert_lit(!v),
                            }
                        }
                    }
                    i = end;
                }
            }
        }
        // Axioms. Each one can expand into a large relational encoding,
        // so the watchdog is polled per axiom, not only per stage.
        for (idx, axiom) in model.axioms().iter().enumerate() {
            self.watchdog(&format!("axiom {}", axiom.label(idx)))?;
            let rel = self.enc_rel(&axiom.expr);
            self.trace(&format!("axiom {}", axiom.label(idx)));
            if axiom.flagged {
                self.flag_rels.insert(axiom.label(idx), rel);
                continue;
            }
            if axiom.negated {
                return Err(EncodeError::Unsupported(
                    "negated non-flagged axioms".into(),
                ));
            }
            match axiom.kind {
                AxiomKind::Empty => {
                    let lits: Vec<Lit> = rel.pairs.values().copied().collect();
                    for l in lits {
                        self.f.assert_lit(!l);
                    }
                }
                AxiomKind::Irreflexive => {
                    let lits: Vec<Lit> = rel
                        .pairs
                        .iter()
                        .filter(|(&(a, b), _)| a == b)
                        .map(|(_, &l)| l)
                        .collect();
                    for l in lits {
                        self.f.assert_lit(!l);
                    }
                }
                AxiomKind::Acyclic => self.assert_acyclic(&rel),
            }
        }
        Ok(())
    }

    /// Acyclicity via per-event position vectors: `r(a,b) → pos_a < pos_b`.
    fn assert_acyclic(&mut self, rel: &EncRel) {
        let n = self.graph.n_events();
        let width = usize::BITS as usize - n.leading_zeros() as usize + 1;
        if self.positions.is_empty() {
            self.positions = vec![None; n];
        }
        let entries: Vec<((u32, u32), Lit)> = rel.pairs.iter().map(|(&k, &v)| (k, v)).collect();
        for ((a, b), l) in entries {
            if a == b {
                self.f.assert_lit(!l);
                continue;
            }
            for idx in [a, b] {
                if self.positions[idx as usize].is_none() {
                    self.positions[idx as usize] = Some(BitVec::fresh(&mut self.f, width));
                }
            }
            let pa = self.positions[a as usize].clone().expect("created");
            let pb = self.positions[b as usize].clone().expect("created");
            let lt = pa.ult(&mut self.f, &pb);
            self.f.assert_implies(l, lt);
        }
    }

    fn enc_set(&mut self, e: &SetExpr) -> EncSet {
        let mut out = EncSet::default();
        match e {
            SetExpr::Base(_) | SetExpr::Ref(_) | SetExpr::Universe => {
                let members: Vec<u32> = match e {
                    SetExpr::Base(name) => self
                        .analysis
                        .set(name)
                        .map(|s| s.iter().map(|x| x.0).collect())
                        .unwrap_or_default(),
                    SetExpr::Ref(id) => match &self.def_sets[*id] {
                        Some(s) => return s.clone(),
                        None => Vec::new(),
                    },
                    SetExpr::Universe => (0..self.graph.n_events() as u32).collect(),
                    _ => unreachable!(),
                };
                for m in members {
                    out.members.insert(m, self.exec_event[m as usize]);
                }
            }
            SetExpr::Union(a, b) => {
                let (sa, sb) = (self.enc_set(a), self.enc_set(b));
                for (&m, &l) in &sa.members {
                    match sb.members.get(&m) {
                        Some(&l2) => {
                            let or = self.f.or2(l, l2);
                            out.members.insert(m, or);
                        }
                        None => {
                            out.members.insert(m, l);
                        }
                    }
                }
                for (&m, &l) in &sb.members {
                    out.members.entry(m).or_insert(l);
                }
            }
            SetExpr::Inter(a, b) => {
                let (sa, sb) = (self.enc_set(a), self.enc_set(b));
                for (&m, &l) in &sa.members {
                    if let Some(&l2) = sb.members.get(&m) {
                        let and = self.f.and2(l, l2);
                        out.members.insert(m, and);
                    }
                }
            }
            SetExpr::Diff(a, b) => {
                let (sa, sb) = (self.enc_set(a), self.enc_set(b));
                for (&m, &l) in &sa.members {
                    match sb.members.get(&m) {
                        Some(&l2) => {
                            let and = self.f.and2(l, !l2);
                            out.members.insert(m, and);
                        }
                        None => {
                            out.members.insert(m, l);
                        }
                    }
                }
            }
            SetExpr::Domain(r) => {
                let rel = self.enc_rel(r);
                let mut rows: BTreeMap<u32, Vec<Lit>> = BTreeMap::new();
                for (&(a, _), &l) in &rel.pairs {
                    rows.entry(a).or_default().push(l);
                }
                for (m, lits) in rows {
                    let or = self.f.or(&lits);
                    out.members.insert(m, or);
                }
            }
            SetExpr::Range(r) => {
                let rel = self.enc_rel(r);
                let mut cols: BTreeMap<u32, Vec<Lit>> = BTreeMap::new();
                for (&(_, b), &l) in &rel.pairs {
                    cols.entry(b).or_default().push(l);
                }
                for (m, lits) in cols {
                    let or = self.f.or(&lits);
                    out.members.insert(m, or);
                }
            }
        }
        out
    }

    fn enc_rel(&mut self, e: &RelExpr) -> EncRel {
        let n = self.graph.n_events();
        let mut out = EncRel::default();
        match e {
            RelExpr::Base(name) => {
                let upper = self
                    .analysis
                    .base_upper(name)
                    .cloned()
                    .unwrap_or_else(|| Relation::empty(n));
                for (a, b) in upper.iter() {
                    let l = self.base_lit(name, a, b);
                    out.pairs.insert((a.0, b.0), l);
                }
            }
            RelExpr::Ref(id) => {
                return self.def_rels[*id].clone().expect("relation def");
            }
            RelExpr::Id => {
                let t = self.f.lit_true();
                for i in 0..n as u32 {
                    out.pairs.insert((i, i), t);
                }
            }
            RelExpr::IdSet(s) => {
                let set = self.enc_set(s);
                for (&m, &l) in &set.members {
                    out.pairs.insert((m, m), l);
                }
            }
            RelExpr::Cross(a, b) => {
                let (sa, sb) = (self.enc_set(a), self.enc_set(b));
                for (&x, &lx) in &sa.members {
                    for (&y, &ly) in &sb.members {
                        if !self.graph.can_coexist(EventId(x), EventId(y)) {
                            continue;
                        }
                        if x == y {
                            out.pairs.insert((x, y), lx);
                            continue;
                        }
                        let l = self.f.and2(lx, ly);
                        out.pairs.insert((x, y), l);
                    }
                }
            }
            RelExpr::Union(a, b) => {
                let (ra, rb) = (self.enc_rel(a), self.enc_rel(b));
                for (&k, &l) in &ra.pairs {
                    match rb.pairs.get(&k) {
                        Some(&l2) => {
                            let or = self.f.or2(l, l2);
                            out.pairs.insert(k, or);
                        }
                        None => {
                            out.pairs.insert(k, l);
                        }
                    }
                }
                for (&k, &l) in &rb.pairs {
                    out.pairs.entry(k).or_insert(l);
                }
            }
            RelExpr::Inter(a, b) => {
                let (ra, rb) = (self.enc_rel(a), self.enc_rel(b));
                for (&k, &l) in &ra.pairs {
                    if let Some(&l2) = rb.pairs.get(&k) {
                        let and = self.f.and2(l, l2);
                        out.pairs.insert(k, and);
                    }
                }
            }
            RelExpr::Diff(a, b) => {
                let (ra, rb) = (self.enc_rel(a), self.enc_rel(b));
                for (&k, &l) in &ra.pairs {
                    match rb.pairs.get(&k) {
                        Some(&l2) => {
                            let and = self.f.and2(l, !l2);
                            out.pairs.insert(k, and);
                        }
                        None => {
                            out.pairs.insert(k, l);
                        }
                    }
                }
            }
            RelExpr::Seq(a, b) => {
                let (ra, rb) = (self.enc_rel(a), self.enc_rel(b));
                let mut by_first: BTreeMap<u32, Vec<(u32, Lit)>> = BTreeMap::new();
                for (&(m, c), &l) in &rb.pairs {
                    by_first.entry(m).or_default().push((c, l));
                }
                let mut disj: BTreeMap<(u32, u32), Vec<Lit>> = BTreeMap::new();
                for (&(x, m), &l1) in &ra.pairs {
                    if let Some(nexts) = by_first.get(&m) {
                        for &(c, l2) in nexts {
                            if !self.graph.can_coexist(EventId(x), EventId(c)) {
                                continue;
                            }
                            let and = self.f.and2(l1, l2);
                            disj.entry((x, c)).or_default().push(and);
                        }
                    }
                }
                for (k, lits) in disj {
                    let or = self.f.or(&lits);
                    out.pairs.insert(k, or);
                }
            }
            RelExpr::Inverse(a) => {
                let ra = self.enc_rel(a);
                for (&(x, y), &l) in &ra.pairs {
                    out.pairs.insert((y, x), l);
                }
            }
            RelExpr::Plus(a) => {
                return self.enc_closure(a, false);
            }
            RelExpr::Star(a) => {
                return self.enc_closure(a, true);
            }
            RelExpr::Opt(a) => {
                out = self.enc_rel(a);
                let t = self.f.lit_true();
                for i in 0..n as u32 {
                    out.pairs.insert((i, i), t);
                }
            }
        }
        out
    }

    /// Transitive closure with cyclic iff-gates. Every satisfying model
    /// assigns a *superset* of the least fixpoint (the one-step rules are
    /// Horn and force all derivable pairs), which is sound and complete
    /// for the anti-monotone axiom shapes of cat (see crate docs).
    fn enc_closure(&mut self, inner: &RelExpr, reflexive: bool) -> EncRel {
        let base = self.enc_rel(inner);
        let n = self.graph.n_events();
        let mut base_upper = Relation::empty(n);
        for &(a, b) in base.pairs.keys() {
            base_upper.insert(EventId(a), EventId(b));
        }
        let tc_upper = base_upper.transitive_closure();
        let mut vars = EncRel::default();
        for (a, b) in tc_upper.iter() {
            vars.pairs.insert((a.0, b.0), self.f.new_lit());
        }
        // var(a,b) ↔ base(a,b) ∨ ∃m. var(a,m) ∧ base(m,b)
        let mut base_by_second: BTreeMap<u32, Vec<(u32, Lit)>> = BTreeMap::new();
        for (&(m, b), &l) in &base.pairs {
            base_by_second.entry(b).or_default().push((m, l));
        }
        let keys: Vec<(u32, u32)> = vars.pairs.keys().copied().collect();
        for (a, b) in keys {
            let v = vars.pairs[&(a, b)];
            let mut supports = Vec::new();
            if let Some(&bl) = base.pairs.get(&(a, b)) {
                supports.push(bl);
            }
            if let Some(preds) = base_by_second.get(&b) {
                for &(m, bl) in preds {
                    if m == a {
                        continue; // covered by the direct base pair
                    }
                    if let Some(&vm) = vars.pairs.get(&(a, m)) {
                        let and = self.f.and2(vm, bl);
                        supports.push(and);
                    }
                }
            }
            let rhs = self.f.or(&supports);
            self.f.assert_iff(v, rhs);
        }
        if reflexive {
            // The diagonal is unconditionally true — overwriting any
            // transitive-closure variable the cycle-shaped upper bound
            // may have created for (i, i).
            let t = self.f.lit_true();
            for i in 0..n as u32 {
                vars.pairs.insert((i, i), t);
            }
        }
        vars
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
        let w = self.opts.bv_width;
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
        let succs: Vec<Lit> = self
            .co
            .pairs
            .iter()
            .filter(|(&(a, _), _)| a == w.0)
            .map(|(_, &l)| l)
            .collect();
        let any = self.f.or(&succs);
        !any
    }

    /// The final value of a memory element: an ite-chain over candidate
    /// co-maximal writes.
    fn final_mem_bv(&mut self, loc: gpumc_ir::LocId, index: u32) -> BitVec {
        let root = self.graph.physical_root(loc);
        let w = self.opts.bv_width;
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
            let addr = self.addr_bv[wr.index()].clone().expect("write addr");
            let addr_ok = addr.eq(&mut self.f, &idx_bv);
            let sel = self.f.and(&[exec, comax, addr_ok]);
            let val = self.values[wr.index()].clone().expect("write value");
            acc = val.select(&mut self.f, sel, &acc);
        }
        acc
    }

    fn atom_bv(&mut self, a: &CondAtom) -> BitVec {
        let w = self.opts.bv_width;
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
    /// test's condition — or violating it for `forall` tests.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::WitnessMismatch`] if a SAT witness fails
    /// interpreter re-validation (an internal bug).
    pub fn find_assertion_witness(&mut self) -> Result<QueryResult<'g>, EncodeError> {
        let assertion = self
            .graph
            .assertion
            .clone()
            .unwrap_or(gpumc_ir::Assertion::Exists(Condition::True));
        let (cond, negate) = match &assertion {
            gpumc_ir::Assertion::Exists(c) | gpumc_ir::Assertion::NotExists(c) => {
                (c.clone(), false)
            }
            gpumc_ir::Assertion::Forall(c) => (c.clone(), true),
        };
        self.find_condition(&cond, negate)
    }

    /// Searches for a consistent, complete behaviour where `cond` (or its
    /// negation, with `negate`) holds.
    ///
    /// # Errors
    ///
    /// See [`Encoding::find_assertion_witness`].
    pub fn find_condition(
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
        self.solve_and_decode(act)
    }

    /// Searches for a liveness violation (§6.4): every thread completed
    /// or stuck on a co-maximal spin read, at least one stuck.
    ///
    /// # Errors
    ///
    /// See [`Encoding::find_assertion_witness`].
    pub fn find_liveness_violation(&mut self) -> Result<QueryResult<'g>, EncodeError> {
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
                        let sources: Vec<(EventId, Lit)> = self
                            .rf
                            .pairs
                            .iter()
                            .filter(|(&(_, r), _)| r == read.0)
                            .map(|(&(w, _), &l)| (EventId(w), l))
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
        self.solve_and_decode(act)
    }

    /// Whether the model defines the flagged relation `name`
    /// ([`Encoding::find_flag`] on it can succeed).
    pub fn has_flag(&self, name: &str) -> bool {
        self.flag_rels.contains_key(name)
    }

    /// Searches for a consistent, complete behaviour raising the given
    /// flag (e.g. `dr`, the Vulkan data-race detector).
    ///
    /// # Errors
    ///
    /// Fails with [`EncodeError::Unsupported`] when the model defines no
    /// such flag, or see [`Encoding::find_assertion_witness`].
    pub fn find_flag(&mut self, name: &str) -> Result<QueryResult<'g>, EncodeError> {
        let Some(rel) = self.flag_rels.get(name).cloned() else {
            return Err(EncodeError::Unsupported(format!(
                "model defines no flag `{name}`"
            )));
        };
        let act = self.f.new_lit();
        let completed = self.completed.clone();
        for c in completed {
            self.f.add_clause([!act, c]);
        }
        let mut clause = vec![!act];
        clause.extend(rel.pairs.values().copied());
        self.f.add_clause(clause);
        self.solve_and_decode(act)
    }

    /// Portfolio workers used when [`gpumc_sat::ParallelPolicy::Auto`]
    /// decides a query is worth parallelizing.
    const AUTO_WORKERS: u32 = 4;
    /// `Auto` races a portfolio only above this many problem clauses.
    /// The clause count is the bounds-pruned cost predictor: it is a
    /// direct function of the relation-analysis upper bounds (served
    /// from the `BoundsMemo`), which determine how many rf/co pairs the
    /// encoding materializes. Below the threshold thread setup dominates
    /// any conceivable solve-time win.
    const AUTO_CLAUSE_THRESHOLD: usize = 3_000;

    /// Resolves the configured [`gpumc_sat::ParallelPolicy`] for the next
    /// query: `None` means solve sequentially.
    fn portfolio_config(&self) -> Option<gpumc_sat::PortfolioConfig> {
        use gpumc_sat::ParallelPolicy;
        match self.opts.parallel {
            ParallelPolicy::Off => None,
            ParallelPolicy::Portfolio(n) if n >= 2 => {
                Some(gpumc_sat::PortfolioConfig::with_workers(n))
            }
            ParallelPolicy::Portfolio(_) => None,
            ParallelPolicy::Auto => (self.num_clauses() >= Self::AUTO_CLAUSE_THRESHOLD)
                .then(|| gpumc_sat::PortfolioConfig::with_workers(Self::AUTO_WORKERS)),
        }
    }

    fn solve_and_decode(&mut self, act: Lit) -> Result<QueryResult<'g>, EncodeError> {
        let result = match self.portfolio_config() {
            None => self.f.solve_with_assumptions(&[act]),
            Some(cfg) => {
                let (result, stats) = self.f.solve_parallel(&[act], &cfg);
                self.portfolio
                    .get_or_insert_with(Default::default)
                    .absorb(&stats);
                result
            }
        };
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
        let verdict = Interpreter::new(&self.model).check(&exec);
        if !verdict.consistent {
            return Err(EncodeError::WitnessMismatch(format!(
                "SAT witness violates axiom {:?}\n{}",
                verdict.failed_axiom,
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
        for (&(w, r), &l) in &self.rf.pairs {
            if self.f.value_or_false(l) && e.executed.contains(EventId(r)) {
                e.rf[r as usize] = Some(EventId(w));
            }
        }
        for (&(a, b), &l) in &self.co.pairs {
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
        let sf = &self.sync_fence;
        let f = &self.f;
        fences.sort_by(|&a, &b| {
            if sf.get(a, b).is_some_and(|l| f.value_or_false(l)) {
                std::cmp::Ordering::Less
            } else if sf.get(b, a).is_some_and(|l| f.value_or_false(l)) {
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

    /// Solver statistics.
    pub fn solver_stats(&self) -> gpumc_sat::Stats {
        self.f.solver().stats()
    }

    /// Overrides the parallel-solve policy for subsequent queries.
    pub fn set_parallel(&mut self, policy: gpumc_sat::ParallelPolicy) {
        self.opts.parallel = policy;
    }

    /// Aggregate portfolio statistics over every parallel query run on
    /// this encoding so far; `None` when no query used the portfolio.
    pub fn portfolio_stats(&self) -> Option<gpumc_sat::PortfolioStats> {
        self.portfolio
    }

    /// Microseconds spent computing relation-analysis bounds for this
    /// encoding (zero when served from a [`crate::BoundsMemo`] hit).
    pub fn bounds_time_us(&self) -> u64 {
        self.bounds_us
    }

    /// Microseconds spent building the SAT encoding (circuit
    /// construction, excluding bounds analysis and solving).
    pub fn encode_time_us(&self) -> u64 {
        self.encode_us
    }
}

impl<'g> Encoding<'g> {
    /// Compares the SAT model's relation assignments against the
    /// interpreter's least-fixpoint values for a decoded execution.
    /// Returns human-readable discrepancies (diagnostics only).
    #[doc(hidden)]
    pub fn debug_compare(&mut self, exec: &Execution<'_>) -> Vec<String> {
        use gpumc_exec::BaseInterpretation;
        let mut out = Vec::new();
        let base = BaseInterpretation::compute(exec);
        // Compare base relations first.
        for name in self.model.referenced_base_rels() {
            let Some(upper) = self.analysis.base_upper(&name).cloned() else {
                continue;
            };
            let Some(interp) = base.rel(&name).cloned() else {
                continue;
            };
            for (a, b) in interp.iter() {
                if !upper.contains(a, b) {
                    out.push(format!(
                        "base {name}: ({},{}) outside upper bound",
                        a.0, b.0
                    ));
                    continue;
                }
                let lit = self.base_lit(&name, a, b);
                if !self.f.value_or_false(lit) {
                    out.push(format!(
                        "base {name}: ({},{}) true in interp, false in SAT",
                        a.0, b.0
                    ));
                }
            }
        }
        // Compare definitions.
        let interp = Interpreter::new(&self.model);
        for (i, def) in self.model.defs().iter().enumerate() {
            let gpumc_cat::DefBody::Rel(_) = &def.body else {
                continue;
            };
            let val = interp.eval_named_rel(&def.name, exec);
            let Some(enc) = self.def_rels[i].clone() else {
                continue;
            };
            for (a, b) in val.iter() {
                match enc.pairs.get(&(a.0, b.0)) {
                    None => out.push(format!(
                        "def {}: ({},{}) outside encoded upper bound",
                        def.name, a.0, b.0
                    )),
                    Some(&l) if !self.f.value_or_false(l) => out.push(format!(
                        "def {}: ({},{}) true in interp, false in SAT",
                        def.name, a.0, b.0
                    )),
                    _ => {}
                }
            }
        }
        out
    }
}

impl<'g> Encoding<'g> {
    /// Decodes the current SAT model (diagnostics only).
    #[doc(hidden)]
    pub fn debug_decode(&mut self) -> Execution<'g> {
        self.decode()
    }
}
