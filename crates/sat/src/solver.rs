//! The CDCL solver core.

use crate::cancel::{CancelToken, Interrupt};
use crate::heap::VarHeap;
use crate::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; query it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The search was interrupted — conflict budget, cancellation, or
    /// deadline — before an answer was found. The solver backtracked to
    /// the root level and remains fully usable: learnt clauses are kept
    /// and the next `solve` call starts fresh.
    Unknown(Interrupt),
}

impl SolveResult {
    /// Whether the result is [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        matches!(self, SolveResult::Sat)
    }

    /// Whether the result is [`SolveResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        matches!(self, SolveResult::Unsat)
    }

    /// Whether the result is [`SolveResult::Unknown`].
    pub fn is_unknown(self) -> bool {
        matches!(self, SolveResult::Unknown(_))
    }

    /// The interruption cause, for [`SolveResult::Unknown`] results.
    pub fn interrupt(self) -> Option<Interrupt> {
        match self {
            SolveResult::Unknown(i) => Some(i),
            _ => None,
        }
    }
}

/// Aggregate solver statistics, useful for the paper's scalability plots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of decision variables created.
    pub vars: usize,
    /// Number of problem clauses added (after trivial simplification).
    pub clauses: usize,
    /// Number of learnt clauses currently stored.
    pub learnt: usize,
    /// Total conflicts encountered.
    pub conflicts: u64,
    /// Total decisions taken.
    pub decisions: u64,
    /// Total literals propagated.
    pub propagations: u64,
    /// Total restarts performed.
    pub restarts: u64,
    /// Largest LBD (glue) of any clause learnt so far.
    pub max_glue: u32,
    /// Sum of the LBDs of all learnt clauses (for [`Stats::avg_glue`]).
    pub glue_sum: u64,
    /// Number of clauses that contributed to [`Stats::glue_sum`].
    pub glued: u64,
}

impl Stats {
    /// Mean LBD (glue) over every clause learnt so far; zero before the
    /// first conflict.
    pub fn avg_glue(&self) -> f64 {
        if self.glued == 0 {
            0.0
        } else {
            self.glue_sum as f64 / self.glued as f64
        }
    }
}

/// Offset of a clause's header in [`Solver`]'s arena.
///
/// A clause is [`HEADER`] words followed by its literals: the length, the
/// flags word (learnt, deleted, glue), and the activity as `f32` bits.
type ClauseRef = u32;

/// Header words in front of every clause's literals.
const HEADER: usize = 3;
/// Flags-word bit: the clause was learnt from a conflict.
const LEARNT: u32 = 1;
/// Flags-word bit: the clause was deleted by database reduction and is
/// waiting for garbage collection.
const DELETED: u32 = 2;
/// The glue sits in the flags word above the two flag bits.
const GLUE_SHIFT: u32 = 2;
/// Watcher tag: the clause has exactly two literals, so the blocker is
/// the other literal and propagation never reads the clause. Offsets
/// must stay below it.
const BINARY: u32 = 1 << 31;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    /// The watched clause, with [`BINARY`] set for a two-literal clause.
    cref: ClauseRef,
    /// Cached "other" watched literal: if it is already true the clause is
    /// satisfied and we can skip touching the clause memory. For a binary
    /// clause it always is the other literal.
    blocker: Lit,
}

impl Watcher {
    #[inline]
    fn clause(self) -> ClauseRef {
        self.cref & !BINARY
    }

    #[inline]
    fn is_binary(self) -> bool {
        self.cref & BINARY != 0
    }
}

/// Base of the Luby restart schedule: restart after
/// `RESTART_BASE * luby(i)` conflicts.
const RESTART_BASE: u64 = 32;

/// VSIDS decay factor: `var_inc /= VAR_DECAY` after every conflict.
const VAR_DECAY: f64 = 0.95;

/// A MiniSat-style CDCL SAT solver.
///
/// See the crate-level documentation for an example. The solver is purely
/// incremental in the sense that variables and clauses can be added at any
/// time between `solve` calls, and `solve_with_assumptions` allows querying
/// the same clause database under different temporary hypotheses (gpumc uses
/// this to check safety and liveness over one program encoding).
#[derive(Debug, Clone)]
pub struct Solver {
    /// Every clause, back to back: see [`ClauseRef`].
    arena: Vec<u32>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VarHeap,
    var_inc: f64,
    /// Set once the clause database is known to be unsatisfiable.
    unsat: bool,
    seen: Vec<bool>,
    stats: Stats,
    /// Conflict budget per solve call; `None` means unlimited.
    conflict_budget: Option<u64>,
    /// Memory budget in bytes; exceeding it stops the solve with
    /// [`Interrupt::MemBudget`]. `None` means unlimited.
    mem_budget: Option<usize>,
    /// Clause-arena byte estimate, maintained incrementally by
    /// [`Solver::attach_clause`] and recomputed by
    /// [`Solver::collect_garbage`].
    lits_bytes: usize,
    /// Extra bytes charged against the budget from outside the arena
    /// (injected allocation spikes).
    mem_ballast: usize,
    /// Cooperative cancellation handle, polled between conflicts.
    cancel: Option<CancelToken>,
    /// Clause-activity increment (for learnt-clause deletion).
    cla_inc: f32,
    /// Number of live problem clauses (never deleted).
    n_problem: usize,
    /// Number of live learnt clauses.
    n_learnt: usize,
    /// Learnt-clause cap before a database reduction.
    max_learnt: usize,
    /// Number of tombstoned (deleted, not yet compacted) arena slots;
    /// the garbage-collection trigger.
    n_deleted: usize,
    /// Reused buffers: the clause being added, the learnt clause before
    /// and after minimization, and the levels of a learnt clause.
    add_buf: Vec<Lit>,
    analyze_buf: Vec<Lit>,
    learnt: Vec<Lit>,
    levels: Vec<u32>,
    /// Garbage collections so far, for the arena invariant tests.
    #[cfg(test)]
    collections: usize,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: crate::heap::VarHeap::new(),
            var_inc: 1.0,
            unsat: false,
            seen: Vec::new(),
            stats: Stats::default(),
            conflict_budget: None,
            mem_budget: None,
            lits_bytes: 0,
            mem_ballast: 0,
            cancel: None,
            cla_inc: 1.0,
            n_problem: 0,
            n_learnt: 0,
            max_learnt: 8_192,
            n_deleted: 0,
            add_buf: Vec::new(),
            analyze_buf: Vec::new(),
            learnt: Vec::new(),
            levels: Vec::new(),
            #[cfg(test)]
            collections: 0,
        }
    }

    /// Returns solver statistics.
    ///
    /// `clauses` and `learnt` count *live* clauses only, matching
    /// [`Solver::num_clauses`]; clauses removed by database reduction are
    /// excluded from both.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.vars = self.assigns.len();
        s.clauses = self.n_problem;
        s.learnt = self.n_learnt;
        s
    }

    /// Limits the number of conflicts a single `solve` call may spend.
    ///
    /// Exhausting the budget makes the call return
    /// [`SolveResult::Unknown`] with [`Interrupt::ConflictBudget`]; the
    /// solver stays usable for further calls. The budget applies to each
    /// `solve` call individually. Use `None` (the default) to remove the
    /// limit.
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Caps the solver's estimated memory footprint. When
    /// [`Solver::bytes_in_use`] exceeds the cap, the current `solve`
    /// call stops with [`SolveResult::Unknown`]([`Interrupt::MemBudget`])
    /// instead of growing without bound — an allocation blow-up becomes
    /// a clean per-query `unknown` rather than an OOM kill. The solver
    /// stays usable; deleting learnt clauses (database reduction,
    /// garbage collection) can bring it back under budget.
    pub fn set_mem_budget_bytes(&mut self, bytes: Option<usize>) {
        self.mem_budget = bytes;
    }

    /// Estimated bytes held by the solver: the clause arena (literal
    /// storage plus per-clause bookkeeping, maintained incrementally),
    /// per-variable state (assignments, activities, watch lists, …), and
    /// any ballast charged via [`Solver::add_mem_ballast`]. An estimate,
    /// not an allocator measurement — good enough to bound growth, cheap
    /// enough to poll every conflict.
    pub fn bytes_in_use(&self) -> usize {
        self.lits_bytes + self.assigns.len() * Self::PER_VAR_BYTES + self.mem_ballast
    }

    /// Charges `bytes` of external memory against the budget (injected
    /// allocation spikes).
    pub fn add_mem_ballast(&mut self, bytes: usize) {
        self.mem_ballast = self.mem_ballast.saturating_add(bytes);
    }

    /// Estimated per-clause bookkeeping outside the literals. It dates
    /// from a boxed clause (a header with its own literal vector plus two
    /// watchers) and is kept so every memory-budget answer stays the same.
    const CLAUSE_OVERHEAD: usize = 56;
    /// Estimated bytes of per-variable state across all solver arrays.
    const PER_VAR_BYTES: usize = 96;

    /// The budget charge of one clause of `len` literals.
    fn clause_bytes(len: usize) -> usize {
        len * std::mem::size_of::<Lit>() + Self::CLAUSE_OVERHEAD
    }

    /// Recomputes the incremental arena estimate from the live clauses.
    fn recompute_lits_bytes(&mut self) {
        let mut bytes = 0;
        let mut c = 0;
        while c < self.arena.len() {
            if !self.is_deleted(c) {
                bytes += Self::clause_bytes(self.clause_len(c));
            }
            c = self.next_clause(c);
        }
        self.lits_bytes = bytes;
    }

    #[inline]
    fn over_mem_budget(&self) -> bool {
        self.mem_budget.is_some_and(|b| self.bytes_in_use() > b)
    }

    /// Installs a [`CancelToken`] polled between conflicts and decisions;
    /// when it fires, the current and all future `solve` calls return
    /// [`SolveResult::Unknown`] until the token is replaced or removed.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assigns.len());
        self.order.push(v, &self.activity);
        v
    }

    /// Creates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.new_var().pos()
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of live problem (non-learnt, non-deleted) clauses. Always
    /// equals [`Solver::stats`]`().clauses`.
    pub fn num_clauses(&self) -> usize {
        self.n_problem
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the clause made the database trivially
    /// unsatisfiable (e.g. it was empty after simplification).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        // Clause addition happens at the root level; a model left in
        // place by a previous `Sat` answer is discarded.
        self.backtrack_to(0);
        if self.unsat {
            return false;
        }
        let mut ls = std::mem::take(&mut self.add_buf);
        ls.clear();
        ls.extend(lits);
        ls.sort_unstable();
        ls.dedup();
        // Drop satisfied/tautological clauses; after sorting, `x` and
        // `~x` are neighbours.
        let satisfied = ls.windows(2).any(|p| p[0] == !p[1])
            || ls.iter().any(|&l| self.lit_value(l) == LBool::True);
        let ok = if satisfied {
            true
        } else {
            // Remove false literals.
            ls.retain(|&l| self.lit_value(l) != LBool::False);
            match ls.len() {
                0 => {
                    self.unsat = true;
                    false
                }
                1 => {
                    self.unchecked_enqueue(ls[0], None);
                    if self.propagate().is_some() {
                        self.unsat = true;
                    }
                    !self.unsat
                }
                _ => {
                    self.attach_clause(&ls, false, 0);
                    true
                }
            }
        };
        self.add_buf = ls;
        ok
    }

    /// Copies a clause into the arena and watches its first two
    /// literals.
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, glue: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.len() as ClauseRef;
        assert!(
            self.arena.len() < BINARY as usize,
            "clause arena outgrew its 31-bit offsets"
        );
        let tag = if lits.len() == 2 { BINARY } else { 0 };
        self.watches[lits[0].index()].push(Watcher {
            cref: cref | tag,
            blocker: lits[1],
        });
        self.watches[lits[1].index()].push(Watcher {
            cref: cref | tag,
            blocker: lits[0],
        });
        let activity = if learnt {
            self.n_learnt += 1;
            self.cla_inc
        } else {
            self.n_problem += 1;
            0.0
        };
        self.lits_bytes += Self::clause_bytes(lits.len());
        self.arena.extend([
            lits.len() as u32,
            glue << GLUE_SHIFT | if learnt { LEARNT } else { 0 },
            activity.to_bits(),
        ]);
        self.arena.extend(lits.iter().map(|l| l.0));
        cref
    }

    #[inline]
    fn clause_len(&self, c: usize) -> usize {
        self.arena[c] as usize
    }

    #[inline]
    fn flags(&self, c: usize) -> u32 {
        self.arena[c + 1]
    }

    #[inline]
    fn is_deleted(&self, c: usize) -> bool {
        self.flags(c) & DELETED != 0
    }

    #[inline]
    fn is_learnt(&self, c: usize) -> bool {
        self.flags(c) & LEARNT != 0
    }

    #[inline]
    fn activity(&self, c: usize) -> f32 {
        f32::from_bits(self.arena[c + 2])
    }

    #[inline]
    fn set_activity(&mut self, c: usize, a: f32) {
        self.arena[c + 2] = a.to_bits();
    }

    /// Literal `k` of the clause at `c`.
    #[inline]
    fn lit(&self, c: usize, k: usize) -> Lit {
        Lit(self.arena[c + HEADER + k])
    }

    /// The literals of the clause at `c`.
    fn lits(&self, c: usize) -> impl Iterator<Item = Lit> + '_ {
        let start = c + HEADER;
        self.arena[start..start + self.clause_len(c)]
            .iter()
            .map(|&l| Lit(l))
    }

    /// Offset of the clause after the one at `c`.
    #[inline]
    fn next_clause(&self, c: usize) -> usize {
        c + HEADER + self.clause_len(c)
    }

    /// Whether the clause at `c` may go in a database reduction: a live
    /// learnt clause of more than two literals and glue above two.
    fn reducible(&self, c: usize) -> bool {
        let flags = self.flags(c);
        flags & (LEARNT | DELETED) == LEARNT && self.clause_len(c) > 2 && flags >> GLUE_SHIFT > 2
    }

    /// Whether a clause of more than two literals is the reason for an
    /// assignment. It can only be the reason for its literal 0:
    /// propagation enqueues literal 0 and never moves a true literal out
    /// of that place.
    fn locked(&self, c: usize) -> bool {
        self.reason[self.lit(c, 0).var().index()] == Some(c as ClauseRef)
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = cref as usize;
        if !self.is_learnt(c) {
            return;
        }
        let a = self.activity(c) + self.cla_inc;
        self.set_activity(c, a);
        if a > 1e20 {
            let mut c = 0;
            while c < self.arena.len() {
                if self.is_learnt(c) {
                    self.set_activity(c, self.activity(c) * 1e-20);
                }
                c = self.next_clause(c);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Deletes the less-active half of the learnt clauses (keeping
    /// binary clauses, glue ≤ 2 clauses, and clauses currently used as
    /// reasons), then compacts the arena once half of it is tombstones.
    fn reduce_db(&mut self) {
        let mut acts: Vec<f32> = Vec::new();
        let mut c = 0;
        while c < self.arena.len() {
            if self.reducible(c) {
                acts.push(self.activity(c));
            }
            c = self.next_clause(c);
        }
        if acts.len() < 2 {
            return;
        }
        acts.sort_by(f32::total_cmp);
        let median = acts[acts.len() / 2];
        let mut c = 0;
        while c < self.arena.len() {
            if self.reducible(c) && self.activity(c) < median && !self.locked(c) {
                self.arena[c + 1] |= DELETED;
                self.n_learnt -= 1;
                self.n_deleted += 1;
            }
            c = self.next_clause(c);
        }
        self.max_learnt += self.max_learnt / 10;
        if self.n_deleted * 2 >= self.n_problem + self.n_learnt + self.n_deleted {
            self.collect_garbage();
        }
    }

    /// Compacts the clause arena in place: drops tombstoned clauses,
    /// slides the live ones down in arena order, and remaps every
    /// [`ClauseRef`] held by watcher lists (keeping the binary tag) and
    /// `reason[]`.
    ///
    /// Sound mid-search because reason clauses are never tombstoned
    /// (`reduce_db` skips locked clauses).
    fn collect_garbage(&mut self) {
        // (old offset, new offset) of every live clause, both ascending.
        let mut moves: Vec<(ClauseRef, ClauseRef)> =
            Vec::with_capacity(self.n_problem + self.n_learnt);
        let mut to = 0;
        let mut c = 0;
        while c < self.arena.len() {
            let next = self.next_clause(c);
            if !self.is_deleted(c) {
                moves.push((c as ClauseRef, to as ClauseRef));
                to += next - c;
            }
            c = next;
        }
        let relocate = |cref: ClauseRef| {
            moves
                .binary_search_by_key(&cref, |&(old, _)| old)
                .ok()
                .map(|i| moves[i].1)
        };
        for ws in &mut self.watches {
            ws.retain_mut(|w| match relocate(w.clause()) {
                Some(new) => {
                    w.cref = new | (w.cref & BINARY);
                    true
                }
                None => false,
            });
        }
        for cr in self.reason.iter_mut().flatten() {
            *cr = relocate(*cr).expect("reason clause deleted");
        }
        for &(old, new) in &moves {
            let (old, new) = (old as usize, new as usize);
            let end = self.next_clause(old);
            self.arena.copy_within(old..end, new);
        }
        self.arena.truncate(to);
        self.n_deleted = 0;
        self.recompute_lits_bytes();
        #[cfg(test)]
        {
            self.collections += 1;
            self.check_arena();
        }
    }

    /// Arena occupancy: `(total slots, tombstoned slots)`. Test hook for
    /// the garbage-collection bound; not part of the public API.
    #[doc(hidden)]
    pub fn arena_stats(&self) -> (usize, usize) {
        (
            self.n_problem + self.n_learnt + self.n_deleted,
            self.n_deleted,
        )
    }

    /// The live (not deleted) learnt clauses, in arena order. Test hook
    /// for the learnt-clause soundness property; not part of the public
    /// API.
    #[doc(hidden)]
    pub fn learnt_clauses(&self) -> Vec<Vec<Lit>> {
        let mut out = Vec::new();
        let mut c = 0;
        while c < self.arena.len() {
            if self.is_learnt(c) && !self.is_deleted(c) {
                out.push(self.lits(c).collect());
            }
            c = self.next_clause(c);
        }
        out
    }

    /// Overrides the learnt-clause cap that triggers database
    /// reduction. Test hook; not part of the public API.
    #[doc(hidden)]
    pub fn set_max_learnt(&mut self, cap: usize) {
        self.max_learnt = cap;
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        self.assigns[l.var().index()].under(l.is_positive())
    }

    /// Value of a literal in the last satisfying model (after a `Sat` result).
    ///
    /// Returns `None` for variables the search never assigned (they are
    /// unconstrained and may take either value).
    pub fn value(&self, l: Lit) -> Option<bool> {
        match self.lit_value(l) {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    /// Value of a literal in the model, defaulting unconstrained variables
    /// to `false`.
    pub fn value_or_false(&self, l: Lit) -> bool {
        self.value(l).unwrap_or(false)
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, from: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(l.is_positive());
        self.reason[v] = from;
        self.level[v] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut keep = 0;
            let mut i = 0;
            'next_watcher: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Fast path: the blocker is already true.
                let blocker = self.lit_value(w.blocker);
                if blocker == LBool::True {
                    ws[keep] = w;
                    keep += 1;
                    continue;
                }
                let cref = w.clause();
                let c = cref as usize;
                let first = if w.is_binary() {
                    // The blocker is the other literal: the clause is unit
                    // or conflicting, decided without reading it.
                    if blocker == LBool::False {
                        // Conflict analysis reads the clause in the order
                        // the general path below leaves it in.
                        self.arena[c + HEADER] = w.blocker.0;
                        self.arena[c + HEADER + 1] = false_lit.0;
                    }
                    w.blocker
                } else {
                    if self.is_deleted(c) {
                        continue; // drop the watcher
                    }
                    // Ensure false_lit is at position 1.
                    let lits = c + HEADER;
                    if self.arena[lits] == false_lit.0 {
                        self.arena.swap(lits, lits + 1);
                    }
                    debug_assert_eq!(self.lit(c, 1), false_lit);
                    let first = self.lit(c, 0);
                    if first != w.blocker && self.lit_value(first) == LBool::True {
                        ws[keep] = Watcher {
                            cref: w.cref,
                            blocker: first,
                        };
                        keep += 1;
                        continue;
                    }
                    // Look for a new literal to watch.
                    for k in lits + 2..lits + self.clause_len(c) {
                        let l = Lit(self.arena[k]);
                        if self.lit_value(l) != LBool::False {
                            self.arena.swap(lits + 1, k);
                            self.watches[l.index()].push(Watcher {
                                cref: w.cref,
                                blocker: first,
                            });
                            continue 'next_watcher;
                        }
                    }
                    first
                };
                // No new watch: clause is unit or conflicting.
                ws[keep] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                keep += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    // Copy remaining watchers back.
                    while i < ws.len() {
                        ws[keep] = ws[i];
                        keep += 1;
                        i += 1;
                    }
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(keep);
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    /// First-UIP conflict analysis.
    ///
    /// Leaves the learnt clause (asserting literal first) in
    /// `self.learnt` and returns the level to backtrack to.
    fn analyze(&mut self, mut conflict: ClauseRef) -> u32 {
        let mut learnt = std::mem::take(&mut self.analyze_buf);
        learnt.clear();
        learnt.push(Lit::from_index(0)); // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let cur_level = self.decision_level();

        loop {
            self.bump_clause(conflict);
            // Iterate over the literals of the conflicting/reason clause,
            // except the one a reason implied.
            let c = conflict as usize;
            for k in 0..self.clause_len(c) {
                let q = self.lit(c, k);
                let v = q.var();
                if Some(q) != p && !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            conflict = self.reason[lit.var().index()].expect("non-decision must have reason");
        }

        // Local clause minimization: drop literals whose reason clause is
        // subsumed by the remaining learnt literals (MiniSat's cheap
        // variant). `seen` still marks the learnt literals here.
        for l in &learnt {
            self.seen[l.var().index()] = true;
        }
        let mut minimized = std::mem::take(&mut self.learnt);
        minimized.clear();
        minimized.push(learnt[0]);
        'lits: for &l in &learnt[1..] {
            let Some(cr) = self.reason[l.var().index()] else {
                minimized.push(l);
                continue;
            };
            // The reason implied `!l`; its other literals decide.
            for q in self.lits(cr as usize) {
                if q.var() != l.var()
                    && !self.seen[q.var().index()]
                    && self.level[q.var().index()] > 0
                {
                    minimized.push(l);
                    continue 'lits;
                }
            }
        }
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        self.analyze_buf = learnt;

        // Find backtrack level: max level among learnt[1..].
        let mut bt_level = 0;
        let mut max_i = 1;
        for (i, l) in minimized.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > bt_level {
                bt_level = lv;
                max_i = i;
            }
        }
        if minimized.len() > 1 {
            minimized.swap(1, max_i);
        }
        self.learnt = minimized;
        bt_level
    }

    /// Literal-block distance of the learnt clause: the number of
    /// distinct decision levels among its literals (computed before
    /// backtracking).
    fn compute_glue(&mut self) -> u32 {
        self.levels.clear();
        self.levels
            .extend(self.learnt.iter().map(|l| self.level[l.var().index()]));
        self.levels.sort_unstable();
        self.levels.dedup();
        self.levels.len() as u32
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.polarity[v.index()] = l.is_positive();
            self.assigns[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            if !self.order.contains(v) {
                self.order.push(v, &self.activity);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(Lit::new(v, self.polarity[v.index()]));
            }
        }
        None
    }

    /// Solves the current clause database.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under temporary assumptions (literals forced true for this
    /// call only). The clause database is unchanged afterwards.
    ///
    /// Safe to call repeatedly without `clear_model`: a `Sat` answer
    /// leaves its satisfying assignment on the trail so `value` works,
    /// and the next call discards it here before establishing its own
    /// assumptions. (Previously a stale assignment made follow-up
    /// queries silently ignore their assumptions in release builds.)
    ///
    /// Returns [`SolveResult::Unknown`] — never panics — when the
    /// per-call conflict budget runs out or the installed
    /// [`CancelToken`] fires; the solver backtracks to the root level
    /// and the next call behaves as if the interrupted one never ran
    /// (modulo kept learnt clauses, which are implied by the database).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if self.unsat {
            return SolveResult::Unsat;
        }
        // A pre-cancelled token stops the call before any search; an
        // encoding already over the memory budget never starts one.
        if let Some(i) = self.cancel.as_ref().and_then(|c| c.should_stop(true)) {
            return SolveResult::Unknown(i);
        }
        if self.over_mem_budget() {
            return SolveResult::Unknown(Interrupt::MemBudget);
        }
        self.backtrack_to(0);
        let mut luby_index = 0u64;
        let entry_conflicts = self.stats.conflicts;
        let mut conflicts_at_start = self.stats.conflicts;
        let mut restart_limit = RESTART_BASE * luby(luby_index);
        let mut decisions = 0u64;
        let result = 'outer: loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if let Some(i) = self.conflict_interrupt(self.stats.conflicts - entry_conflicts) {
                    // Propagation has moved past this conflict, so a root
                    // conflict must be remembered here, or the next call
                    // would search on as if the database were consistent.
                    self.unsat |= self.decision_level() == 0;
                    break SolveResult::Unknown(i);
                }
                if self.decision_level() == 0 {
                    self.unsat = true;
                    break SolveResult::Unsat;
                }
                // If the conflict is at or below the assumption levels we
                // must check whether it depends only on assumptions.
                let bt = self.analyze(confl);
                let glue = self.compute_glue();
                self.stats.max_glue = self.stats.max_glue.max(glue);
                self.stats.glue_sum += u64::from(glue);
                self.stats.glued += 1;
                // Do not backtrack past the assumptions; if the learnt clause
                // asserts below assumption depth, re-propagation decides.
                self.backtrack_to(bt);
                let asserting = self.learnt[0];
                if self.learnt.len() == 1 {
                    if self.decision_level() > 0 {
                        // learnt unit conflicts with assumption context:
                        // backtrack fully and enqueue at root.
                        self.backtrack_to(0);
                    }
                    if self.lit_value(asserting) == LBool::False {
                        self.unsat = true;
                        break SolveResult::Unsat;
                    }
                    if self.lit_value(asserting) == LBool::Undef {
                        self.unchecked_enqueue(asserting, None);
                    }
                } else {
                    let learnt = std::mem::take(&mut self.learnt);
                    let cref = self.attach_clause(&learnt, true, glue);
                    self.learnt = learnt;
                    if self.lit_value(asserting) == LBool::Undef {
                        self.unchecked_enqueue(asserting, Some(cref));
                    } else if self.lit_value(asserting) == LBool::False {
                        // Clause still conflicting after backtrack (can
                        // happen when clamped by assumptions): give up on
                        // this assumption context.
                        if self.decision_level() == 0 {
                            self.unsat = true;
                        }
                        break SolveResult::Unsat;
                    }
                }
                // Restart handling.
                if self.stats.conflicts - conflicts_at_start >= restart_limit {
                    self.stats.restarts += 1;
                    luby_index += 1;
                    conflicts_at_start = self.stats.conflicts;
                    restart_limit = RESTART_BASE * luby(luby_index);
                    self.backtrack_to(0);
                }
                if self.n_learnt > self.max_learnt {
                    self.reduce_db();
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= 0.999;
            } else {
                // Re-establish assumptions that are not yet on the trail.
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied: open an empty decision level
                            // so indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            break 'outer SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                            continue 'outer;
                        }
                    }
                }
                // Long conflict-free stretches (huge easy instances) must
                // also observe cancellation: poll every 1024 decisions.
                decisions += 1;
                if decisions.is_multiple_of(1024) {
                    if let Some(i) = self.cancel.as_ref().and_then(|c| c.should_stop(true)) {
                        break SolveResult::Unknown(i);
                    }
                }
                match self.pick_branch() {
                    None => break SolveResult::Sat,
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, None);
                    }
                }
            }
        };
        // Unknown unwinds like Unsat: back to the root, partial
        // assignment discarded, learnt clauses kept — the solver is
        // reusable and the interrupted query left no trace beyond
        // database-implied learning.
        if matches!(result, SolveResult::Unsat | SolveResult::Unknown(_)) {
            self.backtrack_to(0);
        }
        // On SAT we leave the assignment in place so `value` works; the next
        // solve call must start from level 0 though.
        result
    }

    /// Whether to stop at a conflict, `spent` conflicts into this call:
    /// conflict budget, cancellation, memory budget or an injected fault.
    fn conflict_interrupt(&mut self, spent: u64) -> Option<Interrupt> {
        if self.conflict_budget.is_some_and(|budget| spent > budget) {
            return Some(Interrupt::ConflictBudget);
        }
        // The flag is polled every conflict (a relaxed load); the
        // deadline clock read is amortized over 128 conflicts.
        if let Some(i) = self
            .cancel
            .as_ref()
            .and_then(|c| c.should_stop(spent.is_multiple_of(128)))
        {
            return Some(i);
        }
        // The byte estimate is maintained incrementally, so the
        // budget check is O(1) and safe to run every conflict.
        if self.over_mem_budget() {
            return Some(Interrupt::MemBudget);
        }
        match gpumc_fault::hit(gpumc_fault::points::SAT_CONFLICT) {
            Some(gpumc_fault::FaultSignal::SpuriousUnknown) => Some(Interrupt::Injected),
            Some(gpumc_fault::FaultSignal::AllocSpike(b)) => {
                let charged = gpumc_fault::materialize_spike(b);
                self.mem_ballast = self.mem_ballast.saturating_add(charged);
                None
            }
            None => None,
        }
    }

    /// Prepares the solver for another `solve` after a `Sat` answer
    /// (clears the model assignment back to the root level).
    pub fn clear_model(&mut self) {
        self.backtrack_to(0);
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), zero-indexed.
fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1 << seq
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

#[cfg(test)]
impl Solver {
    /// `(problem, learnt, deleted)` clauses, counted by walking the arena.
    fn scan_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        let mut c = 0;
        while c < self.arena.len() {
            if self.is_deleted(c) {
                counts.2 += 1;
            } else if self.is_learnt(c) {
                counts.1 += 1;
            } else {
                counts.0 += 1;
            }
            c = self.next_clause(c);
        }
        counts
    }

    /// The arena's invariants after a garbage collection: the counters
    /// match the arena, every watcher names a live clause and is tagged
    /// binary iff that clause has two literals, and every clause is
    /// watched on exactly its literals 0 and 1.
    fn check_arena(&self) {
        assert_eq!(
            self.scan_counts(),
            (self.n_problem, self.n_learnt, self.n_deleted)
        );
        let mut starts = std::collections::HashSet::new();
        let mut c = 0;
        while c < self.arena.len() {
            starts.insert(c);
            c = self.next_clause(c);
        }
        assert_eq!(c, self.arena.len(), "the last clause overruns the arena");
        let mut watched = std::collections::HashSet::new();
        for (l, ws) in self.watches.iter().enumerate() {
            let l = Lit::from_index(l);
            for w in ws {
                let c = w.clause() as usize;
                assert!(starts.contains(&c), "watcher of {l} names no clause");
                assert!(!self.is_deleted(c), "watcher of {l} names a deleted clause");
                assert_eq!(w.is_binary(), self.clause_len(c) == 2, "binary tag");
                assert!(
                    self.lits(c).any(|q| q == w.blocker),
                    "blocker outside the clause"
                );
                assert!(watched.insert((l, c)), "{l} watches a clause twice");
            }
        }
        for &c in &starts {
            for k in 0..2 {
                assert!(
                    watched.remove(&(self.lit(c, k), c)),
                    "clause at {c} is not watched on its literal {k}"
                );
            }
        }
        assert!(watched.is_empty(), "watchers on literals past 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_lit()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn clause_counts_exclude_deleted_clauses() {
        // `stats()`, `num_clauses()`, `learnt_clauses()` and
        // `arena_stats()` agree with the arena and count live clauses
        // only: database reduction removes a learnt clause from all of
        // them and never touches a problem clause.
        let mut s = hard_unsat_instance();
        let problem = s.num_clauses();
        assert_eq!(problem, 7 + 6 * 21, "pigeon rows and hole pairs");
        s.set_max_learnt(64);
        s.set_conflict_budget(Some(25));
        let (mut saw_tombstones, mut saw_fewer_learnt) = (false, false);
        let mut prev_learnt = 0;
        loop {
            let r = s.solve();
            let st = s.stats();
            assert_eq!(
                st.clauses, problem,
                "learnt clauses never count as problem clauses"
            );
            assert_eq!(s.num_clauses(), problem);
            assert_eq!(st.learnt, s.learnt_clauses().len());
            let (slots, dead) = s.arena_stats();
            assert_eq!((slots, dead), {
                let (p, l, d) = s.scan_counts();
                (p + l + d, d)
            });
            assert_eq!(slots, problem + st.learnt + dead);
            saw_tombstones |= dead > 0;
            saw_fewer_learnt |= st.learnt < prev_learnt;
            prev_learnt = st.learnt;
            if !r.is_unknown() {
                assert!(r.is_unsat(), "{r:?} after {} conflicts", st.conflicts);
                break;
            }
        }
        assert!(saw_tombstones, "no reduction left a tombstone to count");
        assert!(saw_fewer_learnt, "no reduction deleted a learnt clause");
    }

    #[test]
    fn unit_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0]]);
        s.add_clause([!v[1]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.value(v[1]), Some(false));
    }

    #[test]
    fn direct_contradiction() {
        let mut s = Solver::new();
        let a = s.new_lit();
        s.add_clause([a]);
        assert!(!s.add_clause([!a]));
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn simple_implication_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause([v[0]]);
        for i in 0..3 {
            s.add_clause([!v[i], v[i + 1]]);
        }
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[3]), Some(true));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i1 < i2 index pairs read better as ranges
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3).map(|_| lits(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(row.clone());
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // i1 < i2 index pairs read better as ranges
    fn pigeonhole_5_into_4_is_unsat() {
        let mut s = Solver::new();
        let n = 5;
        let m = 4;
        let p: Vec<Vec<Lit>> = (0..n).map(|_| lits(&mut s, m)).collect();
        for row in &p {
            s.add_clause(row.clone());
        }
        for j in 0..m {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn xor_chain_sat_and_model_correct() {
        // x0 xor x1 = 1, x1 xor x2 = 1, x0 = 1 => x1=0, x2=1
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor_true = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        };
        xor_true(&mut s, v[0], v[1]);
        xor_true(&mut s, v[1], v[2]);
        s.add_clause([v[0]]);
        assert!(s.solve().is_sat());
        assert_eq!(s.value(v[1]), Some(false));
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let a = s.new_lit();
        let b = s.new_lit();
        s.add_clause([!a, b]);
        assert!(s.solve_with_assumptions(&[a]).is_sat());
        assert_eq!(s.value(b), Some(true));
        s.clear_model();
        assert!(s.solve_with_assumptions(&[!b]).is_sat());
        assert_eq!(s.value(b), Some(false));
        s.clear_model();
        // Contradicting assumptions => Unsat, but database still SAT after.
        s.add_clause([a]);
        assert!(s.solve_with_assumptions(&[!a]).is_unsat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn repeated_queries_without_clear_model_are_well_defined() {
        // Regression: a Sat answer leaves its satisfying assignment on the
        // trail (so `value` works). A follow-up `solve_with_assumptions`
        // used to assume it started at decision level 0; with the stale
        // trail still deep enough, the assumption-establishment loop never
        // ran and the new assumptions were silently ignored in release
        // builds. Repeated queries must be well-defined without an
        // intervening `clear_model`.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        assert!(s.solve_with_assumptions(&[v[0], v[1], v[2]]).is_sat());
        assert_eq!(s.value(v[0]), Some(true));
        // No clear_model: the next query must still honour its assumptions.
        assert!(s.solve_with_assumptions(&[!v[0], !v[1]]).is_sat());
        assert_eq!(s.value(v[0]), Some(false), "assumption !v0 was ignored");
        assert_eq!(s.value(v[1]), Some(false), "assumption !v1 was ignored");
        assert_eq!(s.value(v[2]), Some(true));
        // Assumption-level Unsat, again without clearing first.
        assert!(s.solve_with_assumptions(&[!v[0], !v[1], !v[2]]).is_unsat());
        // ... and the base formula is still Sat afterwards.
        assert!(s.solve().is_sat());
        // A query straight after the assumption-Unsat (conflict state) is
        // also well-defined.
        assert!(s.solve_with_assumptions(&[!v[0], !v[1], !v[2]]).is_unsat());
        assert!(s.solve_with_assumptions(&[!v[1], v[2]]).is_sat());
        assert_eq!(s.value(v[1]), Some(false));
        assert_eq!(s.value(v[2]), Some(true));
    }

    #[test]
    fn model_satisfies_all_clauses_randomized() {
        // Deterministic pseudo-random 3-SAT instances near the easy region;
        // verify returned models actually satisfy every clause.
        let mut seed = 0xdeadbeefu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..20 {
            let nvars = 30 + (round % 5) * 10;
            let nclauses = nvars * 3;
            let mut s = Solver::new();
            let vs = lits(&mut s, nvars);
            let mut clauses = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let v = vs[(next() as usize) % nvars];
                    let l = if next() % 2 == 0 { v } else { !v };
                    c.push(l);
                }
                clauses.push(c.clone());
                s.add_clause(c);
            }
            if s.solve().is_sat() {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.value_or_false(l)),
                        "model does not satisfy clause {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_lit();
        let b = s.new_lit();
        s.add_clause([a, a, b]);
        s.add_clause([a, !a]); // tautology, dropped
        assert!(s.solve().is_sat());
    }

    /// A hard pigeonhole-style instance the solver needs many conflicts
    /// for — the workbench for budget/cancellation tests.
    fn hard_unsat_instance() -> Solver {
        let mut s = Solver::new();
        let n = 7;
        let m = 6;
        let p: Vec<Vec<Lit>> = (0..n).map(|_| lits(&mut s, m)).collect();
        for row in &p {
            s.add_clause(row.clone());
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (&a, &b) in row1.iter().zip(row2) {
                    s.add_clause([!a, !b]);
                }
            }
        }
        s
    }

    #[test]
    fn budget_exhaustion_returns_unknown_not_panic() {
        let mut s = hard_unsat_instance();
        s.set_conflict_budget(Some(3));
        let r = s.solve();
        assert_eq!(r, SolveResult::Unknown(Interrupt::ConflictBudget));
        assert!(r.is_unknown());
        assert!(!r.is_sat() && !r.is_unsat());
    }

    #[test]
    fn solver_is_reusable_after_budget_unknown() {
        // Regression for the serve stack: a mid-solve interruption must
        // leave the solver able to answer the next query correctly.
        let mut s = hard_unsat_instance();
        s.set_conflict_budget(Some(2));
        assert!(s.solve().is_unknown());
        // Budget is per-call: a second tiny-budget call is also Unknown,
        // not instantly dead from cumulative accounting.
        assert!(s.solve().is_unknown());
        s.set_conflict_budget(None);
        assert!(s.solve().is_unsat(), "the instance is really unsat");
    }

    #[test]
    fn mem_budget_exhaustion_returns_unknown_and_solver_survives() {
        let mut s = hard_unsat_instance();
        assert!(s.bytes_in_use() > 0, "the arena estimate must be live");
        // A budget below what the instance already uses stops the solve
        // before any search; the solver stays usable afterwards.
        s.set_mem_budget_bytes(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::MemBudget));
        s.set_mem_budget_bytes(None);
        assert!(s.solve().is_unsat(), "the instance is really unsat");
    }

    #[test]
    fn mem_budget_triggers_mid_search_from_learnt_growth() {
        // A budget a little above the initial footprint lets the search
        // start, then trips as learnt clauses accumulate.
        let mut s = hard_unsat_instance();
        let base = s.bytes_in_use();
        s.set_mem_budget_bytes(Some(base + 512));
        let r = s.solve();
        assert_eq!(r, SolveResult::Unknown(Interrupt::MemBudget));
        assert!(s.bytes_in_use() > base, "learnt clauses were accounted");
        s.set_mem_budget_bytes(None);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn ballast_counts_against_the_budget() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        let base = s.bytes_in_use();
        s.set_mem_budget_bytes(Some(base + (1 << 20)));
        assert!(s.solve().is_sat());
        s.add_mem_ballast(2 << 20);
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::MemBudget));
    }

    #[test]
    fn bytes_estimate_shrinks_after_garbage_collection() {
        let mut s = hard_unsat_instance();
        s.set_max_learnt(64);
        assert!(s.solve().is_unsat());
        // Recomputing from live clauses must agree with the incremental
        // estimate after a GC pass.
        let before = s.bytes_in_use();
        s.collect_garbage();
        assert!(s.bytes_in_use() <= before);
        let incremental = s.bytes_in_use();
        s.recompute_lits_bytes();
        assert_eq!(s.bytes_in_use(), incremental);
    }

    #[test]
    fn injected_conflict_fault_reports_unknown_without_lying() {
        let plan = std::sync::Arc::new(gpumc_fault::FaultPlan::single(
            gpumc_fault::points::SAT_CONFLICT,
            gpumc_fault::FaultKind::SpuriousUnknown,
        ));
        let mut s = hard_unsat_instance();
        {
            let _g = gpumc_fault::scoped(plan);
            assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::Injected));
        }
        // With the plan disarmed the same solver answers correctly.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn cancellation_preserves_verdicts() {
        // Cancellation can only withhold an answer, never flip one: the
        // same database answers Sat correctly after an interrupted call.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[2]]);
        let token = CancelToken::new();
        token.cancel();
        s.set_cancel_token(Some(token));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::Cancelled));
        s.set_cancel_token(None);
        assert!(s.solve().is_sat());
        assert!(s.value_or_false(v[0]) || s.value_or_false(v[1]));
    }

    #[test]
    fn expired_deadline_interrupts_before_search() {
        let mut s = hard_unsat_instance();
        s.set_cancel_token(Some(CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        )));
        assert_eq!(s.solve(), SolveResult::Unknown(Interrupt::DeadlineExpired));
        s.set_cancel_token(None);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn budgeted_slices_of_an_unsat_search_stay_unsat() {
        // Regression: a budget that ran out on a root-level conflict
        // answered `Unknown` but forgot the conflict, which propagation had
        // already moved past, so a later call answered this unsatisfiable
        // instance `Sat` (after 1,820 conflicts in slices of 25).
        let mut s = hard_unsat_instance();
        s.set_max_learnt(64);
        s.set_conflict_budget(Some(25));
        let r = loop {
            let r = s.solve();
            if !r.is_unknown() {
                break r;
            }
        };
        assert!(
            r.is_unsat(),
            "{r:?} after {} conflicts",
            s.stats().conflicts
        );
    }

    #[test]
    fn assumptions_work_after_interrupt() {
        let mut s = hard_unsat_instance();
        let extra = s.new_lit();
        s.add_clause([extra]);
        s.set_conflict_budget(Some(1));
        assert!(s.solve().is_unknown());
        s.set_conflict_budget(None);
        // Assumption-level queries are still well-defined afterwards.
        assert!(s.solve_with_assumptions(&[!extra]).is_unsat());
        assert!(s.solve_with_assumptions(&[extra]).is_unsat());
    }

    #[test]
    fn long_run_keeps_clause_arena_bounded() {
        // Regression: reduce_db used to only tombstone clauses, so an
        // adversarial run grew `self.clauses` without bound. With arena
        // garbage collection the tombstone share must stay below the 50%
        // trigger, and the arena must stay within a small factor of the
        // live clause count.
        let mut s = hard_unsat_instance();
        // A tiny learnt cap forces many reduce_db cycles within the run;
        // every garbage collection checks the arena's watch invariants.
        s.set_max_learnt(64);
        assert!(s.solve().is_unsat());
        assert!(s.collections > 0, "the run never collected garbage");
        let (len, dead) = s.arena_stats();
        assert!(
            dead * 2 < len.max(1),
            "arena is majority-tombstones after a long run: {dead}/{len}"
        );
        let st = s.stats();
        let live = st.clauses + st.learnt;
        assert!(
            len <= 2 * live + 2,
            "arena length {len} not bounded by live clauses {live}"
        );
        assert!(
            st.conflicts > 200,
            "instance too easy to exercise reduce_db ({} conflicts)",
            st.conflicts
        );
    }

    #[test]
    fn glue_statistics_are_recorded() {
        let mut s = hard_unsat_instance();
        assert!(s.solve().is_unsat());
        let st = s.stats();
        assert!(st.glued > 0, "conflicts must record glue");
        assert!(st.max_glue >= 1);
        assert!(st.avg_glue() >= 1.0);
        assert!(st.avg_glue() <= f64::from(st.max_glue));
    }

    #[test]
    fn stats_track_progress() {
        let mut s = Solver::new();
        let v = lits(&mut s, 6);
        for i in 0..5 {
            s.add_clause([!v[i], v[i + 1]]);
        }
        s.add_clause([v[0]]);
        let _ = s.solve();
        let st = s.stats();
        assert_eq!(st.vars, 6);
        assert!(st.propagations > 0);
    }
}
