//! A dependency-free CDCL SAT solver (chicala-sat).
//!
//! This is the engine behind the gate-level equivalence backend in
//! `chicala-lowlevel`: combinational miters are Tseitin-encoded to CNF and
//! discharged here, which scales far past the width ceiling of the
//! monolithic BDD baseline. The solver is a compact MiniSat-style core:
//!
//! * **two-watched-literal** unit propagation with blocker literals;
//! * **first-UIP conflict analysis** with recursive clause minimisation;
//! * **EVSIDS** variable activities (exponential bump + decay) driving a
//!   binary-heap decision order, with phase saving;
//! * **Luby restarts**;
//! * **activity-based clause-database reduction** (binary and locked
//!   clauses are kept).
//!
//! The API is deliberately small: [`Solver::new_var`], [`Solver::add_clause`],
//! [`Solver::solve`], and [`Stats`] for observability. Incremental use goes
//! through [`Solver::solve_assuming`]: assumptions are placed as
//! pseudo-decisions below the search, the clause database, variable
//! activities, and saved phases all survive across calls, and an UNSAT
//! answer exposes the subset of assumptions that caused it via
//! [`Solver::assumption_core`]. [`Solver::push_clauses`] (and `add_clause`
//! itself) may be called with a live trail; the solver backtracks to the
//! root first.
//!
//! # Storage
//!
//! Clauses live in one flat `Vec<u32>` arena, as in MiniSat (Eén and
//! Sörensson, "An Extensible SAT-solver", SAT 2003). A clause is a record
//! of `3 + len` words, and a clause reference is the offset of its first
//! word:
//!
//! ```text
//! word 0      len << 2 | learnt << 1 | deleted
//! words 1, 2  activity: the low and high halves of an f64's bits
//! words 3..   the literals; slots 0 and 1 are the watched pair
//! ```
//!
//! Offset 0 holds a permanent tombstone: a record of length 0 with the
//! deleted bit set. Clause-database reduction only sets a clause's deleted
//! bit. Its watches stay where they are, and unit propagation drops each
//! one lazily when it next scans it, exactly as if the clause were still
//! there. Once deleted records hold more than half of the arena, reduction
//! compacts it in place: live records slide down in order, and every
//! reference (watches, reasons, the learnt list) is rewritten to the new
//! offset. Watches of deleted clauses are rewritten to the tombstone
//! rather than removed, so propagation meets the same watch entries, in
//! the same order, whether or not a compaction ran in between.
//!
//! Each watch list is scanned in place and put back into its slot.
//! Variable values are bytes, and a literal's value is its variable's byte
//! XOR the literal's sign. None of this changes the search: decisions,
//! conflicts, learnt clauses and every [`Stats`] counter are those of a
//! solver that keeps each clause in its own allocation.
//!
//! # Examples
//!
//! ```
//! use chicala_sat::{Lit, SatResult, Solver};
//!
//! let mut s = Solver::new();
//! let x = s.new_var();
//! let y = s.new_var();
//! s.add_clause(&[Lit::pos(x), Lit::pos(y)]);
//! s.add_clause(&[Lit::neg(x)]);
//! match s.solve() {
//!     SatResult::Sat(model) => {
//!         assert!(!model[x as usize] && model[y as usize]);
//!     }
//!     SatResult::Unsat => unreachable!(),
//! }
//! ```

use std::fmt;

/// A propositional variable, numbered from 0 by [`Solver::new_var`].
pub type Var = u32;

/// A literal: a variable or its negation, packed as `var << 1 | sign`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit(v << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(v << 1 | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// Whether the literal is negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The packed index (distinct for the two polarities; dense from 0).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The sign bit as a value code: `L_TRUE` for a positive literal,
    /// `L_FALSE` for a negated one.
    fn sign(self) -> u8 {
        (self.0 & 1) as u8
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.is_neg() { "-" } else { "" }, self.var())
    }
}

/// Value codes. `Solver::assigns` holds one per variable, and
/// `assigns[v] ^ sign` is the value of a literal over `v` in the same
/// code, so an unassigned variable's literals read `L_UNDEF` or
/// `L_UNDEF | 1`: test for "unassigned" with `& L_UNDEF`.
const L_TRUE: u8 = 0;
const L_FALSE: u8 = 1;
const L_UNDEF: u8 = 2;

/// The outcome of [`Solver::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable, with one model indexed by variable number.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

/// Search statistics, readable any time via [`Solver::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Clauses learned (including units).
    pub learned_clauses: u64,
    /// Total literals in learned clauses, after minimisation.
    pub learned_literals: u64,
    /// Literals deleted by recursive clause minimisation.
    pub minimized_literals: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses deleted by DB reduction.
    pub deleted_clauses: u64,
}

/// A clause: the arena offset of its header word.
type ClauseRef = u32;

/// Header bit: the clause was learnt.
const LEARNT: u32 = 0b10;
/// Header bit: the clause was deleted (its record awaits compaction).
const DELETED: u32 = 0b01;
/// Words before a clause's first literal: the header and the activity.
const HEADER_WORDS: usize = 3;
/// The permanent deleted record at offset 0 that compaction points the
/// watches of reclaimed clauses at.
const TOMBSTONE: ClauseRef = 0;

/// Every clause of a solver, one record after another (layout in the
/// module docs).
struct ClauseArena {
    words: Vec<u32>,
    /// Words held by deleted records, reclaimed by the next compaction.
    wasted: usize,
}

impl ClauseArena {
    /// An arena holding only the tombstone.
    fn new() -> ClauseArena {
        ClauseArena { words: vec![DELETED, 0, 0], wasted: 0 }
    }

    /// Appends a clause record with zero activity.
    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cr = ClauseRef::try_from(self.words.len()).expect("clause arena exceeds 4 Gi words");
        assert!(lits.len() < 1 << 30, "clause length fits the header's 30 bits");
        self.words.push((lits.len() as u32) << 2 | if learnt { LEARNT } else { 0 });
        self.words.extend([0, 0]);
        self.words.extend(lits.iter().map(|l| l.0));
        cr
    }

    fn len(&self, cr: ClauseRef) -> usize {
        (self.words[cr as usize] >> 2) as usize
    }

    fn is_learnt(&self, cr: ClauseRef) -> bool {
        self.words[cr as usize] & LEARNT != 0
    }

    fn is_deleted(&self, cr: ClauseRef) -> bool {
        self.words[cr as usize] & DELETED != 0
    }

    /// Literal `k` of clause `cr`.
    fn lit(&self, cr: ClauseRef, k: usize) -> Lit {
        Lit(self.words[cr as usize + HEADER_WORDS + k])
    }

    /// Swaps literals `i` and `k` of clause `cr`.
    fn swap_lits(&mut self, cr: ClauseRef, i: usize, k: usize) {
        let base = cr as usize + HEADER_WORDS;
        self.words.swap(base + i, base + k);
    }

    fn activity(&self, cr: ClauseRef) -> f64 {
        let i = cr as usize + 1;
        f64::from_bits(u64::from(self.words[i]) | u64::from(self.words[i + 1]) << 32)
    }

    fn set_activity(&mut self, cr: ClauseRef, a: f64) {
        let i = cr as usize + 1;
        let bits = a.to_bits();
        self.words[i] = bits as u32;
        self.words[i + 1] = (bits >> 32) as u32;
    }

    /// Marks `cr` deleted; its words stay until `compact`.
    fn free(&mut self, cr: ClauseRef) {
        self.words[cr as usize] |= DELETED;
        self.wasted += HEADER_WORDS + self.len(cr);
    }

    /// Slides every live record down over the deleted ones, keeping their
    /// order, and returns each live record's `(old, new)` offset, ascending
    /// in both.
    fn compact(&mut self) -> Vec<(ClauseRef, ClauseRef)> {
        let mut moved = Vec::new();
        let (mut from, mut to) = (HEADER_WORDS, HEADER_WORDS);
        while from < self.words.len() {
            let size = HEADER_WORDS + (self.words[from] >> 2) as usize;
            if self.words[from] & DELETED == 0 {
                moved.push((from as ClauseRef, to as ClauseRef));
                self.words.copy_within(from..from + size, to);
                to += size;
            }
            from += size;
        }
        self.words.truncate(to);
        self.wasted = 0;
        moved
    }
}

/// A watch-list entry: the clause and a "blocker" literal whose truth makes
/// the clause satisfied without touching its memory.
#[derive(Clone, Copy)]
struct Watch {
    clause: ClauseRef,
    blocker: Lit,
}

/// Max-heap over variables keyed by activity (the VSIDS order).
#[derive(Default)]
struct VarOrder {
    /// Heap of variables.
    heap: Vec<Var>,
    /// `pos[v]` = index of `v` in `heap`, or `usize::MAX` when absent.
    pos: Vec<usize>,
    /// EVSIDS activity per variable.
    act: Vec<f64>,
}

impl VarOrder {
    fn new_var(&mut self) {
        let v = self.act.len() as Var;
        self.act.push(0.0);
        self.pos.push(usize::MAX);
        self.insert(v);
    }

    fn contains(&self, v: Var) -> bool {
        self.pos[v as usize] != usize::MAX
    }

    fn insert(&mut self, v: Var) {
        if self.contains(v) {
            return;
        }
        self.pos[v as usize] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    fn pop_max(&mut self) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty");
        self.pos[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.act[self.heap[i] as usize] <= self.act[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && self.act[self.heap[l] as usize] > self.act[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.act[self.heap[r] as usize] > self.act[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i] as usize] = i;
        self.pos[self.heap[j] as usize] = j;
    }

    /// Bumps `v`'s activity by `inc`; returns true when a global rescale of
    /// all activities is needed (caller divides `inc` too).
    fn bump(&mut self, v: Var, inc: f64) -> bool {
        self.act[v as usize] += inc;
        if self.contains(v) {
            let i = self.pos[v as usize];
            self.sift_up(i);
        }
        self.act[v as usize] > 1e100
    }

    fn rescale(&mut self) {
        for a in &mut self.act {
            *a *= 1e-100;
        }
    }
}

/// Number of conflicts allowed in restart interval `i` (0-based): the Luby
/// sequence 1,1,2,1,1,2,4,... times [`Solver::restart_base`].
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing i and its size.
    let mut size = 1u64;
    let mut seq = 0u64;
    while size < i + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != i {
        size = (size - 1) / 2;
        seq -= 1;
        i %= size;
    }
    1u64 << seq
}

/// A CDCL solver instance. Create, add variables and clauses, solve.
pub struct Solver {
    /// Every clause of two or more literals, problem and learnt, in the
    /// order they were added (see the module docs for the record layout,
    /// the tombstone and compaction). Unit clauses are never stored: they
    /// are root-level assignments.
    arena: ClauseArena,
    /// Problem (non-learnt) clauses in `arena`; they are never deleted.
    num_problem: usize,
    /// Learnt clauses still alive (for DB reduction). After a reduction
    /// they are in ascending activity order.
    learnts: Vec<ClauseRef>,
    /// `watches[lit.index()]`: clauses to inspect when `lit` becomes true
    /// (they watch `¬lit`). An entry may name a deleted clause or the
    /// tombstone until propagation next scans it.
    watches: Vec<Vec<Watch>>,
    /// One value code per variable (`L_TRUE`, `L_FALSE` or `L_UNDEF`).
    assigns: Vec<u8>,
    /// Saved phase per variable (last assigned polarity).
    phase: Vec<bool>,
    level: Vec<u32>,
    /// The clause that implied each assigned variable, with the implied
    /// literal at slot 0; `None` for decisions, units and unassigned
    /// variables. A reason clause is never deleted.
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    order: VarOrder,
    var_inc: f64,
    cla_inc: f64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    to_clear: Vec<Var>,
    /// Set once an empty clause is derived at level 0.
    unsat: bool,
    /// Assumptions pinned by the current/last `solve_assuming` call.
    assumptions: Vec<Lit>,
    /// On assumption-caused UNSAT: the failing subset of the assumptions.
    core: Vec<Lit>,
    stats: Stats,
    /// Conflicts in the current Luby restart interval.
    restart_conflicts: u64,
    /// Base conflict count multiplied by the Luby sequence.
    pub restart_base: u64,
    /// Learnt-clause cap before a DB reduction (grows geometrically).
    max_learnts: f64,
}

impl Default for Solver {
    fn default() -> Solver {
        Solver::new()
    }
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const CLA_DECAY: f64 = 1.0 / 0.999;

impl Solver {
    /// An empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: ClauseArena::new(),
            num_problem: 0,
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            order: VarOrder::default(),
            var_inc: 1.0,
            cla_inc: 1.0,
            seen: Vec::new(),
            to_clear: Vec::new(),
            unsat: false,
            assumptions: Vec::new(),
            core: Vec::new(),
            stats: Stats::default(),
            restart_conflicts: 0,
            restart_base: 100,
            max_learnts: 0.0,
        }
    }

    /// Creates a fresh variable and returns its number.
    pub fn new_var(&mut self) -> Var {
        let v = self.assigns.len() as Var;
        self.assigns.push(L_UNDEF);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.seen.push(false);
        self.order.new_var();
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of problem (non-learnt) clauses added and kept.
    pub fn num_clauses(&self) -> usize {
        self.num_problem
    }

    /// Search statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// The value code of `l` (see `L_TRUE`).
    fn value_lit(&self, l: Lit) -> u8 {
        self.assigns[l.var() as usize] ^ l.sign()
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause over existing variables. Returns `false` when the
    /// clause (after level-0 simplification) is already contradictory.
    ///
    /// Safe under a live trail: the solver first backtracks to the root,
    /// undoing any decisions (and assumption pseudo-decisions) left by a
    /// previous `solve_assuming`/`solve_limited` call. Learnt clauses and
    /// activities are untouched.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        self.cancel_until(0);
        if self.unsat {
            return false;
        }
        // Simplify under the level-0 assignment: drop false literals,
        // detect satisfied/tautological clauses, dedup.
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted: Vec<Lit> = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for (i, &l) in sorted.iter().enumerate() {
            debug_assert!((l.var() as usize) < self.num_vars(), "literal over unknown var");
            if self.value_lit(l) == L_TRUE {
                return true; // already satisfied forever
            }
            if i + 1 < sorted.len() && sorted[i + 1] == !l {
                return true; // tautology p ∨ ¬p
            }
            if self.value_lit(l) == L_FALSE {
                continue; // false at level 0 forever
            }
            c.push(l);
        }
        match c.len() {
            0 => {
                self.unsat = true;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_new(&c, false);
                true
            }
        }
    }

    /// Adds a batch of clauses, backtracking to the root first. Returns
    /// `false` when the formula became contradictory at level 0.
    pub fn push_clauses(&mut self, clauses: &[Vec<Lit>]) -> bool {
        self.cancel_until(0);
        let mut ok = true;
        for c in clauses {
            ok &= self.add_clause(c);
        }
        ok
    }

    fn attach_new(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        let cr = self.arena.alloc(lits, learnt);
        if learnt {
            self.learnts.push(cr);
        } else {
            self.num_problem += 1;
        }
        self.watches[(!lits[0]).index()].push(Watch { clause: cr, blocker: lits[1] });
        self.watches[(!lits[1]).index()].push(Watch { clause: cr, blocker: lits[0] });
        cr
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert!(self.value_lit(l) & L_UNDEF != 0);
        let v = l.var() as usize;
        self.assigns[v] = l.sign();
        self.phase[v] = !l.is_neg();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Visit clauses watching ¬p (p just became true).
            let mut i = 0;
            // The list is taken out of its slot so watches can be pushed
            // onto other lists meanwhile (never onto this one: that would
            // take a second copy of ¬p in the clause), and goes back into
            // the slot afterwards.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                // Blocker short-circuit: satisfied clause, watch unchanged.
                if self.value_lit(w.blocker) == L_TRUE {
                    i += 1;
                    continue;
                }
                let cr = w.clause;
                if self.arena.is_deleted(cr) {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure the false literal is at slot 1.
                if self.arena.lit(cr, 0) == false_lit {
                    self.arena.swap_lits(cr, 0, 1);
                }
                debug_assert_eq!(self.arena.lit(cr, 1), false_lit);
                let first = self.arena.lit(cr, 0);
                if first != w.blocker && self.value_lit(first) == L_TRUE {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.arena.len(cr) {
                    let lk = self.arena.lit(cr, k);
                    if self.value_lit(lk) != L_FALSE {
                        self.arena.swap_lits(cr, 1, k);
                        self.watches[(!lk).index()].push(Watch { clause: cr, blocker: first });
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting under the watch invariant.
                if self.value_lit(first) == L_FALSE {
                    conflict = Some(cr);
                    self.qhead = self.trail.len();
                    break;
                }
                self.enqueue(first, Some(cr));
                i += 1;
            }
            debug_assert!(self.watches[p.index()].is_empty());
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        if self.order.bump(v, self.var_inc) {
            self.order.rescale();
            self.var_inc *= 1e-100;
        }
    }

    fn bump_clause(&mut self, cr: ClauseRef) {
        if !self.arena.is_learnt(cr) {
            return;
        }
        let a = self.arena.activity(cr) + self.cla_inc;
        self.arena.set_activity(cr, a);
        if a > 1e20 {
            for &l in &self.learnts {
                let scaled = self.arena.activity(l) * 1e-20;
                self.arena.set_activity(l, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // slot 0 = asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let mut cr = confl;
        loop {
            self.bump_clause(cr);
            // The asserting path: on the first round every literal of the
            // conflict clause counts; afterwards the resolved literal `p`
            // (stored at slot 0 of its reason) is skipped.
            let start = usize::from(p.is_some());
            for k in start..self.arena.len(cr) {
                let q = self.arena.lit(cr, k);
                let v = q.var() as usize;
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.to_clear.push(q.var());
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal on the trail that participates in the conflict.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var() as usize] {
                    break;
                }
            }
            let pl = self.trail[idx];
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            cr = self.reason[pl.var() as usize].expect("UIP literals below the decision have reasons");
            p = Some(pl);
        }
        learnt[0] = !p.expect("loop ran");

        // Recursive minimisation: drop literals implied by the rest of the
        // learnt clause through their reason chains.
        let before = learnt.len();
        let mut keep: Vec<Lit> = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.lit_redundant(l, 0) {
                keep.push(l);
            }
        }
        self.stats.minimized_literals += (before - keep.len()) as u64;
        let mut learnt = keep;

        // Clear the seen marks.
        for v in self.to_clear.drain(..) {
            self.seen[v as usize] = false;
        }

        // Backjump level: highest level among the non-asserting literals;
        // put its literal at slot 1 so it is watched.
        let mut bt = 0u32;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var() as usize] > self.level[learnt[max_i].var() as usize]
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            bt = self.level[learnt[1].var() as usize];
        }
        (learnt, bt)
    }

    /// Whether `l` is implied by seen literals through reason chains (so it
    /// can be deleted from the learnt clause). Successes are memoised in
    /// `seen`; the recursion depth is bounded for pathological chains.
    fn lit_redundant(&mut self, l: Lit, depth: u32) -> bool {
        if depth > 32 {
            return false;
        }
        let Some(cr) = self.reason[l.var() as usize] else {
            return false;
        };
        for k in 0..self.arena.len(cr) {
            let q = self.arena.lit(cr, k);
            let v = q.var() as usize;
            if q.var() == l.var() || self.level[v] == 0 || self.seen[v] {
                continue;
            }
            if self.reason[v].is_none() || !self.lit_redundant(q, depth + 1) {
                return false;
            }
        }
        // All antecedents covered: memoise so sibling probes reuse it.
        if !self.seen[l.var() as usize] {
            self.seen[l.var() as usize] = true;
            self.to_clear.push(l.var());
        }
        true
    }

    /// Final-conflict analysis: `failed` is an assumption found false while
    /// placing assumptions. Walks the implication trail backwards from
    /// `¬failed`'s reasons and collects the subset of assumption literals
    /// (as passed by the caller) that together force the contradiction.
    /// The result lands in `self.core`.
    fn analyze_final(&mut self, failed: Lit) {
        self.core.clear();
        self.core.push(failed);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[failed.var() as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var() as usize;
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    // A decision above level 0 during assumption placement
                    // is itself an assumption: it joins the core verbatim.
                    debug_assert!(self.level[v] > 0);
                    self.core.push(q);
                }
                Some(cr) => {
                    for k in 1..self.arena.len(cr) {
                        let l = self.arena.lit(cr, k);
                        if self.level[l.var() as usize] > 0 {
                            self.seen[l.var() as usize] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[failed.var() as usize] = false;
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail nonempty");
            let v = l.var() as usize;
            self.assigns[v] = L_UNDEF;
            self.reason[v] = None;
            self.order.insert(l.var());
        }
        self.trail_lim.truncate(level as usize);
        self.qhead = bound;
    }

    /// Deletes the lower-activity half of the learnt database (keeping
    /// binary clauses and clauses currently locked as reasons), then
    /// compacts the arena once deleted records hold more than half of it.
    fn reduce_db(&mut self) {
        let mut act: Vec<(f64, ClauseRef)> =
            self.learnts.iter().map(|&cr| (self.arena.activity(cr), cr)).collect();
        act.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let target = act.len() / 2;
        let mut live: Vec<ClauseRef> = Vec::with_capacity(act.len());
        for (i, &(_, cr)) in act.iter().enumerate() {
            let first = self.arena.lit(cr, 0);
            let locked =
                self.reason[first.var() as usize] == Some(cr) && self.value_lit(first) == L_TRUE;
            if i < target && self.arena.len(cr) > 2 && !locked {
                self.arena.free(cr);
                self.stats.deleted_clauses += 1;
            } else {
                live.push(cr);
            }
        }
        self.learnts = live;
        if 2 * self.arena.wasted > self.arena.words.len() {
            self.compact();
        }
    }

    /// Reclaims deleted records (see `ClauseArena::compact`) and rewrites
    /// every clause reference to its new offset. Watches of deleted clauses
    /// point at the tombstone afterwards and keep their place in their
    /// lists.
    fn compact(&mut self) {
        let moved = self.arena.compact();
        let forward = |cr: ClauseRef| match moved.binary_search_by_key(&cr, |&(old, _)| old) {
            Ok(i) => moved[i].1,
            Err(_) => TOMBSTONE,
        };
        for w in self.watches.iter_mut().flatten() {
            w.clause = forward(w.clause);
        }
        for cr in self.reason.iter_mut().flatten() {
            *cr = forward(*cr);
            debug_assert_ne!(*cr, TOMBSTONE, "a reason clause was deleted");
        }
        for cr in &mut self.learnts {
            *cr = forward(*cr);
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop_max() {
            if self.assigns[v as usize] == L_UNDEF {
                let l = if self.phase[v as usize] { Lit::pos(v) } else { Lit::neg(v) };
                return Some(l);
            }
        }
        None
    }

    /// Solves the current formula. See [`Solver::solve_limited`] for a
    /// conflict-bounded variant and [`Solver::solve_assuming`] for the
    /// incremental entry point.
    pub fn solve(&mut self) -> SatResult {
        self.solve_limited(u64::MAX).expect("unbounded solve terminates")
    }

    /// Solves with a conflict budget; `None` when the budget is exhausted
    /// before an answer (the solver state remains valid: more calls with a
    /// fresh budget continue the search). The budget is strictly
    /// **per-call**: each invocation analyses at most `max_conflicts`
    /// conflicts regardless of how many earlier calls spent.
    pub fn solve_limited(&mut self, max_conflicts: u64) -> Option<SatResult> {
        self.solve_assuming_limited(&[], max_conflicts)
    }

    /// Solves under the given assumptions, which act as pseudo-decisions
    /// below the search. The clause database, learnt clauses, variable
    /// activities, and saved phases persist across calls, so repeated
    /// nearby queries get dramatically cheaper. On `Unsat` caused by the
    /// assumptions, [`Solver::assumption_core`] holds a failing subset; an
    /// empty core means the formula is unsatisfiable outright.
    pub fn solve_assuming(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_assuming_limited(assumptions, u64::MAX)
            .expect("unbounded solve terminates")
    }

    /// [`Solver::solve_assuming`] with a per-call conflict budget; `None`
    /// when the budget runs out first. Re-calling with the *same*
    /// assumptions resumes the search in place; changing the assumptions
    /// backtracks to the root and starts the new query (keeping all learnt
    /// state).
    pub fn solve_assuming_limited(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: u64,
    ) -> Option<SatResult> {
        self.core.clear();
        if self.unsat {
            return Some(SatResult::Unsat);
        }
        if assumptions != self.assumptions.as_slice() {
            self.cancel_until(0);
            self.assumptions = assumptions.to_vec();
        }
        if self.max_learnts == 0.0 {
            // The first call: nothing has been learnt yet, so every stored
            // clause is a problem clause.
            self.max_learnts = (self.num_problem as f64 / 3.0).max(1000.0);
        }
        // Per-call budget: this invocation analyses at most `max_conflicts`
        // conflicts (a zero budget still analyses one, so the trail is
        // never left pointing at an unprocessed conflict).
        let mut budget = max_conflicts.max(1);
        let mut restart_limit = self.restart_base * luby(self.stats.restarts);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                self.restart_conflicts += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return Some(SatResult::Unsat);
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                self.stats.learned_clauses += 1;
                self.stats.learned_literals += learnt.len() as u64;
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    self.enqueue(asserting, None);
                } else {
                    let cr = self.attach_new(&learnt, true);
                    self.bump_clause(cr);
                    self.enqueue(asserting, Some(cr));
                }
                self.var_inc *= VAR_DECAY;
                self.cla_inc *= CLA_DECAY;
                budget -= 1;
                if budget == 0 {
                    return None;
                }
                if self.restart_conflicts >= restart_limit {
                    self.stats.restarts += 1;
                    self.restart_conflicts = 0;
                    restart_limit = self.restart_base * luby(self.stats.restarts);
                    // Restarts cancel to the root; assumptions are simply
                    // re-placed by the decision loop below.
                    self.cancel_until(0);
                }
            } else {
                if self.learnts.len() as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.1;
                }
                // Place pending assumptions as pseudo-decisions before any
                // real branching.
                let next = loop {
                    let dl = self.decision_level() as usize;
                    if dl < self.assumptions.len() {
                        let p = self.assumptions[dl];
                        match self.value_lit(p) {
                            L_TRUE => {
                                // Already satisfied: open an empty level so
                                // assumption index == decision level stays.
                                self.trail_lim.push(self.trail.len());
                            }
                            L_FALSE => {
                                // The other assumptions (or the formula)
                                // force ¬p: extract the failing subset.
                                self.analyze_final(p);
                                self.cancel_until(0);
                                return Some(SatResult::Unsat);
                            }
                            _ => break Some(p),
                        }
                    } else {
                        break self.pick_branch();
                    }
                };
                match next {
                    None => {
                        let model = self.assigns.iter().map(|&a| a == L_TRUE).collect();
                        // Leave the solver reusable: drop to the root.
                        self.cancel_until(0);
                        return Some(SatResult::Sat(model));
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                    }
                }
            }
        }
    }

    /// After an assumption-caused `Unsat` from [`Solver::solve_assuming`]:
    /// the failing subset of the passed assumptions. Empty when the last
    /// `Unsat` was unconditional (or the last answer was `Sat`).
    pub fn assumption_core(&self) -> &[Lit] {
        &self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn lit(i: i32) -> Lit {
        // DIMACS-style: 1 → x0, -1 → ¬x0.
        let v = (i.unsigned_abs() - 1) as Var;
        if i < 0 {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        }
    }

    fn solver_with(nvars: usize, clauses: &[&[i32]]) -> Solver {
        let mut s = Solver::new();
        for _ in 0..nvars {
            s.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c.iter().map(|&i| lit(i)).collect();
            s.add_clause(&lits);
        }
        s
    }

    /// Checks a model against DIMACS-style clauses.
    fn satisfies(model: &[bool], clauses: &[&[i32]]) -> bool {
        clauses.iter().all(|c| {
            c.iter().any(|&i| {
                let v = (i.unsigned_abs() - 1) as usize;
                if i < 0 {
                    !model[v]
                } else {
                    model[v]
                }
            })
        })
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = solver_with(1, &[&[1]]);
        assert!(matches!(s.solve(), SatResult::Sat(m) if m[0]));
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve(), SatResult::Unsat);
        // Empty formula over no vars is SAT.
        let mut s = Solver::new();
        assert!(matches!(s.solve(), SatResult::Sat(_)));
    }

    #[test]
    fn watched_literal_propagation_chains() {
        // x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3) ∧ ... forces the whole chain true by
        // unit propagation alone (no decisions needed).
        let n = 50;
        let mut s = Solver::new();
        for _ in 0..n {
            s.new_var();
        }
        s.add_clause(&[Lit::pos(0)]);
        for v in 0..n - 1 {
            s.add_clause(&[Lit::neg(v as Var), Lit::pos(v as Var + 1)]);
        }
        match s.solve() {
            SatResult::Sat(m) => assert!(m.iter().all(|&b| b)),
            SatResult::Unsat => panic!("chain is satisfiable"),
        }
        assert_eq!(s.stats().decisions, 0, "pure propagation needs no decisions");
        assert!(s.stats().propagations >= n as u64);
    }

    #[test]
    fn watches_survive_clause_scanning() {
        // A clause with many literals: the watch must move along as
        // literals become false, and finally propagate the survivor.
        let n = 20;
        let mut s = Solver::new();
        for _ in 0..=n {
            s.new_var();
        }
        let big: Vec<Lit> = (0..=n).map(|v| Lit::pos(v as Var)).collect();
        s.add_clause(&big);
        for v in 0..n {
            s.add_clause(&[Lit::neg(v as Var)]);
        }
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(m[n], "last literal forced true");
                assert!(!m[..n].iter().any(|&b| b));
            }
            SatResult::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn first_uip_learns_the_textbook_clause() {
        // The classic conflict graph (Marques-Silva/Sakallah style):
        // decisions d1=x1@1, d2=x2@2, d3=x3@3; clauses
        //   c1: ¬x1 ∨ ¬x3 ∨ x4
        //   c2: ¬x4 ∨ x5
        //   c3: ¬x4 ∨ x6
        //   c4: ¬x5 ∨ ¬x6
        // Deciding x1, x2, x3 propagates x4 (c1), x5 (c2), x6 (c3) and c4
        // conflicts. The first UIP is x4: the learnt clause must be ¬x4
        // alone (x1/x3 antecedents sit behind the UIP), asserting at the
        // highest earlier level.
        let mut s = solver_with(
            6,
            &[&[-1, -3, 4], &[-4, 5], &[-4, 6], &[-5, -6]],
        );
        // Drive the decisions by hand through the internal API.
        for d in [lit(1), lit(2), lit(3)] {
            assert!(s.propagate().is_none());
            s.trail_lim.push(s.trail.len());
            s.enqueue(d, None);
        }
        let confl = s.propagate().expect("c4 must conflict");
        let (learnt, bt) = s.analyze(confl);
        assert_eq!(learnt, vec![lit(-4)], "first-UIP clause is ¬x4");
        assert_eq!(bt, 0, "unit learnt clause backjumps to the root");
        // And the full search agrees the formula is satisfiable (e.g. all
        // false).
        let mut s2 = solver_with(6, &[&[-1, -3, 4], &[-4, 5], &[-4, 6], &[-5, -6]]);
        assert!(matches!(s2.solve(), SatResult::Sat(_)));
    }

    #[test]
    fn minimization_removes_dominated_literals() {
        // Chain where an antecedent of the learnt clause is itself implied
        // by another learnt literal: recursive minimisation drops it.
        // Build: x1@1 decision; x2 <- x1 (c1); x3 <- x1,x2 (c2);
        // decision x4@2; conflict c3: ¬x3 ∨ ¬x4 ... needs a second level
        // literal in the clause; learnt = {¬x3?}. Simpler: assert the
        // search solves and minimisation counter is consistent.
        let mut s = solver_with(
            8,
            &[
                &[-1, 2],
                &[-1, -2, 3],
                &[-3, -4, 5],
                &[-5, 6],
                &[-6, -3, 7],
                &[-7, -5, 8],
                &[-8, -2],
            ],
        );
        match s.solve() {
            SatResult::Sat(m) => assert!(satisfies(
                &m,
                &[
                    &[-1, 2],
                    &[-1, -2, 3],
                    &[-3, -4, 5],
                    &[-5, 6],
                    &[-6, -3, 7],
                    &[-7, -5, 8],
                    &[-8, -2],
                ]
            )),
            SatResult::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // PHP(3,2): pigeons p in {1,2,3}, holes h in {1,2}; var(p,h) =
        // 2(p-1)+h. Each pigeon somewhere; no two share a hole.
        let v = |p: i32, h: i32| 2 * (p - 1) + h;
        let mut cs: Vec<Vec<i32>> = Vec::new();
        for p in 1..=3 {
            cs.push(vec![v(p, 1), v(p, 2)]);
        }
        for h in 1..=2 {
            for p1 in 1..=3 {
                for p2 in (p1 + 1)..=3 {
                    cs.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with(6, &refs);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts >= 1);
    }

    #[test]
    fn agrees_with_brute_force_on_random_3sat() {
        // Seeded random 3-SAT near the phase transition, checked against
        // exhaustive enumeration (8 vars -> 256 assignments).
        let nvars = 8usize;
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let nclauses = 20 + (round % 20);
            let mut cs: Vec<Vec<i32>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = (next() % nvars as u64) as i32 + 1;
                    let l = if next() & 1 == 0 { v } else { -v };
                    if !c.contains(&l) && !c.contains(&-l) {
                        c.push(l);
                    }
                }
                cs.push(c);
            }
            let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
            let brute = (0u32..1 << nvars).any(|bits| {
                let model: Vec<bool> = (0..nvars).map(|i| bits >> i & 1 == 1).collect();
                satisfies(&model, &refs)
            });
            let mut s = solver_with(nvars, &refs);
            match s.solve() {
                SatResult::Sat(m) => {
                    assert!(brute, "round {round}: solver SAT but brute force UNSAT");
                    assert!(satisfies(&m, &refs), "round {round}: bogus model");
                }
                SatResult::Unsat => {
                    assert!(!brute, "round {round}: solver UNSAT but brute force SAT");
                }
            }
        }
    }

    #[test]
    fn restarts_and_db_reduction_fire_on_hard_instances() {
        // PHP(6,5) is hard enough (with restart_base lowered) to exercise
        // restarts; learnt cap lowered so reduce_db runs too.
        let holes = 5i32;
        let pigeons = 6i32;
        let v = |p: i32, h: i32| holes * (p - 1) + h;
        let mut cs: Vec<Vec<i32>> = Vec::new();
        for p in 1..=pigeons {
            cs.push((1..=holes).map(|h| v(p, h)).collect());
        }
        for h in 1..=holes {
            for p1 in 1..=pigeons {
                for p2 in (p1 + 1)..=pigeons {
                    cs.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with((pigeons * holes) as usize, &refs);
        s.restart_base = 10;
        s.max_learnts = 20.0;
        assert_eq!(s.solve(), SatResult::Unsat);
        let st = s.stats();
        assert!(st.restarts >= 1, "expected at least one restart, got {}", st.restarts);
        assert!(st.deleted_clauses >= 1, "expected DB reduction to delete clauses");
    }

    #[test]
    fn solve_limited_respects_budget_and_resumes() {
        let holes = 6i32;
        let pigeons = 7i32;
        let v = |p: i32, h: i32| holes * (p - 1) + h;
        let mut cs: Vec<Vec<i32>> = Vec::new();
        for p in 1..=pigeons {
            cs.push((1..=holes).map(|h| v(p, h)).collect());
        }
        for h in 1..=holes {
            for p1 in 1..=pigeons {
                for p2 in (p1 + 1)..=pigeons {
                    cs.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with((pigeons * holes) as usize, &refs);
        let mut rounds = 0;
        let out = loop {
            rounds += 1;
            if let Some(r) = s.solve_limited(50) {
                break r;
            }
            assert!(rounds < 10_000, "PHP(7,6) should finish");
        };
        assert_eq!(out, SatResult::Unsat);
        assert!(rounds > 1, "budget of 50 conflicts must be exhausted at least once");
    }

    /// Seeded xorshift for the incremental A/B tests.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn random_3sat(next: &mut impl FnMut() -> u64, nvars: usize, nclauses: usize) -> Vec<Vec<i32>> {
        let mut cs = Vec::new();
        for _ in 0..nclauses {
            let mut c: Vec<i32> = Vec::new();
            while c.len() < 3 {
                let v = (next() % nvars as u64) as i32 + 1;
                let l = if next() & 1 == 0 { v } else { -v };
                if !c.contains(&l) && !c.contains(&-l) {
                    c.push(l);
                }
            }
            cs.push(c);
        }
        cs
    }

    #[test]
    fn solve_assuming_agrees_with_oneshot_on_random_cnfs() {
        // One persistent solver answers a sequence of assumption queries;
        // each answer must match a fresh one-shot solver given the same
        // clauses plus the assumptions as units. This exercises clause-DB
        // and activity retention across calls on both SAT and UNSAT
        // queries.
        let mut next = rng(0xD1B54A32D192ED03);
        for round in 0..20 {
            let nvars = 10usize;
            let cs = random_3sat(&mut next, nvars, 34 + (round % 12));
            let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
            let mut inc = solver_with(nvars, &refs);
            for query in 0..8 {
                let mut assumps: Vec<Lit> = Vec::new();
                for _ in 0..(1 + next() % 3) {
                    let v = (next() % nvars as u64) as i32 + 1;
                    let l = if next() & 1 == 0 { v } else { -v };
                    if !assumps.contains(&lit(l)) && !assumps.contains(&lit(-l)) {
                        assumps.push(lit(l));
                    }
                }
                let mut oneshot = solver_with(nvars, &refs);
                for &a in &assumps {
                    oneshot.add_clause(&[a]);
                }
                let want_sat = matches!(oneshot.solve(), SatResult::Sat(_));
                match inc.solve_assuming(&assumps) {
                    SatResult::Sat(m) => {
                        assert!(want_sat, "round {round} query {query}: incremental SAT, oneshot UNSAT");
                        assert!(satisfies(&m, &refs), "round {round} query {query}: bogus model");
                        for &a in &assumps {
                            let v = a.var() as usize;
                            assert_eq!(m[v], !a.is_neg(), "model violates assumption {a:?}");
                        }
                    }
                    SatResult::Unsat => {
                        assert!(!want_sat, "round {round} query {query}: incremental UNSAT, oneshot SAT");
                    }
                }
            }
        }
    }

    #[test]
    fn assumption_core_is_a_failing_subset() {
        // (¬a ∨ ¬b) with assumptions [a, b, c]: the core must be a subset
        // of the assumptions that is itself sufficient for UNSAT — and c
        // (irrelevant) must not be required.
        let mut s = solver_with(3, &[&[-1, -2]]);
        let assumps = [lit(1), lit(2), lit(3)];
        assert_eq!(s.solve_assuming(&assumps), SatResult::Unsat);
        let core: Vec<Lit> = s.assumption_core().to_vec();
        assert!(!core.is_empty(), "assumption failure must produce a core");
        for l in &core {
            assert!(assumps.contains(l), "core literal {l:?} was never assumed");
        }
        // Replaying the core as units reproduces UNSAT.
        let mut replay = solver_with(3, &[&[-1, -2]]);
        for &l in &core {
            replay.add_clause(&[l]);
        }
        assert_eq!(replay.solve(), SatResult::Unsat);
        // The solver remains usable: dropping the bad assumption is SAT.
        assert!(matches!(s.solve_assuming(&[lit(1), lit(3)]), SatResult::Sat(_)));
        // Unconditional UNSAT reports an empty core.
        let mut s = solver_with(1, &[&[1], &[-1]]);
        assert_eq!(s.solve_assuming(&[Lit::pos(0)]), SatResult::Unsat);
        assert!(s.assumption_core().is_empty(), "root UNSAT is not the assumptions' fault");
    }

    #[test]
    fn assumption_cores_on_random_unsat_queries() {
        // Fuzz: whenever an assumption query fails, its reported core must
        // reproduce UNSAT as unit clauses on a fresh solver.
        let mut next = rng(0x9E3779B97F4A7C15);
        let mut failures = 0;
        for _ in 0..30 {
            let nvars = 9usize;
            let cs = random_3sat(&mut next, nvars, 40);
            let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
            let mut s = solver_with(nvars, &refs);
            for _ in 0..6 {
                let mut assumps: Vec<Lit> = Vec::new();
                for _ in 0..4 {
                    let v = (next() % nvars as u64) as i32 + 1;
                    let l = if next() & 1 == 0 { v } else { -v };
                    if !assumps.contains(&lit(l)) && !assumps.contains(&lit(-l)) {
                        assumps.push(lit(l));
                    }
                }
                if s.solve_assuming(&assumps) == SatResult::Unsat && !s.assumption_core().is_empty()
                {
                    failures += 1;
                    let core = s.assumption_core().to_vec();
                    let mut replay = solver_with(nvars, &refs);
                    for &l in &core {
                        replay.add_clause(&[l]);
                    }
                    assert_eq!(replay.solve(), SatResult::Unsat, "core does not reproduce UNSAT");
                }
            }
        }
        assert!(failures > 0, "fuzz never produced an assumption failure");
    }

    #[test]
    fn activation_literals_retire_clause_groups() {
        // The sweep pattern: clause groups guarded by activation literals,
        // queried one at a time, then retired with a unit. Earlier groups
        // must not leak into later queries.
        let mut s = Solver::new();
        let x = s.new_var();
        let acts: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        // Group i asserts x == (i is even), under act_i.
        for (i, &a) in acts.iter().enumerate() {
            let want = if i % 2 == 0 { Lit::pos(x) } else { Lit::neg(x) };
            s.add_clause(&[Lit::neg(a), want]);
        }
        for (i, &a) in acts.iter().enumerate() {
            match s.solve_assuming(&[Lit::pos(a)]) {
                SatResult::Sat(m) => assert_eq!(m[x as usize], i % 2 == 0, "group {i}"),
                SatResult::Unsat => panic!("group {i} alone is satisfiable"),
            }
            // Retire under a live-trail-free contract: add_clause cancels.
            assert!(s.add_clause(&[Lit::neg(a)]));
        }
        // With every group retired, x is unconstrained.
        assert!(matches!(s.solve(), SatResult::Sat(_)));
    }

    #[test]
    fn solve_limited_budget_is_per_call() {
        // Each solve_limited call gets a fresh budget: the per-call
        // conflict delta must never exceed the budget, over many calls.
        let holes = 6i32;
        let pigeons = 7i32;
        let v = |p: i32, h: i32| holes * (p - 1) + h;
        let mut cs: Vec<Vec<i32>> = Vec::new();
        for p in 1..=pigeons {
            cs.push((1..=holes).map(|h| v(p, h)).collect());
        }
        for h in 1..=holes {
            for p1 in 1..=pigeons {
                for p2 in (p1 + 1)..=pigeons {
                    cs.push(vec![-v(p1, h), -v(p2, h)]);
                }
            }
        }
        let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
        let mut s = solver_with((pigeons * holes) as usize, &refs);
        let budget = 50u64;
        let mut rounds = 0u64;
        let out = loop {
            rounds += 1;
            let before = s.stats().conflicts;
            let r = s.solve_limited(budget);
            let spent = s.stats().conflicts - before;
            assert!(
                spent <= budget,
                "round {rounds}: call spent {spent} conflicts on a budget of {budget}"
            );
            if r.is_none() {
                assert_eq!(spent, budget, "an exhausted call spends its whole budget");
            }
            if let Some(r) = r {
                break r;
            }
            assert!(rounds < 10_000, "PHP(7,6) should finish");
        };
        assert_eq!(out, SatResult::Unsat);
        assert!(rounds > 2, "budget {budget} must be exhausted several times");
    }

    #[test]
    fn clause_addition_is_safe_under_a_live_trail() {
        // Exhaust a budget mid-search (live trail), then add clauses and
        // keep solving: the answer must match a from-scratch solver.
        let mut next = rng(0xA0761D6478BD642F);
        for round in 0..10 {
            let nvars = 12usize;
            let base = random_3sat(&mut next, nvars, 30);
            let extra = random_3sat(&mut next, nvars, 25);
            let base_refs: Vec<&[i32]> = base.iter().map(|c| c.as_slice()).collect();
            let mut s = solver_with(nvars, &base_refs);
            // Leave a live trail behind (budget 1 stops mid-search; if the
            // instance is too easy the trail is just empty).
            let _ = s.solve_limited(1);
            let extra_lits: Vec<Vec<Lit>> = extra
                .iter()
                .map(|c| c.iter().map(|&i| lit(i)).collect())
                .collect();
            s.push_clauses(&extra_lits);
            let mut all = base.clone();
            all.extend(extra.iter().cloned());
            let all_refs: Vec<&[i32]> = all.iter().map(|c| c.as_slice()).collect();
            let mut fresh = solver_with(nvars, &all_refs);
            let want_sat = matches!(fresh.solve(), SatResult::Sat(_));
            match s.solve() {
                SatResult::Sat(m) => {
                    assert!(want_sat, "round {round}: incremental SAT, fresh UNSAT");
                    assert!(satisfies(&m, &all_refs), "round {round}: bogus model");
                }
                SatResult::Unsat => assert!(!want_sat, "round {round}: incremental UNSAT, fresh SAT"),
            }
        }
    }

    /// The state a compaction must leave behind: every watch names a live
    /// clause or the tombstone, and each live clause is watched exactly
    /// on its two first literals; every reason is live with its implied
    /// literal at slot 0; every learnt is live; and the arena holds the
    /// tombstone and the live clauses' words, nothing else.
    fn assert_compacted(s: &Solver) {
        let mut lists: BTreeMap<ClauseRef, Vec<usize>> = BTreeMap::new();
        for (li, ws) in s.watches.iter().enumerate() {
            for w in ws.iter().filter(|w| w.clause != TOMBSTONE) {
                assert!(!s.arena.is_deleted(w.clause), "watch names deleted clause {}", w.clause);
                lists.entry(w.clause).or_default().push(li);
            }
        }
        for (&cr, got) in &mut lists {
            let mut want = vec![(!s.arena.lit(cr, 0)).index(), (!s.arena.lit(cr, 1)).index()];
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(*got, want, "clause {cr} is not watched on its slots 0 and 1");
        }
        for (v, r) in s.reason.iter().enumerate() {
            if let Some(cr) = *r {
                assert!(lists.contains_key(&cr), "reason {cr} of x{v} is not a live clause");
                let implied = s.arena.lit(cr, 0);
                assert_eq!(implied.var() as usize, v, "reason {cr} does not imply x{v} at slot 0");
                assert_eq!(s.value_lit(implied), L_TRUE);
            }
        }
        for &cr in &s.learnts {
            assert!(lists.contains_key(&cr) && s.arena.is_learnt(cr), "learnt {cr} is not live");
        }
        let problem = lists.keys().filter(|&&cr| !s.arena.is_learnt(cr)).count();
        assert_eq!(problem, s.num_problem);
        assert_eq!(lists.len(), s.num_problem + s.learnts.len());
        let live_words: usize = lists.keys().map(|&cr| HEADER_WORDS + s.arena.len(cr)).sum();
        assert_eq!(s.arena.words.len(), HEADER_WORDS + live_words, "deleted words survived");
        assert_eq!(s.arena.wasted, 0);
    }

    /// Brute-force satisfiability of a CNF over at most 24 variables.
    fn brute_force_sat(nvars: usize, clauses: &[Vec<i32>]) -> bool {
        let masks: Vec<(u32, u32)> = clauses
            .iter()
            .map(|c| {
                c.iter().fold((0, 0), |(pos, neg), &i| {
                    let bit = 1u32 << (i.unsigned_abs() - 1);
                    if i < 0 {
                        (pos, neg | bit)
                    } else {
                        (pos | bit, neg)
                    }
                })
            })
            .collect();
        (0u32..1 << nvars).any(|a| masks.iter().all(|&(pos, neg)| a & pos != 0 || !a & neg != 0))
    }

    #[test]
    fn compaction_keeps_every_reference_live_and_frees_deleted_words() {
        // A pigeonhole instance and random 3-SAT near the threshold, over
        // 20-22 variables, solved in slices of two conflicts. Between
        // slices (trail still live) the learnt DB is reduced and the arena
        // compacted by force; the search must then resume on the
        // compacted arena and agree with brute force.
        let php = |pigeons: i32, holes: i32| {
            let v = |p: i32, h: i32| holes * (p - 1) + h;
            let mut cs: Vec<Vec<i32>> =
                (1..=pigeons).map(|p| (1..=holes).map(|h| v(p, h)).collect()).collect();
            for h in 1..=holes {
                for p1 in 1..=pigeons {
                    for p2 in (p1 + 1)..=pigeons {
                        cs.push(vec![-v(p1, h), -v(p2, h)]);
                    }
                }
            }
            cs
        };
        let mut next = rng(0xC0FFEE123456789);
        let mut instances = vec![php(5, 4)];
        instances.extend((0..12).map(|_| random_3sat(&mut next, 22, 95)));
        let (mut compactions, mut reclaimed, mut tombstoned) = (0u64, 0usize, 0usize);
        for (n, cs) in instances.iter().enumerate() {
            let refs: Vec<&[i32]> = cs.iter().map(|c| c.as_slice()).collect();
            let nvars = if n == 0 { 20 } else { 22 };
            let mut s = solver_with(nvars, &refs);
            s.restart_base = 10;
            let out = loop {
                if let Some(r) = s.solve_limited(2) {
                    break r;
                }
                s.reduce_db();
                let before = s.arena.words.len();
                s.compact();
                compactions += 1;
                reclaimed += before - s.arena.words.len();
                tombstoned += s.watches.iter().flatten().filter(|w| w.clause == TOMBSTONE).count();
                assert_compacted(&s);
            };
            let want = brute_force_sat(nvars, cs);
            match out {
                SatResult::Sat(m) => {
                    assert!(want, "instance {n}: solver SAT but brute force UNSAT");
                    assert!(satisfies(&m, &refs), "instance {n}: bogus model");
                }
                SatResult::Unsat => assert!(!want, "instance {n}: solver UNSAT but brute force SAT"),
            }
        }
        assert!(compactions >= 20, "only {compactions} compactions ran");
        assert!(reclaimed > 0, "no compaction reclaimed a deleted clause");
        assert!(tombstoned > 0, "no watch was forwarded to the tombstone");
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }
}
