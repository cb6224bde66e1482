//! Incremental width-sweep proving: one CDCL session per design family.
//!
//! The per-(design, width) prove path pays a cold solver, a fresh Tseitin
//! encoding, and re-learns clauses its width-(w−1) sibling already derived.
//! This module amortizes the family three ways:
//!
//! 1. **One session AIG with shared inputs.** Truncated arithmetic is
//!    width-monotone: the low result bits of the width-`w` cone are the
//!    *same hash-consed nodes* as the width-`(w+1)` cone's, so encoding
//!    width `w+1` after `w` only pays for the new top slice
//!    ([`crate::cnf::CnfFrame`] tracks what is already in the solver).
//! 2. **Assumption-based retirement.** Each width's root assertion is
//!    guarded by a fresh activation literal and solved with
//!    [`chicala_sat::Solver::solve_assuming`]; retiring the width is one
//!    unit clause. Definition clauses are valid implications and stay
//!    forever; learnt clauses that depended on a guarded root carry its
//!    `¬act` literal and die with it, so exactly the width-independent
//!    lineage survives — together with variable activities and phases.
//! 3. **Proven-root lemmas.** A width proved UNSAT means the definition
//!    clauses entail its root; the root is asserted as a unit lemma, which
//!    hands the width-`(w+1)` query the whole low-bit equivalence for free.
//!
//! [`prove_net_sweep`] drives a netlist family through the session and
//! guarantees **byte-identical results** to the one-shot
//! [`prove_net`] path: proved widths are reported with the resolved
//! backend tag, and any counterexample is re-derived by the one-shot
//! engine itself (the session verdict only routes). [`prove_net_sweep_scheduled`]
//! adds the `par::StealPool` race: widths below the `Auto` crossover are
//! claimed by whichever of the BDD pool job or the ascending SAT session
//! gets there first; the loser is cancelled. Either way the reported bytes
//! are the same, so worker count never changes a report.

use crate::aig::{Aig, AigNode, AigRef, AIG_FALSE, AIG_TRUE};
use crate::check::{prove_net, Backend, OptProfile, ProveResult};
use crate::cnf::CnfFrame;
use crate::netlist::{Gate, Net, Netlist};
use chicala_sat::{Lit, SatResult, Solver};
use chicala_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-width session telemetry (the warm-vs-cold story of one sweep).
#[derive(Clone, Debug, Default)]
pub struct WidthProbe {
    /// The design width this probe covers.
    pub width: u64,
    /// The root folded to a constant at lowering; no solving happened.
    pub folded: bool,
    /// Clauses newly emitted for this width's cone.
    pub new_clauses: u64,
    /// Clauses already resident from earlier widths that this cone reuses.
    pub reused_clauses: u64,
    /// Conflicts the solver spent on this width.
    pub conflicts: u64,
    /// Wall-clock nanoseconds of the assumption solve.
    pub solve_ns: u64,
    /// Whether the proved root was asserted as a lemma for later widths.
    pub lemma: bool,
}

/// Aggregate statistics of one incremental sweep session.
#[derive(Clone, Debug, Default)]
pub struct SweepStats {
    /// Widths driven through the session.
    pub widths: u64,
    /// Widths closed structurally (constant root, no SAT call).
    pub folded: u64,
    /// Widths that reached the incremental solver.
    pub sat_calls: u64,
    /// Total clauses emitted across the session.
    pub new_clauses: u64,
    /// Total clause reuse across the session (see [`WidthProbe`]).
    pub reused_clauses: u64,
    /// Proven roots asserted as unit lemmas.
    pub lemmas: u64,
    /// Sweep-vs-oneshot disagreements caught by the A/B tripwire. Always 0
    /// for a sound session; the injected-bug drill makes it fire.
    pub divergences: u64,
    /// Per-width probes in sweep order.
    pub per_width: Vec<WidthProbe>,
}

/// The session's raw verdict for one width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepVerdict {
    /// The root is valid at this width.
    Proved,
    /// A falsifying assignment over the session AIG's input *nodes*
    /// (absent nodes are don't-cares).
    Counterexample(BTreeMap<u32, bool>),
}

/// An incremental prover over one growing session [`Aig`].
///
/// The caller builds each width's property cone into [`IncrementalProver::aig`]
/// (sharing input nodes across widths wherever the family allows) and asks
/// [`IncrementalProver::prove_root`] per width, ascending. All solver state
/// persists between calls.
pub struct IncrementalProver {
    /// The session graph; build width cones here with shared inputs.
    pub aig: Aig,
    solver: Solver,
    frame: CnfFrame,
    /// Session statistics, updated by every [`IncrementalProver::prove_root`].
    pub stats: SweepStats,
    drill_unguarded: bool,
}

impl Default for IncrementalProver {
    fn default() -> IncrementalProver {
        IncrementalProver::new()
    }
}

impl IncrementalProver {
    /// A fresh session.
    pub fn new() -> IncrementalProver {
        IncrementalProver {
            aig: Aig::new(),
            solver: Solver::new(),
            frame: CnfFrame::new(),
            stats: SweepStats::default(),
            drill_unguarded: false,
        }
    }

    /// **Soundness drill only**: asserts width roots *without* their
    /// activation guard, deliberately retaining a width-dependent clause
    /// across retirement. A later falsifiable width is then wrongly
    /// reported proved — which the sweep-vs-oneshot A/B must catch. Never
    /// enable outside tests.
    pub fn set_drill_unguarded(&mut self, on: bool) {
        self.drill_unguarded = on;
    }

    /// Proves that the edge `root` (built in [`IncrementalProver::aig`]) is
    /// constant-true at `width`, reusing all prior session state.
    pub fn prove_root(&mut self, width: u64, root: AigRef) -> SweepVerdict {
        self.stats.widths += 1;
        let mut probe = WidthProbe { width, ..WidthProbe::default() };
        if root == AIG_TRUE {
            self.stats.folded += 1;
            probe.folded = true;
            self.stats.per_width.push(probe);
            return SweepVerdict::Proved;
        }
        if root == AIG_FALSE {
            self.stats.folded += 1;
            probe.folded = true;
            self.stats.per_width.push(probe);
            return SweepVerdict::Counterexample(BTreeMap::new());
        }
        // Encode the cone of ¬root (we search for a counterexample); only
        // the slice new to this width costs clauses.
        let (cex_lit, fstats) = self.frame.encode(&self.aig, !root, &mut self.solver);
        probe.new_clauses = fstats.new_clauses;
        probe.reused_clauses = fstats.reused_clauses;
        self.stats.new_clauses += fstats.new_clauses;
        self.stats.reused_clauses += fstats.reused_clauses;
        telemetry::counter("sweep.new_clauses", fstats.new_clauses);
        telemetry::counter("sweep.reused_clauses", fstats.reused_clauses);
        let act = self.solver.new_var();
        if self.drill_unguarded {
            // Drill: the root assertion outlives the width. Unsound on
            // purpose; see `set_drill_unguarded`.
            self.solver.add_clause(&[cex_lit]);
        } else {
            self.solver.add_clause(&[Lit::neg(act), cex_lit]);
        }
        self.stats.sat_calls += 1;
        let before = self.solver.stats().conflicts;
        let start = Instant::now();
        let result = self.solver.solve_assuming(&[Lit::pos(act)]);
        probe.solve_ns = start.elapsed().as_nanos() as u64;
        probe.conflicts = self.solver.stats().conflicts - before;
        telemetry::record("sweep.solve_ns", probe.solve_ns);
        telemetry::record("sweep.conflicts", probe.conflicts);
        let verdict = match result {
            SatResult::Unsat => {
                // Retire the width and keep its theorem: UNSAT of
                // defs ∧ ¬root under act means the (permanent, valid)
                // definition clauses entail root — asserting it is sound
                // and primes every later width that contains this root as
                // a structural prefix.
                self.solver.add_clause(&[Lit::neg(act)]);
                if !self.drill_unguarded {
                    // The ¬root query only emitted the refutation-side
                    // polarities; top up the assertion side so the lemma
                    // unit-propagates down the shared cone (pinning every
                    // low-bit equivalence for the next width).
                    let (root_lit, topup) = self.frame.encode(&self.aig, root, &mut self.solver);
                    self.stats.new_clauses += topup.new_clauses;
                    probe.new_clauses += topup.new_clauses;
                    self.solver.add_clause(&[root_lit]);
                    self.stats.lemmas += 1;
                    probe.lemma = true;
                }
                SweepVerdict::Proved
            }
            SatResult::Sat(model) => {
                self.solver.add_clause(&[Lit::neg(act)]);
                let mut inputs = BTreeMap::new();
                for i in 0..self.aig.len() as u32 {
                    if let AigNode::Input = self.aig.node(AigRef::from_node(i)) {
                        if let Some(v) = self.frame.var_of(i) {
                            inputs.insert(i, model[v as usize]);
                        }
                    }
                }
                SweepVerdict::Counterexample(inputs)
            }
        };
        self.stats.per_width.push(probe);
        verdict
    }
}

/// One width of a sweepable netlist family: the property net `root` must
/// be constant-true over `nl`'s inputs. Families that share one
/// hash-consed kit across widths (see
/// `conformance::formal_gate_obligation_shared`) get real incremental
/// reuse; families with per-width kits still get the session solver.
pub struct SweepItem<'a> {
    /// The netlist holding this width's cone (shared or per-width).
    pub nl: &'a Netlist,
    /// The single-bit property net.
    pub root: Net,
    /// The design width (drives the `Auto` backend crossover).
    pub width: u64,
    /// BDD variable order for the small-width engine.
    pub var_order: Vec<Net>,
}

impl SweepItem<'_> {
    /// The one-shot [`prove_net`] result for this width: the bytes every
    /// sweep outcome must equal.
    fn oneshot(&self, backend: Backend) -> ProveResult {
        prove_net(self.nl, self.root, backend, self.width as usize, &self.var_order)
    }
}

/// One width's outcome: byte-identical to what `prove_net` returns
/// for the same obligation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepOutcome {
    /// The design width.
    pub width: u64,
    /// The (one-shot-identical) prove result.
    pub result: ProveResult,
}

/// A completed sweep: per-width outcomes plus session statistics.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Outcomes in the caller's item order.
    pub outcomes: Vec<SweepOutcome>,
    /// Session statistics.
    pub stats: SweepStats,
}

impl SweepReport {
    /// Whether every width was proved.
    pub fn all_proved(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_proved())
    }
}

/// Incremental lowering state: a dense net → edge map over one shared
/// kit, so each width's cone only lowers the nets the previous widths
/// have not.
struct LowerSession {
    map: Vec<AigRef>,
    done: Vec<bool>,
    inputs: BTreeMap<Net, AigRef>,
}

impl LowerSession {
    fn new() -> LowerSession {
        LowerSession { map: Vec::new(), done: Vec::new(), inputs: BTreeMap::new() }
    }

    fn lower(&mut self, nl: &Netlist, root: Net, aig: &mut Aig) -> AigRef {
        if self.map.len() < nl.len() {
            self.map.resize(nl.len(), AIG_FALSE);
            self.done.resize(nl.len(), false);
        }
        // Collect the not-yet-lowered cone; hash-consed net ids are dense
        // and topological, so ascending order is emission order.
        let mut order: Vec<u32> = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let i = n.0 as usize;
            if self.done[i] {
                continue;
            }
            self.done[i] = true;
            order.push(n.0);
            match nl.gate(n) {
                Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                    stack.push(a);
                    stack.push(b);
                }
                Gate::Not(a) => stack.push(a),
                Gate::Const(_) | Gate::Input => {}
            }
        }
        order.sort_unstable();
        for i in order {
            let net = Net(i);
            let r = match nl.gate(net) {
                Gate::Const(b) => {
                    if b {
                        AIG_TRUE
                    } else {
                        AIG_FALSE
                    }
                }
                Gate::Input => {
                    let r = aig.input();
                    self.inputs.insert(net, r);
                    r
                }
                Gate::And(a, b) => {
                    let (x, y) = (self.map[a.0 as usize], self.map[b.0 as usize]);
                    aig.and(x, y)
                }
                Gate::Or(a, b) => {
                    let (x, y) = (self.map[a.0 as usize], self.map[b.0 as usize]);
                    aig.or(x, y)
                }
                Gate::Xor(a, b) => {
                    let (x, y) = (self.map[a.0 as usize], self.map[b.0 as usize]);
                    aig.xor(x, y)
                }
                Gate::Not(a) => !self.map[a.0 as usize],
            };
            self.map[i as usize] = r;
        }
        self.map[root.0 as usize]
    }
}

/// The `ProveSweep` entry point: proves a whole width family through one
/// incremental session, with results **byte-identical** to calling
/// [`prove_net`] per width.
///
/// Items should be ascending in width (the session's reuse is built for
/// that order). Consecutive items sharing the *same* `&Netlist` reuse one
/// lowering session (real structural reuse); a change of kit starts a
/// fresh lowering map but keeps the solver session.
///
/// `verify_ab` additionally re-proves every width one-shot and counts any
/// disagreement in [`SweepStats::divergences`], reporting the one-shot
/// result — this is the A/B tripwire the drill and CI rely on.
pub fn prove_net_sweep(items: &[SweepItem<'_>], backend: Backend, verify_ab: bool) -> SweepReport {
    prove_sweep_inner(items, backend, verify_ab, false)
}

/// [`prove_net_sweep`] with the injected-bug drill enabled (test use
/// only): width roots are retained unguarded, so a later SAT width is
/// wrongly reported proved and `verify_ab` must record a divergence.
pub fn prove_net_sweep_drill(
    items: &[SweepItem<'_>],
    backend: Backend,
    verify_ab: bool,
) -> SweepReport {
    prove_sweep_inner(items, backend, verify_ab, true)
}

fn prove_sweep_inner(
    items: &[SweepItem<'_>],
    backend: Backend,
    verify_ab: bool,
    drill: bool,
) -> SweepReport {
    let _span = telemetry::span!("prove_net_sweep");
    let mut session = IncrementalProver::new();
    session.set_drill_unguarded(drill);
    let mut lower = LowerSession::new();
    let mut last_kit: *const Netlist = std::ptr::null();
    let mut outcomes = Vec::with_capacity(items.len());
    for item in items {
        let resolved = backend.resolve(item.width as usize);
        let result = if resolved == Backend::Bdd {
            // Below the crossover the one-shot BDD engine is already the
            // cheapest path and its bytes are the contract; the session
            // never sees the width, so its stats do not count it.
            item.oneshot(backend)
        } else {
            if !std::ptr::eq(last_kit, item.nl) {
                lower = LowerSession::new();
                last_kit = item.nl;
            }
            let aroot = lower.lower(item.nl, item.root, &mut session.aig);
            match session.prove_root(item.width, aroot) {
                SweepVerdict::Proved => ProveResult::Proved { backend: resolved },
                SweepVerdict::Counterexample(_) => {
                    // Byte-identity: the one-shot engine derives the
                    // reported counterexample itself.
                    let oneshot = item.oneshot(backend);
                    if oneshot.is_proved() {
                        // Session found a spurious model: soundness bug.
                        session.stats.divergences += 1;
                        telemetry::counter("sweep.divergences", 1);
                    }
                    oneshot
                }
            }
        };
        let result = if verify_ab {
            let oneshot = item.oneshot(backend);
            if oneshot != result {
                session.stats.divergences += 1;
                telemetry::counter("sweep.divergences", 1);
            }
            oneshot
        } else {
            result
        };
        outcomes.push(SweepOutcome { width: item.width, result });
    }
    SweepReport { outcomes, stats: session.stats }
}

/// The process-wide sweep scheduler pool, sized like every other pool by
/// `CHICALA_WORKERS` (or available parallelism).
pub fn sweep_pool() -> &'static chicala_par::StealPool {
    static POOL: OnceLock<chicala_par::StealPool> = OnceLock::new();
    POOL.get_or_init(chicala_par::StealPool::with_default_workers)
}

/// [`prove_net_sweep`] scheduled through a [`chicala_par::StealPool`]:
/// widths at or below the `Auto` crossover are raced — a BDD pool job and
/// the ascending SAT session both try to claim each one, and the loser is
/// cancelled (never runs). Because proved widths are tag-normalized and
/// counterexamples are always re-derived one-shot, the report is
/// byte-identical to [`prove_net`] per width at any worker count.
/// [`SweepStats`] counts only the widths the session claimed, so a raced
/// width lands in `widths` at most once.
///
/// Jobs need owned data, so the small-width netlists are cloned into the
/// race; at crossover widths (≤ 6) the kits are tiny. `_opt` does nothing
/// (see [`OptProfile`]).
pub fn prove_net_sweep_scheduled(
    pool: &chicala_par::StealPool,
    items: &[SweepItem<'_>],
    backend: Backend,
    _opt: OptProfile,
    verify_ab: bool,
) -> SweepReport {
    let _span = telemetry::span!("prove_net_sweep_scheduled");
    // Race claims: one per item, first claimant proves the width.
    let claims: Arc<Vec<AtomicBool>> =
        Arc::new(items.iter().map(|_| AtomicBool::new(false)).collect());
    let mut handles: Vec<Option<chicala_par::JobHandle<Option<ProveResult>>>> =
        Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        if backend.resolve(item.width as usize) != Backend::Bdd {
            handles.push(None);
            continue;
        }
        let claims = Arc::clone(&claims);
        let nl: Netlist = (*item.nl).clone();
        let (root, width, var_order) = (item.root, item.width, item.var_order.clone());
        handles.push(Some(pool.submit(10, move || {
            if claims[i].swap(true, Ordering::SeqCst) {
                return None; // the session got here first: cancelled
            }
            Some(prove_net(&nl, root, backend, width as usize, &var_order))
        })));
    }
    // The SAT session runs on the caller thread, ascending; it claims any
    // crossover width the BDD job has not started yet.
    let mut session = IncrementalProver::new();
    let mut lower = LowerSession::new();
    let mut last_kit: *const Netlist = std::ptr::null();
    let mut inline: Vec<Option<ProveResult>> = vec![None; items.len()];
    for (i, item) in items.iter().enumerate() {
        let resolved = backend.resolve(item.width as usize);
        if resolved == Backend::Bdd && claims[i].swap(true, Ordering::SeqCst) {
            continue; // BDD job owns it
        }
        if !std::ptr::eq(last_kit, item.nl) {
            lower = LowerSession::new();
            last_kit = item.nl;
        }
        let aroot = lower.lower(item.nl, item.root, &mut session.aig);
        let result = match session.prove_root(item.width, aroot) {
            SweepVerdict::Proved => ProveResult::Proved { backend: resolved },
            SweepVerdict::Counterexample(_) => {
                let oneshot = item.oneshot(backend);
                if oneshot.is_proved() {
                    session.stats.divergences += 1;
                    telemetry::counter("sweep.divergences", 1);
                }
                oneshot
            }
        };
        inline[i] = Some(result);
    }
    let mut outcomes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let from_race = handles[i].as_ref().and_then(|h| h.join());
        let result = match (inline[i].take(), from_race) {
            (Some(r), _) => r,
            (None, Some(r)) => r,
            (None, None) => unreachable!("every width has exactly one claimant"),
        };
        let result = if verify_ab {
            let oneshot = item.oneshot(backend);
            if oneshot != result {
                session.stats.divergences += 1;
            }
            oneshot
        } else {
            result
        };
        outcomes.push(SweepOutcome { width: item.width, result });
    }
    SweepReport { outcomes, stats: session.stats }
}

/// Hard arithmetic width families for the sweep bench and fuzz tests:
/// identities that strash does **not** fold (the two sides build their
/// result through structurally different carry networks), so the CDCL
/// engine does real, superlinearly growing work per width — exactly the
/// shape the incremental session amortizes. The multiplier identities
/// grow superexponentially (the new top column dominates, capping the
/// family-level speedup near the top width's warm/cold ratio); the adder
/// identities grow gently, so pinning the low bits collapses each new
/// width to a local carry argument and the sweep wins asymptotically.
pub mod family {
    use super::*;

    /// Ripple full-adder sum of two bit vectors, truncated to `w` bits.
    pub fn add_bits(g: &mut Aig, a: &[AigRef], b: &[AigRef], w: usize) -> Vec<AigRef> {
        let mut out = Vec::with_capacity(w);
        let mut carry = AIG_FALSE;
        for i in 0..w {
            let ai = a.get(i).copied().unwrap_or(AIG_FALSE);
            let bi = b.get(i).copied().unwrap_or(AIG_FALSE);
            let s1 = g.xor(ai, bi);
            out.push(g.xor(s1, carry));
            let c1 = g.and(ai, bi);
            let c2 = g.and(s1, carry);
            carry = g.or(c1, c2);
        }
        out
    }

    /// Shift-add product of two bit vectors, truncated to `w` bits.
    pub fn mul_bits(g: &mut Aig, a: &[AigRef], b: &[AigRef], w: usize) -> Vec<AigRef> {
        let mut acc = vec![AIG_FALSE; w];
        for (i, &bi) in b.iter().enumerate().take(w) {
            let mut carry = AIG_FALSE;
            for j in i..w {
                let pp = g.and(a[j - i], bi);
                let s1 = g.xor(acc[j], pp);
                let sum = g.xor(s1, carry);
                let c1 = g.and(acc[j], pp);
                let c2 = g.and(s1, carry);
                carry = g.or(c1, c2);
                acc[j] = sum;
            }
        }
        acc
    }

    /// Conjunction of per-bit equivalences, built low bit first so the
    /// width-`w` miter is a structural prefix of the width-`(w+1)` one.
    pub fn equal_bits(g: &mut Aig, xs: &[AigRef], ys: &[AigRef]) -> AigRef {
        let mut m = AIG_TRUE;
        for (&x, &y) in xs.iter().zip(ys) {
            let eq = g.xor(x, y);
            m = g.and(m, !eq);
        }
        m
    }

    /// Commutativity miter: `a*b == b*a` at width `w` (mod 2^w).
    pub fn mulcomm_root(g: &mut Aig, a: &[AigRef], b: &[AigRef], w: usize) -> AigRef {
        let ab = mul_bits(g, &a[..w], &b[..w], w);
        let ba = mul_bits(g, &b[..w], &a[..w], w);
        equal_bits(g, &ab, &ba)
    }

    /// Distributivity miter: `(a+b)*c == a*c + b*c` at width `w` (mod 2^w).
    pub fn muldist_root(g: &mut Aig, a: &[AigRef], b: &[AigRef], c: &[AigRef], w: usize) -> AigRef {
        let s = add_bits(g, &a[..w], &b[..w], w);
        let lhs = mul_bits(g, &s, &c[..w], w);
        let ac = mul_bits(g, &a[..w], &c[..w], w);
        let bc = mul_bits(g, &b[..w], &c[..w], w);
        let rhs = add_bits(g, &ac, &bc, w);
        equal_bits(g, &lhs, &rhs)
    }

    /// Increment miter: `a*(b+1) == a*b + a` at width `w` (mod 2^w).
    pub fn mulinc_root(g: &mut Aig, a: &[AigRef], b: &[AigRef], w: usize) -> AigRef {
        let one: Vec<AigRef> = std::iter::once(AIG_TRUE)
            .chain(std::iter::repeat(AIG_FALSE))
            .take(w)
            .collect();
        let b1 = add_bits(g, &b[..w], &one, w);
        let lhs = mul_bits(g, &a[..w], &b1, w);
        let ab = mul_bits(g, &a[..w], &b[..w], w);
        let rhs = add_bits(g, &ab, &a[..w], w);
        equal_bits(g, &lhs, &rhs)
    }

    /// Associativity miter: `(a+b)+c == a+(b+c)` at width `w` (mod 2^w).
    /// The two carry chains differ structurally, so strash cannot fold the
    /// miter, but per-width warm work is a local carry argument once the
    /// lower bits are pinned — the sweep's best case.
    pub fn addassoc_root(g: &mut Aig, a: &[AigRef], b: &[AigRef], c: &[AigRef], w: usize) -> AigRef {
        let ab = add_bits(g, &a[..w], &b[..w], w);
        let lhs = add_bits(g, &ab, &c[..w], w);
        let bc = add_bits(g, &b[..w], &c[..w], w);
        let rhs = add_bits(g, &a[..w], &bc, w);
        equal_bits(g, &lhs, &rhs)
    }

    /// Carry-save identity miter: `a+b == (a^b) + 2*(a&b)` at width `w`.
    pub fn addxor_root(g: &mut Aig, a: &[AigRef], b: &[AigRef], w: usize) -> AigRef {
        let lhs = add_bits(g, &a[..w], &b[..w], w);
        let x: Vec<AigRef> = (0..w).map(|i| g.xor(a[i], b[i])).collect();
        let and2: Vec<AigRef> = (0..w).map(|i| g.and(a[i], b[i])).collect();
        let shifted: Vec<AigRef> =
            std::iter::once(AIG_FALSE).chain(and2.iter().copied()).take(w).collect();
        let rhs = add_bits(g, &x, &shifted, w);
        equal_bits(g, &lhs, &rhs)
    }

    /// Round-trip miter: `(a+1)-1 == a` at width `w` (subtraction as
    /// addition of the all-ones two's complement of 1).
    pub fn incdec_root(g: &mut Aig, a: &[AigRef], w: usize) -> AigRef {
        let one: Vec<AigRef> = std::iter::once(AIG_TRUE)
            .chain(std::iter::repeat(AIG_FALSE))
            .take(w)
            .collect();
        let inc = add_bits(g, &a[..w], &one, w);
        let ones: Vec<AigRef> = vec![AIG_TRUE; w];
        let dec = add_bits(g, &inc, &ones, w);
        equal_bits(g, &dec, &a[..w])
    }
}

#[cfg(test)]
mod tests {
    use super::family::*;
    use super::*;

    /// Drives one hard family through a session and through per-width cold
    /// solves; verdicts must agree (all proved) and the session must spend
    /// strictly fewer conflicts.
    fn ab_family(build: impl Fn(&mut Aig, &[AigRef], usize) -> AigRef, max_w: usize) {
        let mut session = IncrementalProver::new();
        let inputs: Vec<AigRef> = (0..3 * max_w).map(|_| session.aig.input()).collect();
        let mut warm_conflicts = 0u64;
        for w in 2..=max_w {
            let root = build(&mut session.aig, &inputs, w);
            if w >= 4 {
                // Tiny widths may still strash-fold; the interesting part
                // of the family must not.
                assert_ne!(root, AIG_TRUE, "family must not fold (w={w})");
            }
            assert_eq!(session.prove_root(w as u64, root), SweepVerdict::Proved, "w={w}");
            warm_conflicts += session.stats.per_width.last().unwrap().conflicts;
        }
        let mut cold_conflicts = 0u64;
        for w in 2..=max_w {
            let mut g = Aig::new();
            let inputs: Vec<AigRef> = (0..3 * max_w).map(|_| g.input()).collect();
            let root = build(&mut g, &inputs, w);
            let mut s = Solver::new();
            let enc = crate::cnf::tseitin_pg(&g, !root, &mut s);
            s.add_clause(&[enc.lit]);
            assert_eq!(s.solve(), SatResult::Unsat, "cold w={w}");
            cold_conflicts += s.stats().conflicts;
        }
        assert!(
            warm_conflicts < cold_conflicts,
            "session must reuse work: warm {warm_conflicts} vs cold {cold_conflicts} conflicts"
        );
        assert!(session.stats.reused_clauses > 0, "later widths must reuse clauses");
        assert!(session.stats.lemmas > 0, "proved roots must become lemmas");
    }

    #[test]
    fn mulcomm_session_beats_cold_solves() {
        ab_family(|g, inp, w| mulcomm_root(g, &inp[..w], &inp[6..6 + w], w), 6);
    }

    #[test]
    fn muldist_session_beats_cold_solves() {
        ab_family(
            |g, inp, w| muldist_root(g, &inp[..w], &inp[5..5 + w], &inp[10..10 + w], w),
            5,
        );
    }

    #[test]
    fn mulinc_session_beats_cold_solves() {
        ab_family(|g, inp, w| mulinc_root(g, &inp[..w], &inp[6..6 + w], w), 6);
    }

    #[test]
    fn addassoc_session_beats_cold_solves() {
        ab_family(
            |g, inp, w| addassoc_root(g, &inp[..w], &inp[10..10 + w], &inp[20..20 + w], w),
            10,
        );
    }

    #[test]
    fn addxor_session_beats_cold_solves() {
        ab_family(|g, inp, w| addxor_root(g, &inp[..w], &inp[12..12 + w], w), 12);
    }

    #[test]
    fn incdec_session_beats_cold_solves() {
        ab_family(|g, inp, w| incdec_root(g, &inp[..w], w), 16);
    }

    #[test]
    fn session_finds_counterexamples_and_recovers() {
        // A falsifiable width (a*b == b*a+1) between two valid ones: the
        // session must report a genuine model and keep proving afterwards.
        let mut session = IncrementalProver::new();
        let w = 4;
        let a: Vec<AigRef> = (0..w).map(|_| session.aig.input()).collect();
        let b: Vec<AigRef> = (0..w).map(|_| session.aig.input()).collect();
        let good = mulcomm_root(&mut session.aig, &a, &b, 3);
        assert_eq!(session.prove_root(3, good), SweepVerdict::Proved);
        // Broken claim: a*b == b*a + 1 (never true when a*b == b*a).
        let (ab, ba, one) = {
            let g = &mut session.aig;
            let ab = mul_bits(g, &a, &b, w);
            let ba = mul_bits(g, &b, &a, w);
            let one: Vec<AigRef> = std::iter::once(AIG_TRUE)
                .chain(std::iter::repeat(AIG_FALSE))
                .take(w)
                .collect();
            (ab, ba, one)
        };
        let ba1 = add_bits(&mut session.aig, &ba, &one, w);
        let bad = equal_bits(&mut session.aig, &ab, &ba1);
        match session.prove_root(4, bad) {
            SweepVerdict::Counterexample(model) => {
                // Any assignment falsifies; check the model really does.
                let val = session.aig.eval(bad, &|n| model.get(&n).copied().unwrap_or(false));
                assert!(!val, "reported model must falsify the bad root");
            }
            SweepVerdict::Proved => panic!("a*b == b*a+1 is falsifiable"),
        }
        let good4 = mulcomm_root(&mut session.aig, &a, &b, w);
        assert_eq!(session.prove_root(4, good4), SweepVerdict::Proved, "session recovers");
    }

    #[test]
    fn stats_count_each_session_width_once() {
        // Folding miters (a+b == b+a hashes to one node) at widths that
        // straddle the Auto crossover. The sequential driver proves the
        // BDD widths one-shot, outside the session, so only the SAT widths
        // count; the scheduled driver counts a raced width once, whichever
        // side claims it.
        use crate::bitblast::{add_words, Word};
        let cones: Vec<(Netlist, Net)> = (4..=9)
            .map(|w| {
                let mut nl = Netlist::new();
                let a = Word { bits: (0..w).map(|_| nl.input()).collect(), signed: false };
                let b = Word { bits: (0..w).map(|_| nl.input()).collect(), signed: false };
                let ab = add_words(&mut nl, &a, &b, w);
                let ba = add_words(&mut nl, &b, &a, w);
                let eq = crate::check::nets_equal(&mut nl, &ab, &ba);
                (nl, eq)
            })
            .collect();
        let items: Vec<SweepItem<'_>> = cones
            .iter()
            .zip(4u64..)
            .map(|((nl, root), width)| SweepItem { nl, root: *root, width, var_order: Vec::new() })
            .collect();
        let sat_widths = items
            .iter()
            .filter(|i| Backend::Auto.resolve(i.width as usize) == Backend::Sat)
            .count() as u64;
        let seq = prove_net_sweep(&items, Backend::Auto, false);
        assert!(seq.all_proved());
        assert_eq!(seq.stats.widths, sat_widths, "sequential: SAT widths only");
        assert_eq!(seq.stats.folded, seq.stats.widths);
        assert_eq!(seq.stats.sat_calls, 0);
        let pool = chicala_par::StealPool::new(1);
        let sched = prove_net_sweep_scheduled(&pool, &items, Backend::Auto, OptProfile, false);
        assert!(sched.all_proved());
        assert!((sat_widths..=items.len() as u64).contains(&sched.stats.widths));
        assert_eq!(sched.stats.folded, sched.stats.widths, "scheduled: one count per width");
    }

    #[test]
    fn drill_unguarded_retention_is_caught_by_ab() {
        // The injected bug: unguarded root retention poisons the solver,
        // so a falsifiable later width reports Proved. The netlist-level
        // A/B (verify_ab) must catch exactly this.
        let mut session = IncrementalProver::new();
        session.set_drill_unguarded(true);
        let w = 3;
        let a: Vec<AigRef> = (0..w).map(|_| session.aig.input()).collect();
        let b: Vec<AigRef> = (0..w).map(|_| session.aig.input()).collect();
        let good = mulcomm_root(&mut session.aig, &a, &b, w);
        assert_eq!(session.prove_root(3, good), SweepVerdict::Proved);
        // A trivially falsifiable claim: a0 (an input) is constant-true.
        let falsifiable = a[0];
        match session.prove_root(4, falsifiable) {
            SweepVerdict::Proved => {} // the drill's wrong answer, as designed
            SweepVerdict::Counterexample(_) => {
                panic!("drill failed to poison the session — unguarded clause was not retained")
            }
        }
    }
}
