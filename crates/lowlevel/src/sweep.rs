//! Incremental width-sweep proving: one CDCL session per design family.
//!
//! The per-(design, width) prove path pays a cold solver, a fresh Tseitin
//! encoding, and re-learns clauses its width-(w−1) sibling already derived.
//! This module amortizes the family three ways:
//!
//! 1. **One shared kit with shared inputs.** Truncated arithmetic is
//!    width-monotone: built into one hash-consed [`Aig`], the low result
//!    bits of the width-`w` cone are the *same nodes* as the
//!    width-`(w+1)` cone's, so encoding width `w+1` after `w` only pays
//!    for the new top slice ([`crate::cnf::CnfFrame`] tracks what is
//!    already in the solver).
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
//! [`prove_net_sweep`] drives a kit family through the session and
//! guarantees **byte-identical results** to the one-shot
//! [`prove_net`] path: proved widths are reported with the resolved
//! backend tag, and any counterexample is re-derived by the one-shot
//! engine itself (the session verdict only routes). Widths at or below
//! the `Auto` crossover take the one-shot BDD path in order; the sweep
//! runs on the caller's thread, so its report and statistics do not
//! depend on worker count or timing.

use crate::aig::{Aig, AigNode, AigRef, AIG_FALSE, AIG_TRUE};
use crate::check::{prove_net, Backend, OptProfile, ProveResult};
use crate::cnf::CnfFrame;
use chicala_sat::{Lit, SatResult, Solver};
use chicala_telemetry as telemetry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-width session telemetry (the warm-vs-cold story of one sweep).
#[derive(Clone, Debug, Default)]
pub struct WidthProbe {
    /// The design width this probe covers.
    pub width: u64,
    /// The root was a constant edge as built; no solving happened.
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
    session: Session,
    /// Session statistics, updated by every [`IncrementalProver::prove_root`].
    pub stats: SweepStats,
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
            session: Session::new(false),
            stats: SweepStats::default(),
        }
    }

    /// **Soundness drill only**: asserts width roots *without* their
    /// activation guard, deliberately retaining a width-dependent clause
    /// across retirement. A later falsifiable width is then wrongly
    /// reported proved — which the sweep-vs-oneshot A/B must catch. Never
    /// enable outside tests.
    pub fn set_drill_unguarded(&mut self, on: bool) {
        self.session.drill_unguarded = on;
    }

    /// Proves that the edge `root` (built in [`IncrementalProver::aig`]) is
    /// constant-true at `width`, reusing all prior session state.
    pub fn prove_root(&mut self, width: u64, root: AigRef) -> SweepVerdict {
        self.session.prove_root(&self.aig, &mut self.stats, width, root)
    }
}

/// The solver side of a sweep: one CDCL solver for the whole family and a
/// CNF frame over the graph whose cones it is proving.
struct Session {
    solver: Solver,
    frame: CnfFrame,
    drill_unguarded: bool,
}

impl Session {
    fn new(drill_unguarded: bool) -> Session {
        Session { solver: Solver::new(), frame: CnfFrame::new(), drill_unguarded }
    }

    /// Proves that the edge `root` of `aig` is constant-true at `width`.
    /// Every call on one frame must pass the same graph.
    fn prove_root(&mut self, aig: &Aig, stats: &mut SweepStats, width: u64, root: AigRef) -> SweepVerdict {
        stats.widths += 1;
        let mut probe = WidthProbe { width, ..WidthProbe::default() };
        if root == AIG_TRUE {
            stats.folded += 1;
            probe.folded = true;
            stats.per_width.push(probe);
            return SweepVerdict::Proved;
        }
        if root == AIG_FALSE {
            stats.folded += 1;
            probe.folded = true;
            stats.per_width.push(probe);
            return SweepVerdict::Counterexample(BTreeMap::new());
        }
        // Encode the cone of ¬root (we search for a counterexample); only
        // the slice new to this width costs clauses.
        let (cex_lit, fstats) = self.frame.encode(aig, !root, &mut self.solver);
        probe.new_clauses = fstats.new_clauses;
        probe.reused_clauses = fstats.reused_clauses;
        stats.new_clauses += fstats.new_clauses;
        stats.reused_clauses += fstats.reused_clauses;
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
        stats.sat_calls += 1;
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
                    let (root_lit, topup) = self.frame.encode(aig, root, &mut self.solver);
                    stats.new_clauses += topup.new_clauses;
                    probe.new_clauses += topup.new_clauses;
                    self.solver.add_clause(&[root_lit]);
                    stats.lemmas += 1;
                    probe.lemma = true;
                }
                SweepVerdict::Proved
            }
            SatResult::Sat(model) => {
                self.solver.add_clause(&[Lit::neg(act)]);
                let mut inputs = BTreeMap::new();
                for i in 0..aig.len() as u32 {
                    if let AigNode::Input = aig.node(AigRef::from_node(i)) {
                        if let Some(v) = self.frame.var_of(i) {
                            inputs.insert(i, model[v as usize]);
                        }
                    }
                }
                SweepVerdict::Counterexample(inputs)
            }
        };
        stats.per_width.push(probe);
        verdict
    }
}

/// One width of a sweepable kit family: the property edge `root` must be
/// constant-true over `nl`'s inputs. Families that share one hash-consed
/// kit across widths (see `conformance::formal_gate_obligation_shared`)
/// get real incremental reuse; families with per-width kits still get the
/// session solver.
pub struct SweepItem<'a> {
    /// The kit holding this width's cone (shared or per-width).
    pub nl: &'a Aig,
    /// The single-bit property edge.
    pub root: AigRef,
    /// The design width (drives the `Auto` backend crossover).
    pub width: u64,
    /// BDD variable order for the small-width engine.
    pub var_order: Vec<AigRef>,
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

/// The `ProveSweep` entry point: proves a whole width family through one
/// incremental session, with results **byte-identical** to calling
/// [`prove_net`] per width.
///
/// Items should be ascending in width (the session's reuse is built for
/// that order). Consecutive items sharing the *same* kit share one CNF
/// frame, so each width encodes only the nodes earlier widths did not
/// (real structural reuse); a change of kit starts a new frame but keeps
/// the solver session.
///
/// `verify_ab` additionally re-proves every width one-shot and counts any
/// disagreement in [`SweepStats::divergences`], reporting the one-shot
/// result — this is the A/B tripwire the drill and the tests rely on.
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
    let mut session = Session::new(drill);
    let mut stats = SweepStats::default();
    // The kit the session's frame numbers: its node ids are the frame's.
    let mut framed: Option<&Aig> = None;
    let mut outcomes = Vec::with_capacity(items.len());
    for item in items {
        let resolved = backend.resolve(item.width as usize);
        let result = if resolved == Backend::Bdd {
            // Below the crossover the one-shot BDD engine is already the
            // cheapest path and its bytes are the contract; the session
            // never sees the width, so its stats do not count it.
            item.oneshot(backend)
        } else {
            if !framed.is_some_and(|kit| std::ptr::eq(kit, item.nl)) {
                session.frame = CnfFrame::new();
                framed = Some(item.nl);
            }
            match session.prove_root(item.nl, &mut stats, item.width, item.root) {
                SweepVerdict::Proved => ProveResult::Proved { backend: resolved },
                SweepVerdict::Counterexample(_) => {
                    // Byte-identity: the one-shot engine derives the
                    // reported counterexample itself.
                    let oneshot = item.oneshot(backend);
                    if oneshot.is_proved() {
                        // Session found a spurious model: soundness bug.
                        stats.divergences += 1;
                        telemetry::counter("sweep.divergences", 1);
                    }
                    oneshot
                }
            }
        };
        let result = if verify_ab {
            let oneshot = item.oneshot(backend);
            if oneshot != result {
                stats.divergences += 1;
                telemetry::counter("sweep.divergences", 1);
            }
            oneshot
        } else {
            result
        };
        outcomes.push(SweepOutcome { width: item.width, result });
    }
    SweepReport { outcomes, stats }
}

/// An inert stand-in for the pool the width sweep used to run on: it runs
/// nothing and its counters read zero. It remains only because the
/// repository benchmark (`perfbench/src/gates.rs`) reads its stats and
/// passes it to [`prove_net_sweep_scheduled`].
#[derive(Debug)]
pub struct IdlePool;

/// [`IdlePool`]'s counters: the zeros of a pool that ran nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IdleCounts {
    /// Jobs run.
    pub executed: u64,
    /// Jobs taken from another worker's queue.
    pub steals: u64,
    /// Submissions that attached to an identical job in flight.
    pub dedup_hits: u64,
}

impl IdlePool {
    /// All zero.
    pub fn stats(&self) -> IdleCounts {
        IdleCounts::default()
    }
}

/// The one [`IdlePool`].
pub fn sweep_pool() -> &'static IdlePool {
    &IdlePool
}

/// [`prove_net_sweep`], ignoring `_pool` and `_opt`. It remains only
/// because the repository benchmark (`perfbench/src/gates.rs`) calls it.
pub fn prove_net_sweep_scheduled(
    _pool: &IdlePool,
    items: &[SweepItem<'_>],
    backend: Backend,
    _opt: OptProfile,
    verify_ab: bool,
) -> SweepReport {
    prove_net_sweep(items, backend, verify_ab)
}

/// Hard arithmetic width families for the `gates` benchmark and the tests:
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
        // straddle the Auto crossover. The sweep proves the BDD widths
        // one-shot, outside the session, so exactly the SAT widths count.
        use crate::bitblast::{add_words, Word};
        use crate::check::AUTO_SAT_CROSSOVER_WIDTH;
        let cones: Vec<(Aig, AigRef)> = (4..=9)
            .map(|w| {
                let mut nl = Aig::new();
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
        let report = prove_net_sweep(&items, Backend::Auto, false);
        assert!(report.all_proved());
        assert_eq!(AUTO_SAT_CROSSOVER_WIDTH, 6);
        assert_eq!(report.stats.widths, 3, "widths 7..=9 only, each once");
        assert_eq!(report.stats.folded, report.stats.widths);
        assert_eq!(report.stats.sat_calls, 0);
    }

    #[test]
    fn a_new_kit_starts_a_new_frame() {
        // Kit A's valid identity is proved by SAT, and its root becomes a
        // unit lemma. Kit B's falsifiable root sits at the same node id:
        // read through A's frame it would be A's proved root, and B would
        // wrongly prove too.
        let mut a = Aig::new();
        let ins: Vec<AigRef> = (0..14).map(|_| a.input()).collect();
        let good = addxor_root(&mut a, &ins[..7], &ins[7..], 7);
        assert!(!good.is_compl() && good != AIG_TRUE, "an AND node that does not fold");
        let mut b = Aig::new();
        let (x, y) = (b.input(), b.input());
        while b.len() < good.node() as usize {
            b.input();
        }
        let bad = b.and(x, y);
        assert_eq!(bad.node(), good.node());
        let items = [
            SweepItem { nl: &a, root: good, width: 7, var_order: Vec::new() },
            SweepItem { nl: &b, root: bad, width: 8, var_order: Vec::new() },
        ];
        let report = prove_net_sweep(&items, Backend::Auto, false);
        assert_eq!(report.stats.lemmas, 1, "kit A's width reached the solver and proved");
        assert!(report.outcomes[0].result.is_proved());
        assert!(!report.outcomes[1].result.is_proved(), "x ∧ y is falsifiable");
    }

    #[test]
    fn drill_unguarded_retention_is_caught_by_ab() {
        // The injected bug: unguarded root retention poisons the solver,
        // so a falsifiable later width reports Proved. The one-shot A/B
        // (verify_ab) must catch exactly this.
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
