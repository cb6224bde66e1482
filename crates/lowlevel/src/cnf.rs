//! Tseitin CNF emission: encodes an [`Aig`] cone into a
//! [`chicala_sat::Solver`].
//!
//! [`tseitin`] is the classic full encoding: each AND node in the cone of
//! the requested root gets a fresh solver variable with the standard three
//! clauses `(¬n ∨ x) (¬n ∨ y) (¬x ∨ ¬y ∨ n)`; inputs get plain variables.
//! Encoding is restricted to the cone of influence, so dead logic in the
//! graph costs no clauses.
//!
//! [`tseitin_pg`] is the polarity-aware Plaisted–Greenbaum refinement the
//! SAT prove path uses: polarities are seeded from the edge the caller
//! will assert and pushed down through complement edges, and each node
//! only receives the implication clauses its polarities require —
//! `(¬n ∨ x) (¬n ∨ y)` where the node occurs positively, `(¬x ∨ ¬y ∨ n)`
//! where it occurs negatively. Single-polarity nodes (the vast majority of
//! a miter cone) cost one or two clauses instead of three, models still
//! project soundly onto the input variables, and nodes the AIG front-end
//! folded to constants never reach the encoder at all.

use crate::aig::{Aig, AigNode, AigRef};
use chicala_sat::{Lit, Solver, Var};
use std::collections::HashMap;

/// The result of encoding one root: its literal plus the node → variable
/// map (needed to decode counterexample models back to AIG inputs).
#[derive(Debug)]
pub struct CnfRoot {
    /// Literal equivalent to the root edge.
    pub lit: Lit,
    /// Solver variable for each encoded AIG node (by node index).
    pub var_of_node: HashMap<u32, Var>,
}

/// Encodes the cone of `root` into `solver`, returning the root literal.
///
/// Constant roots short-circuit: a fresh variable is constrained to the
/// constant so the caller can uniformly assert `lit` or `¬lit`.
pub fn tseitin(aig: &Aig, root: AigRef, solver: &mut Solver) -> CnfRoot {
    let mut var_of_node: HashMap<u32, Var> = HashMap::new();
    // Cone of influence, in (topological) node order.
    let in_cone = aig.cone(root);
    let lit_of = |var_of_node: &HashMap<u32, Var>, r: AigRef| -> Lit {
        let v = var_of_node[&r.node()];
        if r.is_compl() {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        }
    };
    for i in 0..aig.len() as u32 {
        if !in_cone[i as usize] {
            continue;
        }
        let v = solver.new_var();
        var_of_node.insert(i, v);
        match aig.node(AigRef::from_node(i)) {
            AigNode::Const => {
                // Node 0 is the false constant.
                solver.add_clause(&[Lit::neg(v)]);
            }
            AigNode::Input => {}
            AigNode::And(x, y) => {
                let lx = lit_of(&var_of_node, x);
                let ly = lit_of(&var_of_node, y);
                let ln = Lit::pos(v);
                solver.add_clause(&[!ln, lx]);
                solver.add_clause(&[!ln, ly]);
                solver.add_clause(&[!lx, !ly, ln]);
            }
        }
    }
    CnfRoot { lit: lit_of(&var_of_node, root), var_of_node }
}

/// Polarity marks: bit 0 = occurs positively, bit 1 = occurs negatively.
const POS: u8 = 1;
const NEG: u8 = 2;

/// Plaisted–Greenbaum encoding of the cone of `root`, where `root` is the
/// edge the caller intends to **assert** (add as a unit clause). Nodes
/// only get the implication clauses their occurrence polarities demand, so
/// single-polarity nodes cost 1–2 clauses against full Tseitin's 3.
///
/// The resulting formula is equisatisfiable with the asserted root, and a
/// model's values on *input* variables always extend to the asserted
/// constraint — counterexample decoding is unchanged. Internal node
/// variables of the model are only constrained in the asserted direction,
/// so callers must not read them as circuit values (the prove path only
/// reads inputs).
pub fn tseitin_pg(aig: &Aig, root: AigRef, solver: &mut Solver) -> CnfRoot {
    let mut pol = vec![0u8; aig.len()];
    let seed = if root.is_compl() { NEG } else { POS };
    let mut stack: Vec<(u32, u8)> = vec![(root.node(), seed)];
    while let Some((n, p)) = stack.pop() {
        if pol[n as usize] & p != 0 {
            continue;
        }
        pol[n as usize] |= p;
        if let AigNode::And(x, y) = aig.node(AigRef::from_node(n)) {
            for e in [x, y] {
                let cp = if e.is_compl() { p ^ (POS | NEG) } else { p };
                stack.push((e.node(), cp));
            }
        }
    }
    let mut var_of_node: HashMap<u32, Var> = HashMap::new();
    let lit_of = |var_of_node: &HashMap<u32, Var>, r: AigRef| -> Lit {
        let v = var_of_node[&r.node()];
        if r.is_compl() {
            Lit::neg(v)
        } else {
            Lit::pos(v)
        }
    };
    for i in 0..aig.len() as u32 {
        let p = pol[i as usize];
        if p == 0 {
            continue;
        }
        let v = solver.new_var();
        var_of_node.insert(i, v);
        match aig.node(AigRef::from_node(i)) {
            AigNode::Const => {
                // Node 0 is the false constant; pin it in both polarities
                // (one unit clause — cheaper than reasoning about which
                // direction the cone needs).
                solver.add_clause(&[Lit::neg(v)]);
            }
            AigNode::Input => {}
            AigNode::And(x, y) => {
                let lx = lit_of(&var_of_node, x);
                let ly = lit_of(&var_of_node, y);
                let ln = Lit::pos(v);
                if p & POS != 0 {
                    solver.add_clause(&[!ln, lx]);
                    solver.add_clause(&[!ln, ly]);
                }
                if p & NEG != 0 {
                    solver.add_clause(&[!lx, !ly, ln]);
                }
            }
        }
    }
    CnfRoot { lit: lit_of(&var_of_node, root), var_of_node }
}

/// Per-call emission statistics from [`CnfFrame::encode`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameStats {
    /// Clauses pushed into the solver by this call.
    pub new_clauses: u64,
    /// Clauses already in the solver that this cone needs (emitted by an
    /// earlier call for the same node/polarity) — the reuse the sweep wins.
    pub reused_clauses: u64,
    /// Fresh solver variables allocated by this call.
    pub new_vars: u64,
    /// Cone nodes whose encoding was already complete for the polarities
    /// this root demands.
    pub reused_nodes: u64,
}

/// A persistent Plaisted–Greenbaum encoding session over one growing
/// [`Aig`]: the node → variable map and the per-node emitted polarities
/// survive across calls, so encoding the width-`w` miter cone after its
/// width-`(w−1)` sibling only pays for the nodes (and polarities) the new
/// cone adds. This is the CNF side of `sweep::IncrementalProver`.
///
/// Soundness: every emitted clause is a polarity-subset of full Tseitin,
/// i.e. a valid implication of the circuit semantics, and is never
/// retracted. A node first seen positively and later also negatively gets
/// the missing implication topped up; the union is still (at most) the
/// full Tseitin encoding of the node.
#[derive(Default)]
pub struct CnfFrame {
    /// Solver variable per AIG node index (dense; `NO_VAR` = unassigned).
    vars: Vec<Var>,
    /// Polarities already emitted per node ([`POS`] | [`NEG`] bits).
    pol: Vec<u8>,
    /// Per-call visit stamps so reuse accounting counts each node once.
    stamp: Vec<u32>,
    clock: u32,
}

const NO_VAR: Var = u32::MAX;

impl CnfFrame {
    /// An empty frame.
    pub fn new() -> CnfFrame {
        CnfFrame::default()
    }

    /// The solver variable of an encoded node, if any call encoded it.
    pub fn var_of(&self, node: u32) -> Option<Var> {
        match self.vars.get(node as usize) {
            Some(&v) if v != NO_VAR => Some(v),
            _ => None,
        }
    }

    /// The solver literal of an AIG edge whose node is encoded.
    pub fn lit_of(&self, r: AigRef) -> Option<Lit> {
        let v = self.var_of(r.node())?;
        Some(if r.is_compl() { Lit::neg(v) } else { Lit::pos(v) })
    }

    /// Encodes the cone of `root` — the edge the caller will assert —
    /// into `solver`, reusing everything earlier calls emitted. Returns
    /// the root literal and the reuse accounting.
    ///
    /// `solver` must be the same instance across all calls on one frame
    /// (variables are allocated from it and remembered).
    pub fn encode(&mut self, aig: &Aig, root: AigRef, solver: &mut Solver) -> (Lit, FrameStats) {
        let n = aig.len();
        if self.vars.len() < n {
            self.vars.resize(n, NO_VAR);
            self.pol.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        self.clock += 1;
        let mut stats = FrameStats::default();
        // Pass 1: polarity DFS from the asserted edge, collecting the
        // (node, added-polarity) pairs this cone newly requires. Marking
        // before descent keeps the walk linear on shared nodes.
        let mut newly: Vec<(u32, u8)> = Vec::new();
        let seed = if root.is_compl() { NEG } else { POS };
        let mut stack: Vec<(u32, u8)> = vec![(root.node(), seed)];
        while let Some((i, p)) = stack.pop() {
            let have = self.pol[i as usize];
            let missing = p & !have;
            if self.stamp[i as usize] != self.clock {
                self.stamp[i as usize] = self.clock;
                // Reuse accounting: clauses this cone needs that already
                // exist (counted once per node per call).
                if let AigNode::And(_, _) = aig.node(AigRef::from_node(i)) {
                    let kept = p & have;
                    if kept & POS != 0 {
                        stats.reused_clauses += 2;
                    }
                    if kept & NEG != 0 {
                        stats.reused_clauses += 1;
                    }
                    if missing == 0 {
                        stats.reused_nodes += 1;
                    }
                }
            }
            if missing == 0 {
                continue;
            }
            self.pol[i as usize] |= missing;
            newly.push((i, missing));
            if let AigNode::And(x, y) = aig.node(AigRef::from_node(i)) {
                for e in [x, y] {
                    let cp = if e.is_compl() { missing ^ (POS | NEG) } else { missing };
                    stack.push((e.node(), cp));
                }
            }
        }
        // Pass 2: emit in ascending node order (children of a hash-consed
        // AIG always precede parents, so their variables exist by the time
        // a parent's clauses reference them).
        newly.sort_unstable_by_key(|&(i, _)| i);
        for &(i, added) in &newly {
            let fresh = self.vars[i as usize] == NO_VAR;
            if fresh {
                self.vars[i as usize] = solver.new_var();
                stats.new_vars += 1;
            }
            let v = self.vars[i as usize];
            match aig.node(AigRef::from_node(i)) {
                AigNode::Const => {
                    // Node 0 is the false constant; pin it once.
                    if fresh {
                        solver.add_clause(&[Lit::neg(v)]);
                        stats.new_clauses += 1;
                    }
                }
                AigNode::Input => {}
                AigNode::And(x, y) => {
                    let lx = self.lit_of(x).expect("child encoded first");
                    let ly = self.lit_of(y).expect("child encoded first");
                    let ln = Lit::pos(v);
                    if added & POS != 0 {
                        solver.add_clause(&[!ln, lx]);
                        solver.add_clause(&[!ln, ly]);
                        stats.new_clauses += 2;
                    }
                    if added & NEG != 0 {
                        solver.add_clause(&[!lx, !ly, ln]);
                        stats.new_clauses += 1;
                    }
                }
            }
        }
        let lit = self.lit_of(root).expect("root encoded");
        (lit, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::AIG_TRUE;
    use chicala_sat::SatResult;

    #[test]
    fn encodes_and_gate_faithfully() {
        let mut g = Aig::new();
        let x = g.input();
        let y = g.input();
        let r = g.and(x, y);
        // r must be satisfiable, and every model sets both inputs.
        let mut s = Solver::new();
        let enc = tseitin(&g, r, &mut s);
        s.add_clause(&[enc.lit]);
        match s.solve() {
            SatResult::Sat(m) => {
                let vx = enc.var_of_node[&x.node()];
                let vy = enc.var_of_node[&y.node()];
                assert!(m[vx as usize] && m[vy as usize]);
            }
            SatResult::Unsat => panic!("x∧y is satisfiable"),
        }
        // ¬r ∧ x ∧ y is unsatisfiable.
        let mut s = Solver::new();
        let enc = tseitin(&g, r, &mut s);
        s.add_clause(&[!enc.lit]);
        let vx = enc.var_of_node[&x.node()];
        let vy = enc.var_of_node[&y.node()];
        s.add_clause(&[Lit::pos(vx)]);
        s.add_clause(&[Lit::pos(vy)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn xor_miter_is_unsat_for_equal_functions() {
        // Build (a xor b) two ways; the miter of the two copies must be
        // UNSAT: structural hashing already makes them the same edge, so
        // the miter is the constant false.
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let x1 = g.xor(a, b);
        let x2 = g.xor(b, a);
        let miter = g.xor(x1, x2);
        assert_eq!(miter, crate::aig::AIG_FALSE, "strash collapses the miter");
        let mut s = Solver::new();
        let enc = tseitin(&g, miter, &mut s);
        s.add_clause(&[enc.lit]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pg_emits_strictly_fewer_clauses_on_single_polarity_cones() {
        // A deep xor chain seen through one root polarity: most nodes are
        // single-polarity, so Plaisted–Greenbaum must beat full Tseitin's
        // 3-clauses-per-AND. (A/B on the same graph and root.)
        let mut g = Aig::new();
        let mut acc = g.input();
        for _ in 0..10 {
            let x = g.input();
            acc = g.xor(acc, x);
        }
        let mut full = Solver::new();
        let _ = tseitin(&g, acc, &mut full);
        let mut pg = Solver::new();
        let _ = tseitin_pg(&g, acc, &mut pg);
        assert!(
            pg.num_clauses() < full.num_clauses(),
            "PG {} clauses vs full Tseitin {}",
            pg.num_clauses(),
            full.num_clauses()
        );
    }

    #[test]
    fn pg_and_full_tseitin_agree_on_random_cones() {
        // Pseudo-random dags: for each root polarity, the PG encoding must
        // be satisfiable exactly when the function (exhaustively evaluated)
        // has a satisfying assignment, and returned models must evaluate
        // to the asserted value on the original graph.
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..20 {
            let mut g = Aig::new();
            let inputs: Vec<AigRef> = (0..6).map(|_| g.input()).collect();
            let mut pool = inputs.clone();
            for _ in 0..30 {
                let a = pool[(rng() % pool.len() as u64) as usize];
                let b = pool[(rng() % pool.len() as u64) as usize];
                let a = if rng() % 2 == 0 { !a } else { a };
                let n = match rng() % 3 {
                    0 => g.and(a, b),
                    1 => g.or(a, b),
                    _ => g.xor(a, b),
                };
                pool.push(n);
            }
            let base = *pool.last().expect("nonempty");
            for root in [base, !base] {
                if root.node() == 0 {
                    continue; // constant cones are covered elsewhere
                }
                let truly_sat = (0..64u32)
                    .any(|bits| g.eval(root, &|n| bits >> (n - 1) & 1 == 1));
                let mut s = Solver::new();
                let enc = tseitin_pg(&g, root, &mut s);
                s.add_clause(&[enc.lit]);
                match s.solve() {
                    SatResult::Sat(m) => {
                        assert!(truly_sat, "case {case}: PG found a model of an unsat cone");
                        // The model's *input* values must satisfy the root.
                        let val = g.eval(root, &|n| {
                            enc.var_of_node
                                .get(&n)
                                .is_some_and(|v| m[*v as usize])
                        });
                        assert!(val, "case {case}: PG model does not satisfy the root");
                    }
                    SatResult::Unsat => {
                        assert!(!truly_sat, "case {case}: PG missed a satisfying assignment");
                    }
                }
            }
        }
    }

    #[test]
    fn frame_agrees_with_oneshot_pg_on_growing_cones() {
        // One frame + one solver encode a sequence of roots over a growing
        // random dag; each query (under an activation guard) must agree
        // with a fresh PG encoding, and overlapping cones must reuse.
        let mut seed = 0x853C49E6748FEA9Bu64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..10 {
            let mut g = Aig::new();
            let inputs: Vec<AigRef> = (0..6).map(|_| g.input()).collect();
            let mut pool = inputs.clone();
            let mut frame = CnfFrame::new();
            let mut s = Solver::new();
            let mut total_reused = 0u64;
            for step in 0..8 {
                for _ in 0..8 {
                    let a = pool[(rng() % pool.len() as u64) as usize];
                    let b = pool[(rng() % pool.len() as u64) as usize];
                    let a = if rng() % 2 == 0 { !a } else { a };
                    let n = match rng() % 3 {
                        0 => g.and(a, b),
                        1 => g.or(a, b),
                        _ => g.xor(a, b),
                    };
                    pool.push(n);
                }
                let base = *pool.last().expect("nonempty");
                let root = if rng() % 2 == 0 { base } else { !base };
                if root.node() == 0 {
                    continue;
                }
                let (lit, fstats) = frame.encode(&g, root, &mut s);
                total_reused += fstats.reused_clauses;
                let act = s.new_var();
                s.add_clause(&[Lit::neg(act), lit]);
                let inc_sat =
                    matches!(s.solve_assuming(&[Lit::pos(act)]), SatResult::Sat(_));
                s.add_clause(&[Lit::neg(act)]);
                let mut fresh = Solver::new();
                let enc = tseitin_pg(&g, root, &mut fresh);
                fresh.add_clause(&[enc.lit]);
                let oneshot_sat = matches!(fresh.solve(), SatResult::Sat(_));
                assert_eq!(
                    inc_sat, oneshot_sat,
                    "case {case} step {step}: frame and one-shot PG disagree"
                );
            }
            assert!(total_reused > 0, "case {case}: growing cones never reused a clause");
        }
    }

    #[test]
    fn frame_polarity_topup_stays_sound() {
        // Encode a node positively first, then demand the negative
        // polarity through a second root: the topped-up encoding must
        // constrain both directions (x∧y asserted true then false).
        let mut g = Aig::new();
        let x = g.input();
        let y = g.input();
        let n = g.and(x, y);
        let mut frame = CnfFrame::new();
        let mut s = Solver::new();
        let (pos_lit, first) = frame.encode(&g, n, &mut s);
        assert!(first.new_clauses > 0);
        let (neg_lit, second) = frame.encode(&g, !n, &mut s);
        assert_eq!(neg_lit, !pos_lit, "same node, complementary edges");
        assert_eq!(second.new_clauses, 1, "negative polarity tops up one implication");
        assert_eq!(second.new_vars, 0, "all three variables already exist");
        // n asserted: x and y must both hold.
        let a1 = s.new_var();
        s.add_clause(&[Lit::neg(a1), pos_lit]);
        match s.solve_assuming(&[Lit::pos(a1)]) {
            SatResult::Sat(m) => {
                let vx = frame.var_of(x.node()).expect("x encoded");
                let vy = frame.var_of(y.node()).expect("y encoded");
                assert!(m[vx as usize] && m[vy as usize]);
            }
            SatResult::Unsat => panic!("x∧y satisfiable"),
        }
        s.add_clause(&[Lit::neg(a1)]);
        // ¬n asserted along with x, y: unsatisfiable.
        let a2 = s.new_var();
        s.add_clause(&[Lit::neg(a2), neg_lit]);
        let vx = frame.var_of(x.node()).expect("x");
        let vy = frame.var_of(y.node()).expect("y");
        s.add_clause(&[Lit::neg(a2), Lit::pos(vx)]);
        s.add_clause(&[Lit::neg(a2), Lit::pos(vy)]);
        assert_eq!(s.solve_assuming(&[Lit::pos(a2)]), SatResult::Unsat);
    }

    #[test]
    fn constant_roots_round_trip() {
        let g = Aig::new();
        let mut s = Solver::new();
        let enc = tseitin(&g, AIG_TRUE, &mut s);
        s.add_clause(&[enc.lit]);
        assert!(matches!(s.solve(), SatResult::Sat(_)));
        let mut s = Solver::new();
        let enc = tseitin(&g, crate::aig::AIG_FALSE, &mut s);
        s.add_clause(&[enc.lit]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }
}
