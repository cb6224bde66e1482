//! Per-bit-width formal checking: symbolic unrolling of an elaborated
//! sequential design over a [`BitKit`] (BDDs for proof, netlists for
//! inspection) — the low-level baseline whose cost grows with the bit
//! width, motivating the paper's width-parametric approach.

use crate::aig::{from_netlist, Aig, AigNode, AigRef, AIG_FALSE, AIG_TRUE};
use crate::bitblast::{clamp, BitKit, BlastError, Blaster, Word};
use crate::cnf::tseitin_pg;
use crate::netlist::{Net, Netlist};
use chicala_chisel::{ElabKind, ElabModule};
use chicala_sat::{SatResult, Solver};
use chicala_telemetry as telemetry;
use std::collections::BTreeMap;

/// Final symbolic state after unrolling.
#[derive(Clone, Debug)]
pub struct UnrolledState<B> {
    /// Register words after the last cycle.
    pub regs: BTreeMap<String, Word<B>>,
    /// Output words of the last cycle.
    pub outputs: BTreeMap<String, Word<B>>,
}

/// Symbolically unrolls `em` for `cycles` clock ticks with the given input
/// words held constant and the given initial register words (registers with
/// reset expressions use those instead).
///
/// # Errors
///
/// Propagates [`BlastError`] from the expression blaster.
pub fn unroll<K: BitKit>(
    em: &ElabModule,
    kit: &mut K,
    inputs: &BTreeMap<String, Word<K::Bit>>,
    init_regs: &BTreeMap<String, Word<K::Bit>>,
    cycles: usize,
) -> Result<UnrolledState<K::Bit>, BlastError> {
    let _span = telemetry::span!("unroll:{}x{}", em.name, cycles);
    // Initial register state.
    let mut regs: BTreeMap<String, Word<K::Bit>> = BTreeMap::new();
    for s in &em.signals {
        if let ElabKind::Reg { init } = &s.kind {
            let w = match init {
                Some(e) => {
                    let mut blaster = Blaster::<K>::new(em, inputs.clone());
                    let word = blaster.expr(kit, e)?;
                    clamp(kit, &word, s.width as usize, s.signed)
                }
                None => match init_regs.get(&s.name) {
                    Some(w) => clamp(kit, w, s.width as usize, s.signed),
                    None => Word {
                        bits: vec![kit.constant(false); s.width as usize],
                        signed: s.signed,
                    },
                },
            };
            regs.insert(s.name.clone(), w);
        }
    }
    let mut outputs = BTreeMap::new();
    for _ in 0..cycles {
        let mut leaves = inputs.clone();
        leaves.extend(regs.iter().map(|(k, v)| (k.clone(), v.clone())));
        let mut blaster = Blaster::<K>::new(em, leaves);
        // Outputs of this cycle.
        outputs.clear();
        for name in em.output_names() {
            let w = blaster.signal(kit, &name)?;
            outputs.insert(name, w);
        }
        // Next registers (from drivers, reading current regs).
        let mut next = BTreeMap::new();
        for s in &em.signals {
            if matches!(s.kind, ElabKind::Reg { .. }) {
                let d = em
                    .drivers
                    .get(&s.name)
                    .ok_or_else(|| BlastError::UnknownSignal(s.name.clone()))?
                    .clone();
                let w = blaster.expr(kit, &d)?;
                next.insert(s.name.clone(), clamp(kit, &w, s.width as usize, s.signed));
            }
        }
        regs = next;
    }
    if let Some(size) = kit.size_hint() {
        telemetry::record("bitblast.kit_size", size as u64);
    }
    Ok(UnrolledState { regs, outputs })
}

/// Creates fresh input words over a kit with a caller-controlled bit
/// factory (e.g. BDD variables in a chosen order).
pub fn fresh_inputs<K: BitKit>(
    em: &ElabModule,
    mut fresh: impl FnMut(&str, usize, &mut K) -> K::Bit,
    kit: &mut K,
) -> BTreeMap<String, Word<K::Bit>> {
    let mut out = BTreeMap::new();
    for s in &em.signals {
        if s.kind == ElabKind::Input {
            let bits = (0..s.width as usize).map(|i| fresh(&s.name, i, kit)).collect();
            out.insert(s.name.clone(), Word { bits, signed: s.signed });
        }
    }
    out
}

/// Bitwise equivalence of two words in a BDD manager: returns the BDD of
/// "words are equal" (zero-extending the shorter).
pub fn words_equal(
    bdd: &mut crate::bdd::Bdd,
    a: &Word<crate::bdd::Ref>,
    b: &Word<crate::bdd::Ref>,
) -> crate::bdd::Ref {
    let _span = telemetry::span!("words_equal");
    let w = a.width().max(b.width());
    let mut acc = crate::bdd::TRUE;
    for i in 0..w {
        let x = a.bits.get(i).copied().unwrap_or(crate::bdd::FALSE);
        let y = b.bits.get(i).copied().unwrap_or(crate::bdd::FALSE);
        let eq = bdd.iff(x, y);
        acc = bdd.and(acc, eq);
    }
    acc
}

/// Gate-level proof backend selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Monolithic ROBDD evaluation of the property net (exhaustive
    /// truth-table-style, wins at small widths).
    Bdd,
    /// AIG + Tseitin + CDCL SAT miter (wins once BDDs blow up).
    Sat,
    /// BDD at or below [`AUTO_SAT_CROSSOVER_WIDTH`], SAT above it.
    Auto,
}

/// The width crossover of [`Backend::Auto`]: the old per-design BDD
/// ceilings bottomed out at 6 (Booth `xmul`), so at or below this width the
/// BDD is still the cheaper exhaustive engine and above it the SAT miter
/// takes over.
pub const AUTO_SAT_CROSSOVER_WIDTH: usize = 6;

impl Backend {
    /// The concrete engine for a property at design width `width`.
    pub fn resolve(self, width: usize) -> Backend {
        match self {
            Backend::Auto => {
                if width <= AUTO_SAT_CROSSOVER_WIDTH {
                    Backend::Bdd
                } else {
                    Backend::Sat
                }
            }
            b => b,
        }
    }
}

/// Outcome of [`prove_net`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProveResult {
    /// The property net is the constant true: equivalence holds for every
    /// input assignment at this width.
    Proved {
        /// The engine that closed the proof.
        backend: Backend,
    },
    /// A violating assignment over the netlist's `Input` nets (nets absent
    /// from the map are don't-cares; callers default them to false).
    Counterexample {
        /// The engine that found the assignment.
        backend: Backend,
        /// Input net values of the violating assignment.
        inputs: BTreeMap<Net, bool>,
    },
}

impl ProveResult {
    /// Whether the property was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProveResult::Proved { .. })
    }
}

/// Proves that the single-bit property net `root` is constant-true over
/// all assignments to the netlist's primary inputs, or produces a
/// counterexample assignment.
///
/// `width` drives the [`Backend::Auto`] crossover; `var_order` fixes the
/// BDD variable order for input nets (interleaving the operands of an
/// arithmetic miter keeps BDDs polynomial where a bad order explodes) —
/// input nets missing from it are ordered after the listed ones.
///
/// Every gate proof takes one path: the cone is lowered to the
/// structurally hashed AIG ([`from_netlist`]), a constant root is the
/// verdict, and otherwise the resolved engine (BDD or CDCL SAT) runs on
/// that AIG. Registry miters all fold to a constant during lowering.
pub fn prove_net(
    nl: &Netlist,
    root: Net,
    backend: Backend,
    width: usize,
    var_order: &[Net],
) -> ProveResult {
    // Content-addressed certificate cache (when installed): the key is the
    // canonical obligation transcript, so a hit is the *same* obligation
    // proved earlier — serve its result. Cached counterexamples are
    // re-evaluated against the live netlist before being trusted.
    let key = crate::cache::prove_cache_installed()
        .then(|| crate::cache::prove_key(nl, root, backend, width, var_order));
    if let Some(result) = key.as_ref().and_then(|k| crate::cache::cached_prove(k, nl, root)) {
        return result;
    }
    let result = prove_net_uncached(nl, root, backend.resolve(width), var_order);
    if let Some(key) = &key {
        crate::cache::store_prove(key, &result);
    }
    result
}

/// Does nothing. It remains only because the repository benchmark
/// (`perfbench/src/gates.rs`) still passes one to [`prove_net_with`] and
/// [`prove_net_sweep_scheduled`](crate::prove_net_sweep_scheduled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptProfile;

impl OptProfile {
    /// The only profile. Reads no environment variable.
    pub fn from_env() -> OptProfile {
        OptProfile
    }
}

/// [`prove_net`] with an ignored [`OptProfile`], kept for the benchmark's
/// call site.
pub fn prove_net_with(
    nl: &Netlist,
    root: Net,
    backend: Backend,
    width: usize,
    var_order: &[Net],
    _opt: OptProfile,
) -> ProveResult {
    prove_net(nl, root, backend, width, var_order)
}

fn prove_net_uncached(
    nl: &Netlist,
    root: Net,
    resolved: Backend,
    var_order: &[Net],
) -> ProveResult {
    let _span = telemetry::span!("prove_net");
    let (aig, roots, input_map) = from_netlist(nl, &[root]);
    telemetry::record("prove.aig_and_requests", aig.and_requests);
    telemetry::record("prove.aig_nodes", aig.and_count() as u64);
    let aroot = roots[0];
    if aroot == AIG_TRUE {
        // Structural hashing closed the miter: both sides are one node.
        return ProveResult::Proved { backend: resolved };
    }
    if aroot == AIG_FALSE {
        // Property is constantly false: any assignment violates it.
        return ProveResult::Counterexample { backend: resolved, inputs: BTreeMap::new() };
    }
    match resolved {
        Backend::Bdd => {
            // Honour the requested input order on the AIG's input nodes.
            let order: Vec<u32> = var_order
                .iter()
                .filter_map(|n| input_map.get(n).map(|r| r.node()))
                .collect();
            match aig_bdd_cex(&aig, aroot, &order) {
                None => ProveResult::Proved { backend: Backend::Bdd },
                Some(model) => {
                    let inputs = input_map
                        .iter()
                        .filter_map(|(net, r)| model.get(&r.node()).map(|&b| (*net, b)))
                        .collect();
                    ProveResult::Counterexample { backend: Backend::Bdd, inputs }
                }
            }
        }
        _ => {
            let mut solver = Solver::new();
            // Plaisted–Greenbaum, seeded from the edge actually asserted
            // (the property's negation): single-polarity nodes get 1–2
            // clauses, not 3.
            let enc = tseitin_pg(&aig, !aroot, &mut solver);
            solver.add_clause(&[enc.lit]);
            telemetry::record("prove.cnf_clauses", solver.num_clauses() as u64);
            let result = solver.solve();
            let st = solver.stats();
            telemetry::counter("sat.decisions", st.decisions);
            telemetry::counter("sat.conflicts", st.conflicts);
            telemetry::counter("sat.propagations", st.propagations);
            telemetry::counter("sat.learned_clauses", st.learned_clauses);
            telemetry::counter("sat.restarts", st.restarts);
            match result {
                SatResult::Unsat => ProveResult::Proved { backend: Backend::Sat },
                SatResult::Sat(model) => {
                    let inputs = input_map
                        .iter()
                        .map(|(net, r)| {
                            let var = enc.var_of_node.get(&r.node());
                            // Inputs outside the encoded cone are don't-cares.
                            (*net, var.is_some_and(|v| model[*v as usize]))
                        })
                        .collect();
                    ProveResult::Counterexample { backend: Backend::Sat, inputs }
                }
            }
        }
    }
}

/// BDD tautology check of an AIG edge: `None` when `root` is constant
/// true, otherwise a falsifying assignment over the graph's input node
/// ids. `var_order` lists input node ids to order first.
fn aig_bdd_cex(aig: &Aig, root: AigRef, var_order: &[u32]) -> Option<BTreeMap<u32, bool>> {
    let mut bdd = crate::bdd::Bdd::new();
    let mut var_of_node: BTreeMap<u32, u32> = BTreeMap::new();
    for (i, &n) in var_order.iter().enumerate() {
        var_of_node.insert(n, i as u32);
    }
    let mut next_var = var_order.len() as u32;
    let mut refs: Vec<crate::bdd::Ref> = Vec::with_capacity(aig.len());
    for i in 0..aig.len() as u32 {
        let r = match aig.node(AigRef::from_node(i)) {
            AigNode::Const => crate::bdd::FALSE,
            AigNode::Input => {
                let v = *var_of_node.entry(i).or_insert_with(|| {
                    let v = next_var;
                    next_var += 1;
                    v
                });
                bdd.var(v)
            }
            AigNode::And(x, y) => {
                let vx = refs[x.node() as usize];
                let vx = if x.is_compl() { bdd.not(vx) } else { vx };
                let vy = refs[y.node() as usize];
                let vy = if y.is_compl() { bdd.not(vy) } else { vy };
                bdd.and(vx, vy)
            }
        };
        refs.push(r);
    }
    telemetry::record("prove.bdd_nodes", bdd.node_count() as u64);
    let r = refs[root.node() as usize];
    let r = if root.is_compl() { bdd.not(r) } else { r };
    if bdd.is_true(r) {
        return None;
    }
    let nr = bdd.not(r);
    let sat = bdd.any_sat(nr).expect("non-true BDD has a falsifying assignment");
    let node_of_var: BTreeMap<u32, u32> = var_of_node.iter().map(|(n, v)| (*v, *n)).collect();
    Some(
        sat.into_iter()
            .filter_map(|(v, b)| node_of_var.get(&v).map(|n| (*n, b)))
            .collect(),
    )
}

/// Builds the implication `assumptions → property` as a single net:
/// the standard shape of a conditional equivalence obligation (e.g.
/// "divisor nonzero implies quotient/remainder match").
pub fn implies_net(nl: &mut Netlist, assumptions: &[Net], property: Net) -> Net {
    let mut pre = nl.constant(true);
    for &a in assumptions {
        pre = nl.and(pre, a);
    }
    let npre = nl.not(pre);
    nl.or(npre, property)
}

/// Bitwise equality of two netlist words as a single net (zero-extending
/// the shorter side) — the miter-building counterpart of [`words_equal`].
pub fn nets_equal(nl: &mut Netlist, a: &Word<Net>, b: &Word<Net>) -> Net {
    let w = a.width().max(b.width());
    let zero = nl.constant(false);
    let mut acc = nl.constant(true);
    for i in 0..w {
        let x = a.bits.get(i).copied().unwrap_or(zero);
        let y = b.bits.get(i).copied().unwrap_or(zero);
        let ne = nl.xor(x, y);
        let eq = nl.not(ne);
        acc = nl.and(acc, eq);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bdd::Bdd;
    use crate::bitblast::{add_words, constant_word};
    use chicala_chisel::{elaborate, examples};
    use chicala_bigint::BigInt;

    #[test]
    fn rotate_unrolls_to_identity_bdd() {
        // After 1 + len cycles the rotate register equals the input — as a
        // *theorem over all inputs* at this width, proved by BDD.
        let len = 5usize;
        let m = examples::rotate_example();
        let em = elaborate(&m, &[("len".to_string(), len as i64)].into_iter().collect())
            .expect("elaborates");
        let mut bdd = Bdd::new();
        let inputs = fresh_inputs(&em, |_, i, b: &mut Bdd| b.var(i as u32), &mut bdd);
        let st = unroll(&em, &mut bdd, &inputs, &BTreeMap::new(), len + 1)
            .expect("unrolls");
        let eq = words_equal(&mut bdd, &st.regs["R"], &inputs["io_in"]);
        assert!(bdd.is_true(eq), "rotate identity fails at width {len}");
    }

    #[test]
    fn rotate_wrong_cycle_count_fails() {
        let len = 5usize;
        let m = examples::rotate_example();
        let em = elaborate(&m, &[("len".to_string(), len as i64)].into_iter().collect())
            .expect("elaborates");
        let mut bdd = Bdd::new();
        let inputs = fresh_inputs(&em, |_, i, b: &mut Bdd| b.var(i as u32), &mut bdd);
        let st = unroll(&em, &mut bdd, &inputs, &BTreeMap::new(), len).expect("unrolls");
        let eq = words_equal(&mut bdd, &st.regs["R"], &inputs["io_in"]);
        assert!(!bdd.is_true(eq), "one cycle short must not be the identity");
    }

    #[test]
    fn prove_net_backends_agree_on_adder_commutativity() {
        // a + b == b + a at width 6, proved by both engines.
        let mut nl = crate::netlist::Netlist::new();
        let w = 6usize;
        let a = Word { bits: (0..w).map(|_| nl.input()).collect::<Vec<_>>(), signed: false };
        let b = Word { bits: (0..w).map(|_| nl.input()).collect::<Vec<_>>(), signed: false };
        let ab = add_words(&mut nl, &a, &b, w);
        let ba = add_words(&mut nl, &b, &a, w);
        let eq = nets_equal(&mut nl, &ab, &ba);
        let order: Vec<crate::netlist::Net> = (0..w)
            .flat_map(|i| [a.bits[i], b.bits[i]])
            .collect();
        assert!(prove_net(&nl, eq, Backend::Bdd, w, &order).is_proved());
        assert!(prove_net(&nl, eq, Backend::Sat, w, &order).is_proved());
        assert!(prove_net(&nl, eq, Backend::Auto, w, &order).is_proved());
    }

    #[test]
    fn prove_net_counterexamples_are_real() {
        // a + b == a - b is falsifiable; both engines must return an
        // assignment that actually falsifies the net.
        let mut nl = crate::netlist::Netlist::new();
        let w = 4usize;
        let a = Word { bits: (0..w).map(|_| nl.input()).collect::<Vec<_>>(), signed: false };
        let b = Word { bits: (0..w).map(|_| nl.input()).collect::<Vec<_>>(), signed: false };
        let sum = add_words(&mut nl, &a, &b, w);
        // a - b = a + ~b + 1.
        let nb = Word {
            bits: b.bits.iter().map(|&x| nl.not(x)).collect::<Vec<_>>(),
            signed: false,
        };
        let sum1 = add_words(&mut nl, &a, &nb, w);
        let one = constant_word(&mut nl, &BigInt::one(), w, false);
        let diff = add_words(&mut nl, &sum1, &one, w);
        let eq = nets_equal(&mut nl, &sum, &diff);
        for backend in [Backend::Bdd, Backend::Sat] {
            match prove_net(&nl, eq, backend, w, &[]) {
                ProveResult::Proved { .. } => panic!("{backend:?}: a+b == a-b is not valid"),
                ProveResult::Counterexample { inputs, .. } => {
                    let vals = nl.eval(&|net| inputs.get(&net).copied().unwrap_or(false));
                    assert!(
                        !vals[eq.0 as usize],
                        "{backend:?} returned a non-falsifying counterexample"
                    );
                }
            }
        }
    }

    #[test]
    fn auto_backend_crossover_picks_engines_by_width() {
        assert_eq!(Backend::Auto.resolve(AUTO_SAT_CROSSOVER_WIDTH), Backend::Bdd);
        assert_eq!(Backend::Auto.resolve(AUTO_SAT_CROSSOVER_WIDTH + 1), Backend::Sat);
        assert_eq!(Backend::Bdd.resolve(64), Backend::Bdd);
        assert_eq!(Backend::Sat.resolve(1), Backend::Sat);
    }

    #[test]
    fn implies_net_shape() {
        let mut nl = crate::netlist::Netlist::new();
        let a = nl.input();
        let p = nl.input();
        let imp = implies_net(&mut nl, &[a], p);
        for bits in 0..4u32 {
            let vals = nl.eval(&|net| {
                if net == a {
                    bits & 1 == 1
                } else {
                    bits & 2 == 2
                }
            });
            let want = (bits & 1 != 1) || (bits & 2 == 2);
            assert_eq!(vals[imp.0 as usize], want);
        }
    }

    #[test]
    fn word_arithmetic_against_reference() {
        // add_words in the BDD kit agrees with integer addition on
        // constants.
        let mut bdd = Bdd::new();
        let a = constant_word(&mut bdd, &BigInt::from(13), 6, false);
        let b = constant_word(&mut bdd, &BigInt::from(25), 6, false);
        let s = add_words(&mut bdd, &a, &b, 6);
        let expect = constant_word(&mut bdd, &BigInt::from(38), 6, false);
        let eq = words_equal(&mut bdd, &s, &expect);
        assert!(bdd.is_true(eq));
    }
}
