//! Fuzz harness: incremental width-sweep vs one-shot on *generated* cones.
//!
//! For a sweep of fuzzer seeds, the self-miter cone of each generated
//! module (original vs `when`-flattened, equal by construction) is built
//! at a family of sampled widths and driven through the incremental sweep
//! session with the A/B tripwire on: every per-width verdict must agree
//! byte-for-byte with the one-shot `prove_net` path. Falsified
//! variants (the property strengthened by a raw input bit) check the
//! counterexample side: the sweep must report the one-shot model bytes
//! and that model must actually falsify the cone under concrete
//! evaluation of the graph.
//!
//! The injected-bug drill then retains a width-dependent clause across
//! retirement on purpose (`prove_net_sweep_drill`): a falsifiable later
//! width is wrongly reported proved by the raw session, and the A/B
//! verification must record the divergence — proving the tripwire can
//! catch exactly the class of soundness bug incremental reuse risks.

use chicala_chisel::{elaborate, flatten_whens, Bindings};
use chicala_gen::{gen_module, MITER_CYCLES};
use chicala_lowlevel::{
    fresh_inputs, nets_equal, prove_net, prove_net_sweep, prove_net_sweep_drill, unroll, Backend,
    BitKit, Net, Netlist, ProveResult, SweepItem,
};
use std::collections::BTreeMap;

/// The self-miter cone of generated module `seed` at `width`, plus one
/// raw input net for building falsified variants.
fn miter_cone(seed: u64, width: u64) -> (Netlist, Net, Net) {
    let g = gen_module(seed);
    let flat = flatten_whens(&g.module).expect("generated modules flatten");
    let b: Bindings = [("len".to_string(), width as i64)].into_iter().collect();
    let em = elaborate(&g.module, &b).expect("elaborates");
    let em_flat = elaborate(&flat, &b).expect("flattened side elaborates");
    let mut nl = Netlist::new();
    let inputs = fresh_inputs(&em, |_, _, kit: &mut Netlist| kit.input(), &mut nl);
    let st = unroll(&em, &mut nl, &inputs, &BTreeMap::new(), MITER_CYCLES).expect("unrolls");
    let st_flat =
        unroll(&em_flat, &mut nl, &inputs, &BTreeMap::new(), MITER_CYCLES).expect("unrolls");
    let mut property = nl.constant(true);
    for (name, w) in st.outputs.iter().chain(&st.regs) {
        let other = st_flat
            .outputs
            .get(name)
            .or_else(|| st_flat.regs.get(name))
            .unwrap_or_else(|| panic!("`{name}` missing from flattened side"));
        let eq = nets_equal(&mut nl, w, other);
        property = nl.and(property, eq);
    }
    let probe = inputs
        .values()
        .next()
        .and_then(|w| w.bits.first())
        .copied()
        .expect("generated modules have at least one input bit");
    (nl, property, probe)
}

/// Widths straddling the `Auto` crossover (≤ 6 goes BDD, above goes to
/// the incremental SAT session), ascending as the sweep expects.
const WIDTHS: [u64; 4] = [4, 7, 9, 12];

#[test]
fn sweep_verdicts_agree_with_oneshot_on_generated_cones() {
    for seed in [0u64, 1, 2, 3, 5, 8, 13, 21] {
        let cones: Vec<(Netlist, Net, Net)> =
            WIDTHS.iter().map(|&w| miter_cone(seed, w)).collect();
        let items: Vec<SweepItem<'_>> = cones
            .iter()
            .zip(WIDTHS)
            .map(|((nl, property, _), width)| SweepItem {
                nl,
                root: *property,
                width,
                var_order: Vec::new(),
            })
            .collect();
        let report = prove_net_sweep(&items, Backend::Auto, true);
        assert_eq!(
            report.stats.divergences, 0,
            "seed {seed}: sweep disagreed with one-shot on a valid family"
        );
        for (o, (nl, property, _)) in report.outcomes.iter().zip(&cones) {
            let oneshot = prove_net(nl, *property, Backend::Auto, o.width as usize, &[]);
            assert_eq!(
                o.result, oneshot,
                "seed {seed} width {}: reports must be byte-identical",
                o.width
            );
            assert!(o.result.is_proved(), "seed {seed}: self-miter is valid by construction");
        }
    }
}

#[test]
fn sweep_counterexamples_agree_with_oneshot_and_falsify_the_cone() {
    for seed in [0u64, 2, 5, 9] {
        // Strengthen each cone by a raw input bit: the property is now
        // falsifiable (set that bit low), exercising the model path.
        let cones: Vec<(Netlist, Net)> = WIDTHS
            .iter()
            .map(|&w| {
                let (mut nl, property, probe) = miter_cone(seed, w);
                let broken = nl.and(property, probe);
                (nl, broken)
            })
            .collect();
        let items: Vec<SweepItem<'_>> = cones
            .iter()
            .zip(WIDTHS)
            .map(|((nl, broken), width)| SweepItem {
                nl,
                root: *broken,
                width,
                var_order: Vec::new(),
            })
            .collect();
        let report = prove_net_sweep(&items, Backend::Auto, true);
        assert_eq!(report.stats.divergences, 0, "seed {seed}: cex verdicts must agree");
        for (o, (nl, broken)) in report.outcomes.iter().zip(&cones) {
            match &o.result {
                ProveResult::Counterexample { inputs, .. } => {
                    let vals = nl.eval_all(&|input| inputs.get(&input).copied().unwrap_or(false));
                    assert!(
                        !broken.value(&vals),
                        "seed {seed} width {}: reported model must falsify the cone",
                        o.width
                    );
                }
                ProveResult::Proved { .. } => {
                    panic!("seed {seed} width {}: broken cone cannot prove", o.width)
                }
            }
        }
    }
}

/// A valid identity the strash layer cannot fold (the two sides ripple
/// through different carry networks): `a+b == (a^b) + 2*(a&b)` over `w`
/// fresh input bits per side. The drill needs a cone that actually
/// reaches the solver — generated self-miters usually fold structurally,
/// retaining nothing.
fn addxor_cone(w: usize) -> (Netlist, Net) {
    let mut nl = Netlist::new();
    let a: Vec<Net> = (0..w).map(|_| nl.input()).collect();
    let b: Vec<Net> = (0..w).map(|_| nl.input()).collect();
    let ripple = |nl: &mut Netlist, xs: &[Net], ys: &[Net]| -> Vec<Net> {
        let mut carry = nl.constant(false);
        let mut out = Vec::with_capacity(w);
        for i in 0..w {
            let s1 = nl.xor(xs[i], ys[i]);
            out.push(nl.xor(s1, carry));
            let c1 = nl.and(xs[i], ys[i]);
            let c2 = nl.and(s1, carry);
            carry = nl.or(c1, c2);
        }
        out
    };
    let lhs = ripple(&mut nl, &a, &b);
    let x: Vec<Net> = (0..w).map(|i| nl.xor(a[i], b[i])).collect();
    let and2: Vec<Net> = (0..w).map(|i| nl.and(a[i], b[i])).collect();
    let zero = nl.constant(false);
    let shifted: Vec<Net> = std::iter::once(zero).chain(and2).take(w).collect();
    let rhs = ripple(&mut nl, &x, &shifted);
    let mut property = nl.constant(true);
    for i in 0..w {
        let eq = nl.xor(lhs[i], rhs[i]);
        let eq = nl.not(eq);
        property = nl.and(property, eq);
    }
    (nl, property)
}

#[test]
fn drill_retained_clause_is_caught_by_ab_verification() {
    // A valid non-folding cone first (its root is retained unguarded by
    // the drill, poisoning the session), then a falsifiable generated one
    // at a SAT-resolved width: the raw session wrongly proves it, and
    // verify_ab must both catch the lie and report the honest one-shot
    // bytes.
    let (nl_good, good) = addxor_cone(7);
    let (mut nl_bad, property, probe) = miter_cone(1, 9);
    let broken = nl_bad.and(property, probe);
    let items = [
        SweepItem { nl: &nl_good, root: good, width: 7, var_order: Vec::new() },
        SweepItem { nl: &nl_bad, root: broken, width: 9, var_order: Vec::new() },
    ];
    let report = prove_net_sweep_drill(&items, Backend::Auto, true);
    assert!(
        report.stats.divergences >= 1,
        "the A/B tripwire must catch the drill's retained clause"
    );
    // And the *reported* outcomes are still the honest one-shot ones.
    match &report.outcomes[1].result {
        ProveResult::Counterexample { .. } => {}
        ProveResult::Proved { .. } => panic!("verify_ab must repair the drill's wrong verdict"),
    }
}
