//! SAT-vs-BDD-vs-spec agreement on the formal gate-level obligations.
//!
//! Every registered design's design-vs-golden miter must be proved by
//! *both* engines at every width up to 6 (the Auto crossover), and at tiny
//! widths the miter is additionally evaluated exhaustively over every
//! input assignment and cross-checked against the mathematical spec layer.
//! The AIG kit folds every registry miter to the constant-true edge as it
//! is built, so both engines answer from that constant root here; a copy
//! of `rmul` with a wrong golden model takes the counterexample path
//! through both engines, the cosim replay and failure capture.

use chicala_bigint::BigInt;
use chicala_conformance::{
    all_designs, capture_traces, check_case, formal_gate_obligation, Case, Design, GateEnv, Layer,
};
use chicala_lowlevel::{
    constant_word, nets_equal, prove_net, Backend, Net, Netlist, ProveResult, AIG_TRUE,
};
use std::collections::BTreeMap;

#[test]
fn both_backends_prove_every_design_up_to_width_6() {
    for d in all_designs() {
        for width in d.min_width..=6 {
            let ob = formal_gate_obligation(&d, width)
                .unwrap_or_else(|e| panic!("{}: {e}", d.name))
                .unwrap_or_else(|| panic!("{}: registry has no golden model", d.name));
            for backend in [Backend::Bdd, Backend::Sat] {
                let r = prove_net(&ob.netlist, ob.property, backend, width as usize, &ob.var_order);
                assert!(
                    r.is_proved(),
                    "{} at width {width}, {backend:?} backend: {r:?}",
                    d.name
                );
            }
        }
    }
}

#[test]
fn sat_closes_every_design_at_its_ceiling_width() {
    // The tentpole claim: at each design's raised `gate_max_width` (≥ 24,
    // ≥ 16 for the Booth multiplier) the Auto backend resolves to SAT and
    // every miter comes back UNSAT (proved). The premise behind the single
    // prove path: every golden model's miter is the constant-true edge as
    // built (pinned by the next test), so no cone reaches an engine.
    for d in all_designs() {
        let width = d.gate_max_width;
        assert!(width >= 16, "{}: ceiling {width} below the lifted floor", d.name);
        let ob = formal_gate_obligation(&d, width)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name))
            .expect("golden model registered");
        assert_eq!(Backend::Auto.resolve(width as usize), Backend::Sat);
        let r = prove_net(&ob.netlist, ob.property, Backend::Auto, width as usize, &ob.var_order);
        assert!(r.is_proved(), "{} at ceiling width {width}: {r:?}", d.name);
    }
}

#[test]
fn every_property_is_the_constant_true_net_as_built() {
    // The AIG folds as the obligation is built, so the miter is the
    // constant-true edge before any engine runs. A golden model or design
    // change that stops this fails here.
    for d in all_designs() {
        let middle = (d.min_width + d.gate_max_width) / 2;
        for width in [d.min_width, middle, d.gate_max_width] {
            let ob = formal_gate_obligation(&d, width)
                .unwrap_or_else(|e| panic!("{}: {e}", d.name))
                .expect("golden model registered");
            assert_eq!(
                ob.property, AIG_TRUE,
                "{} at width {width}: property is not the constant-true net",
                d.name
            );
        }
    }
}

#[test]
fn miters_agree_with_exhaustive_evaluation_and_spec_at_tiny_widths() {
    for d in all_designs() {
        for width in d.min_width..=3 {
            let ob = formal_gate_obligation(&d, width)
                .unwrap_or_else(|e| panic!("{}: {e}", d.name))
                .expect("golden model registered");
            // Flatten the input bits in port order for enumeration.
            let bits: Vec<_> = ob
                .inputs
                .values()
                .flat_map(|w| w.bits.iter().copied())
                .collect();
            assert!(bits.len() <= 12, "tiny widths stay enumerable");
            for assignment in 0u64..(1 << bits.len()) {
                let vals = ob.netlist.eval_all(&|input| {
                    bits.iter()
                        .position(|&b| b == input)
                        .is_some_and(|i| (assignment >> i) & 1 == 1)
                });
                assert!(
                    ob.property.value(&vals),
                    "{} at width {width}: miter is false for assignment {assignment:#b}",
                    d.name
                );
                // The same stimulus through the spec layer: decode the
                // assignment back into per-port values in registry order.
                let mut offsets = BTreeMap::new();
                let mut off = 0usize;
                for (name, w) in &ob.inputs {
                    offsets.insert(name.clone(), (off, w.width()));
                    off += w.width();
                }
                let inputs: Vec<BigInt> = d
                    .inputs
                    .iter()
                    .map(|spec| {
                        let (lo, w) = offsets[spec.name];
                        BigInt::from((assignment >> lo) & ((1 << w) - 1))
                    })
                    .collect();
                let case = Case { width, cycles: (d.latency)(width), inputs };
                check_case(&d, Layer::Spec, &case)
                    .unwrap_or_else(|e| panic!("{} at width {width}: spec layer: {e}", d.name));
            }
        }
    }
}

/// A wrong golden model for `rmul`: demands `acc == 0`, noting that zero
/// word as the golden `acc`. Any inputs with a nonzero product violate it.
fn zero_acc_gate(nl: &mut Netlist, env: &GateEnv) -> Net {
    let acc = &env.state.regs["acc"];
    let zero = constant_word(nl, &BigInt::zero(), acc.width(), false);
    env.note_golden("acc", &zero);
    nets_equal(nl, acc, &zero)
}

#[test]
fn a_wrong_golden_model_is_refuted_and_replayed_by_both_engines() {
    // Every registry golden model proves, so only a deliberately wrong one
    // reaches the counterexample path: engine model → input keys → graph
    // evaluation → cosim replay → miter trace.
    let rmul = Design::by_name("rmul").expect("registered");
    let d = Design { name: "rmul_zero_golden", gate_spec: Some(zero_acc_gate), ..rmul };
    // The decoded models are pinned: a change means the engines' search
    // or the counterexample's input keys changed.
    for (width, engine, model) in [(4, Backend::Bdd, (8, 8)), (12, Backend::Sat, (1154, 1599))] {
        assert_eq!(Backend::Auto.resolve(width as usize), engine);
        let ob = formal_gate_obligation(&d, width).expect("builds").expect("has a golden model");
        match prove_net(&ob.netlist, ob.property, Backend::Auto, width as usize, &ob.var_order) {
            ProveResult::Counterexample { backend, .. } => {
                assert_eq!(backend, engine, "width {width}")
            }
            r => panic!("width {width}: acc == 0 must be refuted, got {r:?}"),
        }
        let case = Case {
            width,
            cycles: (d.latency)(width),
            inputs: vec![BigInt::zero(), BigInt::zero()],
        };
        let err = check_case(&d, Layer::Gates, &case).expect_err("the golden model is wrong");
        assert!(
            err.contains("golden model diverges") && err.contains("(cosim replay agrees)"),
            "width {width}: {err}"
        );
        let (traces, div) = capture_traces(&d, Layer::Gates, &case);
        assert_eq!(traces.len(), 1, "width {width}: one miter trace");
        let div = div.expect("the divergence is marked");
        assert_eq!((div.signal.as_str(), div.expected.as_str()), ("acc", "0"), "width {width}");
        let t = &traces[0];
        let (a, b) = model;
        assert_eq!(t.value(0, "io_a"), Some(&BigInt::from(a)), "width {width}: io_a");
        assert_eq!(t.value(0, "io_b"), Some(&BigInt::from(b)), "width {width}: io_b");
        assert_eq!(t.value(0, "acc"), Some(&BigInt::from(a * b)), "width {width}: acc");
    }
}
