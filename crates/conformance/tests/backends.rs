//! SAT-vs-BDD-vs-spec agreement on the formal gate-level obligations.
//!
//! Every registered design's design-vs-golden miter must be proved by
//! *both* engines at every width up to 6 (the Auto crossover), and at tiny
//! widths the miter is additionally evaluated exhaustively over every
//! input assignment and cross-checked against the mathematical spec layer.
//! The netlist folds every registry miter to the constant-true net as it is
//! built, so both engines answer from that constant root here; the engines
//! themselves are exercised by `crates/lowlevel`'s tests and the sweep
//! families.

use chicala_bigint::BigInt;
use chicala_conformance::{all_designs, check_case, formal_gate_obligation, Case, Layer};
use chicala_lowlevel::{from_netlist, prove_net, Backend, Gate, AIG_TRUE};
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
    // prove path: every golden model's miter is constant-true by the time
    // it is lowered (the netlist folds it as it is built, pinned by the
    // next test), so no cone reaches an engine. A golden model that stops
    // folding fails here rather than silently costing SAT time.
    for d in all_designs() {
        let width = d.gate_max_width;
        assert!(width >= 16, "{}: ceiling {width} below the lifted floor", d.name);
        let ob = formal_gate_obligation(&d, width)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name))
            .expect("golden model registered");
        assert_eq!(Backend::Auto.resolve(width as usize), Backend::Sat);
        let (_, roots, _) = from_netlist(&ob.netlist, &[ob.property]);
        assert_eq!(
            roots[0], AIG_TRUE,
            "{} at ceiling width {width}: lowered miter no longer folds",
            d.name
        );
        let r = prove_net(&ob.netlist, ob.property, Backend::Auto, width as usize, &ob.var_order);
        assert!(r.is_proved(), "{} at ceiling width {width}: {r:?}", d.name);
    }
}

#[test]
fn every_property_is_the_constant_true_net_as_built() {
    // The netlist folds its unit rules while the obligation is built, so
    // the miter is already the constant-true net before any lowering. A
    // golden model or design change that stops this fails here.
    for d in all_designs() {
        let middle = (d.min_width + d.gate_max_width) / 2;
        for width in [d.min_width, middle, d.gate_max_width] {
            let ob = formal_gate_obligation(&d, width)
                .unwrap_or_else(|e| panic!("{}: {e}", d.name))
                .expect("golden model registered");
            assert_eq!(
                ob.netlist.gate(ob.property),
                Gate::Const(true),
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
                let vals = ob.netlist.eval(&|net| {
                    bits.iter()
                        .position(|&b| b == net)
                        .is_some_and(|i| (assignment >> i) & 1 == 1)
                });
                assert!(
                    vals[ob.property.0 as usize],
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
