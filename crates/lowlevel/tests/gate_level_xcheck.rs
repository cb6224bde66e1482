//! Gate-level cross-check: the bit-blasted design computes the same values
//! as the word-level interpreter, cycle by cycle. This validates the
//! bit-blaster (and hence the BDD baseline built on it).
//!
//! `gates_match_interpreter_all_designs` is a thin caller into the
//! conformance engine's gate layer (`crates/conformance`), which owns case
//! generation, the per-design width caps of the formal proofs, shrinking,
//! and seed replay. `eval_kit_matches_netlist_evaluation` pins the kit
//! that layer simulates with against building and evaluating the AIG.

use chicala_bigint::BigInt;
use chicala_chisel::{elaborate, ElabKind, ElabModule};
use chicala_conformance::{self as conformance, gen_case_for, Config, Layer, SplitMix64};
use chicala_lowlevel::{constant_word, unroll, Aig, BitKit, Eval, UnrolledState, Word};
use std::collections::BTreeMap;

#[test]
fn gates_match_interpreter_all_designs() {
    let cfg = Config {
        layers: vec![Layer::Gates],
        cases: 16,
        // Per-design `gate_max_width` caps apply on top of this; the
        // summary table reports skipped cases so the truncation is visible.
        max_width: 12,
        ..Config::default()
    };
    let report = conformance::run_all(&cfg);
    println!("{}", report.summary_table());
    for f in &report.failures {
        eprintln!("{f}");
    }
    assert!(report.ok(), "{} gate-level divergence(s)", report.failures.len());
    for ((design, layer), st) in &report.stats {
        assert!(st.cases > 0, "no gate cases ran for {design}/{layer}");
    }
}

/// Input words of `em` holding `values` as constant bits of `kit`.
fn constant_inputs<K: BitKit>(
    kit: &mut K,
    em: &ElabModule,
    values: &BTreeMap<String, BigInt>,
) -> BTreeMap<String, Word<K::Bit>> {
    em.signals
        .iter()
        .filter(|s| s.kind == ElabKind::Input)
        .map(|s| {
            let v = values.get(&s.name).cloned().unwrap_or_else(BigInt::zero);
            (s.name.clone(), constant_word(kit, &v, s.width as usize, s.signed))
        })
        .collect()
}

/// Every register and output word of an unrolled state, as plain bits.
fn state_bits<B>(st: &UnrolledState<B>, bit: impl Fn(&B) -> bool) -> Vec<(String, Vec<bool>)> {
    st.regs
        .iter()
        .chain(&st.outputs)
        .map(|(name, word)| (name.clone(), word.bits.iter().map(&bit).collect()))
        .collect()
}

/// The concrete kit agrees bit for bit with building the structurally
/// hashed AIG over the same constant inputs and evaluating it, on every
/// register and output, for every registry design at its minimum, a
/// middle and its top soak width. Over constant inputs the AIG's unit
/// rules fold every gate, so this also pins those rules.
#[test]
fn eval_kit_matches_netlist_evaluation() {
    const CASES_PER_WIDTH: usize = 3;
    let mut checked = 0;
    for d in conformance::all_designs() {
        let top = d.gate_max_width.min(24);
        for width in [d.min_width, (d.min_width + top) / 2, top] {
            let bindings = [("len".to_string(), width as i64)].into_iter().collect();
            let em = elaborate(&(d.build)(), &bindings).expect("elaborates");
            // Seeded cases drawn under `width` as the cap; keep those that
            // landed on it (generation is biased toward the cap).
            let mut rng = SplitMix64::new(0xC1CA_1A00 ^ width);
            let mut found = 0;
            for _ in 0..1000 {
                let case = gen_case_for(&d, Layer::Gates, rng.next_u64(), width);
                if case.width != width {
                    continue;
                }
                let values = case.input_map(&d);
                let cycles = case.cycles as usize;
                let mut eval = Eval;
                let inputs = constant_inputs(&mut eval, &em, &values);
                let got = unroll(&em, &mut eval, &inputs, &BTreeMap::new(), cycles)
                    .expect("blasts over Eval");
                let mut nl = Aig::new();
                let inputs = constant_inputs(&mut nl, &em, &values);
                let want = unroll(&em, &mut nl, &inputs, &BTreeMap::new(), cycles)
                    .expect("blasts over the AIG");
                let vals = nl.eval_all(&|_| false);
                assert_eq!(
                    state_bits(&got, |&b| b),
                    state_bits(&want, |n| n.value(&vals)),
                    "{} at width {width}, case {case}",
                    d.name
                );
                found += 1;
                if found == CASES_PER_WIDTH {
                    break;
                }
            }
            assert_eq!(found, CASES_PER_WIDTH, "{} at width {width}: too few cases", d.name);
            checked += found;
        }
    }
    assert!(checked > 0, "no registry designs");
}
