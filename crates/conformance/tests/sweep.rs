//! Incremental width-sweep vs one-shot agreement on registry designs.
//!
//! The sweep contract is byte-identity: for every (design, width), the
//! report produced by driving the whole family through one incremental
//! session (the serve `sweep` op's path: one shared kit from
//! `formal_gate_obligation_shared`, then `prove_net_sweep`) must equal what
//! the one-shot `prove_net` path returns for that width alone — same
//! verdict, same backend tag, same counterexample bytes. The `verify_ab`
//! tripwire re-proves every width one-shot inside the sweep itself and must
//! count zero divergences on a sound session.

use chicala_conformance::{
    all_designs, formal_gate_obligation, formal_gate_obligation_shared, Design,
};
use chicala_lowlevel::{prove_net, prove_net_sweep, Backend, Netlist, SweepItem, SweepReport};
use std::collections::BTreeMap;

/// A few cheap registry designs with golden models, enough to cover both
/// the one-shot BDD widths (≤ 6) and the SAT session above the crossover.
fn sample() -> Vec<Design> {
    all_designs()
        .into_iter()
        .filter(|d| d.gate_spec.is_some())
        .take(3)
        .collect()
}

/// Sweeps `d`'s gate obligations at `widths` (ascending) over one shared
/// hash-consed kit.
fn sweep(d: &Design, widths: &[u64], verify_ab: bool) -> SweepReport {
    let mut kit = Netlist::new();
    let mut shared_inputs = BTreeMap::new();
    let obs: Vec<_> = widths
        .iter()
        .map(|&w| {
            formal_gate_obligation_shared(d, w, &mut kit, &mut shared_inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", d.name))
                .expect("sampled designs have golden models")
        })
        .collect();
    let items: Vec<SweepItem<'_>> = obs
        .iter()
        .zip(widths)
        .map(|(ob, &width)| SweepItem {
            nl: &kit,
            root: ob.property,
            width,
            var_order: ob.var_order.clone(),
        })
        .collect();
    prove_net_sweep(&items, Backend::Auto, verify_ab)
}

#[test]
fn sweep_report_is_byte_identical_to_oneshot_per_width() {
    for d in sample() {
        let widths: Vec<u64> = (d.min_width..=d.min_width.max(2) + 8).collect();
        let report = sweep(&d, &widths, false);
        assert_eq!(report.outcomes.len(), widths.len());
        // Registry miters are constant nets as built: every width the
        // session saw closed structurally, and none reached the solver.
        assert_eq!(
            report.stats.folded, report.stats.widths,
            "{}: every session width must fold",
            d.name
        );
        assert_eq!(report.stats.sat_calls, 0, "{}: no registry width may reach SAT", d.name);
        for o in &report.outcomes {
            let ob = formal_gate_obligation(&d, o.width)
                .unwrap_or_else(|e| panic!("{}: {e}", d.name))
                .expect("sampled designs have golden models");
            let oneshot =
                prove_net(&ob.netlist, ob.property, Backend::Auto, o.width as usize, &ob.var_order);
            assert_eq!(
                o.result, oneshot,
                "{} at width {}: sweep and one-shot reports must be byte-identical",
                d.name, o.width
            );
            assert!(
                o.result.is_proved(),
                "{} at width {}: registry design must prove",
                d.name,
                o.width
            );
        }
    }
}

#[test]
fn sweep_ab_tripwire_is_quiet_on_sound_sessions() {
    for d in sample() {
        let widths: Vec<u64> = (d.min_width..=d.min_width.max(2) + 6).collect();
        let report = sweep(&d, &widths, true);
        assert!(report.all_proved(), "{}: family must prove", d.name);
        assert_eq!(
            report.stats.divergences, 0,
            "{}: verify_ab found sweep-vs-oneshot disagreements",
            d.name
        );
    }
}
