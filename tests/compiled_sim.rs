//! Differential validation of the compiled simulation backend: for every
//! registered design, seeded cases run under `SimBackend::Both`, which
//! records the slot-indexed VMs (`CompiledSim` / `SeqVm`) beside the
//! tree-walking interpreters over the case's inputs and compares every
//! layer with the reference interpreter, reporting any disagreement on
//! any output or register of any cycle as a divergence (the `SeqVm` may
//! stop at its `i128` envelope instead). A green run is the compiled
//! backend's correctness certificate; the report-digest test
//! additionally pins worker-count independence and backend independence of
//! the green-run coverage stats.

use chicala::conformance::{
    self, all_designs, check_case_with, gen_case_for, Config, Layer, SimBackend,
};
use std::fmt::Write as _;

/// Cross-check every design on both differential layers the backend
/// drives, across a seeded spread of widths and stimuli.
#[test]
fn both_backend_agrees_on_every_design() {
    for (di, d) in all_designs().iter().enumerate() {
        for layer in [Layer::Cosim, Layer::Spec] {
            let mut rng = conformance::SplitMix64::new(0xC0DE_51D3 ^ (di as u64) << 8);
            for i in 0..10 {
                let case_seed = rng.next_u64();
                let case = gen_case_for(d, layer, case_seed, 24);
                check_case_with(d, layer, &case, SimBackend::Both).unwrap_or_else(|e| {
                    panic!(
                        "design `{}` layer `{layer}` case {i} (seed 0x{case_seed:016X}): {e}",
                        d.name
                    )
                });
            }
        }
    }
}

/// Wide widths overflow the sequential VM's `i128` envelope; the engine
/// must fall back to the interpreters per case, and `Both` mode must stay
/// green while doing so.
#[test]
fn wide_widths_fall_back_cleanly() {
    for d in all_designs().iter().take(2) {
        let case = gen_case_for(d, Layer::Cosim, 0x5EED_CAFE, 150);
        check_case_with(d, Layer::Cosim, &case, SimBackend::Both)
            .unwrap_or_else(|e| panic!("design `{}` at wide width: {e}", d.name));
    }
}

/// Canonical, timing-free rendering of a report (the timing fields are the
/// one thing scheduling and backend choice are allowed to change).
fn digest(report: &conformance::Report) -> String {
    let mut out = String::new();
    for ((design, layer), st) in &report.stats {
        writeln!(
            out,
            "{design} {layer} cases={} skipped={} widths={}..{} cycles={}",
            st.cases, st.skipped, st.min_width, st.max_width, st.cycles
        )
        .expect("write to string");
    }
    for f in &report.failures {
        writeln!(
            out,
            "FAIL {} {} seed=0x{:016X} cap={} case=({}) shrunk=({}) msg={}",
            f.design, f.layer, f.case_seed, f.max_width, f.case, f.shrunk, f.message
        )
        .expect("write to string");
    }
    out
}

/// One test (not several) so the `CHICALA_WORKERS` mutations can't race
/// against each other inside this binary.
#[test]
fn compiled_report_is_identical_across_workers_and_backends() {
    let cfg = |backend| Config {
        seed: 0xC0DE_D15C_0C0D_5EED,
        cases: 6,
        max_width: 16,
        layers: vec![Layer::Cosim, Layer::Spec],
        stop_at_first: true,
        backend,
    };
    // Compiled backend, 1 vs 8 workers: byte-identical report.
    let mut digests = Vec::new();
    for workers in ["1", "8"] {
        std::env::set_var("CHICALA_WORKERS", workers);
        let report = conformance::run_all(&cfg(SimBackend::Compiled));
        digests.push((workers, digest(&report)));
    }
    std::env::remove_var("CHICALA_WORKERS");
    let (_, baseline) = &digests[0];
    assert!(!baseline.is_empty(), "digest covers every design/layer cell");
    assert_eq!(
        &digests[1].1, baseline,
        "compiled-backend report diverged between 1 and 8 workers"
    );
    // Interp backend, same seed: a green run's coverage is a pure function
    // of the seed, so the digest must not depend on the backend either.
    let report = conformance::run_all(&cfg(SimBackend::Interp));
    assert_eq!(
        &digest(&report),
        baseline,
        "green-run report diverged between interp and compiled backends"
    );
}
