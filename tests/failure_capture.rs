//! End-to-end failure observability: a diverging conformance run must
//! leave behind a loadable, schema-versioned replay bundle plus per-layer
//! VCD waveforms, the bundle must replay byte-identically in-process, and
//! injected layer disagreements must be flagged at the first divergent
//! cycle/signal. Drives the engine through `rmul_drill` — the registry's
//! deliberately wrong drill design (its spec demands `acc == a*b + 1`).

use chicala::conformance::{
    self, check_case_with, gen_case_for, replay_case, Config, Design, Layer, SimBackend,
};
use chicala::trace::vcd::parse_vcd;
use chicala::trace::{first_divergence, mark_pair, ReplayBundle, SCHEMA_VERSION};

/// One test (not several) so the `CHICALA_FAILURES_DIR` mutation can't
/// race across test threads.
#[test]
fn drill_failure_captures_bundle_waveforms_and_replays_byte_identically() {
    let dir = std::env::temp_dir().join(format!(
        "chicala-failure-capture-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("CHICALA_FAILURES_DIR", &dir);

    let d = Design::by_name("rmul_drill").expect("drill design is registered");
    for backend in [SimBackend::Compiled, SimBackend::Both] {
        drill_under(&d, backend, &dir);
    }

    std::env::remove_var("CHICALA_FAILURES_DIR");
    std::fs::remove_dir_all(&dir).ok();
}

fn drill_config(backend: SimBackend) -> Config {
    Config {
        seed: 0xD111_0001,
        cases: 4,
        max_width: 8,
        layers: vec![Layer::Spec],
        backend,
        ..Config::default()
    }
}

/// Runs the drill under `backend`, checks its bundle and waveforms under
/// `dir`, and replays the bundle under the backend it recorded.
fn drill_under(d: &Design, backend: SimBackend, dir: &std::path::Path) {
    let report = conformance::run_design(d, &drill_config(backend));
    assert!(!report.ok(), "the drill spec must diverge");
    let failure = &report.failures[0];
    let bundle_path = failure
        .bundle
        .clone()
        .expect("a diverging case must emit a replay bundle");
    assert!(bundle_path.starts_with(dir), "CHICALA_FAILURES_DIR is honoured");

    // The bundle loads and matches the failure it was captured from.
    let bundle = ReplayBundle::load(&bundle_path).expect("bundle loads");
    assert_eq!(bundle.schema, SCHEMA_VERSION);
    assert_eq!(bundle.kind, "conformance");
    assert_eq!(bundle.design, "rmul_drill");
    assert_eq!(bundle.layer, failure.layer.name());
    assert_eq!(bundle.case_seed, failure.case_seed);
    assert_eq!(bundle.max_width, failure.max_width);
    assert_eq!(bundle.message, failure.message);
    assert!(!bundle.inputs.is_empty(), "shrunk inputs are carried");
    assert!(bundle.replay_cmd.contains("--replay"), "{}", bundle.replay_cmd);
    assert_eq!(bundle.sim_backend, backend.name());
    let flag = format!("--backend {backend}");
    assert!(bundle.replay_cmd.contains(&flag), "{}", bundle.replay_cmd);
    // The whole-run line re-runs the drill's soak under its own settings.
    let run = drill_config(backend);
    assert!(
        bundle.replay_env.starts_with(&format!("CHICALA_SEED=0x{:016X} ", run.seed)),
        "{}",
        bundle.replay_env
    );
    for setting in [
        "--design rmul_drill --layers spec".to_string(),
        format!("--cases {}", run.cases),
        format!("--max-width {}", run.max_width),
        flag,
    ] {
        assert!(bundle.replay_env.contains(&setting), "{setting}: {}", bundle.replay_env);
    }

    // Every recorded layer waveform exists as a sibling and parses back.
    assert!(!bundle.vcd_files.is_empty(), "waveforms were written");
    for name in &bundle.vcd_files {
        let text = std::fs::read_to_string(dir.join(name)).expect("vcd exists");
        let t = parse_vcd(&text).expect("vcd parses");
        assert!(!t.signals.is_empty(), "{name}: no signals");
        assert!(!t.is_empty(), "{name}: no cycles");
    }

    // Replaying the bundle's seed under its backend reproduces the
    // divergence byte for byte (the contract `examples/replay.rs
    // --bundle` checks via subprocess); `replay_case` replays under the
    // compiled backend.
    let layer = Layer::parse(&bundle.layer).expect("layer parses");
    let recorded = SimBackend::parse(&bundle.sim_backend).expect("backend parses");
    let case = gen_case_for(d, layer, bundle.case_seed, bundle.max_width);
    let replayed = check_case_with(d, layer, &case, recorded)
        .expect_err("the captured case still diverges");
    assert_eq!(replayed, bundle.message, "replay must reproduce byte-identically");
    if backend == SimBackend::Compiled {
        let replayed = replay_case(d, layer, bundle.case_seed, bundle.max_width)
            .expect_err("the captured case still diverges");
        assert_eq!(replayed, bundle.message, "replay_case must reproduce byte-identically");
    }
}

/// Five healthy layers agree; corrupting one recorded value must flag
/// exactly the first divergent cycle/signal on both sides of the earliest
/// diverging pair, and the mark must survive the VCD round trip.
#[test]
fn injected_divergence_is_flagged_at_first_divergent_cycle_and_signal() {
    let d = Design::by_name("rmul").expect("registered");
    let case = conformance::gen_case(&d, 0x0BAD_5EED, 8);
    let (mut traces, clean) = conformance::capture_traces(&d, Layer::Cosim, &case);
    assert!(clean.is_none(), "a passing case must record agreeing layers");
    assert_eq!(traces.len(), 5, "all five executable layers recorded");

    // Corrupt one output sample mid-trace in the second layer.
    let sig = traces[1]
        .signals
        .iter()
        .position(|s| s.kind == chicala::trace::SignalKind::Output)
        .expect("an output signal");
    let cycle = traces[1].cycles.len() / 2;
    let name = traces[1].signals[sig].name.clone();
    traces[1].cycles[cycle][sig] += &chicala::bigint::BigInt::from(1u64);

    let (a, b) = traces.split_at_mut(1);
    let div = first_divergence(&a[0], &b[0]).expect("corruption must be seen");
    assert_eq!(div.cycle, cycle as u64, "first divergent cycle");
    assert_eq!(div.signal, name, "first divergent signal");
    let marked = mark_pair(&mut a[0], &mut b[0]).expect("pair diverges");
    assert_eq!(marked, div);
    assert_eq!(a[0].divergence.as_ref(), Some(&div), "reference side marked");
    assert_eq!(b[0].divergence.as_ref(), Some(&div), "divergent side marked");

    // The mark survives writing and re-parsing the waveform.
    let round = parse_vcd(&chicala::trace::vcd::write_vcd(&b[0])).expect("vcd parses");
    assert_eq!(round.divergence.as_ref(), Some(&div));
}
