//! `soak`: the conformance soak over the nine registry designs, layers
//! `cosim`, `gates` and `spec`, on the compiled backend, seeded by the
//! run's seed.
//!
//! CI's mix at twice its size: [`CASES`] cases per design and layer at
//! widths up to 24, with one `run_design` call (one op) per (design,
//! layer), so per-layer time is measured from outside. The compiled slot-VMs carry `cosim` and
//! `spec`; per-case netlist unroll-and-evaluate carries `gates`. The
//! engine compiles once per (design, width) and then runs once per case.

use crate::report::Metrics;
use crate::{Rep, RepOutput};
use chicala::bigint::BigInt;
use chicala::conformance::{
    all_designs, drill_designs, gen_case_for, replay_case, run_design, Config, Design, Layer,
    SimBackend, SplitMix64,
};
use chicala::telemetry::JsonValue;
use chicala::trace::ReplayBundle;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Layers soaked, in order.
pub const LAYERS: [&str; 3] = ["cosim", "gates", "spec"];

/// Cases per design and layer: twice CI's 200, so a repetition's random
/// case widths average out whatever the seed.
const CASES: usize = 400;

/// Case width cap (CI's soak cap).
const MAX_WIDTH: u64 = 24;

/// One op per (design, layer).
pub fn ops_per_rep() -> usize {
    all_designs().len() * LAYERS.len()
}

fn layer_config(seed: u64, layer: Layer) -> Config {
    Config {
        seed,
        cases: CASES,
        max_width: MAX_WIDTH,
        layers: vec![layer],
        stop_at_first: true,
        backend: SimBackend::Compiled,
    }
}

/// Per-layer sums over a repetition.
#[derive(Default, Clone, Copy)]
struct LayerTotals {
    wall_s: f64,
    cases: u64,
    cycles: u64,
    check_ns: u64,
}

pub fn run(rep: &Rep) -> Result<RepOutput, String> {
    let designs = all_designs();
    let layers: Vec<Layer> = LAYERS
        .iter()
        .map(|l| Layer::parse(l).expect("layer name"))
        .collect();
    let rec = &rep.rec;
    let mut out = RepOutput::default();
    let mut totals: BTreeMap<&str, LayerTotals> = BTreeMap::new();

    // ---- timed region ----
    let t0 = Instant::now();
    out.setup_s = rep.since_spawn();
    let root = rec.span("bench.soak", None, 0);
    let mut op = 0;
    for d in &designs {
        for &layer in &layers {
            op += 1;
            let cfg = layer_config(rep.seed, layer);
            let t = Instant::now();
            let report = {
                let _s = rec.span("conformance.run_design", root.id(), op);
                run_design(d, &cfg)
            };
            let secs = t.elapsed().as_secs_f64();
            out.ops_ms.push(secs * 1e3);
            let lt = totals.entry(layer.name()).or_default();
            lt.wall_s += secs;
            for st in report.stats.values() {
                lt.cases += st.cases as u64;
                lt.cycles += st.cycles;
                lt.check_ns += st.elapsed_ns;
            }
            for f in &report.failures {
                out.failed
                    .push(format!("{} {}: {}", d.name, layer.name(), f.message));
            }
        }
    }
    drop(root);
    out.wall_s = t0.elapsed().as_secs_f64();
    // ---- end of timed region ----

    if let Err(e) = known_bad_drill(rep.seed) {
        out.bad_undetected.push(e);
    }
    if rec.enabled() {
        compile_probe(rep, &designs, &layers, &mut out.layer)?;
    }

    let m = &mut out.layer;
    for (layer, t) in &totals {
        let check_s = t.check_ns as f64 / 1e9;
        m.set(format!("conformance.layer_s.{layer}"), t.wall_s, "s");
        m.set(
            format!("conformance.cycles_per_s.{layer}"),
            t.cycles as f64 / check_s.max(1e-9),
            "1/s",
        );
        m.set(
            format!("conformance.cases_per_s.{layer}"),
            t.cases as f64 / check_s.max(1e-9),
            "1/s",
        );
    }
    out.detail = JsonValue::obj()
        .set("cases_per_layer", JsonValue::int(CASES as u64))
        .set("max_width", JsonValue::int(MAX_WIDTH));
    Ok(out)
}

/// Known-bad input: `rmul_drill`'s spec demands `acc == a*b + 1`, so its
/// `spec` layer must diverge, leave a replay bundle, and the bundle must
/// replay to the byte-identical message.
fn known_bad_drill(seed: u64) -> Result<(), String> {
    let d = drill_designs()
        .into_iter()
        .find(|d| d.name == "rmul_drill")
        .ok_or("rmul_drill is not registered")?;
    let cfg = Config {
        cases: 4,
        max_width: 8,
        ..layer_config(seed, Layer::Spec)
    };
    let report = run_design(&d, &cfg);
    let failure = report
        .failures
        .first()
        .ok_or("rmul_drill's spec layer did not diverge")?;
    let path = failure
        .bundle
        .clone()
        .ok_or("the drill divergence left no replay bundle")?;
    let bundle = ReplayBundle::load(&path)?;
    let layer = Layer::parse(&bundle.layer).ok_or("bundle layer does not parse")?;
    let replayed = replay_case(&d, layer, bundle.case_seed, bundle.max_width);
    if let Some(dir) = path.parent() {
        let _ = std::fs::remove_dir_all(dir);
    }
    match replayed {
        Err(msg) if msg == bundle.message => Ok(()),
        Err(msg) => Err(format!(
            "drill replay differs: `{msg}` vs bundle `{}`",
            bundle.message
        )),
        Ok(_) => Err("drill replay passed".into()),
    }
}

/// FNV-1a, as the conformance engine uses to give each design its own
/// case stream.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
    })
}

/// The widths the compiled layers drew for `d`: each `run_design` call
/// regenerates its case stream from `seed ^ fnv1a(name)`.
fn drawn_widths(seed: u64, d: &Design, layers: &[Layer]) -> BTreeSet<u64> {
    let mut widths = BTreeSet::new();
    for &layer in layers.iter().filter(|l| **l != Layer::Gates) {
        let cfg = layer_config(seed, layer);
        let mut rng = SplitMix64::new(cfg.seed ^ fnv1a(d.name));
        for _ in 0..cfg.cases {
            widths.insert(gen_case_for(d, layer, rng.next_u64(), cfg.max_width).width);
        }
    }
    widths
}

/// Traced repetitions only, after the timed region: re-runs the compile
/// steps the engine memoises — `chisel::elaborate`, `chisel::compile` and
/// `seq::compile_seq` — for every (design, width) the compiled layers drew,
/// so their cost is measured through the public calls.
fn compile_probe(
    rep: &Rep,
    designs: &[Design],
    layers: &[Layer],
    m: &mut Metrics,
) -> Result<(), String> {
    let rec = &rep.rec;
    let probe = rec.span("bench.compile_probe", None, 0);
    let (mut elab_ms, mut compile_ms, mut seq_ms) = (0.0, 0.0, 0.0);
    for d in designs {
        let module = (d.build)();
        let program = chicala::core::transform(&module)
            .map_err(|e| format!("{}: transform: {e}", d.name))?
            .program;
        for w in drawn_widths(rep.seed, d, layers) {
            let bindings: chicala::chisel::Bindings =
                [("len".to_string(), w as i64)].into_iter().collect();
            let t = Instant::now();
            let em = {
                let _s = rec.span("chisel.elaborate", probe.id(), w);
                chicala::chisel::elaborate(&module, &bindings)
                    .map_err(|e| format!("{} w={w}: {e}", d.name))?
            };
            elab_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            {
                let _s = rec.span("chisel.compile", probe.id(), w);
                let _ = chicala::chisel::compile(&em);
            }
            compile_ms += t.elapsed().as_secs_f64() * 1e3;
            let params: BTreeMap<String, BigInt> =
                [("len".to_string(), BigInt::from(w))].into_iter().collect();
            let t = Instant::now();
            {
                let _s = rec.span("seq.compile_seq", probe.id(), w);
                let _ = chicala::seq::compile_seq(&program, &params);
            }
            seq_ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    m.set("chisel.elab_ms", elab_ms, "ms");
    m.set("chisel.compile_ms", compile_ms, "ms");
    m.set("seq.compile_ms", seq_ms, "ms");
    Ok(())
}
