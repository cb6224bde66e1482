//! The differential soak checks one generated module goes through: the
//! full stack, cross-checked layer against layer.
//!
//! 1. **Structural invariants** — `check_module` accepts the module (the
//!    generator stays inside the transformable subset by construction).
//! 2. **Transform** — the Chisel-to-sequential transformation succeeds.
//! 3. **Cosim** — at several sampled widths, four executions are recorded
//!    over one input schedule with fresh random inputs every cycle
//!    (`cosim_schedule`) by the conformance engine's recorder
//!    ([`record_layers`]): the reference interpreter, the generated
//!    sequential program, the compiled slot-VM, and the interpreter on the
//!    `when`-flattened module. Each trace is then compared with the
//!    interpreter's; a layer that fails to build or step, or any
//!    disagreement on any output or register of any cycle, is a
//!    divergence, and the earliest cycle across all layers is reported.
//!    Failure capture records the same schedule through the same function.
//! 4. **Gate-level self-miter** — the module is bit-blasted against its
//!    pre-optimization self (the `when`-flattened form) over shared fresh
//!    symbolic inputs and proved equivalent for *every* input assignment
//!    at one bounded width (`Backend::Auto`); the miter must fold to
//!    constant-true.

use crate::generate::{GenModule, MIN_LEN};
use chicala_bigint::BigInt;
use chicala_chisel::{compile, elaborate, flatten_whens, Bindings, ElabModule, Module};
use chicala_conformance::{record_layers, Inputs, LayerError, SplitMix64};
use chicala_core::{check_module, transform};
use chicala_lowlevel::{
    fresh_inputs, interleaved_bits, nets_equal, prove_net, unroll, Backend, BitKit, Netlist,
    ProveResult,
};
use chicala_seq::SeqProgram;
use chicala_trace::{first_divergence, SignalKind, Trace};
use std::collections::{BTreeMap, BTreeSet};

/// Widths the cosim stage samples for one module: both ends of the range
/// plus two seed-derived interior points.
pub fn sample_widths(seed: u64, max_width: u64) -> Vec<u64> {
    let lo = MIN_LEN;
    let hi = max_width.max(lo);
    let mut rng = SplitMix64::new(seed ^ 0x57AB_1E00_D1CE_0001);
    let mut ws = vec![lo, hi];
    for _ in 0..2 {
        ws.push(rng.range(lo, hi));
    }
    ws.sort_unstable();
    ws.dedup();
    ws
}

fn bind(len: u64) -> Bindings {
    [("len".to_string(), len as i64)].into_iter().collect()
}

/// Random inputs for one cycle, masked to each port's elaborated width.
fn gen_inputs(rng: &mut SplitMix64, g: &GenModule, em: &ElabModule) -> Inputs {
    g.inputs
        .iter()
        .map(|name| {
            let w = em
                .signals
                .iter()
                .find(|s| &s.name == name)
                .map(|s| s.width)
                .unwrap_or(1);
            (name.clone(), rng.bits(w))
        })
        .collect()
}

/// The cosim stage's input schedule for `g` at `width`: one input map per
/// cycle, drawn from a stream seeded by `seed` and `width`. The check and
/// failure capture both drive their layers with it.
pub(crate) fn cosim_schedule(g: &GenModule, em: &ElabModule, width: u64, seed: u64) -> Vec<Inputs> {
    let mut rng = SplitMix64::new(seed ^ width.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let cycles = 4 + rng.below(4);
    (0..cycles).map(|_| gen_inputs(&mut rng, g, em)).collect()
}

/// Records `g`'s four layers at `width` over [`cosim_schedule`], in
/// [`record_layers`] order: interpreter, sequential program (`prog`),
/// compiled slot-VM, and the interpreter on the flattened module `flat`.
/// `Err` when `g` itself does not elaborate.
pub(crate) fn record_cosim(
    g: &GenModule,
    flat: Result<&Module, String>,
    prog: Result<&SeqProgram, String>,
    width: u64,
    seed: u64,
) -> Result<[Result<Trace, LayerError>; 4], String> {
    let b = bind(width);
    let em = elaborate(&g.module, &b).map_err(|e| format!("elaborate at {width}: {e}"))?;
    let em_flat = flat.and_then(|flat| {
        elaborate(flat, &b).map_err(|e| format!("flattened module fails to elaborate: {e}"))
    });
    let cm = compile(&em).map_err(|e| format!("compiled VM rejects module: {e}"));
    let schedule = cosim_schedule(g, &em, width, seed);
    Ok(record_layers(
        &em,
        prog,
        cm.as_ref().map_err(Clone::clone),
        em_flat.as_ref().map_err(Clone::clone),
        width,
        &schedule,
    ))
}

/// The names `t` declares with role `kind`.
fn names(t: &Trace, kind: SignalKind) -> BTreeSet<&str> {
    t.signals.iter().filter(|s| s.kind == kind).map(|s| s.name.as_str()).collect()
}

/// The earliest way `layer` departs from the reference `interp`, keyed by
/// cycle (`None`: before any cycle): a failure to build or initialize,
/// signals other than the interpreter's, a value on a cycle both recorded,
/// or a failure to step. `what` and `label` name the layer and its values
/// in the message (`capture::stage_of` classifies it by them).
fn departure(
    interp: &Trace,
    layer: &Result<Trace, LayerError>,
    (what, label): (&str, &str),
    width: u64,
) -> Option<(Option<u64>, String)> {
    let (trace, failure) = match layer {
        Ok(t) => (t, None),
        Err(e) => (&*e.partial, Some((e.cycle, format!("width {width}: {}", e.message)))),
    };
    if let Some((None, _)) = failure {
        return failure;
    }
    // The program declares the outputs and registers its first cycle
    // produced: every interpreter output, and only registers the
    // interpreter knows. The other layers run the same module: exactly
    // the interpreter's outputs and registers.
    let (output, register) = (SignalKind::Output, SignalKind::Register);
    let undeclared = if trace.is_empty() {
        None
    } else if label == "program" {
        let missing = names(interp, output).difference(&names(trace, output)).next().copied();
        let unknown = names(trace, register).difference(&names(interp, register)).next().copied();
        missing
            .map(|n| format!("output `{n}` missing from program"))
            .or_else(|| unknown.map(|n| format!("program register `{n}` unknown to interpreter")))
    } else {
        [output, register].into_iter().find(|&k| names(interp, k) != names(trace, k)).map(|k| {
            let (got, want) = (names(trace, k), names(interp, k));
            format!("{what} declares {} {got:?}, interpreter {want:?}", k.name())
        })
    };
    if let Some(msg) = undeclared {
        return Some((None, format!("width {width}: {msg}")));
    }
    // Cycles only one side recorded are not compared: the failure that
    // cut the other side short is reported instead.
    let common = interp.len().min(trace.len()) as u64;
    first_divergence(interp, trace)
        .filter(|d| d.cycle < common)
        .map(|d| {
            let msg = format!(
                "width {width} cycle {}: {what} diverges on `{}`: interp={} {label}={}",
                d.cycle, d.signal, d.expected, d.actual
            );
            (Some(d.cycle), msg)
        })
        .or(failure)
}

/// Cosim at one width: the sequential program, the compiled slot-VM and
/// the flattened module's interpreter (`flat`) against the reference
/// interpreter, every output and register of every cycle. Reports the
/// earliest departure across all layers; ties go to the interpreter's own
/// failure, then to the layer recorded first.
fn check_cosim_width(
    g: &GenModule,
    flat: &Module,
    prog: &SeqProgram,
    width: u64,
    seed: u64,
) -> Result<(), String> {
    let [interp, layers @ ..] = record_cosim(g, Ok(flat), Ok(prog), width, seed)?;
    let (interp, mut earliest) = match interp {
        Ok(t) => (t, None),
        Err(e) if e.cycle.is_none() => return Err(format!("width {width}: {}", e.message)),
        Err(e) => (*e.partial, Some((e.cycle, format!("width {width}: {}", e.message)))),
    };
    let stages = [
        ("sequential program", "program"),
        ("compiled VM", "compiled"),
        ("when-flattened module", "flattened"),
    ];
    for (layer, stage) in layers.iter().zip(stages) {
        if let Some(found) = departure(&interp, layer, stage, width) {
            if earliest.as_ref().is_none_or(|(cycle, _)| found.0 < *cycle) {
                earliest = Some(found);
            }
        }
    }
    earliest.map_or(Ok(()), |(_, msg)| Err(msg))
}

/// Width cap for the gate-level self-miter (SAT/BDD cost, not soundness).
pub const MITER_WIDTH_CAP: u64 = 8;

/// Symbolic cycles the self-miter unrolls both sides for.
pub const MITER_CYCLES: usize = 2;

/// Bit-blasts the module and its `when`-flattened form over shared fresh
/// inputs and proves them equivalent on every output and register after
/// [`MITER_CYCLES`] cycles — for *every* input assignment at `width`.
pub fn self_miter(m: &Module, flat: &Module, width: u64) -> Result<(), String> {
    let b = bind(width);
    let em = elaborate(m, &b).map_err(|e| format!("miter elaborate: {e}"))?;
    let em_flat = elaborate(flat, &b).map_err(|e| format!("miter elaborate (flat): {e}"))?;
    let mut nl = Netlist::new();
    let inputs = fresh_inputs(&em, |_, _, kit: &mut Netlist| kit.input(), &mut nl);
    let st = unroll(&em, &mut nl, &inputs, &BTreeMap::new(), MITER_CYCLES)
        .map_err(|e| format!("miter unroll: {e}"))?;
    let st_flat = unroll(&em_flat, &mut nl, &inputs, &BTreeMap::new(), MITER_CYCLES)
        .map_err(|e| format!("miter unroll (flat): {e}"))?;
    let mut property = nl.constant(true);
    for (name, w) in st.outputs.iter().chain(&st.regs) {
        let other = st_flat
            .outputs
            .get(name)
            .or_else(|| st_flat.regs.get(name))
            .ok_or_else(|| format!("miter: `{name}` missing from flattened side"))?;
        let eq = nets_equal(&mut nl, w, other);
        property = nl.and(property, eq);
    }
    let var_order = interleaved_bits(&inputs);
    match prove_net(&nl, property, Backend::Auto, width as usize, &var_order) {
        ProveResult::Proved { .. } => Ok(()),
        ProveResult::Counterexample { backend, inputs: cex } => {
            let mut assignment: Vec<String> = Vec::new();
            for (name, w) in &inputs {
                let mut v = BigInt::zero();
                for (i, bit) in w.bits.iter().enumerate() {
                    if cex.get(bit).copied().unwrap_or(false) {
                        v = v + BigInt::pow2(i as u64);
                    }
                }
                assignment.push(format!("{name}={v}"));
            }
            Err(format!(
                "self-miter NOT constant-true at width {width} ({backend:?} counterexample: {})",
                assignment.join(" ")
            ))
        }
    }
}

/// Runs one generated module through every soak stage. `Ok` means all
/// layers agree; `Err` carries the first divergence, prefixed with the
/// stage that caught it.
pub fn check_generated(g: &GenModule, seed: u64, max_width: u64) -> Result<(), String> {
    // Stage 1: structural invariants.
    let report = check_module(&g.module);
    if !report.violations.is_empty() {
        return Err(format!("structural: {}", report.violations.join("; ")));
    }
    // Stage 2: transform passes.
    let out = transform(&g.module).map_err(|e| format!("transform: {e}"))?;
    let flat = flatten_whens(&g.module).map_err(|e| format!("flatten_whens: {e}"))?;
    // Stage 3: multi-width differential cosim.
    for width in sample_widths(seed, max_width) {
        check_cosim_width(g, &flat, &out.program, width, seed)
            .map_err(|e| format!("cosim: {e}"))?;
    }
    // Stage 4: gate-level self-miter at one bounded width.
    let miter_w = max_width.clamp(MIN_LEN, MITER_WIDTH_CAP);
    self_miter(&g.module, &flat, miter_w).map_err(|e| format!("gates: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gen_module;

    #[test]
    fn a_few_generated_modules_pass_all_stages() {
        for seed in 0..12u64 {
            let g = gen_module(seed);
            check_generated(&g, seed, 12).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    /// On a real divergence — the broken `when`-lowering drill's — failure
    /// capture marks the width, cycle and signal the check reports: both
    /// record the same layers over the same schedule.
    #[test]
    fn check_and_capture_agree_on_a_real_divergence() {
        use chicala_chisel::passes::flatten_whens_dropping_guards;
        use chicala_trace::mark_earliest;

        let max_width = 12;
        for seed in 0..400u64 {
            let g = gen_module(seed);
            let Ok(bad) = flatten_whens_dropping_guards(&g.module) else { continue };
            let prog = transform(&g.module).expect("generated modules transform").program;
            for width in sample_widths(seed, max_width) {
                let layers =
                    record_cosim(&g, Ok(&bad), Ok(&prog), width, seed).expect("elaborates");
                let mut traces: Vec<Trace> = layers.into_iter().filter_map(Result::ok).collect();
                let marked = mark_earliest(&mut traces);
                let Err(message) = check_cosim_width(&g, &bad, &prog, width, seed) else {
                    assert_eq!(marked, None, "seed {seed} width {width}: the check passed");
                    continue;
                };
                let d = marked
                    .unwrap_or_else(|| panic!("seed {seed}: capture marks nothing for {message}"));
                let at =
                    format!("width {width} cycle {}: when-flattened module diverges on ", d.cycle);
                assert!(
                    message.starts_with(&at),
                    "seed {seed}: capture marks {d}, check says {message}"
                );
                assert!(
                    message.contains(&format!("`{}`", d.signal)),
                    "seed {seed}: {d} vs {message}"
                );
                return;
            }
        }
        panic!("no generated module within 400 seeds exposes the dropped guards");
    }

    /// A layer that stops early is still compared on the cycles it ran,
    /// and its failure counts at the cycle it happened.
    #[test]
    fn a_layer_that_stops_early_departs_at_its_earliest_cycle() {
        let trace = |rows: &[[u64; 2]]| {
            let mut t = Trace::new("layer");
            t.declare("io_in", 4, SignalKind::Input);
            t.declare("io_out", 4, SignalKind::Output);
            for row in rows {
                t.push_cycle(row.iter().map(|&v| BigInt::from(v)).collect());
            }
            t
        };
        let stopped = |rows: &[[u64; 2]]| {
            let cycle = rows.len() as u64;
            let message = format!("flat_interp cycle {cycle}: boom");
            Err(LayerError { cycle: Some(cycle), message, partial: Box::new(trace(rows)) })
        };
        let interp = trace(&[[1, 2], [3, 4], [5, 6]]);
        let flat = ("when-flattened module", "flattened");
        let diverged_first = stopped(&[[1, 2], [3, 9]]);
        assert_eq!(
            departure(&interp, &diverged_first, flat, 4),
            Some((
                Some(1),
                "width 4 cycle 1: when-flattened module diverges on `io_out`: interp=4 flattened=9"
                    .to_string()
            ))
        );
        let agreed_first = stopped(&[[1, 2]]);
        assert_eq!(
            departure(&interp, &agreed_first, flat, 4),
            Some((Some(1), "width 4: flat_interp cycle 1: boom".to_string()))
        );
    }

    #[test]
    fn sampled_widths_cover_both_ends() {
        let ws = sample_widths(7, 24);
        assert!(ws.contains(&MIN_LEN));
        assert!(ws.contains(&24));
        assert!(ws.windows(2).all(|p| p[0] < p[1]), "sorted, deduped");
    }
}
