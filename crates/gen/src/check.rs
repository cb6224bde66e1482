//! The differential soak checks one generated module goes through: the
//! full stack, cross-checked layer against layer.
//!
//! 1. **Structural invariants** — `check_module` accepts the module (the
//!    generator stays inside the transformable subset by construction).
//! 2. **Transform** — the Chisel-to-sequential transformation succeeds.
//! 3. **Cosim** — at several sampled widths, five executions are recorded
//!    over one input schedule with fresh random inputs every cycle
//!    (`cosim_schedule`) by the conformance engine's recorder
//!    ([`record_layers`]): the reference interpreter, the generated
//!    sequential program, the compiled slot-VM, the interpreter on the
//!    `when`-flattened module, and the program compiled for the width on
//!    the sequential VM. The engine's one comparison ([`compare_layers`])
//!    then checks each trace against the interpreter's: a layer that fails
//!    to build or step, or any disagreement on any output or register of
//!    any cycle, is a divergence, and the earliest cycle across all layers
//!    is reported. The sequential VM alone may decline the program or stop
//!    at its `i128` envelope, as the engine's fallback allows. Failure
//!    capture records the same schedule through the same function.
//! 4. **Gate-level self-miter** — the module is bit-blasted against its
//!    pre-optimization self (the `when`-flattened form) over shared fresh
//!    symbolic inputs and proved equivalent for *every* input assignment
//!    at one bounded width (`Backend::Auto`); the miter must fold to
//!    constant-true.

use crate::generate::{GenModule, MIN_LEN};
use chicala_bigint::BigInt;
use chicala_chisel::{compile, elaborate, flatten_whens, Bindings, ElabModule, Module};
use chicala_conformance::{
    compare_layers, record_layers, ExecLayer, Inputs, LayerError, SplitMix64,
};
use chicala_core::{check_module, transform};
use chicala_lowlevel::{
    fresh_inputs, interleaved_bits, nets_equal, prove_net, unroll, Backend, BitKit, Netlist,
    ProveResult,
};
use chicala_seq::{compile_seq, SeqProgram};
use chicala_trace::Trace;
use std::collections::BTreeMap;

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

/// Records `g`'s five layers at `width` over [`cosim_schedule`]: the
/// interpreter, the sequential program `prog`, the compiled slot-VM, the
/// interpreter on the flattened module `flat`, and `prog` on the
/// sequential VM. `Err` when `g` itself does not elaborate.
pub(crate) fn record_cosim(
    g: &GenModule,
    flat: Result<&Module, String>,
    prog: Result<&SeqProgram, String>,
    width: u64,
    seed: u64,
) -> Result<Vec<Result<Trace, LayerError>>, String> {
    let b = bind(width);
    let em = elaborate(&g.module, &b).map_err(|e| format!("elaborate at {width}: {e}"))?;
    let em_flat = flat.and_then(|flat| {
        elaborate(flat, &b).map_err(|e| format!("flattened module fails to elaborate: {e}"))
    });
    let cm = compile(&em).map_err(|e| format!("compiled VM rejects module: {e}"));
    let params = [("len".to_string(), BigInt::from(width))].into_iter().collect();
    let seq = prog.clone().and_then(|p| {
        compile_seq(p, &params).map_err(|e| format!("sequential VM declines the program: {e}"))
    });
    let schedule = cosim_schedule(g, &em, width, seed);
    let layers = [
        ExecLayer::Program(prog),
        ExecLayer::Compiled(cm.as_ref().map_err(Clone::clone)),
        ExecLayer::Flat(em_flat.as_ref().map_err(Clone::clone)),
        ExecLayer::SeqVm(seq.as_ref().map_err(Clone::clone)),
    ];
    Ok(record_layers(&em, &layers, width, &schedule))
}

/// Cosim at one width: every layer [`record_cosim`] records against the
/// reference interpreter, through [`compare_layers`].
fn check_cosim_width(
    g: &GenModule,
    flat: &Module,
    prog: &SeqProgram,
    width: u64,
    seed: u64,
) -> Result<(), String> {
    compare_layers(&record_cosim(g, Ok(flat), Ok(prog), width, seed)?, width)
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

    #[test]
    fn sampled_widths_cover_both_ends() {
        let ws = sample_widths(7, 24);
        assert!(ws.contains(&MIN_LEN));
        assert!(ws.contains(&24));
        assert!(ws.windows(2).all(|p| p[0] < p[1]), "sorted, deduped");
    }
}
