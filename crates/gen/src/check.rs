//! The differential soak checks one generated module goes through: the
//! full stack, cross-checked layer against layer.
//!
//! 1. **Structural invariants** — `check_module` accepts the module (the
//!    generator stays inside the transformable subset by construction).
//! 2. **Transform** — the Chisel-to-sequential transformation succeeds.
//! 3. **Cosim** — at several sampled widths, with fresh random inputs
//!    every cycle, four executions run in lockstep: the reference
//!    interpreter, the interpreter on the `when`-flattened module, the
//!    compiled slot-VM, and the generated sequential program. Any
//!    disagreement on any output or register of any cycle is a divergence.
//! 4. **Gate-level self-miter** — the module is bit-blasted against its
//!    pre-optimization self (the `when`-flattened form) over shared fresh
//!    symbolic inputs and proved equivalent for *every* input assignment
//!    at one bounded width (`Backend::Auto`); the miter must fold to
//!    constant-true.

use crate::generate::{GenModule, MIN_LEN};
use chicala_bigint::BigInt;
use chicala_chisel::{
    compile, elaborate, flatten_whens, Bindings, CompiledSim, ElabModule, Module, Simulator,
};
use chicala_conformance::SplitMix64;
use chicala_core::{check_module, transform};
use chicala_lowlevel::{
    fresh_inputs, interleaved_bits, nets_equal, prove_net, unroll, Backend, BitKit, Netlist,
    ProveResult,
};
use chicala_seq::{SValue, SeqRunner};
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
pub(crate) fn gen_inputs(
    rng: &mut SplitMix64,
    g: &GenModule,
    em: &ElabModule,
) -> BTreeMap<String, BigInt> {
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

/// Cosim at one width: interpreter (reference) vs flattened-module
/// interpreter vs compiled slot-VM vs sequential program, every output
/// and register of every cycle.
fn check_cosim_width(
    g: &GenModule,
    flat: &Module,
    prog: &chicala_seq::SeqProgram,
    width: u64,
    seed: u64,
) -> Result<(), String> {
    let b = bind(width);
    let em = elaborate(&g.module, &b).map_err(|e| format!("elaborate at {width}: {e}"))?;
    let em_flat =
        elaborate(flat, &b).map_err(|e| format!("flattened module fails to elaborate at {width}: {e}"))?;
    let cm = compile(&em).map_err(|e| format!("compiled VM rejects module at {width}: {e}"))?;

    let no_overrides = BTreeMap::new();
    let mut sim = Simulator::new(&em, &no_overrides).map_err(|e| format!("simulator: {e}"))?;
    let mut sim_flat =
        Simulator::new(&em_flat, &no_overrides).map_err(|e| format!("flat simulator: {e}"))?;
    let mut vm = CompiledSim::new(&cm, &no_overrides);
    let params: BTreeMap<String, BigInt> =
        [("len".to_string(), BigInt::from(width))].into_iter().collect();
    let runner = SeqRunner::new(prog, params);
    let mut sw_regs = runner
        .init_regs(&BTreeMap::new())
        .map_err(|e| format!("sequential init at {width}: {e}"))?;

    let mut rng = SplitMix64::new(seed ^ width.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let cycles = 4 + rng.below(4);
    for cycle in 0..cycles {
        let inputs = gen_inputs(&mut rng, g, &em);
        let hw_out = sim.step(&inputs).map_err(|e| format!("interp cycle {cycle}: {e}"))?;

        // Flattened module must be observationally identical.
        let flat_out =
            sim_flat.step(&inputs).map_err(|e| format!("flat interp cycle {cycle}: {e}"))?;
        if flat_out != hw_out {
            return Err(format!(
                "width {width} cycle {cycle}: when-flattened module diverges on outputs: \
                 original={hw_out:?} flattened={flat_out:?}"
            ));
        }
        for (name, v) in sim.regs() {
            let fv = sim_flat.reg(name).cloned().unwrap_or_else(BigInt::zero);
            if *v != fv {
                return Err(format!(
                    "width {width} cycle {cycle}: when-flattened module diverges on register \
                     `{name}`: original={v} flattened={fv}"
                ));
            }
        }

        // Compiled slot-VM.
        let vm_out = vm.step_map(&inputs);
        if vm_out != hw_out {
            return Err(format!(
                "width {width} cycle {cycle}: compiled VM diverges on outputs: \
                 interp={hw_out:?} compiled={vm_out:?}"
            ));
        }
        for i in 0..cm.regs_len() {
            let name = cm.reg_name(i);
            let want = sim.reg(name).cloned().unwrap_or_else(BigInt::zero);
            let got = vm.reg_value(i);
            if got != want {
                return Err(format!(
                    "width {width} cycle {cycle}: compiled VM diverges on register `{name}`: \
                     interp={want} compiled={got}"
                ));
            }
        }

        // Sequential program.
        let sw_in: BTreeMap<String, SValue> = inputs
            .iter()
            .map(|(k, v)| (k.clone(), SValue::Int(v.clone())))
            .collect();
        let sw = runner
            .trans(&sw_in, &sw_regs)
            .map_err(|e| format!("sequential cycle {cycle} at {width}: {e}"))?;
        for (name, hv) in &hw_out {
            let sv = sw
                .outputs
                .get(name)
                .and_then(SValue::scalar)
                .ok_or_else(|| format!("cycle {cycle}: output `{name}` missing from program"))?;
            if *hv != sv {
                return Err(format!(
                    "width {width} cycle {cycle}: sequential program diverges on output \
                     `{name}`: interp={hv} program={sv}"
                ));
            }
        }
        for (name, svv) in &sw.regs {
            let Some(sv) = svv.scalar() else { continue };
            let hv = sim
                .reg(name)
                .cloned()
                .ok_or_else(|| format!("cycle {cycle}: program register `{name}` unknown"))?;
            if hv != sv {
                return Err(format!(
                    "width {width} cycle {cycle}: sequential program diverges on register \
                     `{name}`: interp={hv} program={sv}"
                ));
            }
        }
        sw_regs = sw.regs;
    }
    Ok(())
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

    #[test]
    fn sampled_widths_cover_both_ends() {
        let ws = sample_widths(7, 24);
        assert!(ws.contains(&MIN_LEN));
        assert!(ws.contains(&24));
        assert!(ws.windows(2).all(|p| p[0] < p[1]), "sorted, deduped");
    }
}
