//! Counterexample capture: typed waveform recording from every executable
//! layer, plus self-contained replay bundles.
//!
//! When a conformance case diverges (and only then — on the already-shrunk
//! final counterexample, so the green path never pays for any of this),
//! [`capture_failure`] re-runs the case through each recordable layer —
//! the Chisel interpreter, the `when`-flattened interpreter, the compiled
//! slot-VM, and the generated sequential program — producing one typed
//! [`Trace`] per layer, marks the first divergent cycle/signal across the
//! pair that actually disagrees, and writes the VCDs next to a
//! schema-versioned JSON [`ReplayBundle`] under `target/chicala-failures/`
//! (see [`chicala_trace::bundle`]). Gate-layer failures instead re-derive
//! the formal counterexample and render it as a one-cycle miter trace with
//! the design and golden cones side by side.

use crate::engine::{
    elab, formal_gate_obligation, sim_plan, transform_arc, word_value, Case, Config, Failure,
    FormalObligation, Layer,
};
use crate::registry::Design;
use chicala_bigint::BigInt;
use chicala_chisel::{elaborate, flatten_whens, Bindings, CompiledSim, ElabKind, Simulator};
use chicala_lowlevel::{prove_net, Backend, ProveResult};
use chicala_seq::{SValue, SeqRunner};
use chicala_telemetry as telemetry;
use chicala_trace::{
    capture_enabled, git_rev, mark_earliest, replay, Divergence, ReplayBundle, SignalKind, Trace,
    SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Trace scope names, one per recordable layer.
pub const SCOPE_INTERP: &str = "chisel_interp";
/// The `when`-flattened interpreter's scope.
pub const SCOPE_FLAT: &str = "flat_interp";
/// The compiled slot-VM's scope.
pub const SCOPE_COMPILED: &str = "compiled_vm";
/// The generated sequential program's scope.
pub const SCOPE_SEQ: &str = "seq_program";
/// The gate-level miter counterexample's scope.
pub const SCOPE_MITER: &str = "gates_miter";

fn elab_kind(kind: &ElabKind) -> Option<SignalKind> {
    match kind {
        ElabKind::Input => Some(SignalKind::Input),
        ElabKind::Output => Some(SignalKind::Output),
        ElabKind::Reg { .. } => Some(SignalKind::Register),
        // Wires are combinational internals; re-deriving them per cycle
        // needs `peek` per signal and adds little over outputs + registers.
        ElabKind::Wire => None,
    }
}

/// Drives a `Simulator` over `em`-shaped signals for `case.cycles` cycles,
/// recording inputs, outputs, and post-commit register values per cycle.
fn record_simulator(
    scope: &str,
    em: &chicala_chisel::ElabModule,
    case: &Case,
    inputs: &BTreeMap<String, BigInt>,
) -> Result<Trace, String> {
    let mut t = Trace::new(scope);
    // (signal name, kind) pairs; kind picks the source map per cycle.
    // Declared kind-grouped — the VCD writer emits one sub-scope per
    // kind, so this keeps a parse round trip exact.
    let mut plan: Vec<(String, SignalKind)> = Vec::new();
    for want in [SignalKind::Input, SignalKind::Output, SignalKind::Register] {
        for sig in &em.signals {
            match elab_kind(&sig.kind) {
                Some(kind) if kind == want => {
                    t.declare(&sig.name, sig.width, kind);
                    plan.push((sig.name.clone(), kind));
                }
                _ => {}
            }
        }
    }
    let mut sim = Simulator::new(em, &BTreeMap::new()).map_err(|e| e.to_string())?;
    for _ in 0..case.cycles {
        let outputs = sim.step(inputs).map_err(|e| e.to_string())?;
        let row = plan
            .iter()
            .map(|(name, kind)| {
                let v = match kind {
                    SignalKind::Input => inputs.get(name),
                    SignalKind::Output => outputs.get(name),
                    _ => sim.reg(name),
                };
                v.cloned().unwrap_or_else(BigInt::zero)
            })
            .collect();
        t.push_cycle(row);
    }
    Ok(t)
}

/// Records the reference Chisel interpreter.
pub fn interp_trace(d: &Design, case: &Case) -> Result<Trace, String> {
    let em = elab(d, case.width)?;
    record_simulator(SCOPE_INTERP, &em, case, &case.input_map(d))
}

/// Records the interpreter on the `when`-flattened module.
pub fn flat_trace(d: &Design, case: &Case) -> Result<Trace, String> {
    let m = (d.build)();
    let flat = flatten_whens(&m).map_err(|e| format!("{}: flatten: {e}", d.name))?;
    let bindings: Bindings = [("len".to_string(), case.width as i64)].into_iter().collect();
    let em = elaborate(&flat, &bindings)
        .map_err(|e| format!("{}: flattened elaboration at width {}: {e}", d.name, case.width))?;
    record_simulator(SCOPE_FLAT, &em, case, &case.input_map(d))
}

/// Records the compiled slot-VM, using the compile-time symbol table for
/// names and widths. Errs when the design is outside the compiled subset.
pub fn compiled_trace(d: &Design, case: &Case) -> Result<Trace, String> {
    let plan = sim_plan(d, case.width)?;
    let Some(cm) = &plan.chisel else {
        return Err(format!("{}: no compiled module at width {}", d.name, case.width));
    };
    let inputs = case.input_map(d);
    let mut t = Trace::new(SCOPE_COMPILED);
    for i in 0..cm.inputs_len() {
        t.declare(cm.input_name(i), cm.input_width(i), SignalKind::Input);
    }
    for i in 0..cm.outputs_len() {
        t.declare(cm.output_name(i), cm.output_width(i), SignalKind::Output);
    }
    for i in 0..cm.regs_len() {
        t.declare(cm.reg_name(i), cm.reg_width(i), SignalKind::Register);
    }
    let mut vm = CompiledSim::new(cm, &BTreeMap::new());
    vm.set_inputs(&inputs);
    for _ in 0..case.cycles {
        vm.step();
        let mut row = Vec::with_capacity(cm.inputs_len() + cm.outputs_len() + cm.regs_len());
        for i in 0..cm.inputs_len() {
            row.push(inputs.get(cm.input_name(i)).cloned().unwrap_or_else(BigInt::zero));
        }
        for i in 0..cm.outputs_len() {
            row.push(vm.output_value(i));
        }
        for i in 0..cm.regs_len() {
            row.push(vm.reg_value(i));
        }
        t.push_cycle(row);
    }
    Ok(t)
}

/// Records the generated sequential program via the tree-walking
/// [`SeqRunner`]. Widths come from the elaborated module where the names
/// match (the cosim contract guarantees they do for everything compared).
pub fn seq_trace(d: &Design, case: &Case) -> Result<Trace, String> {
    let em = elab(d, case.width)?;
    let prog = transform_arc(d)?;
    let width_of = |name: &str| -> u64 {
        em.signals.iter().find(|s| s.name == name).map(|s| s.width).unwrap_or(64)
    };
    let runner = SeqRunner::new(
        &prog,
        [("len".to_string(), BigInt::from(case.width))].into_iter().collect(),
    );
    let inputs = case.input_map(d);
    let sw_inputs: BTreeMap<String, SValue> =
        inputs.iter().map(|(k, v)| (k.clone(), SValue::Int(v.clone()))).collect();
    let mut regs = runner.init_regs(&BTreeMap::new()).map_err(|e| e.to_string())?;

    // Two passes: collect the rows first, then declare signals from the
    // names the program actually produced (scalar outputs and registers).
    let mut rows: Vec<(BTreeMap<String, BigInt>, BTreeMap<String, BigInt>)> = Vec::new();
    for cycle in 0..case.cycles {
        let sw = runner
            .trans(&sw_inputs, &regs)
            .map_err(|e| format!("{}: sequential step failed at cycle {cycle}: {e}", d.name))?;
        let outs = sw
            .outputs
            .iter()
            .filter_map(|(k, v)| v.scalar().map(|b| (k.clone(), b)))
            .collect();
        let rs = sw
            .regs
            .iter()
            .filter_map(|(k, v)| v.scalar().map(|b| (k.clone(), b)))
            .collect();
        rows.push((outs, rs));
        regs = sw.regs;
    }
    let mut t = Trace::new(SCOPE_SEQ);
    let mut plan: Vec<(String, SignalKind)> = Vec::new();
    for name in inputs.keys() {
        t.declare(name, width_of(name), SignalKind::Input);
        plan.push((name.clone(), SignalKind::Input));
    }
    if let Some((outs, rs)) = rows.first() {
        for name in outs.keys() {
            t.declare(name, width_of(name), SignalKind::Output);
            plan.push((name.clone(), SignalKind::Output));
        }
        for name in rs.keys() {
            t.declare(name, width_of(name), SignalKind::Register);
            plan.push((name.clone(), SignalKind::Register));
        }
    }
    for (outs, rs) in &rows {
        let row = plan
            .iter()
            .map(|(name, kind)| {
                let v = match kind {
                    SignalKind::Input => inputs.get(name),
                    SignalKind::Output => outs.get(name),
                    _ => rs.get(name),
                };
                v.cloned().unwrap_or_else(BigInt::zero)
            })
            .collect();
        t.push_cycle(row);
    }
    Ok(t)
}

/// Renders a decoded gate-level counterexample as a one-cycle trace: the
/// concrete inputs, the design's registers and outputs under the model,
/// and the golden cone values noted by the spec builder as `golden_*`
/// wires. The divergence marks the first design signal whose golden twin
/// disagrees.
pub fn miter_trace(ob: &FormalObligation, vals: &[bool]) -> Trace {
    let mut t = Trace::new(SCOPE_MITER);
    let mut row = Vec::new();
    for (name, word) in &ob.inputs {
        t.declare(name, word.bits.len() as u64, SignalKind::Input);
        row.push(word_value(word, vals));
    }
    for (name, word) in &ob.state.outputs {
        t.declare(name, word.bits.len() as u64, SignalKind::Output);
        row.push(word_value(word, vals));
    }
    for (name, word) in &ob.state.regs {
        t.declare(name, word.bits.len() as u64, SignalKind::Register);
        row.push(word_value(word, vals));
    }
    let mut divergence = None;
    for (name, word) in &ob.golden {
        t.declare(format!("golden_{name}"), word.bits.len() as u64, SignalKind::Wire);
        let golden = word_value(word, vals);
        let design = ob
            .state
            .regs
            .get(name)
            .or_else(|| ob.state.outputs.get(name))
            .map(|w| word_value(w, vals));
        if divergence.is_none() {
            if let Some(design) = &design {
                if *design != golden {
                    divergence = Some(Divergence {
                        cycle: 0,
                        signal: name.clone(),
                        expected: golden.to_string(),
                        actual: design.to_string(),
                    });
                }
            }
        }
        row.push(golden);
    }
    t.push_cycle(row);
    t.divergence = divergence;
    t
}

/// Records every recordable layer for `case` (executable layers for cosim
/// and spec failures, the formal miter for gate failures), marking the
/// first divergent cycle/signal on the earliest-diverging pair. Returns
/// the traces and the marked divergence, if any.
pub fn capture_traces(
    d: &Design,
    layer: Layer,
    case: &Case,
) -> (Vec<Trace>, Option<Divergence>) {
    if layer == Layer::Gates {
        if let Ok(Some(ob)) = formal_gate_obligation(d, case.width) {
            if let ProveResult::Counterexample { inputs: cex, .. } =
                prove_net(&ob.netlist, ob.property, Backend::Auto, case.width as usize, &ob.var_order)
            {
                let vals = ob.netlist.eval(&|net| cex.get(&net).copied().unwrap_or(false));
                let t = miter_trace(&ob, &vals);
                let div = t.divergence.clone();
                return (vec![t], div);
            }
        }
        // The formal proof holds (or the design has no golden model): the
        // failure came from the concrete gate path — fall through and
        // record the executable layers instead.
    }
    let mut traces: Vec<Trace> = [interp_trace(d, case), seq_trace(d, case), compiled_trace(d, case), flat_trace(d, case)]
        .into_iter()
        .filter_map(Result::ok)
        .collect();
    // Mark the earliest-diverging pair (the reference interpreter records
    // first, so it is preferred as the `expected` side of the pair).
    let divergence = mark_earliest(&mut traces);
    (traces, divergence)
}

/// Captures a failed (already shrunk) conformance case end to end: records
/// the layer traces, builds the schema-versioned [`ReplayBundle`], writes
/// everything under the failures directory, and emits the
/// `conformance.divergence` telemetry event carrying the bundle path.
/// Returns `None` when capture is disabled (`CHICALA_TRACE_FAILURES=0`) or
/// the artifacts cannot be written.
pub fn capture_failure(d: &Design, failure: &Failure, cfg: &Config) -> Option<PathBuf> {
    if !capture_enabled() {
        return None;
    }
    let case = failure.shrunk.normalized(d);
    let (traces, divergence) = capture_traces(d, failure.layer, &case);
    let mut bundle = ReplayBundle {
        schema: SCHEMA_VERSION,
        kind: "conformance".to_string(),
        design: failure.design.clone(),
        layer: failure.layer.name().to_string(),
        backend: "auto".to_string(),
        sim_backend: cfg.backend.name().to_string(),
        master_seed: failure.master_seed,
        case_seed: failure.case_seed,
        max_width: failure.max_width,
        width: case.width,
        cycles: case.cycles,
        inputs: d
            .inputs
            .iter()
            .zip(&case.inputs)
            .map(|(spec, v)| (spec.name.to_string(), v.to_string()))
            .collect(),
        message: failure.message.clone(),
        divergence,
        module: String::new(),
        git_rev: git_rev(),
        replay_env: replay::env_replay_line(
            "CHICALA_SEED",
            failure.master_seed,
            "cargo test -q --test conformance",
        ),
        replay_cmd: format!(
            "cargo run --release --example conformance -- --design {} --max-width {} --replay {}",
            failure.design,
            failure.max_width,
            replay::format_seed(failure.case_seed),
        ),
        vcd_files: Vec::new(),
    };
    let refs: Vec<&Trace> = traces.iter().collect();
    let path = bundle.write_with_traces(&refs).ok()?;
    telemetry::event(
        "conformance.divergence",
        &[
            ("design", failure.design.clone()),
            ("layer", failure.layer.name().to_string()),
            ("bundle", path.display().to_string()),
        ],
    );
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chicala_trace::first_divergence;
    use chicala_trace::vcd::{parse_vcd, write_vcd, MARKER};

    fn known_case() -> Case {
        Case {
            width: 4,
            cycles: 5,
            inputs: vec![BigInt::from(11u64), BigInt::from(13u64)],
        }
    }

    #[test]
    fn four_layers_record_and_agree_on_a_passing_case() {
        let d = Design::by_name("rmul").expect("registered");
        let case = known_case().normalized(&d);
        let traces = [
            interp_trace(&d, &case).expect("interp records"),
            flat_trace(&d, &case).expect("flat records"),
            compiled_trace(&d, &case).expect("compiled records"),
            seq_trace(&d, &case).expect("seq records"),
        ];
        for t in &traces {
            assert_eq!(t.len(), case.cycles as usize, "{}: one row per cycle", t.scope);
            assert!(t.signal_index("acc").is_some(), "{}: has the accumulator", t.scope);
        }
        for pair in traces.windows(2) {
            assert_eq!(
                first_divergence(&pair[0], &pair[1]),
                None,
                "{} vs {} on a passing case",
                pair[0].scope,
                pair[1].scope
            );
        }
        // And the VCD round trip preserves each layer exactly.
        for t in &traces {
            assert_eq!(parse_vcd(&write_vcd(t)).expect("parses"), *t, "{}", t.scope);
        }
    }

    #[test]
    fn miter_trace_carries_both_cones_and_marks_the_divergence() {
        let d = Design::by_name("rmul").expect("registered");
        let ob = formal_gate_obligation(&d, 4).expect("builds").expect("has a golden model");
        assert!(ob.golden.contains_key("acc"), "spec noted its golden cone");
        // All-false inputs: a*b = 0 and the design's zero-initialised
        // accumulator agrees, so no divergence is marked.
        let vals = ob.netlist.eval(&|_| false);
        let t = miter_trace(&ob, &vals);
        assert_eq!(t.len(), 1, "one-cycle trace");
        assert!(t.signal_index("acc").is_some());
        assert!(t.signal_index("golden_acc").is_some());
        assert_eq!(t.divergence, None, "agreeing cones are unmarked");
        assert_eq!(t.value(0, "acc"), t.value(0, "golden_acc"));
        let vcd = write_vcd(&t);
        assert!(!vcd.contains(MARKER), "no marker without a divergence");
    }
}
