//! Counterexample capture: the one recorder of the executable layers,
//! typed waveforms from it, and self-contained replay bundles.
//!
//! [`record_layers`] drives every executable layer of one module at one
//! width — the Chisel interpreter, the generated sequential program, the
//! compiled slot-VM and the interpreter on the `when`-flattened module —
//! over an input *schedule* (one input map per cycle) and returns, per
//! layer, a typed [`Trace`] or the [`LayerError`] that stopped it. The
//! conformance engine records a case's inputs held for `case.cycles`
//! cycles; the generative fuzzer records, and checks, its own random
//! schedule through the same function.
//!
//! When a conformance case diverges (and only then — on the already-shrunk
//! final counterexample, so the green path never pays for any of this),
//! [`capture_failure`] records the case through each layer, marks the
//! first divergent cycle/signal across the pair that actually disagrees,
//! and writes the VCDs next to a schema-versioned JSON [`ReplayBundle`]
//! under `target/chicala-failures/` (see [`chicala_trace::bundle`]).
//! Gate-layer failures instead re-derive the formal counterexample and
//! render it as a one-cycle miter trace with the design and golden cones
//! side by side.

use crate::engine::{
    elab, formal_gate_obligation, sim_plan, transform_arc, word_value, Case, Failure,
    FormalObligation, Layer,
};
use crate::registry::Design;
use chicala_bigint::BigInt;
use chicala_chisel::{
    elaborate, flatten_whens, Bindings, CompiledModule, CompiledSim, ElabKind, ElabModule,
    Simulator,
};
use chicala_lowlevel::{prove_net, Backend, ProveResult};
use chicala_seq::{SValue, SeqProgram, SeqRunner};
use chicala_telemetry as telemetry;
use chicala_trace::{
    capture_enabled, git_rev, mark_earliest, Divergence, ReplayBundle, SignalKind, Trace,
    SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::fmt;
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

/// One cycle's input values by port name; a schedule is one per cycle.
pub type Inputs = BTreeMap<String, BigInt>;

/// Why a layer has no complete trace.
#[derive(Clone, Debug, PartialEq)]
pub struct LayerError {
    /// The cycle the layer failed to step at; `None` when it could not be
    /// built or initialized.
    pub cycle: Option<u64>,
    /// The caller's reason for a layer it could not build; else the
    /// layer's own error, after its scope and the cycle it failed at.
    pub message: String,
    /// What the layer recorded before it failed, under its scope.
    pub partial: Box<Trace>,
}

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

impl LayerError {
    /// A layer that never ran a cycle.
    fn unrun(trace: Trace, message: String) -> LayerError {
        LayerError { cycle: None, message, partial: Box::new(trace) }
    }

    /// A layer whose step failed at `cycle`, after recording `trace`.
    fn stopped(trace: Trace, cycle: usize, error: impl fmt::Display) -> LayerError {
        let message = format!("{} cycle {cycle}: {error}", trace.scope);
        LayerError { cycle: Some(cycle as u64), message, partial: Box::new(trace) }
    }
}

/// Steps a layer through `schedule`, pushing the row `step` returns for
/// each cycle onto `trace`; a failed step ends the recording there.
fn drive(
    mut trace: Trace,
    schedule: &[Inputs],
    mut step: impl FnMut(&Inputs) -> Result<Vec<BigInt>, String>,
) -> Result<Trace, LayerError> {
    for (cycle, inputs) in schedule.iter().enumerate() {
        match step(inputs) {
            Ok(row) => trace.push_cycle(row),
            Err(e) => return Err(LayerError::stopped(trace, cycle, e)),
        }
    }
    Ok(trace)
}

/// Records a [`Simulator`] on `em` under `scope`: inputs, outputs and
/// post-commit register values per cycle.
fn record_interp(
    scope: &str,
    em: &ElabModule,
    schedule: &[Inputs],
) -> Result<Trace, LayerError> {
    let mut trace = Trace::new(scope);
    // Declared kind-grouped — the VCD writer emits one sub-scope per
    // kind, so this keeps a parse round trip exact.
    let mut plan: Vec<(&str, SignalKind)> = Vec::new();
    for want in [SignalKind::Input, SignalKind::Output, SignalKind::Register] {
        for sig in &em.signals {
            if elab_kind(&sig.kind) == Some(want) {
                trace.declare(&sig.name, sig.width, want);
                plan.push((&sig.name, want));
            }
        }
    }
    let mut sim = match Simulator::new(em, &BTreeMap::new()) {
        Ok(sim) => sim,
        Err(e) => return Err(LayerError::unrun(trace, format!("{scope}: {e}"))),
    };
    drive(trace, schedule, |inputs| {
        let outputs = sim.step(inputs).map_err(|e| e.to_string())?;
        Ok(plan
            .iter()
            .map(|&(name, kind)| {
                let v = match kind {
                    SignalKind::Input => inputs.get(name),
                    SignalKind::Output => outputs.get(name),
                    _ => sim.reg(name),
                };
                v.cloned().unwrap_or_else(BigInt::zero)
            })
            .collect())
    })
}

/// Records the compiled slot-VM, using the compile-time symbol table for
/// names and widths.
fn record_compiled(cm: &CompiledModule, schedule: &[Inputs]) -> Result<Trace, LayerError> {
    let mut trace = Trace::new(SCOPE_COMPILED);
    for i in 0..cm.inputs_len() {
        trace.declare(cm.input_name(i), cm.input_width(i), SignalKind::Input);
    }
    for i in 0..cm.outputs_len() {
        trace.declare(cm.output_name(i), cm.output_width(i), SignalKind::Output);
    }
    for i in 0..cm.regs_len() {
        trace.declare(cm.reg_name(i), cm.reg_width(i), SignalKind::Register);
    }
    let mut vm = CompiledSim::new(cm, &BTreeMap::new());
    drive(trace, schedule, |inputs| {
        vm.set_inputs(inputs);
        vm.step();
        let mut row = Vec::with_capacity(cm.inputs_len() + cm.outputs_len() + cm.regs_len());
        for i in 0..cm.inputs_len() {
            row.push(inputs.get(cm.input_name(i)).cloned().unwrap_or_else(BigInt::zero));
        }
        row.extend((0..cm.outputs_len()).map(|i| vm.output_value(i)));
        row.extend((0..cm.regs_len()).map(|i| vm.reg_value(i)));
        Ok(row)
    })
}

/// Records the generated sequential program at `width` via the
/// tree-walking [`SeqRunner`]. The trace declares the scheduled inputs and
/// the program's own scalar outputs and registers, as its first cycle
/// produces them; widths come from `em` where the names match (the cosim
/// contract guarantees they do for everything compared).
fn record_seq(
    prog: &SeqProgram,
    em: &ElabModule,
    width: u64,
    schedule: &[Inputs],
) -> Result<Trace, LayerError> {
    let width_of = |name: &str| -> u64 {
        em.signals.iter().find(|s| s.name == name).map(|s| s.width).unwrap_or(64)
    };
    let scalars = |values: &BTreeMap<String, SValue>| -> Inputs {
        values.iter().filter_map(|(k, v)| v.scalar().map(|b| (k.clone(), b))).collect()
    };
    let runner =
        SeqRunner::new(prog, [("len".to_string(), BigInt::from(width))].into_iter().collect());

    // Run first, declare after: the program names its scalar outputs and
    // registers by producing them.
    let mut rows: Vec<(Inputs, Inputs)> = Vec::new();
    let mut failure = None;
    match runner.init_regs(&BTreeMap::new()) {
        Err(e) => failure = Some((None, format!("{SCOPE_SEQ}: {e}"))),
        Ok(mut regs) => {
            for (cycle, inputs) in schedule.iter().enumerate() {
                let sw_inputs: BTreeMap<String, SValue> =
                    inputs.iter().map(|(k, v)| (k.clone(), SValue::Int(v.clone()))).collect();
                match runner.trans(&sw_inputs, &regs) {
                    Ok(sw) => {
                        rows.push((scalars(&sw.outputs), scalars(&sw.regs)));
                        regs = sw.regs;
                    }
                    Err(e) => {
                        failure = Some((Some(cycle), e.to_string()));
                        break;
                    }
                }
            }
        }
    }

    let mut trace = Trace::new(SCOPE_SEQ);
    let mut plan: Vec<(String, SignalKind)> = Vec::new();
    for name in schedule.first().into_iter().flat_map(BTreeMap::keys) {
        plan.push((name.clone(), SignalKind::Input));
    }
    if let Some((outs, regs)) = rows.first() {
        plan.extend(outs.keys().map(|name| (name.clone(), SignalKind::Output)));
        plan.extend(regs.keys().map(|name| (name.clone(), SignalKind::Register)));
    }
    for (name, kind) in &plan {
        trace.declare(name, width_of(name), *kind);
    }
    for ((outs, regs), inputs) in rows.iter().zip(schedule) {
        let row = plan
            .iter()
            .map(|(name, kind)| {
                let v = match kind {
                    SignalKind::Input => inputs.get(name),
                    SignalKind::Output => outs.get(name),
                    _ => regs.get(name),
                };
                v.cloned().unwrap_or_else(BigInt::zero)
            })
            .collect();
        trace.push_cycle(row);
    }
    match failure {
        None => Ok(trace),
        Some((None, message)) => Err(LayerError::unrun(trace, message)),
        Some((Some(cycle), e)) => Err(LayerError::stopped(trace, cycle, e)),
    }
}

/// Records every executable layer of one module at `width` over
/// `schedule`, in the order capture lists them: the reference interpreter
/// on `em`, the generated program, the compiled slot-VM, and the
/// interpreter on the `when`-flattened module. A layer the caller could
/// not build comes back as its reason, with no cycle.
pub fn record_layers(
    em: &ElabModule,
    prog: Result<&SeqProgram, String>,
    compiled: Result<&CompiledModule, String>,
    flat: Result<&ElabModule, String>,
    width: u64,
    schedule: &[Inputs],
) -> [Result<Trace, LayerError>; 4] {
    let unbuilt = |scope: &str, message| Err(LayerError::unrun(Trace::new(scope), message));
    [
        record_interp(SCOPE_INTERP, em, schedule),
        prog.map_or_else(|e| unbuilt(SCOPE_SEQ, e), |p| record_seq(p, em, width, schedule)),
        compiled.map_or_else(|e| unbuilt(SCOPE_COMPILED, e), |cm| record_compiled(cm, schedule)),
        flat.map_or_else(|e| unbuilt(SCOPE_FLAT, e), |f| record_interp(SCOPE_FLAT, f, schedule)),
    ]
}

/// `d`'s `when`-flattened module, elaborated at `width`.
fn flat_elab(d: &Design, width: u64) -> Result<ElabModule, String> {
    let flat = flatten_whens(&(d.build)()).map_err(|e| format!("{}: flatten: {e}", d.name))?;
    let bindings: Bindings = [("len".to_string(), width as i64)].into_iter().collect();
    elaborate(&flat, &bindings)
        .map_err(|e| format!("{}: flattened elaboration at width {width}: {e}", d.name))
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
/// and spec failures, over the case's inputs held for `case.cycles`
/// cycles; the formal miter for gate failures), marking the first
/// divergent cycle/signal on the earliest-diverging pair. Layers that
/// cannot be built or run are left out. Returns the traces and the marked
/// divergence, if any.
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
    let Ok(em) = elab(d, case.width) else { return (Vec::new(), None) };
    let prog = transform_arc(d);
    let plan = sim_plan(d, case.width);
    let compiled = plan.as_ref().map_err(Clone::clone).and_then(|p| {
        p.chisel
            .as_deref()
            .ok_or_else(|| format!("{}: no compiled module at width {}", d.name, case.width))
    });
    let flat = flat_elab(d, case.width);
    let schedule = vec![case.input_map(d); case.cycles as usize];
    let layers = record_layers(
        &em,
        prog.as_deref().map_err(Clone::clone),
        compiled,
        flat.as_ref().map_err(Clone::clone),
        case.width,
        &schedule,
    );
    let mut traces: Vec<Trace> = layers.into_iter().filter_map(Result::ok).collect();
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
pub fn capture_failure(d: &Design, failure: &Failure) -> Option<PathBuf> {
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
        sim_backend: failure.run.backend.name().to_string(),
        master_seed: failure.run.seed,
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
        replay_env: failure.run_replay_line(),
        replay_cmd: failure.replay_cmd(),
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
        let (traces, divergence) = capture_traces(&d, Layer::Cosim, &case);
        assert_eq!(divergence, None, "layers agree on a passing case");
        let scopes: Vec<&str> = traces.iter().map(|t| t.scope.as_str()).collect();
        assert_eq!(
            scopes,
            [SCOPE_INTERP, SCOPE_SEQ, SCOPE_COMPILED, SCOPE_FLAT],
            "every layer records"
        );
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
