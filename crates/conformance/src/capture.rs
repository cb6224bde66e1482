//! Counterexample capture and the one cosim comparison: the one recorder
//! of the executable layers, the one comparison of what it recorded,
//! typed waveforms from it, and self-contained replay bundles.
//!
//! [`record_layers`] drives the Chisel reference interpreter and any of
//! the other executable layers of one module at one width — the generated
//! sequential program, the compiled slot-VM, the interpreter on the
//! `when`-flattened module and the compiled sequential VM — over an input
//! *schedule* (one input map per cycle) and returns, per layer, a typed
//! [`Trace`] or the [`LayerError`] that stopped it. [`compare_layers`]
//! then compares every recorded layer with the interpreter. The
//! conformance engine's `interp` and `both` cosim checks record a case's
//! inputs held for `case.cycles` cycles and compare them through it; the
//! generative fuzzer records, and compares, its own random schedule
//! through the same two functions.
//!
//! When a conformance case diverges (and only then — on the already-shrunk
//! final counterexample, so the green path never pays for any of this),
//! [`capture_failure`] records the case through all five layers, marks the
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
use chicala_seq::{SValue, SeqCompiled, SeqProgram, SeqRunner, SeqVm};
use chicala_telemetry as telemetry;
use chicala_trace::{
    first_divergence, git_rev, mark_earliest, Divergence, ReplayBundle, SignalKind, Trace,
    SCHEMA_VERSION,
};
use std::collections::{BTreeMap, BTreeSet};
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
/// The compiled sequential VM's scope.
pub const SCOPE_SEQ_VM: &str = "seq_vm";
/// The gate-level miter counterexample's scope.
pub const SCOPE_MITER: &str = "gates_miter";

/// One cycle's input values by port name; a schedule is one per cycle.
pub type Inputs = BTreeMap<String, BigInt>;

/// A layer [`record_layers`] records besides the reference interpreter,
/// as its caller built it: `Err` carries the reason it could not be built.
pub enum ExecLayer<'a> {
    /// The generated sequential program, on the tree-walking [`SeqRunner`].
    Program(Result<&'a SeqProgram, String>),
    /// The compiled Chisel slot-VM.
    Compiled(Result<&'a CompiledModule, String>),
    /// The interpreter on the `when`-flattened module.
    Flat(Result<&'a ElabModule, String>),
    /// The generated program compiled for one width, on [`SeqVm`].
    SeqVm(Result<&'a SeqCompiled, String>),
}

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
        trace.declare(name, width_of(em, name), *kind);
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

/// The width `em` gives the signal `name`, or 64 for a name it lacks.
fn width_of(em: &ElabModule, name: &str) -> u64 {
    em.signals.iter().find(|s| s.name == name).map(|s| s.width).unwrap_or(64)
}

/// Records the compiled sequential VM: the scheduled inputs, then the
/// compiled program's outputs and registers, with widths from `em` as for
/// the program.
fn record_seq_vm(
    prog: &SeqCompiled,
    em: &ElabModule,
    schedule: &[Inputs],
) -> Result<Trace, LayerError> {
    let mut trace = Trace::new(SCOPE_SEQ_VM);
    let inputs: Vec<&String> = schedule.first().into_iter().flat_map(BTreeMap::keys).collect();
    for name in &inputs {
        trace.declare(*name, width_of(em, name), SignalKind::Input);
    }
    for i in 0..prog.outputs_len() {
        trace.declare(prog.output_name(i), width_of(em, prog.output_name(i)), SignalKind::Output);
    }
    for i in 0..prog.regs_len() {
        trace.declare(prog.reg_name(i), width_of(em, prog.reg_name(i)), SignalKind::Register);
    }
    let mut vm = match SeqVm::new(prog, &BTreeMap::new()) {
        Ok(vm) => vm,
        Err(e) => return Err(LayerError::unrun(trace, format!("{SCOPE_SEQ_VM}: {e}"))),
    };
    let scalar = |v: SValue| v.scalar().unwrap_or_else(BigInt::zero);
    drive(trace, schedule, |values| {
        let sw: BTreeMap<String, SValue> =
            values.iter().map(|(k, v)| (k.clone(), SValue::Int(v.clone()))).collect();
        vm.set_inputs(&sw).map_err(|e| e.to_string())?;
        vm.step().map_err(|e| e.to_string())?;
        let mut row: Vec<BigInt> = inputs
            .iter()
            .map(|name| values.get(*name).cloned().unwrap_or_else(BigInt::zero))
            .collect();
        row.extend((0..prog.outputs_len()).map(|i| scalar(vm.output_svalue(i))));
        row.extend((0..prog.regs_len()).map(|i| scalar(vm.reg_svalue(i))));
        Ok(row)
    })
}

/// Records the reference interpreter on `em`, then each of `layers` in
/// order, over `schedule` at `width`. A layer the caller could not build
/// comes back as its reason, with no cycle.
pub fn record_layers(
    em: &ElabModule,
    layers: &[ExecLayer<'_>],
    width: u64,
    schedule: &[Inputs],
) -> Vec<Result<Trace, LayerError>> {
    let unbuilt = |scope: &str, message: &String| {
        Err(LayerError::unrun(Trace::new(scope), message.clone()))
    };
    let mut traces = vec![record_interp(SCOPE_INTERP, em, schedule)];
    traces.extend(layers.iter().map(|layer| match layer {
        ExecLayer::Program(p) => p
            .as_ref()
            .map_or_else(|e| unbuilt(SCOPE_SEQ, e), |p| record_seq(p, em, width, schedule)),
        ExecLayer::Compiled(cm) => cm
            .as_ref()
            .map_or_else(|e| unbuilt(SCOPE_COMPILED, e), |cm| record_compiled(cm, schedule)),
        ExecLayer::Flat(f) => f
            .as_ref()
            .map_or_else(|e| unbuilt(SCOPE_FLAT, e), |f| record_interp(SCOPE_FLAT, f, schedule)),
        ExecLayer::SeqVm(p) => p
            .as_ref()
            .map_or_else(|e| unbuilt(SCOPE_SEQ_VM, e), |p| record_seq_vm(p, em, schedule)),
    }));
    traces
}

/// How messages name the layer recorded under `scope`, and its values.
fn layer_names(scope: &str) -> (&'static str, &'static str) {
    match scope {
        SCOPE_SEQ => ("sequential program", "program"),
        SCOPE_COMPILED => ("compiled VM", "compiled"),
        SCOPE_FLAT => ("when-flattened module", "flattened"),
        SCOPE_SEQ_VM => ("sequential VM", "seq_vm"),
        _ => ("layer", "layer"),
    }
}

/// The names `t` declares with role `kind`.
fn names(t: &Trace, kind: SignalKind) -> BTreeSet<&str> {
    t.signals.iter().filter(|s| s.kind == kind).map(|s| s.name.as_str()).collect()
}

/// The earliest way `layer` departs from the reference `interp`, keyed by
/// cycle (`None`: before any cycle): a failure to build or initialize,
/// signals other than the interpreter's, a value on a cycle both recorded,
/// or a failure to step. The message names the layer and its values by its
/// scope (`chicala_gen`'s `stage_of` classifies it by them).
fn departure(
    interp: &Trace,
    layer: &Result<Trace, LayerError>,
    width: u64,
) -> Option<(Option<u64>, String)> {
    let (trace, failure) = match layer {
        Ok(t) => (t, None),
        // The sequential VM may decline a program or stop at its `i128`
        // envelope, where the engine falls back to the interpreters: it is
        // compared on the cycles it ran, and the stop is no departure.
        Err(e) if e.partial.scope == SCOPE_SEQ_VM => (&*e.partial, None),
        Err(e) => (&*e.partial, Some((e.cycle, format!("width {width}: {}", e.message)))),
    };
    if let Some((None, _)) = failure {
        return failure;
    }
    let (what, label) = layer_names(&trace.scope);
    // The program, on either engine, declares its own outputs and
    // registers: every interpreter output, and only registers the
    // interpreter knows. The other layers run the same module: exactly
    // the interpreter's outputs and registers.
    let (output, register) = (SignalKind::Output, SignalKind::Register);
    let undeclared = if trace.is_empty() {
        None
    } else if matches!(trace.scope.as_str(), SCOPE_SEQ | SCOPE_SEQ_VM) {
        let missing = names(interp, output).difference(&names(trace, output)).next().copied();
        let unknown = names(trace, register).difference(&names(interp, register)).next().copied();
        missing
            .map(|n| format!("output `{n}` missing from {label}"))
            .or_else(|| unknown.map(|n| format!("{label} register `{n}` unknown to interpreter")))
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

/// The one cosim comparison: every layer [`record_layers`] recorded
/// against the reference interpreter, `layers[0]`, on every output and
/// register of every cycle both recorded. `Err` reports the earliest
/// departure across all layers, naming `width`; ties go to the
/// interpreter's own failure, then to the layer recorded first.
pub fn compare_layers(layers: &[Result<Trace, LayerError>], width: u64) -> Result<(), String> {
    let Some((interp, layers)) = layers.split_first() else { return Ok(()) };
    let (interp, mut earliest) = match interp {
        Ok(t) => (t, None),
        Err(e) if e.cycle.is_none() => return Err(format!("width {width}: {}", e.message)),
        Err(e) => (&*e.partial, Some((e.cycle, format!("width {width}: {}", e.message)))),
    };
    for layer in layers {
        if let Some(found) = departure(interp, layer, width) {
            if earliest.as_ref().is_none_or(|(cycle, _)| found.0 < *cycle) {
                earliest = Some(found);
            }
        }
    }
    earliest.map_or(Ok(()), |(_, msg)| Err(msg))
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
                let vals = ob.netlist.eval_all(&|input| cex.get(&input).copied().unwrap_or(false));
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
    let sim = sim_plan(d, case.width);
    let plan = sim.as_deref().map_err(Clone::clone);
    let missing = |what: &str| format!("{}: no {what} at width {}", d.name, case.width);
    let flat = flat_elab(d, case.width);
    let layers = [
        ExecLayer::Program(prog.as_deref().map_err(Clone::clone)),
        ExecLayer::Compiled(plan.clone().and_then(|p| {
            p.chisel.as_deref().ok_or_else(|| missing("compiled module"))
        })),
        ExecLayer::Flat(flat.as_ref().map_err(Clone::clone)),
        ExecLayer::SeqVm(
            plan.and_then(|p| p.seq.as_deref().ok_or_else(|| missing("compiled program"))),
        ),
    ];
    let schedule = vec![case.input_map(d); case.cycles as usize];
    let layers = record_layers(&em, &layers, case.width, &schedule);
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
/// Returns `None` when the artifacts cannot be written.
pub fn capture_failure(d: &Design, failure: &Failure) -> Option<PathBuf> {
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
    use crate::engine::{check_case_with, SimBackend};
    use crate::registry::InputSpec;
    use chicala_chisel::{ChiselType, Expr, Module, ModuleBuilder};
    use chicala_trace::vcd::{parse_vcd, write_vcd, MARKER};

    fn known_case() -> Case {
        Case {
            width: 4,
            cycles: 5,
            inputs: vec![BigInt::from(11u64), BigInt::from(13u64)],
        }
    }

    #[test]
    fn five_layers_record_and_agree_on_a_passing_case() {
        let d = Design::by_name("rmul").expect("registered");
        let case = known_case().normalized(&d);
        let (traces, divergence) = capture_traces(&d, Layer::Cosim, &case);
        assert_eq!(divergence, None, "layers agree on a passing case");
        let scopes: Vec<&str> = traces.iter().map(|t| t.scope.as_str()).collect();
        assert_eq!(
            scopes,
            [SCOPE_INTERP, SCOPE_SEQ, SCOPE_COMPILED, SCOPE_FLAT, SCOPE_SEQ_VM],
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
        let vals = ob.netlist.eval_all(&|_| false);
        let t = miter_trace(&ob, &vals);
        assert_eq!(t.len(), 1, "one-cycle trace");
        assert!(t.signal_index("acc").is_some());
        assert!(t.signal_index("golden_acc").is_some());
        assert_eq!(t.divergence, None, "agreeing cones are unmarked");
        assert_eq!(t.value(0, "acc"), t.value(0, "golden_acc"));
        let vcd = write_vcd(&t);
        assert!(!vcd.contains(MARKER), "no marker without a divergence");
    }

    /// A one-bit input port that a `go` flag latches into `r` from the
    /// second cycle on. The engine masks a case's inputs to the case width,
    /// not to each port's: the interpreters and the compiled Chisel VM
    /// read the port's low bit, while the generated program, on either
    /// engine, reads the value it is given.
    fn narrow_port() -> Module {
        let mut m = ModuleBuilder::new("NarrowPort", &["len"]);
        let len = m.param("len");
        let io_x = m.input("io_x", ChiselType::uint(1));
        let io_y = m.output("io_y", ChiselType::uint(len.clone()));
        let go = m.reg_init("go", ChiselType::Bool, Expr::lit_b(false));
        let r = m.reg_init("r", ChiselType::uint(len.clone()), Expr::lit_u(0, len));
        m.connect(go.lv(), Expr::lit_b(true));
        let (r2, x) = (r.clone(), io_x.clone());
        m.when(go.e(), move |b| b.connect(r2.lv(), x.e()));
        m.connect(io_y.lv(), r.e());
        m.build()
    }

    /// Under `interp` and `both`, the engine's cosim check reports the
    /// width, cycle and signal that failure capture marks: both compare
    /// recorded layers with the reference interpreter.
    #[test]
    fn cosim_check_and_capture_agree_on_a_real_divergence() {
        let d = Design {
            name: "narrow_port_drill",
            build: narrow_port,
            inputs: &[InputSpec { name: "io_x", nonzero: false }],
            min_width: 2,
            gate_max_width: 8,
            latency: |_| 3,
            spec: |_, _, _| Ok(()),
            gate_spec: None,
        };
        let case = Case { width: 4, cycles: 3, inputs: vec![BigInt::from(3u64)] };
        let (traces, marked) = capture_traces(&d, Layer::Cosim, &case);
        assert_eq!(traces.len(), 5, "all five layers record");
        let marked = marked.expect("capture marks the divergence");
        assert_eq!((marked.cycle, marked.signal.as_str()), (1, "r"));
        let at = format!("cosim: width 4 cycle {}: sequential program diverges on ", marked.cycle);
        for backend in [SimBackend::Interp, SimBackend::Both] {
            let message = check_case_with(&d, Layer::Cosim, &case, backend)
                .expect_err("the program reads the whole input");
            assert!(
                message.starts_with(&at),
                "{backend}: capture marks {marked}, check says {message}"
            );
            assert!(message.contains(&format!("`{}`", marked.signal)), "{backend}: {message}");
        }
    }

    /// A layer trace over `io_in`/`io_out`, one row per cycle.
    fn toy(scope: &str, rows: &[[u64; 2]]) -> Trace {
        let mut t = Trace::new(scope);
        t.declare("io_in", 4, SignalKind::Input);
        t.declare("io_out", 4, SignalKind::Output);
        for row in rows {
            t.push_cycle(row.iter().map(|&v| BigInt::from(v)).collect());
        }
        t
    }

    /// A layer under `scope` that failed to step after recording `rows`.
    fn stopped(scope: &str, rows: &[[u64; 2]]) -> Result<Trace, LayerError> {
        let cycle = rows.len() as u64;
        let message = format!("{scope} cycle {cycle}: boom");
        Err(LayerError { cycle: Some(cycle), message, partial: Box::new(toy(scope, rows)) })
    }

    /// A layer that stops early is still compared on the cycles it ran,
    /// and its failure counts at the cycle it happened.
    #[test]
    fn a_layer_that_stops_early_departs_at_its_earliest_cycle() {
        let interp = toy(SCOPE_INTERP, &[[1, 2], [3, 4], [5, 6]]);
        let diverged_first = stopped(SCOPE_FLAT, &[[1, 2], [3, 9]]);
        assert_eq!(
            departure(&interp, &diverged_first, 4),
            Some((
                Some(1),
                "width 4 cycle 1: when-flattened module diverges on `io_out`: interp=4 flattened=9"
                    .to_string()
            ))
        );
        let agreed_first = stopped(SCOPE_FLAT, &[[1, 2]]);
        assert_eq!(
            departure(&interp, &agreed_first, 4),
            Some((Some(1), "width 4: flat_interp cycle 1: boom".to_string()))
        );
    }

    /// The sequential VM stopping at its `i128` envelope is no departure:
    /// the cycles it ran agree, so nothing is reported.
    #[test]
    fn a_seq_vm_that_stops_early_is_compared_on_the_cycles_it_ran() {
        let interp = toy(SCOPE_INTERP, &[[1, 2], [3, 4], [5, 6]]);
        let seq_vm = stopped(SCOPE_SEQ_VM, &[[1, 2], [3, 4]]);
        assert_eq!(departure(&interp, &seq_vm, 4), None);
        assert_eq!(compare_layers(&[Ok(interp), seq_vm], 4), Ok(()));
    }

    /// A value the sequential VM computed differently is a departure, with
    /// its width, cycle and signal, even when the VM stopped afterwards.
    #[test]
    fn a_seq_vm_value_departure_is_reported_with_width_cycle_and_signal() {
        let interp = toy(SCOPE_INTERP, &[[1, 2], [3, 4], [5, 6]]);
        let want = "width 4 cycle 1: sequential VM diverges on `io_out`: interp=4 seq_vm=9";
        let ran = Ok(toy(SCOPE_SEQ_VM, &[[1, 2], [3, 9], [5, 6]]));
        for seq_vm in [ran, stopped(SCOPE_SEQ_VM, &[[1, 2], [3, 9]])] {
            assert_eq!(departure(&interp, &seq_vm, 4), Some((Some(1), want.to_string())));
            assert_eq!(compare_layers(&[Ok(interp.clone()), seq_vm], 4), Err(want.to_string()));
        }
    }

    /// A program the sequential VM declines (it does not compile, or its
    /// initial state or inputs leave the `i128` envelope) is no departure.
    #[test]
    fn a_seq_vm_decline_is_not_reported() {
        let interp = toy(SCOPE_INTERP, &[[1, 2], [3, 4]]);
        let declined = LayerError::unrun(Trace::new(SCOPE_SEQ_VM), "unsupported".to_string());
        assert_eq!(departure(&interp, &Err(declined.clone()), 4), None);
        assert_eq!(compare_layers(&[Ok(interp), Err(declined)], 4), Ok(()));
    }
}
