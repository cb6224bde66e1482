//! Failure capture for the generative fuzzer: replays a shrunk reproducer
//! through the four executable layers with the exact deterministic input
//! schedule the soak used, records one typed [`Trace`] per layer, and
//! writes the VCD pair plus a schema-versioned replay bundle (see
//! [`chicala_trace::bundle`]) under `target/chicala-failures/`.

use crate::check::{gen_inputs, sample_widths};
use crate::generate::GenModule;
use crate::SoakDivergence;
use chicala_bigint::BigInt;
use chicala_chisel::{
    compile, elaborate, flatten_whens, Bindings, CompiledSim, ElabKind, ElabModule, Simulator,
};
use chicala_conformance::SplitMix64;
use chicala_core::transform;
use chicala_seq::{SValue, SeqRunner};
use chicala_telemetry as telemetry;
use chicala_trace::{
    capture_enabled, git_rev, mark_earliest, Divergence, ReplayBundle, SignalKind, Trace,
    SCHEMA_VERSION,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Classifies a divergence message into the pipeline stage it came from
/// (the bundle's `layer` field).
pub fn stage_of(message: &str) -> &'static str {
    if message.contains("when-flattened") || message.contains("flatten") {
        "flatten"
    } else if message.contains("compiled VM") {
        "compiled"
    } else if message.contains("sequential") || message.contains("program") {
        "seq"
    } else if message.contains("miter") {
        "miter"
    } else {
        "check"
    }
}

/// An in-progress per-layer recording: declared signals plus a row plan
/// telling each cycle which map every value comes from.
struct Recorder {
    trace: Trace,
    plan: Vec<(String, SignalKind)>,
}

impl Recorder {
    fn from_elab(scope: &str, em: &ElabModule) -> Recorder {
        let mut trace = Trace::new(scope);
        let mut plan = Vec::new();
        // Kind-grouped declaration order: the VCD writer emits one
        // sub-scope per kind, so this keeps a parse round trip exact.
        for want in [SignalKind::Input, SignalKind::Output, SignalKind::Register] {
            for sig in &em.signals {
                let kind = match sig.kind {
                    ElabKind::Input => SignalKind::Input,
                    ElabKind::Output => SignalKind::Output,
                    ElabKind::Reg { .. } => SignalKind::Register,
                    ElabKind::Wire => continue,
                };
                if kind != want {
                    continue;
                }
                trace.declare(&sig.name, sig.width, kind);
                plan.push((sig.name.clone(), kind));
            }
        }
        Recorder { trace, plan }
    }

    fn push(
        &mut self,
        inputs: &BTreeMap<String, BigInt>,
        outputs: &BTreeMap<String, BigInt>,
        reg: impl Fn(&str) -> Option<BigInt>,
    ) {
        let row = self
            .plan
            .iter()
            .map(|(name, kind)| {
                match kind {
                    SignalKind::Input => inputs.get(name).cloned(),
                    SignalKind::Output => outputs.get(name).cloned(),
                    _ => reg(name),
                }
                .unwrap_or_else(BigInt::zero)
            })
            .collect();
        self.trace.push_cycle(row);
    }
}

/// Replays the cosim stage's exact deterministic schedule for `g` at one
/// width (same RNG derivation, same cycle count, same per-cycle inputs as
/// `check::check_cosim_width`), recording every layer that elaborates or
/// compiles. Layer errors mid-recording truncate that layer's trace rather
/// than aborting the capture.
pub fn record_width_traces(g: &GenModule, width: u64, seed: u64) -> Result<Vec<Trace>, String> {
    let b: Bindings = [("len".to_string(), width as i64)].into_iter().collect();
    let em = elaborate(&g.module, &b).map_err(|e| format!("elaborate at {width}: {e}"))?;
    let no_overrides = BTreeMap::new();
    let mut sim = Simulator::new(&em, &no_overrides).map_err(|e| format!("simulator: {e}"))?;
    let mut rec_interp = Recorder::from_elab("chisel_interp", &em);

    let flat_em = flatten_whens(&g.module).ok().and_then(|flat| elaborate(&flat, &b).ok());
    let mut flat_side = flat_em.as_ref().and_then(|em_flat| {
        let sim = Simulator::new(em_flat, &no_overrides).ok()?;
        Some((sim, Recorder::from_elab("flat_interp", em_flat)))
    });

    let cm = compile(&em).ok();
    let mut vm_side = cm.as_ref().map(|cm| {
        let mut rec = Recorder { trace: Trace::new("compiled_vm"), plan: Vec::new() };
        for i in 0..cm.inputs_len() {
            rec.trace.declare(cm.input_name(i), cm.input_width(i), SignalKind::Input);
            rec.plan.push((cm.input_name(i).to_string(), SignalKind::Input));
        }
        for i in 0..cm.outputs_len() {
            rec.trace.declare(cm.output_name(i), cm.output_width(i), SignalKind::Output);
            rec.plan.push((cm.output_name(i).to_string(), SignalKind::Output));
        }
        for i in 0..cm.regs_len() {
            rec.trace.declare(cm.reg_name(i), cm.reg_width(i), SignalKind::Register);
            rec.plan.push((cm.reg_name(i).to_string(), SignalKind::Register));
        }
        (CompiledSim::new(cm, &no_overrides), rec)
    });

    let params: BTreeMap<String, BigInt> =
        [("len".to_string(), BigInt::from(width))].into_iter().collect();
    let mut seq_side = transform(&g.module).ok().and_then(|out| {
        let prog = out.program;
        let runner = SeqRunner::new(&prog, params.clone());
        let regs = runner.init_regs(&BTreeMap::new()).ok()?;
        // The program's signals mirror the elaborated module's by name.
        let rec = Recorder::from_elab("seq_program", &em);
        Some((prog, regs, rec))
    });

    let mut rng = SplitMix64::new(seed ^ width.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let cycles = 4 + rng.below(4);
    let mut kill_flat = false;
    let mut kill_seq = false;
    for _cycle in 0..cycles {
        let inputs = gen_inputs(&mut rng, g, &em);

        match sim.step(&inputs) {
            Ok(out) => rec_interp.push(&inputs, &out, |n| sim.reg(n).cloned()),
            Err(_) => break,
        }
        if let Some((sim_flat, rec)) = &mut flat_side {
            match sim_flat.step(&inputs) {
                Ok(out) => {
                    let s = &*sim_flat;
                    rec.push(&inputs, &out, |n| s.reg(n).cloned());
                }
                Err(_) => kill_flat = true,
            }
        }
        if kill_flat {
            flat_side = None;
        }
        if let Some((vm, rec)) = &mut vm_side {
            let out = vm.step_map(&inputs);
            rec.push(&inputs, &out, |n| vm.reg(n));
        }
        if let Some((prog, regs, rec)) = &mut seq_side {
            let runner = SeqRunner::new(prog, params.clone());
            let sw_in: BTreeMap<String, SValue> =
                inputs.iter().map(|(k, v)| (k.clone(), SValue::Int(v.clone()))).collect();
            match runner.trans(&sw_in, regs) {
                Ok(sw) => {
                    let outs: BTreeMap<String, BigInt> = sw
                        .outputs
                        .iter()
                        .filter_map(|(k, v)| v.scalar().map(|b| (k.clone(), b)))
                        .collect();
                    let rmap: BTreeMap<String, BigInt> = sw
                        .regs
                        .iter()
                        .filter_map(|(k, v)| v.scalar().map(|b| (k.clone(), b)))
                        .collect();
                    rec.push(&inputs, &outs, |n| rmap.get(n).cloned());
                    *regs = sw.regs;
                }
                Err(_) => kill_seq = true,
            }
        }
        if kill_seq {
            seq_side = None;
        }
    }

    let mut traces = vec![rec_interp.trace];
    if let Some((_, rec)) = flat_side {
        traces.push(rec.trace);
    }
    if let Some((_, rec)) = vm_side {
        traces.push(rec.trace);
    }
    if let Some((_, _, rec)) = seq_side {
        traces.push(rec.trace);
    }
    Ok(traces)
}

/// Captures a shrunk soak divergence: walks the same sampled widths the
/// cosim stage used, records the executable layers at the first width
/// where any pair disagrees, and writes the VCDs plus the replay bundle.
/// Divergences outside the cosim stage (transform or self-miter failures)
/// still produce a bundle — with the shrunk module and replay line, but
/// no traces. Returns `None` when capture is disabled or writing fails.
pub fn capture_divergence(g: &GenModule, div: &SoakDivergence) -> Option<PathBuf> {
    if !capture_enabled() {
        return None;
    }
    let mut captured: Option<(u64, Vec<Trace>, Option<Divergence>)> = None;
    for width in sample_widths(div.case_seed, div.max_width) {
        let Ok(mut traces) = record_width_traces(g, width, div.case_seed) else { continue };
        if let Some(marked) = mark_earliest(&mut traces) {
            captured = Some((width, traces, Some(marked)));
            break;
        }
    }
    let (width, traces, divergence) = captured.unwrap_or((0, Vec::new(), None));
    let cycles = traces.first().map(|t| t.len() as u64).unwrap_or(0);
    let mut bundle = ReplayBundle {
        schema: SCHEMA_VERSION,
        kind: "gen".to_string(),
        design: "generated".to_string(),
        layer: stage_of(&div.shrunk_message).to_string(),
        backend: "auto".to_string(),
        sim_backend: "interp".to_string(),
        master_seed: div.case_seed,
        case_seed: div.case_seed,
        max_width: div.max_width,
        width,
        cycles,
        inputs: Vec::new(),
        message: div.shrunk_message.clone(),
        divergence,
        module: format!("{:#?}", div.shrunk),
        git_rev: git_rev(),
        replay_env: div.replay_line(),
        replay_cmd: div.replay_line(),
        vcd_files: Vec::new(),
    };
    let refs: Vec<&Trace> = traces.iter().collect();
    let path = bundle.write_with_traces(&refs).ok()?;
    telemetry::event(
        "conformance.divergence",
        &[
            ("design", "generated".to_string()),
            ("layer", bundle.layer.clone()),
            ("bundle", path.display().to_string()),
        ],
    );
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::gen_module;
    use chicala_trace::vcd::{parse_vcd, write_vcd};

    #[test]
    fn recorded_layers_agree_on_green_modules() {
        for seed in [1u64, 7, 0xABCD] {
            let g = gen_module(seed);
            let traces =
                record_width_traces(&g, 4, seed).expect("generated modules elaborate at 4");
            assert!(traces.len() >= 2, "at least interpreter + one other layer");
            let mut traces = traces;
            assert_eq!(
                mark_earliest(&mut traces),
                None,
                "seed {seed}: all recorded layers agree on a green module"
            );
            for t in &traces {
                assert!(!t.is_empty(), "{}: recorded cycles", t.scope);
                assert_eq!(parse_vcd(&write_vcd(t)).expect("parses"), *t, "{}", t.scope);
            }
        }
    }

    #[test]
    fn stage_classification() {
        assert_eq!(stage_of("width 4 cycle 1: when-flattened module diverges…"), "flatten");
        assert_eq!(stage_of("width 4 cycle 0: compiled VM diverges on outputs"), "compiled");
        assert_eq!(stage_of("width 4 cycle 2: sequential program diverges"), "seq");
        assert_eq!(stage_of("self-miter falsified at width 4"), "miter");
        assert_eq!(stage_of("transform: unsupported"), "check");
    }
}
