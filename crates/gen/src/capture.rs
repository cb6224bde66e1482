//! Failure capture for the generative fuzzer: records a shrunk reproducer
//! through the five executable layers over the cosim stage's own input
//! schedule, with `check::record_cosim`, the function the check records
//! with, and writes the VCDs plus a schema-versioned replay bundle (see
//! [`chicala_trace::bundle`]) under `target/chicala-failures/`.

use crate::check::{record_cosim, sample_widths};
use crate::generate::GenModule;
use crate::SoakDivergence;
use chicala_chisel::flatten_whens;
use chicala_core::transform;
use chicala_telemetry as telemetry;
use chicala_trace::{git_rev, mark_earliest, Divergence, ReplayBundle, Trace, SCHEMA_VERSION};
use std::path::PathBuf;

/// Classifies a divergence message into the pipeline stage it came from
/// (the bundle's `layer` field).
pub fn stage_of(message: &str) -> &'static str {
    if message.contains("when-flattened") || message.contains("flatten") {
        "flatten"
    } else if message.contains("compiled VM") {
        "compiled"
    } else if message.contains("sequential VM") || message.contains("seq_vm") {
        "seq_vm"
    } else if message.contains("sequential") || message.contains("program") {
        "seq"
    } else if message.contains("miter") {
        "miter"
    } else {
        "check"
    }
}

/// Records `g` at one width over the cosim stage's schedule, keeping every
/// layer that builds and runs to the end (a failed layer is left out).
pub fn record_width_traces(g: &GenModule, width: u64, seed: u64) -> Result<Vec<Trace>, String> {
    let flat = flatten_whens(&g.module).map_err(|e| format!("flatten_whens: {e}"));
    let prog = transform(&g.module).map(|out| out.program).map_err(|e| format!("transform: {e}"));
    let layers = record_cosim(
        g,
        flat.as_ref().map_err(Clone::clone),
        prog.as_ref().map_err(Clone::clone),
        width,
        seed,
    )?;
    Ok(layers.into_iter().filter_map(Result::ok).collect())
}

/// Captures a shrunk soak divergence: walks the same sampled widths the
/// cosim stage used, records the executable layers at the first width
/// where any pair disagrees, and writes the VCDs plus the replay bundle.
/// Divergences outside the cosim stage (transform or self-miter failures)
/// still produce a bundle — with the shrunk module and replay line, but
/// no traces. Returns `None` when writing fails.
pub fn capture_divergence(g: &GenModule, div: &SoakDivergence) -> Option<PathBuf> {
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
        // The texts `chicala_conformance::compare_layers` reports, after `cosim: `.
        for (message, stage) in [
            ("width 4 cycle 1: when-flattened module diverges on `r`: interp=1 flattened=0", "flatten"),
            ("width 4: when-flattened module declares registers {}, interpreter {\"r\"}", "flatten"),
            ("width 4: flattened module fails to elaborate: unbound `len`", "flatten"),
            ("width 4: flat_interp: combinational loop through `w`", "check"),
            ("width 4: flat_interp cycle 3: combinational loop through `w`", "check"),
            ("width 4 cycle 0: compiled VM diverges on `o`: interp=1 compiled=0", "compiled"),
            ("width 4: compiled VM declares outputs {}, interpreter {\"o\"}", "compiled"),
            ("width 4: compiled VM rejects module: unsupported", "compiled"),
            ("width 4 cycle 2: sequential program diverges on `o`: interp=1 program=0", "seq"),
            ("width 4: output `o` missing from program", "seq"),
            ("width 4: program register `r` unknown to interpreter", "seq"),
            ("width 4: seq_program: division by zero", "seq"),
            ("width 4: seq_program cycle 3: division by zero", "seq"),
            ("width 4 cycle 2: sequential VM diverges on `o`: interp=1 seq_vm=0", "seq_vm"),
            ("width 4: output `o` missing from seq_vm", "seq_vm"),
            ("width 4: seq_vm register `r` unknown to interpreter", "seq_vm"),
            ("width 4: chisel_interp: combinational loop through `w`", "check"),
            ("width 4: chisel_interp cycle 3: combinational loop through `w`", "check"),
            ("elaborate at 4: unbound `len`", "check"),
        ] {
            assert_eq!(stage_of(&format!("cosim: {message}")), stage, "{message}");
        }
    }
}
