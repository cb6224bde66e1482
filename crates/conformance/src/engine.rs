//! The differential engine: generates seeded random cases and drives every
//! comparable semantic layer in lockstep, reporting the first divergence
//! per design with a replayable seed and a shrunk counterexample.
//!
//! Layers:
//!
//! * [`Layer::Cosim`] — the Chisel IR reference interpreter
//!   ([`chicala_chisel::Simulator`]) against the generated sequential
//!   program ([`chicala_seq::SeqRunner`]), cycle by cycle over every
//!   output and register (experiment E3). The `compiled` backend steps
//!   the two compiled VMs in lockstep (`run_cosim_vms`, the one
//!   hand-written cosim loop); `interp` and `both` record the case through
//!   the layer recorder and compare every recorded layer with the
//!   interpreter ([`crate::capture::compare_layers`], the comparison the
//!   generative fuzzer uses too).
//! * [`Layer::Gates`] — the bit-blasted design ([`chicala_lowlevel::unroll`]),
//!   two ways: each sampled case blasted over its concrete input bits
//!   ([`chicala_lowlevel::Eval`]) against the reference simulator the
//!   [`SimBackend`] selects, plus one *formal* design-vs-golden-model
//!   equivalence proof per width over a symbolic AIG
//!   ([`formal_gate_obligation`], discharged by
//!   [`chicala_lowlevel::Backend::Auto`]: BDDs at small widths, CDCL SAT
//!   above the crossover).
//! * [`Layer::Spec`] — the final state after the design's full latency
//!   against a pure mathematical specification (`a*b`, `n/d`, rotation,
//!   popcount) from the registry.

use crate::capture::{compare_layers, record_layers, ExecLayer, Inputs};
use crate::registry::{all_designs, Design, FinalState, GateEnv};
use crate::rng::SplitMix64;
use crate::shrink::shrink;
use chicala_bigint::BigInt;
use chicala_chisel::{
    compile as compile_chisel, elaborate, Bindings, CompiledModule, CompiledSim, ElabKind,
    ElabModule, Simulator,
};
use chicala_core::transform;
use chicala_lowlevel::{
    constant_word, fresh_inputs, interleaved_bits, prove_net, unroll, Backend, Eval, Net,
    Netlist, ProveResult, UnrolledState, Word,
};
use chicala_par::ThreadPool;
use chicala_seq::{compile_seq, SValue, SeqCompiled, SeqProgram, SeqVm};
use chicala_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which simulator drives the cosim layer and the reference side of the
/// gates and spec layers.
///
/// The compiled backend lowers both sides of the cosim comparison once per
/// (design, width) — the elaborated module to a slot-indexed
/// [`CompiledSim`] and the generated sequential program to a [`SeqVm`] —
/// and reuses the programs across every case, layer and worker. It is
/// exact where it answers at all: any construct or value outside the
/// compiled subset falls back to the tree-walking interpreters for that
/// case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimBackend {
    /// Tree-walking interpreters ([`Simulator`] /
    /// [`SeqRunner`](chicala_seq::SeqRunner)) only.
    Interp,
    /// Compiled VMs with per-case interpreter fallback (the default).
    Compiled,
    /// The interpreters as ground truth, with each compiled VM the (design,
    /// width) has beside them. Cosim compares the program and both VMs
    /// with the reference interpreter on every output and register of
    /// every cycle; the [`SeqVm`] may decline or stop at its `i128`
    /// envelope, which is no divergence. Gates and spec compare the
    /// compiled Chisel VM's final state with the interpreter's. Any
    /// disagreement is reported as a divergence.
    Both,
}

impl SimBackend {
    /// Stable lower-case name: the CLI's `--backend` value, a serve
    /// request's `backend` and a replay bundle's `sim_backend`.
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Interp => "interp",
            SimBackend::Compiled => "compiled",
            SimBackend::Both => "both",
        }
    }

    /// Parses a backend name.
    pub fn parse(s: &str) -> Option<SimBackend> {
        [SimBackend::Interp, SimBackend::Compiled, SimBackend::Both]
            .into_iter()
            .find(|b| b.name() == s)
    }
}

impl fmt::Display for SimBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A comparable semantic layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Interpreter vs generated sequential program, cycle by cycle.
    Cosim,
    /// Reference simulator vs the design blasted to gates and evaluated
    /// on the case's bits, plus one formal gate-level proof per width
    /// (widths up to the design's `gate_max_width`).
    Gates,
    /// Final state vs mathematical specification.
    Spec,
}

impl Layer {
    /// All layers, in reporting order.
    pub const ALL: [Layer; 3] = [Layer::Cosim, Layer::Gates, Layer::Spec];

    /// Stable lower-case name (CLI `--layers` argument).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Cosim => "cosim",
            Layer::Gates => "gates",
            Layer::Spec => "spec",
        }
    }

    /// Parses a layer name.
    pub fn parse(s: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == s)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One generated test case: the elaboration width, the number of cycles to
/// run, and one value per declared input (in registry order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Case {
    /// Elaboration width (`len`).
    pub width: u64,
    /// Clock cycles to simulate (ignored by [`Layer::Spec`], which always
    /// runs the design's full latency).
    pub cycles: u64,
    /// Input values in `Design::inputs` order (masked to `width` bits by
    /// the engine before driving any layer).
    pub inputs: Vec<BigInt>,
}

impl Case {
    /// Masks every input into its port's range, `[0, 2^w)` for the port's
    /// width `w` in `d` elaborated at the case width (the case width if `d`
    /// does not elaborate there), and enforces the registry's non-zero
    /// constraints, so all layers see identical legal stimuli.
    pub fn normalized(&self, d: &Design) -> Case {
        let em = elab(d, self.width).ok();
        let inputs = d
            .inputs
            .iter()
            .zip(&self.inputs)
            .map(|(spec, v)| {
                let port = em.as_ref().and_then(|em| em.signal(spec.name));
                let v = v.to_unsigned(port.map_or(self.width, |p| p.width));
                if spec.nonzero && v.is_zero() {
                    BigInt::one()
                } else {
                    v
                }
            })
            .collect();
        Case { width: self.width, cycles: self.cycles.max(1), inputs }
    }

    /// The input map keyed by port name.
    pub fn input_map(&self, d: &Design) -> BTreeMap<String, BigInt> {
        d.inputs
            .iter()
            .zip(&self.inputs)
            .map(|(spec, v)| (spec.name.to_string(), v.clone()))
            .collect()
    }
}

impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "width={} cycles={} inputs=[", self.width, self.cycles)?;
        for (i, v) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Master seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Cases per design per layer.
    pub cases: usize,
    /// Width ceiling for case generation (the gate layer additionally caps
    /// at each design's `gate_max_width`).
    pub max_width: u64,
    /// Layers to run.
    pub layers: Vec<Layer>,
    /// Stop a design's layer at the first divergence (soak runs may prefer
    /// to keep going and report all of them).
    pub stop_at_first: bool,
    /// Simulator driving the cosim layer and the gates and spec references.
    pub backend: SimBackend,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            seed: crate::rng::seed_from_env(0xC1CA_1A00),
            cases: 32,
            max_width: 24,
            layers: Layer::ALL.to_vec(),
            stop_at_first: true,
            backend: SimBackend::Compiled,
        }
    }
}

/// A divergence between two layers, with everything needed to replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Registry name of the design.
    pub design: String,
    /// Layer pair that diverged.
    pub layer: Layer,
    /// The run's settings: its master seed, and the simulator the case was
    /// checked, shrunk and captured under, which replay must use too.
    pub run: Config,
    /// Per-case seed: `gen_case_for(design, layer, case_seed, max_width)`
    /// regenerates exactly this case.
    pub case_seed: u64,
    /// Width cap the case was generated under (generation depends on it,
    /// so replay must use the same value).
    pub max_width: u64,
    /// The case as generated.
    pub case: Case,
    /// The greedily minimized counterexample.
    pub shrunk: Case,
    /// First divergence description (layer, cycle, signal, both values).
    pub message: String,
    /// Path of the replay bundle captured for this failure, when trace
    /// capture is enabled and the artifacts were written (see
    /// [`crate::capture::capture_failure`]).
    pub bundle: Option<std::path::PathBuf>,
}

impl Failure {
    /// The CLI line that re-checks this one case under its backend.
    pub(crate) fn replay_cmd(&self) -> String {
        format!(
            "cargo run --release --example conformance -- --design {} --max-width {} --backend {} --replay 0x{:016X}",
            self.design, self.max_width, self.run.backend, self.case_seed
        )
    }

    /// The CLI line that re-runs this design's whole soak under the run's
    /// own settings. Each layer takes `cases` seeds from the design's
    /// stream in layer order, so the layers, case count, width cap and
    /// backend must all match for the run to meet this failure again.
    pub(crate) fn run_replay_line(&self) -> String {
        let run = &self.run;
        let layers: Vec<&str> = run.layers.iter().map(|l| l.name()).collect();
        let cmd = format!(
            "cargo run --release --example conformance -- --design {} --layers {} --cases {} --max-width {} --backend {}{}",
            self.design,
            layers.join(","),
            run.cases,
            run.max_width,
            run.backend,
            if run.stop_at_first { "" } else { " --keep-going" },
        );
        chicala_trace::replay::env_replay_line("CHICALA_SEED", run.seed, &cmd)
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "conformance divergence: design `{}` layer `{}`", self.design, self.layer)?;
        writeln!(f, "  {}", self.message)?;
        writeln!(f, "  case   : {}", self.case)?;
        writeln!(f, "  shrunk : {}", self.shrunk)?;
        writeln!(f, "  seeds  : master=0x{:016X} case=0x{:016X}", self.run.seed, self.case_seed)?;
        writeln!(f, "  replay : {}", self.run_replay_line())?;
        write!(f, "           {}", self.replay_cmd())?;
        if let Some(bundle) = &self.bundle {
            write!(f, "\n  bundle : {}", bundle.display())?;
        }
        Ok(())
    }
}

/// Coverage counters for one (design, layer) cell of the summary table.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Cases actually run (skipped cases — e.g. gate cases above the width
    /// cap — are *not* counted, so truncation is visible).
    pub cases: usize,
    /// Cases skipped by caps.
    pub skipped: usize,
    /// Smallest width exercised.
    pub min_width: u64,
    /// Largest width exercised.
    pub max_width: u64,
    /// Total cycles simulated.
    pub cycles: u64,
    /// Wall-clock nanoseconds spent checking the counted cases.
    pub elapsed_ns: u64,
    /// Width cap the layer's case stream was generated under (for the
    /// gates layer: `min(cfg.max_width, design.gate_max_width)` — the
    /// ceiling the layer actually exercised).
    pub width_cap: u64,
}

impl LayerStats {
    fn record(&mut self, case: &Case, cycles_run: u64, elapsed_ns: u64) {
        if self.cases == 0 {
            self.min_width = case.width;
            self.max_width = case.width;
        } else {
            self.min_width = self.min_width.min(case.width);
            self.max_width = self.max_width.max(case.width);
        }
        self.cases += 1;
        self.cycles += cycles_run;
        self.elapsed_ns += elapsed_ns;
    }

    /// Checking throughput in cases per second (`None` before any case).
    pub fn cases_per_sec(&self) -> Option<f64> {
        if self.cases == 0 || self.elapsed_ns == 0 {
            return None;
        }
        Some(self.cases as f64 / (self.elapsed_ns as f64 / 1e9))
    }
}

/// The outcome of an engine run: per-design/per-layer coverage plus every
/// recorded divergence.
#[derive(Debug, Default)]
pub struct Report {
    /// Coverage rows keyed by (design, layer).
    pub stats: BTreeMap<(String, Layer), LayerStats>,
    /// Divergences found.
    pub failures: Vec<Failure>,
}

impl Report {
    /// True when no layer diverged.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the per-design/per-layer coverage summary table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<6} {:>6} {:>8} {:>10} {:>8} {:>10}\n",
            "design", "layer", "cases", "skipped", "widths", "cycles", "cases/s"
        ));
        for ((design, layer), st) in &self.stats {
            let widths = if st.cases == 0 {
                "-".to_string()
            } else {
                format!("{}..{}", st.min_width, st.max_width)
            };
            let rate = match st.cases_per_sec() {
                Some(r) => format!("{r:.0}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<10} {:<6} {:>6} {:>8} {:>10} {:>8} {:>10}\n",
                design,
                layer.name(),
                st.cases,
                st.skipped,
                widths,
                st.cycles,
                rate
            ));
        }
        out
    }
}

/// Generates the case for `case_seed` (width, cycles, inputs), biased
/// toward boundary values: extreme widths, all-ones/zero/one inputs.
pub fn gen_case(d: &Design, case_seed: u64, max_width: u64) -> Case {
    let mut rng = SplitMix64::new(case_seed);
    let hi = max_width.max(d.min_width);
    let width = match rng.below(8) {
        0 => d.min_width,
        1 => hi,
        _ => rng.range(d.min_width, hi),
    };
    let latency = (d.latency)(width);
    let cycles = match rng.below(4) {
        0 => latency,
        1 => rng.range(1, latency.max(1)),
        _ => rng.range(1, latency + 4),
    };
    let inputs = d
        .inputs
        .iter()
        .map(|_| match rng.below(8) {
            0 => BigInt::zero(),
            1 => BigInt::one(),
            2 => BigInt::pow2(width) - BigInt::one(),
            _ => rng.bits(width),
        })
        .collect();
    Case { width, cycles, inputs }.normalized(d)
}

/// Elaborates `d` at `width`, memoised process-wide: elaboration is a pure
/// function of (design, width), so every case of every layer — and every
/// worker — shares one `ElabModule` instead of re-elaborating per case.
pub(crate) fn elab(d: &Design, width: u64) -> Result<Arc<ElabModule>, String> {
    type ElabMemo = Mutex<HashMap<(String, u64), Result<Arc<ElabModule>, String>>>;
    static MEMO: OnceLock<ElabMemo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let key = (d.name.to_string(), width);
    if let Some(r) = memo.lock().expect("elab memo lock").get(&key) {
        return r.clone();
    }
    let m = (d.build)();
    let bindings: Bindings = [("len".to_string(), width as i64)].into_iter().collect();
    let r = elaborate(&m, &bindings)
        .map(Arc::new)
        .map_err(|e| format!("{}: elaboration at width {width}: {e}", d.name));
    memo.lock().expect("elab memo lock").insert(key, r.clone());
    r
}

/// The generated sequential program of `d`, memoised process-wide (the
/// transformation is width-independent: widths stay symbolic parameters).
pub(crate) fn transform_arc(d: &Design) -> Result<Arc<SeqProgram>, String> {
    type TransMemo = Mutex<HashMap<String, Result<Arc<SeqProgram>, String>>>;
    static MEMO: OnceLock<TransMemo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    if let Some(r) = memo.lock().expect("transform memo lock").get(d.name) {
        return r.clone();
    }
    let m = (d.build)();
    let r = transform(&m)
        .map(|out| Arc::new(out.program))
        .map_err(|e| format!("{}: transform: {e}", d.name));
    memo.lock().expect("transform memo lock").insert(d.name.to_string(), r.clone());
    r
}

/// Everything the compiled backend needs for one (design, width), built
/// once and shared across cases and workers. Either compiled side may be
/// absent (outside its compiler's subset); checks then fall back to the
/// corresponding tree-walking interpreter.
pub(crate) struct SimPlan {
    pub(crate) chisel: Option<Arc<CompiledModule>>,
    pub(crate) seq: Option<Arc<SeqCompiled>>,
}

pub(crate) fn sim_plan(d: &Design, width: u64) -> Result<Arc<SimPlan>, String> {
    type PlanMemo = Mutex<HashMap<(String, u64), Result<Arc<SimPlan>, String>>>;
    static MEMO: OnceLock<PlanMemo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let key = (d.name.to_string(), width);
    if let Some(r) = memo.lock().expect("plan memo lock").get(&key) {
        return r.clone();
    }
    let r = sim_plan_uncached(d, width).map(Arc::new);
    memo.lock().expect("plan memo lock").insert(key, r.clone());
    r
}

fn sim_plan_uncached(d: &Design, width: u64) -> Result<SimPlan, String> {
    let em = elab(d, width)?;
    let prog = transform_arc(d)?;
    let chisel = match compile_chisel(&em) {
        Ok(p) => Some(Arc::new(p)),
        Err(_) => {
            telemetry::counter("conformance.sim.chisel_compile_fallback", 1);
            None
        }
    };
    let params: BTreeMap<String, BigInt> =
        [("len".to_string(), BigInt::from(width))].into_iter().collect();
    let seq = match compile_seq(&prog, &params) {
        Ok(p) => Some(Arc::new(p)),
        Err(_) => {
            telemetry::counter("conformance.sim.seq_compile_fallback", 1);
            None
        }
    };
    Ok(SimPlan { chisel, seq })
}

/// Layer A: the Chisel cycle semantics vs the generated sequential
/// program, cycle by cycle, over every output and every (scalar) register.
fn check_cosim(d: &Design, case: &Case, backend: SimBackend) -> Result<u64, String> {
    match backend {
        SimBackend::Compiled => check_cosim_compiled(d, case),
        SimBackend::Interp | SimBackend::Both => check_cosim_recorded(d, case, backend),
    }
}

/// Checks the case's inputs, held for `case.cycles` cycles, with
/// [`cosim_recorded`].
fn check_cosim_recorded(d: &Design, case: &Case, backend: SimBackend) -> Result<u64, String> {
    let schedule = vec![case.input_map(d); case.cycles as usize];
    cosim_recorded(d, case.width, &schedule, backend)?;
    Ok(case.cycles)
}

/// Records `schedule` at `width` through the reference [`Simulator`] and
/// the generated program on [`SeqRunner`](chicala_seq::SeqRunner) —
/// under `Both` also through the compiled Chisel VM and [`SeqVm`], where
/// the sim plan has them — and compares every layer with the interpreter
/// ([`compare_layers`]).
pub(crate) fn cosim_recorded(
    d: &Design,
    width: u64,
    schedule: &[Inputs],
    backend: SimBackend,
) -> Result<(), String> {
    telemetry::counter("conformance.sim.interp_cases", 1);
    let em = elab(d, width)?;
    let prog = transform_arc(d)?;
    let plan = match backend {
        SimBackend::Both => Some(sim_plan(d, width)?),
        _ => None,
    };
    let mut layers = vec![ExecLayer::Program(Ok(&prog))];
    if let Some(plan) = &plan {
        layers.extend(plan.chisel.as_deref().map(|cm| ExecLayer::Compiled(Ok(cm))));
        layers.extend(plan.seq.as_deref().map(|p| ExecLayer::SeqVm(Ok(p))));
    }
    let recorded = record_layers(&em, &layers, width, schedule);
    compare_layers(&recorded, width).map_err(|e| format!("cosim: {e}"))
}

/// Index pairs `(chisel port, seq port)` for one port class, compared
/// positionally every cycle by the compiled cosim loop.
type PortPairs = Vec<(usize, usize)>;

/// Pairs every compiled-Chisel port with its sequential-program
/// counterpart, mirroring the name-driven comparison of the interp path:
/// every hardware output must exist in the program, and every program
/// register must be known to the hardware side.
fn pair_ports(
    chisel: &CompiledModule,
    seq: &SeqCompiled,
) -> Result<(PortPairs, PortPairs), String> {
    let mut outs = Vec::with_capacity(chisel.outputs_len());
    for i in 0..chisel.outputs_len() {
        let name = chisel.output_name(i);
        let j = seq
            .output_index(name)
            .ok_or_else(|| format!("cycle 0: output `{name}` missing from program"))?;
        outs.push((i, j));
    }
    let mut regs = Vec::with_capacity(seq.regs_len());
    for j in 0..seq.regs_len() {
        let name = seq.reg_name(j);
        let i = chisel
            .reg_index(name)
            .ok_or_else(|| format!("cycle 0: program register `{name}` unknown to the Chisel VM"))?;
        regs.push((i, j));
    }
    Ok((outs, regs))
}

/// Whether the compiled-Chisel value at `hw` equals the sequential VM's raw
/// value, via the `u128` fast path when the hardware lane allows it.
fn hw_eq_raw(hw: Option<u128>, hw_big: impl FnOnce() -> BigInt, raw: i128) -> bool {
    match hw {
        Some(v) => raw >= 0 && v == raw as u128,
        None => hw_big() == BigInt::from(raw),
    }
}

/// Records one per-case interpreter fallback *after* the fallback ran, so
/// the counters are honest: `kind` distinguishes why the compiled path was
/// abandoned (`compile` = the plan had no VM for this (design, width);
/// `run` = the sequential VM bailed out mid-case), and a fallback that
/// itself fails is counted under a separate `_err` name rather than being
/// claimed as a successfully recovered case.
fn count_case_fallback<T>(kind: &str, outcome: &Result<T, String>) {
    let name = match (kind, outcome.is_ok()) {
        ("compile", true) => "conformance.sim.case_compile_fallback",
        ("compile", false) => "conformance.sim.case_compile_fallback_err",
        ("run", true) => "conformance.sim.case_run_fallback",
        ("run", false) => "conformance.sim.case_run_fallback_err",
        _ => unreachable!("fallback kind is compile|run"),
    };
    telemetry::counter(name, 1);
}

/// The compiled pairing: [`CompiledSim`] vs [`SeqVm`], falling back to the
/// interpreters when either side of the (design, width) failed to compile
/// or the sequential VM bails out at runtime (`i128` overflow).
fn check_cosim_compiled(d: &Design, case: &Case) -> Result<u64, String> {
    let plan = sim_plan(d, case.width)?;
    let (Some(chisel), Some(seq)) = (&plan.chisel, &plan.seq) else {
        let r = check_cosim_recorded(d, case, SimBackend::Interp);
        count_case_fallback("compile", &r);
        return r;
    };
    match run_cosim_vms(d, case, chisel, seq) {
        Ok(verdict) => verdict,
        // The sequential VM left its i128 envelope: the case is legal but
        // outside the compiled subset — re-check it on the interpreters.
        Err(_bail) => {
            let r = check_cosim_recorded(d, case, SimBackend::Interp);
            count_case_fallback("run", &r);
            r
        }
    }
}

/// Drives the two compiled VMs in lockstep. The outer `Err` means the
/// sequential VM could not complete the case (fall back to the
/// interpreters); the inner result is the conformance verdict.
fn run_cosim_vms(
    d: &Design,
    case: &Case,
    chisel: &CompiledModule,
    seq: &SeqCompiled,
) -> Result<Result<u64, String>, chicala_seq::SeqError> {
    telemetry::counter("conformance.sim.compiled_cases", 1);
    let hw_inputs = case.input_map(d);
    let (out_pairs, reg_pairs) = match pair_ports(chisel, seq) {
        Ok(p) => p,
        Err(e) => return Ok(Err(e)),
    };
    let mut hw = CompiledSim::new(chisel, &BTreeMap::new());
    hw.set_inputs(&hw_inputs);
    let sw_inputs: BTreeMap<String, SValue> = hw_inputs
        .iter()
        .map(|(k, v)| (k.clone(), SValue::Int(v.clone())))
        .collect();
    let mut sw = SeqVm::new(seq, &BTreeMap::new())?;
    sw.set_inputs(&sw_inputs)?;
    for cycle in 0..case.cycles {
        hw.step();
        sw.step()?;
        for &(i, j) in &out_pairs {
            if !hw_eq_raw(hw.output_u128(i), || hw.output_value(i), sw.output_raw(j)) {
                let name = chisel.output_name(i);
                return Ok(Err(format!(
                    "cosim: cycle {cycle}: output `{name}`: chisel_vm={} seq_vm={}",
                    hw.output_value(i),
                    BigInt::from(sw.output_raw(j)),
                )));
            }
        }
        for &(i, j) in &reg_pairs {
            if !hw_eq_raw(hw.reg_u128(i), || hw.reg_value(i), sw.reg_raw(j)) {
                let name = seq.reg_name(j);
                return Ok(Err(format!(
                    "cosim: cycle {cycle}: register `{name}`: chisel_vm={} seq_vm={}",
                    hw.reg_value(i),
                    BigInt::from(sw.reg_raw(j)),
                )));
            }
        }
    }
    Ok(Ok(case.cycles))
}

/// The formal gate-level obligation for one design at one width, ready to
/// hand to any [`prove_net`] backend (the conformance gates layer, the
/// backend-agreement tests, and the serve `prove` op all start from here).
pub struct FormalObligation {
    /// The AIG kit holding the unrolled design, the golden model, and the
    /// property cone. It folds as it is built, so every registry property
    /// is the constant-true edge here.
    pub netlist: Netlist,
    /// Single-bit property edge; constant-true ⇔ design matches golden
    /// for every input assignment at this width.
    pub property: Net,
    /// Interleaved input bits (operand bit 0 of each port, then bit 1, …)
    /// — the BDD variable order that keeps arithmetic miters polynomial
    /// where a concatenated order explodes.
    pub var_order: Vec<Net>,
    /// Fresh symbolic input words by port name (for model decoding).
    pub inputs: BTreeMap<String, Word<Net>>,
    /// The design's symbolic state after its full latency.
    pub state: UnrolledState<Net>,
    /// Golden-cone words noted by the spec builder, keyed by the design
    /// signal each is compared against (for counterexample decoding).
    pub golden: BTreeMap<String, Word<Net>>,
}

/// Builds the formal obligation for `d` at `width`: symbolically unrolls
/// the design over fresh inputs for its full latency and instantiates the
/// registry's golden model. `Ok(None)` when the design has no golden model.
pub fn formal_gate_obligation(d: &Design, width: u64) -> Result<Option<FormalObligation>, String> {
    let mut netlist = Netlist::new();
    let Some(ob) = formal_gate_obligation_shared(d, width, &mut netlist, &mut BTreeMap::new())?
    else {
        return Ok(None);
    };
    let SharedObligation { property, var_order, inputs, state, golden } = ob;
    Ok(Some(FormalObligation { netlist, property, var_order, inputs, state, golden }))
}

/// A formal obligation built into a caller-owned shared [`Netlist`] kit —
/// the width-sweep variant of [`FormalObligation`]. All widths of one
/// design share the kit (and, via `shared_inputs`, the per-(port, bit)
/// input edges), so structure common across widths hash-conses to the
/// same nodes and a sweep session encodes it once.
pub struct SharedObligation {
    /// Single-bit property net in the shared kit.
    pub property: Net,
    /// Interleaved input bits (same order as [`FormalObligation`]).
    pub var_order: Vec<Net>,
    /// Symbolic input words by port name (shared nets across widths).
    pub inputs: BTreeMap<String, Word<Net>>,
    /// The design's symbolic state after its full latency.
    pub state: UnrolledState<Net>,
    /// Golden-cone words noted by the spec builder.
    pub golden: BTreeMap<String, Word<Net>>,
}

/// Builds the formal obligation for `d` at `width` into a caller-owned
/// AIG kit, reusing input edges per (port, bit) across calls. Repeated
/// calls at ascending widths make the kit a hash-consed union of the whole
/// width family: every sub-expression whose structure is width-independent
/// (low-order adder chains, partial-product rows, …) resolves to the same
/// [`Net`] at every width that contains it.
pub fn formal_gate_obligation_shared(
    d: &Design,
    width: u64,
    nl: &mut Netlist,
    shared_inputs: &mut BTreeMap<(String, usize), Net>,
) -> Result<Option<SharedObligation>, String> {
    let Some(gate_spec) = d.gate_spec else { return Ok(None) };
    let em = elab(d, width)?;
    let inputs = fresh_inputs(
        &em,
        |name, i, kit: &mut Netlist| {
            *shared_inputs
                .entry((name.to_string(), i))
                .or_insert_with(|| kit.input())
        },
        nl,
    );
    let latency = (d.latency)(width);
    let state = unroll(&em, nl, &inputs, &BTreeMap::new(), latency as usize)
        .map_err(|e| format!("{}: formal unroll at width {width}: {e}", d.name))?;
    let env = GateEnv::new(width, &inputs, &state);
    let property = gate_spec(nl, &env);
    let golden = env.golden.into_inner();
    let var_order = interleaved_bits(&inputs);
    Ok(Some(SharedObligation { property, var_order, inputs, state, golden }))
}

/// The unsigned value of little-endian bits.
fn bits_value(bits: impl IntoIterator<Item = bool>) -> BigInt {
    let mut v = BigInt::zero();
    for (i, bit) in bits.into_iter().enumerate() {
        if bit {
            v = v + BigInt::pow2(i as u64);
        }
    }
    v
}

/// The value of a kit word, given every node's value from
/// [`Aig::eval_all`](chicala_lowlevel::Aig::eval_all).
pub(crate) fn word_value(word: &Word<Net>, vals: &[bool]) -> BigInt {
    bits_value(word.bits.iter().map(|bit| bit.value(vals)))
}

/// One formal design-vs-golden equivalence proof per (design, width),
/// memoised process-wide: the obligation is input-independent, so every
/// concrete gates case at the same width shares one proof. The result is a
/// pure function of (design, width), which keeps reports deterministic
/// regardless of which worker primes the cache.
fn check_gates_formal(d: &Design, width: u64) -> Result<(), String> {
    if d.gate_spec.is_none() {
        return Ok(());
    }
    type ProofMemo = Mutex<HashMap<(String, u64), Result<(), String>>>;
    static MEMO: OnceLock<ProofMemo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let key = (d.name.to_string(), width);
    if let Some(r) = memo.lock().expect("memo lock").get(&key) {
        return r.clone();
    }
    let r = check_gates_formal_uncached(d, width);
    memo.lock().expect("memo lock").insert(key, r.clone());
    r
}

fn check_gates_formal_uncached(d: &Design, width: u64) -> Result<(), String> {
    let _span = telemetry::span!("gates_formal:{}x{}", d.name, width);
    let Some(ob) = formal_gate_obligation(d, width)? else { return Ok(()) };
    match prove_net(&ob.netlist, ob.property, Backend::Auto, width as usize, &ob.var_order) {
        ProveResult::Proved { .. } => Ok(()),
        ProveResult::Counterexample { backend, inputs: cex } => {
            let vals = ob.netlist.eval_all(&|input| cex.get(&input).copied().unwrap_or(false));
            let decoded: BTreeMap<String, BigInt> = ob
                .inputs
                .iter()
                .map(|(name, word)| (name.clone(), word_value(word, &vals)))
                .collect();
            // Self-check 1: the model must actually falsify the miter
            // under concrete evaluation of the graph — anything else is a
            // bug in the proof pipeline, not in the design.
            assert!(
                !ob.property.value(&vals),
                "{}: {backend:?} backend returned a counterexample that does not falsify \
                 the miter at width {width}: inputs {decoded:?}",
                d.name,
            );
            // Self-check 2: replay the decoded inputs through the cosim
            // layer (the interpreter). The design-side registers of the
            // unrolled netlist must agree with the interpreter before we
            // report a golden-model mismatch; a disagreement here means
            // the unroll pipeline itself is broken and must not be
            // reported as a mere divergence.
            let em = elab(d, width)?;
            let mut sim = Simulator::new(&em, &BTreeMap::new()).map_err(|e| e.to_string())?;
            for _ in 0..(d.latency)(width) {
                sim.step(&decoded).map_err(|e| e.to_string())?;
            }
            let net_regs: BTreeMap<String, BigInt> = ob
                .state
                .regs
                .iter()
                .map(|(name, word)| (name.clone(), word_value(word, &vals)))
                .collect();
            for (name, nv) in &net_regs {
                let sv = sim
                    .reg(name)
                    .map(|v| v.to_unsigned(ob.state.regs[name].bits.len() as u64));
                if sv.as_ref() != Some(nv) {
                    panic!(
                        "{}: gates formal counterexample failed cosim replay at width \
                         {width}: register `{name}`: netlist={nv} interpreter={sv:?}; \
                         inputs {decoded:?}; netlist trace {net_regs:?}; interpreter \
                         trace {:?}",
                        d.name,
                        sim.regs(),
                    );
                }
            }
            Err(format!(
                "gates: formal ({backend:?}): golden model diverges from the design at \
                 width {width}: inputs {decoded:?}; design registers {net_regs:?} \
                 (cosim replay agrees)"
            ))
        }
    }
}

/// Layer B: the design bit-blasted over the concrete input bits
/// ([`Eval`]: each gate's value, no netlist kept) against the reference
/// simulator `backend` selects, comparing every register after the run.
fn check_gates(d: &Design, case: &Case, backend: SimBackend) -> Result<u64, String> {
    // Formal first: one design-vs-golden proof per width (memoised), via
    // the Auto backend — BDD below the crossover, AIG + SAT above it.
    check_gates_formal(d, case.width)?;
    let (reference, by) = state_after(d, case, case.cycles, backend, Layer::Gates)?;
    let blasted = blast_regs(d, case)?;
    compare_gate_regs(case.cycles, &blasted, &reference.regs, by)?;
    Ok(case.cycles)
}

/// The design's registers after `case.cycles` cycles, blasted over the
/// case's concrete input bits.
fn blast_regs(d: &Design, case: &Case) -> Result<BTreeMap<String, Word<bool>>, String> {
    let em = elab(d, case.width)?;
    let hw_inputs = case.input_map(d);
    let mut kit = Eval;
    let inputs: BTreeMap<String, Word<bool>> = em
        .signals
        .iter()
        .filter(|s| s.kind == ElabKind::Input)
        .map(|s| {
            let val = hw_inputs.get(&s.name).cloned().unwrap_or_else(BigInt::zero);
            (s.name.clone(), constant_word(&mut kit, &val, s.width as usize, s.signed))
        })
        .collect();
    let st = unroll(&em, &mut kit, &inputs, &BTreeMap::new(), case.cycles as usize)
        .map_err(|e| format!("gates: unroll: {e}"))?;
    Ok(st.regs)
}

/// The gates layer's concrete comparison: every blasted register word
/// against the register of the same name in `reference`, which the
/// simulator named `by` produced.
fn compare_gate_regs(
    cycles: u64,
    blasted: &BTreeMap<String, Word<bool>>,
    reference: &BTreeMap<String, BigInt>,
    by: &str,
) -> Result<(), String> {
    for (name, word) in blasted {
        let got = bits_value(word.bits.iter().copied());
        let want = reference
            .get(name)
            .ok_or_else(|| format!("gates: netlist register `{name}` unknown to {by}"))?
            .to_unsigned(word.bits.len() as u64);
        if got != want {
            return Err(format!(
                "gates: after {cycles} cycles: register `{name}`: {by}={want} netlist={got}"
            ));
        }
    }
    Ok(())
}

/// Runs the interpreter for `cycles` cycles and returns the observable
/// state.
fn run_interp(d: &Design, case: &Case, cycles: u64) -> Result<FinalState, String> {
    let em = elab(d, case.width)?;
    let mut sim = Simulator::new(&em, &BTreeMap::new()).map_err(|e| e.to_string())?;
    let hw_inputs = case.input_map(d);
    let mut outputs = BTreeMap::new();
    for _ in 0..cycles {
        outputs = sim.step(&hw_inputs).map_err(|e| e.to_string())?;
    }
    Ok(FinalState { regs: sim.regs().clone(), outputs })
}

/// [`run_interp`] on the compiled Chisel VM; `None` when this (design,
/// width) is outside the compiled subset.
fn run_compiled(d: &Design, case: &Case, cycles: u64) -> Result<Option<FinalState>, String> {
    let plan = sim_plan(d, case.width)?;
    let Some(chisel) = &plan.chisel else { return Ok(None) };
    let mut vm = CompiledSim::new(chisel, &BTreeMap::new());
    vm.set_inputs(&case.input_map(d));
    for _ in 0..cycles {
        vm.step();
    }
    let prog = chisel.as_ref();
    let regs = (0..prog.regs_len())
        .map(|i| (prog.reg_name(i).to_string(), vm.reg_value(i)))
        .collect();
    let outputs = (0..prog.outputs_len())
        .map(|i| (prog.output_name(i).to_string(), vm.output_value(i)))
        .collect();
    Ok(Some(FinalState { regs, outputs }))
}

/// Names the interpreter in messages about values it produced.
const BY_INTERP: &str = "interpreter";
/// Names the compiled Chisel VM in messages about values it produced.
const BY_CHISEL_VM: &str = "chisel_vm";

/// The state after `cycles` cycles on the simulator `backend` selects —
/// the reference of the gates and spec layers — and the name of the
/// simulator that produced it. `Compiled` falls back to the interpreter
/// where the VM is unavailable; `Both` runs the two, reports any
/// disagreement as a `layer` divergence, and returns the interpreter's.
fn state_after(
    d: &Design,
    case: &Case,
    cycles: u64,
    backend: SimBackend,
    layer: Layer,
) -> Result<(FinalState, &'static str), String> {
    match backend {
        SimBackend::Interp => Ok((run_interp(d, case, cycles)?, BY_INTERP)),
        SimBackend::Compiled => match run_compiled(d, case, cycles)? {
            Some(fin) => Ok((fin, BY_CHISEL_VM)),
            // The compiled VM is unavailable at this (design, width) — a
            // compile-driven fallback, counted after the interpreter ran.
            None => {
                let r = run_interp(d, case, cycles);
                count_case_fallback("compile", &r);
                Ok((r?, BY_INTERP))
            }
        },
        SimBackend::Both => {
            let want = run_interp(d, case, cycles)?;
            if let Some(got) = run_compiled(d, case, cycles)? {
                if got.regs != want.regs || got.outputs != want.outputs {
                    return Err(format!(
                        "{layer}: compiled Chisel VM diverges from interpreter after {cycles} \
                         cycles: interp regs={:?} outs={:?}; compiled regs={:?} outs={:?}",
                        want.regs, want.outputs, got.regs, got.outputs
                    ));
                }
            }
            Ok((want, BY_INTERP))
        }
    }
}

/// Runs the interpreter for the design's full latency and returns the
/// observable final state (used by callers wanting end-to-end results).
pub fn final_state(d: &Design, case: &Case) -> Result<FinalState, String> {
    run_interp(d, case, (d.latency)(case.width))
}

/// Layer C: final state after the full latency vs the mathematical spec.
fn check_spec(d: &Design, case: &Case, backend: SimBackend) -> Result<u64, String> {
    let latency = (d.latency)(case.width);
    let (fin, _) = state_after(d, case, latency, backend, Layer::Spec)?;
    (d.spec)(case.width, &case.input_map(d), &fin)
        .map_err(|e| format!("spec: after {latency} cycles: {e}"))?;
    Ok(latency)
}

/// Checks one case against one layer under the compiled backend. Returns
/// the number of cycles simulated, or the first divergence.
pub fn check_case(d: &Design, layer: Layer, case: &Case) -> Result<u64, String> {
    check_case_with(d, layer, case, SimBackend::Compiled)
}

/// [`check_case`] with an explicit simulation backend (the engine's
/// [`Config::backend`] comes through here).
pub fn check_case_with(
    d: &Design,
    layer: Layer,
    case: &Case,
    backend: SimBackend,
) -> Result<u64, String> {
    let case = case.normalized(d);
    match layer {
        Layer::Cosim => check_cosim(d, &case, backend),
        Layer::Gates => check_gates(d, &case, backend),
        Layer::Spec => check_spec(d, &case, backend),
    }
}

/// [`gen_case`] plus the per-layer adjustments the runner applies: the
/// gate layer bounds cycles at the design's latency + 2, which caps each
/// case's blasting cost (every cycle re-evaluates every gate) a little
/// past the point where the result is ready. The bound is part of the
/// replay contract: replay must regenerate through here to reproduce the
/// exact case run.
pub fn gen_case_for(d: &Design, layer: Layer, case_seed: u64, max_width: u64) -> Case {
    let mut case = gen_case(d, case_seed, max_width);
    if layer == Layer::Gates {
        case.cycles = case.cycles.min((d.latency)(case.width) + 2);
    }
    case
}

/// Regenerates the case for `case_seed` and re-checks it under the
/// compiled backend. `max_width` must match the cap the case was generated
/// under (a failure's `max_width` field). A failure found under another
/// backend replays through [`gen_case_for`] and [`check_case_with`].
pub fn replay_case(d: &Design, layer: Layer, case_seed: u64, max_width: u64) -> Result<u64, String> {
    let case = gen_case_for(d, layer, case_seed, max_width);
    check_case(d, layer, &case)
}

/// One slot of a layer's generated case stream, in generation order.
enum Slot {
    /// Skipped by a width cap (counted, never checked).
    Skipped,
    /// A case to check: `(case_seed, width_cap, case)`.
    Job(u64, u64, Case),
}

/// Runs one design through the configured layers.
///
/// Case *checking* fans out across the scheduler's workers
/// ([`ThreadPool::default_workers`], i.e. `CHICALA_WORKERS`); case
/// *generation* and result folding stay sequential in generation order, so
/// the report — stats, failure set, replay seeds — is byte-identical for
/// every worker count (asserted by `tests/parallel_determinism.rs`).
pub fn run_design(d: &Design, cfg: &Config) -> Report {
    let _design_span = telemetry::span!("conformance:{}", d.name);
    let pool = ThreadPool::default();
    let mut report = Report::default();
    // Per-design stream: independent of registry order and of how many
    // cases other designs consumed, so any (design, case_seed) replays in
    // isolation.
    let mut rng = SplitMix64::new(cfg.seed ^ telemetry::fnv64(d.name.as_bytes()));
    for &layer in &cfg.layers {
        let _layer_span = telemetry::span!("{}", layer.name());
        let layer_cap = match layer {
            Layer::Gates => cfg.max_width.min(d.gate_max_width),
            _ => cfg.max_width,
        };
        let stats = report
            .stats
            .entry((d.name.to_string(), layer))
            .or_default();
        stats.width_cap = layer_cap;
        // Generate the whole layer's case stream up front: the rng
        // consumption order is part of the replay contract and must not
        // depend on scheduling.
        let slots: Vec<Slot> = (0..cfg.cases)
            .map(|_| {
                let case_seed = rng.next_u64();
                let width_cap = layer_cap;
                let case = gen_case_for(d, layer, case_seed, width_cap);
                if layer == Layer::Gates && case.width > d.gate_max_width {
                    Slot::Skipped
                } else {
                    Slot::Job(case_seed, width_cap, case)
                }
            })
            .collect();
        // Check every case in parallel; results come back in slot order.
        // (With `stop_at_first`, slots past the first failure are checked
        // but discarded by the fold — identical report, some spare work.)
        let outcomes = pool.map_slice(&slots, |slot| match slot {
            Slot::Skipped => None,
            Slot::Job(_, _, case) => {
                let started = Instant::now();
                let outcome = check_case_with(d, layer, case, cfg.backend);
                Some((outcome, started.elapsed().as_nanos() as u64))
            }
        });
        // Fold sequentially in generation order — the exact loop the
        // sequential engine ran, minus the checking itself.
        for (slot, checked) in slots.into_iter().zip(outcomes) {
            let Slot::Job(case_seed, width_cap, case) = slot else {
                stats.skipped += 1;
                continue;
            };
            let (outcome, elapsed_ns) = checked.expect("job slots produce results");
            telemetry::counter("conformance.cases", 1);
            if telemetry::enabled() {
                telemetry::record(
                    format!("conformance.case_ns.{}.{}", d.name, layer.name()).as_str(),
                    elapsed_ns,
                );
                if layer == Layer::Cosim && elapsed_ns > 0 {
                    telemetry::record(
                        "conformance.cosim.cycles_per_sec",
                        case.cycles.saturating_mul(1_000_000_000) / elapsed_ns,
                    );
                }
            }
            match outcome {
                Ok(cycles) => stats.record(&case, cycles, elapsed_ns),
                Err(message) => {
                    let shrunk = shrink(d, layer, &case, cfg.backend);
                    let mut failure = Failure {
                        design: d.name.to_string(),
                        layer,
                        run: cfg.clone(),
                        case_seed,
                        max_width: width_cap,
                        case,
                        shrunk,
                        message,
                        bundle: None,
                    };
                    failure.bundle = crate::capture::capture_failure(d, &failure);
                    report.failures.push(failure);
                    if cfg.stop_at_first {
                        break;
                    }
                }
            }
        }
    }
    report
}

/// Runs every registered design through every configured layer.
pub fn run_all(cfg: &Config) -> Report {
    let mut report = Report::default();
    for d in all_designs() {
        let r = run_design(&d, cfg);
        report.stats.extend(r.stats);
        report.failures.extend(r.failures);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Design;

    #[test]
    fn case_normalization_masks_and_fixes_zero_divisor() {
        let d = Design::by_name("rdiv").expect("registered");
        let case = Case {
            width: 4,
            cycles: 0,
            inputs: vec![BigInt::from(0xFFu64), BigInt::from(16u64)],
        };
        let n = case.normalized(&d);
        assert_eq!(n.cycles, 1, "at least one cycle");
        assert_eq!(n.inputs[0], BigInt::from(0xFu64), "masked to width");
        assert_eq!(n.inputs[1], BigInt::one(), "16 mod 16 = 0 -> forced non-zero");
    }

    #[test]
    fn gen_case_is_deterministic_and_legal() {
        let d = Design::by_name("xdiv").expect("registered");
        for seed in [0u64, 1, 0xDEADBEEF] {
            let a = gen_case(&d, seed, 16);
            let b = gen_case(&d, seed, 16);
            assert_eq!(a, b, "same seed, same case");
            assert!(a.width >= d.min_width && a.width <= 16);
            assert!(a.cycles >= 1);
            assert!(!a.inputs[1].is_zero(), "divisor non-zero");
        }
    }

    #[test]
    fn single_known_case_passes_every_layer() {
        let d = Design::by_name("rmul").expect("registered");
        let case = Case {
            width: 4,
            cycles: 5,
            inputs: vec![BigInt::from(11u64), BigInt::from(13u64)],
        };
        for backend in [SimBackend::Interp, SimBackend::Compiled, SimBackend::Both] {
            for layer in Layer::ALL {
                check_case_with(&d, layer, &case, backend)
                    .unwrap_or_else(|e| panic!("layer {layer}, backend {backend}: {e}"));
            }
        }
    }

    #[test]
    fn gates_comparison_reports_a_flipped_register_bit() {
        let d = Design::by_name("rmul").expect("registered");
        let case = Case {
            width: 4,
            cycles: 5,
            inputs: vec![BigInt::from(11u64), BigInt::from(13u64)],
        };
        // Each backend's message names the simulator that produced the
        // reference value.
        for (backend, want) in [
            (
                SimBackend::Interp,
                "gates: after 5 cycles: register `acc`: interpreter=143 netlist=142",
            ),
            (
                SimBackend::Compiled,
                "gates: after 5 cycles: register `acc`: chisel_vm=143 netlist=142",
            ),
        ] {
            let (reference, by) = state_after(&d, &case, case.cycles, backend, Layer::Gates)
                .expect("reference simulator runs");
            let mut blasted = blast_regs(&d, &case).expect("blasts");
            compare_gate_regs(case.cycles, &blasted, &reference.regs, by)
                .expect("agrees before the flip");
            blasted.get_mut("acc").expect("acc register").bits[0] ^= true;
            assert_eq!(
                compare_gate_regs(case.cycles, &blasted, &reference.regs, by),
                Err(want.to_string()),
                "{backend}"
            );
        }
    }

    #[test]
    fn spec_layer_detects_a_wrong_spec() {
        // A spec that demands acc == a*b + 1 must be reported as divergent:
        // the engine's failure path (not just its success path) works.
        fn bad_spec(
            _w: u64,
            _ins: &BTreeMap<String, BigInt>,
            fin: &FinalState,
        ) -> Result<(), String> {
            let got = fin.regs.get("acc").expect("acc exists");
            let want = got + BigInt::one();
            Err(format!("forced: got {got}, want {want}"))
        }
        let mut d = Design::by_name("rmul").expect("registered");
        d.spec = bad_spec;
        let case = Case {
            width: 3,
            cycles: 4,
            inputs: vec![BigInt::from(5u64), BigInt::from(6u64)],
        };
        assert!(check_case(&d, Layer::Spec, &case).is_err());
    }
}
