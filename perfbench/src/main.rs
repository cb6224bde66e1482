//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <proof|gates|soak|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation measures one workload for `--seconds` seconds. The work is
//! done in repetitions, each in a fresh child process (the library keeps
//! process-wide memos, and a serve `Server` installs its store into every
//! producer's cache hook), so every repetition starts cold. The parent
//! pins every `CHICALA_*` variable that selects a measured path, checks
//! every verdict the children report, and aggregates:
//!
//! * `--trace 0`: the end-to-end metrics (medians over repetitions);
//! * `--trace 1`: untraced and traced repetitions alternate; the traced
//!   ones record the benchmark's own spans around every public call and
//!   yield the per-layer metrics plus `trace.overhead_share`.
//!
//! The last line of standard output is the result object. A wrong verdict
//! or an undetected known-bad input prints `"correct": false` with no
//! metrics and exits 1.

mod gates;
mod proof;
mod report;
mod serve;
mod soak;
mod spans;
mod stats;

use chicala::telemetry::JsonValue;
use chicala::trace::json;
use report::{result_line, Metrics};
use spans::Recorder;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["proof", "gates", "soak", "serve"];

/// Counted repetitions every untraced run makes even when `--seconds` is
/// already spent, so each median has something to be the middle of. The
/// short workloads make more; their tail percentile is chosen from this
/// guaranteed count.
fn min_reps(workload: &str) -> usize {
    match workload {
        "proof" | "gates" => 4,
        "soak" => 5,
        _ => 8,
    }
}

/// Wall-clock cap on one invocation; no repetition starts after it, and a
/// child still running at the hard limit is killed.
const SOFT_CAP: Duration = Duration::from_secs(120);
const HARD_CAP: Duration = Duration::from_secs(170);

/// The end-to-end metrics every workload reports (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Where run artifacts go: `perfbench/out/` inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Worker and client threads: at most two, and never more than the
/// machine has cores.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Every `CHICALA_*` variable that selects a measured path, pinned to the
/// library's defaults (cache, sweep routing and tracing off; compiled
/// simulation; Auto gate backend; optimizer on with sampled
/// certification). Anything else named `CHICALA_*` is removed.
fn pinned_env() -> Vec<(&'static str, String)> {
    let failures = out_dir().join("failures");
    vec![
        ("CHICALA_GATE_BACKEND", "auto".into()),
        ("CHICALA_OPT", "on".into()),
        ("CHICALA_OPT_CERT", "sampled".into()),
        ("CHICALA_SIM_BACKEND", "compiled".into()),
        ("CHICALA_CACHE_MAX_BYTES", "0".into()),
        ("CHICALA_WORKERS", workers().to_string()),
        ("CHICALA_TRACE", "0".into()),
        ("CHICALA_TRACE_FAILURES", "1".into()),
        ("CHICALA_FAILURES_DIR", failures.display().to_string()),
    ]
}

/// One repetition's context, handed to the workload.
pub struct Rep {
    /// The run's seed: every input derives from it.
    pub seed: u64,
    /// Spans (recording only in traced repetitions).
    pub rec: Recorder,
    /// When the parent spawned this process, for `setup_s`.
    pub spawned_at: SystemTime,
    /// Worker/client thread count.
    pub workers: usize,
}

impl Rep {
    /// Seconds since the parent spawned this process: called at the first
    /// timed op, it is the repetition's set-up time (process start, input
    /// construction, server start-up).
    pub fn since_spawn(&self) -> f64 {
        SystemTime::now()
            .duration_since(self.spawned_at)
            .map_or(0.0, |d| d.as_secs_f64())
    }
}

/// What one repetition reports back to the parent.
pub struct RepOutput {
    /// Process start to the first timed op.
    pub setup_s: f64,
    /// The workload's fixed work.
    pub wall_s: f64,
    /// Per-op latencies.
    pub ops_ms: Vec<f64>,
    /// One entry per failed op (wrong verdict), with its reason.
    pub failed: Vec<String>,
    /// Known-bad inputs that went undetected.
    pub bad_undetected: Vec<String>,
    /// Per-layer metrics (deterministic counters always; span-derived
    /// times in traced repetitions).
    pub layer: Metrics,
    /// Workload-specific detail for the artifact (verdict tables, config).
    pub detail: JsonValue,
}

impl Default for RepOutput {
    fn default() -> RepOutput {
        RepOutput {
            setup_s: 0.0,
            wall_s: 0.0,
            ops_ms: Vec::new(),
            failed: Vec::new(),
            bad_undetected: Vec::new(),
            layer: Metrics::default(),
            detail: JsonValue::Null,
        }
    }
}

impl RepOutput {
    fn to_json(&self, spans_path: Option<&str>) -> JsonValue {
        JsonValue::obj()
            .set("setup_s", JsonValue::Num(self.setup_s))
            .set("wall_s", JsonValue::Num(self.wall_s))
            .set("peak_rss_mb", JsonValue::Num(peak_rss_mb()))
            .set(
                "ops_ms",
                JsonValue::Arr(self.ops_ms.iter().map(|&v| JsonValue::Num(v)).collect()),
            )
            .set(
                "failed",
                JsonValue::Arr(self.failed.iter().map(JsonValue::str).collect()),
            )
            .set(
                "bad_undetected",
                JsonValue::Arr(self.bad_undetected.iter().map(JsonValue::str).collect()),
            )
            .set("layer", self.layer.to_json())
            .set("spans", spans_path.map_or(JsonValue::Null, JsonValue::str))
            .set("detail", self.detail.clone())
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workload's guaranteed op count per repetition (for the fixed tail
/// percentile).
fn ops_per_rep(workload: &str) -> usize {
    match workload {
        "proof" => proof::PROVED.len(),
        "gates" => gates::ops_per_rep(),
        "soak" => soak::ops_per_rep(),
        _ => serve::ops_per_rep(),
    }
}

fn run_child_workload(workload: &str, rep: &Rep) -> Result<RepOutput, String> {
    match workload {
        "proof" => proof::run(rep),
        "gates" => gates::run(rep),
        "soak" => soak::run(rep),
        "serve" => serve::run(rep),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Child entry: one repetition, one JSON line on stdout.
fn child_main(
    workload: &str,
    seed: u64,
    index: usize,
    traced: bool,
    spawned_at: SystemTime,
) -> ExitCode {
    let rep = Rep {
        seed,
        rec: Recorder::new(traced),
        spawned_at,
        workers: workers(),
    };
    let mut out = match run_child_workload(workload, &rep) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {workload} repetition {index} failed to run: {e}");
            return ExitCode::from(1);
        }
    };
    let mut spans_path = None;
    if traced {
        let spans = rep.rec.take();
        for (layer, secs) in spans::layer_self_seconds(&spans, 0) {
            out.layer.set(format!("{layer}.self_s"), secs, "s");
        }
        let path = out_dir().join(format!("spans-{workload}-rep{index}.json"));
        let rows: Vec<JsonValue> = spans
            .iter()
            .map(|s| {
                JsonValue::obj()
                    .set("name", JsonValue::str(&s.name))
                    .set("start_ns", JsonValue::int(s.start_ns))
                    .set("end_ns", s.end_ns.map_or(JsonValue::Null, JsonValue::int))
                    .set(
                        "parent",
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::int(p as u64)),
                    )
                    .set("op", JsonValue::int(s.op))
            })
            .collect();
        if std::fs::write(&path, JsonValue::Arr(rows).to_string()).is_ok() {
            spans_path = Some(path.display().to_string());
        }
    }
    println!("{}", out.to_json(spans_path.as_deref()));
    ExitCode::SUCCESS
}

fn as_num(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(n) => Some(*n),
        _ => None,
    }
}

/// `v` in a seeded random order (Fisher-Yates).
pub fn shuffled<T>(mut v: Vec<T>, rng: &mut chicala::conformance::SplitMix64) -> Vec<T> {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// A finished child repetition, as parsed by the parent.
struct ChildRep {
    traced: bool,
    raw: JsonValue,
}

impl ChildRep {
    fn num(&self, key: &str) -> f64 {
        json::get(&self.raw, key).and_then(as_num).unwrap_or(0.0)
    }

    fn list(&self, key: &str) -> Vec<JsonValue> {
        match json::get(&self.raw, key) {
            Some(JsonValue::Arr(v)) => v.clone(),
            _ => Vec::new(),
        }
    }

    fn strings(&self, key: &str) -> Vec<String> {
        self.list(key)
            .iter()
            .filter_map(|v| json::as_str(v).map(str::to_string))
            .collect()
    }

    fn layer(&self) -> Vec<(String, f64, String)> {
        let Some(JsonValue::Obj(fields)) = json::get(&self.raw, "layer") else {
            return Vec::new();
        };
        fields
            .iter()
            .filter_map(|(k, v)| {
                let Some(JsonValue::Num(value)) = json::get(v, "value") else {
                    return None;
                };
                let unit = json::get(v, "unit").and_then(json::as_str).unwrap_or("");
                Some((k.clone(), *value, unit.to_string()))
            })
            .collect()
    }
}

/// Spawns one repetition and waits for it (killing it past `deadline`).
fn spawn_rep(
    workload: &str,
    seed: u64,
    index: usize,
    traced: bool,
    deadline: Instant,
) -> Result<ChildRep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    let spawned_at = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    cmd.args([
        "--spawned-at",
        &spawned_at.to_string(),
        "--rep",
        &index.to_string(),
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("CHICALA_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(pinned_env());
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| format!("wait: {e}"))? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!(
                "repetition {index} exceeded the run's time cap and was stopped"
            ));
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let text = reader.join().unwrap_or_default();
    if !status.success() {
        return Err(format!("repetition {index} exited with {status}"));
    }
    let line = text.lines().last().unwrap_or("");
    let raw =
        json::parse(line).map_err(|e| format!("repetition {index}: bad output ({e}): {line}"))?;
    Ok(ChildRep { traced, raw })
}

/// The outcome of one workload run in the parent.
struct RunOutcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    problems: Vec<String>,
}

fn run_workload(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    echo: &JsonValue,
) -> RunOutcome {
    let begun = Instant::now();
    let hard_deadline = begun + HARD_CAP;
    let budget = Duration::from_secs(seconds);
    // Repetition 0 is a warm-up: its verdicts are checked but its numbers
    // are not used (the first process after an idle spell runs slow). Traced
    // runs then alternate untraced/traced repetitions so the overhead is
    // measured on the same machine state.
    let want_reps = 1 + if trace { 4 } else { min_reps(workload) };
    let mut reps: Vec<ChildRep> = Vec::new();
    let mut problems = Vec::new();
    let unpaired = |n: usize| trace && n.is_multiple_of(2);
    while reps.len() < want_reps
        || unpaired(reps.len())
        || (begun.elapsed() < budget && begun.elapsed() < SOFT_CAP)
    {
        let traced = trace && reps.len().is_multiple_of(2) && !reps.is_empty();
        match spawn_rep(workload, seed, reps.len(), traced, hard_deadline) {
            Ok(r) => reps.push(r),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
        if begun.elapsed() > SOFT_CAP {
            break;
        }
    }
    let mut failed: Vec<String> = reps.iter().flat_map(|r| r.strings("failed")).collect();
    let bad: Vec<String> = reps
        .iter()
        .flat_map(|r| r.strings("bad_undetected"))
        .collect();
    problems.extend(
        bad.iter()
            .map(|b| format!("known-bad input undetected: {b}")),
    );
    let attempted: u64 = reps.iter().map(|r| r.list("ops_ms").len() as u64).sum();
    let failed_ops = failed.len() as u64;
    failed.sort();
    failed.dedup();
    problems.extend(failed.iter().map(|f| format!("wrong verdict: {f}")));

    let counted = reps.get(1..).unwrap_or_default();
    let untraced: Vec<&ChildRep> = counted.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&ChildRep> = counted.iter().filter(|r| r.traced).collect();
    let med = |rs: &[&ChildRep], key: &str| {
        stats::median(&rs.iter().map(|r| r.num(key)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let mut metrics = Metrics::default();
    // Op latencies: every repetition runs the same ops, so each
    // repetition's percentile picks the same op rank; the median over
    // repetitions then does not shift with how many repetitions fit. The
    // tail percentile keeps at least ten samples beyond it over the
    // guaranteed repetitions.
    let tail_p = stats::tail_percentile(ops_per_rep(workload) * min_reps(workload), 10);
    let rep_ops: Vec<Vec<f64>> = untraced
        .iter()
        .map(|r| r.list("ops_ms").iter().filter_map(as_num).collect())
        .collect();
    let samples: usize = rep_ops.iter().map(Vec::len).sum();
    let op_stat = |p: f64| {
        let per_rep: Vec<f64> = rep_ops
            .iter()
            .filter_map(|ops| stats::percentile(ops, p))
            .collect();
        stats::median(&per_rep).unwrap_or(0.0)
    };
    if !trace {
        metrics.set("setup_s", med(&untraced, "setup_s"), "s");
        metrics.set("wall_s", med(&untraced, "wall_s"), "s");
        metrics.set("op_p50_ms", op_stat(50.0), "ms");
        metrics.set("op_tail_ms", op_stat(tail_p), "ms");
        metrics.set("peak_rss_mb", med(&untraced, "peak_rss_mb"), "MB");
    } else {
        // Per-layer metrics: medians over the traced repetitions; every
        // metric of the benchmark is reported, 0 where this workload does
        // not reach the layer.
        for (name, unit) in per_layer_metrics() {
            let values: Vec<f64> = traced
                .iter()
                .filter_map(|r| {
                    r.layer()
                        .into_iter()
                        .find(|(n, _, _)| *n == name)
                        .map(|(_, v, _)| v)
                })
                .collect();
            metrics.set(name.clone(), stats::median(&values).unwrap_or(0.0), unit);
        }
        let traced_wall = med(&traced, "wall_s");
        let untraced_wall = med(&untraced, "wall_s");
        let overhead = if untraced_wall > 0.0 {
            traced_wall / untraced_wall - 1.0
        } else {
            0.0
        };
        metrics.set("trace.overhead_share", overhead, "share");
        // Accounting: the per-layer self times of each traced repetition
        // partition its wall time; anything else is a benchmark bug.
        for r in &traced {
            let sum: f64 = r
                .layer()
                .iter()
                .filter(|(n, _, _)| n.ends_with(".self_s"))
                .map(|x| x.1)
                .sum();
            let wall = r.num("wall_s");
            if (sum - wall).abs() > 0.01 * wall + 1e-3 {
                problems.push(format!(
                    "self times sum to {sum:.6}s but traced wall_s is {wall:.6}s"
                ));
            }
        }
    }
    let correct = problems.is_empty() && !reps.is_empty();
    let doc = JsonValue::obj()
        .set("config", echo.clone())
        .set("workload", JsonValue::str(workload))
        .set(
            "op_tail",
            JsonValue::obj()
                .set("percentile", JsonValue::Num(tail_p))
                .set("samples", JsonValue::int(samples as u64)),
        )
        .set("metrics", metrics.to_json())
        .set(
            "wall_iqr_share",
            stats::iqr_share(&untraced.iter().map(|r| r.num("wall_s")).collect::<Vec<_>>())
                .map_or(JsonValue::Null, JsonValue::Num),
        )
        .set(
            "problems",
            JsonValue::Arr(problems.iter().map(JsonValue::str).collect()),
        )
        .set(
            "repetitions",
            JsonValue::Arr(
                reps.iter()
                    .map(|r| {
                        JsonValue::obj()
                            .set("traced", JsonValue::Bool(r.traced))
                            .set("result", r.raw.clone())
                    })
                    .collect(),
            ),
        );
    let path = out_dir().join(format!("result-{workload}-trace{}.json", u8::from(trace)));
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    RunOutcome {
        correct,
        attempted: attempted.max(1),
        failed: failed_ops,
        metrics,
        problems,
    }
}

/// Layers whose spans sit under a workload's timed root (`bench` is the
/// harness's own time between calls).
const SELF_TIME_LAYERS: [&str; 8] = [
    "bench",
    "core",
    "bvlib",
    "verify",
    "conformance",
    "lowlevel",
    "sat",
    "serve",
];

/// Every per-layer metric the benchmark defines, with its unit.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| m.push((name, unit));
    for layer in SELF_TIME_LAYERS {
        add(format!("{layer}.self_s"), "s");
    }
    add("core.transform_ms".into(), "ms");
    add("verify.vcgen_ms".into(), "ms");
    add("verify.linarith_s".into(), "s");
    add("verify.timeout".into(), "count");
    add("verify.failed".into(), "count");
    for suffix in
        std::iter::once(String::new()).chain(proof::spec_designs().iter().map(|d| format!(".{d}")))
    {
        add(format!("verify.discharge_s{suffix}"), "s");
        add(format!("verify.refute_calls{suffix}"), "count");
        add(format!("verify.proved{suffix}"), "count");
    }
    add("conformance.obligation_ms".into(), "ms");
    for layer in soak::LAYERS {
        add(format!("conformance.layer_s.{layer}"), "s");
        add(format!("conformance.cycles_per_s.{layer}"), "1/s");
        add(format!("conformance.cases_per_s.{layer}"), "1/s");
    }
    add("lowlevel.prove_ms".into(), "ms");
    add("lowlevel.sweep_ms".into(), "ms");
    add("lowlevel.fold_share".into(), "share");
    add("lowlevel.clause_reuse_share".into(), "share");
    for fam in gates::family_names() {
        add(format!("sat.oneshot_ms.{fam}"), "ms");
        add(format!("sat.session_ms.{fam}"), "ms");
        add(format!("sat.conflicts.{fam}"), "count");
        add(format!("sat.session_conflicts.{fam}"), "count");
    }
    add("chisel.elab_ms".into(), "ms");
    add("chisel.compile_ms".into(), "ms");
    add("seq.compile_ms".into(), "ms");
    for class in ["cold", "warm", "restart"] {
        add(format!("serve.{class}_ms"), "ms");
    }
    add("serve.hit_share".into(), "share");
    add("serve.bytes_written".into(), "bytes");
    add("serve.bytes_read".into(), "bytes");
    add("serve.batch_reuse_share".into(), "share");
    add("par.executed".into(), "count");
    add("par.steals".into(), "count");
    add("par.inflight_dedup".into(), "count");
    m
}

/// The rustc that built the benchmark, as `rustc -V` reports it.
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Everything needed to reproduce a number from its artifact.
fn config_echo(workload: &str, seed: u64, seconds: u64, trace: bool) -> JsonValue {
    let env = pinned_env()
        .into_iter()
        .fold(JsonValue::obj(), |o, (k, v)| o.set(k, JsonValue::str(v)));
    JsonValue::obj()
        .set("workload", JsonValue::str(workload))
        .set("seed", JsonValue::int(seed))
        .set("seconds", JsonValue::int(seconds))
        .set("trace", JsonValue::Bool(trace))
        .set("git_rev", JsonValue::str(chicala::trace::git_rev()))
        .set("rustc", JsonValue::str(rustc_version()))
        .set(
            "nproc",
            JsonValue::int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        )
        .set("workers", JsonValue::int(workers() as u64))
        .set("clients", JsonValue::int(workers() as u64))
        .set("proof_deadline_ms", JsonValue::int(proof::DEADLINE_MS))
        .set("env", env)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    rep: Option<usize>,
    spawned_at: Option<SystemTime>,
    census: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        rep: None,
        spawned_at: None,
        census: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = parse_seed(&v).ok_or_else(|| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                }
            }
            "--rep" => {
                let v = value()?;
                args.rep = Some(v.parse().map_err(|_| format!("bad --rep `{v}`"))?);
            }
            "--spawned-at" => {
                let v = value()?;
                let ns: u64 = v.parse().map_err(|_| format!("bad --spawned-at `{v}`"))?;
                args.spawned_at = Some(UNIX_EPOCH + Duration::from_nanos(ns));
            }
            "--census" => {
                let v = value()?;
                args.census = Some(v.parse().map_err(|_| format!("bad --census `{v}`"))?);
                return Ok(args);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all (got `{}`)",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <proof|gates|soak|serve|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if let Some(deadline_ms) = args.census {
        return match proof::census(deadline_ms) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: census: {e}");
                ExitCode::from(1)
            }
        };
    }
    if let Some(index) = args.rep {
        let spawned_at = args
            .spawned_at
            .unwrap_or_else(|| SystemTime::now() - started.elapsed());
        return child_main(&args.workload, args.seed, index, args.trace, spawned_at);
    }
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let echo = config_echo(&args.workload, args.seed, args.seconds, args.trace);
    eprintln!("perfbench: config {echo}");
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all = Metrics::default();
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    for w in &workloads {
        let out = run_workload(w, args.seed, args.seconds, args.trace, &echo);
        for p in &out.problems {
            eprintln!("perfbench: {w}: {p}");
        }
        correct &= out.correct;
        attempted += out.attempted;
        failed += out.failed;
        for (name, value, unit) in out.metrics.iter() {
            println!("{w:<6} {name:<40} {value:>16.6} {unit}");
            let key = if workloads.len() > 1 {
                format!("{w}.{name}")
            } else {
                name.to_string()
            };
            all.set(key, value, unit);
        }
    }
    if !correct {
        println!(
            "{}",
            result_line(false, attempted, failed, &Metrics::default())
        );
        return ExitCode::from(1);
    }
    println!("{}", result_line(true, attempted, failed, &all));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metrics_printed() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(JsonValue::Arr(items)) = json::get(&doc, key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|m| {
                    let name = json::get(m, "name").and_then(json::as_str).expect("name");
                    let unit = json::get(m, "unit").and_then(json::as_str).expect("unit");
                    assert!(report::valid_metric_name(name), "{name}");
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let want_e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), want_e2e);
        let mut want_layer: Vec<(String, String)> = per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        want_layer.push(("trace.overhead_share".into(), "share".into()));
        assert_eq!(names("per_layer"), want_layer);
        let Some(JsonValue::Arr(wl)) = json::get(&doc, "workloads") else {
            panic!("workloads")
        };
        let wl: Vec<&str> = wl
            .iter()
            .filter_map(|w| json::get(w, "name").and_then(json::as_str))
            .collect();
        assert_eq!(wl, WORKLOADS);
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Some(42));
        assert_eq!(parse_seed("0x2A"), Some(42));
        assert_eq!(parse_seed("x"), None);
    }
}
