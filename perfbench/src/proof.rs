//! `proof`: Chisel-subset source → `core::transform` →
//! `verify::prepare_env`/`generate_vcs` → `verify::discharge_vc`, for the
//! five designs with a `DesignSpec`.
//!
//! Every VC is generated, and each VC in the known-proved set [`PROVED`] is
//! discharged with its design's proof script under a fixed deadline, on a
//! fresh thread: the kernel's term and constraint stores are thread-local,
//! so each VC starts from the same empty state whatever ran before it. VCs
//! run one at a time, which keeps each VC's `refute_calls` delta exact.
//!
//! The VCs outside [`PROVED`] do not prove within seconds today (they time
//! out or fail); timing them would measure the deadline, not the kernel, so
//! they are generated and counted but not discharged. `--census` lists every
//! VC's verdict and time to regenerate the set.

use crate::report::Metrics;
use crate::spans::Recorder;
use crate::{Rep, RepOutput};
use chicala::chisel::Module;
use chicala::conformance::SplitMix64;
use chicala::core::transform;
use chicala::designs::verified_designs;
use chicala::telemetry::JsonValue;
use chicala::verify::{
    discharge_vc, gc_checkpoint, generate_vcs, prepare_env, refute_calls, refute_micros,
    DesignSpec, Env, Formula, Proof, Vc,
};
use std::time::{Duration, Instant};

/// Per-VC wall-clock deadline. The slowest VC in [`PROVED`] took under
/// 0.5 s on a 2-core machine, a tenth of it, so verdicts do not depend on
/// machine load.
pub const DEADLINE_MS: u64 = 5_000;

/// The designs with a `DesignSpec`, in registry order.
pub fn spec_designs() -> Vec<&'static str> {
    verified_designs()
        .into_iter()
        .filter(|d| d.spec.is_some())
        .map(|d| d.name)
        .collect()
}

/// VCs the five specs generate.
const TOTAL_VCS: usize = 113;

/// Known answers: every VC (`design/name`) that must prove under
/// [`DEADLINE_MS`] from a fresh thread — the VCs `--census 2000` saw prove
/// in under 0.6 s on a 2-core machine (the slowest took 0.48 s; the next
/// fastest prover took 0.95 s and is left out, as are the 12 other VCs that
/// prove only after 0.9 s, the 7 that fail and the 30 that time out).
pub const PROVED: &[&str] = &[
    "rotate/obligation:0",
    "rotate/obligation:1",
    "rotate/obligation:2",
    "rotate/init:0",
    "rotate/init:1",
    "rotate/init:2",
    "rotate/preserve:0",
    "rotate/preserve:1",
    "rotate/measure:nonneg",
    "rotate/measure:dec",
    "rotate/bounds:cnt",
    "rotate/bounds:R",
    "rmul/obligation:0",
    "rmul/obligation:1",
    "rmul/obligation:2",
    "rmul/obligation:3",
    "rmul/obligation:4",
    "rmul/init:0",
    "rmul/init:1",
    "rmul/init:2",
    "rmul/init:3",
    "rmul/init:4",
    "rmul/measure:nonneg",
    "rmul/bounds:cnt",
    "rmul/bounds:b_sh",
    "xmul/obligation:0",
    "xmul/obligation:1",
    "xmul/obligation:2",
    "xmul/obligation:3",
    "xmul/obligation:4",
    "xmul/obligation:5",
    "xmul/obligation:6",
    "xmul/obligation:7",
    "xmul/obligation:8",
    "xmul/obligation:9",
    "xmul/obligation:10",
    "xmul/init:0",
    "xmul/init:1",
    "xmul/init:2",
    "xmul/init:3",
    "xmul/measure:nonneg",
    "xmul/bounds:cnt",
    "rdiv/obligation:0",
    "rdiv/obligation:1",
    "rdiv/obligation:2",
    "rdiv/obligation:3",
    "rdiv/obligation:4",
    "rdiv/obligation:5",
    "rdiv/obligation:6",
    "rdiv/init:0",
    "rdiv/init:1",
    "rdiv/init:2",
    "rdiv/init:3",
    "rdiv/init:4",
    "rdiv/init:5",
    "rdiv/init:6",
    "rdiv/bounds:d_reg",
    "xdiv/obligation:0",
    "xdiv/obligation:1",
    "xdiv/obligation:2",
    "xdiv/obligation:3",
    "xdiv/init:0",
    "xdiv/init:1",
    "xdiv/init:2",
    "xdiv/init:3",
    "xdiv/init:4",
    "xdiv/bounds:cnt",
    "xdiv/bounds:d_reg",
];

/// How one discharge ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    Proved,
    Failed,
    Timeout,
}

impl Outcome {
    fn label(self) -> &'static str {
        match self {
            Outcome::Proved => "proved",
            Outcome::Failed => "failed",
            Outcome::Timeout => "timeout",
        }
    }
}

/// One discharged VC.
pub struct VcRun {
    pub outcome: Outcome,
    pub ms: f64,
    pub refute_calls: u64,
    pub refute_micros: u64,
}

/// A design's generated VCs, ready to discharge.
pub struct Generated {
    pub design: &'static str,
    pub env: Env,
    pub vcs: Vec<Vc>,
    pub proofs: Vec<Proof>,
}

/// The inputs: each design's module and spec, built before timing starts.
fn sources() -> Vec<(&'static str, Module, DesignSpec)> {
    verified_designs()
        .into_iter()
        .filter_map(|d| d.spec.map(|spec| (d.name, (d.module)(), spec())))
        .collect()
}

/// Lowers one design and generates all its VCs, with a span around each
/// public call; adds the transform and VC-generation times to `ms`
/// (milliseconds, in that order).
fn generate(
    (name, module, spec): &(&'static str, Module, DesignSpec),
    rec: &Recorder,
    parent: Option<usize>,
    op: u64,
    ms: &mut [f64; 2],
) -> Result<Generated, String> {
    let t = Instant::now();
    let lowered = {
        let _s = rec.span("core.transform", parent, op);
        transform(module).map_err(|e| format!("{name}: transform: {e}"))?
    };
    ms[0] += t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut env = Env::new();
    {
        let _s = rec.span("bvlib.install_bitvec", parent, op);
        chicala::bvlib::install_bitvec(&mut env)
            .map_err(|(n, e)| format!("{name}: lemma {n}: {e}"))?;
    }
    let vcs = {
        let _s = rec.span("verify.vcgen", parent, op);
        prepare_env(&mut env, spec).map_err(|e| format!("{name}: prepare_env: {e}"))?;
        generate_vcs(&lowered.program, spec, &lowered.obligations)
            .map_err(|e| format!("{name}: generate_vcs: {e}"))?
    };
    ms[1] += t.elapsed().as_secs_f64() * 1e3;
    let proofs = vcs
        .iter()
        .map(|vc| spec.proofs.get(&vc.name).cloned().unwrap_or(Proof::Auto))
        .collect();
    Ok(Generated {
        design: name,
        env,
        vcs,
        proofs,
    })
}

/// Discharges `vc` on a fresh thread under the deadline. A VC that did not
/// prove and reached the deadline is a timeout, whatever the kernel's error
/// text says (some deadline expiries come back as ordinary failures).
pub fn discharge_fresh(env: &Env, vc: &Vc, proof: &Proof, deadline: Duration) -> VcRun {
    std::thread::scope(|s| {
        s.spawn(|| {
            gc_checkpoint();
            let mut env = env.clone();
            let calls0 = refute_calls();
            let micros0 = refute_micros();
            let t = Instant::now();
            env.limits.deadline = Some(t + deadline);
            let r = discharge_vc(&env, vc, proof);
            let elapsed = t.elapsed();
            let outcome = match r {
                Ok(()) => Outcome::Proved,
                Err(_) if elapsed >= deadline => Outcome::Timeout,
                Err(e) if e.to_string().contains("deadline") => Outcome::Timeout,
                Err(_) => Outcome::Failed,
            };
            VcRun {
                outcome,
                ms: elapsed.as_secs_f64() * 1e3,
                refute_calls: refute_calls() - calls0,
                refute_micros: refute_micros() - micros0,
            }
        })
        .join()
        .expect("discharge thread")
    })
}

pub fn run(rep: &Rep) -> Result<RepOutput, String> {
    let deadline = Duration::from_millis(DEADLINE_MS);
    let sources = sources();
    let mut out = RepOutput::default();
    let rec = &rep.rec;

    // ---- timed region ----
    let t0 = Instant::now();
    out.setup_s = rep.since_spawn();
    let root = rec.span("bench.proof", None, 0);
    let mut generated = Vec::new();
    let mut gen_ms = [0.0; 2];
    for (op, source) in sources.iter().enumerate() {
        generated.push(generate(source, rec, root.id(), op as u64, &mut gen_ms)?);
    }
    let [transform_ms, vcgen_ms] = gen_ms;

    // The known-proved set, in a seeded order.
    let total: usize = generated.iter().map(|g| g.vcs.len()).sum();
    if total != TOTAL_VCS {
        out.failed
            .push(format!("generated {total} VCs, expected {TOTAL_VCS}"));
    }
    let mut order = Vec::new();
    for key in PROVED {
        let (design, vc) = key.split_once('/').expect("PROVED keys are design/vc");
        let found = generated.iter().enumerate().find_map(|(gi, g)| {
            (g.design == design)
                .then(|| g.vcs.iter().position(|v| v.name == vc).map(|vi| (gi, vi)))?
        });
        match found {
            Some(pos) => order.push((*key, pos)),
            None => out.failed.push(format!("{key}: VC no longer generated")),
        }
    }
    let order = crate::shuffled(order, &mut SplitMix64::new(rep.seed ^ 0x5052_4F4F_4653));

    let mut runs: Vec<(&str, usize, VcRun)> = Vec::new();
    for (op, (key, (gi, vi))) in order.iter().enumerate() {
        let g = &generated[*gi];
        let run = {
            let _s = rec.span("verify.discharge_vc", root.id(), op as u64 + 1);
            discharge_fresh(&g.env, &g.vcs[*vi], &g.proofs[*vi], deadline)
        };
        out.ops_ms.push(run.ms);
        if run.outcome != Outcome::Proved {
            out.failed.push(format!(
                "{key}: {} after {:.1} ms",
                run.outcome.label(),
                run.ms
            ));
        }
        runs.push((key, *gi, run));
    }
    drop(root);
    out.wall_s = t0.elapsed().as_secs_f64();
    // ---- end of timed region ----

    // Known-bad input: a proved VC's goal negated under the same
    // hypotheses must not prove.
    if let Some(&(key, (gi, vi))) = order.first() {
        let g = &generated[gi];
        let vc = &g.vcs[vi];
        let negated = Vc {
            name: format!("{}:negated", vc.name),
            hyps: vc.hyps.clone(),
            goal: Formula::Not(Box::new(vc.goal.clone())),
        };
        let r = discharge_fresh(&g.env, &negated, &Proof::Auto, deadline);
        if r.outcome == Outcome::Proved {
            out.bad_undetected
                .push(format!("{key} with its goal negated proved"));
        }
    }

    layer_metrics(&mut out.layer, &runs, &generated, transform_ms, vcgen_ms);
    out.detail = JsonValue::obj()
        .set("deadline_ms", JsonValue::int(DEADLINE_MS))
        .set(
            "vcs",
            JsonValue::Arr(
                runs.iter()
                    .map(|(key, _, r)| {
                        JsonValue::obj()
                            .set("vc", JsonValue::str(*key))
                            .set("outcome", JsonValue::str(r.outcome.label()))
                            .set("ms", JsonValue::Num(r.ms))
                            .set("refute_calls", JsonValue::int(r.refute_calls))
                    })
                    .collect(),
            ),
        );
    Ok(out)
}

fn layer_metrics(
    m: &mut Metrics,
    runs: &[(&str, usize, VcRun)],
    generated: &[Generated],
    transform_ms: f64,
    vcgen_ms: f64,
) {
    m.set("core.transform_ms", transform_ms, "ms");
    m.set("verify.vcgen_ms", vcgen_ms, "ms");
    let count = |o: Outcome| runs.iter().filter(|r| r.2.outcome == o).count() as f64;
    m.set("verify.timeout", count(Outcome::Timeout), "count");
    m.set("verify.failed", count(Outcome::Failed), "count");
    m.set(
        "verify.linarith_s",
        runs.iter().map(|r| r.2.refute_micros as f64 / 1e6).sum(),
        "s",
    );
    let mut put = |suffix: String, rs: Vec<&VcRun>| {
        m.set(
            format!("verify.discharge_s{suffix}"),
            rs.iter().map(|r| r.ms / 1e3).sum(),
            "s",
        );
        m.set(
            format!("verify.refute_calls{suffix}"),
            rs.iter().map(|r| r.refute_calls as f64).sum(),
            "count",
        );
        m.set(
            format!("verify.proved{suffix}"),
            rs.iter().filter(|r| r.outcome == Outcome::Proved).count() as f64,
            "count",
        );
    };
    put(String::new(), runs.iter().map(|r| &r.2).collect());
    for (gi, g) in generated.iter().enumerate() {
        put(
            format!(".{}", g.design),
            runs.iter().filter(|r| r.1 == gi).map(|r| &r.2).collect(),
        );
    }
}

/// `--census <deadline_ms>`: discharges every VC (not only the known-proved
/// set) and prints one line per VC — the way to regenerate [`PROVED`].
pub fn census(deadline_ms: u64) -> Result<(), String> {
    let deadline = Duration::from_millis(deadline_ms);
    let rec = Recorder::new(false);
    for source in sources() {
        let g = generate(&source, &rec, None, 0, &mut [0.0; 2])?;
        for (vc, proof) in g.vcs.iter().zip(&g.proofs) {
            let r = discharge_fresh(&g.env, vc, proof, deadline);
            println!(
                "{}/{} {} {:.1} {}",
                g.design,
                vc.name,
                r.outcome.label(),
                r.ms,
                r.refute_calls
            );
        }
    }
    Ok(())
}
