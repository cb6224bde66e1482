//! Telemetry report: runs the full pipeline — transformation, the
//! design's proof job (VC generation, then kernel discharge under a per-VC
//! deadline), per-width bit-blasting, and a short conformance soak — for
//! every registered design, then prints a per-design, per-phase cost
//! breakdown from the telemetry collector and writes a Chrome trace-event
//! JSON file.
//!
//! ```text
//! CHICALA_TRACE=1 cargo run --example telemetry_report
//! ```
//!
//! Environment:
//! * `CHICALA_TRACE` — must be set (and not `0`) or the report has nothing
//!   to show; the pipeline itself is not run without it.
//! * `CHICALA_TRACE_OUT` — trace JSON path (default `telemetry_trace.json`).

use chicala::chisel::elaborate;
use chicala::conformance;
use chicala::core::transform;
use chicala::designs::{verified_designs, ProofJob};
use chicala::lowlevel;
use chicala::telemetry;
use chicala::verify::{discharge_all, Verdict};
use std::collections::BTreeMap;
use std::time::Duration;

/// Wall-clock kernel deadline per verification condition.
const VC_DEADLINE: Duration = Duration::from_millis(250);

/// Per-design verdict tally.
#[derive(Default)]
struct VcTally {
    proved: usize,
    failed: usize,
    timeout: usize,
}

/// Bit-blasts the design at one small width for its full latency,
/// recording gate/BDD sizes into the telemetry histograms.
fn bitblast_sample(name: &str) -> Result<String, String> {
    let d = conformance::Design::by_name(name).ok_or("not in conformance registry")?;
    let width = d.min_width.max(4).min(d.gate_max_width);
    let cycles = (d.latency)(width) as usize;
    let module = (d.build)();
    let bindings: chicala::chisel::Bindings =
        [("len".to_string(), width as i64)].into_iter().collect();
    let em = elaborate(&module, &bindings).map_err(|e| e.to_string())?;

    let _span = telemetry::span!("bitblast:{}", name);
    let mut bdd = lowlevel::bdd::Bdd::new();
    let inputs = lowlevel::fresh_inputs(
        &em,
        |_, i, b: &mut lowlevel::bdd::Bdd| b.var(i as u32),
        &mut bdd,
    );
    lowlevel::unroll(&em, &mut bdd, &inputs, &BTreeMap::new(), cycles)
        .map_err(|e| e.to_string())?;
    Ok(format!("len={width}, {cycles} cycles, {} BDD nodes", bdd.node_count()))
}

/// Formats nanoseconds compactly for the table.
fn fmt_ns(ns: u64) -> String {
    if ns == 0 {
        "-".to_string()
    } else if ns < 1_000_000 {
        format!("{:.0}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if !telemetry::enabled() {
        println!(
            "telemetry is disabled; set CHICALA_TRACE=1 to collect and report\n\
             (example: CHICALA_TRACE=1 cargo run --example telemetry_report)"
        );
        return Ok(());
    }

    let designs = verified_designs();
    let mut tallies: BTreeMap<&str, Option<VcTally>> = BTreeMap::new();
    let mut module_names: BTreeMap<&str, String> = BTreeMap::new();

    for d in &designs {
        println!("== {} ==", d.name);

        // 1. Transformation (records `transform:{module}` spans internally;
        //    the module name keys the table's transform column).
        let module = (d.module)();
        module_names.insert(d.name, module.name.clone());
        let out = transform(&module)?;
        println!("  transform: {} statements, {} obligations",
            out.program.trans.len(), out.obligations.len());

        // 2. Parametric verification: the proof job and the driver, inside
        //    a design-attributed span so the vcgen / vc / lemma child spans
        //    can be split out per design below.
        let tally = d.spec.map(|spec| {
            let _span = telemetry::span!("verify:{}", d.name);
            let job = ProofJob::new(&module, spec())?;
            let mut t = VcTally::default();
            for v in discharge_all(&job.env, &job.spec, &job.vcs, Some(VC_DEADLINE)) {
                match v.verdict {
                    Verdict::Proved => t.proved += 1,
                    Verdict::Failed(_) => t.failed += 1,
                    Verdict::Timeout => t.timeout += 1,
                }
            }
            Ok::<_, String>(t)
        });
        match &tally {
            Some(Ok(t)) => println!(
                "  verify: {} proved, {} failed, {} timed out ({:?} per VC)",
                t.proved, t.failed, t.timeout, VC_DEADLINE
            ),
            Some(Err(e)) => println!("  verify: error: {e}"),
            None => println!("  verify: (no deductive spec)"),
        }
        tallies.insert(d.name, tally.and_then(Result::ok));

        // 3. Low-level contrast: one-width bit-blast at the design's
        //    smallest interesting width.
        match bitblast_sample(d.name) {
            Ok(s) => println!("  bitblast: {s}"),
            Err(e) => println!("  bitblast: error: {e}"),
        }

        // 4. A short conformance soak (records per-case histograms and
        //    `conformance:{name}/{layer}` spans internally).
        if let Some(cd) = conformance::Design::by_name(d.name) {
            let cfg = conformance::Config {
                cases: 16,
                max_width: 16,
                ..conformance::Config::default()
            };
            let report = conformance::run_design(&cd, &cfg);
            let cases: usize = report.stats.values().map(|s| s.cases).sum();
            println!(
                "  conformance: {} cases across {} layers, {} divergence(s)",
                cases,
                report.stats.len(),
                report.failures.len()
            );
        }
        println!();
    }

    // The per-design, per-phase cost table, aggregated from span paths.
    let snap = telemetry::snapshot();
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12}   vcs (proved/failed/timeout)",
        "design", "transform", "vcgen", "kernel", "bitblast", "conformance"
    );
    for d in &designs {
        let name = d.name;
        let module_name = module_names.get(name).cloned().unwrap_or_default();
        let transform_ns =
            snap.span_total_ns(|p| p == format!("transform:{module_name}"));
        let vcgen_ns =
            snap.span_total_ns(|p| p == format!("verify:{name}/vcgen"));
        let kernel_ns = snap.span_total_ns(|p| {
            p.strip_prefix(&format!("verify:{name}/"))
                .is_some_and(|rest| rest.starts_with("vc:") || rest.starts_with("lemma:"))
        });
        let bitblast_ns = snap.span_total_ns(|p| {
            p == format!("bitblast:{name}")
        });
        let conformance_ns =
            snap.span_total_ns(|p| p == format!("conformance:{name}"));
        let vcs = match tallies.get(name) {
            Some(Some(t)) => format!("{}/{}/{}", t.proved, t.failed, t.timeout),
            _ => "-".to_string(),
        };
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10} {:>12}   {}",
            name,
            fmt_ns(transform_ns),
            fmt_ns(vcgen_ns),
            fmt_ns(kernel_ns),
            fmt_ns(bitblast_ns),
            fmt_ns(conformance_ns),
            vcs
        );
    }

    // Counters and histogram highlights.
    println!("\ncounters:");
    for (name, v) in &snap.counters {
        println!("  {name:<28} {v}");
    }
    println!("\nhistograms:");
    for (name, h) in snap.hist_summaries() {
        // Histograms named `*_ns` (and bench samples) hold nanoseconds;
        // the rest are plain counts (formula nodes, gate counts, ...).
        let time_valued = name.contains("_ns") || name.starts_with("bench/");
        let f = |v: u64| if time_valued { fmt_ns(v) } else { v.to_string() };
        println!(
            "  {name:<40} n={} p50={} p90={} p99={} max={}",
            h.count,
            f(h.p50),
            f(h.p90),
            f(h.p99),
            f(h.max)
        );
    }

    // Chrome trace export (CHICALA_TRACE_OUT overrides the default path).
    let out_path = std::env::var("CHICALA_TRACE_OUT")
        .ok()
        .filter(|p| !p.is_empty())
        .unwrap_or_else(|| "telemetry_trace.json".to_string());
    if telemetry::write_chrome_trace(&out_path)? {
        println!("\nwrote Chrome trace ({} spans) to {out_path}", snap.spans.len());
    } else {
        println!("\nno trace written (telemetry disabled)");
    }
    Ok(())
}
