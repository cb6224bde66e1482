//! Gate-level backend benchmark: times the per-width design-vs-golden
//! equivalence proof for every registry design under the netlist-level
//! BDD baseline and the two engines of the AIG prove path (BDD and SAT),
//! and writes the results to `BENCH_lowlevel.json`.
//!
//! ```text
//! cargo run --release --example bench_lowlevel            # full sweep
//! cargo run --release --example bench_lowlevel -- --smoke # CI smoke mode
//! ```
//!
//! For each design the width sweep runs from `min_width` to the registry's
//! `gate_max_width` ceiling. Per width the bench records:
//!
//! * `folded` — whether netlist→AIG lowering folded the miter root to a
//!   constant (no engine runs);
//! * `bdd_ns` — the netlist-level monolithic-BDD baseline
//!   ([`prove_net_bdd`]), only up to the design's BDD-era ceiling
//!   (`bdd_ceiling`), past which monolithic BDDs blow up;
//! * `bdd_aig_ns` — [`prove_net`] with the BDD engine, which lowers to the
//!   structurally hashed AIG first; measured at every folded width (the
//!   BDD never materialises), else only up to `bdd_ceiling`;
//! * `sat_ns` — [`prove_net`] with the SAT engine (min of [`REPS`] runs).
//!
//! Headline numbers per design: `speedup_at_bdd_ceiling` (BDD baseline
//! over SAT at the last BDD-era width) and `aig_bdd_speedup_at_bdd_ceiling`
//! (BDD baseline over the AIG path's BDD at the same width). The registry
//! miters fold during lowering, so both AIG timings are the lowering
//! itself.
//!
//! Smoke mode caps the sweep at width 12 and exits non-zero unless every
//! SAT prove is UNSAT and the sweep A/B below passes.
//!
//! Knobs (environment):
//! - `CHICALA_BENCH_OUT`: output path (default `BENCH_lowlevel.json`).
//! - `CHICALA_BENCH_BASELINE`: path to a previous run's JSON; embedded
//!   verbatim under `"baseline"`.

use chicala::conformance::{all_designs, formal_gate_obligation, formal_gate_obligation_shared};
use chicala::lowlevel::sweep::family;
use chicala::lowlevel::{
    from_netlist, prove_net, prove_net_bdd, prove_net_sweep, tseitin_pg, Aig, AigRef, Backend,
    IncrementalProver, Netlist, SweepItem, SweepVerdict, AIG_TRUE,
};
use chicala::sat::{SatResult, Solver};
use std::time::Instant;

/// Timing repetitions for the SAT-path measurements (min is reported).
const REPS: usize = 3;

/// The registry's `gate_max_width` before the SAT backend existed: the
/// widths the BDD-only gates layer could afford per design.
fn bdd_ceiling(name: &str) -> u64 {
    match name {
        "rotate" | "popcount" => 10,
        "rmul" | "rdiv" => 8,
        _ => 6, // xmul, xdiv, csel, ks, csa3
    }
}

struct Row {
    width: u64,
    folded: bool,
    bdd_ns: Option<u64>,
    bdd_aig_ns: Option<u64>,
    sat_ns: u64,
    sat_proved: bool,
}

/// One width of a hard-family sweep A/B: the cold one-shot prove (fresh
/// AIG, fresh solver, fresh encoding — exactly what the per-width path
/// pays) against the incremental session's probe for the same width.
struct FamRow {
    width: u64,
    cold_ns: u64,
    cold_conflicts: u64,
    sweep_ns: u64,
    conflicts: u64,
    new_clauses: u64,
    reused_clauses: u64,
}

struct FamBench {
    name: &'static str,
    max_w: u64,
    cold_ns: u64,
    sweep_ns: u64,
    speedup: f64,
    all_proved: bool,
    lemmas: u64,
    rows: Vec<FamRow>,
}

/// Sweeps one hard arithmetic family `2..=max_w` twice: per-width cold
/// one-shot solves, then one incremental session. Both sides are timed
/// end to end (graph construction + encoding + solving).
fn bench_family(
    name: &'static str,
    max_w: u64,
    build: impl Fn(&mut Aig, &[AigRef], usize) -> AigRef,
) -> FamBench {
    let mut cold: Vec<(u64, u64, u64)> = Vec::new(); // (width, ns, conflicts)
    for w in 2..=max_w {
        let t = Instant::now();
        let mut g = Aig::new();
        let inputs: Vec<AigRef> = (0..96).map(|_| g.input()).collect();
        let root = build(&mut g, &inputs, w as usize);
        let mut conflicts = 0;
        if root != AIG_TRUE {
            let mut s = Solver::new();
            let enc = tseitin_pg(&g, !root, &mut s);
            s.add_clause(&[enc.lit]);
            assert_eq!(s.solve(), SatResult::Unsat, "{name} cold w={w}");
            conflicts = s.stats().conflicts;
        }
        cold.push((w, t.elapsed().as_nanos() as u64, conflicts));
    }
    let t = Instant::now();
    let mut session = IncrementalProver::new();
    let inputs: Vec<AigRef> = (0..96).map(|_| session.aig.input()).collect();
    let mut all_proved = true;
    let mut sweep_ns: Vec<u64> = Vec::new();
    for w in 2..=max_w {
        let t = Instant::now();
        let root = build(&mut session.aig, &inputs, w as usize);
        all_proved &= session.prove_root(w, root) == SweepVerdict::Proved;
        sweep_ns.push(t.elapsed().as_nanos() as u64);
    }
    let sweep_total = t.elapsed().as_nanos() as u64;
    let cold_total: u64 = cold.iter().map(|&(_, ns, _)| ns).sum();
    let rows = cold
        .iter()
        .zip(&session.stats.per_width)
        .zip(&sweep_ns)
        .map(|((&(width, cold_ns, cold_conflicts), p), &ns)| FamRow {
            width,
            cold_ns,
            cold_conflicts,
            sweep_ns: ns,
            conflicts: p.conflicts,
            new_clauses: p.new_clauses,
            reused_clauses: p.reused_clauses,
        })
        .collect();
    FamBench {
        name,
        max_w,
        cold_ns: cold_total,
        sweep_ns: sweep_total,
        speedup: cold_total as f64 / sweep_total.max(1) as f64,
        all_proved,
        lemmas: session.stats.lemmas,
        rows,
    }
}

/// The registry-design sweep A/B: per-width one-shot proves (fresh
/// obligation each width, as `check_gates_formal` pays) against the
/// shared-kit incremental sweep, plus a `verify_ab` pass that re-proves
/// every width one-shot inside the sweep and counts divergences — the
/// byte-identity check. Registry miters strash-fold at every width, so
/// the honest expectation here is ≈1x: SAT never engages and both sides
/// pay obligation builds.
struct RegSweep {
    name: &'static str,
    cap: u64,
    cold_ns: u64,
    sweep_ns: u64,
    speedup: f64,
    all_proved: bool,
    byte_identical: bool,
    results: Vec<String>,
}

fn bench_registry_sweep(d: &chicala::conformance::Design, cap: u64) -> RegSweep {
    let widths: Vec<u64> = (d.min_width..=cap).collect();
    let t = Instant::now();
    let mut cold_results = Vec::new();
    for &w in &widths {
        let ob = formal_gate_obligation(d, w)
            .expect("registry design elaborates")
            .expect("golden model registered");
        cold_results.push(prove_net(
            &ob.netlist,
            ob.property,
            Backend::Auto,
            w as usize,
            &ob.var_order,
        ));
    }
    let cold_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut kit = Netlist::new();
    let mut shared_inputs = std::collections::BTreeMap::new();
    let mut obs = Vec::new();
    for &w in &widths {
        let ob = formal_gate_obligation_shared(d, w, &mut kit, &mut shared_inputs)
            .expect("registry design elaborates")
            .expect("golden model registered");
        obs.push((w, ob));
    }
    let items: Vec<SweepItem<'_>> = obs
        .iter()
        .map(|(w, ob)| SweepItem { nl: &kit, root: ob.property, width: *w, var_order: ob.var_order.clone() })
        .collect();
    let report = prove_net_sweep(&items, Backend::Auto, false);
    let sweep_ns = t.elapsed().as_nanos() as u64;
    // Byte-identity, both against the cold results gathered above and via
    // the sweep's own A/B tripwire (untimed).
    let ab = prove_net_sweep(&items, Backend::Auto, true);
    let byte_identical = ab.stats.divergences == 0
        && report.outcomes.iter().zip(&cold_results).all(|(o, c)| &o.result == c);
    let results = report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}:{}",
                o.width,
                if o.result.is_proved() { "proved" } else { "cex" }
            )
        })
        .collect();
    RegSweep {
        name: d.name,
        cap,
        cold_ns,
        sweep_ns,
        speedup: cold_ns as f64 / sweep_ns.max(1) as f64,
        all_proved: report.all_proved(),
        byte_identical,
        results,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let started = Instant::now();
    let mut all_sat_proved = true;
    let mut per_design: Vec<(&'static str, Vec<Row>)> = Vec::new();

    for d in all_designs() {
        if d.gate_spec.is_none() {
            continue;
        }
        let cap = if smoke { d.gate_max_width.min(12) } else { d.gate_max_width };
        println!(
            "{} (widths {}..={cap}, BDD up to {}):",
            d.name,
            d.min_width,
            bdd_ceiling(d.name)
        );
        println!(
            "{:>6} {:>7} {:>12} {:>12} {:>12} {:>9}",
            "width", "folded", "BDD netlist", "BDD AIG", "SAT AIG", "status"
        );
        let mut rows = Vec::new();
        for width in d.min_width..=cap {
            let ob = formal_gate_obligation(&d, width)?.expect("golden model registered");
            let (_, roots, _) = from_netlist(&ob.netlist, &[ob.property]);
            let folded = roots[0] == AIG_TRUE;

            let bdd_ns = (width <= bdd_ceiling(d.name)).then(|| {
                let t = Instant::now();
                let r = prove_net_bdd(&ob.netlist, ob.property, &ob.var_order);
                assert!(r.is_proved(), "{} at width {width}: BDD: {r:?}", d.name);
                t.elapsed().as_nanos() as u64
            });
            // The AIG path's BDD runs at every width where lowering folded
            // the cone (the BDD then never materialises); where it did
            // not, only up to the BDD-era ceiling, since an unfolded
            // monolithic BDD still blows up.
            let bdd_aig_ns = (folded || width <= bdd_ceiling(d.name)).then(|| {
                let t = Instant::now();
                let r = prove_net(
                    &ob.netlist,
                    ob.property,
                    Backend::Bdd,
                    width as usize,
                    &ob.var_order,
                );
                assert!(r.is_proved(), "{} at width {width}: BDD via AIG: {r:?}", d.name);
                t.elapsed().as_nanos() as u64
            });

            let mut sat_ns = u64::MAX;
            let mut sat_proved = true;
            for _ in 0..REPS {
                let t = Instant::now();
                let r = prove_net(
                    &ob.netlist,
                    ob.property,
                    Backend::Sat,
                    width as usize,
                    &ob.var_order,
                );
                sat_ns = sat_ns.min(t.elapsed().as_nanos() as u64);
                sat_proved &= r.is_proved();
            }
            all_sat_proved &= sat_proved;
            println!(
                "{:>6} {:>7} {:>12} {:>12} {:>12} {:>9}",
                width,
                folded,
                bdd_ns.map_or("-".into(), |ns| format!("{:.2}ms", ns as f64 / 1e6)),
                bdd_aig_ns.map_or("-".into(), |ns| format!("{:.2}ms", ns as f64 / 1e6)),
                format!("{:.2}ms", sat_ns as f64 / 1e6),
                if sat_proved { "UNSAT" } else { "SAT?!" }
            );
            rows.push(Row { width, folded, bdd_ns, bdd_aig_ns, sat_ns, sat_proved });
        }
        if let Some(r) = rows.iter().find(|r| r.width == bdd_ceiling(d.name)) {
            if let Some(b) = r.bdd_ns {
                println!(
                    "  BDD->SAT speedup at BDD ceiling (w={}): {:.1}x",
                    r.width,
                    b as f64 / r.sat_ns.max(1) as f64
                );
                if let Some(ba) = r.bdd_aig_ns {
                    println!(
                        "  AIG front end speedup on the BDD engine at its ceiling (w={}): {:.1}x",
                        r.width,
                        b as f64 / ba.max(1) as f64
                    );
                }
            }
        }
        println!();
        per_design.push((d.name, rows));
    }

    // ---- Incremental width-sweep A/B --------------------------------
    //
    // Hard arithmetic families first (the headline: strash cannot fold
    // them, so CDCL does real per-width work the session amortizes), then
    // the registry designs through the shared-kit netlist sweep (honest
    // ≈1x: their miters fold structurally, SAT never engages).
    println!("incremental width-sweep vs one-shot (hard families):");
    println!(
        "{:>10} {:>7} {:>12} {:>12} {:>9} {:>10} {:>8}",
        "family", "widths", "one-shot", "sweep", "speedup", "conflicts", "lemmas"
    );
    type FamBuild = fn(&mut Aig, &[AigRef], usize) -> AigRef;
    let fams: Vec<(&'static str, u64, u64, FamBuild)> = vec![
        // (name, full ceiling, smoke ceiling, build)
        ("mulcomm", 9, 7, |g, i, w| family::mulcomm_root(g, &i[..w], &i[32..32 + w], w)),
        ("muldist", 6, 5, |g, i, w| {
            family::muldist_root(g, &i[..w], &i[32..32 + w], &i[64..64 + w], w)
        }),
        ("mulinc", 8, 7, |g, i, w| family::mulinc_root(g, &i[..w], &i[32..32 + w], w)),
        ("addassoc", 32, 16, |g, i, w| {
            family::addassoc_root(g, &i[..w], &i[32..32 + w], &i[64..64 + w], w)
        }),
        ("addxor", 32, 16, |g, i, w| family::addxor_root(g, &i[..w], &i[32..32 + w], w)),
        ("incdec", 32, 16, |g, i, w| family::incdec_root(g, &i[..w], w)),
    ];
    let mut fam_benches = Vec::new();
    let mut sweep_all_proved = true;
    for (name, full_w, smoke_w, build) in fams {
        let fb = bench_family(name, if smoke { smoke_w } else { full_w }, build);
        sweep_all_proved &= fb.all_proved;
        println!(
            "{:>10} {:>7} {:>12} {:>12} {:>9} {:>10} {:>8}",
            fb.name,
            format!("2..={}", fb.max_w),
            format!("{:.1}ms", fb.cold_ns as f64 / 1e6),
            format!("{:.1}ms", fb.sweep_ns as f64 / 1e6),
            format!("{:.2}x", fb.speedup),
            format!(
                "{}/{}",
                fb.rows.iter().map(|r| r.conflicts).sum::<u64>(),
                fb.rows.iter().map(|r| r.cold_conflicts).sum::<u64>()
            ),
            fb.lemmas,
        );
        fam_benches.push(fb);
    }
    let mut speedups: Vec<f64> = fam_benches.iter().map(|f| f.speedup).collect();
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let sweep_median_speedup = (speedups[speedups.len() / 2]
        + speedups[(speedups.len() - 1) / 2])
        / 2.0;
    let designs_over_3x = speedups.iter().filter(|&&s| s >= 3.0).count();
    println!(
        "  median family speedup {sweep_median_speedup:.2}x; {designs_over_3x}/{} families ≥3x\n",
        speedups.len()
    );

    println!("registry designs through the shared-kit sweep (miters strash-fold; ≈1x expected):");
    println!(
        "{:>10} {:>7} {:>12} {:>12} {:>9} {:>7} {:>6}",
        "design", "widths", "one-shot", "sweep", "speedup", "proved", "A/B"
    );
    let mut reg_sweeps = Vec::new();
    let mut sweep_byte_identical = true;
    for d in all_designs() {
        if d.gate_spec.is_none() {
            continue;
        }
        let cap = if smoke { d.gate_max_width.min(12) } else { d.gate_max_width };
        let rs = bench_registry_sweep(&d, cap);
        sweep_all_proved &= rs.all_proved;
        sweep_byte_identical &= rs.byte_identical;
        println!(
            "{:>10} {:>7} {:>12} {:>12} {:>9} {:>7} {:>6}",
            rs.name,
            format!("{}..={}", d.min_width, rs.cap),
            format!("{:.1}ms", rs.cold_ns as f64 / 1e6),
            format!("{:.1}ms", rs.sweep_ns as f64 / 1e6),
            format!("{:.2}x", rs.speedup),
            rs.all_proved,
            if rs.byte_identical { "ok" } else { "DIVERGED" },
        );
        reg_sweeps.push(rs);
    }
    println!();

    let baseline: Option<String> = std::env::var("CHICALA_BENCH_BASELINE")
        .ok()
        .and_then(|p| std::fs::read_to_string(p).ok());
    let out_path = std::env::var("CHICALA_BENCH_OUT")
        .unwrap_or_else(|_| "BENCH_lowlevel.json".to_string());

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"all_sat_proved\": {all_sat_proved},\n"));
    json.push_str(&format!("  \"sweep_all_proved\": {sweep_all_proved},\n"));
    json.push_str(&format!("  \"sweep_byte_identical\": {sweep_byte_identical},\n"));
    json.push_str(&format!("  \"sweep_median_speedup\": {sweep_median_speedup:.3},\n"));
    json.push_str(&format!("  \"sweep_families_over_3x\": {designs_over_3x},\n"));
    json.push_str("  \"sweep_families\": {\n");
    for (fi, f) in fam_benches.iter().enumerate() {
        json.push_str(&format!("    \"{}\": {{\n", f.name));
        json.push_str(&format!("      \"max_width\": {},\n", f.max_w));
        json.push_str(&format!("      \"oneshot_ns\": {},\n", f.cold_ns));
        json.push_str(&format!("      \"sweep_ns\": {},\n", f.sweep_ns));
        json.push_str(&format!("      \"speedup\": {:.3},\n", f.speedup));
        json.push_str(&format!("      \"all_proved\": {},\n", f.all_proved));
        json.push_str(&format!("      \"lemmas\": {},\n", f.lemmas));
        json.push_str("      \"rows\": [\n");
        for (i, r) in f.rows.iter().enumerate() {
            json.push_str(&format!(
                "        {{ \"width\": {}, \"oneshot_ns\": {}, \"oneshot_conflicts\": {}, \
                 \"sweep_ns\": {}, \"sweep_conflicts\": {}, \"new_clauses\": {}, \
                 \"reused_clauses\": {} }}{}\n",
                r.width,
                r.cold_ns,
                r.cold_conflicts,
                r.sweep_ns,
                r.conflicts,
                r.new_clauses,
                r.reused_clauses,
                if i + 1 < f.rows.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if fi + 1 < fam_benches.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"sweep_registry\": {\n");
    for (ri, r) in reg_sweeps.iter().enumerate() {
        json.push_str(&format!("    \"{}\": {{\n", r.name));
        json.push_str(&format!("      \"max_width\": {},\n", r.cap));
        json.push_str(&format!("      \"oneshot_ns\": {},\n", r.cold_ns));
        json.push_str(&format!("      \"sweep_ns\": {},\n", r.sweep_ns));
        json.push_str(&format!("      \"speedup\": {:.3},\n", r.speedup));
        json.push_str(&format!("      \"all_proved\": {},\n", r.all_proved));
        json.push_str(&format!("      \"byte_identical\": {},\n", r.byte_identical));
        json.push_str(&format!(
            "      \"results\": [{}]\n",
            r.results.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
        ));
        json.push_str(&format!(
            "    }}{}\n",
            if ri + 1 < reg_sweeps.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"designs\": {\n");
    for (di, (name, rows)) in per_design.iter().enumerate() {
        let at_bdd_ceiling = rows.iter().find(|r| r.width == bdd_ceiling(name));
        let speedup =
            at_bdd_ceiling.and_then(|r| r.bdd_ns.map(|b| b as f64 / r.sat_ns.max(1) as f64));
        let aig_bdd_speedup = at_bdd_ceiling.and_then(|r| {
            r.bdd_ns.zip(r.bdd_aig_ns).map(|(b, ba)| b as f64 / ba.max(1) as f64)
        });
        json.push_str(&format!("    \"{name}\": {{\n"));
        json.push_str(&format!("      \"bdd_ceiling\": {},\n", bdd_ceiling(name)));
        json.push_str(&format!(
            "      \"speedup_at_bdd_ceiling\": {},\n",
            speedup.map_or("null".into(), |s| format!("{s:.3}"))
        ));
        json.push_str(&format!(
            "      \"aig_bdd_speedup_at_bdd_ceiling\": {},\n",
            aig_bdd_speedup.map_or("null".into(), |s| format!("{s:.3}"))
        ));
        json.push_str("      \"rows\": [\n");
        for (i, r) in rows.iter().enumerate() {
            json.push_str(&format!(
                "        {{ \"width\": {}, \"folded\": {}, \"bdd_ns\": {}, \"bdd_aig_ns\": {}, \
                 \"sat_ns\": {}, \"sat_proved\": {} }}{}\n",
                r.width,
                r.folded,
                r.bdd_ns.map_or("null".into(), |n| n.to_string()),
                r.bdd_aig_ns.map_or("null".into(), |n| n.to_string()),
                r.sat_ns,
                r.sat_proved,
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("      ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if di + 1 < per_design.len() { "," } else { "" }
        ));
    }
    json.push_str("  }");
    if let Some(base) = &baseline {
        let indented: String = base
            .trim_end()
            .lines()
            .enumerate()
            .map(|(i, l)| if i == 0 { l.to_string() } else { format!("  {l}") })
            .collect::<Vec<_>>()
            .join("\n");
        json.push_str(",\n");
        json.push_str(&format!("  \"baseline\": {indented}\n"));
    } else {
        json.push('\n');
    }
    json.push_str("}\n");
    std::fs::write(&out_path, json)?;
    println!("wrote {out_path} (wall time {:.1?})", started.elapsed());

    if smoke && !all_sat_proved {
        eprintln!("smoke: a SAT miter was not proved UNSAT");
        std::process::exit(1);
    }
    if smoke && !sweep_all_proved {
        eprintln!("smoke: a sweep width was not proved");
        std::process::exit(1);
    }
    if smoke && !sweep_byte_identical {
        eprintln!("smoke: sweep and one-shot reports diverged");
        std::process::exit(1);
    }
    Ok(())
}
