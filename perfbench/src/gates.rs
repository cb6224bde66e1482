//! `gates`: per-width gate-level verdicts.
//!
//! * Registry half: every registry design with a golden model, at every
//!   width from `min_width` to `gate_max_width`, proved one-shot
//!   (`conformance::formal_gate_obligation` → `lowlevel::prove_net_with`,
//!   the conformance layer's and the serve `prove` op's path) and again
//!   through `lowlevel::prove_net_sweep_scheduled` (the serve `sweep`
//!   path). The two must agree width by width. These miters fold during
//!   lowering, so lowering does the work and SAT never runs.
//! * Family half: the six `lowlevel::sweep::family` identities, proved
//!   with a fresh `sat::Solver` per width and with one `IncrementalProver`
//!   session per family. They do not fold, so SAT does the work.

use crate::{Rep, RepOutput};
use chicala::conformance::{
    all_designs, formal_gate_obligation, formal_gate_obligation_shared, Design, SplitMix64,
};
use chicala::lowlevel::sweep::family;
use chicala::lowlevel::{
    prove_net_sweep_scheduled, prove_net_with, sweep_pool, tseitin_pg, Aig, AigRef, Backend,
    IncrementalProver, Netlist, OptProfile, SweepItem, SweepVerdict, AIG_TRUE,
};
use chicala::sat::{SatResult, Solver};
use chicala::telemetry::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

type FamilyBuild = fn(&mut Aig, &[AigRef], usize) -> AigRef;

/// The sweep families with the top width each is proved to. The caps keep
/// every family's one-shot side under about half a second on a 2-core
/// machine (the next width up costs 2-15x more).
const FAMILIES: [(&str, usize, FamilyBuild); 6] = [
    ("mulcomm", 6, |g, i, w| {
        family::mulcomm_root(g, &i[..w], &i[32..32 + w], w)
    }),
    ("muldist", 4, |g, i, w| {
        family::muldist_root(g, &i[..w], &i[32..32 + w], &i[64..64 + w], w)
    }),
    ("mulinc", 6, |g, i, w| {
        family::mulinc_root(g, &i[..w], &i[32..32 + w], w)
    }),
    ("addassoc", 14, |g, i, w| {
        family::addassoc_root(g, &i[..w], &i[32..32 + w], &i[64..64 + w], w)
    }),
    ("addxor", 16, |g, i, w| {
        family::addxor_root(g, &i[..w], &i[32..32 + w], w)
    }),
    ("incdec", 16, |g, i, w| family::incdec_root(g, &i[..w], w)),
];

/// Family names, for the per-layer metric list.
pub fn family_names() -> [&'static str; 6] {
    FAMILIES.map(|f| f.0)
}

/// Lowest family width.
const FAMILY_MIN_W: usize = 2;

fn gate_designs() -> Vec<Design> {
    all_designs()
        .into_iter()
        .filter(|d| d.gate_spec.is_some())
        .collect()
}

/// Prove calls per repetition: one per registry width, one sweep per
/// design, and two per family width (one-shot and session).
pub fn ops_per_rep() -> usize {
    let registry: usize = gate_designs()
        .iter()
        .map(|d| (d.gate_max_width - d.min_width + 1) as usize + 1)
        .sum();
    let families: usize = FAMILIES.iter().map(|f| 2 * (f.1 - FAMILY_MIN_W + 1)).sum();
    registry + families
}

/// Sums over one repetition, for the per-layer table.
#[derive(Default)]
struct Totals {
    obligation_ms: f64,
    prove_ms: f64,
    sweep_ms: f64,
    widths: u64,
    folded: u64,
    new_clauses: u64,
    reused_clauses: u64,
    families: BTreeMap<&'static str, FamilyTotals>,
}

/// One family's sums over a repetition.
#[derive(Default)]
struct FamilyTotals {
    oneshot_ms: f64,
    session_ms: f64,
    conflicts: u64,
    session_conflicts: u64,
}

/// Proves one family width with a fresh AIG, encoding and solver; returns
/// whether it proved and the solver's conflicts.
fn prove_oneshot(build: FamilyBuild, w: usize) -> (bool, u64) {
    let mut g = Aig::new();
    let inputs: Vec<AigRef> = (0..96).map(|_| g.input()).collect();
    let root = build(&mut g, &inputs, w);
    if root == AIG_TRUE {
        return (true, 0);
    }
    let mut s = Solver::new();
    let enc = tseitin_pg(&g, !root, &mut s);
    s.add_clause(&[enc.lit]);
    (s.solve() == SatResult::Unsat, s.stats().conflicts)
}

pub fn run(rep: &Rep) -> Result<RepOutput, String> {
    // The timed inputs are fixed (the registry and the families, in order);
    // the seed picks the known-bad miter's width.
    let designs = gate_designs();
    let bad_width = 3 + SplitMix64::new(rep.seed).below(4) as usize;
    let opt = OptProfile::from_env();
    let rec = &rep.rec;
    let mut out = RepOutput::default();
    let mut tot = Totals::default();
    let mut op = 0u64;
    let mut next_op = || {
        op += 1;
        op
    };

    // ---- timed region ----
    let t0 = Instant::now();
    out.setup_s = rep.since_spawn();
    let root = rec.span("bench.gates", None, 0);
    for d in &designs {
        let widths: Vec<u64> = (d.min_width..=d.gate_max_width).collect();
        let mut oneshot = Vec::with_capacity(widths.len());
        for &w in &widths {
            let id = next_op();
            let t = Instant::now();
            let ob = {
                let _s = rec.span("conformance.formal_gate_obligation", root.id(), id);
                formal_gate_obligation(d, w)?
                    .ok_or_else(|| format!("{}: no golden model", d.name))?
            };
            tot.obligation_ms += t.elapsed().as_secs_f64() * 1e3;
            let tp = Instant::now();
            let r = {
                let _s = rec.span("lowlevel.prove_net_with", root.id(), id);
                prove_net_with(
                    &ob.netlist,
                    ob.property,
                    Backend::Auto,
                    w as usize,
                    &ob.var_order,
                    opt,
                )
            };
            tot.prove_ms += tp.elapsed().as_secs_f64() * 1e3;
            out.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if !r.is_proved() {
                out.failed
                    .push(format!("{} w={w}: one-shot did not prove: {r:?}", d.name));
            }
            oneshot.push(r);
        }

        let id = next_op();
        let t = Instant::now();
        let mut kit = Netlist::new();
        let mut shared_inputs = BTreeMap::new();
        let mut obs = Vec::with_capacity(widths.len());
        {
            let _s = rec.span("conformance.formal_gate_obligation_shared", root.id(), id);
            for &w in &widths {
                let ob = formal_gate_obligation_shared(d, w, &mut kit, &mut shared_inputs)?
                    .ok_or_else(|| format!("{}: no golden model", d.name))?;
                obs.push((w, ob));
            }
        }
        tot.obligation_ms += t.elapsed().as_secs_f64() * 1e3;
        let items: Vec<SweepItem<'_>> = obs
            .iter()
            .map(|(w, ob)| SweepItem {
                nl: &kit,
                root: ob.property,
                width: *w,
                var_order: ob.var_order.clone(),
            })
            .collect();
        let ts = Instant::now();
        let report = {
            let _s = rec.span("lowlevel.prove_net_sweep_scheduled", root.id(), id);
            prove_net_sweep_scheduled(sweep_pool(), &items, Backend::Auto, opt, false)
        };
        tot.sweep_ms += ts.elapsed().as_secs_f64() * 1e3;
        out.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tot.widths += report.stats.widths;
        tot.folded += report.stats.folded;
        tot.new_clauses += report.stats.new_clauses;
        tot.reused_clauses += report.stats.reused_clauses;
        for (o, one) in report.outcomes.iter().zip(&oneshot) {
            if &o.result != one {
                out.failed.push(format!(
                    "{} w={}: sweep {:?} disagrees with one-shot {one:?}",
                    d.name, o.width, o.result
                ));
            }
        }
    }

    for &(name, max_w, build) in &FAMILIES {
        let mut fam = FamilyTotals::default();
        for w in FAMILY_MIN_W..=max_w {
            let id = next_op();
            let t = Instant::now();
            let (proved, conflicts) = {
                let _s = rec.span("sat.solve_oneshot", root.id(), id);
                prove_oneshot(build, w)
            };
            if !proved {
                out.failed.push(format!(
                    "family {name} w={w}: one-shot found a counterexample"
                ));
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            fam.oneshot_ms += ms;
            fam.conflicts += conflicts;
            out.ops_ms.push(ms);
        }
        let mut session = IncrementalProver::new();
        let inputs: Vec<AigRef> = (0..96).map(|_| session.aig.input()).collect();
        for w in FAMILY_MIN_W..=max_w {
            let id = next_op();
            let t = Instant::now();
            let verdict = {
                let _s = rec.span("sat.prove_root", root.id(), id);
                let r = build(&mut session.aig, &inputs, w);
                session.prove_root(w as u64, r)
            };
            if verdict != SweepVerdict::Proved {
                out.failed.push(format!(
                    "family {name} w={w}: session found a counterexample"
                ));
            }
            let ms = t.elapsed().as_secs_f64() * 1e3;
            fam.session_ms += ms;
            out.ops_ms.push(ms);
        }
        fam.session_conflicts = session.stats.per_width.iter().map(|p| p.conflicts).sum();
        tot.families.insert(name, fam);
    }
    drop(root);
    out.wall_s = t0.elapsed().as_secs_f64();
    // ---- end of timed region ----

    // Known-bad input: a + b == a | b is false at every width; SAT must
    // find a model and concrete evaluation must confirm it falsifies the
    // miter.
    if let Err(e) = known_bad_miter(bad_width) {
        out.bad_undetected.push(e);
    }

    let m = &mut out.layer;
    m.set("conformance.obligation_ms", tot.obligation_ms, "ms");
    m.set("lowlevel.prove_ms", tot.prove_ms, "ms");
    m.set("lowlevel.sweep_ms", tot.sweep_ms, "ms");
    m.set(
        "lowlevel.fold_share",
        tot.folded as f64 / tot.widths.max(1) as f64,
        "share",
    );
    m.set(
        "lowlevel.clause_reuse_share",
        tot.reused_clauses as f64 / (tot.new_clauses + tot.reused_clauses).max(1) as f64,
        "share",
    );
    for (name, fam) in &tot.families {
        m.set(format!("sat.oneshot_ms.{name}"), fam.oneshot_ms, "ms");
        m.set(format!("sat.session_ms.{name}"), fam.session_ms, "ms");
        m.set(
            format!("sat.conflicts.{name}"),
            fam.conflicts as f64,
            "count",
        );
        m.set(
            format!("sat.session_conflicts.{name}"),
            fam.session_conflicts as f64,
            "count",
        );
    }
    let p = sweep_pool().stats();
    m.set("par.executed", p.executed as f64, "count");
    m.set("par.steals", p.steals as f64, "count");
    m.set("par.inflight_dedup", p.dedup_hits as f64, "count");
    out.detail = JsonValue::obj()
        .set(
            "designs",
            JsonValue::Arr(designs.iter().map(|d| JsonValue::str(d.name)).collect()),
        )
        .set(
            "families",
            JsonValue::Arr(
                FAMILIES
                    .iter()
                    .map(|f| JsonValue::str(format!("{}:{FAMILY_MIN_W}..={}", f.0, f.1)))
                    .collect(),
            ),
        )
        .set("known_bad_width", JsonValue::int(bad_width as u64));
    Ok(out)
}

fn known_bad_miter(w: usize) -> Result<(), String> {
    let mut g = Aig::new();
    let a: Vec<AigRef> = (0..w).map(|_| g.input()).collect();
    let b: Vec<AigRef> = (0..w).map(|_| g.input()).collect();
    let sum = family::add_bits(&mut g, &a, &b, w);
    let or: Vec<AigRef> = a.iter().zip(&b).map(|(&x, &y)| g.or(x, y)).collect();
    let root = family::equal_bits(&mut g, &sum, &or);
    if root == AIG_TRUE {
        return Err("a+b == a|b folded to true".into());
    }
    let mut s = Solver::new();
    let enc = tseitin_pg(&g, !root, &mut s);
    s.add_clause(&[enc.lit]);
    let SatResult::Sat(model) = s.solve() else {
        return Err("a+b == a|b was reported equivalent".into());
    };
    // Decode the model onto the AIG inputs and evaluate the miter.
    let value = |node: u32| {
        enc.var_of_node
            .get(&node)
            .is_some_and(|&v| model[v as usize])
    };
    if g.eval(root, &value) {
        return Err("the counterexample for a+b == a|b does not falsify the miter".into());
    }
    Ok(())
}
