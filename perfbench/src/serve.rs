//! `serve`: an in-process `serve::Server` over an empty store, driven as a
//! closed loop by the client threads with a seeded mix of `prove`, `sweep`
//! and `conformance` requests, most of which repeat. The server restarts
//! partway through over the same store.
//!
//! Phases (each a barrier: every client finishes before the next starts):
//! `cold` sends every distinct request once (compute and write), `warm`
//! repeats the `prove` and `conformance` ones (memory), then the server
//! restarts and `restart` sends each of those once more (disk), and a
//! second `warm` phase repeats again. Every answer's `result` bytes must
//! equal that request's first answer.
//!
//! A `sweep` rewrites all its rows on each call, so sweeps are sent only in
//! the cold phase.

use crate::{Rep, RepOutput};
use chicala::conformance::{all_designs, SplitMix64};
use chicala::serve::{CacheHandle, Server, Store};
use chicala::telemetry::JsonValue;
use chicala::trace::json;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Repeats of each `prove` and each `conformance` request in a warm phase.
/// Warm `prove` requests are the majority of the mix, so `op_p50_ms`
/// reads a warm prove and `op_tail_ms` a cold request.
const WARM_PROVES: usize = 10;
const WARM_REPORTS: usize = 2;

/// The request classes, by phase.
const PHASES: [&str; 4] = ["cold", "warm", "restart", "warm"];

/// The distinct requests: for every design with a golden model, a `prove`
/// at its top width and a `sweep` over its two lowest widths; for every
/// design, a small `conformance` soak. Each comes with its repeat count in
/// a warm phase. The requests are fixed, so their cost does not vary with
/// the seed; the seed orders the warm phases.
///
/// Every store write is fsynced, so the mix keeps writes few (narrow
/// sweeps, conformance at widths up to 4) next to the compute of the
/// top-width obligations: a shared disk's latency would otherwise swamp
/// the measurement.
fn distinct_requests() -> Vec<(usize, String)> {
    let mut reqs = Vec::new();
    for d in all_designs() {
        if d.gate_spec.is_some() {
            let w = d.gate_max_width;
            reqs.push((
                WARM_PROVES,
                format!(r#"{{"op":"prove","design":"{}","width":{w}}}"#, d.name),
            ));
            let hi = (d.min_width + 1).min(d.gate_max_width);
            reqs.push((
                0,
                format!(
                    r#"{{"op":"sweep","design":"{}","min_width":{},"max_width":{hi}}}"#,
                    d.name, d.min_width
                ),
            ));
        }
        reqs.push((
            WARM_REPORTS,
            format!(
                r#"{{"op":"conformance","design":"{}","seed":1,"cases":32,"max_width":4,"layers":"cosim,spec"}}"#,
                d.name
            ),
        ));
    }
    reqs
}

/// Requests per repetition.
pub fn ops_per_rep() -> usize {
    let reqs = distinct_requests();
    let repeated = reqs.iter().filter(|r| r.0 > 0).count();
    reqs.len() + repeated + 2 * reqs.iter().map(|r| r.0).sum::<usize>()
}

/// One answered request.
struct Answer {
    req: usize,
    ms: f64,
    ok: bool,
    result: String,
}

/// Sends `schedule` (indices into `reqs`) through `clients` threads pulling
/// from a shared cursor, one span per request under `parent`.
fn closed_loop(
    rep: &Rep,
    server: &Server,
    reqs: &[(usize, String)],
    schedule: &[usize],
    parent: Option<usize>,
    op_base: u64,
) -> Vec<Answer> {
    let cursor = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::with_capacity(schedule.len()));
    std::thread::scope(|s| {
        for _ in 0..rep.workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&req) = schedule.get(i) else { break };
                let t = Instant::now();
                let resp = {
                    let _s = rep
                        .rec
                        .span("serve.handle_line", parent, op_base + i as u64);
                    server.handle_line(&reqs[req].1)
                };
                let ms = t.elapsed().as_secs_f64() * 1e3;
                let parsed = json::parse(&resp).ok();
                let ok = parsed.as_ref().and_then(|v| json::get(v, "ok"))
                    == Some(&JsonValue::Bool(true));
                let result = parsed
                    .as_ref()
                    .and_then(|v| json::get(v, "result"))
                    .map_or_else(|| resp.clone(), |r| r.to_string());
                answers.lock().expect("answers").push(Answer {
                    req,
                    ms,
                    ok,
                    result,
                });
            });
        }
    });
    answers.into_inner().expect("answers")
}

fn stat(v: &JsonValue, path: &[&str]) -> f64 {
    let mut cur = v;
    for k in path {
        match json::get(cur, k) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    json::as_u64(cur).unwrap_or(0) as f64
}

pub fn run(rep: &Rep) -> Result<RepOutput, String> {
    let store_root = crate::out_dir().join(format!("serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_root);
    let open = |root: &Path| Server::new(Some(CacheHandle::new(Arc::new(Store::open(root)))));
    let reqs = distinct_requests();
    let mut rng = SplitMix64::new(rep.seed ^ 0x53_4552_5645);
    // Cold and restart phases send the requests in registry order, so how
    // the two clients share the expensive ones does not depend on the
    // seed; the warm phases are shuffled. Only the cold phase sends sweeps.
    let schedules: Vec<Vec<usize>> = PHASES
        .iter()
        .map(|phase| match *phase {
            "warm" => crate::shuffled(
                reqs.iter()
                    .enumerate()
                    .flat_map(|(i, r)| std::iter::repeat_n(i, r.0))
                    .collect(),
                &mut rng,
            ),
            "restart" => (0..reqs.len()).filter(|&i| reqs[i].0 > 0).collect(),
            _ => (0..reqs.len()).collect(),
        })
        .collect();
    let mut server = open(&store_root);
    let mut out = RepOutput::default();
    let rec = &rep.rec;
    let mut by_class: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut first: Vec<Option<String>> = vec![None; reqs.len()];
    let mut stats = Vec::new();

    // ---- timed region ----
    let t0 = Instant::now();
    out.setup_s = rep.since_spawn();
    let root = rec.span("bench.serve", None, 0);
    let mut op_base = 0u64;
    for (phase, schedule) in PHASES.iter().zip(&schedules) {
        if *phase == "restart" {
            let _s = rec.span("serve.restart", root.id(), op_base);
            stats.push(server.stats_json());
            drop(server);
            server = open(&store_root);
        }
        for a in closed_loop(rep, &server, &reqs, schedule, root.id(), op_base) {
            out.ops_ms.push(a.ms);
            by_class.entry(phase).or_default().push(a.ms);
            if !a.ok {
                out.failed
                    .push(format!("{phase} {}: ok:false: {}", reqs[a.req].1, a.result));
                continue;
            }
            match &first[a.req] {
                None => first[a.req] = Some(a.result),
                Some(want) if *want != a.result => {
                    out.failed.push(format!(
                        "{phase} {}: result bytes differ from the first answer",
                        reqs[a.req].1
                    ));
                }
                Some(_) => {}
            }
        }
        op_base += schedule.len() as u64;
    }
    drop(root);
    out.wall_s = t0.elapsed().as_secs_f64();
    // ---- end of timed region ----
    stats.push(server.stats_json());
    drop(server);
    CacheHandle::uninstall_all();
    let _ = std::fs::remove_dir_all(&store_root);

    let m = &mut out.layer;
    for class in ["cold", "warm", "restart"] {
        let xs = by_class.get(class).cloned().unwrap_or_default();
        m.set(
            format!("serve.{class}_ms"),
            crate::stats::median(&xs).unwrap_or(0.0),
            "ms",
        );
    }
    let sum = |path: &[&str]| stats.iter().map(|s| stat(s, path)).sum::<f64>();
    let (hits, misses) = (sum(&["cache", "hits"]), sum(&["cache", "misses"]));
    m.set("serve.hit_share", hits / (hits + misses).max(1.0), "share");
    m.set(
        "serve.bytes_written",
        sum(&["cache", "bytes_written"]),
        "bytes",
    );
    m.set("serve.bytes_read", sum(&["cache", "bytes_read"]), "bytes");
    let (builds, reuses) = (sum(&["batch", "builds"]), sum(&["batch", "reuses"]));
    m.set(
        "serve.batch_reuse_share",
        reuses / (builds + reuses).max(1.0),
        "share",
    );
    m.set("par.executed", sum(&["pool", "executed"]), "count");
    m.set("par.steals", sum(&["pool", "steals"]), "count");
    m.set(
        "par.inflight_dedup",
        sum(&["pool", "inflight_dedup"]),
        "count",
    );
    out.detail = JsonValue::obj()
        .set(
            "requests",
            JsonValue::Arr(reqs.iter().map(|r| JsonValue::str(&r.1)).collect()),
        )
        .set("warm_proves", JsonValue::int(WARM_PROVES as u64))
        .set("warm_reports", JsonValue::int(WARM_REPORTS as u64))
        .set("clients", JsonValue::int(rep.workers as u64))
        .set("stats", JsonValue::Arr(stats));
    Ok(out)
}
