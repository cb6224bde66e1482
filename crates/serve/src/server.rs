//! The verification server: protocol dispatch, request batching, and
//! keyed job submission.
//!
//! One request is one line of JSON, of at most [`MAX_LINE_BYTES`]; one
//! response is one line of JSON. The response envelope separates the
//! **byte-comparable** `result` (the same request must serialize to the
//! same bytes whether its work was done fresh, shared with a concurrent
//! twin, or served from the persistent store) from `meta`, which carries
//! timing and cache provenance and is allowed to differ between runs.
//!
//! ```text
//! → {"op":"prove","design":"rmul","width":8}
//! ← {"ok":true,"result":{"design":"rmul","width":8,"status":"proved",
//!    "backend":"bdd"},"meta":{"elapsed_us":1234,"batched":false}}
//! ```
//!
//! Batching: a burst of `prove` requests for the same `(design, width)`
//! shares one symbolic unroll. The [`FormalObligation`] is built once, by
//! a [`StealPool`] job keyed by `(design, width)`, so *concurrent* twins,
//! even across connections, attach to the one in-flight build; every later
//! request reuses it from the server memo. The proof itself then runs on
//! the request's own thread: a registry obligation is the constant-true
//! net as built, so it costs nothing next to the unroll.

use crate::handle::{CacheHandle, KIND_REPORT};
use crate::line::{read_request_line, ReadLine, MAX_LINE_BYTES};
use chicala_conformance::{
    formal_gate_obligation, formal_gate_obligation_shared, run_design, Config, Design,
    FormalObligation, Layer, SimBackend,
};
use chicala_lowlevel::{prove_net, prove_net_sweep, Backend, Netlist, ProveResult, SweepItem};
use chicala_par::StealPool;
use chicala_telemetry as telemetry;
use chicala_telemetry::{fnv128, JsonValue};
use chicala_trace::json;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Protocol version reported by `ping` and checked by clients that care.
pub const PROTOCOL_VERSION: u64 = 1;

/// Schema byte prefixed to conformance-report cache keys; bump when the
/// report JSON layout changes so stale entries miss instead of lying.
const REPORT_KEY_SCHEMA: u32 = 1;

fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Bdd => "bdd",
        Backend::Sat => "sat",
        Backend::Auto => "auto",
    }
}

fn parse_backend(s: &str) -> Option<Backend> {
    match s.to_ascii_lowercase().as_str() {
        "bdd" => Some(Backend::Bdd),
        "sat" => Some(Backend::Sat),
        "auto" => Some(Backend::Auto),
        _ => None,
    }
}

/// The op outcome: the byte-comparable result plus meta fields specific
/// to this op (cache provenance, batching).
type OpOutcome = Result<(JsonValue, Vec<(&'static str, JsonValue)>), String>;

/// `(design, width)` → shared obligation: the request-batching memo.
type ObligationMemo = Mutex<HashMap<(&'static str, u64), Arc<FormalObligation>>>;

/// A verification server instance. One per process; share it across
/// connection threads behind an [`Arc`].
pub struct Server {
    pool: StealPool,
    cache: Option<CacheHandle>,
    /// The request-batching memo, filled by the pool job that builds each
    /// entry.
    obligations: Arc<ObligationMemo>,
    requests: AtomicU64,
    errors: AtomicU64,
    batch_builds: AtomicU64,
    batch_reuses: AtomicU64,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
}

impl Server {
    /// A server over `cache` (or uncached when `None`) with a work pool
    /// sized by `CHICALA_WORKERS` (see [`StealPool::with_default_workers`]).
    /// When a cache handle is given, the server files conformance reports
    /// in its store, and the handle is installed into the kernel's VC
    /// cache hook, so reports and VC discharges persist across requests
    /// *and across restarts*.
    pub fn new(cache: Option<CacheHandle>) -> Server {
        if let Some(c) = &cache {
            c.install();
        }
        Server {
            pool: StealPool::with_default_workers(),
            cache,
            obligations: Arc::new(Mutex::new(HashMap::new())),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batch_builds: AtomicU64::new(0),
            batch_reuses: AtomicU64::new(0),
            report_hits: AtomicU64::new(0),
            report_misses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// True once a `shutdown` request has been handled; transport loops
    /// should stop accepting work.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request line, returning one response line (no trailing
    /// newline). Never panics on malformed input — protocol errors come
    /// back as `{"ok":false,"error":...}` envelopes.
    pub fn handle_line(&self, line: &str) -> String {
        let start = Instant::now();
        self.requests.fetch_add(1, Ordering::Relaxed);
        let (id, outcome) = match json::parse(line.trim()) {
            Err(e) => (JsonValue::Null, Err(format!("bad request JSON: {e}"))),
            Ok(req) => {
                let id = json::get(&req, "id").cloned().unwrap_or(JsonValue::Null);
                let op = json::get(&req, "op").and_then(json::as_str).map(str::to_string);
                let outcome = match op.as_deref() {
                    Some(op) => {
                        let _span = telemetry::span!("serve:{op}");
                        self.dispatch(op, &req)
                    }
                    None => Err("request has no `op` string field".to_string()),
                };
                (id, outcome)
            }
        };
        let elapsed_us = start.elapsed().as_micros() as u64;
        telemetry::record("serve.request.us", elapsed_us);
        let mut envelope = JsonValue::obj();
        if id != JsonValue::Null {
            envelope = envelope.set("id", id);
        }
        match outcome {
            Ok((result, meta_extra)) => {
                let mut meta = JsonValue::obj().set("elapsed_us", JsonValue::int(elapsed_us));
                for (k, v) in meta_extra {
                    meta = meta.set(k, v);
                }
                envelope = envelope
                    .set("ok", JsonValue::Bool(true))
                    .set("result", result)
                    .set("meta", meta);
            }
            Err(e) => envelope = self.error_envelope(envelope, e),
        }
        envelope.to_string()
    }

    /// Serves a line-delimited stream: reads requests from `input` and
    /// writes one response line per request to `output`, flushing each,
    /// until end of input, an I/O error, or a `shutdown` request. Blank
    /// lines are skipped. A line longer than [`MAX_LINE_BYTES`] is dropped
    /// as it is read, never buffered whole; it and a line that is not
    /// UTF-8 are answered with an error envelope, counted in `errors`,
    /// and the stream keeps serving.
    pub fn serve_lines(&self, mut input: impl BufRead, mut output: impl Write) {
        let mut line = Vec::new();
        loop {
            let resp = match read_request_line(&mut input, &mut line) {
                Ok(ReadLine::Eof) | Err(_) => return,
                Ok(ReadLine::TooLong) => {
                    self.reject(format!("request line longer than {MAX_LINE_BYTES} bytes"))
                }
                Ok(ReadLine::Line) => match std::str::from_utf8(&line) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => self.handle_line(text),
                    Err(_) => self.reject("request line is not UTF-8".to_string()),
                },
            };
            if writeln!(output, "{resp}").is_err() || output.flush().is_err() {
                return;
            }
            if self.shutdown_requested() {
                return;
            }
        }
    }

    /// The response to a line that could not be read as a request,
    /// counted like any failed request.
    fn reject(&self, error: String) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.error_envelope(JsonValue::obj(), error).to_string()
    }

    /// `envelope` completed as a failure carrying `error`, counted in
    /// `errors`.
    fn error_envelope(&self, envelope: JsonValue, error: String) -> JsonValue {
        self.errors.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("serve.errors", 1);
        envelope.set("ok", JsonValue::Bool(false)).set("error", JsonValue::str(error))
    }

    fn dispatch(&self, op: &str, req: &JsonValue) -> OpOutcome {
        telemetry::counter(&format!("serve.op.{op}"), 1);
        match op {
            "ping" => Ok((
                JsonValue::obj()
                    .set("pong", JsonValue::Bool(true))
                    .set("version", JsonValue::int(PROTOCOL_VERSION)),
                vec![],
            )),
            "list" => Ok((self.list_designs(), vec![])),
            "prove" => self.op_prove(req),
            "sweep" => self.op_sweep(req),
            "vc" => self.op_vc(req),
            "conformance" => self.op_conformance(req),
            "stats" => Ok((self.stats_json(), vec![])),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok((JsonValue::obj().set("stopping", JsonValue::Bool(true)), vec![]))
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }

    fn list_designs(&self) -> JsonValue {
        let specs: std::collections::BTreeSet<&str> = chicala_designs::verified_designs()
            .into_iter()
            .filter(|d| d.spec.is_some())
            .map(|d| d.name)
            .collect();
        let rows = chicala_conformance::all_designs()
            .into_iter()
            .map(|d| {
                JsonValue::obj()
                    .set("name", JsonValue::str(d.name))
                    .set("min_width", JsonValue::int(d.min_width))
                    .set("gate_max_width", JsonValue::int(d.gate_max_width))
                    .set("has_golden", JsonValue::Bool(d.gate_spec.is_some()))
                    .set("has_spec", JsonValue::Bool(specs.contains(d.name)))
            })
            .collect();
        JsonValue::obj().set("designs", JsonValue::Arr(rows))
    }

    /// The `(design, width)` obligation memo: returns the shared
    /// obligation and whether this request reused a batch-mate's build.
    ///
    /// On a miss the build is submitted to the pool at `priority`, keyed by
    /// `(design, width)`, so a concurrent twin attaches to the in-flight
    /// unroll instead of starting its own. The job fills the memo before
    /// the pool retires its key, and this lookup and the submission happen
    /// under the memo lock, so each obligation is built once.
    fn obligation(
        &self,
        d: Design,
        width: u64,
        priority: i32,
    ) -> Result<(Arc<FormalObligation>, bool), String> {
        // Set by the build job when it runs; an attached twin's job never
        // does. `join` takes the result slot's mutex, which orders the
        // job's store before the load below.
        let ran = Arc::new(AtomicBool::new(false));
        let memo = self.obligations.lock().expect("obligation memo");
        let ob = match memo.get(&(d.name, width)).cloned() {
            Some(ob) => {
                drop(memo);
                ob
            }
            None => {
                let (obligations, ran) = (Arc::clone(&self.obligations), Arc::clone(&ran));
                let key = fnv128(format!("obligation:{}:{width}", d.name).as_bytes());
                let job = self.pool.submit_keyed(priority, key, move || -> Result<_, String> {
                    ran.store(true, Ordering::Relaxed);
                    let _span = telemetry::span!("serve:lower:{}:{width}", d.name);
                    let ob = formal_gate_obligation(&d, width)?.ok_or_else(|| {
                        format!("design `{}` has no gate-level golden model", d.name)
                    })?;
                    let ob = Arc::new(ob);
                    let mut memo = obligations.lock().expect("obligation memo");
                    memo.insert((d.name, width), Arc::clone(&ob));
                    Ok(ob)
                });
                drop(memo);
                job.join()?
            }
        };
        let built = ran.load(Ordering::Relaxed);
        let (count, name) = if built {
            (&self.batch_builds, "serve.batch.build")
        } else {
            (&self.batch_reuses, "serve.batch.reuse")
        };
        count.fetch_add(1, Ordering::Relaxed);
        telemetry::counter(name, 1);
        Ok((ob, !built))
    }

    fn op_prove(&self, req: &JsonValue) -> OpOutcome {
        let design = json::get(req, "design")
            .and_then(json::as_str)
            .ok_or("prove: missing `design`")?;
        let width = json::get(req, "width")
            .and_then(json::as_u64)
            .ok_or("prove: missing `width`")?;
        let d = Design::by_name(design).ok_or_else(|| format!("unknown design `{design}`"))?;
        if width < d.min_width {
            return Err(format!(
                "width {width} below `{design}` minimum {}",
                d.min_width
            ));
        }
        if width > d.gate_max_width {
            return Err(format!(
                "width {width} above `{design}` gate ceiling {}",
                d.gate_max_width
            ));
        }
        let backend = match json::get(req, "backend").and_then(json::as_str) {
            Some(s) => parse_backend(s).ok_or_else(|| format!("unknown backend `{s}`"))?,
            None => Backend::Auto,
        };
        let (ob, batched) = self.obligation(d, width, request_priority(req))?;
        let result = prove_net(&ob.netlist, ob.property, backend, width as usize, &ob.var_order);
        let result = prove_result_json(d.name, width, &result);
        Ok((result, vec![("batched", JsonValue::Bool(batched))]))
    }

    /// The `sweep` op: proves a design's whole width family through one
    /// incremental SAT session ([`prove_net_sweep`]). Per-width result
    /// rows are byte-identical to the `prove` op for the same width.
    /// Session statistics are deterministic too, but they say how the rows
    /// were reached, not what they are, so they live in `meta`.
    fn op_sweep(&self, req: &JsonValue) -> OpOutcome {
        let design = json::get(req, "design")
            .and_then(json::as_str)
            .ok_or("sweep: missing `design`")?;
        let d = Design::by_name(design).ok_or_else(|| format!("unknown design `{design}`"))?;
        if d.gate_spec.is_none() {
            return Err(format!("design `{design}` has no gate-level golden model"));
        }
        let lo = json::get(req, "min_width").and_then(json::as_u64).unwrap_or(d.min_width);
        let hi = json::get(req, "max_width").and_then(json::as_u64).unwrap_or(d.gate_max_width);
        if lo < d.min_width || hi > d.gate_max_width || lo > hi {
            return Err(format!(
                "sweep range {lo}..={hi} outside `{design}` family {}..={}",
                d.min_width, d.gate_max_width
            ));
        }
        let backend = match json::get(req, "backend").and_then(json::as_str) {
            Some(s) => parse_backend(s).ok_or_else(|| format!("unknown backend `{s}`"))?,
            None => Backend::Auto,
        };
        let verify_ab = json::get(req, "verify_ab") == Some(&JsonValue::Bool(true));
        // One hash-consed kit for the whole family: the session reuses
        // every width-independent sub-structure.
        let mut kit = Netlist::new();
        let mut shared_inputs = std::collections::BTreeMap::new();
        let mut obs = Vec::new();
        for w in lo..=hi {
            let ob = formal_gate_obligation_shared(&d, w, &mut kit, &mut shared_inputs)?
                .ok_or_else(|| format!("design `{design}` has no gate-level golden model"))?;
            obs.push((w, ob));
        }
        let items: Vec<SweepItem<'_>> = obs
            .iter()
            .map(|(w, ob)| SweepItem {
                nl: &kit,
                root: ob.property,
                width: *w,
                var_order: ob.var_order.clone(),
            })
            .collect();
        let report = prove_net_sweep(&items, backend, verify_ab);
        let mut rows = Vec::with_capacity(report.outcomes.len());
        let mut all_proved = true;
        for o in &report.outcomes {
            // Byte-identity with the `prove` op: proved rows carry only
            // the resolved backend tag (same bytes by construction); a
            // counterexample is re-derived on the per-width obligation so
            // its net numbering matches what `prove` would report.
            let result = if o.result.is_proved() {
                o.result.clone()
            } else {
                all_proved = false;
                let (ob, _) = self.obligation(d, o.width, request_priority(req))?;
                prove_net(&ob.netlist, ob.property, backend, o.width as usize, &ob.var_order)
            };
            rows.push(prove_result_json(design, o.width, &result));
        }
        let s = &report.stats;
        let sweep_meta = JsonValue::obj()
            .set("widths", JsonValue::int(s.widths))
            .set("folded", JsonValue::int(s.folded))
            .set("sat_calls", JsonValue::int(s.sat_calls))
            .set("new_clauses", JsonValue::int(s.new_clauses))
            .set("reused_clauses", JsonValue::int(s.reused_clauses))
            .set("lemmas", JsonValue::int(s.lemmas))
            .set("divergences", JsonValue::int(s.divergences));
        let result = JsonValue::obj()
            .set("design", JsonValue::str(design))
            .set("min_width", JsonValue::int(lo))
            .set("max_width", JsonValue::int(hi))
            .set("all_proved", JsonValue::Bool(all_proved))
            .set("results", JsonValue::Arr(rows));
        Ok((result, vec![("sweep", sweep_meta), ("verify_ab", JsonValue::Bool(verify_ab))]))
    }

    fn op_vc(&self, req: &JsonValue) -> OpOutcome {
        let design = json::get(req, "design")
            .and_then(json::as_str)
            .ok_or("vc: missing `design`")?
            .to_string();
        let vd = chicala_designs::verified_designs()
            .into_iter()
            .find(|d| d.name == design)
            .ok_or_else(|| format!("unknown design `{design}`"))?;
        let spec = vd.spec.ok_or_else(|| format!("design `{design}` has no DesignSpec"))?;
        // Full design verification is minutes-scale with no bound (some
        // VCs exhaust the automatic core's budget), so the service
        // discharges per-VC under a wall-clock deadline and reports every
        // outcome instead of failing the request at the first hard VC.
        let deadline_ms =
            json::get(req, "deadline_ms").and_then(json::as_u64).unwrap_or(10_000);
        let priority = request_priority(req);
        // Identical concurrent requests coalesce on (design, deadline):
        // the spec and module are compiled in, so that pair determines
        // the work.
        let key = fnv128(format!("vc-job:{design}:{deadline_ms}").as_bytes());
        let handle = self.pool.submit_keyed(priority, key, move || -> Result<JsonValue, String> {
            let module = (vd.module)();
            let out = chicala_core::transform(&module).map_err(|e| e.to_string())?;
            let mut env = chicala_verify::Env::new();
            chicala_bvlib::install_bitvec(&mut env)
                .map_err(|(n, e)| format!("lemma {n}: {e}"))?;
            let spec = spec();
            chicala_verify::prepare_env(&mut env, &spec).map_err(|e| e.to_string())?;
            let vcs = chicala_verify::generate_vcs(&out.program, &spec, &out.obligations)
                .map_err(|e| e.to_string())?;
            let mut proved = Vec::new();
            let mut unproved = Vec::new();
            let mut scripted = 0u64;
            for vc in &vcs {
                let proof =
                    spec.proofs.get(&vc.name).cloned().unwrap_or(chicala_verify::Proof::Auto);
                if spec.proofs.contains_key(&vc.name) {
                    scripted += 1;
                }
                env.limits.deadline = Some(
                    std::time::Instant::now() + std::time::Duration::from_millis(deadline_ms),
                );
                match chicala_verify::discharge_vc(&env, vc, &proof) {
                    Ok(()) => proved.push(JsonValue::str(vc.name.clone())),
                    Err(_) => unproved.push(JsonValue::str(vc.name.clone())),
                }
            }
            Ok(JsonValue::obj()
                .set("design", JsonValue::str(design.clone()))
                .set("total", JsonValue::int(vcs.len() as u64))
                .set("proved", JsonValue::int(proved.len() as u64))
                .set("scripted", JsonValue::int(scripted))
                .set("proved_names", JsonValue::Arr(proved))
                .set("unproved_names", JsonValue::Arr(unproved)))
        });
        let result = handle.join()?;
        Ok((result, vec![("deadline_ms", JsonValue::int(deadline_ms))]))
    }

    fn op_conformance(&self, req: &JsonValue) -> OpOutcome {
        let design = json::get(req, "design")
            .and_then(json::as_str)
            .ok_or("conformance: missing `design`")?
            .to_string();
        let d = Design::by_name(&design).ok_or_else(|| format!("unknown design `{design}`"))?;
        let mut cfg = Config {
            seed: json::get(req, "seed").and_then(json::as_u64).unwrap_or(1),
            ..Config::default()
        };
        if let Some(cases) = json::get(req, "cases").and_then(json::as_u64) {
            cfg.cases = cases as usize;
        }
        if let Some(mw) = json::get(req, "max_width").and_then(json::as_u64) {
            cfg.max_width = mw;
        }
        if let Some(layers) = json::get(req, "layers").and_then(json::as_str) {
            cfg.layers = layers
                .split(',')
                .map(|s| Layer::parse(s.trim()).ok_or_else(|| format!("unknown layer `{s}`")))
                .collect::<Result<Vec<_>, _>>()?;
        }
        if let Some(b) = json::get(req, "backend").and_then(json::as_str) {
            cfg.backend =
                SimBackend::parse(b).ok_or_else(|| format!("unknown sim backend `{b}`"))?;
        }
        let priority = request_priority(req);

        // Conformance runs are deterministic in their config, so whole
        // reports are content-addressable: key = canonical config
        // transcript, payload = the byte-comparable result JSON.
        let key = report_key(&design, &cfg);
        if let Some(cache) = &self.cache {
            if let Some(payload) = cache.store().lookup(KIND_REPORT, &key) {
                if let Ok(text) = String::from_utf8(payload) {
                    if let Ok(result) = json::parse(&text) {
                        self.report_hits.fetch_add(1, Ordering::Relaxed);
                        telemetry::counter("serve.report.hit", 1);
                        return Ok((result, vec![("cache", JsonValue::str("hit"))]));
                    }
                }
                // Undecodable payloads were already evicted by the store
                // or fail here; fall through and re-run.
            }
        }
        self.report_misses.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("serve.report.miss", 1);

        let handle = self.pool.submit_keyed(priority, fnv128(&key), move || {
            let report = run_design(&d, &cfg);
            report_json(&design, &report)
        });
        let result = handle.join();
        if let Some(cache) = &self.cache {
            cache.store().store(KIND_REPORT, &key, result.to_string().as_bytes());
        }
        Ok((result, vec![("cache", JsonValue::str("miss"))]))
    }

    /// The live `stats` payload: scheduler, store, batching, and
    /// telemetry counters in one object. Not byte-comparable (it reports
    /// wall-clock state) — clients treat it as diagnostics.
    pub fn stats_json(&self) -> JsonValue {
        let p = self.pool.stats();
        let pool = JsonValue::obj()
            .set("workers", JsonValue::int(p.workers))
            .set("submitted", JsonValue::int(p.submitted))
            .set("executed", JsonValue::int(p.executed))
            .set("inflight_dedup", JsonValue::int(p.dedup_hits))
            .set("steals", JsonValue::int(p.steals));
        let server = JsonValue::obj()
            .set("requests", JsonValue::int(self.requests.load(Ordering::Relaxed)))
            .set("errors", JsonValue::int(self.errors.load(Ordering::Relaxed)))
            .set("uptime_ms", JsonValue::int(self.started.elapsed().as_millis() as u64));
        let batch = JsonValue::obj()
            .set("builds", JsonValue::int(self.batch_builds.load(Ordering::Relaxed)))
            .set("reuses", JsonValue::int(self.batch_reuses.load(Ordering::Relaxed)))
            .set("entries", JsonValue::int(self.obligations.lock().unwrap().len() as u64));
        let reports = JsonValue::obj()
            .set("hits", JsonValue::int(self.report_hits.load(Ordering::Relaxed)))
            .set("misses", JsonValue::int(self.report_misses.load(Ordering::Relaxed)));
        let cache = match &self.cache {
            Some(c) => {
                let s = c.stats();
                let (entries, bytes) = c.store().disk_usage();
                JsonValue::obj()
                    .set("root", JsonValue::str(c.store().root().display().to_string()))
                    .set("hits", JsonValue::int(s.hits))
                    .set("misses", JsonValue::int(s.misses))
                    .set("evictions", JsonValue::int(s.evictions))
                    .set("size_evictions", JsonValue::int(s.size_evictions))
                    .set("writes", JsonValue::int(s.writes))
                    .set("bytes_read", JsonValue::int(s.bytes_read))
                    .set("bytes_written", JsonValue::int(s.bytes_written))
                    .set("disk_entries", JsonValue::int(entries))
                    .set("disk_bytes", JsonValue::int(bytes))
            }
            None => JsonValue::Null,
        };
        let snap = telemetry::snapshot();
        let mut counters = JsonValue::obj();
        for (name, v) in &snap.counters {
            counters = counters.set(name, JsonValue::int(*v));
        }
        let mut hists = JsonValue::obj();
        for (name, h) in snap.hist_summaries() {
            hists = hists.set(
                &name,
                JsonValue::obj()
                    .set("count", JsonValue::int(h.count as u64))
                    .set("min", JsonValue::int(h.min))
                    .set("max", JsonValue::int(h.max))
                    .set("mean", JsonValue::Num(h.mean)),
            );
        }
        JsonValue::obj()
            .set("pool", pool)
            .set("server", server)
            .set("batch", batch)
            .set("reports", reports)
            .set("cache", cache)
            .set("telemetry", JsonValue::obj().set("counters", counters).set("hists", hists))
    }
}

fn request_priority(req: &JsonValue) -> i32 {
    json::get(req, "priority")
        .and_then(json::as_u64)
        .map(|p| p.min(i32::MAX as u64) as i32)
        .unwrap_or(0)
}

/// The byte-comparable `prove` result: identical whether the request built
/// its obligation or reused a batch-mate's.
fn prove_result_json(design: &str, width: u64, r: &ProveResult) -> JsonValue {
    let base = JsonValue::obj()
        .set("design", JsonValue::str(design))
        .set("width", JsonValue::int(width));
    match r {
        ProveResult::Proved { backend } => base
            .set("status", JsonValue::str("proved"))
            .set("backend", JsonValue::str(backend_name(*backend))),
        ProveResult::Counterexample { backend, inputs } => {
            let assignment = inputs
                .iter()
                .map(|(net, v)| {
                    JsonValue::obj()
                        .set("net", JsonValue::int(net.0 as u64))
                        .set("value", JsonValue::Bool(*v))
                })
                .collect();
            base.set("status", JsonValue::str("counterexample"))
                .set("backend", JsonValue::str(backend_name(*backend)))
                .set("assignment", JsonValue::Arr(assignment))
        }
    }
}

/// Canonical conformance-report cache key: every [`Config`] field that
/// affects the result, in fixed order.
fn report_key(design: &str, cfg: &Config) -> Vec<u8> {
    let mut key = Vec::new();
    key.extend_from_slice(b"chicala-report");
    key.extend_from_slice(&REPORT_KEY_SCHEMA.to_le_bytes());
    key.extend_from_slice(&(design.len() as u32).to_le_bytes());
    key.extend_from_slice(design.as_bytes());
    key.extend_from_slice(&cfg.seed.to_le_bytes());
    key.extend_from_slice(&(cfg.cases as u64).to_le_bytes());
    key.extend_from_slice(&cfg.max_width.to_le_bytes());
    key.push(cfg.layers.len() as u8);
    for l in &cfg.layers {
        key.extend_from_slice(l.name().as_bytes());
        key.push(b';');
    }
    key.push(cfg.stop_at_first as u8);
    key.extend_from_slice(cfg.backend.name().as_bytes());
    key
}

/// The byte-comparable `conformance` result. Timing lives in `meta`, so
/// per-layer rows carry only the deterministic coverage fields.
fn report_json(design: &str, report: &chicala_conformance::Report) -> JsonValue {
    let mut layers = JsonValue::obj();
    for ((_, layer), st) in &report.stats {
        layers = layers.set(
            layer.name(),
            JsonValue::obj()
                .set("cases", JsonValue::int(st.cases as u64))
                .set("skipped", JsonValue::int(st.skipped as u64))
                .set("min_width", JsonValue::int(st.min_width))
                .set("max_width", JsonValue::int(st.max_width))
                .set("cycles", JsonValue::int(st.cycles))
                .set("width_cap", JsonValue::int(st.width_cap)),
        );
    }
    let failures = report
        .failures
        .iter()
        .map(|f| {
            JsonValue::obj()
                .set("layer", JsonValue::str(f.layer.name()))
                .set("case_seed", JsonValue::int(f.case_seed))
                .set("message", JsonValue::str(f.message.clone()))
        })
        .collect();
    JsonValue::obj()
        .set("design", JsonValue::str(design))
        .set("ok", JsonValue::Bool(report.ok()))
        .set("layers", layers)
        .set("failures", JsonValue::Arr(failures))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uncached() -> Server {
        Server::new(None)
    }

    fn ok_result(server: &Server, line: &str) -> JsonValue {
        let resp = server.handle_line(line);
        let v = json::parse(&resp).expect("response parses");
        assert_eq!(
            json::get(&v, "ok"),
            Some(&JsonValue::Bool(true)),
            "expected ok response, got: {resp}"
        );
        json::get(&v, "result").cloned().expect("ok response has result")
    }

    #[test]
    fn ping_and_list() {
        let s = uncached();
        let pong = ok_result(&s, r#"{"op":"ping"}"#);
        assert_eq!(json::get(&pong, "pong"), Some(&JsonValue::Bool(true)));
        let list = ok_result(&s, r#"{"op":"list"}"#);
        let JsonValue::Arr(designs) = json::get(&list, "designs").unwrap() else {
            panic!("designs is an array")
        };
        assert_eq!(designs.len(), chicala_conformance::all_designs().len());
    }

    #[test]
    fn malformed_requests_fail_cleanly() {
        let s = uncached();
        for line in [
            "not json",
            r#"{"no_op":1}"#,
            r#"{"op":"nope"}"#,
            r#"{"op":"prove"}"#,
            r#"{"op":"prove","design":"rotate","width":1}"#,
            r#"{"op":"prove","design":"rotate","width":9999}"#,
            r#"{"op":"prove","design":"no-such","width":8}"#,
            r#"{"op":"vc","design":"popcount"}"#,
        ] {
            let v = json::parse(&s.handle_line(line)).expect("error response parses");
            assert_eq!(json::get(&v, "ok"), Some(&JsonValue::Bool(false)), "line: {line}");
            assert!(json::get(&v, "error").is_some(), "line: {line}");
        }
        // Errors are counted, and the server stays up.
        let stats = ok_result(&s, r#"{"op":"stats"}"#);
        let errors = json::get(json::get(&stats, "server").unwrap(), "errors").unwrap();
        assert_eq!(json::as_u64(errors), Some(8));
    }

    #[test]
    fn oversize_and_non_utf8_lines_are_rejected_and_the_stream_keeps_serving() {
        let s = uncached();
        let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
        input.extend_from_slice(b"\n\xff\xfe\n\n");
        // Nested far past the parser's depth bound, yet well under the cap.
        input.extend(std::iter::repeat_n(b'[', 100_000));
        input.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        let mut output = Vec::new();
        s.serve_lines(std::io::Cursor::new(input), &mut output);
        let text = String::from_utf8(output).expect("responses are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per non-blank line: {text}");
        for (line, want) in lines[..3].iter().zip(["longer than", "not UTF-8", "nested deeper"]) {
            let v = json::parse(line).expect("error response parses");
            assert_eq!(json::get(&v, "ok"), Some(&JsonValue::Bool(false)), "{line}");
            let error = json::get(&v, "error").and_then(json::as_str).expect("error string");
            assert!(error.contains(want), "{line}");
        }
        let pong = json::parse(lines[3]).expect("ping response parses");
        assert_eq!(json::get(&pong, "ok"), Some(&JsonValue::Bool(true)), "{}", lines[3]);
        let stats = ok_result(&s, r#"{"op":"stats"}"#);
        let server = json::get(&stats, "server").unwrap();
        assert_eq!(json::get(server, "errors").and_then(json::as_u64), Some(3));
    }

    #[test]
    fn prove_batches_and_dedups() {
        let s = uncached();
        let r1 = ok_result(&s, r#"{"op":"prove","design":"rotate","width":5}"#);
        assert_eq!(json::get(&r1, "status"), Some(&JsonValue::str("proved")));
        let r2 = ok_result(&s, r#"{"op":"prove","design":"rotate","width":5}"#);
        // Byte-identical results between the building and the batched request.
        assert_eq!(r1.to_string(), r2.to_string());
        let stats = ok_result(&s, r#"{"op":"stats"}"#);
        let batch = json::get(&stats, "batch").unwrap();
        assert_eq!(json::get(batch, "builds").and_then(json::as_u64), Some(1));
        assert_eq!(json::get(batch, "reuses").and_then(json::as_u64), Some(1));
    }

    #[test]
    fn deduped_twins_name_their_own_design() {
        let s = Arc::new(uncached());
        // Park every worker, so each request below finds its batch-mate's
        // build still in flight and attaches to it.
        let gate = Arc::new(std::sync::RwLock::new(()));
        let held = gate.write().unwrap();
        let parked = Arc::new(AtomicU64::new(0));
        let workers = s.pool.workers();
        let blockers: Vec<_> = (0..workers)
            .map(|_| {
                let (gate, parked) = (Arc::clone(&gate), Arc::clone(&parked));
                s.pool.submit(i32::MAX, move || {
                    parked.fetch_add(1, Ordering::SeqCst);
                    drop(gate.read());
                })
            })
            .collect();
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let deadline = Instant::now() + std::time::Duration::from_secs(60);
            while !done() {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        wait_for("parked workers", &|| parked.load(Ordering::SeqCst) == workers as u64);
        // rdiv and xdiv at width 32 build identical obligations, but each
        // design has its own memo entry, so its own build.
        let designs = ["rdiv", "xdiv", "rdiv", "xdiv", "xdiv", "rdiv"];
        let clients: Vec<_> = designs
            .iter()
            .map(|&name| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    ok_result(&s, &format!(r#"{{"op":"prove","design":"{name}","width":32}}"#))
                })
            })
            .collect();
        wait_for("attached twins", &|| s.pool.stats().dedup_hits == 4);
        drop(held);
        for b in blockers {
            b.join();
        }
        for (&name, client) in designs.iter().zip(clients) {
            let r = client.join().expect("client thread");
            assert_eq!(json::get(&r, "design"), Some(&JsonValue::str(name)), "{r}");
            assert_eq!(json::get(&r, "status"), Some(&JsonValue::str("proved")), "{r}");
        }
        let stats = ok_result(&s, r#"{"op":"stats"}"#);
        let batch = json::get(&stats, "batch").unwrap();
        assert_eq!(json::get(batch, "builds").and_then(json::as_u64), Some(2), "{stats}");
        assert_eq!(json::get(batch, "reuses").and_then(json::as_u64), Some(4), "{stats}");
        let pool = json::get(&stats, "pool").unwrap();
        assert_eq!(json::get(pool, "inflight_dedup").and_then(json::as_u64), Some(4), "{stats}");
    }

    #[test]
    fn sweep_rows_match_prove_op_per_width() {
        let s = uncached();
        let sweep = ok_result(&s, r#"{"op":"sweep","design":"rotate","min_width":2,"max_width":9}"#);
        assert_eq!(json::get(&sweep, "all_proved"), Some(&JsonValue::Bool(true)));
        let JsonValue::Arr(rows) = json::get(&sweep, "results").unwrap() else {
            panic!("results is an array")
        };
        assert_eq!(rows.len(), 8);
        for (i, row) in rows.iter().enumerate() {
            let width = 2 + i as u64;
            let prove = ok_result(
                &s,
                &format!(r#"{{"op":"prove","design":"rotate","width":{width}}}"#),
            );
            assert_eq!(
                row.to_string(),
                prove.to_string(),
                "sweep row and prove result must be byte-identical at width {width}"
            );
        }
    }

    #[test]
    fn sweep_verify_ab_reports_zero_divergences() {
        let s = uncached();
        let resp = s.handle_line(
            r#"{"op":"sweep","design":"rotate","min_width":2,"max_width":8,"verify_ab":true}"#,
        );
        let v = json::parse(&resp).unwrap();
        assert_eq!(json::get(&v, "ok"), Some(&JsonValue::Bool(true)), "resp: {resp}");
        let meta = json::get(&v, "meta").unwrap();
        let sweep = json::get(meta, "sweep").unwrap();
        assert_eq!(
            json::get(sweep, "divergences").and_then(json::as_u64),
            Some(0),
            "A/B tripwire must be quiet on a sound session"
        );
    }

    #[test]
    fn sweep_rejects_bad_ranges() {
        let s = uncached();
        for line in [
            r#"{"op":"sweep","design":"no-such"}"#,
            r#"{"op":"sweep","design":"rotate","min_width":1,"max_width":8}"#,
            r#"{"op":"sweep","design":"rotate","min_width":8,"max_width":4}"#,
            r#"{"op":"sweep","design":"rotate","max_width":9999}"#,
        ] {
            let v = json::parse(&s.handle_line(line)).unwrap();
            assert_eq!(json::get(&v, "ok"), Some(&JsonValue::Bool(false)), "line: {line}");
        }
    }

    #[test]
    fn id_is_echoed() {
        let s = uncached();
        let resp = s.handle_line(r#"{"op":"ping","id":"req-7"}"#);
        let v = json::parse(&resp).unwrap();
        assert_eq!(json::get(&v, "id"), Some(&JsonValue::str("req-7")));
    }

    #[test]
    fn shutdown_flags_the_server() {
        let s = uncached();
        assert!(!s.shutdown_requested());
        ok_result(&s, r#"{"op":"shutdown"}"#);
        assert!(s.shutdown_requested());
    }

    #[test]
    fn conformance_smoke() {
        let s = uncached();
        let r = ok_result(
            &s,
            r#"{"op":"conformance","design":"rotate","seed":3,"cases":4,"max_width":8,"layers":"cosim,spec"}"#,
        );
        assert_eq!(json::get(&r, "ok"), Some(&JsonValue::Bool(true)));
        let layers = json::get(&r, "layers").unwrap();
        assert!(json::get(layers, "cosim").is_some());
        assert!(json::get(layers, "gates").is_none());
    }
}
