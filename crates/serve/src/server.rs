//! The verification server: protocol dispatch, request batching, and
//! keyed job submission.
//!
//! One request is one line of JSON; one response is one line of JSON.
//! The response envelope separates the **byte-comparable** `result` (the
//! same obligation must serialize to the same bytes whether it was
//! freshly proved, deduplicated onto a concurrent twin, or served from
//! the persistent store) from `meta`, which carries timing and cache
//! provenance and is allowed to differ between runs.
//!
//! ```text
//! → {"op":"prove","design":"rmul","width":8}
//! ← {"ok":true,"result":{"design":"rmul","width":8,"status":"proved",
//!    "backend":"bdd"},"meta":{"elapsed_us":1234,"batched":false}}
//! ```
//!
//! Batching: a burst of `prove` requests for the same `(design, width)`
//! shares one symbolic unroll — the first request builds the
//! [`FormalObligation`] (the expensive lowering/strash pass) and every
//! later request reuses it from the server memo. In-flight deduplication
//! happens one level down: jobs are submitted to the [`StealPool`] keyed
//! by the canonical obligation digest, so identical *concurrent* proofs
//! coalesce onto one execution even across connections.

use crate::handle::{CacheHandle, KIND_PROVE, KIND_REPORT};
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

/// A verification server instance. One per process; share it across
/// connection threads behind an [`Arc`].
pub struct Server {
    pool: StealPool,
    cache: Option<CacheHandle>,
    /// `(design, width)` → shared obligation: the request-batching memo.
    obligations: Mutex<HashMap<(String, u64), Arc<FormalObligation>>>,
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
    /// When a cache handle is given it is installed into every
    /// producer-crate hook, so proofs and VC discharges persist across
    /// requests *and across restarts*.
    pub fn new(cache: Option<CacheHandle>) -> Server {
        if let Some(c) = &cache {
            c.install();
        }
        Server {
            pool: StealPool::with_default_workers(),
            cache,
            obligations: Mutex::new(HashMap::new()),
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

    /// The cache handle, when caching is on.
    pub fn cache(&self) -> Option<&CacheHandle> {
        self.cache.as_ref()
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
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                telemetry::counter("serve.errors", 1);
                envelope = envelope.set("ok", JsonValue::Bool(false)).set("error", JsonValue::str(e));
            }
        }
        envelope.to_string()
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
    fn obligation(&self, d: &Design, width: u64) -> Result<(Arc<FormalObligation>, bool), String> {
        let memo_key = (d.name.to_string(), width);
        if let Some(ob) = self.obligations.lock().unwrap().get(&memo_key) {
            self.batch_reuses.fetch_add(1, Ordering::Relaxed);
            telemetry::counter("serve.batch.reuse", 1);
            return Ok((Arc::clone(ob), true));
        }
        // Build outside the lock: a slow unroll must not serialize
        // requests for *other* designs. A racing twin may build the same
        // obligation; the insert below keeps whichever landed first.
        let _span = telemetry::span!("serve:lower:{}:{width}", d.name);
        let built = formal_gate_obligation(d, width)?
            .ok_or_else(|| format!("design `{}` has no gate-level golden model", d.name))?;
        let ob = Arc::new(built);
        let mut memo = self.obligations.lock().unwrap();
        let entry = memo.entry(memo_key).or_insert_with(|| Arc::clone(&ob));
        self.batch_builds.fetch_add(1, Ordering::Relaxed);
        telemetry::counter("serve.batch.build", 1);
        Ok((Arc::clone(entry), false))
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
        let priority = request_priority(req);
        let (ob, batched) = self.obligation(&d, width)?;
        // Identical concurrent proofs coalesce on the obligation's digest.
        // Two designs can share one (the transcript names no design), so
        // the job returns the bare verdict and each request labels it.
        let dedup = fnv128(&chicala_lowlevel::cache::prove_key(
            &ob.netlist,
            ob.property,
            backend,
            width as usize,
            &ob.var_order,
        ));
        let job_ob = Arc::clone(&ob);
        let handle = self.pool.submit_keyed(priority, dedup, move || {
            prove_net(
                &job_ob.netlist,
                job_ob.property,
                backend,
                width as usize,
                &job_ob.var_order,
            )
        });
        let result = prove_result_json(d.name, width, &handle.join());
        Ok((result, vec![("batched", JsonValue::Bool(batched))]))
    }

    /// The `sweep` op: proves a design's whole width family through one
    /// incremental SAT session ([`prove_net_sweep`]). Per-width result
    /// rows are byte-identical to the `prove` op for the same width, and —
    /// when caching is on — each row is stored in the prove cache under
    /// the same key `prove` uses, so later `prove` requests hit without
    /// re-proving. Session statistics are deterministic too, but they say
    /// how the rows were reached, not what they are, so they live in
    /// `meta`.
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
                let (ob, _) = self.obligation(&d, o.width)?;
                prove_net(&ob.netlist, ob.property, backend, o.width as usize, &ob.var_order)
            };
            if let Some(cache) = &self.cache {
                // Prime the prove cache under the `prove` op's own key so
                // later point requests hit byte-identically.
                let (ob, _) = self.obligation(&d, o.width)?;
                let key = chicala_lowlevel::cache::prove_key(
                    &ob.netlist,
                    ob.property,
                    backend,
                    o.width as usize,
                    &ob.var_order,
                );
                cache.store().store(
                    KIND_PROVE,
                    &key,
                    &chicala_lowlevel::cache::encode_result(&result),
                );
            }
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

/// The byte-comparable `prove` result: identical for fresh, deduplicated,
/// and store-served proofs of the same obligation.
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

    /// Serializes the tests that prove: `sweep_primes_the_prove_cache`
    /// installs its store into the process-wide prove hook, and a proof in
    /// a concurrent test would read and write that store too.
    fn prove_hook_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
    fn prove_batches_and_dedups() {
        let _hooks = prove_hook_lock();
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
        let _hooks = prove_hook_lock();
        let s = Arc::new(uncached());
        // rdiv and xdiv at width 32 are the same obligation: both fold to
        // the constant-true net over the same input nets. Their prove jobs
        // therefore share one dedup key.
        let key = |name: &str| {
            let d = Design::by_name(name).expect("registered design");
            let (ob, _) = s.obligation(&d, 32).expect("obligation builds");
            chicala_lowlevel::cache::prove_key(
                &ob.netlist,
                ob.property,
                Backend::Auto,
                32,
                &ob.var_order,
            )
        };
        assert_eq!(key("rdiv"), key("xdiv"), "twin obligations must share a key");
        // Park every worker, so each request below finds its twin's job
        // still in flight and attaches to it.
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
        let attached = designs.len() as u64 - 1;
        wait_for("attached twins", &|| s.pool.stats().dedup_hits == attached);
        drop(held);
        for b in blockers {
            b.join();
        }
        for (&name, client) in designs.iter().zip(clients) {
            let r = client.join().expect("client thread");
            assert_eq!(json::get(&r, "design"), Some(&JsonValue::str(name)), "{r}");
            assert_eq!(json::get(&r, "status"), Some(&JsonValue::str("proved")), "{r}");
        }
    }

    #[test]
    fn sweep_rows_match_prove_op_per_width() {
        let _hooks = prove_hook_lock();
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
    fn sweep_primes_the_prove_cache() {
        let _hooks = prove_hook_lock();
        let dir = std::env::temp_dir().join(format!(
            "chicala-sweep-cache-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let handle = CacheHandle::new(Arc::new(crate::store::Store::open(&dir)));
        let s = Server::new(Some(handle));
        ok_result(&s, r#"{"op":"sweep","design":"rotate","min_width":3,"max_width":8}"#);
        let cache = s.cache().unwrap();
        let before = cache.stats();
        // Every width in the swept range is now a pure cache hit for the
        // point `prove` op (prove_net consults the installed hook).
        let r = ok_result(&s, r#"{"op":"prove","design":"rotate","width":8}"#);
        assert_eq!(json::get(&r, "status"), Some(&JsonValue::str("proved")));
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1, "prove after sweep must hit the cache");
        CacheHandle::uninstall_all();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_verify_ab_reports_zero_divergences() {
        let _hooks = prove_hook_lock();
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
