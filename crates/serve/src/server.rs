//! The verification server: protocol dispatch, request batching, and
//! coalescing of identical work.
//!
//! One request is one line of JSON, of at most [`MAX_LINE_BYTES`]; one
//! response is one line of JSON. The response envelope separates the
//! **byte-comparable** `result` (the same request must serialize to the
//! same bytes whether its work was done fresh, shared with a concurrent
//! twin, or served from the persistent store) from `meta`, which carries
//! timing and cache provenance and is allowed to differ between runs. So
//! does anything that depends on timing: which VCs a `vc` request proved
//! depends on its wall-clock `deadline_ms` and on the machine's load, so
//! its `result` holds only the design and its VC counts, and the verdicts
//! (`proved`, `proved_names`, `unproved_names`) are in `meta`.
//!
//! ```text
//! → {"op":"prove","design":"rmul","width":8}
//! ← {"ok":true,"result":{"design":"rmul","width":8,"status":"proved",
//!    "backend":"bdd"},"meta":{"elapsed_us":1234,"batched":false}}
//! ```
//!
//! Every op's work runs on the thread that handles its request, so no
//! request waits behind another's work. Identical work coalesces through
//! per-key once-cells instead: the first request for a key runs it, and a
//! twin that arrives meanwhile, even on another connection, waits for the
//! same result. A burst of `prove` requests for one `(design, width)`
//! thus shares one symbolic unroll, and the [`FormalObligation`] stays in
//! its cell as the server memo, so every later request reuses it. The
//! proof itself then runs on each request's own thread: a registry
//! obligation is the constant-true net as built, so it costs nothing next
//! to the unroll. `vc` and `conformance` requests coalesce in flight only:
//! the running request removes its cell when it returns.

use crate::coalesce::Coalesce;
use crate::handle::{CacheHandle, KIND_REPORT};
use crate::line::{read_request_line, ReadLine, MAX_LINE_BYTES};
use chicala_conformance::{
    formal_gate_obligation, formal_gate_obligation_shared, run_design, Config, Design,
    FormalObligation, Layer, SimBackend,
};
use chicala_lowlevel::{prove_net, prove_net_sweep, Backend, Netlist, ProveResult, SweepItem};
use chicala_telemetry as telemetry;
use chicala_telemetry::JsonValue;
use chicala_trace::json;
use chicala_verify::{discharge_all, VcVerdict, Verdict};
use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol version reported by `ping` and checked by clients that care.
pub const PROTOCOL_VERSION: u64 = 1;

/// Schema byte prefixed to conformance-report cache keys; bump when the
/// report JSON layout changes so stale entries miss instead of lying.
const REPORT_KEY_SCHEMA: u32 = 1;

/// Most cases per layer one `conformance` request may ask for: the engine
/// lays out every case of a layer before checking any.
const MAX_CONFORMANCE_CASES: u64 = 10_000;

/// Widest `max_width` one `conformance` request may ask for: the widest
/// width the committed conformance corpus replays.
const MAX_CONFORMANCE_WIDTH: u64 = 64;

fn backend_name(b: Backend) -> &'static str {
    match b {
        Backend::Bdd => "bdd",
        Backend::Sat => "sat",
        Backend::Auto => "auto",
    }
}

/// The request's `backend` field as a gate-proof backend; `Auto` when
/// absent.
fn gate_backend(req: &JsonValue) -> Result<Backend, String> {
    match field::<&str>(req, "backend")? {
        None => Ok(Backend::Auto),
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "bdd" => Ok(Backend::Bdd),
            "sat" => Ok(Backend::Sat),
            "auto" => Ok(Backend::Auto),
            _ => Err(format!("unknown backend `{s}`")),
        },
    }
}

/// A type a request field may hold.
trait FieldType<'a>: Sized {
    /// The type as an error message names it.
    const NAME: &'static str;
    fn read(v: &'a JsonValue) -> Option<Self>;
}

impl FieldType<'_> for u64 {
    const NAME: &'static str = "a non-negative integer";
    fn read(v: &JsonValue) -> Option<u64> {
        json::as_u64(v)
    }
}

impl<'a> FieldType<'a> for &'a str {
    const NAME: &'static str = "a string";
    fn read(v: &'a JsonValue) -> Option<&'a str> {
        json::as_str(v)
    }
}

impl FieldType<'_> for bool {
    const NAME: &'static str = "a bool";
    fn read(v: &JsonValue) -> Option<bool> {
        match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// The request field `name`: `None` when absent, an error naming the field
/// when it holds a value of another type, so a mistyped field is never
/// read as its default.
fn field<'a, T: FieldType<'a>>(req: &'a JsonValue, name: &str) -> Result<Option<T>, String> {
    match json::get(req, name) {
        None => Ok(None),
        Some(v) => T::read(v).map(Some).ok_or_else(|| format!("`{name}` must be {}", T::NAME)),
    }
}

/// The field `name` that `op` cannot do without.
fn required<'a, T: FieldType<'a>>(req: &'a JsonValue, op: &str, name: &str) -> Result<T, String> {
    field(req, name)?.ok_or_else(|| format!("{op}: missing `{name}`"))
}

/// The byte-comparable result of an op plus meta fields specific to this
/// op (cache provenance, batching, verdicts that depend on timing).
type OpReply = (JsonValue, Vec<(&'static str, JsonValue)>);

/// The op outcome: its reply, or the error to answer with.
type OpOutcome = Result<OpReply, String>;

/// A verification server instance. One per process; share it across
/// connection threads behind an [`Arc`].
pub struct Server {
    cache: Option<CacheHandle>,
    /// The request-batching memo: one obligation per `(design, width)`,
    /// built by the first request that needs it.
    obligations: Coalesce<(&'static str, u64), Arc<FormalObligation>>,
    /// `vc` runs in flight, by `(design, deadline_ms)`: the spec and module
    /// are compiled in, so that pair determines the work.
    vc_runs: Coalesce<(String, u64), OpReply>,
    /// `conformance` runs in flight, by report key.
    soaks: Coalesce<Vec<u8>, JsonValue>,
    requests: AtomicU64,
    errors: AtomicU64,
    batch_builds: AtomicU64,
    batch_reuses: AtomicU64,
    report_hits: AtomicU64,
    report_misses: AtomicU64,
    full_waits: AtomicU64,
    full_wait_us: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
}

impl Server {
    /// A server over `cache` (or uncached when `None`). It keeps no
    /// threads of its own: each request's work runs on the thread that
    /// calls [`handle_line`](Server::handle_line). When a cache handle is
    /// given, the server files conformance reports in its store, and the
    /// handle is installed into the kernel's VC cache hook, so reports and
    /// VC discharges persist across requests *and across restarts*.
    pub fn new(cache: Option<CacheHandle>) -> Server {
        if let Some(c) = &cache {
            c.install();
        }
        Server {
            cache,
            obligations: Coalesce::new(true),
            vc_runs: Coalesce::new(false),
            soaks: Coalesce::new(false),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            batch_builds: AtomicU64::new(0),
            batch_reuses: AtomicU64::new(0),
            report_hits: AtomicU64::new(0),
            report_misses: AtomicU64::new(0),
            full_waits: AtomicU64::new(0),
            full_wait_us: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        }
    }

    /// True once a `shutdown` request has been handled; transport loops
    /// should stop accepting work.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Notes that a transport found every connection slot taken and waited
    /// `waited` for one to free. `stats` reports the count and the total
    /// as `connections.full_waits` and `connections.full_wait_us`.
    pub fn note_full_wait(&self, waited: Duration) {
        self.full_waits.fetch_add(1, Ordering::Relaxed);
        self.full_wait_us.fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
    }

    /// Handles one request line, returning one response line (no trailing
    /// newline). Never panics on malformed input — protocol errors come
    /// back as `{"ok":false,"error":...}` envelopes.
    ///
    /// `meta.elapsed_us` times this call, from parsing the line to building
    /// the response. It excludes backlog time: a client that waited for a
    /// free connection slot before its line was read waited longer (see
    /// [`note_full_wait`](Server::note_full_wait)).
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
    /// On a miss this request builds it; a twin that arrives meanwhile
    /// waits for that build, so each obligation is built once.
    fn obligation(&self, d: Design, width: u64) -> Result<(Arc<FormalObligation>, bool), String> {
        let (ob, built) = self.obligations.run((d.name, width), || {
            let _span = telemetry::span!("serve:lower:{}:{width}", d.name);
            let ob = formal_gate_obligation(&d, width)?
                .ok_or_else(|| format!("design `{}` has no gate-level golden model", d.name))?;
            Ok(Arc::new(ob))
        });
        let ob = ob?;
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
        let design: &str = required(req, "prove", "design")?;
        let width: u64 = required(req, "prove", "width")?;
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
        let backend = gate_backend(req)?;
        let (ob, batched) = self.obligation(d, width)?;
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
        let design: &str = required(req, "sweep", "design")?;
        let d = Design::by_name(design).ok_or_else(|| format!("unknown design `{design}`"))?;
        if d.gate_spec.is_none() {
            return Err(format!("design `{design}` has no gate-level golden model"));
        }
        let lo = field(req, "min_width")?.unwrap_or(d.min_width);
        let hi = field(req, "max_width")?.unwrap_or(d.gate_max_width);
        if lo < d.min_width || hi > d.gate_max_width || lo > hi {
            return Err(format!(
                "sweep range {lo}..={hi} outside `{design}` family {}..={}",
                d.min_width, d.gate_max_width
            ));
        }
        let backend = gate_backend(req)?;
        let verify_ab = field(req, "verify_ab")?.unwrap_or(false);
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
            // its input node ids match what `prove` would report.
            let result = if o.result.is_proved() {
                o.result.clone()
            } else {
                all_proved = false;
                let (ob, _) = self.obligation(d, o.width)?;
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
        let design: &str = required(req, "vc", "design")?;
        let vd = chicala_designs::verified_designs()
            .into_iter()
            .find(|d| d.name == design)
            .ok_or_else(|| format!("unknown design `{design}`"))?;
        let spec = vd.spec.ok_or_else(|| format!("design `{design}` has no DesignSpec"))?;
        // Full design verification is minutes-scale with no bound (some
        // VCs exhaust the automatic core's budget), so the service
        // discharges per-VC under a wall-clock deadline and reports every
        // outcome instead of failing the request at the first hard VC.
        // Which VCs beat the deadline depends on the machine and its load,
        // so the verdicts go in `meta`; `result` holds what the request
        // determines.
        let deadline_ms = field(req, "deadline_ms")?.unwrap_or(10_000);
        let (outcome, _) = self.vc_runs.run((design.to_string(), deadline_ms), || {
            let job = chicala_designs::ProofJob::new(&(vd.module)(), spec())?;
            let deadline = std::time::Duration::from_millis(deadline_ms);
            let (proved, unproved): (Vec<_>, Vec<_>) =
                discharge_all(&job.env, &job.spec, &job.vcs, Some(deadline))
                    .partition(|v| v.verdict == Verdict::Proved);
            let names = |vs: Vec<VcVerdict>| {
                JsonValue::Arr(vs.iter().map(|v| JsonValue::str(v.vc.name.clone())).collect())
            };
            let scripted =
                job.vcs.iter().filter(|vc| job.spec.proofs.contains_key(&vc.name)).count() as u64;
            let result = JsonValue::obj()
                .set("design", JsonValue::str(design))
                .set("total", JsonValue::int(job.vcs.len() as u64))
                .set("scripted", JsonValue::int(scripted));
            Ok((
                result,
                vec![
                    ("deadline_ms", JsonValue::int(deadline_ms)),
                    ("proved", JsonValue::int(proved.len() as u64)),
                    ("proved_names", names(proved)),
                    ("unproved_names", names(unproved)),
                ],
            ))
        });
        outcome
    }

    fn op_conformance(&self, req: &JsonValue) -> OpOutcome {
        let design: &str = required(req, "conformance", "design")?;
        let d = Design::by_name(design).ok_or_else(|| format!("unknown design `{design}`"))?;
        let mut cfg = Config { seed: field(req, "seed")?.unwrap_or(1), ..Config::default() };
        if let Some(cases) = field::<u64>(req, "cases")? {
            if cases > MAX_CONFORMANCE_CASES {
                return Err(format!(
                    "conformance: `cases` {cases} is over the limit of {MAX_CONFORMANCE_CASES}"
                ));
            }
            cfg.cases = cases as usize;
        }
        if let Some(mw) = field::<u64>(req, "max_width")? {
            if mw > MAX_CONFORMANCE_WIDTH {
                return Err(format!(
                    "conformance: `max_width` {mw} is over the limit of {MAX_CONFORMANCE_WIDTH}"
                ));
            }
            cfg.max_width = mw;
        }
        if let Some(layers) = field::<&str>(req, "layers")? {
            cfg.layers = Vec::new();
            for s in layers.split(',') {
                let layer = Layer::parse(s.trim()).ok_or_else(|| format!("unknown layer `{s}`"))?;
                if cfg.layers.contains(&layer) {
                    return Err(format!("conformance: layer `{layer}` named twice"));
                }
                cfg.layers.push(layer);
            }
        }
        if let Some(b) = field::<&str>(req, "backend")? {
            cfg.backend =
                SimBackend::parse(b).ok_or_else(|| format!("unknown sim backend `{b}`"))?;
        }

        // Conformance runs are deterministic in their config, so whole
        // reports are content-addressable: key = canonical config
        // transcript, payload = the byte-comparable result JSON.
        let key = report_key(design, &cfg);
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

        // A twin that arrives while this report runs takes it; only the
        // request that ran it files it in the store.
        let (result, _) = self.soaks.run(key.clone(), || {
            let result = report_json(design, &run_design(&d, &cfg));
            if let Some(cache) = &self.cache {
                cache.store().store(KIND_REPORT, &key, result.to_string().as_bytes());
            }
            Ok(result)
        });
        Ok((result?, vec![("cache", JsonValue::str("miss"))]))
    }

    /// The live `stats` payload: coalescing, store, batching, and
    /// telemetry counters in one object. Not byte-comparable (it reports
    /// wall-clock state) — clients treat it as diagnostics.
    ///
    /// `pool` counts the obligation builds, `vc` runs and conformance runs
    /// that ran (`executed`) and the twins that waited for one
    /// (`inflight_dedup`). It keeps the name of the work pool it replaced
    /// because the repository benchmark reads these two counters there.
    /// `connections` counts the times every connection slot was taken
    /// (`full_waits`) and the microseconds spent waiting for a free one
    /// (`full_wait_us`), as the transport reported them through
    /// [`note_full_wait`](Server::note_full_wait).
    pub fn stats_json(&self) -> JsonValue {
        let (o, v, c) = (&self.obligations, &self.vc_runs, &self.soaks);
        let pool = JsonValue::obj()
            .set("executed", JsonValue::int(o.ran() + v.ran() + c.ran()))
            .set("inflight_dedup", JsonValue::int(o.attached() + v.attached() + c.attached()));
        let server = JsonValue::obj()
            .set("requests", JsonValue::int(self.requests.load(Ordering::Relaxed)))
            .set("errors", JsonValue::int(self.errors.load(Ordering::Relaxed)))
            .set("uptime_ms", JsonValue::int(self.started.elapsed().as_millis() as u64));
        let batch = JsonValue::obj()
            .set("builds", JsonValue::int(self.batch_builds.load(Ordering::Relaxed)))
            .set("reuses", JsonValue::int(self.batch_reuses.load(Ordering::Relaxed)))
            .set("entries", JsonValue::int(self.obligations.len() as u64));
        let reports = JsonValue::obj()
            .set("hits", JsonValue::int(self.report_hits.load(Ordering::Relaxed)))
            .set("misses", JsonValue::int(self.report_misses.load(Ordering::Relaxed)));
        let connections = JsonValue::obj()
            .set("full_waits", JsonValue::int(self.full_waits.load(Ordering::Relaxed)))
            .set("full_wait_us", JsonValue::int(self.full_wait_us.load(Ordering::Relaxed)));
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
            .set("connections", connections)
            .set("cache", cache)
            .set("telemetry", JsonValue::obj().set("counters", counters).set("hists", hists))
    }
}

/// The byte-comparable `prove` result: identical whether the request built
/// its obligation or reused a batch-mate's. A counterexample's
/// `assignment` lists `{"net", "value"}` pairs in ascending `net` order,
/// where `net` is an input's node id
/// ([`AigRef::node`](chicala_lowlevel::AigRef::node)) in the per-width
/// obligation's AIG; inputs it leaves out are don't-cares.
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
                .map(|(input, v)| {
                    JsonValue::obj()
                        .set("net", JsonValue::int(input.node() as u64))
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
    fn conformance_requests_over_a_limit_are_rejected_and_the_stream_keeps_serving() {
        let s = uncached();
        let rejected = [
            (r#"{"op":"conformance","design":"rmul","seed":1,"cases":1000000000000,"max_width":4,"layers":"cosim"}"#, "`cases`"),
            (r#"{"op":"conformance","design":"rmul","seed":1,"cases":2,"max_width":1000000,"layers":"spec"}"#, "`max_width`"),
            (r#"{"op":"conformance","design":"rmul","seed":1,"cases":4,"max_width":4,"layers":"cosim,cosim"}"#, "named twice"),
            // A field of the wrong type is an error, never its default.
            (r#"{"op":"conformance","design":"rmul","seed":1,"cases":-1,"max_width":4,"layers":"cosim"}"#, "`cases` must be a non-negative integer"),
            (r#"{"op":"sweep","design":"rotate","min_width":"3","max_width":4}"#, "`min_width` must be a non-negative integer"),
            (r#"{"op":"sweep","design":"rotate","min_width":2,"max_width":4,"verify_ab":"yes"}"#, "`verify_ab` must be a bool"),
        ];
        let input: Vec<&str> = rejected.iter().map(|r| r.0).chain([r#"{"op":"ping"}"#]).collect();
        let mut output = Vec::new();
        s.serve_lines(std::io::Cursor::new(input.join("\n")), &mut output);
        let text = String::from_utf8(output).expect("responses are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), input.len(), "one response per request: {text}");
        for (line, (_, want)) in lines.iter().zip(rejected) {
            let v = json::parse(line).expect("error response parses");
            assert_eq!(json::get(&v, "ok"), Some(&JsonValue::Bool(false)), "{line}");
            let error = json::get(&v, "error").and_then(json::as_str).expect("error string");
            assert!(error.contains(want), "{line}");
        }
        let pong = json::parse(lines[rejected.len()]).expect("ping response parses");
        assert_eq!(json::get(&pong, "ok"), Some(&JsonValue::Bool(true)), "{text}");
        let stats = ok_result(&s, r#"{"op":"stats"}"#);
        let server = json::get(&stats, "server").unwrap();
        assert_eq!(json::get(server, "errors").and_then(json::as_u64), Some(6));
    }

    #[test]
    fn every_mistyped_field_is_named_in_the_error() {
        let s = uncached();
        for (line, name) in [
            (r#"{"op":"prove","design":7,"width":5}"#, "design"),
            (r#"{"op":"prove","design":"rotate","width":"5"}"#, "width"),
            (r#"{"op":"prove","design":"rotate","width":5,"backend":1}"#, "backend"),
            (r#"{"op":"sweep","design":"rotate","max_width":-1}"#, "max_width"),
            (r#"{"op":"vc","design":"rotate","deadline_ms":1.5}"#, "deadline_ms"),
            (r#"{"op":"conformance","design":"rotate","seed":"1"}"#, "seed"),
            (r#"{"op":"conformance","design":"rotate","layers":["cosim"]}"#, "layers"),
            (r#"{"op":"conformance","design":"rotate","backend":true}"#, "backend"),
        ] {
            let v = json::parse(&s.handle_line(line)).expect("error response parses");
            assert_eq!(json::get(&v, "ok"), Some(&JsonValue::Bool(false)), "{line}");
            let error = json::get(&v, "error").and_then(json::as_str).expect("error string");
            assert!(error.starts_with(&format!("`{name}` must be")), "{line}: {error}");
        }
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

    /// The `pool` counter `name` of the server's stats.
    fn pool_stat(s: &Server, name: &str) -> u64 {
        let stats = s.stats_json();
        json::get(&stats, "pool").and_then(|p| json::get(p, name)).and_then(json::as_u64).unwrap()
    }

    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    /// Holds an obligation build open: a design whose `build` passes this
    /// gate elaborates only once the test opens it.
    struct Gate {
        entered: AtomicBool,
        open: AtomicBool,
    }

    impl Gate {
        const fn new() -> Gate {
            Gate { entered: AtomicBool::new(false), open: AtomicBool::new(false) }
        }

        fn pass(&self) {
            self.entered.store(true, Ordering::SeqCst);
            wait_for("the gate to open", || self.open.load(Ordering::SeqCst));
        }
    }

    /// `rmul` with `build` in place of its module builder. Elaboration is
    /// memoised process-wide by (name, width), so each test that uses this
    /// takes a width of rmul that no other test in this binary builds.
    fn rmul_built_by(build: fn() -> chicala_chisel::Module) -> Design {
        Design { build, ..Design::by_name("rmul").expect("rmul is registered") }
    }

    #[test]
    fn twins_attach_to_a_held_build_and_share_its_answer() {
        static GATE: Gate = Gate::new();
        fn held_rmul() -> chicala_chisel::Module {
            GATE.pass();
            chicala_designs::rmul::module()
        }
        let s = Arc::new(uncached());
        let leader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || s.obligation(rmul_built_by(held_rmul), 13).map(|r| r.1))
        };
        wait_for("the held build", || GATE.entered.load(Ordering::SeqCst));
        let prove = r#"{"op":"prove","design":"rmul","width":13}"#;
        let twins: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || ok_result(&s, prove).to_string())
            })
            .collect();
        wait_for("two attached twins", || pool_stat(&s, "inflight_dedup") == 2);
        GATE.open.store(true, Ordering::SeqCst);
        assert_eq!(leader.join().expect("leader thread"), Ok(false), "the leader built it");
        let answers: Vec<String> = twins.into_iter().map(|t| t.join().expect("twin")).collect();
        assert_eq!(answers[0], answers[1]);
        assert_eq!(ok_result(&s, prove).to_string(), answers[0], "a later read agrees");
        let stats = ok_result(&s, r#"{"op":"stats"}"#);
        let batch = json::get(&stats, "batch").unwrap();
        assert_eq!(json::get(batch, "builds").and_then(json::as_u64), Some(1), "{stats}");
        assert_eq!(json::get(batch, "reuses").and_then(json::as_u64), Some(3), "{stats}");
        assert_eq!(pool_stat(&s, "executed"), 1, "{stats}");
        assert_eq!(pool_stat(&s, "inflight_dedup"), 2, "{stats}");
    }

    #[test]
    fn conformance_coalesces_in_flight_only() {
        let s = uncached();
        let line = r#"{"op":"conformance","design":"popcount","seed":2,"cases":3,"max_width":6,"layers":"cosim"}"#;
        let first = ok_result(&s, line);
        assert_eq!(ok_result(&s, line).to_string(), first.to_string());
        assert_eq!(pool_stat(&s, "executed"), 2, "the second request runs its own soak");
        assert_eq!(pool_stat(&s, "inflight_dedup"), 0);
    }

    #[test]
    fn a_panicking_build_strands_no_twin_and_blocks_no_later_request() {
        static GATE: Gate = Gate::new();
        fn exploding_rmul() -> chicala_chisel::Module {
            GATE.pass();
            panic!("elaboration exploded")
        }
        // A hang fails the test after 60 s instead of blocking the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let checks = std::thread::spawn(move || {
            let s = Arc::new(uncached());
            let leader = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.obligation(rmul_built_by(exploding_rmul), 11).err())
            };
            wait_for("the held build", || GATE.entered.load(Ordering::SeqCst));
            let prove = r#"{"op":"prove","design":"rmul","width":11}"#;
            let twins: Vec<_> = (0..2)
                .map(|_| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || s.handle_line(prove))
                })
                .collect();
            wait_for("two attached twins", || pool_stat(&s, "inflight_dedup") == 2);
            GATE.open.store(true, Ordering::SeqCst);
            let error = leader.join().expect("leader thread").expect("the build failed");
            assert!(error.contains("elaboration exploded"), "{error}");
            for twin in twins {
                let resp = twin.join().expect("twin thread");
                let v = json::parse(&resp).expect("response parses");
                assert_eq!(json::get(&v, "ok"), Some(&JsonValue::Bool(false)), "{resp}");
                assert!(resp.contains("elaboration exploded"), "{resp}");
            }
            // The failed cell is gone: the next request builds afresh.
            let r = ok_result(&s, prove);
            assert_eq!(json::get(&r, "status"), Some(&JsonValue::str("proved")), "{r}");
            assert_eq!(pool_stat(&s, "executed"), 2);
            let _ = tx.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            rx.recv_timeout(std::time::Duration::from_secs(60))
        {
            panic!("a request hung behind the panicked build");
        }
        if let Err(panic) = checks.join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn deduped_twins_name_their_own_design() {
        let s = Arc::new(uncached());
        // rdiv and xdiv at width 32 build identical obligations, but each
        // design has its own memo cell, so its own build; the other four
        // requests wait for a build or read it, as their timing falls.
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
        for (&name, client) in designs.iter().zip(clients) {
            let r = client.join().expect("client thread");
            assert_eq!(json::get(&r, "design"), Some(&JsonValue::str(name)), "{r}");
            assert_eq!(json::get(&r, "status"), Some(&JsonValue::str("proved")), "{r}");
        }
        let stats = ok_result(&s, r#"{"op":"stats"}"#);
        let batch = json::get(&stats, "batch").unwrap();
        assert_eq!(json::get(batch, "builds").and_then(json::as_u64), Some(2), "{stats}");
        assert_eq!(json::get(batch, "reuses").and_then(json::as_u64), Some(4), "{stats}");
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
    fn vc_verdicts_live_in_meta() {
        let s = uncached();
        let resp = s.handle_line(r#"{"op":"vc","design":"rotate","deadline_ms":20}"#);
        let v = json::parse(&resp).unwrap();
        assert_eq!(
            json::get(&v, "ok"),
            Some(&JsonValue::Bool(true)),
            "resp: {resp}"
        );
        let JsonValue::Obj(result) = json::get(&v, "result").unwrap() else {
            panic!("result is an object: {resp}")
        };
        let keys: Vec<&str> = result.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["design", "total", "scripted"], "resp: {resp}");

        let d = chicala_designs::verified_designs()
            .into_iter()
            .find(|d| d.name == "rotate")
            .unwrap();
        let mut all: Vec<String> =
            d.job().unwrap().unwrap().vcs.into_iter().map(|vc| vc.name).collect();
        let total = json::get(&v, "result").and_then(|r| json::get(r, "total"));
        assert_eq!(total.and_then(json::as_u64), Some(all.len() as u64));

        let meta = json::get(&v, "meta").unwrap();
        let names = |key: &str| -> Vec<String> {
            let Some(JsonValue::Arr(a)) = json::get(meta, key) else {
                panic!("meta.{key} is an array: {resp}")
            };
            a.iter()
                .map(|n| json::as_str(n).unwrap().to_string())
                .collect()
        };
        let proved = names("proved_names");
        assert_eq!(
            json::get(meta, "proved").and_then(json::as_u64),
            Some(proved.len() as u64)
        );
        assert_eq!(
            json::get(meta, "deadline_ms").and_then(json::as_u64),
            Some(20)
        );
        let mut parts = proved;
        parts.extend(names("unproved_names"));
        parts.sort();
        all.sort();
        assert_eq!(parts, all, "proved and unproved names partition the VCs");
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
