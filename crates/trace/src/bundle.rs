//! Self-contained, schema-versioned replay bundles.
//!
//! A bundle is one JSON file carrying everything needed to reproduce a
//! failure on another checkout: the kind of run, the seeds, the design and
//! width, both backend selections, the shrunk inputs, the divergence, the
//! git revision the failure was captured at, and the exact env/CLI replay
//! lines. It is written next to its VCD pair under
//! `target/chicala-failures/` and replayed by `examples/replay.rs
//! --bundle <path>`.
//!
//! # Schema (version 1)
//!
//! ```json
//! {
//!   "schema": 1,
//!   "kind": "conformance",            // or "gen"
//!   "design": "rmul",                 // registry name, or "generated"
//!   "layer": "cosim",                 // cosim | gates | spec | gen stage
//!   "backend": "auto",                // gate-level backend (always auto)
//!   "sim_backend": "compiled",        // interp | compiled | both
//!   "master_seed": "0x…16 hex…",      // seeds are hex strings: JSON
//!   "case_seed": "0x…16 hex…",        //   numbers truncate above 2^53
//!   "max_width": 24,                  // width cap the case was generated under
//!   "width": 3,                       // elaboration width of the shrunk case
//!   "cycles": 4,                      // cycles of the shrunk case
//!   "inputs": [ {"name": "io_a", "value": "5"} ],   // shrunk, decimal
//!   "message": "cosim: cycle 0: …",   // the divergence description
//!   "divergence": {                   // first divergent point, if marked
//!     "cycle": 0, "signal": "acc", "expected": "4", "actual": "9"
//!   },
//!   "module": "…",                    // gen only: shrunk module debug form
//!   "git_rev": "abc123…",
//!   "replay_env": "CHICALA_SEED=0x… cargo run --release --example conformance -- --design … --layers … --cases … --max-width … --backend …",
//!   "replay_cmd": "cargo run --release --example conformance -- …",
//!   "vcd_files": [ "….chisel_interp.vcd", "….seq_interp.vcd" ]
//! }
//! ```

use crate::json::{self, JsonValue};
use crate::replay::{format_seed, parse_seed};
use crate::vcd::write_vcd;
use crate::{Divergence, Trace};
use chicala_telemetry as telemetry;
use std::io;
use std::path::{Path, PathBuf};

/// Current bundle schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// The directory failure artifacts are written to:
/// `CHICALA_FAILURES_DIR` when set, else `target/chicala-failures/` at the
/// workspace root.
pub fn failures_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("CHICALA_FAILURES_DIR") {
        return PathBuf::from(dir);
    }
    // crates/trace/ -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .join("target")
        .join("chicala-failures")
}

/// The current git revision, or `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One self-contained failure bundle (see the module docs for the JSON
/// schema).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayBundle {
    /// Schema version ([`SCHEMA_VERSION`] when written by this build).
    pub schema: u64,
    /// Producing surface: `"conformance"` or `"gen"`.
    pub kind: String,
    /// Registry design name, or `"generated"` for fuzzer modules.
    pub design: String,
    /// Layer / stage that diverged.
    pub layer: String,
    /// Gate-level backend selection. Always `auto`: gate proofs take no
    /// backend override. Kept so older bundles load under this schema.
    pub backend: String,
    /// Simulation backend in effect (`interp` / `compiled` / `both`).
    pub sim_backend: String,
    /// Master seed of the run.
    pub master_seed: u64,
    /// Per-case seed (regenerates exactly this case).
    pub case_seed: u64,
    /// Width cap the case was generated under (replay must match it).
    pub max_width: u64,
    /// Elaboration width of the shrunk case.
    pub width: u64,
    /// Cycles of the shrunk case.
    pub cycles: u64,
    /// Shrunk inputs by port, decimal strings in declaration order.
    pub inputs: Vec<(String, String)>,
    /// The divergence message.
    pub message: String,
    /// First divergent cycle/signal, when trace comparison found one.
    pub divergence: Option<Divergence>,
    /// Shrunk module (gen bundles only; empty otherwise).
    pub module: String,
    /// Git revision the failure was captured at.
    pub git_rev: String,
    /// Whole-run env replay line.
    pub replay_env: String,
    /// Single-case CLI replay line.
    pub replay_cmd: String,
    /// Sibling VCD file names (relative to the bundle's directory).
    pub vcd_files: Vec<String>,
}

impl ReplayBundle {
    /// Deterministic file stem shared by the bundle and its VCDs.
    pub fn file_stem(&self) -> String {
        format!(
            "{}-{}-{}-{:016x}",
            self.kind, self.design, self.layer, self.case_seed
        )
    }

    /// Serializes to the schema-versioned JSON document.
    pub fn to_json(&self) -> JsonValue {
        let inputs = self
            .inputs
            .iter()
            .map(|(name, value)| {
                JsonValue::obj()
                    .set("name", JsonValue::str(name))
                    .set("value", JsonValue::str(value))
            })
            .collect();
        let divergence = match &self.divergence {
            Some(d) => JsonValue::obj()
                .set("cycle", JsonValue::int(d.cycle))
                .set("signal", JsonValue::str(&d.signal))
                .set("expected", JsonValue::str(&d.expected))
                .set("actual", JsonValue::str(&d.actual)),
            None => JsonValue::Null,
        };
        JsonValue::obj()
            .set("schema", JsonValue::int(self.schema))
            .set("kind", JsonValue::str(&self.kind))
            .set("design", JsonValue::str(&self.design))
            .set("layer", JsonValue::str(&self.layer))
            .set("backend", JsonValue::str(&self.backend))
            .set("sim_backend", JsonValue::str(&self.sim_backend))
            .set("master_seed", JsonValue::str(format_seed(self.master_seed)))
            .set("case_seed", JsonValue::str(format_seed(self.case_seed)))
            .set("max_width", JsonValue::int(self.max_width))
            .set("width", JsonValue::int(self.width))
            .set("cycles", JsonValue::int(self.cycles))
            .set("inputs", JsonValue::Arr(inputs))
            .set("message", JsonValue::str(&self.message))
            .set("divergence", divergence)
            .set("module", JsonValue::str(&self.module))
            .set("git_rev", JsonValue::str(&self.git_rev))
            .set("replay_env", JsonValue::str(&self.replay_env))
            .set("replay_cmd", JsonValue::str(&self.replay_cmd))
            .set(
                "vcd_files",
                JsonValue::Arr(self.vcd_files.iter().map(JsonValue::str).collect()),
            )
    }

    /// Deserializes from a parsed JSON document.
    pub fn from_json(v: &JsonValue) -> Result<ReplayBundle, String> {
        let str_field = |key: &str| -> Result<String, String> {
            json::get(v, key)
                .and_then(json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("bundle: missing string field `{key}`"))
        };
        let int_field = |key: &str| -> Result<u64, String> {
            json::get(v, key)
                .and_then(json::as_u64)
                .ok_or_else(|| format!("bundle: missing integer field `{key}`"))
        };
        let seed_field = |key: &str| -> Result<u64, String> {
            let s = str_field(key)?;
            parse_seed(&s).ok_or_else(|| format!("bundle: bad seed in `{key}`: {s:?}"))
        };
        let schema = int_field("schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "bundle: schema {schema} unsupported (this build reads {SCHEMA_VERSION})"
            ));
        }
        let inputs = match json::get(v, "inputs") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|item| {
                    let name = json::get(item, "name").and_then(json::as_str);
                    let value = json::get(item, "value").and_then(json::as_str);
                    match (name, value) {
                        (Some(n), Some(val)) => Ok((n.to_string(), val.to_string())),
                        _ => Err("bundle: malformed input entry".to_string()),
                    }
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("bundle: missing `inputs` array".to_string()),
        };
        let divergence = match json::get(v, "divergence") {
            None | Some(JsonValue::Null) => None,
            Some(d) => Some(Divergence {
                cycle: json::get(d, "cycle")
                    .and_then(json::as_u64)
                    .ok_or("bundle: divergence without cycle")?,
                signal: json::get(d, "signal")
                    .and_then(json::as_str)
                    .ok_or("bundle: divergence without signal")?
                    .to_string(),
                expected: json::get(d, "expected")
                    .and_then(json::as_str)
                    .ok_or("bundle: divergence without expected")?
                    .to_string(),
                actual: json::get(d, "actual")
                    .and_then(json::as_str)
                    .ok_or("bundle: divergence without actual")?
                    .to_string(),
            }),
        };
        let vcd_files = match json::get(v, "vcd_files") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|i| {
                    json::as_str(i)
                        .map(str::to_string)
                        .ok_or_else(|| "bundle: non-string vcd file".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        Ok(ReplayBundle {
            schema,
            kind: str_field("kind")?,
            design: str_field("design")?,
            layer: str_field("layer")?,
            backend: str_field("backend")?,
            sim_backend: str_field("sim_backend")?,
            master_seed: seed_field("master_seed")?,
            case_seed: seed_field("case_seed")?,
            max_width: int_field("max_width")?,
            width: int_field("width")?,
            cycles: int_field("cycles")?,
            inputs,
            message: str_field("message")?,
            divergence,
            module: str_field("module").unwrap_or_default(),
            git_rev: str_field("git_rev")?,
            replay_env: str_field("replay_env")?,
            replay_cmd: str_field("replay_cmd")?,
            vcd_files,
        })
    }

    /// Loads a bundle from a JSON file.
    pub fn load(path: &Path) -> Result<ReplayBundle, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("bundle: cannot read {}: {e}", path.display()))?;
        let v = json::parse(&text).map_err(|e| format!("bundle: {}: {e}", path.display()))?;
        ReplayBundle::from_json(&v)
    }

    /// Writes the bundle and its traces into `dir` (created if absent):
    /// one VCD per trace named `<stem>.<scope>.vcd`, then the JSON bundle
    /// as `<stem>.json` with `vcd_files` pointing at the siblings. Emits
    /// the `trace.bytes_written` / `trace.failures_captured` telemetry
    /// counters under a `trace_emit` span. Returns the bundle path.
    pub fn write_with_traces_to(
        &mut self,
        dir: &Path,
        traces: &[&Trace],
    ) -> io::Result<PathBuf> {
        let _span = telemetry::span!("trace_emit:{}", self.file_stem());
        std::fs::create_dir_all(dir)?;
        let stem = self.file_stem();
        self.vcd_files.clear();
        let mut bytes = 0u64;
        for t in traces {
            let name = format!("{stem}.{}.vcd", t.scope);
            let text = write_vcd(t);
            bytes += text.len() as u64;
            std::fs::write(dir.join(&name), text)?;
            self.vcd_files.push(name);
        }
        let path = dir.join(format!("{stem}.json"));
        let text = self.to_json().pretty();
        bytes += text.len() as u64;
        std::fs::write(&path, text)?;
        telemetry::counter("trace.bytes_written", bytes);
        telemetry::counter("trace.failures_captured", 1);
        Ok(path)
    }

    /// [`ReplayBundle::write_with_traces_to`] into [`failures_dir`].
    pub fn write_with_traces(&mut self, traces: &[&Trace]) -> io::Result<PathBuf> {
        self.write_with_traces_to(&failures_dir(), traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SignalKind;
    use chicala_bigint::BigInt;

    fn sample_bundle() -> ReplayBundle {
        ReplayBundle {
            schema: SCHEMA_VERSION,
            kind: "conformance".to_string(),
            design: "rmul".to_string(),
            layer: "cosim".to_string(),
            backend: "auto".to_string(),
            sim_backend: "compiled".to_string(),
            master_seed: 0xC1CA_1A00,
            case_seed: 0xFEDC_BA98_7654_3210, // above 2^53: pins hex-string storage
            max_width: 24,
            width: 3,
            cycles: 4,
            inputs: vec![("io_a".to_string(), "5".to_string()), ("io_b".to_string(), "6".to_string())],
            message: "cosim: cycle 0: register `acc`: interpreter=4 program=9".to_string(),
            divergence: Some(Divergence {
                cycle: 0,
                signal: "acc".to_string(),
                expected: "4".to_string(),
                actual: "9".to_string(),
            }),
            module: String::new(),
            git_rev: "deadbeef".to_string(),
            replay_env: "CHICALA_SEED=0x00000000C1CA1A00 cargo run --release --example \
                         conformance -- --design rmul --layers cosim --cases 32 \
                         --max-width 24 --backend compiled"
                .to_string(),
            replay_cmd: "cargo run --release --example conformance -- --design rmul \
                         --max-width 24 --replay 0xFEDCBA9876543210"
                .to_string(),
            vcd_files: Vec::new(),
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let b = sample_bundle();
        let text = b.to_json().pretty();
        let back = ReplayBundle::from_json(&crate::json::parse(&text).expect("parses"))
            .expect("deserializes");
        assert_eq!(back, b, "including the >2^53 case seed");
    }

    #[test]
    fn unsupported_schema_is_rejected() {
        let b = sample_bundle();
        let text = b.to_json().pretty().replace("\"schema\": 1", "\"schema\": 99");
        let err = ReplayBundle::from_json(&crate::json::parse(&text).expect("parses"))
            .expect_err("rejected");
        assert!(err.contains("schema 99"), "{err}");
    }

    #[test]
    fn write_with_traces_emits_siblings_and_loads_back() {
        let dir = std::env::temp_dir().join(format!(
            "chicala-trace-test-{}-{:x}",
            std::process::id(),
            sample_bundle().case_seed
        ));
        let mut t = Trace::new("chisel_interp");
        t.declare("io_a", 3, SignalKind::Input);
        t.push_cycle(vec![BigInt::from(5u64)]);
        let mut b = sample_bundle();
        let path = b.write_with_traces_to(&dir, &[&t]).expect("writes");
        assert_eq!(b.vcd_files.len(), 1);
        let loaded = ReplayBundle::load(&path).expect("loads");
        assert_eq!(loaded, b);
        let vcd_text =
            std::fs::read_to_string(dir.join(&b.vcd_files[0])).expect("vcd exists");
        let parsed = crate::vcd::parse_vcd(&vcd_text).expect("vcd parses");
        assert_eq!(parsed, t);
        std::fs::remove_dir_all(&dir).ok();
    }
}
