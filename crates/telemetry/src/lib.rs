//! Structured tracing, metrics, and profiling for the whole verification
//! pipeline (chicala-telemetry).
//!
//! Every layer of the pipeline — the transformation passes, the VC
//! generator, the proof kernel, the interpreters, the bit-blaster, and the
//! conformance engine — reports into one global, thread-safe collector:
//!
//! * **spans** — hierarchical wall-clock timings ([`span!`]); nesting is
//!   tracked per thread, so a span opened inside another becomes its child
//!   and aggregated reports show the full call tree;
//! * **counters** — named monotonic counts ([`counter`]), saturating on
//!   overflow;
//! * **histograms** — named sample streams ([`record`]) stored as
//!   power-of-two bucketed [`Hist`]s (constant memory, O(1) recording)
//!   and summarised as min/mean/p50/p90/p99/max ([`HistSummary`]);
//! * **events** — structured key/value diagnostics ([`event`]) replacing
//!   ad-hoc `eprintln!` debug dumps.
//!
//! Collection is **off by default** and costs one atomic load per probe
//! when disabled. It is enabled by setting `CHICALA_TRACE` (to anything
//! but `0`) or programmatically via [`set_enabled`]. Two exporters are
//! provided: a human-readable tree report ([`tree_report`]) and Chrome
//! trace-event JSON ([`chrome_trace`]) loadable in `chrome://tracing` or
//! `ui.perfetto.dev`; [`write_chrome_trace`] writes the latter to a file.
//!
//! # Examples
//!
//! ```
//! use chicala_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! {
//!     let _outer = telemetry::span!("prove:{}", "lemma1");
//!     let _inner = telemetry::span!("linarith");
//!     telemetry::counter("kernel.refutes", 1);
//!     telemetry::record("kernel.atoms", 17);
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.spans.len(), 2);
//! assert_eq!(snap.spans[0].path, "prove:lemma1/linarith");
//! assert_eq!(snap.counters["kernel.refutes"], 1);
//! telemetry::reset();
//! telemetry::set_enabled(false);
//! ```

mod chrome;
mod collect;
pub mod digest;
mod json;
mod report;

pub use chrome::chrome_trace;
pub use digest::{fnv128, fnv64, Fnv128};
pub use collect::{
    counter, enabled, event, record, reset, set_enabled, snapshot, start_span, EventRecord,
    Hist, HistSummary, Snapshot, Span, SpanRecord,
};
pub use json::JsonValue;
pub use report::tree_report;

/// Opens a [`Span`] with a `format!`-style name. The format arguments are
/// only evaluated when collection is enabled, so dynamic span names are
/// free on the disabled path. The span ends (and is recorded) when the
/// returned guard drops.
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        if $crate::enabled() {
            $crate::start_span(format!($($arg)*))
        } else {
            $crate::Span::disabled()
        }
    };
}

/// Writes the Chrome trace for the current snapshot to `path`. Returns
/// whether it wrote one: nothing is written while collection is disabled.
///
/// # Errors
///
/// Propagates the underlying [`std::io::Error`] on write failure.
pub fn write_chrome_trace(path: &str) -> std::io::Result<bool> {
    if !enabled() {
        return Ok(false);
    }
    std::fs::write(path, chrome_trace(&snapshot()))?;
    Ok(true)
}
