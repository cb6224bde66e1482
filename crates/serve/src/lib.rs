//! `chicala-serve`: the verification service.
//!
//! Re-verifying the same design at the same width is the common case —
//! CI reruns, soak loops, interactive exploration — and the pipeline
//! recomputes everything each time. This crate turns it into a service
//! with two layers of work avoidance:
//!
//! 1. **Obligation memo with in-flight build dedup** ([`Server`]): a
//!    burst of `prove` requests for one `(design, width)` shares a single
//!    symbolic unroll. Each request's work runs on the thread that handles
//!    it; the first request for a `(design, width)` builds the obligation
//!    in that key's once-cell, concurrent twins wait on the cell, and
//!    later requests read it. `vc` and `conformance` requests coalesce
//!    through cells of the same shape on their own keys, in flight only.
//! 2. **Persistent content-addressed store** ([`Store`]): VC discharge
//!    markers and conformance reports keyed by a canonical transcript of
//!    what determines them, written atomically under
//!    `target/chicala-cache/` and verified byte-for-byte on read. A
//!    corrupt or stale entry is evicted and the work transparently
//!    recomputed — a cache bug can cost time, never soundness.
//!
//! The VC markers need no daemon: [`CacheHandle::install`] plugs the
//! store into the VC-discharge hook of any process. The daemon
//! (`chicala-served`) adds the line-delimited JSON protocol over a Unix
//! socket or stdin for long-running multi-client service; see
//! [`Server::handle_line`] for the envelope and [`Server::serve_lines`]
//! for the transport loop, which caps a request line at
//! [`MAX_LINE_BYTES`].

#![warn(missing_docs)]

mod coalesce;
pub mod handle;
mod line;
pub mod server;
pub mod store;

pub use handle::CacheHandle;
pub use line::MAX_LINE_BYTES;
pub use server::{Server, PROTOCOL_VERSION};
pub use store::{Store, StoreStats, STORE_SCHEMA};
