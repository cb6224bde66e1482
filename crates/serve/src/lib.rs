//! `chicala-serve`: the verification service.
//!
//! Re-verifying the same design at the same width is the common case —
//! CI reruns, soak loops, interactive exploration — and the proof
//! engines recompute everything from scratch each time. This crate turns
//! the pipeline into a service with three layers of work avoidance:
//!
//! 1. **Persistent content-addressed store** ([`Store`]): proof
//!    certificates, VC discharge markers and conformance reports keyed by
//!    a canonical digest of the obligation (netlist cone + backend +
//!    width + schema version for a proof), written atomically under
//!    `target/chicala-cache/` and verified byte-for-byte on read. A
//!    corrupt or stale entry is evicted and the work transparently
//!    re-proved — a cache bug can cost time, never soundness.
//! 2. **Work-stealing pool with in-flight deduplication**
//!    ([`chicala_par::StealPool`]): jobs carry priorities and a content
//!    key; identical concurrent requests coalesce onto one proof.
//! 3. **Request batching** ([`Server`]): a burst of `prove` requests for
//!    one `(design, width)` shares a single symbolic unroll.
//!
//! The cache needs no daemon: [`CacheHandle::install`] (or
//! [`CacheHandle::install_from_env`], gated on `CHICALA_CACHE`) plugs
//! the store into the `prove_net` / VC-discharge hooks of any process —
//! tests, examples, CLIs. The daemon (`chicala-served`) adds the
//! line-delimited JSON protocol over a Unix socket or stdin for
//! long-running multi-client service; see [`Server::handle_line`] for the
//! envelope and [`Server::serve_lines`] for the transport loop, which
//! caps a request line at [`MAX_LINE_BYTES`].

#![warn(missing_docs)]

pub mod handle;
mod line;
pub mod server;
pub mod store;

pub use handle::CacheHandle;
pub use line::MAX_LINE_BYTES;
pub use server::{Server, PROTOCOL_VERSION};
pub use store::{Store, StoreStats, STORE_SCHEMA};
