//! `CacheHandle`: the bridge between the producer crates' cache hooks and
//! the on-disk [`Store`].
//!
//! The producer crates (`chicala-lowlevel`, `chicala-verify`) each expose
//! a narrow byte-level cache trait and a global installation point; this
//! crate cannot be a dependency of either (it depends on both), so the
//! wiring runs the other way: one [`CacheHandle`] over one store
//! implements both traits and [`CacheHandle::install`] plugs it into every
//! hook. After installation, *every* call to `prove_net` or `discharge_vc`
//! in the process — daemon or not — reads and feeds the persistent store.
//! That is what makes `cargo test` and the benches benefit without
//! speaking the service protocol.

use crate::store::{Store, StoreStats};
use std::sync::Arc;

/// Artifact namespace names inside the store (subdirectory per kind).
pub const KIND_PROVE: &str = "prove";
/// VC discharge namespace.
pub const KIND_VC: &str = "vc";
/// Conformance-report namespace (used by the server, not a hook).
pub const KIND_REPORT: &str = "report";

/// A cloneable handle over one artifact store, implementing every
/// producer-crate cache hook.
#[derive(Clone)]
pub struct CacheHandle {
    store: Arc<Store>,
}

impl CacheHandle {
    /// A handle over `store`.
    pub fn new(store: Arc<Store>) -> CacheHandle {
        CacheHandle { store }
    }

    /// A handle over the default store location ([`Store::default_root`]).
    pub fn at_default_root() -> CacheHandle {
        CacheHandle::new(Arc::new(Store::open(Store::default_root())))
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Store traffic counters (hits/misses/evictions/bytes).
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Installs this handle into every producer-crate hook: gate proofs
    /// and VC discharges start flowing through the persistent store.
    pub fn install(&self) {
        chicala_lowlevel::cache::set_prove_cache(Some(Arc::new(self.clone())));
        chicala_verify::cache::set_vc_cache(Some(Arc::new(self.clone())));
    }

    /// Removes whatever handles are installed in the hooks.
    pub fn uninstall_all() {
        chicala_lowlevel::cache::set_prove_cache(None);
        chicala_verify::cache::set_vc_cache(None);
    }

    /// Environment-driven installation for CLIs and examples:
    ///
    /// * `CHICALA_CACHE` unset, `0`, or `off` — no cache, `None`;
    /// * anything else — open `CHICALA_CACHE_DIR` (default
    ///   `target/chicala-cache`), install, and return the handle so the
    ///   caller can report stats.
    pub fn install_from_env() -> Option<CacheHandle> {
        match std::env::var("CHICALA_CACHE") {
            Ok(v) if !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("off") => {
                let handle = CacheHandle::at_default_root();
                handle.install();
                Some(handle)
            }
            _ => None,
        }
    }
}

impl chicala_lowlevel::cache::ProveCache for CacheHandle {
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.store.lookup(KIND_PROVE, key)
    }
    fn store(&self, key: &[u8], payload: &[u8]) {
        self.store.store(KIND_PROVE, key, payload);
    }
}

impl chicala_verify::cache::VcCache for CacheHandle {
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>> {
        self.store.lookup(KIND_VC, key)
    }
    fn store(&self, key: &[u8], payload: &[u8]) {
        self.store.store(KIND_VC, key, payload);
    }
}
