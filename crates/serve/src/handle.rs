//! `CacheHandle`: the bridge between the kernel's VC cache hook and the
//! on-disk [`Store`].
//!
//! `chicala-verify` exposes a narrow byte-level cache trait and a global
//! installation point; it cannot depend on this crate (this crate depends
//! on it), so the wiring runs the other way: a [`CacheHandle`] over one
//! store implements the trait and [`CacheHandle::install`] plugs it into
//! the hook. After installation, *every* call to `discharge_vc` in the
//! process — daemon or not — reads and feeds the persistent store. The
//! server files its conformance reports in the same store.

use crate::store::{Store, StoreStats};
use std::sync::Arc;

/// VC discharge namespace: one subdirectory of the store per kind.
pub const KIND_VC: &str = "vc";
/// Conformance-report namespace (used by the server, not a hook).
pub const KIND_REPORT: &str = "report";

/// A cloneable handle over one artifact store, implementing the kernel's
/// VC cache hook.
#[derive(Clone)]
pub struct CacheHandle {
    store: Arc<Store>,
}

impl CacheHandle {
    /// A handle over `store`.
    pub fn new(store: Arc<Store>) -> CacheHandle {
        CacheHandle { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Store traffic counters (hits/misses/evictions/bytes).
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Installs this handle into the VC cache hook: VC discharges start
    /// flowing through the persistent store.
    pub fn install(&self) {
        chicala_verify::cache::set_vc_cache(Some(Arc::new(self.clone())));
    }

    /// Removes whatever handle is installed in the hook.
    pub fn uninstall_all() {
        chicala_verify::cache::set_vc_cache(None);
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
