//! Content-addressed caching hook for gate-level proofs.
//!
//! [`prove_net`](crate::check::prove_net) is the single entry
//! point for every formal gate proof in the pipeline, which makes it the
//! natural seam for a persistent proof cache: identical obligations (same
//! property cone, same engine) always produce the same [`ProveResult`], so
//! a certificate proved once can be served forever.
//!
//! This crate cannot depend on the service crate (the service depends on
//! the conformance registry, which depends on this crate), so the store is
//! injected: `chicala-serve`'s `CacheHandle` implements [`ProveCache`] and
//! installs itself via [`set_prove_cache`]. With no cache installed every
//! call proves from scratch, exactly as before.
//!
//! Soundness posture — a cache bug may cost time, never soundness:
//!
//! * the key is the **complete canonical transcript** of the proof
//!   obligation (cone gates by net id, root, resolved backend, width,
//!   variable order, schema version), and the store layer re-verifies the
//!   full transcript bytes on every read, so a digest collision cannot
//!   alias two obligations;
//! * a cached **counterexample** is re-evaluated against the live netlist
//!   before being served — if it no longer falsifies the property the
//!   entry is treated as a miss and the proof re-runs;
//! * undecodable payloads are misses, never errors.

use crate::check::{Backend, ProveResult};
use crate::netlist::{Gate, Net, Netlist};
use chicala_telemetry as telemetry;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// Bumped whenever the key transcript or payload encoding changes shape,
/// so stale stores self-invalidate instead of being misread.
pub const PROVE_KEY_SCHEMA: u32 = 2;

/// A content-addressed store for gate-level proof certificates.
///
/// `key` is the canonical obligation transcript; the store derives its
/// own address from it. Implementations must only return a payload
/// previously stored under a byte-identical key.
pub trait ProveCache: Send + Sync {
    /// Returns the stored payload for an identical key, if any.
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Persists `payload` under `key`. Failures must be silent (a cache
    /// that cannot write is just a cache that never hits).
    fn store(&self, key: &[u8], payload: &[u8]);
}

static PROVE_CACHE: RwLock<Option<Arc<dyn ProveCache>>> = RwLock::new(None);

/// Installs (or, with `None`, removes) the process-wide proof cache.
pub fn set_prove_cache(cache: Option<Arc<dyn ProveCache>>) {
    *PROVE_CACHE.write().expect("prove cache slot") = cache;
}

fn prove_cache() -> Option<Arc<dyn ProveCache>> {
    PROVE_CACHE.read().expect("prove cache slot").clone()
}

/// Builds the canonical obligation key (self-describing, schema-versioned
/// transcript bytes) for [`prove_net`] inputs.
///
/// Only the cone of `root` enters the transcript (dead netlist regions
/// cannot affect the verdict), written in net-id order — deterministic
/// because gate ids are allocation-ordered and [`Netlist`] stores them in
/// a `Vec`, never iterating its structural-hash map.
///
/// `var_order` is part of the key even though it cannot change the
/// verdict: it *can* change which counterexample is found, and cached
/// responses must be byte-identical to fresh ones.
///
/// [`prove_net`]: crate::check::prove_net
pub fn prove_key(
    nl: &Netlist,
    root: Net,
    backend: Backend,
    width: usize,
    var_order: &[Net],
) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(64 + nl.len() * 5);
    bytes.extend_from_slice(b"chicala-prove");
    bytes.extend_from_slice(&PROVE_KEY_SCHEMA.to_le_bytes());
    bytes.push(match backend.resolve(width) {
        Backend::Bdd => 0,
        Backend::Sat => 1,
        Backend::Auto => unreachable!("resolve never yields Auto"),
    });
    bytes.extend_from_slice(&(width as u64).to_le_bytes());
    bytes.extend_from_slice(&root.0.to_le_bytes());
    bytes.extend_from_slice(&(var_order.len() as u32).to_le_bytes());
    for n in var_order {
        bytes.extend_from_slice(&n.0.to_le_bytes());
    }
    // Cone transcript in net-id order.
    let mut in_cone = vec![false; nl.len()];
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut in_cone[n.0 as usize], true) {
            continue;
        }
        match nl.gate(n) {
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Gate::Not(a) => stack.push(a),
            Gate::Const(_) | Gate::Input => {}
        }
    }
    for (i, &cone) in in_cone.iter().enumerate() {
        if !cone {
            continue;
        }
        let net = Net(i as u32);
        bytes.extend_from_slice(&net.0.to_le_bytes());
        match nl.gate(net) {
            Gate::Const(b) => {
                bytes.push(0);
                bytes.push(b as u8);
            }
            Gate::Input => bytes.push(1),
            Gate::And(a, b) => {
                bytes.push(2);
                bytes.extend_from_slice(&a.0.to_le_bytes());
                bytes.extend_from_slice(&b.0.to_le_bytes());
            }
            Gate::Or(a, b) => {
                bytes.push(3);
                bytes.extend_from_slice(&a.0.to_le_bytes());
                bytes.extend_from_slice(&b.0.to_le_bytes());
            }
            Gate::Xor(a, b) => {
                bytes.push(4);
                bytes.extend_from_slice(&a.0.to_le_bytes());
                bytes.extend_from_slice(&b.0.to_le_bytes());
            }
            Gate::Not(a) => {
                bytes.push(5);
                bytes.extend_from_slice(&a.0.to_le_bytes());
            }
        }
    }
    bytes
}

/// Encodes a [`ProveResult`] as a stable payload.
pub fn encode_result(r: &ProveResult) -> Vec<u8> {
    let mut out = Vec::new();
    let backend_tag = |b: &Backend| match b {
        Backend::Bdd => 0u8,
        Backend::Sat => 1,
        Backend::Auto => 2,
    };
    match r {
        ProveResult::Proved { backend } => {
            out.push(0);
            out.push(backend_tag(backend));
        }
        ProveResult::Counterexample { backend, inputs } => {
            out.push(1);
            out.push(backend_tag(backend));
            out.extend_from_slice(&(inputs.len() as u32).to_le_bytes());
            for (net, val) in inputs {
                out.extend_from_slice(&net.0.to_le_bytes());
                out.push(*val as u8);
            }
        }
    }
    out
}

/// Decodes a payload written by [`encode_result`]. `None` on any
/// malformed input (trailing bytes included) — malformed means miss.
pub fn decode_result(bytes: &[u8]) -> Option<ProveResult> {
    let backend_of = |t: u8| match t {
        0 => Some(Backend::Bdd),
        1 => Some(Backend::Sat),
        2 => Some(Backend::Auto),
        _ => None,
    };
    match *bytes.first()? {
        0 => {
            if bytes.len() != 2 {
                return None;
            }
            Some(ProveResult::Proved { backend: backend_of(bytes[1])? })
        }
        1 => {
            if bytes.len() < 6 {
                return None;
            }
            let backend = backend_of(bytes[1])?;
            let n = u32::from_le_bytes(bytes[2..6].try_into().ok()?) as usize;
            if bytes.len() != 6 + n * 5 {
                return None;
            }
            let mut inputs = BTreeMap::new();
            for i in 0..n {
                let at = 6 + i * 5;
                let net = Net(u32::from_le_bytes(bytes[at..at + 4].try_into().ok()?));
                let val = match bytes[at + 4] {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                inputs.insert(net, val);
            }
            Some(ProveResult::Counterexample { backend, inputs })
        }
        _ => None,
    }
}

/// Cache-side of [`prove_net`](crate::check::prove_net): returns a cached
/// result for this obligation if one is stored and sound to serve.
pub(crate) fn cached_prove(key: &[u8], nl: &Netlist, root: Net) -> Option<ProveResult> {
    let cache = prove_cache()?;
    let payload = match cache.lookup(key) {
        Some(p) => p,
        None => {
            telemetry::counter("cache.prove.miss", 1);
            return None;
        }
    };
    let result = match decode_result(&payload) {
        Some(r) => r,
        None => {
            telemetry::counter("cache.prove.undecodable", 1);
            return None;
        }
    };
    // Defense in depth: a counterexample is cheap to re-check against the
    // live netlist; never serve one that does not actually falsify.
    if let ProveResult::Counterexample { inputs, .. } = &result {
        let vals = nl.eval(&|net| inputs.get(&net).copied().unwrap_or(false));
        if vals[root.0 as usize] {
            telemetry::counter("cache.prove.stale_cex", 1);
            return None;
        }
    }
    telemetry::counter("cache.prove.hit", 1);
    Some(result)
}

/// Store-side of [`prove_net`](crate::check::prove_net): persists a
/// freshly computed result.
pub(crate) fn store_prove(key: &[u8], result: &ProveResult) {
    if let Some(cache) = prove_cache() {
        cache.store(key, &encode_result(result));
    }
}

/// Whether a prove cache is currently installed (used to skip key
/// construction entirely on the uncached path).
pub(crate) fn prove_cache_installed() -> bool {
    PROVE_CACHE.read().expect("prove cache slot").is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder_miter() -> (Netlist, Net, Vec<Net>) {
        use crate::bitblast::add_words;
        use crate::bitblast::Word;
        let mut nl = Netlist::new();
        let w = 4usize;
        let a = Word { bits: (0..w).map(|_| nl.input()).collect::<Vec<_>>(), signed: false };
        let b = Word { bits: (0..w).map(|_| nl.input()).collect::<Vec<_>>(), signed: false };
        let ab = add_words(&mut nl, &a, &b, w);
        let ba = add_words(&mut nl, &b, &a, w);
        let eq = crate::check::nets_equal(&mut nl, &ab, &ba);
        let order: Vec<Net> = (0..w).flat_map(|i| [a.bits[i], b.bits[i]]).collect();
        (nl, eq, order)
    }

    #[test]
    fn key_is_deterministic_and_input_sensitive() {
        let (nl, root, order) = adder_miter();
        let k1 = prove_key(&nl, root, Backend::Sat, 4, &order);
        let k2 = prove_key(&nl, root, Backend::Sat, 4, &order);
        assert_eq!(k1, k2);
        // Every key input must move the key.
        let kw = prove_key(&nl, root, Backend::Sat, 5, &order);
        assert_ne!(k1, kw, "width");
        let kb = prove_key(&nl, root, Backend::Bdd, 4, &order);
        assert_ne!(k1, kb, "backend");
        let ko = prove_key(&nl, root, Backend::Sat, 4, &[]);
        assert_ne!(k1, ko, "var order");
    }

    #[test]
    fn auto_resolves_before_keying() {
        // Auto at width 4 and explicit Bdd at width 4 are the same
        // obligation — they must share a certificate.
        let (nl, root, order) = adder_miter();
        let ka = prove_key(&nl, root, Backend::Auto, 4, &order);
        let kb = prove_key(&nl, root, Backend::Bdd, 4, &order);
        assert_eq!(ka, kb);
    }

    #[test]
    fn result_roundtrip() {
        let proved = ProveResult::Proved { backend: Backend::Sat };
        assert_eq!(decode_result(&encode_result(&proved)), Some(proved));
        let cex = ProveResult::Counterexample {
            backend: Backend::Bdd,
            inputs: [(Net(3), true), (Net(7), false)].into_iter().collect(),
        };
        assert_eq!(decode_result(&encode_result(&cex)), Some(cex));
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(decode_result(&[]), None);
        assert_eq!(decode_result(&[9]), None);
        assert_eq!(decode_result(&[0, 7]), None, "bad backend tag");
        let mut cex = encode_result(&ProveResult::Counterexample {
            backend: Backend::Sat,
            inputs: [(Net(1), true)].into_iter().collect(),
        });
        cex.pop();
        assert_eq!(decode_result(&cex), None, "truncated");
        let proved = encode_result(&ProveResult::Proved { backend: Backend::Bdd });
        let mut trailing = proved.clone();
        trailing.push(0);
        assert_eq!(decode_result(&trailing), None, "trailing bytes");
    }
}
