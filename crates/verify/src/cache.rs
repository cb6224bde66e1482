//! Content-addressed caching hook for kernel VC discharge.
//!
//! [`discharge_vc`](crate::vcgen::discharge_vc) re-proves every VC from
//! scratch on every run, even though a VC's provability is a pure function
//! of the environment's logical content, the VC statement, and the proof
//! script. This module adds the cache seam: the service crate implements
//! [`VcCache`] over its content-addressed store and installs it via
//! [`set_vc_cache`]; with nothing installed, behaviour is unchanged.
//!
//! Soundness posture (a kernel verdict cannot be cheaply re-checked):
//!
//! * **only successes are cached.** A failure may be a timeout or a limit
//!   artifact; re-running it is the only honest answer. A cache hit
//!   therefore means exactly "this statement was proved by this script in
//!   this environment before".
//! * the [`Limits`](crate::kernel::Limits) deadline is excluded from the
//!   key: it bounds how long a search runs, never what a finished search
//!   proves, so a recorded success is valid under any deadline. Nothing
//!   else is excluded — environment content, VC name, hypotheses, goal,
//!   and the full proof script (its derived `Hash`) all enter the digest.
//! * the store layer re-verifies the full key transcript on read, so a
//!   digest collision cannot alias two different VCs.

use crate::kernel::{Env, Proof};
use crate::vcgen::Vc;
use chicala_telemetry as telemetry;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// Bumped when the key transcript shape changes.
pub const VC_KEY_SCHEMA: u32 = 2;

/// A content-addressed store for VC discharge results. Byte-level: the
/// payload is a short "proved" marker, the key carries all the meaning.
pub trait VcCache: Send + Sync {
    /// Returns the stored payload for an identical key, if any.
    fn lookup(&self, key: &[u8]) -> Option<Vec<u8>>;
    /// Persists `payload` under `key`; failures must be silent.
    fn store(&self, key: &[u8], payload: &[u8]);
}

static VC_CACHE: RwLock<Option<Arc<dyn VcCache>>> = RwLock::new(None);

/// Installs (or, with `None`, removes) the process-wide VC cache.
pub fn set_vc_cache(cache: Option<Arc<dyn VcCache>>) {
    *VC_CACHE.write().expect("vc cache slot") = cache;
}

fn vc_cache() -> Option<Arc<dyn VcCache>> {
    VC_CACHE.read().expect("vc cache slot").clone()
}

/// The payload stored for a proved VC.
const PROVED_MARKER: &[u8] = b"proved:v1";

/// The canonical key of one VC discharge: environment content + VC
/// statement + proof script, schema-versioned.
pub fn vc_key(env: &Env, vc: &Vc, proof: &Proof) -> Vec<u8> {
    // The transcript bytes the store re-verifies on read. A full
    // structural serialization of Env+Vc+Proof would be large and slow;
    // instead the transcript is a *second, independent* digest pass with a
    // different seed — two simultaneous 128-bit collisions over different
    // polynomials is the collision bar, at O(1) stored bytes.
    let mut key = Vec::with_capacity(48);
    key.extend_from_slice(b"chicala-vc");
    key.extend_from_slice(&VC_KEY_SCHEMA.to_le_bytes());
    for seed in [&b"chicala-vc"[..], b"chicala-vc-check"] {
        key.extend_from_slice(&transcript_digest(seed, env, vc, proof).to_le_bytes());
    }
    key
}

/// One digest pass over the key transcript, seeded with `seed`.
fn transcript_digest(seed: &[u8], env: &Env, vc: &Vc, proof: &Proof) -> u128 {
    let mut h = telemetry::Fnv128::new();
    h.write(seed);
    h.write(&VC_KEY_SCHEMA.to_le_bytes());
    env.content_digest(&mut h);
    vc.name.hash(&mut h);
    vc.hyps.hash(&mut h);
    vc.goal.hash(&mut h);
    proof.hash(&mut h);
    h.finish128()
}

/// A computed key bound to the installed cache, handed back to
/// [`discharge_vc`](crate::vcgen::discharge_vc) so lookup and store share
/// one key construction.
pub(crate) struct VcCacheEntry {
    cache: Arc<dyn VcCache>,
    key: Vec<u8>,
}

impl VcCacheEntry {
    /// `Some` only when a cache is installed.
    pub(crate) fn open(env: &Env, vc: &Vc, proof: &Proof) -> Option<VcCacheEntry> {
        let cache = vc_cache()?;
        let key = vc_key(env, vc, proof);
        Some(VcCacheEntry { cache, key })
    }

    /// Whether this exact discharge is recorded as proved.
    pub(crate) fn hit(&self) -> bool {
        match self.cache.lookup(&self.key) {
            Some(payload) if payload == PROVED_MARKER => {
                telemetry::counter("cache.vc.hit", 1);
                true
            }
            Some(_) => {
                telemetry::counter("cache.vc.undecodable", 1);
                false
            }
            None => {
                telemetry::counter("cache.vc.miss", 1);
                false
            }
        }
    }

    /// Records a successful discharge.
    pub(crate) fn record_proved(&self) {
        self.cache.store(&self.key, PROVED_MARKER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn sample_vc() -> Vc {
        Vc {
            name: "post".into(),
            hyps: vec![Term::var("x").ge(Term::int(0))],
            goal: Term::var("x").eq(Term::var("x")),
        }
    }

    #[test]
    fn key_moves_with_every_component() {
        let env = Env::new();
        let vc = sample_vc();
        let k1 = vc_key(&env, &vc, &Proof::Auto);
        assert_eq!(vc_key(&env, &vc, &Proof::Auto), k1);

        let mut vc2 = vc.clone();
        vc2.goal = Term::var("y").eq(Term::var("y"));
        assert_ne!(vc_key(&env, &vc2, &Proof::Auto), k1, "goal");

        let mut vc3 = vc.clone();
        vc3.name = "other".into();
        assert_ne!(vc_key(&env, &vc3, &Proof::Auto), k1, "name");

        let deeper = Proof::SplitAnd(vec![Proof::Auto]);
        assert_ne!(vc_key(&env, &vc, &deeper), k1, "proof script");

        let mut env2 = Env::new();
        env2.define(crate::kernel::DefFn {
            name: "dbl".into(),
            params: vec!["n".into()],
            body: Term::int(2).mul(Term::var("n")),
        });
        assert_ne!(vc_key(&env2, &vc, &Proof::Auto), k1, "environment");
    }

    #[test]
    fn limits_do_not_move_the_key() {
        let mut env = Env::new();
        let vc = sample_vc();
        let k1 = vc_key(&env, &vc, &Proof::Auto);
        env.limits.deadline = Some(std::time::Instant::now());
        let k2 = vc_key(&env, &vc, &Proof::Auto);
        assert_eq!(k1, k2, "a deadline bounds search, not provability");
    }

    #[test]
    fn proof_walker_distinguishes_shapes() {
        let env = Env::new();
        let vc = sample_vc();
        let a = Proof::Unfold { func: "f".into(), rest: Box::new(Proof::Auto) };
        let b = Proof::Use { lemma: "f".into(), args: vec![], rest: Box::new(Proof::Auto) };
        assert_ne!(vc_key(&env, &vc, &a), vc_key(&env, &vc, &b));
    }
}
