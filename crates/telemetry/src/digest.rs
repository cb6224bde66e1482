//! Process-stable content digests for the cache layer.
//!
//! The verification service addresses every expensive artifact — VC
//! discharge markers, conformance reports — by a digest of the content
//! that produced it. Those digests live in file names and are
//! compared across processes and machine restarts, so they must be a pure
//! function of the fed bytes: no `RandomState`, no pointer identity, no
//! Rust-version-dependent `SipHash` seeds.
//!
//! [`Fnv128`] is 128-bit FNV-1a implementing [`std::hash::Hasher`], so any
//! `#[derive(Hash)]` type can be digested with its ordinary `Hash` impl —
//! *provided* the type's hashing walk is itself deterministic (no
//! `HashMap`/`HashSet` iteration; `BTreeMap` and `Vec` are fine). The
//! cross-process stability test (`CHICALA_CACHE_SELFTEST`, see
//! `tests/serve.rs`) pins that property for conformance-report keys.

use std::hash::Hasher;

/// The 128-bit FNV-1a offset basis.
const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// The 128-bit FNV prime.
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// A 128-bit FNV-1a hasher. Deterministic across processes, platforms, and
/// Rust versions; `finish()` truncates to the low 64 bits, [`finish128`]
/// returns the full state.
///
/// [`finish128`]: Fnv128::finish128
#[derive(Clone, Debug)]
pub struct Fnv128 {
    state: u128,
    /// Total bytes fed (stored entries record it so a digest collision
    /// would additionally need a length collision to be served).
    len: u64,
}

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv128 {
        Fnv128 { state: FNV128_OFFSET, len: 0 }
    }

    /// The full 128-bit digest of everything written so far.
    pub fn finish128(&self) -> u128 {
        self.state
    }

    /// Number of bytes fed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The digest as 32 lower-case hex characters (the cache file name).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.state)
    }
}

impl Default for Fnv128 {
    fn default() -> Fnv128 {
        Fnv128::new()
    }
}

impl Hasher for Fnv128 {
    fn finish(&self) -> u64 {
        self.state as u64
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
        self.len = self.len.saturating_add(bytes.len() as u64);
    }
}

/// One-shot 128-bit FNV-1a of a byte slice.
pub fn fnv128(bytes: &[u8]) -> u128 {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish128()
}

/// One-shot 64-bit FNV-1a of a byte slice (payload checksums, where the
/// stored length + the 64-bit check are enough to catch corruption).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn known_vectors() {
        // FNV-1a 128 reference values.
        assert_eq!(fnv128(b""), FNV128_OFFSET);
        // FNV-1a 64 of "a" is the classic 0xaf63dc4c8601ec8c.
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        assert_eq!(fnv128(b"abc"), fnv128(b"abc"));
        assert_ne!(fnv128(b"abc"), fnv128(b"acb"));
        assert_ne!(fnv128(b"abc"), fnv128(b"abcd"));
    }

    #[test]
    fn hashes_derived_types_via_std_hash() {
        let v: Vec<(String, u64)> = vec![("len".into(), 8), ("x".into(), 3)];
        let digest = |v: &Vec<(String, u64)>| {
            let mut h = Fnv128::new();
            v.hash(&mut h);
            h.finish128()
        };
        assert_eq!(digest(&v), digest(&v.clone()));
        let mut w = v.clone();
        w.reverse();
        assert_ne!(digest(&v), digest(&w));
    }

    #[test]
    fn tracks_length() {
        let mut h = Fnv128::new();
        h.write(b"hello");
        h.write(b" world");
        assert_eq!(h.len(), 11);
        assert_eq!(h.hex().len(), 32);
    }
}
