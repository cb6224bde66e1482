//! The on-disk content-addressed artifact store.
//!
//! The artifacts worth keeping across runs — kernel VC verdicts and
//! conformance reports — are addressed by the 128-bit FNV-1a digest of
//! their *key transcript*: the canonical byte encoding of everything that
//! determines the artifact (`chicala_verify::cache::vc_key` builds one,
//! the server's conformance op the other). The
//! store derives the address from the key itself, so a caller can never
//! file an entry where a lookup for the same key would not find it.
//! Entries live at
//!
//! ```text
//! <root>/<kind>/<digest-hex32>.bin
//! ```
//!
//! under `target/chicala-cache/` by default.
//!
//! A cache bug may cost time, never soundness. The invariants that make
//! that hold:
//!
//! * **atomic writes** — entries are written to a process-unique temp file
//!   and `rename(2)`d into place, so readers never observe a torn write;
//! * **exact key verification** — each entry embeds its full key
//!   transcript, and [`Store::lookup`] compares it byte-for-byte against
//!   the request's key. A digest collision (or a truncated/garbled file)
//!   can therefore never serve the wrong artifact;
//! * **checksummed payloads** — a 64-bit FNV checksum over the entire
//!   entry body is verified on read; bit rot is detected, the entry is
//!   **evicted** (unlinked), and the caller recomputes;
//! * **schema versioning** — [`STORE_SCHEMA`] is embedded in every entry;
//!   entries written by an incompatible layout are evicted on read, never
//!   misparsed.
//!
//! Lookup/store failures of any kind (permissions, full disk, concurrent
//! eviction) degrade to cache misses; the store never panics on bad disk
//! state.

use chicala_telemetry::{fnv128, fnv64};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk entry layout version. Bump on any change to the entry framing
/// (key schemas and payload codecs version themselves separately inside
/// the key/payload bytes).
pub const STORE_SCHEMA: u32 = 1;

const MAGIC: &[u8] = b"chicala-cache";

/// Monotonic counters describing the store's traffic since process start.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Lookups that returned a payload.
    pub hits: u64,
    /// Lookups that found nothing (or found an entry that failed
    /// verification and was evicted).
    pub misses: u64,
    /// Entries unlinked because they failed verification: truncated,
    /// bit-flipped, wrong schema, or wrong key (digest collision).
    pub evictions: u64,
    /// Entries unlinked by the size cap (least-recently-used first; see
    /// `CHICALA_CACHE_MAX_BYTES`).
    pub size_evictions: u64,
    /// Successful writes.
    pub writes: u64,
    /// Payload bytes served from the store.
    pub bytes_read: u64,
    /// Entry bytes written to the store.
    pub bytes_written: u64,
}

/// A content-addressed artifact store rooted at one directory.
pub struct Store {
    root: PathBuf,
    /// Size budget for `.bin` entries; `None` = unbounded. When a write
    /// pushes the footprint past the budget, least-recently-*used* entries
    /// (by atime sidecar, falling back to file mtime) are unlinked until
    /// the store fits again.
    max_bytes: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    size_evictions: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`, with the size
    /// budget taken from `CHICALA_CACHE_MAX_BYTES` (unset, empty, or `0`
    /// = unbounded).
    pub fn open(root: impl Into<PathBuf>) -> Store {
        let max_bytes = std::env::var("CHICALA_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n > 0);
        Store::open_capped(root, max_bytes)
    }

    /// Opens a store with an explicit size budget (`None` = unbounded).
    pub fn open_capped(root: impl Into<PathBuf>, max_bytes: Option<u64>) -> Store {
        let root = root.into();
        let _ = fs::create_dir_all(&root);
        Store {
            root,
            max_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            size_evictions: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        }
    }

    /// The default on-disk location: `CHICALA_CACHE_DIR` if set, otherwise
    /// `target/chicala-cache` relative to the working directory.
    pub fn default_root() -> PathBuf {
        match std::env::var("CHICALA_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => PathBuf::from("target/chicala-cache"),
        }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the entry for (`kind`, `key`) lives: named by the FNV-128 of
    /// the key.
    fn entry_path(&self, kind: &str, key: &[u8]) -> PathBuf {
        self.root.join(kind).join(format!("{:032x}.bin", fnv128(key)))
    }

    /// Looks up the payload stored for (`kind`, `key`).
    ///
    /// Any verification failure — bad magic, wrong schema, wrong kind,
    /// non-matching key bytes, bad checksum, truncation — evicts the entry
    /// and reports a miss.
    pub fn lookup(&self, kind: &str, key: &[u8]) -> Option<Vec<u8>> {
        let path = self.entry_path(kind, key);
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match parse_entry(&data, kind, key) {
            Some(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.bytes_read.fetch_add(payload.len() as u64, Ordering::Relaxed);
                self.touch_atime(&path);
                Some(payload)
            }
            None => {
                // Corrupt, stale-schema, or aliased: evict and recompute.
                let _ = fs::remove_file(&path);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persists `payload` under (`kind`, `key`). Atomic: written to a
    /// temp file in the same directory, then renamed over the final path.
    /// All failures are silent (the entry simply won't hit).
    pub fn store(&self, kind: &str, key: &[u8], payload: &[u8]) {
        let entry = build_entry(kind, key, payload);
        let path = self.entry_path(kind, key);
        let (Some(dir), Some(name)) = (path.parent(), path.file_stem()) else { return };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = dir.join(format!(
            ".tmp-{}-{}-{:?}",
            name.to_string_lossy(),
            std::process::id(),
            std::thread::current().id(),
        ));
        let ok = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&entry)?;
            f.sync_all()?;
            fs::rename(&tmp, &path)
        })();
        match ok {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes_written.fetch_add(entry.len() as u64, Ordering::Relaxed);
                self.touch_atime(&path);
                self.enforce_budget();
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
            }
        }
    }

    /// Records a use of `path` in its atime sidecar (best effort; a store
    /// that cannot track recency just approximates LRU with mtime).
    fn touch_atime(&self, path: &Path) {
        if self.max_bytes.is_none() {
            return; // unbounded stores never evict, skip the sidecar I/O
        }
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let _ = fs::write(path.with_extension("atime"), now.to_le_bytes());
    }

    /// Unlinks least-recently-used entries until the `.bin` footprint fits
    /// the budget again. Best effort and silent: racing evictors at worst
    /// re-remove files, and a failed unlink just leaves the store slightly
    /// over budget until the next write.
    fn enforce_budget(&self) {
        let Some(budget) = self.max_bytes else { return };
        let mut entries: Vec<(u64, u64, PathBuf)> = Vec::new(); // (atime, size, path)
        let mut total = 0u64;
        let Ok(kinds) = fs::read_dir(&self.root) else { return };
        for kind in kinds.flatten() {
            let Ok(files) = fs::read_dir(kind.path()) else { continue };
            for f in files.flatten() {
                let path = f.path();
                if path.extension().and_then(|e| e.to_str()) != Some("bin") {
                    continue;
                }
                let Ok(meta) = f.metadata() else { continue };
                let atime = fs::read(path.with_extension("atime"))
                    .ok()
                    .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
                    .or_else(|| {
                        meta.modified().ok().and_then(|m| {
                            m.duration_since(std::time::UNIX_EPOCH)
                                .ok()
                                .map(|d| d.as_nanos() as u64)
                        })
                    })
                    .unwrap_or(0);
                total += meta.len();
                entries.push((atime, meta.len(), path));
            }
        }
        if total <= budget {
            return;
        }
        entries.sort(); // oldest atime first; ties break on size then path
        for (_, size, path) in entries {
            if total <= budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                let _ = fs::remove_file(path.with_extension("atime"));
                total = total.saturating_sub(size);
                self.size_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Traffic counters since process start.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            size_evictions: self.size_evictions.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Current on-disk footprint: (entry count, total bytes), by walking
    /// the store directory. Ignores foreign/temp files.
    pub fn disk_usage(&self) -> (u64, u64) {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        let Ok(kinds) = fs::read_dir(&self.root) else { return (0, 0) };
        for kind in kinds.flatten() {
            let Ok(files) = fs::read_dir(kind.path()) else { continue };
            for f in files.flatten() {
                let name = f.file_name();
                let name = name.to_string_lossy();
                if !name.ends_with(".bin") {
                    continue;
                }
                if let Ok(meta) = f.metadata() {
                    entries += 1;
                    bytes += meta.len();
                }
            }
        }
        (entries, bytes)
    }
}

/// Entry body: magic, schema, kind, key, payload, then a 64-bit FNV
/// checksum of everything before it.
fn build_entry(kind: &str, key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 24 + kind.len() + key.len() + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STORE_SCHEMA.to_le_bytes());
    out.extend_from_slice(&(kind.len() as u32).to_le_bytes());
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let check = fnv64(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Parses and verifies one entry against the request. `None` ⇒ evict.
fn parse_entry(data: &[u8], kind: &str, key: &[u8]) -> Option<Vec<u8>> {
    // Checksum first: everything else assumes intact framing.
    if data.len() < 8 {
        return None;
    }
    let (body, check) = data.split_at(data.len() - 8);
    if fnv64(body) != u64::from_le_bytes(check.try_into().ok()?) {
        return None;
    }
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Option<&[u8]> {
        let end = at.checked_add(n)?;
        let s = body.get(*at..end)?;
        *at = end;
        Some(s)
    };
    if take(&mut at, MAGIC.len())? != MAGIC {
        return None;
    }
    if u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) != STORE_SCHEMA {
        return None;
    }
    let kind_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
    if take(&mut at, kind_len)? != kind.as_bytes() {
        return None;
    }
    let key_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().ok()?) as usize;
    let stored_key = take(&mut at, key_len)?;
    // The heart of the soundness argument: byte-identical key or nothing.
    // The entry was found at the key's address, so a matching stored key
    // also proves the entry is filed where it belongs.
    if stored_key != key {
        return None;
    }
    let payload_len = u64::from_le_bytes(take(&mut at, 8)?.try_into().ok()?) as usize;
    let payload = take(&mut at, payload_len)?;
    if at != body.len() {
        return None;
    }
    Some(payload.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "chicala-store-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir)
    }

    #[test]
    fn roundtrip_and_stats() {
        let store = temp_store("roundtrip");
        let key = b"some-canonical-transcript";
        assert_eq!(store.lookup("prove", key), None);
        store.store("prove", key, b"payload-bytes");
        assert_eq!(store.lookup("prove", key).as_deref(), Some(&b"payload-bytes"[..]));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.evictions), (1, 1, 1, 0));
        let (entries, bytes) = store.disk_usage();
        assert_eq!(entries, 1);
        assert!(bytes > 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn kind_isolates_namespaces() {
        let store = temp_store("kinds");
        let key = b"same-key";
        store.store("prove", key, b"a");
        assert_eq!(store.lookup("vc", key), None, "other kind must miss");
        assert_eq!(store.lookup("prove", key).as_deref(), Some(&b"a"[..]));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_entry_is_evicted_and_rewritable() {
        let store = temp_store("trunc");
        let key = b"key-1";
        store.store("prove", key, b"full payload");
        let path = store.entry_path("prove", key);
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() / 2]).unwrap();
        assert_eq!(store.lookup("prove", key), None, "truncated must miss");
        assert!(!path.exists(), "truncated entry must be evicted");
        assert_eq!(store.stats().evictions, 1);
        // Transparent re-prove: a fresh store succeeds.
        store.store("prove", key, b"full payload");
        assert_eq!(store.lookup("prove", key).as_deref(), Some(&b"full payload"[..]));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn bitflip_anywhere_is_detected() {
        let store = temp_store("bitflip");
        let key = b"key-2";
        store.store("prove", key, b"sensitive certificate");
        let path = store.entry_path("prove", key);
        let clean = fs::read(&path).unwrap();
        for pos in 0..clean.len() {
            let mut dirty = clean.clone();
            dirty[pos] ^= 0x01;
            fs::write(&path, &dirty).unwrap();
            assert_eq!(
                store.lookup("prove", key),
                None,
                "flipped bit at byte {pos} must not be served"
            );
            // Eviction removed it; restore for the next position.
            fs::write(&path, &clean).unwrap();
        }
        assert_eq!(store.lookup("prove", key).as_deref(), Some(&b"sensitive certificate"[..]));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn wrong_schema_version_is_evicted() {
        let store = temp_store("schema");
        let key = b"key-3";
        // Hand-build an entry with a future schema version but a valid
        // checksum: framing intact, layout unknown.
        let mut entry = Vec::new();
        entry.extend_from_slice(MAGIC);
        entry.extend_from_slice(&(STORE_SCHEMA + 1).to_le_bytes());
        entry.extend_from_slice(&(b"prove".len() as u32).to_le_bytes());
        entry.extend_from_slice(b"prove");
        entry.extend_from_slice(&(key.len() as u32).to_le_bytes());
        entry.extend_from_slice(key);
        entry.extend_from_slice(&(3u64).to_le_bytes());
        entry.extend_from_slice(b"abc");
        let check = fnv64(&entry);
        entry.extend_from_slice(&check.to_le_bytes());
        let path = store.entry_path("prove", key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, &entry).unwrap();
        assert_eq!(store.lookup("prove", key), None);
        assert!(!path.exists(), "wrong-schema entry must be evicted");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn key_mismatch_under_same_digest_is_never_served() {
        let store = temp_store("collide");
        store.store("prove", b"key-a", b"certificate-for-a");
        // Simulate a digest collision: file key-a's entry at key-b's
        // address. The byte-exact key check must refuse it and evict it.
        let aliased = store.entry_path("prove", b"key-b");
        fs::copy(store.entry_path("prove", b"key-a"), &aliased).unwrap();
        assert_eq!(store.lookup("prove", b"key-b"), None);
        assert!(!aliased.exists(), "aliased entry must be evicted");
        assert_eq!(store.lookup("prove", b"key-a").as_deref(), Some(&b"certificate-for-a"[..]));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn size_cap_evicts_lru_and_stays_under_budget() {
        let dir = std::env::temp_dir().join(format!(
            "chicala-store-test-lru-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        // Each entry is ~90 bytes of framing + 64 bytes of payload; a
        // 1000-byte budget holds about 6 of them.
        let store = Store::open_capped(&dir, Some(1000));
        let payload = [0xABu8; 64];
        let keys: Vec<Vec<u8>> = (0..20u32).map(|i| format!("entry-{i}").into_bytes()).collect();
        for (i, key) in keys.iter().enumerate() {
            store.store("prove", key, &payload);
            // Keep entry 0 hot: touching it on every round makes it the
            // most recently used, so LRU must spare it.
            if i > 0 {
                assert!(
                    store.lookup("prove", &keys[0]).is_some(),
                    "hot entry must survive every eviction round (round {i})"
                );
            }
        }
        let (_, bytes) = store.disk_usage();
        assert!(bytes <= 1000, "capped store must stay under budget, got {bytes}");
        let s = store.stats();
        assert!(s.size_evictions > 0, "filling past the budget must evict");
        assert_eq!(s.evictions, 0, "size eviction is not corruption eviction");
        // Cold entries were evicted: they miss, and a re-store transparently
        // re-proves (the caller just sees a miss, never an error).
        let cold = &keys[1];
        assert_eq!(store.lookup("prove", cold), None);
        store.store("prove", cold, &payload);
        assert_eq!(store.lookup("prove", cold).as_deref(), Some(&payload[..]));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn uncapped_store_never_size_evicts() {
        let store = temp_store("uncapped");
        for i in 0..50u32 {
            let key = format!("k{i}").into_bytes();
            store.store("prove", &key, &[0u8; 256]);
        }
        assert_eq!(store.stats().size_evictions, 0);
        assert_eq!(store.disk_usage().0, 50);
        let _ = fs::remove_dir_all(store.root());
    }
}
