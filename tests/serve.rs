//! Integration surface of the verification service (`crates/serve`): the
//! persistent content-addressed store driven through the *real*
//! VC-discharge and conformance-report paths, byte identity of `prove` and
//! `conformance` answers across cold, warm and fresh servers, plus the
//! cross-process digest stability the store's soundness story leans on.
//!
//! The VC cache hook is a process-wide global (`CacheHandle::install`,
//! which `Server::new` calls), so every test that installs one serializes
//! on [`cache_lock`] and uninstalls before releasing it.

use chicala::serve::{CacheHandle, Server, Store, STORE_SCHEMA};
use chicala::telemetry::{fnv64, JsonValue};
use chicala::trace::json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serializes the tests that install the global VC cache hook.
fn cache_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A fresh per-process store root under `target/`, pre-cleaned.
fn tmp_root(tag: &str) -> PathBuf {
    let p = PathBuf::from(format!(
        "target/chicala-serve-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Sends one line, asserts the envelope is ok, returns the `result`
/// serialization (the byte-comparable part of the response).
fn result_of(server: &Server, label: &str, line: &str) -> String {
    let resp = server.handle_line(line);
    let v = json::parse(&resp).unwrap_or_else(|e| panic!("{label}: bad JSON: {e}"));
    assert_eq!(
        json::get(&v, "ok"),
        Some(&JsonValue::Bool(true)),
        "{label}: request failed: {resp}"
    );
    json::get(&v, "result").expect("ok response carries result").to_string()
}

/// Entry files currently stored under `<root>/<kind>/`.
fn kind_entries(root: &Path, kind: &str) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(dir) = std::fs::read_dir(root.join(kind)) {
        for e in dir.flatten() {
            out.push(e.path());
        }
    }
    out.sort();
    out
}

const PROVE_LINE: &str = r#"{"op":"prove","design":"rmul","width":6}"#;
const CONF_LINE: &str = r#"{"op":"conformance","design":"rotate","seed":3,"cases":3,"max_width":8,"layers":"cosim,spec"}"#;

// ---------------------------------------------------------------------------
// Cross-process digest stability (satellite: CHICALA_CACHE_SELFTEST).
// ---------------------------------------------------------------------------

const SELFTEST_ENV: &str = "CHICALA_CACHE_SELFTEST";
const SELFTEST_PREFIX: &str = "SELFTEST-DIGEST ";

/// Child half of the selftest: inert unless [`SELFTEST_ENV`] is set. Runs
/// two conformance requests through a server over a private store, then
/// prints every stored entry's `kind/digest` filename. The filenames *are*
/// the content digests, so byte-identical listings across fresh processes
/// mean the report key transcript is free of run-to-run nondeterminism —
/// iteration order, layout, or address leakage.
#[test]
fn selftest_child_emit_digests() {
    if std::env::var(SELFTEST_ENV).is_err() {
        return;
    }
    let root = tmp_root("selftest");
    {
        let server = Server::new(Some(CacheHandle::new(Arc::new(Store::open(&root)))));
        result_of(
            &server,
            "selftest conformance (rotate)",
            r#"{"op":"conformance","design":"rotate","seed":1,"cases":2,"max_width":6,"layers":"cosim,spec"}"#,
        );
        result_of(
            &server,
            "selftest conformance (popcount)",
            r#"{"op":"conformance","design":"popcount","seed":1,"cases":2,"max_width":6,"layers":"cosim,spec"}"#,
        );
    }
    CacheHandle::uninstall_all();
    let mut names = Vec::new();
    for kind in ["vc", "report"] {
        for path in kind_entries(&root, kind) {
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            names.push(format!("{kind}/{file}"));
        }
    }
    names.sort();
    for name in &names {
        println!("{SELFTEST_PREFIX}{name}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// 20 fresh processes, each computing the store digests from scratch, must
/// agree byte-for-byte. Catches any hash input that varies per process
/// (map iteration order, ASLR'd addresses, uninitialised padding).
#[test]
fn digests_are_stable_across_20_processes() {
    if std::env::var(SELFTEST_ENV).is_ok() {
        return;
    }
    let exe = std::env::current_exe().expect("test executable path");
    let children: Vec<_> = (0..20)
        .map(|i| {
            Command::new(&exe)
                .args(["selftest_child_emit_digests", "--exact", "--nocapture", "--test-threads", "1"])
                .env(SELFTEST_ENV, "1")
                .env_remove("CHICALA_CACHE_DIR")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .unwrap_or_else(|e| panic!("spawn child {i}: {e}"))
        })
        .collect();
    let mut first: Option<Vec<String>> = None;
    for (i, child) in children.into_iter().enumerate() {
        let out = child.wait_with_output().unwrap_or_else(|e| panic!("child {i}: {e}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "selftest child {i} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // With `--nocapture` the first digest shares a line with libtest's
        // `test NAME ... ` banner, so the prefix is searched, not anchored.
        let digests: Vec<String> = stdout
            .lines()
            .filter_map(|l| l.split_once(SELFTEST_PREFIX).map(|(_, d)| d.to_string()))
            .collect();
        assert_eq!(
            digests.iter().filter(|d| d.starts_with("report/")).count(),
            2,
            "child {i} did not store one `report/` entry per request: {digests:?}\n{stdout}"
        );
        match &first {
            None => first = Some(digests),
            Some(f) => assert_eq!(&digests, f, "child {i} computed different digests"),
        }
    }
}

// ---------------------------------------------------------------------------
// Byte-identity: a served artifact must be indistinguishable from fresh work.
// ---------------------------------------------------------------------------

/// Cold, warm (same store, fresh server), and control (empty store)
/// responses must be byte-identical, and the cold pass must actually file
/// its conformance report — a cache whose writes are silently refused
/// would still pass every equality check here, so the population
/// assertion is the regression guard for that failure mode.
#[test]
fn warm_and_fresh_responses_are_byte_identical() {
    let _guard = cache_lock();
    let persist = tmp_root("identity-persist");
    let control = tmp_root("identity-control");
    let labels_lines = [("prove", PROVE_LINE), ("conformance", CONF_LINE)];

    let store = Arc::new(Store::open(&persist));
    let cold: Vec<String> = {
        let server = Server::new(Some(CacheHandle::new(Arc::clone(&store))));
        labels_lines.iter().map(|(l, line)| result_of(&server, l, line)).collect()
    };
    assert!(store.stats().writes > 0, "cold pass wrote nothing to the store");
    assert!(
        !kind_entries(&persist, "report").is_empty(),
        "cold pass left `report/` empty — writes are being refused"
    );

    // Warm: fresh server (empty batching memo, fresh pool) over the same
    // store — the persistence-only replay, as after a daemon restart.
    let store2 = Arc::new(Store::open(&persist));
    let server2 = Server::new(Some(CacheHandle::new(Arc::clone(&store2))));
    for ((label, line), cold) in labels_lines.iter().zip(&cold) {
        let warm = result_of(&server2, label, line);
        assert_eq!(&warm, cold, "{label}: warm result differs from cold");
    }
    assert!(store2.stats().hits > 0, "warm pass never hit the store");
    assert!(store2.stats().writes == 0, "warm pass recomputed a stored report");

    // Control: a server over an empty store recomputes everything; the
    // results must still match, or the cache changed an answer.
    let server3 = Server::new(Some(CacheHandle::new(Arc::new(Store::open(&control)))));
    for ((label, line), cold) in labels_lines.iter().zip(&cold) {
        let fresh = result_of(&server3, label, line);
        assert_eq!(&fresh, cold, "{label}: fresh result differs from cached");
    }

    CacheHandle::uninstall_all();
    let _ = std::fs::remove_dir_all(&persist);
    let _ = std::fs::remove_dir_all(&control);
}

// ---------------------------------------------------------------------------
// Robustness: corrupt entries are evicted and transparently recomputed.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum Corruption {
    /// Half the file is gone (torn write, disk-full truncation).
    Truncate,
    /// One payload bit flipped (bit rot); the checksum must catch it.
    BitFlip,
    /// Valid framing and checksum, but a future schema version — a store
    /// from a newer build must read as a miss, not as garbage.
    WrongSchema,
}

fn corrupt(path: &Path, mode: Corruption) {
    let mut data = std::fs::read(path).expect("read entry");
    match mode {
        Corruption::Truncate => data.truncate(data.len() / 2),
        Corruption::BitFlip => {
            let at = data.len() - 12;
            data[at] ^= 0x40;
        }
        Corruption::WrongSchema => {
            // Layout: MAGIC (13 bytes) | schema u32 | ... | fnv64 checksum.
            data[13..17].copy_from_slice(&(STORE_SCHEMA + 1).to_le_bytes());
            let body_len = data.len() - 8;
            let check = fnv64(&data[..body_len]).to_le_bytes();
            data[body_len..].copy_from_slice(&check);
        }
    }
    std::fs::write(path, &data).expect("write corrupted entry");
}

/// Every corruption mode must be detected on read, evicted, and the
/// request transparently recomputed through the real conformance path
/// with a byte-identical result — a cache bug may cost time, never
/// soundness. After each recompute the entry must be healthy again (the
/// following clean request hits).
#[test]
fn corrupted_store_entries_are_evicted_and_reproved() {
    let _guard = cache_lock();
    let root = tmp_root("robust");
    let store = Arc::new(Store::open(&root));
    let server = Server::new(Some(CacheHandle::new(Arc::clone(&store))));

    let cold = result_of(&server, "cold", CONF_LINE);
    let entries = kind_entries(&root, "report");
    assert!(!entries.is_empty(), "conformance pass stored no report");

    for mode in [Corruption::Truncate, Corruption::BitFlip, Corruption::WrongSchema] {
        for path in &kind_entries(&root, "report") {
            corrupt(path, mode);
        }
        let before = store.stats();
        let reproved = result_of(&server, &format!("{mode:?} recompute"), CONF_LINE);
        assert_eq!(reproved, cold, "{mode:?}: recomputed result differs");
        let after = store.stats();
        assert!(
            after.evictions > before.evictions,
            "{mode:?}: corruption was not detected/evicted \
             (evictions {} -> {})",
            before.evictions,
            after.evictions
        );
        // The recompute must also have healed the store.
        let hits_before = store.stats().hits;
        let healed = result_of(&server, &format!("{mode:?} healed"), CONF_LINE);
        assert_eq!(healed, cold, "{mode:?}: healed result differs");
        assert!(
            store.stats().hits > hits_before,
            "{mode:?}: store was not repopulated after eviction"
        );
    }

    CacheHandle::uninstall_all();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// VC discharge artifacts persist and re-hit across "restarts".
// ---------------------------------------------------------------------------

/// Discharges the cheap `obligation:*` VCs of the rotate spec twice over
/// one store: the first pass must persist proof markers, the second (with
/// a fresh env, as after a restart) must serve them from the store.
#[test]
fn vc_discharges_persist_in_the_store() {
    let _guard = cache_lock();
    let root = tmp_root("vc");
    let handle = CacheHandle::new(Arc::new(Store::open(&root)));
    handle.install();

    let discharge_obligations = |handle: &CacheHandle| -> usize {
        let vd = chicala::designs::verified_designs()
            .into_iter()
            .find(|d| d.name == "rotate")
            .expect("rotate is registered");
        let module = (vd.module)();
        let out = chicala::core::transform(&module).expect("transform rotate");
        let mut env = chicala::verify::Env::new();
        chicala::bvlib::install_bitvec(&mut env)
            .unwrap_or_else(|(n, e)| panic!("lemma {n}: {e}"));
        let spec = (vd.spec.expect("rotate has a spec"))();
        chicala::verify::prepare_env(&mut env, &spec).expect("prepare env");
        let vcs = chicala::verify::generate_vcs(&out.program, &spec, &out.obligations)
            .expect("generate vcs");
        let mut proved = 0;
        for vc in vcs.iter().filter(|vc| vc.name.starts_with("obligation:")) {
            let proof =
                spec.proofs.get(&vc.name).cloned().unwrap_or(chicala::verify::Proof::Auto);
            chicala::verify::discharge_vc(&env, vc, &proof)
                .unwrap_or_else(|e| panic!("VC {} failed: {e}", vc.name));
            proved += 1;
        }
        assert!(proved > 0, "rotate spec has no obligation VCs");
        let _ = handle;
        proved
    };

    let first = discharge_obligations(&handle);
    let stats = handle.stats();
    assert!(
        !kind_entries(&root, "vc").is_empty(),
        "no VC proof markers were persisted"
    );
    assert!(stats.writes > 0, "VC pass wrote nothing");

    let second = discharge_obligations(&handle);
    assert_eq!(first, second);
    assert!(
        handle.stats().hits > stats.hits,
        "second VC pass did not hit the persisted markers"
    );

    CacheHandle::uninstall_all();
    let _ = std::fs::remove_dir_all(&root);
}
