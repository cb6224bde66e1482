//! Pins the automatic core's search on the VCs `perfbench`'s `proof`
//! workload discharges: each of the 68 known-proved VCs must prove with no
//! deadline, and its number of Fourier–Motzkin calls (`refute_calls`) must
//! equal the committed count exactly.
//!
//! The count is the kernel's fingerprint. A change that only moves work
//! around (a store layout, a scheduler) must leave every count as it is; a
//! change that alters the search must update [`EXPECTED`] in the same
//! commit and say why. The kernel proves a goal's hypothesis cases across
//! `CHICALA_WORKERS` workers, and the counts must not depend on it: CI runs
//! this test with one worker and with the default count.
//!
//! `refute_calls()` is process-global, so this binary holds one test and
//! discharges one VC at a time, each on a fresh thread like the benchmark
//! does. Under `cargo test` on a 2-core machine it takes a few seconds.

use chicala_core::transform;
use chicala_designs::verified_designs;
use chicala_verify::{discharge_vc, generate_vcs, prepare_env, refute_calls, Env, Proof};
use std::collections::BTreeMap;

/// `(design/vc, refute_calls)` for every known-proved VC, in the order of
/// `perfbench`'s `PROVED` list: 27,129 calls in all (rotate 10,801, rmul
/// 6,475, xmul 4,872, rdiv 572, xdiv 4,409).
const EXPECTED: &[(&str, u64)] = &[
    ("rotate/obligation:0", 2),
    ("rotate/obligation:1", 3),
    ("rotate/obligation:2", 3),
    ("rotate/init:0", 8),
    ("rotate/init:1", 3),
    ("rotate/init:2", 3),
    ("rotate/preserve:0", 2136),
    ("rotate/preserve:1", 1721),
    ("rotate/measure:nonneg", 216),
    ("rotate/measure:dec", 3634),
    ("rotate/bounds:cnt", 224),
    ("rotate/bounds:R", 2848),
    ("rmul/obligation:0", 2),
    ("rmul/obligation:1", 2),
    ("rmul/obligation:2", 2),
    ("rmul/obligation:3", 10),
    ("rmul/obligation:4", 10),
    ("rmul/init:0", 40),
    ("rmul/init:1", 19),
    ("rmul/init:2", 19),
    ("rmul/init:3", 19),
    ("rmul/init:4", 19),
    ("rmul/measure:nonneg", 2532),
    ("rmul/bounds:cnt", 1560),
    ("rmul/bounds:b_sh", 2241),
    ("xmul/obligation:0", 2),
    ("xmul/obligation:1", 2),
    ("xmul/obligation:2", 2),
    ("xmul/obligation:3", 2),
    ("xmul/obligation:4", 2),
    ("xmul/obligation:5", 2),
    ("xmul/obligation:6", 2),
    ("xmul/obligation:7", 2),
    ("xmul/obligation:8", 2),
    ("xmul/obligation:9", 22),
    ("xmul/obligation:10", 48),
    ("xmul/init:0", 186),
    ("xmul/init:1", 92),
    ("xmul/init:2", 92),
    ("xmul/init:3", 92),
    ("xmul/measure:nonneg", 2848),
    ("xmul/bounds:cnt", 1474),
    ("rdiv/obligation:0", 2),
    ("rdiv/obligation:1", 2),
    ("rdiv/obligation:2", 2),
    ("rdiv/obligation:3", 2),
    ("rdiv/obligation:4", 2),
    ("rdiv/obligation:5", 4),
    ("rdiv/obligation:6", 4),
    ("rdiv/init:0", 12),
    ("rdiv/init:1", 5),
    ("rdiv/init:2", 5),
    ("rdiv/init:3", 5),
    ("rdiv/init:4", 5),
    ("rdiv/init:5", 5),
    ("rdiv/init:6", 5),
    ("rdiv/bounds:d_reg", 512),
    ("xdiv/obligation:0", 2),
    ("xdiv/obligation:1", 2),
    ("xdiv/obligation:2", 17),
    ("xdiv/obligation:3", 17),
    ("xdiv/init:0", 114),
    ("xdiv/init:1", 56),
    ("xdiv/init:2", 56),
    ("xdiv/init:3", 56),
    ("xdiv/init:4", 56),
    ("xdiv/bounds:cnt", 3905),
    ("xdiv/bounds:d_reg", 128),
];

#[test]
fn known_proved_vcs_keep_their_refute_calls() {
    let expected: BTreeMap<&str, u64> = EXPECTED.iter().copied().collect();
    assert_eq!(expected.len(), 68, "duplicate VC in EXPECTED");
    let mut got: BTreeMap<String, Result<u64, String>> = BTreeMap::new();
    let start = std::time::Instant::now();
    for d in verified_designs() {
        let Some(spec) = d.spec else { continue };
        let spec = spec();
        let out = transform(&(d.module)()).unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let mut env = Env::new();
        chicala_bvlib::install_bitvec(&mut env)
            .unwrap_or_else(|(n, e)| panic!("{}: lemma {n}: {e}", d.name));
        prepare_env(&mut env, &spec).unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let vcs = generate_vcs(&out.program, &spec, &out.obligations)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name));
        for vc in &vcs {
            let key = format!("{}/{}", d.name, vc.name);
            if !expected.contains_key(key.as_str()) {
                continue;
            }
            let proof = spec.proofs.get(&vc.name).cloned().unwrap_or(Proof::Auto);
            // A fresh thread starts from empty thread-local stores.
            let run = std::thread::scope(|s| {
                s.spawn(|| {
                    let calls = refute_calls();
                    let r = discharge_vc(&env, vc, &proof);
                    r.map(|()| refute_calls() - calls)
                        .map_err(|e| e.to_string())
                })
                .join()
                .expect("discharge thread")
            });
            got.insert(key, run);
        }
    }
    eprintln!(
        "{} VCs in {:.2} s",
        got.len(),
        start.elapsed().as_secs_f64()
    );
    let mut wrong = Vec::new();
    for (&key, &want) in &expected {
        match got.get(key) {
            None => wrong.push(format!("{key}: no longer generated")),
            Some(Err(e)) => wrong.push(format!("{key}: did not prove: {e}")),
            Some(Ok(calls)) if *calls != want => {
                wrong.push(format!("{key}: {calls} refute calls, expected {want}"))
            }
            Some(Ok(_)) => {}
        }
    }
    assert!(
        wrong.is_empty(),
        "the kernel's search changed:\n  {}",
        wrong.join("\n  ")
    );
}
