//! Pins verification-condition generation: for each of the five specs, the
//! number of VCs `generate_vcs` produces and an FNV-1a digest of every VC's
//! name, hypotheses and goal as displayed.
//!
//! `refute_fingerprint.rs` pins the kernel's search on the 68 VCs known to
//! prove; this test covers all 113, the 45 it never discharges included, so
//! a change to VC generation or to the term rewrites it uses must leave
//! every VC identical or update [`EXPECTED`] in the same commit and say why.
//! It discharges nothing and runs in well under a second.

use chicala_core::transform;
use chicala_designs::verified_designs;
use chicala_telemetry::fnv64;
use chicala_verify::generate_vcs;

/// `(design, VCs generated, fnv64 of their text)`: 113 VCs in all.
const EXPECTED: &[(&str, usize, u64)] = &[
    ("rotate", 14, 0xC116C1174CBC543C),
    ("rmul", 22, 0x0B1B3B0FD3B249B8),
    ("xmul", 26, 0x5D4F0E3213A7743D),
    ("rdiv", 30, 0x89E77E660C59D163),
    ("xdiv", 21, 0x22CCE29F0C4C47EF),
];

#[test]
fn every_generated_vc_is_unchanged() {
    let mut got = Vec::new();
    for d in verified_designs() {
        let Some(spec) = d.spec else { continue };
        let out = transform(&(d.module)()).unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let vcs = generate_vcs(&out.program, &spec(), &out.obligations)
            .unwrap_or_else(|e| panic!("{}: {e}", d.name));
        let mut text = String::new();
        for vc in &vcs {
            text.push_str(&vc.name);
            text.push('\n');
            for h in &vc.hyps {
                text.push_str(&format!("  {h}\n"));
            }
            text.push_str(&format!("  ⊢ {}\n", vc.goal));
        }
        got.push((d.name, vcs.len(), fnv64(text.as_bytes())));
    }
    let total: usize = got.iter().map(|g| g.1).sum();
    assert_eq!(
        got,
        EXPECTED,
        "VC generation changed ({total} VCs): (design, count, fnv64)"
    );
    assert_eq!(total, 113);
}
