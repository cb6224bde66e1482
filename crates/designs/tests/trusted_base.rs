//! The trusted base, audited: every fact the kernel admits without proof.
//! That is the built-in integer axioms (`Env::new().axiom_names()`) plus
//! the `trusted` lemmas of every `DesignSpec` the repository ships,
//! `xmul::spec_full` included. The list below is exact and may only
//! shrink: a new name fails the test, and so does a name that is no longer
//! trusted, until it is deleted from the list too.

use chicala_designs::{verified_designs, xmul};
use chicala_verify::Env;
use std::collections::BTreeSet;

/// `axiom <name>` for a kernel axiom, `<spec>: <lemma>` for a design's
/// trusted lemma.
const TRUSTED: &[&str] = &[
    "axiom bit_and_bounds",
    "axiom bit_and_rec",
    "axiom bit_or_bounds",
    "axiom bit_or_rec",
    "axiom bit_xor_bounds",
    "axiom bit_xor_rec",
    "axiom div_le_mono",
    "axiom div_unique",
    "axiom mul_le_mono",
    "axiom pow2_step",
    "xmul::spec: csa3",
    "xmul::spec_full: csa3",
];

#[test]
fn trusted_base_only_shrinks() {
    let mut specs: Vec<(String, _)> = verified_designs()
        .into_iter()
        .filter_map(|d| d.spec.map(|spec| (format!("{}::spec", d.name), spec())))
        .collect();
    specs.push(("xmul::spec_full".to_string(), xmul::spec_full()));
    let mut actual: BTreeSet<String> =
        Env::new().axiom_names().iter().map(|n| format!("axiom {n}")).collect();
    for (name, spec) in &specs {
        actual.extend(spec.trusted.iter().map(|l| format!("{name}: {}", l.name)));
    }
    let committed: BTreeSet<String> = TRUSTED.iter().map(|s| s.to_string()).collect();
    let added: Vec<&String> = actual.difference(&committed).collect();
    let removed: Vec<&String> = committed.difference(&actual).collect();
    assert!(
        added.is_empty(),
        "the trusted base grew: {added:?}. Prove these facts instead of admitting them"
    );
    assert!(
        removed.is_empty(),
        "no longer trusted: {removed:?}. Delete them from TRUSTED so the list stays exact"
    );
}
