//! Exercises the `for`-loop invariant rule of the VC generator with a
//! hand-written sequential program (Gauss sum), including the negative
//! cases: missing and wrong invariants are rejected.

use chicala_bigint::BigInt;
use chicala_seq::{next_name, SCmp, SExpr, SStmt, SeqProgram, SeqVarDecl};
use chicala_verify::{discharge_all, generate_vcs, DesignSpec, Env, Proof, Verdict};
use std::collections::BTreeMap;

/// A one-shot program: in a single `Trans`, sum i for i in 0..n into `s`,
/// then latch it into register `r`.
fn gauss_program(invariants: Vec<SExpr>) -> SeqProgram {
    let v = SExpr::var;
    let i = |x: i64| SExpr::int(x);
    SeqProgram {
        name: "Gauss".into(),
        params: vec!["n".into()],
        inputs: vec![],
        outputs: vec![],
        regs: vec![SeqVarDecl {
            name: "r".into(),
            // Generous width so the range VC is linear (Pow2(x) >= x+1).
            width: Some(v("n").mul(v("n")).add(i(4))),
            init: None,
        }],
        trans: vec![
            SStmt::Let { name: next_name("r"), init: v("r") },
            SStmt::Let { name: "s".into(), init: i(0) },
            SStmt::For {
                var: "i".into(),
                start: i(0),
                end: v("n"),
                invariants,
                body: vec![SStmt::Assign { name: "s".into(), rhs: v("s").add(v("i")) }],
            },
            SStmt::Assign { name: next_name("r"), rhs: v("s") },
        ],
        timeout: None,
        funcs: vec![],
    }
}

fn spec() -> DesignSpec {
    let v = SExpr::var;
    let i = |x: i64| SExpr::int(x);
    DesignSpec {
        requires: vec![v("n").cmp(SCmp::Ge, i(1))],
        invariant: vec![],
        timeout: SExpr::BoolConst(true),
        // 2*r == n*(n-1) — Gauss.
        post: vec![i(2).mul(v("r")).eq(v("n").mul(v("n").sub(i(1))))],
        measure: i(0),
        loop_invariants: vec![],
        defs: vec![],
        lemmas: vec![],
        trusted: vec![],
        proofs: BTreeMap::new(),
    }
}

#[test]
fn gauss_sum_verifies_with_the_right_invariant() {
    let v = SExpr::var;
    let i = |x: i64| SExpr::int(x);
    // 2*s == i*(i-1)
    let prog = gauss_program(vec![i(2)
        .mul(v("s"))
        .eq(v("i").mul(v("i").sub(i(1))))]);
    let mut sp = spec();
    // The measure VC is irrelevant here (timeout immediately); the bounds
    // VC for r needs the loop result small enough, which we skip by giving
    // r a generous width.
    sp.proofs.insert("bounds:r".into(), Proof::Auto);
    let vcs = generate_vcs(&prog, &sp, &[]).unwrap_or_else(|e| panic!("{e}"));
    assert!(vcs.len() >= 4, "{}", vcs.len());
    if let Some(v) = first_unproved(&sp, &vcs) {
        panic!("{v}");
    }
}

#[test]
fn missing_invariant_is_rejected() {
    let prog = gauss_program(vec![]);
    let err = generate_vcs(&prog, &spec(), &[]).expect_err("must fail");
    assert!(err.to_string().contains("no invariants"), "{err}");
}

#[test]
fn wrong_invariant_is_rejected() {
    let v = SExpr::var;
    // Claim s == i (false from the second iteration on).
    let prog = gauss_program(vec![v("s").eq(v("i"))]);
    let vcs = generate_vcs(&prog, &spec(), &[]).unwrap_or_else(|e| panic!("{e}"));
    let failed = first_unproved(&spec(), &vcs).expect("must fail");
    assert!(failed.contains("loop0"), "{failed}");
}

/// The first verdict of the driver (no deadline) that is not `proved`.
fn first_unproved(spec: &DesignSpec, vcs: &[chicala_verify::Vc]) -> Option<String> {
    discharge_all(&Env::new(), spec, vcs, None)
        .find(|v| v.verdict != Verdict::Proved)
        .map(|v| v.to_string())
}

#[test]
fn runtime_checks_agree_with_the_verifier() {
    // The interpreter checks the same invariant dynamically.
    use chicala_seq::SeqRunner;
    let v = SExpr::var;
    let i = |x: i64| SExpr::int(x);
    let good = gauss_program(vec![i(2).mul(v("s")).eq(v("i").mul(v("i").sub(i(1))))]);
    let runner = SeqRunner::new(&good, [("n".to_string(), BigInt::from(10))].into_iter().collect());
    let out = runner
        .init_and_run(&BTreeMap::new(), &BTreeMap::new(), 5)
        .expect("runs with the invariant holding");
    assert_eq!(out.regs["r"], chicala_seq::SValue::Int(BigInt::from(45)));

    let bad = gauss_program(vec![v("s").eq(v("i"))]);
    let runner = SeqRunner::new(&bad, [("n".to_string(), BigInt::from(10))].into_iter().collect());
    assert!(runner.init_and_run(&BTreeMap::new(), &BTreeMap::new(), 5).is_err());
}
