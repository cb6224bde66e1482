//! The discharge driver, `discharge_all`: verdicts arrive lazily and in VC
//! order, and a VC the kernel rejects comes back as `Failed` with the
//! kernel's own message.
//!
//! `refute_calls()` is process-global, so this binary holds one test.

use chicala_verify::{
    discharge_all, refute_calls, DesignSpec, Env, Formula, Proof, Term, Vc, Verdict,
};

fn vc(name: &str, hyps: Vec<Formula>, goal: Formula) -> Vc {
    Vc { name: name.into(), hyps, goal }
}

#[test]
fn verdicts_arrive_lazily_in_order_and_a_failure_keeps_the_kernels_message() {
    let v = Term::var;
    // The first and third need linear arithmetic; the second is false.
    let vcs = [
        vc("first", vec![v("x").lt(v("y")), v("y").lt(v("z"))], v("x").lt(v("z"))),
        vc("second", vec![v("x").ge(Term::int(0))], v("x").ge(Term::int(1))),
        vc("third", vec![v("y").lt(v("z")), v("z").lt(v("w"))], v("y").lt(v("w"))),
    ];
    let env = Env::new();
    let spec = DesignSpec::default();
    let message = env
        .prove(&vcs[1].hyps, &vcs[1].goal, &Proof::Auto)
        .expect_err("the second VC is false")
        .message;

    let verdicts: Vec<(String, Verdict)> = discharge_all(&env, &spec, &vcs, None)
        .map(|v| (v.vc.name.clone(), v.verdict))
        .collect();
    assert_eq!(
        verdicts,
        [
            ("first".to_string(), Verdict::Proved),
            ("second".to_string(), Verdict::Failed(message)),
            ("third".to_string(), Verdict::Proved),
        ]
    );

    // Stopping early discharges nothing past the first unproved verdict:
    // the third VC runs only when the caller asks for it.
    let mut lazy = discharge_all(&env, &spec, &vcs, None);
    let proved = lazy.by_ref().take_while(|v| v.verdict == Verdict::Proved).count();
    assert_eq!(proved, 1, "take_while stops after the first verdict");
    let calls = refute_calls();
    let rest: Vec<String> = lazy.map(|v| v.vc.name.clone()).collect();
    assert_eq!(rest, ["third"]);
    assert!(refute_calls() > calls, "the third VC was discharged before it was asked for");
}
