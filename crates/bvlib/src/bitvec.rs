//! The bit-vector-as-integer library (§3.2): operation constructors over
//! the verifier's terms, and the lemma set with machine-checked proofs.
//!
//! The paper reports a library of 6 operations and 10 lemmas; the same
//! inventory is built here, each lemma *proved* in the kernel (mostly from
//! `div_unique`, `pow2_step`, and induction) rather than trusted.

use chicala_verify::{Env, Formula, Lemma, Proof, ProofError, Term};

/// Operation 1: `Pow2(e)` — `2^e` (the kernel primitive).
pub fn pow2(e: Term) -> Term {
    Term::pow2(e)
}

/// Operation 2: bit extraction `x(hi, lo)` as `(x / 2^lo) mod 2^(hi-lo+1)`.
pub fn extract(x: Term, hi: Term, lo: Term) -> Term {
    x.div(Term::pow2(lo.clone())).imod(Term::pow2(hi.sub(lo).add(Term::int(1))))
}

/// Operation 3: single bit `x(i)` as `(x / 2^i) mod 2`.
pub fn bit(x: Term, i: Term) -> Term {
    x.div(Term::pow2(i)).imod(Term::int(2))
}

/// Operation 4: concatenation `Cat(hi, lo)` with `lo` of width `wlo`:
/// `hi * 2^wlo + lo`.
pub fn cat(hi: Term, lo: Term, wlo: Term) -> Term {
    hi.mul(Term::pow2(wlo)).add(lo)
}

/// Operation 5: width clamp `x mod 2^w` (connect/overflow semantics).
pub fn clamp(x: Term, w: Term) -> Term {
    x.imod(Term::pow2(w))
}

/// Operation 6: two's-complement reinterpretation of raw bits `x` of width
/// `w`: `if x < 2^(w-1) then x else x - 2^w`.
pub fn to_signed(x: Term, w: Term) -> Term {
    Term::Ite(
        Box::new(x.clone().lt(Term::pow2(w.clone().sub(Term::int(1))))),
        Box::new(x.clone()),
        Box::new(x.sub(Term::pow2(w))),
    )
}

fn v(name: &str) -> Term {
    Term::var(name)
}

fn t(x: i64) -> Term {
    Term::int(x)
}

fn lemma(name: &str, vars: &[&str], hyps: Vec<Formula>, concl: Formula) -> Lemma {
    Lemma {
        name: name.into(),
        vars: vars.iter().map(|s| s.to_string()).collect(),
        hyps,
        concl,
    }
}

fn use_lemma(name: &str, args: Vec<Term>, rest: Proof) -> Proof {
    Proof::Use { lemma: name.into(), args, rest: Box::new(rest) }
}

/// The library's lemmas, each paired with its proof, in dependency order.
// Sequential pushes (not `vec![]`) keep each lemma under its own L_n
// commentary block.
#[allow(clippy::vec_init_then_push)]
pub fn lemmas() -> Vec<(Lemma, Proof)> {
    let mut out: Vec<(Lemma, Proof)> = Vec::new();

    // L1 (the paper's Pow2Mul): Pow2(x) * Pow2(y) == Pow2(x + y), by
    // induction on y.
    out.push((
        lemma(
            "pow2_mul",
            &["x", "y"],
            vec![v("x").ge(t(0)), v("y").ge(t(0))],
            Term::pow2(v("x")).mul(Term::pow2(v("y"))).eq(Term::pow2(v("x").add(v("y")))),
        ),
        Proof::Induction {
            var: "y".into(),
            base: 0,
            base_case: Box::new(Proof::Auto),
            step_case: Box::new(use_lemma(
                "pow2_step",
                vec![v("y").add(t(1))],
                use_lemma("pow2_step", vec![v("x").add(v("y")).add(t(1))], Proof::Auto),
            )),
        },
    ));

    // L2: division of powers: x >= y >= 0 ==> Pow2(x) / Pow2(y) == Pow2(x-y).
    out.push((
        lemma(
            "pow2_div",
            &["x", "y"],
            vec![v("y").ge(t(0)), v("x").ge(v("y"))],
            Term::pow2(v("x")).div(Term::pow2(v("y"))).eq(Term::pow2(v("x").sub(v("y")))),
        ),
        use_lemma(
            "pow2_mul",
            vec![v("y"), v("x").sub(v("y"))],
            use_lemma(
                "div_unique",
                vec![Term::pow2(v("x")), Term::pow2(v("y")), Term::pow2(v("x").sub(v("y")))],
                Proof::Auto,
            ),
        ),
    ));

    // L3: a value below the modulus divides to zero.
    out.push((
        lemma(
            "div_small",
            &["a", "m"],
            vec![t(0).le(v("a")), v("a").lt(v("m"))],
            v("a").div(v("m")).eq(t(0)),
        ),
        use_lemma("div_unique", vec![v("a"), v("m"), t(0)], Proof::Auto),
    ));

    // L4: a value below the modulus is its own remainder.
    out.push((
        lemma(
            "mod_small",
            &["a", "m"],
            vec![t(0).le(v("a")), v("a").lt(v("m"))],
            v("a").imod(v("m")).eq(v("a")),
        ),
        use_lemma("div_small", vec![v("a"), v("m")], Proof::Auto),
    ));

    // L5: adding a multiple of the modulus shifts the quotient.
    out.push((
        lemma(
            "div_add_multiple",
            &["a", "k", "m"],
            vec![v("m").ge(t(1))],
            v("a").add(v("k").mul(v("m"))).div(v("m")).eq(v("a").div(v("m")).add(v("k"))),
        ),
        use_lemma(
            "div_unique",
            vec![
                v("a").add(v("k").mul(v("m"))),
                v("m"),
                v("a").div(v("m")).add(v("k")),
            ],
            Proof::Auto,
        ),
    ));

    // L6: adding a multiple of the modulus leaves the remainder unchanged.
    out.push((
        lemma(
            "mod_add_multiple",
            &["a", "k", "m"],
            vec![v("m").ge(t(1))],
            v("a").add(v("k").mul(v("m"))).imod(v("m")).eq(v("a").imod(v("m"))),
        ),
        use_lemma("div_add_multiple", vec![v("a"), v("k"), v("m")], Proof::Auto),
    ));

    // L7 (the paper's flagship): taking the low x bits then the low y bits
    // equals taking the low y bits directly, for x >= y >= 0:
    //   (a % Pow2(x)) % Pow2(y) == a % Pow2(y).
    out.push((
        lemma(
            "mod_mod_pow2",
            &["a", "x", "y"],
            vec![v("y").ge(t(0)), v("x").ge(v("y"))],
            v("a")
                .imod(Term::pow2(v("x")))
                .imod(Term::pow2(v("y")))
                .eq(v("a").imod(Term::pow2(v("y")))),
        ),
        use_lemma(
            "pow2_mul",
            vec![v("y"), v("x").sub(v("y"))],
            use_lemma(
                "div_unique",
                vec![
                    // a - Pow2(x)*(a/Pow2(x))  ==  a % Pow2(x)
                    v("a").imod(Term::pow2(v("x"))),
                    Term::pow2(v("y")),
                    // quotient: a/Pow2(y) - Pow2(x-y)*(a/Pow2(x))
                    v("a")
                        .div(Term::pow2(v("y")))
                        .sub(Term::pow2(v("x").sub(v("y"))).mul(v("a").div(Term::pow2(v("x"))))),
                ],
                Proof::Auto,
            ),
        ),
    ));

    // L8: nested division composes: (a/m)/n == a/(m*n) for m, n >= 1.
    out.push((
        lemma(
            "div_div",
            &["a", "m", "n"],
            vec![v("m").ge(t(1)), v("n").ge(t(1))],
            v("a").div(v("m")).div(v("n")).eq(v("a").div(v("m").mul(v("n")))),
        ),
        use_lemma(
            "div_unique",
            vec![
                v("a").div(v("m")),
                v("n"),
                v("a").div(v("m").mul(v("n"))),
            ],
            Proof::Auto,
        ),
    ));

    // L9: bit-range decomposition: a % (m*n) splits into the high part
    // (a/m) % n and the low part a % m:
    //   m >= 1, n >= 1 ==> a % (m*n) == m*((a/m) % n) + a % m.
    out.push((
        lemma(
            "mod_split",
            &["a", "m", "n"],
            vec![v("m").ge(t(1)), v("n").ge(t(1))],
            v("a")
                .imod(v("m").mul(v("n")))
                .eq(v("m").mul(v("a").div(v("m")).imod(v("n"))).add(v("a").imod(v("m")))),
        ),
        use_lemma("div_div", vec![v("a"), v("m"), v("n")], Proof::Auto),
    ));

    // L10: concatenation inverts: the high and low parts of
    // Cat(hi, lo) = hi*Pow2(w) + lo are recovered by division and modulus.
    out.push((
        lemma(
            "cat_div",
            &["hi", "lo", "w"],
            vec![v("w").ge(t(0)), t(0).le(v("lo")), v("lo").lt(Term::pow2(v("w")))],
            cat(v("hi"), v("lo"), v("w")).div(Term::pow2(v("w"))).eq(v("hi")),
        ),
        use_lemma(
            "div_unique",
            vec![cat(v("hi"), v("lo"), v("w")), Term::pow2(v("w")), v("hi")],
            Proof::Auto,
        ),
    ));
    out.push((
        lemma(
            "cat_mod",
            &["hi", "lo", "w"],
            vec![v("w").ge(t(0)), t(0).le(v("lo")), v("lo").lt(Term::pow2(v("w")))],
            cat(v("hi"), v("lo"), v("w")).imod(Term::pow2(v("w"))).eq(v("lo")),
        ),
        use_lemma("cat_div", vec![v("hi"), v("lo"), v("w")], Proof::Auto),
    ));

    // L11: multiply-divide cancellation: m >= 1 ==> (a*m)/m == a.
    out.push((
        lemma(
            "mul_div_cancel",
            &["a", "m"],
            vec![v("m").ge(t(1))],
            v("a").mul(v("m")).div(v("m")).eq(v("a")),
        ),
        use_lemma("div_unique", vec![v("a").mul(v("m")), v("m"), v("a")], Proof::Auto),
    ));

    // L12: extraction commutes with shifting: for x >= y >= 0,
    //   (a % Pow2(x)) / Pow2(y) == (a / Pow2(y)) % Pow2(x-y).
    out.push((
        lemma(
            "mod_div_swap",
            &["a", "x", "y"],
            vec![t(0).le(v("a")), v("y").ge(t(0)), v("x").ge(v("y"))],
            v("a")
                .imod(Term::pow2(v("x")))
                .div(Term::pow2(v("y")))
                .eq(v("a").div(Term::pow2(v("y"))).imod(Term::pow2(v("x").sub(v("y"))))),
        ),
        // a % 2^x = a - 2^x*(a/2^x); divide by 2^y and recognise the
        // shifted quotient by uniqueness.
        use_lemma(
            "pow2_mul",
            vec![v("y"), v("x").sub(v("y"))],
            use_lemma(
                "div_div",
                vec![v("a"), Term::pow2(v("y")), Term::pow2(v("x").sub(v("y")))],
                use_lemma(
                    "div_unique",
                    vec![
                        v("a").imod(Term::pow2(v("x"))),
                        Term::pow2(v("y")),
                        v("a").div(Term::pow2(v("y")))
                            .sub(Term::pow2(v("x").sub(v("y"))).mul(v("a").div(Term::pow2(v("x"))))),
                    ],
                    Proof::Auto,
                ),
            ),
        ),
    ));

    // Strict monotonicity (used for no-wrap counter arguments):
    // 0 <= x < y ==> Pow2(x) < Pow2(y).
    out.push((
        lemma(
            "pow2_lt",
            &["x", "y"],
            vec![v("x").ge(t(0)), v("x").lt(v("y"))],
            Term::pow2(v("x")).lt(Term::pow2(v("y"))),
        ),
        use_lemma(
            "pow2_step",
            vec![v("y")],
            // Pow2(y) = 2*Pow2(y-1) >= 2*Pow2(x) > Pow2(x).
            Proof::Auto,
        ),
    ));

    out
}

/// Installs the library into a kernel environment, proving every lemma.
///
/// # Errors
///
/// Returns the first lemma whose proof fails (should not happen for a
/// released library; the test suite checks all of them).
pub fn install(env: &mut Env) -> Result<(), (String, ProofError)> {
    let _span = chicala_telemetry::span!("bvlib.install");
    for (lemma, proof) in lemmas() {
        let name = lemma.name.clone();
        env.prove_lemma(lemma, &proof).map_err(|e| (name, e))?;
    }
    Ok(())
}

/// Total line count of the library's operations and lemma statements +
/// proofs (the paper reports 320 lines of Scala for 6 ops and 10 lemmas).
pub fn source_loc() -> usize {
    // Operations: one line per constructor body here.
    let ops = 6;
    let lemma_lines: usize = lemmas()
        .iter()
        .map(|(l, p)| 1 + l.hyps.len() + p.loc())
        .sum();
    ops + lemma_lines
}

// Re-exported for the doc examples.
pub use chicala_verify::Term as VerifyTerm;

#[cfg(test)]
mod tests {
    use super::*;
    use chicala_bigint::BigInt;
    use std::collections::BTreeMap;

    #[test]
    fn all_lemmas_prove() {
        let mut env = Env::new();
        install(&mut env).unwrap_or_else(|(name, e)| panic!("lemma `{name}` failed: {e}"));
        for (l, _) in lemmas() {
            assert!(env.lemma(&l.name).is_some());
        }
    }

    #[test]
    fn operations_evaluate_correctly() {
        let env = BTreeMap::new();
        let benv = BTreeMap::new();
        // extract(0b110101, 4, 2) == 0b101
        let e = extract(Term::int(0b110101), Term::int(4), Term::int(2));
        assert_eq!(e.eval(&env, &benv), Some(BigInt::from(0b101)));
        // bit
        assert_eq!(
            bit(Term::int(0b100), Term::int(2)).eval(&env, &benv),
            Some(BigInt::one())
        );
        // cat(0b11, 0b01, 2) == 0b1101
        assert_eq!(
            cat(Term::int(0b11), Term::int(0b01), Term::int(2)).eval(&env, &benv),
            Some(BigInt::from(0b1101))
        );
        // clamp
        assert_eq!(
            clamp(Term::int(19), Term::int(4)).eval(&env, &benv),
            Some(BigInt::from(3))
        );
        // to_signed
        assert_eq!(
            to_signed(Term::int(15), Term::int(4)).eval(&env, &benv),
            Some(BigInt::from(-1))
        );
        assert_eq!(
            to_signed(Term::int(7), Term::int(4)).eval(&env, &benv),
            Some(BigInt::from(7))
        );
    }

    #[test]
    fn lemma_statements_hold_concretely() {
        // Sanity: evaluate each lemma at a few concrete points (guards
        // against stating a wrong lemma and proving it due to a kernel
        // bug — both layers would have to be wrong in the same way).
        for (l, _) in lemmas() {
            for seed in 0..40u64 {
                let mut env: BTreeMap<String, BigInt> = BTreeMap::new();
                for (i, var) in l.vars.iter().enumerate() {
                    let x = ((seed * 37 + i as u64 * 11) % 21) as i64 - 4;
                    env.insert(var.clone(), BigInt::from(x));
                }
                let benv = BTreeMap::new();
                let applicable =
                    l.hyps.iter().all(|h| h.eval(&env, &benv) == Some(true));
                if applicable {
                    assert_eq!(
                        l.concl.eval(&env, &benv),
                        Some(true),
                        "lemma `{}` fails at {env:?}",
                        l.name
                    );
                }
            }
        }
    }
}
