//! The paper's running example (Listings 1–4): the rotate register,
//! verified for all bit widths at once.
//!
//! The correctness statement is the paper's: starting from `state = true`,
//! once the run times out (`cnt == len`) the register `R` has regained the
//! input `io.in`. The invariant is the equational form of Listing 3: while
//! rotating, `R = (in % 2^cnt)·2^(len−cnt) + in / 2^cnt` — the low `cnt`
//! bits of the input sit at the top of `R`, the rest at the bottom. The
//! rotation-step proof is the Listing 4 content, written as a chain of
//! intermediate facts (`Have`) over the bit-vector library's lemma
//! vocabulary.

use chicala_chisel::{examples::rotate_example, Module};
use chicala_seq::{SCmp, SExpr};
use chicala_verify::{DesignSpec, Formula, Proof, Term};
use std::collections::BTreeMap;

fn v(name: &str) -> SExpr {
    SExpr::var(name)
}

fn i(x: i64) -> SExpr {
    SExpr::int(x)
}

/// The rotate module itself (Listing 1).
pub fn module() -> Module {
    rotate_example()
}

/// The rotation-step fact chain: with `c = cnt`, `w = len`,
/// `hi = in/2^c`, `lo = in%2^c`, `R = lo·2^(w-c) + hi`, derives the pieces
/// needed to show that `Cat(R(0), R(w-1,1))` realises the invariant at
/// `cnt+1`.
fn rotation_haves(tail: Proof) -> Proof {
    let p2 = Term::pow2;
    let t = Term::int;
    let cnt = || Term::var("cnt");
    let len = || Term::var("len");
    let inp = || Term::var("io_in");
    let r_reg = || Term::var("R");
    let hi = || inp().div(p2(cnt()));
    let lo = || inp().imod(p2(cnt()));
    let pp = || p2(len().sub(cnt()).sub(t(1)));
    let hi1 = || inp().div(p2(cnt().add(t(1))));
    let lo1 = || inp().imod(p2(cnt().add(t(1))));
    let b0 = || r_reg().imod(t(2));
    let m = || r_reg().div(t(2)).imod(p2(len().sub(t(1))));

    let facts: Vec<Formula> = vec![
        // S1: the rotated-out bit is bit `cnt` of the input.
        b0().eq(hi().imod(t(2))),
        // S2: shifting right drops into the accumulated form.
        r_reg().div(t(2)).eq(hi().div(t(2)).add(lo().mul(pp()))),
        // S3: the (w-1)-bit extract of R/2 is exact.
        m().eq(hi().div(t(2)).add(lo().mul(pp()))),
        // S4: in % 2^(c+1) gains bit c at the top.
        lo1().eq(lo().add(p2(cnt()).mul(hi().imod(t(2))))),
        // S5: in / 2^(c+1) drops bit c.
        hi1().eq(hi().div(t(2))),
        // S6: the power-product glue 2^c·2^(w-c-1) == 2^(w-1).
        p2(cnt()).mul(pp()).eq(p2(len().sub(t(1)))),
        // S7: the reassembled word fits in w bits.
        b0().mul(p2(len().sub(t(1)))).add(m()).lt(p2(len())),
        // S8: so its final clamp is the identity.
        b0().mul(p2(len().sub(t(1)))).add(m()).imod(p2(len())).eq(
            b0().mul(p2(len().sub(t(1)))).add(m()),
        ),
    ];
    let haves = facts.into_iter().rev().fold(tail, |rest, fact| Proof::Have {
        fact,
        proof: Box::new(Proof::Auto),
        rest: Box::new(rest),
    });
    // Lemma instantiations the fact chain leans on (the paper's "stuck
    // with tactics -> add lemmas" step).
    let use_l = |name: &str, args: Vec<Term>, rest: Proof| Proof::Use {
        lemma: name.into(),
        args,
        rest: Box::new(rest),
    };
    use_l(
        "div_small",
        vec![cnt().add(t(1)), p2(len())],
        use_l(
            "mod_split",
            vec![inp(), p2(cnt()), t(2)],
            use_l(
                "div_div",
                vec![inp(), p2(cnt()), t(2)],
                use_l(
                    "div_add_multiple",
                    vec![hi(), lo().mul(pp()), t(2)],
                    haves,
                ),
            ),
        ),
    )
}

/// The specification and proof scripts (Listings 3 and 4).
pub fn spec() -> DesignSpec {
    let len = || v("len");
    let cnt = || v("cnt");
    let r = || v("R");
    let inp = || v("io_in");
    let state = || v("state");

    // hi_c = in / 2^cnt, lo_c = in % 2^cnt.
    let hi_c = || inp().div(SExpr::pow2(cnt()));
    let lo_c = || inp().imod(SExpr::pow2(cnt()));

    let requires = vec![len().cmp(SCmp::Ge, i(1))];
    let invariant = vec![
        // state ==> cnt == 0
        state().not().or(cnt().eq(i(0))),
        // !state ==> cnt < len
        state().or(cnt().cmp(SCmp::Lt, len())),
        // !state ==> R == lo_c * 2^(len-cnt) + hi_c
        state().or(r().eq(lo_c().mul(SExpr::pow2(len().sub(cnt()))).add(hi_c()))),
    ];
    let timeout = cnt().eq(len());
    let post = vec![r().eq(inp())];
    let measure = SExpr::Ite(
        Box::new(state()),
        Box::new(len().add(i(1))),
        Box::new(len().sub(cnt())),
    );

    // Case structure: the latch step (state) is automatic; the final
    // rotation (cnt == len-1) makes the run-continuation hypothesis
    // contradictory; the generic rotation step needs the Listing 4 chain.
    let tcnt = || Term::var("cnt");
    let tlen = || Term::var("len");
    let by_cases = |inner: Proof| Proof::Cases {
        on: Formula::BVar("state".into()),
        if_true: Box::new(Proof::Auto),
        if_false: Box::new(Proof::Cases {
            on: tcnt().eq(tlen().sub(Term::int(1))),
            if_true: Box::new(Proof::Auto),
            if_false: Box::new(inner),
        }),
    };

    let mut proofs: BTreeMap<String, Proof> = BTreeMap::new();
    proofs.insert("preserve:2".into(), by_cases(rotation_haves(Proof::Auto)));
    proofs.insert(
        "post:0".into(),
        Proof::Cases {
            on: Formula::BVar("state".into()),
            if_true: Box::new(Proof::Auto),
            if_false: Box::new(rotation_haves(Proof::Auto)),
        },
    );
    proofs.insert(
        "bounds:R".into(),
        Proof::Cases {
            on: Formula::BVar("state".into()),
            if_true: Box::new(Proof::Auto),
            if_false: Box::new(Proof::Auto),
        },
    );

    DesignSpec {
        requires,
        invariant,
        timeout,
        post,
        measure,
        loop_invariants: Vec::new(),
        defs: Vec::new(),
        lemmas: Vec::new(),
        trusted: Vec::new(),
        proofs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "minutes-scale deductive proof on one core; run with: cargo test --release -p chicala-designs -- --ignored"]
    fn rotate_verifies_for_all_widths() {
        crate::assert_proves_for_all_widths(module(), spec());
    }
}
