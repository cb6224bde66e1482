//! The RocketChip-style divider: the classic shift/subtract (restoring)
//! algorithm (the paper's `R-divider` case study).
//!
//! One dividend bit is brought into the partial remainder per cycle; if it
//! reaches the divisor, the divisor is subtracted and a quotient 1 is
//! shifted in. The verified statement: when the run times out
//! (`cnt == len`), `quot == io_n / io_d` and `rem == io_n % io_d`, for
//! every bit width at once (`io_d >= 1`).

use chicala_chisel::{BinaryOp, ChiselType, Expr, Module, ModuleBuilder};
use chicala_seq::{SCmp, SExpr};
use chicala_verify::{DesignSpec, Formula, Proof, Term};
use std::collections::BTreeMap;

/// Builds the restoring divider module.
pub fn module() -> Module {
    let mut m = ModuleBuilder::new("RDivider", &["len"]);
    let len = m.param("len");
    let io_n = m.input("io_n", ChiselType::uint(len.clone()));
    let io_d = m.input("io_d", ChiselType::uint(len.clone()));
    let io_quot = m.output("io_quot", ChiselType::uint(len.clone()));
    let io_rem = m.output("io_rem", ChiselType::uint(len.clone() + 1));
    let io_ready = m.output("io_ready", ChiselType::Bool);
    let state = m.reg_init("state", ChiselType::Bool, Expr::lit_b(true));
    let cnt = m.reg_init(
        "cnt",
        ChiselType::uint(len.clone() + 1),
        Expr::lit_u(0, len.clone() + 1),
    );
    let rem = m.reg("rem", ChiselType::uint(len.clone() + 1));
    let quot = m.reg("quot", ChiselType::uint(len.clone()));
    let n_sh = m.reg("n_sh", ChiselType::uint(len.clone()));
    let d_reg = m.reg("d_reg", ChiselType::uint(len.clone()));

    let (rem2, quot2, n2, d2, cnt2, st2) = (
        rem.clone(),
        quot.clone(),
        n_sh.clone(),
        d_reg.clone(),
        cnt.clone(),
        state.clone(),
    );
    let (inn, ind, len2) = (io_n.clone(), io_d.clone(), len.clone());
    m.when_else(
        io_ready.e(),
        move |b| {
            b.connect(rem2.lv(), Expr::lit_u(0, len2.clone() + 1));
            b.connect(quot2.lv(), Expr::lit_u(0, len2.clone()));
            b.connect(n2.lv(), inn.e());
            b.connect(d2.lv(), ind.e());
            b.connect(cnt2.lv(), Expr::lit_u(0, len2.clone() + 1));
            b.connect(st2.lv(), Expr::lit_b(false));
        },
        move |b| {
            // Bring in the next dividend bit: shifted = {rem[len-1:0], n_sh[len-1]}.
            let shifted = rem
                .e()
                .bits(len.clone() - 1, 0)
                .cat(n_sh.e().bit(len.clone() - 1));
            let (remc, quotc) = (rem.clone(), quot.clone());
            let (dc, shiftedc) = (d_reg.clone(), shifted.clone());
            b.when_else(
                shifted.clone().ge(d_reg.e()),
                move |b| {
                    b.connect(
                        remc.lv(),
                        Expr::Binop(
                            BinaryOp::Sub,
                            Box::new(shiftedc.clone()),
                            Box::new(dc.e()),
                        ),
                    );
                    b.connect(
                        quotc.lv(),
                        Expr::Binop(
                            BinaryOp::Add,
                            Box::new(quotc.e().shl(1)),
                            Box::new(Expr::lit_u(1, 1u64)),
                        ),
                    );
                },
                move |b| {
                    b.connect(rem.lv(), shifted);
                    b.connect(quot.lv(), quot.e().shl(1));
                },
            );
            b.connect(n_sh.lv(), n_sh.e().shl(1));
            b.connect(
                cnt.lv(),
                Expr::Binop(
                    BinaryOp::Add,
                    Box::new(cnt.e()),
                    Box::new(Expr::lit_u(1, len.clone() + 1)),
                ),
            );
            let st3 = state.clone();
            b.when(
                cnt.e().eq(Expr::lit_u(len.clone() - 1, len.clone() + 1)),
                move |b| b.connect(st3.lv(), Expr::lit_b(true)),
            );
        },
    );
    m.connect(io_ready.lv(), Expr::sig("state"));
    m.connect(io_quot.lv(), Expr::sig("quot"));
    m.connect(io_rem.lv(), Expr::sig("rem"));
    m.build()
}

/// The divider's specification: the restoring-division invariant
/// `quot == H/D ∧ rem == H%D` for the processed dividend prefix
/// `H = io_n / 2^(len-cnt)`.
pub fn spec() -> DesignSpec {
    let p2 = SExpr::pow2;
    let v = SExpr::var;
    let i = SExpr::int;
    let len = || v("len");
    let cnt = || v("cnt");
    let n = || v("io_n");
    let d = || v("io_d");
    // The processed prefix of the dividend.
    let h = || n().div(p2(len().sub(cnt())));

    let requires = vec![len().cmp(SCmp::Ge, i(1)), d().cmp(SCmp::Ge, i(1))];
    let invariant = vec![
        v("state").not().or(cnt().eq(i(0))),
        v("state").or(cnt().cmp(SCmp::Lt, len())),
        v("state").or(v("d_reg").eq(d())),
        v("state").or(v("quot").eq(h().div(d()))),
        v("state").or(v("rem").eq(h().imod(d()))),
        v("state").or(v("n_sh").eq(n().imod(p2(len().sub(cnt()))).mul(p2(cnt())))),
        // quot stays below 2^cnt (no overflow when shifting in bits).
        v("state").or(v("quot").cmp(SCmp::Lt, p2(cnt()))),
    ];
    let timeout = cnt().eq(len());
    let post = vec![v("quot").eq(n().div(d())), v("rem").eq(n().imod(d()))];
    let measure = SExpr::Ite(
        Box::new(v("state")),
        Box::new(len().add(i(1))),
        Box::new(len().sub(cnt())),
    );

    // Step proof pieces.
    let t = Term::int;
    let tp2 = Term::pow2;
    let tcnt = || Term::var("cnt");
    let tlen = || Term::var("len");
    let tn = || Term::var("io_n");
    let td = || Term::var("io_d");
    let th = || tn().div(tp2(tlen().sub(tcnt())));
    let th1 = || tn().div(tp2(tlen().sub(tcnt()).sub(t(1))));
    let tq = || Term::var("quot");
    let bit = || th1().imod(t(2));
    let use_l = |name: &str, args: Vec<Term>, rest: Proof| Proof::Use {
        lemma: name.into(),
        args,
        rest: Box::new(rest),
    };
    let have = |fact: Formula, rest: Proof| Proof::Have {
        fact,
        proof: Box::new(Proof::Auto),
        rest: Box::new(rest),
    };

    // Common prefix: relate H' = io_n / 2^(len-cnt-1) to H and the incoming
    // bit, and locate that bit at the top of n_sh.
    let step_chain = |tail: Proof| {
        use_l(
            "div_small",
            vec![tcnt().add(t(1)), tp2(tlen().add(t(1)))],
            use_l(
                // H'/2 == H
                "div_div",
                vec![tn(), tp2(tlen().sub(tcnt()).sub(t(1))), t(2)],
                use_l(
                    // n_sh / 2^(len-1) == (n_sh's payload) / 2^(len-1-cnt):
                    // cancel the 2^cnt shift.
                    "mul_div_cancel",
                    vec![
                        tn().imod(tp2(tlen().sub(tcnt()))).div(tp2(tlen().sub(tcnt()).sub(t(1)))),
                        tp2(tcnt()),
                    ],
                    use_l(
                        // (n % 2^(len-c)) / 2^(len-c-1) == (n / 2^(len-c-1)) % 2
                        "mod_div_swap",
                        vec![tn(), tlen().sub(tcnt()), tlen().sub(tcnt()).sub(t(1))],
                        use_l(
                            "pow2_mul",
                            vec![tcnt(), tlen().sub(tcnt()).sub(t(1))],
                            have(
                                // the top bit of n_sh is bit (len-cnt-1) of io_n
                                Term::var("n_sh").div(tp2(tlen().sub(t(1)))).eq(bit()),
                                have(
                                    // H' == 2H + bit
                                    th1().eq(t(2).mul(th()).add(bit())),
                                    have(
                                        // the next n_sh payload: n % 2^(len-c-1) shifted by c+1
                                        tn().imod(tp2(tlen().sub(tcnt())))
                                            .imod(tp2(tlen().sub(tcnt()).sub(t(1))))
                                            .eq(tn().imod(tp2(tlen().sub(tcnt()).sub(t(1))))),
                                        tail,
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        )
    };

    // Quotient/remainder update, by cases on the subtract condition; the
    // branch condition in the generated code is `shifted >= d_reg`, i.e.
    // 2*rem + bit >= D.
    let qr_update = |tail: Proof| {
        Proof::Cases {
            on: t(2).mul(th().imod(td())).add(bit()).ge(td()),
            if_true: Box::new(use_l(
                "div_unique",
                vec![th1(), td(), t(2).mul(tq()).add(t(1))],
                tail.clone(),
            )),
            if_false: Box::new(use_l(
                "div_unique",
                vec![th1(), td(), t(2).mul(tq())],
                tail,
            )),
        }
    };

    let by_cases = |inner: Proof| Proof::Cases {
        on: Formula::BVar("state".into()),
        if_true: Box::new(Proof::Auto),
        if_false: Box::new(inner),
    };

    let mut proofs: BTreeMap<String, Proof> = BTreeMap::new();
    for name in [
        "preserve:3",
        "preserve:4",
        "preserve:6",
        "post:0",
        "post:1",
        "bounds:quot",
        "bounds:rem",
    ] {
        proofs.insert(name.into(), by_cases(step_chain(qr_update(Proof::Auto))));
    }
    // The shift-register invariant and counter bounds need only the prefix.
    for name in ["preserve:5", "bounds:n_sh"] {
        proofs.insert(name.into(), by_cases(step_chain(Proof::Auto)));
    }

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
    use chicala_bigint::BigInt;
    use chicala_chisel::{elaborate, Simulator};
    use std::collections::BTreeMap as Map;

    fn run_concrete(len: i64, n: u64, d: u64) -> (BigInt, BigInt) {
        let m = module();
        let em = elaborate(&m, &[("len".to_string(), len)].into_iter().collect())
            .expect("elaborates");
        let mut sim = Simulator::new(&em, &Map::new()).expect("constructs");
        let inputs: Map<String, BigInt> = [
            ("io_n".to_string(), BigInt::from(n)),
            ("io_d".to_string(), BigInt::from(d)),
        ]
        .into_iter()
        .collect();
        for _ in 0..(len as usize + 1) {
            sim.step(&inputs).expect("steps");
        }
        (
            sim.reg("quot").expect("declared").clone(),
            sim.reg("rem").expect("declared").clone(),
        )
    }

    #[test]
    #[ignore = "minutes-scale deductive proof on one core; run with: cargo test --release -p chicala-designs -- --ignored"]
    fn rdiv_verifies_for_all_widths() {
        crate::assert_proves_for_all_widths(module(), spec());
    }

    #[test]
    fn divides_concretely() {
        assert_eq!(run_concrete(4, 13, 3), (BigInt::from(4), BigInt::from(1)));
        assert_eq!(run_concrete(8, 200, 7), (BigInt::from(28), BigInt::from(4)));
        assert_eq!(run_concrete(8, 255, 1), (BigInt::from(255), BigInt::from(0)));
        assert_eq!(run_concrete(6, 0, 5), (BigInt::from(0), BigInt::from(0)));
        assert_eq!(run_concrete(5, 31, 31), (BigInt::from(1), BigInt::from(0)));
    }
}
