//! The XiangShan-style radix-2 divider (`Radix2Divider`): the same
//! shift/subtract algorithm as the RocketChip divider, but holding the
//! partial remainder, the unprocessed dividend, and the accumulated
//! quotient in one `2·len+1`-bit shift register (the paper's `X-divider`,
//! whose invariant needs the shift register's ghost decomposition).
//!
//! Layout after `cnt` steps, with `H = io_n / 2^(len-cnt)`:
//!
//! ```text
//! shiftReg == (H % D)·2^(len+1) + (io_n % 2^(len-cnt))·2^(cnt+1) + H / D
//! ```

use chicala_chisel::{BinaryOp, ChiselType, Expr, Module, ModuleBuilder};
use chicala_seq::{SCmp, SExpr};
use chicala_verify::{DesignSpec, Formula, Proof, Term};
use std::collections::BTreeMap;

/// Builds the single-shift-register divider module.
pub fn module() -> Module {
    let mut m = ModuleBuilder::new("Radix2Divider", &["len"]);
    let len = m.param("len");
    let wreg = len.clone() * 2 + 1;
    let io_n = m.input("io_n", ChiselType::uint(len.clone()));
    let io_d = m.input("io_d", ChiselType::uint(len.clone()));
    let io_quot = m.output("io_quot", ChiselType::uint(len.clone()));
    let io_rem = m.output("io_rem", ChiselType::uint(len.clone()));
    let io_ready = m.output("io_ready", ChiselType::Bool);
    let state = m.reg_init("state", ChiselType::Bool, Expr::lit_b(true));
    let cnt = m.reg_init(
        "cnt",
        ChiselType::uint(len.clone() + 1),
        Expr::lit_u(0, len.clone() + 1),
    );
    let sreg = m.reg("shiftReg", ChiselType::uint(wreg.clone()));
    let d_reg = m.reg("d_reg", ChiselType::uint(len.clone()));

    let (sreg2, d2, cnt2, st2) = (sreg.clone(), d_reg.clone(), cnt.clone(), state.clone());
    let (inn, ind, len2) = (io_n.clone(), io_d.clone(), len.clone());
    let len_out = len.clone();
    m.when_else(
        io_ready.e(),
        move |b| {
            // shiftReg := io_n << 1 (pre-shift brings the first bit up).
            b.connect(sreg2.lv(), inn.e().shl(1));
            b.connect(d2.lv(), ind.e());
            b.connect(cnt2.lv(), Expr::lit_u(0, len2.clone() + 1));
            b.connect(st2.lv(), Expr::lit_b(false));
        },
        move |b| {
            let hi = sreg.e().bits(len.clone() * 2, len.clone());
            let lo = sreg.e().bits(len.clone() - 1, 0);
            let enough = hi.clone().ge(d_reg.e());
            let sub = Expr::Mux(
                Box::new(enough.clone()),
                Box::new(Expr::Binop(
                    BinaryOp::Sub,
                    Box::new(hi.clone()),
                    Box::new(d_reg.e()),
                )),
                Box::new(hi),
            );
            // shiftReg := {sub[len-1:0], lo, enough}
            let next = sub.bits(len.clone() - 1, 0).cat(lo).cat(enough);
            b.connect(sreg.lv(), next);
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
    m.connect(io_quot.lv(), Expr::sig("shiftReg").bits(len_out.clone() - 1, 0));
    m.connect(
        io_rem.lv(),
        Expr::sig("shiftReg").bits(len_out.clone() * 2, len_out + 1),
    );
    m.build()
}

/// The specification: the shift-register decomposition invariant (the
/// paper's ghost `hi`/`lo` variables for `shiftReg`, §3.2).
pub fn spec() -> DesignSpec {
    let p2 = SExpr::pow2;
    let v = SExpr::var;
    let i = SExpr::int;
    let len = || v("len");
    let cnt = || v("cnt");
    let n = || v("io_n");
    let d = || v("io_d");
    let h = || n().div(p2(len().sub(cnt())));

    let requires = vec![len().cmp(SCmp::Ge, i(1)), d().cmp(SCmp::Ge, i(1))];
    let invariant = vec![
        v("state").not().or(cnt().eq(i(0))),
        v("state").or(cnt().cmp(SCmp::Lt, len())),
        v("state").or(v("d_reg").eq(d())),
        // The ghost decomposition of the shift register.
        v("state").or(v("shiftReg").eq(
            h().imod(d())
                .mul(p2(len().add(i(1))))
                .add(n().imod(p2(len().sub(cnt()))).mul(p2(cnt().add(i(1)))))
                .add(h().div(d())),
        )),
        // Quotient-prefix bound (keeps the middle field from overflowing).
        v("state").or(h().div(d()).cmp(SCmp::Lt, p2(cnt()))),
    ];
    let timeout = cnt().eq(len());
    // `Run` returns the outputs of the *pre-timeout* cycle (Listing 2), so
    // the postcondition is stated over the final register, whose low
    // len+1 bits hold the quotient and whose high bits hold the remainder.
    let post = vec![
        v("shiftReg").imod(p2(len().add(i(1)))).eq(n().div(d())),
        v("shiftReg").div(p2(len().add(i(1)))).eq(n().imod(d())),
    ];
    let measure = SExpr::Ite(
        Box::new(v("state")),
        Box::new(len().add(i(1))),
        Box::new(len().sub(cnt())),
    );

    // Proof pieces, mirroring the R-divider with the extra register
    // decomposition facts.
    let t = Term::int;
    let tp2 = Term::pow2;
    let tcnt = || Term::var("cnt");
    let tlen = || Term::var("len");
    let tn = || Term::var("io_n");
    let td = || Term::var("io_d");
    let th = || tn().div(tp2(tlen().sub(tcnt())));
    let th1 = || tn().div(tp2(tlen().sub(tcnt()).sub(t(1))));
    let bit = || th1().imod(t(2));
    let sreg = || Term::var("shiftReg");
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

    let step_chain = |tail: Proof| {
        use_l(
            "div_small",
            vec![tcnt().add(t(1)), tp2(tlen().add(t(1)))],
            use_l(
                "div_div",
                vec![tn(), tp2(tlen().sub(tcnt()).sub(t(1))), t(2)],
                use_l(
                    "mod_div_swap",
                    vec![tn(), tlen().sub(tcnt()), tlen().sub(tcnt()).sub(t(1))],
                    use_l(
                        "pow2_mul",
                        vec![tcnt().add(t(1)), tlen().sub(tcnt()).sub(t(1))],
                        use_l(
                            "pow2_mul",
                            vec![tlen().sub(tcnt()), tcnt().add(t(1))],
                            have(
                                // H' == 2H + bit
                                th1().eq(t(2).mul(th()).add(bit())),
                                have(
                                    // the register's hi field is 2*rem + bit
                                    sreg().div(tp2(tlen())).eq(
                                        t(2).mul(th().imod(td())).add(bit()),
                                    ),
                                    have(
                                        // dividend-payload shrink step
                                        tn().imod(tp2(tlen().sub(tcnt())))
                                            .imod(tp2(tlen().sub(tcnt()).sub(t(1))))
                                            .eq(tn().imod(tp2(
                                                tlen().sub(tcnt()).sub(t(1)),
                                            ))),
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

    let qr_update = |tail: Proof| Proof::Cases {
        on: t(2).mul(th().imod(td())).add(bit()).ge(td()),
        if_true: Box::new(use_l(
            "div_unique",
            vec![th1(), td(), t(2).mul(th().div(td())).add(t(1))],
            tail.clone(),
        )),
        if_false: Box::new(use_l(
            "div_unique",
            vec![th1(), td(), t(2).mul(th().div(td()))],
            tail,
        )),
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
        "post:0",
        "post:1",
        "bounds:shiftReg",
    ] {
        proofs.insert(name.into(), by_cases(step_chain(qr_update(Proof::Auto))));
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
        let s = sim.reg("shiftReg").expect("declared").clone();
        let half = BigInt::pow2(len as u64 + 1);
        (s.mod_floor(&half), s.div_floor(&half))
    }

    #[test]
    #[ignore = "minutes-scale deductive proof on one core; run with: cargo test --release -p chicala-designs -- --ignored"]
    fn xdiv_verifies_for_all_widths() {
        crate::assert_proves_for_all_widths(module(), spec());
    }

    #[test]
    fn divides_concretely() {
        assert_eq!(run_concrete(4, 13, 3), (BigInt::from(4), BigInt::from(1)));
        assert_eq!(run_concrete(8, 200, 7), (BigInt::from(28), BigInt::from(4)));
        assert_eq!(run_concrete(8, 255, 2), (BigInt::from(127), BigInt::from(1)));
        assert_eq!(run_concrete(6, 0, 9), (BigInt::from(0), BigInt::from(0)));
        assert_eq!(run_concrete(2, 2, 2), (BigInt::from(1), BigInt::from(0)));
        assert_eq!(run_concrete(5, 31, 1), (BigInt::from(31), BigInt::from(0)));
    }
}
