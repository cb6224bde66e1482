//! The RocketChip-style multiplier: the textbook shift/add algorithm
//! (the paper's `R-multiplier` case study).
//!
//! One multiplier bit is consumed per cycle: if the current low bit of the
//! shifting multiplier is set, the (left-shifting) multiplicand is added to
//! the accumulator. The verified statement: when the run times out
//! (`cnt == len`), `acc == io_a * io_b` — for every bit width at once.

use chicala_chisel::{BinaryOp, ChiselType, Expr, Module, ModuleBuilder, PExpr};
use chicala_seq::{SCmp, SExpr};
use chicala_verify::{DesignSpec, Formula, Proof, Term};
use std::collections::BTreeMap;

/// Builds the shift/add multiplier module.
pub fn module() -> Module {
    let mut m = ModuleBuilder::new("RMultiplier", &["len"]);
    let len = m.param("len");
    let w2 = len.clone() * 2;
    let io_a = m.input("io_a", ChiselType::uint(len.clone()));
    let io_b = m.input("io_b", ChiselType::uint(len.clone()));
    let io_prod = m.output("io_prod", ChiselType::uint(w2.clone()));
    let io_ready = m.output("io_ready", ChiselType::Bool);
    let state = m.reg_init("state", ChiselType::Bool, Expr::lit_b(true));
    let cnt = m.reg_init(
        "cnt",
        ChiselType::uint(len.clone() + 1),
        Expr::lit_u(0, len.clone() + 1),
    );
    let a_sh = m.reg("a_sh", ChiselType::uint(w2.clone()));
    let b_sh = m.reg("b_sh", ChiselType::uint(len.clone()));
    let acc = m.reg("acc", ChiselType::uint(w2.clone()));

    let (a2, b2, acc2, cnt2, st2) =
        (a_sh.clone(), b_sh.clone(), acc.clone(), cnt.clone(), state.clone());
    let (ia, ib, len2) = (io_a.clone(), io_b.clone(), len.clone());
    m.when_else(
        io_ready.e(),
        move |b| {
            // Latch operands and clear the accumulator.
            b.connect(a2.lv(), ia.e());
            b.connect(b2.lv(), ib.e());
            b.connect(acc2.lv(), Expr::lit_u(0, len2.clone() * 2));
            b.connect(cnt2.lv(), Expr::lit_u(0, len2.clone() + 1));
            b.connect(st2.lv(), Expr::lit_b(false));
        },
        move |b| {
            let acc3 = acc.clone();
            let a3 = a_sh.clone();
            b.when(b_sh.e().bit(0), move |b| {
                b.connect(
                    acc3.lv(),
                    Expr::Binop(BinaryOp::Add, Box::new(acc3.e()), Box::new(a3.e())),
                );
            });
            b.connect(a_sh.lv(), a_sh.e().shl(1));
            b.connect(b_sh.lv(), b_sh.e().shr(1));
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
    m.connect(io_prod.lv(), Expr::sig("acc"));
    let _ = PExpr::Const(0);
    m.build()
}

/// The multiplier's specification: invariant, timeout, post, measure, and
/// the shift/add step proof.
pub fn spec() -> DesignSpec {
    let p2 = SExpr::pow2;
    let v = SExpr::var;
    let i = SExpr::int;
    let len = || v("len");
    let cnt = || v("cnt");
    let a = || v("io_a");
    let b = || v("io_b");

    let requires = vec![len().cmp(SCmp::Ge, i(1))];
    let invariant = vec![
        // state ==> cnt == 0 (so the latch step has a decreasing measure).
        v("state").not().or(cnt().eq(i(0))),
        // !state ==> cnt < len
        v("state").or(cnt().cmp(SCmp::Lt, len())),
        // !state ==> acc == a * (b % 2^cnt)
        v("state").or(v("acc").eq(a().mul(b().imod(p2(cnt()))))),
        // !state ==> a_sh == a * 2^cnt
        v("state").or(v("a_sh").eq(a().mul(p2(cnt())))),
        // !state ==> b_sh == b / 2^cnt
        v("state").or(v("b_sh").eq(b().div(p2(cnt())))),
    ];
    let timeout = cnt().eq(len());
    let post = vec![v("acc").eq(a().mul(b()))];
    let measure = SExpr::Ite(
        Box::new(v("state")),
        Box::new(len().add(i(1))),
        Box::new(len().sub(cnt())),
    );

    // The step proof: lemma instantiations + intermediate facts.
    let t = Term::int;
    let tp2 = Term::pow2;
    let tcnt = || Term::var("cnt");
    let tlen = || Term::var("len");
    let ta = || Term::var("io_a");
    let tb = || Term::var("io_b");
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

    // Facts of the shifting step at cnt -> cnt+1.
    let step_chain = |tail: Proof| {
        use_l(
            // cnt+1 fits its register.
            "div_small",
            vec![tcnt().add(t(1)), tp2(tlen().add(t(1)))],
            use_l(
                // b % 2^(c+1) == 2^c*bit_c(b) + b % 2^c
                "mod_split",
                vec![tb(), tp2(tcnt()), t(2)],
                use_l(
                    // b / 2^(c+1) == (b / 2^c) / 2
                    "div_div",
                    vec![tb(), tp2(tcnt()), t(2)],
                    use_l(
                        // a * 2^(c+1) fits 2len bits: a*2^(c+1) < 2^(len+c+1) <= 2^(2len)
                        "pow2_mul",
                        vec![tlen(), tcnt().add(t(1))],
                        have(
                            // the shifted multiplicand stays in range
                            ta().mul(tp2(tcnt().add(t(1)))).lt(tp2(tlen().mul(t(2)))),
                            have(
                                // the new accumulator value in closed form
                                ta().mul(tb().imod(tp2(tcnt().add(t(1)))))
                                    .eq(ta()
                                        .mul(tb().imod(tp2(tcnt())))
                                        .add(
                                            ta().mul(tp2(tcnt()))
                                                .mul(tb().div(tp2(tcnt())).imod(t(2))),
                                        )),
                                have(
                                    // and it fits 2len bits
                                    ta().mul(tb().imod(tp2(tcnt().add(t(1)))))
                                        .lt(tp2(tlen().mul(t(2)))),
                                    tail,
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        )
    };

    let by_cases = |inner: Proof| Proof::Cases {
        on: Formula::BVar("state".into()),
        if_true: Box::new(Proof::Auto),
        if_false: Box::new(inner),
    };

    let mut proofs: BTreeMap<String, Proof> = BTreeMap::new();
    for name in ["preserve:2", "preserve:3", "preserve:4", "post:0", "bounds:acc", "bounds:a_sh"] {
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
    use chicala_core::transform;
    use std::collections::BTreeMap as Map;

    /// Runs the multiplier to completion at a concrete width.
    fn run_concrete(len: i64, a: u64, b: u64) -> BigInt {
        let m = module();
        let em = elaborate(&m, &[("len".to_string(), len)].into_iter().collect())
            .expect("elaborates");
        let mut sim = Simulator::new(&em, &Map::new()).expect("constructs");
        let inputs: Map<String, BigInt> = [
            ("io_a".to_string(), BigInt::from(a)),
            ("io_b".to_string(), BigInt::from(b)),
        ]
        .into_iter()
        .collect();
        // 1 latch cycle + len iterations; one more would re-latch.
        for _ in 0..(len as usize + 1) {
            sim.step(&inputs).expect("steps");
        }
        sim.reg("acc").expect("declared").clone()
    }

    #[test]
    fn multiplies_concretely() {
        assert_eq!(run_concrete(4, 13, 11), BigInt::from(143));
        assert_eq!(run_concrete(8, 200, 3), BigInt::from(600));
        assert_eq!(run_concrete(8, 255, 255), BigInt::from(65025));
        assert_eq!(run_concrete(6, 0, 63), BigInt::from(0));
    }

    #[test]
    #[ignore = "minutes-scale deductive proof on one core; run with: cargo test --release -p chicala-designs -- --ignored"]
    fn rmul_verifies_for_all_widths() {
        crate::assert_proves_for_all_widths(module(), spec());
    }

    #[test]
    fn transforms_cleanly() {
        let out = transform(&module()).expect("transforms");
        let text = out.program.to_string();
        assert!(text.contains("acc_next"), "{text}");
    }
}
