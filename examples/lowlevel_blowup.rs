//! Experiment E1: the cost of low-level per-bit-width verification grows
//! steeply with the width, while the high-level parametric proof is done
//! once for every width.
//!
//! Two tables. First, the monolithic-BDD baseline: for each width w, the
//! shift/add multiplier is unrolled symbolically over BDDs and the theorem
//! `acc == a*b` is proved *at that width only* — this is the curve that
//! forced the old `gate_max_width ≤ 10` ceilings. Second, the per-width
//! check as the conformance gates layer runs it: `formal_gate_obligation`
//! unrolls the design and builds the golden-model miter straight into the
//! AIG, which folds it to the constant-true edge as it is built, then
//! `prove_net` runs under BDD and under SAT. Both engine columns only time
//! a return on that constant root; the build column is the per-width cost
//! that remains, far past the old ceiling.
//!
//! Run with `cargo run --release --example lowlevel_blowup`.

use chicala::chisel::elaborate;
use chicala::conformance::{formal_gate_obligation, Design};
use chicala::lowlevel::bdd::Bdd;
use chicala::lowlevel::{self, prove_net, Backend, Word};
use std::collections::BTreeMap;
use std::time::Instant;

/// Widest direct-product BDD proof attempted (past this the table is all
/// blowup and no information).
const BDD_DIRECT_MAX: i64 = 10;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Per-width BDD proof of the shift/add multiplier (acc == a*b):\n");
    println!("{:>6} {:>12} {:>12} {:>9}", "width", "BDD nodes", "time", "status");
    let module = chicala::designs::rmul::module();
    for len in 2i64..=BDD_DIRECT_MAX {
        let start = Instant::now();
        let em = elaborate(&module, &[("len".to_string(), len)].into_iter().collect())?;
        let mut bdd = Bdd::new();
        // Interleave a/b variables (a sane static order for multiplication).
        let inputs = lowlevel::fresh_inputs(
            &em,
            |name, i, b: &mut Bdd| {
                let base = if name == "io_a" { 0 } else { 1 };
                b.var((2 * i + base) as u32)
            },
            &mut bdd,
        );
        let st = lowlevel::unroll(&em, &mut bdd, &inputs, &BTreeMap::new(), len as usize + 1)?;
        // Reference product from the same inputs.
        let reference = mul_reference(&mut bdd, &inputs["io_a"], &inputs["io_b"]);
        let eq = lowlevel::words_equal(&mut bdd, &st.regs["acc"], &reference);
        let ok = bdd.is_true(eq);
        println!(
            "{:>6} {:>12} {:>12.2?} {:>9}",
            len,
            bdd.node_count(),
            start.elapsed(),
            if ok { "PROVED" } else { "FAILED" }
        );
    }

    let d = Design::by_name("rmul").expect("rmul is registered");
    println!(
        "\nThe gates layer's actual per-width check: building the design-vs-golden\n\
         obligation (the AIG folds the miter to the constant-true edge as it is\n\
         built), then `prove_net` under BDD and SAT, which both return on that root:\n"
    );
    println!("{:>6} {:>12} {:>12} {:>12} {:>9}", "width", "build", "BDD", "SAT", "status");
    for width in 2..=d.gate_max_width {
        let t = Instant::now();
        let ob = formal_gate_obligation(&d, width)?.expect("rmul has a golden model");
        let build = t.elapsed();
        let bdd_cell = if width <= BDD_DIRECT_MAX as u64 {
            let t = Instant::now();
            let r = prove_net(&ob.netlist, ob.property, Backend::Bdd, width as usize, &ob.var_order);
            assert!(r.is_proved());
            format!("{:.2?}", t.elapsed())
        } else {
            "-".to_string()
        };
        let t = Instant::now();
        let r = prove_net(&ob.netlist, ob.property, Backend::Sat, width as usize, &ob.var_order);
        println!(
            "{:>6} {:>12} {:>12} {:>12} {:>9}",
            width,
            format!("{build:.2?}"),
            bdd_cell,
            format!("{:.2?}", t.elapsed()),
            if r.is_proved() { "PROVED" } else { "FAILED" }
        );
    }

    println!("\nThe parametric proof (see `verify_multipliers`) covers all of these");
    println!("widths — and every larger one — with a single, width-independent check.");
    Ok(())
}

/// Shift-add reference product over the BDD kit.
fn mul_reference(bdd: &mut Bdd, a: &Word<chicala::lowlevel::bdd::Ref>, b: &Word<chicala::lowlevel::bdd::Ref>) -> Word<chicala::lowlevel::bdd::Ref> {
    use chicala::lowlevel::{add_words, BitKit};
    let w = a.width() + b.width();
    let mut acc = Word { bits: vec![chicala::lowlevel::bdd::FALSE; w], signed: false };
    for (i, sel) in b.bits.iter().enumerate() {
        let mut partial = vec![chicala::lowlevel::bdd::FALSE; i];
        for j in 0..(w - i).min(a.width()) {
            let gated = bdd.and(*sel, a.bits[j]);
            partial.push(gated);
        }
        let pw = Word { bits: partial, signed: false };
        acc = add_words(bdd, &acc, &pw, w);
        let _ = BitKit::constant(bdd, false);
    }
    acc
}
