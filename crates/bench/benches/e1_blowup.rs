//! Experiment E1: per-bit-width low-level verification cost vs the single
//! width-independent parametric proof.
//!
//! The per-width series (BDD proof of `acc == a*b` for the shift/add
//! multiplier) grows exponentially in the width; the parametric check of
//! the same design (its full VC set through the kernel, 2 s per VC) is a
//! constant, width-independent cost. This is the paper's §1 motivation,
//! measured. Not every rmul VC closes yet (ROADMAP item 1), so the
//! parametric line says how many did.

use chicala_chisel::elaborate;
use chicala_lowlevel::bdd::Bdd;
use chicala_lowlevel::{add_words, fresh_inputs, unroll, words_equal, Word};
use chicala_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use chicala_designs::ProofJob;
use chicala_verify::{discharge_all, Verdict};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock budget per verification condition of the parametric proof.
const DEADLINE: Duration = Duration::from_secs(2);

fn mul_reference(
    bdd: &mut Bdd,
    a: &Word<chicala_lowlevel::bdd::Ref>,
    b: &Word<chicala_lowlevel::bdd::Ref>,
) -> Word<chicala_lowlevel::bdd::Ref> {
    let w = a.width() + b.width();
    let mut acc = Word { bits: vec![chicala_lowlevel::bdd::FALSE; w], signed: false };
    for (i, sel) in b.bits.iter().enumerate() {
        let mut partial = vec![chicala_lowlevel::bdd::FALSE; i];
        for j in 0..(w - i).min(a.width()) {
            let gated = bdd.and(*sel, a.bits[j]);
            partial.push(gated);
        }
        let pw = Word { bits: partial, signed: false };
        acc = add_words(bdd, &acc, &pw, w);
    }
    acc
}

fn check_width(len: i64) -> usize {
    let module = chicala_designs::rmul::module();
    let em = elaborate(&module, &[("len".to_string(), len)].into_iter().collect())
        .expect("elaborates");
    let mut bdd = Bdd::new();
    let inputs = fresh_inputs(
        &em,
        |name, i, b: &mut Bdd| {
            let base = if name == "io_a" { 0 } else { 1 };
            b.var((2 * i + base) as u32)
        },
        &mut bdd,
    );
    let st = unroll(&em, &mut bdd, &inputs, &BTreeMap::new(), len as usize + 1)
        .expect("unrolls");
    let reference = mul_reference(&mut bdd, &inputs["io_a"], &inputs["io_b"]);
    let eq = words_equal(&mut bdd, &st.regs["acc"], &reference);
    assert!(bdd.is_true(eq), "per-width proof failed at {len}");
    bdd.node_count()
}

/// The parametric proof of rmul: (VCs proved, VCs generated).
fn parametric_proof() -> (usize, usize) {
    let job = ProofJob::new(&chicala_designs::rmul::module(), chicala_designs::rmul::spec())
        .expect("rmul's proof job builds");
    let proved = discharge_all(&job.env, &job.spec, &job.vcs, Some(DEADLINE))
        .filter(|v| v.verdict == Verdict::Proved)
        .count();
    (proved, job.vcs.len())
}

fn e1(c: &mut Criterion) {
    println!("\nE1: per-width BDD proof sizes (shift/add multiplier, acc == a*b):");
    for len in 2i64..=8 {
        let nodes = check_width(len);
        println!("  width {len:>2}: {nodes:>9} BDD nodes");
    }
    println!("  (the parametric proof covers ALL widths with one width-independent check)\n");

    let mut group = c.benchmark_group("e1/per_width_bdd");
    group.sample_size(10);
    for len in [2i64, 4, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &len| {
            b.iter(|| check_width(std::hint::black_box(len)))
        });
    }
    group.finish();

    // The parametric proof's cost is a width-independent constant: the
    // point of the comparison.
    let start = Instant::now();
    let (proved, vcs) = parametric_proof();
    println!(
        "  parametric proof (rmul, ALL widths): {proved} of {vcs} VCs proved in {:.1?} \
         at {} s per VC (width-independent)",
        start.elapsed(),
        DEADLINE.as_secs()
    );
}

criterion_group!(benches, e1);
criterion_main!(benches);
