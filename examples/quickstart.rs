//! Quickstart: the whole pipeline on the paper's running example.
//!
//! 1. Build the rotate-register module (Listing 1);
//! 2. transform it into a sequential program (Listing 2);
//! 3. co-simulate both semantics at a concrete width;
//! 4. verify it *for all bit widths at once* (Listings 3–4): every
//!    verification condition is discharged under a 2 s deadline and its
//!    verdict printed (two do not close within it; see README § Quickstart);
//! 5. contrast with the per-width low-level (BDD) check.
//!
//! Run with `cargo run --release --example quickstart`. It exits 0 whatever
//! the verdicts, and with an error only if a step fails to run.

use chicala::bigint::BigInt;
use chicala::chisel::{elaborate, Simulator};
use chicala::core::transform;
use chicala::lowlevel;
use chicala::seq::{SValue, SeqRunner};
use chicala::designs::ProofJob;
use chicala::verify::{discharge_all, Verdict};
use std::collections::BTreeMap;
use std::time::Duration;

/// Wall-clock budget per verification condition.
const DEADLINE: Duration = Duration::from_secs(2);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The Chisel-subset module.
    let module = chicala::designs::rotate::module();
    println!("== Chisel source (generated from the Rust builder) ==\n{module}");

    // 2. The transformation: the paper's primary contribution.
    let out = transform(&module)?;
    println!("== Generated sequential program ==\n{}", out.program);

    // 3. Co-simulation at len = 8.
    let len = 8i64;
    let bindings: chicala::chisel::Bindings =
        [("len".to_string(), len)].into_iter().collect();
    let em = elaborate(&module, &bindings)?;
    let mut sim = Simulator::new(&em, &BTreeMap::new())?;
    let runner = SeqRunner::new(
        &out.program,
        [("len".to_string(), BigInt::from(len))].into_iter().collect(),
    );
    let input_val = 0b1011_0110u64;
    let hw_in: BTreeMap<String, BigInt> =
        [("io_in".to_string(), BigInt::from(input_val))].into_iter().collect();
    let sw_in: BTreeMap<String, SValue> =
        [("io_in".to_string(), SValue::Int(BigInt::from(input_val)))]
            .into_iter()
            .collect();
    let mut regs = runner.init_regs(&BTreeMap::new())?;
    for cycle in 1..=(len as usize + 1) {
        sim.step(&hw_in)?;
        let r = runner.trans(&sw_in, &regs)?;
        regs = r.regs;
        let hw_r = sim.reg("R").expect("R exists");
        println!("cycle {cycle:2}: hardware R = {hw_r:3}  software R = {:?}", regs["R"]);
    }
    println!("(after 1 + len cycles the register has rotated back to the input)\n");

    // 4. Verify for ALL bit widths at once, one VC at a time.
    let job = ProofJob::new(&module, chicala::designs::rotate::spec())?;
    println!(
        "== Parametric verification: {} VCs, {} s deadline each ==",
        job.vcs.len(),
        DEADLINE.as_secs()
    );
    let mut proved = 0;
    for v in discharge_all(&job.env, &job.spec, &job.vcs, Some(DEADLINE)) {
        proved += (v.verdict == Verdict::Proved) as usize;
        println!("  {v}");
    }
    println!("{proved} of {} VCs proved for every width", job.vcs.len());

    // 5. The low-level contrast: a per-width BDD proof (one width only).
    let mut bdd = lowlevel::bdd::Bdd::new();
    let inputs = lowlevel::fresh_inputs(&em, |_, i, b: &mut lowlevel::bdd::Bdd| b.var(i as u32), &mut bdd);
    let st = lowlevel::unroll(&em, &mut bdd, &inputs, &BTreeMap::new(), len as usize + 1)?;
    let eq = lowlevel::words_equal(&mut bdd, &st.regs["R"], &inputs["io_in"]);
    println!(
        "\n== Low-level check at len={len} only: property {} ({} BDD nodes) ==",
        if bdd.is_true(eq) { "PROVED" } else { "FAILED" },
        bdd.node_count()
    );
    println!("(the BDD proof covers len={len}; the parametric proof above covers every len)");
    Ok(())
}
