//! Verifies both case-study dividers — the RocketChip restoring divider
//! and the XiangShan `Radix2Divider` — for all bit widths at once, then
//! sanity-runs them at a concrete width.
//!
//! Every verification condition is discharged under a 2 s deadline and its
//! verdict printed as `<design> <verdict> <vc> <ms>`; not all of them close
//! within it (README § Quickstart). Run with
//! `cargo run --release --example verify_dividers`. It exits 0 whatever the
//! verdicts, and with an error only if a step fails to run.

use chicala::bigint::BigInt;
use chicala::chisel::{elaborate, Module, Simulator};
use chicala::designs::ProofJob;
use chicala::verify::{discharge_all, DesignSpec, Verdict};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock budget per verification condition.
const DEADLINE: Duration = Duration::from_secs(2);

fn verify(
    name: &str,
    title: &str,
    module: &Module,
    spec: DesignSpec,
) -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let job = ProofJob::new(module, spec)?;
    println!("== {title}: {} VCs, {} s deadline each ==", job.vcs.len(), DEADLINE.as_secs());
    let mut proved = 0;
    for v in discharge_all(&job.env, &job.spec, &job.vcs, Some(DEADLINE)) {
        proved += (v.verdict == Verdict::Proved) as usize;
        println!("  {name} {v}");
    }
    println!(
        "{name}: {proved} of {} VCs proved for every width in {:.1?}\n",
        job.vcs.len(),
        start.elapsed()
    );
    Ok(())
}

fn demo_division(name: &str, module: &Module, len: i64, n: u64, d: u64) {
    let em = elaborate(module, &[("len".to_string(), len)].into_iter().collect())
        .expect("elaborates");
    let mut sim = Simulator::new(&em, &BTreeMap::new()).expect("constructs");
    let inputs: BTreeMap<String, BigInt> = [
        ("io_n".to_string(), BigInt::from(n)),
        ("io_d".to_string(), BigInt::from(d)),
    ]
    .into_iter()
    .collect();
    for _ in 0..(len as usize + 1) {
        sim.step(&inputs).expect("steps");
    }
    println!("  {name} at len={len}: {n} / {d} computed by the hardware model");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Verifying the shift/subtract dividers for every bit width at once...\n");
    verify(
        "rdiv",
        "R-divider (RocketChip)",
        &chicala::designs::rdiv::module(),
        chicala::designs::rdiv::spec(),
    )?;
    verify(
        "xdiv",
        "X-divider (XiangShan Radix2Divider)",
        &chicala::designs::xdiv::module(),
        chicala::designs::xdiv::spec(),
    )?;
    println!("Concrete spot checks:");
    demo_division("R-divider", &chicala::designs::rdiv::module(), 16, 50000, 123);
    demo_division("X-divider", &chicala::designs::xdiv::module(), 16, 50000, 123);
    Ok(())
}
