//! Verifies both case-study multipliers — the RocketChip shift/add
//! multiplier and the XiangShan-style Booth/carry-save multiplier — for
//! all bit widths at once.
//!
//! Every verification condition is discharged under a 2 s deadline and its
//! verdict printed as `<design> <verdict> <vc> <ms>`; not all of them close
//! within it (README § Quickstart). Run with
//! `cargo run --release --example verify_multipliers`. It exits 0 whatever
//! the verdicts, and with an error only if a step fails to run.

use chicala::chisel::Module;
use chicala::designs::ProofJob;
use chicala::verify::{discharge_all, DesignSpec, Verdict};
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Verifying the multipliers for every bit width at once...\n");
    verify(
        "rmul",
        "R-multiplier (shift/add)",
        &chicala::designs::rmul::module(),
        chicala::designs::rmul::spec(),
    )?;
    verify(
        "xmul",
        "X-multiplier (Booth + carry-save)",
        &chicala::designs::xmul::module(),
        chicala::designs::xmul::spec(),
    )?;
    Ok(())
}
