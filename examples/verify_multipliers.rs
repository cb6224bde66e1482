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
use chicala::core::transform;
use chicala::verify::{discharge_all, generate_vcs, prepare_env, DesignSpec, Env, Verdict};
use std::time::{Duration, Instant};

/// Wall-clock budget per verification condition.
const DEADLINE: Duration = Duration::from_secs(2);

fn verify(
    name: &str,
    title: &str,
    module: &Module,
    spec: &DesignSpec,
    mut env: Env,
) -> Result<(), Box<dyn std::error::Error>> {
    let start = Instant::now();
    let out = transform(module)?;
    prepare_env(&mut env, spec)?;
    let vcs = generate_vcs(&out.program, spec, &out.obligations)?;
    println!("== {title}: {} VCs, {} s deadline each ==", vcs.len(), DEADLINE.as_secs());
    let mut proved = 0;
    discharge_all(&env, spec, &vcs, DEADLINE, |v| {
        proved += (v.verdict == Verdict::Proved) as usize;
        println!("  {name} {v}");
    });
    println!(
        "{name}: {proved} of {} VCs proved for every width in {:.1?}\n",
        vcs.len(),
        start.elapsed()
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Verifying the multipliers for every bit width at once...\n");
    let mut env = Env::new();
    chicala::bvlib::install_bitvec(&mut env).map_err(|(n, e)| format!("lemma {n}: {e}"))?;
    verify(
        "rmul",
        "R-multiplier (shift/add)",
        &chicala::designs::rmul::module(),
        &chicala::designs::rmul::spec(),
        env.clone(),
    )?;
    chicala::bvlib::install_listlib(&mut env).map_err(|(n, e)| format!("lemma {n}: {e}"))?;
    verify(
        "xmul",
        "X-multiplier (Booth + carry-save)",
        &chicala::designs::xmul::module(),
        &chicala::designs::xmul::spec(),
        env,
    )?;
    Ok(())
}
