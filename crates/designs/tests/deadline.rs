//! Every generated VC of the five specs, built by each design's proof job
//! and discharged by the driver (`discharge_all`) under a 100 ms kernel
//! deadline each. About half of them do not prove in that
//! budget, so this is the check that a hard VC stops at its deadline
//! instead of running on: each discharge must return within
//! [`PER_VC_BOUND`] and the whole set within [`TOTAL_BOUND`]. Verdicts are
//! not asserted; which VCs prove in 100 ms depends on the machine.
//!
//! Measured under `cargo test` on a 2-core machine: 113 VCs in 6.4 s, the
//! slowest discharge 117 ms (120 ms with two more CPU-bound processes
//! running).

use chicala_designs::verified_designs;
use chicala_verify::{discharge_all, Verdict};
use std::time::{Duration, Instant};

/// The kernel deadline each VC runs under.
const DEADLINE: Duration = Duration::from_millis(100);

/// Longest one discharge may take: the deadline plus room for the kernel
/// to reach its next deadline check.
const PER_VC_BOUND: Duration = Duration::from_millis(500);

/// Longest the whole set may take, generation included: about twice what
/// it would take if every VC ran to its deadline.
const TOTAL_BOUND: Duration = Duration::from_secs(25);

/// VCs the five specs generate.
const TOTAL_VCS: usize = 113;

#[test]
fn every_vc_stops_at_its_deadline() {
    let start = Instant::now();
    let mut designs = 0;
    let mut runs: Vec<(Duration, String, bool)> = Vec::new();
    for d in verified_designs() {
        let Some(job) = d.job() else { continue };
        let job = job.unwrap_or_else(|e| panic!("{}: {e}", d.name));
        designs += 1;
        for v in discharge_all(&job.env, &job.spec, &job.vcs, Some(DEADLINE)) {
            let name = format!("{}/{}", d.name, v.vc.name);
            runs.push((v.elapsed, name, v.verdict == Verdict::Proved));
        }
    }
    let total = start.elapsed();
    let slowest = runs.iter().max().expect("the specs generate VCs");
    eprintln!(
        "{} VCs in {:.2} s: {} proved, slowest {} at {:.1} ms",
        runs.len(),
        total.as_secs_f64(),
        runs.iter().filter(|r| r.2).count(),
        slowest.1,
        slowest.0.as_secs_f64() * 1e3
    );
    assert_eq!(
        (designs, runs.len()),
        (5, TOTAL_VCS),
        "(designs with a spec, VCs)"
    );
    let late: Vec<String> = runs
        .iter()
        .filter(|r| r.0 > PER_VC_BOUND)
        .map(|r| format!("{} {:.0} ms", r.1, r.0.as_secs_f64() * 1e3))
        .collect();
    assert!(
        late.is_empty(),
        "ran past {PER_VC_BOUND:?} under a {DEADLINE:?} deadline: {late:?}"
    );
    assert!(
        total <= TOTAL_BOUND,
        "{TOTAL_VCS} VCs took {total:?}, over {TOTAL_BOUND:?}"
    );
}
