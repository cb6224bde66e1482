//! Greedy counterexample minimization: given a failing case, repeatedly
//! try structurally smaller variants (smaller width, fewer cycles, smaller
//! input values — in that priority order) and keep any that still fails,
//! until no smaller variant fails.

use crate::engine::{check_case_with, Case, Layer, SimBackend};
use crate::registry::Design;
use chicala_bigint::BigInt;
use chicala_telemetry as telemetry;

/// Candidate cases strictly "smaller" than `c`, biggest jumps first so the
/// greedy loop converges in O(log) accepted steps per dimension.
fn candidates(d: &Design, c: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    let mut push = |cand: Case| out.push(cand.normalized(d));

    // Widths: jump to the minimum, then bisect toward it, then decrement.
    if c.width > d.min_width {
        for w in [d.min_width, (c.width + d.min_width) / 2, c.width - 1] {
            if w < c.width {
                push(Case { width: w, ..c.clone() });
            }
        }
    }
    // Cycles: one cycle, bisect, decrement.
    if c.cycles > 1 {
        for cy in [1, c.cycles / 2, c.cycles - 1] {
            if cy < c.cycles {
                push(Case { cycles: cy, ..c.clone() });
            }
        }
    }
    // Inputs: zero (or one for non-zero ports), halve, decrement.
    for (i, v) in c.inputs.iter().enumerate() {
        let floor = if d.inputs[i].nonzero { BigInt::one() } else { BigInt::zero() };
        if *v <= floor {
            continue;
        }
        let two = BigInt::from(2u64);
        for cand in [floor.clone(), v.div_floor(&two), v - BigInt::one()] {
            if cand < *v {
                let mut inputs = c.inputs.clone();
                inputs[i] = cand;
                push(Case { inputs, ..c.clone() });
            }
        }
    }
    out.dedup();
    out
}

/// Minimizes a case that fails under `backend`, the simulator the run
/// checked it with. The result still fails `check_case_with` for the same
/// (design, layer, backend) unless the failure was flaky — conformance
/// checks are deterministic, so in practice it always does.
pub fn shrink(d: &Design, layer: Layer, case: &Case, backend: SimBackend) -> Case {
    let _span = telemetry::span!("shrink:{}", d.name);
    let mut best = case.normalized(d);
    // The loop strictly decreases (width, cycles, inputs) lexicographically
    // under a well-founded order, so it terminates; the step cap is a
    // belt-and-braces bound against pathological check behavior.
    for _ in 0..512 {
        telemetry::counter("shrink.iterations", 1);
        let mut checks = 0u64;
        let next = candidates(d, &best).into_iter().find(|cand| {
            checks += 1;
            check_case_with(d, layer, cand, backend).is_err()
        });
        telemetry::counter("shrink.checks", checks);
        let Some(next) = next else { break };
        best = next;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check_case;
    use crate::registry::{Design, FinalState};
    use std::collections::BTreeMap;

    /// A deliberately wrong spec: claims rmul's accumulator is a*b except
    /// when a is even — so the minimal failing input should shrink a to the
    /// smallest even non-trivial value at the minimum width.
    fn buggy_spec(
        _w: u64,
        ins: &BTreeMap<String, BigInt>,
        _fin: &FinalState,
    ) -> Result<(), String> {
        let a = ins.get("io_a").expect("io_a");
        if a.mod_floor(&BigInt::from(2u64)).is_zero() && !a.is_zero() {
            Err(format!("forced divergence at io_a={a}"))
        } else {
            Ok(())
        }
    }

    #[test]
    fn shrinks_to_a_minimal_even_input() {
        let mut d = Design::by_name("rmul").expect("registered");
        d.spec = buggy_spec;
        let case = Case {
            width: 12,
            cycles: 13,
            inputs: vec![BigInt::from(0x8B6u64), BigInt::from(0x5A3u64)],
        };
        // The starting case fails only if io_a is even; make it so.
        let case = Case { inputs: vec![BigInt::from(0x8B6u64), case.inputs[1].clone()], ..case };
        assert!(check_case(&d, Layer::Spec, &case).is_err(), "premise: case fails");
        let small = shrink(&d, Layer::Spec, &case, SimBackend::Compiled);
        assert!(check_case(&d, Layer::Spec, &small).is_err(), "shrunk case still fails");
        assert!(small.width <= 2, "width minimized, got {}", small.width);
        assert_eq!(small.inputs[0], BigInt::from(2u64), "io_a minimized to smallest even");
        assert_eq!(small.inputs[1], BigInt::zero(), "io_b irrelevant, zeroed");
    }
}
