//! Search fingerprint of the CDCL solver on the sweep families.
//!
//! Each `sweep::family` miter is built exactly as perfbench's `gates`
//! workload builds it (96 inputs; operands at inputs 0, 32 and 64) and
//! proved two ways:
//!
//! * one-shot at the family's perfbench cap width: `tseitin_pg` of the
//!   negated root into a fresh `Solver`, then `solve`. The test pins the
//!   solver's full `Stats`.
//! * through one `IncrementalProver` session over widths 2..=cap. The test
//!   pins the session's conflict total.
//!
//! These counters are a fingerprint of the search: decision order, clause
//! learning, minimisation, restarts and clause-database reduction all move
//! them. A change to how the solver *stores* clauses, watches or
//! assignments must leave every number here unchanged. A change that is
//! meant to alter the search (a new heuristic, a different reduction
//! policy) updates these numbers in the same commit and justifies the new
//! values, family by family, in CHANGES.md.

use chicala_lowlevel::sweep::family;
use chicala_lowlevel::{tseitin_pg, Aig, AigRef, IncrementalProver, SweepVerdict, AIG_TRUE};
use chicala_sat::{SatResult, Solver, Stats};

type FamilyBuild = fn(&mut Aig, &[AigRef], usize) -> AigRef;

/// `Stats` as a tuple, in field order: decisions, conflicts, propagations,
/// learned_clauses, learned_literals, minimized_literals, restarts,
/// deleted_clauses.
type Fingerprint = (u64, u64, u64, u64, u64, u64, u64, u64);

fn fingerprint(s: Stats) -> Fingerprint {
    (
        s.decisions,
        s.conflicts,
        s.propagations,
        s.learned_clauses,
        s.learned_literals,
        s.minimized_literals,
        s.restarts,
        s.deleted_clauses,
    )
}

/// (name, cap width, build, one-shot `Stats` at the cap, session conflicts
/// over 2..=cap).
const FAMILIES: [(&str, usize, FamilyBuild, Fingerprint, u64); 6] = [
    (
        "mulcomm",
        6,
        |g, i, w| family::mulcomm_root(g, &i[..w], &i[32..32 + w], w),
        (2444, 2113, 156420, 2112, 24214, 22175, 13, 1042),
        1827,
    ),
    (
        "muldist",
        4,
        |g, i, w| family::muldist_root(g, &i[..w], &i[32..32 + w], &i[64..64 + w], w),
        (2439, 2077, 128102, 2076, 24422, 18688, 13, 1036),
        1689,
    ),
    (
        "mulinc",
        6,
        |g, i, w| family::mulinc_root(g, &i[..w], &i[32..32 + w], w),
        (4849, 4150, 358384, 4149, 46655, 47522, 21, 3017),
        2670,
    ),
    (
        "addassoc",
        14,
        |g, i, w| family::addassoc_root(g, &i[..w], &i[32..32 + w], &i[64..64 + w], w),
        (8123, 4797, 204141, 4796, 42273, 12179, 24, 3773),
        1704,
    ),
    (
        "addxor",
        16,
        |g, i, w| family::addxor_root(g, &i[..w], &i[32..32 + w], w),
        (802, 392, 15289, 391, 1894, 595, 2, 0),
        144,
    ),
    (
        "incdec",
        16,
        |g, i, w| family::incdec_root(g, &i[..w], w),
        (543, 55, 2951, 54, 161, 72, 0, 0),
        87,
    ),
];

#[test]
fn oneshot_stats_at_the_cap_width_are_unchanged() {
    for (name, cap, build, want, _) in FAMILIES {
        let mut g = Aig::new();
        let inputs: Vec<AigRef> = (0..96).map(|_| g.input()).collect();
        let root = build(&mut g, &inputs, cap);
        assert_ne!(root, AIG_TRUE, "{name} w={cap} folded before SAT");
        let mut s = Solver::new();
        let enc = tseitin_pg(&g, !root, &mut s);
        s.add_clause(&[enc.lit]);
        assert_eq!(s.solve(), SatResult::Unsat, "{name} w={cap}");
        assert_eq!(fingerprint(s.stats()), want, "{name} w={cap}: one-shot Stats moved");
    }
}

#[test]
fn session_conflicts_over_every_width_are_unchanged() {
    for (name, cap, build, _, want) in FAMILIES {
        let mut session = IncrementalProver::new();
        let inputs: Vec<AigRef> = (0..96).map(|_| session.aig.input()).collect();
        for w in 2..=cap {
            let root = build(&mut session.aig, &inputs, w);
            assert_eq!(session.prove_root(w as u64, root), SweepVerdict::Proved, "{name} w={w}");
        }
        let conflicts: u64 = session.stats.per_width.iter().map(|p| p.conflicts).sum();
        assert_eq!(conflicts, want, "{name}: session conflicts over 2..={cap} moved");
    }
}
