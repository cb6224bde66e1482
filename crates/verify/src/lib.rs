//! A deductive verifier for the generated sequential programs — the
//! workspace's stand-in for Stainless (§3 of the paper).
//!
//! * term-level logic: nonlinear integer arithmetic with flooring
//!   division, `Pow2`, and bitwise operators (the integer view of
//!   bit-vectors, Listing 3);
//! * a proof kernel with a small trusted axiom base, an automatic
//!   core (conditional splitting, polynomial normalisation, `Div`/`Pow2`
//!   fact saturation, Fourier–Motzkin), and explicit tactics — lemma
//!   instantiation, equation chains (Listing 4), case analysis, induction,
//!   and unfolding — matching the paper's proof-refinement strategies;
//! * VC generation: symbolic execution of `Trans` and the `Init`/`Run`
//!   refinement rule (§3.1) that reduces "for all clock cycles and all bit
//!   widths" to invariant preservation plus a termination measure.

mod axioms;
pub mod cache;
mod kernel;
mod linarith;
mod poly;
pub mod store;
mod term;
mod vcgen;

pub use axioms::all as axiom_lemmas;
pub use kernel::{CalcStep, DefFn, Env, Lemma, Limits, Proof, ProofError};

/// Bounds this thread's proof-state interners (term arena, linear-constraint
/// store, refutation memo) at a point where no interned ids are live — the
/// boundary between independent VCs in a long-running process. The kernel
/// checkpoints on its own at each `auto` entry; loops that discharge many
/// VCs (benchmarks, soak runs) should also call this between VCs so memory
/// stays flat across the whole run.
pub fn gc_checkpoint() {
    store::gc_checkpoint();
    linarith::gc_checkpoint();
}

/// Number of Fourier–Motzkin invocations so far (profiling aid).
pub fn refute_calls() -> u64 {
    linarith::REFUTE_CALLS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Total microseconds spent in Fourier–Motzkin so far (profiling aid).
pub fn refute_micros() -> u64 {
    linarith::REFUTE_MICROS.load(std::sync::atomic::Ordering::Relaxed)
}
pub use poly::{assume_ite, find_ite, normalize, ItePresent, Poly};
pub use store::{normalize_cached, TermId, TermStore};
pub use term::{Formula, Sym, Term};
pub use vcgen::{
    discharge_all, discharge_vc, generate_vcs, prepare_env, verify_design, DesignSpec, SymState,
    SymValue, Vc, VcError, VcReport, VcVerdict, Verdict,
};
