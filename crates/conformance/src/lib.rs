//! `chicala-conformance`: the cross-layer differential conformance engine.
//!
//! The paper's claim rests on four semantic layers agreeing: the Chisel IR
//! reference interpreter, the generated sequential program (`Trans`/`Run`),
//! the per-width gate-level bit-blast baseline, and the verifier's symbolic
//! execution of `Trans`. This crate checks the three executable layers (the
//! fourth is what the deductive verifier covers) against each other and
//! against pure mathematical specs, for every registered design, under a
//! deterministic seeded PRNG with greedy counterexample shrinking.
//!
//! Surfaces:
//!
//! * Library: [`run_all`] / [`run_design`] / [`check_case`].
//! * Integration test: `tests/conformance.rs` at the workspace root runs
//!   the full registry on every `cargo test`.
//! * CLI: `cargo run --release --example conformance -- --design xmul
//!   --seed 7 --cases 5000 --max-width 48` for long soak runs.
//!
//! Replay: every failure prints the master seed and a per-case seed; set
//! `CHICALA_SEED` to the master seed to repeat a whole run, or pass the
//! case seed to the CLI `--replay` flag (or [`replay_case`]) to re-check a
//! single case. Failures worth keeping go into
//! `proptest-regressions/conformance.txt`, which [`regressions::replay_all`]
//! re-runs before any random exploration.

pub mod capture;
pub mod engine;
pub mod registry;
pub mod regressions;
pub mod rng;
pub mod shrink;

pub use engine::{
    check_case, check_case_with, final_state, formal_gate_obligation, gen_case, gen_case_for,
    formal_gate_obligation_shared, replay_case, run_all, run_design, sweep_gates_formal, Case,
    Config, Failure, FormalObligation, Layer, LayerStats, Report, SharedObligation, SimBackend,
    SweepVerdicts,
};
pub use registry::{all_designs, drill_designs, Design, FinalState, GateEnv, GateSpecFn, InputSpec};
pub use capture::{capture_failure, capture_traces, miter_trace};
pub use rng::{seed_from_env, SplitMix64};
pub use shrink::shrink;
