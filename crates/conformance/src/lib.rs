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
//! * Library: [`run_all`] / [`run_design`] / [`check_case_with`], under
//!   the [`SimBackend`] a [`Config`] or caller names; [`check_case`] and
//!   [`replay_case`] use the compiled backend.
//! * Integration test: `tests/conformance.rs` at the workspace root runs
//!   the full registry on every `cargo test`.
//! * CLI: `cargo run --release --example conformance -- --design xmul
//!   --seed 7 --cases 5000 --max-width 48` for long soak runs.
//!
//! Replay: every failure prints the master seed and a per-case seed, each
//! with a CLI line. The first re-runs the design's whole soak: it sets
//! `CHICALA_SEED` to the master seed and carries the run's layers, case
//! count, width cap and backend. The second passes the case seed to the
//! CLI `--replay` flag to re-check a single case under the backend it
//! failed under.
//! Failures worth keeping go into
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
    formal_gate_obligation_shared, replay_case, run_all, run_design, Case, Config, Failure,
    FormalObligation, Layer, LayerStats, Report, SharedObligation, SimBackend,
};
pub use registry::{all_designs, drill_designs, Design, FinalState, GateEnv, GateSpecFn, InputSpec};
pub use capture::{
    capture_failure, capture_traces, compare_layers, miter_trace, record_layers, ExecLayer,
    Inputs, LayerError,
};
pub use rng::{seed_from_env, SplitMix64};
pub use shrink::shrink;
