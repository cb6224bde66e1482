//! `chicala-gen`: a seeded, shrinkable generative design fuzzer for the
//! Chisel-subset IR.
//!
//! The paper proves six hand-written designs; this crate manufactures
//! thousands more. [`gen_module`] produces a random module — `when` nests,
//! registers, wires, and the full unsigned operator palette — that
//! elaborates at every width by construction (width-aware typing over a
//! small totally-ordered class set). [`check_generated`] soaks one module
//! through the whole stack: structural invariants, the
//! Chisel-to-sequential transform, five-way differential cosim at several
//! widths (the generated sequential program, the compiled slot-VM, the
//! `when`-flattened interpreter and the compiled sequential VM, each
//! against the reference interpreter: recorded over one input schedule per
//! width by the conformance engine's layer recorder and compared by its one
//! cosim comparison), and a gate-level self-miter of the module against
//! its pre-optimization (`when`-flattened) form that must fold to
//! constant-true.
//!
//! Divergences are greedily shrunk ([`shrink_module`]) to a minimal
//! reproducer under a strictly-decreasing `(nodes, width, depth)` measure
//! and recorded in the committed corpus
//! (`proptest-regressions/generated.txt`), replayable via
//! `CHICALA_GEN_SEED` or the `gen_soak` example's `--replay` flag.

pub mod capture;
pub mod check;
pub mod corpus;
pub mod generate;
pub mod shrink;

pub use capture::{capture_divergence, record_width_traces};
pub use check::{check_generated, sample_widths, self_miter, MITER_CYCLES, MITER_WIDTH_CAP};
pub use corpus::{corpus_entries, replay_all, GenRegression, CORPUS};
pub use generate::{gen_module, GenModule, WidthClass, MIN_LEN};
pub use shrink::{shrink_candidates, shrink_module, shrink_trace, MAX_STEPS};

use chicala_chisel::{node_count, Module};
use chicala_conformance::SplitMix64;
use chicala_par::ThreadPool;
use std::time::{Duration, Instant};

/// Reads the fuzzer master seed from `CHICALA_GEN_SEED` (decimal, or hex
/// with an `0x` prefix), falling back to `default`.
pub fn gen_seed_from_env(default: u64) -> u64 {
    chicala_trace::replay::seed_from_env("CHICALA_GEN_SEED", default)
}

/// Soak configuration.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Master seed; each module's case seed is drawn from this stream.
    pub seed: u64,
    /// Number of generated modules.
    pub modules: usize,
    /// Width ceiling for cosim sampling (the self-miter is additionally
    /// capped at [`MITER_WIDTH_CAP`]).
    pub max_width: u64,
    /// Stop at the first divergence instead of collecting all of them.
    pub stop_at_first: bool,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            seed: gen_seed_from_env(0xC1CA_0E00),
            modules: 200,
            max_width: 16,
            stop_at_first: true,
        }
    }
}

/// One divergence found by a soak, with its shrunk reproducer.
#[derive(Clone, Debug)]
pub struct SoakDivergence {
    /// Seed that regenerates the original module.
    pub case_seed: u64,
    /// Width cap the module was soaked under.
    pub max_width: u64,
    /// The original divergence message.
    pub message: String,
    /// IR node count of the original module.
    pub original_nodes: u64,
    /// The shrunk minimal reproducer.
    pub shrunk: Module,
    /// IR node count of the reproducer.
    pub shrunk_nodes: u64,
    /// The reproducer's divergence message (stages can shift as the
    /// module shrinks).
    pub shrunk_message: String,
    /// Path of the replay bundle captured for this divergence, when trace
    /// capture is enabled (see [`capture::capture_divergence`]).
    pub bundle: Option<std::path::PathBuf>,
}

impl SoakDivergence {
    /// The corpus line pinning this divergence.
    pub fn corpus_line(&self) -> String {
        format!("gg 0x{:016X} {}", self.case_seed, self.max_width)
    }

    /// The exact CLI line replaying this one case.
    pub fn replay_line(&self) -> String {
        format!(
            "cargo run --release --example gen_soak -- --replay {} --max-width {}",
            chicala_trace::replay::format_seed(self.case_seed),
            self.max_width
        )
    }
}

/// A soak run's outcome.
#[derive(Clone, Debug, Default)]
pub struct SoakReport {
    /// Modules generated and checked.
    pub modules: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Every divergence found (shrunk).
    pub divergences: Vec<SoakDivergence>,
}

impl SoakReport {
    /// Whether the soak was clean.
    pub fn ok(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Modules checked per second.
    pub fn modules_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.modules as f64 / secs)
    }
}

/// Checks one case seed end-to-end and shrinks on divergence. This is the
/// per-module unit both [`soak`] and replay paths share. The divergence is
/// boxed: it carries the full shrunk module, so the `Ok` fast path should
/// not pay its size.
pub fn run_case(case_seed: u64, max_width: u64) -> Result<(), Box<SoakDivergence>> {
    let g = gen_module(case_seed);
    let Err(message) = check_generated(&g, case_seed, max_width) else {
        return Ok(());
    };
    // Shrink against the full check suite: a candidate "still fails" when
    // any stage rejects it, not necessarily the original one.
    let still_fails = |m: &Module| {
        let cand = GenModule { module: m.clone(), inputs: g.inputs.clone() };
        check_generated(&cand, case_seed, max_width).is_err()
    };
    let shrunk = shrink_module(&g.module, &still_fails);
    let cand = GenModule { module: shrunk.clone(), inputs: g.inputs.clone() };
    let shrunk_message =
        check_generated(&cand, case_seed, max_width).err().unwrap_or_else(|| message.clone());
    let mut div = SoakDivergence {
        case_seed,
        max_width,
        original_nodes: node_count(&g.module),
        shrunk_nodes: node_count(&shrunk),
        shrunk,
        message,
        shrunk_message,
        bundle: None,
    };
    div.bundle = capture::capture_divergence(&cand, &div);
    Err(Box::new(div))
}

/// Runs a full soak: `cfg.modules` generated modules through every check
/// stage, in parallel, with divergences shrunk to minimal reproducers.
pub fn soak(cfg: &SoakConfig) -> SoakReport {
    let _span = chicala_telemetry::span!("gen_soak:{}", cfg.modules);
    let start = Instant::now();
    let mut rng = SplitMix64::new(cfg.seed);
    let seeds: Vec<u64> = (0..cfg.modules).map(|_| rng.next_u64()).collect();
    let pool = ThreadPool::default();
    let mut divergences = Vec::new();
    // Chunked so stop_at_first cuts the run without racing the pool.
    let chunk = (pool.workers() * 8).max(8);
    let mut checked = 0usize;
    for batch in seeds.chunks(chunk) {
        let outcomes = pool.map_slice(batch, |&s| run_case(s, cfg.max_width));
        checked += batch.len();
        divergences.extend(outcomes.into_iter().filter_map(Result::err).map(|d| *d));
        if cfg.stop_at_first && !divergences.is_empty() {
            break;
        }
    }
    SoakReport { modules: checked, elapsed: start.elapsed(), divergences }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_soak_is_green() {
        let cfg = SoakConfig { seed: 0xC1CA_0E00, modules: 24, max_width: 12, stop_at_first: false };
        let report = soak(&cfg);
        assert_eq!(report.modules, 24);
        assert!(
            report.ok(),
            "divergences: {:?}",
            report.divergences.iter().map(|d| d.corpus_line()).collect::<Vec<_>>()
        );
    }

    /// Injected-bug drill, kept as a permanent test: run the soak's cosim
    /// oracle against the deliberately broken `when`-lowering
    /// (`flatten_whens_dropping_guards`), and require the fuzzer to (a)
    /// find a module exposing the dropped guard conjunct and (b) shrink it
    /// to a reproducer of at most 10 IR nodes.
    #[test]
    fn injected_when_lowering_bug_is_found_and_shrinks_small() {
        use chicala_chisel::{elaborate, passes};
        use chicala_conformance::{record_layers, ExecLayer, Inputs};
        use chicala_trace::first_divergence;

        // The buggy-pass oracle: record the module flattened with dropped
        // guards against the reference interpreter at len=4 over a few
        // cycles.
        let diverges = |m: &Module, inputs: &[String]| -> bool {
            let Ok(bad) = passes::flatten_whens_dropping_guards(m) else { return false };
            let bind: chicala_chisel::Bindings =
                [("len".to_string(), 4i64)].into_iter().collect();
            let (Ok(em), Ok(em_bad)) = (elaborate(m, &bind), elaborate(&bad, &bind)) else {
                return false;
            };
            let mut rng = SplitMix64::new(0xB0B0);
            let schedule: Vec<Inputs> = (0..6)
                .map(|_| {
                    inputs
                        .iter()
                        .map(|n| {
                            let w = em.signals.iter().find(|s| &s.name == n).map_or(1, |s| s.width);
                            (n.clone(), rng.bits(w))
                        })
                        .collect()
                })
                .collect();
            let layers = record_layers(&em, &[ExecLayer::Flat(Ok(&em_bad))], 4, &schedule);
            let [Ok(good), Ok(flat)] = layers.as_slice() else { return false };
            first_divergence(good, flat).is_some()
        };

        // Scan seeds until the fuzzer catches the planted bug.
        let mut found = None;
        for seed in 0..400u64 {
            let g = gen_module(seed);
            if diverges(&g.module, &g.inputs) {
                found = Some(g);
                break;
            }
        }
        let g = found.expect("fuzzer finds the planted when-lowering bug within 400 seeds");
        let inputs = g.inputs.clone();
        let shrunk = shrink_module(&g.module, &|m| diverges(m, &inputs));
        assert!(
            diverges(&shrunk, &inputs),
            "shrunk reproducer no longer exposes the bug"
        );
        assert!(
            node_count(&shrunk) <= 10,
            "reproducer too large: {} nodes",
            node_count(&shrunk)
        );
    }
}
