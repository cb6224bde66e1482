//! `chicala-trace`: typed counterexample waveforms and self-contained
//! replay bundles.
//!
//! When a conformance layer, the generative fuzzer, or a gate-level miter
//! finds a divergence, a seed and a shrunk input list are necessary but not
//! sufficient for debugging — you still have to re-run the case in your
//! head. This crate turns every failure into first-class artifacts:
//!
//! * a **typed trace** ([`Trace`]): per-cycle values for every declared
//!   signal, keeping the IR's names, widths, and roles
//!   ([`SignalKind::Input`] / [`SignalKind::Output`] /
//!   [`SignalKind::Register`] / [`SignalKind::Wire`]) instead of flattened
//!   anonymous bits — the Tywaves argument applied to this pipeline;
//! * a dependency-free **VCD writer** ([`vcd::write_vcd`]) plus a minimal
//!   in-crate parser ([`vcd::parse_vcd`]) used to pin round-trip fidelity
//!   in tests, with the first divergent cycle/signal marked both in the
//!   header and as a dedicated `__divergence` marker signal;
//! * a schema-versioned JSON **replay bundle** ([`bundle::ReplayBundle`])
//!   written next to its VCDs under `target/chicala-failures/`, carrying
//!   everything needed to reproduce the failure byte-for-byte — seeds,
//!   design, width, backends, shrunk inputs, divergence, git revision, and
//!   the exact env/CLI replay line (see `examples/replay.rs`);
//! * the unified **replay-knob module** ([`replay`]): one parser and one
//!   formatter for `CHICALA_SEED` and `CHICALA_GEN_SEED`, so the two
//!   fuzzing surfaces document and print replay lines identically.
//!
//! Capture is always on and runs only on the shrunk final case, so the
//! soak hot path never records.

pub mod bundle;
pub mod json;
pub mod replay;
pub mod vcd;

pub use bundle::{failures_dir, git_rev, ReplayBundle, SCHEMA_VERSION};

use chicala_bigint::BigInt;
use std::fmt;

/// Role of a traced signal (the type information a flattened-bit VCD
/// loses).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignalKind {
    /// Input port.
    Input,
    /// Output port.
    Output,
    /// Register.
    Register,
    /// Wire, node, or derived value (golden-model cones use this).
    Wire,
}

impl SignalKind {
    /// Stable lower-case name (also the VCD sub-scope the signal is
    /// grouped under).
    pub fn name(self) -> &'static str {
        match self {
            SignalKind::Input => "inputs",
            SignalKind::Output => "outputs",
            SignalKind::Register => "registers",
            SignalKind::Wire => "wires",
        }
    }

    /// Parses a sub-scope name back to a kind.
    pub fn parse(s: &str) -> Option<SignalKind> {
        [SignalKind::Input, SignalKind::Output, SignalKind::Register, SignalKind::Wire]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

/// One declared signal of a typed trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignalDecl {
    /// Flattened IR name (e.g. `io_in`, `acc_s`).
    pub name: String,
    /// Width in bits.
    pub width: u64,
    /// Role.
    pub kind: SignalKind,
}

/// The first point where two traces disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Cycle index (0-based) of the first mismatch.
    pub cycle: u64,
    /// Name of the first mismatching signal (declaration order breaks
    /// ties within a cycle).
    pub signal: String,
    /// The reference side's value (decimal).
    pub expected: String,
    /// The divergent side's value (decimal).
    pub actual: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {} signal `{}`: expected {} actual {}",
            self.cycle, self.signal, self.expected, self.actual
        )
    }
}

/// A typed trace: one scope (usually the executing layer's name), a set of
/// declared signals, and one value per signal per cycle.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Scope name, e.g. `chisel_interp`, `seq_vm`, `miter`.
    pub scope: String,
    /// Declared signals, in declaration order.
    pub signals: Vec<SignalDecl>,
    /// `cycles[c][s]` is the value of signal `s` at cycle `c`; every row
    /// has exactly `signals.len()` entries.
    pub cycles: Vec<Vec<BigInt>>,
    /// First divergence against the paired trace, when one was found.
    pub divergence: Option<Divergence>,
}

impl Trace {
    /// An empty trace for `scope`.
    pub fn new(scope: impl Into<String>) -> Trace {
        Trace { scope: scope.into(), signals: Vec::new(), cycles: Vec::new(), divergence: None }
    }

    /// Declares a signal before any cycle is recorded; returns its index.
    pub fn declare(&mut self, name: impl Into<String>, width: u64, kind: SignalKind) -> usize {
        assert!(self.cycles.is_empty(), "declare before recording cycles");
        self.signals.push(SignalDecl { name: name.into(), width: width.max(1), kind });
        self.signals.len() - 1
    }

    /// Index of a declared signal by name.
    pub fn signal_index(&self, name: &str) -> Option<usize> {
        self.signals.iter().position(|s| s.name == name)
    }

    /// Records one cycle; `values` must match the declaration order.
    pub fn push_cycle(&mut self, values: Vec<BigInt>) {
        assert_eq!(values.len(), self.signals.len(), "one value per declared signal");
        self.cycles.push(values);
    }

    /// The value of `name` at `cycle`, when both exist.
    pub fn value(&self, cycle: u64, name: &str) -> Option<&BigInt> {
        let s = self.signal_index(name)?;
        self.cycles.get(cycle as usize).map(|row| &row[s])
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.cycles.len()
    }

    /// Whether no cycle has been recorded.
    pub fn is_empty(&self) -> bool {
        self.cycles.is_empty()
    }
}

/// The first cycle/signal where `a` (the reference) and `b` disagree on a
/// signal they both declare, scanning cycles outward and signals in `a`'s
/// declaration order. Non-output/register roles still participate: any
/// shared name is compared. Ragged lengths diverge at the first cycle only
/// one side has.
pub fn first_divergence(a: &Trace, b: &Trace) -> Option<Divergence> {
    let shared: Vec<(usize, usize)> = a
        .signals
        .iter()
        .enumerate()
        .filter_map(|(i, s)| b.signal_index(&s.name).map(|j| (i, j)))
        .collect();
    let common = a.cycles.len().min(b.cycles.len());
    for c in 0..common {
        for &(i, j) in &shared {
            if a.cycles[c][i] != b.cycles[c][j] {
                return Some(Divergence {
                    cycle: c as u64,
                    signal: a.signals[i].name.clone(),
                    expected: a.cycles[c][i].to_string(),
                    actual: b.cycles[c][j].to_string(),
                });
            }
        }
    }
    if a.cycles.len() != b.cycles.len() {
        return Some(Divergence {
            cycle: common as u64,
            signal: "<trace length>".to_string(),
            expected: a.cycles.len().to_string(),
            actual: b.cycles.len().to_string(),
        });
    }
    None
}

/// Computes [`first_divergence`] and marks both traces with it. Returns
/// the divergence found, if any.
pub fn mark_pair(a: &mut Trace, b: &mut Trace) -> Option<Divergence> {
    let d = first_divergence(a, b);
    a.divergence = d.clone();
    b.divergence = d.clone();
    d
}

/// Finds the pair among `traces` that diverges at the earliest cycle
/// (ties go to the pair found first, so an earlier trace is preferred as
/// the `expected` side), marks both sides with [`mark_pair`], and returns
/// the divergence.
pub fn mark_earliest(traces: &mut [Trace]) -> Option<Divergence> {
    let mut best: Option<(usize, usize, Divergence)> = None;
    for i in 0..traces.len() {
        for j in (i + 1)..traces.len() {
            if let Some(div) = first_divergence(&traces[i], &traces[j]) {
                if best.as_ref().is_none_or(|(_, _, b)| div.cycle < b.cycle) {
                    best = Some((i, j, div));
                }
            }
        }
    }
    best.map(|(i, j, _)| {
        let (a, b) = traces.split_at_mut(j);
        mark_pair(&mut a[i], &mut b[0]).expect("pair diverges")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(scope: &str, vals: &[[u64; 2]]) -> Trace {
        let mut t = Trace::new(scope);
        t.declare("io_in", 4, SignalKind::Input);
        t.declare("acc", 8, SignalKind::Register);
        for row in vals {
            t.push_cycle(row.iter().map(|&v| BigInt::from(v)).collect());
        }
        t
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let a = toy("a", &[[1, 2], [3, 4]]);
        let b = toy("b", &[[1, 2], [3, 4]]);
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn first_divergence_finds_earliest_cycle_then_declaration_order() {
        let a = toy("a", &[[1, 2], [3, 4], [5, 6]]);
        let mut b = toy("b", &[[1, 2], [3, 9], [7, 6]]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.cycle, 1);
        assert_eq!(d.signal, "acc");
        assert_eq!(d.expected, "4");
        assert_eq!(d.actual, "9");
        // Same-cycle tie: io_in declared first wins.
        b.cycles[1] = vec![BigInt::from(8u64), BigInt::from(9u64)];
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!((d.cycle, d.signal.as_str()), (1, "io_in"));
    }

    #[test]
    fn ragged_lengths_diverge_on_length() {
        let a = toy("a", &[[1, 2], [3, 4]]);
        let b = toy("b", &[[1, 2]]);
        let d = first_divergence(&a, &b).expect("diverges");
        assert_eq!(d.signal, "<trace length>");
        assert_eq!(d.cycle, 1);
    }

    #[test]
    fn mark_earliest_marks_only_the_pair_that_diverges_first() {
        let mut traces = vec![
            toy("a", &[[1, 2], [3, 4], [5, 6]]),
            toy("b", &[[1, 2], [3, 4], [5, 7]]),
            toy("c", &[[1, 2], [3, 9], [5, 6]]),
        ];
        let d = mark_earliest(&mut traces).expect("diverges");
        assert_eq!((d.cycle, d.expected.as_str(), d.actual.as_str()), (1, "4", "9"));
        assert_eq!(traces[0].divergence.as_ref(), Some(&d));
        assert_eq!(traces[1].divergence, None);
        assert_eq!(traces[2].divergence.as_ref(), Some(&d));
        let mut agree = vec![toy("a", &[[1, 2]]), toy("b", &[[1, 2]])];
        assert_eq!(mark_earliest(&mut agree), None);
    }

    #[test]
    fn mark_pair_sets_both_sides() {
        let mut a = toy("a", &[[1, 2]]);
        let mut b = toy("b", &[[1, 3]]);
        let d = mark_pair(&mut a, &mut b).expect("diverges");
        assert_eq!(a.divergence.as_ref(), Some(&d));
        assert_eq!(b.divergence.as_ref(), Some(&d));
    }
}
