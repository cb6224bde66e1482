//! The low-level verification path the paper contrasts against: elaborated
//! designs are emitted as word-level Verilog ([`emit_verilog`], the
//! `#Verilog` column of Table 1), bit-blasted over an abstract bit kit
//! ([`bitblast`]), built as and-inverter graphs ([`aig`]) or reduced
//! ordered BDDs ([`bdd`]) or evaluated on plain bits ([`Eval`]), and
//! checked *per bit width* by symbolic unrolling ([`check`]) — the
//! approach whose cost grows with width.

pub mod aig;
pub mod bdd;
pub mod bitblast;
pub mod check;
pub mod cnf;
pub mod sweep;
pub mod verilog;

pub use aig::{Aig, AigNode, AigRef, Net, Netlist, AIG_FALSE, AIG_TRUE};
pub use bitblast::{
    add_words, clamp, constant_word, divide, extend, ge_words, less_than, mux_word, reduce_or,
    sub_words, BitKit, BlastError, Blaster, Eval, Word,
};
pub use check::{
    fresh_inputs, implies_net, interleaved_bits, nets_equal, prove_net, prove_net_with, unroll,
    words_equal, Backend, OptProfile, ProveResult, UnrolledState, AUTO_SAT_CROSSOVER_WIDTH,
};
pub use cnf::{tseitin, tseitin_pg, CnfFrame, CnfRoot, FrameStats};
pub use sweep::{
    prove_net_sweep, prove_net_sweep_drill, prove_net_sweep_scheduled, sweep_pool,
    IncrementalProver, SweepItem, SweepOutcome, SweepReport, SweepStats, SweepVerdict, WidthProbe,
};
pub use verilog::{emit_verilog, verilog_loc};
