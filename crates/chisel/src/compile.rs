//! Compiled cycle simulation: lowers an [`ElabModule`] once into a flat,
//! topologically-scheduled slot program and executes it with a bytecode VM.
//!
//! The tree-walking [`Simulator`](crate::Simulator) re-walks `Expr` trees and
//! string-keyed maps every cycle; this module pays that cost once. Each
//! combinational node becomes one SSA slot (a `u32` id), scheduled in
//! dependency order with value numbering (shared subtrees evaluate once), and
//! each cycle is a linear sweep over the instruction list followed by an
//! atomic register-commit phase — the same two-phase semantics as the
//! interpreter, so last-connect-wins/`when` priority (already folded into
//! nested `Mux` drivers by elaboration) is preserved exactly.
//!
//! Values run in one of three lanes chosen at compile time:
//!
//! * `u64` when every node result fits 64 bits,
//! * `u128` when every node result fits 128 bits,
//! * `BigInt` otherwise — and whenever any node is signed, because the fast
//!   lanes store raw bits and rely on unsigned wrap-then-mask arithmetic.
//!
//! The fast lanes are exact: for unsigned nodes the interpreted value *is*
//! the bit pattern, every node's runtime value is kept `< 2^width`, and
//! `2^width` divides the lane modulus, so wrapping arithmetic followed by a
//! precomputed mask equals the reference `mod 2^width`. The `BigInt` lane
//! mirrors [`TypedValue`] arithmetic op for op.

use crate::elab::{ElabKind, ElabModule};
use crate::expr::{BinaryOp, Expr, UnaryOp};
use crate::interp::{SimError, Simulator, TypedValue};
use crate::pexpr::PExpr;
use chicala_bigint::BigInt;
use chicala_telemetry as telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Index of a value slot in the compiled program.
type Slot = u32;

/// Execution lane of a compiled module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// All node widths ≤ 64 and everything unsigned.
    U64,
    /// All node widths ≤ 128 and everything unsigned.
    U128,
    /// Arbitrary widths / signed values, via `BigInt`.
    Big,
}

impl Lane {
    /// Short name for telemetry and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lane::U64 => "u64",
            Lane::U128 => "u128",
            Lane::Big => "big",
        }
    }
}

/// One SSA node. The destination slot is the node's own index; operand
/// widths/signedness live in side tables so the interning key stays minimal
/// (metadata is a function of the node and its operands).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Node {
    Const(u32),
    Input(u32),
    Reg(u32),
    Add(Slot, Slot),
    Sub(Slot, Slot),
    Mul(Slot, Slot),
    Div(Slot, Slot),
    Rem(Slot, Slot),
    And(Slot, Slot),
    Or(Slot, Slot),
    Xor(Slot, Slot),
    LogicAnd(Slot, Slot),
    LogicOr(Slot, Slot),
    CmpEq(Slot, Slot),
    CmpNeq(Slot, Slot),
    CmpLt(Slot, Slot),
    CmpLe(Slot, Slot),
    CmpGt(Slot, Slot),
    CmpGe(Slot, Slot),
    Cat(Slot, Slot),
    ShlDyn(Slot, Slot),
    ShrDyn(Slot, Slot),
    Not(Slot),
    LogicNot(Slot),
    Neg(Slot),
    OrR(Slot),
    AndR(Slot),
    XorR(Slot),
    AsBool(Slot),
    AsUIntOp(Slot),
    AsSIntOp(Slot),
    Mux(Slot, Slot, Slot),
    ExtractOp { a: Slot, lo: u64, width: u64 },
    BitAt(Slot, Slot),
    ShlConst { a: Slot, k: u64 },
    ShrConst { a: Slot, k: u64 },
    FillOp { a: Slot, factor: u32 },
    /// Re-clamp to this node's own (width, signed) — `TypedValue::clamp`.
    MaskTo { a: Slot, width: u64, signed: bool },
}

#[derive(Clone, Debug)]
struct InputSpec {
    name: String,
    width: u64,
    signed: bool,
}

#[derive(Clone, Debug)]
struct RegSpec {
    name: String,
    width: u64,
    signed: bool,
    /// Slot of the (clamped) next value, evaluated in the comb phase.
    next: Slot,
    /// Reset value (already clamped). For registers without `RegInit` this
    /// is zero and `has_init` is false, so overrides may replace it.
    reset: BigInt,
    has_init: bool,
}

/// A module lowered to a slot program: build once per (design, width) with
/// [`compile`], then run any number of [`CompiledSim`]s over it.
#[derive(Clone, Debug)]
pub struct CompiledModule {
    /// Module name (from the elaborated module).
    pub name: String,
    lane: Lane,
    nodes: Vec<Node>,
    width: Vec<u64>,
    signed: Vec<bool>,
    consts: Vec<BigInt>,
    inputs: Vec<InputSpec>,
    outputs: Vec<(String, Slot)>,
    regs: Vec<RegSpec>,
    max_width: u64,
}

impl CompiledModule {
    /// The execution lane selected at compile time.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Number of instruction slots in the comb schedule.
    pub fn num_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Widest node result in the program.
    pub fn max_width(&self) -> u64 {
        self.max_width
    }

    /// Output count (stable order: `ElabModule::output_names`).
    pub fn outputs_len(&self) -> usize {
        self.outputs.len()
    }

    /// Name of output `i`.
    pub fn output_name(&self, i: usize) -> &str {
        &self.outputs[i].0
    }

    /// Index of a named output.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|(n, _)| n == name)
    }

    /// Register count (declaration order).
    pub fn regs_len(&self) -> usize {
        self.regs.len()
    }

    /// Name of register `i`.
    pub fn reg_name(&self, i: usize) -> &str {
        &self.regs[i].name
    }

    /// Index of a named register.
    pub fn reg_index(&self, name: &str) -> Option<usize> {
        self.regs.iter().position(|r| r.name == name)
    }

    /// Input count (declaration order).
    pub fn inputs_len(&self) -> usize {
        self.inputs.len()
    }

    /// Name of input `i`.
    pub fn input_name(&self, i: usize) -> &str {
        &self.inputs[i].name
    }

    /// Declared width of input `i` in bits.
    pub fn input_width(&self, i: usize) -> u64 {
        self.inputs[i].width
    }

    /// Declared width of output `i` in bits (from its driving slot — the
    /// compile-time symbol table maps slots back to IR widths).
    pub fn output_width(&self, i: usize) -> u64 {
        self.width[self.outputs[i].1 as usize]
    }

    /// Declared width of register `i` in bits.
    pub fn reg_width(&self, i: usize) -> u64 {
        self.regs[i].width
    }
}

struct Compiler<'m> {
    em: &'m ElabModule,
    nodes: Vec<Node>,
    width: Vec<u64>,
    signed: Vec<bool>,
    intern: HashMap<Node, Slot>,
    consts: Vec<BigInt>,
    const_ids: HashMap<(BigInt, u64, bool), u32>,
    inputs: Vec<InputSpec>,
    input_ids: HashMap<String, u32>,
    regs: Vec<RegSpec>,
    reg_ids: HashMap<String, u32>,
    signal_slots: HashMap<String, Slot>,
    visiting: BTreeSet<String>,
}

impl<'m> Compiler<'m> {
    fn push(&mut self, node: Node, width: u64, signed: bool) -> Slot {
        if let Some(&s) = self.intern.get(&node) {
            debug_assert_eq!(self.width[s as usize], width);
            debug_assert_eq!(self.signed[s as usize], signed);
            return s;
        }
        let s = self.nodes.len() as Slot;
        self.nodes.push(node.clone());
        self.width.push(width);
        self.signed.push(signed);
        self.intern.insert(node, s);
        s
    }

    fn constant(&mut self, value: BigInt, width: u64, signed: bool) -> Slot {
        let key = (value.clone(), width, signed);
        let idx = *self.const_ids.entry(key).or_insert_with(|| {
            self.consts.push(value);
            (self.consts.len() - 1) as u32
        });
        self.push(Node::Const(idx), width, signed)
    }

    fn w(&self, s: Slot) -> u64 {
        self.width[s as usize]
    }

    fn s(&self, s: Slot) -> bool {
        self.signed[s as usize]
    }

    /// `TypedValue::clamp` at compile time: a no-op (slot reuse) whenever the
    /// clamp provably preserves the value, a `MaskTo` node otherwise.
    fn coerce(&mut self, a: Slot, width: u64, signed: bool) -> Slot {
        if self.s(a) == signed && self.w(a) <= width {
            return a;
        }
        self.push(Node::MaskTo { a, width, signed }, width, signed)
    }

    fn pexpr(&self, p: &PExpr) -> Result<i64, SimError> {
        p.eval(&self.em.bindings).map_err(|e| SimError::BadLiteral(e.to_string()))
    }

    fn compile_signal(&mut self, name: &str) -> Result<Slot, SimError> {
        if let Some(&s) = self.signal_slots.get(name) {
            return Ok(s);
        }
        let sig = self
            .em
            .signal(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?
            .clone();
        let slot = match &sig.kind {
            ElabKind::Input => {
                let idx = *self.input_ids.entry(name.to_string()).or_insert_with(|| {
                    self.inputs.push(InputSpec {
                        name: name.to_string(),
                        width: sig.width,
                        signed: sig.signed,
                    });
                    (self.inputs.len() - 1) as u32
                });
                self.push(Node::Input(idx), sig.width, sig.signed)
            }
            ElabKind::Reg { .. } => {
                let idx = self.reg_index(name)?;
                self.push(Node::Reg(idx), sig.width, sig.signed)
            }
            ElabKind::Output | ElabKind::Wire => {
                if !self.visiting.insert(name.to_string()) {
                    return Err(SimError::CombLoop(name.to_string()));
                }
                let drv = self
                    .em
                    .drivers
                    .get(name)
                    .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?
                    .clone();
                let v = self.compile(&drv)?;
                let v = self.coerce(v, sig.width, sig.signed);
                self.visiting.remove(name);
                v
            }
        };
        self.signal_slots.insert(name.to_string(), slot);
        Ok(slot)
    }

    /// Index of `name` in the register table, creating the entry on first
    /// use. The `next` slot and reset value are filled in by [`compile`].
    fn reg_index(&mut self, name: &str) -> Result<u32, SimError> {
        if let Some(&i) = self.reg_ids.get(name) {
            return Ok(i);
        }
        let sig = self
            .em
            .signal(name)
            .ok_or_else(|| SimError::UnknownSignal(name.to_string()))?;
        let has_init = matches!(&sig.kind, ElabKind::Reg { init: Some(_) });
        let idx = self.regs.len() as u32;
        self.regs.push(RegSpec {
            name: name.to_string(),
            width: sig.width,
            signed: sig.signed,
            next: 0,
            reset: BigInt::zero(),
            has_init,
        });
        self.reg_ids.insert(name.to_string(), idx);
        Ok(idx)
    }

    fn compile(&mut self, e: &Expr) -> Result<Slot, SimError> {
        Ok(match e {
            Expr::LitU { value, width } => {
                let v = BigInt::from(self.pexpr(value)?);
                let w = match width {
                    Some(w) => self.pexpr(w)? as u64,
                    None => v.bit_len().max(1),
                };
                let tv = TypedValue::uint(v, w);
                self.constant(tv.value, tv.width, false)
            }
            Expr::LitS { value, width } => {
                let v = BigInt::from(self.pexpr(value)?);
                let w = match width {
                    Some(w) => self.pexpr(w)? as u64,
                    None => v.abs().bit_len() + 1,
                };
                let tv = TypedValue::sint(v, w);
                self.constant(tv.value, tv.width, true)
            }
            Expr::LitB(b) => self.constant(BigInt::from(*b), 1, false),
            Expr::Ref(r) => {
                debug_assert!(r.path.is_empty(), "paths are resolved during elaboration");
                self.compile_signal(&r.base)?
            }
            Expr::Unop(op, a) => {
                let a = self.compile(a)?;
                let (wa, sa) = (self.w(a), self.s(a));
                match op {
                    UnaryOp::Not => self.push(Node::Not(a), wa, sa),
                    UnaryOp::LogicNot => self.push(Node::LogicNot(a), 1, false),
                    UnaryOp::Neg => self.push(Node::Neg(a), wa, sa),
                    UnaryOp::OrR => self.push(Node::OrR(a), 1, false),
                    UnaryOp::AndR => self.push(Node::AndR(a), 1, false),
                    UnaryOp::XorR => self.push(Node::XorR(a), 1, false),
                    // Reinterpreting casts are identities when the operand
                    // already has the target signedness (value == bits for
                    // unsigned; sint(bits) round-trips for signed).
                    UnaryOp::AsUInt if !sa => a,
                    UnaryOp::AsUInt => self.push(Node::AsUIntOp(a), wa, false),
                    UnaryOp::AsSInt if sa => a,
                    UnaryOp::AsSInt => self.push(Node::AsSIntOp(a), wa, true),
                    UnaryOp::AsBool => self.push(Node::AsBool(a), 1, false),
                }
            }
            Expr::Binop(op, a, b) => {
                let a = self.compile(a)?;
                let b = self.compile(b)?;
                let (wa, wb) = (self.w(a), self.w(b));
                let wmax = wa.max(wb);
                let signed = self.s(a) && self.s(b);
                match op {
                    BinaryOp::Add => self.push(Node::Add(a, b), wmax, signed),
                    BinaryOp::Sub => self.push(Node::Sub(a, b), wmax, signed),
                    BinaryOp::Mul => self.push(Node::Mul(a, b), wa + wb, signed),
                    BinaryOp::Div => self.push(Node::Div(a, b), wa, signed),
                    BinaryOp::Rem => self.push(Node::Rem(a, b), wa.min(wb), signed),
                    BinaryOp::And => self.push(Node::And(a, b), wmax, signed),
                    BinaryOp::Or => self.push(Node::Or(a, b), wmax, signed),
                    BinaryOp::Xor => self.push(Node::Xor(a, b), wmax, signed),
                    BinaryOp::LogicAnd => self.push(Node::LogicAnd(a, b), 1, false),
                    BinaryOp::LogicOr => self.push(Node::LogicOr(a, b), 1, false),
                    BinaryOp::Eq => self.push(Node::CmpEq(a, b), 1, false),
                    BinaryOp::Neq => self.push(Node::CmpNeq(a, b), 1, false),
                    BinaryOp::Lt => self.push(Node::CmpLt(a, b), 1, false),
                    BinaryOp::Le => self.push(Node::CmpLe(a, b), 1, false),
                    BinaryOp::Gt => self.push(Node::CmpGt(a, b), 1, false),
                    BinaryOp::Ge => self.push(Node::CmpGe(a, b), 1, false),
                    BinaryOp::Cat => self.push(Node::Cat(a, b), wa + wb, false),
                    BinaryOp::Shl => self.push(Node::ShlDyn(a, b), wa, self.s(a)),
                    BinaryOp::Shr => self.push(Node::ShrDyn(a, b), wa, self.s(a)),
                }
            }
            Expr::Mux(c, t, f) => {
                let c = self.compile(c)?;
                let t = self.compile(t)?;
                let f = self.compile(f)?;
                let width = self.w(t).max(self.w(f));
                let signed = self.s(t) && self.s(f);
                // Clamp distributes over the select, so coerce each branch
                // and the picked value needs no further work.
                let t = self.coerce(t, width, signed);
                let f = self.coerce(f, width, signed);
                self.push(Node::Mux(c, t, f), width, signed)
            }
            Expr::Extract { arg, hi, lo } => {
                let a = self.compile(arg)?;
                let (hi, lo) = (self.pexpr(hi)?, self.pexpr(lo)?);
                if hi < lo || lo < 0 {
                    return Err(SimError::BadExtract(hi, lo));
                }
                let w = (hi - lo + 1) as u64;
                self.push(Node::ExtractOp { a, lo: lo as u64, width: w }, w, false)
            }
            Expr::BitAt { arg, index } => {
                let a = self.compile(arg)?;
                let i = self.compile(index)?;
                self.push(Node::BitAt(a, i), 1, false)
            }
            Expr::ShlP { arg, amount } => {
                let a = self.compile(arg)?;
                let k = self.pexpr(amount)? as u64;
                let (wa, sa) = (self.w(a), self.s(a));
                self.push(Node::ShlConst { a, k }, wa + k, sa)
            }
            Expr::ShrP { arg, amount } => {
                let a = self.compile(arg)?;
                let k = self.pexpr(amount)? as u64;
                let (wa, sa) = (self.w(a), self.s(a));
                let w = if sa { wa } else { wa.saturating_sub(k).max(1) };
                self.push(Node::ShrConst { a, k }, w, sa)
            }
            Expr::Fill { times, arg } => {
                let a = self.compile(arg)?;
                let n = self.pexpr(times)? as u64;
                let wa = self.w(a);
                // Fill(n, x) == x * (1 + 2^w + ... + 2^((n-1)w)), so the
                // replication becomes a single multiply by a constant.
                let mut factor = BigInt::zero();
                for i in 0..n {
                    factor = factor + BigInt::pow2(i * wa);
                }
                let w = (n * wa).max(1);
                let fidx = {
                    let key = (factor.clone(), u64::MAX, false);
                    *self.const_ids.entry(key).or_insert_with(|| {
                        self.consts.push(factor);
                        (self.consts.len() - 1) as u32
                    })
                };
                self.push(Node::FillOp { a, factor: fidx }, w, false)
            }
            Expr::Call { func, .. } => return Err(SimError::ResidualCall(func.clone())),
        })
    }
}

/// Lowers an elaborated module to a slot program.
///
/// # Errors
///
/// Returns the same [`SimError`]s the interpreter would raise for the
/// structure of the module (combinational loops, unknown signals, residual
/// calls, malformed extracts/literals); a compiled module never fails at
/// runtime.
pub fn compile(em: &ElabModule) -> Result<CompiledModule, SimError> {
    let _span = telemetry::span!("chisel.compile:{}", em.name);
    let mut c = Compiler {
        em,
        nodes: Vec::new(),
        width: Vec::new(),
        signed: Vec::new(),
        intern: HashMap::new(),
        consts: Vec::new(),
        const_ids: HashMap::new(),
        inputs: Vec::new(),
        input_ids: HashMap::new(),
        regs: Vec::new(),
        reg_ids: HashMap::new(),
        signal_slots: HashMap::new(),
        visiting: BTreeSet::new(),
    };

    let mut outputs = Vec::new();
    for name in em.output_names() {
        let slot = c.compile_signal(&name)?;
        outputs.push((name, slot));
    }

    // Register next-values: the driver clamped to the register's type, same
    // as the interpreter's commit phase.
    let reg_names: Vec<String> = em.reg_names();
    for name in &reg_names {
        let idx = c.reg_index(name)?;
        let drv = em
            .drivers
            .get(name)
            .ok_or_else(|| SimError::UnknownSignal(name.clone()))?
            .clone();
        let v = c.compile(&drv)?;
        let (w, s) = (c.regs[idx as usize].width, c.regs[idx as usize].signed);
        c.regs[idx as usize].next = c.coerce(v, w, s);
    }

    // Reset values via the reference interpreter, so `RegInit` expressions
    // follow exactly the semantics of `Simulator::new`.
    let resets = Simulator::new(em, &BTreeMap::new())?;
    for r in &mut c.regs {
        r.reset = resets.reg(&r.name).cloned().unwrap_or_else(BigInt::zero);
    }

    let max_width = c.width.iter().copied().max().unwrap_or(1);
    let any_signed = c.signed.iter().any(|&s| s);
    let lane = if any_signed || max_width > 128 {
        Lane::Big
    } else if max_width > 64 {
        Lane::U128
    } else {
        Lane::U64
    };
    telemetry::counter(&format!("chisel.compile.lane.{}", lane.name()), 1);
    telemetry::record("chisel.compile.slots", c.nodes.len() as u64);

    Ok(CompiledModule {
        name: em.name.clone(),
        lane,
        nodes: c.nodes,
        width: c.width,
        signed: c.signed,
        consts: c.consts,
        inputs: c.inputs,
        outputs,
        regs: c.regs,
        max_width,
    })
}

enum LaneState {
    U64 { consts: Vec<u64>, masks: Vec<u64>, inputs: Vec<u64>, regs: Vec<u64>, slots: Vec<u64>, scratch: Vec<u64> },
    U128 { consts: Vec<u128>, masks: Vec<u128>, inputs: Vec<u128>, regs: Vec<u128>, slots: Vec<u128>, scratch: Vec<u128> },
    Big { inputs: Vec<BigInt>, regs: Vec<BigInt>, slots: Vec<BigInt>, scratch: Vec<BigInt> },
}

/// A VM instance over a [`CompiledModule`]: per-case register state plus the
/// slot buffer. Cheap to construct, so conformance cases can share one
/// compiled program across workers.
pub struct CompiledSim<'p> {
    prog: &'p CompiledModule,
    state: LaneState,
}

macro_rules! fast_convert {
    ($v:expr, $ty:ty) => {{
        // Fast-lane values are clamped unsigned bit patterns, so the
        // conversion cannot fail; `try_from` keeps the invariant checked.
        <$ty>::try_from($v).expect("fast-lane value exceeds lane width")
    }};
}

impl<'p> CompiledSim<'p> {
    /// Creates a VM with registers at their reset values; registers without
    /// `RegInit` take `overrides` (or zero), as in `Simulator::new`.
    pub fn new(prog: &'p CompiledModule, overrides: &BTreeMap<String, BigInt>) -> CompiledSim<'p> {
        let reg_init: Vec<BigInt> = prog
            .regs
            .iter()
            .map(|r| {
                if !r.has_init {
                    if let Some(v) = overrides.get(&r.name) {
                        return if r.signed { v.to_signed(r.width) } else { v.to_unsigned(r.width) };
                    }
                }
                r.reset.clone()
            })
            .collect();
        let n = prog.nodes.len();
        let state = match prog.lane {
            Lane::U64 => LaneState::U64 {
                consts: prog.consts.iter().map(|c| fast_convert!(c, u64)).collect(),
                masks: (0..=prog.max_width).map(mask_u64).collect(),
                inputs: vec![0; prog.inputs.len()],
                regs: reg_init.iter().map(|v| fast_convert!(v, u64)).collect(),
                slots: vec![0; n],
                scratch: Vec::with_capacity(prog.regs.len()),
            },
            Lane::U128 => LaneState::U128 {
                consts: prog.consts.iter().map(|c| fast_convert!(c, u128)).collect(),
                masks: (0..=prog.max_width).map(mask_u128).collect(),
                inputs: vec![0; prog.inputs.len()],
                regs: reg_init.iter().map(|v| fast_convert!(v, u128)).collect(),
                slots: vec![0; n],
                scratch: Vec::with_capacity(prog.regs.len()),
            },
            Lane::Big => LaneState::Big {
                inputs: vec![BigInt::zero(); prog.inputs.len()],
                regs: reg_init,
                slots: vec![BigInt::zero(); n],
                scratch: Vec::with_capacity(prog.regs.len()),
            },
        };
        CompiledSim { prog, state }
    }

    /// Latches input values for subsequent [`step`](Self::step)s, clamping
    /// to each input's declared type (missing inputs read as zero).
    pub fn set_inputs(&mut self, values: &BTreeMap<String, BigInt>) {
        for (i, spec) in self.prog.inputs.iter().enumerate() {
            let raw = values.get(&spec.name).cloned().unwrap_or_else(BigInt::zero);
            let v = if spec.signed { raw.to_signed(spec.width) } else { raw.to_unsigned(spec.width) };
            match &mut self.state {
                LaneState::U64 { inputs, .. } => inputs[i] = fast_convert!(&v, u64),
                LaneState::U128 { inputs, .. } => inputs[i] = fast_convert!(&v, u128),
                LaneState::Big { inputs, .. } => inputs[i] = v,
            }
        }
    }

    /// Runs one clock cycle: evaluates the comb schedule from the current
    /// registers and latched inputs, then commits all register next-values.
    pub fn step(&mut self) {
        telemetry::counter("chisel.cycles", 1);
        let prog = self.prog;
        match &mut self.state {
            LaneState::U64 { consts, masks, inputs, regs, slots, scratch } => {
                exec_u64(prog, consts, masks, inputs, regs, slots);
                scratch.clear();
                scratch.extend(prog.regs.iter().map(|r| slots[r.next as usize]));
                regs.copy_from_slice(scratch);
            }
            LaneState::U128 { consts, masks, inputs, regs, slots, scratch } => {
                exec_u128(prog, consts, masks, inputs, regs, slots);
                scratch.clear();
                scratch.extend(prog.regs.iter().map(|r| slots[r.next as usize]));
                regs.copy_from_slice(scratch);
            }
            LaneState::Big { inputs, regs, slots, scratch } => {
                exec_big(prog, inputs, regs, slots);
                scratch.clear();
                scratch.extend(prog.regs.iter().map(|r| slots[r.next as usize].clone()));
                std::mem::swap(regs, scratch);
            }
        }
    }

    /// Value of output `i` for the cycle most recently stepped, as `u128`
    /// (allocation-free); `None` when it does not fit (big lane only).
    pub fn output_u128(&self, i: usize) -> Option<u128> {
        let slot = self.prog.outputs[i].1 as usize;
        self.slot_u128(slot)
    }

    /// Value of output `i` as a `BigInt` (the interpreted, possibly signed
    /// value, matching `Simulator::step`'s output map).
    pub fn output_value(&self, i: usize) -> BigInt {
        let slot = self.prog.outputs[i].1 as usize;
        self.slot_value(slot)
    }

    /// Committed value of register `i` as `u128`, `None` when it does not
    /// fit (big lane only).
    pub fn reg_u128(&self, i: usize) -> Option<u128> {
        match &self.state {
            LaneState::U64 { regs, .. } => Some(regs[i] as u128),
            LaneState::U128 { regs, .. } => Some(regs[i]),
            LaneState::Big { regs, .. } => u128::try_from(&regs[i]).ok(),
        }
    }

    /// Committed value of register `i` as a `BigInt`.
    pub fn reg_value(&self, i: usize) -> BigInt {
        match &self.state {
            LaneState::U64 { regs, .. } => BigInt::from(regs[i]),
            LaneState::U128 { regs, .. } => BigInt::from(regs[i]),
            LaneState::Big { regs, .. } => regs[i].clone(),
        }
    }

    fn slot_u128(&self, slot: usize) -> Option<u128> {
        match &self.state {
            LaneState::U64 { slots, .. } => Some(slots[slot] as u128),
            LaneState::U128 { slots, .. } => Some(slots[slot]),
            LaneState::Big { slots, .. } => u128::try_from(&slots[slot]).ok(),
        }
    }

    fn slot_value(&self, slot: usize) -> BigInt {
        match &self.state {
            LaneState::U64 { slots, .. } => BigInt::from(slots[slot]),
            LaneState::U128 { slots, .. } => BigInt::from(slots[slot]),
            LaneState::Big { slots, .. } => slots[slot].clone(),
        }
    }

    /// Convenience wrapper mirroring `Simulator::step`: latch `inputs`, run
    /// one cycle, and collect the output map.
    pub fn step_map(&mut self, inputs: &BTreeMap<String, BigInt>) -> BTreeMap<String, BigInt> {
        self.set_inputs(inputs);
        self.step();
        (0..self.prog.outputs_len())
            .map(|i| (self.prog.output_name(i).to_string(), self.output_value(i)))
            .collect()
    }

    /// Current value of a register by name (mirrors `Simulator::reg`).
    pub fn reg(&self, name: &str) -> Option<BigInt> {
        self.prog.reg_index(name).map(|i| self.reg_value(i))
    }
}

fn mask_u64(w: u64) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

fn mask_u128(w: u64) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

macro_rules! fast_exec {
    ($fname:ident, $ty:ty) => {
        /// Linear sweep over the comb schedule in an unsigned fast lane.
        /// Invariant: every slot value stays `< 2^width[slot]`, and since
        /// widths are lane-bounded, wrapping arithmetic + mask is exact.
        #[allow(clippy::cast_possible_truncation)]
        fn $fname(
            prog: &CompiledModule,
            consts: &[$ty],
            masks: &[$ty],
            inputs: &[$ty],
            regs: &[$ty],
            slots: &mut [$ty],
        ) {
            const BITS: u64 = <$ty>::BITS as u64;
            let width = &prog.width;
            for (dst, node) in prog.nodes.iter().enumerate() {
                let m = masks[width[dst] as usize];
                let v: $ty = match *node {
                    Node::Const(c) => consts[c as usize],
                    Node::Input(i) => inputs[i as usize],
                    Node::Reg(i) => regs[i as usize],
                    Node::Add(a, b) => slots[a as usize].wrapping_add(slots[b as usize]) & m,
                    Node::Sub(a, b) => slots[a as usize].wrapping_sub(slots[b as usize]) & m,
                    Node::Mul(a, b) => slots[a as usize].wrapping_mul(slots[b as usize]) & m,
                    Node::Div(a, b) => {
                        let d = slots[b as usize];
                        if d == 0 { 0 } else { slots[a as usize] / d }
                    }
                    Node::Rem(a, b) => {
                        let d = slots[b as usize];
                        if d == 0 { slots[a as usize] & m } else { slots[a as usize] % d }
                    }
                    Node::And(a, b) => slots[a as usize] & slots[b as usize],
                    Node::Or(a, b) => slots[a as usize] | slots[b as usize],
                    Node::Xor(a, b) => slots[a as usize] ^ slots[b as usize],
                    Node::LogicAnd(a, b) => (slots[a as usize] != 0 && slots[b as usize] != 0) as $ty,
                    Node::LogicOr(a, b) => (slots[a as usize] != 0 || slots[b as usize] != 0) as $ty,
                    Node::CmpEq(a, b) => (slots[a as usize] == slots[b as usize]) as $ty,
                    Node::CmpNeq(a, b) => (slots[a as usize] != slots[b as usize]) as $ty,
                    Node::CmpLt(a, b) => (slots[a as usize] < slots[b as usize]) as $ty,
                    Node::CmpLe(a, b) => (slots[a as usize] <= slots[b as usize]) as $ty,
                    Node::CmpGt(a, b) => (slots[a as usize] > slots[b as usize]) as $ty,
                    Node::CmpGe(a, b) => (slots[a as usize] >= slots[b as usize]) as $ty,
                    Node::Cat(a, b) => {
                        (slots[a as usize] << width[b as usize] as u32) | slots[b as usize]
                    }
                    Node::ShlDyn(a, b) => {
                        let wa = width[a as usize];
                        let k = slots[b as usize];
                        if k >= wa as $ty { 0 } else { (slots[a as usize] << k as u32) & m }
                    }
                    Node::ShrDyn(a, b) => {
                        let wa = width[a as usize];
                        let k = slots[b as usize];
                        if k >= wa as $ty { 0 } else { slots[a as usize] >> k as u32 }
                    }
                    Node::Not(a) => slots[a as usize] ^ m,
                    Node::LogicNot(a) => (slots[a as usize] == 0) as $ty,
                    Node::Neg(a) => slots[a as usize].wrapping_neg() & m,
                    Node::OrR(a) => (slots[a as usize] != 0) as $ty,
                    Node::AndR(a) => (slots[a as usize] == masks[width[a as usize] as usize]) as $ty,
                    Node::XorR(a) => (slots[a as usize].count_ones() & 1) as $ty,
                    Node::AsBool(a) => (slots[a as usize] != 0) as $ty,
                    // Signedness casts force the big lane at compile time.
                    Node::AsUIntOp(a) | Node::AsSIntOp(a) => slots[a as usize],
                    Node::Mux(c, t, f) => {
                        if slots[c as usize] != 0 { slots[t as usize] } else { slots[f as usize] }
                    }
                    Node::ExtractOp { a, lo, .. } => {
                        if lo >= BITS { 0 } else { (slots[a as usize] >> lo as u32) & m }
                    }
                    Node::BitAt(a, i) => {
                        let wa = width[a as usize];
                        let k = slots[i as usize];
                        (k < wa as $ty && slots[a as usize] >> k as u32 & 1 == 1) as $ty
                    }
                    Node::ShlConst { a, k } => slots[a as usize] << k as u32,
                    Node::ShrConst { a, k } => {
                        if k >= BITS { 0 } else { slots[a as usize] >> k as u32 }
                    }
                    Node::FillOp { a, factor } => {
                        slots[a as usize].wrapping_mul(consts[factor as usize]) & m
                    }
                    Node::MaskTo { a, .. } => slots[a as usize] & m,
                };
                slots[dst] = v;
            }
        }
    };
}

fast_exec!(exec_u64, u64);
fast_exec!(exec_u128, u128);

/// `BigInt` lane: a direct port of the interpreter's `TypedValue` arithmetic
/// onto the flat schedule. Slots hold interpreted values (negative for
/// signed); widths/signedness come from the program's side tables.
fn exec_big(prog: &CompiledModule, inputs: &[BigInt], regs: &[BigInt], slots: &mut [BigInt]) {
    let width = &prog.width;
    let signed = &prog.signed;
    let bits = |slots: &[BigInt], s: Slot| -> BigInt {
        let i = s as usize;
        if signed[i] { slots[i].to_unsigned(width[i]) } else { slots[i].clone() }
    };
    let wrap = |v: BigInt, w: u64, sg: bool| -> BigInt {
        if sg { v.to_signed(w) } else { v.to_unsigned(w) }
    };
    for dst in 0..prog.nodes.len() {
        let (w, sg) = (width[dst], signed[dst]);
        let v: BigInt = match prog.nodes[dst] {
            Node::Const(c) => prog.consts[c as usize].clone(),
            Node::Input(i) => inputs[i as usize].clone(),
            Node::Reg(i) => regs[i as usize].clone(),
            Node::Add(a, b) => wrap(&slots[a as usize] + &slots[b as usize], w, sg),
            Node::Sub(a, b) => wrap(&slots[a as usize] - &slots[b as usize], w, sg),
            Node::Mul(a, b) => wrap(&slots[a as usize] * &slots[b as usize], w, sg),
            Node::Div(a, b) => {
                let (va, vb) = (&slots[a as usize], &slots[b as usize]);
                if vb.is_zero() {
                    wrap(BigInt::zero(), w, sg)
                } else if sg {
                    wrap(va.div_rem(vb).0, w, true)
                } else {
                    wrap(va.div_floor(vb), w, false)
                }
            }
            Node::Rem(a, b) => {
                let (va, vb) = (&slots[a as usize], &slots[b as usize]);
                if vb.is_zero() {
                    wrap(va.clone(), w, sg)
                } else if sg {
                    wrap(va.div_rem(vb).1, w, true)
                } else {
                    wrap(va.mod_floor(vb), w, false)
                }
            }
            Node::And(a, b) => {
                wrap(slots[a as usize].to_unsigned(w) & slots[b as usize].to_unsigned(w), w, sg)
            }
            Node::Or(a, b) => {
                wrap(slots[a as usize].to_unsigned(w) | slots[b as usize].to_unsigned(w), w, sg)
            }
            Node::Xor(a, b) => {
                wrap(slots[a as usize].to_unsigned(w) ^ slots[b as usize].to_unsigned(w), w, sg)
            }
            Node::LogicAnd(a, b) => {
                BigInt::from(!slots[a as usize].is_zero() && !slots[b as usize].is_zero())
            }
            Node::LogicOr(a, b) => {
                BigInt::from(!slots[a as usize].is_zero() || !slots[b as usize].is_zero())
            }
            Node::CmpEq(a, b) => BigInt::from(slots[a as usize] == slots[b as usize]),
            Node::CmpNeq(a, b) => BigInt::from(slots[a as usize] != slots[b as usize]),
            Node::CmpLt(a, b) => BigInt::from(slots[a as usize] < slots[b as usize]),
            Node::CmpLe(a, b) => BigInt::from(slots[a as usize] <= slots[b as usize]),
            Node::CmpGt(a, b) => BigInt::from(slots[a as usize] > slots[b as usize]),
            Node::CmpGe(a, b) => BigInt::from(slots[a as usize] >= slots[b as usize]),
            Node::Cat(a, b) => (bits(slots, a) << width[b as usize]) + bits(slots, b),
            Node::ShlDyn(a, b) => {
                let wa = width[a as usize];
                let k = u64::try_from(&bits(slots, b)).unwrap_or(u64::MAX);
                if k >= wa { wrap(BigInt::zero(), wa, sg) } else { wrap(bits(slots, a) << k, wa, sg) }
            }
            Node::ShrDyn(a, b) => {
                let wa = width[a as usize];
                let k = u64::try_from(&bits(slots, b)).unwrap_or(u64::MAX);
                if sg {
                    wrap(&slots[a as usize] >> k.min(1 << 20), wa, true)
                } else if k >= wa {
                    BigInt::zero()
                } else {
                    wrap(bits(slots, a) >> k, wa, false)
                }
            }
            Node::Not(a) => wrap(bits(slots, a).not_within(w), w, sg),
            Node::LogicNot(a) => BigInt::from(slots[a as usize].is_zero()),
            Node::Neg(a) => {
                if sg { wrap(-&slots[a as usize], w, true) } else { wrap(-bits(slots, a), w, false) }
            }
            Node::OrR(a) => BigInt::from(!slots[a as usize].is_zero()),
            Node::AndR(a) => {
                let wa = width[a as usize];
                BigInt::from(bits(slots, a) == BigInt::pow2(wa) - BigInt::one())
            }
            Node::XorR(a) => BigInt::from(bits(slots, a).count_ones() % 2 == 1),
            Node::AsBool(a) => BigInt::from(!slots[a as usize].is_zero()),
            Node::AsUIntOp(a) => bits(slots, a),
            Node::AsSIntOp(a) => bits(slots, a).to_signed(w),
            Node::Mux(c, t, f) => {
                if !slots[c as usize].is_zero() {
                    slots[t as usize].clone()
                } else {
                    slots[f as usize].clone()
                }
            }
            Node::ExtractOp { a, lo, .. } => wrap(bits(slots, a) >> lo, w, false),
            Node::BitAt(a, i) => {
                let wa = width[a as usize];
                let bit = match u64::try_from(&slots[i as usize]) {
                    Ok(k) if k < wa => bits(slots, a).bit(k),
                    _ => false,
                };
                BigInt::from(bit)
            }
            Node::ShlConst { a, k } => {
                if sg { wrap(&slots[a as usize] << k, w, true) } else { bits(slots, a) << k }
            }
            Node::ShrConst { a, k } => {
                if sg { wrap(&slots[a as usize] >> k, w, true) } else { wrap(bits(slots, a) >> k, w, false) }
            }
            Node::FillOp { a, factor } => {
                wrap(bits(slots, a) * &prog.consts[factor as usize], w, false)
            }
            Node::MaskTo { a, .. } => {
                if sg { slots[a as usize].to_signed(w) } else { bits(slots, a).to_unsigned(w) }
            }
        };
        slots[dst] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elab::elaborate;
    use crate::examples;
    use crate::interp::Simulator;

    fn rotate_at(len: i64) -> ElabModule {
        let m = examples::rotate_example();
        let bindings = [("len".to_string(), len)].into_iter().collect();
        elaborate(&m, &bindings).expect("elaborates")
    }

    #[test]
    fn rotate_compiles_to_fast_lane() {
        let em = rotate_at(4);
        let prog = compile(&em).expect("compiles");
        assert_eq!(prog.lane(), Lane::U64);
        assert!(prog.num_slots() > 0);
    }

    #[test]
    fn rotate_follows_paper_trace() {
        let em = rotate_at(4);
        let prog = compile(&em).expect("compiles");
        let mut sim = CompiledSim::new(&prog, &BTreeMap::new());
        let inputs: BTreeMap<String, BigInt> =
            [("io_in".to_string(), BigInt::from(0b1001))].into_iter().collect();
        sim.set_inputs(&inputs);
        let mut trace = Vec::new();
        for _ in 0..5 {
            sim.step();
            trace.push(u64::try_from(&sim.reg("R").expect("has R")).unwrap());
        }
        assert_eq!(trace, vec![0b1001, 0b1100, 0b0110, 0b0011, 0b1001]);
    }

    #[test]
    fn compiled_matches_interpreter_cycle_by_cycle() {
        // len = 1 is excluded: rotate's `R(len-1, 1)` extract is empty there
        // (the registry's documented `min_width: 2`), and both backends
        // reject it the same way.
        for len in [2i64, 3, 7, 16, 63, 64, 65, 127, 128, 129, 200] {
            let em = rotate_at(len);
            let prog = compile(&em).expect("compiles");
            let mut vm = CompiledSim::new(&prog, &BTreeMap::new());
            let mut interp = Simulator::new(&em, &BTreeMap::new()).expect("interp");
            let inputs: BTreeMap<String, BigInt> =
                [("io_in".to_string(), BigInt::from(0x9E3779B9u64).to_unsigned(len as u64))]
                    .into_iter()
                    .collect();
            for cycle in 0..(len as usize + 3) {
                let want = interp.step(&inputs).expect("interp step");
                let got = vm.step_map(&inputs);
                assert_eq!(got, want, "outputs at len={len} cycle={cycle}");
                for (name, v) in interp.regs() {
                    assert_eq!(
                        vm.reg(name).as_ref(),
                        Some(v),
                        "reg {name} at len={len} cycle={cycle}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_scales_with_width() {
        let lanes: Vec<Lane> = [16i64, 100, 160]
            .iter()
            .map(|&len| compile(&rotate_at(len)).expect("compiles").lane())
            .collect();
        assert_eq!(lanes, vec![Lane::U64, Lane::U128, Lane::Big]);
    }
}
