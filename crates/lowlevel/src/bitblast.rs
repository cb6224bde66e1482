//! Bit-blasting: lowering elaborated (fixed-width) driver expressions to
//! single-bit operations over an abstract bit kit.
//!
//! The same blaster serves three kits: the [`crate::bdd`] manager (the
//! per-width formal-verification baseline), the folding, structurally
//! hashed [`Aig`] (the symbolic cones the BDD and SAT engines prove, built
//! once in the graph they read), and [`Eval`], which computes each gate's
//! value on plain bits (gate-level simulation of one concrete case). This
//! is exactly the "flatten everything" low-level path the paper contrasts
//! with its parametric verification.

use crate::aig::{Aig, AigRef, AIG_FALSE, AIG_TRUE};
use crate::bdd::{Bdd, Ref};
use chicala_bigint::BigInt;
use chicala_chisel::{BinaryOp, ElabModule, Expr, PExpr, SignalRef, UnaryOp};
use std::collections::BTreeMap;
use std::fmt;

/// An abstract single-bit logic builder.
pub trait BitKit {
    /// A single-bit signal.
    type Bit: Clone;

    /// The constant bit.
    fn constant(&mut self, v: bool) -> Self::Bit;
    /// Conjunction.
    fn and(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit;
    /// Disjunction.
    fn or(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit;
    /// Exclusive or.
    fn xor(&mut self, a: Self::Bit, b: Self::Bit) -> Self::Bit;
    /// Negation.
    fn not(&mut self, a: Self::Bit) -> Self::Bit;

    /// Multiplexer (`c ? t : f`), default composition.
    fn mux(&mut self, c: Self::Bit, t: Self::Bit, f: Self::Bit) -> Self::Bit {
        let ct = self.and(c.clone(), t);
        let nc = self.not(c);
        let cf = self.and(nc, f);
        self.or(ct, cf)
    }

    /// Full adder returning `(sum, carry)`.
    fn full_add(&mut self, a: Self::Bit, b: Self::Bit, cin: Self::Bit) -> (Self::Bit, Self::Bit) {
        let axb = self.xor(a.clone(), b.clone());
        let sum = self.xor(axb.clone(), cin.clone());
        let ab = self.and(a, b);
        let axb_cin = self.and(axb, cin);
        let carry = self.or(ab, axb_cin);
        (sum, carry)
    }

    /// Current size of the kit's structure (gate count, BDD node count) —
    /// reported to telemetry by [`crate::unroll`]. `None` for kits without
    /// a meaningful size.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// The concrete kit: every operation returns the value its gate would
/// evaluate to, so blasting over constant leaves simulates the circuit
/// without building it. Bit for bit the same as evaluating the [`Aig`]
/// the blaster would build from the same leaves.
#[derive(Clone, Copy, Debug, Default)]
pub struct Eval;

impl BitKit for Eval {
    type Bit = bool;

    fn constant(&mut self, v: bool) -> bool {
        v
    }

    fn and(&mut self, a: bool, b: bool) -> bool {
        a && b
    }

    fn or(&mut self, a: bool, b: bool) -> bool {
        a || b
    }

    fn xor(&mut self, a: bool, b: bool) -> bool {
        a ^ b
    }

    fn not(&mut self, a: bool) -> bool {
        !a
    }

    fn mux(&mut self, c: bool, t: bool, f: bool) -> bool {
        if c {
            t
        } else {
            f
        }
    }
}

/// The AIG as the gate kit: `and`, `or` and `xor` are the graph's own
/// folding, hashed operations, `not` flips the complement bit, and the
/// constants are the two edges of node 0.
impl BitKit for Aig {
    type Bit = AigRef;

    fn constant(&mut self, v: bool) -> AigRef {
        if v {
            AIG_TRUE
        } else {
            AIG_FALSE
        }
    }

    fn and(&mut self, a: AigRef, b: AigRef) -> AigRef {
        Aig::and(self, a, b)
    }

    fn or(&mut self, a: AigRef, b: AigRef) -> AigRef {
        Aig::or(self, a, b)
    }

    fn xor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        Aig::xor(self, a, b)
    }

    fn not(&mut self, a: AigRef) -> AigRef {
        !a
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.and_count())
    }
}

/// The BDD manager as a bit kit (for per-width formal checking).
impl BitKit for Bdd {
    type Bit = Ref;

    fn constant(&mut self, v: bool) -> Ref {
        Bdd::constant(self, v)
    }

    fn and(&mut self, a: Ref, b: Ref) -> Ref {
        Bdd::and(self, a, b)
    }

    fn or(&mut self, a: Ref, b: Ref) -> Ref {
        Bdd::or(self, a, b)
    }

    fn xor(&mut self, a: Ref, b: Ref) -> Ref {
        Bdd::xor(self, a, b)
    }

    fn not(&mut self, a: Ref) -> Ref {
        Bdd::not(self, a)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.node_count())
    }
}

/// A word: little-endian bits with a signedness tag (mirroring the
/// interpreter's `TypedValue`).
#[derive(Clone, Debug)]
pub struct Word<B> {
    /// Bits, least significant first.
    pub bits: Vec<B>,
    /// Two's-complement interpretation flag.
    pub signed: bool,
}

impl<B: Clone> Word<B> {
    /// Width in bits.
    pub fn width(&self) -> usize {
        self.bits.len()
    }
}

/// Errors raised while blasting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BlastError {
    /// Reference to an unknown signal.
    UnknownSignal(String),
    /// A construct survived elaboration that should not have.
    Unsupported(String),
    /// Combinational cycle.
    CombLoop(String),
}

impl fmt::Display for BlastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlastError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            BlastError::Unsupported(m) => write!(f, "unsupported in bit-blasting: {m}"),
            BlastError::CombLoop(n) => write!(f, "combinational loop through `{n}`"),
        }
    }
}

impl std::error::Error for BlastError {}

/// Blasts expressions of one elaborated module, with signal words supplied
/// by the environment (inputs and register states as fresh kit bits).
pub struct Blaster<'m, K: BitKit> {
    module: &'m ElabModule,
    /// Resolved signal words (inputs, registers, and memoised wires).
    pub env: BTreeMap<String, Word<K::Bit>>,
    visiting: Vec<String>,
}

impl<'m, K: BitKit> Blaster<'m, K> {
    /// Creates a blaster over `module` with the given leaf signals
    /// (inputs and current register values).
    pub fn new(module: &'m ElabModule, leaves: BTreeMap<String, Word<K::Bit>>) -> Self {
        Blaster { module, env: leaves, visiting: Vec::new() }
    }

    fn pexpr_u64(&self, p: &PExpr) -> Result<i64, BlastError> {
        p.eval(&self.module.bindings)
            .map_err(|e| BlastError::Unsupported(format!("parameter: {e}")))
    }

    /// The word of a signal, blasting its driver on demand.
    pub fn signal(&mut self, kit: &mut K, name: &str) -> Result<Word<K::Bit>, BlastError> {
        if let Some(w) = self.env.get(name) {
            return Ok(w.clone());
        }
        if self.visiting.iter().any(|v| v == name) {
            return Err(BlastError::CombLoop(name.to_string()));
        }
        let sig = self
            .module
            .signal(name)
            .ok_or_else(|| BlastError::UnknownSignal(name.to_string()))?
            .clone();
        let driver = self
            .module
            .drivers
            .get(name)
            .ok_or_else(|| BlastError::UnknownSignal(name.to_string()))?
            .clone();
        self.visiting.push(name.to_string());
        let w = self.expr(kit, &driver)?;
        self.visiting.pop();
        let clamped = clamp(kit, &w, sig.width as usize, sig.signed);
        self.env.insert(name.to_string(), clamped.clone());
        Ok(clamped)
    }

    /// Blasts an expression to a word.
    pub fn expr(&mut self, kit: &mut K, e: &Expr) -> Result<Word<K::Bit>, BlastError> {
        Ok(match e {
            Expr::LitU { value, width } => {
                let v = BigInt::from(self.pexpr_u64(value)?);
                let w = match width {
                    Some(w) => self.pexpr_u64(w)? as usize,
                    None => v.bit_len().max(1) as usize,
                };
                constant_word(kit, &v, w, false)
            }
            Expr::LitS { value, width } => {
                let v = BigInt::from(self.pexpr_u64(value)?);
                let w = match width {
                    Some(w) => self.pexpr_u64(w)? as usize,
                    None => (v.abs().bit_len() + 1) as usize,
                };
                constant_word(kit, &v, w, true)
            }
            Expr::LitB(b) => {
                let bit = kit.constant(*b);
                Word { bits: vec![bit], signed: false }
            }
            Expr::Ref(SignalRef { base, path }) => {
                debug_assert!(path.is_empty(), "paths resolved during elaboration");
                self.signal(kit, base)?
            }
            Expr::Unop(op, a) => {
                let a = self.expr(kit, a)?;
                self.unop(kit, *op, a)
            }
            Expr::Binop(op, a, b) => {
                let a = self.expr(kit, a)?;
                let b = self.expr(kit, b)?;
                self.binop(kit, *op, a, b)?
            }
            Expr::Mux(c, t, f) => {
                let c = self.expr(kit, c)?;
                let t = self.expr(kit, t)?;
                let f = self.expr(kit, f)?;
                let cbit = reduce_or(kit, &c);
                let w = t.width().max(f.width());
                let signed = t.signed && f.signed;
                let te = extend(kit, &t, w);
                let fe = extend(kit, &f, w);
                let bits = te
                    .bits
                    .into_iter()
                    .zip(fe.bits)
                    .map(|(tb, fb)| kit.mux(cbit.clone(), tb, fb))
                    .collect();
                Word { bits, signed }
            }
            Expr::Extract { arg, hi, lo } => {
                let a = self.expr(kit, arg)?;
                let (hi, lo) = (self.pexpr_u64(hi)? as usize, self.pexpr_u64(lo)? as usize);
                let mut bits = Vec::new();
                for i in lo..=hi {
                    bits.push(if i < a.width() {
                        a.bits[i].clone()
                    } else {
                        kit.constant(false)
                    });
                }
                Word { bits, signed: false }
            }
            Expr::BitAt { arg, index } => {
                let a = self.expr(kit, arg)?;
                let idx = self.expr(kit, index)?;
                // Mux chain over positions.
                let mut acc = kit.constant(false);
                for (i, bit) in a.bits.iter().enumerate() {
                    let isel = equals_const(kit, &idx, i as u64);
                    let picked = kit.and(isel, bit.clone());
                    acc = kit.or(acc, picked);
                }
                Word { bits: vec![acc], signed: false }
            }
            Expr::ShlP { arg, amount } => {
                let a = self.expr(kit, arg)?;
                let k = self.pexpr_u64(amount)? as usize;
                let mut bits = vec![kit.constant(false); k];
                bits.extend(a.bits.iter().cloned());
                Word { bits, signed: a.signed }
            }
            Expr::ShrP { arg, amount } => {
                let a = self.expr(kit, arg)?;
                let k = self.pexpr_u64(amount)? as usize;
                if a.signed {
                    let sign = a.bits.last().cloned().unwrap_or_else(|| kit.constant(false));
                    let mut bits: Vec<K::Bit> = a.bits.iter().skip(k).cloned().collect();
                    while bits.len() < a.width() {
                        bits.push(sign.clone());
                    }
                    Word { bits, signed: true }
                } else {
                    let w = a.width().saturating_sub(k).max(1);
                    let mut bits: Vec<K::Bit> = a.bits.iter().skip(k).cloned().collect();
                    while bits.len() < w {
                        bits.push(kit.constant(false));
                    }
                    Word { bits, signed: false }
                }
            }
            Expr::Fill { times, arg } => {
                let a = self.expr(kit, arg)?;
                let n = self.pexpr_u64(times)? as usize;
                let mut bits = Vec::with_capacity(n * a.width());
                for _ in 0..n {
                    bits.extend(a.bits.iter().cloned());
                }
                if bits.is_empty() {
                    bits.push(kit.constant(false));
                }
                Word { bits, signed: false }
            }
            Expr::Call { func, .. } => {
                return Err(BlastError::Unsupported(format!("residual call to `{func}`")))
            }
        })
    }

    fn unop(&mut self, kit: &mut K, op: UnaryOp, a: Word<K::Bit>) -> Word<K::Bit> {
        match op {
            UnaryOp::Not => {
                let bits = a.bits.iter().map(|b| kit.not(b.clone())).collect();
                Word { bits, signed: a.signed }
            }
            UnaryOp::LogicNot => {
                let r = reduce_or(kit, &a);
                let n = kit.not(r);
                Word { bits: vec![n], signed: false }
            }
            UnaryOp::Neg => {
                // Two's complement: ~a + 1, same width.
                let inv: Vec<K::Bit> = a.bits.iter().map(|b| kit.not(b.clone())).collect();
                let one = constant_word(kit, &BigInt::one(), a.width(), false);
                let sum = add_words(kit, &Word { bits: inv, signed: false }, &one, a.width());
                Word { bits: sum.bits, signed: a.signed }
            }
            UnaryOp::OrR => {
                let r = reduce_or(kit, &a);
                Word { bits: vec![r], signed: false }
            }
            UnaryOp::AndR => {
                let mut acc = kit.constant(true);
                for b in &a.bits {
                    acc = kit.and(acc, b.clone());
                }
                Word { bits: vec![acc], signed: false }
            }
            UnaryOp::XorR => {
                let mut acc = kit.constant(false);
                for b in &a.bits {
                    acc = kit.xor(acc, b.clone());
                }
                Word { bits: vec![acc], signed: false }
            }
            UnaryOp::AsUInt => Word { bits: a.bits, signed: false },
            UnaryOp::AsSInt => Word { bits: a.bits, signed: true },
            UnaryOp::AsBool => {
                let r = reduce_or(kit, &a);
                Word { bits: vec![r], signed: false }
            }
        }
    }

    fn binop(
        &mut self,
        kit: &mut K,
        op: BinaryOp,
        a: Word<K::Bit>,
        b: Word<K::Bit>,
    ) -> Result<Word<K::Bit>, BlastError> {
        let wmax = a.width().max(b.width());
        let signed = a.signed && b.signed;
        Ok(match op {
            BinaryOp::Add => add_words(kit, &a, &b, wmax),
            BinaryOp::Sub => {
                let be = extend(kit, &b, wmax);
                let inv: Vec<K::Bit> = be.bits.iter().map(|x| kit.not(x.clone())).collect();
                let ae = extend(kit, &a, wmax);
                let mut carry = kit.constant(true);
                let mut bits = Vec::with_capacity(wmax);
                for (i, nb) in inv.iter().enumerate().take(wmax) {
                    let (s, c) = kit.full_add(ae.bits[i].clone(), nb.clone(), carry);
                    bits.push(s);
                    carry = c;
                }
                Word { bits, signed }
            }
            BinaryOp::Mul => {
                let w = a.width() + b.width();
                let ae = extend_to(kit, &a, w, a.signed);
                let be = extend_to(kit, &b, w, b.signed);
                let mut acc = constant_word(kit, &BigInt::zero(), w, false);
                for i in 0..w {
                    // acc += (b[i] ? a << i : 0)
                    let sel = be.bits[i].clone();
                    let mut partial = vec![kit.constant(false); i];
                    for j in 0..(w - i) {
                        let gated = kit.and(sel.clone(), ae.bits[j].clone());
                        partial.push(gated);
                    }
                    let pw = Word { bits: partial, signed: false };
                    acc = add_words(kit, &acc, &pw, w);
                }
                Word { bits: acc.bits, signed }
            }
            BinaryOp::Div | BinaryOp::Rem => {
                if a.signed || b.signed {
                    return Err(BlastError::Unsupported("signed division".into()));
                }
                let (q, r) = divide(kit, &a, &b);
                if op == BinaryOp::Div {
                    q
                } else {
                    let w = a.width().min(b.width());
                    Word { bits: r.bits.into_iter().take(w.max(1)).collect(), signed: false }
                }
            }
            BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => {
                let ae = extend(kit, &a, wmax);
                let be = extend(kit, &b, wmax);
                let bits = ae
                    .bits
                    .into_iter()
                    .zip(be.bits)
                    .map(|(x, y)| match op {
                        BinaryOp::And => kit.and(x, y),
                        BinaryOp::Or => kit.or(x, y),
                        _ => kit.xor(x, y),
                    })
                    .collect();
                Word { bits, signed }
            }
            BinaryOp::LogicAnd => {
                let x = reduce_or(kit, &a);
                let y = reduce_or(kit, &b);
                let r = kit.and(x, y);
                Word { bits: vec![r], signed: false }
            }
            BinaryOp::LogicOr => {
                let x = reduce_or(kit, &a);
                let y = reduce_or(kit, &b);
                let r = kit.or(x, y);
                Word { bits: vec![r], signed: false }
            }
            BinaryOp::Eq | BinaryOp::Neq => {
                let w = wmax.max(1);
                let ae = extend_to(kit, &a, w, a.signed);
                let be = extend_to(kit, &b, w, b.signed);
                let mut acc = kit.constant(true);
                for (x, y) in ae.bits.iter().zip(&be.bits) {
                    let eq = kit.xor(x.clone(), y.clone());
                    let eq = kit.not(eq);
                    acc = kit.and(acc, eq);
                }
                if op == BinaryOp::Neq {
                    acc = kit.not(acc);
                }
                Word { bits: vec![acc], signed: false }
            }
            BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge => {
                let (x, y) = match op {
                    BinaryOp::Lt | BinaryOp::Le => (&a, &b),
                    _ => (&b, &a),
                };
                let strict = matches!(op, BinaryOp::Lt | BinaryOp::Gt);
                let mixed_signed = a.signed && b.signed;
                let w = wmax + 1; // room for sign handling
                let xe = extend_to(kit, x, w, x.signed);
                let ye = extend_to(kit, y, w, y.signed);
                // x < y  via  x - y negative (two's complement, width w+1).
                let lt = less_than(kit, &xe, &ye, mixed_signed);
                let bit = if strict {
                    lt
                } else {
                    // x <= y  ==  !(y < x)
                    let gt = less_than_swapped(kit, &xe, &ye, mixed_signed);
                    kit.not(gt)
                };
                Word { bits: vec![bit], signed: false }
            }
            BinaryOp::Cat => {
                let mut bits = b.bits.clone();
                bits.extend(a.bits.iter().cloned());
                Word { bits, signed: false }
            }
            BinaryOp::Shl => {
                // Dynamic shift, truncated to the left operand's width.
                let w = a.width();
                let mut cur = a.clone();
                for (i, sel) in b.bits.iter().enumerate() {
                    let amount = 1usize << i.min(20);
                    let mut shifted_bits = vec![kit.constant(false); amount.min(w)];
                    shifted_bits
                        .extend(cur.bits.iter().take(w.saturating_sub(amount)).cloned());
                    while shifted_bits.len() < w {
                        shifted_bits.push(kit.constant(false));
                    }
                    let shifted = Word { bits: shifted_bits, signed: false };
                    let bits = shifted
                        .bits
                        .into_iter()
                        .zip(cur.bits.iter())
                        .map(|(s, c)| kit.mux(sel.clone(), s, c.clone()))
                        .collect();
                    cur = Word { bits, signed: a.signed };
                }
                cur
            }
            BinaryOp::Shr => {
                let w = a.width();
                let mut cur = a.clone();
                let fillbit = if a.signed {
                    a.bits.last().cloned().unwrap_or_else(|| kit.constant(false))
                } else {
                    kit.constant(false)
                };
                for (i, sel) in b.bits.iter().enumerate() {
                    let amount = 1usize << i.min(20);
                    let mut shifted_bits: Vec<K::Bit> =
                        cur.bits.iter().skip(amount.min(w)).cloned().collect();
                    while shifted_bits.len() < w {
                        shifted_bits.push(fillbit.clone());
                    }
                    let bits = shifted_bits
                        .into_iter()
                        .zip(cur.bits.iter())
                        .map(|(s, c)| kit.mux(sel.clone(), s, c.clone()))
                        .collect();
                    cur = Word { bits, signed: a.signed };
                }
                cur
            }
        })
    }
}

/// Zero-extends (or truncates) preserving the word's own signedness
/// (sign-extends signed words).
pub fn extend<K: BitKit>(kit: &mut K, w: &Word<K::Bit>, to: usize) -> Word<K::Bit> {
    extend_to(kit, w, to, w.signed)
}

fn extend_to<K: BitKit>(kit: &mut K, w: &Word<K::Bit>, to: usize, signed: bool) -> Word<K::Bit> {
    let mut bits: Vec<K::Bit> = w.bits.iter().take(to).cloned().collect();
    let fill = if signed && !w.bits.is_empty() {
        w.bits.last().expect("nonempty").clone()
    } else {
        kit.constant(false)
    };
    while bits.len() < to {
        bits.push(fill.clone());
    }
    Word { bits, signed: w.signed }
}

/// Builds a constant word (two's complement for negatives).
pub fn constant_word<K: BitKit>(
    kit: &mut K,
    v: &BigInt,
    width: usize,
    signed: bool,
) -> Word<K::Bit> {
    let raw = v.to_unsigned(width as u64);
    let bits = (0..width).map(|i| kit.constant(raw.bit(i as u64))).collect();
    Word { bits, signed }
}

/// OR-reduction of a word to one bit (the blaster's truthiness test).
pub fn reduce_or<K: BitKit>(kit: &mut K, w: &Word<K::Bit>) -> K::Bit {
    let mut acc = kit.constant(false);
    for b in &w.bits {
        acc = kit.or(acc, b.clone());
    }
    acc
}

fn equals_const<K: BitKit>(kit: &mut K, w: &Word<K::Bit>, v: u64) -> K::Bit {
    let mut acc = kit.constant(true);
    for (i, b) in w.bits.iter().enumerate() {
        let want = (v >> i.min(63)) & 1 == 1 && i < 64;
        let lit = if want {
            b.clone()
        } else {
            kit.not(b.clone())
        };
        acc = kit.and(acc, lit);
    }
    // Bits of v beyond the width must be zero for equality to hold.
    if w.bits.len() < 64 && (v >> w.bits.len()) != 0 {
        return kit.constant(false);
    }
    acc
}

/// Ripple-carry addition wrapped to `width` bits.
pub fn add_words<K: BitKit>(
    kit: &mut K,
    a: &Word<K::Bit>,
    b: &Word<K::Bit>,
    width: usize,
) -> Word<K::Bit> {
    let ae = extend(kit, a, width);
    let be = extend(kit, b, width);
    let mut carry = kit.constant(false);
    let mut bits = Vec::with_capacity(width);
    for i in 0..width {
        let (s, c) = kit.full_add(ae.bits[i].clone(), be.bits[i].clone(), carry);
        bits.push(s);
        carry = c;
    }
    Word { bits, signed: a.signed && b.signed }
}

/// Two's-complement subtraction at `max(width(a), width(b))`, mirroring
/// the blaster's `BinaryOp::Sub` construction gate for gate (so golden
/// recurrences built with it strash against blasted designs).
pub fn sub_words<K: BitKit>(kit: &mut K, a: &Word<K::Bit>, b: &Word<K::Bit>) -> Word<K::Bit> {
    let wmax = a.width().max(b.width());
    let signed = a.signed && b.signed;
    let be = extend(kit, b, wmax);
    let inv: Vec<K::Bit> = be.bits.iter().map(|x| kit.not(x.clone())).collect();
    let ae = extend(kit, a, wmax);
    let mut carry = kit.constant(true);
    let mut bits = Vec::with_capacity(wmax);
    for (i, nb) in inv.iter().enumerate().take(wmax) {
        let (s, c) = kit.full_add(ae.bits[i].clone(), nb.clone(), carry);
        bits.push(s);
        carry = c;
    }
    Word { bits, signed }
}

/// One-bit-condition multiplexer over whole words, mirroring the shape the
/// blaster builds for `Expr::Mux`. The blaster reduces the condition word
/// to one bit with [`reduce_or`], whose leading `0 ∨ c` the [`Aig`] kit
/// folds as it is built, so a one-bit condition
/// gives the same gates either way (and a constant one gives plain wiring).
pub fn mux_word<K: BitKit>(
    kit: &mut K,
    c: K::Bit,
    t: &Word<K::Bit>,
    f: &Word<K::Bit>,
) -> Word<K::Bit> {
    let w = t.width().max(f.width());
    let signed = t.signed && f.signed;
    let te = extend(kit, t, w);
    let fe = extend(kit, f, w);
    let bits = te
        .bits
        .into_iter()
        .zip(fe.bits)
        .map(|(tb, fb)| kit.mux(c.clone(), tb, fb))
        .collect();
    Word { bits, signed }
}

/// `a >= b` as a single bit, mirroring the blaster's `BinaryOp::Ge`
/// construction exactly (widen by one, compare via `!(a < b)`).
pub fn ge_words<K: BitKit>(kit: &mut K, a: &Word<K::Bit>, b: &Word<K::Bit>) -> K::Bit {
    let wmax = a.width().max(b.width());
    let mixed_signed = a.signed && b.signed;
    let w = wmax + 1;
    let xe = extend_to(kit, b, w, b.signed);
    let ye = extend_to(kit, a, w, a.signed);
    let gt = less_than(kit, &ye, &xe, mixed_signed);
    kit.not(gt)
}

/// `x < y` as a single bit via the sign of the widened subtraction — the
/// comparator the blaster emits for every relational operator.
pub fn less_than<K: BitKit>(kit: &mut K, x: &Word<K::Bit>, y: &Word<K::Bit>, signed: bool) -> K::Bit {
    // x < y  ==  sign(x - y) with width w+1 (already sign/zero extended).
    let w = x.width().max(y.width()) + 1;
    let xe = extend_to(kit, x, w, signed);
    let ye = extend_to(kit, y, w, signed);
    let inv: Vec<K::Bit> = ye.bits.iter().map(|b| kit.not(b.clone())).collect();
    let mut carry = kit.constant(true);
    let mut last = kit.constant(false);
    for (i, nb) in inv.iter().enumerate().take(w) {
        let (s, c) = kit.full_add(xe.bits[i].clone(), nb.clone(), carry);
        carry = c;
        last = s;
    }
    last
}

fn less_than_swapped<K: BitKit>(
    kit: &mut K,
    x: &Word<K::Bit>,
    y: &Word<K::Bit>,
    signed: bool,
) -> K::Bit {
    less_than(kit, y, x, signed)
}

/// Restoring divider returning `(quotient, remainder)`; division by zero
/// yields quotient 0 and remainder `a` (matching the interpreter).
pub fn divide<K: BitKit>(
    kit: &mut K,
    a: &Word<K::Bit>,
    b: &Word<K::Bit>,
) -> (Word<K::Bit>, Word<K::Bit>) {
    let w = a.width();
    let bw = b.width().max(1);
    let rw = bw + 1;
    let mut rem: Word<K::Bit> = Word { bits: vec![kit.constant(false); rw], signed: false };
    let mut quot = vec![kit.constant(false); w];
    let bz = {
        let r = reduce_or(kit, b);
        kit.not(r)
    };
    for i in (0..w).rev() {
        // rem = (rem << 1) | a[i]
        let mut bits = vec![a.bits[i].clone()];
        bits.extend(rem.bits.iter().take(rw - 1).cloned());
        rem = Word { bits, signed: false };
        // if rem >= b: rem -= b; q[i] = 1
        let be = extend(kit, b, rw);
        let ge = {
            let lt = less_than(kit, &rem, &be, false);
            kit.not(lt)
        };
        let diff = {
            let inv: Vec<K::Bit> = be.bits.iter().map(|x| kit.not(x.clone())).collect();
            let mut carry = kit.constant(true);
            let mut bits = Vec::with_capacity(rw);
            for (j, nb) in inv.iter().enumerate().take(rw) {
                let (s, c) = kit.full_add(rem.bits[j].clone(), nb.clone(), carry);
                bits.push(s);
                carry = c;
            }
            bits
        };
        let new_bits: Vec<K::Bit> = diff
            .into_iter()
            .zip(rem.bits.iter())
            .map(|(d, r)| kit.mux(ge.clone(), d, r.clone()))
            .collect();
        rem = Word { bits: new_bits, signed: false };
        let nbz = kit.not(bz.clone());
        quot[i] = kit.and(ge.clone(), nbz);
    }
    // Division by zero: quotient forced to 0 above; remainder forced to a.
    let rem_bits: Vec<K::Bit> = (0..rw)
        .map(|i| {
            let a_bit = if i < a.width() { a.bits[i].clone() } else { kit.constant(false) };
            kit.mux(bz.clone(), a_bit, rem.bits[i].clone())
        })
        .collect();
    (
        Word { bits: quot, signed: false },
        Word { bits: rem_bits, signed: false },
    )
}

/// Clamps a word to a signal's declared width and signedness.
pub fn clamp<K: BitKit>(kit: &mut K, w: &Word<K::Bit>, width: usize, signed: bool) -> Word<K::Bit> {
    let mut bits: Vec<K::Bit> = w.bits.iter().take(width).cloned().collect();
    let fill = if w.signed && !w.bits.is_empty() && w.width() < width {
        w.bits.last().expect("nonempty").clone()
    } else {
        kit.constant(false)
    };
    while bits.len() < width {
        bits.push(fill.clone());
    }
    Word { bits, signed }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_rules_build_no_gate() {
        let mut n = Aig::new();
        let x = n.input();
        let nx = n.not(x);
        let t = n.constant(true);
        let f = n.constant(false);
        let size = n.len();
        // Constant operands, on either side.
        for (a, b) in [(x, f), (f, x)] {
            assert_eq!(n.and(a, b), f, "x∧0");
            assert_eq!(n.or(a, b), x, "x∨0");
            assert_eq!(n.xor(a, b), x, "x⊕0");
        }
        for (a, b) in [(x, t), (t, x)] {
            assert_eq!(n.and(a, b), x, "x∧1");
            assert_eq!(n.or(a, b), t, "x∨1");
            assert_eq!(n.xor(a, b), nx, "x⊕1");
        }
        // Idempotence.
        assert_eq!(n.and(x, x), x, "x∧x");
        assert_eq!(n.or(x, x), x, "x∨x");
        assert_eq!(n.xor(x, x), f, "x⊕x");
        // Complements, on either side.
        for (a, b) in [(x, nx), (nx, x)] {
            assert_eq!(n.and(a, b), f, "x∧¬x");
            assert_eq!(n.or(a, b), t, "x∨¬x");
            assert_eq!(n.xor(a, b), t, "x⊕¬x");
        }
        // Double negation and negated constants.
        assert_eq!(n.not(nx), x, "¬¬x");
        assert_eq!(n.not(t), f, "¬1");
        assert_eq!(n.not(f), t, "¬0");
        assert_eq!(n.len(), size, "unit rules build no gate");
        // A mux on a constant select is plain wiring.
        let y = n.input();
        let size = n.len();
        assert_eq!(n.mux(t, x, y), x);
        assert_eq!(n.mux(f, x, y), y);
        assert_eq!(n.len(), size, "a constant-select mux builds no gate");
    }

    /// One step of a random gate DAG: operands index earlier steps.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Input,
        Const(bool),
        And(usize, usize),
        Or(usize, usize),
        Xor(usize, usize),
        Not(usize),
        Mux(usize, usize, usize),
    }

    /// Replays `steps` over any kit, `input` supplying the input bits in
    /// order.
    fn replay<K: BitKit>(
        kit: &mut K,
        steps: &[Step],
        mut input: impl FnMut(&mut K) -> K::Bit,
    ) -> Vec<K::Bit> {
        let mut bits: Vec<K::Bit> = Vec::with_capacity(steps.len());
        for &step in steps {
            let bit = match step {
                Step::Input => input(kit),
                Step::Const(v) => kit.constant(v),
                Step::And(a, b) => kit.and(bits[a].clone(), bits[b].clone()),
                Step::Or(a, b) => kit.or(bits[a].clone(), bits[b].clone()),
                Step::Xor(a, b) => kit.xor(bits[a].clone(), bits[b].clone()),
                Step::Not(a) => kit.not(bits[a].clone()),
                Step::Mux(c, t, f) => kit.mux(bits[c].clone(), bits[t].clone(), bits[f].clone()),
            };
            bits.push(bit);
        }
        bits
    }

    #[test]
    fn folding_agrees_with_the_eval_kit_on_random_dags() {
        const INPUTS: usize = 6;
        let mut state = 0x5EED_F01Du64;
        let mut next = move |bound: usize| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut folded = 0;
        for _ in 0..40 {
            let mut steps = vec![Step::Input; INPUTS];
            steps.push(Step::Const(false));
            steps.push(Step::Const(true));
            while steps.len() < 120 {
                // Operands drawn from the last few steps, so equal and
                // complementary pairs (and constants) meet often.
                let len = steps.len();
                let kind = next(7);
                let mut pick = || len - 1 - next(len.min(12));
                let step = match kind {
                    0 => Step::And(pick(), pick()),
                    1 => Step::Or(pick(), pick()),
                    2 => Step::Xor(pick(), pick()),
                    3 => Step::Not(pick()),
                    4 => Step::Mux(pick(), pick(), pick()),
                    k => Step::Const(k == 6),
                };
                steps.push(step);
            }
            let mut g = Aig::new();
            let edges = replay(&mut g, &steps, |kit| kit.input());
            let inputs: Vec<AigRef> = edges[..INPUTS].to_vec();
            // Binary steps answered by a constant or by an operand (or its
            // complement): a rule folded them, building no gate.
            folded += steps
                .iter()
                .zip(&edges)
                .filter(|&(step, edge)| match *step {
                    Step::And(a, b) | Step::Or(a, b) | Step::Xor(a, b) => {
                        [0, edges[a].node(), edges[b].node()].contains(&edge.node())
                    }
                    _ => false,
                })
                .count();
            for assignment in 0u32..1 << INPUTS {
                let bit = |i: usize| (assignment >> i) & 1 == 1;
                let vals = g.eval_all(&|edge| bit(inputs.iter().position(|&n| n == edge).unwrap()));
                let mut next_input = 0;
                let want = replay(&mut Eval, &steps, |_| {
                    next_input += 1;
                    bit(next_input - 1)
                });
                for (k, (edge, want)) in edges.iter().zip(want).enumerate() {
                    let step = steps[k];
                    assert_eq!(edge.value(&vals), want, "step {k} ({step:?}) at {assignment:06b}");
                }
            }
        }
        assert!(folded > 0, "the random DAGs never hit a unit rule");
    }

    #[test]
    fn eval_full_adder() {
        let mut n = Aig::new();
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let (s, co) = n.full_add(a, b, c);
        for bits in 0..8u32 {
            let vals = n.eval_all(&|input| match input {
                x if x == a => bits & 1 == 1,
                x if x == b => bits & 2 == 2,
                x if x == c => bits & 4 == 4,
                _ => false,
            });
            let total = (bits & 1) + ((bits >> 1) & 1) + ((bits >> 2) & 1);
            assert_eq!(s.value(&vals) as u32, total & 1);
            assert_eq!(co.value(&vals) as u32, total >> 1);
        }
    }
}
