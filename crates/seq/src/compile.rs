//! Compilation of sequential programs to a slot-indexed VM.
//!
//! [`SeqRunner`](crate::SeqRunner) walks the `Trans` AST for every cycle of
//! every case: variables live in a `BTreeMap<String, SValue>`, loops
//! re-evaluate their bounds, and every intermediate is a heap-allocated
//! `BigInt`. This module instead *partially evaluates* `Trans` once per
//! parameter binding: parameters become constants, `For` loops unroll,
//! `If` statements are if-converted into `Ite` nodes, lists are scalarised
//! at constant indices, and the result is a flat SSA node list evaluated
//! over a dense `i128` slot vector.
//!
//! The compiled VM is exact where it answers at all: every arithmetic
//! operation is checked, and any overflow (or any construct outside the
//! compiled subset — calls, dynamic list indices, loop invariants,
//! non-constant bounds) surfaces as an error so the caller can fall back to
//! the tree-walking interpreter. Two deliberate, safe semantic deviations
//! exist, both consequences of eager if-conversion evaluating the untaken
//! arm of a guard:
//!
//! * `x / 0` and `x % 0` evaluate to `0` instead of raising
//!   [`SeqError::DivByZero`]. Generated programs always guard divisions
//!   (`ite(y == 0, …, x / y)`), so the `0` is discarded by the select.
//! * bindings introduced on only one side of an `If` stay bound afterwards
//!   (the interpreter would report an unbound variable if the other branch
//!   ran). The transformation pre-declares every variable, so this does not
//!   occur in generated programs.

use crate::expr::{SBinop, SCmp, SExpr, SValue, SeqError};
use crate::interp::TransResult;
use crate::program::{next_name, SStmt, SeqProgram};
use chicala_bigint::BigInt;
use chicala_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Why a program (or one construct in it) is outside the compiled subset.
///
/// Not an execution error: the caller is expected to fall back to
/// [`SeqRunner`](crate::SeqRunner), which supports the full language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeqCompileError(pub String);

impl fmt::Display for SeqCompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program outside the compiled subset: {}", self.0)
    }
}

impl std::error::Error for SeqCompileError {}

fn unsupported<T>(why: impl Into<String>) -> Result<T, SeqCompileError> {
    Err(SeqCompileError(why.into()))
}

/// Upper bound on total unrolled loop iterations per program.
const UNROLL_LIMIT: u64 = 65_536;

type Slot = u32;

/// One SSA node of the compiled program. Integer nodes produce `i128`
/// values; boolean nodes produce `0`/`1`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum SNode {
    ConstI(i128),
    ConstB(bool),
    /// Input port (index into the input table).
    Input(u32),
    /// Register current-state port (index into the register table).
    Reg(u32),
    Add(Slot, Slot),
    Sub(Slot, Slot),
    Mul(Slot, Slot),
    /// Flooring division; division by zero yields `0` (see module docs).
    DivF(Slot, Slot),
    /// Flooring remainder; modulo zero yields `0` (see module docs).
    ModF(Slot, Slot),
    BitAnd(Slot, Slot),
    BitOr(Slot, Slot),
    BitXor(Slot, Slot),
    Pow2(Slot),
    Cmp(SCmp, Slot, Slot),
    BAnd(Slot, Slot),
    BOr(Slot, Slot),
    BNot(Slot),
    /// Integer select `if c then t else f`.
    IteI(Slot, Slot, Slot),
    /// Boolean select.
    IteB(Slot, Slot, Slot),
}

/// Abstract value during partial evaluation: a typed reference into the
/// node list, or a list of such references.
#[derive(Clone, Debug, PartialEq, Eq)]
enum AVal {
    Int(Slot),
    Bool(Slot),
    List(Vec<AVal>),
}

/// A port of the compiled program (input, output, or register).
#[derive(Clone, Debug)]
struct Port {
    name: String,
    slot: Slot,
    is_bool: bool,
}

#[derive(Clone, Debug)]
struct RegPort {
    name: String,
    /// Slot holding the next-state value after a sweep.
    next: Slot,
    is_bool: bool,
    /// Declared init (`RegInit`), folded to a constant at compile time.
    init: Option<i128>,
}

/// A sequential program compiled for one parameter binding.
///
/// Produced by [`compile_seq`]; executed by [`SeqVm`]. Immutable and
/// shareable across threads.
#[derive(Clone, Debug)]
pub struct SeqCompiled {
    /// Program name (from [`SeqProgram::name`]).
    pub name: String,
    nodes: Vec<SNode>,
    inputs: Vec<Port>,
    outputs: Vec<Port>,
    regs: Vec<RegPort>,
    /// Slot of the compiled timeout condition (true = stop), if any.
    timeout: Option<Slot>,
}

impl SeqCompiled {
    /// Number of SSA slots in the compiled program.
    pub fn num_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Number of outputs.
    pub fn outputs_len(&self) -> usize {
        self.outputs.len()
    }

    /// Name of output `i`.
    pub fn output_name(&self, i: usize) -> &str {
        &self.outputs[i].name
    }

    /// Index of the output called `name`.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|p| p.name == name)
    }

    /// Number of registers.
    pub fn regs_len(&self) -> usize {
        self.regs.len()
    }

    /// Name of register `i`.
    pub fn reg_name(&self, i: usize) -> &str {
        &self.regs[i].name
    }

    /// Index of the register called `name`.
    pub fn reg_index(&self, name: &str) -> Option<usize> {
        self.regs.iter().position(|p| p.name == name)
    }
}

struct Compiler {
    nodes: Vec<SNode>,
    /// Compile-time constant value of each slot, when known.
    consts: Vec<Option<AConst>>,
    intern: HashMap<SNode, Slot>,
    unrolled: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AConst {
    I(i128),
    B(bool),
}

type Env = BTreeMap<String, AVal>;

impl Compiler {
    fn push(&mut self, n: SNode) -> Slot {
        if let Some(&s) = self.intern.get(&n) {
            return s;
        }
        let c = match &n {
            SNode::ConstI(v) => Some(AConst::I(*v)),
            SNode::ConstB(b) => Some(AConst::B(*b)),
            _ => None,
        };
        let s = self.nodes.len() as Slot;
        self.nodes.push(n.clone());
        self.consts.push(c);
        self.intern.insert(n, s);
        s
    }

    fn iconst(&mut self, v: i128) -> Slot {
        self.push(SNode::ConstI(v))
    }

    fn bconst(&mut self, b: bool) -> Slot {
        self.push(SNode::ConstB(b))
    }

    fn const_i(&self, s: Slot) -> Option<i128> {
        match self.consts[s as usize] {
            Some(AConst::I(v)) => Some(v),
            _ => None,
        }
    }

    fn const_b(&self, s: Slot) -> Option<bool> {
        match self.consts[s as usize] {
            Some(AConst::B(b)) => Some(b),
            _ => None,
        }
    }

    fn int_of(&self, v: &AVal, what: &str) -> Result<Slot, SeqCompileError> {
        match v {
            AVal::Int(s) => Ok(*s),
            other => unsupported(format!("{what}: expected Int, got {other:?}")),
        }
    }

    fn bool_of(&self, v: &AVal, what: &str) -> Result<Slot, SeqCompileError> {
        match v {
            AVal::Bool(s) => Ok(*s),
            other => unsupported(format!("{what}: expected Bool, got {other:?}")),
        }
    }

    /// Integer binop with compile-time folding mirroring the VM semantics.
    fn binop(&mut self, op: SBinop, a: Slot, b: Slot) -> Result<Slot, SeqCompileError> {
        if let (Some(x), Some(y)) = (self.const_i(a), self.const_i(b)) {
            let v = match op {
                SBinop::Add => x.checked_add(y),
                SBinop::Sub => x.checked_sub(y),
                SBinop::Mul => x.checked_mul(y),
                SBinop::Div => {
                    if y == 0 {
                        Some(0)
                    } else {
                        div_floor_i128(x, y)
                    }
                }
                SBinop::Mod => {
                    if y == 0 {
                        Some(0)
                    } else {
                        mod_floor_i128(x, y)
                    }
                }
                SBinop::BitAnd | SBinop::BitOr | SBinop::BitXor => {
                    if x < 0 || y < 0 {
                        return unsupported("constant bitwise on negative operand");
                    }
                    Some(match op {
                        SBinop::BitAnd => x & y,
                        SBinop::BitOr => x | y,
                        _ => x ^ y,
                    })
                }
            };
            match v {
                Some(v) => return Ok(self.iconst(v)),
                None => return unsupported("constant arithmetic exceeds i128"),
            }
        }
        // Identity folds that keep node counts small after unrolling.
        match op {
            SBinop::Add => {
                if self.const_i(a) == Some(0) {
                    return Ok(b);
                }
                if self.const_i(b) == Some(0) {
                    return Ok(a);
                }
            }
            SBinop::Sub if self.const_i(b) == Some(0) => return Ok(a),
            SBinop::Mul => {
                if self.const_i(a) == Some(1) {
                    return Ok(b);
                }
                if self.const_i(b) == Some(1) {
                    return Ok(a);
                }
                if self.const_i(a) == Some(0) || self.const_i(b) == Some(0) {
                    return Ok(self.iconst(0));
                }
            }
            _ => {}
        }
        Ok(self.push(match op {
            SBinop::Add => SNode::Add(a, b),
            SBinop::Sub => SNode::Sub(a, b),
            SBinop::Mul => SNode::Mul(a, b),
            SBinop::Div => SNode::DivF(a, b),
            SBinop::Mod => SNode::ModF(a, b),
            SBinop::BitAnd => SNode::BitAnd(a, b),
            SBinop::BitOr => SNode::BitOr(a, b),
            SBinop::BitXor => SNode::BitXor(a, b),
        }))
    }

    fn expr(&mut self, e: &SExpr, env: &Env) -> Result<AVal, SeqCompileError> {
        Ok(match e {
            SExpr::Const(v) => match i128::try_from(v) {
                Ok(v) => AVal::Int(self.iconst(v)),
                Err(_) => return unsupported("integer literal exceeds i128"),
            },
            SExpr::BoolConst(b) => AVal::Bool(self.bconst(*b)),
            SExpr::Var(n) => match env.get(n) {
                Some(v) => v.clone(),
                None => return unsupported(format!("unbound variable `{n}`")),
            },
            SExpr::Binop(op, a, b) => {
                let a = self.expr(a, env)?;
                let b = self.expr(b, env)?;
                let (a, b) = (self.int_of(&a, "binop")?, self.int_of(&b, "binop")?);
                AVal::Int(self.binop(*op, a, b)?)
            }
            SExpr::Pow2(e) => {
                let v = self.expr(e, env)?;
                let s = self.int_of(&v, "Pow2")?;
                if let Some(e) = self.const_i(s) {
                    if !(0..=126).contains(&e) {
                        return unsupported("constant Pow2 exponent outside 0..=126");
                    }
                    AVal::Int(self.iconst(1i128 << e))
                } else {
                    AVal::Int(self.push(SNode::Pow2(s)))
                }
            }
            SExpr::Cmp(op, a, b) => {
                let a = self.expr(a, env)?;
                let b = self.expr(b, env)?;
                let (a, b) = (self.int_of(&a, "cmp")?, self.int_of(&b, "cmp")?);
                if let (Some(x), Some(y)) = (self.const_i(a), self.const_i(b)) {
                    let r = match op {
                        SCmp::Eq => x == y,
                        SCmp::Ne => x != y,
                        SCmp::Lt => x < y,
                        SCmp::Le => x <= y,
                        SCmp::Gt => x > y,
                        SCmp::Ge => x >= y,
                    };
                    AVal::Bool(self.bconst(r))
                } else {
                    AVal::Bool(self.push(SNode::Cmp(*op, a, b)))
                }
            }
            SExpr::And(a, b) => {
                let a = self.expr(a, env)?;
                let a = self.bool_of(&a, "&&")?;
                // Short-circuit at compile time when the left side is known.
                match self.const_b(a) {
                    Some(false) => AVal::Bool(self.bconst(false)),
                    Some(true) => {
                        let b = self.expr(b, env)?;
                        AVal::Bool(self.bool_of(&b, "&&")?)
                    }
                    None => {
                        let b = self.expr(b, env)?;
                        let b = self.bool_of(&b, "&&")?;
                        AVal::Bool(self.push(SNode::BAnd(a, b)))
                    }
                }
            }
            SExpr::Or(a, b) => {
                let a = self.expr(a, env)?;
                let a = self.bool_of(&a, "||")?;
                match self.const_b(a) {
                    Some(true) => AVal::Bool(self.bconst(true)),
                    Some(false) => {
                        let b = self.expr(b, env)?;
                        AVal::Bool(self.bool_of(&b, "||")?)
                    }
                    None => {
                        let b = self.expr(b, env)?;
                        let b = self.bool_of(&b, "||")?;
                        AVal::Bool(self.push(SNode::BOr(a, b)))
                    }
                }
            }
            SExpr::Not(a) => {
                let a = self.expr(a, env)?;
                let a = self.bool_of(&a, "!")?;
                match self.const_b(a) {
                    Some(b) => AVal::Bool(self.bconst(!b)),
                    None => AVal::Bool(self.push(SNode::BNot(a))),
                }
            }
            SExpr::Ite(c, t, f) => {
                let c = self.expr(c, env)?;
                let c = self.bool_of(&c, "ite condition")?;
                match self.const_b(c) {
                    // A constant condition compiles only the taken branch,
                    // like the interpreter's lazy evaluation.
                    Some(true) => self.expr(t, env)?,
                    Some(false) => self.expr(f, env)?,
                    None => {
                        let t = self.expr(t, env)?;
                        let f = self.expr(f, env)?;
                        self.select(c, &t, &f)?
                    }
                }
            }
            SExpr::ListLit(es) => AVal::List(
                es.iter().map(|e| self.expr(e, env)).collect::<Result<Vec<_>, _>>()?,
            ),
            SExpr::ListGet(l, i) => {
                let l = self.expr(l, env)?;
                let i = self.expr(i, env)?;
                let l = self.list_of(&l, "list get")?;
                let i = self.const_index(&i, l.len())?;
                l[i].clone()
            }
            SExpr::ListSet(l, i, v) => {
                let lv = self.expr(l, env)?;
                let i = self.expr(i, env)?;
                let v = self.expr(v, env)?;
                let mut l = self.list_of(&lv, "list set")?.to_vec();
                let i = self.const_index(&i, l.len())?;
                l[i] = v;
                AVal::List(l)
            }
            SExpr::ListLen(l) => {
                let l = self.expr(l, env)?;
                let n = self.list_of(&l, "list length")?.len();
                AVal::Int(self.iconst(n as i128))
            }
            SExpr::ListFill(n, v) => {
                let n = self.expr(n, env)?;
                let n = self.int_of(&n, "List.fill length")?;
                let Some(n) = self.const_i(n) else {
                    return unsupported("List.fill with non-constant length");
                };
                if !(0..=UNROLL_LIMIT as i128).contains(&n) {
                    return unsupported("List.fill length out of range");
                }
                let v = self.expr(v, env)?;
                AVal::List(vec![v; n as usize])
            }
            SExpr::ListAppend(l, v) => {
                let lv = self.expr(l, env)?;
                let v = self.expr(v, env)?;
                let mut l = self.list_of(&lv, "list append")?.to_vec();
                l.push(v);
                AVal::List(l)
            }
            SExpr::Sum(l) => {
                let l = self.expr(l, env)?;
                let l = self.list_of(&l, "Sum")?.to_vec();
                let mut acc = self.iconst(0);
                for v in &l {
                    let s = self.int_of(v, "Sum element")?;
                    acc = self.binop(SBinop::Add, acc, s)?;
                }
                AVal::Int(acc)
            }
            SExpr::ToZ(l) => {
                let l = self.expr(l, env)?;
                let l = self.list_of(&l, "toZ")?.to_vec();
                let mut acc = self.iconst(0);
                for (i, v) in l.iter().enumerate() {
                    if i > 126 {
                        return unsupported("toZ list longer than 126");
                    }
                    let s = self.int_of(v, "toZ element")?;
                    let w = self.iconst(1i128 << i);
                    let term = self.binop(SBinop::Mul, s, w)?;
                    acc = self.binop(SBinop::Add, acc, term)?;
                }
                AVal::Int(acc)
            }
            SExpr::Call(name, _) => {
                return unsupported(format!("call of function `{name}`"));
            }
        })
    }

    fn list_of<'a>(&self, v: &'a AVal, what: &str) -> Result<&'a [AVal], SeqCompileError> {
        match v {
            AVal::List(l) => Ok(l),
            other => unsupported(format!("{what}: expected List, got {other:?}")),
        }
    }

    fn const_index(&self, v: &AVal, len: usize) -> Result<usize, SeqCompileError> {
        let AVal::Int(s) = v else {
            return unsupported("non-integer list index");
        };
        let Some(i) = self.const_i(*s) else {
            return unsupported("dynamic list index");
        };
        if i < 0 || i as usize >= len {
            return unsupported(format!("list index {i} out of range for length {len}"));
        }
        Ok(i as usize)
    }

    /// `if c then t else f` over abstract values, recursing through lists.
    fn select(&mut self, c: Slot, t: &AVal, f: &AVal) -> Result<AVal, SeqCompileError> {
        if t == f {
            return Ok(t.clone());
        }
        Ok(match (t, f) {
            (AVal::Int(a), AVal::Int(b)) => AVal::Int(self.push(SNode::IteI(c, *a, *b))),
            (AVal::Bool(a), AVal::Bool(b)) => AVal::Bool(self.push(SNode::IteB(c, *a, *b))),
            (AVal::List(a), AVal::List(b)) if a.len() == b.len() => {
                let mut out = Vec::with_capacity(a.len());
                for (x, y) in a.iter().zip(b) {
                    out.push(self.select(c, x, y)?);
                }
                AVal::List(out)
            }
            _ => return unsupported("if branches disagree on a variable's shape"),
        })
    }

    fn stmts(&mut self, stmts: &[SStmt], env: &mut Env) -> Result<(), SeqCompileError> {
        for s in stmts {
            match s {
                SStmt::Let { name, init } | SStmt::Assign { name, rhs: init } => {
                    let v = self.expr(init, env)?;
                    env.insert(name.clone(), v);
                }
                SStmt::If { cond, then_body, else_body } => {
                    let c = self.expr(cond, env)?;
                    let c = self.bool_of(&c, "if condition")?;
                    match self.const_b(c) {
                        Some(true) => self.stmts(then_body, env)?,
                        Some(false) => self.stmts(else_body, env)?,
                        None => {
                            // If-conversion: run both branches on copies of
                            // the environment and merge with selects.
                            let mut then_env = env.clone();
                            let mut else_env = env.clone();
                            self.stmts(then_body, &mut then_env)?;
                            self.stmts(else_body, &mut else_env)?;
                            let mut merged = Env::new();
                            for (k, tv) in &then_env {
                                match else_env.get(k) {
                                    Some(fv) => {
                                        merged.insert(k.clone(), self.select(c, tv, fv)?);
                                    }
                                    None => {
                                        merged.insert(k.clone(), tv.clone());
                                    }
                                }
                            }
                            for (k, fv) in else_env {
                                merged.entry(k).or_insert(fv);
                            }
                            *env = merged;
                        }
                    }
                }
                SStmt::For { var, start, end, invariants, body } => {
                    if !invariants.is_empty() {
                        return unsupported("loop with invariants");
                    }
                    let lo = self.expr(start, env)?;
                    let hi = self.expr(end, env)?;
                    let lo = self.int_of(&lo, "loop start")?;
                    let hi = self.int_of(&hi, "loop end")?;
                    let (Some(lo), Some(hi)) = (self.const_i(lo), self.const_i(hi)) else {
                        return unsupported("loop with non-constant bounds");
                    };
                    let iters = hi.saturating_sub(lo).max(0) as u128;
                    self.unrolled = self.unrolled.saturating_add(iters.min(u64::MAX as u128) as u64);
                    if self.unrolled > UNROLL_LIMIT {
                        return unsupported("loop unrolling exceeds limit");
                    }
                    let mut i = lo;
                    while i < hi {
                        let iv = AVal::Int(self.iconst(i));
                        env.insert(var.clone(), iv);
                        self.stmts(body, env)?;
                        i += 1;
                    }
                    // Mirror the interpreter: the loop variable is bound to
                    // the exit value during (skipped) invariant checks, then
                    // removed from scope.
                    env.remove(var);
                }
            }
        }
        Ok(())
    }
}

/// Compiles `prog` for one parameter binding.
///
/// Parameters become compile-time constants, so each distinct binding
/// (e.g. each bit width) gets its own compiled program.
///
/// # Errors
///
/// Returns [`SeqCompileError`] when the program uses constructs outside the
/// compiled subset (function calls, dynamic list indices, non-constant loop
/// bounds, loop invariants, constants beyond `i128`). The caller should fall
/// back to [`SeqRunner`](crate::SeqRunner).
pub fn compile_seq(
    prog: &SeqProgram,
    params: &BTreeMap<String, BigInt>,
) -> Result<SeqCompiled, SeqCompileError> {
    let _span = telemetry::span!("seq.compile:{}", prog.name);
    let mut c = Compiler {
        nodes: Vec::new(),
        consts: Vec::new(),
        intern: HashMap::new(),
        unrolled: 0,
    };
    let mut env = Env::new();
    for (k, v) in params {
        match i128::try_from(v) {
            Ok(v) => {
                let s = c.iconst(v);
                env.insert(k.clone(), AVal::Int(s));
            }
            Err(_) => return unsupported(format!("parameter `{k}` exceeds i128")),
        }
    }
    // Ports. A declared width marks an integer; `None` is a boolean (the
    // transformation leaves vectors to list-typed locals, and any mismatch
    // is caught below when the port is used).
    let mut inputs = Vec::new();
    for (i, d) in prog.inputs.iter().enumerate() {
        let is_bool = d.width.is_none();
        let slot = c.push(SNode::Input(i as u32));
        let av = if is_bool { AVal::Bool(slot) } else { AVal::Int(slot) };
        env.insert(d.name.clone(), av);
        inputs.push(Port { name: d.name.clone(), slot, is_bool });
    }
    let mut regs = Vec::new();
    for (i, d) in prog.regs.iter().enumerate() {
        let is_bool = d.width.is_none();
        let slot = c.push(SNode::Reg(i as u32));
        let av = if is_bool { AVal::Bool(slot) } else { AVal::Int(slot) };
        env.insert(d.name.clone(), av);
        let init = match &d.init {
            None => None,
            Some(e) => {
                // Init expressions may only mention parameters.
                let mut penv = Env::new();
                for (k, v) in &env {
                    if params.contains_key(k) {
                        penv.insert(k.clone(), v.clone());
                    }
                }
                let v = c.expr(e, &penv)?;
                let s = match (&v, is_bool) {
                    (AVal::Int(s), false) => *s,
                    (AVal::Bool(s), true) => *s,
                    _ => return unsupported("register init disagrees with declared type"),
                };
                match c.consts[s as usize] {
                    Some(AConst::I(v)) => Some(v),
                    Some(AConst::B(b)) => Some(b as i128),
                    None => return unsupported("non-constant register init"),
                }
            }
        };
        regs.push(RegPort { name: d.name.clone(), next: 0, is_bool, init });
    }

    c.stmts(&prog.trans, &mut env)?;

    let mut outputs = Vec::new();
    for d in &prog.outputs {
        let v = env
            .get(&d.name)
            .ok_or_else(|| SeqCompileError(format!("output `{}` never assigned", d.name)))?;
        let (slot, is_bool) = match v {
            AVal::Int(s) => (*s, false),
            AVal::Bool(s) => (*s, true),
            AVal::List(_) => return unsupported(format!("list-valued output `{}`", d.name)),
        };
        outputs.push(Port { name: d.name.clone(), slot, is_bool });
    }
    for (i, d) in prog.regs.iter().enumerate() {
        let nn = next_name(&d.name);
        let v = env
            .get(&nn)
            .ok_or_else(|| SeqCompileError(format!("register next `{nn}` never assigned")))?;
        regs[i].next = match (v, regs[i].is_bool) {
            (AVal::Int(s), false) => *s,
            (AVal::Bool(s), true) => *s,
            _ => return unsupported(format!("register `{}` changes shape in Trans", d.name)),
        };
    }

    // The timeout reads *new* register values at their plain names.
    let timeout = match &prog.timeout {
        None => None,
        Some(t) => {
            let mut tenv = Env::new();
            for (k, v) in &env {
                if params.contains_key(k) {
                    tenv.insert(k.clone(), v.clone());
                }
            }
            for p in &inputs {
                let av = if p.is_bool { AVal::Bool(p.slot) } else { AVal::Int(p.slot) };
                tenv.insert(p.name.clone(), av);
            }
            for r in &regs {
                let av = if r.is_bool { AVal::Bool(r.next) } else { AVal::Int(r.next) };
                tenv.insert(r.name.clone(), av);
            }
            let v = c.expr(t, &tenv)?;
            Some(c.bool_of(&v, "timeout")?)
        }
    };

    telemetry::record("seq.compile.slots", c.nodes.len() as u64);
    Ok(SeqCompiled {
        name: prog.name.clone(),
        nodes: c.nodes,
        inputs,
        outputs,
        regs,
        timeout,
    })
}

fn div_floor_i128(a: i128, b: i128) -> Option<i128> {
    let q = a.checked_div(b)?;
    if a % b != 0 && (a < 0) != (b < 0) {
        q.checked_sub(1)
    } else {
        Some(q)
    }
}

fn mod_floor_i128(a: i128, b: i128) -> Option<i128> {
    let r = a.checked_rem(b)?;
    if r != 0 && (r < 0) != (b < 0) {
        r.checked_add(b)
    } else {
        Some(r)
    }
}

fn overflow() -> SeqError {
    SeqError::Type("compiled VM: i128 overflow".into())
}

/// Executes a [`SeqCompiled`] program over a dense `i128` slot vector.
///
/// All arithmetic is checked: any overflow is reported as a [`SeqError`]
/// so the caller can fall back to the interpreter; results are otherwise
/// bit-for-bit identical to [`SeqRunner`](crate::SeqRunner), except for two
/// deliberate deviations: `x / 0` and `x % 0` evaluate to `0`, and a
/// binding introduced on one side of an `If` stays bound afterwards. Both
/// come from evaluating the untaken arm of a guard, and neither occurs in
/// generated programs.
#[derive(Debug)]
pub struct SeqVm<'p> {
    prog: &'p SeqCompiled,
    slots: Vec<i128>,
    /// Current register state, committed at the end of each [`step`](Self::step).
    regs: Vec<i128>,
    inputs: Vec<i128>,
}

impl<'p> SeqVm<'p> {
    /// Creates a VM with registers initialised from declared inits where
    /// present, otherwise `rd_init`, otherwise zero (the paper's `Init`).
    ///
    /// # Errors
    ///
    /// Fails if an `rd_init` value does not fit the register's compiled
    /// type (non-`i128` integer, or a kind mismatch).
    pub fn new(
        prog: &'p SeqCompiled,
        rd_init: &BTreeMap<String, SValue>,
    ) -> Result<SeqVm<'p>, SeqError> {
        let mut regs = Vec::with_capacity(prog.regs.len());
        for r in &prog.regs {
            let v = match (&r.init, rd_init.get(&r.name)) {
                (Some(v), _) => *v,
                (None, Some(sv)) => convert_in(sv, r.is_bool, &r.name)?,
                (None, None) => 0,
            };
            regs.push(v);
        }
        Ok(SeqVm { prog, slots: vec![0; prog.nodes.len()], regs, inputs: vec![0; prog.inputs.len()] })
    }

    /// The compiled program this VM runs.
    pub fn program(&self) -> &SeqCompiled {
        self.prog
    }

    /// Binds input values for subsequent [`step`](Self::step)s.
    ///
    /// # Errors
    ///
    /// Fails if a value is missing, does not fit `i128`, or mismatches the
    /// input's compiled kind.
    pub fn set_inputs(&mut self, inputs: &BTreeMap<String, SValue>) -> Result<(), SeqError> {
        for (i, p) in self.prog.inputs.iter().enumerate() {
            let sv = inputs.get(&p.name).ok_or_else(|| SeqError::Unbound(p.name.clone()))?;
            self.inputs[i] = convert_in(sv, p.is_bool, &p.name)?;
        }
        Ok(())
    }

    /// One application of `Trans`: sweeps the node list, then commits the
    /// register next-state.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError`] on `i128` overflow, `Pow2` of a negative or
    /// oversized exponent, or a bitwise operation on a negative value. The
    /// VM state is unspecified afterwards; fall back to the interpreter.
    pub fn step(&mut self) -> Result<(), SeqError> {
        telemetry::counter("seq.cycles.compiled", 1);
        let slots = &mut self.slots;
        for (i, n) in self.prog.nodes.iter().enumerate() {
            let v = match *n {
                SNode::ConstI(v) => v,
                SNode::ConstB(b) => b as i128,
                SNode::Input(k) => self.inputs[k as usize],
                SNode::Reg(k) => self.regs[k as usize],
                SNode::Add(a, b) => slots[a as usize]
                    .checked_add(slots[b as usize])
                    .ok_or_else(overflow)?,
                SNode::Sub(a, b) => slots[a as usize]
                    .checked_sub(slots[b as usize])
                    .ok_or_else(overflow)?,
                SNode::Mul(a, b) => slots[a as usize]
                    .checked_mul(slots[b as usize])
                    .ok_or_else(overflow)?,
                SNode::DivF(a, b) => {
                    let (x, y) = (slots[a as usize], slots[b as usize]);
                    if y == 0 {
                        0
                    } else {
                        div_floor_i128(x, y).ok_or_else(overflow)?
                    }
                }
                SNode::ModF(a, b) => {
                    let (x, y) = (slots[a as usize], slots[b as usize]);
                    if y == 0 {
                        0
                    } else {
                        mod_floor_i128(x, y).ok_or_else(overflow)?
                    }
                }
                SNode::BitAnd(a, b) | SNode::BitOr(a, b) | SNode::BitXor(a, b) => {
                    let (x, y) = (slots[a as usize], slots[b as usize]);
                    if x < 0 || y < 0 {
                        return Err(SeqError::Negative("bitwise operator".into()));
                    }
                    match n {
                        SNode::BitAnd(..) => x & y,
                        SNode::BitOr(..) => x | y,
                        _ => x ^ y,
                    }
                }
                SNode::Pow2(e) => {
                    let e = slots[e as usize];
                    if e < 0 {
                        return Err(SeqError::Negative("Pow2".into()));
                    }
                    if e > 126 {
                        return Err(overflow());
                    }
                    1i128 << e
                }
                SNode::Cmp(op, a, b) => {
                    let (x, y) = (slots[a as usize], slots[b as usize]);
                    (match op {
                        SCmp::Eq => x == y,
                        SCmp::Ne => x != y,
                        SCmp::Lt => x < y,
                        SCmp::Le => x <= y,
                        SCmp::Gt => x > y,
                        SCmp::Ge => x >= y,
                    }) as i128
                }
                SNode::BAnd(a, b) => slots[a as usize] & slots[b as usize],
                SNode::BOr(a, b) => slots[a as usize] | slots[b as usize],
                SNode::BNot(a) => slots[a as usize] ^ 1,
                SNode::IteI(c, t, f) | SNode::IteB(c, t, f) => {
                    if slots[c as usize] != 0 {
                        slots[t as usize]
                    } else {
                        slots[f as usize]
                    }
                }
            };
            slots[i] = v;
        }
        for (i, r) in self.prog.regs.iter().enumerate() {
            self.regs[i] = slots[r.next as usize];
        }
        Ok(())
    }

    /// Whether the compiled timeout condition held after the last step
    /// (programs without a timeout stop immediately, like the interpreter).
    pub fn timeout(&self) -> bool {
        match self.prog.timeout {
            Some(s) => self.slots[s as usize] != 0,
            None => true,
        }
    }

    /// Value of output `i` after the last [`step`](Self::step).
    pub fn output_svalue(&self, i: usize) -> SValue {
        let p = &self.prog.outputs[i];
        to_svalue(self.slots[p.slot as usize], p.is_bool)
    }

    /// Committed value of register `i`.
    pub fn reg_svalue(&self, i: usize) -> SValue {
        let p = &self.prog.regs[i];
        to_svalue(self.regs[i], p.is_bool)
    }

    /// Raw committed value of register `i`.
    pub fn reg_raw(&self, i: usize) -> i128 {
        self.regs[i]
    }

    /// Raw value of output `i` after the last step.
    pub fn output_raw(&self, i: usize) -> i128 {
        self.slots[self.prog.outputs[i].slot as usize]
    }

    /// Outputs and next registers as maps, mirroring
    /// [`SeqRunner::trans`](crate::SeqRunner::trans)'s [`TransResult`].
    pub fn trans_result(&self) -> TransResult {
        let outputs = self
            .prog
            .outputs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), self.output_svalue(i)))
            .collect();
        let regs = self
            .prog
            .regs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), to_svalue(self.regs[i], p.is_bool)))
            .collect();
        TransResult { outputs, regs }
    }

    /// The paper's `Init`/`Run`: step until the timeout condition holds.
    ///
    /// # Errors
    ///
    /// [`SeqError::FuelExhausted`] after `fuel` steps without a timeout;
    /// otherwise as [`step`](Self::step).
    pub fn run(&mut self, fuel: usize) -> Result<TransResult, SeqError> {
        for _ in 0..fuel {
            self.step()?;
            if self.timeout() {
                return Ok(self.trans_result());
            }
        }
        Err(SeqError::FuelExhausted)
    }
}

fn to_svalue(v: i128, is_bool: bool) -> SValue {
    if is_bool {
        SValue::Bool(v != 0)
    } else {
        SValue::Int(BigInt::from(v))
    }
}

fn convert_in(sv: &SValue, is_bool: bool, name: &str) -> Result<i128, SeqError> {
    match (sv, is_bool) {
        (SValue::Int(v), false) => i128::try_from(v)
            .map_err(|_| SeqError::Type(format!("value of `{name}` exceeds i128"))),
        (SValue::Bool(b), true) => Ok(*b as i128),
        _ => Err(SeqError::Type(format!("value of `{name}` mismatches its compiled kind"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::SeqRunner;
    use crate::program::{SFunc, SeqVarDecl};

    fn ivar(name: &str, width: SExpr) -> SeqVarDecl {
        SeqVarDecl { name: name.into(), width: Some(width), init: None }
    }

    /// A program exercising For, If, lists, Pow2, Sub-clamping, and
    /// booleans: popcount-with-accumulator over `len` bits.
    fn sample_prog() -> SeqProgram {
        let len = || SExpr::var("len");
        SeqProgram {
            name: "Sample".into(),
            params: vec!["len".into()],
            inputs: vec![ivar("io_in", len()), SeqVarDecl {
                name: "io_en".into(),
                width: None,
                init: None,
            }],
            outputs: vec![ivar("io_out", len()), SeqVarDecl {
                name: "io_odd".into(),
                width: None,
                init: None,
            }],
            regs: vec![ivar("acc", len())],
            trans: vec![
                SStmt::Let { name: next_name("acc"), init: SExpr::var("acc") },
                SStmt::Let {
                    name: "bits".into(),
                    init: SExpr::ListFill(Box::new(len()), Box::new(SExpr::int(0))),
                },
                SStmt::For {
                    var: "i".into(),
                    start: SExpr::int(0),
                    end: len(),
                    invariants: vec![],
                    body: vec![SStmt::Assign {
                        name: "bits".into(),
                        rhs: SExpr::ListSet(
                            Box::new(SExpr::var("bits")),
                            Box::new(SExpr::var("i")),
                            Box::new(
                                SExpr::var("io_in")
                                    .div_pow2(SExpr::var("i"))
                                    .mod_pow2(SExpr::int(1)),
                            ),
                        ),
                    }],
                },
                SStmt::Let { name: "count".into(), init: SExpr::Sum(Box::new(SExpr::var("bits"))) },
                SStmt::If {
                    cond: SExpr::var("io_en"),
                    then_body: vec![SStmt::Assign {
                        name: next_name("acc"),
                        rhs: SExpr::var("acc")
                            .add(SExpr::var("count"))
                            .mod_pow2(len()),
                    }],
                    else_body: vec![SStmt::Assign {
                        name: next_name("acc"),
                        rhs: SExpr::var("acc").sub(SExpr::int(1)).add(SExpr::pow2(len())).mod_pow2(len()),
                    }],
                },
                SStmt::Assign { name: "io_out".into(), rhs: SExpr::var(next_name("acc")) },
                SStmt::Assign {
                    name: "io_odd".into(),
                    rhs: SExpr::var("count").imod(SExpr::int(2)).eq(SExpr::int(1)),
                },
            ],
            timeout: Some(SExpr::BoolConst(true)),
            funcs: vec![],
        }
    }

    fn params(len: i64) -> BTreeMap<String, BigInt> {
        [("len".to_string(), BigInt::from(len))].into_iter().collect()
    }

    #[test]
    fn compiled_matches_interpreter_cycle_by_cycle() {
        let prog = sample_prog();
        for len in [2i64, 5, 16, 63, 64] {
            let p = params(len);
            let compiled = compile_seq(&prog, &p).expect("in compiled subset");
            let mut vm = SeqVm::new(&compiled, &BTreeMap::new()).unwrap();
            let runner = SeqRunner::new(&prog, p);
            let mut regs = runner.init_regs(&BTreeMap::new()).unwrap();
            let mut x: u64 = 0x243F_6A88_85A3_08D3;
            for cycle in 0..50 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let inputs: BTreeMap<String, SValue> = [
                    (
                        "io_in".to_string(),
                        SValue::Int(BigInt::from(x & ((1u64 << (len.min(63))) - 1))),
                    ),
                    ("io_en".to_string(), SValue::Bool(x & 1 == 0)),
                ]
                .into_iter()
                .collect();
                let want = runner.trans(&inputs, &regs).unwrap();
                vm.set_inputs(&inputs).unwrap();
                vm.step().unwrap();
                let got = vm.trans_result();
                assert_eq!(got, want, "len={len} cycle={cycle}");
                regs = want.regs;
            }
        }
    }

    #[test]
    fn init_run_and_timeout_match_interpreter() {
        // A counter that runs until it reaches 10.
        let prog = SeqProgram {
            name: "Count".into(),
            params: vec![],
            inputs: vec![ivar("io_step", SExpr::int(4))],
            outputs: vec![ivar("io_n", SExpr::int(8))],
            regs: vec![SeqVarDecl {
                name: "n".into(),
                width: Some(SExpr::int(8)),
                init: Some(SExpr::int(0)),
            }],
            trans: vec![
                SStmt::Let { name: next_name("n"), init: SExpr::var("n").add(SExpr::var("io_step")) },
                SStmt::Assign { name: "io_n".into(), rhs: SExpr::var(next_name("n")) },
            ],
            timeout: Some(SExpr::var("n").cmp(SCmp::Ge, SExpr::int(10))),
            funcs: vec![],
        };
        let compiled = compile_seq(&prog, &BTreeMap::new()).unwrap();
        let inputs: BTreeMap<String, SValue> =
            [("io_step".to_string(), SValue::Int(BigInt::from(3)))].into_iter().collect();
        let runner = SeqRunner::new(&prog, BTreeMap::new());
        let want = runner.init_and_run(&inputs, &BTreeMap::new(), 100).unwrap();
        let mut vm = SeqVm::new(&compiled, &BTreeMap::new()).unwrap();
        vm.set_inputs(&inputs).unwrap();
        let got = vm.run(100).unwrap();
        assert_eq!(got, want);
        // Fuel exhaustion matches too.
        let mut vm = SeqVm::new(&compiled, &BTreeMap::new()).unwrap();
        vm.set_inputs(&inputs).unwrap();
        assert_eq!(vm.run(2).unwrap_err(), SeqError::FuelExhausted);
        assert_eq!(
            runner.init_and_run(&inputs, &BTreeMap::new(), 2).unwrap_err(),
            SeqError::FuelExhausted
        );
    }

    #[test]
    fn rd_init_used_when_no_declared_init() {
        let prog = SeqProgram {
            name: "Latch".into(),
            params: vec![],
            inputs: vec![],
            outputs: vec![ivar("io_out", SExpr::int(8))],
            regs: vec![ivar("r", SExpr::int(8))],
            trans: vec![
                SStmt::Let { name: next_name("r"), init: SExpr::var("r") },
                SStmt::Assign { name: "io_out".into(), rhs: SExpr::var("r") },
            ],
            timeout: Some(SExpr::BoolConst(true)),
            funcs: vec![],
        };
        let compiled = compile_seq(&prog, &BTreeMap::new()).unwrap();
        let rd: BTreeMap<String, SValue> =
            [("r".to_string(), SValue::Int(BigInt::from(77)))].into_iter().collect();
        let mut vm = SeqVm::new(&compiled, &rd).unwrap();
        vm.set_inputs(&BTreeMap::new()).unwrap();
        vm.step().unwrap();
        assert_eq!(vm.output_svalue(0), SValue::Int(BigInt::from(77)));
    }

    #[test]
    fn unsupported_constructs_are_reported_not_miscompiled() {
        let base = SeqProgram {
            name: "U".into(),
            params: vec![],
            inputs: vec![],
            outputs: vec![ivar("io_out", SExpr::int(8))],
            regs: vec![],
            trans: vec![],
            timeout: None,
            funcs: vec![SFunc {
                name: "f".into(),
                params: vec![],
                requires: vec![],
                ensures: vec![],
                body: vec![],
                result: SExpr::int(1),
            }],
        };
        // Function call.
        let mut p = base.clone();
        p.trans = vec![SStmt::Assign { name: "io_out".into(), rhs: SExpr::Call("f".into(), vec![]) }];
        assert!(compile_seq(&p, &BTreeMap::new()).is_err());
        // Non-constant loop bound.
        let mut p = base.clone();
        p.inputs = vec![ivar("io_n", SExpr::int(8))];
        p.trans = vec![
            SStmt::Let { name: "io_out".into(), init: SExpr::int(0) },
            SStmt::For {
                var: "i".into(),
                start: SExpr::int(0),
                end: SExpr::var("io_n"),
                invariants: vec![],
                body: vec![],
            },
        ];
        assert!(compile_seq(&p, &BTreeMap::new()).is_err());
        // Loop invariants (the interpreter checks them at runtime; the VM
        // cannot, so it must refuse rather than silently skip).
        let mut p = base.clone();
        p.trans = vec![
            SStmt::Let { name: "io_out".into(), init: SExpr::int(0) },
            SStmt::For {
                var: "i".into(),
                start: SExpr::int(0),
                end: SExpr::int(4),
                invariants: vec![SExpr::BoolConst(true)],
                body: vec![],
            },
        ];
        assert!(compile_seq(&p, &BTreeMap::new()).is_err());
        // Dynamic list index.
        let mut p = base;
        p.inputs = vec![ivar("io_i", SExpr::int(2))];
        p.trans = vec![SStmt::Assign {
            name: "io_out".into(),
            rhs: SExpr::ListGet(
                Box::new(SExpr::ListLit(vec![SExpr::int(1), SExpr::int(2)])),
                Box::new(SExpr::var("io_i")),
            ),
        }];
        assert!(compile_seq(&p, &BTreeMap::new()).is_err());
    }

    #[test]
    fn overflow_is_an_error_not_a_wrong_answer() {
        // acc_next = acc * acc + 2 starting from rd_init — overflows i128
        // after a few steps.
        let prog = SeqProgram {
            name: "Blow".into(),
            params: vec![],
            inputs: vec![],
            outputs: vec![],
            regs: vec![ivar("acc", SExpr::int(4096))],
            trans: vec![SStmt::Let {
                name: next_name("acc"),
                init: SExpr::var("acc").mul(SExpr::var("acc")).add(SExpr::int(2)),
            }],
            timeout: Some(SExpr::BoolConst(true)),
            funcs: vec![],
        };
        let compiled = compile_seq(&prog, &BTreeMap::new()).unwrap();
        let rd: BTreeMap<String, SValue> =
            [("acc".to_string(), SValue::Int(BigInt::from(3)))].into_iter().collect();
        let mut vm = SeqVm::new(&compiled, &rd).unwrap();
        vm.set_inputs(&BTreeMap::new()).unwrap();
        let mut failed = false;
        for _ in 0..10 {
            if vm.step().is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "squaring from 3 must overflow i128 within 10 steps");
        // And out-of-range rd_init is rejected up front.
        let rd: BTreeMap<String, SValue> =
            [("acc".to_string(), SValue::Int(BigInt::pow2(200)))].into_iter().collect();
        assert!(SeqVm::new(&compiled, &rd).is_err());
    }
}
