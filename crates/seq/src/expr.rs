//! Expressions of the sequential target language.
//!
//! The transformation models every Chisel bit-vector as a *non-negative
//! mathematical integer* (its raw-bits value) and inserts explicit `Pow2`,
//! `mod`, and `div` operations for width clamping, extraction, and
//! concatenation — exactly the integer view of the paper's Listing 3.
//! Values are therefore only integers, booleans, and lists.

use chicala_bigint::BigInt;
use std::fmt;

/// A runtime value of the sequential language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SValue {
    /// A (non-negative, in well-formed programs) integer.
    Int(BigInt),
    /// A boolean.
    Bool(bool),
    /// A list of values.
    List(Vec<SValue>),
}

impl SValue {
    /// The integer payload.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError::Type`] if the value is not an integer.
    pub fn int(&self) -> Result<&BigInt, SeqError> {
        match self {
            SValue::Int(v) => Ok(v),
            other => Err(SeqError::Type(format!("expected Int, got {other:?}"))),
        }
    }

    /// The boolean payload.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError::Type`] if the value is not a boolean.
    pub fn bool(&self) -> Result<bool, SeqError> {
        match self {
            SValue::Bool(b) => Ok(*b),
            other => Err(SeqError::Type(format!("expected Bool, got {other:?}"))),
        }
    }

    /// The list payload.
    ///
    /// # Errors
    ///
    /// Returns [`SeqError::Type`] if the value is not a list.
    pub fn list(&self) -> Result<&[SValue], SeqError> {
        match self {
            SValue::List(l) => Ok(l),
            other => Err(SeqError::Type(format!("expected List, got {other:?}"))),
        }
    }

    /// The value as one integer, a boolean read as 0 or 1; `None` for a
    /// list. This is how traces and cross-layer comparisons see a scalar.
    pub fn scalar(&self) -> Option<BigInt> {
        match self {
            SValue::Int(i) => Some(i.clone()),
            SValue::Bool(b) => Some(BigInt::from(*b)),
            SValue::List(_) => None,
        }
    }
}

impl From<BigInt> for SValue {
    fn from(v: BigInt) -> SValue {
        SValue::Int(v)
    }
}

impl From<bool> for SValue {
    fn from(b: bool) -> SValue {
        SValue::Bool(b)
    }
}

/// Errors raised while evaluating sequential programs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqError {
    /// Unbound variable.
    Unbound(String),
    /// Type mismatch.
    Type(String),
    /// Division by zero.
    DivByZero,
    /// List index out of range.
    IndexOutOfRange(i64, usize),
    /// Unknown function.
    UnknownFunc(String),
    /// The `Run` loop exceeded its fuel without reaching the timeout.
    FuelExhausted,
    /// Negative operand where a non-negative one is required (`Pow2`,
    /// bitwise operations).
    Negative(String),
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::Unbound(n) => write!(f, "unbound variable `{n}`"),
            SeqError::Type(m) => write!(f, "type error: {m}"),
            SeqError::DivByZero => write!(f, "division by zero"),
            SeqError::IndexOutOfRange(i, len) => {
                write!(f, "list index {i} out of range for length {len}")
            }
            SeqError::UnknownFunc(n) => write!(f, "unknown function `{n}`"),
            SeqError::FuelExhausted => write!(f, "Run exceeded its fuel before the timeout"),
            SeqError::Negative(op) => write!(f, "negative operand to {op}"),
        }
    }
}

impl std::error::Error for SeqError {}

/// Binary integer operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SBinop {
    /// `+`.
    Add,
    /// `-` (may produce negative intermediate values; programs keep final
    /// signal values non-negative).
    Sub,
    /// `*`.
    Mul,
    /// Flooring `/`.
    Div,
    /// Flooring `%` (non-negative for positive divisor).
    Mod,
    /// Bitwise and (non-negative operands).
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
}

/// Comparison operators (integer → boolean).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SCmp {
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

/// An expression of the sequential language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SExpr {
    /// Integer constant.
    Const(BigInt),
    /// Boolean constant.
    BoolConst(bool),
    /// Variable (program variable or module parameter).
    Var(String),
    /// Integer binary operation.
    Binop(SBinop, Box<SExpr>, Box<SExpr>),
    /// `Pow2(e)` — `2^e`; the workhorse of the integer bit-vector model.
    Pow2(Box<SExpr>),
    /// Integer comparison.
    Cmp(SCmp, Box<SExpr>, Box<SExpr>),
    /// Boolean conjunction.
    And(Box<SExpr>, Box<SExpr>),
    /// Boolean disjunction.
    Or(Box<SExpr>, Box<SExpr>),
    /// Boolean negation.
    Not(Box<SExpr>),
    /// Conditional expression.
    Ite(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    /// Literal list.
    ListLit(Vec<SExpr>),
    /// `l(i)`.
    ListGet(Box<SExpr>, Box<SExpr>),
    /// `l.updated(i, v)`.
    ListSet(Box<SExpr>, Box<SExpr>, Box<SExpr>),
    /// `l.length`.
    ListLen(Box<SExpr>),
    /// `List.fill(n)(v)`.
    ListFill(Box<SExpr>, Box<SExpr>),
    /// `l :+ v` (append).
    ListAppend(Box<SExpr>, Box<SExpr>),
    /// `Sum(l)` — Σ elements (the list library's `Sum`).
    Sum(Box<SExpr>),
    /// `toZ(l)` — Σ lᵢ·2ⁱ (the list library's weighted sum).
    ToZ(Box<SExpr>),
    /// Call of a program-level function.
    Call(String, Vec<SExpr>),
}

// Builder methods deliberately mirror the generated program's operator
// names (`add`, `not`, ...) rather than implementing the std::ops traits:
// they build AST nodes, not values.
#[allow(clippy::should_implement_trait)]
impl SExpr {
    /// Integer constant.
    pub fn int(v: impl Into<BigInt>) -> SExpr {
        SExpr::Const(v.into())
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> SExpr {
        SExpr::Var(name.into())
    }

    /// `2^e`.
    pub fn pow2(e: SExpr) -> SExpr {
        SExpr::Pow2(Box::new(e))
    }

    /// `self + rhs`.
    pub fn add(self, rhs: SExpr) -> SExpr {
        SExpr::Binop(SBinop::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: SExpr) -> SExpr {
        SExpr::Binop(SBinop::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: SExpr) -> SExpr {
        SExpr::Binop(SBinop::Mul, Box::new(self), Box::new(rhs))
    }

    /// Flooring `self / rhs`.
    pub fn div(self, rhs: SExpr) -> SExpr {
        SExpr::Binop(SBinop::Div, Box::new(self), Box::new(rhs))
    }

    /// Flooring `self % rhs`.
    pub fn imod(self, rhs: SExpr) -> SExpr {
        SExpr::Binop(SBinop::Mod, Box::new(self), Box::new(rhs))
    }

    /// `self % Pow2(w)` — clamp to `w` bits.
    pub fn mod_pow2(self, w: SExpr) -> SExpr {
        self.imod(SExpr::pow2(w))
    }

    /// `self / Pow2(k)` — drop the low `k` bits.
    pub fn div_pow2(self, k: SExpr) -> SExpr {
        self.div(SExpr::pow2(k))
    }

    /// Comparison.
    pub fn cmp(self, op: SCmp, rhs: SExpr) -> SExpr {
        SExpr::Cmp(op, Box::new(self), Box::new(rhs))
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: SExpr) -> SExpr {
        self.cmp(SCmp::Eq, rhs)
    }

    /// `self && rhs`.
    pub fn and(self, rhs: SExpr) -> SExpr {
        SExpr::And(Box::new(self), Box::new(rhs))
    }

    /// `self || rhs`.
    pub fn or(self, rhs: SExpr) -> SExpr {
        SExpr::Or(Box::new(self), Box::new(rhs))
    }

    /// `!self`.
    pub fn not(self) -> SExpr {
        SExpr::Not(Box::new(self))
    }

    /// `if self then t else e`.
    pub fn ite(self, t: SExpr, e: SExpr) -> SExpr {
        SExpr::Ite(Box::new(self), Box::new(t), Box::new(e))
    }

    /// All variable names read by the expression, in first-seen order.
    pub fn reads(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads(&self, out: &mut Vec<String>) {
        match self {
            SExpr::Const(_) | SExpr::BoolConst(_) => {}
            SExpr::Var(n) => {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
            SExpr::Binop(_, a, b) | SExpr::Cmp(_, a, b) | SExpr::And(a, b) | SExpr::Or(a, b) => {
                a.collect_reads(out);
                b.collect_reads(out);
            }
            SExpr::Pow2(a) | SExpr::Not(a) | SExpr::ListLen(a) | SExpr::Sum(a) | SExpr::ToZ(a) => {
                a.collect_reads(out)
            }
            SExpr::Ite(c, t, e) => {
                c.collect_reads(out);
                t.collect_reads(out);
                e.collect_reads(out);
            }
            SExpr::ListLit(es) => {
                for e in es {
                    e.collect_reads(out);
                }
            }
            SExpr::ListGet(l, i) | SExpr::ListFill(l, i) | SExpr::ListAppend(l, i) => {
                l.collect_reads(out);
                i.collect_reads(out);
            }
            SExpr::ListSet(l, i, v) => {
                l.collect_reads(out);
                i.collect_reads(out);
                v.collect_reads(out);
            }
            SExpr::Call(_, args) => {
                for a in args {
                    a.collect_reads(out);
                }
            }
        }
    }
}

impl fmt::Display for SExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SExpr::Const(v) => write!(f, "{v}"),
            SExpr::BoolConst(b) => write!(f, "{b}"),
            SExpr::Var(n) => write!(f, "{n}"),
            SExpr::Binop(op, a, b) => {
                let sym = match op {
                    SBinop::Add => "+",
                    SBinop::Sub => "-",
                    SBinop::Mul => "*",
                    SBinop::Div => "/",
                    SBinop::Mod => "%",
                    SBinop::BitAnd => "&",
                    SBinop::BitOr => "|",
                    SBinop::BitXor => "^",
                };
                write!(f, "({a} {sym} {b})")
            }
            SExpr::Pow2(e) => write!(f, "Pow2({e})"),
            SExpr::Cmp(op, a, b) => {
                let sym = match op {
                    SCmp::Eq => "==",
                    SCmp::Ne => "!=",
                    SCmp::Lt => "<",
                    SCmp::Le => "<=",
                    SCmp::Gt => ">",
                    SCmp::Ge => ">=",
                };
                write!(f, "({a} {sym} {b})")
            }
            SExpr::And(a, b) => write!(f, "({a} && {b})"),
            SExpr::Or(a, b) => write!(f, "({a} || {b})"),
            SExpr::Not(a) => write!(f, "!{a}"),
            SExpr::Ite(c, t, e) => write!(f, "(if ({c}) {t} else {e})"),
            SExpr::ListLit(es) => {
                write!(f, "List(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            SExpr::ListGet(l, i) => write!(f, "{l}({i})"),
            SExpr::ListSet(l, i, v) => write!(f, "{l}.updated({i}, {v})"),
            SExpr::ListLen(l) => write!(f, "{l}.length"),
            SExpr::ListFill(n, v) => write!(f, "List.fill({n})({v})"),
            SExpr::ListAppend(l, v) => write!(f, "({l} :+ {v})"),
            SExpr::Sum(l) => write!(f, "Sum({l})"),
            SExpr::ToZ(l) => write!(f, "toZ({l})"),
            SExpr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_listing3_style() {
        // R / Pow2(w - c) == i % Pow2(c)
        let e = SExpr::var("R")
            .div_pow2(SExpr::var("w").sub(SExpr::var("c")))
            .eq(SExpr::var("i").mod_pow2(SExpr::var("c")));
        assert_eq!(e.to_string(), "((R / Pow2((w - c))) == (i % Pow2(c)))");
    }

    #[test]
    fn reads() {
        let e = SExpr::var("a").add(SExpr::var("b")).mul(SExpr::var("a"));
        assert_eq!(e.reads(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn svalue_accessors() {
        assert_eq!(SValue::Int(5.into()).int().unwrap(), &BigInt::from(5));
        assert!(SValue::Bool(true).bool().unwrap());
        assert!(SValue::Int(1.into()).bool().is_err());
        assert_eq!(SValue::List(vec![]).list().unwrap().len(), 0);
    }

    use chicala_bigint::BigInt;
}
