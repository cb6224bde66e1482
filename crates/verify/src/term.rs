//! The verifier's term and formula language: nonlinear integer arithmetic
//! with flooring division, `Pow2`, bitwise operators, and conditionals.
//!
//! This is the logic the generated sequential programs are interpreted
//! into, mirroring the paper's integer view of bit-vectors (Listing 3).

use chicala_bigint::BigInt;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A symbol (variable or function name).
pub type Sym = String;

/// An integer term.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// Integer constant.
    Const(BigInt),
    /// Integer variable.
    Var(Sym),
    /// N-ary sum.
    Add(Vec<Term>),
    /// N-ary product.
    Mul(Vec<Term>),
    /// Flooring division; `Div(a, 0) = 0` by convention.
    Div(Box<Term>, Box<Term>),
    /// Flooring remainder; `Mod(a, 0) = a` by convention.
    Mod(Box<Term>, Box<Term>),
    /// `2^max(e, 0)`.
    Pow2(Box<Term>),
    /// Bitwise and (operands taken non-negative).
    BitAnd(Box<Term>, Box<Term>),
    /// Bitwise or.
    BitOr(Box<Term>, Box<Term>),
    /// Bitwise xor.
    BitXor(Box<Term>, Box<Term>),
    /// Conditional term.
    Ite(Box<Formula>, Box<Term>, Box<Term>),
    /// Application of a defined (possibly recursive) function.
    App(Sym, Vec<Term>),
}

/// A formula over terms.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// Truth.
    True,
    /// Falsity.
    False,
    /// Boolean variable.
    BVar(Sym),
    /// Equality of terms.
    Eq(Term, Term),
    /// `a <= b`.
    Le(Term, Term),
    /// `a < b`.
    Lt(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// N-ary conjunction.
    And(Vec<Formula>),
    /// N-ary disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
}

// Builder methods deliberately use the term language's operator names
// (`add`, `neg`, ...) rather than implementing the std::ops traits: they
// build proof terms, not values.
#[allow(clippy::should_implement_trait)]
impl Term {
    /// Integer constant.
    pub fn int(v: impl Into<BigInt>) -> Term {
        Term::Const(v.into())
    }

    /// Variable.
    pub fn var(name: impl Into<Sym>) -> Term {
        Term::Var(name.into())
    }

    /// `2^self` (clamped at 0).
    pub fn pow2(e: Term) -> Term {
        Term::Pow2(Box::new(e))
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Term) -> Term {
        Term::Add(vec![self, rhs])
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Term) -> Term {
        Term::Add(vec![self, Term::Mul(vec![Term::int(-1), rhs])])
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Term) -> Term {
        Term::Mul(vec![self, rhs])
    }

    /// Flooring `self / rhs`.
    pub fn div(self, rhs: Term) -> Term {
        Term::Div(Box::new(self), Box::new(rhs))
    }

    /// Flooring `self % rhs`.
    pub fn imod(self, rhs: Term) -> Term {
        Term::Mod(Box::new(self), Box::new(rhs))
    }

    /// `-self`.
    pub fn neg(self) -> Term {
        Term::Mul(vec![Term::int(-1), self])
    }

    /// `self == rhs`.
    pub fn eq(self, rhs: Term) -> Formula {
        Formula::Eq(self, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Term) -> Formula {
        Formula::Le(self, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Term) -> Formula {
        Formula::Lt(self, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Term) -> Formula {
        Formula::Le(rhs, self)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Term) -> Formula {
        Formula::Lt(rhs, self)
    }

    /// Free variables (integer and boolean, from embedded formulas).
    pub fn free_vars(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<Sym>) {
        match self {
            Term::Const(_) => {}
            Term::Var(v) => {
                out.insert(v.clone());
            }
            Term::Add(ts) | Term::Mul(ts) | Term::App(_, ts) => {
                for t in ts {
                    t.collect_vars(out);
                }
            }
            Term::Div(a, b) | Term::Mod(a, b) | Term::BitAnd(a, b) | Term::BitOr(a, b)
            | Term::BitXor(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Term::Pow2(a) => a.collect_vars(out),
            Term::Ite(c, t, f) => {
                c.collect_vars(out);
                t.collect_vars(out);
                f.collect_vars(out);
            }
        }
    }

    /// Rebuilds this node with `term` applied to each child term, left to
    /// right, and `formula` to an `Ite` condition (before its branches).
    /// The one structural recursion of the rewrites: each caller matches
    /// its special cases and hands every other node here.
    pub(crate) fn map_children(
        &self,
        mut term: impl FnMut(&Term) -> Term,
        mut formula: impl FnMut(&Formula) -> Formula,
    ) -> Term {
        match self {
            Term::Const(_) | Term::Var(_) => self.clone(),
            Term::Add(ts) => Term::Add(ts.iter().map(term).collect()),
            Term::Mul(ts) => Term::Mul(ts.iter().map(term).collect()),
            Term::App(f, ts) => Term::App(f.clone(), ts.iter().map(term).collect()),
            Term::Div(a, b) => Term::Div(Box::new(term(a)), Box::new(term(b))),
            Term::Mod(a, b) => Term::Mod(Box::new(term(a)), Box::new(term(b))),
            Term::BitAnd(a, b) => Term::BitAnd(Box::new(term(a)), Box::new(term(b))),
            Term::BitOr(a, b) => Term::BitOr(Box::new(term(a)), Box::new(term(b))),
            Term::BitXor(a, b) => Term::BitXor(Box::new(term(a)), Box::new(term(b))),
            Term::Pow2(a) => Term::Pow2(Box::new(term(a))),
            Term::Ite(c, a, b) => Term::Ite(Box::new(formula(c)), Box::new(term(a)), Box::new(term(b))),
        }
    }

    /// Simultaneous substitution of integer variables.
    pub fn subst(&self, map: &BTreeMap<Sym, Term>) -> Term {
        match self {
            Term::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            _ => self.map_children(|t| t.subst(map), |f| f.subst(map)),
        }
    }

    /// Concrete evaluation under an integer/bool assignment (for testing
    /// lemmas and VCs against random instances).
    ///
    /// Returns `None` if a variable or application is unresolved.
    pub fn eval(&self, env: &BTreeMap<Sym, BigInt>, benv: &BTreeMap<Sym, bool>) -> Option<BigInt> {
        Some(match self {
            Term::Const(c) => c.clone(),
            Term::Var(v) => env.get(v)?.clone(),
            Term::Add(ts) => {
                let mut acc = BigInt::zero();
                for t in ts {
                    acc += &t.eval(env, benv)?;
                }
                acc
            }
            Term::Mul(ts) => {
                let mut acc = BigInt::one();
                for t in ts {
                    acc *= &t.eval(env, benv)?;
                }
                acc
            }
            Term::Div(a, b) => {
                let (a, b) = (a.eval(env, benv)?, b.eval(env, benv)?);
                if b.is_zero() {
                    BigInt::zero()
                } else {
                    a.div_floor(&b)
                }
            }
            Term::Mod(a, b) => {
                let (a, b) = (a.eval(env, benv)?, b.eval(env, benv)?);
                if b.is_zero() {
                    a
                } else {
                    a.mod_floor(&b)
                }
            }
            Term::Pow2(e) => {
                let e = e.eval(env, benv)?;
                if e.is_negative() {
                    BigInt::one()
                } else {
                    BigInt::pow2(u64::try_from(&e).ok()?)
                }
            }
            Term::BitAnd(a, b) | Term::BitOr(a, b) | Term::BitXor(a, b) => {
                let (x, y) = (a.eval(env, benv)?, b.eval(env, benv)?);
                if x.is_negative() || y.is_negative() {
                    return None; // bitwise semantics are defined on naturals
                }
                match self {
                    Term::BitAnd(..) => x & y,
                    Term::BitOr(..) => x | y,
                    _ => x ^ y,
                }
            }
            Term::Ite(c, t, f) => {
                if c.eval(env, benv)? {
                    t.eval(env, benv)?
                } else {
                    f.eval(env, benv)?
                }
            }
            Term::App(..) => return None,
        })
    }

    /// Number of AST nodes — the size measure reported to telemetry for
    /// generated verification conditions.
    pub fn node_count(&self) -> usize {
        match self {
            Term::Const(_) | Term::Var(_) => 1,
            Term::Add(ts) | Term::Mul(ts) | Term::App(_, ts) => {
                1 + ts.iter().map(Term::node_count).sum::<usize>()
            }
            Term::Div(a, b)
            | Term::Mod(a, b)
            | Term::BitAnd(a, b)
            | Term::BitOr(a, b)
            | Term::BitXor(a, b) => 1 + a.node_count() + b.node_count(),
            Term::Pow2(a) => 1 + a.node_count(),
            Term::Ite(c, t, f) => 1 + c.node_count() + t.node_count() + f.node_count(),
        }
    }
}

#[allow(clippy::should_implement_trait)]
impl Formula {
    /// N-ary conjunction, flattening trivial cases.
    pub fn and_all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let fs: Vec<Formula> = fs.into_iter().filter(|f| *f != Formula::True).collect();
        match fs.len() {
            0 => Formula::True,
            1 => fs.into_iter().next().expect("len checked"),
            _ => Formula::And(fs),
        }
    }

    /// `self && rhs`.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::and_all([self, rhs])
    }

    /// `self || rhs`.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(vec![self, rhs])
    }

    /// `!self`.
    pub fn not(self) -> Formula {
        match self {
            Formula::Not(f) => *f,
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            f => Formula::Not(Box::new(f)),
        }
    }

    /// `self ==> rhs`.
    pub fn implies(self, rhs: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(rhs))
    }

    /// Free variables.
    pub fn free_vars(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    pub(crate) fn collect_vars(&self, out: &mut BTreeSet<Sym>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::BVar(v) => {
                out.insert(v.clone());
            }
            Formula::Eq(a, b) | Formula::Le(a, b) | Formula::Lt(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Formula::Not(f) => f.collect_vars(out),
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
            Formula::Implies(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Rebuilds this node with `term` applied to each child term and
    /// `formula` to each child formula, left to right.
    pub(crate) fn map_children(
        &self,
        mut term: impl FnMut(&Term) -> Term,
        mut formula: impl FnMut(&Formula) -> Formula,
    ) -> Formula {
        match self {
            Formula::True | Formula::False | Formula::BVar(_) => self.clone(),
            Formula::Eq(a, b) => Formula::Eq(term(a), term(b)),
            Formula::Le(a, b) => Formula::Le(term(a), term(b)),
            Formula::Lt(a, b) => Formula::Lt(term(a), term(b)),
            Formula::Not(f) => Formula::Not(Box::new(formula(f))),
            Formula::And(fs) => Formula::And(fs.iter().map(formula).collect()),
            Formula::Or(fs) => Formula::Or(fs.iter().map(formula).collect()),
            Formula::Implies(a, b) => Formula::Implies(Box::new(formula(a)), Box::new(formula(b))),
        }
    }

    /// Simultaneous substitution of integer variables.
    pub fn subst(&self, map: &BTreeMap<Sym, Term>) -> Formula {
        self.map_children(|t| t.subst(map), |f| f.subst(map))
    }

    /// Substitution of boolean variables by formulas. Terms are kept as
    /// they are, `Ite` conditions included.
    pub fn subst_bool(&self, map: &BTreeMap<Sym, Formula>) -> Formula {
        match self {
            Formula::BVar(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            _ => self.map_children(Term::clone, |f| f.subst_bool(map)),
        }
    }

    /// Concrete evaluation (for testing).
    pub fn eval(&self, env: &BTreeMap<Sym, BigInt>, benv: &BTreeMap<Sym, bool>) -> Option<bool> {
        Some(match self {
            Formula::True => true,
            Formula::False => false,
            Formula::BVar(v) => *benv.get(v)?,
            Formula::Eq(a, b) => a.eval(env, benv)? == b.eval(env, benv)?,
            Formula::Le(a, b) => a.eval(env, benv)? <= b.eval(env, benv)?,
            Formula::Lt(a, b) => a.eval(env, benv)? < b.eval(env, benv)?,
            Formula::Not(f) => !f.eval(env, benv)?,
            Formula::And(fs) => {
                for f in fs {
                    if !f.eval(env, benv)? {
                        return Some(false);
                    }
                }
                true
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.eval(env, benv)? {
                        return Some(true);
                    }
                }
                false
            }
            Formula::Implies(a, b) => !a.eval(env, benv)? || b.eval(env, benv)?,
        })
    }

    /// Number of AST nodes (terms included) — see [`Term::node_count`].
    pub fn node_count(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::BVar(_) => 1,
            Formula::Eq(a, b) | Formula::Le(a, b) | Formula::Lt(a, b) => {
                1 + a.node_count() + b.node_count()
            }
            Formula::Not(f) => 1 + f.node_count(),
            Formula::And(fs) | Formula::Or(fs) => {
                1 + fs.iter().map(Formula::node_count).sum::<usize>()
            }
            Formula::Implies(a, b) => 1 + a.node_count() + b.node_count(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(c) => write!(f, "{c}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Add(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Term::Mul(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Term::Div(a, b) => write!(f, "({a} / {b})"),
            Term::Mod(a, b) => write!(f, "({a} % {b})"),
            Term::Pow2(e) => write!(f, "Pow2({e})"),
            Term::BitAnd(a, b) => write!(f, "({a} & {b})"),
            Term::BitOr(a, b) => write!(f, "({a} | {b})"),
            Term::BitXor(a, b) => write!(f, "({a} ^ {b})"),
            Term::Ite(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            Term::App(name, args) => {
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

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::BVar(v) => write!(f, "{v}"),
            Formula::Eq(a, b) => write!(f, "{a} == {b}"),
            Formula::Le(a, b) => write!(f, "{a} <= {b}"),
            Formula::Lt(a, b) => write!(f, "{a} < {b}"),
            Formula::Not(x) => write!(f, "!({x})"),
            Formula::And(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Formula::Or(fs) => {
                write!(f, "(")?;
                for (i, x) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Formula::Implies(a, b) => write!(f, "({a} ==> {b})"),
        }
    }
}

impl fmt::Debug for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: i64) -> Term {
        Term::int(v)
    }

    #[test]
    fn eval_floor_semantics() {
        let env = BTreeMap::new();
        let benv = BTreeMap::new();
        // (-7) / 2 = -4, (-7) % 2 = 1 (floor semantics).
        assert_eq!(t(-7).div(t(2)).eval(&env, &benv), Some(BigInt::from(-4)));
        assert_eq!(t(-7).imod(t(2)).eval(&env, &benv), Some(BigInt::from(1)));
        // Division by zero conventions.
        assert_eq!(t(5).div(t(0)).eval(&env, &benv), Some(BigInt::zero()));
        assert_eq!(t(5).imod(t(0)).eval(&env, &benv), Some(BigInt::from(5)));
        // Pow2 clamps below zero.
        assert_eq!(Term::pow2(t(-3)).eval(&env, &benv), Some(BigInt::one()));
        assert_eq!(Term::pow2(t(10)).eval(&env, &benv), Some(BigInt::from(1024)));
    }

    #[test]
    fn subst_and_free_vars() {
        let e = Term::var("x").add(Term::var("y").mul(Term::pow2(Term::var("x"))));
        assert_eq!(
            e.free_vars().into_iter().collect::<Vec<_>>(),
            vec!["x".to_string(), "y".to_string()]
        );
        let m: BTreeMap<Sym, Term> = [("x".to_string(), t(3))].into_iter().collect();
        let s = e.subst(&m);
        let env: BTreeMap<Sym, BigInt> = [("y".to_string(), BigInt::from(2))].into_iter().collect();
        assert_eq!(s.eval(&env, &BTreeMap::new()), Some(BigInt::from(19)));
    }

    #[test]
    fn formula_eval() {
        let env: BTreeMap<Sym, BigInt> =
            [("a".to_string(), BigInt::from(5))].into_iter().collect();
        let f = Term::var("a").ge(t(0)).and(Term::var("a").lt(t(10)));
        assert_eq!(f.eval(&env, &BTreeMap::new()), Some(true));
        let g = Term::var("a").eq(t(6));
        assert_eq!(g.eval(&env, &BTreeMap::new()), Some(false));
    }

    #[test]
    fn and_all_flattens() {
        assert_eq!(Formula::and_all([]), Formula::True);
        assert_eq!(Formula::and_all([Formula::True, Formula::False]), Formula::False);
    }

    #[test]
    fn display() {
        let e = Term::var("R").div(Term::pow2(Term::var("w").sub(Term::var("c"))));
        assert_eq!(e.to_string(), "(R / Pow2((w + (-1 * c))))");
    }
}
