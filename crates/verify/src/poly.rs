//! Polynomial normalisation: terms are flattened into linear combinations
//! of *monomials* over opaque atoms (variables, divisions, `Pow2`s, bitwise
//! operations, applications).
//!
//! Flooring `Mod` is eliminated entirely (`a % b = a - b*(a / b)`), so the
//! linear-arithmetic core only ever sees `Div` atoms, whose range facts
//! (`0 <= a - b*(a/b) < b` for `b > 0`) the kernel adds automatically.

use crate::term::{Formula, Term};
use chicala_bigint::BigInt;
use std::collections::BTreeMap;

/// A monomial: a sorted multiset of atoms (each atom a canonical [`Term`]).
/// The empty monomial is the constant term.
pub type Monomial = Vec<Term>;

/// A polynomial in normal form: monomials with non-zero coefficients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Poly {
    /// Coefficient per monomial.
    pub terms: BTreeMap<Monomial, BigInt>,
}

/// Error raised when a term cannot be normalised (contains a conditional
/// that must be split first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItePresent(pub Formula);

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly { terms: BTreeMap::new() }
    }

    /// A constant polynomial.
    pub fn constant(c: BigInt) -> Poly {
        let mut terms = BTreeMap::new();
        if !c.is_zero() {
            terms.insert(Vec::new(), c);
        }
        Poly { terms }
    }

    /// A single atom.
    pub fn atom(a: Term) -> Poly {
        let mut terms = BTreeMap::new();
        terms.insert(vec![a], BigInt::one());
        Poly { terms }
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant value, if the polynomial is constant.
    pub fn as_const(&self) -> Option<BigInt> {
        if self.terms.is_empty() {
            return Some(BigInt::zero());
        }
        if self.terms.len() == 1 {
            if let Some(c) = self.terms.get(&Vec::new() as &Monomial) {
                return Some(c.clone());
            }
        }
        None
    }

    /// Adds another polynomial.
    pub fn add(&mut self, other: &Poly) {
        for (m, c) in &other.terms {
            let entry = self.terms.entry(m.clone()).or_insert_with(BigInt::zero);
            *entry += c;
            if entry.is_zero() {
                self.terms.remove(m);
            }
        }
    }

    /// Multiplies by a constant.
    pub fn scale(&mut self, k: &BigInt) {
        if k.is_zero() {
            self.terms.clear();
            return;
        }
        for c in self.terms.values_mut() {
            *c *= k;
        }
    }

    /// Product of two polynomials.
    pub fn mul(&self, other: &Poly) -> Poly {
        let mut out = Poly::zero();
        for (m1, c1) in &self.terms {
            for (m2, c2) in &other.terms {
                let mut m = m1.clone();
                m.extend(m2.iter().cloned());
                m.sort();
                let c = c1 * c2;
                let entry = out.terms.entry(m).or_insert_with(BigInt::zero);
                *entry += &c;
                if entry.is_zero() {
                    let key: Vec<Term> = {
                        let mut k = m1.clone();
                        k.extend(m2.iter().cloned());
                        k.sort();
                        k
                    };
                    out.terms.remove(&key);
                }
            }
        }
        out
    }

    /// Renders back to a canonical term (sum of products, monomials in
    /// normal order).
    pub fn to_term(&self) -> Term {
        if self.terms.is_empty() {
            return Term::int(0);
        }
        let mut parts = Vec::new();
        for (m, c) in &self.terms {
            let mut factors: Vec<Term> = Vec::new();
            if !c.is_one() || m.is_empty() {
                factors.push(Term::Const(c.clone()));
            }
            factors.extend(m.iter().cloned());
            parts.push(if factors.len() == 1 {
                factors.pop().expect("nonempty")
            } else {
                Term::Mul(factors)
            });
        }
        if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Term::Add(parts)
        }
    }
}

/// Normalises a term into a polynomial.
///
/// # Errors
///
/// Returns [`ItePresent`] if the term contains a conditional; callers split
/// conditionals before normalising.
pub fn normalize(t: &Term) -> Result<Poly, ItePresent> {
    Ok(match t {
        Term::Const(c) => Poly::constant(c.clone()),
        Term::Var(_) => Poly::atom(t.clone()),
        Term::Add(ts) => {
            let mut acc = Poly::zero();
            for x in ts {
                acc.add(&normalize(x)?);
            }
            acc
        }
        Term::Mul(ts) => {
            let mut acc = Poly::constant(BigInt::one());
            for x in ts {
                acc = acc.mul(&normalize(x)?);
            }
            acc
        }
        Term::Div(a, b) => {
            let pa = normalize(a)?;
            let pb = normalize(b)?;
            match (pa.as_const(), pb.as_const()) {
                (Some(ca), Some(cb)) if !cb.is_zero() => Poly::constant(ca.div_floor(&cb)),
                (Some(ca), _) if ca.is_zero() => Poly::zero(),
                (_, Some(cb)) if cb.is_one() => pa,
                _ => Poly::atom(Term::Div(Box::new(pa.to_term()), Box::new(pb.to_term()))),
            }
        }
        Term::Mod(a, b) => {
            // a % b = a - b * (a / b): eliminate Mod entirely.
            let pa = normalize(a)?;
            let pb = normalize(b)?;
            match (pa.as_const(), pb.as_const()) {
                (Some(ca), Some(cb)) if !cb.is_zero() => Poly::constant(ca.mod_floor(&cb)),
                (_, Some(cb)) if cb.is_one() => Poly::zero(),
                _ => {
                    let div = normalize(&Term::Div(
                        Box::new(pa.to_term()),
                        Box::new(pb.to_term()),
                    ))?;
                    let mut acc = pa;
                    let mut prod = pb.mul(&div);
                    prod.scale(&BigInt::from(-1));
                    acc.add(&prod);
                    acc
                }
            }
        }
        Term::Pow2(e) => {
            let pe = normalize(e)?;
            match pe.as_const() {
                Some(c) => {
                    if c.is_negative() {
                        Poly::constant(BigInt::one())
                    } else {
                        match u64::try_from(&c) {
                            Ok(exp) if exp <= 1 << 20 => Poly::constant(BigInt::pow2(exp)),
                            _ => Poly::atom(Term::Pow2(Box::new(pe.to_term()))),
                        }
                    }
                }
                None => Poly::atom(Term::Pow2(Box::new(pe.to_term()))),
            }
        }
        Term::BitAnd(a, b) | Term::BitOr(a, b) | Term::BitXor(a, b) => {
            let pa = normalize(a)?;
            let pb = normalize(b)?;
            let fold = |x: &BigInt, y: &BigInt| -> Option<BigInt> {
                if x.is_negative() || y.is_negative() {
                    return None;
                }
                Some(match t {
                    Term::BitAnd(..) => x & y,
                    Term::BitOr(..) => x | y,
                    _ => x ^ y,
                })
            };
            if let (Some(ca), Some(cb)) = (pa.as_const(), pb.as_const()) {
                if let Some(v) = fold(&ca, &cb) {
                    return Ok(Poly::constant(v));
                }
            }
            // Identity/zero simplifications for non-negative semantics.
            match (pa.as_const(), pb.as_const(), t) {
                (Some(c), _, Term::BitAnd(..)) if c.is_zero() => Poly::zero(),
                (_, Some(c), Term::BitAnd(..)) if c.is_zero() => Poly::zero(),
                (Some(c), _, Term::BitOr(..)) | (Some(c), _, Term::BitXor(..)) if c.is_zero() => {
                    pb
                }
                (_, Some(c), Term::BitOr(..)) | (_, Some(c), Term::BitXor(..)) if c.is_zero() => {
                    pa
                }
                _ => {
                    let (ta, tb) = (pa.to_term(), pb.to_term());
                    // Commutative: order operands canonically.
                    let (x, y) = if ta <= tb { (ta, tb) } else { (tb, ta) };
                    Poly::atom(match t {
                        Term::BitAnd(..) => Term::BitAnd(Box::new(x), Box::new(y)),
                        Term::BitOr(..) => Term::BitOr(Box::new(x), Box::new(y)),
                        _ => Term::BitXor(Box::new(x), Box::new(y)),
                    })
                }
            }
        }
        Term::Ite(c, _, _) => return Err(ItePresent((**c).clone())),
        Term::App(f, args) => {
            let nargs = args
                .iter()
                .map(|a| Ok(normalize(a)?.to_term()))
                .collect::<Result<Vec<_>, ItePresent>>()?;
            Poly::atom(Term::App(f.clone(), nargs))
        }
    })
}

/// Finds the first conditional's condition anywhere in a formula, for
/// case splitting.
pub fn find_ite(f: &Formula) -> Option<Formula> {
    fn in_term(t: &Term) -> Option<Formula> {
        match t {
            Term::Ite(c, a, b) => {
                // Split innermost conditions first so guards on nested
                // branches are resolved in a bounded number of rounds.
                in_formula(c).or_else(|| in_term(a)).or_else(|| in_term(b)).or(Some((**c).clone()))
            }
            Term::Const(_) | Term::Var(_) => None,
            Term::Add(ts) | Term::Mul(ts) | Term::App(_, ts) => ts.iter().find_map(in_term),
            Term::Div(a, b)
            | Term::Mod(a, b)
            | Term::BitAnd(a, b)
            | Term::BitOr(a, b)
            | Term::BitXor(a, b) => in_term(a).or_else(|| in_term(b)),
            Term::Pow2(a) => in_term(a),
        }
    }
    fn in_formula(f: &Formula) -> Option<Formula> {
        match f {
            Formula::True | Formula::False | Formula::BVar(_) => None,
            Formula::Eq(a, b) | Formula::Le(a, b) | Formula::Lt(a, b) => {
                in_term(a).or_else(|| in_term(b))
            }
            Formula::Not(x) => in_formula(x),
            Formula::And(fs) | Formula::Or(fs) => fs.iter().find_map(in_formula),
            Formula::Implies(a, b) => in_formula(a).or_else(|| in_formula(b)),
        }
    }
    in_formula(f)
}

/// Rewrites a formula assuming condition `c` has truth value `v`: every
/// `Ite` whose condition is syntactically `c` collapses to one branch.
pub fn assume_ite(f: &Formula, c: &Formula, v: bool) -> Formula {
    fn in_term(t: &Term, c: &Formula, v: bool) -> Term {
        match t.map_children(|x| in_term(x, c, v), |x| in_formula(x, c, v)) {
            Term::Ite(cond, a, b) => match *cond {
                _ if *cond == *c => *(if v { a } else { b }),
                Formula::True => *a,
                Formula::False => *b,
                _ => Term::Ite(cond, a, b),
            },
            other => other,
        }
    }
    fn in_formula(f: &Formula, c: &Formula, v: bool) -> Formula {
        if f == c {
            return if v { Formula::True } else { Formula::False };
        }
        f.map_children(|t| in_term(t, c, v), |x| in_formula(x, c, v))
    }
    in_formula(f, c, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term as T;

    fn nz(t: &Term) -> Poly {
        normalize(t).expect("no ite")
    }

    #[test]
    fn ring_identities() {
        // (x + 1)*(x - 1) == x*x - 1
        let x = || T::var("x");
        let lhs = x().add(T::int(1)).mul(x().sub(T::int(1)));
        let rhs = x().mul(x()).sub(T::int(1));
        assert_eq!(nz(&lhs), nz(&rhs));
    }

    #[test]
    fn mod_elimination() {
        // a % b  normalises to  a - b*(a/b)
        let a = || T::var("a");
        let b = || T::var("b");
        let lhs = a().imod(b());
        let rhs = a().sub(b().mul(a().div(b())));
        assert_eq!(nz(&lhs), nz(&rhs));
    }

    #[test]
    fn pow2_constant_folding() {
        assert_eq!(nz(&T::pow2(T::int(6))).as_const(), Some(chicala_bigint::BigInt::from(64)));
        assert_eq!(nz(&T::pow2(T::int(-2))).as_const(), Some(chicala_bigint::BigInt::one()));
        // Pow2(x) stays opaque.
        assert!(nz(&T::pow2(T::var("x"))).as_const().is_none());
    }

    #[test]
    fn div_simplifications() {
        let a = || T::var("a");
        assert_eq!(nz(&a().div(T::int(1))), nz(&a()));
        assert_eq!(nz(&T::int(0).div(a())).as_const(), Some(chicala_bigint::BigInt::zero()));
        assert_eq!(nz(&T::int(-7).div(T::int(2))).as_const(), Some(chicala_bigint::BigInt::from(-4)));
    }

    #[test]
    fn bitop_canonical_order_and_folding() {
        let a = || T::var("a");
        let b = || T::var("b");
        let t1 = T::BitXor(Box::new(a()), Box::new(b()));
        let t2 = T::BitXor(Box::new(b()), Box::new(a()));
        assert_eq!(nz(&t1), nz(&t2));
        let c = T::BitAnd(Box::new(T::int(12)), Box::new(T::int(10)));
        assert_eq!(nz(&c).as_const(), Some(chicala_bigint::BigInt::from(8)));
        let z = T::BitAnd(Box::new(T::int(0)), Box::new(a()));
        assert!(nz(&z).is_zero());
    }

    #[test]
    fn ite_detected() {
        let t = Term::Ite(
            Box::new(T::var("c").eq(T::int(0))),
            Box::new(T::int(1)),
            Box::new(T::int(2)),
        );
        assert!(normalize(&t).is_err());
        let f = T::var("x").eq(t);
        assert_eq!(find_ite(&f), Some(T::var("c").eq(T::int(0))));
        let f_true = assume_ite(&f, &T::var("c").eq(T::int(0)), true);
        assert_eq!(f_true, T::var("x").eq(T::int(1)));
    }

    #[test]
    fn to_term_round_trips() {
        let x = T::var("x").mul(T::var("y")).add(T::int(3)).add(T::var("x"));
        let p = nz(&x);
        assert_eq!(nz(&p.to_term()), p);
    }
}
