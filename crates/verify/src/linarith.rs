//! Linear integer arithmetic over opaque atoms: Fourier–Motzkin
//! elimination with integer tightening and Gaussian substitution.
//!
//! Constraints have the form `Σ cᵢ·xᵢ + k ≥ 0` over atom indices; strict
//! inequalities are pre-converted (`> 0` becomes `≥ 1`) since all atoms are
//! integers. Every [`LinCon`] interns to a [`ConId`], and [`refute_ids`]
//! reports whether a system of them is unsatisfiable; proving a goal means
//! refuting its negation together with the hypotheses.
//!
//! One elimination routine runs over two coefficient types: checked `i128`,
//! where an overflow gives up, and [`BigInt`], which never overflows. A
//! system runs over `i128` and is rerun over exact integers when one of its
//! constraints does not fit `i128` or a combination overflows, so the
//! verdict does not depend on the size of the numbers.

use chicala_bigint::BigInt;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

/// A linear constraint `Σ coeffs[i]·atom_i + constant ≥ 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinCon {
    /// Non-zero coefficients per atom index.
    pub coeffs: BTreeMap<usize, BigInt>,
    /// The constant offset.
    pub constant: BigInt,
}

/// Outcome of a refutation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refutation {
    /// The constraints are unsatisfiable over the integers (goal proved).
    Unsat,
    /// No contradiction was found (Fourier–Motzkin is complete over the
    /// rationals, so a rational model exists; over the integers this is
    /// "unknown" in rare corner cases).
    Unknown,
    /// The search exceeded its budget.
    Overflow,
}

/// Calls to [`refute_ids`] so far in this process. A proved VC's count is
/// the kernel-search fingerprint that tests pin and the benchmark reports.
pub static REFUTE_CALLS: AtomicU64 = AtomicU64::new(0);
/// Total microseconds spent inside [`refute_ids`].
pub static REFUTE_MICROS: AtomicU64 = AtomicU64::new(0);

/// Coefficient arithmetic for the elimination: checked `i128`, where an
/// overflow answers `None`, and [`BigInt`], which never overflows.
trait Coeff: Clone + Ord + Hash {
    fn zero() -> Self;
    fn one() -> Self;
    fn checked_add(&self, rhs: &Self) -> Option<Self>;
    fn checked_mul(&self, rhs: &Self) -> Option<Self>;
    fn checked_neg(&self) -> Option<Self>;
    /// Flooring quotient by a positive divisor.
    fn div_floor(&self, d: &Self) -> Self;
    /// Flooring remainder by a positive divisor.
    fn mod_floor(&self, d: &Self) -> Self;
}

impl Coeff for i128 {
    fn zero() -> i128 {
        0
    }
    fn one() -> i128 {
        1
    }
    fn checked_add(&self, rhs: &i128) -> Option<i128> {
        i128::checked_add(*self, *rhs)
    }
    fn checked_mul(&self, rhs: &i128) -> Option<i128> {
        i128::checked_mul(*self, *rhs)
    }
    fn checked_neg(&self) -> Option<i128> {
        i128::checked_neg(*self)
    }
    fn div_floor(&self, d: &i128) -> i128 {
        self.div_euclid(*d)
    }
    fn mod_floor(&self, d: &i128) -> i128 {
        self.rem_euclid(*d)
    }
}

impl Coeff for BigInt {
    fn zero() -> BigInt {
        BigInt::zero()
    }
    fn one() -> BigInt {
        BigInt::one()
    }
    fn checked_add(&self, rhs: &BigInt) -> Option<BigInt> {
        Some(self + rhs)
    }
    fn checked_mul(&self, rhs: &BigInt) -> Option<BigInt> {
        Some(self * rhs)
    }
    fn checked_neg(&self) -> Option<BigInt> {
        Some(-self)
    }
    fn div_floor(&self, d: &BigInt) -> BigInt {
        BigInt::div_floor(self, d)
    }
    fn mod_floor(&self, d: &BigInt) -> BigInt {
        BigInt::mod_floor(self, d)
    }
}

fn is_neg<C: Coeff>(c: &C) -> bool {
    *c < C::zero()
}

fn abs<C: Coeff>(c: &C) -> Option<C> {
    if is_neg(c) {
        c.checked_neg()
    } else {
        Some(c.clone())
    }
}

/// Greatest common divisor of two non-negative numbers.
fn gcd<C: Coeff>(mut a: C, mut b: C) -> C {
    while b != C::zero() {
        let r = a.mod_floor(&b);
        a = b;
        b = r;
    }
    a
}

/// A constraint `Σ coeffs·x + k >= 0` over one coefficient type, its
/// coefficients sorted by variable.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Con<C> {
    coeffs: Vec<(usize, C)>,
    k: C,
}

impl<C: Coeff> Con<C> {
    fn coeff(&self, var: usize) -> Option<&C> {
        self.coeffs.iter().find(|(v, _)| *v == var).map(|(_, c)| c)
    }

    fn is_trivially_true(&self) -> bool {
        self.coeffs.is_empty() && !is_neg(&self.k)
    }

    fn is_trivially_false(&self) -> bool {
        self.coeffs.is_empty() && is_neg(&self.k)
    }

    /// Divides through by the gcd of the coefficients, flooring the
    /// constant — sound for integer solutions and strictly tightening.
    fn tighten(&mut self) -> Option<()> {
        let mut g = C::zero();
        for (_, c) in &self.coeffs {
            g = gcd(g, abs(c)?);
        }
        if g > C::one() {
            for (_, c) in &mut self.coeffs {
                *c = c.div_floor(&g);
            }
            self.k = self.k.div_floor(&g);
        }
        Some(())
    }
}

/// `ca*a + cb*b` over coefficient vectors sorted by variable, dropping
/// `skip` and zero results; `None` on overflow. This is the inner loop of
/// both Fourier–Motzkin combination and Gaussian substitution — a linear
/// merge instead of a per-pair map build.
fn merge2<C: Coeff>(
    a: &[(usize, C)],
    ca: &C,
    b: &[(usize, C)],
    cb: &C,
    skip: usize,
) -> Option<Vec<(usize, C)>> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let (v, c) = match (a.get(i), b.get(j)) {
            (Some((x, p)), Some((y, q))) if x == y => {
                i += 1;
                j += 1;
                (*x, p.checked_mul(ca)?.checked_add(&q.checked_mul(cb)?)?)
            }
            (Some((x, p)), Some((y, _))) if x < y => {
                i += 1;
                (*x, p.checked_mul(ca)?)
            }
            (Some((x, p)), None) => {
                i += 1;
                (*x, p.checked_mul(ca)?)
            }
            (_, Some((y, q))) => {
                j += 1;
                (*y, q.checked_mul(cb)?)
            }
            (None, None) => unreachable!("loop condition"),
        };
        if v != skip && c != C::zero() {
            out.push((v, c));
        }
    }
    Some(out)
}

/// Gaussian substitution of implied equalities: whenever both `p >= 0` and
/// `-p >= 0` are present and some variable's coefficient in `p` divides all
/// the others and the constant, that variable is eliminated *exactly* —
/// this is what lets integer-only (parity-style) contradictions surface
/// through the subsequent gcd tightening, where rational elimination alone
/// would report a model.
fn gauss_substitute<C: Coeff>(cons: &mut Vec<Con<C>>) -> Option<()> {
    loop {
        // Find an equality pair (a constraint whose negation is also
        // present). Keys borrow from the constraints — no per-row clones.
        let mut eq_idx: Option<usize> = None;
        {
            let mut seen: HashSet<(&[(usize, C)], &C)> = HashSet::with_capacity(cons.len());
            let mut neg_buf: Vec<(usize, C)> = Vec::new();
            for (i, c) in cons.iter().enumerate() {
                if c.coeffs.is_empty() {
                    continue;
                }
                neg_buf.clear();
                for (v, k) in &c.coeffs {
                    neg_buf.push((*v, k.checked_neg()?));
                }
                if seen.contains(&(&neg_buf[..], &c.k.checked_neg()?)) {
                    eq_idx = Some(i);
                    break;
                }
                seen.insert((&c.coeffs[..], &c.k));
            }
        }
        let Some(i) = eq_idx else { return Some(()) };
        let eq = cons[i].clone();
        // Pick a variable whose coefficient divides everything. Without
        // one, leave the pair to the plain elimination, which still sees
        // the equality.
        let mut pivot = None;
        for (var, a) in &eq.coeffs {
            let m = abs(a)?;
            let divides = |c: &C| c.mod_floor(&m) == C::zero();
            if divides(&eq.k) && eq.coeffs.iter().all(|(_, c)| divides(c)) {
                pivot = Some((*var, is_neg(a), m));
                break;
            }
        }
        let Some((var, a_neg, m)) = pivot else { return Some(()) };
        // var = -(k + sum others) / a, each quotient exact.
        let minus_over_a = |c: &C| -> Option<C> {
            let q = c.div_floor(&m);
            if a_neg {
                Some(q)
            } else {
                q.checked_neg()
            }
        };
        let subst: Vec<(usize, C)> = eq
            .coeffs
            .iter()
            .filter(|(v, _)| *v != var)
            .map(|(v, c)| Some((*v, minus_over_a(c)?)))
            .collect::<Option<_>>()?;
        let subst_k = minus_over_a(&eq.k)?;
        let mut out = Vec::with_capacity(cons.len());
        for c in cons.drain(..) {
            let Some(d) = c.coeff(var).cloned() else {
                out.push(c);
                continue;
            };
            // Replace d*var by d*(subst + subst_k): a sorted two-way merge
            // of `c.coeffs` (minus `var`) with `d * subst`.
            let coeffs = merge2(&c.coeffs, &C::one(), &subst, &d, var)?;
            let k = c.k.checked_add(&subst_k.checked_mul(&d)?)?;
            let mut nc = Con { coeffs, k };
            nc.tighten()?;
            if !nc.is_trivially_true() {
                out.push(nc);
            }
        }
        *cons = out;
        cons.sort();
        cons.dedup();
        if cons.iter().any(Con::is_trivially_false) {
            // Leave the contradiction for the caller's check.
            return Some(());
        }
    }
}

/// Fourier–Motzkin over one coefficient type; `None` on `i128` overflow
/// (the caller reruns the system over [`BigInt`]).
fn eliminate<C: Coeff>(mut cons: Vec<Con<C>>, budget: usize) -> Option<Refutation> {
    for c in &mut cons {
        c.tighten()?;
    }
    cons.sort();
    cons.dedup();
    gauss_substitute(&mut cons)?;
    loop {
        cons.retain(|c| !c.is_trivially_true());
        if cons.iter().any(Con::is_trivially_false) {
            return Some(Refutation::Unsat);
        }
        // Pick the variable minimising the pos*neg product; one-sided
        // variables (product 0) are free to eliminate — their constraints
        // are simply dropped.
        let mut counts: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for c in &cons {
            for (v, coef) in &c.coeffs {
                let e = counts.entry(*v).or_insert((0, 0));
                if is_neg(coef) {
                    e.1 += 1;
                } else {
                    e.0 += 1;
                }
            }
        }
        let Some((&var, _)) = counts.iter().min_by_key(|(_, (p, n))| (p * n, p + n)) else {
            return Some(Refutation::Unknown);
        };
        let (mut pos, mut neg, mut rest) = (Vec::new(), Vec::new(), Vec::new());
        for c in cons {
            match c.coeff(var) {
                None => rest.push(c),
                Some(k) if is_neg(k) => neg.push(c),
                Some(_) => pos.push(c),
            }
        }
        if pos.len() * neg.len() + rest.len() > budget {
            return Some(Refutation::Overflow);
        }
        for p in &pos {
            let a = p.coeff(var).expect("pos");
            for n in &neg {
                let b = n.coeff(var).expect("neg").checked_neg()?;
                // b*p + a*n eliminates var: sorted two-way merge, no maps.
                let coeffs = merge2(&p.coeffs, &b, &n.coeffs, a, var)?;
                let k = p.k.checked_mul(&b)?.checked_add(&n.k.checked_mul(a)?)?;
                let mut combined = Con { coeffs, k };
                combined.tighten()?;
                if !combined.is_trivially_true() {
                    rest.push(combined);
                }
            }
        }
        cons = rest;
        cons.sort();
        cons.dedup();
        if cons.is_empty() {
            return Some(Refutation::Unknown);
        }
        if cons.len() > budget {
            return Some(Refutation::Overflow);
        }
    }
}

/// An interned constraint: its `i128` form when every number fits, its
/// exact form when one does not.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Stored {
    Fast(Con<i128>),
    Exact(Con<BigInt>),
}

impl Stored {
    fn exact(&self) -> Con<BigInt> {
        match self {
            Stored::Fast(c) => Con {
                coeffs: c.coeffs.iter().map(|&(v, k)| (v, BigInt::from(k))).collect(),
                k: BigInt::from(c.k),
            },
            Stored::Exact(c) => c.clone(),
        }
    }
}

/// Hash-consed constraints plus the refutation memo keyed by their ids.
/// The two are cleared together (memo entries reference store ids).
#[derive(Default)]
struct ConStore {
    cons: Vec<Stored>,
    index: HashMap<Stored, u32>,
    memo: HashMap<(usize, Vec<u32>), Refutation>,
}

impl ConStore {
    fn intern(&mut self, c: &LinCon) -> u32 {
        let fast = c
            .coeffs
            .iter()
            .map(|(&v, k)| i128::try_from(k).ok().map(|k| (v, k)))
            .collect::<Option<Vec<(usize, i128)>>>()
            .zip(i128::try_from(&c.constant).ok());
        let stored = match fast {
            Some((coeffs, k)) => Stored::Fast(Con { coeffs, k }),
            None => Stored::Exact(Con {
                coeffs: c.coeffs.iter().map(|(&v, k)| (v, k.clone())).collect(),
                k: c.constant.clone(),
            }),
        };
        if let Some(&id) = self.index.get(&stored) {
            return id;
        }
        let id = self.cons.len() as u32;
        self.cons.push(stored.clone());
        self.index.insert(stored, id);
        id
    }

    /// Solves a canonicalised (sorted, deduped) id system: over `i128`
    /// when every constraint fits, and over exact integers when one does
    /// not or the `i128` run overflows.
    fn solve(&self, ids: &[u32], budget: usize) -> Refutation {
        let fast: Option<Vec<Con<i128>>> = ids
            .iter()
            .map(|&i| match &self.cons[i as usize] {
                Stored::Fast(c) => Some(c.clone()),
                Stored::Exact(_) => None,
            })
            .collect();
        if let Some(r) = fast.and_then(|cons| eliminate(cons, budget)) {
            return r;
        }
        let exact = ids.iter().map(|&i| self.cons[i as usize].exact()).collect();
        eliminate(exact, budget).expect("exact integers never overflow")
    }
}

thread_local! {
    static STORE: std::cell::RefCell<ConStore> = std::cell::RefCell::new(ConStore::default());
}

/// Opaque handle to a hash-consed constraint in the thread-local store.
/// Holders must not outlive a [`gc_checkpoint`] reset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConId(u32);

/// Interns a constraint: its `i128` form when every number fits, its exact
/// form otherwise.
pub fn intern_con(c: &LinCon) -> ConId {
    STORE.with(|s| ConId(s.borrow_mut().intern(c)))
}

/// Attempts to refute the conjunction of the interned constraints `ids`
/// over the integers.
///
/// `budget` caps the number of constraints an elimination step may hold
/// (Fourier–Motzkin can blow up quadratically per eliminated variable).
/// This is the hot probe path: the kernel interns each constraint once per
/// proof case and poses thousands of overlapping prefix systems against
/// the same ids, so a system is identified by its sorted id set and the
/// answer for one of 16 or more constraints is memoised, whichever
/// coefficient type produced it.
pub fn refute_ids(ids: &[ConId], budget: usize) -> Refutation {
    let start = std::time::Instant::now();
    let mut key: Vec<u32> = ids.iter().map(|c| c.0).collect();
    key.sort_unstable();
    key.dedup();
    // Small systems are cheaper to solve than to memoise.
    let memoise = key.len() >= 16;
    let r = STORE.with(|s| {
        if memoise {
            if let Some(&r) = s.borrow().memo.get(&(budget, key.clone())) {
                return r;
            }
        }
        let r = s.borrow().solve(&key, budget);
        if memoise {
            let mut s = s.borrow_mut();
            // Bound memo growth inline (always safe — only caching is
            // lost); the store itself is only reset at gc checkpoints,
            // where no ids are held.
            if s.memo.len() > 400_000 {
                s.memo.clear();
            }
            s.memo.insert((budget, key), r);
        }
        r
    });
    REFUTE_CALLS.fetch_add(1, Ordering::Relaxed);
    REFUTE_MICROS.fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
    r
}

/// Clears the constraint store (and the memo, whose keys reference it)
/// once oversized. Only call from points where no [`ConId`] is held —
/// a reset remaps ids.
pub fn gc_checkpoint() {
    STORE.with(|s| {
        let mut s = s.borrow_mut();
        if s.cons.len() > 400_000 || s.memo.len() > 400_000 {
            *s = ConStore::default();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn con(coeffs: &[(usize, i128)], k: i128) -> LinCon {
        LinCon {
            coeffs: coeffs
                .iter()
                .filter(|(_, c)| *c != 0)
                .map(|(v, c)| (*v, BigInt::from(*c)))
                .collect(),
            constant: BigInt::from(k),
        }
    }

    fn refute(cons: &[LinCon], budget: usize) -> Refutation {
        let ids: Vec<ConId> = cons.iter().map(intern_con).collect();
        refute_ids(&ids, budget)
    }

    fn is_exact(c: &LinCon) -> bool {
        let id = intern_con(c);
        STORE.with(|s| matches!(s.borrow().cons[id.0 as usize], Stored::Exact(_)))
    }

    /// Checks `cons` and the equivalent system with every constraint
    /// multiplied by 2^130, which cannot intern as `i128`: both must give
    /// `want`.
    fn check(cons: &[LinCon], budget: usize, want: Refutation) {
        assert_eq!(refute(cons, budget), want, "i128 scale");
        let scale = BigInt::pow2(130);
        let scaled: Vec<LinCon> = cons
            .iter()
            .map(|c| LinCon {
                coeffs: c.coeffs.iter().map(|(&v, k)| (v, k * &scale)).collect(),
                constant: &c.constant * &scale,
            })
            .collect();
        assert!(
            scaled.iter().all(|c| is_exact(c) || *c == con(&[], 0)),
            "every non-zero scaled constraint interns exact"
        );
        assert_eq!(refute(&scaled, budget), want, "2^130 scale");
    }

    #[test]
    fn simple_contradiction() {
        // x >= 3  and  x <= 1  (i.e. -x + 1 >= 0): unsat.
        check(&[con(&[(0, 1)], -3), con(&[(0, -1)], 1)], 1000, Refutation::Unsat);
    }

    #[test]
    fn satisfiable_reports_unknown() {
        // x >= 0 and x <= 5: satisfiable.
        check(&[con(&[(0, 1)], 0), con(&[(0, -1)], 5)], 1000, Refutation::Unknown);
    }

    #[test]
    fn integer_tightening() {
        // 2x >= 1 and 2x <= 1 has the rational solution x = 1/2 but no
        // integer solution; tightening floors the bounds to x >= 1, x <= 0.
        check(&[con(&[(0, 2)], -1), con(&[(0, -2)], 1)], 1000, Refutation::Unsat);
    }

    #[test]
    fn multi_variable_chain() {
        // x <= y, y <= z, z <= x - 1: unsat.
        let cons = [
            con(&[(1, 1), (0, -1)], 0),  // y - x >= 0
            con(&[(2, 1), (1, -1)], 0),  // z - y >= 0
            con(&[(0, 1), (2, -1)], -1), // x - z - 1 >= 0
        ];
        check(&cons, 1000, Refutation::Unsat);
    }

    #[test]
    fn transitive_bound_is_satisfiable() {
        // x <= y, y <= z: fine.
        let cons = [con(&[(1, 1), (0, -1)], 0), con(&[(2, 1), (1, -1)], 0)];
        check(&cons, 1000, Refutation::Unknown);
    }

    #[test]
    fn constant_contradiction() {
        check(&[con(&[], -1)], 10, Refutation::Unsat);
        check(&[con(&[], 0)], 10, Refutation::Unknown);
    }

    #[test]
    fn budget_overflow() {
        // Many interacting inequalities (no equality pairs, so Gaussian
        // substitution cannot collapse them) with a tiny budget.
        let mut cons = Vec::new();
        for i in 0..10usize {
            cons.push(con(&[(0, 1), (i + 1, 1)], -1));
            cons.push(con(&[(0, -1), (i + 1, -2)], 5));
        }
        check(&cons, 3, Refutation::Overflow);
    }

    #[test]
    fn equality_substitution_at_every_scale() {
        // 3x + y = 2 and y = 4 force 3x = -2, which no integer solves.
        // Eliminating x first cancels the first pair outright and leaves
        // y = 4 satisfiable; only substituting the equality finds it.
        let cons = [
            con(&[(0, 3), (1, 1)], -2),
            con(&[(0, -3), (1, -1)], 2),
            con(&[(1, 1)], -4),
            con(&[(1, -1)], 4),
        ];
        check(&cons, 1000, Refutation::Unsat);
    }

    #[test]
    fn overflow_during_elimination_reruns_exact() {
        // A = 2^100 + 1, B = 2^100 - 1 (coprime). Ax - By >= 0 and
        // -Bx + Ay - 1 >= 0 combine to (A^2 - B^2)y - A >= 0, i.e.
        // 2^102·y >= A, so y >= 1 — against -y >= 0. Every constraint fits
        // i128, but the combination's products are about 2^200.
        let a: i128 = (1 << 100) + 1;
        let b: i128 = (1 << 100) - 1;
        let cons = [con(&[(0, a), (1, -b)], 0), con(&[(0, -b), (1, a)], -1), con(&[(1, -1)], 0)];
        assert!(cons.iter().all(|c| !is_exact(c)), "every constraint interns as i128");
        let fast: Vec<Con<i128>> = cons
            .iter()
            .map(|c| Con {
                coeffs: c.coeffs.iter().map(|(&v, k)| (v, i128::try_from(k).unwrap())).collect(),
                k: i128::try_from(&c.constant).unwrap(),
            })
            .collect();
        assert_eq!(eliminate(fast, 1000), None, "the i128 run overflows");
        check(&cons, 1000, Refutation::Unsat);
    }
}
