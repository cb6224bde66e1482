//! Hash-consed term arena: terms and formulas interned as `Copy`-able
//! `u32` ids with O(1) structural equality and per-node cached metadata.
//!
//! The proof kernel's hot path re-traverses the same terms thousands of
//! times per verification condition — every ite-branch × negated-goal ×
//! saturation-tier combination re-normalises the same hypothesis literals,
//! re-hashes the same atoms into `BTreeMap<Term, _>` caches (deep
//! structural comparisons at every node), and re-walks the same sub-terms
//! collecting `Div`/`Pow2` fact candidates. Interning makes all of those
//! O(1)-per-node:
//!
//! - a term is interned **once** per shape; re-interning an already-seen
//!   tree is a walk with shallow per-node hashing (children are ids, so a
//!   node's hash never recurses);
//! - ids are the keys of every done-set and memo table (`HashMap<TermId,
//!   _>` instead of `BTreeMap<Term, _>`), so cache probes stop deep-cloning
//!   and deep-comparing terms;
//! - [`TermStore::normalize`] memoises polynomial normalisation per id at
//!   **every node** of the term, so shared sub-structure (the common case:
//!   a design's invariant terms appear in most of its VCs' literals) is
//!   normalised exactly once per store lifetime;
//! - per-node metadata (node count, free-variable set) is computed at
//!   intern time and shared.
//!
//! The store is deliberately **not** a replacement for [`Term`]'s derived
//! `Ord`: monomial ordering, rule orientation (`choose_rule_monomial`'s
//! degree-lex maximum) and `BitOp` operand canonicalisation are
//! load-bearing for proof search, so everything order-sensitive still
//! compares structural `Term` values. Ids are used where only equality and
//! hashing matter — which is exactly where the time went.
//!
//! A thread-local store ([`with_store`]) keeps ids meaningful across the
//! whole discharge of a VC while staying `Send`-free: parallel VC discharge
//! gives every worker its own arena, so results cannot depend on scheduling.
//! The same holds within one VC. When the kernel proves a goal's hypothesis
//! cases across the pool's workers, each worker interns the cases it takes
//! into its own arena. The calling thread is one of the workers and keeps
//! its warm arena; a spawned worker's arena is dropped with the worker when
//! the fan-out returns. Ids never cross threads: cases go out as [`Term`]s
//! and come back as verdicts.

use crate::poly::{ItePresent, Poly};
use crate::term::{Formula, Term};
use chicala_bigint::BigInt;
use std::cell::RefCell;
use std::collections::HashMap;

/// Interned symbol (variable or function name).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(u32);

/// Interned term.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

/// Interned formula.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FmlId(u32);

/// A term node with interned children. Structurally isomorphic to
/// [`Term`]; every variant stores ids, so equality and hashing are shallow.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum TNode {
    Const(BigInt),
    Var(SymId),
    Add(Vec<TermId>),
    Mul(Vec<TermId>),
    Div(TermId, TermId),
    Mod(TermId, TermId),
    Pow2(TermId),
    BitAnd(TermId, TermId),
    BitOr(TermId, TermId),
    BitXor(TermId, TermId),
    Ite(FmlId, TermId, TermId),
    App(SymId, Vec<TermId>),
}

/// A formula node with interned children.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum FNode {
    True,
    False,
    BVar(SymId),
    Eq(TermId, TermId),
    Le(TermId, TermId),
    Lt(TermId, TermId),
    Not(FmlId),
    And(Vec<FmlId>),
    Or(Vec<FmlId>),
    Implies(FmlId, FmlId),
}

/// The append-only hash-consing arena.
#[derive(Default)]
pub struct TermStore {
    syms: Vec<String>,
    sym_index: HashMap<String, SymId>,
    terms: Vec<TNode>,
    term_index: HashMap<TNode, TermId>,
    fmls: Vec<FNode>,
    fml_index: HashMap<FNode, FmlId>,
    /// Per-term node count (structural size, matching `Term::node_count`).
    node_count: Vec<u32>,
    /// Per-term sorted free-variable sets (integer and boolean variables,
    /// matching `Term::free_vars` semantics).
    free_vars: Vec<Box<[SymId]>>,
    /// Per-formula node counts (matching `Formula::node_count`).
    fml_node_count: Vec<u32>,
    /// Per-formula sorted free-variable sets.
    fml_free_vars: Vec<Box<[SymId]>>,
    /// Memoised polynomial normal forms per term id (`None` marks a term
    /// containing a conditional, the `ItePresent` error case).
    norm: HashMap<TermId, Result<Poly, ItePresent>>,
}

impl TermStore {
    /// An empty store.
    pub fn new() -> TermStore {
        TermStore::default()
    }

    /// Number of interned term nodes.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the store holds no terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a symbol.
    pub fn sym(&mut self, s: &str) -> SymId {
        if let Some(&id) = self.sym_index.get(s) {
            return id;
        }
        let id = SymId(self.syms.len() as u32);
        self.syms.push(s.to_string());
        self.sym_index.insert(s.to_string(), id);
        id
    }

    /// The string of an interned symbol.
    pub fn sym_str(&self, id: SymId) -> &str {
        &self.syms[id.0 as usize]
    }

    fn intern_tnode(&mut self, node: TNode) -> TermId {
        if let Some(&id) = self.term_index.get(&node) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        let (count, fvs) = self.term_meta(&node);
        self.terms.push(node.clone());
        self.term_index.insert(node, id);
        self.node_count.push(count);
        self.free_vars.push(fvs);
        id
    }

    fn intern_fnode(&mut self, node: FNode) -> FmlId {
        if let Some(&id) = self.fml_index.get(&node) {
            return id;
        }
        let id = FmlId(self.fmls.len() as u32);
        let (count, fvs) = self.fml_meta(&node);
        self.fmls.push(node.clone());
        self.fml_index.insert(node, id);
        self.fml_node_count.push(count);
        self.fml_free_vars.push(fvs);
        id
    }

    /// Node count + free vars for a node whose children are already
    /// interned (children metadata is a lookup, never a recursion).
    fn term_meta(&self, node: &TNode) -> (u32, Box<[SymId]>) {
        let kids: Vec<TermId> = match node {
            TNode::Const(_) => Vec::new(),
            TNode::Var(_) => Vec::new(),
            TNode::Add(ts) | TNode::Mul(ts) | TNode::App(_, ts) => ts.clone(),
            TNode::Div(a, b)
            | TNode::Mod(a, b)
            | TNode::BitAnd(a, b)
            | TNode::BitOr(a, b)
            | TNode::BitXor(a, b) => vec![*a, *b],
            TNode::Pow2(a) => vec![*a],
            TNode::Ite(_, a, b) => vec![*a, *b],
        };
        let mut count: u32 = 1;
        let mut fvs: Vec<SymId> = Vec::new();
        if let TNode::Var(v) = node {
            fvs.push(*v);
        }
        for k in &kids {
            count = count.saturating_add(self.node_count[k.0 as usize]);
            merge_sorted(&mut fvs, &self.free_vars[k.0 as usize]);
        }
        if let TNode::Ite(c, _, _) = node {
            // Ite conditions contribute their variables and their node
            // count, matching `Term::node_count`'s formula traversal.
            count = count.saturating_add(self.fml_node_count[c.0 as usize]);
            merge_sorted(&mut fvs, &self.fml_free_vars[c.0 as usize]);
        }
        (count, fvs.into_boxed_slice())
    }

    fn fml_meta(&self, node: &FNode) -> (u32, Box<[SymId]>) {
        let mut count: u32 = 1;
        let mut fvs: Vec<SymId> = Vec::new();
        match node {
            FNode::True | FNode::False => {}
            FNode::BVar(v) => fvs.push(*v),
            FNode::Eq(a, b) | FNode::Le(a, b) | FNode::Lt(a, b) => {
                for t in [a, b] {
                    count = count.saturating_add(self.node_count[t.0 as usize]);
                    merge_sorted(&mut fvs, &self.free_vars[t.0 as usize]);
                }
            }
            FNode::Not(f) => {
                count = count.saturating_add(self.fml_node_count[f.0 as usize]);
                merge_sorted(&mut fvs, &self.fml_free_vars[f.0 as usize]);
            }
            FNode::And(fs) | FNode::Or(fs) => {
                for f in fs {
                    count = count.saturating_add(self.fml_node_count[f.0 as usize]);
                    merge_sorted(&mut fvs, &self.fml_free_vars[f.0 as usize]);
                }
            }
            FNode::Implies(a, b) => {
                for f in [a, b] {
                    count = count.saturating_add(self.fml_node_count[f.0 as usize]);
                    merge_sorted(&mut fvs, &self.fml_free_vars[f.0 as usize]);
                }
            }
        }
        (count, fvs.into_boxed_slice())
    }

    /// Interns a term, bottom-up. Re-interning a known tree costs a walk
    /// with shallow hashing and allocates nothing.
    pub fn intern_term(&mut self, t: &Term) -> TermId {
        let node = match t {
            Term::Const(c) => TNode::Const(c.clone()),
            Term::Var(v) => {
                let s = self.sym(v);
                TNode::Var(s)
            }
            Term::Add(ts) => TNode::Add(ts.iter().map(|x| self.intern_term(x)).collect()),
            Term::Mul(ts) => TNode::Mul(ts.iter().map(|x| self.intern_term(x)).collect()),
            Term::Div(a, b) => TNode::Div(self.intern_term(a), self.intern_term(b)),
            Term::Mod(a, b) => TNode::Mod(self.intern_term(a), self.intern_term(b)),
            Term::Pow2(e) => TNode::Pow2(self.intern_term(e)),
            Term::BitAnd(a, b) => TNode::BitAnd(self.intern_term(a), self.intern_term(b)),
            Term::BitOr(a, b) => TNode::BitOr(self.intern_term(a), self.intern_term(b)),
            Term::BitXor(a, b) => TNode::BitXor(self.intern_term(a), self.intern_term(b)),
            Term::Ite(c, a, b) => TNode::Ite(
                self.intern_formula(c),
                self.intern_term(a),
                self.intern_term(b),
            ),
            Term::App(f, args) => {
                let fs = self.sym(f);
                TNode::App(fs, args.iter().map(|x| self.intern_term(x)).collect())
            }
        };
        self.intern_tnode(node)
    }

    /// Interns a formula, bottom-up.
    pub fn intern_formula(&mut self, f: &Formula) -> FmlId {
        let node = match f {
            Formula::True => FNode::True,
            Formula::False => FNode::False,
            Formula::BVar(v) => {
                let s = self.sym(v);
                FNode::BVar(s)
            }
            Formula::Eq(a, b) => FNode::Eq(self.intern_term(a), self.intern_term(b)),
            Formula::Le(a, b) => FNode::Le(self.intern_term(a), self.intern_term(b)),
            Formula::Lt(a, b) => FNode::Lt(self.intern_term(a), self.intern_term(b)),
            Formula::Not(x) => FNode::Not(self.intern_formula(x)),
            Formula::And(fs) => FNode::And(fs.iter().map(|x| self.intern_formula(x)).collect()),
            Formula::Or(fs) => FNode::Or(fs.iter().map(|x| self.intern_formula(x)).collect()),
            Formula::Implies(a, b) => {
                FNode::Implies(self.intern_formula(a), self.intern_formula(b))
            }
        };
        self.intern_fnode(node)
    }

    /// Reconstructs the `Term` value of an interned id.
    pub fn term_of(&self, id: TermId) -> Term {
        match &self.terms[id.0 as usize] {
            TNode::Const(c) => Term::Const(c.clone()),
            TNode::Var(v) => Term::Var(self.sym_str(*v).to_string()),
            TNode::Add(ts) => Term::Add(ts.iter().map(|&x| self.term_of(x)).collect()),
            TNode::Mul(ts) => Term::Mul(ts.iter().map(|&x| self.term_of(x)).collect()),
            TNode::Div(a, b) => {
                Term::Div(Box::new(self.term_of(*a)), Box::new(self.term_of(*b)))
            }
            TNode::Mod(a, b) => {
                Term::Mod(Box::new(self.term_of(*a)), Box::new(self.term_of(*b)))
            }
            TNode::Pow2(e) => Term::Pow2(Box::new(self.term_of(*e))),
            TNode::BitAnd(a, b) => {
                Term::BitAnd(Box::new(self.term_of(*a)), Box::new(self.term_of(*b)))
            }
            TNode::BitOr(a, b) => {
                Term::BitOr(Box::new(self.term_of(*a)), Box::new(self.term_of(*b)))
            }
            TNode::BitXor(a, b) => {
                Term::BitXor(Box::new(self.term_of(*a)), Box::new(self.term_of(*b)))
            }
            TNode::Ite(c, a, b) => Term::Ite(
                Box::new(self.formula_of(*c)),
                Box::new(self.term_of(*a)),
                Box::new(self.term_of(*b)),
            ),
            TNode::App(f, args) => Term::App(
                self.sym_str(*f).to_string(),
                args.iter().map(|&x| self.term_of(x)).collect(),
            ),
        }
    }

    /// Reconstructs the `Formula` value of an interned id.
    pub fn formula_of(&self, id: FmlId) -> Formula {
        match &self.fmls[id.0 as usize] {
            FNode::True => Formula::True,
            FNode::False => Formula::False,
            FNode::BVar(v) => Formula::BVar(self.sym_str(*v).to_string()),
            FNode::Eq(a, b) => Formula::Eq(self.term_of(*a), self.term_of(*b)),
            FNode::Le(a, b) => Formula::Le(self.term_of(*a), self.term_of(*b)),
            FNode::Lt(a, b) => Formula::Lt(self.term_of(*a), self.term_of(*b)),
            FNode::Not(f) => Formula::Not(Box::new(self.formula_of(*f))),
            FNode::And(fs) => Formula::And(fs.iter().map(|&f| self.formula_of(f)).collect()),
            FNode::Or(fs) => Formula::Or(fs.iter().map(|&f| self.formula_of(f)).collect()),
            FNode::Implies(a, b) => Formula::Implies(
                Box::new(self.formula_of(*a)),
                Box::new(self.formula_of(*b)),
            ),
        }
    }

    /// Structural node count of an interned term, cached at intern time.
    pub fn node_count(&self, id: TermId) -> u32 {
        self.node_count[id.0 as usize]
    }

    /// Structural node count of an interned formula, cached at intern time
    /// (matches `Formula::node_count`).
    pub fn formula_node_count(&self, id: FmlId) -> u32 {
        self.fml_node_count[id.0 as usize]
    }

    /// Whether `x` occurs free in the interned term (binary search over the
    /// cached, sorted free-variable set).
    pub fn has_free_var(&mut self, id: TermId, x: &str) -> bool {
        let Some(&sx) = self.sym_index.get(x) else { return false };
        self.free_vars[id.0 as usize].binary_search(&sx).is_ok()
    }

    /// Normalises a term to its polynomial form, memoised per node id.
    ///
    /// Exactly mirrors [`crate::poly::normalize`] (same results, including
    /// errors), but repeated sub-structure is looked up instead of
    /// recomputed — across tiers, goal cases, and VCs sharing hypotheses,
    /// this turns the kernel's dominant recomputation into cache hits.
    pub fn normalize(&mut self, t: &Term) -> Result<Poly, ItePresent> {
        let id = self.intern_term(t);
        self.normalize_id(id)
    }

    fn normalize_id(&mut self, id: TermId) -> Result<Poly, ItePresent> {
        if let Some(r) = self.norm.get(&id) {
            return r.clone();
        }
        let node = self.terms[id.0 as usize].clone();
        let r = self.normalize_node(&node);
        self.norm.insert(id, r.clone());
        r
    }

    /// One level of normalisation over an interned node; children recurse
    /// through the memo. The structure mirrors `poly::normalize` case by
    /// case so results are identical.
    fn normalize_node(&mut self, node: &TNode) -> Result<Poly, ItePresent> {
        Ok(match node {
            TNode::Const(c) => Poly::constant(c.clone()),
            TNode::Var(v) => Poly::atom(Term::Var(self.sym_str(*v).to_string())),
            TNode::Add(ts) => {
                let mut acc = Poly::zero();
                for &x in ts {
                    acc.add(&self.normalize_id(x)?);
                }
                acc
            }
            TNode::Mul(ts) => {
                let mut acc = Poly::constant(BigInt::one());
                for &x in ts {
                    acc = acc.mul(&self.normalize_id(x)?);
                }
                acc
            }
            TNode::Div(a, b) => {
                let pa = self.normalize_id(*a)?;
                let pb = self.normalize_id(*b)?;
                match (pa.as_const(), pb.as_const()) {
                    (Some(ca), Some(cb)) if !cb.is_zero() => {
                        Poly::constant(ca.div_floor(&cb))
                    }
                    (Some(ca), _) if ca.is_zero() => Poly::zero(),
                    (_, Some(cb)) if cb.is_one() => pa,
                    _ => Poly::atom(Term::Div(
                        Box::new(pa.to_term()),
                        Box::new(pb.to_term()),
                    )),
                }
            }
            TNode::Mod(a, b) => {
                // a % b = a - b * (a / b): eliminate Mod entirely.
                let pa = self.normalize_id(*a)?;
                let pb = self.normalize_id(*b)?;
                match (pa.as_const(), pb.as_const()) {
                    (Some(ca), Some(cb)) if !cb.is_zero() => {
                        Poly::constant(ca.mod_floor(&cb))
                    }
                    (_, Some(cb)) if cb.is_one() => Poly::zero(),
                    _ => {
                        let div = self.normalize(&Term::Div(
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
            TNode::Pow2(e) => {
                let pe = self.normalize_id(*e)?;
                match pe.as_const() {
                    Some(c) => {
                        if c.is_negative() {
                            Poly::constant(BigInt::one())
                        } else {
                            match u64::try_from(&c) {
                                Ok(exp) if exp <= 1 << 20 => {
                                    Poly::constant(BigInt::pow2(exp))
                                }
                                _ => Poly::atom(Term::Pow2(Box::new(pe.to_term()))),
                            }
                        }
                    }
                    None => Poly::atom(Term::Pow2(Box::new(pe.to_term()))),
                }
            }
            TNode::BitAnd(a, b) | TNode::BitOr(a, b) | TNode::BitXor(a, b) => {
                let pa = self.normalize_id(*a)?;
                let pb = self.normalize_id(*b)?;
                let fold = |x: &BigInt, y: &BigInt| -> Option<BigInt> {
                    if x.is_negative() || y.is_negative() {
                        return None;
                    }
                    Some(match node {
                        TNode::BitAnd(..) => x & y,
                        TNode::BitOr(..) => x | y,
                        _ => x ^ y,
                    })
                };
                if let (Some(ca), Some(cb)) = (pa.as_const(), pb.as_const()) {
                    if let Some(v) = fold(&ca, &cb) {
                        return Ok(Poly::constant(v));
                    }
                }
                // Identity/zero simplifications for non-negative semantics.
                match (pa.as_const(), pb.as_const(), node) {
                    (Some(c), _, TNode::BitAnd(..)) if c.is_zero() => Poly::zero(),
                    (_, Some(c), TNode::BitAnd(..)) if c.is_zero() => Poly::zero(),
                    (Some(c), _, TNode::BitOr(..)) | (Some(c), _, TNode::BitXor(..))
                        if c.is_zero() =>
                    {
                        pb
                    }
                    (_, Some(c), TNode::BitOr(..)) | (_, Some(c), TNode::BitXor(..))
                        if c.is_zero() =>
                    {
                        pa
                    }
                    _ => {
                        let (ta, tb) = (pa.to_term(), pb.to_term());
                        // Commutative: order operands canonically (by the
                        // structural Term order — load-bearing for proof
                        // search, so ids are NOT used here).
                        let (x, y) = if ta <= tb { (ta, tb) } else { (tb, ta) };
                        Poly::atom(match node {
                            TNode::BitAnd(..) => Term::BitAnd(Box::new(x), Box::new(y)),
                            TNode::BitOr(..) => Term::BitOr(Box::new(x), Box::new(y)),
                            _ => Term::BitXor(Box::new(x), Box::new(y)),
                        })
                    }
                }
            }
            TNode::Ite(c, _, _) => return Err(ItePresent(self.formula_of(*c))),
            TNode::App(f, args) => {
                let name = self.sym_str(*f).to_string();
                let nargs = args
                    .iter()
                    .map(|&a| Ok(self.normalize_id(a)?.to_term()))
                    .collect::<Result<Vec<_>, ItePresent>>()?;
                Poly::atom(Term::App(name, nargs))
            }
        })
    }

    /// Drops everything. Only call at a point where no `TermId`/`FmlId`
    /// is held (ids are invalidated).
    pub fn clear(&mut self) {
        *self = TermStore::default();
    }

    /// Approximate retained entries, for growth-bounding heuristics.
    pub fn footprint(&self) -> usize {
        self.terms.len() + self.fmls.len() + self.norm.len()
    }
}

/// Merges sorted `extra` into sorted `into`, keeping it sorted + deduped.
fn merge_sorted(into: &mut Vec<SymId>, extra: &[SymId]) {
    if extra.is_empty() {
        return;
    }
    if into.is_empty() {
        into.extend_from_slice(extra);
        return;
    }
    let mut merged = Vec::with_capacity(into.len() + extra.len());
    let (mut i, mut j) = (0, 0);
    while i < into.len() || j < extra.len() {
        match (into.get(i), extra.get(j)) {
            (Some(a), Some(b)) if a == b => {
                merged.push(*a);
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                merged.push(*a);
                i += 1;
            }
            (Some(_), Some(b)) => {
                merged.push(*b);
                j += 1;
            }
            (Some(a), None) => {
                merged.push(*a);
                i += 1;
            }
            (None, Some(b)) => {
                merged.push(*b);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    *into = merged;
}

thread_local! {
    static STORE: RefCell<TermStore> = RefCell::new(TermStore::new());
}

/// Runs `f` with the thread-local store.
pub fn with_store<R>(f: impl FnOnce(&mut TermStore) -> R) -> R {
    STORE.with(|s| f(&mut s.borrow_mut()))
}

/// Interns a term in the thread-local store.
pub fn intern(t: &Term) -> TermId {
    with_store(|s| s.intern_term(t))
}

/// Memoised [`crate::poly::normalize`] through the thread-local store.
pub fn normalize_cached(t: &Term) -> Result<Poly, ItePresent> {
    with_store(|s| s.normalize(t))
}

/// Whether `x` occurs free in `t`, via cached free-variable sets.
pub fn has_free_var(t: &Term, x: &str) -> bool {
    with_store(|s| {
        let id = s.intern_term(t);
        s.has_free_var(id, x)
    })
}

/// Structural size of `f` (matching `Formula::node_count`) via the
/// interned store: O(1) for every formula seen before, and interning here
/// warms the arena for the discharge that follows.
pub fn formula_node_count(f: &Formula) -> usize {
    with_store(|s| {
        let id = s.intern_formula(f);
        s.formula_node_count(id) as usize
    })
}

/// Bounds the thread-local store's growth: call only from points where no
/// ids are live (e.g. the top of a proof). Clears everything once the
/// arena plus memo tables exceed ~1M entries, so long-running processes
/// (the conformance soak, the benchmark) keep a flat memory profile while
/// single VCs — even huge ones — never lose their cache mid-proof.
pub fn gc_checkpoint() {
    with_store(|s| {
        if s.footprint() > 1_000_000 {
            s.clear();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::normalize as normalize_plain;
    use crate::term::Term as T;

    fn sample_terms() -> Vec<Term> {
        let x = || T::var("x");
        let y = || T::var("y");
        vec![
            T::int(42),
            x(),
            x().add(y()).mul(x().sub(T::int(1))),
            x().div(y()),
            x().imod(T::int(8)),
            T::pow2(x().add(T::int(3))),
            T::pow2(T::int(6)),
            T::BitAnd(Box::new(y()), Box::new(x())),
            T::BitXor(Box::new(T::int(0)), Box::new(x())),
            T::App("f".into(), vec![x().add(T::int(0)), y()]),
            x().imod(y()).add(T::pow2(x().div(y()))),
        ]
    }

    #[test]
    fn interning_is_hash_consing() {
        let mut s = TermStore::new();
        let t = T::var("x").add(T::var("y")).mul(T::var("x").add(T::var("y")));
        let a = s.intern_term(&t);
        let b = s.intern_term(&t.clone());
        assert_eq!(a, b);
        // The two identical Add children share one id, so the store holds
        // fewer nodes than the tree.
        assert!(s.len() < 8);
    }

    #[test]
    fn term_of_round_trips() {
        let mut s = TermStore::new();
        for t in sample_terms() {
            let id = s.intern_term(&t);
            assert_eq!(s.term_of(id), t, "round trip failed for {t}");
        }
    }

    #[test]
    fn normalize_matches_plain() {
        let mut s = TermStore::new();
        for t in sample_terms() {
            assert_eq!(
                s.normalize(&t),
                normalize_plain(&t),
                "normalize mismatch for {t}"
            );
            // And again, through the memo.
            assert_eq!(s.normalize(&t), normalize_plain(&t));
        }
    }

    #[test]
    fn normalize_ite_error_matches() {
        let t = Term::Ite(
            Box::new(T::var("c").eq(T::int(0))),
            Box::new(T::int(1)),
            Box::new(T::int(2)),
        );
        let mut s = TermStore::new();
        assert_eq!(s.normalize(&t), normalize_plain(&t));
        assert_eq!(s.normalize(&t), normalize_plain(&t)); // memoised error
    }

    #[test]
    fn free_vars_match_term() {
        let mut s = TermStore::new();
        for t in sample_terms() {
            let id = s.intern_term(&t);
            let expect = t.free_vars();
            for v in ["x", "y", "z", "f"] {
                assert_eq!(
                    s.has_free_var(id, v),
                    expect.contains(v),
                    "free var {v} mismatch for {t}"
                );
            }
        }
    }

    #[test]
    fn node_count_matches_term() {
        let mut s = TermStore::new();
        for t in sample_terms() {
            let id = s.intern_term(&t);
            assert_eq!(s.node_count(id) as usize, t.node_count(), "count for {t}");
            let f = t.clone().le(T::var("z").mul(t.clone()));
            let fid = s.intern_formula(&f);
            assert_eq!(
                s.formula_node_count(fid) as usize,
                f.node_count(),
                "formula count for {f}"
            );
        }
    }

    #[test]
    fn formulas_intern_and_round_trip() {
        let f = Formula::Implies(
            Box::new(T::var("x").le(T::var("y"))),
            Box::new(Formula::And(vec![
                Formula::BVar("b".into()),
                Formula::Not(Box::new(T::var("y").lt(T::var("x")))),
            ])),
        );
        let mut s = TermStore::new();
        let a = s.intern_formula(&f);
        let b = s.intern_formula(&f.clone());
        assert_eq!(a, b);
        assert_eq!(s.formula_of(a), f);
    }

    #[test]
    fn clear_resets() {
        let mut s = TermStore::new();
        s.intern_term(&T::var("x"));
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }
}
