//! The proof kernel: checks proofs of formulas from a small set of integer
//! axioms, mirroring how Stainless discharges verification conditions with
//! an SMT solver plus user hints (§3).
//!
//! The automatic core ([`Proof::Auto`]) combines:
//!
//! * exhaustive splitting of conditionals (`Ite`, from muxes and guards);
//! * polynomial normalisation with `Mod` elimination;
//! * automatic range facts for every `Div` atom with provably positive
//!   divisor (`0 ≤ a − b·(a/b) < b`) and positivity/monotonicity facts for
//!   `Pow2` atoms;
//! * Fourier–Motzkin linear arithmetic with integer tightening.
//!
//! Splitting the hypotheses' disjunctions leaves a goal with independent
//! literal cases, up to [`Limits::case_cap`] of them. When there are at
//! least `FAN_OUT_MIN_CASES`, they are proved across the default
//! [`ThreadPool`]'s workers with [`ThreadPool::try_each`], which returns
//! what the sequential loop returns: success, or the lowest failing case's
//! error. Cases stay inline wherever a failure does not fail the proof
//! (the attempts at an `Or` goal), so a proved VC does the same work at
//! every worker count.
//!
//! Nonlinear steps are taken explicitly — lemma instantiation
//! ([`Proof::Use`]), equation chains ([`Proof::Calc`], the paper's
//! Listing 4 DSL), case analysis, induction, and function unfolding —
//! and every step is re-checked by the automatic core, so the trusted base
//! is the axiom list plus this module.

use crate::linarith::{intern_con, refute_ids, ConId, LinCon, Refutation};
use crate::poly::{assume_ite, find_ite, Monomial, Poly};
use crate::store::{self, TermId};
use crate::term::{Formula, Sym, Term};
use chicala_bigint::BigInt;
use chicala_par::ThreadPool;
use chicala_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Fewest hypothesis cases a goal needs before the automatic core proves
/// them across the pool's workers. Below it, spawning a worker costs more
/// than it saves. In the benchmark's known-proved VCs a case loop has
/// either one case (every VC near the median discharge time) or 8 to 160.
const FAN_OUT_MIN_CASES: usize = 8;

/// A defined (possibly recursive) function: `name(params) = body`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DefFn {
    /// Function name.
    pub name: Sym,
    /// Formal parameters.
    pub params: Vec<Sym>,
    /// Definition body; may call `name` recursively (unfolded one step at a
    /// time).
    pub body: Term,
}

/// A lemma: `∀ vars. hyps ⟹ concl`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lemma {
    /// Lemma name.
    pub name: Sym,
    /// Universally quantified integer variables.
    pub vars: Vec<Sym>,
    /// Hypotheses.
    pub hyps: Vec<Formula>,
    /// Conclusion.
    pub concl: Formula,
}

/// One step of an equation chain.
#[derive(Clone, Debug)]
pub struct CalcStep {
    /// The next term in the chain.
    pub to: Term,
    /// Why the previous term equals it.
    pub just: Just,
}

/// Justification of a single step.
#[derive(Clone, Debug)]
pub enum Just {
    /// The automatic core.
    Auto,
    /// Instantiate a lemma, then the automatic core.
    Lemma {
        /// Lemma name.
        name: Sym,
        /// Instantiation, positional over the lemma's `vars`.
        args: Vec<Term>,
    },
    /// Unfold a defined function once, then the automatic core.
    Unfold(Sym),
}

/// A proof.
#[derive(Clone, Debug)]
pub enum Proof {
    /// The automatic core (normalisation + facts + linear arithmetic).
    Auto,
    /// Prove each conjunct of an `And` goal.
    SplitAnd(Vec<Proof>),
    /// Case analysis on a formula.
    Cases {
        /// The split formula.
        on: Formula,
        /// Proof under `on`.
        if_true: Box<Proof>,
        /// Proof under `!on`.
        if_false: Box<Proof>,
    },
    /// Equation chain (the paper's Listing 4): the goal must be an
    /// equality; the chain runs from its left side to its right side.
    Calc(Vec<CalcStep>),
    /// Instantiate a lemma (hypotheses discharged by the automatic core)
    /// and continue with its conclusion available.
    Use {
        /// Lemma name.
        lemma: Sym,
        /// Positional instantiation of the lemma's variables.
        args: Vec<Term>,
        /// Remaining proof.
        rest: Box<Proof>,
    },
    /// Unfold a defined function once in goal and hypotheses.
    Unfold {
        /// Function name.
        func: Sym,
        /// Remaining proof.
        rest: Box<Proof>,
    },
    /// Proves an intermediate fact under the current hypotheses, then
    /// makes it available for the rest of the proof (an `assert`).
    Have {
        /// The intermediate fact.
        fact: Formula,
        /// Its proof.
        proof: Box<Proof>,
        /// Remaining proof with the fact available.
        rest: Box<Proof>,
    },
    /// Induction on an integer variable from a base value. The goal's
    /// hypotheses may mention the variable only as the bound `var ≥ base`.
    Induction {
        /// Induction variable.
        var: Sym,
        /// Base value.
        base: i64,
        /// Proof of the base case.
        base_case: Box<Proof>,
        /// Proof of the step case (`var ≥ base` and the induction
        /// hypothesis are available).
        step_case: Box<Proof>,
    },
}

/// Resource limits for the automatic core.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum conditional splits per goal.
    pub ite_splits: usize,
    /// Maximum disjunctive hypothesis cases.
    pub case_cap: usize,
    /// Most constraints one Fourier–Motzkin elimination step may hold,
    /// over `i128` and exact integers alike; past it the refutation gives
    /// up and the goal fails with "linear arithmetic budget exceeded".
    /// Saturation probes get a quarter of it.
    pub fm_budget: usize,
    /// Fact-saturation rounds.
    pub saturation_rounds: usize,
    /// Optional wall-clock deadline for the automatic core. Checked at the
    /// escalation-tier boundaries of `refute_case` and at every
    /// conditional split, so a single runaway goal fails fast (with a
    /// "deadline exceeded" error) instead of grinding through the full
    /// rewrite/saturation budget. `None` (the default) never times out —
    /// proof *success* is unaffected by timing, only how long a failure
    /// may search.
    pub deadline: Option<std::time::Instant>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            ite_splits: 64,
            case_cap: 512,
            fm_budget: 20_000,
            saturation_rounds: 3,
            deadline: None,
        }
    }
}

/// A proof-checking failure, with a human-readable trail.
#[derive(Clone, Debug)]
pub struct ProofError {
    /// What failed.
    pub message: String,
    /// Goal text at the failure point.
    pub goal: String,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n  goal: {}", self.message, self.goal)
    }
}

impl std::error::Error for ProofError {}

fn err(message: impl Into<String>, goal: &Formula) -> ProofError {
    ProofError { message: message.into(), goal: goal.to_string() }
}

/// The proof environment: definitions, proven lemmas, and axioms.
#[derive(Clone, Debug)]
pub struct Env {
    defs: BTreeMap<Sym, DefFn>,
    lemmas: BTreeMap<Sym, Lemma>,
    axioms: Vec<Sym>,
    /// Limits for the automatic core.
    pub limits: Limits,
}

impl Default for Env {
    fn default() -> Self {
        Env::new()
    }
}

impl Env {
    /// An empty environment with the built-in integer axioms loaded.
    pub fn new() -> Env {
        let mut env = Env {
            defs: BTreeMap::new(),
            lemmas: BTreeMap::new(),
            axioms: Vec::new(),
            limits: Limits::default(),
        };
        crate::axioms::install(&mut env);
        env
    }

    /// Registers a defined function.
    ///
    /// # Panics
    ///
    /// Panics on duplicate definitions.
    pub fn define(&mut self, def: DefFn) {
        let prev = self.defs.insert(def.name.clone(), def);
        assert!(prev.is_none(), "duplicate function definition");
    }

    /// Looks up a definition.
    pub fn def(&self, name: &str) -> Option<&DefFn> {
        self.defs.get(name)
    }

    /// Looks up a lemma.
    pub fn lemma(&self, name: &str) -> Option<&Lemma> {
        self.lemmas.get(name)
    }

    /// Names of the axioms trusted by this environment.
    pub fn axiom_names(&self) -> &[Sym] {
        &self.axioms
    }

    /// All registered lemma names (axioms included).
    pub fn lemma_names(&self) -> Vec<Sym> {
        self.lemmas.keys().cloned().collect()
    }

    /// Hashes the environment's logical content — definitions, lemma
    /// statements, and trusted axiom names — into `h`, in deterministic
    /// (`BTreeMap`/insertion) order. [`Limits`] are deliberately excluded:
    /// they bound the automatic core's *search*, never what is provable,
    /// so a proof found under one limit set is valid under any other.
    ///
    /// This is the environment component of the VC-cache key
    /// ([`crate::cache`]): two `Env`s with equal digests admit exactly the
    /// same theorems.
    pub fn content_digest(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        self.defs.len().hash(h);
        for (name, def) in &self.defs {
            name.hash(h);
            def.params.hash(h);
            def.body.hash(h);
        }
        self.lemmas.len().hash(h);
        for (name, lemma) in &self.lemmas {
            name.hash(h);
            lemma.vars.hash(h);
            lemma.hyps.hash(h);
            lemma.concl.hash(h);
        }
        self.axioms.hash(h);
    }

    /// Admits a lemma without proof. This is the trusted base: only
    /// `axioms::install` and tests should call it.
    pub fn assume_axiom(&mut self, lemma: Lemma) {
        self.axioms.push(lemma.name.clone());
        let prev = self.lemmas.insert(lemma.name.clone(), lemma);
        assert!(prev.is_none(), "duplicate axiom");
    }

    /// Checks `proof` and, on success, registers the lemma for later use.
    ///
    /// # Errors
    ///
    /// Returns [`ProofError`] if the proof does not check.
    pub fn prove_lemma(&mut self, lemma: Lemma, proof: &Proof) -> Result<(), ProofError> {
        let _span = telemetry::span!("lemma:{}", lemma.name);
        self.prove(&lemma.hyps, &lemma.concl, proof)?;
        let prev = self.lemmas.insert(lemma.name.clone(), lemma);
        assert!(prev.is_none(), "duplicate lemma name");
        Ok(())
    }

    /// Checks that `hyps ⟹ goal` via `proof`.
    ///
    /// # Errors
    ///
    /// Returns [`ProofError`] describing the first failing step.
    pub fn prove(&self, hyps: &[Formula], goal: &Formula, proof: &Proof) -> Result<(), ProofError> {
        let mut hyps = hyps.to_vec();
        self.prove_inner(&mut hyps, goal, proof, 0)
    }

    fn prove_inner(
        &self,
        hyps: &mut Vec<Formula>,
        goal: &Formula,
        proof: &Proof,
        depth: usize,
    ) -> Result<(), ProofError> {
        if depth > 64 {
            return Err(err("proof nesting too deep", goal));
        }
        match proof {
            Proof::Auto => self.auto(hyps, goal),
            Proof::SplitAnd(ps) => {
                let parts: Vec<Formula> = match goal {
                    Formula::And(fs) => fs.clone(),
                    other => vec![other.clone()],
                };
                if parts.len() != ps.len() {
                    return Err(err(
                        format!("SplitAnd arity mismatch: {} conjuncts, {} proofs", parts.len(), ps.len()),
                        goal,
                    ));
                }
                for (part, p) in parts.iter().zip(ps) {
                    self.prove_inner(hyps, part, p, depth + 1)?;
                }
                Ok(())
            }
            Proof::Cases { on, if_true, if_false } => {
                hyps.push(on.clone());
                self.prove_inner(hyps, goal, if_true, depth + 1)?;
                hyps.pop();
                hyps.push(on.clone().not());
                self.prove_inner(hyps, goal, if_false, depth + 1)?;
                hyps.pop();
                Ok(())
            }
            Proof::Use { lemma, args, rest } => {
                let fact = self.instantiate(lemma, args, hyps, goal)?;
                hyps.push(fact);
                let r = self.prove_inner(hyps, goal, rest, depth + 1);
                hyps.pop();
                r
            }
            Proof::Unfold { func, rest } => {
                let def = self
                    .defs
                    .get(func)
                    .ok_or_else(|| err(format!("unknown function `{func}`"), goal))?;
                let goal2 = unfold_formula(goal, def);
                let hyps2: Vec<Formula> = hyps.iter().map(|h| unfold_formula(h, def)).collect();
                let mut hyps2 = hyps2;
                self.prove_inner(&mut hyps2, &goal2, rest, depth + 1)
            }
            Proof::Calc(steps) => {
                let (lhs, rhs) = match goal {
                    Formula::Eq(a, b) => (a.clone(), b.clone()),
                    other => return Err(err("Calc requires an equality goal", other)),
                };
                let mut prev = lhs;
                for (i, step) in steps.iter().enumerate() {
                    let g = Formula::Eq(prev.clone(), step.to.clone());
                    self.check_just(hyps, &g, &step.just, depth)
                        .map_err(|e| ProofError {
                            message: format!("calc step {} failed: {}", i + 1, e.message),
                            goal: e.goal,
                        })?;
                    prev = step.to.clone();
                }
                let last = Formula::Eq(prev, rhs);
                self.auto(hyps, &last).map_err(|e| ProofError {
                    message: format!("calc closing step failed: {}", e.message),
                    goal: e.goal,
                })
            }
            Proof::Have { fact, proof, rest } => {
                self.prove_inner(hyps, fact, proof, depth + 1).map_err(|e| ProofError {
                    message: format!("have-step `{fact}` failed: {}", e.message),
                    goal: e.goal,
                })?;
                hyps.push(fact.clone());
                let r = self.prove_inner(hyps, goal, rest, depth + 1);
                hyps.pop();
                r
            }
            Proof::Induction { var, base, base_case, step_case } => {
                self.check_induction(hyps, goal, var, *base, base_case, step_case, depth)
            }
        }
    }

    fn check_just(
        &self,
        hyps: &mut Vec<Formula>,
        goal: &Formula,
        just: &Just,
        _depth: usize,
    ) -> Result<(), ProofError> {
        match just {
            Just::Auto => self.auto(hyps, goal),
            Just::Lemma { name, args } => {
                let fact = self.instantiate(name, args, hyps, goal)?;
                hyps.push(fact);
                let r = self.auto(hyps, goal);
                hyps.pop();
                r
            }
            Just::Unfold(func) => {
                let def = self
                    .defs
                    .get(func)
                    .ok_or_else(|| err(format!("unknown function `{func}`"), goal))?;
                let goal2 = unfold_formula(goal, def);
                let hyps2: Vec<Formula> = hyps.iter().map(|h| unfold_formula(h, def)).collect();
                self.auto(&hyps2, &goal2)
            }
        }
    }

    fn instantiate(
        &self,
        name: &str,
        args: &[Term],
        hyps: &[Formula],
        goal: &Formula,
    ) -> Result<Formula, ProofError> {
        let lemma = self
            .lemmas
            .get(name)
            .ok_or_else(|| err(format!("unknown lemma `{name}`"), goal))?;
        if lemma.vars.len() != args.len() {
            return Err(err(
                format!(
                    "lemma `{name}` takes {} arguments, got {}",
                    lemma.vars.len(),
                    args.len()
                ),
                goal,
            ));
        }
        let map: BTreeMap<Sym, Term> =
            lemma.vars.iter().cloned().zip(args.iter().cloned()).collect();
        for h in &lemma.hyps {
            let inst = h.subst(&map);
            self.auto(hyps, &inst).map_err(|e| ProofError {
                message: format!("hypothesis of `{name}` not discharged: {}", e.message),
                goal: e.goal,
            })?;
        }
        Ok(lemma.concl.subst(&map))
    }

    #[allow(clippy::too_many_arguments)]
    fn check_induction(
        &self,
        hyps: &[Formula],
        goal: &Formula,
        var: &str,
        base: i64,
        base_case: &Proof,
        step_case: &Proof,
        depth: usize,
    ) -> Result<(), ProofError> {
        // Hypotheses are split into those free of the induction variable
        // (kept as-is) and those mentioning it. Lower bounds `var >= c`
        // with `c >= base` are subsumed by the rule; any other
        // var-mentioning hypothesis H(var) makes this a *strong* induction
        // over the statement "forall others. H(var) => G(var)": the step
        // context gets H(var+1), and the induction hypothesis is only
        // available through the generalised `IH` lemma (which carries
        // H(var) as its own hypotheses).
        let mut others = Vec::new();
        let mut var_hyps = Vec::new();
        for h in hyps.iter() {
            if !h.free_vars().contains(var) {
                others.push(h.clone());
                continue;
            }
            match h {
                Formula::Le(Term::Const(c), Term::Var(v))
                    if v == var && *c >= BigInt::from(base) => {}
                other => var_hyps.push(other.clone()),
            }
        }
        // Base case: all hypotheses at var = base.
        let base_map: BTreeMap<Sym, Term> =
            [(var.to_string(), Term::int(base))].into_iter().collect();
        let mut hb = others.clone();
        for h in &var_hyps {
            hb.push(h.subst(&base_map));
        }
        self.prove_inner(&mut hb, &goal.subst(&base_map), base_case, depth + 1)
            .map_err(|e| ProofError {
                message: format!("induction base case failed: {}", e.message),
                goal: e.goal,
            })?;
        // Step case: var >= base and the induction hypothesis available,
        // both as a direct hypothesis G(var) and as a *generalised* lemma
        // `IH` quantified over the non-induction variables (so the step can
        // instantiate it at shifted arguments, e.g. `bitsum(a/2, n)`).
        let step_map: BTreeMap<Sym, Term> = [(
            var.to_string(),
            Term::var(var).add(Term::int(1)),
        )]
        .into_iter()
        .collect();
        let mut ih_vars: Vec<Sym> = Vec::new();
        {
            let mut fv = goal.free_vars();
            for h in others.iter().chain(var_hyps.iter()) {
                fv.extend(h.free_vars());
            }
            fv.remove(var);
            ih_vars.extend(fv);
        }
        let mut ih_hyps = others.clone();
        ih_hyps.extend(var_hyps.iter().cloned());
        let mut step_env = self.clone();
        step_env.lemmas.insert(
            "IH".to_string(),
            Lemma {
                name: "IH".to_string(),
                vars: ih_vars,
                hyps: ih_hyps,
                concl: goal.clone(),
            },
        );
        let mut hs = others;
        hs.push(Term::var(var).ge(Term::int(base)));
        // Step context: var-mentioning hypotheses hold at var + 1.
        for h in &var_hyps {
            hs.push(h.subst(&step_map));
        }
        // The plain induction hypothesis G(var) may only be assumed
        // directly when no extra var-mentioning hypotheses exist (the weak
        // form); otherwise it is reachable via `Use IH` with its
        // hypotheses discharged.
        if var_hyps.is_empty() {
            hs.push(goal.clone());
        }
        step_env
            .prove_inner(&mut hs, &goal.subst(&step_map), step_case, depth + 1)
            .map_err(|e| ProofError {
                message: format!("induction step case failed: {}", e.message),
                goal: e.goal,
            })
    }

    /// Whether the configured wall-clock deadline (if any) has passed.
    fn past_deadline(&self) -> bool {
        self.limits.deadline.is_some_and(|d| std::time::Instant::now() >= d)
    }

    /// The automatic core.
    fn auto(&self, hyps: &[Formula], goal: &Formula) -> Result<(), ProofError> {
        // No ids are live at a proof boundary: bound both interners'
        // growth (the term arena and the linear-constraint store).
        store::gc_checkpoint();
        crate::linarith::gc_checkpoint();
        telemetry::counter("kernel.auto_calls", 1);
        let mut splits = self.limits.ite_splits;
        let r = self.auto_split(hyps.to_vec(), goal.clone(), &mut splits);
        telemetry::counter(
            "kernel.ite_splits",
            (self.limits.ite_splits - splits) as u64,
        );
        r
    }

    /// Splits all conditionals, then dispatches to the literal-level
    /// prover.
    fn auto_split(
        &self,
        hyps: Vec<Formula>,
        goal: Formula,
        splits: &mut usize,
    ) -> Result<(), ProofError> {
        let ite = find_ite(&goal).or_else(|| hyps.iter().find_map(find_ite));
        if let Some(cond) = ite {
            if *splits == 0 {
                return Err(err("conditional split budget exhausted", &goal));
            }
            if self.past_deadline() {
                return Err(err("kernel wall-clock deadline exceeded", &goal));
            }
            *splits -= 1;
            for v in [true, false] {
                let mut h2: Vec<Formula> =
                    hyps.iter().map(|h| assume_ite(h, &cond, v)).collect();
                h2.push(if v { cond.clone() } else { cond.clone().not() });
                let g2 = assume_ite(&goal, &cond, v);
                self.auto_split(h2, g2, splits)?;
            }
            return Ok(());
        }
        self.auto_flat(&hyps, &goal, true)
    }

    /// Ite-free automatic proving. With `fan_out`, a goal with at least
    /// [`FAN_OUT_MIN_CASES`] hypothesis cases proves them across the
    /// default pool's workers; the verdict and error are the sequential
    /// loop's either way.
    fn auto_flat(&self, hyps: &[Formula], goal: &Formula, fan_out: bool) -> Result<(), ProofError> {
        // Goal decomposition.
        match goal {
            Formula::True => return Ok(()),
            Formula::And(fs) => {
                for f in fs {
                    self.auto_flat(hyps, f, fan_out)?;
                }
                return Ok(());
            }
            Formula::Implies(a, b) => {
                let mut h2 = hyps.to_vec();
                h2.push((**a).clone());
                return self.auto_flat(&h2, b, fan_out);
            }
            Formula::Or(fs) => {
                // Either the hypotheses are already contradictory, or some
                // disjunct is provable. A failed attempt here does not fail
                // the proof, so each runs inline: a fan-out would spend
                // speculative work on cases past the failure.
                if self.auto_flat(hyps, &Formula::False, false).is_ok() {
                    return Ok(());
                }
                let mut last = None;
                for f in fs {
                    match self.auto_flat(hyps, f, false) {
                        Ok(()) => return Ok(()),
                        Err(e) => last = Some(e),
                    }
                }
                return Err(last.unwrap_or_else(|| err("empty disjunction", goal)));
            }
            _ => {}
        }
        // Expand hypotheses into disjunction-free cases.
        let mut cases: Vec<Vec<Literal>> = vec![Vec::new()];
        for h in hyps {
            expand_hyp(h, &mut cases, self.limits.case_cap)
                .map_err(|m| err(m, goal))?;
        }
        // A one-worker pool runs the cases inline, in order.
        let pool = if fan_out && cases.len() >= FAN_OUT_MIN_CASES {
            ThreadPool::default()
        } else {
            ThreadPool::new(1)
        };
        pool.try_each(cases.len(), |i| self.prove_case(&cases[i], goal))
    }

    /// Proves the goal under one literal case via linear arithmetic.
    fn prove_case(&self, case: &[Literal], goal: &Formula) -> Result<(), ProofError> {
        // Boolean-literal contradictions close the case immediately.
        let mut bools: BTreeMap<&str, bool> = BTreeMap::new();
        for l in case {
            if let Literal::Bool(name, v) = l {
                if let Some(prev) = bools.insert(name, *v) {
                    if prev != *v {
                        return Ok(());
                    }
                }
            }
        }
        let neg_goals: Vec<Vec<Literal>> = match goal {
            Formula::Eq(a, b) => vec![
                vec![Literal::Lt(a.clone(), b.clone())],
                vec![Literal::Lt(b.clone(), a.clone())],
            ],
            Formula::Le(a, b) => vec![vec![Literal::Lt(b.clone(), a.clone())]],
            Formula::Lt(a, b) => vec![vec![Literal::Le(b.clone(), a.clone())]],
            Formula::Not(inner) => {
                // Prove ¬f by deriving a contradiction from f.
                let mut sub = vec![Vec::new()];
                expand_hyp(inner, &mut sub, self.limits.case_cap)
                    .map_err(|m| err(m, goal))?;
                for extra in sub {
                    self.refute_case(case, &extra, goal)?;
                }
                return Ok(());
            }
            Formula::False => {
                return self.refute_case(case, &[], goal);
            }
            Formula::BVar(name) => {
                if bools.get(name.as_str()) == Some(&true) {
                    return Ok(());
                }
                // Otherwise provable only if the case is contradictory.
                return self.refute_case(case, &[], goal);
            }
            Formula::True => return Ok(()),
            other => {
                return Err(err("automatic core cannot decompose this goal", other));
            }
        };
        // Prove by refuting each negation case.
        for neg in neg_goals {
            self.refute_case(case, &neg, goal)?;
        }
        Ok(())
    }

    /// Refutes a conjunction of literals via normalisation, equality-driven
    /// polynomial reduction, fact saturation, and Fourier–Motzkin — in
    /// escalating tiers, so cheap goals stay cheap.
    fn refute_case(
        &self,
        hyp_lits: &[Literal],
        neg_lits: &[Literal],
        goal: &Formula,
    ) -> Result<(), ProofError> {
        telemetry::counter("kernel.refute_cases", 1);
        let deadline_err = || err("kernel wall-clock deadline exceeded", goal);
        if self.past_deadline() {
            return Err(deadline_err());
        }
        // 1. Normalise literals into polynomial constraints `p + k >= 0`
        //    and equality polynomials `p == 0`. Polynomials coming from the
        //    negated goal seed the relevance filter.
        let mut eq_polys: Vec<Poly> = Vec::new();
        let mut ineqs: Vec<(Poly, BigInt)> = Vec::new();
        let mut seeds: Vec<Poly> = Vec::new();
        for (is_seed, l) in hyp_lits
            .iter()
            .map(|l| (false, l))
            .chain(neg_lits.iter().map(|l| (true, l)))
        {
            match l {
                Literal::Bool(..) => {}
                Literal::Eq(a, b) => {
                    let p = sub_norm(b, a).map_err(|m| err(m, goal))?;
                    if is_seed {
                        seeds.push(p.clone());
                    }
                    eq_polys.push(p);
                }
                Literal::Le(a, b) => {
                    let p = sub_norm(b, a).map_err(|m| err(m, goal))?;
                    if is_seed {
                        seeds.push(p.clone());
                    }
                    ineqs.push((p, BigInt::zero()));
                }
                Literal::Lt(a, b) => {
                    let p = sub_norm(b, a).map_err(|m| err(m, goal))?;
                    if is_seed {
                        seeds.push(p.clone());
                    }
                    ineqs.push((p, BigInt::from(-1)));
                }
            }
        }
        let rules = make_rules(&eq_polys);
        let mut cap = 40_000usize;

        // Tier 0: plain constraints plus rule-reduced variants.
        let mut all: Vec<(Poly, BigInt)> = Vec::new();
        for p in &eq_polys {
            all.push((p.clone(), BigInt::zero()));
            let mut n = p.clone();
            n.scale(&BigInt::from(-1));
            all.push((n, BigInt::zero()));
        }
        for (p, k) in &ineqs {
            all.push((p.clone(), k.clone()));
            let mut reduced = p.clone();
            reduce_poly(&mut reduced, &rules, &mut cap);
            if &reduced != p {
                all.push((reduced, k.clone()));
            }
        }
        // Deep reduction (congruence rewriting under the hypothesis
        // equalities) with its own budget: cheap and often decisive.
        if !rules.is_empty() {
            let mut deep_cap = 8_000usize;
            let snapshot: Vec<(Poly, BigInt)> = all.clone();
            for (p, k) in snapshot {
                let t = p.to_term();
                let rt = deep_reduce_term(&t, &rules, &mut deep_cap, 0);
                if let Ok(mut rp) = store::normalize_cached(&rt) {
                    reduce_poly(&mut rp, &rules, &mut cap);
                    if rp != p {
                        all.push((rp, k));
                    }
                }
            }
        }
        let mut atoms = AtomTable::default();
        let mut cons: Vec<LinCon> = Vec::new();
        for (p, k) in &all {
            cons.push(atoms.lincon(p, k.clone()));
        }
        let seed_idx: std::collections::BTreeSet<usize> = {
            let mut set = std::collections::BTreeSet::new();
            for p in &seeds {
                let c = atoms.lincon(p, BigInt::zero());
                set.extend(c.coeffs.keys().copied());
            }
            set
        };
        if self.filtered_refute(&mut atoms, &cons, &seed_idx, true) == Refutation::Unsat {
            return Ok(());
        }

        // Tier 1: Div/Pow2 facts, quotient signs, bound products.
        let mut prod_seen = std::collections::BTreeSet::new();
        let mut eq_facts: Vec<Poly> = Vec::new();
        for _ in 0..self.limits.saturation_rounds {
            if self.past_deadline() {
                return Err(deadline_err());
            }
            let mut added = self.saturate(&mut atoms, &mut cons, &rules, &mut cap, &mut eq_facts);
            added |= bound_products(&mut atoms, &mut cons);
            if !added {
                break;
            }
        }
        if self.filtered_refute(&mut atoms, &cons, &seed_idx, true) == Refutation::Unsat {
            return Ok(());
        }

        // Tier 1.5: the saturation pass derived new equalities (Pow2
        // shifts/products); rebuild the rule set with them and deep-reduce
        // again — this is what lets e.g. `Div(R, 2)` meet
        // `Div(hi + 2*lo*P', 2)` through `Pow2(w-c) == 2*Pow2(w-c-1)`.
        let rules = if eq_facts.is_empty() {
            rules
        } else {
            let mut all_eqs = eq_polys.clone();
            all_eqs.extend(eq_facts.iter().cloned());
            let rules2 = make_rules(&all_eqs);
            let mut deep_cap = 8_000usize;
            let snapshot: Vec<(Poly, BigInt)> = all.clone();
            for (p, k) in snapshot {
                let t = p.to_term();
                let rt = deep_reduce_term(&t, &rules2, &mut deep_cap, 0);
                if let Ok(mut rp) = store::normalize_cached(&rt) {
                    reduce_poly(&mut rp, &rules2, &mut cap);
                    if rp != p {
                        all.push((rp.clone(), k.clone()));
                        cons.push(atoms.lincon(&rp, k));
                    }
                }
            }
            for _ in 0..self.limits.saturation_rounds {
                if self.past_deadline() {
                    return Err(deadline_err());
                }
                let mut added =
                    self.saturate(&mut atoms, &mut cons, &rules2, &mut cap, &mut eq_facts);
                added |= bound_products(&mut atoms, &mut cons);
                if !added {
                    break;
                }
            }
            if self.filtered_refute(&mut atoms, &cons, &seed_idx, true) == Refutation::Unsat {
                return Ok(());
            }
            rules2
        };

        // Tier 2: equality-atom products and inequality-atom products.
        if self.past_deadline() {
            return Err(deadline_err());
        }
        {
            let mut extra: Vec<(Poly, BigInt)> = Vec::new();
            // Universe of degree-1 atoms and monomials in play.
            let mut atoms_univ: Vec<Term> = Vec::new();
            let mut mono_univ: Vec<Vec<Term>> = Vec::new();
            for (p, _) in &all {
                for m in p.terms.keys() {
                    if !mono_univ.contains(m) {
                        mono_univ.push(m.clone());
                    }
                }
            }
            // Only multiply by atoms near the goal (seed polys) or inside
            // rule monomials: products elsewhere just densify the system.
            for p in &seeds {
                for m in p.terms.keys() {
                    for a in m {
                        if !atoms_univ.contains(a) {
                            atoms_univ.push(a.clone());
                        }
                    }
                }
            }
            for r in &rules {
                for a in &r.monomial {
                    if !atoms_univ.contains(a) {
                        atoms_univ.push(a.clone());
                    }
                }
            }
            atoms_univ.truncate(24);
            let relevant = |m: &Vec<Term>| -> bool {
                mono_univ.iter().any(|n| multiset_minus(n, m).is_some())
                    || rules.iter().any(|r| multiset_minus(m, &r.monomial).is_some())
            };
            for e in &eq_polys {
                for u in &atoms_univ {
                    let mut useful = false;
                    for m in e.terms.keys() {
                        let mut ext = m.clone();
                        ext.push(u.clone());
                        ext.sort();
                        if relevant(&ext) {
                            useful = true;
                            break;
                        }
                    }
                    if !useful {
                        continue;
                    }
                    let mut p = e.mul(&Poly::atom(u.clone()));
                    reduce_poly(&mut p, &rules, &mut cap);
                    let mut n = p.clone();
                    n.scale(&BigInt::from(-1));
                    extra.push((p, BigInt::zero()));
                    extra.push((n, BigInt::zero()));
                }
            }
            for (i, p) in eq_polys.iter().enumerate() {
                let other: Vec<Rule> = rules
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, r)| r.clone())
                    .collect();
                let mut reduced = p.clone();
                reduce_poly(&mut reduced, &other, &mut cap);
                if &reduced != p {
                    extra.push((reduced.clone(), BigInt::zero()));
                    let mut n = reduced;
                    n.scale(&BigInt::from(-1));
                    extra.push((n, BigInt::zero()));
                }
            }
            for (p, k) in &extra {
                cons.push(atoms.lincon(p, k.clone()));
            }
            all.extend(extra);
        }
        for _ in 0..self.limits.saturation_rounds {
            if self.past_deadline() {
                return Err(deadline_err());
            }
            let mut added =
                self.saturate(&mut atoms, &mut cons, &rules, &mut cap, &mut eq_facts);
            added |= bound_products(&mut atoms, &mut cons);
            added |= ineq_atom_products(&mut atoms, &mut cons, &mut prod_seen);
            if !added {
                break;
            }
        }
        let outcome = self.filtered_refute(&mut atoms, &cons, &seed_idx, false);
        telemetry::counter("kernel.rewrites", (40_000 - cap) as u64);
        if outcome != Refutation::Unsat && telemetry::enabled() {
            // The unrefuted constraint system, as a structured telemetry
            // event (exported via the trace, not lost to stderr).
            let system: Vec<String> = cons
                .iter()
                .map(|c| {
                    let terms: Vec<String> =
                        c.coeffs.iter().map(|(i, v)| format!("{v}*a{i}")).collect();
                    format!("{} + {} >= 0", terms.join(" + "), c.constant)
                })
                .collect();
            let atom_list: Vec<String> = atoms
                .atoms
                .iter()
                .enumerate()
                .map(|(i, a)| format!("a{i} = {a}"))
                .collect();
            telemetry::event(
                "kernel.unrefuted_system",
                &[
                    ("goal", goal.to_string()),
                    ("atoms", atom_list.join("; ")),
                    ("constraints", system.join("; ")),
                ],
            );
        }
        match outcome {
            Refutation::Unsat => Ok(()),
            Refutation::Unknown => Err(err("linear arithmetic found no contradiction", goal)),
            Refutation::Overflow => Err(err("linear arithmetic budget exceeded", goal)),
        }
    }

    /// Refutes with goal-directed relevance filtering first (constraints
    /// within a few shared-atom hops of the negated goal), falling back to
    /// the full set. A `light` attempt (the intermediate tiers) stops at a
    /// mid-size prefix instead.
    fn filtered_refute(
        &self,
        atoms: &mut AtomTable,
        cons: &[LinCon],
        seeds: &std::collections::BTreeSet<usize>,
        light: bool,
    ) -> Refutation {
        if self.past_deadline() {
            return Refutation::Overflow;
        }
        // Each subset attempt is a `Vec` of `Copy` ids into the case's
        // interned mirror.
        atoms.sync_con_ids(cons);
        let run = |idxs: &[usize]| -> Refutation {
            let sub: Vec<ConId> = idxs.iter().map(|&i| atoms.con_ids[i]).collect();
            refute_ids(&sub, self.limits.fm_budget)
        };
        if !seeds.is_empty() {
            let order = relevance_order(cons, seeds, None);
            for cap in [24usize, 64, 160] {
                if cap >= order.len() {
                    break;
                }
                if self.past_deadline() {
                    return Refutation::Overflow;
                }
                if run(&order[..cap]) == Refutation::Unsat {
                    return Refutation::Unsat;
                }
            }
            if light {
                // Intermediate tiers stop at a mid-size attempt; the final
                // tier pays for the full system.
                let take = order.len().min(240);
                return run(&order[..take]);
            }
            if order.len() < cons.len()
                && !self.past_deadline()
                && run(&order) == Refutation::Unsat
            {
                return Refutation::Unsat;
            }
        }
        if self.past_deadline() {
            return Refutation::Overflow;
        }
        let all: Vec<usize> = (0..cons.len()).collect();
        run(&all)
    }

    /// Adds range facts for `Div` sub-terms with provably positive
    /// divisors and positivity/monotonicity facts for `Pow2` sub-terms
    /// anywhere in the current constraints. Returns whether new constraints
    /// were added.
    fn saturate(
        &self,
        atoms: &mut AtomTable,
        cons: &mut Vec<LinCon>,
        rules: &[Rule],
        cap: &mut usize,
        eq_facts: &mut Vec<Poly>,
    ) -> bool {
        // Collect every Div/Pow2 sub-term reachable from the current atoms
        // (incrementally: only atoms added since the previous round are
        // walked; the persistent candidate list is taken out for the
        // duration of the round and restored before returning).
        atoms.collect_new_candidates();
        let candidates = std::mem::take(&mut atoms.candidates);
        telemetry::counter("kernel.saturation_rounds", 1);
        if telemetry::enabled() {
            telemetry::record("kernel.saturation_candidates", candidates.len() as u64);
            telemetry::record("kernel.saturation_atoms", atoms.atoms.len() as u64);
        }
        let mut added = false;
        // Divisor-positivity probes repeat heavily (many atoms share the
        // same divisor): cache within this round, keyed by interned id.
        let mut div_pos_cache: HashMap<TermId, bool> = HashMap::new();
        let push_fact = |poly_res: Result<Poly, String>,
                             extra: BigInt,
                             atoms: &mut AtomTable,
                             cons: &mut Vec<LinCon>,
                             cap: &mut usize|
         -> bool {
            if let Ok(mut p) = poly_res {
                reduce_poly(&mut p, rules, cap);
                cons.push(atoms.lincon(&p, extra));
                true
            } else {
                false
            }
        };
        for t in &candidates {
            match t {
                Term::Div(a, b) => {
                    let bid = store::intern(b);
                    let b_pos = match div_pos_cache.get(&bid) {
                        Some(&v) => v,
                        None => {
                            let v = self.implies_positive(atoms, cons, b);
                            div_pos_cache.insert(bid, v);
                            v
                        }
                    };
                    if !atoms.fact_done(t) && b_pos {
                        atoms.mark_fact(t);
                        // r = a - b*(a/b); 0 <= r <= b - 1.
                        let r = (**a).clone().sub((**b).clone().mul(t.clone()));
                        added |= push_fact(
                            sub_norm(&r, &Term::int(0)),
                            BigInt::zero(),
                            atoms,
                            cons,
                            cap,
                        );
                        added |= push_fact(
                            sub_norm(&(**b).clone().sub(Term::int(1)), &r),
                            BigInt::zero(),
                            atoms,
                            cons,
                            cap,
                        );
                    }
                    // Direct sign/step facts on the quotient itself (these
                    // avoid case splits on divisibility). Each is retried
                    // every round until it succeeds — later rounds know
                    // more (products, Pow2 equalities):
                    //   a >= 0  ==>  a/b >= 0
                    //   a <  b  ==>  a/b <= 0
                    //   a >= b  ==>  a/b >= 1
                    if atoms.fact_done(t) {
                        if !atoms.sign_done(t, 0) && self.implies_nonneg(atoms, cons, a) {
                            atoms.mark_sign(t, 0);
                            added |= push_fact(
                                sub_norm(t, &Term::int(0)),
                                BigInt::zero(),
                                atoms,
                                cons,
                                cap,
                            );
                        }
                        let b_minus_1_minus_a =
                            (**b).clone().sub(Term::int(1)).sub((**a).clone());
                        if !atoms.sign_done(t, 1)
                            && self.implies_nonneg(atoms, cons, &b_minus_1_minus_a)
                        {
                            atoms.mark_sign(t, 1);
                            added |= push_fact(
                                sub_norm(&Term::int(0), t),
                                BigInt::zero(),
                                atoms,
                                cons,
                                cap,
                            );
                        }
                        let a_minus_b = (**a).clone().sub((**b).clone());
                        if !atoms.sign_done(t, 2)
                            && self.implies_nonneg(atoms, cons, &a_minus_b)
                        {
                            atoms.mark_sign(t, 2);
                            added |= push_fact(
                                sub_norm(t, &Term::int(1)),
                                BigInt::zero(),
                                atoms,
                                cons,
                                cap,
                            );
                        }
                    }
                }
                Term::Pow2(e) => {
                    if atoms.fact_done(t) {
                        continue;
                    }
                    atoms.mark_fact(t);
                    // Pow2(e) >= 1 (clamped semantics) and Pow2(e) >= e + 1.
                    added |= push_fact(
                        sub_norm(t, &Term::int(1)),
                        BigInt::zero(),
                        atoms,
                        cons,
                        cap,
                    );
                    added |= push_fact(
                        sub_norm(t, &(**e).clone().add(Term::int(1))),
                        BigInt::zero(),
                        atoms,
                        cons,
                        cap,
                    );
                }
                _ => {}
            }
        }
        // Pow2 shift facts: Pow2(p + k) == 2^k * Pow2(p) when p >= 0 is
        // implied (k a positive constant). The base atom is created when
        // the shift is small, so chains like Pow2(len) -> 2*Pow2(len-1)
        // appear automatically.
        {
            let pows: Vec<Term> =
                candidates.iter().filter(|t| matches!(t, Term::Pow2(_))).cloned().collect();
            let existing_args: Vec<(Term, Poly)> = pows
                .iter()
                .filter_map(|t| match t {
                    Term::Pow2(e) => store::normalize_cached(e).ok().map(|p| ((**e).clone(), p)),
                    _ => None,
                })
                .collect();
            for t in &pows {
                let Term::Pow2(e) = t else { continue };
                if atoms.shift_done(t) {
                    continue;
                }
                let Ok(parg) = store::normalize_cached(e) else { continue };
                let k = parg
                    .terms
                    .get(&Vec::new() as &Monomial)
                    .cloned()
                    .unwrap_or_else(BigInt::zero);
                if k.is_zero() || k.abs() > BigInt::from(8) {
                    continue;
                }
                let mut base = parg.clone();
                base.terms.remove(&Vec::new() as &Monomial);
                if base.is_zero() {
                    continue; // constant Pow2 already folded
                }
                // Positive offset: Pow2(base + k) == 2^k * Pow2(base),
                // valid when base >= 0. Negative offset: view this atom as
                // the base of Pow2(base) == 2^|k| * Pow2(base + k), valid
                // when base + k >= 0.
                let (hi_term, lo_term, kk, guard) = if !k.is_negative() {
                    let kk = u64::try_from(&k).expect("small constant");
                    (t.clone(), Term::pow2(base.to_term()), kk, base.to_term())
                } else {
                    let kk = u64::try_from(&(-k)).expect("small constant");
                    (Term::pow2(base.to_term()), t.clone(), kk, parg.to_term())
                };
                if !self.implies_nonneg(atoms, cons, &guard) {
                    continue;
                }
                // Reuse an existing atom when the counterpart exists;
                // create it only for small shifts.
                let base_exists = existing_args.iter().any(|(_, p)| *p == base);
                if !base_exists && kk > 2 {
                    continue;
                }
                atoms.mark_shift(t);
                let fact = hi_term.sub(Term::Const(BigInt::pow2(kk)).mul(lo_term));
                if let Ok(p) = store::normalize_cached(&fact) {
                    // Equality as two inequalities for the linear core,
                    // and as an equality poly for rule rebuilding.
                    cons.push(atoms.lincon(&p, BigInt::zero()));
                    let mut n = p.clone();
                    n.scale(&BigInt::from(-1));
                    cons.push(atoms.lincon(&n, BigInt::zero()));
                    eq_facts.push(p);
                    added = true;
                }
            }
            // Pow2 product facts: Pow2(a)*Pow2(b) == Pow2(a+b) when both
            // exponents are provably non-negative and the sum atom exists.
            for t1 in &pows {
                for t2 in &pows {
                    if t1 > t2 {
                        continue;
                    }
                    let (Term::Pow2(e1), Term::Pow2(e2)) = (t1, t2) else { continue };
                    if atoms.prodp_done(t1, t2) {
                        continue;
                    }
                    let (Ok(p1), Ok(p2)) = (store::normalize_cached(e1), store::normalize_cached(e2)) else { continue };
                    let mut sum = p1.clone();
                    sum.add(&p2);
                    let target = existing_args.iter().find(|(_, p)| *p == sum);
                    let Some((target_arg, _)) = target else { continue };
                    if !self.implies_nonneg(atoms, cons, e1)
                        || !self.implies_nonneg(atoms, cons, e2)
                    {
                        continue;
                    }
                    atoms.mark_prodp(t1, t2);
                    let fact = t1
                        .clone()
                        .mul(t2.clone())
                        .sub(Term::pow2(target_arg.clone()));
                    if let Ok(p) = store::normalize_cached(&fact) {
                        cons.push(atoms.lincon(&p, BigInt::zero()));
                        let mut n = p.clone();
                        n.scale(&BigInt::from(-1));
                        cons.push(atoms.lincon(&n, BigInt::zero()));
                        eq_facts.push(p);
                        added = true;
                    }
                }
            }
        }

        // Pairwise Pow2 monotonicity: e1 <= e2 implied => Pow2(e1) <= Pow2(e2).
        let pows: Vec<Term> =
            candidates.iter().filter(|t| matches!(t, Term::Pow2(_))).cloned().collect();
        for p1 in &pows {
            for p2 in &pows {
                if p1 == p2 || atoms.mono_done(p1, p2) {
                    continue;
                }
                let (Term::Pow2(e1), Term::Pow2(e2)) = (p1, p2) else { continue };
                let diff = (**e2).clone().sub((**e1).clone());
                if self.implies_nonneg(atoms, cons, &diff) {
                    atoms.mark_mono(p1, p2);
                    added |= push_fact(sub_norm(p2, p1), BigInt::zero(), atoms, cons, cap);
                }
            }
        }
        atoms.candidates = candidates;
        added
    }

    fn implies_positive(&self, atoms: &mut AtomTable, cons: &[LinCon], b: &Term) -> bool {
        // b >= 1  <=>  refute(cons AND b <= 0).
        let Ok(p) = sub_norm(&Term::int(0), b) else { return false };
        // Quick syntactic wins: positive constants and Pow2 atoms.
        if let Some(c) = p.as_const() {
            return (-c) >= BigInt::one();
        }
        if matches!(b, Term::Pow2(_)) {
            return true;
        }
        let probe_con = atoms.lincon(&p, BigInt::zero());
        matches!(self.probe_refute(atoms, cons, probe_con), Refutation::Unsat)
    }

    /// A cheaper refutation used by saturation probes: small relevance
    /// prefixes with a reduced budget (probes are asked often and usually
    /// have local certificates). `probe_con` is the negated fact being
    /// probed; it joins `cons` as a virtual last element (the constraint
    /// set itself is never cloned) and seeds the relevance filter.
    fn probe_refute(
        &self,
        atoms: &mut AtomTable,
        cons: &[LinCon],
        probe_con: LinCon,
    ) -> Refutation {
        let budget = self.limits.fm_budget / 4;
        // The case's constraints are interned once; each prefix is a copy
        // of machine words and a memoised repeat costs an id sort.
        atoms.sync_con_ids(cons);
        let probe_id = intern_con(&probe_con);
        let id_at = |i: usize| -> ConId {
            if i == cons.len() {
                probe_id
            } else {
                atoms.con_ids[i]
            }
        };
        let seeds: std::collections::BTreeSet<usize> =
            probe_con.coeffs.keys().copied().collect();
        if seeds.is_empty() {
            let sub: Vec<ConId> = (0..=cons.len()).map(id_at).collect();
            return refute_ids(&sub, budget);
        }
        let order = relevance_order(cons, &seeds, Some(&probe_con));
        for cap in [32usize, 96] {
            let take = cap.min(order.len());
            let sub: Vec<ConId> = order[..take].iter().map(|&i| id_at(i)).collect();
            if refute_ids(&sub, budget) == Refutation::Unsat {
                return Refutation::Unsat;
            }
            if take == order.len() {
                return Refutation::Unknown;
            }
        }
        let sub: Vec<ConId> = order.iter().map(|&i| id_at(i)).collect();
        refute_ids(&sub, budget)
    }

    fn implies_nonneg(&self, atoms: &mut AtomTable, cons: &[LinCon], d: &Term) -> bool {
        // d >= 0  <=>  refute(cons AND d <= -1).
        let Ok(p) = sub_norm(&Term::int(0), d) else { return false };
        if let Some(c) = p.as_const() {
            return !(-c).is_negative();
        }
        let probe_con = atoms.lincon(&p, BigInt::from(-1));
        matches!(self.probe_refute(atoms, cons, probe_con), Refutation::Unsat)
    }
}

/// Orders constraints by the BFS round (shared-atom distance from the seed
/// atoms) at which they join, ties within a round broken by constraint
/// index — certificates tend to be local, so callers try growing prefixes
/// of this order. `extra` (a probe constraint) joins as a virtual element
/// at index `cons.len()`, avoiding a clone of `cons`. Single pass: an
/// atom → constraints incidence index is built once, then each BFS round
/// only touches the constraints incident to atoms that joined in the
/// previous round.
fn relevance_order(
    cons: &[LinCon],
    seeds: &std::collections::BTreeSet<usize>,
    extra: Option<&LinCon>,
) -> Vec<usize> {
    let total = cons.len() + extra.is_some() as usize;
    let con_at = |i: usize| -> &LinCon {
        if i < cons.len() {
            &cons[i]
        } else {
            extra.expect("index beyond cons only with extra")
        }
    };
    let max_atom = (0..total)
        .flat_map(|i| con_at(i).coeffs.keys().copied())
        .chain(seeds.iter().copied())
        .max();
    let Some(max_atom) = max_atom else { return Vec::new() };
    // Atom -> incident constraint indices, one pass.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); max_atom + 1];
    for i in 0..total {
        for &k in con_at(i).coeffs.keys() {
            adj[k].push(i as u32);
        }
    }
    let mut in_rel = vec![false; max_atom + 1];
    let mut chosen = vec![false; total];
    let mut order: Vec<usize> = Vec::new();
    let mut frontier: Vec<usize> = seeds.iter().copied().collect();
    for &a in &frontier {
        in_rel[a] = true;
    }
    while !frontier.is_empty() {
        let mut round: Vec<u32> = Vec::new();
        for &a in &frontier {
            for &ci in &adj[a] {
                if !chosen[ci as usize] {
                    chosen[ci as usize] = true;
                    round.push(ci);
                }
            }
        }
        // Within a round, constraints join in index order (this matches
        // the original full-rescan order exactly, so prefix contents are
        // unchanged).
        round.sort_unstable();
        let mut next: Vec<usize> = Vec::new();
        for &ci in &round {
            order.push(ci as usize);
            for &k in con_at(ci as usize).coeffs.keys() {
                if !in_rel[k] {
                    in_rel[k] = true;
                    next.push(k);
                }
            }
        }
        frontier = next;
    }
    order
}

/// A polynomial rewrite rule `coeff * monomial == -tail` (with
/// `coeff > 0`), oriented from an equality hypothesis by its largest
/// monomial under the degree-lexicographic order.
#[derive(Clone, Debug)]
struct Rule {
    coeff: BigInt,
    monomial: Vec<Term>,
    tail: Poly,
}

fn deglex_key(m: &[Term]) -> (usize, Vec<Term>) {
    (m.len(), m.to_vec())
}

fn make_rules(eqs: &[Poly]) -> Vec<Rule> {
    let mut out = Vec::new();
    for p in eqs {
        if p.is_zero() {
            continue;
        }
        let chosen = choose_rule_monomial(p);
        let Some((m, c)) = chosen else { continue };
        let mut p = p.clone();
        let mut coeff = c;
        if coeff.is_negative() {
            p.scale(&BigInt::from(-1));
            coeff = -coeff;
        }
        let mut tail = p;
        tail.terms.remove(&m);
        out.push(Rule { coeff, monomial: m, tail });
    }
    out
}

/// Picks the monomial an equality is oriented around:
/// 1. a bare variable with unit coefficient not occurring elsewhere
///    (classic substitution — lets invariant equations like `R == f(i)`
///    rewrite `R` everywhere, including inside `Div` arguments);
/// 2. for two-monomial equalities between single `Pow2` atoms whose
///    arguments differ by a constant, the atom with the larger constant
///    (canonical shift direction `Pow2(x+k) -> 2^k Pow2(x)`);
/// 3. otherwise the degree-lexicographically largest monomial.
fn choose_rule_monomial(p: &Poly) -> Option<(Monomial, BigInt)> {
    // 1. Variable substitution.
    for (m, c) in &p.terms {
        if m.len() != 1 || !(c.is_one() || (-c.clone()).is_one()) {
            continue;
        }
        let Term::Var(x) = &m[0] else { continue };
        let occurs_elsewhere = p.terms.iter().any(|(n, _)| {
            if n == m {
                return false;
            }
            n.iter().any(|atom| store::has_free_var(atom, x))
        });
        if !occurs_elsewhere {
            return Some((m.clone(), c.clone()));
        }
    }
    // 2. Pow2 shift orientation.
    if p.terms.len() == 2 {
        let entries: Vec<(&Monomial, &BigInt)> = p.terms.iter().collect();
        {
            let ((m1, c1), (m2, c2)) = (entries[0], entries[1]);
            if m1.len() == 1 && m2.len() == 1 {
                if let (Term::Pow2(e1), Term::Pow2(e2)) = (&m1[0], &m2[0]) {
                    if let (Ok(p1), Ok(p2)) = (store::normalize_cached(e1), store::normalize_cached(e2)) {
                        let mut diff = p1;
                        let mut n2 = p2;
                        n2.scale(&BigInt::from(-1));
                        diff.add(&n2);
                        if let Some(k) = diff.as_const() {
                            let (big, coeff) = if !k.is_negative() { (m1, c1) } else { (m2, c2) };
                            if coeff.is_one() || (-(*coeff).clone()).is_one() {
                                return Some((big.clone(), coeff.clone()));
                            }
                        }
                    }
                }
            }
        }
    }
    // 3. Degree-lex maximum.
    p.terms
        .iter()
        .filter(|(m, _)| !m.is_empty())
        .max_by_key(|(m, _)| deglex_key(m))
        .map(|(m, c)| (m.clone(), c.clone()))
}

/// Removes one occurrence of `sub` (as a multiset) from `m`, if contained.
fn multiset_minus(m: &[Term], sub: &[Term]) -> Option<Vec<Term>> {
    let mut rest = m.to_vec();
    for s in sub {
        let i = rest.iter().position(|x| x == s)?;
        rest.remove(i);
    }
    Some(rest)
}

/// Reduces `poly` by the rules: wherever a monomial contains a rule's
/// monomial, the whole constraint is scaled by the rule's (positive)
/// coefficient and the occurrence replaced by the rule's tail. Sound for
/// `>= 0` constraints; `cap` bounds total rewrites.
fn reduce_poly(poly: &mut Poly, rules: &[Rule], cap: &mut usize) {
    'outer: while *cap > 0 {
        for rule in rules {
            let hit = poly.terms.iter().find_map(|(n, d)| {
                if n.len() < rule.monomial.len() {
                    return None;
                }
                multiset_minus(n, &rule.monomial).map(|rest| (n.clone(), d.clone(), rest))
            });
            if let Some((n, d, mprime)) = hit {
                *cap -= 1;
                // poly' = coeff*poly - coeff*d*N - d*(tail x M')
                poly.scale(&rule.coeff);
                let entry = poly
                    .terms
                    .get_mut(&n)
                    .expect("monomial still present after scaling");
                *entry -= &(&rule.coeff * &d);
                if entry.is_zero() {
                    poly.terms.remove(&n);
                }
                let mut mono = Poly::zero();
                mono.terms.insert(mprime, BigInt::one());
                let mut t = rule.tail.clone();
                t.scale(&-d);
                poly.add(&t.mul(&mono));
                continue 'outer;
            }
        }
        return;
    }
}

/// Like [`reduce_poly`] but only applies *unit-coefficient* rules and never
/// scales the polynomial — so the result is value-equal under the rule
/// equalities, which makes it safe to use inside atom arguments
/// (congruence).
fn reduce_poly_unit(poly: &mut Poly, rules: &[Rule], cap: &mut usize) {
    'outer: while *cap > 0 {
        for rule in rules {
            if !rule.coeff.is_one() {
                continue;
            }
            let hit = poly.terms.iter().find_map(|(n, d)| {
                if n.len() < rule.monomial.len() {
                    return None;
                }
                multiset_minus(n, &rule.monomial).map(|rest| (n.clone(), d.clone(), rest))
            });
            if let Some((n, d, mprime)) = hit {
                *cap -= 1;
                // poly' = poly - d*N + d*(M' x (-tail))
                poly.terms.remove(&n);
                let mut mono = Poly::zero();
                mono.terms.insert(mprime, BigInt::one());
                let mut t = rule.tail.clone();
                t.scale(&-d);
                poly.add(&t.mul(&mono));
                continue 'outer;
            }
        }
        return;
    }
}

/// Rebuilds an atom with its arguments reduced by the unit rules
/// (congruence under the hypothesis equalities).
fn deep_reduce_atom(a: &Term, rules: &[Rule], cap: &mut usize, depth: usize) -> Term {
    if depth > 8 || *cap == 0 {
        return a.clone();
    }
    let red = |t: &Term, cap: &mut usize| deep_reduce_term(t, rules, cap, depth + 1);
    match a {
        Term::Div(x, y) => Term::Div(
            Box::new(red(x, cap)),
            Box::new(red(y, cap)),
        ),
        Term::Mod(x, y) => Term::Mod(Box::new(red(x, cap)), Box::new(red(y, cap))),
        Term::Pow2(e) => Term::Pow2(Box::new(red(e, cap))),
        Term::BitAnd(x, y) => Term::BitAnd(Box::new(red(x, cap)), Box::new(red(y, cap))),
        Term::BitOr(x, y) => Term::BitOr(Box::new(red(x, cap)), Box::new(red(y, cap))),
        Term::BitXor(x, y) => Term::BitXor(Box::new(red(x, cap)), Box::new(red(y, cap))),
        Term::App(f, args) => Term::App(
            f.clone(),
            args.iter().map(|x| red(x, cap)).collect(),
        ),
        _ => a.clone(),
    }
}

/// Normalises, unit-reduces, and atom-rebuilds a term to a canonical form
/// modulo the hypothesis equalities.
fn deep_reduce_term(t: &Term, rules: &[Rule], cap: &mut usize, depth: usize) -> Term {
    let Ok(mut p) = store::normalize_cached(t) else { return t.clone() };
    reduce_poly_unit(&mut p, rules, cap);
    let mut out = Poly::zero();
    for (m, c) in &p.terms {
        let mut mono = Poly::constant(c.clone());
        for atom in m {
            let rebuilt = deep_reduce_atom(atom, rules, cap, depth);
            let ap = store::normalize_cached(&rebuilt).unwrap_or_else(|_| Poly::atom(rebuilt));
            mono = mono.mul(&ap);
        }
        out.add(&mono);
    }
    reduce_poly_unit(&mut out, rules, cap);
    out.to_term()
}

/// Collects `Div` and `Pow2` sub-terms (for fact generation), recursively.
/// `seen` dedups across calls by interned id (first occurrence kept).
fn collect_fact_terms(t: &Term, out: &mut Vec<Term>, seen: &mut HashSet<TermId>) {
    match t {
        Term::Div(a, b) => {
            if seen.insert(store::intern(t)) {
                out.push(t.clone());
            }
            collect_fact_terms(a, out, seen);
            collect_fact_terms(b, out, seen);
        }
        Term::Pow2(e) => {
            if seen.insert(store::intern(t)) {
                out.push(t.clone());
            }
            collect_fact_terms(e, out, seen);
        }
        Term::Const(_) | Term::Var(_) => {}
        Term::Add(ts) | Term::Mul(ts) | Term::App(_, ts) => {
            for x in ts {
                collect_fact_terms(x, out, seen);
            }
        }
        Term::Mod(a, b) | Term::BitAnd(a, b) | Term::BitOr(a, b) | Term::BitXor(a, b) => {
            collect_fact_terms(a, out, seen);
            collect_fact_terms(b, out, seen);
        }
        Term::Ite(_, a, b) => {
            collect_fact_terms(a, out, seen);
            collect_fact_terms(b, out, seen);
        }
    }
}

/// `store::normalize_cached(b - a)`.
fn sub_norm(b: &Term, a: &Term) -> Result<Poly, String> {
    store::normalize_cached(&b.clone().sub(a.clone()))
        .map_err(|e| format!("unsplit conditional survived: {}", e.0))
}

/// A literal of the linear core.
#[derive(Clone, Debug)]
enum Literal {
    /// `a == b` (also used to derive polynomial rewrite rules).
    Eq(Term, Term),
    /// `a <= b`.
    Le(Term, Term),
    /// `a < b`.
    Lt(Term, Term),
    /// A boolean variable with a polarity.
    Bool(Sym, bool),
}

/// Expands a hypothesis into the cross-product of literal cases.
fn expand_hyp(h: &Formula, cases: &mut Vec<Vec<Literal>>, cap: usize) -> Result<(), String> {
    match h {
        Formula::True => Ok(()),
        Formula::False => {
            // An absurd hypothesis proves anything: encode 0 < 0.
            for c in cases.iter_mut() {
                c.push(Literal::Lt(Term::int(0), Term::int(0)));
            }
            Ok(())
        }
        Formula::BVar(v) => {
            for c in cases.iter_mut() {
                c.push(Literal::Bool(v.clone(), true));
            }
            Ok(())
        }
        Formula::Eq(a, b) => {
            for c in cases.iter_mut() {
                c.push(Literal::Eq(a.clone(), b.clone()));
            }
            Ok(())
        }
        Formula::Le(a, b) => {
            for c in cases.iter_mut() {
                c.push(Literal::Le(a.clone(), b.clone()));
            }
            Ok(())
        }
        Formula::Lt(a, b) => {
            for c in cases.iter_mut() {
                c.push(Literal::Lt(a.clone(), b.clone()));
            }
            Ok(())
        }
        Formula::And(fs) => {
            for f in fs {
                expand_hyp(f, cases, cap)?;
            }
            Ok(())
        }
        Formula::Or(fs) => {
            let base = cases.clone();
            let mut out = Vec::new();
            for f in fs {
                let mut branch = base.clone();
                expand_hyp(f, &mut branch, cap)?;
                out.extend(branch);
            }
            if out.len() > cap {
                return Err(format!("hypothesis case explosion ({} cases)", out.len()));
            }
            *cases = out;
            Ok(())
        }
        Formula::Implies(a, b) => {
            // a ⟹ b  ≡  ¬a ∨ b.
            let neg = (**a).clone().not();
            expand_hyp(&Formula::Or(vec![neg, (**b).clone()]), cases, cap)
        }
        Formula::Not(inner) => match &**inner {
            Formula::True => expand_hyp(&Formula::False, cases, cap),
            Formula::False => Ok(()),
            Formula::BVar(v) => {
                for c in cases.iter_mut() {
                    c.push(Literal::Bool(v.clone(), false));
                }
                Ok(())
            }
            Formula::Eq(a, b) => expand_hyp(
                &Formula::Or(vec![
                    Formula::Lt(a.clone(), b.clone()),
                    Formula::Lt(b.clone(), a.clone()),
                ]),
                cases,
                cap,
            ),
            Formula::Le(a, b) => expand_hyp(&Formula::Lt(b.clone(), a.clone()), cases, cap),
            Formula::Lt(a, b) => expand_hyp(&Formula::Le(b.clone(), a.clone()), cases, cap),
            Formula::Not(x) => expand_hyp(x, cases, cap),
            Formula::And(fs) => {
                let negs = fs.iter().map(|f| f.clone().not()).collect();
                expand_hyp(&Formula::Or(negs), cases, cap)
            }
            Formula::Or(fs) => {
                for f in fs {
                    expand_hyp(&f.clone().not(), cases, cap)?;
                }
                Ok(())
            }
            Formula::Implies(a, b) => {
                expand_hyp(a, cases, cap)?;
                expand_hyp(&(**b).clone().not(), cases, cap)
            }
        },
    }
}

/// Adds "bound product" facts: for every composite monomial `u*v` with a
/// known constant lower/upper bound on each factor, the product of the two
/// non-negative bound differences is non-negative — e.g. from `u >= 1` and
/// `v >= 1` follows `u*v - u - v + 1 >= 0`. This is the minimal nonlinear
/// glue connecting product atoms to their factors (a one-step
/// Positivstellensatz certificate), and is what lets the automatic core
/// conclude facts like `x/m == 0` from `0 <= x < m`.
fn bound_products(atoms: &mut AtomTable, cons: &mut Vec<LinCon>) -> bool {
    // Infer constant bounds from single-atom constraints `c*x + k >= 0`.
    let mut lower: BTreeMap<usize, BigInt> = BTreeMap::new();
    let mut upper: BTreeMap<usize, BigInt> = BTreeMap::new();
    for con in cons.iter() {
        if con.coeffs.len() != 1 {
            continue;
        }
        let (&i, c) = con.coeffs.iter().next().expect("len checked");
        if c.is_negative() {
            // x <= floor(k / -c)
            let ub = con.constant.div_floor(&-c.clone());
            match upper.get(&i) {
                Some(old) if *old <= ub => {}
                _ => {
                    upper.insert(i, ub);
                }
            }
        } else {
            // x >= ceil(-k / c) == -floor(k / c)
            let lb = -(con.constant.div_floor(c));
            match lower.get(&i) {
                Some(old) if *old >= lb => {}
                _ => {
                    lower.insert(i, lb);
                }
            }
        }
    }
    let mut added = false;
    let n = atoms.atoms.len();
    for idx in 0..n {
        let t = atoms.atoms[idx].clone();
        let Term::Mul(parts) = &t else { continue };
        if parts.len() < 2 {
            continue;
        }
        let u = parts[0].clone();
        let v = if parts.len() == 2 {
            parts[1].clone()
        } else {
            Term::Mul(parts[1..].to_vec())
        };
        let ui = atoms.intern(u);
        let vi = atoms.intern(v);
        let bounds_u: Vec<(i8, BigInt)> = [(1i8, lower.get(&ui)), (-1i8, upper.get(&ui))]
            .into_iter()
            .filter_map(|(s, b)| b.map(|b| (s, b.clone())))
            .collect();
        let bounds_v: Vec<(i8, BigInt)> = [(1i8, lower.get(&vi)), (-1i8, upper.get(&vi))]
            .into_iter()
            .filter_map(|(s, b)| b.map(|b| (s, b.clone())))
            .collect();
        for (su, bu) in &bounds_u {
            for (sv, bv) in &bounds_v {
                let key = (idx, *su, *sv, bu.clone(), bv.clone());
                if atoms.prod_done.contains_key(&key) {
                    continue;
                }
                atoms.prod_done.insert(key, ());
                // su*(u - bu) >= 0 and sv*(v - bv) >= 0, so
                // su*sv*(u*v - bv*u - bu*v + bu*bv) >= 0.
                let sign = BigInt::from((*su as i64) * (*sv as i64));
                let mut coeffs: BTreeMap<usize, BigInt> = BTreeMap::new();
                *coeffs.entry(idx).or_insert_with(BigInt::zero) += &sign;
                *coeffs.entry(ui).or_insert_with(BigInt::zero) += &(&sign * &(-bv.clone()));
                *coeffs.entry(vi).or_insert_with(BigInt::zero) += &(&sign * &(-bu.clone()));
                coeffs.retain(|_, c| !c.is_zero());
                let constant = &sign * &(bu * bv);
                cons.push(LinCon { coeffs, constant });
                added = true;
            }
        }
    }
    added
}

/// Multiplies inequality constraints by atoms with known constant lower
/// bounds: from `p >= 0` and `u >= lu` follows `(u - lu)*p >= 0`, which is
/// linear over the (already existing) product atoms. Only products whose
/// every monomial is already interned are added, keeping the system from
/// growing into unrelated atoms. This closes goals like
/// `n*(a/(m*n)) <= a/m`, where a linear relation must be scaled by a
/// symbolic positive quantity.
/// Canonical signature of a derived product constraint: sorted coefficient
/// vector, constant offset, and the scaled atom's index.
type ProductSig = (Vec<(usize, BigInt)>, BigInt, usize);

fn ineq_atom_products(
    atoms: &mut AtomTable,
    cons: &mut Vec<LinCon>,
    seen: &mut std::collections::BTreeSet<ProductSig>,
) -> bool {
    // Constant lower bounds per atom (from single-atom constraints).
    let mut lower: BTreeMap<usize, BigInt> = BTreeMap::new();
    for con in cons.iter() {
        if con.coeffs.len() != 1 {
            continue;
        }
        let (&i, c) = con.coeffs.iter().next().expect("len checked");
        if !c.is_negative() {
            let lb = -(con.constant.div_floor(c));
            match lower.get(&i) {
                Some(old) if *old >= lb => {}
                _ => {
                    lower.insert(i, lb);
                }
            }
        }
    }
    // Product of an atom with an interned monomial, if the result is
    // already interned.
    let product_atom = |atoms: &AtomTable, i: usize, u: usize| -> Option<usize> {
        let mut parts = match &atoms.atoms[i] {
            Term::Mul(ps) => ps.clone(),
            other => vec![other.clone()],
        };
        match &atoms.atoms[u] {
            Term::Mul(ps) => parts.extend(ps.iter().cloned()),
            other => parts.push(other.clone()),
        }
        parts.sort();
        let t = if parts.len() == 1 {
            parts.pop().expect("nonempty")
        } else {
            Term::Mul(parts)
        };
        atoms.index.get(&store::intern(&t)).copied()
    };
    let snapshot: Vec<LinCon> = cons.clone();
    let mut added = false;
    for con in &snapshot {
        if con.coeffs.is_empty() || con.coeffs.len() > 4 {
            continue;
        }
        let key_base: Vec<(usize, BigInt)> =
            con.coeffs.iter().map(|(&i, c)| (i, c.clone())).collect();
        for (&u, lu) in &lower {
            if lu.is_negative() {
                continue;
            }
            let key = (key_base.clone(), con.constant.clone(), u);
            if seen.contains(&key) {
                continue;
            }
            // Every product atom must already exist.
            let Some(prods): Option<Vec<(usize, BigInt)>> = con
                .coeffs
                .iter()
                .map(|(&i, c)| product_atom(atoms, i, u).map(|pi| (pi, c.clone())))
                .collect()
            else {
                continue;
            };
            seen.insert(key);
            // (u - lu) * (sum c_i x_i + k) >= 0
            let mut coeffs: BTreeMap<usize, BigInt> = BTreeMap::new();
            for (pi, c) in prods {
                *coeffs.entry(pi).or_insert_with(BigInt::zero) += &c;
            }
            for (&i, c) in &con.coeffs {
                *coeffs.entry(i).or_insert_with(BigInt::zero) -= &(lu * c);
            }
            *coeffs.entry(u).or_insert_with(BigInt::zero) += &con.constant;
            let constant = -(lu * &con.constant);
            coeffs.retain(|_, c| !c.is_zero());
            cons.push(LinCon { coeffs, constant });
            added = true;
        }
    }
    added
}

/// Atom interning: maps monomials to linear-arithmetic variable indices.
///
/// Done-sets and the atom index are keyed by hash-consed [`TermId`]s —
/// probes are an intern walk (shallow per-node hashing, cache hit on every
/// already-seen node) plus one `HashSet` lookup, instead of the deep
/// `Term` clones and `BTreeMap` comparisons they used to be. The `Term`
/// values themselves stay in `atoms` for the structural inspections proof
/// search needs (rule orientation, product bounding).
#[derive(Default)]
struct AtomTable {
    atoms: Vec<Term>,
    index: HashMap<TermId, usize>,
    facts: HashSet<TermId>,
    mono: HashSet<(TermId, TermId)>,
    prod_done: BTreeMap<(usize, i8, i8, BigInt, BigInt), ()>,
    shift_done: HashSet<TermId>,
    prodp_done: HashSet<(TermId, TermId)>,
    sign_done: HashSet<(TermId, u8)>,
    /// High-water mark: atoms below this index have been scanned for
    /// `Div`/`Pow2` fact candidates.
    scanned: usize,
    /// Fact candidates in first-seen DFS order. Because `atoms` is
    /// append-only, scanning only `atoms[scanned..]` each saturation round
    /// and appending unseen sub-terms yields exactly the list a full
    /// rescan would (the old behaviour), without the O(rounds × atoms)
    /// re-walk or the O(n²) `Vec::contains` dedup.
    candidates: Vec<Term>,
    /// Ids of terms already in `candidates`.
    candidate_seen: HashSet<TermId>,
    /// Interned mirror of the case's constraint system: `con_ids[i]` is
    /// the [`ConId`] of the `i`-th constraint. The system is append-only,
    /// so the mirror extends lazily and every relevance prefix becomes a
    /// `Vec` of `Copy` ids — refutation probes stop re-converting
    /// coefficients on every call.
    con_ids: Vec<ConId>,
}

impl AtomTable {
    fn intern(&mut self, t: Term) -> usize {
        let tid = store::intern(&t);
        if let Some(&i) = self.index.get(&tid) {
            return i;
        }
        let i = self.atoms.len();
        self.atoms.push(t);
        self.index.insert(tid, i);
        i
    }

    /// Extends the interned-constraint mirror to cover `cons`.
    fn sync_con_ids(&mut self, cons: &[LinCon]) {
        while self.con_ids.len() < cons.len() {
            self.con_ids.push(intern_con(&cons[self.con_ids.len()]));
        }
    }

    /// Scans atoms added since the last call, appending their `Div`/`Pow2`
    /// sub-terms (first occurrence only) to the persistent candidate list.
    fn collect_new_candidates(&mut self) {
        while self.scanned < self.atoms.len() {
            let t = self.atoms[self.scanned].clone();
            self.scanned += 1;
            collect_fact_terms(&t, &mut self.candidates, &mut self.candidate_seen);
        }
    }

    fn fact_done(&self, t: &Term) -> bool {
        self.facts.contains(&store::intern(t))
    }

    fn mark_fact(&mut self, t: &Term) {
        self.facts.insert(store::intern(t));
    }

    fn mono_done(&self, a: &Term, b: &Term) -> bool {
        self.mono.contains(&(store::intern(a), store::intern(b)))
    }

    fn shift_done(&self, t: &Term) -> bool {
        self.shift_done.contains(&store::intern(t))
    }

    fn sign_done(&self, t: &Term, which: u8) -> bool {
        self.sign_done.contains(&(store::intern(t), which))
    }

    fn mark_sign(&mut self, t: &Term, which: u8) {
        self.sign_done.insert((store::intern(t), which));
    }

    fn mark_shift(&mut self, t: &Term) {
        self.shift_done.insert(store::intern(t));
    }

    fn prodp_done(&self, a: &Term, b: &Term) -> bool {
        self.prodp_done.contains(&(store::intern(a), store::intern(b)))
    }

    fn mark_prodp(&mut self, a: &Term, b: &Term) {
        self.prodp_done.insert((store::intern(a), store::intern(b)));
    }

    fn mark_mono(&mut self, a: &Term, b: &Term) {
        self.mono.insert((store::intern(a), store::intern(b)));
    }

    /// Converts a polynomial (plus an extra constant) to a constraint
    /// `poly + extra >= 0`.
    fn lincon(&mut self, p: &Poly, extra: BigInt) -> LinCon {
        let mut coeffs = BTreeMap::new();
        let mut constant = extra;
        for (m, c) in &p.terms {
            if m.is_empty() {
                constant += c;
                continue;
            }
            let atom = if m.len() == 1 {
                m[0].clone()
            } else {
                Term::Mul(m.clone())
            };
            let idx = self.intern(atom);
            *coeffs.entry(idx).or_insert_with(BigInt::zero) += c;
        }
        coeffs.retain(|_, c| !c.is_zero());
        LinCon { coeffs, constant }
    }
}

fn unfold_term(t: &Term, def: &DefFn) -> Term {
    match t {
        Term::App(f, args) if f == &def.name => {
            let args: Vec<Term> = args.iter().map(|a| unfold_term(a, def)).collect();
            let map: BTreeMap<Sym, Term> =
                def.params.iter().cloned().zip(args).collect();
            def.body.subst(&map)
        }
        Term::Const(_) | Term::Var(_) => t.clone(),
        Term::Add(ts) => Term::Add(ts.iter().map(|x| unfold_term(x, def)).collect()),
        Term::Mul(ts) => Term::Mul(ts.iter().map(|x| unfold_term(x, def)).collect()),
        Term::App(f, ts) => Term::App(f.clone(), ts.iter().map(|x| unfold_term(x, def)).collect()),
        Term::Div(a, b) => Term::Div(Box::new(unfold_term(a, def)), Box::new(unfold_term(b, def))),
        Term::Mod(a, b) => Term::Mod(Box::new(unfold_term(a, def)), Box::new(unfold_term(b, def))),
        Term::Pow2(a) => Term::Pow2(Box::new(unfold_term(a, def))),
        Term::BitAnd(a, b) => {
            Term::BitAnd(Box::new(unfold_term(a, def)), Box::new(unfold_term(b, def)))
        }
        Term::BitOr(a, b) => {
            Term::BitOr(Box::new(unfold_term(a, def)), Box::new(unfold_term(b, def)))
        }
        Term::BitXor(a, b) => {
            Term::BitXor(Box::new(unfold_term(a, def)), Box::new(unfold_term(b, def)))
        }
        Term::Ite(c, a, b) => Term::Ite(
            Box::new(unfold_formula(c, def)),
            Box::new(unfold_term(a, def)),
            Box::new(unfold_term(b, def)),
        ),
    }
}

fn unfold_formula(f: &Formula, def: &DefFn) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::BVar(_) => f.clone(),
        Formula::Eq(a, b) => Formula::Eq(unfold_term(a, def), unfold_term(b, def)),
        Formula::Le(a, b) => Formula::Le(unfold_term(a, def), unfold_term(b, def)),
        Formula::Lt(a, b) => Formula::Lt(unfold_term(a, def), unfold_term(b, def)),
        Formula::Not(x) => Formula::Not(Box::new(unfold_formula(x, def))),
        Formula::And(fs) => Formula::And(fs.iter().map(|x| unfold_formula(x, def)).collect()),
        Formula::Or(fs) => Formula::Or(fs.iter().map(|x| unfold_formula(x, def)).collect()),
        Formula::Implies(a, b) => Formula::Implies(
            Box::new(unfold_formula(a, def)),
            Box::new(unfold_formula(b, def)),
        ),
    }
}
