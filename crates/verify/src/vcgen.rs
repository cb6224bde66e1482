//! Verification-condition generation for generated sequential programs.
//!
//! This module implements the paper's §3.1 proof structure. A design's
//! correctness statement (`Init`'s `require`/`ensuring`) is reduced to:
//!
//! 1. **init** — the initial register state establishes the invariant;
//! 2. **preserve** — one application of `Trans` preserves the invariant
//!    whenever the run continues (the timeout has not fired on the new
//!    state), plus automatic register range bounds;
//! 3. **post** — when the timeout fires, the outputs/new registers satisfy
//!    the postcondition;
//! 4. **measure** — a user-supplied variant is non-negative and strictly
//!    decreases while the run continues, so `Run` terminates.
//!
//! `Trans` is executed *symbolically* (conditionals are merged into `Ite`
//! terms; `for` loops use user-supplied loop invariants), yielding VCs over
//! the kernel's integer logic. Every VC is discharged by the kernel with
//! either the automatic core or a user proof script keyed by VC name —
//! exactly the paper's "mostly automated, manually refined" workflow.

use crate::kernel::{DefFn, Env, Lemma, Proof, ProofError};
use crate::term::{Formula, Term};
use chicala_seq::{next_name, SBinop, SCmp, SExpr, SFunc, SStmt, SeqProgram};
use chicala_telemetry as telemetry;
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant};

/// A symbolic value: an integer term or a boolean formula.
#[derive(Clone, Debug)]
pub enum SymValue {
    /// Integer-valued.
    Int(Term),
    /// Boolean-valued.
    Bool(Formula),
}

impl SymValue {
    fn as_int(&self) -> Result<Term, VcError> {
        match self {
            SymValue::Int(t) => Ok(t.clone()),
            SymValue::Bool(f) => Ok(Term::Ite(
                Box::new(f.clone()),
                Box::new(Term::int(1)),
                Box::new(Term::int(0)),
            )),
        }
    }

    fn as_bool(&self) -> Result<Formula, VcError> {
        match self {
            SymValue::Bool(f) => Ok(f.clone()),
            SymValue::Int(t) => Ok(t.clone().eq(Term::int(1))),
        }
    }
}

/// A symbolic variable environment.
#[derive(Clone, Debug, Default)]
pub struct SymState {
    /// Variable bindings.
    pub vars: BTreeMap<String, SymValue>,
}

/// Errors from VC generation or discharge.
#[derive(Debug)]
pub enum VcError {
    /// Construct outside the symbolically executable subset.
    Unsupported(String),
    /// A verification condition failed to check.
    Failed {
        /// Name of the failing VC.
        vc: String,
        /// The kernel's error.
        error: ProofError,
    },
    /// A design-specific lemma failed to check.
    LemmaFailed {
        /// Lemma name.
        lemma: String,
        /// The kernel's error.
        error: ProofError,
    },
}

impl fmt::Display for VcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VcError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            VcError::Failed { vc, error } => write!(f, "VC `{vc}` failed: {error}"),
            VcError::LemmaFailed { lemma, error } => {
                write!(f, "lemma `{lemma}` failed: {error}")
            }
        }
    }
}

impl std::error::Error for VcError {}

/// A generated verification condition.
#[derive(Clone, Debug)]
pub struct Vc {
    /// Name (keys the proof-script table).
    pub name: String,
    /// Hypotheses.
    pub hyps: Vec<Formula>,
    /// Goal.
    pub goal: Formula,
}

/// The specification and proof artefacts for one design — the paper's
/// `require`/`ensuring` annotations, invariants, timeout, measure, lemmas,
/// and proof scripts (the `#Scala-vrf` content of Table 1).
#[derive(Clone, Debug)]
pub struct DesignSpec {
    /// Preconditions over parameters and inputs (`require` in `Init`).
    pub requires: Vec<SExpr>,
    /// Run invariant over parameters, inputs, and current registers.
    pub invariant: Vec<SExpr>,
    /// Timeout condition over the *new* register state (`setTimeout`).
    pub timeout: SExpr,
    /// Postconditions over parameters, inputs, outputs, and new registers
    /// (`ensuring` in `Init`).
    pub post: Vec<SExpr>,
    /// Termination measure over parameters and current registers.
    pub measure: SExpr,
    /// Loop invariants, one list per `for` loop of `Trans` in execution
    /// order.
    pub loop_invariants: Vec<Vec<SExpr>>,
    /// Extra defined functions (ghost recursion, e.g. Booth partial sums).
    pub defs: Vec<DefFn>,
    /// Design-specific lemmas with their proofs, checked before the VCs.
    pub lemmas: Vec<(Lemma, Proof)>,
    /// Lemmas admitted without kernel proof (extending the trusted base;
    /// they must carry the same randomized-evaluation validation as the
    /// kernel's own axioms — see the design's tests).
    pub trusted: Vec<Lemma>,
    /// Proof scripts per VC name (default: the automatic core).
    pub proofs: BTreeMap<String, Proof>,
}

impl Default for DesignSpec {
    fn default() -> Self {
        DesignSpec {
            requires: Vec::new(),
            invariant: Vec::new(),
            timeout: SExpr::BoolConst(true),
            post: Vec::new(),
            measure: SExpr::Const(chicala_bigint::BigInt::zero()),
            loop_invariants: Vec::new(),
            defs: Vec::new(),
            lemmas: Vec::new(),
            trusted: Vec::new(),
            proofs: BTreeMap::new(),
        }
    }
}

impl DesignSpec {
    /// The proof script for the VC named `name`: its entry in
    /// [`DesignSpec::proofs`], or [`Proof::Auto`].
    pub fn proof(&self, name: &str) -> &Proof {
        self.proofs.get(name).unwrap_or(&Proof::Auto)
    }

    /// A rough line count of annotations, lemmas, and proof scripts — used
    /// for the `#Scala-vrf` column of Table 1.
    pub fn annotation_loc(&self) -> usize {
        let mut n = 0;
        n += self.requires.len() + self.invariant.len() + self.post.len() + 2; // timeout+measure
        for invs in &self.loop_invariants {
            n += invs.len();
        }
        for d in &self.defs {
            n += 1 + d.body.to_string().lines().count();
        }
        for (l, p) in &self.lemmas {
            n += 1 + l.hyps.len() + p.loc();
        }
        n += self.proofs.values().map(Proof::loc).sum::<usize>();
        n
    }
}

struct ExecCtx<'p> {
    funcs: BTreeMap<String, &'p SFunc>,
    assumptions: Vec<Formula>,
    vcs: Vec<Vc>,
    loop_invs: Vec<Vec<SExpr>>,
    loop_counter: usize,
    fresh_counter: usize,
}

impl ExecCtx<'_> {
    fn fresh(&mut self, base: &str) -> String {
        self.fresh_counter += 1;
        format!("{base}!{}", self.fresh_counter)
    }

    fn push_vc(&mut self, name: String, goal: Formula) {
        self.vcs.push(Vc { name, hyps: self.assumptions.clone(), goal });
    }

    /// Binds each of `names` in `st` to a fresh symbol of its kind.
    fn havoc(&mut self, names: &[String], st: &mut SymState) {
        for name in names {
            let fresh = self.fresh(name);
            let sym = match st.vars.get(name) {
                Some(SymValue::Bool(_)) => SymValue::Bool(Formula::BVar(fresh)),
                _ => SymValue::Int(Term::var(fresh)),
            };
            st.vars.insert(name.clone(), sym);
        }
    }
}

fn eval_sexpr(e: &SExpr, st: &SymState, ctx: &mut ExecCtx<'_>) -> Result<SymValue, VcError> {
    Ok(match e {
        SExpr::Const(c) => SymValue::Int(Term::Const(c.clone())),
        SExpr::BoolConst(b) => SymValue::Bool(if *b { Formula::True } else { Formula::False }),
        SExpr::Var(n) => st
            .vars
            .get(n)
            .cloned()
            .ok_or_else(|| VcError::Unsupported(format!("unbound variable `{n}`")))?,
        SExpr::Binop(op, a, b) => {
            let x = eval_sexpr(a, st, ctx)?.as_int()?;
            let y = eval_sexpr(b, st, ctx)?.as_int()?;
            SymValue::Int(match op {
                SBinop::Add => x.add(y),
                SBinop::Sub => x.sub(y),
                SBinop::Mul => x.mul(y),
                SBinop::Div => x.div(y),
                SBinop::Mod => x.imod(y),
                SBinop::BitAnd => Term::BitAnd(Box::new(x), Box::new(y)),
                SBinop::BitOr => Term::BitOr(Box::new(x), Box::new(y)),
                SBinop::BitXor => Term::BitXor(Box::new(x), Box::new(y)),
            })
        }
        SExpr::Pow2(a) => SymValue::Int(Term::pow2(eval_sexpr(a, st, ctx)?.as_int()?)),
        SExpr::Cmp(op, a, b) => {
            let x = eval_sexpr(a, st, ctx)?.as_int()?;
            let y = eval_sexpr(b, st, ctx)?.as_int()?;
            SymValue::Bool(match op {
                SCmp::Eq => x.eq(y),
                SCmp::Ne => x.eq(y).not(),
                SCmp::Lt => x.lt(y),
                SCmp::Le => x.le(y),
                SCmp::Gt => x.gt(y),
                SCmp::Ge => x.ge(y),
            })
        }
        SExpr::And(a, b) => SymValue::Bool(
            eval_sexpr(a, st, ctx)?.as_bool()?.and(eval_sexpr(b, st, ctx)?.as_bool()?),
        ),
        SExpr::Or(a, b) => SymValue::Bool(
            eval_sexpr(a, st, ctx)?.as_bool()?.or(eval_sexpr(b, st, ctx)?.as_bool()?),
        ),
        SExpr::Not(a) => SymValue::Bool(eval_sexpr(a, st, ctx)?.as_bool()?.not()),
        SExpr::Ite(c, t, f) => {
            let c = eval_sexpr(c, st, ctx)?.as_bool()?;
            let tv = eval_sexpr(t, st, ctx)?;
            let fv = eval_sexpr(f, st, ctx)?;
            match (&tv, &fv) {
                (SymValue::Bool(a), SymValue::Bool(b)) => SymValue::Bool(
                    c.clone().and(a.clone()).or(c.not().and(b.clone())),
                ),
                _ => SymValue::Int(Term::Ite(
                    Box::new(c),
                    Box::new(tv.as_int()?),
                    Box::new(fv.as_int()?),
                )),
            }
        }
        SExpr::Call(name, args) => {
            let f = *ctx
                .funcs
                .get(name)
                .ok_or_else(|| VcError::Unsupported(format!("unknown function `{name}`")))?;
            if !f.requires.is_empty() || !f.ensures.is_empty() {
                return Err(VcError::Unsupported(format!(
                    "symbolic call to contracted function `{name}` — model it as a kernel \
                     definition in the spec instead"
                )));
            }
            let mut sub = SymState::default();
            for (p, a) in f.params.iter().zip(args) {
                sub.vars.insert(p.clone(), eval_sexpr(a, st, ctx)?);
            }
            exec_stmts(&f.body, &mut sub, ctx)?;
            eval_sexpr(&f.result, &sub, ctx)?
        }
        SExpr::ListLit(_)
        | SExpr::ListGet(..)
        | SExpr::ListSet(..)
        | SExpr::ListLen(_)
        | SExpr::ListFill(..)
        | SExpr::ListAppend(..)
        | SExpr::Sum(_)
        | SExpr::ToZ(_) => {
            return Err(VcError::Unsupported(
                "list values are not supported symbolically; formulate the design's \
                 verified core over integer accumulators"
                    .into(),
            ))
        }
    })
}

fn assigned_names(stmts: &[SStmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            SStmt::Let { name, .. } | SStmt::Assign { name, .. } => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            SStmt::If { then_body, else_body, .. } => {
                assigned_names(then_body, out);
                assigned_names(else_body, out);
            }
            SStmt::For { body, .. } => assigned_names(body, out),
        }
    }
}

fn exec_stmts(
    stmts: &[SStmt],
    st: &mut SymState,
    ctx: &mut ExecCtx<'_>,
) -> Result<(), VcError> {
    for s in stmts {
        match s {
            SStmt::Let { name, init } | SStmt::Assign { name, rhs: init } => {
                let v = eval_sexpr(init, st, ctx)?;
                st.vars.insert(name.clone(), v);
            }
            SStmt::If { cond, then_body, else_body } => {
                let c = eval_sexpr(cond, st, ctx)?.as_bool()?;
                let mut st_then = st.clone();
                let mut st_else = st.clone();
                exec_stmts(then_body, &mut st_then, ctx)?;
                exec_stmts(else_body, &mut st_else, ctx)?;
                // Merge: variables differing between the branches become
                // conditionals.
                let mut merged = BTreeMap::new();
                let names: Vec<String> = st_then
                    .vars
                    .keys()
                    .chain(st_else.vars.keys())
                    .cloned()
                    .collect();
                for name in names {
                    if merged.contains_key(&name) {
                        continue;
                    }
                    let v = match (st_then.vars.get(&name), st_else.vars.get(&name)) {
                        (Some(a), Some(b)) => merge_values(&c, a, b)?,
                        (Some(a), None) => a.clone(),
                        (None, Some(b)) => b.clone(),
                        (None, None) => unreachable!("key came from one of the maps"),
                    };
                    merged.insert(name, v);
                }
                st.vars = merged;
            }
            SStmt::For { var, start, end, invariants, body } => {
                exec_loop(var, start, end, invariants, body, st, ctx)?;
            }
        }
    }
    Ok(())
}

fn merge_values(c: &Formula, a: &SymValue, b: &SymValue) -> Result<SymValue, VcError> {
    match (a, b) {
        (SymValue::Bool(x), SymValue::Bool(y)) => {
            if x == y {
                return Ok(a.clone());
            }
            Ok(SymValue::Bool(
                c.clone().and(x.clone()).or(c.clone().not().and(y.clone())),
            ))
        }
        _ => {
            let (x, y) = (a.as_int()?, b.as_int()?);
            if x == y {
                return Ok(SymValue::Int(x));
            }
            Ok(SymValue::Int(Term::Ite(Box::new(c.clone()), Box::new(x), Box::new(y))))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn exec_loop(
    var: &str,
    start: &SExpr,
    end: &SExpr,
    explicit_invs: &[SExpr],
    body: &[SStmt],
    st: &mut SymState,
    ctx: &mut ExecCtx<'_>,
) -> Result<(), VcError> {
    let k = ctx.loop_counter;
    ctx.loop_counter += 1;
    let invs: Vec<SExpr> = if !explicit_invs.is_empty() {
        explicit_invs.to_vec()
    } else {
        ctx.loop_invs.get(k).cloned().unwrap_or_default()
    };
    if invs.is_empty() {
        return Err(VcError::Unsupported(format!(
            "loop {k} has no invariants; supply them via DesignSpec::loop_invariants"
        )));
    }
    let start_t = eval_sexpr(start, st, ctx)?.as_int()?;
    let end_t = eval_sexpr(end, st, ctx)?.as_int()?;
    // Bounds VC: the loop range is well-formed.
    ctx.push_vc(format!("loop{k}:bounds"), start_t.clone().le(end_t.clone()));

    // Entry VC: invariant at var = start.
    let mut entry_st = st.clone();
    entry_st.vars.insert(var.to_string(), SymValue::Int(start_t.clone()));
    for (i, inv) in invs.iter().enumerate() {
        let g = eval_sexpr(inv, &entry_st, ctx)?.as_bool()?;
        ctx.push_vc(format!("loop{k}:entry:{i}"), g);
    }

    // Preservation: havoc the assigned variables, assume the invariant at
    // an arbitrary iteration, execute the body once, check it at var + 1.
    let mut assigned = Vec::new();
    assigned_names(body, &mut assigned);
    let mut iter_st = st.clone();
    ctx.havoc(&assigned, &mut iter_st);
    let iter_var = ctx.fresh(var);
    iter_st
        .vars
        .insert(var.to_string(), SymValue::Int(Term::var(iter_var.clone())));
    let depth_before = ctx.assumptions.len();
    ctx.assumptions.push(start_t.clone().le(Term::var(iter_var.clone())));
    ctx.assumptions.push(Term::var(iter_var.clone()).lt(end_t.clone()));
    for inv in &invs {
        let f = eval_sexpr(inv, &iter_st, ctx)?.as_bool()?;
        ctx.assumptions.push(f);
    }
    let mut body_st = iter_st.clone();
    exec_stmts(body, &mut body_st, ctx)?;
    body_st.vars.insert(
        var.to_string(),
        SymValue::Int(Term::var(iter_var.clone()).add(Term::int(1))),
    );
    for (i, inv) in invs.iter().enumerate() {
        let g = eval_sexpr(inv, &body_st, ctx)?.as_bool()?;
        ctx.push_vc(format!("loop{k}:preserve:{i}"), g);
    }
    ctx.assumptions.truncate(depth_before);

    // Continue after the loop: havoc again, assume the invariant at
    // var = end.
    ctx.havoc(&assigned, st);
    st.vars.insert(var.to_string(), SymValue::Int(end_t));
    for inv in &invs {
        let f = eval_sexpr(inv, st, ctx)?.as_bool()?;
        ctx.assumptions.push(f);
    }
    st.vars.remove(var);
    Ok(())
}

/// Builds the base symbolic state (parameters, inputs, current registers)
/// and the corresponding range hypotheses.
fn base_state(prog: &SeqProgram, ctx: &mut ExecCtx<'_>) -> Result<(SymState, Vec<Formula>), VcError> {
    let mut st = SymState::default();
    for p in &prog.params {
        st.vars.insert(p.clone(), SymValue::Int(Term::var(p.clone())));
    }
    let vars = prog.inputs.iter().chain(&prog.regs);
    for v in vars.clone() {
        let value = match v.width {
            Some(_) => SymValue::Int(Term::var(v.name.clone())),
            None => SymValue::Bool(Formula::BVar(v.name.clone())),
        };
        st.vars.insert(v.name.clone(), value);
    }
    // 0 <= v < Pow2(width): registers and inputs always hold in-range
    // raw-bits values.
    let mut hyps = Vec::new();
    for v in vars {
        let Some(w) = &v.width else { continue };
        let wt = eval_sexpr(w, &st, ctx)?.as_int()?;
        hyps.push(Term::int(0).le(Term::var(v.name.clone())));
        hyps.push(Term::var(v.name.clone()).lt(Term::pow2(wt)));
    }
    Ok((st, hyps))
}

/// Registers a spec's ghost definitions, proves its lemmas, and admits its
/// trusted lemmas: the environment-setup phase of a design's proof.
///
/// # Errors
///
/// Returns the first failing lemma.
pub fn prepare_env(env: &mut Env, spec: &DesignSpec) -> Result<(), VcError> {
    for d in &spec.defs {
        env.define(d.clone());
    }
    for (lemma, proof) in &spec.lemmas {
        env.prove_lemma(lemma.clone(), proof).map_err(|error| VcError::LemmaFailed {
            lemma: lemma.name.clone(),
            error,
        })?;
    }
    for lemma in &spec.trusted {
        env.assume_axiom(lemma.clone());
    }
    Ok(())
}

/// Discharges one VC with the given proof (default: [`Proof::Auto`]),
/// timing it as a `vc:{name}` span.
///
/// # Errors
///
/// Returns the kernel's error wrapped as [`VcError::Failed`].
pub fn discharge_vc(env: &Env, vc: &Vc, proof: &Proof) -> Result<(), VcError> {
    let _span = telemetry::span!("vc:{}", vc.name);
    // Content-addressed discharge cache (when installed): a hit means this
    // exact (environment, statement, script) triple was proved before.
    // Only successes are ever recorded, so failures always re-run.
    let cache = crate::cache::VcCacheEntry::open(env, vc, proof);
    if let Some(entry) = &cache {
        if entry.hit() {
            return Ok(());
        }
    }
    let result = env.prove(&vc.hyps, &vc.goal, proof);
    if result.is_ok() {
        if let Some(entry) = &cache {
            entry.record_proved();
        }
    }
    if let Err(error) = &result {
        // Capturable replacement for the old stderr-only failure path.
        telemetry::event(
            "vcgen.vc_failed",
            &[("vc", vc.name.clone()), ("error", error.message.clone())],
        );
    }
    result.map_err(|error| VcError::Failed { vc: vc.name.clone(), error })
}

/// How one VC's discharge under a deadline ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The kernel proved it.
    Proved,
    /// It ran out of time. Some deadline expiries come back as ordinary
    /// kernel failures, so a failure at or past the deadline counts here.
    Timeout,
    /// The kernel rejected it in time, with this message.
    Failed(String),
}

/// One VC's verdict from [`discharge_all`]. It displays as the line the
/// quickstart prints: verdict, VC name, milliseconds, and a failure's
/// reason.
#[derive(Clone, Debug)]
pub struct VcVerdict<'a> {
    /// The VC.
    pub vc: &'a Vc,
    /// How its discharge ended.
    pub verdict: Verdict,
    /// How long it took.
    pub elapsed: Duration,
}

impl fmt::Display for VcVerdict<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (word, why) = match &self.verdict {
            Verdict::Proved => ("proved", None),
            Verdict::Timeout => ("timeout", None),
            Verdict::Failed(why) => ("failed", Some(why)),
        };
        let ms = self.elapsed.as_secs_f64() * 1e3;
        write!(f, "{word:<8} {:<16} {ms:>8.1} ms", self.vc.name)?;
        match why {
            Some(why) => write!(f, "  {why}"),
            None => Ok(()),
        }
    }
}

/// Discharges each of `vcs`, in order, with its script in `spec`
/// ([`DesignSpec::proof`]) under a `deadline` of its own (`None`: no
/// deadline), and yields each verdict as it lands. The iterator is lazy, so
/// a caller that stops iterating (`find`, `take_while`) discharges no
/// further VC. The thread's proof stores are bounded between VCs
/// ([`crate::gc_checkpoint`]).
pub fn discharge_all<'a>(
    env: &Env,
    spec: &'a DesignSpec,
    vcs: &'a [Vc],
    deadline: Option<Duration>,
) -> impl Iterator<Item = VcVerdict<'a>> + 'a {
    let mut env = env.clone();
    vcs.iter().map(move |vc| {
        let start = Instant::now();
        env.limits.deadline = deadline.map(|d| start + d);
        let result = discharge_vc(&env, vc, spec.proof(&vc.name));
        let elapsed = start.elapsed();
        let verdict = match result {
            Ok(()) => Verdict::Proved,
            // `discharge_vc` fails only with `VcError::Failed`.
            Err(VcError::Failed { error, .. })
                if deadline.is_none_or(|d| elapsed < d && !error.message.contains("deadline")) =>
            {
                Verdict::Failed(error.message)
            }
            Err(_) => Verdict::Timeout,
        };
        crate::gc_checkpoint();
        VcVerdict { vc, verdict, elapsed }
    })
}

/// Symbolically executes `prog` against `spec`, producing every §3.1
/// verification condition without discharging any: the generation phase
/// of a design's proof, which [`discharge_all`] or [`discharge_vc`] then
/// discharges.
///
/// # Errors
///
/// Returns [`VcError::Unsupported`] on constructs outside the executable
/// subset.
pub fn generate_vcs(
    prog: &SeqProgram,
    spec: &DesignSpec,
    obligations: &[SExpr],
) -> Result<Vec<Vc>, VcError> {
    let _span = telemetry::span!("vcgen");
    let mut ctx = ExecCtx {
        funcs: prog.funcs.iter().map(|f| (f.name.clone(), f)).collect(),
        assumptions: Vec::new(),
        vcs: Vec::new(),
        loop_invs: spec.loop_invariants.clone(),
        loop_counter: 0,
        fresh_counter: 0,
    };
    let (base_st, mut base_hyps) = base_state(prog, &mut ctx)?;

    // Preconditions become hypotheses.
    for r in &spec.requires {
        let f = eval_sexpr(r, &base_st, &mut ctx)?.as_bool()?;
        base_hyps.push(f);
    }
    ctx.assumptions = base_hyps.clone();

    // Literal-fit obligations.
    for (i, ob) in obligations.iter().enumerate() {
        let g = eval_sexpr(ob, &base_st, &mut ctx)?.as_bool()?;
        ctx.push_vc(format!("obligation:{i}"), g);
    }

    // 1. init: the initial register state establishes the invariant.
    {
        let mut init_st = base_st.clone();
        for r in &prog.regs {
            if let Some(init) = &r.init {
                let v = eval_sexpr(init, &base_st, &mut ctx)?;
                init_st.vars.insert(r.name.clone(), v);
            }
            // Uninitialised registers keep their symbolic value (arbitrary,
            // as in the paper's `rdInit`).
        }
        for (i, inv) in spec.invariant.iter().enumerate() {
            let g = eval_sexpr(inv, &init_st, &mut ctx)?.as_bool()?;
            ctx.push_vc(format!("init:{i}"), g);
        }
    }

    // Assume the invariant on the current registers for the remaining VCs.
    for inv in &spec.invariant {
        let f = eval_sexpr(inv, &base_st, &mut ctx)?.as_bool()?;
        ctx.assumptions.push(f);
    }

    // Symbolically execute Trans once.
    let mut st = base_st.clone();
    exec_stmts(&prog.trans, &mut st, &mut ctx)?;

    // State views: outputs plus the *new* register values under the
    // registers' own names.
    let mut post_st = st.clone();
    for r in &prog.regs {
        let v = st
            .vars
            .get(&next_name(&r.name))
            .cloned()
            .ok_or_else(|| VcError::Unsupported(format!("missing next value for `{}`", r.name)))?;
        post_st.vars.insert(r.name.clone(), v);
    }

    let timeout_new = eval_sexpr(&spec.timeout, &post_st, &mut ctx)?.as_bool()?;

    // 2. preserve: if the run continues, the invariant holds on the new
    // state; 4. measure: non-negative and strictly decreasing.
    {
        ctx.assumptions.push(timeout_new.clone().not());
        for (i, inv) in spec.invariant.iter().enumerate() {
            let g = eval_sexpr(inv, &post_st, &mut ctx)?.as_bool()?;
            ctx.push_vc(format!("preserve:{i}"), g);
        }
        let m_cur = eval_sexpr(&spec.measure, &base_st, &mut ctx)?.as_int()?;
        let m_new = eval_sexpr(&spec.measure, &post_st, &mut ctx)?.as_int()?;
        ctx.push_vc("measure:nonneg".into(), Term::int(0).le(m_cur.clone()));
        ctx.push_vc("measure:dec".into(), m_new.lt(m_cur));
        ctx.assumptions.pop();
    }

    // Register range bounds on the new state (unconditional).
    for r in &prog.regs {
        if let Some(w) = &r.width {
            let v = post_st.vars[&r.name].as_int()?;
            let wt = eval_sexpr(w, &base_st, &mut ctx)?.as_int()?;
            ctx.push_vc(
                format!("bounds:{}", r.name),
                Formula::and_all([Term::int(0).le(v.clone()), v.lt(Term::pow2(wt))]),
            );
        }
    }

    // 3. post: when the timeout fires, the postcondition holds.
    {
        ctx.assumptions.push(timeout_new);
        for (i, p) in spec.post.iter().enumerate() {
            let g = eval_sexpr(p, &post_st, &mut ctx)?.as_bool()?;
            ctx.push_vc(format!("post:{i}"), g);
        }
        ctx.assumptions.pop();
    }

    telemetry::counter("vcgen.vcs_generated", ctx.vcs.len() as u64);
    if telemetry::enabled() {
        for vc in &ctx.vcs {
            // Through the interned store: O(1) per already-seen formula,
            // and interning here pre-warms the arena for discharge.
            let size = crate::store::formula_node_count(&vc.goal)
                + vc.hyps.iter().map(crate::store::formula_node_count).sum::<usize>();
            telemetry::record("vcgen.formula_nodes", size as u64);
        }
    }
    Ok(ctx.vcs)
}
