//! Elaboration: instantiating a parameterized [`Module`] at concrete
//! parameter values.
//!
//! This is the low-level path the paper contrasts against: parameters are
//! substituted, generator loops unrolled, bundles and vectors flattened to
//! scalar signals, combinational functions inlined, and the `when` trees and
//! last-connect-wins rule resolved into one driver expression per signal.
//! The result feeds the cycle-accurate simulator and the netlist/Verilog
//! backend, and is what per-bit-width verification would have to consume.

use crate::expr::{Accessor, BinaryOp, Expr, SignalRef};
use crate::module::{FuncDef, Module, SignalKind};
use crate::pexpr::{Bindings, EvalPExprError, PExpr};
use crate::stmt::{LAccessor, LValue, Stmt};
use crate::types::ChiselType;
use std::collections::BTreeMap;
use std::fmt;

/// Role of an elaborated scalar signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElabKind {
    /// Input port.
    Input,
    /// Output port.
    Output,
    /// Register; `init` is its (already elaborated) reset expression.
    Reg {
        /// Reset value, if the register was declared with `RegInit`.
        init: Option<Expr>,
    },
    /// Wire or node.
    Wire,
}

/// An elaborated scalar signal: concrete width, concrete signedness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElabSignal {
    /// Flattened name (e.g. `io_in`, `cols__3__0`).
    pub name: String,
    /// Concrete width in bits.
    pub width: u64,
    /// Whether the signal is an `SInt`.
    pub signed: bool,
    /// Role.
    pub kind: ElabKind,
}

/// A fully elaborated module: scalar signals plus one driver expression per
/// non-input signal.
#[derive(Clone, Debug)]
pub struct ElabModule {
    /// Module name.
    pub name: String,
    /// The parameter values used.
    pub bindings: Bindings,
    /// Scalar signals in declaration order.
    pub signals: Vec<ElabSignal>,
    /// Driver expression per non-input signal. For registers this is the
    /// *next-state* expression (defaulting to the register itself).
    pub drivers: BTreeMap<String, Expr>,
}

impl ElabModule {
    /// Looks up a signal by flattened name.
    pub fn signal(&self, name: &str) -> Option<&ElabSignal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Names of all input signals.
    pub fn input_names(&self) -> Vec<String> {
        self.signals
            .iter()
            .filter(|s| s.kind == ElabKind::Input)
            .map(|s| s.name.clone())
            .collect()
    }

    /// Names of all output signals.
    pub fn output_names(&self) -> Vec<String> {
        self.signals
            .iter()
            .filter(|s| s.kind == ElabKind::Output)
            .map(|s| s.name.clone())
            .collect()
    }

    /// Names of all registers.
    pub fn reg_names(&self) -> Vec<String> {
        self.signals
            .iter()
            .filter(|s| matches!(s.kind, ElabKind::Reg { .. }))
            .map(|s| s.name.clone())
            .collect()
    }
}

/// Errors raised during elaboration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ElabError {
    /// A parameter expression failed to evaluate.
    Param(EvalPExprError),
    /// A width or vector length evaluated to a non-positive number.
    BadWidth(String, i64),
    /// A reference to an undeclared signal.
    UnknownSignal(String),
    /// A reference used accessors that do not match the signal's type.
    BadAccess(String),
    /// A static vector index was out of range.
    IndexOutOfRange(String, i64, u64),
    /// A call to an undeclared function.
    UnknownFunc(String),
    /// An aggregate connect whose sides do not have matching shape.
    BadAggregateConnect(String),
    /// A connect drove an input or a node.
    NotConnectable(String),
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElabError::Param(e) => write!(f, "parameter evaluation failed: {e}"),
            ElabError::BadWidth(n, w) => write!(f, "signal `{n}` has non-positive width {w}"),
            ElabError::UnknownSignal(n) => write!(f, "unknown signal `{n}`"),
            ElabError::BadAccess(n) => write!(f, "accessor mismatch on `{n}`"),
            ElabError::IndexOutOfRange(n, i, len) => {
                write!(f, "index {i} out of range for `{n}` of length {len}")
            }
            ElabError::UnknownFunc(n) => write!(f, "unknown function `{n}`"),
            ElabError::BadAggregateConnect(n) => {
                write!(f, "aggregate connect shape mismatch at `{n}`")
            }
            ElabError::NotConnectable(n) => write!(f, "`{n}` cannot be the target of a connect"),
        }
    }
}

impl std::error::Error for ElabError {}

impl From<EvalPExprError> for ElabError {
    fn from(e: EvalPExprError) -> Self {
        ElabError::Param(e)
    }
}

/// Joins a flattened path segment.
fn mangle_field(base: &str, field: &str) -> String {
    format!("{base}_{field}")
}

fn mangle_index(base: &str, idx: i64) -> String {
    format!("{base}__{idx}")
}

/// Recursively flattens a type into `(suffix-mangled name, width, signed)`
/// scalars.
fn flatten_type(
    name: &str,
    ty: &ChiselType,
    env: &Bindings,
    out: &mut Vec<(String, u64, bool)>,
) -> Result<(), ElabError> {
    match ty {
        ChiselType::UInt(w) | ChiselType::SInt(w) => {
            let wv = w.eval(env)?;
            if wv <= 0 {
                return Err(ElabError::BadWidth(name.to_string(), wv));
            }
            out.push((name.to_string(), wv as u64, ty.is_signed()));
        }
        ChiselType::Bool => out.push((name.to_string(), 1, false)),
        ChiselType::Vec(elem, len) => {
            let n = len.eval(env)?;
            if n < 0 {
                return Err(ElabError::BadWidth(name.to_string(), n));
            }
            for i in 0..n {
                flatten_type(&mangle_index(name, i), elem, env, out)?;
            }
        }
        ChiselType::Bundle(fields) => {
            for (fname, fty) in fields {
                flatten_type(&mangle_field(name, fname), fty, env, out)?;
            }
        }
    }
    Ok(())
}

/// Walks a type along a concrete accessor path, returning the reached
/// flattened name and remaining type.
fn walk_type<'t>(
    base: &str,
    ty: &'t ChiselType,
    path: &[ResolvedAccessor],
    env: &Bindings,
) -> Result<(String, &'t ChiselType), ElabError> {
    let mut name = base.to_string();
    let mut cur = ty;
    for acc in path {
        match (acc, cur) {
            (ResolvedAccessor::Field(f), ChiselType::Bundle(fields)) => {
                let (_, fty) = fields
                    .iter()
                    .find(|(n, _)| n == f)
                    .ok_or_else(|| ElabError::BadAccess(format!("{name}.{f}")))?;
                name = mangle_field(&name, f);
                cur = fty;
            }
            (ResolvedAccessor::Index(i), ChiselType::Vec(elem, len)) => {
                let n = len.eval(env)?;
                if *i < 0 || *i >= n {
                    return Err(ElabError::IndexOutOfRange(name, *i, n.max(0) as u64));
                }
                name = mangle_index(&name, *i);
                cur = elem;
            }
            _ => return Err(ElabError::BadAccess(name)),
        }
    }
    Ok((name, cur))
}

enum ResolvedAccessor {
    Field(String),
    Index(i64),
}

struct Elaborator<'m> {
    module: &'m Module,
    env: Bindings,
    signals: Vec<ElabSignal>,
    /// Hoisted statements produced by function inlining.
    hoisted: Vec<Stmt>,
    /// Fresh-name counter for inlined call instances.
    call_counter: usize,
    /// Types of inlined function locals (by fresh flattened base name).
    extra_types: BTreeMap<String, ChiselType>,
}

impl<'m> Elaborator<'m> {
    fn decl_type(&self, base: &str) -> Result<&ChiselType, ElabError> {
        if let Some(d) = self.module.decl(base) {
            return Ok(&d.ty);
        }
        self.extra_types
            .get(base)
            .ok_or_else(|| ElabError::UnknownSignal(base.to_string()))
    }

    /// Rewrites an expression: substitutes loop vars (already done by
    /// callers), resolves static paths to scalar names, expands dynamic
    /// vector indexing into mux chains, and inlines function calls.
    fn rewrite_expr(&mut self, e: &Expr, subst: &BTreeMap<String, Expr>) -> Result<Expr, ElabError> {
        Ok(match e {
            Expr::LitU { value, width } => Expr::LitU {
                value: PExpr::Const(value.eval(&self.env)?),
                width: match width {
                    Some(w) => Some(PExpr::Const(w.eval(&self.env)?)),
                    None => None,
                },
            },
            Expr::LitS { value, width } => Expr::LitS {
                value: PExpr::Const(value.eval(&self.env)?),
                width: match width {
                    Some(w) => Some(PExpr::Const(w.eval(&self.env)?)),
                    None => None,
                },
            },
            Expr::LitB(b) => Expr::LitB(*b),
            Expr::Ref(r) => self.rewrite_ref(r, subst)?,
            Expr::Unop(op, a) => Expr::Unop(*op, Box::new(self.rewrite_expr(a, subst)?)),
            Expr::Binop(op, a, b) => Expr::Binop(
                *op,
                Box::new(self.rewrite_expr(a, subst)?),
                Box::new(self.rewrite_expr(b, subst)?),
            ),
            Expr::Mux(c, t, f) => Expr::Mux(
                Box::new(self.rewrite_expr(c, subst)?),
                Box::new(self.rewrite_expr(t, subst)?),
                Box::new(self.rewrite_expr(f, subst)?),
            ),
            Expr::Extract { arg, hi, lo } => Expr::Extract {
                arg: Box::new(self.rewrite_expr(arg, subst)?),
                hi: PExpr::Const(hi.eval(&self.env)?),
                lo: PExpr::Const(lo.eval(&self.env)?),
            },
            Expr::BitAt { arg, index } => Expr::BitAt {
                arg: Box::new(self.rewrite_expr(arg, subst)?),
                index: Box::new(self.rewrite_expr(index, subst)?),
            },
            Expr::ShlP { arg, amount } => Expr::ShlP {
                arg: Box::new(self.rewrite_expr(arg, subst)?),
                amount: PExpr::Const(amount.eval(&self.env)?),
            },
            Expr::ShrP { arg, amount } => Expr::ShrP {
                arg: Box::new(self.rewrite_expr(arg, subst)?),
                amount: PExpr::Const(amount.eval(&self.env)?),
            },
            Expr::Fill { times, arg } => Expr::Fill {
                times: PExpr::Const(times.eval(&self.env)?),
                arg: Box::new(self.rewrite_expr(arg, subst)?),
            },
            Expr::Call { func, args } => {
                let rargs = args
                    .iter()
                    .map(|a| self.rewrite_expr(a, subst))
                    .collect::<Result<Vec<_>, _>>()?;
                self.inline_call(func, rargs)?
            }
        })
    }

    /// Resolves a (possibly aggregate-indexed) reference to scalar form.
    fn rewrite_ref(
        &mut self,
        r: &SignalRef,
        subst: &BTreeMap<String, Expr>,
    ) -> Result<Expr, ElabError> {
        // Function-argument substitution: a bare reference whose base is a
        // bound argument name becomes the actual expression.
        if r.path.is_empty() {
            if let Some(actual) = subst.get(&r.base) {
                return Ok(actual.clone());
            }
        }
        // Split the accessor path at the first dynamic index; everything
        // before is static.
        let base_ty = self.decl_type(&r.base)?.clone();
        let mut static_path: Vec<ResolvedAccessor> = Vec::new();
        let mut rest = r.path.as_slice();
        while let Some((first, tail)) = rest.split_first() {
            match first {
                Accessor::Field(f) => static_path.push(ResolvedAccessor::Field(f.clone())),
                Accessor::Index(idx) => match self.static_index(idx) {
                    Some(i) => static_path.push(ResolvedAccessor::Index(i)),
                    None => break,
                },
            }
            rest = tail;
        }
        let (name, ty) = walk_type(&r.base, &base_ty, &static_path, &self.env)?;
        if rest.is_empty() {
            if ty.is_ground() {
                return Ok(Expr::sig(name));
            }
            return Err(ElabError::BadAccess(name));
        }
        // First remaining accessor is a dynamic index into a vector: expand
        // into a mux chain over the elements.
        let (idx_expr, tail) = match rest.split_first() {
            Some((Accessor::Index(idx), tail)) => (idx.as_ref().clone(), tail),
            _ => return Err(ElabError::BadAccess(name)),
        };
        let (elem_ty, len) = match ty {
            ChiselType::Vec(elem, len) => (elem.as_ref().clone(), len.eval(&self.env)?),
            _ => return Err(ElabError::BadAccess(name)),
        };
        let ridx = self.rewrite_expr(&idx_expr, subst)?;
        let mut chain: Option<Expr> = None;
        for i in (0..len).rev() {
            let elem_ref = SignalRef {
                base: mangle_index(&name, i),
                path: tail.to_vec(),
            };
            // Recursively resolve the element reference (handles nested
            // dynamic indices and deeper paths). Element bases are scalar
            // names not present in decls, so resolve via extra types when
            // needed: register the element type once.
            self.extra_types.entry(mangle_index(&name, i)).or_insert_with(|| elem_ty.clone());
            let elem_expr = self.rewrite_ref(&elem_ref, subst)?;
            chain = Some(match chain {
                None => elem_expr,
                Some(rest_chain) => Expr::Mux(
                    Box::new(Expr::Binop(
                        BinaryOp::Eq,
                        Box::new(ridx.clone()),
                        Box::new(Expr::lit(i)),
                    )),
                    Box::new(elem_expr),
                    Box::new(rest_chain),
                ),
            });
        }
        chain.ok_or(ElabError::IndexOutOfRange(name, 0, 0))
    }

    fn static_index(&self, idx: &Expr) -> Option<i64> {
        match idx {
            Expr::LitU { value, .. } => value.eval(&self.env).ok(),
            _ => None,
        }
    }

    /// Inlines a combinational function call: hoists its locals (with fresh
    /// names) and body statements, and returns the rewritten result.
    fn inline_call(&mut self, func: &str, args: Vec<Expr>) -> Result<Expr, ElabError> {
        let f: &FuncDef = self
            .module
            .func(func)
            .ok_or_else(|| ElabError::UnknownFunc(func.to_string()))?;
        let f = f.clone();
        let instance = self.call_counter;
        self.call_counter += 1;
        let fresh = |n: &str| format!("{func}${instance}${n}");
        // Argument substitution map.
        let mut subst: BTreeMap<String, Expr> = BTreeMap::new();
        for ((name, _ty), actual) in f.args.iter().zip(args) {
            subst.insert(name.clone(), actual);
        }
        // Fresh locals: declare flattened scalars and remember types.
        let mut renames: BTreeMap<String, String> = BTreeMap::new();
        for d in &f.locals {
            let fname = fresh(&d.name);
            renames.insert(d.name.clone(), fname.clone());
            self.extra_types.insert(fname.clone(), d.ty.clone());
            let mut scalars = Vec::new();
            flatten_type(&fname, &d.ty, &self.env, &mut scalars)?;
            for (sname, w, signed) in scalars {
                self.signals.push(ElabSignal { name: sname, width: w, signed, kind: ElabKind::Wire });
            }
            if let SignalKind::Node(e) = &d.kind {
                let renamed = rename_bases(e, &renames);
                let rexpr = self.rewrite_expr(&renamed, &subst)?;
                self.hoisted.push(Stmt::Connect { lhs: LValue::new(fname), rhs: rexpr });
            }
        }
        // Hoist body statements (renamed, substituted, rewritten).
        let body: Vec<Stmt> = f.body.iter().map(|s| rename_stmt_bases(s, &renames)).collect();
        for s in &body {
            let lowered = self.lower_stmt(s, &subst)?;
            self.hoisted.extend(lowered);
        }
        let renamed_result = rename_bases(&f.result, &renames);
        self.rewrite_expr(&renamed_result, &subst)
    }

    /// Lowers a statement to scalar-connect form: unrolls loops, rewrites
    /// expressions, expands aggregate connects.
    fn lower_stmt(
        &mut self,
        s: &Stmt,
        subst: &BTreeMap<String, Expr>,
    ) -> Result<Vec<Stmt>, ElabError> {
        Ok(match s {
            Stmt::Connect { lhs, rhs } => self.lower_connect(lhs, rhs, subst)?,
            Stmt::When { cond, then_body, else_body } => {
                let c = self.rewrite_expr(cond, subst)?;
                let mut tb = Vec::new();
                for t in then_body {
                    tb.extend(self.lower_stmt(t, subst)?);
                }
                let mut eb = Vec::new();
                for t in else_body {
                    eb.extend(self.lower_stmt(t, subst)?);
                }
                vec![Stmt::When { cond: c, then_body: tb, else_body: eb }]
            }
            Stmt::For { var, start, end, body } => {
                let lo = start.eval(&self.env)?;
                let hi = end.eval(&self.env)?;
                let mut out = Vec::new();
                for i in lo..hi {
                    for st in body {
                        let inst = st.subst_pvar(var, &PExpr::Const(i));
                        out.extend(self.lower_stmt(&inst, subst)?);
                    }
                }
                out
            }
        })
    }

    fn lower_connect(
        &mut self,
        lhs: &LValue,
        rhs: &Expr,
        subst: &BTreeMap<String, Expr>,
    ) -> Result<Vec<Stmt>, ElabError> {
        let base_ty = self.decl_type(&lhs.base)?.clone();
        let path: Vec<ResolvedAccessor> = lhs
            .path
            .iter()
            .map(|acc| {
                Ok(match acc {
                    LAccessor::Field(f) => ResolvedAccessor::Field(f.clone()),
                    LAccessor::Index(i) => ResolvedAccessor::Index(i.eval(&self.env)?),
                })
            })
            .collect::<Result<Vec<_>, ElabError>>()?;
        let (name, ty) = walk_type(&lhs.base, &base_ty, &path, &self.env)?;
        if ty.is_ground() {
            let r = self.rewrite_expr(rhs, subst)?;
            return Ok(vec![Stmt::Connect { lhs: LValue::new(name), rhs: r }]);
        }
        // Aggregate connect: the right-hand side must be a reference of the
        // same shape; expand field-by-field / element-by-element.
        let rref = match rhs {
            Expr::Ref(r) => r.clone(),
            _ => return Err(ElabError::BadAggregateConnect(name)),
        };
        let mut out = Vec::new();
        match ty {
            ChiselType::Bundle(fields) => {
                for (fname, _) in fields {
                    let sub_lhs = LValue { base: lhs.base.clone(), path: lhs.path.clone() }
                        .field(fname.clone());
                    let sub_rhs = Expr::Ref(rref.clone().field(fname.clone()));
                    out.extend(self.lower_connect(&sub_lhs, &sub_rhs, subst)?);
                }
            }
            ChiselType::Vec(_, len) => {
                let n = len.eval(&self.env)?;
                for i in 0..n {
                    let sub_lhs = LValue { base: lhs.base.clone(), path: lhs.path.clone() }
                        .index(PExpr::Const(i));
                    let sub_rhs =
                        Expr::Ref(rref.clone().index(Expr::lit(i)));
                    out.extend(self.lower_connect(&sub_lhs, &sub_rhs, subst)?);
                }
            }
            _ => return Err(ElabError::BadAggregateConnect(name)),
        }
        Ok(out)
    }
}

/// Renames base names of references (used for function-local renaming).
fn rename_bases(e: &Expr, renames: &BTreeMap<String, String>) -> Expr {
    match e {
        Expr::Ref(r) => {
            let base = renames.get(&r.base).cloned().unwrap_or_else(|| r.base.clone());
            let path = r
                .path
                .iter()
                .map(|acc| match acc {
                    Accessor::Field(f) => Accessor::Field(f.clone()),
                    Accessor::Index(i) => Accessor::Index(Box::new(rename_bases(i, renames))),
                })
                .collect();
            Expr::Ref(SignalRef { base, path })
        }
        Expr::LitU { .. } | Expr::LitS { .. } | Expr::LitB(_) => e.clone(),
        Expr::Unop(op, a) => Expr::Unop(*op, Box::new(rename_bases(a, renames))),
        Expr::Binop(op, a, b) => Expr::Binop(
            *op,
            Box::new(rename_bases(a, renames)),
            Box::new(rename_bases(b, renames)),
        ),
        Expr::Mux(c, t, f) => Expr::Mux(
            Box::new(rename_bases(c, renames)),
            Box::new(rename_bases(t, renames)),
            Box::new(rename_bases(f, renames)),
        ),
        Expr::Extract { arg, hi, lo } => Expr::Extract {
            arg: Box::new(rename_bases(arg, renames)),
            hi: hi.clone(),
            lo: lo.clone(),
        },
        Expr::BitAt { arg, index } => Expr::BitAt {
            arg: Box::new(rename_bases(arg, renames)),
            index: Box::new(rename_bases(index, renames)),
        },
        Expr::ShlP { arg, amount } => {
            Expr::ShlP { arg: Box::new(rename_bases(arg, renames)), amount: amount.clone() }
        }
        Expr::ShrP { arg, amount } => {
            Expr::ShrP { arg: Box::new(rename_bases(arg, renames)), amount: amount.clone() }
        }
        Expr::Fill { times, arg } => {
            Expr::Fill { times: times.clone(), arg: Box::new(rename_bases(arg, renames)) }
        }
        Expr::Call { func, args } => Expr::Call {
            func: func.clone(),
            args: args.iter().map(|a| rename_bases(a, renames)).collect(),
        },
    }
}

fn rename_stmt_bases(s: &Stmt, renames: &BTreeMap<String, String>) -> Stmt {
    match s {
        Stmt::Connect { lhs, rhs } => {
            let base = renames.get(&lhs.base).cloned().unwrap_or_else(|| lhs.base.clone());
            Stmt::Connect {
                lhs: LValue { base, path: lhs.path.clone() },
                rhs: rename_bases(rhs, renames),
            }
        }
        Stmt::When { cond, then_body, else_body } => Stmt::When {
            cond: rename_bases(cond, renames),
            then_body: then_body.iter().map(|t| rename_stmt_bases(t, renames)).collect(),
            else_body: else_body.iter().map(|t| rename_stmt_bases(t, renames)).collect(),
        },
        Stmt::For { var, start, end, body } => Stmt::For {
            var: var.clone(),
            start: start.clone(),
            end: end.clone(),
            body: body.iter().map(|t| rename_stmt_bases(t, renames)).collect(),
        },
    }
}

/// Elaborates `module` at the given parameter values.
///
/// # Errors
///
/// Returns [`ElabError`] when widths do not evaluate, references do not
/// resolve, or connect shapes mismatch.
///
/// # Examples
///
/// ```
/// use chicala_chisel::{examples, elaborate};
/// let m = examples::rotate_example();
/// let em = elaborate(&m, &[("len", 4)].into_iter()
///     .map(|(k, v)| (k.to_string(), v)).collect())?;
/// assert!(em.signal("R").is_some());
/// # Ok::<(), chicala_chisel::ElabError>(())
/// ```
pub fn elaborate(module: &Module, bindings: &Bindings) -> Result<ElabModule, ElabError> {
    for p in &module.params {
        if !bindings.contains_key(p) {
            return Err(ElabError::Param(EvalPExprError::Unbound(p.clone())));
        }
    }
    let mut el = Elaborator {
        module,
        env: bindings.clone(),
        signals: Vec::new(),
        hoisted: Vec::new(),
        call_counter: 0,
        extra_types: BTreeMap::new(),
    };

    // 1. Flatten declared signals.
    for d in &module.decls {
        let mut scalars = Vec::new();
        flatten_type(&d.name, &d.ty, &el.env, &mut scalars)?;
        for (name, width, signed) in scalars {
            let kind = match &d.kind {
                SignalKind::Input => ElabKind::Input,
                SignalKind::Output => ElabKind::Output,
                SignalKind::Reg { .. } => ElabKind::Reg { init: None },
                SignalKind::Wire | SignalKind::Node(_) => ElabKind::Wire,
            };
            el.signals.push(ElabSignal { name, width, signed, kind });
        }
    }

    // 2. Lower node definitions and register inits into initial statements.
    let mut lowered: Vec<Stmt> = Vec::new();
    for d in &module.decls {
        if let SignalKind::Node(e) = &d.kind {
            let r = el.rewrite_expr(e, &BTreeMap::new())?;
            lowered.push(Stmt::Connect { lhs: LValue::new(d.name.clone()), rhs: r });
        }
    }
    // Register reset expressions (ground regs only).
    let mut reg_inits: BTreeMap<String, Expr> = BTreeMap::new();
    for d in &module.decls {
        if let SignalKind::Reg { init: Some(e) } = &d.kind {
            let r = el.rewrite_expr(e, &BTreeMap::new())?;
            reg_inits.insert(d.name.clone(), r);
        }
    }

    // 3. Lower the body (unroll loops, inline calls, flatten aggregates).
    for s in &module.body {
        // Hoisted statements from function inlining must run before the
        // statement that consumes their results.
        let st = el.lower_stmt(s, &BTreeMap::new())?;
        lowered.append(&mut el.hoisted);
        lowered.extend(st);
    }

    // Install register init expressions on the elaborated signals.
    for sig in &mut el.signals {
        if let ElabKind::Reg { init } = &mut sig.kind {
            // A flattened register scalar `r__0` derives from decl `r`; init
            // exprs are only supported on ground registers, whose flattened
            // name equals the decl name.
            if let Some(e) = reg_inits.get(&sig.name) {
                *init = Some(e.clone());
            }
        }
    }

    // 4. Resolve last-connect-wins + when-trees into driver expressions.
    let mut drivers: BTreeMap<String, Expr> = BTreeMap::new();
    for sig in &el.signals {
        match sig.kind {
            ElabKind::Input => {}
            ElabKind::Reg { .. } => {
                drivers.insert(sig.name.clone(), Expr::sig(sig.name.clone()));
            }
            _ => {
                let zero = if sig.signed {
                    Expr::lit_s(0, sig.width)
                } else if sig.width == 1 {
                    Expr::lit_u(0, 1u64)
                } else {
                    Expr::lit_u(0, sig.width)
                };
                drivers.insert(sig.name.clone(), zero);
            }
        }
    }
    apply_connects(&lowered, &mut Vec::new(), &mut drivers)?;

    Ok(ElabModule {
        name: module.name.clone(),
        bindings: bindings.clone(),
        signals: el.signals,
        drivers,
    })
}

/// Applies lowered connects to the driver map, wrapping in the accumulated
/// `when` conditions (last-connect-wins).
fn apply_connects(
    stmts: &[Stmt],
    conds: &mut Vec<Expr>,
    drivers: &mut BTreeMap<String, Expr>,
) -> Result<(), ElabError> {
    for s in stmts {
        match s {
            Stmt::Connect { lhs, rhs } => {
                let name = lhs.base.clone();
                let old = drivers
                    .get(&name)
                    .cloned()
                    .ok_or_else(|| ElabError::NotConnectable(name.clone()))?;
                let new = if conds.is_empty() {
                    rhs.clone()
                } else {
                    let cond = conds
                        .iter()
                        .cloned()
                        .reduce(|a, b| a.and(b))
                        .expect("nonempty conds");
                    Expr::Mux(Box::new(cond), Box::new(rhs.clone()), Box::new(old))
                };
                drivers.insert(name, new);
            }
            Stmt::When { cond, then_body, else_body } => {
                conds.push(cond.clone());
                apply_connects(then_body, conds, drivers)?;
                conds.pop();
                conds.push(cond.clone().not());
                apply_connects(else_body, conds, drivers)?;
                conds.pop();
            }
            Stmt::For { .. } => unreachable!("loops were unrolled during lowering"),
        }
    }
    Ok(())
}
