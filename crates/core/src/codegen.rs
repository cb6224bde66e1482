//! Code generation: reordered units → the sequential program (`Trans` body,
//! helper functions, variable declarations), with Chisel bit-vector
//! operations expanded into explicit integer arithmetic over `Pow2`.
//!
//! Every signal is represented by its *raw-bits value*, a non-negative
//! integer in `[0, 2^width)`; signed interpretation is inlined where an
//! operator is sign-sensitive. This is the integer view of the paper's
//! Listing 3.

use crate::split::Unit;
use crate::typing::{STy, TypeCtx, TypeError};
use chicala_chisel::{
    Accessor, BinaryOp, ChiselType, Expr, LAccessor, LValue, PExpr, SignalRef, UnaryOp,
};
use chicala_seq::{SBinop, SCmp, SExpr, SStmt};
use std::fmt;

/// Errors raised during code generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodegenError {
    /// A typing error in the source module.
    Type(String),
    /// An operation outside the transformable subset.
    Unsupported(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Type(m) => write!(f, "typing: {m}"),
            CodegenError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<TypeError> for CodegenError {
    fn from(e: TypeError) -> Self {
        CodegenError::Type(e.0)
    }
}

/// Converts a parameter expression to a sequential-language expression.
pub fn p2s(p: &PExpr) -> SExpr {
    match p {
        PExpr::Const(c) => SExpr::int(*c),
        PExpr::Param(n) | PExpr::Var(n) => SExpr::var(n.clone()),
        PExpr::Add(a, b) => p2s(a).add(p2s(b)),
        PExpr::Sub(a, b) => p2s(a).sub(p2s(b)),
        PExpr::Mul(a, b) => p2s(a).mul(p2s(b)),
        PExpr::Div(a, b) => p2s(a).div(p2s(b)),
        PExpr::Max(a, b) => {
            let (a, b) = (p2s(a), p2s(b));
            a.clone().cmp(SCmp::Ge, b.clone()).ite(a, b)
        }
        PExpr::Min(a, b) => {
            let (a, b) = (p2s(a), p2s(b));
            a.clone().cmp(SCmp::Le, b.clone()).ite(a, b)
        }
    }
}

/// A translated expression with its source type.
#[derive(Clone, Debug)]
pub struct TExpr {
    /// The sequential expression.
    pub s: SExpr,
    /// The symbolic source type.
    pub ty: STy,
}

impl TExpr {
    /// Coerces to an integer expression (booleans become `if b 1 else 0`).
    pub fn as_int(self) -> Result<SExpr, CodegenError> {
        match self.ty {
            STy::Bool => Ok(self.s.ite(SExpr::int(1), SExpr::int(0))),
            STy::Ground { .. } => Ok(self.s),
            _ => Err(CodegenError::Type("aggregate used as a scalar".into())),
        }
    }

    /// Coerces to a boolean expression (1-bit integers compare against 1).
    pub fn as_bool(self) -> Result<SExpr, CodegenError> {
        match self.ty {
            STy::Bool => Ok(self.s),
            STy::Ground { .. } => Ok(self.s.eq(SExpr::int(1))),
            _ => Err(CodegenError::Type("aggregate used as a boolean".into())),
        }
    }

    fn width(&self) -> Result<PExpr, CodegenError> {
        self.ty
            .width()
            .ok_or_else(|| CodegenError::Type("aggregate has no width".into()))
    }
}

/// The signed reinterpretation of raw bits `x` of width `w`:
/// `if (x < 2^(w-1)) x else x - 2^w`.
fn to_signed(x: SExpr, w: &PExpr) -> SExpr {
    x.clone()
        .cmp(SCmp::Lt, SExpr::pow2(p2s(&(w.clone() - 1))))
        .ite(x.clone(), x.sub(SExpr::pow2(p2s(w))))
}

/// Expression translator over a typing context.
pub struct Translator<'m> {
    /// Typing context (module body or function body).
    pub ctx: TypeCtx<'m>,
    /// Side conditions collected during translation (literal-fit
    /// obligations).
    pub obligations: Vec<SExpr>,
}

impl<'m> Translator<'m> {
    /// Creates a translator.
    pub fn new(ctx: TypeCtx<'m>) -> Translator<'m> {
        Translator { ctx, obligations: Vec::new() }
    }

    /// Flattened variable name for a reference's bundle-field prefix.
    fn flat_name(base: &str, fields: &[String]) -> String {
        let mut name = base.to_string();
        for f in fields {
            name = format!("{name}_{f}");
        }
        name
    }

    /// Translates an expression.
    ///
    /// # Errors
    ///
    /// Returns [`CodegenError`] for constructs outside the transformable
    /// subset (e.g. `xorR`, signed division, wide `Fill`).
    pub fn tr(&mut self, e: &Expr) -> Result<TExpr, CodegenError> {
        let ty = self.ctx.expr_ty(e)?;
        let s = match e {
            Expr::LitU { value, width } => {
                let v = p2s(value);
                if let Some(w) = width {
                    // Side condition: the literal fits its declared width.
                    self.obligations.push(
                        SExpr::int(0)
                            .cmp(SCmp::Le, v.clone())
                            .and(v.clone().cmp(SCmp::Lt, SExpr::pow2(p2s(w)))),
                    );
                }
                v
            }
            Expr::LitS { value, width } => {
                let v = p2s(value);
                let w = width.as_ref().expect("typing enforced an explicit width");
                self.obligations.push(
                    SExpr::int(0).sub(SExpr::pow2(p2s(&(w.clone() - 1))))
                        .cmp(SCmp::Le, v.clone())
                        .and(v.clone().cmp(SCmp::Lt, SExpr::pow2(p2s(&(w.clone() - 1))))),
                );
                // Raw bits of the (possibly negative) value.
                v.imod(SExpr::pow2(p2s(w)))
            }
            Expr::LitB(b) => SExpr::BoolConst(*b),
            Expr::Ref(r) => return self.tr_ref(r),
            Expr::Unop(op, a) => return self.tr_unop(*op, a, ty),
            Expr::Binop(op, a, b) => return self.tr_binop(*op, a, b, ty),
            Expr::Mux(c, t, f) => {
                let c = self.tr(c)?.as_bool()?;
                let tv = self.tr(t)?;
                let fv = self.tr(f)?;
                if ty == STy::Bool {
                    c.ite(tv.as_bool()?, fv.as_bool()?)
                } else {
                    c.ite(tv.as_int()?, fv.as_int()?)
                }
            }
            Expr::Extract { arg, hi, lo } => {
                let a = self.tr(arg)?.as_int()?;
                let shifted = a.div_pow2(p2s(lo));
                if hi == lo {
                    shifted.imod(SExpr::int(2)).eq(SExpr::int(1))
                } else {
                    shifted.mod_pow2(p2s(&(hi.clone() - lo.clone() + 1)))
                }
            }
            Expr::BitAt { arg, index } => {
                let a = self.tr(arg)?.as_int()?;
                let i = self.tr(index)?.as_int()?;
                a.div_pow2(i).imod(SExpr::int(2)).eq(SExpr::int(1))
            }
            Expr::ShlP { arg, amount } => {
                let a = self.tr(arg)?.as_int()?;
                a.mul(SExpr::pow2(p2s(amount)))
            }
            Expr::ShrP { arg, amount } => {
                let av = self.tr(arg)?;
                let signed = av.ty.is_signed();
                let w = av.width()?;
                let a = av.as_int()?;
                if signed {
                    to_signed(a, &w).div_pow2(p2s(amount)).mod_pow2(p2s(&w))
                } else {
                    a.div_pow2(p2s(amount))
                }
            }
            Expr::Fill { times, arg } => {
                let av = self.tr(arg)?;
                let w = av.width()?;
                if w != PExpr::Const(1) {
                    return Err(CodegenError::Unsupported(
                        "Fill is only transformable on 1-bit operands".into(),
                    ));
                }
                let a = av.as_int()?;
                a.mul(SExpr::pow2(p2s(times)).sub(SExpr::int(1)))
            }
            Expr::Call { func, args } => {
                let f = self
                    .ctx
                    .module_func_arg_types(func)
                    .ok_or_else(|| CodegenError::Type(format!("unknown function `{func}`")))?;
                let mut sargs = Vec::new();
                for (arg, aty) in args.iter().zip(f) {
                    let t = self.tr(arg)?;
                    sargs.push(match aty {
                        STy::Bool => t.as_bool()?,
                        STy::Ground { .. } => t.as_int()?,
                        _ => t.s,
                    });
                }
                SExpr::Call(func.clone(), sargs)
            }
        };
        Ok(TExpr { s, ty })
    }

    fn tr_ref(&mut self, r: &SignalRef) -> Result<TExpr, CodegenError> {
        let ty = self.ctx.ref_ty(r)?;
        // Split path into leading fields and trailing indices.
        let mut fields = Vec::new();
        let mut indices: Vec<&Expr> = Vec::new();
        for acc in &r.path {
            match acc {
                Accessor::Field(f) => {
                    if !indices.is_empty() {
                        return Err(CodegenError::Unsupported(
                            "field access after vector indexing".into(),
                        ));
                    }
                    fields.push(f.clone());
                }
                Accessor::Index(i) => indices.push(i),
            }
        }
        let mut s = SExpr::var(Self::flat_name(&r.base, &fields));
        for i in indices {
            let iv = self.tr(i)?.as_int()?;
            s = SExpr::ListGet(Box::new(s), Box::new(iv));
        }
        // List elements are stored as integers; expose booleans as
        // comparisons so downstream coercions work uniformly.
        if ty == STy::Bool && !r.path.iter().any(|a| matches!(a, Accessor::Index(_))) {
            return Ok(TExpr { s, ty });
        }
        if ty == STy::Bool {
            return Ok(TExpr { s: s.eq(SExpr::int(1)), ty });
        }
        Ok(TExpr { s, ty })
    }

    fn tr_unop(&mut self, op: UnaryOp, a: &Expr, ty: STy) -> Result<TExpr, CodegenError> {
        let av = self.tr(a)?;
        let w = av.ty.width();
        let s = match op {
            UnaryOp::Not => {
                let w = w.ok_or_else(|| CodegenError::Type("~ on aggregate".into()))?;
                SExpr::pow2(p2s(&w)).sub(SExpr::int(1)).sub(av.as_int()?)
            }
            UnaryOp::LogicNot => av.as_bool()?.not(),
            UnaryOp::Neg => {
                let w = w.ok_or_else(|| CodegenError::Type("neg on aggregate".into()))?;
                SExpr::pow2(p2s(&w)).sub(av.as_int()?).mod_pow2(p2s(&w))
            }
            UnaryOp::OrR => av.as_int()?.cmp(SCmp::Ne, SExpr::int(0)),
            UnaryOp::AndR => {
                let w = w.ok_or_else(|| CodegenError::Type("andR on aggregate".into()))?;
                av.as_int()?.eq(SExpr::pow2(p2s(&w)).sub(SExpr::int(1)))
            }
            UnaryOp::XorR => {
                return Err(CodegenError::Unsupported("xorR is outside the subset".into()))
            }
            UnaryOp::AsUInt | UnaryOp::AsSInt => av.as_int()?,
            UnaryOp::AsBool => av.as_bool()?,
        };
        Ok(TExpr { s, ty })
    }

    fn tr_binop(
        &mut self,
        op: BinaryOp,
        a: &Expr,
        b: &Expr,
        ty: STy,
    ) -> Result<TExpr, CodegenError> {
        let av = self.tr(a)?;
        let bv = self.tr(b)?;
        let s = match op {
            BinaryOp::LogicAnd => av.as_bool()?.and(bv.as_bool()?),
            BinaryOp::LogicOr => av.as_bool()?.or(bv.as_bool()?),
            BinaryOp::Eq | BinaryOp::Neq | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt
            | BinaryOp::Ge => {
                // Compare interpreted values: signed operands through the
                // two's-complement view.
                let interp = |t: TExpr| -> Result<SExpr, CodegenError> {
                    if t.ty.is_signed() {
                        let w = t.width()?;
                        Ok(to_signed(t.as_int()?, &w))
                    } else {
                        t.as_int()
                    }
                };
                if av.ty == STy::Bool && bv.ty == STy::Bool && matches!(op, BinaryOp::Eq | BinaryOp::Neq)
                {
                    let (x, y) = (av.as_bool()?, bv.as_bool()?);
                    let eq = x.clone().and(y.clone()).or(x.not().and(y.not()));
                    if op == BinaryOp::Eq {
                        eq
                    } else {
                        eq.not()
                    }
                } else {
                    let (x, y) = (interp(av)?, interp(bv)?);
                    let cmp = match op {
                        BinaryOp::Eq => SCmp::Eq,
                        BinaryOp::Neq => SCmp::Ne,
                        BinaryOp::Lt => SCmp::Lt,
                        BinaryOp::Le => SCmp::Le,
                        BinaryOp::Gt => SCmp::Gt,
                        _ => SCmp::Ge,
                    };
                    x.cmp(cmp, y)
                }
            }
            BinaryOp::Add | BinaryOp::Sub => {
                let w = ty.width().ok_or_else(|| CodegenError::Type("+/- on aggregate".into()))?;
                let (x, y) = (av.as_int()?, bv.as_int()?);
                let raw = if op == BinaryOp::Add { x.add(y) } else { x.sub(y) };
                raw.mod_pow2(p2s(&w))
            }
            BinaryOp::Mul => {
                let signed = av.ty.is_signed() && bv.ty.is_signed();
                let w = ty.width().ok_or_else(|| CodegenError::Type("* on aggregate".into()))?;
                if signed {
                    let (wa, wb) = (av.width()?, bv.width()?);
                    let x = to_signed(av.as_int()?, &wa);
                    let y = to_signed(bv.as_int()?, &wb);
                    x.mul(y).mod_pow2(p2s(&w))
                } else {
                    av.as_int()?.mul(bv.as_int()?)
                }
            }
            BinaryOp::Div => {
                if av.ty.is_signed() || bv.ty.is_signed() {
                    return Err(CodegenError::Unsupported(
                        "signed division is outside the subset".into(),
                    ));
                }
                let (x, y) = (av.as_int()?, bv.as_int()?);
                y.clone()
                    .eq(SExpr::int(0))
                    .ite(SExpr::int(0), x.div(y))
            }
            BinaryOp::Rem => {
                if av.ty.is_signed() || bv.ty.is_signed() {
                    return Err(CodegenError::Unsupported(
                        "signed remainder is outside the subset".into(),
                    ));
                }
                let w = ty.width().ok_or_else(|| CodegenError::Type("% on aggregate".into()))?;
                let (x, y) = (av.as_int()?, bv.as_int()?);
                y.clone()
                    .eq(SExpr::int(0))
                    .ite(x.clone().mod_pow2(p2s(&w)), x.imod(y))
            }
            BinaryOp::And | BinaryOp::Or | BinaryOp::Xor => {
                if av.ty == STy::Bool && bv.ty == STy::Bool {
                    let (x, y) = (av.as_bool()?, bv.as_bool()?);
                    match op {
                        BinaryOp::And => x.and(y),
                        BinaryOp::Or => x.or(y),
                        _ => {
                            // Boolean xor: x != y.
                            x.clone().and(y.clone().not()).or(x.not().and(y))
                        }
                    }
                } else {
                    let sop = match op {
                        BinaryOp::And => SBinop::BitAnd,
                        BinaryOp::Or => SBinop::BitOr,
                        _ => SBinop::BitXor,
                    };
                    SExpr::Binop(sop, Box::new(av.as_int()?), Box::new(bv.as_int()?))
                }
            }
            BinaryOp::Cat => {
                let wb = bv.width()?;
                av.as_int()?
                    .mul(SExpr::pow2(p2s(&wb)))
                    .add(bv.as_int()?)
            }
            BinaryOp::Shl => {
                let w = av.width()?;
                av.as_int()?.mul(SExpr::pow2(bv.as_int()?)).mod_pow2(p2s(&w))
            }
            BinaryOp::Shr => {
                let signed = av.ty.is_signed();
                let w = av.width()?;
                let k = bv.as_int()?;
                if signed {
                    to_signed(av.as_int()?, &w).div(SExpr::pow2(k)).mod_pow2(p2s(&w))
                } else {
                    av.as_int()?.div(SExpr::pow2(k))
                }
            }
        };
        Ok(TExpr { s, ty })
    }

    /// Translates a connect into an assignment (possibly a nested list
    /// update), clamping the value to the target's width when the widths are
    /// not syntactically equal.
    /// Translates one connect. When the (flattened) target is listed in
    /// `reg_names` the assignment is retargeted to the register's
    /// next-state copy, and for indexed targets the update chain *reads*
    /// the accumulated next-state receiver — but reads of the register
    /// inside the user's right-hand side always denote the pre-cycle
    /// value, exactly as in the reference interpreter.
    pub fn tr_assign(
        &mut self,
        lhs: &LValue,
        rhs: &Expr,
        reg_names: &[String],
    ) -> Result<SStmt, CodegenError> {
        // Resolve the target type along the full path.
        let mut rref = SignalRef::new(lhs.base.clone());
        for acc in &lhs.path {
            rref = match acc {
                LAccessor::Field(f) => rref.field(f.clone()),
                LAccessor::Index(i) => {
                    rref.index(Expr::LitU { value: i.clone(), width: None })
                }
            };
        }
        let target_ty = self.ctx.ref_ty(&rref)?;

        // Split the path into field prefix and index suffix.
        let mut fields = Vec::new();
        let mut indices: Vec<PExpr> = Vec::new();
        for acc in &lhs.path {
            match acc {
                LAccessor::Field(f) => {
                    if !indices.is_empty() {
                        return Err(CodegenError::Unsupported(
                            "field access after vector indexing in connect target".into(),
                        ));
                    }
                    fields.push(f.clone());
                }
                LAccessor::Index(i) => indices.push(i.clone()),
            }
        }
        let rv = self.tr(rhs)?;
        let value = self.coerce_connect(rv, &target_ty, !indices.is_empty())?;
        let name = Self::flat_name(&lhs.base, &fields);
        let target =
            if reg_names.contains(&name) { chicala_seq::next_name(&name) } else { name };
        if indices.is_empty() {
            return Ok(SStmt::Assign { name: target, rhs: value });
        }
        // v(i)(j) := e  ⟶  v := v.updated(i, v(i).updated(j, e))
        let rhs = build_list_update(SExpr::var(target.clone()), &indices, value);
        Ok(SStmt::Assign { name: target, rhs })
    }

    /// Coerces a translated value to the connect target's representation.
    /// List elements are always stored as integers (`in_list`), scalar
    /// booleans as booleans.
    fn coerce_connect(
        &mut self,
        rv: TExpr,
        target: &STy,
        in_list: bool,
    ) -> Result<SExpr, CodegenError> {
        match target {
            STy::Bool if in_list => Ok(rv.as_bool()?.ite(SExpr::int(1), SExpr::int(0))),
            STy::Bool => rv.as_bool(),
            STy::Ground { width, .. } => {
                let rhs_w = rv.ty.width();
                let v = rv.as_int()?;
                Ok(match rhs_w {
                    Some(w) if &w == width => v,
                    _ => v.mod_pow2(p2s(width)),
                })
            }
            STy::Vec { .. } => Ok(rv.s),
            STy::Bundle(_) => Err(CodegenError::Unsupported(
                "whole-bundle connects must be expanded before codegen".into(),
            )),
        }
    }
}

fn build_list_update(list: SExpr, indices: &[PExpr], value: SExpr) -> SExpr {
    let i = p2s(&indices[0]);
    if indices.len() == 1 {
        SExpr::ListSet(Box::new(list), Box::new(i), Box::new(value))
    } else {
        let inner = SExpr::ListGet(Box::new(list.clone()), Box::new(i.clone()));
        let updated_inner = build_list_update(inner, &indices[1..], value);
        SExpr::ListSet(Box::new(list), Box::new(i), Box::new(updated_inner))
    }
}

/// A merged statement tree: units regrouped into `if`/`else` nests when
/// adjacent units share their outermost guard condition (§2.3's merging).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Merged {
    /// A single connect.
    Assign {
        /// Target.
        lhs: LValue,
        /// Source.
        rhs: Expr,
    },
    /// A merged conditional.
    If {
        /// Condition.
        cond: Expr,
        /// True branch.
        then_b: Vec<Merged>,
        /// False branch.
        else_b: Vec<Merged>,
    },
    /// A generator loop (body merged recursively).
    Loop {
        /// Loop variable.
        var: String,
        /// Inclusive lower bound.
        start: PExpr,
        /// Exclusive upper bound.
        end: PExpr,
        /// Body.
        body: Vec<Merged>,
    },
}

/// Merges ordered units into nested conditionals. With `enable` false each
/// unit keeps its own guard nest (the ablation mode).
pub fn merge(units: &[Unit], enable: bool) -> Vec<Merged> {
    merge_level(units, 0, enable)
}

fn strip_guard(u: &Unit) -> Unit {
    match u {
        Unit::Assign { guards, lhs, rhs, origin } => Unit::Assign {
            guards: guards[1..].to_vec(),
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            origin: *origin,
        },
        Unit::Loop { guards, var, start, end, body, origin } => Unit::Loop {
            guards: guards[1..].to_vec(),
            var: var.clone(),
            start: start.clone(),
            end: end.clone(),
            body: body.clone(),
            origin: *origin,
        },
    }
}

fn merge_level(units: &[Unit], _depth: usize, enable: bool) -> Vec<Merged> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < units.len() {
        let u = &units[i];
        match u.guards().first() {
            None => {
                out.push(match u {
                    Unit::Assign { lhs, rhs, .. } => {
                        Merged::Assign { lhs: lhs.clone(), rhs: rhs.clone() }
                    }
                    Unit::Loop { var, start, end, body, .. } => Merged::Loop {
                        var: var.clone(),
                        start: start.clone(),
                        end: end.clone(),
                        body: merge_level(body, 0, enable),
                    },
                });
                i += 1;
            }
            Some(g0) => {
                let cond = g0.cond.clone();
                // Collect the maximal run sharing this outermost condition.
                let mut j = i;
                while j < units.len()
                    && units[j].guards().first().map(|g| &g.cond) == Some(&cond)
                    && (enable || j == i)
                {
                    j += 1;
                }
                let run = &units[i..j];
                let (mut trues, mut falses) = (Vec::new(), Vec::new());
                for u in run {
                    let stripped = strip_guard(u);
                    if u.guards()[0].polarity {
                        trues.push(stripped);
                    } else {
                        falses.push(stripped);
                    }
                }
                out.push(Merged::If {
                    cond,
                    then_b: merge_level(&trues, 0, enable),
                    else_b: merge_level(&falses, 0, enable),
                });
                i = j;
            }
        }
    }
    out
}

impl TypeCtx<'_> {
    /// Argument types of a module-local function, if it exists.
    pub fn module_func_arg_types(&self, name: &str) -> Option<Vec<STy>> {
        self.module_func(name)
            .map(|f| f.args.iter().map(|(_, t)| STy::from_chisel(t)).collect())
    }
}

/// Flattens a declared type to `(flattened name, metadata)` pairs mirroring
/// the name mangling used for references (`base_field`); vectors stay whole
/// (they become lists).
pub fn flatten_decl(name: &str, ty: &ChiselType) -> Vec<(String, ChiselType)> {
    match ty {
        ChiselType::Bundle(fields) => {
            let mut out = Vec::new();
            for (f, fty) in fields {
                out.extend(flatten_decl(&format!("{name}_{f}"), fty));
            }
            out
        }
        _ => vec![(name.to_string(), ty.clone())],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split;
    use chicala_chisel::examples::rotate_example;
    use chicala_chisel::Stmt;

    #[test]
    fn merge_rebuilds_if_else() {
        // when(c){a := x}, when(c){}.otherwise{b := y} splits into two units
        // with opposite polarities; merging produces one If.
        let m = rotate_example();
        let units = split(&m.body);
        let merged = merge(&units, true);
        // First unit block is the big when: it merges into a single If with
        // both branches, followed by the two trailing connects.
        assert_eq!(merged.len(), 3);
        match &merged[0] {
            Merged::If { then_b, else_b, .. } => {
                assert_eq!(then_b.len(), 2);
                assert_eq!(else_b.len(), 3); // R, cnt, nested If
                assert!(matches!(else_b[2], Merged::If { .. }));
            }
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn merge_disabled_keeps_units_separate() {
        let m = rotate_example();
        let units = split(&m.body);
        let merged = merge(&units, false);
        // 5 guarded units stay separate + 2 plain connects.
        assert_eq!(merged.len(), 7);
    }

    #[test]
    fn translate_rotate_rhs() {
        let m = rotate_example();
        let mut tr = Translator::new(TypeCtx::new(&m));
        // Cat(R(0), R(len-1, 1)) →
        //   (if-bit * Pow2(len-1)) + extract
        let len = PExpr::param("len");
        let e = Expr::sig("R").bit(0).cat(Expr::sig("R").bits(len.clone() - 1, 1));
        let t = tr.tr(&e).expect("translates");
        let s = t.s.to_string();
        assert!(s.contains("Pow2"), "uses Pow2: {s}");
        assert!(s.contains("(R / Pow2(1))"), "extract as division: {s}");
    }

    #[test]
    fn assign_clamps_when_widths_differ() {
        let m = rotate_example();
        let mut tr = Translator::new(TypeCtx::new(&m));
        // cnt := cnt + 1.U(len.W): both sides width len → no extra clamp
        // beyond the addition's own mod.
        let len = PExpr::param("len");
        let rhs = Expr::Binop(
            BinaryOp::Add,
            Box::new(Expr::sig("cnt")),
            Box::new(Expr::lit_u(1, len)),
        );
        let s = tr.tr_assign(&LValue::new("cnt"), &rhs, &[]).expect("translates");
        match s {
            SStmt::Assign { name, rhs } => {
                assert_eq!(name, "cnt");
                let txt = rhs.to_string();
                assert_eq!(txt.matches("% Pow2(len)").count(), 1, "single clamp: {txt}");
            }
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn list_update_nesting() {
        let v = build_list_update(
            SExpr::var("v"),
            &[PExpr::Const(1), PExpr::Const(2)],
            SExpr::int(9),
        );
        assert_eq!(v.to_string(), "v.updated(1, v(1).updated(2, 9))");
    }

    #[test]
    fn loops_survive_merging() {
        let stmts = vec![Stmt::For {
            var: "i".into(),
            start: PExpr::Const(0),
            end: PExpr::param("n"),
            body: vec![Stmt::Connect {
                lhs: LValue::new("v").index(PExpr::var("i")),
                rhs: Expr::lit(0),
            }],
        }];
        let units = split(&stmts);
        let merged = merge(&units, true);
        assert!(matches!(&merged[0], Merged::Loop { body, .. } if body.len() == 1));
    }
}
