//! Lowering: AST → IR with annotation insertion (Figure 5), checked as it
//! goes.
//!
//! Every shared load becomes `MAP; START_READ; load; END_READ` and every
//! shared store `MAP; START_WRITE; store; END_WRITE`, around the raw word
//! access — exactly the translation the paper's Figure 5 shows for
//! `*(x->world) = 4`. The `Map`/`Start`/`End` of one access share an
//! [`AccessId`] so the optimization passes can treat them as a unit.
//!
//! The same walk is the type checker, so an expression's type is computed
//! once, where its code is emitted. It enforces the paper's restrictions
//! (§3.1): all shared data is reached through `shared T*` handles allocated
//! from spaces; there is no arithmetic on shared pointers unless the result
//! is dereferenced immediately (i.e., only `p[i]`, `p->f`, `*p` are legal —
//! a pointer into the middle of a region cannot be materialized).

use std::collections::HashMap;
use std::sync::OnceLock;

use ace_protocols::ProtoSpec;

use crate::ast::{BinOp, Expr, ExprKind, Func, LValue, Stmt, Ty, Unit};
use crate::builtins::builtin;
use crate::ir::*;

/// A function signature.
#[derive(Clone)]
pub(crate) struct Sig {
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
}

/// What every function's walk looks up: each struct's fields in word
/// order, and each function's index and signature.
struct Tables<'a> {
    structs: HashMap<&'a str, Vec<(&'a str, &'a Ty, ValTy)>>,
    funcs: HashMap<&'a str, (FuncId, Sig)>,
}

/// A local variable or parameter.
#[derive(Clone)]
struct Local {
    slot: u32,
    ty: Ty,
    array: bool,
}

/// Where `base[i]`, `base->field` or `*base` is.
enum Place {
    /// An element of a local array slot.
    Elem(u32, VReg),
    /// A word of a region: handle, word offset, type.
    Shared(VReg, VReg, ValTy),
}

/// The selector applied to a place's base.
enum Sel<'a> {
    Index(&'a Expr),
    Field(&'a str),
    Deref,
}

struct FnLower<'a, 'n> {
    tables: &'a Tables<'a>,
    naccess: &'n mut u32,
    nsites: &'n mut u32,
    /// The declared return type, which every `return` converts to.
    ret: &'a Ty,
    slots: Vec<Slot>,
    /// Visible locals, innermost last; a scope is a suffix.
    vars: Vec<(&'a str, Local)>,
    blocks: Vec<(Vec<Inst>, Option<Term>)>,
    cur: BlockId,
    nregs: u32,
    // (continue target, break target)
    loops: Vec<(BlockId, BlockId)>,
}

/// Check a unit and lower it to a program (annotations inserted, all
/// modes `Dispatch`).
///
/// # Errors
///
/// Returns the first rule the unit breaks, with its line.
pub fn lower(unit: &Unit) -> Result<Program, String> {
    let mut structs = HashMap::new();
    for sd in &unit.structs {
        let mut fields = Vec::new();
        for (ty, f) in &sd.fields {
            let Some(vt) = word(ty) else {
                return Err(format!("struct {}: field {f} has unsupported type {ty:?}", sd.name));
            };
            fields.push((&**f, ty, vt));
        }
        if structs.insert(&*sd.name, fields).is_some() {
            return Err(format!("duplicate struct {}", sd.name));
        }
    }
    let mut funcs = HashMap::new();
    for (id, f) in unit.funcs.iter().enumerate() {
        if builtin(&f.name).is_some() {
            return Err(format!("line {}: function {} shadows a builtin", f.line, f.name));
        }
        let sig =
            Sig { params: f.params.iter().map(|(t, _)| t.clone()).collect(), ret: f.ret.clone() };
        if funcs.insert(&*f.name, (id, sig)).is_some() {
            return Err(format!("duplicate function {}", f.name));
        }
    }
    let Some(&(main, _)) = funcs.get("main") else {
        return Err("program has no main()".into());
    };
    let tables = Tables { structs, funcs };
    let (mut naccess, mut nsites) = (0, 0);
    let funcs = unit
        .funcs
        .iter()
        .map(|f| lower_fn(&tables, f, &mut naccess, &mut nsites))
        .collect::<Result<_, _>>()?;
    Ok(Program { funcs, main, naccesses: naccess, code: OnceLock::new() })
}

/// The word type of a region element or struct field of type `t`.
fn word(t: &Ty) -> Option<ValTy> {
    match t {
        Ty::Int => Some(ValTy::I),
        Ty::Double => Some(ValTy::F),
        Ty::SharedPtr(_) => Some(ValTy::H),
        _ => None,
    }
}

/// The word type of `name`, a variable, parameter or function declared
/// `ty` on `line`.
fn val_ty(ty: &Ty, name: &str, line: u32) -> Result<ValTy, String> {
    match (ty, word(ty)) {
        (_, Some(vt)) => Ok(vt),
        (Ty::Space, _) => Ok(ValTy::S),
        (Ty::Struct(n), _) => Err(format!(
            "line {line}: struct {n} values live in regions; declare `shared struct {n}*`"
        )),
        _ => Err(format!("line {line}: cannot declare void variable {name}")),
    }
}

/// Whether a `got` value may go where a `want` is declared: the same type,
/// an int widened to double, or one shared pointer for another when the
/// `shared void*` side allows it. A store (`arg` false) adopts a
/// `shared void*` value, an uncast `gmalloc`, as any shared pointer; a
/// call (`arg` true) passes any shared pointer to a `shared void*`
/// parameter.
fn assignable(want: &Ty, got: &Ty, arg: bool) -> bool {
    let void_side = if arg { want } else { got };
    want == got
        || (*want == Ty::Double && *got == Ty::Int)
        || (want.is_shared_ptr()
            && got.is_shared_ptr()
            && matches!(void_side, Ty::SharedPtr(inner) if **inner == Ty::Void))
}

/// The type `a op b` computes in: §3.1 allows no arithmetic on shared
/// pointers, only equality.
fn operand_ty(op: BinOp, a: &Ty, b: &Ty, line: u32) -> Result<Ty, String> {
    if a.is_shared_ptr() || b.is_shared_ptr() {
        if matches!(op, BinOp::Eq | BinOp::Ne) && a == b {
            return Ok(a.clone());
        }
        return Err(format!(
            "line {line}: arithmetic on shared pointers is disallowed (Ace §3.1); use p[i]"
        ));
    }
    match (op, a, b) {
        (_, Ty::Int, Ty::Int) => Ok(Ty::Int),
        (BinOp::And | BinOp::Or, ..) => Err(format!("line {line}: logical ops need int operands")),
        (BinOp::Rem, ..) => Err(format!("line {line}: %% needs int operands")),
        (_, Ty::Int | Ty::Double, Ty::Int | Ty::Double) => Ok(Ty::Double),
        _ => Err(format!("line {line}: numeric op on {a:?} and {b:?}")),
    }
}

fn protocol(name: &str, line: u32) -> Result<ProtoSpec, String> {
    ProtoSpec::by_name(name).ok_or_else(|| format!("line {line}: unknown protocol \"{name}\""))
}

fn lower_fn(
    tables: &Tables,
    f: &Func,
    naccess: &mut u32,
    nsites: &mut u32,
) -> Result<IFunc, String> {
    let mut lw = FnLower {
        tables,
        naccess,
        nsites,
        ret: &f.ret,
        slots: Vec::new(),
        vars: Vec::new(),
        blocks: vec![(Vec::new(), None)],
        cur: 0,
        nregs: 0,
        loops: Vec::new(),
    };
    for (ty, name) in &f.params {
        let local = Local { slot: lw.slots.len() as u32, ty: ty.clone(), array: false };
        lw.slots.push(Slot::Scalar(val_ty(ty, name, f.line)?));
        lw.vars.push((name, local));
    }
    let ret = (f.ret != Ty::Void).then(|| val_ty(&f.ret, &f.name, f.line)).transpose()?;
    lw.block(&f.body)?;
    // Fall-through return for void functions.
    lw.seal(Term::Ret(None));
    let blocks = lw
        .blocks
        .into_iter()
        .map(|(insts, term)| Block { insts, term: term.unwrap_or(Term::Ret(None)) })
        .collect();
    Ok(IFunc {
        name: f.name.clone(),
        nparams: f.params.len(),
        slots: lw.slots,
        nregs: lw.nregs,
        ret,
        blocks,
    })
}

impl<'a> FnLower<'a, '_> {
    fn reg(&mut self) -> VReg {
        self.nregs += 1;
        self.nregs - 1
    }

    fn emit(&mut self, i: Inst) {
        if self.blocks[self.cur].1.is_none() {
            self.blocks[self.cur].0.push(i);
        }
        // Instructions after a terminator (post-return code) are dropped.
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        self.blocks.len() - 1
    }

    fn seal(&mut self, t: Term) {
        if self.blocks[self.cur].1.is_none() {
            self.blocks[self.cur].1 = Some(t);
        }
    }

    fn switch(&mut self, b: BlockId) {
        self.cur = b;
    }

    fn fresh_aid(&mut self) -> AccessId {
        *self.naccess += 1;
        *self.naccess - 1
    }

    fn lookup(&self, name: &str, line: u32) -> Result<Local, String> {
        let found = self.vars.iter().rev().find(|(n, _)| *n == name);
        found.map(|(_, l)| l.clone()).ok_or_else(|| format!("line {line}: unknown variable {name}"))
    }

    // ------------------------------------------------------------------
    // statements
    // ------------------------------------------------------------------

    fn block(&mut self, stmts: &'a [Stmt]) -> Result<(), String> {
        let scope = self.vars.len();
        for s in stmts {
            self.stmt(s)?;
        }
        self.vars.truncate(scope);
        Ok(())
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<(), String> {
        match s {
            Stmt::Decl { ty, name, array_len, init, line } => {
                let vt = val_ty(ty, name, *line)?;
                let slot = self.slots.len() as u32;
                match (array_len, init) {
                    (Some(_), Some(_)) => {
                        return Err(format!("line {line}: array declarations take no initializer"))
                    }
                    (Some(len), None) => self.slots.push(Slot::Array(vt, *len)),
                    (None, _) => self.slots.push(Slot::Scalar(vt)),
                }
                // The name is in scope after its initializer.
                if let Some(init) = init {
                    let (r, t) = self.expr(init)?;
                    let r = self.assign(r, &t, ty, *line)?;
                    self.emit(Inst::StoreLocal { slot, a: r });
                }
                let array = array_len.is_some();
                self.vars.push((name, Local { slot, ty: ty.clone(), array }));
            }
            Stmt::Assign { lhs, rhs, line } => {
                let (rv, rt) = self.expr(rhs)?;
                let line = *line;
                let (place, want) = match lhs {
                    LValue::Var(n) => {
                        let l = self.lookup(n, line)?;
                        if l.array {
                            return Err(format!("line {line}: cannot assign whole array {n}"));
                        }
                        let rv = self.assign(rv, &rt, &l.ty, line)?;
                        self.emit(Inst::StoreLocal { slot: l.slot, a: rv });
                        return Ok(());
                    }
                    LValue::Index(base, idx) => self.place(base, Sel::Index(idx), line)?,
                    LValue::Member(base, field) => self.place(base, Sel::Field(field), line)?,
                    LValue::Deref(base) => self.place(base, Sel::Deref, line)?,
                };
                let rv = self.assign(rv, &rt, &want, line)?;
                match place {
                    Place::Elem(slot, idx) => self.emit(Inst::StoreArr { slot, idx, a: rv }),
                    Place::Shared(handle, off, _) => self.shared_store(handle, off, rv),
                }
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
            }
            Stmt::If { cond, then_blk, else_blk } => {
                let c = self.int(cond)?;
                let tb = self.new_block();
                let eb = self.new_block();
                let join = self.new_block();
                self.seal(Term::Br { cond: c, t: tb, f: eb });
                self.switch(tb);
                self.block(then_blk)?;
                self.seal(Term::Jump(join));
                self.switch(eb);
                self.block(else_blk)?;
                self.seal(Term::Jump(join));
                self.switch(join);
            }
            Stmt::While { cond, body } => {
                let header = self.new_block();
                let bodyb = self.new_block();
                let exit = self.new_block();
                self.seal(Term::Jump(header));
                self.switch(header);
                let c = self.int(cond)?;
                self.seal(Term::Br { cond: c, t: bodyb, f: exit });
                self.loops.push((header, exit));
                self.switch(bodyb);
                self.block(body)?;
                self.seal(Term::Jump(header));
                self.loops.pop();
                self.switch(exit);
            }
            Stmt::For { init, cond, step, body } => {
                let scope = self.vars.len();
                self.stmt(init)?;
                let header = self.new_block();
                let bodyb = self.new_block();
                let stepb = self.new_block();
                let exit = self.new_block();
                self.seal(Term::Jump(header));
                self.switch(header);
                let c = self.int(cond)?;
                self.seal(Term::Br { cond: c, t: bodyb, f: exit });
                self.loops.push((stepb, exit));
                self.switch(bodyb);
                self.block(body)?;
                self.seal(Term::Jump(stepb));
                self.switch(stepb);
                self.stmt(step)?;
                self.seal(Term::Jump(header));
                self.loops.pop();
                self.vars.truncate(scope);
                self.switch(exit);
            }
            Stmt::Return(e, line) => {
                let r = match (e, self.ret) {
                    (None, Ty::Void) => None,
                    (None, other) => {
                        return Err(format!("line {line}: missing return value of type {other:?}"))
                    }
                    (Some(_), Ty::Void) => {
                        return Err(format!("line {line}: void function returns a value"))
                    }
                    (Some(e), want) => {
                        let (r, t) = self.expr(e)?;
                        Some(self.assign(r, &t, want, *line)?)
                    }
                };
                self.seal(Term::Ret(r));
                let dead = self.new_block();
                self.switch(dead);
            }
            Stmt::Break(line) | Stmt::Continue(line) => {
                let Some(&(cont, brk)) = self.loops.last() else {
                    return Err(format!("line {line}: break/continue outside a loop"));
                };
                self.seal(Term::Jump(if matches!(s, Stmt::Break(_)) { brk } else { cont }));
                let dead = self.new_block();
                self.switch(dead);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // shared access helpers (the Figure 5 translation)
    // ------------------------------------------------------------------

    fn shared_load(&mut self, handle: VReg, off: VReg, ty: ValTy) -> VReg {
        let (aid, mode) = (self.fresh_aid(), DispatchMode::Dispatch);
        let (mapped, dst) = (self.reg(), self.reg());
        self.emit(Inst::Map { aid, mode, dst: mapped, handle });
        self.emit(Inst::Ann { hook: Hook::StartRead, aid, mode, handle: mapped });
        self.emit(Inst::GLoad { dst, handle: mapped, off, ty });
        self.emit(Inst::Ann { hook: Hook::EndRead, aid, mode, handle: mapped });
        dst
    }

    fn shared_store(&mut self, handle: VReg, off: VReg, val: VReg) {
        let (aid, mode) = (self.fresh_aid(), DispatchMode::Dispatch);
        let mapped = self.reg();
        self.emit(Inst::Map { aid, mode, dst: mapped, handle });
        self.emit(Inst::Ann { hook: Hook::StartWrite, aid, mode, handle: mapped });
        self.emit(Inst::GStore { handle: mapped, off, val });
        self.emit(Inst::Ann { hook: Hook::EndWrite, aid, mode, handle: mapped });
    }

    /// Lower `base` and select from it: a local array's element, or a
    /// word of the region a shared pointer names. Returns the word's type.
    fn place(&mut self, base: &'a Expr, sel: Sel<'a>, line: u32) -> Result<(Place, Ty), String> {
        if let (ExprKind::Var(n), Sel::Index(idx)) = (&base.kind, &sel) {
            if let Ok(Local { slot, ty, array: true }) = self.lookup(n, line) {
                return Ok((Place::Elem(slot, self.int(idx)?), ty));
            }
        }
        let (hv, ht) = self.expr(base)?;
        let pointee = match ht {
            Ty::SharedPtr(inner) => Ok(*inner),
            other => Err(other),
        };
        match sel {
            Sel::Index(idx) => {
                let elem = pointee.map_err(|t| format!("line {line}: cannot index into {t:?}"))?;
                let Some(vt) = word(&elem) else {
                    return Err(match elem {
                        Ty::Struct(n) => {
                            format!("line {line}: index a `shared struct {n}*` via ->field, not []")
                        }
                        other => format!("line {line}: cannot index into {other:?}"),
                    });
                };
                Ok((Place::Shared(hv, self.int(idx)?, vt), elem))
            }
            Sel::Field(field) => {
                let name = match pointee {
                    Ok(Ty::Struct(name)) => name,
                    Ok(other) | Err(other) => {
                        return Err(format!(
                            "line {line}: -> requires a shared struct pointer, found {other:?}"
                        ))
                    }
                };
                let fields = self.tables.structs.get(&*name).map_or(&[][..], Vec::as_slice);
                let Some((off, &(_, fty, vt))) =
                    fields.iter().enumerate().find(|(_, (f, ..))| *f == field)
                else {
                    return Err(format!("line {line}: struct {name} has no field {field}"));
                };
                let offv = self.reg();
                self.emit(Inst::ConstI(offv, off as i64));
                Ok((Place::Shared(hv, offv, vt), fty.clone()))
            }
            Sel::Deref => {
                let elem = pointee.map_err(|t| format!("line {line}: cannot deref {t:?}"))?;
                let Some(vt) = word(&elem) else {
                    return Err(format!("line {line}: cannot deref pointer to {elem:?}"));
                };
                let zero = self.reg();
                self.emit(Inst::ConstI(zero, 0));
                Ok((Place::Shared(hv, zero, vt), elem))
            }
        }
    }

    fn load(&mut self, base: &'a Expr, sel: Sel<'a>, line: u32) -> Result<(VReg, Ty), String> {
        let (place, ty) = self.place(base, sel, line)?;
        let dst = match place {
            Place::Elem(slot, idx) => {
                let dst = self.reg();
                self.emit(Inst::LoadArr { dst, slot, idx });
                dst
            }
            Place::Shared(handle, off, vt) => self.shared_load(handle, off, vt),
        };
        Ok((dst, ty))
    }

    // ------------------------------------------------------------------
    // expressions
    // ------------------------------------------------------------------

    fn coerce(&mut self, r: VReg, from: &Ty, to: &Ty) -> VReg {
        if from == to {
            return r;
        }
        match (from, to) {
            (Ty::Int, Ty::Double) => {
                let d = self.reg();
                self.emit(Inst::IntToF { dst: d, a: r });
                d
            }
            // shared-pointer-of-void adoption and int/ptr casts are bit
            // re-interpretations.
            _ => r,
        }
    }

    /// `r`, of type `got`, converted for a destination declared `want`.
    fn assign(&mut self, r: VReg, got: &Ty, want: &Ty, line: u32) -> Result<VReg, String> {
        if !assignable(want, got, false) {
            return Err(format!("line {line}: cannot assign {got:?} to {want:?}"));
        }
        Ok(self.coerce(r, got, want))
    }

    /// Lower `e`, which must be an int: a condition, an index, an operand
    /// of `!`.
    fn int(&mut self, e: &'a Expr) -> Result<VReg, String> {
        let (r, t) = self.expr(e)?;
        if t != Ty::Int {
            return Err(format!("line {}: condition must be int, found {t:?}", e.line));
        }
        Ok(r)
    }

    fn expr(&mut self, e: &'a Expr) -> Result<(VReg, Ty), String> {
        let line = e.line;
        Ok(match &e.kind {
            ExprKind::Int(v) => {
                let r = self.reg();
                self.emit(Inst::ConstI(r, *v));
                (r, Ty::Int)
            }
            ExprKind::Float(v) => {
                let r = self.reg();
                self.emit(Inst::ConstF(r, *v));
                (r, Ty::Double)
            }
            ExprKind::Str(_) => {
                return Err(format!(
                    "line {line}: string literals are only valid as protocol names in new_space/change_protocol"
                ))
            }
            ExprKind::Var(n) => {
                let l = self.lookup(n, line)?;
                if l.array {
                    return Err(format!("line {line}: array {n} must be indexed"));
                }
                let r = self.reg();
                self.emit(Inst::LoadLocal { dst: r, slot: l.slot });
                (r, l.ty)
            }
            ExprKind::Bin(op, a, b) => {
                let ir_op = match op {
                    BinOp::Add => Bin::Add,
                    BinOp::Sub => Bin::Sub,
                    BinOp::Mul => Bin::Mul,
                    BinOp::Div => Bin::Div,
                    BinOp::Rem => Bin::Rem,
                    BinOp::Eq => Bin::Eq,
                    BinOp::Ne => Bin::Ne,
                    BinOp::Lt => Bin::Lt,
                    BinOp::Le => Bin::Le,
                    BinOp::Gt => Bin::Gt,
                    BinOp::Ge => Bin::Ge,
                    BinOp::And | BinOp::Or => return self.short_circuit(*op, a, b, line),
                };
                let (av, at) = self.expr(a)?;
                let (bv, bt) = self.expr(b)?;
                let ty = operand_ty(*op, &at, &bt, line)?;
                let av = self.coerce(av, &at, &ty);
                let bv = self.coerce(bv, &bt, &ty);
                let vt = match &ty {
                    Ty::Double => ValTy::F,
                    Ty::SharedPtr(_) => ValTy::H,
                    _ => ValTy::I,
                };
                let dst = self.reg();
                self.emit(Inst::BinOp { dst, op: ir_op, ty: vt, a: av, b: bv });
                let rt = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => ty,
                    _ => Ty::Int,
                };
                (dst, rt)
            }
            ExprKind::Neg(a) => {
                let (av, at) = self.expr(a)?;
                let ty = match at {
                    Ty::Int => ValTy::I,
                    Ty::Double => ValTy::F,
                    _ => return Err(format!("line {line}: cannot negate {at:?}")),
                };
                let dst = self.reg();
                self.emit(Inst::Neg { dst, ty, a: av });
                (dst, at)
            }
            ExprKind::Not(a) => {
                let av = self.int(a)?;
                let dst = self.reg();
                self.emit(Inst::Not { dst, a: av });
                (dst, Ty::Int)
            }
            ExprKind::Index(base, idx) => return self.load(base, Sel::Index(idx), line),
            ExprKind::Member(base, field) => return self.load(base, Sel::Field(field), line),
            ExprKind::Deref(base) => return self.load(base, Sel::Deref, line),
            ExprKind::Cast(to, inner) => {
                // `(shared T*) gmalloc(s, n)` carries the element size into
                // the allocation.
                if let (Ty::SharedPtr(elem), ExprKind::Call(name, args)) = (to, &inner.kind) {
                    if name == "gmalloc" {
                        let words = match &**elem {
                            Ty::Struct(n) => match self.tables.structs.get(&**n) {
                                Some(fields) => fields.len() as u32,
                                None => return Err(format!("line {line}: unknown struct {n}")),
                            },
                            _ => 1,
                        };
                        return self.gmalloc(args, words, to.clone(), inner.line);
                    }
                }
                let (r, from) = self.expr(inner)?;
                match (&from, to) {
                    (Ty::Double, Ty::Int) => {
                        let d = self.reg();
                        self.emit(Inst::FToInt { dst: d, a: r });
                        (d, to.clone())
                    }
                    (Ty::Int | Ty::Double, Ty::Int | Ty::Double)
                    | (Ty::Int | Ty::SharedPtr(_), Ty::SharedPtr(_))
                    | (Ty::SharedPtr(_), Ty::Int) => (self.coerce(r, &from, to), to.clone()),
                    _ => return Err(format!("line {line}: invalid cast {from:?} -> {to:?}")),
                }
            }
            ExprKind::Call(name, args) => return self.call(name, args, line),
        })
    }

    /// `a && b` / `a || b`, through a temporary slot that ends up 0 or 1.
    /// `&&` stores `a` itself: it survives only when it is 0.
    fn short_circuit(
        &mut self,
        op: BinOp,
        a: &'a Expr,
        b: &'a Expr,
        line: u32,
    ) -> Result<(VReg, Ty), String> {
        let slot = self.slots.len() as u32;
        self.slots.push(Slot::Scalar(ValTy::I));
        let (av, at) = self.expr(a)?;
        let av = if op == BinOp::Or { self.truth(av, a) } else { av };
        self.emit(Inst::StoreLocal { slot, a: av });
        let rhs_b = self.new_block();
        let join = self.new_block();
        if op == BinOp::And {
            self.seal(Term::Br { cond: av, t: rhs_b, f: join });
        } else {
            self.seal(Term::Br { cond: av, t: join, f: rhs_b });
        }
        self.switch(rhs_b);
        let (bv, bt) = self.expr(b)?;
        operand_ty(op, &at, &bt, line)?;
        let bv = self.truth(bv, b);
        self.emit(Inst::StoreLocal { slot, a: bv });
        self.seal(Term::Jump(join));
        self.switch(join);
        let r = self.reg();
        self.emit(Inst::LoadLocal { dst: r, slot });
        Ok((r, Ty::Int))
    }

    /// `e`'s value `v` as C's truth value, 0 or 1: `v` itself when `e` is
    /// a comparison, a `!`, a `&&` or a `||`, else `v != 0`.
    fn truth(&mut self, v: VReg, e: &Expr) -> VReg {
        let boolean = match &e.kind {
            ExprKind::Not(_) => true,
            ExprKind::Bin(op, ..) => {
                !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem)
            }
            _ => false,
        };
        if boolean {
            return v;
        }
        let (zero, dst) = (self.reg(), self.reg());
        self.emit(Inst::ConstI(zero, 0));
        self.emit(Inst::BinOp { dst, op: Bin::Ne, ty: ValTy::I, a: v, b: zero });
        dst
    }

    /// Lower a call's arguments, each converted to its parameter's type.
    fn args(
        &mut self,
        name: &str,
        params: &[Ty],
        args: &'a [Expr],
        line: u32,
    ) -> Result<Vec<VReg>, String> {
        if params.len() != args.len() {
            return Err(format!(
                "line {line}: {name} expects {} arguments, got {}",
                params.len(),
                args.len()
            ));
        }
        let mut vals = Vec::with_capacity(args.len());
        for (want, a) in params.iter().zip(args) {
            let (v, got) = self.expr(a)?;
            if !assignable(want, &got, true) {
                return Err(format!(
                    "line {}: argument to {name} has type {got:?}, expected {want:?}",
                    a.line
                ));
            }
            vals.push(self.coerce(v, &got, want));
        }
        Ok(vals)
    }

    fn gmalloc(
        &mut self,
        args: &'a [Expr],
        elem_words: u32,
        ty: Ty,
        line: u32,
    ) -> Result<(VReg, Ty), String> {
        let params = builtin("gmalloc").map(|b| b.sig().params).unwrap_or_default();
        let vals = self.args("gmalloc", &params, args, line)?;
        Ok(self.intrinsic(Intr::Gmalloc { elem_words }, vals, ty))
    }

    fn intrinsic(&mut self, which: Intr, args: Vec<VReg>, ret: Ty) -> (VReg, Ty) {
        let dst = (ret != Ty::Void).then(|| self.reg());
        self.emit(Inst::Intrinsic { dst, which, args });
        (dst.unwrap_or(0), ret)
    }

    fn call(&mut self, name: &str, args: &'a [Expr], line: u32) -> Result<(VReg, Ty), String> {
        // The builtins whose instruction is not their table row's: string
        // operands, a result typed by the argument, an element size.
        match (name, args) {
            ("new_space", [Expr { kind: ExprKind::Str(p), .. }]) => {
                let which = Intr::NewSpace { spec: protocol(p, line)?, site: *self.nsites };
                *self.nsites += 1;
                return Ok(self.intrinsic(which, vec![], Ty::Space));
            }
            ("new_space", _) => return Err(format!("line {line}: new_space(\"ProtocolName\")")),
            ("change_protocol", _) => {
                if let [space, Expr { kind: ExprKind::Str(p), .. }] = args {
                    let (sv, t) = self.expr(space)?;
                    if t == Ty::Space {
                        let which = Intr::ChangeProtocol { spec: protocol(p, line)? };
                        return Ok(self.intrinsic(which, vec![sv], Ty::Void));
                    }
                }
                return Err(format!("line {line}: change_protocol(space, \"ProtocolName\")"));
            }
            ("bcast_p", [root, ptr]) => {
                let a = self.int(root)?;
                let (b, t) = self.expr(ptr)?;
                if !t.is_shared_ptr() {
                    return Err(format!("line {line}: bcast_p needs a shared pointer"));
                }
                return Ok(self.intrinsic(Intr::BcastP, vec![a, b], t));
            }
            ("bcast_p", _) => return Err(format!("line {line}: bcast_p(root, ptr)")),
            // Uncast gmalloc allocates raw words.
            ("gmalloc", _) => {
                return self.gmalloc(args, 1, Ty::SharedPtr(Box::new(Ty::Void)), line)
            }
            _ => {}
        }
        let row = builtin(name);
        let (func, sig) = match (row, self.tables.funcs.get(name)) {
            (Some(b), _) => (None, b.sig()),
            (None, Some((id, sig))) => (Some(*id), sig.clone()),
            (None, None) => return Err(format!("line {line}: unknown function {name}")),
        };
        let vals = self.args(name, &sig.params, args, line)?;
        let dst = (sig.ret != Ty::Void).then(|| self.reg());
        let inst = match (func, row.and_then(|b| b.lowers)) {
            (Some(func), _) => Inst::Call { dst, func, args: vals },
            (None, Some((which, _))) => Inst::Intrinsic { dst, which, args: vals },
            // `lock` and `unlock`: an annotation on the handle.
            (None, None) => {
                let hook = if name == "lock" { Hook::Lock } else { Hook::Unlock };
                let aid = self.fresh_aid();
                Inst::Ann { hook, aid, mode: DispatchMode::Dispatch, handle: vals[0] }
            }
        };
        self.emit(inst);
        Ok((dst.unwrap_or(0), sig.ret))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse;
    use crate::{compile, OptLevel, SystemConfig};

    fn check_src(src: &str) -> Result<Program, String> {
        lower(&parse(&lex(src)?)?)
    }

    fn lower_src(src: &str) -> Program {
        check_src(src).unwrap()
    }

    /// Count annotation instructions in a program.
    fn count_annotations(p: &Program) -> (usize, usize, usize) {
        // (maps, starts, ends)
        let mut maps = 0;
        let mut starts = 0;
        let mut ends = 0;
        for f in &p.funcs {
            for b in &f.blocks {
                for i in &b.insts {
                    match i {
                        Inst::Map { .. } => maps += 1,
                        Inst::Ann { hook: Hook::StartRead | Hook::StartWrite, .. } => starts += 1,
                        Inst::Ann { hook: Hook::EndRead | Hook::EndWrite, .. } => ends += 1,
                        _ => {}
                    }
                }
            }
        }
        (maps, starts, ends)
    }

    #[test]
    fn figure5_translation_shape() {
        // *(x->world) = 4 becomes two accesses: a read of x->world and a
        // write through it — 2 maps, 2 starts, 2 ends.
        let p = lower_src(
            "struct hello { int world; };
             void main() {
                space s = new_space(\"SC\");
                shared struct hello *x = (shared struct hello*) gmalloc(s, 1);
                shared int *w;
                w = (shared int*) x->world;
                *w = 4;
             }",
        );
        let (maps, starts, ends) = count_annotations(&p);
        assert_eq!((maps, starts, ends), (2, 2, 2));
    }

    #[test]
    fn loop_lowering_produces_header_and_exit() {
        let p = lower_src(
            "void main() { int i; int acc = 0; for (i = 0; i < 4; i = i + 1) { acc = acc + i; } }",
        );
        let f = &p.funcs[p.main];
        assert!(f.blocks.len() >= 4, "entry, header, body, step, exit");
    }

    #[test]
    fn every_access_has_matching_start_end() {
        let p = lower_src(
            "void main() {
                space s = new_space(\"SC\");
                shared double *v = (shared double*) gmalloc(s, 8);
                int i;
                double acc = 0.0;
                for (i = 0; i < 8; i = i + 1) { acc = acc + v[i]; }
                v[0] = acc;
             }",
        );
        let (maps, starts, ends) = count_annotations(&p);
        assert_eq!(maps, starts);
        assert_eq!(starts, ends);
        assert_eq!(maps, 2); // one read site in the loop, one write site
    }

    #[test]
    fn short_circuit_creates_blocks() {
        let p = lower_src(
            "void main() { int a = 1; int b = 2; if (a > 0 && b > 0) { a = 3; } else { } }",
        );
        assert!(p.funcs[p.main].blocks.len() >= 5);
    }

    #[test]
    fn struct_member_offsets() {
        let p = lower_src(
            "struct n { int a; double b; };
             void main() {
                space s = new_space(\"SC\");
                shared struct n *p = (shared struct n*) gmalloc(s, 1);
                double x = p->b;
             }",
        );
        // the member load should use a constant offset 1 (second field)
        let mut saw = false;
        for b in &p.funcs[p.main].blocks {
            for w in b.insts.windows(2) {
                if let (Inst::ConstI(r, 1), Inst::Map { .. }) = (&w[0], &w[1]) {
                    let _ = r;
                    saw = true;
                }
            }
        }
        assert!(saw, "expected offset constant before the member access map");
    }

    #[test]
    fn em3d_style_program_checks() {
        let src = r#"
            void main() {
                space eval = new_space("SC");
                shared double *v = (shared double*) gmalloc(eval, 10);
                int i;
                double acc = 0.0;
                for (i = 0; i < 10; i = i + 1) { acc = acc + v[i]; }
                change_protocol(eval, "Update");
                barrier(eval);
            }
        "#;
        check_src(src).unwrap();
    }

    #[test]
    fn rejects_pointer_arithmetic() {
        let src = r#"
            void main() {
                space s = new_space("SC");
                shared int *p = (shared int*) gmalloc(s, 4);
                shared int *q = (shared int*) gmalloc(s, 4);
                int bad = (p + 1) == q;
            }
        "#;
        let err = check_src(src).unwrap_err();
        assert!(err.contains("arithmetic on shared pointers"), "{err}");
    }

    #[test]
    fn pointer_equality_is_allowed() {
        let src = r#"
            void main() {
                space s = new_space("SC");
                shared int *p = (shared int*) gmalloc(s, 4);
                shared int *q = p;
                int same = p == q;
            }
        "#;
        check_src(src).unwrap();
    }

    #[test]
    fn struct_member_typing() {
        let src = r#"
            struct node { double val; int deg; };
            void main() {
                space s = new_space("SC");
                shared struct node *n = (shared struct node*) gmalloc(s, 2);
                double v = n->val;
                n->deg = 3;
            }
        "#;
        check_src(src).unwrap();
    }

    #[test]
    fn rejects_unknown_field_and_var() {
        assert!(check_src(
            "struct n { int a; }; void main() { space s = new_space(\"SC\");
             shared struct n *p = (shared struct n*) gmalloc(s, 1); int x = p->b; }"
        )
        .is_err());
        assert!(check_src("void main() { int x = y; }").is_err());
    }

    #[test]
    fn requires_main() {
        assert!(check_src("void helper() { }").unwrap_err().contains("no main"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        assert!(check_src("void main() { break; }").is_err());
    }

    #[test]
    fn local_arrays_of_handles() {
        let src = r#"
            void main() {
                space s = new_space("SC");
                shared double *nbrs[8];
                int i;
                for (i = 0; i < 8; i = i + 1) {
                    nbrs[i] = (shared double*) gmalloc(s, 1);
                }
                double x = nbrs[3][0];
            }
        "#;
        check_src(src).unwrap();
    }

    #[test]
    fn return_type_checked() {
        assert!(check_src("int f() { return 1.5; } void main() { }").is_err());
        assert!(check_src("double f() { return 1; } void main() { }").is_ok());
    }

    /// A store adopts a `shared void*` value as any shared pointer; a call
    /// passes any shared pointer to a `shared void*` parameter. Neither
    /// rule runs the other way.
    #[test]
    fn shared_void_pointer_direction() {
        let ok = [
            "void main() { space s = new_space(\"SC\"); shared int *p = gmalloc(s, 1); }",
            "void main() { space s = new_space(\"SC\"); shared int *p; p = gmalloc(s, 1); }",
            "shared int *f(space s) { return gmalloc(s, 1); } void main() { }",
            "void main() { space s = new_space(\"SC\");
             shared int *p = (shared int*) gmalloc(s, 1); lock(p); unlock(p); }",
        ];
        for src in ok {
            check_src(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        }
        let bad = [
            ("void main() { space s = new_space(\"SC\");
              shared int *p = (shared int*) gmalloc(s, 1); shared void *v = p; }",
             "cannot assign SharedPtr(Int) to SharedPtr(Void)"),
            ("void g(shared int *q) { } void main() { space s = new_space(\"SC\"); g(gmalloc(s, 1)); }",
             "argument to g has type SharedPtr(Void), expected SharedPtr(Int)"),
            ("void main() { lock(1); }", "argument to lock has type Int"),
        ];
        for (src, want) in bad {
            let err = check_src(src).unwrap_err();
            assert!(err.contains(want), "{src}: {err}");
        }
    }

    /// Programs the checker once passed and the lowering then panicked on,
    /// each with a fragment of the error it is now.
    #[test]
    fn programs_that_crashed_lowering_are_errors() {
        let cases = [
            ("void f(struct n x) {} void main() { }", "struct n values live in regions"),
            ("struct n f() {} void main() { }", "struct n values live in regions"),
            ("void f(void x) {} void main() { }", "cannot declare void variable x"),
            (
                "void main() { space s = new_space(\"SC\");
                 shared struct nosuch *p = (shared struct nosuch*) gmalloc(s, 1); }",
                "unknown struct nosuch",
            ),
            ("void main() { space s = new_space(\"Bogus\"); }", "unknown protocol \"Bogus\""),
            (
                "void main() { space s = new_space(\"SC\"); change_protocol(s, \"Bogus\"); }",
                "unknown protocol \"Bogus\"",
            ),
        ];
        let cfg = SystemConfig::builtin();
        for (src, want) in cases {
            for level in OptLevel::ALL {
                let err = compile(src, &cfg, level).unwrap_err();
                assert!(err.contains(want), "{src} at {level:?}: {err}");
            }
        }
    }
}
