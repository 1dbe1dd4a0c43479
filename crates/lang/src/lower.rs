//! Lowering: typed AST → IR with annotation insertion (Figure 5).
//!
//! Every shared load becomes `MAP; START_READ; load; END_READ` and every
//! shared store `MAP; START_WRITE; store; END_WRITE`, around the raw word
//! access — exactly the translation the paper's Figure 5 shows for
//! `*(x->world) = 4`. The `Map`/`Start`/`End` of one access share an
//! [`AccessId`] so the optimization passes can treat them as a unit.

use std::collections::HashMap;
use std::sync::OnceLock;

use ace_protocols::ProtoSpec;

use crate::ast::{self, BinOp, Expr, ExprKind, LValue, Stmt, Ty};
use crate::builtins::builtin;
use crate::ir::*;
use crate::sema::{Binding, TypedUnit};

struct FnLower<'a> {
    tu: &'a TypedUnit,
    func_ids: &'a HashMap<String, FuncId>,
    naccess: &'a mut u32,
    nsites: &'a mut u32,
    /// The declared return type, which every `return` converts to.
    ret: &'a Ty,
    slots: Vec<Slot>,
    scopes: Vec<HashMap<String, (u32, Binding)>>,
    blocks: Vec<(Vec<Inst>, Option<Term>)>,
    cur: BlockId,
    nregs: u32,
    // (continue target, break target)
    loops: Vec<(BlockId, BlockId)>,
}

/// Lower a checked unit to a program (annotations inserted, all modes
/// `Dispatch`).
pub fn lower(tu: &TypedUnit) -> Program {
    let mut func_ids = HashMap::new();
    for (i, f) in tu.unit.funcs.iter().enumerate() {
        func_ids.insert(f.name.clone(), i);
    }
    let mut naccess = 0;
    let mut nsites = 0;
    let mut funcs = Vec::new();
    for f in &tu.unit.funcs {
        funcs.push(lower_fn(tu, &func_ids, f, &mut naccess, &mut nsites));
    }
    let main = func_ids["main"];
    Program { funcs, main, naccesses: naccess, code: OnceLock::new() }
}

fn val_ty(t: &Ty) -> ValTy {
    match t {
        Ty::Int => ValTy::I,
        Ty::Double => ValTy::F,
        Ty::Space => ValTy::S,
        Ty::SharedPtr(_) => ValTy::H,
        other => panic!("no value type for {other:?}"),
    }
}

fn elem_words(tu: &TypedUnit, t: &Ty) -> u32 {
    match t {
        Ty::Struct(n) => tu.structs.words(n).expect("checked struct") as u32,
        _ => 1,
    }
}

fn lower_fn(
    tu: &TypedUnit,
    func_ids: &HashMap<String, FuncId>,
    f: &ast::Func,
    naccess: &mut u32,
    nsites: &mut u32,
) -> IFunc {
    let mut lw = FnLower {
        tu,
        func_ids,
        naccess,
        nsites,
        ret: &f.ret,
        slots: Vec::new(),
        scopes: vec![HashMap::new()],
        blocks: vec![(Vec::new(), None)],
        cur: 0,
        nregs: 0,
        loops: Vec::new(),
    };
    for (ty, name) in &f.params {
        let slot = lw.slots.len() as u32;
        lw.slots.push(Slot::Scalar(val_ty(ty)));
        lw.scopes[0].insert(name.clone(), (slot, Binding::Scalar(ty.clone())));
    }
    lw.block(&f.body);
    // Fall-through return for void functions.
    lw.seal(Term::Ret(None));
    let blocks = lw
        .blocks
        .into_iter()
        .map(|(insts, term)| Block { insts, term: term.unwrap_or(Term::Ret(None)) })
        .collect();
    IFunc {
        name: f.name.clone(),
        nparams: f.params.len(),
        slots: lw.slots,
        nregs: lw.nregs,
        ret: (f.ret != Ty::Void).then(|| val_ty(&f.ret)),
        blocks,
    }
}

impl FnLower<'_> {
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

    fn lookup(&self, name: &str) -> (u32, Binding) {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .cloned()
            .expect("sema resolved all names")
    }

    // ------------------------------------------------------------------
    // statements
    // ------------------------------------------------------------------

    fn block(&mut self, stmts: &[Stmt]) {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { ty, name, array_len, init, .. } => {
                let slot = self.slots.len() as u32;
                match array_len {
                    Some(len) => {
                        self.slots.push(Slot::Array(val_ty(ty), *len));
                        self.scopes
                            .last_mut()
                            .unwrap()
                            .insert(name.clone(), (slot, Binding::Array(ty.clone(), *len)));
                    }
                    None => {
                        self.slots.push(Slot::Scalar(val_ty(ty)));
                        self.scopes
                            .last_mut()
                            .unwrap()
                            .insert(name.clone(), (slot, Binding::Scalar(ty.clone())));
                        if let Some(init) = init {
                            let (r, t) = self.expr(init);
                            let r = self.coerce(r, &t, ty);
                            self.emit(Inst::StoreLocal { slot, a: r });
                        }
                    }
                }
            }
            Stmt::Assign { lhs, rhs, .. } => {
                let (rv, rt) = self.expr(rhs);
                match lhs {
                    LValue::Var(n) => {
                        let (slot, b) = self.lookup(n);
                        let Binding::Scalar(want) = b else { unreachable!("checked") };
                        let rv = self.coerce(rv, &rt, &want);
                        self.emit(Inst::StoreLocal { slot, a: rv });
                    }
                    LValue::Index(base, idx) => {
                        // Local array or shared store.
                        if let ExprKind::Var(n) = &base.kind {
                            let (slot, b) = self.lookup(n);
                            if let Binding::Array(want, _) = b {
                                let (iv, _) = self.expr(idx);
                                let rv = self.coerce(rv, &rt, &want);
                                self.emit(Inst::StoreArr { slot, idx: iv, a: rv });
                                return;
                            }
                        }
                        let (hv, ht) = self.expr(base);
                        let Ty::SharedPtr(elem) = ht else { unreachable!("checked") };
                        let (iv, _) = self.expr(idx);
                        let rv = self.coerce(rv, &rt, &elem);
                        self.shared_store(hv, iv, rv);
                    }
                    LValue::Member(base, field) => {
                        let (hv, ht) = self.expr(base);
                        let Ty::SharedPtr(inner) = ht else { unreachable!("checked") };
                        let Ty::Struct(sname) = *inner else { unreachable!("checked") };
                        let (off, fty) = self.tu.structs.field(&sname, field).expect("checked");
                        let offv = self.reg();
                        self.emit(Inst::ConstI(offv, off as i64));
                        let rv = self.coerce(rv, &rt, &fty);
                        self.shared_store(hv, offv, rv);
                    }
                    LValue::Deref(base) => {
                        let (hv, ht) = self.expr(base);
                        let Ty::SharedPtr(elem) = ht else { unreachable!("checked") };
                        let zero = self.reg();
                        self.emit(Inst::ConstI(zero, 0));
                        let rv = self.coerce(rv, &rt, &elem);
                        self.shared_store(hv, zero, rv);
                    }
                }
            }
            Stmt::Expr(e) => {
                self.expr(e);
            }
            Stmt::If { cond, then_blk, else_blk } => {
                let (c, _) = self.expr(cond);
                let tb = self.new_block();
                let eb = self.new_block();
                let join = self.new_block();
                self.seal(Term::Br { cond: c, t: tb, f: eb });
                self.switch(tb);
                self.block(then_blk);
                self.seal(Term::Jump(join));
                self.switch(eb);
                self.block(else_blk);
                self.seal(Term::Jump(join));
                self.switch(join);
            }
            Stmt::While { cond, body } => {
                let header = self.new_block();
                let bodyb = self.new_block();
                let exit = self.new_block();
                self.seal(Term::Jump(header));
                self.switch(header);
                let (c, _) = self.expr(cond);
                self.seal(Term::Br { cond: c, t: bodyb, f: exit });
                self.loops.push((header, exit));
                self.switch(bodyb);
                self.block(body);
                self.seal(Term::Jump(header));
                self.loops.pop();
                self.switch(exit);
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(HashMap::new());
                self.stmt(init);
                let header = self.new_block();
                let bodyb = self.new_block();
                let stepb = self.new_block();
                let exit = self.new_block();
                self.seal(Term::Jump(header));
                self.switch(header);
                let (c, _) = self.expr(cond);
                self.seal(Term::Br { cond: c, t: bodyb, f: exit });
                self.loops.push((stepb, exit));
                self.switch(bodyb);
                self.block(body);
                self.seal(Term::Jump(stepb));
                self.switch(stepb);
                self.stmt(step);
                self.seal(Term::Jump(header));
                self.loops.pop();
                self.scopes.pop();
                self.switch(exit);
            }
            Stmt::Return(e, _) => {
                let r = e.as_ref().map(|e| {
                    let (r, t) = self.expr(e);
                    self.coerce(r, &t, self.ret)
                });
                self.seal(Term::Ret(r));
                let dead = self.new_block();
                self.switch(dead);
            }
            Stmt::Break(_) => {
                let (_, brk) = *self.loops.last().expect("checked");
                self.seal(Term::Jump(brk));
                let dead = self.new_block();
                self.switch(dead);
            }
            Stmt::Continue(_) => {
                let (cont, _) = *self.loops.last().expect("checked");
                self.seal(Term::Jump(cont));
                let dead = self.new_block();
                self.switch(dead);
            }
        }
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

    fn expr(&mut self, e: &Expr) -> (VReg, Ty) {
        match &e.kind {
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
            ExprKind::Str(_) => unreachable!("checked: strings only in protocol positions"),
            ExprKind::Var(n) => {
                let (slot, b) = self.lookup(n);
                let Binding::Scalar(t) = b else { unreachable!("checked") };
                let r = self.reg();
                self.emit(Inst::LoadLocal { dst: r, slot });
                (r, t)
            }
            ExprKind::Bin(op @ (BinOp::And | BinOp::Or), a, b) => {
                // Short-circuit through a temporary slot.
                let slot = self.slots.len() as u32;
                self.slots.push(Slot::Scalar(ValTy::I));
                let (av, _) = self.expr(a);
                self.emit(Inst::StoreLocal { slot, a: av });
                let rhs_b = self.new_block();
                let join = self.new_block();
                if matches!(op, BinOp::And) {
                    self.seal(Term::Br { cond: av, t: rhs_b, f: join });
                } else {
                    self.seal(Term::Br { cond: av, t: join, f: rhs_b });
                }
                self.switch(rhs_b);
                let (bv, _) = self.expr(b);
                self.emit(Inst::StoreLocal { slot, a: bv });
                self.seal(Term::Jump(join));
                self.switch(join);
                let r = self.reg();
                self.emit(Inst::LoadLocal { dst: r, slot });
                (r, Ty::Int)
            }
            ExprKind::Bin(op, a, b) => {
                let (av, at) = self.expr(a);
                let (bv, bt) = self.expr(b);
                let ty = if at == Ty::Double || bt == Ty::Double { Ty::Double } else { at.clone() };
                let av = self.coerce(av, &at, &ty);
                let bv = self.coerce(bv, &bt, &ty);
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
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                };
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
                let (av, at) = self.expr(a);
                let dst = self.reg();
                self.emit(Inst::Neg { dst, ty: val_ty(&at), a: av });
                (dst, at)
            }
            ExprKind::Not(a) => {
                let (av, _) = self.expr(a);
                let dst = self.reg();
                self.emit(Inst::Not { dst, a: av });
                (dst, Ty::Int)
            }
            ExprKind::Index(base, idx) => {
                if let ExprKind::Var(n) = &base.kind {
                    let (slot, b) = self.lookup(n);
                    if let Binding::Array(elem, _) = b {
                        let (iv, _) = self.expr(idx);
                        let dst = self.reg();
                        self.emit(Inst::LoadArr { dst, slot, idx: iv });
                        return (dst, elem);
                    }
                }
                let (hv, ht) = self.expr(base);
                let Ty::SharedPtr(elem) = ht else { unreachable!("checked") };
                let (iv, _) = self.expr(idx);
                let dst = self.shared_load(hv, iv, val_ty(&elem));
                (dst, *elem)
            }
            ExprKind::Member(base, field) => {
                let (hv, ht) = self.expr(base);
                let Ty::SharedPtr(inner) = ht else { unreachable!("checked") };
                let Ty::Struct(sname) = *inner else { unreachable!("checked") };
                let (off, fty) = self.tu.structs.field(&sname, field).expect("checked");
                let offv = self.reg();
                self.emit(Inst::ConstI(offv, off as i64));
                let dst = self.shared_load(hv, offv, val_ty(&fty));
                (dst, fty)
            }
            ExprKind::Deref(base) => {
                let (hv, ht) = self.expr(base);
                let Ty::SharedPtr(elem) = ht else { unreachable!("checked") };
                let zero = self.reg();
                self.emit(Inst::ConstI(zero, 0));
                let dst = self.shared_load(hv, zero, val_ty(&elem));
                (dst, *elem)
            }
            ExprKind::Cast(to, inner) => {
                // `(shared T*) gmalloc(s, n)` carries the element size into
                // the allocation.
                if let (Ty::SharedPtr(elem), ExprKind::Call(name, args)) = (to, &inner.kind) {
                    if name == "gmalloc" {
                        return self.gmalloc(args, elem_words(self.tu, elem), to.clone());
                    }
                }
                let (r, from) = self.expr(inner);
                match (&from, to) {
                    (Ty::Int, Ty::Double) => {
                        let d = self.reg();
                        self.emit(Inst::IntToF { dst: d, a: r });
                        (d, to.clone())
                    }
                    (Ty::Double, Ty::Int) => {
                        let d = self.reg();
                        self.emit(Inst::FToInt { dst: d, a: r });
                        (d, to.clone())
                    }
                    _ => (r, to.clone()), // bit reinterpretation
                }
            }
            ExprKind::Call(name, args) => self.call(name, args),
        }
    }

    fn gmalloc(&mut self, args: &[Expr], elem_words: u32, ty: Ty) -> (VReg, Ty) {
        let (sv, _) = self.expr(&args[0]);
        let (nv, _) = self.expr(&args[1]);
        self.intrinsic(Intr::Gmalloc { elem_words }, vec![sv, nv], ty)
    }

    fn intrinsic(&mut self, which: Intr, args: Vec<VReg>, ret: Ty) -> (VReg, Ty) {
        let dst = (ret != Ty::Void).then(|| self.reg());
        self.emit(Inst::Intrinsic { dst, which, args });
        (dst.unwrap_or(0), ret)
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> (VReg, Ty) {
        let proto_arg = |i: usize| -> ProtoSpec {
            let ExprKind::Str(s) = &args[i].kind else { unreachable!("checked") };
            ProtoSpec::by_name(s).expect("checked protocol name")
        };
        // The builtins whose instruction is not their table row's.
        match name {
            "new_space" => {
                let which = Intr::NewSpace { spec: proto_arg(0), site: *self.nsites };
                *self.nsites += 1;
                return self.intrinsic(which, vec![], Ty::Space);
            }
            "change_protocol" => {
                let which = Intr::ChangeProtocol { spec: proto_arg(1) };
                let (sv, _) = self.expr(&args[0]);
                return self.intrinsic(which, vec![sv], Ty::Void);
            }
            // Uncast gmalloc allocates raw words.
            "gmalloc" => return self.gmalloc(args, 1, Ty::SharedPtr(Box::new(Ty::Void))),
            "lock" | "unlock" => {
                let hook = if name == "lock" { Hook::Lock } else { Hook::Unlock };
                let (handle, _) = self.expr(&args[0]);
                let aid = self.fresh_aid();
                self.emit(Inst::Ann { hook, aid, mode: DispatchMode::Dispatch, handle });
                return (0, Ty::Void);
            }
            "bcast_p" => {
                let (a, _) = self.expr(&args[0]);
                let (b, t) = self.expr(&args[1]);
                return self.intrinsic(Intr::BcastP, vec![a, b], t);
            }
            _ => {}
        }
        let row = builtin(name);
        let sig = row.map_or_else(|| self.tu.sigs[name].clone(), |b| b.sig());
        let mut vals = Vec::with_capacity(args.len());
        for (want, a) in sig.params.iter().zip(args) {
            let (v, t) = self.expr(a);
            vals.push(self.coerce(v, &t, want));
        }
        let dst = (sig.ret != Ty::Void).then(|| self.reg());
        self.emit(match row {
            Some(b) => {
                let (which, _) = b.lowers.expect("the other builtins are lowered above");
                Inst::Intrinsic { dst, which, args: vals }
            }
            None => Inst::Call { dst, func: self.func_ids[name], args: vals },
        });
        (dst.unwrap_or(0), sig.ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse;
    use crate::sema::check;

    fn lower_src(src: &str) -> Program {
        lower(&check(&parse(&lex(src).unwrap()).unwrap()).unwrap())
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
}
