//! Type checking and the `shared` rules of §3.1.
//!
//! The checker enforces the paper's restrictions: all shared data is
//! reached through `shared T*` handles allocated from spaces; there is no
//! arithmetic on shared pointers unless the result is dereferenced
//! immediately (i.e., only `p[i]`, `p->f`, `*p` are legal — a pointer into
//! the middle of a region cannot be materialized).

use std::collections::HashMap;

use crate::ast::*;
use crate::builtins::builtin;

/// Struct layouts: field name → word offset and type.
#[derive(Debug, Clone, Default)]
pub struct StructTable {
    /// name → ordered fields.
    pub defs: HashMap<String, Vec<(Ty, String)>>,
}

impl StructTable {
    /// Word offset and type of `field` in `name`.
    pub fn field(&self, name: &str, field: &str) -> Option<(usize, Ty)> {
        self.defs
            .get(name)?
            .iter()
            .enumerate()
            .find_map(|(i, (ty, f))| (f == field).then(|| (i, ty.clone())))
    }

    /// Size of a struct in words (one word per field).
    pub fn words(&self, name: &str) -> Option<usize> {
        self.defs.get(name).map(|f| f.len())
    }
}

/// A function signature.
#[derive(Debug, Clone)]
pub struct Sig {
    /// Parameter types.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
}

/// A validated unit plus its symbol tables.
#[derive(Debug, Clone)]
pub struct TypedUnit {
    /// The (unchanged) syntax.
    pub unit: Unit,
    /// Struct layouts.
    pub structs: StructTable,
    /// Function signatures by name.
    pub sigs: HashMap<String, Sig>,
}

/// Kinds of local bindings.
#[derive(Debug, Clone, PartialEq)]
pub enum Binding {
    /// Scalar local of the given type.
    Scalar(Ty),
    /// Local array with element type and length.
    Array(Ty, usize),
}

struct Checker<'a> {
    structs: &'a StructTable,
    sigs: &'a HashMap<String, Sig>,
    scopes: Vec<HashMap<String, Binding>>,
    ret: Ty,
    loop_depth: usize,
}

/// Check a unit; returns its symbol tables on success.
///
/// # Errors
///
/// Returns a message with the offending line.
pub fn check(unit: &Unit) -> Result<TypedUnit, String> {
    let mut structs = StructTable::default();
    for sd in &unit.structs {
        for (ty, f) in &sd.fields {
            match ty {
                Ty::Int | Ty::Double => {}
                Ty::SharedPtr(_) => {}
                other => {
                    return Err(format!(
                        "struct {}: field {f} has unsupported type {other:?}",
                        sd.name
                    ))
                }
            }
        }
        if structs.defs.insert(sd.name.clone(), sd.fields.clone()).is_some() {
            return Err(format!("duplicate struct {}", sd.name));
        }
    }
    let mut sigs = HashMap::new();
    for f in &unit.funcs {
        if builtin(&f.name).is_some() {
            return Err(format!("line {}: function {} shadows a builtin", f.line, f.name));
        }
        let sig =
            Sig { params: f.params.iter().map(|(t, _)| t.clone()).collect(), ret: f.ret.clone() };
        if sigs.insert(f.name.clone(), sig).is_some() {
            return Err(format!("duplicate function {}", f.name));
        }
    }
    if !sigs.contains_key("main") {
        return Err("program has no main()".into());
    }
    for f in &unit.funcs {
        let mut ck = Checker {
            structs: &structs,
            sigs: &sigs,
            scopes: vec![HashMap::new()],
            ret: f.ret.clone(),
            loop_depth: 0,
        };
        for (ty, name) in &f.params {
            ck.scopes[0].insert(name.clone(), Binding::Scalar(ty.clone()));
        }
        ck.block(&f.body)?;
    }
    Ok(TypedUnit { unit: unit.clone(), structs, sigs })
}

impl Checker<'_> {
    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), String> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), String> {
        match s {
            Stmt::Decl { ty, name, array_len, init, line } => {
                if let Ty::Struct(n) = ty {
                    return Err(format!(
                        "line {line}: struct {n} values live in regions; declare `shared struct {n}*`"
                    ));
                }
                if *ty == Ty::Void {
                    return Err(format!("line {line}: cannot declare void variable {name}"));
                }
                let binding = match array_len {
                    Some(len) => {
                        if init.is_some() {
                            return Err(format!(
                                "line {line}: array declarations take no initializer"
                            ));
                        }
                        Binding::Array(ty.clone(), *len)
                    }
                    None => Binding::Scalar(ty.clone()),
                };
                if let Some(init) = init {
                    let it = self.expr(init)?;
                    self.assignable(ty, &it, *line)?;
                }
                self.scopes.last_mut().unwrap().insert(name.clone(), binding);
                Ok(())
            }
            Stmt::Assign { lhs, rhs, line } => {
                let rt = self.expr(rhs)?;
                let lt = self.lvalue(lhs, *line)?;
                self.assignable(&lt, &rt, *line)
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::If { cond, then_blk, else_blk } => {
                self.expect_int(cond)?;
                self.block(then_blk)?;
                self.block(else_blk)
            }
            Stmt::While { cond, body } => {
                self.expect_int(cond)?;
                self.loop_depth += 1;
                let r = self.block(body);
                self.loop_depth -= 1;
                r
            }
            Stmt::For { init, cond, step, body } => {
                self.scopes.push(HashMap::new());
                self.stmt(init)?;
                self.expect_int(cond)?;
                self.stmt(step)?;
                self.loop_depth += 1;
                let r = self.block(body);
                self.loop_depth -= 1;
                self.scopes.pop();
                r
            }
            Stmt::Return(e, line) => {
                let want = self.ret.clone();
                match (e, want) {
                    (None, Ty::Void) => Ok(()),
                    (None, other) => {
                        Err(format!("line {line}: missing return value of type {other:?}"))
                    }
                    (Some(_), Ty::Void) => {
                        Err(format!("line {line}: void function returns a value"))
                    }
                    (Some(e), want) => {
                        let t = self.expr(e)?;
                        self.assignable(&want, &t, *line)
                    }
                }
            }
            Stmt::Break(line) | Stmt::Continue(line) => {
                if self.loop_depth == 0 {
                    Err(format!("line {line}: break/continue outside a loop"))
                } else {
                    Ok(())
                }
            }
        }
    }

    fn expect_int(&mut self, e: &Expr) -> Result<(), String> {
        let t = self.expr(e)?;
        if t == Ty::Int {
            Ok(())
        } else {
            Err(format!("line {}: condition must be int, found {t:?}", e.line))
        }
    }

    fn assignable(&self, want: &Ty, got: &Ty, line: u32) -> Result<(), String> {
        let ok = want == got
            || (*want == Ty::Double && *got == Ty::Int)
            || matches!(
                (want, got),
                (Ty::SharedPtr(_), Ty::SharedPtr(inner)) if **inner == Ty::Void
            );
        if ok {
            Ok(())
        } else {
            Err(format!("line {line}: cannot assign {got:?} to {want:?}"))
        }
    }

    fn lvalue(&mut self, lv: &LValue, line: u32) -> Result<Ty, String> {
        match lv {
            LValue::Var(n) => match self.lookup(n) {
                Some(Binding::Scalar(t)) => Ok(t.clone()),
                Some(Binding::Array(..)) => {
                    Err(format!("line {line}: cannot assign whole array {n}"))
                }
                None => Err(format!("line {line}: unknown variable {n}")),
            },
            LValue::Index(b, i) => self.index_ty(b, i, line),
            LValue::Member(b, f) => self.member_ty(b, f, line),
            LValue::Deref(b) => self.deref_ty(b, line),
        }
    }

    fn index_ty(&mut self, base: &Expr, idx: &Expr, line: u32) -> Result<Ty, String> {
        self.expect_int(idx)?;
        // Local array?
        if let ExprKind::Var(n) = &base.kind {
            if let Some(Binding::Array(elem, _)) = self.lookup(n) {
                return Ok(elem.clone());
            }
        }
        match self.expr(base)? {
            Ty::SharedPtr(elem) => match *elem {
                Ty::Int | Ty::Double | Ty::SharedPtr(_) => Ok(*elem),
                Ty::Struct(n) => {
                    Err(format!("line {line}: index a `shared struct {n}*` via ->field, not []"))
                }
                other => Err(format!("line {line}: cannot index into {other:?}")),
            },
            other => Err(format!("line {line}: cannot index into {other:?}")),
        }
    }

    fn member_ty(&mut self, base: &Expr, field: &str, line: u32) -> Result<Ty, String> {
        match self.expr(base)? {
            Ty::SharedPtr(inner) => match *inner {
                Ty::Struct(name) => self
                    .structs
                    .field(&name, field)
                    .map(|(_, t)| t)
                    .ok_or_else(|| format!("line {line}: struct {name} has no field {field}")),
                other => Err(format!(
                    "line {line}: -> requires a shared struct pointer, found {other:?}"
                )),
            },
            other => {
                Err(format!("line {line}: -> requires a shared struct pointer, found {other:?}"))
            }
        }
    }

    fn deref_ty(&mut self, base: &Expr, line: u32) -> Result<Ty, String> {
        match self.expr(base)? {
            Ty::SharedPtr(inner) => match *inner {
                Ty::Int | Ty::Double | Ty::SharedPtr(_) => Ok(*inner),
                other => Err(format!("line {line}: cannot deref pointer to {other:?}")),
            },
            other => Err(format!("line {line}: cannot deref {other:?}")),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Ty, String> {
        let line = e.line;
        match &e.kind {
            ExprKind::Int(_) => Ok(Ty::Int),
            ExprKind::Float(_) => Ok(Ty::Double),
            ExprKind::Str(_) => Err(format!(
                "line {line}: string literals are only valid as protocol names in new_space/change_protocol"
            )),
            ExprKind::Var(n) => match self.lookup(n) {
                Some(Binding::Scalar(t)) => Ok(t.clone()),
                Some(Binding::Array(..)) => {
                    Err(format!("line {line}: array {n} must be indexed"))
                }
                None => Err(format!("line {line}: unknown variable {n}")),
            },
            ExprKind::Bin(op, a, b) => {
                let ta = self.expr(a)?;
                let tb = self.expr(b)?;
                if ta.is_shared_ptr() || tb.is_shared_ptr() {
                    // §3.1: no arithmetic on shared pointers; only equality.
                    if matches!(op, BinOp::Eq | BinOp::Ne) && ta == tb {
                        return Ok(Ty::Int);
                    }
                    return Err(format!(
                        "line {line}: arithmetic on shared pointers is disallowed (Ace §3.1); use p[i]"
                    ));
                }
                match op {
                    BinOp::And | BinOp::Or => {
                        if ta == Ty::Int && tb == Ty::Int {
                            Ok(Ty::Int)
                        } else {
                            Err(format!("line {line}: logical ops need int operands"))
                        }
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        self.numeric(&ta, &tb, line)?;
                        Ok(Ty::Int)
                    }
                    BinOp::Rem => {
                        if ta == Ty::Int && tb == Ty::Int {
                            Ok(Ty::Int)
                        } else {
                            Err(format!("line {line}: %% needs int operands"))
                        }
                    }
                    _ => self.numeric(&ta, &tb, line),
                }
            }
            ExprKind::Neg(a) => {
                let t = self.expr(a)?;
                if t == Ty::Int || t == Ty::Double {
                    Ok(t)
                } else {
                    Err(format!("line {line}: cannot negate {t:?}"))
                }
            }
            ExprKind::Not(a) => {
                self.expect_int(a)?;
                Ok(Ty::Int)
            }
            ExprKind::Index(b, i) => self.index_ty(b, i, line),
            ExprKind::Member(b, f) => self.member_ty(b, f, line),
            ExprKind::Deref(b) => self.deref_ty(b, line),
            ExprKind::Cast(ty, a) => {
                let t = self.expr(a)?;
                let ok = matches!(
                    (ty, &t),
                    (Ty::Int, Ty::Double)
                        | (Ty::Double, Ty::Int)
                        | (Ty::Int, Ty::Int)
                        | (Ty::Double, Ty::Double)
                        | (Ty::Int, Ty::SharedPtr(_))
                        | (Ty::SharedPtr(_), Ty::Int)
                        | (Ty::SharedPtr(_), Ty::SharedPtr(_))
                );
                if ok {
                    Ok(ty.clone())
                } else {
                    Err(format!("line {line}: invalid cast {t:?} -> {ty:?}"))
                }
            }
            ExprKind::Call(name, args) => self.call(name, args, line),
        }
    }

    fn numeric(&self, a: &Ty, b: &Ty, line: u32) -> Result<Ty, String> {
        match (a, b) {
            (Ty::Int, Ty::Int) => Ok(Ty::Int),
            (Ty::Double, Ty::Double) | (Ty::Int, Ty::Double) | (Ty::Double, Ty::Int) => {
                Ok(Ty::Double)
            }
            _ => Err(format!("line {line}: numeric op on {a:?} and {b:?}")),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], line: u32) -> Result<Ty, String> {
        // Builtins with string arguments get bespoke checking.
        match name {
            "new_space" => {
                if args.len() == 1 && matches!(args[0].kind, ExprKind::Str(_)) {
                    return Ok(Ty::Space);
                }
                return Err(format!("line {line}: new_space(\"ProtocolName\")"));
            }
            "change_protocol" => {
                if args.len() == 2 && matches!(args[1].kind, ExprKind::Str(_)) {
                    let t = self.expr(&args[0])?;
                    if t == Ty::Space {
                        return Ok(Ty::Void);
                    }
                }
                return Err(format!("line {line}: change_protocol(space, \"ProtocolName\")"));
            }
            "bcast_p" => {
                if args.len() != 2 {
                    return Err(format!("line {line}: bcast_p(root, ptr)"));
                }
                self.expect_int(&args[0])?;
                let t = self.expr(&args[1])?;
                if t.is_shared_ptr() {
                    return Ok(t);
                }
                return Err(format!("line {line}: bcast_p needs a shared pointer"));
            }
            _ => {}
        }
        let sig = builtin(name)
            .map(|b| b.sig())
            .or_else(|| self.sigs.get(name).cloned())
            .ok_or_else(|| format!("line {line}: unknown function {name}"))?;
        if sig.params.len() != args.len() {
            return Err(format!(
                "line {line}: {name} expects {} arguments, got {}",
                sig.params.len(),
                args.len()
            ));
        }
        for (want, arg) in sig.params.iter().zip(args) {
            let got = self.expr(arg)?;
            let ok = match (want, &got) {
                (Ty::SharedPtr(inner), Ty::SharedPtr(_)) if **inner == Ty::Void => true,
                _ => want == &got || (*want == Ty::Double && got == Ty::Int),
            };
            if !ok {
                return Err(format!(
                    "line {}: argument to {name} has type {got:?}, expected {want:?}",
                    arg.line
                ));
            }
        }
        Ok(sig.ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse;

    fn check_src(src: &str) -> Result<TypedUnit, String> {
        check(&parse(&lex(src)?)?)
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
}
