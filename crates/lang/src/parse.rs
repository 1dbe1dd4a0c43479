//! Recursive-descent parser for Ace-C.

use crate::ast::*;
use crate::lex::{Sp, Tok};

struct P<'a> {
    toks: &'a [Sp],
    pos: usize,
}

/// Parse a token stream into a [`Unit`].
///
/// # Errors
///
/// Returns a message with the offending line.
pub fn parse(toks: &[Sp]) -> Result<Unit, String> {
    let mut p = P { toks, pos: 0 };
    let mut unit = Unit::default();
    while !p.at(&Tok::Eof) {
        if p.at(&Tok::KwStruct) && p.peek_is_struct_def() {
            unit.structs.push(p.struct_def()?);
        } else {
            unit.funcs.push(p.func()?);
        }
    }
    Ok(unit)
}

impl<'a> P<'a> {
    fn cur(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at(&self, t: &Tok) -> bool {
        self.cur() == t
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        // `Eof` stays current, so an error after it can still name a line.
        if t != Tok::Eof {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> Result<(), String> {
        if self.at(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("line {}: expected {:?}, found {:?}", self.line(), t, self.cur()))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(format!("line {}: expected identifier, found {other:?}", self.line())),
        }
    }

    /// `struct Name {` begins a definition; `struct Name *` is a type use.
    fn peek_is_struct_def(&self) -> bool {
        matches!(self.toks.get(self.pos + 2).map(|s| &s.tok), Some(Tok::LBrace))
    }

    fn struct_def(&mut self) -> Result<StructDef, String> {
        self.eat(&Tok::KwStruct)?;
        let name = self.ident()?;
        self.eat(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.at(&Tok::RBrace) {
            let ty = self.ty()?;
            let fname = self.ident()?;
            self.eat(&Tok::Semi)?;
            fields.push((ty, fname));
        }
        self.eat(&Tok::RBrace)?;
        self.eat(&Tok::Semi)?;
        Ok(StructDef { name, fields })
    }

    /// Parse a type: `[shared] (int|double|void|space|struct N) *?`
    fn ty(&mut self) -> Result<Ty, String> {
        let shared = if self.at(&Tok::KwShared) {
            self.pos += 1;
            true
        } else {
            false
        };
        let base = match self.bump() {
            Tok::KwInt => Ty::Int,
            Tok::KwDouble => Ty::Double,
            Tok::KwVoid => Ty::Void,
            Tok::KwSpace => Ty::Space,
            Tok::KwStruct => Ty::Struct(self.ident()?),
            other => return Err(format!("line {}: expected type, found {other:?}", self.line())),
        };
        if self.at(&Tok::Star) {
            self.pos += 1;
            if !shared {
                return Err(format!(
                    "line {}: only pointers to shared data are supported (write `shared T*`)",
                    self.line()
                ));
            }
            Ok(Ty::SharedPtr(Box::new(base)))
        } else {
            if shared {
                return Err(format!(
                    "line {}: `shared` scalars must be accessed through regions; declare `shared T*`",
                    self.line()
                ));
            }
            Ok(base)
        }
    }

    fn looks_like_type(&self) -> bool {
        matches!(
            self.cur(),
            Tok::KwInt | Tok::KwDouble | Tok::KwVoid | Tok::KwSpace | Tok::KwShared | Tok::KwStruct
        )
    }

    fn func(&mut self) -> Result<Func, String> {
        let line = self.line();
        let ret = self.ty()?;
        let name = self.ident()?;
        self.eat(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.at(&Tok::RParen) {
            loop {
                let ty = self.ty()?;
                let pname = self.ident()?;
                params.push((ty, pname));
                if self.at(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        self.eat(&Tok::RParen)?;
        let body = self.block()?;
        Ok(Func { name, ret, params, body, line })
    }

    fn block(&mut self) -> Result<Vec<Stmt>, String> {
        self.eat(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        self.eat(&Tok::RBrace)?;
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, String> {
        let line = self.line();
        match self.cur() {
            Tok::KwIf => {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let then_blk = self.block()?;
                let else_blk = if self.at(&Tok::KwElse) {
                    self.pos += 1;
                    if self.at(&Tok::KwIf) {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then_blk, else_blk })
            }
            Tok::KwWhile => {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                let cond = self.expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::KwFor => {
                self.pos += 1;
                self.eat(&Tok::LParen)?;
                let init = Box::new(self.simple_stmt()?);
                self.eat(&Tok::Semi)?;
                let cond = self.expr()?;
                self.eat(&Tok::Semi)?;
                let step = Box::new(self.simple_stmt()?);
                self.eat(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::For { init, cond, step, body })
            }
            Tok::KwReturn => {
                self.pos += 1;
                if self.at(&Tok::Semi) {
                    self.pos += 1;
                    Ok(Stmt::Return(None, line))
                } else {
                    let e = self.expr()?;
                    self.eat(&Tok::Semi)?;
                    Ok(Stmt::Return(Some(e), line))
                }
            }
            Tok::KwBreak => {
                self.pos += 1;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Break(line))
            }
            Tok::KwContinue => {
                self.pos += 1;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Continue(line))
            }
            _ => {
                let s = self.simple_stmt()?;
                self.eat(&Tok::Semi)?;
                Ok(s)
            }
        }
    }

    /// A declaration, assignment, or expression statement (no trailing `;`).
    fn simple_stmt(&mut self) -> Result<Stmt, String> {
        let line = self.line();
        if self.looks_like_type() {
            let ty = self.ty()?;
            let name = self.ident()?;
            if self.at(&Tok::LBracket) {
                self.pos += 1;
                let len = match self.bump() {
                    Tok::Int(v) if v > 0 => v as usize,
                    other => {
                        return Err(format!(
                            "line {line}: local array length must be a positive literal, found {other:?}"
                        ))
                    }
                };
                self.eat(&Tok::RBracket)?;
                return Ok(Stmt::Decl { ty, name, array_len: Some(len), init: None, line });
            }
            let init = if self.at(&Tok::Assign) {
                self.pos += 1;
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Decl { ty, name, array_len: None, init, line });
        }
        // assignment or expression statement
        let e = self.expr()?;
        if self.at(&Tok::Assign) {
            self.pos += 1;
            let rhs = self.expr()?;
            let lhs = match e.kind {
                ExprKind::Var(n) => LValue::Var(n),
                ExprKind::Index(b, i) => LValue::Index(b, i),
                ExprKind::Member(b, f) => LValue::Member(b, f),
                ExprKind::Deref(b) => LValue::Deref(b),
                _ => return Err(format!("line {line}: invalid assignment target")),
            };
            return Ok(Stmt::Assign { lhs, rhs, line });
        }
        Ok(Stmt::Expr(e))
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, String> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.and_expr()?;
        while self.at(&Tok::OrOr) {
            let line = self.line();
            self.pos += 1;
            let r = self.and_expr()?;
            e = Expr { kind: ExprKind::Bin(BinOp::Or, Box::new(e), Box::new(r)), line };
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.cmp_expr()?;
        while self.at(&Tok::AndAnd) {
            let line = self.line();
            self.pos += 1;
            let r = self.cmp_expr()?;
            e = Expr { kind: ExprKind::Bin(BinOp::And, Box::new(e), Box::new(r)), line };
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.add_expr()?;
        loop {
            let op = match self.cur() {
                Tok::Eq => BinOp::Eq,
                Tok::Ne => BinOp::Ne,
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            let line = self.line();
            self.pos += 1;
            let r = self.add_expr()?;
            e = Expr { kind: ExprKind::Bin(op, Box::new(e), Box::new(r)), line };
        }
        Ok(e)
    }

    fn add_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.cur() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            let line = self.line();
            self.pos += 1;
            let r = self.mul_expr()?;
            e = Expr { kind: ExprKind::Bin(op, Box::new(e), Box::new(r)), line };
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, String> {
        let mut e = self.unary()?;
        loop {
            let op = match self.cur() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            let line = self.line();
            self.pos += 1;
            let r = self.unary()?;
            e = Expr { kind: ExprKind::Bin(op, Box::new(e), Box::new(r)), line };
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr, String> {
        let line = self.line();
        match self.cur() {
            Tok::Minus => {
                self.pos += 1;
                let e = self.unary()?;
                Ok(Expr { kind: ExprKind::Neg(Box::new(e)), line })
            }
            Tok::Not => {
                self.pos += 1;
                let e = self.unary()?;
                Ok(Expr { kind: ExprKind::Not(Box::new(e)), line })
            }
            Tok::Star => {
                self.pos += 1;
                let e = self.unary()?;
                Ok(Expr { kind: ExprKind::Deref(Box::new(e)), line })
            }
            Tok::LParen if self.cast_ahead() => {
                self.pos += 1;
                let ty = self.ty()?;
                self.eat(&Tok::RParen)?;
                let e = self.unary()?;
                Ok(Expr { kind: ExprKind::Cast(ty, Box::new(e)), line })
            }
            _ => self.postfix(),
        }
    }

    /// Is `( ... )` at the cursor a cast (starts with a type keyword)?
    fn cast_ahead(&self) -> bool {
        matches!(
            self.toks.get(self.pos + 1).map(|s| &s.tok),
            Some(
                Tok::KwInt
                    | Tok::KwDouble
                    | Tok::KwVoid
                    | Tok::KwSpace
                    | Tok::KwShared
                    | Tok::KwStruct
            )
        )
    }

    fn postfix(&mut self) -> Result<Expr, String> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            match self.cur() {
                Tok::LBracket => {
                    self.pos += 1;
                    let idx = self.expr()?;
                    self.eat(&Tok::RBracket)?;
                    e = Expr { kind: ExprKind::Index(Box::new(e), Box::new(idx)), line };
                }
                Tok::Arrow => {
                    self.pos += 1;
                    let field = self.ident()?;
                    e = Expr { kind: ExprKind::Member(Box::new(e), field), line };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, String> {
        let line = self.line();
        match self.bump() {
            Tok::Int(v) => Ok(Expr { kind: ExprKind::Int(v), line }),
            Tok::Float(v) => Ok(Expr { kind: ExprKind::Float(v), line }),
            Tok::Str(s) => Ok(Expr { kind: ExprKind::Str(s), line }),
            Tok::Ident(name) => {
                if self.at(&Tok::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.at(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.at(&Tok::Comma) {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    self.eat(&Tok::RParen)?;
                    Ok(Expr { kind: ExprKind::Call(name, args), line })
                } else {
                    Ok(Expr { kind: ExprKind::Var(name), line })
                }
            }
            Tok::LParen => {
                let e = self.expr()?;
                self.eat(&Tok::RParen)?;
                Ok(e)
            }
            other => Err(format!("line {line}: unexpected token {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> Result<Unit, String> {
        parse(&lex(src)?)
    }

    #[test]
    fn minimal_main() {
        let u = parse_src("void main() { int x = 1; }").unwrap();
        assert_eq!(u.funcs.len(), 1);
        assert_eq!(u.funcs[0].name, "main");
    }

    #[test]
    fn table1_declarations() {
        // Table 1: pointer to shared integer; arrays through pointers.
        let u = parse_src(
            "void main() { shared int *p; shared double *a; a = (shared double*) gmalloc(s, 10); }",
        );
        assert!(u.is_ok(), "{u:?}");
    }

    #[test]
    fn struct_and_member() {
        let u = parse_src(
            "struct node { double val; int next; };
             double get(shared struct node *n) { return n->val; }
             void main() { }",
        )
        .unwrap();
        assert_eq!(u.structs[0].fields.len(), 2);
        assert_eq!(u.funcs[0].name, "get");
    }

    #[test]
    fn control_flow_forms() {
        let src = "void main() {
            int i;
            for (i = 0; i < 10; i = i + 1) {
                if (i % 2 == 0) { continue; } else { }
                while (i > 5) { break; }
            }
            return;
        }";
        parse_src(src).unwrap();
    }

    #[test]
    fn rejects_local_pointers() {
        assert!(parse_src("void main() { int *p; }").is_err());
    }

    #[test]
    fn rejects_bare_shared_scalar() {
        assert!(parse_src("void main() { shared int x; }").is_err());
    }

    #[test]
    fn precedence_binds_mul_over_add() {
        let u = parse_src("void main() { int x = 1 + 2 * 3; }").unwrap();
        let Stmt::Decl { init: Some(e), .. } = &u.funcs[0].body[0] else { panic!() };
        let ExprKind::Bin(BinOp::Add, _, r) = &e.kind else { panic!("not add: {e:?}") };
        assert!(matches!(r.kind, ExprKind::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn source_ending_mid_declaration_is_an_error() {
        // The type consumes the last token; the name finds `Eof`.
        let err = parse_src("void main() { double").unwrap_err();
        assert!(err.contains("expected identifier, found Eof"), "{err}");
    }

    #[test]
    fn casts_and_deref() {
        parse_src("void main() { shared int *p; int v = *p; p = (shared int*) bcast(0, (int)p); }")
            .unwrap();
    }
}
