//! Cpf recursive-descent parser with C operator precedence.

use crate::ast::*;
use crate::lex::{Tok, Token};
use crate::CompileError;

/// Maximum statement/expression nesting depth. Source text is untrusted
/// (it rides in over the wire as an experiment artifact), and the parser —
/// like const_eval, sema, codegen, and the AST's recursive `Drop` — recurses
/// once per nesting level, so unbounded input like `((((...` or chained
/// `if(1)if(1)...` would overflow the stack. 256 levels is far beyond any
/// real monitor and keeps worst-case stack usage well under test-thread
/// stack sizes.
const MAX_NEST: usize = 256;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    depth: usize,
}

fn e(pos: (usize, usize), msg: impl Into<String>) -> CompileError {
    CompileError {
        line: pos.0,
        col: pos.1,
        msg: msg.into(),
    }
}

/// Parse a token stream into a [`Unit`].
pub fn parse(toks: &[Token]) -> Result<Unit, CompileError> {
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut unit = Unit::default();
    while !p.at_end() {
        p.parse_top_level(&mut unit)?;
    }
    Ok(unit)
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, n: usize) -> Option<&Tok> {
        self.toks.get(self.pos + n).map(|t| &t.tok)
    }

    fn here(&self) -> (usize, usize) {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| (t.line, t.col))
            .unwrap_or((1, 1))
    }

    fn bump(&mut self) -> Result<&Token, CompileError> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| e(self.here(), "unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat(&mut self, want: &Tok) -> Result<(), CompileError> {
        let pos = self.here();
        let t = self.bump()?;
        if &t.tok == want {
            Ok(())
        } else {
            Err(e(pos, format!("expected {want:?}, found {:?}", t.tok)))
        }
    }

    fn eat_if(&mut self, want: &Tok) -> bool {
        if self.peek() == Some(want) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<(String, (usize, usize)), CompileError> {
        let pos = self.here();
        let t = self.bump()?;
        match &t.tok {
            Tok::Ident(s) => Ok((s.clone(), pos)),
            other => Err(e(pos, format!("expected identifier, found {other:?}"))),
        }
    }

    /// Skip type tokens: `const`, `union`, identifiers that look like type
    /// names, and `*`. Returns true if at least one token was consumed.
    /// The *last* identifier before a delimiter is the declared name, so
    /// this stops when the next-but-one token is a delimiter.
    fn skip_type_prefix(&mut self) {
        loop {
            match self.peek() {
                Some(Tok::Const) | Some(Tok::Union) | Some(Tok::Star) => {
                    self.pos += 1;
                }
                Some(Tok::Ident(_)) => {
                    // An identifier is part of the type unless it is the
                    // declared name, i.e. unless the *next* token ends the
                    // declarator.
                    match self.peek_at(1) {
                        Some(Tok::LParen) | Some(Tok::Assign) | Some(Tok::Semi)
                        | Some(Tok::Comma) | Some(Tok::RParen) => break,
                        _ => self.pos += 1,
                    }
                }
                _ => break,
            }
        }
    }

    fn parse_top_level(&mut self, unit: &mut Unit) -> Result<(), CompileError> {
        let start = self.here();
        self.skip_type_prefix();
        let (name, pos) = self.ident()?;
        match self.peek() {
            // Function definition.
            Some(Tok::LParen) => {
                self.eat(&Tok::LParen)?;
                let mut pkt_param = None;
                let mut len_param = None;
                let mut index = 0;
                if !self.eat_if(&Tok::RParen) {
                    loop {
                        self.skip_type_prefix();
                        // `void` parameter list: `f(void)` — skip_type_prefix
                        // leaves `void` as the name; treat it as no params.
                        let (pname, ppos) = self.ident()?;
                        if pname == "void" && index == 0 && self.peek() == Some(&Tok::RParen) {
                            self.eat(&Tok::RParen)?;
                            break;
                        }
                        match index {
                            0 => pkt_param = Some(pname),
                            1 => len_param = Some(pname),
                            _ => {
                                return Err(e(ppos, "monitor entry points take at most (pkt, len)"))
                            }
                        }
                        index += 1;
                        if self.eat_if(&Tok::RParen) {
                            break;
                        }
                        self.eat(&Tok::Comma)?;
                    }
                }
                self.eat(&Tok::LBrace)?;
                let body = self.parse_block()?;
                unit.funcs.push(Func {
                    name,
                    pkt_param,
                    len_param,
                    body,
                    pos,
                });
            }
            // Global with initializer.
            Some(Tok::Assign) => {
                self.eat(&Tok::Assign)?;
                let init_pos = self.here();
                let init = self.parse_expr()?;
                let value = const_eval(&init)
                    .ok_or_else(|| e(init_pos, "global initializer must be constant"))?;
                self.eat(&Tok::Semi)?;
                unit.globals.push(Global {
                    name,
                    init: value,
                    pos,
                });
            }
            // Global without initializer.
            Some(Tok::Semi) => {
                self.eat(&Tok::Semi)?;
                unit.globals.push(Global { name, init: 0, pos });
            }
            other => {
                return Err(e(
                    start,
                    format!("expected function or global declaration, found {other:?}"),
                ))
            }
        }
        Ok(())
    }

    /// Parse statements until the matching `}` (consumed).
    fn parse_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        let mut stmts = Vec::new();
        loop {
            if self.eat_if(&Tok::RBrace) {
                return Ok(stmts);
            }
            if self.at_end() {
                return Err(e(self.here(), "unterminated block (missing `}`)"));
            }
            stmts.push(self.parse_stmt()?);
        }
    }

    fn enter(&mut self) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth > MAX_NEST {
            return Err(e(self.here(), "nesting too deep"));
        }
        Ok(())
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CompileError> {
        // Found by fuzzing: statement recursion (if/while/for bodies) was
        // unbounded and deeply nested input overflowed the stack.
        self.enter()?;
        let r = self.parse_stmt_inner();
        self.depth -= 1;
        r
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.here();
        match self.peek() {
            Some(Tok::If) => {
                self.bump()?;
                self.eat(&Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                let then = self.parse_stmt_or_block()?;
                let els = if self.eat_if(&Tok::Else) {
                    self.parse_stmt_or_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then, els })
            }
            Some(Tok::While) => {
                self.bump()?;
                self.eat(&Tok::LParen)?;
                let cond = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                let body = self.parse_stmt_or_block()?;
                Ok(Stmt::While { cond, body })
            }
            Some(Tok::For) => {
                self.bump()?;
                self.eat(&Tok::LParen)?;
                let init = if self.eat_if(&Tok::Semi) {
                    None
                } else {
                    // Declaration or assignment, consuming its `;`.
                    Some(Box::new(self.parse_simple_stmt()?))
                };
                let cond = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.eat(&Tok::Semi)?;
                let step = if self.peek() == Some(&Tok::RParen) {
                    None
                } else {
                    Some(Box::new(self.parse_assignment_no_semi()?))
                };
                self.eat(&Tok::RParen)?;
                let body = self.parse_stmt_or_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Some(Tok::Return) => {
                self.bump()?;
                let value = if self.peek() == Some(&Tok::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Return { value, pos })
            }
            Some(Tok::Break) => {
                self.bump()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Break { pos })
            }
            Some(Tok::Continue) => {
                self.bump()?;
                self.eat(&Tok::Semi)?;
                Ok(Stmt::Continue { pos })
            }
            Some(Tok::LBrace) => {
                // Nested bare block: flatten into an if(1).
                self.bump()?;
                let body = self.parse_block()?;
                Ok(Stmt::If {
                    cond: Expr::Int { value: 1, pos },
                    then: body,
                    els: Vec::new(),
                })
            }
            // Declaration or assignment.
            Some(Tok::Ident(_)) | Some(Tok::Const) | Some(Tok::Union) => self.parse_simple_stmt(),
            other => Err(e(pos, format!("expected statement, found {other:?}"))),
        }
    }

    /// A declaration or (compound-)assignment, consuming the trailing `;`.
    /// A declaration begins with type tokens; distinguish by lookahead:
    /// IDENT followed by an assignment operator is an assignment, anything
    /// longer is a declaration.
    fn parse_simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.here();
        let is_decl = !matches!(
            (self.peek(), self.peek_at(1)),
            (
                Some(Tok::Ident(_)),
                Some(Tok::Assign)
                    | Some(Tok::CompoundAssign(_))
                    | Some(Tok::ShlAssign)
                    | Some(Tok::ShrAssign)
            )
        );
        if is_decl {
            self.skip_type_prefix();
            let (name, dpos) = self.ident()?;
            self.eat(&Tok::Assign)
                .map_err(|_| e(dpos, format!("local `{name}` must have an initializer")))?;
            let init = self.parse_expr()?;
            self.eat(&Tok::Semi)?;
            Ok(Stmt::Decl { name, init, pos })
        } else {
            let stmt = self.parse_assignment_no_semi()?;
            self.eat(&Tok::Semi)?;
            Ok(stmt)
        }
    }

    /// An assignment (plain or compound) without the trailing `;` — used
    /// by `for` steps. Compound forms desugar: `x += e` ⇒ `x = x + e`.
    fn parse_assignment_no_semi(&mut self) -> Result<Stmt, CompileError> {
        let pos = self.here();
        let (name, _) = self.ident()?;
        let op = match self.peek().cloned() {
            Some(Tok::Assign) => None,
            Some(Tok::CompoundAssign(c)) => Some(match c {
                '+' => BinOp::Add,
                '-' => BinOp::Sub,
                '*' => BinOp::Mul,
                '/' => BinOp::Div,
                '%' => BinOp::Mod,
                '&' => BinOp::BitAnd,
                '|' => BinOp::BitOr,
                '^' => BinOp::BitXor,
                _ => return Err(e(pos, "unknown compound assignment")),
            }),
            Some(Tok::ShlAssign) => Some(BinOp::Shl),
            Some(Tok::ShrAssign) => Some(BinOp::Shr),
            other => return Err(e(pos, format!("expected assignment, found {other:?}"))),
        };
        self.bump()?;
        let rhs = self.parse_expr()?;
        let value = match op {
            None => rhs,
            Some(op) => Expr::Binary {
                op,
                lhs: Box::new(Expr::Var {
                    name: name.clone(),
                    pos,
                }),
                rhs: Box::new(rhs),
                pos,
            },
        };
        Ok(Stmt::Assign { name, value, pos })
    }

    fn parse_stmt_or_block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.eat_if(&Tok::LBrace) {
            self.parse_block()
        } else {
            Ok(vec![self.parse_stmt()?])
        }
    }

    // --- expressions, precedence climbing ---

    fn parse_expr(&mut self) -> Result<Expr, CompileError> {
        self.parse_bin(1)
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<Expr, CompileError> {
        let mut lhs = self.parse_unary()?;
        // Left-associative chains (`1+1+1+...`) are parsed iteratively but
        // build a left-deep AST whose depth the downstream recursive passes
        // (const_eval, sema, codegen, Drop) walk — so each wrap must count
        // against the nesting budget too.
        let mut wraps = 0usize;
        loop {
            let (op, prec) = match self.peek() {
                Some(Tok::Star) => (BinOp::Mul, 10),
                Some(Tok::Slash) => (BinOp::Div, 10),
                Some(Tok::Percent) => (BinOp::Mod, 10),
                Some(Tok::Plus) => (BinOp::Add, 9),
                Some(Tok::Minus) => (BinOp::Sub, 9),
                Some(Tok::Shl) => (BinOp::Shl, 8),
                Some(Tok::Shr) => (BinOp::Shr, 8),
                Some(Tok::Lt) => (BinOp::Lt, 7),
                Some(Tok::Gt) => (BinOp::Gt, 7),
                Some(Tok::Le) => (BinOp::Le, 7),
                Some(Tok::Ge) => (BinOp::Ge, 7),
                Some(Tok::EqEq) => (BinOp::Eq, 6),
                Some(Tok::Ne) => (BinOp::Ne, 6),
                Some(Tok::Amp) => (BinOp::BitAnd, 5),
                Some(Tok::Caret) => (BinOp::BitXor, 4),
                Some(Tok::Pipe) => (BinOp::BitOr, 3),
                Some(Tok::AndAnd) => (BinOp::LogAnd, 2),
                Some(Tok::OrOr) => (BinOp::LogOr, 1),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let pos = self.here();
            self.bump()?;
            self.enter()?;
            wraps += 1;
            let rhs = self.parse_bin(prec + 1)?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                pos,
            };
        }
        self.depth -= wraps;
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, CompileError> {
        // Every expression recursion cycle (parse_bin → parse_unary →
        // parse_primary → parse_expr via parens) passes through here, so a
        // single depth guard bounds `----x`, `((((x))))`, and `!!!!x` alike.
        self.enter()?;
        let r = self.parse_unary_inner();
        self.depth -= 1;
        r
    }

    fn parse_unary_inner(&mut self) -> Result<Expr, CompileError> {
        let pos = self.here();
        match self.peek() {
            Some(Tok::Minus) => {
                self.bump()?;
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(self.parse_unary()?),
                    pos,
                })
            }
            Some(Tok::Bang) => {
                self.bump()?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(self.parse_unary()?),
                    pos,
                })
            }
            Some(Tok::Tilde) => {
                self.bump()?;
                Ok(Expr::Unary {
                    op: UnOp::BitNot,
                    expr: Box::new(self.parse_unary()?),
                    pos,
                })
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.here();
        match self.peek().cloned() {
            Some(Tok::Int(v)) => {
                self.bump()?;
                Ok(Expr::Int { value: v, pos })
            }
            Some(Tok::LParen) => {
                self.bump()?;
                let inner = self.parse_expr()?;
                self.eat(&Tok::RParen)?;
                Ok(inner)
            }
            Some(Tok::Ident(name)) => {
                self.bump()?;
                // Arrow path: `name->a.b.c`.
                if self.eat_if(&Tok::Arrow) {
                    let mut path = String::new();
                    loop {
                        let (seg, _) = self.ident()?;
                        if !path.is_empty() {
                            path.push('.');
                        }
                        path.push_str(&seg);
                        if !self.eat_if(&Tok::Dot) {
                            break;
                        }
                    }
                    let base = match name.as_str() {
                        "info" => Base::Info,
                        _ => Base::Pkt, // sema validates the pkt param name
                    };
                    return Ok(Expr::Field { base, path, pos });
                }
                // Call (rejected later with a clear message).
                if self.peek() == Some(&Tok::LParen) {
                    // Consume a balanced argument list.
                    self.bump()?;
                    let mut depth = 1;
                    while depth > 0 {
                        match self.bump()?.tok {
                            Tok::LParen => depth += 1,
                            Tok::RParen => depth -= 1,
                            _ => {}
                        }
                    }
                    return Ok(Expr::Call { name, pos });
                }
                Ok(Expr::Var { name, pos })
            }
            other => Err(e(pos, format!("expected expression, found {other:?}"))),
        }
    }
}

/// Constant-fold an expression of literals (for global initializers).
pub fn const_eval(expr: &Expr) -> Option<u64> {
    match expr {
        Expr::Int { value, .. } => Some(*value),
        Expr::Unary { op, expr, .. } => {
            let v = const_eval(expr)?;
            Some(match op {
                UnOp::Neg => v.wrapping_neg(),
                UnOp::Not => (v == 0) as u64,
                UnOp::BitNot => !v,
            })
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = const_eval(lhs)?;
            let b = const_eval(rhs)?;
            Some(match op {
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => a.checked_div(b)?,
                BinOp::Mod => a.checked_rem(b)?,
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Shl => a.wrapping_shl(b as u32),
                BinOp::Shr => a.wrapping_shr(b as u32),
                BinOp::Lt => (a < b) as u64,
                BinOp::Gt => (a > b) as u64,
                BinOp::Le => (a <= b) as u64,
                BinOp::Ge => (a >= b) as u64,
                BinOp::Eq => (a == b) as u64,
                BinOp::Ne => (a != b) as u64,
                BinOp::BitAnd => a & b,
                BinOp::BitXor => a ^ b,
                BinOp::BitOr => a | b,
                BinOp::LogAnd => (a != 0 && b != 0) as u64,
                BinOp::LogOr => (a != 0 || b != 0) as u64,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn parse_src(src: &str) -> Result<Unit, CompileError> {
        parse(&lex(src).unwrap())
    }

    /// The deep-nesting tests legitimately recurse to the MAX_NEST guard
    /// before erroring; debug-mode parser frames are big enough that the
    /// default 2 MiB test-thread stack is borderline, so give them one
    /// explicitly instead of depending on the platform default.
    fn parse_src_big_stack(src: String) -> Result<Unit, CompileError> {
        std::thread::Builder::new()
            .stack_size(16 * 1024 * 1024)
            .spawn(move || parse_src(&src))
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn parse_global_with_init() {
        let u = parse_src("in_addr_t ping_dst = 0;").unwrap();
        assert_eq!(u.globals.len(), 1);
        assert_eq!(u.globals[0].name, "ping_dst");
        assert_eq!(u.globals[0].init, 0);
    }

    #[test]
    fn parse_global_const_expr_init() {
        let u = parse_src("uint32_t limit = 4 * 1024;").unwrap();
        assert_eq!(u.globals[0].init, 4096);
    }

    #[test]
    fn parse_global_without_init() {
        let u = parse_src("uint64_t counter;").unwrap();
        assert_eq!(u.globals[0].init, 0);
    }

    #[test]
    fn parse_function_signature() {
        let u = parse_src("uint32_t send(const union packet * pkt, uint32_t len) { return len; }")
            .unwrap();
        assert_eq!(u.funcs.len(), 1);
        let f = &u.funcs[0];
        assert_eq!(f.name, "send");
        assert_eq!(f.pkt_param.as_deref(), Some("pkt"));
        assert_eq!(f.len_param.as_deref(), Some("len"));
    }

    #[test]
    fn parse_void_params() {
        let u = parse_src("uint32_t init(void) { return 0; }").unwrap();
        assert_eq!(u.funcs[0].pkt_param, None);
        assert_eq!(u.funcs[0].len_param, None);
    }

    #[test]
    fn parse_empty_params() {
        let u = parse_src("uint32_t init() { return 0; }").unwrap();
        assert_eq!(u.funcs[0].pkt_param, None);
    }

    #[test]
    fn precedence_shapes_tree() {
        let u = parse_src("uint32_t f(void) { return 1 + 2 * 3; }").unwrap();
        let Stmt::Return {
            value: Some(Expr::Binary { op, lhs, .. }),
            ..
        } = &u.funcs[0].body[0]
        else {
            panic!("shape");
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**lhs, Expr::Int { value: 1, .. }));
    }

    #[test]
    fn field_paths() {
        let u = parse_src(
            "uint32_t f(const union packet *pkt, uint32_t len) { return pkt->ip.icmp.orig.ip.src; }",
        )
        .unwrap();
        let Stmt::Return {
            value: Some(Expr::Field { base, path, .. }),
            ..
        } = &u.funcs[0].body[0]
        else {
            panic!("shape");
        };
        assert_eq!(*base, Base::Pkt);
        assert_eq!(path, "ip.icmp.orig.ip.src");
    }

    #[test]
    fn info_field_base() {
        let u = parse_src(
            "uint32_t f(const union packet *pkt, uint32_t len) { return info->addr.ip; }",
        )
        .unwrap();
        let Stmt::Return {
            value: Some(Expr::Field { base, .. }),
            ..
        } = &u.funcs[0].body[0]
        else {
            panic!("shape");
        };
        assert_eq!(*base, Base::Info);
    }

    #[test]
    fn if_else_chains() {
        let u = parse_src(
            r#"
            uint32_t f(void) {
                if (1) return 1;
                else if (2) { return 2; }
                else return 3;
            }
            "#,
        )
        .unwrap();
        let Stmt::If { els, .. } = &u.funcs[0].body[0] else {
            panic!()
        };
        assert_eq!(els.len(), 1);
        assert!(matches!(els[0], Stmt::If { .. }));
    }

    #[test]
    fn error_on_missing_semicolon() {
        assert!(parse_src("uint32_t f(void) { return 1 }").is_err());
    }

    #[test]
    fn error_on_unbalanced_brace() {
        assert!(parse_src("uint32_t f(void) { return 1;").is_err());
    }

    #[test]
    fn error_on_nonconst_global_init() {
        let e = parse_src("uint32_t g = somevar;").unwrap_err();
        assert!(e.msg.contains("constant"));
    }

    #[test]
    fn error_on_three_params() {
        assert!(parse_src("uint32_t f(int a, int b, int c) { return 0; }").is_err());
    }

    #[test]
    fn nested_bare_block() {
        let u = parse_src("uint32_t f(void) { { return 1; } }").unwrap();
        assert!(matches!(&u.funcs[0].body[0], Stmt::If { .. }));
    }

    #[test]
    fn deep_paren_nesting_rejected_not_overflowed() {
        // Found by fuzzing: unbounded recursion overflowed the stack.
        let src = format!(
            "uint32_t f(void) {{ return {}1{}; }}",
            "(".repeat(4000),
            ")".repeat(4000)
        );
        let e = parse_src_big_stack(src).unwrap_err();
        assert!(e.msg.contains("nesting too deep"));
    }

    #[test]
    fn deep_unary_nesting_rejected() {
        let src = format!("uint32_t f(void) {{ return {}1; }}", "-".repeat(4000));
        let e = parse_src_big_stack(src).unwrap_err();
        assert!(e.msg.contains("nesting too deep"));
    }

    #[test]
    fn deep_stmt_nesting_rejected() {
        let src = format!(
            "uint32_t f(void) {{ {} return 1; }}",
            "if (1) ".repeat(4000)
        );
        let e = parse_src_big_stack(src).unwrap_err();
        assert!(e.msg.contains("nesting too deep"));
    }

    #[test]
    fn long_operator_chain_rejected() {
        // A left-deep tree is walked recursively by const_eval and codegen,
        // so its depth counts against the nesting budget too.
        let src = format!("uint32_t g = {}1;", "1 + ".repeat(4000));
        let e = parse_src_big_stack(src).unwrap_err();
        assert!(e.msg.contains("nesting too deep"));
    }

    #[test]
    fn moderate_nesting_accepted() {
        let src = format!(
            "uint32_t f(void) {{ return {}1{}; }}",
            "(".repeat(100),
            ")".repeat(100)
        );
        assert!(parse_src(&src).is_ok());
        let src = format!("uint32_t g = {}1;", "1 + ".repeat(100));
        assert!(parse_src(&src).is_ok());
    }

    #[test]
    fn declaration_vs_assignment_disambiguation() {
        let u = parse_src(
            r#"
            uint32_t f(void) {
                uint32_t x = 1;
                x = 2;
                return x;
            }
            "#,
        )
        .unwrap();
        assert!(matches!(&u.funcs[0].body[0], Stmt::Decl { .. }));
        assert!(matches!(&u.funcs[0].body[1], Stmt::Assign { .. }));
    }
}
