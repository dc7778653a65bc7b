//! Semantic analysis: name resolution, slot allocation, and the checks
//! that give Cpf authors real diagnostics instead of codegen panics.

use crate::ast::*;
use crate::CompileError;
use plab_packet::layout;
use std::collections::HashMap;

fn e(pos: (usize, usize), msg: impl Into<String>) -> CompileError {
    CompileError {
        line: pos.0,
        col: pos.1,
        msg: msg.into(),
    }
}

/// Where a name resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// Global: persistent-memory slot index (offset = 8 × index).
    Global(u32),
    /// Local or parameter: scratch-memory slot index within its function.
    Local(u32),
    /// The packet-length parameter.
    Len,
    /// A predeclared constant (`IPPROTO_ICMP`, ...).
    Constant(u64),
}

/// A checked function, ready for code generation.
#[derive(Debug, Clone)]
pub struct CheckedFunc {
    /// Entry-point name.
    pub name: String,
    /// Body with all names resolved (resolution map passed alongside).
    pub body: Vec<Stmt>,
    /// Name → binding for this function (includes globals and constants).
    pub bindings: HashMap<String, Binding>,
    /// Number of scratch slots (locals + len param).
    pub scratch_slots: u32,
    /// Scratch slot holding the `len` parameter, if declared.
    pub len_slot: Option<u32>,
}

/// A checked translation unit.
#[derive(Debug, Clone)]
pub struct CheckedUnit {
    /// Functions in declaration order.
    pub funcs: Vec<CheckedFunc>,
    /// Global initializers by slot index (only non-zero ones matter;
    /// persistent memory starts zeroed).
    pub global_inits: Vec<u64>,
}

struct FuncChecker<'a> {
    bindings: HashMap<String, Binding>,
    pkt_param: Option<&'a str>,
    next_local: u32,
    loop_depth: u32,
}

/// Check a parsed unit.
pub fn check(unit: &Unit) -> Result<CheckedUnit, CompileError> {
    // Globals get persistent slots in declaration order.
    let mut global_bindings: HashMap<String, Binding> = HashMap::new();
    let mut global_inits = Vec::new();
    for (i, g) in unit.globals.iter().enumerate() {
        if global_bindings.contains_key(&g.name) {
            return Err(e(g.pos, format!("duplicate global `{}`", g.name)));
        }
        if layout::constant(&g.name).is_some() {
            return Err(e(g.pos, format!("`{}` shadows a builtin constant", g.name)));
        }
        global_bindings.insert(g.name.clone(), Binding::Global(i as u32));
        global_inits.push(g.init);
    }
    for (name, value) in layout::CONSTANTS {
        global_bindings.insert(name.to_string(), Binding::Constant(*value));
    }

    let mut funcs = Vec::new();
    let mut seen_funcs: HashMap<&str, ()> = HashMap::new();
    for f in &unit.funcs {
        if seen_funcs.insert(&f.name, ()).is_some() {
            return Err(e(f.pos, format!("duplicate function `{}`", f.name)));
        }
        if f.name == "init" && (f.pkt_param.is_some() || f.len_param.is_some()) {
            // init is invoked without a packet; allow params but they read
            // as zero. Not an error, but the user likely misunderstood.
        }
        let mut fc = FuncChecker {
            bindings: global_bindings.clone(),
            pkt_param: f.pkt_param.as_deref(),
            next_local: 0,
            loop_depth: 0,
        };
        let mut len_slot = None;
        if let Some(len_name) = &f.len_param {
            let slot = fc.alloc_local();
            fc.bindings.insert(len_name.clone(), Binding::Local(slot));
            len_slot = Some(slot);
        }
        let body = fc.check_block(&f.body)?;
        funcs.push(CheckedFunc {
            name: f.name.clone(),
            body,
            scratch_slots: fc.next_local,
            bindings: fc.bindings,
            len_slot,
        });
    }
    Ok(CheckedUnit {
        funcs,
        global_inits,
    })
}

impl<'a> FuncChecker<'a> {
    fn alloc_local(&mut self) -> u32 {
        let s = self.next_local;
        self.next_local += 1;
        s
    }

    fn check_block(&mut self, stmts: &[Stmt]) -> Result<Vec<Stmt>, CompileError> {
        // Cpf uses function-scoped locals (like early C): declarations
        // anywhere, visible until end of function. This keeps slot
        // allocation trivial and matches monitor-sized programs.
        let mut out = Vec::new();
        for s in stmts {
            out.push(self.check_stmt(s)?);
        }
        Ok(out)
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<Stmt, CompileError> {
        match stmt {
            Stmt::Decl { name, init, pos } => {
                self.check_expr(init)?;
                if matches!(self.bindings.get(name), Some(Binding::Local(_))) {
                    return Err(e(*pos, format!("duplicate local `{name}`")));
                }
                if layout::constant(name).is_some() {
                    return Err(e(*pos, format!("`{name}` shadows a builtin constant")));
                }
                let slot = self.alloc_local();
                self.bindings.insert(name.clone(), Binding::Local(slot));
                Ok(stmt.clone())
            }
            Stmt::Assign { name, value, pos } => {
                self.check_expr(value)?;
                match self.bindings.get(name) {
                    Some(Binding::Global(_)) | Some(Binding::Local(_)) => Ok(stmt.clone()),
                    Some(Binding::Len) => Ok(stmt.clone()),
                    Some(Binding::Constant(_)) => {
                        Err(e(*pos, format!("cannot assign to constant `{name}`")))
                    }
                    None => Err(e(*pos, format!("assignment to undeclared `{name}`"))),
                }
            }
            Stmt::If { cond, then, els } => {
                self.check_expr(cond)?;
                let then = self.check_block(then)?;
                let els = self.check_block(els)?;
                Ok(Stmt::If {
                    cond: cond.clone(),
                    then,
                    els,
                })
            }
            Stmt::While { cond, body } => {
                self.check_expr(cond)?;
                self.loop_depth += 1;
                let body = self.check_block(body)?;
                self.loop_depth -= 1;
                Ok(Stmt::While {
                    cond: cond.clone(),
                    body,
                })
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let init = match init {
                    Some(i) => Some(Box::new(self.check_stmt(i)?)),
                    None => None,
                };
                if let Some(c) = cond {
                    self.check_expr(c)?;
                }
                let step = match step {
                    Some(st) => Some(Box::new(self.check_stmt(st)?)),
                    None => None,
                };
                self.loop_depth += 1;
                let body = self.check_block(body)?;
                self.loop_depth -= 1;
                Ok(Stmt::For {
                    init,
                    cond: cond.clone(),
                    step,
                    body,
                })
            }
            Stmt::Return { value, .. } => {
                if let Some(v) = value {
                    self.check_expr(v)?;
                }
                Ok(stmt.clone())
            }
            Stmt::Break { pos } => {
                if self.loop_depth == 0 {
                    return Err(e(*pos, "`break` outside of loop"));
                }
                Ok(stmt.clone())
            }
            Stmt::Continue { pos } => {
                if self.loop_depth == 0 {
                    return Err(e(*pos, "`continue` outside of loop"));
                }
                Ok(stmt.clone())
            }
        }
    }

    fn check_expr(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match expr {
            Expr::Int { .. } => Ok(()),
            Expr::Var { name, pos } => {
                if self.bindings.contains_key(name) {
                    Ok(())
                } else if Some(name.as_str()) == self.pkt_param {
                    Err(e(
                        *pos,
                        format!("`{name}` is the packet object; use `{name}->field`"),
                    ))
                } else {
                    Err(e(*pos, format!("undeclared identifier `{name}`")))
                }
            }
            Expr::Field { base, path, pos } => match base {
                Base::Pkt => {
                    if layout::resolve(path).is_none() {
                        return Err(e(*pos, format!("unknown packet field `{path}`")));
                    }
                    Ok(())
                }
                Base::Info => {
                    if layout::resolve_info(path).is_none() {
                        return Err(e(*pos, format!("unknown info field `{path}`")));
                    }
                    Ok(())
                }
            },
            Expr::Unary { expr, .. } => self.check_expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.check_expr(lhs)?;
                self.check_expr(rhs)
            }
            Expr::Call { name, pos } => Err(e(
                *pos,
                format!(
                    "function calls are not supported in Cpf (`{name}`): monitors \
                     are single-function entry points"
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;
    use crate::parse::parse;

    fn check_src(src: &str) -> Result<CheckedUnit, CompileError> {
        check(&parse(&lex(src).unwrap())?)
    }

    #[test]
    fn globals_get_slots_in_order() {
        let u = check_src("uint32_t a = 1; uint32_t b = 2; uint32_t f(void) { return a + b; }")
            .unwrap();
        assert_eq!(u.global_inits, vec![1, 2]);
        assert_eq!(u.funcs[0].bindings.get("a"), Some(&Binding::Global(0)));
        assert_eq!(u.funcs[0].bindings.get("b"), Some(&Binding::Global(1)));
    }

    #[test]
    fn len_param_gets_slot_zero() {
        let u = check_src("uint32_t send(const union packet *pkt, uint32_t len) { return len; }")
            .unwrap();
        assert_eq!(u.funcs[0].len_slot, Some(0));
        assert_eq!(u.funcs[0].scratch_slots, 1);
    }

    #[test]
    fn duplicate_global_rejected() {
        let e = check_src("uint32_t a = 0; uint32_t a = 1;").unwrap_err();
        assert!(e.msg.contains("duplicate global"));
    }

    #[test]
    fn duplicate_function_rejected() {
        let e =
            check_src("uint32_t f(void) { return 0; } uint32_t f(void) { return 1; }").unwrap_err();
        assert!(e.msg.contains("duplicate function"));
    }

    #[test]
    fn duplicate_local_rejected() {
        let e = check_src("uint32_t f(void) { uint32_t x = 1; uint32_t x = 2; return x; }")
            .unwrap_err();
        assert!(e.msg.contains("duplicate local"));
    }

    #[test]
    fn undeclared_variable_rejected() {
        let e = check_src("uint32_t f(void) { return mystery; }").unwrap_err();
        assert!(e.msg.contains("mystery"));
    }

    #[test]
    fn assignment_to_constant_rejected() {
        let e = check_src("uint32_t f(void) { IPPROTO_ICMP = 5; return 0; }").unwrap_err();
        assert!(e.msg.contains("constant"));
    }

    #[test]
    fn shadowing_builtin_constant_rejected() {
        let e = check_src("uint32_t IPPROTO_ICMP = 5;").unwrap_err();
        assert!(e.msg.contains("shadows"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = check_src("uint32_t f(void) { break; }").unwrap_err();
        assert!(e.msg.contains("break"));
    }

    #[test]
    fn continue_outside_loop_rejected() {
        let e = check_src("uint32_t f(void) { continue; }").unwrap_err();
        assert!(e.msg.contains("continue"));
    }

    #[test]
    fn pkt_used_as_value_gets_helpful_error() {
        let e = check_src("uint32_t send(const union packet *pkt, uint32_t len) { return pkt; }")
            .unwrap_err();
        assert!(e.msg.contains("packet object"), "{}", e.msg);
    }

    #[test]
    fn unknown_info_field_rejected() {
        let e = check_src(
            "uint32_t send(const union packet *pkt, uint32_t len) { return info->nope; }",
        )
        .unwrap_err();
        assert!(e.msg.contains("info field"));
    }

    #[test]
    fn constants_resolve_in_expressions() {
        check_src("uint32_t f(void) { return IPPROTO_TCP + ICMP_ECHO_REPLY; }").unwrap();
    }

    #[test]
    fn break_inside_loop_ok() {
        check_src("uint32_t f(void) { while (1) { break; } return 0; }").unwrap();
    }
}
