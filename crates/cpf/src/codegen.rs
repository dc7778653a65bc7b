//! Cpf → PFVM code generation.
//!
//! Strategy: a register evaluation stack. Expression results at nesting
//! depth `d` live in register `r(2+d)` for `d ≤ 11`; deeper values spill to
//! scratch-memory slots. `r0` is the return register, `r1` carries the
//! packet length on entry (stored into the `len` parameter's slot by the
//! prologue), and `r14`/`r15` are codegen temporaries.
//!
//! Globals live in PFVM *persistent* memory (one 8-byte slot per global),
//! which is what gives Cpf globals their across-packets lifetime. Locals
//! and parameters live in *scratch* memory, fresh per invocation — matching
//! C automatic-variable semantics.

use crate::ast::*;
use crate::sema::{Binding, CheckedFunc, CheckedUnit};
use plab_filter::builder::{Asm, Label};
use plab_filter::Program;
use plab_packet::layout;

/// Deepest expression depth held in registers (r2..r13).
const MAX_REG_DEPTH: u32 = 11;

struct FnGen<'a> {
    asm: &'a mut Asm,
    func: &'a CheckedFunc,
    /// Stack of (continue target, break target) for nested loops.
    loops: Vec<(Label, Label)>,
    /// High-water mark of spill slots used.
    max_spill: u32,
}

/// Generate a PFVM program from a checked unit.
pub fn generate(unit: &CheckedUnit) -> Program {
    let mut asm = Asm::new();
    let mut entries: Vec<(String, Label)> = Vec::new();
    let mut max_scratch_slots = 0u32;

    let needs_init = unit.global_inits.iter().any(|&v| v != 0);
    let user_init = unit.funcs.iter().any(|f| f.name == "init");

    // Synthesized init: store non-zero global initializers. If the user
    // defined `init`, the preamble is emitted at its entry instead.
    if needs_init && !user_init {
        let l = asm.label();
        entries.push(("init".to_string(), l));
        emit_global_inits(&mut asm, &unit.global_inits);
        asm.mov_i(0, 0);
        asm.ret(0);
    }

    for func in &unit.funcs {
        let l = asm.label();
        entries.push((func.name.clone(), l));
        if func.name == "init" && needs_init {
            emit_global_inits(&mut asm, &unit.global_inits);
        }
        // Prologue: capture the packet length into the len param's slot.
        if let Some(slot) = func.len_slot {
            asm.mov_i(14, 0);
            asm.st_scr(14, 1, slot as i64 * 8);
        }
        let mut gen = FnGen {
            asm: &mut asm,
            func,
            loops: Vec::new(),
            max_spill: 0,
        };
        for stmt in &func.body {
            gen.stmt(stmt);
        }
        let spill = gen.max_spill;
        // Implicit `return 0` (also satisfies the validator's no-fall-off
        // rule when the source already returns on every path).
        asm.mov_i(0, 0);
        asm.ret(0);
        max_scratch_slots = max_scratch_slots.max(func.scratch_slots + spill);
    }

    let persistent_size = unit.global_inits.len() as u32 * 8;
    let scratch_size = max_scratch_slots * 8;
    let entry_refs: Vec<(&str, Label)> = entries.iter().map(|(n, l)| (n.as_str(), *l)).collect();
    asm.finish_program(&entry_refs, persistent_size, scratch_size)
}

/// Comparison operators that compile to a single PFVM conditional jump.
fn cmp_has_jump(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    )
}

/// Jump op and operand order implementing "jump when (`ra` <op> `rb`) ==
/// `jump_on`". PFVM has no `>`/`>=`/inverse forms, so those come from
/// swapping operands of the unsigned `<`/`<=` jumps.
fn cmp_jump(op: BinOp, ra: u8, rb: u8, jump_on: bool) -> (plab_filter::Op, u8, u8) {
    use plab_filter::Op;
    match (op, jump_on) {
        (BinOp::Eq, true) | (BinOp::Ne, false) => (Op::JeqR, ra, rb),
        (BinOp::Ne, true) | (BinOp::Eq, false) => (Op::JneR, ra, rb),
        (BinOp::Lt, true) => (Op::JltR, ra, rb),
        (BinOp::Lt, false) => (Op::JleR, rb, ra),
        (BinOp::Le, true) => (Op::JleR, ra, rb),
        (BinOp::Le, false) => (Op::JltR, rb, ra),
        (BinOp::Gt, true) => (Op::JltR, rb, ra),
        (BinOp::Gt, false) => (Op::JleR, ra, rb),
        (BinOp::Ge, true) => (Op::JleR, rb, ra),
        (BinOp::Ge, false) => (Op::JltR, ra, rb),
        _ => unreachable!("cmp_jump on non-comparison {op:?}"),
    }
}

fn emit_global_inits(asm: &mut Asm, inits: &[u64]) {
    for (i, &v) in inits.iter().enumerate() {
        if v != 0 {
            asm.mov_i(14, 0);
            asm.mov_i(2, v as i64);
            asm.st_mem(14, 2, i as i64 * 8);
        }
    }
}

impl<'a> FnGen<'a> {
    /// Scratch byte offset for spill depth `d` (> MAX_REG_DEPTH).
    fn spill_off(&mut self, d: u32) -> i64 {
        let idx = d - MAX_REG_DEPTH - 1;
        self.max_spill = self.max_spill.max(idx + 1);
        (self.func.scratch_slots + idx) as i64 * 8
    }

    /// Register holding the value at depth `d`, loading from spill into
    /// `tmp` if necessary.
    fn operand(&mut self, d: u32, tmp: u8) -> u8 {
        if d <= MAX_REG_DEPTH {
            (2 + d) as u8
        } else {
            let off = self.spill_off(d);
            self.asm.mov_i(tmp, 0);
            self.asm.ld_scr(tmp, tmp, off);
            tmp
        }
    }

    /// Working register for computing the value at depth `d`.
    fn work_reg(&self, d: u32) -> u8 {
        if d <= MAX_REG_DEPTH {
            (2 + d) as u8
        } else {
            14
        }
    }

    /// If depth `d` is spilled, store the working register to its slot.
    fn store_result(&mut self, d: u32) {
        if d > MAX_REG_DEPTH {
            let off = self.spill_off(d);
            self.asm.mov_i(15, 0);
            self.asm.st_scr(15, 14, off);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Decl { name, init, .. }
            | Stmt::Assign {
                name, value: init, ..
            } => {
                self.expr(init, 0);
                let src = self.operand(0, 14);
                match self.func.bindings.get(name.as_str()) {
                    Some(Binding::Global(slot)) => {
                        self.asm.mov_i(15, 0);
                        self.asm.st_mem(15, src, *slot as i64 * 8);
                    }
                    Some(Binding::Local(slot)) => {
                        self.asm.mov_i(15, 0);
                        self.asm.st_scr(15, src, *slot as i64 * 8);
                    }
                    other => unreachable!("sema admitted bad assign target {other:?}"),
                }
            }
            Stmt::If { cond, then, els } => {
                let l_else = self.asm.new_label();
                let l_end = self.asm.new_label();
                self.cond_branch(cond, l_else, false);
                for s in then {
                    self.stmt(s);
                }
                if !els.is_empty() {
                    self.asm.ja_to(l_end);
                }
                self.asm.bind(l_else);
                for s in els {
                    self.stmt(s);
                }
                self.asm.bind(l_end);
            }
            Stmt::While { cond, body } => {
                let l_top = self.asm.label();
                let l_end = self.asm.new_label();
                self.cond_branch(cond, l_end, false);
                self.loops.push((l_top, l_end));
                for s in body {
                    self.stmt(s);
                }
                self.loops.pop();
                self.asm.ja_to(l_top);
                self.asm.bind(l_end);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                let l_top = self.asm.label();
                let l_end = self.asm.new_label();
                let l_step = self.asm.new_label();
                if let Some(c) = cond {
                    self.cond_branch(c, l_end, false);
                }
                // `continue` must run the step, not re-test the condition.
                self.loops.push((l_step, l_end));
                for s in body {
                    self.stmt(s);
                }
                self.loops.pop();
                self.asm.bind(l_step);
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.asm.ja_to(l_top);
                self.asm.bind(l_end);
            }
            Stmt::Return { value, .. } => {
                match value {
                    Some(v) => {
                        self.expr(v, 0);
                        let r = self.operand(0, 14);
                        self.asm.mov_r(0, r);
                    }
                    None => self.asm.mov_i(0, 0),
                }
                self.asm.ret(0);
            }
            Stmt::Break { .. } => {
                let (_, l_end) = *self.loops.last().expect("sema checked loop depth");
                self.asm.ja_to(l_end);
            }
            Stmt::Continue { .. } => {
                let (l_top, _) = *self.loops.last().expect("sema checked loop depth");
                self.asm.ja_to(l_top);
            }
        }
    }

    /// Compile `e`, leaving the result at depth `d`.
    fn expr(&mut self, e: &Expr, d: u32) {
        match e {
            Expr::Int { value, .. } => {
                let w = self.work_reg(d);
                self.asm.mov_i(w, *value as i64);
                self.store_result(d);
            }
            Expr::Var { name, .. } => {
                let w = self.work_reg(d);
                match self.func.bindings.get(name.as_str()) {
                    Some(Binding::Constant(v)) => self.asm.mov_i(w, *v as i64),
                    Some(Binding::Global(slot)) => {
                        self.asm.mov_i(w, 0);
                        self.asm.ld_mem(w, w, *slot as i64 * 8);
                    }
                    Some(Binding::Local(slot)) => {
                        self.asm.mov_i(w, 0);
                        self.asm.ld_scr(w, w, *slot as i64 * 8);
                    }
                    Some(Binding::Len) => self.asm.mov_r(w, 1),
                    None => unreachable!("sema admitted undeclared `{name}`"),
                }
                self.store_result(d);
            }
            Expr::Field { base, path, .. } => {
                let w = self.work_reg(d);
                match base {
                    Base::Pkt => {
                        let spec = layout::resolve(path).expect("sema checked field");
                        plab_filter::asm::emit_field_load(self.asm, w, &spec);
                    }
                    Base::Info => {
                        let spec = layout::resolve_info(path).expect("sema checked field");
                        self.asm.mov_i(w, 0);
                        match spec.width {
                            1 => self.asm.ld_info8(w, w, spec.offset as i64),
                            2 => self.asm.ld_info16(w, w, spec.offset as i64),
                            4 => self.asm.ld_info32(w, w, spec.offset as i64),
                            8 => self.asm.ld_info64(w, w, spec.offset as i64),
                            other => unreachable!("info width {other}"),
                        }
                        if spec.shift != 0 {
                            self.asm.shr_i(w, spec.shift as i64);
                        }
                        // Elide masks already implied by the load width
                        // (mirrors `emit_field_load` for packet fields).
                        let live_bits = 8 * spec.width as u32 - spec.shift;
                        let live = if live_bits >= 64 {
                            u64::MAX
                        } else {
                            (1u64 << live_bits) - 1
                        };
                        if spec.mask & live != live {
                            self.asm.and_i(w, spec.mask as i64);
                        }
                    }
                }
                self.store_result(d);
            }
            Expr::Unary { op, expr, .. } => {
                self.expr(expr, d);
                let w = self.operand(d, 14);
                match op {
                    UnOp::Neg => self.asm.neg(w),
                    UnOp::BitNot => self.asm.not(w),
                    UnOp::Not => {
                        let l_one = self.asm.new_label();
                        let l_end = self.asm.new_label();
                        self.asm.jeq_i_to(w, 0, l_one);
                        self.asm.mov_i(w, 0);
                        self.asm.ja_to(l_end);
                        self.asm.bind(l_one);
                        self.asm.mov_i(w, 1);
                        self.asm.bind(l_end);
                    }
                }
                // `operand` may have loaded into r14 for spilled depths;
                // the result must go back to the slot either way.
                if w == 14 {
                    self.restore_spill(d);
                } else {
                    self.store_result(d);
                }
            }
            Expr::Binary { op, lhs, rhs, .. } => match op {
                BinOp::LogAnd | BinOp::LogOr => self.logical(*op, lhs, rhs, d),
                _ => {
                    self.expr(lhs, d);
                    self.expr(rhs, d + 1);
                    let ra = self.operand(d, 14);
                    let rb = self.operand(d + 1, 15);
                    self.binary_op(*op, ra, rb);
                    if ra == 14 {
                        self.restore_spill(d);
                    }
                }
            },
            Expr::Call { .. } => unreachable!("sema rejects calls"),
        }
    }

    /// Store r14 back to the spill slot for depth `d` (which is > reg depth).
    fn restore_spill(&mut self, d: u32) {
        let off = self.spill_off(d);
        self.asm.mov_i(15, 0);
        self.asm.st_scr(15, 14, off);
    }

    fn binary_op(&mut self, op: BinOp, ra: u8, rb: u8) {
        use plab_filter::Op;
        match op {
            BinOp::Mul => self.asm.mul_r(ra, rb),
            BinOp::Div => self.asm.div_r(ra, rb),
            BinOp::Mod => self.asm.mod_r(ra, rb),
            BinOp::Add => self.asm.add_r(ra, rb),
            BinOp::Sub => self.asm.sub_r(ra, rb),
            BinOp::Shl => self.asm.shl_r(ra, rb),
            BinOp::Shr => self.asm.shr_r(ra, rb),
            BinOp::BitAnd => self.asm.and_r(ra, rb),
            BinOp::BitXor => self.asm.xor_r(ra, rb),
            BinOp::BitOr => self.asm.or_r(ra, rb),
            BinOp::Eq => self.compare(Op::JeqR, ra, rb, false),
            BinOp::Ne => self.compare(Op::JneR, ra, rb, false),
            BinOp::Lt => self.compare(Op::JltR, ra, rb, false),
            BinOp::Le => self.compare(Op::JleR, ra, rb, false),
            BinOp::Gt => self.compare(Op::JltR, ra, rb, true),
            BinOp::Ge => self.compare(Op::JleR, ra, rb, true),
            BinOp::LogAnd | BinOp::LogOr => unreachable!("handled by logical()"),
        }
    }

    /// ra = (ra <op> rb) as 0/1; `swapped` compares (rb <op> ra) to derive
    /// `>` and `>=` from `<` and `<=`.
    fn compare(&mut self, jop: plab_filter::Op, ra: u8, rb: u8, swapped: bool) {
        let (x, y) = if swapped { (rb, ra) } else { (ra, rb) };
        let l_true = self.asm.new_label();
        let l_end = self.asm.new_label();
        self.asm.j_reg_to(jop, x, y, l_true);
        self.asm.mov_i(ra, 0);
        self.asm.ja_to(l_end);
        self.asm.bind(l_true);
        self.asm.mov_i(ra, 1);
        self.asm.bind(l_end);
    }

    /// Compile condition `e` as a branch: jump to `target` when `e`'s truth
    /// value equals `jump_on`, fall through otherwise. Statement contexts
    /// (`if`/`while`/`for`) use this instead of materializing a 0/1 value
    /// and re-testing it — comparisons become a single conditional jump and
    /// `&&`/`||` become short-circuit chains, which roughly halves the
    /// instruction count of branchy monitors. Only valid at statement level
    /// (evaluates operands at depths 0 and 1).
    fn cond_branch(&mut self, e: &Expr, target: Label, jump_on: bool) {
        match e {
            Expr::Binary {
                op: BinOp::LogAnd,
                lhs,
                rhs,
                ..
            } => {
                if jump_on {
                    // Jump iff both true: bail past the whole test when the
                    // lhs is false, then the rhs decides.
                    let l_out = self.asm.new_label();
                    self.cond_branch(lhs, l_out, false);
                    self.cond_branch(rhs, target, true);
                    self.asm.bind(l_out);
                } else {
                    self.cond_branch(lhs, target, false);
                    self.cond_branch(rhs, target, false);
                }
            }
            Expr::Binary {
                op: BinOp::LogOr,
                lhs,
                rhs,
                ..
            } => {
                if jump_on {
                    self.cond_branch(lhs, target, true);
                    self.cond_branch(rhs, target, true);
                } else {
                    let l_out = self.asm.new_label();
                    self.cond_branch(lhs, l_out, true);
                    self.cond_branch(rhs, target, false);
                    self.asm.bind(l_out);
                }
            }
            Expr::Binary { op, lhs, rhs, .. } if cmp_has_jump(*op) => {
                // Equality against a small constant (literal or named) uses
                // the compare-immediate jump forms, skipping the constant
                // materialization. Eq/Ne are symmetric, so either side works.
                if matches!(op, BinOp::Eq | BinOp::Ne) {
                    let (reg_side, imm) = match (self.const_val(lhs), self.const_val(rhs)) {
                        (_, Some(v)) if v <= u32::MAX as u64 => (&**lhs, Some(v)),
                        (Some(v), _) if v <= u32::MAX as u64 => (&**rhs, Some(v)),
                        _ => (&**lhs, None),
                    };
                    if let Some(value) = imm {
                        self.expr(reg_side, 0);
                        let ra = self.operand(0, 14);
                        let eq_jump = (*op == BinOp::Eq) == jump_on;
                        if eq_jump {
                            self.asm.jeq_i_to(ra, value as u32, target);
                        } else {
                            self.asm.jne_i_to(ra, value as u32, target);
                        }
                        return;
                    }
                }
                self.expr(lhs, 0);
                self.expr(rhs, 1);
                let ra = self.operand(0, 14);
                let rb = self.operand(1, 15);
                let (jop, x, y) = cmp_jump(*op, ra, rb, jump_on);
                self.asm.j_reg_to(jop, x, y, target);
            }
            Expr::Unary {
                op: UnOp::Not,
                expr,
                ..
            } => {
                self.cond_branch(expr, target, !jump_on);
            }
            Expr::Int { value, .. } => {
                if (*value != 0) == jump_on {
                    self.asm.ja_to(target);
                }
            }
            _ => {
                self.expr(e, 0);
                let r = self.operand(0, 14);
                if jump_on {
                    self.asm.jne_i_to(r, 0, target);
                } else {
                    self.asm.jeq_i_to(r, 0, target);
                }
            }
        }
    }

    /// Compile-time value of `e`, if it is an integer literal or a named
    /// constant.
    fn const_val(&self, e: &Expr) -> Option<u64> {
        match e {
            Expr::Int { value, .. } => Some(*value),
            Expr::Var { name, .. } => match self.func.bindings.get(name.as_str()) {
                Some(Binding::Constant(v)) => Some(*v),
                _ => None,
            },
            _ => None,
        }
    }

    /// Short-circuit `&&` / `||` producing 0/1 at depth `d`.
    fn logical(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, d: u32) {
        let l_short = self.asm.new_label(); // branch target on short-circuit
        let l_end = self.asm.new_label();
        let is_and = op == BinOp::LogAnd;

        self.expr(lhs, d);
        let ra = self.operand(d, 14);
        if is_and {
            self.asm.jeq_i_to(ra, 0, l_short); // false && _ -> false
        } else {
            self.asm.jne_i_to(ra, 0, l_short); // true || _ -> true
        }
        self.expr(rhs, d + 1);
        let rb = self.operand(d + 1, 15);
        let w = self.work_reg(d);
        if is_and {
            self.asm.jeq_i_to(rb, 0, l_short);
            self.asm.mov_i(w, 1);
        } else {
            self.asm.jne_i_to(rb, 0, l_short);
            self.asm.mov_i(w, 0);
        }
        self.asm.ja_to(l_end);
        self.asm.bind(l_short);
        self.asm.mov_i(w, if is_and { 0 } else { 1 });
        self.asm.bind(l_end);
        self.store_result(d);
    }
}
