//! Programmatic PFVM code builder with label-based control flow.
//!
//! Used by the Cpf compiler's code generator, the text assembler, and
//! hand-written monitors in tests. Labels may be referenced before they are
//! bound; [`Asm::finish`] resolves all fixups into relative branch offsets.

use crate::insn::{Insn, Op};
use crate::program::Program;

/// A control-flow label (forward or backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Code builder.
#[derive(Default)]
pub struct Asm {
    code: Vec<Insn>,
    /// label id -> bound instruction index
    bound: Vec<Option<usize>>,
    /// (instruction index, label id) pairs awaiting resolution
    fixups: Vec<(usize, Label)>,
}

impl Asm {
    /// Fresh builder.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Create an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Bind `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        assert!(self.bound[label.0].is_none(), "label bound twice");
        self.bound[label.0] = Some(self.code.len());
    }

    /// Create a label bound to the current position (for backward jumps).
    pub fn label(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Append a raw instruction.
    pub fn emit(&mut self, insn: Insn) {
        self.code.push(insn);
    }

    // --- moves and ALU ---

    /// dst = imm
    pub fn mov_i(&mut self, dst: u8, imm: i64) {
        self.emit(Insn::new(Op::MovI, dst, 0, imm));
    }
    /// dst = src
    pub fn mov_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::MovR, dst, src, 0));
    }
    /// dst += src
    pub fn add_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::AddR, dst, src, 0));
    }
    /// dst -= src
    pub fn sub_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::SubR, dst, src, 0));
    }
    /// dst *= src
    pub fn mul_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::MulR, dst, src, 0));
    }
    /// dst /= src
    pub fn div_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::DivR, dst, src, 0));
    }
    /// dst %= src
    pub fn mod_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::ModR, dst, src, 0));
    }
    /// dst &= imm
    pub fn and_i(&mut self, dst: u8, imm: i64) {
        self.emit(Insn::new(Op::AndI, dst, 0, imm));
    }
    /// dst &= src
    pub fn and_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::AndR, dst, src, 0));
    }
    /// dst |= src
    pub fn or_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::OrR, dst, src, 0));
    }
    /// dst ^= src
    pub fn xor_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::XorR, dst, src, 0));
    }
    /// dst >>= imm
    pub fn shr_i(&mut self, dst: u8, imm: i64) {
        self.emit(Insn::new(Op::ShrI, dst, 0, imm));
    }
    /// dst <<= src
    pub fn shl_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::ShlR, dst, src, 0));
    }
    /// dst >>= src
    pub fn shr_r(&mut self, dst: u8, src: u8) {
        self.emit(Insn::new(Op::ShrR, dst, src, 0));
    }
    /// dst = -dst
    pub fn neg(&mut self, dst: u8) {
        self.emit(Insn::new(Op::Neg, dst, 0, 0));
    }
    /// dst = !dst
    pub fn not(&mut self, dst: u8) {
        self.emit(Insn::new(Op::Not, dst, 0, 0));
    }

    // --- loads/stores ---

    /// dst = `packet[reg[src]+off]` (u8)
    pub fn ld_pkt8(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdPkt8, dst, src, off));
    }
    /// dst = `packet[reg[src]+off]` (be u16)
    pub fn ld_pkt16(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdPkt16, dst, src, off));
    }
    /// dst = `packet[reg[src]+off]` (be u32)
    pub fn ld_pkt32(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdPkt32, dst, src, off));
    }
    /// dst = `info[reg[src]+off]` (u8)
    pub fn ld_info8(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdInfo8, dst, src, off));
    }
    /// dst = `info[reg[src]+off]` (le u16)
    pub fn ld_info16(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdInfo16, dst, src, off));
    }
    /// dst = `info[reg[src]+off]` (le u32)
    pub fn ld_info32(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdInfo32, dst, src, off));
    }
    /// dst = `info[reg[src]+off]` (le u64)
    pub fn ld_info64(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdInfo64, dst, src, off));
    }
    /// dst = `persistent[reg[src]+off]` (le u64)
    pub fn ld_mem(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdMem, dst, src, off));
    }
    /// `persistent[reg[addr]+off] = reg[val]`
    pub fn st_mem(&mut self, addr: u8, val: u8, off: i64) {
        self.emit(Insn::new(Op::StMem, addr, val, off));
    }
    /// dst = `scratch[reg[src]+off]` (le u64)
    pub fn ld_scr(&mut self, dst: u8, src: u8, off: i64) {
        self.emit(Insn::new(Op::LdScr, dst, src, off));
    }
    /// `scratch[reg[addr]+off] = reg[val]`
    pub fn st_scr(&mut self, addr: u8, val: u8, off: i64) {
        self.emit(Insn::new(Op::StScr, addr, val, off));
    }

    // --- control flow ---

    /// return `reg[r]`
    pub fn ret(&mut self, r: u8) {
        self.emit(Insn::new(Op::Ret, r, 0, 0));
    }

    /// Unconditional jump to `label`.
    pub fn ja_to(&mut self, label: Label) {
        self.fixups.push((self.code.len(), label));
        self.emit(Insn::new(Op::Ja, 0, 0, 0));
    }

    /// Register-compare jump to `label`.
    pub fn j_reg_to(&mut self, op: Op, dst: u8, src: u8, label: Label) {
        debug_assert!(op.is_jump() && !op.is_cmp_imm_jump() && op != Op::Ja);
        self.fixups.push((self.code.len(), label));
        self.emit(Insn::new(op, dst, src, 0));
    }

    /// Immediate-compare jump to `label`.
    pub fn j_imm_to(&mut self, op: Op, dst: u8, value: u32, label: Label) {
        debug_assert!(op.is_cmp_imm_jump());
        self.fixups.push((self.code.len(), label));
        self.emit(Insn::pack_cmp(op, dst, value, 0));
    }

    /// `if dst != value` jump to `label`.
    pub fn jne_i_to(&mut self, dst: u8, value: u32, label: Label) {
        self.j_imm_to(Op::JneI, dst, value, label);
    }

    /// `if dst == value` jump to `label`.
    pub fn jeq_i_to(&mut self, dst: u8, value: u32, label: Label) {
        self.j_imm_to(Op::JeqI, dst, value, label);
    }

    /// Resolve fixups and return the instruction stream.
    ///
    /// Panics if any referenced label was never bound (a builder bug, not
    /// an input error).
    pub fn finish(mut self) -> Vec<Insn> {
        for (idx, label) in &self.fixups {
            let target =
                self.bound[label.0].expect("jump to unbound label") as i64;
            let offset = target - (*idx as i64 + 1);
            let insn = &mut self.code[*idx];
            if insn.op.is_cmp_imm_jump() {
                let value = (insn.imm as u64) & 0xffff_ffff;
                insn.imm = (offset << 32) | value as i64;
            } else {
                insn.imm = offset;
            }
        }
        self.code
    }

    /// Finish into a [`Program`] with the given entry points and memory
    /// sizes. Entry labels must be bound.
    pub fn finish_program(
        self,
        entries: &[(&str, Label)],
        persistent_size: u32,
        scratch_size: u32,
    ) -> Program {
        let entries = entries
            .iter()
            .map(|(name, label)| {
                (name.to_string(), self.bound[label.0].expect("entry label unbound") as u32)
            })
            .collect();
        Program { code: self.finish(), entries, persistent_size, scratch_size }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Vm;

    #[test]
    fn forward_and_backward_labels() {
        // while (r2 != 5) r2++; return r2;
        let mut a = Asm::new();
        let top = a.label();
        let done = a.new_label();
        a.jeq_i_to(2, 5, done);
        a.emit(Insn::new(Op::AddI, 2, 0, 1));
        a.ja_to(top);
        a.bind(done);
        a.mov_r(0, 2);
        a.ret(0);
        let mut entries = std::collections::BTreeMap::new();
        entries.insert("send".into(), 0);
        let p = Program {
            code: a.finish(),
            entries,
            persistent_size: 0,
            scratch_size: 0,
        };
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(5));
    }

    #[test]
    fn finish_program_sets_entries() {
        let mut a = Asm::new();
        let send = a.label();
        a.mov_i(0, 1);
        a.ret(0);
        let recv = a.label();
        a.mov_i(0, 2);
        a.ret(0);
        let p = a.finish_program(&[("send", send), ("recv", recv)], 16, 0);
        assert_eq!(p.entry("send"), Some(0));
        assert_eq!(p.entry("recv"), Some(2));
        assert_eq!(p.persistent_size, 16);
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
        assert_eq!(vm.run("recv", &[], &[]), Ok(2));
    }

    #[test]
    #[should_panic(expected = "unbound")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.new_label();
        a.ja_to(l);
        a.ret(0);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
    }
}
