//! The exact text `disassemble` prints: one program with every opcode at
//! the pc of its byte, two entries, forward and backward jumps, and the
//! immediates whose spelling is easiest to get wrong (all-ones and
//! sign-bit masks in hex, `i64::MIN` in decimal, a negative signed
//! compare). Operators audit monitors in this form, so it is pinned
//! byte for byte.

use plab_filter::disasm::disassemble;
use plab_filter::{validate, Insn, Op, Program};
use std::collections::BTreeMap;

/// Relative offset of a jump at `pc` to `target`.
fn to(pc: i64, target: i64) -> i64 {
    target - (pc + 1)
}

fn every_opcode() -> Program {
    use Op::*;
    let code = vec![
        Insn::new(MovI, 1, 0, i64::MIN),
        Insn::new(MovR, 2, 1, 0),
        Insn::new(AddI, 2, 0, 1),
        Insn::new(AddR, 2, 1, 0),
        Insn::new(SubI, 2, 0, -3),
        Insn::new(SubR, 2, 1, 0),
        Insn::new(MulI, 2, 0, 7),
        Insn::new(MulR, 2, 1, 0),
        Insn::new(DivI, 2, 0, 2),
        Insn::new(DivR, 2, 1, 0),
        Insn::new(ModI, 2, 0, 10),
        Insn::new(ModR, 2, 1, 0),
        Insn::new(AndI, 2, 0, -1),
        Insn::new(AndR, 2, 1, 0),
        Insn::new(OrI, 2, 0, 0xff00),
        Insn::new(OrR, 2, 1, 0),
        Insn::new(XorI, 2, 0, i64::MIN),
        Insn::new(XorR, 2, 1, 0),
        Insn::new(ShlI, 2, 0, 3),
        Insn::new(ShlR, 2, 1, 0),
        Insn::new(ShrI, 2, 0, 63),
        Insn::new(ShrR, 2, 1, 0),
        Insn::new(Neg, 2, 0, 0),
        Insn::new(Not, 2, 0, 0),
        Insn::new(LdPkt8, 3, 0, 9),
        Insn::new(LdPkt16, 3, 0, 2),
        Insn::new(LdPkt32, 3, 0, 12),
        Insn::new(LdInfo8, 4, 0, 0),
        Insn::new(LdInfo16, 4, 0, 8),
        Insn::new(LdInfo32, 4, 0, 8),
        Insn::new(LdInfo64, 4, 0, -8),
        Insn::new(LdMem, 5, 0, 0),
        Insn::new(StMem, 0, 5, 8),
        Insn::new(LdScr, 6, 0, 0),
        Insn::new(StScr, 0, 6, 8),
        Insn::new(Ja, 0, 0, to(35, 38)),
        Insn::new(JeqR, 3, 4, to(36, 46)),
        Insn::pack_cmp(JeqI, 3, u32::MAX, to(37, 40) as i32),
        Insn::new(JneR, 3, 4, to(38, 1)),
        Insn::pack_cmp(JneI, 3, 6, to(39, 46) as i32),
        Insn::new(JltR, 3, 4, to(40, 24)),
        Insn::pack_cmp(JltI, 3, 0, to(41, 42) as i32),
        Insn::new(JleR, 3, 4, to(42, 41)),
        Insn::pack_cmp(JleI, 3, 17, to(43, 46) as i32),
        Insn::new(JsltR, 3, 4, to(44, 45)),
        Insn::pack_cmp(JsltI, 3, -7i32 as u32, to(45, 1) as i32),
        Insn::new(Ret, 2, 0, 0),
    ];
    let entries = BTreeMap::from([("send".to_string(), 0), ("recv".to_string(), 24)]);
    Program { code, entries, persistent_size: 16, scratch_size: 16 }
}

const GOLDEN: &str = "\
.persistent 16
.scratch 16
entry send:
    mov.i r1, -9223372036854775808
L3:
    mov.r r2, r1
    add.i r2, 1
    add.r r2, r1
    sub.i r2, -3
    sub.r r2, r1
    mul.i r2, 7
    mul.r r2, r1
    div.i r2, 2
    div.r r2, r1
    mod.i r2, 10
    mod.r r2, r1
    and.i r2, 0xffffffffffffffff
    and.r r2, r1
    or.i r2, 0xff00
    or.r r2, r1
    xor.i r2, 0x8000000000000000
    xor.r r2, r1
    shl.i r2, 3
    shl.r r2, r1
    shr.i r2, 63
    shr.r r2, r1
    neg r2
    not r2
entry recv:
L4:
    ld.pkt8 r3, r0, 9
    ld.pkt16 r3, r0, 2
    ld.pkt32 r3, r0, 12
    ld.info8 r4, r0, 0
    ld.info16 r4, r0, 8
    ld.info32 r4, r0, 8
    ld.info64 r4, r0, -8
    ld.mem r5, r0, 0
    st.mem r0, r5, 8
    ld.scr r6, r0, 0
    st.scr r0, r6, 8
    ja L0
    jeq.r r3, r4, L1
    jeq.i r3, 4294967295, L2
L0:
    jne.r r3, r4, L3
    jne.i r3, 6, L1
L2:
    jlt.r r3, r4, L4
L6:
    jlt.i r3, 0, L5
L5:
    jle.r r3, r4, L6
    jle.i r3, 17, L1
    jslt.r r3, r4, L7
L7:
    jslt.i r3, -7, L3
L1:
    ret r2
";

#[test]
fn disassembly_of_every_opcode_is_pinned() {
    let p = every_opcode();
    for (pc, insn) in p.code.iter().enumerate() {
        assert_eq!(insn.op as usize, pc, "opcode {pc} sits at pc {pc}");
    }
    assert_eq!(validate(&p), Ok(()));
    assert_eq!(disassemble(&p), GOLDEN);
}
