//! The PFVM instruction set and its 12-byte wire encoding.
//!
//! Instructions are fixed-size records `(op, dst, src, imm)` where `imm` is
//! a 64-bit immediate also used as a branch offset (relative, in
//! instructions) and a memory displacement. Fixed-size encoding keeps the
//! validator and interpreter simple — the same reason classic BPF chose it.

use plab_packet::codec::{Reader, Writer};

/// Operation codes.
///
/// Naming: `*R` variants take `(dst, src)` registers; `*I` variants take
/// `(dst, imm)`. Loads compute the address as `reg[src] + imm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// dst = imm
    MovI = 0,
    /// dst = src
    MovR = 1,
    /// dst += imm
    AddI = 2,
    /// dst += src
    AddR = 3,
    /// dst -= imm
    SubI = 4,
    /// dst -= src
    SubR = 5,
    /// dst *= imm
    MulI = 6,
    /// dst *= src
    MulR = 7,
    /// dst /= imm (unsigned; divisor 0 traps)
    DivI = 8,
    /// dst /= src
    DivR = 9,
    /// dst %= imm (unsigned; divisor 0 traps)
    ModI = 10,
    /// dst %= src
    ModR = 11,
    /// dst &= imm
    AndI = 12,
    /// dst &= src
    AndR = 13,
    /// dst |= imm
    OrI = 14,
    /// dst |= src
    OrR = 15,
    /// dst ^= imm
    XorI = 16,
    /// dst ^= src
    XorR = 17,
    /// dst <<= imm & 63
    ShlI = 18,
    /// dst <<= src & 63
    ShlR = 19,
    /// dst >>= imm & 63 (logical)
    ShrI = 20,
    /// dst >>= src & 63 (logical)
    ShrR = 21,
    /// dst = -dst (two's complement)
    Neg = 22,
    /// dst = !dst (bitwise)
    Not = 23,

    /// `dst = packet[reg[src] + imm] (1 byte, zero-extended)`
    LdPkt8 = 24,
    /// dst = packet[..] big-endian u16
    LdPkt16 = 25,
    /// dst = packet[..] big-endian u32
    LdPkt32 = 26,
    /// `dst = info[reg[src] + imm] (1 byte)`
    LdInfo8 = 27,
    /// dst = info[..] little-endian u16
    LdInfo16 = 28,
    /// dst = info[..] little-endian u32
    LdInfo32 = 29,
    /// dst = info[..] little-endian u64
    LdInfo64 = 30,
    /// `dst = persistent[reg[src] + imm] little-endian u64`
    LdMem = 31,
    /// `persistent[reg[dst] + imm] = src (little-endian u64)`
    StMem = 32,
    /// `dst = scratch[reg[src] + imm] little-endian u64`
    LdScr = 33,
    /// `scratch[reg[dst] + imm] = src (little-endian u64)`
    StScr = 34,

    /// pc += imm (unconditional, relative to next instruction)
    Ja = 35,
    /// if dst == src: pc += imm
    JeqR = 36,
    /// if dst == imm32 (src unused): branch by offset packed in high bits —
    /// see [`Insn::branch`] encoding note.
    JeqI = 37,
    /// if dst != src
    JneR = 38,
    /// if dst != imm
    JneI = 39,
    /// if dst < src (unsigned)
    JltR = 40,
    /// if dst < imm (unsigned)
    JltI = 41,
    /// if dst <= src (unsigned)
    JleR = 42,
    /// if dst <= imm (unsigned)
    JleI = 43,
    /// if dst < src (signed)
    JsltR = 44,
    /// if dst < imm (signed)
    JsltI = 45,

    /// `return reg[dst]`
    Ret = 46,
}

/// How an instruction's operands read in the text format of
/// [`crate::asm`], which [`crate::disasm`] prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// `rD, imm`, the immediate in decimal.
    Imm,
    /// `rD, imm`, the immediate a bit pattern printed in hex.
    Bits,
    /// `rD, rS`.
    Regs,
    /// `rD`.
    Reg,
    /// `rD, rS, off`: a load from `rS + off`, or a store of `rS` to `rD + off`.
    Mem,
    /// `label`.
    Jump,
    /// `rD, value, label`: the compare value packed beside the offset
    /// (see [`Insn::pack_cmp`]).
    JumpImm,
    /// `rD, rS, label`.
    JumpReg,
}

/// Every opcode at the index of its byte, with its mnemonic and operand
/// shape: the one place the text format names an instruction.
const TABLE: [(Op, &str, Shape); 47] = {
    use Shape::*;
    [
        (Op::MovI, "mov.i", Imm),
        (Op::MovR, "mov.r", Regs),
        (Op::AddI, "add.i", Imm),
        (Op::AddR, "add.r", Regs),
        (Op::SubI, "sub.i", Imm),
        (Op::SubR, "sub.r", Regs),
        (Op::MulI, "mul.i", Imm),
        (Op::MulR, "mul.r", Regs),
        (Op::DivI, "div.i", Imm),
        (Op::DivR, "div.r", Regs),
        (Op::ModI, "mod.i", Imm),
        (Op::ModR, "mod.r", Regs),
        (Op::AndI, "and.i", Bits),
        (Op::AndR, "and.r", Regs),
        (Op::OrI, "or.i", Bits),
        (Op::OrR, "or.r", Regs),
        (Op::XorI, "xor.i", Bits),
        (Op::XorR, "xor.r", Regs),
        (Op::ShlI, "shl.i", Imm),
        (Op::ShlR, "shl.r", Regs),
        (Op::ShrI, "shr.i", Imm),
        (Op::ShrR, "shr.r", Regs),
        (Op::Neg, "neg", Reg),
        (Op::Not, "not", Reg),
        (Op::LdPkt8, "ld.pkt8", Mem),
        (Op::LdPkt16, "ld.pkt16", Mem),
        (Op::LdPkt32, "ld.pkt32", Mem),
        (Op::LdInfo8, "ld.info8", Mem),
        (Op::LdInfo16, "ld.info16", Mem),
        (Op::LdInfo32, "ld.info32", Mem),
        (Op::LdInfo64, "ld.info64", Mem),
        (Op::LdMem, "ld.mem", Mem),
        (Op::StMem, "st.mem", Mem),
        (Op::LdScr, "ld.scr", Mem),
        (Op::StScr, "st.scr", Mem),
        (Op::Ja, "ja", Jump),
        (Op::JeqR, "jeq.r", JumpReg),
        (Op::JeqI, "jeq.i", JumpImm),
        (Op::JneR, "jne.r", JumpReg),
        (Op::JneI, "jne.i", JumpImm),
        (Op::JltR, "jlt.r", JumpReg),
        (Op::JltI, "jlt.i", JumpImm),
        (Op::JleR, "jle.r", JumpReg),
        (Op::JleI, "jle.i", JumpImm),
        (Op::JsltR, "jslt.r", JumpReg),
        (Op::JsltI, "jslt.i", JumpImm),
        (Op::Ret, "ret", Reg),
    ]
};

impl Op {
    /// Every opcode, at the index of its byte.
    pub const ALL: [Op; 47] = {
        let mut all = [Op::Ret; 47];
        let mut i = 0;
        while i < all.len() {
            all[i] = TABLE[i].0;
            assert!(all[i] as usize == i, "TABLE lists each opcode at its byte");
            i += 1;
        }
        all
    };

    /// The mnemonic and operand shape of the text format.
    pub(crate) fn syntax(self) -> (&'static str, Shape) {
        let (_, mnemonic, shape) = TABLE[self as usize];
        (mnemonic, shape)
    }

    /// True for conditional/unconditional jumps.
    pub fn is_jump(&self) -> bool {
        matches!(
            self.syntax().1,
            Shape::Jump | Shape::JumpImm | Shape::JumpReg
        )
    }

    /// True for compare-with-immediate jumps, which pack the comparison
    /// value and branch offset into the immediate (see [`Insn::cmp_imm`]).
    pub fn is_cmp_imm_jump(&self) -> bool {
        self.syntax().1 == Shape::JumpImm
    }
}

/// One PFVM instruction.
///
/// For compare-with-immediate jumps (`JeqI` etc.) the 64-bit `imm` packs
/// two values: the low 32 bits are the comparison immediate
/// (zero-extended; use a register compare for wider values) and the high
/// 32 bits are the signed branch offset. Helpers [`Insn::cmp_imm`] and
/// [`Insn::branch`] perform the packing/unpacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Operation.
    pub op: Op,
    /// Destination register (0..16).
    pub dst: u8,
    /// Source register (0..16); unused for immediate forms.
    pub src: u8,
    /// Immediate / displacement / packed compare+offset.
    pub imm: i64,
}

/// Encoded instruction size in bytes.
pub const INSN_SIZE: usize = 12;

impl Insn {
    /// Construct an instruction.
    pub fn new(op: Op, dst: u8, src: u8, imm: i64) -> Insn {
        Insn { op, dst, src, imm }
    }

    /// Pack a compare-immediate jump: compare `dst` with `value` (32-bit),
    /// branch by `offset` instructions when the condition holds.
    pub fn pack_cmp(op: Op, dst: u8, value: u32, offset: i32) -> Insn {
        debug_assert!(op.is_cmp_imm_jump());
        let imm = ((offset as i64) << 32) | value as i64;
        Insn {
            op,
            dst,
            src: 0,
            imm,
        }
    }

    /// The comparison immediate of a packed compare jump.
    pub fn cmp_imm(&self) -> u64 {
        (self.imm as u64) & 0xffff_ffff
    }

    /// The value a packed compare jump compares against: its comparison
    /// immediate zero-extended, except `jslt.i`, which compares it
    /// sign-extended.
    pub(crate) fn cmp_value(&self) -> i64 {
        if self.op == Op::JsltI {
            self.cmp_imm() as i32 as i64
        } else {
            self.cmp_imm() as i64
        }
    }

    /// The branch offset: for packed compare jumps, the high 32 bits;
    /// otherwise the whole immediate.
    pub fn branch(&self) -> i64 {
        if self.op.is_cmp_imm_jump() {
            (self.imm >> 32) as i32 as i64
        } else {
            self.imm
        }
    }

    /// Write the 12-byte wire format: opcode, dst, src, a reserved zero
    /// byte, then `imm`.
    pub fn write(&self, w: &mut Writer) {
        w.raw(&[self.op as u8, self.dst, self.src, 0]);
        w.u64(self.imm as u64);
    }

    /// Decode from the wire format; a nonzero reserved byte is refused.
    pub fn decode(b: &[u8]) -> Option<Insn> {
        let mut r = Reader::new(b);
        let op = r.tag(&Op::ALL).ok()?;
        let [dst, src, 0] = r.take().ok()? else {
            return None;
        };
        Some(Insn {
            op,
            dst,
            src,
            imm: r.u64().ok()? as i64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let cases = [
            Insn::new(Op::MovI, 3, 0, -42),
            Insn::new(Op::AddR, 1, 2, 0),
            Insn::new(Op::LdPkt32, 5, 0, 12),
            Insn::new(Op::StMem, 0, 7, 8),
            Insn::new(Op::Ja, 0, 0, -3),
            Insn::new(Op::Ret, 0, 0, 0),
            Insn::pack_cmp(Op::JeqI, 2, 0xdeadbeef, -7),
        ];
        for insn in cases {
            let enc = Writer::build(INSN_SIZE, |w| insn.write(w));
            assert_eq!(enc.len(), INSN_SIZE);
            assert_eq!(Insn::decode(&enc), Some(insn), "{insn:?}");
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let mut b = Writer::build(INSN_SIZE, |w| Insn::new(Op::Ret, 0, 0, 0).write(w));
        b[0] = 0xff;
        assert!(Insn::decode(&b).is_none());
    }

    #[test]
    fn decode_rejects_short_buffer() {
        assert!(Insn::decode(&[0; 5]).is_none());
    }

    #[test]
    fn packed_compare_fields() {
        let insn = Insn::pack_cmp(Op::JneI, 4, 0x1234, 10);
        assert_eq!(insn.cmp_imm(), 0x1234);
        assert_eq!(insn.branch(), 10);
        let neg = Insn::pack_cmp(Op::JltI, 4, u32::MAX, -1);
        assert_eq!(neg.cmp_imm(), u32::MAX as u64);
        assert_eq!(neg.branch(), -1);
    }

    #[test]
    fn branch_of_plain_jump_is_whole_imm() {
        assert_eq!(Insn::new(Op::Ja, 0, 0, -100).branch(), -100);
        assert_eq!(Insn::new(Op::JeqR, 1, 2, 55).branch(), 55);
    }

    #[test]
    fn opcode_roundtrip_all() {
        for op in Op::ALL {
            assert_eq!(Reader::new(&[op as u8]).tag(&Op::ALL), Ok(op));
        }
        assert!(Reader::new(&[Op::ALL.len() as u8]).tag(&Op::ALL).is_err());
    }

    #[test]
    fn jump_classification() {
        assert!(Op::Ja.is_jump());
        assert!(Op::JeqI.is_jump());
        assert!(!Op::MovI.is_jump());
        assert!(Op::JeqI.is_cmp_imm_jump());
        assert!(!Op::JeqR.is_cmp_imm_jump());
        assert!(!Op::Ja.is_cmp_imm_jump());
    }
}
