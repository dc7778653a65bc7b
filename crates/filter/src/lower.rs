//! Threaded-code lowering: validated PFVM programs are pre-decoded into an
//! internal representation executed by a single dispatch loop, with
//! *superinstructions* covering the hot opcode sequences the Cpf compiler
//! and the assembler's canonical field loads emit.
//!
//! `run` is the only PFVM interpreter in production: [`crate::vm::Vm`]
//! (one program) and [`crate::fuse::FusedVm`] (a chain) are two drivers
//! over it, and the source-[`Insn`] interpreter it is checked against
//! lives in `plab-fuzz` (`reference::RefVm`).
//!
//! # Why
//!
//! The wire [`Insn`] format optimizes for auditability and a simple
//! validator: relative branch offsets, packed compare-immediates, and
//! address arithmetic recomputed on every execution. All of that is
//! per-instruction decode cost on the adjudication hot path. Lowering pays
//! it **once per instantiation**:
//!
//! - branch targets become absolute pre-checked indices,
//! - compare immediates are unpacked (and sign-extended for `jslt.i`),
//! - the canonical `mov.i r, 0; ld.* r, r, off` field-load idiom collapses
//!   to one absolute-address load,
//! - `mov.i/mov.r + ret` epilogues collapse to immediate/register returns,
//! - `mov.i + ld.* + jeq.i/jne.i` field tests collapse to a single
//!   load-compare-branch.
//!
//! # Fuel fidelity
//!
//! Every [`TInsn`] carries the number of source instructions it covers
//! (`cost`). Fuel is charged by cost, so `insns_executed` attribution is
//! **bit-identical** to an interpreter over the source instructions. Two
//! edge cases keep that exact:
//!
//! - when remaining fuel is smaller than a superinstruction's cost, the
//!   instruction settles its own partial outcome (`out_of_fuel`). Every
//!   superinstruction is one non-trapping `mov` followed by one or two
//!   more source instructions, and what a caller can see of an invocation
//!   is its trap, the fuel it consumed and persistent memory — so the
//!   outcome is "all fuel gone, `OutOfFuel`", except a load-compare-branch
//!   holding exactly the fuel of its `mov` and load, which performs the
//!   load and surfaces `OutOfBounds` if that traps;
//! - a load-compare-branch that traps on the load refunds the fuel of the
//!   never-fetched compare.
//!
//! Superinstructions are never formed across a jump target or entry point,
//! so no branch can land in the middle of one.

use crate::insn::{Insn, Op};
use crate::program::Program;
use crate::validate::NUM_REGS;
use crate::vm::Trap;

/// Memory-space/width selector for absolute loads (the `aux` field of
/// [`TOp::AbsLd`] and, OR-ed with [`CMP_NE`], of [`TOp::AbsLdCmpBr`]).
pub mod kind {
    /// Packet byte (big-endian widths follow).
    pub const PKT8: u8 = 0;
    /// Packet big-endian u16.
    pub const PKT16: u8 = 1;
    /// Packet big-endian u32.
    pub const PKT32: u8 = 2;
    /// Info byte.
    pub const INFO8: u8 = 3;
    /// Info little-endian u16.
    pub const INFO16: u8 = 4;
    /// Info little-endian u32.
    pub const INFO32: u8 = 5;
    /// Info little-endian u64.
    pub const INFO64: u8 = 6;
    /// Persistent-memory little-endian u64.
    pub const MEM: u8 = 7;
    /// Scratch little-endian u64.
    pub const SCR: u8 = 8;
}

/// `aux` flag on [`TOp::AbsLdCmpBr`]: branch on *not equal* instead of
/// equal.
pub const CMP_NE: u8 = 0x80;

/// Threaded operations: the 47 base PFVM ops (with pre-decoded operands)
/// plus the superinstructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TOp {
    /// dst = imm
    MovI,
    /// dst = src
    MovR,
    /// dst += imm
    AddI,
    /// dst += src
    AddR,
    /// dst -= imm
    SubI,
    /// dst -= src
    SubR,
    /// dst *= imm
    MulI,
    /// dst *= src
    MulR,
    /// dst /= imm
    DivI,
    /// dst /= src
    DivR,
    /// dst %= imm
    ModI,
    /// dst %= src
    ModR,
    /// dst &= imm
    AndI,
    /// dst &= src
    AndR,
    /// dst |= imm
    OrI,
    /// dst |= src
    OrR,
    /// dst ^= imm
    XorI,
    /// dst ^= src
    XorR,
    /// dst <<= imm & 63
    ShlI,
    /// dst <<= src & 63
    ShlR,
    /// dst >>= imm & 63
    ShrI,
    /// dst >>= src & 63
    ShrR,
    /// dst = -dst
    Neg,
    /// dst = !dst
    Not,
    /// dst = packet\[reg\[src\] + imm\] (byte)
    LdPkt8,
    /// dst = packet\[..\] big-endian u16
    LdPkt16,
    /// dst = packet\[..\] big-endian u32
    LdPkt32,
    /// dst = info\[reg\[src\] + imm\] (byte)
    LdInfo8,
    /// dst = info\[..\] little-endian u16
    LdInfo16,
    /// dst = info\[..\] little-endian u32
    LdInfo32,
    /// dst = info\[..\] little-endian u64
    LdInfo64,
    /// dst = persistent\[reg\[src\] + imm\] little-endian u64
    LdMem,
    /// persistent\[reg\[dst\] + imm\] = src
    StMem,
    /// dst = scratch\[reg\[src\] + imm\] little-endian u64
    LdScr,
    /// scratch\[reg\[dst\] + imm\] = src
    StScr,
    /// goto imm (absolute)
    Ja,
    /// if dst == src goto imm
    JeqR,
    /// if dst == imm goto imm2
    JeqI,
    /// if dst != src goto imm
    JneR,
    /// if dst != imm goto imm2
    JneI,
    /// if dst < src goto imm (unsigned)
    JltR,
    /// if dst < imm goto imm2 (unsigned)
    JltI,
    /// if dst <= src goto imm (unsigned)
    JleR,
    /// if dst <= imm goto imm2 (unsigned)
    JleI,
    /// if (i64)dst < (i64)src goto imm
    JsltR,
    /// if (i64)dst < imm goto imm2 (imm pre-sign-extended)
    JsltI,
    /// return reg\[dst\]
    Ret,

    /// Superinstruction (`mov.i r, k; ld.* r, r, off`):
    /// dst = space-of-`aux`\[imm\].
    AbsLd,
    /// Superinstruction (`mov.i r, k; st.mem/st.scr r, s, off`):
    /// reg\[src\] = imm2, then space-of-`aux`\[imm\] = reg\[dst\].
    AbsSt,
    /// Superinstruction (`mov.i r, k; ret r`): return imm.
    RetImm,
    /// Superinstruction (`mov.r d, s; ret d`): return reg\[src\].
    RetReg,
    /// Superinstruction (`mov.i r, k; ld.* r, r, off; jeq.i/jne.i r, v, L`):
    /// dst = space-of-`aux & !CMP_NE`\[imm\]; branch to `imm2 >> 32` when
    /// dst compares to `imm2 & 0xffff_ffff` per the [`CMP_NE`] bit.
    AbsLdCmpBr,

    /// Record-variant [`TOp::StMem`]: performs the store and appends
    /// `(address, value)` to the write log so replaying sections can apply
    /// it to their own segment instead of executing.
    StMemLog,
    /// Record-variant [`TOp::AbsSt`] with persistent kind: store plus
    /// write-log append, preserving the folded `mov.i` side effect.
    AbsStLog,
}

/// One pre-decoded threaded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TInsn {
    /// Threaded operation.
    pub op: TOp,
    /// Destination register.
    pub dst: u8,
    /// Source register.
    pub src: u8,
    /// Superinstruction auxiliary: load [`kind`] selector / compare flag.
    pub aux: u8,
    /// Source instructions covered (fuel charged per execution).
    pub cost: u8,
    /// Primary immediate: value, absolute address, or absolute branch
    /// target.
    pub imm: i64,
    /// Secondary immediate: compare value, branch target of
    /// compare-immediate forms, packed target/compare of
    /// [`TOp::AbsLdCmpBr`], or store value of [`TOp::AbsSt`].
    pub imm2: i64,
}

/// Build the record-mode twin of a threaded stream: persistent writes
/// become their logging variants and everything else, persistent reads
/// included, is the plain instruction. Dispatch stays check-free — the
/// logging is baked into the opcodes instead of tested per instruction.
pub(crate) fn record_variant(tcode: &[TInsn]) -> Vec<TInsn> {
    tcode
        .iter()
        .map(|&t| match t.op {
            TOp::StMem => TInsn { op: TOp::StMemLog, ..t },
            TOp::AbsSt if t.aux == kind::MEM => TInsn { op: TOp::AbsStLog, ..t },
            _ => t,
        })
        .collect()
}

/// Counters describing one lowering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Source instructions lowered.
    pub orig_insns: u64,
    /// Threaded instructions produced.
    pub threaded_insns: u64,
    /// Superinstructions formed.
    pub superinsns: u64,
    /// Superinstructions by covered source length (index = length; only
    /// 2 and 3 occur).
    pub super_len: [u64; 4],
}

/// A lowered program: threaded code plus the original→threaded pc map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lowered {
    /// Threaded instruction stream.
    pub tcode: Vec<TInsn>,
    /// Original pc → threaded pc (mid-superinstruction pcs map to the
    /// covering instruction; nothing can branch to them).
    pub pc_map: Vec<u32>,
    /// Lowering counters.
    pub stats: LowerStats,
}

fn load_kind(op: Op) -> Option<u8> {
    Some(match op {
        Op::LdPkt8 => kind::PKT8,
        Op::LdPkt16 => kind::PKT16,
        Op::LdPkt32 => kind::PKT32,
        Op::LdInfo8 => kind::INFO8,
        Op::LdInfo16 => kind::INFO16,
        Op::LdInfo32 => kind::INFO32,
        Op::LdInfo64 => kind::INFO64,
        Op::LdMem => kind::MEM,
        Op::LdScr => kind::SCR,
        _ => return None,
    })
}

/// Lower a **validated** program to threaded code. Must not be called on
/// unvalidated programs (jump targets are trusted).
pub fn lower(p: &Program) -> Lowered {
    let code = &p.code;
    let n = code.len();

    // Superinstruction barriers: a branch or entry may land at these pcs,
    // so no superinstruction may *cover* them as a non-first element.
    let mut barrier = vec![false; n];
    for &pc in p.entries.values() {
        if (pc as usize) < n {
            barrier[pc as usize] = true;
        }
    }
    for (pc, insn) in code.iter().enumerate() {
        if insn.op.is_jump() {
            let t = (pc as i64 + 1 + insn.branch()) as usize;
            barrier[t] = true;
        }
    }

    let mut stats = LowerStats { orig_insns: n as u64, ..LowerStats::default() };
    let mut tcode: Vec<TInsn> = Vec::with_capacity(n);
    let mut pc_map = vec![0u32; n];
    let mut pc = 0usize;
    while pc < n {
        let tpc = tcode.len() as u32;
        let (tinsn, len) = match try_superinsn(code, pc, &barrier) {
            Some(pair) => pair,
            None => (lower_one(&code[pc], pc), 1),
        };
        for covered in pc_map.iter_mut().skip(pc).take(len) {
            *covered = tpc;
        }
        if len > 1 {
            stats.superinsns += 1;
            stats.super_len[len] += 1;
        }
        tcode.push(tinsn);
        pc += len;
    }
    stats.threaded_insns = tcode.len() as u64;

    // Fix up branch targets from original pcs to threaded pcs.
    for t in &mut tcode {
        match t.op {
            TOp::Ja | TOp::JeqR | TOp::JneR | TOp::JltR | TOp::JleR | TOp::JsltR => {
                t.imm = pc_map[t.imm as usize] as i64;
            }
            TOp::JeqI | TOp::JneI | TOp::JltI | TOp::JleI | TOp::JsltI => {
                t.imm2 = pc_map[t.imm2 as usize] as i64;
            }
            TOp::AbsLdCmpBr => {
                let target = pc_map[(t.imm2 >> 32) as usize] as i64;
                t.imm2 = (target << 32) | (t.imm2 & 0xffff_ffff);
            }
            _ => {}
        }
    }

    Lowered { tcode, pc_map, stats }
}

/// Try to form a superinstruction starting at `pc`. Continuation
/// instructions must not be branch targets or entry points.
fn try_superinsn(code: &[Insn], pc: usize, barrier: &[bool]) -> Option<(TInsn, usize)> {
    let a = code[pc];
    let free = |off: usize| pc + off < code.len() && !barrier[pc + off];
    match a.op {
        Op::MovI => {
            if !free(1) {
                return None;
            }
            let b = code[pc + 1];
            if let Some(k) = load_kind(b.op) {
                // mov.i r, k; ld.* r, r, off  →  absolute load.
                if b.dst == a.dst && b.src == a.dst {
                    let addr = (a.imm as u64).wrapping_add(b.imm as u64) as i64;
                    // …optionally followed by jeq.i/jne.i on the loaded
                    // value: a single load-compare-branch.
                    if free(2) {
                        let c = code[pc + 2];
                        if matches!(c.op, Op::JeqI | Op::JneI) && c.dst == a.dst {
                            let target = pc as i64 + 3 + c.branch();
                            let ne = if c.op == Op::JneI { CMP_NE } else { 0 };
                            return Some((
                                TInsn {
                                    op: TOp::AbsLdCmpBr,
                                    dst: a.dst,
                                    src: 0,
                                    aux: k | ne,
                                    cost: 3,
                                    imm: addr,
                                    imm2: (target << 32) | c.cmp_imm() as i64,
                                },
                                3,
                            ));
                        }
                    }
                    return Some((
                        TInsn {
                            op: TOp::AbsLd,
                            dst: a.dst,
                            src: 0,
                            aux: k,
                            cost: 2,
                            imm: addr,
                            imm2: 0,
                        },
                        2,
                    ));
                }
            }
            // mov.i r, k; st.mem/st.scr r, s, off  →  absolute store.
            if matches!(b.op, Op::StMem | Op::StScr) && b.dst == a.dst {
                let addr = (a.imm as u64).wrapping_add(b.imm as u64) as i64;
                let k = if b.op == Op::StMem { kind::MEM } else { kind::SCR };
                return Some((
                    TInsn {
                        op: TOp::AbsSt,
                        dst: b.src,
                        src: a.dst,
                        aux: k,
                        cost: 2,
                        imm: addr,
                        imm2: a.imm,
                    },
                    2,
                ));
            }
            // mov.i r, k; ret r  →  immediate return.
            if b.op == Op::Ret && b.dst == a.dst {
                return Some((
                    TInsn {
                        op: TOp::RetImm,
                        dst: a.dst,
                        src: 0,
                        aux: 0,
                        cost: 2,
                        imm: a.imm,
                        imm2: 0,
                    },
                    2,
                ));
            }
            None
        }
        Op::MovR => {
            if !free(1) {
                return None;
            }
            let b = code[pc + 1];
            // mov.r d, s; ret d  →  register return.
            if b.op == Op::Ret && b.dst == a.dst {
                return Some((
                    TInsn {
                        op: TOp::RetReg,
                        dst: a.dst,
                        src: a.src,
                        aux: 0,
                        cost: 2,
                        imm: 0,
                        imm2: 0,
                    },
                    2,
                ));
            }
            None
        }
        _ => None,
    }
}

/// Lower one instruction 1:1 (branch targets left as original pcs; the
/// caller's fixup pass maps them).
fn lower_one(insn: &Insn, pc: usize) -> TInsn {
    use TOp as T;
    let mut t = TInsn {
        op: T::Ret,
        dst: insn.dst,
        src: insn.src,
        aux: 0,
        cost: 1,
        imm: insn.imm,
        imm2: 0,
    };
    t.op = match insn.op {
        Op::MovI => T::MovI,
        Op::MovR => T::MovR,
        Op::AddI => T::AddI,
        Op::AddR => T::AddR,
        Op::SubI => T::SubI,
        Op::SubR => T::SubR,
        Op::MulI => T::MulI,
        Op::MulR => T::MulR,
        Op::DivI => T::DivI,
        Op::DivR => T::DivR,
        Op::ModI => T::ModI,
        Op::ModR => T::ModR,
        Op::AndI => T::AndI,
        Op::AndR => T::AndR,
        Op::OrI => T::OrI,
        Op::OrR => T::OrR,
        Op::XorI => T::XorI,
        Op::XorR => T::XorR,
        Op::ShlI => T::ShlI,
        Op::ShlR => T::ShlR,
        Op::ShrI => T::ShrI,
        Op::ShrR => T::ShrR,
        Op::Neg => T::Neg,
        Op::Not => T::Not,
        Op::LdPkt8 => T::LdPkt8,
        Op::LdPkt16 => T::LdPkt16,
        Op::LdPkt32 => T::LdPkt32,
        Op::LdInfo8 => T::LdInfo8,
        Op::LdInfo16 => T::LdInfo16,
        Op::LdInfo32 => T::LdInfo32,
        Op::LdInfo64 => T::LdInfo64,
        Op::LdMem => T::LdMem,
        Op::StMem => T::StMem,
        Op::LdScr => T::LdScr,
        Op::StScr => T::StScr,
        Op::Ret => T::Ret,
        Op::Ja => {
            t.imm = pc as i64 + 1 + insn.branch();
            T::Ja
        }
        Op::JeqR | Op::JneR | Op::JltR | Op::JleR | Op::JsltR => {
            t.imm = pc as i64 + 1 + insn.branch();
            match insn.op {
                Op::JeqR => T::JeqR,
                Op::JneR => T::JneR,
                Op::JltR => T::JltR,
                Op::JleR => T::JleR,
                _ => T::JsltR,
            }
        }
        Op::JeqI | Op::JneI | Op::JltI | Op::JleI | Op::JsltI => {
            t.imm = insn.cmp_value();
            t.imm2 = pc as i64 + 1 + insn.branch();
            match insn.op {
                Op::JeqI => T::JeqI,
                Op::JneI => T::JneI,
                Op::JltI => T::JltI,
                Op::JleI => T::JleI,
                _ => T::JsltI,
            }
        }
    };
    t
}

/// Absolute fixed-width load from the selected space.
#[inline(always)]
fn abs_load(
    k: u8,
    addr: u64,
    packet: &[u8],
    info: &[u8],
    persistent: &[u8],
    scratch: &[u8],
) -> Result<u64, Trap> {
    macro_rules! ld {
        ($region:expr, $ty:ty, $conv:ident) => {{
            const W: usize = core::mem::size_of::<$ty>();
            let addr = addr as usize;
            match addr.checked_add(W).and_then(|end| $region.get(addr..end)) {
                // SAFETY-COMMENT: `get(addr..addr+W)` returned Some, so the
                // slice is exactly W bytes and the conversion cannot fail.
                Some(b) => Ok(<$ty>::$conv(b.try_into().unwrap()) as u64),
                None => Err(Trap::OutOfBounds),
            }
        }};
    }
    match k {
        kind::PKT8 => packet.get(addr as usize).map(|b| *b as u64).ok_or(Trap::OutOfBounds),
        kind::PKT16 => ld!(packet, u16, from_be_bytes),
        kind::PKT32 => ld!(packet, u32, from_be_bytes),
        kind::INFO8 => info.get(addr as usize).map(|b| *b as u64).ok_or(Trap::OutOfBounds),
        kind::INFO16 => ld!(info, u16, from_le_bytes),
        kind::INFO32 => ld!(info, u32, from_le_bytes),
        kind::INFO64 => ld!(info, u64, from_le_bytes),
        kind::MEM => ld!(persistent, u64, from_le_bytes),
        kind::SCR => ld!(scratch, u64, from_le_bytes),
        _ => Err(Trap::OutOfBounds),
    }
}

/// Settle the instruction `t` that the remaining `fuel` cannot cover: the
/// source instructions it stands for run until the fuel is gone, and only
/// a load among them can trap first (module docs, "Fuel fidelity").
#[cold]
fn out_of_fuel(
    t: &TInsn,
    fuel: &mut u64,
    packet: &[u8],
    info: &[u8],
    persistent: &[u8],
    scratch: &[u8],
) -> Result<u64, Trap> {
    let had = core::mem::take(fuel);
    if t.op == TOp::AbsLdCmpBr && had == 2 {
        abs_load(t.aux & !CMP_NE, t.imm as u64, packet, info, persistent, scratch)?;
    }
    Err(Trap::OutOfFuel)
}

/// Execute threaded code from `tpc` until return or trap; a
/// [`record_variant`] stream also appends its persistent writes to `log`.
/// `fuel` is consumed in place so callers settle attribution exactly
/// once. Recording is baked into the stream's opcodes; the dispatch loop
/// itself is check-free.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    tcode: &[TInsn],
    mut tpc: usize,
    regs: &mut [u64; NUM_REGS as usize],
    packet: &[u8],
    info: &[u8],
    persistent: &mut [u8],
    scratch: &mut [u8],
    fuel: &mut u64,
    log: &mut Vec<(u64, u64)>,
) -> Result<u64, Trap> {
    /// Bounds-checked fixed-width load (same shape as the pre-threading
    /// interpreter, for bit-identical trap behaviour).
    macro_rules! load {
        ($region:expr, $addr:expr, $ty:ty, $conv:ident) => {{
            const W: usize = core::mem::size_of::<$ty>();
            let addr = $addr;
            match addr.checked_add(W).and_then(|end| $region.get(addr..end)) {
                // SAFETY-COMMENT: `get` returned Some ⇒ exactly W bytes.
                Some(bytes) => <$ty>::$conv(bytes.try_into().unwrap()) as u64,
                None => return Err(Trap::OutOfBounds),
            }
        }};
    }
    loop {
        let t = &tcode[tpc];
        let cost = t.cost as u64;
        if *fuel < cost {
            return out_of_fuel(t, fuel, packet, info, persistent, scratch);
        }
        *fuel -= cost;
        // The mask is a no-op (the validator bounds register indices);
        // it lets the compiler drop the bounds checks on `regs`.
        let dst = (t.dst & (NUM_REGS - 1)) as usize;
        let src = (t.src & (NUM_REGS - 1)) as usize;
        let immu = t.imm as u64;
        tpc += 1;
        match t.op {
            TOp::MovI => regs[dst] = immu,
            TOp::MovR => regs[dst] = regs[src],
            TOp::AddI => regs[dst] = regs[dst].wrapping_add(immu),
            TOp::AddR => regs[dst] = regs[dst].wrapping_add(regs[src]),
            TOp::SubI => regs[dst] = regs[dst].wrapping_sub(immu),
            TOp::SubR => regs[dst] = regs[dst].wrapping_sub(regs[src]),
            TOp::MulI => regs[dst] = regs[dst].wrapping_mul(immu),
            TOp::MulR => regs[dst] = regs[dst].wrapping_mul(regs[src]),
            TOp::DivI | TOp::DivR => {
                let d = if t.op == TOp::DivI { immu } else { regs[src] };
                if d == 0 {
                    return Err(Trap::DivByZero);
                }
                regs[dst] /= d;
            }
            TOp::ModI | TOp::ModR => {
                let d = if t.op == TOp::ModI { immu } else { regs[src] };
                if d == 0 {
                    return Err(Trap::DivByZero);
                }
                regs[dst] %= d;
            }
            TOp::AndI => regs[dst] &= immu,
            TOp::AndR => regs[dst] &= regs[src],
            TOp::OrI => regs[dst] |= immu,
            TOp::OrR => regs[dst] |= regs[src],
            TOp::XorI => regs[dst] ^= immu,
            TOp::XorR => regs[dst] ^= regs[src],
            TOp::ShlI => regs[dst] <<= immu & 63,
            TOp::ShlR => regs[dst] <<= regs[src] & 63,
            TOp::ShrI => regs[dst] >>= immu & 63,
            TOp::ShrR => regs[dst] >>= regs[src] & 63,
            TOp::Neg => regs[dst] = (regs[dst] as i64).wrapping_neg() as u64,
            TOp::Not => regs[dst] = !regs[dst],

            TOp::LdPkt8 => {
                let addr = regs[src].wrapping_add(immu) as usize;
                match packet.get(addr) {
                    Some(b) => regs[dst] = *b as u64,
                    None => return Err(Trap::OutOfBounds),
                }
            }
            TOp::LdPkt16 => {
                regs[dst] =
                    load!(packet, regs[src].wrapping_add(immu) as usize, u16, from_be_bytes);
            }
            TOp::LdPkt32 => {
                regs[dst] =
                    load!(packet, regs[src].wrapping_add(immu) as usize, u32, from_be_bytes);
            }
            TOp::LdInfo8 => {
                let addr = regs[src].wrapping_add(immu) as usize;
                match info.get(addr) {
                    Some(b) => regs[dst] = *b as u64,
                    None => return Err(Trap::OutOfBounds),
                }
            }
            TOp::LdInfo16 => {
                regs[dst] =
                    load!(info, regs[src].wrapping_add(immu) as usize, u16, from_le_bytes);
            }
            TOp::LdInfo32 => {
                regs[dst] =
                    load!(info, regs[src].wrapping_add(immu) as usize, u32, from_le_bytes);
            }
            TOp::LdInfo64 => {
                regs[dst] =
                    load!(info, regs[src].wrapping_add(immu) as usize, u64, from_le_bytes);
            }
            TOp::LdMem => {
                regs[dst] =
                    load!(persistent, regs[src].wrapping_add(immu) as usize, u64, from_le_bytes);
            }
            TOp::StMem => {
                let addr = regs[dst].wrapping_add(immu) as usize;
                let val = regs[src];
                match addr.checked_add(8).and_then(|end| persistent.get_mut(addr..end)) {
                    Some(bytes) => bytes.copy_from_slice(&val.to_le_bytes()),
                    None => return Err(Trap::OutOfBounds),
                }
            }
            TOp::LdScr => {
                regs[dst] =
                    load!(scratch, regs[src].wrapping_add(immu) as usize, u64, from_le_bytes);
            }
            TOp::StScr => {
                let addr = regs[dst].wrapping_add(immu) as usize;
                let val = regs[src];
                match addr.checked_add(8).and_then(|end| scratch.get_mut(addr..end)) {
                    Some(bytes) => bytes.copy_from_slice(&val.to_le_bytes()),
                    None => return Err(Trap::OutOfBounds),
                }
            }

            TOp::Ja => tpc = t.imm as usize,
            TOp::JeqR => {
                if regs[dst] == regs[src] {
                    tpc = t.imm as usize;
                }
            }
            TOp::JneR => {
                if regs[dst] != regs[src] {
                    tpc = t.imm as usize;
                }
            }
            TOp::JltR => {
                if regs[dst] < regs[src] {
                    tpc = t.imm as usize;
                }
            }
            TOp::JleR => {
                if regs[dst] <= regs[src] {
                    tpc = t.imm as usize;
                }
            }
            TOp::JsltR => {
                if (regs[dst] as i64) < (regs[src] as i64) {
                    tpc = t.imm as usize;
                }
            }
            TOp::JeqI => {
                if regs[dst] == immu {
                    tpc = t.imm2 as usize;
                }
            }
            TOp::JneI => {
                if regs[dst] != immu {
                    tpc = t.imm2 as usize;
                }
            }
            TOp::JltI => {
                if regs[dst] < immu {
                    tpc = t.imm2 as usize;
                }
            }
            TOp::JleI => {
                if regs[dst] <= immu {
                    tpc = t.imm2 as usize;
                }
            }
            TOp::JsltI => {
                if (regs[dst] as i64) < t.imm {
                    tpc = t.imm2 as usize;
                }
            }

            TOp::Ret => return Ok(regs[dst]),

            TOp::AbsLd => {
                match abs_load(t.aux, immu, packet, info, persistent, scratch) {
                    Ok(v) => regs[dst] = v,
                    Err(trap) => return Err(trap),
                }
            }
            TOp::AbsSt => {
                // The folded mov.i wrote the address register; later code
                // may read it, so the side effect must be preserved.
                regs[src] = t.imm2 as u64;
                let addr = immu as usize;
                let val = regs[dst];
                let region: &mut [u8] =
                    if t.aux == kind::MEM { persistent } else { scratch };
                match addr.checked_add(8).and_then(|end| region.get_mut(addr..end)) {
                    Some(bytes) => bytes.copy_from_slice(&val.to_le_bytes()),
                    None => return Err(Trap::OutOfBounds),
                }
            }
            TOp::RetImm => return Ok(immu),
            TOp::RetReg => return Ok(regs[src]),
            TOp::AbsLdCmpBr => {
                let v = match abs_load(t.aux & !CMP_NE, immu, packet, info, persistent, scratch)
                {
                    Ok(v) => v,
                    Err(trap) => {
                        // The compare was never fetched: refund its fuel so
                        // accounting matches the unfused interpreter.
                        *fuel += 1;
                        return Err(trap);
                    }
                };
                regs[dst] = v;
                let cmp = (t.imm2 as u64) & 0xffff_ffff;
                let taken = if t.aux & CMP_NE != 0 { v != cmp } else { v == cmp };
                if taken {
                    tpc = (t.imm2 >> 32) as usize;
                }
            }

            TOp::StMemLog => {
                let addr = regs[dst].wrapping_add(immu) as usize;
                let val = regs[src];
                match addr.checked_add(8).and_then(|end| persistent.get_mut(addr..end)) {
                    Some(bytes) => {
                        bytes.copy_from_slice(&val.to_le_bytes());
                        log.push((addr as u64, val));
                    }
                    None => return Err(Trap::OutOfBounds),
                }
            }
            TOp::AbsStLog => {
                regs[src] = t.imm2 as u64;
                let addr = immu as usize;
                let val = regs[dst];
                match addr.checked_add(8).and_then(|end| persistent.get_mut(addr..end)) {
                    Some(bytes) => {
                        bytes.copy_from_slice(&val.to_le_bytes());
                        log.push((addr as u64, val));
                    }
                    None => return Err(Trap::OutOfBounds),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Asm;
    use std::collections::BTreeMap;

    fn prog(code: Vec<Insn>) -> Program {
        let mut entries = BTreeMap::new();
        entries.insert("send".to_string(), 0);
        Program { code, entries, persistent_size: 64, scratch_size: 64 }
    }

    #[test]
    fn threaded_insn_is_three_words() {
        // Five byte-wide fields and two immediates: nothing else rides in
        // the hot loop's instruction stream.
        assert_eq!(core::mem::size_of::<TInsn>(), 24);
    }

    #[test]
    fn canonical_field_load_fuses_to_absld() {
        // The assembler/Cpf canonical pattern: mov.i r2, 0; ld.pkt16 r2, r2, 4.
        let mut a = Asm::new();
        a.mov_i(2, 0);
        a.ld_pkt16(2, 2, 4);
        a.mov_r(0, 2);
        a.ret(0);
        let p = prog(a.finish());
        let l = lower(&p);
        assert_eq!(l.tcode[0].op, TOp::AbsLd);
        assert_eq!(l.tcode[0].aux, kind::PKT16);
        assert_eq!(l.tcode[0].imm, 4);
        assert_eq!(l.tcode[0].cost, 2);
        assert_eq!(l.tcode[1].op, TOp::RetReg);
        assert_eq!(l.stats.superinsns, 2);
        assert_eq!(l.stats.threaded_insns, 2);
        assert_eq!(l.stats.orig_insns, 4);
    }

    #[test]
    fn field_test_fuses_to_load_compare_branch() {
        // mov.i r2, 0; ld.pkt8 r2, r2, 9; jeq.i r2, 1, L; …
        let mut a = Asm::new();
        a.mov_i(2, 0);
        a.ld_pkt8(2, 2, 9);
        let hit = a.new_label();
        a.jeq_i_to(2, 1, hit);
        a.mov_i(0, 0);
        a.ret(0);
        a.bind(hit);
        a.mov_i(0, 7);
        a.ret(0);
        let p = prog(a.finish());
        let l = lower(&p);
        assert_eq!(l.tcode[0].op, TOp::AbsLdCmpBr);
        assert_eq!(l.tcode[0].cost, 3);
        assert_eq!(l.tcode[0].aux, kind::PKT8);
        // Branch target must resolve to the threaded pc of the mov.i r0, 7
        // (itself fused into a RetImm).
        let target = (l.tcode[0].imm2 >> 32) as usize;
        assert_eq!(l.tcode[target].op, TOp::RetImm);
        assert_eq!(l.tcode[target].imm, 7);
    }

    #[test]
    fn no_fusion_across_jump_targets() {
        // The mov.i at the loop head is a branch target; the following ld
        // must not be folded into it from the preceding instruction.
        let mut a = Asm::new();
        let top = a.label(); // pc 0: mov.i (branch target)
        a.mov_i(2, 0);
        a.ld_pkt8(3, 2, 0); // dst != src: not the canonical pattern anyway
        a.emit(Insn::new(Op::AddI, 4, 0, 1));
        a.jne_i_to(4, 3, top);
        a.mov_i(0, 1);
        a.ret(0);
        let p = prog(a.finish());
        let l = lower(&p);
        // Entry pc 0 is a barrier; the backward branch must land on it.
        let back = l.tcode.iter().find(|t| t.op == TOp::JneI).unwrap();
        assert_eq!(back.imm2, 0);
    }

    #[test]
    fn store_pattern_preserves_address_register_side_effect() {
        // mov.i r14, 0; st.scr r14, r1, 8 — later code reads r14.
        let mut a = Asm::new();
        a.mov_i(14, 0);
        a.st_scr(14, 1, 8);
        a.mov_r(0, 14);
        a.ret(0);
        let p = prog(a.finish());
        let l = lower(&p);
        assert_eq!(l.tcode[0].op, TOp::AbsSt);
        let mut regs = [0u64; 16];
        regs[14] = 99; // must be overwritten by the folded mov.i
        regs[1] = 42;
        let mut scratch = vec![0u8; 64];
        let mut fuel = 100;
        let out = run(
            &l.tcode, 0, &mut regs, &[], &[], &mut [], &mut scratch, &mut fuel, &mut Vec::new(),
        );
        assert_eq!(out, Ok(0));
        assert_eq!(regs[14], 0, "folded mov.i side effect lost");
        assert_eq!(&scratch[8..16], &42u64.to_le_bytes());
        assert_eq!(fuel, 100 - 4);
    }

    /// `run` from tpc 0 with empty info/scratch; returns (outcome, fuel left).
    fn run_with(
        l: &Lowered,
        packet: &[u8],
        persistent: &mut [u8],
        mut fuel: u64,
    ) -> (Result<u64, Trap>, u64) {
        let out = run(
            &l.tcode, 0, &mut [0u64; 16], packet, &[], persistent, &mut [], &mut fuel,
            &mut Vec::new(),
        );
        (out, fuel)
    }

    #[test]
    fn partial_fuel_settles_out_of_fuel() {
        // RetImm costs 2; with 1 fuel the mov.i runs and the ret traps out
        // of fuel — what an interpreter over the source instructions does.
        let mut a = Asm::new();
        a.mov_i(0, 5);
        a.ret(0);
        let l = lower(&prog(a.finish()));
        assert_eq!(l.tcode[0].op, TOp::RetImm);
        for fuel in [0, 1] {
            assert_eq!(
                run_with(&l, &[], &mut [], fuel),
                (Err(Trap::OutOfFuel), 0)
            );
        }

        // mov.i r3, 0; st.mem r3, r1, 0: the store is the instruction the
        // fuel does not reach, so persistent memory must stay untouched.
        let mut a = Asm::new();
        a.mov_i(3, 0);
        a.st_mem(3, 1, 0);
        a.ret(0);
        let l = lower(&prog(a.finish()));
        assert_eq!(l.tcode[0].op, TOp::AbsSt);
        let mut persistent = [0xaau8; 8];
        assert_eq!(
            run_with(&l, &[9; 4], &mut persistent, 1),
            (Err(Trap::OutOfFuel), 0)
        );
        assert_eq!(persistent, [0xaa; 8]);
    }

    /// `mov.i r2, 0; ld.pkt8 r2, r2, 50; jeq.i r2, 1, L` — out of bounds
    /// for a packet shorter than 51 bytes.
    fn load_compare_at_50() -> Lowered {
        let mut a = Asm::new();
        a.mov_i(2, 0);
        a.ld_pkt8(2, 2, 50);
        let l1 = a.new_label();
        a.jeq_i_to(2, 1, l1);
        a.ret(0);
        a.bind(l1);
        a.ret(0);
        let l = lower(&prog(a.finish()));
        assert_eq!(l.tcode[0].op, TOp::AbsLdCmpBr);
        l
    }

    #[test]
    fn trapping_load_compare_refunds_unfetched_compare() {
        // mov.i + ld fetched, jeq.i never fetched: 2 instructions.
        assert_eq!(
            run_with(&load_compare_at_50(), &[0u8; 4], &mut [], 100),
            (Err(Trap::OutOfBounds), 98)
        );
    }

    #[test]
    fn load_compare_with_two_fuel_still_performs_its_load() {
        let l = load_compare_at_50();
        // Fuel covers mov.i + ld: a trapping load is what ends the run…
        assert_eq!(
            run_with(&l, &[0u8; 4], &mut [], 2),
            (Err(Trap::OutOfBounds), 0)
        );
        // …a load in bounds leaves the compare to run out of fuel…
        assert_eq!(
            run_with(&l, &[0u8; 64], &mut [], 2),
            (Err(Trap::OutOfFuel), 0)
        );
        // …and with 1 fuel the load is never reached.
        assert_eq!(
            run_with(&l, &[0u8; 4], &mut [], 1),
            (Err(Trap::OutOfFuel), 0)
        );
    }

    #[test]
    fn record_variant_logs_writes_and_never_pauses() {
        let mut a = Asm::new();
        a.mov_i(2, 1);
        a.emit(Insn::new(Op::AddI, 2, 0, 2));
        a.mov_i(4, 0);
        a.st_mem(4, 2, 8); // persistent write before any read
        a.ld_mem(3, 0, 0); // persistent read: runs as a plain load
        a.add_r(3, 2);
        a.st_mem(0, 3, 0); // persistent write that depends on the read
        a.mov_r(0, 3);
        a.ret(0);
        let l = lower(&prog(a.finish()));
        let rec = record_variant(&l.tcode);
        // Only the stores change, each into its logging variant.
        for (plain, recorded) in l.tcode.iter().zip(&rec) {
            let want = match plain.op {
                TOp::StMem => TOp::StMemLog,
                TOp::AbsSt if plain.aux == kind::MEM => TOp::AbsStLog,
                op => op,
            };
            assert_eq!(*recorded, TInsn { op: want, ..*plain });
        }
        // The stream runs to completion: same result, fuel and memory as
        // the plain one, and every write in the log in order.
        let mut runs = [(&l.tcode, Vec::new()), (&rec, Vec::new())].map(|(code, mut log)| {
            let mut persistent = vec![0u8; 16];
            persistent[0] = 7;
            let mut fuel = 100;
            let out = run(
                code, 0, &mut [0u64; 16], &[], &[], &mut persistent, &mut [], &mut fuel, &mut log,
            );
            (out, fuel, persistent, log)
        });
        assert_eq!(runs[1].0, Ok(10));
        assert_eq!(runs[1].3, vec![(8, 3), (0, 10)], "both writes, resolved");
        assert!(runs[0].3.is_empty(), "the plain stream logs nothing");
        runs[1].3.clear();
        assert_eq!(runs[0], runs[1]);
    }
}
