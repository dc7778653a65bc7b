//! A deliberately naive PFVM interpreter: the one differential oracle, for
//! the fuzz targets here and for `tests/proptest_pfvm.rs`.
//!
//! It preserves the pre-optimization execution strategy: string-keyed
//! entry lookup per invocation, a freshly allocated scratch vector per
//! call, byte-at-a-time multi-byte loads, per-instruction fuel and
//! `insns_executed` accounting. The optimized interpreter in `plab-filter`
//! must be observationally identical on every validated program — same
//! verdicts, same persistent memory evolution, same traps (fuel
//! exhaustion included), same instruction counts.

use plab_filter::{Op, Program, Trap, Verdict};

/// Naive reference interpreter.
pub struct RefVm {
    program: Program,
    fuel: u64,
    /// Persistent memory, surviving across invocations.
    pub persistent: Vec<u8>,
    /// Cumulative executed-instruction count.
    pub insns_executed: u64,
}

fn load_be(region: &[u8], base: u64, width: usize) -> Option<u64> {
    let mut v = 0u64;
    for i in 0..width {
        let addr = base.checked_add(i as u64)? as usize;
        v = (v << 8) | u64::from(*region.get(addr)?);
    }
    Some(v)
}

fn load_le(region: &[u8], base: u64, width: usize) -> Option<u64> {
    let mut v = 0u64;
    for i in 0..width {
        let addr = base.checked_add(i as u64)? as usize;
        v |= u64::from(*region.get(addr)?) << (8 * i);
    }
    Some(v)
}

fn store_le(region: &mut [u8], base: u64, val: u64) -> Option<()> {
    // Check the whole span first: a partial store must not happen.
    for i in 0..8u64 {
        let addr = base.checked_add(i)? as usize;
        region.get(addr)?;
    }
    for i in 0..8u64 {
        region[(base + i) as usize] = (val >> (8 * i)) as u8;
    }
    Some(())
}

impl RefVm {
    /// Build a reference VM over a *validated* program.
    pub fn new(program: Program, fuel: u64) -> RefVm {
        let persistent = vec![0u8; program.persistent_size as usize];
        RefVm {
            program,
            fuel,
            persistent,
            insns_executed: 0,
        }
    }

    /// Adjudicate a send the way `Vm::check_send` does.
    pub fn check_send(&mut self, packet: &[u8], info: &[u8]) -> Verdict {
        match self.program.entry("send") {
            None => Verdict::Allow(packet.len().max(1) as u64),
            Some(pc) => match self.exec(pc, packet, info) {
                Ok(0) => Verdict::Deny,
                Ok(v) => Verdict::Allow(v),
                Err(t) => Verdict::Fault(t),
            },
        }
    }

    /// Run an arbitrary entry.
    pub fn run(&mut self, entry: &str, packet: &[u8], info: &[u8]) -> Result<u64, Trap> {
        match self.program.entry(entry) {
            None => Err(Trap::NoSuchEntry),
            Some(pc) => self.exec(pc, packet, info),
        }
    }

    fn exec(&mut self, entry_pc: u32, packet: &[u8], info: &[u8]) -> Result<u64, Trap> {
        let mut scratch = vec![0u8; self.program.scratch_size as usize];
        let mut regs = [0u64; 16];
        regs[1] = packet.len() as u64;
        let mut pc = entry_pc as i64;
        let mut fuel = self.fuel;
        loop {
            if fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            fuel -= 1;
            self.insns_executed += 1;
            let insn = self.program.code[pc as usize];
            let dst = insn.dst as usize;
            let src = insn.src as usize;
            let immu = insn.imm as u64;
            pc += 1;
            macro_rules! ld {
                ($f:ident, $region:expr, $w:expr) => {
                    match $f($region, regs[src].wrapping_add(immu), $w) {
                        Some(v) => regs[dst] = v,
                        None => return Err(Trap::OutOfBounds),
                    }
                };
            }
            match insn.op {
                Op::MovI => regs[dst] = immu,
                Op::MovR => regs[dst] = regs[src],
                Op::AddI => regs[dst] = regs[dst].wrapping_add(immu),
                Op::AddR => regs[dst] = regs[dst].wrapping_add(regs[src]),
                Op::SubI => regs[dst] = regs[dst].wrapping_sub(immu),
                Op::SubR => regs[dst] = regs[dst].wrapping_sub(regs[src]),
                Op::MulI => regs[dst] = regs[dst].wrapping_mul(immu),
                Op::MulR => regs[dst] = regs[dst].wrapping_mul(regs[src]),
                Op::DivI | Op::DivR => {
                    let d = if insn.op == Op::DivI { immu } else { regs[src] };
                    if d == 0 {
                        return Err(Trap::DivByZero);
                    }
                    regs[dst] /= d;
                }
                Op::ModI | Op::ModR => {
                    let d = if insn.op == Op::ModI { immu } else { regs[src] };
                    if d == 0 {
                        return Err(Trap::DivByZero);
                    }
                    regs[dst] %= d;
                }
                Op::AndI => regs[dst] &= immu,
                Op::AndR => regs[dst] &= regs[src],
                Op::OrI => regs[dst] |= immu,
                Op::OrR => regs[dst] |= regs[src],
                Op::XorI => regs[dst] ^= immu,
                Op::XorR => regs[dst] ^= regs[src],
                Op::ShlI => regs[dst] <<= immu & 63,
                Op::ShlR => regs[dst] <<= regs[src] & 63,
                Op::ShrI => regs[dst] >>= immu & 63,
                Op::ShrR => regs[dst] >>= regs[src] & 63,
                Op::Neg => regs[dst] = (regs[dst] as i64).wrapping_neg() as u64,
                Op::Not => regs[dst] = !regs[dst],
                Op::LdPkt8 => ld!(load_be, packet, 1),
                Op::LdPkt16 => ld!(load_be, packet, 2),
                Op::LdPkt32 => ld!(load_be, packet, 4),
                Op::LdInfo8 => ld!(load_le, info, 1),
                Op::LdInfo16 => ld!(load_le, info, 2),
                Op::LdInfo32 => ld!(load_le, info, 4),
                Op::LdInfo64 => ld!(load_le, info, 8),
                Op::LdMem => ld!(load_le, &self.persistent, 8),
                Op::StMem => {
                    let base = regs[dst].wrapping_add(immu);
                    if store_le(&mut self.persistent, base, regs[src]).is_none() {
                        return Err(Trap::OutOfBounds);
                    }
                }
                Op::LdScr => ld!(load_le, &scratch, 8),
                Op::StScr => {
                    let base = regs[dst].wrapping_add(immu);
                    if store_le(&mut scratch, base, regs[src]).is_none() {
                        return Err(Trap::OutOfBounds);
                    }
                }
                Op::Ja => pc += insn.branch(),
                Op::JeqR => {
                    if regs[dst] == regs[src] {
                        pc += insn.branch();
                    }
                }
                Op::JeqI => {
                    if regs[dst] == insn.cmp_imm() {
                        pc += insn.branch();
                    }
                }
                Op::JneR => {
                    if regs[dst] != regs[src] {
                        pc += insn.branch();
                    }
                }
                Op::JneI => {
                    if regs[dst] != insn.cmp_imm() {
                        pc += insn.branch();
                    }
                }
                Op::JltR => {
                    if regs[dst] < regs[src] {
                        pc += insn.branch();
                    }
                }
                Op::JltI => {
                    if regs[dst] < insn.cmp_imm() {
                        pc += insn.branch();
                    }
                }
                Op::JleR => {
                    if regs[dst] <= regs[src] {
                        pc += insn.branch();
                    }
                }
                Op::JleI => {
                    if regs[dst] <= insn.cmp_imm() {
                        pc += insn.branch();
                    }
                }
                Op::JsltR => {
                    if (regs[dst] as i64) < (regs[src] as i64) {
                        pc += insn.branch();
                    }
                }
                Op::JsltI => {
                    if (regs[dst] as i64) < (insn.cmp_imm() as i32 as i64) {
                        pc += insn.branch();
                    }
                }
                Op::Ret => return Ok(regs[dst]),
            }
        }
    }
}
