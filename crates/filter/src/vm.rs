//! The single-program PFVM driver.
//!
//! [`Vm`] and [`crate::fuse::FusedVm`] are two drivers over one dispatch
//! loop (`lower::run`): a `Vm` runs one program against its own memory, a
//! `FusedVm` runs a monitor chain. `MonitorSet` adjudicates with the fused
//! driver at every depth; `Vm` serves single filters (`ncap`, the `pfvm`
//! CLI) and is the per-monitor reference walk (`Engine::Sequential`) the
//! differential tests and the repo benchmark's `monitor_chain` check hold
//! the fused driver to.
//!
//! A [`Vm`] instance holds the persistent memory for one monitor/filter
//! attached to one experiment: it is created when the experiment is
//! authorized and dropped when the experiment ends, so state written by
//! `send` is visible to later `recv` invocations (the paper's Figure 2
//! relies on exactly this to latch `ping_dst`).
//!
//! # Hot-path invariants
//!
//! Adjudication runs on *every* packet the endpoint sends or captures
//! (§3.4), so `check_send`/`check_recv` are the endpoint's per-packet tax
//! and are kept allocation-free and lookup-free:
//!
//! - Programs are lowered **once**, at [`Vm::with_config`], to the
//!   pre-decoded threaded representation in [`crate::lower`]
//!   (absolute branch targets, unpacked compare immediates,
//!   superinstructions over the canonical field-load/compare/return
//!   idioms); per-invocation execution never decodes wire instructions.
//! - Well-known entry points are resolved to threaded program counters
//!   **once**, at [`Vm::with_config`], into an [`EntryPoint`]-indexed
//!   table — no string-keyed map lookup per invocation.
//! - The scratch region is a buffer owned by the `Vm`, zeroed with
//!   `fill(0)` per invocation instead of reallocated (a debug assertion
//!   verifies its capacity never changes during execution).
//! - Packet/info loads use fixed-width `from_be_bytes`/`from_le_bytes`
//!   reads rather than byte-at-a-time accumulation.
//! - Fuel is tracked in a register-allocated local and the cumulative
//!   `insns_executed` counter is settled once per invocation, not once per
//!   instruction. Superinstructions charge the fuel of every source
//!   instruction they cover, so attribution is bit-identical to an
//!   interpreter over the source instructions (`plab-fuzz`'s `RefVm`).

use crate::lower::{self, Lowered};
use crate::program::{EntryPoint, Program};
use crate::validate::{validate, ValidateError, NUM_REGS};
use crate::Verdict;

/// Runtime faults. All faults deny the adjudicated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Out-of-bounds packet/info/memory access.
    OutOfBounds,
    /// Division or modulo by zero.
    DivByZero,
    /// Instruction budget exhausted.
    OutOfFuel,
    /// Entry point missing (only from [`Vm::run`]).
    NoSuchEntry,
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Trap::OutOfBounds => write!(f, "out-of-bounds access"),
            Trap::DivByZero => write!(f, "division by zero"),
            Trap::OutOfFuel => write!(f, "out of fuel"),
            Trap::NoSuchEntry => write!(f, "no such entry point"),
        }
    }
}

impl std::error::Error for Trap {}

/// Execution limits.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    /// Maximum instructions per invocation.
    pub fuel: u64,
}

impl Default for VmConfig {
    fn default() -> Self {
        // Generous for filters (a few thousand instructions is a very
        // complex monitor) yet bounds endpoint CPU per packet.
        VmConfig { fuel: 100_000 }
    }
}

/// An instantiated monitor/filter with its persistent state.
pub struct Vm {
    program: Program,
    /// Threaded code + original→threaded pc map, built once at
    /// instantiation.
    lowered: Lowered,
    config: VmConfig,
    persistent: Vec<u8>,
    /// Reusable scratch buffer: zeroed (not reallocated) per invocation.
    scratch: Vec<u8>,
    /// Entry-point *threaded* PCs resolved once at instantiation, indexed
    /// by [`EntryPoint`].
    entry_tpcs: [Option<u32>; EntryPoint::COUNT],
    /// Cumulative instructions executed (for the overhead benches).
    pub insns_executed: u64,
}

impl Vm {
    /// Validate and instantiate a program.
    pub fn new(program: Program) -> Result<Vm, ValidateError> {
        Self::with_config(program, VmConfig::default())
    }

    /// Validate and instantiate with explicit limits.
    pub fn with_config(program: Program, config: VmConfig) -> Result<Vm, ValidateError> {
        validate(&program)?;
        let lowered = lower::lower(&program);
        let persistent = vec![0u8; program.persistent_size as usize];
        let scratch = vec![0u8; program.scratch_size as usize];
        let mut entry_tpcs = [None; EntryPoint::COUNT];
        for ep in EntryPoint::ALL {
            entry_tpcs[ep as usize] = program
                .entry(ep.name())
                .map(|pc| lowered.pc_map[pc as usize]);
        }
        Ok(Vm {
            program,
            lowered,
            config,
            persistent,
            scratch,
            entry_tpcs,
            insns_executed: 0,
        })
    }

    /// Read-only view of persistent memory (exposed to tests/diagnostics).
    pub fn persistent(&self) -> &[u8] {
        &self.persistent
    }

    /// Run the `init` entry if present (called once at instantiation).
    pub fn init(&mut self, info: &[u8]) {
        let _ = self.check_entry(EntryPoint::Init, &[], info);
    }

    /// Adjudicate an outgoing packet: runs `send`.
    #[inline]
    pub fn check_send(&mut self, packet: &[u8], info: &[u8]) -> Verdict {
        self.check_entry(EntryPoint::Send, packet, info)
    }

    /// Adjudicate a captured packet: runs `recv`.
    #[inline]
    pub fn check_recv(&mut self, packet: &[u8], info: &[u8]) -> Verdict {
        self.check_entry(EntryPoint::Recv, packet, info)
    }

    /// Adjudicate a well-known entry, treating a *missing* entry as
    /// allow-all (the monitor convention: a certificate that constrains
    /// only `send` leaves `recv` unrestricted). This is the allocation-free
    /// fast path: no string lookup, no per-invocation buffers.
    #[inline]
    pub fn check_entry(&mut self, entry: EntryPoint, packet: &[u8], info: &[u8]) -> Verdict {
        match self.entry_tpcs[entry as usize] {
            None => Verdict::Allow(packet.len().max(1) as u64),
            Some(pc) => match self.exec(pc, packet, info) {
                Ok(0) => Verdict::Deny,
                Ok(v) => Verdict::Allow(v),
                Err(t) => Verdict::Fault(t),
            },
        }
    }

    /// Run a well-known entry, erroring if absent. Used for `ncap` filters
    /// where the controller must supply the entry it names.
    #[inline]
    pub fn run_entry(
        &mut self,
        entry: EntryPoint,
        packet: &[u8],
        info: &[u8],
    ) -> Result<u64, Trap> {
        let tpc = self.entry_tpcs[entry as usize].ok_or(Trap::NoSuchEntry)?;
        self.exec(tpc, packet, info)
    }

    /// Run a named entry, erroring if absent. Well-known names take the
    /// pre-resolved path; other names fall back to the program's entry map.
    pub fn run(&mut self, entry: &str, packet: &[u8], info: &[u8]) -> Result<u64, Trap> {
        if let Some(ep) = EntryPoint::from_name(entry) {
            return self.run_entry(ep, packet, info);
        }
        let pc = self.program.entry(entry).ok_or(Trap::NoSuchEntry)?;
        let tpc = self.lowered.pc_map[pc as usize];
        self.exec(tpc, packet, info)
    }

    fn exec(&mut self, entry_tpc: u32, packet: &[u8], info: &[u8]) -> Result<u64, Trap> {
        // Split borrows: code, persistent, and scratch are disjoint fields.
        let Vm {
            lowered,
            persistent,
            scratch,
            config,
            insns_executed,
            ..
        } = self;
        #[cfg(debug_assertions)]
        let scratch_cap = scratch.capacity();
        // Scratch is semantically fresh per invocation; zeroing the owned
        // buffer preserves that without a heap allocation. The empty-scratch
        // guard matters: `fill` on a zero-length Vec still calls memset on
        // the dangling sentinel pointer, and that unmapped address costs a
        // TLB walk (~100 ns) on every invocation.
        if !scratch.is_empty() {
            scratch.fill(0);
        }
        let mut regs = [0u64; NUM_REGS as usize];
        regs[1] = packet.len() as u64;
        let mut fuel = config.fuel;
        // An empty write log: a plain Vm executes none of the
        // record-variant log ops, and an empty Vec costs no allocation.
        let result = lower::run(
            &lowered.tcode,
            entry_tpc as usize,
            &mut regs,
            packet,
            info,
            persistent,
            scratch,
            &mut fuel,
            &mut Vec::new(),
        );
        // Batched accounting: one counter update per invocation instead of
        // one per instruction. `config.fuel - fuel` is exactly the number
        // of source instructions fetched (superinstructions charge the
        // fuel of everything they cover).
        *insns_executed += config.fuel - fuel;
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            scratch.capacity(),
            scratch_cap,
            "adjudication must not reallocate the scratch buffer"
        );
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Asm;
    use crate::insn::{Insn, Op};
    use std::collections::BTreeMap;

    fn one_entry(code: Vec<Insn>) -> Program {
        let mut entries = BTreeMap::new();
        entries.insert("send".to_string(), 0);
        Program {
            code,
            entries,
            persistent_size: 64,
            scratch_size: 64,
        }
    }

    fn run_send(p: Program, packet: &[u8], info: &[u8]) -> Result<u64, Trap> {
        let mut vm = Vm::new(p).expect("valid program");
        vm.run("send", packet, info)
    }

    #[test]
    fn return_constant() {
        let mut a = Asm::new();
        a.mov_i(0, 7);
        a.ret(0);
        assert_eq!(run_send(one_entry(a.finish()), &[], &[]), Ok(7));
    }

    #[test]
    fn r1_is_packet_length() {
        let mut a = Asm::new();
        a.mov_r(0, 1);
        a.ret(0);
        assert_eq!(run_send(one_entry(a.finish()), &[0; 33], &[]), Ok(33));
    }

    #[test]
    fn arithmetic_works() {
        let mut a = Asm::new();
        a.mov_i(2, 10);
        a.emit(Insn::new(Op::AddI, 2, 0, 5)); // 15
        a.emit(Insn::new(Op::MulI, 2, 0, 4)); // 60
        a.emit(Insn::new(Op::SubI, 2, 0, 8)); // 52
        a.emit(Insn::new(Op::DivI, 2, 0, 2)); // 26
        a.emit(Insn::new(Op::ModI, 2, 0, 10)); // 6
        a.mov_r(0, 2);
        a.ret(0);
        assert_eq!(run_send(one_entry(a.finish()), &[], &[]), Ok(6));
    }

    #[test]
    fn division_by_zero_traps() {
        let mut a = Asm::new();
        a.mov_i(0, 1);
        a.div_r(0, 3); // r3 is 0
        a.ret(0);
        assert_eq!(
            run_send(one_entry(a.finish()), &[], &[]),
            Err(Trap::DivByZero)
        );
    }

    #[test]
    fn packet_loads_are_big_endian() {
        let mut a = Asm::new();
        a.ld_pkt16(0, 0, 2);
        a.ret(0);
        let pkt = [0x00, 0x00, 0x12, 0x34];
        assert_eq!(run_send(one_entry(a.finish()), &pkt, &[]), Ok(0x1234));
    }

    #[test]
    fn packet_load_oob_traps() {
        let mut a = Asm::new();
        a.ld_pkt32(0, 0, 10);
        a.ret(0);
        assert_eq!(
            run_send(one_entry(a.finish()), &[0; 12], &[]),
            Err(Trap::OutOfBounds)
        );
    }

    #[test]
    fn packet_load_address_overflow_traps() {
        // reg[src] + imm wraps near u64::MAX: must trap, not panic.
        let mut a = Asm::new();
        a.mov_i(2, 0);
        a.not(2); // r2 = u64::MAX
        a.ld_pkt32(0, 2, 0);
        a.ret(0);
        assert_eq!(
            run_send(one_entry(a.finish()), &[0; 12], &[]),
            Err(Trap::OutOfBounds)
        );
    }

    #[test]
    fn info_loads_are_little_endian() {
        let mut a = Asm::new();
        a.ld_info32(0, 0, 0);
        a.ret(0);
        let info = [0x78, 0x56, 0x34, 0x12];
        assert_eq!(run_send(one_entry(a.finish()), &[], &info), Ok(0x12345678));
    }

    #[test]
    fn persistent_memory_survives_invocations() {
        // send: increments a counter in persistent memory and returns it.
        let mut a = Asm::new();
        a.ld_mem(2, 0, 0); // r2 = mem[0] (r0 is 0 initially)
        a.emit(Insn::new(Op::AddI, 2, 0, 1));
        a.mov_i(3, 0);
        a.st_mem(3, 2, 0); // mem[r3+0] = r2
        a.mov_r(0, 2);
        a.ret(0);
        let mut vm = Vm::new(one_entry(a.finish())).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
        assert_eq!(vm.run("send", &[], &[]), Ok(2));
        assert_eq!(vm.run("send", &[], &[]), Ok(3));
        // Persistent memory visible from outside.
        assert_eq!(vm.persistent()[0], 3);
    }

    #[test]
    fn scratch_memory_is_fresh_each_invocation() {
        let mut a = Asm::new();
        a.ld_scr(2, 0, 0);
        a.emit(Insn::new(Op::AddI, 2, 0, 1));
        a.mov_i(3, 0);
        a.st_scr(3, 2, 0);
        a.mov_r(0, 2);
        a.ret(0);
        let mut vm = Vm::new(one_entry(a.finish())).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
        assert_eq!(vm.run("send", &[], &[]), Ok(1), "scratch must reset");
    }

    #[test]
    fn loop_terminates_by_fuel() {
        let mut a = Asm::new();
        let top = a.label();
        a.ja_to(top);
        let p = one_entry(a.finish());
        let mut vm = Vm::with_config(p, VmConfig { fuel: 1000 }).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Err(Trap::OutOfFuel));
        assert!(vm.insns_executed >= 1000);
    }

    #[test]
    fn bounded_loop_completes() {
        // r2 counts 0..100, then return 100.
        let mut a = Asm::new();
        let top = a.label();
        a.emit(Insn::new(Op::AddI, 2, 0, 1));
        a.jne_i_to(2, 100, top);
        a.mov_r(0, 2);
        a.ret(0);
        assert_eq!(run_send(one_entry(a.finish()), &[], &[]), Ok(100));
    }

    #[test]
    fn insns_executed_counts_exactly() {
        // Straight-line program: 3 instructions per invocation.
        let mut a = Asm::new();
        a.mov_i(2, 1);
        a.mov_r(0, 2);
        a.ret(0);
        let mut vm = Vm::new(one_entry(a.finish())).unwrap();
        vm.run("send", &[], &[]).unwrap();
        assert_eq!(vm.insns_executed, 3);
        vm.run("send", &[], &[]).unwrap();
        assert_eq!(vm.insns_executed, 6);
    }

    #[test]
    fn conditional_jumps() {
        // if pkt[0] == 4 return 1 else return 0
        let mut a = Asm::new();
        a.ld_pkt8(2, 0, 0);
        let deny = a.new_label();
        a.jne_i_to(2, 4, deny);
        a.mov_i(0, 1);
        a.ret(0);
        a.bind(deny);
        a.mov_i(0, 0);
        a.ret(0);
        let p = one_entry(a.finish());
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[4], &[]), Ok(1));
        assert_eq!(vm.run("send", &[5], &[]), Ok(0));
    }

    #[test]
    fn signed_compare() {
        // if (i64)r2 < -1 return 1 else 0; r2 = -5 via neg.
        let mut a = Asm::new();
        a.mov_i(2, 5);
        a.neg(2);
        let yes = a.new_label();
        a.j_imm_to(Op::JsltI, 2, -1i32 as u32, yes);
        a.mov_i(0, 0);
        a.ret(0);
        a.bind(yes);
        a.mov_i(0, 1);
        a.ret(0);
        assert_eq!(run_send(one_entry(a.finish()), &[], &[]), Ok(1));
    }

    #[test]
    fn missing_entry_or_allow_semantics() {
        let mut a = Asm::new();
        a.mov_i(0, 0);
        a.ret(0);
        let p = one_entry(a.finish()); // only "send" defined
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.check_send(&[1, 2, 3], &[]), Verdict::Deny);
        // recv not defined: allow.
        assert!(vm.check_recv(&[1, 2, 3], &[]).allowed());
    }

    #[test]
    fn run_missing_entry_errors() {
        let mut vm = Vm::new(Program::empty()).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Err(Trap::NoSuchEntry));
        assert_eq!(vm.run("unheard-of", &[], &[]), Err(Trap::NoSuchEntry));
    }

    #[test]
    fn non_well_known_entries_still_run() {
        // Entries outside the pre-resolved table fall back to the map.
        let mut a = Asm::new();
        a.mov_i(0, 9);
        a.ret(0);
        let mut entries = BTreeMap::new();
        entries.insert("custom".to_string(), 0);
        let p = Program {
            code: a.finish(),
            entries,
            persistent_size: 0,
            scratch_size: 0,
        };
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("custom", &[], &[]), Ok(9));
    }

    #[test]
    fn fault_is_deny_verdict() {
        let mut a = Asm::new();
        a.ld_pkt32(0, 0, 100);
        a.ret(0);
        let mut vm = Vm::new(one_entry(a.finish())).unwrap();
        let v = vm.check_send(&[0; 4], &[]);
        assert_eq!(v, Verdict::Fault(Trap::OutOfBounds));
        assert!(!v.allowed());
    }

    #[test]
    fn store_to_persistent_oob_traps() {
        let mut a = Asm::new();
        a.mov_i(2, 1_000_000);
        a.st_mem(2, 3, 0);
        a.ret(0);
        assert_eq!(
            run_send(one_entry(a.finish()), &[], &[]),
            Err(Trap::OutOfBounds)
        );
    }

    #[test]
    fn shifts_and_bitops() {
        let mut a = Asm::new();
        a.mov_i(2, 0b1010);
        a.emit(Insn::new(Op::ShlI, 2, 0, 4)); // 0b1010_0000
        a.emit(Insn::new(Op::OrI, 2, 0, 0b1111)); // 0b1010_1111
        a.and_i(2, 0xff);
        a.emit(Insn::new(Op::XorI, 2, 0, 0b0000_1111)); // 0b1010_0000
        a.shr_i(2, 4); // 0b1010
        a.mov_r(0, 2);
        a.ret(0);
        assert_eq!(run_send(one_entry(a.finish()), &[], &[]), Ok(0b1010));
    }
}
