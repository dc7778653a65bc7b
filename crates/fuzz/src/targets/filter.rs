//! Fuzz target: PFVM program decoding, static validation, and execution.
//!
//! The blob is a candidate `Program` encoding. Oracles:
//!
//! - `Program::decode` never panics and accepted programs survive an
//!   encode→decode round trip (idempotent — the reserved instruction byte
//!   makes raw-bytes canonicality too strong);
//! - `validate` never panics on any decodable program;
//! - the load-bearing safety property: *validator accepts ⇒ the VM
//!   terminates within its fuel bound and any fault is a typed `Trap`*,
//!   exercised by actually running every validated program;
//! - differential execution: the optimized `Vm` agrees with the naive
//!   reference interpreter on verdicts, traps, persistent memory, and
//!   instruction counts;
//! - the listing is an audit form: a validated program with an entry
//!   reassembles from its disassembly, and the result prints the same.

use crate::mutate::{mutate, random_bytes};
use crate::reference::RefVm;
use crate::{exec_one, Exec, Report};
use plab_filter::{asm, disasm, validate, Insn, Op, Program, Vm, VmConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

/// Fuel for differential runs.
const FUEL: u64 = 10_000;

/// Number of VM invocations `check` performs per program.
const CALLS: u64 = 4;

fn gen_insn(rng: &mut StdRng, pc: usize, len: usize) -> Insn {
    let op = Op::ALL[rng.gen_range(0u32..Op::ALL.len() as u32) as usize];
    let dst = rng.gen_range(0u32..16) as u8;
    let src = rng.gen_range(0u32..16) as u8;
    if op.is_jump() {
        // Mostly-valid: pick an in-bounds target so validate accepts.
        let target = rng.gen_range(0u32..len as u32) as i64;
        let offset = target - (pc as i64 + 1);
        if op.is_cmp_imm_jump() {
            return Insn::pack_cmp(op, dst, rng.gen::<u32>() & 0xff, offset as i32);
        }
        return Insn::new(op, dst, src, offset);
    }
    let imm = match op {
        Op::ShlI | Op::ShrI => rng.gen_range(0i64..64),
        // Small offsets keep a useful fraction of loads/stores in bounds
        // (out-of-bounds ones exercise the trap paths).
        _ => rng.gen_range(-16i64..64),
    };
    Insn::new(op, dst, src, imm)
}

pub(crate) fn gen_program(rng: &mut StdRng) -> Program {
    let n = rng.gen_range(2usize..=24);
    let mut code: Vec<Insn> = (0..n).map(|pc| gen_insn(rng, pc, n)).collect();
    // validate requires the stream to end in Ret or Ja.
    code[n - 1] = Insn::new(Op::Ret, rng.gen_range(0u32..16) as u8, 0, 0);
    let mut entries = BTreeMap::new();
    entries.insert("send".to_string(), rng.gen_range(0u32..n as u32));
    if rng.gen_bool(0.4) {
        entries.insert("recv".to_string(), rng.gen_range(0u32..n as u32));
    }
    if rng.gen_bool(0.25) {
        entries.insert("init".to_string(), rng.gen_range(0u32..n as u32));
    }
    Program {
        code,
        entries,
        persistent_size: rng.gen_range(0u32..=128),
        scratch_size: rng.gen_range(0u32..=128),
    }
}

/// Oracle function for one candidate program encoding.
pub fn check(bytes: &[u8]) -> Result<Exec, String> {
    let program = match Program::decode(bytes) {
        Ok(p) => p,
        Err(_) => return Ok(Exec::Rejected),
    };
    match Program::decode(&program.encode()) {
        Ok(p2) if p2 == program => {}
        other => {
            return Err(format!(
                "program encode/decode not a fixed point: {other:?}"
            ))
        }
    }
    if validate(&program).is_err() {
        return Ok(Exec::Rejected);
    }
    if !program.entries.is_empty() {
        let text = disasm::disassemble(&program);
        match asm::assemble(&text) {
            Ok(p2) if disasm::disassemble(&p2) == text => {}
            Ok(_) => return Err(format!("listing reassembles to another listing:\n{text}")),
            Err(e) => return Err(format!("listing does not reassemble ({e}):\n{text}")),
        }
    }
    let mut vm = Vm::with_config(program.clone(), VmConfig { fuel: FUEL })
        .map_err(|e| format!("validate accepted but Vm::with_config failed: {e:?}"))?;
    let mut reference = RefVm::new(program, FUEL);
    let info: Vec<u8> = (0u8..32)
        .map(|i| i.wrapping_mul(11).wrapping_add(1))
        .collect();
    let pkt_small: Vec<u8> = (0u8..16).map(|i| i.wrapping_mul(5)).collect();
    let pkt_big: Vec<u8> = (0u8..96)
        .map(|i| i.wrapping_mul(3).wrapping_add(7))
        .collect();
    for (i, pkt) in [&[][..], &pkt_small, &pkt_big].iter().enumerate() {
        let got = vm.check_send(pkt, &info);
        let want = reference.check_send(pkt, &info);
        if got != want {
            return Err(format!(
                "verdict diverged on packet {i}: vm={got:?} ref={want:?}"
            ));
        }
    }
    let got = vm.run("recv", &pkt_small, &info);
    let want = reference.run("recv", &pkt_small, &info);
    if got != want {
        return Err(format!("recv result diverged: vm={got:?} ref={want:?}"));
    }
    if vm.persistent() != reference.persistent.as_slice() {
        return Err("persistent memory diverged".into());
    }
    if vm.insns_executed != reference.insns_executed {
        return Err(format!(
            "instruction counts diverged: vm={} ref={}",
            vm.insns_executed, reference.insns_executed
        ));
    }
    // Termination within fuel: the calls returned (no hang is possible past
    // this point) and accounting proves the bound held per invocation.
    if vm.insns_executed > FUEL * CALLS {
        return Err(format!(
            "fuel bound exceeded: {} insns over {CALLS} calls",
            vm.insns_executed
        ));
    }
    Ok(Exec::Accepted)
}

/// Mutational fuzz loop.
pub fn run(seed: u64, iters: u64) -> Report {
    let mut report = Report::new("filter", seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let mut blob = if rng.gen_bool(0.9) {
            gen_program(&mut rng).encode()
        } else {
            // Pure noise occasionally, to hit the header paths.
            random_bytes(&mut rng, 96)
        };
        if rng.gen_bool(0.75) {
            mutate(&mut rng, &mut blob);
        }
        exec_one(&mut report, &blob, || check(&blob));
    }
    report
}
