//! Fuzz target: the Cpf compiler pipeline (`lex → parse → sema → codegen`).
//!
//! Inputs are source texts: structurally valid monitors generated from
//! templates with randomized constants, then byte-mutated. Oracles:
//!
//! - the compiler never panics, whatever the bytes (errors are typed
//!   `CompileError`s with positions);
//! - every program the compiler emits passes `plab_filter::validate`
//!   (enforced inside `compile`, which would panic otherwise);
//! - differential execution: the optimized `Vm` and the naive reference
//!   interpreter agree on verdicts, persistent memory, and instruction
//!   counts for every compiled monitor over a fixed packet set.

use crate::mutate::mutate;
use crate::reference::RefVm;
use crate::{exec_one, Exec, Report};
use plab_cpf::compile;
use plab_filter::{Vm, VmConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Fuel for differential runs: small enough to keep fuzz iterations cheap,
/// large enough that straight-line monitors never spuriously trap.
const FUEL: u64 = 10_000;

fn gen_source(rng: &mut StdRng) -> String {
    let a = rng.gen_range(0u32..2048);
    let b = rng.gen::<u32>();
    let c = rng.gen_range(1u32..64);
    let d = rng.gen_range(0u32..256);
    match rng.gen_range(0u32..5) {
        0 => format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{\n\
             \x20   if (len < {a}) return 0;\n\
             \x20   return len & {b};\n\
             }}\n"
        ),
        1 => format!(
            "uint64_t seen = 0;\n\
             uint64_t budget = {a};\n\
             uint32_t send(const union packet *pkt, uint32_t len) {{\n\
             \x20   seen += 1;\n\
             \x20   if (seen > budget) return 0;\n\
             \x20   return len + {c};\n\
             }}\n"
        ),
        2 => format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{\n\
             \x20   uint32_t acc = {d};\n\
             \x20   uint32_t i = 0;\n\
             \x20   while (i < {c}) {{\n\
             \x20       acc = acc * 33 + i;\n\
             \x20       i += 1;\n\
             \x20   }}\n\
             \x20   return acc | 1;\n\
             }}\n"
        ),
        3 => format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{\n\
             \x20   if (pkt->ip.ver == 4 && pkt->ip.proto == IPPROTO_ICMP)\n\
             \x20       return len;\n\
             \x20   return {b} % {c};\n\
             }}\n"
        ),
        _ => format!(
            "uint64_t total = 0;\n\
             uint32_t recv(const union packet *pkt, uint32_t len) {{\n\
             \x20   total += len;\n\
             \x20   if (total > {b}) {{ total = {d}; return 0; }}\n\
             \x20   return 1;\n\
             }}\n\
             uint32_t send(const union packet *pkt, uint32_t len) {{\n\
             \x20   return len ^ {a};\n\
             }}\n"
        ),
    }
}

/// Fixed packets the differential oracle adjudicates.
fn packets() -> [Vec<u8>; 3] {
    [
        Vec::new(),
        (0u8..28)
            .map(|i| i.wrapping_mul(7).wrapping_add(3))
            .collect(),
        {
            // An IPv4-looking header so `pkt->ip.*` templates take both
            // branches: version/IHL nibble then protocol 1 (ICMP).
            let mut p = vec![0x45, 0, 0, 64, 0, 0, 0, 0, 64, 1];
            p.extend((0u8..54).map(|i| i.wrapping_mul(13)));
            p
        },
    ]
}

/// Oracle function for one source text.
pub fn check(bytes: &[u8]) -> Result<Exec, String> {
    let src = match core::str::from_utf8(bytes) {
        Ok(s) => s,
        Err(_) => return Ok(Exec::Rejected),
    };
    // `compile` panics if codegen ever emits a program that fails
    // validation, so a non-panicking Ok already certifies the
    // "compiler output always validates" oracle.
    let program = match compile(src) {
        Ok(p) => p,
        Err(_) => return Ok(Exec::Rejected),
    };
    let mut vm = Vm::with_config(program.clone(), VmConfig { fuel: FUEL })
        .map_err(|e| format!("compiled program failed validation: {e:?}"))?;
    let mut reference = RefVm::new(program, FUEL);
    let info = [0u8; 32];
    for (i, pkt) in packets().iter().enumerate() {
        let got = vm.check_send(pkt, &info);
        let want = reference.check_send(pkt, &info);
        if got != want {
            return Err(format!(
                "send verdict diverged on packet {i}: vm={got:?} ref={want:?}"
            ));
        }
        let got = vm.run("recv", pkt, &info);
        let want = reference.run("recv", pkt, &info);
        if got != want {
            return Err(format!(
                "recv result diverged on packet {i}: vm={got:?} ref={want:?}"
            ));
        }
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
    Ok(Exec::Accepted)
}

/// Mutational fuzz loop.
pub fn run(seed: u64, iters: u64) -> Report {
    let mut report = Report::new("cpf", seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let mut src = gen_source(&mut rng).into_bytes();
        if rng.gen_bool(0.75) {
            mutate(&mut rng, &mut src);
        }
        exec_one(&mut report, &src, || check(&src));
    }
    report
}
