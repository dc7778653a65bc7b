//! Property tests on the PFVM filter machine and Cpf compiler: validated
//! programs never fault unsafely, fuel always bounds execution, and the
//! decoder/validator reject garbage gracefully.

use plab_filter::{validate, FusedVm, Insn, Op, Program, Vm, VmConfig};
use plab_fuzz::reference::RefVm;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_op() -> impl Strategy<Value = Op> {
    (0..Op::ALL.len()).prop_map(|i| Op::ALL[i])
}

fn arb_insn() -> impl Strategy<Value = Insn> {
    (arb_op(), 0u8..16, 0u8..16, any::<i64>()).prop_map(|(op, dst, src, imm)| Insn {
        op,
        dst,
        src,
        imm,
    })
}

/// `code` entered at pc 0 as `send`, with 8-byte-granular memory sizes.
fn send_program(code: Vec<Insn>, persistent: u32, scratch: u32) -> Program {
    let mut entries = BTreeMap::new();
    entries.insert("send".to_string(), 0);
    Program { code, entries, persistent_size: persistent & !7, scratch_size: scratch & !7 }
}

fn arb_program() -> impl Strategy<Value = Program> {
    (prop::collection::vec(arb_insn(), 1..40), 0u32..256, 0u32..256).prop_map(
        |(mut code, persistent, scratch)| {
            // Force a terminating final instruction so programs have a
            // chance of validating.
            code.push(Insn::new(Op::Ret, 0, 0, 0));
            send_program(code, persistent, scratch)
        },
    )
}

/// A program assembled from the idioms `lower` fuses into superinstructions
/// (`mov.i; ld`, `mov.i; ld; jeq.i/jne.i`, `mov.i; st`, `mov; ret`) between
/// plain instructions, valid by construction: a uniformly random stream
/// almost never contains one, and partial fuel inside one is what the
/// differential below is for.
fn arb_idiom_program() -> impl Strategy<Value = Program> {
    const LOADS: [Op; 9] = [
        Op::LdPkt8, Op::LdPkt16, Op::LdPkt32, Op::LdInfo8, Op::LdInfo16, Op::LdInfo32,
        Op::LdInfo64, Op::LdMem, Op::LdScr,
    ];
    let chunk = (0u8..10, 0u8..16, 0u8..16, -4i64..8, 0i64..100, 0u32..4).prop_map(
        |(shape, r, s, k, off, cmp)| {
            let mov = Insn::new(Op::MovI, r, 0, k);
            let ld = Insn::new(LOADS[s as usize % LOADS.len()], r, r, off);
            match shape {
                0 | 1 => vec![mov, ld],
                2..=4 => {
                    let op = if shape == 2 { Op::JeqI } else { Op::JneI };
                    // Lands on the next chunk's first or second instruction;
                    // the two-instruction epilogue keeps both in bounds.
                    vec![mov, ld, Insn::pack_cmp(op, r, cmp >> 1, (cmp & 1) as i32)]
                }
                5 => vec![mov, Insn::new(Op::StMem, r, s, off)],
                6 => vec![mov, Insn::new(Op::StScr, r, s, off)],
                7 => vec![mov, Insn::new(Op::Ret, r, 0, 0)],
                8 => vec![Insn::new(Op::MovR, r, s, 0), Insn::new(Op::Ret, r, 0, 0)],
                _ => vec![Insn::new(Op::AddI, r, 0, k)],
            }
        },
    );
    (prop::collection::vec(chunk, 1..8), 0u32..256, 0u32..256).prop_map(
        |(chunks, persistent, scratch)| {
            let mut code = chunks.concat();
            // Allow with the packet length, so a chain's next monitor runs.
            code.extend([Insn::new(Op::MovR, 0, 1, 0), Insn::new(Op::Ret, 0, 0, 0)]);
            send_program(code, persistent, scratch)
        },
    )
}

proptest! {
    /// The core soundness property: any program that passes validation
    /// runs to completion (Ok or a *defined* trap) within the fuel bound —
    /// never panicking, never reading out of process memory (enforced by
    /// construction: the interpreter is safe Rust with checked access).
    #[test]
    fn validated_programs_execute_safely(
        program in arb_program(),
        packet in prop::collection::vec(any::<u8>(), 0..128),
        info in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        if validate(&program).is_ok() {
            let mut vm = Vm::with_config(program, VmConfig { fuel: 10_000 }).unwrap();
            let _ = vm.run("send", &packet, &info);
            // Bounded: at most fuel instructions were executed.
            prop_assert!(vm.insns_executed <= 10_000);
        }
    }

    /// Encode/decode round-trips every structurally valid program.
    #[test]
    fn program_codec_roundtrip(program in arb_program()) {
        let enc = program.encode();
        prop_assert_eq!(Program::decode(&enc), Ok(program));
    }

    /// The decoder never panics on garbage.
    #[test]
    fn program_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Program::decode(&bytes);
    }

    /// Instruction wire format round-trips.
    #[test]
    fn insn_codec_roundtrip(insn in arb_insn()) {
        prop_assert_eq!(Insn::decode(&insn.encode()), Some(insn));
    }

    /// Truncating an encoded program always fails to decode (no silent
    /// partial parses).
    #[test]
    fn truncated_programs_rejected(program in arb_program(), cut_frac in 0.0f64..1.0) {
        let enc = program.encode();
        let cut = ((enc.len() as f64) * cut_frac) as usize;
        if cut < enc.len() {
            prop_assert!(Program::decode(&enc[..cut]).is_err());
        }
    }
}

proptest! {
    /// Differential check of both drivers of the threaded interpreter — a
    /// `Vm`, and a two-section `FusedVm` whose second section takes the
    /// outcome its identical first section records — against the naive
    /// reference: across random validated programs, packets, info blocks,
    /// and fuel budgets (including tiny ones that exhaust mid-program and
    /// mid-superinstruction), every invocation must produce the same
    /// verdict, leave identical persistent memory, and report identical
    /// instruction counts. Run as a sequence so persistent state carried
    /// between invocations is compared too.
    #[test]
    fn optimized_vm_matches_reference(
        program in prop_oneof![arb_program(), arb_idiom_program()],
        packets in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 1..5),
        info in prop::collection::vec(any::<u8>(), 0..64),
        fuel in prop_oneof![Just(0u64), 1u64..40, Just(10_000u64)],
    ) {
        if validate(&program).is_ok() {
            let mut opt = Vm::with_config(program.clone(), VmConfig { fuel }).unwrap();
            let mut fused =
                FusedVm::new(vec![program.clone(), program.clone()], vec![fuel; 2]).unwrap();
            let mut refs = [RefVm::new(program.clone(), fuel), RefVm::new(program, fuel)];
            for packet in &packets {
                let got = opt.check_send(packet, &info);
                let want = refs[0].check_send(packet, &info);
                prop_assert_eq!(got, want, "verdicts diverge");
                prop_assert_eq!(
                    opt.persistent(),
                    refs[0].persistent.as_slice(),
                    "persistent memory diverges"
                );
                prop_assert_eq!(
                    opt.insns_executed,
                    refs[0].insns_executed,
                    "instruction accounting diverges"
                );
                // A chain stops at the first monitor that does not allow.
                let want_chain =
                    if want.allowed() { refs[1].check_send(packet, &info) } else { want };
                prop_assert_eq!(fused.check_send(packet, &info), want_chain, "fused verdict");
                for (i, r) in refs.iter().enumerate() {
                    prop_assert_eq!(
                        fused.persistent_segment(i),
                        r.persistent.as_slice(),
                        "section {} persistent memory diverges", i
                    );
                    prop_assert_eq!(
                        fused.attributed()[i],
                        r.insns_executed,
                        "section {} instruction accounting diverges", i
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cpf programs computing pure integer arithmetic agree with a Rust
    /// evaluation of the same expression.
    #[test]
    fn cpf_arithmetic_matches_rust(a in 0u32..1000, b in 1u32..1000, c in 0u32..1000) {
        let src = format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{ \
               return ({a} + {b}) * {c} % 65537 + ({a} / {b}) - ({c} & {a}) + ({b} | {c}); \
             }}"
        );
        let expected = ((a as u64 + b as u64) * c as u64 % 65537)
            .wrapping_add((a / b) as u64)
            .wrapping_sub((c & a) as u64)
            .wrapping_add((b | c) as u64);
        let program = plab_cpf::compile(&src).unwrap();
        let mut vm = Vm::new(program).unwrap();
        prop_assert_eq!(vm.run("send", &[], &[]), Ok(expected));
    }

    /// Comparison chains in Cpf produce strict 0/1 and match Rust.
    #[test]
    fn cpf_comparisons_match_rust(x in any::<u32>(), y in any::<u32>()) {
        let src = format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{ \
               return ({x} < {y}) * 32 + ({x} <= {y}) * 16 + ({x} > {y}) * 8 \
                    + ({x} >= {y}) * 4 + ({x} == {y}) * 2 + ({x} != {y}); \
             }}"
        );
        let expected = u64::from(x < y) * 32
            + u64::from(x <= y) * 16
            + u64::from(x > y) * 8
            + u64::from(x >= y) * 4
            + u64::from(x == y) * 2
            + u64::from(x != y);
        let program = plab_cpf::compile(&src).unwrap();
        let mut vm = Vm::new(program).unwrap();
        prop_assert_eq!(vm.run("send", &[], &[]), Ok(expected));
    }

    /// The compiler never panics on arbitrary input strings.
    #[test]
    fn cpf_compiler_never_panics(src in ".{0,200}") {
        let _ = plab_cpf::compile(&src);
    }

    /// Globals survive across invocations with arbitrary update sequences.
    #[test]
    fn cpf_global_accumulates(values in prop::collection::vec(0u32..10_000, 1..10)) {
        let program = plab_cpf::compile(
            "uint64_t total = 0;
             uint32_t send(const union packet *pkt, uint32_t len) {
                 total = total + len;
                 return total;
             }",
        )
        .unwrap();
        let mut vm = Vm::new(program).unwrap();
        vm.init(&[]);
        let mut sum = 0u64;
        for v in values {
            let pkt = vec![0u8; v as usize % 2048];
            sum += (pkt.len()) as u64;
            prop_assert_eq!(vm.run("send", &pkt, &[]), Ok(sum));
        }
    }
}
