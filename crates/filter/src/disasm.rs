//! PFVM disassembler: renders programs in the [`crate::asm`] text format.
//!
//! Useful for auditing monitors attached to certificates — an endpoint
//! operator reviewing a delegation can print exactly what the monitor does.

use crate::insn::{Insn, Op};
use crate::program::Program;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Render a whole program as assembly text.
pub fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ".persistent {}", p.persistent_size);
    let _ = writeln!(out, ".scratch {}", p.scratch_size);

    // Invert entries and collect jump targets for labels.
    let mut entry_at: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
    for (name, &pc) in &p.entries {
        entry_at.entry(pc).or_default().push(name);
    }
    let mut targets: BTreeMap<usize, String> = BTreeMap::new();
    for (pc, insn) in p.code.iter().enumerate() {
        if insn.op.is_jump() {
            let t = (pc as i64 + 1 + insn.branch()) as usize;
            let n = targets.len();
            targets.entry(t).or_insert_with(|| format!("L{n}"));
        }
    }

    for (pc, insn) in p.code.iter().enumerate() {
        if let Some(names) = entry_at.get(&(pc as u32)) {
            for name in names {
                let _ = writeln!(out, "entry {name}:");
            }
        }
        if let Some(label) = targets.get(&pc) {
            let _ = writeln!(out, "{label}:");
        }
        let _ = writeln!(out, "    {}", render(insn, pc, &targets));
    }
    out
}

/// Render a single instruction.
pub fn render(insn: &Insn, pc: usize, targets: &BTreeMap<usize, String>) -> String {
    let d = insn.dst;
    let s = insn.src;
    let i = insn.imm;
    let target = || -> String {
        let t = (pc as i64 + 1 + insn.branch()) as usize;
        targets
            .get(&t)
            .cloned()
            .unwrap_or_else(|| format!("@{t}"))
    };
    match insn.op {
        Op::MovI => format!("mov.i r{d}, {i}"),
        Op::MovR => format!("mov.r r{d}, r{s}"),
        Op::AddI => format!("add.i r{d}, {i}"),
        Op::AddR => format!("add.r r{d}, r{s}"),
        Op::SubI => format!("sub.i r{d}, {i}"),
        Op::SubR => format!("sub.r r{d}, r{s}"),
        Op::MulI => format!("mul.i r{d}, {i}"),
        Op::MulR => format!("mul.r r{d}, r{s}"),
        Op::DivI => format!("div.i r{d}, {i}"),
        Op::DivR => format!("div.r r{d}, r{s}"),
        Op::ModI => format!("mod.i r{d}, {i}"),
        Op::ModR => format!("mod.r r{d}, r{s}"),
        Op::AndI => format!("and.i r{d}, {:#x}", i as u64),
        Op::AndR => format!("and.r r{d}, r{s}"),
        Op::OrI => format!("or.i r{d}, {:#x}", i as u64),
        Op::OrR => format!("or.r r{d}, r{s}"),
        Op::XorI => format!("xor.i r{d}, {:#x}", i as u64),
        Op::XorR => format!("xor.r r{d}, r{s}"),
        Op::ShlI => format!("shl.i r{d}, {i}"),
        Op::ShlR => format!("shl.r r{d}, r{s}"),
        Op::ShrI => format!("shr.i r{d}, {i}"),
        Op::ShrR => format!("shr.r r{d}, r{s}"),
        Op::Neg => format!("neg r{d}"),
        Op::Not => format!("not r{d}"),
        Op::LdPkt8 => format!("ld.pkt8 r{d}, r{s}, {i}"),
        Op::LdPkt16 => format!("ld.pkt16 r{d}, r{s}, {i}"),
        Op::LdPkt32 => format!("ld.pkt32 r{d}, r{s}, {i}"),
        Op::LdInfo8 => format!("ld.info8 r{d}, r{s}, {i}"),
        Op::LdInfo16 => format!("ld.info16 r{d}, r{s}, {i}"),
        Op::LdInfo32 => format!("ld.info32 r{d}, r{s}, {i}"),
        Op::LdInfo64 => format!("ld.info64 r{d}, r{s}, {i}"),
        Op::LdMem => format!("ld.mem r{d}, r{s}, {i}"),
        Op::StMem => format!("st.mem r{d}, r{s}, {i}"),
        Op::LdScr => format!("ld.scr r{d}, r{s}, {i}"),
        Op::StScr => format!("st.scr r{d}, r{s}, {i}"),
        Op::Ja => format!("ja {}", target()),
        Op::JeqR => format!("jeq.r r{d}, r{s}, {}", target()),
        Op::JeqI => format!("jeq.i r{d}, {}, {}", insn.cmp_imm(), target()),
        Op::JneR => format!("jne.r r{d}, r{s}, {}", target()),
        Op::JneI => format!("jne.i r{d}, {}, {}", insn.cmp_imm(), target()),
        Op::JltR => format!("jlt.r r{d}, r{s}, {}", target()),
        Op::JltI => format!("jlt.i r{d}, {}, {}", insn.cmp_imm(), target()),
        Op::JleR => format!("jle.r r{d}, r{s}, {}", target()),
        Op::JleI => format!("jle.i r{d}, {}, {}", insn.cmp_imm(), target()),
        Op::JsltR => format!("jslt.r r{d}, r{s}, {}", target()),
        Op::JsltI => format!("jslt.i r{d}, {}, {}", insn.cmp_imm() as i32, target()),
        Op::Ret => format!("ret r{d}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    #[test]
    fn disassemble_then_reassemble_runs_identically() {
        let src = r#"
.persistent 16
entry send:
loop:
    add.i r2, 1
    jne.i r2, 7, loop
    mov.r r0, r2
    ret r0
entry recv:
    mov.i r0, 0
    ret r0
"#;
        let p1 = assemble(src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap_or_else(|e| panic!("reassemble failed: {e}\n{text}"));
        // Programs must be semantically identical: same entries, same code.
        assert_eq!(p1.code, p2.code);
        assert_eq!(p1.entries, p2.entries);
        assert_eq!(p1.persistent_size, p2.persistent_size);
    }

    #[test]
    fn renders_entries_and_labels() {
        let src = "entry send:\n  mov.i r0, 1\n  ret r0\n";
        let p = assemble(src).unwrap();
        let text = disassemble(&p);
        assert!(text.contains("entry send:"));
        assert!(text.contains("mov.i r0, 1"));
        assert!(text.contains("ret r0"));
    }

    #[test]
    fn renders_all_opcode_classes() {
        use crate::insn::{Insn, Op};
        let targets = BTreeMap::new();
        // Smoke-render every opcode to make sure none panics.
        for v in 0..=46u8 {
            let op = Op::from_u8(v).unwrap();
            let insn = if op.is_cmp_imm_jump() {
                Insn::pack_cmp(op, 1, 5, 0)
            } else {
                Insn::new(op, 1, 2, 0)
            };
            let s = render(&insn, 0, &targets);
            assert!(!s.is_empty());
        }
    }
}
