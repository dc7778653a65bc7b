//! PFVM disassembler: renders programs in the [`crate::asm`] text format.
//!
//! Useful for auditing monitors attached to certificates — an endpoint
//! operator reviewing a delegation can print exactly what the monitor does.
//! The listing reassembles: `assemble(disassemble(p))` is `p` for every
//! validated program with an entry, up to the fields the text does not
//! print. Jump targets get labels `L0`, `L1`, ... in order of first use,
//! skipping any an entry is named; each instruction prints in the form of
//! its operand shape in the [`crate::insn`] table.

use crate::insn::{Insn, Shape};
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
    // Labels are numbered in order of first use, skipping any number an
    // entry already goes by.
    let mut targets: BTreeMap<usize, String> = BTreeMap::new();
    let mut next = 0;
    for (pc, insn) in p.code.iter().enumerate() {
        if insn.op.is_jump() {
            let t = (pc as i64 + 1 + insn.branch()) as usize;
            targets.entry(t).or_insert_with(|| loop {
                let label = format!("L{next}");
                next += 1;
                if !p.entries.contains_key(&label) {
                    break label;
                }
            });
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
    let (m, shape) = insn.op.syntax();
    let (d, s, i) = (insn.dst, insn.src, insn.imm);
    let target = || {
        let t = (pc as i64 + 1 + insn.branch()) as usize;
        targets.get(&t).cloned().unwrap_or_else(|| format!("@{t}"))
    };
    match shape {
        Shape::Imm => format!("{m} r{d}, {i}"),
        Shape::Bits => format!("{m} r{d}, {:#x}", i as u64),
        Shape::Regs => format!("{m} r{d}, r{s}"),
        Shape::Reg => format!("{m} r{d}"),
        Shape::Mem => format!("{m} r{d}, r{s}, {i}"),
        Shape::Jump => format!("{m} {}", target()),
        Shape::JumpImm => format!("{m} r{d}, {}, {}", insn.cmp_value(), target()),
        Shape::JumpReg => format!("{m} r{d}, r{s}, {}", target()),
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
        use crate::insn::Op;
        let targets = BTreeMap::new();
        // Smoke-render every opcode to make sure none panics.
        for op in Op::ALL {
            let insn = if op.is_cmp_imm_jump() {
                Insn::pack_cmp(op, 1, 5, 0)
            } else {
                Insn::new(op, 1, 2, 0)
            };
            let s = render(&insn, 0, &targets);
            assert!(!s.is_empty());
        }
    }

    /// A random validated program: every opcode, extreme immediates, one
    /// to three entries named from a pool that includes the generated
    /// label names, and the fields its shape does not print left zero.
    fn random_program(next: &mut impl FnMut() -> u64) -> Program {
        use crate::insn::Op;
        const IMMS: [i64; 8] =
            [0, 1, -1, i64::MIN, i64::MAX, u32::MAX as i64, i32::MIN as i64, 255];
        const NAMES: [&str; 8] = ["send", "recv", "init", "L0", "L1", "L2", "entry", "_x9"];
        let n = 1 + (next() % 24) as usize;
        let mut code: Vec<Insn> = (0..n)
            .map(|pc| {
                let op = Op::ALL[next() as usize % Op::ALL.len()];
                let (d, s) = ((next() % 16) as u8, (next() % 16) as u8);
                let imm = match next() % 3 {
                    0 => IMMS[next() as usize % IMMS.len()],
                    _ => next() as i64 >> (next() % 64),
                };
                let offset = (next() % n as u64) as i64 - (pc as i64 + 1);
                match op.syntax().1 {
                    _ if matches!(op, Op::ShlI | Op::ShrI) => Insn::new(op, d, 0, imm & 63),
                    Shape::Imm | Shape::Bits => Insn::new(op, d, 0, imm),
                    Shape::Regs => Insn::new(op, d, s, 0),
                    Shape::Reg => Insn::new(op, d, 0, 0),
                    Shape::Mem => Insn::new(op, d, s, imm),
                    Shape::Jump => Insn::new(op, 0, 0, offset),
                    Shape::JumpImm => Insn::pack_cmp(op, d, imm as u32, offset as i32),
                    Shape::JumpReg => Insn::new(op, d, s, offset),
                }
            })
            .collect();
        code[n - 1] = Insn::new(Op::Ret, (next() % 16) as u8, 0, 0);
        let entries = (0..1 + next() % 3)
            .map(|_| (NAMES[next() as usize % NAMES.len()].to_string(), (next() % n as u64) as u32))
            .collect();
        let size = |v: u64| [0, 8, 64 * 1024][v as usize % 3];
        Program { code, entries, persistent_size: size(next()), scratch_size: size(next()) }
    }

    #[test]
    fn every_validated_program_reassembles_from_its_listing() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let p = random_program(&mut next);
            assert_eq!(crate::validate(&p), Ok(()), "{p:?}");
            let text = disassemble(&p);
            assert_eq!(assemble(&text), Ok(p), "{text}");
        }
    }
}
