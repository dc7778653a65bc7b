//! A small text assembly language for PFVM.
//!
//! Endpoint operators who want to hand-tune a monitor (rather than write
//! Cpf) can use this format. It is also the disassembler's output format:
//! every validated program with an entry reassembles from its listing to
//! itself (up to the fields the text does not print), which is what lets
//! an operator audit a monitor embedded in a certificate by reading it.
//!
//! ```text
//! ; traceroute monitor, hand-assembled
//! .persistent 16
//! .scratch 0
//!
//! entry send:
//!     ld.f   r2, ip.ver          ; field loads resolve via plab-packet
//!     jne.i  r2, 4, deny
//!     ld.f   r3, ip.icmp.type
//!     jne.i  r3, 8, deny
//!     mov.r  r0, r1              ; allow: return packet length
//!     ret    r0
//! deny:
//!     mov.i  r0, 0
//!     ret    r0
//! ```
//!
//! Syntax: one instruction per line; `;` starts a comment; labels end with
//! `:`; `entry NAME:` declares an entry point; `.persistent N` / `.scratch
//! N` declare memory sizes. Entry and label names are
//! `[A-Za-z_][A-Za-z0-9_]*`, the rule [`Program::decode`] enforces too.
//! Registers are `r0`..`r15`. Immediates are decimal or `0x` hex, either
//! after an optional `-`; hex reads every `u64` bit pattern. Mnemonics and
//! operand forms come from the instruction table in [`crate::insn`]. The
//! pseudo-instruction `ld.f rD, path` expands to a load (+ shift/mask)
//! using the field table in [`plab_packet::layout`].

use crate::builder::{Asm, Label};
use crate::insn::{Insn, Op, Shape};
use crate::program::{is_name, Program};
use plab_packet::layout;
use std::collections::{HashMap, HashSet};

/// Assembly errors with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable message.
    pub msg: String,
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, msg: impl Into<String>) -> AsmError {
    AsmError { line, msg: msg.into() }
}

/// Assemble source text into a [`Program`].
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    let mut asm = Asm::new();
    let mut labels: HashMap<String, Label> = HashMap::new();
    let mut entries: Vec<(&str, Label)> = Vec::new();
    // Names bound so far, and names referenced by jumps (with the first
    // referencing line). `Asm::bind` / `finish_program` treat a double bind
    // or an unbound reference as a programming-error panic, so source text —
    // which is untrusted — must be screened here first.
    let mut bound: HashSet<String> = HashSet::new();
    let mut referenced: HashMap<String, usize> = HashMap::new();
    let mut persistent = 0u32;
    let mut scratch = 0u32;

    let mut get_label = |asm: &mut Asm, name: &str| -> Label {
        *labels
            .entry(name.to_string())
            .or_insert_with(|| asm.new_label())
    };

    for (lineno, raw) in source.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split(';').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }

        // Directives.
        if let Some(rest) = text.strip_prefix(".persistent") {
            persistent = rest
                .trim()
                .parse()
                .map_err(|_| err(line, "bad .persistent size"))?;
            continue;
        }
        if let Some(rest) = text.strip_prefix(".scratch") {
            scratch = rest
                .trim()
                .parse()
                .map_err(|_| err(line, "bad .scratch size"))?;
            continue;
        }

        // Entry declarations `entry NAME:` and plain labels `NAME:`.
        let declared = match text.strip_prefix("entry ") {
            Some(rest) => Some((
                true,
                rest.trim()
                    .strip_suffix(':')
                    .ok_or_else(|| err(line, "entry must end with ':'"))?,
            )),
            None => text.strip_suffix(':').map(|name| (false, name)),
        };
        if let Some((entry, name)) = declared {
            let name = name.trim();
            if !is_name(name) {
                return Err(err(line, format!("bad name `{name}`")));
            }
            if !bound.insert(name.to_string()) {
                return Err(err(line, format!("label `{name}` bound twice")));
            }
            let l = get_label(&mut asm, name);
            asm.bind(l);
            if entry {
                entries.push((name, l));
            }
            continue;
        }

        // Instructions.
        let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
            Some((m, r)) => (m, r.trim()),
            None => (text, ""),
        };
        let ops: Vec<&str> = if rest.is_empty() {
            vec![]
        } else {
            rest.split(',').map(|s| s.trim()).collect()
        };

        let reg = |s: &str| -> Result<u8, AsmError> {
            s.strip_prefix('r')
                .and_then(|n| n.parse::<u8>().ok())
                .filter(|&n| n < 16)
                .ok_or_else(|| err(line, format!("bad register `{s}`")))
        };
        let imm = |s: &str| -> Result<i64, AsmError> {
            parse_imm(s).ok_or_else(|| err(line, format!("bad immediate `{s}`")))
        };
        let need = |n: usize| -> Result<(), AsmError> {
            let got = ops.len();
            (got == n)
                .then_some(())
                .ok_or_else(|| err(line, format!("expected {n} operands, got {got}")))
        };
        let mut target = |asm: &mut Asm, name: &str| -> Label {
            referenced.entry(name.to_string()).or_insert(line);
            get_label(asm, name)
        };

        // The one pseudo-instruction: ld.f rD, path
        if mnemonic == "ld.f" {
            need(2)?;
            let d = reg(ops[0])?;
            let spec = layout::resolve(ops[1])
                .ok_or_else(|| err(line, format!("unknown field `{}`", ops[1])))?;
            emit_field_load(&mut asm, d, &spec);
            continue;
        }
        let Some(op) = Op::ALL.into_iter().find(|op| op.syntax().0 == mnemonic) else {
            return Err(err(line, format!("unknown mnemonic `{mnemonic}`")));
        };
        match op.syntax().1 {
            Shape::Imm | Shape::Bits => {
                need(2)?;
                asm.emit(Insn::new(op, reg(ops[0])?, 0, imm(ops[1])?));
            }
            Shape::Regs => {
                need(2)?;
                asm.emit(Insn::new(op, reg(ops[0])?, reg(ops[1])?, 0));
            }
            Shape::Reg => {
                need(1)?;
                asm.emit(Insn::new(op, reg(ops[0])?, 0, 0));
            }
            Shape::Mem => {
                need(3)?;
                asm.emit(Insn::new(op, reg(ops[0])?, reg(ops[1])?, imm(ops[2])?));
            }
            Shape::Jump => {
                need(1)?;
                let l = target(&mut asm, ops[0]);
                asm.ja_to(l);
            }
            Shape::JumpImm => {
                need(3)?;
                let (d, v) = (reg(ops[0])?, imm(ops[1])?);
                let l = target(&mut asm, ops[2]);
                asm.j_imm_to(op, d, v as u32, l);
            }
            Shape::JumpReg => {
                need(3)?;
                let (d, s) = (reg(ops[0])?, reg(ops[1])?);
                let l = target(&mut asm, ops[2]);
                asm.j_reg_to(op, d, s, l);
            }
        }
    }

    if entries.is_empty() {
        return Err(err(0, "no entry points declared"));
    }
    // The first line that jumps to a name never bound.
    if let Some((name, &line)) = referenced
        .iter()
        .filter(|(name, _)| !bound.contains(*name))
        .min_by_key(|(_, &line)| line)
    {
        return Err(err(line, format!("jump to undefined label `{name}`")));
    }
    Ok(asm.finish_program(&entries, persistent, scratch))
}

/// Expand a symbolic field load into PFVM instructions.
///
/// The load addresses are absolute (base register = `dst`, zeroed first, so
/// no other register is clobbered and no assumption is made about r0).
pub fn emit_field_load(asm: &mut Asm, dst: u8, spec: &layout::FieldSpec) {
    asm.mov_i(dst, 0);
    match spec.width {
        1 => asm.ld_pkt8(dst, dst, spec.offset as i64),
        2 => asm.ld_pkt16(dst, dst, spec.offset as i64),
        4 => asm.ld_pkt32(dst, dst, spec.offset as i64),
        w => unreachable!("field width {w} not supported"),
    }
    if spec.shift != 0 {
        asm.shr_i(dst, spec.shift as i64);
    }
    // After an N-byte load shifted right by `shift`, only the low
    // `8*N - shift` bits can be set; a mask covering all of them is a
    // no-op and gets elided.
    let live_bits = 8 * spec.width as u32 - spec.shift;
    let live = if live_bits >= 64 { u64::MAX } else { (1u64 << live_bits) - 1 };
    if spec.mask & live != live {
        asm.and_i(dst, spec.mask as i64);
    }
}

/// An immediate: decimal, or `0x` hex, either after an optional `-`. Hex
/// reads every `u64` bit pattern (`and.i` prints its masks that way), and
/// `-9223372036854775808` is `i64::MIN`.
fn parse_imm(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = match body.strip_prefix("0x") {
        // A signed hex body, or any u64 bit pattern.
        Some(hex) => i64::from_str_radix(hex, 16)
            .or_else(|_| u64::from_str_radix(hex, 16).map(|v| v as i64))
            .ok()?,
        // The magnitude of i64::MIN, one past i64::MAX.
        None if neg && body.parse::<u64>() == Ok(1 << 63) => i64::MIN,
        None => body.parse().ok()?,
    };
    Some(if neg { v.wrapping_neg() } else { v })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::Vm;
    use plab_packet::builder;
    use std::net::Ipv4Addr;

    #[test]
    fn assemble_minimal() {
        let p = assemble(
            "entry send:\n  mov.i r0, 1\n  ret r0\n",
        )
        .unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
    }

    #[test]
    fn assemble_with_labels_and_comments() {
        let src = r#"
; count to three
.persistent 8
entry send:
loop:
    add.i r2, 1            ; increment
    jne.i r2, 3, loop
    mov.r r0, r2
    ret r0
"#;
        let p = assemble(src).unwrap();
        assert_eq!(p.persistent_size, 8);
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(3));
    }

    #[test]
    fn field_load_pseudo_instruction() {
        let src = r#"
entry recv:
    ld.f r2, ip.proto
    jne.i r2, 1, deny
    mov.r r0, r1
    ret r0
deny:
    mov.i r0, 0
    ret r0
"#;
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(p).unwrap();
        let icmp_pkt = builder::icmp_echo_request(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            64,
            1,
            1,
            &[],
        );
        let udp_pkt = builder::udp_datagram(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            &[],
        );
        assert_eq!(vm.run("recv", &icmp_pkt, &[]), Ok(icmp_pkt.len() as u64));
        assert_eq!(vm.run("recv", &udp_pkt, &[]), Ok(0));
    }

    #[test]
    fn bitfield_load_expands_shift_mask() {
        let src = "entry send:\n  ld.f r2, ip.ver\n  mov.r r0, r2\n  ret r0\n";
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(p).unwrap();
        let pkt = builder::udp_datagram(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            1,
            2,
            b"x",
        );
        assert_eq!(vm.run("send", &pkt, &[]), Ok(4));
    }

    #[test]
    fn multiple_entries() {
        let src = r#"
entry send:
    mov.i r0, 1
    ret r0
entry recv:
    mov.i r0, 2
    ret r0
"#;
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(1));
        assert_eq!(vm.run("recv", &[], &[]), Ok(2));
    }

    #[test]
    fn hex_and_negative_immediates() {
        let src = "entry send:\n  mov.i r0, 0xff\n  add.i r0, -15\n  ret r0\n";
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(240));
    }

    #[test]
    fn error_unknown_mnemonic() {
        let e = assemble("entry send:\n  frobnicate r0\n  ret r0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("frobnicate"));
    }

    #[test]
    fn error_bad_register() {
        let e = assemble("entry send:\n  mov.i r99, 0\n  ret r0\n").unwrap_err();
        assert!(e.msg.contains("r99"));
    }

    #[test]
    fn error_unknown_field() {
        let e = assemble("entry send:\n  ld.f r2, ip.bogus\n  ret r0\n").unwrap_err();
        assert!(e.msg.contains("ip.bogus"));
    }

    #[test]
    fn error_no_entries() {
        assert!(assemble("mov.i r0, 1\nret r0\n").is_err());
    }

    #[test]
    fn error_jump_to_undefined_label() {
        // Found by fuzzing: used to panic "jump to unbound label" inside
        // `finish_program` instead of returning an error.
        let e = assemble("entry send:\n  ja nowhere\n  ret r0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("nowhere"));
        let e = assemble("entry send:\n  jeq.i r0, 1, gone\n  ret r0\n").unwrap_err();
        assert!(e.msg.contains("gone"));
    }

    #[test]
    fn error_duplicate_label() {
        // Found by fuzzing: used to hit the `Asm::bind` "label bound twice"
        // assert.
        let e = assemble("entry send:\nfoo:\nfoo:\n  ret r0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("bound twice"));
        let e = assemble("entry send:\n  ret r0\nentry send:\n  ret r0\n").unwrap_err();
        assert!(e.msg.contains("bound twice"));
    }

    #[test]
    fn error_bad_name() {
        for decl in ["entry :", "entry se nd:", "1abc:", "a.b:", ":"] {
            let e = assemble(&format!("entry send:\n{decl}\n  ret r0\n")).unwrap_err();
            assert_eq!(e.line, 2, "{decl}");
            assert!(e.msg.contains("bad name"), "{decl}: {}", e.msg);
        }
    }

    #[test]
    fn extreme_immediates() {
        assert_eq!(parse_imm("0xffffffffffffffff"), Some(-1));
        assert_eq!(parse_imm("-9223372036854775808"), Some(i64::MIN));
        assert_eq!(parse_imm("9223372036854775808"), None);
        assert_eq!(parse_imm("0x10000000000000000"), None);
        assert_eq!(parse_imm("-0x10"), Some(-16));
    }

    #[test]
    fn error_wrong_operand_count() {
        let e = assemble("entry send:\n  mov.i r0\n  ret r0\n").unwrap_err();
        assert!(e.msg.contains("operands"));
    }

    #[test]
    fn store_and_load_memory() {
        let src = r#"
.persistent 16
entry send:
    mov.i r2, 0        ; address
    mov.i r3, 42       ; value
    st.mem r2, r3, 8
    ld.mem r0, r2, 8
    ret r0
"#;
        let p = assemble(src).unwrap();
        let mut vm = Vm::new(p).unwrap();
        assert_eq!(vm.run("send", &[], &[]), Ok(42));
    }
}
