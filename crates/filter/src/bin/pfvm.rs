//! `pfvm` — assembler / disassembler / runner for PFVM programs.
//!
//! ```text
//! pfvm asm filter.s -o filter.pfvm     # assemble text to bytecode
//! pfvm disasm filter.pfvm              # print assembly
//! pfvm run filter.pfvm --entry send --packet <hexbytes> [--info <hexbytes>]
//! ```

use plab_filter::{asm, disasm, Program, Vm};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  pfvm asm <source.s> [-o <out.pfvm>]\n  pfvm disasm <prog.pfvm>\n  \
         pfvm run <prog.pfvm> --entry <name> [--packet <hex>] [--info <hex>]"
    );
    ExitCode::from(2)
}

fn read_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(|s| s.as_str()) {
        Some("asm") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let output = match (args.get(2).map(|s| s.as_str()), args.get(3)) {
                (Some("-o"), Some(out)) => Some(out.clone()),
                (None, _) => None,
                _ => return usage(),
            };
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("pfvm: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match asm::assemble(&source) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{path}:{e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = plab_filter::validate(&program) {
                eprintln!("{path}: validation failed: {e}");
                return ExitCode::FAILURE;
            }
            println!("{path}: {} instructions, valid", program.code.len());
            if let Some(out) = output {
                let bytes = program.encode();
                if let Err(e) = std::fs::write(&out, &bytes) {
                    eprintln!("pfvm: cannot write {out}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {} bytes to {out}", bytes.len());
            }
            ExitCode::SUCCESS
        }
        Some("disasm") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("pfvm: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match Program::decode(&bytes) {
                Ok(p) => {
                    print!("{}", disasm::disassemble(&p));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("run") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let mut entry = "send".to_string();
            let mut packet = Vec::new();
            let mut info = Vec::new();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--entry" => {
                        i += 1;
                        entry = args.get(i).cloned().unwrap_or_default();
                    }
                    "--packet" => {
                        i += 1;
                        let Some(hex) = args.get(i).and_then(|s| read_hex(s)) else {
                            return usage();
                        };
                        packet = hex;
                    }
                    "--info" => {
                        i += 1;
                        let Some(hex) = args.get(i).and_then(|s| read_hex(s)) else {
                            return usage();
                        };
                        info = hex;
                    }
                    _ => return usage(),
                }
                i += 1;
            }
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("pfvm: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let program = match Program::decode(&bytes) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut vm = match Vm::new(program) {
                Ok(vm) => vm,
                Err(e) => {
                    eprintln!("{path}: validation failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match vm.run(&entry, &packet, &info) {
                Ok(v) => {
                    println!(
                        "{entry}({} B packet) = {v} ({}) [{} instructions]",
                        packet.len(),
                        if v == 0 { "deny" } else { "allow" },
                        vm.insns_executed
                    );
                    ExitCode::SUCCESS
                }
                Err(t) => {
                    eprintln!("{entry}: trap: {t}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
