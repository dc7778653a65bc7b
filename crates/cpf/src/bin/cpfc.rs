//! `cpfc` — the Cpf monitor compiler driver.
//!
//! ```text
//! cpfc monitor.cpf                 # compile, print stats
//! cpfc monitor.cpf -o monitor.pfvm # write the encoded PFVM program
//! cpfc monitor.cpf --disasm        # print PFVM assembly
//! cpfc --check monitor.cpf         # syntax/semantic check only
//! ```
//!
//! Endpoint operators use this to compile monitors before attaching them
//! to delegation certificates; experimenters, to pre-compile `ncap`
//! filters.

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: cpfc <source.cpf> [-o <out.pfvm>] [--disasm] [--check]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source_path: Option<String> = None;
    let mut output: Option<String> = None;
    let mut disasm = false;
    let mut check_only = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                i += 1;
                if i >= args.len() {
                    return usage();
                }
                output = Some(args[i].clone());
            }
            "--disasm" => disasm = true,
            "--check" => check_only = true,
            "-h" | "--help" => return usage(),
            other if !other.starts_with('-') && source_path.is_none() => {
                source_path = Some(other.to_string());
            }
            _ => return usage(),
        }
        i += 1;
    }
    let Some(path) = source_path else {
        return usage();
    };

    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cpfc: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let program = match plab_cpf::compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}:{e}");
            return ExitCode::FAILURE;
        }
    };

    if check_only {
        println!("{path}: ok");
        return ExitCode::SUCCESS;
    }

    println!(
        "{path}: {} instructions, {} B persistent, {} B scratch, entries: {}",
        program.code.len(),
        program.persistent_size,
        program.scratch_size,
        program
            .entries
            .keys()
            .cloned()
            .collect::<Vec<_>>()
            .join(", "),
    );

    if disasm {
        print!("{}", plab_filter::disasm::disassemble(&program));
    }

    if let Some(out) = output {
        let encoded = program.encode();
        if let Err(e) = std::fs::write(&out, &encoded) {
            eprintln!("cpfc: cannot write {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {} bytes to {out}", encoded.len());
    }
    ExitCode::SUCCESS
}
