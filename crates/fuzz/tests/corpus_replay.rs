//! Checked-in regression corpus, replayed as plain `cargo test`.
//!
//! Every input that ever violated a fuzz oracle (or that pins a hardening
//! fix) lives under `corpus/<target>/` and is replayed through the target's
//! oracle function here, so a regression is caught without running the
//! fuzzer. The named tests below additionally assert the *specific* typed
//! error each fixed bug must keep producing — reverting a fix makes them
//! fail (or panic / overflow the stack, loudly).
//!
//! To rebuild the corpus files from scratch:
//!   cargo test -p plab-fuzz --test corpus_replay -- --ignored regenerate

use packetlab::wire::{Message, WireError};
use plab_filter::{validate, Insn, Op, Program, ValidateError};
use plab_fuzz::{replay, Exec, TARGETS};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn corpus_dir(target: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(target)
}

fn read(target: &str, name: &str) -> Vec<u8> {
    let path = corpus_dir(target).join(name);
    fs::read(&path).unwrap_or_else(|e| panic!("missing corpus file {}: {e}", path.display()))
}

/// Every corpus file must replay without a panic or oracle failure.
#[test]
fn replay_whole_corpus_clean() {
    let mut replayed = 0;
    for target in TARGETS {
        let dir = corpus_dir(target);
        let entries = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()));
        for entry in entries {
            let path = entry.unwrap().path();
            let bytes = fs::read(&path).unwrap();
            match replay(target, &bytes).unwrap() {
                Ok(_) => replayed += 1,
                Err(msg) => panic!("{target}/{}: oracle failure: {msg}", path.display()),
            }
        }
    }
    assert!(
        replayed >= 12,
        "corpus unexpectedly small: {replayed} files"
    );
}

/// The accept paths stay accepting: known-good artifacts must parse.
#[test]
fn known_good_inputs_accepted() {
    for (target, name) in [
        ("wire", "valid_stream.bin"),
        ("cert", "pristine_bundle.bin"),
        ("cpf", "valid_monitor.cpf"),
        ("filter", "valid_program.bin"),
        ("fused", "valid_chain.bin"),
        ("fused", "replay_chain.bin"),
        ("fused", "lockstep_chain.bin"),
    ] {
        let bytes = read(target, name);
        assert_eq!(
            replay(target, &bytes).unwrap(),
            Ok(Exec::Accepted),
            "{target}/{name} no longer accepted"
        );
    }
}

/// Bug: `Auth` chain/key counts were attacker-controlled allocation loops.
/// Fixed by rejecting counts above `MAX_CHAIN`/`MAX_KEYS` with `TooLarge`.
#[test]
fn auth_chain_count_regression() {
    let bytes = read("wire", "auth_count.bin");
    assert_eq!(Message::decode(&bytes), Err(WireError::TooLarge));
}

/// Bug: `Poll` packet counts were trusted before any byte of the entries
/// existed. Fixed by the structural bound (each entry needs ≥ 16 bytes).
#[test]
fn poll_count_regression() {
    let bytes = read("wire", "poll_count.bin");
    assert_eq!(Message::decode(&bytes), Err(WireError::TooLarge));
}

/// Bug: with both an undecodable payload (early in the stream) and an
/// oversized header (later, but detected eagerly by `extend`), the decoder
/// reported the payload error once and the header error forever after —
/// the error flip-flopped across calls. Fixed: first error in *stream
/// order* wins and is sticky.
#[test]
fn poison_order_regression() {
    let bytes = read("wire", "poison_order.bin");
    // The whole-vs-split and stickiness oracles inside `check` pin this.
    assert_eq!(replay("wire", &bytes).unwrap(), Ok(Exec::Rejected));
    let mut dec = packetlab::wire::FrameDecoder::new();
    dec.extend(&bytes);
    let first = dec.next_message().unwrap_err();
    assert_eq!(
        dec.next_message(),
        Err(first),
        "sticky error changed identity"
    );
}

/// Bug: `validate` computed `pc + 1 + offset` with unchecked i64 addition;
/// a decoded `Ja` carrying `i64::MAX` overflowed (debug panic). Fixed with
/// `checked_add` → `BadJumpTarget`.
#[test]
fn ja_overflow_regression() {
    let bytes = read("filter", "ja_overflow.bin");
    let program = Program::decode(&bytes).expect("corpus program must decode");
    assert_eq!(validate(&program), Err(ValidateError::BadJumpTarget(0)));
}

/// Bug: four shapes of unbounded parser recursion (parens, unary chains,
/// nested statements, left-deep operator chains) let a hostile monitor
/// source overflow the stack. Fixed with the `MAX_NEST` depth budget.
#[test]
fn cpf_deep_nesting_regression() {
    for name in ["deep_paren.cpf", "deep_ops.cpf"] {
        let bytes = read("cpf", name);
        let src = core::str::from_utf8(&bytes).unwrap();
        let err = plab_cpf::compile(src).expect_err("deep nesting must be rejected");
        assert!(err.msg.contains("nesting too deep"), "{name}: {}", err.msg);
    }
}

/// Bug: `compile` unwrapped `validate` on its own output, so a source with
/// more globals than persistent memory holds panicked instead of erroring.
#[test]
fn cpf_many_globals_regression() {
    let bytes = read("cpf", "many_globals.cpf");
    let src = core::str::from_utf8(&bytes).unwrap();
    let err = plab_cpf::compile(src).expect_err("oversized monitor must be rejected");
    assert!(err.msg.contains("too large"), "{}", err.msg);
}

/// Regenerate every corpus file. Run explicitly:
///   cargo test -p plab-fuzz --test corpus_replay -- --ignored regenerate
#[test]
#[ignore = "writes the checked-in corpus; run by hand after adding an input"]
fn regenerate() {
    let write = |target: &str, name: &str, bytes: &[u8]| {
        let dir = corpus_dir(target);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(name), bytes).unwrap();
    };

    // wire: a healthy two-message stream.
    let mut stream = Message::Hello { version: 1 }.to_frame();
    stream.extend_from_slice(
        &Message::CmdSeq {
            seq: 1,
            cmd: packetlab::wire::Command::NSend {
                sktid: 7,
                time: 1_000_000,
                data: vec![0xde, 0xad, 0xbe, 0xef],
            },
        }
        .to_frame(),
    );
    write("wire", "valid_stream.bin", &stream);
    // wire: Auth with a 65535-entry chain count and no chain bytes.
    let mut auth = vec![2u8];
    auth.extend_from_slice(&0u32.to_le_bytes()); // empty descriptor
    auth.extend_from_slice(&u16::MAX.to_le_bytes()); // chain count
    write("wire", "auth_count.bin", &auth);
    // wire: Poll claiming u32::MAX packets with no entry bytes.
    let mut poll = vec![5u8, 3u8];
    poll.extend_from_slice(&u32::MAX.to_le_bytes());
    write("wire", "poll_count.bin", &poll);
    // wire: undecodable payload frame followed by an oversized header.
    let mut poison = vec![1, 0, 0, 0, 0xff]; // frame: payload [0xff] = bad tag
    poison.extend_from_slice(&[0xff, 0xff, 0xff, 0xff]); // header: 4 GiB frame
    write("wire", "poison_order.bin", &poison);
    // wire: oversized header alone (the unbounded-buffering vector).
    let mut oversized = (16 * 1024 * 1024u32 + 1).to_le_bytes().to_vec();
    oversized.extend_from_slice(&[0u8; 64]);
    write("wire", "oversized_header.bin", &oversized);

    // cert: the pristine chain, a truncation, and a bit-flipped signature.
    let pristine = plab_fuzz::targets::cert::pristine_bundle();
    write("cert", "pristine_bundle.bin", &pristine);
    write("cert", "truncated.bin", &pristine[..pristine.len() - 1]);
    let mut flipped = pristine.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01; // last signature byte
    write("cert", "flipped_sig.bin", &flipped);

    // cpf: a known-good stateful monitor plus the recursion/size repros.
    write(
        "cpf",
        "valid_monitor.cpf",
        b"uint64_t seen = 0;\n\
          uint32_t send(const union packet *pkt, uint32_t len) {\n\
              seen += 1;\n\
              if (seen > 16) return 0;\n\
              return len + 1;\n\
          }\n",
    );
    let deep = format!(
        "uint32_t send(const union packet *pkt, uint32_t len) {{ return {}1{}; }}\n",
        "(".repeat(4000),
        ")".repeat(4000)
    );
    write("cpf", "deep_paren.cpf", deep.as_bytes());
    let ops = format!(
        "uint32_t send(const union packet *pkt, uint32_t len) {{ return {}1; }}\n",
        "1 + ".repeat(4000)
    );
    write("cpf", "deep_ops.cpf", ops.as_bytes());
    let mut globals = String::new();
    for i in 0..8200 {
        globals.push_str(&format!("uint64_t g{i} = 0;\n"));
    }
    globals.push_str("uint32_t send(const union packet *pkt, uint32_t len) { return len; }\n");
    write("cpf", "many_globals.cpf", globals.as_bytes());

    // filter: a small valid program and the Ja-offset-overflow repro.
    let valid = Program {
        code: vec![
            Insn::new(Op::MovI, 0, 0, 40),
            Insn::pack_cmp(Op::JltI, 1, 8, 1),
            Insn::new(Op::MovI, 0, 0, 0),
            Insn::new(Op::Ret, 0, 0, 0),
        ],
        entries: BTreeMap::from([("send".to_string(), 0u32)]),
        persistent_size: 16,
        scratch_size: 8,
    };
    assert!(validate(&valid).is_ok());
    write("filter", "valid_program.bin", &valid.encode());
    let ja = Program {
        code: vec![Insn::new(Op::Ja, 0, 0, i64::MAX)],
        entries: BTreeMap::from([("send".to_string(), 0u32)]),
        persistent_size: 0,
        scratch_size: 0,
    };
    write("filter", "ja_overflow.bin", &ja.encode());
    let truncated = valid.encode();
    write("filter", "truncated.bin", &truncated[..truncated.len() - 5]);

    // fused: monitor chains as length-prefixed program encodings.
    let chain = |progs: &[&Program], tail: &[u8]| -> Vec<u8> {
        let mut b = vec![(progs.len() - 1) as u8];
        for p in progs {
            let e = p.encode();
            b.extend_from_slice(&(e.len() as u32).to_le_bytes());
            b.extend_from_slice(&e);
        }
        b.extend_from_slice(tail);
        b
    };
    // A stateful peer: counts adjudications in persistent memory.
    let counter = Program {
        code: vec![
            Insn::new(Op::MovI, 3, 0, 0),
            Insn::new(Op::LdMem, 3, 3, 0),
            Insn::new(Op::AddI, 3, 0, 1),
            Insn::new(Op::MovI, 4, 0, 0),
            Insn::new(Op::StMem, 4, 3, 0),
            Insn::new(Op::MovR, 0, 1, 0),
            Insn::new(Op::Ret, 0, 0, 0),
        ],
        entries: BTreeMap::from([("send".to_string(), 0u32)]),
        persistent_size: 8,
        scratch_size: 0,
    };
    assert!(validate(&counter).is_ok());
    write(
        "fused",
        "valid_chain.bin",
        &chain(&[&valid, &counter], &[9, 9, 9, 9]),
    );
    // Identical neighbors exercise the outcome-replay path.
    write(
        "fused",
        "replay_chain.bin",
        &chain(&[&counter, &counter, &valid], &[1, 2, 3, 4, 5, 6, 7, 8]),
    );
    // [stamp, gate, stamp]: stamp returns the old mem[0] + 1 and stores
    // pkt[0] there; gate denies pkt[0] == 0xff. The tail packet opens with
    // 0xff, so round one's walk stops between the stamps after the first
    // wrote, and round two holds the second to its own older memory.
    let stamp = Program {
        code: vec![
            Insn::new(Op::MovI, 2, 0, 0),
            Insn::new(Op::LdMem, 2, 2, 0),
            Insn::new(Op::MovI, 3, 0, 0),
            Insn::new(Op::LdPkt8, 3, 3, 0),
            Insn::new(Op::MovI, 4, 0, 0),
            Insn::new(Op::StMem, 4, 3, 0),
            Insn::new(Op::AddI, 2, 0, 1),
            Insn::new(Op::MovR, 0, 2, 0),
            Insn::new(Op::Ret, 0, 0, 0),
        ],
        entries: BTreeMap::from([("send".to_string(), 0u32)]),
        persistent_size: 8,
        scratch_size: 0,
    };
    let gate = Program {
        code: vec![
            Insn::new(Op::MovI, 2, 0, 0),
            Insn::new(Op::LdPkt8, 2, 2, 0),
            Insn::pack_cmp(Op::JeqI, 2, 0xff, 2),
            Insn::new(Op::MovR, 0, 1, 0),
            Insn::new(Op::Ret, 0, 0, 0),
            Insn::new(Op::MovI, 0, 0, 0),
            Insn::new(Op::Ret, 0, 0, 0),
        ],
        entries: BTreeMap::from([("send".to_string(), 0u32)]),
        persistent_size: 0,
        scratch_size: 0,
    };
    assert!(validate(&stamp).is_ok() && validate(&gate).is_ok());
    write(
        "fused",
        "lockstep_chain.bin",
        &chain(&[&stamp, &gate, &stamp], &[0xff, 1, 2, 3]),
    );
    let whole = chain(&[&valid, &counter], &[]);
    write("fused", "truncated_chain.bin", &whole[..whole.len() - 3]);

    for t in TARGETS {
        println!(
            "{t}: {} files",
            fs::read_dir(corpus_dir(t)).unwrap().count()
        );
    }
}
