//! Every byte format the system writes, pinned: a delegation + experiment
//! certificate chain carrying every restriction and the compiled Figure-2
//! monitor, its descriptor, the Figure-2 PFVM program, one send-log and one
//! socket-state record, and one frame of each control and rendezvous
//! message.
//!
//! Signatures are made and checked by the same encoder, so a changed
//! encoding still verifies; only these pins see it. Each entry is the
//! encoding's length and FNV-1a 64 digest, and each encoding also decodes
//! back to the value it came from.

use packetlab::cert::{CertPayload, Certificate, Restrictions};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::memory::{EndpointMemory, SockStat, SENDLOG_ENTRY, SOCKSTAT_ENTRY};
use packetlab::rendezvous::RvMessage;
use packetlab::wire::{Command, ErrCode, Message, Notification, Proto, Response};
use plab_crypto::{KeyHash, Keypair};
use plab_filter::Program;
use plab_obs::export::fnv1a64;

fn figure2() -> Program {
    plab_cpf::compile(plab_bench::FIGURE2_MONITOR).expect("Figure 2 compiles")
}

fn descriptor() -> ExperimentDescriptor {
    ExperimentDescriptor {
        name: "figure2-ping".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: "https://example.org/experiments/figure2".into(),
        experimenter: KeyHash::of(&Keypair::from_seed(&[2; 32]).public),
    }
}

/// Operator → experimenter delegation with every restriction set, then
/// the experimenter's certificate with none: both encodings of each
/// optional field.
fn chain() -> [Certificate; 2] {
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let delegation = Certificate::sign(
        &operator,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions {
            not_before: Some(1_500_000_000),
            not_after: Some(1_600_000_000),
            monitor: Some(figure2().encode()),
            max_buffer_bytes: Some(1 << 20),
            max_priority: Some(7),
        },
    );
    let experiment = Certificate::sign(
        &experimenter,
        CertPayload::Experiment(descriptor().hash()),
        Restrictions::none(),
    );
    [delegation, experiment]
}

fn messages() -> Vec<(String, Message)> {
    let commands = [
        Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        },
        Command::NOpen {
            sktid: 2,
            proto: Proto::Udp,
            locport: 5000,
            remaddr: 0x0a00_0002,
            remport: 53,
        },
        Command::NOpen {
            sktid: 3,
            proto: Proto::Tcp,
            locport: 1234,
            remaddr: 0x0a00_0001,
            remport: 80,
        },
        Command::NClose { sktid: 2 },
        Command::NSend {
            sktid: 1,
            time: 1 << 40,
            data: vec![0x45, 0, 0, 28],
        },
        Command::NCap {
            sktid: 1,
            time: u64::MAX,
            filt: figure2().encode(),
        },
        Command::NPoll { time: 12_345 },
        Command::MRead {
            memaddr: 128,
            bytecnt: 16,
        },
        Command::MWrite {
            memaddr: 64,
            data: vec![1, 2, 3, 4],
        },
        Command::Yield,
    ];
    let codes = [
        ErrCode::Auth,
        ErrCode::BadSocket,
        ErrCode::Denied,
        ErrCode::Malformed,
        ErrCode::BadMemory,
        ErrCode::Suspended,
        ErrCode::Unsupported,
        ErrCode::Limit,
        ErrCode::Busy,
    ];
    let mut responses = vec![
        Response::Ok,
        Response::SendQueued { tag: 42 },
        Response::Mem {
            data: vec![0xde, 0xad, 0xbe, 0xef],
        },
        Response::Poll {
            packets: vec![(1, 100, vec![1, 2]), (2, 200, vec![])],
            dropped_packets: 3,
            dropped_bytes: 4096,
        },
    ];
    responses.extend(codes.map(|code| Response::Err {
        code,
        msg: format!("refused: {code:?}").into(),
    }));
    let [delegation, experiment] = chain();
    let mut out = vec![
        ("hello".to_string(), Message::Hello { version: 1 }),
        (
            "hello_ack".into(),
            Message::HelloAck {
                version: 1,
                nonce: [7; 32],
            },
        ),
        (
            "auth".into(),
            Message::Auth {
                descriptor: descriptor().encode(),
                chain: vec![delegation.encode(), experiment.encode()],
                keys: vec![[1; 32], [2; 32]],
                priority: 9,
                proof: [3; 64],
            },
        ),
        ("auth_ok".into(), Message::AuthOk),
        (
            "resp".into(),
            Message::Resp(Response::Err {
                code: ErrCode::Busy,
                msg: "busy".into(),
            }),
        ),
        (
            "notify_interrupted".into(),
            Message::Notify(Notification::Interrupted { by_priority: 200 }),
        ),
        (
            "notify_resumed".into(),
            Message::Notify(Notification::Resumed),
        ),
    ];
    for (i, cmd) in commands.into_iter().enumerate() {
        out.push((
            format!("cmd_seq_{i}"),
            Message::CmdSeq {
                seq: 1000 + i as u64,
                cmd,
            },
        ));
    }
    for (i, resp) in responses.into_iter().enumerate() {
        out.push((
            format!("resp_seq_{i}"),
            Message::RespSeq {
                seq: 2000 + i as u64,
                resp,
            },
        ));
    }
    out
}

fn rv_messages() -> Vec<(&'static str, RvMessage)> {
    let [delegation, experiment] = chain();
    let bundle = || {
        (
            descriptor().encode(),
            vec![delegation.encode(), experiment.encode()],
        )
    };
    let (descriptor, chain) = bundle();
    vec![
        (
            "publish",
            RvMessage::Publish {
                descriptor,
                chain,
                keys: vec![[1; 32], [2; 32]],
            },
        ),
        ("publish_ok", RvMessage::PublishOk),
        (
            "publish_err",
            RvMessage::PublishErr {
                reason: "untrusted".into(),
            },
        ),
        (
            "subscribe",
            RvMessage::Subscribe {
                channels: vec![[4; 32], [5; 32]],
            },
        ),
        ("announce", {
            let (descriptor, chain) = bundle();
            RvMessage::Announce {
                descriptor,
                chain,
                keys: vec![[2; 32]],
            }
        }),
    ]
}

/// Every encoding under test, by name, each checked to decode back.
fn encodings() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (i, cert) in chain().iter().enumerate() {
        let enc = cert.encode();
        assert_eq!(Certificate::decode(&enc).as_ref(), Ok(cert));
        out.push((format!("cert_{i}"), enc));
    }
    let desc = descriptor();
    assert_eq!(
        ExperimentDescriptor::decode(&desc.encode()),
        Some(desc.clone())
    );
    out.push(("descriptor".into(), desc.encode()));
    let program = figure2();
    assert_eq!(Program::decode(&program.encode()), Ok(program.clone()));
    out.push(("figure2_program".into(), program.encode()));

    let mut mem = EndpointMemory::new();
    mem.record_send(77, 0x0102_0304_0506_0708);
    mem.record_sockstat(19, 0x0003_0003, 48_000, 65_535);
    let sendlog = mem
        .read(EndpointMemory::sendlog_slot(77), SENDLOG_ENTRY as u32)
        .unwrap();
    assert_eq!(
        EndpointMemory::parse_sendlog_entry(sendlog),
        Some((77, 0x0102_0304_0506_0708))
    );
    out.push(("sendlog_record".into(), sendlog.to_vec()));
    let sockstat = mem
        .read(EndpointMemory::sockstat_slot(19), SOCKSTAT_ENTRY as u32)
        .unwrap();
    assert_eq!(
        EndpointMemory::parse_sockstat_entry(sockstat),
        Some(SockStat {
            sktid: 19,
            flags: 0x0003_0003,
            backlog: 48_000,
            peer_window: 65_535
        })
    );
    out.push(("sockstat_record".into(), sockstat.to_vec()));

    for (name, msg) in messages() {
        let frame = msg.to_frame();
        assert_eq!(Message::decode(&frame[4..]), Ok(msg), "{name}");
        out.push((name, frame));
    }
    for (name, msg) in rv_messages() {
        let payload = msg.encode();
        assert_eq!(RvMessage::decode(&payload), Some(msg), "{name}");
        out.push((format!("rv_{name}"), payload));
    }
    out
}

/// (name, length, FNV-1a 64) of each encoding, read from the codecs as
/// they were before they shared one reader and writer.
const PINS: &[(&str, usize, u64)] = &[
    ("cert_0", 1155, 0xc410d68d7f32c272),
    ("cert_1", 141, 0xe371cfe64c79cfc2),
    ("descriptor", 114, 0x5fdb9571e563d7a3),
    ("figure2_program", 985, 0x612538b036e8ea55),
    ("sendlog_record", 16, 0xa903688e96c6b170),
    ("sockstat_record", 24, 0xedd48cdada039451),
    ("hello", 6, 0x9111c4600580fbfc),
    ("hello_ack", 38, 0x36c55461e43802b9),
    ("auth", 1560, 0xcae8a7e6b312c1a8),
    ("auth_ok", 5, 0xd80d6faea7dc8405),
    ("resp", 15, 0xe8d11e80620aed14),
    ("notify_interrupted", 7, 0x08e47b9eeaeae658),
    ("notify_resumed", 6, 0x90fd6060056fa906),
    ("cmd_seq_0", 27, 0xf2a2eca874e2c0b5),
    ("cmd_seq_1", 27, 0x81683257da89bf9e),
    ("cmd_seq_2", 27, 0x7cdf19d5e06f1e3e),
    ("cmd_seq_3", 18, 0xc51c3340c9ba54b3),
    ("cmd_seq_4", 34, 0x743f9a1d1d87eee6),
    ("cmd_seq_5", 1015, 0xa4b6c7c212e1d816),
    ("cmd_seq_6", 22, 0xe8776362bd1f6edc),
    ("cmd_seq_7", 22, 0x3115066b9d4db26d),
    ("cmd_seq_8", 26, 0x50c3ca2f0230f76d),
    ("cmd_seq_9", 14, 0xa4ddd40e512e603d),
    ("resp_seq_0", 14, 0xed233459994d8538),
    ("resp_seq_1", 22, 0x0f5d749c56706b7a),
    ("resp_seq_2", 22, 0x471805ffcdaa7faa),
    ("resp_seq_3", 68, 0xb54f34bf1bbae78d),
    ("resp_seq_4", 32, 0x4bd33c2d35d3bad1),
    ("resp_seq_5", 37, 0xcd5fb4d0b6f03ed1),
    ("resp_seq_6", 34, 0x45b1cdf8f7d8be70),
    ("resp_seq_7", 37, 0x961b04d068d7c5c6),
    ("resp_seq_8", 37, 0x8d7ee0059b01ae09),
    ("resp_seq_9", 37, 0x3d0859d8baa30bc2),
    ("resp_seq_10", 39, 0xaaf850ca366ff692),
    ("resp_seq_11", 33, 0x58b7cff9c2ee2ffc),
    ("resp_seq_12", 32, 0xca560817b54421fa),
    ("rv_publish", 1491, 0xf16d281a143d0241),
    ("rv_publish_ok", 1, 0xaf63bc4c8601b62c),
    ("rv_publish_err", 14, 0x685c3c3ae5813582),
    ("rv_subscribe", 67, 0x0201ac8b5e067b70),
    ("rv_announce", 1459, 0x89ff34c00ee5fade),
];

#[test]
fn every_encoding_is_byte_identical_to_its_pin() {
    let got: Vec<(String, usize, u64)> = encodings()
        .into_iter()
        .map(|(name, enc)| (name, enc.len(), fnv1a64(&enc)))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, len, digest)| format!("    (\"{name}\", {len}, 0x{digest:016x}),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "pins:\n{table}");
    for ((name, len, digest), (pin_name, pin_len, pin_digest)) in got.iter().zip(PINS) {
        assert_eq!(
            (name.as_str(), *len, *digest),
            (*pin_name, *pin_len, *pin_digest),
            "pins:\n{table}"
        );
    }
}

/// The two endpoint-memory records, byte for byte.
#[test]
fn memory_records_are_little_endian_fields_in_order() {
    let mut mem = EndpointMemory::new();
    mem.record_send(77, 0x0102_0304_0506_0708);
    mem.record_sockstat(19, 0x0003_0003, 48_000, 65_535);
    let sendlog = mem
        .read(EndpointMemory::sendlog_slot(77), SENDLOG_ENTRY as u32)
        .unwrap();
    assert_eq!(sendlog, [77, 0, 0, 0, 0, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1]);
    let sockstat = mem
        .read(EndpointMemory::sockstat_slot(19), SOCKSTAT_ENTRY as u32)
        .unwrap();
    assert_eq!(
        sockstat,
        [19, 0, 0, 0, 3, 0, 3, 0, 0x80, 0xbb, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0]
    );
}
