//! Per-layer kernels of the traced run: each times calls into one
//! layer's public functions, on the workload's own inputs where the
//! layer takes any. They run after the traced pass with `plab_obs` off,
//! so they move no counter the pass is read from.

use crate::harness::Outcome;
use packetlab::cert;
use packetlab::controller::Credentials;
use packetlab::monitor::MonitorSet;
use packetlab::wire::{Command, FrameDecoder, Message, Response};
use plab_crypto::{ed25519, sha256, KeyHash, Keypair};
use plab_packet::{builder, layout};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Mean nanoseconds per call over `iters` calls, after one untimed call.
pub fn ns_per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Returns the cost of one signature verification, µs.
pub fn crypto(out: &mut Outcome) -> f64 {
    let kp = Keypair::from_seed(&[7; 32]);
    let msg = [0x5au8; 96];
    let sig = kp.sign(&msg);
    out.layer(
        "crypto.sign_us",
        ns_per_call(32, || {
            black_box(kp.sign(black_box(&msg)));
        }) / 1e3,
    );
    let verify_us = ns_per_call(32, || {
        assert!(ed25519::verify(&kp.public, black_box(&msg), &sig))
    }) / 1e3;
    out.layer("crypto.verify_us", verify_us);
    let block = vec![0xa5u8; 1 << 20];
    let ns = ns_per_call(8, || {
        black_box(sha256::digest(black_box(&block)));
    });
    out.layer(
        "crypto.sha256_mb_per_s",
        block.len() as f64 / 1e6 / (ns / 1e9),
    );
    verify_us
}

/// Certificate costs on the workload's own credentials. Returns the
/// modelled cost of one authentication, µs: the controller's signed
/// `Auth` message plus what the endpoint verifies — the certificate set
/// and the possession proof (one more signature, `verify_us`).
pub fn cert(out: &mut Outcome, creds: &Credentials, operator: &Keypair, verify_us: f64) -> f64 {
    let keys = cert::key_map(&creds.keys);
    let trusted = [KeyHash::of(&operator.public)];
    let dhash = creds.descriptor.hash();
    let verify_set_us = ns_per_call(16, || {
        black_box(cert::verify_cert_set(
            &creds.chain,
            &keys,
            &trusted,
            &dhash,
            0,
        ))
        .expect("the workload's chain verifies");
    }) / 1e3;
    let restrictions = creds.chain[0].restrictions.clone();
    let issue_us = ns_per_call(16, || {
        black_box(Credentials::issue(
            operator,
            &creds.signing_key,
            creds.descriptor.clone(),
            restrictions.clone(),
            creds.priority,
        ));
    }) / 1e3;
    let auth_message_us = ns_per_call(16, || drop(black_box(creds.auth_message(&[9; 32])))) / 1e3;
    out.layer("cert.chain_len", creds.chain.len() as f64);
    out.layer("cert.verify_set_us", verify_set_us);
    out.layer("cert.issue_us", issue_us);
    out.layer("cert.auth_message_us", auth_message_us);
    verify_set_us + verify_us + auth_message_us
}

pub fn cpf(out: &mut Outcome) {
    let ns = ns_per_call(16, || {
        black_box(plab_cpf::compile(black_box(plab_bench::FIGURE2_MONITOR)))
            .expect("Figure 2 compiles");
    });
    out.layer("cpf.compile_us", ns / 1e3);
}

/// Codec cost over a fixed message mix: one `Auth`, and the two commands
/// and two response sizes a measurement session mostly consists of.
pub fn wire(out: &mut Outcome, creds: &Credentials) {
    let mix = [
        creds.auth_message(&[9; 32]),
        Message::CmdSeq {
            seq: 7,
            cmd: Command::NSend {
                sktid: 1,
                time: 1_000_000,
                data: vec![0x42; 64],
            },
        },
        Message::CmdSeq {
            seq: 8,
            cmd: Command::MRead {
                memaddr: 0,
                bytecnt: 64,
            },
        },
        Message::RespSeq {
            seq: 8,
            resp: Response::Mem {
                data: vec![0x17; 64],
            },
        },
        Message::RespSeq {
            seq: 9,
            resp: Response::Mem {
                data: vec![0x17; 4096],
            },
        },
    ];
    let n = mix.len() as f64;
    let encode = ns_per_call(2000, || {
        for m in &mix {
            black_box(m.to_frame());
        }
    });
    let payloads: Vec<Vec<u8>> = mix.iter().map(Message::encode).collect();
    let decode = ns_per_call(2000, || {
        for p in &payloads {
            black_box(Message::decode(black_box(p))).expect("own encoding decodes");
        }
    });
    let stream: Vec<u8> = mix.iter().flat_map(Message::to_frame).collect();
    let reframe = ns_per_call(2000, || {
        let mut d = FrameDecoder::new();
        // Uneven chunks, so frames straddle `extend` calls as they do on
        // a TCP stream.
        for chunk in stream.chunks(1460) {
            d.extend(chunk);
            while let Some(frame) = d.next_frame().expect("own framing decodes") {
                black_box(frame);
            }
        }
    });
    out.layer("wire.encode_ns_per_msg", encode / n);
    out.layer("wire.decode_ns_per_msg", decode / n);
    out.layer(
        "wire.frame_decode_mb_per_s",
        stream.len() as f64 / 1e6 / (reframe / 1e9),
    );
}

/// The endpoint of every monitor workload: the address Figure 2 lets
/// probes leave from.
pub const MONITOR_ME: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// The `info` block a monitor is instantiated and run against.
pub fn info_block(me: Ipv4Addr) -> Vec<u8> {
    let mut info = vec![0u8; layout::INFO_SIZE];
    layout::resolve_info("addr.ip")
        .expect("addr.ip is an info field")
        .write_le(&mut info, u64::from(u32::from(me)));
    info
}

/// `depth` copies of the compiled Figure-2 monitor, as a chain's
/// effective restrictions carry them.
pub fn encoded_chain(depth: usize) -> Vec<Vec<u8>> {
    let encoded = plab_cpf::compile(plab_bench::FIGURE2_MONITOR)
        .expect("Figure 2 compiles")
        .encode();
    vec![encoded; depth]
}

/// What a fleet pays the PFVM: instantiation once per `Auth` and one
/// depth-1 adjudication per packet. Returns `(instantiate_us,
/// ns_per_adjudication)`.
pub fn pfvm_depth1(out: &mut Outcome) -> (f64, f64) {
    let info = info_block(MONITOR_ME);
    let chain = encoded_chain(1);
    let instantiate_us = ns_per_call(64, || {
        black_box(MonitorSet::instantiate(&chain, &info)).expect("Figure 2 instantiates");
    }) / 1e3;
    let mut set = MonitorSet::instantiate(&chain, &info).expect("Figure 2 instantiates");
    let target = Ipv4Addr::new(10, 0, 99, 1);
    let probe = builder::icmp_echo_request(MONITOR_ME, target, 5, 1, 1, &[0, 1]);
    let reply = builder::icmp_echo_reply(target, MONITOR_ME, 1, 1, &[0, 1]);
    let send = ns_per_call(200_000, || {
        black_box(set.allow_send(black_box(&probe), &info));
    });
    let recv = ns_per_call(200_000, || {
        black_box(set.allow_recv(black_box(&reply), &info));
    });
    out.layer("pfvm.instantiate_us", instantiate_us);
    out.layer("pfvm.ns_per_send_d1", send);
    out.layer("pfvm.ns_per_recv_d1", recv);
    (instantiate_us, (send + recv) / 2.0)
}

/// Two-thread proxies for what the runner's thread-per-task and baton
/// design costs the host: spawning and joining a thread, and one mpsc
/// round trip between two threads.
pub fn host_proxies(out: &mut Outcome) {
    let spawn = ns_per_call(200, || {
        std::thread::spawn(|| black_box(0u64))
            .join()
            .expect("empty thread joins");
    });
    out.layer("host.thread_spawn_us", spawn / 1e3);
    let (to_peer, from_main) = std::sync::mpsc::channel::<u64>();
    let (to_main, from_peer) = std::sync::mpsc::channel::<u64>();
    let peer = std::thread::spawn(move || {
        while let Ok(v) = from_main.recv() {
            if to_main.send(v).is_err() {
                break;
            }
        }
    });
    let round = ns_per_call(5000, || {
        to_peer.send(1).expect("peer is alive");
        black_box(from_peer.recv().expect("peer answers"));
    });
    drop(to_peer);
    peer.join().expect("ping-pong peer joins");
    out.layer("host.mpsc_roundtrip_us", round / 1e3);
}
