//! Fuzz target: `Message::decode` and `FrameDecoder`.
//!
//! The input blob is interpreted two ways at once:
//!
//! 1. as a raw message payload for [`Message::decode`] — if accepted, the
//!    codec must be canonical (`encode(decode(b)) == b`) and a fixed point;
//! 2. as a TCP byte stream for [`FrameDecoder`] — the message/error
//!    sequence must be invariant under how the stream is chunked, buffering
//!    must stay bounded, and a poisoned decoder must stay poisoned and
//!    stop buffering.

use crate::mutate::{mutate, random_bytes};
use crate::{exec_one, Exec, Report};
use packetlab::wire::{
    Command, ErrCode, FrameDecoder, Message, Notification, Proto, Response, WireError,
    FRAME_HEADER, MAX_FRAME,
};
use plab_obs::export::{fnv1a, FNV_OFFSET};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn gen_bytes<const N: usize>(rng: &mut StdRng) -> [u8; N] {
    let mut out = [0u8; N];
    for b in out.iter_mut() {
        *b = rng.gen::<u8>();
    }
    out
}

fn gen_command(rng: &mut StdRng) -> Command {
    match rng.gen_range(0u32..8) {
        0 => Command::NOpen {
            sktid: rng.gen::<u32>(),
            proto: match rng.gen_range(0u32..3) {
                0 => Proto::Raw,
                1 => Proto::Udp,
                _ => Proto::Tcp,
            },
            locport: rng.gen::<u16>(),
            remaddr: rng.gen::<u32>(),
            remport: rng.gen::<u16>(),
        },
        1 => Command::NClose {
            sktid: rng.gen::<u32>(),
        },
        2 => Command::NSend {
            sktid: rng.gen::<u32>(),
            time: rng.gen::<u64>(),
            data: random_bytes(rng, 64),
        },
        3 => Command::NCap {
            sktid: rng.gen::<u32>(),
            time: rng.gen::<u64>(),
            filt: random_bytes(rng, 64),
        },
        4 => Command::NPoll {
            time: rng.gen::<u64>(),
        },
        5 => Command::MRead {
            memaddr: rng.gen::<u32>(),
            bytecnt: rng.gen::<u32>(),
        },
        6 => Command::MWrite {
            memaddr: rng.gen::<u32>(),
            data: random_bytes(rng, 64),
        },
        _ => Command::Yield,
    }
}

fn gen_response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0u32..5) {
        0 => Response::Ok,
        1 => Response::SendQueued {
            tag: rng.gen::<u64>(),
        },
        2 => Response::Mem {
            data: random_bytes(rng, 64),
        },
        3 => {
            let n = rng.gen_range(0usize..4);
            Response::Poll {
                packets: (0..n)
                    .map(|_| (rng.gen::<u32>(), rng.gen::<u64>(), random_bytes(rng, 48)))
                    .collect(),
                dropped_packets: rng.gen::<u64>(),
                dropped_bytes: rng.gen::<u64>(),
            }
        }
        _ => Response::Err {
            code: match rng.gen_range(0u32..8) {
                0 => ErrCode::Auth,
                1 => ErrCode::BadSocket,
                2 => ErrCode::Denied,
                3 => ErrCode::Malformed,
                4 => ErrCode::BadMemory,
                5 => ErrCode::Suspended,
                6 => ErrCode::Unsupported,
                _ => ErrCode::Limit,
            },
            msg: (0..rng.gen_range(0usize..24))
                .map(|_| char::from(rng.gen_range(0x20u32..0x7f) as u8))
                .collect(),
        },
    }
}

fn gen_message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0u32..8) {
        0 => Message::Hello {
            version: rng.gen::<u8>(),
        },
        1 => Message::HelloAck {
            version: rng.gen::<u8>(),
            nonce: gen_bytes(rng),
        },
        2 => Message::Auth {
            descriptor: random_bytes(rng, 48),
            chain: (0..rng.gen_range(0usize..4))
                .map(|_| random_bytes(rng, 32))
                .collect(),
            keys: (0..rng.gen_range(0usize..4))
                .map(|_| gen_bytes(rng))
                .collect(),
            priority: rng.gen::<u8>(),
            proof: gen_bytes(rng),
        },
        3 => Message::AuthOk,
        4 => Message::Resp(gen_response(rng)),
        5 => Message::Notify(if rng.gen_bool(0.5) {
            Notification::Interrupted {
                by_priority: rng.gen::<u8>(),
            }
        } else {
            Notification::Resumed
        }),
        6 => Message::CmdSeq {
            seq: rng.gen::<u64>(),
            cmd: gen_command(rng),
        },
        _ => Message::RespSeq {
            seq: rng.gen::<u64>(),
            resp: gen_response(rng),
        },
    }
}

/// Outcome of draining a chunked stream through one `FrameDecoder`.
struct Drained {
    /// Encoded bytes of every message produced, in order.
    msgs: Vec<Vec<u8>>,
    /// Terminal error, if the stream poisoned the decoder.
    err: Option<WireError>,
    /// Largest `buffered()` observed after any drain cycle.
    max_buffered: usize,
}

fn drain_stream(chunks: &[&[u8]]) -> Drained {
    let mut dec = FrameDecoder::new();
    let mut out = Drained {
        msgs: Vec::new(),
        err: None,
        max_buffered: 0,
    };
    'feed: for chunk in chunks {
        dec.extend(chunk);
        loop {
            match dec.next_message() {
                Ok(Some(m)) => out.msgs.push(m.encode()),
                Ok(None) => break,
                Err(e) => {
                    out.err = Some(e);
                    break 'feed;
                }
            }
        }
        out.max_buffered = out.max_buffered.max(dec.buffered());
    }
    // Poison stickiness: further input must be dropped, not buffered, and
    // the error must keep being reported.
    if let Some(e) = out.err {
        let before = dec.buffered();
        dec.extend(&[0xAA; 256]);
        if dec.buffered() != before {
            // Report via a sentinel the caller turns into an oracle failure.
            out.max_buffered = usize::MAX;
        }
        if dec.next_message() != Err(e) {
            out.max_buffered = usize::MAX;
        }
    }
    out
}

/// Deterministic adversarial chunking derived from the input bytes
/// themselves (so a corpus file fully determines the execution).
fn split_points(bytes: &[u8]) -> Vec<&[u8]> {
    // FNV-1a over the input seeds a xorshift stream of chunk lengths.
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, bytes);
    h |= 1;
    let mut chunks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
        let n = 1 + (h as usize % 9);
        let j = (i + n).min(bytes.len());
        chunks.push(&bytes[i..j]);
        i = j;
    }
    chunks
}

/// Oracle function for one input blob.
pub fn check(bytes: &[u8]) -> Result<Exec, String> {
    // Surface 1: the blob as a bare message payload.
    let direct_ok = match Message::decode(bytes) {
        Ok(m) => {
            let enc = m.encode();
            if enc != bytes {
                return Err(format!(
                    "decode accepted non-canonical payload: re-encode differs ({} vs {} bytes)",
                    enc.len(),
                    bytes.len()
                ));
            }
            match Message::decode(&enc) {
                Ok(m2) if m2 == m => {}
                other => return Err(format!("decode(encode(m)) not a fixed point: {other:?}")),
            }
            true
        }
        Err(_) => false,
    };

    // Surface 2: the blob as a frame stream, whole vs adversarially split.
    let whole = drain_stream(&[bytes]);
    let split = drain_stream(&split_points(bytes));
    if whole.msgs != split.msgs || whole.err != split.err {
        return Err(format!(
            "split-invariance violated: whole=({} msgs, {:?}) split=({} msgs, {:?})",
            whole.msgs.len(),
            whole.err,
            split.msgs.len(),
            split.err
        ));
    }
    for d in [&whole, &split] {
        if d.max_buffered == usize::MAX {
            return Err("poisoned FrameDecoder kept buffering or cleared its error".into());
        }
        if d.max_buffered > MAX_FRAME + FRAME_HEADER {
            return Err(format!(
                "buffering exceeded bound: {} bytes live after drain",
                d.max_buffered
            ));
        }
    }

    if direct_ok || !whole.msgs.is_empty() {
        Ok(Exec::Accepted)
    } else {
        Ok(Exec::Rejected)
    }
}

/// Mutational fuzz loop.
pub fn run(seed: u64, iters: u64) -> Report {
    let mut report = Report::new("wire", seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        // A short stream of valid frames...
        let n = rng.gen_range(1usize..=3);
        let mut stream = Vec::new();
        for _ in 0..n {
            stream.extend_from_slice(&gen_message(&mut rng).to_frame());
        }
        // ...usually corrupted; sometimes also a bare payload (no header)
        // to reach Message::decode's accept path directly.
        if rng.gen_bool(0.25) {
            stream = gen_message(&mut rng).encode();
        }
        if rng.gen_bool(0.75) {
            mutate(&mut rng, &mut stream);
        }
        exec_one(&mut report, &stream, || check(&stream));
    }
    report
}
