//! Property tests: codec round-trips and parser robustness across crates.

use packetlab::cert::{CertPayload, Certificate, Restrictions};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::rendezvous::RvMessage;
use packetlab::wire::{
    Command, ErrCode, FrameDecoder, Message, Notification, Proto, Response, MAX_FRAME,
};
use plab_crypto::{KeyHash, Keypair};
use proptest::prelude::*;

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![Just(Proto::Raw), Just(Proto::Udp), Just(Proto::Tcp)]
}

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        (any::<u32>(), arb_proto(), any::<u16>(), any::<u32>(), any::<u16>()).prop_map(
            |(sktid, proto, locport, remaddr, remport)| Command::NOpen {
                sktid,
                proto,
                locport,
                remaddr,
                remport
            }
        ),
        any::<u32>().prop_map(|sktid| Command::NClose { sktid }),
        (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(sktid, time, data)| Command::NSend { sktid, time, data }),
        (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..128))
            .prop_map(|(sktid, time, filt)| Command::NCap { sktid, time, filt }),
        any::<u64>().prop_map(|time| Command::NPoll { time }),
        (any::<u32>(), any::<u32>()).prop_map(|(memaddr, bytecnt)| Command::MRead {
            memaddr,
            bytecnt
        }),
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(memaddr, data)| Command::MWrite { memaddr, data }),
        Just(Command::Yield),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        any::<u64>().prop_map(|tag| Response::SendQueued { tag }),
        prop::collection::vec(any::<u8>(), 0..128).prop_map(|data| Response::Mem { data }),
        (
            prop::collection::vec((any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)), 0..8),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(packets, dropped_packets, dropped_bytes)| Response::Poll {
                packets,
                dropped_packets,
                dropped_bytes
            }),
        (arb_errcode(), ".{0,48}")
            .prop_map(|(code, msg)| Response::Err { code, msg: msg.into() }),
    ]
}

fn arb_errcode() -> impl Strategy<Value = ErrCode> {
    prop_oneof![
        Just(ErrCode::Auth),
        Just(ErrCode::BadSocket),
        Just(ErrCode::Denied),
        Just(ErrCode::Malformed),
        Just(ErrCode::BadMemory),
        Just(ErrCode::Suspended),
        Just(ErrCode::Unsupported),
        Just(ErrCode::Limit),
    ]
}

fn arb_auth() -> impl Strategy<Value = Message> {
    (
        prop::collection::vec(any::<u8>(), 0..64),
        prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..4),
        prop::collection::vec(any::<[u8; 32]>(), 0..4),
        any::<u8>(),
        any::<[u8; 32]>(),
        any::<[u8; 32]>(),
    )
        .prop_map(|(descriptor, chain, keys, priority, proof_a, proof_b)| {
            let mut proof = [0u8; 64];
            proof[..32].copy_from_slice(&proof_a);
            proof[32..].copy_from_slice(&proof_b);
            Message::Auth { descriptor, chain, keys, priority, proof }
        })
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u8>().prop_map(|version| Message::Hello { version }),
        (any::<u8>(), any::<[u8; 32]>())
            .prop_map(|(version, nonce)| Message::HelloAck { version, nonce }),
        arb_auth(),
        arb_response().prop_map(Message::Resp),
        any::<u8>().prop_map(|p| Message::Notify(Notification::Interrupted { by_priority: p })),
        Just(Message::Notify(Notification::Resumed)),
        Just(Message::AuthOk),
        (any::<u64>(), arb_command()).prop_map(|(seq, cmd)| Message::CmdSeq { seq, cmd }),
        (any::<u64>(), arb_response()).prop_map(|(seq, resp)| Message::RespSeq { seq, resp }),
    ]
}

/// One piece of a control stream: a message's frame, a framed payload of
/// random bytes (mostly undecodable), a header over `MAX_FRAME`, or bytes
/// with no framing at all.
fn arb_stream_piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_message().prop_map(|m| m.to_frame()),
        arb_message().prop_map(|m| m.to_frame()),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(|p| {
            let mut frame = (p.len() as u32).to_le_bytes().to_vec();
            frame.extend(p);
            frame
        }),
        (MAX_FRAME as u32 + 1..=u32::MAX).prop_map(|len| len.to_le_bytes().to_vec()),
        prop::collection::vec(any::<u8>(), 0..16),
    ]
}

proptest! {
    /// `next_message` decodes in the decoder's buffer what `next_frame`
    /// would have copied out: over random, truncated, oversized-header and
    /// undecodable streams fed in arbitrary pieces, it returns the same
    /// messages, leaves the same `buffered()` after each, and reports the
    /// same first error for good. Only an undecodable payload differs on
    /// purpose: it poisons the stream, dropping what was buffered.
    #[test]
    fn in_place_decode_matches_frame_then_decode(
        pieces in prop::collection::vec(arb_stream_piece(), 0..8),
        keep in any::<u16>(),
        cuts in prop::collection::vec(any::<u16>(), 0..8),
    ) {
        let mut stream = pieces.concat();
        stream.truncate(keep as usize % (stream.len() + 1));
        let mut points: Vec<usize> = cuts.iter().map(|c| *c as usize % (stream.len() + 1)).collect();
        points.extend([0, stream.len()]);
        points.sort_unstable();

        let (mut in_place, mut copied) = (FrameDecoder::new(), FrameDecoder::new());
        // The first error, and whether it was an undecodable payload.
        let (mut failed, mut poisoned) = (None, false);
        for piece in points.windows(2).map(|w| &stream[w[0]..w[1]]) {
            in_place.extend(piece);
            copied.extend(piece);
            loop {
                let (want, undecodable) = match failed {
                    Some(e) => (Err(e), false),
                    None => match copied.next_frame() {
                        Ok(Some(p)) => {
                            let msg = Message::decode(&p);
                            let bad = msg.is_err();
                            (msg.map(Some), bad)
                        }
                        other => (other.map(|_| None), false),
                    },
                };
                prop_assert_eq!(in_place.next_message(), want.clone());
                poisoned |= undecodable;
                prop_assert_eq!(in_place.buffered(), if poisoned { 0 } else { copied.buffered() });
                match want {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
        }
        if let Some(e) = failed {
            prop_assert_eq!(in_place.next_message(), Err::<Option<Message>, _>(e), "the first error sticks");
        }
    }

    #[test]
    fn wire_message_roundtrip(msg in arb_message()) {
        let enc = msg.encode();
        prop_assert_eq!(Message::decode(&enc), Ok(msg.clone()));
        // The frame is that payload, built in place behind a header that
        // was back-filled once its length was known.
        let frame = msg.to_frame();
        prop_assert_eq!(&frame[..4], &(enc.len() as u32).to_le_bytes()[..]);
        prop_assert_eq!(&frame[4..], &enc[..]);
        let mut dec = packetlab::wire::FrameDecoder::new();
        dec.extend(&frame);
        prop_assert_eq!(dec.next_message(), Ok(Some(msg)));
        prop_assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn wire_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn frame_decoder_reassembles_arbitrary_chunking(
        msgs in prop::collection::vec(arb_message(), 1..5),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(m.to_frame());
        }
        let mut dec = packetlab::wire::FrameDecoder::new();
        let mut got = Vec::new();
        for c in stream.chunks(chunk) {
            dec.extend(c);
            while let Some(m) = dec.next_message().unwrap() {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
    }

    /// Stronger than fixed-size chunking: the stream is cut at an
    /// *arbitrary partition* (uneven pieces, empty pieces included) and the
    /// decoded sequence must be identical to feeding it all at once.
    #[test]
    fn frame_decoder_split_invariance_arbitrary_partition(
        msgs in prop::collection::vec(arb_message(), 1..5),
        cuts in prop::collection::vec(any::<u16>(), 0..12),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(m.to_frame());
        }
        let mut points: Vec<usize> = cuts.iter().map(|c| *c as usize % (stream.len() + 1)).collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();

        let drain = |chunks: &[&[u8]]| -> Vec<Message> {
            let mut dec = packetlab::wire::FrameDecoder::new();
            let mut got = Vec::new();
            for c in chunks {
                dec.extend(c);
                while let Some(m) = dec.next_message().unwrap() {
                    got.push(m);
                }
            }
            got
        };

        let whole = drain(&[&stream]);
        let pieces: Vec<&[u8]> = points.windows(2).map(|w| &stream[w[0]..w[1]]).collect();
        let split = drain(&pieces);
        prop_assert_eq!(&whole, &msgs);
        prop_assert_eq!(split, whole);
    }

    #[test]
    fn rv_message_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = RvMessage::decode(&bytes);
    }

    #[test]
    fn descriptor_roundtrip(
        name in ".{0,40}",
        addr in "[0-9.:]{0,20}",
        url in ".{0,60}",
        key in any::<[u8; 32]>(),
    ) {
        let d = ExperimentDescriptor {
            name,
            controller_addr: addr,
            info_url: url,
            experimenter: KeyHash(key),
        };
        prop_assert_eq!(ExperimentDescriptor::decode(&d.encode()), Some(d));
    }

    #[test]
    fn descriptor_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = ExperimentDescriptor::decode(&bytes);
    }

    #[test]
    fn certificate_roundtrip(
        seed in any::<u8>(),
        subject in any::<[u8; 32]>(),
        not_before in proptest::option::of(any::<u64>()),
        not_after in proptest::option::of(any::<u64>()),
        monitor in proptest::option::of(prop::collection::vec(any::<u8>(), 0..64)),
        max_buffer in proptest::option::of(any::<u64>()),
        max_priority in proptest::option::of(any::<u8>()),
        experiment in any::<bool>(),
    ) {
        let kp = Keypair::from_seed(&[seed; 32]);
        let payload = if experiment {
            CertPayload::Experiment(plab_crypto::sha256::Digest256(subject))
        } else {
            CertPayload::Delegation(KeyHash(subject))
        };
        let cert = Certificate::sign(&kp, payload, Restrictions {
            not_before,
            not_after,
            monitor,
            max_buffer_bytes: max_buffer,
            max_priority,
        });
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        prop_assert_eq!(&decoded, &cert);
        prop_assert!(decoded.verify_signature(&kp.public));
    }

    #[test]
    fn certificate_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Certificate::decode(&bytes);
    }
}
