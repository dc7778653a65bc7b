//! Adversarial robustness of the endpoint agent: arbitrary byte streams
//! and arbitrary (decodable) message sequences from an untrusted
//! controller must never panic the endpoint or corrupt its sessions —
//! the agent is the trust boundary of the whole system.

use packetlab::endpoint::{EndpointAgent, EndpointConfig};
use packetlab::netstack::SimStack;
use packetlab::wire::{Command, FrameDecoder, Message, Proto};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder};
use proptest::prelude::*;

fn arb_proto() -> impl Strategy<Value = Proto> {
    prop_oneof![Just(Proto::Raw), Just(Proto::Udp), Just(Proto::Tcp)]
}

fn arb_command() -> impl Strategy<Value = Command> {
    prop_oneof![
        (
            any::<u32>(),
            arb_proto(),
            any::<u16>(),
            any::<u32>(),
            any::<u16>()
        )
            .prop_map(|(sktid, proto, locport, remaddr, remport)| Command::NOpen {
                sktid,
                proto,
                locport,
                remaddr,
                remport
            }),
        any::<u32>().prop_map(|sktid| Command::NClose { sktid }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(sktid, time, data)| Command::NSend { sktid, time, data }),
        (
            any::<u32>(),
            any::<u64>(),
            prop::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(sktid, time, filt)| Command::NCap { sktid, time, filt }),
        any::<u64>().prop_map(|time| Command::NPoll { time }),
        (any::<u32>(), any::<u32>()).prop_map(|(memaddr, bytecnt)| Command::MRead {
            memaddr,
            bytecnt: bytecnt % 4096,
        }),
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(memaddr, data)| Command::MWrite { memaddr, data }),
        Just(Command::Yield),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any::<u8>().prop_map(|version| Message::Hello { version }),
        // Small seqs: fresh commands, replays and evicted seqs alike.
        (0u64..32, arb_command()).prop_map(|(seq, cmd)| Message::CmdSeq { seq, cmd }),
        // Controller-bound messages sent *to* the endpoint (protocol abuse).
        Just(Message::AuthOk),
        (any::<u8>(), any::<[u8; 32]>())
            .prop_map(|(version, nonce)| Message::HelloAck { version, nonce }),
        // Garbage auth attempts.
        (
            prop::collection::vec(any::<u8>(), 0..64),
            prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..3),
            any::<u8>(),
            any::<[u8; 64]>()
        )
            .prop_map(|(descriptor, chain, priority, proof)| Message::Auth {
                descriptor,
                chain,
                keys: vec![[7; 32]],
                priority,
                proof,
            }),
    ]
}

fn harness() -> (plab_netsim::Sim, plab_netsim::NodeId, EndpointAgent) {
    let mut t = TopologyBuilder::new();
    let ep = t.host("ep", "10.0.0.1".parse().unwrap());
    let peer = t.host("peer", "10.0.0.2".parse().unwrap());
    t.link(ep, peer, LinkParams::new(1, 0));
    let sim = t.build();
    let operator = Keypair::from_seed(&[1; 32]);
    let agent = EndpointAgent::new(EndpointConfig {
        trusted_keys: vec![KeyHash::of(&operator.public)],
        ..Default::default()
    });
    (sim, ep, agent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any decodable message sequence on any session id: no panic, and the
    /// agent keeps accounting consistently.
    #[test]
    fn arbitrary_message_sequences_never_panic(
        msgs in prop::collection::vec((0u64..4, arb_message()), 0..25),
    ) {
        let (mut sim, node, mut agent) = harness();
        agent.on_session_open(1);
        agent.on_session_open(2);
        for (sid, msg) in msgs {
            let mut stack = SimStack::new(&mut sim, node);
            let out = agent.on_message(sid, msg, &mut stack);
            // All replies go to known sessions.
            for (to, _) in out {
                prop_assert!(to <= 2, "reply to unknown session {to}");
            }
            sim.run_until(sim.now() + 1_000_000);
        }
    }

    /// Arbitrary bytes fed to the frame decoder: no panic, and only whole,
    /// decodable messages ever come out.
    #[test]
    fn frame_decoder_handles_garbage(chunks in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..10)) {
        let mut dec = FrameDecoder::new();
        for c in chunks {
            dec.extend(&c);
            loop {
                match dec.next_message() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => return Ok(()), // corrupt stream detected: done
                }
            }
        }
    }

    /// Random packets hitting the endpoint host (deferred-OS path) while a
    /// session holds a capture-everything filter: no panic, dispositions
    /// stay within the defined set.
    #[test]
    fn arbitrary_packets_through_capture_path(
        packets in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..96), 0..20),
    ) {
        let (mut sim, node, mut agent) = harness();
        agent.on_session_open(1);
        // Install a raw socket + filter without authentication by driving
        // the packet path directly (on_packet is pre-session-agnostic).
        for pkt in packets {
            let mut stack = SimStack::new(&mut sim, node);
            let (_disposition, out) = agent.on_packet(sim_now(&stack), &pkt, &mut stack);
            prop_assert!(out.is_empty(), "no session, no frames");
        }
    }
}

fn sim_now(stack: &SimStack) -> u64 {
    use packetlab::netstack::NetStack;
    stack.clock()
}

/// Triaged from `proptest_agent.proptest-regressions` (shrunk case
/// `msgs = [(3, Hello { version: 2 })]`): a `Hello` arriving on a session
/// id the harness never opened — sessions 1 and 2 exist, 3 does not. The
/// agent must neither panic nor address a reply to the unknown session.
/// Checked in as a plain test so the case runs on every `cargo test`, not
/// only when proptest replays its seed file.
#[test]
fn hello_on_unknown_session_never_answers_it() {
    let (mut sim, node, mut agent) = harness();
    agent.on_session_open(1);
    agent.on_session_open(2);
    let mut stack = SimStack::new(&mut sim, node);
    let out = agent.on_message(3, Message::Hello { version: 2 }, &mut stack);
    for (to, _) in out {
        assert!(to <= 2, "reply addressed to unknown session {to}");
    }
    // The known sessions are unharmed and still count.
    assert_eq!(agent.session_count(), 2);
}
