//! Rendezvous subscriber churn: endpoints connect, receive the replay of
//! retained experiments, and disconnect — over and over. The server must
//! not leak subscriber slots across the churn, and the `plab-obs` view
//! (subscriber gauge, announce counter, fan-out histogram) must agree
//! with the server's own accounting at every step.

use packetlab::cert::{CertPayload, Certificate, Restrictions};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::rendezvous::{RendezvousServer, RvMessage};
use plab_crypto::{KeyHash, Keypair};
use plab_obs::metrics::{counter, gauge, MetricValue};

fn publish_message(name: &str, rv_operator: &Keypair, experimenter: &Keypair) -> RvMessage {
    let deleg = Certificate::sign(
        rv_operator,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions::none(),
    );
    let descriptor = ExperimentDescriptor {
        name: name.into(),
        controller_addr: "10.0.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let leaf = Certificate::sign(
        experimenter,
        CertPayload::Experiment(descriptor.hash()),
        Restrictions::none(),
    );
    RvMessage::Publish {
        descriptor: descriptor.encode(),
        chain: vec![deleg.encode(), leaf.encode()],
        keys: vec![
            *rv_operator.public.as_bytes(),
            *experimenter.public.as_bytes(),
        ],
    }
}

fn publish(
    server: &mut RendezvousServer,
    sid: u64,
    name: &str,
    rv_operator: &Keypair,
    experimenter: &Keypair,
) -> Vec<(u64, RvMessage)> {
    server.on_message(sid, publish_message(name, rv_operator, experimenter))
}

/// `msg` behind its length prefix, as it travels on the rendezvous port.
fn frame(msg: &RvMessage) -> Vec<u8> {
    let payload = msg.encode();
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

#[test]
fn subscriber_churn_leaks_no_slots() {
    plab_obs::enable();
    plab_obs::reset();
    let rv_operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let channel = KeyHash::of(&rv_operator.public).0;
    let mut server = RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000);

    // One retained experiment so every subscribe gets a replay; published
    // into an empty room, so its fan-out is zero.
    let out = publish(&mut server, 1, "churn", &rv_operator, &experimenter);
    assert_eq!(out.len(), 1, "just the PublishOk — no subscribers yet");

    // 1000 subscribe/unsubscribe cycles under fresh session ids, as
    // reconnecting endpoints present. Slots and gauge return to baseline
    // every cycle; a duplicate close must not underflow either.
    for cycle in 0..1_000u64 {
        let sid = 1_000 + cycle;
        let replay = server.on_message(
            sid,
            RvMessage::Subscribe {
                channels: vec![channel],
            },
        );
        assert_eq!(replay.len(), 1, "retained experiment replayed on subscribe");
        assert_eq!(server.subscriber_count(), 1);
        assert_eq!(gauge("rendezvous.subscribers"), 1);
        server.on_session_closed(sid);
        server.on_session_closed(sid);
        assert_eq!(server.subscriber_count(), 0, "slot leaked on cycle {cycle}");
        assert_eq!(
            gauge("rendezvous.subscribers"),
            0,
            "gauge leaked on cycle {cycle}"
        );
    }

    // After the churn the room is empty again: a second publish fans out
    // to nobody, exactly like the first.
    let out = publish(&mut server, 2, "churn-after", &rv_operator, &experimenter);
    assert_eq!(out.len(), 1, "no leaked subscriber receives the announce");

    // The metric view agrees end to end: two publishes, both with zero
    // fan-out, and every announce was a subscribe replay.
    assert_eq!(counter("rendezvous.publishes"), 2);
    assert_eq!(counter("rendezvous.publish_rejects"), 0);
    assert_eq!(
        counter("rendezvous.announces"),
        1_000,
        "one replay per subscribe"
    );
    let snap = plab_obs::metrics::snapshot();
    let (_, fanout) = snap
        .iter()
        .find(|(n, _)| *n == "rendezvous.fanout_per_publish")
        .expect("fan-out histogram registered");
    match fanout {
        MetricValue::Histogram {
            count,
            sum,
            buckets,
        } => {
            assert_eq!(*count, 2, "both publishes observed");
            assert_eq!(*sum, 0, "fan-out stayed at the empty-room baseline");
            assert_eq!(buckets.as_slice(), &[(0, 2)]);
        }
        other => panic!("expected histogram, got {other:?}"),
    }
    plab_obs::disable();
}

/// A subscriber that hangs up while a publish is in flight must not be
/// woken on its stale slot: the harness prunes the dead session during
/// the fan-out batch, the announce reaches only live subscribers, and
/// the whole interleaving replays bit-identically.
#[test]
fn churn_during_publish_skips_stale_slots() {
    use packetlab::harness::{SimNet, RENDEZVOUS_PORT};
    use packetlab::wire::FrameDecoder;
    use plab_netsim::{LinkParams, TopologyBuilder, SECOND};
    use std::net::Ipv4Addr;

    let run = || {
        plab_obs::enable();
        plab_obs::reset();
        let rv_operator = Keypair::from_seed(&[1; 32]);
        let experimenter = Keypair::from_seed(&[2; 32]);
        let channel = KeyHash::of(&rv_operator.public).0;

        let mut t = TopologyBuilder::new();
        let r = t.router("r", Ipv4Addr::new(10, 0, 0, 254));
        let rv = t.host("rv", Ipv4Addr::new(10, 0, 0, 1));
        let publisher = t.host("pub", Ipv4Addr::new(10, 0, 0, 2));
        let sub1 = t.host("sub1", Ipv4Addr::new(10, 0, 0, 3));
        let sub2 = t.host("sub2", Ipv4Addr::new(10, 0, 0, 4));
        for h in [rv, publisher, sub1, sub2] {
            t.link(r, h, LinkParams::new(1, 0));
        }
        let mut net = SimNet::new(t.build());
        net.add_rendezvous(
            rv,
            RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000),
        );
        let rv_addr = Ipv4Addr::new(10, 0, 0, 1);

        // The publisher connects first, taking the lowest sid: its publish
        // drains before the subscriber slots in the same servicing pass —
        // the ordering that exposes a stale slot.
        let pub_conn = net.sim.tcp_connect(publisher, rv_addr, RENDEZVOUS_PORT);
        net.run_until(SECOND);
        let c1 = net.sim.tcp_connect(sub1, rv_addr, RENDEZVOUS_PORT);
        net.sim.tcp_send(
            sub1,
            c1,
            &frame(&RvMessage::Subscribe {
                channels: vec![channel],
            }),
        );
        let c2 = net.sim.tcp_connect(sub2, rv_addr, RENDEZVOUS_PORT);
        net.sim.tcp_send(
            sub2,
            c2,
            &frame(&RvMessage::Subscribe {
                channels: vec![channel],
            }),
        );
        net.run_until(2 * SECOND);
        assert_eq!(net.rendezvous_server(0).subscriber_count(), 2);

        // sub1 unsubscribes (hangs up) exactly as a publish goes out.
        // Deliver the FIN and the publish bytes with *no* harness
        // servicing in between — one pass then sees a publish batch whose
        // subscriber set still names the departed session.
        net.sim.tcp_close(sub1, c1);
        let msg = publish_message("churn-mid-publish", &rv_operator, &experimenter);
        net.sim.tcp_send(publisher, pub_conn, &frame(&msg));
        let deadline = net.sim.now() + SECOND;
        net.sim.run_until(deadline);
        net.process();

        // The stale slot was pruned inside the batch, not woken.
        assert_eq!(
            net.rendezvous_server(0).subscriber_count(),
            1,
            "departed subscriber still holds a slot after the publish batch"
        );

        // The live subscriber gets the announce.
        net.run_until(net.sim.now() + SECOND);
        let mut dec = FrameDecoder::new();
        loop {
            let data = net.sim.tcp_recv(sub2, c2, 65536);
            if data.is_empty() {
                break;
            }
            dec.extend(&data);
        }
        let mut announces = 0u32;
        while let Ok(Some(payload)) = dec.next_frame() {
            if let Some(RvMessage::Announce { .. }) = RvMessage::decode(&payload) {
                announces += 1;
            }
        }
        assert_eq!(announces, 1, "live subscriber missed the announce");

        // The departed subscriber was never woken: nothing readable
        // beyond what its own close already drained.
        assert!(net.sim.tcp_recv(sub1, c1, 65536).is_empty());

        let published = counter("rendezvous.publishes");
        let announced = counter("rendezvous.announces");
        plab_obs::disable();
        (published, announced, net.sim.now())
    };

    // Same world, same interleaving: the run is a pure function of the
    // spec even with churn inside the publish batch.
    assert_eq!(run(), run());
}

/// A subscriber whose stream turns to garbage (a length prefix above
/// `MAX_FRAME` poisons its decoder for good) is hung up on in the round
/// that sees it: its slot is freed while its connection is still open on
/// its own side, and its neighbour goes on receiving announcements.
#[test]
fn poisoned_stream_frees_the_slot_and_spares_the_neighbour() {
    use packetlab::harness::{SimNet, RENDEZVOUS_PORT};
    use packetlab::wire::FrameDecoder;
    use plab_netsim::{LinkParams, TopologyBuilder, SECOND};
    use std::net::Ipv4Addr;

    let rv_operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let channel = KeyHash::of(&rv_operator.public).0;

    let mut t = TopologyBuilder::new();
    let r = t.router("r", Ipv4Addr::new(10, 0, 0, 254));
    let rv = t.host("rv", Ipv4Addr::new(10, 0, 0, 1));
    let publisher = t.host("pub", Ipv4Addr::new(10, 0, 0, 2));
    let sub1 = t.host("sub1", Ipv4Addr::new(10, 0, 0, 3));
    let sub2 = t.host("sub2", Ipv4Addr::new(10, 0, 0, 4));
    for h in [rv, publisher, sub1, sub2] {
        t.link(r, h, LinkParams::new(1, 0));
    }
    let mut net = SimNet::new(t.build());
    net.add_rendezvous(
        rv,
        RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000),
    );
    let rv_addr = Ipv4Addr::new(10, 0, 0, 1);

    let c1 = net.sim.tcp_connect(sub1, rv_addr, RENDEZVOUS_PORT);
    net.sim.tcp_send(
        sub1,
        c1,
        &frame(&RvMessage::Subscribe {
            channels: vec![channel],
        }),
    );
    let c2 = net.sim.tcp_connect(sub2, rv_addr, RENDEZVOUS_PORT);
    net.sim.tcp_send(
        sub2,
        c2,
        &frame(&RvMessage::Subscribe {
            channels: vec![channel],
        }),
    );
    net.run_until(SECOND);
    assert_eq!(net.rendezvous_server(0).subscriber_count(), 2);

    // sub1 sends a corrupt header and keeps its connection open.
    net.sim.tcp_send(sub1, c1, &u32::MAX.to_le_bytes());
    net.run_until(2 * SECOND);
    assert_eq!(
        net.rendezvous_server(0).subscriber_count(),
        1,
        "a poisoned session kept its subscriber slot"
    );
    assert!(
        net.sim.tcp_closed(sub1, c1) || net.sim.tcp_peer_done(sub1, c1),
        "the server did not hang up on the poisoned stream"
    );

    // The neighbour still receives the next announce.
    let msg = publish_message("after-poison", &rv_operator, &experimenter);
    let pub_conn = net.sim.tcp_connect(publisher, rv_addr, RENDEZVOUS_PORT);
    net.sim.tcp_send(publisher, pub_conn, &frame(&msg));
    net.run_until(3 * SECOND);
    let mut dec = FrameDecoder::new();
    loop {
        let data = net.sim.tcp_recv(sub2, c2, 65536);
        if data.is_empty() {
            break;
        }
        dec.extend(&data);
    }
    let mut announces = 0u32;
    while let Ok(Some(payload)) = dec.next_frame() {
        if let Some(RvMessage::Announce { .. }) = RvMessage::decode(&payload) {
            announces += 1;
        }
    }
    assert_eq!(announces, 1, "the neighbour missed the announce");
}

/// A publisher that hangs up right behind two publishes: FIN and frames
/// reach the server in one servicing pass, so the first `PublishOk` finds
/// its own session's connection closed. The session must outlive the frames
/// it buffered (pruning it there made the next frame's lookup panic) and be
/// gone by the end of the pass.
#[test]
fn publisher_gone_before_its_ack_still_publishes() {
    use packetlab::harness::{SimNet, RENDEZVOUS_PORT};
    use plab_netsim::{LinkParams, TopologyBuilder, SECOND};
    use std::net::Ipv4Addr;

    let rv_operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let mut t = TopologyBuilder::new();
    let r = t.router("r", Ipv4Addr::new(10, 0, 0, 254));
    let rv = t.host("rv", Ipv4Addr::new(10, 0, 0, 1));
    let publisher = t.host("pub", Ipv4Addr::new(10, 0, 0, 2));
    for h in [rv, publisher] {
        t.link(r, h, LinkParams::new(1, 0));
    }
    let mut net = SimNet::new(t.build());
    net.add_rendezvous(
        rv,
        RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000),
    );
    let rv_addr = Ipv4Addr::new(10, 0, 0, 1);
    let conn = net.sim.tcp_connect(publisher, rv_addr, RENDEZVOUS_PORT);
    net.run_until(SECOND);
    let msg = publish_message("fire-and-forget", &rv_operator, &experimenter);
    net.sim.tcp_send(publisher, conn, &frame(&msg));
    net.sim.tcp_send(publisher, conn, &frame(&msg));
    net.sim.tcp_close(publisher, conn);
    let deadline = net.sim.now() + SECOND;
    net.sim.run_until(deadline);
    net.process();
    assert_eq!(net.rendezvous_server(0).published_count(), 2);
}
