//! Property tests on the network simulator: conservation (no duplication,
//! no spontaneous packets), FIFO ordering, TTL behaviour, and crypto/packet
//! invariants used across the stack.

use plab_netsim::{LinkParams, TopologyBuilder, SECOND};
use plab_packet::{builder, ipv4};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn a(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n.max(1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every UDP datagram sent over a lossless path is delivered exactly
    /// once, in order.
    #[test]
    fn lossless_udp_conservation(
        count in 1usize..40,
        latency_ms in 1u64..50,
        payload_len in 0usize..512,
    ) {
        let mut t = TopologyBuilder::new();
        let h1 = t.host("h1", a(1));
        let r = t.router("r", a(254));
        let h2 = t.host("h2", a(2));
        t.link(h1, r, LinkParams::new(latency_ms, 0));
        t.link(r, h2, LinkParams::new(latency_ms, 0));
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        for i in 0..count {
            let mut payload = vec![0u8; payload_len.max(2)];
            payload[0] = i as u8;
            payload[1] = (i >> 8) as u8;
            sim.udp_send(h1, 5000, a(2), 7, &payload);
        }
        sim.run_until(100 * SECOND);
        let got = sim.udp_recv(h2, 7);
        prop_assert_eq!(got.len(), count, "exactly-once delivery");
        for (i, (_, src, sport, payload)) in got.iter().enumerate() {
            prop_assert_eq!(*src, a(1));
            prop_assert_eq!(*sport, 5000);
            prop_assert_eq!(payload[0] as usize | ((payload[1] as usize) << 8), i, "FIFO order");
        }
    }

    /// With loss probability p, delivered + dropped == sent, and arrivals
    /// remain in FIFO order.
    #[test]
    fn lossy_link_conservation(seed in any::<u64>(), loss in 0.0f64..0.9) {
        let mut t = TopologyBuilder::new();
        t.seed(seed);
        let h1 = t.host("h1", a(1));
        let h2 = t.host("h2", a(2));
        t.link(h1, h2, LinkParams::new(1, 0).with_loss(loss));
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        let count = 60;
        for i in 0..count {
            sim.udp_send(h1, 5000, a(2), 7, &[i as u8, (i >> 8) as u8]);
        }
        sim.run_until(100 * SECOND);
        let delivered = sim.udp_recv(h2, 7);
        let dropped = sim.drops(plab_netsim::DropReason::RandomLoss);
        prop_assert_eq!(delivered.len() as u64 + dropped, count as u64);
        // FIFO among survivors.
        let seqs: Vec<usize> = delivered
            .iter()
            .map(|(_, _, _, p)| p[0] as usize | ((p[1] as usize) << 8))
            .collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(seqs, sorted, "no reordering on FIFO links");
    }

    /// A probe with TTL t on a path with r routers either expires at
    /// router t (t <= r) or reaches the destination (t > r).
    #[test]
    fn ttl_semantics(routers in 1usize..6, ttl in 1u8..10) {
        let mut t = TopologyBuilder::new();
        let src = t.host("src", a(1));
        let mut prev = src;
        let mut router_addrs = Vec::new();
        for i in 0..routers {
            let addr = Ipv4Addr::new(10, 0, 1, i as u8 + 1);
            let r = t.router(&format!("r{i}"), addr);
            t.link(prev, r, LinkParams::new(1, 0));
            router_addrs.push(addr);
            prev = r;
        }
        let dst_addr = a(99);
        let dst = t.host("dst", dst_addr);
        t.link(prev, dst, LinkParams::new(1, 0));
        let mut sim = t.build();
        let raw = sim.raw_open(src);
        let probe = builder::icmp_echo_request(a(1), dst_addr, ttl, 7, 1, &[]);
        sim.raw_send(src, probe);
        sim.run_until(100 * SECOND);
        let got = sim.raw_recv(src, raw);
        prop_assert_eq!(got.len(), 1, "exactly one answer");
        let view = ipv4::Ipv4View::new_unchecked(&got[0].1).unwrap();
        if (ttl as usize) <= routers {
            prop_assert_eq!(view.src(), router_addrs[ttl as usize - 1], "time exceeded at hop ttl");
        } else {
            prop_assert_eq!(view.src(), dst_addr, "echo reply from destination");
        }
    }

    /// Serialization pacing: burst arrival spacing equals the datagram
    /// serialization time at the configured bandwidth.
    #[test]
    fn bandwidth_pacing_exact(mbps in 1u64..100, payload in 100usize..1400) {
        let mut t = TopologyBuilder::new();
        let h1 = t.host("h1", a(1));
        let h2 = t.host("h2", a(2));
        t.link(h1, h2, LinkParams::new(0, mbps));
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        for _ in 0..5 {
            sim.udp_send(h1, 5000, a(2), 7, &vec![0u8; payload]);
        }
        sim.run_until(1000 * SECOND);
        let got = sim.udp_recv(h2, 7);
        prop_assert_eq!(got.len(), 5);
        let ip_bytes = payload + 28;
        let expect_gap = plab_netsim::time::serialization_ns(ip_bytes, mbps * 1_000_000);
        for w in got.windows(2) {
            prop_assert_eq!(w[1].0 - w[0].0, expect_gap);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ed25519 sign/verify round-trips for arbitrary keys and messages,
    /// and rejects any single-bit corruption of the message.
    #[test]
    fn ed25519_roundtrip_and_corruption(
        seed in any::<[u8; 32]>(),
        msg in prop::collection::vec(any::<u8>(), 0..128),
        flip in any::<usize>(),
    ) {
        let kp = plab_crypto::Keypair::from_seed(&seed);
        let sig = kp.sign(&msg);
        prop_assert!(plab_crypto::ed25519::verify(&kp.public, &msg, &sig));
        if !msg.is_empty() {
            let mut bad = msg.clone();
            let idx = flip % bad.len();
            bad[idx] ^= 1 << (flip % 8);
            prop_assert!(!plab_crypto::ed25519::verify(&kp.public, &bad, &sig));
        }
    }

    /// IPv4 build→parse round-trips arbitrary headers and payloads.
    #[test]
    fn ipv4_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        ttl in 1u8..=255,
        proto in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut hdr = ipv4::Ipv4Header::new(Ipv4Addr::from(src), Ipv4Addr::from(dst), proto);
        hdr.ttl = ttl;
        let pkt = hdr.build(&payload);
        let view = ipv4::Ipv4View::new(&pkt).unwrap();
        prop_assert_eq!(view.src(), Ipv4Addr::from(src));
        prop_assert_eq!(view.dst(), Ipv4Addr::from(dst));
        prop_assert_eq!(view.ttl(), ttl);
        prop_assert_eq!(view.protocol(), proto);
        prop_assert_eq!(view.payload(), &payload[..]);
    }

    /// The IPv4 parser never panics on arbitrary bytes.
    #[test]
    fn ipv4_parser_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = ipv4::Ipv4View::new(&bytes);
        let _ = plab_packet::icmp::parse(&bytes);
    }

    /// TTL decrement keeps the checksum valid for every starting TTL.
    #[test]
    fn ttl_decrement_checksum(ttl in 2u8..=255) {
        let mut hdr = ipv4::Ipv4Header::new(a(1), a(2), 17);
        hdr.ttl = ttl;
        let mut pkt = hdr.build(b"x");
        prop_assert!(ipv4::decrement_ttl(&mut pkt));
        prop_assert!(ipv4::Ipv4View::new(&pkt).is_ok(), "checksum survives decrement");
    }
}
