//! End-to-end tests: controller ↔ endpoint over a simulated network.

use packetlab::cert::Restrictions;
use packetlab::controller::{experiments, ControlPlane, Controller, Credentials, SinkHost};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use packetlab::wire::ErrCode;
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, NodeId, TopologyBuilder, MILLISECOND, SECOND};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

fn a(x: u8, y: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, x, y)
}

/// The endpoint sits on a single access link (carrying both control and
/// measurement traffic, as §3.1 notes is the common case):
///
/// controller -- r0 -- racc -- endpoint
///                      |
///                     r1 -- r2 -- target
struct World {
    net: Rc<RefCell<SimNet>>,
    controller_node: NodeId,
    endpoint_addr: Ipv4Addr,
    target_addr: Ipv4Addr,
    router_addrs: Vec<Ipv4Addr>,
}

fn build_world(operator: &Keypair, endpoint_uplink_mbps: u64) -> World {
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", a(9, 1));
    let r0 = t.router("r0", a(9, 254));
    let racc = t.router("racc", a(0, 254));
    let endpoint = t.host("endpoint", a(0, 1));
    let r1 = t.router("r1", a(1, 254));
    let r2 = t.router("r2", a(2, 254));
    let target = t.host("target", a(3, 1));
    t.link(endpoint, racc, LinkParams::new(5, endpoint_uplink_mbps)); // access link
    t.link(racc, r0, LinkParams::new(5, 0));
    t.link(r0, controller, LinkParams::new(5, 0));
    t.link(racc, r1, LinkParams::new(5, 0));
    t.link(r1, r2, LinkParams::new(5, 0));
    t.link(r2, target, LinkParams::new(5, 0));
    let sim = t.build();

    let mut net = SimNet::new(sim);
    let config = EndpointConfig {
        trusted_keys: vec![KeyHash::of(&operator.public)],
        ..Default::default()
    };
    net.add_endpoint(endpoint, config);
    World {
        net: Rc::new(RefCell::new(net)),
        controller_node: controller,
        endpoint_addr: a(0, 1),
        target_addr: a(3, 1),
        router_addrs: vec![a(0, 254), a(1, 254), a(2, 254)],
    }
}

fn creds(operator: &Keypair, restrictions: Restrictions, priority: u8) -> Credentials {
    let experimenter = kp(42);
    let descriptor = ExperimentDescriptor {
        name: "e2e-test".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: "https://example.org/e2e".into(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    Credentials::issue(operator, &experimenter, descriptor, restrictions, priority)
}

fn connect(world: &World, c: &Credentials) -> Controller<SimChannel> {
    let chan = SimChannel::connect(&world.net, world.controller_node, world.endpoint_addr);
    Controller::connect(chan, c).expect("connect")
}

#[test]
fn connect_and_read_clock() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    let t1 = ctrl.read_clock().unwrap();
    let t2 = ctrl.read_clock().unwrap();
    assert!(t2 > t1, "endpoint clock advances with control RTTs");
}

#[test]
fn bad_credentials_rejected() {
    let operator = kp(1);
    let mallory = kp(66);
    let world = build_world(&operator, 0);
    let chan = SimChannel::connect(&world.net, world.controller_node, world.endpoint_addr);
    let err = match Controller::connect(chan, &creds(&mallory, Restrictions::none(), 10)) {
        Err(e) => e,
        Ok(_) => panic!("connect must fail"),
    };
    match err {
        packetlab::controller::ControllerError::Endpoint(ErrCode::Auth, msg) => {
            assert!(msg.contains("chain"), "{msg}");
        }
        other => panic!("expected auth error, got {other:?}"),
    }
}

#[test]
fn endpoint_info_fields() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    assert_eq!(ctrl.endpoint_addr().unwrap(), world.endpoint_addr);
    let flags = ctrl.read_info("flags").unwrap();
    assert_ne!(flags & plab_packet::layout::INFO_FLAG_RAW as u64, 0);
    assert_eq!(flags & plab_packet::layout::INFO_FLAG_NAT as u64, 0);
    assert_eq!(ctrl.read_info("mtu").unwrap(), 1500);
}

#[test]
fn mwrite_scratch_region() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    ctrl.mwrite(64, vec![1, 2, 3, 4]).unwrap();
    assert_eq!(ctrl.mread(64, 4).unwrap(), vec![1, 2, 3, 4]);
    // Read-only region rejected.
    let err = ctrl.mwrite(0, vec![9]).unwrap_err();
    assert!(matches!(
        err,
        packetlab::controller::ControllerError::Endpoint(ErrCode::BadMemory, _)
    ));
}

#[test]
fn clock_sync_estimates_offset() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    let sync = ctrl.sync_clock(5).unwrap();
    // Sim clocks are identical, so offset should be ~0 modulo half-RTT
    // asymmetry; control RTT is 30 ms (3 links × 5 ms × 2).
    assert!(sync.min_rtt >= 30 * MILLISECOND, "rtt {}", sync.min_rtt);
    assert!(
        sync.offset.abs() < 2 * MILLISECOND as i128,
        "offset {} should be near zero",
        sync.offset
    );
}

#[test]
fn ping_reproduces_rtt() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    let stats = experiments::ping(&mut ctrl, world.target_addr, 5, 50 * MILLISECOND, 16)
        .expect("ping runs");
    assert_eq!(stats.sent, 5);
    assert_eq!(stats.replies.len(), 5, "all replies received");
    // endpoint->target: 4 links × 5 ms each way = 40 ms RTT.
    for r in &stats.replies {
        assert_eq!(r.rtt, 40 * MILLISECOND, "seq {}", r.seq);
    }
    assert_eq!(stats.loss(), 0.0);
}

#[test]
fn traceroute_reproduces_path() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    let result = experiments::traceroute(&mut ctrl, world.target_addr, 10).expect("traceroute");
    assert!(result.reached, "destination reached");
    // Path from the endpoint: racc, r1, r2, target.
    let addrs: Vec<_> = result.hops.iter().filter_map(|h| h.addr).collect();
    assert_eq!(
        addrs,
        vec![
            world.router_addrs[0],
            world.router_addrs[1],
            world.router_addrs[2],
            world.target_addr
        ]
    );
    // RTTs increase with hop count: 10, 20, 30, 40 ms.
    let rtts: Vec<_> = result.hops.iter().filter_map(|h| h.rtt).collect();
    assert_eq!(
        rtts,
        vec![
            10 * MILLISECOND,
            20 * MILLISECOND,
            30 * MILLISECOND,
            40 * MILLISECOND
        ]
    );
}

#[test]
fn bandwidth_measurement_tracks_true_bandwidth() {
    let operator = kp(1);
    // Endpoint uplink = 8 Mbps.
    let world = build_world(&operator, 8);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    let est = experiments::measure_uplink_bandwidth(&mut ctrl, 9000, 50, 972, 200 * MILLISECOND)
        .expect("bandwidth");
    assert_eq!(est.received, 50);
    let mbps = est.bits_per_sec / 1e6;
    assert!(
        (mbps - 8.0).abs() < 0.4,
        "estimate {mbps:.2} Mbps should be ≈ 8 Mbps"
    );
}

#[test]
fn scheduled_send_timestamp_readable() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let t0 = ctrl.read_clock().unwrap();
    let when = t0 + 500 * MILLISECOND;
    let probe = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 1, 1, &[]);
    let tag = ctrl.nsend(1, when, probe).unwrap();
    // Before the scheduled time: no timestamp yet.
    assert_eq!(ctrl.read_send_time(tag).unwrap(), None);
    // Advance past it.
    let later = ctrl.now() + SECOND;
    ctrl.channel().wait_until(later);
    assert_eq!(ctrl.read_send_time(tag).unwrap(), Some(when));
}

#[test]
fn npoll_waits_until_deadline_when_no_data() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    ctrl.nopen_raw(1).unwrap();
    let t0 = ctrl.read_clock().unwrap();
    let deadline = t0 + 300 * MILLISECOND;
    let poll = ctrl.npoll(deadline).unwrap();
    assert!(poll.packets.is_empty());
    let now = ctrl.read_clock().unwrap();
    assert!(
        now >= deadline,
        "npoll returned at {now}, before deadline {deadline}"
    );
}

#[test]
fn monitor_restricts_sends() {
    let operator = kp(1);
    // Operator attaches an ICMP-only monitor to the delegation.
    let monitor = plab_cpf::compile(
        r#"
        uint32_t send(const union packet *pkt, uint32_t len) {
            if (pkt->ip.proto == IPPROTO_ICMP) return len;
            return 0;
        }
        "#,
    )
    .unwrap()
    .encode();
    let world = build_world(&operator, 0);
    let restrictions = Restrictions {
        monitor: Some(monitor),
        ..Default::default()
    };
    let mut ctrl = connect(&world, &creds(&operator, restrictions, 10));
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let icmp = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 1, 1, &[]);
    let udp = plab_packet::builder::udp_datagram(src, world.target_addr, 1, 2, b"x");
    ctrl.nsend(1, 0, icmp).expect("ICMP allowed");
    let err = ctrl.nsend(1, 0, udp).unwrap_err();
    assert!(matches!(
        err,
        packetlab::controller::ControllerError::Endpoint(ErrCode::Denied, _)
    ));
}

#[test]
fn priority_ceiling_enforced_at_auth() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let restrictions = Restrictions {
        max_priority: Some(5),
        ..Default::default()
    };
    let chan = SimChannel::connect(&world.net, world.controller_node, world.endpoint_addr);
    let err = match Controller::connect(chan, &creds(&operator, restrictions, 10)) {
        Err(e) => e,
        Ok(_) => panic!("connect must fail"),
    };
    assert!(matches!(
        err,
        packetlab::controller::ControllerError::Endpoint(ErrCode::Auth, _)
    ));
}

#[test]
fn capture_buffer_drop_accounting() {
    let operator = kp(1);
    let world = build_world(&operator, 0);
    // Tiny buffer: 2000 bytes.
    let restrictions = Restrictions {
        max_buffer_bytes: Some(2000),
        ..Default::default()
    };
    let mut ctrl = connect(&world, &creds(&operator, restrictions, 10));
    ctrl.nopen_raw(1).unwrap();
    ctrl.ncap_cpf(1, u64::MAX, experiments::ICMP_CAPTURE_FILTER)
        .unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    // Three probes with ~928-byte replies, all arriving before we poll:
    // only two fit in the 2000-byte buffer; the third is dropped and
    // accounted ("the npoll command also returns the number of packets
    // and bytes dropped due to buffer exhaustion").
    let t0 = ctrl.read_clock().unwrap();
    for seq in 0..3u16 {
        let probe = plab_packet::builder::icmp_echo_request(
            src,
            world.target_addr,
            64,
            experiments::PING_IDENT,
            seq,
            &vec![0u8; 900],
        );
        ctrl.nsend(1, t0 + 100 * MILLISECOND, probe).unwrap();
    }
    // Let all replies arrive before polling.
    let later = ctrl.now() + SECOND;
    ctrl.channel().wait_until(later);
    let poll = ctrl.npoll(0).unwrap();
    assert_eq!(poll.packets.len(), 2, "two replies fit the buffer");
    assert_eq!(poll.dropped_packets, 1, "third reply dropped");
    assert_eq!(poll.dropped_bytes, 928);
    // After draining, capture works again.
    let t1 = ctrl.read_clock().unwrap();
    let probe = plab_packet::builder::icmp_echo_request(
        src,
        world.target_addr,
        64,
        experiments::PING_IDENT,
        9,
        &[],
    );
    ctrl.nsend(1, t1, probe).unwrap();
    let poll = ctrl.npoll(t1 + SECOND).unwrap();
    assert_eq!(poll.packets.len(), 1);
    assert_eq!(poll.dropped_packets, 0);
}

#[test]
fn raw_socket_unsupported_endpoint() {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", a(9, 1));
    let endpoint = t.host("endpoint", a(0, 1));
    t.link(controller, endpoint, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    let config = EndpointConfig {
        trusted_keys: vec![KeyHash::of(&operator.public)],
        ..Default::default()
    };
    // Endpoint without raw privileges (software agent without root).
    net.add_endpoint_opts(endpoint, config, false, None);
    let net = Rc::new(RefCell::new(net));
    let chan = SimChannel::connect(&net, controller, a(0, 1));
    let mut ctrl = Controller::connect(chan, &creds(&operator, Restrictions::none(), 10)).unwrap();
    let err = ctrl.nopen_raw(1).unwrap_err();
    assert!(matches!(
        err,
        packetlab::controller::ControllerError::Endpoint(ErrCode::Unsupported, _)
    ));
    // UDP still works ("Endpoints that do not support the raw interface
    // are still useful").
    ctrl.nopen_udp(2, 5555, a(9, 1), 5555).unwrap();
}

#[test]
fn bandwidth_measures_uplink_not_downlink_on_asymmetric_link() {
    // ADSL-style access: 48 Mbps down, 8 Mbps up. §4 measures the UPLINK:
    // the endpoint's burst toward the controller is paced at 8 Mbps.
    let operator = kp(1);
    let mut t = plab_netsim::TopologyBuilder::new();
    let controller = t.host("controller", a(9, 1));
    let isp = t.router("isp", a(0, 254));
    let endpoint = t.host("endpoint", a(0, 1));
    t.link(controller, isp, LinkParams::new(5, 0));
    // ISP side is `a`, subscriber is `b`: down = a→b, up = b→a.
    t.link(isp, endpoint, LinkParams::asymmetric(5, 48, 8));
    let sim = t.build();
    let mut net = packetlab::harness::SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        packetlab::endpoint::EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    let world = World {
        net: Rc::new(RefCell::new(net)),
        controller_node: controller,
        endpoint_addr: a(0, 1),
        target_addr: a(9, 1),
        router_addrs: vec![],
    };
    let mut ctrl = connect(&world, &creds(&operator, Restrictions::none(), 10));
    let est = experiments::measure_uplink_bandwidth(&mut ctrl, 9100, 50, 1172, 200 * MILLISECOND)
        .expect("bandwidth");
    let mbps = est.bits_per_sec / 1e6;
    assert!(
        (mbps - 8.0).abs() < 0.5,
        "uplink estimate {mbps:.2} must be ~8 Mbps, not the 48 Mbps downlink"
    );
}

#[test]
fn expired_certificate_rejected_at_auth() {
    // The endpoint checks validity windows against its operator-configured
    // wall clock (§3.3: restrictions include a "validity period").
    let operator = kp(1);
    let world = build_world(&operator, 0);
    let expired = Restrictions {
        not_after: Some(1_600_000_000),
        ..Default::default()
    };
    let chan = SimChannel::connect(&world.net, world.controller_node, world.endpoint_addr);
    let err = match Controller::connect(chan, &creds(&operator, expired, 10)) {
        Err(e) => e,
        Ok(_) => panic!("expired chain must be refused"),
    };
    assert!(matches!(
        err,
        packetlab::controller::ControllerError::Endpoint(ErrCode::Auth, _)
    ));
    // A not-yet-valid chain is refused too.
    let future = Restrictions {
        not_before: Some(4_000_000_000),
        ..Default::default()
    };
    let chan = SimChannel::connect(&world.net, world.controller_node, world.endpoint_addr);
    assert!(Controller::connect(chan, &creds(&operator, future, 10)).is_err());
}
