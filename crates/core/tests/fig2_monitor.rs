//! Figure 2: the traceroute monitor, compiled from Cpf, attached to the
//! endpoint operator's delegation certificate, and enforced during a real
//! experiment.
//!
//! "The endpoint operator would compile and attach this monitor to the
//! experiment certificate it issues to an experimenter."

use packetlab::cert::Restrictions;
use packetlab::controller::{experiments, ControlPlane, Controller, ControllerError, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use packetlab::wire::ErrCode;
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, NodeId, TopologyBuilder, MILLISECOND};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// The paper's Figure 2 monitor (with the paper's own dead-store bug
/// fixed: `ping_dst` is latched *before* `return len`).
pub const FIGURE2_MONITOR: &str = r#"
in_addr_t ping_dst = 0; // destination of traceroute

uint32_t send(const union packet * pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
        pkt->ip.proto == IPPROTO_ICMP &&
        pkt->ip.src == info->addr.ip &&
        pkt->ip.icmp.type == ICMP_ECHO_REQUEST)
    {
        ping_dst = pkt->ip.dst;
        return len; // allow
    } else
        return 0; // deny
}

uint32_t recv(const union packet * pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
        pkt->ip.proto == IPPROTO_ICMP && (
        (pkt->ip.icmp.type == ICMP_ECHO_REPLY &&
         pkt->ip.src == ping_dst) ||
        (pkt->ip.icmp.type == ICMP_TIME_EXCEEDED &&
         pkt->ip.icmp.orig.ip.src == info->addr.ip &&
         pkt->ip.icmp.orig.ip.dst == ping_dst)))
        return len; // allow
    else
        return 0; // deny
}
"#;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

struct World {
    net: Rc<RefCell<SimNet>>,
    controller: NodeId,
    endpoint_addr: Ipv4Addr,
    target_addr: Ipv4Addr,
    other_addr: Ipv4Addr,
}

fn build() -> (World, Keypair) {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.0.9.1".parse().unwrap());
    let endpoint = t.host("endpoint", "10.0.0.1".parse().unwrap());
    let racc = t.router("racc", "10.0.0.254".parse().unwrap());
    let r1 = t.router("r1", "10.0.1.254".parse().unwrap());
    let target = t.host("target", "10.0.3.1".parse().unwrap());
    let other = t.host("other", "10.0.4.1".parse().unwrap());
    t.link(endpoint, racc, LinkParams::new(5, 0));
    t.link(racc, controller, LinkParams::new(5, 0));
    t.link(racc, r1, LinkParams::new(5, 0));
    t.link(r1, target, LinkParams::new(5, 0));
    t.link(r1, other, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    (
        World {
            net: Rc::new(RefCell::new(net)),
            controller,
            endpoint_addr: "10.0.0.1".parse().unwrap(),
            target_addr: "10.0.3.1".parse().unwrap(),
            other_addr: "10.0.4.1".parse().unwrap(),
        },
        operator,
    )
}

fn connect_with_monitor(world: &World, operator: &Keypair) -> Controller<SimChannel> {
    let monitor = plab_cpf::compile(FIGURE2_MONITOR).unwrap().encode();
    let experimenter = kp(42);
    let descriptor = ExperimentDescriptor {
        name: "traceroute-under-monitor".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    // "The endpoint operator would compile and attach this monitor" — to
    // the delegation certificate.
    let creds = Credentials::issue(
        operator,
        &experimenter,
        descriptor,
        Restrictions {
            monitor: Some(monitor),
            ..Default::default()
        },
        1,
    );
    let chan = SimChannel::connect(&world.net, world.controller, world.endpoint_addr);
    Controller::connect(chan, &creds).unwrap()
}

#[test]
fn traceroute_succeeds_under_figure2_monitor() {
    let (world, operator) = build();
    let mut ctrl = connect_with_monitor(&world, &operator);
    // The authorized experiment works end-to-end: echo requests pass the
    // send monitor, time-exceeded and the final echo reply pass recv.
    let result = experiments::traceroute(&mut ctrl, world.target_addr, 10).unwrap();
    assert!(result.reached);
    let addrs: Vec<_> = result.hops.iter().filter_map(|h| h.addr).collect();
    assert_eq!(addrs.len(), 3, "racc, r1, target: {addrs:?}");
    assert_eq!(*addrs.last().unwrap(), world.target_addr);
}

#[test]
fn non_icmp_sends_denied() {
    let (world, operator) = build();
    let mut ctrl = connect_with_monitor(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let udp = plab_packet::builder::udp_datagram(src, world.target_addr, 1, 53, b"dns?");
    let err = ctrl.nsend(1, 0, udp).unwrap_err();
    assert!(matches!(err, ControllerError::Endpoint(ErrCode::Denied, _)));
    // Statistics: the endpoint counted the denial.
    let denied = world
        .net
        .borrow()
        .endpoint_agent(packetlab::harness::EndpointId::first())
        .denied_sends;
    assert_eq!(denied, 1);
}

#[test]
fn spoofed_source_denied() {
    let (world, operator) = build();
    let mut ctrl = connect_with_monitor(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    // Echo request claiming to be from another host: `pkt->ip.src ==
    // info->addr.ip` fails.
    let spoof =
        plab_packet::builder::icmp_echo_request(world.other_addr, world.target_addr, 64, 1, 1, &[]);
    let err = ctrl.nsend(1, 0, spoof).unwrap_err();
    assert!(matches!(err, ControllerError::Endpoint(ErrCode::Denied, _)));
}

#[test]
fn unrelated_replies_not_delivered() {
    let (world, operator) = build();
    let mut ctrl = connect_with_monitor(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    // Capture-everything filter from the controller: the *monitor* still
    // gates what reaches it ("both packet filters used with ncap and
    // monitors attached to certificates determine which packets will be
    // returned to the controller").
    ctrl.ncap_cpf(
        1,
        u64::MAX,
        "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }",
    )
    .unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    // Latch ping_dst = target via a legitimate probe.
    let probe = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 1, 1, &[]);
    ctrl.nsend(1, 0, probe).unwrap();
    // Meanwhile, an unrelated host pings the endpoint: its echo *request*
    // reaches the endpoint, the endpoint's OS replies, but the monitor
    // forbids returning the request to the controller (wrong type/src).
    {
        let net = ctrl.channel().net();
        let mut n = net.borrow_mut();
        let other = n.sim.node_by_name("other").unwrap();
        let ping = plab_packet::builder::icmp_echo_request(
            world.other_addr,
            world.endpoint_addr,
            64,
            99,
            1,
            &[],
        );
        n.sim.raw_send(other, ping);
        let now = n.sim.now();
        n.run_until(now + 500 * MILLISECOND);
    }
    let t0 = ctrl.read_clock().unwrap();
    let poll = ctrl.npoll(t0 + 500 * MILLISECOND).unwrap();
    // Only the legitimate echo reply from the target appears.
    assert_eq!(poll.packets.len(), 1, "{:?}", poll.packets.len());
    let view = plab_packet::ipv4::Ipv4View::new_unchecked(&poll.packets[0].2).unwrap();
    assert_eq!(view.src(), world.target_addr);
}

#[test]
fn monitor_state_isolated_between_sessions() {
    // Each session instantiates its own monitor VM: ping_dst latched by
    // one experiment must not leak to another.
    let (world, operator) = build();
    let mut ctrl1 = connect_with_monitor(&world, &operator);
    ctrl1.nopen_raw(1).unwrap();
    let src = ctrl1.endpoint_addr().unwrap();
    let probe = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 1, 1, &[]);
    ctrl1.nsend(1, 0, probe).unwrap();
    ctrl1.yield_endpoint().unwrap();

    // Second experiment: its monitor's ping_dst is still 0, so a reply
    // from ctrl1's target must NOT be deliverable to it.
    let mut ctrl2 = connect_with_monitor(&world, &operator);
    ctrl2.nopen_raw(1).unwrap();
    ctrl2
        .ncap_cpf(
            1,
            u64::MAX,
            "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }",
        )
        .unwrap();
    {
        let net = ctrl2.channel().net();
        let mut n = net.borrow_mut();
        let target = n.sim.node_by_name("target").unwrap();
        let reply = plab_packet::builder::icmp_echo_reply(
            world.target_addr,
            world.endpoint_addr,
            1,
            1,
            &[],
        );
        n.sim.raw_send(target, reply);
        let now = n.sim.now();
        n.run_until(now + 500 * MILLISECOND);
    }
    let t0 = ctrl2.read_clock().unwrap();
    let poll = ctrl2.npoll(t0 + 200 * MILLISECOND).unwrap();
    assert!(poll.packets.is_empty(), "fresh monitor has ping_dst = 0");
}
