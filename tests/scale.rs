//! Scale: one controller sequentially measuring through many endpoints —
//! the "run them on any endpoint exporting the PacketLab interface" story
//! at a RIPE-Atlas-flavored (if miniature) population.

use packetlab::cert::Restrictions;
use packetlab::controller::{experiments, ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder, MILLISECOND};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

#[test]
fn forty_endpoint_ping_campaign() {
    const N: usize = 40;
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);

    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.9.0.1".parse().unwrap());
    let core = t.router("core", "10.9.0.254".parse().unwrap());
    let target = t.host("target", "10.7.0.1".parse().unwrap());
    t.link(controller, core, LinkParams::new(2, 0));
    t.link(target, core, LinkParams::new(3, 0));
    let mut addrs = Vec::new();
    let mut nodes = Vec::new();
    for i in 0..N {
        let addr: Ipv4Addr = format!("10.{}.{}.1", 10 + i / 200, 1 + (i % 200))
            .parse()
            .unwrap();
        let node = t.host(&format!("ep{i}"), addr);
        // Diverse access latencies 1..=20 ms.
        t.link(node, core, LinkParams::new(1 + (i as u64 % 20), 50));
        addrs.push(addr);
        nodes.push(node);
    }
    let sim = t.build();
    let mut net = SimNet::new(sim);
    for node in &nodes {
        net.add_endpoint(
            *node,
            EndpointConfig {
                trusted_keys: vec![KeyHash::of(&operator.public)],
                ..Default::default()
            },
        );
    }
    let net = Rc::new(RefCell::new(net));

    let mut measured = 0;
    for (i, addr) in addrs.iter().enumerate() {
        let creds = Credentials::issue(
            &operator,
            &experimenter,
            ExperimentDescriptor {
                name: format!("scale-{i}"),
                controller_addr: "10.9.0.1:7000".into(),
                info_url: String::new(),
                experimenter: KeyHash::of(&experimenter.public),
            },
            Restrictions::none(),
            1,
        );
        let chan = SimChannel::connect(&net, controller, *addr);
        let mut ctrl = Controller::connect(chan, &creds).expect("endpoint authenticates");
        let stats = experiments::ping(
            &mut ctrl,
            "10.7.0.1".parse().unwrap(),
            3,
            20 * MILLISECOND,
            8,
        )
        .expect("ping");
        assert_eq!(stats.replies.len(), 3, "endpoint {i}");
        // RTT = 2 × (access latency + 3 ms target link).
        let expect = 2 * ((1 + (i as u64 % 20)) + 3) * MILLISECOND;
        for r in &stats.replies {
            assert!(
                r.rtt >= expect && r.rtt < expect + MILLISECOND,
                "endpoint {i}: rtt {} expect ~{expect}",
                r.rtt
            );
        }
        ctrl.yield_endpoint().unwrap();
        measured += 1;
    }
    assert_eq!(measured, N);
}
