//! Endpoints behind NAT (§3.1): "to craft a valid IP packet in raw mode, a
//! controller needs to know the endpoint's internal IP address. (For
//! endpoints behind a NAT, this address will be different from its
//! external address.)"

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

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

#[test]
fn nat_endpoint_reports_both_addresses_and_pings_out() {
    let operator = kp(1);
    let internal: Ipv4Addr = "192.168.1.10".parse().unwrap();
    let external: Ipv4Addr = "203.0.113.5".parse().unwrap();

    let mut t = TopologyBuilder::new();
    let endpoint = t.host("endpoint", internal);
    let nat = t.nat("nat", "192.168.1.1".parse().unwrap(), external);
    let controller = t.host("controller", "198.51.100.1".parse().unwrap());
    let server = t.host("server", "8.8.8.8".parse().unwrap());
    let core = t.router("core", "198.51.100.254".parse().unwrap());
    t.link(endpoint, nat, LinkParams::new(2, 0)); // internal side first
    t.link(nat, core, LinkParams::new(10, 0));
    t.link(core, controller, LinkParams::new(5, 0));
    t.link(core, server, LinkParams::new(5, 0));
    let sim = t.build();

    let mut net = SimNet::new(sim);
    let ep_id = net.add_endpoint_opts(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
        true,
        Some(external),
    );
    // A control connection dialed *into* the NAT cannot work (the reply
    // SYN|ACK gets source-translated and breaks the handshake), so the
    // endpoint dials out to the controller — the paper's direction.
    net.controller_listen(controller, 7000);
    net.endpoint_dial(ep_id, "198.51.100.1".parse().unwrap(), 7000);
    let net = Rc::new(RefCell::new(net));
    {
        let mut n = net.borrow_mut();
        let now = n.sim.now();
        n.run_until(now + plab_netsim::SECOND);
    }
    let conn = net
        .borrow_mut()
        .controller_accept(controller, 7000)
        .expect("NAT'd endpoint dialed out to us");

    let experimenter = kp(42);
    let descriptor = ExperimentDescriptor {
        name: "nat-test".into(),
        controller_addr: "198.51.100.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        1,
    );
    let chan = SimChannel::from_accepted(&net, controller, conn);
    let mut ctrl = Controller::connect(chan, &creds).unwrap();

    // The info block reports the internal address, the external address,
    // and the NAT flag.
    assert_eq!(ctrl.endpoint_addr().unwrap(), internal);
    assert_eq!(
        Ipv4Addr::from(ctrl.read_info("addr.ext_ip").unwrap() as u32),
        external
    );
    let flags = ctrl.read_info("flags").unwrap();
    assert_ne!(flags & plab_packet::layout::INFO_FLAG_NAT as u64, 0);

    // Raw ping through the NAT: the controller crafts the probe with the
    // *internal* source (that's the whole point of exposing it).
    let stats = experiments::ping(
        &mut ctrl,
        "8.8.8.8".parse().unwrap(),
        3,
        50 * MILLISECOND,
        8,
    )
    .unwrap();
    assert_eq!(stats.replies.len(), 3, "replies traverse the NAT both ways");
    // RTT: endpoint→nat (2ms) + nat→core (10ms) + core→server (5ms), ×2.
    for r in &stats.replies {
        assert_eq!(r.rtt, 34 * MILLISECOND);
    }
}
