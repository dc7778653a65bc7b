//! §3.5 future work: the PlanetLab-model compatibility layer — experiment
//! code written as if it ran on the endpoint, executed over PacketLab.

use packetlab::cert::Restrictions;
use packetlab::controller::compat::CompatSocket;
use packetlab::controller::{ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder, MILLISECOND, SECOND};
use std::cell::RefCell;
use std::rc::Rc;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

fn world() -> (Rc<RefCell<SimNet>>, plab_netsim::NodeId, Keypair) {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let c = t.host("controller", "10.0.9.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    let ep = t.host("ep", "10.0.0.1".parse().unwrap());
    let peer = t.host("peer", "10.0.5.1".parse().unwrap());
    t.link(c, r, LinkParams::new(5, 0));
    t.link(ep, r, LinkParams::new(5, 0));
    t.link(peer, r, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        ep,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    (Rc::new(RefCell::new(net)), c, operator)
}

fn connect(
    net: &Rc<RefCell<SimNet>>,
    c: plab_netsim::NodeId,
    operator: &Keypair,
) -> Controller<SimChannel> {
    let experimenter = kp(42);
    let creds = Credentials::issue(
        operator,
        &experimenter,
        ExperimentDescriptor {
            name: "compat".into(),
            controller_addr: "10.0.9.1:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        },
        Restrictions::none(),
        1,
    );
    let chan = SimChannel::connect(net, c, "10.0.0.1".parse().unwrap());
    Controller::connect(chan, &creds).unwrap()
}

#[test]
fn udp_request_response_in_old_model() {
    let (net, c, operator) = world();
    // A UDP "server" on the peer host.
    {
        let mut n = net.borrow_mut();
        let peer = n.sim.node_by_name("peer").unwrap();
        n.sim.udp_bind(peer, 4000);
    }
    let mut ctrl = connect(&net, c, &operator);

    // Old-model code: open a socket, send, recv — looks endpoint-local.
    let mut sock =
        CompatSocket::udp(&mut ctrl, 1, 4100, "10.0.5.1".parse().unwrap(), 4000).unwrap();
    sock.send(b"request").unwrap();
    // Service the request at the peer.
    {
        let mut n = net.borrow_mut();
        let now = n.sim.now();
        n.run_until(now + SECOND);
        let peer = n.sim.node_by_name("peer").unwrap();
        let got = n.sim.udp_recv(peer, 4000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].3, b"request");
        n.sim
            .udp_send(peer, 4000, "10.0.0.1".parse().unwrap(), 4100, b"response");
        let now = n.sim.now();
        n.run_until(now + SECOND);
    }
    let (time, data) = sock
        .recv(5 * SECOND)
        .unwrap()
        .expect("response before timeout");
    assert_eq!(data, b"response");
    assert!(time > 0);
    sock.close().unwrap();
}

#[test]
fn recv_times_out_without_traffic() {
    let (net, c, operator) = world();
    let mut ctrl = connect(&net, c, &operator);
    let mut sock =
        CompatSocket::udp(&mut ctrl, 1, 4100, "10.0.5.1".parse().unwrap(), 4000).unwrap();
    let before = sock.now().unwrap();
    let got = sock.recv(200 * MILLISECOND).unwrap();
    assert!(got.is_none(), "no traffic, timeout");
    let after = sock.now().unwrap();
    assert!(
        after >= before + 200 * MILLISECOND,
        "blocked for the timeout"
    );
}

#[test]
fn drop_releases_endpoint_socket() {
    let (net, c, operator) = world();
    let mut ctrl = connect(&net, c, &operator);
    {
        let _sock =
            CompatSocket::udp(&mut ctrl, 1, 4100, "10.0.5.1".parse().unwrap(), 4000).unwrap();
        // dropped here without close()
    }
    // The socket id and port are free again.
    let sock2 = CompatSocket::udp(&mut ctrl, 1, 4100, "10.0.5.1".parse().unwrap(), 4000);
    assert!(sock2.is_ok(), "drop released the endpoint socket");
}

#[test]
fn raw_compat_socket_with_filter() {
    let (net, c, operator) = world();
    let mut ctrl = connect(&net, c, &operator);
    let src = ctrl.endpoint_addr().unwrap();
    let mut sock = CompatSocket::raw(&mut ctrl, 2).unwrap();
    sock.set_filter(
        "uint32_t recv(const union packet *pkt, uint32_t len) {
             if (pkt->ip.proto == IPPROTO_ICMP) return len;
             return 0;
         }",
    )
    .unwrap();
    // "Old model" ping: build, send, recv.
    let probe =
        plab_packet::builder::icmp_echo_request(src, "10.0.5.1".parse().unwrap(), 64, 7, 1, b"hi");
    sock.send(&probe).unwrap();
    let (_, reply) = sock.recv(5 * SECOND).unwrap().expect("echo reply");
    let view = plab_packet::ipv4::Ipv4View::new_unchecked(&reply).unwrap();
    assert_eq!(
        view.src(),
        "10.0.5.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
}
