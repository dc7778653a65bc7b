//! §3.1 backpressure: "If an experiment controller does not poll an
//! endpoint quickly enough, an endpoint may run out of space to store all
//! received data. When this happens, the endpoint simply stops reading
//! (and buffering) experiment data. For TCP sockets, this will create
//! flow control back pressure."

use packetlab::cert::Restrictions;
use packetlab::controller::{ControlPlane, Controller, Credentials, SinkHost};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder, SECOND};
use std::cell::RefCell;
use std::rc::Rc;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

#[test]
fn tcp_capture_buffer_exerts_flow_control() {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let c = t.host("controller", "10.0.9.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    let ep = t.host("ep", "10.0.0.1".parse().unwrap());
    let server = t.host("server", "10.0.5.1".parse().unwrap());
    t.link(c, r, LinkParams::new(5, 0));
    t.link(ep, r, LinkParams::new(5, 0));
    t.link(server, r, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        ep,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    // The server will push a large stream at the endpoint's TCP socket.
    {
        let server_node = net.sim.node_by_name("server").unwrap();
        net.sim.tcp_listen(server_node, 80);
    }
    let net = Rc::new(RefCell::new(net));

    let experimenter = kp(42);
    // Capture buffer limited to 16 KiB via the certificate restriction.
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        ExperimentDescriptor {
            name: "backpressure".into(),
            controller_addr: "10.0.9.1:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        },
        Restrictions {
            max_buffer_bytes: Some(16 * 1024),
            ..Default::default()
        },
        1,
    );
    let chan = SimChannel::connect(&net, c, "10.0.0.1".parse().unwrap());
    let mut ctrl = Controller::connect(chan, &creds).unwrap();

    // Endpoint opens a TCP socket to the server.
    ctrl.nopen_tcp(1, 0, "10.0.5.1".parse().unwrap(), 80)
        .unwrap();
    let later = ctrl.now() + SECOND;
    ctrl.channel().wait_until(later);

    // The server floods 200 KiB toward the endpoint...
    let (server_node, conn) = {
        let net = ctrl.channel().net();
        let mut n = net.borrow_mut();
        let server_node = n.sim.node_by_name("server").unwrap();
        let conn = n.sim.tcp_accept(server_node, 80).expect("accepted");
        n.sim.tcp_send(server_node, conn, &vec![0xabu8; 200 * 1024]);
        let now = n.sim.now();
        n.run_until(now + 10 * SECOND);
        (server_node, conn)
    };

    // ...but the controller hasn't polled: the endpoint buffered at most
    // its 16 KiB ceiling plus one TCP receive window (64 KiB) in the OS
    // socket, and the server is blocked with most of the stream unsent —
    // that is the flow-control backpressure propagating.
    {
        let net = ctrl.channel().net();
        let backlog = net.borrow().sim.tcp_send_backlog(server_node, conn);
        assert!(
            backlog >= 100 * 1024,
            "server should be blocked with a large unsent backlog, got {backlog}"
        );
    }

    // The controller now drains via npoll repeatedly; bytes flow again and
    // everything eventually arrives.
    let mut received = 0usize;
    for _ in 0..100 {
        let t = ctrl.read_clock().unwrap();
        let poll = ctrl.npoll(t + SECOND).unwrap();
        received += poll.packets.iter().map(|(_, _, d)| d.len()).sum::<usize>();
        assert_eq!(poll.dropped_packets, 0, "TCP never drops, it blocks");
        if received >= 200 * 1024 {
            break;
        }
    }
    assert_eq!(received, 200 * 1024, "the whole stream arrived once polled");
}
