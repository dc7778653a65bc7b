//! Whole-system integration: multiple endpoints across operators, a
//! rendezvous server, lossy links, and concurrent experiments — the
//! "global-scale Internet measurement" story in miniature.

use packetlab::cert::{CertPayload, Certificate, Restrictions};
use packetlab::controller::{experiments, ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use packetlab::rendezvous::RendezvousServer;
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, NodeId, TopologyBuilder, MILLISECOND, SECOND};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

/// Five endpoints under two operators, one rendezvous server, one shared
/// target, a lossy transit link, and a campaign that pings the target from
/// every vantage point discovered via rendezvous.
#[test]
fn multi_operator_measurement_campaign() {
    let rv_op = kp(1);
    let op_a = kp(2);
    let op_b = kp(3);
    let experimenter = kp(4);

    let mut t = TopologyBuilder::new();
    t.seed(7);
    let ctrl_host = t.host("controller", "10.9.0.1".parse().unwrap());
    let rv_host = t.host("rendezvous", "10.8.0.1".parse().unwrap());
    let core = t.router("core", "10.0.0.254".parse().unwrap());
    let transit = t.router("transit", "10.0.1.254".parse().unwrap());
    let target = t.host("target", "10.7.0.1".parse().unwrap());
    t.link(ctrl_host, core, LinkParams::new(5, 0));
    t.link(rv_host, core, LinkParams::new(5, 0));
    t.link(core, transit, LinkParams::new(10, 0).with_loss(0.02));
    t.link(transit, target, LinkParams::new(5, 0));

    let mut endpoints: Vec<(NodeId, Ipv4Addr, &Keypair)> = Vec::new();
    for i in 0..5u8 {
        let addr: Ipv4Addr = format!("10.{}.1.1", i + 1).parse().unwrap();
        let node = t.host(&format!("ep{i}"), addr);
        t.link(node, core, LinkParams::new(3 + i as u64 * 2, 20));
        endpoints.push((node, addr, if i < 3 { &op_a } else { &op_b }));
    }
    let sim = t.build();

    let mut net = SimNet::new(sim);
    net.add_rendezvous(
        rv_host,
        RendezvousServer::new(vec![KeyHash::of(&rv_op.public)], 1_700_000_000),
    );
    let mut ep_ids = Vec::new();
    for (node, _, operator) in &endpoints {
        let id = net.add_endpoint(
            *node,
            EndpointConfig {
                trusted_keys: vec![KeyHash::of(&operator.public)],
                ..Default::default()
            },
        );
        ep_ids.push(id);
    }

    // Authorization: rendezvous + both operators delegate to the
    // experimenter; one experiment certificate.
    let descriptor = ExperimentDescriptor {
        name: "campaign".into(),
        controller_addr: "10.9.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let rv_deleg = Certificate::sign(
        &rv_op,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions::none(),
    );
    let deleg_a = Certificate::sign(
        &op_a,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions::none(),
    );
    let deleg_b = Certificate::sign(
        &op_b,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions::none(),
    );
    let exp_cert = Certificate::sign(
        &experimenter,
        CertPayload::Experiment(descriptor.hash()),
        Restrictions::none(),
    );

    // Endpoints subscribe; publish reaches all five through two channels.
    for id in &ep_ids {
        net.endpoint_subscribe(*id, "10.8.0.1".parse().unwrap(), false);
    }
    net.publish_experiment(
        ctrl_host,
        "10.8.0.1".parse().unwrap(),
        descriptor.encode(),
        vec![
            rv_deleg.encode(),
            deleg_a.encode(),
            deleg_b.encode(),
            exp_cert.encode(),
        ],
        vec![
            *rv_op.public.as_bytes(),
            *op_a.public.as_bytes(),
            *op_b.public.as_bytes(),
            *experimenter.public.as_bytes(),
        ],
    );
    net.run_until(5 * SECOND);
    for id in &ep_ids {
        assert_eq!(
            net.endpoint_announcements(*id).len(),
            1,
            "every endpoint heard the campaign"
        );
    }

    // Run pings from every vantage point (sequentially; each controller
    // session is independent).
    let net = Rc::new(RefCell::new(net));
    let mut results = Vec::new();
    for (i, (_, addr, operator)) in endpoints.iter().enumerate() {
        let deleg = if i < 3 {
            deleg_a.clone()
        } else {
            deleg_b.clone()
        };
        let creds = Credentials {
            descriptor: descriptor.clone(),
            chain: vec![deleg, exp_cert.clone()],
            keys: vec![operator.public, experimenter.public],
            signing_key: experimenter.clone(),
            priority: 10,
        };
        let chan = SimChannel::connect(&net, ctrl_host, *addr);
        let mut ctrl = Controller::connect(chan, &creds).expect("endpoint accepts");
        let stats = experiments::ping(
            &mut ctrl,
            "10.7.0.1".parse().unwrap(),
            8,
            50 * MILLISECOND,
            16,
        )
        .expect("ping campaign");
        // Lossy transit: most probes answered, RTT grows with access
        // latency (3+2i ms each way plus core-transit-target).
        assert!(
            stats.replies.len() >= 4,
            "vantage {i}: too much loss ({}/8)",
            stats.replies.len()
        );
        // Propagation RTT plus ~35 µs of access-link serialization.
        let expected_rtt = 2 * ((3 + 2 * i as u64) + 10 + 5) * MILLISECOND;
        for r in &stats.replies {
            assert!(
                r.rtt >= expected_rtt && r.rtt < expected_rtt + MILLISECOND,
                "vantage {i}: rtt {} vs expected ~{expected_rtt}",
                r.rtt
            );
        }
        results.push((i, stats.replies.len()));
        ctrl.yield_endpoint().unwrap();
    }
    assert_eq!(results.len(), 5, "all five vantage points measured");
}

/// Failure injection: an endpoint disappearing mid-experiment (link to a
/// controller never answering) must surface as a timeout, not a hang.
#[test]
fn controller_times_out_on_dead_endpoint() {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let c = t.host("controller", "10.0.0.1".parse().unwrap());
    let ep = t.host("ep", "10.0.0.2".parse().unwrap());
    t.link(c, ep, LinkParams::new(5, 0));
    let sim = t.build();
    // NB: no endpoint agent installed — SYNs to the control port get RST.
    let mut net = SimNet::new(sim);
    let _ = operator;
    let _ = &mut net;
    let net = Rc::new(RefCell::new(net));
    let experimenter = kp(9);
    let creds = Credentials::issue(
        &kp(1),
        &experimenter,
        ExperimentDescriptor {
            name: "dead".into(),
            controller_addr: "10.0.0.1:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        },
        Restrictions::none(),
        1,
    );
    let chan = SimChannel::connect(&net, c, "10.0.0.2".parse().unwrap());
    let result = Controller::connect(chan, &creds);
    assert!(result.is_err(), "no agent, no session");
}

/// Two controllers measuring through the *same* endpoint sequentially see
/// consistent results (endpoint state fully isolated per session).
#[test]
fn sequential_experiments_are_isolated() {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let c = t.host("controller", "10.0.9.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    let ep = t.host("ep", "10.0.0.1".parse().unwrap());
    let target = t.host("target", "10.0.5.1".parse().unwrap());
    t.link(c, r, LinkParams::new(5, 0));
    t.link(ep, r, LinkParams::new(5, 0));
    t.link(target, r, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        ep,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    let net = Rc::new(RefCell::new(net));

    for round in 0..3 {
        let experimenter = kp(40 + round);
        let creds = Credentials::issue(
            &operator,
            &experimenter,
            ExperimentDescriptor {
                name: format!("round-{round}"),
                controller_addr: "10.0.9.1:7000".into(),
                info_url: String::new(),
                experimenter: KeyHash::of(&experimenter.public),
            },
            Restrictions::none(),
            1,
        );
        let chan = SimChannel::connect(&net, c, "10.0.0.1".parse().unwrap());
        let mut ctrl = Controller::connect(chan, &creds).expect("round connects");
        // Same socket ids as previous rounds: fresh session, no conflicts
        // (the ping helper claims sktid 1 internally; these are extras).
        ctrl.nopen_raw(11).unwrap();
        ctrl.nopen_udp(12, 5000, "10.0.5.1".parse().unwrap(), 7)
            .unwrap();
        let stats = experiments::ping(
            &mut ctrl,
            "10.0.5.1".parse().unwrap(),
            3,
            30 * MILLISECOND,
            8,
        )
        .unwrap();
        assert_eq!(stats.replies.len(), 3, "round {round}");
        ctrl.yield_endpoint().unwrap();
    }
}
