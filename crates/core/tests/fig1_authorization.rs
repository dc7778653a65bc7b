//! Figure 1: the complete authorization flow, steps ➊–➑.
//!
//! "An experimenter obtains an experimenter certificate signed by a
//! rendezvous server operator (➊). The experimenter then creates and signs
//! a delegation certificate (➋) and has it signed by an endpoint operator
//! whose endpoints she wants to use (➌). The delegation certificate allows
//! the experimenter to create certificates for specific experiments (➍).
//! Each experiment is published to a rendezvous server (➎), which accepts
//! the experiment because the certificate chain establishes that the
//! rendezvous server operator authorized the experimenter to publish (➏).
//! The experiment controller presents the certificate to each measurement
//! endpoint (➐), which accepts the experiment because the certificate
//! chain establishes that the endpoint operator authorized the experiment
//! to run on the endpoint (➑)."

use packetlab::cert::{CertPayload, Certificate, Restrictions};
use packetlab::controller::{ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet, RENDEZVOUS_PORT};
use packetlab::rendezvous::RendezvousServer;
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder, SECOND};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

#[test]
fn full_figure1_flow() {
    // Principals.
    let rv_operator = kp(1); // rendezvous server operator
    let ep_operator = kp(2); // endpoint operator
    let experimenter = kp(3); // outside experimenter

    // Topology: experimenter host (runs the controller), a rendezvous
    // server, and an endpoint, all behind one router.
    let mut t = TopologyBuilder::new();
    let exp_host = t.host("experimenter", "10.0.1.1".parse().unwrap());
    let rv_host = t.host("rendezvous", "10.0.2.1".parse().unwrap());
    let ep_host = t.host("endpoint", "10.0.3.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    t.link(exp_host, r, LinkParams::new(5, 0));
    t.link(rv_host, r, LinkParams::new(5, 0));
    t.link(ep_host, r, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);

    // The rendezvous server trusts its operator's key for publishing.
    net.add_rendezvous(
        rv_host,
        RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000),
    );
    // The endpoint trusts its operator.
    let ep_id = net.add_endpoint(
        ep_host,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&ep_operator.public)],
            ..Default::default()
        },
    );

    // ➊ The rendezvous operator authorizes the experimenter to publish.
    let rv_deleg = Certificate::sign(
        &rv_operator,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions::none(),
    );
    // ➋–➌ The endpoint operator delegates to the experimenter.
    let ep_deleg = Certificate::sign(
        &ep_operator,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions {
            max_priority: Some(100),
            ..Default::default()
        },
    );

    // ➍ The experimenter signs an experiment certificate.
    let descriptor = ExperimentDescriptor {
        name: "figure1-experiment".into(),
        controller_addr: "10.0.1.1:7000".into(),
        info_url: "https://example.org/fig1".into(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let exp_cert = Certificate::sign(
        &experimenter,
        CertPayload::Experiment(descriptor.hash()),
        Restrictions::none(),
    );

    // The controller listens for endpoint-initiated connections (§3.2:
    // "an endpoint contacts the experiment controller given in the
    // descriptor").
    net.controller_listen(exp_host, 7000);

    // The endpoint subscribes to its trusted operators' channels and will
    // dial announced controllers.
    net.endpoint_subscribe(ep_id, "10.0.2.1".parse().unwrap(), true);
    let _ = RENDEZVOUS_PORT;

    // ➎ Publish: descriptor + the *full* certificate set — the rendezvous
    // path (for publish authorization, ➏) and the endpoint-operator path
    // (so endpoints trusting that operator hear the broadcast: "broadcast
    // the experiment to all endpoints that accept experiments signed by at
    // least one of the keys in the certificate chain").
    net.publish_experiment(
        exp_host,
        "10.0.2.1".parse().unwrap(),
        descriptor.encode(),
        vec![rv_deleg.encode(), ep_deleg.encode(), exp_cert.encode()],
        vec![
            *rv_operator.public.as_bytes(),
            *ep_operator.public.as_bytes(),
            *experimenter.public.as_bytes(),
        ],
    );

    // ➏ Drive the network: the server verifies and broadcasts; the
    // endpoint receives the announcement and dials the controller.
    net.run_until(10 * SECOND);
    assert_eq!(
        net.endpoint_announcements(ep_id).len(),
        1,
        "endpoint got the announce"
    );
    assert_eq!(net.endpoint_dialed(ep_id), &["10.0.1.1:7000".to_string()]);

    // ➐–➑ The controller (accepting the endpoint's connection) presents
    // the *endpoint-operator-rooted* chain; the endpoint verifies and
    // grants control.
    let net = Rc::new(RefCell::new(net));
    let conn = net
        .borrow_mut()
        .controller_accept(exp_host, 7000)
        .expect("endpoint dialed us");
    let chan = SimChannel::from_accepted(&net, exp_host, conn);
    let creds = Credentials {
        descriptor: descriptor.clone(),
        chain: vec![ep_deleg.clone(), exp_cert.clone()],
        keys: vec![ep_operator.public, experimenter.public],
        signing_key: experimenter.clone(),
        priority: 10,
    };
    let mut ctrl = Controller::connect(chan, &creds).expect("endpoint accepts the chain");

    // The experiment runs: read the endpoint's address over the session
    // the *endpoint* initiated.
    let addr = ctrl.endpoint_addr().unwrap();
    assert_eq!(addr, "10.0.3.1".parse::<Ipv4Addr>().unwrap());
}

#[test]
fn rendezvous_rejects_unauthorized_publisher() {
    let rv_operator = kp(1);
    let mallory = kp(9);

    let mut t = TopologyBuilder::new();
    let pub_host = t.host("publisher", "10.0.1.1".parse().unwrap());
    let rv_host = t.host("rendezvous", "10.0.2.1".parse().unwrap());
    let ep_host = t.host("endpoint", "10.0.3.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    t.link(pub_host, r, LinkParams::new(5, 0));
    t.link(rv_host, r, LinkParams::new(5, 0));
    t.link(ep_host, r, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_rendezvous(
        rv_host,
        RendezvousServer::new(vec![KeyHash::of(&rv_operator.public)], 1_700_000_000),
    );
    // An endpoint that (oddly) trusts mallory — it would hear announces on
    // mallory's channel if the server accepted the publish.
    let ep_id = net.add_endpoint(
        ep_host,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&mallory.public)],
            ..Default::default()
        },
    );
    net.endpoint_subscribe(ep_id, "10.0.2.1".parse().unwrap(), false);

    let descriptor = ExperimentDescriptor {
        name: "rogue".into(),
        controller_addr: "10.0.1.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&mallory.public),
    };
    // Mallory self-signs without any delegation from the operator.
    let cert = Certificate::sign(
        &mallory,
        CertPayload::Experiment(descriptor.hash()),
        Restrictions::none(),
    );
    net.publish_experiment(
        pub_host,
        "10.0.2.1".parse().unwrap(),
        descriptor.encode(),
        vec![cert.encode()],
        vec![*mallory.public.as_bytes()],
    );
    net.run_until(10 * SECOND);
    // The publish was rejected: the subscriber heard nothing ("to protect
    // the rendezvous server against anonymous abuse").
    assert!(net.endpoint_announcements(ep_id).is_empty());
}

#[test]
fn endpoint_rejects_chain_rooted_elsewhere() {
    // An experimenter with a valid *rendezvous* chain but no endpoint
    // operator delegation cannot run on the endpoint (the two trust roots
    // are independent).
    let rv_operator = kp(1);
    let ep_operator = kp(2);
    let experimenter = kp(3);

    let mut t = TopologyBuilder::new();
    let c_host = t.host("controller", "10.0.1.1".parse().unwrap());
    let ep_host = t.host("endpoint", "10.0.3.1".parse().unwrap());
    t.link(c_host, ep_host, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        ep_host,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&ep_operator.public)],
            ..Default::default()
        },
    );
    let net = Rc::new(RefCell::new(net));

    let descriptor = ExperimentDescriptor {
        name: "wrong-root".into(),
        controller_addr: "10.0.1.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    // Chain rooted at the RENDEZVOUS operator — valid there, useless here.
    let creds = Credentials::issue(
        &rv_operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        1,
    );
    let chan = SimChannel::connect(&net, c_host, "10.0.3.1".parse().unwrap());
    assert!(Controller::connect(chan, &creds).is_err());
}
