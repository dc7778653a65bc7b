//! Bandwidth survey: §4's uplink bandwidth experiment run against a set of
//! endpoints with different (simulated) access-link speeds — the kind of
//! broadband-measurement study BISmark and FCC MBA were built for, here
//! expressed as a few dozen lines of controller logic against the
//! universal endpoint interface.
//!
//! ```text
//! cargo run --example bandwidth_survey
//! ```

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

fn main() {
    let uplinks_mbps: [u64; 4] = [2, 8, 20, 50];

    // One controller, one core router, N endpoints each behind its own
    // access link with a distinct uplink bandwidth.
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.9.0.1".parse().unwrap());
    let core = t.router("core", "10.9.0.254".parse().unwrap());
    t.link(controller, core, LinkParams::new(2, 0));
    let mut endpoints = Vec::new();
    for (i, mbps) in uplinks_mbps.iter().enumerate() {
        let addr: Ipv4Addr = format!("10.0.{i}.1").parse().unwrap();
        let ep = t.host(&format!("endpoint{i}"), addr);
        t.link(ep, core, LinkParams::new(10, *mbps));
        endpoints.push((ep, addr, *mbps));
    }
    let sim = t.build();

    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let mut net = SimNet::new(sim);
    for (ep, _, _) in &endpoints {
        net.add_endpoint(
            *ep,
            EndpointConfig {
                trusted_keys: vec![KeyHash::of(&operator.public)],
                ..Default::default()
            },
        );
    }
    let net = Rc::new(RefCell::new(net));

    println!(
        "{:<12} {:>12} {:>14} {:>10}",
        "endpoint", "true uplink", "measured", "error"
    );
    println!("{}", "-".repeat(52));

    for (i, (_, addr, mbps)) in endpoints.iter().enumerate() {
        let descriptor = ExperimentDescriptor {
            name: format!("bw-survey-{i}"),
            controller_addr: "10.9.0.1:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        };
        let creds = Credentials::issue(
            &operator,
            &experimenter,
            descriptor,
            Restrictions::none(),
            10,
        );
        let chan = SimChannel::connect(&net, controller, *addr);
        let mut ctrl = Controller::connect(chan, &creds).expect("authenticated");

        // §4 verbatim: read t0 via mread, open a UDP socket, schedule a
        // burst at t0 + δ, time the arrivals at the controller.
        let est = experiments::measure_uplink_bandwidth(
            &mut ctrl,
            9000 + i as u16,
            60,
            1172,
            300 * MILLISECOND,
        )
        .expect("bandwidth experiment");
        let measured = est.bits_per_sec / 1e6;
        let error = (measured - *mbps as f64).abs() / *mbps as f64 * 100.0;
        println!(
            "{:<12} {:>9} Mbps {:>9.2} Mbps {:>9.2}%",
            format!("endpoint{i}"),
            mbps,
            measured,
            error
        );
        assert!(error < 5.0, "estimate within 5% of ground truth");
        ctrl.yield_endpoint().unwrap();
    }

    println!("\nAll estimates track the configured access-link bandwidth.");
}
