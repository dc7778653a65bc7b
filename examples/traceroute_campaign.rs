//! Traceroute campaign: §4's traceroute experiment run from one vantage
//! point toward several destinations across a richer topology, under the
//! paper's Figure 2 monitor.
//!
//! ```text
//! cargo run --example traceroute_campaign
//! ```
//!
//! Demonstrates the core PacketLab value proposition: the *endpoint* only
//! ever sends and captures packets; path discovery, TTL sweeps, RTT math,
//! and retries all live in this controller binary, and the endpoint
//! operator's monitor constrains the experiment to exactly
//! traceroute-shaped traffic.

use packetlab::cert::Restrictions;
use packetlab::controller::{experiments, ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// The paper's Figure 2 monitor (dead-store fixed).
const FIGURE2_MONITOR: &str = r#"
in_addr_t ping_dst = 0;

uint32_t send(const union packet * pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
        pkt->ip.proto == IPPROTO_ICMP &&
        pkt->ip.src == info->addr.ip &&
        pkt->ip.icmp.type == ICMP_ECHO_REQUEST)
    {
        ping_dst = pkt->ip.dst;
        return len;
    } else
        return 0;
}

uint32_t recv(const union packet * pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
        pkt->ip.proto == IPPROTO_ICMP && (
        (pkt->ip.icmp.type == ICMP_ECHO_REPLY &&
         pkt->ip.src == ping_dst) ||
        (pkt->ip.icmp.type == ICMP_TIME_EXCEEDED &&
         pkt->ip.icmp.orig.ip.src == info->addr.ip &&
         pkt->ip.icmp.orig.ip.dst == ping_dst)))
        return len;
    else
        return 0;
}
"#;

fn main() {
    // A tree of routers with three destination hosts at different depths.
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.9.0.1".parse().unwrap());
    let endpoint = t.host("endpoint", "10.0.0.1".parse().unwrap());
    let racc = t.router("racc", "10.0.0.254".parse().unwrap());
    let core1 = t.router("core1", "10.1.0.254".parse().unwrap());
    let core2 = t.router("core2", "10.2.0.254".parse().unwrap());
    let core3 = t.router("core3", "10.3.0.254".parse().unwrap());
    let near = t.host("near", "10.1.1.1".parse().unwrap());
    let mid = t.host("mid", "10.2.1.1".parse().unwrap());
    let far = t.host("far", "10.3.1.1".parse().unwrap());
    t.link(endpoint, racc, LinkParams::new(3, 50));
    t.link(racc, controller, LinkParams::new(15, 0));
    t.link(racc, core1, LinkParams::new(7, 0));
    t.link(core1, near, LinkParams::new(4, 0));
    t.link(core1, core2, LinkParams::new(9, 0));
    t.link(core2, mid, LinkParams::new(6, 0));
    t.link(core2, core3, LinkParams::new(11, 0));
    t.link(core3, far, LinkParams::new(5, 0));
    let sim = t.build();

    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    let net = Rc::new(RefCell::new(net));

    // The operator's delegation carries the Figure 2 monitor: this
    // controller may *only* traceroute.
    let monitor = plab_cpf::compile(FIGURE2_MONITOR).unwrap().encode();
    let descriptor = ExperimentDescriptor {
        name: "traceroute-campaign".into(),
        controller_addr: "10.9.0.1:7000".into(),
        info_url: "https://example.org/campaign".into(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        descriptor,
        Restrictions {
            monitor: Some(monitor),
            ..Default::default()
        },
        10,
    );
    let chan = SimChannel::connect(&net, controller, "10.0.0.1".parse().unwrap());
    let mut ctrl = Controller::connect(chan, &creds).expect("authenticated");

    let destinations: [(&str, Ipv4Addr); 3] = [
        ("near", "10.1.1.1".parse().unwrap()),
        ("mid", "10.2.1.1".parse().unwrap()),
        ("far", "10.3.1.1".parse().unwrap()),
    ];

    for (name, dst) in destinations {
        println!("traceroute to {name} ({dst}) from the endpoint:");
        let result = experiments::traceroute(&mut ctrl, dst, 16).expect("traceroute");
        for hop in &result.hops {
            match (hop.addr, hop.rtt) {
                (Some(addr), Some(rtt)) => {
                    let marker = if hop.reached { "  <- destination" } else { "" };
                    println!(
                        "  {:>2}  {:<12}  {:>7.1} ms{marker}",
                        hop.ttl,
                        addr.to_string(),
                        rtt as f64 / 1e6
                    );
                }
                _ => println!("  {:>2}  *", hop.ttl),
            }
        }
        assert!(result.reached, "simulated paths always answer");
        println!();
    }

    // The monitor forbids anything else: demonstrate a denied UDP probe.
    ctrl.nopen_raw(99).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let udp = plab_packet::builder::udp_datagram(src, "10.3.1.1".parse().unwrap(), 1, 53, b"?");
    match ctrl.nsend(99, 0, udp) {
        Err(e) => println!("UDP probe correctly denied by the operator's monitor: {e}"),
        Ok(_) => unreachable!("monitor must deny non-ICMP traffic"),
    }
}
