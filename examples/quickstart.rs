//! Quickstart: stand up a simulated internet, run a PacketLab endpoint on
//! a home host, and drive it from an experiment controller.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks the whole lifecycle: operator keys → delegation → experiment
//! certificate → authenticated session → Table 1 commands → a ping
//! measurement computed from endpoint-side timestamps.

use packetlab::cert::Restrictions;
use packetlab::controller::{experiments, ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder, MILLISECOND};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    // ── 1. A small internet ────────────────────────────────────────────
    // controller ── r0 ── racc ── endpoint          (endpoint access link)
    //                      └──── r1 ── target       (measurement path)
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.0.9.1".parse().unwrap());
    let r0 = t.router("r0", "10.0.9.254".parse().unwrap());
    let racc = t.router("racc", "10.0.0.254".parse().unwrap());
    let endpoint = t.host("endpoint", "10.0.0.1".parse().unwrap());
    let r1 = t.router("r1", "10.0.1.254".parse().unwrap());
    let target = t.host("target", "10.0.3.1".parse().unwrap());
    t.link(endpoint, racc, LinkParams::new(5, 20)); // 20 Mbps access link
    t.link(racc, r0, LinkParams::new(5, 0));
    t.link(r0, controller, LinkParams::new(5, 0));
    t.link(racc, r1, LinkParams::new(8, 0));
    t.link(r1, target, LinkParams::new(12, 0));
    let sim = t.build();

    // ── 2. Keys and endpoint ───────────────────────────────────────────
    let operator = Keypair::from_seed(&[1; 32]); // endpoint operator
    let experimenter = Keypair::from_seed(&[2; 32]); // outside researcher

    let mut net = SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    let net = Rc::new(RefCell::new(net));

    // ── 3. Authorization (Figure 1, abbreviated) ───────────────────────
    let descriptor = ExperimentDescriptor {
        name: "quickstart-ping".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: "https://example.org/quickstart".into(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        10,
    );

    // ── 4. Connect and explore the endpoint ────────────────────────────
    let chan = SimChannel::connect(&net, controller, "10.0.0.1".parse().unwrap());
    let mut ctrl = Controller::connect(chan, &creds).expect("authenticated");

    let addr = ctrl.endpoint_addr().unwrap();
    let mtu = ctrl.read_info("mtu").unwrap();
    let clock = ctrl.read_clock().unwrap();
    println!("endpoint address : {addr}");
    println!("endpoint mtu     : {mtu}");
    println!("endpoint clock   : {:.3} ms", clock as f64 / 1e6);

    let sync = ctrl.sync_clock(5).unwrap();
    println!(
        "clock sync       : offset {} ns, control RTT {:.1} ms",
        sync.offset,
        sync.min_rtt as f64 / 1e6
    );

    // ── 5. Ping from the endpoint's vantage point ──────────────────────
    let stats = experiments::ping(
        &mut ctrl,
        "10.0.3.1".parse().unwrap(),
        5,
        100 * MILLISECOND,
        32,
    )
    .expect("ping");
    println!(
        "\nping 10.0.3.1 from the endpoint: {} sent, {} received, loss {:.0}%",
        stats.sent,
        stats.replies.len(),
        stats.loss() * 100.0
    );
    for r in &stats.replies {
        println!("  seq {}  rtt {:.1} ms", r.seq, r.rtt as f64 / 1e6);
    }
    println!(
        "  (expected 2×(5+8+12) = 50 ms — measured from endpoint timestamps,\n   \
         immune to the {:.0} ms controller RTT)",
        sync.min_rtt as f64 / 1e6
    );

    ctrl.yield_endpoint().unwrap();
    println!("\ndone: endpoint yielded.");
}
