//! C1 — §3.3 contention reproduction: a timeline of two experiments
//! sharing one endpoint under priority preemption.

use packetlab::cert::Restrictions;
use packetlab::controller::{ControlPlane, Controller, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use packetlab::wire::Notification;
use plab_crypto::{Keypair, KeyHash};
use plab_netsim::{LinkParams, TopologyBuilder};
use std::cell::RefCell;
use std::rc::Rc;

pub fn run(_: &crate::Opts) -> i32 {
    println!("C1: §3.3 priority contention timeline\n");
    let operator = Keypair::from_seed(&[1; 32]);
    let mut t = TopologyBuilder::new();
    let c1 = t.host("c1", "10.0.1.1".parse().unwrap());
    let c2 = t.host("c2", "10.0.2.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    let ep = t.host("ep", "10.0.0.1".parse().unwrap());
    t.link(c1, r, LinkParams::new(5, 0));
    t.link(c2, r, LinkParams::new(5, 0));
    t.link(r, ep, LinkParams::new(5, 0));
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

    let creds = |seed: u8, priority: u8, name: &str| {
        let experimenter = Keypair::from_seed(&[seed; 32]);
        Credentials::issue(
            &operator,
            &experimenter,
            ExperimentDescriptor {
                name: name.into(),
                controller_addr: "10.0.1.1:7000".into(),
                info_url: String::new(),
                experimenter: KeyHash::of(&experimenter.public),
            },
            Restrictions::none(),
            priority,
        )
    };

    let now_ms = |c: &mut Controller<SimChannel>| c.now() as f64 / 1e6;

    // Low-priority community experiment takes the endpoint.
    let chan = SimChannel::connect(&net, c1, "10.0.0.1".parse().unwrap());
    let mut low = Controller::connect(chan, &creds(10, 5, "community-scan")).unwrap();
    low.read_clock().unwrap();
    println!("[{:8.1} ms] community-scan (priority 5) in control", now_ms(&mut low));

    // Operator's own high-priority experiment arrives.
    let chan = SimChannel::connect(&net, c2, "10.0.0.1".parse().unwrap());
    let mut high = Controller::connect(chan, &creds(11, 200, "operator-debug")).unwrap();
    high.read_clock().unwrap();
    println!(
        "[{:8.1} ms] operator-debug (priority 200) connected — preempts",
        now_ms(&mut high)
    );

    // The community experiment discovers it was interrupted.
    let err = low.read_clock().unwrap_err();
    println!(
        "[{:8.1} ms] community-scan command refused: {err}",
        now_ms(&mut low)
    );
    let interrupted = low
        .notifications
        .iter()
        .any(|n| matches!(n, Notification::Interrupted { by_priority: 200 }));
    println!(
        "[{:8.1} ms] community-scan received Interrupted notification: {}",
        now_ms(&mut low),
        interrupted
    );
    assert!(interrupted);

    // The operator experiment does its work and yields.
    for _ in 0..3 {
        high.read_clock().unwrap();
    }
    high.yield_endpoint().unwrap();
    println!("[{:8.1} ms] operator-debug finished and yielded", now_ms(&mut high));

    // The community experiment resumes.
    let t = low.read_clock().unwrap();
    let resumed = low.notifications.iter().any(|n| matches!(n, Notification::Resumed));
    println!(
        "[{:8.1} ms] community-scan resumed (endpoint clock {:.1} ms), Resumed notification: {}",
        now_ms(&mut low),
        t as f64 / 1e6,
        resumed
    );
    assert!(resumed);

    println!(
        "\nShape check: the low-priority experiment was interrupted (not killed),\n\
         notified, suspended for the duration, and resumed exactly when the\n\
         high-priority experiment yielded — the §3.3 sharing contract."
    );
    0
}
