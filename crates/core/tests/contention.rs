//! §3.3 contention: priority preemption, suspension, and resumption.
//!
//! "If an experiment controller asks an endpoint to run a higher-priority
//! experiment than what it is currently running, the endpoint notifies the
//! experiment controller of the current experiment that its experiment has
//! been interrupted, and then transfers control to the controller with the
//! higher-priority experiment. The interrupted experiment is suspended
//! until the higher-priority experiment completes or its controller
//! suspends it by yielding control of the endpoint."

use packetlab::cert::Restrictions;
use plab_obs::export::{fnv1a, FNV_OFFSET};
use packetlab::controller::{ControlPlane, Controller, ControllerError, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{EndpointId, SimChannel, SimNet};
use packetlab::netstack::MemStack;
use packetlab::reactor::EndpointReactor;
use packetlab::wire::{Command, ErrCode, Message, Notification};
use plab_crypto::{Keypair, KeyHash};
use plab_netsim::{LinkParams, NodeId, TopologyBuilder, SECOND};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

struct World {
    net: Rc<RefCell<SimNet>>,
    c1: NodeId,
    c2: NodeId,
    endpoint_addr: Ipv4Addr,
}

fn build() -> (World, Keypair) {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let c1 = t.host("c1", "10.0.1.1".parse().unwrap());
    let c2 = t.host("c2", "10.0.2.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    let endpoint = t.host("ep", "10.0.0.1".parse().unwrap());
    t.link(c1, r, LinkParams::new(5, 0));
    t.link(c2, r, LinkParams::new(5, 0));
    t.link(r, endpoint, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    (
        World {
            net: Rc::new(RefCell::new(net)),
            c1,
            c2,
            endpoint_addr: "10.0.0.1".parse().unwrap(),
        },
        operator,
    )
}

fn creds(operator: &Keypair, seed: u8, priority: u8) -> Credentials {
    let experimenter = kp(seed);
    let descriptor = ExperimentDescriptor {
        name: format!("exp-{seed}"),
        controller_addr: "10.0.1.1:7000".into(),
        info_url: "https://example.org".into(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    Credentials::issue(operator, &experimenter, descriptor, Restrictions::none(), priority)
}

#[test]
fn higher_priority_preempts_and_yield_resumes() {
    let (world, operator) = build();

    // Low-priority experiment takes control.
    let chan1 = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    let mut low = Controller::connect(chan1, &creds(&operator, 10, 5)).unwrap();
    low.read_clock().unwrap();

    // High-priority experiment connects: preempts.
    let chan2 = SimChannel::connect(&world.net, world.c2, world.endpoint_addr);
    let mut high = Controller::connect(chan2, &creds(&operator, 11, 50)).unwrap();
    high.read_clock().unwrap();

    // The low-priority controller's next command is refused and it has
    // been told it was interrupted.
    let err = low.read_clock().unwrap_err();
    assert!(matches!(err, ControllerError::Endpoint(ErrCode::Suspended, _)));
    assert!(
        low.notifications
            .iter()
            .any(|n| matches!(n, Notification::Interrupted { by_priority: 50 })),
        "low controller saw Interrupted: {:?}",
        low.notifications
    );

    // High yields; low is resumed and works again.
    high.yield_endpoint().unwrap();
    let t = low.read_clock();
    assert!(t.is_ok(), "resumed controller works: {t:?}");
    assert!(
        low.notifications
            .iter()
            .any(|n| matches!(n, Notification::Resumed)),
        "low controller saw Resumed: {:?}",
        low.notifications
    );
}

#[test]
fn lower_priority_waits_instead_of_preempting() {
    let (world, operator) = build();
    let chan1 = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    let mut high = Controller::connect(chan1, &creds(&operator, 10, 50)).unwrap();
    high.read_clock().unwrap();

    // Lower-priority arrival does NOT preempt.
    let chan2 = SimChannel::connect(&world.net, world.c2, world.endpoint_addr);
    let mut low = Controller::connect(chan2, &creds(&operator, 11, 5)).unwrap();
    let err = low.read_clock().unwrap_err();
    assert!(matches!(err, ControllerError::Endpoint(ErrCode::Suspended, _)));

    // The high-priority controller never saw an interruption.
    high.read_clock().unwrap();
    assert!(high.notifications.is_empty());

    // When high yields, low resumes.
    high.yield_endpoint().unwrap();
    assert!(low.read_clock().is_ok());
}

#[test]
fn equal_priority_does_not_preempt() {
    let (world, operator) = build();
    let chan1 = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    let mut first = Controller::connect(chan1, &creds(&operator, 10, 20)).unwrap();
    first.read_clock().unwrap();
    let chan2 = SimChannel::connect(&world.net, world.c2, world.endpoint_addr);
    let mut second = Controller::connect(chan2, &creds(&operator, 11, 20)).unwrap();
    // "unless interrupted by a higher-priority experiment, controllers
    // have exclusive control": ties go to the incumbent.
    let err = second.read_clock().unwrap_err();
    assert!(matches!(err, ControllerError::Endpoint(ErrCode::Suspended, _)));
    first.read_clock().unwrap();
}

#[test]
fn disconnect_of_active_resumes_suspended() {
    let (world, operator) = build();
    let chan1 = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    let mut low = Controller::connect(chan1, &creds(&operator, 10, 5)).unwrap();
    low.read_clock().unwrap();

    {
        let chan2 = SimChannel::connect(&world.net, world.c2, world.endpoint_addr);
        let mut high = Controller::connect(chan2, &creds(&operator, 11, 50)).unwrap();
        high.read_clock().unwrap();
        // Simulate the high-priority controller disappearing: close its
        // TCP connection outright.
        let node = world.c2;
        let mut net = world.net.borrow_mut();
        // The controller's connection is the only one from c2.
        // Closing every c2 connection terminates the session.
        for conn in 1..=4u64 {
            net.sim.tcp_close(node, conn);
        }
        let now = net.sim.now();
        net.run_until(now + 5 * SECOND);
    }

    // Low gets control back.
    assert!(low.read_clock().is_ok(), "suspended experiment resumed after disconnect");
}

#[test]
fn three_way_priority_ordering() {
    let (world, operator) = build();
    // Two experiments from c1 (priorities 5, 30) and one from c2 (50).
    let chan_a = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    let mut a = Controller::connect(chan_a, &creds(&operator, 10, 5)).unwrap();
    a.read_clock().unwrap();

    let chan_b = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    let mut b = Controller::connect(chan_b, &creds(&operator, 11, 30)).unwrap();
    b.read_clock().unwrap(); // b preempted a

    let chan_c = SimChannel::connect(&world.net, world.c2, world.endpoint_addr);
    let mut c = Controller::connect(chan_c, &creds(&operator, 12, 50)).unwrap();
    c.read_clock().unwrap(); // c preempted b

    assert!(a.read_clock().is_err());
    assert!(b.read_clock().is_err());

    // c yields → control returns to the *next highest*, b.
    c.yield_endpoint().unwrap();
    assert!(b.read_clock().is_ok(), "b resumes before a");
    assert!(a.read_clock().is_err(), "a still suspended");

    // b yields → a resumes.
    b.yield_endpoint().unwrap();
    assert!(a.read_clock().is_ok());
}

#[test]
fn suspended_experiment_keeps_capturing() {
    // "An endpoint can be involved in multiple concurrent experiments;
    // however, at any given time, no more than one controller has control"
    // — capture buffers keep filling while a session is suspended; the
    // data is there when control returns.
    let (world, operator) = build();
    let endpoint_addr = world.endpoint_addr;

    let chan1 = SimChannel::connect(&world.net, world.c1, endpoint_addr);
    let mut low = Controller::connect(chan1, &creds(&operator, 10, 5)).unwrap();
    low.nopen_raw(1).unwrap();
    low.ncap_cpf(
        1,
        u64::MAX,
        "uint32_t recv(const union packet *pkt, uint32_t len) {
             if (pkt->ip.proto == IPPROTO_ICMP) return len;
             return 0;
         }",
    )
    .unwrap();

    // Higher-priority experiment takes over.
    let chan2 = SimChannel::connect(&world.net, world.c2, endpoint_addr);
    let mut high = Controller::connect(chan2, &creds(&operator, 11, 50)).unwrap();
    high.read_clock().unwrap();
    assert!(low.read_clock().is_err(), "low is suspended");

    // While low is suspended, a ping arrives at the endpoint: low's filter
    // captures the echo request into its buffer.
    {
        let mut n = world.net.borrow_mut();
        let _ep = n.sim.node_by_name("ep").unwrap();
        let c2 = world.c2;
        let ping = plab_packet::builder::icmp_echo_request(
            n.sim.addr_of(c2),
            endpoint_addr,
            64,
            42,
            1,
            &[],
        );
        n.sim.raw_send(c2, ping);
        let now = n.sim.now();
        n.run_until(now + SECOND);
    }

    // High yields; low resumes and finds the captured packet waiting.
    high.yield_endpoint().unwrap();
    let poll = low.npoll(0).unwrap();
    assert_eq!(poll.packets.len(), 1, "capture continued during suspension");
    let view = plab_packet::ipv4::Ipv4View::new_unchecked(&poll.packets[0].2).unwrap();
    assert_eq!(view.protocol(), plab_packet::proto::ICMP);
}

/// Like [`build`], but with an explicit session cap on the endpoint.
fn build_capped(max_sessions: usize) -> (World, Keypair) {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let c1 = t.host("c1", "10.0.1.1".parse().unwrap());
    let c2 = t.host("c2", "10.0.2.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    let endpoint = t.host("ep", "10.0.0.1".parse().unwrap());
    t.link(c1, r, LinkParams::new(5, 0));
    t.link(c2, r, LinkParams::new(5, 0));
    t.link(r, endpoint, LinkParams::new(5, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            max_sessions,
            ..Default::default()
        },
    );
    (
        World {
            net: Rc::new(RefCell::new(net)),
            c1,
            c2,
            endpoint_addr: "10.0.0.1".parse().unwrap(),
        },
        operator,
    )
}

/// An endpoint at `max_sessions` refuses further connections at admission
/// with a typed [`ErrCode::Busy`] — before authentication — and counts the
/// rejection in the public `endpoint.sessions.rejected` metric. Admitted
/// sessions are unaffected.
#[test]
fn session_cap_rejects_with_typed_busy_and_counts() {
    plab_obs::enable();
    plab_obs::reset();
    let (world, operator) = build_capped(2);

    let chan1 = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    let mut first = Controller::connect(chan1, &creds(&operator, 10, 20)).unwrap();
    first.read_clock().unwrap();
    let chan2 = SimChannel::connect(&world.net, world.c2, world.endpoint_addr);
    let _second = Controller::connect(chan2, &creds(&operator, 11, 20)).unwrap();

    // The endpoint is now at capacity: the third connection is refused at
    // admission, and the refusal is typed so a robust controller can
    // classify it as transient and back off.
    let chan3 = SimChannel::connect(&world.net, world.c1, world.endpoint_addr);
    match Controller::connect(chan3, &creds(&operator, 12, 20)) {
        Err(ControllerError::Endpoint(ErrCode::Busy, _)) => {}
        Err(other) => panic!("expected typed Busy at capacity, got {other:?}"),
        Ok(_) => panic!("expected typed Busy at capacity, got a session"),
    }

    // Counted in the public metrics and on the reactor itself. The global
    // counter is shared across concurrently running tests, so only the
    // per-reactor count is asserted exactly.
    assert!(
        plab_obs::metrics::counter("endpoint.sessions.rejected") >= 1,
        "rejection must reach the public metrics"
    );
    assert_eq!(
        world
            .net
            .borrow()
            .endpoint_reactor(EndpointId::first())
            .rejected_sessions,
        1
    );

    // The admitted sessions never noticed.
    first.read_clock().unwrap();
}

// ---------------------------------------------------------------------------
// Reactor churn at scale: 1 000 concurrent sessions with crash/restart.
// ---------------------------------------------------------------------------

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}


/// One fixed-seed churn run: 1 000 sessions multiplexed on one reactor,
/// with a schedule of sequenced commands and session crash/restarts drawn
/// from the seed. Returns a digest over every flushed byte (in connection
/// order) plus the final live-session count.
fn churn_run(seed: u64) -> (u64, usize) {
    let mut stack = MemStack::default();
    let mut reactor = EndpointReactor::new(EndpointConfig {
        max_sessions: 2_048,
        ..Default::default()
    });
    let hello = Message::Hello { version: packetlab::PROTOCOL_VERSION }.to_frame();
    let mut rng = seed;
    let mut next_conn = 1u64;
    let mut live: Vec<(u64, u64)> = Vec::new(); // (sid, conn)
    for _ in 0..1_000 {
        let conn = next_conn;
        next_conn += 1;
        let sid = reactor.accept(conn);
        stack.feed(conn, &hello);
        live.push((sid, conn));
    }

    let mut digest = FNV_OFFSET;
    for round in 0..50u64 {
        // A random slice of sessions issues sequenced commands (their
        // replies land in the per-session replay caches).
        for _ in 0..32 {
            let i = (xorshift(&mut rng) as usize) % live.len();
            let (_, conn) = live[i];
            let msg = Message::CmdSeq {
                seq: round + 1,
                cmd: Command::MRead { memaddr: 0, bytecnt: 16 },
            };
            stack.feed(conn, &msg.to_frame());
        }
        // Crash a few sessions and restart them as fresh connections,
        // mid-load.
        for _ in 0..4 {
            let i = (xorshift(&mut rng) as usize) % live.len();
            let (sid, conn) = live.swap_remove(i);
            reactor.on_conn_closed(sid, &mut stack);
            stack.inbox.remove(&conn);
            let conn2 = next_conn;
            next_conn += 1;
            let sid2 = reactor.accept(conn2);
            stack.feed(conn2, &hello);
            live.push((sid2, conn2));
        }
        stack.clock += 1_000_000;
        reactor.pump(&mut stack);
        reactor.dispatch(&mut stack);
        reactor.flush(&mut stack);
        // Every servable queued message must have been dispatched — DRR
        // decides order, never completeness.
        assert_eq!(reactor.queued_in_messages(), 0, "round {round} left queued work");
        for (conn, bytes) in std::mem::take(&mut stack.outbox) {
            fnv1a(&mut digest, &conn.to_le_bytes());
            fnv1a(&mut digest, &bytes);
        }
    }
    (digest, reactor.agent().session_count())
}

/// Crash/restart churn under 1 000-session load is deterministic: two runs
/// of the same fixed-seed schedule produce bit-identical reply streams.
#[test]
fn thousand_session_churn_is_deterministic() {
    let (d1, n1) = churn_run(0x5eed_cafe);
    let (d2, n2) = churn_run(0x5eed_cafe);
    assert_eq!(n1, 1_000, "all sessions live after churn");
    assert_eq!((d1, n1), (d2, n2), "churn replay diverged");
    // A different schedule produces a different stream (the digest is not
    // degenerate).
    let (d3, _) = churn_run(0x0dd5_eed5);
    assert_ne!(d1, d3);
}
