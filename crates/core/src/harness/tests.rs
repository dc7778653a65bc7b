use super::*;

#[test]
fn parse_addr_accepts_host_port() {
    assert_eq!(
        parse_addr("10.0.0.1:7000"),
        Some(("10.0.0.1".parse().unwrap(), 7000))
    );
    assert_eq!(parse_addr("not-an-addr"), None);
    assert_eq!(parse_addr("10.0.0.1:"), None);
    assert_eq!(parse_addr(":80"), None);
    assert_eq!(parse_addr("300.0.0.1:80"), None);
}

#[test]
fn endpoint_id_helpers() {
    assert_eq!(EndpointId::first(), EndpointId(0));
    assert_ne!(EndpointId::first(), EndpointId(1));
}

#[test]
fn simnet_smoke() {
    let mut t = plab_netsim::TopologyBuilder::new();
    let a = t.host("a", "10.0.0.1".parse().unwrap());
    let b = t.host("b", "10.0.0.2".parse().unwrap());
    t.link(a, b, plab_netsim::LinkParams::new(1, 0));
    let mut net = SimNet::new(t.build());
    let id = net.add_endpoint(a, crate::endpoint::EndpointConfig::default());
    assert_eq!(net.endpoint_agent(id).session_count(), 0);
    net.run_until(plab_netsim::SECOND);
    assert!(net.sim.now() >= plab_netsim::SECOND);
}

/// A dial the endpoint's host refuses with a RST, in a world whose
/// other traffic keeps events due past the dial's deadline, ends at
/// the refusal as a fleet dial does: the wait ends when
/// [`Wait::holds`], and dropping the failed channel runs the world
/// 1 s. Stepping on while the connection is merely unestablished
/// spent the whole 10 s deadline first.
#[test]
fn a_refused_dial_ends_at_the_reset() {
    let mut t = plab_netsim::TopologyBuilder::new();
    let ep = t.host("ep", "10.0.0.1".parse().unwrap());
    let ctl = t.host("ctl", "10.0.0.2".parse().unwrap());
    t.link(ep, ctl, plab_netsim::LinkParams::new(1, 100));
    let net = Rc::new(RefCell::new(SimNet::new(t.build())));
    let (ep_addr, ctl_addr) = ("10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap());
    // Nothing listens on `ep`; `ctl` sends it a datagram every 10 ms.
    for i in 0..2_000 {
        let dgram = plab_packet::builder::udp_datagram(ctl_addr, ep_addr, 9, 9, &[0; 8]);
        let at = i * 10 * plab_netsim::MILLISECOND;
        net.borrow_mut().sim.schedule_send(ctl, at, dgram, i);
    }
    let mut dialer = SimDialer::new(&net, ctl, ep_addr);
    assert!(aio::block_on(aio::Dialer::dial(&mut dialer)).is_none());
    // The RST is back at 2,006,400 ns; 11,000,000,000 before.
    assert_eq!(net.borrow().sim.now(), 1_002_006_400);
}

/// The controller's handshake-completing ACK is lost, so its Hello
/// segment completes the handshake: deferred, it is handed to the
/// stack after the pass's accept, and the connection sits queued with
/// the Hello in it. The endpoint must answer at that event's instant,
/// not at whatever event next services it.
#[test]
fn deferred_handshake_is_answered_at_its_instant() {
    use crate::controller::ControlChannel;
    let mut t = plab_netsim::TopologyBuilder::new();
    let ep = t.host("ep", "10.0.0.1".parse().unwrap());
    let ctl = t.host("ctl", "10.0.0.2".parse().unwrap());
    t.link(ep, ctl, plab_netsim::LinkParams::new(1, 1));
    let net = Rc::new(RefCell::new(SimNet::new(t.build())));
    net.borrow_mut().add_endpoint(ep, EndpointConfig::default());
    let mut chan = SimChannel::connect(&net, ctl, "10.0.0.1".parse().unwrap());
    {
        // The ACK left as the SYN-ACK arrived, now; at 1 Mb/s it is on
        // the wire for 320 us, then 1 ms of latency. The Hello leaves
        // behind it and lands 368 us later, with the link back up.
        let mut n = net.borrow_mut();
        let (now, link) = (n.sim.now(), n.sim.link_between(ep, ctl).unwrap());
        let ack_lands = now + 320_000 + plab_netsim::MILLISECOND;
        n.sim
            .schedule_fault(now, plab_netsim::FaultAction::LinkDown { link });
        n.sim
            .schedule_fault(ack_lands + 1, plab_netsim::FaultAction::LinkUp { link });
    }
    ControlChannel::send(&mut chan, &Message::Hello { version: 1 });
    let reply = ControlChannel::recv(&mut chan, None);
    assert!(matches!(reply, Some(Message::HelloAck { .. })), "{reply:?}");
    // Without the catch-up in `step` the reply waits for the
    // endpoint's own ACK of the Hello to land at the controller, 1 ms
    // later.
    assert_eq!(ControlChannel::now(&chan), 6_272_000);
}

/// Two endpoints behind one router, and a controller that says Hello
/// to the first three times, each once the last was answered. `advance`
/// runs one event and the servicing after it, and returns the
/// endpoints it serviced. Returns what the controller read and when,
/// and every endpoint `advance` serviced.
fn three_hellos(advance: fn(&mut SimNet) -> Vec<usize>) -> (Vec<(u64, Vec<u8>)>, Vec<usize>) {
    let mut t = plab_netsim::TopologyBuilder::new();
    let r = t.router("r", Ipv4Addr::new(10, 0, 0, 254));
    let a = t.host("a", Ipv4Addr::new(10, 0, 0, 1));
    let b = t.host("b", Ipv4Addr::new(10, 0, 0, 2));
    let ctl = t.host("ctl", Ipv4Addr::new(10, 0, 0, 9));
    for h in [a, b, ctl] {
        t.link(r, h, plab_netsim::LinkParams::new(1, 1));
    }
    let mut net = SimNet::new(t.build());
    net.add_endpoint(a, EndpointConfig::default());
    net.add_endpoint(b, EndpointConfig::default());
    let conn = net
        .sim
        .tcp_connect(ctl, Ipv4Addr::new(10, 0, 0, 1), CONTROL_PORT);
    let (mut read, mut serviced, mut sent) = (Vec::new(), Vec::new(), 0);
    while read.len() < 3 {
        if sent == read.len() && net.sim.tcp_established(ctl, conn) {
            net.sim
                .tcp_send(ctl, conn, &Message::Hello { version: 1 }.to_frame());
            sent += 1;
        }
        assert!(net.sim.next_event_time().is_some(), "the world ran dry");
        serviced.extend(advance(&mut net));
        let bytes = net.sim.tcp_recv(ctl, conn, 65536);
        if !bytes.is_empty() {
            read.push((net.sim.now(), bytes));
        }
    }
    (read, serviced)
}

/// Traffic to one endpoint of two: no dense pass services the other,
/// whose node nothing touches, and the first answers what it answers,
/// when it does, in a run that services every host after every event.
#[test]
fn an_untouched_endpoint_is_never_serviced() {
    let (every, all) = three_hellos(|net| {
        net.sim.step();
        let [_, _, eps, _] = net.pass(true);
        eps
    });
    let (dense, mine) = three_hellos(|net| {
        net.sim.step();
        let hosts = net.serve();
        let eps = hosts[EP].clone();
        net.settle(hosts);
        eps
    });
    assert_eq!(dense, every);
    assert!(all.contains(&1), "a full pass services both");
    assert!(mine.contains(&0) && !mine.contains(&1), "{mine:?}");
    let instants: Vec<u64> = dense.iter().map(|r| r.0).collect();
    assert_eq!(instants, [11_904_000, 18_528_000, 25_152_000]);
}

/// A detached session on an endpoint whose node nothing touches any
/// more still expires at the first event past its linger window (the
/// window runs on the clock), here a timer on the controller's host:
/// the instant a pass after every event reads.
#[test]
fn an_untouched_detached_session_expires_at_the_first_event_past_its_window() {
    use crate::cert::Restrictions;
    use crate::controller::{Controller, Credentials};
    use plab_crypto::{KeyHash, Keypair};
    let (operator, experimenter) = (Keypair::from_seed(&[3; 32]), Keypair::from_seed(&[4; 32]));
    let mut t = plab_netsim::TopologyBuilder::new();
    let ep = t.host("ep", Ipv4Addr::new(10, 0, 0, 1));
    let ctl = t.host("ctl", Ipv4Addr::new(10, 0, 0, 2));
    t.link(ep, ctl, plab_netsim::LinkParams::new(1, 0));
    let mut net = SimNet::new(t.build());
    let trusted_keys = vec![KeyHash::of(&operator.public)];
    let linger = 2 * plab_netsim::SECOND;
    net.add_endpoint(
        ep,
        EndpointConfig {
            trusted_keys,
            session_linger_ns: linger,
            ..Default::default()
        },
    );
    let net = Rc::new(RefCell::new(net));
    let descriptor = crate::descriptor::ExperimentDescriptor {
        name: "linger".into(),
        controller_addr: "10.0.0.2:7000".into(),
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
    let chan = SimChannel::connect(&net, ctl, Ipv4Addr::new(10, 0, 0, 1));
    drop(Controller::connect(chan, &creds).expect("authenticates"));
    let mut n = net.borrow_mut();
    let sessions = |n: &SimNet| n.endpoint_agent(EndpointId::first()).session_count();
    assert_eq!(sessions(&n), 1, "detached, not ended");
    let start = n.sim.now();
    for k in 0..400 {
        n.sim
            .schedule_timer(ctl, k, start + k * 7 * plab_netsim::MILLISECOND);
    }
    while sessions(&n) == 1 {
        assert!(n.step(), "the timers ran out");
    }
    assert_eq!(
        (n.sim.now() - start) % (7 * plab_netsim::MILLISECOND),
        0,
        "at a timer"
    );
    // What a harness that services every endpoint after every event
    // reads.
    assert_eq!(n.sim.now(), 2_014_000_000);
}

/// What an endpoint's service leaves that no event will announce keeps
/// the endpoint in the next pass, whatever the simulator does: more
/// Hellos arriving in one pass than backpressure lets it answer, and
/// then a FIN that a pass reads behind the last Hello.
#[test]
fn work_a_pass_leaves_keeps_its_endpoint_in_the_next_pass() {
    let mut t = plab_netsim::TopologyBuilder::new();
    let ep = t.host("ep", Ipv4Addr::new(10, 0, 0, 1));
    let ctl = t.host("ctl", Ipv4Addr::new(10, 0, 0, 2));
    t.link(ep, ctl, plab_netsim::LinkParams::new(1, 0));
    let mut net = SimNet::new(t.build());
    let id = net.add_endpoint(ep, EndpointConfig::default());
    let conn = net
        .sim
        .tcp_connect(ctl, Ipv4Addr::new(10, 0, 0, 1), CONTROL_PORT);
    net.run_until(plab_netsim::SECOND);
    let hello = Message::Hello { version: 1 }.to_frame();
    // Each burst lands whole before anything services the endpoint.
    let land = |net: &mut SimNet, bytes: &[u8], close: bool| {
        net.sim.tcp_send(ctl, conn, bytes);
        if close {
            net.sim.tcp_close(ctl, conn);
        }
        let t = net.sim.now() + plab_netsim::SECOND;
        net.sim.run_until(t);
        net.process();
        let reactor = net.endpoint_reactor(id);
        (
            net.unsettled.clone(),
            reactor.queued_in_messages(),
            reactor.sessions().count(),
        )
    };
    assert_eq!(
        land(&mut net, &hello.repeat(7_000), false),
        (vec![0], 101, 1)
    );
    net.process();
    assert_eq!(net.unsettled, []);
    assert_eq!(net.endpoint_reactor(id).queued_in_messages(), 0);
    assert_eq!(land(&mut net, &hello, true), (vec![0], 0, 1));
    net.process();
    assert_eq!(net.unsettled, []);
    assert_eq!(net.endpoint_reactor(id).sessions().count(), 0);
    let mut replies = FrameDecoder::new();
    while net.step() {
        replies.fill(|max| net.sim.tcp_recv(ctl, conn, max));
    }
    let acks = std::iter::from_fn(|| replies.next_message().ok().flatten());
    assert_eq!(
        acks.filter(|m| matches!(m, Message::HelloAck { .. }))
            .count(),
        7_001
    );
}
