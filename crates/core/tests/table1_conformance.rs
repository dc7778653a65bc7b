//! Table 1 conformance: every endpoint operation, with its documented
//! semantics, exercised over the full stack.
//!
//! | op | §3.1 semantics exercised here |
//! |----|-------------------------------|
//! | `nopen` (raw, tcp, udp) | both forms; id conflicts; monitor veto |
//! | `nclose` | closes; double close errors; frees UDP port |
//! | `nsend` | future scheduling; "time in the past" = now; actual-time recording |
//! | `ncap` | filter install; expiry time; default = capture nothing |
//! | `npoll` | immediate when data buffered; waits until `time` otherwise |
//! | `mread`/`mwrite` | info block, clock, scratch writes, RO enforcement |

use packetlab::cert::Restrictions;
use packetlab::controller::{
    experiments, handshake, ControlChannel, ControlPlane, Controller, ControllerError, Credentials,
    SinkHost,
};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use packetlab::wire::{Command, ErrCode, Message, Response};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, TopologyBuilder, MILLISECOND, SECOND};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

struct World {
    net: Rc<RefCell<SimNet>>,
    controller: plab_netsim::NodeId,
    endpoint_addr: Ipv4Addr,
    target_addr: Ipv4Addr,
}

fn build() -> (World, Keypair) {
    let operator = kp(1);
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.0.9.1".parse().unwrap());
    let r = t.router("r", "10.0.0.254".parse().unwrap());
    let endpoint = t.host("endpoint", "10.0.0.1".parse().unwrap());
    let target = t.host("target", "10.0.3.1".parse().unwrap());
    t.link(controller, r, LinkParams::new(5, 0));
    t.link(endpoint, r, LinkParams::new(5, 0));
    t.link(target, r, LinkParams::new(5, 0));
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
            controller,
            endpoint_addr: "10.0.0.1".parse().unwrap(),
            target_addr: "10.0.3.1".parse().unwrap(),
        },
        operator,
    )
}

fn connect(world: &World, operator: &Keypair) -> Controller<SimChannel> {
    let experimenter = kp(42);
    let descriptor = ExperimentDescriptor {
        name: "table1".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(operator, &experimenter, descriptor, Restrictions::none(), 1);
    let chan = SimChannel::connect(&world.net, world.controller, world.endpoint_addr);
    Controller::connect(chan, &creds).unwrap()
}

#[test]
fn nopen_both_forms_and_conflicts() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    // First form: raw IP socket.
    ctrl.nopen_raw(1).unwrap();
    // Second form: TCP and UDP with (locport, remaddr, remport).
    ctrl.nopen_udp(2, 5000, world.target_addr, 7).unwrap();
    ctrl.nopen_tcp(3, 0, world.target_addr, 80).unwrap();
    // Reusing a socket id fails.
    let err = ctrl.nopen_raw(1).unwrap_err();
    assert!(matches!(
        err,
        ControllerError::Endpoint(ErrCode::BadSocket, _)
    ));
    // Socket count visible in the info block.
    assert_eq!(ctrl.read_info("sockets.open").unwrap(), 3);
}

#[test]
fn nclose_semantics() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    ctrl.nopen_udp(1, 5000, world.target_addr, 7).unwrap();
    ctrl.nclose(1).unwrap();
    // Double close errors.
    let err = ctrl.nclose(1).unwrap_err();
    assert!(matches!(
        err,
        ControllerError::Endpoint(ErrCode::BadSocket, _)
    ));
    // Port is free again.
    ctrl.nopen_udp(2, 5000, world.target_addr, 7).unwrap();
}

#[test]
fn nsend_schedules_and_records_actual_time() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let probe =
        |seq| plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 7, seq, &[]);
    // Future send: executes exactly at the requested endpoint time.
    let t0 = ctrl.read_clock().unwrap();
    let when = t0 + 700 * MILLISECOND;
    let tag_future = ctrl.nsend(1, when, probe(1)).unwrap();
    // Past time (0): "To send immediately, the controller specifies a
    // time in the past."
    let tag_now = ctrl.nsend(1, 0, probe(2)).unwrap();
    assert_ne!(tag_future, tag_now);
    let later = ctrl.now() + 2 * SECOND;
    ctrl.channel().wait_until(later);
    assert_eq!(ctrl.read_send_time(tag_future).unwrap(), Some(when));
    let sent_now = ctrl.read_send_time(tag_now).unwrap().unwrap();
    assert!(
        sent_now >= t0 && sent_now < when,
        "immediate send happened promptly"
    );
}

#[test]
fn ncap_expiry_stops_capture() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let t0 = ctrl.read_clock().unwrap();
    // Filter valid only until t0 + 200ms.
    ctrl.ncap_cpf(1, t0 + 200 * MILLISECOND, experiments::ICMP_CAPTURE_FILTER)
        .unwrap();
    // Probe whose reply arrives before expiry: captured.
    let probe1 = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 7, 1, &[]);
    ctrl.nsend(1, 0, probe1).unwrap();
    let poll = ctrl.npoll(t0 + 150 * MILLISECOND).unwrap();
    assert_eq!(poll.packets.len(), 1, "reply inside the capture window");
    // Probe after expiry: not captured ("tells the endpoint when to stop
    // capturing packets").
    let t1 = ctrl.read_clock().unwrap();
    let probe2 = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 7, 2, &[]);
    ctrl.nsend(1, t1 + 300 * MILLISECOND, probe2).unwrap();
    let poll = ctrl.npoll(t1 + 800 * MILLISECOND).unwrap();
    assert!(poll.packets.is_empty(), "filter expired; nothing captured");
}

#[test]
fn default_raw_behavior_captures_nothing() {
    // "The default behavior is to drop all packets, so an endpoint does
    // not start capturing packets on a raw socket until the experiment
    // controller installs a filter."
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let probe = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 7, 1, &[]);
    ctrl.nsend(1, 0, probe).unwrap();
    let t0 = ctrl.read_clock().unwrap();
    let poll = ctrl.npoll(t0 + 300 * MILLISECOND).unwrap();
    assert!(poll.packets.is_empty(), "no filter, no capture");
}

#[test]
fn npoll_immediate_when_buffered() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    ctrl.ncap_cpf(1, u64::MAX, experiments::ICMP_CAPTURE_FILTER)
        .unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let probe = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 7, 1, &[]);
    ctrl.nsend(1, 0, probe).unwrap();
    // Let the reply arrive and sit in the buffer.
    let later = ctrl.now() + SECOND;
    ctrl.channel().wait_until(later);
    let before = ctrl.read_clock().unwrap();
    // npoll with a far-future deadline returns immediately — data waits.
    let poll = ctrl.npoll(before + 3600 * SECOND).unwrap();
    assert_eq!(poll.packets.len(), 1);
    let after = ctrl.read_clock().unwrap();
    assert!(
        after - before < 200 * MILLISECOND,
        "returned promptly, not at deadline"
    );
}

#[test]
fn udp_socket_data_flows_through_npoll() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    // Open a UDP socket to the target's echo service... the target is a
    // plain sim host; have the endpoint send to the *controller's* UDP
    // port instead and verify with a reverse-path packet from the
    // controller host to the endpoint socket.
    let ctrl_addr = ctrl.channel().sink_addr();
    ctrl.nopen_udp(1, 6100, ctrl_addr, 6200).unwrap();
    ctrl.channel().sink_bind(6200);
    // Endpoint → controller.
    let tag = ctrl.nsend(1, 0, b"from endpoint".to_vec()).unwrap();
    let later = ctrl.now() + SECOND;
    ctrl.channel().wait_until(later);
    let got = SinkHost::sink_take(&mut ctrl, 6200);
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].1, world.endpoint_addr);
    assert_eq!(got[0].4, 13);
    assert!(ctrl.read_send_time(tag).unwrap().is_some());
    // Controller host → endpoint socket; data comes back via npoll.
    {
        let net = ctrl.channel().net();
        let mut n = net.borrow_mut();
        let cnode = world.controller;
        n.sim
            .udp_send(cnode, 6200, world.endpoint_addr, 6100, b"to endpoint");
    }
    let t0 = ctrl.read_clock().unwrap();
    let poll = ctrl.npoll(t0 + SECOND).unwrap();
    assert_eq!(poll.packets.len(), 1);
    assert_eq!(poll.packets[0].0, 1, "arrived on sktid 1");
    assert_eq!(poll.packets[0].2, b"to endpoint");
}

#[test]
fn tcp_socket_end_to_end() {
    let (world, operator) = build();
    // The target runs a TCP echo-ish server (we just listen and send).
    {
        let mut n = world.net.borrow_mut();
        let target = n.sim.node_by_name("target").unwrap();
        n.sim.tcp_listen(target, 80);
    }
    let mut ctrl = connect(&world, &operator);
    ctrl.nopen_tcp(1, 0, world.target_addr, 80).unwrap();
    // Send immediately on the TCP socket.
    ctrl.nsend(1, 0, b"GET /".to_vec()).unwrap();
    let later = ctrl.now() + 2 * SECOND;
    ctrl.channel().wait_until(later);
    // Server side: accept and reply.
    {
        let net = ctrl.channel().net();
        let mut n = net.borrow_mut();
        let target = n.sim.node_by_name("target").unwrap();
        let conn = n.sim.tcp_accept(target, 80).expect("connection accepted");
        let got = n.sim.tcp_recv(target, conn, 1024);
        assert_eq!(got, b"GET /");
        n.sim.tcp_send(target, conn, b"200 OK");
        let now = n.sim.now();
        n.run_until(now + SECOND);
    }
    // The reply flows back through npoll.
    let t0 = ctrl.read_clock().unwrap();
    let poll = ctrl.npoll(t0 + SECOND).unwrap();
    assert_eq!(poll.packets.len(), 1);
    assert_eq!(poll.packets[0].2, b"200 OK");
}

#[test]
fn mread_clock_monotonic_and_mwrite_scratch() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    let c1 = ctrl.read_clock().unwrap();
    let c2 = ctrl.read_clock().unwrap();
    let c3 = ctrl.read_clock().unwrap();
    assert!(c1 < c2 && c2 < c3, "clock strictly advances across RTTs");
    // Whole-memory read is within bounds.
    let all = ctrl
        .mread(0, packetlab::memory::MEMORY_SIZE as u32)
        .unwrap();
    assert_eq!(all.len(), packetlab::memory::MEMORY_SIZE);
    // Out-of-range read fails.
    let err = ctrl
        .mread(0, packetlab::memory::MEMORY_SIZE as u32 + 1)
        .unwrap_err();
    assert!(matches!(
        err,
        ControllerError::Endpoint(ErrCode::BadMemory, _)
    ));
    // Scratch write visible to monitors' info space is covered in the
    // monitor tests; here verify persistence across commands.
    ctrl.mwrite(72, vec![0xaa; 8]).unwrap();
    ctrl.read_clock().unwrap();
    assert_eq!(ctrl.mread(72, 8).unwrap(), vec![0xaa; 8]);
}

#[test]
fn yield_releases_control() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    ctrl.read_clock().unwrap();
    ctrl.yield_endpoint().unwrap();
    // A yielded controller re-contends on its next command (nobody else
    // wants the endpoint, so it simply gets control back).
    assert!(ctrl.read_clock().is_ok());
}

/// Connect with a certificate-restricted capture buffer (the §3.3
/// `max_buffer_bytes` restriction), for the drop-accounting tests.
fn connect_with_buffer(world: &World, operator: &Keypair, cap: u64) -> Controller<SimChannel> {
    let experimenter = kp(42);
    let descriptor = ExperimentDescriptor {
        name: "table1".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(
        operator,
        &experimenter,
        descriptor,
        Restrictions {
            max_buffer_bytes: Some(cap),
            ..Restrictions::none()
        },
        1,
    );
    let chan = SimChannel::connect(&world.net, world.controller, world.endpoint_addr);
    Controller::connect(chan, &creds).unwrap()
}

/// `npoll` drop accounting stays exact while the access link is lossy:
/// replies that clear the (lossy) network but find the capture buffer full
/// are counted — per packet and per byte — and the counters reset once
/// reported ("the response also notes if any data was dropped due to
/// insufficient buffer space").
#[test]
fn ncap_drop_accounting_exact_under_loss() {
    // The same accounting is exported as plab-obs counters; enable
    // recording so the end of the test can assert against the public
    // metric names instead of endpoint internals (values are
    // thread-local, so parallel tests observe only their own work).
    plab_obs::enable();
    plab_obs::reset();
    let (world, operator) = build();
    // Capacity fits exactly 3 echo replies (20 IP + 8 ICMP + 32 payload).
    let reply_len = 60u64;
    let mut ctrl = connect_with_buffer(&world, &operator, 3 * reply_len);
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    ctrl.ncap_cpf(1, u64::MAX, experiments::ICMP_CAPTURE_FILTER)
        .unwrap();

    // 25% uniform loss on the endpoint's access link, mid-experiment: the
    // drop *accounting* must not be confused by network loss (lost replies
    // are simply absent; only buffer rejections are counted).
    let t0 = ctrl.read_clock().unwrap();
    {
        let mut n = world.net.borrow_mut();
        let ep = n.sim.node_by_name("endpoint").unwrap();
        let r = n.sim.node_by_name("r").unwrap();
        let link = n.sim.link_between(ep, r).unwrap();
        n.sim.schedule_fault(
            t0 + 50 * MILLISECOND,
            plab_netsim::FaultAction::SetLoss { link, loss: 0.25 },
        );
    }
    // 12 probes, paced 20 ms apart, starting after the loss kicks in.
    for i in 0..12u16 {
        let probe =
            plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 7, i, &[0u8; 32]);
        ctrl.nsend(
            1,
            t0 + 100 * MILLISECOND + i as u64 * 20 * MILLISECOND,
            probe,
        )
        .unwrap();
    }
    let poll = ctrl.npoll(t0 + SECOND).unwrap();
    // The buffer admitted at most its capacity…
    let captured_bytes: u64 = poll.packets.iter().map(|(_, _, p)| p.len() as u64).sum();
    assert!(
        captured_bytes <= 3 * reply_len,
        "buffer overran its certificate cap"
    );
    assert_eq!(
        poll.packets.len(),
        3,
        "capacity admits exactly three replies"
    );
    // …and every rejected reply was counted, bytes consistent with the
    // uniform reply size.
    assert!(
        poll.dropped_packets >= 1,
        "loss left enough replies to overflow"
    );
    assert_eq!(
        poll.dropped_bytes,
        poll.dropped_packets * reply_len,
        "byte accounting must match the uniform reply size",
    );
    // Counters are drained by the report: an immediate second poll sees
    // a fresh window with nothing dropped (capacity was freed).
    let t1 = ctrl.read_clock().unwrap();
    let poll2 = ctrl.npoll(t1 + 100 * MILLISECOND).unwrap();
    assert_eq!(
        poll2.dropped_packets, 0,
        "drop counters must not double-report"
    );
    assert_eq!(poll2.dropped_bytes, 0);
    // The observability counters tell the same story: what npoll reported
    // is exactly what the capture buffer counted. The admission counter is
    // cumulative, so it also covers replies admitted into the capacity the
    // first poll freed (drained by the second poll — all replies are back
    // well before its deadline).
    assert_eq!(
        plab_obs::metrics::counter("endpoint.capture.packets"),
        (poll.packets.len() + poll2.packets.len()) as u64,
    );
    assert_eq!(
        plab_obs::metrics::counter("endpoint.capture.dropped_packets"),
        poll.dropped_packets,
    );
    assert_eq!(
        plab_obs::metrics::counter("endpoint.capture.dropped_bytes"),
        poll.dropped_bytes,
    );
    plab_obs::disable();
}

/// Send a sequenced command over a raw channel and wait for its
/// sequenced response.
fn send_seq(chan: &mut SimChannel, seq: u64, cmd: Command) -> Response {
    chan.send(&Message::CmdSeq { seq, cmd });
    let deadline = chan.now() + 5 * SECOND;
    loop {
        match chan.recv(Some(deadline)) {
            Some(Message::RespSeq { seq: s, resp }) if s == seq => return resp,
            Some(_) => continue,
            None => panic!("no RespSeq for seq {seq}"),
        }
    }
}

/// The `CmdSeq` replay cache, observed through its metrics: a replayed
/// sequence number still in the cache is answered without re-execution
/// (a hit); one evicted from the bounded cache is refused with a typed
/// error (a miss). Asserted via the public `plab-obs` counters rather
/// than endpoint internals.
#[test]
fn cmd_seq_replay_cache_metrics_hit_and_miss() {
    plab_obs::enable();
    plab_obs::reset();
    let (world, operator) = build();
    let experimenter = kp(42);
    let descriptor = ExperimentDescriptor {
        name: "table1".into(),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let creds = Credentials::issue(
        &operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        1,
    );
    let mut chan = SimChannel::connect(&world.net, world.controller, world.endpoint_addr);
    handshake(&mut chan, &creds, 5 * SECOND).unwrap();

    // Execute seq 1, then replay it: the endpoint answers from its cache
    // with the byte-identical response.
    let read = Command::MRead {
        memaddr: 72,
        bytecnt: 8,
    };
    let first = send_seq(&mut chan, 1, read.clone());
    assert!(matches!(first, Response::Mem { .. }));
    let replayed = send_seq(&mut chan, 1, read.clone());
    assert_eq!(
        first, replayed,
        "replay returns the cached response verbatim"
    );
    assert_eq!(plab_obs::metrics::counter("endpoint.replay.hits"), 1);
    assert_eq!(plab_obs::metrics::counter("endpoint.replay.misses"), 0);

    // Push enough newer sequence numbers to evict seq 1 from the bounded
    // cache (REPLAY_CACHE = 32 entries)…
    for seq in 2..40u64 {
        assert!(matches!(
            send_seq(&mut chan, seq, read.clone()),
            Response::Mem { .. }
        ));
    }
    // …then replay it once more: explicitly refused, counted as a miss.
    let evicted = send_seq(&mut chan, 1, read);
    assert!(
        matches!(
            evicted,
            Response::Err {
                code: ErrCode::Limit,
                ..
            }
        ),
        "evicted replay must be refused, not re-executed: {evicted:?}",
    );
    assert_eq!(plab_obs::metrics::counter("endpoint.replay.hits"), 1);
    assert_eq!(plab_obs::metrics::counter("endpoint.replay.misses"), 1);
    plab_obs::disable();
}

/// Filter expiry stays exact across a link flap that severs (and TCP
/// retransmission then heals) both the control channel and the
/// measurement path: a reply inside the window is captured, a reply lost
/// to the outage is simply absent, and a reply after expiry is neither
/// captured nor counted as a buffer drop.
#[test]
fn ncap_expiry_exact_across_link_flap() {
    let (world, operator) = build();
    let mut ctrl = connect(&world, &operator);
    ctrl.nopen_raw(1).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    let t0 = ctrl.read_clock().unwrap();
    // Filter expires at t0 + 1 s.
    ctrl.ncap_cpf(1, t0 + SECOND, experiments::ICMP_CAPTURE_FILTER)
        .unwrap();

    // Flap the access link: down at +200 ms, back at +600 ms. The control
    // connection rides it out on TCP retransmission (no session loss).
    {
        let mut n = world.net.borrow_mut();
        let ep = n.sim.node_by_name("endpoint").unwrap();
        let r = n.sim.node_by_name("r").unwrap();
        let link = n.sim.link_between(ep, r).unwrap();
        n.sim.schedule_fault(
            t0 + 200 * MILLISECOND,
            plab_netsim::FaultAction::LinkDown { link },
        );
        n.sim.schedule_fault(
            t0 + 600 * MILLISECOND,
            plab_netsim::FaultAction::LinkUp { link },
        );
    }

    let probe =
        |seq: u16| plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 7, seq, &[]);
    // Probe 1: round trip completes before the flap — captured.
    ctrl.nsend(1, t0 + 100 * MILLISECOND, probe(1)).unwrap();
    // Probe 2: departs into the outage — lost on the wire, no reply.
    ctrl.nsend(1, t0 + 300 * MILLISECOND, probe(2)).unwrap();
    // Probe 3: departs after recovery but after expiry — its reply
    // arrives with no filter installed.
    ctrl.nsend(1, t0 + 1_100 * MILLISECOND, probe(3)).unwrap();

    let poll = ctrl.npoll(t0 + 900 * MILLISECOND).unwrap();
    assert_eq!(poll.packets.len(), 1, "only the pre-flap reply is captured");
    assert_eq!(poll.dropped_packets, 0, "network loss is not a buffer drop");

    // Wait out probe 3's reply window: nothing captured, nothing counted.
    let poll = ctrl.npoll(t0 + 2 * SECOND).unwrap();
    assert!(
        poll.packets.is_empty(),
        "filter expired before the last reply"
    );
    assert_eq!(
        poll.dropped_packets, 0,
        "post-expiry packets are filtered, not dropped"
    );
    assert_eq!(poll.dropped_bytes, 0);
}
