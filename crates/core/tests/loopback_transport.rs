//! The real-socket deployment, tested headlessly: endpoint server thread,
//! controller over a real TCP control channel, UDP experiment over
//! loopback — and what the reactor enforces (session cap, ring-order
//! service, poisoned-stream close), asserted on this backend too.

use packetlab::cert::Restrictions;
use packetlab::controller::robust::{Dialer, RetryPolicy, RobustController};
use packetlab::controller::{
    aio, ControlChannel, ControlPlane, Controller, ControllerError, Credentials,
};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::netstack::NetStack;
use packetlab::reactor::EndpointReactor;
use packetlab::transport::{EndpointServer, RealStack, TcpChannel};
use packetlab::wire::{Command, ErrCode, Message, Response};
use plab_crypto::{KeyHash, Keypair};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn kp(seed: u8) -> Keypair {
    Keypair::from_seed(&[seed; 32])
}

struct Deployment {
    control_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

fn bind(operator: &Keypair, max_sessions: usize) -> EndpointServer {
    EndpointServer::bind(
        "127.0.0.1:0".parse().unwrap(),
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            max_sessions,
            ..Default::default()
        },
    )
    .unwrap()
}

fn creds(operator: &Keypair, control_addr: SocketAddr) -> Credentials {
    let experimenter = kp(42);
    Credentials::issue(
        operator,
        &experimenter,
        ExperimentDescriptor {
            name: "loopback-test".into(),
            controller_addr: control_addr.to_string(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        },
        Restrictions::none(),
        1,
    )
}

impl Deployment {
    fn start(operator: &Keypair) -> Deployment {
        Deployment::start_capped(operator, EndpointConfig::default().max_sessions)
    }

    fn start_capped(operator: &Keypair, max_sessions: usize) -> Deployment {
        let server = bind(operator, max_sessions);
        let control_addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || server.run(stop))
        };
        Deployment {
            control_addr,
            stop,
            thread: Some(thread),
        }
    }

    fn connect(&self, operator: &Keypair) -> Controller<TcpChannel> {
        let chan = TcpChannel::connect(self.control_addr).unwrap();
        Controller::connect(chan, &creds(operator, self.control_addr))
            .expect("authenticate over real TCP")
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[test]
fn authenticate_and_read_memory_over_real_tcp() {
    let operator = kp(1);
    let d = Deployment::start(&operator);
    let mut ctrl = d.connect(&operator);
    let c1 = ctrl.read_clock().unwrap();
    let c2 = ctrl.read_clock().unwrap();
    assert!(c2 > c1, "real monotonic clock advances");
    ctrl.mwrite(64, vec![5; 8]).unwrap();
    assert_eq!(ctrl.mread(64, 8).unwrap(), vec![5; 8]);
    assert_eq!(
        ctrl.endpoint_addr().unwrap(),
        "127.0.0.1".parse::<std::net::Ipv4Addr>().unwrap()
    );
}

#[test]
fn raw_and_tcp_sockets_honestly_unsupported() {
    let operator = kp(1);
    let d = Deployment::start(&operator);
    let mut ctrl = d.connect(&operator);
    let err = ctrl.nopen_raw(1).unwrap_err();
    assert!(matches!(
        err,
        ControllerError::Endpoint(ErrCode::Unsupported, _)
    ));
    let err = ctrl
        .nopen_tcp(2, 0, "127.0.0.1".parse().unwrap(), 80)
        .unwrap_err();
    assert!(matches!(
        err,
        ControllerError::Endpoint(ErrCode::Unsupported, _)
    ));
    // The flags field agrees.
    let flags = ctrl.read_info("flags").unwrap();
    assert_eq!(flags & plab_packet::layout::INFO_FLAG_RAW as u64, 0);
}

#[test]
fn scheduled_udp_send_and_capture_over_loopback() {
    let operator = kp(1);
    let d = Deployment::start(&operator);
    let mut ctrl = d.connect(&operator);

    // Real UDP echo peer.
    let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
    peer.set_read_timeout(Some(std::time::Duration::from_millis(10)))
        .unwrap();
    let peer_addr = peer.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let echo_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            while !stop.load(Ordering::Relaxed) {
                if let Ok((n, from)) = peer.recv_from(&mut buf) {
                    let _ = peer.send_to(&buf[..n], from);
                }
            }
        })
    };

    let peer_ip = match peer_addr.ip() {
        std::net::IpAddr::V4(ip) => ip,
        _ => unreachable!(),
    };
    ctrl.nopen_udp(1, 39_100, peer_ip, peer_addr.port())
        .unwrap();
    let t0 = ctrl.read_clock().unwrap();
    let when = t0 + 30_000_000;
    let tag = ctrl.nsend(1, when, b"ping".to_vec()).unwrap();
    let poll = ctrl.npoll(when + 3_000_000_000).unwrap();
    assert_eq!(poll.packets.len(), 1);
    assert_eq!(poll.packets[0].2, b"ping");
    // The send-log timestamp is close to the requested time (within the
    // 200 µs polling cadence plus OS scheduling slop).
    let tsnd = ctrl.read_send_time(tag).unwrap().unwrap();
    assert!(tsnd >= when, "never early");
    assert!(tsnd - when < 50_000_000, "sent within 50 ms of schedule");

    ctrl.nclose(1).unwrap();
    stop.store(true, Ordering::Relaxed);
    echo_thread.join().unwrap();
}

#[test]
fn wrong_operator_rejected_over_real_tcp() {
    let operator = kp(1);
    let mallory = kp(66);
    let d = Deployment::start(&operator);
    let experimenter = kp(42);
    let creds = Credentials::issue(
        &mallory,
        &experimenter,
        ExperimentDescriptor {
            name: "rogue".into(),
            controller_addr: d.control_addr.to_string(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        },
        Restrictions::none(),
        1,
    );
    let chan = TcpChannel::connect(d.control_addr).unwrap();
    assert!(Controller::connect(chan, &creds).is_err());
}

/// Dials the deployment over real TCP. Its first backoff drops `holder`,
/// the controller occupying the endpoint's only session, so the redial
/// after it finds a free slot.
struct TcpDialer {
    addr: SocketAddr,
    epoch: Instant,
    holder: Option<Controller<TcpChannel>>,
}

impl aio::Dialer for TcpDialer {
    type Chan = TcpChannel;

    async fn dial(&mut self) -> Option<TcpChannel> {
        TcpChannel::connect(self.addr).ok()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    async fn wait_until(&mut self, time: u64) {
        self.holder = None;
        std::thread::sleep(Duration::from_nanos(
            time.saturating_sub(aio::Dialer::now(self)),
        ));
    }
}

impl Dialer for TcpDialer {}

/// The session cap is enforced on real sockets as it is in the simulator
/// (`contention.rs::session_cap_rejects_with_typed_busy_and_counts`): an
/// over-capacity handshake is answered with a typed `Busy` at once, and a
/// robust controller counts it, backs off and gets in when a slot frees.
#[test]
fn session_cap_answers_typed_busy_over_real_tcp() {
    let operator = kp(1);
    let d = Deployment::start_capped(&operator, 1);
    let mut first = d.connect(&operator);
    first.read_clock().unwrap();

    let creds = creds(&operator, d.control_addr);
    let asked = Instant::now();
    let chan = TcpChannel::connect(d.control_addr).unwrap();
    match Controller::connect(chan, &creds) {
        Err(ControllerError::Endpoint(ErrCode::Busy, _)) => {}
        Err(other) => panic!("expected typed Busy at capacity, got {other:?}"),
        Ok(_) => panic!("expected typed Busy at capacity, got a session"),
    }
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "refused at once, not by timeout"
    );
    first.read_clock().unwrap();

    plab_obs::enable();
    plab_obs::reset();
    let dialer = TcpDialer {
        addr: d.control_addr,
        epoch: Instant::now(),
        holder: Some(first),
    };
    let policy = RetryPolicy {
        base_backoff: 20_000_000,
        ..Default::default()
    };
    let mut robust = RobustController::connect(dialer, creds, policy).expect("admitted on redial");
    assert!(
        robust.stats.failed_dials >= 1 && robust.stats.connects == 1,
        "{:?}",
        robust.stats
    );
    assert!(plab_obs::metrics::counter("controller.busy_rejections") >= 1);
    robust.read_clock().unwrap();
}

/// A length-prefixed frame no `Message` decodes from poisons its stream:
/// the server closes that connection, and the session next to it never
/// notices.
#[test]
fn corrupt_frame_closes_its_connection_and_no_other() {
    let operator = kp(1);
    let d = Deployment::start(&operator);
    let mut neighbour = d.connect(&operator);

    let mut bad = TcpStream::connect(d.control_addr).unwrap();
    bad.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    bad.write_all(&[1, 0, 0, 0, 0xff]).unwrap();
    let mut buf = [0u8; 64];
    assert!(
        matches!(bad.read(&mut buf), Ok(0)),
        "the server hangs up on a corrupt stream"
    );

    neighbour.mwrite(64, vec![7; 4]).unwrap();
    assert_eq!(neighbour.mread(64, 4).unwrap(), vec![7; 4]);
}

/// Run the server on this thread until `chan` has a message.
fn serve_until_reply(server: &mut EndpointServer, chan: &mut TcpChannel) -> Message {
    for _ in 0..20_000 {
        server.poll_once();
        if let Some(msg) = chan.recv(Some(0)) {
            return msg;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    panic!("no reply within 2 s");
}

/// Commands queued on two sessions in one service round run in the DRR
/// ring's order — sid order, read from where the last round stopped — on
/// every run. The Hellos go last session first so the ring rests on
/// session 1; when both then authenticate at equal priority in one round,
/// §3.3 hands control to session 1, whichever wrote first and whatever
/// order a hash map would list the connections in.
#[test]
fn queued_sessions_are_served_in_sid_order() {
    let operator = kp(1);
    for _ in 0..8 {
        let mut server = bind(&operator, 8);
        let addr = server.local_addr();
        let creds = creds(&operator, addr);
        // Accepted one by one: sids 1 and 2.
        let mut chans: Vec<TcpChannel> = (0..2)
            .map(|_| {
                let chan = TcpChannel::connect(addr).unwrap();
                server.poll_once();
                chan
            })
            .collect();
        // Session 2 goes first at every step; both Auth frames are in the
        // server's socket buffers before the round that serves them.
        let mut auths = Vec::new();
        for chan in chans.iter_mut().rev() {
            chan.send(&Message::Hello {
                version: packetlab::PROTOCOL_VERSION,
            });
            let Message::HelloAck { nonce, .. } = serve_until_reply(&mut server, chan) else {
                panic!("expected HelloAck");
            };
            auths.push(creds.auth_message(&nonce));
        }
        for (chan, auth) in chans.iter_mut().rev().zip(&auths) {
            chan.send(auth);
        }
        std::thread::sleep(Duration::from_millis(20));
        for chan in chans.iter_mut().rev() {
            assert_eq!(serve_until_reply(&mut server, chan), Message::AuthOk);
            chan.send(&Message::CmdSeq {
                seq: 1,
                cmd: Command::MRead {
                    memaddr: 0,
                    bytecnt: 8,
                },
            });
        }
        let first = serve_until_reply(&mut server, &mut chans[0]);
        assert!(
            matches!(
                first,
                Message::RespSeq {
                    resp: Response::Mem { .. },
                    ..
                }
            ),
            "sid 1 in control: {first:?}"
        );
        let second = serve_until_reply(&mut server, &mut chans[1]);
        assert!(
            matches!(
                second,
                Message::RespSeq {
                    resp: Response::Err {
                        code: ErrCode::Suspended,
                        ..
                    },
                    ..
                }
            ),
            "sid 2 suspended: {second:?}"
        );
    }
}

/// A server that went away is a failed call, not a slow reply: the
/// request fails as soon as the close is seen, far inside its timeout.
#[test]
fn closed_peer_fails_the_call_before_its_timeout() {
    let operator = kp(1);
    let d = Deployment::start(&operator);
    let mut ctrl = d.connect(&operator);
    ctrl.set_request_timeout(3_000_000_000);
    drop(d);
    let asked = Instant::now();
    assert_eq!(ctrl.read_clock(), Err(ControllerError::Timeout));
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "took {:?}",
        asked.elapsed()
    );
}

/// `RealStack` with every `tcp_recv` recorded: what the reactor reads.
struct CountingStack {
    inner: RealStack,
    reads: Vec<u64>,
}

impl NetStack for CountingStack {
    fn clock(&self) -> u64 {
        self.inner.clock()
    }
    fn local_addr(&self) -> Ipv4Addr {
        self.inner.local_addr()
    }
    fn external_addr(&self) -> Ipv4Addr {
        self.inner.external_addr()
    }
    fn mtu(&self) -> u32 {
        self.inner.mtu()
    }
    fn raw_supported(&self) -> bool {
        self.inner.raw_supported()
    }
    fn raw_send_at(&mut self, time: u64, packet: Vec<u8>, tag: u64) {
        self.inner.raw_send_at(time, packet, tag)
    }
    fn udp_bind(&mut self, port: u16) -> bool {
        self.inner.udp_bind(port)
    }
    fn udp_unbind(&mut self, port: u16) {
        self.inner.udp_unbind(port)
    }
    fn udp_send_at(
        &mut self,
        time: u64,
        src: u16,
        dst: Ipv4Addr,
        port: u16,
        data: &[u8],
        tag: u64,
    ) {
        self.inner.udp_send_at(time, src, dst, port, data, tag)
    }
    fn take_udp(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        self.inner.take_udp(port)
    }
    fn tcp_connect(&mut self, dst: Ipv4Addr, port: u16) -> u64 {
        self.inner.tcp_connect(dst, port)
    }
    fn tcp_send(&mut self, conn: u64, data: &[u8]) {
        self.inner.tcp_send(conn, data)
    }
    fn tcp_recv(&mut self, conn: u64, max: usize) -> Vec<u8> {
        self.reads.push(conn);
        self.inner.tcp_recv(conn, max)
    }
    fn tcp_readable(&self, conn: u64) -> usize {
        self.inner.tcp_readable(conn)
    }
    fn tcp_close(&mut self, conn: u64) {
        self.inner.tcp_close(conn)
    }
    fn tcp_alive(&self, conn: u64) -> bool {
        self.inner.tcp_alive(conn)
    }
    fn schedule_wakeup(&mut self, key: u64, time: u64) {
        self.inner.schedule_wakeup(key, time)
    }
    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        self.inner.take_send_log()
    }
}

/// Over real sockets the reactor reads a control stream only when bytes
/// wait on it, and a peer's close reaches `tcp_alive` with nothing to
/// read: a client that sends a Hello, takes its answer and closes is torn
/// down after one read, while an idle client's stream is never read.
#[test]
fn only_streams_with_bytes_waiting_are_read() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut stack = CountingStack {
        inner: RealStack::new(Ipv4Addr::LOCALHOST),
        reads: Vec::new(),
    };
    let mut reactor = EndpointReactor::new(EndpointConfig::default());
    let mut adopt = |stack: &mut CountingStack| {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = stack.inner.adopt(listener.accept().unwrap().0);
        (client, conn, reactor.accept(conn))
    };
    let (_idle, idle_conn, idle_sid) = adopt(&mut stack);
    let (mut once, once_conn, once_sid) = adopt(&mut stack);
    // One service round, as `EndpointServer::poll_once` runs it.
    let turn = |reactor: &mut EndpointReactor, stack: &mut CountingStack| {
        reactor.pump(stack);
        reactor.dispatch(stack);
        let dead: Vec<u64> = reactor
            .sessions()
            .filter(|&(_, c)| !stack.tcp_alive(c))
            .map(|(s, _)| s)
            .collect();
        for sid in dead {
            reactor.on_conn_closed(sid, stack);
        }
        reactor.flush(stack);
    };

    let hello = Message::Hello {
        version: packetlab::PROTOCOL_VERSION,
    }
    .to_frame();
    once.write_all(&hello).unwrap();
    let waited = Instant::now();
    while stack.tcp_readable(once_conn) < hello.len() {
        assert!(
            waited.elapsed() < Duration::from_secs(2),
            "the Hello never showed as readable"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        stack.tcp_readable(once_conn),
        hello.len(),
        "exactly the bytes waiting"
    );
    assert_eq!(stack.tcp_readable(idle_conn), 0);
    turn(&mut reactor, &mut stack);
    once.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut header = [0u8; 4];
    once.read_exact(&mut header).expect("an answer arrives");
    let mut answer = vec![0; u32::from_le_bytes(header) as usize];
    once.read_exact(&mut answer).unwrap();
    assert!(matches!(
        Message::decode(&answer),
        Ok(Message::HelloAck { .. })
    ));

    drop(once);
    let waited = Instant::now();
    while reactor.sessions().any(|(sid, _)| sid == once_sid) {
        assert!(
            waited.elapsed() < Duration::from_secs(2),
            "the closed session was never torn down"
        );
        turn(&mut reactor, &mut stack);
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        stack.reads,
        [once_conn],
        "one read for the Hello; the close needs none"
    );
    assert_eq!(
        reactor.sessions().collect::<Vec<_>>(),
        [(idle_sid, idle_conn)]
    );
}
