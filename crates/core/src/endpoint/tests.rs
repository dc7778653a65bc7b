use super::*;
use crate::controller::Credentials;
use crate::wire::Proto;
use plab_crypto::Keypair;
use plab_obs::export::{fnv1a, FNV_OFFSET};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

mod table;
mod transcript;

use transcript::{Tally, Transcript};

/// A canned [`NetStack`] recording agent interactions.
struct MockStack {
    clock: u64,
    /// How many times the agent has asked what time it is.
    clock_reads: std::cell::Cell<u64>,
    addr: Ipv4Addr,
    raw_ok: bool,
    bound_udp: Vec<u16>,
    /// Ports in the order `take_udp` / `udp_unbind` were called with.
    udp_drained: Vec<u16>,
    udp_unbound: Vec<u16>,
    raw_sends: Vec<(u64, Vec<u8>, u64)>,
    udp_sends: Vec<(u64, u16, Ipv4Addr, u16, Vec<u8>, u64)>,
    wakeups: Vec<(u64, u64)>,
    udp_inbox: Vec<(u64, Ipv4Addr, u16, Vec<u8>)>,
    send_log: Vec<(u64, u64)>,
}

impl MockStack {
    fn new() -> MockStack {
        MockStack {
            clock: 1_000,
            clock_reads: std::cell::Cell::new(0),
            addr: Ipv4Addr::new(10, 0, 0, 1),
            raw_ok: true,
            bound_udp: Vec::new(),
            udp_drained: Vec::new(),
            udp_unbound: Vec::new(),
            raw_sends: Vec::new(),
            udp_sends: Vec::new(),
            wakeups: Vec::new(),
            udp_inbox: Vec::new(),
            send_log: Vec::new(),
        }
    }
}

impl NetStack for MockStack {
    fn clock(&self) -> u64 {
        self.clock_reads.set(self.clock_reads.get() + 1);
        self.clock
    }
    fn local_addr(&self) -> Ipv4Addr {
        self.addr
    }
    fn external_addr(&self) -> Ipv4Addr {
        self.addr
    }
    fn mtu(&self) -> u32 {
        1500
    }
    fn raw_supported(&self) -> bool {
        self.raw_ok
    }
    fn raw_send_at(&mut self, time: u64, packet: Vec<u8>, tag: u64) {
        self.raw_sends.push((time, packet, tag));
    }
    fn udp_bind(&mut self, port: u16) -> bool {
        if self.bound_udp.contains(&port) {
            return false;
        }
        self.bound_udp.push(port);
        true
    }
    fn udp_unbind(&mut self, port: u16) {
        self.bound_udp.retain(|p| *p != port);
        self.udp_unbound.push(port);
    }
    fn udp_send_at(
        &mut self,
        time: u64,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
        tag: u64,
    ) {
        self.udp_sends
            .push((time, src_port, dst, dst_port, payload.to_vec(), tag));
    }
    fn take_udp(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        self.udp_drained.push(port);
        std::mem::take(&mut self.udp_inbox)
    }
    fn tcp_connect(&mut self, _dst: Ipv4Addr, _dst_port: u16) -> u64 {
        7
    }
    fn tcp_send(&mut self, _conn: u64, _data: &[u8]) {}
    fn tcp_recv(&mut self, _conn: u64, _max: usize) -> Vec<u8> {
        Vec::new()
    }
    fn tcp_readable(&self, _conn: u64) -> usize {
        0
    }
    fn tcp_close(&mut self, _conn: u64) {}
    fn tcp_alive(&self, _conn: u64) -> bool {
        true
    }
    fn schedule_wakeup(&mut self, key: u64, time: u64) {
        self.wakeups.push((key, time));
    }
    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.send_log)
    }
}

fn operator() -> Keypair {
    Keypair::from_seed(&[1; 32])
}

fn agent() -> EndpointAgent {
    EndpointAgent::new(EndpointConfig {
        trusted_keys: vec![plab_crypto::KeyHash::of(&operator().public)],
        ..Default::default()
    })
}

/// Credentials from `operator()` for the experimenter keyed by `seed`.
fn credentials(
    seed: u8,
    name: &str,
    restrictions: crate::cert::Restrictions,
    priority: u8,
) -> Credentials {
    let experimenter = Keypair::from_seed(&[seed; 32]);
    Credentials::issue(
        &operator(),
        &experimenter,
        crate::descriptor::ExperimentDescriptor {
            name: name.into(),
            controller_addr: "10.0.9.1:7000".into(),
            info_url: String::new(),
            experimenter: plab_crypto::KeyHash::of(&experimenter.public),
        },
        restrictions,
        priority,
    )
}

fn unit_credentials(restrictions: crate::cert::Restrictions, priority: u8) -> Credentials {
    credentials(42, "unit", restrictions, priority)
}

/// `Hello` then `Auth` on a new session; what the agent answers the `Auth`.
fn auth_attempt(
    agent: &mut EndpointAgent,
    stack: &mut MockStack,
    sid: u64,
    creds: &Credentials,
) -> Out {
    agent.on_session_open(sid);
    let out = agent.on_message(
        sid,
        Message::Hello {
            version: crate::PROTOCOL_VERSION,
        },
        stack,
    );
    let Some((_, Message::HelloAck { nonce, .. })) = out.first() else {
        panic!("expected HelloAck, got {out:?}");
    };
    agent.on_message(sid, creds.auth_message(nonce), stack)
}

/// Drive hello+auth for session `sid`; returns after AuthOk.
fn authenticate(agent: &mut EndpointAgent, stack: &mut MockStack, sid: u64, priority: u8) {
    let creds = unit_credentials(crate::cert::Restrictions::none(), priority);
    let out = auth_attempt(agent, stack, sid, &creds);
    assert!(
        out.iter()
            .any(|(s, m)| *s == sid && matches!(m, Message::AuthOk)),
        "expected AuthOk, got {out:?}"
    );
}

/// The memo answers for the curve equation and nothing else: the
/// validity window and the trust root are read from the configuration
/// on every `Auth`, whatever the agent has seen verify.
#[test]
fn remembered_signatures_outlive_neither_window_nor_trust_root() {
    plab_obs::enable();
    plab_obs::reset();
    let counters = || {
        let read = plab_obs::metrics::counter;
        (
            read("endpoint.auth.sig_verified"),
            read("endpoint.auth.sig_memo_hits"),
        )
    };
    let refusal = |out: Out| match &out[..] {
        [(
            _,
            Message::Resp(Response::Err {
                code: ErrCode::Auth,
                msg,
            }),
        )] => msg.clone(),
        other => panic!("expected one refusal, got {other:?}"),
    };
    let mut a = agent();
    let mut s = MockStack::new();
    let window = crate::cert::Restrictions {
        not_after: Some(a.config.wall_time + 10),
        ..Default::default()
    };
    let creds = unit_credentials(window, 1);
    let out = auth_attempt(&mut a, &mut s, 1, &creds);
    assert!(matches!(out[..], [(1, Message::AuthOk)]), "{out:?}");
    assert_eq!(counters(), (3, 0), "two certificates and the proof");

    a.config.wall_time += 11;
    let msg = refusal(auth_attempt(&mut a, &mut s, 2, &creds));
    assert!(msg.contains("expired"), "{msg}");
    assert_eq!(
        counters(),
        (3, 2),
        "both signatures remembered, the chain refused"
    );

    a.config.wall_time -= 11;
    let trusted = std::mem::take(&mut a.config.trusted_keys);
    let msg = refusal(auth_attempt(&mut a, &mut s, 3, &creds));
    assert!(msg.contains("no trusted signer"), "{msg}");
    assert_eq!(counters(), (3, 2));

    a.config.trusted_keys = trusted;
    let out = auth_attempt(&mut a, &mut s, 4, &creds);
    assert!(matches!(out[..], [(4, Message::AuthOk)]), "{out:?}");
    assert_eq!(counters(), (4, 4), "the proof is verified every time");
}

/// Send `c` to session `sid` as `CmdSeq` number `seq`; its answer.
fn cmd_seq(
    agent: &mut EndpointAgent,
    stack: &mut MockStack,
    sid: u64,
    seq: u64,
    c: Command,
) -> Response {
    let out = agent.on_message(sid, Message::CmdSeq { seq, cmd: c }, stack);
    out.into_iter()
        .find_map(|(s, m)| match m {
            Message::RespSeq { seq: q, resp } if s == sid && q == seq => Some(resp),
            _ => None,
        })
        .expect("command must produce a response")
}

/// `nopen(sktid, raw)`.
fn raw_socket(sktid: u32) -> Command {
    Command::NOpen {
        sktid,
        proto: Proto::Raw,
        locport: 0,
        remaddr: 0,
        remport: 0,
    }
}

/// Send `c` as session `sid`'s next command; its answer.
fn cmd(agent: &mut EndpointAgent, stack: &mut MockStack, sid: u64, c: Command) -> Response {
    let seq = agent.session(sid).expect("a live session").last_seq + 1;
    cmd_seq(agent, stack, sid, seq, c)
}

#[test]
fn command_before_auth_rejected() {
    let mut a = agent();
    let mut s = MockStack::new();
    a.on_session_open(1);
    let resp = cmd(&mut a, &mut s, 1, Command::NPoll { time: 0 });
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrCode::Auth,
            ..
        }
    ));
}

#[test]
fn hello_with_wrong_version_rejected() {
    let mut a = agent();
    let mut s = MockStack::new();
    a.on_session_open(1);
    let out = a.on_message(1, Message::Hello { version: 99 }, &mut s);
    assert!(matches!(
        out.first(),
        Some((
            _,
            Message::Resp(Response::Err {
                code: ErrCode::Malformed,
                ..
            })
        ))
    ));
}

#[test]
fn auth_then_scheduled_raw_send() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    let resp = cmd(&mut a, &mut s, 1, raw_socket(1));
    assert!(matches!(resp, Response::Ok));
    let pkt =
        plab_packet::builder::icmp_echo_request(s.addr, Ipv4Addr::new(10, 0, 0, 9), 64, 1, 1, &[]);
    let resp = cmd(
        &mut a,
        &mut s,
        1,
        Command::NSend {
            sktid: 1,
            time: 5_000,
            data: pkt.clone(),
        },
    );
    let Response::SendQueued { tag } = resp else {
        panic!("{resp:?}")
    };
    assert_eq!(s.raw_sends.len(), 1);
    assert_eq!(s.raw_sends[0].0, 5_000, "scheduled time forwarded to stack");
    assert_eq!(s.raw_sends[0].1, pkt);
    assert_eq!(s.raw_sends[0].2, tag);
}

#[test]
fn send_log_recorded_into_session_memory() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(&mut a, &mut s, 1, raw_socket(1));
    let pkt =
        plab_packet::builder::icmp_echo_request(s.addr, Ipv4Addr::new(10, 0, 0, 9), 64, 1, 1, &[]);
    let Response::SendQueued { tag } = cmd(
        &mut a,
        &mut s,
        1,
        Command::NSend {
            sktid: 1,
            time: 0,
            data: pkt,
        },
    ) else {
        panic!()
    };
    // The stack reports the actual transmit time; service() records it.
    s.send_log.push((s.raw_sends[0].2, 4_242));
    let _ = a.service(&mut s);
    let slot = crate::memory::EndpointMemory::sendlog_slot(tag);
    let resp = cmd(
        &mut a,
        &mut s,
        1,
        Command::MRead {
            memaddr: slot,
            bytecnt: crate::memory::SENDLOG_ENTRY as u32,
        },
    );
    let Response::Mem { data } = resp else {
        panic!()
    };
    assert_eq!(
        crate::memory::EndpointMemory::parse_sendlog_entry(&data),
        Some((tag, 4_242))
    );
}

/// §3.3 contention: a preempted experiment's scheduled send still
/// fires. Tags are per-session counters, so both sessions' first send
/// is tag 1 — each must read back its own departure, not the other's.
#[test]
fn send_times_stay_with_the_session_that_scheduled_them() {
    let mut a = agent();
    let mut s = MockStack::new();
    let pkt =
        plab_packet::builder::icmp_echo_request(s.addr, Ipv4Addr::new(10, 0, 0, 9), 64, 1, 1, &[]);
    // Session 1 schedules for t=100; session 2 outranks it, takes the
    // endpoint and schedules for t=50.
    for (sid, priority, time) in [(1, 5, 100), (2, 10, 50)] {
        authenticate(&mut a, &mut s, sid, priority);
        cmd(&mut a, &mut s, sid, raw_socket(1));
        let resp = cmd(
            &mut a,
            &mut s,
            sid,
            Command::NSend {
                sktid: 1,
                time,
                data: pkt.clone(),
            },
        );
        assert!(matches!(resp, Response::SendQueued { tag: 1 }), "{resp:?}");
    }
    // The stack reports each departure under the tag it was handed.
    for (sent, left) in [(1, 50), (0, 100)] {
        s.send_log.push((s.raw_sends[sent].2, left));
        let _ = a.service(&mut s);
    }
    for (sid, left) in [(1, 100), (2, 50)] {
        let slot = crate::memory::EndpointMemory::sendlog_slot(1);
        let entry = a
            .session(sid)
            .unwrap()
            .memory
            .read(slot, crate::memory::SENDLOG_ENTRY as u32);
        assert_eq!(
            crate::memory::EndpointMemory::parse_sendlog_entry(entry.unwrap()),
            Some((1, left)),
            "session {sid}"
        );
    }
}

#[test]
fn npoll_defers_and_wakeup_completes_empty() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    // No data buffered; deadline in the future → no immediate response,
    // a wakeup is scheduled.
    let poll = Message::CmdSeq {
        seq: 1,
        cmd: Command::NPoll { time: 50_000 },
    };
    let out = a.on_message(1, poll, &mut s);
    assert!(out.is_empty(), "poll deferred: {out:?}");
    assert_eq!(s.wakeups.len(), 1);
    let (key, at) = s.wakeups[0];
    assert_eq!(at, 50_000);
    // Deadline passes; wakeup yields an empty poll.
    s.clock = 60_000;
    let out = a.on_wakeup(key, &mut s);
    assert!(matches!(
        out.first(),
        Some((1, Message::RespSeq { seq: 1, resp: Response::Poll { packets, .. } }))
            if packets.is_empty()
    ));
}

#[test]
fn captured_packet_completes_pending_poll() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(&mut a, &mut s, 1, raw_socket(1));
    let filt =
        plab_cpf::compile("uint32_t recv(const union packet *pkt, uint32_t len) { return len; }")
            .unwrap()
            .encode();
    cmd(
        &mut a,
        &mut s,
        1,
        Command::NCap {
            sktid: 1,
            time: u64::MAX,
            filt,
        },
    );
    // Outstanding poll...
    let poll = Message::CmdSeq {
        seq: 3,
        cmd: Command::NPoll { time: u64::MAX },
    };
    let out = a.on_message(1, poll, &mut s);
    assert!(out.is_empty());
    // ...completed by an arriving packet.
    let pkt =
        plab_packet::builder::icmp_echo_reply(Ipv4Addr::new(10, 0, 0, 9), s.addr, 1, 1, b"data");
    let (disposition, out) = a.on_packet(2_000, &pkt, &mut s);
    assert_eq!(disposition, plab_netsim::RawDisposition::Consume);
    let Some((
        1,
        Message::RespSeq {
            seq: 3,
            resp: Response::Poll { packets, .. },
        },
    )) = out.first()
    else {
        panic!("{out:?}");
    };
    assert_eq!(packets.len(), 1);
    assert_eq!(packets[0].1, 2_000, "capture timestamped at arrival");
}

#[test]
fn uncaptured_packet_is_ignored_disposition() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(&mut a, &mut s, 1, raw_socket(1));
    // No ncap filter: default is capture-nothing, OS processes.
    let pkt =
        plab_packet::builder::icmp_echo_request(Ipv4Addr::new(10, 0, 0, 9), s.addr, 64, 1, 1, &[]);
    let (disposition, out) = a.on_packet(2_000, &pkt, &mut s);
    assert_eq!(disposition, plab_netsim::RawDisposition::Ignore);
    assert!(out.is_empty());
}

#[test]
fn mirror_entry_requests_mirror_disposition() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(&mut a, &mut s, 1, raw_socket(1));
    // Filter captures everything AND defines mirror() returning 1:
    // passive capture, OS still processes (telescope mode, §3.1).
    let filt = plab_cpf::compile(
        "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }
         uint32_t mirror(const union packet *pkt, uint32_t len) { return 1; }",
    )
    .unwrap()
    .encode();
    cmd(
        &mut a,
        &mut s,
        1,
        Command::NCap {
            sktid: 1,
            time: u64::MAX,
            filt,
        },
    );
    let pkt =
        plab_packet::builder::icmp_echo_request(Ipv4Addr::new(10, 0, 0, 9), s.addr, 64, 1, 1, &[]);
    let (disposition, _) = a.on_packet(2_000, &pkt, &mut s);
    assert_eq!(disposition, plab_netsim::RawDisposition::Mirror);
    assert_eq!(a.captured_packets, 1);
}

#[test]
fn udp_nsend_builds_datagram_via_stack() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(
        &mut a,
        &mut s,
        1,
        Command::NOpen {
            sktid: 2,
            proto: Proto::Udp,
            locport: 5000,
            remaddr: u32::from(Ipv4Addr::new(10, 0, 0, 9)),
            remport: 53,
        },
    );
    assert_eq!(s.bound_udp, vec![5000]);
    cmd(
        &mut a,
        &mut s,
        1,
        Command::NSend {
            sktid: 2,
            time: 111,
            data: b"q".to_vec(),
        },
    );
    assert_eq!(s.udp_sends.len(), 1);
    let (time, sport, dst, dport, payload, _) = &s.udp_sends[0];
    assert_eq!(*time, 111);
    assert_eq!(*sport, 5000);
    assert_eq!(*dst, Ipv4Addr::new(10, 0, 0, 9));
    assert_eq!(*dport, 53);
    assert_eq!(payload, b"q");
}

#[test]
fn session_teardown_releases_udp_port() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(
        &mut a,
        &mut s,
        1,
        Command::NOpen {
            sktid: 2,
            proto: Proto::Udp,
            locport: 5000,
            remaddr: 0,
            remport: 53,
        },
    );
    assert_eq!(s.bound_udp, vec![5000]);
    let _ = a.on_session_closed(1, &mut s);
    assert!(s.bound_udp.is_empty(), "teardown unbinds");
    assert_eq!(a.session_count(), 0);
}

/// Sessions are walked in ascending sid order and a session's sockets
/// in ascending sktid order wherever the walk shows: which socket is
/// drained first, which copy of a packet is captured first, which port
/// is released first. The same scenario built eight times gives one
/// order (a `RandomState` map gives a different one per build).
#[test]
fn session_and_socket_walks_are_in_id_order() {
    let open = |sktid, proto, locport| Command::NOpen {
        sktid,
        proto,
        locport,
        remaddr: 0,
        remport: 53,
    };
    let ok = Response::Ok;
    let filt =
        plab_cpf::compile("uint32_t recv(const union packet *pkt, uint32_t len) { return len; }")
            .unwrap()
            .encode();
    for _ in 0..8 {
        let mut a = agent();
        let mut s = MockStack::new();
        // Session 2 outranks session 1, so each opens its sockets while
        // in control. Sockets go in descending: insertion order is not
        // the order either.
        for sid in [1u64, 2] {
            authenticate(&mut a, &mut s, sid, 10 * sid as u8);
            for sktid in (1..=8u32).rev() {
                let port = 4000 + 100 * sid as u16 + sktid as u16;
                assert_eq!(cmd(&mut a, &mut s, sid, open(sktid, Proto::Udp, port)), ok);
            }
        }
        for sktid in [22u32, 21, 20] {
            assert_eq!(cmd(&mut a, &mut s, 2, open(sktid, Proto::Raw, 0)), ok);
            let ncap = Command::NCap {
                sktid,
                time: u64::MAX,
                filt: filt.clone(),
            };
            assert_eq!(cmd(&mut a, &mut s, 2, ncap), ok);
        }
        let ports: Vec<u16> = (1..=2)
            .flat_map(|sid| (1..=8).map(move |k| 4000 + 100 * sid + k))
            .collect();

        a.service(&mut s);
        assert_eq!(s.udp_drained, ports, "drained by (sid, sktid)");

        let pkt = plab_packet::builder::icmp_echo_reply(
            Ipv4Addr::new(10, 0, 0, 9),
            s.addr,
            1,
            1,
            b"data",
        );
        a.on_packet(2_000, &pkt, &mut s);
        let Response::Poll { packets, .. } = cmd(&mut a, &mut s, 2, Command::NPoll { time: 0 })
        else {
            panic!("expected the captured copies");
        };
        let copies: Vec<u32> = packets.iter().map(|(sktid, _, _)| *sktid).collect();
        assert_eq!(
            copies,
            vec![20, 21, 22],
            "one copy per raw socket, by sktid"
        );

        let _ = a.on_session_closed(1, &mut s);
        let _ = a.on_session_closed(2, &mut s);
        assert_eq!(s.udp_unbound, ports, "released by sktid");
    }
}

#[test]
fn max_sessions_cap() {
    let mut a = EndpointAgent::new(EndpointConfig {
        trusted_keys: vec![plab_crypto::KeyHash::of(&operator().public)],
        max_sessions: 2,
        ..Default::default()
    });
    let mut s = MockStack::new();
    a.on_session_open(1);
    a.on_session_open(2);
    a.on_session_open(3); // over the cap: silently not tracked
    assert_eq!(a.session_count(), 2);
    // Messages from the untracked session get no crash, no reply state.
    let out = a.on_message(
        3,
        Message::Hello {
            version: crate::PROTOCOL_VERSION,
        },
        &mut s,
    );
    assert!(out.is_empty());
}

#[test]
fn active_priority_tracks_contention() {
    let mut a = agent();
    let mut s = MockStack::new();
    assert_eq!(a.active_priority(), None);
    authenticate(&mut a, &mut s, 1, 10);
    assert_eq!(a.active_priority(), Some(10));
    authenticate(&mut a, &mut s, 2, 99);
    assert_eq!(a.active_priority(), Some(99), "higher priority took over");
}

#[test]
fn malformed_ncap_filter_rejected() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(&mut a, &mut s, 1, raw_socket(1));
    let resp = cmd(
        &mut a,
        &mut s,
        1,
        Command::NCap {
            sktid: 1,
            time: u64::MAX,
            filt: vec![1, 2, 3],
        },
    );
    assert!(matches!(
        resp,
        Response::Err {
            code: ErrCode::Malformed,
            ..
        }
    ));
}

#[test]
fn replayed_auth_with_stale_nonce_rejected() {
    // Authenticate session 1, then replay its Auth message on a fresh
    // session: the nonce differs, so the possession proof fails.
    let mut a = agent();
    let mut s = MockStack::new();
    let creds = unit_credentials(crate::cert::Restrictions::none(), 1);
    a.on_session_open(1);
    let out = a.on_message(
        1,
        Message::Hello {
            version: crate::PROTOCOL_VERSION,
        },
        &mut s,
    );
    let Some((_, Message::HelloAck { nonce, .. })) = out.first() else {
        panic!()
    };
    let auth = creds.auth_message(nonce);
    let out = a.on_message(1, auth.clone(), &mut s);
    assert!(out.iter().any(|(_, m)| matches!(m, Message::AuthOk)));

    // Replay on session 2 (whose nonce is different: later clock).
    s.clock += 1;
    a.on_session_open(2);
    let _ = a.on_message(
        2,
        Message::Hello {
            version: crate::PROTOCOL_VERSION,
        },
        &mut s,
    );
    let out = a.on_message(2, auth, &mut s);
    assert!(
        out.iter().any(|(sid, m)| *sid == 2
            && matches!(
                m,
                Message::Resp(Response::Err {
                    code: ErrCode::Auth,
                    ..
                })
            )),
        "replayed proof must fail: {out:?}"
    );
}

/// One deliverable response per sequence number: a replayed `CmdSeq`
/// returns the cached `RespSeq` without re-executing the command. The
/// probe is `NOpen`, which is *not* idempotent at the command level —
/// re-execution would answer with a socket-id conflict.
#[test]
fn cmd_seq_replay_returns_cached_response_without_reexecution() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    let open = raw_socket(1);
    assert_eq!(cmd_seq(&mut a, &mut s, 1, 1, open.clone()), Response::Ok);
    // The controller never saw the response and resends. Same answer —
    // not the conflict a re-execution would produce.
    assert_eq!(cmd_seq(&mut a, &mut s, 1, 1, open), Response::Ok);
}

/// A sequence number evicted from the bounded replay cache cannot be
/// answered twice: the endpoint refuses with a typed `Limit` error
/// rather than re-executing a possibly-non-idempotent command.
#[test]
fn cmd_seq_evicted_from_cache_is_refused_not_reexecuted() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    let read = Command::MRead {
        memaddr: 0,
        bytecnt: 1,
    };
    // Fill the cache well past its bound with cheap commands.
    for seq in 1..=40u64 {
        cmd_seq(&mut a, &mut s, 1, seq, read.clone());
    }
    // Seq 1 is long evicted.
    let resp = cmd_seq(&mut a, &mut s, 1, 1, read);
    assert!(
        matches!(
            resp,
            Response::Err {
                code: ErrCode::Limit,
                ..
            }
        ),
        "evicted seq must yield a typed Limit error: {resp:?}"
    );
}

/// The replay cache is bounded by cached-response **bytes**, not just
/// entry count: a handful of oversized responses evicts older seqs
/// long before the [`REPLAY_CACHE`] entry backstop would.
#[test]
fn replay_cache_byte_bound_evicts_oversized_responses() {
    let mut a = EndpointAgent::new(EndpointConfig {
        trusted_keys: vec![plab_crypto::KeyHash::of(&operator().public)],
        replay_cache_bytes: 2_048,
        ..Default::default()
    });
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    // Each 1 KiB `Mem` response costs ~1056 bytes of budget, so a
    // 2 KiB budget holds at most two entries — far below the
    // 32-entry backstop that was the only bound before.
    let read = Command::MRead {
        memaddr: 0,
        bytecnt: 1024,
    };
    for seq in 1..=4u64 {
        let resp = cmd_seq(&mut a, &mut s, 1, seq, read.clone());
        assert!(
            matches!(resp, Response::Mem { .. }),
            "big read succeeds: {resp:?}"
        );
    }
    // The newest seq is still replayable from the cache.
    let resp = cmd_seq(&mut a, &mut s, 1, 4, read.clone());
    assert!(
        matches!(resp, Response::Mem { .. }),
        "newest entry survives byte pressure: {resp:?}"
    );
    // Seq 1 was evicted by byte pressure alone (4 entries ≤ 32): a
    // typed refusal, not a silent re-execution.
    let resp = cmd_seq(&mut a, &mut s, 1, 1, read);
    assert!(
        matches!(
            resp,
            Response::Err {
                code: ErrCode::Limit,
                ..
            }
        ),
        "byte-evicted seq must yield a typed Limit error: {resp:?}"
    );
}

/// A single response larger than the whole byte budget is still kept:
/// the most recent command must remain replayable no matter how big
/// its answer was.
#[test]
fn replay_cache_keeps_newest_even_when_over_budget() {
    let mut a = EndpointAgent::new(EndpointConfig {
        trusted_keys: vec![plab_crypto::KeyHash::of(&operator().public)],
        replay_cache_bytes: 64,
        ..Default::default()
    });
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    let read = Command::MRead {
        memaddr: 0,
        bytecnt: 1024,
    };
    let first = cmd_seq(&mut a, &mut s, 1, 1, read.clone());
    let replayed = cmd_seq(&mut a, &mut s, 1, 1, read);
    assert!(matches!(first, Response::Mem { .. }), "{first:?}");
    assert_eq!(first, replayed, "oversized newest entry replays from cache");
}

/// The replay ring keeps exactly the newest answers that fit both of its
/// bounds, counts exactly their bytes, and evicts before it caches, so it
/// never grows past `REPLAY_CACHE` slots. Run once with the entry cap
/// binding and once with a byte budget that binds first; answer sizes
/// vary so the byte bound keeps a varying number of entries.
#[test]
fn replay_ring_keeps_the_newest_answers_within_its_slots() {
    use session::{Session, REPLAY_CACHE};
    // `resp_cost` of a `Mem` answer: its bytes plus 32.
    let size = |seq: u64| (seq % 7) as usize * 20;
    for budget in [1 << 20, 400] {
        let mut s = Session::new(1, 1, 4096, budget);
        let mut costs = Vec::new();
        for seq in 1..=1_000u64 {
            s.answer(
                seq,
                Response::Mem {
                    data: vec![0; size(seq)],
                },
            );
            costs.push(size(seq) + 32);
            // The newest answers, as many as fit: at most `REPLAY_CACHE`
            // of them and `budget` bytes, and never fewer than one.
            let (mut want, mut bytes) = (0, 0);
            for &c in costs.iter().rev() {
                if want == REPLAY_CACHE || (want > 0 && bytes + c > budget) {
                    break;
                }
                (want, bytes) = (want + 1, bytes + c);
            }
            let (ring, held) = s.replay_ring();
            let seqs: Vec<u64> = ring.iter().map(|&(q, _, _)| q).collect();
            assert_eq!(
                seqs,
                (seq + 1 - want as u64..=seq).collect::<Vec<_>>(),
                "seq {seq}"
            );
            assert_eq!(
                held,
                ring.iter().map(|&(_, c, _)| c).sum::<usize>(),
                "seq {seq}"
            );
            assert_eq!(held, bytes, "seq {seq}");
            assert!(
                ring.capacity() <= REPLAY_CACHE,
                "seq {seq}: {} slots",
                ring.capacity()
            );
        }
        let held = s.replay_ring().0.len();
        assert!(
            if budget == 400 {
                held < REPLAY_CACHE
            } else {
                held == REPLAY_CACHE
            },
            "{held}"
        );
    }
    // One answer over the whole budget evicts everything else and stays.
    let mut s = Session::new(1, 1, 4096, 64);
    s.answer(1, Response::Ok);
    s.answer(2, Response::Mem { data: vec![0; 100] });
    let (ring, held) = s.replay_ring();
    assert_eq!(ring.iter().map(|&(q, _, _)| q).collect::<Vec<_>>(), [2]);
    assert_eq!(held, 132);
}

fn lingering_agent(linger_ns: u64) -> EndpointAgent {
    EndpointAgent::new(EndpointConfig {
        trusted_keys: vec![plab_crypto::KeyHash::of(&operator().public)],
        session_linger_ns: linger_ns,
        ..Default::default()
    })
}

/// Control-channel loss with lingering enabled: the session detaches
/// instead of tearing down, and a re-authentication with the same
/// experiment (same leaf key, same descriptor) adopts it — sockets,
/// memory, and the replay cache all survive under the new session id.
#[test]
fn lingering_session_adopted_on_reauthentication() {
    let mut a = lingering_agent(1_000_000_000);
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    // Experiment state: a raw socket and a scratch write.
    let resp = cmd(&mut a, &mut s, 1, raw_socket(5));
    assert!(matches!(resp, Response::Ok));
    let resp = cmd(
        &mut a,
        &mut s,
        1,
        Command::MWrite {
            memaddr: 0x40,
            data: vec![9, 8, 7],
        },
    );
    assert!(matches!(resp, Response::Ok));

    // The control connection dies.
    let out = a.on_session_closed(1, &mut s);
    assert!(out.is_empty());
    assert_eq!(a.session_count(), 1, "session lingers, not torn down");

    // Reconnect under a fresh session id, same credentials.
    authenticate(&mut a, &mut s, 2, 10);
    assert_eq!(
        a.session_count(),
        1,
        "detached session adopted, not duplicated"
    );
    // Socket 5 still exists: reopening it conflicts.
    let resp = cmd(&mut a, &mut s, 2, raw_socket(5));
    assert!(
        matches!(resp, Response::Err { .. }),
        "socket survived adoption: {resp:?}"
    );
    // Scratch memory survived too.
    let resp = cmd(
        &mut a,
        &mut s,
        2,
        Command::MRead {
            memaddr: 0x40,
            bytecnt: 3,
        },
    );
    let Response::Mem { data } = resp else {
        panic!("{resp:?}")
    };
    assert_eq!(data, vec![9, 8, 7]);
}

/// Two lingering sessions of one experiment (authenticated while the
/// operator had lingering off, so neither adopted the other): a
/// re-authentication adopts the older, whatever order the session map
/// iterates in. Every round has a fresh map, so a choice by iteration
/// order would not survive eight of them. Priorities rise with the
/// sid so that each session is in control when it touches memory.
#[test]
fn reauthentication_adopts_the_lowest_matching_session() {
    for round in 0..8 {
        let mut a = agent();
        let mut s = MockStack::new();
        for sid in [1u8, 2] {
            authenticate(&mut a, &mut s, sid.into(), sid);
            let mark = Command::MWrite {
                memaddr: 0x40,
                data: vec![sid],
            };
            cmd(&mut a, &mut s, sid.into(), mark);
        }
        a.config.session_linger_ns = 1_000_000_000;
        a.on_session_closed(2, &mut s);
        a.on_session_closed(1, &mut s);
        assert_eq!(a.session_count(), 2, "both linger");

        for (sid, adopted) in [(3u8, 1u8), (4, 2)] {
            authenticate(&mut a, &mut s, sid.into(), sid);
            let read = Command::MRead {
                memaddr: 0x40,
                bytecnt: 1,
            };
            let resp = cmd(&mut a, &mut s, sid.into(), read);
            let Response::Mem { data } = resp else {
                panic!("{resp:?}")
            };
            assert_eq!(
                data,
                vec![adopted],
                "round {round}: sid {sid} adopted the wrong session"
            );
        }
    }
}

/// An `Auth` skips the adoption walk only when the walk could find
/// nothing. A session that detached while lingering was on is still
/// there, and still adopted, after the operator turns lingering off.
#[test]
fn a_detached_session_is_adopted_with_takeover_off() {
    let mut a = lingering_agent(1_000_000_000);
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(
        &mut a,
        &mut s,
        1,
        Command::MWrite {
            memaddr: 0x40,
            data: vec![7],
        },
    );
    a.on_session_closed(1, &mut s);
    a.config.session_linger_ns = 0;
    assert_eq!(a.detached, 1);

    authenticate(&mut a, &mut s, 2, 10);
    let resp = cmd(
        &mut a,
        &mut s,
        2,
        Command::MRead {
            memaddr: 0x40,
            bytecnt: 1,
        },
    );
    assert_eq!(resp, Response::Mem { data: vec![7] });
    assert_eq!(
        (a.session_count(), a.detached),
        (1, 0),
        "adopted, and none left to adopt"
    );
    authenticate(&mut a, &mut s, 3, 10);
    assert_eq!(
        a.session_count(),
        2,
        "with nothing detached a new session stands alone"
    );
}

/// A detached session whose linger window passes is reclaimed by
/// `service`: the next authentication starts from scratch.
#[test]
fn lingering_session_expires_after_window() {
    let mut a = lingering_agent(1_000);
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(
        &mut a,
        &mut s,
        1,
        Command::MWrite {
            memaddr: 0x40,
            data: vec![1],
        },
    );
    a.on_session_closed(1, &mut s);
    assert_eq!(a.session_count(), 1);

    // Linger window passes.
    s.clock += 10_000;
    let _ = a.service(&mut s);
    assert_eq!(a.session_count(), 0, "expired detached session reclaimed");

    // Fresh session: scratch memory is zeroed (default), not adopted.
    authenticate(&mut a, &mut s, 2, 10);
    let resp = cmd(
        &mut a,
        &mut s,
        2,
        Command::MRead {
            memaddr: 0x40,
            bytecnt: 1,
        },
    );
    let Response::Mem { data } = resp else {
        panic!("{resp:?}")
    };
    assert_ne!(data, vec![1], "state must not survive linger expiry");
}

/// Without lingering (the default), a closed session still tears down
/// immediately — the pre-existing behaviour is unchanged.
#[test]
fn default_config_tears_down_on_close() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    a.on_session_closed(1, &mut s);
    assert_eq!(a.session_count(), 0);
}

/// DESIGN deviation 11: `Hello` opens a handshake and nothing else. On
/// an authenticated session it used to reset the session to `AwaitAuth`
/// while it kept the endpoint, its sockets and its memory, and an `Auth`
/// for a *different* experiment then inherited all three.
#[test]
fn hello_on_an_authenticated_session_is_refused() {
    let mut a = agent();
    let mut s = MockStack::new();
    let scratch = Command::MRead {
        memaddr: 0x40,
        bytecnt: 3,
    };
    let bind = Command::NOpen {
        sktid: 1,
        proto: Proto::Udp,
        locport: 4000,
        remaddr: 0,
        remport: 53,
    };
    let ok = Response::Ok;
    authenticate(&mut a, &mut s, 1, 1);
    assert_eq!(cmd(&mut a, &mut s, 1, bind.clone()), ok);
    assert_eq!(
        cmd(
            &mut a,
            &mut s,
            1,
            Command::MWrite {
                memaddr: 0x40,
                data: vec![9, 8, 7]
            }
        ),
        ok
    );

    // Another experimenter, another descriptor, the same connection.
    let other = credentials(43, "other", crate::cert::Restrictions::none(), 7);
    let out = a.on_message(
        1,
        Message::Hello {
            version: crate::PROTOCOL_VERSION,
        },
        &mut s,
    );
    assert!(
        matches!(
            &out[..],
            [(
                1,
                Message::Resp(Response::Err {
                    code: ErrCode::Malformed,
                    ..
                })
            )]
        ),
        "{out:?}"
    );
    let out = a.on_message(1, other.auth_message(&[0; 32]), &mut s);
    assert!(
        matches!(
            &out[..],
            [(
                1,
                Message::Resp(Response::Err {
                    code: ErrCode::Auth,
                    ..
                })
            )]
        ),
        "{out:?}"
    );
    // The first experiment is where it was.
    assert_eq!(a.active_priority(), Some(1));
    let held = Response::Mem {
        data: vec![9, 8, 7],
    };
    assert_eq!(cmd(&mut a, &mut s, 1, scratch.clone()), held);
    assert_eq!(s.bound_udp, vec![4000]);

    // On a connection of its own the second outranks the first, reads
    // zeroed scratch, and gets the port only once the first has ended.
    let out = auth_attempt(&mut a, &mut s, 2, &other);
    assert!(out.contains(&(2, Message::AuthOk)), "{out:?}");
    assert_eq!(a.active_priority(), Some(7));
    let zeroed = Response::Mem {
        data: vec![0, 0, 0],
    };
    assert_eq!(cmd(&mut a, &mut s, 2, scratch), zeroed);
    let refused = cmd(&mut a, &mut s, 2, bind.clone());
    assert!(
        matches!(
            refused,
            Response::Err {
                code: ErrCode::BadSocket,
                ..
            }
        ),
        "{refused:?}"
    );
    let _ = a.on_session_closed(1, &mut s);
    assert_eq!(cmd(&mut a, &mut s, 2, bind), ok);
}

/// A session has one pending poll (see [`Command::NPoll`]): a second
/// `npoll` completes the first with what is buffered instead of taking
/// its slot, which left the first seq unanswered and its replay told
/// `Limit` about a response that was never made.
#[test]
fn a_second_npoll_completes_the_first() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    let poll = |seq, time| Message::CmdSeq {
        seq,
        cmd: Command::NPoll { time },
    };
    let mut out = a.on_message(1, poll(1, 10_000), &mut s);
    out.extend(a.on_message(1, poll(2, 20_000), &mut s));
    s.clock = 30_000;
    for (key, _) in std::mem::take(&mut s.wakeups) {
        out.extend(a.on_wakeup(key, &mut s));
    }
    out.extend(a.service(&mut s));
    let empty = Response::Poll {
        packets: vec![],
        dropped_packets: 0,
        dropped_bytes: 0,
    };
    let answers = [1, 2].map(|seq| {
        (
            1,
            Message::RespSeq {
                seq,
                resp: empty.clone(),
            },
        )
    });
    assert_eq!(out, answers, "each seq answered once, in order");
    for (seq, answer) in [1, 2].into_iter().zip(answers) {
        assert_eq!(
            a.on_message(1, poll(seq, 0), &mut s),
            vec![answer],
            "replay of {seq}"
        );
    }
}

/// A packet is adjudicated by the sessions that have a filter for it;
/// the others cost it nothing, not even a look at the clock.
#[test]
fn a_packet_costs_only_the_sessions_that_filter_it() {
    let mut a = agent();
    let mut s = MockStack::new();
    authenticate(&mut a, &mut s, 1, 10);
    cmd(&mut a, &mut s, 1, raw_socket(1));
    let filt =
        plab_cpf::compile("uint32_t recv(const union packet *pkt, uint32_t len) { return len; }")
            .unwrap()
            .encode();
    cmd(
        &mut a,
        &mut s,
        1,
        Command::NCap {
            sktid: 1,
            time: u64::MAX,
            filt,
        },
    );
    let pkt =
        plab_packet::builder::icmp_echo_reply(Ipv4Addr::new(10, 0, 0, 9), s.addr, 1, 1, b"data");
    let mut clock_reads = |a: &mut EndpointAgent| {
        let before = s.clock_reads.get();
        let (disposition, _) = a.on_packet(2_000, &pkt, &mut s);
        assert_eq!(disposition, plab_netsim::RawDisposition::Consume);
        s.clock_reads.get() - before
    };
    let alone = clock_reads(&mut a);
    for sid in 2..=64 {
        a.on_session_open(sid);
    }
    assert_eq!(a.session_count(), 64);
    assert_eq!(
        clock_reads(&mut a),
        alone,
        "63 sessions without a filter read the clock"
    );
}

/// The lifecycle pin. 2,000 seeded steps over four connections, two
/// experiments and three priorities — handshakes good and bad, all eight
/// commands, fresh and replayed: replays of answered, in-flight and
/// evicted seqs, polls completed by packet, wakeup and `service`,
/// `Yield`, close, re-authentication with lingering off, on and off
/// again, linger expiry — folded into one digest: each sid's frames in
/// the order it is sent them, the sids combined ascending. That is what
/// the wire carries: the reactor queues an [`Out`] per session and
/// flushes in sid order, so how two *different* sids interleave inside
/// one `Out` is not observable and not pinned. The value was read on the
/// agent that still accepted unsequenced commands, with every command
/// step of the script already sequenced, and has to survive any change
/// that claims to keep the agent's behaviour.
#[test]
fn transcript_digest() {
    plab_obs::enable();
    plab_obs::reset();
    let mut t = Transcript::new(0x2323);
    for step in 0..2_000 {
        t.a.config.session_linger_ns = if (667..1_334).contains(&step) {
            6_000
        } else {
            0
        };
        t.step();
    }
    // Everything ends: no session, socket or gauge is left behind.
    for c in 0..4 {
        let out = t.a.on_session_closed(t.conns[c].sid, &mut t.s);
        t.absorb(out, 0);
    }
    t.s.clock += 1_000_000;
    let out = t.a.service(&mut t.s);
    t.absorb(out, 3);
    assert_eq!(t.a.session_count(), 0);
    assert_eq!(t.s.bound_udp, Vec::<u16>::new());
    assert_eq!(plab_obs::metrics::gauge("endpoint.sessions.lingering"), 0);

    let Tally {
        polls: [at_once, by_packet, by_wakeup, by_service],
        auth_ok,
        auth_refused,
        ..
    } = t.tally;
    let Tally {
        not_authenticated,
        adopted,
        expired,
        interrupted,
        resumed,
        suspended,
        ..
    } = t.tally;
    let Tally {
        replay_evicted,
        replay_in_flight,
        denied,
        ..
    } = t.tally;
    let covered = [
        at_once,
        by_packet,
        by_wakeup,
        by_service,
        auth_ok,
        auth_refused,
        not_authenticated,
        adopted,
        expired,
        interrupted,
        resumed,
        suspended,
        replay_evicted,
        replay_in_flight,
        denied,
    ];
    assert!(
        covered.iter().all(|n| *n > 0),
        "the script lost a path: {:?}",
        t.tally
    );
    assert!(plab_obs::metrics::counter("endpoint.replay.hits") > 0);

    let mut digest = FNV_OFFSET;
    for (sid, frames) in &t.streams {
        fnv1a(&mut digest, &sid.to_le_bytes());
        fnv1a(&mut digest, &frames.to_le_bytes());
    }
    assert_eq!(digest, 0xb72a_4a67_506b_3e38, "{:?}", t.tally);
}
