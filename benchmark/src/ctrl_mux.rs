//! `ctrl_mux`: one `EndpointReactor` serving thousands of authenticated
//! stop-and-wait controller sessions over an in-memory `NetStack`. The
//! shape is `plab_bench::ctrl`'s; the loop is the benchmark's own so that
//! it can put spans around its calls into the reactor. All sessions share
//! one credential chain, so §3.3 gives control to the first and every
//! other session's commands draw typed `Suspended` refusals: an op is any
//! sequenced round trip, refusals included.

use crate::harness::{
    calib_ms, measure, mix, scaled, Args, Clock, Outcome, Stat, Tracer, WARMUP_DIVISOR,
};
use crate::kernels;
use crate::pins::Pins;
use packetlab::cert::Restrictions;
use packetlab::controller::Credentials;
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::netstack::NetStack;
use packetlab::reactor::EndpointReactor;
use packetlab::wire::{Command, FrameDecoder, Message, Response};
use plab_crypto::{KeyHash, Keypair};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::time::Instant;

const SESSIONS: usize = 4096;
/// Round trips per session and pass: 409,600 a pass, about 1.7 s of wall,
/// so a run holds five or six.
const OPS_PER_SESSION: u32 = 100;
/// Control-link round trip the stop-and-wait clients model.
const RTT_NS: u64 = 10_000_000;
/// How often the reactor is pumped, and the grain of the clients' stagger.
const TICK_NS: u64 = 1_000_000;
/// 64-byte reads anywhere in the endpoint's 1536-byte memory past the
/// info block, which holds the clock and would make replies differ from
/// pass to pass.
const READ_SLOTS: u64 = 22;

/// In-memory stack: a virtual clock, inboxes the clients feed, outboxes
/// the reactor flushes into (a `BTreeMap`, so drain order and with it the
/// reply digest are deterministic).
struct Stack {
    clock: u64,
    inbox: HashMap<u64, Vec<u8>>,
    outbox: BTreeMap<u64, Vec<u8>>,
}

impl NetStack for Stack {
    fn clock(&self) -> u64 {
        self.clock
    }
    fn local_addr(&self) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn external_addr(&self) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn mtu(&self) -> u32 {
        1500
    }
    fn raw_supported(&self) -> bool {
        false
    }
    fn raw_send_at(&mut self, _time: u64, _packet: Vec<u8>, _tag: u64) {}
    fn udp_bind(&mut self, _port: u16) -> bool {
        true
    }
    fn udp_unbind(&mut self, _port: u16) {}
    fn udp_send_at(
        &mut self,
        _time: u64,
        _src_port: u16,
        _dst: Ipv4Addr,
        _dst_port: u16,
        _payload: &[u8],
        _tag: u64,
    ) {
    }
    fn take_udp(&mut self, _port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        Vec::new()
    }
    fn tcp_connect(&mut self, _dst: Ipv4Addr, _dst_port: u16) -> u64 {
        0
    }
    fn tcp_send(&mut self, conn: u64, data: &[u8]) {
        self.outbox.entry(conn).or_default().extend_from_slice(data);
    }
    fn tcp_recv(&mut self, conn: u64, max: usize) -> Vec<u8> {
        let Some(buf) = self.inbox.get_mut(&conn) else {
            return Vec::new();
        };
        let n = buf.len().min(max);
        buf.drain(..n).collect()
    }
    fn tcp_readable(&self, conn: u64) -> usize {
        self.inbox.get(&conn).map_or(0, Vec::len)
    }
    fn tcp_close(&mut self, _conn: u64) {}
    fn tcp_alive(&self, _conn: u64) -> bool {
        true
    }
    fn schedule_wakeup(&mut self, _key: u64, _time: u64) {}
    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        Vec::new()
    }
}

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

struct Session {
    conn: u64,
    /// Next sequence number to issue.
    seq: u64,
    /// Round trips completed in the current pass.
    done: u32,
    /// Virtual time the outstanding command went onto the wire.
    sent_at: u64,
    decoder: FrameDecoder,
}

struct World {
    stack: Stack,
    reactor: EndpointReactor,
    sessions: Vec<Session>,
    creds: Credentials,
    operator: Keypair,
    setup_s: f64,
}

struct Phase {
    wall_s: f64,
    issued: u64,
    answered: u64,
    p99_ns: u64,
    /// Over every reply in drain order: connection, position in the pass,
    /// and the response itself. The echoed `seq` is left out, so passes of
    /// equal shape must agree.
    digest: u64,
}

impl World {
    /// Accept `n` connections and take each through `Hello` and `Auth`.
    fn build(n: usize, tracer: &mut Tracer) -> World {
        let t = Instant::now();
        let operator = Keypair::from_seed(&[1; 32]);
        let experimenter = Keypair::from_seed(&[2; 32]);
        let creds = tracer.span("setup.credentials", || {
            let descriptor = ExperimentDescriptor {
                name: "bench-ctrl-mux".into(),
                controller_addr: "10.0.0.2:7000".into(),
                info_url: String::new(),
                experimenter: KeyHash::of(&experimenter.public),
            };
            Credentials::issue(
                &operator,
                &experimenter,
                descriptor,
                Restrictions::none(),
                10,
            )
        });
        let handshakes = tracer.begin("setup.handshakes");
        let mut stack = Stack {
            clock: 1_000,
            inbox: HashMap::new(),
            outbox: BTreeMap::new(),
        };
        let mut reactor = EndpointReactor::new(EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            max_sessions: n * 2,
            ..Default::default()
        });
        let hello = Message::Hello {
            version: packetlab::PROTOCOL_VERSION,
        }
        .to_frame();
        let mut sessions: Vec<Session> = (1..=n as u64)
            .map(|conn| {
                reactor.accept(conn);
                stack
                    .inbox
                    .entry(conn)
                    .or_default()
                    .extend_from_slice(&hello);
                Session {
                    conn,
                    seq: 1,
                    done: 0,
                    sent_at: 0,
                    decoder: FrameDecoder::new(),
                }
            })
            .collect();
        let turn = |stack: &mut Stack, reactor: &mut EndpointReactor| {
            stack.clock += TICK_NS;
            reactor.pump(stack);
            reactor.dispatch(stack);
            reactor.flush(stack);
        };
        turn(&mut stack, &mut reactor);
        for s in &mut sessions {
            s.decoder
                .extend(&stack.outbox.remove(&s.conn).unwrap_or_default());
            let mut nonce = None;
            while let Some(msg) = s.decoder.next_message().expect("handshake replies decode") {
                if let Message::HelloAck { nonce: got, .. } = msg {
                    nonce = Some(got);
                }
            }
            let nonce = nonce.unwrap_or_else(|| panic!("connection {} got no HelloAck", s.conn));
            stack
                .inbox
                .entry(s.conn)
                .or_default()
                .extend_from_slice(&creds.auth_message(&nonce).to_frame());
        }
        turn(&mut stack, &mut reactor);
        for s in &mut sessions {
            s.decoder
                .extend(&stack.outbox.remove(&s.conn).unwrap_or_default());
            let mut ok = false;
            while let Some(msg) = s.decoder.next_message().expect("auth replies decode") {
                ok |= msg == Message::AuthOk;
            }
            assert!(ok, "connection {} was not authenticated", s.conn);
        }
        stack.outbox.clear();
        tracer.end(handshakes);
        World {
            stack,
            reactor,
            sessions,
            creds,
            operator,
            setup_s: t.elapsed().as_secs_f64(),
        }
    }

    /// One pass: every session completes `ops` stop-and-wait round trips,
    /// first sends staggered over one RTT by session index. What each
    /// command reads is a function of the seed, the session and the
    /// command's position in the pass, so every pass has the same shape.
    fn phase(&mut self, ops: u32, seed: u64, tracer: &mut Tracer) -> Phase {
        let wall = Instant::now();
        let start = self.stack.clock;
        let slots = RTT_NS / TICK_NS;
        let mut schedule: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (i, s) in self.sessions.iter_mut().enumerate() {
            s.done = 0;
            schedule
                .entry(start + (i as u64 % slots) * TICK_NS)
                .or_default()
                .push(i as u32);
        }
        let mut issued = 0u64;
        let mut answered = 0u64;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut delays = Vec::with_capacity(self.sessions.len() * ops as usize);
        while let Some((t, due)) = schedule.pop_first() {
            self.stack.clock = t;
            let encode = tracer.begin("client.encode");
            for &idx in &due {
                let s = &mut self.sessions[idx as usize];
                let slot = mix(seed, u64::from(idx) << 32 | u64::from(s.done)) % READ_SLOTS;
                let cmd = Command::MRead {
                    memaddr: (1 + slot as u32) * 64,
                    bytecnt: 64,
                };
                let frame = Message::CmdSeq { seq: s.seq, cmd }.to_frame();
                s.sent_at = t;
                issued += 1;
                self.stack
                    .inbox
                    .entry(s.conn)
                    .or_default()
                    .extend_from_slice(&frame);
            }
            tracer.end(encode);
            tracer.span("reactor.pump", || self.reactor.pump(&mut self.stack));
            tracer.span("reactor.dispatch", || {
                self.reactor.dispatch(&mut self.stack)
            });
            tracer.span("reactor.flush", || self.reactor.flush(&mut self.stack));
            let decode = tracer.begin("client.decode");
            for (conn, bytes) in std::mem::take(&mut self.stack.outbox) {
                let idx = (conn - 1) as usize;
                let s = &mut self.sessions[idx];
                s.decoder.extend(&bytes);
                while let Some(msg) = s.decoder.next_message().expect("replies decode") {
                    let Message::RespSeq { seq, resp } = msg else {
                        continue;
                    };
                    if seq != s.seq {
                        continue;
                    }
                    digest = fnv(digest, &conn.to_le_bytes());
                    digest = fnv(digest, &s.done.to_le_bytes());
                    digest = match &resp {
                        Response::Mem { data } => fnv(fnv(digest, &[1]), data),
                        Response::Err { code, msg } => {
                            fnv(fnv(digest, &[2, *code as u8]), msg.as_bytes())
                        }
                        _ => fnv(digest, &[3]),
                    };
                    answered += 1;
                    s.seq += 1;
                    s.done += 1;
                    delays.push(t - s.sent_at + RTT_NS);
                    if s.done < ops {
                        schedule.entry(t + RTT_NS).or_default().push(idx as u32);
                    }
                }
            }
            tracer.end(decode);
        }
        delays.sort_unstable();
        let p99_ns = delays
            .get((delays.len() * 99 / 100).min(delays.len().saturating_sub(1)))
            .copied()
            .unwrap_or(0);
        Phase {
            wall_s: wall.elapsed().as_secs_f64(),
            issued,
            answered,
            p99_ns,
            digest,
        }
    }
}

pub fn run(args: &Args, tracer: &mut Tracer, pins: &Pins) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Default::default()
    };
    // The set-up is 4096 handshakes and about three seconds long, so two
    // per run are all the time cap allows: the warm-up's world, which
    // makes an eighth of a pass's round trips and goes, and the one the
    // passes run on.
    let calib = calib_ms();
    let mut warm = World::build(SESSIONS, tracer);
    let warm_setup_s = scaled(warm.setup_s, calib, calib_ms());
    warm.phase(OPS_PER_SESSION / WARMUP_DIVISOR as u32, args.seed, tracer);
    drop(warm);
    tracer.set(args.trace);
    let calib = calib_ms();
    let mut world = World::build(SESSIONS, tracer);
    tracer.set(false);
    let setups = [warm_setup_s, scaled(world.setup_s, calib, calib_ms())];
    let mut phases = Vec::new();
    let passes = measure(args, Clock::Scaled, tracer, &mut out, |tracer| {
        let p = world.phase(OPS_PER_SESSION, args.seed, tracer);
        let wall_s = p.wall_s;
        phases.push(p);
        wall_s
    });

    // Output checks.
    let per_phase = SESSIONS as u64 * u64::from(OPS_PER_SESSION);
    for (i, p) in phases.iter().enumerate() {
        out.attempted += p.issued;
        out.failed += p.issued - p.answered;
        out.check(p.issued == per_phase && p.answered == per_phase, || {
            format!(
                "pass {i}: {} issued, {} answered, {per_phase} expected",
                p.issued, p.answered
            )
        });
        out.check(p.digest == phases[0].digest, || {
            format!(
                "pass {i}: reply digest {:#018x} differs from pass 0's {:#018x}",
                p.digest, phases[0].digest
            )
        });
    }
    let live = world.reactor.agent().session_count();
    out.check(live == SESSIONS, || {
        format!("{live} of {SESSIONS} sessions live after the passes")
    });
    let last = phases.last().expect("at least one pass ran");
    pins.check(&mut out, args, "digest", &format!("{:#018x}", last.digest));
    pins.check(&mut out, args, "p99_ns", &last.p99_ns.to_string());

    let ctrl_ops_per_s = Stat::rate("ctrl_ops_per_s", per_phase as f64, &passes.walls);
    let p99_ms = last.p99_ns as f64 / 1e6;
    let failed_frac = out.failed as f64 / out.attempted as f64;
    out.work = "ctrl_ops_per_s";
    out.metrics = vec![
        Stat::seconds("setup_s", &setups),
        ctrl_ops_per_s,
        Stat::rss(out.peak_rss_mb),
        Stat::exact("ctrl_virtual_p99_ms", "ms", p99_ms),
        Stat::exact("failed_frac", "ratio", failed_frac),
    ];
    if !args.trace {
        return out;
    }

    let ops = per_phase as f64;
    out.layer("ctrl_virtual_p99_ms", p99_ms);
    out.layer("failed_frac", failed_frac);
    out.layer(
        "reactor.pump_ns_per_op",
        tracer.self_ns("reactor.pump") as f64 / ops,
    );
    out.layer(
        "reactor.dispatch_ns_per_op",
        tracer.self_ns("reactor.dispatch") as f64 / ops,
    );
    out.layer(
        "reactor.flush_ns_per_op",
        tracer.self_ns("reactor.flush") as f64 / ops,
    );
    out.layer(
        "reactor.client_ns_per_op",
        (tracer.self_ns("client.encode") + tracer.self_ns("client.decode")) as f64 / ops,
    );
    for name in [
        "endpoint.reactor.dispatched",
        "endpoint.reactor.backpressure_stalls",
        "endpoint.replay.hits",
        "endpoint.replay.misses",
        "endpoint.commands",
    ] {
        out.obs_counter(name);
    }
    let verify_us = kernels::crypto(&mut out);
    kernels::cert(&mut out, &world.creds, &world.operator, verify_us);
    kernels::wire(&mut out, &world.creds);
    out
}
