//! Control-plane scale bench: one [`EndpointReactor`] multiplexing
//! thousands of authenticated controller sessions.
//!
//! Each session is a stop-and-wait client: it issues one sequenced
//! command, waits a fixed control-link RTT after the response is flushed,
//! then issues the next. A serial controller therefore completes exactly
//! one op per RTT; a multiplexed endpoint overlaps the RTTs of all its
//! sessions, so aggregate throughput scales with the session count until
//! the agent saturates — which is precisely the claim the reactor makes.
//!
//! The clock is virtual (the in-memory [`MemStack`] is advanced in fixed
//! ticks), so virtual throughput and per-op latency are bit-deterministic
//! and the flushed reply stream can be digest-pinned; wall-clock cost of
//! the same run is reported separately as the machine-dependent number a
//! perf guard can watch.
//!
//! All sessions share one credential chain, so §3.3 arbitration gives
//! control to the first session to authenticate and every other session's
//! commands draw typed `Suspended` refusals — the production shape of a
//! busy endpoint: thousands connected, one in control, all of them being
//! answered. An op is any sequenced round trip (decode → replay cache →
//! arbitration → agent → encode → flush), refusals included.

use packetlab::cert::Restrictions;
use packetlab::controller::Credentials;
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::netstack::{MemStack, NetStack};
use packetlab::reactor::EndpointReactor;
use packetlab::wire::{Command, FrameDecoder, Message};
use plab_obs::export::{fnv1a, FNV_OFFSET};
use plab_crypto::{KeyHash, Keypair};
use std::collections::BTreeMap;
use std::time::Instant;

/// Control-link round-trip time modelled by the stop-and-wait clients.
pub const RTT_NS: u64 = 10_000_000;
/// Service tick: how often the reactor is pumped, and the granularity at
/// which client send times are staggered across the RTT window.
pub const TICK_NS: u64 = 1_000_000;


/// One stop-and-wait client session.
struct Session {
    conn: u64,
    /// Next sequence number to issue.
    seq: u64,
    /// Round trips completed so far.
    done: u32,
    /// Virtual time the outstanding command was fed to the wire.
    sent_at: u64,
    decoder: FrameDecoder,
}

/// What one measured phase produced.
#[derive(Debug, Clone, Copy)]
pub struct PhaseStats {
    /// Sessions that ran the phase.
    pub sessions: usize,
    /// Sequenced round trips completed (every session × ops-per-session).
    pub ops: u64,
    /// Virtual time the phase spanned, ns.
    pub virtual_ns: u64,
    /// Wall-clock time the phase took, seconds.
    pub wall_secs: f64,
    /// p99 per-op latency in virtual ns (RTT floor + any scheduling
    /// deferral; the reactor drains every servable message per tick, so
    /// staying at the floor is the claim under test).
    pub p99_ns: u64,
    /// FNV-1a digest over every flushed reply byte, in connection order
    /// per tick — the determinism pin.
    pub digest: u64,
}

impl PhaseStats {
    /// Aggregate virtual throughput, ops per virtual second.
    pub fn virtual_ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.virtual_ns as f64 / 1e9)
    }

    /// Aggregate wall throughput, ops per wall second (machine-dependent;
    /// this is what the perf guard watches).
    pub fn wall_ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall_secs
    }
}

/// A built world: one reactor with `n` authenticated sessions, ready to
/// run measured phases.
pub struct ScaleWorld {
    stack: MemStack,
    reactor: EndpointReactor,
    sessions: Vec<Session>,
}

impl ScaleWorld {
    /// Build the world: accept `n` connections, complete the Hello and
    /// Auth handshakes for every one of them (all under one shared
    /// credential chain), and drain the handshake traffic so measured
    /// phases start clean.
    pub fn new(n: usize) -> ScaleWorld {
        assert!(n > 0, "at least one session");
        let operator = Keypair::from_seed(&[1; 32]);
        let experimenter = Keypair::from_seed(&[2; 32]);
        let descriptor = ExperimentDescriptor {
            name: "ctrl-scale".into(),
            controller_addr: "10.0.0.2:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        };
        let creds =
            Credentials::issue(&operator, &experimenter, descriptor, Restrictions::none(), 10);

        // Replies carry clock reads, so the pinned digest fixes the epoch.
        let mut stack = MemStack { clock: 1_000, ..Default::default() };
        let mut reactor = EndpointReactor::new(EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            max_sessions: n.max(8) * 2,
            ..Default::default()
        });

        let hello = Message::Hello { version: packetlab::PROTOCOL_VERSION }.to_frame();
        let mut sessions: Vec<Session> = (0..n)
            .map(|i| {
                let conn = i as u64 + 1;
                reactor.accept(conn);
                stack.feed(conn, &hello);
                Session { conn, seq: 1, done: 0, sent_at: 0, decoder: FrameDecoder::new() }
            })
            .collect();
        stack.clock += TICK_NS;
        reactor.pump(&mut stack);
        reactor.dispatch(&mut stack);
        reactor.flush(&mut stack);

        // Answer each HelloAck nonce with the shared credentials. §3.3
        // hands control to the first authenticated session; the rest are
        // admitted and suspended.
        let mut auth_frames = Vec::with_capacity(n);
        for s in &mut sessions {
            let bytes = stack.outbox.remove(&s.conn).unwrap_or_default();
            s.decoder.extend(&bytes);
            let mut nonce = None;
            while let Some(frame) = s.decoder.next_frame().expect("handshake frames decode") {
                if let Message::HelloAck { nonce: got, .. } =
                    Message::decode(&frame).expect("handshake message decodes")
                {
                    nonce = Some(got);
                }
            }
            let nonce = nonce.unwrap_or_else(|| panic!("conn {} got no HelloAck", s.conn));
            auth_frames.push((s.conn, creds.auth_message(&nonce).to_frame()));
        }
        for (conn, frame) in auth_frames {
            stack.feed(conn, &frame);
        }
        stack.clock += TICK_NS;
        reactor.pump(&mut stack);
        reactor.dispatch(&mut stack);
        reactor.flush(&mut stack);
        for s in &mut sessions {
            let bytes = stack.outbox.remove(&s.conn).unwrap_or_default();
            s.decoder.extend(&bytes);
            let mut ok = false;
            while let Some(frame) = s.decoder.next_frame().expect("auth frames decode") {
                if matches!(Message::decode(&frame), Ok(Message::AuthOk)) {
                    ok = true;
                }
            }
            assert!(ok, "conn {} was not authenticated", s.conn);
        }
        stack.outbox.clear();

        ScaleWorld { stack, reactor, sessions }
    }

    /// Live session count on the agent (sanity: nobody got dropped).
    pub fn live_sessions(&self) -> usize {
        self.reactor.agent().session_count()
    }

    /// What one reactor turn costs when no session has anything to say, as
    /// a multiple of the `tcp_readable` probes the turn cannot avoid (one
    /// per session, timed here over the same connections): the reactor's
    /// own per-session bookkeeping, with the machine divided out. Each
    /// side is the fastest of `rounds`.
    pub fn idle_turn_over_probes(&mut self, rounds: u32) -> f64 {
        let (mut turn, mut probes) = (f64::MAX, f64::MAX);
        for _ in 0..rounds {
            let t = Instant::now();
            self.reactor.pump(&mut self.stack);
            self.reactor.dispatch(&mut self.stack);
            self.reactor.flush(&mut self.stack);
            turn = turn.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            for s in &self.sessions {
                std::hint::black_box(self.stack.tcp_readable(s.conn));
            }
            probes = probes.min(t.elapsed().as_secs_f64());
        }
        turn / probes
    }

    /// Run one measured phase: every session completes `ops_per_session`
    /// stop-and-wait round trips. Sessions' first sends are staggered
    /// across one RTT window (deterministically, by index) so arrivals
    /// spread over ticks the way independent controllers' would.
    pub fn phase(&mut self, ops_per_session: u32) -> PhaseStats {
        let n = self.sessions.len();
        let start = self.stack.clock;
        let slots = (RTT_NS / TICK_NS).max(1);
        let mut schedule: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        for (i, s) in self.sessions.iter_mut().enumerate() {
            s.done = 0;
            schedule
                .entry(start + (i as u64 % slots) * TICK_NS)
                .or_default()
                .push(i as u32);
        }

        let mut ops = 0u64;
        let mut digest = FNV_OFFSET;
        let mut delays: Vec<u64> = Vec::with_capacity(n * ops_per_session as usize);
        let wall = Instant::now();
        while let Some((t, due)) = schedule.pop_first() {
            self.stack.clock = t;
            for &idx in &due {
                let s = &mut self.sessions[idx as usize];
                let msg = Message::CmdSeq {
                    seq: s.seq,
                    cmd: Command::MRead { memaddr: 0, bytecnt: 64 },
                };
                s.seq += 1;
                s.sent_at = t;
                self.stack.feed(s.conn, &msg.to_frame());
            }
            self.reactor.pump(&mut self.stack);
            self.reactor.dispatch(&mut self.stack);
            self.reactor.flush(&mut self.stack);
            assert_eq!(
                self.reactor.queued_in_messages(),
                0,
                "reactor left servable work queued at t={t}"
            );
            for (conn, bytes) in std::mem::take(&mut self.stack.outbox) {
                fnv1a(&mut digest, &conn.to_le_bytes());
                fnv1a(&mut digest, &bytes);
                let idx = (conn - 1) as usize;
                let s = &mut self.sessions[idx];
                s.decoder.extend(&bytes);
                while let Some(frame) = s.decoder.next_frame().expect("reply frames decode") {
                    if !matches!(Message::decode(&frame), Ok(Message::RespSeq { .. })) {
                        continue;
                    }
                    ops += 1;
                    s.done += 1;
                    delays.push(t - s.sent_at + RTT_NS);
                    if s.done < ops_per_session {
                        schedule.entry(t + RTT_NS).or_default().push(idx as u32);
                    }
                }
            }
        }
        let wall_secs = wall.elapsed().as_secs_f64();

        assert_eq!(ops, n as u64 * u64::from(ops_per_session), "every op answered");
        delays.sort_unstable();
        let p99 = delays[(delays.len() - 1).min(delays.len() * 99 / 100)];
        PhaseStats {
            sessions: n,
            ops,
            virtual_ns: self.stack.clock - start + RTT_NS,
            wall_secs,
            p99_ns: p99,
            digest,
        }
    }
}

/// Certificates in the chain every [`ScaleWorld`] session authenticates
/// with (`Credentials::issue`: delegation, experiment).
pub const CHAIN_LEN: u64 = 2;

/// Curve verifications (`endpoint.auth.sig_verified`) run in building
/// `worlds` worlds of `sessions` sessions: each world is one agent, and
/// every session on it authenticates with the same chain.
pub fn auth_verifications(worlds: usize, sessions: usize) -> u64 {
    plab_obs::enable();
    plab_obs::reset();
    for _ in 0..worlds {
        ScaleWorld::new(sessions);
    }
    plab_obs::disable();
    plab_obs::metrics::counter("endpoint.auth.sig_verified")
}

/// Build a world of `sessions` and run one phase of `ops_per_session`
/// round trips — the one-call form the repro bins use.
pub fn point(sessions: usize, ops_per_session: u32) -> PhaseStats {
    let mut world = ScaleWorld::new(sessions);
    let stats = world.phase(ops_per_session);
    assert_eq!(world.live_sessions(), sessions, "sessions dropped mid-phase");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_baseline_is_rtt_bound() {
        let s = point(1, 10);
        assert_eq!(s.ops, 10);
        assert_eq!(s.p99_ns, RTT_NS, "stop-and-wait sits at the RTT floor");
        // One op per RTT: 100 virtual ops/sec at a 10 ms RTT.
        let v = s.virtual_ops_per_sec();
        assert!((90.0..=110.0).contains(&v), "serial throughput {v} off the RTT bound");
    }

    #[test]
    fn multiplexing_scales_aggregate_throughput() {
        let serial = point(1, 10);
        let mux = point(64, 10);
        let speedup = mux.virtual_ops_per_sec() / serial.virtual_ops_per_sec();
        assert!(speedup >= 10.0, "64 sessions only {speedup:.1}x over serial");
        assert_eq!(mux.p99_ns, RTT_NS, "p99 stays at the RTT floor under multiplexing");
    }

    #[test]
    fn phases_are_deterministic() {
        let a = point(32, 8);
        let b = point(32, 8);
        assert_eq!(a.digest, b.digest, "reply streams diverged");
        assert_eq!(a.virtual_ns, b.virtual_ns);
        assert_eq!(a.p99_ns, b.p99_ns);
    }
}
