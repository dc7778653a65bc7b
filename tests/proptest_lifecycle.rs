//! The session lifecycle against a reference model (ROADMAP item 1).
//!
//! [`Model`] is `endpoint.rs`'s `Phase` per sid plus "who holds the
//! endpoint", written from DESIGN "Endpoint"'s table and nothing else (its
//! transitions are under a hundred lines, on purpose: it is what a reader
//! checks the table against); [`drive`] turns a byte script into events — connections opening and
//! closing, handshakes good and bad, `Hello` on authenticated sessions,
//! commands, overlapping polls, replays, packets,
//! wakeups, service passes — and runs agent and model in lock-step.
//!
//! Safety, after every event: the agent tells exactly the sessions the
//! model says of `AuthOk`, `Interrupted` and `Resumed`, and runs or refuses
//! each command as the model's phase says; at most one session is active
//! and no suspended session outranks it; no byte written, received or
//! logged under one experiment reaches a session authenticated as another
//! (scratch, sockets, send log and replay cache all carry their
//! experiment's mark); `session_count()` stays within `max_sessions`.
//! Liveness: with nobody active nobody is suspended; every `CmdSeq` is
//! answered by exactly one `RespSeq`, or is its session's one pending poll,
//! and a replay reads what the first answer said (or `Limit`, once evicted).
//!
//! `drive` takes bytes, not a strategy, so that a fuzz target over
//! `EndpointReactor` can reuse it.

use packetlab::controller::Credentials;
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::{EndpointAgent, EndpointConfig, Out};
use packetlab::memory::{EndpointMemory, SENDLOG_ENTRY};
use packetlab::netstack::NetStack;
use packetlab::wire::{Command, ErrCode, Message, Notification, Proto, Response};
use packetlab::PROTOCOL_VERSION;
use plab_crypto::{KeyHash, Keypair};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

// --- the reference model ---

#[derive(Clone, Copy, PartialEq, Debug)]
enum Phase {
    New,
    AwaitAuth,
    Active,
    Suspended,
    Dormant,
    Detached { since: u64 },
}

struct Session {
    phase: Phase,
    priority: u8,
    /// Which experiment it authenticated as.
    experiment: Option<usize>,
    /// The driver's, carried here because adoption moves them with the
    /// session: the pending poll's seq, the highest seq executed.
    pending: Option<u64>,
    last_seq: u64,
}

/// What an event makes the endpoint tell a session about its standing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Note {
    AuthOk,
    Interrupted(u8),
    Resumed,
}

/// What a phase does with a command.
#[derive(PartialEq, Debug)]
enum Verdict {
    Silent,
    NotAuthenticated,
    Suspended,
    Runs,
}

struct Model {
    sessions: BTreeMap<u64, Session>,
    holder: Option<u64>,
    linger: u64,
    max_sessions: usize,
}

type Notes = Vec<(u64, Note)>;

impl Model {
    fn phase(&self, sid: u64) -> Option<Phase> {
        self.sessions.get(&sid).map(|s| s.phase)
    }

    fn set(&mut self, sid: u64, phase: Phase) {
        self.sessions.get_mut(&sid).unwrap().phase = phase;
    }

    fn open(&mut self, sid: u64) {
        if self.sessions.len() < self.max_sessions {
            let fresh = Session {
                phase: Phase::New,
                priority: 0,
                experiment: None,
                pending: None,
                last_seq: 0,
            };
            self.sessions.insert(sid, fresh);
        }
    }

    /// `Hello` is acknowledged before authentication and only then.
    fn hello(&mut self, sid: u64, version_ok: bool) -> bool {
        let acked = version_ok && matches!(self.phase(sid), Some(Phase::New | Phase::AwaitAuth));
        if acked {
            self.set(sid, Phase::AwaitAuth);
        }
        acked
    }

    fn contend(&mut self, sid: u64, notes: &mut Notes) {
        let priority = self.sessions[&sid].priority;
        match self.holder {
            Some(holder) if self.sessions[&holder].priority >= priority => {
                return self.set(sid, Phase::Suspended)
            }
            Some(holder) => {
                self.set(holder, Phase::Suspended);
                notes.push((holder, Note::Interrupted(priority)));
            }
            None => {}
        }
        self.holder = Some(sid);
        self.set(sid, Phase::Active);
    }

    /// If `sid` held the endpoint, the best suspended session gets it.
    fn release(&mut self, sid: u64, notes: &mut Notes) {
        if self.holder != Some(sid) {
            return;
        }
        let waiting = self
            .sessions
            .iter()
            .filter(|(_, s)| s.phase == Phase::Suspended);
        self.holder = waiting
            .max_by_key(|(sid, s)| (s.priority, std::cmp::Reverse(**sid)))
            .map(|(sid, _)| *sid);
        if let Some(next) = self.holder {
            self.set(next, Phase::Active);
            notes.push((next, Note::Resumed));
        }
    }

    /// A valid `Auth` on a session in `AwaitAuth`: it adopts the oldest
    /// session of its experiment that is detached (or, with lingering on,
    /// merely older), inherits the endpoint from it unless it now asks for
    /// less, and contends.
    fn auth(&mut self, sid: u64, experiment: usize, priority: u8) -> Notes {
        let mut notes = vec![(sid, Note::AuthOk)];
        let adoptable = |s: &Session| self.linger > 0 || matches!(s.phase, Phase::Detached { .. });
        let old = self
            .sessions
            .iter()
            .find(|(o, s)| **o != sid && s.experiment == Some(experiment) && adoptable(s));
        if let Some(old_sid) = old.map(|(o, _)| *o) {
            let old = self.sessions.remove(&old_sid).unwrap();
            if self.holder == Some(old_sid) && priority >= old.priority {
                self.holder = None;
            } else {
                self.release(old_sid, &mut notes);
            }
            self.sessions.insert(sid, old);
        }
        let s = self.sessions.get_mut(&sid).unwrap();
        (s.phase, s.priority, s.experiment) = (Phase::Suspended, priority, Some(experiment));
        self.contend(sid, &mut notes);
        notes
    }

    fn command(&mut self, sid: u64, yields: bool) -> (Verdict, Notes) {
        let mut notes = Notes::new();
        if self.phase(sid) == Some(Phase::Dormant) && !yields {
            self.contend(sid, &mut notes);
        }
        let verdict = match self.phase(sid) {
            None | Some(Phase::Detached { .. }) => Verdict::Silent,
            Some(Phase::New | Phase::AwaitAuth) => Verdict::NotAuthenticated,
            Some(Phase::Suspended | Phase::Dormant) if !yields => Verdict::Suspended,
            Some(Phase::Active) if yields => {
                self.set(sid, Phase::Dormant);
                self.release(sid, &mut notes);
                Verdict::Runs
            }
            Some(_) => Verdict::Runs,
        };
        (verdict, notes)
    }

    fn close(&mut self, sid: u64, now: u64) -> Notes {
        let mut notes = Notes::new();
        match self.phase(sid) {
            Some(Phase::Detached { .. }) | None => return notes,
            Some(Phase::Active | Phase::Suspended | Phase::Dormant) if self.linger > 0 => {
                self.set(sid, Phase::Detached { since: now })
            }
            Some(_) => drop(self.sessions.remove(&sid)),
        }
        self.release(sid, &mut notes);
        notes
    }

    /// Detached sessions whose window has lapsed go; none of them holds
    /// the endpoint, so nobody is told anything.
    fn service(&mut self, now: u64) {
        let linger = self.linger;
        self.sessions.retain(|_, s| !matches!(s.phase, Phase::Detached { since } if now.saturating_sub(since) > linger));
    }

    /// What must hold of any state the model is in — and so, through the
    /// lock-step checks, of the agent.
    fn check(&self) -> Result<(), String> {
        let active: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.phase == Phase::Active)
            .map(|(sid, _)| *sid)
            .collect();
        let suspended = || {
            self.sessions
                .values()
                .filter(|s| s.phase == Phase::Suspended)
        };
        if active != self.holder.into_iter().collect::<Vec<_>>() {
            return Err(format!("active {active:?}, holder {:?}", self.holder));
        }
        match self.holder {
            Some(holder) if suspended().any(|s| s.priority > self.sessions[&holder].priority) => {
                Err(format!(
                    "holder {holder} is outranked by a suspended session"
                ))
            }
            None if suspended().next().is_some() => Err("nobody active, somebody suspended".into()),
            _ => Ok(()),
        }
    }
}

// --- the world the agent runs in ---

/// A [`NetStack`] that marks what passes through it with the experiment it
/// belongs to: experiment `e` binds UDP port `4000 + e` and nothing else, a
/// datagram arriving at a port carries `mark(port)`, and a datagram leaving
/// from one is logged as having left at `DEPARTURE + port`.
#[derive(Default)]
struct Stack {
    clock: u64,
    bound: Vec<u16>,
    inbox: Vec<(u16, Vec<u8>)>,
    udp_sends: Vec<(u64, u16, u64)>,
    wakeups: Vec<(u64, u64)>,
    send_log: Vec<(u64, u64)>,
}

const DEPARTURE: u64 = 1_000_000_000;

fn mark(experiment: usize) -> u8 {
    0xa0 + experiment as u8
}

impl NetStack for Stack {
    fn clock(&self) -> u64 {
        self.clock
    }
    fn local_addr(&self) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn external_addr(&self) -> Ipv4Addr {
        self.local_addr()
    }
    fn mtu(&self) -> u32 {
        1500
    }
    fn raw_supported(&self) -> bool {
        true
    }
    fn raw_send_at(&mut self, _time: u64, _packet: Vec<u8>, _tag: u64) {}
    fn udp_bind(&mut self, port: u16) -> bool {
        let free = !self.bound.contains(&port);
        if free {
            self.bound.push(port);
        }
        free
    }
    fn udp_unbind(&mut self, port: u16) {
        self.bound.retain(|p| *p != port);
    }
    fn udp_send_at(
        &mut self,
        time: u64,
        src_port: u16,
        _dst: Ipv4Addr,
        _dst_port: u16,
        _payload: &[u8],
        tag: u64,
    ) {
        self.udp_sends.push((time, src_port, tag));
    }
    fn take_udp(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.inbox)
            .into_iter()
            .partition(|(p, _)| *p == port);
        self.inbox = rest;
        mine.into_iter()
            .map(|(_, payload)| (self.clock, Ipv4Addr::new(10, 0, 0, 9), 53, payload))
            .collect()
    }
    fn tcp_connect(&mut self, _dst: Ipv4Addr, _dst_port: u16) -> u64 {
        0
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
        false
    }
    fn schedule_wakeup(&mut self, key: u64, time: u64) {
        self.wakeups.push((key, time));
    }
    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.send_log)
    }
}

fn credentials(experiment: usize) -> Credentials {
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[42 + experiment as u8; 32]);
    let descriptor = ExperimentDescriptor {
        name: format!("experiment-{experiment}"),
        controller_addr: "10.0.9.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    Credentials::issue(&operator, &experimenter, descriptor, Default::default(), 1)
}

/// One controller: conn `c` runs experiment `c % 2`.
#[derive(Default)]
struct Conn {
    sid: u64,
    open: bool,
    nonce: Option<[u8; 32]>,
}

struct World {
    agent: EndpointAgent,
    stack: Stack,
    model: Model,
    creds: [Credentials; 2],
    filter: Vec<u8>,
    conns: [Conn; 4],
    next_sid: u64,
    /// Sequence numbers are the world's, not a connection's: every one a
    /// controller issues is new to whichever session it reaches.
    next_seq: u64,
    /// The first answer each seq got.
    answers: HashMap<u64, Response>,
    /// The poll (by seq) that takes a session's slot the moment the poll
    /// it displaced is answered.
    refill: Option<u64>,
}

const SCRATCH: u32 = 0x40;
const UDP_SOCKET: u32 = 1;
const RAW_SOCKET: u32 = 2;

impl World {
    fn new(linger: u64) -> World {
        let config = EndpointConfig {
            trusted_keys: vec![KeyHash::of(&Keypair::from_seed(&[1; 32]).public)],
            max_sessions: 3,
            replay_cache_bytes: 400,
            session_linger_ns: linger,
            ..Default::default()
        };
        let capture = "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }";
        World {
            model: Model {
                sessions: BTreeMap::new(),
                holder: None,
                linger,
                max_sessions: config.max_sessions,
            },
            agent: EndpointAgent::new(config),
            stack: Stack {
                clock: 1_000,
                ..Default::default()
            },
            creds: [credentials(0), credentials(1)],
            filter: plab_cpf::compile(capture).unwrap().encode(),
            conns: Default::default(),
            next_sid: 1,
            next_seq: 0,
            answers: HashMap::new(),
            refill: None,
        }
    }

    /// The experiment `sid` is authenticated as, by the model.
    fn experiment(&self, sid: u64) -> Option<usize> {
        self.model.sessions.get(&sid).and_then(|s| s.experiment)
    }

    /// Everything an `Out` has to satisfy whatever produced it: the notes
    /// are the model's, poll answers are the ones pending, nothing crosses
    /// experiments. Returns the command responses, by sid, for the caller.
    fn absorb(
        &mut self,
        out: Out,
        expected: Notes,
        replayed: Option<u64>,
    ) -> Result<Vec<(u64, u64, Response)>, String> {
        let mut notes = Notes::new();
        let mut responses = Vec::new();
        for (sid, msg) in out {
            if let Message::HelloAck { nonce, .. } = msg {
                self.conns
                    .iter_mut()
                    .find(|c| c.open && c.sid == sid)
                    .ok_or("HelloAck to nobody")?
                    .nonce = Some(nonce);
                continue;
            }
            let (seq, resp) = match msg {
                Message::AuthOk => {
                    notes.push((sid, Note::AuthOk));
                    continue;
                }
                Message::Notify(Notification::Interrupted { by_priority }) => {
                    notes.push((sid, Note::Interrupted(by_priority)));
                    continue;
                }
                Message::Notify(Notification::Resumed) => {
                    notes.push((sid, Note::Resumed));
                    continue;
                }
                Message::RespSeq { seq, resp } => (seq, resp),
                other => return Err(format!("the endpoint sent {other:?}")),
            };
            let session = self
                .model
                .sessions
                .get_mut(&sid)
                .ok_or(format!("{resp:?} for untracked sid {sid}"))?;
            if matches!(session.phase, Phase::Detached { .. }) {
                return Err(format!("{resp:?} into the dead connection of sid {sid}"));
            }
            let experiment = session.experiment;
            match &resp {
                Response::Poll { packets, .. } => {
                    if replayed.is_none() {
                        if session.pending.take() != Some(seq) {
                            return Err(format!(
                                "sid {sid}: poll answer for {seq}, which was not pending"
                            ));
                        }
                        session.pending = self.refill.take();
                    }
                    for (sktid, _, data) in packets {
                        if *sktid == UDP_SOCKET && Some(data[0]) != experiment.map(mark) {
                            return Err(format!("sid {sid} ({experiment:?}) polled {data:?}"));
                        }
                    }
                }
                Response::Mem { data }
                    if data.len() == 1 && data[0] != 0 && Some(data[0]) != experiment.map(mark) =>
                {
                    return Err(format!("sid {sid} ({experiment:?}) read scratch {data:?}"));
                }
                Response::Mem { data } if data.len() > 1 => {
                    let port = EndpointMemory::parse_sendlog_entry(data)
                        .and_then(|(_, left)| left.checked_sub(DEPARTURE));
                    if port.is_some_and(|port| Some(port) != experiment.map(|e| 4000 + e as u64)) {
                        return Err(format!(
                            "sid {sid} ({experiment:?}) read the send log of port {port:?}"
                        ));
                    }
                }
                _ => {}
            }
            if replayed.is_none() && self.answers.insert(seq, resp.clone()).is_some() {
                return Err(format!("seq {seq} answered twice"));
            }
            responses.push((sid, seq, resp));
        }
        let mut expected = expected;
        notes.sort();
        expected.sort();
        if notes != expected {
            return Err(format!("the agent said {notes:?}, the model {expected:?}"));
        }
        self.model.check()?;
        let holder = self
            .model
            .holder
            .map(|sid| self.model.sessions[&sid].priority);
        if self.agent.active_priority() != holder
            || self.agent.session_count() != self.model.sessions.len()
        {
            return Err(format!(
                "agent: active {:?}, {} sessions; model: {holder:?}, {}",
                self.agent.active_priority(),
                self.agent.session_count(),
                self.model.sessions.len()
            ));
        }
        Ok(responses)
    }

    fn command(&mut self, c: usize, kind: u8) -> Result<(), String> {
        let (sid, now) = (self.conns[c].sid, self.stack.clock);
        let experiment = c % 2;
        let port = 4000 + experiment as u16;
        let cmd = match kind % 12 {
            0 => Command::NOpen {
                sktid: UDP_SOCKET,
                proto: Proto::Udp,
                locport: port,
                remaddr: 0,
                remport: 53,
            },
            1 => Command::NOpen {
                sktid: RAW_SOCKET,
                proto: Proto::Raw,
                locport: 0,
                remaddr: 0,
                remport: 0,
            },
            2 => Command::NCap {
                sktid: RAW_SOCKET,
                time: u64::MAX,
                filt: self.filter.clone(),
            },
            3 => Command::NClose {
                sktid: 1 + kind as u32 / 12 % 2,
            },
            4 => Command::NSend {
                sktid: UDP_SOCKET,
                time: now + kind as u64,
                data: vec![mark(experiment)],
            },
            5 => Command::MWrite {
                memaddr: SCRATCH,
                data: vec![mark(experiment)],
            },
            6 => Command::MRead {
                memaddr: SCRATCH,
                bytecnt: 1,
            },
            7 => Command::MRead {
                memaddr: EndpointMemory::sendlog_slot(1 + kind as u64 / 12 % 4),
                bytecnt: SENDLOG_ENTRY as u32,
            },
            8..=10 => Command::NPoll {
                time: if kind & 0x10 == 0 {
                    0
                } else {
                    now + 20 * kind as u64
                },
            },
            _ => Command::Yield,
        };
        let (polls, yields) = (matches!(cmd, Command::NPoll { .. }), cmd == Command::Yield);
        let sends = self.stack.udp_sends.len();
        self.next_seq += 1;
        let seq = self.next_seq;
        let (verdict, notes) = self.model.command(sid, yields);
        if let Some(session) = self.model.sessions.get_mut(&sid) {
            session.last_seq = seq;
        }
        // A poll that runs takes the session's one slot: the poll it finds
        // there must be answered first, in this same `Out`.
        let runs = verdict == Verdict::Runs;
        let displaced = if polls && runs {
            self.model.sessions[&sid].pending
        } else {
            None
        };
        if polls && runs && displaced.is_some() {
            self.refill = Some(seq);
        } else if polls && runs {
            self.model.sessions.get_mut(&sid).unwrap().pending = Some(seq);
        }
        let out = self
            .agent
            .on_message(sid, Message::CmdSeq { seq, cmd }, &mut self.stack);
        let responses = self.absorb(out, notes, None)?;
        let mut mine: Vec<_> = responses.iter().filter(|(to, ..)| *to == sid).collect();
        if let Some(displaced) = displaced {
            let answered =
                matches!(mine[..], [(_, q, Response::Poll { .. }), ..] if *q == displaced);
            if !answered || self.refill.is_some() {
                return Err(format!(
                    "sid {sid}: a new npoll left {displaced} pending, got {responses:?}"
                ));
            }
            mine.remove(0);
        }
        let refused =
            |code| matches!(mine[..], [(_, _, Response::Err { code: c, .. })] if *c == code);
        let ok = match verdict {
            Verdict::Silent => mine.is_empty(),
            Verdict::NotAuthenticated => refused(ErrCode::Auth),
            Verdict::Suspended => refused(ErrCode::Suspended),
            Verdict::Runs if polls => mine.len() <= 1,
            Verdict::Runs => {
                mine.len() == 1 && !refused(ErrCode::Suspended) && !refused(ErrCode::Auth)
            }
        };
        if !ok || mine.iter().any(|(_, answered, _)| *answered != seq) {
            return Err(format!(
                "sid {sid}: {verdict:?} command (seq {seq}) answered {responses:?}"
            ));
        }
        // A datagram leaves from the port its experiment bound, or not at all.
        match self.stack.udp_sends[sends..] {
            [] => Ok(()),
            [(_, from, _)] if Some(experiment) == self.experiment(sid) && from == port => Ok(()),
            ref sent => Err(format!(
                "sid {sid} ({:?}) sent {sent:?}",
                self.experiment(sid)
            )),
        }
    }

    /// Replay a seq the session has executed: the first answer again,
    /// `Limit` once that has been evicted, nothing while it is the pending
    /// poll — and never an answer to a command that was not answered.
    fn replay(&mut self, c: usize, pick: u8) -> Result<(), String> {
        let sid = self.conns[c].sid;
        let Some(session) = self.model.sessions.get(&sid).filter(|s| s.last_seq > 0) else {
            return Ok(());
        };
        // Half the replays are of the newest seq: the one that can be in flight.
        let back = if pick.is_multiple_of(2) {
            0
        } else {
            pick as u64 % session.last_seq.min(12)
        };
        let seq = session.last_seq - back;
        let pending = session.pending == Some(seq);
        let cmd = Command::MRead {
            memaddr: SCRATCH,
            bytecnt: 1,
        };
        let out = self
            .agent
            .on_message(sid, Message::CmdSeq { seq, cmd }, &mut self.stack);
        let responses = self.absorb(out, Notes::new(), Some(seq))?;
        let evicted = |resp: &Response| {
            matches!(
                resp,
                Response::Err {
                    code: ErrCode::Limit,
                    ..
                }
            )
        };
        match (&responses[..], self.answers.get(&seq)) {
            ([], _) if pending => Ok(()),
            ([(to, q, resp)], Some(first))
                if (*to, *q) == (sid, seq) && (resp == first || evicted(resp)) =>
            {
                Ok(())
            }
            // A seq this session skipped (it went to another) was never run.
            ([(to, q, resp)], None) if (*to, *q) == (sid, seq) && evicted(resp) && !pending => {
                Ok(())
            }
            _ => Err(format!(
                "sid {sid}: replay of {seq} (pending: {pending}) read {responses:?}"
            )),
        }
    }

    fn event(&mut self, op: u8, c: usize, arg: u8) -> Result<(), String> {
        let sid = self.conns[c].sid;
        let version = if arg.is_multiple_of(8) {
            99
        } else {
            PROTOCOL_VERSION
        };
        // Most of what a connection without an authenticated session does
        // is the next step towards one (`5` stays a command out of turn).
        let op = match (op % 16, self.model.phase(sid)) {
            (4 | 6 | 7 | 8, None) if !self.conns[c].open => 0,
            (4 | 6 | 7 | 8, Some(Phase::New)) => 1,
            (4 | 6 | 7 | 8, Some(Phase::AwaitAuth)) => 2,
            (op, _) => op,
        };
        match op {
            0 if !self.conns[c].open => {
                self.conns[c] = Conn {
                    sid: self.next_sid,
                    open: true,
                    nonce: None,
                };
                self.agent.on_session_open(self.next_sid);
                self.model.open(self.next_sid);
                self.next_sid += 1;
                self.absorb(Out::new(), Notes::new(), None).map(drop)
            }
            // `Hello`, also where it has no business (deviation 11).
            0 | 1 => {
                let acked = self.model.hello(sid, version == PROTOCOL_VERSION);
                let tracked = self.model.sessions.contains_key(&sid);
                let out = self
                    .agent
                    .on_message(sid, Message::Hello { version }, &mut self.stack);
                let expected = match &out[..] {
                    [(to, Message::HelloAck { .. })] => *to == sid && acked,
                    [(
                        to,
                        Message::Resp(Response::Err {
                            code: ErrCode::Malformed,
                            ..
                        }),
                    )] => *to == sid && tracked && !acked,
                    [] => !tracked,
                    _ => false,
                };
                if !expected {
                    return Err(format!(
                        "sid {sid}: Hello (acked by the model: {acked}) answered {out:?}"
                    ));
                }
                self.absorb(
                    out.into_iter()
                        .filter(|(_, m)| matches!(m, Message::HelloAck { .. }))
                        .collect(),
                    Notes::new(),
                    None,
                )
                .map(drop)
            }
            2 | 3 => {
                let mut creds = self.creds[c % 2].clone();
                creds.priority = [1, 5, 9][arg as usize % 3];
                let mut auth = creds.auth_message(&self.conns[c].nonce.unwrap_or_default());
                let forged = arg.is_multiple_of(11);
                if let (true, Message::Auth { proof, .. }) = (forged, &mut auth) {
                    proof[0] ^= 1;
                }
                let valid = self.model.phase(sid) == Some(Phase::AwaitAuth) && !forged;
                let notes = if valid {
                    self.model.auth(sid, c % 2, creds.priority)
                } else {
                    Notes::new()
                };
                let out = self.agent.on_message(sid, auth, &mut self.stack);
                let refused = matches!(&out[..], [(to, Message::Resp(Response::Err { code: ErrCode::Auth, .. }))] if *to == sid);
                if refused != (self.model.sessions.contains_key(&sid) && !valid) {
                    return Err(format!("sid {sid}: Auth (valid: {valid}) answered {out:?}"));
                }
                let responses = self.absorb(if refused { Out::new() } else { out }, notes, None)?;
                if responses.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "sid {sid}: Auth (valid: {valid}) answered {responses:?}"
                    ))
                }
            }
            4..=8 => self.command(c, arg),
            9 => self.replay(c, arg),
            10 if self.conns[c].open => {
                self.conns[c] = Conn::default();
                let notes = self.model.close(sid, self.stack.clock);
                let out = self.agent.on_session_closed(sid, &mut self.stack);
                self.absorb(out, notes, None).map(drop)
            }
            // Time passes: datagrams that were due have left, wakeups fire.
            11 => {
                self.stack.clock += 40 * arg as u64;
                let now = self.stack.clock;
                let (left, waiting) = std::mem::take(&mut self.stack.udp_sends)
                    .into_iter()
                    .partition(|s| s.0 <= now);
                self.stack.udp_sends = waiting;
                let left: Vec<(u64, u16, u64)> = left;
                self.stack.send_log.extend(
                    left.iter()
                        .map(|(_, port, tag)| (*tag, DEPARTURE + *port as u64)),
                );
                let (due, waiting) = std::mem::take(&mut self.stack.wakeups)
                    .into_iter()
                    .partition(|w| w.1 <= now);
                self.stack.wakeups = waiting;
                let due: Vec<(u64, u64)> = due;
                for (key, _) in due {
                    let out = self.agent.on_wakeup(key, &mut self.stack);
                    self.absorb(out, Notes::new(), None)?;
                }
                Ok(())
            }
            13 => {
                let packet = plab_packet::builder::icmp_echo_reply(
                    Ipv4Addr::new(10, 0, 0, 9),
                    self.stack.local_addr(),
                    1,
                    1,
                    b"data",
                );
                let (_, out) = self
                    .agent
                    .on_packet(self.stack.clock, &packet, &mut self.stack);
                self.absorb(out, Notes::new(), None).map(drop)
            }
            // A datagram for one experiment's port, then (as 12) a service pass.
            14 | 12 => {
                if op == 14 {
                    self.stack
                        .inbox
                        .push((4000 + arg as u16 % 2, vec![mark(arg as usize % 2)]));
                }
                self.model.service(self.stack.clock);
                let out = self.agent.service(&mut self.stack);
                self.absorb(out, Notes::new(), None).map(drop)
            }
            _ => self.command(c, 11),
        }
    }

    /// Every attached session's pending poll is answered once its deadline
    /// has passed and its wakeup fired.
    fn settle(&mut self) -> Result<(), String> {
        self.stack.clock += 1_000_000;
        for (key, _) in std::mem::take(&mut self.stack.wakeups) {
            let out = self.agent.on_wakeup(key, &mut self.stack);
            self.absorb(out, Notes::new(), None)?;
        }
        self.model.service(self.stack.clock);
        let out = self.agent.service(&mut self.stack);
        self.absorb(out, Notes::new(), None)?;
        let stuck = self
            .model
            .sessions
            .iter()
            .find(|(_, s)| s.pending.is_some() && !matches!(s.phase, Phase::Detached { .. }));
        match stuck {
            Some((sid, s)) => Err(format!("sid {sid}: poll {:?} never answered", s.pending)),
            None => Ok(()),
        }
    }
}

/// Run `script` — its first byte picks the linger window, every three after
/// it are one event: what, on which connection, with what argument —
/// against a fresh agent and model. `Err` says what diverged and where.
pub fn drive(script: &[u8]) -> Result<(), String> {
    let linger = [0, 4_000, 60_000][script.first().map_or(0, |b| *b as usize % 3)];
    let mut world = World::new(linger);
    for (step, event) in script
        .get(1..)
        .unwrap_or_default()
        .chunks_exact(3)
        .enumerate()
    {
        world.stack.clock += 1 + event[2] as u64 % 7;
        let c = event[1] as usize % 4;
        world
            .event(event[0], c, event[2])
            .map_err(|why| format!("step {step} {event:?}: {why}"))?;
    }
    world.settle().map_err(|why| format!("settling: {why}"))
}

proptest! {
    #[test]
    fn agent_follows_the_lifecycle_model(script in prop::collection::vec(any::<u8>(), 0..900)) {
        if let Err(why) = drive(&script) {
            return Err(TestCaseError::fail(format!("{why}\nscript: {script:?}")));
        }
    }
}

/// The defects, as the shortest scripts that reach them: the two the
/// transition table was written down to find (`endpoint::tests` has them as
/// unit tests) and the one this model found at its thirteenth case.
#[test]
fn scripts_that_reach_the_three_defects() {
    // One handshake a connection: open, Hello, Auth at priority 1, 5 or 9.
    const AT: [u8; 3] = [3, 1, 2];
    let handshake = |c: u8, priority: usize| [0, c, 1, 1, c, 1, 2, c, AT[priority]];
    let scripts: [(&str, Vec<u8>); 3] = [
        // Lingering off. Connection 0 authenticates, writes its scratch
        // mark, and says Hello again: refused, where it used to re-open
        // the handshake over a session that kept everything it held.
        (
            "Hello after Auth",
            [&[0][..], &handshake(0, 0), &[4, 0, 5, 1, 0, 1]].concat(),
        ),
        // Two polls, both with deadlines to come: the second
        // answers the first, where it used to take its slot.
        (
            "overlapping polls",
            [&[0][..], &handshake(0, 0), &[4, 0, 20, 4, 0, 20]].concat(),
        ),
        // Lingering on. Experiment 0 holds the endpoint at priority 9 with
        // experiment 1 waiting at 5, and re-authenticates from connection 2
        // at priority 1: it used to inherit the endpoint over the session
        // that now outranks it.
        (
            "takeover at a lower priority",
            [
                &[1][..],
                &handshake(0, 2),
                &handshake(1, 1),
                &handshake(2, 0),
            ]
            .concat(),
        ),
    ];
    let failures: Vec<String> = scripts
        .iter()
        .filter_map(|(what, script)| drive(script).err().map(|why| format!("{what}: {why}")))
        .collect();
    assert!(failures.is_empty(), "{failures:#?}");
}
