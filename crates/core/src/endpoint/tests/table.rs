//! The session table against a model: the agent keeps its sessions in
//! one `Vec` in ascending sid order, and a seeded script checks it after
//! every step against a `BTreeMap`.

use super::*;

/// A session as [`session_table_matches_a_model`] models it: its phase
/// and, once authenticated, its experiment (an index into the script's
/// two credentials). `Detached` carries when its connection went.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Row {
    New,
    AwaitAuth,
    Active(usize),
    Suspended(usize),
    Dormant(usize),
    Detached(usize, u64),
}

impl Row {
    fn of(s: &Session, experiments: &[(KeyHash, [u8; 32]); 2]) -> Row {
        let e = || {
            experiments
                .iter()
                .position(|e| Some(*e) == s.experiment_id)
                .expect("known")
        };
        match s.phase {
            Phase::New => Row::New,
            Phase::AwaitAuth { .. } => Row::AwaitAuth,
            Phase::Active => Row::Active(e()),
            Phase::Suspended => Row::Suspended(e()),
            Phase::Dormant => Row::Dormant(e()),
            Phase::Detached { since } => Row::Detached(e(), since),
        }
    }

    fn experiment(self) -> Option<usize> {
        match self {
            Row::New | Row::AwaitAuth => None,
            Row::Active(e) | Row::Suspended(e) | Row::Dormant(e) | Row::Detached(e, _) => Some(e),
        }
    }
}

/// Sids the table script opens: `1..=SIDS`, reused after they close.
const SIDS: u64 = 24;

/// The seeded script behind [`session_table_matches_a_model`]: opens,
/// handshakes, commands, yields, closes, packets, service passes and
/// linger toggles against one agent, every session asking at one
/// priority, and the model it is checked against after every step.
struct TableScript {
    a: EndpointAgent,
    s: MockStack,
    rng: u64,
    creds: [Credentials; 2],
    experiments: [(KeyHash, [u8; 32]); 2],
    capture: Vec<u8>,
    model: BTreeMap<u64, Row>,
    nonces: BTreeMap<u64, [u8; 32]>,
    /// Adoptions with takeover on and off; closes of a sid below the
    /// first live one; checks that found a live session above a gap, so
    /// that its lookup went past `slot`'s one probe; packets that
    /// answered two sessions or more; service passes that answered one.
    tally: [u32; 6],
}

impl TableScript {
    fn new(seed: u64) -> TableScript {
        let creds = [
            credentials(42, "table-a", crate::cert::Restrictions::none(), 1),
            credentials(43, "table-b", crate::cert::Restrictions::none(), 1),
        ];
        let id = |c: &Credentials| (KeyHash::of(&c.signing_key.public), c.descriptor.hash().0);
        let capture = "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }";
        TableScript {
            a: agent(),
            s: MockStack::new(),
            rng: seed,
            experiments: [id(&creds[0]), id(&creds[1])],
            creds,
            capture: plab_cpf::compile(capture).unwrap().encode(),
            model: BTreeMap::new(),
            nonces: BTreeMap::new(),
            tally: [0; 6],
        }
    }

    /// xorshift64, reduced.
    fn below(&mut self, bound: u64) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % bound
    }

    /// A live sid, if there is one.
    fn live(&mut self, keep: impl Fn(Row) -> bool) -> Option<u64> {
        let sids: Vec<u64> = self
            .model
            .iter()
            .filter(|(_, r)| keep(**r))
            .map(|(s, _)| *s)
            .collect();
        (!sids.is_empty()).then(|| sids[self.below(sids.len() as u64) as usize])
    }

    /// `sid` asks for the endpoint: it takes it if nobody holds it.
    fn contend(&mut self, sid: u64, e: usize) {
        let held = self.model.values().any(|r| matches!(r, Row::Active(_)));
        self.model.insert(
            sid,
            if held {
                Row::Suspended(e)
            } else {
                Row::Active(e)
            },
        );
    }

    /// The holder let go: the lowest suspended sid takes the endpoint.
    fn release(&mut self) {
        if let Some(r) = self
            .model
            .values_mut()
            .find(|r| matches!(r, Row::Suspended(_)))
        {
            *r = Row::Active(r.experiment().unwrap());
        }
    }

    /// Sids of `out` in the order it names them, repeats folded.
    fn sids_of(out: &Out) -> Vec<u64> {
        let mut sids: Vec<u64> = out.iter().map(|(sid, _)| *sid).collect();
        sids.dedup();
        sids
    }

    fn step(&mut self) {
        self.s.clock += 1 + self.below(300);
        let linger = self.a.config.session_linger_ns;
        match self.below(100) {
            0..=9 => {
                let sid = 1 + self.below(SIDS);
                if !self.model.contains_key(&sid) {
                    self.a.on_session_open(sid);
                    self.model.insert(sid, Row::New);
                }
            }
            10..=19 => {
                let Some(sid) = self.live(|r| matches!(r, Row::New | Row::AwaitAuth)) else {
                    return;
                };
                let hello = Message::Hello {
                    version: crate::PROTOCOL_VERSION,
                };
                let out = self.a.on_message(sid, hello, &mut self.s);
                let [(_, Message::HelloAck { nonce, .. })] = out[..] else {
                    panic!("{out:?}")
                };
                self.nonces.insert(sid, nonce);
                self.model.insert(sid, Row::AwaitAuth);
            }
            20..=31 => {
                let Some(sid) = self.live(|r| r == Row::AwaitAuth) else {
                    return;
                };
                let e = self.below(2) as usize;
                let auth = self.creds[e].auth_message(&self.nonces[&sid]);
                let out = self.a.on_message(sid, auth, &mut self.s);
                assert_eq!(out.first(), Some(&(sid, Message::AuthOk)), "{out:?}");
                // The oldest other session of the experiment, any
                // authenticated one with takeover on, a detached one off.
                let adoptable = |r: &Row| linger > 0 || matches!(r, Row::Detached(..));
                let adopt = self
                    .model
                    .iter()
                    .find(|(o, r)| **o != sid && r.experiment() == Some(e) && adoptable(r));
                if let Some((&old, _)) = adopt {
                    self.model.remove(&old);
                    self.tally[(linger == 0) as usize] += 1;
                }
                self.contend(sid, e);
            }
            // Half the commands go to whoever holds the endpoint.
            32..=59 => {
                let holder = self.below(2) == 0;
                let Some(sid) = self.live(|r| !holder || matches!(r, Row::Active(_))) else {
                    return;
                };
                let row = self.model[&sid];
                // The holder may arm a capture: a raw socket, a filter on
                // it and a poll that waits for what it catches.
                let cmds = match self.below(if matches!(row, Row::Active(_)) { 3 } else { 2 }) {
                    0 => vec![Command::Yield],
                    1 => vec![Command::MRead {
                        memaddr: 0,
                        bytecnt: 8,
                    }],
                    _ => vec![
                        raw_socket(1),
                        Command::NCap {
                            sktid: 1,
                            time: u64::MAX,
                            filt: self.capture.clone(),
                        },
                        Command::NPoll { time: u64::MAX },
                    ],
                };
                let yielded = cmds[0] == Command::Yield;
                for cmd in cmds {
                    let seq = self.a.session(sid).unwrap().last_seq + 1;
                    let _ = self
                        .a
                        .on_message(sid, Message::CmdSeq { seq, cmd }, &mut self.s);
                }
                match row {
                    Row::Active(e) if yielded => {
                        self.model.insert(sid, Row::Dormant(e));
                        self.release();
                    }
                    Row::Dormant(e) if !yielded => self.contend(sid, e),
                    _ => {}
                }
            }
            60..=69 => {
                let first = self.model.keys().next().copied().unwrap_or(SIDS);
                let holder = self.live(|r| matches!(r, Row::Active(_)));
                let sid = match self.below(3) {
                    0 => self.below(first),
                    1 => holder.unwrap_or(first),
                    _ => 1 + self.below(SIDS),
                };
                self.tally[2] += (sid < first) as u32;
                let _ = self.a.on_session_closed(sid, &mut self.s);
                let now = self.s.clock;
                match self.model.get(&sid).copied() {
                    Some(Row::Active(e) | Row::Suspended(e) | Row::Dormant(e)) if linger > 0 => {
                        self.model.insert(sid, Row::Detached(e, now));
                    }
                    Some(Row::Detached(..)) | None => return,
                    Some(_) => {
                        self.model.remove(&sid);
                        self.nonces.remove(&sid);
                    }
                }
                if !self.model.values().any(|r| matches!(r, Row::Active(_))) {
                    self.release();
                }
            }
            70..=79 => {
                let pkt = plab_packet::builder::icmp_echo_reply(
                    Ipv4Addr::new(10, 0, 0, 9),
                    self.s.addr,
                    1,
                    1,
                    b"x",
                );
                let (_, out) = self.a.on_packet(self.s.clock, &pkt, &mut self.s);
                let sids = Self::sids_of(&out);
                assert!(
                    sids.is_sorted_by(|a, b| a < b),
                    "on_packet answered out of order: {sids:?}"
                );
                self.tally[4] += (sids.len() > 1) as u32;
            }
            80..=87 => {
                self.s.clock += self.below(2 * linger + 1);
                let now = self.s.clock;
                self.model
                    .retain(|_, r| !matches!(*r, Row::Detached(_, since) if now - since > linger));
                let out = self.a.service(&mut self.s);
                let sids = Self::sids_of(&out);
                assert!(
                    sids.is_sorted_by(|a, b| a < b),
                    "service answered out of order: {sids:?}"
                );
                assert!(
                    sids.iter().all(|sid| self.model.contains_key(sid)),
                    "{sids:?}"
                );
                self.tally[5] += !sids.is_empty() as u32;
            }
            _ => self.a.config.session_linger_ns = [0, 4_000][self.below(2) as usize],
        }
    }

    /// The agent against the model: the count, the sid order of a walk,
    /// every lookup in and around the table, and who holds the endpoint.
    fn check(&mut self, step: usize) {
        let sids: Vec<u64> = self.model.keys().copied().collect();
        assert_eq!(self.a.session_count(), sids.len(), "step {step}");
        assert_eq!(self.a.sids(|_| true), sids, "step {step}");
        for sid in 0..=SIDS + 1 {
            let row = self.a.session(sid).map(|s| Row::of(s, &self.experiments));
            assert_eq!(row, self.model.get(&sid).copied(), "step {step}, sid {sid}");
        }
        let holder = self.model.iter().find(|(_, r)| matches!(r, Row::Active(_)));
        assert_eq!(self.a.active, holder.map(|(sid, _)| *sid), "step {step}");
        let detached = self.model.values().any(|r| matches!(r, Row::Detached(..)));
        assert_eq!(self.a.lingering(), detached, "step {step}");
        let gap = sids
            .iter()
            .enumerate()
            .any(|(i, sid)| sid - sids[0] != i as u64);
        self.tally[3] += (gap && sids.len() > 1) as u32;
    }
}

/// The sid-ordered session table against a `BTreeMap` model: a seeded
/// script of opens, handshakes, adoptions with takeover on and off,
/// yields, closes (of live sids, of sids below the first, in gaps and
/// above), linger expiry, packets and service passes, checked after
/// every step for the session count, the phase and experiment found by
/// every sid's lookup, the order of `sids()`, and the sid order of what
/// `on_packet` and `service` answer.
#[test]
fn session_table_matches_a_model() {
    let mut tally = [0; 6];
    for seed in 1..=8 {
        let mut t = TableScript::new(0x7ab1e ^ seed);
        for step in 0..1_000 {
            t.step();
            t.check(step);
        }
        tally.iter_mut().zip(t.tally).for_each(|(sum, n)| *sum += n);
    }
    assert!(
        tally.iter().all(|n| *n > 0),
        "the script lost a path: {tally:?}"
    );
}
