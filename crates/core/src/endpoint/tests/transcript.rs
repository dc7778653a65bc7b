//! The script behind [`super::transcript_digest`]: four controllers
//! against one agent, every frame it sends them folded into a digest.

use super::*;

/// One controller's connection in [`Transcript`]. `seq` is the
/// controller's and outlives its connections, as `RobustController`'s does.
#[derive(Default)]
pub(super) struct Conn {
    pub(super) sid: u64,
    pub(super) open: bool,
    pub(super) authed: bool,
    pub(super) nonce: Option<[u8; 32]>,
    pub(super) seq: u64,
    /// The seq of an `npoll` that was deferred and has not been
    /// seen answered: the one to replay while it is in flight.
    pub(super) deferred: Option<u64>,
}

/// What the script has made the agent do, so the pin cannot quietly
/// stop covering a path. `polls` is by what completed them: the `npoll`
/// itself, a packet, a wakeup, `service`.
#[derive(Default, Debug)]
pub(super) struct Tally {
    pub(super) polls: [u32; 4],
    pub(super) auth_ok: u32,
    pub(super) auth_refused: u32,
    pub(super) not_authenticated: u32,
    pub(super) adopted: u32,
    pub(super) expired: u32,
    pub(super) interrupted: u32,
    pub(super) resumed: u32,
    pub(super) suspended: u32,
    pub(super) replay_evicted: u32,
    pub(super) replay_in_flight: u32,
    pub(super) denied: u32,
}

/// The script behind [`transcript_digest`]: four controllers, conns 0
/// and 2 running experiment A and 1 and 3 experiment B (which carries an
/// ICMP-only monitor, a 256-byte buffer and a priority ceiling of 5),
/// against one agent over a [`MockStack`]. It sends no `Hello` on an
/// authenticated session and no `npoll` while one is deferred.
pub(super) struct Transcript {
    pub(super) a: EndpointAgent,
    pub(super) s: MockStack,
    pub(super) rng: u64,
    pub(super) creds: [Credentials; 2],
    pub(super) filters: [Vec<u8>; 3],
    pub(super) conns: [Conn; 4],
    pub(super) next_sid: u64,
    /// Per sid, FNV-1a over the frames it was sent, in order; under
    /// `u64::MAX`, who held the endpoint and how many sessions there
    /// were after each step.
    pub(super) streams: BTreeMap<u64, u64>,
    pub(super) tally: Tally,
}

impl Transcript {
    pub(super) fn new(seed: u64) -> Transcript {
        let compile = |src: &str| plab_cpf::compile(src).unwrap().encode();
        let icmp_only = compile(
            "uint32_t send(const union packet *pkt, uint32_t len) {
                 if (pkt->ip.proto == IPPROTO_ICMP) return len; else return 0; }",
        );
        let restricted = crate::cert::Restrictions {
            monitor: Some(icmp_only),
            max_buffer_bytes: Some(256),
            max_priority: Some(5),
            ..Default::default()
        };
        let capture = "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }";
        let mirror = "uint32_t mirror(const union packet *pkt, uint32_t len) { return 1; }";
        Transcript {
            a: EndpointAgent::new(EndpointConfig {
                trusted_keys: vec![plab_crypto::KeyHash::of(&operator().public)],
                replay_cache_bytes: 512,
                ..Default::default()
            }),
            s: MockStack::new(),
            rng: seed,
            creds: [
                credentials(42, "exp-a", crate::cert::Restrictions::none(), 1),
                credentials(43, "exp-b", restricted, 1),
            ],
            filters: [
                compile(capture),
                compile(&format!("{capture} {mirror}")),
                vec![1, 2, 3],
            ],
            conns: Default::default(),
            next_sid: 1,
            streams: BTreeMap::new(),
            tally: Tally::default(),
        }
    }

    /// xorshift64, reduced.
    pub(super) fn below(&mut self, bound: u64) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng % bound
    }

    /// Fold `out` into its sids' streams and keep the connections'
    /// handshake state and the tally; `by` is what produced it (an
    /// index into [`Tally::polls`]).
    pub(super) fn absorb(&mut self, out: Out, by: usize) {
        for (sid, m) in &out {
            let h = self.streams.entry(*sid).or_insert(FNV_OFFSET);
            let bytes = m.encode();
            fnv1a(h, &(bytes.len() as u32).to_le_bytes());
            fnv1a(h, &bytes);
            let conn = self.conns.iter_mut().find(|c| c.open && c.sid == *sid);
            let t = &mut self.tally;
            match m {
                Message::HelloAck { nonce, .. } => conn.unwrap().nonce = Some(*nonce),
                Message::AuthOk => {
                    conn.unwrap().authed = true;
                    t.auth_ok += 1;
                }
                Message::Notify(Notification::Interrupted { .. }) => t.interrupted += 1,
                Message::Notify(Notification::Resumed) => t.resumed += 1,
                Message::Resp(r) | Message::RespSeq { resp: r, .. } => match r {
                    Response::Poll { .. } => {
                        t.polls[by] += 1;
                        if let Some(conn) = conn {
                            conn.deferred = None;
                        }
                    }
                    Response::Err {
                        code: ErrCode::Suspended,
                        ..
                    } => t.suspended += 1,
                    Response::Err {
                        code: ErrCode::Limit,
                        ..
                    } => t.replay_evicted += 1,
                    Response::Err {
                        code: ErrCode::Denied,
                        ..
                    } => t.denied += 1,
                    Response::Err {
                        code: ErrCode::Auth,
                        msg,
                    } if msg == "not authenticated" => t.not_authenticated += 1,
                    Response::Err {
                        code: ErrCode::Auth,
                        ..
                    } => t.auth_refused += 1,
                    _ => {}
                },
                _ => {}
            }
        }
    }

    pub(super) fn poll_pending(&self, sid: u64) -> bool {
        self.a
            .session(sid)
            .is_some_and(|s| s.pending_poll.is_some())
    }

    pub(super) fn command(&mut self, sid: u64) -> Command {
        let clock = self.s.clock;
        let sktid = 1 + self.below(3) as u32;
        let memory = crate::memory::EndpointMemory::sendlog_slot;
        match self.below(16) {
            0..=2 => Command::NOpen {
                sktid,
                proto: [Proto::Raw, Proto::Raw, Proto::Udp, Proto::Tcp][self.below(4) as usize],
                locport: 4000 + self.below(3) as u16,
                remaddr: u32::from(Ipv4Addr::new(10, 0, 0, 9)),
                remport: 53,
            },
            3 => Command::NClose { sktid },
            4..=6 => Command::NSend {
                sktid,
                time: if self.below(2) == 0 {
                    0
                } else {
                    clock + self.below(2_000)
                },
                data: plab_packet::builder::icmp_echo_request(
                    self.s.addr,
                    Ipv4Addr::new(10, 0, 0, 9),
                    64,
                    1,
                    1,
                    &[],
                ),
            },
            7..=8 => Command::NCap {
                sktid,
                time: if self.below(4) != 0 {
                    u64::MAX
                } else {
                    clock + self.below(30_000)
                },
                filt: self.filters[self.below(5) as usize % 3].clone(),
            },
            9..=11 if !self.poll_pending(sid) => Command::NPoll {
                time: if self.below(3) == 0 {
                    0
                } else {
                    clock + self.below(8_000)
                },
            },
            9..=13 => Command::MRead {
                memaddr: [
                    0,
                    0x40,
                    memory(1 + self.below(4)),
                    crate::memory::EndpointMemory::sockstat_slot(sktid),
                    0xffff_0000,
                ][self.below(5) as usize],
                bytecnt: [8, 16, 24, 64][self.below(4) as usize],
            },
            14 => Command::MWrite {
                memaddr: if self.below(8) == 0 {
                    0
                } else {
                    0x40 + self.below(8) as u32
                },
                data: vec![self.below(256) as u8; 1 + self.below(4) as usize],
            },
            _ => Command::Yield,
        }
    }

    /// The next step of `c`'s way to an authenticated session: open,
    /// `Hello`, `Auth`. One `Hello` in ten carries a bad version, one
    /// `Auth` in eight a bad proof, and experiment B asking for
    /// priority 9 is over its ceiling.
    pub(super) fn handshake(&mut self, c: usize) {
        if !self.conns[c].open {
            let sid = self.next_sid;
            self.next_sid += 1;
            self.a.on_session_open(sid);
            self.conns[c] = Conn {
                sid,
                open: true,
                seq: self.conns[c].seq,
                ..Default::default()
            };
            return;
        }
        let again = self.below(6) == 0;
        let msg = match self.conns[c].nonce {
            Some(nonce) if !again => {
                let mut creds = self.creds[c % 2].clone();
                creds.priority = [1, 5, 9][self.below(3) as usize];
                let mut auth = creds.auth_message(&nonce);
                if let (0, Message::Auth { proof, .. }) = (self.below(8), &mut auth) {
                    proof[0] ^= 1;
                }
                auth
            }
            _ => Message::Hello {
                version: if self.below(10) == 0 {
                    99
                } else {
                    crate::PROTOCOL_VERSION
                },
            },
        };
        let sessions = self.a.session_count();
        let out = self.a.on_message(self.conns[c].sid, msg, &mut self.s);
        if out.iter().any(|(_, m)| *m == Message::AuthOk) && self.a.session_count() < sessions {
            self.tally.adopted += 1;
        }
        self.absorb(out, 0);
    }

    pub(super) fn step(&mut self) {
        self.s.clock += 1 + self.below(50);
        // Half the steps go to whoever holds the endpoint: a suspended
        // session's commands are all refused alike.
        let holder = self
            .conns
            .iter()
            .position(|c| c.open && Some(c.sid) == self.a.active);
        let c = match holder {
            Some(c) if self.below(2) == 0 => c,
            _ => self.below(4) as usize,
        };
        let sid = self.conns[c].sid;
        let peer = Ipv4Addr::new(10, 0, 0, 9);
        match self.below(100) {
            0..=1 if self.conns[c].open => {
                let out = self.a.on_session_closed(sid, &mut self.s);
                self.conns[c] = Conn {
                    seq: self.conns[c].seq,
                    ..Default::default()
                };
                self.absorb(out, 0);
            }
            // Time passes: the stack reports the scheduled sends that
            // have left and fires the wakeups that are due.
            2..=7 => {
                self.s.clock += self.below(4_000);
                let now = self.s.clock;
                let (left, raw) = std::mem::take(&mut self.s.raw_sends)
                    .into_iter()
                    .partition(|x| x.0 <= now);
                let (left_udp, udp) = std::mem::take(&mut self.s.udp_sends)
                    .into_iter()
                    .partition(|x| x.0 <= now);
                let (due, wakeups) = std::mem::take(&mut self.s.wakeups)
                    .into_iter()
                    .partition(|x| x.1 <= now);
                (self.s.raw_sends, self.s.udp_sends, self.s.wakeups) = (raw, udp, wakeups);
                let left: Vec<(u64, Vec<u8>, u64)> = left;
                let left_udp: Vec<(u64, u16, Ipv4Addr, u16, Vec<u8>, u64)> = left_udp;
                self.s
                    .send_log
                    .extend(left.iter().map(|x| (x.2, x.0.max(1_000))));
                self.s
                    .send_log
                    .extend(left_udp.iter().map(|x| (x.5, x.0.max(1_000))));
                let due: Vec<(u64, u64)> = due;
                for (key, _) in due {
                    let out = self.a.on_wakeup(key, &mut self.s);
                    self.absorb(out, 2);
                }
            }
            8..=12 => {
                let sessions = self.a.session_count();
                let out = self.a.service(&mut self.s);
                self.tally.expired += (sessions - self.a.session_count()) as u32;
                self.absorb(out, 3);
            }
            13..=18 => {
                let pkt = plab_packet::builder::icmp_echo_reply(peer, self.s.addr, 1, 1, b"data");
                let (disposition, out) = self.a.on_packet(self.s.clock, &pkt, &mut self.s);
                fnv1a(
                    self.streams.entry(u64::MAX).or_insert(FNV_OFFSET),
                    &[disposition as u8],
                );
                self.absorb(out, 1);
            }
            19..=22 => {
                let payload = vec![7; 1 + self.below(24) as usize];
                self.s.udp_inbox.push((self.s.clock, peer, 53, payload));
                let out = self.a.service(&mut self.s);
                self.absorb(out, 3);
            }
            // Out of turn: an `Auth` nobody asked for (answered by the
            // phase it lands in), an endpoint-to-controller message.
            23..=24 => {
                let stray = match self.below(2) {
                    0 => self.creds[c % 2].auth_message(&[0; 32]),
                    _ => Message::AuthOk,
                };
                let out = self.a.on_message(sid, stray, &mut self.s);
                self.absorb(out, 0);
            }
            // One step in six of an unauthenticated connection is a
            // command it has no right to yet.
            _ if !self.conns[c].authed && self.below(6) != 0 => self.handshake(c),
            _ => {
                let cmd = self.command(sid);
                let seq = self.conns[c].seq;
                let (replay, msg) = match self.below(10) {
                    0..=7 => {
                        self.conns[c].seq += 1;
                        (false, Message::CmdSeq { seq: seq + 1, cmd })
                    }
                    8 => {
                        let recent = seq.saturating_sub(self.below(2));
                        (
                            true,
                            Message::CmdSeq {
                                seq: self.conns[c].deferred.unwrap_or(recent),
                                cmd,
                            },
                        )
                    }
                    _ => (
                        true,
                        Message::CmdSeq {
                            seq: 1 + self.below(seq.max(1)),
                            cmd,
                        },
                    ),
                };
                let in_flight = replay && self.poll_pending(sid);
                let polled = match &msg {
                    Message::CmdSeq {
                        seq,
                        cmd: Command::NPoll { .. },
                    } if !replay => Some(*seq),
                    _ => None,
                };
                let out = self.a.on_message(sid, msg, &mut self.s);
                if out.is_empty() && self.poll_pending(sid) {
                    self.tally.replay_in_flight += in_flight as u32;
                    self.conns[c].deferred = polled.or(self.conns[c].deferred);
                }
                self.absorb(out, 0);
            }
        }
        let state = [
            self.a.active_priority().map_or(0xff, |p| p),
            self.a.session_count() as u8,
        ];
        fnv1a(self.streams.entry(u64::MAX).or_insert(FNV_OFFSET), &state);
    }
}
