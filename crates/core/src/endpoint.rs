//! The measurement endpoint agent (§3.1, §3.3, §3.4).
//!
//! "An endpoint's role during an experiment is simple: it sends packets
//! that the experiment controller tells it to send, and it captures
//! packets the experiment controller tells it to capture."
//!
//! The agent is a pure protocol state machine over a [`NetStack`]: the
//! harness (or a real transport server) feeds it control frames, deferred
//! raw packets, and timer wakeups; it returns frames to transmit. This
//! keeps all endpoint semantics — sessions, authentication, sockets,
//! scheduled sends, capture buffering with drop accounting, monitors,
//! priority contention — in one transport-agnostic, unit-testable place.

mod ops;
mod session;
#[cfg(test)]
mod tests;

use crate::cert::{self, Certificate, EffectiveRestrictions};
use crate::descriptor::ExperimentDescriptor;
use crate::monitor::MonitorSet;
use crate::netstack::NetStack;
use crate::reactor::slot;
use crate::wire::{Command, ErrCode, Message, Notification, Response};
use ops::{info_snapshot, wake_key, WAKE_POLL};
use plab_crypto::{KeyHash, PublicKey, Signature};
use session::Session;
use std::borrow::Cow;
use std::collections::HashMap;

/// Frames the agent wants sent, tagged by control-session id.
pub type Out = Vec<(u64, Message)>;

// Observability: the endpoint's metrics, declared once and interned on
// first touch. Every update is gated on `plab_obs::enabled()` inside
// `plab-obs`, so the disabled path is a TLS load and a branch.
static M_COMMANDS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.commands");
static M_CAPTURED: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.capture.packets");
static M_CAP_DROP_PKTS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.capture.dropped_packets");
static M_CAP_DROP_BYTES: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.capture.dropped_bytes");
static M_REPLAY_HITS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.replay.hits");
static M_REPLAY_MISSES: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.replay.misses");
static M_DENIED_SENDS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.denied_sends");
static M_LINGERING: plab_obs::metrics::Gauge =
    plab_obs::metrics::Gauge::new("endpoint.sessions.lingering");

/// Stable numeric opcode for command-dispatch trace events.
fn cmd_opcode(cmd: &Command) -> u64 {
    match cmd {
        Command::NOpen { .. } => 1,
        Command::NClose { .. } => 2,
        Command::NSend { .. } => 3,
        Command::NCap { .. } => 4,
        Command::NPoll { .. } => 5,
        Command::MRead { .. } => 6,
        Command::MWrite { .. } => 7,
        Command::Yield => 8,
    }
}

/// Capture-buffer capacity (bytes) when no certificate restriction
/// tightens it.
const DEFAULT_BUFFER_BYTES: u64 = 1 << 20;

/// Endpoint configuration, installed by the endpoint operator out-of-band
/// ("This set of trusted keys is installed and managed out-of-band by the
/// endpoint operator", §3.3).
#[derive(Clone)]
pub struct EndpointConfig {
    /// Operator keys whose certificate chains this endpoint accepts.
    pub trusted_keys: Vec<KeyHash>,
    /// Wall-clock seconds used for certificate validity checks.
    pub wall_time: u64,
    /// Maximum concurrent sessions (active + suspended). Connections
    /// beyond the cap are refused at admission with a typed
    /// [`ErrCode::Busy`] response (see [`crate::reactor`]).
    pub max_sessions: usize,
    /// Per-session replay-cache budget in **bytes** of cached response
    /// payload (entry count alone would let 4k sessions pin
    /// O(sessions × cache × max-response) memory). The newest entry is
    /// always kept, so replay of the most recent command works even for
    /// one oversized response.
    pub replay_cache_bytes: usize,
    /// How long (endpoint clock, ns) an authenticated session survives its
    /// control connection: within this window a controller that
    /// re-authenticates with the same experiment resumes the old session —
    /// sockets, capture buffer, memory, and replay cache intact. 0 (the
    /// default) disables lingering: sessions tear down the instant their
    /// connection dies, the pre-fault-tolerance behaviour.
    pub session_linger_ns: u64,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            trusted_keys: Vec::new(),
            wall_time: 1_700_000_000,
            max_sessions: 1024,
            replay_cache_bytes: 256 << 10,
            session_linger_ns: 0,
        }
    }
}

/// Where a session is in its life: the one lifecycle variable. DESIGN
/// "Endpoint" has the phase × event table; every change of phase is made
/// by the handshake arms of [`EndpointAgent::on_message`], by `handle_auth`,
/// or by `contend` and `release` — `end_session` takes a session out of
/// every phase at once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Connection accepted; waiting for `Hello`.
    New,
    /// `HelloAck` sent; waiting for an `Auth` whose proof covers `nonce`.
    AwaitAuth { nonce: [u8; 32] },
    /// Authenticated and in control of the endpoint (§3.3: "at any given
    /// time, no more than one controller has control of an endpoint").
    Active,
    /// Authenticated and waiting: outranked or preempted. Its commands are
    /// refused; it takes the endpoint back when whoever holds it lets go.
    Suspended,
    /// Authenticated, yielded. Not resumed on its own: its next command
    /// contends again (DESIGN deviation 6).
    Dormant,
    /// Authenticated, its control connection gone at `since` (endpoint
    /// clock ns): lingering for a re-authentication to adopt it, see
    /// [`EndpointConfig::session_linger_ns`].
    Detached { since: u64 },
}

/// The endpoint agent.
pub struct EndpointAgent {
    config: EndpointConfig,
    /// The live sessions, inline, in ascending sid order: every walk that
    /// produces output goes in that order and none sorts, and a lookup is
    /// the reactor's [`slot`].
    sessions: Vec<Session>,
    /// The session in [`Phase::Active`], if any: kept by `contend` and
    /// `release`, so that finding the holder is not a walk.
    active: Option<u64>,
    /// Deferred TCP scheduled sends: seq → (sid, sktid, payload, tag).
    pending_tcp: HashMap<u32, (u64, u32, Vec<u8>, u64)>,
    next_tcp_seq: u32,
    /// The next new session's [`Session::owner`].
    next_owner: u32,
    /// Sessions in [`Phase::Detached`], settled where the lingering gauge
    /// is: with none, and no takeover, an `Auth` has no session to adopt
    /// and does not walk the table for one (at 4,096 sessions the walk is
    /// more than half of a handshake).
    detached: usize,
    /// Certificate signatures this agent has verified (dies with it: a
    /// restarted endpoint remembers nothing).
    sig_memo: cert::SigMemo,
    /// Statistics: total packets captured across all sessions.
    pub captured_packets: u64,
    /// Statistics: total sends denied by monitors.
    pub denied_sends: u64,
}

impl EndpointAgent {
    /// New agent with operator configuration.
    pub fn new(config: EndpointConfig) -> Self {
        EndpointAgent {
            config,
            sessions: Vec::new(),
            active: None,
            pending_tcp: HashMap::new(),
            next_tcp_seq: 1,
            next_owner: 0,
            detached: 0,
            sig_memo: cert::SigMemo::default(),
            captured_packets: 0,
            denied_sends: 0,
        }
    }

    /// Read-only view of the configuration.
    pub fn config(&self) -> &EndpointConfig {
        &self.config
    }

    /// The priority of the experiment currently in control.
    pub fn active_priority(&self) -> Option<u8> {
        self.active
            .and_then(|sid| self.session(sid))
            .map(|s| s.priority)
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Whether a detached session is waiting out its linger window, which
    /// [`EndpointAgent::service`] ends on the clock.
    pub fn lingering(&self) -> bool {
        self.detached > 0
    }

    /// Whether a new session would be admitted right now (the reactor
    /// consults this before accepting, so over-capacity connections get a
    /// typed [`ErrCode::Busy`] refusal instead of silence).
    pub fn can_accept(&self) -> bool {
        self.sessions.len() < self.config.max_sessions
    }

    /// The sids of the live sessions `keep` holds for, ascending: the
    /// table's own order.
    fn sids(&self, keep: impl Fn(&Session) -> bool) -> Vec<u64> {
        self.sessions
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.sid)
            .collect()
    }

    /// Session `sid`, if it is live.
    fn session(&self, sid: u64) -> Option<&Session> {
        slot(&self.sessions, sid, |s| s.sid).map(|i| &self.sessions[i])
    }

    fn session_mut(&mut self, sid: u64) -> Option<&mut Session> {
        slot(&self.sessions, sid, |s| s.sid).map(|i| &mut self.sessions[i])
    }

    /// Put `s` at its sid's place in the table. Like a map's insert, it
    /// replaces a session already under that sid: adoption moves the old
    /// session over the fresh one its new connection opened.
    fn put(&mut self, s: Session) {
        match self.sessions.binary_search_by_key(&s.sid, |t| t.sid) {
            Ok(i) => self.sessions[i] = s,
            Err(i) => self.sessions.insert(i, s),
        }
    }

    /// Take session `sid` out of the table; the sessions above it shift
    /// down one slot.
    fn take(&mut self, sid: u64) -> Option<Session> {
        slot(&self.sessions, sid, |s| s.sid).map(|i| self.sessions.remove(i))
    }

    /// A new control connection was accepted / dialed.
    pub fn on_session_open(&mut self, sid: u64) {
        if self.can_accept() {
            // The table grows as any `Vec` does, by doubling: a fixed-step
            // reserve would copy every session once per step.
            let (owner, replay) = (self.next_owner, self.config.replay_cache_bytes);
            self.put(Session::new(
                sid,
                owner,
                DEFAULT_BUFFER_BYTES as usize,
                replay,
            ));
            self.next_owner = self.next_owner.wrapping_add(1);
        }
    }

    /// A control connection went away. With `session_linger_ns`
    /// configured, an authenticated session *detaches* instead of tearing
    /// down: sockets keep capturing, scheduled sends still fire, and a
    /// controller re-authenticating with the same experiment within the
    /// window resumes exactly where it left off (§3.2's interactive model
    /// made to survive the control channel dropping). Otherwise — or once
    /// the window expires, see [`EndpointAgent::service`] — the experiment
    /// tears down.
    pub fn on_session_closed(&mut self, sid: u64, stack: &mut dyn NetStack) -> Out {
        let Some(phase) = self.session(sid).map(|s| s.phase) else {
            return Out::new();
        };
        match phase {
            Phase::Active | Phase::Suspended | Phase::Dormant
                if self.config.session_linger_ns > 0 =>
            {
                plab_obs::obs_event!(plab_obs::Component::Endpoint, "session.detach", "sid" = sid);
                self.release(
                    sid,
                    Some(Phase::Detached {
                        since: stack.clock(),
                    }),
                )
            }
            // Its connection went when it detached; its window is running.
            Phase::Detached { .. } => Out::new(),
            Phase::New
            | Phase::AwaitAuth { .. }
            | Phase::Active
            | Phase::Suspended
            | Phase::Dormant => self.end_session(sid, stack),
        }
    }

    /// Handle one decoded control message from session `sid`: the phase ×
    /// message table of DESIGN "Endpoint". Commands are the bottom rows:
    /// what a phase does with one is `execute`'s half.
    pub fn on_message(&mut self, sid: u64, msg: Message, stack: &mut dyn NetStack) -> Out {
        let mut out = Out::new();
        // Messages for sessions that were never opened (or were rejected at
        // the max_sessions cap) are dropped outright: no state, no replies.
        let Some(i) = slot(&self.sessions, sid, |s| s.sid) else {
            return out;
        };
        let s = &mut self.sessions[i];
        let refuse = |code, why: &'static str| (sid, Message::Resp(err(code, why)));
        match (s.phase, msg) {
            // Nobody is connected to a detached session: nothing sent under
            // its sid comes from its controller.
            (Phase::Detached { .. }, _) => {}
            (Phase::New | Phase::AwaitAuth { .. }, Message::Hello { version }) => {
                if version != crate::PROTOCOL_VERSION {
                    out.push(refuse(ErrCode::Malformed, "protocol version"));
                    return out;
                }
                // Nonce derived from clock + sid; unpredictable enough for
                // the simulator, and deterministic for reproducibility.
                let mut nonce = [0u8; 32];
                nonce[..8].copy_from_slice(&stack.clock().to_le_bytes());
                nonce[8..16].copy_from_slice(&sid.to_le_bytes());
                nonce[16..24].copy_from_slice(&self.config.wall_time.to_le_bytes());
                s.phase = Phase::AwaitAuth { nonce };
                out.push((
                    sid,
                    Message::HelloAck {
                        version: crate::PROTOCOL_VERSION,
                        nonce,
                    },
                ));
            }
            // `Hello` opens a handshake and nothing else (DESIGN deviation
            // 11): an authenticated session that went back to `AwaitAuth`
            // would hand its sockets, memory and hold on the endpoint to
            // whichever experiment authenticated next.
            (Phase::Active | Phase::Suspended | Phase::Dormant, Message::Hello { .. }) => {
                out.push(refuse(
                    ErrCode::Malformed,
                    "hello on an authenticated session",
                ));
            }
            (
                Phase::AwaitAuth { nonce },
                Message::Auth {
                    descriptor,
                    chain,
                    keys,
                    priority,
                    proof,
                },
            ) => {
                let admitted = self
                    .authorize(&nonce, &descriptor, &chain, &keys, priority, proof)
                    .and_then(|(granted, exp_id)| {
                        self.handle_auth(sid, priority, granted, exp_id, stack)
                    });
                match admitted {
                    Ok(admitted) => out.extend(admitted),
                    Err(why) => out.push((sid, Message::Resp(err(ErrCode::Auth, why)))),
                }
            }
            (
                Phase::New | Phase::Active | Phase::Suspended | Phase::Dormant,
                Message::Auth { .. },
            ) => out.push(refuse(ErrCode::Auth, "auth before hello")),
            // A command runs exactly once. A cached seq is never
            // above `last_seq`, so a fresh command skips the cache scan.
            (_, Message::CmdSeq { seq, .. }) if seq <= s.last_seq => {
                out.extend(s.replay(seq).map(|m| (sid, m)));
            }
            (_, Message::CmdSeq { seq, cmd }) => {
                s.last_seq = seq;
                self.execute(sid, seq, cmd, stack, &mut out);
            }
            // Controller-bound message types arriving here are protocol
            // violations.
            (
                _,
                Message::HelloAck { .. }
                | Message::AuthOk
                | Message::Resp(_)
                | Message::RespSeq { .. }
                | Message::Notify(_),
            ) => out.push(refuse(ErrCode::Malformed, "unexpected message")),
        }
        out
    }

    /// Figure 1: does this `Auth` authorize its experiment here? The chain
    /// under the operator's trust roots and clock, the possession proof over
    /// `nonce`, the priority ceiling. Returns what the chain allows and the
    /// experiment's identity (leaf signer, descriptor hash), or why not.
    fn authorize(
        &mut self,
        nonce: &[u8; 32],
        descriptor: &[u8],
        chain: &[Vec<u8>],
        keys: &[[u8; 32]],
        priority: u8,
        proof: [u8; 64],
    ) -> Result<(EffectiveRestrictions, (KeyHash, [u8; 32])), String> {
        let desc = ExperimentDescriptor::decode(descriptor).ok_or("bad descriptor")?;
        let certs = chain
            .iter()
            .map(|c| Certificate::decode(c))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("bad certificate: {e}"))?;
        let pubkeys: Vec<PublicKey> = keys.iter().map(|k| PublicKey::from_bytes(*k)).collect();
        let key_map = cert::key_map(&pubkeys);
        let dhash = desc.hash();
        let effective = self
            .sig_memo
            .verify_chain(
                &certs,
                &key_map,
                &self.config.trusted_keys,
                &dhash,
                self.config.wall_time,
            )
            .map_err(|e| format!("chain rejected: {e}"))?;
        // Possession proof: the leaf's signer key signed nonce ‖ dhash.
        let leaf_signer = certs.last().expect("nonempty chain").signer;
        let leaf_key = key_map.get(&leaf_signer).ok_or("leaf key missing")?;
        let mut signed = Vec::with_capacity(64);
        signed.extend_from_slice(nonce);
        signed.extend_from_slice(&dhash.0);
        let proof = Signature::from_bytes(proof);
        if !self.sig_memo.verify_fresh(leaf_key, &signed, &proof) {
            return Err("possession proof invalid".into());
        }
        // Priority ceiling (§3.3: "this priority must not exceed the
        // maximum priority specified in any certificate in the chain").
        if effective
            .max_priority
            .is_some_and(|ceiling| priority > ceiling)
        {
            return Err("priority exceeds certificate ceiling".into());
        }
        Ok((effective, (leaf_signer, dhash.0)))
    }

    /// An authorized session takes its place: its chain's monitors are
    /// instantiated (the last thing that can refuse it), it adopts the session
    /// its experiment left behind, if there is one, and asks for the endpoint.
    fn handle_auth(
        &mut self,
        sid: u64,
        priority: u8,
        granted: EffectiveRestrictions,
        exp_id: (KeyHash, [u8; 32]),
        stack: &mut dyn NetStack,
    ) -> Result<Out, String> {
        // Instantiate monitors against the current info block.
        let s = self
            .session_mut(sid)
            .expect("the session that sent the Auth");
        let info = info_snapshot(&mut s.memory, stack);
        let monitors = MonitorSet::instantiate(&granted.monitors, &info)
            .map_err(|e| format!("monitor rejected: {e}"))?;
        // Session resumption: if a session holds the same experiment
        // identity (leaf signer + descriptor hash), this is the same
        // controller reconnecting after a control-channel fault. Adopt
        // that session's entire state — sockets, capture buffer, memory,
        // replay cache — under the new connection. Authentication above was
        // re-done in full, so resumption grants nothing auth didn't. The
        // old session need not have *detached* yet: with lingering enabled
        // a controller only runs one connection, so a fresh authentication
        // proves the prior connection is stale even when its FIN never
        // arrived (the endpoint would otherwise hold the experiment hostage
        // behind a dead conn, refusing the reconnect with `Suspended` at
        // equal priority until the linger window burned out). Latest
        // authenticated wins; the stale connection's messages fall into an
        // untracked session and are dropped. With `session_linger_ns: 0`
        // the operator has opted out of resumption entirely and
        // same-experiment sessions stay independent.
        let takeover = self.config.session_linger_ns > 0;
        // The oldest candidate: the first in the table's sid order.
        // Without takeover only a detached session can match, so with none
        // there is no walk. (A session that has an experiment identity has
        // authenticated.)
        let adopt = if takeover || self.detached > 0 {
            let adoptable = |s: &Session| takeover || matches!(s.phase, Phase::Detached { .. });
            self.sessions
                .iter()
                .find(|s| s.sid != sid && s.experiment_id == Some(exp_id) && adoptable(s))
                .map(|s| s.sid)
        } else {
            None
        };
        let mut out = vec![(sid, Message::AuthOk)];
        if let Some(osid) = adopt {
            let mut old = self
                .take(osid)
                .expect("adoptable sessions are in the table");
            old.sid = sid;
            if let Phase::Detached { .. } = old.phase {
                self.detached -= 1;
                M_LINGERING.sub(1);
            } else if self.active == Some(osid) && priority >= old.priority {
                // Taking over a still-attached holder: the adopter inherits
                // its claim. `contend` below finds the endpoint free, and
                // nobody else is told `Resumed`.
                self.active = None;
            } else {
                // Unless it asks for less than the holder had: whoever that
                // lets past it is not kept waiting behind it. The endpoint
                // is released as if the old connection had ended, and the
                // adopter contends like anyone else.
                out.extend(self.release(osid, None));
            }
            plab_obs::obs_event!(
                plab_obs::Component::Endpoint,
                "session.resume",
                "old_sid" = osid,
                "sid" = sid
            );
            // Re-arm an outstanding deferred poll under the new session id
            // (the stale wakeup keyed on `osid` fires into nothing).
            if let Some((deadline, _)) = old.pending_poll {
                stack.schedule_wakeup(wake_key(WAKE_POLL, sid, 0), deadline);
            }
            // Scheduled TCP sends keep their wakeups (keyed by seq) but must
            // resolve to the adopted session.
            for pending in self.pending_tcp.values_mut() {
                if pending.0 == osid {
                    pending.0 = sid;
                }
            }
            self.put(old);
        }
        // Adopted or new, the session is this experiment's from here on,
        // under this chain's terms, and asks for the endpoint.
        let s = self.session_mut(sid).expect("just looked up or put");
        s.phase = Phase::Suspended;
        s.priority = priority;
        s.monitors = monitors;
        s.capture.capacity = granted
            .max_buffer_bytes
            .unwrap_or(DEFAULT_BUFFER_BYTES)
            .min(DEFAULT_BUFFER_BYTES) as usize;
        s.experiment_id = Some(exp_id);
        s.memory.set_info("experiment.priority", priority as u64);
        out.extend(self.contend(sid));
        Ok(out)
    }

    /// `sid` asks for the endpoint (§3.3). It takes it when nobody holds it,
    /// and from a holder of strictly lower priority — "the endpoint notifies
    /// the experiment controller of the current experiment that its
    /// experiment has been interrupted, and then transfers control". A tie
    /// favours the incumbent, and `sid` waits `Suspended`.
    fn contend(&mut self, sid: u64) -> Out {
        let mut out = Out::new();
        let priority = self.session(sid).expect("a contender is live").priority;
        let phase = match self.active.and_then(|cur| self.session_mut(cur)) {
            Some(holder) if holder.priority >= priority => Phase::Suspended,
            Some(holder) => {
                holder.phase = Phase::Suspended;
                out.push((
                    holder.sid,
                    Message::Notify(Notification::Interrupted {
                        by_priority: priority,
                    }),
                ));
                Phase::Active
            }
            None => Phase::Active,
        };
        if phase == Phase::Active {
            self.active = Some(sid);
        }
        self.session_mut(sid).expect("read above").phase = phase;
        out
    }

    /// `sid` gives up whatever claim it has on the endpoint: it goes `into`
    /// `Dormant` (it yielded) or `Detached` (its connection died), or it has
    /// ended and is out of the table already (`None`). If it held the
    /// endpoint, the suspended session with the highest priority — the
    /// lowest sid among equals — takes it and is told `Resumed` ("The
    /// endpoint then returns control to the controller with the next highest
    /// priority suspended experiment"). Dormant and detached sessions are
    /// not candidates, so a yielder cannot reclaim what it just released.
    fn release(&mut self, sid: u64, into: Option<Phase>) -> Out {
        let mut out = Out::new();
        if let (Some(s), Some(into)) = (self.session_mut(sid), into) {
            s.phase = into;
            if let Phase::Detached { .. } = into {
                self.detached += 1;
                M_LINGERING.add(1);
            }
        }
        if self.active != Some(sid) {
            return out;
        }
        self.active = self
            .sessions
            .iter()
            .filter(|s| s.phase == Phase::Suspended)
            .max_by_key(|s| (s.priority, std::cmp::Reverse(s.sid)))
            .map(|s| s.sid);
        if let Some(next) = self.active {
            self.session_mut(next).expect("just found").phase = Phase::Active;
            out.push((next, Message::Notify(Notification::Resumed)));
        }
        out
    }

    /// The one teardown: the session's sockets go back to the stack, it
    /// leaves the table, and the endpoint, if it held it, goes to the next
    /// in line.
    fn end_session(&mut self, sid: u64, stack: &mut dyn NetStack) -> Out {
        let Some(s) = self.take(sid) else {
            return Out::new();
        };
        for binding in s.sockets.values() {
            binding.close(stack);
        }
        if let Phase::Detached { .. } = s.phase {
            self.detached -= 1;
            M_LINGERING.sub(1);
        }
        self.release(sid, None)
    }
}

fn err(code: ErrCode, msg: impl Into<Cow<'static, str>>) -> Response {
    Response::Err {
        code,
        msg: msg.into(),
    }
}
