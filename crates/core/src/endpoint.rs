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

use crate::cert::{self, Certificate, EffectiveRestrictions};
use crate::descriptor::ExperimentDescriptor;
use crate::memory::EndpointMemory;
use crate::monitor::MonitorSet;
use crate::netstack::NetStack;
use crate::wire::{Command, ErrCode, Message, Notification, Proto, Response};
use plab_crypto::{KeyHash, PublicKey, Signature};
use plab_filter::{Program, Vm};
use plab_netsim::RawDisposition;
use plab_packet::layout;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::Ipv4Addr;

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

/// Endpoint configuration, installed by the endpoint operator out-of-band
/// ("This set of trusted keys is installed and managed out-of-band by the
/// endpoint operator", §3.3).
#[derive(Clone)]
pub struct EndpointConfig {
    /// Operator keys whose certificate chains this endpoint accepts.
    pub trusted_keys: Vec<KeyHash>,
    /// Wall-clock seconds used for certificate validity checks.
    pub wall_time: u64,
    /// Default capture-buffer capacity (bytes) when no certificate
    /// restriction tightens it.
    pub default_buffer_bytes: u64,
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
            default_buffer_bytes: 1 << 20,
            max_sessions: 1024,
            replay_cache_bytes: 256 << 10,
            session_linger_ns: 0,
        }
    }
}

/// One controller's socket.
// Raw sockets dominate the enum size because `Vm` carries its pre-decoded
// threaded code inline; boxing it would put an indirection on the per-packet
// adjudication path, and bindings are few (one per controller socket).
#[allow(clippy::large_enum_variant)]
enum SocketBinding {
    Raw {
        /// Installed `ncap` filter and its expiry (endpoint clock ns).
        filter: Option<(Vm, u64)>,
    },
    Udp {
        locport: u16,
        remaddr: Ipv4Addr,
        remport: u16,
    },
    Tcp {
        conn: u64,
        remaddr: Ipv4Addr,
        remport: u16,
        locport: u16,
    },
}

/// Capture buffer with the §3.1 drop accounting.
/// One captured packet: (socket id, capture time, payload).
type CaptureEntry = (u32, u64, Vec<u8>);

struct CaptureBuffer {
    entries: VecDeque<CaptureEntry>,
    bytes: usize,
    capacity: usize,
    dropped_packets: u64,
    dropped_bytes: u64,
}

impl CaptureBuffer {
    fn new(capacity: usize) -> Self {
        CaptureBuffer {
            entries: VecDeque::new(),
            bytes: 0,
            capacity,
            dropped_packets: 0,
            dropped_bytes: 0,
        }
    }

    fn space(&self) -> usize {
        self.capacity.saturating_sub(self.bytes)
    }

    fn push(&mut self, sktid: u32, time: u64, data: Vec<u8>) -> bool {
        if data.len() > self.space() {
            self.dropped_packets += 1;
            self.dropped_bytes += data.len() as u64;
            M_CAP_DROP_PKTS.inc();
            M_CAP_DROP_BYTES.add(data.len() as u64);
            plab_obs::obs_event!(
                plab_obs::Component::Endpoint,
                "capture.drop",
                "sktid" = sktid,
                "len" = data.len()
            );
            return false;
        }
        self.bytes += data.len();
        self.entries.push_back((sktid, time, data));
        M_CAPTURED.inc();
        true
    }

    fn drain(&mut self) -> (Vec<CaptureEntry>, u64, u64) {
        let entries: Vec<_> = self.entries.drain(..).collect();
        self.bytes = 0;
        let dp = std::mem::take(&mut self.dropped_packets);
        let db = std::mem::take(&mut self.dropped_bytes);
        (entries, dp, db)
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

enum SessionState {
    /// Waiting for `Hello`.
    New,
    /// `HelloAck` sent; waiting for `Auth`.
    AwaitAuth { nonce: [u8; 32] },
    /// Authenticated and in control (or suspended).
    Ready,
}

/// Entry-count backstop on the per-session replay cache; the operative
/// bound is [`EndpointConfig::replay_cache_bytes`] (a controller replays
/// at most its in-flight window, which is far smaller than either).
const REPLAY_CACHE: usize = 32;

/// Estimated resident cost of one cached response, in bytes: payload plus
/// a flat per-entry overhead for the queue slot and seq/enum headers.
fn resp_cost(resp: &Response) -> usize {
    let payload = match resp {
        Response::Ok => 0,
        Response::SendQueued { .. } => 8,
        Response::Mem { data } => data.len(),
        Response::Poll { packets, .. } => {
            packets.iter().map(|(_, _, d)| d.len() + 16).sum()
        }
        Response::Err { msg, .. } => msg.len(),
    };
    payload + 32
}

struct Session {
    sid: u64,
    /// Which `Session` object this is, unique within the agent. Unlike
    /// `sid` it stays with the object when a re-authentication adopts it,
    /// so a send scheduled before the adoption still finds its way home
    /// (see [`stack_tag`]).
    owner: u32,
    state: SessionState,
    priority: u8,
    suspended: bool,
    /// Set when the session voluntarily yielded; cleared when it issues a
    /// new command (at which point it re-contends for control).
    yielded: bool,
    monitors: MonitorSet,
    restrictions: EffectiveRestrictions,
    memory: EndpointMemory,
    /// By sktid, ascending: sockets are drained, offered packets and torn
    /// down in that order on every run.
    sockets: BTreeMap<u32, SocketBinding>,
    capture: CaptureBuffer,
    /// Outstanding `npoll` deadline (endpoint clock ns).
    pending_poll: Option<u64>,
    /// Sequence number of the outstanding `npoll`, when it arrived as a
    /// [`Message::CmdSeq`] (its eventual response is sequenced + cached).
    pending_poll_seq: Option<u64>,
    next_tag: u64,
    experiment_name: String,
    /// Identity for session resumption: (leaf signer, descriptor hash).
    /// A reconnecting controller that re-authenticates with the same
    /// experiment adopts this session's state.
    experiment_id: Option<(KeyHash, [u8; 32])>,
    /// Endpoint-clock time the control connection died, while the session
    /// lingers awaiting resumption (see `EndpointConfig::session_linger_ns`).
    detached_at: Option<u64>,
    /// Highest sequence number executed via `CmdSeq`.
    last_seq: u64,
    /// Recent (seq, cost, response) entries for idempotent replay.
    replay: VecDeque<(u64, usize, Response)>,
    /// Sum of the cached entries' `resp_cost`.
    replay_bytes: usize,
    /// Byte budget for `replay` (from [`EndpointConfig::replay_cache_bytes`]).
    replay_budget: usize,
}

impl Session {
    fn new(sid: u64, owner: u32, default_buffer: usize, replay_budget: usize) -> Self {
        Session {
            sid,
            owner,
            state: SessionState::New,
            priority: 0,
            suspended: false,
            yielded: false,
            monitors: MonitorSet::unrestricted(),
            restrictions: EffectiveRestrictions::default(),
            memory: EndpointMemory::new(),
            sockets: BTreeMap::new(),
            capture: CaptureBuffer::new(default_buffer),
            pending_poll: None,
            pending_poll_seq: None,
            next_tag: 1,
            experiment_name: String::new(),
            experiment_id: None,
            detached_at: None,
            last_seq: 0,
            replay: VecDeque::new(),
            replay_bytes: 0,
            replay_budget,
        }
    }

    fn cache_response(&mut self, seq: u64, resp: Response) {
        let cost = resp_cost(&resp);
        self.replay_bytes += cost;
        self.replay.push_back((seq, cost, resp));
        // Evict oldest-first past either bound, but always keep the entry
        // just cached: the controller's most recent command must stay
        // replayable even when one response alone exceeds the budget.
        while self.replay.len() > 1
            && (self.replay.len() > REPLAY_CACHE || self.replay_bytes > self.replay_budget)
        {
            if let Some((_, c, _)) = self.replay.pop_front() {
                self.replay_bytes -= c;
            }
        }
    }

    /// Build the response message for a completing poll: sequenced (and
    /// cached for replay) when the poll arrived as a `CmdSeq`.
    fn poll_response(&mut self, packets: Vec<CaptureEntry>, dp: u64, db: u64) -> Message {
        let resp = Response::Poll { packets, dropped_packets: dp, dropped_bytes: db };
        match self.pending_poll_seq.take() {
            Some(seq) => {
                self.cache_response(seq, resp.clone());
                Message::RespSeq { seq, resp }
            }
            None => Message::Resp(resp),
        }
    }
}

/// The tag a [`NetStack`] carries for a scheduled raw or UDP send: the
/// session's own tag — a per-session counter from 1, what `SendQueued`
/// reports and the send-log slot is keyed by — under the issuing session's
/// `owner`. Two sessions' tag 1 are two different sends; the stack's log
/// must say whose left when. A session's tags stay below 2^32.
fn stack_tag(owner: u32, tag: u64) -> u64 {
    (owner as u64) << 32 | (tag & 0xffff_ffff)
}

fn stack_tag_parts(stack_tag: u64) -> (u32, u64) {
    ((stack_tag >> 32) as u32, stack_tag & 0xffff_ffff)
}

/// Wakeup-key kinds (encoded into the [`NetStack::schedule_wakeup`] key).
const WAKE_POLL: u64 = 1;
const WAKE_TCP_SEND: u64 = 2;

fn wake_key(kind: u64, sid: u64, seq: u32) -> u64 {
    (kind << 56) | ((sid & 0xff_ffff) << 32) | seq as u64
}

fn wake_parts(key: u64) -> (u64, u64, u32) {
    (key >> 56, (key >> 32) & 0xff_ffff, key as u32)
}

/// The endpoint agent.
pub struct EndpointAgent {
    config: EndpointConfig,
    sessions: HashMap<u64, Session>,
    /// The session currently in control, if any (§3.3: "at any given time,
    /// no more than one controller has control of an endpoint").
    active: Option<u64>,
    /// Deferred TCP scheduled sends: seq → (sid, sktid, payload, tag).
    pending_tcp: HashMap<u32, (u64, u32, Vec<u8>, u64)>,
    next_tcp_seq: u32,
    /// The next new session's [`Session::owner`].
    next_owner: u32,
    /// Sessions whose `detached_at` is set: with none, and no takeover, an
    /// `Auth` has no session to adopt and does not look for one.
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
            sessions: HashMap::new(),
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
            .and_then(|sid| self.sessions.get(&sid))
            .map(|s| s.priority)
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Whether a new session would be admitted right now (the reactor
    /// consults this before accepting, so over-capacity connections get a
    /// typed [`ErrCode::Busy`] refusal instead of silence).
    pub fn can_accept(&self) -> bool {
        self.sessions.len() < self.config.max_sessions
    }

    /// The sids of the live sessions `keep` holds for, ascending. The
    /// session table is a hash map for its lookups; paths that walk it and
    /// produce output walk it through here, so nothing the agent emits
    /// depends on the map's per-process iteration order.
    fn sids(&self, keep: impl Fn(&Session) -> bool) -> Vec<u64> {
        let mut sids: Vec<u64> =
            self.sessions.values().filter(|s| keep(s)).map(|s| s.sid).collect();
        sids.sort_unstable();
        sids
    }

    /// A new control connection was accepted / dialed.
    pub fn on_session_open(&mut self, sid: u64) {
        if self.can_accept() {
            // Grow the table in fixed chunks rather than pre-reserving
            // `max_sessions` slots (the default cap is 1024; most endpoints
            // hold a handful) or letting every insert decide: allocation
            // stays bounded by the high-water mark, in CHUNK steps.
            const SESSION_CHUNK: usize = 64;
            if self.sessions.capacity() == self.sessions.len() {
                let headroom = self.config.max_sessions - self.sessions.len();
                self.sessions.reserve(SESSION_CHUNK.min(headroom));
            }
            self.sessions.insert(
                sid,
                Session::new(
                    sid,
                    self.next_owner,
                    self.config.default_buffer_bytes as usize,
                    self.config.replay_cache_bytes,
                ),
            );
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
        let resumable = self.config.session_linger_ns > 0
            && self
                .sessions
                .get(&sid)
                .is_some_and(|s| s.experiment_id.is_some() && matches!(s.state, SessionState::Ready));
        if resumable {
            let s = self.sessions.get_mut(&sid).unwrap();
            self.detached += s.detached_at.is_none() as usize;
            s.detached_at = Some(stack.clock());
            M_LINGERING.add(1);
            plab_obs::obs_event!(plab_obs::Component::Endpoint, "session.detach", "sid" = sid);
            if self.active == Some(sid) {
                self.active = None;
                return self.resume_next_excluding(None);
            }
            return Vec::new();
        }
        if let Some(mut s) = self.sessions.remove(&sid) {
            self.detached -= s.detached_at.is_some() as usize;
            self.teardown_sockets(&mut s, stack);
            if self.active == Some(sid) {
                self.active = None;
                return self.resume_next_excluding(None);
            }
        }
        Vec::new()
    }

    fn teardown_sockets(&mut self, s: &mut Session, stack: &mut dyn NetStack) {
        for (sktid, binding) in std::mem::take(&mut s.sockets) {
            match binding {
                SocketBinding::Udp { locport, .. } => stack.udp_unbind(locport),
                SocketBinding::Tcp { conn, .. } => {
                    stack.tcp_close(conn);
                    s.memory.clear_sockstat(sktid);
                }
                SocketBinding::Raw { .. } => {}
            }
        }
    }

    /// Stamp each open TCP socket's sender-side state into the session's
    /// socket-state table so `mread` exposes live backlog/peer-window
    /// ("the current socket state", §3.1). Refreshed on every service
    /// pass and immediately before each `mread`.
    fn refresh_sockstat(s: &mut Session, stack: &mut dyn NetStack) {
        for (&sktid, binding) in &s.sockets {
            let SocketBinding::Tcp { conn, .. } = *binding else { continue };
            let mut flags = crate::memory::SOCKSTAT_FLAG_OPEN;
            if stack.tcp_alive(conn) {
                flags |= crate::memory::SOCKSTAT_FLAG_ALIVE;
            }
            flags |= stack.tcp_retrans(conn).min(0xFFFF) << 16;
            s.memory.record_sockstat(
                sktid,
                flags,
                stack.tcp_backlog(conn) as u64,
                stack.tcp_peer_window(conn) as u64,
            );
        }
    }

    /// Handle one decoded control message from session `sid`.
    pub fn on_message(&mut self, sid: u64, msg: Message, stack: &mut dyn NetStack) -> Out {
        let mut out = Out::new();
        // Messages for sessions that were never opened (or were rejected at
        // the max_sessions cap) are dropped outright: no state, no replies.
        if !self.sessions.contains_key(&sid) {
            return out;
        }
        match msg {
            Message::Hello { version } => {
                if version != crate::PROTOCOL_VERSION {
                    out.push((sid, err(ErrCode::Malformed, "protocol version")));
                    return out;
                }
                // Nonce derived from clock + sid; unpredictable enough for
                // the simulator, and deterministic for reproducibility.
                let mut nonce = [0u8; 32];
                nonce[..8].copy_from_slice(&stack.clock().to_le_bytes());
                nonce[8..16].copy_from_slice(&sid.to_le_bytes());
                nonce[16..24].copy_from_slice(&self.config.wall_time.to_le_bytes());
                if let Some(s) = self.sessions.get_mut(&sid) {
                    s.state = SessionState::AwaitAuth { nonce };
                    out.push((
                        sid,
                        Message::HelloAck { version: crate::PROTOCOL_VERSION, nonce },
                    ));
                }
            }
            Message::Auth { descriptor, chain, keys, priority, proof } => {
                out.extend(self.handle_auth(sid, descriptor, chain, keys, priority, proof, stack));
            }
            Message::Cmd(cmd) => {
                out.extend(self.handle_command(sid, cmd, stack));
            }
            Message::CmdSeq { seq, cmd } => {
                out.extend(self.handle_cmd_seq(sid, seq, cmd, stack));
            }
            // Controller-bound message types arriving here are protocol
            // violations.
            Message::HelloAck { .. }
            | Message::AuthOk
            | Message::Resp(_)
            | Message::RespSeq { .. }
            | Message::Notify(_) => {
                out.push((sid, err(ErrCode::Malformed, "unexpected message")));
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_auth(
        &mut self,
        sid: u64,
        descriptor: Vec<u8>,
        chain: Vec<Vec<u8>>,
        keys: Vec<[u8; 32]>,
        priority: u8,
        proof: [u8; 64],
        stack: &mut dyn NetStack,
    ) -> Out {
        let mut out = Out::new();
        let nonce = match self.sessions.get(&sid).map(|s| &s.state) {
            Some(SessionState::AwaitAuth { nonce }) => *nonce,
            _ => {
                out.push((sid, err(ErrCode::Auth, "auth before hello")));
                return out;
            }
        };
        let fail = |out: &mut Out, msg: &str| {
            out.push((sid, err(ErrCode::Auth, msg)));
        };

        let Some(desc) = ExperimentDescriptor::decode(&descriptor) else {
            fail(&mut out, "bad descriptor");
            return out;
        };
        let mut certs = Vec::with_capacity(chain.len());
        for c in &chain {
            match Certificate::decode(c) {
                Ok(cert) => certs.push(cert),
                Err(e) => {
                    fail(&mut out, &format!("bad certificate: {e}"));
                    return out;
                }
            }
        }
        let pubkeys: Vec<PublicKey> = keys.iter().map(|k| PublicKey::from_bytes(*k)).collect();
        let key_map = cert::key_map(&pubkeys);
        let dhash = desc.hash();
        let effective = match self.sig_memo.verify_chain(
            &certs,
            &key_map,
            &self.config.trusted_keys,
            &dhash,
            self.config.wall_time,
        ) {
            Ok(e) => e,
            Err(e) => {
                fail(&mut out, &format!("chain rejected: {e}"));
                return out;
            }
        };
        // Possession proof: the leaf's signer key signed nonce ‖ dhash.
        let leaf_signer = certs.last().expect("nonempty chain").signer;
        let Some(leaf_key) = key_map.get(&leaf_signer) else {
            fail(&mut out, "leaf key missing");
            return out;
        };
        let mut signed = Vec::with_capacity(64);
        signed.extend_from_slice(&nonce);
        signed.extend_from_slice(&dhash.0);
        // A fresh nonce every time: nothing about the proof is remembered.
        cert::M_SIG_VERIFIED.inc();
        if !plab_crypto::ed25519::verify(leaf_key, &signed, &Signature::from_bytes(proof)) {
            fail(&mut out, "possession proof invalid");
            return out;
        }
        // Priority ceiling (§3.3: "this priority must not exceed the
        // maximum priority specified in any certificate in the chain").
        if let Some(ceiling) = effective.max_priority {
            if priority > ceiling {
                fail(&mut out, "priority exceeds certificate ceiling");
                return out;
            }
        }
        // Instantiate monitors against the current info block.
        let info_snapshot = {
            let s = self.sessions.get_mut(&sid).unwrap();
            Self::info_snapshot(s, stack)
        };
        let monitors = match MonitorSet::instantiate(&effective.monitors, &info_snapshot) {
            Ok(m) => m,
            Err(e) => {
                fail(&mut out, &format!("monitor rejected: {e}"));
                return out;
            }
        };

        let buffer = effective
            .max_buffer_bytes
            .unwrap_or(self.config.default_buffer_bytes)
            .min(self.config.default_buffer_bytes) as usize;
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
        let exp_id = (leaf_signer, dhash.0);
        let takeover = self.config.session_linger_ns > 0;
        // The oldest candidate, so the choice does not depend on the
        // map's per-process iteration order. Without takeover only a
        // detached session can match, so with none there is no walk.
        let adopt = if takeover || self.detached > 0 {
            self.sessions
                .iter()
                .filter(|(osid, s)| {
                    **osid != sid
                        && s.experiment_id == Some(exp_id)
                        && (s.detached_at.is_some()
                            || (takeover && matches!(s.state, SessionState::Ready)))
                })
                .map(|(osid, _)| *osid)
                .min()
        } else {
            None
        };
        if let Some(osid) = adopt {
            let mut old = self.sessions.remove(&osid).unwrap();
            old.sid = sid;
            if old.detached_at.take().is_some() {
                self.detached -= 1;
                M_LINGERING.sub(1);
            } else if self.active == Some(osid) {
                // Taking over a still-attached session: the adopted session
                // inherits the old one's claim on the endpoint.
                self.active = None;
            }
            plab_obs::obs_event!(
                plab_obs::Component::Endpoint,
                "session.resume",
                "old_sid" = osid,
                "sid" = sid
            );
            old.priority = priority;
            old.monitors = monitors;
            old.restrictions = effective;
            old.capture.capacity = buffer;
            old.suspended = true;
            old.yielded = false;
            old.memory.set_info("experiment.priority", priority as u64);
            // Re-arm an outstanding deferred poll under the new session id
            // (the stale wakeup keyed on `osid` fires into nothing).
            if let Some(deadline) = old.pending_poll {
                stack.schedule_wakeup(wake_key(WAKE_POLL, sid, 0), deadline);
            }
            // Scheduled TCP sends keep their wakeups (keyed by seq) but must
            // resolve to the adopted session.
            for pending in self.pending_tcp.values_mut() {
                if pending.0 == osid {
                    pending.0 = sid;
                }
            }
            self.sessions.insert(sid, old);
        } else {
            let s = self.sessions.get_mut(&sid).unwrap();
            s.state = SessionState::Ready;
            s.priority = priority;
            s.monitors = monitors;
            s.restrictions = effective;
            s.capture = CaptureBuffer::new(buffer);
            s.experiment_name = desc.name.clone();
            s.experiment_id = Some(exp_id);
            s.memory.set_info("experiment.priority", priority as u64);
        }
        out.push((sid, Message::AuthOk));
        out.extend(self.contend(sid));
        out
    }

    /// §3.3 contention: give control to the highest-priority session.
    fn contend(&mut self, new_sid: u64) -> Out {
        let mut out = Out::new();
        let new_priority = self.sessions[&new_sid].priority;
        match self.active {
            None => {
                self.active = Some(new_sid);
                let s = self.sessions.get_mut(&new_sid).unwrap();
                s.suspended = false;
                s.yielded = false;
            }
            Some(cur) if cur == new_sid => {}
            Some(cur) => {
                let cur_priority = self.sessions.get(&cur).map(|s| s.priority).unwrap_or(0);
                if new_priority > cur_priority {
                    // Preempt: "the endpoint notifies the experiment
                    // controller of the current experiment that its
                    // experiment has been interrupted, and then transfers
                    // control".
                    if let Some(s) = self.sessions.get_mut(&cur) {
                        s.suspended = true;
                    }
                    out.push((
                        cur,
                        Message::Notify(Notification::Interrupted { by_priority: new_priority }),
                    ));
                    self.active = Some(new_sid);
                    self.sessions.get_mut(&new_sid).unwrap().suspended = false;
                } else {
                    self.sessions.get_mut(&new_sid).unwrap().suspended = true;
                }
            }
        }
        out
    }

    /// Resume the highest-priority suspended session after the active one
    /// ends ("The endpoint then returns control to the controller with the
    /// next highest priority suspended experiment"). `exclude` skips the
    /// session that just yielded so it cannot immediately reclaim control.
    fn resume_next_excluding(&mut self, exclude: Option<u64>) -> Out {
        let mut out = Out::new();
        let next = self
            .sessions
            .values()
            .filter(|s| {
                s.suspended
                    && !s.yielded
                    && s.detached_at.is_none()
                    && matches!(s.state, SessionState::Ready)
                    && Some(s.sid) != exclude
            })
            .max_by_key(|s| (s.priority, std::cmp::Reverse(s.sid)))
            .map(|s| s.sid);
        if let Some(sid) = next {
            self.active = Some(sid);
            self.sessions.get_mut(&sid).unwrap().suspended = false;
            out.push((sid, Message::Notify(Notification::Resumed)));
        }
        out
    }

    /// A sequenced command: execute exactly once, cache the response so a
    /// controller that lost the connection before reading it can replay the
    /// same `seq` after reconnecting and get the identical answer.
    fn handle_cmd_seq(&mut self, sid: u64, seq: u64, cmd: Command, stack: &mut dyn NetStack) -> Out {
        let mut out = Out::new();
        let Some(s) = self.sessions.get_mut(&sid) else {
            return out;
        };
        // A cached seq is never above `last_seq`, so a fresh command skips
        // the cache scan.
        if seq <= s.last_seq {
            // Replay of an already-answered command: return the cached
            // response without re-executing (idempotence across reconnects).
            if let Some((_, _, resp)) = s.replay.iter().find(|(q, _, _)| *q == seq) {
                M_REPLAY_HITS.inc();
                plab_obs::obs_event!(
                    plab_obs::Component::Endpoint,
                    "replay.hit",
                    "sid" = sid,
                    "seq" = seq
                );
                out.push((sid, Message::RespSeq { seq, resp: resp.clone() }));
                return out;
            }
            if s.pending_poll_seq == Some(seq) {
                // The poll this seq named is still in flight; its sequenced
                // response arrives when the deadline passes or data shows up.
                return out;
            }
            // A replayed seq whose response has been evicted from the
            // bounded cache: a replay-cache miss, refused explicitly.
            M_REPLAY_MISSES.inc();
            plab_obs::obs_event!(
                plab_obs::Component::Endpoint,
                "replay.miss",
                "sid" = sid,
                "seq" = seq
            );
            let resp = Response::Err {
                code: ErrCode::Limit,
                msg: "response no longer cached".to_string(),
            };
            out.push((sid, Message::RespSeq { seq, resp }));
            return out;
        }
        s.last_seq = seq;
        if matches!(cmd, Command::NPoll { .. }) {
            // Mark before dispatch so a deferred poll knows to emit a
            // sequenced response on completion.
            s.pending_poll_seq = Some(seq);
        }
        let mut inner = self.handle_command(sid, cmd, stack);
        // Wrap the session's immediate response (if any) as `RespSeq` and
        // cache it. Poll completions already arrive sequenced via
        // `Session::poll_response`.
        let mut answered = false;
        for (to, m) in inner.iter_mut() {
            if *to != sid {
                continue;
            }
            match m {
                Message::Resp(_) => {
                    let Message::Resp(resp) = std::mem::replace(m, Message::AuthOk) else {
                        unreachable!()
                    };
                    if let Some(s) = self.sessions.get_mut(&sid) {
                        s.cache_response(seq, resp.clone());
                    }
                    *m = Message::RespSeq { seq, resp };
                    answered = true;
                    break;
                }
                Message::RespSeq { .. } => {
                    answered = true;
                    break;
                }
                _ => {}
            }
        }
        if answered {
            // The command resolved synchronously (possibly with an error):
            // no deferred poll owns this seq after all.
            if let Some(s) = self.sessions.get_mut(&sid) {
                if s.pending_poll_seq == Some(seq) {
                    s.pending_poll_seq = None;
                }
            }
        }
        out.extend(inner);
        out
    }

    fn handle_command(&mut self, sid: u64, cmd: Command, stack: &mut dyn NetStack) -> Out {
        M_COMMANDS.inc();
        plab_obs::obs_event!(
            plab_obs::Component::Endpoint,
            "cmd",
            "sid" = sid,
            "op" = cmd_opcode(&cmd)
        );
        let mut out = Out::new();
        // Session must be authenticated.
        if !matches!(
            self.sessions.get(&sid).map(|s| &s.state),
            Some(SessionState::Ready)
        ) {
            out.push((sid, err(ErrCode::Auth, "not authenticated")));
            return out;
        }
        // Suspended sessions' commands are refused until resumed — except
        // that a previously-yielded session issuing a new command
        // re-contends for control (and may preempt, per its priority).
        if self.sessions[&sid].suspended && !matches!(cmd, Command::Yield) {
            if self.sessions[&sid].yielded {
                self.sessions.get_mut(&sid).unwrap().yielded = false;
                out.extend(self.contend(sid));
            }
            if self.sessions[&sid].suspended {
                out.push((sid, err(ErrCode::Suspended, "preempted by higher priority")));
                return out;
            }
        }

        match cmd {
            Command::NOpen { sktid, proto, locport, remaddr, remport } => {
                out.push((sid, self.nopen(sid, sktid, proto, locport, remaddr, remport, stack)));
            }
            Command::NClose { sktid } => {
                let resp = {
                    let s = self.sessions.get_mut(&sid).unwrap();
                    match s.sockets.remove(&sktid) {
                        Some(SocketBinding::Udp { locport, .. }) => {
                            stack.udp_unbind(locport);
                            Message::Resp(Response::Ok)
                        }
                        Some(SocketBinding::Tcp { conn, .. }) => {
                            stack.tcp_close(conn);
                            s.memory.clear_sockstat(sktid);
                            Message::Resp(Response::Ok)
                        }
                        Some(SocketBinding::Raw { .. }) => Message::Resp(Response::Ok),
                        None => err(ErrCode::BadSocket, "unknown socket"),
                    }
                };
                out.push((sid, resp));
            }
            Command::NSend { sktid, time, data } => {
                out.push((sid, self.nsend(sid, sktid, time, data, stack)));
            }
            Command::NCap { sktid, time, filt } => {
                let resp = self.ncap(sid, sktid, time, filt);
                out.push((sid, resp));
            }
            Command::NPoll { time } => {
                // Respond immediately if data is buffered; otherwise defer.
                let s = self.sessions.get_mut(&sid).unwrap();
                if !s.capture.is_empty() || time <= stack.clock() {
                    let (packets, dp, db) = s.capture.drain();
                    let msg = s.poll_response(packets, dp, db);
                    out.push((sid, msg));
                } else {
                    s.pending_poll = Some(time);
                    stack.schedule_wakeup(wake_key(WAKE_POLL, sid, 0), time);
                }
            }
            Command::MRead { memaddr, bytecnt } => {
                let s = self.sessions.get_mut(&sid).unwrap();
                Self::refresh_info(s, stack);
                Self::refresh_sockstat(s, stack);
                let resp = match s.memory.read(memaddr, bytecnt) {
                    Some(data) => Message::Resp(Response::Mem { data: data.to_vec() }),
                    None => err(ErrCode::BadMemory, "mread out of range"),
                };
                out.push((sid, resp));
            }
            Command::MWrite { memaddr, data } => {
                let s = self.sessions.get_mut(&sid).unwrap();
                let resp = if s.memory.write(memaddr, &data) {
                    Message::Resp(Response::Ok)
                } else {
                    err(ErrCode::BadMemory, "mwrite read-only or out of range")
                };
                out.push((sid, resp));
            }
            Command::Yield => {
                out.push((sid, Message::Resp(Response::Ok)));
                if self.active == Some(sid) {
                    self.active = None;
                    // The yielder becomes dormant: suspended and not
                    // eligible for auto-resumption until it issues a new
                    // command (which re-contends).
                    let s = self.sessions.get_mut(&sid).unwrap();
                    s.suspended = true;
                    s.yielded = true;
                    out.extend(self.resume_next_excluding(Some(sid)));
                }
            }
        }
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn nopen(
        &mut self,
        sid: u64,
        sktid: u32,
        proto: Proto,
        locport: u16,
        remaddr: u32,
        remport: u16,
        stack: &mut dyn NetStack,
    ) -> Message {
        let info = {
            let s = self.sessions.get_mut(&sid).unwrap();
            if s.sockets.contains_key(&sktid) {
                return err(ErrCode::BadSocket, "socket id in use");
            }
            Self::info_snapshot(s, stack)
        };
        let proto_num = match proto {
            Proto::Raw => 0u8,
            Proto::Udp => plab_packet::proto::UDP,
            Proto::Tcp => plab_packet::proto::TCP,
        };
        let allowed = self
            .sessions
            .get_mut(&sid)
            .unwrap()
            .monitors
            .allow_open(proto_num, locport, remaddr, remport, &info);
        if !allowed {
            return err(ErrCode::Denied, "monitor denied nopen");
        }
        let s = self.sessions.get_mut(&sid).unwrap();
        match proto {
            Proto::Raw => {
                if !stack.raw_supported() {
                    return err(ErrCode::Unsupported, "raw sockets unavailable");
                }
                s.sockets.insert(sktid, SocketBinding::Raw { filter: None });
            }
            Proto::Udp => {
                if !stack.udp_bind(locport) {
                    return err(ErrCode::BadSocket, "port in use");
                }
                s.sockets.insert(
                    sktid,
                    SocketBinding::Udp {
                        locport,
                        remaddr: Ipv4Addr::from(remaddr),
                        remport,
                    },
                );
            }
            Proto::Tcp => {
                if !stack.tcp_supported() {
                    return err(ErrCode::Unsupported, "tcp sockets unavailable");
                }
                let conn = stack.tcp_connect(Ipv4Addr::from(remaddr), remport);
                s.sockets.insert(
                    sktid,
                    SocketBinding::Tcp {
                        conn,
                        remaddr: Ipv4Addr::from(remaddr),
                        remport,
                        locport,
                    },
                );
            }
        }
        s.memory.set_info("sockets.open", s.sockets.len() as u64);
        Message::Resp(Response::Ok)
    }

    fn nsend(
        &mut self,
        sid: u64,
        sktid: u32,
        time: u64,
        data: Vec<u8>,
        stack: &mut dyn NetStack,
    ) -> Message {
        let info = {
            let s = self.sessions.get_mut(&sid).unwrap();
            Self::info_snapshot(s, stack)
        };
        let s = self.sessions.get_mut(&sid).unwrap();
        let tag = s.next_tag;
        let local = stack.local_addr();
        match s.sockets.get(&sktid) {
            None => err(ErrCode::BadSocket, "unknown socket"),
            Some(SocketBinding::Raw { .. }) => {
                // Monitors adjudicate the exact datagram.
                if !s.monitors.allow_send(&data, &info) {
                    self.denied_sends += 1;
                    M_DENIED_SENDS.inc();
                    return err(ErrCode::Denied, "monitor denied send");
                }
                s.next_tag += 1;
                stack.raw_send_at(time, data, stack_tag(s.owner, tag));
                Message::Resp(Response::SendQueued { tag })
            }
            Some(SocketBinding::Udp { locport, remaddr, remport }) => {
                let (locport, remaddr, remport) = (*locport, *remaddr, *remport);
                // IPv4 total length is 16 bits: a payload that cannot fit
                // one datagram is a controller error, not a panic.
                if data.len() > u16::MAX as usize - 28 {
                    return err(ErrCode::Malformed, "UDP payload exceeds one datagram");
                }
                let datagram =
                    plab_packet::builder::udp_datagram(local, remaddr, locport, remport, &data);
                if !s.monitors.allow_send(&datagram, &info) {
                    self.denied_sends += 1;
                    M_DENIED_SENDS.inc();
                    return err(ErrCode::Denied, "monitor denied send");
                }
                s.next_tag += 1;
                stack.udp_send_at(time, locport, remaddr, remport, &data, stack_tag(s.owner, tag));
                Message::Resp(Response::SendQueued { tag })
            }
            Some(SocketBinding::Tcp { conn, remaddr, remport, locport }) => {
                let (conn, remaddr, remport, locport) = (*conn, *remaddr, *remport, *locport);
                // Monitors see a synthesized segment (correct addresses and
                // ports; sequence fields zero) since the OS owns the real
                // header. The stream will be segmented at the MSS on the
                // wire, so the synthesized payload is capped at one
                // segment's worth — a bulk NSend must not overflow the
                // IPv4 length field here.
                let synth = plab_packet::builder::tcp_segment(
                    local,
                    remaddr,
                    plab_packet::tcp::TcpHeader {
                        src_port: locport,
                        dst_port: remport,
                        seq: 0,
                        ack: 0,
                        flags: plab_packet::tcp::flags::ACK,
                        window: 0,
                    },
                    &data[..data.len().min(1400)],
                );
                if !s.monitors.allow_send(&synth, &info) {
                    self.denied_sends += 1;
                    M_DENIED_SENDS.inc();
                    return err(ErrCode::Denied, "monitor denied send");
                }
                s.next_tag += 1;
                if time <= stack.clock() {
                    stack.tcp_send(conn, &data);
                    s.memory.record_send(tag, stack.clock());
                } else {
                    let seq = self.next_tcp_seq;
                    self.next_tcp_seq += 1;
                    self.pending_tcp.insert(seq, (sid, sktid, data, tag));
                    stack.schedule_wakeup(wake_key(WAKE_TCP_SEND, sid, seq), time);
                }
                Message::Resp(Response::SendQueued { tag })
            }
        }
    }

    fn ncap(&mut self, sid: u64, sktid: u32, time: u64, filt: Vec<u8>) -> Message {
        let s = self.sessions.get_mut(&sid).unwrap();
        match s.sockets.get_mut(&sktid) {
            Some(SocketBinding::Raw { filter }) => {
                let program = match Program::decode(&filt) {
                    Ok(p) => p,
                    Err(e) => return err(ErrCode::Malformed, &format!("filter: {e}")),
                };
                let vm = match Vm::new(program) {
                    Ok(vm) => vm,
                    Err(e) => return err(ErrCode::Malformed, &format!("filter: {e}")),
                };
                *filter = Some((vm, time));
                Message::Resp(Response::Ok)
            }
            Some(_) => err(ErrCode::BadSocket, "ncap requires a raw socket"),
            None => err(ErrCode::BadSocket, "unknown socket"),
        }
    }

    /// A raw packet arrived at the endpoint host and awaits disposition
    /// (§3.1: "the packet filter installed by ncap specifies whether a
    /// packet should be ignored, consumed or mirrored").
    ///
    /// Filter convention: the program's `recv` entry returns 0 to ignore
    /// the packet (not captured, OS processes it) or non-zero to capture
    /// it. A captured packet is *consumed* unless the program also defines
    /// a `mirror` entry returning non-zero for it, in which case the OS
    /// processes it too (passive-capture / telescope mode).
    pub fn on_packet(&mut self, time: u64, packet: &[u8], stack: &mut dyn NetStack) -> (RawDisposition, Out) {
        let mut out = Out::new();
        let mut disposition = RawDisposition::Ignore;
        let now = stack.clock();
        for sid in self.sids(|_| true) {
            // Snapshot info per session (refreshed lazily, on the stack).
            let info = {
                let s = self.sessions.get_mut(&sid).unwrap();
                Self::info_snapshot(s, stack)
            };
            let s = self.sessions.get_mut(&sid).unwrap();
            let mut captured_here: Vec<u32> = Vec::new();
            let mut want_mirror = false;
            let mut want_consume = false;
            for (sktid, binding) in s.sockets.iter_mut() {
                let SocketBinding::Raw { filter } = binding else {
                    continue;
                };
                let Some((vm, until)) = filter else { continue };
                if now > *until {
                    // "tells the endpoint when to stop capturing packets".
                    *filter = None;
                    continue;
                }
                match vm.run_entry(plab_filter::EntryPoint::Recv, packet, &info) {
                    Ok(0) | Err(_) => {}
                    Ok(_) => {
                        captured_here.push(*sktid);
                        let mirrors = match vm.run_entry(plab_filter::EntryPoint::Mirror, packet, &info) {
                            Ok(v) => v != 0,
                            Err(_) => false,
                        };
                        if mirrors {
                            want_mirror = true;
                        } else {
                            want_consume = true;
                        }
                    }
                }
            }
            if !captured_here.is_empty() {
                // Monitors gate what reaches the controller.
                let allowed = s.monitors.allow_recv(packet, &info);
                if allowed {
                    for sktid in captured_here {
                        if s.capture.push(sktid, time, packet.to_vec()) {
                            self.captured_packets += 1;
                        }
                    }
                    // Captured data may satisfy an outstanding npoll.
                    out.extend(Self::complete_poll_if_ready(s, now));
                    if want_consume {
                        disposition = RawDisposition::Consume;
                    } else if want_mirror && disposition != RawDisposition::Consume {
                        disposition = RawDisposition::Mirror;
                    }
                }
            }
        }
        (disposition, out)
    }

    /// A scheduled wakeup fired.
    pub fn on_wakeup(&mut self, key: u64, stack: &mut dyn NetStack) -> Out {
        let mut out = Out::new();
        let (kind, sid, seq) = wake_parts(key);
        match kind {
            WAKE_POLL => {
                if let Some(s) = self.sessions.get_mut(&sid) {
                    // A detached session holds its poll (and its captured
                    // data) until the controller resumes it — draining now
                    // would ship the response into a dead connection.
                    if s.detached_at.is_none() {
                        if let Some(deadline) = s.pending_poll {
                            if stack.clock() >= deadline {
                                s.pending_poll = None;
                                let (packets, dp, db) = s.capture.drain();
                                let msg = s.poll_response(packets, dp, db);
                                out.push((sid, msg));
                            }
                        }
                    }
                }
            }
            WAKE_TCP_SEND => {
                if let Some((sid, sktid, data, tag)) = self.pending_tcp.remove(&seq) {
                    if let Some(s) = self.sessions.get_mut(&sid) {
                        if let Some(SocketBinding::Tcp { conn, .. }) = s.sockets.get(&sktid) {
                            stack.tcp_send(*conn, &data);
                            s.memory.record_send(tag, stack.clock());
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Periodic service: drain OS-socket data into capture buffers,
    /// harvest scheduled-send timestamps, satisfy pending polls.
    pub fn service(&mut self, stack: &mut dyn NetStack) -> Out {
        let mut out = Out::new();
        // Scheduled raw/UDP sends that actually left: record times.
        let send_log = stack.take_send_log();
        let now = stack.clock();
        // Detached sessions whose linger window lapsed without a resumption
        // tear down for real.
        let linger = self.config.session_linger_ns;
        let expired =
            self.sids(|s| s.detached_at.is_some_and(|t| now.saturating_sub(t) > linger));
        for sid in expired {
            if let Some(mut s) = self.sessions.remove(&sid) {
                self.teardown_sockets(&mut s, stack);
                self.detached -= 1;
                M_LINGERING.sub(1);
                plab_obs::obs_event!(plab_obs::Component::Endpoint, "session.expire", "sid" = sid);
                if self.active == Some(sid) {
                    self.active = None;
                    out.extend(self.resume_next_excluding(None));
                }
            }
        }
        for (stack_tag, time) in send_log {
            // Into the session that issued it and no other; a send whose
            // session has since closed has no reader left.
            let (owner, tag) = stack_tag_parts(stack_tag);
            if let Some(s) = self.sessions.values_mut().find(|s| s.owner == owner) {
                s.memory.record_send(tag, time);
            }
        }
        for sid in self.sids(|_| true) {
            let s = self.sessions.get_mut(&sid).unwrap();
            // Drain OS sockets into the capture buffer, respecting
            // capacity: when full we simply stop reading (§3.1 — this is
            // what creates TCP backpressure).
            for (&sktid, binding) in &s.sockets {
                match *binding {
                    SocketBinding::Tcp { conn, .. } => loop {
                        let space = s.capture.space();
                        if space == 0 || stack.tcp_readable(conn) == 0 {
                            break;
                        }
                        let data = stack.tcp_recv(conn, space.min(4096));
                        if data.is_empty() {
                            break;
                        }
                        s.capture.push(sktid, now, data);
                    },
                    SocketBinding::Udp { locport, .. } => {
                        if s.capture.space() > 0 {
                            for (t, _src, _sport, payload) in stack.take_udp(locport) {
                                s.capture.push(sktid, t, payload);
                            }
                        }
                    }
                    SocketBinding::Raw { .. } => {}
                }
            }
            s.memory.set_info("buffer.capacity", s.capture.capacity as u64);
            s.memory.set_info("buffer.used", s.capture.bytes as u64);
            Self::refresh_sockstat(s, stack);
            out.extend(Self::complete_poll_if_ready(s, now));
        }
        out
    }

    fn complete_poll_if_ready(s: &mut Session, _now: u64) -> Out {
        let mut out = Out::new();
        if s.detached_at.is_none() && s.pending_poll.is_some() && !s.capture.is_empty() {
            s.pending_poll = None;
            let (packets, dp, db) = s.capture.drain();
            let msg = s.poll_response(packets, dp, db);
            out.push((s.sid, msg));
        }
        out
    }

    /// Refresh the session's info block and return a stack-resident copy
    /// for adjudication (avoids a heap allocation on every nsend/nopen and
    /// every captured packet).
    fn info_snapshot(s: &mut Session, stack: &mut dyn NetStack) -> [u8; layout::INFO_SIZE] {
        Self::refresh_info(s, stack);
        s.memory.info().try_into().expect("info block is INFO_SIZE bytes")
    }

    fn refresh_info(s: &mut Session, stack: &mut dyn NetStack) {
        s.memory.set_info("clock", stack.clock());
        s.memory
            .set_info("addr.ip", u32::from(stack.local_addr()) as u64);
        s.memory
            .set_info("addr.ext_ip", u32::from(stack.external_addr()) as u64);
        s.memory.set_info("mtu", stack.mtu() as u64);
        let mut flags = 0u64;
        if stack.raw_supported() {
            flags |= layout::INFO_FLAG_RAW as u64;
        }
        if stack.external_addr() != stack.local_addr() {
            flags |= layout::INFO_FLAG_NAT as u64;
        }
        s.memory.set_info("flags", flags);
    }
}

fn err(code: ErrCode, msg: &str) -> Message {
    Message::Resp(Response::Err { code, msg: msg.to_string() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Credentials;
    use plab_crypto::Keypair;

    /// A canned [`NetStack`] recording agent interactions.
    struct MockStack {
        clock: u64,
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

    fn unit_credentials(restrictions: crate::cert::Restrictions, priority: u8) -> Credentials {
        let experimenter = Keypair::from_seed(&[42; 32]);
        Credentials::issue(
            &operator(),
            &experimenter,
            crate::descriptor::ExperimentDescriptor {
                name: "unit".into(),
                controller_addr: "10.0.9.1:7000".into(),
                info_url: String::new(),
                experimenter: plab_crypto::KeyHash::of(&experimenter.public),
            },
            restrictions,
            priority,
        )
    }

    /// `Hello` then `Auth` on a new session; what the agent answers the `Auth`.
    fn auth_attempt(
        agent: &mut EndpointAgent,
        stack: &mut MockStack,
        sid: u64,
        creds: &Credentials,
    ) -> Out {
        agent.on_session_open(sid);
        let out = agent.on_message(sid, Message::Hello { version: crate::PROTOCOL_VERSION }, stack);
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
            out.iter().any(|(s, m)| *s == sid && matches!(m, Message::AuthOk)),
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
            (read("endpoint.auth.sig_verified"), read("endpoint.auth.sig_memo_hits"))
        };
        let refusal = |out: Out| match &out[..] {
            [(_, Message::Resp(Response::Err { code: ErrCode::Auth, msg }))] => msg.clone(),
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
        assert_eq!(counters(), (3, 2), "both signatures remembered, the chain refused");

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

    fn cmd(agent: &mut EndpointAgent, stack: &mut MockStack, sid: u64, c: Command) -> Message {
        let out = agent.on_message(sid, Message::Cmd(c), stack);
        // Return the first direct response to this session.
        out.into_iter()
            .find(|(s, m)| *s == sid && matches!(m, Message::Resp(_)))
            .map(|(_, m)| m)
            .expect("command must produce a response")
    }

    #[test]
    fn command_before_auth_rejected() {
        let mut a = agent();
        let mut s = MockStack::new();
        a.on_session_open(1);
        let resp = cmd(&mut a, &mut s, 1, Command::NPoll { time: 0 });
        assert!(matches!(
            resp,
            Message::Resp(Response::Err { code: ErrCode::Auth, .. })
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
            Some((_, Message::Resp(Response::Err { code: ErrCode::Malformed, .. })))
        ));
    }

    #[test]
    fn auth_then_scheduled_raw_send() {
        let mut a = agent();
        let mut s = MockStack::new();
        authenticate(&mut a, &mut s, 1, 10);
        let resp = cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        assert!(matches!(resp, Message::Resp(Response::Ok)));
        let pkt = plab_packet::builder::icmp_echo_request(
            s.addr,
            Ipv4Addr::new(10, 0, 0, 9),
            64,
            1,
            1,
            &[],
        );
        let resp = cmd(&mut a, &mut s, 1, Command::NSend { sktid: 1, time: 5_000, data: pkt.clone() });
        let Message::Resp(Response::SendQueued { tag }) = resp else {
            panic!("{resp:?}");
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
        cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        let pkt = plab_packet::builder::icmp_echo_request(
            s.addr,
            Ipv4Addr::new(10, 0, 0, 9),
            64,
            1,
            1,
            &[],
        );
        let Message::Resp(Response::SendQueued { tag }) =
            cmd(&mut a, &mut s, 1, Command::NSend { sktid: 1, time: 0, data: pkt })
        else {
            panic!()
        };
        // The stack reports the actual transmit time; service() records it.
        s.send_log.push((s.raw_sends[0].2, 4_242));
        let _ = a.service(&mut s);
        let slot = crate::memory::EndpointMemory::sendlog_slot(tag);
        let resp = cmd(&mut a, &mut s, 1, Command::MRead {
            memaddr: slot,
            bytecnt: crate::memory::SENDLOG_ENTRY as u32,
        });
        let Message::Resp(Response::Mem { data }) = resp else { panic!() };
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
            let open =
                Command::NOpen { sktid: 1, proto: Proto::Raw, locport: 0, remaddr: 0, remport: 0 };
            cmd(&mut a, &mut s, sid, open);
            let resp = cmd(&mut a, &mut s, sid, Command::NSend { sktid: 1, time, data: pkt.clone() });
            assert!(matches!(resp, Message::Resp(Response::SendQueued { tag: 1 })), "{resp:?}");
        }
        // The stack reports each departure under the tag it was handed.
        for (sent, left) in [(1, 50), (0, 100)] {
            s.send_log.push((s.raw_sends[sent].2, left));
            let _ = a.service(&mut s);
        }
        for (sid, left) in [(1, 100), (2, 50)] {
            let slot = crate::memory::EndpointMemory::sendlog_slot(1);
            let entry = a.sessions[&sid].memory.read(slot, crate::memory::SENDLOG_ENTRY as u32);
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
        let out = a.on_message(1, Message::Cmd(Command::NPoll { time: 50_000 }), &mut s);
        assert!(out.is_empty(), "poll deferred: {out:?}");
        assert_eq!(s.wakeups.len(), 1);
        let (key, at) = s.wakeups[0];
        assert_eq!(at, 50_000);
        // Deadline passes; wakeup yields an empty poll.
        s.clock = 60_000;
        let out = a.on_wakeup(key, &mut s);
        assert!(matches!(
            out.first(),
            Some((1, Message::Resp(Response::Poll { packets, .. }))) if packets.is_empty()
        ));
    }

    #[test]
    fn captured_packet_completes_pending_poll() {
        let mut a = agent();
        let mut s = MockStack::new();
        authenticate(&mut a, &mut s, 1, 10);
        cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        let filt = plab_cpf::compile(
            "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }",
        )
        .unwrap()
        .encode();
        cmd(&mut a, &mut s, 1, Command::NCap { sktid: 1, time: u64::MAX, filt });
        // Outstanding poll...
        let out = a.on_message(1, Message::Cmd(Command::NPoll { time: u64::MAX }), &mut s);
        assert!(out.is_empty());
        // ...completed by an arriving packet.
        let pkt = plab_packet::builder::icmp_echo_reply(
            Ipv4Addr::new(10, 0, 0, 9),
            s.addr,
            1,
            1,
            b"data",
        );
        let (disposition, out) = a.on_packet(2_000, &pkt, &mut s);
        assert_eq!(disposition, plab_netsim::RawDisposition::Consume);
        let Some((1, Message::Resp(Response::Poll { packets, .. }))) = out.first() else {
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
        cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        // No ncap filter: default is capture-nothing, OS processes.
        let pkt = plab_packet::builder::icmp_echo_request(
            Ipv4Addr::new(10, 0, 0, 9),
            s.addr,
            64,
            1,
            1,
            &[],
        );
        let (disposition, out) = a.on_packet(2_000, &pkt, &mut s);
        assert_eq!(disposition, plab_netsim::RawDisposition::Ignore);
        assert!(out.is_empty());
    }

    #[test]
    fn mirror_entry_requests_mirror_disposition() {
        let mut a = agent();
        let mut s = MockStack::new();
        authenticate(&mut a, &mut s, 1, 10);
        cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        // Filter captures everything AND defines mirror() returning 1:
        // passive capture, OS still processes (telescope mode, §3.1).
        let filt = plab_cpf::compile(
            "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }
             uint32_t mirror(const union packet *pkt, uint32_t len) { return 1; }",
        )
        .unwrap()
        .encode();
        cmd(&mut a, &mut s, 1, Command::NCap { sktid: 1, time: u64::MAX, filt });
        let pkt = plab_packet::builder::icmp_echo_request(
            Ipv4Addr::new(10, 0, 0, 9),
            s.addr,
            64,
            1,
            1,
            &[],
        );
        let (disposition, _) = a.on_packet(2_000, &pkt, &mut s);
        assert_eq!(disposition, plab_netsim::RawDisposition::Mirror);
        assert_eq!(a.captured_packets, 1);
    }

    #[test]
    fn udp_nsend_builds_datagram_via_stack() {
        let mut a = agent();
        let mut s = MockStack::new();
        authenticate(&mut a, &mut s, 1, 10);
        cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 2,
            proto: Proto::Udp,
            locport: 5000,
            remaddr: u32::from(Ipv4Addr::new(10, 0, 0, 9)),
            remport: 53,
        });
        assert_eq!(s.bound_udp, vec![5000]);
        cmd(&mut a, &mut s, 1, Command::NSend { sktid: 2, time: 111, data: b"q".to_vec() });
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
        cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 2,
            proto: Proto::Udp,
            locport: 5000,
            remaddr: 0,
            remport: 53,
        });
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
        let ok = Message::Resp(Response::Ok);
        let filt = plab_cpf::compile(
            "uint32_t recv(const union packet *pkt, uint32_t len) { return len; }",
        )
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
                let ncap = Command::NCap { sktid, time: u64::MAX, filt: filt.clone() };
                assert_eq!(cmd(&mut a, &mut s, 2, ncap), ok);
            }
            let ports: Vec<u16> =
                (1..=2).flat_map(|sid| (1..=8).map(move |k| 4000 + 100 * sid + k)).collect();

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
            let Message::Resp(Response::Poll { packets, .. }) =
                cmd(&mut a, &mut s, 2, Command::NPoll { time: 0 })
            else {
                panic!("expected the captured copies");
            };
            let copies: Vec<u32> = packets.iter().map(|(sktid, _, _)| *sktid).collect();
            assert_eq!(copies, vec![20, 21, 22], "one copy per raw socket, by sktid");

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
        let out = a.on_message(3, Message::Hello { version: crate::PROTOCOL_VERSION }, &mut s);
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
        cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        let resp = cmd(&mut a, &mut s, 1, Command::NCap {
            sktid: 1,
            time: u64::MAX,
            filt: vec![1, 2, 3],
        });
        assert!(matches!(
            resp,
            Message::Resp(Response::Err { code: ErrCode::Malformed, .. })
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
        let out = a.on_message(1, Message::Hello { version: crate::PROTOCOL_VERSION }, &mut s);
        let Some((_, Message::HelloAck { nonce, .. })) = out.first() else { panic!() };
        let auth = creds.auth_message(nonce);
        let out = a.on_message(1, auth.clone(), &mut s);
        assert!(out.iter().any(|(_, m)| matches!(m, Message::AuthOk)));

        // Replay on session 2 (whose nonce is different: later clock).
        s.clock += 1;
        a.on_session_open(2);
        let _ = a.on_message(2, Message::Hello { version: crate::PROTOCOL_VERSION }, &mut s);
        let out = a.on_message(2, auth, &mut s);
        assert!(
            out.iter().any(|(sid, m)| *sid == 2
                && matches!(m, Message::Resp(Response::Err { code: ErrCode::Auth, .. }))),
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
        let open = Command::NOpen {
            sktid: 1,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        };
        let out = a.on_message(1, Message::CmdSeq { seq: 1, cmd: open.clone() }, &mut s);
        let first = out
            .into_iter()
            .find(|(sid, m)| *sid == 1 && matches!(m, Message::RespSeq { .. }))
            .expect("sequenced command answers with RespSeq")
            .1;
        assert!(
            matches!(&first, Message::RespSeq { seq: 1, resp: Response::Ok }),
            "{first:?}"
        );
        // The controller never saw the response and resends. Same answer —
        // not the conflict a re-execution would produce.
        let out = a.on_message(1, Message::CmdSeq { seq: 1, cmd: open }, &mut s);
        let replayed = out
            .into_iter()
            .find(|(sid, m)| *sid == 1 && matches!(m, Message::RespSeq { .. }))
            .expect("replay answers from the cache")
            .1;
        assert_eq!(format!("{first:?}"), format!("{replayed:?}"));
    }

    /// A sequence number evicted from the bounded replay cache cannot be
    /// answered twice: the endpoint refuses with a typed `Limit` error
    /// rather than re-executing a possibly-non-idempotent command.
    #[test]
    fn cmd_seq_evicted_from_cache_is_refused_not_reexecuted() {
        let mut a = agent();
        let mut s = MockStack::new();
        authenticate(&mut a, &mut s, 1, 10);
        // Fill the cache well past its bound with cheap commands.
        for seq in 1..=40u64 {
            let out = a.on_message(
                1,
                Message::CmdSeq { seq, cmd: Command::MRead { memaddr: 0, bytecnt: 1 } },
                &mut s,
            );
            assert!(out.iter().any(|(_, m)| matches!(m, Message::RespSeq { .. })));
        }
        // Seq 1 is long evicted.
        let out = a.on_message(
            1,
            Message::CmdSeq { seq: 1, cmd: Command::MRead { memaddr: 0, bytecnt: 1 } },
            &mut s,
        );
        assert!(
            out.iter().any(|(sid, m)| *sid == 1
                && matches!(
                    m,
                    Message::RespSeq { seq: 1, resp: Response::Err { code: ErrCode::Limit, .. } }
                )),
            "evicted seq must yield a typed Limit error: {out:?}"
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
        for seq in 1..=4u64 {
            let out = a.on_message(
                1,
                Message::CmdSeq { seq, cmd: Command::MRead { memaddr: 0, bytecnt: 1024 } },
                &mut s,
            );
            assert!(
                out.iter().any(|(_, m)| matches!(
                    m,
                    Message::RespSeq { resp: Response::Mem { .. }, .. }
                )),
                "big read succeeds: {out:?}"
            );
        }
        // The newest seq is still replayable from the cache.
        let out = a.on_message(
            1,
            Message::CmdSeq { seq: 4, cmd: Command::MRead { memaddr: 0, bytecnt: 1024 } },
            &mut s,
        );
        assert!(
            out.iter().any(|(_, m)| matches!(
                m,
                Message::RespSeq { seq: 4, resp: Response::Mem { .. } }
            )),
            "newest entry survives byte pressure: {out:?}"
        );
        // Seq 1 was evicted by byte pressure alone (4 entries ≤ 32): a
        // typed refusal, not a silent re-execution.
        let out = a.on_message(
            1,
            Message::CmdSeq { seq: 1, cmd: Command::MRead { memaddr: 0, bytecnt: 1024 } },
            &mut s,
        );
        assert!(
            out.iter().any(|(sid, m)| *sid == 1
                && matches!(
                    m,
                    Message::RespSeq { seq: 1, resp: Response::Err { code: ErrCode::Limit, .. } }
                )),
            "byte-evicted seq must yield a typed Limit error: {out:?}"
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
        let first = a.on_message(
            1,
            Message::CmdSeq { seq: 1, cmd: Command::MRead { memaddr: 0, bytecnt: 1024 } },
            &mut s,
        );
        let replayed = a.on_message(
            1,
            Message::CmdSeq { seq: 1, cmd: Command::MRead { memaddr: 0, bytecnt: 1024 } },
            &mut s,
        );
        assert_eq!(format!("{first:?}"), format!("{replayed:?}"));
        assert!(
            replayed.iter().any(|(_, m)| matches!(
                m,
                Message::RespSeq { seq: 1, resp: Response::Mem { .. } }
            )),
            "oversized newest entry replays from cache: {replayed:?}"
        );
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
        let resp = cmd(&mut a, &mut s, 1, Command::NOpen {
            sktid: 5,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        assert!(matches!(resp, Message::Resp(Response::Ok)));
        let resp = cmd(&mut a, &mut s, 1, Command::MWrite {
            memaddr: 0x40,
            data: vec![9, 8, 7],
        });
        assert!(matches!(resp, Message::Resp(Response::Ok)));

        // The control connection dies.
        let out = a.on_session_closed(1, &mut s);
        assert!(out.is_empty());
        assert_eq!(a.session_count(), 1, "session lingers, not torn down");

        // Reconnect under a fresh session id, same credentials.
        authenticate(&mut a, &mut s, 2, 10);
        assert_eq!(a.session_count(), 1, "detached session adopted, not duplicated");
        // Socket 5 still exists: reopening it conflicts.
        let resp = cmd(&mut a, &mut s, 2, Command::NOpen {
            sktid: 5,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        });
        assert!(
            matches!(resp, Message::Resp(Response::Err { .. })),
            "socket survived adoption: {resp:?}"
        );
        // Scratch memory survived too.
        let resp = cmd(&mut a, &mut s, 2, Command::MRead { memaddr: 0x40, bytecnt: 3 });
        let Message::Resp(Response::Mem { data }) = resp else {
            panic!("{resp:?}");
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
                let mark = Command::MWrite { memaddr: 0x40, data: vec![sid] };
                cmd(&mut a, &mut s, sid.into(), mark);
            }
            a.config.session_linger_ns = 1_000_000_000;
            a.on_session_closed(2, &mut s);
            a.on_session_closed(1, &mut s);
            assert_eq!(a.session_count(), 2, "both linger");

            for (sid, adopted) in [(3u8, 1u8), (4, 2)] {
                authenticate(&mut a, &mut s, sid.into(), sid);
                let read = Command::MRead { memaddr: 0x40, bytecnt: 1 };
                let resp = cmd(&mut a, &mut s, sid.into(), read);
                let Message::Resp(Response::Mem { data }) = resp else {
                    panic!("{resp:?}");
                };
                assert_eq!(data, vec![adopted], "round {round}: sid {sid} adopted the wrong session");
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
        cmd(&mut a, &mut s, 1, Command::MWrite { memaddr: 0x40, data: vec![7] });
        a.on_session_closed(1, &mut s);
        a.config.session_linger_ns = 0;
        assert_eq!(a.detached, 1);

        authenticate(&mut a, &mut s, 2, 10);
        let resp = cmd(&mut a, &mut s, 2, Command::MRead { memaddr: 0x40, bytecnt: 1 });
        assert_eq!(resp, Message::Resp(Response::Mem { data: vec![7] }));
        assert_eq!((a.session_count(), a.detached), (1, 0), "adopted, and none left to adopt");
        authenticate(&mut a, &mut s, 3, 10);
        assert_eq!(a.session_count(), 2, "with nothing detached a new session stands alone");
    }

    /// A detached session whose linger window passes is reclaimed by
    /// `service`: the next authentication starts from scratch.
    #[test]
    fn lingering_session_expires_after_window() {
        let mut a = lingering_agent(1_000);
        let mut s = MockStack::new();
        authenticate(&mut a, &mut s, 1, 10);
        cmd(&mut a, &mut s, 1, Command::MWrite { memaddr: 0x40, data: vec![1] });
        a.on_session_closed(1, &mut s);
        assert_eq!(a.session_count(), 1);

        // Linger window passes.
        s.clock += 10_000;
        let _ = a.service(&mut s);
        assert_eq!(a.session_count(), 0, "expired detached session reclaimed");

        // Fresh session: scratch memory is zeroed (default), not adopted.
        authenticate(&mut a, &mut s, 2, 10);
        let resp = cmd(&mut a, &mut s, 2, Command::MRead { memaddr: 0x40, bytecnt: 1 });
        let Message::Resp(Response::Mem { data }) = resp else {
            panic!("{resp:?}");
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
}
