//! What one control session owns: its sockets, capture buffer, memory,
//! outstanding poll and replay cache — everything a re-authentication
//! adopts and a teardown releases.

use super::{err, Phase, M_CAPTURED, M_CAP_DROP_BYTES, M_CAP_DROP_PKTS, M_REPLAY_HITS, M_REPLAY_MISSES};
use crate::memory::EndpointMemory;
use crate::monitor::MonitorSet;
use crate::netstack::NetStack;
use crate::wire::{ErrCode, Message, Response};
use plab_crypto::KeyHash;
use plab_filter::Vm;
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

/// One controller's socket.
// Raw sockets dominate the enum size because `Vm` carries its pre-decoded
// threaded code inline; boxing it would put an indirection on the per-packet
// adjudication path, and bindings are few (one per controller socket).
#[allow(clippy::large_enum_variant)]
pub(super) enum SocketBinding {
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

impl SocketBinding {
    /// Give back what the socket holds in the stack (`nclose`, teardown).
    pub(super) fn close(&self, stack: &mut dyn NetStack) {
        match *self {
            SocketBinding::Udp { locport, .. } => stack.udp_unbind(locport),
            SocketBinding::Tcp { conn, .. } => stack.tcp_close(conn),
            SocketBinding::Raw { .. } => {}
        }
    }
}

/// One captured packet: (socket id, capture time, payload).
pub(super) type CaptureEntry = (u32, u64, Vec<u8>);

/// Capture buffer with the §3.1 drop accounting.
pub(super) struct CaptureBuffer {
    entries: VecDeque<CaptureEntry>,
    pub(super) bytes: usize,
    pub(super) capacity: usize,
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

    pub(super) fn space(&self) -> usize {
        self.capacity.saturating_sub(self.bytes)
    }

    pub(super) fn push(&mut self, sktid: u32, time: u64, data: Vec<u8>) -> bool {
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

    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Entry-count backstop on the per-session replay cache; the operative
/// bound is [`super::EndpointConfig::replay_cache_bytes`] (a controller
/// replays at most its in-flight window, which is far smaller than either).
pub(super) const REPLAY_CACHE: usize = 32;

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

pub(super) struct Session {
    pub(super) sid: u64,
    /// Which `Session` object this is, unique within the agent. Unlike
    /// `sid` it stays with the object when a re-authentication adopts it,
    /// so a send scheduled before the adoption still finds its way home
    /// (see [`super::ops::stack_tag`]).
    pub(super) owner: u32,
    /// Written by the handshake arms of `on_message`, `handle_auth`,
    /// `contend` and `release`, and nowhere else.
    pub(super) phase: Phase,
    pub(super) priority: u8,
    pub(super) monitors: MonitorSet,
    pub(super) memory: EndpointMemory,
    /// By sktid, ascending: sockets are drained, offered packets and torn
    /// down in that order on every run.
    pub(super) sockets: BTreeMap<u32, SocketBinding>,
    pub(super) capture: CaptureBuffer,
    /// The outstanding `npoll`: its deadline (endpoint clock ns) and its
    /// sequence number. One at a time: the next `npoll` completes this
    /// one first.
    pub(super) pending_poll: Option<(u64, u64)>,
    pub(super) next_tag: u64,
    /// Identity for session resumption: (leaf signer, descriptor hash).
    /// A reconnecting controller that re-authenticates with the same
    /// experiment adopts this session's state.
    pub(super) experiment_id: Option<(KeyHash, [u8; 32])>,
    /// Highest sequence number executed.
    pub(super) last_seq: u64,
    /// Recent (seq, cost, response) entries for idempotent replay.
    replay: VecDeque<(u64, usize, Response)>,
    /// Sum of the cached entries' `resp_cost`.
    replay_bytes: usize,
    /// Byte budget for `replay` (from [`super::EndpointConfig::replay_cache_bytes`]).
    replay_budget: usize,
}

impl Session {
    pub(super) fn new(sid: u64, owner: u32, default_buffer: usize, replay_budget: usize) -> Self {
        Session {
            sid,
            owner,
            phase: Phase::New,
            priority: 0,
            monitors: MonitorSet::unrestricted(),
            memory: EndpointMemory::new(),
            sockets: BTreeMap::new(),
            capture: CaptureBuffer::new(default_buffer),
            pending_poll: None,
            next_tag: 1,
            experiment_id: None,
            last_seq: 0,
            replay: VecDeque::new(),
            replay_bytes: 0,
            replay_budget,
        }
    }

    /// The frame that answers command `seq`, its response cached so that
    /// a controller that lost the connection before reading it can replay
    /// the same `seq` after reconnecting and get the identical answer.
    pub(super) fn answer(&mut self, seq: u64, resp: Response) -> Message {
        let cost = resp_cost(&resp);
        // Evict oldest-first until the new entry fits both bounds, before
        // caching it, so the ring never grows past `REPLAY_CACHE` slots.
        // The entry being cached is always kept: the controller's most
        // recent command must stay replayable even when one response alone
        // exceeds the budget.
        while self.replay.len() >= REPLAY_CACHE || self.replay_bytes + cost > self.replay_budget {
            let Some((_, c, _)) = self.replay.pop_front() else { break };
            self.replay_bytes -= c;
        }
        self.replay_bytes += cost;
        self.replay.push_back((seq, cost, resp.clone()));
        Message::RespSeq { seq, resp }
    }

    /// What a `CmdSeq` at or below `last_seq` gets, without running again
    /// (idempotence across reconnects): its cached answer; nothing while it
    /// is the pending poll, whose answer comes when the deadline passes or
    /// data shows up; a typed `Limit` once the bounded cache has evicted it.
    pub(super) fn replay(&self, seq: u64) -> Option<Message> {
        if let Some((_, _, resp)) = self.replay.iter().find(|(q, _, _)| *q == seq) {
            M_REPLAY_HITS.inc();
            plab_obs::obs_event!(
                plab_obs::Component::Endpoint,
                "replay.hit",
                "sid" = self.sid,
                "seq" = seq
            );
            return Some(Message::RespSeq { seq, resp: resp.clone() });
        }
        if self.pending_poll.is_some_and(|(_, polled)| polled == seq) {
            return None;
        }
        M_REPLAY_MISSES.inc();
        plab_obs::obs_event!(
            plab_obs::Component::Endpoint,
            "replay.miss",
            "sid" = self.sid,
            "seq" = seq
        );
        let resp = err(ErrCode::Limit, "response no longer cached");
        Some(Message::RespSeq { seq, resp })
    }

    /// Complete the pending poll, if there is one, with whatever is
    /// buffered. When to is the caller's: the `npoll` itself (data already
    /// there, deadline already past, or a newer `npoll` taking the slot), a
    /// captured packet, the deadline's wakeup, a `service` pass. A detached
    /// session holds its poll (and its captured data) until it is adopted —
    /// draining now would ship the response into a dead connection.
    pub(super) fn finish_poll(&mut self) -> Option<Message> {
        if let Phase::Detached { .. } = self.phase {
            return None;
        }
        let (_, seq) = self.pending_poll.take()?;
        let (packets, dropped_packets, dropped_bytes) = self.capture.drain();
        Some(self.answer(seq, Response::Poll { packets, dropped_packets, dropped_bytes }))
    }
}

#[cfg(test)]
impl Session {
    /// The replay ring and its byte count, for the cache's unit tests.
    pub(super) fn replay_ring(&self) -> (&VecDeque<(u64, usize, Response)>, usize) {
        (&self.replay, self.replay_bytes)
    }
}
