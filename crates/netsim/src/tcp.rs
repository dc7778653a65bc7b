//! A small reliable TCP for simulated hosts.
//!
//! Implements what PacketLab needs from TCP and nothing more: three-way
//! handshake, ordered reliable delivery with cumulative ACKs and
//! timeout-based retransmission, receive-window flow control, zero-window
//! probing, FIN teardown, and RST on unmatched segments. Flow control is
//! the load-bearing feature: §3.1 specifies that when an endpoint's capture
//! buffers fill, it "simply stops reading (and buffering) experiment data —
//! for TCP sockets, this will create flow control back pressure".
//!
//! Deliberate simplifications (fine for a deterministic simulator with
//! FIFO links): no congestion control, no out-of-order reassembly (FIFO
//! links cannot reorder; losses are repaired by retransmission), no
//! simultaneous open, fixed MSS, no TIME_WAIT.

use crate::pool::{BufPool, Frame};
use crate::time::{SimTime, MILLISECOND};
use fxhash::FxHashMap;
use plab_packet::ipv4::Ipv4Header;
use plab_packet::tcp::{flags, TcpHeader};
use plab_packet::{proto, tcp as tcpcodec};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Maximum segment payload.
pub const MSS: usize = 1400;
/// Initial retransmission timeout.
pub const INITIAL_RTO: SimTime = 200 * MILLISECOND;
/// Retransmission attempts before the connection is reset.
pub const MAX_RETRIES: u32 = 8;
/// Default receive buffer capacity.
pub const DEFAULT_RECV_CAPACITY: usize = 64 * 1024;

/// Connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// SYN sent, awaiting SYN|ACK.
    SynSent,
    /// SYN received on a listener, SYN|ACK sent.
    SynRcvd,
    /// Data may flow.
    Established,
    /// We closed first; FIN sent, not yet acked.
    FinWait1,
    /// Our FIN acked; awaiting peer FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We closed after CloseWait; FIN sent.
    LastAck,
    /// Fully closed.
    Closed,
    /// Aborted (RST or retry exhaustion).
    Reset,
}

/// Segments and timer requests produced by TCP operations. The simulator
/// owns one, routes `segments` and schedules `ticks` after every call,
/// draining both so their capacity serves the next call.
#[derive(Debug)]
pub struct TcpOut {
    /// Where each segment's frame comes from.
    pool: BufPool,
    /// Complete IPv4 datagrams to inject, each built once in its frame.
    pub segments: Vec<Frame>,
    /// (fire time, connection id) retransmission ticks to schedule.
    pub ticks: Vec<(SimTime, u64)>,
}

impl TcpOut {
    /// Empty lists whose segments are built in frames from `pool`.
    pub fn new(pool: BufPool) -> TcpOut {
        TcpOut {
            pool,
            segments: Vec::new(),
            ticks: Vec::new(),
        }
    }

    /// Build one datagram, `payload` the concatenation of its parts, in a
    /// pooled frame.
    fn push(&mut self, src: Ipv4Addr, dst: Ipv4Addr, tcp: TcpHeader, payload: &[&[u8]]) {
        let mut frame = self.pool.take();
        Ipv4Header::new(src, dst, proto::TCP)
            .build_with(frame.make_mut(), |b| tcp.emit(b, src, dst, payload));
        self.segments.push(frame);
    }
}

/// One connection.
#[derive(Clone)]
pub struct Conn {
    /// Current state.
    pub state: TcpState,
    local_ip: Ipv4Addr,
    local_port: u16,
    remote_ip: Ipv4Addr,
    remote_port: u16,
    /// Oldest unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to send.
    snd_nxt: u32,
    /// Unacknowledged + unsent payload bytes, starting at `snd_una`
    /// (excluding SYN/FIN sequence slots).
    send_buf: VecDeque<u8>,
    /// Next sequence number expected from the peer.
    rcv_nxt: u32,
    /// Received, in-order, undelivered payload.
    recv_buf: VecDeque<u8>,
    /// Receive buffer capacity (advertised window = capacity - buffered).
    pub recv_capacity: usize,
    /// Peer's advertised window.
    peer_window: u32,
    rto: SimTime,
    retries: u32,
    /// Cumulative RTO retransmission events (never reset; the TCP_INFO-style
    /// loss signal surfaced through the endpoint's socket-state table).
    retrans: u32,
    tick_armed: bool,
    /// Close requested: emit FIN once send_buf drains.
    fin_queued: bool,
    /// Our FIN occupies sequence slot snd_nxt-1 once sent.
    fin_sent: bool,
    /// Peer's FIN has been received.
    peer_fin: bool,
}

fn seq_ge(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) >= 0
}

fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}

impl Conn {
    /// Advertised receive window. `recv_buf` can legitimately exceed
    /// `recv_capacity` after a capacity shrink (the buffered bytes were
    /// accepted under the old capacity), so the subtraction saturates:
    /// the window closes to zero instead of underflowing.
    fn window(&self) -> u16 {
        self.recv_capacity
            .saturating_sub(self.recv_buf.len())
            .min(u16::MAX as usize) as u16
    }

    /// Bytes in flight (sequence space consumed beyond snd_una).
    fn inflight(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Payload bytes not yet transmitted.
    fn unsent(&self) -> usize {
        // send_buf covers [snd_una, snd_una + len); transmitted payload is
        // inflight minus any SYN/FIN slots currently in flight.
        let mut seq_used = self.inflight() as usize;
        if self.state == TcpState::SynSent || self.state == TcpState::SynRcvd {
            seq_used = seq_used.saturating_sub(1); // SYN slot
        }
        if self.fin_sent {
            seq_used = seq_used.saturating_sub(1); // FIN slot
        }
        self.send_buf.len().saturating_sub(seq_used)
    }

    fn header(&self, flags: u8, seq: u32) -> TcpHeader {
        TcpHeader {
            src_port: self.local_port,
            dst_port: self.remote_port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: self.window(),
        }
    }

    /// Emit a segment carrying send-ring bytes `[off, off + len)`
    /// (clamped to the ring), read straight from the ring's two halves.
    fn emit(&self, out: &mut TcpOut, flags: u8, seq: u32, off: usize, len: usize) {
        let (head, tail) = self.send_buf.as_slices();
        let end = (off + len).min(self.send_buf.len());
        let (off, h) = (off.min(end), head.len());
        let payload = [
            &head[off.min(h)..end.min(h)],
            &tail[off.saturating_sub(h)..end.saturating_sub(h)],
        ];
        let header = self.header(flags, seq);
        out.push(self.local_ip, self.remote_ip, header, &payload);
    }
}

/// Per-host TCP state: connections, listeners, port allocation.
#[derive(Clone)]
pub struct TcpHost {
    conns: FxHashMap<u64, Conn>,
    listeners: FxHashMap<u16, VecDeque<u64>>,
    next_conn: u64,
    next_port: u16,
    iss: u32,
}

impl Default for TcpHost {
    fn default() -> Self {
        TcpHost {
            conns: FxHashMap::default(),
            listeners: FxHashMap::default(),
            next_conn: 1,
            next_port: 40_000,
            iss: 1_000,
        }
    }
}

impl TcpHost {
    fn alloc_conn(&mut self, conn: Conn) -> u64 {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, conn);
        id
    }

    fn next_iss(&mut self) -> u32 {
        self.iss = self.iss.wrapping_add(0x0001_0000);
        self.iss
    }

    /// Begin listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.entry(port).or_default();
    }

    /// Pop an established connection from `port`'s accept queue.
    pub fn accept(&mut self, port: u16) -> Option<u64> {
        self.listeners.get_mut(&port)?.pop_front()
    }

    /// Does `port`'s accept queue hold a connection?
    pub fn acceptable(&self, port: u16) -> bool {
        self.listeners.get(&port).is_some_and(|q| !q.is_empty())
    }

    /// Silently discard every connection (and queued accepts), keeping
    /// listening ports. Models a transport-layer fault — e.g. a middlebox
    /// flushing its state table — as opposed to a host crash: the
    /// application above survives with its state intact and peers learn of
    /// the loss via RSTs to their next segment.
    pub fn reset_conns(&mut self) {
        self.conns.clear();
        for queue in self.listeners.values_mut() {
            queue.clear();
        }
    }

    /// Open a connection to `remote`; returns the id and the SYN to send.
    pub fn connect(
        &mut self,
        now: SimTime,
        local_ip: Ipv4Addr,
        local_port: Option<u16>,
        remote_ip: Ipv4Addr,
        remote_port: u16,
        out: &mut TcpOut,
    ) -> u64 {
        let port = local_port.unwrap_or_else(|| {
            let p = self.next_port;
            self.next_port = self.next_port.wrapping_add(1).max(40_000);
            p
        });
        let iss = self.next_iss();
        let conn = Conn {
            state: TcpState::SynSent,
            local_ip,
            local_port: port,
            remote_ip,
            remote_port,
            snd_una: iss,
            snd_nxt: iss.wrapping_add(1),
            send_buf: VecDeque::new(),
            rcv_nxt: 0,
            recv_buf: VecDeque::new(),
            recv_capacity: DEFAULT_RECV_CAPACITY,
            peer_window: 0,
            rto: INITIAL_RTO,
            retries: 0,
            retrans: 0,
            tick_armed: false,
            fin_queued: false,
            fin_sent: false,
            peer_fin: false,
        };
        let id = self.alloc_conn(conn);
        let c = self.conns.get_mut(&id).unwrap();
        c.emit(out, flags::SYN, iss, 0, 0);
        arm(c, id, now, out);
        id
    }

    /// Queue `data` for transmission.
    pub fn send(&mut self, now: SimTime, id: u64, data: &[u8], out: &mut TcpOut) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        if matches!(c.state, TcpState::Closed | TcpState::Reset) || c.fin_queued {
            return;
        }
        c.send_buf.extend(data);
        Self::pump_send(c, id, now, out);
    }

    /// Resize a connection's receive buffer capacity. Growing it widens
    /// the advertised window on the next segment we emit (there is no
    /// unsolicited window update — fine for bulk flows, which ack
    /// constantly). Shrinking below the currently buffered bytes is legal:
    /// the window saturates at zero until the application drains the
    /// excess.
    pub fn set_recv_capacity(&mut self, id: u64, capacity: usize) {
        if let Some(c) = self.conns.get_mut(&id) {
            c.recv_capacity = capacity;
        }
    }

    /// Bytes queued but not yet acknowledged (for backpressure-aware callers).
    pub fn send_backlog(&self, id: u64) -> usize {
        self.conns.get(&id).map(|c| c.send_buf.len()).unwrap_or(0)
    }

    /// The peer's advertised receive window, as last heard. This is the
    /// sender-side view of the receiver's flow-control state — what a
    /// NextRouter-style bandwidth estimator watches to tell
    /// "path-limited" from "window-limited" transfers.
    pub fn peer_window(&self, id: u64) -> u32 {
        self.conns.get(&id).map(|c| c.peer_window).unwrap_or(0)
    }

    /// Cumulative RTO retransmissions on this connection (TCP_INFO
    /// `tcpi_total_retrans` analog). A bulk probe whose retransmit count
    /// climbs is loss-limited, not path-limited — its throughput is not a
    /// bandwidth estimate.
    pub fn retrans(&self, id: u64) -> u32 {
        self.conns.get(&id).map(|c| c.retrans).unwrap_or(0)
    }

    /// Bytes available to read.
    pub fn readable(&self, id: u64) -> usize {
        self.conns.get(&id).map(|c| c.recv_buf.len()).unwrap_or(0)
    }

    /// True once the handshake completed.
    pub fn is_established(&self, id: u64) -> bool {
        self.conns
            .get(&id)
            .map(|c| {
                matches!(
                    c.state,
                    TcpState::Established
                        | TcpState::FinWait1
                        | TcpState::FinWait2
                        | TcpState::CloseWait
                )
            })
            .unwrap_or(false)
    }

    /// True if the connection is dead (closed, reset, or peer closed and
    /// drained).
    pub fn is_closed(&self, id: u64) -> bool {
        self.conns
            .get(&id)
            .map(|c| matches!(c.state, TcpState::Closed | TcpState::Reset))
            .unwrap_or(true)
    }

    /// Peer sent FIN and everything they sent has been read.
    pub fn peer_done(&self, id: u64) -> bool {
        self.conns
            .get(&id)
            .map(|c| c.peer_fin && c.recv_buf.is_empty())
            .unwrap_or(true)
    }

    /// Read up to `max` bytes. May emit a window-update ACK.
    pub fn recv(&mut self, id: u64, max: usize, out: &mut TcpOut) -> Vec<u8> {
        let Some(c) = self.conns.get_mut(&id) else {
            return Vec::new();
        };
        let was_zero = c.window() == 0;
        let n = max.min(c.recv_buf.len());
        // Whole-slice copies of the ring's halves: sinks drain bulk flows here.
        let (head, tail) = c.recv_buf.as_slices();
        let data = [
            &head[..n.min(head.len())],
            &tail[..n.saturating_sub(head.len())],
        ]
        .concat();
        c.recv_buf.drain(..n);
        if was_zero && c.window() > 0 && !matches!(c.state, TcpState::Closed | TcpState::Reset) {
            // Window reopened: tell the peer.
            c.emit(out, flags::ACK, c.snd_nxt, 0, 0);
        }
        data
    }

    /// Request graceful close; FIN goes out once queued data drains.
    pub fn close(&mut self, now: SimTime, id: u64, out: &mut TcpOut) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        if matches!(c.state, TcpState::Closed | TcpState::Reset) || c.fin_queued {
            return;
        }
        c.fin_queued = true;
        Self::pump_send(c, id, now, out);
    }

    /// Handle an incoming segment addressed to this host.
    pub fn on_segment(
        &mut self,
        now: SimTime,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        segment: &[u8],
        out: &mut TcpOut,
    ) {
        let Ok(seg) = tcpcodec::parse(src_ip, dst_ip, segment) else {
            return;
        };
        let h = seg.header;
        // Find the matching connection.
        let conn_id = self
            .conns
            .iter()
            .find(|(_, c)| {
                c.local_port == h.dst_port
                    && c.remote_port == h.src_port
                    && c.remote_ip == src_ip
                    && !matches!(c.state, TcpState::Closed | TcpState::Reset)
            })
            .map(|(id, _)| *id);

        let Some(id) = conn_id else {
            // New connection to a listener?
            if h.flags & flags::SYN != 0
                && h.flags & flags::ACK == 0
                && self.listeners.contains_key(&h.dst_port)
            {
                let iss = self.next_iss();
                let conn = Conn {
                    state: TcpState::SynRcvd,
                    local_ip: dst_ip,
                    local_port: h.dst_port,
                    remote_ip: src_ip,
                    remote_port: h.src_port,
                    snd_una: iss,
                    snd_nxt: iss.wrapping_add(1),
                    send_buf: VecDeque::new(),
                    rcv_nxt: h.seq.wrapping_add(1),
                    recv_buf: VecDeque::new(),
                    recv_capacity: DEFAULT_RECV_CAPACITY,
                    peer_window: h.window as u32,
                    rto: INITIAL_RTO,
                    retries: 0,
                    retrans: 0,
                    tick_armed: false,
                    fin_queued: false,
                    fin_sent: false,
                    peer_fin: false,
                };
                let id = self.alloc_conn(conn);
                let c = self.conns.get_mut(&id).unwrap();
                c.emit(out, flags::SYN | flags::ACK, iss, 0, 0);
                arm(c, id, now, out);
                return;
            }
            // No listener / no connection: RST (the §3.1 interference that
            // raw-socket experiments must suppress with `consume`).
            if h.flags & flags::RST == 0 {
                let rst = TcpHeader {
                    src_port: h.dst_port,
                    dst_port: h.src_port,
                    seq: h.ack,
                    ack: h.seq.wrapping_add(seg.payload.len() as u32 + 1),
                    flags: flags::RST | flags::ACK,
                    window: 0,
                };
                out.push(dst_ip, src_ip, rst, &[]);
            }
            return;
        };

        let mut established_now = false;
        {
            let c = self.conns.get_mut(&id).unwrap();
            if h.flags & flags::RST != 0 {
                c.state = TcpState::Reset;
                c.send_buf.clear();
                return;
            }

            match c.state {
                TcpState::SynSent => {
                    if h.flags & (flags::SYN | flags::ACK) == flags::SYN | flags::ACK
                        && h.ack == c.snd_nxt
                    {
                        c.snd_una = h.ack;
                        c.rcv_nxt = h.seq.wrapping_add(1);
                        c.peer_window = h.window as u32;
                        c.state = TcpState::Established;
                        c.retries = 0;
                        c.rto = INITIAL_RTO;
                        c.emit(out, flags::ACK, c.snd_nxt, 0, 0);
                        Self::pump_send(c, id, now, out);
                    }
                    return;
                }
                TcpState::SynRcvd => {
                    if h.flags & flags::ACK != 0 && h.ack == c.snd_nxt {
                        c.snd_una = h.ack;
                        c.peer_window = h.window as u32;
                        c.state = TcpState::Established;
                        c.retries = 0;
                        established_now = true;
                        // Fall through to normal processing for any data.
                    } else {
                        return;
                    }
                }
                TcpState::Closed | TcpState::Reset => return,
                _ => {}
            }

            // ACK processing.
            if h.flags & flags::ACK != 0 && seq_gt(h.ack, c.snd_una) && seq_ge(c.snd_nxt, h.ack) {
                let mut acked = h.ack.wrapping_sub(c.snd_una) as usize;
                // FIN slot ack?
                if c.fin_sent && h.ack == c.snd_nxt {
                    acked = acked.saturating_sub(1);
                    match c.state {
                        TcpState::FinWait1 => {
                            c.state = if c.peer_fin {
                                TcpState::Closed
                            } else {
                                TcpState::FinWait2
                            }
                        }
                        TcpState::LastAck => c.state = TcpState::Closed,
                        _ => {}
                    }
                }
                let drain = acked.min(c.send_buf.len());
                c.send_buf.drain(..drain);
                c.snd_una = h.ack;
                c.retries = 0;
                c.rto = INITIAL_RTO;
            }
            if h.flags & flags::ACK != 0 {
                let had_window = c.peer_window > 0;
                c.peer_window = h.window as u32;
                // A zero-window probe consumed one sequence slot but was
                // rejected (the ack still names snd_una). When the window
                // reopens, reclaim that slot immediately: otherwise
                // pump_send would emit new data beyond the rejected byte,
                // leaving a hole that only the backed-off retransmission
                // timer repairs.
                if !had_window
                    && c.peer_window > 0
                    && h.ack == c.snd_una
                    && c.inflight() == 1
                    && !c.fin_sent
                {
                    c.snd_nxt = c.snd_una;
                    c.retries = 0;
                    c.rto = INITIAL_RTO;
                }
            }

            // Data processing (in-order only; FIFO links don't reorder).
            let mut should_ack = false;
            if !seg.payload.is_empty() {
                if h.seq == c.rcv_nxt && c.recv_buf.len() + seg.payload.len() <= c.recv_capacity {
                    c.recv_buf.extend(seg.payload);
                    c.rcv_nxt = c.rcv_nxt.wrapping_add(seg.payload.len() as u32);
                }
                // Always ack what we have (dup-ack for gaps/overflow).
                should_ack = true;
            }

            // FIN processing.
            let fin_seq = h.seq.wrapping_add(seg.payload.len() as u32);
            if h.flags & flags::FIN != 0 && fin_seq == c.rcv_nxt && !c.peer_fin {
                c.peer_fin = true;
                c.rcv_nxt = c.rcv_nxt.wrapping_add(1);
                match c.state {
                    TcpState::Established => c.state = TcpState::CloseWait,
                    TcpState::FinWait1 => c.state = TcpState::FinWait1, // wait our ack
                    TcpState::FinWait2 => c.state = TcpState::Closed,
                    _ => {}
                }
                should_ack = true;
            }

            if should_ack {
                c.emit(out, flags::ACK, c.snd_nxt, 0, 0);
            }

            // Window may have opened: push more data / FIN.
            Self::pump_send(c, id, now, out);
        }
        if established_now {
            // Queue on the listener's accept queue.
            let port = self.conns[&id].local_port;
            if let Some(q) = self.listeners.get_mut(&port) {
                q.push_back(id);
            }
        }
    }

    /// Retransmission timer fired for `id`.
    pub fn tick(&mut self, now: SimTime, id: u64, out: &mut TcpOut) {
        let Some(c) = self.conns.get_mut(&id) else {
            return;
        };
        c.tick_armed = false;
        if matches!(c.state, TcpState::Closed | TcpState::Reset) {
            return;
        }
        let has_unacked = c.inflight() > 0;
        let stalled = c.unsent() > 0 && c.peer_window == 0;
        if !has_unacked && !stalled {
            return;
        }
        c.retries += 1;
        if has_unacked {
            c.retrans = c.retrans.saturating_add(1);
        }
        if c.retries > MAX_RETRIES {
            c.state = TcpState::Reset;
            c.send_buf.clear();
            return;
        }
        c.rto = c.rto.saturating_mul(2);
        match c.state {
            TcpState::SynSent => {
                c.emit(out, flags::SYN, c.snd_una, 0, 0);
            }
            TcpState::SynRcvd => {
                c.emit(out, flags::SYN | flags::ACK, c.snd_una, 0, 0);
            }
            _ => {
                if has_unacked {
                    // Retransmit the first unacked chunk.
                    let payload_inflight = {
                        let mut v = c.inflight() as usize;
                        if c.fin_sent {
                            v = v.saturating_sub(1);
                        }
                        v
                    };
                    if payload_inflight > 0 {
                        let len = payload_inflight.min(MSS);
                        c.emit(out, flags::ACK | flags::PSH, c.snd_una, 0, len);
                    } else if c.fin_sent {
                        // Retransmit FIN.
                        c.emit(
                            out,
                            flags::FIN | flags::ACK,
                            c.snd_nxt.wrapping_sub(1),
                            0,
                            0,
                        );
                    }
                } else if stalled {
                    // Zero-window probe: push one byte past the window. It
                    // consumes sequence space; if the receiver still has no
                    // room it ignores the byte and the next tick
                    // retransmits it from snd_una.
                    let seq = c.snd_nxt;
                    c.snd_nxt = c.snd_nxt.wrapping_add(1);
                    c.emit(out, flags::ACK, seq, 0, 1);
                }
            }
        }
        arm(c, id, now, out);
    }

    /// Transmit whatever the window and MSS allow.
    fn pump_send(c: &mut Conn, id: u64, now: SimTime, out: &mut TcpOut) {
        if !matches!(
            c.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
        ) {
            return;
        }
        loop {
            let unsent = c.unsent();
            let window_left = (c.peer_window as usize).saturating_sub(c.inflight() as usize);
            let len = unsent.min(window_left).min(MSS);
            if len == 0 {
                break;
            }
            let offset = c.send_buf.len() - unsent;
            let seq = c.snd_nxt;
            c.snd_nxt = c.snd_nxt.wrapping_add(len as u32);
            c.emit(out, flags::ACK | flags::PSH, seq, offset, len);
        }
        // FIN once everything is out.
        if c.fin_queued && !c.fin_sent && c.unsent() == 0 && c.state != TcpState::FinWait1 {
            let seq = c.snd_nxt;
            c.snd_nxt = c.snd_nxt.wrapping_add(1);
            c.fin_sent = true;
            c.state = match c.state {
                TcpState::CloseWait => TcpState::LastAck,
                _ => TcpState::FinWait1,
            };
            c.emit(out, flags::FIN | flags::ACK, seq, 0, 0);
        }
        if c.inflight() > 0 && !c.tick_armed {
            arm(c, id, now, out);
        }
    }
}

fn arm(c: &mut Conn, id: u64, now: SimTime, out: &mut TcpOut) {
    c.tick_armed = true;
    out.ticks.push((now + c.rto, id));
}

#[cfg(test)]
mod tests {
    use super::*;
    use plab_packet::builder;
    use plab_packet::ipv4::Ipv4View;
    use proptest::prelude::*;

    fn a() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn b() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }

    /// The segments one TCP call emits.
    fn segs(call: impl FnOnce(&mut TcpOut)) -> Vec<Frame> {
        let mut out = TcpOut::new(BufPool::new());
        call(&mut out);
        out.segments
    }

    /// Read up to `max` bytes, and the segments the read emits.
    fn recv(h: &mut TcpHost, id: u64, max: usize) -> (Vec<u8>, Vec<Frame>) {
        let mut data = Vec::new();
        let out = segs(|o| data = h.recv(id, max, o));
        (data, out)
    }

    /// Deliver datagrams produced by one side to the other, returning the
    /// responses. Loops until both sides are quiescent.
    fn exchange(
        ha: &mut TcpHost,
        hb: &mut TcpHost,
        mut from_a: Vec<Frame>,
        mut from_b: Vec<Frame>,
        now: SimTime,
    ) {
        let mut steps = 0;
        while !from_a.is_empty() || !from_b.is_empty() {
            steps += 1;
            assert!(steps < 200, "tcp exchange did not quiesce");
            let mut next_a = Vec::new();
            let mut next_b = Vec::new();
            for pkt in from_a.drain(..) {
                let view = Ipv4View::new(&pkt).unwrap();
                next_b.extend(segs(|o| {
                    hb.on_segment(now, view.src(), view.dst(), view.payload(), o)
                }));
            }
            for pkt in from_b.drain(..) {
                let view = Ipv4View::new(&pkt).unwrap();
                next_a.extend(segs(|o| {
                    ha.on_segment(now, view.src(), view.dst(), view.payload(), o)
                }));
            }
            from_a = next_a;
            from_b = next_b;
        }
    }

    fn connected_pair() -> (TcpHost, TcpHost, u64, u64) {
        let mut ha = TcpHost::default();
        let mut hb = TcpHost::default();
        hb.listen(80);
        let mut ca = 0;
        let syn = segs(|o| ca = ha.connect(0, a(), None, b(), 80, o));
        exchange(&mut ha, &mut hb, syn, vec![], 0);
        let cb = hb.accept(80).expect("accepted");
        assert!(ha.is_established(ca));
        assert!(hb.is_established(cb));
        (ha, hb, ca, cb)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (_, _, _, _) = connected_pair();
    }

    #[test]
    fn data_flows_both_ways() {
        let (mut ha, mut hb, ca, cb) = connected_pair();
        let out = segs(|o| ha.send(1, ca, b"hello from a", o));
        exchange(&mut ha, &mut hb, out, vec![], 1);
        let (data, _) = recv(&mut hb, cb, 1024);
        assert_eq!(data, b"hello from a");

        let out = segs(|o| hb.send(2, cb, b"hi from b", o));
        exchange(&mut ha, &mut hb, vec![], out, 2);
        let (data, _) = recv(&mut ha, ca, 1024);
        assert_eq!(data, b"hi from b");
    }

    #[test]
    fn large_transfer_segments_and_reassembles() {
        let (mut ha, mut hb, ca, cb) = connected_pair();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        // Receiver window is 64 KiB; send in chunks, draining as we go.
        let mut received = Vec::new();
        let mut offset = 0;
        while received.len() < payload.len() {
            if offset < payload.len() {
                let chunk = &payload[offset..(offset + 8192).min(payload.len())];
                offset += chunk.len();
                let out = segs(|o| ha.send(1, ca, chunk, o));
                exchange(&mut ha, &mut hb, out, vec![], 1);
            }
            let (data, ack_out) = recv(&mut hb, cb, usize::MAX);
            received.extend(data);
            exchange(&mut ha, &mut hb, vec![], ack_out, 1);
        }
        assert_eq!(received, payload);
    }

    #[test]
    fn window_survives_capacity_shrink_below_buffered() {
        // Regression: window() computed `recv_capacity - recv_buf.len()`
        // with bare subtraction, which panics in debug builds the moment
        // the buffer exceeds capacity — exactly what a capacity shrink
        // under buffered data produces.
        let (mut ha, mut hb, ca, cb) = connected_pair();
        let out = segs(|o| ha.send(1, ca, &vec![0x5a; 8192], o));
        exchange(&mut ha, &mut hb, out, vec![], 1);
        assert_eq!(hb.readable(cb), 8192);
        // Shrink b's capacity far below what it already buffered...
        hb.set_recv_capacity(cb, 1024);
        // ...then force b to emit a segment (which stamps window()): more
        // data arrives and must be dup-acked with a zero window, not
        // accepted and not panicked on.
        let out = segs(|o| ha.send(2, ca, b"over capacity", o));
        exchange(&mut ha, &mut hb, out, vec![], 2);
        assert_eq!(hb.readable(cb), 8192, "no delivery past shrunk capacity");
        // Draining reopens the (shrunk) window and traffic resumes.
        let (data, ack) = recv(&mut hb, cb, usize::MAX);
        assert_eq!(data.len(), 8192);
        exchange(&mut ha, &mut hb, vec![], ack, 3);
        let out = segs(|o| ha.tick(3 + 10 * INITIAL_RTO, ca, o));
        exchange(&mut ha, &mut hb, out, vec![], 3 + 10 * INITIAL_RTO);
        let (data, _) = recv(&mut hb, cb, usize::MAX);
        assert_eq!(data, b"over capacity");
    }

    /// A send ring holding `bytes` whose storage wraps after its first
    /// `head` bytes (or holds them all unwrapped, if `head` is larger).
    fn ring_wrapped_at(bytes: &[u8], head: usize) -> VecDeque<u8> {
        let mut ring = VecDeque::with_capacity(bytes.len().max(head));
        let skip = ring.capacity() - head;
        ring.extend(std::iter::repeat_n(0, skip));
        (0..skip).for_each(|_| _ = ring.pop_front());
        ring.extend(bytes);
        assert_eq!(
            ring.as_slices().0.len(),
            head.min(bytes.len()),
            "ring wraps at {head}"
        );
        ring
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A segment built once in its pooled frame, its payload read from
        /// the ring's two halves, is byte for byte what the one-shot
        /// builder makes of the same header over the payload copied out:
        /// for every point the ring's storage can wrap at (before, inside
        /// or after the payload), and for lengths that run past the ring's
        /// end, which the emitter clamps.
        #[test]
        fn pooled_segment_matches_builder_on_every_wrap(
            ports in (any::<u16>(), any::<u16>()),
            seq_ack in (any::<u32>(), any::<u32>()),
            flag_bits in 0u8..64,
            capacity in 0usize..70_000,
            len in 0usize..MSS + 1,
            off in 0usize..2_000,
            fill in 0usize..MSS + 64,
        ) {
            let (mut ha, _, ca, _) = connected_pair();
            let n = off + fill;
            let bytes: Vec<u8> = (0..n).map(|i| (i * 7 + len) as u8).collect();
            let want = builder::tcp_segment(
                a(),
                b(),
                TcpHeader {
                    src_port: ports.0,
                    dst_port: ports.1,
                    seq: seq_ack.0,
                    ack: seq_ack.1,
                    flags: flag_bits,
                    window: capacity.min(u16::MAX as usize) as u16,
                },
                &bytes[off..(off + len).min(n)],
            );
            let c = ha.conns.get_mut(&ca).unwrap();
            (c.local_port, c.remote_port, c.rcv_nxt) = (ports.0, ports.1, seq_ack.1);
            c.recv_capacity = capacity;
            // A non-empty ring's first half is never empty: wrapping at
            // `n` or past it leaves the ring whole.
            for head in 1..=n + 1 {
                c.send_buf = ring_wrapped_at(&bytes, head);
                let seg = segs(|o| c.emit(o, flag_bits, seq_ack.0, off, len));
                prop_assert_eq!(&seg[0], &want, "ring wrapped at {}", head);
            }
        }
    }

    #[test]
    fn recv_matches_naive_drain_on_wrapped_deque() {
        let (_, mut hb, _, cb) = connected_pair();
        // A ring whose storage wraps, on the receive side.
        let mut buf: VecDeque<u8> = VecDeque::with_capacity(4096);
        let cap = buf.capacity();
        buf.extend((0..cap).map(|i| (i % 251) as u8));
        buf.drain(..cap / 3);
        buf.extend((0..cap / 4).map(|i| (i % 13) as u8));
        let (head, tail) = buf.as_slices();
        assert!(!head.is_empty() && !tail.is_empty(), "deque must wrap");
        let head_len = head.len();
        let mut naive = buf.clone();
        hb.conns.get_mut(&cb).unwrap().recv_buf = buf;
        // Reads inside the head, across the seam, inside the tail, and
        // past the end (clamps).
        for max in [0, 7, head_len - 7, 20, 1000, usize::MAX] {
            let want: Vec<u8> = naive.drain(..max.min(naive.len())).collect();
            let (got, _) = recv(&mut hb, cb, max);
            assert_eq!(got, want, "max={max}");
            assert_eq!(hb.readable(cb), naive.len());
        }
        assert_eq!(hb.readable(cb), 0);
    }

    #[test]
    fn flow_control_blocks_at_receiver_capacity() {
        let (mut ha, mut hb, ca, cb) = connected_pair();
        // Don't read at b: a can push at most the advertised window.
        let big = vec![0xabu8; 200_000];
        let out = segs(|o| ha.send(1, ca, &big, o));
        exchange(&mut ha, &mut hb, out, vec![], 1);
        assert_eq!(hb.readable(cb), DEFAULT_RECV_CAPACITY, "receiver full");
        // Unacked remainder is retained for retransmission.
        assert!(ha.send_backlog(ca) >= 200_000 - DEFAULT_RECV_CAPACITY);
        // Reading drains and reopens the window.
        let (data, ack) = recv(&mut hb, cb, usize::MAX);
        assert_eq!(data.len(), DEFAULT_RECV_CAPACITY);
        exchange(&mut ha, &mut hb, vec![], ack, 2);
        assert!(hb.readable(cb) > 0, "window update let more data flow");
    }

    #[test]
    fn retransmission_repairs_loss() {
        let (mut ha, mut hb, ca, cb) = connected_pair();
        let out = segs(|o| ha.send(1, ca, b"lost data", o));
        // Drop the segments on the floor.
        drop(out);
        // Fire the retransmission tick.
        let out = segs(|o| ha.tick(INITIAL_RTO + 1, ca, o));
        assert!(!out.is_empty(), "tick must retransmit");
        exchange(&mut ha, &mut hb, out, vec![], INITIAL_RTO + 1);
        let (data, _) = recv(&mut hb, cb, 1024);
        assert_eq!(data, b"lost data");
    }

    #[test]
    fn retry_exhaustion_resets() {
        let mut ha = TcpHost::default();
        let mut ca = 0;
        let out = segs(|o| ca = ha.connect(0, a(), None, b(), 80, o));
        drop(out); // SYN never arrives
        let mut now = 0;
        for _ in 0..=MAX_RETRIES {
            now += 10 * INITIAL_RTO;
            let _ = segs(|o| ha.tick(now, ca, o));
        }
        assert!(ha.is_closed(ca), "connection must give up");
    }

    #[test]
    fn rst_to_closed_port() {
        let mut ha = TcpHost::default();
        let mut hb = TcpHost::default();
        // No listener on b.
        let mut ca = 0;
        let out = segs(|o| ca = ha.connect(0, a(), None, b(), 9999, o));
        exchange(&mut ha, &mut hb, out, vec![], 0);
        assert!(ha.is_closed(ca), "RST must abort the connection");
    }

    #[test]
    fn graceful_close_both_sides() {
        let (mut ha, mut hb, ca, cb) = connected_pair();
        let out = segs(|o| ha.close(1, ca, o));
        exchange(&mut ha, &mut hb, out, vec![], 1);
        assert!(hb.peer_done(cb));
        let out = segs(|o| hb.close(2, cb, o));
        exchange(&mut ha, &mut hb, vec![], out, 2);
        assert!(ha.is_closed(ca), "a fully closed");
        assert!(hb.is_closed(cb), "b fully closed");
    }

    #[test]
    fn close_flushes_pending_data_first() {
        let (mut ha, mut hb, ca, cb) = connected_pair();
        let out1 = segs(|o| ha.send(1, ca, b"last words", o));
        let out2 = segs(|o| ha.close(1, ca, o));
        let mut segs = out1;
        segs.extend(out2);
        exchange(&mut ha, &mut hb, segs, vec![], 1);
        let (data, _) = recv(&mut hb, cb, 1024);
        assert_eq!(data, b"last words");
        assert!(hb.peer_done(cb));
    }

    #[test]
    fn send_after_close_is_noop() {
        let (mut ha, _, ca, _) = connected_pair();
        let _ = segs(|o| ha.close(1, ca, o));
        let out = segs(|o| ha.send(2, ca, b"too late", o));
        assert!(out.is_empty());
    }

    #[test]
    fn duplicate_segment_reacked_not_redelivered() {
        let (mut ha, mut hb, ca, cb) = connected_pair();
        let out = segs(|o| ha.send(1, ca, b"once", o));
        let dup = out.clone();
        exchange(&mut ha, &mut hb, out, vec![], 1);
        let (data, _) = recv(&mut hb, cb, 64);
        assert_eq!(data, b"once");
        // Redeliver the same segment.
        for pkt in dup {
            let view = Ipv4View::new(&pkt).unwrap();
            let _ = segs(|o| hb.on_segment(2, view.src(), view.dst(), view.payload(), o));
        }
        assert_eq!(hb.readable(cb), 0, "duplicate must not deliver twice");
    }
}
