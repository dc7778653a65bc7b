//! Event-driven session multiplexing for the endpoint: a small hand-rolled
//! reactor over the [`NetStack`] trait (no external event loop, no extra
//! threads) that lets one [`EndpointAgent`] serve thousands of concurrent
//! controller sessions.
//!
//! The pieces:
//!
//! - **Admission control.** New connections are admitted only while the
//!   agent is under [`crate::endpoint::EndpointConfig::max_sessions`];
//!   over-capacity connections receive a typed
//!   [`ErrCode::Busy`] response and are closed
//!   once it flushes — the
//!   [`RobustController`](crate::controller::robust::RobustController)
//!   classifies that as transient and re-dials with backoff. Rejections
//!   are counted in the public `endpoint.sessions.rejected` metric.
//! - **Fair scheduling.** Decoded-but-unprocessed commands queue per
//!   session; a [`DrrScheduler`] (deficit round-robin, byte-costed by
//!   frame size) picks which session's command runs next, so one chatty
//!   controller cannot starve the rest. The schedule is a pure function
//!   of session arrival order and queued frame sizes — no map iteration
//!   order, no clocks — which keeps replays bit-identical.
//! - **Backpressure.** Outbound frames queue per session with a byte
//!   bound, plus a global bound across sessions; a session whose
//!   outbound queue is over budget (or a reactor over the global bound)
//!   stops being dispatched until the queue drains to the transport. The
//!   two bounds and the DRR quantum are constants of this module.
//! - **Readiness.** A turn costs what its ready sessions cost: `pump` reads
//!   only connections [`NetStack::tcp_readable`] reports bytes on, and
//!   `flush` hands each session's back-to-back frames to one `tcp_send`.
//!
//! §3.3's "no more than one controller has control" is untouched: the
//! agent's priority arbitration (contend / suspend / resume) still decides
//! *whose commands execute*; the reactor only decides *when queued frames
//! get decoded, dispatched, and flushed*.
//!
//! The reactor is transport-agnostic, and it is the only thing that
//! drives an [`EndpointAgent`]: all byte IO goes through the [`NetStack`]
//! the caller passes in, and a host supplies nothing but accept and close
//! notifications. Three hosts run it, each with the service round
//! documented on [`EndpointReactor`]: the simulation harness
//! ([`crate::harness`], over `SimStack`), the real-socket server
//! ([`crate::transport::EndpointServer`], over `RealStack`), and the
//! control-plane benches and churn tests (over
//! [`crate::netstack::MemStack`]). What the reactor enforces is therefore
//! enforced on every backend.

use crate::endpoint::{EndpointAgent, EndpointConfig, Out};
use crate::netstack::NetStack;
use crate::wire::{ErrCode, FrameDecoder, Message, Response};
use plab_netsim::RawDisposition;
use std::collections::VecDeque;

static M_REJECTED: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.sessions.rejected");
static M_DISPATCHED: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.reactor.dispatched");
static M_STALLED: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.reactor.backpressure_stalls");

/// Deficit round-robin over session ids.
///
/// Sessions are visited in **enrollment order** (a ring); each visit adds
/// one `quantum` of credit, and a session may serve queued units (frames)
/// while its accumulated credit covers their cost. An idle session's
/// credit resets, so credit cannot be hoarded across idle periods —
/// classic DRR (Shreedhar & Varghese).
///
/// The ring is a `Vec` read cyclically from a cursor, credits beside it:
/// passing an idle session is one array write and a cursor step. The same
/// enrollment order and per-poll cost answers give the same service order,
/// which is what `tests/proptest_drr.rs` pins.
#[derive(Default)]
pub struct DrrScheduler {
    /// Enrolled session ids. Read cyclically from `cursor`, this is
    /// arrival order: the session just before the cursor enrolled last.
    ring: Vec<u64>,
    /// `deficit[i]` is the credit of `ring[i]`, in cost units (bytes).
    deficit: Vec<u64>,
    /// Index of the session being offered service (0 on an empty ring).
    cursor: usize,
    quantum: u64,
    /// The session at the cursor already has its quantum for the current
    /// visit (one per visit, however many units it serves with it).
    charged: bool,
}

impl DrrScheduler {
    /// Scheduler with the given per-visit quantum (cost units / bytes).
    pub fn new(quantum: u64) -> Self {
        DrrScheduler {
            quantum: quantum.max(1),
            ..Default::default()
        }
    }

    /// Enroll a session at the back of the ring (no-op if present).
    pub fn enroll(&mut self, sid: u64) {
        if self.ring.contains(&sid) {
            return;
        }
        // The back of the ring is just before the cursor: at 0, the end.
        if self.cursor == 0 {
            self.ring.push(sid);
            self.deficit.push(0);
        } else {
            self.ring.insert(self.cursor, sid);
            self.deficit.insert(self.cursor, 0);
            self.cursor += 1;
        }
    }

    /// Remove a session entirely.
    pub fn remove(&mut self, sid: u64) {
        let Some(i) = self.ring.iter().position(|&s| s == sid) else {
            return;
        };
        self.ring.remove(i);
        self.deficit.remove(i);
        if i < self.cursor {
            self.cursor -= 1;
        } else if i == self.cursor {
            // The next session in the ring moved under the cursor.
            self.charged = false;
            if self.cursor == self.ring.len() {
                self.cursor = 0;
            }
        }
    }

    /// Number of enrolled sessions.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no session is enrolled.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Pick the next session to serve one unit. `cost(sid)` returns the
    /// cost of that session's next queued unit, or `None` when it has
    /// nothing servable right now (empty queue, or backpressured).
    ///
    /// Returns the chosen sid with its cost already charged; the caller
    /// must then actually serve that unit. Returns `None` when no session
    /// can be served this poll (each enrolled session was visited once).
    pub fn poll(&mut self, mut cost: impl FnMut(u64) -> Option<u64>) -> Option<u64> {
        for _ in 0..self.ring.len() {
            let i = self.cursor;
            let sid = self.ring[i];
            match cost(sid) {
                Some(c) => {
                    let d = &mut self.deficit[i];
                    if !self.charged {
                        // One quantum per visit, however many units it
                        // buys; if still short, the deficit persists and
                        // the session waits for its next turn.
                        *d += self.quantum;
                        self.charged = true;
                    }
                    if *d >= c {
                        *d -= c;
                        return Some(sid);
                    }
                }
                // Idle sessions don't accumulate credit.
                None => self.deficit[i] = 0,
            }
            self.charged = false;
            self.cursor = if i + 1 == self.ring.len() { 0 } else { i + 1 };
        }
        None
    }
}

/// The reactor's DRR quantum, bytes per scheduling visit.
const QUANTUM: u64 = 1 << 12;
/// Per-session outbound queue bound, bytes. A session over this bound is
/// not dispatched until its queue drains.
const SESSION_OUTQ_BYTES: usize = 256 << 10;
/// Global outbound bound across all sessions, bytes. Dispatch pauses
/// entirely while the reactor holds more than this.
const GLOBAL_OUTQ_BYTES: usize = 8 << 20;

/// Per-session IO state.
#[derive(Default)]
struct SessionIo {
    sid: u64,
    conn: u64,
    decoder: FrameDecoder,
    /// Decoded inbound messages awaiting dispatch, with their frame cost
    /// (payload + header bytes).
    inq: VecDeque<(Message, u64)>,
    /// Encoded outbound frames awaiting transmission, back to back.
    outq: Vec<u8>,
    /// Admission was refused: `outq` holds the Busy response, and the
    /// connection closes once it flushes. No agent session exists.
    rejected: bool,
    /// Corrupt inbound stream: close after flushing whatever is queued.
    poisoned: bool,
}

impl SessionIo {
    /// Encode `msg` onto the outbound queue; returns its frame's size.
    fn push_out(&mut self, msg: &Message) -> usize {
        let before = self.outq.len();
        msg.write_frame(&mut self.outq);
        self.outq.len() - before
    }

    /// Read what the connection has and decode it into `inq`. Readiness
    /// first: a connection with nothing waiting costs one probe, no read.
    fn pump(&mut self, stack: &mut dyn NetStack) {
        self.decoder
            .fill(|max| match stack.tcp_readable(self.conn) {
                0 => Vec::new(),
                n => stack.tcp_recv(self.conn, n.min(max)),
            });
        loop {
            // A frame's cost is what decoding it took off the buffer.
            let had = self.decoder.buffered();
            match self.decoder.next_message() {
                // Rejected sessions' traffic is discarded; the Busy
                // response is already queued.
                Ok(Some(_)) if self.rejected => {}
                Ok(Some(msg)) => self
                    .inq
                    .push_back((msg, (had - self.decoder.buffered()) as u64)),
                Ok(None) => break,
                Err(_) => {
                    // Corrupt stream: drop the session once its queue flushes.
                    self.poisoned = true;
                    break;
                }
            }
        }
    }
}

/// Where `sid` sits in a table kept in ascending sid order, each row's
/// sid read by `sid_of`: the reactor's [`SessionIo`]s and the agent's
/// sessions. Sids are distinct integers, so a session is at most
/// `sid - first` slots in, and exactly there until a lower session
/// closes: the common lookup is one probe, the rest a binary search
/// below it.
pub(crate) fn slot<T>(table: &[T], sid: u64, sid_of: impl Fn(&T) -> u64) -> Option<usize> {
    let ahead = sid.checked_sub(sid_of(table.first()?))?;
    let hi = usize::try_from(ahead)
        .unwrap_or(usize::MAX)
        .min(table.len() - 1);
    if sid_of(&table[hi]) == sid {
        return Some(hi);
    }
    table[..hi].binary_search_by_key(&sid, sid_of).ok()
}

/// The endpoint reactor: one [`EndpointAgent`] multiplexed over many
/// controller connections.
///
/// Drive it each service round with:
///
/// 1. [`EndpointReactor::accept`] for each newly accepted connection,
/// 2. the agent pass-throughs for what arrived since the last round
///    ([`EndpointReactor::on_packet`], [`EndpointReactor::on_wakeup`]),
/// 3. [`EndpointReactor::pump`] to read inbound bytes (one
///    [`NetStack::tcp_readable`] probe a session; only connections with
///    bytes waiting are read),
/// 4. [`EndpointReactor::dispatch`] to run queued commands under DRR,
/// 5. [`EndpointReactor::on_conn_closed`] for connections the transport
///    reports dead — after the dispatch, so commands a dying session had
///    already delivered still run — and
/// 6. [`EndpointReactor::flush`] to transmit queued responses (and close
///    rejected/poisoned connections whose queues drained), then
///    [`EndpointReactor::service`] and a second flush for what it queued.
pub struct EndpointReactor {
    agent: EndpointAgent,
    /// Sessions with live IO state, in ascending sid order. `accept` hands
    /// sids out ascending and appends, so arrival order, sid order and
    /// flush order are one order and nothing is ever sorted.
    table: Vec<SessionIo>,
    sched: DrrScheduler,
    global_out_bytes: usize,
    next_sid: u64,
    /// Sessions rejected at admission over this reactor's lifetime.
    pub rejected_sessions: u64,
}

impl EndpointReactor {
    /// Reactor over a fresh agent.
    pub fn new(config: EndpointConfig) -> Self {
        EndpointReactor {
            agent: EndpointAgent::new(config),
            table: Vec::new(),
            sched: DrrScheduler::new(QUANTUM),
            global_out_bytes: 0,
            next_sid: 1,
            rejected_sessions: 0,
        }
    }

    /// The wrapped agent (statistics, configuration).
    pub fn agent(&self) -> &EndpointAgent {
        &self.agent
    }

    /// Next session id to be assigned (for hosts that re-seed after a
    /// node restart).
    pub fn next_sid(&self) -> u64 {
        self.next_sid
    }

    /// Re-seed the session-id counter (must only grow).
    pub fn set_next_sid(&mut self, sid: u64) {
        self.next_sid = self.next_sid.max(sid);
    }

    /// Every session with live IO state and the connection it rides on,
    /// as `(sid, conn)` in ascending sid order.
    pub fn sessions(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.table.iter().map(|s| (s.sid, s.conn))
    }

    /// Admit (or refuse) a new connection; returns the assigned sid.
    ///
    /// Refused connections get a [`ErrCode::Busy`] response queued and are
    /// closed by [`EndpointReactor::flush`] once it transmits.
    pub fn accept(&mut self, conn: u64) -> u64 {
        let sid = self.next_sid;
        self.next_sid += 1;
        let mut io = SessionIo {
            sid,
            conn,
            ..Default::default()
        };
        if self.agent.can_accept() {
            self.agent.on_session_open(sid);
            self.sched.enroll(sid);
        } else {
            io.rejected = true;
            self.rejected_sessions += 1;
            M_REJECTED.inc();
            plab_obs::obs_event!(plab_obs::Component::Endpoint, "session.reject", "sid" = sid);
            let resp = Message::Resp(Response::Err {
                code: ErrCode::Busy,
                msg: "endpoint at session capacity".into(),
            });
            self.global_out_bytes += io.push_out(&resp);
        }
        self.table.push(io);
        sid
    }

    /// Read inbound bytes where the `NetStack` reports some waiting (one
    /// readiness probe a session) and decode them into per-session queues.
    pub fn pump(&mut self, stack: &mut dyn NetStack) {
        for io in &mut self.table {
            io.pump(stack);
        }
    }

    /// Run queued commands under deficit round-robin, bounded by
    /// backpressure. Returns the number of messages dispatched.
    pub fn dispatch(&mut self, stack: &mut dyn NetStack) -> usize {
        let mut served = 0usize;
        loop {
            if self.global_out_bytes > GLOBAL_OUTQ_BYTES {
                M_STALLED.inc();
                break;
            }
            let table = &self.table;
            // A poll pass grants each session at most one quantum, and a
            // head frame larger than that needs more passes: the round
            // must drain everything not backpressured, DRR only decides
            // the order. A poll that serves nobody has visited every
            // enrolled session once, so whether any of them offered a unit
            // tells "short of credit" from "nothing left".
            let mut offered = false;
            let next = self.sched.poll(|sid| {
                let s = &table[slot(table, sid, |io| io.sid)?];
                if s.poisoned || s.outq.len() > SESSION_OUTQ_BYTES {
                    return None;
                }
                let cost = s.inq.front().map(|(_, c)| *c);
                offered |= cost.is_some();
                cost
            });
            let Some(sid) = next else {
                if offered {
                    continue;
                }
                break;
            };
            let (msg, _) = slot(&self.table, sid, |io| io.sid)
                .and_then(|i| self.table[i].inq.pop_front())
                .expect("polled session has a queued message");
            let out = self.agent.on_message(sid, msg, stack);
            self.route_out(out);
            served += 1;
            M_DISPATCHED.inc();
        }
        served
    }

    /// Pass a raw packet to the agent, queueing any control-plane output.
    pub fn on_packet(
        &mut self,
        time: u64,
        packet: &[u8],
        stack: &mut dyn NetStack,
    ) -> RawDisposition {
        let (disp, out) = self.agent.on_packet(time, packet, stack);
        self.route_out(out);
        disp
    }

    /// Pass a timer wakeup to the agent, queueing any output.
    pub fn on_wakeup(&mut self, key: u64, stack: &mut dyn NetStack) {
        let out = self.agent.on_wakeup(key, stack);
        self.route_out(out);
    }

    /// Run the agent's periodic service pass, queueing any output.
    pub fn service(&mut self, stack: &mut dyn NetStack) {
        let out = self.agent.service(stack);
        self.route_out(out);
    }

    /// The transport reports `sid`'s connection dead: tear down IO state
    /// and let the agent detach or destroy the session (lingering applies).
    pub fn on_conn_closed(&mut self, sid: u64, stack: &mut dyn NetStack) {
        let Some(i) = slot(&self.table, sid, |io| io.sid) else {
            return;
        };
        let io = self.table.remove(i);
        self.global_out_bytes -= io.outq.len();
        self.sched.remove(sid);
        if !io.rejected {
            let out = self.agent.on_session_closed(sid, stack);
            self.route_out(out);
        }
    }

    /// Queue agent output onto the owning sessions' outbound queues.
    fn route_out(&mut self, out: Out) {
        for (sid, msg) in out {
            if let Some(i) = slot(&self.table, sid, |io| io.sid) {
                self.global_out_bytes += self.table[i].push_out(&msg);
            }
            // Output for a session with no connection (already closed) is
            // dropped.
        }
    }

    /// Transmit every session's queued outbound frames through the stack,
    /// one `tcp_send` a session in ascending-sid order, then close
    /// connections that were rejected at admission or poisoned by corrupt
    /// input. Returns the sids it closed (their `tcp_close` has already
    /// been issued).
    pub fn flush(&mut self, stack: &mut dyn NetStack) -> Vec<u64> {
        let mut closed = Vec::new();
        let mut i = 0;
        while i < self.table.len() {
            let io = &mut self.table[i];
            if !io.outq.is_empty() {
                self.global_out_bytes -= io.outq.len();
                stack.tcp_send(io.conn, &io.outq);
                io.outq.clear();
            }
            if !(io.rejected || io.poisoned) {
                i += 1;
                continue;
            }
            // Closing takes the session out from under the walk: the next
            // one slides into slot `i`.
            let io = self.table.remove(i);
            stack.tcp_close(io.conn);
            self.sched.remove(io.sid);
            if !io.rejected {
                let out = self.agent.on_session_closed(io.sid, stack);
                self.route_out(out);
            }
            closed.push(io.sid);
        }
        closed
    }

    /// Bytes currently queued outbound across all sessions.
    pub fn queued_out_bytes(&self) -> usize {
        self.global_out_bytes
    }

    /// Messages currently queued inbound across all sessions.
    pub fn queued_in_messages(&self) -> usize {
        self.table.iter().map(|s| s.inq.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::net::Ipv4Addr;

    /// Drain everything with repeated single-unit polls.
    fn drain(sched: &mut DrrScheduler, queues: &mut HashMap<u64, VecDeque<u64>>) -> Vec<u64> {
        let mut order = Vec::new();
        loop {
            let next = sched.poll(|sid| queues.get(&sid).and_then(|q| q.front().copied()));
            match next {
                Some(sid) => {
                    queues.get_mut(&sid).unwrap().pop_front();
                    order.push(sid);
                }
                None => break,
            }
        }
        order
    }

    #[test]
    fn drr_serves_all_and_interleaves() {
        let mut sched = DrrScheduler::new(100);
        let mut queues: HashMap<u64, VecDeque<u64>> = HashMap::new();
        for sid in 1..=3u64 {
            sched.enroll(sid);
            queues.insert(sid, (0..4).map(|_| 60u64).collect());
        }
        let order = drain(&mut sched, &mut queues);
        assert_eq!(order.len(), 12);
        // Every session served exactly its queue.
        for sid in 1..=3u64 {
            assert_eq!(order.iter().filter(|&&s| s == sid).count(), 4);
        }
        // Fairness: every session is served within the first round.
        let pos_last_first: usize = (1..=3u64)
            .map(|sid| order.iter().position(|&s| s == sid).unwrap())
            .max()
            .unwrap();
        assert!(pos_last_first <= 4, "every session served early: {order:?}");
    }

    #[test]
    fn drr_big_units_accumulate_credit() {
        let mut sched = DrrScheduler::new(10);
        let mut queues: HashMap<u64, VecDeque<u64>> = HashMap::new();
        sched.enroll(1);
        queues.insert(1, VecDeque::from(vec![35u64]));
        // Costs above the quantum accumulate across polls rather than
        // starving forever.
        let mut polls = 0;
        loop {
            polls += 1;
            assert!(polls < 100, "big unit starved");
            let next = sched.poll(|sid| queues.get(&sid).and_then(|q| q.front().copied()));
            if let Some(sid) = next {
                assert_eq!(sid, 1);
                break;
            }
        }
    }

    #[test]
    fn drr_removal_mid_round() {
        let mut sched = DrrScheduler::new(100);
        let mut queues: HashMap<u64, VecDeque<u64>> = HashMap::new();
        for sid in [7u64, 9, 11] {
            sched.enroll(sid);
            queues.insert(sid, VecDeque::from(vec![10u64, 10]));
        }
        sched.remove(9);
        let order = drain(&mut sched, &mut queues);
        assert!(order.iter().all(|&s| s != 9));
        assert_eq!(order.len(), 4);
    }

    /// Inboxes the test feeds; every `tcp_recv`, `tcp_send` and
    /// `tcp_close` recorded in call order.
    #[derive(Default)]
    struct TestStack {
        inbox: HashMap<u64, Vec<u8>>,
        reads: Vec<u64>,
        sent: Vec<(u64, Vec<u8>)>,
        closed: Vec<u64>,
    }

    impl NetStack for TestStack {
        fn clock(&self) -> u64 {
            1_000
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
            false
        }
        fn raw_send_at(&mut self, _: u64, _: Vec<u8>, _: u64) {}
        fn udp_bind(&mut self, _: u16) -> bool {
            true
        }
        fn udp_unbind(&mut self, _: u16) {}
        fn udp_send_at(&mut self, _: u64, _: u16, _: Ipv4Addr, _: u16, _: &[u8], _: u64) {}
        fn take_udp(&mut self, _: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
            Vec::new()
        }
        fn tcp_connect(&mut self, _: Ipv4Addr, _: u16) -> u64 {
            0
        }
        fn tcp_send(&mut self, conn: u64, data: &[u8]) {
            self.sent.push((conn, data.to_vec()));
        }
        fn tcp_recv(&mut self, conn: u64, _: usize) -> Vec<u8> {
            self.reads.push(conn);
            self.inbox.remove(&conn).unwrap_or_default()
        }
        fn tcp_readable(&self, conn: u64) -> usize {
            self.inbox.get(&conn).map_or(0, Vec::len)
        }
        fn tcp_close(&mut self, conn: u64) {
            self.closed.push(conn);
        }
        fn tcp_alive(&self, _: u64) -> bool {
            true
        }
        fn schedule_wakeup(&mut self, _: u64, _: u64) {}
        fn take_send_log(&mut self) -> Vec<(u64, u64)> {
            Vec::new()
        }
    }

    /// A turn reads only the connections with bytes waiting: none of 4,096
    /// idle ones, and each of k senders once.
    #[test]
    fn pump_reads_only_readable_connections() {
        let mut stack = TestStack::default();
        let mut reactor = EndpointReactor::new(EndpointConfig {
            max_sessions: 4096,
            ..Default::default()
        });
        for conn in 1..=4096 {
            reactor.accept(conn);
        }
        reactor.pump(&mut stack);
        reactor.dispatch(&mut stack);
        reactor.flush(&mut stack);
        assert!(
            stack.reads.is_empty(),
            "an idle turn read {} connections",
            stack.reads.len()
        );

        let senders = [3, 64, 65, 1000, 4096];
        let hello = Message::Hello {
            version: crate::PROTOCOL_VERSION,
        }
        .to_frame();
        for conn in senders.iter().rev() {
            stack.inbox.insert(*conn, hello.clone());
        }
        reactor.pump(&mut stack);
        assert_eq!(stack.reads, senders, "one read per sender, in sid order");
        assert_eq!(reactor.queued_in_messages(), senders.len());
    }

    /// One `flush` closes rejected and poisoned sessions in ascending sid
    /// order, adjacent ones included, while the table shrinks under its
    /// walk; the live sessions between them are flushed and kept; and
    /// output for a sid closed earlier in the turn goes nowhere.
    #[test]
    fn flush_closes_rejected_and_poisoned_in_sid_order() {
        let mut stack = TestStack::default();
        let mut reactor = EndpointReactor::new(EndpointConfig {
            max_sessions: 3,
            ..Default::default()
        });
        // Connection numbers are 100 + sid. Sids 1-3 fill the endpoint, 4
        // is refused, closing 2 makes room for 5, and 6 is refused again.
        for conn in 101..=104 {
            reactor.accept(conn);
        }
        reactor.on_conn_closed(2, &mut stack);
        assert_eq!(reactor.accept(105), 5);
        assert_eq!(reactor.accept(106), 6);
        assert_eq!(reactor.rejected_sessions, 2);

        let hello = Message::Hello {
            version: crate::PROTOCOL_VERSION,
        }
        .to_frame();
        stack.inbox.insert(101, hello.clone());
        stack.inbox.insert(105, hello);
        // A framed payload no message decodes from poisons session 3, which
        // sits right before rejected session 4 in the table.
        stack.inbox.insert(103, vec![1, 0, 0, 0, 0xff]);
        reactor.pump(&mut stack);
        assert_eq!(reactor.dispatch(&mut stack), 2);

        assert_eq!(reactor.flush(&mut stack), vec![3, 4, 6]);
        assert_eq!(stack.closed, vec![103, 104, 106]);
        let sent_to: Vec<u64> = stack.sent.iter().map(|(conn, _)| *conn).collect();
        assert_eq!(
            sent_to,
            vec![101, 104, 105, 106],
            "HelloAcks and Busy refusals, in sid order"
        );
        assert_eq!(
            reactor.sessions().collect::<Vec<_>>(),
            vec![(1, 101), (5, 105)]
        );
        assert_eq!(reactor.sched.len(), 2);
        assert_eq!(
            reactor.agent().session_count(),
            2,
            "the poisoned session left the agent too"
        );
        assert_eq!(reactor.queued_out_bytes(), 0);

        reactor.route_out(vec![(3, Message::AuthOk), (4, Message::AuthOk)]);
        assert_eq!(
            reactor.queued_out_bytes(),
            0,
            "output for closed sids is dropped"
        );
        assert!(reactor.flush(&mut stack).is_empty());
        assert_eq!(stack.sent.len(), 4);
    }
}
