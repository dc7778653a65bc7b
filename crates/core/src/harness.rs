//! Simulation harness: runs endpoints, rendezvous servers, and controller
//! channels over a `plab-netsim` topology in deterministic lockstep.
//!
//! The harness is the "deployment" of the reproduction: endpoint agents
//! listen for control connections on their simulated hosts, rendezvous
//! servers accept publishes and subscriptions, controllers connect through
//! [`SimChannel`], and everything advances on the simulator's virtual
//! clock. Experiment code is identical to what would run against real
//! endpoints — only the [`crate::controller::aio::Channel`]
//! implementation differs. [`SimChannel`] and [`SimDialer`] advance the
//! simulator themselves until an operation is done, so their `async fn`s
//! never suspend and both carry the blocking shells
//! ([`crate::controller::ControlChannel`] and friends).

use crate::controller::robust::Dialer;
use crate::controller::{aio, probe_seq, ControlChannel, SinkHost};
use crate::endpoint::{EndpointAgent, EndpointConfig};
use crate::reactor::EndpointReactor;
use crate::rendezvous::{RendezvousServer, RvMessage};
use crate::netstack::SimStack;
use crate::wire::{FrameDecoder, Message};
use plab_netsim::{NodeId, NodeTransition, RawDisposition, ShardedSim, Sim};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Default endpoint control port.
pub const CONTROL_PORT: u16 = 6000;
/// Default rendezvous port.
pub const RENDEZVOUS_PORT: u16 = 5999;

struct SessionConn {
    conn: u64,
    decoder: FrameDecoder,
}

struct EndpointHost {
    node: NodeId,
    /// The agent wrapped in its session reactor (admission, DRR dispatch,
    /// backpressure — see [`crate::reactor`]).
    reactor: EndpointReactor,
    /// Operator configuration, kept so a crashed node reboots with a
    /// fresh agent under the same policy.
    config: EndpointConfig,
    port: u16,
    ext_addr: Option<Ipv4Addr>,
    raw_ok: bool,
    /// Connection to a rendezvous server, if subscribed.
    rv_conn: Option<(u64, FrameDecoder)>,
    /// Dial controllers named in rendezvous announcements.
    auto_dial: bool,
    dialed: Vec<String>,
    /// Announcements received (descriptor bytes), for inspection.
    pub announcements: Vec<Vec<u8>>,
}

struct RvHost {
    node: NodeId,
    server: RendezvousServer,
    port: u16,
    sessions: HashMap<u64, SessionConn>,
    next_sid: u64,
}

/// A discarding TCP sink: accepts connections on (node, port) and drains
/// every accepted connection as the harness services agents. The bwest
/// suite runs these on destination hosts as the receive side of its TCP
/// bulk-transfer probes.
struct TcpSinkHost {
    node: NodeId,
    port: u16,
    conns: Vec<u64>,
}

/// A UDP echo service (RFC 862) on (node, port): every datagram received
/// is sent straight back to its source. The bwest suite's dispersion
/// probe targets these on destination hosts — the echoed train's spacing
/// at the endpoint carries the bottleneck dispersion.
struct UdpEchoHost {
    node: NodeId,
    port: u16,
}

/// Handle identifying an endpoint within a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointId(usize);

impl EndpointId {
    /// The first endpoint added to the harness.
    pub fn first() -> EndpointId {
        EndpointId(0)
    }

    /// The `i`-th endpoint added to the harness.
    pub fn index(i: usize) -> EndpointId {
        EndpointId(i)
    }
}

/// The simulation harness.
pub struct SimNet {
    /// The underlying simulator. A plain [`Sim`] wraps into a single-shard
    /// [`ShardedSim`], which delegates every call straight through — the
    /// harness drives sharded and sequential worlds identically.
    pub sim: ShardedSim,
    endpoints: Vec<EndpointHost>,
    rendezvous: Vec<RvHost>,
    tcp_sinks: Vec<TcpSinkHost>,
    udp_echoes: Vec<UdpEchoHost>,
    /// Controller-side listeners: (node, port) → accepted conns.
    listeners: Vec<(NodeId, u16, Vec<u64>)>,
    /// Sparse servicing: only agents on nodes the simulator touched since
    /// the last [`SimNet::process`] are serviced (see
    /// [`SimNet::set_sparse`]).
    sparse: bool,
    /// node index → endpoint indices on that node (sparse-mode lookup).
    node_eps: HashMap<usize, Vec<usize>>,
    /// node index → rendezvous indices on that node (sparse-mode lookup).
    node_rvs: HashMap<usize, Vec<usize>>,
    /// Sparse mode: the dirty nodes of every pass, for an external
    /// scheduler to drain via [`SimNet::take_serviced_nodes`].
    serviced: Vec<NodeId>,
}

impl SimNet {
    /// Wrap a built simulator.
    pub fn new(sim: Sim) -> Self {
        SimNet::new_sharded(ShardedSim::single(sim))
    }

    /// Wrap a sharded simulator (see
    /// [`plab_netsim::TopologyBuilder::build_sharded`]). The harness
    /// services agents between events, so it advances via the
    /// deterministic global-merge [`ShardedSim::step`]; chaos digests for
    /// a fixed `(seed, shard_count)` replay bit-for-bit.
    pub fn new_sharded(sim: ShardedSim) -> Self {
        SimNet {
            sim,
            endpoints: Vec::new(),
            rendezvous: Vec::new(),
            tcp_sinks: Vec::new(),
            udp_echoes: Vec::new(),
            listeners: Vec::new(),
            sparse: false,
            node_eps: HashMap::new(),
            node_rvs: HashMap::new(),
            serviced: Vec::new(),
        }
    }

    /// Drain the nodes serviced since the last call (sparse mode only).
    /// May contain duplicates.
    pub fn take_serviced_nodes(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.serviced)
    }

    /// Switch on sparse servicing: each [`SimNet::process`] services only
    /// agents on nodes the simulator actually touched (packet delivery,
    /// timer fire, scheduled send, crash/restart) since the previous call,
    /// in endpoint-index order. With thousands of mostly-idle endpoints
    /// this turns the O(endpoints) per-event scan into O(dirty). The
    /// servicing *order* stays a pure function of the event sequence, so
    /// sparse runs replay bit-identically; dense (default) mode is
    /// untouched and keeps its pinned chaos digests. The nodes each pass
    /// serviced accumulate for [`SimNet::take_serviced_nodes`] (the fleet
    /// runner re-examines the tasks parked on them), so whoever switches
    /// this on drains that list.
    pub fn set_sparse(&mut self, on: bool) {
        self.sparse = on;
        self.sim.set_track_dirty(on);
    }

    /// Install a PacketLab endpoint agent on `node`, listening on
    /// [`CONTROL_PORT`].
    pub fn add_endpoint(&mut self, node: NodeId, config: EndpointConfig) -> EndpointId {
        self.add_endpoint_opts(node, config, true, None)
    }

    /// Install an endpoint with explicit raw-socket capability and NAT
    /// external address.
    pub fn add_endpoint_opts(
        &mut self,
        node: NodeId,
        config: EndpointConfig,
        raw_ok: bool,
        ext_addr: Option<Ipv4Addr>,
    ) -> EndpointId {
        self.sim.tcp_listen(node, CONTROL_PORT);
        self.sim.set_defer_os(node, true);
        self.endpoints.push(EndpointHost {
            node,
            reactor: EndpointReactor::new(config.clone()),
            config,
            port: CONTROL_PORT,
            ext_addr,
            raw_ok,
            rv_conn: None,
            auto_dial: false,
            dialed: Vec::new(),
            announcements: Vec::new(),
        });
        let idx = self.endpoints.len() - 1;
        self.node_eps.entry(node.0).or_default().push(idx);
        EndpointId(idx)
    }

    /// Install a rendezvous server on `node`.
    pub fn add_rendezvous(&mut self, node: NodeId, server: RendezvousServer) {
        self.sim.tcp_listen(node, RENDEZVOUS_PORT);
        self.rendezvous.push(RvHost {
            node,
            server,
            port: RENDEZVOUS_PORT,
            sessions: HashMap::new(),
            next_sid: 1,
        });
        self.node_rvs
            .entry(node.0)
            .or_default()
            .push(self.rendezvous.len() - 1);
    }

    /// Access the `i`-th rendezvous server (e.g. for subscriber-count
    /// assertions).
    pub fn rendezvous_server(&self, i: usize) -> &RendezvousServer {
        &self.rendezvous[i].server
    }

    /// Access an endpoint's agent (e.g. for statistics assertions).
    pub fn endpoint_agent(&self, id: EndpointId) -> &EndpointAgent {
        self.endpoints[id.0].reactor.agent()
    }

    /// Access an endpoint's session reactor (admission/backpressure
    /// statistics).
    pub fn endpoint_reactor(&self, id: EndpointId) -> &EndpointReactor {
        &self.endpoints[id.0].reactor
    }

    /// Announcements an endpoint has received from its rendezvous server.
    pub fn endpoint_announcements(&self, id: EndpointId) -> &[Vec<u8>] {
        &self.endpoints[id.0].announcements
    }

    /// Controllers an endpoint auto-dialed from announcements.
    pub fn endpoint_dialed(&self, id: EndpointId) -> &[String] {
        &self.endpoints[id.0].dialed
    }

    /// Subscribe an endpoint to a rendezvous server at `addr`, using the
    /// endpoint's trusted keys as its channels (§3.3: "it subscribes to
    /// the set of channels corresponding to each of the public keys it
    /// trusts"). With `auto_dial`, the endpoint contacts controllers named
    /// in announcements (§3.2).
    pub fn endpoint_subscribe(&mut self, id: EndpointId, rv_addr: Ipv4Addr, auto_dial: bool) {
        let ep = &mut self.endpoints[id.0];
        let conn = self.sim.tcp_connect(ep.node, rv_addr, RENDEZVOUS_PORT);
        let channels: Vec<[u8; 32]> = ep
            .reactor
            .agent()
            .config()
            .trusted_keys
            .iter()
            .map(|k| k.0)
            .collect();
        let frame = rv_frame(&RvMessage::Subscribe { channels });
        self.sim.tcp_send(ep.node, conn, &frame);
        ep.rv_conn = Some((conn, FrameDecoder::new()));
        ep.auto_dial = auto_dial;
    }

    /// Publish an experiment to the rendezvous server at `addr` from
    /// `from_node`. Returns the connection used (drive with
    /// [`SimNet::run_until`] and check the server's state or endpoint
    /// announcements).
    pub fn publish_experiment(
        &mut self,
        from_node: NodeId,
        rv_addr: Ipv4Addr,
        descriptor: Vec<u8>,
        chain: Vec<Vec<u8>>,
        keys: Vec<[u8; 32]>,
    ) -> u64 {
        let conn = self.sim.tcp_connect(from_node, rv_addr, RENDEZVOUS_PORT);
        let frame = rv_frame(&RvMessage::Publish { descriptor, chain, keys });
        self.sim.tcp_send(from_node, conn, &frame);
        conn
    }

    /// Make an endpoint dial a controller directly (the §3.2 direction,
    /// without going through a rendezvous announcement). NAT'd endpoints
    /// must use this: inbound connections do not traverse their NAT.
    pub fn endpoint_dial(&mut self, id: EndpointId, controller: Ipv4Addr, port: u16) {
        let ep = &mut self.endpoints[id.0];
        let conn = self.sim.tcp_connect(ep.node, controller, port);
        ep.reactor.accept(conn);
    }

    /// Install a discarding TCP sink on `node`:`port`. Accepted
    /// connections are drained continuously.
    pub fn add_tcp_sink(&mut self, node: NodeId, port: u16) {
        self.sim.tcp_listen(node, port);
        self.tcp_sinks.push(TcpSinkHost { node, port, conns: Vec::new() });
    }

    /// Install a UDP echo service (RFC 862) on `node`:`port`: every
    /// datagram received is sent back to its source as the harness
    /// services agents. The bwest dispersion probe's destination side.
    pub fn add_udp_echo(&mut self, node: NodeId, port: u16) {
        self.sim.udp_bind(node, port);
        self.udp_echoes.push(UdpEchoHost { node, port });
    }

    /// Open a controller-side listener (for endpoint-initiated control
    /// connections, the paper's §3.2 direction).
    pub fn controller_listen(&mut self, node: NodeId, port: u16) {
        self.sim.tcp_listen(node, port);
        self.listeners.push((node, port, Vec::new()));
    }

    /// Pop a connection accepted on a controller listener.
    pub fn controller_accept(&mut self, node: NodeId, port: u16) -> Option<u64> {
        self.process();
        for (n, p, queue) in &mut self.listeners {
            if *n == node && *p == port {
                return queue.pop();
            }
        }
        None
    }

    /// Advance virtual time to `deadline`, servicing all agents.
    pub fn run_until(&mut self, deadline: u64) {
        loop {
            self.process();
            match self.sim.next_event_time() {
                Some(t) if t <= deadline => {
                    self.sim.step();
                }
                _ => break,
            }
        }
        self.sim.run_until(deadline);
        self.process();
    }

    /// Process one simulator event (if any) plus agent servicing; returns
    /// false when no event was pending. The `process()` before the event
    /// is for a caller that changed the world since the last step
    /// ([`SimChannel`]'s sends, `endpoint_dial` and friends queue bytes
    /// an agent must see at this instant, not after the next event); the
    /// one after it services what the event delivered. It is
    /// [`SimNet::step_quiet`] with no instant to keep going before; the
    /// fleet runner's advance is the one that names one.
    pub fn step(&mut self) -> bool {
        self.step_quiet(0)
    }

    /// One event between two `process()` passes, as [`SimNet::step`]
    /// describes, and then every following event strictly before
    /// `before` for as long as the simulator stays quiet
    /// ([`ShardedSim::quiet`]: sparse mode, and the events so far marked
    /// no node, fired no timer, crashed nothing — router hops, four
    /// events in five of a fleet pass), servicing agents once at the end
    /// rather than twice per hop. For a driver with nothing of its own to
    /// do before `before` (a launch, a timed wake, a deadline) unless an
    /// agent or a task saw something. Debug builds service after every
    /// quiet event all the same and assert that it did nothing.
    pub fn step_quiet(&mut self, before: u64) -> bool {
        self.process();
        let stepped = self.sim.step();
        while self.sim.quiet() && self.sim.next_event_time().is_some_and(|t| t < before) {
            if cfg!(debug_assertions) {
                let (serviced, next) = (self.serviced.len(), self.sim.next_event_time());
                self.process();
                let after = (self.serviced.len(), self.sim.next_event_time(), self.sim.quiet());
                assert_eq!(after, (serviced, next, true), "a quiet event left agents work");
            }
            self.sim.step();
        }
        self.process();
        stepped
    }

    /// Service all agents until quiescent at the current instant.
    pub fn process(&mut self) {
        // Crash/restart transitions: a crashed endpoint host loses its
        // agent process with it; a restarted one boots a fresh agent (same
        // operator config) and re-opens its control listener. Experiment
        // state does NOT survive a crash — that is the distinction from a
        // mere control-channel loss, which `session_linger_ns` rides out.
        for tr in self.sim.take_node_transitions() {
            match tr {
                NodeTransition::Crashed(node) => {
                    for ep in self.endpoints.iter_mut().filter(|e| e.node == node) {
                        let sid = ep.reactor.next_sid();
                        ep.reactor = EndpointReactor::new(ep.config.clone());
                        ep.reactor.set_next_sid(sid);
                        ep.rv_conn = None;
                    }
                }
                NodeTransition::Restarted(node) => {
                    let mut is_endpoint = false;
                    for ep in self.endpoints.iter_mut().filter(|e| e.node == node) {
                        let sid = ep.reactor.next_sid();
                        ep.reactor = EndpointReactor::new(ep.config.clone());
                        // Distance rebooted sids from pre-crash ones.
                        ep.reactor.set_next_sid(sid + 1000);
                        is_endpoint = true;
                    }
                    if is_endpoint {
                        self.sim.tcp_listen(node, CONTROL_PORT);
                        self.sim.set_defer_os(node, true);
                    }
                    for rv in self.rendezvous.iter_mut().filter(|r| r.node == node) {
                        rv.sessions.clear();
                        self.sim.tcp_listen(node, rv.port);
                    }
                    for (n, p, queue) in &mut self.listeners {
                        if *n == node {
                            queue.clear();
                            self.sim.tcp_listen(node, *p);
                        }
                    }
                    for s in &mut self.tcp_sinks {
                        if s.node == node {
                            s.conns.clear();
                            self.sim.tcp_listen(node, s.port);
                        }
                    }
                    for e in &self.udp_echoes {
                        if e.node == node {
                            self.sim.udp_bind(node, e.port);
                        }
                    }
                }
            }
        }
        // Controller-side listener accepts.
        for (node, port, queue) in &mut self.listeners {
            while let Some(conn) = self.sim.tcp_accept(*node, *port) {
                queue.push(conn);
            }
        }
        // TCP sinks: accept, then drain every connection. Serviced
        // unconditionally (sparse mode included) — sink worlds have a
        // handful of sinks, and the receive window a drain reopens must
        // open at the delivery event's instant, not a later dirty pass.
        for s in &mut self.tcp_sinks {
            while let Some(conn) = self.sim.tcp_accept(s.node, s.port) {
                s.conns.push(conn);
            }
            for &conn in &s.conns {
                while !self.sim.tcp_recv(s.node, conn, 65536).is_empty() {}
            }
        }
        // UDP echo services: bounce every arrival back to its source.
        // Serviced unconditionally, like the TCP sinks — the echo must
        // depart at the delivery event's instant.
        for e in &self.udp_echoes {
            for (_t, src, src_port, payload) in self.sim.udp_recv(e.node, e.port) {
                self.sim.udp_send(e.node, e.port, src, src_port, &payload);
            }
        }
        let fired = self.sim.take_fired_timers();
        if self.sparse {
            // Service only agents on nodes the simulator touched. Dirty
            // nodes arrive in first-touch order (shard-major); mapping to
            // sorted agent indices makes the service order a pure function
            // of the event sequence regardless of touch order.
            let dirty = self.sim.take_dirty_nodes();
            self.serviced.extend_from_slice(&dirty);
            let mut eps: Vec<usize> = Vec::new();
            let mut rvs: Vec<usize> = Vec::new();
            for n in &dirty {
                if let Some(v) = self.node_eps.get(&n.0) {
                    eps.extend_from_slice(v);
                }
                if let Some(v) = self.node_rvs.get(&n.0) {
                    rvs.extend_from_slice(v);
                }
            }
            // Timer fires mark dirty at the simulator, but be robust to
            // timers armed before tracking was switched on.
            for (n, _) in &fired {
                if let Some(v) = self.node_eps.get(&n.0) {
                    eps.extend_from_slice(v);
                }
            }
            eps.sort_unstable();
            eps.dedup();
            rvs.sort_unstable();
            rvs.dedup();
            for i in eps {
                self.service_endpoint(i, &fired);
            }
            for i in rvs {
                self.service_rendezvous(i);
            }
        } else {
            self.process_endpoints(&fired);
            self.process_rendezvous();
        }
    }

    fn process_endpoints(&mut self, fired: &[(NodeId, u64)]) {
        for i in 0..self.endpoints.len() {
            self.service_endpoint(i, fired);
        }
    }

    fn service_endpoint(&mut self, i: usize, fired: &[(NodeId, u64)]) {
        // Accept new control connections (the reactor refuses over-capacity
        // ones with a typed Busy response and closes them after flushing).
        loop {
            let ep = &mut self.endpoints[i];
            let Some(conn) = self.sim.tcp_accept(ep.node, ep.port) else {
                break;
            };
            ep.reactor.accept(conn);
        }

        let node = self.endpoints[i].node;

        // Deferred OS packets: capture + disposition.
        let pending = self.sim.take_pending_os(node);
        for (time, pkt) in pending {
            let disposition = {
                let (reactor, mut stack) = self.endpoint_io(i);
                reactor.on_packet(time, &pkt, &mut stack)
            };
            if disposition != RawDisposition::Consume {
                self.sim.os_process(node, &pkt);
            }
            self.flush_endpoint(i);
        }

        // Timers for this node.
        for (t_node, key) in fired {
            if *t_node == node {
                let (reactor, mut stack) = self.endpoint_io(i);
                reactor.on_wakeup(*key, &mut stack);
                self.flush_endpoint(i);
            }
        }

        // Note which connections died before draining them: they close
        // after the dispatch, so a dying session's buffered commands run.
        let dead: Vec<u64> = {
            let ep = &self.endpoints[i];
            ep.reactor
                .sessions()
                .filter(|&(_, conn)| {
                    self.sim.tcp_closed(node, conn) || self.sim.tcp_peer_done(node, conn)
                })
                .map(|(sid, _)| sid)
                .collect()
        };

        // Readiness-poll inbound bytes, dispatch queued commands under
        // deficit round-robin, then tear down dead connections.
        {
            let (reactor, mut stack) = self.endpoint_io(i);
            reactor.pump(&mut stack);
            reactor.dispatch(&mut stack);
            for sid in dead {
                reactor.on_conn_closed(sid, &mut stack);
            }
        }
        self.flush_endpoint(i);

        // Rendezvous announcements.
        self.drain_endpoint_rendezvous(i);

        // Periodic service.
        {
            let (reactor, mut stack) = self.endpoint_io(i);
            reactor.service(&mut stack);
        }
        self.flush_endpoint(i);
    }

    /// Endpoint `i`'s reactor and the [`SimStack`] it runs over: its node's
    /// shard, with the endpoint's NAT address and raw-socket capability.
    fn endpoint_io(&mut self, i: usize) -> (&mut EndpointReactor, SimStack<'_>) {
        let ep = &mut self.endpoints[i];
        let stack = SimStack {
            sim: self.sim.shard_mut(ep.node),
            node: ep.node,
            ext_addr: ep.ext_addr,
            raw_ok: ep.raw_ok,
        };
        (&mut ep.reactor, stack)
    }

    /// Transmit an endpoint's queued outbound frames (and close rejected
    /// or poisoned connections whose queues drained).
    fn flush_endpoint(&mut self, i: usize) {
        let (reactor, mut stack) = self.endpoint_io(i);
        reactor.flush(&mut stack);
    }

    fn drain_endpoint_rendezvous(&mut self, i: usize) {
        let node = self.endpoints[i].node;
        let Some((conn, dec)) = &mut self.endpoints[i].rv_conn else {
            return;
        };
        let conn = *conn;
        dec.fill(|max| self.sim.tcp_recv(node, conn, max));
        loop {
            let frame = match &mut self.endpoints[i].rv_conn {
                Some((_, dec)) => dec.next_frame(),
                None => Ok(None),
            };
            let payload = match frame {
                Ok(Some(payload)) => payload,
                Ok(None) => break,
                Err(_) => {
                    // A poisoned stream has no framing left to recover:
                    // hang up rather than hold a connection that can
                    // never deliver another announcement.
                    self.sim.tcp_close(node, conn);
                    self.endpoints[i].rv_conn = None;
                    break;
                }
            };
            if let Some(RvMessage::Announce { descriptor, .. }) = RvMessage::decode(&payload) {
                self.endpoints[i].announcements.push(descriptor.clone());
                if self.endpoints[i].auto_dial {
                    if let Some(desc) = crate::descriptor::ExperimentDescriptor::decode(&descriptor)
                    {
                        if !self.endpoints[i].dialed.contains(&desc.controller_addr) {
                            if let Some((addr, port)) = parse_addr(&desc.controller_addr) {
                                // "an endpoint contacts the experiment
                                // controller given in the descriptor".
                                let conn = self.sim.tcp_connect(node, addr, port);
                                let ep = &mut self.endpoints[i];
                                ep.reactor.accept(conn);
                                ep.dialed.push(desc.controller_addr.clone());
                            }
                        }
                    }
                }
            }
        }
    }

    fn process_rendezvous(&mut self) {
        for i in 0..self.rendezvous.len() {
            self.service_rendezvous(i);
        }
    }

    fn service_rendezvous(&mut self, i: usize) {
        loop {
            let rv = &mut self.rendezvous[i];
            let Some(conn) = self.sim.tcp_accept(rv.node, rv.port) else {
                break;
            };
            let sid = rv.next_sid;
            rv.next_sid += 1;
            rv.sessions.insert(sid, SessionConn { conn, decoder: FrameDecoder::new() });
        }
        let node = self.rendezvous[i].node;
        // Service sessions in sid order — HashMap iteration order must
        // never decide who is drained (and thus who publishes) first.
        let mut sids: Vec<u64> = self.rendezvous[i].sessions.keys().copied().collect();
        sids.sort_unstable();
        for sid in sids {
            // A session can be pruned mid-pass when a publish batch finds
            // its connection already closed; skip it here rather than
            // draining a stale slot.
            let Some((conn, mut closed)) = self.rendezvous[i]
                .sessions
                .get(&sid)
                .map(|sc| sc.conn)
                .map(|c| {
                    (c, self.sim.tcp_closed(node, c) || self.sim.tcp_peer_done(node, c))
                })
            else {
                continue;
            };
            let decoder = &mut self.rendezvous[i].sessions.get_mut(&sid).unwrap().decoder;
            decoder.fill(|max| self.sim.tcp_recv(node, conn, max));
            loop {
                let frame =
                    self.rendezvous[i].sessions.get_mut(&sid).unwrap().decoder.next_frame();
                let payload = match frame {
                    Ok(Some(payload)) => payload,
                    Ok(None) => break,
                    Err(_) => {
                        // The decoder answers `Err` for good: hang up, or
                        // the session (and its subscriber slot) would live
                        // until the peer chose to close.
                        self.sim.tcp_close(node, conn);
                        closed = true;
                        break;
                    }
                };
                let Some(msg) = RvMessage::decode(&payload) else { continue };
                let replies = self.rendezvous[i].server.on_message(sid, msg);
                for (to_sid, reply) in replies {
                    let to_conn = self.rendezvous[i]
                        .sessions
                        .get(&to_sid)
                        .map(|sc| sc.conn);
                    match to_conn {
                        Some(c)
                            if !self.sim.tcp_closed(node, c)
                                && !self.sim.tcp_peer_done(node, c) =>
                        {
                            let frame = rv_frame(&reply);
                            self.sim.tcp_send(node, c, &frame);
                        }
                        Some(_) if to_sid != sid => {
                            // The subscriber hung up during the publish
                            // batch: its sid still maps to a dead
                            // connection. Waking it would queue bytes on
                            // a closed socket — drop the session now so
                            // the rest of the batch sees it gone.
                            self.rendezvous[i].sessions.remove(&to_sid);
                            self.rendezvous[i].server.on_session_closed(to_sid);
                        }
                        // The session being drained hung up behind its own
                        // message: its buffered frames still run, and it is
                        // pruned below.
                        _ => {}
                    }
                }
            }
            if closed {
                self.rendezvous[i].sessions.remove(&sid);
                self.rendezvous[i].server.on_session_closed(sid);
            }
        }
    }

}

fn rv_frame(msg: &RvMessage) -> Vec<u8> {
    crate::wire::framed(|w| msg.write(w))
}

fn parse_addr(s: &str) -> Option<(Ipv4Addr, u16)> {
    let (host, port) = s.rsplit_once(':')?;
    Some((host.parse().ok()?, port.parse().ok()?))
}

/// A control channel over a [`SimNet`] TCP connection. The controller
/// "runs" on a simulated host; waiting for a reply advances virtual time.
pub struct SimChannel {
    net: Rc<RefCell<SimNet>>,
    node: NodeId,
    conn: u64,
    decoder: FrameDecoder,
}

impl SimChannel {
    /// Dial an endpoint's control port from `node`.
    pub fn connect(net: &Rc<RefCell<SimNet>>, node: NodeId, endpoint: Ipv4Addr) -> SimChannel {
        let conn = {
            let mut n = net.borrow_mut();
            let conn = n.sim.tcp_connect(node, endpoint, CONTROL_PORT);
            // Let the handshake complete: pump events until the connection
            // establishes or a generous deadline passes.
            let deadline = n.sim.now() + 10 * plab_netsim::SECOND;
            while !n.sim.tcp_established(node, conn)
                && n.sim.next_event_time().is_some_and(|t| t <= deadline)
            {
                n.step();
            }
            conn
        };
        SimChannel { net: Rc::clone(net), node, conn, decoder: FrameDecoder::new() }
    }

    /// Wrap a connection accepted by a controller listener (the
    /// endpoint-dialed direction).
    pub fn from_accepted(net: &Rc<RefCell<SimNet>>, node: NodeId, conn: u64) -> SimChannel {
        SimChannel { net: Rc::clone(net), node, conn, decoder: FrameDecoder::new() }
    }

    fn drain(&mut self) {
        let mut n = self.net.borrow_mut();
        self.decoder.fill(|max| n.sim.tcp_recv(self.node, self.conn, max));
    }

    /// The harness (for experiment code needing controller-host sockets,
    /// e.g. the §4 bandwidth experiment's UDP sink).
    pub fn net(&self) -> Rc<RefCell<SimNet>> {
        Rc::clone(&self.net)
    }

    /// Bind a UDP port on the controller host.
    pub fn udp_bind(&self, port: u16) -> bool {
        self.net.borrow_mut().sim.udp_bind(self.node, port)
    }

    /// The controller host's address (for descriptors and UDP sinks).
    pub fn addr(&self) -> Ipv4Addr {
        let n = self.net.borrow();
        n.sim.addr_of(self.node)
    }

    /// Advance virtual time (used by experiments waiting on wall-clock
    /// style conditions rather than control messages).
    pub fn wait_until(&self, time: u64) {
        self.net.borrow_mut().run_until(time);
    }

    /// Whether the underlying TCP connection is currently established.
    pub fn is_established(&self) -> bool {
        self.net.borrow().sim.tcp_established(self.node, self.conn)
    }
}

impl aio::Sink for SimChannel {
    fn sink_addr(&self) -> Ipv4Addr {
        self.addr()
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        self.udp_bind(port)
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        udp_take(&self.net, self.node, port)
    }

    async fn wait_until(&mut self, time: u64) {
        SimChannel::wait_until(self, time)
    }
}

impl SinkHost for SimChannel {}

/// Drain UDP arrivals on `node`:`port` in the [`aio::Sink::sink_take`]
/// shape.
fn udp_take(
    net: &Rc<RefCell<SimNet>>,
    node: NodeId,
    port: u16,
) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
    let arrivals = net.borrow_mut().sim.udp_recv(node, port);
    arrivals.into_iter().map(|(t, a, p, d)| (t, a, p, probe_seq(&d), d.len())).collect()
}

/// A dialer that connects to one endpoint's control port over the
/// simulation, giving [`crate::controller::robust::RobustController`] the
/// ability to re-establish its channel after faults.
pub struct SimDialer {
    net: Rc<RefCell<SimNet>>,
    node: NodeId,
    endpoint: Ipv4Addr,
}

impl SimDialer {
    /// Dialer from controller host `node` to the endpoint at `endpoint`.
    pub fn new(net: &Rc<RefCell<SimNet>>, node: NodeId, endpoint: Ipv4Addr) -> SimDialer {
        SimDialer { net: Rc::clone(net), node, endpoint }
    }
}

impl aio::Dialer for SimDialer {
    type Chan = SimChannel;

    async fn dial(&mut self) -> Option<SimChannel> {
        let chan = SimChannel::connect(&self.net, self.node, self.endpoint);
        // connect() pumps the handshake; if it did not establish (endpoint
        // down, link cut), report failure — dropping the channel closes
        // the half-open attempt.
        if chan.is_established() {
            Some(chan)
        } else {
            None
        }
    }

    fn now(&self) -> u64 {
        self.net.borrow().sim.now()
    }

    async fn wait_until(&mut self, time: u64) {
        self.net.borrow_mut().run_until(time);
    }
}

impl Dialer for SimDialer {}

impl aio::Sink for SimDialer {
    fn sink_addr(&self) -> Ipv4Addr {
        let n = self.net.borrow();
        n.sim.addr_of(self.node)
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        self.net.borrow_mut().sim.udp_bind(self.node, port)
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        udp_take(&self.net, self.node, port)
    }

    async fn wait_until(&mut self, time: u64) {
        self.net.borrow_mut().run_until(time);
    }
}

impl SinkHost for SimDialer {}

impl Drop for SimChannel {
    fn drop(&mut self) {
        // Close the control connection so the endpoint tears the session
        // down (releasing its sockets), as a real client process exit
        // would. try_borrow: dropping during a panic must not double-panic.
        if let Ok(mut n) = self.net.try_borrow_mut() {
            n.sim.tcp_close(self.node, self.conn);
            let now = n.sim.now();
            n.run_until(now + plab_netsim::SECOND);
        }
    }
}

impl aio::Channel for SimChannel {
    async fn send(&mut self, msg: &Message) {
        let frame = msg.to_frame();
        let mut n = self.net.borrow_mut();
        n.sim.tcp_send(self.node, self.conn, &frame);
        n.process();
    }

    async fn recv(&mut self, deadline: Option<u64>) -> Option<Message> {
        loop {
            self.drain();
            match self.decoder.next_message() {
                Ok(Some(m)) => return Some(m),
                Ok(None) => {}
                Err(_) => return None,
            }
            // Advance the world.
            let mut n = self.net.borrow_mut();
            n.process();
            let next = n.sim.next_event_time();
            match (next, deadline) {
                (Some(t), Some(d)) if t > d => {
                    n.run_until(d);
                    drop(n);
                    self.drain();
                    return self.decoder.next_message().ok().flatten();
                }
                (Some(_), _) => {
                    n.step();
                }
                (None, Some(d)) => {
                    n.run_until(d);
                    drop(n);
                    self.drain();
                    return self.decoder.next_message().ok().flatten();
                }
                (None, None) => return None,
            }
        }
    }

    fn now(&self) -> u64 {
        self.net.borrow().sim.now()
    }
}

impl ControlChannel for SimChannel {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_addr_accepts_host_port() {
        assert_eq!(
            parse_addr("10.0.0.1:7000"),
            Some(("10.0.0.1".parse().unwrap(), 7000))
        );
        assert_eq!(parse_addr("not-an-addr"), None);
        assert_eq!(parse_addr("10.0.0.1:"), None);
        assert_eq!(parse_addr(":80"), None);
        assert_eq!(parse_addr("300.0.0.1:80"), None);
    }

    #[test]
    fn endpoint_id_helpers() {
        assert_eq!(EndpointId::first(), EndpointId::index(0));
        assert_ne!(EndpointId::first(), EndpointId::index(1));
    }

    #[test]
    fn simnet_smoke() {
        let mut t = plab_netsim::TopologyBuilder::new();
        let a = t.host("a", "10.0.0.1".parse().unwrap());
        let b = t.host("b", "10.0.0.2".parse().unwrap());
        t.link(a, b, plab_netsim::LinkParams::new(1, 0));
        let mut net = SimNet::new(t.build());
        let id = net.add_endpoint(a, crate::endpoint::EndpointConfig::default());
        assert_eq!(net.endpoint_agent(id).session_count(), 0);
        net.run_until(plab_netsim::SECOND);
        assert!(net.sim.now() >= plab_netsim::SECOND);
    }
}
