//! Simulation harness: runs endpoints, rendezvous servers, and controller
//! channels over a `plab-netsim` topology in deterministic lockstep.
//!
//! The harness is the "deployment" of the reproduction: endpoint agents
//! listen for control connections on their simulated hosts, rendezvous
//! servers accept publishes and subscriptions, controllers connect through
//! [`SimChannel`], and everything advances on the simulator's virtual
//! clock. Experiment code is identical to what would run against real
//! endpoints — only the [`crate::controller::aio::Channel`]
//! implementation differs.
//!
//! The controller side is written once for both drivers of the
//! controller library: [`SimHost`] (dialer and UDP sink) and
//! [`SimChannel`] (control channel) reach the world and wait in it
//! through a [`Driver`]. Under the harness's own, `Rc<RefCell<SimNet>>`
//! ([`SimDialer`], [`SimChannel::connect`]), they advance the simulator
//! themselves until an operation is done, so their `async fn`s never
//! suspend and both carry the blocking shells
//! ([`crate::controller::ControlChannel`] and friends); the fleet runner's
//! driver parks its task on a [`Wait`] instead.

use crate::controller::robust::Dialer;
use crate::controller::{aio, probe_seq, ControlChannel, SinkHost};
use crate::endpoint::{EndpointAgent, EndpointConfig};
use crate::reactor::EndpointReactor;
use crate::rendezvous::{RendezvousServer, RvMessage};
use crate::netstack::SimStack;
use crate::wire::{FrameDecoder, Message};
use plab_netsim::{Frame, NodeId, NodeTransition, RawDisposition, ShardedSim, Sim, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Default endpoint control port.
pub const CONTROL_PORT: u16 = 6000;
/// Default rendezvous port.
pub const RENDEZVOUS_PORT: u16 = 5999;

struct SessionConn {
    sid: u64,
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
    /// Open sessions in ascending sid order, looked up with
    /// [`crate::reactor::slot`] (as the reactor and the agent keep theirs).
    sessions: Vec<SessionConn>,
    next_sid: u64,
}

impl RvHost {
    /// Session `sid`'s row, if it is open.
    fn at(&self, sid: u64) -> Option<usize> {
        crate::reactor::slot(&self.sessions, sid, |s| s.sid)
    }

    /// Drop open session `sid` and tell the server.
    fn end(&mut self, sid: u64) {
        if let Some(k) = self.at(sid) {
            self.sessions.remove(k);
        }
        self.server.on_session_closed(sid);
    }
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

/// Indices into the harness's host lists, one list per kind, indexed by
/// [`SINK`], [`ECHO`], [`EP`] and [`RV`] (the order a pass services them
/// in): the hosts on one node, or those one pass services.
type Hosts = [Vec<usize>; 4];
const SINK: usize = 0;
const ECHO: usize = 1;
const EP: usize = 2;
const RV: usize = 3;

/// What a pass drains the simulator into and selects, kept between passes
/// (cleared, capacity kept) so a steady pass allocates nothing.
#[derive(Default)]
struct Scratch {
    dirty: Vec<NodeId>,
    fired: Vec<(NodeId, u64)>,
    transitions: Vec<NodeTransition>,
    pending: Vec<(SimTime, Frame)>,
    hosts: Hosts,
    dead: Vec<u64>,
}

/// Handle identifying an endpoint within a [`SimNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointId(usize);

impl EndpointId {
    /// The first endpoint added to the harness.
    pub fn first() -> EndpointId {
        EndpointId(0)
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
    /// Sparse servicing, the fleet's contract (see [`SimNet::set_sparse`]).
    sparse: bool,
    /// node index → the hosts on that node.
    on_node: HashMap<usize, Hosts>,
    /// Dense: the endpoints the last pass left work to that no event
    /// announces (see [`SimNet::process`]).
    unsettled: Vec<usize>,
    /// Sparse mode: the dirty nodes of every pass, for an external
    /// scheduler to drain via [`SimNet::drain_serviced_nodes`].
    serviced: Vec<NodeId>,
    scratch: Scratch,
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
    pub fn new_sharded(mut sim: ShardedSim) -> Self {
        sim.set_track_dirty();
        SimNet {
            sim,
            endpoints: Vec::new(),
            rendezvous: Vec::new(),
            tcp_sinks: Vec::new(),
            udp_echoes: Vec::new(),
            listeners: Vec::new(),
            sparse: false,
            on_node: HashMap::new(),
            unsettled: Vec::new(),
            serviced: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Drain the nodes serviced since the last call (sparse mode only).
    /// May contain duplicates.
    pub fn drain_serviced_nodes(&mut self) -> impl Iterator<Item = NodeId> + '_ {
        self.serviced.drain(..)
    }

    /// Switch on sparse servicing, the fleet runner's contract (RUNNER.md):
    /// [`SimNet::step`] is [`SimNet::step_quiet`]; a pass services the
    /// hosts on the nodes the simulator touched and no others, even those
    /// with work no event announces (see [`SimNet::process`]); and the
    /// nodes each pass serviced accumulate for
    /// [`SimNet::drain_serviced_nodes`] (the runner re-examines the tasks
    /// parked on them), so whoever switches this on drains that list.
    pub fn set_sparse(&mut self) {
        self.sparse = true;
        self.unsettled.clear();
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
        self.sim.set_defer_os(node);
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
        self.on_node.entry(node.0).or_default()[EP].push(idx);
        EndpointId(idx)
    }

    /// Install a rendezvous server on `node`.
    pub fn add_rendezvous(&mut self, node: NodeId, server: RendezvousServer) {
        self.sim.tcp_listen(node, RENDEZVOUS_PORT);
        self.rendezvous.push(RvHost {
            node,
            server,
            port: RENDEZVOUS_PORT,
            sessions: Vec::new(),
            next_sid: 1,
        });
        self.on_node.entry(node.0).or_default()[RV].push(self.rendezvous.len() - 1);
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
        self.on_node.entry(node.0).or_default()[SINK].push(self.tcp_sinks.len());
        self.tcp_sinks.push(TcpSinkHost { node, port, conns: Vec::new() });
    }

    /// Install a UDP echo service (RFC 862) on `node`:`port`: every
    /// datagram received is sent back to its source as the harness
    /// services agents. The bwest dispersion probe's destination side.
    pub fn add_udp_echo(&mut self, node: NodeId, port: u16) {
        self.sim.udp_bind(node, port);
        self.on_node.entry(node.0).or_default()[ECHO].push(self.udp_echoes.len());
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
    /// false when no event was pending. Dense: [`SimNet::process`]'s pass
    /// after the event (the last step or send serviced all before it), and
    /// for the endpoints it serviced that it left a control connection
    /// queued on, a catch-up at the same instant. Sparse:
    /// [`SimNet::step_quiet`] with no instant to keep going before.
    pub fn step(&mut self) -> bool {
        if self.sparse {
            return self.step_quiet(0);
        }
        let stepped = self.sim.step();
        let hosts = self.serve();
        for &i in &hosts[EP] {
            let ep = &mut self.endpoints[i];
            if let Some(conn) = self.sim.tcp_accept(ep.node, ep.port) {
                ep.reactor.accept(conn);
                self.service_endpoint(i, &[]);
            }
        }
        self.settle(hosts);
        stepped
    }

    /// What a pass that did anything changes.
    fn activity(&self) -> (u64, usize) {
        let sessions = self.endpoints.iter().map(|e| {
            e.reactor.sessions().count() + e.reactor.agent().session_count()
        });
        let rv_sessions = self.rendezvous.iter().map(|r| r.sessions.len());
        (self.sim.activity(), sessions.chain(rv_sessions).sum())
    }

    /// One event between two `process()` passes (the sparse contract,
    /// RUNNER.md), and then every following event strictly before
    /// `before` for as long as the simulator stays quiet
    /// ([`ShardedSim::quiet`]: the events so far marked
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
                self.pass(false);
                let after = (self.serviced.len(), self.sim.next_event_time(), self.sim.quiet());
                assert_eq!(after, (serviced, next, true), "a quiet event left agents work");
            }
            self.sim.step();
        }
        self.process();
        stepped
    }

    /// Service, once, the hosts with anything to do at the current instant
    /// (`harness.passes`): those on nodes the simulator touched since the
    /// last pass. Dense, also the endpoints the last pass left work that
    /// no event announces, and every rendezvous server; and no pass at all
    /// when there are none of these. An endpoint accepts before it hands
    /// deferred OS segments to the stack, which may complete a handshake.
    pub fn process(&mut self) {
        let hosts = self.serve();
        self.settle(hosts);
    }

    /// [`SimNet::process`]'s pass, returning the hosts it serviced.
    fn serve(&mut self) -> Hosts {
        static PASSES: plab_obs::metrics::Counter =
            plab_obs::metrics::Counter::new("harness.passes");
        let idle = self.sim.quiet() && self.unsettled.is_empty() && self.rendezvous.is_empty();
        if !self.sparse && idle {
            return std::mem::take(&mut self.scratch.hosts);
        }
        PASSES.inc();
        self.pass(false)
    }

    /// Dense: note which of the endpoints just serviced are unsettled.
    /// Debug builds then service every host the next pass may leave out
    /// and assert that it did nothing.
    fn settle(&mut self, mut hosts: Hosts) {
        if !self.sparse {
            let mut unsettled = std::mem::take(&mut self.unsettled);
            unsettled.clear();
            unsettled.extend(hosts[EP].iter().filter(|&&i| self.endpoint_unsettled(i)));
            self.unsettled = unsettled;
            if cfg!(debug_assertions) {
                let before = self.activity();
                self.pass(true);
                assert_eq!(self.activity(), before, "a skipped servicing pass had work");
            }
        }
        hosts.iter_mut().for_each(Vec::clear);
        self.scratch.hosts = hosts;
    }

    /// Has endpoint `i` work that no event on its node will announce? A
    /// detached session, whose linger window runs on the clock; commands
    /// backpressure held back; a connection that died after its service
    /// noted the dead ones; a control connection whose handshake a
    /// deferred segment completed after its service accepted.
    fn endpoint_unsettled(&self, i: usize) -> bool {
        let ep = &self.endpoints[i];
        ep.reactor.agent().lingering()
            || ep.reactor.queued_in_messages() > 0
            || ep.reactor.sessions().any(|(_, conn)| self.gone(ep.node, conn))
            || self.sim.tcp_acceptable(ep.node, ep.port)
    }

    /// Is `conn` on `node` closed, or has its peer finished and been read?
    fn gone(&self, node: NodeId, conn: u64) -> bool {
        self.sim.tcp_closed(node, conn) || self.sim.tcp_peer_done(node, conn)
    }

    /// What [`SimNet::process`] services, each kind in index order: nodes
    /// arrive in first-touch order (shard-major), and sorting makes the
    /// service order a pure function of the event sequence.
    fn marked(&mut self, fired: &[(NodeId, u64)]) -> Hosts {
        let mut hosts = std::mem::take(&mut self.scratch.hosts);
        let dirty = &mut self.scratch.dirty;
        self.sim.drain_dirty_nodes(dirty);
        for n in dirty.iter().chain(fired.iter().map(|(n, _)| n)) {
            for (all, here) in hosts.iter_mut().zip(self.on_node.get(&n.0).into_iter().flatten()) {
                all.extend_from_slice(here);
            }
        }
        if self.sparse {
            self.serviced.extend_from_slice(dirty);
        } else {
            hosts[EP].extend_from_slice(&self.unsettled);
            hosts[RV].extend(0..self.rendezvous.len());
        }
        dirty.clear();
        for kind in &mut hosts {
            kind.sort_unstable();
            kind.dedup();
        }
        hosts
    }

    /// A pass over the hosts [`SimNet::marked`] selects, or (`check`) over
    /// every host but the unsettled endpoints and the rendezvous servers,
    /// which the next pass services anyway; returns the hosts it serviced.
    fn pass(&mut self, check: bool) -> Hosts {
        // Crash/restart transitions: a crashed endpoint host loses its
        // agent process with it; a restarted one boots a fresh agent (same
        // operator config) and re-opens its control listener. Experiment
        // state does NOT survive a crash — that is the distinction from a
        // mere control-channel loss, which `session_linger_ns` rides out.
        let mut transitions = std::mem::take(&mut self.scratch.transitions);
        self.sim.drain_node_transitions(&mut transitions);
        for tr in transitions.drain(..) {
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
                        self.sim.set_defer_os(node);
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
        self.scratch.transitions = transitions;
        // Controller-side listener accepts.
        for (node, port, queue) in &mut self.listeners {
            while let Some(conn) = self.sim.tcp_accept(*node, *port) {
                queue.push(conn);
            }
        }
        let mut fired = std::mem::take(&mut self.scratch.fired);
        self.sim.drain_fired_timers(&mut fired);
        let hosts = if check {
            let (sinks, echoes) = (self.tcp_sinks.len(), self.udp_echoes.len());
            let lens = [sinks, echoes, self.endpoints.len(), 0];
            let mut hosts: Hosts = lens.map(|n| (0..n).collect());
            hosts[EP].retain(|i| !self.unsettled.contains(i));
            hosts
        } else {
            self.marked(&fired)
        };
        // TCP sinks: accept, then drain every connection, at the delivery
        // event's instant (the receive window a drain reopens opens then).
        for &i in &hosts[SINK] {
            let s = &mut self.tcp_sinks[i];
            while let Some(conn) = self.sim.tcp_accept(s.node, s.port) {
                s.conns.push(conn);
            }
            for &conn in &s.conns {
                while !self.sim.tcp_recv(s.node, conn, 65536).is_empty() {}
            }
        }
        // UDP echo services: bounce every arrival back to its source, at
        // the delivery event's instant.
        for &i in &hosts[ECHO] {
            let e = &self.udp_echoes[i];
            for (_t, src, src_port, payload) in self.sim.udp_recv(e.node, e.port) {
                self.sim.udp_send(e.node, e.port, src, src_port, &payload);
            }
        }
        for &i in &hosts[EP] {
            self.service_endpoint(i, &fired);
        }
        for &i in &hosts[RV] {
            self.service_rendezvous(i);
        }
        fired.clear();
        self.scratch.fired = fired;
        hosts
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
        let mut pending = std::mem::take(&mut self.scratch.pending);
        self.sim.drain_pending_os(node, &mut pending);
        for (time, pkt) in pending.drain(..) {
            let disposition = {
                let (reactor, mut stack) = self.endpoint_io(i);
                reactor.on_packet(time, &pkt, &mut stack)
            };
            if disposition != RawDisposition::Consume {
                self.sim.os_process(node, &pkt);
            }
            self.flush_endpoint(i);
        }
        self.scratch.pending = pending;

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
        let mut dead = std::mem::take(&mut self.scratch.dead);
        let sessions = self.endpoints[i].reactor.sessions();
        dead.extend(sessions.filter(|&(_, conn)| self.gone(node, conn)).map(|(sid, _)| sid));

        // Readiness-poll inbound bytes, dispatch queued commands under
        // deficit round-robin, then tear down dead connections.
        {
            let (reactor, mut stack) = self.endpoint_io(i);
            reactor.pump(&mut stack);
            reactor.dispatch(&mut stack);
            for sid in dead.drain(..) {
                reactor.on_conn_closed(sid, &mut stack);
            }
        }
        self.scratch.dead = dead;
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

    fn service_rendezvous(&mut self, i: usize) {
        loop {
            let rv = &mut self.rendezvous[i];
            let Some(conn) = self.sim.tcp_accept(rv.node, rv.port) else {
                break;
            };
            rv.sessions.push(SessionConn { sid: rv.next_sid, conn, decoder: FrameDecoder::new() });
            rv.next_sid += 1;
        }
        let node = self.rendezvous[i].node;
        // Service sessions in sid order, each once: `from` is the lowest
        // sid not yet serviced. A session can be pruned mid-pass when a
        // publish batch finds its connection already closed; it is gone
        // before its turn comes.
        let mut from = 0;
        loop {
            let rv = &self.rendezvous[i];
            let k = rv.sessions.partition_point(|s| s.sid < from);
            let Some(&SessionConn { sid, conn, .. }) = rv.sessions.get(k) else { break };
            from = sid + 1;
            let mut closed = self.gone(node, conn);
            let decoder = &mut self.rendezvous[i].sessions[k].decoder;
            decoder.fill(|max| self.sim.tcp_recv(node, conn, max));
            loop {
                // Lower sessions a batch pruned shift this one's row; it
                // outlives its own batch.
                let rv = &mut self.rendezvous[i];
                let k = rv.at(sid).expect("a session outlives its own batch");
                let payload = match rv.sessions[k].decoder.next_frame() {
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
                let replies = rv.server.on_message(sid, msg);
                for (to_sid, reply) in replies {
                    let rv = &self.rendezvous[i];
                    match rv.at(to_sid).map(|k| rv.sessions[k].conn) {
                        Some(c) if !self.gone(node, c) => {
                            let frame = rv_frame(&reply);
                            self.sim.tcp_send(node, c, &frame);
                        }
                        // The subscriber hung up during the publish batch:
                        // its sid still maps to a dead connection. Waking
                        // it would queue bytes on a closed socket — drop
                        // the session now so the rest of the batch sees it
                        // gone.
                        Some(_) if to_sid != sid => self.rendezvous[i].end(to_sid),
                        // The session being drained hung up behind its own
                        // message: its buffered frames still run, and it is
                        // pruned below.
                        _ => {}
                    }
                }
            }
            if closed {
                self.rendezvous[i].end(sid);
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

/// How long a dial waits for its handshake before it counts as failed.
const DIAL_DEADLINE: u64 = 10 * plab_netsim::SECOND;

/// What a simulated controller host waits for.
#[derive(Clone, Copy, Debug)]
pub enum Wait {
    /// Readable data on `conn` (or its close, or the deadline).
    Data {
        /// The connection.
        conn: u64,
        /// Give up here, if anywhere.
        deadline: Option<u64>,
    },
    /// TCP establishment of `conn` (or its close, or the deadline).
    Established {
        /// The connection.
        conn: u64,
        /// Give up here.
        deadline: u64,
    },
    /// A point in virtual time.
    Until(u64),
}

impl Wait {
    /// Does the world, seen from controller host `node`, satisfy this
    /// wait at this instant?
    #[inline]
    pub fn holds(self, sim: &ShardedSim, node: NodeId) -> bool {
        let now = sim.now();
        match self {
            Wait::Data { conn, deadline } => {
                sim.tcp_readable(node, conn) > 0
                    || sim.tcp_closed(node, conn)
                    || sim.tcp_peer_done(node, conn)
                    || deadline.is_some_and(|d| d <= now)
            }
            Wait::Established { conn, deadline } => {
                sim.tcp_established(node, conn) || sim.tcp_closed(node, conn) || deadline <= now
            }
            Wait::Until(t) => t <= now,
        }
    }

    /// When to look again even if nothing touches the node.
    #[inline]
    pub fn deadline(self) -> Option<u64> {
        match self {
            Wait::Data { deadline, .. } => deadline,
            Wait::Established { deadline, .. } => Some(deadline),
            Wait::Until(t) => Some(t),
        }
    }
}

/// How a simulated controller host reaches its world and waits in it: the
/// one thing [`SimHost`] and [`SimChannel`] leave to their driver.
/// `Rc<RefCell<SimNet>>` steps the simulator until a wait is over, so its
/// futures never suspend; the fleet runner's task handle parks instead.
#[allow(async_fn_in_trait)] // single-threaded drivers: no `Send` bound wanted
pub trait Driver: Clone {
    /// Run `op` on the world at once, or answer `gave_up` if this driver
    /// may no longer touch it.
    fn with<T>(&self, gave_up: T, op: impl FnOnce(&mut SimNet) -> T) -> T;
    /// Wait until the world, seen from `node`, satisfies `wait`. False if
    /// the driver gave up instead.
    async fn until(&self, node: NodeId, wait: Wait) -> bool;
    /// After a frame was sent.
    fn sent(&self) {}
    /// After a connection was closed.
    fn closed(&self) {}
}

/// The harness's driver: every wait steps the simulator, so no future of
/// a [`SimChannel`] or [`SimDialer`] ever suspends.
impl Driver for Rc<RefCell<SimNet>> {
    fn with<T>(&self, _: T, op: impl FnOnce(&mut SimNet) -> T) -> T {
        op(&mut self.borrow_mut())
    }

    /// A data wait steps one event at a time while one is due by the
    /// deadline, and a close does not end it; at the deadline it runs the
    /// world there and gives up, so the caller reads once more. A dial
    /// steps while the connection is unestablished and an event is due.
    async fn until(&self, node: NodeId, wait: Wait) -> bool {
        let n = &mut *self.borrow_mut();
        match wait {
            Wait::Data { conn, deadline } => {
                while n.sim.tcp_readable(node, conn) == 0 {
                    match (n.sim.next_event_time(), deadline) {
                        (Some(t), d) if d.is_none_or(|d| t <= d) => n.step(),
                        (_, Some(d)) => {
                            n.run_until(d);
                            return false;
                        }
                        // No event and no deadline: nothing will arrive.
                        _ => return false,
                    };
                }
            }
            Wait::Established { conn, deadline } => {
                while !n.sim.tcp_established(node, conn)
                    && n.sim.next_event_time().is_some_and(|t| t <= deadline)
                {
                    n.step();
                }
            }
            Wait::Until(t) => n.run_until(t),
        }
        true
    }

    fn sent(&self) {
        self.borrow_mut().process();
    }

    /// Run the world 1 s, so the endpoint tears the session down.
    fn closed(&self) {
        let mut n = self.borrow_mut();
        let now = n.sim.now();
        n.run_until(now + plab_netsim::SECOND);
    }
}

/// A controller host in the simulation: the dialer that (re)connects to
/// one endpoint's control port, giving
/// [`crate::controller::robust::RobustController`] the ability to
/// re-establish its channel after faults, and the UDP sink on the host
/// (the §4 bandwidth experiment's). `D` decides how it waits.
#[derive(Clone)]
pub struct SimHost<D = Rc<RefCell<SimNet>>> {
    drive: D,
    node: NodeId,
    endpoint: Ipv4Addr,
}

/// The harness's controller host.
pub type SimDialer = SimHost;

impl SimDialer {
    /// Dialer from controller host `node` to the endpoint at `endpoint`.
    pub fn new(net: &Rc<RefCell<SimNet>>, node: NodeId, endpoint: Ipv4Addr) -> SimDialer {
        SimHost::over(Rc::clone(net), node, endpoint)
    }
}

impl<D: Driver> SimHost<D> {
    /// Controller host `node`, dialing the endpoint at `endpoint`, under
    /// `drive`.
    pub fn over(drive: D, node: NodeId, endpoint: Ipv4Addr) -> SimHost<D> {
        SimHost { drive, node, endpoint }
    }

    /// Run `op` on the simulator and this host's node, or answer `gave_up`.
    fn with<T>(&self, gave_up: T, op: impl FnOnce(&mut ShardedSim, NodeId) -> T) -> T {
        self.drive.with(gave_up, |n| op(&mut n.sim, self.node))
    }

    /// Open a control connection and wait for its handshake: the channel,
    /// established or not, or `None` if the driver gave up.
    async fn open(&self) -> Option<SimChannel<D>> {
        let endpoint = self.endpoint;
        let (conn, deadline) = self.with(None, |sim, node| {
            Some((sim.tcp_connect(node, endpoint, CONTROL_PORT), sim.now() + DIAL_DEADLINE))
        })?;
        let chan = SimChannel { host: self.clone(), conn, decoder: FrameDecoder::new() };
        self.drive.until(self.node, Wait::Established { conn, deadline }).await.then_some(chan)
    }
}

impl<D: Driver> aio::Dialer for SimHost<D> {
    type Chan = SimChannel<D>;

    /// A dial that does not establish drops its channel, which closes the
    /// half-open connection.
    async fn dial(&mut self) -> Option<SimChannel<D>> {
        let chan = self.open().await?;
        chan.host.with(false, |sim, node| sim.tcp_established(node, chan.conn)).then_some(chan)
    }

    fn now(&self) -> u64 {
        self.with(u64::MAX, |sim, _| sim.now())
    }

    async fn wait_until(&mut self, time: u64) {
        self.drive.until(self.node, Wait::Until(time)).await;
    }
}

impl Dialer for SimDialer {}

impl<D: Driver> aio::Sink for SimHost<D> {
    fn sink_addr(&self) -> Ipv4Addr {
        self.with(Ipv4Addr::UNSPECIFIED, |sim, node| sim.addr_of(node))
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        self.with(false, |sim, node| sim.udp_bind(node, port))
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        let arrivals = self.with(Vec::new(), |sim, node| sim.udp_recv(node, port));
        arrivals.into_iter().map(|(t, a, p, d)| (t, a, p, probe_seq(&d), d.len())).collect()
    }

    async fn wait_until(&mut self, time: u64) {
        aio::Dialer::wait_until(self, time).await
    }
}

impl SinkHost for SimDialer {}

/// A control channel over a [`SimNet`] TCP connection. The controller
/// "runs" on a simulated host; waiting for a reply advances virtual time.
pub struct SimChannel<D: Driver = Rc<RefCell<SimNet>>> {
    host: SimHost<D>,
    conn: u64,
    decoder: FrameDecoder,
}

impl SimChannel {
    /// Dial an endpoint's control port from `node`, waiting up to 10 s
    /// for the handshake; the channel is returned established or not.
    pub fn connect(net: &Rc<RefCell<SimNet>>, node: NodeId, endpoint: Ipv4Addr) -> SimChannel {
        aio::block_on(SimDialer::new(net, node, endpoint).open()).expect("the harness never gives up")
    }

    /// Wrap a connection accepted by a controller listener (the
    /// endpoint-dialed direction).
    pub fn from_accepted(net: &Rc<RefCell<SimNet>>, node: NodeId, conn: u64) -> SimChannel {
        let host = SimDialer::new(net, node, Ipv4Addr::UNSPECIFIED);
        SimChannel { host, conn, decoder: FrameDecoder::new() }
    }

    /// The harness (for experiment code needing controller-host sockets,
    /// e.g. the §4 bandwidth experiment's UDP sink).
    pub fn net(&self) -> Rc<RefCell<SimNet>> {
        Rc::clone(&self.host.drive)
    }

    /// Bind a UDP port on the controller host.
    pub fn udp_bind(&self, port: u16) -> bool {
        self.host.with(false, |sim, node| sim.udp_bind(node, port))
    }

    /// The controller host's address (for descriptors and UDP sinks).
    pub fn addr(&self) -> Ipv4Addr {
        aio::Sink::sink_addr(&self.host)
    }

    /// Advance virtual time (used by experiments waiting on wall-clock
    /// style conditions rather than control messages).
    pub fn wait_until(&self, time: u64) {
        self.host.drive.borrow_mut().run_until(time);
    }

    /// Whether the underlying TCP connection is currently established.
    pub fn is_established(&self) -> bool {
        self.host.with(false, |sim, node| sim.tcp_established(node, self.conn))
    }
}

impl<D: Driver> aio::Sink for SimChannel<D> {
    fn sink_addr(&self) -> Ipv4Addr {
        self.host.sink_addr()
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        self.host.sink_bind(port)
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        self.host.sink_take(port)
    }

    async fn wait_until(&mut self, time: u64) {
        aio::Sink::wait_until(&mut self.host, time).await
    }
}

impl SinkHost for SimChannel {}

impl<D: Driver> Drop for SimChannel<D> {
    /// Close the control connection so the endpoint tears the session
    /// down (releasing its sockets), as a real client process exit would.
    /// Not while unwinding: the world may still be borrowed.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.host.with((), |sim, node| sim.tcp_close(node, self.conn));
            self.host.drive.closed();
        }
    }
}

impl<D: Driver> aio::Channel for SimChannel<D> {
    async fn send(&mut self, msg: &Message) {
        self.host.with((), |sim, node| sim.tcp_send(node, self.conn, &msg.to_frame()));
        self.host.drive.sent();
    }

    async fn recv(&mut self, deadline: Option<u64>) -> Option<Message> {
        let conn = self.conn;
        loop {
            match self.decoder.next_message() {
                Ok(Some(m)) => return Some(m),
                Ok(None) => {}
                Err(_) => return None,
            }
            let waited = self.host.drive.until(self.host.node, Wait::Data { conn, deadline }).await;
            let decoder = &mut self.decoder;
            let read = self.host.with(false, |sim, node| decoder.fill(|max| sim.tcp_recv(node, conn, max)));
            if !(waited && read) {
                // The deadline passed, the connection closed, or the
                // driver gave up: one final decode attempt.
                return self.decoder.next_message().ok().flatten();
            }
        }
    }

    fn now(&self) -> u64 {
        aio::Dialer::now(&self.host)
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
        assert_eq!(EndpointId::first(), EndpointId(0));
        assert_ne!(EndpointId::first(), EndpointId(1));
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

    /// The controller's handshake-completing ACK is lost, so its Hello
    /// segment completes the handshake: deferred, it is handed to the
    /// stack after the pass's accept, and the connection sits queued with
    /// the Hello in it. The endpoint must answer at that event's instant,
    /// not at whatever event next services it.
    #[test]
    fn deferred_handshake_is_answered_at_its_instant() {
        use crate::controller::ControlChannel;
        let mut t = plab_netsim::TopologyBuilder::new();
        let ep = t.host("ep", "10.0.0.1".parse().unwrap());
        let ctl = t.host("ctl", "10.0.0.2".parse().unwrap());
        t.link(ep, ctl, plab_netsim::LinkParams::new(1, 1));
        let net = Rc::new(RefCell::new(SimNet::new(t.build())));
        net.borrow_mut().add_endpoint(ep, EndpointConfig::default());
        let mut chan = SimChannel::connect(&net, ctl, "10.0.0.1".parse().unwrap());
        {
            // The ACK left as the SYN-ACK arrived, now; at 1 Mb/s it is on
            // the wire for 320 us, then 1 ms of latency. The Hello leaves
            // behind it and lands 368 us later, with the link back up.
            let mut n = net.borrow_mut();
            let (now, link) = (n.sim.now(), n.sim.link_between(ep, ctl).unwrap());
            let ack_lands = now + 320_000 + plab_netsim::MILLISECOND;
            n.sim.schedule_fault(now, plab_netsim::FaultAction::LinkDown { link });
            n.sim.schedule_fault(ack_lands + 1, plab_netsim::FaultAction::LinkUp { link });
        }
        ControlChannel::send(&mut chan, &Message::Hello { version: 1 });
        let reply = ControlChannel::recv(&mut chan, None);
        assert!(matches!(reply, Some(Message::HelloAck { .. })), "{reply:?}");
        // Without the catch-up in `step` the reply waits for the
        // endpoint's own ACK of the Hello to land at the controller, 1 ms
        // later.
        assert_eq!(ControlChannel::now(&chan), 6_272_000);
    }

    /// Two endpoints behind one router, and a controller that says Hello
    /// to the first three times, each once the last was answered. `advance`
    /// runs one event and the servicing after it, and returns the
    /// endpoints it serviced. Returns what the controller read and when,
    /// and every endpoint `advance` serviced.
    fn three_hellos(advance: fn(&mut SimNet) -> Vec<usize>) -> (Vec<(u64, Vec<u8>)>, Vec<usize>) {
        let mut t = plab_netsim::TopologyBuilder::new();
        let r = t.router("r", Ipv4Addr::new(10, 0, 0, 254));
        let a = t.host("a", Ipv4Addr::new(10, 0, 0, 1));
        let b = t.host("b", Ipv4Addr::new(10, 0, 0, 2));
        let ctl = t.host("ctl", Ipv4Addr::new(10, 0, 0, 9));
        for h in [a, b, ctl] {
            t.link(r, h, plab_netsim::LinkParams::new(1, 1));
        }
        let mut net = SimNet::new(t.build());
        net.add_endpoint(a, EndpointConfig::default());
        net.add_endpoint(b, EndpointConfig::default());
        let conn = net.sim.tcp_connect(ctl, Ipv4Addr::new(10, 0, 0, 1), CONTROL_PORT);
        let (mut read, mut serviced, mut sent) = (Vec::new(), Vec::new(), 0);
        while read.len() < 3 {
            if sent == read.len() && net.sim.tcp_established(ctl, conn) {
                net.sim.tcp_send(ctl, conn, &Message::Hello { version: 1 }.to_frame());
                sent += 1;
            }
            assert!(net.sim.next_event_time().is_some(), "the world ran dry");
            serviced.extend(advance(&mut net));
            let bytes = net.sim.tcp_recv(ctl, conn, 65536);
            if !bytes.is_empty() {
                read.push((net.sim.now(), bytes));
            }
        }
        (read, serviced)
    }

    /// Traffic to one endpoint of two: no dense pass services the other,
    /// whose node nothing touches, and the first answers what it answers,
    /// when it does, in a run that services every host after every event.
    #[test]
    fn an_untouched_endpoint_is_never_serviced() {
        let (every, all) = three_hellos(|net| {
            net.sim.step();
            let [_, _, eps, _] = net.pass(true);
            eps
        });
        let (dense, mine) = three_hellos(|net| {
            net.sim.step();
            let hosts = net.serve();
            let eps = hosts[EP].clone();
            net.settle(hosts);
            eps
        });
        assert_eq!(dense, every);
        assert!(all.contains(&1), "a full pass services both");
        assert!(mine.contains(&0) && !mine.contains(&1), "{mine:?}");
        let instants: Vec<u64> = dense.iter().map(|r| r.0).collect();
        assert_eq!(instants, [11_904_000, 18_528_000, 25_152_000]);
    }

    /// A detached session on an endpoint whose node nothing touches any
    /// more still expires at the first event past its linger window (the
    /// window runs on the clock), here a timer on the controller's host:
    /// the instant a pass after every event reads.
    #[test]
    fn an_untouched_detached_session_expires_at_the_first_event_past_its_window() {
        use crate::cert::Restrictions;
        use crate::controller::{Controller, Credentials};
        use plab_crypto::{KeyHash, Keypair};
        let (operator, experimenter) = (Keypair::from_seed(&[3; 32]), Keypair::from_seed(&[4; 32]));
        let mut t = plab_netsim::TopologyBuilder::new();
        let ep = t.host("ep", Ipv4Addr::new(10, 0, 0, 1));
        let ctl = t.host("ctl", Ipv4Addr::new(10, 0, 0, 2));
        t.link(ep, ctl, plab_netsim::LinkParams::new(1, 0));
        let mut net = SimNet::new(t.build());
        let trusted_keys = vec![KeyHash::of(&operator.public)];
        let linger = 2 * plab_netsim::SECOND;
        net.add_endpoint(
            ep,
            EndpointConfig { trusted_keys, session_linger_ns: linger, ..Default::default() },
        );
        let net = Rc::new(RefCell::new(net));
        let descriptor = crate::descriptor::ExperimentDescriptor {
            name: "linger".into(),
            controller_addr: "10.0.0.2:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        };
        let creds =
            Credentials::issue(&operator, &experimenter, descriptor, Restrictions::none(), 10);
        let chan = SimChannel::connect(&net, ctl, Ipv4Addr::new(10, 0, 0, 1));
        drop(Controller::connect(chan, &creds).expect("authenticates"));
        let mut n = net.borrow_mut();
        let sessions = |n: &SimNet| n.endpoint_agent(EndpointId::first()).session_count();
        assert_eq!(sessions(&n), 1, "detached, not ended");
        let start = n.sim.now();
        for k in 0..400 {
            n.sim.schedule_timer(ctl, k, start + k * 7 * plab_netsim::MILLISECOND);
        }
        while sessions(&n) == 1 {
            assert!(n.step(), "the timers ran out");
        }
        assert_eq!((n.sim.now() - start) % (7 * plab_netsim::MILLISECOND), 0, "at a timer");
        // What a harness that services every endpoint after every event
        // reads.
        assert_eq!(n.sim.now(), 2_014_000_000);
    }

    /// What an endpoint's service leaves that no event will announce keeps
    /// the endpoint in the next pass, whatever the simulator does: more
    /// Hellos arriving in one pass than backpressure lets it answer, and
    /// then a FIN that a pass reads behind the last Hello.
    #[test]
    fn work_a_pass_leaves_keeps_its_endpoint_in_the_next_pass() {
        let mut t = plab_netsim::TopologyBuilder::new();
        let ep = t.host("ep", Ipv4Addr::new(10, 0, 0, 1));
        let ctl = t.host("ctl", Ipv4Addr::new(10, 0, 0, 2));
        t.link(ep, ctl, plab_netsim::LinkParams::new(1, 0));
        let mut net = SimNet::new(t.build());
        let id = net.add_endpoint(ep, EndpointConfig::default());
        let conn = net.sim.tcp_connect(ctl, Ipv4Addr::new(10, 0, 0, 1), CONTROL_PORT);
        net.run_until(plab_netsim::SECOND);
        let hello = Message::Hello { version: 1 }.to_frame();
        // Each burst lands whole before anything services the endpoint.
        let land = |net: &mut SimNet, bytes: &[u8], close: bool| {
            net.sim.tcp_send(ctl, conn, bytes);
            if close {
                net.sim.tcp_close(ctl, conn);
            }
            let t = net.sim.now() + plab_netsim::SECOND;
            net.sim.run_until(t);
            net.process();
            let reactor = net.endpoint_reactor(id);
            (net.unsettled.clone(), reactor.queued_in_messages(), reactor.sessions().count())
        };
        assert_eq!(land(&mut net, &hello.repeat(7_000), false), (vec![0], 101, 1));
        net.process();
        assert_eq!(net.unsettled, []);
        assert_eq!(net.endpoint_reactor(id).queued_in_messages(), 0);
        assert_eq!(land(&mut net, &hello, true), (vec![0], 0, 1));
        net.process();
        assert_eq!(net.unsettled, []);
        assert_eq!(net.endpoint_reactor(id).sessions().count(), 0);
        let mut replies = FrameDecoder::new();
        while net.step() {
            replies.fill(|max| net.sim.tcp_recv(ctl, conn, max));
        }
        let acks = std::iter::from_fn(|| replies.next_message().ok().flatten());
        assert_eq!(acks.filter(|m| matches!(m, Message::HelloAck { .. })).count(), 7_001);
    }
}
