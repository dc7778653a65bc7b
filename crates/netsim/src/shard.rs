//! One shard's event engine: the wheel, forwarding, delivery and the host
//! stacks of the nodes it owns.
//!
//! A [`Shard`] holds state only for the nodes it owns (and the links
//! that touch them) and keeps every other id as a ghost — a slot entry
//! that says "not mine" (see `world.rs`). A packet toward a foreign node
//! is diverted at the link into a per-destination outbox, which the
//! world ([`crate::Sim`]) drains at window boundaries; the owner does
//! the rest. A world of one shard has no foreign nodes: no divert, no
//! windows, one wheel.

use crate::event::{EventKind, EventQueue};
use crate::fault::FaultAction;
use crate::link::{Link, Offer};
use crate::node::{Node, NodeId, NodeKind};
use crate::pool::{BufPool, Frame};
use crate::sim::{DropReason, NodeTransition};
use crate::tcp::TcpOut;
use crate::time::SimTime;
use crate::world::{Owned, World};
use plab_packet::{builder, icmp, ipv4, proto, udp};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// splitmix64: derives per-shard RNG seeds from the world seed. Shard 0
/// keeps the world seed itself, so a 1-shard world draws what the
/// world's seed says.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        return seed;
    }
    plab_obs::export::splitmix64(&mut (seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// A packet diverted toward a node owned by a foreign shard, handed over
/// at the world's outbox exchange. Frames are per-shard, so the buffer
/// leaves the sending shard's pool at the divert point
/// ([`Frame::hand_off`]: moved when the frame is unique and whole,
/// copied otherwise) and the destination shard's pool adopts it; each
/// pool's `taken == recycled` accounting stays exact.
#[derive(Debug)]
pub(crate) struct CrossPacket {
    /// Arrival time at the far end of the link (includes serialization
    /// and jitter, both computed on the sending shard).
    pub arrival: SimTime,
    /// Link index.
    pub link: usize,
    /// Direction: 0 = a→b, 1 = b→a.
    pub dir: usize,
    /// The datagram's buffer, on no pool's books while in the outbox.
    pub buf: Arc<Vec<u8>>,
}

/// Per-shard context of a world of several: which shard this is
/// (`World::shard_of` says who owns which node), and the
/// per-destination outboxes the world drains at window boundaries.
#[derive(Debug)]
struct ShardCtx {
    /// This shard's index.
    index: usize,
    /// Diverted packets keyed by destination shard.
    outbox: Vec<Vec<CrossPacket>>,
    /// Total cross-shard handoffs originated here.
    handoffs: u64,
}

/// How many places down the same-instant batch each stage of
/// [`Shard::warm_ahead`] reads. Three, because the addresses depend on one
/// another: the link names the node; node and packet, the route and the
/// out-link. Constants: they decide what is cached, never what is computed.
const AHEAD_LINK: usize = 10;
const AHEAD_NODE: usize = 5;
const AHEAD_ROUTE: usize = 2;

/// One partition of a world and its event engine. The world's node
/// operations reach into the owner's fields directly.
pub(crate) struct Shard {
    /// This shard's clock. It may lag the world's frontier inside a
    /// window; a node operation reads its owner's.
    pub time: SimTime,
    pub events: EventQueue,
    /// Nodes by [`NodeId`]: state for the ones this shard owns (all of
    /// them in a 1-shard world), ghosts for the rest.
    pub nodes: Owned<Node>,
    /// Links by index: state for those with an end on an owned node.
    pub links: Owned<Link>,
    /// The world's fixed part, shared with the other shards.
    world: Arc<World>,
    rng: StdRng,
    /// Drops by reason (indexed by `DropReason as usize`). A flat array:
    /// drop accounting sits on the per-packet path, so it must not pay a
    /// hash per record.
    pub drop_counts: [u64; 8],
    pub fired_timers: Vec<(NodeId, u64)>,
    pub send_log: Vec<(NodeId, u64, SimTime)>,
    pub node_transitions: Vec<NodeTransition>,
    /// Recycled packet buffers (see [`crate::pool`]).
    pub pool: BufPool,
    /// What the last TCP call emitted, drained by [`Shard::dispatch_tcp`].
    pub tcp_out: TcpOut,
    /// Cross-shard context; `None` in a world of one shard (the hot path
    /// pays one `Option` check per transmit/arrival).
    shard: Option<ShardCtx>,
    /// Events processed by [`Shard::step`] (throughput accounting for
    /// windowed advances, where the driver never sees individual steps).
    pub processed: u64,
    /// Opt-in dirty-node tracking for fleet-scale harnesses: when
    /// enabled, event processing records which nodes it touched so a
    /// driver servicing thousands of hosts can visit only those instead
    /// of scanning the whole roster per event.
    pub track_dirty: bool,
    pub dirty_nodes: Vec<usize>,
    pub dirty_mark: Vec<bool>,
    /// Items and bytes handed to or taken from a harness (see
    /// [`crate::Sim::activity`]).
    pub handed: u64,
}

impl Shard {
    /// Shard `index` of `count`, over the nodes and links dealt to it.
    pub fn new(
        nodes: Owned<Node>,
        links: Owned<Link>,
        seed: u64,
        world: Arc<World>,
        index: usize,
        count: usize,
    ) -> Self {
        let pool = BufPool::new();
        Shard {
            time: 0,
            events: EventQueue::new(),
            nodes,
            links,
            world,
            rng: StdRng::seed_from_u64(shard_seed(seed, index)),
            drop_counts: [0; 8],
            fired_timers: Vec::new(),
            send_log: Vec::new(),
            node_transitions: Vec::new(),
            tcp_out: TcpOut::new(pool.clone()),
            pool,
            shard: (count > 1).then(|| ShardCtx {
                index,
                outbox: (0..count).map(|_| Vec::new()).collect(),
                handoffs: 0,
            }),
            processed: 0,
            track_dirty: false,
            dirty_nodes: Vec::new(),
            dirty_mark: Vec::new(),
            handed: 0,
        }
    }

    #[inline]
    fn mark_dirty(&mut self, node: usize) {
        if self.track_dirty && !self.dirty_mark[node] {
            self.dirty_mark[node] = true;
            self.dirty_nodes.push(node);
        }
    }

    /// The outbox of packets bound for shard `dest`.
    pub fn outbox(&mut self, dest: usize) -> &mut Vec<CrossPacket> {
        let ctx = self
            .shard
            .as_mut()
            .expect("only shards of several exchange");
        &mut ctx.outbox[dest]
    }

    /// Accept a packet handed over from a foreign shard: this shard's
    /// pool adopts the buffer, and the arrival is scheduled. The event
    /// time may lie behind this shard's clock (see [`EventQueue`]).
    pub fn inject_cross(&mut self, p: CrossPacket) {
        let packet = self.pool.receive(p.buf);
        self.events.push(
            p.arrival,
            EventKind::LinkArrival {
                link: p.link,
                dir: p.dir,
                packet,
            },
        );
    }

    /// Total cross-shard handoffs this shard originated.
    pub fn handoffs(&self) -> u64 {
        self.shard.as_ref().map_or(0, |c| c.handoffs)
    }

    /// Schedule `kind` at `time`, or now if `time` has passed.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.events.push(time.max(self.time), kind);
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Process the single earliest event. Returns false when idle.
    pub fn step(&mut self) -> bool {
        let Some((t, kind)) = self.events.pop() else {
            return false;
        };
        self.warm_ahead();
        self.processed += 1;
        // Cross-shard injection at a window boundary can pop behind the
        // local clock (see `EventQueue` docs); the clock only ratchets
        // forward so observables stay monotone.
        self.time = self.time.max(t);
        if plab_obs::enabled() {
            // Stamp the observability clock so every event recorded while
            // handling this sim event carries the virtual time.
            plab_obs::set_virtual_time(self.time);
        }
        match kind {
            EventKind::LinkArrival { link, dir, packet } => {
                // One bounds-checked borrow for the whole arm; `rng` and
                // `drop_counts` are disjoint fields.
                let l = &mut self.links[link];
                // Cross-shard arrivals: the sending shard owns the queue
                // accounting (it processes the matching `CrossDeparted`);
                // releasing here too would double-free queue bytes.
                let foreign_src = self
                    .shard
                    .as_ref()
                    .is_some_and(|c| self.world.shard_of[l.src_node(dir)] as usize != c.index);
                if !foreign_src {
                    l.departed(dir, packet.len());
                }
                let dst = l.dst_node(dir);
                if !l.up {
                    // A flap kills what is in flight on the wire.
                    self.trace_drop(dst, DropReason::LinkDown);
                    return true;
                }
                // Loss decisions are integer comparisons on rolls drawn
                // from the single seeded RNG — bit-for-bit reproducible
                // across runs and platforms.
                let lost = l.lossy() && {
                    let rolls = [self.rng.next_u64(), self.rng.next_u64()];
                    self.links[link].sample_loss(dir, rolls)
                };
                if lost {
                    self.trace_drop(dst, DropReason::RandomLoss);
                    drop(packet);
                } else {
                    self.deliver(dst, packet);
                }
            }
            EventKind::ScheduledSend {
                node,
                logged,
                packet,
                tag,
            } => {
                let node = node as usize;
                if self.nodes[node].crashed {
                    self.trace_drop(node, DropReason::NodeDown);
                    return true;
                }
                self.mark_dirty(node);
                if logged {
                    self.send_log.push((NodeId(node), tag, self.time));
                }
                self.send_from(NodeId(node), packet);
            }
            EventKind::TcpTick { node, conn } => {
                if self.nodes[node].crashed {
                    return true;
                }
                self.mark_dirty(node);
                let now = self.time;
                let tcp = &mut self.nodes[node].host_mut().tcp;
                tcp.tick(now, conn, &mut self.tcp_out);
                self.dispatch_tcp(NodeId(node));
            }
            EventKind::Timer { node, key } => {
                self.mark_dirty(node);
                self.fired_timers.push((NodeId(node), key));
            }
            EventKind::Fault { action } => {
                self.apply_fault(action);
            }
            EventKind::CrossDeparted { link, dir, len } => {
                // The handed-over packet finished serializing out of this
                // shard's side of the link; release its queue occupancy.
                self.links[link].departed(dir, len);
            }
        }
        true
    }

    /// Read what the events a few places down the wheel's same-instant
    /// batch will read first, so that those misses overlap one another
    /// and the event in hand instead of stalling theirs one by one: at
    /// 51,200 hosts an event costs the latency of its first touch of a
    /// link, a node, a packet and an out-link, and the batch (thousands
    /// deep in pod worlds) says which those will be. Reads only, through
    /// `&self`, and no `Frame` is cloned or kept: no event, refcount, RNG
    /// draw or counter can differ for it. A batch shorter than the nearest
    /// stage (every fleet and bwest step) returns at the first line.
    #[inline]
    fn warm_ahead(&self) {
        let Some(near) = self.events.ahead(AHEAD_ROUTE) else {
            return;
        };
        /// The node an event acts on, and its packet.
        fn lands<'a>(sim: &'a Shard, e: &'a EventKind) -> Option<(&'a Node, &'a Frame)> {
            match e {
                EventKind::LinkArrival { link, dir, packet } => {
                    let dst = sim.links.get(*link)?.dst_node(*dir);
                    Some((sim.nodes.get(dst)?, packet))
                }
                EventKind::ScheduledSend { node, packet, .. } => {
                    Some((sim.nodes.get(*node as usize)?, packet))
                }
                _ => None,
            }
        }
        // A field on each line of a `Link`: `ge` and `params.loss`
        // (`lossy`), both directions' queues (`departed`, `offer`), the
        // ends (`dst_node`, `dir_from`) and `up`.
        let link_lines = |l: &Link| {
            let queued = l.dirs[0].queued_bytes + l.dirs[1].queued_bytes;
            l.lossy() as usize + queued + l.a.0 + l.b.0 + l.up as usize
        };
        let mut seen = 0usize;
        // Stage one, addresses from the event itself. `step`:
        // `let l = &mut self.links[link]` and `packet.len()` (the buffer's
        // header, where the count `pool::release` decrements also is); for
        // a send, `self.nodes[node].crashed`.
        match self.events.ahead(AHEAD_LINK) {
            Some(EventKind::LinkArrival { link, packet, .. }) => {
                seen += self.links.get(*link).map_or(0, link_lines) + packet.len();
            }
            Some(EventKind::ScheduledSend { node, packet, .. }) => {
                let crashed = self
                    .nodes
                    .get(*node as usize)
                    .map_or(0, |n| n.crashed as usize);
                seen += crashed + packet.len();
            }
            _ => {}
        }
        // Stage two, link and buffer header now in cache. `deliver`:
        // `nodes[node].crashed` and `.kind`, the packet bytes
        // `Ipv4View::new_unchecked` opens, and the node's other lines:
        // `ifaces` (`owns_addr`), `host.raw` and `defer_os`
        // (`host_receive`), `routes` (`transmit`).
        if let Some((n, packet)) = self.events.ahead(AHEAD_NODE).and_then(|e| lands(self, e)) {
            seen += n.crashed as usize + n.kind as usize + n.ifaces.len();
            seen += n.routes.default_iface.unwrap_or(0);
            seen += n
                .host
                .as_ref()
                .map_or(0, |h| h.raw.len() + h.defer_os as usize);
            seen += packet.first().map_or(0, |&b| b as usize);
        }
        // Stage three, node and packet now readable: the blocks the node
        // points to. `owns_addr`: the `ifaces` block. `host_receive`: the
        // tail of each raw socket's inbox, where `push_back` writes. For a
        // router's arrival or a host's send, `transmit`:
        // `routes.lookup(dst)`, `ifaces[iface_idx].link`, `links[link_idx]`.
        if let Some((n, packet)) = lands(self, near) {
            seen += u32::from(n.addr()) as usize;
            let arrival = matches!(near, EventKind::LinkArrival { .. });
            if let (true, Some(host)) = (arrival, &n.host) {
                for raw in host.raw.values() {
                    seen += raw.inbox.back().map_or(0, |(t, _)| *t as usize);
                }
            } else if let Ok(view) = ipv4::Ipv4View::new_unchecked(packet) {
                let iface = n.routes.lookup(view.dst()).and_then(|i| n.ifaces.get(i));
                seen += iface
                    .and_then(|i| self.links.get(i.link?))
                    .map_or(0, link_lines);
            }
        }
        std::hint::black_box(seen);
    }

    /// Process all events up to and including `deadline`, then advance the
    /// clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self
            .events
            .peek_time()
            .map(|t| t <= deadline)
            .unwrap_or(false)
        {
            self.step();
        }
        self.time = self.time.max(deadline);
        if plab_obs::enabled() {
            plab_obs::set_virtual_time(self.time);
        }
    }

    // ------------------------------------------------------------------
    // Fault injection (see `crate::fault`)
    // ------------------------------------------------------------------

    /// Apply a fault now. A link fault reaches every shard of a world;
    /// one that owns neither end holds no state for the link and has
    /// nothing to change.
    pub fn apply_fault(&mut self, action: FaultAction) {
        if plab_obs::enabled() {
            static FAULTS: plab_obs::metrics::Counter =
                plab_obs::metrics::Counter::new("netsim.faults");
            FAULTS.inc();
            let (kind, target) = match &action {
                FaultAction::LinkDown { link } => (0u64, *link as u64),
                FaultAction::LinkUp { link } => (1, *link as u64),
                FaultAction::SetLoss { link, .. } => (2, *link as u64),
                FaultAction::SetBurstLoss { link, .. } => (3, *link as u64),
                FaultAction::SetDelay { link, .. } => (4, *link as u64),
                FaultAction::TcpReset { node } => (5, *node as u64),
                FaultAction::NodeCrash { node } => (6, *node as u64),
                FaultAction::NodeRestart { node } => (7, *node as u64),
            };
            plab_obs::obs_event!(
                plab_obs::Component::Netsim,
                "fault",
                "kind" = kind,
                "target" = target
            );
        }
        match action {
            FaultAction::LinkDown { link } => self.on_link(link, |l| l.up = false),
            FaultAction::LinkUp { link } => self.on_link(link, |l| l.up = true),
            FaultAction::SetLoss { link, loss } => self.on_link(link, |l| l.params.loss = loss),
            FaultAction::SetBurstLoss { link, model } => self.on_link(link, |l| l.ge = model),
            FaultAction::SetDelay {
                link,
                latency,
                jitter,
            } => self.on_link(link, |l| {
                l.params.latency = latency;
                l.params.jitter = jitter;
            }),
            FaultAction::TcpReset { node } => {
                let n = &mut self.nodes[node];
                if let Some(host) = n.host.as_mut() {
                    host.tcp.reset_conns();
                }
                // The node's sockets changed state with no packet
                // delivered: whoever watches dirty nodes must look.
                self.mark_dirty(node);
            }
            FaultAction::NodeCrash { node } => self.crash_node(NodeId(node)),
            FaultAction::NodeRestart { node } => self.restart_node(NodeId(node)),
        }
    }

    fn on_link(&mut self, link: usize, f: impl FnOnce(&mut Link)) {
        if let Some(l) = self.links.get_mut(link) {
            f(l);
        }
    }

    /// Crash a host: the socket stack (raw/UDP/TCP, pending OS packets) is
    /// wiped and deliveries drop with [`DropReason::NodeDown`] until
    /// it restarts. No-op on non-hosts or already-crashed nodes.
    fn crash_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.0];
        if n.host.is_none() || n.crashed {
            return;
        }
        n.crashed = true;
        n.host = Some(Default::default());
        plab_obs::obs_event!(plab_obs::Component::Netsim, "node.crash", "node" = node.0);
        self.mark_dirty(node.0);
        self.node_transitions.push(NodeTransition::Crashed(node));
    }

    /// Restart a crashed host with a fresh, empty socket stack. The
    /// harness must re-establish listeners (see
    /// [`crate::Sim::drain_node_transitions`]).
    fn restart_node(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.0];
        if n.host.is_none() || !n.crashed {
            return;
        }
        n.crashed = false;
        n.host = Some(Default::default());
        plab_obs::obs_event!(plab_obs::Component::Netsim, "node.restart", "node" = node.0);
        self.mark_dirty(node.0);
        self.node_transitions.push(NodeTransition::Restarted(node));
    }

    // ------------------------------------------------------------------
    // Forwarding internals
    // ------------------------------------------------------------------

    /// Schedule the ticks and send the segments the last TCP call left in
    /// `tcp_out`. A loopback segment re-enters TCP while the list is out
    /// being sent: the nested call fills and drains a list of its own.
    pub fn dispatch_tcp(&mut self, node: NodeId) {
        for (t, conn) in self.tcp_out.ticks.drain(..) {
            self.events
                .push(t.max(self.time), EventKind::TcpTick { node: node.0, conn });
        }
        let mut segments = std::mem::take(&mut self.tcp_out.segments);
        for seg in segments.drain(..) {
            self.send_from(node, seg);
        }
        self.tcp_out.segments = segments;
    }

    fn trace_drop(&mut self, node: usize, reason: DropReason) {
        self.drop_counts[reason as usize] += 1;
        static DROPS: plab_obs::metrics::Counter = plab_obs::metrics::Counter::new("netsim.drops");
        DROPS.inc();
        plab_obs::obs_event!(
            plab_obs::Component::Netsim,
            "drop",
            "reason" = reason as u8,
            "node" = node
        );
    }

    /// Inject a packet originating at `node` into the network.
    pub fn send_from(&mut self, node: NodeId, packet: Frame) {
        let Ok(view) = ipv4::Ipv4View::new_unchecked(&packet) else {
            self.trace_drop(node.0, DropReason::Malformed);
            return;
        };
        let dst = view.dst();
        if self.nodes[node.0].owns_addr(dst) {
            // Loopback.
            self.deliver(node.0, packet);
            return;
        }
        self.transmit(node.0, packet, dst);
    }

    /// Route `packet` out of `node` toward `dst`.
    fn transmit(&mut self, node: usize, mut packet: Frame, dst: Ipv4Addr) {
        let Some(iface_idx) = self.nodes[node].routes.lookup(dst) else {
            self.trace_drop(node, DropReason::NoRoute);
            return;
        };
        // NAT egress: traffic leaving a NAT node through its external
        // interface gets source-translated.
        if self.nodes[node].kind == NodeKind::Nat
            && iface_idx != self.nodes[node].nat_internal_iface
        {
            let is_internal_src = {
                let Ok(view) = ipv4::Ipv4View::new_unchecked(&packet) else {
                    return;
                };
                // Only translate packets not already from the NAT itself.
                !self.nodes[node].owns_addr(view.src())
            };
            if is_internal_src {
                let nat = self.nodes[node].nat.as_mut().expect("nat node has table");
                // Copy-on-write: the rewrite copies only if the buffer
                // is shared (e.g. a raw socket captured it upstream).
                if !nat.translate_outbound(packet.make_mut()) {
                    self.trace_drop(node, DropReason::Malformed);
                    return;
                }
            }
        }
        let Some(link_idx) = self.nodes[node].ifaces[iface_idx].link else {
            self.trace_drop(node, DropReason::NoRoute);
            return;
        };
        if !self.links[link_idx].up {
            self.trace_drop(node, DropReason::LinkDown);
            return;
        }
        let jitter_ceiling = self.links[link_idx].params.jitter;
        let jitter_sample = if jitter_ceiling > 0 {
            self.rng.gen_range(0..=jitter_ceiling)
        } else {
            0
        };
        let link = &mut self.links[link_idx];
        let dir = link.dir_from(node).expect("link attached to node");
        match link.offer(dir, self.time, packet.len(), jitter_sample) {
            Offer::Accepted { arrival } => {
                static QUEUE_DEPTH: plab_obs::metrics::Histogram =
                    plab_obs::metrics::Histogram::new("netsim.link.queued_bytes");
                QUEUE_DEPTH.observe(link.dirs[dir].queued_bytes as u64);
                let dst_node = link.dst_node(dir);
                if let Some(ctx) = &mut self.shard {
                    let dest = self.world.shard_of[dst_node] as usize;
                    if dest != ctx.index {
                        // Foreign destination: hand the packet over at the
                        // next window boundary, and keep a local event to
                        // release the link queue at departure time.
                        ctx.handoffs += 1;
                        let len = packet.len();
                        ctx.outbox[dest].push(CrossPacket {
                            arrival,
                            link: link_idx,
                            dir,
                            buf: packet.hand_off(),
                        });
                        self.events.push(
                            arrival,
                            EventKind::CrossDeparted {
                                link: link_idx,
                                dir,
                                len,
                            },
                        );
                        return;
                    }
                }
                self.events.push(
                    arrival,
                    EventKind::LinkArrival {
                        link: link_idx,
                        dir,
                        packet,
                    },
                );
            }
            Offer::QueueFull => {
                self.trace_drop(node, DropReason::QueueFull);
                drop(packet);
            }
        }
    }

    /// A packet has arrived at `node`.
    fn deliver(&mut self, node: usize, mut packet: Frame) {
        if self.nodes[node].crashed {
            self.trace_drop(node, DropReason::NodeDown);
            return;
        }
        let Ok(view) = ipv4::Ipv4View::new_unchecked(&packet) else {
            self.trace_drop(node, DropReason::Malformed);
            return;
        };
        let dst = view.dst();

        match self.nodes[node].kind {
            NodeKind::Host => {
                if !self.nodes[node].owns_addr(dst) {
                    self.trace_drop(node, DropReason::WrongHost);
                    return;
                }
                self.host_receive(node, packet);
            }
            NodeKind::Router | NodeKind::Nat => {
                // NAT ingress: packets addressed to the external address
                // are translated back to the internal flow and forwarded.
                if self.nodes[node].kind == NodeKind::Nat {
                    let ext_ip = self.nodes[node].nat.as_ref().unwrap().external_ip;
                    if dst == ext_ip {
                        let nat = self.nodes[node].nat.as_mut().unwrap();
                        if nat.translate_inbound(packet.make_mut()) {
                            let new_dst = ipv4::Ipv4View::new_unchecked(&packet)
                                .expect("translated packet valid")
                                .dst();
                            self.forward(node, packet, new_dst);
                        } else {
                            // Unsolicited or untranslatable: the NAT itself
                            // may still answer pings to its address.
                            self.router_local(node, packet);
                        }
                        return;
                    }
                }
                if self.nodes[node].owns_addr(dst) {
                    self.router_local(node, packet);
                    return;
                }
                self.forward(node, packet, dst);
            }
        }
    }

    /// Router TTL handling and next-hop forwarding.
    fn forward(&mut self, node: usize, mut packet: Frame, dst: Ipv4Addr) {
        let view = ipv4::Ipv4View::new_unchecked(&packet).expect("checked by deliver");
        let src = view.src();
        if view.ttl() <= 1 {
            // TTL expired: ICMP Time Exceeded back to the source, from this
            // router's address (§4's traceroute depends on this).
            self.trace_drop(node, DropReason::TtlExpired);
            let router_addr = self.nodes[node].addr();
            let mut te = self.pool.take();
            builder::icmp_time_exceeded_into(router_addr, src, &packet, te.make_mut());
            drop(packet);
            self.send_from(NodeId(node), te);
            return;
        }
        // Copy-on-write: in-place for the common unshared case.
        ipv4::decrement_ttl(packet.make_mut());
        self.transmit(node, packet, dst);
    }

    /// A packet addressed to the router itself: answer pings. Consumes the
    /// packet (its buffer returns to the pool).
    fn router_local(&mut self, node: usize, packet: Frame) {
        let mut reply = None;
        if let Ok(view) = ipv4::Ipv4View::new_unchecked(&packet) {
            if view.protocol() == proto::ICMP {
                if let Ok(icmp::IcmpMessage::EchoRequest {
                    ident,
                    seq,
                    payload,
                }) = icmp::parse(view.payload())
                {
                    let mut buf = self.pool.take();
                    builder::icmp_echo_reply_into(
                        view.dst(),
                        view.src(),
                        ident,
                        seq,
                        payload,
                        buf.make_mut(),
                    );
                    reply = Some(buf);
                }
            }
        }
        drop(packet);
        if let Some(reply) = reply {
            self.send_from(NodeId(node), reply);
        }
    }

    /// Host-side packet delivery: raw sockets, then OS or deferred OS.
    fn host_receive(&mut self, node: usize, packet: Frame) {
        self.mark_dirty(node);
        let now = self.time;
        let host = self.nodes[node].host_mut();
        for raw in host.raw.values_mut() {
            // Zero-copy capture: each socket's inbox entry is a refcount
            // bump on the arriving frame, not a buffer copy.
            raw.inbox.push_back((now, packet.clone()));
        }
        if host.defer_os {
            host.pending_os.push_back((now, packet));
        } else {
            self.os_process(node, &packet);
        }
    }

    /// Normal OS behaviour for an arriving packet.
    pub fn os_process(&mut self, node: usize, packet: &Frame) {
        let now = self.time;
        let Ok(view) = ipv4::Ipv4View::new_unchecked(packet) else {
            return;
        };
        let src = view.src();
        let dst = view.dst();
        match view.protocol() {
            proto::ICMP => {
                if let Ok(icmp::IcmpMessage::EchoRequest {
                    ident,
                    seq,
                    payload,
                }) = icmp::parse(view.payload())
                {
                    if self.nodes[node].host_ref().echo_responder {
                        let mut reply = self.pool.take();
                        builder::icmp_echo_reply_into(
                            dst,
                            src,
                            ident,
                            seq,
                            payload,
                            reply.make_mut(),
                        );
                        self.send_from(NodeId(node), reply);
                    }
                }
                // Other ICMP is informational; raw sockets already saw it.
            }
            proto::UDP => {
                if let Ok(u) = udp::parse(src, dst, view.payload()) {
                    // Zero-copy payload delivery: the inbox frame is a
                    // sub-range view of the arriving datagram.
                    let payload_off = view.header_len() + udp::HEADER_LEN;
                    let payload_len = u.payload.len();
                    let src_port = u.src_port;
                    let dst_port = u.dst_port;
                    let host = self.nodes[node].host_mut();
                    if let Some(sock) = host.udp.get_mut(&dst_port) {
                        sock.inbox.push_back((
                            now,
                            src,
                            src_port,
                            packet.slice(payload_off, payload_len),
                        ));
                    } else {
                        // Port unreachable.
                        let mut pu = self.pool.take();
                        builder::icmp_dest_unreachable_into(
                            dst,
                            src,
                            icmp::CODE_PORT_UNREACHABLE,
                            packet,
                            pu.make_mut(),
                        );
                        self.send_from(NodeId(node), pu);
                    }
                }
            }
            proto::TCP => {
                let tcp = &mut self.nodes[node].host_mut().tcp;
                tcp.on_segment(now, src, dst, view.payload(), &mut self.tcp_out);
                self.dispatch_tcp(NodeId(node));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::shard_seed;

    #[test]
    fn shard_seeds_differ_but_shard0_keeps_world_seed() {
        assert_eq!(shard_seed(42, 0), 42);
        assert_ne!(shard_seed(42, 1), shard_seed(42, 2));
        assert_ne!(shard_seed(42, 1), 42);
    }
}
