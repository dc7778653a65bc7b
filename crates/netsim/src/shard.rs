//! Conservative-lookahead sharding: partition the world across cores.
//!
//! A [`ShardedSim`] splits a topology into N shards. Each shard is a
//! [`Sim`] over a partition: it allocates host stacks, route tables,
//! NAT tables and link queues only for the nodes it owns (and the links
//! that touch them) and keeps every other id as a ghost — a slot entry
//! that says "not mine" (see `world.rs`). What no one changes
//! after build — the name index, who owns which node — is held once and
//! shared. A shard never needs a foreign node's state: a packet toward
//! one is diverted at the link into a per-destination outbox and
//! exchanged at window boundaries, and the owner does the rest.
//!
//! # Why determinism survives (see DESIGN.md for the full argument)
//!
//! - **Lookahead.** The window `L` is the minimum latency over links
//!   whose endpoints live in different shards. An event processed at
//!   time `t` can only produce a cross-shard arrival at `t + latency +
//!   serialization + jitter ≥ t + L` (serialization and jitter only add
//!   delay), so everything a shard does inside window `(w, w+L]` lands
//!   in foreign shards strictly after `w + L` — nothing a peer is
//!   concurrently processing can be affected. Shards therefore advance
//!   the window `(w, w+L]` *in parallel with no communication*, and the
//!   barrier exchange at `w + L` is safe.
//! - **Deterministic merge.** Outboxes are drained in `(source shard,
//!   destination shard)` order, packets in send order; each injection
//!   allocates the destination's next `seq`, so the merged `(time, seq)`
//!   order is a pure function of `(seed, shard_count)` — independent of
//!   thread scheduling, because shards share no mutable state between
//!   barriers (each has its own RNG, pool, wheel, and drop counters).
//! - **Boundary equality.** An arrival can be at or behind the
//!   destination's clock after a barrier (equality at the first window,
//!   ties after a `SetDelay` shrink). [`crate::event::EventQueue`]
//!   accepts past-clock pushes and pops them first in `(time, seq)`
//!   order, so the merge never panics and never reorders what a shard
//!   already scheduled.
//! - **One shard is the sequential engine.** With one shard there are no
//!   foreign nodes: no divert, no windows, the same seed drives the same
//!   single wheel — bit-identical to the unsharded simulator by
//!   construction (pinned across the chaos corpus).
//!
//! Threading is an execution detail: with `threads > 1` the per-window
//! advance runs under `std::thread::scope`, otherwise shards advance in
//! index order on the caller's thread. Both produce identical results —
//! windows are communication-free — which is itself asserted by the
//! shard equivalence tests.

use crate::fault::FaultAction;
use crate::link::Link;
use crate::node::{Node, NodeId};
use crate::pool::{BufPool, Frame};
use crate::sim::{NodeTransition, Sim};
use crate::time::SimTime;
use crate::world::{Owned, World};
use fxhash::FxHashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// splitmix64: derives per-shard RNG seeds from the world seed. Shard 0
/// keeps the world seed itself so 1-shard runs replay the sequential
/// engine exactly.
fn shard_seed(seed: u64, shard: usize) -> u64 {
    if shard == 0 {
        return seed;
    }
    plab_obs::export::splitmix64(&mut (seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// A sharded simulator: N [`Sim`] partitions advancing under conservative
/// lookahead. Mirrors the [`Sim`] driving API (sockets, timers, faults,
/// `step`/`run_until`) by routing each call to the owning shard, so a
/// harness written against `Sim` drives a `ShardedSim` unchanged.
pub struct ShardedSim {
    shards: Vec<Sim>,
    /// The fixed part every shard shares: name index, owner per node.
    world: Arc<World>,
    /// Conservative lookahead: minimum cross-shard link latency.
    /// `SimTime::MAX` when single-sharded or no link crosses shards.
    window: SimTime,
    /// Advance shards on OS threads when > 1 (results are identical
    /// either way; see module docs).
    threads: usize,
    /// Window barriers executed (metrics).
    windows_run: u64,
    /// [`ShardedSim::handoffs`] as of the last exchange: while it still
    /// reads the same, every outbox is empty.
    exchanged: u64,
}

impl ShardedSim {
    /// Wrap an existing sequential [`Sim`] as a single-shard world: every
    /// operation delegates straight through — bit-identical behaviour.
    pub fn single(sim: Sim) -> ShardedSim {
        ShardedSim {
            world: sim.world.clone(),
            shards: vec![sim],
            window: SimTime::MAX,
            threads: 1,
            windows_run: 0,
            exchanged: 0,
        }
    }

    /// Build from assembled topology parts (see
    /// [`crate::TopologyBuilder::build_sharded`]).
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        links: Vec<Link>,
        seed: u64,
        names: FxHashMap<String, usize>,
        shard_of: &[usize],
        threads: usize,
    ) -> ShardedSim {
        assert_eq!(shard_of.len(), nodes.len(), "one shard entry per node");
        let count = shard_of.iter().copied().max().map_or(0, |m| m + 1).max(1);
        assert!(count <= u8::MAX as usize, "at most 255 shards");
        let mut window = SimTime::MAX;
        for l in &links {
            if shard_of[l.a.0] != shard_of[l.b.0] {
                assert!(
                    l.params.latency > 0,
                    "cross-shard links need non-zero latency (lookahead)"
                );
                window = window.min(l.params.latency);
            }
        }
        // Deal every node to its owner, every link to the owner of each
        // end (a cross-shard link lives in both, as two half-used copies:
        // each side queues and paces only the direction it transmits).
        let mut parts: Vec<_> = (0..count)
            .map(|_| (Owned::ghosts(nodes.len()), Owned::ghosts(links.len())))
            .collect();
        for (id, node) in nodes.into_iter().enumerate() {
            parts[shard_of[id]].0.own(id, node);
        }
        for (id, link) in links.into_iter().enumerate() {
            let (a, b) = (shard_of[link.a.0], shard_of[link.b.0]);
            if a != b {
                parts[b].1.own(id, link.clone());
            }
            parts[a].1.own(id, link);
        }
        let world = Arc::new(World {
            names,
            shard_of: shard_of.iter().map(|&s| s as u8).collect(),
        });
        let shards = parts
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, links))| {
                let mut sim = Sim::from_parts(nodes, links, shard_seed(seed, i), world.clone());
                if count > 1 {
                    sim.enable_sharding(i, count);
                }
                sim
            })
            .collect();
        ShardedSim {
            shards,
            world,
            window,
            threads: threads.max(1),
            windows_run: 0,
            exchanged: 0,
        }
    }

    /// Owning shard of `node`.
    fn shard_of(&self, node: NodeId) -> usize {
        self.world.shard_of[node.0] as usize
    }

    /// Mutable access to the shard that owns `node` (the harness builds
    /// its per-node `NetStack` views over this).
    pub fn shard_mut(&mut self, node: NodeId) -> &mut Sim {
        let s = self.shard_of(node);
        &mut self.shards[s]
    }

    fn shard(&self, node: NodeId) -> &Sim {
        &self.shards[self.shard_of(node)]
    }

    /// `link` as a shard that holds it sees it (holders agree on
    /// everything faults can set, and on where it runs).
    fn link(&self, link: usize) -> &Link {
        let held = self.shards.iter().find_map(|s| s.links.get(link));
        held.expect("every link has an owned end")
    }

    /// Every shard's buffer pool, for aggregate leak accounting
    /// (`taken == recycled` must hold per shard at teardown).
    pub fn pool_handles(&self) -> Vec<BufPool> {
        self.shards.iter().map(|s| s.pool().clone()).collect()
    }

    /// Total cross-shard packet handoffs.
    pub fn handoffs(&self) -> u64 {
        self.shards.iter().map(|s| s.handoffs()).sum()
    }

    /// Total events processed across shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed()).sum()
    }

    /// See [`Sim::install_route`]. Only `node`'s owner has its table.
    pub fn install_route(&mut self, node: NodeId, dst: Ipv4Addr, iface: usize) {
        self.shard_mut(node).install_route(node, dst, iface);
    }

    /// See [`Sim::set_default_route`].
    pub fn set_default_route(&mut self, node: NodeId, iface: usize) {
        self.shard_mut(node).set_default_route(node, iface);
    }

    /// Window barriers executed so far.
    pub fn windows_run(&self) -> u64 {
        self.windows_run
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Current virtual time: the maximum over shard clocks (shards may
    /// lag inside a window; the frontier is what drivers observe).
    pub fn now(&self) -> SimTime {
        self.shards.iter().map(|s| s.now()).max().unwrap_or(0)
    }

    /// Earliest pending event time across shards.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.next_event_time()).min()
    }

    /// Process the single globally earliest event (ties break toward the
    /// lower shard index), then exchange if anything has been diverted
    /// since the last exchange — by this event, or by a socket call the
    /// driver made between steps. Most events divert nothing, and then
    /// the outboxes are not walked. This is the fine-grained sequential
    /// merge — used by drivers that must react between events;
    /// `run_until` is the windowed parallel path.
    pub fn step(&mut self) -> bool {
        if self.shards.len() == 1 {
            return self.shards[0].step();
        }
        let Some((_, idx)) = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.next_event_time().map(|t| (t, i)))
            .min()
        else {
            return false;
        };
        self.shards[idx].step();
        if self.handoffs() != self.exchanged {
            self.exchange();
        }
        true
    }

    /// Process all events up to and including `deadline`, then advance
    /// every shard's clock to `deadline`. Multi-shard worlds advance in
    /// conservative-lookahead windows, in parallel when `threads > 1`.
    pub fn run_until(&mut self, deadline: SimTime) {
        if self.shards.len() == 1 {
            return self.shards[0].run_until(deadline);
        }
        loop {
            let boundary = self.next_boundary(deadline);
            self.advance_window(boundary);
            if boundary >= deadline {
                break;
            }
        }
    }

    /// The next window boundary toward `deadline` from the current
    /// frontier.
    fn next_boundary(&self, deadline: SimTime) -> SimTime {
        if self.window == SimTime::MAX {
            return deadline;
        }
        self.now().saturating_add(self.window).min(deadline)
    }

    /// Advance every shard to `boundary` (its safe horizon), then
    /// exchange cross-shard packets at the barrier. Communication-free
    /// inside the window, so the shard loop runs on OS threads when
    /// configured — with identical results either way.
    fn advance_window(&mut self, boundary: SimTime) {
        if self.threads > 1 && self.shards.len() > 1 {
            std::thread::scope(|scope| {
                for shard in &mut self.shards {
                    scope.spawn(move || shard.run_until(boundary));
                }
            });
        } else {
            for shard in &mut self.shards {
                shard.run_until(boundary);
            }
        }
        self.windows_run += 1;
        static WINDOWS: plab_obs::metrics::Counter =
            plab_obs::metrics::Counter::new("netsim.shard.windows");
        WINDOWS.inc();
        self.exchange();
    }

    /// Drain every outbox in `(source, destination)` shard order and
    /// inject the packets — the deterministic merge point.
    fn exchange(&mut self) {
        self.exchanged = self.handoffs();
        let n = self.shards.len();
        let mut moved = 0u64;
        for src in 0..n {
            for dst in 0..n {
                // A shard's outbox toward itself stays empty.
                let outbox = self.shards[src].outbox(dst);
                if outbox.is_empty() {
                    continue;
                }
                // Drained in place and handed back: an outbox keeps its
                // capacity from one exchange to the next.
                let mut pkts = std::mem::take(outbox);
                moved += pkts.len() as u64;
                for p in pkts.drain(..) {
                    self.shards[dst].inject_cross(p);
                }
                *self.shards[src].outbox(dst) = pkts;
            }
        }
        if moved > 0 {
            static HANDOFFS: plab_obs::metrics::Counter =
                plab_obs::metrics::Counter::new("netsim.shard.handoffs");
            HANDOFFS.add(moved);
            static BATCH: plab_obs::metrics::Histogram =
                plab_obs::metrics::Histogram::new("netsim.shard.exchange_batch");
            BATCH.observe(moved);
        }
    }

    // ------------------------------------------------------------------
    // Delegated driving API (routes to the owning shard)
    // ------------------------------------------------------------------

    /// Find a node by name. O(1): backed by the shared index the builder
    /// checked names against (they are fixed once the topology is built).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.world.names.get(name).copied().map(NodeId)
    }

    /// See [`Sim::addr_of`].
    pub fn addr_of(&self, node: NodeId) -> Ipv4Addr {
        self.shard(node).addr_of(node)
    }

    /// See [`Sim::link_between`]. `a`'s owner holds every link of `a`.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.shard(a).link_between(a, b)
    }

    /// See [`Sim::schedule_timer`].
    pub fn schedule_timer(&mut self, node: NodeId, key: u64, time: SimTime) {
        self.shard_mut(node).schedule_timer(node, key, time);
    }

    /// Drain a per-shard log onto `out`, concatenated in shard order — so
    /// the merged sequence is a pure function of `(seed, shard_count)`
    /// like every other cross-shard observable. Onto the caller's buffer:
    /// the harness drains around every event, and a drain must allocate
    /// nothing once that buffer has grown.
    fn gather<T>(&mut self, out: &mut Vec<T>, drain: impl Fn(&mut Sim, &mut Vec<T>)) {
        self.shards.iter_mut().for_each(|s| drain(s, out));
    }

    /// Fired timers across shards onto `out`, in shard order.
    pub fn drain_fired_timers(&mut self, out: &mut Vec<(NodeId, u64)>) {
        self.gather(out, Sim::drain_fired_timers)
    }

    /// See [`Sim::set_track_dirty`]. Applied to every shard.
    pub fn set_track_dirty(&mut self) {
        for s in &mut self.shards {
            s.set_track_dirty();
        }
    }

    /// See [`Sim::quiet`]: every shard is.
    pub fn quiet(&self) -> bool {
        self.shards.iter().all(Sim::quiet)
    }

    /// See [`Sim::activity`]: summed over shards.
    pub fn activity(&self) -> u64 {
        self.shards.iter().map(Sim::activity).sum()
    }

    /// See [`Sim::drain_dirty_nodes`]. Concatenated in shard order.
    pub fn drain_dirty_nodes(&mut self, out: &mut Vec<NodeId>) {
        self.gather(out, Sim::drain_dirty_nodes)
    }

    /// See [`Sim::schedule_send`].
    pub fn schedule_send(&mut self, node: NodeId, time: SimTime, packet: Vec<u8>, tag: u64) {
        self.shard_mut(node).schedule_send(node, time, packet, tag);
    }

    /// Schedule a fault: node faults go to the owning shard; link faults
    /// go to every shard (each applies it at the same virtual time in its
    /// own timeline; only the shards holding the link have anything to
    /// change). A `SetDelay` that lowers a cross-shard latency below the
    /// current window conservatively shrinks the window immediately — at
    /// schedule time, deterministically — so the lookahead stays sound
    /// from the moment the new latency can matter.
    pub fn schedule_fault(&mut self, at: SimTime, action: FaultAction) {
        match action {
            FaultAction::TcpReset { node }
            | FaultAction::NodeCrash { node }
            | FaultAction::NodeRestart { node } => {
                return self.shard_mut(NodeId(node)).schedule_fault(at, action);
            }
            FaultAction::SetDelay { link, latency, .. } if self.shards.len() > 1 => {
                let l = self.link(link);
                let crosses = self.world.shard_of[l.a.0] != self.world.shard_of[l.b.0];
                if crosses && latency < self.window {
                    self.window = latency.max(1);
                }
            }
            _ => {}
        }
        for s in &mut self.shards {
            s.schedule_fault(at, action.clone());
        }
    }

    /// Node transitions across shards onto `out`, in shard order.
    pub fn drain_node_transitions(&mut self, out: &mut Vec<NodeTransition>) {
        self.gather(out, Sim::drain_node_transitions)
    }

    /// See [`Sim::raw_open`].
    pub fn raw_open(&mut self, node: NodeId) -> u64 {
        self.shard_mut(node).raw_open(node)
    }

    /// See [`Sim::raw_send`].
    pub fn raw_send(&mut self, node: NodeId, packet: Vec<u8>) {
        self.shard_mut(node).raw_send(node, packet);
    }

    /// See [`Sim::raw_recv`].
    pub fn raw_recv(&mut self, node: NodeId, sock: u64) -> Vec<(SimTime, Frame)> {
        self.shard_mut(node).raw_recv(node, sock)
    }

    /// See [`Sim::set_defer_os`].
    pub fn set_defer_os(&mut self, node: NodeId) {
        self.shard_mut(node).set_defer_os(node);
    }

    /// See [`Sim::drain_pending_os`].
    pub fn drain_pending_os(&mut self, node: NodeId, out: &mut Vec<(SimTime, Frame)>) {
        self.shard_mut(node).drain_pending_os(node, out)
    }

    /// See [`Sim::os_process`].
    pub fn os_process(&mut self, node: NodeId, packet: &Frame) {
        self.shard_mut(node).os_process(node, packet);
    }

    /// See [`Sim::udp_bind`].
    pub fn udp_bind(&mut self, node: NodeId, port: u16) -> bool {
        self.shard_mut(node).udp_bind(node, port)
    }

    /// See [`Sim::udp_send`].
    pub fn udp_send(
        &mut self,
        node: NodeId,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) {
        self.shard_mut(node)
            .udp_send(node, src_port, dst, dst_port, payload);
    }

    /// See [`Sim::udp_recv`].
    pub fn udp_recv(&mut self, node: NodeId, port: u16) -> Vec<(SimTime, Ipv4Addr, u16, Frame)> {
        self.shard_mut(node).udp_recv(node, port)
    }

    /// See [`Sim::tcp_listen`].
    pub fn tcp_listen(&mut self, node: NodeId, port: u16) {
        self.shard_mut(node).tcp_listen(node, port);
    }

    /// See [`Sim::tcp_accept`].
    pub fn tcp_accept(&mut self, node: NodeId, port: u16) -> Option<u64> {
        self.shard_mut(node).tcp_accept(node, port)
    }

    /// See [`Sim::tcp_acceptable`].
    pub fn tcp_acceptable(&self, node: NodeId, port: u16) -> bool {
        self.shard(node).tcp_acceptable(node, port)
    }

    /// See [`Sim::tcp_connect`].
    pub fn tcp_connect(&mut self, node: NodeId, dst: Ipv4Addr, dst_port: u16) -> u64 {
        self.shard_mut(node).tcp_connect(node, dst, dst_port)
    }

    /// See [`Sim::tcp_send`].
    pub fn tcp_send(&mut self, node: NodeId, conn: u64, data: &[u8]) {
        self.shard_mut(node).tcp_send(node, conn, data);
    }

    /// See [`Sim::tcp_recv`].
    pub fn tcp_recv(&mut self, node: NodeId, conn: u64, max: usize) -> Vec<u8> {
        self.shard_mut(node).tcp_recv(node, conn, max)
    }

    /// See [`Sim::tcp_readable`].
    pub fn tcp_readable(&self, node: NodeId, conn: u64) -> usize {
        self.shard(node).tcp_readable(node, conn)
    }

    /// See [`Sim::tcp_established`].
    pub fn tcp_established(&self, node: NodeId, conn: u64) -> bool {
        self.shard(node).tcp_established(node, conn)
    }

    /// See [`Sim::tcp_closed`].
    pub fn tcp_closed(&self, node: NodeId, conn: u64) -> bool {
        self.shard(node).tcp_closed(node, conn)
    }

    /// See [`Sim::tcp_peer_done`].
    pub fn tcp_peer_done(&self, node: NodeId, conn: u64) -> bool {
        self.shard(node).tcp_peer_done(node, conn)
    }

    /// See [`Sim::tcp_close`].
    pub fn tcp_close(&mut self, node: NodeId, conn: u64) {
        self.shard_mut(node).tcp_close(node, conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::time::{MILLISECOND, SECOND};
    use crate::topology::TopologyBuilder;

    fn addr(x: u8, y: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, x, y)
    }

    /// h1 -- r -- h2 with 5 ms links; h1+r on shard 0, h2 on shard 1
    /// (when sharded).
    fn world(shard_of: &[usize], threads: usize) -> (ShardedSim, NodeId, NodeId) {
        let mut t = TopologyBuilder::new();
        t.seed(7);
        let h1 = t.host("h1", addr(0, 1));
        let r = t.router("r", addr(0, 254));
        let h2 = t.host("h2", addr(1, 1));
        t.link(h1, r, LinkParams::new(5, 0));
        t.link(r, h2, LinkParams::new(5, 0));
        let net = t.build_sharded(shard_of, threads);
        (net, h1, h2)
    }

    fn observe(net: &mut ShardedSim, h1: NodeId, h2: NodeId) -> Vec<(SimTime, u8)> {
        net.udp_bind(h2, 7);
        for i in 0..20u8 {
            net.udp_send(h1, 5000, addr(1, 1), 7, &[i]);
        }
        net.run_until(SECOND);
        net.udp_recv(h2, 7)
            .iter()
            .map(|(t, _, _, p)| (*t, p[0]))
            .collect()
    }

    #[test]
    fn single_shard_matches_sequential_sim() {
        let (mut sharded, h1, h2) = world(&[0, 0, 0], 1);
        let got = observe(&mut sharded, h1, h2);

        let mut t = TopologyBuilder::new();
        t.seed(7);
        let a1 = t.host("h1", addr(0, 1));
        let r = t.router("r", addr(0, 254));
        let a2 = t.host("h2", addr(1, 1));
        t.link(a1, r, LinkParams::new(5, 0));
        t.link(r, a2, LinkParams::new(5, 0));
        let mut sim = t.build();
        sim.udp_bind(a2, 7);
        for i in 0..20u8 {
            sim.udp_send(a1, 5000, addr(1, 1), 7, &[i]);
        }
        sim.run_until(SECOND);
        let want: Vec<(SimTime, u8)> = sim
            .udp_recv(a2, 7)
            .iter()
            .map(|(t, _, _, p)| (*t, p[0]))
            .collect();
        assert_eq!(got, want, "1-shard == sequential, bit for bit");
    }

    #[test]
    fn cross_shard_delivery_matches_sequential_timing() {
        // Lossless, jitterless: sharded timing must equal sequential.
        let (mut seq, s1, s2) = world(&[0, 0, 0], 1);
        let want = observe(&mut seq, s1, s2);
        let (mut sharded, h1, h2) = world(&[0, 0, 1], 1);
        assert_eq!(sharded.window, 5 * MILLISECOND);
        let got = observe(&mut sharded, h1, h2);
        assert_eq!(got, want, "cross-shard arrivals keep exact times");
        assert!(sharded.handoffs() >= 20, "every packet crossed the cut");
        assert!(sharded.windows_run() > 0);
    }

    #[test]
    fn threaded_advance_is_bit_identical_to_unthreaded() {
        let (mut one, a1, a2) = world(&[0, 0, 1], 1);
        let (mut two, b1, b2) = world(&[0, 0, 1], 2);
        assert_eq!(
            observe(&mut one, a1, a2),
            observe(&mut two, b1, b2),
            "threads are an execution detail, not an observable"
        );
    }

    #[test]
    fn step_mode_merges_shards_in_global_time_order() {
        let (mut net, h1, h2) = world(&[0, 0, 1], 1);
        net.udp_bind(h2, 7);
        net.udp_send(h1, 5000, addr(1, 1), 7, b"x");
        let mut last = 0;
        while net.step() {
            let t = net.now();
            assert!(t >= last, "global frontier is monotone");
            last = t;
            if last > SECOND {
                break;
            }
        }
        assert_eq!(net.udp_recv(h2, 7).len(), 1);
    }

    #[test]
    fn step_exchanges_what_a_socket_call_diverted_between_steps() {
        // h2's only link crosses the cut, so its send is diverted inside
        // `udp_send`, not inside any `step`. The next step must hand it
        // over even though the event it processes diverts nothing.
        let (mut net, h1, h2) = world(&[0, 0, 1], 1);
        net.udp_bind(h1, 7);
        net.udp_send(h2, 5000, addr(0, 1), 7, b"x");
        assert_eq!(net.handoffs(), 1);
        while net.step() {}
        assert_eq!(net.udp_recv(h1, 7).len(), 1);
    }

    #[test]
    fn quiet_holds_across_router_hops_and_ends_where_a_host_is_touched() {
        let (mut net, h1, h2) = world(&[0, 0, 1], 1);
        net.udp_bind(h2, 7);
        assert!(!net.quiet(), "nobody records touches until tracking is on");
        net.set_track_dirty();
        net.udp_send(h1, 5000, addr(1, 1), 7, b"x");
        assert!(net.quiet());
        // Arrival at the router (forwarded, diverted), the queue release
        // behind the handoff: nothing a harness could see.
        for _ in 0..2 {
            assert!(net.step());
            assert!(net.quiet());
        }
        assert!(net.step(), "the arrival at h2");
        assert!(!net.quiet());
        let mut dirty = Vec::new();
        net.drain_dirty_nodes(&mut dirty);
        assert_eq!(dirty, vec![h2]);
        assert!(net.quiet());
        net.schedule_timer(h1, 9, net.now() + MILLISECOND);
        assert!(net.step());
        assert!(!net.quiet(), "a fired timer waits to be taken");
    }

    #[test]
    fn per_shard_pools_stay_symmetric() {
        let (mut net, h1, h2) = world(&[0, 0, 1], 1);
        let _ = observe(&mut net, h1, h2);
        let pools = net.pool_handles();
        drop(net);
        for (i, pool) in pools.iter().enumerate() {
            assert_eq!(pool.taken(), pool.recycled(), "shard {i} leaked frames");
        }
    }

    #[test]
    fn a_handoff_moves_a_unique_buffer_and_copies_a_shared_one() {
        // h2's only link crosses the cut: what it sends is handed to
        // shard 0 inside `send_from`, and h1's raw socket captures the
        // arrival (the router's TTL decrement is in place on a unique
        // frame).
        let (mut net, h1, h2) = world(&[0, 0, 1], 1);
        let sock = net.raw_open(h1);
        net.udp_bind(h1, 7);
        let pkt = plab_packet::builder::udp_datagram(addr(1, 1), addr(0, 1), 5000, 7, b"x");
        let cow_copies =
            |net: &ShardedSim| -> u64 { net.pool_handles().iter().map(BufPool::cow_copies).sum() };
        let cross = |net: &mut ShardedSim, frame: Frame| {
            net.shard_mut(h2).send_from(h2, frame);
            while net.step() {}
            let mut got = net.raw_recv(h1, sock);
            assert_eq!(got.len(), 1);
            got.pop().expect("one arrival").1
        };

        let unique = net.shard_mut(h2).pool().take_copy(&pkt);
        let sent = unique.as_ptr();
        let arrived = cross(&mut net, unique);
        assert_eq!(arrived.as_ptr(), sent, "the buffer itself crossed the cut");
        assert_eq!(cow_copies(&net), 0);

        // A capture on the sending node still holds the frame: the
        // handoff copies the bytes and leaves the capture's buffer alone.
        let shared = net.shard_mut(h2).pool().take_copy(&pkt);
        let capture = shared.clone();
        let copied = cross(&mut net, shared);
        assert_ne!(
            copied.as_ptr(),
            capture.as_ptr(),
            "a shared frame is copied"
        );
        assert_eq!(cow_copies(&net), 0, "at the handoff, not at the router");
        assert_eq!(capture, pkt, "the capture is untouched");
        assert_eq!(copied, arrived, "the copy carries the same datagram");

        let pools = net.pool_handles();
        drop((arrived, capture, copied, net));
        for (i, pool) in pools.iter().enumerate() {
            assert_eq!(pool.taken(), pool.recycled(), "shard {i} leaked frames");
        }
    }

    #[test]
    fn node_faults_route_to_owner_and_link_faults_broadcast() {
        let (mut net, h1, h2) = world(&[0, 0, 1], 1);
        net.udp_bind(h2, 7);
        let link = net
            .link_between(net.node_by_name("r").unwrap(), h2)
            .unwrap();
        net.schedule_fault(MILLISECOND, FaultAction::LinkDown { link });
        net.schedule_fault(40 * MILLISECOND, FaultAction::NodeCrash { node: h2.0 });
        net.udp_send(h1, 5000, addr(1, 1), 7, b"x");
        net.run_until(SECOND);
        assert!(!net.link(link).up);
        assert_eq!(net.udp_recv(h2, 7).len(), 0, "blackholed behind the cut");
        let mut transitions = Vec::new();
        net.drain_node_transitions(&mut transitions);
        assert_eq!(transitions, vec![NodeTransition::Crashed(h2)]);
        let _ = h1;
    }

    #[test]
    fn pod_world_lookups_reach_every_shard_and_routes_land_at_the_owner() {
        use crate::roster::{build_roster, RosterSpec};
        let spec = RosterSpec {
            pairs: 256,
            shards: 4,
            threads: 1,
            seed: 1,
            access_mbps: 0,
        };
        let mut w = build_roster(&spec);
        let mut seen = [false; 4];
        for (i, p) in w.pairs.iter().enumerate() {
            for (name, node, addr) in [
                (format!("c{i}"), p.controller, p.controller_addr),
                (format!("e{i}"), p.endpoint, p.endpoint_addr),
            ] {
                seen[w.sim.shard_of(node)] = true;
                assert_eq!(w.sim.node_by_name(&name), Some(node));
                assert_eq!(w.sim.addr_of(node), addr);
            }
            let pod = w.sim.node_by_name(&format!("epod{}", i / 64)).unwrap();
            let link = w.sim.link_between(p.endpoint, pod).expect("access link");
            assert_eq!(w.sim.link_between(pod, p.endpoint), Some(link));
            assert!(w.sim.link(link).up);
            assert_eq!(w.sim.link_between(p.endpoint, p.controller), None);
        }
        assert_eq!(seen, [true; 4], "the roster spans every shard");

        // A route installed after build exists at the owner and nowhere
        // else: the other shards hold a ghost, not a table.
        let pod = w.sim.node_by_name("epod2").unwrap();
        let (owner, dst) = (w.sim.shard_of(pod), addr(9, 9));
        w.sim.install_route(pod, dst, 3);
        for (i, shard) in w.sim.shards.iter().enumerate() {
            let table = shard.nodes.get(pod.0).map(|n| n.routes.lookup(dst));
            assert_eq!(table, (i == owner).then_some(Some(3)), "shard {i}");
        }
    }

    #[test]
    fn set_delay_below_window_shrinks_it() {
        let (mut net, h1, h2) = world(&[0, 0, 1], 1);
        let link = net
            .link_between(net.node_by_name("r").unwrap(), h2)
            .unwrap();
        assert_eq!(net.window, 5 * MILLISECOND);
        net.schedule_fault(
            MILLISECOND,
            FaultAction::SetDelay {
                link,
                latency: MILLISECOND,
                jitter: 0,
            },
        );
        assert_eq!(net.window, MILLISECOND, "window shrinks at schedule time");
        let _ = (h1, h2);
    }

    #[test]
    fn shard_seeds_differ_but_shard0_keeps_world_seed() {
        assert_eq!(shard_seed(42, 0), 42);
        assert_ne!(shard_seed(42, 1), shard_seed(42, 2));
        assert_ne!(shard_seed(42, 1), 42);
    }
}
