//! Topology construction: declare nodes and links, get a routed [`Sim`].

use crate::link::{Link, LinkParams};
use crate::nat::NatTable;
use crate::node::{HostState, Iface, Node, NodeId, NodeKind};
use crate::routing::{compute_routes, Adjacency, RouteTable};
use crate::sim::Sim;
use fxhash::FxHashMap;
use std::net::Ipv4Addr;

/// Builder for simulation topologies.
///
/// ```
/// use plab_netsim::{TopologyBuilder, LinkParams};
///
/// let mut t = TopologyBuilder::new();
/// let h1 = t.host("h1", "10.0.0.1".parse().unwrap());
/// let r = t.router("r", "10.0.0.254".parse().unwrap());
/// let h2 = t.host("h2", "10.0.1.1".parse().unwrap());
/// t.link(h1, r, LinkParams::new(5, 100));
/// t.link(r, h2, LinkParams::new(5, 100));
/// let sim = t.build();
/// assert_eq!(sim.addr_of(h1), "10.0.0.1".parse::<std::net::Ipv4Addr>().unwrap());
/// ```
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    /// Name → node index; becomes the built world's name index.
    names: FxHashMap<String, usize>,
    links: Vec<(NodeId, NodeId, LinkParams)>,
    seed: u64,
    auto_routes: bool,
}

impl Default for TopologyBuilder {
    fn default() -> Self {
        TopologyBuilder {
            nodes: Vec::new(),
            names: FxHashMap::default(),
            links: Vec::new(),
            seed: 0,
            auto_routes: true,
        }
    }
}

impl TopologyBuilder {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the RNG seed (loss determinism).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Skip automatic (all-pairs BFS) route computation. The caller
    /// installs routes after `build` with [`Sim::install_route`] and
    /// [`Sim::set_default_route`] —
    /// required for very large worlds where O(nodes²) routing is
    /// infeasible (hosts still get their single-link default route).
    pub fn manual_routes(&mut self) -> &mut Self {
        self.auto_routes = false;
        self
    }

    fn push(&mut self, node: Node) -> NodeId {
        let id = self.nodes.len();
        assert!(
            self.names.insert(node.name.clone(), id).is_none(),
            "duplicate node name `{}`",
            node.name
        );
        self.nodes.push(node);
        NodeId(id)
    }

    /// Add an end host.
    pub fn host(&mut self, name: &str, addr: Ipv4Addr) -> NodeId {
        self.push(Node {
            name: name.to_string(),
            kind: NodeKind::Host,
            ifaces: vec![Iface { addr, link: None }],
            routes: RouteTable::new(),
            host: Some(HostState::default()),
            nat: None,
            nat_internal_iface: 0,
            crashed: false,
        })
    }

    /// Add a router. Routers answer pings to `addr` and emit ICMP Time
    /// Exceeded from it.
    pub fn router(&mut self, name: &str, addr: Ipv4Addr) -> NodeId {
        self.push(Node {
            name: name.to_string(),
            kind: NodeKind::Router,
            ifaces: vec![Iface { addr, link: None }],
            routes: RouteTable::new(),
            host: None,
            nat: None,
            nat_internal_iface: 0,
            crashed: false,
        })
    }

    /// Add a NAT box. `internal_addr` faces the inside (first link
    /// attached is assumed internal), `external_addr` is the public
    /// address presented outside.
    pub fn nat(&mut self, name: &str, internal_addr: Ipv4Addr, external_addr: Ipv4Addr) -> NodeId {
        self.push(Node {
            name: name.to_string(),
            kind: NodeKind::Nat,
            ifaces: vec![
                Iface {
                    addr: internal_addr,
                    link: None,
                },
                Iface {
                    addr: external_addr,
                    link: None,
                },
            ],
            routes: RouteTable::new(),
            host: None,
            nat: Some(NatTable::new(external_addr)),
            nat_internal_iface: 0,
            crashed: false,
        })
    }

    /// Connect two nodes. Interfaces are allocated automatically: hosts
    /// use their single interface; routers/NATs grow interfaces per link
    /// (a NAT's first link is its internal side). Returns the link index,
    /// usable with the fault-injection APIs ([`Sim::schedule_fault`]).
    pub fn link(&mut self, a: NodeId, b: NodeId, params: LinkParams) -> usize {
        self.links.push((a, b, params));
        self.links.len() - 1
    }

    /// Finalize: allocate interfaces, compute routes, return the sim: a
    /// world of one shard.
    pub fn build(self) -> Sim {
        let n = self.nodes.len();
        self.build_sharded(&vec![0; n], 1)
    }

    /// Finalize into a sharded world: `shard_of[node]` assigns each node
    /// to a shard, and `threads > 1` advances shards on OS threads under
    /// conservative-lookahead windows (see [`crate::sim`]). Every
    /// cross-shard link must have non-zero latency — the minimum such
    /// latency is the lookahead window.
    pub fn build_sharded(self, shard_of: &[usize], threads: usize) -> Sim {
        let (nodes, links, seed, names) = self.assemble();
        Sim::from_parts(nodes, links, seed, names, shard_of, threads)
    }

    /// Allocate interfaces and routes, producing the parts a [`Sim`]'s
    /// shards are dealt from.
    fn assemble(mut self) -> (Vec<Node>, Vec<Link>, u64, FxHashMap<String, usize>) {
        let mut links = Vec::new();
        for (a, b, params) in std::mem::take(&mut self.links) {
            let ia = self.attach_iface(a.0, links.len());
            let ib = self.attach_iface(b.0, links.len());
            links.push(Link::new((a.0, ia), (b.0, ib), params));
        }
        if self.auto_routes {
            // Build adjacency for route computation.
            let mut adjacency: Adjacency = vec![Vec::new(); self.nodes.len()];
            for link in &links {
                adjacency[link.a.0].push((link.b.0, link.a.1));
                adjacency[link.b.0].push((link.a.0, link.b.1));
            }
            let addrs: Vec<Vec<Ipv4Addr>> = self
                .nodes
                .iter()
                .map(|n| n.ifaces.iter().map(|i| i.addr).collect())
                .collect();
            let tables = compute_routes(&adjacency, &addrs);
            for (node, table) in self.nodes.iter_mut().zip(tables) {
                node.routes = table;
            }
        }
        for node in &mut self.nodes {
            // Hosts with exactly one link default-route through it.
            if node.kind == NodeKind::Host {
                node.routes.default_iface = Some(0);
            }
        }
        (self.nodes, links, self.seed, self.names)
    }

    /// Attach a link to a node, allocating an interface slot.
    fn attach_iface(&mut self, node: usize, link_idx: usize) -> usize {
        let n = &mut self.nodes[node];
        // Reuse the first unattached interface; otherwise clone the last
        // address into a new interface slot (routers are multi-iface).
        // Slots fill in index order and new ones are born attached, so
        // the first free slot is the one after the last attached.
        let pos = n
            .ifaces
            .iter()
            .rposition(|i| i.link.is_some())
            .map_or(0, |p| p + 1);
        if pos < n.ifaces.len() {
            n.ifaces[pos].link = Some(link_idx);
            return pos;
        }
        assert!(
            n.kind != NodeKind::Host,
            "host `{}` already fully linked",
            n.name
        );
        let addr = n
            .ifaces
            .last()
            .map(|i| i.addr)
            .unwrap_or(Ipv4Addr::UNSPECIFIED);
        n.ifaces.push(Iface {
            addr,
            link: Some(link_idx),
        });
        n.ifaces.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MILLISECOND, SECOND};
    use crate::DropReason;
    use plab_packet::{builder, icmp, ipv4};

    fn a(x: u8, y: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, x, y)
    }

    /// h1 -- r1 -- r2 -- h2 line with 5ms links.
    fn line() -> (Sim, NodeId, NodeId, NodeId, NodeId) {
        let mut t = TopologyBuilder::new();
        let h1 = t.host("h1", a(0, 1));
        let r1 = t.router("r1", a(0, 254));
        let r2 = t.router("r2", a(1, 254));
        let h2 = t.host("h2", a(1, 1));
        t.link(h1, r1, LinkParams::new(5, 0));
        t.link(r1, r2, LinkParams::new(5, 0));
        t.link(r2, h2, LinkParams::new(5, 0));
        (t.build(), h1, r1, r2, h2)
    }

    #[test]
    fn ping_end_to_end_rtt() {
        let (mut sim, h1, _, _, _h2) = line();
        let raw = sim.raw_open(h1);
        let probe = builder::icmp_echo_request(a(0, 1), a(1, 1), 64, 7, 1, b"ping");
        sim.raw_send(h1, probe);
        sim.run_until(SECOND);
        // h2's OS replied; h1's raw socket sees the reply.
        let got = sim.raw_recv(h1, raw);
        let reply = got
            .iter()
            .find(|(_, p)| {
                ipv4::Ipv4View::new_unchecked(p)
                    .map(|v| v.src() == a(1, 1))
                    .unwrap_or(false)
            })
            .expect("echo reply received");
        // RTT = 6 hops × 5 ms = 30 ms.
        assert_eq!(reply.0, 30 * MILLISECOND);
        let v = ipv4::Ipv4View::new_unchecked(&reply.1).unwrap();
        assert!(matches!(
            icmp::parse(v.payload()),
            Ok(icmp::IcmpMessage::EchoReply {
                ident: 7,
                seq: 1,
                ..
            })
        ));
    }

    #[test]
    fn ttl_1_trips_first_router() {
        let (mut sim, h1, r1, _, h2) = line();
        let raw = sim.raw_open(h1);
        let probe = builder::icmp_echo_request(a(0, 1), a(1, 1), 1, 7, 1, &[]);
        sim.raw_send(h1, probe);
        sim.run_until(SECOND);
        let got = sim.raw_recv(h1, raw);
        assert_eq!(got.len(), 1);
        let v = ipv4::Ipv4View::new_unchecked(&got[0].1).unwrap();
        assert_eq!(v.src(), sim.addr_of(r1), "time exceeded from r1");
        assert!(matches!(
            icmp::parse(v.payload()),
            Ok(icmp::IcmpMessage::TimeExceeded { .. })
        ));
        let _ = h2;
    }

    #[test]
    fn ttl_2_trips_second_router() {
        let (mut sim, h1, _, r2, _) = line();
        let raw = sim.raw_open(h1);
        let probe = builder::icmp_echo_request(a(0, 1), a(1, 1), 2, 7, 2, &[]);
        sim.raw_send(h1, probe);
        sim.run_until(SECOND);
        let got = sim.raw_recv(h1, raw);
        assert_eq!(got.len(), 1);
        let v = ipv4::Ipv4View::new_unchecked(&got[0].1).unwrap();
        assert_eq!(v.src(), sim.addr_of(r2));
    }

    #[test]
    fn ttl_3_reaches_destination() {
        let (mut sim, h1, _, _, _) = line();
        let raw = sim.raw_open(h1);
        let probe = builder::icmp_echo_request(a(0, 1), a(1, 1), 3, 7, 3, &[]);
        sim.raw_send(h1, probe);
        sim.run_until(SECOND);
        let got = sim.raw_recv(h1, raw);
        let v = ipv4::Ipv4View::new_unchecked(&got[0].1).unwrap();
        assert_eq!(v.src(), a(1, 1), "destination itself replies");
        assert!(matches!(
            icmp::parse(v.payload()),
            Ok(icmp::IcmpMessage::EchoReply { .. })
        ));
    }

    #[test]
    fn udp_delivery_and_port_unreachable() {
        let (mut sim, h1, _, _, h2) = line();
        sim.udp_bind(h2, 9000);
        sim.udp_bind(h1, 5000);
        sim.udp_send(h1, 5000, a(1, 1), 9000, b"hello");
        sim.run_until(SECOND);
        let got = sim.udp_recv(h2, 9000);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].3, b"hello");
        assert_eq!(got[0].1, a(0, 1));

        // Unbound port: ICMP port unreachable comes back.
        let raw = sim.raw_open(h1);
        sim.udp_send(h1, 5000, a(1, 1), 9999, b"nobody");
        sim.run_until(2 * SECOND);
        let raws = sim.raw_recv(h1, raw);
        let unreachable = raws.iter().any(|(_, p)| {
            let v = ipv4::Ipv4View::new_unchecked(p).unwrap();
            matches!(
                icmp::parse(v.payload()),
                Ok(icmp::IcmpMessage::DestUnreachable { .. })
            )
        });
        assert!(unreachable);
    }

    #[test]
    fn bandwidth_paces_udp_burst() {
        // 8 Mbps access link: a 1000-byte datagram serializes in 1 ms.
        let mut t = TopologyBuilder::new();
        let h1 = t.host("h1", a(0, 1));
        let h2 = t.host("h2", a(1, 1));
        t.link(h1, h2, LinkParams::new(0, 8));
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        for i in 0..10 {
            // 1000-byte IP datagrams: 20 IP + 8 UDP + 972 payload.
            sim.udp_send(h1, 5000, a(1, 1), 7, &vec![i as u8; 972]);
        }
        sim.run_until(SECOND);
        let got = sim.udp_recv(h2, 7);
        assert_eq!(got.len(), 10);
        // Arrivals spaced exactly 1 ms apart.
        for (i, w) in got.windows(2).enumerate() {
            let gap = w[1].0 - w[0].0;
            assert_eq!(gap, MILLISECOND, "gap {i}");
        }
    }

    #[test]
    fn tcp_over_network() {
        let (mut sim, h1, _, _, h2) = line();
        sim.tcp_listen(h2, 80);
        let c1 = sim.tcp_connect(h1, a(1, 1), 80);
        sim.run_until(SECOND);
        assert!(sim.tcp_established(h1, c1));
        let c2 = sim.tcp_accept(h2, 80).expect("accepted");
        sim.tcp_send(h1, c1, b"GET / HTTP/1.0\r\n\r\n");
        sim.run_until(2 * SECOND);
        assert_eq!(sim.tcp_recv(h2, c2, 1024), b"GET / HTTP/1.0\r\n\r\n");
        sim.tcp_send(h2, c2, b"200 OK");
        sim.run_until(3 * SECOND);
        assert_eq!(sim.tcp_recv(h1, c1, 1024), b"200 OK");
        sim.tcp_close(h1, c1);
        sim.tcp_close(h2, c2);
        sim.run_until(4 * SECOND);
        assert!(sim.tcp_closed(h1, c1));
        assert!(sim.tcp_closed(h2, c2));
    }

    #[test]
    fn tcp_rst_interference_and_consume_suppression() {
        // §3.1: an incoming TCP segment with no matching session triggers
        // an OS RST unless the endpoint's filter consumes it.
        let (mut sim, h1, _, _, h2) = line();
        let raw1 = sim.raw_open(h1);
        // Craft a raw SYN from h1 to h2's closed port.
        let syn = builder::tcp_segment(
            a(0, 1),
            a(1, 1),
            plab_packet::tcp::TcpHeader {
                src_port: 1234,
                dst_port: 80,
                seq: 1,
                ack: 0,
                flags: plab_packet::tcp::flags::SYN,
                window: 100,
            },
            &[],
        );
        sim.raw_send(h1, syn.clone());
        sim.run_until(SECOND);
        // h2 RSTs; h1's raw socket observes it...
        let got = sim.raw_recv(h1, raw1);
        assert!(
            got.iter().any(|(_, p)| {
                let v = ipv4::Ipv4View::new_unchecked(p).unwrap();
                v.protocol() == plab_packet::proto::TCP
            }),
            "RST observed at h1 raw socket"
        );
        // ...and h1's own OS would also RST h2's RST-less packets. Now
        // with defer_os, the endpoint agent consumes and no RST emerges.
        sim.set_defer_os(h2);
        let _raw2 = sim.raw_open(h2);
        sim.raw_send(h1, syn);
        sim.run_until(2 * SECOND);
        let mut pending = Vec::new();
        sim.drain_pending_os(h2, &mut pending);
        assert_eq!(pending.len(), 1, "OS processing deferred to the agent");
        // Consume: never call os_process; no RST is generated.
    }

    #[test]
    fn nat_translates_ping_path() {
        // inside host -- NAT -- outside server.
        let mut t = TopologyBuilder::new();
        let inside = t.host("inside", Ipv4Addr::new(192, 168, 1, 10));
        let nat = t.nat(
            "nat",
            Ipv4Addr::new(192, 168, 1, 1),
            Ipv4Addr::new(203, 0, 113, 5),
        );
        let server = t.host("server", Ipv4Addr::new(8, 8, 8, 8));
        t.link(inside, nat, LinkParams::new(1, 0)); // first link = internal
        t.link(nat, server, LinkParams::new(10, 0));
        let mut sim = t.build();
        let raw_server = sim.raw_open(server);
        let raw_inside = sim.raw_open(inside);
        let probe = builder::icmp_echo_request(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(8, 8, 8, 8),
            64,
            42,
            1,
            b"x",
        );
        sim.raw_send(inside, probe);
        sim.run_until(SECOND);
        // Server saw the probe with the NAT's external source address.
        let at_server = sim.raw_recv(server, raw_server);
        let v = ipv4::Ipv4View::new_unchecked(&at_server[0].1).unwrap();
        assert_eq!(v.src(), Ipv4Addr::new(203, 0, 113, 5));
        // And the reply made it back inside, translated.
        let at_inside = sim.raw_recv(inside, raw_inside);
        let reply = at_inside
            .iter()
            .find(|(_, p)| {
                let v = ipv4::Ipv4View::new_unchecked(p).unwrap();
                v.src() == Ipv4Addr::new(8, 8, 8, 8)
            })
            .expect("translated reply");
        let v = ipv4::Ipv4View::new_unchecked(&reply.1).unwrap();
        assert_eq!(v.dst(), Ipv4Addr::new(192, 168, 1, 10));
        let msg = icmp::parse(v.payload()).unwrap();
        assert!(matches!(
            msg,
            icmp::IcmpMessage::EchoReply { ident: 42, .. }
        ));
    }

    #[test]
    fn scheduled_send_fires_at_exact_time() {
        let (mut sim, h1, _, _, h2) = line();
        sim.udp_bind(h2, 7);
        let src = sim.addr_of(h1);
        let pkt = builder::udp_datagram(src, a(1, 1), 5000, 7, b"later");
        sim.schedule_logged_send(h1, 250 * MILLISECOND, pkt, 99);
        for (tag, at) in [(7, 300 * MILLISECOND), (8, 100 * MILLISECOND)] {
            let pkt = builder::udp_datagram(a(1, 1), src, 7, 5000, b"back");
            sim.schedule_logged_send(h2, at, pkt, tag);
        }
        sim.run_until(SECOND);
        assert_eq!(sim.take_send_log(h1), vec![(99, 250 * MILLISECOND)]);
        assert!(
            sim.take_send_log(h1).is_empty(),
            "a drain leaves nothing of its own behind"
        );
        assert_eq!(
            sim.take_send_log(h2),
            vec![(8, 100 * MILLISECOND), (7, 300 * MILLISECOND)],
            "h1's drains left h2's records alone, in firing order"
        );
        let got = sim.udp_recv(h2, 7);
        assert_eq!(got.len(), 1);
        // 3 hops × 5 ms after the scheduled departure.
        assert_eq!(got[0].0, 250 * MILLISECOND + 15 * MILLISECOND);
    }

    #[test]
    fn scheduled_send_in_past_sends_now() {
        let (mut sim, h1, _, _, _) = line();
        sim.run_until(100 * MILLISECOND);
        let src = sim.addr_of(h1);
        let pkt = builder::udp_datagram(src, a(1, 1), 1, 2, b"x");
        sim.schedule_logged_send(h1, 0, pkt, 1); // "a time in the past" sends now
        sim.run_until(200 * MILLISECOND);
        assert_eq!(sim.take_send_log(h1), vec![(1, 100 * MILLISECOND)]);
    }

    #[test]
    fn unlogged_scheduled_sends_leave_no_log() {
        let (mut sim, h1, r1, r2, h2) = line();
        sim.udp_bind(h2, 7);
        let src = sim.addr_of(h1);
        for tag in 0..3 {
            let pkt = builder::udp_datagram(src, a(1, 1), 5000, 7, b"x");
            sim.schedule_send(h1, tag * MILLISECOND, pkt, tag);
        }
        sim.run_until(SECOND);
        assert_eq!(sim.udp_recv(h2, 7).len(), 3, "every send left");
        for node in [h1, r1, r2, h2] {
            assert!(
                sim.take_send_log(node).is_empty(),
                "nothing recorded for {node:?}"
            );
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, h1, _, _, _) = line();
        sim.schedule_timer(h1, 2, 20 * MILLISECOND);
        sim.schedule_timer(h1, 1, 10 * MILLISECOND);
        let mut fired = Vec::new();
        sim.run_until(15 * MILLISECOND);
        sim.drain_fired_timers(&mut fired);
        assert_eq!(fired, vec![(h1, 1)]);
        sim.run_until(25 * MILLISECOND);
        sim.drain_fired_timers(&mut fired);
        assert_eq!(fired, vec![(h1, 1), (h1, 2)], "each drain appends");
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let mut t = TopologyBuilder::new();
        t.seed(42);
        let h1 = t.host("h1", a(0, 1));
        let h2 = t.host("h2", a(1, 1));
        t.link(h1, h2, LinkParams::new(1, 0).with_loss(0.5));
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        for _ in 0..100 {
            sim.udp_send(h1, 5000, a(1, 1), 7, b"x");
        }
        sim.run_until(SECOND);
        let delivered = sim.udp_recv(h2, 7).len();
        let dropped = sim.drops(DropReason::RandomLoss);
        assert_eq!(delivered as u64 + dropped, 100);
        assert!(
            delivered > 20 && delivered < 80,
            "~half delivered, got {delivered}"
        );
    }

    #[test]
    fn queue_overflow_recorded_in_trace() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host("h1", a(0, 1));
        let h2 = t.host("h2", a(1, 1));
        t.link(h1, h2, LinkParams::new(1, 1).with_queue(2000)); // 1 Mbps, small queue
        let mut sim = t.build();
        for _ in 0..10 {
            sim.udp_send(h1, 1, a(1, 1), 2, &[0u8; 972]);
        }
        sim.run_until(SECOND);
        assert!(sim.drops(DropReason::QueueFull) > 0);
    }

    #[test]
    #[should_panic(expected = "duplicate node name `h`")]
    fn duplicate_node_name_panics() {
        let mut t = TopologyBuilder::new();
        t.host("h", a(0, 1));
        t.router("h", a(0, 254));
    }

    #[test]
    fn nat_links_fill_internal_then_external_then_new_slots() {
        let mut t = TopologyBuilder::new();
        let nat = t.nat("nat", Ipv4Addr::new(192, 168, 1, 1), a(9, 9));
        let hosts: Vec<NodeId> = (0..3).map(|i| t.host(&format!("h{i}"), a(1, i))).collect();
        for &h in &hosts {
            t.link(h, nat, LinkParams::default());
        }
        let sim = t.build();
        let ifaces = &sim.owner(nat).nodes[nat.0].ifaces;
        let links: Vec<_> = ifaces.iter().map(|i| i.link).collect();
        assert_eq!(links, [Some(0), Some(1), Some(2)]);
        assert_eq!(
            ifaces[2].addr,
            a(9, 9),
            "a grown slot clones the last address"
        );
    }

    #[test]
    fn no_route_is_traced() {
        // A router with no route toward the destination drops and traces.
        let mut t = TopologyBuilder::new();
        let r = t.router("r", a(0, 254));
        let h = t.host("h", a(0, 1));
        t.link(h, r, LinkParams::default());
        let mut sim = t.build();
        sim.udp_send(h, 1, Ipv4Addr::new(99, 99, 99, 99), 2, b"x");
        sim.run_until(SECOND);
        assert!(sim.drops(DropReason::NoRoute) > 0);
    }

    #[test]
    fn each_router_on_the_path_decrements_ttl_once() {
        let (mut sim, h1, _, _, h2) = line();
        let raw = sim.raw_open(h2);
        sim.udp_send(h1, 1, a(1, 1), 2, b"x");
        sim.run_until(SECOND);
        let got = sim.raw_recv(h2, raw);
        assert_eq!(got.len(), 1);
        let ttl = ipv4::Ipv4View::new_unchecked(&got[0].1).unwrap().ttl();
        assert_eq!(ttl, 62, "sent with TTL 64, forwarded by r1 and r2");
    }

    #[test]
    fn drops_are_counted_per_reason() {
        let (mut sim, h1, _, _, _) = line();
        for seq in 0..2 {
            sim.raw_send(
                h1,
                builder::icmp_echo_request(a(0, 1), a(1, 1), 1, 7, seq, &[]),
            );
        }
        sim.udp_send(h1, 1, Ipv4Addr::new(99, 99, 99, 99), 2, b"x");
        sim.run_until(SECOND);
        assert_eq!(sim.drops(DropReason::TtlExpired), 2);
        assert_eq!(sim.drops(DropReason::NoRoute), 1);
        assert_eq!(sim.drops(DropReason::QueueFull), 0);
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use crate::time::{MILLISECOND, SECOND};
    use std::net::Ipv4Addr;

    #[test]
    fn jitter_varies_arrivals_but_preserves_order() {
        let mut t = TopologyBuilder::new();
        t.seed(3);
        let h1 = t.host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.host("h2", Ipv4Addr::new(10, 0, 0, 2));
        t.link(h1, h2, LinkParams::new(10, 0).with_jitter(5 * MILLISECOND));
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        // Packets spaced 20 ms apart.
        for i in 0..20u64 {
            let src = sim.addr_of(h1);
            let pkt = plab_packet::builder::udp_datagram(
                src,
                Ipv4Addr::new(10, 0, 0, 2),
                1,
                7,
                &[i as u8],
            );
            sim.schedule_send(h1, i * 20 * MILLISECOND, pkt, i);
        }
        sim.run_until(10 * SECOND);
        let got = sim.udp_recv(h2, 7);
        assert_eq!(got.len(), 20);
        // One-way delays vary within [10, 15] ms...
        let mut delays = std::collections::BTreeSet::new();
        for (i, (t, _, _, _)) in got.iter().enumerate() {
            let sent = i as u64 * 20 * MILLISECOND;
            let d = t - sent;
            assert!(
                (10 * MILLISECOND..=15 * MILLISECOND).contains(&d),
                "delay {d}"
            );
            delays.insert(d);
        }
        assert!(delays.len() > 3, "jitter actually varies delays");
        // ...and order is preserved.
        for (i, (_, _, _, p)) in got.iter().enumerate() {
            assert_eq!(p[0] as usize, i);
        }
    }

    #[test]
    fn zero_jitter_is_exact() {
        let mut t = TopologyBuilder::new();
        let h1 = t.host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.host("h2", Ipv4Addr::new(10, 0, 0, 2));
        t.link(h1, h2, LinkParams::new(7, 0));
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        sim.udp_send(h1, 1, Ipv4Addr::new(10, 0, 0, 2), 7, b"x");
        sim.run_until(SECOND);
        let got = sim.udp_recv(h2, 7);
        assert_eq!(got[0].0, 7 * MILLISECOND);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::{FaultAction, GilbertElliott};
    use crate::sim::NodeTransition;
    use crate::time::{MILLISECOND, SECOND};
    use crate::DropReason;
    use std::net::Ipv4Addr;

    fn a(x: u8, y: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, x, y)
    }

    /// h1 -- h2 pair with a known link index and a paced send helper.
    fn pair(seed: u64, params: LinkParams) -> (Sim, NodeId, NodeId, usize) {
        let mut t = TopologyBuilder::new();
        t.seed(seed);
        let h1 = t.host("h1", a(0, 1));
        let h2 = t.host("h2", a(0, 2));
        let link = t.link(h1, h2, params);
        let mut sim = t.build();
        sim.udp_bind(h2, 7);
        (sim, h1, h2, link)
    }

    fn send_spaced(sim: &mut Sim, h1: NodeId, n: u64, gap: u64) {
        let src = sim.addr_of(h1);
        for i in 0..n {
            let pkt = plab_packet::builder::udp_datagram(src, a(0, 2), 1, 7, &[i as u8]);
            sim.schedule_send(h1, i * gap, pkt, i);
        }
    }

    #[test]
    fn link_flap_blackholes_and_recovers() {
        let (mut sim, h1, h2, link) = pair(1, LinkParams::new(1, 0));
        // Down from 50 ms to 150 ms; packets every 10 ms.
        sim.schedule_fault(50 * MILLISECOND, FaultAction::LinkDown { link });
        sim.schedule_fault(150 * MILLISECOND, FaultAction::LinkUp { link });
        send_spaced(&mut sim, h1, 30, 10 * MILLISECOND);
        sim.run_until(SECOND);
        let got = sim.udp_recv(h2, 7);
        let lost = sim.drops(DropReason::LinkDown);
        assert_eq!(got.len() as u64 + lost, 30);
        // Sends at 50..150 ms inclusive are lost (flap boundaries hit
        // sends at exactly 50 and 150? fault events share timestamps with
        // sends; FIFO order means the 50ms fault lands first, the 150ms
        // fault also lands first, so 50..=140 are lost: 10 packets).
        assert_eq!(lost, 10, "deterministic flap window");
        // Delivery resumes after the link comes back.
        assert!(got.iter().any(|(t, _, _, _)| *t > 150 * MILLISECOND));
    }

    #[test]
    fn link_down_kills_in_flight_packets() {
        // 100 ms propagation: a packet sent at t=0 is on the wire when the
        // link goes down at 50 ms, and is lost at its arrival time.
        let (mut sim, h1, h2, link) = pair(1, LinkParams::new(100, 0));
        send_spaced(&mut sim, h1, 1, 1);
        sim.schedule_fault(50 * MILLISECOND, FaultAction::LinkDown { link });
        sim.run_until(SECOND);
        assert_eq!(sim.udp_recv(h2, 7).len(), 0);
        assert_eq!(sim.drops(DropReason::LinkDown), 1);
    }

    #[test]
    fn set_loss_fault_changes_loss_rate() {
        let (mut sim, h1, h2, link) = pair(7, LinkParams::new(1, 0));
        send_spaced(&mut sim, h1, 50, MILLISECOND);
        // Perfect link for the first 25 packets, total loss afterwards.
        sim.schedule_fault(25 * MILLISECOND, FaultAction::SetLoss { link, loss: 1.0 });
        sim.run_until(SECOND);
        let got = sim.udp_recv(h2, 7);
        // Packets sent before 25 ms arrive (1 ms latency); later ones drop.
        assert!(got.len() >= 24 && got.len() <= 26, "got {}", got.len());
        assert!(sim.drops(DropReason::RandomLoss) >= 24);
    }

    #[test]
    fn burst_loss_is_bursty_and_seeded() {
        let run = |seed: u64| {
            let (mut sim, h1, h2, link) = pair(seed, LinkParams::new(1, 0));
            sim.apply_fault(FaultAction::SetBurstLoss {
                link,
                model: Some(GilbertElliott {
                    p_enter_bad: 0.05,
                    p_exit_bad: 0.2,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                }),
            });
            send_spaced(&mut sim, h1, 200, MILLISECOND);
            sim.run_until(SECOND);
            sim.udp_recv(h2, 7)
                .iter()
                .map(|(_, _, _, p)| p[0])
                .collect::<Vec<_>>()
        };
        let first = run(11);
        let second = run(11);
        assert_eq!(first, second, "same seed, same losses");
        let other = run(12);
        assert_ne!(first, other, "different seed, different losses");
        // Losses come in runs: count gaps in the delivered sequence and
        // check the average gap is > 1 packet (bursts, not singletons).
        let mut gaps = Vec::new();
        for w in first.windows(2) {
            let gap = w[1] as i32 - w[0] as i32 - 1;
            if gap > 0 {
                gaps.push(gap);
            }
        }
        assert!(!gaps.is_empty(), "some loss occurred");
        let total: i32 = gaps.iter().sum();
        assert!(
            total as f64 / gaps.len() as f64 > 1.0,
            "bursty: average loss-run > 1 (gaps {gaps:?})"
        );
    }

    #[test]
    fn crash_wipes_stack_and_restart_reports_transitions() {
        let (mut sim, h1, h2, _link) = pair(1, LinkParams::new(1, 0));
        send_spaced(&mut sim, h1, 10, 10 * MILLISECOND);
        sim.schedule_fault(35 * MILLISECOND, FaultAction::NodeCrash { node: h2.0 });
        sim.schedule_fault(75 * MILLISECOND, FaultAction::NodeRestart { node: h2.0 });
        sim.run_until(SECOND);
        let mut transitions = Vec::new();
        sim.drain_node_transitions(&mut transitions);
        assert_eq!(
            transitions,
            vec![NodeTransition::Crashed(h2), NodeTransition::Restarted(h2)]
        );
        // The crash wiped the UDP bind, so nothing is ever received (the
        // pre-crash inbox died with the stack; post-restart arrivals hit
        // an unbound port).
        assert_eq!(sim.udp_recv(h2, 7).len(), 0);
        // Deliveries during the outage were dropped as NodeDown.
        let down = sim.drops(DropReason::NodeDown);
        assert!((3..=5).contains(&down), "outage drops: {down}");
    }

    #[test]
    fn crashed_node_sends_nothing() {
        let (mut sim, h1, h2, _link) = pair(1, LinkParams::new(1, 0));
        sim.apply_fault(FaultAction::NodeCrash { node: h1.0 });
        send_spaced(&mut sim, h1, 5, MILLISECOND);
        sim.run_until(SECOND);
        assert_eq!(sim.udp_recv(h2, 7).len(), 0);
        assert_eq!(sim.drops(DropReason::NodeDown), 5);
        assert!(sim.take_send_log(h1).is_empty(), "no sends logged");
    }

    #[test]
    fn identical_runs_are_bit_for_bit_identical() {
        // Loss + jitter + burst loss + a flap: the full randomness surface.
        let observe = || {
            let (mut sim, h1, h2, link) = pair(
                99,
                LinkParams::new(2, 8)
                    .with_loss(0.1)
                    .with_jitter(MILLISECOND),
            );
            sim.apply_fault(FaultAction::SetBurstLoss {
                link,
                model: Some(GilbertElliott::bursty()),
            });
            sim.schedule_fault(40 * MILLISECOND, FaultAction::LinkDown { link });
            sim.schedule_fault(60 * MILLISECOND, FaultAction::LinkUp { link });
            send_spaced(&mut sim, h1, 100, 2 * MILLISECOND);
            sim.run_until(SECOND);
            let got: Vec<(u64, u8)> = sim
                .udp_recv(h2, 7)
                .iter()
                .map(|(t, _, _, p)| (*t, p[0]))
                .collect();
            (got, sim.drops(DropReason::RandomLoss))
        };
        assert_eq!(observe(), observe(), "virtual-time observables identical");
    }

    #[test]
    fn link_between_finds_links() {
        let (sim, h1, h2, link) = pair(1, LinkParams::new(1, 0));
        assert_eq!(sim.link_between(h1, h2), Some(link));
        assert_eq!(sim.link_between(h2, h1), Some(link));
        assert!(sim.link(link).up);
    }
}
