//! Nodes: hosts (with sockets and OS behaviour), routers, and NAT boxes.

use crate::nat::NatTable;
use crate::pool::Frame;
use crate::routing::RouteTable;
use crate::tcp::TcpHost;
use crate::time::SimTime;
use fxhash::FxHashMap;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Index of a node in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host with a socket stack.
    Host,
    /// A packet-forwarding router.
    Router,
    /// A router with source-NAT on its external interface.
    Nat,
}

/// A network interface.
#[derive(Debug, Clone)]
pub struct Iface {
    /// Address assigned to this interface.
    pub addr: Ipv4Addr,
    /// Link the interface attaches to, if connected.
    pub link: Option<usize>,
}

/// How an endpoint agent disposes of a packet seen on a raw socket,
/// mirroring §3.1: "the packet filter installed by ncap specifies whether a
/// packet should be ignored, consumed or mirrored".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawDisposition {
    /// OS processes the packet normally (and the raw socket did not want
    /// it): echo replies, RSTs etc. may be generated.
    Ignore,
    /// The raw socket takes the packet; the OS never sees it — suppressing
    /// e.g. the RST an unmatched TCP segment would trigger.
    Consume,
    /// The raw socket keeps a copy and the OS also processes it (passive
    /// capture, the paper's network-telescope use case).
    Mirror,
}

/// A raw IP socket: sees arriving datagrams, can inject arbitrary ones.
#[derive(Debug, Default, Clone)]
pub struct RawSocket {
    /// Received (timestamp, datagram) pairs awaiting the owner. Frames
    /// are shared views of the delivered packets, not per-socket copies.
    pub inbox: VecDeque<(SimTime, Frame)>,
}

/// A bound UDP socket.
#[derive(Debug, Default, Clone)]
pub struct UdpSocket {
    /// Received (timestamp, src addr, src port, payload). Payloads are
    /// zero-copy sub-range views of the delivered datagrams.
    pub inbox: VecDeque<(SimTime, Ipv4Addr, u16, Frame)>,
}

/// Host-only state: the socket stack.
#[derive(Clone)]
pub struct HostState {
    /// Raw sockets by id.
    pub raw: FxHashMap<u64, RawSocket>,
    /// UDP sockets by local port.
    pub udp: FxHashMap<u16, UdpSocket>,
    /// TCP connections and listeners.
    pub tcp: TcpHost,
    /// Packets whose OS processing is deferred until the managing endpoint
    /// agent supplies a [`RawDisposition`] (only when `defer_os` is set).
    pub pending_os: VecDeque<(SimTime, Frame)>,
    /// True when an endpoint agent manages raw-packet disposition.
    pub defer_os: bool,
    /// Whether the host's OS answers ICMP echo requests.
    pub echo_responder: bool,
    next_raw_id: u64,
}

impl Default for HostState {
    fn default() -> Self {
        HostState {
            raw: FxHashMap::default(),
            udp: FxHashMap::default(),
            tcp: TcpHost::default(),
            pending_os: VecDeque::new(),
            defer_os: false,
            echo_responder: true,
            next_raw_id: 1,
        }
    }
}

impl HostState {
    /// Open a raw socket, returning its id.
    pub fn raw_open(&mut self) -> u64 {
        let id = self.next_raw_id;
        self.next_raw_id += 1;
        self.raw.insert(id, RawSocket::default());
        id
    }

    /// Bind a UDP socket on `port`. Returns false if already bound.
    pub fn udp_bind(&mut self, port: u16) -> bool {
        if self.udp.contains_key(&port) {
            return false;
        }
        self.udp.insert(port, UdpSocket::default());
        true
    }

    /// Unbind a UDP port.
    pub fn udp_close(&mut self, port: u16) -> bool {
        self.udp.remove(&port).is_some()
    }
}

/// A simulation node. In a sharded world exactly one shard, its owner,
/// holds it; the others keep a ghost (see `world.rs`).
pub struct Node {
    /// Human-readable name (unique within a topology).
    pub name: String,
    /// Node role.
    pub kind: NodeKind,
    /// Interfaces in index order.
    pub ifaces: Vec<Iface>,
    /// Forwarding table.
    pub routes: RouteTable,
    /// Host stack (hosts only).
    pub host: Option<HostState>,
    /// NAT state (NAT nodes only).
    pub nat: Option<NatTable>,
    /// For NAT nodes: the interface index facing the inside network.
    pub nat_internal_iface: usize,
    /// True while fault injection holds this host down: deliveries drop
    /// and the (freshly wiped) socket stack is unreachable.
    pub crashed: bool,
}

impl Node {
    /// Does any interface own `addr`?
    pub fn owns_addr(&self, addr: Ipv4Addr) -> bool {
        self.ifaces.iter().any(|i| i.addr == addr)
    }

    /// The node's primary address (first interface).
    pub fn addr(&self) -> Ipv4Addr {
        self.ifaces
            .first()
            .map(|i| i.addr)
            .unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    /// Mutable host state; panics if not a host (caller bug).
    pub fn host_mut(&mut self) -> &mut HostState {
        self.host.as_mut().expect("not a host node")
    }

    /// Shared host state.
    pub fn host_ref(&self) -> &HostState {
        self.host.as_ref().expect("not a host node")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host_node() -> Node {
        Node {
            name: "h".into(),
            kind: NodeKind::Host,
            ifaces: vec![Iface {
                addr: Ipv4Addr::new(10, 0, 0, 1),
                link: None,
            }],
            routes: RouteTable::new(),
            host: Some(HostState::default()),
            nat: None,
            nat_internal_iface: 0,
            crashed: false,
        }
    }

    #[test]
    fn raw_socket_lifecycle() {
        let mut n = host_node();
        let h = n.host_mut();
        let id1 = h.raw_open();
        let id2 = h.raw_open();
        assert_ne!(id1, id2);
        assert!(h.raw.contains_key(&id1) && h.raw.contains_key(&id2));
    }

    #[test]
    fn udp_bind_conflicts() {
        let mut n = host_node();
        let h = n.host_mut();
        assert!(h.udp_bind(5000));
        assert!(!h.udp_bind(5000), "port in use");
        assert!(h.udp_close(5000));
        assert!(h.udp_bind(5000), "rebindable after close");
    }

    #[test]
    fn owns_addr() {
        let n = host_node();
        assert!(n.owns_addr(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!n.owns_addr(Ipv4Addr::new(10, 0, 0, 2)));
        assert_eq!(n.addr(), Ipv4Addr::new(10, 0, 0, 1));
    }
}
