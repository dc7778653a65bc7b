//! The endpoint's view of its network stack.
//!
//! PacketLab endpoints are "software or hardware agents capable of sending
//! and receiving packets on the Internet" (§3.1). [`NetStack`] is the
//! narrow waist between the protocol agent ([`crate::endpoint`]) and
//! whatever provides packets underneath — the `plab-netsim` simulator
//! ([`SimStack`]), real OS sockets (`crate::transport::RealStack`), or
//! nothing but memory ([`MemStack`], for control-plane benches and churn
//! tests). Keeping the agent generic over this trait is what makes the
//! endpoint logic testable and portable, mirroring the paper's point that
//! the endpoint interface "can remain simple and universal".

use plab_netsim::{NodeId, Sim};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

/// Network and timing services an endpoint agent needs.
pub trait NetStack {
    /// The endpoint's local clock, ns ("measured with respect to the
    /// endpoint's local clock"; no accuracy guarantee).
    fn clock(&self) -> u64;
    /// Internal (interface) IPv4 address.
    fn local_addr(&self) -> Ipv4Addr;
    /// External address if behind NAT (else the local address).
    fn external_addr(&self) -> Ipv4Addr;
    /// Interface MTU.
    fn mtu(&self) -> u32;
    /// Can this endpoint open raw sockets? ("Many operating systems
    /// require superuser privileges to use raw sockets.")
    fn raw_supported(&self) -> bool;
    /// Can this endpoint service native TCP sockets? (True for full
    /// stacks; the minimal real-time loopback stack is UDP-only.)
    fn tcp_supported(&self) -> bool {
        true
    }

    /// Queue a complete IP datagram for transmission at `time` (endpoint
    /// clock). The actual transmit time is reported back with `tag`
    /// through [`NetStack::take_send_log`]; the tag is the caller's to
    /// choose and opaque to the stack.
    fn raw_send_at(&mut self, time: u64, packet: Vec<u8>, tag: u64);

    /// Bind a local UDP port. False if in use.
    fn udp_bind(&mut self, port: u16) -> bool;
    /// Release a UDP port.
    fn udp_unbind(&mut self, port: u16);
    /// Queue a UDP datagram for transmission at `time`.
    fn udp_send_at(
        &mut self,
        time: u64,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
        tag: u64,
    );
    /// Drain received datagrams on a bound port.
    fn take_udp(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)>;

    /// Open a TCP connection (returns a connection handle immediately;
    /// establishment is asynchronous).
    fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> u64;
    /// Queue stream bytes (immediate).
    fn tcp_send(&mut self, conn: u64, data: &[u8]);
    /// Read up to `max` received bytes.
    fn tcp_recv(&mut self, conn: u64, max: usize) -> Vec<u8>;
    /// Bytes available to read, exactly (or capped at one `tcp_recv`'s
    /// worth): 0 means `tcp_recv` returns nothing, so a caller may skip it.
    /// A peer's close is no byte: [`NetStack::tcp_alive`] reports it.
    fn tcp_readable(&self, conn: u64) -> usize;
    /// Bytes queued for sending but not yet acknowledged (send backlog).
    /// Stacks without sender-side introspection may report 0; the
    /// socket-state memory block then shows an always-drained socket.
    fn tcp_backlog(&self, _conn: u64) -> usize {
        0
    }
    /// The peer's advertised receive window, as last heard (0 when the
    /// stack cannot observe it).
    fn tcp_peer_window(&self, _conn: u64) -> u32 {
        0
    }
    /// Cumulative retransmissions on the connection (TCP_INFO
    /// `tcpi_total_retrans` analog; 0 when unobservable).
    fn tcp_retrans(&self, _conn: u64) -> u32 {
        0
    }
    /// Close gracefully.
    fn tcp_close(&mut self, conn: u64);
    /// Established and not reset?
    fn tcp_alive(&self, conn: u64) -> bool;

    /// Request an [`crate::endpoint::EndpointAgent::on_wakeup`] callback
    /// at `time` with `key`.
    fn schedule_wakeup(&mut self, key: u64, time: u64);

    /// Drain (tag, actual transmit time) records for scheduled sends.
    fn take_send_log(&mut self) -> Vec<(u64, u64)>;
}

/// [`NetStack`] over a `plab-netsim` host. Created fresh for each agent
/// callback by the harness (it borrows the simulator mutably).
pub struct SimStack<'a> {
    /// The simulator.
    pub sim: &'a mut Sim,
    /// The endpoint's node.
    pub node: NodeId,
    /// External address (set by the harness when the node sits behind a
    /// simulated NAT).
    pub ext_addr: Option<Ipv4Addr>,
    /// Whether raw sockets are available on this endpoint.
    pub raw_ok: bool,
}

impl<'a> SimStack<'a> {
    /// Stack for `node` with raw sockets enabled and no NAT.
    pub fn new(sim: &'a mut Sim, node: NodeId) -> Self {
        SimStack {
            sim,
            node,
            ext_addr: None,
            raw_ok: true,
        }
    }
}

impl NetStack for SimStack<'_> {
    fn clock(&self) -> u64 {
        self.sim.now()
    }

    fn local_addr(&self) -> Ipv4Addr {
        self.sim.addr_of(self.node)
    }

    fn external_addr(&self) -> Ipv4Addr {
        self.ext_addr.unwrap_or_else(|| self.sim.addr_of(self.node))
    }

    fn mtu(&self) -> u32 {
        1500
    }

    fn raw_supported(&self) -> bool {
        self.raw_ok
    }

    fn raw_send_at(&mut self, time: u64, packet: Vec<u8>, tag: u64) {
        self.sim.schedule_logged_send(self.node, time, packet, tag);
    }

    fn udp_bind(&mut self, port: u16) -> bool {
        self.sim.udp_bind(self.node, port)
    }

    fn udp_unbind(&mut self, port: u16) {
        self.sim.udp_close(self.node, port);
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
        let src = self.local_addr();
        let pkt = plab_packet::builder::udp_datagram(src, dst, src_port, dst_port, payload);
        self.sim.schedule_logged_send(self.node, time, pkt, tag);
    }

    fn take_udp(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        self.sim
            .udp_recv(self.node, port)
            .into_iter()
            .map(|(t, a, p, f)| (t, a, p, f.to_vec()))
            .collect()
    }

    fn tcp_connect(&mut self, dst: Ipv4Addr, dst_port: u16) -> u64 {
        self.sim.tcp_connect(self.node, dst, dst_port)
    }

    fn tcp_send(&mut self, conn: u64, data: &[u8]) {
        self.sim.tcp_send(self.node, conn, data);
    }

    fn tcp_recv(&mut self, conn: u64, max: usize) -> Vec<u8> {
        self.sim.tcp_recv(self.node, conn, max)
    }

    fn tcp_readable(&self, conn: u64) -> usize {
        self.sim.tcp_readable(self.node, conn)
    }

    fn tcp_backlog(&self, conn: u64) -> usize {
        self.sim.tcp_send_backlog(self.node, conn)
    }

    fn tcp_peer_window(&self, conn: u64) -> u32 {
        self.sim.tcp_peer_window(self.node, conn)
    }

    fn tcp_retrans(&self, conn: u64) -> u32 {
        self.sim.tcp_retrans(self.node, conn)
    }

    fn tcp_close(&mut self, conn: u64) {
        self.sim.tcp_close(self.node, conn);
    }

    fn tcp_alive(&self, conn: u64) -> bool {
        self.sim.tcp_established(self.node, conn) && !self.sim.tcp_closed(self.node, conn)
    }

    fn schedule_wakeup(&mut self, key: u64, time: u64) {
        self.sim.schedule_timer(self.node, key, time);
    }

    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        self.sim.take_send_log(self.node)
    }
}

/// A minimal in-memory [`NetStack`]: a clock the host sets, per-connection
/// inboxes that feed `tcp_recv`, per-connection outboxes `tcp_send` appends
/// to. No simulation, no sockets: nothing but the reactor and the agent
/// runs under a control-plane bench or a thousand-session churn test.
#[derive(Default)]
pub struct MemStack {
    /// What [`NetStack::clock`] reads, ns.
    pub clock: u64,
    /// Bytes waiting to be read, by connection.
    pub inbox: HashMap<u64, Vec<u8>>,
    /// Bytes sent, by connection, in ascending order: a digest over a
    /// drain of it repeats.
    pub outbox: BTreeMap<u64, Vec<u8>>,
}

impl MemStack {
    /// Append `bytes` to what `conn` will read.
    pub fn feed(&mut self, conn: u64, bytes: &[u8]) {
        self.inbox.entry(conn).or_default().extend_from_slice(bytes);
    }
}

impl NetStack for MemStack {
    fn clock(&self) -> u64 {
        self.clock
    }
    fn local_addr(&self) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn external_addr(&self) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn mtu(&self) -> u32 {
        1500
    }
    fn raw_supported(&self) -> bool {
        false
    }
    fn raw_send_at(&mut self, _time: u64, _packet: Vec<u8>, _tag: u64) {}
    fn udp_bind(&mut self, _port: u16) -> bool {
        true
    }
    fn udp_unbind(&mut self, _port: u16) {}
    fn udp_send_at(
        &mut self,
        _time: u64,
        _src_port: u16,
        _dst: Ipv4Addr,
        _dst_port: u16,
        _payload: &[u8],
        _tag: u64,
    ) {
    }
    fn take_udp(&mut self, _port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        Vec::new()
    }
    fn tcp_connect(&mut self, _dst: Ipv4Addr, _dst_port: u16) -> u64 {
        0
    }
    fn tcp_send(&mut self, conn: u64, data: &[u8]) {
        self.outbox.entry(conn).or_default().extend_from_slice(data);
    }
    fn tcp_recv(&mut self, conn: u64, max: usize) -> Vec<u8> {
        let Some(buf) = self.inbox.get_mut(&conn) else {
            return Vec::new();
        };
        let n = buf.len().min(max);
        buf.drain(..n).collect()
    }
    fn tcp_readable(&self, conn: u64) -> usize {
        self.inbox.get(&conn).map_or(0, Vec::len)
    }
    fn tcp_close(&mut self, _conn: u64) {}
    fn tcp_alive(&self, _conn: u64) -> bool {
        true
    }
    fn schedule_wakeup(&mut self, _key: u64, _time: u64) {}
    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plab_netsim::{LinkParams, TopologyBuilder, SECOND};

    fn two_hosts() -> (Sim, NodeId, NodeId) {
        let mut t = TopologyBuilder::new();
        let a = t.host("a", "10.0.0.1".parse().unwrap());
        let b = t.host("b", "10.0.0.2".parse().unwrap());
        t.link(a, b, LinkParams::new(5, 0));
        (t.build(), a, b)
    }

    #[test]
    fn addresses_and_flags() {
        let (mut sim, a, _) = two_hosts();
        let stack = SimStack::new(&mut sim, a);
        assert_eq!(stack.local_addr(), "10.0.0.1".parse::<Ipv4Addr>().unwrap());
        assert_eq!(stack.external_addr(), stack.local_addr());
        assert!(stack.raw_supported());
        assert_eq!(stack.mtu(), 1500);
    }

    #[test]
    fn nat_external_addr_override() {
        let (mut sim, a, _) = two_hosts();
        let ext: Ipv4Addr = "203.0.113.1".parse().unwrap();
        let mut stack = SimStack::new(&mut sim, a);
        stack.ext_addr = Some(ext);
        assert_eq!(stack.external_addr(), ext);
        assert_ne!(stack.local_addr(), ext);
    }

    #[test]
    fn scheduled_udp_send_logs_actual_time() {
        let (mut sim, a, b) = two_hosts();
        sim.udp_bind(b, 9);
        {
            let mut stack = SimStack::new(&mut sim, a);
            stack.udp_send_at(1_000_000, 5, "10.0.0.2".parse().unwrap(), 9, b"x", 42);
        }
        sim.run_until(SECOND);
        let mut stack = SimStack::new(&mut sim, a);
        let log = stack.take_send_log();
        assert_eq!(log, vec![(42, 1_000_000)]);
    }

    #[test]
    fn send_log_filtering_keeps_other_nodes_entries() {
        let (mut sim, a, b) = two_hosts();
        sim.udp_bind(a, 9);
        sim.udp_bind(b, 9);
        {
            let mut sa = SimStack::new(&mut sim, a);
            sa.udp_send_at(0, 1, "10.0.0.2".parse().unwrap(), 9, b"x", 1);
        }
        {
            let mut sb = SimStack::new(&mut sim, b);
            sb.udp_send_at(2_000, 1, "10.0.0.1".parse().unwrap(), 9, b"y", 2);
            sb.udp_send_at(1_000, 1, "10.0.0.1".parse().unwrap(), 9, b"z", 3);
        }
        sim.run_until(SECOND);
        assert_eq!(SimStack::new(&mut sim, a).take_send_log(), vec![(1, 0)]);
        assert!(SimStack::new(&mut sim, a).take_send_log().is_empty());
        let theirs = SimStack::new(&mut sim, b).take_send_log();
        assert_eq!(
            theirs,
            vec![(3, 1_000), (2, 2_000)],
            "untouched, in firing order"
        );
    }

    #[test]
    fn wakeups_via_sim_timers() {
        let (mut sim, a, _) = two_hosts();
        SimStack::new(&mut sim, a).schedule_wakeup(77, 1000);
        sim.run_until(2000);
        let mut fired = Vec::new();
        sim.drain_fired_timers(&mut fired);
        assert_eq!(fired, vec![(a, 77)]);
    }
}
