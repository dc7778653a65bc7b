//! Real-transport deployment: the same endpoint agent and controller
//! running over `std::net` sockets in real time.
//!
//! The simulator harness ([`crate::harness`]) is the primary evaluation
//! substrate, but the protocol stack is transport-agnostic by
//! construction; this module proves it by providing
//!
//! - [`TcpChannel`] — a control channel over a real `TcpStream` (its
//!   `recv` sleeps on the socket until the reply or the deadline, so it
//!   never suspends and carries the blocking [`ControlChannel`] shell), and
//! - [`EndpointServer`] — an [`EndpointAgent`] driven by a real listener
//!   with a [`RealStack`] backed by OS UDP sockets and a monotonic clock.
//!
//! `RealStack` deliberately reports raw sockets as unavailable: an
//! unprivileged process cannot open them, which is exactly the
//! software-agent case the paper discusses ("If a PacketLab endpoint is a
//! software agent running without root privileges, it will be unable to
//! open a raw socket"). UDP experiments — including §4's bandwidth
//! measurement — work end-to-end over loopback; see
//! `examples/loopback_realtime.rs`. Native TCP sockets are likewise
//! stubbed off in this minimal deployment (`nopen(tcp)` is refused).

use crate::controller::{aio, ControlChannel};
use crate::endpoint::{EndpointAgent, EndpointConfig};
use crate::netstack::NetStack;
use crate::wire::{FrameDecoder, Message};
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A control channel over a real TCP connection.
pub struct TcpChannel {
    stream: TcpStream,
    decoder: FrameDecoder,
    epoch: Instant,
}

impl TcpChannel {
    /// Connect to an endpoint's control address.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpChannel> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(TcpChannel { stream, decoder: FrameDecoder::new(), epoch: Instant::now() })
    }

    fn pump(&mut self) {
        let mut buf = [0u8; 16384];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }
}

impl aio::Channel for TcpChannel {
    async fn send(&mut self, msg: &Message) {
        let frame = msg.to_frame();
        // Blocking write for simplicity: control frames are small.
        let _ = self.stream.set_nonblocking(false);
        let _ = self.stream.write_all(&frame);
        let _ = self.stream.set_nonblocking(true);
    }

    async fn recv(&mut self, deadline: Option<u64>) -> Option<Message> {
        loop {
            self.pump();
            if let Ok(Some(m)) = self.decoder.next_message() {
                return Some(m);
            }
            if let Some(d) = deadline {
                if aio::Channel::now(self) >= d {
                    return None;
                }
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl ControlChannel for TcpChannel {}

/// A scheduled UDP transmission awaiting its departure time.
struct PendingSend {
    due: u64,
    src_port: u16,
    dst: SocketAddr,
    payload: Vec<u8>,
    tag: u64,
}

impl PartialEq for PendingSend {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due
    }
}
impl Eq for PendingSend {}
impl PartialOrd for PendingSend {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingSend {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.due.cmp(&self.due) // min-heap
    }
}

/// [`NetStack`] over real OS sockets: UDP only, monotonic ns clock, no
/// raw-socket privilege.
pub struct RealStack {
    epoch: Instant,
    local: Ipv4Addr,
    udp: HashMap<u16, UdpSocket>,
    pending: BinaryHeap<PendingSend>,
    wakeups: Vec<(u64, u64)>,
    send_log: Vec<(u64, u64)>,
}

impl RealStack {
    /// Stack bound to `local` (usually 127.0.0.1 for the loopback demo).
    pub fn new(local: Ipv4Addr) -> RealStack {
        RealStack {
            epoch: Instant::now(),
            local,
            udp: HashMap::new(),
            pending: BinaryHeap::new(),
            wakeups: Vec::new(),
            send_log: Vec::new(),
        }
    }

    /// Fire due scheduled sends; returns wakeup keys that are due.
    pub fn tick(&mut self) -> Vec<u64> {
        let now = self.clock();
        while self
            .pending
            .peek()
            .map(|p| p.due <= now)
            .unwrap_or(false)
        {
            let p = self.pending.pop().unwrap();
            if let Some(sock) = self.udp.get(&p.src_port) {
                let _ = sock.send_to(&p.payload, p.dst);
                self.send_log.push((p.tag, self.clock()));
            }
        }
        let mut due = Vec::new();
        self.wakeups.retain(|(key, t)| {
            if *t <= now {
                due.push(*key);
                false
            } else {
                true
            }
        });
        due
    }
}

impl NetStack for RealStack {
    fn clock(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn local_addr(&self) -> Ipv4Addr {
        self.local
    }

    fn external_addr(&self) -> Ipv4Addr {
        self.local
    }

    fn mtu(&self) -> u32 {
        65_535 // loopback
    }

    fn raw_supported(&self) -> bool {
        false // unprivileged software agent (§3.1)
    }

    fn tcp_supported(&self) -> bool {
        false // minimal loopback deployment is UDP-only
    }

    fn raw_send_at(&mut self, _time: u64, _packet: Vec<u8>, _tag: u64) {
        unreachable!("raw sockets are refused at nopen");
    }

    fn udp_bind(&mut self, port: u16) -> bool {
        if self.udp.contains_key(&port) {
            return false;
        }
        match UdpSocket::bind((self.local, port)) {
            Ok(sock) => {
                let _ = sock.set_nonblocking(true);
                self.udp.insert(port, sock);
                true
            }
            Err(_) => false,
        }
    }

    fn udp_unbind(&mut self, port: u16) {
        self.udp.remove(&port);
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
        self.pending.push(PendingSend {
            due: time,
            src_port,
            dst: SocketAddr::from((dst, dst_port)),
            payload: payload.to_vec(),
            tag,
        });
    }

    fn take_udp(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, Vec<u8>)> {
        let now = self.clock();
        let mut out = Vec::new();
        if let Some(sock) = self.udp.get(&port) {
            let mut buf = [0u8; 65536];
            while let Ok((n, from)) = sock.recv_from(&mut buf) {
                let addr = match from {
                    SocketAddr::V4(a) => *a.ip(),
                    _ => Ipv4Addr::UNSPECIFIED,
                };
                out.push((now, addr, from.port(), buf[..n].to_vec()));
            }
        }
        out
    }

    fn tcp_connect(&mut self, _dst: Ipv4Addr, _dst_port: u16) -> u64 {
        0 // never alive; nopen(tcp) paths are not offered by this stack
    }

    fn tcp_send(&mut self, _conn: u64, _data: &[u8]) {}

    fn tcp_recv(&mut self, _conn: u64, _max: usize) -> Vec<u8> {
        Vec::new()
    }

    fn tcp_readable(&self, _conn: u64) -> usize {
        0
    }

    fn tcp_close(&mut self, _conn: u64) {}

    fn tcp_alive(&self, _conn: u64) -> bool {
        false
    }

    fn schedule_wakeup(&mut self, key: u64, time: u64) {
        self.wakeups.push((key, time));
    }

    fn take_send_log(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.send_log)
    }
}

/// A PacketLab endpoint listening on a real TCP socket, polled on a ~200 µs
/// cadence. Run it on a thread; flip `stop` to shut down.
pub struct EndpointServer {
    listener: TcpListener,
    agent: EndpointAgent,
    stack: RealStack,
    conns: HashMap<u64, (TcpStream, FrameDecoder)>,
    next_sid: u64,
}

impl EndpointServer {
    /// Bind the control listener on `addr` (port 0 picks a free port).
    pub fn bind(addr: SocketAddr, config: EndpointConfig) -> std::io::Result<EndpointServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = match listener.local_addr()? {
            SocketAddr::V4(a) => *a.ip(),
            _ => Ipv4Addr::LOCALHOST,
        };
        Ok(EndpointServer {
            listener,
            agent: EndpointAgent::new(config),
            stack: RealStack::new(local),
            conns: HashMap::new(),
            next_sid: 1,
        })
    }

    /// The bound control address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener")
    }

    /// Serve until `stop` is set.
    pub fn run(mut self, stop: Arc<AtomicBool>) {
        while !stop.load(Ordering::Relaxed) {
            self.poll_once();
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One polling iteration (exposed for tests).
    pub fn poll_once(&mut self) {
        // Accept.
        while let Ok((stream, _)) = self.listener.accept() {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_nonblocking(true);
            let sid = self.next_sid;
            self.next_sid += 1;
            self.agent.on_session_open(sid);
            self.conns.insert(sid, (stream, FrameDecoder::new()));
        }
        // Scheduled sends + wakeups.
        let mut frames = Vec::new();
        for key in self.stack.tick() {
            frames.extend(self.agent.on_wakeup(key, &mut self.stack));
        }
        // Drain control connections.
        let sids: Vec<u64> = self.conns.keys().copied().collect();
        let mut buf = [0u8; 16384];
        for sid in sids {
            let mut dead = false;
            loop {
                let (stream, decoder) = self.conns.get_mut(&sid).unwrap();
                match stream.read(&mut buf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => decoder.extend(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            loop {
                let msg = {
                    let (_, decoder) = self.conns.get_mut(&sid).unwrap();
                    decoder.next_message().unwrap_or(None)
                };
                let Some(msg) = msg else { break };
                frames.extend(self.agent.on_message(sid, msg, &mut self.stack));
            }
            if dead {
                self.conns.remove(&sid);
                frames.extend(self.agent.on_session_closed(sid, &mut self.stack));
            }
        }
        // Periodic service (drains UDP inboxes into capture buffers).
        frames.extend(self.agent.service(&mut self.stack));
        // Transmit.
        for (sid, msg) in frames {
            if let Some((stream, _)) = self.conns.get_mut(&sid) {
                let _ = stream.set_nonblocking(false);
                let _ = stream.write_all(&msg.to_frame());
                let _ = stream.set_nonblocking(true);
            }
        }
    }
}
