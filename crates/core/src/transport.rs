//! Real-transport deployment: the same endpoint reactor and controller
//! running over `std::net` sockets in real time.
//!
//! **Three hosts, one loop.** An endpoint is an [`EndpointReactor`] over a
//! [`NetStack`], and every host runs the same service round (accept,
//! wakeups, `pump`, `dispatch`, close of dead connections, `flush`,
//! `service`, `flush`): [`crate::harness::SimNet`] over `SimStack`, the
//! control-plane benches and churn tests over
//! [`crate::netstack::MemStack`], and [`EndpointServer`] here over
//! [`RealStack`]. No host touches the agent, so what a controller meets —
//! typed `Busy` at the session cap, ring-order service, a corrupt stream
//! closed — is the same on a socket as in the simulator. The controller's
//! side is [`TcpChannel`]: its `recv` sleeps on the socket until the reply,
//! the deadline or the peer's close, so it never suspends and carries the
//! blocking [`ControlChannel`] shell.
//!
//! **What `RealStack` carries.** OS UDP sockets with scheduled sends, a
//! monotonic clock, wakeups, and the accepted control streams (handed over
//! with [`RealStack::adopt`], then served through the `tcp_*` methods like
//! any stack's connections). Nothing else: raw sockets are reported
//! unavailable — the unprivileged software agent of §3.1 ("it will be
//! unable to open a raw socket") — and `tcp_connect` refuses, so
//! `nopen(tcp)` is answered `Unsupported`. UDP experiments, §4's bandwidth
//! measurement included, work end-to-end over loopback; see
//! `examples/loopback_realtime.rs`.

use crate::controller::{aio, ControlChannel};
use crate::endpoint::EndpointConfig;
use crate::netstack::NetStack;
use crate::reactor::EndpointReactor;
use crate::wire::{FrameDecoder, Message};
use std::collections::{BinaryHeap, HashMap};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One end of a control connection: a non-blocking `TcpStream` that
/// remembers its peer's close. [`TcpChannel`] holds the controller's end,
/// [`RealStack`] the endpoint's.
struct ControlStream {
    stream: TcpStream,
    /// The peer closed or the socket failed: nothing more will arrive.
    closed: bool,
}

impl ControlStream {
    fn new(stream: TcpStream) -> std::io::Result<ControlStream> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(ControlStream {
            stream,
            closed: false,
        })
    }

    /// Read what is waiting into `buf`; 0 when nothing is, yet or ever.
    fn read(&mut self, buf: &mut [u8]) -> usize {
        if !self.closed {
            match self.stream.read(buf) {
                Ok(0) => self.closed = true,
                Ok(n) => return n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => self.closed = true,
            }
        }
        0
    }

    /// Blocking write for simplicity: control frames are small.
    fn write(&mut self, data: &[u8]) {
        let _ = self.stream.set_nonblocking(false);
        if self.stream.write_all(data).is_err() {
            self.closed = true;
        }
        let _ = self.stream.set_nonblocking(true);
    }
}

/// A control channel over a real TCP connection.
pub struct TcpChannel {
    io: ControlStream,
    decoder: FrameDecoder,
    epoch: Instant,
}

impl TcpChannel {
    /// Connect to an endpoint's control address.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpChannel> {
        let io = ControlStream::new(TcpStream::connect(addr)?)?;
        Ok(TcpChannel {
            io,
            decoder: FrameDecoder::new(),
            epoch: Instant::now(),
        })
    }

    fn pump(&mut self) {
        let mut buf = [0u8; 16384];
        self.decoder.fill(|_| {
            let n = self.io.read(&mut buf);
            buf[..n].to_vec()
        });
    }
}

impl aio::Channel for TcpChannel {
    async fn send(&mut self, msg: &Message) {
        self.io.write(&msg.to_frame());
    }

    async fn recv(&mut self, deadline: Option<u64>) -> Option<Message> {
        loop {
            self.pump();
            if let Ok(Some(m)) = self.decoder.next_message() {
                return Some(m);
            }
            // A closed peer is not a slow one: what it sent is decoded, and
            // no deadline will bring more.
            if self.io.closed {
                return None;
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

/// The most one `RealStack::tcp_recv` hands over, and `tcp_readable` reports.
const READ_CHUNK: usize = 16384;

/// [`NetStack`] over real OS sockets: UDP experiment sockets, accepted
/// control streams, monotonic ns clock, no raw-socket privilege.
pub struct RealStack {
    epoch: Instant,
    local: Ipv4Addr,
    udp: HashMap<u16, UdpSocket>,
    /// Control streams by connection handle (looked up, never iterated).
    conns: HashMap<u64, ControlStream>,
    next_conn: u64,
    /// Where `tcp_recv` reads into: one buffer, not one per poll per session.
    scratch: Box<[u8; READ_CHUNK]>,
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
            conns: HashMap::new(),
            // 0 is what `tcp_connect` answers: a handle that is never alive.
            next_conn: 1,
            scratch: Box::new([0; READ_CHUNK]),
            pending: BinaryHeap::new(),
            wakeups: Vec::new(),
            send_log: Vec::new(),
        }
    }

    /// Take over an accepted control stream; returns the connection handle
    /// the `tcp_*` methods know it by (one that is not alive, should the
    /// socket refuse to go non-blocking).
    pub fn adopt(&mut self, stream: TcpStream) -> u64 {
        let conn = self.next_conn;
        self.next_conn += 1;
        if let Ok(stream) = ControlStream::new(stream) {
            self.conns.insert(conn, stream);
        }
        conn
    }

    /// Fire due scheduled sends; returns wakeup keys that are due.
    pub fn tick(&mut self) -> Vec<u64> {
        let now = self.clock();
        while self.pending.peek().map(|p| p.due <= now).unwrap_or(false) {
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
        false // experiment sockets are UDP-only; control streams are adopted
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

    fn tcp_send(&mut self, conn: u64, data: &[u8]) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.write(data);
        }
    }

    fn tcp_recv(&mut self, conn: u64, max: usize) -> Vec<u8> {
        let buf = &mut self.scratch[..max.min(READ_CHUNK)];
        let n = self.conns.get_mut(&conn).map_or(0, |c| c.read(buf));
        buf[..n].to_vec()
    }

    fn tcp_readable(&self, conn: u64) -> usize {
        // The peer's close reads as 0: `tcp_alive` reports it.
        let mut buf = [0; READ_CHUNK];
        let c = self.conns.get(&conn).filter(|c| !c.closed);
        c.map_or(0, |c| c.stream.peek(&mut buf).unwrap_or(0))
    }

    fn tcp_close(&mut self, conn: u64) {
        self.conns.remove(&conn); // dropping the stream closes it
    }

    fn tcp_alive(&self, conn: u64) -> bool {
        // Alive while bytes wait or more may come: a peek meets the peer's
        // close only past the last byte it sent.
        let c = self.conns.get(&conn).filter(|c| !c.closed);
        c.is_some_and(|c| match c.stream.peek(&mut [0]) {
            Ok(n) => n > 0,
            Err(e) => e.kind() == std::io::ErrorKind::WouldBlock,
        })
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
    reactor: EndpointReactor,
    stack: RealStack,
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
            reactor: EndpointReactor::new(config),
            stack: RealStack::new(local),
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

    /// One service round (exposed for tests): the round
    /// [`EndpointReactor`] documents, as the simulator's host runs it.
    pub fn poll_once(&mut self) {
        let (reactor, stack) = (&mut self.reactor, &mut self.stack);
        while let Ok((stream, _)) = self.listener.accept() {
            reactor.accept(stack.adopt(stream));
        }
        // Scheduled sends + wakeups.
        for key in stack.tick() {
            reactor.on_wakeup(key, stack);
        }
        reactor.pump(stack);
        reactor.dispatch(stack);
        // A stream is dead only once every byte before its close was read:
        // a dying session's buffered commands ran in the dispatch above.
        let dead: Vec<(u64, u64)> = reactor
            .sessions()
            .filter(|&(_, conn)| !stack.tcp_alive(conn))
            .collect();
        for (sid, conn) in dead {
            reactor.on_conn_closed(sid, stack);
            stack.tcp_close(conn);
        }
        reactor.flush(stack);
        // Periodic service (drains UDP inboxes into capture buffers).
        reactor.service(stack);
        reactor.flush(stack);
    }
}
