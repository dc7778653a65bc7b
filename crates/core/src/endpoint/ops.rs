//! Table 1 execution: the eight commands, and the three ways the world
//! reaches a session besides its controller — a raw packet, a timer
//! wakeup, the periodic service pass.

use super::session::{Session, SocketBinding};
use super::{cmd_opcode, err, EndpointAgent, Out, Phase, M_COMMANDS, M_DENIED_SENDS};
use crate::memory::EndpointMemory;
use crate::netstack::NetStack;
use crate::reactor::slot;
use crate::wire::{Command, ErrCode, Proto, Response};
use plab_filter::{EntryPoint, Program, Vm};
use plab_netsim::RawDisposition;
use plab_packet::layout;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The tag a [`NetStack`] carries for a scheduled raw or UDP send: the
/// session's own tag — a per-session counter from 1, what `SendQueued`
/// reports and the send-log slot is keyed by — under the issuing session's
/// `owner`. Two sessions' tag 1 are two different sends; the stack's log
/// must say whose left when. A session's tags stay below 2^32.
pub(super) fn stack_tag(owner: u32, tag: u64) -> u64 {
    (owner as u64) << 32 | (tag & 0xffff_ffff)
}

fn stack_tag_parts(stack_tag: u64) -> (u32, u64) {
    ((stack_tag >> 32) as u32, stack_tag & 0xffff_ffff)
}

/// Wakeup-key kinds (encoded into the [`NetStack::schedule_wakeup`] key).
pub(super) const WAKE_POLL: u64 = 1;
const WAKE_TCP_SEND: u64 = 2;

pub(super) fn wake_key(kind: u64, sid: u64, seq: u32) -> u64 {
    (kind << 56) | ((sid & 0xff_ffff) << 32) | seq as u64
}

fn wake_parts(key: u64) -> (u64, u64, u32) {
    (key >> 56, (key >> 32) & 0xff_ffff, key as u32)
}

/// Refresh the info block and return a stack-resident copy for
/// adjudication (avoids a heap allocation on every nsend/nopen and every
/// captured packet).
pub(super) fn info_snapshot(
    memory: &mut EndpointMemory,
    stack: &dyn NetStack,
) -> [u8; layout::INFO_SIZE] {
    refresh_info(memory, stack);
    memory
        .info()
        .try_into()
        .expect("info block is INFO_SIZE bytes")
}

fn refresh_info(memory: &mut EndpointMemory, stack: &dyn NetStack) {
    let (ip, ext_ip) = (stack.local_addr(), stack.external_addr());
    let mut flags = 0;
    if stack.raw_supported() {
        flags |= layout::INFO_FLAG_RAW;
    }
    if ext_ip != ip {
        flags |= layout::INFO_FLAG_NAT;
    }
    memory.set_stack_info(stack.clock(), ip.into(), ext_ip.into(), stack.mtu(), flags);
}

impl Session {
    /// Stamp each open TCP socket's sender-side state into the session's
    /// socket-state table so `mread` exposes live backlog/peer-window
    /// ("the current socket state", §3.1). Refreshed on every service
    /// pass and immediately before each `mread`.
    fn refresh_sockstat(&mut self, stack: &dyn NetStack) {
        for (&sktid, binding) in &self.sockets {
            let SocketBinding::Tcp { conn, .. } = *binding else {
                continue;
            };
            let mut flags = crate::memory::SOCKSTAT_FLAG_OPEN;
            if stack.tcp_alive(conn) {
                flags |= crate::memory::SOCKSTAT_FLAG_ALIVE;
            }
            flags |= stack.tcp_retrans(conn).min(0xFFFF) << 16;
            self.memory.record_sockstat(
                sktid,
                flags,
                stack.tcp_backlog(conn) as u64,
                stack.tcp_peer_window(conn) as u64,
            );
        }
    }

    fn nopen(
        &mut self,
        sktid: u32,
        proto: Proto,
        locport: u16,
        remaddr: u32,
        remport: u16,
        stack: &mut dyn NetStack,
    ) -> Response {
        if self.sockets.contains_key(&sktid) {
            return err(ErrCode::BadSocket, "socket id in use");
        }
        let info = info_snapshot(&mut self.memory, stack);
        let proto_num = match proto {
            Proto::Raw => 0u8,
            Proto::Udp => plab_packet::proto::UDP,
            Proto::Tcp => plab_packet::proto::TCP,
        };
        if !self
            .monitors
            .allow_open(proto_num, locport, remaddr, remport, &info)
        {
            return err(ErrCode::Denied, "monitor denied nopen");
        }
        let remaddr = Ipv4Addr::from(remaddr);
        let binding = match proto {
            Proto::Raw => {
                if !stack.raw_supported() {
                    return err(ErrCode::Unsupported, "raw sockets unavailable");
                }
                SocketBinding::Raw { filter: None }
            }
            Proto::Udp => {
                if !stack.udp_bind(locport) {
                    return err(ErrCode::BadSocket, "port in use");
                }
                SocketBinding::Udp {
                    locport,
                    remaddr,
                    remport,
                }
            }
            Proto::Tcp => {
                if !stack.tcp_supported() {
                    return err(ErrCode::Unsupported, "tcp sockets unavailable");
                }
                SocketBinding::Tcp {
                    conn: stack.tcp_connect(remaddr, remport),
                    remaddr,
                    remport,
                    locport,
                }
            }
        };
        self.sockets.insert(sktid, binding);
        self.memory
            .set_info("sockets.open", self.sockets.len() as u64);
        Response::Ok
    }

    fn nclose(&mut self, sktid: u32, stack: &mut dyn NetStack) -> Response {
        let Some(binding) = self.sockets.remove(&sktid) else {
            return err(ErrCode::BadSocket, "unknown socket");
        };
        binding.close(stack);
        self.memory.clear_sockstat(sktid);
        Response::Ok
    }

    /// `Err(Denied)` from here is a monitor's verdict on the packet and
    /// nothing else.
    fn nsend(
        &mut self,
        sktid: u32,
        time: u64,
        data: Vec<u8>,
        stack: &mut dyn NetStack,
        pending_tcp: &mut HashMap<u32, (u64, u32, Vec<u8>, u64)>,
        next_tcp_seq: &mut u32,
    ) -> Response {
        let info = info_snapshot(&mut self.memory, stack);
        let local = stack.local_addr();
        let Some(binding) = self.sockets.get(&sktid) else {
            return err(ErrCode::BadSocket, "unknown socket");
        };
        // What the monitors adjudicate: the exact datagram where the
        // endpoint builds it, and for TCP, where the OS owns the real
        // header, a synthesized segment (correct addresses and ports;
        // sequence fields zero). The stream will be segmented at the MSS on
        // the wire, so the synthesized payload is capped at one segment's
        // worth — a bulk NSend must not overflow the IPv4 length field.
        let built = match *binding {
            SocketBinding::Raw { .. } => None,
            // IPv4 total length is 16 bits: a payload that cannot fit
            // one datagram is a controller error, not a panic.
            SocketBinding::Udp { .. } if data.len() > u16::MAX as usize - 28 => {
                return err(ErrCode::Malformed, "UDP payload exceeds one datagram");
            }
            SocketBinding::Udp {
                locport,
                remaddr,
                remport,
            } => Some(plab_packet::builder::udp_datagram(
                local, remaddr, locport, remport, &data,
            )),
            SocketBinding::Tcp {
                remaddr,
                remport,
                locport,
                ..
            } => Some(plab_packet::builder::tcp_segment(
                local,
                remaddr,
                plab_packet::tcp::TcpHeader {
                    src_port: locport,
                    dst_port: remport,
                    seq: 0,
                    ack: 0,
                    flags: plab_packet::tcp::flags::ACK,
                    window: 0,
                },
                &data[..data.len().min(1400)],
            )),
        };
        if !self
            .monitors
            .allow_send(built.as_deref().unwrap_or(&data[..]), &info)
        {
            return err(ErrCode::Denied, "monitor denied send");
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        match *binding {
            SocketBinding::Raw { .. } => stack.raw_send_at(time, data, stack_tag(self.owner, tag)),
            SocketBinding::Udp {
                locport,
                remaddr,
                remport,
            } => stack.udp_send_at(
                time,
                locport,
                remaddr,
                remport,
                &data,
                stack_tag(self.owner, tag),
            ),
            SocketBinding::Tcp { conn, .. } if time <= stack.clock() => {
                stack.tcp_send(conn, &data);
                self.memory.record_send(tag, stack.clock());
            }
            // The stack schedules raw and UDP sends itself; a TCP stream
            // takes bytes only now, so one for later waits here.
            SocketBinding::Tcp { .. } => {
                pending_tcp.insert(*next_tcp_seq, (self.sid, sktid, data, tag));
                stack.schedule_wakeup(wake_key(WAKE_TCP_SEND, self.sid, *next_tcp_seq), time);
                *next_tcp_seq += 1;
            }
        }
        Response::SendQueued { tag }
    }

    fn ncap(&mut self, sktid: u32, time: u64, filt: Vec<u8>) -> Response {
        let installed = match self.sockets.get_mut(&sktid) {
            Some(SocketBinding::Raw { filter }) => filter,
            Some(_) => return err(ErrCode::BadSocket, "ncap requires a raw socket"),
            None => return err(ErrCode::BadSocket, "unknown socket"),
        };
        let vm = Program::decode(&filt)
            .map_err(|e| e.to_string())
            .and_then(|program| Vm::new(program).map_err(|e| e.to_string()));
        match vm {
            Ok(vm) => {
                *installed = Some((vm, time));
                Response::Ok
            }
            Err(e) => err(ErrCode::Malformed, format!("filter: {e}")),
        }
    }
}

impl EndpointAgent {
    /// Run command `seq` for `sid` and answer it ([`Session::answer`]).
    /// The one command that may leave without its answer is an `npoll`
    /// with nothing to report yet.
    pub(super) fn execute(
        &mut self,
        sid: u64,
        seq: u64,
        cmd: Command,
        stack: &mut dyn NetStack,
        out: &mut Out,
    ) {
        M_COMMANDS.inc();
        plab_obs::obs_event!(
            plab_obs::Component::Endpoint,
            "cmd",
            "sid" = sid,
            "op" = cmd_opcode(&cmd)
        );
        let Some(i) = slot(&self.sessions, sid, |s| s.sid) else {
            return;
        };
        if self.sessions[i].phase == Phase::Dormant && cmd != Command::Yield {
            // A yielder's next command asks for the endpoint again, and may
            // preempt, per its priority. Contending moves no session.
            out.extend(self.contend(sid));
        }
        let s = &mut self.sessions[i];
        let resp = match (s.phase, cmd) {
            (Phase::Detached { .. }, _) => return,
            (Phase::New | Phase::AwaitAuth { .. }, _) => err(ErrCode::Auth, "not authenticated"),
            (Phase::Active, Command::Yield) => {
                out.push((sid, s.answer(seq, Response::Ok)));
                out.extend(self.release(sid, Some(Phase::Dormant)));
                return;
            }
            (Phase::Suspended | Phase::Dormant, Command::Yield) => Response::Ok,
            (Phase::Suspended | Phase::Dormant, _) => {
                err(ErrCode::Suspended, "preempted by higher priority")
            }
            (
                Phase::Active,
                Command::NOpen {
                    sktid,
                    proto,
                    locport,
                    remaddr,
                    remport,
                },
            ) => s.nopen(sktid, proto, locport, remaddr, remport, stack),
            (Phase::Active, Command::NClose { sktid }) => s.nclose(sktid, stack),
            (Phase::Active, Command::NSend { sktid, time, data }) => {
                let resp = s.nsend(
                    sktid,
                    time,
                    data,
                    stack,
                    &mut self.pending_tcp,
                    &mut self.next_tcp_seq,
                );
                if let Response::Err {
                    code: ErrCode::Denied,
                    ..
                } = resp
                {
                    self.denied_sends += 1;
                    M_DENIED_SENDS.inc();
                }
                resp
            }
            (Phase::Active, Command::NCap { sktid, time, filt }) => s.ncap(sktid, time, filt),
            (Phase::Active, Command::NPoll { time }) => {
                // One pending poll: an outstanding one is completed with
                // what is buffered before this one takes the slot, where it
                // is answered at once if data is buffered (or its deadline
                // has passed) and waits otherwise.
                out.extend(s.finish_poll().map(|m| (sid, m)));
                s.pending_poll = Some((time, seq));
                if !s.capture.is_empty() || time <= stack.clock() {
                    out.extend(s.finish_poll().map(|m| (sid, m)));
                } else {
                    stack.schedule_wakeup(wake_key(WAKE_POLL, sid, 0), time);
                }
                return;
            }
            (Phase::Active, Command::MRead { memaddr, bytecnt }) => {
                refresh_info(&mut s.memory, stack);
                s.refresh_sockstat(stack);
                match s.memory.read(memaddr, bytecnt) {
                    Some(data) => Response::Mem {
                        data: data.to_vec(),
                    },
                    None => err(ErrCode::BadMemory, "mread out of range"),
                }
            }
            (Phase::Active, Command::MWrite { memaddr, data }) => {
                if s.memory.write(memaddr, &data) {
                    Response::Ok
                } else {
                    err(ErrCode::BadMemory, "mwrite read-only or out of range")
                }
            }
        };
        out.push((sid, s.answer(seq, resp)));
    }

    /// A raw packet arrived at the endpoint host and awaits disposition
    /// (§3.1: "the packet filter installed by ncap specifies whether a
    /// packet should be ignored, consumed or mirrored").
    ///
    /// Filter convention: the program's `recv` entry returns 0 to ignore
    /// the packet (not captured, OS processes it) or non-zero to capture
    /// it. A captured packet is *consumed* unless the program also defines
    /// a `mirror` entry returning non-zero for it, in which case the OS
    /// processes it too (passive-capture / telescope mode).
    pub fn on_packet(
        &mut self,
        time: u64,
        packet: &[u8],
        stack: &mut dyn NetStack,
    ) -> (RawDisposition, Out) {
        let mut out = Out::new();
        let mut disposition = RawDisposition::Ignore;
        let now = stack.clock();
        for s in &mut self.sessions {
            if s.sockets.is_empty() {
                continue;
            }
            // The info block as the session's filters and monitors see it,
            // snapshot when the first of them is about to run.
            let mut info = None;
            let mut captured_here: Vec<u32> = Vec::new();
            let mut want_consume = false;
            for (sktid, binding) in s.sockets.iter_mut() {
                let SocketBinding::Raw { filter } = binding else {
                    continue;
                };
                let Some((vm, until)) = filter else { continue };
                if now > *until {
                    // "tells the endpoint when to stop capturing packets".
                    *filter = None;
                    continue;
                }
                let info = info.get_or_insert_with(|| info_snapshot(&mut s.memory, stack));
                match vm.run_entry(EntryPoint::Recv, packet, info) {
                    Ok(0) | Err(_) => {}
                    Ok(_) => {
                        captured_here.push(*sktid);
                        let mirrors = vm
                            .run_entry(EntryPoint::Mirror, packet, info)
                            .is_ok_and(|v| v != 0);
                        want_consume |= !mirrors;
                    }
                }
            }
            // Monitors gate what reaches the controller.
            let Some(info) = info else { continue };
            if captured_here.is_empty() || !s.monitors.allow_recv(packet, &info) {
                continue;
            }
            for sktid in captured_here {
                if s.capture.push(sktid, time, packet.to_vec()) {
                    self.captured_packets += 1;
                }
            }
            // Captured data may satisfy an outstanding npoll.
            if !s.capture.is_empty() {
                out.extend(s.finish_poll().map(|m| (s.sid, m)));
            }
            // Every capture either consumes or mirrors; one consumer anywhere
            // and the OS does not see the packet.
            if want_consume {
                disposition = RawDisposition::Consume;
            } else if disposition != RawDisposition::Consume {
                disposition = RawDisposition::Mirror;
            }
        }
        (disposition, out)
    }

    /// A scheduled wakeup fired.
    pub fn on_wakeup(&mut self, key: u64, stack: &mut dyn NetStack) -> Out {
        let mut out = Out::new();
        let (kind, sid, seq) = wake_parts(key);
        match kind {
            WAKE_POLL => {
                if let Some(s) = self.session_mut(sid) {
                    let now = stack.clock();
                    if s.pending_poll.is_some_and(|(deadline, _)| now >= deadline) {
                        out.extend(s.finish_poll().map(|m| (sid, m)));
                    }
                }
            }
            WAKE_TCP_SEND => {
                if let Some((sid, sktid, data, tag)) = self.pending_tcp.remove(&seq) {
                    if let Some(s) = self.session_mut(sid) {
                        if let Some(SocketBinding::Tcp { conn, .. }) = s.sockets.get(&sktid) {
                            stack.tcp_send(*conn, &data);
                            s.memory.record_send(tag, stack.clock());
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Periodic service: drain OS-socket data into capture buffers,
    /// harvest scheduled-send timestamps, satisfy pending polls.
    pub fn service(&mut self, stack: &mut dyn NetStack) -> Out {
        let mut out = Out::new();
        // Scheduled raw/UDP sends that actually left: record times.
        let send_log = stack.take_send_log();
        let now = stack.clock();
        // Detached sessions whose linger window lapsed without a resumption
        // tear down for real.
        if self.detached > 0 {
            let linger = self.config.session_linger_ns;
            let lapsed = |s: &Session| matches!(s.phase, Phase::Detached { since } if now.saturating_sub(since) > linger);
            for sid in self.sids(lapsed) {
                plab_obs::obs_event!(plab_obs::Component::Endpoint, "session.expire", "sid" = sid);
                out.extend(self.end_session(sid, stack));
            }
        }
        for (stack_tag, time) in send_log {
            // Into the session that issued it and no other; a send whose
            // session has since closed has no reader left.
            let (owner, tag) = stack_tag_parts(stack_tag);
            if let Some(s) = self.sessions.iter_mut().find(|s| s.owner == owner) {
                s.memory.record_send(tag, time);
            }
        }
        for s in &mut self.sessions {
            // Drain OS sockets into the capture buffer, respecting
            // capacity: when full we simply stop reading (§3.1 — this is
            // what creates TCP backpressure).
            for (&sktid, binding) in &s.sockets {
                match *binding {
                    SocketBinding::Tcp { conn, .. } => loop {
                        let space = s.capture.space();
                        if space == 0 || stack.tcp_readable(conn) == 0 {
                            break;
                        }
                        let data = stack.tcp_recv(conn, space.min(4096));
                        if data.is_empty() {
                            break;
                        }
                        s.capture.push(sktid, now, data);
                    },
                    SocketBinding::Udp { locport, .. } => {
                        if s.capture.space() > 0 {
                            for (t, _src, _sport, payload) in stack.take_udp(locport) {
                                s.capture.push(sktid, t, payload);
                            }
                        }
                    }
                    SocketBinding::Raw { .. } => {}
                }
            }
            s.memory
                .set_buffer_info(s.capture.capacity as u64, s.capture.bytes as u64);
            s.refresh_sockstat(stack);
            if !s.capture.is_empty() {
                out.extend(s.finish_poll().map(|m| (s.sid, m)));
            }
        }
        out
    }
}
