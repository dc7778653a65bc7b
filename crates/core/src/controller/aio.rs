//! The async core of the controller library: the traits and the handshake
//! every other layer (`Controller`, `RobustController`, the `experiments`
//! probes) is written against, once.
//!
//! ## One core, two drivers
//!
//! Retry, replay and probe logic is straight-line code that waits: for a
//! reply, for a dial, for a point in time. Written as `async fn` over the
//! traits here, each wait is a suspension point the compiler turns into a
//! resumable state machine, statement order intact. Only four operations
//! can suspend — [`Dialer::dial`], [`Channel::send`], [`Channel::recv`]
//! and `wait_until` — everything else answers inside the call. Two
//! drivers run the resulting futures:
//!
//! - **The fleet loop** (`plab-runner`) keeps one future per task and
//!   polls it when the simulated world satisfied what it waits for;
//!   thousands of tasks share one thread and one virtual clock.
//! - **[`block_on`]**, under the blocking shells ([`ControlChannel`],
//!   [`ControlPlane`], [`SinkHost`] and the `experiments::*` functions):
//!   for a backend that advances the world itself until an operation is
//!   done (`SimChannel` steps the simulator, `TcpChannel` sleeps on a real
//!   socket), every future is finished the first time it is polled, so
//!   driving it is one poll.
//!
//! A backend states which kind it is by what it implements: the traits
//! here alone (its futures may return `Pending`, and it brings its own
//! driver), or also the empty blocking shell — the promise that they never
//! do. A dialer's shell, [`robust::Dialer`], is only that promise: it has
//! no methods, and the blocking `RobustController` needs nothing else. No
//! `Send` bounds anywhere: both drivers are single-threaded.
//!
//! [`ControlChannel`]: super::ControlChannel
//! [`ControlPlane`]: super::ControlPlane
//! [`SinkHost`]: super::SinkHost
//! [`robust::Dialer`]: super::robust::Dialer

use super::{ClockSync, ControllerError, Credentials, PollResult};
use crate::memory::EndpointMemory;
use crate::wire::{Command, Message, Proto, Response};
use std::future::Future;
use std::net::Ipv4Addr;
use std::pin::pin;
use std::task::{Context, Poll, Waker};

/// Drive a future whose every operation completes inside the call: poll
/// it once. `Pending` means a backend that cannot finish its operations
/// on its own was put under a blocking shell — a bug in this program, so
/// it panics instead of spinning on a future nothing will ever wake.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    match pin!(fut).poll(&mut Context::from_waker(Waker::noop())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "block_on: a future under a blocking shell returned Pending; \
             its backend must complete every operation inside the call"
        ),
    }
}

/// A reliable, framed, ordered channel to one endpoint.
#[allow(async_fn_in_trait)] // single-threaded drivers: no `Send` bound wanted
pub trait Channel {
    /// Send a message.
    async fn send(&mut self, msg: &Message);
    /// Receive the next message, waiting (virtual or real time) until
    /// `deadline` (controller clock, ns; `None` = wait as long as
    /// progress is possible).
    async fn recv(&mut self, deadline: Option<u64>) -> Option<Message>;
    /// The controller's local clock, ns.
    fn now(&self) -> u64;
}

/// Establishes control channels to one endpoint, on demand. The dialer is
/// what survives a connection loss — it can always make another channel.
#[allow(async_fn_in_trait)]
pub trait Dialer {
    /// The channel type produced.
    type Chan: Channel;
    /// Attempt to establish a new control channel; `None` when the attempt
    /// fails (endpoint unreachable, connection refused, handshake-layer
    /// transport error).
    async fn dial(&mut self) -> Option<Self::Chan>;
    /// Controller-clock now, ns.
    fn now(&self) -> u64;
    /// Let (virtual or real) time advance to `time` without a channel.
    async fn wait_until(&mut self, time: u64);
}

/// Controller-host sockets an experiment may need beyond the control
/// channel: the §4 bandwidth measurement sinks the endpoint's UDP burst on
/// the controller's own host. Implemented by control planes whose
/// underlying transport can expose local sockets (the simulation harness;
/// a real deployment would back this with OS sockets).
#[allow(async_fn_in_trait)]
pub trait Sink {
    /// The controller host's address (for descriptors and UDP sinks).
    fn sink_addr(&self) -> Ipv4Addr;
    /// Bind a UDP port on the controller host.
    fn sink_bind(&mut self, port: u16) -> bool;
    /// Drain UDP arrivals: (arrival time, source, source port, probe
    /// sequence from the payload's first 4 LE bytes, payload length).
    /// Dispersion-based bandwidth estimation needs the sequence gap
    /// between consecutive arrivals to stay loss-robust; datagrams shorter
    /// than 4 bytes read as sequence 0.
    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)>;
    /// Advance (virtual or real) time to `time`, letting traffic drain.
    async fn wait_until(&mut self, time: u64);
}

/// Run the Hello → HelloAck → Auth → AuthOk handshake over an established
/// channel. Shared by `Controller::connect` and the reconnect path of
/// `RobustController`.
pub async fn handshake<C: Channel>(
    chan: &mut C,
    creds: &Credentials,
    timeout_ns: u64,
) -> Result<(), ControllerError> {
    chan.send(&Message::Hello { version: crate::PROTOCOL_VERSION }).await;
    let deadline = chan.now() + timeout_ns;
    let nonce = match chan.recv(Some(deadline)).await {
        Some(Message::HelloAck { version, nonce }) => {
            if version != crate::PROTOCOL_VERSION {
                return Err(ControllerError::Protocol("version mismatch".into()));
            }
            nonce
        }
        // An admission rejection (e.g. `ErrCode::Busy` from an endpoint at
        // session capacity) arrives before the HelloAck: surface it typed so
        // the robust reconnect path can classify it.
        Some(Message::Resp(Response::Err { code, msg })) => {
            return Err(ControllerError::Endpoint(code, msg.into_owned()))
        }
        Some(other) => {
            return Err(ControllerError::Protocol(format!("expected HelloAck, got {other:?}")))
        }
        None => return Err(ControllerError::Timeout),
    };
    chan.send(&creds.auth_message(&nonce)).await;
    let deadline = chan.now() + timeout_ns;
    loop {
        match chan.recv(Some(deadline)).await {
            Some(Message::AuthOk) => return Ok(()),
            Some(Message::Resp(Response::Err { code, msg })) => {
                return Err(ControllerError::Endpoint(code, msg.into_owned()))
            }
            Some(Message::Notify(_)) => continue,
            Some(other) => {
                return Err(ControllerError::Protocol(format!("expected AuthOk, got {other:?}")))
            }
            None => return Err(ControllerError::Timeout),
        }
    }
}

/// The experiment-facing control surface: issue Table 1 commands against
/// one endpoint and get typed results.
///
/// Experiment code (the `experiments` library) is written against this
/// trait, so the same measurement logic runs over a plain `Controller` —
/// one connection, fail on first loss — or a `RobustController` that
/// reconnects, replays, and aborts with [`ControllerError::Unreachable`]
/// only after its retry budget, under either driver.
///
/// Only [`Plane::request_until`] and [`Plane::now`] are required; the
/// Table 1 helpers and derived operations are provided in terms of them.
#[allow(async_fn_in_trait)]
pub trait Plane {
    /// Issue a command whose response may take until `deadline`
    /// (endpoint-paced commands like `npoll`).
    async fn request_until(
        &mut self,
        cmd: Command,
        deadline: u64,
    ) -> Result<Response, ControllerError>;

    /// Controller-clock now, ns.
    fn now(&self) -> u64;

    /// Issue a command and wait for its response: `request_until` at
    /// deadline 0, which leaves each implementation's per-request timeout.
    async fn request(&mut self, cmd: Command) -> Result<Response, ControllerError> {
        self.request_until(cmd, 0).await
    }

    /// Issue many commands and collect their responses in order.
    /// Implementations that can pipeline (send all, then read all) should
    /// override this — the default is sequential.
    async fn request_batch(
        &mut self,
        cmds: Vec<Command>,
    ) -> Result<Vec<Response>, ControllerError> {
        let mut out = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            out.push(self.request(cmd).await?);
        }
        Ok(out)
    }

    /// Issue a command and require `Response::Ok`.
    async fn expect_ok(&mut self, cmd: Command) -> Result<(), ControllerError> {
        match self.request(cmd).await? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other, "Ok")),
        }
    }

    // ------------------------------------------------------------------
    // Table 1 commands
    // ------------------------------------------------------------------

    /// `nopen(sktid, raw)`.
    async fn nopen_raw(&mut self, sktid: u32) -> Result<(), ControllerError> {
        self.expect_ok(Command::NOpen {
            sktid,
            proto: Proto::Raw,
            locport: 0,
            remaddr: 0,
            remport: 0,
        })
        .await
    }

    /// `nopen(sktid, udp, locport, remaddr, remport)`.
    async fn nopen_udp(
        &mut self,
        sktid: u32,
        locport: u16,
        remaddr: Ipv4Addr,
        remport: u16,
    ) -> Result<(), ControllerError> {
        self.expect_ok(Command::NOpen {
            sktid,
            proto: Proto::Udp,
            locport,
            remaddr: u32::from(remaddr),
            remport,
        })
        .await
    }

    /// `nopen(sktid, tcp, locport, remaddr, remport)`.
    async fn nopen_tcp(
        &mut self,
        sktid: u32,
        locport: u16,
        remaddr: Ipv4Addr,
        remport: u16,
    ) -> Result<(), ControllerError> {
        self.expect_ok(Command::NOpen {
            sktid,
            proto: Proto::Tcp,
            locport,
            remaddr: u32::from(remaddr),
            remport,
        })
        .await
    }

    /// `nclose(sktid)`.
    async fn nclose(&mut self, sktid: u32) -> Result<(), ControllerError> {
        self.expect_ok(Command::NClose { sktid }).await
    }

    /// `nsend(sktid, time, data)` → send-log tag.
    async fn nsend(
        &mut self,
        sktid: u32,
        time: u64,
        data: Vec<u8>,
    ) -> Result<u64, ControllerError> {
        match self.request(Command::NSend { sktid, time, data }).await? {
            Response::SendQueued { tag } => Ok(tag),
            other => Err(unexpected(other, "SendQueued")),
        }
    }

    /// `ncap(sktid, time, filt)` with an already-encoded PFVM program.
    async fn ncap(&mut self, sktid: u32, time: u64, filt: Vec<u8>) -> Result<(), ControllerError> {
        self.expect_ok(Command::NCap { sktid, time, filt }).await
    }

    /// `ncap` with a Cpf source filter, compiled client-side.
    async fn ncap_cpf(
        &mut self,
        sktid: u32,
        time: u64,
        source: &str,
    ) -> Result<(), ControllerError> {
        let program = plab_cpf::compile(source)
            .map_err(|e| ControllerError::Protocol(format!("cpf: {e}")))?;
        self.ncap(sktid, time, program.encode()).await
    }

    /// `npoll(time)`.
    async fn npoll(&mut self, until_endpoint_time: u64) -> Result<PollResult, ControllerError> {
        let cmd = Command::NPoll { time: until_endpoint_time };
        match self.request_until(cmd, until_endpoint_time).await? {
            Response::Poll { packets, dropped_packets, dropped_bytes } => Ok(PollResult {
                packets,
                dropped_packets,
                dropped_bytes,
            }),
            other => Err(unexpected(other, "Poll")),
        }
    }

    /// `mread(memaddr, bytecnt)`.
    async fn mread(&mut self, memaddr: u32, bytecnt: u32) -> Result<Vec<u8>, ControllerError> {
        match self.request(Command::MRead { memaddr, bytecnt }).await? {
            Response::Mem { data } => Ok(data),
            other => Err(unexpected(other, "Mem")),
        }
    }

    /// `mwrite(memaddr, data)`.
    async fn mwrite(&mut self, memaddr: u32, data: Vec<u8>) -> Result<(), ControllerError> {
        self.expect_ok(Command::MWrite { memaddr, data }).await
    }

    /// Yield the endpoint (ends our control; resumes a suspended
    /// experiment if any).
    async fn yield_endpoint(&mut self) -> Result<(), ControllerError> {
        self.expect_ok(Command::Yield).await
    }

    // ------------------------------------------------------------------
    // Derived helpers
    // ------------------------------------------------------------------

    /// Read the endpoint's 64-bit clock (info offset 0).
    async fn read_clock(&mut self) -> Result<u64, ControllerError> {
        let data = self.mread(0, 8).await?;
        Ok(u64::from_le_bytes(data.try_into().map_err(|_| {
            ControllerError::Protocol("short clock read".into())
        })?))
    }

    /// Read an info field by name.
    async fn read_info(&mut self, field: &str) -> Result<u64, ControllerError> {
        let spec = plab_packet::layout::resolve_info(field)
            .ok_or_else(|| ControllerError::Protocol(format!("unknown info field {field}")))?;
        let data = self.mread(spec.offset as u32, spec.width as u32).await?;
        let mut v = 0u64;
        for (i, b) in data.iter().enumerate() {
            v |= (*b as u64) << (8 * i);
        }
        Ok(v)
    }

    /// The endpoint's internal IPv4 address ("to craft a valid IP packet
    /// in raw mode, a controller needs to know the endpoint's internal IP
    /// address").
    async fn endpoint_addr(&mut self) -> Result<Ipv4Addr, ControllerError> {
        Ok(Ipv4Addr::from(self.read_info("addr.ip").await? as u32))
    }

    /// Read back the actual transmit time of a scheduled send (§3.1: "the
    /// endpoint then attempts to send the data at the specified time,
    /// recording the time it was actually sent; an endpoint can retrieve
    /// this timestamp using the mread command").
    async fn read_send_time(&mut self, tag: u64) -> Result<Option<u64>, ControllerError> {
        let slot = EndpointMemory::sendlog_slot(tag);
        let data = self.mread(slot, crate::memory::SENDLOG_ENTRY as u32).await?;
        match EndpointMemory::parse_sendlog_entry(&data) {
            Some((t, time)) if t == tag => Ok(Some(time)),
            _ => Ok(None),
        }
    }

    /// NTP-style clock synchronization (§3.1 Timekeeping: "the experiment
    /// controller should start by determining its clock offset with
    /// respect to the endpoint using a clock synchronization algorithm
    /// such as NTP"). Takes `samples` round trips and keeps the
    /// minimum-RTT estimate.
    async fn sync_clock(&mut self, samples: u32) -> Result<ClockSync, ControllerError> {
        let mut best: Option<(u64, i128)> = None;
        for _ in 0..samples.max(1) {
            let t0 = self.now();
            let endpoint_clock = self.read_clock().await?;
            let t1 = self.now();
            let rtt = t1.saturating_sub(t0);
            // The endpoint read the clock roughly mid-flight.
            let midpoint = t0 as i128 + (rtt / 2) as i128;
            let offset = endpoint_clock as i128 - midpoint;
            if best.is_none_or(|(r, _)| rtt < r) {
                best = Some((rtt, offset));
            }
        }
        let (min_rtt, offset) = best.expect("at least one sample");
        Ok(ClockSync { offset, min_rtt, samples })
    }
}

/// The error for `resp` where a `want` answer was due: the endpoint's
/// refusal, or a protocol error naming both.
pub(super) fn unexpected(resp: Response, want: &str) -> ControllerError {
    match resp {
        Response::Err { code, msg } => ControllerError::Endpoint(code, msg.into_owned()),
        other => ControllerError::Protocol(format!("expected {want}, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_what_a_ready_future_yields() {
        assert_eq!(block_on(async { 6 * 7 }), 42);
    }

    /// A backend that cannot finish an operation on its own must not sit
    /// under a blocking shell: the driver says so instead of spinning.
    #[test]
    #[should_panic(expected = "returned Pending")]
    fn block_on_fails_loudly_when_a_backend_returns_pending() {
        struct NeverReady;
        impl Channel for NeverReady {
            async fn send(&mut self, _: &Message) {}
            async fn recv(&mut self, _: Option<u64>) -> Option<Message> {
                std::future::pending().await
            }
            fn now(&self) -> u64 {
                0
            }
        }
        let _ = block_on(NeverReady.recv(None));
    }
}
