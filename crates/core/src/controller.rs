//! The experiment controller (§3.1): the experimenter-side client library.
//!
//! "To run an experiment, an experiment controller operated by the
//! experimenter interactively controls the measurement endpoint. ... All
//! experiment logic is located on the experiment controller so that the
//! measurement endpoint interface can remain simple and universal."
//!
//! The library's logic exists once, as `async fn` over the traits of
//! [`aio`] (one async core, two drivers — see that module). What this
//! module adds are the **blocking shells** every single-endpoint caller
//! uses: [`ControlChannel`], [`ControlPlane`], [`SinkHost`], [`handshake`]
//! and the `experiments::*` functions each run the corresponding [`aio`]
//! future through [`aio::block_on`]. A shell trait has no required
//! methods; a backend implements the [`aio`] trait and adds the empty
//! shell impl (for a dialer, the marker [`robust::Dialer`]) as its promise
//! that every operation completes inside the call
//! (`crate::harness::SimChannel` advances the simulator itself,
//! `crate::transport::TcpChannel` sleeps on its socket), which is why
//! `block_on` may poll once and treat `Pending` as a bug.
//!
//! [`Controller`] is generic over its channel, so the same experiment
//! code drives simulated endpoints or remote ones. The [`experiments`]
//! submodule contains the measurement library written purely against the
//! public command set, exactly as an outside experimenter would write it:
//! ping, traceroute (§4), and uplink bandwidth estimation (§4).

use crate::cert::{CertPayload, Certificate, Restrictions};
use crate::descriptor::ExperimentDescriptor;
use crate::wire::{Command, ErrCode, Message, Notification, Response};
use aio::block_on;
use plab_crypto::{KeyHash, Keypair, PublicKey};
use std::net::Ipv4Addr;

pub mod aio;
pub mod compat;
pub mod experiments;
pub mod robust;

/// Blocking shell of [`aio::Channel`]: a reliable, framed, ordered channel
/// to one endpoint whose operations complete inside the call.
pub trait ControlChannel: aio::Channel {
    /// Send a message.
    fn send(&mut self, msg: &Message) {
        block_on(aio::Channel::send(self, msg))
    }
    /// Receive the next message, waiting (virtual or real time) until
    /// `deadline` (controller clock, ns; `None` = wait as long as
    /// progress is possible).
    fn recv(&mut self, deadline: Option<u64>) -> Option<Message> {
        block_on(aio::Channel::recv(self, deadline))
    }
    /// The controller's local clock, ns.
    fn now(&self) -> u64 {
        aio::Channel::now(self)
    }
}

/// Everything needed to authenticate to endpoints for one experiment:
/// descriptor, certificate chain, referenced keys, and the experiment
/// signing key (for the possession proof).
#[derive(Clone)]
pub struct Credentials {
    /// The experiment descriptor.
    pub descriptor: ExperimentDescriptor,
    /// Certificate chain, root first.
    pub chain: Vec<Certificate>,
    /// Public keys referenced by the chain.
    pub keys: Vec<PublicKey>,
    /// The key that signed the experiment certificate.
    pub signing_key: Keypair,
    /// Requested priority.
    pub priority: u8,
}

impl Credentials {
    /// Standard two-certificate authorization (Figure 1 ➋–➍): `operator`
    /// delegates to `experimenter` with `restrictions`; `experimenter`
    /// signs the experiment certificate for `descriptor`.
    pub fn issue(
        operator: &Keypair,
        experimenter: &Keypair,
        descriptor: ExperimentDescriptor,
        restrictions: Restrictions,
        priority: u8,
    ) -> Credentials {
        let deleg = Certificate::sign(
            operator,
            CertPayload::Delegation(KeyHash::of(&experimenter.public)),
            restrictions,
        );
        let leaf = Certificate::sign(
            experimenter,
            CertPayload::Experiment(descriptor.hash()),
            Restrictions::none(),
        );
        Credentials {
            descriptor,
            chain: vec![deleg, leaf],
            keys: vec![operator.public, experimenter.public],
            signing_key: experimenter.clone(),
            priority,
        }
    }

    /// The `Auth` message for `nonce`.
    pub fn auth_message(&self, nonce: &[u8; 32]) -> Message {
        let dhash = self.descriptor.hash();
        let mut signed = Vec::with_capacity(64);
        signed.extend_from_slice(nonce);
        signed.extend_from_slice(&dhash.0);
        let proof = self.signing_key.sign(&signed);
        Message::Auth {
            descriptor: self.descriptor.encode(),
            chain: self.chain.iter().map(|c| c.encode()).collect(),
            keys: self.keys.iter().map(|k| *k.as_bytes()).collect(),
            priority: self.priority,
            proof: *proof.as_bytes(),
        }
    }
}

/// Controller-side failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerError {
    /// No response before the deadline.
    Timeout,
    /// The endpoint refused a command.
    Endpoint(ErrCode, String),
    /// Protocol violation.
    Protocol(String),
    /// The endpoint stayed unreachable past the retry budget: the
    /// experiment aborts cleanly, with whatever partial results the caller
    /// already holds (see [`robust::RobustController`]).
    Unreachable {
        /// Time spent retrying before giving up, controller-clock ns.
        elapsed_ns: u64,
        /// Reconnect attempts made before the abort.
        connects: u64,
        /// Dial attempts that never produced a channel.
        failed_dials: u64,
        /// Command timeouts observed over the session's lifetime.
        timeouts: u64,
        /// Tail of the controller's flight recorder at abort time
        /// (pre-rendered, empty when tracing is disabled) — the last few
        /// events leading up to the abort, for post-mortem context.
        trace: Vec<String>,
    },
}

impl core::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ControllerError::Timeout => write!(f, "timed out"),
            ControllerError::Endpoint(c, m) => write!(f, "endpoint error {c:?}: {m}"),
            ControllerError::Protocol(m) => write!(f, "protocol error: {m}"),
            ControllerError::Unreachable { elapsed_ns, connects, failed_dials, timeouts, trace } => {
                write!(
                    f,
                    "endpoint unreachable after {} ms of retries \
                     ({connects} reconnects, {failed_dials} failed dials, {timeouts} timeouts)",
                    elapsed_ns / 1_000_000
                )?;
                for line in trace {
                    write!(f, "\n  trace: {line}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ControllerError {}

/// Result of clock synchronization against one endpoint.
#[derive(Debug, Clone, Copy)]
pub struct ClockSync {
    /// endpoint_clock − controller_clock, in ns (from the minimum-RTT
    /// sample).
    pub offset: i128,
    /// Best observed control-channel round-trip, ns.
    pub min_rtt: u64,
    /// Samples taken.
    pub samples: u32,
}

impl ClockSync {
    /// Convert a controller-clock time to the endpoint clock.
    pub fn to_endpoint(&self, controller_time: u64) -> u64 {
        (controller_time as i128 + self.offset).max(0) as u64
    }

    /// Convert an endpoint-clock time to the controller clock.
    pub fn to_controller(&self, endpoint_time: u64) -> u64 {
        (endpoint_time as i128 - self.offset).max(0) as u64
    }
}

/// Blocking shell of [`aio::handshake`].
pub fn handshake<C: ControlChannel>(
    chan: &mut C,
    creds: &Credentials,
    timeout_ns: u64,
) -> Result<(), ControllerError> {
    block_on(aio::handshake(chan, creds, timeout_ns))
}

/// One blocking shell per listed signature: the [`aio::Plane`] method of
/// the same name, driven by [`block_on`].
macro_rules! plane_shells {
    ($($(#[$doc:meta])* fn $name:ident(&mut self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)*) => {$(
        $(#[$doc])*
        fn $name(&mut self $(, $arg: $ty)*) -> $ret {
            block_on(aio::Plane::$name(self $(, $arg)*))
        }
    )*};
}

/// Blocking shell of [`aio::Plane`]: issue Table 1 commands against one
/// endpoint and get typed results, each call returning when its response
/// has arrived.
///
/// Tests, examples and the `repro` commands drive a concrete
/// [`Controller`] or [`robust::RobustController`] through this trait.
/// Experiment code meant to run under either driver is generic over
/// [`aio::Plane`] instead (a `P: ControlPlane` bound sees both traits'
/// methods, so a call through it would be ambiguous).
pub trait ControlPlane: aio::Plane {
    /// Controller-clock now, ns.
    fn now(&self) -> u64 {
        aio::Plane::now(self)
    }

    plane_shells! {
        /// Issue a command and wait for its response.
        fn request(&mut self, cmd: Command) -> Result<Response, ControllerError>;
        /// Issue a command whose response may take until `deadline`
        /// (endpoint-paced commands like `npoll`).
        fn request_until(&mut self, cmd: Command, deadline: u64) -> Result<Response, ControllerError>;
        /// Issue many commands and collect their responses in order.
        fn request_batch(&mut self, cmds: Vec<Command>) -> Result<Vec<Response>, ControllerError>;
        /// Issue a command and require `Response::Ok`.
        fn expect_ok(&mut self, cmd: Command) -> Result<(), ControllerError>;
        /// `nopen(sktid, raw)`.
        fn nopen_raw(&mut self, sktid: u32) -> Result<(), ControllerError>;
        /// `nopen(sktid, udp, locport, remaddr, remport)`.
        fn nopen_udp(&mut self, sktid: u32, locport: u16, remaddr: Ipv4Addr, remport: u16) -> Result<(), ControllerError>;
        /// `nopen(sktid, tcp, locport, remaddr, remport)`.
        fn nopen_tcp(&mut self, sktid: u32, locport: u16, remaddr: Ipv4Addr, remport: u16) -> Result<(), ControllerError>;
        /// `nclose(sktid)`.
        fn nclose(&mut self, sktid: u32) -> Result<(), ControllerError>;
        /// `nsend(sktid, time, data)` → send-log tag.
        fn nsend(&mut self, sktid: u32, time: u64, data: Vec<u8>) -> Result<u64, ControllerError>;
        /// `ncap(sktid, time, filt)` with an already-encoded PFVM program.
        fn ncap(&mut self, sktid: u32, time: u64, filt: Vec<u8>) -> Result<(), ControllerError>;
        /// `ncap` with a Cpf source filter, compiled client-side.
        fn ncap_cpf(&mut self, sktid: u32, time: u64, source: &str) -> Result<(), ControllerError>;
        /// `npoll(time)`.
        fn npoll(&mut self, until_endpoint_time: u64) -> Result<PollResult, ControllerError>;
        /// `mread(memaddr, bytecnt)`.
        fn mread(&mut self, memaddr: u32, bytecnt: u32) -> Result<Vec<u8>, ControllerError>;
        /// `mwrite(memaddr, data)`.
        fn mwrite(&mut self, memaddr: u32, data: Vec<u8>) -> Result<(), ControllerError>;
        /// Yield the endpoint (ends our control; resumes a suspended
        /// experiment if any).
        fn yield_endpoint(&mut self) -> Result<(), ControllerError>;
        /// Read the endpoint's 64-bit clock (info offset 0).
        fn read_clock(&mut self) -> Result<u64, ControllerError>;
        /// Read an info field by name.
        fn read_info(&mut self, field: &str) -> Result<u64, ControllerError>;
        /// The endpoint's internal IPv4 address.
        fn endpoint_addr(&mut self) -> Result<Ipv4Addr, ControllerError>;
        /// Read back the actual transmit time of a scheduled send.
        fn read_send_time(&mut self, tag: u64) -> Result<Option<u64>, ControllerError>;
        /// NTP-style clock synchronization over `samples` round trips.
        fn sync_clock(&mut self, samples: u32) -> Result<ClockSync, ControllerError>;
    }
}

/// Blocking shell of [`aio::Sink`]: controller-host sockets an experiment
/// may need beyond the control channel.
pub trait SinkHost: aio::Sink {
    /// The controller host's address (for descriptors and UDP sinks).
    fn sink_addr(&self) -> Ipv4Addr {
        aio::Sink::sink_addr(self)
    }
    /// Bind a UDP port on the controller host.
    fn sink_bind(&mut self, port: u16) -> bool {
        aio::Sink::sink_bind(self, port)
    }
    /// Drain UDP arrivals: (arrival time, source, source port, probe
    /// sequence, payload length).
    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        aio::Sink::sink_take(self, port)
    }
    /// Advance (virtual or real) time to `time`, letting traffic drain.
    fn wait_until(&mut self, time: u64) {
        block_on(aio::Sink::wait_until(self, time))
    }
}

/// A `len`-byte probe datagram payload: `seq` as the first 4 bytes, LE,
/// truncated when `len` is shorter, then zeros. [`probe_seq`] reads it.
pub fn probe_payload(seq: u32, len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    let n = len.min(4);
    p[..n].copy_from_slice(&seq.to_le_bytes()[..n]);
    p
}

/// Decode a probe datagram's sequence number: first 4 payload bytes, LE,
/// zero-padded when the payload is shorter.
pub fn probe_seq(payload: &[u8]) -> u32 {
    let mut b = [0u8; 4];
    let n = payload.len().min(4);
    b[..n].copy_from_slice(&payload[..n]);
    u32::from_le_bytes(b)
}

/// An authenticated control session with one endpoint.
pub struct Controller<C: aio::Channel> {
    chan: C,
    /// Asynchronous notifications collected while waiting for responses
    /// (`Interrupted` / `Resumed`, §3.3).
    pub notifications: Vec<Notification>,
    request_timeout: u64,
    /// The seq the next command goes out under.
    next_seq: u64,
}

impl<C: ControlChannel> Controller<C> {
    /// Connect: Hello → HelloAck → Auth → AuthOk.
    /// Commands are numbered from 1, whatever session it adopts (DESIGN deviation 12).
    pub fn connect(mut chan: C, creds: &Credentials) -> Result<Self, ControllerError> {
        handshake(&mut chan, creds, 30_000_000_000)?;
        Ok(Controller {
            chan,
            notifications: Vec::new(),
            request_timeout: 60_000_000_000,
            next_seq: 1,
        })
    }
}

impl<C: aio::Channel> Controller<C> {
    /// Set the per-request timeout (controller-clock ns). Defaults to 60
    /// virtual seconds — generous for simulation; real deployments tune it
    /// to a few control RTTs.
    pub fn set_request_timeout(&mut self, timeout_ns: u64) {
        self.request_timeout = timeout_ns;
    }

    /// Access the underlying channel (e.g. for its clock).
    pub fn channel(&mut self) -> &mut C {
        &mut self.chan
    }

    async fn send(&mut self, cmd: Command) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.chan.send(&Message::CmdSeq { seq, cmd }).await;
        seq
    }

    /// The answer to `seq`; any other frame, an answer to another seq
    /// included, is a protocol error.
    async fn wait_response(&mut self, seq: u64, budget: u64) -> Result<Response, ControllerError> {
        let deadline = self.chan.now() + budget;
        recv_answer(&mut self.chan, seq, deadline, &mut self.notifications)
            .await
            .ok_or(ControllerError::Timeout)?
            .map_err(|other| ControllerError::Protocol(format!("unexpected {other:?}")))
    }
}

/// Receive on `chan` until the answer to `seq`, collecting notifications
/// on the way: `Ok` with the answer, `Err` with the first other frame, or
/// `None` once `deadline` passes. What another frame means is the
/// caller's: [`Controller`] fails on it, `RobustController` skips stale
/// answers and refusals.
async fn recv_answer<C: aio::Channel>(
    chan: &mut C,
    seq: u64,
    deadline: u64,
    notifications: &mut Vec<Notification>,
) -> Option<Result<Response, Message>> {
    loop {
        match chan.recv(Some(deadline)).await? {
            Message::RespSeq { seq: s, resp } if s == seq => return Some(Ok(resp)),
            Message::Notify(n) => notifications.push(n),
            other => return Some(Err(other)),
        }
    }
}

impl<C: aio::Channel> aio::Plane for Controller<C> {
    /// Pipelined override: all commands are sent back-to-back, then all
    /// responses collected in order. This keeps command delivery off the
    /// critical path of scheduled sends — e.g. the §4 bandwidth experiment
    /// schedules its whole burst in ~one round trip instead of one RTT per
    /// datagram.
    async fn request_batch(
        &mut self,
        cmds: Vec<Command>,
    ) -> Result<Vec<Response>, ControllerError> {
        let first = self.next_seq;
        for cmd in cmds {
            self.send(cmd).await;
        }
        let mut out = Vec::with_capacity((self.next_seq - first) as usize);
        for seq in first..self.next_seq {
            out.push(self.wait_response(seq, self.request_timeout).await?);
        }
        Ok(out)
    }

    async fn request_until(
        &mut self,
        cmd: Command,
        deadline: u64,
    ) -> Result<Response, ControllerError> {
        let seq = self.send(cmd).await;
        let budget = deadline.saturating_sub(self.chan.now()) + self.request_timeout;
        self.wait_response(seq, budget).await
    }

    fn now(&self) -> u64 {
        self.chan.now()
    }
}

impl<C: ControlChannel> ControlPlane for Controller<C> {}

impl<C: aio::Channel + aio::Sink> aio::Sink for Controller<C> {
    fn sink_addr(&self) -> Ipv4Addr {
        self.chan.sink_addr()
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        self.chan.sink_bind(port)
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        self.chan.sink_take(port)
    }

    async fn wait_until(&mut self, time: u64) {
        aio::Sink::wait_until(&mut self.chan, time).await
    }
}

impl<C: ControlChannel + SinkHost> SinkHost for Controller<C> {}

/// Result of an `npoll`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollResult {
    /// Captured (sktid, endpoint receive time, bytes).
    pub packets: Vec<(u32, u64, Vec<u8>)>,
    /// Drop accounting since the previous poll.
    pub dropped_packets: u64,
    /// Bytes dropped since the previous poll.
    pub dropped_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A channel that records what it is sent and receives a script: the
    /// next scripted frame, or nothing once the script is spent.
    struct Scripted {
        sent: Vec<Message>,
        script: VecDeque<Message>,
    }

    impl aio::Channel for Scripted {
        async fn send(&mut self, msg: &Message) {
            self.sent.push(msg.clone());
        }
        async fn recv(&mut self, _: Option<u64>) -> Option<Message> {
            self.script.pop_front()
        }
        fn now(&self) -> u64 {
            0
        }
    }

    impl ControlChannel for Scripted {}

    fn scripted(script: impl IntoIterator<Item = Message>) -> Controller<Scripted> {
        let chan = Scripted { sent: Vec::new(), script: script.into_iter().collect() };
        Controller { chan, notifications: Vec::new(), request_timeout: 1, next_seq: 1 }
    }

    fn answer(seq: u64, resp: Response) -> Message {
        Message::RespSeq { seq, resp }
    }

    /// A pipelined batch numbers its commands back-to-back and takes the
    /// answers in that order; the next command goes out under the next seq.
    #[test]
    fn a_pipelined_batch_pairs_each_answer_with_its_seq() {
        let (read, poll) = (Command::MRead { memaddr: 0, bytecnt: 1 }, Command::NPoll { time: 0 });
        let answers = [Response::Ok, Response::Mem { data: vec![2] }, Response::SendQueued { tag: 4 }];
        let mut ctrl = scripted((1..).zip(answers.clone()).map(|(seq, r)| answer(seq, r)));
        let got = ctrl.request_batch(vec![Command::Yield, read.clone()]);
        assert_eq!(got.as_deref(), Ok(&answers[..2]));
        assert_eq!(ctrl.request(poll.clone()).as_ref(), Ok(&answers[2]));
        let sent = [Command::Yield, read, poll].into_iter().zip(1..);
        let sent: Vec<Message> = sent.map(|(cmd, seq)| Message::CmdSeq { seq, cmd }).collect();
        assert_eq!(ctrl.chan.sent, sent);
    }

    /// An answer under another seq answers some other command: the
    /// controller says so instead of handing it to the caller.
    #[test]
    fn an_answer_to_another_seq_is_a_protocol_error() {
        for stray in [0, 2] {
            let mut ctrl = scripted([answer(stray, Response::Ok), answer(1, Response::Ok)]);
            let got = ctrl.request(Command::Yield);
            assert!(matches!(got, Err(ControllerError::Protocol(_))), "seq {stray}: {got:?}");
        }
    }

    /// A notification between two answers of a batch is kept, and the
    /// batch still completes.
    #[test]
    fn a_notification_between_answers_is_collected() {
        let interrupted = Notification::Interrupted { by_priority: 9 };
        let script = [answer(1, Response::Ok), Message::Notify(interrupted.clone()), answer(2, Response::Ok)];
        let mut ctrl = scripted(script);
        let got = ctrl.request_batch(vec![Command::Yield, Command::Yield]);
        assert_eq!(got, Ok(vec![Response::Ok, Response::Ok]));
        assert_eq!(ctrl.notifications, vec![interrupted]);
    }
}
