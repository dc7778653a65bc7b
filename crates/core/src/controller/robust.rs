//! Fault-tolerant control: reconnect with backoff, idempotent replay,
//! bounded unreachability.
//!
//! The paper's interactive model (§3.2) assumes the control connection
//! stays up for the life of an experiment; on the real Internet it will
//! not. [`RobustController`] wraps the same [`ControlPlane`] surface the
//! measurement library is written against, but sends every command as a
//! sequenced [`Message::CmdSeq`], and on any per-operation timeout drops
//! the channel, re-dials with exponential backoff plus deterministic
//! jitter, re-authenticates (resuming the lingering endpoint session, see
//! `EndpointConfig::session_linger_ns`), and replays the in-flight
//! sequence number. The endpoint's per-session replay cache guarantees
//! exactly-once execution; the controller guarantees bounded effort: once
//! an operation has made no progress for the policy's unreachable budget,
//! it fails with [`ControllerError::Unreachable`] so the experiment can
//! abort cleanly with whatever partial results it already holds.
//!
//! There is one retry driver: `reconnect` and `request_until` are `async fn`
//! over [`aio::Dialer`], so every backoff sleep, dial and response wait is
//! a point where a task can be suspended. Each job is done once: `backoff`
//! computes every sleep, redial and `Suspended` alike, and the answer wait
//! is the one `Controller` uses too. The fleet runner polls thousands
//! of these futures on one thread; a [`Dialer`] whose operations complete
//! inside the call (`crate::harness::SimDialer`) gets the blocking
//! [`RobustController::connect`] and [`ControlPlane`] shell over the same
//! code, driven by [`aio::block_on`].

use super::aio::{self, block_on, handshake, Channel as _};
use super::{recv_answer, ControlChannel, ControlPlane, ControllerError, Credentials, SinkHost};
use crate::wire::{Command, ErrCode, Message, Notification, Response};
use plab_obs::metrics::{Counter, Histogram};
use plab_obs::{obs_event, Component};
use std::net::Ipv4Addr;

static M_CONNECTS: Counter = Counter::new("controller.connects");
static M_FAILED_DIALS: Counter = Counter::new("controller.failed_dials");
static M_TIMEOUTS: Counter = Counter::new("controller.timeouts");
static M_REPLAYS: Counter = Counter::new("controller.replays");
static M_UNREACHABLE: Counter = Counter::new("controller.unreachable_aborts");
static M_BUSY: Counter = Counter::new("controller.busy_rejections");
static M_SUSPENDED_WAITS: Counter = Counter::new("controller.suspended_waits");
static M_BACKOFF: Histogram = Histogram::new("controller.backoff_ns");

/// Blocking marker of [`aio::Dialer`]: a dialer whose operations complete
/// inside the call, so [`RobustController::connect`] and its
/// [`ControlPlane`] shell may drive it with [`block_on`].
pub trait Dialer: aio::Dialer<Chan: ControlChannel> {}

/// Retry/backoff policy for [`RobustController`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Per-attempt response timeout, ns: how long one send waits before
    /// the channel is declared dead and redialed.
    pub request_timeout: u64,
    /// First reconnect backoff, ns; doubles per consecutive failure.
    pub base_backoff: u64,
    /// Backoff ceiling, ns.
    pub max_backoff: u64,
    /// Total time an operation may make no progress before it fails with
    /// [`ControllerError::Unreachable`], ns. For deadline-bearing
    /// operations (`npoll`) the budget extends past the deadline.
    pub unreachable_budget: u64,
    /// Seed for the deterministic backoff jitter (decorrelates reconnect
    /// stampedes without sacrificing reproducibility).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            request_timeout: 5_000_000_000,
            base_backoff: 100_000_000,
            max_backoff: 5_000_000_000,
            unreachable_budget: 60_000_000_000,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// Counters for observing the retry machinery (asserted on in tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Successful (re)connections, including the initial one.
    pub connects: u32,
    /// Dial attempts that failed.
    pub failed_dials: u32,
    /// Per-attempt response timeouts that killed a channel.
    pub timeouts: u32,
    /// Commands re-sent after a reconnect (replay candidates).
    pub replays: u32,
    /// Backoff waits spent on `Suspended` refusals before retrying with
    /// a fresh sequence number (§3.3 contention on a multiplexed
    /// endpoint).
    pub suspended_waits: u32,
}

/// A control plane ([`aio::Plane`], and [`ControlPlane`] over a blocking
/// [`Dialer`]) that survives control-channel loss.
pub struct RobustController<D: aio::Dialer> {
    dialer: D,
    chan: Option<D::Chan>,
    creds: Credentials,
    policy: RetryPolicy,
    /// xorshift64 state for backoff jitter.
    jitter: u64,
    next_seq: u64,
    /// Asynchronous notifications collected while waiting for responses.
    pub notifications: Vec<Notification>,
    /// Observed retry behaviour.
    pub stats: RetryStats,
}

impl<D: Dialer> RobustController<D> {
    /// Blocking shell of [`RobustController::establish`].
    pub fn connect(
        dialer: D,
        creds: Credentials,
        policy: RetryPolicy,
    ) -> Result<Self, ControllerError> {
        block_on(Self::establish(dialer, creds, policy))
    }
}

impl<D: aio::Dialer> RobustController<D> {
    /// Establish the initial connection (retrying within the policy's
    /// unreachable budget) and authenticate.
    /// Commands are numbered from 1, whatever session it adopts (DESIGN deviation 12).
    pub async fn establish(
        dialer: D,
        creds: Credentials,
        policy: RetryPolicy,
    ) -> Result<Self, ControllerError> {
        let mut rc = RobustController {
            dialer,
            chan: None,
            creds,
            policy,
            jitter: policy.jitter_seed.max(1),
            next_seq: 1,
            notifications: Vec::new(),
            stats: RetryStats::default(),
        };
        let start = rc.dialer.now();
        let overall_end = start.saturating_add(policy.unreachable_budget);
        rc.reconnect(start, overall_end).await?;
        Ok(rc)
    }

    /// The controller clock while it is short of `end`; at `end`, the
    /// typed abort for a spent unreachable budget: retry counters plus
    /// (when tracing is enabled) the tail of the controller's flight
    /// recorder, so the abort's Display carries the events leading up to it.
    fn within_budget(&self, op_start: u64, end: u64) -> Result<u64, ControllerError> {
        let now = self.dialer.now();
        if now < end {
            return Ok(now);
        }
        let elapsed_ns = now.saturating_sub(op_start);
        M_UNREACHABLE.inc();
        obs_event!(
            Component::Controller,
            "abort.unreachable",
            "elapsed_ns" = elapsed_ns
        );
        let trace = if plab_obs::enabled() {
            plab_obs::tail_for(Component::Controller, 4)
                .iter()
                .map(|e| e.line())
                .collect()
        } else {
            Vec::new()
        };
        Err(ControllerError::Unreachable {
            elapsed_ns,
            connects: self.stats.connects as u64,
            failed_dials: self.stats.failed_dials as u64,
            timeouts: self.stats.timeouts as u64,
            trace,
        })
    }

    /// The sleep before retry `n` (from 1), redial and `Suspended` alike:
    /// equal jitter under a ceiling of `base_backoff · 2^(n−1)`, capped at
    /// `max_backoff` — half fixed, half one xorshift64 jitter draw.
    fn backoff(&mut self, n: u32) -> u64 {
        let ceiling = self
            .policy
            .base_backoff
            .saturating_mul(1u64 << (n - 1).min(20));
        let ceiling = ceiling.min(self.policy.max_backoff).max(1);
        let mut x = self.jitter;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.jitter = x;
        let sleep = ceiling / 2 + x % (ceiling / 2 + 1);
        M_BACKOFF.observe(sleep);
        sleep
    }

    /// Dial + handshake until success or `overall_end`. Backoff grows
    /// exponentially from the policy base; the first attempt is immediate.
    async fn reconnect(&mut self, op_start: u64, overall_end: u64) -> Result<(), ControllerError> {
        let mut failures = 0u32;
        loop {
            let now = self.within_budget(op_start, overall_end)?;
            if failures > 0 {
                let sleep = self.backoff(failures);
                obs_event!(
                    Component::Controller,
                    "backoff",
                    "sleep_ns" = sleep,
                    "failures" = failures
                );
                self.dialer.wait_until((now + sleep).min(overall_end)).await;
                self.within_budget(op_start, overall_end)?;
            }
            let timeout = self.policy.request_timeout;
            // A channel whose handshake failed stays open until the end of
            // the iteration: closing it advances virtual time, and the
            // failure is recorded before that.
            let (_half_open, busy) = match self.dialer.dial().await {
                None => (None, false),
                Some(mut chan) => match handshake(&mut chan, &self.creds, timeout).await {
                    Ok(()) => {
                        self.stats.connects += 1;
                        M_CONNECTS.inc();
                        obs_event!(Component::Controller, "connect", "failures" = failures);
                        self.chan = Some(chan);
                        return Ok(());
                    }
                    // Admission refusal: the endpoint is at session capacity
                    // right now. Back off and re-dial — a slot frees up when
                    // another controller detaches.
                    Err(ControllerError::Endpoint(ErrCode::Busy, _)) => (Some(chan), true),
                    // The endpoint actively rejected our credentials:
                    // retrying cannot help.
                    Err(e @ ControllerError::Endpoint(..)) => return Err(e),
                    // Transport-level failure mid-handshake: transient.
                    Err(_) => (Some(chan), false),
                },
            };
            // A failed dial: no channel, a handshake cut short, or `Busy`.
            self.stats.failed_dials += 1;
            M_FAILED_DIALS.inc();
            if busy {
                M_BUSY.inc();
                obs_event!(Component::Controller, "dial.busy", "failures" = failures);
            } else {
                obs_event!(Component::Controller, "dial.fail", "failures" = failures);
            }
            failures += 1;
        }
    }
}

impl<D: aio::Dialer> aio::Plane for RobustController<D> {
    /// Issue `cmd` under sequence number discipline: send as `CmdSeq`,
    /// wait for the matching `RespSeq`, and on timeout reconnect and
    /// replay the same sequence number until the response arrives or the
    /// unreachable budget is spent. `npoll` may legitimately not answer
    /// until `deadline`: the budget starts there if that is later.
    async fn request_until(
        &mut self,
        cmd: Command,
        deadline: u64,
    ) -> Result<Response, ControllerError> {
        let mut seq = self.next_seq;
        self.next_seq += 1;
        let (timeout, budget) = (self.policy.request_timeout, self.policy.unreachable_budget);
        let op_start = self.dialer.now();
        let overall_end = deadline.max(op_start).saturating_add(budget);
        let mut sent_before = false;
        let mut suspended_waits = 0u32;
        'send: loop {
            if self.chan.is_none() {
                self.reconnect(op_start, overall_end).await?;
                if sent_before {
                    self.stats.replays += 1;
                    M_REPLAYS.inc();
                    obs_event!(Component::Controller, "replay", "seq" = seq);
                }
            }
            let chan = self.chan.as_mut().expect("reconnect established a channel");
            chan.send(&Message::CmdSeq {
                seq,
                cmd: cmd.clone(),
            })
            .await;
            sent_before = true;
            let now = chan.now();
            let wait_end = (deadline.max(now).saturating_add(timeout))
                .min(overall_end.max(now.saturating_add(timeout)));
            let resp = loop {
                match recv_answer(chan, seq, wait_end, &mut self.notifications).await {
                    Some(Ok(resp)) => break resp,
                    // A stale answer to an earlier seq (answered on a channel
                    // that died before we read it), or a refusal, which is
                    // never a command's answer.
                    Some(Err(Message::RespSeq { .. } | Message::Resp(_))) => {}
                    Some(Err(other)) => {
                        return Err(ControllerError::Protocol(format!("unexpected {other:?}")))
                    }
                    // No response in time: the channel (or endpoint) is
                    // gone. Kill it and retry through reconnection.
                    None => {
                        self.stats.timeouts += 1;
                        M_TIMEOUTS.inc();
                        obs_event!(Component::Controller, "timeout", "seq" = seq);
                        self.chan = None;
                        self.within_budget(op_start, overall_end)?;
                        continue 'send;
                    }
                }
            };
            // A higher-priority controller holds the endpoint (§3.3): the
            // command was refused, not executed, and the refusal is now
            // cached under `seq` by the endpoint's replay cache. Back off
            // and retry under a FRESH sequence number (a same-seq retry
            // would replay the cached refusal forever) until the session is
            // resumed or the budget is spent.
            let now = self.dialer.now();
            let suspended = matches!(
                resp,
                Response::Err {
                    code: ErrCode::Suspended,
                    ..
                }
            );
            if !suspended || now >= overall_end {
                return Ok(resp);
            }
            suspended_waits += 1;
            self.stats.suspended_waits += 1;
            M_SUSPENDED_WAITS.inc();
            obs_event!(
                Component::Controller,
                "suspended.wait",
                "seq" = seq,
                "waits" = suspended_waits
            );
            let sleep = self.backoff(suspended_waits);
            self.dialer.wait_until((now + sleep).min(overall_end)).await;
            seq = self.next_seq;
            self.next_seq += 1;
            sent_before = false;
        }
    }

    fn now(&self) -> u64 {
        self.dialer.now()
    }

    // request_batch: the sequential default, one seq outstanding at a time.
    // The window ROADMAP item 3 schedules grows here, with the replay
    // bookkeeping per command it needs; the endpoint's half of that contract
    // (one pending poll a session, answered in order: `Command::NPoll`) holds.
}

impl<D: Dialer> ControlPlane for RobustController<D> {}

impl<D: aio::Dialer + aio::Sink> aio::Sink for RobustController<D> {
    fn sink_addr(&self) -> Ipv4Addr {
        self.dialer.sink_addr()
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        self.dialer.sink_bind(port)
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        self.dialer.sink_take(port)
    }

    async fn wait_until(&mut self, time: u64) {
        aio::Sink::wait_until(&mut self.dialer, time).await
    }
}

impl<D: Dialer + SinkHost> SinkHost for RobustController<D> {}
