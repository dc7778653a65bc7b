//! The fleet executor: a baton-passing scheduler that runs the unmodified
//! blocking measurement library over thousands of endpoints of one
//! simulated world.
//!
//! ## Why baton passing
//!
//! The controller library (`RobustController` + the §4 experiments) is
//! written as straight-line blocking code against a [`ControlChannel`].
//! Rewriting it into a poll-driven state machine would fork the very code
//! the paper says runs unchanged everywhere. Instead, each in-flight
//! experiment runs on its own OS thread against a proxy channel
//! ([`FleetChannel`]) whose every operation is an RPC over an mpsc pair to
//! the scheduler thread, which owns the [`SimNet`]. The scheduler *serves*
//! exactly one worker at a time: it replies to a call only when the
//! worker may continue, and a worker only runs between receiving a reply
//! and issuing its next call. At any instant at most one thread is
//! runnable, so the interleaving — and therefore every byte of the run
//! report — is a pure function of `(seed, roster, config)`: no data
//! races, no OS-scheduler nondeterminism, bit-identical replays even
//! under chaos fault schedules.
//!
//! ## Blocking calls park, virtual time advances
//!
//! A call the simulator cannot answer at the current instant (`recv` with
//! no buffered data, a dial mid-handshake, a rate-limited send, a
//! `wait_until`) *parks* the task with a typed [`Wait`] condition instead
//! of replying. A parked task is examined again only on a fresh *wake
//! signal*: the simulator touched its controller node (the sparse harness
//! reports serviced nodes) or one of its deadlines arrived. Nothing else
//! can satisfy a wait, so a probe that fails drops the task until its
//! next signal; signalled tasks wake lowest index first. Debug builds
//! check after every advance that no satisfiable task lacks a signal.
//!
//! The virtual clock rides on every reply: a worker only runs between a
//! reply and its next call, while the simulator stands still, so `now()`
//! reads the value cached in its [`Handle`] without a round trip.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use packetlab::controller::experiments;
use packetlab::controller::robust::{Dialer, RetryPolicy, RetryStats, RobustController};
use packetlab::controller::{ControlChannel, ControlPlane, ControllerError, SinkHost};
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimNet, CONTROL_PORT};
use packetlab::wire::{FrameDecoder, Message};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::roster::{build_roster, RosterPair, RosterSpec};
use plab_netsim::{NodeId, SECOND};
use plab_obs::export::json_escape;

use crate::config::{SchedulerConfig, TokenBucket};
use crate::report::{outcome_event, summarize, Detail, Outcome, RunReport, TaskResult};
use crate::spec::{ExperimentSpec, Program};
use crate::splitmix64;

static M_SCHEDULED: plab_obs::metrics::Gauge = plab_obs::metrics::Gauge::new("runner.scheduled");
static M_ACTIVE: plab_obs::metrics::Gauge = plab_obs::metrics::Gauge::new("runner.active");
static M_DONE: plab_obs::metrics::Gauge = plab_obs::metrics::Gauge::new("runner.done");
static M_COMPLETED: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("runner.completed");
static M_FAILED: plab_obs::metrics::Counter = plab_obs::metrics::Counter::new("runner.failed");
static M_ABORTED: plab_obs::metrics::Counter = plab_obs::metrics::Counter::new("runner.aborted");
static M_LATENCY: plab_obs::metrics::Histogram =
    plab_obs::metrics::Histogram::new("runner.task_latency_ns");
static M_WAKE_PROBES: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("runner.wake_probes");
static M_BATON_CALLS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("runner.baton_calls");

/// Handshake-establishment grace before a dial counts as failed.
const DIAL_DEADLINE: u64 = 10 * SECOND;

/// One worker→scheduler request. Every variant either gets an immediate
/// reply or parks the task under a [`Wait`].
enum Call {
    /// Open a control connection to the task's endpoint.
    Dial,
    /// Send bytes on a control connection (rate-limited per endpoint).
    Send { conn: u64, bytes: Vec<u8> },
    /// Receive buffered bytes, waiting until `deadline` if none.
    Recv { conn: u64, deadline: Option<u64> },
    /// Close a control connection.
    Close { conn: u64 },
    /// Park until the given virtual time.
    WaitUntil(u64),
    /// Bind a UDP port on the controller host (bandwidth sink).
    UdpBind(u16),
    /// Drain UDP arrivals on the controller host.
    UdpTake(u16),
    /// Drain UDP arrivals with probe sequence numbers (bwest dispersion).
    UdpTakeSeq(u16),
    /// The controller host's address.
    Addr,
    /// The task finished; scheduler stops serving it.
    Done(Box<WorkerResult>),
}

/// Scheduler→worker reply, sent with the virtual time it was made at.
enum Reply {
    Unit,
    Conn(Option<u64>),
    Bytes(Vec<u8>),
    Bool(bool),
    Udp(Vec<(u64, Ipv4Addr, u16, usize)>),
    UdpSeq(Vec<(u64, u32, usize)>),
    Addr(Ipv4Addr),
}

/// Why a parked task is waiting.
enum Wait {
    /// Readable data on `conn` (or close / deadline).
    Data { conn: u64, deadline: Option<u64> },
    /// TCP establishment of `conn` (or close / deadline).
    Established { conn: u64, deadline: u64 },
    /// A rate-limited send deferred to `at`.
    SendReady { conn: u64, bytes: Vec<u8>, at: u64 },
    /// Plain virtual-time sleep.
    Until(u64),
}

/// What a worker hands back in `Call::Done`.
struct WorkerResult {
    outcome: Outcome,
    cause: Option<String>,
    detail: Detail,
    stats: RetryStats,
}

/// Worker-side endpoint of the baton protocol.
struct Handle {
    task: usize,
    calls: Sender<(usize, Call)>,
    replies: Receiver<(u64, Reply)>,
    poisoned: Arc<AtomicBool>,
    /// Virtual time of the last reply (of the launch, before the first).
    now: Cell<u64>,
}

impl Handle {
    /// Issue one call and block for its reply (the baton and the clock
    /// come back with it). A hung-up scheduler yields `Unit` at time
    /// `u64::MAX`, which every caller treats as a terminal condition.
    fn call(&self, c: Call) -> Reply {
        let answer = self.calls.send((self.task, c)).ok().and_then(|()| self.replies.recv().ok());
        let (now, reply) = answer.unwrap_or((u64::MAX, Reply::Unit));
        self.now.set(now);
        reply
    }

    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        if self.poisoned() {
            return u64::MAX;
        }
        self.now.get()
    }
}

/// A [`ControlChannel`] proxied to the scheduler. After the task is
/// poisoned (fleet deadline) every operation short-circuits: sends drop,
/// receives fail, and `now()` reports `u64::MAX` so the
/// `RobustController` trips its unreachable budget immediately and winds
/// the experiment down without touching the scheduler again.
pub struct FleetChannel {
    h: Rc<Handle>,
    conn: u64,
    decoder: FrameDecoder,
}

impl ControlChannel for FleetChannel {
    fn send(&mut self, msg: &Message) {
        if self.h.poisoned() {
            return;
        }
        let _ = self.h.call(Call::Send { conn: self.conn, bytes: msg.to_frame() });
    }

    fn recv(&mut self, deadline: Option<u64>) -> Option<Message> {
        loop {
            match self.decoder.next_message() {
                Ok(Some(m)) => return Some(m),
                Ok(None) => {}
                Err(_) => return None,
            }
            if self.h.poisoned() {
                return None;
            }
            match self.h.call(Call::Recv { conn: self.conn, deadline }) {
                Reply::Bytes(b) if !b.is_empty() => self.decoder.extend(&b),
                // Empty bytes: deadline passed, connection closed, or the
                // task was poisoned while parked. One final decode attempt.
                Reply::Bytes(_) => return self.decoder.next_message().ok().flatten(),
                _ => return None,
            }
        }
    }

    fn now(&self) -> u64 {
        self.h.now()
    }
}

impl Drop for FleetChannel {
    fn drop(&mut self) {
        if self.h.poisoned() {
            return;
        }
        let _ = self.h.call(Call::Close { conn: self.conn });
    }
}

/// A [`Dialer`] + [`SinkHost`] proxied to the scheduler: what each task's
/// `RobustController` reconnects (and the §4 bandwidth sink binds)
/// through.
pub struct FleetDialer {
    h: Rc<Handle>,
}

impl Dialer for FleetDialer {
    type Chan = FleetChannel;

    fn dial(&mut self) -> Option<FleetChannel> {
        if self.h.poisoned() {
            return None;
        }
        match self.h.call(Call::Dial) {
            Reply::Conn(Some(conn)) => {
                Some(FleetChannel { h: Rc::clone(&self.h), conn, decoder: FrameDecoder::new() })
            }
            _ => None,
        }
    }

    fn now(&self) -> u64 {
        self.h.now()
    }

    fn wait_until(&mut self, time: u64) {
        if self.h.poisoned() {
            return;
        }
        let _ = self.h.call(Call::WaitUntil(time));
    }
}

impl SinkHost for FleetDialer {
    fn sink_addr(&self) -> Ipv4Addr {
        if self.h.poisoned() {
            return Ipv4Addr::UNSPECIFIED;
        }
        match self.h.call(Call::Addr) {
            Reply::Addr(a) => a,
            _ => Ipv4Addr::UNSPECIFIED,
        }
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        if self.h.poisoned() {
            return false;
        }
        matches!(self.h.call(Call::UdpBind(port)), Reply::Bool(true))
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, usize)> {
        if self.h.poisoned() {
            return Vec::new();
        }
        match self.h.call(Call::UdpTake(port)) {
            Reply::Udp(v) => v,
            _ => Vec::new(),
        }
    }

    fn sink_take_seq(&mut self, port: u16) -> Vec<(u64, u32, usize)> {
        if self.h.poisoned() {
            return Vec::new();
        }
        match self.h.call(Call::UdpTakeSeq(port)) {
            Reply::UdpSeq(v) => v,
            _ => Vec::new(),
        }
    }

    fn wait_until(&mut self, time: u64) {
        if self.h.poisoned() {
            return;
        }
        let _ = self.h.call(Call::WaitUntil(time));
    }
}

fn cause_label(e: &ControllerError) -> String {
    match e {
        ControllerError::Timeout => "timeout".into(),
        ControllerError::Endpoint(code, _) => format!("endpoint:{code:?}"),
        ControllerError::Protocol(_) => "protocol".into(),
        ControllerError::Unreachable { .. } => "unreachable".into(),
    }
}

/// The blocking body of one task: connect, run the program, convert the
/// result. This is the same call sequence a single-endpoint example
/// performs against `SimDialer` — only the dialer type differs.
fn run_task(
    h: Handle,
    creds: packetlab::controller::Credentials,
    policy: RetryPolicy,
    program: Program,
    dst: Ipv4Addr,
    multiplexed: bool,
) -> (Outcome, Option<String>, Detail, RetryStats) {
    let h = Rc::new(h);
    let dialer = FleetDialer { h: Rc::clone(&h) };
    let mut ctrl = match RobustController::connect(dialer, creds, policy) {
        Ok(c) => c,
        Err(e) => {
            return (Outcome::Failed, Some(cause_label(&e)), Detail::None, RetryStats::default())
        }
    };
    let r = match program {
        Program::Ping { count, interval_ns, payload_len } => {
            experiments::ping(&mut ctrl, dst, count, interval_ns, payload_len).map(|s| {
                Detail::Ping {
                    sent: s.sent,
                    replies: s.replies.len() as u32,
                    min_rtt: s.replies.iter().map(|r| r.rtt).min().unwrap_or(0),
                    max_rtt: s.replies.iter().map(|r| r.rtt).max().unwrap_or(0),
                }
            })
        }
        Program::Traceroute { max_ttl } => experiments::traceroute(&mut ctrl, dst, max_ttl)
            .map(|t| Detail::Traceroute { hops: t.hops.len() as u32, reached: t.reached }),
        Program::Bandwidth { sink_port, packets, payload_len, delay_ns } => {
            experiments::measure_uplink_bandwidth(&mut ctrl, sink_port, packets, payload_len, delay_ns)
                .map(|b| Detail::Bandwidth {
                    sent: b.sent,
                    received: b.received,
                    kbits_per_sec: (b.bits_per_sec / 1000.0) as u64,
                })
        }
        Program::Bwest { sink_port, train_len, payload_len } => {
            let cfg = experiments::bwest::BwestConfig {
                train_len,
                train_payload: payload_len,
                ..Default::default()
            };
            experiments::bwest::measure_uplink_dispersion(&mut ctrl, sink_port, &cfg).map(|d| {
                match d {
                    Some(d) => Detail::Bwest {
                        echoes: d.echoes,
                        pairs: d.pairs,
                        kbits_per_sec: d.bits_per_sec / 1000,
                    },
                    // The probe ran but never produced three usable pairs
                    // (every attempt slipped or the train was lost).
                    None => Detail::Bwest { echoes: 0, pairs: 0, kbits_per_sec: 0 },
                }
            })
        }
    };
    // On a multiplexed endpoint, release control as soon as the program
    // is done so a suspended slot-mate resumes immediately instead of
    // waiting out our session's linger window. Single-session fleets
    // skip this (keeping their replay pins byte-identical).
    if multiplexed {
        let _ = ctrl.yield_endpoint();
    }
    let stats = ctrl.stats;
    match r {
        Ok(detail) => (Outcome::Completed, None, detail, stats),
        Err(e) => (Outcome::Failed, Some(cause_label(&e)), Detail::None, stats),
    }
}

fn worker_main(
    h: Handle,
    creds: packetlab::controller::Credentials,
    policy: RetryPolicy,
    program: Program,
    dst: Ipv4Addr,
    multiplexed: bool,
) {
    let task = h.task;
    let calls = h.calls.clone();
    let poisoned = Arc::clone(&h.poisoned);
    let body = std::panic::catch_unwind(AssertUnwindSafe(|| {
        run_task(h, creds, policy, program, dst, multiplexed)
    }));
    let (outcome, cause, detail, stats) = match body {
        Ok(r) => r,
        Err(_) => (Outcome::Aborted, Some("panic".into()), Detail::None, RetryStats::default()),
    };
    // A poisoned task aborted on the fleet deadline, whatever the body's
    // error path reported on the way down.
    let (outcome, cause) = if poisoned.load(Ordering::Relaxed) {
        (Outcome::Aborted, Some("fleet-deadline".into()))
    } else {
        (outcome, cause)
    };
    let _ = calls.send((task, Call::Done(Box::new(WorkerResult { outcome, cause, detail, stats }))));
}

/// A built fleet: the harness (sparse-serviced, serviced-node tracking
/// on) plus the roster pairs. Chaos schedules go straight onto
/// `net.sim` before [`run_fleet`].
pub struct FleetWorld {
    /// The harness over the sharded roster world, with one PacketLab
    /// endpoint agent per roster pair.
    pub net: SimNet,
    /// Roster pairs, task index == pair index.
    pub pairs: Vec<RosterPair>,
    /// Pods per side (from the roster build).
    pub pods: usize,
}

/// Build the fleet world for `roster`: construct the pod topology,
/// switch the harness to sparse servicing, and install one endpoint
/// agent (trusting `operator`) per pair. Construction is a pure function
/// of `(roster, operator)`.
pub fn build_fleet(roster: &RosterSpec, operator: &Keypair) -> FleetWorld {
    let world = build_roster(roster);
    let mut net = SimNet::new_sharded(world.sim);
    net.set_sparse(true);
    net.set_track_serviced(true);
    let cfg = EndpointConfig {
        trusted_keys: vec![KeyHash::of(&operator.public)],
        // Let sessions survive transient channel loss so RobustController
        // resumes rather than restarts after link faults.
        session_linger_ns: 30 * SECOND,
        ..Default::default()
    };
    for p in &world.pairs {
        net.add_endpoint(p.endpoint, cfg.clone());
    }
    FleetWorld { net, pairs: world.pairs, pods: world.pods }
}

struct TaskSlot {
    replies: Sender<(u64, Reply)>,
    poisoned: Arc<AtomicBool>,
    wait: Option<Wait>,
    bucket: TokenBucket,
    started_ns: u64,
    thread: Option<std::thread::JoinHandle<()>>,
}

struct Sched {
    net: SimNet,
    pairs: Vec<RosterPair>,
    config: SchedulerConfig,
    calls_rx: Receiver<(usize, Call)>,
    calls_tx: Sender<(usize, Call)>,
    tasks: Vec<Option<TaskSlot>>,
    /// Controller node index → task index (live tasks only).
    by_node: HashMap<usize, usize>,
    /// Parked tasks with a fresh wake signal, unsorted and possibly
    /// repeated; `wake_ready` sorts, probes and empties it.
    ready: Vec<usize>,
    /// Deadline → tasks to re-examine then (lazy removal: entries may be
    /// stale; `try_wake` checks the task's actual wait).
    timed: BTreeMap<u64, Vec<usize>>,
    launch_bucket: TokenBucket,
    next_pending: usize,
    active: usize,
    results: Vec<Option<TaskResult>>,
    events: Vec<String>,
    /// Per-multiplex-slot credentials; task `i` runs under
    /// `creds[i % creds.len()]` (one entry per slot of an endpoint
    /// group, see [`SchedulerConfig::sessions_per_endpoint`]).
    creds: Vec<packetlab::controller::Credentials>,
    program: Program,
}

impl Sched {
    fn now(&self) -> u64 {
        self.net.sim.now()
    }

    /// Park task `i` under `wait`, registering any deadline for a timed
    /// re-examination.
    fn park(&mut self, i: usize, wait: Wait) {
        let deadline = match &wait {
            Wait::Data { deadline, .. } => *deadline,
            Wait::Established { deadline, .. } => Some(*deadline),
            Wait::SendReady { at, .. } => Some(*at),
            Wait::Until(t) => Some(*t),
        };
        if let Some(d) = deadline {
            self.timed.entry(d).or_default().push(i);
        }
        self.tasks[i].as_mut().expect("parking a live task").wait = Some(wait);
    }

    fn reply(&mut self, i: usize, r: Reply) {
        let stamped = (self.now(), r);
        let _ = self.tasks[i].as_ref().expect("replying to a live task").replies.send(stamped);
    }

    /// Drain all readable bytes of `conn` at the controller node.
    fn drain_conn(&mut self, node: NodeId, conn: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let chunk = self.net.sim.tcp_recv(node, conn, 65536);
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        out
    }

    /// Serve task `i` (which holds the baton) until it parks or finishes.
    fn serve(&mut self, i: usize) {
        loop {
            let (from, call) = match self.calls_rx.recv() {
                Ok(x) => x,
                Err(_) => return,
            };
            debug_assert_eq!(from, i, "baton violation: call from a non-running task");
            M_BATON_CALLS.inc();
            let node = self.pairs[i].controller;
            let now = self.now();
            match call {
                Call::Dial => {
                    // Tasks are grouped in runs of `sessions_per_endpoint`;
                    // every task in a group multiplexes onto the group's
                    // first endpoint.
                    let k = self.config.sessions_per_endpoint.max(1);
                    let target = (i / k) * k;
                    let conn = self
                        .net
                        .sim
                        .tcp_connect(node, self.pairs[target].endpoint_addr, CONTROL_PORT);
                    self.park(i, Wait::Established { conn, deadline: now + DIAL_DEADLINE });
                    return;
                }
                Call::Send { conn, bytes } => {
                    let ready = self.tasks[i]
                        .as_mut()
                        .expect("serving a live task")
                        .bucket
                        .try_take(now);
                    if ready {
                        self.net.sim.tcp_send(node, conn, &bytes);
                        self.reply(i, Reply::Unit);
                    } else {
                        let at = self.tasks[i]
                            .as_mut()
                            .expect("serving a live task")
                            .bucket
                            .next_ready(now);
                        self.park(i, Wait::SendReady { conn, bytes, at });
                        return;
                    }
                }
                Call::Recv { conn, deadline } => {
                    let data = self.drain_conn(node, conn);
                    if !data.is_empty() {
                        self.reply(i, Reply::Bytes(data));
                    } else if self.net.sim.tcp_closed(node, conn)
                        || self.net.sim.tcp_peer_done(node, conn)
                        || deadline.is_some_and(|d| d <= now)
                    {
                        self.reply(i, Reply::Bytes(Vec::new()));
                    } else {
                        self.park(i, Wait::Data { conn, deadline });
                        return;
                    }
                }
                Call::Close { conn } => {
                    self.net.sim.tcp_close(node, conn);
                    self.reply(i, Reply::Unit);
                }
                Call::WaitUntil(t) => {
                    if t <= now {
                        self.reply(i, Reply::Unit);
                    } else {
                        self.park(i, Wait::Until(t));
                        return;
                    }
                }
                Call::UdpBind(port) => {
                    let ok = self.net.sim.udp_bind(node, port);
                    self.reply(i, Reply::Bool(ok));
                }
                Call::UdpTake(port) => {
                    let v: Vec<(u64, Ipv4Addr, u16, usize)> = self
                        .net
                        .sim
                        .udp_recv(node, port)
                        .into_iter()
                        .map(|(t, a, p, d)| (t, a, p, d.len()))
                        .collect();
                    self.reply(i, Reply::Udp(v));
                }
                Call::UdpTakeSeq(port) => {
                    let v: Vec<(u64, u32, usize)> = self
                        .net
                        .sim
                        .udp_recv(node, port)
                        .into_iter()
                        .map(|(t, _, _, d)| {
                            (t, packetlab::controller::probe_seq(&d), d.len())
                        })
                        .collect();
                    self.reply(i, Reply::UdpSeq(v));
                }
                Call::Addr => {
                    let a = self.net.sim.addr_of(node);
                    self.reply(i, Reply::Addr(a));
                }
                Call::Done(result) => {
                    self.finish(i, *result);
                    return;
                }
            }
        }
    }

    fn finish(&mut self, i: usize, r: WorkerResult) {
        let now = self.now();
        let slot = self.tasks[i].take().expect("finishing a live task");
        if let Some(t) = slot.thread {
            let _ = t.join();
        }
        self.by_node.remove(&self.pairs[i].controller.0);
        self.active -= 1;
        let result = TaskResult {
            endpoint: i,
            outcome: r.outcome,
            cause: r.cause,
            detail: r.detail,
            stats: r.stats,
            started_ns: slot.started_ns,
            finished_ns: now,
        };
        match r.outcome {
            Outcome::Completed => M_COMPLETED.inc(),
            Outcome::Failed => M_FAILED.inc(),
            Outcome::Aborted => M_ABORTED.inc(),
        }
        M_ACTIVE.sub(1);
        M_DONE.add(1);
        M_LATENCY.observe(now.saturating_sub(slot.started_ns));
        plab_obs::obs_event!(
            plab_obs::Component::Runner,
            "task.done",
            "endpoint" = i as u64,
            "outcome" = r.outcome as u64
        );
        self.events.push(outcome_event(now, &result));
        self.results[i] = Some(result);
    }

    /// Launch task `i`: spawn its worker thread and serve it until it
    /// parks (typically on its first dial).
    fn launch(&mut self, i: usize) {
        let now = self.now();
        let (reply_tx, reply_rx) = channel();
        let poisoned = Arc::new(AtomicBool::new(false));
        let h = Handle {
            task: i,
            calls: self.calls_tx.clone(),
            replies: reply_rx,
            poisoned: Arc::clone(&poisoned),
            now: Cell::new(now),
        };
        let creds = self.creds[i % self.creds.len()].clone();
        let mut policy = self.config.retry;
        // Decorrelate per-task backoff jitter deterministically.
        policy.jitter_seed = splitmix64(policy.jitter_seed ^ i as u64).max(1);
        let program = self.program;
        let dst = self.pairs[i].controller_addr;
        let multiplexed = self.config.sessions_per_endpoint.max(1) > 1;
        let thread = std::thread::Builder::new()
            .name(format!("fleet-{i}"))
            .spawn(move || worker_main(h, creds, policy, program, dst, multiplexed))
            .expect("spawn fleet worker");
        self.tasks[i] = Some(TaskSlot {
            replies: reply_tx,
            poisoned,
            wait: None,
            bucket: TokenBucket::new(self.config.per_endpoint, now),
            started_ns: now,
            thread: Some(thread),
        });
        self.by_node.insert(self.pairs[i].controller.0, i);
        self.active += 1;
        M_ACTIVE.add(1);
        M_SCHEDULED.add(1);
        plab_obs::obs_event!(plab_obs::Component::Runner, "task.launch", "endpoint" = i as u64);
        self.events
            .push(format!("{{\"event\":\"launch\",\"t_ns\":{now},\"endpoint\":{i}}}"));
        self.serve(i);
    }

    /// Is task `i` parked on a wait the world satisfies at this instant?
    fn satisfied(&self, i: usize) -> bool {
        let (sim, node, now) = (&self.net.sim, self.pairs[i].controller, self.now());
        match self.tasks[i].as_ref().and_then(|s| s.wait.as_ref()) {
            None => false,
            Some(Wait::Data { conn, deadline }) => {
                sim.tcp_readable(node, *conn) > 0
                    || sim.tcp_closed(node, *conn)
                    || sim.tcp_peer_done(node, *conn)
                    || deadline.is_some_and(|d| d <= now)
            }
            Some(Wait::Established { conn, deadline }) => {
                sim.tcp_established(node, *conn) || sim.tcp_closed(node, *conn) || *deadline <= now
            }
            Some(Wait::SendReady { at, .. }) => *at <= now,
            Some(Wait::Until(t)) => *t <= now,
        }
    }

    /// Probe signalled task `i`: if its wait is satisfied, answer it and
    /// serve it until it parks again or finishes.
    fn try_wake(&mut self, i: usize) {
        M_WAKE_PROBES.inc();
        if !self.satisfied(i) {
            return;
        }
        let (node, now) = (self.pairs[i].controller, self.now());
        let slot = self.tasks[i].as_mut().expect("satisfied implies live");
        let wait = slot.wait.take().expect("satisfied implies parked");
        if matches!(wait, Wait::SendReady { .. }) {
            // The per-task bucket is only drained by this task, so the
            // token computed at park time is available now.
            let taken = slot.bucket.try_take(now);
            debug_assert!(taken, "send token not ready at its own next_ready time");
        }
        let sim = &mut self.net.sim;
        let reply = match wait {
            // Empty when the wait ended on close or deadline instead.
            Wait::Data { conn, .. } => Reply::Bytes(self.drain_conn(node, conn)),
            Wait::Established { conn, .. } if sim.tcp_established(node, conn) => {
                Reply::Conn(Some(conn))
            }
            Wait::Established { conn, .. } => {
                if !sim.tcp_closed(node, conn) {
                    sim.tcp_close(node, conn);
                }
                Reply::Conn(None)
            }
            Wait::SendReady { conn, bytes, .. } => {
                sim.tcp_send(node, conn, &bytes);
                Reply::Unit
            }
            Wait::Until(_) => Reply::Unit,
        };
        self.reply(i, reply);
        self.serve(i);
    }

    /// Probe every signalled task once, ascending by task index. Serving
    /// a woken task raises no signal (it reaches other tasks only through
    /// simulator events, which the next advance reports), so one pass
    /// leaves `ready` empty.
    fn wake_ready(&mut self) {
        let mut signalled = std::mem::take(&mut self.ready);
        signalled.sort_unstable();
        signalled.dedup();
        for &i in &signalled {
            self.try_wake(i);
        }
        debug_assert!(self.ready.is_empty(), "a wake signal was raised while serving");
        signalled.clear();
        self.ready = signalled;
    }

    /// Move expired timed re-examinations into the ready set.
    fn pop_timed(&mut self) {
        let now = self.now();
        while let Some((&t, _)) = self.timed.iter().next() {
            if t > now {
                break;
            }
            let tasks = self.timed.remove(&t).expect("first key exists");
            self.ready.extend(tasks);
        }
    }

    /// Fleet deadline: poison and unblock every parked task (each winds
    /// down and reports via `Done`), then record unlaunched tasks as
    /// aborted outright.
    fn abort_all(&mut self) {
        for i in 0..self.tasks.len() {
            let Some(slot) = self.tasks[i].as_mut() else {
                continue;
            };
            let Some(wait) = slot.wait.take() else {
                continue;
            };
            slot.poisoned.store(true, Ordering::Relaxed);
            let reply = match wait {
                Wait::Data { .. } => Reply::Bytes(Vec::new()),
                Wait::Established { .. } => Reply::Conn(None),
                // The send is dropped: the endpoint never sees it, the
                // worker is winding down anyway.
                Wait::SendReady { .. } => Reply::Unit,
                Wait::Until(_) => Reply::Unit,
            };
            self.reply(i, reply);
            self.serve(i);
        }
        let now = self.now();
        for i in self.next_pending..self.pairs.len() {
            let result = TaskResult {
                endpoint: i,
                outcome: Outcome::Aborted,
                cause: Some("fleet-deadline".into()),
                detail: Detail::None,
                stats: RetryStats::default(),
                started_ns: now,
                finished_ns: now,
            };
            M_ABORTED.inc();
            self.events.push(outcome_event(now, &result));
            self.results[i] = Some(result);
        }
        self.next_pending = self.pairs.len();
    }

    fn drain_serviced(&mut self) {
        for n in self.net.take_serviced_nodes() {
            if let Some(&i) = self.by_node.get(&n.0) {
                self.ready.push(i);
            }
        }
    }

    fn run(&mut self) {
        let n = self.pairs.len();
        loop {
            debug_assert!(
                (0..n).all(|i| !self.satisfied(i) || self.ready.contains(&i)),
                "missed wake signal: a satisfiable parked task is not in `ready`"
            );
            self.wake_ready();
            // Launch while capacity and the global launch limiter allow.
            while self.next_pending < n && self.active < self.config.max_concurrency {
                let now = self.now();
                if !self.launch_bucket.try_take(now) {
                    break;
                }
                let i = self.next_pending;
                self.next_pending += 1;
                self.launch(i);
            }
            if self.active == 0 && self.next_pending >= n {
                return;
            }
            // Advance virtual time toward the nearest reason to act.
            let now = self.now();
            if self.config.fleet_deadline_ns.is_some_and(|d| now >= d) {
                self.abort_all();
                continue;
            }
            let mut target = u64::MAX;
            if let Some((&t, _)) = self.timed.iter().next() {
                target = target.min(t);
            }
            if self.next_pending < n && self.active < self.config.max_concurrency {
                target = target.min(self.launch_bucket.next_ready(now));
            }
            if let Some(d) = self.config.fleet_deadline_ns {
                target = target.min(d);
            }
            match self.net.sim.next_event_time() {
                Some(t) if t <= target => {
                    self.net.step();
                    self.drain_serviced();
                    self.pop_timed();
                }
                _ if target <= now => {
                    // A stale timed entry due at the current instant;
                    // popping removes it, so this cannot spin.
                    self.pop_timed();
                }
                _ if target < u64::MAX => {
                    self.net.run_until(target);
                    self.drain_serviced();
                    self.pop_timed();
                }
                _ => {
                    // No events, no deadlines, yet tasks are parked: the
                    // world is idle and nothing will ever wake them.
                    self.stall_break();
                }
            }
        }
    }

    /// Safety valve against a fully idle world with parked tasks (cannot
    /// happen with the RobustController's bounded waits, but a buggy or
    /// exotic program must not hang the fleet): force-fail the
    /// lowest-indexed parked task deterministically.
    fn stall_break(&mut self) {
        let parked = (0..self.tasks.len())
            .find(|&i| self.tasks[i].as_ref().is_some_and(|s| s.wait.is_some()));
        let Some(i) = parked else {
            return;
        };
        let wait = self.tasks[i].as_mut().expect("parked task is live").wait.take();
        let reply = match wait {
            Some(Wait::Data { .. }) => Reply::Bytes(Vec::new()),
            Some(Wait::Established { .. }) => Reply::Conn(None),
            Some(Wait::SendReady { .. }) | Some(Wait::Until(_)) | None => Reply::Unit,
        };
        self.reply(i, reply);
        self.serve(i);
    }
}

/// Run `spec` over every pair of `world` under `config`, returning the
/// per-endpoint results and the sealed run report. Consumes the world:
/// the run drives its virtual clock to completion.
///
/// Determinism: for a fixed `(world construction, spec, config)` —
/// including any chaos faults scheduled on `world.net.sim` beforehand —
/// the returned report is bit-identical across replays.
pub fn run_fleet(
    mut world: FleetWorld,
    spec: &ExperimentSpec,
    operator: &Keypair,
    experimenter: &Keypair,
    config: &SchedulerConfig,
) -> Result<FleetRun, String> {
    let n = world.pairs.len();
    let controller_addr = format!("{}:{}", world.pairs[0].controller_addr, CONTROL_PORT);
    let slots = config.sessions_per_endpoint.max(1);
    let creds = (0..slots)
        .map(|s| spec.slot_credentials(operator, experimenter, &controller_addr, s))
        .collect::<Result<Vec<_>, _>>()?;
    world.net.set_track_serviced(true);
    let now = world.net.sim.now();
    let (calls_tx, calls_rx) = channel();
    let mut sched = Sched {
        launch_bucket: TokenBucket::new(config.launch, now),
        net: world.net,
        pairs: world.pairs,
        config: config.clone(),
        calls_rx,
        calls_tx,
        tasks: (0..n).map(|_| None).collect(),
        by_node: HashMap::new(),
        ready: Vec::new(),
        timed: BTreeMap::new(),
        next_pending: 0,
        active: 0,
        results: (0..n).map(|_| None).collect(),
        events: Vec::new(),
        creds,
        program: spec.program,
    };
    sched.events.push(format!(
        "{{\"event\":\"run_start\",\"t_ns\":{now},\"experiment\":\"{}\",\"roster\":{n},\
         \"max_concurrency\":{},\"launch_per_sec\":{},\"per_endpoint_per_sec\":{}}}",
        json_escape(&spec.name),
        config.max_concurrency,
        config.launch.rate_per_sec,
        config.per_endpoint.rate_per_sec,
    ));
    sched.run();
    let end = sched.now();
    sched.events.push(format!("{{\"event\":\"run_end\",\"t_ns\":{end}}}"));
    let results: Vec<TaskResult> = sched
        .results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} finished without a result")))
        .collect();
    let summary = summarize(&spec.name, n, &results, end);
    let report = RunReport::seal(sched.events, summary);
    Ok(FleetRun { report, results, end_ns: end })
}

/// Everything a finished fleet run yields.
pub struct FleetRun {
    /// The sealed, replay-stable run report.
    pub report: RunReport,
    /// Per-endpoint results, indexed by roster pair.
    pub results: Vec<TaskResult>,
    /// Virtual time when the fleet drained.
    pub end_ns: u64,
}
