//! The fleet executor: one thread runs the measurement library over
//! thousands of endpoints of one simulated world, each task a resumable
//! future the scheduler polls.
//!
//! ## Tasks are futures, not threads
//!
//! The controller library (`RobustController` + the §4 experiments) is
//! straight-line code that waits: for a dial, a reply, a point in
//! virtual time. It is written once, as `async fn` over
//! `packetlab::controller::aio`, so every such wait is a point
//! where the compiler-generated state machine can be suspended with its
//! statement order intact. The scheduler keeps one boxed future per
//! in-flight task and owns the [`SimNet`] together with them (one thread,
//! so an `Rc<RefCell<_>>`). An operation the world can answer at the
//! current instant — a send, a close, a UDP bind or take, the clock — is
//! a direct call on the simulator. One it cannot answer (`recv` with no
//! buffered data, a dial mid-handshake, a `wait_until`) leaves a typed
//! `Wait` in the task's slot and returns `Pending`; the scheduler parks
//! the task under that wait.
//! Only the task being polled runs, and a poll ends at the task's next
//! park, so the interleaving — and therefore every byte of the run
//! report — is a pure function of `(seed, roster, config)`: bit-identical
//! replays even under chaos fault schedules, with no hand-off to order.
//!
//! ## Parked tasks wake on signals, virtual time advances
//!
//! A parked task is examined again only on a fresh *wake signal*: the
//! simulator touched its controller node (the sparse harness reports
//! serviced nodes) or one of its deadlines arrived. Nothing else can
//! satisfy a wait, so a probe that fails drops the task until its next
//! signal; signalled tasks are polled lowest index first. Debug builds
//! check after every advance that no satisfiable task lacks a signal.
//! Virtual time moves only when no signalled task is left to poll.

use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::future::{poll_fn, Future};
use std::net::Ipv4Addr;
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use packetlab::controller::aio::{Channel, Dialer, Sink};
use packetlab::controller::experiments::aio as probes;
use packetlab::controller::robust::{RetryPolicy, RetryStats, RobustController};
use packetlab::controller::{probe_seq, ControllerError, Credentials};
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimNet, CONTROL_PORT};
use packetlab::wire::{FrameDecoder, Message};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::roster::{build_roster, RosterPair, RosterSpec};
use plab_netsim::{NodeId, ShardedSim, SECOND};
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
static M_TASK_POLLS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("runner.task_polls");

/// Handshake-establishment grace before a dial counts as failed.
const DIAL_DEADLINE: u64 = 10 * SECOND;

/// Why a parked task is waiting.
#[derive(Clone, Copy)]
enum Wait {
    /// Readable data on `conn` (or close / deadline).
    Data { conn: u64, deadline: Option<u64> },
    /// TCP establishment of `conn` (or close / deadline).
    Established { conn: u64, deadline: u64 },
    /// Plain virtual-time sleep.
    Until(u64),
}

impl Wait {
    /// Does the world, seen from controller host `node`, satisfy this
    /// wait at this instant?
    fn holds(self, sim: &ShardedSim, node: NodeId) -> bool {
        let now = sim.now();
        match self {
            Wait::Data { conn, deadline } => {
                sim.tcp_readable(node, conn) > 0
                    || sim.tcp_closed(node, conn)
                    || sim.tcp_peer_done(node, conn)
                    || deadline.is_some_and(|d| d <= now)
            }
            Wait::Established { conn, deadline } => {
                sim.tcp_established(node, conn) || sim.tcp_closed(node, conn) || deadline <= now
            }
            Wait::Until(t) => t <= now,
        }
    }

    /// When to look again even if nothing touches the node.
    fn deadline(self) -> Option<u64> {
        match self {
            Wait::Data { deadline, .. } => deadline,
            Wait::Established { deadline, .. } => Some(deadline),
            Wait::Until(t) => Some(t),
        }
    }
}

/// What a task's future resolves to.
struct WorkerResult {
    outcome: Outcome,
    cause: Option<String>,
    detail: Detail,
    stats: RetryStats,
}

impl WorkerResult {
    /// A task that ended without a measurement.
    fn without_detail(outcome: Outcome, cause: String, stats: RetryStats) -> WorkerResult {
        WorkerResult { outcome, cause: Some(cause), detail: Detail::None, stats }
    }
}

type TaskFuture = Pin<Box<dyn Future<Output = WorkerResult>>>;

/// The scheduler's record of one in-flight task. The task's own
/// operations set `wait`; the scheduler reads it and sets the two flags.
struct TaskSlot {
    /// What the operation that returned `Pending` waits for.
    wait: Option<Wait>,
    /// Fleet deadline: every operation short-circuits from now on (sends
    /// drop, receives and dials fail, the clock reads `u64::MAX`), so the
    /// `RobustController` trips its unreachable budget at once and the
    /// future runs to completion without touching the world again.
    poisoned: bool,
    /// Stall break: the parked operation alone gives up, once.
    cut: bool,
    started_ns: u64,
}

/// What the scheduler and the futures it polls both touch. The scheduler
/// lets go of its borrow before every poll.
struct Shared {
    net: SimNet,
    slots: Vec<Option<TaskSlot>>,
}

/// A task's end of [`Shared`], as the dialer and UDP sink on its
/// controller host: what the task's `RobustController` reconnects (and
/// the §4 bandwidth sink binds) through. Every [`FleetChannel`] it makes
/// keeps a copy to reach the world with.
#[derive(Clone)]
struct FleetDialer {
    shared: Rc<RefCell<Shared>>,
    task: usize,
    /// The task's controller host.
    node: NodeId,
    /// Where its dials go.
    endpoint: Ipv4Addr,
}

impl FleetDialer {
    /// An operation the world answers at once. A poisoned task gets
    /// `gave_up` and the world is left alone.
    fn with<T>(&self, gave_up: T, op: impl FnOnce(&mut ShardedSim) -> T) -> T {
        let sh = &mut *self.shared.borrow_mut();
        match &sh.slots[self.task] {
            Some(slot) if !slot.poisoned => op(&mut sh.net.sim),
            _ => gave_up,
        }
    }

    /// The virtual clock; a poisoned task's has run out.
    fn clock(&self) -> u64 {
        self.with(u64::MAX, |sim| sim.now())
    }

    /// Suspend until the world satisfies `wait` — not at all if it already
    /// does. Otherwise the wait sits in the task's slot and the scheduler
    /// polls again once it [`Wait::holds`]. False if the task was poisoned
    /// or cut loose instead.
    async fn until(&self, wait: Wait) -> bool {
        poll_fn(|_| {
            let sh = &mut *self.shared.borrow_mut();
            let slot = sh.slots[self.task].as_mut().expect("a polled task is live");
            slot.wait = None;
            if slot.poisoned || std::mem::take(&mut slot.cut) {
                Poll::Ready(false)
            } else if wait.holds(&sh.net.sim, self.node) {
                Poll::Ready(true)
            } else {
                slot.wait = Some(wait);
                Poll::Pending
            }
        })
        .await
    }
}

/// A control channel over the scheduler's world.
struct FleetChannel {
    host: FleetDialer,
    conn: u64,
    decoder: FrameDecoder,
}

impl Channel for FleetChannel {
    async fn send(&mut self, msg: &Message) {
        let (node, conn) = (self.host.node, self.conn);
        self.host.with((), |sim| sim.tcp_send(node, conn, &msg.to_frame()));
    }

    async fn recv(&mut self, deadline: Option<u64>) -> Option<Message> {
        let (node, conn) = (self.host.node, self.conn);
        loop {
            match self.decoder.next_message() {
                Ok(Some(m)) => return Some(m),
                Ok(None) => {}
                Err(_) => return None,
            }
            let decoder = &mut self.decoder;
            let more = self.host.until(Wait::Data { conn, deadline }).await
                && self.host.with(false, |sim| {
                    decoder.fill(|max| sim.tcp_recv(node, conn, max))
                });
            if !more {
                // Deadline passed, connection closed, or the task was
                // poisoned while parked. One final decode attempt.
                return self.decoder.next_message().ok().flatten();
            }
        }
    }

    fn now(&self) -> u64 {
        self.host.clock()
    }
}

impl Drop for FleetChannel {
    fn drop(&mut self) {
        // try_borrow: a channel dropped by a poll that is unwinding must
        // not panic again.
        if let Ok(mut sh) = self.host.shared.try_borrow_mut() {
            if sh.slots[self.host.task].as_ref().is_some_and(|s| !s.poisoned) {
                sh.net.sim.tcp_close(self.host.node, self.conn);
            }
        }
    }
}

impl Dialer for FleetDialer {
    type Chan = FleetChannel;

    async fn dial(&mut self) -> Option<FleetChannel> {
        let node = self.node;
        let (conn, deadline) = self.with(None, |sim| {
            let conn = sim.tcp_connect(node, self.endpoint, CONTROL_PORT);
            Some((conn, sim.now() + DIAL_DEADLINE))
        })?;
        let up = self.until(Wait::Established { conn, deadline }).await
            && self.with(false, |sim| {
                let up = sim.tcp_established(node, conn);
                if !up && !sim.tcp_closed(node, conn) {
                    sim.tcp_close(node, conn);
                }
                up
            });
        up.then(|| FleetChannel { host: self.clone(), conn, decoder: FrameDecoder::new() })
    }

    fn now(&self) -> u64 {
        self.clock()
    }

    async fn wait_until(&mut self, time: u64) {
        self.until(Wait::Until(time)).await;
    }
}

impl Sink for FleetDialer {
    fn sink_addr(&self) -> Ipv4Addr {
        self.with(Ipv4Addr::UNSPECIFIED, |sim| sim.addr_of(self.node))
    }

    fn sink_bind(&mut self, port: u16) -> bool {
        self.with(false, |sim| sim.udp_bind(self.node, port))
    }

    fn sink_take(&mut self, port: u16) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        let arrivals = self.with(Vec::new(), |sim| sim.udp_recv(self.node, port));
        arrivals.into_iter().map(|(t, a, p, d)| (t, a, p, probe_seq(&d), d.len())).collect()
    }

    async fn wait_until(&mut self, time: u64) {
        self.until(Wait::Until(time)).await;
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

/// The body of one task: connect, run the program against the task's own
/// controller host, convert the result. This is the same call sequence a
/// single-endpoint example performs against `SimDialer` — only the
/// dialer type, and who polls, differ.
async fn run_task(
    dialer: FleetDialer,
    creds: Credentials,
    policy: RetryPolicy,
    program: Program,
) -> WorkerResult {
    let failed = |e, stats| WorkerResult::without_detail(Outcome::Failed, cause_label(&e), stats);
    let dst = dialer.sink_addr();
    let mut ctrl = match RobustController::establish(dialer, creds, policy).await {
        Ok(c) => c,
        Err(e) => return failed(e, RetryStats::default()),
    };
    let r = match program {
        Program::Ping { count, interval_ns, payload_len } => {
            probes::ping(&mut ctrl, dst, count, interval_ns, payload_len).await.map(|s| {
                Detail::Ping {
                    sent: s.sent,
                    replies: s.replies.len() as u32,
                    min_rtt: s.min_rtt().unwrap_or(0),
                    max_rtt: s.max_rtt().unwrap_or(0),
                }
            })
        }
        Program::Traceroute { max_ttl } => probes::traceroute(&mut ctrl, dst, max_ttl)
            .await
            .map(|t| Detail::Traceroute { hops: t.hops.len() as u32, reached: t.reached }),
        Program::Bandwidth { sink_port, packets, payload_len, delay_ns } => {
            probes::measure_uplink_bandwidth(&mut ctrl, sink_port, packets, payload_len, delay_ns)
                .await
                .map(|b| Detail::Bandwidth {
                    sent: b.sent,
                    received: b.received,
                    kbits_per_sec: (b.bits_per_sec / 1000.0) as u64,
                    dispersion_kbits_per_sec: b.dispersion_bps / 1000,
                })
        }
    };
    match r {
        Ok(detail) => {
            WorkerResult { outcome: Outcome::Completed, cause: None, detail, stats: ctrl.stats }
        }
        Err(e) => failed(e, ctrl.stats),
    }
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
    net.set_sparse();
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

struct Sched<'a> {
    shared: Rc<RefCell<Shared>>,
    /// The in-flight tasks' futures, task index == pair index. Outside
    /// `shared`, so that a poll holds no borrow of it.
    futures: Vec<Option<TaskFuture>>,
    /// Makes task `i`'s future at its launch.
    spawn: &'a mut dyn FnMut(usize, FleetDialer) -> TaskFuture,
    pairs: Vec<RosterPair>,
    config: &'a SchedulerConfig,
    /// Controller node index → task index (live tasks only).
    by_node: Vec<Option<usize>>,
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
}

impl Sched<'_> {
    fn now(&self) -> u64 {
        self.shared.borrow().net.sim.now()
    }

    /// Poll task `i` until it parks or finishes. A panic inside the
    /// task's code ends that task alone.
    fn poll(&mut self, i: usize) {
        M_TASK_POLLS.inc();
        let fut = self.futures[i].as_mut().expect("polling a live task");
        let mut cx = Context::from_waker(Waker::noop());
        let result = match std::panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)))
        {
            Ok(Poll::Pending) => return self.park(i),
            Ok(Poll::Ready(r)) => r,
            Err(_) => {
                WorkerResult::without_detail(Outcome::Aborted, "panic".into(), RetryStats::default())
            }
        };
        // Before the slot goes: a channel the future still holds closes
        // its connection as it drops.
        self.futures[i] = None;
        self.finish(i, result);
    }

    /// Task `i`'s poll returned `Pending`: file the deadline of the wait
    /// its operation left in the slot for a timed re-examination.
    fn park(&mut self, i: usize) {
        let wait = self.shared.borrow().slots[i].as_ref().and_then(|s| s.wait);
        let wait = wait.expect("a task may only suspend in its channel or dialer");
        if let Some(d) = wait.deadline() {
            self.timed.entry(d).or_default().push(i);
        }
    }

    fn finish(&mut self, i: usize, mut r: WorkerResult) {
        let now = self.now();
        let slot = self.shared.borrow_mut().slots[i].take().expect("finishing a live task");
        self.by_node[self.pairs[i].controller.0] = None;
        self.active -= 1;
        // A poisoned task aborted on the fleet deadline, whatever the
        // body's error path reported on the way down.
        if slot.poisoned {
            (r.outcome, r.cause) = (Outcome::Aborted, Some("fleet-deadline".into()));
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
        self.record(i, slot.started_ns, r);
    }

    /// Enter task `i`'s outcome in the report, at the current instant.
    fn record(&mut self, i: usize, started_ns: u64, r: WorkerResult) {
        let now = self.now();
        let result = TaskResult {
            endpoint: i,
            outcome: r.outcome,
            cause: r.cause,
            detail: r.detail,
            stats: r.stats,
            started_ns,
            finished_ns: now,
        };
        match r.outcome {
            Outcome::Completed => M_COMPLETED.inc(),
            Outcome::Failed => M_FAILED.inc(),
            Outcome::Aborted => M_ABORTED.inc(),
        }
        self.events.push(outcome_event(now, &result));
        self.results[i] = Some(result);
    }

    /// Launch task `i`: make its future and poll it until it parks
    /// (typically on its first dial).
    fn launch(&mut self, i: usize) {
        let now = self.now();
        let dialer = FleetDialer {
            shared: Rc::clone(&self.shared),
            task: i,
            node: self.pairs[i].controller,
            endpoint: self.pairs[i].endpoint_addr,
        };
        self.shared.borrow_mut().slots[i] =
            Some(TaskSlot { wait: None, poisoned: false, cut: false, started_ns: now });
        self.futures[i] = Some((self.spawn)(i, dialer));
        self.by_node[self.pairs[i].controller.0] = Some(i);
        self.active += 1;
        M_ACTIVE.add(1);
        M_SCHEDULED.add(1);
        plab_obs::obs_event!(plab_obs::Component::Runner, "task.launch", "endpoint" = i as u64);
        self.events
            .push(format!("{{\"event\":\"launch\",\"t_ns\":{now},\"endpoint\":{i}}}"));
        self.poll(i);
    }

    /// Is task `i` parked on a wait the world satisfies at this instant?
    fn satisfied(&self, i: usize) -> bool {
        let sh = self.shared.borrow();
        let wait = sh.slots[i].as_ref().and_then(|s| s.wait);
        wait.is_some_and(|w| w.holds(&sh.net.sim, self.pairs[i].controller))
    }

    /// Probe signalled task `i`: if its wait is satisfied, poll it until
    /// it parks again or finishes.
    fn try_wake(&mut self, i: usize) {
        M_WAKE_PROBES.inc();
        if self.satisfied(i) {
            self.poll(i);
        }
    }

    /// Probe every signalled task once, ascending by task index. Polling
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
        debug_assert!(self.ready.is_empty(), "a wake signal was raised while polling");
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

    /// The slot of live task `i`. Between polls every live task is parked.
    fn slot(&self, i: usize) -> RefMut<'_, TaskSlot> {
        RefMut::map(self.shared.borrow_mut(), |sh| sh.slots[i].as_mut().expect("a live task"))
    }

    /// Fleet deadline: poison and poll every parked task (each winds down
    /// and resolves within that poll), then record unlaunched tasks as
    /// aborted outright.
    fn abort_all(&mut self) {
        for i in 0..self.futures.len() {
            if self.futures[i].is_some() {
                self.slot(i).poisoned = true;
                self.poll(i);
            }
        }
        let now = self.now();
        for i in self.next_pending..self.pairs.len() {
            let stats = RetryStats::default();
            let r = WorkerResult::without_detail(Outcome::Aborted, "fleet-deadline".into(), stats);
            self.record(i, now, r);
        }
        self.next_pending = self.pairs.len();
    }

    fn drain_serviced(&mut self) {
        let mut shared = self.shared.borrow_mut();
        self.ready.extend(shared.net.drain_serviced_nodes().filter_map(|n| *self.by_node.get(n.0)?));
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
            let next_event = self.shared.borrow().net.sim.next_event_time();
            match next_event {
                // Past this event, router hops on the way to `target`
                // change nothing a task or an agent can see: they need no
                // turn of this loop each.
                Some(t) if t <= target => {
                    self.shared.borrow_mut().net.step_quiet(target);
                }
                // A stale timed entry due at the current instant; popping
                // removes it, so this cannot spin.
                _ if target <= now => {}
                _ if target < u64::MAX => self.shared.borrow_mut().net.run_until(target),
                _ => {
                    // No events, no deadlines, yet tasks are parked: the
                    // world is idle and nothing will ever wake them.
                    self.stall_break();
                    continue;
                }
            }
            self.drain_serviced();
            self.pop_timed();
        }
    }

    /// Safety valve against a fully idle world with parked tasks (cannot
    /// happen with the RobustController's bounded waits, but a buggy or
    /// exotic program must not hang the fleet): the lowest-indexed parked
    /// task's operation gives up, deterministically.
    fn stall_break(&mut self) {
        if let Some(i) = self.futures.iter().position(Option::is_some) {
            self.slot(i).cut = true;
            self.poll(i);
        }
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
    world: FleetWorld,
    spec: &ExperimentSpec,
    operator: &Keypair,
    experimenter: &Keypair,
    config: &SchedulerConfig,
) -> Result<FleetRun, String> {
    if config.max_concurrency == 0 {
        return Err("max_concurrency is 0: no task could ever launch".into());
    }
    let controller_addr = format!("{}:{}", world.pairs[0].controller_addr, CONTROL_PORT);
    let creds = spec.credentials(operator, experimenter, &controller_addr)?;
    let mut spawn = |i: usize, dialer: FleetDialer| -> TaskFuture {
        let mut policy = config.retry;
        // Decorrelate per-task backoff jitter deterministically.
        policy.jitter_seed = splitmix64(policy.jitter_seed ^ i as u64).max(1);
        Box::pin(run_task(dialer, creds.clone(), policy, spec.program))
    };
    Ok(execute(world, &spec.name, config, &mut spawn))
}

/// The scheduler proper: launch, poll, park and record one task per pair
/// of `world`, task `i`'s future made by `spawn(i, dialer)`.
fn execute(
    world: FleetWorld,
    name: &str,
    config: &SchedulerConfig,
    spawn: &mut dyn FnMut(usize, FleetDialer) -> TaskFuture,
) -> FleetRun {
    let n = world.pairs.len();
    let now = world.net.sim.now();
    let nodes = world.pairs.iter().map(|p| p.controller.0 + 1).max().unwrap_or(0);
    let mut sched = Sched {
        launch_bucket: TokenBucket::new(config.launch, now),
        shared: Rc::new(RefCell::new(Shared {
            net: world.net,
            slots: (0..n).map(|_| None).collect(),
        })),
        futures: (0..n).map(|_| None).collect(),
        spawn,
        pairs: world.pairs,
        config,
        by_node: vec![None; nodes],
        ready: Vec::new(),
        timed: BTreeMap::new(),
        next_pending: 0,
        active: 0,
        results: (0..n).map(|_| None).collect(),
        events: Vec::new(),
    };
    // `per_endpoint_per_sec` is a constant 0 (sends are never rate
    // limited); every pinned report digest covers this record.
    sched.events.push(format!(
        "{{\"event\":\"run_start\",\"t_ns\":{now},\"experiment\":\"{}\",\"roster\":{n},\
         \"max_concurrency\":{},\"launch_per_sec\":{},\"per_endpoint_per_sec\":0}}",
        json_escape(name),
        config.max_concurrency,
        config.launch.rate_per_sec,
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
    let summary = summarize(name, n, &results, end);
    let report = RunReport::seal(sched.events, summary);
    FleetRun { report, results, end_ns: end }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A panic inside a task's code ends that task alone: the scheduler
    /// records it and carries on polling the others.
    #[test]
    fn a_task_that_panics_on_its_first_poll_is_aborted_and_the_rest_complete() {
        let (operator, experimenter) = (Keypair::from_seed(&[1; 32]), Keypair::from_seed(&[2; 32]));
        let roster = RosterSpec { pairs: 4, shards: 1, threads: 1, seed: 42, access_mbps: 0 };
        let world = build_fleet(&roster, &operator);
        let spec = ExperimentSpec::ping("unit-panic");
        let addr = format!("{}:{CONTROL_PORT}", world.pairs[0].controller_addr);
        let creds = spec.credentials(&operator, &experimenter, &addr).expect("nothing to compile");
        let config = SchedulerConfig::default();
        let mut spawn = |i: usize, dialer: FleetDialer| -> TaskFuture {
            if i == 2 {
                return Box::pin(async { panic!("task 2 panics on its first poll") });
            }
            Box::pin(run_task(dialer, creds.clone(), config.retry, spec.program))
        };
        let run = execute(world, &spec.name, &config, &mut spawn);
        for t in &run.results {
            let expected = if t.endpoint == 2 {
                (Outcome::Aborted, Some("panic"))
            } else {
                (Outcome::Completed, None)
            };
            assert_eq!((t.outcome, t.cause.as_deref()), expected, "endpoint {}", t.endpoint);
        }
    }
}
