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
//! so an `Rc<RefCell<_>>`). A task's channel, dialer and sink are the
//! harness's [`SimHost`] and its `SimChannel`, driven by the task's
//! handle: an operation the world can answer at the current instant is a
//! direct call on the simulator, and one it cannot (`recv` with no
//! buffered data, a dial mid-handshake, a `wait_until`) leaves its
//! [`Wait`] in the task's slot and returns `Pending`; the scheduler parks
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
use std::panic::AssertUnwindSafe;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use packetlab::controller::aio::Sink;
use packetlab::controller::robust::{RetryPolicy, RetryStats, RobustController};
use packetlab::controller::{ControllerError, Credentials};
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{Driver, SimHost, SimNet, Wait, CONTROL_PORT};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::roster::{build_roster, RosterPair, RosterSpec};
use plab_netsim::{NodeId, SECOND};
use plab_obs::export::{json_escape, splitmix64};
use plab_obs::metrics::{Counter, Gauge, Histogram};

use crate::config::{SchedulerConfig, TokenBucket};
use crate::report::{outcome_event, summarize, Detail, Outcome, RunReport, TaskResult};
use crate::spec::{ExperimentSpec, Program};

static M_SCHEDULED: Gauge = Gauge::new("runner.scheduled");
static M_ACTIVE: Gauge = Gauge::new("runner.active");
static M_DONE: Gauge = Gauge::new("runner.done");
static M_COMPLETED: Counter = Counter::new("runner.completed");
static M_FAILED: Counter = Counter::new("runner.failed");
static M_ABORTED: Counter = Counter::new("runner.aborted");
static M_LATENCY: Histogram = Histogram::new("runner.task_latency_ns");
static M_WAKE_PROBES: Counter = Counter::new("runner.wake_probes");
static M_TASK_POLLS: Counter = Counter::new("runner.task_polls");

/// What a task's future resolves to: its result, which the scheduler
/// stamps with the task's index and instants as it records it.
type TaskFuture = Pin<Box<dyn Future<Output = TaskResult>>>;

/// A task's result without a measurement.
fn ended(outcome: Outcome, cause: Option<&str>) -> TaskResult {
    let (detail, cause, stats) = (Detail::None, cause.map(String::from), RetryStats::default());
    TaskResult {
        endpoint: 0,
        outcome,
        cause,
        detail,
        stats,
        started_ns: 0,
        finished_ns: 0,
    }
}

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

/// A task's end of [`Shared`]: the driver of its controller host, which
/// parks the task's future on a wait the world does not yet satisfy.
#[derive(Clone)]
struct Task {
    shared: Rc<RefCell<Shared>>,
    index: usize,
}

impl Driver for Task {
    /// A poisoned task gets `gave_up` and leaves the world alone.
    fn with<T>(&self, gave_up: T, op: impl FnOnce(&mut SimNet) -> T) -> T {
        let sh = &mut *self.shared.borrow_mut();
        match &sh.slots[self.index] {
            Some(slot) if !slot.poisoned => op(&mut sh.net),
            _ => gave_up,
        }
    }

    /// Not at all if the world already satisfies `wait`. Otherwise the
    /// wait sits in the task's slot and the scheduler polls again once it
    /// [`Wait::holds`]. False if the task was poisoned or cut loose
    /// instead.
    async fn until(&self, node: NodeId, wait: Wait) -> bool {
        poll_fn(|_| {
            let sh = &mut *self.shared.borrow_mut();
            let slot = sh.slots[self.index].as_mut().expect("a live task");
            slot.wait = None;
            if slot.poisoned || std::mem::take(&mut slot.cut) {
                Poll::Ready(false)
            } else if wait.holds(&sh.net.sim, node) {
                Poll::Ready(true)
            } else {
                slot.wait = Some(wait);
                Poll::Pending
            }
        })
        .await
    }
}

/// A task whose controller gave up with `e`, its cause the error's label.
fn failed(e: ControllerError, stats: RetryStats) -> TaskResult {
    let cause = match e {
        ControllerError::Timeout => "timeout".into(),
        ControllerError::Endpoint(code, _) => format!("endpoint:{code:?}"),
        ControllerError::Protocol(_) => "protocol".into(),
        ControllerError::Unreachable { .. } => "unreachable".into(),
    };
    TaskResult {
        stats,
        ..ended(Outcome::Failed, Some(&cause))
    }
}

/// The body of one task: connect, run the program against the task's own
/// controller host, convert the result. This is the same call sequence a
/// single-endpoint example performs against `SimDialer`, the same host
/// type — only its driver, and who polls, differ.
async fn run_task(
    dialer: SimHost<Task>,
    creds: Credentials,
    policy: RetryPolicy,
    program: Program,
) -> TaskResult {
    let dst = dialer.sink_addr();
    let mut ctrl = match RobustController::establish(dialer, creds, policy).await {
        Ok(c) => c,
        Err(e) => return failed(e, RetryStats::default()),
    };
    match program.run(&mut ctrl, dst).await {
        Ok(detail) => TaskResult {
            detail,
            stats: ctrl.stats,
            ..ended(Outcome::Completed, None)
        },
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
    FleetWorld {
        net,
        pairs: world.pairs,
        pods: world.pods,
    }
}

struct Sched<'a> {
    shared: Rc<RefCell<Shared>>,
    /// The in-flight tasks' futures, task index == pair index. Outside
    /// `shared`, so that a poll holds no borrow of it.
    futures: Vec<Option<TaskFuture>>,
    /// Makes task `i`'s future at its launch.
    spawn: &'a mut dyn FnMut(usize, SimHost<Task>) -> TaskFuture,
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
            Err(_) => ended(Outcome::Aborted, Some("panic")),
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

    fn finish(&mut self, i: usize, mut r: TaskResult) {
        let now = self.now();
        let slot = self.shared.borrow_mut().slots[i]
            .take()
            .expect("finishing a live task");
        (r.endpoint, r.started_ns) = (i, slot.started_ns);
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
        self.record(r);
    }

    /// Enter a task's result in the report, finished at the current instant.
    fn record(&mut self, mut r: TaskResult) {
        r.finished_ns = self.now();
        match r.outcome {
            Outcome::Completed => M_COMPLETED.inc(),
            Outcome::Failed => M_FAILED.inc(),
            Outcome::Aborted => M_ABORTED.inc(),
        }
        self.events.push(outcome_event(r.finished_ns, &r));
        let i = r.endpoint;
        self.results[i] = Some(r);
    }

    /// Launch task `i`: make its future and poll it until it parks
    /// (typically on its first dial).
    fn launch(&mut self, i: usize) {
        let now = self.now();
        let task = Task {
            shared: Rc::clone(&self.shared),
            index: i,
        };
        let dialer = SimHost::over(task, self.pairs[i].controller, self.pairs[i].endpoint_addr);
        self.shared.borrow_mut().slots[i] = Some(TaskSlot {
            wait: None,
            poisoned: false,
            cut: false,
            started_ns: now,
        });
        self.futures[i] = Some((self.spawn)(i, dialer));
        self.by_node[self.pairs[i].controller.0] = Some(i);
        self.active += 1;
        M_ACTIVE.add(1);
        M_SCHEDULED.add(1);
        plab_obs::obs_event!(
            plab_obs::Component::Runner,
            "task.launch",
            "endpoint" = i as u64
        );
        self.events.push(format!(
            "{{\"event\":\"launch\",\"t_ns\":{now},\"endpoint\":{i}}}"
        ));
        self.poll(i);
    }

    /// Is task `i` parked on a wait the world satisfies at this instant?
    fn satisfied(&self, i: usize) -> bool {
        let sh = self.shared.borrow();
        let wait = sh.slots[i].as_ref().and_then(|s| s.wait);
        wait.is_some_and(|w| w.holds(&sh.net.sim, self.pairs[i].controller))
    }

    /// Probe every signalled task once, ascending by task index, and
    /// poll each whose wait is satisfied until it parks again or finishes.
    /// Polling a woken task raises no signal (it reaches other tasks only
    /// through simulator events, which the next advance reports), so one
    /// pass leaves `ready` empty.
    fn wake_ready(&mut self) {
        let mut signalled = std::mem::take(&mut self.ready);
        signalled.sort_unstable();
        signalled.dedup();
        for &i in &signalled {
            M_WAKE_PROBES.inc();
            if self.satisfied(i) {
                self.poll(i);
            }
        }
        debug_assert!(self.ready.is_empty(), "a poll raised a wake signal");
        signalled.clear();
        self.ready = signalled;
    }

    /// The slot of live task `i`. Between polls every live task is parked.
    fn slot(&self, i: usize) -> RefMut<'_, TaskSlot> {
        RefMut::map(self.shared.borrow_mut(), |sh| {
            sh.slots[i].as_mut().expect("a live task")
        })
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
            let mut r = ended(Outcome::Aborted, Some("fleet-deadline"));
            (r.endpoint, r.started_ns) = (i, now);
            self.record(r);
        }
        self.next_pending = self.pairs.len();
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
            // Wake the tasks on the nodes the advance serviced, and those
            // whose deadlines it reached.
            let mut sh = self.shared.borrow_mut();
            let serviced = sh.net.drain_serviced_nodes();
            self.ready
                .extend(serviced.filter_map(|n| *self.by_node.get(n.0)?));
            let now = sh.net.sim.now();
            while let Some(due) = self.timed.first_entry().filter(|e| *e.key() <= now) {
                self.ready.extend(due.remove());
            }
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
    let mut spawn = |i: usize, dialer: SimHost<Task>| -> TaskFuture {
        let mut policy = config.retry;
        // Decorrelate per-task backoff jitter deterministically.
        policy.jitter_seed = splitmix64(&mut (policy.jitter_seed ^ i as u64)).max(1);
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
    spawn: &mut dyn FnMut(usize, SimHost<Task>) -> TaskFuture,
) -> FleetRun {
    let n = world.pairs.len();
    let now = world.net.sim.now();
    let nodes = world.pairs.iter().map(|p| p.controller.0 + 1).max();
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
        by_node: vec![None; nodes.unwrap_or(0)],
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
    sched
        .events
        .push(format!("{{\"event\":\"run_end\",\"t_ns\":{end}}}"));
    let results: Vec<TaskResult> = sched
        .results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} finished without a result")))
        .collect();
    let summary = summarize(name, n, &results, end);
    let report = RunReport::seal(sched.events, summary);
    FleetRun {
        report,
        results,
        end_ns: end,
    }
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
        let roster = RosterSpec {
            pairs: 4,
            shards: 1,
            threads: 1,
            seed: 42,
            access_mbps: 0,
        };
        let world = build_fleet(&roster, &operator);
        let spec = ExperimentSpec::ping("unit-panic");
        let addr = format!("{}:{CONTROL_PORT}", world.pairs[0].controller_addr);
        let creds = spec
            .credentials(&operator, &experimenter, &addr)
            .expect("nothing to compile");
        let config = SchedulerConfig::default();
        let mut spawn = |i: usize, dialer: SimHost<Task>| -> TaskFuture {
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
            assert_eq!(
                (t.outcome, t.cause.as_deref()),
                expected,
                "endpoint {}",
                t.endpoint
            );
        }
    }
}
