//! Chaos suite: the full control plane under deterministic fault
//! injection (the viability claim of §1/§3.2 made falsifiable).
//!
//! Every run is a pure function of `(scenario, seed)`. The corpus sweep
//! replays ≥ 50 fixed-seed fault schedules over the §4 experiments and
//! a Table 1 conformance sweep, asserting the chaos contract: each run
//! either completes with reproducible observables or aborts with a typed
//! error — never hangs, never panics. Failures print the reproducing
//! seed; replay any seed with:
//!
//! ```text
//! cargo run --release -p plab-bench -- chaos --scenario <name> --seed <hex>
//! ```

use packetlab::chaos::{self, ChaosVerdict, Scenario};
use packetlab::controller::robust::{RetryStats, RobustController};
use packetlab::controller::{ControlPlane, Controller, ControllerError, Credentials};
use packetlab::cert::Restrictions;
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimDialer, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{FaultAction, LinkParams, TopologyBuilder, MILLISECOND, SECOND};
use plab_obs::export::{fnv1a, FNV_OFFSET};
use std::cell::RefCell;
use std::rc::Rc;

/// The corpus, replayed twice: the second pass must reproduce the first
/// bit-for-bit (digest, verdict, virtual finish time, retry counters).
/// This is the "identical virtual-time observables across two consecutive
/// runs" acceptance gate, and the no-hang gate (every run is bounded by
/// `chaos::RUN_DEADLINE` in virtual time — an overrun panics with the
/// seed).
#[test]
fn chaos_corpus_is_deterministic_and_never_hangs() {
    let corpus = chaos::corpus();
    assert!(corpus.len() >= 50, "corpus shrank below the acceptance floor");
    let mut completed = 0usize;
    let mut aborted = 0usize;
    let mut corpus_digest = FNV_OFFSET;
    for &(scenario, seed) in &corpus {
        let first = chaos::run(scenario, seed);
        let second = chaos::run(scenario, seed);
        corpus_digest = fold_outcome(corpus_digest, &first);
        assert_eq!(
            first, second,
            "non-deterministic chaos run — reproduce with seed {seed:#018x} \
             scenario {}:\n  first : {}\n  second: {}",
            scenario.name(),
            first.report(),
            second.report(),
        );
        match &first.verdict {
            ChaosVerdict::Completed => completed += 1,
            ChaosVerdict::Aborted(err) => {
                // A clean abort must be a *typed* failure the experiment
                // can act on, not a stringly mystery.
                assert!(
                    err.contains("unreachable") || err.contains("endpoint error"),
                    "untyped abort for seed {seed:#018x}: {}",
                    first.report(),
                );
                aborted += 1;
            }
        }
    }
    // The schedule mix must actually exercise both halves of the contract:
    // most schedules are survivable, some are not.
    assert!(
        completed >= corpus.len() / 2,
        "chaos corpus mostly failing: {completed} completed, {aborted} aborted",
    );
    assert!(
        aborted >= 1,
        "chaos corpus never exercised the clean-abort path ({completed} completed)",
    );
    assert_eq!(
        corpus_digest, CORPUS_DIGEST,
        "the corpus outcomes moved: run `repro chaos` here and on the parent and diff"
    );
}

/// Every field of every first-run outcome of the corpus, folded in corpus
/// order by [`fold_outcome`]. `report()` is not enough: it leaves out
/// `failed_dials`, `suspended_waits` and `finished_at` below the
/// millisecond, which is where a backoff change shows first.
const CORPUS_DIGEST: u64 = 0x5458_5576_e64e_180d;

/// FNV-1a over one outcome: seed, scenario, verdict text, observables
/// digest, finish time in ns, the five retry counters, fault count and
/// pool buffers taken.
fn fold_outcome(mut h: u64, o: &chaos::ChaosOutcome) -> u64 {
    let s = &o.stats;
    let mut bytes = o.seed.to_le_bytes().to_vec();
    bytes.extend(format!("{} {:?}", o.scenario.name(), o.verdict).bytes());
    for w in [o.digest, o.finished_at] {
        bytes.extend(w.to_le_bytes());
    }
    for c in [s.connects, s.failed_dials, s.timeouts, s.replays, s.suspended_waits] {
        bytes.extend(c.to_le_bytes());
    }
    for w in [o.fault_count as u64, o.pool_taken] {
        bytes.extend(w.to_le_bytes());
    }
    fnv1a(&mut h, &bytes);
    h
}

/// The full corpus again, with the world split across 4 shards
/// (round-robin node placement, 5 ms lookahead window). Shard counts > 1
/// have their own timelines — per-shard RNG streams and event sequencing
/// differ from the sequential interleaving — but the determinism contract
/// is identical: a fixed `(scenario, seed, shards)` replays bit-for-bit
/// (digest, verdict, finish time, retry counters, pool sums), never hangs
/// past `RUN_DEADLINE`, never panics.
#[test]
fn chaos_corpus_is_deterministic_at_four_shards() {
    let corpus = chaos::corpus();
    let mut completed = 0usize;
    for &(scenario, seed) in &corpus {
        let first = chaos::run_sharded(scenario, seed, 4);
        let second = chaos::run_sharded(scenario, seed, 4);
        assert_eq!(
            first, second,
            "non-deterministic 4-shard chaos run — seed {seed:#018x} \
             scenario {}:\n  first : {}\n  second: {}",
            scenario.name(),
            first.report(),
            second.report(),
        );
        if first.verdict == ChaosVerdict::Completed {
            completed += 1;
        }
    }
    // The sharded engine must not make the corpus materially harder to
    // survive: most schedules still complete.
    assert!(
        completed >= corpus.len() / 2,
        "4-shard corpus mostly failing: {completed}/{} completed",
        corpus.len(),
    );
}

/// Recoverable schedules must actually use the retry machinery: across the
/// corpus, some run reconnects and replays an in-flight command.
#[test]
fn chaos_corpus_exercises_reconnect_and_replay() {
    let mut reconnects = 0u32;
    let mut replays = 0u32;
    for &(scenario, seed) in &chaos::corpus() {
        let out = chaos::run(scenario, seed);
        reconnects += out.stats.connects.saturating_sub(1);
        replays += out.stats.replays;
    }
    assert!(reconnects > 0, "no corpus schedule forced a reconnect");
    assert!(replays > 0, "no corpus schedule forced a command replay");
}

struct SmallWorld {
    net: Rc<RefCell<SimNet>>,
    ctrl_node: plab_netsim::NodeId,
    ep_node: plab_netsim::NodeId,
    ep_addr: std::net::Ipv4Addr,
    operator: Keypair,
}

/// controller ──(10ms)── endpoint, with session lingering enabled.
fn small_world(linger_ns: u64) -> SmallWorld {
    let operator = Keypair::from_seed(&[9; 32]);
    let mut t = TopologyBuilder::new();
    let c = t.host("controller", "10.9.0.1".parse().unwrap());
    let e = t.host("endpoint", "10.0.0.1".parse().unwrap());
    t.link(c, e, LinkParams::new(10, 0));
    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        e,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            session_linger_ns: linger_ns,
            ..Default::default()
        },
    );
    SmallWorld {
        net: Rc::new(RefCell::new(net)),
        ctrl_node: c,
        ep_node: e,
        ep_addr: "10.0.0.1".parse().unwrap(),
        operator,
    }
}

fn small_creds(w: &SmallWorld) -> Credentials {
    let experimenter = Keypair::from_seed(&[44; 32]);
    let descriptor = ExperimentDescriptor {
        name: "chaos-unit".into(),
        controller_addr: "10.9.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    Credentials::issue(&w.operator, &experimenter, descriptor, Restrictions::none(), 10)
}

/// Mid-experiment control-channel death (TCP reset on the endpoint) must
/// be invisible to the experiment: the controller reconnects with backoff,
/// re-authenticates, resumes the lingering session, and replays the
/// in-flight command — endpoint state (memory, sockets) survives.
#[test]
fn control_disconnect_mid_experiment_recovers_by_replay() {
    let w = small_world(60 * SECOND);
    let creds = small_creds(&w);
    let dialer = SimDialer::new(&w.net, w.ctrl_node, w.ep_addr);
    let mut ctrl = RobustController::connect(dialer, creds, chaos::chaos_policy(0xfeed))
        .expect("initial connect");

    // Establish endpoint-side state that must survive the disconnect.
    ctrl.mwrite(0x40, vec![1, 2, 3, 4]).unwrap();
    ctrl.nopen_udp(3, 7000, "10.9.0.1".parse().unwrap(), 7001).unwrap();

    // Kill every TCP connection on the endpoint mid-experiment.
    let at = ControlPlane::now(&ctrl) + 50 * MILLISECOND;
    w.net
        .borrow_mut()
        .sim
        .schedule_fault(at, FaultAction::TcpReset { node: w.ep_node.0 });
    w.net.borrow_mut().run_until(at + MILLISECOND);

    // The next operations ride the replay path; state is intact.
    assert_eq!(ctrl.mread(0x40, 4).unwrap(), vec![1, 2, 3, 4]);
    ctrl.nsend(3, 0, vec![0xaa]).unwrap();
    ctrl.nclose(3).unwrap();
    assert!(ctrl.stats.connects >= 2, "no reconnect happened: {:?}", ctrl.stats);
    assert!(ctrl.stats.replays >= 1, "no command was replayed: {:?}", ctrl.stats);
}

/// Without lingering (`session_linger_ns = 0`), the reconnect still
/// succeeds — but as a fresh session: endpoint sockets are gone and the
/// controller sees a typed endpoint error, not a hang.
#[test]
fn control_disconnect_without_linger_is_a_typed_error() {
    let w = small_world(0);
    let creds = small_creds(&w);
    let dialer = SimDialer::new(&w.net, w.ctrl_node, w.ep_addr);
    let mut ctrl = RobustController::connect(dialer, creds, chaos::chaos_policy(0xfeed))
        .expect("initial connect");
    ctrl.nopen_udp(3, 7000, "10.9.0.1".parse().unwrap(), 7001).unwrap();

    let at = ControlPlane::now(&ctrl) + 50 * MILLISECOND;
    w.net
        .borrow_mut()
        .sim
        .schedule_fault(at, FaultAction::TcpReset { node: w.ep_node.0 });
    w.net.borrow_mut().run_until(at + MILLISECOND);

    // The socket did not survive: typed endpoint error, session is fresh.
    match ctrl.nsend(3, 0, vec![0xaa]) {
        Err(ControllerError::Endpoint(..)) => {}
        other => panic!("expected endpoint error on dead socket, got {other:?}"),
    }
    assert!(ctrl.stats.connects >= 2);
}

/// DESIGN deviation 12: a fresh controller that adopts its predecessor's
/// lingering session numbers from 1 again. Today its `mwrite` is answered
/// from the predecessor's replay cache and never runs.
#[test]
#[ignore = "known defect (DESIGN deviation 12): a fresh controller that adopts its \
            predecessor's lingering session is answered from the predecessor's replay \
            cache; fixing it needs the handshake to carry seq state"]
fn a_fresh_controller_is_not_answered_from_its_predecessors_cache() {
    for plain in [true, false] {
        let w = small_world(30 * SECOND);
        let creds = small_creds(&w);
        let robust = || {
            let dialer = SimDialer::new(&w.net, w.ctrl_node, w.ep_addr);
            RobustController::connect(dialer, creds.clone(), chaos::chaos_policy(0xfeed))
                .expect("connect")
        };
        let mut a = robust();
        for _ in 0..3 {
            a.mwrite(64, vec![1]).unwrap();
        }
        a.mread(64, 1).unwrap();
        drop(a);
        let read = if plain {
            let chan = SimChannel::connect(&w.net, w.ctrl_node, w.ep_addr);
            let mut b = Controller::connect(chan, &creds).expect("connect");
            b.mwrite(64, vec![2]).and_then(|()| b.mread(64, 1))
        } else {
            let mut b = robust();
            b.mwrite(64, vec![2]).and_then(|()| b.mread(64, 1))
        };
        assert_eq!(read, Ok(vec![2]), "plain: {plain}");
    }
}

/// An endpoint that crashes and never restarts must surface as
/// [`ControllerError::Unreachable`] within the policy's budget — the
/// clean-abort path with partial results, in bounded virtual time.
#[test]
fn crash_without_restart_aborts_within_budget() {
    let w = small_world(60 * SECOND);
    let creds = small_creds(&w);
    let dialer = SimDialer::new(&w.net, w.ctrl_node, w.ep_addr);
    let policy = chaos::chaos_policy(0xdead);
    let mut ctrl =
        RobustController::connect(dialer, creds, policy).expect("initial connect");
    // Partial results exist before the crash.
    let clock_before = ctrl.read_clock().expect("pre-crash op succeeds");
    assert!(clock_before > 0);

    let at = ControlPlane::now(&ctrl) + 50 * MILLISECOND;
    w.net
        .borrow_mut()
        .sim
        .schedule_fault(at, FaultAction::NodeCrash { node: w.ep_node.0 });
    w.net.borrow_mut().run_until(at + MILLISECOND);

    let start = ControlPlane::now(&ctrl);
    match ctrl.read_clock() {
        Err(ControllerError::Unreachable { elapsed_ns, connects, failed_dials, .. }) => {
            assert!(elapsed_ns >= policy.unreachable_budget);
            // The abort carries retry context: the initial connect
            // succeeded, and the dead endpoint produced failed dials.
            assert!(connects >= 1);
            assert!(failed_dials >= 1);
        }
        other => panic!("expected Unreachable, got {other:?}"),
    }
    let spent = ControlPlane::now(&ctrl) - start;
    // Bounded: budget plus at most one request timeout and one backoff.
    assert!(
        spent <= policy.unreachable_budget + policy.request_timeout + 2 * policy.max_backoff,
        "abort took {spent} ns, budget was {}",
        policy.unreachable_budget,
    );
    // Exactly: under `SimDialer` a failed dial steps the world up to its
    // 10 s handshake grace, and dropping the half-open channel runs 1 s
    // more, so three dials fill the 25 s budget. `plab-runner`'s
    // `fleet_chaos` pins the same crash under the fleet's dial.
    let stats = RetryStats { connects: 1, failed_dials: 3, timeouts: 1, replays: 0, suspended_waits: 0 };
    assert_eq!(ctrl.stats, stats);
    assert_eq!((start, ControlPlane::now(&ctrl)), (131_000_000, 29_541_000_000));
}

/// Two experiments multiplexed on one endpoint under a fixed fault
/// schedule: the high-priority controller preempts, a TCP reset kills
/// every control channel mid-run, the in-control experiment recovers by
/// replay, the suspended one burns its fresh-seq retry budget into a
/// typed `Suspended` refusal, and — after a yield — resumes with its
/// endpoint state intact. The whole observable trace must be
/// bit-identical across two consecutive runs.
#[test]
fn multiplexed_sessions_under_faults_are_deterministic() {
    plab_obs::enable();
    plab_obs::reset();
    fn run() -> String {
        let w = small_world(60 * SECOND);
        let lo_creds = small_creds(&w); // priority 10
        let experimenter = Keypair::from_seed(&[45; 32]);
        let descriptor = ExperimentDescriptor {
            name: "chaos-mux".into(),
            controller_addr: "10.9.0.1:7000".into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        };
        let hi_creds =
            Credentials::issue(&w.operator, &experimenter, descriptor, Restrictions::none(), 50);

        let dialer = SimDialer::new(&w.net, w.ctrl_node, w.ep_addr);
        let mut lo = RobustController::connect(dialer, lo_creds, chaos::chaos_policy(0xbead))
            .expect("low-priority connect");
        lo.mwrite(0x40, vec![1, 2, 3, 4]).unwrap();

        let dialer = SimDialer::new(&w.net, w.ctrl_node, w.ep_addr);
        let mut hi = RobustController::connect(dialer, hi_creds, chaos::chaos_policy(0xbeae))
            .expect("high-priority connect");
        hi.read_clock().unwrap(); // preempts lo

        // Mid-run fault: every endpoint TCP connection resets.
        let at = ControlPlane::now(&hi) + 50 * MILLISECOND;
        w.net
            .borrow_mut()
            .sim
            .schedule_fault(at, FaultAction::TcpReset { node: w.ep_node.0 });
        w.net.borrow_mut().run_until(at + MILLISECOND);

        // The in-control experiment rides the reconnect + replay path.
        let t_hi = hi.read_clock().unwrap();

        // The suspended experiment retries with fresh sequence numbers
        // (same-seq retries would only replay the cached refusal), then
        // surfaces the typed refusal once its budget is spent.
        let denied = match lo.read_clock() {
            Err(ControllerError::Endpoint(code, _)) => format!("{code:?}"),
            other => panic!("suspended experiment must see a typed refusal, got {other:?}"),
        };

        // Control returns; the suspended experiment resumes with the
        // state it wrote before preemption and the reset.
        hi.yield_endpoint().unwrap();
        let mem = lo.mread(0x40, 4).unwrap();
        assert!(lo.stats.connects >= 2, "reset must force a reconnect: {:?}", lo.stats);
        assert!(lo.stats.suspended_waits >= 1, "lo never backed off suspended: {:?}", lo.stats);
        format!(
            "hi_clock={t_hi} denied={denied} mem={mem:?} end={} lo={:?} hi={:?}",
            ControlPlane::now(&lo),
            lo.stats,
            hi.stats,
        )
    }
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "multiplexed fault schedule diverged:\n  first : {first}\n  second: {second}"
    );
    assert!(
        plab_obs::metrics::counter("controller.suspended_waits") >= 1,
        "the suspended-backoff retry machinery never engaged"
    );
}

/// A link flap during the §4 uplink-bandwidth experiment: the control
/// channel dies and comes back; the experiment completes end to end.
#[test]
fn bandwidth_survives_control_link_flap() {
    let out = chaos::run(Scenario::Bandwidth, 0x5eed_0000);
    // This specific seed's outcome is pinned by the corpus determinism
    // test; here we only require the contract.
    assert!(out.finished_at <= chaos::RUN_DEADLINE);
}
