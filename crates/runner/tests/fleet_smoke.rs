//! Fleet executor smoke tests: small rosters, every program kind, exact
//! outcome accounting, and replay bit-identity without faults.

use plab_crypto::Keypair;
use plab_netsim::roster::RosterSpec;
use plab_netsim::{FaultAction, SECOND};
use plab_runner::{
    build_fleet, run_fleet, ExperimentSpec, FleetRun, Outcome, Program, RateLimit, SchedulerConfig,
};

fn run(spec: &ExperimentSpec, roster: &RosterSpec, config: &SchedulerConfig) -> FleetRun {
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let world = build_fleet(roster, &operator);
    run_fleet(world, spec, &operator, &experimenter, config).expect("spec is valid")
}

fn small_roster() -> RosterSpec {
    RosterSpec {
        pairs: 8,
        shards: 2,
        threads: 1,
        seed: 42,
        access_mbps: 0,
    }
}

#[test]
fn ping_fleet_completes_every_endpoint() {
    let r = run(
        &ExperimentSpec::ping("smoke-ping"),
        &small_roster(),
        &SchedulerConfig {
            max_concurrency: 4,
            ..Default::default()
        },
    );
    assert_eq!(r.results.len(), 8);
    for t in &r.results {
        assert_eq!(
            t.outcome,
            Outcome::Completed,
            "endpoint {}: {:?}",
            t.endpoint,
            t.cause
        );
        match t.detail {
            plab_runner::Detail::Ping {
                sent,
                replies,
                min_rtt,
                ..
            } => {
                assert_eq!(sent, 2);
                assert_eq!(replies, 2);
                assert!(min_rtt > 0, "4-hop path has nonzero RTT");
            }
            ref other => panic!("unexpected detail {other:?}"),
        }
    }
}

#[test]
fn traceroute_fleet_reaches_across_pods() {
    let spec = ExperimentSpec {
        program: Program::Traceroute { max_ttl: 8 },
        ..ExperimentSpec::ping("smoke-trace")
    };
    let r = run(&spec, &small_roster(), &SchedulerConfig::default());
    for t in &r.results {
        assert_eq!(
            t.outcome,
            Outcome::Completed,
            "endpoint {}: {:?}",
            t.endpoint,
            t.cause
        );
        match t.detail {
            plab_runner::Detail::Traceroute { hops, reached } => {
                assert!(
                    reached,
                    "endpoint {} never reached its controller",
                    t.endpoint
                );
                // endpoint → epod → core → cpod → controller = 4 hops.
                assert_eq!(hops, 4, "endpoint {}", t.endpoint);
            }
            ref other => panic!("unexpected detail {other:?}"),
        }
    }
}

#[test]
fn bandwidth_fleet_measures_finite_access_links() {
    // δ must cover command delivery: the eight `nsend`s reach the endpoint
    // one stop-and-wait round trip apart, and any that land after t₀ + δ
    // leave at the control channel's pace (a 2 ms lead read 343 kbit/s
    // here).
    let spec = ExperimentSpec {
        program: Program::Bandwidth {
            sink_port: 7000,
            packets: 8,
            payload_len: 512,
            delay_ns: 500_000_000,
        },
        ..ExperimentSpec::ping("smoke-bw")
    };
    let roster = RosterSpec {
        access_mbps: 10,
        ..small_roster()
    };
    let r = run(
        &spec,
        &roster,
        &SchedulerConfig {
            max_concurrency: 2,
            ..Default::default()
        },
    );
    for t in &r.results {
        assert_eq!(
            t.outcome,
            Outcome::Completed,
            "endpoint {}: {:?}",
            t.endpoint,
            t.cause
        );
        match t.detail {
            plab_runner::Detail::Bandwidth {
                received,
                kbits_per_sec,
                dispersion_kbits_per_sec,
                ..
            } => {
                assert_eq!(received, 8, "endpoint {}", t.endpoint);
                // Both folds of the burst over the clean 10 Mbit/s access
                // link land inside 20 % of it.
                for kbits in [kbits_per_sec, dispersion_kbits_per_sec] {
                    assert!(
                        (8_000..=12_000).contains(&kbits),
                        "endpoint {}: {kbits_per_sec} (first/last) and \
                         {dispersion_kbits_per_sec} (dispersion) kbit/s vs 10 Mbit/s truth",
                        t.endpoint
                    );
                }
            }
            ref other => panic!("unexpected detail {other:?}"),
        }
    }
}

#[test]
fn monitored_fleet_installs_cpf_monitor() {
    // A pass-through monitor: the experiment must still complete, proving
    // the Cpf program rode the certificate chain into every endpoint.
    let spec = ExperimentSpec {
        monitor: Some(
            "uint32_t send(const union packet * pkt, uint32_t len) { return len; }\n\
             uint32_t recv(const union packet * pkt, uint32_t len) { return len; }"
                .into(),
        ),
        ..ExperimentSpec::ping("smoke-monitored")
    };
    let r = run(&spec, &small_roster(), &SchedulerConfig::default());
    for t in &r.results {
        assert_eq!(
            t.outcome,
            Outcome::Completed,
            "endpoint {}: {:?}",
            t.endpoint,
            t.cause
        );
    }
}

#[test]
fn rate_limits_stretch_the_schedule() {
    let fast = run(
        &ExperimentSpec::ping("smoke-fast"),
        &small_roster(),
        &SchedulerConfig::default(),
    );
    let slow = run(
        &ExperimentSpec::ping("smoke-slow"),
        &small_roster(),
        &SchedulerConfig {
            // 1 launch/sec with burst 1: 8 endpoints take ≥ 7 virtual s.
            launch: RateLimit::per_sec(1, 1),
            ..Default::default()
        },
    );
    for t in &slow.results {
        assert_eq!(
            t.outcome,
            Outcome::Completed,
            "endpoint {}: {:?}",
            t.endpoint,
            t.cause
        );
    }
    assert!(
        slow.end_ns >= fast.end_ns + 6 * plab_netsim::SECOND,
        "launch limiter must stretch the run: fast={} slow={}",
        fast.end_ns,
        slow.end_ns
    );
}

#[test]
fn fleet_deadline_aborts_exactly() {
    let r = run(
        &ExperimentSpec::ping("smoke-deadline"),
        &small_roster(),
        &SchedulerConfig {
            launch: RateLimit::per_sec(1, 1),
            // Deep in the stretched schedule: some done, some cut off.
            fleet_deadline_ns: Some(3 * plab_netsim::SECOND),
            ..Default::default()
        },
    );
    let completed = r
        .results
        .iter()
        .filter(|t| t.outcome == Outcome::Completed)
        .count();
    let aborted = r
        .results
        .iter()
        .filter(|t| t.outcome == Outcome::Aborted)
        .count();
    let failed = r
        .results
        .iter()
        .filter(|t| t.outcome == Outcome::Failed)
        .count();
    assert_eq!(completed + aborted + failed, 8, "exact accounting");
    assert!(completed > 0, "some endpoints finish before the deadline");
    assert!(aborted > 0, "some endpoints are cut off");
    for t in r.results.iter().filter(|t| t.outcome == Outcome::Aborted) {
        assert_eq!(t.cause.as_deref(), Some("fleet-deadline"));
    }
}

#[test]
fn zero_concurrency_is_rejected_not_spun_on() {
    // With no task ever allowed in flight nothing is launched, nothing
    // parks and nothing has a deadline: the run would spin forever.
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let world = build_fleet(&small_roster(), &operator);
    let config = SchedulerConfig {
        max_concurrency: 0,
        ..Default::default()
    };
    let refused = run_fleet(
        world,
        &ExperimentSpec::ping("smoke-zero"),
        &operator,
        &experimenter,
        &config,
    );
    assert!(refused.is_err_and(|e| e.contains("max_concurrency")));
}

#[test]
fn replay_is_bit_identical() {
    let spec = ExperimentSpec::ping("smoke-replay");
    let config = SchedulerConfig {
        max_concurrency: 3,
        launch: RateLimit::per_sec(50, 2),
        ..Default::default()
    };
    let a = run(&spec, &small_roster(), &config);
    let b = run(&spec, &small_roster(), &config);
    assert_eq!(a.report.digest, b.report.digest, "digests diverge");
    assert_eq!(a.report.events, b.report.events, "event streams diverge");
    assert_eq!(a.report.summary, b.report.summary, "summaries diverge");
    assert_eq!(a.report.json_seq(), b.report.json_seq());
}

#[test]
fn wake_probes_follow_signals_not_iterations() {
    // A parked task is probed when its node was serviced or a deadline of
    // its came due, and each poll (one per launch and per wait that came
    // true) answers at most a couple of such signals. Re-probing every
    // parked task on every scheduler iteration (the 64-pair fleet keeps
    // dozens in flight) costs hundreds of probes per poll.
    plab_obs::enable();
    plab_obs::reset();
    let roster = RosterSpec {
        pairs: 64,
        shards: 2,
        threads: 1,
        seed: 42,
        access_mbps: 0,
    };
    let r = run(
        &ExperimentSpec::ping("smoke-wake"),
        &roster,
        &SchedulerConfig::default(),
    );
    plab_obs::disable();
    assert!(r.results.iter().all(|t| t.outcome == Outcome::Completed));
    let probes = plab_obs::metrics::counter("runner.wake_probes");
    let polls = plab_obs::metrics::counter("runner.task_polls");
    // The launch, the dial, and at least the handshake's and two probes'
    // replies.
    assert!(polls >= 64 * 10, "task polls not counted: {polls}");
    assert!(
        probes <= 2 * polls,
        "{probes} wake probes for {polls} task polls"
    );
}

#[test]
fn controller_host_reset_wakes_its_task_at_the_reset() {
    // The reset wipes the controller host's connections with no packet
    // delivered to it. The task parked on one of them must see the close
    // then — not when the endpoint's next segment or its own request
    // timeout happens to stir the node.
    let operator = Keypair::from_seed(&[1; 32]);
    let experimenter = Keypair::from_seed(&[2; 32]);
    let mut world = build_fleet(&small_roster(), &operator);
    let (victim, reset_at) = (3, SECOND / 4);
    let node = world.pairs[victim].controller.0;
    world
        .net
        .sim
        .schedule_fault(reset_at, FaultAction::TcpReset { node });
    let spec = ExperimentSpec {
        // One probe a second: at the reset the task is mid-session,
        // parked in a recv that nothing will answer for a long while.
        program: Program::Ping {
            count: 2,
            interval_ns: SECOND,
            payload_len: 8,
        },
        ..ExperimentSpec::ping("smoke-ctrl-reset")
    };
    plab_obs::enable();
    plab_obs::reset();
    let r = run_fleet(
        world,
        &spec,
        &operator,
        &experimenter,
        &SchedulerConfig::default(),
    )
    .expect("spec is valid");
    plab_obs::disable();
    for t in &r.results {
        assert_eq!(
            t.outcome,
            Outcome::Completed,
            "endpoint {}: {:?}",
            t.endpoint,
            t.cause
        );
        let hit = t.endpoint == victim;
        // The close surfaces through the controller's timeout path, then
        // one redial resumes the lingering session.
        assert_eq!(
            (t.stats.timeouts, t.stats.connects),
            (hit as u32, 1 + hit as u32)
        );
    }
    assert!(r.results[victim].started_ns < reset_at);
    // The endpoint stamps the re-authentication that adopts the lingering
    // session: a dial and an Auth after the reset, two round trips.
    let resumes: Vec<u64> = plab_obs::tail_for(plab_obs::Component::Endpoint, usize::MAX)
        .iter()
        .filter(|e| e.name == "session.resume")
        .map(|e| e.t)
        .collect();
    assert_eq!(resumes.len(), 1, "{resumes:?}");
    assert!(
        (reset_at..reset_at + SECOND / 10).contains(&resumes[0]),
        "session resumed at {} ns, reset at {reset_at} ns",
        resumes[0]
    );
}
