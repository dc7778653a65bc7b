//! Fleet chaos: a 512-endpoint roster under crash/restart and burst-loss
//! fault schedules. The run must account for every endpoint exactly, and
//! the report must replay bit-identically — chaos included.

use packetlab::controller::robust::RetryStats;
use plab_crypto::Keypair;
use plab_netsim::roster::RosterSpec;
use plab_runner::{
    build_fleet, run_fleet, schedule_fleet_faults, ExperimentSpec, FleetFaultPlan, FleetRun,
    Outcome, Program, RateLimit, SchedulerConfig,
};

fn chaos_run(pairs: usize, shards: usize, threads: usize) -> FleetRun {
    let operator = Keypair::from_seed(&[7; 32]);
    let experimenter = Keypair::from_seed(&[8; 32]);
    let roster = RosterSpec {
        pairs,
        shards,
        threads,
        seed: 99,
        access_mbps: 0,
    };
    let mut world = build_fleet(&roster, &operator);
    // Fault onsets must overlap the launch schedule below (~pairs/100 s of
    // launches) or the chaos never bites a live task.
    let plan = FleetFaultPlan {
        start_ns: plab_netsim::SECOND / 2,
        spread_ns: 4 * plab_netsim::SECOND,
        downtime_ns: 2 * plab_netsim::SECOND,
        ..Default::default()
    };
    schedule_fleet_faults(&mut world, &plan);
    let spec = ExperimentSpec::ping("fleet-chaos");
    let config = SchedulerConfig {
        max_concurrency: 64,
        launch: RateLimit::per_sec(100, 8),
        fleet_deadline_ns: Some(120 * plab_netsim::SECOND),
        ..Default::default()
    };
    run_fleet(world, &spec, &operator, &experimenter, &config).expect("valid spec")
}

#[test]
fn chaos_fleet_accounts_for_every_endpoint() {
    let r = chaos_run(512, 4, 1);
    assert_eq!(r.results.len(), 512);
    let completed = r
        .results
        .iter()
        .filter(|t| t.outcome == Outcome::Completed)
        .count();
    let failed = r
        .results
        .iter()
        .filter(|t| t.outcome == Outcome::Failed)
        .count();
    let aborted = r
        .results
        .iter()
        .filter(|t| t.outcome == Outcome::Aborted)
        .count();
    assert_eq!(completed + failed + aborted, 512, "exact accounting");
    // Crashes hit 1/8 of the fleet; the rest must complete. Crashed
    // endpoints restart after 3 s, within the retry budget, so most of
    // those recover too — but none may vanish.
    assert!(completed >= 512 - 64, "too few completions: {completed}");
    // The fault schedule must actually bite: the retry machinery sees it.
    let retries: u64 = r
        .results
        .iter()
        .map(|t| t.stats.failed_dials as u64 + t.stats.timeouts as u64 + t.stats.replays as u64)
        .sum();
    assert!(retries > 0, "chaos schedule produced no retries");
    // Every result index matches its endpoint.
    for (i, t) in r.results.iter().enumerate() {
        assert_eq!(t.endpoint, i);
    }
}

#[test]
fn chaos_replay_is_bit_identical() {
    let a = chaos_run(512, 4, 1);
    let b = chaos_run(512, 4, 1);
    assert_eq!(
        a.report.digest, b.report.digest,
        "digests diverge under chaos"
    );
    assert_eq!(
        a.report.events, b.report.events,
        "event streams diverge under chaos"
    );
    assert_eq!(a.report.summary, b.report.summary);
}

#[test]
fn chaos_report_is_thread_count_invariant() {
    // The sharded world's windowed advance must not leak thread-count
    // nondeterminism into the fleet report.
    let seq = chaos_run(128, 4, 1);
    let par = chaos_run(128, 4, 2);
    assert_eq!(
        seq.report.digest, par.report.digest,
        "threads changed the report"
    );
    assert_eq!(seq.report.events, par.report.events);
}

/// One pair whose endpoint host crashes for good mid-run: the task's
/// every redial fails, and it ends `unreachable` once the retry budget is
/// spent. Pins the exact retry counters and the abort instant, which only
/// the fleet's dial decides (a failed dial closes its half-open
/// connection and advances no time); `tests/chaos.rs` pins the same under
/// the harness's `SimDialer`.
#[test]
fn a_crashed_endpoint_costs_the_fleet_exact_failed_dials() {
    let operator = Keypair::from_seed(&[7; 32]);
    let experimenter = Keypair::from_seed(&[8; 32]);
    let roster = RosterSpec {
        pairs: 1,
        shards: 1,
        threads: 1,
        seed: 99,
        access_mbps: 0,
    };
    let mut world = build_fleet(&roster, &operator);
    let node = world.pairs[0].endpoint.0;
    let crash = plab_netsim::FaultAction::NodeCrash { node };
    world.net.sim.schedule_fault(plab_netsim::SECOND, crash);
    let mut spec = ExperimentSpec::ping("fleet-crash");
    spec.program = Program::Ping {
        count: 100,
        interval_ns: 50_000_000,
        payload_len: 8,
    };
    let config = SchedulerConfig::default();
    let run = run_fleet(world, &spec, &operator, &experimenter, &config).expect("valid spec");
    let t = &run.results[0];
    assert_eq!(
        (t.outcome, t.cause.as_deref()),
        (Outcome::Failed, Some("unreachable"))
    );
    let stats = RetryStats {
        connects: 1,
        failed_dials: 6,
        timeouts: 1,
        replays: 0,
        suspended_waits: 0,
    };
    assert_eq!(t.stats, stats);
    assert_eq!((t.started_ns, t.finished_ns), (0, 68_246_230_118));
}
