//! Pinned fleet report digests: any change to scheduler interleaving,
//! report formatting, wire encoding, or simulator event order shows up
//! here as a digest mismatch.
//!
//! To re-pin after an *intentional* behaviour change:
//! `cargo test -p plab-runner --test determinism_regression -- --ignored --nocapture`
//! and paste the printed values.

use plab_crypto::Keypair;
use plab_netsim::roster::RosterSpec;
use plab_runner::{
    build_fleet, run_fleet, schedule_fleet_faults, ExperimentSpec, FleetFaultPlan, FleetRun,
    RateLimit, SchedulerConfig,
};

/// Digest of the 64-pair clean ping fleet (no faults).
const PINNED_CLEAN_DIGEST: u64 = 0x48fb_c957_6d6a_0e0e;

/// Digest of the 64-pair fleet under the crash/burst-loss plan.
const PINNED_CHAOS_DIGEST: u64 = 0xfdc6_05d3_229c_953f;

fn pinned_run(with_faults: bool) -> FleetRun {
    let operator = Keypair::from_seed(&[21; 32]);
    let experimenter = Keypair::from_seed(&[22; 32]);
    let roster = RosterSpec {
        pairs: 64,
        shards: 4,
        threads: 1,
        seed: 1234,
        access_mbps: 0,
    };
    let mut world = build_fleet(&roster, &operator);
    if with_faults {
        let plan = FleetFaultPlan {
            start_ns: plab_netsim::SECOND / 2,
            spread_ns: 2 * plab_netsim::SECOND,
            downtime_ns: plab_netsim::SECOND,
            ..Default::default()
        };
        schedule_fleet_faults(&mut world, &plan);
    }
    let spec = ExperimentSpec::ping("fleet-pin");
    let config = SchedulerConfig {
        max_concurrency: 16,
        launch: RateLimit::per_sec(50, 4),
        fleet_deadline_ns: Some(120 * plab_netsim::SECOND),
        ..Default::default()
    };
    run_fleet(world, &spec, &operator, &experimenter, &config).expect("valid spec")
}

#[test]
fn clean_fleet_digest_is_pinned() {
    let r = pinned_run(false);
    assert_eq!(
        r.report.digest, PINNED_CLEAN_DIGEST,
        "clean fleet report changed: got {:#018x}. If intentional, re-pin via the \
         ignored capture test.",
        r.report.digest
    );
}

#[test]
fn chaos_fleet_digest_is_pinned() {
    let r = pinned_run(true);
    assert_eq!(
        r.report.digest, PINNED_CHAOS_DIGEST,
        "chaos fleet report changed: got {:#018x}. If intentional, re-pin via the \
         ignored capture test.",
        r.report.digest
    );
}

/// The tasks run on the calling thread, so its `plab_obs` switch reaches
/// the controller library inside them: the pins hold with it on (the
/// flight-recorder tail an `Unreachable` abort carries then interleaves
/// tasks, and stays out of the report), and the retry counters read what
/// the per-task stats sum to instead of 0.
#[test]
fn pinned_digests_hold_with_obs_on_and_the_controller_is_counted() {
    plab_obs::enable();
    plab_obs::reset();
    let clean = pinned_run(false);
    assert_eq!(
        clean.report.digest, PINNED_CLEAN_DIGEST,
        "obs changed the clean report"
    );
    plab_obs::reset();
    let chaos = pinned_run(true);
    plab_obs::disable();
    assert_eq!(
        chaos.report.digest, PINNED_CHAOS_DIGEST,
        "obs changed the chaos report"
    );
    type Stat = fn(&packetlab::controller::robust::RetryStats) -> u32;
    let stats: [(&str, Stat); 3] = [
        ("controller.connects", |s| s.connects),
        ("controller.timeouts", |s| s.timeouts),
        ("controller.replays", |s| s.replays),
    ];
    for (name, stat) in stats {
        let counted = plab_obs::metrics::counter(name);
        let summed: u64 = chaos
            .results
            .iter()
            .map(|t| u64::from(stat(&t.stats)))
            .sum();
        assert!(counted > 0, "{name} is dark in the chaos fleet");
        assert_eq!(counted, summed, "{name} disagrees with the per-task stats");
    }
}

/// Not a regression test: prints paste-ready pin values.
#[test]
#[ignore]
fn capture_fleet_digests() {
    let clean = pinned_run(false);
    let chaos = pinned_run(true);
    println!(
        "const PINNED_CLEAN_DIGEST: u64 = {:#018x};",
        clean.report.digest
    );
    println!(
        "const PINNED_CHAOS_DIGEST: u64 = {:#018x};",
        chaos.report.digest
    );
}
