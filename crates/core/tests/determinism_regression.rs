//! Determinism regression pins for the netsim hot-path overhaul.
//!
//! The timer-wheel scheduler, pooled zero-copy frames, and FxHash maps
//! all sit on paths that feed the chaos corpus digests. Their shared
//! contract is that none of them is allowed to change observable
//! behaviour: the wheel pops in exact `(time, seq)` order, copy-on-write
//! produces the same bytes a fresh buffer would, and hash-map iteration
//! order is never consulted on a digested path. These tests pin concrete
//! digest values captured *before* the overhaul so any future scheduler
//! or buffer-management change that shifts event order, timestamps, or
//! packet bytes fails loudly here rather than silently invalidating
//! recorded experiments.

use packetlab::chaos::{self, ChaosVerdict, Scenario};

/// Digest of the §4-style traceroute schedule at the corpus base seed,
/// captured from the `BinaryHeap` scheduler before the timer-wheel swap.
const TRACEROUTE_BASE_DIGEST: u64 = 0x6c76_7bdc_b133_64f4;
/// Bandwidth scenario at the base seed, same provenance; re-pinned when
/// the harness driver's data wait came to end at a close (EXPERIMENTS
/// G18).
const BANDWIDTH_BASE_DIGEST: u64 = 0x330d_d781_e245_03f8;
/// Conformance scenario at the base seed, same provenance.
const CONFORMANCE_BASE_DIGEST: u64 = 0x1901_1287_d862_c52f;

/// The corpus base seed (`chaos::corpus` spreads the rest from it).
const BASE_SEED: u64 = 0x5eed_0000;

#[test]
fn traceroute_digest_is_pinned() {
    let out = chaos::run(Scenario::Traceroute, BASE_SEED);
    assert_eq!(
        out.digest,
        TRACEROUTE_BASE_DIGEST,
        "traceroute digest drifted — scheduler/pool/hashing changed \
         observable behaviour: {}",
        out.report()
    );
}

#[test]
fn bandwidth_digest_is_pinned() {
    let out = chaos::run(Scenario::Bandwidth, BASE_SEED);
    assert_eq!(
        out.digest,
        BANDWIDTH_BASE_DIGEST,
        "bandwidth digest drifted: {}",
        out.report()
    );
}

#[test]
fn conformance_digest_is_pinned() {
    let out = chaos::run(Scenario::Conformance, BASE_SEED);
    assert_eq!(
        out.digest,
        CONFORMANCE_BASE_DIGEST,
        "conformance digest drifted: {}",
        out.report()
    );
}

/// Same (scenario, seed) twice → identical outcome, including the new
/// pool counters. Complements the pins above: the pins catch drift
/// across code changes, this catches nondeterminism within one build.
#[test]
fn repeated_runs_are_bit_identical() {
    for (scenario, seed) in [
        (Scenario::Traceroute, BASE_SEED),
        (Scenario::Bandwidth, BASE_SEED + 0x9111),
    ] {
        let a = chaos::run(scenario, seed);
        let b = chaos::run(scenario, seed);
        assert_eq!(
            a,
            b,
            "nondeterministic outcome for {} seed {seed:#x}",
            scenario.name()
        );
    }
}

/// The pinned runs must actually complete — a digest that matches but
/// comes from an aborted run would mean the pin is testing the wrong
/// thing.
#[test]
fn pinned_runs_complete() {
    for scenario in [
        Scenario::Traceroute,
        Scenario::Bandwidth,
        Scenario::Conformance,
    ] {
        let out = chaos::run(scenario, BASE_SEED);
        assert_eq!(out.verdict, ChaosVerdict::Completed, "{}", out.report());
    }
}

// ---------------------------------------------------------------------
// Sharded-world pins. A 1-shard world IS the sequential engine (asserted
// by `sharded_single_equals_sequential` against the same pins above); at
// N > 1 shards per-shard RNG streams and event sequencing legitimately
// differ from the sequential interleaving, so each (scenario, shards)
// pair gets its own pinned digest. Any change that perturbs the window
// math, the outbox merge order, or cross-shard seq allocation trips
// these.
// ---------------------------------------------------------------------

/// Pinned digests at `BASE_SEED` for shard counts 2, 4, 8, captured when
/// conservative-lookahead sharding landed: `[(shards, digest); 3]` per
/// scenario.
const TRACEROUTE_SHARD_DIGESTS: [(usize, u64); 3] = [
    (2, 0x6c76_7bdc_b133_64f4),
    (4, 0x6c76_7bdc_b133_64f4),
    (8, 0x6c76_7bdc_b133_64f4),
];
const BANDWIDTH_SHARD_DIGESTS: [(usize, u64); 3] = [
    (2, 0x330d_d781_e245_03f8),
    (4, 0x9634_514c_6efa_26d5),
    (8, 0x9634_514c_6efa_26d5),
];
const CONFORMANCE_SHARD_DIGESTS: [(usize, u64); 3] = [
    (2, 0x1901_1287_d862_c52f),
    (4, 0x1901_1287_d862_c52f),
    (8, 0x1901_1287_d862_c52f),
];

fn shard_pins(scenario: Scenario) -> &'static [(usize, u64); 3] {
    match scenario {
        Scenario::Traceroute => &TRACEROUTE_SHARD_DIGESTS,
        Scenario::Bandwidth => &BANDWIDTH_SHARD_DIGESTS,
        Scenario::Conformance => &CONFORMANCE_SHARD_DIGESTS,
    }
}

/// Running the chaos world split into one shard must reproduce the
/// sequential pins bit-for-bit — sharding at N=1 is the sequential
/// engine, not an approximation of it.
#[test]
fn sharded_single_equals_sequential() {
    for (scenario, pin) in [
        (Scenario::Traceroute, TRACEROUTE_BASE_DIGEST),
        (Scenario::Bandwidth, BANDWIDTH_BASE_DIGEST),
        (Scenario::Conformance, CONFORMANCE_BASE_DIGEST),
    ] {
        let out = chaos::run_sharded(scenario, BASE_SEED, 1);
        assert_eq!(
            out.digest,
            pin,
            "1-shard drifted from sequential: {}",
            out.report()
        );
    }
}

/// N-shard runs are deterministic with pinned digests of their own.
#[test]
fn sharded_digests_are_pinned() {
    for scenario in Scenario::all() {
        for &(shards, pin) in shard_pins(scenario) {
            let out = chaos::run_sharded(scenario, BASE_SEED, shards);
            assert_eq!(
                out.digest,
                pin,
                "{}-shard {} digest drifted: {}",
                shards,
                scenario.name(),
                out.report()
            );
            assert!(
                matches!(
                    out.verdict,
                    ChaosVerdict::Completed | ChaosVerdict::Aborted(_)
                ),
                "contract violation: {}",
                out.report()
            );
        }
    }
}

/// Same `(scenario, seed, shards)` twice → identical outcome, pool
/// counters included.
#[test]
fn sharded_repeats_are_bit_identical() {
    for shards in [2usize, 4, 8] {
        let a = chaos::run_sharded(Scenario::Traceroute, BASE_SEED + 0x9111, shards);
        let b = chaos::run_sharded(Scenario::Traceroute, BASE_SEED + 0x9111, shards);
        assert_eq!(a, b, "nondeterministic {shards}-shard outcome");
    }
}

/// Capture helper: prints the shard-pin tables. Run with
/// `cargo test -p packetlab --test determinism_regression -- --ignored --nocapture`
/// after an intentional digest change and paste the output above.
#[test]
#[ignore]
fn print_shard_digests() {
    for scenario in Scenario::all() {
        println!("{}:", scenario.name());
        for shards in [2usize, 4, 8] {
            let out = chaos::run_sharded(scenario, BASE_SEED, shards);
            println!(
                "    ({shards}, {:#018x}),   // {:?}",
                out.digest, out.verdict
            );
        }
    }
}
