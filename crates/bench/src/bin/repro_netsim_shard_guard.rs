//! Sharded-simulator guard: fails CI when the windowed multi-shard
//! engine regresses in throughput or — far worse — in determinism.
//!
//! Three independent checks, all must pass:
//!
//! 1. **Throughput.** The 1024-host pod world split across 4 shards is
//!    pumped to quiescence repeatedly and the guard statistic is the
//!    *minimum* round time over many batches (preemption and frequency
//!    ramps only add time, so the min converges on the true cost). The
//!    measured events/sec must reach `NETSIM_SHARD_GUARD_MIN_RATIO`
//!    (default 0.85) of the committed `BENCH_netsim.json` baseline's
//!    `sharded_sweep` row with the same hosts, shards and threads. The
//!    threshold is looser than the sequential guard's because the
//!    windowed advance adds barrier points whose cost is more
//!    scheduler-sensitive. The one-thread advance is always checked; the
//!    threaded one (`min(4, cores)` threads) only where there is a
//!    second core to run it on and a baseline row to hold it to —
//!    otherwise the guard says `skipped: 1 core` (or names the missing
//!    row) instead of passing silently. It runs on the 10,240-host world:
//!    at 1024 hosts a window holds a few events a shard, so a threaded
//!    round times its 2,000 thread spawns, not the engine (the row read
//!    0.19-0.52 M events/s across sweeps on one machine).
//!
//! 2. **Determinism.** Every chaos scenario runs twice at 4 shards with
//!    the regression seed and the two outcomes must be bit-identical;
//!    each digest must also equal the pinned value captured when the
//!    sharded engine landed. Any drift here means replay is broken —
//!    that is a hard failure regardless of throughput.
//!
//! 3. **Build cost.** World construction is outside every event timing,
//!    so it has bounds of its own, each measured once in a fresh process
//!    ([`netsim_scale::build_cost`]): building 102,400 hosts may take at
//!    most 20x as long as building 10,240 (linear is 10; a per-node scan
//!    or a colliding hash reads in the hundreds), and the 4-shard world
//!    may hold at most 2x the resident memory of the 1-shard one (shards
//!    own partitions; replicas would read ~3x).
//!
//! Env overrides:
//! - `NETSIM_SHARD_GUARD_SECS`: measurement budget (default 2.0 s).
//! - `NETSIM_SHARD_GUARD_MIN_RATIO`: pass threshold (default 0.85).
//! - `NETSIM_SHARD_GUARD_BASELINE`: baseline JSON path (default
//!   `BENCH_netsim.json` in the working directory).
//!
//! The baseline records numbers from whatever machine last ran
//! `repro_netsim_scale`; on a much slower machine, regenerate it first
//! or lower the ratio. The determinism half has no knobs — digests are
//! machine-independent by construction.

use packetlab::chaos::{self, Scenario};
use plab_bench::netsim_scale;
use std::time::{Duration, Instant};

const HOSTS: usize = 1024;
const THREADED_HOSTS: usize = 10_240;
const SHARDS: usize = 4;

/// Seed shared with `crates/core/tests/determinism_regression.rs`.
const BASE_SEED: u64 = 0x5eed_0000;

/// 4-shard digests pinned in `determinism_regression.rs`; drift there
/// must show up here too, without needing the test binary.
const PINNED_DIGESTS: [(Scenario, u64); 3] = [
    (Scenario::Traceroute, 0x6c76_7bdc_b133_64f4),
    (Scenario::Bandwidth, 0xfe1e_bfab_1242_e70c),
    (Scenario::Conformance, 0x1901_1287_d862_c52f),
];

/// Build-cost bounds (see the module docs).
const BUILD_HOSTS: [usize; 2] = [10_240, 102_400];
const MAX_BUILD_GROWTH: f64 = 20.0;
const MAX_RSS_GROWTH: f64 = 2.0;

/// Pull `"events_per_sec": <num>` out of the baseline's sharded_sweep
/// row for a (hosts, 4 shards, threads) point without a JSON dependency
/// (same trick the other guards use). The legacy `sweep` rows never
/// carry a `"shards"` key, so matching on all keys cannot hit them.
fn baseline_events_per_sec(text: &str, hosts: usize, threads: usize) -> Option<f64> {
    let row = text.split('{').find(|s| {
        s.contains(&format!("\"hosts\": {hosts},"))
            && s.contains(&format!("\"shards\": {SHARDS},"))
            && s.contains(&format!("\"threads\": {threads},"))
    })?;
    let tail = row.split("\"events_per_sec\":").nth(1)?;
    tail.trim_start()
        .split([',', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// Minimum-round throughput of the `hosts`-host world on `threads`
/// threads: (events a round, events/sec, rounds run).
fn measure(hosts: usize, threads: usize, budget: Duration) -> (u64, f64, u32) {
    let mut best = f64::MAX;
    let mut events = 0u64;
    let start = Instant::now();
    let mut rounds = 0u32;
    while rounds < 4 || start.elapsed() < budget {
        let (ev, secs, world) = netsim_scale::round_pods(hosts, SHARDS, threads);
        for pool in world.sim.pool_handles() {
            assert_eq!(pool.taken(), pool.recycled(), "pool leak in shard world");
        }
        events = ev;
        if secs < best {
            best = secs;
        }
        rounds += 1;
    }
    (events, events as f64 / best, rounds)
}

fn main() {
    netsim_scale::serve_build_cost();
    let json = std::env::args().any(|a| a == "--json");
    let budget = std::env::var("NETSIM_SHARD_GUARD_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Duration::from_secs_f64)
        .unwrap_or(Duration::from_secs(2));
    let min_ratio = std::env::var("NETSIM_SHARD_GUARD_MIN_RATIO")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.85);
    let baseline_path = std::env::var("NETSIM_SHARD_GUARD_BASELINE")
        .unwrap_or_else(|_| "BENCH_netsim.json".to_string());

    let baseline_text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = baseline_events_per_sec(&baseline_text, HOSTS, 1)
        .expect("baseline has a sharded_sweep row for 1024 hosts x 4 shards x 1 thread");

    // --- determinism half ---------------------------------------------
    let mut digest_rows = Vec::new();
    let mut deterministic = true;
    for (scenario, pinned) in PINNED_DIGESTS {
        let first = chaos::run_sharded(scenario, BASE_SEED, SHARDS);
        let second = chaos::run_sharded(scenario, BASE_SEED, SHARDS);
        let replay_ok = first == second;
        let pin_ok = first.digest == pinned;
        deterministic &= replay_ok && pin_ok;
        digest_rows.push((scenario, first.digest, pinned, replay_ok));
        if !json {
            println!(
                "shard determinism: {:<11} digest {:#018x} (pinned {:#018x}) \
                 replay {} pin {}",
                scenario.name(),
                first.digest,
                pinned,
                if replay_ok { "ok" } else { "DRIFT" },
                if pin_ok { "ok" } else { "DRIFT" }
            );
        }
    }

    // --- throughput half ----------------------------------------------
    let (events, measured, rounds) = measure(HOSTS, 1, budget / 2);
    let ratio = measured / baseline;
    let mut fast_enough = ratio >= min_ratio;
    let threads = SHARDS.min(std::thread::available_parallelism().map_or(1, |p| p.get()));
    let threaded = match baseline_events_per_sec(&baseline_text, THREADED_HOSTS, threads) {
        _ if threads == 1 => "skipped: 1 core".to_string(),
        None => format!("skipped: baseline has no {THREADED_HOSTS}-host {threads}-thread row"),
        Some(base) => {
            let (_, rate, _) = measure(THREADED_HOSTS, threads, budget / 2);
            fast_enough &= rate / base >= min_ratio;
            format!(
                "{:.2} M events/s vs baseline {:.2} M events/s (ratio {:.3})",
                rate / 1e6,
                base / 1e6,
                rate / base
            )
        }
    };

    // --- build half ---------------------------------------------------
    let [small, large] = BUILD_HOSTS.map(|n| netsim_scale::build_cost(n, SHARDS));
    let one_shard = netsim_scale::build_cost(BUILD_HOSTS[1], 1);
    let build_growth = large.secs / small.secs;
    // No procfs, no resident-set reading: the ratio is NaN, and the
    // memory bound is skipped out loud instead of passing silently.
    let rss_growth = large.rss_kb as f64 / one_shard.rss_kb as f64;
    let rss_unread = rss_growth.is_nan();
    let rss_line = if rss_unread {
        "skipped: no /proc/self/status".to_string()
    } else {
        format!(
            "{:.1} MB on {SHARDS} shards vs {:.1} MB on 1 (x{rss_growth:.2}, bound x{MAX_RSS_GROWTH})",
            large.rss_kb as f64 / 1024.0,
            one_shard.rss_kb as f64 / 1024.0
        )
    };
    let build_ok =
        build_growth <= MAX_BUILD_GROWTH && (rss_unread || rss_growth <= MAX_RSS_GROWTH);
    let pass = fast_enough && deterministic && build_ok;

    if json {
        let digests: Vec<String> = digest_rows
            .iter()
            .map(|(s, d, p, r)| {
                format!(
                    "    {{\"scenario\": \"{}\", \"digest\": \"{d:#018x}\", \
                     \"pinned\": \"{p:#018x}\", \"replay_identical\": {r}}}",
                    s.name()
                )
            })
            .collect();
        print!(
            "{{\n  \"bench\": \"netsim_shard_guard\",\n  \"hosts\": {HOSTS},\n  \
             \"shards\": {SHARDS},\n  \"threads\": 1,\n  \
             \"rounds\": {rounds},\n  \"events_per_round\": {events},\n  \
             \"measured_events_per_sec\": {measured:.1},\n  \
             \"baseline_events_per_sec\": {baseline:.1},\n  \"ratio\": {ratio:.4},\n  \
             \"min_ratio\": {min_ratio},\n  \"threaded\": \"{threaded}\",\n  \
             \"build_s\": [{:.3}, {:.3}],\n  \"build_growth\": {build_growth:.2},\n  \
             \"build_rss\": \"{rss_line}\",\n  \"build_ok\": {build_ok},\n  \
             \"digests\": [\n{}\n  ],\n  \
             \"deterministic\": {deterministic},\n  \"pass\": {pass}\n}}\n",
            small.secs,
            large.secs,
            digests.join(",\n")
        );
    } else {
        println!(
            "shard guard: {HOSTS} hosts x {SHARDS} shards (1 thread), \
             min over {rounds} rounds — measured {:.2} M events/s vs baseline \
             {:.2} M events/s (ratio {ratio:.3}, threshold {min_ratio})",
            measured / 1e6,
            baseline / 1e6
        );
        println!("shard guard: {THREADED_HOSTS} hosts on {threads} threads — {threaded}");
        println!(
            "shard build: {} hosts in {:.3} s, {} in {:.3} s \
             (x{build_growth:.1}, bound x{MAX_BUILD_GROWTH}); resident {rss_line}",
            BUILD_HOSTS[0], small.secs, BUILD_HOSTS[1], large.secs
        );
        for (ok, what) in [
            (fast_enough, "sharded throughput regressed more than the budget allows"),
            (deterministic, "sharded replay drifted from the pinned digests"),
            (build_ok, "world construction outgrew its time or memory bound"),
        ] {
            if !ok {
                println!("FAIL: {what}");
            }
        }
        if pass {
            println!("PASS: sharded throughput, determinism and build cost all hold");
        }
    }
    if !pass {
        std::process::exit(1);
    }
}
