//! Netsim scale sweep: events/sec, zero-copy effectiveness, and pool
//! residency across 16-, 128-, and 1024-host worlds, written to
//! `BENCH_netsim.json`, a record no guard reads.
//!
//! The sweep exists to answer the question the single-line throughput
//! bench cannot: does per-event cost stay flat as the topology grows?
//! A comparison-based scheduler pays O(log n) per event as the pending
//! set grows with host count; the timer wheel's placement is O(1), so
//! the events/sec column should fall sub-linearly (only cache pressure
//! and route-table size) rather than logarithmically. The frames
//! borrowed/copied columns expose how much of the fan-out the
//! refcounted pool serves without copying, and peak residency bounds
//! simulator memory at scale.
//!
//! The second half of the report is the **sharded sweep**: pod worlds
//! (one core, 64-host pods, manual routes) at 1k/10k/100k hosts, split
//! across 1/2/4/8 shards under conservative-lookahead windows. Columns
//! record events/sec, ns/event, cross-shard handoffs, windows run, and
//! the speedup over the same world at one shard; each point runs on one
//! thread and, where the machine has a second core, again on
//! `min(shards, cores)` threads, so the `threads` column says which
//! rows can show parallel speedup at all (the header carries the core
//! count). `build_s` and `build_rss_mb` are what constructing the world
//! costs — excluded from the event timings, measured in a fresh process
//! per shard count ([`netsim_scale::build_cost`]).
//!
//! Counts go to stdout, rates, build costs and ratios of wall times to
//! stderr. `--rounds` overrides the per-size round count (default 4; the
//! statistic is the minimum, so more rounds only tighten it; the sharded
//! sweep caps the count at two a point, then keeps going until half a
//! second has passed).

use plab_bench::guard::min_over_rounds;
use plab_bench::netsim_scale;
use std::time::Duration;

const SIZES: [usize; 3] = [16, 128, 1024];
const SHARD_SIZES: [usize; 3] = [1024, 10_240, 102_400];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Row {
    hosts: usize,
    events: u64,
    events_per_sec: f64,
    ns_per_event: f64,
    pool_taken: u64,
    frames_borrowed: u64,
    cow_copies: u64,
    peak_residency: u64,
}

struct ShardRow {
    hosts: usize,
    shards: usize,
    threads: usize,
    events: u64,
    events_per_sec: f64,
    ns_per_event: f64,
    handoffs: u64,
    windows: u64,
    speedup_vs_1shard: f64,
    build_s: f64,
    build_rss_mb: f64,
}

pub fn run(opts: &crate::Opts) -> i32 {
    let rounds = opts.rounds.unwrap_or(4);
    println!("netsim scale sweep: {SIZES:?} hosts, min over {rounds} rounds each\n");

    let mut rows = Vec::new();
    for &n in &SIZES {
        // Minimum wall time over rounds (the guards' timer and policy).
        let mut last = None;
        let ([best], _) = min_over_rounds(Duration::ZERO, rounds.clamp(1, u32::MAX.into()) as u32, |_| {
            let (events, secs, sim) = netsim_scale::round(n);
            last = Some((events, sim));
            [secs]
        });
        let (events, sim) = last.expect("at least one round");
        let pool = &sim.pools()[0];
        let row = Row {
            hosts: n,
            events,
            events_per_sec: events as f64 / best,
            ns_per_event: best * 1e9 / events as f64,
            pool_taken: pool.taken(),
            frames_borrowed: pool.borrowed(),
            cow_copies: pool.cow_copies(),
            peak_residency: pool.peak_outstanding(),
        };
        assert_eq!(pool.taken(), pool.recycled(), "pool leak at {n} hosts");
        println!(
            "{:>5} hosts: {:>8} events, {} taken / {} borrowed / {} CoW, peak residency {}",
            row.hosts,
            row.events,
            row.pool_taken,
            row.frames_borrowed,
            row.cow_copies,
            row.peak_residency
        );
        eprintln!(
            "{:>5} hosts: {:>6.2} M events/s ({:>6.1} ns/event)",
            row.hosts,
            row.events_per_sec / 1e6,
            row.ns_per_event
        );
        rows.push(row);
    }

    // Scaling factor: per-event slowdown going from the smallest to the
    // largest world. Sub-linear means < hosts ratio (64x here).
    let slowdown = rows.last().unwrap().ns_per_event / rows[0].ns_per_event;
    eprintln!(
        "\nper-event slowdown 16 → 1024 hosts: {slowdown:.2}x \
         (64x hosts; O(1) scheduling keeps this far below linear)"
    );

    // ------------------------------------------------------------------
    // Sharded pod sweep.
    // ------------------------------------------------------------------
    let shard_rounds = rounds.clamp(1, 2) as u32;
    println!(
        "\nsharded pod sweep: {SHARD_SIZES:?} hosts x {SHARD_COUNTS:?} shards, \
         min over {shard_rounds} rounds and 0.5 s each\n"
    );
    let mut shard_rows: Vec<ShardRow> = Vec::new();
    // Every shard count on one thread, then on as many as it and the
    // machine allow, when that is more than one.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut points = Vec::new();
    for (at, &shards) in SHARD_COUNTS.iter().enumerate() {
        points.push((at, shards, 1));
        if shards.min(cores) > 1 {
            points.push((at, shards, shards.min(cores)));
        }
    }
    for &n in &SHARD_SIZES {
        let mut base_ns = 0.0f64;
        // One build measurement per shard count (threads do not enter
        // construction), all taken before this size's event rounds.
        let builds = SHARD_COUNTS.map(|shards| netsim_scale::build_cost(n, shards));
        for &(at, shards, threads) in &points {
            let build = &builds[at];
            // At least `shard_rounds` rounds and half a second: the guard
            // holds its own many-round minimum to these rows, and two
            // rounds of a 10 ms world are not yet a minimum.
            let mut last = None;
            let ([best], _) = min_over_rounds(Duration::from_millis(500), shard_rounds, |_| {
                let (events, secs, world) = netsim_scale::round_pods(n, shards, threads);
                last = Some((events, world));
                [secs]
            });
            let (events, world) = last.expect("at least one round");
            for (i, pool) in world.sim.pools().iter().enumerate() {
                assert_eq!(
                    pool.taken(),
                    pool.recycled(),
                    "pool leak in shard {i} at {n} hosts x {shards} shards"
                );
            }
            let ns_per_event = best * 1e9 / events as f64;
            if shards == 1 {
                base_ns = ns_per_event;
            }
            let row = ShardRow {
                hosts: n,
                shards,
                threads,
                events,
                events_per_sec: events as f64 / best,
                ns_per_event,
                handoffs: world.sim.handoffs(),
                windows: world.sim.windows_run(),
                speedup_vs_1shard: base_ns / ns_per_event,
                build_s: build.secs,
                build_rss_mb: build.rss_kb as f64 / 1024.0,
            };
            let label = format!(
                "{:>6} hosts x {} shards ({} threads)",
                row.hosts, row.shards, row.threads
            );
            println!(
                "{label}: {:>8} events, {:>6} handoffs, {:>5} windows",
                row.events, row.handoffs, row.windows
            );
            eprintln!(
                "{label}: {:>6.2} M events/s ({:>6.1} ns/event), speedup {:.2}x, \
                 build {:.3} s / {:.1} MB",
                row.events_per_sec / 1e6,
                row.ns_per_event,
                row.speedup_vs_1shard,
                row.build_s,
                row.build_rss_mb
            );
            shard_rows.push(row);
        }
    }
    // The sharded-scale target: the biggest pod world's best per-event
    // cost should stay near 2x of the 16-host chain figure. Past ~10k
    // hosts the working set falls out of L3, so the ratio is
    // machine-sensitive; the guards hold in-process quotients at smaller
    // sizes rather than asserting this ratio.
    let biggest = shard_rows
        .iter()
        .filter(|r| r.hosts == SHARD_SIZES[2])
        .map(|r| r.ns_per_event)
        .fold(f64::MAX, f64::min);
    let ratio_vs_16 = biggest / rows[0].ns_per_event;
    eprintln!(
        "\nbest ns/event at {} hosts: {biggest:.1} ({ratio_vs_16:.2}x the \
         16-host figure; target is 2x)",
        SHARD_SIZES[2]
    );

    let mut out = String::from("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hosts\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \
             \"ns_per_event\": {:.2}, \"pool_taken\": {}, \"frames_borrowed\": {}, \
             \"cow_copies\": {}, \"peak_residency\": {}}}{}\n",
            r.hosts,
            r.events,
            r.events_per_sec,
            r.ns_per_event,
            r.pool_taken,
            r.frames_borrowed,
            r.cow_copies,
            r.peak_residency,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"per_event_slowdown_16_to_1024\": {slowdown:.3},\n  \"sharded_sweep\": [\n"
    ));
    for (i, r) in shard_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hosts\": {}, \"shards\": {}, \"threads\": {}, \"events\": {}, \
             \"events_per_sec\": {:.1}, \"ns_per_event\": {:.2}, \"handoffs\": {}, \
             \"windows\": {}, \"speedup_vs_1shard\": {:.3}, \"build_s\": {:.3}, \
             \"build_rss_mb\": {:.1}}}{}\n",
            r.hosts,
            r.shards,
            r.threads,
            r.events,
            r.events_per_sec,
            r.ns_per_event,
            r.handoffs,
            r.windows,
            r.speedup_vs_1shard,
            r.build_s,
            r.build_rss_mb,
            if i + 1 < shard_rows.len() { "," } else { "" }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"biggest_world_best_ns_per_event\": {biggest:.2},\n  \
         \"biggest_world_ratio_vs_16_host\": {ratio_vs_16:.3}\n}}\n"
    ));
    plab_bench::reportjson::emit_report("netsim_scale", "BENCH_netsim.json", &out);
    0
}
