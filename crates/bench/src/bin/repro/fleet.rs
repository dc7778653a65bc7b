//! Fleet orchestration snapshot: fan the §4 ping experiment (with the
//! paper's Figure-2 monitor riding the certificate chain) over rosters of
//! hundreds to thousands of netsim endpoints, and record orchestration
//! throughput (endpoints/sec of wall time) plus the deterministic report
//! digest at each size.
//!
//! Every point runs **twice** and the two reports must be bit-identical —
//! events, summary, and digest. The largest point also runs twice under
//! the crash/restart + burst-loss fault plan; that replay must be
//! bit-identical too, and the faults must visibly bite (retries > 0).
//! Any divergence exits non-zero.
//!
//! Results land in `BENCH_fleet.json` (the committed baseline the
//! `repro guard fleet` CI gate reads). `--json` prints the same report on
//! stdout; `--sweep` takes comma-separated roster sizes (default
//! `512,1024,2048`). The sharded advance runs on `min(4, cores)` threads:
//! wall time varies with that, the report does not.

use plab_bench::fleet;
use plab_bench::reportjson::{emit_report, json_f, json_rows};
use plab_runner::{FleetRun, Outcome};

struct Point {
    pairs: usize,
    wall_secs: f64,
    endpoints_per_sec: f64,
    run: FleetRun,
    replay_identical: bool,
}

fn outcome_counts(run: &FleetRun) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for t in &run.results {
        match t.outcome {
            Outcome::Completed => c.0 += 1,
            Outcome::Failed => c.1 += 1,
            Outcome::Aborted => c.2 += 1,
        }
    }
    c
}

/// Run one (pairs, chaos) point twice; keep the faster wall time (the
/// slower one amortizes cold caches) and check the replay contract.
fn measure(pairs: usize, threads: usize, chaos: bool, json: bool) -> Point {
    let (first, wall_a) = fleet::point(pairs, threads, chaos);
    let (again, wall_b) = fleet::point(pairs, threads, chaos);
    let replay_identical = first.report.digest == again.report.digest
        && first.report.events == again.report.events
        && first.report.summary == again.report.summary;
    let wall_secs = wall_a.min(wall_b);
    let endpoints_per_sec = pairs as f64 / wall_secs;
    let (completed, failed, aborted) = outcome_counts(&first);
    if !json {
        println!(
            "{:>5} endpoints{}: {:>8.1} endpoints/s ({:.2} s wall), \
             {completed} completed / {failed} failed / {aborted} aborted, \
             {} retries, digest {:#018x}{}",
            pairs,
            if chaos { " +chaos" } else { "" },
            endpoints_per_sec,
            wall_secs,
            fleet::retries(&first),
            first.report.digest,
            if replay_identical { "" } else { "  REPLAY DIVERGED" },
        );
    }
    Point { pairs, wall_secs, endpoints_per_sec, run: first, replay_identical }
}

fn render_row(p: &Point) -> String {
    let (completed, failed, aborted) = outcome_counts(&p.run);
    format!(
        "{{\"pairs\": {}, \"endpoints_per_sec\": {}, \"wall_secs\": {:.3}, \
         \"digest\": \"{:#018x}\", \"completed\": {completed}, \"failed\": {failed}, \
         \"aborted\": {aborted}, \"retries\": {}, \"replay_identical\": {}}}",
        p.pairs,
        json_f(p.endpoints_per_sec),
        p.wall_secs,
        p.run.report.digest,
        fleet::retries(&p.run),
        p.replay_identical,
    )
}

pub fn run(opts: &crate::Opts) -> i32 {
    let json = opts.json;
    let sweep = opts.rosters.as_deref().unwrap_or(&[512, 1024, 2048]);
    let threads = fleet::threads();

    if !json {
        println!(
            "fleet orchestration: ping + Figure-2 monitor over {} shards, {threads} threads\n",
            fleet::SHARDS
        );
    }

    let clean: Vec<Point> =
        sweep.iter().map(|&pairs| measure(pairs, threads, false, json)).collect();
    let largest = *sweep.iter().max().unwrap();
    let chaos = measure(largest, threads, true, json);
    let chaos_bites = fleet::retries(&chaos.run) > 0;
    if !chaos_bites && !json {
        println!("CHAOS PLAN NEVER BIT: no retries recorded at {largest} endpoints");
    }

    let pass = clean.iter().all(|p| p.replay_identical) && chaos.replay_identical && chaos_bites;

    let rows: Vec<String> = clean.iter().map(render_row).collect();
    let mut out = format!(
        "  \"shards\": {},\n  \"threads\": {threads},\n  \"seed\": {},\n  \"sweep\": [\n",
        fleet::SHARDS,
        fleet::SEED
    );
    out.push_str(&json_rows(&rows, "    "));
    out.push_str(&format!(
        "\n  ],\n  \"chaos\": {},\n  \"pass\": {pass}\n}}\n",
        render_row(&chaos)
    ));
    emit_report("fleet", "BENCH_fleet.json", &out, json);
    i32::from(!pass)
}
