//! Control-plane scale snapshot: one endpoint reactor multiplexing a
//! sweep of concurrent authenticated controller sessions, each a
//! stop-and-wait client over a 10 ms virtual control RTT.
//!
//! A serial controller completes exactly one sequenced op per RTT, so the
//! single-session point is the baseline every row's `speedup` column is
//! measured against: aggregate virtual ops/sec divided by the serial
//! point's. The reactor's claim is that speedup tracks the session count
//! while per-op p99 latency stays at the RTT floor — multiplexing
//! overlaps waits without adding scheduling delay, because the reactor
//! drains every servable message each tick.
//!
//! Every point runs **twice** and the flushed reply streams must be
//! bit-identical (FNV digest over every reply byte in connection order).
//! Any divergence, a speedup below 10x at ≥ 64 sessions, or a p99 above
//! the RTT floor exits non-zero.
//!
//! Results land in `BENCH_ctrl.json` (the committed baseline the
//! `repro guard ctrl` CI gate reads). `--json` prints the same
//! report on stdout.

use plab_bench::ctrl::{self, PhaseStats, RTT_NS};
use plab_bench::reportjson::{emit_report, json_f, json_rows};

/// Session counts swept, and round trips a session at each.
const SWEEP: [usize; 4] = [1, 64, 1024, 4096];
const OPS: u32 = 100;

struct Point {
    stats: PhaseStats,
    replay_identical: bool,
}

/// Run one session-count point twice; keep the faster wall time (the
/// slower run amortizes cold caches) and check the determinism contract.
fn measure(sessions: usize, ops_per_session: u32, json: bool) -> Point {
    let first = ctrl::point(sessions, ops_per_session);
    let again = ctrl::point(sessions, ops_per_session);
    let replay_identical = first.digest == again.digest
        && first.virtual_ns == again.virtual_ns
        && first.p99_ns == again.p99_ns;
    let stats = if again.wall_secs < first.wall_secs { again } else { first };
    if !json {
        println!(
            "{:>5} sessions: {:>9.1} virtual ops/s, {:>9.1} wall ops/s ({:.3} s wall), \
             p99 {:.1} ms, digest {:#018x}{}",
            sessions,
            stats.virtual_ops_per_sec(),
            stats.wall_ops_per_sec(),
            stats.wall_secs,
            stats.p99_ns as f64 / 1e6,
            stats.digest,
            if replay_identical { "" } else { "  REPLAY DIVERGED" },
        );
    }
    Point { stats, replay_identical }
}

fn render_row(p: &Point, speedup: f64) -> String {
    format!(
        "{{\"sessions\": {}, \"ops\": {}, \"virtual_ops_per_sec\": {}, \
         \"wall_ops_per_sec\": {}, \"wall_secs\": {:.3}, \"p99_ms\": {}, \
         \"speedup_vs_serial\": {}, \"digest\": \"{:#018x}\", \"replay_identical\": {}}}",
        p.stats.sessions,
        p.stats.ops,
        json_f(p.stats.virtual_ops_per_sec()),
        json_f(p.stats.wall_ops_per_sec()),
        p.stats.wall_secs,
        json_f(p.stats.p99_ns as f64 / 1e6),
        json_f(speedup),
        p.stats.digest,
        p.replay_identical,
    )
}

pub fn run(opts: &crate::Opts) -> i32 {
    let json = opts.json;

    if !json {
        println!(
            "control-plane scale: multiplexed stop-and-wait sessions over a \
             {:.0} ms virtual RTT, {OPS} ops/session\n",
            RTT_NS as f64 / 1e6
        );
    }

    let points: Vec<Point> = SWEEP.iter().map(|&n| measure(n, OPS, json)).collect();

    // The serial baseline: the sweep's 1-session point.
    let serial_vops = points[0].stats.virtual_ops_per_sec();

    let mut pass = points.iter().all(|p| p.replay_identical);
    for p in &points {
        let speedup = p.stats.virtual_ops_per_sec() / serial_vops;
        if p.stats.sessions >= 64 && speedup < 10.0 {
            if !json {
                println!(
                    "SPEEDUP TOO LOW: {} sessions only {speedup:.1}x over serial",
                    p.stats.sessions
                );
            }
            pass = false;
        }
        if p.stats.p99_ns > RTT_NS {
            if !json {
                println!(
                    "P99 ABOVE RTT FLOOR: {} sessions at {:.1} ms",
                    p.stats.sessions,
                    p.stats.p99_ns as f64 / 1e6
                );
            }
            pass = false;
        }
    }

    let rows: Vec<String> = points
        .iter()
        .map(|p| render_row(p, p.stats.virtual_ops_per_sec() / serial_vops))
        .collect();
    let mut out = format!(
        "  \"rtt_ms\": {:.1},\n  \"ops_per_session\": {OPS},\n  \"sweep\": [\n",
        RTT_NS as f64 / 1e6
    );
    out.push_str(&json_rows(&rows, "    "));
    out.push_str(&format!("\n  ],\n  \"pass\": {pass}\n}}\n"));
    emit_report("ctrl_scale", "BENCH_ctrl.json", &out, json);
    i32::from(!pass)
}
