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
//! `repro_guard ctrl` CI gate reads). `--json` prints the same
//! report on stdout.
//!
//! Env knobs:
//! - `CTRL_SWEEP`: comma-separated session counts (default `1,64,1024,4096`).
//! - `CTRL_OPS`: round trips per session per point (default `100`).

use plab_bench::ctrl::{self, PhaseStats, RTT_NS};
use plab_bench::reportjson::{emit_report, json_f, json_rows, machine_members};

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

fn main() {
    let json = plab_bench::reportjson::json_flag();
    let sweep: Vec<usize> = std::env::var("CTRL_SWEEP")
        .unwrap_or_else(|_| "1,64,1024,4096".into())
        .split(',')
        .map(|s| s.trim().parse().expect("CTRL_SWEEP: bad session count"))
        .collect();
    assert!(!sweep.is_empty(), "CTRL_SWEEP is empty");
    let ops: u32 = std::env::var("CTRL_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);

    if !json {
        println!(
            "control-plane scale: multiplexed stop-and-wait sessions over a \
             {:.0} ms virtual RTT, {ops} ops/session\n",
            RTT_NS as f64 / 1e6
        );
    }

    let points: Vec<Point> = sweep.iter().map(|&n| measure(n, ops, json)).collect();

    // The serial baseline: the 1-session point if swept, else computed.
    let serial_vops = points
        .iter()
        .find(|p| p.stats.sessions == 1)
        .map(|p| p.stats.virtual_ops_per_sec())
        .unwrap_or_else(|| ctrl::point(1, ops).virtual_ops_per_sec());

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
    let mut out = format!("{{\n  \"bench\": \"ctrl_scale\",\n  {},\n", machine_members());
    out.push_str(&format!(
        "  \"rtt_ms\": {:.1},\n  \"ops_per_session\": {ops},\n  \"sweep\": [\n",
        RTT_NS as f64 / 1e6
    ));
    out.push_str(&json_rows(&rows, "    "));
    out.push_str(&format!("\n  ],\n  \"pass\": {pass}\n}}\n"));
    emit_report("BENCH_ctrl.json", &out, json);
    if !pass {
        std::process::exit(1);
    }
}
