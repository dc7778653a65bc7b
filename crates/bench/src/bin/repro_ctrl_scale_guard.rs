//! Control-plane scale guard: fails CI when the multiplexed endpoint
//! reactor regresses in throughput, in scaling, or — far worse — in
//! determinism.
//!
//! Four independent checks, all must pass:
//!
//! 1. **Throughput.** The 1024-session guard point (stop-and-wait clients
//!    over the 10 ms virtual RTT, the same construction `repro_ctrl_scale`
//!    measures) runs repeatedly and the guard statistic is the *minimum*
//!    wall time over the batches (preemption only adds time, so the min
//!    converges on the true cost). The measured wall ops/sec must reach
//!    `CTRL_GUARD_MIN_RATIO` (default 0.25) of the committed
//!    `BENCH_ctrl.json` baseline's matching sweep row.
//!
//! 2. **Scaling.** Aggregate virtual ops/sec at 1024 sessions must stay
//!    ≥ 10x the single-session serial baseline, and per-op p99 latency
//!    must sit at the RTT floor — the reactor drains every servable
//!    message per tick, so any scheduling delay is a regression.
//!
//! 3. **Determinism.** Every batch's flushed reply stream must produce
//!    the pinned digest. Any drift means multiplexed replay is broken — a
//!    hard failure regardless of throughput.
//!
//! 4. **Idle turns.** With 4096 sessions enrolled and none of them
//!    sending, a pump + dispatch + flush turn may cost at most 3x the
//!    4096 `tcp_recv` readiness polls it has to make, both timed in this
//!    process. A reactor that hashes and sorts its way over every
//!    enrolled session each turn reads 6x or more; the dense table and
//!    cursor ring read under 2x.
//!
//! Env overrides:
//! - `CTRL_GUARD_SECS`: throughput measurement budget (default 6.0 s).
//! - `CTRL_GUARD_MIN_RATIO`: pass threshold (default 0.25).
//! - `CTRL_GUARD_BASELINE`: baseline JSON path (default
//!   `BENCH_ctrl.json` in the working directory).
//!
//! The baseline records numbers from whatever machine last ran
//! `repro_ctrl_scale`; on a much slower machine, regenerate it first or
//! lower the ratio. The scaling, determinism and idle-turn checks have no
//! knobs — virtual time is machine-independent by construction, and the
//! idle-turn check divides the machine out. To re-pin after
//! an *intentional* wire or agent change, run `repro_ctrl_scale` and
//! paste the printed 1024-session digest.

use plab_bench::ctrl::{self, RTT_NS};
use std::time::{Duration, Instant};

/// Sessions multiplexed in the guard point (matches the `BENCH_ctrl.json`
/// sweep row the throughput baseline is scraped from).
const GUARD_SESSIONS: usize = 1024;

/// Round trips per session per batch (matches `repro_ctrl_scale`'s
/// default, so digests line up with the committed baseline).
const GUARD_OPS: u32 = 100;

/// Digest of the 1024-session reply stream (matches the
/// `BENCH_ctrl.json` sweep row and `repro_ctrl_scale`'s printed digest).
const PINNED_CTRL_DIGEST: u64 = 0x27b8_c596_556e_9713;

/// Sessions enrolled for the idle-turn check (the sweep's largest point),
/// and how many times the cost of their readiness polls an idle turn may
/// cost.
const IDLE_SESSIONS: usize = 4096;
const IDLE_MAX_OVER_POLLS: f64 = 3.0;

/// Pull `"wall_ops_per_sec": <num>` out of the baseline's sweep row for
/// the guard session count without a JSON dependency (same trick the
/// other guards use).
fn baseline_wall_ops_per_sec(text: &str) -> Option<f64> {
    let row = text.split('{').find(|s| s.contains(&format!("\"sessions\": {GUARD_SESSIONS}")))?;
    let tail = row.split("\"wall_ops_per_sec\":").nth(1)?;
    tail.trim_start().split([',', '}']).next()?.trim().parse().ok()
}

fn main() {
    let json = plab_bench::reportjson::json_flag();
    let budget = std::env::var("CTRL_GUARD_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Duration::from_secs_f64)
        .unwrap_or(Duration::from_secs(6));
    let min_ratio = std::env::var("CTRL_GUARD_MIN_RATIO")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(0.25);
    let baseline_path =
        std::env::var("CTRL_GUARD_BASELINE").unwrap_or_else(|_| "BENCH_ctrl.json".to_string());

    let baseline_text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
    let baseline = baseline_wall_ops_per_sec(&baseline_text)
        .unwrap_or_else(|| panic!("baseline has a sweep row for {GUARD_SESSIONS} sessions"));

    // --- throughput half (every batch is also determinism evidence) ----
    let mut best = f64::MAX;
    let mut digests = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut rounds = 0u32;
    while rounds < 2 || start.elapsed() < budget {
        let stats = ctrl::point(GUARD_SESSIONS, GUARD_OPS);
        digests.push(stats.digest);
        if stats.wall_secs < best {
            best = stats.wall_secs;
        }
        last = Some(stats);
        rounds += 1;
    }
    let stats = last.unwrap();
    let pinned = digests.iter().all(|&d| d == PINNED_CTRL_DIGEST);
    let measured = stats.ops as f64 / best;
    let ratio = measured / baseline;
    let fast_enough = ratio >= min_ratio;

    // --- scaling half ---------------------------------------------------
    let serial = ctrl::point(1, GUARD_OPS);
    let speedup = stats.virtual_ops_per_sec() / serial.virtual_ops_per_sec();
    let scales = speedup >= 10.0 && stats.p99_ns <= RTT_NS && serial.p99_ns <= RTT_NS;

    // --- idle-turn half -------------------------------------------------
    let idle_over_polls = ctrl::ScaleWorld::new(IDLE_SESSIONS).idle_turn_over_polls(200);
    let idle_cheap = idle_over_polls <= IDLE_MAX_OVER_POLLS;

    let pass = fast_enough && scales && pinned && idle_cheap;

    if json {
        print!(
            "{{\n  \"bench\": \"ctrl_scale_guard\",\n  \"sessions\": {GUARD_SESSIONS},\n  \
             \"ops_per_session\": {GUARD_OPS},\n  \"rounds\": {rounds},\n  \
             \"measured_wall_ops_per_sec\": {measured:.1},\n  \
             \"baseline_wall_ops_per_sec\": {baseline:.1},\n  \"ratio\": {ratio:.4},\n  \
             \"min_ratio\": {min_ratio},\n  \"speedup_vs_serial\": {speedup:.1},\n  \
             \"p99_ms\": {:.1},\n  \"digest\": \"{:#018x}\",\n  \"pinned\": {pinned},\n  \
             \"scales\": {scales},\n  \"idle_turn_over_polls\": {idle_over_polls:.2},\n  \
             \"idle_cheap\": {idle_cheap},\n  \"pass\": {pass}\n}}\n",
            stats.p99_ns as f64 / 1e6,
            stats.digest,
        );
    } else {
        println!(
            "ctrl guard: {GUARD_SESSIONS} sessions x {GUARD_OPS} ops, min over {rounds} \
             rounds — measured {measured:.1} wall ops/s vs baseline {baseline:.1} \
             (ratio {ratio:.3}, threshold {min_ratio})"
        );
        println!(
            "ctrl scaling: {speedup:.1}x over serial (threshold 10x), p99 {:.1} ms \
             (floor {:.1} ms) {}",
            stats.p99_ns as f64 / 1e6,
            RTT_NS as f64 / 1e6,
            if scales { "ok" } else { "DRIFT" }
        );
        println!(
            "ctrl determinism: {:#018x} (pinned {PINNED_CTRL_DIGEST:#018x}) {}",
            stats.digest,
            if pinned { "ok" } else { "DRIFT" }
        );
        println!(
            "ctrl idle turn: {idle_over_polls:.2}x the cost of {IDLE_SESSIONS} readiness polls \
             (threshold {IDLE_MAX_OVER_POLLS}x) {}",
            if idle_cheap { "ok" } else { "TURN COST GROWS WITH ENROLLED SESSIONS" }
        );
        println!(
            "{}",
            match (fast_enough && idle_cheap, scales && pinned) {
                (true, true) => "PASS: control-plane throughput, scaling, and determinism hold",
                (false, true) => "FAIL: control-plane throughput regressed more than the budget allows",
                (true, false) => "FAIL: control-plane scaling or replay drifted",
                (false, false) => "FAIL: control-plane throughput regressed AND scaling/replay drifted",
            }
        );
    }
    if !pass {
        std::process::exit(1);
    }
}
